//! Small rendering helpers shared by table/figure types.
//!
//! Every artifact implements [`Tsv`]: `write_tsv` writes cells directly with
//! `write!` — no per-cell `String` allocation — and `to_tsv` is provided.
//! `Report::write_dir` streams the same writers through a `BufWriter`
//! straight to disk.

use std::io::{self, Write};

/// A table or figure that renders as tab-separated values. Object-safe, so
/// `Report::artifacts` can list all 27 behind one `&dyn Tsv`.
pub trait Tsv {
    /// Stream the TSV rendering into `w`.
    fn write_tsv(&self, w: &mut dyn Write) -> io::Result<()>;

    /// The TSV rendering as an in-memory `String`.
    fn to_tsv(&self) -> String {
        to_string(|w| self.write_tsv(w))
    }
}

/// Write a TSV header row.
pub fn write_header(w: &mut dyn Write, header: &[&str]) -> io::Result<()> {
    for (i, h) in header.iter().enumerate() {
        if i > 0 {
            w.write_all(b"\t")?;
        }
        w.write_all(h.as_bytes())?;
    }
    w.write_all(b"\n")
}

/// Run a `write_tsv`-style closure against an in-memory buffer and return
/// the result as a `String` (the `to_tsv` convenience path).
pub fn to_string(f: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    f(&mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("TSV output is UTF-8")
}

/// Format a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair;

    impl Tsv for Pair {
        fn write_tsv(&self, w: &mut dyn Write) -> io::Result<()> {
            write_header(w, &["a", "b"])?;
            writeln!(w, "1\t2")
        }
    }

    #[test]
    fn writer_matches_string_path() {
        assert_eq!(Pair.to_tsv(), "a\tb\n1\t2\n");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(pct(1.0), "100.00%");
    }
}
