//! The span ledger of a traced run: one record (name, start, end, parent)
//! around each call the staged drivers make into a layer, kept in memory
//! and written out when the run ends.
//!
//! A layer's time is its spans' *self* time: a span's duration minus the
//! part its child spans cover. The root span of a repetition is named
//! [`REP`]; its self time is what the ledger could not attribute.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span around one whole repetition.
pub const REP: &str = "rep";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Ledger {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the innermost span still open.
    current: Option<usize>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            recording: true,
            origin: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    /// A ledger that records nothing: [`Ledger::time`] only calls through.
    /// Untraced repetitions pass this to code they share with traced ones.
    pub fn off() -> Self {
        Ledger {
            recording: false,
            ..Ledger::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open. `f` gets the ledger back so it can open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.current;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.current = Some(idx);
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.current = parent;
        out
    }

    /// Number of spans recorded so far; pass it to [`Ledger::self_seconds`]
    /// to total only the spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds per span name, over the spans recorded since
    /// `mark`. A parent recorded before `mark` is not charged.
    pub fn self_seconds(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent {
                self_ns[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&self_ns).skip(mark) {
            *totals.entry(s.name).or_insert(0.0) += *ns as f64 / 1e9;
        }
        totals
    }

    /// Wall seconds of the most recent span named `name`.
    pub fn last_duration(&self, name: &str) -> f64 {
        let s = self
            .spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span named {name} was recorded"));
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Write every span as `index  parent  name  start_ns  end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut l = Ledger::new();
        l.time(REP, |l| {
            l.time("a", |l| {
                l.time("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            l.time("b", |_| ());
        });
        let t = l.self_seconds(0);
        assert!(t["b"] >= 0.002);
        assert!(t["a"] < t["b"], "a's child time must not count as a's own");
        let total: f64 = t.values().sum();
        assert!((total - l.last_duration(REP)).abs() < 1e-9);
    }

    #[test]
    fn a_ledger_that_is_off_records_nothing() {
        let mut l = Ledger::off();
        assert_eq!(l.time("a", |l| l.time("b", |_| 7)), 7);
        assert_eq!(l.mark(), 0);
    }

    #[test]
    fn mark_limits_the_totals_to_later_spans() {
        let mut l = Ledger::new();
        l.time("early", |_| ());
        let mark = l.mark();
        l.time("late", |_| ());
        let t = l.self_seconds(mark);
        assert!(t.contains_key("late") && !t.contains_key("early"));
    }
}
