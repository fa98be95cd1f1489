//! The workspace's one JSON implementation: a string escaper, a float
//! formatter, and a strict reader.
//!
//! Three outputs are JSON: `metrics.json` (see [`mod@crate::manifest`]),
//! `claims.json` and the Cowrie-style event lines. Each writer lays out its
//! own object with [`string`] and [`float`].
//!
//! The reader is a minimal recursive-descent parser over the subset those
//! files hold that is ever read back: objects, arrays, strings and
//! integers. Anything else (floats, `true`, `null`) is an [`Error`], which
//! keeps "parses cleanly" a meaningful oracle. It runs in time linear in
//! its input and bounds its nesting depth, so arbitrary text yields a value
//! or an error, never a panic or a stack overflow.

use std::fmt;

/// JSON-escape a string (quotes included).
pub fn string(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            '\t' => o.push_str("\\t"),
            '\u{08}' => o.push_str("\\b"),
            '\u{0c}' => o.push_str("\\f"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Render a float: `null` if it is not finite, a trailing `.0` on integral
/// values below 1e15 (so a reader still sees a float), else the shortest
/// round-tripping form.
pub fn float(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        v.to_string()
    }
}

/// Nesting deeper than this is refused; `metrics.json` nests four deep.
const MAX_DEPTH: usize = 64;

/// A document failed to parse, or a value had the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub(crate) String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A parsed value. Objects keep source order and may repeat a key; callers
/// that need unique keys check for themselves.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An integer (no fraction, no exponent).
    Int(i128),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's entries, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse one document; only whitespace may follow the value.
    pub fn parse(text: &str) -> Result<Json, Error> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// The first value under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The entries of an object; `what` names the value in the error.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], Error> {
        match self {
            Json::Object(o) => Ok(o),
            _ => Err(Error::new(format!("{what} must be an object"))),
        }
    }

    /// The items of an array.
    pub fn as_array(&self, what: &str) -> Result<&[Json], Error> {
        match self {
            Json::Array(a) => Ok(a),
            _ => Err(Error::new(format!("{what} must be an array"))),
        }
    }

    /// A string's text.
    pub fn as_str(&self, what: &str) -> Result<&str, Error> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(Error::new(format!("{what} must be a string"))),
        }
    }

    /// An integer that fits `u64`.
    pub fn as_u64(&self, what: &str) -> Result<u64, Error> {
        match self {
            Json::Int(n) => {
                u64::try_from(*n).map_err(|_| Error::new(format!("{what} out of u64 range: {n}")))
            }
            _ => Err(Error::new(format!("{what} must be an integer"))),
        }
    }

    /// An integer that fits `i64`.
    pub fn as_i64(&self, what: &str) -> Result<i64, Error> {
        match self {
            Json::Int(n) => {
                i64::try_from(*n).map_err(|_| Error::new(format!("{what} out of i64 range: {n}")))
            }
            _ => Err(Error::new(format!("{what} must be an integer"))),
        }
    }
}

/// The parse cursor. `pos` only ever stops on an ASCII byte or at the end,
/// so every slice of `text` it takes falls on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, Error> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::new(format!(
                "unexpected {:?} at byte {} (only objects, arrays, strings and integers are read)",
                self.text[self.pos..].chars().next(),
                self.pos
            ))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth)?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(Error::new(format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(Error::new(format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| Error::new(format!("bad integer {text:?} at byte {start}")))
    }

    /// One pass over the string: runs of plain characters are copied as
    /// slices (they end at an ASCII byte, hence on a char boundary).
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => self.escape(&mut out)?,
                _ => return Err(Error::new("raw control character in string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error::new("unterminated escape"))?;
        if !esc.is_ascii() {
            return Err(Error::new(format!("bad escape at byte {}", self.pos)));
        }
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: the low half must follow.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(Error::new("bad low surrogate"));
                    }
                    char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
                } else {
                    char::from_u32(hi)
                };
                out.push(c.ok_or_else(|| Error::new("bad \\u escape"))?);
            }
            other => return Err(Error::new(format!("bad escape \\{}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| Error::new("bad \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| Error::new("bad \\u escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_parse_back() {
        let s = "quote \" backslash \\ tab \t nl \n bell \u{7} crab 🦀";
        assert_eq!(
            string(s),
            "\"quote \\\" backslash \\\\ tab \\t nl \\n bell \\u0007 crab 🦀\""
        );
        assert_eq!(Json::parse(&string(s)), Ok(Json::Str(s.to_string())));
        assert_eq!(
            Json::parse(r#""A\u00e9\ud83d\ude00\/""#),
            Ok(Json::Str("Aé😀/".to_string()))
        );
    }

    #[test]
    fn floats_keep_a_point_and_map_non_finite_to_null() {
        assert_eq!(float(3.0), "3.0");
        assert_eq!(float(-0.0), "-0.0");
        assert_eq!(float(0.25), "0.25");
        assert_eq!(float(1e15), "1000000000000000");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
    }

    #[test]
    fn parser_rejects_what_it_does_not_read() {
        for text in [
            "",
            "{} x",
            "[1,]",
            "1.5",
            "true",
            "null",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\é\"",
            "{\"a\" 1}",
            "-",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} must fail");
        }
        assert!(Json::parse("\"raw \u{1} control\"").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn get_finds_the_first_entry() {
        let v = Json::parse(r#"{"a": 1, "b": ["x"], "a": 2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(1)));
        assert_eq!(v.get("c"), None);
        assert_eq!(Json::Int(1).get("a"), None);
    }
}
