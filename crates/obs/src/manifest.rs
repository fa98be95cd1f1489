//! Run manifests: the versioned on-disk form of a metrics snapshot.
//!
//! A run that was started with metrics enabled ends by emitting two files
//! into a manifest directory:
//!
//! * `metrics.json` — the full [`RunManifest`]: schema header, counters,
//!   gauges, histograms (sparse log2 buckets), and aggregated spans;
//! * `spans.tsv` — the span table alone, one row per span name, for
//!   spreadsheet/cut/awk consumption.
//!
//! Both are deterministic renderings of sorted maps: the same snapshot
//! always produces the same bytes, which is what lets the golden tests pin
//! the schema (with timings zeroed via [`crate::clock::set_zero_clock`]).
//!
//! The parser is the workspace's one JSON reader ([`crate::json`]), so
//! `hf-obs` stays linkable from everywhere. It is strict: unknown fields,
//! wrong types, or a schema version mismatch are errors, making "parses
//! cleanly" a meaningful oracle (`schema_version` only changes when the
//! layout does; see EXPERIMENTS.md for the policy).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Histogram, MetricsSnapshot, SpanStats, N_BUCKETS};

/// Manifest schema identifier.
pub const SCHEMA_NAME: &str = "hf-obs";

/// Manifest schema version. Bump only on layout changes; the parser
/// rejects any other version.
pub const SCHEMA_VERSION: u32 = 1;

/// Name of the JSON manifest file inside a manifest directory.
pub const METRICS_FILE: &str = "metrics.json";

/// Name of the span table file inside a manifest directory.
pub const SPANS_FILE: &str = "spans.tsv";

/// A manifest failed to parse or load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError(String);

impl ManifestError {
    fn new(msg: impl Into<String>) -> Self {
        ManifestError(msg.into())
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest error: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

impl From<json::Error> for ManifestError {
    fn from(e: json::Error) -> Self {
        ManifestError(e.0)
    }
}

/// The end-of-run metrics manifest (see module docs for the file layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Always [`SCHEMA_VERSION`] for manifests this build writes.
    pub schema_version: u32,
    /// What produced the run, e.g. `"hfarm simulate"`.
    pub tool: String,
    /// Monotone event counts, name-sorted.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges, name-sorted.
    pub gauges: BTreeMap<String, i64>,
    /// Log2 histograms, name-sorted.
    pub histograms: BTreeMap<String, Histogram>,
    /// Aggregated span timings, name-sorted.
    pub spans: BTreeMap<String, SpanStats>,
}

impl RunManifest {
    /// Build a manifest from a folded snapshot.
    pub fn from_snapshot(tool: &str, snap: MetricsSnapshot) -> RunManifest {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            tool: tool.to_string(),
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
            spans: snap.spans,
        }
    }

    /// A copy keeping only metrics whose name satisfies `keep` — how the
    /// invariance tests restrict comparison to the deterministic,
    /// thread-count-invariant subset.
    pub fn filtered(&self, keep: impl Fn(&str) -> bool) -> RunManifest {
        RunManifest {
            schema_version: self.schema_version,
            tool: self.tool.clone(),
            counters: filter_map(&self.counters, &keep),
            gauges: filter_map(&self.gauges, &keep),
            histograms: filter_map(&self.histograms, &keep),
            spans: filter_map(&self.spans, &keep),
        }
    }

    /// Zero every duration (span wall/CPU/max, histogram timing is data so
    /// it stays). Golden tests use this belt-and-braces on top of the zero
    /// clock.
    pub fn zero_timings(&mut self) {
        for s in self.spans.values_mut() {
            s.wall_ns = 0;
            s.cpu_ns = 0;
            s.max_wall_ns = 0;
        }
    }

    /// Peak resident set size recorded by [`crate::sample_peak_rss`]
    /// (kilobytes), if this run sampled it. The out-of-core analysis paths
    /// sample once per folded day plus once at manifest time, so a fold
    /// run's manifest always carries its RSS high-water mark.
    pub fn peak_rss_kb(&self) -> Option<i64> {
        self.gauges.get("process.peak_rss_kb").copied()
    }

    // ------------------------------------------------------------ JSON --

    /// Render `metrics.json` (deterministic: maps are name-sorted, layout
    /// is fixed).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n");
        o.push_str(&format!("  \"schema\": {},\n", json::string(SCHEMA_NAME)));
        o.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        o.push_str(&format!("  \"tool\": {},\n", json::string(&self.tool)));

        o.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!("    {}: {v}", json::string(k)));
        }
        o.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        o.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!("    {}: {v}", json::string(k)));
        }
        o.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        o.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!(
                "    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                json::string(k),
                h.count,
                h.sum,
                h.min,
                h.max
            ));
            let mut first = true;
            for (idx, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
                if !first {
                    o.push_str(", ");
                }
                first = false;
                o.push_str(&format!("[{idx}, {n}]"));
            }
            o.push_str("]}");
        }
        o.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        o.push_str("  \"spans\": {");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!(
                "    {}: {{\"count\": {}, \"wall_ns\": {}, \"cpu_ns\": {}, \"max_wall_ns\": {}}}",
                json::string(k),
                s.count,
                s.wall_ns,
                s.cpu_ns,
                s.max_wall_ns
            ));
        }
        o.push_str(if self.spans.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });

        o.push_str("}\n");
        o
    }

    /// Parse a `metrics.json` rendering back (strict; see module docs).
    pub fn parse_json(text: &str) -> Result<RunManifest, ManifestError> {
        let value = Json::parse(text)?;
        let top = value.as_object("manifest")?;
        let mut m = RunManifest {
            schema_version: 0,
            tool: String::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
        };
        let mut saw_schema = false;
        for (key, v) in top {
            match key.as_str() {
                "schema" => {
                    let s = v.as_str("schema")?;
                    if s != SCHEMA_NAME {
                        return Err(ManifestError::new(format!(
                            "schema is {s:?}, expected {SCHEMA_NAME:?}"
                        )));
                    }
                    saw_schema = true;
                }
                "schema_version" => {
                    m.schema_version = v.as_u64("schema_version")? as u32;
                    if m.schema_version != SCHEMA_VERSION {
                        return Err(ManifestError::new(format!(
                            "schema_version {} unsupported (this build reads {})",
                            m.schema_version, SCHEMA_VERSION
                        )));
                    }
                }
                "tool" => m.tool = v.as_str("tool")?.to_string(),
                "counters" => {
                    for (name, n) in v.as_object("counters")? {
                        insert_unique(&mut m.counters, name, n.as_u64("counter")?)?;
                    }
                }
                "gauges" => {
                    for (name, n) in v.as_object("gauges")? {
                        insert_unique(&mut m.gauges, name, n.as_i64("gauge")?)?;
                    }
                }
                "histograms" => {
                    for (name, h) in v.as_object("histograms")? {
                        insert_unique(&mut m.histograms, name, parse_histogram(h)?)?;
                    }
                }
                "spans" => {
                    for (name, s) in v.as_object("spans")? {
                        insert_unique(&mut m.spans, name, parse_span(s)?)?;
                    }
                }
                other => {
                    return Err(ManifestError::new(format!(
                        "unknown manifest field {other:?}"
                    )))
                }
            }
        }
        if !saw_schema {
            return Err(ManifestError::new("missing schema field"));
        }
        if m.schema_version == 0 {
            return Err(ManifestError::new("missing schema_version field"));
        }
        Ok(m)
    }

    // ------------------------------------------------------------- TSV --

    /// Render `spans.tsv`: a version header, a column header, one
    /// tab-separated row per span name (sorted). Tabs/newlines/backslashes
    /// in names are backslash-escaped so the table stays rectangular.
    pub fn spans_tsv(&self) -> String {
        let mut o = String::new();
        o.push_str(&format!("# {SCHEMA_NAME} spans v{SCHEMA_VERSION}\n"));
        o.push_str("name\tcount\twall_ns\tcpu_ns\tmax_wall_ns\n");
        for (name, s) in &self.spans {
            o.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                tsv_escape(name),
                s.count,
                s.wall_ns,
                s.cpu_ns,
                s.max_wall_ns
            ));
        }
        o
    }

    /// Parse a `spans.tsv` rendering back into a span table.
    pub fn parse_spans_tsv(text: &str) -> Result<BTreeMap<String, SpanStats>, ManifestError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| ManifestError::new("empty spans.tsv"))?;
        let expected = format!("# {SCHEMA_NAME} spans v{SCHEMA_VERSION}");
        if header != expected {
            return Err(ManifestError::new(format!(
                "spans.tsv header {header:?}, expected {expected:?}"
            )));
        }
        match lines.next() {
            Some("name\tcount\twall_ns\tcpu_ns\tmax_wall_ns") => {}
            other => {
                return Err(ManifestError::new(format!(
                    "spans.tsv column header missing or wrong: {other:?}"
                )))
            }
        }
        let mut out = BTreeMap::new();
        for (lineno, line) in lines.enumerate() {
            let cols: Vec<&str> = line.split('\t').collect();
            if cols.len() != 5 {
                return Err(ManifestError::new(format!(
                    "spans.tsv row {}: {} column(s), expected 5",
                    lineno + 3,
                    cols.len()
                )));
            }
            let name = tsv_unescape(cols[0])?;
            let num = |i: usize, what: &str| -> Result<u64, ManifestError> {
                cols[i].parse::<u64>().map_err(|_| {
                    ManifestError::new(format!(
                        "spans.tsv row {}: bad {what} {:?}",
                        lineno + 3,
                        cols[i]
                    ))
                })
            };
            let stats = SpanStats {
                count: num(1, "count")?,
                wall_ns: num(2, "wall_ns")?,
                cpu_ns: num(3, "cpu_ns")?,
                max_wall_ns: num(4, "max_wall_ns")?,
            };
            if out.insert(name.clone(), stats).is_some() {
                return Err(ManifestError::new(format!("duplicate span row {name:?}")));
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------- dir --

    /// Write `metrics.json` + `spans.tsv` into `dir` (created if needed).
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(METRICS_FILE), self.to_json())?;
        std::fs::write(dir.join(SPANS_FILE), self.spans_tsv())?;
        Ok(())
    }

    /// Load and cross-validate a manifest directory: parse both files and
    /// require the TSV span table to agree with the JSON one.
    pub fn load_dir(dir: &Path) -> Result<RunManifest, ManifestError> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| ManifestError::new(format!("{}/{name}: {e}", dir.display())))
        };
        let manifest = RunManifest::parse_json(&read(METRICS_FILE)?)?;
        let spans = RunManifest::parse_spans_tsv(&read(SPANS_FILE)?)?;
        if spans != manifest.spans {
            return Err(ManifestError::new(
                "spans.tsv disagrees with the spans section of metrics.json",
            ));
        }
        Ok(manifest)
    }
}

fn filter_map<V: Clone>(
    m: &BTreeMap<String, V>,
    keep: &impl Fn(&str) -> bool,
) -> BTreeMap<String, V> {
    m.iter()
        .filter(|(k, _)| keep(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn insert_unique<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    value: V,
) -> Result<(), ManifestError> {
    if map.insert(name.to_string(), value).is_some() {
        return Err(ManifestError::new(format!(
            "duplicate metric name {name:?}"
        )));
    }
    Ok(())
}

fn parse_histogram(v: &Json) -> Result<Histogram, ManifestError> {
    let mut h = Histogram::new();
    let mut sum_of_buckets = 0u64;
    for (key, f) in v.as_object("histogram")? {
        match key.as_str() {
            "count" => h.count = f.as_u64("count")?,
            "sum" => h.sum = f.as_u64("sum")?,
            "min" => h.min = f.as_u64("min")?,
            "max" => h.max = f.as_u64("max")?,
            "buckets" => {
                for pair in f.as_array("buckets")? {
                    let pair = pair.as_array("bucket pair")?;
                    if pair.len() != 2 {
                        return Err(ManifestError::new("bucket pair must be [index, count]"));
                    }
                    let idx = pair[0].as_u64("bucket index")? as usize;
                    let n = pair[1].as_u64("bucket count")?;
                    if idx >= N_BUCKETS {
                        return Err(ManifestError::new(format!(
                            "bucket index {idx} out of range (< {N_BUCKETS})"
                        )));
                    }
                    if h.buckets[idx] != 0 {
                        return Err(ManifestError::new(format!("duplicate bucket index {idx}")));
                    }
                    if n == 0 {
                        return Err(ManifestError::new(
                            "explicit zero bucket in sparse encoding",
                        ));
                    }
                    h.buckets[idx] = n;
                    sum_of_buckets = sum_of_buckets.saturating_add(n);
                }
            }
            other => {
                return Err(ManifestError::new(format!(
                    "unknown histogram field {other:?}"
                )))
            }
        }
    }
    if sum_of_buckets != h.count {
        return Err(ManifestError::new(format!(
            "histogram buckets sum to {sum_of_buckets}, count says {}",
            h.count
        )));
    }
    Ok(h)
}

fn parse_span(v: &Json) -> Result<SpanStats, ManifestError> {
    let mut s = SpanStats::default();
    for (key, f) in v.as_object("span")? {
        match key.as_str() {
            "count" => s.count = f.as_u64("count")?,
            "wall_ns" => s.wall_ns = f.as_u64("wall_ns")?,
            "cpu_ns" => s.cpu_ns = f.as_u64("cpu_ns")?,
            "max_wall_ns" => s.max_wall_ns = f.as_u64("max_wall_ns")?,
            other => return Err(ManifestError::new(format!("unknown span field {other:?}"))),
        }
    }
    Ok(s)
}

// ------------------------------------------------------- string escaping --

fn tsv_escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => o.push_str("\\\\"),
            '\t' => o.push_str("\\t"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            c => o.push(c),
        }
    }
    o
}

fn tsv_unescape(s: &str) -> Result<String, ManifestError> {
    let mut o = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            o.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => o.push('\\'),
            Some('t') => o.push('\t'),
            Some('n') => o.push('\n'),
            Some('r') => o.push('\r'),
            other => {
                return Err(ManifestError::new(format!(
                    "bad tsv escape \\{} in {s:?}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("sim.sessions_executed".into(), 1234);
        snap.counters.insert("farm.sessions_ingested".into(), 1234);
        snap.gauges.insert("sim.days".into(), 8);
        snap.gauges.insert("neg".into(), -3);
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        h.record(7000);
        snap.histograms.insert("sim.day_sessions".into(), h);
        snap.spans.insert(
            "sim.day".into(),
            SpanStats {
                count: 4,
                wall_ns: 400,
                cpu_ns: 300,
                max_wall_ns: 150,
            },
        );
        RunManifest::from_snapshot("unit test", snap)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let m = sample();
        let parsed = RunManifest::parse_json(&m.to_json()).expect("parse");
        assert_eq!(parsed, m);
    }

    #[test]
    fn json_roundtrip_survives_hostile_names() {
        let mut m = sample();
        m.counters
            .insert("weird \"name\"\twith\nstuff\\u{1f980}🦀".into(), 1);
        m.tool = "tool \u{7} with control".into();
        let parsed = RunManifest::parse_json(&m.to_json()).expect("parse");
        assert_eq!(parsed, m);
    }

    /// The parser is linear in the name length: a 1 MiB counter name parses
    /// in milliseconds (a parser that rescans the rest of the document per
    /// character needs minutes for it).
    #[test]
    fn a_one_mib_name_parses_in_linear_time() {
        let mut m = sample();
        let name = "\u{e9}".repeat(1 << 19);
        assert_eq!(name.len(), 1 << 20);
        m.counters.insert(name.clone(), 7);
        let text = m.to_json();
        let started = std::time::Instant::now();
        let parsed = RunManifest::parse_json(&text).expect("parse");
        let elapsed = started.elapsed();
        assert_eq!(parsed.counters[&name], 7);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing a 1 MiB name took {elapsed:?}"
        );
    }

    #[test]
    fn empty_manifest_roundtrips() {
        let m = RunManifest::from_snapshot("empty", MetricsSnapshot::default());
        assert_eq!(RunManifest::parse_json(&m.to_json()).expect("parse"), m);
        assert_eq!(
            RunManifest::parse_spans_tsv(&m.spans_tsv()).expect("tsv"),
            m.spans
        );
    }

    #[test]
    fn spans_tsv_roundtrips() {
        let mut m = sample();
        m.spans.insert(
            "name\twith\ttabs\nand\\newlines".into(),
            SpanStats {
                count: 1,
                wall_ns: 2,
                cpu_ns: 3,
                max_wall_ns: 2,
            },
        );
        let parsed = RunManifest::parse_spans_tsv(&m.spans_tsv()).expect("tsv");
        assert_eq!(parsed, m.spans);
    }

    #[test]
    fn parser_rejects_bad_manifests() {
        for (what, text) in [
            ("not json", "hello"),
            (
                "wrong schema",
                r#"{"schema": "nope", "schema_version": 1, "tool": "t"}"#,
            ),
            (
                "wrong version",
                r#"{"schema": "hf-obs", "schema_version": 99, "tool": "t"}"#,
            ),
            (
                "unknown field",
                r#"{"schema": "hf-obs", "schema_version": 1, "tool": "t", "extra": {}}"#,
            ),
            ("missing schema", r#"{"schema_version": 1, "tool": "t"}"#),
            (
                "float value",
                r#"{"schema": "hf-obs", "schema_version": 1, "tool": "t", "counters": {"x": 1.5}}"#,
            ),
            (
                "negative counter",
                r#"{"schema": "hf-obs", "schema_version": 1, "tool": "t", "counters": {"x": -1}}"#,
            ),
            (
                "bucket/count mismatch",
                r#"{"schema": "hf-obs", "schema_version": 1, "tool": "t",
                   "histograms": {"h": {"count": 2, "sum": 0, "min": 0, "max": 0,
                                        "buckets": [[0, 1]]}}}"#,
            ),
            (
                "bucket index out of range",
                r#"{"schema": "hf-obs", "schema_version": 1, "tool": "t",
                   "histograms": {"h": {"count": 1, "sum": 0, "min": 0, "max": 0,
                                        "buckets": [[65, 1]]}}}"#,
            ),
        ] {
            assert!(RunManifest::parse_json(text).is_err(), "{what} must fail");
        }
    }

    #[test]
    fn filtered_keeps_only_matching_names() {
        let m = sample();
        let f = m.filtered(|n| n.starts_with("sim."));
        assert_eq!(f.counters.len(), 1);
        assert!(f.counters.contains_key("sim.sessions_executed"));
        assert_eq!(f.gauges.len(), 1);
        assert_eq!(f.histograms.len(), 1);
        assert_eq!(f.spans.len(), 1);
    }

    #[test]
    fn write_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("hf-obs-test-{}", std::process::id()));
        let m = sample();
        m.write_dir(&dir).expect("write");
        let loaded = RunManifest::load_dir(&dir).expect("load");
        assert_eq!(loaded, m);
        // A tampered spans.tsv fails the cross-check.
        std::fs::write(
            dir.join(SPANS_FILE),
            format!("# {SCHEMA_NAME} spans v{SCHEMA_VERSION}\nname\tcount\twall_ns\tcpu_ns\tmax_wall_ns\n"),
        )
        .expect("tamper");
        assert!(RunManifest::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
