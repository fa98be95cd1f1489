//! Run manifests: the versioned on-disk form of a metrics snapshot.
//!
//! A run that was started with metrics enabled ends by publishing one file
//! into a manifest directory: `metrics.json`, the full [`RunManifest`] —
//! schema header, counters, gauges, histograms (sparse log2 buckets), and
//! aggregated spans. Any other file in the directory is ignored.
//!
//! The file is a deterministic rendering of sorted maps: the same snapshot
//! always produces the same bytes, which is what lets the golden tests pin
//! the schema (with timings zeroed via [`crate::clock::set_zero_clock`]).
//! [`RunManifest::write_dir`] publishes it atomically (temp file, sync,
//! rename), so the final name never holds a torn manifest.
//!
//! The parser is the workspace's one JSON reader ([`crate::json`]), so
//! `hf-obs` stays linkable from everywhere. It is strict: every field must
//! appear exactly once at every level, and unknown fields, wrong types, or
//! a schema version mismatch are errors, making "parses cleanly" a
//! meaningful oracle (`schema_version` only changes when the layout does;
//! see EXPERIMENTS.md for the policy).

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Histogram, MetricsSnapshot, SpanStats, N_BUCKETS};

/// Manifest schema identifier.
pub const SCHEMA_NAME: &str = "hf-obs";

/// Manifest schema version. Bump only on layout changes; the parser
/// rejects any other version. Version 2 gave each span its self time
/// (`self_ns`) and the threads that recorded it (`threads`).
pub const SCHEMA_VERSION: u32 = 2;

/// Name of the manifest file inside a manifest directory.
pub const METRICS_FILE: &str = "metrics.json";

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
            s.self_ns = 0;
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
                "    {}: {{\"count\": {}, \"wall_ns\": {}, \"self_ns\": {}, \"cpu_ns\": {}, \"max_wall_ns\": {}, \"threads\": [",
                json::string(k),
                s.count,
                s.wall_ns,
                s.self_ns,
                s.cpu_ns,
                s.max_wall_ns
            ));
            for (i, t) in s.threads.iter().enumerate() {
                if i > 0 {
                    o.push_str(", ");
                }
                o.push_str(&json::string(t));
            }
            o.push_str("]}");
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
        let [schema, version, tool, counters, gauges, histograms, spans] = fields(
            &value,
            "manifest",
            [
                "schema",
                "schema_version",
                "tool",
                "counters",
                "gauges",
                "histograms",
                "spans",
            ],
        )?;
        let schema = schema.as_str("schema")?;
        if schema != SCHEMA_NAME {
            return Err(ManifestError::new(format!(
                "schema is {schema:?}, expected {SCHEMA_NAME:?}"
            )));
        }
        let version = version.as_u64("schema_version")?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(ManifestError::new(format!(
                "schema_version {version} unsupported (this build reads {SCHEMA_VERSION})"
            )));
        }
        let mut m = RunManifest {
            schema_version: SCHEMA_VERSION,
            tool: tool.as_str("tool")?.to_string(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
        };
        for (name, n) in counters.as_object("counters")? {
            insert_unique(&mut m.counters, name, n.as_u64("counter")?)?;
        }
        for (name, n) in gauges.as_object("gauges")? {
            insert_unique(&mut m.gauges, name, n.as_i64("gauge")?)?;
        }
        for (name, h) in histograms.as_object("histograms")? {
            insert_unique(&mut m.histograms, name, parse_histogram(h)?)?;
        }
        for (name, s) in spans.as_object("spans")? {
            insert_unique(&mut m.spans, name, parse_span(s)?)?;
        }
        Ok(m)
    }

    // ------------------------------------------------------------- dir --

    /// Publish `metrics.json` into `dir` (created if needed): the bytes go
    /// to a temp file beside it, are synced, and are renamed over the final
    /// name, so that name never holds a torn manifest.
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{METRICS_FILE}.tmp"));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_json().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, dir.join(METRICS_FILE))
    }

    /// Load the manifest in `dir` from its `metrics.json`.
    pub fn load_dir(dir: &Path) -> Result<RunManifest, ManifestError> {
        let path = dir.join(METRICS_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ManifestError::new(format!("{}: {e}", path.display())))?;
        RunManifest::parse_json(&text)
    }
}

/// The values of an object that holds each of `names` exactly once and no
/// other key, in `names` order; `what` names the object in the error.
fn fields<'a, const N: usize>(
    v: &'a Json,
    what: &str,
    names: [&str; N],
) -> Result<[&'a Json; N], ManifestError> {
    let mut found = [None; N];
    for (key, value) in v.as_object(what)? {
        let Some(i) = names.iter().position(|n| n == key) else {
            return Err(ManifestError::new(format!("unknown {what} field {key:?}")));
        };
        if found[i].replace(value).is_some() {
            return Err(ManifestError::new(format!("repeated {what} field {key:?}")));
        }
    }
    if let Some(i) = found.iter().position(Option::is_none) {
        return Err(ManifestError::new(format!(
            "missing {what} field {:?}",
            names[i]
        )));
    }
    Ok(found.map(|v| v.expect("every field was found")))
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
    let [count, sum, min, max, buckets] =
        fields(v, "histogram", ["count", "sum", "min", "max", "buckets"])?;
    let mut h = Histogram {
        count: count.as_u64("count")?,
        sum: sum.as_u64("sum")?,
        min: min.as_u64("min")?,
        max: max.as_u64("max")?,
        buckets: [0; N_BUCKETS],
    };
    let mut sum_of_buckets = 0u64;
    for pair in buckets.as_array("buckets")? {
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
    if sum_of_buckets != h.count {
        return Err(ManifestError::new(format!(
            "histogram buckets sum to {sum_of_buckets}, count says {}",
            h.count
        )));
    }
    Ok(h)
}

fn parse_span(v: &Json) -> Result<SpanStats, ManifestError> {
    let [count, wall_ns, self_ns, cpu_ns, max_wall_ns, threads] = fields(
        v,
        "span",
        [
            "count",
            "wall_ns",
            "self_ns",
            "cpu_ns",
            "max_wall_ns",
            "threads",
        ],
    )?;
    let mut s = SpanStats {
        count: count.as_u64("count")?,
        wall_ns: wall_ns.as_u64("wall_ns")?,
        self_ns: self_ns.as_u64("self_ns")?,
        cpu_ns: cpu_ns.as_u64("cpu_ns")?,
        max_wall_ns: max_wall_ns.as_u64("max_wall_ns")?,
        threads: Default::default(),
    };
    for t in threads.as_array("threads")? {
        let t = t.as_str("thread")?;
        if !s.threads.insert(t.to_string()) {
            return Err(ManifestError::new(format!("repeated span thread {t:?}")));
        }
    }
    Ok(s)
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
                self_ns: 40,
                cpu_ns: 300,
                max_wall_ns: 150,
                threads: ["main".to_string(), "producer".to_string()].into(),
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
    }

    #[test]
    fn parser_rejects_bad_manifests() {
        // A valid manifest; each row makes one edit to it.
        const OK: &str = r#"{"schema": "hf-obs", "schema_version": 2, "tool": "t",
            "counters": {}, "gauges": {},
            "histograms": {"h": {"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[0, 1]]}},
            "spans": {"s": {"count": 1, "wall_ns": 2, "self_ns": 1, "cpu_ns": 3, "max_wall_ns": 2, "threads": ["main"]}}}"#;
        RunManifest::parse_json(OK).expect("the unedited manifest parses");
        let histogram = r#"{"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[0, 1]]}"#;
        let span = r#"{"count": 1, "wall_ns": 2, "self_ns": 1, "cpu_ns": 3, "max_wall_ns": 2, "threads": ["main"]}"#;
        for (what, from, to) in [
            ("not json", OK, "hello"),
            ("wrong schema", r#""hf-obs""#, r#""nope""#),
            (
                "wrong version",
                r#""schema_version": 2"#,
                r#""schema_version": 99"#,
            ),
            (
                "version 1 (spans without self time or threads)",
                r#""schema_version": 2"#,
                r#""schema_version": 1"#,
            ),
            (
                "version past u32",
                r#""schema_version": 2"#,
                r#""schema_version": 4294967297"#,
            ),
            (
                "unknown field",
                r#""tool": "t""#,
                r#""tool": "t", "extra": {}"#,
            ),
            ("missing schema", r#""schema": "hf-obs", "#, ""),
            ("missing tool", r#""tool": "t","#, ""),
            ("missing counters", r#""counters": {}, "#, ""),
            (
                "repeated tool",
                r#""tool": "t""#,
                r#""tool": "t", "tool": "u""#,
            ),
            (
                "float value",
                r#""counters": {}"#,
                r#""counters": {"x": 1.5}"#,
            ),
            (
                "negative counter",
                r#""counters": {}"#,
                r#""counters": {"x": -1}"#,
            ),
            (
                "bucket/count mismatch",
                r#"{"count": 1, "sum""#,
                r#"{"count": 2, "sum""#,
            ),
            ("bucket index out of range", "[[0, 1]]", "[[65, 1]]"),
            (
                "repeated histogram count",
                r#"{"count": 1, "sum""#,
                r#"{"count": 1, "count": 1, "sum""#,
            ),
            ("histogram missing fields", histogram, "{}"),
            ("span missing fields", span, "{}"),
            (
                "repeated span count",
                r#"{"count": 1, "wall_ns""#,
                r#"{"count": 1, "count": 1, "wall_ns""#,
            ),
            ("span missing self time", r#""self_ns": 1, "#, ""),
            ("repeated span thread", r#"["main"]"#, r#"["main", "main"]"#),
            ("span thread not a string", r#"["main"]"#, "[1]"),
        ] {
            assert_eq!(OK.matches(from).count(), 1, "{what}: one place to edit");
            let text = OK.replacen(from, to, 1);
            assert!(RunManifest::parse_json(&text).is_err(), "{what} must fail");
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

    fn temp_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hf-obs-{name}-{}", std::process::id()))
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_and_load_dir() {
        let dir = temp_dir("write");
        std::fs::remove_dir_all(&dir).ok();
        let m = sample();
        m.write_dir(&dir).expect("write");
        assert_eq!(file_names(&dir), [METRICS_FILE]);
        assert_eq!(RunManifest::load_dir(&dir).expect("load"), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_dir_replaces_a_stale_manifest() {
        let dir = temp_dir("stale");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A torn manifest under the final name and one under the temp name,
        // as a killed write leaves them, and a span table an older build
        // wrote beside the manifest.
        std::fs::write(dir.join(METRICS_FILE), "{\"schema\": \"hf-o").expect("stale");
        std::fs::write(dir.join(format!("{METRICS_FILE}.tmp")), "{\"sch").expect("stale");
        std::fs::write(dir.join("extra.tsv"), "stale\n").expect("stale");
        let m = sample();
        m.write_dir(&dir).expect("write");
        assert_eq!(RunManifest::load_dir(&dir).expect("load"), m);
        assert_eq!(
            file_names(&dir),
            ["extra.tsv", METRICS_FILE],
            "no temp file remains"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
