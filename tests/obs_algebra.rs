//! Property tests for the observability layer's algebra and formats.
//!
//! The registry's correctness rests on merge being a commutative monoid
//! over every metric kind — that is what makes the folded snapshot
//! independent of flush order and thread interleaving.
//! These properties pin it down directly:
//!
//! * histogram merge is associative, commutative, and has the empty
//!   histogram as identity;
//! * counters saturate instead of wrapping, in any merge order;
//! * span guards nest and unwind in balance for arbitrary scripts;
//! * `metrics.json` round-trips arbitrary (hostile) metric names and values
//!   exactly.

use std::collections::BTreeMap;
use std::sync::Mutex;

use honeyfarm::obs::{self, Histogram, MetricsSnapshot, RunManifest, SpanStats};
use proptest::prelude::*;

/// Characters metric names are drawn from: everything that stresses the
/// JSON escaper — quotes, backslashes, tabs, newlines, control characters,
/// and non-ASCII.
const NAME_CHARS: &[char] = &[
    'a', 'b', 'z', '0', '9', '.', '_', '-', ' ', '"', '\\', '/', '\t', '\n', '\r', '\u{1}',
    '\u{7f}', 'λ', '√', '🦀',
];

/// Strategy: a non-empty name over [`NAME_CHARS`].
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..NAME_CHARS.len(), 1..10)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i]).collect())
}

/// Strategy: one histogram sample, biased across all bucket magnitudes.
fn sample() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0usize..64).prop_map(|(v, s)| v >> s)
}

fn hist(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn merged(a: &Histogram, b: &Histogram) -> Histogram {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    /// Histogram merge is associative and commutative, with the empty
    /// histogram as identity — fold order can never change a manifest.
    #[test]
    fn histogram_merge_is_commutative_monoid(
        a in prop::collection::vec(sample(), 0..30),
        b in prop::collection::vec(sample(), 0..30),
        c in prop::collection::vec(sample(), 0..30),
    ) {
        let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));
        prop_assert_eq!(merged(&merged(&ha, &hb), &hc), merged(&ha, &merged(&hb, &hc)));
        prop_assert_eq!(merged(&ha, &hb), merged(&hb, &ha));
        prop_assert_eq!(merged(&ha, &Histogram::new()), ha.clone());
        prop_assert_eq!(merged(&Histogram::new(), &ha), ha);
    }

    /// Merging two histograms equals recording the concatenated samples,
    /// and the aggregates match the samples exactly.
    #[test]
    fn histogram_merge_equals_concat(
        a in prop::collection::vec(sample(), 0..30),
        b in prop::collection::vec(sample(), 0..30),
    ) {
        let both: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged(&hist(&a), &hist(&b)), hist(&both));
        let h = hist(&both);
        prop_assert_eq!(h.count, both.len() as u64);
        if let Some(&mx) = both.iter().max() {
            prop_assert_eq!(h.max, mx);
            prop_assert_eq!(h.min, *both.iter().min().unwrap());
        }
        for &s in &both {
            let i = Histogram::bucket_index(s);
            prop_assert!(Histogram::bucket_lo(i) <= s, "sample below its bucket");
            prop_assert!(h.buckets[i] > 0, "sample's bucket is empty");
        }
    }

    /// The whole-snapshot merge is associative and commutative across
    /// every section, including when counters sit at the saturation
    /// boundary: u64 addition saturates instead of wrapping, so any
    /// merge order yields the same (pinned) value.
    #[test]
    fn snapshot_merge_commutes_and_saturates(
        names in prop::collection::vec(name(), 1..5),
        vals in prop::collection::vec(any::<u64>(), 1..5),
        near_max in any::<u64>(),
    ) {
        let snap = |offset: u64| {
            let mut s = MetricsSnapshot::default();
            for (i, n) in names.iter().enumerate() {
                let v = vals[i % vals.len()].wrapping_add(offset);
                s.counters.insert(n.clone(), v | (u64::MAX - near_max.min(8)));
                s.gauges.insert(n.clone(), v as i64);
                s.histograms.insert(n.clone(), hist(&[v]));
                let mut sp = SpanStats::default();
                sp.record(v, v / 3, v / 2);
                sp.threads.insert(format!("thread-{}", (i as u64 + offset) % 3));
                s.spans.insert(n.clone(), sp);
            }
            s
        };
        let (a, b, c) = (snap(0), snap(1), snap(2));
        let fold = |xs: &[&MetricsSnapshot]| {
            let mut m = MetricsSnapshot::default();
            for x in xs {
                m.merge(x);
            }
            m
        };
        // All six orders agree (counters near u64::MAX saturate there).
        let base = fold(&[&a, &b, &c]);
        for perm in [[&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a]] {
            prop_assert_eq!(fold(&perm), base.clone());
        }
        // Explicit saturation pin: MAX + anything == MAX.
        for v in base.counters.values() {
            prop_assert!(*v >= u64::MAX - 8, "saturating add must pin at the top");
        }
    }

    /// `metrics.json` round-trips arbitrary names and values exactly.
    #[test]
    fn metrics_json_roundtrip(
        counters in prop::collection::vec((name(), any::<u64>()), 0..6),
        gauges in prop::collection::vec((name(), any::<i64>()), 0..6),
        hists in prop::collection::vec((name(), prop::collection::vec(sample(), 1..10)), 0..4),
        spans in prop::collection::vec((name(), prop::collection::vec((any::<u64>(), any::<u64>()), 1..5)), 0..4),
        tool in name(),
    ) {
        let m = build_manifest(&tool, &counters, &gauges, &hists, &spans);
        let parsed = RunManifest::parse_json(&m.to_json())
            .map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(parsed, m);
    }

    /// Span guards stay balanced for arbitrary nesting scripts: depth
    /// returns to zero after every top-level span, and the recorded count
    /// equals the number of guards opened.
    #[test]
    fn span_stack_balances(script in prop::collection::vec(0u8..6, 0..12)) {
        // Span recording touches process-global state; serialize cases.
        static SPAN_LOCK: Mutex<()> = Mutex::new(());
        let _g = SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        obs::reset();
        obs::enable();
        for &depth in &script {
            nest(depth);
            prop_assert_eq!(obs::span_depth(), 0);
        }
        let snap = obs::snapshot();
        obs::disable();
        obs::reset();
        let expected: u64 = script.iter().map(|&d| u64::from(d)).sum();
        let got = snap.spans.get("algebra.nest").map_or(0, |s| s.count);
        prop_assert_eq!(got, expected);
    }
}

/// Open `depth` nested spans and unwind them.
fn nest(depth: u8) {
    if depth == 0 {
        return;
    }
    let _s = obs::span("algebra.nest");
    assert!(obs::span_depth() >= 1);
    nest(depth - 1);
}

/// Assemble a manifest from generated parts (duplicate names collapse via
/// the maps, matching registry behaviour).
fn build_manifest(
    tool: &str,
    counters: &[(String, u64)],
    gauges: &[(String, i64)],
    hists: &[(String, Vec<u64>)],
    spans: &[(String, Vec<(u64, u64)>)],
) -> RunManifest {
    let mut m = RunManifest {
        schema_version: obs::SCHEMA_VERSION,
        tool: tool.to_string(),
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        histograms: BTreeMap::new(),
        spans: BTreeMap::new(),
    };
    for (n, v) in counters {
        m.counters.insert(n.clone(), *v);
    }
    for (n, v) in gauges {
        m.gauges.insert(n.clone(), *v);
    }
    for (n, samples) in hists {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        m.histograms.insert(n.clone(), h);
    }
    for (n, execs) in spans {
        let mut s = SpanStats::default();
        for &(wall, cpu) in execs {
            s.record(wall, wall / 2, cpu);
        }
        s.threads.insert(format!("thread-{}", execs.len() % 3));
        m.spans.insert(n.clone(), s);
    }
    m
}
