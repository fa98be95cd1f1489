//! The metrics algebra: counters, gauges, log2 histograms, span stats, and
//! the sharded global registry they fold into.
//!
//! Every aggregate here is a commutative monoid under [`merge`]-style
//! combination — the same design discipline as `Aggregates::merge` in
//! `hf-core`. That is what makes the whole subsystem order-insensitive:
//! thread-local buffers can flush in any interleaving, registry shards can
//! be folded in any order, and the final [`MetricsSnapshot`] is identical.
//!
//! * counters: saturating `u64` addition (associative, commutative, id 0);
//! * gauges: `i64` maximum (associative, commutative, id `i64::MIN` — a
//!   gauge reports the high-water mark across all threads that set it);
//! * histograms: elementwise saturating bucket addition plus min/max
//!   combine ([`Histogram::merge`]);
//! * spans: count/total adds plus max combine ([`SpanStats::merge`]).
//!
//! [`merge`]: MetricsSnapshot::merge

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const N_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `k` (1 ≤ k ≤ 64) holds
/// values in `[2^(k-1), 2^k)`. The fixed layout is what makes
/// [`Histogram::merge`] a plain elementwise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Samples recorded (saturating).
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (saturating).
    pub buckets: [u64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl Histogram {
    /// The empty histogram (merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i` (`2^(i-1)`; 0 for bucket 0).
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        let b = &mut self.buckets[Self::bucket_index(value)];
        *b = b.saturating_add(1);
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold `other` in. Associative and commutative: counts, sums, and
    /// buckets add (saturating addition is the bounded-sum monoid), min/max
    /// combine with empty-side identity.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// Aggregated timing of one span name: how often it ran and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed executions.
    pub count: u64,
    /// Total wall-clock nanoseconds across executions (saturating).
    pub wall_ns: u64,
    /// Total on-CPU nanoseconds across executions (saturating;
    /// best-effort — 0 on platforms without a thread CPU clock).
    pub cpu_ns: u64,
    /// Longest single execution, wall-clock nanoseconds.
    pub max_wall_ns: u64,
}

impl SpanStats {
    /// Record one completed execution.
    pub fn record(&mut self, wall_ns: u64, cpu_ns: u64) {
        self.count = self.count.saturating_add(1);
        self.wall_ns = self.wall_ns.saturating_add(wall_ns);
        self.cpu_ns = self.cpu_ns.saturating_add(cpu_ns);
        self.max_wall_ns = self.max_wall_ns.max(wall_ns);
    }

    /// Fold `other` in (associative, commutative, identity = default).
    pub fn merge(&mut self, other: &SpanStats) {
        self.count = self.count.saturating_add(other.count);
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.cpu_ns = self.cpu_ns.saturating_add(other.cpu_ns);
        self.max_wall_ns = self.max_wall_ns.max(other.max_wall_ns);
    }
}

/// Metric names: `&'static str` on the hot recording path, owned only for
/// dynamically composed names (e.g. per-snapshot-section spans).
pub type Name = Cow<'static, str>;

/// A thread-local recording buffer. All recording lands here first; the
/// sharded registry is only touched on [`crate::flush`], so the hot path
/// never takes a lock.
#[derive(Debug, Default)]
pub struct LocalBuf {
    pub(crate) counters: HashMap<Name, u64>,
    pub(crate) gauges: HashMap<Name, i64>,
    pub(crate) histograms: HashMap<Name, Histogram>,
    pub(crate) spans: HashMap<Name, SpanStats>,
}

impl LocalBuf {
    pub(crate) fn counter_add(&mut self, name: Name, n: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    }

    pub(crate) fn gauge_set(&mut self, name: Name, v: i64) {
        let g = self.gauges.entry(name).or_insert(i64::MIN);
        *g = (*g).max(v);
    }

    pub(crate) fn observe(&mut self, name: Name, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    pub(crate) fn span_record(&mut self, name: Name, wall_ns: u64, cpu_ns: u64) {
        self.spans.entry(name).or_default().record(wall_ns, cpu_ns);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

/// One fully folded, name-sorted view of every metric — what manifests are
/// built from. Also the carrier of the merge algebra the proptest suite
/// exercises.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Log2 sample histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Aggregated span timings.
    pub spans: BTreeMap<String, SpanStats>,
}

impl MetricsSnapshot {
    /// Fold `other` in. Associative and commutative over every section:
    /// counters add (saturating), gauges take the max, histograms and
    /// spans merge elementwise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(i64::MIN);
            *g = (*g).max(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Is every section empty?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

/// FNV-1a over the metric name — the shard selector.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Shard count: enough to keep concurrent flushes from serializing, small
/// enough that the snapshot fold is trivial.
const N_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// The process-wide metrics store. Thread-local [`LocalBuf`]s flush into
/// it; [`MetricsRegistry::snapshot`] folds all shards into one
/// [`MetricsSnapshot`]. Shard assignment is by name hash, so a given
/// metric always lands in the same shard and the fold never double-counts.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Mutex<Shard>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(name) % N_SHARDS as u64) as usize]
    }

    /// Fold a drained thread-local buffer in. Takes each affected shard's
    /// lock once per metric; buffers are pre-aggregated so this is cheap.
    pub fn absorb(&self, buf: LocalBuf) {
        for (name, v) in buf.counters {
            let mut s = self.shard(&name).lock().expect("metrics shard poisoned");
            let c = s.counters.entry(name.into_owned()).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (name, v) in buf.gauges {
            let mut s = self.shard(&name).lock().expect("metrics shard poisoned");
            let g = s.gauges.entry(name.into_owned()).or_insert(i64::MIN);
            *g = (*g).max(v);
        }
        for (name, h) in buf.histograms {
            let mut s = self.shard(&name).lock().expect("metrics shard poisoned");
            s.histograms.entry(name.into_owned()).or_default().merge(&h);
        }
        for (name, sp) in buf.spans {
            let mut s = self.shard(&name).lock().expect("metrics shard poisoned");
            s.spans.entry(name.into_owned()).or_default().merge(&sp);
        }
    }

    /// Fold every shard into one sorted snapshot. Shards partition names,
    /// so the fold is a disjoint union and its order is irrelevant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for shard in &self.shards {
            let s = shard.lock().expect("metrics shard poisoned");
            for (k, v) in &s.counters {
                let c = out.counters.entry(k.clone()).or_insert(0);
                *c = c.saturating_add(*v);
            }
            for (k, v) in &s.gauges {
                let g = out.gauges.entry(k.clone()).or_insert(i64::MIN);
                *g = (*g).max(*v);
            }
            for (k, v) in &s.histograms {
                out.histograms.entry(k.clone()).or_default().merge(v);
            }
            for (k, v) in &s.spans {
                out.spans.entry(k.clone()).or_default().merge(v);
            }
        }
        out
    }

    /// Clear every shard (test use).
    pub fn reset(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().expect("metrics shard poisoned");
            *s = Shard::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..N_BUCKETS {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_lo(i)), i);
        }
    }

    #[test]
    fn histogram_record_and_merge() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(5);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1005);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 1000);
        assert_eq!(a.buckets.iter().sum::<u64>(), 3);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn registry_absorbs_and_folds() {
        let reg = MetricsRegistry::new();
        let mut buf = LocalBuf::default();
        buf.counter_add(Cow::Borrowed("a"), 2);
        buf.counter_add(Cow::Borrowed("a"), 3);
        buf.gauge_set(Cow::Borrowed("g"), 7);
        buf.observe(Cow::Borrowed("h"), 42);
        buf.span_record(Cow::Borrowed("s"), 10, 5);
        reg.absorb(buf);
        let mut buf2 = LocalBuf::default();
        buf2.counter_add(Cow::Borrowed("a"), 1);
        buf2.gauge_set(Cow::Borrowed("g"), 3);
        reg.absorb(buf2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 6);
        assert_eq!(snap.gauges["g"], 7);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.spans["s"].count, 1);
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn snapshot_merge_is_commutative_here() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), u64::MAX - 1);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["x"], u64::MAX, "counter addition saturates");
    }
}
