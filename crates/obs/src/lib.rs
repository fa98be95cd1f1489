//! # hf-obs — zero-dependency observability for the honeyfarm pipeline
//!
//! Counters, gauges, log2 histograms, and span timing for every crate in
//! the offline workspace, plus the versioned end-of-run manifest
//! (`metrics.json` + `spans.tsv`). Three design rules, in priority order:
//!
//! 1. **Recording never perturbs the pipeline.** Instrumentation only
//!    observes: no RNG, no ordering influence, no feedback into any
//!    simulated or analyzed value. `tests/obs_invariance.rs` proves that a
//!    metrics-on run produces bit-identical simulation output, snapshots,
//!    and reports to a metrics-off run at 1, 2, and 8 threads.
//! 2. **Every aggregate is an associative, commutative merge** (the same
//!    discipline as `Aggregates::merge`): thread-local buffers flush into
//!    a sharded registry in any order with identical results, so counters
//!    derived from deterministic work are thread-count invariant.
//! 3. **Off means off.** Disabled at runtime (the default), every
//!    recording call is one relaxed atomic load.
//!
//! ## Recording
//!
//! ```
//! hf_obs::enable();
//! hf_obs::counter!("demo.events", 3);
//! hf_obs::gauge!("demo.threads", 8);
//! hf_obs::observe!("demo.batch_size", 1024);
//! {
//!     let _g = hf_obs::span!("demo.phase");
//!     // … timed work …
//! }
//! hf_obs::flush(); // per thread, before the thread ends
//! let manifest = hf_obs::manifest("demo");
//! assert_eq!(manifest.counters["demo.events"], 3);
//! # hf_obs::disable();
//! # hf_obs::reset();
//! ```
//!
//! Worker threads buffer locally and must [`flush`] before they exit
//! ([`map_ordered`], the fan-out every sharded stage goes through, does it
//! for them); the thread calling [`snapshot`]/[`manifest`] flushes itself
//! automatically.

#![warn(missing_docs)]

pub mod clock;
pub mod manifest;
pub mod metrics;
pub mod span;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use clock::{set_zero_clock, zero_clock};
pub use manifest::{
    ManifestError, RunManifest, METRICS_FILE, SCHEMA_NAME, SCHEMA_VERSION, SPANS_FILE,
};
pub use metrics::{
    Histogram, LocalBuf, MetricsRegistry, MetricsSnapshot, Name, SpanStats, N_BUCKETS,
};
pub use span::SpanGuard;

// ---------------------------------------------------------- global state --

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::default());
    static SPAN_STACK: RefCell<Vec<Name>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Turn recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Already-buffered values stay until [`flush`]ed or
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is recording on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// --------------------------------------------------------- recording API --

/// Add `n` to the named counter (thread-local until [`flush`]).
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().counter_add(Name::Borrowed(name), n));
    }
}

/// Raise the named high-water-mark gauge to at least `v`.
pub fn gauge_set(name: &'static str, v: i64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().gauge_set(Name::Borrowed(name), v));
    }
}

/// Record one sample into the named log2 histogram.
pub fn observe(name: &'static str, v: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().observe(Name::Borrowed(name), v));
    }
}

/// Open a span over a static name; timing is recorded when the returned
/// guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    span_named(|| Name::Borrowed(name))
}

/// Open a span over a dynamically composed name. The closure only runs
/// when recording is enabled, so the disabled path allocates nothing.
pub fn span_owned_with(name: impl FnOnce() -> String) -> SpanGuard {
    span_named(|| Name::Owned(name()))
}

fn span_named(name: impl FnOnce() -> Name) -> SpanGuard {
    if enabled() {
        SpanGuard::begin(name())
    } else {
        SpanGuard::inert()
    }
}

/// Drain the calling thread's buffer into the global registry. Worker
/// threads call this before exiting; cheap when nothing is buffered.
pub fn flush() {
    let buf = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !buf.is_empty() {
        registry().absorb(buf);
    }
}

/// Current span nesting depth on the calling thread.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

pub(crate) fn stack_push(name: Name) {
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
}

pub(crate) fn stack_pop(name: &Name) {
    SPAN_STACK.with(|s| {
        let popped = s.borrow_mut().pop();
        debug_assert_eq!(
            popped.as_ref(),
            Some(name),
            "span guards dropped out of nesting order"
        );
    });
}

pub(crate) fn record_span(name: Name, wall_ns: u64, cpu_ns: u64) {
    LOCAL.with(|l| l.borrow_mut().span_record(name, wall_ns, cpu_ns));
}

// --------------------------------------------------------------- fan-out --

/// Map `items` through `f` on scoped worker threads and return the results
/// in item order — the one ordered fan-out behind every sharded stage (the
/// `hf-sim` day shards and, through `SessionStore::map_day_shards`, the
/// `hf-core` and `hf-cluster` folds). Four guarantees:
///
/// 1. A single item runs inline on the calling thread: no spawn/join
///    round-trip, and its metrics stay in the caller's buffer.
/// 2. More items run one worker each, and every worker [`flush`]es its
///    metrics buffer after `f` returns — after every span `f` opened has
///    dropped — so nothing recorded inside `f` dies with the thread.
/// 3. Workers are joined in spawn order, so result `i` is `f(items[i])`
///    whichever worker finished first. Callers that merge the results
///    front to back therefore merge in item order: join order *is* merge
///    order, which is what makes the sharded stages thread-count invariant.
/// 4. A worker panic is re-raised on the caller with its original payload,
///    not masked by a generic join error.
pub fn map_ordered<I: Send, T: Send>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                scope.spawn(move || {
                    let out = f(item);
                    flush();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

// ------------------------------------------------------------------- rss --

/// Peak resident set size of this process in kilobytes, read from Linux's
/// `/proc/self/status` `VmHWM` line. `None` off Linux or when the field is
/// absent/unparsable — callers treat RSS accounting as best-effort.
pub fn peak_rss_kb() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // "VmHWM:     123456 kB"
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Sample [`peak_rss_kb`] into the `process.peak_rss_kb` high-water-mark
/// gauge (a no-op when recording is disabled or the value is unreadable).
/// The out-of-core fold samples once per day; `hfarm` samples once more
/// before writing the run manifest, so the manifest's gauge reflects the
/// whole process.
pub fn sample_peak_rss() {
    if enabled() {
        if let Some(kb) = peak_rss_kb() {
            gauge!("process.peak_rss_kb", kb);
        }
    }
}

// ------------------------------------------------------------ harvesting --

/// Flush the calling thread, then fold every registry shard into one
/// sorted snapshot.
pub fn snapshot() -> MetricsSnapshot {
    flush();
    registry().snapshot()
}

/// Flush the calling thread and package everything recorded so far as a
/// [`RunManifest`] attributed to `tool`.
pub fn manifest(tool: &str) -> RunManifest {
    RunManifest::from_snapshot(tool, snapshot())
}

/// Clear the global registry and the calling thread's buffer (test use;
/// buffers of other live threads are untouched).
pub fn reset() {
    LOCAL.with(|l| *l.borrow_mut() = LocalBuf::default());
    registry().reset();
}

// ---------------------------------------------------------------- macros --

/// `counter!("name", n)` — add `n` to a counter.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        $crate::counter_add($name, $n as u64)
    };
}

/// `gauge!("name", v)` — raise a high-water-mark gauge to at least `v`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge_set($name, $v as i64)
    };
}

/// `observe!("name", v)` — record a histogram sample.
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {
        $crate::observe($name, $v as u64)
    };
}

/// `span!("phase")` — open a span guard; bind it (`let _g = …`) so it
/// measures until scope exit.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; unit tests touching it serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = LOCK.lock().unwrap();
        reset();
        disable();
        counter!("unit.never", 5);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn end_to_end_record_flush_manifest() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        counter!("unit.events", 2);
        counter!("unit.events", 3);
        gauge!("unit.peak", 7);
        observe!("unit.sizes", 100);
        {
            let _s = span!("unit.phase");
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        let m = manifest("unit");
        assert_eq!(m.counters["unit.events"], 5);
        assert_eq!(m.gauges["unit.peak"], 7);
        assert_eq!(m.histograms["unit.sizes"].count, 1);
        assert_eq!(m.spans["unit.phase"].count, 1);
        disable();
        reset();
    }

    #[test]
    fn peak_rss_sampling_populates_the_gauge() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        sample_peak_rss();
        let m = manifest("unit");
        disable();
        reset();
        // Best-effort: on Linux the gauge must be present and positive; on
        // other platforms the sampler records nothing.
        match peak_rss_kb() {
            Some(kb) => {
                assert!(kb > 0, "VmHWM should be positive, got {kb}");
                let recorded = m.peak_rss_kb().expect("gauge sampled");
                assert!(recorded > 0);
                // High-water mark: the later read can only be >= the sample.
                assert!(kb >= recorded);
            }
            None => assert!(m.peak_rss_kb().is_none()),
        }
    }

    #[test]
    fn map_ordered_keeps_item_order_when_later_items_finish_first() {
        // Item 0 cannot return until item 1 has: the channel forces the
        // interleaving where the later item finishes first.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let items = vec![(0, Some(rx), None), (1, None, Some(tx)), (2, None, None)];
        let out = map_ordered(items, |(i, wait, done)| {
            if let Some(rx) = wait {
                rx.recv().expect("item 1 signals before returning");
            }
            if let Some(tx) = done {
                tx.send(()).expect("item 0 is waiting");
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20]);
        assert_eq!(map_ordered(Vec::<u8>::new(), |b| b), Vec::<u8>::new());
    }

    #[test]
    fn map_ordered_runs_a_single_item_on_the_calling_thread() {
        let here = std::thread::current().id();
        assert_eq!(
            map_ordered(vec![()], |()| std::thread::current().id()),
            [here]
        );
        let spawned = map_ordered(vec![(), ()], |()| std::thread::current().id());
        assert!(spawned.iter().all(|&id| id != here));
    }

    #[test]
    fn map_ordered_reraises_the_workers_own_panic_payload() {
        let err = std::panic::catch_unwind(|| {
            map_ordered(vec![0, 1, 2], |i| {
                if i == 1 {
                    panic!("boom");
                }
                i
            })
        })
        .expect_err("the worker panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn map_ordered_workers_flush_their_own_metrics() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        map_ordered(vec![1u64, 2, 3], |n| {
            counter!("unit.fanout_events", n);
            let _s = span!("unit.fanout_shard");
        });
        // No flush by the caller: each worker drained its own buffer, after
        // its span dropped.
        let snap = registry().snapshot();
        disable();
        reset();
        assert_eq!(snap.counters["unit.fanout_events"], 6);
        assert_eq!(snap.spans["unit.fanout_shard"].count, 3);
    }

    #[test]
    fn cross_thread_flushes_fold() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    counter!("unit.worker_events", 10);
                    flush();
                });
            }
        });
        let m = manifest("unit");
        assert_eq!(m.counters["unit.worker_events"], 40);
        disable();
        reset();
    }
}
