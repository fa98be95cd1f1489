//! # hf-obs — zero-dependency observability for the honeyfarm pipeline
//!
//! Counters, gauges, log2 histograms, and span timing for every crate in
//! the offline workspace, plus the versioned end-of-run manifest, one
//! `metrics.json` per run. Three design rules, in priority order:
//!
//! 1. **Recording never perturbs the pipeline.** Instrumentation only
//!    observes: no RNG, no ordering influence, no feedback into any
//!    simulated or analyzed value. `tests/obs_invariance.rs` proves that a
//!    metrics-on run produces bit-identical simulation output, snapshots,
//!    and reports to a metrics-off run.
//! 2. **Every aggregate is an associative, commutative merge** (the same
//!    discipline as `Aggregates::merge`): thread-local buffers flush into
//!    one process-wide [`MetricsSnapshot`] in any order with identical
//!    results, so counters derived from deterministic work are
//!    thread-count invariant.
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
//! ([`overlapped`], the two-stage pipeline, does it for its helper); the
//! thread calling [`snapshot`]/[`fn@manifest`] flushes itself automatically.

#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod span;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};

pub use clock::{set_zero_clock, zero_clock};
pub use manifest::{ManifestError, RunManifest, METRICS_FILE, SCHEMA_NAME, SCHEMA_VERSION};
pub use metrics::{Histogram, LocalBuf, MetricsSnapshot, Name, SpanStats, N_BUCKETS};
pub use span::SpanGuard;

// ---------------------------------------------------------- global state --

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Everything flushed so far. A flush happens once per worker or helper
/// thread exit and once per manifest, so one lock serves without contention.
static REGISTRY: Mutex<MetricsSnapshot> = Mutex::new(MetricsSnapshot::new());

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::default());
    static SPAN_STACK: RefCell<Vec<Name>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> MutexGuard<'static, MetricsSnapshot> {
    REGISTRY.lock().expect("metrics registry poisoned")
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
        let buf = buf.into_snapshot();
        registry().merge(&buf);
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

// -------------------------------------------------------------- pipeline --

/// Buffers [`overlapped`] rotates: the helper fills one while the caller
/// works on the other, so at most two items are alive at once.
const OVERLAP_DEPTH: usize = 2;

/// The one two-stage pipeline — the snapshot codec's chunk reader and
/// writer and the simulator's day loop all run through it: `produce` fills
/// a buffer with item `k + 1` (returning its tag, or `None` after the last
/// item) while `consume` works on item `k`. Five guarantees:
///
/// 1. With `items <= 1` both closures run on the calling thread over
///    `bufs[0]`, alternating, with no spawn. `items` only chooses the arm:
///    the number of items `produce` will yield, or any lower bound on it.
/// 2. Otherwise `produce` runs on one scoped helper thread and the two
///    buffers rotate through a recycle channel: `consume` hands each one
///    back and `produce` refills it, so `produce` can free what a buffer
///    owns on the thread that allocated it. The helper [`flush`]es its
///    metrics before it exits.
/// 3. Items are consumed strictly in production order, so `consume` sees
///    the same items in the same order on either arm.
/// 4. The first error wins, whichever closure raises it: it is the error
///    the serial arm would have hit first. A `consume` error stops the
///    helper, which is joined before this returns.
/// 5. A `produce` panic is re-raised on the caller with its own payload.
///
/// Time the calling thread spends blocked on the helper is recorded in the
/// `wait_span` span: a large share of the wall time means the producer is
/// the bottleneck; near zero, the consumer is.
pub fn overlapped<B: Send, T: Send, E: Send>(
    items: usize,
    wait_span: &'static str,
    bufs: [B; OVERLAP_DEPTH],
    mut produce: impl FnMut(&mut B) -> Result<Option<T>, E> + Send,
    mut consume: impl FnMut(T, &mut B) -> Result<(), E>,
) -> Result<(), E> {
    if items <= 1 {
        let [mut buf, _] = bufs;
        while let Some(tag) = produce(&mut buf)? {
            consume(tag, &mut buf)?;
        }
        return Ok(());
    }
    std::thread::scope(|s| {
        let (full_tx, full_rx) = mpsc::sync_channel::<Result<(T, B), E>>(OVERLAP_DEPTH);
        // Only `OVERLAP_DEPTH` buffers exist, so recycling never blocks, and
        // the bounded channel's slots are allocated once, not per item.
        let (free_tx, free_rx) = mpsc::sync_channel::<B>(OVERLAP_DEPTH);
        for buf in bufs {
            let _ = free_tx.send(buf);
        }
        let helper = s.spawn(move || {
            // Either channel closing means the consumer stopped: stop too.
            while let Ok(mut buf) = free_rx.recv() {
                let msg = match produce(&mut buf) {
                    Ok(Some(tag)) => Ok((tag, buf)),
                    Ok(None) => break, // dropping full_tx ends the consumer
                    Err(e) => Err(e),
                };
                let failed = msg.is_err();
                if full_tx.send(msg).is_err() || failed {
                    break;
                }
            }
            flush();
        });
        let result = (|| loop {
            let msg = {
                let _wait = span(wait_span);
                full_rx.recv()
            };
            // Closed: the helper produced its last item, or panicked.
            let Ok(msg) = msg else { return Ok(()) };
            let (tag, mut buf) = msg?;
            consume(tag, &mut buf)?;
            let _ = free_tx.send(buf);
        })();
        // Dropping both ends unblocks a helper that is mid-send or waiting
        // for a buffer, so the join below cannot hang.
        drop(full_rx);
        drop(free_tx);
        match helper.join() {
            Ok(()) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        }
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

/// Flush the calling thread, then copy out everything flushed so far.
pub fn snapshot() -> MetricsSnapshot {
    flush();
    registry().clone()
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
    *registry() = MetricsSnapshot::new();
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

    /// Drive [`overlapped`] over `0..n` with one `Vec<u32>` per item: the
    /// producer writes item `k` into the buffer it was handed, `consume`
    /// sees `(k, buffer)`.
    fn pipeline<E: Send>(
        n: u32,
        mut produce: impl FnMut(u32) -> Result<(), E> + Send,
        mut consume: impl FnMut(u32, &[u32]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut next = 0;
        overlapped(
            n as usize,
            "unit.pipeline_wait",
            [Vec::new(), Vec::new()],
            |buf: &mut Vec<u32>| {
                if next == n {
                    return Ok(None);
                }
                produce(next)?;
                buf.clear();
                buf.push(next);
                next += 1;
                Ok(Some(next - 1))
            },
            |k, buf| consume(k, buf),
        )
    }

    #[test]
    fn overlapped_consumes_in_production_order_under_a_slow_consumer() {
        let _g = LOCK.lock().unwrap();
        // The consumer does not finish item k before the producer has
        // started item k + 1, so it always trails the producer.
        let (started_tx, started_rx) = mpsc::channel();
        let mut started = 0;
        let mut seen = Vec::new();
        pipeline::<()>(
            12,
            move |k| {
                started_tx.send(k).expect("the consumer is waiting");
                Ok(())
            },
            |k, buf| {
                while started < (k + 2).min(12) {
                    assert_eq!(started_rx.recv().expect("producer runs"), started);
                    started += 1;
                }
                assert_eq!(
                    buf,
                    [k],
                    "each item arrives in the buffer it was produced into"
                );
                seen.push(k);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn overlapped_first_error_wins_whichever_side_raises_it() {
        let _g = LOCK.lock().unwrap();
        // Producer fails at 5, consumer at `c`: the serial order decides.
        for c in [3, 5, 7] {
            let mut consumed = 0;
            let err = pipeline(
                10,
                |k| if k == 5 { Err(("produce", k)) } else { Ok(()) },
                |k, _| {
                    consumed += 1;
                    if k == c {
                        Err(("consume", k))
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            let want = if c < 5 {
                ("consume", c)
            } else {
                ("produce", 5)
            };
            assert_eq!(err, want, "consumer fails at {c}");
            assert_eq!(consumed, c.min(5) + u32::from(c < 5));
        }
    }

    #[test]
    fn overlapped_joins_the_helper_when_the_consumer_bails_at_any_item() {
        let _g = LOCK.lock().unwrap();
        // The consumer stops while the producer is ahead of it, blocked on
        // a full channel, or already finished. Returning at all means the
        // helper was joined.
        for stop in 0..8 {
            let produced = std::sync::atomic::AtomicU32::new(0);
            let err = pipeline(
                8,
                |_| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
                |k, _| if k == stop { Err(k) } else { Ok(()) },
            );
            assert_eq!(err, Err(stop));
            // Two buffers bound how far the producer can run ahead.
            assert!(produced.load(Ordering::Relaxed) <= stop + 3);
        }
    }

    #[test]
    fn overlapped_reraises_the_producers_own_panic_payload() {
        let _g = LOCK.lock().unwrap();
        let err = std::panic::catch_unwind(|| {
            pipeline::<()>(
                4,
                |k| {
                    if k == 2 {
                        panic!("producer boom");
                    }
                    Ok(())
                },
                |_, _| Ok(()),
            )
        })
        .expect_err("the producer panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"producer boom"));
    }

    #[test]
    fn overlapped_runs_one_item_or_fewer_on_the_calling_thread() {
        let _g = LOCK.lock().unwrap();
        let here = std::thread::current().id();
        for n in [0, 1] {
            let mut threads = Vec::new();
            let mut consumed = 0;
            let mut next = 0;
            overlapped::<(), _, ()>(
                n,
                "unit.pipeline_wait",
                [(), ()],
                |_| {
                    threads.push(std::thread::current().id());
                    next += 1;
                    Ok((next <= n).then_some(()))
                },
                |(), _| {
                    consumed += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(consumed, n);
            assert!(threads.iter().all(|&id| id == here));
        }
        let mut producer = None;
        pipeline::<()>(
            2,
            |_| {
                producer = Some(std::thread::current().id());
                Ok(())
            },
            |_, _| Ok(()),
        )
        .unwrap();
        assert_ne!(producer, Some(here), "two items overlap on a helper");
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
