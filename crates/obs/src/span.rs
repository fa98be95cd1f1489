//! Span timing: RAII guards measuring wall/CPU time of a named phase.
//!
//! A [`SpanGuard`] pushes its name on a thread-local stack at creation and
//! records a [`crate::metrics::SpanStats`] sample when dropped. Each stack
//! entry sums the wall time of the spans that closed directly inside it,
//! so a span's self time is its wall minus that sum. The stack also
//! serves observability hygiene: [`crate::span_depth`] lets tests prove
//! that arbitrary (lexically scoped) nesting always balances back to zero,
//! and a debug assertion catches out-of-order drops early.
//!
//! The clocks are read so that a span's CPU window lies inside its wall
//! window: wall then CPU at the start, CPU then wall at the end.
//!
//! Guards are inert when recording is disabled — creating one then is two
//! relaxed atomic loads and no allocation.

use std::time::Instant;

use crate::metrics::Name;

/// RAII timer for one execution of a named phase. Create with
/// [`fn@crate::span`], [`crate::span_owned_with`], or the [`crate::span!`]
/// macro; the sample is recorded on drop.
#[must_use = "a span guard measures until it is dropped; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when recording was disabled at creation (inert guard).
    name: Option<Name>,
    start: Instant,
    cpu_start: u64,
}

impl SpanGuard {
    /// An inert guard that records nothing on drop.
    pub(crate) fn inert() -> SpanGuard {
        SpanGuard {
            name: None,
            start: Instant::now(),
            cpu_start: 0,
        }
    }

    pub(crate) fn begin(name: Name) -> SpanGuard {
        crate::stack_push(name.clone());
        SpanGuard {
            start: Instant::now(),
            cpu_start: crate::clock::thread_cpu_ns(),
            name: Some(name),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else {
            return;
        };
        let cpu = crate::clock::thread_cpu_ns().saturating_sub(self.cpu_start);
        let wall = crate::clock::wall_ns_since(self.start);
        let children = crate::stack_pop(&name, wall);
        crate::record_span(name, wall, wall.saturating_sub(children), cpu);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn inert_guard_records_nothing() {
        // Disabled by default: the guard must be inert and depth untouched.
        // The lock keeps out the tests that turn recording on meanwhile.
        let _lock = crate::tests::LOCK.lock().unwrap();
        assert!(!crate::enabled());
        let _g = crate::span("never");
        assert_eq!(crate::span_depth(), 0);
    }
}
