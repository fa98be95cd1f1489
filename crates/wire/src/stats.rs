//! Per-farm wire counters.
//!
//! [`FarmStats`] is the farm's own source of truth for the ingest-accounting
//! invariant (`accepted == ingested + rejected`): plain atomics shared by the
//! reactor thread, its connections, and whoever owns the [`crate::LiveFarm`]
//! handle. Every increment is mirrored into the global `hf-obs` registry
//! under a `wire.*` name, so a metrics-enabled run exports the same numbers
//! in its manifest — but tests assert against [`FarmStats`], which is scoped
//! to one farm instead of one process.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct Inner {
    accepted: AtomicU64,
    rejected_ip_cap: AtomicU64,
    ingested: AtomicU64,
    wall_timeouts: AtomicU64,
    oversized_lines: AtomicU64,
    telnet_storms: AtomicU64,
    read_errors: AtomicU64,
    auths_ok: AtomicU64,
    auths_fail: AtomicU64,
    commands: AtomicU64,
    open_now: AtomicI64,
    open_peak: AtomicI64,
}

/// Shared live counters of one farm. Cheap to clone (an `Arc`).
#[derive(Clone, Default)]
pub struct FarmStats {
    inner: Arc<Inner>,
}

macro_rules! getter {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        $($(#[$doc])*
        pub fn $name(&self) -> u64 {
            self.inner.$name.load(Ordering::Relaxed)
        })*
    };
}

impl FarmStats {
    /// Fresh all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    getter! {
        /// TCP connections accepted (including ones later rejected by the
        /// per-IP cap).
        accepted,
        /// Connections closed at accept time, with no session record: over
        /// the per-IP cap, or a failed registration (`set_nonblocking` or
        /// `epoll_ctl ADD`).
        rejected_ip_cap,
        /// Session records ingested, on the reactor thread, each before its
        /// socket closes.
        ingested,
        /// Sessions ended by the wall-clock read deadline.
        wall_timeouts,
        /// Sessions ended for exceeding the line-length bound.
        oversized_lines,
        /// Telnet sessions ended for exceeding the negotiation budget.
        telnet_storms,
        /// Socket read errors treated as client closes.
        read_errors,
        /// Accepted credential offers.
        auths_ok,
        /// Rejected credential offers.
        auths_fail,
        /// Shell command lines executed.
        commands,
    }

    /// Currently open (accepted, not yet closed) connections.
    pub fn open_now(&self) -> i64 {
        self.inner.open_now.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently open connections — the farm-side
    /// measure of sustained concurrency under load.
    pub fn open_peak(&self) -> i64 {
        self.inner.open_peak.load(Ordering::Relaxed)
    }

    /// Does `accepted == ingested + rejected` hold right now? Only
    /// meaningful after a farm has fully shut down (mid-run, accepted
    /// connections are still in flight).
    pub fn accounting_balanced(&self) -> bool {
        self.accepted() == self.ingested() + self.rejected_ip_cap()
    }

    pub(crate) fn on_accept(&self) {
        self.inner.accepted.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.accepted", 1);
    }

    pub(crate) fn on_reject_ip_cap(&self) {
        self.inner.rejected_ip_cap.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.rejected_ip_cap", 1);
    }

    pub(crate) fn on_ingest(&self) {
        self.inner.ingested.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.ingested", 1);
    }

    pub(crate) fn on_wall_timeout(&self) {
        self.inner.wall_timeouts.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.wall_timeouts", 1);
    }

    pub(crate) fn on_oversized(&self) {
        self.inner.oversized_lines.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.oversized_lines", 1);
    }

    pub(crate) fn on_telnet_storm(&self) {
        self.inner.telnet_storms.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.telnet_storms", 1);
    }

    pub(crate) fn on_read_error(&self) {
        self.inner.read_errors.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.read_errors", 1);
    }

    pub(crate) fn on_auth(&self, accepted: bool) {
        if accepted {
            self.inner.auths_ok.fetch_add(1, Ordering::Relaxed);
            hf_obs::counter!("wire.auth_ok", 1);
        } else {
            self.inner.auths_fail.fetch_add(1, Ordering::Relaxed);
            hf_obs::counter!("wire.auth_fail", 1);
        }
    }

    pub(crate) fn on_command(&self) {
        self.inner.commands.fetch_add(1, Ordering::Relaxed);
        hf_obs::counter!("wire.commands", 1);
    }

    pub(crate) fn conn_opened(&self) {
        let now = self.inner.open_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.open_peak.fetch_max(now, Ordering::Relaxed);
        hf_obs::gauge!("wire.open_peak", now);
    }

    pub(crate) fn conn_closed(&self) {
        self.inner.open_now.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_balance() {
        let s = FarmStats::new();
        for _ in 0..5 {
            s.on_accept();
        }
        s.on_reject_ip_cap();
        for _ in 0..4 {
            s.on_ingest();
        }
        assert_eq!(s.accepted(), 5);
        assert_eq!(s.rejected_ip_cap(), 1);
        assert_eq!(s.ingested(), 4);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn open_peak_is_high_water() {
        let s = FarmStats::new();
        s.conn_opened();
        s.conn_opened();
        s.conn_closed();
        s.conn_opened();
        assert_eq!(s.open_now(), 2);
        assert_eq!(s.open_peak(), 2);
    }

    #[test]
    fn clones_share_state() {
        let a = FarmStats::new();
        let b = a.clone();
        b.on_accept();
        assert_eq!(a.accepted(), 1);
    }
}
