//! Time sources for span measurement, including the test-mode zero clock.
//!
//! Golden tests pin the *structure* of a manifest (which counters exist,
//! which spans fired, how often) but wall/CPU durations are inherently
//! non-deterministic. The zero clock makes every duration read as 0 ns so
//! a manifest produced under it is byte-stable and can be golden-pinned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ZERO_CLOCK: AtomicBool = AtomicBool::new(false);

/// Switch the zero clock on or off (test use; off by default).
pub fn set_zero_clock(on: bool) {
    ZERO_CLOCK.store(on, Ordering::Relaxed);
}

/// Is the zero clock active?
pub fn zero_clock() -> bool {
    ZERO_CLOCK.load(Ordering::Relaxed)
}

/// Nanoseconds of wall clock elapsed since `start` (0 under the zero
/// clock). Saturates at `u64::MAX` (~584 years).
pub fn wall_ns_since(start: Instant) -> u64 {
    if zero_clock() {
        return 0;
    }
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Cumulative CPU time of the calling thread in nanoseconds, read from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`: exact at every read, including
/// for a thread that is running right now. (Linux's
/// `/proc/thread-self/schedstat` advances a running thread's time only at
/// scheduler events, so a busy 1 ms span could read a tenth of that, and
/// each read costs a file open.) Returns 0 off 64-bit Linux, where span
/// `cpu_ns` stays 0; the manifest schema documents the field as
/// best-effort. Always 0 under the zero clock.
pub fn thread_cpu_ns() -> u64 {
    if zero_clock() {
        return 0;
    }
    thread_cputime()
}

/// `struct timespec` on 64-bit Linux, where `time_t` and `long` are both
/// 64 bits.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    /// POSIX `clock_gettime`, from the C library the standard library
    /// already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID` (`<linux/time.h>`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cputime() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp` and
    // keeps no reference to it; `ts` is a live, writable `Timespec`, whose
    // `repr(C)` layout is the kernel's on 64-bit Linux. A clock id the
    // kernel rejects returns -1 and writes nothing.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    let secs = u64::try_from(ts.tv_sec).unwrap_or(0);
    let nanos = u64::try_from(ts.tv_nsec).unwrap_or(0);
    secs.saturating_mul(1_000_000_000).saturating_add(nanos)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cputime() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clock_zeroes_wall_time() {
        // The zero clock is process-wide: keep out the tests that time spans.
        let _lock = crate::tests::LOCK.lock().unwrap();
        set_zero_clock(true);
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(wall_ns_since(t), 0);
        assert_eq!(thread_cpu_ns(), 0);
        set_zero_clock(false);
        assert!(wall_ns_since(t) > 0);
    }
}
