//! A counting global allocator for allocation-budget tests.
//!
//! The session hot path (lexer, interpreter, builtins, VFS walk) is designed
//! to be allocation-free in steady state: all scratch lives in per-session
//! arenas ([`hf_shell::SessionScratch`]) that are reused across sessions via
//! a thread-local pool. That discipline is easy to regress silently — one
//! `format!` or `to_string()` on the per-command path and every session pays
//! again. [`CountingAlloc`] makes the budget testable: install it as the
//! `#[global_allocator]` in a test binary and assert on
//! [`allocation_count`] deltas around the code under test.
//!
//! Counters are per-thread, so parallel test threads don't bleed into each
//! other's windows. Only allocations are counted (not frees): a steady-state
//! window that allocates nothing reads as a delta of zero regardless of what
//! the warmup phase freed.
//!
//! ```ignore
//! use hf_testkit::alloc::{allocation_count, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! // warm up: first run grows the arenas to capacity
//! run_workload();
//! let before = allocation_count();
//! run_workload(); // same shape: must fit the warm arenas
//! assert_eq!(allocation_count() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls made by the current thread since it started (or since
/// the counter last wrapped, which takes 2^64 calls — never).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// Bytes requested by the current thread's allocation calls. Reallocs count
/// the new size (the grow path allocates the new block).
pub fn allocated_bytes() -> u64 {
    BYTES.with(|c| c.get())
}

/// A [`System`]-backed allocator that counts per-thread allocation calls.
///
/// Counting happens on `alloc`/`realloc` only; `dealloc` is passthrough.
/// The counters are plain thread-local `Cell`s — no atomics on the alloc
/// path, so installing this in a test binary doesn't distort what it
/// measures.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for use in `#[global_allocator]` statics.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers entirely to `System` for memory management; the counter
// update is a thread-local Cell write, which cannot unwind or re-enter the
// allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's non-zero-size `layout` is all `System.alloc` needs.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    // SAFETY: the caller's `ptr` came from this allocator, so from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as for `alloc`: the caller's `layout` has a non-zero size.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's `ptr` came from `System` for `layout`, and its
    // `new_size` is non-zero and fits `isize` at `layout.align()`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in this crate's test binary (that
    // would tax every other test); these only cover the counter plumbing.

    #[test]
    fn counters_start_at_thread_zero_and_are_monotonic() {
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
    }

    #[test]
    fn default_constructs() {
        fn takes_default<T: Default>() -> T {
            T::default()
        }
        let _ = takes_default::<CountingAlloc>();
        let _ = CountingAlloc::new();
    }
}
