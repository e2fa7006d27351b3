//! A counting global allocator: the proof layer behind the
//! zero-allocation steady-state claim.
//!
//! Perf claims about allocation are folklore until a counter says
//! otherwise, so [`CountingAlloc`] wraps [`System`] and counts every
//! `alloc`/`alloc_zeroed`/`realloc` call (and the bytes they request)
//! in process-global relaxed atomics. Worker threads are counted too —
//! the sharded service's parallel mode cannot hide allocations on its
//! shard workers.
//!
//! The counters live in statics, but they only move when the wrapper is
//! actually installed as the `#[global_allocator]` — which happens in
//! the dedicated `zero_alloc` integration test, **not** in the library
//! (unit-test binaries keep the system allocator, so library tests
//! measure nothing and must not pretend to). [`is_installed`] probes for
//! that difference at runtime, so the test can refuse zeros that merely
//! mean "nobody was counting".
//!
//! Deallocations are deliberately not counted: the gate is about
//! steady-state *acquisition* (a warmed service must not take new heap),
//! while dropping buffers that were pre-built outside the measured
//! region is fine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static TRAP: AtomicBool = AtomicBool::new(false);

/// Arm the diagnostic trap: the *next* allocation on any thread prints
/// its size and backtrace to stderr, then disarms. When a zero-alloc
/// gate fails, this answers "allocated *where*?" without a debugger —
/// arm it right before the measured region and rerun.
pub fn trap_next_alloc() {
    TRAP.store(true, Relaxed);
}

/// Disarm the trap (see [`trap_next_alloc`]).
pub fn clear_trap() {
    TRAP.store(false, Relaxed);
}

#[cold]
fn fire_trap(size: usize) {
    // the capture/print below allocates freely — the trap is already
    // disarmed, so there is no recursion hazard, and the extra counts
    // only matter in a diagnostic rerun that is going to fail anyway
    let bt = std::backtrace::Backtrace::force_capture();
    eprintln!("alloc_meter trap: {size}-byte allocation\n{bt}");
}

/// A [`System`]-backed allocator that counts allocations process-wide.
///
/// Install with `#[global_allocator] static A: CountingAlloc =
/// CountingAlloc;` and read the counters with [`counters`]. The two
/// relaxed `fetch_add`s per allocation are noise next to the allocation
/// itself — and the whole point of the gated hot path is that it never
/// reaches this code at all.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        if TRAP.load(Relaxed) && TRAP.swap(false, Relaxed) {
            fire_trap(layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // a grow/shrink acquires heap just like a fresh allocation; a
        // zero-alloc steady state must not hide behind Vec::reserve
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        if TRAP.load(Relaxed) && TRAP.swap(false, Relaxed) {
            fire_trap(new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A point-in-time reading of the process-global allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounters {
    /// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`) so far.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl AllocCounters {
    /// The counter movement between `earlier` and `self`.
    pub fn since(self, earlier: AllocCounters) -> AllocCounters {
        AllocCounters {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Read the current counters (relaxed — pair with quiesced measurement
/// boundaries, e.g. a drained service pipeline, for exact deltas).
pub fn counters() -> AllocCounters {
    AllocCounters {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// The self-audit probe: heap-allocate and check the counters moved.
///
/// Returns `false` when [`CountingAlloc`] is *not* the process's global
/// allocator (e.g. inside a library unit-test binary) — in which case a
/// measured delta of zero is meaningless and the caller must refuse to
/// report it.
pub fn is_installed() -> bool {
    let before = counters();
    let probe = std::hint::black_box(Box::new(0xA5A5_5A5Au32));
    drop(std::hint::black_box(probe));
    counters().allocs > before.allocs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_snapshots() {
        let a = counters();
        let b = counters();
        assert!(b.allocs >= a.allocs);
        assert_eq!(b.since(a).bytes, b.bytes - a.bytes);
    }

    #[test]
    fn probe_reports_uninstalled_in_library_tests() {
        // this test binary does not install the counting allocator, so
        // the probe must say so — the property the zero_alloc test's
        // self-audit relies on to reject meaningless zeros
        assert!(!is_installed());
        assert_eq!(counters().allocs, 0, "nothing ever counted here");
    }
}
