//! A counting global allocator for the benchmark binary.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`.
//! Counting stays off (one relaxed load per call) until [`enable`], so the
//! timed loops of untraced runs pay almost nothing. Library crates are
//! never touched: the counts are read around calls into them, from the
//! benchmark's own code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// Statistics only: no other data is published through these atomics, so
// every access is `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since [`reset_peak`]; negative when
/// older allocations are freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Allocator that counts allocations, requested bytes and live heap bytes
/// when enabled.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size(), 0);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size(), 0);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size, layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One allocation of `bytes`, replacing `freed` bytes (a reallocation).
fn note_alloc(bytes: usize, freed: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        let delta = bytes as i64 - freed as i64;
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Start counting.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Allocations (including reallocations) and bytes requested so far.
/// Both read 0 when the binary did not install [`CountingAlloc`].
pub fn snapshot() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Start a new live-heap measurement from 0.
pub fn reset_peak() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
}

/// The most heap bytes in use at once, above the level at [`reset_peak`],
/// since then. Reads 0 when the binary did not install [`CountingAlloc`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}
