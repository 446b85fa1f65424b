//! Zero-dependency heap accounting via a counting `#[global_allocator]`
//! wrapper (feature `alloc-track`).
//!
//! [`CountingAlloc`] delegates every allocation to the system allocator
//! and maintains two process-wide relaxed atomics: live heap bytes and
//! the high-water mark. Binaries opt in by installing it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tabmeta_obs::mem::CountingAlloc = tabmeta_obs::mem::CountingAlloc;
//! ```
//!
//! The CLI and the root examples install it (root feature `mem-track`,
//! on by default): `train --stream --mem-budget` enforces its budget
//! against it. Library/test builds that don't simply read zeros —
//! [`is_tracking`] distinguishes the two. [`publish`] mirrors both
//! numbers into `mem.current_bytes` / `mem.peak_bytes` gauges, and
//! [`reset_peak`] rebases the high-water mark so peak heap is measurable
//! *per stage*, not just per process.

// The allocator impl is the workspace's one unsafe surface outside
// crates/linalg; the crate root forbids unsafe_code unless this feature
// is on.
#![allow(unsafe_code)]

use crate::names;
use crate::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live heap bytes (allocated minus deallocated).
static CURRENT: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CURRENT`] since process start or [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: usize) {
    let now = CURRENT.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    CURRENT.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Counting wrapper around [`std::alloc::System`].
pub struct CountingAlloc;

// SAFETY: every method forwards the caller's layout verbatim to the
// system allocator and returns its result unchanged; the only extra work
// is relaxed atomic bookkeeping on the side, which cannot violate the
// GlobalAlloc contract (no allocation, no panic, no reentrancy).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as the trait method; delegated to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: layout is the caller's, forwarded untouched.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: same contract as the trait method; delegated to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout pair is the caller's, forwarded untouched.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    // SAFETY: same contract as the trait method; delegated to System.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: layout is the caller's, forwarded untouched.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: same contract as the trait method; delegated to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: ptr/layout/new_size are the caller's, forwarded untouched.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes right now (0 when the allocator is not installed).
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water heap bytes since process start or the last [`reset_peak`]
/// (0 when the allocator is not installed).
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Rebase the high-water mark to the current live size, so the next
/// [`peak_bytes`] reading is the peak *of the stage that follows*.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Whether a [`CountingAlloc`] is actually installed in this process
/// (any real program allocates long before user code runs, so a zero
/// peak means nothing was ever counted).
pub fn is_tracking() -> bool {
    PEAK.load(Ordering::Relaxed) > 0 || CURRENT.load(Ordering::Relaxed) > 0
}

/// Mirror the two accounting numbers into `registry`'s
/// `mem.current_bytes` / `mem.peak_bytes` gauges.
pub fn publish(registry: &Registry) {
    registry.gauge(names::MEM_CURRENT_BYTES).set(current_bytes() as f64);
    registry.gauge(names::MEM_PEAK_BYTES).set(peak_bytes() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary does not install the allocator, so the statics
    // are ours to drive directly; this is the only test touching them.
    #[test]
    fn bookkeeping_tracks_current_and_peak() {
        reset_peak();
        let base_current = current_bytes();
        on_alloc(1000);
        on_alloc(500);
        assert_eq!(current_bytes(), base_current + 1500);
        assert!(peak_bytes() >= base_current + 1500);
        on_dealloc(1200);
        assert_eq!(current_bytes(), base_current + 300);
        assert!(peak_bytes() >= base_current + 1500, "peak survives frees");
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
        assert!(is_tracking());
        let reg = Registry::new();
        publish(&reg);
        assert_eq!(reg.gauge(names::MEM_CURRENT_BYTES).get(), current_bytes() as f64);
        assert_eq!(reg.gauge(names::MEM_PEAK_BYTES).get(), peak_bytes() as f64);
        // Restore the statics for any future reader.
        on_dealloc(300);
        reset_peak();
    }
}
