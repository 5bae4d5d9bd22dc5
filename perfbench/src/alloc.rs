//! A counting global allocator for the benchmark binary only.
//!
//! It forwards every call to the system allocator. While counting is
//! switched on it also keeps the live heap and its high-water mark, so a
//! phase can read how many bytes it left allocated and how high the heap
//! rose inside it. Switched off, each call pays one relaxed load and a
//! branch; the traced run reports the on/off cost as `alloc.overhead`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

/// The system allocator plus optional live/peak byte counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
// Signed: blocks allocated before counting started may be freed after.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counters
// only read `layout.size()` and `new_size` and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts counting from an empty heap.
pub fn enable() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Bytes allocated and not yet freed since [`enable`].
pub fn live() -> i64 {
    LIVE.load(Relaxed)
}

/// Restarts the high-water mark at the current live heap, so the next
/// [`peak`] covers only what follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The highest live heap since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}
