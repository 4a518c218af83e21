//! This test binary's counting allocator: allocation counts, requested
//! bytes and the live-bytes high-water, kept per thread so tests stay
//! independent under the parallel test runner. No wall clock anywhere.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// One allocation of `size` bytes (a reallocation counts as one of the
/// new size that releases the old: both buffers exist while it copies).
fn note_alloc(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = REQUESTED.try_with(|n| n.set(n.get() + size as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn note_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialized thread-local `Cell`s without destructors, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_free(layout.size());
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What a closure did to the heap, on this thread.
#[derive(Debug, Clone, Copy)]
pub struct HeapUse {
    /// Allocations and reallocations performed.
    pub allocations: u64,
    /// Bytes requested by them.
    pub requested: u64,
    /// Most bytes live at once, above what was live at the start.
    pub peak_live: i64,
    /// Bytes live at the end, above what was live at the start.
    pub retained: i64,
}

/// Runs `f` and reports its heap use on this thread.
pub fn heap_use_of<R>(f: impl FnOnce() -> R) -> (HeapUse, R) {
    let (allocations, requested, live) = (
        ALLOCATIONS.with(Cell::get),
        REQUESTED.with(Cell::get),
        LIVE.with(Cell::get),
    );
    PEAK.with(|peak| peak.set(live));
    let result = f();
    let used = HeapUse {
        allocations: ALLOCATIONS.with(Cell::get) - allocations,
        requested: REQUESTED.with(Cell::get) - requested,
        peak_live: PEAK.with(Cell::get) - live,
        retained: LIVE.with(Cell::get) - live,
    };
    (used, result)
}

/// Bytes live on this thread right now.
pub fn live_now() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocations (and reallocations) `f` performs on this thread.
pub fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (used, result) = heap_use_of(f);
    (used.allocations, result)
}
