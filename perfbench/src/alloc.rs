//! A switchable counting allocator.
//!
//! Counting is off by default, so the untimed and end-to-end paths pay
//! one relaxed load per allocation and share no written cache line. The
//! traced run turns it on only while a single thread measures the
//! `core` and `calls` rungs; counts land in a thread-local cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and destructor-free: touching it from inside the
    // allocator neither allocates nor registers teardown.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

#[inline]
fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method defers to `System` with the caller's arguments;
// the only addition is a relaxed load and a thread-local counter bump,
// neither of which allocates, unwinds, or touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn counting on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations the calling thread made while counting was on.
pub fn thread_count() -> u64 {
    COUNT.with(Cell::get)
}
