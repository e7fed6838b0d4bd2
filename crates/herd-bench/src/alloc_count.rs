//! A counting global allocator for allocation-freedom smoke tests.
//!
//! The arena-backed relation engine's contract is *zero heap allocations
//! per candidate in the steady state*; benchmarks can only show the
//! symptom (throughput), so `tests/alloc_smoke.rs` pins the cause by
//! installing [`CountingAllocator`] as the global allocator and reading
//! [`allocation_count`] around the hot loop. Behind the `alloc-count`
//! feature because a counting allocator taxes every build that links it.
//!
//! The count is per thread: a test measures only the allocations of the
//! code it runs, never those of the test harness's other threads.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events on this thread. Const-initialised with no
    /// destructor: no lazy set-up and no teardown, so touching it from
    /// inside the allocator can neither allocate nor fail.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// The system allocator with a per-thread allocation-event counter in
/// front.
///
/// Counts `alloc`, `alloc_zeroed` and `realloc` calls (frees are not
/// counted: the contract under test is "no new memory per candidate").
/// Install in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: herd_bench::alloc_count::CountingAllocator =
///     herd_bench::alloc_count::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: delegates verbatim to `System`, which upholds the GlobalAlloc
// contract; the counter is a side effect with no aliasing implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events on the calling thread since it started (monotone).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
