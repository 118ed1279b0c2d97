//! Counting global allocator: every heap allocation in the process bumps a
//! per-thread slot, so `allocs_per_query` is a count, not an estimate.
//!
//! Slots are per thread so that two busy threads do not share a cache line
//! on every allocation; [`total`] sums them, [`current_thread`] reads the
//! caller's own slot (how `ingest_durable` separates the reader's
//! allocations from the writer's).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot(AtomicU64);

static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator can neither allocate nor run after thread teardown.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                // Threads beyond SLOTS share slots; counts stay exact, only
                // the per-thread split blurs (the benchmark runs < 16 threads).
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            slot.get()
        })
        .unwrap_or(0)
}

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the only added work is
// a relaxed atomic increment on a static, which cannot affect the returned
// memory or its layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS[my_slot()].0.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTS[my_slot()].0.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTS[my_slot()].0.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (alloc + alloc_zeroed + realloc calls) made by every thread so far.
pub fn total() -> u64 {
    COUNTS.iter().map(|slot| slot.0.load(Ordering::Relaxed)).sum()
}

/// Allocations made by the calling thread so far.
pub fn current_thread() -> u64 {
    COUNTS[my_slot()].0.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_counts_exactly_the_boxes_made() {
        let before = current_thread();
        let boxes: Vec<Box<u64>> = {
            let mut v = Vec::with_capacity(100); // 1 allocation
            for i in 0..100u64 {
                v.push(Box::new(i)); // 100 allocations, no growth
            }
            v
        };
        let delta = current_thread() - before;
        assert_eq!(std::hint::black_box(&boxes).len(), 100);
        assert_eq!(delta, 101);
    }

    #[test]
    fn other_threads_land_in_total_not_in_this_thread() {
        let mine = current_thread();
        let all = total();
        std::thread::spawn(|| {
            let v: Vec<Box<u8>> = (0..50).map(Box::new).collect();
            std::hint::black_box(v);
        })
        .join()
        .unwrap();
        assert!(total() - all >= 50);
        // Joining allocates nothing on this thread beyond the spawn
        // bookkeeping, which is far below the child's 50.
        assert!(current_thread() - mine < 50);
    }
}
