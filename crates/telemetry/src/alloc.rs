//! A counting global allocator for allocation gates.
//!
//! [`CountingAlloc`] forwards every request to [`System`] and counts it
//! on the calling thread: allocations, bytes requested, the largest
//! request, live bytes and their peak.  Per-thread counters let tests
//! that run in parallel measure their own calls without seeing each
//! other's traffic.  One process-wide count covers what the calling
//! thread cannot see, such as a daemon's threads serving a test client
//! ([`process_allocations`]).
//!
//! A test binary installs it once, then measures calls with [`tally`]:
//!
//! ```
//! use mdes_telemetry::alloc::{tally, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let (tally, buffer) = tally(|| vec![0u8; 100]);
//!     assert_eq!((tally.allocations, tally.bytes), (1, 100));
//!     drop(buffer);
//! }
//! ```
//!
//! Without the allocator installed, [`tally`] reads all zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counting allocator: [`System`] plus the counters of this module.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingAlloc;

/// One thread's running counters.
#[derive(Clone, Copy)]
struct Counters {
    allocations: u64,
    /// Bytes requested; a reallocation counts its new size.
    bytes: usize,
    largest: usize,
    /// Bytes allocated less bytes freed.  A block freed by another thread
    /// than its allocator skews both threads' figures, so measure calls
    /// that free on the thread that allocates.
    live: isize,
    peak: isize,
}

thread_local! {
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters {
            allocations: 0,
            bytes: 0,
            largest: 0,
            live: 0,
            peak: 0,
        })
    };
}

/// Allocations by every thread of this process.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation or reallocation requesting `size` bytes that
/// moves this thread's live bytes by `delta`.
fn allocated(size: usize, delta: isize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    update(|c| {
        c.allocations += 1;
        c.bytes += size;
        c.largest = c.largest.max(size);
        c.live += delta;
        c.peak = c.peak.max(c.live);
    });
}

fn update(f: impl FnOnce(&mut Counters)) {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = COUNTERS.try_with(|cell| {
        let mut counters = cell.get();
        f(&mut counters);
        cell.set(counters);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and the
// only extra work is updating a const-initialised thread-local cell and a
// static atomic, which neither allocates nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size(), layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size(), layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|c| c.live -= layout.size() as isize);
        System.dealloc(ptr, layout)
    }
}

/// What one call made its thread allocate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Allocations and reallocations.
    pub allocations: u64,
    /// Bytes they requested (a reallocation counts its new size).
    pub bytes: usize,
    /// The largest single request.
    pub largest: usize,
    /// The most bytes the call held live at once, above what the thread
    /// held when it began.
    pub peak: usize,
}

/// Runs `f` and returns what it allocated on this thread.  Calls nest:
/// an enclosing `tally` still sees the inner call's largest request and
/// peak.
pub fn tally<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    let outer = COUNTERS.with(|cell| {
        let outer = cell.get();
        cell.set(Counters {
            largest: 0,
            peak: outer.live,
            ..outer
        });
        outer
    });
    let out = f();
    let inner = COUNTERS.with(|cell| {
        let inner = cell.get();
        cell.set(Counters {
            largest: outer.largest.max(inner.largest),
            peak: outer.peak.max(inner.peak),
            ..inner
        });
        inner
    });
    let tally = Tally {
        allocations: inner.allocations - outer.allocations,
        bytes: inner.bytes - outer.bytes,
        largest: inner.largest,
        peak: (inner.peak - outer.live) as usize,
    };
    (tally, out)
}

/// Allocations made so far by every thread of this process.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn a_tally_counts_requests_bytes_and_the_largest() {
        let (tally, buffer) = tally(|| {
            let mut buffer: Vec<u64> = Vec::with_capacity(4);
            for i in 0..64 {
                buffer.push(i);
            }
            buffer
        });
        assert_eq!(buffer.capacity(), 64);
        // 32 bytes, then reallocations to 64, 128, 256 and 512 bytes.
        assert_eq!(tally.allocations, 5);
        assert_eq!(tally.bytes, 32 + 64 + 128 + 256 + 512);
        assert_eq!(tally.largest, 512);
        assert_eq!(tally.peak, 512);
    }

    #[test]
    fn peak_is_the_most_held_at_once_above_the_start() {
        let held = vec![0u8; 1000];
        let (tally, ()) = tally(|| {
            drop(vec![0u8; 300]);
            drop(vec![0u8; 200]);
        });
        assert_eq!((tally.allocations, tally.bytes, tally.peak), (2, 500, 300));
        drop(held);
    }

    #[test]
    fn an_enclosing_tally_sees_what_a_nested_one_measured() {
        let (outer, (inner, ())) = tally(|| {
            let (inner, ()) = tally(|| drop(vec![0u8; 4096]));
            drop(vec![0u8; 16]);
            (inner, ())
        });
        assert_eq!(
            (inner.allocations, inner.largest, inner.peak),
            (1, 4096, 4096)
        );
        assert_eq!(
            (outer.allocations, outer.largest, outer.peak),
            (2, 4096, 4096)
        );
    }

    #[test]
    fn other_threads_count_only_process_wide() {
        let before = process_allocations();
        let (tally, ()) = tally(|| {
            std::thread::scope(|s| {
                s.spawn(|| drop(vec![0u8; 64]));
            });
        });
        // Spawning allocates on this thread; the vector is the spawned
        // thread's alone.
        assert!(process_allocations() - before > tally.allocations);
    }
}
