//! Counting global allocator: live heap bytes and their peak.
//!
//! Peak resident memory (`VmHWM`) of the bulk workload swings by a third
//! between identical runs, because glibc's per-thread arenas keep freed
//! chunks and which pool worker serves each large request is left to the
//! scheduler. Live heap bytes do not depend on what the allocator keeps, so
//! the benchmark reports their peak. Each thread batches its changes and
//! publishes them once they pass [`FLUSH`] bytes, so the count costs a
//! thread-local add per allocation and is off by less than
//! `threads × FLUSH` bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Net bytes a thread may hold back before publishing them.
pub const FLUSH: i64 = 1024;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static PENDING: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // A const-initialised `Cell` needs no destructor and never allocates,
    // so this is safe to touch from inside the allocator.
    let publish = PENDING
        .try_with(|p| {
            let v = p.get() + delta;
            if v.abs() < FLUSH {
                p.set(v);
                None
            } else {
                p.set(0);
                Some(v)
            }
        })
        .unwrap_or(Some(delta));
    if let Some(v) = publish {
        let live = LIVE.fetch_add(v, Ordering::Relaxed) + v;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping that neither allocates nor touches
// the returned memory, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Live heap bytes published so far.
pub fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the peak from the current live count.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// The highest live count published since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_allocations_show_in_live_and_peak() {
        reset_peak();
        let before = live();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = live();
        drop(v);
        // Other test threads allocate too, so allow generous slack.
        assert!(
            during - before > (1 << 20) - 64 * FLUSH,
            "{before} -> {during}"
        );
        assert!(peak() >= during);
        assert!(live() < during);
    }
}
