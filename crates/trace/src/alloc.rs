//! A counting `GlobalAlloc` wrapper: per-thread byte/call accounting for
//! span attribution.
//!
//! [`CountingAlloc`] delegates every operation to [`std::alloc::System`]
//! and, on each successful allocation, bumps two const-initialized
//! thread-local cells (bytes, calls) plus — only while a sink is
//! installed — the global [`Counter::AllocBytes`]/[`Counter::Allocs`]
//! counters. Deallocation does not affect the span counters: spans
//! attribute *allocation pressure* (what was requested while the span
//! was open), not live heap size, which is the quantity flamegraph
//! tooling folds. Live heap size is available separately through
//! scoped high-water-mark windows ([`Watermark`]), which the scale
//! benchmarks open around a measured region to report its peak
//! live-heap delta.
//!
//! Install it from a *binary-adjacent* crate root (the `disq` facade and
//! `disq-bench` both do):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: disq_trace::CountingAlloc = disq_trace::CountingAlloc;
//! ```
//!
//! Only one crate in a link graph may declare `#[global_allocator]`,
//! which is why the declaration lives with the leaf crates rather than
//! here. With no sink installed the overhead per allocation is two
//! thread-local adds and one relaxed atomic load — and the counting is
//! exactly deterministic, so two identical untraced runs see identical
//! per-thread totals (proved by `tests/trace_observability.rs`).
//!
//! [`Counter::AllocBytes`]: crate::Counter::AllocBytes
//! [`Counter::Allocs`]: crate::Counter::Allocs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Watermark windows open across all threads: the allocator's gate, so
/// the default per-allocation cost stays one relaxed load.
static OPEN_WINDOWS: AtomicUsize = AtomicUsize::new(0);

/// Most watermark windows one thread may hold open at once.
const MAX_WINDOWS: usize = 8;

/// One thread's watermark state. Plain `Cell`s of integers,
/// const-initialized and without a destructor, so the allocator can
/// touch them (the same constraint as the span counters).
struct Windows {
    /// Bit `i` set: slot `i` belongs to an open window.
    open: Cell<u8>,
    /// Live bytes this thread allocated minus bytes it freed, counted
    /// only while at least one of its windows is open. Frees of older
    /// memory drive it down, below zero if need be.
    live: Cell<i64>,
    /// Per slot: the highest `live` seen while the slot's window was
    /// open.
    high: [Cell<i64>; MAX_WINDOWS],
}

impl Windows {
    const fn new() -> Windows {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: Cell<i64> = Cell::new(0);
        Windows {
            open: Cell::new(0),
            live: Cell::new(0),
            high: [ZERO; MAX_WINDOWS],
        }
    }

    fn grow(&self, bytes: u64) {
        let mut open = self.open.get();
        if open == 0 {
            return;
        }
        let live = self.live.get().wrapping_add(bytes as i64);
        self.live.set(live);
        while open != 0 {
            let high = &self.high[open.trailing_zeros() as usize];
            high.set(high.get().max(live));
            open &= open - 1;
        }
    }

    fn shrink(&self, bytes: u64) {
        if self.open.get() != 0 {
            self.live.set(self.live.get().wrapping_sub(bytes as i64));
        }
    }
}

thread_local! {
    static WINDOWS: Windows = const { Windows::new() };
}

/// A scoped allocation high-water-mark window: the peak live-heap delta
/// of the allocations and frees made on the opening thread while the
/// window is open. Requires [`CountingAlloc`] as the global allocator
/// (the peak stays 0 otherwise).
///
/// Each window keeps its own baseline and peak, so windows nest and
/// overlap freely: opening or closing one never resets another, and a
/// window on one thread is blind to the allocator traffic of every
/// other thread — concurrent users of the instrument cannot disturb
/// each other. The flip side is that work the measured region hands to
/// other threads is not counted; the scale benchmarks measure a
/// single-threaded region. `!Send`, like a span guard: the window lives
/// on the thread that opened it. At most 8 windows may be open on one
/// thread at a time.
#[must_use = "the window closes when it drops"]
pub struct Watermark {
    slot: usize,
    base: i64,
    _not_send: PhantomData<*const ()>,
}

impl Watermark {
    /// Opens a window on this thread with a peak of 0.
    ///
    /// # Panics
    ///
    /// If this thread already holds 8 open windows.
    pub fn open() -> Watermark {
        WINDOWS.with(|w| {
            let open = w.open.get();
            let slot = open.trailing_ones() as usize;
            assert!(
                slot < MAX_WINDOWS,
                "more than {MAX_WINDOWS} watermark windows open on one thread"
            );
            let base = w.live.get();
            w.high[slot].set(base);
            w.open.set(open | 1 << slot);
            OPEN_WINDOWS.fetch_add(1, Ordering::Relaxed);
            Watermark {
                slot,
                base,
                _not_send: PhantomData,
            }
        })
    }

    /// The peak live-byte delta observed since [`Watermark::open`] —
    /// the most memory the region held at once beyond what was live
    /// when it opened.
    pub fn peak_bytes(&self) -> u64 {
        let high = WINDOWS.with(|w| w.high[self.slot].get());
        u64::try_from(high.wrapping_sub(self.base)).unwrap_or(0)
    }
}

impl Drop for Watermark {
    fn drop(&mut self) {
        WINDOWS.with(|w| w.open.set(w.open.get() & !(1 << self.slot)));
        OPEN_WINDOWS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[inline]
fn watermark_grow(bytes: u64) {
    if OPEN_WINDOWS.load(Ordering::Relaxed) != 0 {
        let _ = WINDOWS.try_with(|w| w.grow(bytes));
    }
}

#[inline]
fn watermark_shrink(bytes: u64) {
    if OPEN_WINDOWS.load(Ordering::Relaxed) != 0 {
        let _ = WINDOWS.try_with(|w| w.shrink(bytes));
    }
}

/// A [`GlobalAlloc`] that counts requested bytes and calls per thread
/// (and globally while tracing is active) before delegating to
/// [`System`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the added accounting touches only
// const-initialized thread-local `Cell`s and relaxed atomics, neither of
// which can allocate, unwind, or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            crate::span::record_alloc(layout.size() as u64);
            watermark_grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            crate::span::record_alloc(layout.size() as u64);
            watermark_grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        watermark_shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Count the grown request like a fresh allocation of the new
            // size: realloc is how Vec growth reaches the allocator, and
            // ignoring it would hide the dominant allocation pattern.
            crate::span::record_alloc(new_size as u64);
            watermark_shrink(layout.size() as u64);
            watermark_grow(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the wrapper directly (it is NOT the global
    // allocator of this test binary): correctness of delegation plus the
    // counting side effect on the thread-local cells. Every cell they
    // read is per-thread, and each test runs on its own thread.

    #[test]
    fn alloc_roundtrip_counts_bytes_and_calls() {
        let a = CountingAlloc;
        let layout = Layout::from_size_align(64, 8).unwrap();
        let bytes0 = crate::span::thread_alloc_bytes();
        let allocs0 = crate::span::thread_allocs();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            p.write_bytes(0xAB, 64);
            a.dealloc(p, layout);
        }
        assert_eq!(crate::span::thread_alloc_bytes() - bytes0, 64);
        assert_eq!(crate::span::thread_allocs() - allocs0, 1);
    }

    #[test]
    fn alloc_zeroed_zeroes_and_counts() {
        let a = CountingAlloc;
        let layout = Layout::from_size_align(32, 8).unwrap();
        let allocs0 = crate::span::thread_allocs();
        unsafe {
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            for i in 0..32 {
                assert_eq!(*p.add(i), 0);
            }
            a.dealloc(p, layout);
        }
        assert_eq!(crate::span::thread_allocs() - allocs0, 1);
    }

    // Watermark tests drive the wrapper directly so they are
    // deterministic regardless of what the test binary's real global
    // allocator does.
    fn live() -> i64 {
        WINDOWS.with(|w| w.live.get())
    }

    #[test]
    fn watermark_tracks_peak_live_bytes() {
        let a = CountingAlloc;
        let l64 = Layout::from_size_align(64, 8).unwrap();
        let l32 = Layout::from_size_align(32, 8).unwrap();

        // No window open on this thread: allocator calls leave the
        // watermark state untouched.
        let live0 = live();
        unsafe {
            let p = a.alloc(l64);
            a.dealloc(p, l64);
        }
        assert_eq!(live(), live0);

        let w = Watermark::open();
        assert_eq!(w.peak_bytes(), 0);
        unsafe {
            // +64 → peak 64; +32 → peak 96; free 64 → live 32;
            // +64 → live 96 (ties peak, no raise needed).
            let p = a.alloc(l64);
            let q = a.alloc(l32);
            assert_eq!(w.peak_bytes(), 96);
            a.dealloc(p, l64);
            let r = a.alloc(l64);
            assert_eq!(w.peak_bytes(), 96);
            a.dealloc(q, l32);
            a.dealloc(r, l64);
        }
        assert_eq!(w.peak_bytes(), 96);
        drop(w);

        // A fresh window starts at 0; realloc counts the size delta.
        let w = Watermark::open();
        unsafe {
            let p = a.alloc(l32);
            let q = a.realloc(p, l32, 48);
            assert_eq!(w.peak_bytes(), 48);
            a.dealloc(q, Layout::from_size_align(48, 8).unwrap());
        }
        assert_eq!(w.peak_bytes(), 48);
        drop(w);

        // Frees of pre-window memory drive the delta negative without
        // corrupting the peak of later positive excursions.
        let pre = unsafe { a.alloc(l64) };
        let w = Watermark::open();
        unsafe {
            a.dealloc(pre, l64); // live −64
            let p = a.alloc(l32); // live −32: still no positive peak
            assert_eq!(w.peak_bytes(), 0);
            let q = a.alloc(l64);
            let r = a.alloc(l64); // live +96
            assert_eq!(w.peak_bytes(), 96);
            a.dealloc(p, l32);
            a.dealloc(q, l64);
            a.dealloc(r, l64);
        }
        assert_eq!(w.peak_bytes(), 96);
    }

    #[test]
    fn overlapping_windows_keep_their_own_peaks() {
        let a = CountingAlloc;
        let l64 = Layout::from_size_align(64, 8).unwrap();
        let l32 = Layout::from_size_align(32, 8).unwrap();
        unsafe {
            let outer = Watermark::open();
            let p = a.alloc(l64); // outer 64
            let inner = Watermark::open();
            assert_eq!(inner.peak_bytes(), 0, "opening a window resets only itself");
            let q = a.alloc(l32); // outer 96, inner 32
            a.dealloc(p, l64); // inner live −32
            let r = a.alloc(l64); // outer live 96 (ties), inner live +32
            assert_eq!((outer.peak_bytes(), inner.peak_bytes()), (96, 32));
            // A third window opened and closed inside both disturbs
            // neither.
            let third = Watermark::open();
            let s = a.alloc(l64); // outer 160, inner 96, third 64
            a.dealloc(s, l64);
            assert_eq!(third.peak_bytes(), 64);
            drop(third);
            // Closing the outer window first leaves the inner one
            // running with its own baseline.
            assert_eq!(outer.peak_bytes(), 160);
            drop(outer);
            let t = a.alloc(l64); // inner live +96 (ties)
            let u = a.alloc(l32); // inner live +128
            assert_eq!(inner.peak_bytes(), 128);
            drop(inner);
            a.dealloc(q, l32);
            a.dealloc(r, l64);
            a.dealloc(t, l64);
            a.dealloc(u, l32);
        }
    }

    #[test]
    fn windows_on_other_threads_do_not_disturb_each_other() {
        let a = CountingAlloc;
        let l = Layout::from_size_align(1024, 8).unwrap();
        // The other thread churns windows and allocations throughout
        // this thread's measurement.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churn = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let w = Watermark::open();
                    unsafe {
                        let p = a.alloc(l);
                        a.dealloc(p, l);
                    }
                    assert_eq!(w.peak_bytes(), 1024);
                }
            })
        };
        let w = Watermark::open();
        let mut held = Vec::new();
        for _ in 0..200 {
            held.push(unsafe { a.alloc(l) });
            std::thread::yield_now();
        }
        assert_eq!(w.peak_bytes(), 200 * 1024);
        for p in held {
            unsafe { a.dealloc(p, l) };
        }
        assert_eq!(w.peak_bytes(), 200 * 1024);
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();
    }

    #[test]
    fn realloc_counts_new_size() {
        let a = CountingAlloc;
        let layout = Layout::from_size_align(16, 8).unwrap();
        let bytes0 = crate::span::thread_alloc_bytes();
        unsafe {
            let p = a.alloc(layout);
            let q = a.realloc(p, layout, 48);
            assert!(!q.is_null());
            a.dealloc(q, Layout::from_size_align(48, 8).unwrap());
        }
        assert_eq!(crate::span::thread_alloc_bytes() - bytes0, 16 + 48);
    }
}
