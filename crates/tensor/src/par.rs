//! Scoped-thread parallel helpers used by the hot kernels.
//!
//! The VRDAG paper relies on GPU batching to parallelize row-wise adjacency
//! decoding; on CPU we parallelize with `std::thread::scope` over contiguous
//! index ranges. Everything here is allocation-light: workers receive a
//! `Range<usize>` and operate on shared slices.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Hard cap on worker threads — beyond this the kernels in this crate are
/// memory-bound and extra threads only add contention.
pub const MAX_THREADS: usize = 16;

/// Process-wide default thread count, resolved **once** from the environment.
///
/// `VRDAG_THREADS` is read a single time (first use) and latched in a
/// [`OnceLock`]; a mid-run change to the environment can therefore never
/// desync two halves of one job — every parallel section in the process
/// agrees on the same default for its whole lifetime.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("VRDAG_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
            .min(MAX_THREADS)
    })
}

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = no override.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads to use for parallel sections.
///
/// Controlled by the `VRDAG_THREADS` environment variable (read once per
/// process and latched, so a mid-run env change can never desync two halves
/// of one job); defaults to the machine's available
/// parallelism, capped at [`MAX_THREADS`]. A scoped [`with_threads`] override
/// on the calling thread takes precedence — this is how the serving layer
/// clamps intra-job parallelism per worker without touching global state.
pub fn num_threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o != 0 {
        o
    } else {
        default_threads()
    }
}

/// Run `f` with every parallel section *on this thread* using `n` worker
/// threads, restoring the previous setting afterwards (also on panic).
///
/// The override is thread-local and scoped, so concurrent jobs on different
/// worker threads can run with different clamps; the kernels' chunk-invariant
/// structure (per-index work, per-row serial float order, per-row RNG streams)
/// guarantees the thread count never changes output bytes.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Reset(usize);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _reset = Reset(OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREADS))));
    f()
}

/// Split `0..n` into at most `num_threads()` contiguous ranges and run `f` on
/// each range in parallel. Falls back to a single inline call when the work
/// is too small to amortize thread spawning.
///
/// `min_per_thread` is the smallest number of items worth giving a thread.
pub fn par_ranges<F>(n: usize, min_per_thread: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = num_threads().min(n / min_per_thread.max(1)).max(1);
    if threads <= 1 {
        f(0..n);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let f = &f;
            s.spawn(move || f(lo..hi));
        }
    });
}

/// Parallel map over `0..n` collecting results in order.
pub fn par_map_collect<T, F>(n: usize, min_per_thread: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    {
        let slots = SendPtr(out.as_mut_ptr());
        par_ranges(n, min_per_thread, |range| {
            let slots = &slots;
            for i in range {
                // SAFETY: ranges are disjoint, so each slot is written by
                // exactly one thread; the Vec outlives the scope.
                unsafe { *slots.0.add(i) = f(i) };
            }
        });
    }
    out
}

/// [`par_map_collect`] where each worker first makes a scratch state with
/// `init` and hands it to `f` for each of its indices, so a buffer is
/// allocated once per worker rather than once per index. `f` must not
/// let the result depend on what earlier indices left in the state: the
/// indices a worker gets depend on the thread count.
pub fn par_map_init_collect<S, T, I, F>(n: usize, min_per_thread: usize, init: I, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    {
        let slots = SendPtr(out.as_mut_ptr());
        par_ranges(n, min_per_thread, |range| {
            let slots = &slots;
            let mut state = init();
            for i in range {
                // SAFETY: as in `par_map_collect`.
                unsafe { *slots.0.add(i) = f(&mut state, i) };
            }
        });
    }
    out
}

/// Pointer wrapper asserting cross-thread transfer is safe for our
/// disjoint-range writes.
struct SendPtr<T>(*mut T);
// SAFETY: the one field is a pointer into a `Vec<T>` that outlives every
// worker; workers write (moving a `T` in and dropping the old one) only
// the disjoint slots of their own range, so sharing the pointer shares no
// element, and `T: Send` lets those values cross threads.
unsafe impl<T: Send> Sync for SendPtr<T> {}
// SAFETY: as for `Sync`: the pointer is only used for disjoint-slot
// writes of `T: Send` values while the `Vec` is alive.
unsafe impl<T: Send> Send for SendPtr<T> {}

/// Run `f` on disjoint mutable row chunks of `data` (row-major with `cols`
/// columns). The closure receives the starting row index and the chunk.
pub fn par_row_chunks_mut<F>(data: &mut [f32], cols: usize, min_rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(cols > 0, "cols must be positive");
    // A zero-sized second array: it allocates nothing.
    let mut rows = vec![(); data.len().div_ceil(cols)];
    par_zip_row_chunks_mut(data, cols, &mut rows, 1, min_rows, |row0, chunk, _| f(row0, chunk));
}

/// Run `f` on disjoint mutable row chunks of two arrays split at the same
/// rows: a row is `a_cols` items of `a` and `b_cols` items of `b`, and the
/// last row of each may be short. The closure receives the index of the
/// chunk's first row and the two chunks.
///
/// # Panics
/// Panics when a column count is 0 or the two arrays hold different
/// numbers of rows.
pub fn par_zip_row_chunks_mut<A, B, F>(
    a: &mut [A],
    a_cols: usize,
    b: &mut [B],
    b_cols: usize,
    min_rows: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(a_cols > 0 && b_cols > 0, "cols must be positive");
    let rows = a.len().div_ceil(a_cols);
    assert_eq!(rows, b.len().div_ceil(b_cols), "both arrays hold the same rows");
    let threads = num_threads().min(rows / min_rows.max(1)).max(1);
    if threads <= 1 {
        if rows > 0 {
            f(0, a, b);
        }
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|s| {
        let (mut a, mut b) = (a, b);
        for row0 in (0..rows).step_by(chunk_rows) {
            let (a_len, b_len) =
                ((chunk_rows * a_cols).min(a.len()), (chunk_rows * b_cols).min(b.len()));
            let (a_head, a_tail) = std::mem::take(&mut a).split_at_mut(a_len);
            let (b_head, b_tail) = std::mem::take(&mut b).split_at_mut(b_len);
            (a, b) = (a_tail, b_tail);
            let f = &f;
            s.spawn(move || f(row0, a_head, b_head));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn mid_run_env_change_cannot_desync_one_job() {
        // First half of the "job" resolves the thread count…
        let first = num_threads();
        // …then the environment changes mid-run (e.g. a test harness or a
        // config reload touches VRDAG_THREADS)…
        std::env::set_var("VRDAG_THREADS", format!("{}", (first % MAX_THREADS) + 1));
        // …and the second half must still agree, because the default is
        // latched once per process.
        let second = num_threads();
        std::env::remove_var("VRDAG_THREADS");
        assert_eq!(first, second, "VRDAG_THREADS change mid-run desynced parallel sections");
        assert_eq!(num_threads(), first);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let base = num_threads();
        let inside = with_threads(3, || {
            // Nested overrides stack and restore.
            let outer = num_threads();
            let inner = with_threads(5, num_threads);
            assert_eq!(inner, 5);
            assert_eq!(num_threads(), 3);
            outer
        });
        assert_eq!(inside, 3);
        assert_eq!(num_threads(), base, "override leaked past its scope");
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let base = num_threads();
        let result = std::panic::catch_unwind(|| with_threads(2, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(num_threads(), base, "override leaked past a panic");
    }

    #[test]
    fn with_threads_clamps_to_valid_range() {
        assert_eq!(with_threads(0, num_threads), 1);
        assert_eq!(with_threads(usize::MAX, num_threads), MAX_THREADS);
    }

    #[test]
    fn with_threads_is_thread_local() {
        with_threads(7, || {
            assert_eq!(num_threads(), 7);
            // A freshly spawned thread does not inherit the override.
            let other = std::thread::spawn(num_threads).join().unwrap();
            assert_eq!(other, default_threads());
        });
    }

    #[test]
    fn par_ranges_covers_all_indices() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        par_ranges(1000, 1, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_ranges_handles_empty() {
        par_ranges(0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let v = par_map_collect(257, 1, |i| i * 3);
        assert_eq!(v.len(), 257);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 3);
        }
    }

    #[test]
    fn par_map_init_collect_preserves_order_and_inits_once_per_worker() {
        for threads in [1, 3] {
            let inits = AtomicUsize::new(0);
            let v = with_threads(threads, || {
                par_map_init_collect(257, 1, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i * 3)
            });
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3), "threads={threads}");
            assert_eq!(inits.load(Ordering::Relaxed), threads, "threads={threads}");
        }
    }

    #[test]
    fn par_zip_row_chunks_mut_splits_both_arrays_at_the_same_rows() {
        // 9 rows: 3 items of `a` and 2 of `b` each, the last row of both
        // short.
        for threads in [1, 2, 4, 9] {
            let (mut a, mut b) = (vec![usize::MAX; 26], vec![usize::MAX; 17]);
            with_threads(threads, || {
                par_zip_row_chunks_mut(&mut a, 3, &mut b, 2, 1, |row0, a, b| {
                    assert_eq!(a.len().div_ceil(3), b.len().div_ceil(2), "threads={threads}");
                    a.iter_mut().enumerate().for_each(|(x, v)| *v = row0 + x / 3);
                    b.iter_mut().enumerate().for_each(|(x, v)| *v = row0 + x / 2);
                });
            });
            assert!(a.iter().enumerate().all(|(x, &v)| v == x / 3), "threads={threads}: {a:?}");
            assert!(b.iter().enumerate().all(|(x, &v)| v == x / 2), "threads={threads}: {b:?}");
        }
        par_zip_row_chunks_mut(&mut [0u8; 0], 1, &mut [0u8; 0], 1, 1, |_, _, _| {
            panic!("must not be called")
        });
    }

    #[test]
    fn par_row_chunks_mut_writes_disjoint_rows() {
        let mut data = vec![0.0f32; 64 * 7];
        par_row_chunks_mut(&mut data, 7, 1, |row0, chunk| {
            for (r, row) in chunk.chunks_exact_mut(7).enumerate() {
                for x in row.iter_mut() {
                    *x = (row0 + r) as f32;
                }
            }
        });
        for (r, row) in data.chunks_exact(7).enumerate() {
            assert!(row.iter().all(|&x| x == r as f32));
        }
    }
}
