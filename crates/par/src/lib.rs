//! Deterministic scoped-thread fan-out for the measurement layers.
//!
//! Every measurement loop in this workspace — barrier repetitions,
//! microbenchmark process pairs, per-p figure sweeps — is embarrassingly
//! parallel *and* bit-for-bit reproducible, because each work item derives
//! its own RNG stream from `(seed, item index)` rather than sharing a
//! sequential generator. That makes the parallel schedule irrelevant to
//! the numbers: [`par_map_indexed`] may execute items in any order on any
//! number of threads, yet the returned vector is always identical to what
//! a serial `(0..n).map(f).collect()` produces.
//!
//! The implementation is a work-stealing loop over [`std::thread::scope`]:
//! no thread pool to initialize, no external dependency (the build
//! environment has no registry access, so rayon is not an option), and no
//! unsafe code — each worker collects `(index, value)` pairs privately and
//! the results are scattered back into input order after the join
//! ([`par_chunks_mut_with`] instead hands workers disjoint chunks of the
//! caller's output to write in place).
//!
//! The fan-out width is a process-wide setting ([`set_threads`] /
//! [`threads`]) so that deep call chains (an experiment sweep calling the
//! microbenchmark calling the barrier executor) need not thread a
//! configuration value through every signature; nested `par_map_indexed`
//! calls simply run their inner items on the calling worker.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide fan-out width; 0 means "not set, use the hardware".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] scopes so concurrent callers (e.g. tests
/// pinning different widths) cannot race on the global setting.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Set when a worker is already inside a fan-out, so nested calls stay
/// serial instead of oversubscribing.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide fan-out width. `None` (the default) means one
/// worker per available hardware thread; `Some(1)` forces serial
/// execution. Results are identical either way — this knob trades wall
/// clock for cores, never numbers.
pub fn set_threads(n: Option<usize>) {
    THREADS.store(n.map_or(0, |n| n.max(1)), Ordering::SeqCst);
}

/// Runs `f` with the fan-out width pinned to `n`, restoring the previous
/// setting afterwards (also on panic). Scopes are serialized process-wide,
/// so concurrent callers — tests comparing serial against parallel runs,
/// say — cannot clobber each other's width mid-measurement.
pub fn with_threads<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pin_width(n, f)
}

/// [`with_threads`] for a caller that already holds [`WIDTH_LOCK`].
fn pin_width<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(THREADS.load(Ordering::SeqCst));
    set_threads(n);
    f()
}

/// The fan-out width [`par_map_indexed`] will use right now.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `0..n` on up to [`threads`] scoped workers, returning
/// results in index order.
///
/// Determinism contract: `f` must derive any randomness it needs from its
/// index alone (e.g. `derive_rng(seed, k)`), never from shared mutable
/// state. Under that contract the output is bit-identical to the serial
/// `(0..n).map(f).collect()` for every thread count — an equality the
/// workspace enforces with tests at each ported call site.
///
/// Panics in `f` propagate to the caller (the scope re-raises them).
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_indexed_with(n, || (), |(), k| f(k))
}

/// [`par_map_indexed`] with worker-local scratch state: `init` runs once
/// per worker (once total on the serial path) and the resulting value is
/// handed mutably to every item that worker processes.
///
/// This is the allocation-amortization hook of the measurement layers: a
/// barrier repetition needs network-queue and stage-buffer scratch, and
/// creating it per item would put hundreds of heap allocations on the hot
/// path. With worker-local state, scratch is built O(workers) times and
/// reused across that worker's whole share of the items.
///
/// The determinism contract of [`par_map_indexed`] extends to the state:
/// `f` must leave no information in the scratch that influences a later
/// item's result (reset-or-overwrite before use), so results stay
/// bit-identical to a serial run at every thread count.
pub fn par_map_indexed_with<S, U, I, F>(n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let workers = threads().min(n);
    // Serial fast path: no items, one worker, or already inside a fan-out
    // (nested parallelism would oversubscribe without speeding anything
    // up — the outer level owns the cores).
    if workers <= 1 || ACTIVE.swap(true, Ordering::SeqCst) {
        if n == 0 {
            return Vec::new();
        }
        let mut state = init();
        return (0..n).map(|k| f(&mut state, k)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts = fan_out(workers, &init, |state| {
        let mut local: Vec<(usize, U)> = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            local.push((k, f(state, k)));
        }
        local
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (k, v) in parts.into_iter().flatten() {
        debug_assert!(slots[k].is_none(), "index {k} produced twice");
        slots[k] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

/// Hands `out` to `f` in consecutive chunks of `chunk` elements (the
/// last may be shorter) on up to [`threads`] workers, each with its own
/// `init()` state: `f(state, b, c)` gets chunk `b` as `c` and writes its
/// results there.
///
/// [`par_map_indexed_with`] for items whose result is a few values of a
/// flat output: nothing is allocated per item and nothing is gathered
/// afterwards, and the serial path allocates nothing at all. The same
/// determinism contract holds — a chunk's contents depend on `b` alone.
pub fn par_chunks_mut_with<T, S, I, F>(out: &mut [T], chunk: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(chunk >= 1, "chunks hold at least one element");
    let workers = threads().min(out.len().div_ceil(chunk));
    if workers <= 1 || ACTIVE.swap(true, Ordering::SeqCst) {
        if out.is_empty() {
            return;
        }
        let mut state = init();
        for (b, c) in out.chunks_mut(chunk).enumerate() {
            f(&mut state, b, c);
        }
        return;
    }
    // Chunks outlive the lock that hands them out: a worker holds it only
    // while taking its next one.
    let queue = Mutex::new(out.chunks_mut(chunk).enumerate());
    fan_out(workers, &init, |state| loop {
        let next = queue
            .lock()
            .expect("no worker panics while taking a chunk")
            .next();
        match next {
            Some((b, c)) => f(state, b, c),
            None => break,
        }
    });
}

/// Runs `work` on `workers` scoped threads, each over its own `init()`
/// state, and returns what they returned. The caller has set [`ACTIVE`];
/// it is cleared here, also when a worker's panic is re-raised.
fn fan_out<S, R: Send>(
    workers: usize,
    init: &(impl Fn() -> S + Sync),
    work: impl Fn(&mut S) -> R + Sync,
) -> Vec<R> {
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| work(&mut init())))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    ACTIVE.store(false, Ordering::SeqCst);
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Maps `f` over a slice on up to [`threads`] workers, preserving order —
/// sugar over [`par_map_indexed`] for sweeping a list of measurement
/// points.
pub fn par_map_slice<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_indexed(items.len(), |k| f(k, &items[k]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_index_order() {
        for &t in &[1usize, 2, 3, 8] {
            let got = with_threads(Some(t), || par_map_indexed(100, |k| k * k));
            let want: Vec<usize> = (0..100).map(|k| k * k).collect();
            assert_eq!(got, want, "threads={t}");
        }
    }

    /// Worker-local scratch: results match the stateless map at every
    /// thread count when the state is overwritten before each use, and
    /// the number of `init` calls never exceeds the worker count.
    #[test]
    fn worker_local_state_is_reused_not_shared() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        for &t in &[1usize, 2, 4, 16] {
            INITS.store(0, Ordering::SeqCst);
            let got = with_threads(Some(t), || {
                par_map_indexed_with(
                    64,
                    || {
                        INITS.fetch_add(1, Ordering::SeqCst);
                        vec![0u64; 8]
                    },
                    |scratch, k| {
                        // Overwrite-before-use, as the contract requires.
                        for (i, slot) in scratch.iter_mut().enumerate() {
                            *slot = (k * 31 + i) as u64;
                        }
                        scratch.iter().sum::<u64>()
                    },
                )
            });
            let want: Vec<u64> = (0..64u64)
                .map(|k| (0..8u64).map(|i| k * 31 + i).sum())
                .collect();
            assert_eq!(got, want, "threads={t}");
            let inits = INITS.load(Ordering::SeqCst);
            assert!(inits <= t.min(64), "threads={t}: {inits} inits");
            assert!(inits >= 1, "threads={t}");
        }
    }

    /// Chunked output: every chunk is written once, by index, whatever
    /// the thread count and whether or not the chunk size divides the
    /// length; workers reuse their state.
    #[test]
    fn chunks_are_filled_in_place_by_index() {
        for &t in &[1usize, 2, 5] {
            for len in [0usize, 1, 8, 61] {
                let mut out = vec![0usize; len];
                with_threads(Some(t), || {
                    par_chunks_mut_with(
                        &mut out,
                        8,
                        || 0usize,
                        |seen, b, c| {
                            *seen += 1;
                            assert!(c.len() == 8 || b == len / 8);
                            for (i, slot) in c.iter_mut().enumerate() {
                                *slot = 100 * b + i + 1;
                            }
                        },
                    )
                });
                let want: Vec<usize> = (0..len).map(|k| 100 * (k / 8) + k % 8 + 1).collect();
                assert_eq!(out, want, "threads={t} len={len}");
            }
        }
    }

    #[test]
    fn chunk_worker_panic_propagates_and_fan_out_recovers() {
        let r = std::panic::catch_unwind(|| {
            with_threads(Some(2), || {
                let mut out = vec![0u8; 32];
                par_chunks_mut_with(&mut out, 4, || (), |(), b, _| assert_ne!(b, 5, "boom"));
            })
        });
        assert!(r.is_err());
        // The fan-out flag was cleared: the next call goes wide again.
        let got = with_threads(Some(2), || par_map_indexed(64, |k| k));
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn with_state_empty_input_skips_init() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let got: Vec<u32> = par_map_indexed_with(
            0,
            || {
                INITS.fetch_add(1, Ordering::SeqCst);
            },
            |(), _| 0,
        );
        assert!(got.is_empty());
        assert_eq!(INITS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = with_threads(Some(4), || par_map_indexed(0, |_| unreachable!()));
        assert!(got.is_empty());
    }

    #[test]
    fn slice_variant_sees_items_and_indices() {
        let items = vec!["a", "b", "c"];
        let got = with_threads(Some(2), || par_map_slice(&items, |k, s| format!("{k}:{s}")));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn parallel_equals_serial_for_derived_rng_work() {
        use rand::Rng;
        let work = |k: usize| {
            let mut rng = hpm_stats::rng::derive_rng(42, k as u64);
            (0..32)
                .map(|_| rng.gen::<u64>())
                .fold(0u64, u64::wrapping_add)
        };
        let serial: Vec<u64> = (0..64).map(work).collect();
        for &t in &[2usize, 4, 7] {
            let par = with_threads(Some(t), || par_map_indexed(64, work));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        let got = with_threads(Some(4), || {
            par_map_indexed(4, |i| par_map_indexed(4, move |j| i * 10 + j))
        });
        let want: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        with_threads(Some(5), || {
            par_map_indexed(hits.len(), |k| hits[k].fetch_add(1, Ordering::SeqCst))
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    // The two tests below compare the width before and after a scope, so
    // they hold the lock themselves: another test's scope in between
    // would change what "before" means.
    #[test]
    fn threads_setting_round_trips() {
        let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = THREADS.load(Ordering::SeqCst);
        pin_width(Some(3), || assert_eq!(threads(), 3));
        assert_eq!(THREADS.load(Ordering::SeqCst), before, "width restored");
        assert!(threads() >= 1);
    }

    #[test]
    fn panic_propagates_and_width_is_restored() {
        let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = THREADS.load(Ordering::SeqCst);
        let r = std::panic::catch_unwind(|| {
            pin_width(Some(2), || {
                par_map_indexed(8, |k| {
                    if k == 5 {
                        panic!("boom");
                    }
                    k
                })
            })
        });
        assert!(r.is_err());
        assert_eq!(THREADS.load(Ordering::SeqCst), before, "width restored");
    }
}
