//! Deterministic persistent-worker-pool execution for the `datatrans`
//! workspace.
//!
//! Every hot loop in the reproduction — GA population fitness, the serving
//! engine's batch of requests, the experiment harnesses' (fold ×
//! application) grids, bootstrap resampling — is a *data-parallel map over
//! an index range* whose per-item results depend only on the item index,
//! never on evaluation order. This crate exploits that shape: [`Parallelism::par_map`]
//! and [`Parallelism::par_map_indexed`] fan the range out across a
//! process-wide pool of long-lived worker threads (the private `pool`
//! module) and merge the results back **in input order**, so the output
//! is bitwise-identical to the sequential loop at any thread count. The
//! golden-snapshot and naive-reference equivalence tests therefore hold
//! unchanged with parallelism enabled.
//!
//! Workers self-schedule off a shared atomic cursor (one item at a time),
//! which load-balances heterogeneous items — e.g. processor-family folds of
//! very different sizes — without any effect on the merged result.
//!
//! # Per-worker scratch
//!
//! [`Parallelism::par_map_with`] and
//! [`Parallelism::par_map_indexed_with`] additionally hand every item a
//! `&mut S` scratch value created **once per worker per call** by an
//! `init` closure. This is the `Sync` scratch-buffer story for hot loops
//! whose per-item work wants preallocated buffers (GA-kNN's distance
//! buffers): the map closure itself stays `Fn + Sync`, while each worker
//! mutates only its private scratch. Because the scratch must never
//! influence the *value* computed for an item (only where intermediates
//! are stored, or how fast a lookup resolves), results remain
//! bitwise-identical at any thread count; the sequential fallback reuses
//! a single scratch for the whole loop.
//!
//! # Choosing a thread count
//!
//! [`Parallelism`] is a small config value carried by the structs that own
//! hot loops ([`GaConfig`], the experiment harness configs):
//!
//! * [`Parallelism::Sequential`] — run inline on the caller, spawn nothing;
//! * [`Parallelism::Threads`]`(n)` — exactly `n` workers;
//! * [`Parallelism::Auto`] (the default) — the `DATATRANS_THREADS`
//!   environment variable if set, otherwise
//!   [`std::thread::available_parallelism`].
//!
//! Below a per-call work threshold (`min_work`) every variant falls back to
//! the inline sequential loop, so tiny inputs never pay dispatch latency.
//!
//! # Pool lifecycle
//!
//! Worker threads are spawned lazily on first use and parked between calls;
//! a call checks out exactly the workers it needs and returns them when it
//! completes, so steady-state parallel maps pay two channel messages per
//! worker instead of a thread spawn + join. The pool grows to the
//! high-water mark of concurrent demand (nested calls spawn rather than
//! wait, so they can never deadlock) and lives until process exit. A panic
//! inside a map poisons only that call: the payload is re-raised on the
//! caller after all of the call's workers finish, and the workers return to
//! the free list.
//!
//! [`GaConfig`]: https://docs.rs/datatrans-ml
//!
//! # Memoizing shared builds
//!
//! [`Memo`] is the workspace's one memo primitive: a bounded map from keys
//! to built values, least recently used evicted first, shared by the
//! threads of a parallel map. Its lock is held only to find or insert a
//! key's cell and the build runs outside it, so concurrent callers of one
//! key share one build while distinct keys build in parallel. A build
//! that panics leaves no entry. A backing's bucket-index memo and the
//! result cache's memo of fitted MLPᵀ networks are two instances of it.
//! The memoized value must be a pure function of its key, so whichever
//! thread builds it, and when, never shows in a result.
//!
//! # Example
//!
//! ```
//! use datatrans_parallel::Parallelism;
//!
//! let squares = Parallelism::Threads(4).par_map_indexed(1, 100, |i| i * i);
//! assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

// The pool is the one place the workspace needs `unsafe`: long-lived
// workers borrowing a caller's stack closure. The module documents the
// invariant that makes it sound.
#[allow(unsafe_code)]
mod pool;

mod memo;

pub use memo::Memo;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the [`Parallelism::Auto`] thread count.
pub const THREADS_ENV: &str = "DATATRANS_THREADS";

/// How many worker threads a parallel map may use.
///
/// `Parallelism` is `Copy` and cheap to embed in config structs; the
/// environment lookup for [`Parallelism::Auto`] happens per call, not at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run inline on the calling thread; never spawn workers.
    Sequential,
    /// Use exactly this many worker threads (`0` is treated as `1`).
    Threads(usize),
    /// `DATATRANS_THREADS` if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of worker threads this configuration resolves to.
    ///
    /// Always at least 1. A result of 1 means the parallel maps run inline
    /// without spawning.
    pub fn thread_count(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => env_thread_count().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            }),
        }
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// The output is bitwise-identical to
    /// `(0..n).map(f).collect::<Vec<_>>()` at any thread count: workers
    /// self-schedule individual indices and the merged results are sorted
    /// back into input order. Falls back to the inline sequential loop when
    /// `n < min_work` or the resolved thread count is 1.
    ///
    /// # Panics
    ///
    /// If `f` panics on a worker thread, the panic payload is re-raised on
    /// the calling thread after all workers have stopped.
    pub fn par_map_indexed<U, F>(&self, min_work: usize, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let threads = self.thread_count().min(n);
        if threads <= 1 || n < min_work {
            return (0..n).map(f).collect();
        }
        run_workers(threads, n, &|| (), &|_scratch: &mut (), i| f(i))
    }

    /// Maps `f` over a slice, returning results in input order.
    ///
    /// Same ordering and fallback guarantees as
    /// [`Parallelism::par_map_indexed`].
    ///
    /// # Panics
    ///
    /// If `f` panics on a worker thread, the panic payload is re-raised on
    /// the calling thread after all workers have stopped.
    pub fn par_map<T, U, F>(&self, min_work: usize, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(min_work, items.len(), |i| f(&items[i]))
    }

    /// Maps `f` over `0..n` with a per-worker scratch value, returning
    /// results in index order.
    ///
    /// `init` runs once per worker per call (once total on the sequential
    /// fallback) and the resulting scratch is passed mutably to every item
    /// that worker processes — the reuse story for preallocated buffers on
    /// hot paths. The scratch must not influence computed values, only hold
    /// intermediates; under that contract the output is bitwise-identical
    /// to the sequential loop at any thread count, exactly like
    /// [`Parallelism::par_map_indexed`].
    ///
    /// # Panics
    ///
    /// If `init` or `f` panics on a worker thread, the panic payload is
    /// re-raised on the calling thread after all workers have stopped.
    pub fn par_map_indexed_with<S, U, I, F>(
        &self,
        min_work: usize,
        n: usize,
        init: I,
        f: F,
    ) -> Vec<U>
    where
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        let threads = self.thread_count().min(n);
        if threads <= 1 || n < min_work {
            let mut scratch = init();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }
        run_workers(threads, n, &init, &f)
    }

    /// Maps `f` over a slice with a per-worker scratch value, returning
    /// results in input order.
    ///
    /// Same scratch, ordering, and fallback guarantees as
    /// [`Parallelism::par_map_indexed_with`].
    ///
    /// # Panics
    ///
    /// If `init` or `f` panics on a worker thread, the panic payload is
    /// re-raised on the calling thread after all workers have stopped.
    pub fn par_map_with<T, S, U, I, F>(&self, min_work: usize, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> U + Sync,
    {
        self.par_map_indexed_with(min_work, items.len(), init, |scratch, i| {
            f(scratch, &items[i])
        })
    }
}

/// Parses a `DATATRANS_THREADS`-style value: a positive integer, with
/// surrounding whitespace tolerated. Anything else is ignored.
fn parse_thread_count(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn env_thread_count() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_thread_count(&v))
}

/// The parallel path: `threads` pooled workers pull indices off a shared
/// cursor, collect `(index, value)` pairs locally (each reusing one
/// per-worker scratch from `init`), and the caller merges them back into
/// index order.
fn run_workers<S, U, I, F>(threads: usize, n: usize, init: &I, f: &F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let cursor = AtomicUsize::new(0);
    // One output slot per worker; each worker writes only its own, so the
    // mutexes are uncontended and exist to satisfy the shared-borrow rules.
    let slots: Vec<Mutex<Vec<(usize, U)>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    pool::run(threads, &|slot: usize| {
        let mut scratch = init();
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(&mut scratch, i)));
        }
        *slots[slot].lock().expect("private output slot") = local;
    });
    let mut indexed = Vec::with_capacity(n);
    for slot in slots {
        indexed.extend(slot.into_inner().expect("private output slot"));
    }
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn indexed_results_are_in_input_order() {
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(7),
        ] {
            let got = p.par_map_indexed(1, 100, |i| i * 3 + 1);
            let want: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
            assert_eq!(got, want, "{p:?}");
        }
    }

    #[test]
    fn slice_map_matches_sequential_bitwise() {
        let items: Vec<f64> = (0..257).map(|i| (i as f64 * 0.37).sin()).collect();
        let f = |x: &f64| (x * 1.7).exp().sqrt() + x;
        let seq: Vec<f64> = items.iter().map(f).collect();
        for threads in [2, 3, 4, 8] {
            let par = Parallelism::Threads(threads).par_map(1, &items, f);
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = Parallelism::Threads(4).par_map_indexed(0, 0, |i| i);
        assert!(empty.is_empty());
        let one = Parallelism::Threads(4).par_map_indexed(0, 1, |i| i + 9);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn below_min_work_runs_inline() {
        let main_id = std::thread::current().id();
        let ids = Parallelism::Threads(4).par_map_indexed(100, 8, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id == main_id),
            "below-threshold work must stay on the caller"
        );
    }

    #[test]
    fn at_or_above_min_work_uses_workers() {
        let main_id = std::thread::current().id();
        let ids: Vec<ThreadId> =
            Parallelism::Threads(2).par_map_indexed(1, 16, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id != main_id),
            "above-threshold work must run on spawned workers"
        );
    }

    #[test]
    fn sequential_never_spawns() {
        let main_id = std::thread::current().id();
        let ids = Parallelism::Sequential.par_map_indexed(0, 32, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Parallelism::Threads(2).par_map_indexed(1, 16, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 5"), "payload: {message}");
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(Parallelism::Sequential.thread_count(), 1);
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert_eq!(Parallelism::Threads(6).thread_count(), 6);
        assert!(Parallelism::Auto.thread_count() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn env_value_parsing() {
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 2 "), Some(2));
        assert_eq!(parse_thread_count("1"), Some(1));
        assert_eq!(parse_thread_count("0"), None);
        assert_eq!(parse_thread_count(""), None);
        assert_eq!(parse_thread_count("lots"), None);
        assert_eq!(parse_thread_count("-3"), None);
    }

    #[test]
    fn pool_workers_survive_across_calls() {
        // Every call checks workers out of the shared free list and back
        // in, so consecutive calls reuse threads instead of spawning. Other
        // tests run concurrently against the same global pool, so assert
        // substantial reuse rather than exact identity: 20 two-worker calls
        // must not see anywhere near 40 distinct worker threads.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let ids =
                Parallelism::Threads(2).par_map_indexed(1, 8, |_| std::thread::current().id());
            seen.extend(ids);
        }
        assert!(
            seen.len() < 20,
            "expected worker reuse across calls, saw {} distinct threads",
            seen.len()
        );
    }

    #[test]
    fn panic_poisons_only_the_failing_call() {
        let p = Parallelism::Threads(2);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.par_map_indexed(1, 16, |i| {
                if i == 3 {
                    panic!("poisoned call");
                }
                i
            })
        }));
        assert!(boom.is_err());
        // The pool must keep serving: same workers, fresh call, correct
        // in-order results.
        let got = p.par_map_indexed(1, 16, |i| i * 2);
        assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_is_worker_local_and_reused() {
        // Each worker gets exactly one scratch per call; items record which
        // scratch instance served them and how many items it had seen.
        let next_scratch_id = AtomicUsize::new(0);
        let results = Parallelism::Threads(3).par_map_indexed_with(
            1,
            64,
            || (next_scratch_id.fetch_add(1, Ordering::Relaxed), 0usize),
            |scratch, _i| {
                scratch.1 += 1;
                (std::thread::current().id(), scratch.0, scratch.1)
            },
        );
        let inits = next_scratch_id.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&inits),
            "one scratch per worker, got {inits}"
        );
        // A scratch never crosses threads, and vice versa.
        let mut scratch_of_thread = std::collections::HashMap::new();
        let mut thread_of_scratch = std::collections::HashMap::new();
        let mut per_scratch_count = std::collections::HashMap::new();
        for (thread, scratch, count) in results {
            assert_eq!(*scratch_of_thread.entry(thread).or_insert(scratch), scratch);
            assert_eq!(*thread_of_scratch.entry(scratch).or_insert(thread), thread);
            // Counts grow monotonically per scratch: the same instance is
            // mutated across that worker's items, not recreated.
            let seen = per_scratch_count.entry(scratch).or_insert(0usize);
            assert_eq!(count, *seen + 1);
            *seen = count;
        }
    }

    #[test]
    fn scratch_sequential_fallback_reuses_one_scratch() {
        let inits = AtomicUsize::new(0);
        let got = Parallelism::Sequential.par_map_indexed_with(
            1,
            32,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |scratch, i| {
                *scratch += 1;
                (i, *scratch)
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        // One scratch across all items: the running count matches the index.
        for (i, count) in got {
            assert_eq!(count, i + 1);
        }
    }

    #[test]
    fn cursor_style_scratch_accelerates_without_changing_values() {
        // Scratch as a lookup accelerator: a cursor caching the "segment"
        // that served the last lookup. The
        // cursor changes how a value is *found* (cache hit vs recomputed
        // segment search), never the value itself — so every thread count
        // must return identical results even though workers' cursors see
        // different access sequences.
        let boundaries: Vec<usize> = vec![0, 20, 45, 80, 100];
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.13).sin()).collect();
        let lookup = |cursor: &mut usize, i: usize| -> f64 {
            let seg = *cursor;
            let in_cached = i >= boundaries[seg] && i < boundaries[seg + 1];
            if !in_cached {
                *cursor = boundaries.partition_point(|&b| b <= i) - 1;
            }
            data[i]
        };
        let seq = Parallelism::Sequential.par_map_indexed_with(1, 100, || 0usize, lookup);
        for threads in [2, 3, 4] {
            let par = Parallelism::Threads(threads).par_map_indexed_with(1, 100, || 0usize, lookup);
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn par_map_with_matches_sequential_bitwise() {
        let items: Vec<f64> = (0..193).map(|i| (i as f64 * 0.61).cos()).collect();
        let f = |buf: &mut Vec<f64>, x: &f64| {
            buf.clear();
            buf.extend((0..8).map(|k| x * (k as f64 + 1.0)));
            buf.iter().map(|v| v.sin()).sum::<f64>()
        };
        let seq = Parallelism::Sequential.par_map_with(1, &items, Vec::new, f);
        for threads in [2, 3, 5] {
            let par = Parallelism::Threads(threads).par_map_with(1, &items, Vec::new, f);
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn load_imbalance_keeps_order() {
        // Items near the front are much slower; self-scheduling lets later
        // items overtake them in time, but never in the output.
        let slow = Mutex::new(());
        let got = Parallelism::Threads(4).par_map_indexed(1, 24, |i| {
            if i < 4 {
                let _guard = slow.lock().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        let want: Vec<usize> = (0..24).map(|i| i * 10).collect();
        assert_eq!(got, want);
    }
}
