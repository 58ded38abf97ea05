//! # dfp-par — a deterministic scoped-thread parallel runtime
//!
//! The workspace vendors every dependency and cannot take `rayon`, so this
//! crate provides the minimal std-only substrate the pipeline's
//! embarrassingly-parallel stages need: per-class mining, top-level
//! counting branches, the MMRFS tidset precompute, cross-validation folds,
//! and batch prediction sharding.
//!
//! ## Determinism contract
//!
//! Every combinator is **order-preserving**: results come back in input
//! order no matter how the OS schedules the workers. Callers that keep their per-item work free of
//! shared mutable state therefore get **bit-identical results for any
//! worker count** — the property the workspace's parallel-equivalence
//! tests assert. With one worker (or inputs too small to split) the
//! combinators run the exact sequential code path on the calling thread.
//!
//! ## Worker-count resolution
//!
//! [`resolve_workers`] is the single source of truth for the whole
//! workspace (the `dfp-serve` pool sizes itself through it too):
//!
//! 1. an explicit caller-provided count wins;
//! 2. else the `DFP_THREADS` environment variable (a positive integer;
//!    `DFP_THREADS=1` forces the sequential path everywhere);
//! 3. else [`std::thread::available_parallelism`].
//!
//! ## Nesting
//!
//! Worker threads mark themselves, and any combinator invoked *from inside
//! a parallel region* runs sequentially — the outermost stage owns the
//! cores, so parallel cross-validation folds do not multiply against
//! parallel mining underneath them. This also keeps nested results
//! trivially deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// `true` on dfp-par worker threads: nested combinators run sequentially.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Resolves a worker count: `explicit` if given, else `DFP_THREADS`, else
/// [`std::thread::available_parallelism`]; always at least 1.
///
/// This is the workspace-wide single source of truth — `dfp-serve`'s worker
/// pool and every parallel stage size themselves through it.
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("DFP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The ambient worker count: `resolve_workers(None)`.
pub fn worker_threads() -> usize {
    resolve_workers(None)
}

/// `true` when called from inside a dfp-par worker (nested parallel
/// region); combinators then fall back to the sequential path.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL.with(|c| c.get())
}

/// Workers to actually use for `n_tasks` independent tasks.
fn effective_workers(n_tasks: usize) -> usize {
    if n_tasks <= 1 || in_parallel_region() {
        return 1;
    }
    worker_threads().min(n_tasks)
}

/// Runs `task(0..n_slots)` on `workers` scoped threads with dynamic
/// (atomic-counter) scheduling and returns results in slot order.
///
/// Slot order is what makes every combinator deterministic: scheduling
/// decides *who* computes a slot, never *where* its result lands.
fn scoped_run<R, F>(n_slots: usize, workers: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n_slots).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n_slots) {
            s.spawn(|| {
                IN_PARALLEL.with(|c| c.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_slots {
                        break;
                    }
                    let r = task(i);
                    *slots[i].lock().expect("dfp-par slot poisoned") = Some(r);
                }
            });
        }
    });
    // A panicking worker propagates through `scope` above, so every slot
    // is filled here.
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("dfp-par slot poisoned")
                .expect("dfp-par slot unfilled")
        })
        .collect()
}

/// Order-preserving parallel map with one logical task per item.
///
/// Items are handed to workers dynamically, so wildly uneven per-item work
/// (e.g. class partitions of very different sizes) balances itself. Use
/// [`par_chunks_map`] instead when per-item work is tiny and uniform.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = effective_workers(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    scoped_run(items.len(), workers, |i| f(&items[i]))
}

/// Order-preserving parallel elementwise map over contiguous chunks.
///
/// Inputs shorter than `min_chunk` (and nested calls) run sequentially;
/// larger ones split into at most `4 × workers` chunks scheduled
/// dynamically. Made for uniform per-element work: MMRFS tidset
/// precompute, batch prediction rows.
pub fn par_chunks_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let min_chunk = min_chunk.max(1);
    let workers = effective_workers(items.len().div_ceil(min_chunk));
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers * 4).max(min_chunk);
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    let per_chunk: Vec<Vec<R>> = scoped_run(chunks.len(), workers, |ci| {
        chunks[ci].iter().map(&f).collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Runs heterogeneous-workload tasks (same closure *type*, e.g. built from
/// one `map`) and returns their results **in task order**. At most
/// `worker_threads()` run at once.
pub fn par_join_n<R, F>(tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let workers = effective_workers(tasks.len());
    if workers <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let inputs: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    scoped_run(inputs.len(), workers, |i| {
        let task = inputs[i]
            .lock()
            .expect("dfp-par task poisoned")
            .take()
            .expect("dfp-par task taken twice");
        task()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that mutate `DFP_THREADS` (process-global).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: &str, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("DFP_THREADS", n);
        let r = f();
        std::env::remove_var("DFP_THREADS");
        r
    }

    #[test]
    fn resolve_workers_precedence() {
        with_threads("3", || {
            assert_eq!(resolve_workers(None), 3);
            assert_eq!(resolve_workers(Some(7)), 7);
            assert_eq!(resolve_workers(Some(0)), 1);
        });
        with_threads("0", || {
            // invalid value falls through to available_parallelism
            assert!(resolve_workers(None) >= 1);
        });
        with_threads("not-a-number", || {
            assert!(resolve_workers(None) >= 1);
        });
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in ["1", "4"] {
            let got = with_threads(threads, || par_map(&items, |&x| x * 2));
            assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in ["1", "2", "8"] {
            let got = with_threads(threads, || par_chunks_map(&items, 16, |&x| x * x));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn par_join_n_order_and_concurrency() {
        let tasks: Vec<_> = (0..16).map(|i| move || i * i).collect();
        let got = with_threads("4", || par_join_n(tasks));
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<i32>>());
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let outer: Vec<usize> = (0..8).collect();
        let got = with_threads("4", || {
            par_map(&outer, |&i| {
                assert!(in_parallel_region());
                // nested call must not deadlock or over-spawn
                let inner: Vec<usize> = (0..100).collect();
                par_map(&inner, |&j| j).len() + i
            })
        });
        assert_eq!(got, (0..8).map(|i| 100 + i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert!(par_chunks_map(&empty, 8, |&x| x).is_empty());
        let tasks: Vec<fn() -> u32> = Vec::new();
        assert!(par_join_n(tasks).is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            with_threads("4", || {
                par_map(&items, |&i| {
                    if i == 13 {
                        panic!("boom");
                    }
                    i
                })
            })
        });
        assert!(r.is_err());
    }
}
