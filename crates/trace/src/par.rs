//! Minimal data-parallel map over OS threads, with results in input order.
//!
//! Trace generation and the scenario matrix are embarrassingly parallel;
//! this avoids pulling a full work-stealing runtime into the workspace for
//! one-shot batch jobs (the coding guides' advice: CPU-bound batch work
//! belongs on plain threads, not an async runtime). [`par_map_into`] is
//! the one parallel loop; [`par_map`] and [`par_map_threads`] collect
//! through it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Applies `f` to every item, using up to `available_parallelism` threads.
/// Order of results matches the order of `items`. `f` must be `Sync` (it is
/// shared across threads) and the results must be `Send`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_threads(available_threads(), items, f)
}

/// The host's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// [`par_map`] with an explicit worker count (≥ 1). Results are ordered by
/// input index regardless of the worker count, so output is reproducible
/// across machines and `--threads` settings.
pub fn par_map_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    par_map_into(threads, items, f, |u| out.push(u));
    out
}

/// Applies `f` to every item on up to `threads` workers (≥ 1) and calls
/// `sink` with each result in input order, as soon as it and every
/// earlier one are done. Workers take indices from an atomic counter and
/// send `(index, result)` to the calling thread, which holds early
/// finishers and runs the sink (so it needs no `Send`); workers never wait
/// on it. With one worker, `f` runs on the calling thread. A panic in `f`
/// reaches the caller once every worker has stopped.
pub fn par_map_into<T, U, F, S>(threads: usize, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    S: FnMut(U),
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        items.iter().map(f).for_each(sink);
        return;
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            // Each worker owns a sender and drops it when it stops or
            // unwinds, so the receive loop below ends on disconnect.
            let (tx, next, f) = (tx.clone(), &next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut held = BTreeMap::new();
        let mut due = 0;
        for (i, out) in rx {
            held.insert(i, out);
            while let Some(out) = held.remove(&due) {
                sink(out);
                due += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = par_map(&(0..100).collect::<Vec<_>>(), |&x: &i32| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as i32);
        }
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<i64> = (0..200).collect();
        let reference: Vec<i64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 7, 64] {
            let out = par_map_threads(threads, &items, |&x| x * 3 + 1);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(&[], |&x: &i32| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(&[41], |&x: &i32| x + 1), vec![42]);
    }

    #[test]
    fn heavy_closure_state_is_shared_safely() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = par_map(&(0..1000).collect::<Vec<_>>(), |&x: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    /// Item 0 waits until every other item is done, so it finishes last;
    /// the sink must still see 0 first and the rest in order after it.
    #[test]
    fn the_sink_sees_input_order_when_the_first_item_finishes_last() {
        let n = 16;
        let items: Vec<usize> = (0..n).collect();
        for threads in [2, 4] {
            let others_done = AtomicUsize::new(0);
            let mut seen = Vec::new();
            par_map_into(
                threads,
                &items,
                |&i| {
                    if i == 0 {
                        while others_done.load(Ordering::Acquire) < n - 1 {
                            std::thread::yield_now();
                        }
                    } else {
                        others_done.fetch_add(1, Ordering::Release);
                    }
                    (i, others_done.load(Ordering::Acquire))
                },
                |(i, done_when_finished)| {
                    if i == 0 {
                        assert_eq!(done_when_finished, n - 1, "item 0 finished last");
                    }
                    seen.push(i);
                },
            );
            assert_eq!(seen, items, "threads = {threads}");
        }
    }

    /// A panic in the closure reaches the caller, whichever item panics
    /// and however many workers run, and the call returns rather than
    /// waiting for a result that never comes.
    #[test]
    fn a_panicking_closure_reaches_the_caller_and_never_hangs() {
        for threads in [1, 2, 4] {
            for bad in [0, 5, 11] {
                let (done_tx, done_rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..12).collect();
                    let mut sunk = Vec::new();
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        par_map_into(
                            threads,
                            &items,
                            |&i| {
                                assert_ne!(i, bad, "item {bad} panics");
                                i
                            },
                            |i| sunk.push(i),
                        )
                    }));
                    done_tx.send((caught.is_err(), sunk)).unwrap();
                });
                let (panicked, sunk) = done_rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("threads {threads}, bad {bad}: hung"));
                assert!(panicked, "threads {threads}, bad {bad}: panic swallowed");
                // Nothing at or after the panicking item reaches the sink.
                assert!(sunk.iter().enumerate().all(|(k, &i)| k == i && i < bad));
            }
        }
    }
}
