//! The workspace's one fork-join layer: every host thread the simulator
//! and the serving stack start is started by [`par_map`].
//!
//! A region splits into *units* (fired requests, Monte-Carlo shots, path
//! chunks) whose results land in one slot each, in unit order. Workers
//! claim units one at a time from a shared queue, so a worker that drew
//! cheap units takes the next pending one instead of idling behind a
//! skewed split. Which worker runs a unit never shows in the output: a
//! unit's result is a pure function of the unit, and the caller folds
//! the slots in unit order.
//!
//! Regions nest (requests → shots → path chunks), but threads never
//! multiply: a `par_map` called from inside a worker runs inline on that
//! worker's thread. Only the outermost region that actually goes
//! parallel starts threads.

use std::cell::Cell;
use std::iter;
use std::num::NonZeroUsize;
use std::panic;
use std::sync::Mutex;
use std::thread;

thread_local! {
    /// Set on every [`par_map`] worker thread; nested regions read it
    /// and run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The host's available parallelism, or 1 when it cannot be read.
pub fn available_cores() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Maps `f` over `units` on up to `threads` workers and returns the
/// results in unit order.
///
/// Each worker builds one `init()` state and hands it to `f` for every
/// unit it claims, so per-unit scratch space is allocated once per
/// worker. The region runs inline on the calling thread, with one
/// `init()` state, when `threads <= 1`, when there is at most one unit,
/// or when the caller is itself a `par_map` worker.
///
/// ```
/// use qram_sim::par::par_map;
/// let squares = par_map(0..5usize, 3, || (), |(), i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// A panic in `init` or `f` on a worker resumes on the calling thread
/// once every worker has stopped.
pub fn par_map<I, S, R>(
    units: I,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, I::Item) -> R + Sync,
) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
{
    let units = units.into_iter();
    let threads = threads.min(units.len());
    if threads <= 1 || IN_WORKER.get() {
        let mut state = init();
        return units.map(|unit| f(&mut state, unit)).collect();
    }
    let queue = Mutex::new(units.enumerate());
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.set(true);
                    let mut state = init();
                    // The claim order is scheduling-dependent; each
                    // unit's result is not.
                    let claim = || queue.lock().expect("unit iterator panicked").next();
                    iter::from_fn(claim)
                        .map(|(i, unit)| (i, f(&mut state, unit)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_unit_order() {
        for threads in [0, 1, 2, 3, 8] {
            for units in [0usize, 1, 7, 64] {
                let out = par_map(0..units, threads, || (), |(), i| 3 * i + 1);
                let expected: Vec<usize> = (0..units).map(|i| 3 * i + 1).collect();
                assert_eq!(out, expected, "threads={threads} units={units}");
            }
        }
    }

    #[test]
    fn each_worker_builds_one_state() {
        for threads in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            // Each unit records which state served it; the per-worker
            // counts must add up to the unit count.
            let served = par_map(
                0..64usize,
                threads,
                || (inits.fetch_add(1, Ordering::SeqCst), 0usize),
                |(id, count), _| {
                    *count += 1;
                    (*id, *count)
                },
            );
            let workers = inits.load(Ordering::SeqCst);
            assert_eq!(workers, threads, "threads={threads}");
            let mut last = vec![0; workers];
            for (id, count) in served {
                last[id] = last[id].max(count);
            }
            assert_eq!(last.iter().sum::<usize>(), 64, "threads={threads}");
        }
    }

    #[test]
    fn nested_regions_run_on_the_calling_worker() {
        let caller = thread::current().id();
        let outer = par_map(
            0..4usize,
            2,
            || (),
            |(), _| {
                let me = thread::current().id();
                let inner = par_map(0..8usize, 4, || (), |(), _| thread::current().id());
                (me, inner)
            },
        );
        for (worker, inner) in outer {
            assert_ne!(worker, caller, "the outer region runs on workers");
            assert!(inner.iter().all(|&id| id == worker));
        }
        // The calling thread never carries the worker flag.
        assert!(!IN_WORKER.get());
    }

    #[test]
    #[should_panic(expected = "unit 5 failed")]
    fn a_worker_panic_propagates() {
        par_map(
            0..16usize,
            4,
            || (),
            |(), i| {
                if i == 5 {
                    panic!("unit {i} failed");
                }
                i
            },
        );
    }
}
