//! The one fan-out every engine runs its independent simulations
//! through: sweep points, fleet and lifecycle cells, planner candidates.
//! Results come back in input order, so a caller that folds them
//! serially gets the same bits at any worker count; a worker records only
//! into a per-item value (such as a [`crate::TraceShard`]) that the
//! caller mints before the fan-out and merges in input order after it.

use std::fmt;
use std::thread;

/// A fan-out worker thread panicked, so its items have no results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLost;

impl fmt::Display for WorkerLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a fan-out worker died before filling its slots")
    }
}

impl std::error::Error for WorkerLost {}

/// The worker count for `n` items: `requested`, or the machine's
/// available parallelism when `None`, capped at `n` and never below 1.
#[must_use]
pub fn workers(requested: Option<usize>, n: usize) -> usize {
    requested
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .min(n)
        .max(1)
}

/// The worker that takes item `index` when `workers` threads deal the
/// items in boustrophedon (snake) order: even rounds run `0..workers`,
/// odd rounds run back `workers..0`.
///
/// The deal is static rather than a shared work queue because sweeps
/// list their points in ascending offered load, so per-item cost rises
/// with the index, and with costs monotone in the index consecutive
/// rounds cancel instead of compounding. On an 8-point linear-cost sweep over 2 workers a
/// plain stride leaves the last worker 25% overloaded while the snake
/// is exactly balanced. On the 8-point `microsim-overload` sweep
/// (points costing 0.029–0.504 s each when run alone) with 2 workers on
/// a 2-core machine, the snake deal finishes in 1.062 s, while a plain
/// stride or a shared queue handing out points in ascending order
/// finishes in 1.150 s (+8.3%).
///
/// The deal is a pure function of `(index, workers)`, which is what lets
/// per-worker load accounting (the sweep's `worker_utilisation`) be
/// computed after the fact from per-item costs.
#[must_use]
pub fn snake_worker(index: usize, workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    let round = index / workers;
    let position = index - round * workers;
    if round.is_multiple_of(2) {
        position
    } else {
        workers - 1 - position
    }
}

/// Maps `f(index, item)` over `items` on up to `workers` scoped
/// threads and returns the results in input order.
///
/// Items are dealt by [`snake_worker`], one thread per worker; each
/// worker runs its share in index order. With one worker (or at most one
/// item) everything runs inline on the caller's thread, where a panic in
/// `f` propagates as usual.
///
/// # Errors
///
/// Returns [`WorkerLost`] if a worker thread panicked.
pub fn map_slots<T, U, F>(workers: usize, items: Vec<T>, f: F) -> Result<Vec<U>, WorkerLost>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return Ok(items
            .into_iter()
            .enumerate()
            .map(|(index, item)| f(index, item))
            .collect());
    }
    let mut shares: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (index, item) in items.into_iter().enumerate() {
        shares[snake_worker(index, workers)].push((index, item));
    }
    let f = &f;
    let joined: Vec<thread::Result<Vec<(usize, U)>>> = thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    share
                        .into_iter()
                        .map(|(index, item)| (index, f(index, item)))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut results = Vec::with_capacity(n);
    for share in joined {
        results.extend(share.map_err(|_| WorkerLost)?);
    }
    results.sort_unstable_by_key(|&(index, _)| index);
    Ok(results.into_iter().map(|(_, result)| result).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for n in [0, 1, 7, 8, 9] {
            for workers in [1, 2, 3, 8] {
                let items: Vec<usize> = (0..n).map(|i| i * 10).collect();
                let out = map_slots(workers, items, |index, item| (index, item + 1))
                    .expect("no worker panics");
                let expected: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 10 + 1)).collect();
                assert_eq!(out, expected, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn a_panicking_item_loses_its_worker() {
        let out = map_slots(2, (0..4).collect(), |_, item: u32| {
            assert!(item != 3, "item 3 fails");
            item
        });
        assert_eq!(out, Err(WorkerLost));
    }

    #[test]
    fn snake_deal_balances_linearly_rising_costs() {
        let mut load = [0usize; 2];
        for index in 0..8 {
            load[snake_worker(index, 2)] += index + 1;
        }
        assert_eq!(load, [18, 18]);
    }

    #[test]
    fn worker_count_defaults_to_the_machine_and_caps_at_the_items() {
        assert_eq!(workers(Some(4), 2), 2);
        assert_eq!(workers(Some(4), 0), 1);
        assert_eq!(workers(Some(3), 10), 3);
        assert!(workers(None, usize::MAX) >= 1);
    }
}
