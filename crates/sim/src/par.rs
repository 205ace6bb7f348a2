//! Minimal order-preserving parallel map over scoped threads.
//!
//! The workspace has no external dependencies, so instead of rayon this
//! module provides the one fan-out primitive its callers need (the
//! experiment harness, the calibration fit, the benches): run a closure
//! over every element of a slice on up to `jobs` worker threads,
//! collecting results in input order. Work is distributed dynamically (an
//! atomic index), so uneven item costs — endpoint runs range from
//! milliseconds to tens of seconds — still balance across cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every element of `items` on up to `jobs` threads and
/// returns the results in input order.
///
/// With `jobs <= 1` (or a single item) this degrades to a plain serial
/// map on the calling thread — no threads are spawned, which keeps
/// single-core behaviour byte-identical and easy to reason about.
///
/// # Panics
///
/// Propagates the first worker panic to the caller.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            workers.push(scope.spawn(|| {
                // Buffer locally and place under the lock only at the end,
                // so workers never contend while simulating.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= items.len() {
                        break;
                    }
                    local.push((index, f(&items[index])));
                }
                // Recover a poisoned lock: slot writes are index-disjoint,
                // so a panic on a sibling worker cannot tear this state.
                let mut slots = slots.lock().unwrap_or_else(|poison| poison.into_inner());
                for (index, result) in local {
                    slots[index] = Some(result);
                }
            }));
        }
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(|poison| poison.into_inner())
        .iter_mut()
        .map(|slot| slot.take().expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(par_map(1, &items, |&x| x + 1), par_map(4, &items, |&x| x + 1));
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u64> = Vec::new();
        assert!(par_map(4, &items, |&x| x).is_empty());
    }

    #[test]
    fn unbalanced_work_still_covers_all_items() {
        // Items with wildly different costs; every result must land in its
        // own slot regardless of completion order.
        let items: Vec<u64> = (0..64).collect();
        let results = par_map(8, &items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        });
        assert_eq!(results, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
