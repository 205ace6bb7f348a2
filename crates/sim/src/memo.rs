//! Single-flight memoisation: compute each key once, share it everywhere.
//! The harness's run and calibration caches and the op-trace cache all
//! sit on this one table.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A thread-safe, single-flight memo table.
///
/// The first request for a key computes its value; concurrent requests
/// for that key block until it is done and share the result. The map lock
/// is held only to fetch a key's cell, never while computing. A panicking
/// computation leaves the cell empty, so the next request retries. A
/// poisoned lock is recovered: it only ever guards the map structure.
#[derive(Debug)]
pub struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    requests: AtomicUsize,
    computed: AtomicUsize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            cells: Mutex::default(),
            requests: 0.into(),
            computed: 0.into(),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// The value for `key`, running `compute` if no request has filled it.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(cells.entry(key.clone()).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        }))
    }

    /// Every filled entry, in no particular order.
    pub fn entries(&self) -> Vec<(K, Arc<V>)> {
        let cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        cells
            .iter()
            .filter_map(|(k, cell)| Some((k.clone(), Arc::clone(cell.get()?))))
            .collect()
    }

    /// Requests so far (computations plus hits).
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Computations started so far, including ones that panicked.
    pub fn computed(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// Requests served from an already-filled cell.
    pub fn hits(&self) -> usize {
        self.requests().saturating_sub(self.computed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn computes_once_and_shares() {
        let memo = Memo::default();
        let a = memo.get_or_compute(&"k", || 7);
        let b = memo.get_or_compute(&"k", || unreachable!("second request must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let _ = memo.get_or_compute(&"other", || 8);
        assert_eq!((memo.requests(), memo.computed(), memo.hits()), (3, 2, 1));
        let mut entries = memo.entries();
        entries.sort();
        assert_eq!(entries, [("k", Arc::new(7)), ("other", Arc::new(8))]);
    }

    #[test]
    fn concurrent_requests_compute_exactly_once() {
        let memo = Memo::default();
        let runs = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let value = memo.get_or_compute(&"racy", || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        100
                    });
                    assert_eq!(*value, 100);
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "single-flight");
        assert_eq!((memo.requests(), memo.computed()), (8, 1));
    }

    #[test]
    fn panicking_compute_leaves_the_entry_empty() {
        let memo = Memo::default();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_compute(&1, || -> u32 { panic!("compute failed") })
        }));
        assert!(failed.is_err());
        assert!(memo.entries().is_empty(), "a failed computation caches nothing");
        assert_eq!(*memo.get_or_compute(&1, || 5), 5, "the next request computes");
        assert_eq!((memo.requests(), memo.computed()), (2, 2));
    }
}
