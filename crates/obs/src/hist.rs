//! Fixed-size power-of-two histograms.
//!
//! Bucket `k` counts values in `(2^(k-1), 2^k]`; bucket 0 counts 0 and 1.
//! [`BUCKETS`] buckets cover every value up to `2^63` exactly, and the last
//! bucket absorbs anything larger. Memory is fixed however many values are
//! recorded, which is what lets a long-running daemon keep per-request
//! latency telemetry without a growing log.
//!
//! [`Histogram`] is the live, shareable form: recording is one relaxed
//! atomic add per bucket and sum, so threads never take a lock.
//! [`HistogramSnapshot`] is the frozen copy that reports, wire messages and
//! manifests carry.
//!
//! # Example
//!
//! ```
//! use camp_obs::hist::Histogram;
//!
//! let latency = Histogram::new();
//! for us in [1, 3, 4, 900] {
//!     latency.record(us);
//! }
//! let snapshot = latency.snapshot();
//! assert_eq!(snapshot.count(), 4);
//! let buckets: Vec<(u64, u64)> = snapshot.nonzero().collect();
//! assert_eq!(buckets, [(1, 1), (4, 2), (1024, 1)]);
//! ```

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets.
pub const BUCKETS: usize = 64;

/// The bucket a value falls in.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (u64::BITS - (value - 1).leading_zeros()).min(BUCKETS as u32 - 1) as usize
    }
}

/// Inclusive upper bound of bucket `index`.
pub fn bucket_le(index: usize) -> u64 {
    1 << index
}

/// A live histogram that any number of threads record into without locking.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The current counts. Concurrent recording may land between the
    /// bucket reads; each bucket is itself exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket (see the module docs for the bounds).
    pub buckets: [u64; BUCKETS],
    /// Sum of every recorded value.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }

    /// `(upper bound, count)` of every non-empty bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_le(index), count))
    }

    /// `{"count": n, "sum": s, "buckets": {"<upper bound>": count, ...}}`,
    /// listing non-empty buckets only. Bounds are object keys, so they stay
    /// exact past the 2^53 a JSON number holds.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count().into()),
            ("sum", self.sum.into()),
            (
                "buckets",
                Json::Obj(
                    self.nonzero().map(|(le, count)| (le.to_string(), count.into())).collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`HistogramSnapshot::to_json`].
    pub fn from_json(doc: &Json) -> Result<HistogramSnapshot, String> {
        let mut snapshot = HistogramSnapshot {
            sum: doc.get("sum").and_then(Json::as_u64).ok_or("histogram is missing 'sum'")?,
            ..HistogramSnapshot::default()
        };
        let buckets = doc
            .get("buckets")
            .and_then(Json::as_obj)
            .ok_or("histogram is missing 'buckets'")?;
        for (le, count) in buckets {
            let index = le
                .parse::<u64>()
                .ok()
                .filter(|le| le.is_power_of_two())
                .map(|le| le.trailing_zeros() as usize)
                .ok_or_else(|| format!("histogram bucket bound {le:?} is not a power of two"))?;
            snapshot.buckets[index] =
                count.as_u64().ok_or_else(|| format!("histogram bucket {le} has no count"))?;
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_upper_bounds() {
        for (value, le) in [
            (0, 1),
            (1, 1),
            (2, 2),
            (3, 4),
            (4, 4),
            (5, 8),
            (1024, 1024),
            (1025, 2048),
            (1 << 63, 1 << 63),
        ] {
            assert_eq!(bucket_le(bucket_index(value)), le, "value {value}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1, "overflow lands in the last bucket");
    }

    #[test]
    fn records_from_many_threads_without_loss() {
        let histogram = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let histogram = &histogram;
                scope.spawn(move || {
                    for i in 0..1000 {
                        histogram.record(t * 1000 + i);
                    }
                });
            }
        });
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 4000);
        assert_eq!(snapshot.sum, (0..4000).sum::<u64>());
        assert!((snapshot.mean() - 1999.5).abs() < 1e-9);
    }

    #[test]
    fn snapshots_roundtrip_through_json() {
        let histogram = Histogram::new();
        for value in [0, 7, 7, 300, 1 << 40] {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        let text = snapshot.to_json().render();
        assert!(text.starts_with("{\"count\":5,"), "{text}");
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(HistogramSnapshot::from_json(&parsed).unwrap(), snapshot);
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.to_json().render(), "{\"count\":0,\"sum\":0,\"buckets\":{}}");
        assert_eq!(empty.mean(), 0.0);
        let bad = crate::json::parse("{\"sum\":0,\"buckets\":{\"3\":1}}").unwrap();
        assert!(HistogramSnapshot::from_json(&bad).unwrap_err().contains("power of two"));
    }
}
