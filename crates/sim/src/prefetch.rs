//! Hardware stream/stride prefetchers.
//!
//! Two instances are used by the engine: an L1 streamer (short lookahead,
//! confined to a 4 KiB page, fills L1) and an L2 strider (longer lookahead,
//! may cross pages, fills L2). Prefetch *timeliness* is emergent: the
//! prefetcher only controls how far ahead requests are launched; whether
//! the line arrives before the demand does depends on memory latency —
//! which is exactly the mechanism behind the paper's `S_Cache` component.

/// Lines per 4 KiB tracking region.
const REGION_LINES: u64 = 64;

/// Stream state of one tracker. Its region and LRU stamp live in
/// [`StreamPrefetcher`]'s own arrays, so the per-access search reads
/// nothing else.
#[derive(Debug, Clone, Copy, Default)]
struct Tracker {
    /// Last line number observed for this stream.
    last_line: u64,
    /// Detected stride in lines (may be negative).
    stride: i64,
    /// Consecutive confirmations of the stride.
    confidence: u8,
    /// Next line number to prefetch (frontier of the stream).
    frontier: i64,
}

/// Region of an unused tracker. Region ids are below `2^58` (line numbers
/// over 64), so this is neither equal nor adjacent to any of them, even
/// with wrapping arithmetic.
const UNUSED: u64 = 1 << 63;

/// A stride-detecting stream prefetcher.
///
/// Call [`on_access`](StreamPrefetcher::on_access) with each line-granular
/// access; it returns the line numbers that should be prefetched (at most
/// `degree` per trigger, never beyond `distance` lines ahead of the
/// triggering access).
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    /// Region id (line number / 64) of each tracker, or [`UNUSED`].
    regions: Vec<u64>,
    /// LRU stamp of each tracker: the clock at its last access, 0 while
    /// unused (the clock starts at 1).
    stamps: Vec<u64>,
    trackers: Vec<Tracker>,
    distance: i64,
    degree: usize,
    cross_page: bool,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with `trackers` concurrent streams, issuing at
    /// most `degree` prefetches per trigger up to `distance` lines ahead.
    /// `cross_page` allows the stream to run past 4 KiB region boundaries
    /// (true for the L2 prefetcher, false for L1).
    ///
    /// # Panics
    ///
    /// Panics if `trackers`, `distance` or `degree` is zero.
    pub fn new(trackers: usize, distance: u32, degree: u32, cross_page: bool) -> Self {
        assert!(trackers > 0 && distance > 0 && degree > 0);
        StreamPrefetcher {
            regions: vec![UNUSED; trackers],
            stamps: vec![0; trackers],
            trackers: vec![Tracker::default(); trackers],
            distance: distance as i64,
            degree: degree as usize,
            cross_page,
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetch candidates produced since construction.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes an access to `line` (a line *number*, i.e. byte address /
    /// 64) and returns the lines to prefetch, in ascending stream order.
    pub fn on_access(&mut self, line: u64, out: &mut Vec<u64>) {
        out.clear();
        self.clock += 1;
        let region = line / REGION_LINES;
        // Find the first tracker for this region or, across pages, an
        // adjacent one the stream may have crossed into: `r - region` in
        // {-1, 0, 1}, which the wrapped `+ 1` maps to {0, 1, 2}.
        let slot = if self.cross_page {
            self.regions.iter().position(|&r| r.wrapping_sub(region).wrapping_add(1) <= 2)
        } else {
            self.regions.iter().position(|&r| r == region)
        };
        let Some(slot) = slot else {
            // Replace the first unused tracker, else the least recently
            // used: unused trackers hold the least stamp, 0.
            let stamps = &self.stamps;
            let i = (1..stamps.len()).fold(0, |i, j| if stamps[j] < stamps[i] { j } else { i });
            self.regions[i] = region;
            self.stamps[i] = self.clock;
            self.trackers[i] = Tracker {
                last_line: line,
                stride: 0,
                confidence: 0,
                frontier: line as i64,
            };
            return;
        };
        self.regions[slot] = region;
        self.stamps[slot] = self.clock;
        let t = &mut self.trackers[slot];
        let delta = line as i64 - t.last_line as i64;
        if delta == 0 {
            return; // same line, nothing to learn
        }
        if delta == t.stride && t.stride != 0 {
            t.confidence = t.confidence.saturating_add(1);
        } else {
            t.stride = delta;
            t.confidence = 1;
            t.frontier = line as i64;
        }
        t.last_line = line;
        if t.confidence < 2 {
            return;
        }
        // Issue up to `degree` prefetches from the frontier, staying within
        // `distance` lines of the trigger.
        let stride = t.stride;
        let limit = line as i64 + self.distance * stride.signum();
        let start = if stride > 0 {
            t.frontier.max(line as i64)
        } else {
            t.frontier.min(line as i64)
        };
        let mut next = start + stride;
        for _ in 0..self.degree {
            let past_limit = if stride > 0 { next > limit } else { next < limit };
            if past_limit || next < 0 {
                break;
            }
            if !self.cross_page && (next as u64) / REGION_LINES != region {
                break;
            }
            out.push(next as u64);
            next += stride;
        }
        if let Some(&last) = out.last() {
            t.frontier = last as i64;
        }
        self.issued += out.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(pf: &mut StreamPrefetcher, lines: &[u64]) -> Vec<Vec<u64>> {
        let mut buf = Vec::new();
        lines
            .iter()
            .map(|&l| {
                pf.on_access(l, &mut buf);
                buf.clone()
            })
            .collect()
    }

    #[test]
    fn sequential_stream_detected_after_two_confirmations() {
        let mut pf = StreamPrefetcher::new(8, 8, 2, false);
        let rounds = collect(&mut pf, &[100, 101, 102, 103]);
        assert!(rounds[0].is_empty(), "first access only allocates");
        assert!(rounds[1].is_empty(), "one confirmation is not enough");
        assert_eq!(rounds[2], vec![103, 104], "stream confirmed, issues ahead");
        assert_eq!(rounds[3], vec![105, 106], "frontier advances, no re-issue");
    }

    #[test]
    fn strided_stream_detected() {
        let mut pf = StreamPrefetcher::new(8, 16, 2, true);
        let rounds = collect(&mut pf, &[0, 4, 8, 12]);
        assert_eq!(rounds[2], vec![12, 16]);
        // The frontier advanced to 16 already, so the next trigger issues
        // the following strides.
        assert_eq!(rounds[3], vec![20, 24]);
    }

    #[test]
    fn descending_stream_detected() {
        let mut pf = StreamPrefetcher::new(8, 8, 2, true);
        let rounds = collect(&mut pf, &[200, 199, 198]);
        assert_eq!(rounds[2], vec![197, 196]);
    }

    #[test]
    fn random_accesses_issue_nothing() {
        let mut pf = StreamPrefetcher::new(4, 8, 2, false);
        let rounds = collect(&mut pf, &[5, 900, 13, 700, 41, 333]);
        assert!(rounds.iter().all(|r| r.is_empty()));
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn l1_prefetcher_stops_at_page_boundary() {
        let mut pf = StreamPrefetcher::new(8, 8, 4, false);
        // Approach the end of region 0 (lines 0..64).
        let rounds = collect(&mut pf, &[60, 61, 62]);
        assert_eq!(rounds[2], vec![63], "cannot cross into line 64+");
    }

    #[test]
    fn l2_prefetcher_crosses_page_boundary() {
        let mut pf = StreamPrefetcher::new(8, 8, 4, true);
        let rounds = collect(&mut pf, &[60, 61, 62]);
        assert_eq!(rounds[2], vec![63, 64, 65, 66]);
        // Next access in the new region continues the same stream.
        let mut buf = Vec::new();
        pf.on_access(63, &mut buf);
        assert_eq!(buf, vec![67, 68, 69, 70]);
    }

    #[test]
    fn distance_caps_the_frontier() {
        let mut pf = StreamPrefetcher::new(8, 4, 8, true);
        let rounds = collect(&mut pf, &[0, 1, 2]);
        // Distance 4 from trigger line 2 allows lines 3..=6 only.
        assert_eq!(rounds[2], vec![3, 4, 5, 6]);
    }

    #[test]
    fn interleaved_streams_tracked_independently() {
        let mut pf = StreamPrefetcher::new(8, 8, 2, false);
        let mut buf = Vec::new();
        // Two interleaved sequential streams in different regions.
        for i in 0..4u64 {
            pf.on_access(i, &mut buf);
            let a = buf.clone();
            pf.on_access(1000 + i, &mut buf);
            let b = buf.clone();
            if i >= 2 {
                assert!(!a.is_empty(), "stream A at step {i}");
                assert!(!b.is_empty(), "stream B at step {i}");
            }
        }
    }

    #[test]
    fn tracker_replacement_is_lru() {
        let mut pf = StreamPrefetcher::new(2, 8, 2, false);
        let mut buf = Vec::new();
        pf.on_access(0, &mut buf); // region 0
        pf.on_access(100, &mut buf); // region 1
        pf.on_access(1, &mut buf); // touch region 0 (now MRU)
        pf.on_access(300, &mut buf); // region 4 replaces region 1
                                     // Stream 0 survives: continuing it still trains.
        pf.on_access(2, &mut buf);
        assert_eq!(buf, vec![3, 4]);
    }
}
