//! Randomised property tests for the simulation substrate, driven by a
//! deterministic SplitMix64 generator (no external test dependencies).

use camp_sim::cache::{Cache, Eviction};
use camp_sim::config::CacheGeometry;
use camp_sim::engine::Machine;
use camp_sim::inflight::{InflightBuffer, InflightEntry, WaitClass};
use camp_sim::op::{Op, Workload};
use camp_sim::placement::{Placement, PlacementState, TierId};
use camp_sim::prefetch::StreamPrefetcher;
use camp_sim::sweep::MlpSweep;
use camp_sim::{DeviceKind, OpTrace, Platform, Traced, LINE_BYTES};
use std::sync::Arc;

/// Minimal deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn op(&mut self, footprint: u64) -> Op {
        match self.below(3) {
            0 => Op::Load {
                addr: self.below(footprint),
                dep: self.below(3) as u8,
            },
            1 => Op::store(self.below(footprint)),
            _ => Op::compute(1 + self.below(15) as u32),
        }
    }
}

/// A workload built from an arbitrary op list.
struct Scripted {
    ops: Vec<Op>,
    footprint: u64,
}

impl Workload for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }
    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        Box::new(self.ops.iter().copied())
    }
}

/// The engine is deterministic and produces structurally consistent
/// counters for arbitrary op streams.
#[test]
fn engine_handles_arbitrary_streams() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed);
        let len = 1 + rng.below(399) as usize;
        let ops: Vec<Op> = (0..len).map(|_| rng.op(1 << 22)).collect();
        let workload = Scripted { ops, footprint: 1 << 22 };
        let machine = Machine::interleaved(Platform::Spr2s, DeviceKind::CxlA, 0.5);
        let a = machine.run(&workload);
        let b = machine.run(&workload);
        assert_eq!(a.cycles, b.cycles, "seed {seed}");
        assert_eq!(&a.counters, &b.counters, "seed {seed}");
        use camp_pmu::Event::*;
        let c = &a.counters;
        assert!(c[StallsL1dMiss] >= c[StallsL2Miss], "seed {seed}");
        assert!(c[StallsL2Miss] >= c[StallsL3Miss], "seed {seed}");
        assert!(c[DemandLoads] >= c[L1dHit] + c[L1Miss] + c[LfbHit], "seed {seed}");
        assert!(a.cycles >= 0.0);
        assert!(a.instructions > 0);
    }
}

/// Cache occupancy never exceeds capacity, and a line just inserted is
/// present until something evicts it.
#[test]
fn cache_capacity_is_an_invariant() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed ^ 0xcafe);
        let ways = 1 + rng.below(7) as u32;
        let len = 1 + rng.below(199) as usize;
        let mut cache = Cache::new(CacheGeometry {
            capacity_bytes: 32 * LINE_BYTES,
            ways,
            hit_latency: 4,
        });
        for _ in 0..len {
            let line = rng.below(256);
            cache.insert(line * LINE_BYTES, line.is_multiple_of(2));
            assert!(cache.occupancy() <= 32, "seed {seed}");
            assert!(cache.peek(line * LINE_BYTES), "seed {seed}");
        }
    }
}

/// A naive model of the cache's replacement rule: per set, a `Vec` of
/// ways holding `(line, dirty)`; a line fills the first empty way, a full
/// set replaces its last way, hits reorder nothing, `invalidate` frees
/// the way.
struct NaiveCache {
    sets: Vec<Vec<Option<(u64, bool)>>>,
    hits: u64,
    misses: u64,
}

impl NaiveCache {
    fn new(sets: usize, ways: usize) -> Self {
        NaiveCache {
            sets: vec![vec![None; ways]; sets],
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, addr: u64) -> (&mut Vec<Option<(u64, bool)>>, u64) {
        let count = self.sets.len() as u64;
        (&mut self.sets[((addr / LINE_BYTES) % count) as usize], addr & !(LINE_BYTES - 1))
    }

    fn way(&mut self, addr: u64) -> Option<&mut (u64, bool)> {
        let (set, line) = self.set(addr);
        set.iter_mut().flatten().find(|(held, _)| *held == line)
    }

    fn probe(&mut self, addr: u64) -> bool {
        let hit = self.way(addr).is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        self.way(addr).map(|(_, dirty)| *dirty = true).is_some()
    }

    fn insert(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        if let Some((_, held_dirty)) = self.way(addr) {
            *held_dirty |= dirty;
            return None;
        }
        let (set, line) = self.set(addr);
        if let Some(way) = set.iter_mut().find(|way| way.is_none()) {
            *way = Some((line, dirty));
            return None;
        }
        let last = set.last_mut().expect("ways > 0");
        let (line_addr, was_dirty) = last.replace((line, dirty)).expect("full set");
        Some(Eviction { line_addr, dirty: was_dirty })
    }

    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, line) = self.set(addr);
        let way = set.iter_mut().find(|way| matches!(way, Some((held, _)) if *held == line))?;
        way.take().map(|(_, dirty)| dirty)
    }

    fn occupancy(&self) -> u64 {
        self.sets.iter().flatten().flatten().count() as u64
    }
}

/// `Cache` agrees with the naive model op for op, on random geometries
/// and on addresses with random low bits, which must name the same line
/// as the aligned address. Geometries span 1–64 sets and 1–16 ways, so
/// both set-index paths (mask for power-of-two set counts, `%` otherwise)
/// and padded set strides (3, 5, 11 and 15 ways pad to 4, 8, 16 and 16
/// slots) meet the model, `invalidate` holes included.
#[test]
fn cache_matches_a_naive_model_of_its_replacement_rule() {
    let pinned = [
        (64, 3),
        (32, 5),
        (16, 11),
        (8, 15),
        (64, 16),
        (48, 11),
        (1, 15),
        (7, 5),
        (2, 1),
    ];
    for seed in 0..96u64 {
        let mut rng = Rng(seed ^ 0xcace);
        let (sets, ways) = match pinned.get(seed as usize) {
            Some(&geometry) => geometry,
            None => (1 + rng.below(64) as usize, 1 + rng.below(16) as usize),
        };
        let mut cache = Cache::new(CacheGeometry {
            capacity_bytes: (sets * ways) as u64 * LINE_BYTES,
            ways: ways as u32,
            hit_latency: 4,
        });
        let mut model = NaiveCache::new(sets, ways);
        // Enough distinct lines to overflow every set a few times over.
        let lines = (sets * ways * 3) as u64;
        for step in 0..(sets * ways * 4).max(600) {
            let addr = rng.below(lines) * LINE_BYTES + rng.below(LINE_BYTES);
            let what = rng.below(6);
            let context = format!("seed {seed} step {step} op {what} addr {addr:#x}");
            match what {
                0 | 1 => {
                    let dirty = rng.below(3) == 0;
                    assert_eq!(cache.insert(addr, dirty), model.insert(addr, dirty), "{context}");
                }
                2 => assert_eq!(cache.probe(addr), model.probe(addr), "{context}"),
                3 => assert_eq!(cache.peek(addr), model.way(addr).is_some(), "{context}"),
                4 => assert_eq!(cache.mark_dirty(addr), model.mark_dirty(addr), "{context}"),
                _ => assert_eq!(cache.invalidate(addr), model.invalidate(addr), "{context}"),
            }
            assert_eq!(cache.occupancy(), model.occupancy(), "{context}");
            assert_eq!(cache.stats(), (model.hits, model.misses), "{context}");
        }
    }
}

/// A naive model of an in-flight buffer: `(line, fill_time, class)`
/// triples in a `Vec`; entries with `fill_time <= now` release; a full
/// buffer frees its earliest fill, ties to the lowest line.
struct NaiveInflight {
    capacity: usize,
    entries: Vec<(u64, f64, WaitClass)>,
}

impl NaiveInflight {
    fn release_until(&mut self, now: f64) {
        self.entries.retain(|&(_, fill, _)| fill > now);
    }

    fn lookup(&mut self, line: u64, now: f64) -> Option<InflightEntry> {
        self.release_until(now);
        self.entries
            .iter()
            .find(|&&(held, _, _)| held == line)
            .map(|&(_, fill_time, wait_class)| InflightEntry { fill_time, wait_class })
    }

    fn occupancy(&mut self, now: f64) -> usize {
        self.release_until(now);
        self.entries.len()
    }

    fn acquire_slot_at(&mut self, now: f64) -> f64 {
        self.release_until(now);
        if self.entries.len() < self.capacity {
            return now;
        }
        let earliest = (0..self.entries.len())
            .min_by(|&a, &b| {
                let (line_a, fill_a, _) = self.entries[a];
                let (line_b, fill_b, _) = self.entries[b];
                fill_a.total_cmp(&fill_b).then(line_a.cmp(&line_b))
            })
            .expect("full buffer has entries");
        self.entries.swap_remove(earliest).1.max(now)
    }
}

/// `InflightBuffer` agrees with the naive model on every query, with a
/// clock that mostly advances but sometimes lags (as the engine's
/// issue-time cursors do) and fill times on a coarse grid so ties occur.
#[test]
fn inflight_buffer_matches_a_naive_model() {
    const CLASSES: [WaitClass; 5] = [
        WaitClass::None,
        WaitClass::DemandL2,
        WaitClass::DemandL3,
        WaitClass::DemandMem,
        WaitClass::Prefetch,
    ];
    for seed in 0..48u64 {
        let mut rng = Rng(seed ^ 0x1f1b);
        let capacity = 1 + rng.below(24) as usize;
        let mut buffer = InflightBuffer::new(capacity);
        let mut model = NaiveInflight { capacity, entries: Vec::new() };
        let mut clock = 0.0f64;
        let mut allocations = 0u64;
        let mut peak = 0usize;
        for step in 0..800 {
            clock += rng.below(8) as f64;
            let now = if rng.below(5) == 0 { clock - rng.below(20) as f64 } else { clock };
            let line = rng.below(capacity as u64 * 2) * LINE_BYTES;
            let what = rng.below(6);
            let context = format!("seed {seed} step {step} op {what} line {line:#x} now {now}");
            match what {
                0 | 1 => {
                    let absent = model.entries.iter().all(|&(held, _, _)| held != line);
                    if absent && model.entries.len() < capacity {
                        let fill = now + 1.0 + rng.below(40) as f64;
                        let class = CLASSES[rng.below(5) as usize];
                        buffer.allocate(line, fill, class);
                        model.entries.push((line, fill, class));
                        allocations += 1;
                        peak = peak.max(model.entries.len());
                    }
                }
                2 => assert_eq!(buffer.lookup(line, now), model.lookup(line, now), "{context}"),
                3 => {
                    assert_eq!(buffer.acquire_slot_at(now), model.acquire_slot_at(now), "{context}")
                }
                4 => {
                    let reserve = rng.below(4) as usize;
                    let expected = model.occupancy(now) + reserve < capacity;
                    assert_eq!(buffer.has_free(now, reserve), expected, "{context}");
                }
                _ => assert_eq!(buffer.occupancy(now), model.occupancy(now), "{context}"),
            }
            let probe = now + rng.below(30) as f64 - 10.0;
            let live = model.entries.iter().filter(|&&(_, fill, _)| fill > probe).count();
            assert_eq!(buffer.occupancy_at(probe), live, "{context} probe {probe}");
            assert_eq!(buffer.allocations(), allocations, "{context}");
            assert_eq!(buffer.peak_occupancy(), peak, "{context}");
        }
    }
}

/// The stream prefetcher as it stood before its trackers' regions and
/// LRU stamps moved into flat arrays, kept verbatim as the reference for
/// `StreamPrefetcher`: the tracker search, LRU replacement and issue
/// logic are the originals.
mod reference_prefetcher {
    /// Lines per 4 KiB tracking region.
    const REGION_LINES: u64 = 64;

    #[derive(Debug, Clone, Copy)]
    struct Tracker {
        /// Region id (line number / 64); `u64::MAX` marks an unused tracker.
        region: u64,
        /// Last line number observed for this stream.
        last_line: u64,
        /// Detected stride in lines (may be negative).
        stride: i64,
        /// Consecutive confirmations of the stride.
        confidence: u8,
        /// Next line number to prefetch (frontier of the stream).
        frontier: i64,
        /// LRU stamp for tracker replacement.
        lru: u64,
    }

    const UNUSED: u64 = u64::MAX;

    pub struct ReferencePrefetcher {
        trackers: Vec<Tracker>,
        distance: i64,
        degree: usize,
        cross_page: bool,
        clock: u64,
        issued: u64,
    }

    impl ReferencePrefetcher {
        pub fn new(trackers: usize, distance: u32, degree: u32, cross_page: bool) -> Self {
            assert!(trackers > 0 && distance > 0 && degree > 0);
            ReferencePrefetcher {
                trackers: vec![
                    Tracker {
                        region: UNUSED,
                        last_line: 0,
                        stride: 0,
                        confidence: 0,
                        frontier: 0,
                        lru: 0,
                    };
                    trackers
                ],
                distance: distance as i64,
                degree: degree as usize,
                cross_page,
                clock: 0,
                issued: 0,
            }
        }

        pub fn issued(&self) -> u64 {
            self.issued
        }

        pub fn on_access(&mut self, line: u64, out: &mut Vec<u64>) {
            out.clear();
            self.clock += 1;
            let region = line / REGION_LINES;
            // Find the tracker for this region or an adjacent one the stream
            // may have crossed into.
            let slot = self.trackers.iter().position(|t| {
                t.region != UNUSED
                    && (t.region == region || (self.cross_page && t.region.abs_diff(region) == 1))
            });
            let slot = match slot {
                Some(i) => i,
                None => {
                    // Replace the LRU tracker.
                    let i = (0..self.trackers.len())
                        .min_by_key(|&i| {
                            if self.trackers[i].region == UNUSED {
                                0
                            } else {
                                self.trackers[i].lru + 1
                            }
                        })
                        .expect("trackers non-empty");
                    self.trackers[i] = Tracker {
                        region,
                        last_line: line,
                        stride: 0,
                        confidence: 0,
                        frontier: line as i64,
                        lru: self.clock,
                    };
                    return;
                }
            };
            let t = &mut self.trackers[slot];
            t.lru = self.clock;
            t.region = region;
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
}

/// `StreamPrefetcher` produces the reference's candidate list on every
/// access, and the same `issued()`, over streams that interleave strided
/// runs (both directions, some crossing 4 KiB pages, some at line 0),
/// random jumps and repeats, for 1–16 trackers with and without
/// `cross_page`.
#[test]
fn stream_prefetcher_matches_the_reference_tracker_search() {
    use reference_prefetcher::ReferencePrefetcher;
    let mut issuing_runs = 0;
    for seed in 0..160u64 {
        let mut rng = Rng(seed ^ 0x9f37);
        let trackers = 1 + rng.below(16) as usize;
        let distance = [1, 2, 4, 8, 16, 32][rng.below(6) as usize];
        let degree = [1, 2, 3, 4, 8][rng.below(5) as usize];
        let cross_page = seed % 2 == 0;
        let mut fast = StreamPrefetcher::new(trackers, distance, degree, cross_page);
        let mut reference = ReferencePrefetcher::new(trackers, distance, degree, cross_page);
        // Up to 24 concurrent streams, so that trackers get replaced; each
        // starts near a page boundary, at line 0 or far out.
        let streams = 1 + rng.below(24) as usize;
        let mut cursors: Vec<(u64, i64)> = (0..streams)
            .map(|_| {
                let start = match rng.below(3) {
                    0 => rng.below(4),
                    1 => (1 + rng.below(1 << 20)) * 64 - rng.below(4),
                    _ => rng.below(1 << 40),
                };
                (start, rng.below(9) as i64 - 4)
            })
            .collect();
        let (mut fast_out, mut reference_out) = (Vec::new(), Vec::new());
        for step in 0..2_000 {
            let line = match rng.below(8) {
                0 => rng.below(1 << 24),
                1 => rng.below(256),
                _ => {
                    let (line, stride) = &mut cursors[rng.below(streams as u64) as usize];
                    let at = *line;
                    *line = line.saturating_add_signed(*stride);
                    at
                }
            };
            fast.on_access(line, &mut fast_out);
            reference.on_access(line, &mut reference_out);
            assert_eq!(fast_out, reference_out, "seed {seed} step {step} line {line}");
            assert_eq!(fast.issued(), reference.issued(), "seed {seed} step {step}");
        }
        issuing_runs += (fast.issued() > 0) as u32;
    }
    assert!(issuing_runs > 120, "only {issuing_runs} of 160 runs issued prefetches");
}

/// Weighted interleaving hits the requested ratio in expectation for any
/// percentage.
#[test]
fn interleave_ratio_is_respected() {
    for pct in (1u32..100).step_by(7).chain([1, 50, 99]) {
        let placement = Placement::WeightedInterleave { fast_weight: pct, slow_weight: 100 - pct };
        let mut state = PlacementState::new(placement);
        let fast = (0..20_000u64).filter(|&p| state.tier_of_page(p) == TierId::Fast).count() as f64
            / 20_000.0;
        assert!((fast - pct as f64 / 100.0).abs() < 0.02, "pct {} got {}", pct, fast);
    }
}

/// A trace-backed workload holding `ops`.
fn traced(threads: u32, footprint_bytes: u64, ops: Vec<Op>) -> Traced {
    let trace = Arc::new(OpTrace::from_ops(ops));
    Traced {
        name: "prop".into(),
        threads,
        footprint_bytes,
        trace,
    }
}

/// Traces round-trip arbitrary op streams bit-exactly.
#[test]
fn trace_round_trips_arbitrary_ops() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed ^ 0x7ace);
        let len = rng.below(300) as usize;
        let ops: Vec<Op> = (0..len).map(|_| rng.op(1 << 40)).collect();
        let threads = 1 + rng.below(63) as u32;
        let footprint = rng.below(1 << 45);
        let mut buffer = Vec::new();
        traced(threads, footprint, ops.clone()).write_to(&mut buffer).unwrap();
        let trace = Traced::read_from(buffer.as_slice(), "prop").unwrap();
        assert_eq!(trace.threads(), threads, "seed {seed}");
        assert_eq!(trace.footprint_bytes(), footprint, "seed {seed}");
        let replayed: Vec<Op> = trace.ops().collect();
        assert_eq!(replayed, ops, "seed {seed}");
    }
}

/// The writer rejects what the format cannot hold, writing nothing at
/// all, instead of emitting a trace that replays as different ops: a
/// load dependency over 64 (its tag would overflow the chase range, or
/// the `u8` itself) and a thread count over 16 bits.
#[test]
fn trace_writer_rejects_unencodable_ops_and_headers() {
    for dep in [64u8, 65, 191, 192, 255] {
        let op = Op::Load { addr: 4096, dep };
        let mut buffer = Vec::new();
        let result = traced(1, 1 << 20, vec![Op::load(0), op]).write_to(&mut buffer);
        if dep <= 64 {
            result.unwrap();
            let replayed: Vec<Op> =
                Traced::read_from(buffer.as_slice(), "dep").unwrap().ops().collect();
            assert_eq!(replayed, vec![Op::load(0), op], "dep {dep}");
        } else {
            assert_eq!(result.unwrap_err().kind(), std::io::ErrorKind::InvalidInput, "dep {dep}");
            assert!(buffer.is_empty(), "dep {dep}: nothing written");
        }
    }
    let mut buffer = Vec::new();
    let error = traced(65_536, 1 << 20, vec![]).write_to(&mut buffer).unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert!(buffer.is_empty(), "no header for a rejected thread count");
    traced(65_535, 1 << 20, vec![]).write_to(&mut buffer).unwrap();
    assert_eq!(Traced::read_from(buffer.as_slice(), "threads").unwrap().threads(), 65_535);
}

/// Sweep-line identities: P11 equals the sum of interval lengths (Little's
/// law bookkeeping), P13 never exceeds P11 and never exceeds the overall
/// time span.
#[test]
fn sweep_identities() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed ^ 0x51ee);
        let len = 1 + rng.below(99) as usize;
        let mut starts: Vec<(f64, f64)> =
            (0..len).map(|_| (rng.unit() * 1e5, rng.unit() * 2e3)).collect();
        starts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut sweep = MlpSweep::new();
        let mut total = 0.0;
        let mut span_end = 0.0f64;
        for &(start, len) in &starts {
            sweep.insert(start, start + len);
            total += len;
            span_end = span_end.max(start + len);
        }
        let (p11, p12, p13) = sweep.finish();
        assert!((p11 - total).abs() < 1e-6 * total.max(1.0), "seed {seed}");
        assert_eq!(p12, starts.len() as u64, "seed {seed}");
        assert!(p13 <= p11 + 1e-9, "seed {seed}");
        assert!(p13 <= span_end - starts[0].0 + 1e-9, "seed {seed}");
    }
}
