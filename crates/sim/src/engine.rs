//! The out-of-order core model.
//!
//! A timestamp-algebra simulation: ops are processed in program order, each
//! receiving an issue time (bounded by dispatch order, data dependencies and
//! the reorder-buffer window) and a completion time (from the cache
//! hierarchy, the miss-tracking buffers and the memory devices). Retirement
//! is in order; the gap between an op's completion and its natural retire
//! slot is an exposed stall, attributed to the `STALLS_*` counter matching
//! the deepest level its *demand* request missed — late-prefetch waits are
//! attributed per the platform's counter flavour, which is what lets the
//! paper's `P1−P2` (SKX) / `P2−P3` (SPR/EMR) terms isolate cache slowdown.
//!
//! There is no per-cycle loop: the clock jumps between op events, so a run
//! costs O(ops · log buffers).

use crate::cache::Cache;
use crate::config::{CounterFlavor, DeviceKind, Platform, PlatformConfig, LINE_BYTES};
use crate::error::SimError;
use crate::inflight::{InflightBuffer, Time, WaitClass};
use crate::mem::Device;
use crate::mem::DeviceStats;
use crate::op::{Op, Workload};
use crate::optrace::OpTrace;
use crate::placement::{Placement, PlacementState, TierId};
use crate::prefetch::StreamPrefetcher;
use crate::report::{Epoch, RunReport, TierReport};
use crate::storebuf::StoreBuffer;
use crate::sweep::MlpSweep;
use camp_pmu::{CounterSet, Event};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// A machine configuration: a platform, an optional slow tier, a placement
/// policy, optional colocation background load, and optional epoch
/// sampling. Build one, then [`run`](Machine::run) workloads on it.
///
/// # Example
///
/// ```
/// use camp_sim::{Machine, Platform};
/// use camp_sim::op::{Op, Workload};
///
/// struct Chase;
/// impl Workload for Chase {
///     fn name(&self) -> &str { "chase" }
///     fn footprint_bytes(&self) -> u64 { 1 << 20 }
///     fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
///         Box::new((0..100u64).map(|i| Op::chase((i * 4096 + i * 64) % (1 << 20))))
///     }
/// }
///
/// let report = Machine::dram_only(Platform::Spr2s).run(&Chase);
/// assert!(report.cycles > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    platform: PlatformConfig,
    slow_kind: Option<DeviceKind>,
    placement: Placement,
    fast_background: f64,
    slow_background: f64,
    epoch_period: Option<u64>,
    llc_sharers: Option<u32>,
}

impl Machine {
    /// A machine with all memory on local DRAM.
    pub fn dram_only(platform: Platform) -> Self {
        Machine {
            platform: platform.config(),
            slow_kind: None,
            placement: Placement::FastOnly,
            fast_background: 0.0,
            slow_background: 0.0,
            epoch_period: None,
            llc_sharers: None,
        }
    }

    /// A machine with all memory on the given slow tier.
    pub fn slow_only(platform: Platform, kind: DeviceKind) -> Self {
        Machine::dram_only(platform)
            .with_slow_device(kind)
            .with_placement(Placement::SlowOnly)
    }

    /// A machine interleaving pages between DRAM and `kind` with DRAM
    /// fraction `x` (see [`Placement::interleave_ratio`]).
    pub fn interleaved(platform: Platform, kind: DeviceKind, x: f64) -> Self {
        Machine::dram_only(platform)
            .with_slow_device(kind)
            .with_placement(Placement::interleave_ratio(x))
    }

    /// Sets the slow-tier device.
    pub fn with_slow_device(mut self, kind: DeviceKind) -> Self {
        self.slow_kind = Some(kind);
        self
    }

    /// Sets the page placement policy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Models colocated interference: the fraction of each tier's bandwidth
    /// consumed by other workloads (`[0, 0.95]`).
    pub fn with_background(mut self, fast: f64, slow: f64) -> Self {
        self.fast_background = fast;
        self.slow_background = slow;
        self
    }

    /// Enables epoch sampling, the simulated analogue of the paper's PMU
    /// sampling run: an epoch closes at the first op that retires at or
    /// after the previous close plus `period_cycles`, and a final partial
    /// epoch closes when the run ends. Each [`Epoch`] in
    /// [`RunReport::epochs`] holds its counter and device deltas and the
    /// miss-buffer occupancy at its period boundary. Sampling only reads
    /// the engine, so a sampled run computes exactly what an unsampled one
    /// does. Disabled by default; when disabled the engine pays one
    /// predicted-false comparison per op. A zero period is rejected by
    /// [`Machine::validate`].
    pub fn with_epochs(mut self, period_cycles: u64) -> Self {
        self.epoch_period = Some(period_cycles);
        self
    }

    /// Overrides the number of threads sharing the LLC (for colocation:
    /// the partner workload's threads also occupy the cache even when it
    /// runs on the other tier). Defaults to the workload's own thread
    /// count.
    pub fn with_llc_sharers(mut self, sharers: u32) -> Self {
        self.llc_sharers = Some(sharers.max(1));
        self
    }

    /// Overrides the platform configuration (for what-if studies on buffer
    /// sizes and prefetch distances).
    pub fn with_platform_config(mut self, config: PlatformConfig) -> Self {
        self.platform = config;
        self
    }

    /// The platform configuration in effect.
    pub fn platform_config(&self) -> &PlatformConfig {
        &self.platform
    }

    /// Validates the machine configuration against `workload` without
    /// running anything: platform/device parameters, placement vs slow
    /// device, background utilisations, and the workload footprint. This
    /// is the complete precondition of [`Machine::try_run`]; when it
    /// passes, no assertion inside the engine can fire.
    pub fn validate(&self, workload: &dyn Workload) -> Result<(), SimError> {
        self.platform.validate()?;
        if let Some(kind) = self.slow_kind {
            kind.config_for(self.platform.platform).validate()?;
        }
        if self.placement.uses_slow_tier() && self.slow_kind.is_none() {
            return Err(SimError::MissingSlowDevice);
        }
        for (tier, value) in [
            ("fast", self.fast_background),
            ("slow", self.slow_background),
        ] {
            if !(value.is_finite() && (0.0..=0.95).contains(&value)) {
                return Err(SimError::InvalidBackgroundUtilisation { tier, value });
            }
        }
        if workload.footprint_bytes() == 0 {
            return Err(SimError::EmptyFootprint { workload: workload.name().to_string() });
        }
        if self.epoch_period == Some(0) {
            return Err(SimError::InvalidSamplingPeriod);
        }
        Ok(())
    }

    /// Runs a workload to completion and reports counters and statistics,
    /// rejecting invalid configurations with a typed [`SimError`] instead
    /// of panicking. See [`Machine::validate`] for the checks performed.
    pub fn try_run(&self, workload: &dyn Workload) -> Result<RunReport, SimError> {
        self.validate(workload)?;
        let trace = workload.trace();
        Ok(self.run_trace_unchecked(workload, &trace))
    }

    /// Runs a workload to completion and reports counters and statistics.
    ///
    /// Hot-path buffers (cache slots, fill slab, prefetch candidate lists,
    /// ROB history, the MLP sweep heap) are reused across runs through a
    /// thread-local scratch arena, so sweeping many workloads on one
    /// thread allocates only once; runs on different threads are fully
    /// independent.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`Machine::try_run`] would reject —
    /// most commonly a placement that routes pages to a slow tier with no
    /// slow device configured.
    pub fn run(&self, workload: &dyn Workload) -> RunReport {
        let trace = workload.trace();
        self.run_trace(workload, &trace)
    }

    /// Runs a workload from an explicit packed trace (see
    /// [`Workload::trace`]). [`Machine::run`] is this plus trace
    /// resolution; callers that already hold a shared trace (the
    /// experiment harness's cache, benchmarks) skip the resolution.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`Machine::try_run`] would reject.
    pub fn run_trace(&self, workload: &dyn Workload, trace: &OpTrace) -> RunReport {
        if let Err(error) = self.validate(workload) {
            panic!("invalid machine configuration: {error}");
        }
        self.run_trace_unchecked(workload, trace)
    }

    fn run_trace_unchecked(&self, workload: &dyn Workload, trace: &OpTrace) -> RunReport {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            Engine::new(self, workload, &mut scratch).execute(workload, trace)
        })
    }
}

/// Reusable engine buffers, kept per thread so consecutive runs pay no
/// allocation churn (clear-don't-drop: `Engine::new` clears contents but
/// keeps capacity).
#[derive(Debug, Default)]
struct Scratch {
    /// L1, L2 and L3 slot storage, lent to the run's caches
    /// ([`Cache::reusing`]) and returned by `Engine::finish`. Geometry
    /// varies with platform and LLC sharers, so each run re-fits them.
    /// Freeing them instead would hand the allocator an LLC array (up to
    /// ~21 MB on EMR2S) that its next `calloc` zeroes in place, making
    /// every page resident.
    cache_slots: [Vec<u64>; 3],
    fills: BinaryHeap<Reverse<(Time, u64)>>,
    fill_slab: Vec<Fill>,
    pf_candidates: Vec<u64>,
    l2pf_candidates: Vec<u64>,
    recent_load_completions: VecDeque<f64>,
    rob_history: VecDeque<(u64, f64)>,
    sweep: MlpSweep,
}

impl Scratch {
    fn clear(&mut self) {
        self.fills.clear();
        self.fill_slab.clear();
        self.pf_candidates.clear();
        self.l2pf_candidates.clear();
        self.recent_load_completions.clear();
        self.rob_history.clear();
        self.sweep.reset();
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Pending cache-fill event.
#[derive(Debug, Clone, Copy)]
struct Fill {
    line: u64,
    /// Bitmask: 1 = L1, 2 = L2, 4 = L3.
    levels: u8,
    dirty: bool,
}

const FILL_L1: u8 = 1;
const FILL_L2: u8 = 2;
const FILL_L3: u8 = 4;

/// Fractional-cycle accumulators, rounded into the integer counter set
/// whenever the counters are read.
#[derive(Debug, Default, Clone, Copy)]
struct StallAccum {
    l1: f64,
    l2: f64,
    l3: f64,
    sb: f64,
}

struct Engine<'a> {
    cfg: &'a PlatformConfig,
    counters: CounterSet,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    lfb: InflightBuffer,
    sq: InflightBuffer,
    uncore_pf: InflightBuffer,
    sb: StoreBuffer,
    rfo_inflight: InflightBuffer,
    l1pf: StreamPrefetcher,
    l2pf: StreamPrefetcher,
    fast: Device,
    slow: Option<Device>,
    placement: PlacementState,
    scratch: &'a mut Scratch,
    stalls: StallAccum,
    issue_cursor: f64,
    retire_t: f64,
    inst_count: u64,
    rob_floor: f64,
    /// Epoch period in cycles, when sampling.
    epoch_period: Option<u64>,
    /// Cumulative records (each covering `[0, close)`), one per closed
    /// epoch; `finish` turns them into per-epoch deltas.
    closes: Vec<Epoch>,
    /// Cycle at which the next epoch closes (`f64::INFINITY` when not
    /// sampling), cached so the per-op check is one predicted-false float
    /// comparison.
    epoch_boundary: f64,
    /// Demand loads that coalesced onto a still-inflight prefetch (late
    /// prefetches). Engine-local rather than a PMU event so the counter
    /// set stays the paper's Table 5.
    pf_late: u64,
    retire_cost: f64,
}

impl<'a> Engine<'a> {
    fn new(machine: &'a Machine, workload: &dyn Workload, scratch: &'a mut Scratch) -> Self {
        scratch.clear();
        let cfg = &machine.platform;
        let threads = workload.threads().max(1);
        // The LLC is shared: each of the symmetric threads gets an equal
        // share of capacity.
        let llc_sharers = machine.llc_sharers.unwrap_or(threads).max(threads);
        let mut l3_geometry = cfg.l3;
        l3_geometry.capacity_bytes =
            (cfg.l3.capacity_bytes / llc_sharers as u64).max(cfg.l3.ways as u64 * LINE_BYTES);
        // Cross-thread device contention is apportioned by each tier's
        // traffic share: the other threads are statistically
        // desynchronised, so a tier holding fraction f of the footprint
        // serves 1 + (threads-1)*f competing streams. This is what lets
        // weighted interleaving aggregate the bandwidth of both tiers.
        let total_pages = (workload.footprint_bytes() / crate::config::PAGE_BYTES).max(1);
        let fast_fraction = machine.placement.expected_fast_fraction(total_pages);
        let fast_sharers = 1.0 + (threads - 1) as f64 * fast_fraction;
        let slow_sharers = 1.0 + (threads - 1) as f64 * (1.0 - fast_fraction);
        let slow = machine.slow_kind.map(|kind| {
            Device::new(kind.config_for(cfg.platform), cfg, slow_sharers, machine.slow_background)
        });
        let [l1_slots, l2_slots, l3_slots] = std::mem::take(&mut scratch.cache_slots);
        Engine {
            cfg,
            counters: CounterSet::new(),
            l1: Cache::reusing(cfg.l1, l1_slots),
            l2: Cache::reusing(cfg.l2, l2_slots),
            l3: Cache::reusing(l3_geometry, l3_slots),
            lfb: InflightBuffer::new(cfg.lfb_entries as usize),
            sq: InflightBuffer::new(cfg.sq_entries as usize),
            uncore_pf: InflightBuffer::new(cfg.uncore_pf_entries as usize),
            sb: StoreBuffer::new(cfg.sb_entries as usize, cfg.sb_drain_parallelism as usize),
            rfo_inflight: InflightBuffer::new(cfg.sb_entries as usize),
            l1pf: StreamPrefetcher::new(16, cfg.l1_pf_distance, cfg.l1_pf_degree, false),
            l2pf: StreamPrefetcher::new(16, cfg.l2_pf_distance, cfg.l2_pf_degree, true),
            fast: Device::new(cfg.dram, cfg, fast_sharers, machine.fast_background),
            slow,
            placement: PlacementState::new(machine.placement.clone()),
            scratch,
            stalls: StallAccum::default(),
            issue_cursor: 0.0,
            retire_t: 0.0,
            inst_count: 0,
            rob_floor: 0.0,
            epoch_period: machine.epoch_period,
            closes: Vec::new(),
            epoch_boundary: machine.epoch_period.map_or(f64::INFINITY, |p| p as f64),
            pf_late: 0,
            retire_cost: 1.0 / cfg.retire_width as f64,
        }
    }

    // ---- fills --------------------------------------------------------

    fn schedule_fill(&mut self, time: f64, line: u64, levels: u8, dirty: bool) {
        let idx = self.scratch.fill_slab.len() as u64;
        self.scratch.fill_slab.push(Fill { line, levels, dirty });
        self.scratch.fills.push(Reverse((Time::new(time), idx)));
    }

    /// Installs all fills due by `now` into the cache hierarchy, cascading
    /// dirty victims downward (and to the devices for L3 victims).
    fn apply_fills(&mut self, now: f64) {
        while let Some(&Reverse((Time(t), idx))) = self.scratch.fills.peek() {
            if t > now {
                break;
            }
            self.scratch.fills.pop();
            let fill = self.scratch.fill_slab[idx as usize];
            if fill.levels & FILL_L3 != 0 {
                self.install_l3(fill.line, fill.dirty && fill.levels == FILL_L3, t);
            }
            if fill.levels & FILL_L2 != 0 {
                self.install_l2(fill.line, fill.dirty && fill.levels & FILL_L1 == 0, t);
            }
            if fill.levels & FILL_L1 != 0 {
                self.install_l1(fill.line, fill.dirty, t);
            }
        }
        // Slab entries are addressed only through the heap: once it drains,
        // recycle the slab so it stays bounded by the in-flight window
        // instead of growing with the run length.
        if self.scratch.fills.is_empty() {
            self.scratch.fill_slab.clear();
        }
    }

    fn install_l1(&mut self, line: u64, dirty: bool, now: f64) {
        if let Some(victim) = self.l1.insert(line, dirty) {
            if victim.dirty {
                // Write back into L2.
                if !self.l2.mark_dirty(victim.line_addr) {
                    self.install_l2(victim.line_addr, true, now);
                }
            }
        }
    }

    fn install_l2(&mut self, line: u64, dirty: bool, now: f64) {
        if let Some(victim) = self.l2.insert(line, dirty) {
            if victim.dirty && !self.l3.mark_dirty(victim.line_addr) {
                self.install_l3(victim.line_addr, true, now);
            }
        }
    }

    fn install_l3(&mut self, line: u64, dirty: bool, now: f64) {
        if let Some(victim) = self.l3.insert(line, dirty) {
            if victim.dirty {
                let tier = self.placement.tier_of_addr(victim.line_addr);
                self.device(tier).write(now);
            }
        }
    }

    fn device(&mut self, tier: TierId) -> &mut Device {
        match tier {
            TierId::Fast => &mut self.fast,
            TierId::Slow => self.slow.as_mut().expect("slow tier accessed without a slow device"),
        }
    }

    // ---- stall attribution --------------------------------------------

    fn attribute_stall(&mut self, class: WaitClass, stall: f64) {
        if stall <= 0.0 {
            return;
        }
        match class {
            WaitClass::None => {}
            WaitClass::DemandL2 => self.stalls.l1 += stall,
            WaitClass::DemandL3 => {
                self.stalls.l1 += stall;
                self.stalls.l2 += stall;
            }
            WaitClass::DemandMem => {
                self.stalls.l1 += stall;
                self.stalls.l2 += stall;
                self.stalls.l3 += stall;
            }
            WaitClass::Prefetch => match self.cfg.counter_flavor {
                CounterFlavor::Skx => self.stalls.l1 += stall,
                CounterFlavor::SprEmr => {
                    self.stalls.l1 += stall;
                    self.stalls.l2 += stall;
                }
            },
        }
    }

    // ---- prefetch issue -----------------------------------------------

    /// Issues L1 hardware prefetches for candidate lines (line numbers).
    fn issue_l1_prefetches(&mut self, now: f64) {
        let candidates = std::mem::take(&mut self.scratch.pf_candidates);
        for &line_no in &candidates {
            let line = line_no * LINE_BYTES;
            if self.l1.peek(line) || self.lfb.lookup(line, now).is_some() {
                continue;
            }
            // Prefetches never starve demand: keep two LFB entries free.
            if !self.lfb.has_free(now, 2) {
                break;
            }
            if self.l2.probe(line) {
                let fill = now + self.cfg.l2.hit_latency as f64;
                self.lfb.allocate(line, fill, WaitClass::Prefetch);
                self.schedule_fill(fill, line, FILL_L1, false);
                continue;
            }
            // Offcore L1 prefetch: tracked by the uncore.
            if self.uncore_pf.lookup(line, now).is_some() || self.sq.lookup(line, now).is_some() {
                // Someone is already fetching this line; ride it.
                continue;
            }
            self.train_l2_prefetcher(line_no, now);
            if !self.uncore_pf.has_free(now, 0) {
                continue;
            }
            self.counters.incr(Event::PfL1dAnyResponse);
            self.counters.incr(Event::LlcLookupAll);
            self.counters.incr(Event::LlcLookupPfRd);
            let fill = if self.l3.probe(line) {
                self.counters.incr(Event::PfL1dL3Hit);
                self.counters.incr(Event::TorInsIaHitPref);
                let fill = now + self.cfg.l3.hit_latency as f64;
                self.schedule_fill(fill, line, FILL_L1 | FILL_L2, false);
                fill
            } else {
                self.counters.incr(Event::TorInsIaPref);
                let tier = self.placement.tier_of_addr(line);
                let arrival = now + self.cfg.l3.hit_latency as f64;
                let fill = self.device(tier).read(arrival);
                self.schedule_fill(fill, line, FILL_L1 | FILL_L2 | FILL_L3, false);
                fill
            };
            self.uncore_pf.allocate(line, fill, WaitClass::Prefetch);
            self.lfb.allocate(line, fill, WaitClass::Prefetch);
        }
        self.scratch.pf_candidates = candidates;
    }

    /// Trains the L2 prefetcher on an L2 access and issues its candidates.
    fn train_l2_prefetcher(&mut self, line_no: u64, now: f64) {
        let mut candidates = std::mem::take(&mut self.scratch.l2pf_candidates);
        candidates.clear();
        self.l2pf.on_access(line_no, &mut candidates);
        for &line_no in &candidates {
            let line = line_no * LINE_BYTES;
            if self.l2.peek(line)
                || self.sq.lookup(line, now).is_some()
                || self.uncore_pf.lookup(line, now).is_some()
            {
                continue;
            }
            if !self.uncore_pf.has_free(now, 0) {
                break;
            }
            self.counters.incr(Event::PfL2AnyResponse);
            self.counters.incr(Event::LlcLookupAll);
            self.counters.incr(Event::LlcLookupPfRd);
            let fill = if self.l3.probe(line) {
                self.counters.incr(Event::PfL2L3Hit);
                self.counters.incr(Event::TorInsIaHitPref);
                let fill = now + self.cfg.l3.hit_latency as f64;
                self.schedule_fill(fill, line, FILL_L2, false);
                fill
            } else {
                self.counters.incr(Event::TorInsIaPref);
                let tier = self.placement.tier_of_addr(line);
                let arrival = now + self.cfg.l3.hit_latency as f64;
                let fill = self.device(tier).read(arrival);
                self.schedule_fill(fill, line, FILL_L2 | FILL_L3, false);
                fill
            };
            self.uncore_pf.allocate(line, fill, WaitClass::Prefetch);
        }
        self.scratch.l2pf_candidates = candidates;
    }

    // ---- demand load --------------------------------------------------

    /// Returns `(completion time, wait class)` for a demand load issued at
    /// `issue_t`.
    fn demand_load(&mut self, addr: u64, issue_t: f64) -> (f64, WaitClass) {
        let line = addr & !(LINE_BYTES - 1);
        let line_no = line / LINE_BYTES;
        self.apply_fills(issue_t);
        self.counters.incr(Event::DemandLoads);
        let l1_lat = self.cfg.l1.hit_latency as f64;

        let result = if self.l1.probe(line) {
            self.counters.incr(Event::L1dHit);
            (issue_t + l1_lat, WaitClass::None)
        } else if let Some(entry) = self.lfb.lookup(line, issue_t) {
            self.counters.incr(Event::LfbHit);
            if entry.wait_class == WaitClass::Prefetch {
                self.pf_late += 1;
            }
            (entry.fill_time.max(issue_t + l1_lat), entry.wait_class)
        } else {
            let alloc_t = self.lfb.acquire_slot_at(issue_t);
            self.apply_fills(alloc_t);
            if self.l2.probe(line) {
                self.counters.incr(Event::L1Miss);
                let fill = alloc_t + self.cfg.l2.hit_latency as f64;
                self.lfb.allocate(line, fill, WaitClass::DemandL2);
                self.schedule_fill(fill, line, FILL_L1, false);
                self.train_l2_prefetcher(line_no, alloc_t);
                (fill, WaitClass::DemandL2)
            } else {
                self.train_l2_prefetcher(line_no, alloc_t);
                let inbound =
                    self.uncore_pf.lookup(line, alloc_t).or_else(|| self.sq.lookup(line, alloc_t));
                if let Some(entry) = inbound {
                    // Line already inbound from a prefetcher: the load is
                    // served by a transient fill buffer, not a cache —
                    // Intel's FB_HIT semantics — and the wait is a
                    // late-prefetch (cache-slowdown) stall.
                    self.counters.incr(Event::LfbHit);
                    self.pf_late += 1;
                    let fill = entry.fill_time.max(alloc_t + self.cfg.l2.hit_latency as f64);
                    self.lfb.allocate(line, fill, WaitClass::Prefetch);
                    self.schedule_fill(fill, line, FILL_L1, false);
                    (fill, WaitClass::Prefetch)
                } else {
                    self.counters.incr(Event::L1Miss);
                    let sq_t = self.sq.acquire_slot_at(alloc_t);
                    self.apply_fills(sq_t);
                    self.counters.incr(Event::LlcLookupAll);
                    let (fill, class) = if self.l3.probe(line) {
                        let fill = sq_t + self.cfg.l3.hit_latency as f64;
                        self.schedule_fill(fill, line, FILL_L1 | FILL_L2, false);
                        (fill, WaitClass::DemandL3)
                    } else {
                        let tier = self.placement.tier_of_addr(line);
                        let arrival = sq_t + self.cfg.l3.hit_latency as f64;
                        let fill = self.device(tier).read(arrival);
                        self.schedule_fill(fill, line, FILL_L1 | FILL_L2 | FILL_L3, false);
                        (fill, WaitClass::DemandMem)
                    };
                    // Offcore demand read: occupancy interval for the
                    // latency/MLP counters.
                    self.scratch.sweep.insert(sq_t, fill);
                    self.sq.allocate(line, fill, class);
                    self.lfb.allocate(line, fill, class);
                    (fill, class)
                }
            }
        };

        // Train the L1 prefetcher on every demand load and issue.
        let mut candidates = std::mem::take(&mut self.scratch.pf_candidates);
        self.l1pf.on_access(line_no, &mut candidates);
        self.scratch.pf_candidates = candidates;
        if !self.scratch.pf_candidates.is_empty() {
            self.issue_l1_prefetches(issue_t);
        }
        result
    }

    // ---- store --------------------------------------------------------

    /// Processes a store retiring at its natural slot `natural`; returns
    /// the time retirement can proceed (admission into the SB).
    fn store(&mut self, addr: u64, natural: f64) -> f64 {
        let line = addr & !(LINE_BYTES - 1);
        self.counters.incr(Event::Stores);
        let admit_t = self.sb.admit(natural);
        if admit_t > natural {
            self.stalls.sb += admit_t - natural;
        }
        // Drain timing (background, does not block retirement).
        if let Some(rfo) = self.rfo_inflight.lookup(line, admit_t) {
            // Coalesce with an in-flight RFO to the same line: the entry
            // frees when that line arrives, without a drain slot of its own.
            self.sb.complete_fast(rfo.fill_time.max(admit_t));
            return admit_t;
        }
        let drain_t = self.sb.rfo_issue_at(admit_t);
        self.apply_fills(drain_t);
        if self.l1.probe(line) {
            self.l1.mark_dirty(line);
            self.sb.complete_fast(drain_t + 1.0);
        } else if self.l2.probe(line) {
            self.l2.mark_dirty(line);
            self.sb.complete_fast(drain_t + self.cfg.l2.hit_latency as f64);
        } else if let Some(entry) = self.lfb.lookup(line, drain_t) {
            // Line already being loaded; own it when it arrives.
            let t = entry.fill_time.max(drain_t);
            self.schedule_fill(t, line, FILL_L1, true);
            self.sb.complete_fast(t);
        } else if self.l3.probe(line) {
            let t = drain_t + self.cfg.l3.hit_latency as f64;
            self.schedule_fill(t, line, FILL_L1 | FILL_L2, true);
            self.sb.complete_fast(t);
        } else {
            // A true offcore RFO: occupies a drain slot until the line
            // arrives from its tier.
            self.counters.incr(Event::RfoRequests);
            let tier = self.placement.tier_of_addr(line);
            let arrival = drain_t + self.cfg.l3.hit_latency as f64;
            let t = self.device(tier).rfo(arrival);
            self.schedule_fill(t, line, FILL_L1 | FILL_L2 | FILL_L3, true);
            if self.rfo_inflight.occupancy(admit_t) < self.cfg.sb_entries as usize {
                self.rfo_inflight.allocate(line, t, WaitClass::None);
            }
            self.sb.complete(t);
        }
        admit_t
    }

    // ---- sampling -----------------------------------------------------

    /// The counter set as of the retire clock: the event counts plus the
    /// rounded stall accumulators and the sweep's occupancy totals. Reads
    /// the engine without changing it, so sampling cannot perturb the run.
    fn counters_now(&self) -> CounterSet {
        let mut c = self.counters.clone();
        c.set(Event::Cycles, self.retire_t.round() as u64);
        c.set(Event::Instructions, self.inst_count);
        c.set(Event::StallsL1dMiss, self.stalls.l1.round() as u64);
        c.set(Event::StallsL2Miss, self.stalls.l2.round() as u64);
        c.set(Event::StallsL3Miss, self.stalls.l3.round() as u64);
        c.set(Event::BoundOnStores, self.stalls.sb.round() as u64);
        let (p11, p12, p13) = self.scratch.sweep.snapshot(self.retire_t);
        c.set(Event::OroDemandRd, p11.round() as u64);
        c.set(Event::OrDemandRd, p12);
        c.set(Event::OroCycWDemandRd, p13.round() as u64);
        c
    }

    /// The run so far as one cumulative record covering `[0, retire_t)`,
    /// with the buffers' occupancy at cycle `at` read through their
    /// non-mutating `occupancy_at` (a release here would evict entries
    /// that lagging issue-time lookups still coalesce on).
    fn cumulative_epoch(&self, counters: CounterSet, at: f64) -> Epoch {
        Epoch {
            start_cycle: 0,
            end_cycle: self.retire_t as u64,
            counters,
            lfb: self.lfb.occupancy_at(at),
            sq: self.sq.occupancy_at(at),
            sb: self.sb.occupancy_at(at),
            uncore_pf: self.uncore_pf.occupancy_at(at),
            pf_late: self.pf_late,
            fast: *self.fast.stats(),
            slow: self.slow.as_ref().map_or_else(DeviceStats::default, |d| *d.stats()),
        }
    }

    /// Closes the current epoch at the retire clock, which the last op
    /// moved past the period boundary. Occupancy is read at the boundary
    /// itself, the instant a sampling timer would fire: by the time an op
    /// retires, the misses it waited on have filled. One op can jump
    /// retirement across several periods (a long memory stall); that
    /// still closes one epoch, and the next closes a period later.
    #[cold]
    fn close_epoch(&mut self) {
        let close = self.cumulative_epoch(self.counters_now(), self.epoch_boundary);
        let period = self.epoch_period.expect("epoch boundary finite only when sampling");
        self.epoch_boundary = (close.end_cycle + period) as f64;
        self.closes.push(close);
    }

    // ---- main loop ----------------------------------------------------

    /// Ops ingested per batch: large enough that the per-batch loop
    /// overhead vanishes, small enough that a batch's packed records stay
    /// L1-resident while they decode.
    const OP_BATCH: usize = 4096;

    fn execute(mut self, workload: &dyn Workload, trace: &OpTrace) -> RunReport {
        let window = self.cfg.sched_window as u64;
        // Batched slice ingestion: the hottest loop in the simulator walks
        // flat 12-byte records with an inlined decode, not a boxed virtual
        // iterator over 16-byte enums.
        for batch in trace.packed().chunks(Self::OP_BATCH) {
            for packed in batch {
                self.step(packed.decode(), window);
            }
        }
        self.finish(workload)
    }

    #[inline]
    fn step(&mut self, op: Op, window: u64) {
        // Scheduler window: instruction i may issue only once
        // instruction i - sched_window has retired.
        while let Some(&(idx, t)) = self.scratch.rob_history.front() {
            if idx + window <= self.inst_count {
                self.rob_floor = self.rob_floor.max(t);
                self.scratch.rob_history.pop_front();
            } else {
                break;
            }
        }
        match op {
            Op::Compute { cycles } => {
                let cycles = cycles as f64;
                self.issue_cursor =
                    (self.issue_cursor + cycles * self.retire_cost).max(self.rob_floor);
                self.retire_t += cycles;
                self.inst_count += op.instructions();
            }
            Op::Load { addr, dep } => {
                let mut issue_t = (self.issue_cursor + self.retire_cost).max(self.rob_floor);
                if dep > 0 {
                    // Depend on the dep-th previous load's data.
                    let n = self.scratch.recent_load_completions.len();
                    if let Some(&ready) = n
                        .checked_sub(dep as usize)
                        .and_then(|i| self.scratch.recent_load_completions.get(i))
                    {
                        issue_t = issue_t.max(ready);
                    }
                }
                self.issue_cursor = issue_t;
                let (complete, class) = self.demand_load(addr, issue_t);
                if self.scratch.recent_load_completions.len() == 64 {
                    self.scratch.recent_load_completions.pop_front();
                }
                self.scratch.recent_load_completions.push_back(complete);
                let natural = self.retire_t + self.retire_cost;
                if complete > natural {
                    self.attribute_stall(class, complete - natural);
                    self.retire_t = complete;
                } else {
                    self.retire_t = natural;
                }
                self.inst_count += 1;
            }
            Op::Store { addr } => {
                self.issue_cursor = (self.issue_cursor + self.retire_cost).max(self.rob_floor);
                let natural = self.retire_t + self.retire_cost;
                let admit_t = self.store(addr, natural);
                self.retire_t = admit_t.max(natural);
                self.inst_count += 1;
            }
        }
        self.scratch.rob_history.push_back((self.inst_count, self.retire_t));
        if self.retire_t >= self.epoch_boundary {
            self.close_epoch();
        }
    }

    fn finish(mut self, workload: &dyn Workload) -> RunReport {
        self.counters = self.counters_now();
        let epochs = if self.epoch_period.is_some() {
            // The final partial epoch. A close in the same cycle as the
            // last one replaces it: the deltas still sum to the run's
            // totals without an empty epoch.
            let close = self.cumulative_epoch(self.counters.clone(), self.retire_t);
            if self.closes.last().is_some_and(|last| last.end_cycle == close.end_cycle) {
                self.closes.pop();
            }
            self.closes.push(close);
            let origin = Epoch::default();
            std::iter::once(&origin)
                .chain(&self.closes)
                .zip(&self.closes)
                .map(|(earlier, close)| close.since(earlier))
                .collect()
        } else {
            Vec::new()
        };
        self.scratch.cache_slots = [
            self.l1.into_slots(),
            self.l2.into_slots(),
            self.l3.into_slots(),
        ];
        let cfg = self.cfg;
        let fast_stats = *self.fast.stats();
        let slow_tier = self.slow.as_ref().map(|device| TierReport {
            device: device.config().kind,
            stats: *device.stats(),
            idle_latency_cycles: device.idle_latency(),
        });
        RunReport {
            workload: workload.name().to_string(),
            platform: cfg.platform,
            threads: workload.threads().max(1),
            counters: self.counters,
            cycles: self.retire_t,
            instructions: self.inst_count,
            seconds: cfg.cycles_to_seconds(self.retire_t),
            fast_tier: TierReport {
                device: DeviceKind::LocalDram,
                stats: fast_stats,
                idle_latency_cycles: self.fast.idle_latency(),
            },
            slow_tier,
            epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pointer chase over `lines` distinct lines, visiting each once per
    /// round in a fixed pseudo-random order.
    struct Chase {
        lines: u64,
        rounds: u64,
    }

    impl Workload for Chase {
        fn name(&self) -> &str {
            "unit-chase"
        }
        fn footprint_bytes(&self) -> u64 {
            self.lines * LINE_BYTES
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            let lines = self.lines;
            Box::new((0..self.rounds).flat_map(move |_| {
                (0..lines).map(move |i| {
                    // Multiplicative stride visits all lines when the
                    // multiplier is coprime with `lines`.
                    let line = (i.wrapping_mul(48271)) % lines;
                    Op::chase(line * LINE_BYTES)
                })
            }))
        }
    }

    /// A dense independent-load stream over distinct lines (high MLP).
    struct Gups {
        lines: u64,
        count: u64,
    }

    impl Workload for Gups {
        fn name(&self) -> &str {
            "unit-gups"
        }
        fn footprint_bytes(&self) -> u64 {
            self.lines * LINE_BYTES
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            let lines = self.lines;
            Box::new(
                (0..self.count)
                    .map(move |i| Op::load((i.wrapping_mul(2654435761) % lines) * LINE_BYTES)),
            )
        }
    }

    /// Back-to-back stores (memset).
    struct Memset {
        bytes: u64,
    }

    impl Workload for Memset {
        fn name(&self) -> &str {
            "unit-memset"
        }
        fn footprint_bytes(&self) -> u64 {
            self.bytes
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            Box::new((0..self.bytes / 8).map(|i| Op::store(i * 8)))
        }
    }

    /// Sequential reads with a little compute per element.
    struct Stream {
        bytes: u64,
        compute: u32,
    }

    impl Workload for Stream {
        fn name(&self) -> &str {
            "unit-stream"
        }
        fn footprint_bytes(&self) -> u64 {
            self.bytes
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            let compute = self.compute;
            Box::new(
                (0..self.bytes / 8)
                    .flat_map(move |i| [Op::load(i * 8), Op::compute(compute)].into_iter()),
            )
        }
    }

    fn dram(p: Platform) -> Machine {
        Machine::dram_only(p)
    }

    fn cxl(p: Platform) -> Machine {
        Machine::slow_only(p, DeviceKind::CxlA)
    }

    #[test]
    fn compute_only_runs_at_ipc_one() {
        struct Pure;
        impl Workload for Pure {
            fn name(&self) -> &str {
                "pure"
            }
            fn footprint_bytes(&self) -> u64 {
                // Declares one line even though no memory op touches it:
                // zero-byte footprints are rejected at validation time.
                LINE_BYTES
            }
            fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
                Box::new(std::iter::repeat_n(Op::compute(10), 100))
            }
        }
        let report = dram(Platform::Spr2s).run(&Pure);
        assert_eq!(report.instructions, 1000);
        assert!((report.cycles - 1000.0).abs() < 1e-6);
        assert!((report.ipc() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn pointer_chase_mlp_is_near_one() {
        // Footprint 4 MiB >> L1/L2, fits nowhere on a shared L3 slice.
        let report = dram(Platform::Spr2s).run(&Chase { lines: 1 << 16, rounds: 4 });
        let mlp = report.mlp().expect("offcore reads happened");
        assert!(mlp < 1.3, "pointer chase should serialise, mlp = {mlp}");
    }

    #[test]
    fn independent_loads_achieve_high_mlp() {
        let report = dram(Platform::Spr2s).run(&Gups { lines: 1 << 16, count: 200_000 });
        let mlp = report.mlp().expect("offcore reads happened");
        assert!(mlp > 6.0, "independent misses should overlap, mlp = {mlp}");
    }

    #[test]
    fn chase_on_cxl_is_much_slower_than_dram() {
        let w = Chase { lines: 1 << 15, rounds: 4 };
        let d = dram(Platform::Spr2s).run(&w);
        let c = cxl(Platform::Spr2s).run(&w);
        let slowdown = c.slowdown_vs(&d);
        // CXL-A idle latency is ~1.9x DRAM on SPR; a serialised chase
        // should expose most of it.
        assert!(slowdown > 0.4, "slowdown = {slowdown}");
        // And demand-read stalls should dominate the delta.
        let d3 = d.counters[Event::StallsL3Miss] as f64;
        let c3 = c.counters[Event::StallsL3Miss] as f64;
        assert!(c3 > d3 * 1.3);
    }

    #[test]
    fn memset_exposes_store_buffer_backpressure() {
        let w = Memset { bytes: 1 << 22 };
        let report = dram(Platform::Spr2s).run(&w);
        let sb = report.counters[Event::BoundOnStores] as f64;
        assert!(
            sb / report.cycles > 0.3,
            "memset should be SB-bound, fraction = {}",
            sb / report.cycles
        );
        // And slower on CXL.
        let slow = cxl(Platform::Spr2s).run(&w);
        assert!(slow.slowdown_vs(&report) > 0.3);
    }

    #[test]
    fn streaming_reads_are_covered_by_prefetch_on_dram() {
        let w = Stream { bytes: 1 << 22, compute: 4 };
        let report = dram(Platform::Spr2s).run(&w);
        // Prefetchers plus out-of-order run-ahead should hide nearly all of
        // DRAM latency: loads are served by L1 or by in-flight fill-buffer
        // entries, and exposed memory stalls are a small share of runtime.
        let covered = (report.counters[Event::L1dHit] + report.counters[Event::LfbHit]) as f64;
        let loads = report.counters[Event::DemandLoads] as f64;
        assert!(covered / loads > 0.9, "coverage = {}", covered / loads);
        assert!(report.counters[Event::PfL2AnyResponse] > 0);
        let stall_frac = report.counters[Event::StallsL1dMiss] as f64 / report.cycles;
        assert!(stall_frac < 0.35, "DRAM stream stall fraction {stall_frac}");
    }

    #[test]
    fn streaming_on_cxl_suffers_cache_stalls() {
        // Late prefetches surface as demand waits on in-flight prefetched
        // lines — the paper's cache-slowdown component (P2 - P3 on SPR).
        let w = Stream { bytes: 1 << 22, compute: 4 };
        let d = dram(Platform::Spr2s).run(&w);
        let c = cxl(Platform::Spr2s).run(&w);
        let cache_stalls = |r: &crate::report::RunReport| {
            (r.counters[Event::StallsL2Miss] - r.counters[Event::StallsL3Miss]) as f64
        };
        assert!(
            cache_stalls(&c) > cache_stalls(&d) * 1.5,
            "cxl cache stalls {} vs dram {}",
            cache_stalls(&c),
            cache_stalls(&d)
        );
        assert!(c.slowdown_vs(&d) > 0.05, "slowdown {}", c.slowdown_vs(&d));
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Gups { lines: 1 << 14, count: 50_000 };
        let a = dram(Platform::Skx2s).run(&w);
        let b = dram(Platform::Skx2s).run(&w);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn interleaving_splits_traffic_by_ratio() {
        let w = Gups { lines: 1 << 16, count: 100_000 };
        let m = Machine::interleaved(Platform::Spr2s, DeviceKind::CxlC, 0.6);
        let report = m.run(&w);
        let share = report.fast_read_share();
        assert!(
            (share - 0.6).abs() < 0.05,
            "fast share {share} should track footprint ratio 0.6"
        );
    }

    #[test]
    fn epoch_sampling_partitions_counters() {
        let w = Gups { lines: 1 << 14, count: 50_000 };
        let m = dram(Platform::Spr2s).with_epochs(10_000);
        let report = m.run(&w);
        assert!(report.epochs.len() > 2);
        let total: u64 = report.epochs.iter().map(|e| e.counters[Event::Instructions]).sum();
        assert_eq!(total, report.instructions);
    }

    #[test]
    #[should_panic(expected = "slow tier")]
    fn slow_placement_without_device_panics() {
        let m = Machine::dram_only(Platform::Spr2s).with_placement(Placement::SlowOnly);
        let _ = m.run(&Memset { bytes: 64 });
    }

    #[test]
    fn zero_footprint_is_rejected_with_a_typed_error() {
        struct Empty;
        impl Workload for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn footprint_bytes(&self) -> u64 {
                0
            }
            fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
                Box::new(std::iter::empty())
            }
        }
        let error = dram(Platform::Spr2s).try_run(&Empty).unwrap_err();
        assert_eq!(error, SimError::EmptyFootprint { workload: "empty".into() });
        assert!(error.to_string().contains("'empty'"));
    }

    #[test]
    fn try_run_rejects_what_run_panics_on() {
        let m = Machine::dram_only(Platform::Spr2s).with_placement(Placement::SlowOnly);
        let w = Memset { bytes: 64 };
        assert_eq!(m.try_run(&w).unwrap_err(), SimError::MissingSlowDevice);
        let m = Machine::dram_only(Platform::Spr2s).with_background(1.5, 0.0);
        assert!(matches!(
            m.try_run(&w).unwrap_err(),
            SimError::InvalidBackgroundUtilisation { tier: "fast", .. }
        ));
    }

    #[test]
    fn try_run_matches_run_on_valid_configs() {
        let w = Gups { lines: 1 << 12, count: 10_000 };
        let m = Machine::slow_only(Platform::Spr2s, DeviceKind::CxlA);
        let checked = m.try_run(&w).expect("valid config");
        let unchecked = m.run(&w);
        assert_eq!(checked.cycles, unchecked.cycles);
        assert_eq!(checked.counters, unchecked.counters);
    }

    #[test]
    fn background_load_slows_memory_bound_runs() {
        // At 95% background utilisation, the device's residual capacity
        // falls below even a single GUPS thread's LFB-limited demand.
        let w = Gups { lines: 1 << 16, count: 60_000 };
        let free = Machine::dram_only(Platform::Skx2s).run(&w);
        let busy = Machine::dram_only(Platform::Skx2s).with_background(0.95, 0.0).run(&w);
        assert!(
            busy.cycles > free.cycles * 1.2,
            "background contention must slow the run: {} vs {}",
            busy.cycles,
            free.cycles
        );
    }

    #[test]
    fn llc_sharers_reduce_effective_cache() {
        // An 8 MiB working set fits the private 60 MiB LLC but not a
        // sixteenth of it; repeated passes convert the lost capacity into
        // extra offcore demand misses.
        let w = Gups { lines: (8 << 20) / 64, count: 500_000 };
        let alone = Machine::dram_only(Platform::Spr2s).run(&w);
        let shared = Machine::dram_only(Platform::Spr2s).with_llc_sharers(16).run(&w);
        // Offcore reads include L3 hits; the lost capacity shows up as
        // extra *memory* reads at the device.
        let memory_reads = |r: &crate::report::RunReport| r.fast_tier.stats.reads;
        assert!(
            memory_reads(&shared) > memory_reads(&alone) * 2,
            "sixteenth of the LLC must miss more: {} vs {}",
            memory_reads(&shared),
            memory_reads(&alone)
        );
    }

    #[test]
    fn stores_to_cached_lines_avoid_rfo_traffic() {
        // Load a small buffer first (cache it), then store over it: the
        // stores find the lines on-chip and issue no device RFOs.
        struct LoadThenStore;
        impl Workload for LoadThenStore {
            fn name(&self) -> &str {
                "load-then-store"
            }
            fn footprint_bytes(&self) -> u64 {
                1 << 16
            }
            fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
                let loads = (0..1024u64).map(|i| Op::load(i * 64));
                let stores = (0..1024u64).map(|i| Op::store(i * 64));
                Box::new(loads.chain(stores))
            }
        }
        let report = dram(Platform::Spr2s).run(&LoadThenStore);
        assert_eq!(report.counters[Event::RfoRequests], 0, "cached lines grant ownership on-chip");
        assert_eq!(report.counters[Event::Stores], 1024);
    }

    #[test]
    fn numa_is_between_dram_and_cxl() {
        let w = Chase { lines: 1 << 15, rounds: 4 };
        let d = dram(Platform::Skx2s).run(&w);
        let n = Machine::slow_only(Platform::Skx2s, DeviceKind::Numa).run(&w);
        let c = Machine::slow_only(Platform::Skx2s, DeviceKind::CxlA).run(&w);
        let sn = n.slowdown_vs(&d);
        let sc = c.slowdown_vs(&d);
        assert!(sn > 0.05, "NUMA slowdown {sn}");
        assert!(sc > sn, "CXL ({sc}) should exceed NUMA ({sn})");
    }
}
