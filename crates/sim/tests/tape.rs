//! Epoch-record contract tests: epochs tile the run and sum to its
//! totals, occupancy stays within the structures, and sampling never
//! perturbs the engine it reads.

use camp_sim::mem::DeviceStats;
use camp_sim::op::{Op, Workload};
use camp_sim::{DeviceKind, Epoch, Machine, Platform, RunReport, SimError, LINE_BYTES};

/// A dense independent-load stream over distinct lines (high MLP,
/// bandwidth-flavoured).
struct Gups {
    lines: u64,
    count: u64,
}

impl Workload for Gups {
    fn name(&self) -> &str {
        "tape-gups"
    }
    fn footprint_bytes(&self) -> u64 {
        self.lines * LINE_BYTES
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        let lines = self.lines;
        Box::new((0..self.count).map(move |i| Op::load((i.wrapping_mul(2654435761) % lines) * 64)))
    }
}

/// A serialised pointer chase (latency-flavoured) with a store sprinkled
/// in so the store buffer sees traffic too.
struct ChaseWithStores {
    lines: u64,
    rounds: u64,
}

impl Workload for ChaseWithStores {
    fn name(&self) -> &str {
        "tape-chase"
    }
    fn footprint_bytes(&self) -> u64 {
        self.lines * LINE_BYTES
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        let lines = self.lines;
        Box::new((0..self.rounds).flat_map(move |_| {
            (0..lines).flat_map(move |i| {
                let line = (i.wrapping_mul(48271)) % lines;
                [Op::chase(line * 64), Op::store(((i * 7) % lines) * 64)].into_iter()
            })
        }))
    }
}

/// The epoch contract: the epochs tile `[0, final cycle]` (the first
/// starts at 0, each ends where the next starts, the last ends at the
/// run's truncated cycle count), and their counter and per-tier device
/// deltas sum to the run's totals.
fn assert_epochs_partition(report: &RunReport, label: &str) {
    let epochs = &report.epochs;
    assert!(!epochs.is_empty(), "{label}: a sampled run has epochs");
    assert_eq!(epochs[0].start_cycle, 0, "{label}");
    for pair in epochs.windows(2) {
        assert_eq!(pair[0].end_cycle, pair[1].start_cycle, "{label}: epochs must tile");
        assert!(pair[0].cycles() > 0, "{label}: only the last epoch may be empty");
    }
    assert_eq!(epochs.last().unwrap().end_cycle, report.cycles as u64, "{label}");
    for (event, total) in report.counters.iter() {
        let sum: u64 = epochs.iter().map(|e| e.counters[event]).sum();
        assert_eq!(sum, total, "{label}: {event} deltas must sum to the run total");
    }
    let reads_writes = |tier: fn(&Epoch) -> DeviceStats| {
        epochs.iter().map(tier).fold((0, 0), |(r, w), s| (r + s.reads, w + s.writes))
    };
    let fast = report.fast_tier.stats;
    let slow = report.slow_tier.as_ref().map_or_else(DeviceStats::default, |t| t.stats);
    assert_eq!(reads_writes(|e| e.fast), (fast.reads, fast.writes), "{label}: fast tier");
    assert_eq!(reads_writes(|e| e.slow), (slow.reads, slow.writes), "{label}: slow tier");
}

#[test]
fn epochs_tile_the_run_and_sum_to_its_totals() {
    let w = Gups { lines: 1 << 14, count: 30_000 };
    for period in [1_000u64, 7_777, 100_000, 10_000_000] {
        let report = Machine::slow_only(Platform::Spr2s, DeviceKind::CxlA)
            .with_epochs(period)
            .run(&w);
        assert_epochs_partition(&report, &format!("period {period}"));
        // An epoch closes at the first op retiring a period or more after
        // the previous close, so every epoch but the last spans at least
        // one period.
        let (last, closed) = report.epochs.split_last().unwrap();
        assert!(closed.iter().all(|e| e.cycles() >= period), "period {period}");
        assert!(last.cycles() > 0, "period {period}");
    }
}

#[test]
fn tape_deltas_sum_to_run_totals() {
    // Interleaved pages and dirty lines: both tiers see reads and
    // writebacks, so every per-tier sum in the contract is non-trivial.
    // A 16 MiB footprint overflows SKX2S's 14 MB LLC.
    let w = ChaseWithStores { lines: 1 << 18, rounds: 1 };
    let report = Machine::interleaved(Platform::Skx2s, DeviceKind::CxlA, 0.5)
        .with_epochs(25_000)
        .run(&w);
    let slow = report.slow_tier.as_ref().expect("slow tier configured").stats;
    for stats in [report.fast_tier.stats, slow] {
        assert!(stats.reads > 0 && stats.writes > 0, "{stats:?}");
    }
    assert_epochs_partition(&report, "interleaved chase with stores");
}

#[test]
fn occupancy_samples_are_bounded_by_structure_sizes() {
    let w = Gups { lines: 1 << 15, count: 60_000 };
    let machine = Machine::slow_only(Platform::Skx2s, DeviceKind::CxlA).with_epochs(5_000);
    let cfg = machine.platform_config().clone();
    let report = machine.run(&w);
    assert!(!report.epochs.is_empty());
    let mut saw_lfb_pressure = false;
    for e in &report.epochs {
        assert!(e.lfb <= cfg.lfb_entries as usize, "lfb {} > {}", e.lfb, cfg.lfb_entries);
        assert!(e.sq <= cfg.sq_entries as usize, "sq {} > {}", e.sq, cfg.sq_entries);
        assert!(e.sb <= cfg.sb_entries as usize, "sb {} > {}", e.sb, cfg.sb_entries);
        assert!(
            e.uncore_pf <= cfg.uncore_pf_entries as usize,
            "uncore pf {} > {}",
            e.uncore_pf,
            cfg.uncore_pf_entries
        );
        assert!(e.ipc() >= 0.0 && e.ipc().is_finite());
        assert!(e.pf_late <= e.counters[camp_pmu::Event::LfbHit]);
        for tier in [&e.fast, &e.slow] {
            let latency = tier.avg_read_latency().unwrap_or(0.0);
            assert!(latency >= 0.0 && latency.is_finite());
            assert!(tier.total_read_queue_delay >= 0.0);
            assert!(tier.read_busy >= 0.0);
        }
        saw_lfb_pressure |= e.lfb > 0;
    }
    assert!(saw_lfb_pressure, "a memory-bound run must show LFB occupancy");
    // GUPS on a slow-only machine: traffic lands on the slow tier.
    let slow_reads: u64 = report.epochs.iter().map(|e| e.slow.reads).sum();
    assert!(slow_reads > 0, "slow tier must serve reads");
}

#[test]
fn disabled_tape_is_byte_identical_and_enabled_tape_does_not_perturb() {
    let w = ChaseWithStores { lines: 1 << 12, rounds: 4 };
    let machine = Machine::slow_only(Platform::Spr2s, DeviceKind::CxlB);
    let plain_a = machine.run(&w);
    let plain_b = machine.run(&w);
    let sampled = machine.clone().with_epochs(10_000).run(&w);

    // Determinism guard: no sampling => identical reports run to run.
    assert!(plain_a.epochs.is_empty());
    assert_eq!(format!("{plain_a:?}"), format!("{plain_b:?}"));

    // Sampling must not change what the engine computes: it only reads
    // engine state. Everything but the epochs is the unsampled report.
    assert!(!sampled.epochs.is_empty());
    let unsampled = RunReport { epochs: Vec::new(), ..sampled };
    assert_eq!(format!("{plain_a:?}"), format!("{unsampled:?}"));
}

#[test]
fn zero_epoch_period_is_a_typed_error() {
    let w = Gups { lines: 1 << 10, count: 100 };
    let error = Machine::dram_only(Platform::Spr2s).with_epochs(0).validate(&w).unwrap_err();
    assert_eq!(error, SimError::InvalidSamplingPeriod);
    assert!(error.to_string().contains("epoch sampling period"));
}

/// Chase (long serialized stalls, lagging issue cursor) interleaved with
/// short streaming bursts (prefetches in flight) and a store per round —
/// the adversarial access mix for epoch-boundary perturbation.
struct Mix {
    lines: u64,
    rounds: u64,
}

impl Workload for Mix {
    fn name(&self) -> &str {
        "tape-stress-mix"
    }
    fn footprint_bytes(&self) -> u64 {
        self.lines * LINE_BYTES
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        let lines = self.lines;
        Box::new((0..self.rounds).flat_map(move |r| {
            (0..lines).flat_map(move |i| {
                let chase_line = (i.wrapping_mul(48271).wrapping_add(r)) % lines;
                // One dependent chase load, then a burst of sequential
                // loads, then a store.
                let base = ((i * 13) % lines) * 64;
                let mut v = vec![Op::chase(chase_line * 64)];
                for k in 0..6 {
                    v.push(Op::load(base + k * 64));
                }
                v.push(Op::store(((i * 7) % lines) * 64));
                v.into_iter()
            })
        }))
    }
}

/// Sweeping the sampling period across orders of magnitude must never
/// change what the engine computes — only what it records. Runs the mix
/// on two platform/device pairs so both counter flavours are covered.
#[test]
fn taped_run_is_identical_for_many_periods() {
    let w = Mix { lines: 1 << 12, rounds: 3 };
    for (platform, device) in [
        (Platform::Spr2s, DeviceKind::CxlA),
        (Platform::Skx2s, DeviceKind::CxlB),
    ] {
        let machine = Machine::slow_only(platform, device);
        let plain = machine.run(&w);
        for period in [157u64, 500, 1_000, 3_000, 10_000, 50_000, 200_000] {
            let sampled = machine.clone().with_epochs(period).run(&w);
            let label = format!("platform {platform}, device {device}, period {period}");
            assert_eq!(plain.counters, sampled.counters, "counters diverge: {label}");
            assert_eq!(plain.cycles, sampled.cycles, "cycles diverge: {label}");
            assert_eq!(plain.fast_tier.stats, sampled.fast_tier.stats, "fast stats: {label}");
            assert_eq!(
                plain.slow_tier.as_ref().map(|t| t.stats),
                sampled.slow_tier.as_ref().map(|t| t.stats),
                "slow stats: {label}"
            );
            assert_epochs_partition(&sampled, &label);
        }
    }
}
