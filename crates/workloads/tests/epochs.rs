//! Sampling a suite workload must not change its run.
//!
//! An epoch close reads the counters, the MLP sweep and the miss buffers.
//! If any of those reads moved engine state (a sweep cursor advanced to
//! the retire clock, a buffer entry released early), later loads would be
//! accounted differently and the sampled run's totals would drift from the
//! unsampled run's — `OroCycWDemandRd` first, since it is the counter most
//! sensitive to the sweep's cursor. A multi-threaded stream keeps many
//! demand reads in flight across every epoch boundary, which is where a
//! perturbation shows.

use camp_sim::{DeviceKind, Machine, OpTrace, Platform, Workload};

/// Ops of the stream's trace to run: enough to cross hundreds of
/// boundaries at the shortest period.
const PREFIX_OPS: usize = 300_000;

#[test]
fn sampled_stream_matches_its_unsampled_run() {
    let workload = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
    let trace = OpTrace::from_ops(workload.ops().take(PREFIX_OPS));
    for (platform, device) in [
        (Platform::Spr2s, DeviceKind::CxlA),
        (Platform::Skx2s, DeviceKind::CxlB),
    ] {
        let machine = Machine::slow_only(platform, device);
        let plain = machine.run_trace(&workload, &trace);
        for period in [157u64, 1_000, 10_000, 200_000] {
            let sampled = machine.clone().with_epochs(period).run_trace(&workload, &trace);
            let label = format!("{platform}/{device}, period {period}");
            assert!(sampled.epochs.len() > 1, "{label}: several epochs");
            assert_eq!(plain.counters, sampled.counters, "counters diverge: {label}");
            assert_eq!(plain.cycles, sampled.cycles, "cycles diverge: {label}");
            assert_eq!(plain.fast_tier.stats, sampled.fast_tier.stats, "fast stats: {label}");
            assert_eq!(
                plain.slow_tier.as_ref().map(|t| t.stats),
                sampled.slow_tier.as_ref().map(|t| t.stats),
                "slow stats: {label}"
            );
        }
    }
}
