//! `repro explain <workload>` — residual drill-down for one workload.
//!
//! The aggregate experiments report *that* a prediction missed; this
//! module shows *where*. It samples both endpoint runs into epochs
//! ([`camp_sim::Epoch`]) and joins each DRAM epoch's analytical
//! components (`S_DRd`/`S_Cache`/`S_Store`) with the slow-run epoch
//! covering the matching instruction range: its LFB/SQ/SB occupancy,
//! slow-tier loaded latency and queue depth, and the residual between
//! predicted and measured slowdown. A drifting residual next to a
//! saturating queue-depth column is the §4.4.6 bandwidth story; one next
//! to a full store buffer is an `S_Store` miss.

use crate::harness::{fmt, Context, Table};
use camp_pmu::Event;
use camp_sim::{DeviceKind, Epoch, Machine, Platform, Workload};

/// Default platform for the drill-down (the paper's primary testbed).
const PLATFORM: Platform = Platform::Spr2s;
/// Default slow device.
const DEVICE: DeviceKind = DeviceKind::CxlA;
/// Default sampling period, matching the Figure 8 epoch length.
const EPOCH_CYCLES: u64 = 200_000;

/// Cumulative (instructions, cycles) curve from a sampled run.
pub(crate) fn cumulative(epochs: &[Epoch]) -> Vec<(f64, f64)> {
    let mut points = vec![(0.0, 0.0)];
    let (mut instructions, mut cycles) = (0.0, 0.0);
    for epoch in epochs {
        instructions += epoch.counters.get_f64(Event::Instructions);
        cycles += epoch.cycles() as f64;
        points.push((instructions, cycles));
    }
    points
}

/// Cycles consumed up to `instructions` on a cumulative curve (linear
/// interpolation).
pub(crate) fn cycles_at(curve: &[(f64, f64)], instructions: f64) -> f64 {
    match curve.iter().position(|&(i, _)| i >= instructions) {
        Some(0) => 0.0,
        Some(idx) => {
            let (i0, c0) = curve[idx - 1];
            let (i1, c1) = curve[idx];
            if i1 > i0 {
                c0 + (c1 - c0) * (instructions - i0) / (i1 - i0)
            } else {
                c0
            }
        }
        None => curve.last().map(|&(_, c)| c).unwrap_or(0.0),
    }
}

/// Runs the drill-down for a named suite workload on the default
/// platform/device.
pub fn explain(ctx: &Context, name: &str) -> Result<Vec<Table>, String> {
    let workload = camp_workloads::find(name)
        .ok_or_else(|| format!("unknown workload '{name}' (not in the suite)"))?;
    Ok(report(ctx, &workload))
}

/// Runs the drill-down for any workload on the default platform/device.
pub fn report(ctx: &Context, workload: &dyn Workload) -> Vec<Table> {
    report_on(ctx, workload, PLATFORM, DEVICE, EPOCH_CYCLES)
}

/// Runs the drill-down with explicit platform, device, and epoch period.
///
/// Both endpoint runs are re-simulated here (not recalled from the
/// context's cache) because the drill-down needs epoch sampling; the
/// calibration's probe runs still come from the cache.
pub fn report_on(
    ctx: &Context,
    workload: &dyn Workload,
    platform: Platform,
    device: DeviceKind,
    period: u64,
) -> Vec<Table> {
    let predictor = ctx.predictor(platform, device);
    let traced = ctx.traces().wrap(workload);
    let dram = Machine::dram_only(platform).with_epochs(period).run(&traced);
    let slow = Machine::slow_only(platform, device).with_epochs(period).run(&traced);
    let slow_curve = cumulative(&slow.epochs);
    let ns_per_cycle = platform.config().cycles_to_seconds(1.0) * 1e9;

    let mut table = Table::new(
        format!(
            "explain: {} on {platform}/{device}, per-epoch components vs slow run ({period} cycles)",
            workload.name()
        ),
        &[
            "epoch", "instr(M)", "S_DRd", "S_Cache", "S_Store", "pred", "actual", "resid", "lfb",
            "sq", "sb", "lat(ns)", "qdepth", "ipc",
        ],
    );
    let mut instructions = 0.0;
    let mut residuals = Vec::new();
    for (i, epoch) in dram.epochs.iter().enumerate() {
        let epoch_instr = epoch.counters.get_f64(Event::Instructions);
        if epoch_instr <= 0.0 {
            continue;
        }
        let start = instructions;
        instructions += epoch_instr;
        let p = predictor.predict(&epoch.counters);
        let slow_start = cycles_at(&slow_curve, start);
        let slow_end = cycles_at(&slow_curve, instructions);
        let actual = (slow_end - slow_start) / epoch.cycles().max(1) as f64 - 1.0;
        let residual = actual - p.total();
        residuals.push(residual.abs());
        // The slow-run epoch whose cycles contain the midpoint of this
        // epoch's instruction range (the last one past the run's end).
        let mid = (slow_start + slow_end) / 2.0;
        let idx = slow.epochs.partition_point(|e| e.end_cycle as f64 <= mid);
        let s = &slow.epochs[idx.min(slow.epochs.len() - 1)];
        let latency_ns = s.slow.avg_read_latency().unwrap_or(0.0) * ns_per_cycle;
        let queue_depth = s.slow.read_busy / s.cycles().max(1) as f64;
        table.row(&[
            i.to_string(),
            fmt(instructions / 1e6, 2),
            fmt(p.drd, 3),
            fmt(p.cache, 3),
            fmt(p.store, 3),
            fmt(p.total(), 3),
            fmt(actual, 3),
            fmt(residual, 3),
            s.lfb.to_string(),
            s.sq.to_string(),
            s.sb.to_string(),
            fmt(latency_ns, 1),
            fmt(queue_depth, 1),
            fmt(s.ipc(), 2),
        ]);
    }

    let mut summary = Table::new(
        format!("explain: {} summary", workload.name()),
        &[
            "epochs",
            "slow epochs",
            "pred total",
            "actual total",
            "mean |resid|",
        ],
    );
    let total_actual = slow.cycles / dram.cycles.max(1.0) - 1.0;
    let mean_resid = if residuals.is_empty() {
        0.0
    } else {
        residuals.iter().sum::<f64>() / residuals.len() as f64
    };
    summary.row(&[
        table.len().to_string(),
        slow.epochs.len().to_string(),
        fmt(predictor.predict(&dram.counters).total(), 3),
        fmt(total_actual, 3),
        fmt(mean_resid, 3),
    ]);
    vec![summary, table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_workloads::kernels::PointerChase;

    #[test]
    fn cumulative_and_cycles_at_interpolate() {
        let mut first = Epoch { end_cycle: 200, ..Epoch::default() };
        first.counters.set(Event::Instructions, 100);
        let second = Epoch { start_cycle: 200, end_cycle: 600, ..first.clone() };
        let epochs = vec![first, second];
        let curve = cumulative(&epochs);
        assert_eq!(curve, vec![(0.0, 0.0), (100.0, 200.0), (200.0, 600.0)]);
        assert_eq!(cycles_at(&curve, 0.0), 0.0);
        assert_eq!(cycles_at(&curve, 50.0), 100.0);
        assert_eq!(cycles_at(&curve, 150.0), 400.0);
        assert_eq!(cycles_at(&curve, 500.0), 600.0, "past the end clamps to the last point");
    }

    #[test]
    fn drill_down_renders_components_and_tape_columns() {
        let ctx = Context::new();
        let w = PointerChase::new("explain-chase", 1, 1 << 16, 1, 40_000);
        let tables = report_on(&ctx, &w, Platform::Spr2s, DeviceKind::CxlA, 50_000);
        assert_eq!(tables.len(), 2);
        let (summary, table) = (&tables[0], &tables[1]);
        assert!(!table.is_empty(), "per-epoch table has rows");
        assert_eq!(summary.len(), 1);
        let rendered = table.render();
        for column in ["S_DRd", "S_Cache", "S_Store", "lfb", "lat(ns)", "qdepth"] {
            assert!(rendered.contains(column), "missing column {column}");
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let ctx = Context::new();
        let error = explain(&ctx, "no.such.workload").unwrap_err();
        assert!(error.contains("no.such.workload"));
    }
}
