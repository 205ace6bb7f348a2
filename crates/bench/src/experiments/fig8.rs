//! Figure 8: dynamic (time-series) prediction on `tc-kron`.
//!
//! The workload's Kronecker degree skew creates phases; CAMP samples
//! counters per epoch on DRAM and predicts per-epoch slowdown, which is
//! compared against the measured slowdown of the matching instruction
//! range on the CXL run.

use crate::explain::{cumulative, cycles_at};
use crate::harness::{fmt, Context, Table};
use camp_core::stats;
use camp_pmu::Event;
use camp_sim::{DeviceKind, Machine, Op, Platform, Workload};

const PLATFORM: Platform = Platform::Spr2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;
const EPOCH_CYCLES: u64 = 200_000;

/// A composite workload with four distinct phases (chase → compute-heavy
/// → random gather → stream), giving the per-epoch predictor large
/// slowdown swings to track — the role `tc-kron`'s hub phases play in the
/// paper.
struct Phased;

impl Workload for Phased {
    fn name(&self) -> &str {
        "fig8.phased"
    }
    fn threads(&self) -> u32 {
        1
    }
    fn footprint_bytes(&self) -> u64 {
        256 << 20
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        const REGION: u64 = 64 << 20; // four disjoint 64 MiB regions
        let chase = (0..200_000u64).map(|i| {
            // Full-period LCG walk within region 0.
            let lines = REGION / 64;
            let idx = (i.wrapping_mul(1_203_301).wrapping_add(12_345)) % lines;
            Op::chase(idx * 64)
        });
        let compute = (0..150_000u64)
            .flat_map(|i| [Op::load(REGION + (i * 64) % (4 << 20)), Op::compute(12)].into_iter());
        let gather = (0..200_000u64).map(|i| {
            let lines = REGION / 64;
            let idx = (i.wrapping_mul(2_654_435_761)) % lines;
            Op::load(2 * REGION + idx * 64)
        });
        let stream = (0..600_000u64).map(|i| Op::load(3 * REGION + (i * 8) % REGION));
        Box::new(chase.chain(compute).chain(gather).chain(stream))
    }
}

/// Predicts per-epoch slowdown on DRAM and compares against the measured
/// slowdown of the matching instruction range on the slow run.
fn time_series(ctx: &Context, workload: &dyn Workload, label: &str, tables: &mut Vec<Table>) {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let traced = ctx.traces().wrap(workload);
    let dram = Machine::dram_only(PLATFORM).with_epochs(EPOCH_CYCLES).run(&traced);
    let slow = Machine::slow_only(PLATFORM, DEVICE).with_epochs(EPOCH_CYCLES).run(&traced);
    let slow_curve = cumulative(&slow.epochs);

    let mut table = Table::new(
        format!("Figure 8: time-series prediction ({label})"),
        &["epoch", "instr(M)", "predicted", "actual"],
    );
    let mut instructions = 0.0;
    let (mut predicted_series, mut actual_series) = (Vec::new(), Vec::new());
    for (i, epoch) in dram.epochs.iter().enumerate() {
        let epoch_instr = epoch.counters.get_f64(Event::Instructions);
        if epoch_instr <= 0.0 {
            continue;
        }
        let start = instructions;
        instructions += epoch_instr;
        let predicted = predictor.predict(&epoch.counters).total();
        let slow_cycles = cycles_at(&slow_curve, instructions) - cycles_at(&slow_curve, start);
        let dram_cycles = epoch.cycles() as f64;
        let actual = slow_cycles / dram_cycles - 1.0;
        predicted_series.push(predicted);
        actual_series.push(actual);
        table.row(&[
            i.to_string(),
            fmt(instructions / 1e6, 2),
            fmt(predicted, 3),
            fmt(actual, 3),
        ]);
    }
    let mut summary = Table::new(
        format!("Figure 8: time-series accuracy ({label})"),
        &["epochs", "pearson", "mean abs err"],
    );
    let pearson = stats::pearson(&predicted_series, &actual_series).unwrap_or(0.0);
    let errors = stats::error_summary(&predicted_series, &actual_series);
    summary.row(&[
        predicted_series.len().to_string(),
        fmt(pearson, 3),
        fmt(errors.mean_abs, 3),
    ]);
    tables.push(summary);
    tables.push(table);
}

/// Runs Figure 8.
pub fn run(ctx: &Context) -> Vec<Table> {
    let mut tables = Vec::new();
    // The paper's instance: triangle counting on a Kronecker graph.
    let tc_kron = camp_workloads::find("gap.tc-kron-lg").expect("tc-kron-lg in suite");
    time_series(ctx, &tc_kron, "gap.tc-kron-lg", &mut tables);
    // A strongly phased composite: the per-epoch predictor must track
    // large slowdown swings, not just the aggregate.
    time_series(ctx, &Phased, "phased composite", &mut tables);
    tables
}
