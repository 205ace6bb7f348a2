//! Extension experiments: the paper's future-work directions implemented
//! and validated.
//!
//! - `ext-firsttouch` (§5.5): interleaving-model prediction for
//!   first-touch allocation across DRAM capacities.
//! - `ext-hybrid` (§6.4): hybrid hot-pinning + interleaving vs Best-shot
//!   and tiering baselines on skewed bandwidth-bound workloads.
//! - `table6-emr` (§4.4.6 platform extensibility): prediction accuracy on
//!   the third micro-architecture (EMR), sampled suite.

use crate::harness::{fmt, Context, Table};
use camp_core::{stats, MeasuredComponents};
use camp_policies::{
    evaluate_policy, BestShotPolicy, FirstTouch, HybridCamp, Nbt, PolicyContext, Soar,
    TieringPolicy,
};
use camp_sim::{DeviceKind, Machine, Op, Placement, Platform, Workload, PAGE_BYTES};

use super::fig9::{profile, DEVICE, PLATFORM};

/// A DLRM-like composite: per element, one Zipf-skewed embedding gather
/// plus two dense sequential stream loads. The hot embedding pages reward
/// pinning (tiering) while the dense streams saturate bandwidth and
/// reward interleaving — the §6.4 hybrid's natural habitat.
struct SkewedStream {
    name: String,
}

impl Workload for SkewedStream {
    fn name(&self) -> &str {
        &self.name
    }
    fn threads(&self) -> u32 {
        8
    }
    fn footprint_bytes(&self) -> u64 {
        // 64 MiB embedding table + two 8 MiB dense arrays.
        (64 << 20) + 2 * (8 << 20)
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        let mut rng = camp_workloads::rng::SplitMix::from_name(&self.name);
        let table_lines = (64u64 << 20) / 64;
        let dense_base = 64u64 << 20;
        let dense_elems = (8u64 << 20) / 8;
        let mut element = 0u64;
        let mut phase = 0u8;
        Box::new(std::iter::from_fn(move || {
            if element >= 2 * dense_elems {
                return None;
            }
            let op = match phase {
                0 => Op::load(rng.zipf(table_lines) * 64),
                1 => Op::load(dense_base + (element % dense_elems) * 8),
                _ => {
                    let addr = dense_base + (8 << 20) + (element % dense_elems) * 8;
                    element += 1;
                    phase = 0;
                    return Some(Op::load(addr));
                }
            };
            phase += 1;
            Some(op)
        }))
    }
}

/// First-touch prediction (§5.5): under first-touch allocation with DRAM
/// capacity fraction `c`, the resident share approximates `c` and Eq. 10
/// applies with `x = c`. Validated against measured first-touch runs.
pub fn first_touch(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let mut table = Table::new(
        "Extension (§5.5): first-touch slowdown prediction",
        &["workload", "capacity", "predicted", "actual", "abs err"],
    );
    let (mut predicted_all, mut actual_all) = (Vec::new(), Vec::new());
    for name in [
        "spec.603.bwaves-8t",
        "mlc.gups-256m-d0-w0",
        "spec.654.roms-8t",
        "db.btree_lookup-lg",
    ] {
        let workload = camp_workloads::find(name).expect("in suite");
        let workload = ctx.traces().wrap(workload.as_ref());
        let model = profile(ctx, &workload, &predictor);
        let baseline = ctx.run(PLATFORM, None, &workload);
        let total_pages = workload.footprint_bytes().div_ceil(PAGE_BYTES);
        for capacity in [0.25, 0.5, 0.75] {
            let predicted = model.predict_total(capacity);
            let fast_pages = ((total_pages as f64) * capacity).round() as u64;
            let run = Machine::dram_only(PLATFORM)
                .with_slow_device(DEVICE)
                .with_placement(Placement::FirstTouch { fast_pages })
                .run(&workload);
            let actual = run.slowdown_vs(&baseline);
            predicted_all.push(predicted);
            actual_all.push(actual);
            table.row(&[
                name.to_string(),
                fmt(capacity, 2),
                fmt(predicted, 3),
                fmt(actual, 3),
                fmt((predicted - actual).abs(), 3),
            ]);
        }
    }
    let mut summary = Table::new(
        "Extension (§5.5): first-touch prediction accuracy",
        &["samples", "pearson", "mean abs err"],
    );
    let errors =
        stats::error_summary(&predicted_all, &actual_all).unwrap_or_else(|e| panic!("{e}"));
    summary.row(&[
        predicted_all.len().to_string(),
        fmt(stats::pearson(&predicted_all, &actual_all).unwrap_or(0.0), 3),
        fmt(errors.mean_abs, 3),
    ]);
    vec![summary, table]
}

/// Hybrid tiering + interleaving (§6.4): a skewed bandwidth-bound
/// composite under constrained fast capacity, where pure interleaving
/// wastes fast memory on cold pages and pure hotness forfeits aggregate
/// bandwidth.
pub fn hybrid(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let mut table = Table::new(
        "Extension (§6.4): hybrid hot-pinning + interleaving (capacity-constrained)",
        &[
            "workload",
            "capacity",
            "Hybrid (CAMP)",
            "Best-shot",
            "First-touch",
            "NBT",
            "Soar",
        ],
    );
    let workload = SkewedStream { name: "ext.dlrm-like".into() };
    // One shared trace feeds every policy's profiling and placement runs,
    // and one DRAM-only run normalises them all and is the run Hybrid and
    // Best-shot decide from.
    let traced = ctx.traces().wrap(&workload);
    let baseline = ctx.run(PLATFORM, None, &traced);
    for capacity in [0.4, 0.6, 0.8] {
        let mut policy_ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(&predictor);
        policy_ctx.fast_capacity_fraction = capacity;
        let evaluate = |policy: &dyn TieringPolicy| {
            evaluate_policy(&policy_ctx, policy, &traced, &baseline).normalized_performance
        };
        let hybrid = evaluate(&HybridCamp);
        let best_shot = evaluate(&BestShotPolicy);
        let first_touch = evaluate(&FirstTouch);
        let nbt = evaluate(&Nbt);
        let soar = evaluate(&Soar);
        table.row(&[
            workload.name().to_string(),
            fmt(capacity, 1),
            fmt(hybrid, 3),
            fmt(best_shot, 3),
            fmt(first_touch, 3),
            fmt(nbt, 3),
            fmt(soar, 3),
        ]);
    }
    vec![table]
}

/// Platform extensibility: prediction accuracy on EMR (sampled suite, the
/// third micro-architecture of Table 3).
pub fn emr(ctx: &Context) -> Vec<Table> {
    let platform = Platform::Emr2s;
    let device = DeviceKind::CxlA;
    let predictor = ctx.predictor(platform, device);
    let sampled: Vec<_> = camp_workloads::suite().into_iter().step_by(3).collect();
    let (mut predicted, mut actual) = (Vec::new(), Vec::new());
    for (dram, slow) in ctx.endpoint_runs(platform, device, &sampled) {
        predicted.push(predictor.predict_total_saturated(&dram));
        actual.push(MeasuredComponents::attribute(&dram, &slow).total);
    }
    let mut table = Table::new(
        "Extension: EMR2S prediction accuracy (every 3rd workload)",
        &["config", "n", "pearson", "<=5%", "<=10%", "mean abs err"],
    );
    let errors = stats::error_summary(&predicted, &actual).unwrap_or_else(|e| panic!("{e}"));
    table.row(&[
        format!("{} {}", platform.name(), device.name()),
        predicted.len().to_string(),
        fmt(stats::pearson(&predicted, &actual).unwrap_or(0.0), 3),
        format!("{:.1}%", errors.within_5pct * 100.0),
        format!("{:.1}%", errors.within_10pct * 100.0),
        fmt(errors.mean_abs, 3),
    ]);
    vec![table]
}
