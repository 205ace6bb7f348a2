//! Figure 15: Best-shot vs the seven baseline policies over the eight
//! bandwidth-bound workloads, normalised to DRAM-only execution.

use crate::harness::{fmt, Context, Table};
use camp_policies::{baseline_policies, evaluate_policy, BestShotPolicy, PolicyContext};

use super::fig9::{DEVICE, PLATFORM};

/// Runs Figure 15.
pub fn run(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let policy_ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(&predictor);
    let baselines = baseline_policies();

    let mut header: Vec<String> = vec!["workload".into(), "Best-shot".into(), "bs_ratio".into()];
    header.extend(baselines.iter().map(|p| p.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!(
            "Figure 15: normalized performance vs DRAM-only ({} + {})",
            PLATFORM.name(),
            DEVICE.name()
        ),
        &header_refs,
    );
    let mut wins = 0usize;
    let mut total_cells = 0usize;
    for workload in camp_workloads::bestshot_workloads() {
        // One shared trace feeds the baseline run, every policy's
        // profiling pass and every placement run; one memoized baseline
        // run normalises them all and is the DRAM run Best-shot decides
        // from.
        let traced = ctx.traces().wrap(workload.as_ref());
        let baseline = ctx.run(PLATFORM, None, &traced);
        let bs = evaluate_policy(&policy_ctx, &BestShotPolicy, &traced, &baseline);
        let mut cells = vec![
            workload.name().to_string(),
            fmt(bs.normalized_performance, 3),
            fmt(bs.fast_fraction.expect("Best-shot picks a static ratio"), 2),
        ];
        for policy in &baselines {
            let result = evaluate_policy(&policy_ctx, policy.as_ref(), &traced, &baseline);
            // Count a "win" with 1% tolerance (simulation noise).
            total_cells += 1;
            if bs.normalized_performance >= result.normalized_performance - 0.01 {
                wins += 1;
            }
            cells.push(fmt(result.normalized_performance, 3));
        }
        table.row(&cells);
    }
    let mut summary = Table::new(
        "Figure 15: Best-shot standing",
        &["comparisons", "best-shot >= baseline (1% tolerance)"],
    );
    summary.row(&[
        total_cells.to_string(),
        format!("{:.0}%", wins as f64 / total_cells as f64 * 100.0),
    ]);
    vec![table, summary]
}
