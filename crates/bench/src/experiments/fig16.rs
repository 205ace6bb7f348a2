//! Figure 16: CAMP-guided colocation.
//!
//! (a) CAMP's predicted slowdowns track measured colocated slowdowns while
//! MPKI ranks them wrongly; (b) MPKI-guided placement costs performance
//! against CAMP-guided placement on pairs where the two disagree; (c) a
//! mixed pair — bandwidth-bound 654.roms interleaved at its Best-shot
//! ratio plus latency-bound 557.xz in the remaining fast memory — beats
//! first-touch-style sharing across tier ratios.

use crate::harness::{fmt, Context, Table};
use camp_core::colocation::{place_and_run, run_colocated, solo_runs, ColocationPolicy};
use camp_core::interleave::best_shot;
use camp_pmu::derived;
use camp_sim::{Placement, Workload};

use super::fig9::{profile, DEVICE, PLATFORM};

/// The three conflicting pairs of §6.3: in each, the *hotter* workload
/// (higher MPKI) is the more latency-tolerant one, so MPKI-guided
/// placement protects the wrong workload. (The paper's instances are
/// gpt-2 vs tc-road; these are this suite's strongest equivalents,
/// selected by scanning for MPKI/slowdown ranking conflicts.)
fn pairs() -> [(&'static str, &'static str); 3] {
    [
        // Covered compute-heavy stream (hot, tolerant) vs burst-streaming
        // prefill whose coverage breaks on CXL (cold, sensitive).
        ("parsec.blackscholes-1t", "ai.gpt2-prefill"),
        // Multi-array stencil (hot, tolerant) vs pure cache-to-memory
        // stream (cold, sensitive).
        ("parsec.facesim-1t", "phx.cachebench-1t"),
        // Moderate-intensity stencil vs store-bound memset (MPKI is blind
        // to the write path entirely).
        ("spec.627.cam4-2t", "mlc.memset-16m"),
    ]
}

/// Runs Figure 16.
pub fn run(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);

    // (a) prediction vs measurement under colocation.
    let mut accuracy = Table::new(
        "Figure 16a: CAMP vs MPKI under colocation (slow-placed workload)",
        &[
            "pair",
            "slow workload",
            "mpki_rank_of_slow",
            "camp_pred",
            "actual",
        ],
    );
    // (b) placement quality.
    let mut placement = Table::new(
        "Figure 16b: CAMP-guided vs MPKI-guided placement",
        &[
            "pair",
            "camp mean slowdown",
            "mpki mean slowdown",
            "mpki penalty",
        ],
    );
    for (a_name, b_name) in pairs() {
        let a = camp_workloads::find(a_name).expect("pair workload in suite");
        let a = ctx.traces().wrap(a.as_ref());
        let b = camp_workloads::find(b_name).expect("pair workload in suite");
        let b = ctx.traces().wrap(b.as_ref());
        // Both policies decide from, and measure against, one pair of solo
        // runs under the colocation's LLC allocation.
        let (solo_a, solo_b) = solo_runs(PLATFORM, &a, &b);
        let decide = |policy| {
            place_and_run(PLATFORM, DEVICE, (&a, &solo_a), (&b, &solo_b), policy, &predictor)
        };
        let camp = decide(ColocationPolicy::Camp);
        let mpki = decide(ColocationPolicy::Mpki);
        // (a): CAMP put the workload it predicts more tolerant on the slow
        // tier; its measured slowdown there is the prediction's check.
        let (solo_slow, other) =
            if camp.slow_workload == a.name() { (&solo_a, &b) } else { (&solo_b, &a) };
        let mpki_slow = derived::mpki(&solo_slow.counters).unwrap_or(0.0);
        let mpki_other = derived::mpki(&ctx.run(PLATFORM, None, other).counters).unwrap_or(0.0);
        accuracy.row(&[
            format!("{a_name}+{b_name}"),
            camp.slow_workload.clone(),
            if mpki_slow > mpki_other { "hotter".into() } else { "colder".into() },
            fmt(predictor.predict_total_saturated(solo_slow), 3),
            fmt(camp.slow_slowdown, 3),
        ]);
        // (b): what each policy's decision costs the pair.
        placement.row(&[
            format!("{a_name}+{b_name}"),
            fmt(camp.mean_slowdown(), 3),
            fmt(mpki.mean_slowdown(), 3),
            format!("{:+.1}%", (mpki.mean_slowdown() - camp.mean_slowdown()) * 100.0),
        ]);
    }

    // (c) mixed bandwidth + latency colocation across tier ratios.
    let mut mixed = Table::new(
        "Figure 16c: 654.roms (interleaved) + 557.xz colocation",
        &["policy", "roms ratio", "roms perf", "xz perf", "combined"],
    );
    let roms = camp_workloads::find("spec.654.roms-8t").expect("roms in suite");
    let roms = ctx.traces().wrap(roms.as_ref());
    let xz = camp_workloads::find("spec.557.xz-1t").expect("xz in suite");
    let xz = ctx.traces().wrap(xz.as_ref());
    let solo_roms = ctx.run(PLATFORM, None, &roms);
    let solo_xz = ctx.run(PLATFORM, None, &xz);
    let camp_ratio = best_shot(&profile(ctx, &roms, &predictor)).ratio;
    let candidates: [(&str, f64); 4] = [
        ("Best-shot", camp_ratio),
        ("First-touch (all fast)", 1.0),
        ("NBT-like (0.8 fast)", 0.8),
        ("Colloid-like (0.6 fast)", 0.6),
    ];
    for (policy, ratio) in candidates {
        let (roms_report, xz_report) = run_colocated(
            PLATFORM,
            DEVICE,
            (&roms, Placement::interleave_ratio(ratio)),
            (&xz, Placement::FastOnly),
        );
        let roms_perf = solo_roms.cycles / roms_report.cycles;
        let xz_perf = solo_xz.cycles / xz_report.cycles;
        mixed.row(&[
            policy.to_string(),
            fmt(ratio, 2),
            fmt(roms_perf, 3),
            fmt(xz_perf, 3),
            fmt((roms_perf * xz_perf).sqrt(), 3),
        ]);
    }
    vec![accuracy, placement, mixed]
}
