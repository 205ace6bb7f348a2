//! Colocation scheduling: when two workloads cannot both fit in DRAM,
//! pick who gets the fast tier — by predicted slowdown (CAMP) vs by
//! hotness (MPKI) — and measure the outcome of both decisions.
//!
//! ```text
//! cargo run --release --example colocation [workload-a] [workload-b]
//! ```

use camp::model::colocation::{place_and_run, solo_runs, ColocationPolicy};
use camp::model::{Calibration, CampPredictor};
use camp::pmu::derived;
use camp::sim::{DeviceKind, Machine, Platform};

fn main() {
    let mut args = std::env::args().skip(1);
    let a_name = args.next().unwrap_or_else(|| "ai.gpt2-prefill".to_string());
    let b_name = args.next().unwrap_or_else(|| "parsec.blackscholes-1t".to_string());
    let a = camp::workloads::find(&a_name).expect("workload a in suite");
    let b = camp::workloads::find(&b_name).expect("workload b in suite");
    let platform = Platform::Spr2s;
    let device = DeviceKind::CxlA;
    let predictor = CampPredictor::new(Calibration::fit(platform, device));

    // Show why the policies can disagree.
    let dram = Machine::dram_only(platform);
    for (name, workload) in [(&a_name, &a), (&b_name, &b)] {
        let report = dram.run(workload);
        println!(
            "{name}: MPKI = {:.1}, CAMP predicted {device} slowdown = {:+.1}%",
            derived::mpki(&report.counters).unwrap_or(0.0),
            predictor.predict_total_saturated(&report) * 100.0
        );
    }

    // Both policies decide from one pair of solo runs under the
    // colocation's shared LLC.
    let (solo_a, solo_b) = solo_runs(platform, &a, &b);
    for policy in [ColocationPolicy::Camp, ColocationPolicy::Mpki] {
        let outcome =
            place_and_run(platform, device, (&a, &solo_a), (&b, &solo_b), policy, &predictor);
        println!(
            "\n{policy:?}-guided: {} on DRAM, {} on {device}",
            outcome.fast_workload, outcome.slow_workload
        );
        println!(
            "  slowdowns: fast {:+.1}%, slow {:+.1}%, mean {:+.1}%",
            outcome.fast_slowdown * 100.0,
            outcome.slow_slowdown * 100.0,
            outcome.mean_slowdown() * 100.0
        );
    }
}
