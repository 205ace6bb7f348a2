//! Best-shot interleaving: synthesize the DRAM:CXL performance curve from
//! at most two profiling runs and jump straight to the optimal ratio.
//!
//! ```text
//! cargo run --release --example best_shot [workload-name]
//! ```

use camp::model::interleave::{best_shot, classify, InterleaveModel, DEFAULT_TAU};
use camp::model::{Calibration, CampPredictor};
use camp::sim::{DeviceKind, Machine, Platform};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "spec.603.bwaves-8t".to_string());
    let workload = camp::workloads::find(&name).unwrap_or_else(|| {
        eprintln!("workload '{name}' not in the suite");
        std::process::exit(1);
    });
    let platform = Platform::Skx2s;
    let device = DeviceKind::CxlA;
    let predictor = CampPredictor::new(Calibration::fit(platform, device));

    let dram = Machine::dram_only(platform).run(&workload);
    println!(
        "{name}: classified as {:?} (loaded DRAM latency {:.0} vs idle {:.0} cycles)",
        classify(&dram, DEFAULT_TAU),
        dram.fast_tier.avg_read_latency().unwrap_or(0.0),
        dram.fast_tier.idle_latency_cycles
    );

    let slow = || Machine::slow_only(platform, device).run(&workload);
    let model = InterleaveModel::profile(&dram, slow, &predictor, DEFAULT_TAU)
        .unwrap_or_else(|error| panic!("{error}"));
    println!("profiling runs used: {}", model.profiling_runs);
    println!("\nsynthesized performance curve (DRAM fraction -> predicted slowdown):");
    for (x, slowdown) in model.curve(10) {
        let bar_len = ((slowdown + 1.3) * 25.0).clamp(0.0, 70.0) as usize;
        println!("  {:>4.0}% {:+7.1}%  {}", x * 100.0, slowdown * 100.0, "#".repeat(bar_len));
    }

    let choice = best_shot(&model);
    println!(
        "\nBest-shot ratio: {:.0}% DRAM / {:.0}% CXL (predicted {:+.1}%)",
        choice.ratio * 100.0,
        (1.0 - choice.ratio) * 100.0,
        choice.predicted_slowdown * 100.0
    );

    // Validate the chosen configuration against DRAM-only execution.
    let chosen = Machine::interleaved(platform, device, choice.ratio).run(&workload);
    println!(
        "measured at the chosen ratio: {:+.1}% vs DRAM-only (using {:.0}% of fast-tier capacity)",
        chosen.slowdown_vs(&dram) * 100.0,
        choice.ratio * 100.0
    );
}
