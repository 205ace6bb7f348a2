//! `camp` — command-line interface to the CAMP library.
//!
//! ```text
//! camp workloads [filter]                 list suite workloads
//! camp predict <workload> [opts]          DRAM-run profile -> slow-tier forecast
//! camp bestshot <workload> [opts]         synthesize the interleaving curve
//! camp colocate <a> <b> [opts]            decide who gets DRAM (CAMP vs MPKI)
//!
//! options: --platform skx|spr|emr   (default spr; bestshot defaults to skx)
//!          --device numa|cxl-a|cxl-b|cxl-c   (default cxl-a)
//!          --validate                 also run the slow tier and compare
//! ```

use camp::model::colocation::{place_and_run, solo_runs, ColocationPolicy};
use camp::model::interleave::{best_shot, InterleaveModel, DEFAULT_TAU};
use camp::model::{Calibration, CampPredictor, MeasuredComponents};
use camp::sim::{DeviceKind, Machine, Platform};
use std::process::ExitCode;

struct Options {
    platform: Platform,
    device: DeviceKind,
    validate: bool,
    positional: Vec<String>,
}

fn parse(args: &[String], default_platform: Platform) -> Result<Options, String> {
    let mut options = Options {
        platform: default_platform,
        device: DeviceKind::CxlA,
        validate: false,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--platform" => {
                options.platform = iter.next().ok_or("--platform needs a value")?.parse()?;
            }
            "--device" => {
                options.device = iter.next().ok_or("--device needs a value")?.parse()?;
                if options.device == DeviceKind::LocalDram {
                    return Err("--device must name a slow tier, not DRAM".to_string());
                }
            }
            "--validate" => options.validate = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option '{other}'"));
            }
            positional => options.positional.push(positional.to_string()),
        }
    }
    Ok(options)
}

fn usage() {
    eprintln!(
        "usage: camp <command> [args]\n\n\
         commands:\n  \
         workloads [filter]      list suite workloads (265 total)\n  \
         predict <workload>      forecast slow-tier slowdown from a DRAM run\n  \
         bestshot <workload>     synthesize the interleaving curve, pick a ratio\n  \
         colocate <a> <b>        decide who gets DRAM (CAMP vs MPKI)\n\n\
         options: --platform skx|spr|emr  --device numa|cxl-a|cxl-b|cxl-c  --validate"
    );
}

fn find_workload(name: &str) -> Result<Box<dyn camp::sim::Workload>, String> {
    camp::workloads::find(name)
        .ok_or_else(|| format!("workload '{name}' not in the suite (try `camp workloads`)"))
}

fn cmd_workloads(filter: Option<&str>) {
    for workload in camp::workloads::suite() {
        if filter.is_none_or(|f| workload.name().contains(f)) {
            println!(
                "{:<28} {:>2} threads  {:>7.1} MiB",
                workload.name(),
                workload.threads(),
                workload.footprint_bytes() as f64 / (1 << 20) as f64
            );
        }
    }
}

fn cmd_predict(options: &Options) -> Result<(), String> {
    let name = options.positional.first().ok_or("predict needs a workload name")?;
    let workload = find_workload(name)?;
    eprintln!("calibrating for {} + {}...", options.platform, options.device);
    let predictor = CampPredictor::new(Calibration::fit(options.platform, options.device));
    let dram = Machine::dram_only(options.platform).run(&workload);
    let prediction = predictor.predict_report(&dram);
    println!("workload       : {name}");
    println!("S_DRd          : {:+.1}%", prediction.drd * 100.0);
    println!("S_Cache        : {:+.1}%", prediction.cache * 100.0);
    println!("S_Store        : {:+.1}%", prediction.store * 100.0);
    println!(
        "total          : {:+.1}% (saturation-floored: {:+.1}%)",
        prediction.total() * 100.0,
        predictor.predict_total_saturated(&dram) * 100.0
    );
    if options.validate {
        let slow = Machine::slow_only(options.platform, options.device).run(&workload);
        let measured = MeasuredComponents::attribute(&dram, &slow);
        println!("measured       : {:+.1}%", measured.total * 100.0);
    }
    Ok(())
}

fn cmd_bestshot(options: &Options) -> Result<(), String> {
    let name = options.positional.first().ok_or("bestshot needs a workload name")?;
    let workload = find_workload(name)?;
    eprintln!("calibrating for {} + {}...", options.platform, options.device);
    let predictor = CampPredictor::new(Calibration::fit(options.platform, options.device));
    let dram = Machine::dram_only(options.platform).run(&workload);
    let slow = || Machine::slow_only(options.platform, options.device).run(&workload);
    let model = InterleaveModel::profile(&dram, slow, &predictor, DEFAULT_TAU)
        .map_err(|error| error.to_string())?;
    println!(
        "classification : {:?} ({} profiling run(s))",
        model.boundness, model.profiling_runs
    );
    for (x, slowdown) in model.curve(10) {
        println!("  {:>4.0}% DRAM -> {:+7.1}%", x * 100.0, slowdown * 100.0);
    }
    let choice = best_shot(&model);
    println!(
        "best-shot      : {:.0}% DRAM / {:.0}% {} (predicted {:+.1}%)",
        choice.ratio * 100.0,
        (1.0 - choice.ratio) * 100.0,
        options.device,
        choice.predicted_slowdown * 100.0
    );
    if options.validate {
        let chosen =
            Machine::interleaved(options.platform, options.device, choice.ratio).run(&workload);
        println!("measured       : {:+.1}%", chosen.slowdown_vs(&dram) * 100.0);
    }
    Ok(())
}

fn cmd_colocate(options: &Options) -> Result<(), String> {
    let [a_name, b_name] = options.positional.as_slice() else {
        return Err("colocate needs two workload names".to_string());
    };
    let a = find_workload(a_name)?;
    let b = find_workload(b_name)?;
    eprintln!("calibrating for {} + {}...", options.platform, options.device);
    let predictor = CampPredictor::new(Calibration::fit(options.platform, options.device));
    let (solo_a, solo_b) = solo_runs(options.platform, &a, &b);
    for policy in [ColocationPolicy::Camp, ColocationPolicy::Mpki] {
        let outcome = place_and_run(
            options.platform,
            options.device,
            (&a, &solo_a),
            (&b, &solo_b),
            policy,
            &predictor,
        );
        println!(
            "{policy:?}: {} on DRAM, {} on {} -> mean slowdown {:+.1}%",
            outcome.fast_workload,
            outcome.slow_workload,
            options.device,
            outcome.mean_slowdown() * 100.0
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        usage();
        return ExitCode::FAILURE;
    };
    let default_platform = if command == "bestshot" { Platform::Skx2s } else { Platform::Spr2s };
    let options = match parse(&args[1..], default_platform) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "workloads" => {
            cmd_workloads(options.positional.first().map(String::as_str));
            Ok(())
        }
        "predict" => cmd_predict(&options),
        "bestshot" => cmd_bestshot(&options),
        "colocate" => cmd_colocate(&options),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            usage();
            ExitCode::FAILURE
        }
    }
}
