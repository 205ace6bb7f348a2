//! `perfbench` — the repository's benchmark: end-to-end metrics of the
//! CAMP pipeline and the prediction daemon, and a traced run that splits
//! them by layer.
//!
//! ```text
//! perfbench --workload sim-suite|serve-small|serve-bulk --seed N --seconds S --trace 0|1
//! perfbench daemon --platform NAME --addr HOST:PORT --manifest-out FILE
//! ```
//!
//! The last line of standard output is the result: `{"correct", "attempted",
//! "failed", "metrics"}`, with every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`). Lines above it say what ran and
//! print the digests that show a speed-only change left every simulated
//! counter and every served prediction as it was. Traced runs write a
//! Chrome trace and the daemon manifests under `.bench_out/`. The tests
//! run each workload at smoke size (a tiny sample, an in-process daemon
//! with synthetic calibrations).

mod layers;
mod report;
mod serve;
mod sim;

use camp_core::{best_shot, CampPredictor, InterleaveModel};
use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim-suite", "serve-small", "serve-bulk"];

/// Metric `(name, unit)` pairs a run reports.
type Metrics = &'static [(&'static str, &'static str)];

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let index = args.iter().position(|a| a == flag).ok_or(format!("{flag} is required"))?;
        args.get(index + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} requires a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    let seed = value("--seed")?.parse().map_err(|_| "--seed requires an integer")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds requires a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    })
}

/// Times the model layer per signature on the seeded request corpus, in
/// this process: `CampPredictor::predict_signature`, then
/// `InterleaveModel::try_from_signature` plus `best_shot` — the arithmetic
/// the daemon does for every (signature, device) pair.
pub fn model_probe(
    report: &mut Report,
    predictor: &CampPredictor,
    seed: u64,
    bases: &mut Vec<(&'static str, String)>,
) {
    const SIGNATURES: usize = 4096;
    let requests =
        camp_bench::corpus::requests(seed, 1, SIGNATURES, predictor.calibration().platform);
    let signatures = &requests[0].signatures;
    let start = Instant::now();
    for signature in signatures {
        std::hint::black_box(predictor.predict_signature(std::hint::black_box(signature)));
    }
    let predict_us = start.elapsed().as_secs_f64() * 1e6 / SIGNATURES as f64;
    let start = Instant::now();
    for signature in signatures {
        let model = InterleaveModel::try_from_signature(signature, predictor, "probe");
        std::hint::black_box(model.map(|model| best_shot(&model)).ok());
    }
    let bestshot_us = start.elapsed().as_secs_f64() * 1e6 / SIGNATURES as f64;
    report.set("model.predict_us", predict_us);
    report.set("model.bestshot_us", bestshot_us);
    bases.push(("model.predict_us", format!("{SIGNATURES} corpus signatures")));
    bases.push(("model.bestshot_us", format!("{SIGNATURES} corpus signatures")));
}

/// Runs one workload and returns its report with every metric of the run
/// kind set (layers a workload does not exercise read 0).
pub fn run(args: &Args) -> Result<(Report, Metrics), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let mut report = match args.workload.as_str() {
        "sim-suite" => sim::run(args)?,
        "serve-small" => serve::run(args, &serve::SMALL)?,
        _ => serve::run(args, &serve::BULK)?,
    };
    if !args.trace {
        return Ok((report, &END_TO_END));
    }
    for (name, _) in PER_LAYER {
        if report.get(name).is_none() {
            report.set(name, 0.0);
        }
    }
    Ok((report, &PER_LAYER))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return serve::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let (report, metrics) = match run(&args) {
        Ok(done) => done,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for problem in report.check_failures.iter().take(10) {
        eprintln!("perfbench: OUTPUT CHECK FAILED: {problem}");
    }
    match report.result_line(metrics) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> (Report, Metrics) {
        let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        let args = Args {
            workload: workload.to_string(),
            seed: 5,
            seconds: 0.2,
            trace,
            smoke: true,
            out_dir: dir,
        };
        run(&args).unwrap_or_else(|e| panic!("{workload} smoke failed: {e}"))
    }

    #[test]
    fn every_workload_prints_every_metric_at_smoke_size() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (report, metrics) = smoke(workload, trace);
                assert!(report.correct(), "{workload}: {:?}", report.check_failures);
                assert!(report.attempted > 0 && report.failed == 0, "{workload}");
                let line = report.result_line(metrics).expect("every metric measured");
                for (name, unit) in metrics {
                    assert!(
                        line.contains(&format!("\"{name}\":{{\"value\":")),
                        "{workload} lacks {name}"
                    );
                    assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload sim-suite --seed 1 --seconds 10 --trace 0")).is_ok());
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload sim-suite --seed x --seconds 10 --trace 0",
            "--workload sim-suite --seed 1 --seconds 0 --trace 0",
            "--workload sim-suite --seed 1 --seconds 10 --trace 2",
            "--workload sim-suite --seed 1 --seconds 10",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
