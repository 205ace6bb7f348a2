//! `sim-suite`: the profile → predict → place pipeline behind `repro
//! table6`/`fig14`, over a seeded, family-stratified sample of the suite.
//!
//! For every sampled workload (a "job") the benchmark primes the op trace
//! through the shared trace cache, runs the DRAM-only and CXL-A endpoint
//! runs through the memoising [`Context`], predicts from the DRAM run's
//! signature, picks the Best-shot interleave ratio, and runs a third time
//! interleaved at that ratio on the cached trace. Jobs fan out over two
//! worker threads with `camp_bench::par`.

use crate::layers;
use crate::report::{
    fnv, host_scale, median, percentile, status_kb, yardstick_s, Report, FNV_OFFSET,
    YARDSTICK_REF_S,
};
use crate::Args;
use camp_bench::{par, Context};
use camp_core::interleave::{classify, DEFAULT_TAU};
use camp_core::{best_shot, Boundness, Calibration, CampPredictor, InterleaveModel, Signature};
use camp_obs::Recorder;
use camp_sim::{DeviceKind, Machine, Platform, RunReport, Workload};
use camp_workloads::rng::SplitMix;
use std::time::Instant;

const PLATFORM: Platform = Platform::Spr2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;
/// Simulation jobs in flight (sized for a 2-core host).
const JOBS: usize = 2;
/// Job-latency tail percentile: with two passes over the sample it keeps
/// at least ten jobs beyond it.
const TAIL_PERCENTILE: f64 = 75.0;
/// Jobs a run must complete so the tail percentile has ten beyond it.
const MIN_JOBS: usize = 40;

/// The sampling frame: one stratum per line, each a set of suite workloads
/// that differ in one parameter only (thread count, graph algorithm,
/// operation mix) and cost about the same to simulate. The seed picks one
/// member of every stratum, so each seed runs different inputs while the
/// cost profile of the sample — and with it the run-to-run spread of the
/// speed metrics — stays put. Every family is represented; the graph
/// kernels (`gap.*`) are the ones whose trace building outweighs their
/// simulation, and the 8/16-thread streams are bandwidth-bound, so their
/// Best-shot ratio comes from both endpoint runs.
const STRATA: &[&[&str]] = &[
    &["mlc.chase-32m-c1", "mlc.chase-32m-c2"],
    &["mlc.memset-8m", "mlc.memcpy-8m"],
    &["mlc.gups-64m-d4-w50", "mlc.gups-256m-d4-w50"],
    &["mlc.stream-8t-c0", "mlc.stream-16t-c0"],
    &["spec.502.gcc-1t", "spec.502.gcc-4t"],
    &["spec.557.xz-1t", "spec.557.xz-4t"],
    &["spec.619.lbm-2t", "spec.619.lbm-8t"],
    &["spec.644.nab-2t", "spec.644.nab-8t"],
    &[
        "gap.bfs-kron",
        "gap.pr-kron",
        "gap.cc-kron",
        "gap.sssp-kron",
    ],
    &["gap.bfs-twitter", "gap.pr-twitter", "gap.cc-twitter"],
    &[
        "gap.bfs-road",
        "gap.pr-road",
        "gap.cc-road",
        "gap.sssp-road",
    ],
    &["pbbs.sampleSort-1t", "pbbs.sampleSort-4t"],
    &["pbbs.suffixArray-1t", "pbbs.suffixArray-4t"],
    &["parsec.ferret-1t", "parsec.ferret-8t"],
    &["parsec.bodytrack-1t", "parsec.bodytrack-8t"],
    &["xs.unionized-sm-1t", "xs.unionized-sm-8t"],
    &[
        "redis.get-sm",
        "redis.set-sm",
        "redis.mixed-sm",
        "redis.zipf-get-sm",
    ],
    &[
        "voltdb.read-heavy-sm",
        "voltdb.write-heavy-sm",
        "voltdb.balanced-sm",
    ],
    &["spark.sort-4t", "spark.sort-8t"],
    &["ycsb.a-sm", "ycsb.b-sm", "ycsb.c-sm"],
    &["ai.dlrm-inference", "ai.dlrm-training"],
    &["phx.sqlite-1t", "phx.sqlite-4t"],
    &["phx.build-llvm-1t", "phx.build-llvm-4t"],
    &["db.sort_merge-sm", "db.groupby-sm"],
];

/// The `--smoke` frame: two cheap strata, one of them a graph kernel.
const SMOKE_STRATA: &[&[&str]] = &[
    &["spec.548.exchange2-1t", "spec.548.exchange2-4t"],
    &["gap.pr-road", "gap.cc-road"],
];

/// One sampled workload carried through the pipeline.
struct Job {
    graph: bool,
    ops: u64,
    trace_bytes: u64,
    trace_ns: u64,
    dram_ns: u64,
    slow_ns: u64,
    interleaved_ns: u64,
    latency_ns: u64,
    /// Yardstick read on the job's thread just before the job.
    yardstick_s: f64,
    predicted: f64,
    measured: f64,
    bestshot_error: f64,
    digest: u64,
    problems: Vec<String>,
}

/// One pass over the whole sample with fresh caches.
struct Pass {
    jobs: Vec<Result<Job, String>>,
    wall_s: f64,
    cache_hits: usize,
    runs_executed: usize,
    trace_requests: usize,
    trace_hits: usize,
}

impl Pass {
    fn ok_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter_map(|job| job.as_ref().ok())
    }

    /// Pass wall time without the yardstick readings, as measured and at
    /// reference host speed.
    fn wall(&self) -> (f64, f64) {
        let readings: Vec<f64> = self.ok_jobs().map(|job| job.yardstick_s).collect();
        let wall = self.wall_s - readings.iter().sum::<f64>() / JOBS as f64;
        (wall, wall * host_scale(&readings))
    }

    /// Simulated ops of every run the pass requested, per host second at
    /// reference host speed.
    fn mops_per_s(&self) -> f64 {
        let ops: u64 = self.ok_jobs().map(|job| 3 * job.ops).sum();
        ops as f64 / self.wall().1 / 1e6
    }

    fn digest(&self) -> u64 {
        self.ok_jobs()
            .fold(FNV_OFFSET, |hash, job| fnv(hash, &job.digest.to_le_bytes()))
    }
}

/// Draws the seeded sample: one member of every stratum.
fn sample(seed: u64, strata: &[&[&str]]) -> Result<Vec<Box<dyn Workload>>, String> {
    let mut rng = SplitMix::new(seed);
    let mut suite: Vec<Option<Box<dyn Workload>>> =
        camp_workloads::suite().into_iter().map(Some).collect();
    strata
        .iter()
        .map(|stratum| {
            let name = stratum[rng.below(stratum.len() as u64) as usize];
            suite
                .iter_mut()
                .find(|slot| slot.as_ref().is_some_and(|w| w.name() == name))
                .and_then(Option::take)
                .ok_or_else(|| format!("sampling frame names '{name}', which the suite lacks"))
        })
        .collect()
}

/// Runs `f` inside a span of `category` when tracing, returning its result
/// and its duration in nanoseconds.
fn timed<R>(
    recorder: Option<&Recorder>,
    category: &'static str,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let _span = recorder.map(|r| r.scope(category, name));
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_nanos() as u64)
}

fn report_problems(label: &str, report: &RunReport, problems: &mut Vec<String>) {
    if !(report.cycles.is_finite() && report.cycles > 0.0 && report.seconds.is_finite()) {
        problems.push(format!("{label} run reports {} cycles", report.cycles));
    }
    if let Err(error) = Signature::from_report(report).check(label) {
        problems.push(error.to_string());
    }
}

fn run_job(
    ctx: &Context,
    predictor: &CampPredictor,
    workload: &dyn Workload,
    recorder: Option<&Recorder>,
) -> Job {
    let yardstick_s = yardstick_s();
    let start = Instant::now();
    let name = workload.name();
    let _job = recorder.map(|r| r.scope("job", name));
    let (trace, trace_ns) = timed(recorder, "trace.build", name, || ctx.traces().trace(workload));
    let (dram, dram_ns) =
        timed(recorder, "engine.dram", name, || ctx.run(PLATFORM, None, workload));
    let (slow, slow_ns) =
        timed(recorder, "engine.slow", name, || ctx.run(PLATFORM, Some(DEVICE), workload));
    let (prediction, _) = timed(recorder, "model.predict", name, || {
        predictor.predict_signature(&Signature::from_report(&dram))
    });
    // Figure 12's workflow: latency-bound workloads are modelled from the
    // DRAM run alone, bandwidth-bound ones from both endpoint runs.
    let (shot, _) = timed(recorder, "model.bestshot", name, || {
        let model = match classify(&dram, DEFAULT_TAU) {
            Boundness::LatencyBound => InterleaveModel::from_dram_run(&dram, predictor),
            Boundness::BandwidthBound => InterleaveModel::from_endpoint_runs(&dram, &slow),
        };
        best_shot(&model)
    });
    // The baseline comes back through the memo, as in `repro fig14`.
    let baseline = ctx.run(PLATFORM, None, workload);
    let (interleaved, interleaved_ns) = timed(recorder, "engine.interleaved", name, || {
        let trace = ctx.traces().trace(workload);
        Machine::interleaved(PLATFORM, DEVICE, shot.ratio).run_trace(workload, &trace)
    });

    let mut problems = Vec::new();
    report_problems("dram", &dram, &mut problems);
    report_problems("slow", &slow, &mut problems);
    report_problems("interleaved", &interleaved, &mut problems);
    let predicted = prediction.total().max(predictor.bandwidth_saturation_floor(&dram));
    if !predicted.is_finite() || !(0.0..=1.0).contains(&shot.ratio) {
        problems.push(format!("prediction {predicted} at Best-shot ratio {}", shot.ratio));
    }
    let measured = slow.slowdown_vs(&dram);
    let bestshot_error = (shot.predicted_slowdown - interleaved.slowdown_vs(&baseline)).abs();
    let digest = [&*dram, &*slow, &interleaved]
        .iter()
        .fold(FNV_OFFSET, |hash, report| fnv(hash, format!("{report:?}").as_bytes()));
    Job {
        graph: name.starts_with("gap."),
        ops: trace.len() as u64,
        trace_bytes: trace.packed_bytes() as u64,
        trace_ns,
        dram_ns,
        slow_ns,
        interleaved_ns,
        latency_ns: start.elapsed().as_nanos() as u64,
        yardstick_s,
        predicted,
        measured,
        bestshot_error,
        digest,
        problems,
    }
}

fn run_pass(
    sample: &[Box<dyn Workload>],
    predictor: &CampPredictor,
    recorder: Option<&Recorder>,
) -> Pass {
    let ctx = Context::new().with_jobs(JOBS);
    let pass = recorder.map(|r| r.scope("pass", "sim-suite"));
    let parent = pass.as_ref().map(|span| span.id());
    let start = Instant::now();
    let jobs = par::par_map(JOBS, sample, |workload| {
        let run = || run_job(&ctx, predictor, workload.as_ref(), recorder);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match recorder {
            Some(r) => r.with_parent(parent, run),
            None => run(),
        }));
        attempt.map_err(|payload| {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("{} failed: {detail}", workload.name())
        })
    });
    let wall_s = start.elapsed().as_secs_f64();
    drop(pass);
    Pass {
        jobs,
        wall_s,
        cache_hits: ctx.cache_hits(),
        runs_executed: ctx.runs_executed(),
        trace_requests: ctx.traces().requests(),
        trace_hits: ctx.traces().hits(),
    }
}

/// Runs passes until `seconds` have elapsed and at least `min_jobs` jobs
/// completed (always at least one pass).
fn run_passes(
    sample: &[Box<dyn Workload>],
    predictor: &CampPredictor,
    seconds: f64,
    min_jobs: usize,
    recorder: Option<&Recorder>,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty()
        || start.elapsed().as_secs_f64() < seconds
        || passes.len() * sample.len() < min_jobs
    {
        passes.push(run_pass(sample, predictor, recorder));
    }
    passes
}

/// Accuracy over one pass: Pearson, share within 10 points, mean
/// Best-shot error in points.
fn accuracy(pass: &Pass) -> (f64, f64, f64) {
    let jobs: Vec<&Job> = pass.ok_jobs().collect();
    if jobs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let predicted: Vec<f64> = jobs.iter().map(|j| j.predicted).collect();
    let measured: Vec<f64> = jobs.iter().map(|j| j.measured).collect();
    let pearson = camp_core::stats::pearson(&predicted, &measured).unwrap_or(0.0);
    let within = jobs.iter().filter(|j| (j.predicted - j.measured).abs() <= 0.10).count();
    let bestshot = jobs.iter().map(|j| j.bestshot_error).sum::<f64>() / jobs.len() as f64;
    (pearson, 100.0 * within as f64 / jobs.len() as f64, 100.0 * bestshot)
}

/// Checks every pass, counts failures, and records the end-to-end metrics
/// of `passes`.
fn score(report: &mut Report, passes: &[Pass]) {
    let first = passes[0].digest();
    for (index, pass) in passes.iter().enumerate() {
        report.attempted += pass.jobs.len() as u64;
        for job in &pass.jobs {
            match job {
                Err(error) => {
                    report.failed += 1;
                    report.line(format!("job error: {error}"));
                }
                Ok(job) if !job.problems.is_empty() => {
                    report.check_failed(job.problems.join("; "));
                }
                Ok(_) => {}
            }
        }
        if pass.digest() != first {
            report.check_failed(format!("pass {index} simulated different counters than pass 0"));
        }
    }
    let mut latencies: Vec<f64> = passes
        .iter()
        .flat_map(|pass| {
            pass.ok_jobs()
                .map(|job| job.latency_ns as f64 / 1e6 * YARDSTICK_REF_S / job.yardstick_s)
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let rates: Vec<f64> = passes.iter().map(Pass::mops_per_s).collect();
    let jobs_per_s: Vec<f64> =
        passes.iter().map(|p| p.ok_jobs().count() as f64 / p.wall().1).collect();
    report.set("sim_mops_per_s", median(&rates));
    report.set("throughput_rps", median(&jobs_per_s));
    report.set("p50_ms", percentile(&latencies, 50.0));
    report.set("tail_ms", percentile(&latencies, TAIL_PERCENTILE));
    let (pearson, within10, bestshot) = accuracy(&passes[0]);
    report.set("pred_pearson", pearson);
    report.set("pred_within10_pct", within10);
    report.set("bestshot_err_pct", bestshot);
    report.line(format!(
        "sim-suite: {} jobs per pass, {} passes; as measured: pass wall {:.3} s, {:.3} Mop/s \
         (median); host-speed scale {:.3}",
        passes[0].jobs.len(),
        passes.len(),
        median(&passes.iter().map(|p| p.wall().0).collect::<Vec<_>>()),
        median(
            &passes
                .iter()
                .map(|p| p.mops_per_s() * p.wall().1 / p.wall().0)
                .collect::<Vec<_>>()
        ),
        median(&passes.iter().map(|p| p.wall().1 / p.wall().0).collect::<Vec<_>>())
    ));
    report.line(format!(
        "job latency at reference host speed: p50 {:.1} ms, p{TAIL_PERCENTILE} {:.1} ms over {} jobs",
        percentile(&latencies, 50.0),
        percentile(&latencies, TAIL_PERCENTILE),
        latencies.len()
    ));
    report.line(format!("simulated-counter digest {first:016x}"));
}

/// Per-layer metrics of the traced passes.
fn layer_metrics(report: &mut Report, passes: &[Pass], bases: &mut Vec<(&str, String)>) {
    let jobs: Vec<&Job> = passes.iter().flat_map(Pass::ok_jobs).collect();
    let sum = |f: &dyn Fn(&Job) -> u64, graph: Option<bool>| -> f64 {
        jobs.iter()
            .filter(|j| graph.is_none_or(|g| j.graph == g))
            .map(|j| f(j))
            .sum::<u64>() as f64
    };
    let ops = sum(&|j| j.ops, None);
    let per_op = |total: f64, ops: f64| if ops > 0.0 { total / ops } else { 0.0 };
    let graph_ops = sum(&|j| j.ops, Some(true));
    let other_ops = sum(&|j| j.ops, Some(false));
    report.set(
        "trace.build_ns_per_op.graph",
        per_op(sum(&|j| j.trace_ns, Some(true)), graph_ops),
    );
    report.set(
        "trace.build_ns_per_op.other",
        per_op(sum(&|j| j.trace_ns, Some(false)), other_ops),
    );
    report.set("trace.bytes_per_op", per_op(sum(&|j| j.trace_bytes, None), ops));
    let requests: usize = passes.iter().map(|p| p.trace_requests).sum();
    let hits: usize = passes.iter().map(|p| p.trace_hits).sum();
    report.set("trace.cache_hit_ratio", hits as f64 / requests.max(1) as f64);
    report.set("engine.ns_per_op.dram", per_op(sum(&|j| j.dram_ns, None), ops));
    report.set("engine.ns_per_op.slow", per_op(sum(&|j| j.slow_ns, None), ops));
    report.set("engine.ns_per_op.interleaved", per_op(sum(&|j| j.interleaved_ns, None), ops));
    let runs: usize = passes.iter().map(|p| p.runs_executed + p.ok_jobs().count()).sum();
    report.set("engine.runs", runs as f64 / passes.len() as f64);
    let busy_s = sum(&|j| j.latency_ns, None) / 1e9;
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    report.set("harness.parallel_efficiency", busy_s / (JOBS as f64 * wall_s));
    let cache_hits: usize = passes.iter().map(|p| p.cache_hits).sum();
    report.set("harness.cache_hits", cache_hits as f64 / passes.len() as f64);
    bases.extend([
        ("trace.build_ns_per_op.graph", format!("{graph_ops} graph-kernel ops")),
        ("trace.build_ns_per_op.other", format!("{other_ops} other ops")),
        ("trace.bytes_per_op", format!("{ops} ops")),
        ("trace.cache_hit_ratio", format!("{requests} trace requests")),
        ("engine.ns_per_op.dram", format!("{ops} ops per endpoint")),
        ("engine.ns_per_op.slow", format!("{ops} ops per endpoint")),
        ("engine.ns_per_op.interleaved", format!("{ops} ops per endpoint")),
        ("engine.runs", "engine runs per pass".to_string()),
        ("harness.parallel_efficiency", format!("{JOBS} jobs x {wall_s:.2} s wall")),
        ("harness.cache_hits", "Context::run memo hits per pass".to_string()),
        ("pred_pearson", format!("{} sampled workloads", passes[0].jobs.len())),
        ("pred_within10_pct", format!("{} sampled workloads", passes[0].jobs.len())),
        ("bestshot_err_pct", format!("{} sampled workloads", passes[0].jobs.len())),
    ]);
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let strata = if args.smoke { SMOKE_STRATA } else { STRATA };
    let mut report = Report::default();

    let before = yardstick_s();
    let setup = Instant::now();
    let sample = sample(args.seed, strata)?;
    let calibration = if args.smoke {
        Calibration::fit_with(PLATFORM, DEVICE, &crate::serve::reduced_probes())
    } else {
        Calibration::fit(PLATFORM, DEVICE)
    };
    let setup_s = setup.elapsed().as_secs_f64();
    let scale = host_scale(&[before, yardstick_s()]);
    let predictor = CampPredictor::new(calibration);
    report.set("setup_s", setup_s * scale);
    report.set("calibration.fit_s", setup_s);
    report.line(format!("set-up as measured {setup_s:.3} s, host-speed scale {scale:.3}"));
    let names: Vec<&str> = sample.iter().map(|w| w.name()).collect();
    report.line(format!("sample (seed {}): {}", args.seed, names.join(" ")));
    let min_jobs = if args.smoke { 1 } else { MIN_JOBS };

    if !args.trace {
        let passes = run_passes(&sample, &predictor, args.seconds, min_jobs, None);
        score(&mut report, &passes);
    } else {
        let untraced = run_passes(&sample, &predictor, args.seconds / 2.0, 1, None);
        let recorder = Recorder::new();
        let traced = run_passes(&sample, &predictor, args.seconds / 2.0, 1, Some(&recorder));
        score(&mut report, &untraced);
        let untraced_rate = report.get("sim_mops_per_s").unwrap_or(0.0);
        score(&mut report, &traced);
        let traced_rate = report.get("sim_mops_per_s").unwrap_or(0.0);
        report.set("tracing.overhead_pct", 100.0 * (untraced_rate - traced_rate) / untraced_rate);
        let mut bases = vec![
            ("calibration.fit_s", "one Calibration::fit (SPR2S, CXL-A)".to_string()),
            (
                "tracing.overhead_pct",
                format!("untraced {untraced_rate:.3} vs traced {traced_rate:.3} Mop/s"),
            ),
        ];
        layer_metrics(&mut report, &traced, &mut bases);
        crate::model_probe(&mut report, &predictor, args.seed, &mut bases);
        let path = args.out_dir.join(format!("sim-suite-seed{}.trace.json", args.seed));
        layers::write_chrome(&path, &recorder)?;
        report.line(format!("chrome trace: {}", path.display()));
        layers::table(&mut report, &recorder, &bases);
    }
    report.set("rss_mb", status_kb(None, "VmHWM")? as f64 / 1024.0);
    let errors = report.failed as f64 / report.attempted.max(1) as f64 * 100.0;
    report.line(format!(
        "error_pct {errors:.3} % ({} of {} jobs)",
        report.failed, report.attempted
    ));
    for (name, unit) in [
        ("pred_pearson", ""),
        ("pred_within10_pct", "%"),
        ("bestshot_err_pct", "points"),
    ] {
        report.line(format!("{name} {:.6} {unit}", report.get(name).unwrap_or(0.0)));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stratum_names_suite_workloads() {
        for strata in [STRATA, SMOKE_STRATA] {
            for seed in 0..8 {
                let sample = sample(seed, strata).expect("frame matches the suite");
                assert_eq!(sample.len(), strata.len());
            }
        }
        assert!(sample(1, &[&["no.such-workload"]]).is_err());
    }

    #[test]
    fn the_seed_varies_the_sample() {
        let names = |seed| -> Vec<String> {
            sample(seed, STRATA).unwrap().iter().map(|w| w.name().to_string()).collect()
        };
        assert_eq!(names(3), names(3));
        assert!((0..8).any(|seed| names(seed) != names(3)));
    }
}
