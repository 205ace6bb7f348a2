//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro list                   # show available experiment ids
//! repro table1 fig7 ...        # run specific experiments
//! repro all                    # run everything
//! repro --jobs 8 all           # run experiments on 8 worker threads
//! repro --out results all      # also archive TSVs under results/
//! repro --trace-stats ...      # print op-trace cache statistics to stderr
//! repro --manifest-out m.jsonl # write the JSON-lines run manifest
//! repro --trace-out t.json     # write a chrome://tracing / Perfetto trace
//! repro explain <workload>     # per-epoch residual drill-down
//! ```
//!
//! Experiments run concurrently (`--jobs N`, default: all cores) over a
//! shared single-flight run cache; each experiment's rendered tables are
//! buffered and printed in registry order, so stdout and the archived
//! TSVs are byte-identical to a serial (`--jobs 1`) run. Per-experiment
//! timings are likewise reported after the sweep, in input order, from the
//! recorded `experiment` spans — concurrent experiments cannot interleave
//! them.

use camp_bench::{experiments, explain, run_experiment, Context, ExperimentError, Table};
use camp_obs::{chrome, manifest, AttrValue, Json};
use camp_sim::par;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

enum Mode {
    /// Run experiments by id.
    Sweep(Vec<String>),
    /// Residual drill-down for named workloads.
    Explain(Vec<String>),
}

struct Args {
    mode: Mode,
    results_dir: Option<PathBuf>,
    jobs: usize,
    trace_stats: bool,
    manifest_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

/// Removes `flag` and its path value from `args`. Rejects a following
/// flag as the value: `--out --jobs 4 all` used to silently archive into
/// a directory named "--jobs".
fn take_path_flag(
    args: &mut Vec<String>,
    flag: &str,
    wants: &str,
) -> Result<Option<PathBuf>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.remove(pos);
    if pos < args.len() && !args[pos].starts_with('-') {
        Ok(Some(PathBuf::from(args.remove(pos))))
    } else {
        Err(format!("{flag} requires {wants}"))
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Path-valued flags first, so a boolean flag following one of them is
    // rejected as a missing value instead of being consumed elsewhere.
    let mut results_dir = take_path_flag(&mut args, "--out", "a directory")?;
    let manifest_out = take_path_flag(&mut args, "--manifest-out", "a file path")?;
    let trace_out = take_path_flag(&mut args, "--trace-out", "a file path")?;
    if results_dir.is_none() {
        results_dir = Some(PathBuf::from("results"));
    }
    if let Some(pos) = args.iter().position(|a| a == "--no-archive") {
        args.remove(pos);
        results_dir = None;
    }
    let mut trace_stats = false;
    if let Some(pos) = args.iter().position(|a| a == "--trace-stats") {
        args.remove(pos);
        trace_stats = true;
    }
    let mut jobs = par::default_jobs();
    if let Some(pos) = args.iter().position(|a| a == "--jobs" || a == "-j") {
        args.remove(pos);
        if pos < args.len() && !args[pos].starts_with('-') {
            jobs = args
                .remove(pos)
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--jobs requires a positive integer")?;
        } else {
            return Err("--jobs requires a positive integer".into());
        }
    }
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        println!(
            "usage: repro [--jobs N] [--out DIR | --no-archive] [--trace-stats]\n\
             \x20            [--manifest-out FILE] [--trace-out FILE] <experiment..|all>\n\
             \x20      repro explain <workload..>\n"
        );
        println!("experiments:");
        for experiment in experiments::registry() {
            println!("  {:18} {}", experiment.id, experiment.description);
        }
        return Ok(None);
    }
    let mode = if args[0] == "explain" {
        args.remove(0);
        if args.is_empty() {
            return Err("explain requires at least one workload name".into());
        }
        Mode::Explain(args)
    } else if args.iter().any(|a| a == "all") {
        Mode::Sweep(experiments::registry().iter().map(|e| e.id.to_string()).collect())
    } else {
        Mode::Sweep(args)
    };
    Ok(Some(Args {
        mode,
        results_dir,
        jobs,
        trace_stats,
        manifest_out,
        trace_out,
    }))
}

/// Writes the run manifest and/or Chrome trace, if requested.
fn write_observability(args: &Args, ctx: &Context, argv: &[String], wall_us: u64) -> bool {
    let write = |path: &Path, what: &str, text: String| -> bool {
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("failed to write {what} {}: {error}", path.display());
            return false;
        }
        true
    };
    let mut ok = true;
    if let Some(path) = &args.manifest_out {
        let meta: Vec<(&'static str, Json)> = vec![
            ("argv", argv.join(" ").into()),
            ("runs_executed", ctx.runs_executed().into()),
            ("cache_hits", ctx.cache_hits().into()),
        ];
        let timing: Vec<(&'static str, Json)> =
            vec![("jobs", args.jobs.into()), ("wall_us", wall_us.into())];
        ok &= write(path, "manifest", manifest::render("repro", meta, timing, ctx.recorder()));
    }
    if let Some(path) = &args.trace_out {
        ok &= write(path, "trace", chrome::render(ctx.recorder()));
    }
    ok
}

fn run_explain(args: &Args, names: &[String]) -> ExitCode {
    let start = std::time::Instant::now();
    let ctx = Context::new().with_jobs(args.jobs);
    for name in names {
        let tables = {
            let _span = ctx.recorder().scope("experiment", format!("explain:{name}"));
            match explain::explain(&ctx, name) {
                Ok(tables) => tables,
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            }
        };
        for table in tables {
            print!("{}", table.render());
            println!();
        }
    }
    let wall_us = start.elapsed().as_micros() as u64;
    if !write_observability(args, &ctx, names, wall_us) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let ids = match &args.mode {
        Mode::Explain(names) => return run_explain(&args, names),
        Mode::Sweep(ids) => ids.clone(),
    };
    // Validate ids up front: a typo should not cost a full parallel sweep.
    for id in &ids {
        if experiments::find(id).is_none() {
            eprintln!("unknown experiment '{id}' (try `repro list`)");
            return ExitCode::FAILURE;
        }
    }
    let start = std::time::Instant::now();
    let ctx = Context::new().with_jobs(args.jobs);
    // The whole sweep is one root span; experiment spans on worker threads
    // parent under it via the explicit cross-thread hand-off.
    let mut sweep = ctx.recorder().scope_rooted("sweep", "repro");
    sweep.attr("experiments", ids.len());
    let sweep_id = sweep.id();
    // Each experiment renders into its own buffer; buffers are printed in
    // input order below, so stdout does not depend on scheduling.
    let outputs = par::par_map(args.jobs, &ids, |id| {
        ctx.recorder().with_parent(Some(sweep_id), || {
            let mut buffer = Vec::new();
            let outcome = run_experiment(id, &ctx, &mut buffer, args.results_dir.as_deref());
            (buffer, outcome)
        })
    });
    // Successful experiments print in input order; a failed experiment's
    // partial buffer is discarded (keeping stdout byte-identical to a run
    // without the failure) and reported in the summary below, after every
    // requested experiment has had its chance to run.
    let mut failures: Vec<ExperimentError> = Vec::new();
    let mut stdout = std::io::stdout().lock();
    for (buffer, outcome) in outputs {
        match outcome {
            Ok(()) => {
                use std::io::Write;
                if stdout.write_all(&buffer).is_err() {
                    return ExitCode::FAILURE;
                }
            }
            Err(error) => failures.push(error),
        }
    }
    sweep.attr("failures", failures.len());
    sweep.end();
    // Per-experiment timings, in input order, from the recorded spans
    // (experiments that never recorded one — unknown ids — are skipped).
    let records = ctx.recorder().records();
    for id in &ids {
        let span = records
            .iter()
            .find(|r| !r.is_event && r.category == "experiment" && &r.name == id);
        if let Some(span) = span {
            let ok = span.attrs.iter().any(|(k, v)| *k == "ok" && *v == AttrValue::Bool(true));
            let verb = if ok { "finished" } else { "FAILED" };
            eprintln!("[{id} {verb} in {:.1}s]", span.dur_us as f64 / 1e6);
        }
    }
    if args.trace_stats {
        let traces = ctx.traces();
        eprintln!("trace cache: per-workload statistics");
        eprintln!("{:<32} {:>7} {:>10} {:>12}", "workload", "threads", "ops", "packed bytes");
        for stat in traces.stats() {
            eprintln!(
                "{:<32} {:>7} {:>10} {:>12}",
                stat.workload, stat.threads, stat.ops, stat.packed_bytes
            );
        }
        eprintln!(
            "trace cache: {} traces generated, {} hits / {} requests, {:.1} MiB packed",
            traces.generated(),
            traces.hits(),
            traces.requests(),
            traces.packed_bytes() as f64 / (1 << 20) as f64
        );
    }
    eprintln!(
        "total simulation runs executed: {} ({} jobs, {:.1}s wall-clock)",
        ctx.runs_executed(),
        args.jobs,
        start.elapsed().as_secs_f64()
    );
    let wall_us = start.elapsed().as_micros() as u64;
    if !write_observability(&args, &ctx, &ids, wall_us) {
        return ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        let mut summary = Table::new(
            format!("{} of {} experiments FAILED", failures.len(), ids.len()),
            &["experiment", "error"],
        );
        for failure in &failures {
            let detail = match failure {
                ExperimentError::UnknownId { .. } => "unknown experiment".to_string(),
                ExperimentError::Io { error, .. } => format!("i/o: {error}"),
                ExperimentError::Failed { detail, .. } => detail.clone(),
            };
            summary.row(&[failure.id().to_string(), detail]);
        }
        eprint!("{}", summary.render());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
