//! `loadgen` — closed-loop load generator for `camp-serve`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7979                  # 1000 requests, 4 clients
//! loadgen --clients 8 --requests 5000 --batch 4
//! loadgen --seed 7 --platform SPR2S
//! loadgen --out latency.tsv                      # latency/throughput TSV
//! loadgen --predictions-out pred.tsv             # full prediction dump
//! ```
//!
//! Each client owns one connection and a fixed, deterministic slice of
//! the corpus (request `i` belongs to client `i % clients`), issuing its
//! requests back-to-back (closed loop). The corpus is a pure function of
//! `(seed, requests, batch, platform)` — see `camp_bench::corpus` — so
//! the `--predictions-out` dump is byte-identical across runs and client
//! counts, which is exactly what the CI smoke job asserts. An
//! `overloaded` (shed) answer is retried on a fresh connection and
//! counted, not treated as a failure; any other error response or any
//! framing error is.

use camp_bench::corpus;
use camp_obs::Histogram;
use camp_serve::{Client, PredictRequest, Response};
use camp_sim::Platform;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    batch: usize,
    seed: u64,
    platform: Platform,
    out: Option<PathBuf>,
    predictions_out: Option<PathBuf>,
}

/// One completed request, in corpus order after the merge.
struct Outcome {
    id: u64,
    latency_us: u64,
    sheds: u64,
    /// Pre-rendered prediction TSV lines (empty when the request failed).
    lines: Vec<String>,
    error: Option<String>,
}

fn take_value_flag(
    args: &mut Vec<String>,
    flag: &str,
    wants: &str,
) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.remove(pos);
    if pos < args.len() && !args[pos].starts_with('-') {
        Ok(Some(args.remove(pos)))
    } else {
        Err(format!("{flag} requires {wants}"))
    }
}

fn parse_usize(value: Option<String>, flag: &str, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(text) => text
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("{flag} requires a positive integer")),
    }
}

fn parse_args(mut args: Vec<String>) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--batch N]\n\
             \x20              [--seed N] [--platform NAME] [--out FILE] [--predictions-out FILE]"
        );
        return Ok(None);
    }
    let addr = take_value_flag(&mut args, "--addr", "a host:port")?
        .unwrap_or_else(|| "127.0.0.1:7979".to_string())
        .parse::<SocketAddr>()
        .map_err(|e| format!("--addr: {e}"))?;
    let clients = parse_usize(
        take_value_flag(&mut args, "--clients", "a positive integer")?,
        "--clients",
        4,
    )?;
    let requests = parse_usize(
        take_value_flag(&mut args, "--requests", "a positive integer")?,
        "--requests",
        1000,
    )?;
    let batch =
        parse_usize(take_value_flag(&mut args, "--batch", "a positive integer")?, "--batch", 4)?;
    let seed = match take_value_flag(&mut args, "--seed", "an integer")? {
        None => 42,
        Some(text) => text.parse::<u64>().map_err(|_| "--seed requires an integer")?,
    };
    let platform: Platform = take_value_flag(&mut args, "--platform", "a platform name")?
        .unwrap_or_else(|| "SPR2S".to_string())
        .parse()?;
    let out = take_value_flag(&mut args, "--out", "a file path")?.map(PathBuf::from);
    let predictions_out =
        take_value_flag(&mut args, "--predictions-out", "a file path")?.map(PathBuf::from);
    if let Some(stray) = args.first() {
        return Err(format!("unrecognised argument '{stray}' (try --help)"));
    }
    Ok(Some(Args {
        addr,
        clients,
        requests,
        batch,
        seed,
        platform,
        out,
        predictions_out,
    }))
}

/// Issues one request, retrying (on a fresh connection) while the server
/// sheds. Returns the response plus the shed count.
fn issue(
    client: &mut Option<Client>,
    addr: SocketAddr,
    request: &PredictRequest,
) -> Result<(Response, u64), String> {
    let timeout = Some(Duration::from_secs(30));
    let mut sheds = 0u64;
    loop {
        if client.is_none() {
            *client = Some(Client::connect(addr, timeout).map_err(|e| e.to_string())?);
        }
        let connection = client.as_mut().expect("just connected");
        match connection.predict(request.clone()) {
            Ok(Response::Error { code: camp_serve::ErrorCode::Overloaded, .. }) => {
                // Shed connections are closed server-side; back off a
                // little and reconnect.
                *client = None;
                sheds += 1;
                if sheds > 10_000 {
                    return Err("server shed this request 10000 times".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(response) => return Ok((response, sheds)),
            Err(error) => return Err(error.to_string()),
        }
    }
}

fn run_client(addr: SocketAddr, slice: Vec<PredictRequest>) -> Vec<Outcome> {
    let mut client: Option<Client> = None;
    let mut outcomes = Vec::with_capacity(slice.len());
    for request in slice {
        let start = Instant::now();
        let issued = issue(&mut client, addr, &request);
        let latency_us = start.elapsed().as_micros() as u64;
        let outcome = match issued {
            Ok((Response::Predictions { id, results }, sheds)) => {
                let mut lines = Vec::new();
                for (index, devices) in results.iter().enumerate() {
                    for device in devices {
                        lines.push(format!(
                            "{id}\t{index}\t{}\t{}\t{}\t{}\t{}\t{}",
                            device.device.name(),
                            device.prediction.drd,
                            device.prediction.cache,
                            device.prediction.store,
                            device.best_ratio,
                            device.best_slowdown,
                        ));
                    }
                }
                Outcome {
                    id: request.id,
                    latency_us,
                    sheds,
                    lines,
                    error: None,
                }
            }
            Ok((Response::Error { code, detail }, sheds)) => Outcome {
                id: request.id,
                latency_us,
                sheds,
                lines: Vec::new(),
                error: Some(format!("{}: {detail}", code.as_str())),
            },
            Ok((other, sheds)) => Outcome {
                id: request.id,
                latency_us,
                sheds,
                lines: Vec::new(),
                error: Some(format!("unexpected response {other:?}")),
            },
            Err(error) => Outcome {
                id: request.id,
                latency_us,
                sheds: 0,
                lines: Vec::new(),
                error: Some(error),
            },
        };
        outcomes.push(outcome);
    }
    outcomes
}

/// Renders the latency/throughput TSV: a `metric\tvalue` summary block,
/// then the power-of-two latency histogram (`camp_obs::hist`, the same
/// buckets the daemon's `stats` reports).
fn render_summary(outcomes: &[Outcome], wall_us: u64, args: &Args) -> String {
    let mut latencies: Vec<u64> = outcomes.iter().map(|o| o.latency_us).collect();
    latencies.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[rank]
    };
    let ok = outcomes.iter().filter(|o| o.error.is_none()).count();
    let errors = outcomes.len() - ok;
    let sheds: u64 = outcomes.iter().map(|o| o.sheds).sum();
    let predictions: usize = outcomes.iter().map(|o| o.lines.len()).sum();
    let throughput = if wall_us > 0 { ok as f64 * 1e6 / wall_us as f64 } else { 0.0 };
    let mut out = String::from("metric\tvalue\n");
    for (metric, value) in [
        ("clients", args.clients.to_string()),
        ("requests", outcomes.len().to_string()),
        ("ok", ok.to_string()),
        ("errors", errors.to_string()),
        ("sheds", sheds.to_string()),
        ("predictions", predictions.to_string()),
        ("wall_us", wall_us.to_string()),
        ("throughput_rps", format!("{throughput:.1}")),
        ("p50_us", percentile(0.50).to_string()),
        ("p90_us", percentile(0.90).to_string()),
        ("p99_us", percentile(0.99).to_string()),
        ("max_us", latencies.last().copied().unwrap_or(0).to_string()),
    ] {
        out.push_str(&format!("{metric}\t{value}\n"));
    }
    out.push_str("\nbucket_le_us\tcount\n");
    let histogram = Histogram::new();
    for &latency in &latencies {
        histogram.record(latency);
    }
    for (bound, count) in histogram.snapshot().nonzero() {
        out.push_str(&format!("{bound}\t{count}\n"));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let corpus = corpus::requests(args.seed, args.requests, args.batch, args.platform);
    // Deterministic partition: request i belongs to client i % clients.
    let mut slices: Vec<Vec<PredictRequest>> = (0..args.clients).map(|_| Vec::new()).collect();
    for (index, request) in corpus.into_iter().enumerate() {
        slices[index % args.clients].push(request);
    }
    let start = Instant::now();
    let handles: Vec<_> = slices
        .into_iter()
        .map(|slice| {
            let addr = args.addr;
            std::thread::spawn(move || run_client(addr, slice))
        })
        .collect();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(args.requests);
    for handle in handles {
        match handle.join() {
            Ok(mut client_outcomes) => outcomes.append(&mut client_outcomes),
            Err(_) => {
                eprintln!("client thread panicked");
                return ExitCode::FAILURE;
            }
        }
    }
    let wall_us = start.elapsed().as_micros() as u64;
    // Merge back into corpus order so every output is client-count
    // independent.
    outcomes.sort_by_key(|o| o.id);

    let summary = render_summary(&outcomes, wall_us, &args);
    print!("{summary}");
    if let Some(path) = &args.out {
        if let Err(error) = std::fs::write(path, &summary) {
            eprintln!("failed to write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.predictions_out {
        let mut text = String::from(
            "request\tsignature\tdevice\ts_drd\ts_cache\ts_store\tbest_ratio\tbest_slowdown\n",
        );
        for outcome in &outcomes {
            for line in &outcome.lines {
                text.push_str(line);
                text.push('\n');
            }
        }
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("failed to write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let failed: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_some()).collect();
    if !failed.is_empty() {
        for outcome in failed.iter().take(10) {
            eprintln!("request {} failed: {}", outcome.id, outcome.error.as_deref().unwrap_or("?"));
        }
        eprintln!("{} of {} requests failed", failed.len(), outcomes.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
