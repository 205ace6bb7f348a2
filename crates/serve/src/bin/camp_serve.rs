//! `camp-serve` — the prediction daemon.
//!
//! ```text
//! camp-serve                                # all platforms, port 7979
//! camp-serve --addr 127.0.0.1:0             # ephemeral port (printed)
//! camp-serve --platform SPR2S               # calibrate one platform only
//! camp-serve --workers 8 --queue-depth 128
//! camp-serve --deadline-ms 500
//! camp-serve --manifest-out serve.jsonl     # write manifest on shutdown
//! ```
//!
//! The daemon prints `listening on <addr> (<n> calibrations in <s> s)`
//! once ready, `<s>` being the wall-clock of the startup fits and bind —
//! scripts (and the CI smoke job) wait for that line — then serves until
//! a `shutdown` request arrives.

use camp_serve::{ServeConfig, Server};
use camp_sim::{DeviceKind, Platform};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Removes `flag` and its value from `args`, rejecting a following flag
/// as the value.
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

fn parse_config(mut args: Vec<String>) -> Result<Option<ServeConfig>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: camp-serve [--addr HOST:PORT] [--platform NAME|all]\n\
             \x20                 [--workers N] [--queue-depth N] [--deadline-ms N]\n\
             \x20                 [--manifest-out FILE]"
        );
        return Ok(None);
    }
    let mut config = ServeConfig {
        addr: "127.0.0.1:7979".to_string(),
        ..ServeConfig::default()
    };
    if let Some(addr) = take_value_flag(&mut args, "--addr", "a host:port")? {
        config.addr = addr;
    }
    if let Some(platform) = take_value_flag(&mut args, "--platform", "a platform name or 'all'")? {
        if !platform.eq_ignore_ascii_case("all") {
            let platform: Platform = platform.parse()?;
            config.pairs = DeviceKind::SLOW_TIERS.into_iter().map(|d| (platform, d)).collect();
        }
    }
    if let Some(workers) = take_value_flag(&mut args, "--workers", "a positive integer")? {
        config.workers = workers
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--workers requires a positive integer")?;
    }
    if let Some(depth) = take_value_flag(&mut args, "--queue-depth", "a positive integer")? {
        config.queue_depth = depth
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--queue-depth requires a positive integer")?;
    }
    if let Some(ms) = take_value_flag(&mut args, "--deadline-ms", "a positive integer")? {
        let ms = ms
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--deadline-ms requires a positive integer")?;
        config.deadline = Duration::from_millis(ms);
    }
    if let Some(path) = take_value_flag(&mut args, "--manifest-out", "a file path")? {
        config.manifest_out = Some(PathBuf::from(path));
    }
    if let Some(stray) = args.first() {
        return Err(format!("unrecognised argument '{stray}' (try --help)"));
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let config = match parse_config(std::env::args().skip(1).collect()) {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let calibrations = config.pairs.len();
    let started = Instant::now();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("failed to start: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "listening on {} ({calibrations} calibrations in {:.1} s)",
        server.addr(),
        started.elapsed().as_secs_f64()
    );
    match server.join() {
        Ok(snapshot) => {
            eprintln!(
                "served {} requests ({} predictions, {} shed, {} protocol errors)",
                snapshot.requests, snapshot.predictions, snapshot.shed, snapshot.protocol_errors
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("shutdown error: {error}");
            ExitCode::FAILURE
        }
    }
}
