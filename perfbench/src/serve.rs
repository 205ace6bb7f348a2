//! `serve-small` and `serve-bulk`: the prediction daemon under two closed
//! loop clients, each with one persistent connection.
//!
//! The daemon is the benchmark binary's `daemon` mode: the `camp-serve`
//! server library configured as `camp-serve --platform SPR2S --addr
//! 127.0.0.1:0 --manifest-out FILE` configures it (same worker pool, queue
//! depth and deadline), except that each of its four start-up calibrations
//! is fitted from [`reduced_probes`] instead of the full 55-probe suite.
//! The full fits cost about a minute per start, which a benchmark started
//! dozens of times cannot afford; the reduced fits are still real
//! simulation, so engine and calibration changes still move `setup_s`.
//! The benchmark process is the client: it encodes each request with
//! `PredictRequest::to_json`, frames it with `write_frame`, reads the
//! answer with `read_frame` and decodes it with `Response::from_text`.

use crate::layers;
use crate::report::{
    fnv, host_scale, mean, median, percentile, status_kb, yardstick_s, Report, FNV_OFFSET,
};
use crate::Args;
use camp_bench::corpus;
use camp_core::{Calibration, CampPredictor};
use camp_obs::json::{self, Json};
use camp_obs::Recorder;
use camp_serve::protocol::{read_frame, write_frame};
use camp_serve::{Client, PredictRequest, Request, Response, ServeConfig, Server, StatsSnapshot};
use camp_sim::{DeviceKind, Platform, Workload};
use camp_workloads::kernels::{PointerChase, StoreKernel, StorePattern, StridedRead};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PLATFORM: Platform = Platform::Spr2s;
/// Closed-loop clients, one persistent connection each.
const CLIENTS: usize = 2;
/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `rss_mb` is the daemon's peak RSS over its first this-many answers
/// (or the whole load, if shorter). The daemon's span log grows by
/// doubling, so a peak read after a load whose length follows the
/// throughput would jump by whole steps from run to run.
const RSS_REQUESTS: usize = 40_000;
/// How long a daemon may take to print its ready line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a load may run past `--seconds` waiting for its minimum
/// sample count and corpus coverage (reached only when the daemon fails).
const LOAD_GRACE: f64 = 60.0;

/// One serve workload's traffic shape.
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Signatures per predict request.
    pub batch: usize,
    /// Distinct requests in the seeded corpus; clients cycle over it.
    pub corpus: usize,
    /// Requests a run completes at least, so the tail percentile keeps ten
    /// samples beyond it.
    pub min_requests: usize,
    /// The reported tail percentile.
    pub tail: f64,
    /// Whether request latency is host-speed bound (and so reported at
    /// reference host speed). `serve-bulk` latency is mostly fixed TCP
    /// acknowledgement waits, which a faster host does not shorten.
    pub host_bound: bool,
}

/// Four signatures per request: per-frame costs dominate.
pub const SMALL: Shape = Shape {
    name: "serve-small",
    batch: 4,
    corpus: 1024,
    min_requests: 1000,
    tail: 99.0,
    host_bound: true,
};
/// 64 signatures per request: frames exceed 8 KiB both ways.
pub const BULK: Shape = Shape {
    name: "serve-bulk",
    batch: 64,
    corpus: 64,
    min_requests: 200,
    tail: 95.0,
    host_bound: false,
};

/// The daemon's start-up calibration probes: one pointer chase per
/// parallelism regime, a strided read and a memset — each pressure point
/// of the full suite, at a quarter of its op budget.
pub fn reduced_probes() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(PointerChase::new("calib.r-chase-c1", 1, 1 << 19, 1, 40_000)),
        Box::new(PointerChase::new("calib.r-chase-c4", 1, 1 << 19, 4, 40_000)),
        Box::new(PointerChase::new("calib.r-chase-c12", 1, 1 << 19, 12, 40_000)),
        Box::new(StridedRead::new("calib.r-strided", 1, 1 << 19, 4, 2, 40_000)),
        Box::new(StoreKernel::new("calib.r-memset", 1, 64 << 20, StorePattern::Memset, 40_000)),
    ]
}

fn reduced_fit(platform: Platform, device: DeviceKind) -> Calibration {
    Calibration::fit_with(platform, device, &reduced_probes())
}

/// Fixed constants for the in-process smoke server (no simulation).
fn synthetic_fit(platform: Platform, device: DeviceKind) -> Calibration {
    Calibration {
        platform,
        device,
        hyperbola: camp_core::stats::Hyperbola { p: 1.2, q: 40.0 },
        k_drd: 0.9,
        k_drd_aol: 0.8,
        l3_hit_latency: 50.0,
        k_cache: 0.4,
        k_store: 0.3,
        dram_idle_latency: 240.0,
        slow_idle_latency: 450.0,
        samples: 8,
    }
}

fn daemon_config(addr: String, platform: Platform, manifest: PathBuf) -> ServeConfig {
    ServeConfig {
        addr,
        pairs: DeviceKind::SLOW_TIERS.into_iter().map(|d| (platform, d)).collect(),
        manifest_out: Some(manifest),
        calibrate: reduced_fit,
        ..ServeConfig::default()
    }
}

/// `perfbench daemon --platform NAME --addr HOST:PORT --manifest-out FILE`.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let (Some(platform), Some(addr), Some(manifest)) =
        (value("--platform"), value("--addr"), value("--manifest-out"))
    else {
        eprintln!("usage: perfbench daemon --platform NAME --addr HOST:PORT --manifest-out FILE");
        return ExitCode::FAILURE;
    };
    let platform: Platform = match platform.parse() {
        Ok(platform) => platform,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
    };
    let config = daemon_config(addr.clone(), platform, PathBuf::from(manifest));
    let calibrations = config.pairs.len();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("failed to start: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {} ({calibrations} calibrations)", server.addr());
    let _ = std::io::stdout().flush();
    match server.join() {
        Ok(_) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("shutdown error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon: a child process, or (smoke) an in-process server.
enum Handle {
    Process {
        child: Child,
        stdout: Option<JoinHandle<()>>,
    },
    InProcess(Option<Server>),
}

struct Daemon {
    handle: Handle,
    addr: SocketAddr,
    manifest: PathBuf,
    ready_s: f64,
}

impl Daemon {
    fn spawn(manifest: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args([
                "daemon",
                "--platform",
                PLATFORM.name(),
                "--addr",
                "127.0.0.1:0",
            ])
            .arg("--manifest-out")
            .arg(manifest)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (sender, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if sender.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            handle: Handle::Process { child, stdout: Some(reader) },
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            manifest: manifest.to_path_buf(),
            ready_s: 0.0,
        };
        loop {
            let left = READY_TIMEOUT.saturating_sub(start.elapsed());
            match lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        let addr = addr.split_whitespace().next().unwrap_or_default();
                        daemon.addr =
                            addr.parse().map_err(|e| format!("ready line {line:?}: {e}"))?;
                        daemon.ready_s = start.elapsed().as_secs_f64();
                        return Ok(daemon);
                    }
                }
                Err(_) => return Err("the daemon exited or never printed its ready line".into()),
            }
        }
    }

    fn in_process(manifest: &Path) -> Result<Daemon, String> {
        let start = Instant::now();
        let config = ServeConfig {
            calibrate: synthetic_fit,
            ..daemon_config("127.0.0.1:0".to_string(), PLATFORM, manifest.to_path_buf())
        };
        let server = Server::start(config).map_err(|e| format!("starting the server: {e}"))?;
        Ok(Daemon {
            addr: server.addr(),
            handle: Handle::InProcess(Some(server)),
            manifest: manifest.to_path_buf(),
            ready_s: start.elapsed().as_secs_f64(),
        })
    }

    fn pid(&self) -> Option<u32> {
        match &self.handle {
            Handle::Process { child, .. } => Some(child.id()),
            Handle::InProcess(_) => None,
        }
    }

    /// Sends `shutdown`, waits for the drain and returns the manifest,
    /// deleting its file unless `keep` (traced runs keep theirs next to
    /// the Chrome trace).
    fn shutdown(mut self, keep: bool) -> Result<Json, String> {
        let mut client = Client::connect(self.addr, Some(Duration::from_secs(30)))
            .map_err(|e| format!("connecting for shutdown: {e}"))?;
        match client.call(&Request::Shutdown) {
            Ok(Response::Ok) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        drop(client);
        match &mut self.handle {
            Handle::Process { child, stdout } => {
                let deadline = Instant::now() + Duration::from_secs(30);
                let status = loop {
                    if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                        break status;
                    }
                    if Instant::now() > deadline {
                        return Err("the daemon did not exit after shutdown".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                };
                if let Some(reader) = stdout.take() {
                    let _ = reader.join();
                }
                if !status.success() {
                    return Err(format!("the daemon exited with {status}"));
                }
            }
            Handle::InProcess(server) => {
                if let Some(server) = server.take() {
                    server.join().map_err(|e| format!("joining the server: {e}"))?;
                }
            }
        }
        let manifest = fold_manifest(&self.manifest)?;
        if !keep {
            std::fs::remove_file(&self.manifest)
                .map_err(|e| format!("removing {}: {e}", self.manifest.display()))?;
        }
        Ok(manifest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with a live daemon only when the run failed part-way.
        match &mut self.handle {
            Handle::Process { child, stdout } => {
                if matches!(child.try_wait(), Ok(None)) {
                    let _ = child.kill();
                }
                let _ = child.wait();
                if let Some(reader) = stdout.take() {
                    let _ = reader.join();
                }
            }
            Handle::InProcess(server) => {
                if let Some(server) = server.take() {
                    server.shutdown();
                    let _ = server.join();
                }
            }
        }
    }
}

/// The manifest as `{"meta": .., "spans": [..]}` for the folds below.
fn fold_manifest(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    camp_obs::manifest::validate(&text)?;
    let mut lines = text.lines();
    let meta = json::parse(lines.next().unwrap_or_default()).map_err(|e| e.to_string())?;
    let spans = lines
        .map(|line| json::parse(line).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Json::obj(vec![("meta", meta), ("spans", Json::Arr(spans))]))
}

/// Durations in microseconds of the manifest's spans of `category` whose
/// `outcome` attribute (when `outcome` is given) matches.
fn span_durations(manifest: &Json, category: &str, outcome: Option<&str>) -> Vec<f64> {
    manifest
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|s| s.get("cat").and_then(Json::as_str) == Some(category))
        .filter(|s| {
            outcome.is_none()
                || s.get("attrs").and_then(|a| a.get("outcome")).and_then(Json::as_str) == outcome
        })
        .filter_map(|s| s.get("t").and_then(|t| t.get("dur_us")).and_then(Json::as_f64))
        .collect()
}

/// One answered request, seen from the client.
struct Sample {
    slice: usize,
    latency_us: f64,
    encode_us: f64,
    decode_us: f64,
    req_bytes: usize,
    resp_bytes: usize,
}

#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    attempted: u64,
    errors: Vec<String>,
    check_failures: Vec<String>,
    /// Hash of the first answer to each corpus index this client owns.
    answers: Vec<(usize, u64)>,
}

/// Checks one answer: `Predictions` echoing the id, one entry per
/// signature, four finite device predictions per entry.
fn check_answer(request: &PredictRequest, response: &Response) -> Result<(), String> {
    let Response::Predictions { id, results } = response else {
        return Err(format!("request {} answered {response:?}", request.id));
    };
    if *id != request.id || results.len() != request.signatures.len() {
        return Err(format!(
            "request {} ({} signatures) answered id {id} with {} results",
            request.id,
            request.signatures.len(),
            results.len()
        ));
    }
    for devices in results {
        if devices.len() != DeviceKind::SLOW_TIERS.len() {
            return Err(format!("request {}: {} device predictions", request.id, devices.len()));
        }
        for d in devices {
            let p = &d.prediction;
            let finite = [p.drd, p.cache, p.store, d.best_slowdown].iter().all(|v| v.is_finite());
            if !finite || !(0.0..=1.0).contains(&d.best_ratio) {
                return Err(format!("request {}: non-finite prediction {d:?}", request.id));
            }
        }
    }
    Ok(())
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn connect(addr: SocketAddr) -> Result<Connection, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    stream.set_read_timeout(timeout).map_err(|e| e.to_string())?;
    stream.set_write_timeout(timeout).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    Ok(Connection {
        reader: BufReader::new(reader),
        writer: BufWriter::new(stream),
    })
}

/// Slice length: the load runs in slices, and between two slices every
/// client waits while the benchmark reads the host yardstick.
const SLICE: Duration = Duration::from_secs(1);

/// What the clients and the slicing thread share.
struct Gate {
    barrier: Barrier,
    slice_end: Mutex<Instant>,
    stop: AtomicBool,
    answered: AtomicUsize,
    /// Clients that have not yet had every owned request answered once.
    uncovered: AtomicUsize,
}

/// One closed-loop client: owns corpus indices `first, first + CLIENTS,
/// ...` and cycles over them, slice after slice, until told to stop.
fn client(
    addr: SocketAddr,
    corpus: &[PredictRequest],
    first: usize,
    gate: &Gate,
    recorder: Option<&Recorder>,
) -> ClientRun {
    let owned: Vec<usize> = (first..corpus.len()).step_by(CLIENTS).collect();
    let mut run = ClientRun::default();
    let mut first_hash: Vec<Option<u64>> = vec![None; owned.len()];
    let mut covered = 0;
    let mut connection: Option<Connection> = None;
    let mut sent = 0usize;
    for slice in 0.. {
        gate.barrier.wait();
        if gate.stop.load(Ordering::SeqCst) {
            break;
        }
        let end = *gate.slice_end.lock().expect("slice clock lock is never poisoned");
        while Instant::now() < end {
            let slot = sent % owned.len();
            let request = &corpus[owned[slot]];
            sent += 1;
            run.attempted += 1;
            let conn = match connection.take().map_or_else(|| connect(addr), Ok) {
                Ok(conn) => connection.insert(conn),
                Err(error) => {
                    run.errors.push(error);
                    continue;
                }
            };
            let _span = recorder.map(|r| r.scope("request", format!("request-{}", request.id)));
            let start = Instant::now();
            let body = {
                let _encode = recorder.map(|r| r.scope("protocol.encode", "to_json"));
                request.to_json().render()
            };
            let encoded = Instant::now();
            let answer = {
                let _wait = recorder.map(|r| r.scope("server.wait", "write_frame+read_frame"));
                write_frame(&mut conn.writer, &body)
                    .map_err(|e| format!("write: {e}"))
                    .and_then(|()| read_frame(&mut conn.reader).map_err(|e| format!("read: {e}")))
            };
            let received = Instant::now();
            let text = match answer {
                Ok(Some(text)) => text,
                Ok(None) => {
                    run.errors.push("the daemon closed the connection".to_string());
                    connection = None;
                    continue;
                }
                Err(error) => {
                    run.errors.push(format!("framing error: {error}"));
                    connection = None;
                    continue;
                }
            };
            let response = {
                let _decode = recorder.map(|r| r.scope("protocol.decode", "from_text"));
                Response::from_text(&text)
            };
            let done = Instant::now();
            let response = match response {
                Ok(Response::Error { code, detail }) => {
                    run.errors.push(format!("{}: {detail}", code.as_str()));
                    continue;
                }
                Ok(response) => response,
                Err(error) => {
                    run.check_failures.push(format!("undecodable answer: {error}"));
                    continue;
                }
            };
            if let Err(problem) = check_answer(request, &response) {
                run.check_failures.push(problem);
                continue;
            }
            let hash = fnv(FNV_OFFSET, text.as_bytes());
            match first_hash[slot] {
                None => {
                    first_hash[slot] = Some(hash);
                    covered += 1;
                    if covered == owned.len() {
                        gate.uncovered.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Some(previous) if previous != hash => run.check_failures.push(format!(
                    "request {} was answered differently the second time",
                    request.id
                )),
                Some(_) => {}
            }
            gate.answered.fetch_add(1, Ordering::SeqCst);
            let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
            run.samples.push(Sample {
                slice,
                latency_us: us(start, done),
                encode_us: us(start, encoded),
                decode_us: us(received, done),
                req_bytes: body.len(),
                resp_bytes: text.len(),
            });
        }
        gate.barrier.wait();
    }
    run.answers = owned.iter().zip(first_hash).filter_map(|(&i, h)| Some((i, h?))).collect();
    run
}

/// A group of consecutive slices: answers, seconds, sorted latencies (ms).
type Group = (usize, f64, Vec<f64>);

/// Closed-loop load from [`CLIENTS`] threads, in [`SLICE`]s separated by
/// yardstick readings, until `seconds` have passed, `min_requests` were
/// answered and every corpus request was answered once.
struct Load {
    runs: Vec<ClientRun>,
    /// Wall time of each slice.
    slice_s: Vec<f64>,
    /// Host-speed scale of each slice (yardsticks on both sides).
    scale: Vec<f64>,
    /// The daemon's `VmHWM` (KiB) once [`RSS_REQUESTS`] were answered, or
    /// at the end of the load.
    hwm_kb: Result<u64, String>,
}

fn load(
    addr: SocketAddr,
    corpus: &[PredictRequest],
    seconds: f64,
    min_requests: usize,
    recorder: Option<&Recorder>,
    pid: Option<u32>,
) -> Load {
    let gate = Gate {
        barrier: Barrier::new(CLIENTS + 1),
        slice_end: Mutex::new(Instant::now()),
        stop: AtomicBool::new(false),
        answered: AtomicUsize::new(0),
        uncovered: AtomicUsize::new(CLIENTS),
    };
    let gate = &gate;
    let mut yardsticks = vec![yardstick_s()];
    let mut slice_s = Vec::new();
    let mut hwm_kb = None;
    let start = Instant::now();
    let runs = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|first| scope.spawn(move || client(addr, corpus, first, gate, recorder)))
            .collect();
        loop {
            let slice_start = Instant::now();
            *gate.slice_end.lock().expect("slice clock lock is never poisoned") =
                slice_start + SLICE;
            gate.barrier.wait();
            gate.barrier.wait();
            slice_s.push(slice_start.elapsed().as_secs_f64());
            yardsticks.push(yardstick_s());
            let answered = gate.answered.load(Ordering::SeqCst);
            if hwm_kb.is_none() && answered >= RSS_REQUESTS {
                hwm_kb = Some(status_kb(pid, "VmHWM"));
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= seconds + LOAD_GRACE
                || (elapsed >= seconds
                    && answered >= min_requests
                    && gate.uncovered.load(Ordering::SeqCst) == 0)
            {
                break;
            }
        }
        gate.stop.store(true, Ordering::SeqCst);
        gate.barrier.wait();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let scale = yardsticks.windows(2).map(host_scale).collect();
    let hwm_kb = hwm_kb.unwrap_or_else(|| status_kb(pid, "VmHWM"));
    Load { runs, slice_s, scale, hwm_kb }
}

impl Load {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.runs.iter().flat_map(|r| r.samples.iter())
    }

    /// Consecutive slices merged until each group holds at least `min`
    /// answers (a short remainder joins the last group), each with its
    /// answer count, its seconds and its sorted latencies in ms — at
    /// reference host speed when `host_bound`.
    fn groups(&self, min: usize, host_bound: bool) -> Vec<Group> {
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); self.slice_s.len()];
        for sample in self.samples() {
            let scale = if host_bound { self.scale[sample.slice] } else { 1.0 };
            per_slice[sample.slice].push(sample.latency_us / 1e3 * scale);
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut open = (0, 0.0, Vec::new());
        for (slice, latencies) in per_slice.into_iter().enumerate() {
            let scale = if host_bound { self.scale[slice] } else { 1.0 };
            open.0 += latencies.len();
            open.1 += self.slice_s[slice] * scale;
            open.2.extend(latencies);
            if open.0 >= min.max(1) {
                groups.push(std::mem::take(&mut open));
            }
        }
        match groups.last_mut() {
            Some(last) if open.0 > 0 || open.1 > 0.0 => {
                last.0 += open.0;
                last.1 += open.1;
                last.2.extend(open.2);
            }
            None => groups.push(open),
            Some(_) => {}
        }
        for group in &mut groups {
            group.2.sort_by(f64::total_cmp);
        }
        groups
    }

    /// Answered requests per second over the whole load, as measured.
    fn raw_throughput(&self) -> f64 {
        self.samples().count() as f64 / self.slice_s.iter().sum::<f64>()
    }

    /// Counts, checks and the prediction-dump digest; returns the sorted
    /// latencies in milliseconds, as measured.
    fn score(&self, report: &mut Report, corpus: usize) -> Vec<f64> {
        let mut answers: Vec<Option<u64>> = vec![None; corpus];
        for run in &self.runs {
            report.attempted += run.attempted;
            report.failed += run.errors.len() as u64;
            for error in run.errors.iter().take(5) {
                report.line(format!("request error: {error}"));
            }
            for problem in &run.check_failures {
                report.check_failed(problem.clone());
            }
            for &(index, hash) in &run.answers {
                answers[index] = Some(hash);
            }
        }
        let mut digest = FNV_OFFSET;
        for (index, answer) in answers.iter().enumerate() {
            match answer {
                Some(hash) => digest = fnv(digest, &hash.to_le_bytes()),
                None => report.check_failed(format!("corpus request {index} was never answered")),
            }
        }
        report.line(format!("prediction-dump digest {digest:016x} over {corpus} requests"));
        let mut latencies: Vec<f64> = self.samples().map(|s| s.latency_us / 1e3).collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }
}

fn stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let mut client =
        Client::connect(addr, Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    match client.call(&Request::Stats) {
        Ok(Response::Stats(snapshot)) => Ok(snapshot),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// Simulated ops of one start-up calibration (both endpoint runs of
/// every probe).
fn calibration_ops() -> f64 {
    reduced_probes().iter().map(|w| 2 * w.trace().len()).sum::<usize>() as f64
}

/// Runs a serve workload.
pub fn run(args: &Args, shape: &Shape) -> Result<Report, String> {
    let mut report = Report::default();
    let (corpus_len, min_requests) = if args.smoke {
        (shape.corpus.min(8), 0)
    } else {
        (shape.corpus, shape.min_requests)
    };
    let corpus = corpus::requests(args.seed, corpus_len, shape.batch, PLATFORM);
    let manifest =
        |k: usize| args.out_dir.join(format!("{}-seed{}-{k}.jsonl", shape.name, args.seed));
    let per_pair_ops = calibration_ops();

    // Each start is bracketed by yardstick readings, so its ready time can
    // be put at reference host speed.
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut ready_s = Vec::new();
    let mut ready_norm_s = Vec::new();
    let mut sim_rates = Vec::new();
    let mut fit_s = Vec::new();
    let fold_setup = |manifest: &Json, rates: &mut Vec<f64>, fit_s: &mut Vec<f64>| {
        // Zero-length spans come only from the smoke tests' synthetic fits.
        for fit_us in
            span_durations(manifest, "calibration", None).into_iter().filter(|&us| us > 0.0)
        {
            rates.push(per_pair_ops / fit_us);
            fit_s.push(fit_us / 1e6);
        }
    };
    let mut daemon = None;
    for k in 0..setups {
        let before = yardstick_s();
        let started = if args.smoke {
            Daemon::in_process(&manifest(k))?
        } else {
            Daemon::spawn(&manifest(k))?
        };
        let scale = host_scale(&[before, yardstick_s()]);
        ready_s.push(started.ready_s);
        ready_norm_s.push(started.ready_s * scale);
        if k + 1 < setups {
            fold_setup(&started.shutdown(args.trace)?, &mut sim_rates, &mut fit_s);
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one setup");
    let pid = daemon.pid();
    report.set("setup_s", median(&ready_norm_s));
    let rss_ready_kb = status_kb(pid, "VmRSS")?;
    report.line(format!(
        "{}: {CLIENTS} closed-loop clients, batch {}, corpus {} requests; daemon ready after {:?} s",
        shape.name,
        shape.batch,
        corpus_len,
        ready_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));

    let recorder = Recorder::new();
    let (load, untraced_rps) = if args.trace {
        let untraced = load(daemon.addr, &corpus, args.seconds / 2.0, 0, None, pid);
        let traced =
            load(daemon.addr, &corpus, args.seconds / 2.0, min_requests, Some(&recorder), pid);
        untraced.score(&mut report, corpus_len);
        let rate = untraced.groups(min_requests, shape.host_bound);
        let rate = median(&rate.iter().map(|g| g.0 as f64 / g.1).collect::<Vec<_>>());
        (traced, Some(rate))
    } else {
        (load(daemon.addr, &corpus, args.seconds, min_requests, None, pid), None)
    };
    let latencies = load.score(&mut report, corpus_len);
    let counters = stats(daemon.addr)?;
    let rss_end_kb = status_kb(pid, "VmRSS")?;
    let hwm_kb = load.hwm_kb.clone()?;
    let served = daemon.shutdown(args.trace)?;
    fold_setup(&served, &mut sim_rates, &mut fit_s);

    // Medians over groups of slices: a slice the host disturbed moves
    // one group, not the run's figure.
    let groups = load.groups(min_requests, shape.host_bound);
    let over_groups = |f: &dyn Fn(&Group) -> f64| median(&groups.iter().map(f).collect::<Vec<_>>());
    let rps = over_groups(&|g| g.0 as f64 / g.1);
    // Each fit is a fraction of a second of single-threaded simulation, so
    // a noisy neighbour can slow one reading a lot but never speed it up:
    // the fastest of the run's fits, as measured, is the steadiest
    // estimate of the simulator's speed (spread 13 % over twelve seeds,
    // against 24 % normalised and 30 % for the median).
    report.set("sim_mops_per_s", sim_rates.iter().copied().fold(0.0, f64::max));
    report.set("throughput_rps", rps);
    report.set("p50_ms", over_groups(&|g| percentile(&g.2, 50.0)));
    report.set("tail_ms", over_groups(&|g| percentile(&g.2, shape.tail)));
    report.set("rss_mb", hwm_kb as f64 / 1024.0);
    report.line(format!(
        "as measured: p50 {:.3} ms, p{} {:.3} ms over {} samples, {:.1} rps; \
         metrics are medians over {} groups of slices{}",
        percentile(&latencies, 50.0),
        shape.tail,
        percentile(&latencies, shape.tail),
        latencies.len(),
        load.raw_throughput(),
        groups.len(),
        if shape.host_bound {
            format!(" at reference host speed (median scale {:.3})", median(&load.scale))
        } else {
            String::new()
        }
    ));
    let errors = report.failed as f64 / report.attempted.max(1) as f64 * 100.0;
    report.line(format!(
        "error_pct {errors:.3} % ({} of {} requests)",
        report.failed, report.attempted
    ));

    if let Some(untraced_rps) = untraced_rps {
        let samples: Vec<&Sample> = load.samples().collect();
        let encode = mean(&samples.iter().map(|s| s.encode_us).collect::<Vec<_>>());
        let decode = mean(&samples.iter().map(|s| s.decode_us).collect::<Vec<_>>());
        let latency = mean(&samples.iter().map(|s| s.latency_us).collect::<Vec<_>>());
        let request_us = mean(&span_durations(&served, "request", Some("ok")));
        let requests = counters.requests.max(1) as f64;
        report.set("calibration.fit_s", median(&fit_s));
        report.set("protocol.encode_us", encode);
        report.set("protocol.decode_us", decode);
        report.set(
            "protocol.req_bytes",
            mean(&samples.iter().map(|s| s.req_bytes as f64).collect::<Vec<_>>()),
        );
        report.set(
            "protocol.resp_bytes",
            mean(&samples.iter().map(|s| s.resp_bytes as f64).collect::<Vec<_>>()),
        );
        report.set("server.request_us", request_us);
        report.set("server.residual_us", latency - encode - decode - request_us);
        report.set("server.shed", counters.shed as f64);
        report.set("server.deadline_exceeded", counters.deadline_exceeded as f64);
        report.set("server.protocol_errors", counters.protocol_errors as f64);
        let spans = served.get("meta").and_then(|m| m.get("spans")).and_then(Json::as_f64);
        report.set("obs.spans_per_request", spans.unwrap_or(0.0) / requests);
        report.set(
            "obs.rss_kb_per_1k_requests",
            (rss_end_kb as f64 - rss_ready_kb as f64) / (requests / 1e3),
        );
        let traced_rps = rps;
        report.set("tracing.overhead_pct", 100.0 * (untraced_rps - traced_rps) / untraced_rps);
        let n = samples.len();
        let mut bases = vec![
            ("calibration.fit_s", format!("median of {} reduced fits", fit_s.len())),
            ("protocol.encode_us", format!("{n} requests of {} signatures", shape.batch)),
            ("protocol.decode_us", format!("{n} answers")),
            ("protocol.req_bytes", format!("{n} requests")),
            ("protocol.resp_bytes", format!("{n} answers")),
            ("server.request_us", "daemon `request` spans with outcome ok".to_string()),
            ("server.residual_us", "client latency - encode - decode - request".to_string()),
            ("server.shed", format!("{} requests served", counters.requests)),
            ("server.deadline_exceeded", format!("{} requests served", counters.requests)),
            ("server.protocol_errors", format!("{} requests served", counters.requests)),
            ("obs.spans_per_request", format!("{} requests served", counters.requests)),
            (
                "obs.rss_kb_per_1k_requests",
                format!("VmRSS {rss_ready_kb} KB at ready, {rss_end_kb} KB after load"),
            ),
            (
                "tracing.overhead_pct",
                format!("untraced {untraced_rps:.1} vs traced {traced_rps:.1} rps"),
            ),
        ];
        let fit = if args.smoke { synthetic_fit } else { reduced_fit };
        let predictor = CampPredictor::new(fit(PLATFORM, DeviceKind::CxlA));
        crate::model_probe(&mut report, &predictor, args.seed, &mut bases);
        let path = args.out_dir.join(format!("{}-seed{}.trace.json", shape.name, args.seed));
        layers::write_chrome(&path, &recorder)?;
        report.line(format!("chrome trace: {}", path.display()));
        layers::table(&mut report, &recorder, &bases);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::SlowdownPrediction;
    use camp_serve::DevicePrediction;

    fn answer(request: &PredictRequest, drd: f64) -> Response {
        let devices = DeviceKind::SLOW_TIERS
            .into_iter()
            .map(|device| DevicePrediction {
                device,
                prediction: SlowdownPrediction { drd, cache: 0.0, store: 0.0 },
                best_ratio: 1.0,
                best_slowdown: 0.0,
            })
            .collect::<Vec<_>>();
        Response::Predictions {
            id: request.id,
            results: vec![devices; request.signatures.len()],
        }
    }

    #[test]
    fn broken_answers_fail_the_check() {
        let request = &corpus::requests(7, 1, 4, PLATFORM)[0];
        assert!(check_answer(request, &answer(request, 0.2)).is_ok());
        assert!(check_answer(request, &answer(request, f64::NAN)).is_err());
        let Response::Predictions { id, mut results } = answer(request, 0.2) else {
            unreachable!()
        };
        results.pop();
        assert!(check_answer(request, &Response::Predictions { id, results }).is_err());
        assert!(check_answer(request, &Response::Ok).is_err());
    }

    #[test]
    fn reduced_calibration_fits() {
        let calibration = reduced_fit(PLATFORM, DeviceKind::CxlA);
        assert!(calibration.k_drd.is_finite() && calibration.k_drd > 0.0);
        assert!(calibration_ops() > 0.0);
    }
}
