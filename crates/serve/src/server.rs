//! The daemon: a bounded worker pool behind a shedding accept queue.
//!
//! Lifecycle: [`Server::start`] fits one [`CampPredictor`] per configured
//! (platform, device) pair — the expensive part, done exactly once — then
//! binds a listener and spawns an accept thread plus `workers` worker
//! threads. The accept thread pushes connections into a bounded
//! [`std::sync::mpsc::sync_channel`]; when the queue is full the
//! connection is answered immediately with an `overloaded` error and
//! closed (load shedding, the 503 analogue), so saturated load degrades
//! into fast rejections instead of unbounded queueing.
//!
//! Each `predict` request carries a deadline (server-configured); the
//! worker checks it between signatures and abandons the batch with a
//! `deadline` error when it expires. Batching amortises the predictor
//! lookup: one calibration-table resolution per (platform, device) per
//! request, however many signatures ride in it.
//!
//! Shutdown is graceful: a `shutdown` request (or [`Server::shutdown`])
//! flips a flag and self-connects to wake the accept loop; the accept
//! thread stops, the queue drains, workers exit, and [`Server::join`]
//! writes the run manifest.
//!
//! Telemetry is fixed-size: spans record only the lifecycle (`serve`),
//! the calibrations and anomaly events. Each answered frame lands in one
//! lock-free per-outcome latency histogram ([`crate::protocol::OUTCOMES`]),
//! which `stats` reports live and the manifest's meta record sums up, so
//! memory stays flat however many requests the daemon serves.

use crate::protocol::{
    read_frame_until, write_frame, DevicePrediction, ErrorCode, FrameError, PredictRequest,
    Request, Response, StatsSnapshot, OUTCOMES,
};
use camp_core::{best_shot, Calibration, CampPredictor, InterleaveModel};
use camp_obs::{manifest, Histogram, Json, Recorder};
use camp_sim::{DeviceKind, Platform};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything [`Server::start`] needs to know.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before new
    /// arrivals are shed with `overloaded`.
    pub queue_depth: usize,
    /// Per-request processing budget; batches abandoned past it answer
    /// with a `deadline` error.
    pub deadline: Duration,
    /// (platform, device) pairs to calibrate at startup. Requests for
    /// other pairs answer with an `uncalibrated` error.
    pub pairs: Vec<(Platform, DeviceKind)>,
    /// Where to write the serve manifest on [`Server::join`] (None =
    /// don't write one).
    pub manifest_out: Option<PathBuf>,
    /// Test hook: extra busy-time added to every `predict` request
    /// before processing, so deadline and load-shed tests are
    /// deterministic instead of racing real work. Not exposed on the
    /// CLI.
    pub test_delay: Option<Duration>,
    /// How to obtain a calibration for a pair. Defaults to the real
    /// simulation-backed [`Calibration::fit`], which runs its probes on
    /// every core: the fastest start, at the cost of about one engine
    /// working set per extra core in peak RSS while it runs (`camp-serve
    /// --platform SPR2S` on 2 cores: ~23 s to ready and an 80 MB peak,
    /// against ~38 s and 47.5 MB with serial fits). A hook that
    /// must keep the daemon's peak small uses [`Calibration::fit_with`],
    /// which keeps one engine (two workers raised the peak from 13.6 MB
    /// to 27.2 MB over five reduced probes per pair). Tests substitute a
    /// cheap synthetic fit so a server starts in microseconds.
    pub calibrate: fn(Platform, DeviceKind) -> Calibration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            pairs: Platform::ALL
                .into_iter()
                .flat_map(|p| DeviceKind::SLOW_TIERS.into_iter().map(move |d| (p, d)))
                .collect(),
            manifest_out: None,
            test_delay: None,
            calibrate: Calibration::fit,
        }
    }
}

/// Lock-free request/served counters, snapshotted by `stats` requests.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    requests: AtomicU64,
    predictions: AtomicU64,
    completed: AtomicU64,
    protocol_errors: AtomicU64,
    model_errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    /// Request latency per outcome, indexed like [`OUTCOMES`].
    latency_us: [Histogram; OUTCOMES.len()],
}

impl Counters {
    /// Files one answered frame under its outcome.
    fn record(&self, response: &Response, since: Instant) {
        let outcome = match response {
            Response::Error { code, .. } => code.as_str(),
            _ => "ok",
        };
        let index = OUTCOMES
            .iter()
            .position(|&o| o == outcome)
            .expect("workers answer only with outcomes listed in OUTCOMES");
        self.latency_us[index].record(since.elapsed().as_micros() as u64);
    }
}

/// State shared by the accept thread and every worker.
struct Shared {
    config: ServeConfig,
    predictors: HashMap<(Platform, DeviceKind), CampPredictor>,
    counters: Counters,
    recorder: Recorder,
    shutdown: AtomicBool,
    started: Instant,
    local_addr: SocketAddr,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let c = &self.counters;
        StatsSnapshot {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            predictions: c.predictions.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            model_errors: c.model_errors.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            calibrations: self.predictors.len() as u64,
            uptime_us: self.started.elapsed().as_micros() as u64,
            latency_us: Box::new(std::array::from_fn(|i| c.latency_us[i].snapshot())),
        }
    }
}

/// A running prediction service. Dropping the handle does NOT stop the
/// server; call [`Server::shutdown`] then [`Server::join`] (or send a
/// `shutdown` request over the wire).
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Fits every configured calibration, binds the listener, and spawns
    /// the accept thread and worker pool.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let recorder = Recorder::new();
        let mut predictors = HashMap::new();
        {
            let mut root = recorder.scope_rooted("serve", "camp-serve");
            root.attr("addr", local_addr.to_string());
            root.attr("workers", config.workers as u64);
            root.attr("queue_depth", config.queue_depth as u64);
            for &(platform, device) in &config.pairs {
                let mut span =
                    recorder.scope("calibration", format!("{}/{}", platform.name(), device.name()));
                let calibration = (config.calibrate)(platform, device);
                span.attr("dram_idle_latency", calibration.dram_idle_latency);
                span.attr("slow_idle_latency", calibration.slow_idle_latency);
                predictors.insert((platform, device), CampPredictor::new(calibration));
            }
        }

        let shared = Arc::new(Shared {
            config,
            predictors,
            counters: Counters::default(),
            recorder,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            local_addr,
        });

        let (sender, receiver) =
            std::sync::mpsc::sync_channel::<TcpStream>(shared.config.queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let worker_handles = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || worker_loop(&shared, &receiver))
            })
            .collect();
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, &sender))
        };
        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// In-process counter snapshot (the wire `stats` request returns the
    /// same thing).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The daemon's span recorder: lifecycle, calibration and anomaly
    /// records only, so its size does not grow with the request count.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Requests a graceful shutdown: stop accepting, drain the queue,
    /// finish in-flight requests.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Waits for the accept thread and every worker to exit, then writes
    /// the serve manifest (if configured) and returns the final counter
    /// snapshot. Call [`Server::shutdown`] first, or send a `shutdown`
    /// frame, or this blocks until a client does.
    pub fn join(mut self) -> std::io::Result<StatsSnapshot> {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        let snapshot = self.shared.snapshot();
        if let Some(path) = &self.shared.config.manifest_out {
            // Outcome counts are load-determined; latencies go under "t".
            let outcomes = OUTCOMES
                .iter()
                .zip(snapshot.latency_us.iter())
                .map(|(&outcome, histogram)| (outcome, histogram.count().into()))
                .collect();
            let meta = vec![
                ("addr", self.shared.local_addr.to_string().into()),
                ("calibrations", self.shared.predictors.len().into()),
                ("requests", snapshot.requests.into()),
                ("predictions", snapshot.predictions.into()),
                ("shed", snapshot.shed.into()),
                ("outcomes", Json::obj(outcomes)),
            ];
            let timing = vec![
                ("uptime_us", snapshot.uptime_us.into()),
                ("workers", self.shared.config.workers.into()),
                ("latency_us", snapshot.latency_json()),
            ];
            let text = manifest::render("camp-serve", meta, timing, &self.shared.recorder);
            std::fs::write(path, text)?;
        }
        Ok(snapshot)
    }
}

fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Wake the accept loop with a throwaway connection so it notices the
    // flag even when no real client arrives.
    let _ = TcpStream::connect(shared.local_addr);
}

/// Shed connections that each leave an `anomaly/load-shed` event. Later
/// ones are only counted (`stats.shed`, the manifest meta), so a long
/// overload cannot grow the span log without bound.
pub const SHED_EVENTS: u64 = 16;

fn accept_loop(shared: &Shared, listener: &TcpListener, sender: &SyncSender<TcpStream>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        match sender.try_send(stream) {
            Ok(()) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(stream)) => {
                // Shed: answer in the accept thread so the client learns
                // immediately, never stalling behind the busy workers.
                let shed_before = shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                if shed_before < SHED_EVENTS {
                    shared.recorder.event(
                        "anomaly",
                        "load-shed",
                        vec![("queue_depth", (shared.config.queue_depth as u64).into())],
                    );
                }
                let error = Response::Error {
                    code: ErrorCode::Overloaded,
                    detail: format!(
                        "accept queue of {} connections is full",
                        shared.config.queue_depth
                    ),
                };
                let mut writer = BufWriter::new(stream);
                let _ = write_frame(&mut writer, &error.render());
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping the sender (by returning) disconnects the channel; workers
    // drain whatever is queued and then exit.
}

fn worker_loop(shared: &Shared, receiver: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let guard = receiver.lock().unwrap_or_else(|poison| poison.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => return, // accept loop gone and queue drained
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Answers leave in one write each (`write_frame`); don't let Nagle's
    // algorithm hold one back waiting for an ACK.
    let _ = stream.set_nodelay(true);
    // Idle-poll between frames so a worker parked on a persistent
    // connection notices the shutdown flag and drains within one tick.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let reader = stream.try_clone();
    let mut writer = BufWriter::new(stream);
    let mut reader = match reader {
        Ok(stream) => BufReader::new(stream),
        Err(_) => return,
    };
    loop {
        let keep_waiting = || !shared.shutdown.load(Ordering::SeqCst);
        let frame = read_frame_until(&mut reader, keep_waiting);
        let start = Instant::now();
        let body = match frame {
            Ok(Some(body)) => body,
            Ok(None) => break, // clean EOF
            Err(FrameError::Io(_)) => break,
            Err(error) => {
                // Unframeable input: report and hang up — the stream
                // offers no way back to a frame boundary.
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let response = Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: error.to_string(),
                };
                respond(shared, &mut writer, &response, start);
                break;
            }
        };
        let response = match Request::from_text(&body) {
            Err(detail) => {
                // A parseable frame with a bad payload: the framing is
                // intact, so answer and keep the connection.
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error { code: ErrorCode::BadRequest, detail }
            }
            Ok(request) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                match request {
                    Request::Stats => Response::Stats(shared.snapshot()),
                    Request::Shutdown => {
                        request_shutdown(shared);
                        Response::Ok
                    }
                    Request::Predict(predict) => handle_predict(shared, &predict),
                }
            }
        };
        if !respond(shared, &mut writer, &response, start) {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // drain: the answered frame was this connection's last
        }
    }
}

/// Renders one response, files its latency since `start` under its
/// outcome, and writes it; false means the client is gone.
fn respond(
    shared: &Shared,
    writer: &mut BufWriter<TcpStream>,
    response: &Response,
    start: Instant,
) -> bool {
    let body = response.render();
    shared.counters.record(response, start);
    write_frame(writer, &body).is_ok()
}

fn handle_predict(shared: &Shared, request: &PredictRequest) -> Response {
    let deadline = Instant::now() + shared.config.deadline;
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            detail: "server is draining".to_string(),
        };
    }
    if let Some(delay) = shared.config.test_delay {
        std::thread::sleep(delay);
    }
    // Resolve every predictor up front: one lookup per device for the
    // whole batch, and an uncalibrated pair fails before any work.
    let devices: Vec<DeviceKind> = if request.devices.is_empty() {
        shared
            .config
            .pairs
            .iter()
            .filter(|(platform, _)| *platform == request.platform)
            .map(|&(_, device)| device)
            .collect()
    } else {
        request.devices.clone()
    };
    let mut resolved: Vec<(DeviceKind, &CampPredictor)> = Vec::with_capacity(devices.len());
    for device in devices {
        match shared.predictors.get(&(request.platform, device)) {
            Some(predictor) => resolved.push((device, predictor)),
            None => {
                return Response::Error {
                    code: ErrorCode::Uncalibrated,
                    detail: format!(
                        "no calibration loaded for ({}, {})",
                        request.platform.name(),
                        device.name()
                    ),
                }
            }
        }
    }
    if resolved.is_empty() {
        return Response::Error {
            code: ErrorCode::Uncalibrated,
            detail: format!("no calibration loaded for platform {}", request.platform.name()),
        };
    }

    let mut results = Vec::with_capacity(request.signatures.len());
    for (index, signature) in request.signatures.iter().enumerate() {
        if Instant::now() >= deadline {
            shared.counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            return Response::Error {
                code: ErrorCode::Deadline,
                detail: format!(
                    "deadline of {:?} expired after {index} of {} signatures",
                    shared.config.deadline,
                    request.signatures.len()
                ),
            };
        }
        let label = format!("request-{}[{index}]", request.id);
        let mut per_device = Vec::with_capacity(resolved.len());
        for &(device, predictor) in &resolved {
            let model = match InterleaveModel::try_from_signature(signature, predictor, &label) {
                Ok(model) => model,
                Err(error) => {
                    shared.counters.model_errors.fetch_add(1, Ordering::Relaxed);
                    return Response::Error { code: ErrorCode::Model, detail: error.to_string() };
                }
            };
            let shot = best_shot(&model);
            let prediction = predictor.predict_signature(signature);
            // JSON has no NaN or infinity, so a non-finite answer would go
            // out as `null`: it is a model error, never an ok.
            let answer = [
                prediction.drd,
                prediction.cache,
                prediction.store,
                shot.ratio,
                shot.predicted_slowdown,
            ];
            if !answer.iter().all(|value| value.is_finite()) {
                shared.counters.model_errors.fetch_add(1, Ordering::Relaxed);
                return Response::Error {
                    code: ErrorCode::Model,
                    detail: format!(
                        "'{label}' has a non-finite prediction on {}: s_drd, s_cache, s_store, \
                         best ratio, best slowdown = {answer:?}",
                        device.name()
                    ),
                };
            }
            per_device.push(DevicePrediction {
                device,
                prediction,
                best_ratio: shot.ratio,
                best_slowdown: shot.predicted_slowdown,
            });
            shared.counters.predictions.fetch_add(1, Ordering::Relaxed);
        }
        results.push(per_device);
    }
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    Response::Predictions { id: request.id, results }
}
