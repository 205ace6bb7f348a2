//! The `camp-serve` wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is an ASCII decimal body length terminated by `\n`, followed by
//! exactly that many bytes of UTF-8 JSON. Length-prefixing (rather than
//! newline-delimited JSON) makes truncation *detectable*: a client that
//! dies mid-request leaves a short read, not a silently shorter document.
//! Both directions use the same framing; JSON parse/render reuses
//! [`camp_obs::json`], so the protocol adds no dependencies.
//!
//! Requests are JSON objects dispatched on `"kind"`:
//!
//! - `predict` — a batch of [`Signature`]s for one platform, answered with
//!   per-device slowdown decompositions and Best-shot interleave ratios;
//! - `stats` — server counter snapshot;
//! - `shutdown` — graceful drain-and-exit.
//!
//! Error responses carry a machine-readable [`ErrorCode`] plus a
//! human-readable detail (for model rejections, the
//! [`camp_core::ModelError`] display text).

use camp_core::{Signature, SlowdownPrediction};
use camp_obs::json::{self, Json};
use camp_obs::HistogramSnapshot;
use camp_sim::{DeviceKind, Platform};
use std::io::{BufRead, Write};

/// Hard cap on a frame body, protecting the server from a hostile or
/// confused client declaring a multi-gigabyte length.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Hard cap on signatures per `predict` request (batching amortises the
/// per-request costs; unbounded batches would let one client monopolise a
/// worker past any deadline).
pub const MAX_BATCH: usize = 4096;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (including read timeouts).
    Io(std::io::Error),
    /// The length header is not a decimal integer terminated by `\n`.
    BadHeader(String),
    /// The declared length exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The peer closed the connection before the declared body arrived.
    Truncated {
        /// Bytes the header declared.
        declared: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The body is not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(error) => write!(f, "i/o error: {error}"),
            FrameError::BadHeader(header) => {
                write!(f, "bad frame header {header:?} (want decimal length + newline)")
            }
            FrameError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
            FrameError::Truncated { declared, got } => {
                write!(f, "truncated frame: header declared {declared} bytes, got {got}")
            }
            FrameError::NotUtf8 => write!(f, "frame body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame. `Ok(None)` means the peer closed cleanly before a new
/// frame began; any mid-frame close is [`FrameError::Truncated`].
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    read_frame_until(reader, || true)
}

/// [`read_frame`] with a shutdown hook for sockets carrying a read
/// timeout: when a read times out, `keep_waiting` decides whether to
/// retry (true) or give up. Giving up between frames is a clean close
/// (`Ok(None)` — how the server drains idle persistent connections on
/// shutdown); giving up mid-frame surfaces the timeout as an I/O error.
pub fn read_frame_until(
    reader: &mut impl BufRead,
    keep_waiting: impl Fn() -> bool,
) -> Result<Option<String>, FrameError> {
    let timed_out = |error: &std::io::Error| {
        matches!(error.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
    };
    let mut header = Vec::new();
    // Read the length header byte-wise; a BufRead keeps this cheap.
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if header.is_empty() {
                    return Ok(None);
                }
                return Err(FrameError::BadHeader(String::from_utf8_lossy(&header).into_owned()));
            }
            Ok(_) => {}
            Err(error) if timed_out(&error) => {
                if keep_waiting() {
                    continue;
                }
                if header.is_empty() {
                    return Ok(None);
                }
                return Err(FrameError::Io(error));
            }
            Err(error) => return Err(FrameError::Io(error)),
        }
        if byte[0] == b'\n' {
            break;
        }
        header.push(byte[0]);
        if header.len() > 10 {
            return Err(FrameError::BadHeader(String::from_utf8_lossy(&header).into_owned()));
        }
    }
    let text = std::str::from_utf8(&header)
        .map_err(|_| FrameError::BadHeader(String::from_utf8_lossy(&header).into_owned()))?;
    let len: usize = text
        .trim_end_matches('\r')
        .parse()
        .map_err(|_| FrameError::BadHeader(text.to_string()))?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match reader.read(&mut body[got..]) {
            Ok(0) => return Err(FrameError::Truncated { declared: len, got }),
            Ok(n) => got += n,
            Err(error) if timed_out(&error) && keep_waiting() => continue,
            Err(error) => return Err(FrameError::Io(error)),
        }
    }
    String::from_utf8(body).map(Some).map_err(|_| FrameError::NotUtf8)
}

/// Writes one frame (length header + body) and flushes.
///
/// Header and body go to `writer` in a single `write_all`, so a
/// `BufWriter` hands the socket one write per frame. Written separately,
/// a body larger than the `BufWriter` would leave the header as its own
/// small TCP segment, and Nagle's algorithm would hold the body back until
/// the peer's delayed ACK (~40 ms each way).
pub fn write_frame(writer: &mut impl Write, body: &str) -> std::io::Result<()> {
    let header = body.len().to_string();
    let mut frame = Vec::with_capacity(header.len() + 1 + body.len());
    frame.extend_from_slice(header.as_bytes());
    frame.push(b'\n');
    frame.extend_from_slice(body.as_bytes());
    writer.write_all(&frame)?;
    writer.flush()
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A prediction batch.
    Predict(PredictRequest),
    /// Counter snapshot request.
    Stats,
    /// Graceful shutdown request.
    Shutdown,
}

/// One `predict` request: a batch of signatures profiled on `platform`,
/// to be evaluated against each device in `devices`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen id, echoed in the response (0 if absent).
    pub id: u64,
    /// Platform the signatures were profiled on.
    pub platform: Platform,
    /// Slow tiers to predict (empty request member = every calibrated
    /// tier of the platform).
    pub devices: Vec<DeviceKind>,
    /// The DRAM-run signatures to predict from.
    pub signatures: Vec<Signature>,
}

impl Request {
    /// Decodes a request frame body. The error string is client-facing
    /// (it travels back in a `bad-request` response).
    pub fn from_text(body: &str) -> Result<Request, String> {
        let doc = json::parse(body).map_err(|e| e.to_string())?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("predict") => Ok(Request::Predict(PredictRequest::from_json(&doc)?)),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown request kind '{other}'")),
            None => Err("request must be an object with a string 'kind'".to_string()),
        }
    }

    /// Encodes the request as a frame body.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Predict(predict) => predict.to_json(),
            Request::Stats => Json::obj(vec![("kind", "stats".into())]),
            Request::Shutdown => Json::obj(vec![("kind", "shutdown".into())]),
        }
    }
}

impl PredictRequest {
    fn from_json(doc: &Json) -> Result<PredictRequest, String> {
        let id = match doc.get("id") {
            None => 0,
            Some(id) => id.as_u64().ok_or("'id' must be a non-negative integer")?,
        };
        let platform: Platform = doc
            .get("platform")
            .and_then(Json::as_str)
            .ok_or("'platform' must be a string")?
            .parse()?;
        let devices = match doc.get("devices") {
            None => Vec::new(),
            Some(devices) => devices
                .as_arr()
                .ok_or("'devices' must be an array of device names")?
                .iter()
                .map(|d| d.as_str().ok_or("'devices' must be an array of device names")?.parse())
                .collect::<Result<Vec<DeviceKind>, String>>()?,
        };
        let raw = doc
            .get("signatures")
            .and_then(Json::as_arr)
            .ok_or("'signatures' must be a non-empty array")?;
        if raw.is_empty() {
            return Err("'signatures' must be a non-empty array".to_string());
        }
        if raw.len() > MAX_BATCH {
            return Err(format!("batch of {} exceeds the {MAX_BATCH}-signature limit", raw.len()));
        }
        let signatures = raw
            .iter()
            .enumerate()
            .map(|(i, sig)| Signature::from_json(sig).map_err(|e| format!("signature {i}: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PredictRequest { id, platform, devices, signatures })
    }

    /// Encodes as a frame body.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("kind", Json::from("predict")),
            ("id", Json::from(self.id)),
            ("platform", Json::from(self.platform.name())),
        ];
        if !self.devices.is_empty() {
            members.push((
                "devices",
                Json::Arr(self.devices.iter().map(|d| Json::from(d.name())).collect()),
            ));
        }
        members
            .push(("signatures", Json::Arr(self.signatures.iter().map(|s| s.to_json()).collect())));
        Json::obj(members)
    }
}

/// Machine-readable failure class of an error response. `Overloaded` is
/// the 503 analogue — the accept queue was full and the request was shed
/// rather than stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparseable frame or invalid request document.
    BadRequest,
    /// Load shed: the bounded accept queue was full.
    Overloaded,
    /// The per-request deadline expired before the batch finished.
    Deadline,
    /// The model rejected an input ([`camp_core::ModelError`] text in the
    /// detail).
    Model,
    /// No calibration was loaded for the requested (platform, device).
    Uncalibrated,
    /// The server is draining after a shutdown request.
    ShuttingDown,
}

impl ErrorCode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Model => "model",
            ErrorCode::Uncalibrated => "uncalibrated",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        [
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::Deadline,
            ErrorCode::Model,
            ErrorCode::Uncalibrated,
            ErrorCode::ShuttingDown,
        ]
        .into_iter()
        .find(|code| code.as_str() == s)
    }
}

/// Outcomes the daemon keeps a request-latency histogram for, in wire
/// order: `ok` plus the wire name of every [`ErrorCode`] a worker answers
/// with. (`overloaded` answers come from the accept thread before any
/// request is read; [`StatsSnapshot::shed`] counts them.)
pub const OUTCOMES: [&str; 6] = [
    "ok",
    "bad-request",
    "model",
    "deadline",
    "uncalibrated",
    "shutting-down",
];

/// Prediction for one (signature, device) pair: the §4 decomposition plus
/// the Best-shot interleaving recommendation synthesized from the §5
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePrediction {
    /// Slow tier this prediction is for.
    pub device: DeviceKind,
    /// Per-component slowdown decomposition (`S_DRd`/`S_Cache`/`S_Store`).
    pub prediction: SlowdownPrediction,
    /// Recommended DRAM fraction (Best-shot ratio over the synthesized
    /// interleave curve; 1.0 = keep everything in DRAM).
    pub best_ratio: f64,
    /// Predicted slowdown at the recommended ratio.
    pub best_slowdown: f64,
}

impl DevicePrediction {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("device", self.device.name().into()),
            ("prediction", self.prediction.to_json()),
            ("best_ratio", self.best_ratio.into()),
            ("best_slowdown", self.best_slowdown.into()),
        ])
    }

    fn from_json(doc: &Json) -> Result<DevicePrediction, String> {
        let number = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("device prediction is missing number '{name}'"))
        };
        Ok(DevicePrediction {
            device: doc
                .get("device")
                .and_then(Json::as_str)
                .ok_or("device prediction is missing 'device'")?
                .parse()?,
            prediction: SlowdownPrediction::from_json(
                doc.get("prediction").ok_or("device prediction is missing 'prediction'")?,
            )?,
            best_ratio: number("best_ratio")?,
            best_slowdown: number("best_slowdown")?,
        })
    }
}

/// Server counter snapshot (the `stats` payload).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted into the queue.
    pub accepted: u64,
    /// Connections shed with `overloaded` because the queue was full.
    pub shed: u64,
    /// Frames successfully decoded into requests.
    pub requests: u64,
    /// (signature × device) predictions computed.
    pub predictions: u64,
    /// Requests answered from start to finish within their deadline.
    pub completed: u64,
    /// Frames rejected as unparseable or invalid.
    pub protocol_errors: u64,
    /// Requests rejected by the model layer (non-finite signatures, ...).
    pub model_errors: u64,
    /// Requests abandoned because the per-request deadline expired.
    pub deadline_exceeded: u64,
    /// Calibrations resident in memory.
    pub calibrations: u64,
    /// Microseconds since the server started.
    pub uptime_us: u64,
    /// Request latency in microseconds (frame body in hand to answer
    /// rendered), one histogram per outcome, indexed like [`OUTCOMES`].
    /// Boxed: the histograms are ~3 KB, and every [`Response`] is as
    /// large as its largest variant.
    pub latency_us: Box<[HistogramSnapshot; OUTCOMES.len()]>,
}

impl StatsSnapshot {
    /// The counter fields in wire order (name, value) — shared by the
    /// JSON round-trip so a new counter cannot be forgotten on one side.
    fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("accepted", self.accepted),
            ("shed", self.shed),
            ("requests", self.requests),
            ("predictions", self.predictions),
            ("completed", self.completed),
            ("protocol_errors", self.protocol_errors),
            ("model_errors", self.model_errors),
            ("deadline_exceeded", self.deadline_exceeded),
            ("calibrations", self.calibrations),
            ("uptime_us", self.uptime_us),
        ]
    }

    /// The latency histogram of `outcome` (one of [`OUTCOMES`]).
    pub fn latency(&self, outcome: &str) -> Option<&HistogramSnapshot> {
        OUTCOMES.iter().position(|&o| o == outcome).map(|i| &self.latency_us[i])
    }

    /// The per-outcome histograms as `{"ok": {..}, "bad-request": {..}, ..}`.
    pub(crate) fn latency_json(&self) -> Json {
        Json::obj(
            OUTCOMES
                .iter()
                .zip(self.latency_us.iter())
                .map(|(&o, h)| (o, h.to_json()))
                .collect(),
        )
    }

    fn to_json(&self) -> Json {
        let mut members = vec![("kind".to_string(), Json::from("stats"))];
        members.extend(self.fields().map(|(name, value)| (name.to_string(), Json::from(value))));
        members.push(("latency_us".to_string(), self.latency_json()));
        Json::Obj(members)
    }

    fn from_json(doc: &Json) -> Result<StatsSnapshot, String> {
        let mut snapshot = StatsSnapshot::default();
        let field = |name: &str| -> Result<u64, String> {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats response is missing counter '{name}'"))
        };
        snapshot.accepted = field("accepted")?;
        snapshot.shed = field("shed")?;
        snapshot.requests = field("requests")?;
        snapshot.predictions = field("predictions")?;
        snapshot.completed = field("completed")?;
        snapshot.protocol_errors = field("protocol_errors")?;
        snapshot.model_errors = field("model_errors")?;
        snapshot.deadline_exceeded = field("deadline_exceeded")?;
        snapshot.calibrations = field("calibrations")?;
        snapshot.uptime_us = field("uptime_us")?;
        for (outcome, histogram) in OUTCOMES.iter().zip(snapshot.latency_us.iter_mut()) {
            let doc = doc
                .get("latency_us")
                .and_then(|l| l.get(outcome))
                .ok_or_else(|| format!("stats response is missing histogram '{outcome}'"))?;
            *histogram = HistogramSnapshot::from_json(doc)?;
        }
        Ok(snapshot)
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to a `predict` request: `results[i]` holds the per-device
    /// predictions of `signatures[i]`, in request device order.
    Predictions {
        /// Echo of the request id.
        id: u64,
        /// Per-signature, per-device predictions.
        results: Vec<Vec<DevicePrediction>>,
    },
    /// Answer to a `stats` request.
    Stats(StatsSnapshot),
    /// Acknowledgement (shutdown).
    Ok,
    /// Typed failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable diagnostic (e.g. the `ModelError` text).
        detail: String,
    },
}

impl Response {
    /// Encodes as a frame body.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Predictions { id, results } => Json::obj(vec![
                ("kind", "predictions".into()),
                ("id", (*id).into()),
                (
                    "results",
                    Json::Arr(
                        results
                            .iter()
                            .map(|devices| {
                                Json::obj(vec![(
                                    "devices",
                                    Json::Arr(devices.iter().map(|d| d.to_json()).collect()),
                                )])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Stats(snapshot) => snapshot.to_json(),
            Response::Ok => Json::obj(vec![("kind", "ok".into())]),
            Response::Error { code, detail } => Json::obj(vec![
                ("kind", "error".into()),
                ("code", code.as_str().into()),
                ("detail", detail.as_str().into()),
            ]),
        }
    }

    /// Decodes a response frame body.
    pub fn from_text(body: &str) -> Result<Response, String> {
        let doc = json::parse(body).map_err(|e| e.to_string())?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("predictions") => {
                let id = doc.get("id").and_then(Json::as_u64).ok_or("missing response id")?;
                let results = doc
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'results' array")?
                    .iter()
                    .map(|entry| {
                        entry
                            .get("devices")
                            .and_then(Json::as_arr)
                            .ok_or("result entry is missing 'devices'")?
                            .iter()
                            .map(DevicePrediction::from_json)
                            .collect::<Result<Vec<_>, String>>()
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Predictions { id, results })
            }
            Some("stats") => Ok(Response::Stats(StatsSnapshot::from_json(&doc)?)),
            Some("ok") => Ok(Response::Ok),
            Some("error") => {
                let code = doc
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse)
                    .ok_or("error response with unknown code")?;
                let detail =
                    doc.get("detail").and_then(Json::as_str).unwrap_or_default().to_string();
                Ok(Response::Error { code, detail })
            }
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn signature(latency: f64) -> Signature {
        Signature {
            cycles: 10_000.0,
            s_llc: 3_000.0,
            s_cache: 1_000.0,
            s_sb: 500.0,
            memory_active: 6_000.0,
            latency,
            mlp: 10.0,
            r_lfb_hit: 0.2,
            r_mem: 0.5,
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"kind\":\"stats\"}").unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("{\"kind\":\"stats\"}"));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF");
    }

    /// Counts the writes that reach it, as a socket would see them.
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_reaches_the_socket_in_one_write() {
        // 100 B fits the BufWriter's 8 KiB buffer; 48 KB bypasses it. A
        // split header + body would show up as two writes for the latter.
        for len in [100, 48_000] {
            let body = "x".repeat(len);
            let mut writer =
                std::io::BufWriter::new(CountingWrite { writes: 0, bytes: Vec::new() });
            write_frame(&mut writer, &body).unwrap();
            let inner = writer.into_inner().map_err(|e| e.to_string()).unwrap();
            assert_eq!(inner.writes, 1, "{len}-byte body");
            assert_eq!(inner.bytes, format!("{len}\n{body}").into_bytes());
        }
    }

    #[test]
    fn bad_headers_oversize_and_truncation_are_typed() {
        let mut reader = BufReader::new(&b"xyz\n{}"[..]);
        assert!(matches!(read_frame(&mut reader), Err(FrameError::BadHeader(_))));
        let oversized = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut reader = BufReader::new(oversized.as_bytes());
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Oversized(_))));
        let mut reader = BufReader::new(&b"10\nshort"[..]);
        match read_frame(&mut reader) {
            Err(FrameError::Truncated { declared: 10, got: 5 }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
        // Header cut off mid-digits is a bad header, not a clean EOF.
        let mut reader = BufReader::new(&b"12"[..]);
        assert!(matches!(read_frame(&mut reader), Err(FrameError::BadHeader(_))));
    }

    #[test]
    fn predict_request_roundtrips() {
        let request = Request::Predict(PredictRequest {
            id: 42,
            platform: Platform::Spr2s,
            devices: vec![DeviceKind::CxlA, DeviceKind::Numa],
            signatures: vec![signature(250.0), signature(300.0)],
        });
        let body = request.to_json().render();
        assert_eq!(Request::from_text(&body).unwrap(), request);
        // Empty device list is omitted on the wire and restored as empty.
        let request = Request::Predict(PredictRequest {
            id: 0,
            platform: Platform::Skx2s,
            devices: Vec::new(),
            signatures: vec![signature(100.0)],
        });
        assert_eq!(Request::from_text(&request.to_json().render()).unwrap(), request);
        assert_eq!(Request::from_text("{\"kind\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(Request::from_text("{\"kind\":\"shutdown\"}").unwrap(), Request::Shutdown);
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        for (body, want) in [
            ("[]", "kind"),
            ("{\"kind\":\"noop\"}", "unknown request kind"),
            ("{\"kind\":\"predict\"}", "'platform'"),
            (
                "{\"kind\":\"predict\",\"platform\":\"Z80\",\"signatures\":[{}]}",
                "unknown platform",
            ),
            (
                "{\"kind\":\"predict\",\"platform\":\"SPR2S\",\"signatures\":[]}",
                "non-empty array",
            ),
            (
                "{\"kind\":\"predict\",\"platform\":\"SPR2S\",\"devices\":[\"floppy\"],\
                 \"signatures\":[{}]}",
                "unknown device",
            ),
            (
                "{\"kind\":\"predict\",\"platform\":\"SPR2S\",\"signatures\":[{\"cycles\":1}]}",
                "signature 0",
            ),
            ("not json", "parse error"),
        ] {
            let error = Request::from_text(body).unwrap_err();
            assert!(error.contains(want), "body {body:?}: error {error:?} must mention {want:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let response = Response::Predictions {
            id: 7,
            results: vec![vec![DevicePrediction {
                device: DeviceKind::CxlB,
                prediction: SlowdownPrediction { drd: 0.25, cache: 0.04, store: 0.01 },
                best_ratio: 0.85,
                best_slowdown: 0.02,
            }]],
        };
        assert_eq!(Response::from_text(&response.to_json().render()).unwrap(), response);
        let stats = Response::Stats(StatsSnapshot {
            accepted: 5,
            shed: 1,
            requests: 9,
            predictions: 100,
            completed: 8,
            protocol_errors: 1,
            model_errors: 2,
            deadline_exceeded: 3,
            calibrations: 12,
            uptime_us: 99,
            latency_us: Box::new(std::array::from_fn(|i| {
                let histogram = camp_obs::Histogram::new();
                for us in 0..i as u64 * 3 {
                    histogram.record(us * 100);
                }
                histogram.snapshot()
            })),
        });
        assert_eq!(Response::from_text(&stats.to_json().render()).unwrap(), stats);
        let error = Response::Error {
            code: ErrorCode::Overloaded,
            detail: "accept queue full".to_string(),
        };
        assert_eq!(Response::from_text(&error.to_json().render()).unwrap(), error);
        assert_eq!(Response::from_text("{\"kind\":\"ok\"}").unwrap(), Response::Ok);
    }

    #[test]
    fn error_codes_roundtrip_their_wire_names() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::Deadline,
            ErrorCode::Model,
            ErrorCode::Uncalibrated,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("teapot"), None);
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let signatures = vec![signature(1.0); MAX_BATCH + 1];
        let request = PredictRequest {
            id: 1,
            platform: Platform::Spr2s,
            devices: Vec::new(),
            signatures,
        };
        let body = request.to_json().render();
        assert!(Request::from_text(&body).unwrap_err().contains("limit"));
    }
}
