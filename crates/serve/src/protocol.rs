//! The `camp-serve` wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is an ASCII decimal body length terminated by `\n`, followed by
//! exactly that many bytes of UTF-8 JSON. Length-prefixing (rather than
//! newline-delimited JSON) makes truncation *detectable*: a client that
//! dies mid-request leaves a short read, not a silently shorter document.
//! Both directions use the same framing, and the JSON comes from
//! [`camp_obs::json`], so the protocol adds no dependencies.
//!
//! The predict path builds no [`Json`] tree. [`Response::render`] writes
//! predictions, `ok` and errors straight to text with
//! [`json::write_number`] and [`json::write_string`], byte for byte what
//! [`Json::render`] would emit. [`Request::from_text`] and
//! [`Response::from_text`] pull-decode the body with [`json::Reader`]
//! straight into [`PredictRequest`]s, [`Signature`]s and
//! [`DevicePrediction`]s, borrowing every key that has no escapes. They
//! accept the documents a tree decoder would, with the same values and
//! error text: the body is read to its end before any semantic error is
//! reported, so a syntax error wins at its byte offset; a repeated member
//! counts by its first occurrence; and the checks run in a fixed order,
//! whatever order the members come in. Requests are still encoded through
//! a tree ([`Request::to_json`]); only clients encode them, and `stats`
//! answers are rendered and decoded through one too.
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
use camp_obs::json::{self, Json, Kind, ParseError, Reader};
use camp_obs::HistogramSnapshot;
use camp_sim::{DeviceKind, Platform};
use std::borrow::Cow;
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
    ///
    /// The body is read once, straight into the request. Errors come in a
    /// fixed order whatever the member order: syntax, kind, id, platform,
    /// devices, the signatures' type, empty batch, batch limit, then the
    /// first invalid signature.
    pub fn from_text(body: &str) -> Result<Request, String> {
        let mut reader = Reader::new(body);
        let mut fields = RequestFields::read(&mut reader).map_err(|e| e.to_string())?;
        reader.finish().map_err(|e| e.to_string())?;
        match fields.kind.take().flatten().as_deref() {
            Some("predict") => Ok(Request::Predict(fields.into_predict()?)),
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

/// A syntax error, or else the decoded value or why it is invalid: what
/// the pull decoders return, so that a body with a semantic error is still
/// read to its end and a later syntax error still wins.
type Decoded<T> = Result<Result<T, String>, ParseError>;

/// The members of a request body a decoder looks at, each as its first
/// occurrence read (`None` if absent), mirroring what `Json::get` would
/// find in the parsed tree. Nothing is judged while reading: the checks
/// run afterwards in a fixed order, whatever the member order.
#[derive(Default)]
struct RequestFields<'a> {
    /// `Some(None)`: present but not a string.
    kind: Option<Option<Cow<'a, str>>>,
    /// `Some(None)`: present but not a number.
    id: Option<Option<f64>>,
    /// `Some(None)`: present but not a string.
    platform: Option<Option<Cow<'a, str>>>,
    devices: Option<Result<Vec<DeviceKind>, String>>,
    /// `Some(None)`: present but not an array.
    signatures: Option<Option<Batch>>,
}

/// The `signatures` array as read.
struct Batch {
    /// Element count.
    len: usize,
    /// The signatures, or the first invalid one's error (elements past
    /// [`MAX_BATCH`] are only counted).
    signatures: Result<Vec<Signature>, String>,
}

impl<'a> RequestFields<'a> {
    fn read(reader: &mut Reader<'a>) -> Result<RequestFields<'a>, ParseError> {
        let mut fields = RequestFields::default();
        if reader.peek()? != Kind::Object {
            reader.skip()?;
            return Ok(fields);
        }
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "kind" if fields.kind.is_none() => fields.kind = Some(reader.string_or_skip()?),
                "id" if fields.id.is_none() => fields.id = Some(reader.number_or_skip()?),
                "platform" if fields.platform.is_none() => {
                    fields.platform = Some(reader.string_or_skip()?)
                }
                "devices" if fields.devices.is_none() => {
                    fields.devices = Some(read_devices(reader)?)
                }
                "signatures" if fields.signatures.is_none() => {
                    fields.signatures = Some(read_batch(reader)?)
                }
                _ => reader.skip()?,
            }
        }
        Ok(fields)
    }

    /// Checks a `predict` request: id, platform, devices, the signatures'
    /// type, empty batch, batch limit, then the first invalid signature.
    fn into_predict(self) -> Result<PredictRequest, String> {
        let id = match self.id {
            None => 0,
            Some(id) => {
                id.and_then(json::exact_u64).ok_or("'id' must be a non-negative integer")?
            }
        };
        let platform: Platform =
            self.platform.flatten().ok_or("'platform' must be a string")?.parse()?;
        let devices = self.devices.unwrap_or(Ok(Vec::new()))?;
        let batch = self.signatures.flatten().ok_or("'signatures' must be a non-empty array")?;
        if batch.len == 0 {
            return Err("'signatures' must be a non-empty array".to_string());
        }
        if batch.len > MAX_BATCH {
            return Err(format!("batch of {} exceeds the {MAX_BATCH}-signature limit", batch.len));
        }
        Ok(PredictRequest {
            id,
            platform,
            devices,
            signatures: batch.signatures?,
        })
    }
}

/// Reads an array with `item`: the elements, or the first element's
/// error (`not_array` if the value is no array). Elements after an
/// error are only checked for syntax.
fn read_list<'a, T>(
    reader: &mut Reader<'a>,
    not_array: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    if reader.peek()? != Kind::Array {
        reader.skip()?;
        return Ok(Err(not_array.to_string()));
    }
    let mut list = Ok(Vec::new());
    reader.begin_array()?;
    while reader.next_item()? {
        match &mut list {
            Ok(items) => match item(reader)? {
                Ok(value) => items.push(value),
                Err(error) => list = Err(error),
            },
            Err(_) => reader.skip()?,
        }
    }
    Ok(list)
}

/// Reads a `devices` member: device names, or the first reason they are
/// not.
fn read_devices(reader: &mut Reader<'_>) -> Decoded<Vec<DeviceKind>> {
    const NOT_NAMES: &str = "'devices' must be an array of device names";
    read_list(reader, NOT_NAMES, |reader| {
        Ok(reader
            .string_or_skip()?
            .ok_or_else(|| NOT_NAMES.to_string())
            .and_then(|name| name.parse()))
    })
}

/// Reads a `signatures` member (`None` if it is not an array).
fn read_batch(reader: &mut Reader<'_>) -> Result<Option<Batch>, ParseError> {
    if reader.peek()? != Kind::Array {
        reader.skip()?;
        return Ok(None);
    }
    let mut batch = Batch { len: 0, signatures: Ok(Vec::new()) };
    reader.begin_array()?;
    while reader.next_item()? {
        let index = batch.len;
        batch.len += 1;
        match &mut batch.signatures {
            Ok(signatures) if index < MAX_BATCH => match Signature::read_json(reader)? {
                Ok(signature) => signatures.push(signature),
                Err(error) => batch.signatures = Err(format!("signature {index}: {error}")),
            },
            _ => reader.skip()?,
        }
    }
    Ok(Some(batch))
}

impl PredictRequest {
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
    /// Appends the wire form. The slowdown total is included redundantly
    /// so protocol consumers need not re-derive Eq. 1.
    fn write(&self, out: &mut String) {
        let p = &self.prediction;
        out.push_str("{\"device\":");
        json::write_string(self.device.name(), out);
        for (name, value) in [
            (",\"prediction\":{\"s_drd\":", p.drd),
            (",\"s_cache\":", p.cache),
            (",\"s_store\":", p.store),
            (",\"total\":", p.total()),
            ("},\"best_ratio\":", self.best_ratio),
            (",\"best_slowdown\":", self.best_slowdown),
        ] {
            out.push_str(name);
            json::write_number(value, out);
        }
        out.push('}');
    }

    /// Reads the wire form at `reader`'s cursor: the device, then the
    /// prediction, then the two Best-shot numbers, each checked in that
    /// order (the redundant total and unknown members are ignored).
    fn read(reader: &mut Reader<'_>) -> Decoded<DevicePrediction> {
        let mut fields = DeviceFields::default();
        if reader.peek()? != Kind::Object {
            reader.skip()?;
            return Ok(fields.into_prediction());
        }
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "device" if fields.device.is_none() => {
                    fields.device = Some(reader.string_or_skip()?)
                }
                "prediction" if fields.prediction.is_none() => {
                    fields.prediction = Some(read_slowdown(reader)?)
                }
                "best_ratio" if fields.best_ratio.is_none() => {
                    fields.best_ratio = Some(reader.number_or_skip()?)
                }
                "best_slowdown" if fields.best_slowdown.is_none() => {
                    fields.best_slowdown = Some(reader.number_or_skip()?)
                }
                _ => reader.skip()?,
            }
        }
        Ok(fields.into_prediction())
    }
}

/// The members of a device prediction, like [`RequestFields`].
#[derive(Default)]
struct DeviceFields<'a> {
    device: Option<Option<Cow<'a, str>>>,
    prediction: Option<Result<SlowdownPrediction, String>>,
    best_ratio: Option<Option<f64>>,
    best_slowdown: Option<Option<f64>>,
}

impl DeviceFields<'_> {
    fn into_prediction(self) -> Result<DevicePrediction, String> {
        let number = |value: Option<Option<f64>>, name: &str| {
            value
                .flatten()
                .ok_or_else(|| format!("device prediction is missing number '{name}'"))
        };
        Ok(DevicePrediction {
            device: self
                .device
                .flatten()
                .ok_or("device prediction is missing 'device'")?
                .parse()?,
            prediction: self.prediction.ok_or("device prediction is missing 'prediction'")??,
            best_ratio: number(self.best_ratio, "best_ratio")?,
            best_slowdown: number(self.best_slowdown, "best_slowdown")?,
        })
    }
}

/// Reads a slowdown decomposition (`s_drd`, `s_cache`, `s_store`, checked
/// in that order).
fn read_slowdown(reader: &mut Reader<'_>) -> Decoded<SlowdownPrediction> {
    const NAMES: [&str; 3] = ["s_drd", "s_cache", "s_store"];
    let mut values = [None::<Option<f64>>; 3];
    if reader.peek()? == Kind::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match NAMES.iter().position(|&name| name == key) {
                Some(i) if values[i].is_none() => values[i] = Some(reader.number_or_skip()?),
                _ => reader.skip()?,
            }
        }
    } else {
        reader.skip()?;
    }
    let mut fields = [0.0; 3];
    for ((field, value), name) in fields.iter_mut().zip(values).zip(NAMES) {
        *field = match value {
            None => return Ok(Err(format!("prediction is missing field '{name}'"))),
            Some(None) => return Ok(Err(format!("prediction field '{name}' must be a number"))),
            Some(Some(value)) => value,
        };
    }
    let [drd, cache, store] = fields;
    Ok(Ok(SlowdownPrediction { drd, cache, store }))
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
    /// Renders the frame body. Predictions, `ok` and errors are written
    /// straight to text, with numbers and strings formatted exactly as
    /// [`Json::render`] formats them; only the rare `stats` answer goes
    /// through a [`Json`] tree.
    pub fn render(&self) -> String {
        match self {
            Response::Predictions { id, results } => {
                // ~210 bytes per device prediction.
                let size = results.iter().map(|devices| 16 + 224 * devices.len()).sum::<usize>();
                let mut out = String::with_capacity(64 + size);
                out.push_str("{\"kind\":\"predictions\",\"id\":");
                json::write_number(*id as f64, &mut out);
                out.push_str(",\"results\":[");
                for (i, devices) in results.iter().enumerate() {
                    out.push_str(if i == 0 { "{\"devices\":[" } else { ",{\"devices\":[" });
                    for (j, device) in devices.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        device.write(&mut out);
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
                out
            }
            Response::Stats(snapshot) => snapshot.to_json().render(),
            Response::Ok => "{\"kind\":\"ok\"}".to_string(),
            Response::Error { code, detail } => {
                let mut out = String::with_capacity(40 + detail.len());
                out.push_str("{\"kind\":\"error\",\"code\":");
                json::write_string(code.as_str(), &mut out);
                out.push_str(",\"detail\":");
                json::write_string(detail, &mut out);
                out.push('}');
                out
            }
        }
    }

    /// Decodes a response frame body.
    ///
    /// Predictions, `ok` and errors are read once, straight into the
    /// answer; a `stats` body is parsed again into a tree. Checks run in
    /// a fixed order whatever the member order: for predictions the id,
    /// the `results` type, then the first invalid entry.
    pub fn from_text(body: &str) -> Result<Response, String> {
        let mut reader = Reader::new(body);
        let fields = ResponseFields::read(&mut reader).map_err(|e| e.to_string())?;
        reader.finish().map_err(|e| e.to_string())?;
        match fields.kind.flatten().as_deref() {
            Some("predictions") => {
                let id =
                    fields.id.flatten().and_then(json::exact_u64).ok_or("missing response id")?;
                let results = fields.results.ok_or("missing 'results' array")??;
                Ok(Response::Predictions { id, results })
            }
            Some("stats") => {
                let doc = json::parse(body).map_err(|e| e.to_string())?;
                Ok(Response::Stats(StatsSnapshot::from_json(&doc)?))
            }
            Some("ok") => Ok(Response::Ok),
            Some("error") => {
                let code = fields
                    .code
                    .flatten()
                    .and_then(|code| ErrorCode::parse(&code))
                    .ok_or("error response with unknown code")?;
                let detail = fields.detail.flatten().unwrap_or_default().into_owned();
                Ok(Response::Error { code, detail })
            }
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

/// The members of a response body a decoder looks at, like
/// [`RequestFields`]: first occurrences, `Some(None)` for a member of the
/// wrong type.
#[derive(Default)]
struct ResponseFields<'a> {
    kind: Option<Option<Cow<'a, str>>>,
    id: Option<Option<f64>>,
    results: Option<Result<Vec<Vec<DevicePrediction>>, String>>,
    code: Option<Option<Cow<'a, str>>>,
    detail: Option<Option<Cow<'a, str>>>,
}

impl<'a> ResponseFields<'a> {
    fn read(reader: &mut Reader<'a>) -> Result<ResponseFields<'a>, ParseError> {
        let mut fields = ResponseFields::default();
        if reader.peek()? != Kind::Object {
            reader.skip()?;
            return Ok(fields);
        }
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "kind" if fields.kind.is_none() => fields.kind = Some(reader.string_or_skip()?),
                "id" if fields.id.is_none() => fields.id = Some(reader.number_or_skip()?),
                "results" if fields.results.is_none() => {
                    fields.results = Some(read_results(reader)?)
                }
                "code" if fields.code.is_none() => fields.code = Some(reader.string_or_skip()?),
                "detail" if fields.detail.is_none() => {
                    fields.detail = Some(reader.string_or_skip()?)
                }
                _ => reader.skip()?,
            }
        }
        Ok(fields)
    }
}

/// Reads a `results` member: per-signature device predictions, or the
/// first reason they are not.
fn read_results(reader: &mut Reader<'_>) -> Decoded<Vec<Vec<DevicePrediction>>> {
    read_list(reader, "missing 'results' array", read_entry)
}

/// Reads one `results` entry, `{"devices": [..]}`.
fn read_entry(reader: &mut Reader<'_>) -> Decoded<Vec<DevicePrediction>> {
    const MISSING: &str = "result entry is missing 'devices'";
    let mut devices = None;
    if reader.peek()? == Kind::Object {
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            if key == "devices" && devices.is_none() {
                devices = Some(read_list(reader, MISSING, DevicePrediction::read)?);
            } else {
                reader.skip()?;
            }
        }
    } else {
        reader.skip()?;
    }
    Ok(devices.unwrap_or_else(|| Err(MISSING.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    // The exact bytes of today's frames; a renderer change must keep them.
    const GOLDEN_PREDICTIONS: &str = concat!(
        r#"{"kind":"predictions","id":9,"results":[{"devices":[{"device":"CXL-A","prediction":{"s_drd":2,"#,
        r#""s_cache":-0.125,"s_store":0.000003,"total":1.875003},"best_ratio":1,"best_slowdown":250000000000000000},"#,
        r#"{"device":"NUMA","prediction":{"s_drd":0.1,"s_cache":0.2,"s_store":-7,"total":-6.7},"#,
        r#""best_ratio":0.35,"best_slowdown":0.0000001}]},{"devices":[{"device":"CXL-A","#,
        r#""prediction":{"s_drd":0,"s_cache":0,"s_store":123456.789,"total":123456.789},"#,
        r#""best_ratio":0.5,"best_slowdown":-602000000000000000000000},{"device":"NUMA","#,
        r#""prediction":{"s_drd":0.3333333333333333,"s_cache":40000000000000000,"s_store":9007199254740992,"#,
        r#""total":49007199254740990},"best_ratio":0,"best_slowdown":2}]}]}"#,
    );
    const GOLDEN_STATS: &str = concat!(
        r#"{"kind":"stats","accepted":5,"shed":1,"requests":9,"predictions":100,"completed":8,"#,
        r#""protocol_errors":1,"model_errors":2,"deadline_exceeded":3,"calibrations":12,"#,
        r#""uptime_us":99,"latency_us":{"ok":{"count":0,"sum":0,"buckets":{}},"bad-request":{"count":2,"#,
        r#""sum":300,"buckets":{"1":1,"512":1}},"model":{"count":4,"sum":1800,"buckets":{"1":1,"#,
        r#""512":1,"1024":2}},"deadline":{"count":6,"sum":4500,"buckets":{"1":1,"512":1,"#,
        r#""1024":2,"2048":2}},"uncalibrated":{"count":8,"sum":8400,"buckets":{"1":1,"#,
        r#""512":1,"1024":2,"2048":3,"4096":1}},"shutting-down":{"count":10,"sum":13500,"#,
        r#""buckets":{"1":1,"512":1,"1024":2,"2048":3,"4096":3}}}}"#,
    );
    const GOLDEN_ERROR: &str =
        r#"{"kind":"error","code":"model","detail":"signature \"w\\x\" has \u0001\t\n→ é 😀"}"#;
    const GOLDEN_REQUEST: &str = concat!(
        r#"{"kind":"predict","id":17,"platform":"SPR2S","devices":["CXL-B","NUMA"],"#,
        r#""signatures":[{"cycles":10000,"s_llc":3000,"s_cache":1000,"s_sb":500,"memory_active":6000,"#,
        r#""latency":250,"mlp":10,"r_lfb_hit":0.2,"r_mem":0.5},{"cycles":10000,"s_llc":3000,"#,
        r#""s_cache":1000,"s_sb":500,"memory_active":6000,"latency":0.000001,"mlp":10,"#,
        r#""r_lfb_hit":0.2,"r_mem":0.5},{"cycles":10000,"s_llc":3000,"s_cache":1000,"#,
        r#""s_sb":500,"memory_active":6000,"latency":-350000000000000000000,"mlp":10,"#,
        r#""r_lfb_hit":0.2,"r_mem":0.5}]}"#,
    );

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
        // A signature missing a field, with an unknown one, with a
        // non-number value, and not an object at all.
        let valid = PredictRequest {
            id: 1,
            platform: Platform::Spr2s,
            devices: Vec::new(),
            signatures: vec![signature(250.0)],
        }
        .to_json()
        .render();
        for (body, want) in [
            (valid.replacen(",\"mlp\":10", "", 1), "signature is missing field 'mlp'"),
            (
                valid.replacen("\"cycles\"", "\"cycels\"", 1),
                "unknown signature field 'cycels'",
            ),
            (valid.replacen("10000", "\"x\"", 1), "signature field 'cycles' must be a number"),
            (valid.replacen("[{", "[[],{", 1), "signature must be a JSON object"),
        ] {
            assert_ne!(body, valid);
            assert_eq!(Request::from_text(&body).unwrap_err(), format!("signature 0: {want}"));
        }
    }

    #[test]
    fn nesting_deeper_than_a_worker_stack_is_an_error_not_a_crash() {
        // A megabyte of '[' is one frame; decoding it must not recurse.
        let depth = 1 << 20;
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        let error = Request::from_text(&nested).unwrap_err();
        assert_eq!(error, "request must be an object with a string 'kind'");
        let member = format!("{{\"kind\":\"predict\",\"x\":{nested}}}");
        assert!(Request::from_text(&member).unwrap_err().contains("'platform'"));
        let open = "[".repeat(depth);
        assert!(Request::from_text(&open).unwrap_err().contains("unexpected end of input"));
        assert!(Response::from_text(&nested).unwrap_err().contains("unknown response kind"));
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
        assert_eq!(Response::from_text(&response.render()).unwrap(), response);
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
        assert_eq!(Response::from_text(&stats.render()).unwrap(), stats);
        let error = Response::Error {
            code: ErrorCode::Overloaded,
            detail: "accept queue full".to_string(),
        };
        assert_eq!(Response::from_text(&error.render()).unwrap(), error);
        assert_eq!(Response::from_text("{\"kind\":\"ok\"}").unwrap(), Response::Ok);
    }

    /// One answer of each kind, with the number shapes the renderer
    /// must get right: integral, fractional, negative, below 1e-5 and
    /// above 1e16.
    fn golden_responses() -> [Response; 4] {
        let prediction = |device, drd, cache, store, best_ratio, best_slowdown| DevicePrediction {
            device,
            prediction: SlowdownPrediction { drd, cache, store },
            best_ratio,
            best_slowdown,
        };
        [
            Response::Predictions {
                id: 9,
                results: vec![
                    vec![
                        prediction(DeviceKind::CxlA, 2.0, -0.125, 3e-6, 1.0, 2.5e17),
                        prediction(DeviceKind::Numa, 0.1, 0.2, -7.0, 0.35, 1e-7),
                    ],
                    vec![
                        prediction(DeviceKind::CxlA, 0.0, -0.0, 123456.789, 0.5, -6.02e23),
                        prediction(DeviceKind::Numa, 1.0 / 3.0, 4e16, 9007199254740993.0, 0.0, 2.0),
                    ],
                ],
            },
            Response::Stats(StatsSnapshot {
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
                    for us in 0..i as u64 * 2 {
                        histogram.record(us * 300);
                    }
                    histogram.snapshot()
                })),
            }),
            Response::Ok,
            Response::Error {
                code: ErrorCode::Model,
                detail: "signature \"w\\x\" has \u{1}\t\n→ é 😀".to_string(),
            },
        ]
    }

    #[test]
    fn golden_frames_are_pinned_byte_for_byte() {
        let want: [&str; 4] = [
            GOLDEN_PREDICTIONS,
            GOLDEN_STATS,
            r#"{"kind":"ok"}"#,
            GOLDEN_ERROR,
        ];
        for (response, want) in golden_responses().iter().zip(want) {
            let body = response.render();
            assert_eq!(body, want);
            assert_eq!(&Response::from_text(&body).unwrap(), response);
        }
        let request = PredictRequest {
            id: 17,
            platform: Platform::Spr2s,
            devices: vec![DeviceKind::CxlB, DeviceKind::Numa],
            signatures: vec![signature(250.0), signature(1e-6), signature(-3.5e20)],
        };
        let body = request.to_json().render();
        assert_eq!(body, GOLDEN_REQUEST);
        assert_eq!(Request::from_text(&body).unwrap(), Request::Predict(request));
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
