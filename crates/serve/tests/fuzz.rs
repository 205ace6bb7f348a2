//! Deterministic fuzzing of the frame reader and the JSON request and
//! response decoders, plus string round-trip properties of the JSON
//! layer underneath them.
//!
//! A SplitMix64 mutation loop starts from real frames (corpus-style
//! signature batches, stats and shutdown requests, rendered answers),
//! truncates them, flips bytes and splices in quotes, backslashes, `\u`
//! escapes and multi-byte UTF-8. Every mutant must decode to a value, a
//! typed [`FrameError`] or a client-facing error string — never a panic.
//!
//! The pull decoders must also agree with [`reference`], the tree
//! decoders they replaced: the same value, bit for bit, or the same error
//! text. A second loop reshapes well-formed bodies (members reordered,
//! repeated, dropped or retyped) so the semantic checks, not just the
//! syntax ones, are compared.

use camp_core::{Signature, SlowdownPrediction};
use camp_obs::json::{self, Json};
use camp_serve::protocol::{read_frame, write_frame, FrameError};
use camp_serve::{DevicePrediction, PredictRequest, Request, Response, StatsSnapshot};
use camp_sim::{DeviceKind, Platform};
use camp_workloads::rng::SplitMix;
use std::io::BufReader;

/// A signature drawn like `camp_bench::corpus` draws them.
fn signature(rng: &mut SplitMix) -> Signature {
    let cycles = 5e6 + rng.unit() * 2e7;
    let memory_active = cycles * (0.02 + rng.unit() * 0.73);
    Signature {
        cycles,
        s_llc: memory_active * rng.unit() * 0.5,
        s_cache: memory_active * rng.unit() * 0.2,
        s_sb: memory_active * rng.unit() * 0.2,
        memory_active,
        latency: 150.0 + rng.unit() * 500.0,
        mlp: 1.0 + rng.unit() * 15.0,
        r_lfb_hit: rng.unit() * 0.8,
        r_mem: 0.1 + rng.unit() * 0.9,
    }
}

/// Frame bodies the mutations start from.
fn seed_bodies(rng: &mut SplitMix) -> Vec<String> {
    let mut bodies = Vec::new();
    for id in 0..8 {
        let request = PredictRequest {
            id,
            platform: Platform::Spr2s,
            devices: if id % 2 == 0 { Vec::new() } else { vec![DeviceKind::CxlA] },
            signatures: (0..1 + rng.below(8)).map(|_| signature(rng)).collect(),
        };
        bodies.push(Request::Predict(request).to_json().render());
    }
    bodies.push(Request::Stats.to_json().render());
    bodies.push(Request::Shutdown.to_json().render());
    let answer = Response::Predictions {
        id: 3,
        results: vec![vec![DevicePrediction {
            device: DeviceKind::CxlB,
            prediction: SlowdownPrediction { drd: 0.25, cache: 0.04, store: 0.01 },
            best_ratio: 0.85,
            best_slowdown: 0.02,
        }]],
    };
    bodies.push(answer.render());
    bodies.push(
        Response::Error {
            code: camp_serve::ErrorCode::Model,
            detail: "signature \"w\\x\" → non-finite".to_string(),
        }
        .render(),
    );
    let prediction = |device, drd: f64| DevicePrediction {
        device,
        prediction: SlowdownPrediction { drd, cache: drd / 7.0, store: -drd / 1e6 },
        best_ratio: 1.0 - drd / 3.0,
        best_slowdown: drd * 1e17,
    };
    let results = (0..3)
        .map(|i| {
            vec![
                prediction(DeviceKind::CxlA, i as f64 * 0.3),
                prediction(DeviceKind::Numa, 0.5),
            ]
        })
        .collect();
    bodies.push(Response::Predictions { id: 1 << 40, results }.render());
    let stats = StatsSnapshot {
        requests: 3,
        uptime_us: 1 << 30,
        latency_us: Box::new(std::array::from_fn(|i| {
            let histogram = camp_obs::Histogram::new();
            histogram.record(i as u64 * 1000);
            histogram.snapshot()
        })),
        ..StatsSnapshot::default()
    };
    bodies.push(Response::Stats(stats).render());
    bodies
}

/// `value` with every float replaced by its bit pattern, so that equal
/// renderings mean bit-for-bit equal values.
fn request_bits(request: &Request) -> String {
    match request {
        Request::Predict(predict) => {
            let signatures: Vec<Vec<u64>> = predict
                .signatures
                .iter()
                .map(|s| {
                    [
                        s.cycles,
                        s.s_llc,
                        s.s_cache,
                        s.s_sb,
                        s.memory_active,
                        s.latency,
                        s.mlp,
                        s.r_lfb_hit,
                        s.r_mem,
                    ]
                    .map(f64::to_bits)
                    .to_vec()
                })
                .collect();
            let (id, platform, devices) = (predict.id, predict.platform, &predict.devices);
            format!("predict {id} {platform:?} {devices:?} {signatures:?}")
        }
        other => format!("{other:?}"),
    }
}

/// [`request_bits`] for answers.
fn response_bits(response: &Response) -> String {
    match response {
        Response::Predictions { id, results } => {
            let results: Vec<Vec<_>> = results
                .iter()
                .map(|devices| {
                    devices
                        .iter()
                        .map(|d| {
                            let p = &d.prediction;
                            let numbers = [p.drd, p.cache, p.store, d.best_ratio, d.best_slowdown];
                            (d.device, numbers.map(f64::to_bits))
                        })
                        .collect()
                })
                .collect();
            format!("predictions {id} {results:?}")
        }
        other => format!("{other:?}"),
    }
}

/// Decodes `body` with the pull decoders and the reference tree decoders,
/// asserts they agree, and returns the pull decoders' results.
fn decode_both(body: &str) -> (Result<Request, String>, Result<Response, String>) {
    let parsed = json::parse(body);
    assert_eq!(parsed, reference::json::parse(body), "parse of {body:?}");
    let request = Request::from_text(body);
    assert_eq!(
        request.as_ref().map(request_bits),
        reference::request_from_text(body).as_ref().map(request_bits),
        "request decode of {body:?}"
    );
    let response = Response::from_text(body);
    assert_eq!(
        response.as_ref().map(response_bits),
        reference::response_from_text(body).as_ref().map(response_bits),
        "response decode of {body:?}"
    );
    (request, response)
}

/// Byte strings spliced into frames: JSON's structural and escape
/// characters, good and broken `\u` escapes, and multi-byte UTF-8 (whole
/// and cut short).
const SPLICES: &[&[u8]] = &[
    b"\\",
    b"\"",
    b"\\u",
    b"\\u00e9",
    b"\\u12",
    b"\\ud83d\\ude00",
    b"\\ud83d",
    b"\\udc00",
    b"\\ud83d\\u0041",
    b"\\n",
    b"\\q",
    "é".as_bytes(),
    "→".as_bytes(),
    "😀".as_bytes(),
    &[0xc3],
    &[0xe2, 0x86],
    &[0xff],
    b"{",
    b"]",
    b"1e999",
    b"-",
    b"\n",
    b"null",
    b"{}",
    b"[]",
    b"\"kind\":\"predict\",",
    b",\"id\":7",
];

fn mutate(rng: &mut SplitMix, frame: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(frame.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 => frame.truncate(at),
            1 if at < frame.len() => frame[at] ^= 1 << rng.below(8),
            2 if at < frame.len() => frame[at] = rng.below(256) as u8,
            _ => {
                let splice = SPLICES[rng.below(SPLICES.len() as u64) as usize];
                frame.splice(at..at, splice.iter().copied());
            }
        }
    }
}

/// Reads every frame out of `bytes`, decoding each body both as a request
/// and as a response. Returns how many bodies decoded as requests.
fn feed(bytes: &[u8]) -> usize {
    let mut reader = BufReader::new(bytes);
    let mut decoded = 0;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(body)) => {
                let (request, response) = decode_both(&body);
                match request {
                    Ok(_) => decoded += 1,
                    Err(detail) => assert!(!detail.is_empty(), "bad-request detail is empty"),
                }
                if let Err(detail) = response {
                    assert!(!detail.is_empty(), "response error is empty");
                }
            }
            Ok(None) => return decoded,
            Err(error) => {
                assert!(matches!(
                    error,
                    FrameError::BadHeader(_)
                        | FrameError::Oversized(_)
                        | FrameError::Truncated { .. }
                        | FrameError::NotUtf8
                ));
                assert!(!error.to_string().is_empty());
                return decoded;
            }
        }
    }
}

#[test]
fn mutated_frames_never_panic_the_decoders() {
    let mut rng = SplitMix::new(0x5eed_f022);
    let bodies = seed_bodies(&mut rng);
    for body in &bodies {
        let mut frame = Vec::new();
        write_frame(&mut frame, body).unwrap();
        let answer =
            body.contains("\"kind\":\"predictions\"") || body.contains("\"kind\":\"error\"");
        assert_eq!(feed(&frame), usize::from(!answer), "unmutated {body}");
    }
    let mut decoded = 0;
    for _ in 0..20_000 {
        // One or two frames back to back, so a mutation can also break
        // the boundary between them.
        let mut frame = Vec::new();
        for _ in 0..1 + rng.below(2) {
            let body = &bodies[rng.below(bodies.len() as u64) as usize];
            write_frame(&mut frame, body).unwrap();
        }
        mutate(&mut rng, &mut frame);
        decoded += feed(&frame);
        // The body alone, past the framing, straight into the parsers.
        let text = String::from_utf8_lossy(&frame);
        let body = text.split_once('\n').map_or(&*text, |(_, body)| body);
        let _ = decode_both(body);
    }
    // Some mutants (a flipped digit inside a number, say) stay valid.
    assert!(decoded > 0, "no mutant decoded; the loop is not reaching the request decoder");
}

/// Keys and scalars the reshaping loop plants: the protocol's own member
/// names and values, a misspelling, and types the decoders must reject.
const KEYS: &[&str] = &[
    "kind",
    "id",
    "platform",
    "devices",
    "signatures",
    "cycles",
    "mlp",
    "cycels",
    "device",
    "prediction",
    "s_drd",
    "best_ratio",
    "best_slowdown",
    "results",
    "code",
    "detail",
    "total",
];
const WORDS: &[&str] = &[
    "predict",
    "stats",
    "shutdown",
    "predictions",
    "error",
    "ok",
    "SPR2S",
    "Z80",
    "CXL-A",
    "NUMA",
    "floppy",
    "model",
    "teapot",
];
const NUMBERS: &[f64] = &[
    0.0,
    -1.0,
    1.5,
    7.0,
    4097.0,
    9007199254740992.0,
    9007199254740994.0,
    1e300,
];

fn random_value(rng: &mut SplitMix) -> Json {
    match rng.below(6) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(NUMBERS[rng.below(NUMBERS.len() as u64) as usize]),
        3 => Json::from(WORDS[rng.below(WORDS.len() as u64) as usize]),
        4 => Json::Arr(Vec::new()),
        _ => Json::Obj(Vec::new()),
    }
}

/// Applies one structural edit to a node of `doc` picked uniformly, so
/// the deep members of an answer are edited as often as the top level.
fn reshape(rng: &mut SplitMix, doc: &mut Json) {
    fn count(doc: &Json) -> u64 {
        1 + match doc {
            Json::Obj(members) => members.iter().map(|(_, value)| count(value)).sum(),
            Json::Arr(items) => items.iter().map(count).sum(),
            _ => 0,
        }
    }
    /// Edits the `n`th node in pre-order; false if there are fewer.
    fn edit_nth(rng: &mut SplitMix, doc: &mut Json, n: &mut u64) -> bool {
        if *n == 0 {
            edit(rng, doc);
            return true;
        }
        *n -= 1;
        match doc {
            Json::Obj(members) => members.iter_mut().any(|(_, value)| edit_nth(rng, value, n)),
            Json::Arr(items) => items.iter_mut().any(|item| edit_nth(rng, item, n)),
            _ => false,
        }
    }
    /// Reorders, repeats, drops, renames or retypes a member or element
    /// of `doc`, or replaces a scalar or empty container.
    fn edit(rng: &mut SplitMix, doc: &mut Json) {
        match doc {
            Json::Obj(members) if !members.is_empty() => {
                let i = rng.below(members.len() as u64) as usize;
                match rng.below(5) {
                    0 => {
                        let j = rng.below(members.len() as u64) as usize;
                        members.swap(i, j);
                    }
                    1 => {
                        let mut copy = members[i].clone();
                        if rng.below(2) == 0 {
                            copy.1 = random_value(rng);
                        }
                        let at = rng.below(members.len() as u64 + 1) as usize;
                        members.insert(at, copy);
                    }
                    2 => drop(members.remove(i)),
                    3 => members[i].0 = KEYS[rng.below(KEYS.len() as u64) as usize].to_string(),
                    _ => members[i].1 = random_value(rng),
                }
            }
            Json::Arr(items) if !items.is_empty() => {
                let i = rng.below(items.len() as u64) as usize;
                match rng.below(3) {
                    0 => drop(items.remove(i)),
                    1 => items.insert(i, items[i].clone()),
                    _ => items[i] = random_value(rng),
                }
            }
            _ => *doc = random_value(rng),
        }
    }
    let mut n = rng.below(count(doc));
    edit_nth(rng, doc, &mut n);
}

#[test]
fn reshaped_documents_decode_like_the_reference() {
    let mut rng = SplitMix::new(0x2e5a_9e00);
    let seeds: Vec<Json> =
        seed_bodies(&mut rng).iter().map(|body| json::parse(body).unwrap()).collect();
    for _ in 0..20_000 {
        let mut doc = seeds[rng.below(seeds.len() as u64) as usize].clone();
        for _ in 0..1 + rng.below(4) {
            reshape(&mut rng, &mut doc);
        }
        let _ = decode_both(&doc.render());
    }
}

#[test]
fn edge_cases_decode_like_the_reference() {
    let signature = r#"{"cycles":1e7,"s_llc":1,"s_cache":2,"s_sb":3,"memory_active":4,"latency":200,"mlp":2,"r_lfb_hit":0.1,"r_mem":0.5}"#;
    let predict = |rest: &str| format!(r#"{{"kind":"predict","platform":"SPR2S"{rest}}}"#);
    let device = r#"{"device":"CXL-A","prediction":{"s_drd":0.1,"s_cache":0,"s_store":0},"best_ratio":1,"best_slowdown":0.1}"#;
    let answer = |rest: &str| format!(r#"{{"kind":"predictions","id":3{rest}}}"#);
    let mut bodies = vec![
        // Member order and repeats: checks run in a fixed order, and the
        // first occurrence of a member counts.
        format!(r#"{{"signatures":[{{"cycels":1}}],"kind":"predict"}}"#),
        r#"{"kind":"stats","kind":"predict"}"#.to_string(),
        r#"{"kind":1,"kind":"stats"}"#.to_string(),
        predict(&format!(r#","signatures":[{signature}],"signatures":[]"#)),
        predict(&format!(r#","signatures":[],"signatures":[{signature}]"#)),
        predict(&format!(r#","id":2,"id":-1,"signatures":[{signature}]"#)),
        // Ids at and past what a double holds exactly.
        predict(&format!(r#","id":9007199254740992,"signatures":[{signature}]"#)),
        predict(&format!(r#","id":9007199254740994,"signatures":[{signature}]"#)),
        predict(&format!(r#","id":-0,"signatures":[{signature}]"#)),
        predict(&format!(r#","id":1e999,"signatures":[{signature}]"#)),
        // Signature fields: escapes in keys, repeats, saturating numbers.
        predict(r#","signatures":[{"cycles":1}]"#),
        predict(&format!(r#","signatures":[{}]"#, signature.replace("1e7", "1e999"))),
        predict(&format!(
            r#","signatures":[{}]"#,
            signature.replace(r#""mlp":2"#, r#""mlp":2,"mlp":"x","zz":1,"yy":2"#)
        )),
        predict(&format!(r#","signatures":[{signature},{{"mlp":"x"}},7]"#)),
        // Devices: the first bad element decides.
        predict(&format!(r#","devices":["CXL-A",3,"floppy"],"signatures":[{signature}]"#)),
        predict(&format!(r#","devices":["floppy",3],"signatures":[{signature}]"#)),
        predict(&format!(r#","devices":{{}},"signatures":[{signature}]"#)),
        // The batch limit comes before any signature's own error.
        predict(&format!(
            r#","signatures":[{}]"#,
            vec!["{}"; camp_serve::protocol::MAX_BATCH + 1].join(",")
        )),
        // Not an object at all.
        "[]".to_string(),
        "\"predict\"".to_string(),
        " 7 ".to_string(),
        // Answers.
        answer(&format!(r#","results":[{{"devices":[{device},{device}]}},{{"devices":[]}}]"#)),
        answer(r#","results":[{"devices":[{"device":"CXL-A"}]}]"#),
        answer(&format!(
            r#","results":[{{"devices":[{}]}}]"#,
            device.replace(r#""best_ratio":1"#, r#""best_ratio":1,"best_ratio":"x","device":7"#)
        )),
        answer(&format!(
            r#","results":[{{"devices":[{}]}}]"#,
            device.replace(r#""s_drd":0.1"#, r#""s_drd":0.1,"s_drd":null,"prediction":3"#)
        )),
        answer(&format!(r#","results":[{{"devices":[{device}],"devices":3}}]"#)),
        answer(r#","results":[{"devices":[{"device":"CXL-A","prediction":[]}]}]"#),
        answer(r#","results":[{"devices":[{"device":"CXL-A","prediction":{"s_drd":"x"}}]}]"#),
        answer(r#","results":[{"devices":{}},{"devices":[1]}]"#),
        answer(r#","results":[3]"#),
        answer(r#","results":{}"#),
        answer(r#","results":[],"results":3"#),
        r#"{"kind":"predictions","results":[]}"#.to_string(),
        r#"{"kind":"error","code":"model"}"#.to_string(),
        r#"{"kind":"error","code":"teapot","detail":"x"}"#.to_string(),
        r#"{"kind":"error","code":"model","detail":7,"detail":"x"}"#.to_string(),
        r#" { "kind" : "ok" } "#.to_string(),
        r#"{"kind":"stats","accepted":1}"#.to_string(),
    ];
    // Every prefix of a well-formed body: syntax errors at each offset.
    let whole = answer(&format!(r#","results":[{{"devices":[{device}]}}]"#));
    bodies.extend((0..whole.len()).map(|n| whole[..n].to_string()));
    for body in &bodies {
        let _ = decode_both(body);
    }
}

/// A random string mixing ASCII, control characters, characters JSON
/// escapes, and 2-, 3- and 4-byte UTF-8.
fn random_string(rng: &mut SplitMix) -> String {
    (0..rng.below(40))
        .map(|_| {
            let ranges: [(u32, u32); 7] = [
                (0x20, 0x7f),        // printable ASCII
                (0x00, 0x20),        // control characters
                (0x22, 0x23),        // quote
                (0x5c, 0x5d),        // backslash
                (0x80, 0x800),       // 2-byte
                (0x800, 0xd800),     // 3-byte, below the surrogates
                (0x10000, 0x110000), // 4-byte
            ];
            let (lo, hi) = ranges[rng.below(ranges.len() as u64) as usize];
            char::from_u32(lo + rng.below(u64::from(hi - lo)) as u32).expect("no surrogates")
        })
        .collect()
}

/// `s` with every character written as a `\u` escape (surrogate pairs
/// beyond the BMP).
fn escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

#[test]
fn strings_roundtrip_through_render_and_parse() {
    let mut rng = SplitMix::new(0x57f1_e500);
    for case in 0..5_000 {
        let s = random_string(&mut rng);
        let rendered = Json::Str(s.clone()).render();
        assert_eq!(json::parse(&rendered).unwrap().as_str(), Some(s.as_str()), "case {case}");
        let as_key = Json::Obj(vec![(s.clone(), Json::Null)]);
        assert_eq!(json::parse(&as_key.render()).unwrap(), as_key, "case {case} as a key");
        assert_eq!(json::parse(&escaped(&s)).unwrap().as_str(), Some(s.as_str()), "case {case}");
    }
}

/// The decoders as they stood when they built a [`Json`] tree of the
/// whole body first, kept verbatim (methods turned into functions) as the
/// reference the pull decoders must agree with, down to the error text.
mod reference {
    use camp_core::{Signature, SlowdownPrediction};
    use camp_obs::json::Json;
    use camp_obs::HistogramSnapshot;
    use camp_serve::protocol::{MAX_BATCH, OUTCOMES};
    use camp_serve::{
        DevicePrediction, ErrorCode, PredictRequest, Request, Response, StatsSnapshot,
    };
    use camp_sim::{DeviceKind, Platform};

    /// The recursive-descent parser the tree decoders ran on.
    pub mod json {
        use camp_obs::json::{Json, ParseError};

        /// Parses a complete JSON document (rejecting trailing garbage).
        pub fn parse(text: &str) -> Result<Json, ParseError> {
            let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
            parser.skip_ws();
            let value = parser.value()?;
            parser.skip_ws();
            if parser.pos != parser.bytes.len() {
                return Err(parser.error("trailing characters after value"));
            }
            Ok(value)
        }

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl<'a> Parser<'a> {
            fn error(&self, message: &str) -> ParseError {
                ParseError { offset: self.pos, message: message.to_string() }
            }

            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
                if self.peek() == Some(byte) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(self.error(&format!("expected '{}'", byte as char)))
                }
            }

            fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
                if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(value)
                } else {
                    Err(self.error(&format!("expected '{word}'")))
                }
            }

            fn value(&mut self) -> Result<Json, ParseError> {
                match self.peek() {
                    Some(b'n') => self.literal("null", Json::Null),
                    Some(b't') => self.literal("true", Json::Bool(true)),
                    Some(b'f') => self.literal("false", Json::Bool(false)),
                    Some(b'"') => Ok(Json::Str(self.string()?)),
                    Some(b'[') => self.array(),
                    Some(b'{') => self.object(),
                    Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                    Some(_) => Err(self.error("unexpected character")),
                    None => Err(self.error("unexpected end of input")),
                }
            }

            fn number(&mut self) -> Result<Json, ParseError> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
                if self.peek() == Some(b'.') {
                    self.pos += 1;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
                if matches!(self.peek(), Some(b'e' | b'E')) {
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid number"))?;
                text.parse::<f64>().map(Json::Num).map_err(|_| self.error("invalid number"))
            }

            fn string(&mut self) -> Result<String, ParseError> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    // Copy the run of plain characters up to the next quote or
                    // backslash in one piece. Both are ASCII, so the run ends on a
                    // char boundary, and scanning is linear in the string length.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                        ParseError {
                            offset: start + e.valid_up_to(),
                            message: "invalid utf-8".to_string(),
                        }
                    })?;
                    out.push_str(run);
                    match self.peek() {
                        None => return Err(self.error("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(out);
                        }
                        _ => self.escape(&mut out)?,
                    }
                }
            }

            /// Decodes the escape sequence at the cursor (a backslash) onto `out`.
            fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
                self.pos += 1;
                let c = match self.peek() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        self.pos += 1;
                        let unit = self.hex4()?;
                        // Combine a UTF-16 surrogate pair if present.
                        let c = if (0xd800..0xdc00).contains(&unit) {
                            if self.bytes[self.pos..].starts_with(b"\\u") {
                                self.pos += 2;
                                let low = self.hex4()?;
                                // A high surrogate followed by anything but a low
                                // one is invalid (and must not underflow below).
                                (0xdc00..0xe000)
                                    .contains(&low)
                                    .then(|| {
                                        0x10000
                                            + ((unit as u32 - 0xd800) << 10)
                                            + (low as u32 - 0xdc00)
                                    })
                                    .and_then(char::from_u32)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(unit as u32)
                        };
                        out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        return Ok(()); // hex4 advanced past the digits
                    }
                    _ => return Err(self.error("invalid escape")),
                };
                out.push(c);
                self.pos += 1;
                Ok(())
            }

            fn hex4(&mut self) -> Result<u16, ParseError> {
                if self.pos + 4 > self.bytes.len() {
                    return Err(self.error("truncated unicode escape"));
                }
                let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                    .map_err(|_| self.error("invalid unicode escape"))?;
                let unit = u16::from_str_radix(digits, 16)
                    .map_err(|_| self.error("invalid unicode escape"))?;
                self.pos += 4;
                Ok(unit)
            }

            fn array(&mut self) -> Result<Json, ParseError> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }

            fn object(&mut self) -> Result<Json, ParseError> {
                self.expect(b'{')?;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
        }
    }

    const FIELDS: [&str; 9] = [
        "cycles",
        "s_llc",
        "s_cache",
        "s_sb",
        "memory_active",
        "latency",
        "mlp",
        "r_lfb_hit",
        "r_mem",
    ];

    /// `Request::from_text`.
    pub fn request_from_text(body: &str) -> Result<Request, String> {
        let doc = json::parse(body).map_err(|e| e.to_string())?;
        match doc.get("kind").and_then(Json::as_str) {
            Some("predict") => Ok(Request::Predict(predict_request_from_json(&doc)?)),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown request kind '{other}'")),
            None => Err("request must be an object with a string 'kind'".to_string()),
        }
    }

    /// `PredictRequest::from_json`.
    fn predict_request_from_json(doc: &Json) -> Result<PredictRequest, String> {
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
            .map(|(i, sig)| signature_from_json(sig).map_err(|e| format!("signature {i}: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PredictRequest { id, platform, devices, signatures })
    }

    /// `Signature::from_json`.
    fn signature_from_json(json: &Json) -> Result<Signature, String> {
        let members = json.as_obj().ok_or("signature must be a JSON object")?;
        for (key, _) in members {
            if !FIELDS.iter().any(|name| name == key) {
                return Err(format!("unknown signature field '{key}'"));
            }
        }
        let field = |name: &str| -> Result<f64, String> {
            json.get(name)
                .ok_or_else(|| format!("signature is missing field '{name}'"))?
                .as_f64()
                .ok_or_else(|| format!("signature field '{name}' must be a number"))
        };
        Ok(Signature {
            cycles: field("cycles")?,
            s_llc: field("s_llc")?,
            s_cache: field("s_cache")?,
            s_sb: field("s_sb")?,
            memory_active: field("memory_active")?,
            latency: field("latency")?,
            mlp: field("mlp")?,
            r_lfb_hit: field("r_lfb_hit")?,
            r_mem: field("r_mem")?,
        })
    }

    /// `Response::from_text`.
    pub fn response_from_text(body: &str) -> Result<Response, String> {
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
                            .map(device_prediction_from_json)
                            .collect::<Result<Vec<_>, String>>()
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Predictions { id, results })
            }
            Some("stats") => Ok(Response::Stats(stats_from_json(&doc)?)),
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

    /// `DevicePrediction::from_json`.
    fn device_prediction_from_json(doc: &Json) -> Result<DevicePrediction, String> {
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
            prediction: slowdown_prediction_from_json(
                doc.get("prediction").ok_or("device prediction is missing 'prediction'")?,
            )?,
            best_ratio: number("best_ratio")?,
            best_slowdown: number("best_slowdown")?,
        })
    }

    /// `SlowdownPrediction::from_json`.
    fn slowdown_prediction_from_json(json: &Json) -> Result<SlowdownPrediction, String> {
        let field = |name: &str| -> Result<f64, String> {
            json.get(name)
                .ok_or_else(|| format!("prediction is missing field '{name}'"))?
                .as_f64()
                .ok_or_else(|| format!("prediction field '{name}' must be a number"))
        };
        Ok(SlowdownPrediction {
            drd: field("s_drd")?,
            cache: field("s_cache")?,
            store: field("s_store")?,
        })
    }

    /// `StatsSnapshot::from_json`.
    fn stats_from_json(doc: &Json) -> Result<StatsSnapshot, String> {
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
