//! Deterministic fuzzing of the frame reader and the JSON request and
//! response decoders, plus string round-trip properties of the JSON
//! layer underneath them.
//!
//! A SplitMix64 mutation loop starts from real frames (corpus-style
//! signature batches, stats and shutdown requests, rendered answers),
//! truncates them, flips bytes and splices in quotes, backslashes, `\u`
//! escapes and multi-byte UTF-8. Every mutant must decode to a value, a
//! typed [`FrameError`] or a client-facing error string — never a panic.

use camp_core::{Signature, SlowdownPrediction};
use camp_obs::json::{self, Json};
use camp_serve::protocol::{read_frame, write_frame, FrameError};
use camp_serve::{DevicePrediction, PredictRequest, Request, Response};
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
    bodies.push(answer.to_json().render());
    bodies.push(
        Response::Error {
            code: camp_serve::ErrorCode::Model,
            detail: "signature \"w\\x\" → non-finite".to_string(),
        }
        .to_json()
        .render(),
    );
    bodies
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
                match Request::from_text(&body) {
                    Ok(_) => decoded += 1,
                    Err(detail) => assert!(!detail.is_empty(), "bad-request detail is empty"),
                }
                if let Err(detail) = Response::from_text(&body) {
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
        let _ = Request::from_text(body);
        let _ = Response::from_text(body);
    }
    // Some mutants (a flipped digit inside a number, say) stay valid.
    assert!(decoded > 0, "no mutant decoded; the loop is not reaching the request decoder");
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
