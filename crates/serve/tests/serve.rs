//! End-to-end tests against a live in-process server: protocol edge
//! cases, model-error surfacing, deadlines, load shedding, graceful
//! shutdown, and concurrent-client determinism.
//!
//! Servers here use a synthetic calibration (`ServeConfig::calibrate`
//! hook) so each test starts its own daemon in microseconds instead of
//! re-running the simulation-backed fit; the real fit path is covered by
//! the CI `serve-smoke` job and `camp-core`'s calibration tests.

use camp_core::stats::Hyperbola;
use camp_core::{Calibration, Signature};
use camp_serve::server::SHED_EVENTS;
use camp_serve::{Client, ErrorCode, PredictRequest, Request, Response, ServeConfig, Server};
use camp_sim::{DeviceKind, Platform};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A plausible hand-built calibration — the model math only needs the
/// constants, not how they were fitted.
fn synthetic_calibration(platform: Platform, device: DeviceKind) -> Calibration {
    Calibration {
        platform,
        device,
        hyperbola: Hyperbola { p: 1.2, q: 40.0 },
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

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        pairs: vec![
            (Platform::Spr2s, DeviceKind::CxlA),
            (Platform::Spr2s, DeviceKind::Numa),
        ],
        calibrate: synthetic_calibration,
        ..ServeConfig::default()
    }
}

fn signature() -> Signature {
    Signature {
        cycles: 1e7,
        s_llc: 3e6,
        s_cache: 5e5,
        s_sb: 2e5,
        memory_active: 6e6,
        latency: 260.0,
        mlp: 6.0,
        r_lfb_hit: 0.3,
        r_mem: 0.6,
    }
}

fn predict_request(id: u64) -> PredictRequest {
    PredictRequest {
        id,
        platform: Platform::Spr2s,
        devices: Vec::new(),
        signatures: vec![signature()],
    }
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), Some(Duration::from_secs(30))).expect("connect")
}

/// Polls the in-process counters until `predicate` holds (bounded).
fn wait_for(server: &Server, predicate: impl Fn(&camp_serve::StatsSnapshot) -> bool) {
    for _ in 0..1000 {
        if predicate(&server.stats()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("server never reached the expected state: {:?}", server.stats());
}

#[test]
fn predicts_over_the_wire_for_every_calibrated_device() {
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    let response = client.predict(predict_request(9)).expect("round trip");
    let Response::Predictions { id, results } = response else {
        panic!("expected predictions, got {response:?}");
    };
    assert_eq!(id, 9);
    assert_eq!(results.len(), 1, "one entry per signature");
    let devices: Vec<DeviceKind> = results[0].iter().map(|d| d.device).collect();
    assert_eq!(devices, [DeviceKind::CxlA, DeviceKind::Numa], "config pair order");
    for prediction in &results[0] {
        assert!(prediction.prediction.total() > 0.0, "memory-bound signature must slow down");
        assert!((0.0..=1.0).contains(&prediction.best_ratio));
    }
    // Explicit device selection narrows the answer.
    let narrowed = PredictRequest {
        devices: vec![DeviceKind::Numa],
        ..predict_request(10)
    };
    let Response::Predictions { results, .. } = client.predict(narrowed).expect("round trip")
    else {
        panic!("expected predictions");
    };
    assert_eq!(results[0].len(), 1);
    assert_eq!(results[0][0].device, DeviceKind::Numa);
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn malformed_and_truncated_frames_answer_bad_request() {
    let server = Server::start(test_config()).expect("start");

    // Garbage where the length header should be.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"not-a-length\n").expect("write");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    assert!(reply.contains("bad-request"), "got {reply:?}");
    assert!(reply.contains("header"), "got {reply:?}");

    // A declared body that never arrives (client half-close).
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"50\n{\"kind\":").expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    assert!(reply.contains("bad-request"), "got {reply:?}");
    assert!(reply.contains("truncated"), "got {reply:?}");

    // Valid frame, invalid JSON payload: the connection survives and a
    // well-formed request still succeeds on it.
    let mut client = connect(&server);
    let response = client.call(&Request::Stats);
    assert!(matches!(response, Ok(Response::Stats(_))));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let body = "{\"kind\":\"predict\",\"platform\":\"SPR2S\"}";
    stream.write_all(format!("{}\n{body}", body.len()).as_bytes()).expect("write");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let first = read_one_frame(&mut reader);
    assert!(first.contains("bad-request") && first.contains("signatures"), "got {first:?}");
    let body = "{\"kind\":\"stats\"}";
    stream.write_all(format!("{}\n{body}", body.len()).as_bytes()).expect("write");
    let second = read_one_frame(&mut reader);
    assert!(second.contains("\"kind\":\"stats\""), "connection must survive: {second:?}");

    wait_for(&server, |stats| stats.protocol_errors >= 3);
    server.shutdown();
    server.join().expect("join");
}

/// Reads one length-prefixed frame body as text (test-side mirror of the
/// protocol, kept deliberately independent of the crate's reader).
fn read_one_frame(reader: &mut impl std::io::BufRead) -> String {
    let mut header = String::new();
    reader.read_line(&mut header).expect("header");
    let len: usize = header.trim().parse().expect("length");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf8")
}

#[test]
fn non_finite_signatures_surface_the_model_error_text() {
    let server = Server::start(test_config()).expect("start");
    // JSON has no literal for infinity, but an overflowing exponent
    // parses to one — exactly what a buggy client serialising f64s would
    // ship. The typed ModelError from the core crate must come back
    // verbatim in the error detail.
    let sig = "{\"cycles\":1e7,\"s_llc\":3e6,\"s_cache\":5e5,\"s_sb\":2e5,\
               \"memory_active\":6e6,\"latency\":1e999,\"mlp\":6,\
               \"r_lfb_hit\":0.3,\"r_mem\":0.6}";
    let body =
        format!("{{\"kind\":\"predict\",\"id\":7,\"platform\":\"SPR2S\",\"signatures\":[{sig}]}}");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(format!("{}\n{body}", body.len()).as_bytes()).expect("write");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let reply = read_one_frame(&mut reader);
    let response = Response::from_text(&reply).expect("decodes");
    let Response::Error { code, detail } = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(code, ErrorCode::Model);
    assert!(
        detail.contains("has non-finite latency: inf"),
        "ModelError text must survive the wire: {detail:?}"
    );
    assert!(detail.contains("request-7[0]"), "label names the request: {detail:?}");
    assert_eq!(server.stats().model_errors, 1);
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn sub_cycle_signatures_answer_a_model_error_never_null() {
    // Every stall fraction divides by `cycles`: at 0 the components are
    // NaN, which JSON can only carry as `null`. The request must fail as a
    // model error instead of going out as an ok answer.
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    let request = PredictRequest {
        signatures: vec![Signature { cycles: 0.0, ..signature() }],
        ..predict_request(8)
    };
    match client.predict(request).expect("round trip") {
        Response::Error { code: ErrorCode::Model, detail } => {
            assert!(detail.contains("request-8[0]"), "label names the request: {detail:?}");
            assert!(detail.contains("1-cycle floor"), "{detail:?}");
        }
        other => panic!("expected a model error, got {other:?}"),
    }
    assert_eq!(server.stats().model_errors, 1);
    // A finite signature can still overflow the model (here Best-shot's
    // slowdown); that answer is a model error too.
    let request = PredictRequest {
        signatures: vec![Signature { s_sb: f64::MAX, ..signature() }],
        ..predict_request(9)
    };
    match client.predict(request).expect("round trip") {
        Response::Error { code: ErrorCode::Model, detail } => {
            assert!(detail.contains("request-9[0]"), "{detail:?}");
            assert!(detail.contains("non-finite prediction"), "{detail:?}");
        }
        other => panic!("expected a model error, got {other:?}"),
    }
    assert_eq!(server.stats().model_errors, 2);
    assert_eq!(server.stats().completed, 0);
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn uncalibrated_pairs_are_rejected() {
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    let skx = PredictRequest { platform: Platform::Skx2s, ..predict_request(1) };
    match client.predict(skx).expect("round trip") {
        Response::Error { code: ErrorCode::Uncalibrated, detail } => {
            assert!(detail.contains("SKX2S"), "{detail:?}");
        }
        other => panic!("expected uncalibrated, got {other:?}"),
    }
    let bad_device = PredictRequest {
        devices: vec![DeviceKind::CxlC],
        ..predict_request(2)
    };
    match client.predict(bad_device).expect("round trip") {
        Response::Error { code: ErrorCode::Uncalibrated, detail } => {
            assert!(detail.contains("CXL-C"), "{detail:?}");
        }
        other => panic!("expected uncalibrated, got {other:?}"),
    }
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn deadlines_abandon_slow_batches() {
    let config = ServeConfig {
        deadline: Duration::from_millis(20),
        test_delay: Some(Duration::from_millis(120)),
        workers: 1,
        ..test_config()
    };
    let server = Server::start(config).expect("start");
    let mut client = connect(&server);
    match client.predict(predict_request(3)).expect("round trip") {
        Response::Error { code: ErrorCode::Deadline, detail } => {
            assert!(detail.contains("deadline"), "{detail:?}");
        }
        other => panic!("expected deadline, got {other:?}"),
    }
    assert_eq!(server.stats().deadline_exceeded, 1);
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn full_queues_shed_with_an_overloaded_answer() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        test_delay: Some(Duration::from_millis(400)),
        ..test_config()
    };
    let server = Server::start(config).expect("start");

    // A occupies the single worker (its frame was decoded => dequeued).
    let mut a = connect(&server);
    let a_handle = std::thread::spawn(move || a.predict(predict_request(1)));
    wait_for(&server, |stats| stats.requests >= 1);

    // B fills the queue of one.
    let mut b = connect(&server);
    let b_handle = std::thread::spawn(move || b.predict(predict_request(2)));
    wait_for(&server, |stats| stats.accepted >= 2);

    // C is shed by the accept thread without ever sending a byte.
    let mut c = connect(&server);
    match c.read_response().expect("shed answer") {
        Response::Error { code: ErrorCode::Overloaded, detail } => {
            assert!(detail.contains("queue"), "{detail:?}");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // A and B complete normally despite the shed.
    assert!(matches!(a_handle.join().expect("a"), Ok(Response::Predictions { .. })));
    assert!(matches!(b_handle.join().expect("b"), Ok(Response::Predictions { .. })));
    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 2);
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn load_shed_events_are_capped_but_every_shed_is_counted() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        test_delay: Some(Duration::from_millis(1_000)),
        ..test_config()
    };
    let server = Server::start(config).expect("start");
    let mut a = connect(&server);
    let a_handle = std::thread::spawn(move || a.predict(predict_request(1)));
    wait_for(&server, |stats| stats.requests >= 1);
    let mut b = connect(&server);
    let b_handle = std::thread::spawn(move || b.predict(predict_request(2)));
    wait_for(&server, |stats| stats.accepted >= 2);

    // Every connection past the queue of one is shed while A holds the
    // worker and B the queue slot.
    let shed = SHED_EVENTS + 8;
    for _ in 0..shed {
        let mut client = connect(&server);
        assert!(matches!(
            client.read_response(),
            Ok(Response::Error { code: ErrorCode::Overloaded, .. })
        ));
    }
    assert!(matches!(a_handle.join().expect("a"), Ok(Response::Predictions { .. })));
    assert!(matches!(b_handle.join().expect("b"), Ok(Response::Predictions { .. })));
    assert_eq!(server.stats().shed, shed);
    let events = server
        .recorder()
        .records()
        .iter()
        .filter(|r| r.category == "anomaly" && r.name == "load-shed")
        .count();
    assert_eq!(events as u64, SHED_EVENTS, "only the first sheds are logged");
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
                (0..20)
                    .map(|id| client.predict(predict_request(id)).expect("round trip").render())
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    let answers: Vec<Vec<String>> =
        handles.into_iter().map(|h| h.join().expect("client")).collect();
    for other in &answers[1..] {
        assert_eq!(&answers[0], other, "prediction bytes must not depend on interleaving");
    }
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn wire_shutdown_drains_and_writes_a_valid_manifest() {
    let manifest_path =
        std::env::temp_dir().join(format!("camp-serve-test-{}-shutdown.jsonl", std::process::id()));
    let config = ServeConfig {
        manifest_out: Some(manifest_path.clone()),
        ..test_config()
    };
    let server = Server::start(config).expect("start");
    let mut client = connect(&server);
    assert!(matches!(
        client.predict(predict_request(1)).expect("round trip"),
        Response::Predictions { .. }
    ));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.calibrations, 2);
    client.shutdown().expect("shutdown acknowledged");
    let final_stats = server.join().expect("join");
    assert_eq!(final_stats.requests, 3, "predict + stats + shutdown");

    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let summary = camp_obs::manifest::validate(&text).expect("manifest validates");
    assert_eq!(summary.spans, 3, "serve root and two calibrations, no per-request spans");
    // The meta record sums the per-outcome histograms: all three frames
    // answered ok, and their latencies sit under the timing member.
    let meta = camp_obs::json::parse(text.lines().next().expect("meta")).expect("json");
    let outcomes = meta.get("outcomes").expect("outcome counts");
    assert_eq!(outcomes.get("ok").and_then(camp_obs::Json::as_u64), Some(3));
    assert_eq!(outcomes.get("bad-request").and_then(camp_obs::Json::as_u64), Some(0));
    let ok = meta.get("t").and_then(|t| t.get("latency_us")).and_then(|l| l.get("ok"));
    let ok = camp_obs::HistogramSnapshot::from_json(ok.expect("ok histogram")).expect("decodes");
    assert_eq!(ok.count(), 3);
    std::fs::remove_file(&manifest_path).ok();

    // New connections after the drain are refused (or reset) — the
    // listener is gone.
    assert!(
        TcpStream::connect(server_addr_after_drop(&text)).is_err()
            || Client::connect(server_addr_after_drop(&text), Some(Duration::from_millis(200)))
                .and_then(|mut c| c.stats())
                .is_err(),
        "server must stop answering after shutdown"
    );
}

#[test]
fn stats_report_per_outcome_latency_histograms() {
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    for id in 0..5 {
        assert!(matches!(client.predict(predict_request(id)), Ok(Response::Predictions { .. })));
    }
    let skx = PredictRequest { platform: Platform::Skx2s, ..predict_request(9) };
    assert!(matches!(
        client.predict(skx),
        Ok(Response::Error { code: ErrorCode::Uncalibrated, .. })
    ));
    let stats = client.stats().expect("stats");
    let count = |outcome: &str| stats.latency(outcome).expect("listed outcome").count();
    assert_eq!(count("ok"), 5, "the stats request itself is not yet filed");
    assert_eq!(count("uncalibrated"), 1);
    assert_eq!(count("model") + count("deadline") + count("bad-request"), 0);
    assert!(stats.latency("overloaded").is_none(), "shed answers are counted in `shed`");
    server.shutdown();
    server.join().expect("join");
}

/// 64 signatures, as in a bulk client's batch.
fn bulk_request(id: u64) -> PredictRequest {
    PredictRequest {
        signatures: (0..64)
            .map(|i| Signature { latency: 200.0 + i as f64, ..signature() })
            .collect(),
        ..predict_request(id)
    }
}

#[test]
fn bulk_round_trips_do_not_stall_on_acks() {
    // Both frames of a 64-signature round trip exceed a BufWriter's 8 KiB.
    // Were the header written apart from the body, each direction would
    // wait out a delayed ACK (~40 ms), >= 1.6 s for 20 round trips.
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    let start = std::time::Instant::now();
    for id in 0..20 {
        assert!(matches!(client.predict(bulk_request(id)), Ok(Response::Predictions { .. })));
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(800), "20 bulk round trips took {elapsed:?}");
    server.shutdown();
    server.join().expect("join");
}

#[test]
fn span_log_does_not_grow_with_requests() {
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    let mut serve = |requests: u64| {
        for id in 0..requests {
            assert!(matches!(
                client.predict(predict_request(id)),
                Ok(Response::Predictions { .. })
            ));
        }
    };
    serve(1_000);
    let after_1k = server.recorder().len();
    serve(9_000);
    assert_eq!(server.recorder().len(), after_1k, "records after 1 000 vs 10 000 requests");
    assert_eq!(server.stats().latency("ok").expect("ok").count(), 10_000);
    server.shutdown();
    server.join().expect("join");
}

/// Recovers the bound address from the manifest meta line.
fn server_addr_after_drop(manifest: &str) -> std::net::SocketAddr {
    let meta = camp_obs::json::parse(manifest.lines().next().expect("meta")).expect("json");
    meta.get("addr")
        .and_then(camp_obs::Json::as_str)
        .expect("addr member")
        .parse()
        .expect("socket addr")
}

/// FNV-1a over the bit patterns of every number the daemon computes for a
/// fixed, seeded batch: each device's prediction components, Best-shot
/// ratio and Best-shot slowdown. The golden value was captured before
/// `best_shot` moved to the per-call curve evaluator; any change to the
/// model arithmetic, however small, changes it.
#[test]
fn answers_for_a_seeded_batch_are_pinned_bit_for_bit() {
    const GOLDEN: u64 = 0xb64c_4575_1341_f801;
    let mut rng = camp_workloads::rng::SplitMix::new(0x5eed_ba7c);
    let mut signatures: Vec<Signature> = (0..256)
        .map(|_| {
            let cycles = 1e4 * 10f64.powf(rng.unit() * 5.0);
            Signature {
                cycles,
                s_llc: cycles * rng.unit() * 0.9,
                s_cache: cycles * rng.unit() * 0.3,
                s_sb: cycles * rng.unit() * 0.2,
                memory_active: cycles * rng.unit(),
                latency: 80.0 + rng.unit() * 900.0,
                mlp: 1.0 + rng.unit() * 30.0,
                r_lfb_hit: rng.unit(),
                r_mem: rng.unit(),
            }
        })
        .collect();
    // Degenerate but finite signatures the daemon accepts (1 cycle is the
    // floor `Signature::check` admits).
    signatures.push(Signature { cycles: 1.0, mlp: 0.0, latency: 0.0, ..signature() });
    signatures.push(Signature {
        s_llc: -1e5,
        r_mem: 0.0,
        r_lfb_hit: 1.0,
        ..signature()
    });
    let server = Server::start(test_config()).expect("start");
    let mut client = connect(&server);
    let request = PredictRequest { signatures, ..predict_request(77) };
    let Response::Predictions { results, .. } = client.predict(request).expect("round trip") else {
        panic!("expected predictions");
    };
    assert_eq!(results.len(), 258);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for prediction in results.iter().flatten() {
        let p = &prediction.prediction;
        for value in [
            p.drd,
            p.cache,
            p.store,
            prediction.best_ratio,
            prediction.best_slowdown,
        ] {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(hash, GOLDEN, "answers changed: got {hash:#018x}");
    server.shutdown();
    server.join().expect("join");
}
