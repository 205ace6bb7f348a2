//! Golden engine output: absolute `RunReport`s pinned across commits.
//!
//! `trace_equiv.rs` compares two ingestion paths within one build and the
//! benchmark's digest compares passes within one run; neither catches an
//! engine edit that changes every path's output alike. This test does: it
//! hashes the full `Debug` rendering of each report (counters, cycles,
//! device statistics, epochs, tape) and compares the digest with the value
//! recorded when the engine's output was last deliberately changed. A
//! speed-only engine change must leave every digest as is; a model change
//! re-pins them in the same commit that explains why.
//!
//! The platforms cover a non-power-of-two LLC set count (SKX2S), 15-way
//! sets (SPR2S) and a 160 MB LLC (EMR2S).

use camp_sim::{DeviceKind, Machine, OpTrace, Platform, RunReport, Workload};

/// Cheap suite workloads spanning the op shapes: a dependent chase with
/// LLC evictions, random updates (stores, RFOs, dirty writebacks) and a
/// multi-threaded prefetch-covered stream (LLC sharers).
const WORKLOADS: [&str; 3] = [
    "mlc.chase-32m-c4",
    "mlc.gups-64m-d0-w50",
    "mlc.stream-8t-c0",
];

/// Each workload runs the first this-many ops of its trace: all of the
/// chase and the updates, a seventh of the stream.
const PREFIX_OPS: usize = 300_000;

/// `(platform, machine label, workload, digest)`, in generation order.
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("Skx2s", "dram", "mlc.chase-32m-c4", 0x2a16544020482b44),
    ("Skx2s", "dram", "mlc.gups-64m-d0-w50", 0x677e1175db528827),
    ("Skx2s", "dram", "mlc.stream-8t-c0", 0x777335db313c9b95),
    ("Skx2s", "cxl-a", "mlc.chase-32m-c4", 0x349c86b77c992c4b),
    ("Skx2s", "cxl-a", "mlc.gups-64m-d0-w50", 0x2843b6e09658c0af),
    ("Skx2s", "cxl-a", "mlc.stream-8t-c0", 0xcfabce78a498d44c),
    ("Skx2s", "interleaved-0.5", "mlc.chase-32m-c4", 0xd6abe5dc857ce625),
    ("Skx2s", "interleaved-0.5", "mlc.gups-64m-d0-w50", 0x315550915be63398),
    ("Skx2s", "interleaved-0.5", "mlc.stream-8t-c0", 0x885c06ddcc53e975),
    ("Skx2s", "interleaved-0.5-tape", "mlc.chase-32m-c4", 0xf8554ee1bd440afc),
    ("Spr2s", "dram", "mlc.chase-32m-c4", 0xb0555509f203ac4a),
    ("Spr2s", "dram", "mlc.gups-64m-d0-w50", 0x5b5ebcafd53b178a),
    ("Spr2s", "dram", "mlc.stream-8t-c0", 0x13b9c7d73bb625e9),
    ("Spr2s", "cxl-a", "mlc.chase-32m-c4", 0x84a195c887e71db0),
    ("Spr2s", "cxl-a", "mlc.gups-64m-d0-w50", 0xb77a6b7875476a68),
    ("Spr2s", "cxl-a", "mlc.stream-8t-c0", 0x15d405dca92337ac),
    ("Spr2s", "interleaved-0.5", "mlc.chase-32m-c4", 0x3ca6990cb3eacfe7),
    ("Spr2s", "interleaved-0.5", "mlc.gups-64m-d0-w50", 0xf9e2c5296d2b1e9f),
    ("Spr2s", "interleaved-0.5", "mlc.stream-8t-c0", 0x19cbb952f935a646),
    ("Spr2s", "interleaved-0.5-tape", "mlc.chase-32m-c4", 0xa94f17cf4cd60f57),
    ("Emr2s", "dram", "mlc.chase-32m-c4", 0xa716ccccf1f39f08),
    ("Emr2s", "dram", "mlc.gups-64m-d0-w50", 0x65ed559af821b63f),
    ("Emr2s", "dram", "mlc.stream-8t-c0", 0x14e9c8a4e17b8be1),
    ("Emr2s", "cxl-a", "mlc.chase-32m-c4", 0xe96e575b7b3f943a),
    ("Emr2s", "cxl-a", "mlc.gups-64m-d0-w50", 0xf24ffb4e763990c9),
    ("Emr2s", "cxl-a", "mlc.stream-8t-c0", 0xe8022b9d21fef532),
    ("Emr2s", "interleaved-0.5", "mlc.chase-32m-c4", 0xeeb6b8a960d83443),
    ("Emr2s", "interleaved-0.5", "mlc.gups-64m-d0-w50", 0x84eeeaa05242eee0),
    ("Emr2s", "interleaved-0.5", "mlc.stream-8t-c0", 0x4246369b1d72143f),
    ("Emr2s", "interleaved-0.5-tape", "mlc.chase-32m-c4", 0x17b0b1f1b350f48d),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(report: &RunReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

fn machines(platform: Platform) -> [(&'static str, Machine); 4] {
    [
        ("dram", Machine::dram_only(platform)),
        ("cxl-a", Machine::slow_only(platform, DeviceKind::CxlA)),
        ("interleaved-0.5", Machine::interleaved(platform, DeviceKind::CxlA, 0.5)),
        // The observers read the in-flight buffers without releasing
        // entries; pin what they see too.
        (
            "interleaved-0.5-tape",
            Machine::interleaved(platform, DeviceKind::CxlA, 0.5)
                .with_epochs(200_000)
                .with_tape(200_000),
        ),
    ]
}

#[test]
fn engine_reports_match_their_pinned_digests() {
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|name| camp_workloads::find(name).unwrap_or_else(|| panic!("{name} not in suite")))
        .collect();
    let traces: Vec<_> =
        workloads.iter().map(|w| OpTrace::from_ops(w.ops().take(PREFIX_OPS))).collect();
    let mut actual = Vec::new();
    for platform in [Platform::Skx2s, Platform::Spr2s, Platform::Emr2s] {
        for (label, machine) in machines(platform) {
            // The tape variant only on one workload: it pins the observers,
            // not another full matrix.
            let count = if label.ends_with("tape") { 1 } else { workloads.len() };
            for (workload, trace) in workloads.iter().zip(&traces).take(count) {
                let report = machine.run_trace(workload, trace);
                actual.push((
                    format!("{platform:?}"),
                    label,
                    workload.name().to_string(),
                    digest(&report),
                ));
            }
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(p, m, w, d)| format!("    (\"{p}\", \"{m}\", \"{w}\", {d:#018x}),"))
        .collect();
    let expected: Vec<String> = GOLDEN
        .iter()
        .map(|(p, m, w, d)| format!("    (\"{p}\", \"{m}\", \"{w}\", {d:#018x}),"))
        .collect();
    assert!(
        rendered == expected,
        "engine output changed; if deliberate, re-pin GOLDEN with:\n{}",
        rendered.join("\n")
    );
}
