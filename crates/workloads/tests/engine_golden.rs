//! Golden engine output: absolute `RunReport`s pinned across commits.
//!
//! `trace_equiv.rs` compares two ingestion paths within one build and the
//! benchmark's digest compares passes within one run; neither catches an
//! engine edit that changes every path's output alike. This test does: it
//! hashes the full `Debug` rendering of each report (counters, cycles,
//! device statistics, epochs) and compares the digest with the value
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
    ("Skx2s", "dram", "mlc.chase-32m-c4", 0xd4cecd8eea57241c),
    ("Skx2s", "dram", "mlc.gups-64m-d0-w50", 0xaf99b4991943429b),
    ("Skx2s", "dram", "mlc.stream-8t-c0", 0xdd0fcafff63c5d91),
    ("Skx2s", "cxl-a", "mlc.chase-32m-c4", 0xee6a08f2af5c2717),
    ("Skx2s", "cxl-a", "mlc.gups-64m-d0-w50", 0xfa841e7df5008213),
    ("Skx2s", "cxl-a", "mlc.stream-8t-c0", 0xec72765cd3530194),
    ("Skx2s", "interleaved-0.5", "mlc.chase-32m-c4", 0x1a762a6c4031bfc1),
    ("Skx2s", "interleaved-0.5", "mlc.gups-64m-d0-w50", 0xb312cf02372eb298),
    ("Skx2s", "interleaved-0.5", "mlc.stream-8t-c0", 0xb3fb280260d808b1),
    ("Skx2s", "interleaved-0.5-epochs", "mlc.chase-32m-c4", 0x731f786ad3c52631),
    ("Spr2s", "dram", "mlc.chase-32m-c4", 0x7a2ee28ba50c7fd2),
    ("Spr2s", "dram", "mlc.gups-64m-d0-w50", 0x91152dfd0696cd12),
    ("Spr2s", "dram", "mlc.stream-8t-c0", 0x12298732c9bb287d),
    ("Spr2s", "cxl-a", "mlc.chase-32m-c4", 0x36cb87ed2a922100),
    ("Spr2s", "cxl-a", "mlc.gups-64m-d0-w50", 0xfc4ba7faa9c17988),
    ("Spr2s", "cxl-a", "mlc.stream-8t-c0", 0x6b9d74afb447b234),
    ("Spr2s", "interleaved-0.5", "mlc.chase-32m-c4", 0xdec3f850595cd25b),
    ("Spr2s", "interleaved-0.5", "mlc.gups-64m-d0-w50", 0x659b2983229a3aa3),
    ("Spr2s", "interleaved-0.5", "mlc.stream-8t-c0", 0xdb4b04d721af5086),
    ("Spr2s", "interleaved-0.5-epochs", "mlc.chase-32m-c4", 0x294325fb4fa4b372),
    ("Emr2s", "dram", "mlc.chase-32m-c4", 0xdc9a8a6a9be8e368),
    ("Emr2s", "dram", "mlc.gups-64m-d0-w50", 0x2e64e4b4c15ec103),
    ("Emr2s", "dram", "mlc.stream-8t-c0", 0xbfe8b78ff7ad2345),
    ("Emr2s", "cxl-a", "mlc.chase-32m-c4", 0xaa636ecc9ea12ea2),
    ("Emr2s", "cxl-a", "mlc.gups-64m-d0-w50", 0x6196893094d8221d),
    ("Emr2s", "cxl-a", "mlc.stream-8t-c0", 0x603299b447829e6a),
    ("Emr2s", "interleaved-0.5", "mlc.chase-32m-c4", 0x509b5a853d01733f),
    ("Emr2s", "interleaved-0.5", "mlc.gups-64m-d0-w50", 0x20d304baaca7f650),
    ("Emr2s", "interleaved-0.5", "mlc.stream-8t-c0", 0x442ca32bebac7f03),
    ("Emr2s", "interleaved-0.5-epochs", "mlc.chase-32m-c4", 0x4191ace5a44dd622),
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
        // Sampling reads the in-flight buffers and the MLP sweep without
        // moving them; pin what it sees too.
        (
            "interleaved-0.5-epochs",
            Machine::interleaved(platform, DeviceKind::CxlA, 0.5).with_epochs(200_000),
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
            // The sampled variant only on one workload: it pins the
            // observer, not another full matrix.
            let sampled = label.ends_with("epochs");
            let count = if sampled { 1 } else { workloads.len() };
            for (workload, trace) in workloads.iter().zip(&traces).take(count) {
                let report = machine.run_trace(workload, trace);
                if sampled {
                    // Sampling only records: the report minus its epochs
                    // is the unsampled run's.
                    let plain = machines(platform)[2].1.run_trace(workload, trace);
                    let unsampled = RunReport { epochs: Vec::new(), ..report.clone() };
                    assert_eq!(format!("{unsampled:?}"), format!("{plain:?}"), "{platform:?}");
                }
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
