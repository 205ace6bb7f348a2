//! Golden graph traces and the exactness of the integer R-MAT cut.
//!
//! Kronecker and Twitter-like graphs pick one of four adjacency quadrants
//! per vertex bit by comparing a 53-bit draw with integer cuts instead of
//! `SplitMix::unit() < p`. The first test pins FNV digests of whole packed
//! traces, recorded while the generator still drew floats, so any change
//! to the edges a generator emits shows up here; the second checks that
//! the two comparisons agree on random and boundary draws.

use camp_sim::TraceCache;
use camp_workloads::rng::{unit_cut, SplitMix};

/// `(workload, digest of its trace file bytes)`: small Kron and Twitter
/// shapes under two traversals, and the largest Kron graph.
const GOLDEN: &[(&str, u64)] = &[
    ("gap.pr-kron", 0x816eec859a7934b1),
    ("gap.cc-twitter", 0xff510ca481df02fd),
    ("gap.bfs-kron", 0x1dbe7cc60c06011d),
    ("gap.pr-kron-lg", 0x563d5e310d20bf3c),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn graph_traces_match_their_golden_digests() {
    let cache = TraceCache::new();
    let mut mismatches = Vec::new();
    for &(name, expected) in GOLDEN {
        let workload = camp_workloads::find(name).expect("in suite");
        let mut bytes = Vec::new();
        cache.wrap(workload.as_ref()).write_to(&mut bytes).expect("encodable trace");
        let actual = fnv1a(&bytes);
        if actual != expected {
            mismatches.push(format!("(\"{name}\", {actual:#018x}),"));
        }
    }
    assert!(mismatches.is_empty(), "trace digests changed:\n{}", mismatches.join("\n"));
}

/// R-MAT `(a, b, c)` of the Kronecker and Twitter-like shapes.
const QUADRANTS: [(f64, f64, f64); 2] = [(0.57, 0.19, 0.19), (0.70, 0.15, 0.10)];

/// `unit()`'s value for the 53-bit draw `k`.
fn unit_of(k: u64) -> f64 {
    k as f64 / (1u64 << 53) as f64
}

#[test]
fn integer_cut_agrees_with_the_float_draw() {
    let mut probabilities: Vec<f64> =
        QUADRANTS.iter().flat_map(|&(a, b, c)| [a, a + b, a + b + c]).collect();
    let mut picker = SplitMix::new(0x5eed);
    // `unit()` values are multiples of 2^-53, whose cuts are exact;
    // products of two are finer, so their cuts round up.
    probabilities.extend((0..1_000).map(|_| picker.unit()));
    probabilities.extend((0..1_000).map(|_| picker.unit() * picker.unit()));
    probabilities.extend([0.0, f64::EPSILON, 0.5, 1.0 - f64::EPSILON / 2.0]);
    let mut draws = SplitMix::new(7);
    for &p in &probabilities {
        let cut = unit_cut(p);
        for k in [cut.wrapping_sub(1), cut, cut + 1] {
            if k < 1 << 53 {
                assert_eq!(k < cut, unit_of(k) < p, "p = {p:e}, k = {k}");
            }
        }
        for _ in 0..200 {
            let mut twin = draws.clone();
            let k = draws.unit_bits();
            assert_eq!(k < cut, twin.unit() < p, "p = {p:e}, k = {k}");
        }
    }
}
