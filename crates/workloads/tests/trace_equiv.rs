//! Trace-path equivalence: for every kernel family, the packed
//! [`OpTrace`](camp_sim::OpTrace) must decode element-for-element equal to
//! the generator stream, and engine reports from either path must match
//! exactly — the determinism contract the trace cache rests on.

use camp_sim::{Machine, Op, OpTrace, Platform, TraceCache, Traced, Workload};
use camp_workloads::kernels::mix::MixWeights;
use camp_workloads::kernels::{
    BurstKernel, Gather, GraphAlgo, GraphKernel, GraphShape, HashProbe, MixKernel, PointerChase,
    StoreKernel, StorePattern, StreamKernel, StridedRead,
};
use std::sync::Arc;

/// One representative of every kernel family (all op shapes: independent
/// loads, chases, stores, compute stretches).
fn families() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(PointerChase::new("eq-chase", 1, 1 << 12, 4, 20_000)),
        Box::new(Gather::new("eq-gather", 2, 1 << 12, 0, 10, 2, true, 20_000)),
        Box::new(StreamKernel::new("eq-stream", 4, 3, 1 << 12, 2, 8, 20_000)),
        Box::new(StoreKernel::new("eq-stores", 1, 1 << 20, StorePattern::Memset, 20_000)),
        Box::new(StridedRead::new("eq-strided", 1, 1 << 12, 7, 1, 20_000)),
        Box::new(BurstKernel::new("eq-burst", 1, 64, 128, 1 << 12, 50, true)),
        Box::new(camp_workloads::kernels::tree::TreeLookup::new(
            "eq-tree",
            1,
            12,
            1 << 10,
            4,
            2,
            20_000,
        )),
        Box::new(HashProbe::new("eq-hash", 1, 1 << 12, 3, 20, true, 1, 20_000)),
        Box::new(MixKernel::new(
            "eq-mix",
            2,
            1 << 12,
            MixWeights { seq: 40, random: 30, chase: 20 },
            2,
            20_000,
        )),
        Box::new(GraphKernel::new(
            "eq-graph-pr",
            1,
            GraphShape::Kron { scale: 10, degree: 8 },
            GraphAlgo::Pr,
            20_000,
        )),
        Box::new(GraphKernel::new(
            "eq-graph-bfs",
            1,
            GraphShape::Urand { scale: 10, degree: 4 },
            GraphAlgo::Bfs,
            20_000,
        )),
        Box::new(GraphKernel::new(
            "eq-graph-tc",
            1,
            GraphShape::Road { side: 32 },
            GraphAlgo::Tc,
            20_000,
        )),
    ]
}

#[test]
fn every_kernel_family_round_trips_through_the_trace() {
    for workload in families() {
        let from_ops: Vec<Op> = workload.ops().collect();
        let trace = workload.trace();
        let from_trace: Vec<Op> = trace.iter().collect();
        assert_eq!(
            from_ops,
            from_trace,
            "{}: trace must decode element-for-element equal to ops()",
            workload.name()
        );
        assert_eq!(trace.len(), from_ops.len());
    }
}

#[test]
fn cached_trace_reports_match_generator_reports_exactly() {
    let cache = TraceCache::new();
    let machine = Machine::dram_only(Platform::Spr2s);
    for workload in families().into_iter().take(4) {
        let via_ops =
            machine.run_trace(workload.as_ref(), &OpTrace::from_workload(workload.as_ref()));
        let via_cache = machine.run(&cache.wrap(workload.as_ref()));
        assert_eq!(via_ops.cycles, via_cache.cycles, "{}", workload.name());
        assert_eq!(via_ops.counters, via_cache.counters, "{}", workload.name());
    }
}

#[test]
fn trace_cache_generates_each_workload_exactly_once_across_threads() {
    let cache = Arc::new(TraceCache::new());
    let workloads: Arc<Vec<Box<dyn Workload>>> = Arc::new(families());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let workloads = Arc::clone(&workloads);
            scope.spawn(move || {
                for workload in workloads.iter() {
                    let trace = cache.trace(workload.as_ref());
                    assert!(!trace.is_empty());
                }
            });
        }
    });
    let n = workloads.len();
    assert_eq!(cache.generated(), n, "each workload generated exactly once");
    assert_eq!(cache.requests(), 4 * n);
    assert_eq!(cache.hits(), 3 * n);
}

/// Ops of each long-dependence workload written to a file, read back and
/// replayed: the prefix holds loads whose `dep` exceeds a chase tag's 64.
const LONG_DEP_PREFIX_OPS: usize = 50_000;

#[test]
fn long_dependence_workloads_replay_from_a_file_exactly() {
    let machine = Machine::dram_only(Platform::Spr2s);
    for name in ["spec.502.gcc-4t", "voltdb.read-heavy-sm"] {
        let workload = camp_workloads::find(name).expect("in suite");
        let ops: Vec<Op> = workload.ops().take(LONG_DEP_PREFIX_OPS).collect();
        let deepest = ops.iter().filter_map(|op| match *op {
            Op::Load { dep, .. } => Some(dep),
            _ => None,
        });
        assert!(deepest.max().expect("loads") > 64, "{name}: prefix needs a dep over 64");
        let generated = Traced {
            name: name.into(),
            threads: workload.threads(),
            footprint_bytes: workload.footprint_bytes(),
            trace: Arc::new(OpTrace::from_ops(ops.iter().copied())),
        };
        let mut file = Vec::new();
        generated.write_to(&mut file).expect("every op is encodable");
        let replayed = Traced::read_from(file.as_slice(), name).expect("parse");
        assert_eq!(replayed.ops().collect::<Vec<_>>(), ops, "{name}");
        let (a, b) = (machine.run(&generated), machine.run(&replayed));
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "{name}");
        assert_eq!(a.counters, b.counters, "{name}");
    }
}
