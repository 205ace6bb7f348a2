//! Benches for the simulation substrate, layer by layer: engine op
//! throughput across workload shapes and machine configurations (on
//! traces built before timing starts, so the rows time simulation
//! alone), graph construction, the parallel-harness suite throughput, and
//! the op-trace layer (generation cold vs cached-hit; these quantify the
//! cost of regenerating the paper's experiments — every figure is some
//! number of these runs).
//!
//! Run with `cargo bench --bench simulator`; append `-- --json PATH` to
//! archive a machine-readable snapshot (see `BENCH_engine.json`), or
//! `-- --smoke` for a seconds-long CI-sized pass over the same code
//! paths (tiny op counts — the numbers are not comparable to a full run).

#[path = "tb.rs"]
mod tb;

use camp_sim::{par, DeviceKind, Machine, OpTrace, Platform, TraceCache, Workload};
use camp_workloads::kernels::{
    Gather, GraphAlgo, GraphKernel, GraphShape, PointerChase, StoreKernel, StorePattern,
    StreamKernel,
};

/// Bench sizing: full by default, tiny under `--smoke` (CI exercises the
/// same code paths without the minutes-long measurement budget).
struct Config {
    ops: u64,
    samples: u32,
    graph_scale: u32,
}

impl Config {
    fn from_args() -> Self {
        if std::env::args().any(|a| a == "--smoke") {
            Config { ops: 2_000, samples: 2, graph_scale: 10 }
        } else {
            Config { ops: 50_000, samples: 10, graph_scale: 0 }
        }
    }
}

fn workloads(cfg: &Config) -> Vec<(&'static str, Box<dyn Workload>)> {
    let ops = cfg.ops;
    vec![
        (
            "chase",
            Box::new(PointerChase::new("bench-chase", 1, 1 << 18, 1, ops)) as Box<dyn Workload>,
        ),
        ("gups", Box::new(Gather::new("bench-gups", 1, 1 << 18, 0, 0, 0, false, ops))),
        ("stream", Box::new(StreamKernel::new("bench-stream", 8, 2, 1 << 16, 2, 0, ops))),
        (
            "memset",
            Box::new(StoreKernel::new("bench-memset", 1, 4 << 20, StorePattern::Memset, ops)),
        ),
    ]
}

/// A fixed kernel mix standing in for a suite shard: one instance of each
/// shape per slot, distinct names so nothing hits a cache.
fn suite_mix(cfg: &Config, slots: usize) -> Vec<Box<dyn Workload>> {
    let ops = cfg.ops;
    (0..slots)
        .flat_map(|i| {
            let tag = |base: &str| format!("{base}-{i}");
            vec![
                Box::new(PointerChase::new(tag("mix-chase"), 1, 1 << 16, 2, ops / 4))
                    as Box<dyn Workload>,
                Box::new(Gather::new(tag("mix-gups"), 1, 1 << 16, 0, 10, 0, false, ops / 4)),
                Box::new(StreamKernel::new(tag("mix-stream"), 4, 2, 1 << 15, 2, 0, ops / 4)),
                Box::new(StoreKernel::new(
                    tag("mix-memset"),
                    1,
                    1 << 20,
                    StorePattern::Memset,
                    ops / 4,
                )),
            ]
        })
        .collect()
}

/// Simulation alone: each workload's trace is built once, outside the
/// timed closure, and every row counts the trace's ops.
fn engine_throughput(harness: &mut tb::Harness, cfg: &Config, label: &str, machine: &Machine) {
    for (name, workload) in workloads(cfg) {
        let trace = OpTrace::from_workload(workload.as_ref());
        harness.bench_throughput(
            &format!("engine-{label}/{name}"),
            trace.len() as u64,
            cfg.samples,
            1,
            || machine.run_trace(workload.as_ref(), &trace),
        );
    }
}

/// Graph construction alone: the suite's Kronecker and Twitter-like
/// shapes (scale 16, degree 16) with a one-op traversal budget, so the
/// CSR build is all that is timed.
fn graph_build(harness: &mut tb::Harness, cfg: &Config) {
    let scale = if cfg.graph_scale > 0 { cfg.graph_scale } else { 16 };
    for (name, shape) in [
        ("kron", GraphShape::Kron { scale, degree: 16 }),
        ("twitter", GraphShape::TwitterLike { scale, degree: 16 }),
    ] {
        let workload = GraphKernel::new(format!("bench-{name}"), 1, shape, GraphAlgo::Pr, 1);
        harness.bench(&format!("graph-build/{name}"), cfg.samples, 1, || workload.ops().count());
    }
}

/// Suite throughput serial vs fanned out — the headline number for the
/// parallel harness (`repro --jobs`) — plus the same sweep through a
/// shared trace cache, which amortises op generation when each workload
/// runs on more than one machine configuration (the common shape for
/// every prediction experiment: DRAM baseline + slow/tiered run).
fn suite_throughput(harness: &mut tb::Harness, cfg: &Config) {
    let mix = suite_mix(cfg, 4);
    let samples = cfg.samples.min(5);
    let total_ops: u64 = mix.len() as u64 * cfg.ops / 4 * 2; // stream/memset emit ~2 ops per element
    let machine = Machine::dram_only(Platform::Spr2s);
    harness.bench_throughput("suite-mix/serial", total_ops, samples, 1, || {
        for workload in &mix {
            machine.run(workload.as_ref());
        }
    });
    let jobs = par::default_jobs();
    harness.bench_throughput(&format!("suite-mix/jobs-{jobs}"), total_ops, samples, 1, || {
        par::par_map(jobs, &mix, |workload| machine.run(workload.as_ref()));
    });
    // Two machine configurations per workload: without the cache every
    // run regenerates ops; with it generation happens once per workload.
    let tiered = Machine::interleaved(Platform::Spr2s, DeviceKind::CxlA, 0.7);
    harness.bench_throughput("suite-mix-2cfg/generator", 2 * total_ops, samples, 1, || {
        for workload in &mix {
            machine.run(workload.as_ref());
            tiered.run(workload.as_ref());
        }
    });
    harness.bench_throughput("suite-mix-2cfg/trace-cache", 2 * total_ops, samples, 1, || {
        let cache = TraceCache::new();
        for workload in &mix {
            let traced = cache.wrap(workload.as_ref());
            machine.run(&traced);
            tiered.run(&traced);
        }
    });
}

fn suite_generation(harness: &mut tb::Harness, cfg: &Config) {
    harness.bench("suite-construction", cfg.samples, 1, || {
        let suite = camp_workloads::suite();
        assert_eq!(suite.len(), 265);
        suite
    });
    // Full runs measure the real suite's heaviest generator; smoke swaps
    // in a scaled-down Kron graph so CI stays fast.
    let workload: Box<dyn Workload> = if cfg.graph_scale > 0 {
        Box::new(GraphKernel::new(
            "bench-pr-kron-smoke",
            1,
            GraphShape::Kron { scale: cfg.graph_scale, degree: 8 },
            GraphAlgo::Pr,
            cfg.ops,
        ))
    } else {
        camp_workloads::find("gap.pr-kron").expect("in suite")
    };
    harness.bench("graph-op-generation", cfg.samples, 1, || workload.ops().count());
    trace_generation(harness, cfg, workload.as_ref());
}

/// The trace layer itself: packing a workload's op stream cold (generate
/// and encode every iteration) vs a cached hit through [`TraceCache`] — a
/// hash plus an Arc clone, the cost every consumer after the first pays.
fn trace_generation(harness: &mut tb::Harness, cfg: &Config, workload: &dyn Workload) {
    let elements = OpTrace::from_workload(workload).len() as u64;
    harness.bench_throughput("trace-generation/cold", elements, cfg.samples, 1, || {
        OpTrace::from_workload(workload)
    });
    let cache = TraceCache::new();
    cache.trace(workload); // prime: later iterations are pure hits
    harness.bench_throughput("trace-generation/cached", elements, cfg.samples, 1, || {
        cache.trace(workload)
    });
    assert_eq!(cache.generated(), 1, "cached bench must never regenerate");
}

fn main() {
    let cfg = Config::from_args();
    let mut harness = tb::Harness::new();
    engine_throughput(&mut harness, &cfg, "dram", &Machine::dram_only(Platform::Spr2s));
    engine_throughput(
        &mut harness,
        &cfg,
        "interleaved",
        &Machine::interleaved(Platform::Spr2s, DeviceKind::CxlA, 0.7),
    );
    graph_build(&mut harness, &cfg);
    suite_throughput(&mut harness, &cfg);
    suite_generation(&mut harness, &cfg);
    harness.maybe_write_json().expect("snapshot written");
}
