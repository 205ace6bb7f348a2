//! Determinism and single-flight guarantees of the parallel harness:
//! N threads hammering the same and distinct run keys must produce reports
//! identical to serial runs, and each key must be simulated exactly once.

use camp_bench::Context;
use camp_sim::{par, DeviceKind, Machine, Platform, RunReport, Workload};
use camp_workloads::kernels::{Gather, PointerChase, StreamKernel};

fn fleet() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(PointerChase::new("par-chase", 1, 1 << 14, 1, 4_000)) as Box<dyn Workload>,
        Box::new(PointerChase::new("par-chase-4", 1, 1 << 14, 4, 4_000)),
        Box::new(Gather::new("par-gups", 1, 1 << 14, 0, 0, 0, false, 4_000)),
        Box::new(StreamKernel::new("par-stream", 2, 2, 1 << 13, 2, 0, 4_000)),
    ]
}

#[test]
fn parallel_context_matches_serial_and_runs_each_key_once() {
    let workloads = fleet();
    let devices = [None, Some(DeviceKind::CxlA)];

    // Serial ground truth, on a fresh context.
    let serial = Context::new().with_jobs(1);
    let mut expected = Vec::new();
    for device in devices {
        for workload in &workloads {
            expected.push(serial.run(Platform::Spr2s, device, workload));
        }
    }
    let distinct_keys = devices.len() * workloads.len();
    assert_eq!(serial.runs_executed(), distinct_keys);

    // Parallel: 8 threads requesting every key 4 times over, in scrambled
    // order, racing against each other.
    let parallel = Context::new().with_jobs(8);
    let mut requests: Vec<(usize, usize)> = Vec::new();
    for round in 0..4 {
        for (d, _) in devices.iter().enumerate() {
            for (w, _) in workloads.iter().enumerate() {
                requests.push(((d + round) % devices.len(), w));
            }
        }
    }
    let reports = par::par_map(8, &requests, |&(d, w)| {
        parallel.run(Platform::Spr2s, devices[d], &workloads[w])
    });

    // Single-flight: every duplicate request hit the memo cell.
    assert_eq!(parallel.runs_executed(), distinct_keys);

    // Determinism: every parallel report is bit-identical to its serial
    // counterpart.
    for (&(d, w), report) in requests.iter().zip(&reports) {
        let reference = &expected[d * workloads.len() + w];
        assert_eq!(report.cycles, reference.cycles, "cycles for {}", report.workload);
        assert_eq!(report.counters, reference.counters, "counters for {}", report.workload);
        assert_eq!(report.instructions, reference.instructions);
    }
}

#[test]
fn prefetch_then_serial_reads_are_pure_cache_hits() {
    let workloads = fleet();
    let ctx = Context::new().with_jobs(4);
    let runs: Vec<(Platform, Option<DeviceKind>, &dyn Workload)> = workloads
        .iter()
        .map(|w| (Platform::Skx2s, Some(DeviceKind::Numa), w.as_ref() as &dyn Workload))
        .collect();
    ctx.prefetch_runs(&runs);
    assert_eq!(ctx.runs_executed(), workloads.len());
    for workload in &workloads {
        let a = ctx.run(Platform::Skx2s, Some(DeviceKind::Numa), workload);
        let b = ctx.run(Platform::Skx2s, Some(DeviceKind::Numa), workload);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }
    assert_eq!(ctx.runs_executed(), workloads.len(), "no re-simulation after prefetch");
}

#[test]
fn cross_thread_runs_match_dedicated_threads() {
    // The engine reuses thread-local scratch buffers across runs, the
    // cache slot vectors among them. Their geometry changes from run to
    // run with the platform's LLC (SKX2S 14 MB, EMR2S 160 MB, SPR2S
    // 60 MB) and the workload's thread count (each thread's LLC share),
    // so this thread's storage shrinks and regrows while holding stale
    // dirty lines. A run on this "dirty" thread must equal the same run
    // on a fresh thread.
    let mut workloads = fleet();
    workloads.push(Box::new(Gather::new("par-rmw-8t", 8, 1 << 18, 0, 50, 0, false, 8_000)));
    let machines = [Platform::Skx2s, Platform::Emr2s, Platform::Spr2s]
        .map(|platform| Machine::slow_only(platform, DeviceKind::CxlB));
    // Alternate platforms run to run, and thread counts group to group.
    let cases: Vec<(&Machine, &dyn Workload)> = workloads
        .iter()
        .flat_map(|w| machines.iter().map(move |m| (m, w.as_ref() as &dyn Workload)))
        .collect();
    let warmed: Vec<_> = cases.iter().map(|(m, w)| m.run(*w)).collect();
    let rerun: Vec<_> = cases.iter().map(|(m, w)| m.run(*w)).collect();
    let case = |report: &RunReport| format!("{} on {:?}", report.workload, report.platform);
    for (a, b) in warmed.iter().zip(&rerun) {
        assert_eq!(a.cycles, b.cycles, "{}", case(a));
        assert_eq!(a.counters, b.counters, "{}", case(a));
    }
    // And against results computed on brand-new threads.
    for ((machine, workload), reference) in cases.iter().zip(&warmed) {
        let fresh = std::thread::scope(|scope| {
            scope.spawn(|| machine.run(*workload)).join().expect("no panic")
        });
        assert_eq!(fresh.cycles, reference.cycles, "{}", case(reference));
        assert_eq!(fresh.counters, reference.counters, "{}", case(reference));
    }
}
