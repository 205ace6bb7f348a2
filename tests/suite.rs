//! Cross-crate suite invariants: the 265 workloads are well-formed and
//! deterministic on the simulator. (Their spread of slowdowns is gated in
//! camp-bench's `paper` tests, on runs shared with the prediction sample.)

use camp::pmu::Event;
use camp::sim::{DeviceKind, Machine, Platform, Workload};
use std::collections::HashSet;

#[test]
fn suite_matches_the_papers_workload_count() {
    assert_eq!(camp::workloads::suite().len(), 265);
}

#[test]
fn suite_names_are_unique() {
    let mut names = HashSet::new();
    for workload in camp::workloads::suite() {
        assert!(names.insert(workload.name().to_string()), "dup {}", workload.name());
    }
}

#[test]
fn runs_are_deterministic_across_machine_instances() {
    let workload = camp::workloads::find("spec.520.omnetpp-1t").expect("in suite");
    let a = Machine::dram_only(Platform::Spr2s).run(&workload);
    let b = Machine::dram_only(Platform::Spr2s).run(&workload);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn component_decomposition_is_additive() {
    // Figure 2: S ≈ S_DRd + S_Cache + S_Store. Verify the attribution's
    // component sum tracks total measured slowdown on a mixed sample.
    let dram = Machine::dram_only(Platform::Spr2s);
    let slow = Machine::slow_only(Platform::Spr2s, DeviceKind::CxlA);
    for name in [
        "mlc.chase-128m-c1",
        "mlc.memset-16m",
        "mlc.strided-s4-c0",
        "spec.505.mcf-1t",
        "redis.mixed-sm",
    ] {
        let workload = camp::workloads::find(name).expect("in suite");
        let d = dram.run(&workload);
        let s = slow.run(&workload);
        let measured = camp::model::MeasuredComponents::attribute(&d, &s);
        let gap = (measured.component_sum() - measured.total).abs();
        assert!(
            gap < 0.15 + 0.15 * measured.total.abs(),
            "{name}: components {:.3} vs total {:.3}",
            measured.component_sum(),
            measured.total
        );
    }
}

#[test]
fn counters_respect_structural_identities() {
    // LFB hits and L1 misses partition L1-missing loads; stalls nest.
    let workload = camp::workloads::find("gap.pr-kron").expect("in suite");
    let report = Machine::dram_only(Platform::Spr2s).run(&workload);
    let c = &report.counters;
    assert!(c[Event::StallsL1dMiss] >= c[Event::StallsL2Miss]);
    assert!(c[Event::StallsL2Miss] >= c[Event::StallsL3Miss]);
    assert!(c[Event::DemandLoads] >= c[Event::L1dHit] + c[Event::L1Miss] + c[Event::LfbHit]);
    assert!(c[Event::OroDemandRd] >= c[Event::OroCycWDemandRd]);
    assert!(c[Event::PfL1dAnyResponse] >= c[Event::PfL1dL3Hit]);
    assert!(
        c[Event::LlcLookupAll] >= c[Event::LlcLookupPfRd],
        "prefetch lookups exceed total lookups"
    );
}

#[test]
fn epoch_sampling_conserves_whole_run_counters() {
    let workload = camp::workloads::find("db.hash_join-sm").expect("in suite");
    let report = Machine::dram_only(Platform::Spr2s).with_epochs(100_000).run(&workload);
    assert!(report.epochs.len() > 1, "expected several epochs");
    for event in [Event::Instructions, Event::OrDemandRd, Event::Stores] {
        let total: u64 = report.epochs.iter().map(|e| e.counters[event]).sum();
        assert_eq!(total, report.counters[event], "{event} not conserved");
    }
}

#[test]
fn calibration_suite_is_disjoint_from_the_evaluation_suite() {
    let eval: HashSet<String> =
        camp::workloads::suite().iter().map(|w| w.name().to_string()).collect();
    for probe in camp::workloads::calibration_suite() {
        assert!(
            !eval.contains(probe.name()),
            "calibration probe {} leaks into the evaluation suite",
            probe.name()
        );
    }
}
