//! End-to-end policy gates (the §6 claims): Best-shot never loses to the
//! baselines by more than noise, and CAMP-guided colocation beats
//! MPKI-guided placement on conflicting pairs.

use camp::model::colocation::{place_and_run, ColocationPolicy};
use camp::model::{Calibration, CampPredictor};
use camp::policies::{
    baseline_policies, evaluate_policy, BestShotPolicy, PolicyContext, TieringPolicy,
};
use camp::sim::{DeviceKind, Platform};
use std::sync::OnceLock;

const PLATFORM: Platform = Platform::Skx2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;

/// One SKX2S/CXL-A fit shared by every test in this binary.
fn predictor() -> &'static CampPredictor {
    static CELL: OnceLock<CampPredictor> = OnceLock::new();
    CELL.get_or_init(|| CampPredictor::new(Calibration::fit(PLATFORM, DEVICE)))
}

#[test]
fn best_shot_tops_the_policy_comparison_on_bwaves() {
    let ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(predictor());
    let workload = camp::workloads::find("spec.603.bwaves-8t").expect("in suite");
    let best_shot = BestShotPolicy::new();
    let bs = evaluate_policy(&ctx, &best_shot, &workload);
    assert!(
        bs.normalized_performance > 1.0,
        "Best-shot should beat DRAM-only on a bandwidth-bound stream: {bs:?}"
    );
    for policy in baseline_policies() {
        let result = evaluate_policy(&ctx, policy.as_ref(), &workload);
        assert!(
            bs.normalized_performance >= result.normalized_performance - 0.02,
            "{} ({:.3}) beat Best-shot ({:.3}) beyond tolerance",
            result.policy,
            result.normalized_performance,
            bs.normalized_performance
        );
    }
}

#[test]
fn best_shot_clearly_beats_static_policies_on_llama() {
    let ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(predictor());
    let workload = camp::workloads::find("ai.llama-7b-prefill").expect("in suite");
    let bs = evaluate_policy(&ctx, &BestShotPolicy::new(), &workload);
    for policy in [
        Box::new(camp::policies::FirstTouch) as Box<dyn TieringPolicy>,
        Box::new(camp::policies::Soar),
    ] {
        let result = evaluate_policy(&ctx, policy.as_ref(), &workload);
        let gain = bs.normalized_performance / result.normalized_performance - 1.0;
        assert!(
            gain > 0.05,
            "expected >5% gain over {}, got {:.1}%",
            result.policy,
            gain * 100.0
        );
    }
}

#[test]
fn camp_colocation_beats_mpki_on_a_conflicting_pair() {
    let platform = Platform::Spr2s;
    let predictor = CampPredictor::new(Calibration::fit(platform, DEVICE));
    // blackscholes: hot (high MPKI) but prefetch-covered and tolerant;
    // gpt2-prefill: cold (near-zero MPKI) but highly CXL-sensitive.
    let tolerant = camp::workloads::find("parsec.blackscholes-1t").expect("in suite");
    let sensitive = camp::workloads::find("ai.gpt2-prefill").expect("in suite");
    let dram = camp::sim::Machine::dram_only(platform);
    let rt = dram.run(&tolerant);
    let rs = dram.run(&sensitive);
    let mpki_tolerant = camp::pmu::derived::mpki(&rt.counters).unwrap();
    let mpki_sensitive = camp::pmu::derived::mpki(&rs.counters).unwrap();
    assert!(
        mpki_tolerant > mpki_sensitive + 5.0,
        "pair no longer conflicts on MPKI: {mpki_tolerant} vs {mpki_sensitive}"
    );

    let camp_outcome =
        place_and_run(platform, DEVICE, &tolerant, &sensitive, ColocationPolicy::Camp, &predictor);
    let mpki_outcome =
        place_and_run(platform, DEVICE, &tolerant, &sensitive, ColocationPolicy::Mpki, &predictor);
    // MPKI protects the hot-but-tolerant workload and exiles the
    // sensitive one; CAMP does the opposite and wins clearly.
    assert_eq!(camp_outcome.slow_workload, tolerant.name());
    assert!(
        camp_outcome.mean_slowdown() + 0.05 < mpki_outcome.mean_slowdown(),
        "CAMP placement ({:.3}) should clearly beat MPKI ({:.3})",
        camp_outcome.mean_slowdown(),
        mpki_outcome.mean_slowdown()
    );
}

#[test]
fn every_policy_produces_a_runnable_placement() {
    let ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(predictor());
    let workload = camp::workloads::find("spec.505.mcf-1t").expect("in suite");
    let best_shot = BestShotPolicy::new();
    let mut results = vec![evaluate_policy(&ctx, &best_shot, &workload)];
    for policy in baseline_policies() {
        results.push(evaluate_policy(&ctx, policy.as_ref(), &workload));
    }
    for result in results {
        assert!(
            result.normalized_performance > 0.3 && result.normalized_performance <= 1.05,
            "implausible outcome: {result:?}"
        );
    }
}
