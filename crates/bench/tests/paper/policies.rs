//! Policy gates (the §6 claims): Best-shot never loses to the baselines by
//! more than noise, and CAMP-guided colocation beats MPKI-guided placement
//! on conflicting pairs.

use crate::{ctx, traced};
use camp_core::colocation::{place_and_run, solo_runs, ColocationPolicy};
use camp_policies::{
    baseline_policies, evaluate_policy, BestShotPolicy, PolicyContext, TieringPolicy,
};
use camp_sim::{DeviceKind, Platform};

const PLATFORM: Platform = Platform::Skx2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;

#[test]
fn best_shot_tops_the_policy_comparison_on_bwaves() {
    let predictor = ctx().predictor(PLATFORM, DEVICE);
    let policy_ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(&predictor);
    let workload = traced("spec.603.bwaves-8t");
    let baseline = ctx().run(PLATFORM, None, &workload);
    let bs = evaluate_policy(&policy_ctx, &BestShotPolicy, &workload, &baseline);
    assert!(
        bs.normalized_performance > 1.0,
        "Best-shot should beat DRAM-only on a bandwidth-bound stream: {bs:?}"
    );
    for policy in baseline_policies() {
        let result = evaluate_policy(&policy_ctx, policy.as_ref(), &workload, &baseline);
        assert!(
            bs.normalized_performance >= result.normalized_performance - 0.02,
            "{} ({:.3}) beat Best-shot ({:.3}) beyond tolerance",
            policy.name(),
            result.normalized_performance,
            bs.normalized_performance
        );
    }
}

#[test]
fn best_shot_clearly_beats_static_policies_on_llama() {
    let predictor = ctx().predictor(PLATFORM, DEVICE);
    let policy_ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(&predictor);
    let workload = traced("ai.llama-7b-prefill");
    let baseline = ctx().run(PLATFORM, None, &workload);
    let bs = evaluate_policy(&policy_ctx, &BestShotPolicy, &workload, &baseline);
    for policy in [
        Box::new(camp_policies::FirstTouch) as Box<dyn TieringPolicy>,
        Box::new(camp_policies::Soar),
    ] {
        let result = evaluate_policy(&policy_ctx, policy.as_ref(), &workload, &baseline);
        let gain = bs.normalized_performance / result.normalized_performance - 1.0;
        assert!(
            gain > 0.05,
            "expected >5% gain over {}, got {:.1}%",
            policy.name(),
            gain * 100.0
        );
    }
}

#[test]
fn camp_colocation_beats_mpki_on_a_conflicting_pair() {
    let platform = Platform::Spr2s;
    let predictor = ctx().predictor(platform, DEVICE);
    // blackscholes: hot (high MPKI) but prefetch-covered and tolerant;
    // gpt2-prefill: cold (near-zero MPKI) but highly CXL-sensitive.
    let tolerant = traced("parsec.blackscholes-1t");
    let sensitive = traced("ai.gpt2-prefill");
    let rt = ctx().run(platform, None, &tolerant);
    let rs = ctx().run(platform, None, &sensitive);
    let mpki_tolerant = camp_pmu::derived::mpki(&rt.counters).unwrap();
    let mpki_sensitive = camp_pmu::derived::mpki(&rs.counters).unwrap();
    assert!(
        mpki_tolerant > mpki_sensitive + 5.0,
        "pair no longer conflicts on MPKI: {mpki_tolerant} vs {mpki_sensitive}"
    );

    let (solo_tolerant, solo_sensitive) = solo_runs(platform, &tolerant, &sensitive);
    let decide = |policy| {
        place_and_run(
            platform,
            DEVICE,
            (&tolerant, &solo_tolerant),
            (&sensitive, &solo_sensitive),
            policy,
            &predictor,
        )
    };
    let camp_outcome = decide(ColocationPolicy::Camp);
    let mpki_outcome = decide(ColocationPolicy::Mpki);
    // MPKI protects the hot-but-tolerant workload and exiles the
    // sensitive one; CAMP does the opposite and wins clearly.
    assert_eq!(camp_outcome.slow_workload, tolerant.name);
    assert!(
        camp_outcome.mean_slowdown() + 0.05 < mpki_outcome.mean_slowdown(),
        "CAMP placement ({:.3}) should clearly beat MPKI ({:.3})",
        camp_outcome.mean_slowdown(),
        mpki_outcome.mean_slowdown()
    );
}

#[test]
fn every_policy_produces_a_runnable_placement() {
    let predictor = ctx().predictor(PLATFORM, DEVICE);
    let policy_ctx = PolicyContext::new(PLATFORM, DEVICE).with_predictor(&predictor);
    let workload = traced("spec.505.mcf-1t");
    let baseline = ctx().run(PLATFORM, None, &workload);
    let best_shot: Box<dyn TieringPolicy> = Box::new(BestShotPolicy);
    for policy in std::iter::once(best_shot).chain(baseline_policies()) {
        let result = evaluate_policy(&policy_ctx, policy.as_ref(), &workload, &baseline);
        assert!(
            result.normalized_performance > 0.3 && result.normalized_performance <= 1.05,
            "implausible outcome for {}: {result:?}",
            policy.name()
        );
    }
}
