//! Derived metrics computed from raw counters.
//!
//! These are the scalar signals that both CAMP and the baseline systems of
//! Table 1 consume. Each function returns `None` when its denominator is
//! zero (e.g. a workload that never issued an offcore demand read has no
//! measurable demand-read latency).
//!
//! The latency/MLP methodology follows the paper (§4.4.3): average offcore
//! demand-read latency is `ORO_DEMAND_RD / OR_DEMAND_RD` (occupancy integral
//! over request count, i.e. Little's law) and MLP is
//! `ORO_DEMAND_RD / ORO_CYC_W_DEMAND_RD` (occupancy integral over cycles
//! with at least one request outstanding).

use crate::{CounterSet, Event};

fn ratio(num: f64, den: f64) -> Option<f64> {
    if den > 0.0 {
        Some(num / den)
    } else {
        None
    }
}

/// Average offcore demand-read latency in cycles: `P11 / P12`.
pub fn demand_read_latency(c: &CounterSet) -> Option<f64> {
    ratio(c.get_f64(Event::OroDemandRd), c.get_f64(Event::OrDemandRd))
}

/// Memory-level parallelism of demand reads: `P11 / P13`.
pub fn mlp(c: &CounterSet) -> Option<f64> {
    ratio(c.get_f64(Event::OroDemandRd), c.get_f64(Event::OroCycWDemandRd))
}

/// The paper's latency-tolerance signal `L / MLP`, which simplifies to
/// `P13 / P12` (cycles-with-outstanding per request). SoarAlto calls this
/// metric AOL.
pub fn aol(c: &CounterSet) -> Option<f64> {
    ratio(c.get_f64(Event::OroCycWDemandRd), c.get_f64(Event::OrDemandRd))
}

/// Offcore demand-read misses per kilo-instruction (Memstrata's hotness
/// signal).
pub fn mpki(c: &CounterSet) -> Option<f64> {
    ratio(1000.0 * c.get_f64(Event::OrDemandRd), c.get_f64(Event::Instructions))
}

/// Instructions per cycle.
pub fn ipc(c: &CounterSet) -> Option<f64> {
    ratio(c.get_f64(Event::Instructions), c.get_f64(Event::Cycles))
}

/// Fraction of cycles with at least one demand read in flight
/// ("memory-active cycles" `C` normalised by `c`; §4.1.1).
pub fn memory_active_fraction(c: &CounterSet) -> Option<f64> {
    ratio(c.get_f64(Event::OroCycWDemandRd), c.get_f64(Event::Cycles))
}

/// LFB-hit ratio (§4.2.2 Signal #1):
/// `LFB_HIT / (LFB_HIT + L1_MISS)`.
///
/// `L1_MISS` counts loads that missed L1 *and* did not coalesce into the
/// LFB, matching the Intel event split the paper relies on.
pub fn lfb_hit_ratio(c: &CounterSet) -> Option<f64> {
    let hits = c.get_f64(Event::LfbHit);
    ratio(hits, hits + c.get_f64(Event::L1Miss))
}

/// SKX approximation of prefetch-from-memory reliance (§4.4.3):
/// `(P7 - P8) / P7`.
pub fn r_mem_skx(c: &CounterSet) -> Option<f64> {
    let any = c.get_f64(Event::PfL1dAnyResponse);
    ratio(any - c.get_f64(Event::PfL1dL3Hit), any)
}

/// SPR/EMR approximation of prefetch-from-memory reliance (§4.4.3):
/// `(P14/P15) * (P16/(P16+P17))`.
pub fn r_mem_spr(c: &CounterSet) -> Option<f64> {
    let share = ratio(c.get_f64(Event::LlcLookupPfRd), c.get_f64(Event::LlcLookupAll))?;
    let miss = ratio(
        c.get_f64(Event::TorInsIaPref),
        c.get_f64(Event::TorInsIaPref) + c.get_f64(Event::TorInsIaHitPref),
    )?;
    Some(share * miss)
}

/// Demand-load L1 hit rate (used by Figure 5b).
pub fn l1d_hit_rate(c: &CounterSet) -> Option<f64> {
    ratio(c.get_f64(Event::L1dHit), c.get_f64(Event::DemandLoads))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSet {
        let mut c = CounterSet::new();
        c.set(Event::Cycles, 10_000);
        c.set(Event::Instructions, 20_000);
        c.set(Event::OroDemandRd, 40_000);
        c.set(Event::OrDemandRd, 200);
        c.set(Event::OroCycWDemandRd, 5_000);
        c.set(Event::LfbHit, 300);
        c.set(Event::L1Miss, 700);
        c.set(Event::PfL1dAnyResponse, 100);
        c.set(Event::PfL1dL3Hit, 25);
        c.set(Event::LlcLookupPfRd, 50);
        c.set(Event::LlcLookupAll, 200);
        c.set(Event::TorInsIaPref, 30);
        c.set(Event::TorInsIaHitPref, 10);
        c.set(Event::DemandLoads, 10_000);
        c.set(Event::L1dHit, 9_000);
        c
    }

    #[test]
    fn latency_is_little_law_occupancy_over_requests() {
        assert_eq!(demand_read_latency(&sample()), Some(200.0));
    }

    #[test]
    fn mlp_is_occupancy_over_active_cycles() {
        assert_eq!(mlp(&sample()), Some(8.0));
    }

    #[test]
    fn aol_equals_latency_over_mlp() {
        let c = sample();
        let direct = aol(&c).unwrap();
        let composed = demand_read_latency(&c).unwrap() / mlp(&c).unwrap();
        assert!((direct - composed).abs() < 1e-12);
        assert_eq!(direct, 25.0);
    }

    #[test]
    fn mpki_and_ipc() {
        let c = sample();
        assert_eq!(mpki(&c), Some(10.0));
        assert_eq!(ipc(&c), Some(2.0));
    }

    #[test]
    fn lfb_hit_ratio_uses_non_coalesced_misses() {
        assert_eq!(lfb_hit_ratio(&sample()), Some(0.3));
    }

    #[test]
    fn r_mem_variants() {
        let c = sample();
        assert_eq!(r_mem_skx(&c), Some(0.75));
        let spr = r_mem_spr(&c).unwrap();
        assert!((spr - 0.25 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_yield_none_not_nan() {
        let c = CounterSet::new();
        assert_eq!(demand_read_latency(&c), None);
        assert_eq!(mlp(&c), None);
        assert_eq!(aol(&c), None);
        assert_eq!(mpki(&c), None);
        assert_eq!(ipc(&c), None);
        assert_eq!(lfb_hit_ratio(&c), None);
        assert_eq!(r_mem_skx(&c), None);
        assert_eq!(r_mem_spr(&c), None);
        assert_eq!(l1d_hit_rate(&c), None);
    }

    #[test]
    fn stall_fractions() {
        let c = sample();
        assert_eq!(memory_active_fraction(&c), Some(0.5));
    }
}
