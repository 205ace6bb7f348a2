//! Hotness-guided placement: NBT (recency) and Soar (frequency).
//!
//! Both policies answer "which pages deserve DRAM?" with access
//! statistics gathered from a profiling pass over the access trace —
//! NBT approximates Linux NUMA Balancing Tiering's recency-driven hot-page
//! promotion, Soar approximates profile-guided placement of the most
//! frequently accessed (performance-critical) objects. Neither reasons
//! about *latency tolerance*, which is exactly the gap CAMP exploits
//! (§6.2.3, §6.3).

use crate::policy::{PolicyContext, TieringPolicy};
use camp_sim::{Op, Placement, RunReport, Workload, PAGE_BYTES};
use std::collections::{HashMap, HashSet};

/// Per-page access statistics from one profiling pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PageStats {
    pub(crate) accesses: u64,
    last_access: u64,
}

/// One profiling pass over the workload's trace: per-page access counts
/// and recency. Cached workloads pay no regeneration.
pub(crate) fn profile_pages(workload: &dyn Workload) -> HashMap<u64, PageStats> {
    let mut pages: HashMap<u64, PageStats> = HashMap::new();
    let mut position = 0u64;
    let trace = workload.trace();
    for op in trace.iter() {
        let addr = match op {
            Op::Load { addr, .. } | Op::Store { addr } => addr,
            Op::Compute { .. } => continue,
        };
        position += 1;
        let entry = pages.entry(addr / PAGE_BYTES).or_default();
        entry.accesses += 1;
        entry.last_access = position;
    }
    pages
}

/// Pages ranked by `key`, highest first; ties go to the lower page number.
pub(crate) fn rank_pages<K: Ord>(
    pages: &HashMap<u64, PageStats>,
    key: impl Fn(&PageStats) -> K,
) -> Vec<(u64, PageStats)> {
    let mut ranked: Vec<(u64, PageStats)> = pages.iter().map(|(&page, &s)| (page, s)).collect();
    ranked.sort_by(|a, b| key(&b.1).cmp(&key(&a.1)).then(a.0.cmp(&b.0)));
    ranked
}

/// Selects the top `capacity` pages by a ranking key, recording the
/// traffic share the chosen pages carry (which drives device contention).
fn top_pages<K: Ord>(
    pages: &HashMap<u64, PageStats>,
    capacity: u64,
    key: impl Fn(&PageStats) -> K,
) -> Placement {
    let total_accesses: u64 = pages.values().map(|s| s.accesses).sum();
    let mut chosen = rank_pages(pages, key);
    chosen.truncate(capacity as usize);
    let fast_accesses: u64 = chosen.iter().map(|(_, s)| s.accesses).sum();
    let traffic_share = if total_accesses > 0 {
        fast_accesses as f64 / total_accesses as f64
    } else {
        1.0
    };
    let pages: HashSet<u64> = chosen.into_iter().map(|(page, _)| page).collect();
    Placement::FastPageSet { pages, traffic_share }
}

/// Linux NUMA Balancing Tiering: promotes recently accessed pages to DRAM
/// up to capacity (recency-ranked hotness).
#[derive(Debug, Clone, Copy, Default)]
pub struct Nbt;

impl TieringPolicy for Nbt {
    fn name(&self) -> &'static str {
        "NBT"
    }

    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        _dram: &RunReport,
    ) -> Placement {
        let pages = profile_pages(workload);
        top_pages(&pages, ctx.fast_capacity_pages(workload), |s| s.last_access)
    }
}

/// Soar: profile-guided allocation of the most performance-critical
/// (most frequently accessed) objects onto DRAM, filling the provisioned
/// capacity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Soar;

impl TieringPolicy for Soar {
    fn name(&self) -> &'static str {
        "Soar"
    }

    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        _dram: &RunReport,
    ) -> Placement {
        let pages = profile_pages(workload);
        top_pages(&pages, ctx.fast_capacity_pages(workload), |s| s.accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::Counted;
    use camp_sim::{DeviceKind, Machine, Platform};

    /// Page 0 is accessed often but early; page 1 rarely but last; pages
    /// 2..10 are in between.
    struct Skewed;
    impl Workload for Skewed {
        fn name(&self) -> &str {
            "skewed"
        }
        fn footprint_bytes(&self) -> u64 {
            10 * PAGE_BYTES
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            let mut ops = Vec::new();
            for _ in 0..100 {
                ops.push(Op::load(0)); // page 0: hot, early
            }
            for page in 2..10u64 {
                for _ in 0..10 {
                    ops.push(Op::load(page * PAGE_BYTES));
                }
            }
            ops.push(Op::load(PAGE_BYTES)); // page 1: cold, most recent
            Box::new(ops.into_iter())
        }
    }

    fn ctx_with_capacity(frac: f64) -> PolicyContext<'static> {
        let mut ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        ctx.fast_capacity_fraction = frac;
        ctx
    }

    /// The pages `policy` puts on DRAM for [`Skewed`].
    fn fast_set(policy: &dyn TieringPolicy, ctx: &PolicyContext<'_>) -> HashSet<u64> {
        let dram = Machine::dram_only(ctx.platform).run(&Skewed);
        match policy.place(ctx, &Skewed, &dram) {
            Placement::FastPageSet { pages, .. } => pages,
            other => panic!("expected page set, got {other:?}"),
        }
    }

    #[test]
    fn soar_prefers_frequency() {
        let ctx = ctx_with_capacity(0.1); // one page
        let set = fast_set(&Soar, &ctx);
        assert!(set.contains(&0), "hottest page pinned: {set:?}");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn nbt_prefers_recency() {
        let ctx = ctx_with_capacity(0.1);
        let set = fast_set(&Nbt, &ctx);
        assert!(set.contains(&1), "most recent page promoted: {set:?}");
    }

    #[test]
    fn capacity_bounds_the_fast_set() {
        let ctx = ctx_with_capacity(0.5);
        let set = fast_set(&Soar, &ctx);
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn both_report_one_profiling_pass() {
        let ctx = ctx_with_capacity(0.5);
        let dram = Machine::dram_only(ctx.platform).run(&Skewed);
        for policy in [&Nbt as &dyn TieringPolicy, &Soar] {
            let skewed = Counted::new(Skewed);
            let _ = policy.place(&ctx, &skewed, &dram);
            assert_eq!(skewed.traces(), 1, "{}: one profiling pass, no simulation", policy.name());
        }
    }
}
