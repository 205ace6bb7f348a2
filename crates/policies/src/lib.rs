//! Tiering and interleaving policies (§6.2 of the paper): Best-shot and
//! the seven baselines it is compared against, plus the §6.4 hybrid.
//!
//! Each baseline is re-implemented here as its *decision rule* driving the
//! same simulator:
//!
//! | Policy | Decision rule |
//! |---|---|
//! | Interleave 1:1 | Linux `MPOL_INTERLEAVED` (fixed 50:50) |
//! | First-touch | Pages stay where first allocated until DRAM fills |
//! | Caption | Coarse ratio search guided by probe runs |
//! | NBT | Recency-ranked hot pages promoted to DRAM |
//! | Colloid | Migrate until per-tier loaded latencies equalise |
//! | Alto | Colloid, with migration damped during high-MLP phases |
//! | Soar | Frequency-ranked critical pages pinned to DRAM |
//!
//! All baselines are provisioned with a 4:1 fast:slow capacity split (80%
//! of the footprint fits in DRAM), matching §6.2.1; Best-shot uses only
//! its analytically chosen ratio. Every policy is a stateless unit struct
//! that decides from the caller's DRAM-only run. Colocation policies
//! (§6.3) live in `camp_core::colocation`.

#![warn(missing_docs)]
pub mod bestshot;
pub mod caption;
pub mod colloid;
pub mod evaluate;
pub mod hotness;
pub mod hybrid;
pub mod policy;
pub mod staticpol;

pub use bestshot::BestShotPolicy;
pub use caption::Caption;
pub use colloid::{Alto, Colloid};
pub use evaluate::{evaluate_policy, PolicyResult};
pub use hotness::{Nbt, Soar};
pub use hybrid::HybridCamp;
pub use policy::{PolicyContext, TieringPolicy};
pub use staticpol::{FirstTouch, Interleave1to1};

/// All seven baseline policies of Figure 15, in presentation order.
pub fn baseline_policies() -> Vec<Box<dyn TieringPolicy>> {
    vec![
        Box::new(Interleave1to1),
        Box::new(Caption),
        Box::new(FirstTouch),
        Box::new(Nbt),
        Box::new(Colloid),
        Box::new(Alto),
        Box::new(Soar),
    ]
}

#[cfg(test)]
pub(crate) mod counted {
    use camp_sim::{Op, OpTrace, Workload};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts the op-stream resolutions behind a policy's decision: every
    /// simulation and every profiling pass over the workload calls
    /// [`Workload::trace`] once.
    pub(crate) struct Counted<W> {
        pub(crate) inner: W,
        traces: AtomicUsize,
    }

    impl<W> Counted<W> {
        pub(crate) fn new(inner: W) -> Self {
            Counted { inner, traces: AtomicUsize::new(0) }
        }

        /// `trace()` calls so far.
        pub(crate) fn traces(&self) -> usize {
            self.traces.load(Ordering::Relaxed)
        }
    }

    impl<W: Workload> Workload for Counted<W> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn threads(&self) -> u32 {
            self.inner.threads()
        }
        fn footprint_bytes(&self) -> u64 {
            self.inner.footprint_bytes()
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            self.inner.ops()
        }
        fn trace(&self) -> Arc<OpTrace> {
            self.traces.fetch_add(1, Ordering::Relaxed);
            self.inner.trace()
        }
    }
}
