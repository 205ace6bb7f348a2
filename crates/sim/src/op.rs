//! The instruction-stream abstraction executed by the engine.
//!
//! Workloads are modelled as streams of [`Op`]s: demand loads and stores to
//! virtual byte addresses, interleaved with stretches of non-memory work.
//! This is the level at which CAMP's causal mechanisms operate — dependency
//! structure (serialised vs independent loads), spatial pattern (what the
//! prefetchers can and cannot cover) and store intensity are all expressible,
//! while instruction semantics that do not affect memory-stall behaviour are
//! abstracted into [`Op::Compute`].

/// One element of a workload's dynamic instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A demand load from a virtual byte address.
    Load {
        /// Virtual byte address; the engine maps it to a line and a page.
        addr: u64,
        /// Data dependence: `0` means the address is computable early and
        /// the load is limited only by the out-of-order window; `d > 0`
        /// means the address depends on the data of the `d`-th previous
        /// load (so `1` is classic pointer chasing and interleaving `k`
        /// chains with `dep = k` bounds MLP at `k`).
        dep: u8,
    },
    /// A store to a virtual byte address. Stores retire into the Store
    /// Buffer and drain asynchronously via RFO requests.
    Store {
        /// Virtual byte address.
        addr: u64,
    },
    /// `cycles` worth of non-memory work (ALU, branches, L1-resident data).
    /// Advances retirement by `cycles` and the instruction count by
    /// `cycles` (IPC 1 for compute stretches).
    Compute {
        /// Number of cycles / instructions this stretch represents.
        cycles: u32,
    },
}

impl Op {
    /// Convenience constructor for an independent load.
    #[inline]
    pub fn load(addr: u64) -> Op {
        Op::Load { addr, dep: 0 }
    }

    /// Convenience constructor for a dependent (pointer-chase) load.
    #[inline]
    pub fn chase(addr: u64) -> Op {
        Op::Load { addr, dep: 1 }
    }

    /// A load depending on the `width`-th previous load — `width`
    /// interleaved chase chains issue round-robin with this dependence.
    #[inline]
    pub fn chase_width(addr: u64, width: u8) -> Op {
        Op::Load { addr, dep: width }
    }

    /// Convenience constructor for a store.
    #[inline]
    pub fn store(addr: u64) -> Op {
        Op::Store { addr }
    }

    /// Convenience constructor for compute work.
    #[inline]
    pub fn compute(cycles: u32) -> Op {
        Op::Compute { cycles }
    }

    /// Number of retired instructions this op represents.
    #[inline]
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Load { .. } | Op::Store { .. } => 1,
            Op::Compute { cycles } => *cycles as u64,
        }
    }
}

/// A runnable workload: a named generator of an [`Op`] stream.
///
/// Implementations live in the `camp-workloads` crate; the simulator only
/// needs the stream, the thread count (which scales per-core bandwidth and
/// LLC shares) and the memory footprint (which sizes the address space for
/// placement).
///
/// Workloads are required to be `Send + Sync`: op streams are deterministic
/// pure generators over immutable parameters, which lets the experiment
/// harness fan endpoint runs of the same workload out across threads.
pub trait Workload: Send + Sync {
    /// Unique, stable workload name (e.g. `"spec.603.bwaves-8t"`).
    fn name(&self) -> &str;

    /// Number of symmetric threads running this workload. The engine
    /// simulates one representative core and divides device bandwidth and
    /// LLC capacity by this count.
    fn threads(&self) -> u32 {
        1
    }

    /// Memory footprint in bytes (per thread); all generated addresses fall
    /// in `[0, footprint_bytes)`.
    fn footprint_bytes(&self) -> u64;

    /// A fresh op stream. Must be deterministic: two calls yield the same
    /// sequence, so DRAM and CXL runs of the same workload see identical
    /// instruction streams.
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_>;

    /// The workload's op stream as a shared encoded trace — what the engine
    /// actually executes, and what [`crate::optrace::Traced::write_to`]
    /// writes to a file.
    ///
    /// The default implementation materialises [`Workload::ops`] on every
    /// call, so custom workloads keep working unchanged. Implementations
    /// that already hold a materialised stream (such as
    /// [`crate::optrace::Traced`], which [`crate::optrace::TraceCache::wrap`]
    /// returns) override this to return a shared `Arc` and skip
    /// regeneration entirely. Must decode element-for-element equal to
    /// [`Workload::ops`]: the engine's determinism contract (identical
    /// reports from either path) depends on it.
    fn trace(&self) -> std::sync::Arc<crate::optrace::OpTrace> {
        std::sync::Arc::new(crate::optrace::OpTrace::from_ops(self.ops()))
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }
    fn threads(&self) -> u32 {
        self.as_ref().threads()
    }
    fn footprint_bytes(&self) -> u64 {
        self.as_ref().footprint_bytes()
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        self.as_ref().ops()
    }
    fn trace(&self) -> std::sync::Arc<crate::optrace::OpTrace> {
        self.as_ref().trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Op::load(64), Op::Load { addr: 64, dep: 0 });
        assert_eq!(Op::chase(64), Op::Load { addr: 64, dep: 1 });
        assert_eq!(Op::chase_width(64, 4), Op::Load { addr: 64, dep: 4 });
        assert_eq!(Op::store(8), Op::Store { addr: 8 });
        assert_eq!(Op::compute(3), Op::Compute { cycles: 3 });
    }

    #[test]
    fn instruction_weights() {
        assert_eq!(Op::load(0).instructions(), 1);
        assert_eq!(Op::store(0).instructions(), 1);
        assert_eq!(Op::compute(17).instructions(), 17);
    }

    struct TwoLoads;
    impl Workload for TwoLoads {
        fn name(&self) -> &str {
            "two-loads"
        }
        fn footprint_bytes(&self) -> u64 {
            128
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            Box::new([Op::load(0), Op::load(64)].into_iter())
        }
    }

    #[test]
    fn boxed_workload_delegates() {
        let w: Box<dyn Workload> = Box::new(TwoLoads);
        assert_eq!(w.name(), "two-loads");
        assert_eq!(w.threads(), 1);
        assert_eq!(w.footprint_bytes(), 128);
        assert_eq!(w.ops().count(), 2);
    }

    #[test]
    fn op_streams_are_deterministic() {
        let w = TwoLoads;
        let a: Vec<Op> = w.ops().collect();
        let b: Vec<Op> = w.ops().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn default_trace_matches_ops() {
        let w = TwoLoads;
        let from_ops: Vec<Op> = w.ops().collect();
        let from_trace: Vec<Op> = w.trace().iter().collect();
        assert_eq!(from_ops, from_trace);
        let boxed: Box<dyn Workload> = Box::new(TwoLoads);
        let via_box: Vec<Op> = boxed.trace().iter().collect();
        assert_eq!(from_ops, via_box);
    }
}
