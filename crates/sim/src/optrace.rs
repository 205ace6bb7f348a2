//! Shared compact op traces: generate-once, packed, cache-friendly.
//!
//! Kernels stay cheap *generators* ([`Workload::ops`]), but every consumer
//! of a workload — each engine run per (platform, device, placement), plus
//! the profiling passes of the tiering policies — wants the same dynamic
//! op stream. Regenerating it per consumer is the single largest cost in
//! the experiment harness (the graph kernels rebuild a whole CSR per
//! call). This module decouples generation from consumption:
//!
//! - [`PackedOp`] is a 12-byte packed record (vs the 16-byte [`Op`] enum)
//!   so a materialised stream is 25% smaller and iterates branch-predictably
//!   over a flat slice instead of through a `Box<dyn Iterator>`;
//! - [`OpTrace`] is an immutable packed stream, built once and shared via
//!   `Arc` across engine runs, policies and threads;
//! - [`TraceCache`] memoises traces on a single-flight [`Memo`] (the same
//!   table as the experiment harness's run cache): concurrent requests for
//!   one workload generate it exactly once, the rest share the result.
//!
//! Decoding is exact: every `Op` round-trips bit-identically, so a report
//! produced from a trace equals one produced from the generator.

use crate::memo::Memo;
use crate::op::{Op, Workload};
use std::sync::Arc;

/// A fixed-width 12-byte encoding of one [`Op`].
///
/// Layout (`repr(C)`, three little-endian words):
///
/// | field  | Load              | Store             | Compute        |
/// |--------|-------------------|-------------------|----------------|
/// | `lo`   | addr bits 0..32   | addr bits 0..32   | cycles         |
/// | `hi`   | addr bits 32..64  | addr bits 32..64  | 0 (reserved)   |
/// | `meta` | kind \| dep << 2  | kind              | kind           |
///
/// `meta` bits 0..2 hold the kind, bits 2..10 hold the load dependence
/// distance, bits 10..32 are reserved and must be zero (checked by a
/// `debug_assert` in [`PackedOp::decode`]).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp {
    lo: u32,
    hi: u32,
    meta: u32,
}

const KIND_LOAD: u32 = 0;
const KIND_STORE: u32 = 1;
const KIND_COMPUTE: u32 = 2;
const META_KIND_BITS: u32 = 2;
const META_RESERVED_SHIFT: u32 = 10;

// The packed record is the unit the whole trace layer scales by; growing
// it silently would regress every cached workload. 12 bytes, no padding.
const _: () = assert!(std::mem::size_of::<PackedOp>() == 12);
const _: () = assert!(std::mem::align_of::<PackedOp>() == 4);

impl PackedOp {
    /// Packs an [`Op`] losslessly.
    #[inline]
    pub fn encode(op: Op) -> PackedOp {
        match op {
            Op::Load { addr, dep } => PackedOp {
                lo: addr as u32,
                hi: (addr >> 32) as u32,
                meta: KIND_LOAD | ((dep as u32) << META_KIND_BITS),
            },
            Op::Store { addr } => PackedOp {
                lo: addr as u32,
                hi: (addr >> 32) as u32,
                meta: KIND_STORE,
            },
            Op::Compute { cycles } => PackedOp { lo: cycles, hi: 0, meta: KIND_COMPUTE },
        }
    }

    /// Unpacks back to an [`Op`]. Exact inverse of [`PackedOp::encode`].
    #[inline(always)]
    pub fn decode(self) -> Op {
        let kind = self.meta & ((1 << META_KIND_BITS) - 1);
        debug_assert!(
            self.meta >> META_RESERVED_SHIFT == 0,
            "reserved PackedOp meta bits set: {:#x}",
            self.meta
        );
        debug_assert!(kind <= KIND_COMPUTE, "invalid PackedOp kind {kind}");
        let addr = self.lo as u64 | (self.hi as u64) << 32;
        match kind {
            KIND_LOAD => Op::Load { addr, dep: (self.meta >> META_KIND_BITS) as u8 },
            KIND_STORE => Op::Store { addr },
            _ => {
                debug_assert!(self.hi == 0, "reserved PackedOp payload bits set");
                Op::Compute { cycles: self.lo }
            }
        }
    }
}

/// An immutable, materialised op stream in packed form.
///
/// Built once from a generator (or any op iterator) and then shared —
/// typically as `Arc<OpTrace>` through a [`TraceCache`] — by every
/// consumer that would otherwise re-run the generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    ops: Vec<PackedOp>,
}

impl OpTrace {
    /// Materialises a trace from any op stream.
    pub fn from_ops(ops: impl IntoIterator<Item = Op>) -> OpTrace {
        OpTrace {
            ops: ops.into_iter().map(PackedOp::encode).collect(),
        }
    }

    /// Materialises a workload's full op stream.
    pub fn from_workload(workload: &dyn Workload) -> OpTrace {
        Self::from_ops(workload.ops())
    }

    /// The packed records, for batched slice iteration.
    #[inline]
    pub fn packed(&self) -> &[PackedOp] {
        &self.ops
    }

    /// Decoded ops, element-for-element equal to the generating stream.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        self.ops.iter().map(|&p| p.decode())
    }

    /// Number of ops in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the packed records in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<PackedOp>()
    }
}

impl<'a> IntoIterator for &'a OpTrace {
    type Item = Op;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, PackedOp>, fn(&PackedOp) -> Op>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter().map(|&p| p.decode())
    }
}

impl FromIterator<Op> for OpTrace {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        OpTrace::from_ops(iter)
    }
}

/// Cache key: workload identity as the engine sees it. Op streams are
/// deterministic functions of the workload's parameters; name, thread
/// count and footprint together identify a workload everywhere the
/// experiment harness builds one.
type TraceKey = (String, u32, u64);

/// Thread-safe, single-flight trace cache.
///
/// Like the experiment harness's run cache, it sits on a [`Memo`]:
/// concurrent `trace` calls with the same workload generate the op stream
/// exactly once; later calls (from any thread) are pure `Arc` clones.
/// [`TraceCache::wrap`] adapts a workload so every consumer taking
/// `&dyn Workload` — the engine, the tiering policies' profiling passes —
/// transparently shares the cached trace.
#[derive(Debug, Default)]
pub struct TraceCache {
    memo: Memo<TraceKey, OpTrace>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace for `workload`, generating it on first request.
    ///
    /// Single-flight: when several threads race on an absent entry,
    /// exactly one runs the generator; the others block and share the
    /// result.
    pub fn trace(&self, workload: &dyn Workload) -> Arc<OpTrace> {
        let key = (workload.name().to_string(), workload.threads(), workload.footprint_bytes());
        self.memo.get_or_compute(&key, || OpTrace::from_workload(workload))
    }

    /// Wraps `workload` so its [`Workload::trace`] (and [`Workload::ops`])
    /// resolve through this cache.
    pub fn wrap<'a>(&'a self, workload: &'a dyn Workload) -> CachedTrace<'a> {
        CachedTrace { cache: self, inner: workload }
    }

    /// Number of traces generated (not merely recalled) so far.
    pub fn generated(&self) -> usize {
        self.memo.computed()
    }

    /// Total trace requests served.
    pub fn requests(&self) -> usize {
        self.memo.requests()
    }

    /// Requests served from an already-generated trace.
    pub fn hits(&self) -> usize {
        self.memo.hits()
    }

    /// Per-workload statistics of every cached trace, sorted by name, then
    /// thread count and size (for deterministic reporting).
    pub fn stats(&self) -> Vec<TraceStats> {
        let mut stats: Vec<TraceStats> = self
            .memo
            .entries()
            .into_iter()
            .map(|((workload, threads, _), trace)| TraceStats {
                workload,
                threads,
                ops: trace.len(),
                packed_bytes: trace.packed_bytes(),
            })
            .collect();
        stats.sort();
        stats
    }

    /// Total packed bytes held by the cache.
    pub fn packed_bytes(&self) -> usize {
        self.stats().iter().map(|s| s.packed_bytes).sum()
    }
}

/// Per-workload cache statistics (see [`TraceCache::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceStats {
    /// Workload name.
    pub workload: String,
    /// Workload thread count.
    pub threads: u32,
    /// Ops in the trace.
    pub ops: usize,
    /// Packed size in bytes.
    pub packed_bytes: usize,
}

/// A workload adapter routing trace requests through a shared
/// [`TraceCache`] (see [`TraceCache::wrap`]).
#[derive(Clone, Copy)]
pub struct CachedTrace<'a> {
    cache: &'a TraceCache,
    inner: &'a dyn Workload,
}

impl std::fmt::Debug for CachedTrace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedTrace").field("workload", &self.inner.name()).finish()
    }
}

impl Workload for CachedTrace<'_> {
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
        let trace = self.cache.trace(self.inner);
        let mut index = 0;
        Box::new(std::iter::from_fn(move || {
            let op = trace.packed().get(index)?.decode();
            index += 1;
            Some(op)
        }))
    }

    fn trace(&self) -> Arc<OpTrace> {
        self.cache.trace(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::load(0),
            Op::load(64),
            Op::load(u64::MAX),
            Op::Load { addr: 1 << 40, dep: 255 },
            Op::chase(4096),
            Op::store(64),
            Op::store(u64::MAX - 63),
            Op::compute(0),
            Op::compute(u32::MAX),
        ]
    }

    #[test]
    fn packed_op_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<PackedOp>(), 12);
        assert_eq!(std::mem::size_of::<Op>(), 16, "packed must beat the enum");
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        for op in sample_ops() {
            assert_eq!(PackedOp::encode(op).decode(), op, "{op:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserved PackedOp meta bits")]
    fn reserved_meta_bits_are_rejected_in_debug() {
        let bad = PackedOp { lo: 0, hi: 0, meta: 1 << 20 };
        let _ = bad.decode();
    }

    #[test]
    fn trace_matches_generator_element_for_element() {
        let trace = OpTrace::from_ops(sample_ops());
        assert_eq!(trace.len(), sample_ops().len());
        assert!(!trace.is_empty());
        assert_eq!(trace.packed_bytes(), trace.len() * 12);
        let decoded: Vec<Op> = trace.iter().collect();
        assert_eq!(decoded, sample_ops());
        let via_ref: Vec<Op> = (&trace).into_iter().collect();
        assert_eq!(via_ref, sample_ops());
    }

    struct Counting {
        name: &'static str,
        generated: AtomicUsize,
    }

    impl Workload for Counting {
        fn name(&self) -> &str {
            self.name
        }
        fn footprint_bytes(&self) -> u64 {
            1 << 12
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            self.generated.fetch_add(1, Ordering::Relaxed);
            Box::new((0..100u64).map(|i| Op::load(i * 8)))
        }
    }

    #[test]
    fn cache_generates_once_and_shares() {
        let cache = TraceCache::new();
        let w = Counting { name: "once", generated: AtomicUsize::new(0) };
        let a = cache.trace(&w);
        let b = cache.trace(&w);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(w.generated.load(Ordering::Relaxed), 1);
        assert_eq!(cache.generated(), 1);
        assert_eq!(cache.requests(), 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn cache_distinguishes_same_name_different_shape() {
        // Two workloads may share a name across test modules; the key also
        // covers thread count and footprint so they do not alias.
        struct Sized(u64);
        impl Workload for Sized {
            fn name(&self) -> &str {
                "same-name"
            }
            fn footprint_bytes(&self) -> u64 {
                self.0
            }
            fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
                Box::new((0..self.0 / 64).map(|i| Op::load(i * 64)))
            }
        }
        let cache = TraceCache::new();
        let small = cache.trace(&Sized(1 << 10));
        let large = cache.trace(&Sized(1 << 12));
        assert_ne!(small.len(), large.len());
        assert_eq!(cache.generated(), 2);
    }

    #[test]
    fn wrapped_workload_shares_the_cache() {
        let cache = TraceCache::new();
        let w = Counting { name: "wrapped", generated: AtomicUsize::new(0) };
        let wrapped = cache.wrap(&w);
        assert_eq!(wrapped.name(), "wrapped");
        assert_eq!(wrapped.threads(), 1);
        assert_eq!(wrapped.footprint_bytes(), 1 << 12);
        let direct: Vec<Op> = w.ops().collect();
        let via_wrap: Vec<Op> = wrapped.ops().collect();
        let via_trace: Vec<Op> = wrapped.trace().iter().collect();
        assert_eq!(direct, via_wrap);
        assert_eq!(direct, via_trace);
        // One generation for the baseline collect, one for the cache fill;
        // the wrapper's ops() and trace() both hit the cache.
        assert_eq!(w.generated.load(Ordering::Relaxed), 2);
        assert_eq!(cache.generated(), 1);
    }

    #[test]
    fn stats_report_name_threads_and_size() {
        let cache = TraceCache::new();
        let w = Counting { name: "stats", generated: AtomicUsize::new(0) };
        let _ = cache.trace(&w);
        let stats = cache.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].workload, "stats");
        assert_eq!(stats[0].threads, 1);
        assert_eq!(stats[0].ops, 100);
        assert_eq!(stats[0].packed_bytes, 1200);
    }
}
