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
//!   one workload generate it exactly once, the rest share the result;
//! - [`Traced`] is the one trace-backed [`Workload`]: what
//!   [`TraceCache::wrap`] returns and what a trace file loads into.
//!
//! Decoding is exact: every `Op` round-trips bit-identically, so a report
//! produced from a trace equals one produced from the generator.

use crate::memo::Memo;
use crate::op::{Op, Workload};
use std::io::{self, Read, Write};
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

    /// Resolves `workload`'s trace through this cache now (one request)
    /// and returns it as a [`Traced`] workload, so every consumer taking
    /// `&dyn Workload` shares the cached trace without further requests.
    pub fn wrap(&self, workload: &dyn Workload) -> Traced {
        Traced {
            name: workload.name().to_string(),
            threads: workload.threads(),
            footprint_bytes: workload.footprint_bytes(),
            trace: self.trace(workload),
        }
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

/// A workload backed by a materialised op trace: a generated workload
/// resolved through [`TraceCache::wrap`], or an application's memory
/// trace captured outside this program and loaded with
/// [`Traced::read_from`]. Cloning shares the trace.
///
/// # File format (version 1)
///
/// A 16-byte little-endian header — magic `"TPMC"` (`u32` `0x434d5054`),
/// version (`u16`), thread count (`u16`), footprint in bytes (`u64`) —
/// then one record per op: a tag byte and a LEB128 varint payload. Tag
/// 0 is a load, `0x40 + dep` a dependent load (`dep` 1..=64), 1 a store
/// (both carry the ZigZag-encoded address delta from the previous load
/// or store address, starting at 0), and 2 a compute op (its cycles).
/// Sequential scans cost ~2 bytes per op.
///
/// # Example
///
/// ```
/// use camp_sim::{Machine, Op, OpTrace, Platform, Traced};
/// use std::sync::Arc;
///
/// let ops = (0..1000u64).flat_map(|i| [Op::load((i * 64) % (1 << 20)), Op::compute(2)]);
/// let app = Traced {
///     name: "my-app".into(),
///     threads: 1,
///     footprint_bytes: 1 << 20,
///     trace: Arc::new(OpTrace::from_ops(ops)),
/// };
/// let mut file = Vec::new();
/// app.write_to(&mut file)?;
///
/// let workload = Traced::read_from(file.as_slice(), "my-app")?;
/// let report = Machine::dram_only(Platform::Spr2s).run(&workload);
/// assert!(report.instructions > 0);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Traced {
    /// Workload name.
    pub name: String,
    /// Thread count.
    pub threads: u32,
    /// Per-thread memory footprint in bytes.
    pub footprint_bytes: u64,
    /// The op stream.
    pub trace: Arc<OpTrace>,
}

const MAGIC: u32 = 0x434d_5054;
const VERSION: u16 = 1;
const HEADER_BYTES: usize = 16;
const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_COMPUTE: u8 = 2;
/// Dependent loads take tag `TAG_CHASE_BASE + dep`.
const TAG_CHASE_BASE: u8 = 0x40;
/// Largest load dependency distance the format encodes.
const MAX_DEP: u8 = 64;

impl Traced {
    /// Writes the trace in the file format above: encoded into one buffer,
    /// then one `write_all` and a flush.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, writing nothing, if `threads` exceeds the
    /// header's 16 bits or a load's `dep` exceeds 64; propagates I/O
    /// errors from `out`.
    pub fn write_to(&self, mut out: impl Write) -> io::Result<()> {
        let threads = u16::try_from(self.threads).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} threads do not fit the trace header (at most {})",
                    self.threads,
                    u16::MAX
                ),
            )
        })?;
        let mut buf = Vec::with_capacity(HEADER_BYTES + 3 * self.trace.len());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&threads.to_le_bytes());
        buf.extend_from_slice(&self.footprint_bytes.to_le_bytes());
        let mut last_addr = 0u64;
        let mut delta =
            |addr: u64| zigzag(addr.wrapping_sub(std::mem::replace(&mut last_addr, addr)) as i64);
        for op in self.trace.iter() {
            let (tag, payload) = match op {
                Op::Load { dep, .. } if dep > MAX_DEP => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "load dependency distance {dep} exceeds the trace format's {MAX_DEP}"
                        ),
                    ));
                }
                Op::Load { addr, dep: 0 } => (TAG_LOAD, delta(addr)),
                Op::Load { addr, dep } => (TAG_CHASE_BASE + dep, delta(addr)),
                Op::Store { addr } => (TAG_STORE, delta(addr)),
                Op::Compute { cycles } => (TAG_COMPUTE, u64::from(cycles)),
            };
            buf.push(tag);
            put_varint(&mut buf, payload);
        }
        out.write_all(&buf)?;
        out.flush()
    }

    /// Reads a trace in the file format above (one `read_to_end`, then a
    /// parse of the bytes). A header thread count of 0 loads as 1.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic or version, an unknown tag, a
    /// varint over 64 bits or a compute op over `u32::MAX` cycles, and
    /// `UnexpectedEof` for a truncated header or record; propagates I/O
    /// errors from `input`.
    pub fn read_from(mut input: impl Read, name: impl Into<String>) -> io::Result<Traced> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        let Some((header, mut rest)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
            return Err(io::ErrorKind::UnexpectedEof.into());
        };
        if header[..4] != MAGIC.to_le_bytes() {
            return Err(invalid_data("not a CAMP trace".into()));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(invalid_data(format!("unsupported trace version {version}")));
        }
        let threads = u16::from_le_bytes([header[6], header[7]]);
        let footprint_bytes = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
        let mut ops = Vec::new();
        let mut last_addr = 0u64;
        while let Some((&tag, tail)) = rest.split_first() {
            rest = tail;
            let dep = match tag {
                TAG_LOAD | TAG_STORE | TAG_COMPUTE => 0,
                t if (TAG_CHASE_BASE + 1..=TAG_CHASE_BASE + MAX_DEP).contains(&t) => {
                    t - TAG_CHASE_BASE
                }
                other => return Err(invalid_data(format!("unknown op tag {other}"))),
            };
            let payload = take_varint(&mut rest)?;
            let op = if tag == TAG_COMPUTE {
                Op::compute(u32::try_from(payload).map_err(|_| {
                    invalid_data(format!("compute op of {payload} cycles exceeds u32"))
                })?)
            } else {
                last_addr = last_addr.wrapping_add_signed(unzigzag(payload));
                if tag == TAG_STORE {
                    Op::store(last_addr)
                } else {
                    Op::Load { addr: last_addr, dep }
                }
            };
            ops.push(PackedOp::encode(op));
        }
        Ok(Traced {
            name: name.into(),
            threads: u32::from(threads.max(1)),
            footprint_bytes,
            trace: Arc::new(OpTrace { ops }),
        })
    }
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// ZigZag encoding for signed address deltas.
fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Parses one LEB128 varint off the front of `input`, rejecting any that
/// does not fit 64 bits instead of dropping its high bits.
fn take_varint(input: &mut &[u8]) -> io::Result<u64> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let Some((&byte, rest)) = input.split_first() else {
            return Err(io::ErrorKind::UnexpectedEof.into());
        };
        *input = rest;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            break;
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(invalid_data("varint exceeds 64 bits".into()))
}

impl Workload for Traced {
    fn name(&self) -> &str {
        &self.name
    }

    fn threads(&self) -> u32 {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        Box::new(self.trace.iter())
    }

    fn trace(&self) -> Arc<OpTrace> {
        Arc::clone(&self.trace)
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
        // One generation for the baseline collect, one for the cache fill
        // at `wrap`; the wrapper's ops() and trace() make no requests.
        assert_eq!(w.generated.load(Ordering::Relaxed), 2);
        assert_eq!(cache.generated(), 1);
        assert_eq!(cache.requests(), 1);
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

    fn traced(threads: u32, footprint_bytes: u64, ops: Vec<Op>) -> Traced {
        let trace = Arc::new(OpTrace::from_ops(ops));
        Traced {
            name: "codec".into(),
            threads,
            footprint_bytes,
            trace,
        }
    }

    fn encode(workload: &Traced) -> Vec<u8> {
        let mut buffer = Vec::new();
        workload.write_to(&mut buffer).expect("encodable");
        buffer
    }

    fn decode_error(bytes: &[u8]) -> io::ErrorKind {
        Traced::read_from(bytes, "bad").unwrap_err().kind()
    }

    /// Format version 1, byte for byte: a format change fails here even
    /// when the writer and reader change together.
    #[test]
    fn format_v1_bytes_are_pinned() {
        let ops = vec![
            Op::load(0x1000),
            Op::Load { addr: 0x1040, dep: 4 },
            Op::store(0x2000),
            Op::compute(300),
            Op::load(0x0fc0),
        ];
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0x54, 0x50, 0x4d, 0x43, 0x01, 0x00, 0x03, 0x00,
            0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x80, 0x40,
            0x44, 0x80, 0x01,
            0x01, 0x80, 0x3f,
            0x02, 0xac, 0x02,
            0x00, 0xff, 0x40,
        ];
        assert_eq!(encode(&traced(3, 1 << 20, ops.clone())), golden);
        let decoded = Traced::read_from(golden, "golden").expect("parse");
        assert_eq!(decoded.threads(), 3);
        assert_eq!(decoded.footprint_bytes(), 1 << 20);
        assert_eq!(decoded.ops().collect::<Vec<_>>(), ops);
    }

    #[test]
    fn round_trip_preserves_ops_exactly() {
        let ops = vec![
            Op::load(0),
            Op::load(64),
            Op::compute(7),
            Op::chase(4096),
            Op::Load { addr: 128, dep: 4 },
            Op::store(64),
            Op::store(1 << 30),
            Op::compute(1),
            // Deltas that overflow `i64` subtraction.
            Op::load(64),
            Op::store(1 << 63),
            Op::load(u64::MAX),
            Op::load(0),
            Op::compute(u32::MAX),
        ];
        let decoded = Traced::read_from(encode(&traced(4, 1 << 31, ops.clone())).as_slice(), "rt")
            .expect("parse");
        assert_eq!(decoded.name(), "rt");
        assert_eq!(decoded.threads(), 4);
        assert_eq!(decoded.footprint_bytes(), 1 << 31);
        assert_eq!(decoded.ops().collect::<Vec<_>>(), ops);
    }

    #[test]
    fn sequential_traces_compress_well() {
        let buffer = encode(&traced(1, 1 << 20, (0..10_000u64).map(|i| Op::load(i * 8)).collect()));
        // Delta encoding: one tag byte + one varint byte per op.
        assert!(buffer.len() < 10_000 * 3, "trace is {} bytes", buffer.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode_error(b"not a trace at all!!"), io::ErrorKind::InvalidData);
        let mut bad_version = encode(&traced(1, 0, vec![]));
        bad_version[4] = 2;
        assert_eq!(decode_error(&bad_version), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_header_is_rejected() {
        assert_eq!(decode_error(&[0x54, 0x50]), io::ErrorKind::UnexpectedEof);
        let mut truncated_record = encode(&traced(1, 0, vec![]));
        truncated_record.extend_from_slice(&[TAG_LOAD, 0x80]);
        assert_eq!(decode_error(&truncated_record), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buffer = encode(&traced(1, 0, vec![]));
        buffer.push(0xff);
        assert_eq!(decode_error(&buffer), io::ErrorKind::InvalidData);
    }

    #[test]
    fn varint_over_64_bits_is_rejected() {
        let mut buffer = encode(&traced(1, 0, vec![]));
        let header = buffer.len();
        // u64::MAX takes ten bytes, the last holding a single bit.
        buffer.push(TAG_COMPUTE);
        put_varint(&mut buffer, u64::MAX);
        assert_eq!(
            buffer[header + 1..],
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]
        );
        buffer[header] = TAG_STORE;
        assert_eq!(Traced::read_from(buffer.as_slice(), "max").unwrap().trace.len(), 1);
        *buffer.last_mut().unwrap() = 0x02;
        assert_eq!(decode_error(&buffer), io::ErrorKind::InvalidData);
    }

    #[test]
    fn compute_over_u32_cycles_is_rejected() {
        let mut buffer = encode(&traced(1, 0, vec![]));
        buffer.push(TAG_COMPUTE);
        put_varint(&mut buffer, u64::from(u32::MAX) + 1);
        assert_eq!(decode_error(&buffer), io::ErrorKind::InvalidData);
    }

    #[test]
    fn recorded_workload_replays_identically_through_the_engine() {
        use crate::{Machine, Platform};
        struct Mixed;
        impl Workload for Mixed {
            fn name(&self) -> &str {
                "trace-mixed"
            }
            fn footprint_bytes(&self) -> u64 {
                1 << 22
            }
            fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
                Box::new((0..20_000u64).map(|i| match i % 5 {
                    0 => Op::load((i.wrapping_mul(2654435761)) % (1 << 22)),
                    1 => Op::load(i * 8 % (1 << 22)),
                    2 => Op::chase((i.wrapping_mul(48271)) % (1 << 22)),
                    3 => Op::store(i * 64 % (1 << 22)),
                    _ => Op::compute(3),
                }))
            }
        }
        let buffer = encode(&TraceCache::new().wrap(&Mixed));
        let replayed = Traced::read_from(buffer.as_slice(), Mixed.name()).expect("parse");
        let machine = Machine::dram_only(Platform::Spr2s);
        let (a, b) = (machine.run(&Mixed), machine.run(&replayed));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }
}
