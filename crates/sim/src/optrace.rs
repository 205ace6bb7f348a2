//! Shared compact op traces: generate-once, encoded, cache-friendly.
//!
//! Kernels stay cheap *generators* ([`Workload::ops`]), but every consumer
//! of a workload — each engine run per (platform, device, placement), plus
//! the profiling passes of the tiering policies — wants the same dynamic
//! op stream. Regenerating it per consumer is the single largest cost in
//! the experiment harness (the graph kernels rebuild a whole CSR per
//! call). This module decouples generation from consumption:
//!
//! - [`OpTrace`] is an immutable op stream held as the trace file's
//!   delta-varint records (see [`Traced`]'s file format), ~3.7 bytes per op
//!   over the suite against 16 for the [`Op`] enum, built once and shared
//!   via `Arc` across engine runs, policies and threads. Its one encoder
//!   and one decoder are the file format's, so a file is its header plus
//!   the bytes a trace holds;
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

/// An immutable, materialised op stream in the trace file's record
/// encoding.
///
/// Built once from a generator (or any op iterator) or read from a file,
/// and then shared — typically as `Arc<OpTrace>` through a [`TraceCache`]
/// — by every consumer that would otherwise re-run the generator.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Op records, well-formed by construction: written by [`put_op`] or
    /// validated by [`Traced::read_from`].
    bytes: Box<[u8]>,
    len: usize,
}

impl OpTrace {
    /// Materialises a trace from any op stream.
    pub fn from_ops(ops: impl IntoIterator<Item = Op>) -> OpTrace {
        let (mut bytes, mut len, mut last_addr) = (Vec::new(), 0, 0);
        for op in ops {
            put_op(&mut bytes, &mut last_addr, op);
            len += 1;
        }
        OpTrace { bytes: bytes.into_boxed_slice(), len }
    }

    /// Materialises a workload's full op stream.
    pub fn from_workload(workload: &dyn Workload) -> OpTrace {
        Self::from_ops(workload.ops())
    }

    /// Decoded ops, element-for-element equal to the generating stream.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        Records { rest: &self.bytes, last_addr: 0 }
    }

    /// Number of ops in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded records in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// The one decoder of op records: the unread bytes and the address the
/// next load or store delta applies to.
struct Records<'a> {
    rest: &'a [u8],
    last_addr: u64,
}

impl Records<'_> {
    /// Decodes the next record, or `None` at the end of the bytes.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an unknown tag, a long-dependence load whose
    /// `dep` fits a chase tag, a varint over 64 bits or a compute op over
    /// `u32::MAX` cycles; `UnexpectedEof` for a truncated record.
    #[inline(always)]
    fn try_next(&mut self) -> io::Result<Option<Op>> {
        let Some((&tag, rest)) = self.rest.split_first() else {
            return Ok(None);
        };
        self.rest = rest;
        let dep = match tag {
            TAG_LOAD | TAG_STORE | TAG_COMPUTE => 0,
            TAG_LOAD_DEP => match self.rest.split_first() {
                Some((&dep, rest)) if dep > MAX_CHASE_DEP => {
                    self.rest = rest;
                    dep
                }
                Some((dep, _)) => {
                    return Err(invalid_data(format!("long-dependence load of dep {dep}")))
                }
                None => return Err(io::ErrorKind::UnexpectedEof.into()),
            },
            t if (TAG_CHASE_BASE + 1..=TAG_CHASE_BASE + MAX_CHASE_DEP).contains(&t) => {
                t - TAG_CHASE_BASE
            }
            other => return Err(invalid_data(format!("unknown op tag {other}"))),
        };
        let payload = take_varint(&mut self.rest)?;
        if tag == TAG_COMPUTE {
            return match u32::try_from(payload) {
                Ok(cycles) => Ok(Some(Op::compute(cycles))),
                Err(_) => Err(invalid_data(format!("compute op of {payload} cycles exceeds u32"))),
            };
        }
        self.last_addr = self.last_addr.wrapping_add_signed(unzigzag(payload));
        Ok(Some(if tag == TAG_STORE {
            Op::store(self.last_addr)
        } else {
            Op::Load { addr: self.last_addr, dep }
        }))
    }
}

impl Iterator for Records<'_> {
    type Item = Op;

    #[inline(always)]
    fn next(&mut self) -> Option<Op> {
        self.try_next().expect("trace records are well-formed by construction")
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

    /// Total encoded bytes held by the cache.
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
    /// Encoded size in bytes ([`OpTrace::packed_bytes`]).
    pub packed_bytes: usize,
}

/// A workload backed by a materialised op trace: a generated workload
/// resolved through [`TraceCache::wrap`], or an application's memory
/// trace captured outside this program and loaded with
/// [`Traced::read_from`]. Cloning shares the trace.
///
/// # File format (version 2)
///
/// A 16-byte little-endian header — magic `"TPMC"` (`u32` `0x434d5054`),
/// version (`u16`), thread count (`u16`), footprint in bytes (`u64`) —
/// then one record per op: a tag byte and a LEB128 varint payload. Tag
/// 0 is a load, `0x40 + dep` a dependent load (`dep` 1..=64), 3 a load
/// whose `dep` (65..=255) follows as one byte, 1 a store (all loads and
/// stores carry the ZigZag-encoded address delta from the previous load
/// or store address, starting at 0), and 2 a compute op (its cycles).
/// Sequential scans cost ~2 bytes per op. An [`OpTrace`] holds exactly
/// these records, so a file is its header plus the trace's bytes.
///
/// Version 1 is version 2 without tag 3; the reader accepts both.
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
const VERSION: u16 = 2;
const HEADER_BYTES: usize = 16;
const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_COMPUTE: u8 = 2;
/// A load whose `dep` exceeds [`MAX_CHASE_DEP`]; the `dep` byte follows.
const TAG_LOAD_DEP: u8 = 3;
/// Dependent loads up to [`MAX_CHASE_DEP`] take tag `TAG_CHASE_BASE + dep`.
const TAG_CHASE_BASE: u8 = 0x40;
/// Largest load dependency distance a chase tag encodes.
const MAX_CHASE_DEP: u8 = 64;

impl Traced {
    /// Writes the header, then the trace's records as they are stored.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, writing nothing, if `threads` exceeds the
    /// header's 16 bits; propagates I/O errors from `out`.
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
        let header = [
            &MAGIC.to_le_bytes()[..],
            &VERSION.to_le_bytes(),
            &threads.to_le_bytes(),
            &self.footprint_bytes.to_le_bytes(),
        ]
        .concat();
        out.write_all(&header)?;
        out.write_all(&self.trace.bytes)?;
        out.flush()
    }

    /// Reads a trace in the file format above, version 1 or 2: the header,
    /// then one `read_to_end` and one validation pass over the records,
    /// which the trace then keeps as they are. A header thread count of 0
    /// loads as 1.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic or version, an unknown tag
    /// (tag 3 in a version 1 file), a varint over 64 bits or a compute op
    /// over `u32::MAX` cycles, and `UnexpectedEof` for a truncated header
    /// or record; propagates I/O errors from `input`.
    pub fn read_from(mut input: impl Read, name: impl Into<String>) -> io::Result<Traced> {
        let mut header = [0u8; HEADER_BYTES];
        input.read_exact(&mut header)?;
        if header[..4] != MAGIC.to_le_bytes() {
            return Err(invalid_data("not a CAMP trace".into()));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if !(1..=VERSION).contains(&version) {
            return Err(invalid_data(format!("unsupported trace version {version}")));
        }
        let threads = u16::from_le_bytes([header[6], header[7]]);
        let footprint_bytes = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        let mut records = Records { rest: &bytes, last_addr: 0 };
        let mut len = 0;
        while let Some(op) = records.try_next()? {
            if version == 1 && matches!(op, Op::Load { dep, .. } if dep > MAX_CHASE_DEP) {
                return Err(invalid_data(format!("unknown op tag {TAG_LOAD_DEP} in version 1")));
            }
            len += 1;
        }
        Ok(Traced {
            name: name.into(),
            threads: u32::from(threads.max(1)),
            footprint_bytes,
            trace: Arc::new(OpTrace { bytes: bytes.into_boxed_slice(), len }),
        })
    }
}

#[cold]
fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The one encoder of op records: appends `op`'s record to `buf`.
fn put_op(buf: &mut Vec<u8>, last_addr: &mut u64, op: Op) {
    let mut delta =
        |addr: u64| zigzag(addr.wrapping_sub(std::mem::replace(last_addr, addr)) as i64);
    let payload = match op {
        Op::Load { addr, dep: 0 } => {
            buf.push(TAG_LOAD);
            delta(addr)
        }
        Op::Load { addr, dep: dep @ 1..=MAX_CHASE_DEP } => {
            buf.push(TAG_CHASE_BASE + dep);
            delta(addr)
        }
        Op::Load { addr, dep } => {
            buf.extend([TAG_LOAD_DEP, dep]);
            delta(addr)
        }
        Op::Store { addr } => {
            buf.push(TAG_STORE);
            delta(addr)
        }
        Op::Compute { cycles } => {
            buf.push(TAG_COMPUTE);
            u64::from(cycles)
        }
    };
    put_varint(buf, payload);
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
#[inline(always)]
fn take_varint(input: &mut &[u8]) -> io::Result<u64> {
    let mut value = 0u64;
    for (i, &byte) in input.iter().take(10).enumerate() {
        let bits = u64::from(byte & 0x7f);
        if i == 9 && bits > 1 {
            break;
        }
        value |= bits << (7 * i);
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(value);
        }
    }
    Err(if input.len() < 10 {
        io::ErrorKind::UnexpectedEof.into()
    } else {
        invalid_data("varint exceeds 64 bits".into())
    })
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
    fn trace_matches_generator_element_for_element() {
        let trace = OpTrace::from_ops(sample_ops());
        assert_eq!(trace.len(), sample_ops().len());
        assert!(!trace.is_empty());
        let decoded: Vec<Op> = trace.iter().collect();
        assert_eq!(decoded, sample_ops());
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
        // A tag byte and a one-byte delta per load.
        assert_eq!(stats[0].packed_bytes, 200);
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

    /// Format version 1, byte for byte, as its writer wrote it: the
    /// reader still parses it to the same ops.
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
        let decoded = Traced::read_from(golden, "golden").expect("parse");
        assert_eq!(decoded.threads(), 3);
        assert_eq!(decoded.footprint_bytes(), 1 << 20);
        assert_eq!(decoded.ops().collect::<Vec<_>>(), ops);
        // Version 2 moved only the header's version field for these ops.
        let mut as_v2 = golden.to_vec();
        as_v2[4] = 2;
        assert_eq!(encode(&traced(3, 1 << 20, ops)), as_v2);
    }

    /// Format version 2, byte for byte: a format change fails here even
    /// when the writer and reader change together.
    #[test]
    fn format_v2_bytes_are_pinned() {
        let ops = vec![
            Op::load(0x1000),
            Op::Load { addr: 0x1040, dep: 4 },
            Op::Load { addr: 0x1000, dep: 106 },
            Op::store(0x2000),
            Op::compute(300),
            Op::Load { addr: 0x0fc0, dep: 255 },
        ];
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0x54, 0x50, 0x4d, 0x43, 0x02, 0x00, 0x03, 0x00,
            0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x80, 0x40,
            0x44, 0x80, 0x01,
            0x03, 0x6a, 0x7f,
            0x01, 0x80, 0x40,
            0x02, 0xac, 0x02,
            0x03, 0xff, 0xff, 0x40,
        ];
        let trace = traced(3, 1 << 20, ops.clone());
        assert_eq!(encode(&trace), golden);
        assert_eq!(trace.trace.packed_bytes(), golden.len() - HEADER_BYTES);
        let decoded = Traced::read_from(golden, "golden").expect("parse");
        assert_eq!(decoded.threads(), 3);
        assert_eq!(decoded.footprint_bytes(), 1 << 20);
        assert_eq!(decoded.ops().collect::<Vec<_>>(), ops);
        // The same records under a version 1 header hold a tag v1 lacks.
        let mut as_v1 = golden.to_vec();
        as_v1[4] = 1;
        assert_eq!(decode_error(&as_v1), io::ErrorKind::InvalidData);
    }

    #[test]
    fn long_dependence_tag_must_carry_a_long_dependence() {
        let mut buffer = encode(&traced(1, 0, vec![]));
        buffer.extend_from_slice(&[TAG_LOAD_DEP, MAX_CHASE_DEP, 0x00]);
        assert_eq!(decode_error(&buffer), io::ErrorKind::InvalidData);
        buffer.truncate(HEADER_BYTES + 1);
        assert_eq!(decode_error(&buffer), io::ErrorKind::UnexpectedEof);
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
        for version in [0, 3] {
            bad_version[4] = version;
            assert_eq!(decode_error(&bad_version), io::ErrorKind::InvalidData);
        }
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
