//! Op-trace recording and replay.
//!
//! The synthetic suite covers the paper's evaluation, but a downstream
//! user of this library typically has *their own* application and wants
//! CAMP predictions for it. This module provides a compact binary trace
//! format so memory traces captured elsewhere (a PIN/DynamoRIO tool, a
//! full-system simulator, a hardware trace) can be replayed through the
//! substrate and profiled exactly like a built-in workload.
//!
//! Format: a 12-byte header (`magic`, version, thread count, footprint)
//! followed by one record per op — a tag byte and a varint payload.
//! Load/store addresses are delta-encoded against the previous address,
//! which compresses sequential patterns to ~2 bytes per op.
//!
//! # Example
//!
//! ```
//! use camp_sim::trace::{TraceReader, TraceWriter};
//! use camp_sim::{Machine, Op, Platform, Workload};
//!
//! let mut buffer = Vec::new();
//! let mut writer = TraceWriter::new(&mut buffer, 1, 1 << 20)?;
//! for i in 0..1000u64 {
//!     writer.record(Op::load((i * 64) % (1 << 20)))?;
//!     writer.record(Op::compute(2))?;
//! }
//! writer.finish()?;
//!
//! let workload = TraceReader::from_bytes(&buffer, "my-app")?;
//! let report = Machine::dram_only(Platform::Spr2s).run(&workload);
//! assert!(report.instructions > 0);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::op::{Op, Workload};
use crate::optrace::OpTrace;
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: u32 = 0x434d_5054; // "CMPT"
const VERSION: u16 = 1;

const TAG_LOAD: u8 = 0;
const TAG_CHASE_BASE: u8 = 0x40; // 0x40 + dep for dependent loads
/// Largest load dependency distance the format encodes (tags up to 0x80).
const MAX_DEP: u8 = 64;
const TAG_STORE: u8 = 1;
const TAG_COMPUTE: u8 = 2;

fn write_varint(out: &mut impl Write, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(input: &mut impl Read) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0;
    loop {
        let mut byte = [0u8];
        input.read_exact(&mut byte)?;
        value |= ((byte[0] & 0x7f) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflow"));
        }
    }
}

/// ZigZag encoding for signed address deltas.
fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Streams ops into a compact binary trace.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    last_addr: u64,
    ops: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace with the workload's thread count and footprint.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if `threads` exceeds the header's 16-bit
    /// field, and propagates I/O errors from the underlying writer.
    pub fn new(mut out: W, threads: u32, footprint_bytes: u64) -> io::Result<Self> {
        let threads = u16::try_from(threads).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{threads} threads do not fit the trace header (at most {})", u16::MAX),
            )
        })?;
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&threads.to_le_bytes())?;
        out.write_all(&footprint_bytes.to_le_bytes())?;
        Ok(TraceWriter { out, last_addr: 0, ops: 0 })
    }

    /// Appends one op.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, writing nothing, for a load whose `dep`
    /// exceeds 64 (the format's largest dependency distance), and
    /// propagates I/O errors from the underlying writer.
    pub fn record(&mut self, op: Op) -> io::Result<()> {
        if let Op::Load { dep, .. } = op {
            if dep > MAX_DEP {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("load dependency distance {dep} exceeds the trace format's {MAX_DEP}"),
                ));
            }
        }
        self.ops += 1;
        match op {
            Op::Load { addr, dep } => {
                let tag = if dep == 0 { TAG_LOAD } else { TAG_CHASE_BASE + dep };
                self.out.write_all(&[tag])?;
                write_varint(&mut self.out, zigzag(addr as i64 - self.last_addr as i64))?;
                self.last_addr = addr;
            }
            Op::Store { addr } => {
                self.out.write_all(&[TAG_STORE])?;
                write_varint(&mut self.out, zigzag(addr as i64 - self.last_addr as i64))?;
                self.last_addr = addr;
            }
            Op::Compute { cycles } => {
                self.out.write_all(&[TAG_COMPUTE])?;
                write_varint(&mut self.out, cycles as u64)?;
            }
        }
        Ok(())
    }

    /// Number of ops recorded so far.
    pub fn ops_recorded(&self) -> u64 {
        self.ops
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A recorded trace, replayable as a [`Workload`].
///
/// The parsed ops are held as a shared packed [`OpTrace`], so cloning a
/// reader and running it on many machines shares one materialisation.
#[derive(Debug, Clone)]
pub struct TraceReader {
    name: String,
    threads: u32,
    footprint_bytes: u64,
    ops: Arc<OpTrace>,
}

impl TraceReader {
    /// Parses a trace from bytes.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic/version and propagates
    /// truncation errors.
    pub fn from_bytes(bytes: &[u8], name: impl Into<String>) -> io::Result<Self> {
        Self::from_reader(&mut io::Cursor::new(bytes), name)
    }

    /// Parses a trace from a reader (e.g. a file).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic/version and propagates I/O
    /// errors.
    pub fn from_reader(input: &mut impl Read, name: impl Into<String>) -> io::Result<Self> {
        let mut header = [0u8; 16];
        input.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("slice of 4"));
        if magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a CAMP trace"));
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("slice of 2"));
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {version}"),
            ));
        }
        let threads = u16::from_le_bytes(header[6..8].try_into().expect("slice of 2")) as u32;
        let footprint_bytes = u64::from_le_bytes(header[8..16].try_into().expect("slice of 8"));
        let mut ops = Vec::new();
        let mut last_addr = 0u64;
        let mut tag = [0u8];
        loop {
            match input.read_exact(&mut tag) {
                Ok(()) => {}
                Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(err) => return Err(err),
            }
            match tag[0] {
                TAG_COMPUTE => {
                    let cycles = read_varint(input)?;
                    ops.push(Op::compute(cycles.min(u32::MAX as u64) as u32));
                }
                TAG_STORE => {
                    let delta = unzigzag(read_varint(input)?);
                    last_addr = last_addr.wrapping_add_signed(delta);
                    ops.push(Op::store(last_addr));
                }
                t if t == TAG_LOAD || (TAG_CHASE_BASE..=TAG_CHASE_BASE + MAX_DEP).contains(&t) => {
                    let dep = if t == TAG_LOAD { 0 } else { t - TAG_CHASE_BASE };
                    let delta = unzigzag(read_varint(input)?);
                    last_addr = last_addr.wrapping_add_signed(delta);
                    ops.push(Op::Load { addr: last_addr, dep });
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown op tag {other}"),
                    ));
                }
            }
        }
        Ok(TraceReader {
            name: name.into(),
            threads: threads.max(1),
            footprint_bytes,
            ops: Arc::new(OpTrace::from_ops(ops)),
        })
    }

    /// Number of ops in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Workload for TraceReader {
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
        Box::new(self.ops.iter())
    }

    fn trace(&self) -> Arc<OpTrace> {
        Arc::clone(&self.ops)
    }
}

/// Records an existing workload's op stream into a trace buffer
/// (convenient for snapshotting generated workloads).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn record_workload(workload: &dyn Workload) -> io::Result<Vec<u8>> {
    let mut buffer = Vec::new();
    let mut writer = TraceWriter::new(&mut buffer, workload.threads(), workload.footprint_bytes())?;
    for op in workload.ops() {
        writer.record(op)?;
    }
    writer.finish()?;
    Ok(buffer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::load(0),
            Op::load(64),
            Op::compute(7),
            Op::chase(4096),
            Op::Load { addr: 128, dep: 4 },
            Op::store(64),
            Op::store(1 << 30),
            Op::compute(1),
        ]
    }

    #[test]
    fn round_trip_preserves_ops_exactly() {
        let mut buffer = Vec::new();
        let mut writer = TraceWriter::new(&mut buffer, 4, 1 << 31).expect("header");
        for op in sample_ops() {
            writer.record(op).expect("record");
        }
        assert_eq!(writer.ops_recorded(), 8);
        writer.finish().expect("flush");

        let trace = TraceReader::from_bytes(&buffer, "round-trip").expect("parse");
        assert_eq!(trace.threads(), 4);
        assert_eq!(trace.footprint_bytes(), 1 << 31);
        let replayed: Vec<Op> = trace.ops().collect();
        assert_eq!(replayed, sample_ops());
    }

    #[test]
    fn sequential_traces_compress_well() {
        let mut buffer = Vec::new();
        let mut writer = TraceWriter::new(&mut buffer, 1, 1 << 20).expect("header");
        for i in 0..10_000u64 {
            writer.record(Op::load(i * 8)).expect("record");
        }
        writer.finish().expect("flush");
        // Delta encoding: one tag byte + one varint byte per op.
        assert!(buffer.len() < 10_000 * 3, "trace is {} bytes", buffer.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::from_bytes(b"not a trace at all!!", "bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_header_is_rejected() {
        let err = TraceReader::from_bytes(&[0x54, 0x50], "short").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buffer = Vec::new();
        let writer = TraceWriter::new(&mut buffer, 1, 0).expect("header");
        writer.finish().expect("flush");
        buffer.push(0xff);
        let err = TraceReader::from_bytes(&buffer, "bad-tag").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn recorded_workload_replays_identically_through_the_engine() {
        use crate::{Machine, Platform};
        let original = camp_like_workload();
        let buffer = record_workload(&original).expect("record");
        let trace = TraceReader::from_bytes(&buffer, original.name()).expect("parse");
        let machine = Machine::dram_only(Platform::Spr2s);
        let a = machine.run(&original);
        let b = machine.run(&trace);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    /// Small deterministic mixed workload for the replay test.
    fn camp_like_workload() -> impl Workload {
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
        Mixed
    }
}
