//! Hardware substrate for the CAMP reproduction: an out-of-order core and
//! tiered-memory simulator.
//!
//! The paper's evaluation runs on Intel SKX/SPR/EMR servers with local DRAM,
//! a remote NUMA socket and three ASIC CXL 2.0 expanders. This crate
//! replaces that testbed with a mechanistic model of exactly the structures
//! CAMP's causal analysis is built on:
//!
//! - a cache hierarchy ([`cache`]) with hardware prefetchers ([`prefetch`]),
//! - finite miss-tracking buffers — the Line Fill Buffer and SuperQueue
//!   ([`inflight`]),
//! - a Store Buffer with in-order RFO drain ([`storebuf`]),
//! - queueing memory devices whose loaded latency and bandwidth ceilings
//!   emerge from finite service rates ([`mem`]),
//! - page-granular tier placement, including Linux-style weighted
//!   interleaving ([`placement`]),
//! - an out-of-order engine that attributes every exposed stall cycle to
//!   the PMU counter a real machine would attribute it to ([`engine`]),
//! - a compact op-trace layer with a single-flight cache ([`optrace`], on
//!   the generic [`memo::Memo`]) so one generated op stream feeds every
//!   engine run and every policy profiling pass; a trace holds the trace
//!   file's delta-varint records, so one trace-backed workload
//!   ([`Traced`]) writes any op stream to a file and replays memory
//!   traces captured outside this program,
//! - an order-preserving parallel map ([`par`]) that fans independent
//!   runs out over cores.
//!
//! Runs produce a [`RunReport`] holding the full Table 5 counter set, which
//! the `camp-core` models consume exactly as they would consume `perf`
//! output on real hardware.
//!
//! # Example
//!
//! ```
//! use camp_sim::{DeviceKind, Machine, Platform};
//! use camp_sim::op::{Op, Workload};
//!
//! struct Scan;
//! impl Workload for Scan {
//!     fn name(&self) -> &str { "scan" }
//!     fn footprint_bytes(&self) -> u64 { 1 << 22 }
//!     fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
//!         Box::new((0..(1u64 << 19)).map(|i| Op::load(i * 8)))
//!     }
//! }
//!
//! let dram = Machine::dram_only(Platform::Spr2s).run(&Scan);
//! let cxl = Machine::slow_only(Platform::Spr2s, DeviceKind::CxlA).run(&Scan);
//! assert!(cxl.slowdown_vs(&dram) >= 0.0);
//! ```

#![warn(missing_docs)]
pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod inflight;
pub mod mem;
pub mod memo;
pub mod op;
pub mod optrace;
pub mod par;
pub mod placement;
pub mod prefetch;
pub mod report;
pub mod storebuf;
pub mod sweep;

pub use config::{
    CacheGeometry, CounterFlavor, DeviceConfig, DeviceKind, Platform, PlatformConfig, LINE_BYTES,
    PAGE_BYTES,
};
pub use engine::Machine;
pub use error::SimError;
pub use op::{Op, Workload};
pub use optrace::{OpTrace, TraceCache, TraceStats, Traced};
pub use placement::{Placement, TierId};
pub use report::{Epoch, RunReport, TierReport};
