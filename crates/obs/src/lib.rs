//! `camp-obs`: observability layer for the CAMP pipeline.
//!
//! Std-only (no external dependencies; the workspace builds offline).
//! Four pillars, mirroring how real heterogeneous-memory characterization
//! work instruments its runs:
//!
//! * **Epoch tapes** ([`tape`]) — per-epoch time series of the
//!   micro-architectural structures CAMP's model is built on (LFB/SQ/SB
//!   occupancy, per-tier loaded latency and queue depth, prefetch
//!   issue/lateness, retirement IPC). Recorded by the sim engine, the
//!   simulated analogue of the paper's PMU sampling run.
//! * **Structured spans** ([`span`]) — experiment/run/calibration scopes
//!   collected by a thread-safe [`Recorder`] in the bench harness,
//!   replacing ad-hoc stderr timings.
//! * **Histograms** ([`hist`]) — fixed-size, lock-free power-of-two
//!   latency histograms: the daemon's per-request telemetry and
//!   `loadgen`'s latency summary.
//! * **Exporters** ([`manifest`], [`chrome`]) — a deterministic JSON-lines
//!   run manifest and a Chrome trace-event document for
//!   `chrome://tracing` / Perfetto.
//!
//! [`json`] is the small in-tree JSON value/parser all exporters and the
//! `obs-check` validator share.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod span;
pub mod tape;

pub use hist::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use span::{AttrValue, Recorder, SpanRecord, SpanScope};
pub use tape::{Tape, TapeSample, TierTapeSample};
