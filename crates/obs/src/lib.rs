//! `camp-obs`: observability layer for the CAMP pipeline.
//!
//! Std-only (no external dependencies; the workspace builds offline).
//! Three pillars, mirroring how real heterogeneous-memory characterization
//! work instruments its runs (the per-epoch time series lives with the
//! engine, as `camp_sim::Epoch`):
//!
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

pub use hist::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use span::{AttrValue, Recorder, SpanRecord, SpanScope};
