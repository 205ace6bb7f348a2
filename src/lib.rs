//! # CAMP — Causal Analytical Memory Prediction
//!
//! A reproduction of *"Performance Predictability in Heterogeneous Memory"*
//! (ASPLOS 2026). CAMP predicts the slowdown a workload suffers when its
//! memory lives on a slow tier (CXL expander or remote NUMA socket), or is
//! weighted-interleaved across DRAM and CXL — from a **single DRAM-only
//! profiling run** (plus one CXL run for bandwidth-bound workloads).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`pmu`] — the PMU counter vocabulary (Table 5) and derived metrics
//!   (latency, MLP, MPKI); per-epoch sampling lives in [`sim::Epoch`].
//! - [`sim`] — the hardware substrate: an out-of-order core model with
//!   finite LFB/SQ/SB buffers, hardware prefetchers, a cache hierarchy and
//!   queueing memory devices, replacing the CXL/NUMA testbed the paper used.
//! - [`workloads`] — 265 named synthetic workloads plus the calibration
//!   microbenchmark suite.
//! - [`model`] — the CAMP analytical models: per-component slowdown
//!   prediction (Eq. 5–7), interleaving synthesis (Eq. 8–10), Best-shot and
//!   colocation policies, calibration, and the baseline metrics of Table 1.
//! - [`policies`] — Best-shot as a tiering policy, the baseline
//!   tiering/interleaving systems it is compared against (Colloid, NBT,
//!   Caption, Alto, Soar, first-touch, static interleaving) and the §6.4
//!   hybrid, each deciding from the caller's DRAM-only run.
//!
//! # Quickstart
//!
//! ```no_run
//! use camp::model::{CampPredictor, Calibration};
//! use camp::sim::{DeviceKind, Machine, Platform};
//! use camp::workloads::suite;
//!
//! // Calibrate once per (platform, device) pair with microbenchmarks.
//! let platform = Platform::Spr2s;
//! let calibration = Calibration::fit(platform, DeviceKind::CxlA);
//! let predictor = CampPredictor::new(calibration);
//!
//! // Profile a workload on DRAM only...
//! let workload = suite().into_iter().next().unwrap();
//! let dram = Machine::dram_only(platform).run(workload.as_ref());
//!
//! // ...and predict its CXL slowdown without ever running it there.
//! let predicted = predictor.predict(&dram.counters);
//! assert!(predicted.total().is_finite());
//! ```

#![warn(missing_docs)]
pub use camp_core as model;
pub use camp_pmu as pmu;
pub use camp_policies as policies;
pub use camp_sim as sim;
pub use camp_workloads as workloads;
