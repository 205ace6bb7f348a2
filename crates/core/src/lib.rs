//! CAMP: Causal Analytical Memory Prediction — the paper's primary
//! contribution.
//!
//! This crate turns DRAM-run PMU counters into forecasts of slow-tier
//! behaviour:
//!
//! - [`Calibration`] fits the platform constants once per
//!   (platform, device) pair from microbenchmarks (§4.4.1);
//! - [`CampPredictor`] predicts the three slowdown components from a
//!   single DRAM run (Eq. 5–7);
//! - [`signature`] defines the counter-to-model-input mapping (§4.4.3) and
//!   the Melody-style ground-truth attribution used for evaluation.

#![warn(missing_docs)]
pub mod baselines;
pub mod calibration;
pub mod colocation;
pub mod error;
pub mod interleave;
pub mod model;
pub mod signature;
pub mod stats;

pub use baselines::BaselineMetric;
pub use calibration::Calibration;
pub use colocation::{ColocationOutcome, ColocationPolicy};
pub use error::ModelError;
pub use interleave::{best_shot, BestShot, Boundness, InterleaveModel};
pub use model::{CampPredictor, SlowdownPrediction};
pub use signature::{MeasuredComponents, Signature};

/// A minimal calibration probe set for unit tests: enough to exercise
/// every fitted constant while keeping the fit fast (five probes instead
/// of the full suite's 55).
#[cfg(test)]
pub(crate) fn tiny_probes() -> Vec<Box<dyn camp_sim::Workload>> {
    use camp_workloads::kernels::{PointerChase, StoreKernel, StorePattern, StridedRead};
    vec![
        Box::new(PointerChase::new("calib.t-chase-c1", 1, 1 << 19, 1, 40_000)),
        Box::new(PointerChase::new("calib.t-chase-c4", 1, 1 << 19, 4, 40_000)),
        Box::new(PointerChase::new("calib.t-chase-c12", 1, 1 << 19, 12, 40_000)),
        Box::new(StridedRead::new("calib.t-strided", 1, 1 << 19, 4, 2, 40_000)),
        Box::new(StoreKernel::new("calib.t-memset", 1, 64 << 20, StorePattern::Memset, 40_000)),
    ]
}
