//! Typed model errors.
//!
//! The CAMP models consume measured run reports and sample series; any of
//! them can be degenerate (a run that never touched memory, a NaN from an
//! upstream division, an empty sample set). [`ModelError`] names the
//! offending workload/series/value so a failure deep inside a 265-workload
//! sweep is attributable without a debugger. The fallible entry points —
//! [`Calibration::from_probe_runs`], [`InterleaveModel::try_profile`],
//! [`stats::try_error_summary`] — return these; the legacy panicking APIs
//! remain as thin wrappers.
//!
//! [`Calibration::from_probe_runs`]: crate::calibration::Calibration::from_probe_runs
//! [`InterleaveModel::try_profile`]: crate::interleave::InterleaveModel::try_profile
//! [`stats::try_error_summary`]: crate::stats::try_error_summary

use camp_sim::SimError;

/// A degenerate model input, detected at construction/fit time.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An endpoint run that should have executed on a slow tier carries no
    /// slow-tier report.
    MissingSlowTier {
        /// Workload whose run is missing the tier.
        workload: String,
    },
    /// A run is too degenerate to classify or model (e.g. a DRAM run that
    /// served no demand reads, so no loaded latency exists).
    DegenerateRun {
        /// Workload whose run is degenerate.
        workload: String,
        /// What makes it degenerate.
        reason: &'static str,
    },
    /// A counter-derived signature field is NaN or infinite.
    NonFiniteSignature {
        /// Workload whose signature is broken.
        workload: String,
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An explicitly supplied tier endpoint is inverted (full-load latency
    /// below unloaded latency) or non-finite.
    InvalidEndpoint {
        /// Unloaded latency in cycles.
        idle: f64,
        /// Full-load latency in cycles.
        full: f64,
    },
    /// A sample value in a named series is NaN or infinite.
    NonFiniteSample {
        /// Which series (`"predicted"`, `"actual"`, ...).
        series: &'static str,
        /// Index of the offending sample.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A sample series that must be non-empty is empty.
    EmptySeries {
        /// Which series.
        series: &'static str,
    },
    /// Two series that must pair up have different lengths.
    MismatchedSeries {
        /// Length of the first series.
        left: usize,
        /// Length of the second series.
        right: usize,
    },
    /// Calibration was requested with no probe workloads.
    NoProbes,
    /// An underlying simulation run was rejected.
    Sim(SimError),
}

impl From<SimError> for ModelError {
    fn from(error: SimError) -> Self {
        ModelError::Sim(error)
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::MissingSlowTier { workload } => {
                write!(f, "endpoint run of '{workload}' has no slow tier")
            }
            ModelError::DegenerateRun { workload, reason } => {
                write!(f, "degenerate run of '{workload}': {reason}")
            }
            ModelError::NonFiniteSignature { workload, field, value } => {
                write!(f, "signature of '{workload}' has non-finite {field}: {value}")
            }
            ModelError::InvalidEndpoint { idle, full } => {
                write!(
                    f,
                    "invalid tier endpoint: idle latency {idle} vs full-load latency {full} \
                     (both must be finite and full >= idle >= 0)"
                )
            }
            ModelError::NonFiniteSample { series, index, value } => {
                write!(f, "series '{series}' has non-finite sample at index {index}: {value}")
            }
            ModelError::EmptySeries { series } => {
                write!(f, "series '{series}' is empty (need at least one sample)")
            }
            ModelError::MismatchedSeries { left, right } => {
                write!(f, "paired series have mismatched lengths: {left} vs {right}")
            }
            ModelError::NoProbes => write!(f, "calibration needs at least one probe workload"),
            ModelError::Sim(error) => write!(f, "simulation rejected: {error}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Sim(error) => Some(error),
            _ => None,
        }
    }
}
