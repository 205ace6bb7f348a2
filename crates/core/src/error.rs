//! Typed model errors.
//!
//! The CAMP models consume measured run reports and sample series; any of
//! them can be degenerate (a NaN from an upstream division, an empty
//! sample set, a "slow" run that never touched a slow tier).
//! [`ModelError`] names the offending workload/series/value so a failure
//! deep inside a 265-workload sweep is attributable without a debugger.
//! The model entry points — [`Calibration::from_probe_runs`],
//! [`InterleaveModel::profile`], [`stats::error_summary`] — return these.
//! None of them simulates: each is a pure function of the runs or samples
//! its caller passes in.
//!
//! [`Calibration::from_probe_runs`]: crate::calibration::Calibration::from_probe_runs
//! [`InterleaveModel::profile`]: crate::interleave::InterleaveModel::profile
//! [`stats::error_summary`]: crate::stats::error_summary

/// A degenerate model input, detected at construction/fit time.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An endpoint run that should have executed on a slow tier carries no
    /// slow-tier report.
    MissingSlowTier {
        /// Workload whose run is missing the tier.
        workload: String,
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
    /// A signature's cycle count is below one cycle (the floor
    /// [`Signature::from_counters`] clamps to); every stall fraction
    /// divides by it, so a smaller value yields non-finite or unbounded
    /// predictions.
    ///
    /// [`Signature::from_counters`]: crate::signature::Signature::from_counters
    CyclesBelowOne {
        /// Workload (or request) whose signature is broken.
        workload: String,
        /// The offending cycle count.
        value: f64,
    },
    /// A tier endpoint taken from a run is unusable: its idle latency is
    /// negative or non-finite, or its full-load latency is non-finite.
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
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::MissingSlowTier { workload } => {
                write!(f, "endpoint run of '{workload}' has no slow tier")
            }
            ModelError::NonFiniteSignature { workload, field, value } => {
                write!(f, "signature of '{workload}' has non-finite {field}: {value}")
            }
            ModelError::CyclesBelowOne { workload, value } => {
                write!(f, "signature of '{workload}' has cycles {value}, below the 1-cycle floor")
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
        }
    }
}

impl std::error::Error for ModelError {}
