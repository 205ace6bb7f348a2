//! Typed simulator errors.
//!
//! Every invalid machine/device/workload configuration is representable as
//! a [`SimError`] and is reported by [`Machine::validate`] before any
//! simulation state is built. Validation is the complete precondition of
//! a run, so the engine's internal asserts (`Device::new`, placement
//! checks) are unreachable once it passes. [`Machine::run`] validates
//! first and panics with the error's message, for call sites that treat
//! bad configuration as a programming error; callers that want the typed
//! error call `validate` themselves.
//!
//! [`Machine::validate`]: crate::engine::Machine::validate
//! [`Machine::run`]: crate::engine::Machine::run

use crate::config::DeviceKind;

/// An invalid simulator configuration, detected at construction/run time.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A device bandwidth figure is non-positive or non-finite.
    InvalidBandwidth {
        /// Device the bad figure belongs to.
        device: DeviceKind,
        /// Which bandwidth (`"read_bw"` / `"write_bw"`).
        what: &'static str,
        /// The offending value in bytes/s.
        value: f64,
    },
    /// A device idle latency is non-positive or non-finite.
    InvalidLatency {
        /// Device the bad figure belongs to.
        device: DeviceKind,
        /// The offending value in nanoseconds.
        value: f64,
    },
    /// A device latency spread is outside `[0, 1)` or non-finite (a spread
    /// of 1 or more would allow non-positive per-request latencies).
    InvalidLatencySpread {
        /// Device the bad figure belongs to.
        device: DeviceKind,
        /// The offending half-width fraction.
        value: f64,
    },
    /// The platform core frequency is non-positive or non-finite.
    InvalidFrequency {
        /// The offending value in GHz.
        value: f64,
    },
    /// A cache level has zero capacity or zero ways.
    InvalidCacheGeometry {
        /// Which level (`"l1"` / `"l2"` / `"l3"`).
        level: &'static str,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A core buffer (LFB, SuperQueue, Store Buffer, ROB, ...) has zero
    /// entries.
    InvalidBufferSize {
        /// Which buffer.
        buffer: &'static str,
    },
    /// The placement routes pages to a slow tier but the machine has no
    /// slow device configured.
    MissingSlowDevice,
    /// A background utilisation is outside `[0, 0.95]` or non-finite.
    InvalidBackgroundUtilisation {
        /// Which tier (`"fast"` / `"slow"`).
        tier: &'static str,
        /// The offending utilisation.
        value: f64,
    },
    /// The workload declares a zero-byte footprint, so no address can be
    /// generated or placed.
    EmptyFootprint {
        /// Workload name.
        workload: String,
    },
    /// The epoch sampling period is zero.
    InvalidSamplingPeriod,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidBandwidth { device, what, value } => {
                write!(f, "invalid {what} for device {device}: {value} bytes/s (must be positive and finite)")
            }
            SimError::InvalidLatency { device, value } => {
                write!(f, "invalid idle latency for device {device}: {value} ns (must be positive and finite)")
            }
            SimError::InvalidLatencySpread { device, value } => {
                write!(f, "invalid latency spread for device {device}: {value} (must be in [0, 1))")
            }
            SimError::InvalidFrequency { value } => {
                write!(f, "invalid core frequency: {value} GHz (must be positive and finite)")
            }
            SimError::InvalidCacheGeometry { level, reason } => {
                write!(f, "invalid {level} cache geometry: {reason}")
            }
            SimError::InvalidBufferSize { buffer } => {
                write!(f, "core buffer '{buffer}' must have at least one entry")
            }
            SimError::MissingSlowDevice => {
                write!(f, "placement routes pages to a slow tier but no slow device is configured")
            }
            SimError::InvalidBackgroundUtilisation { tier, value } => {
                write!(
                    f,
                    "invalid {tier}-tier background utilisation: {value} (must be in [0, 0.95])"
                )
            }
            SimError::EmptyFootprint { workload } => {
                write!(f, "workload '{workload}' declares a zero-byte footprint")
            }
            SimError::InvalidSamplingPeriod => write!(f, "epoch sampling period must be positive"),
        }
    }
}

impl std::error::Error for SimError {}
