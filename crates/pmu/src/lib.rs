//! Performance-monitoring-unit (PMU) counter model for CAMP.
//!
//! CAMP ("Causal Analytical Memory Prediction") predicts the slowdown a
//! workload suffers on a slow memory tier from counters collected during a
//! DRAM-only run. This crate defines the counter vocabulary — the 17 events
//! of Table 5 of the paper plus the cycle and instruction counts — together
//! with the container used to collect and snapshot them.
//!
//! The crate is hardware-independent: on the authors' testbed these events
//! map to Intel core/uncore PMU programming, while in this reproduction they
//! are updated by the `camp-sim` substrate. Everything downstream (the
//! analytical models in `camp-core`) consumes only [`CounterSet`] values, so
//! the model code is identical either way.
//!
//! # Example
//!
//! ```
//! use camp_pmu::{CounterSet, Event};
//!
//! let mut counters = CounterSet::new();
//! counters.add(Event::Cycles, 1_000);
//! counters.add(Event::OroDemandRd, 4_000);
//! counters.add(Event::OroCycWDemandRd, 500);
//! // Memory-level parallelism as the paper measures it: P11 / P13.
//! assert_eq!(camp_pmu::derived::mlp(&counters), Some(8.0));
//! ```

#![warn(missing_docs)]
pub mod derived;
pub mod event;
pub mod set;

pub use event::Event;
pub use set::CounterSet;
