//! Experiment harness regenerating every quantitative table and figure of
//! the CAMP paper.
//!
//! The `repro` binary dispatches over [`experiments::registry`]; each
//! experiment prints aligned tables and archives TSVs under `results/`.
//! See `DESIGN.md` for the experiment-to-paper index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured outcomes.

#![warn(missing_docs)]
pub mod corpus;
pub mod experiments;
pub mod explain;
pub mod harness;

/// The parallel map, re-exported from its home in `camp-sim`.
pub use camp_sim::par;

pub use harness::{Context, Table};

use std::io::Write;
use std::path::Path;

/// Why one experiment failed. The experiment id (and, for failures inside
/// an endpoint run, the platform/device/workload — enriched by
/// [`Context::run`]) travels with the error so a parallel sweep can report
/// every failure at the end, attributably, instead of dying on the first.
#[derive(Debug)]
pub enum ExperimentError {
    /// The id is not in the registry.
    UnknownId {
        /// The id that was requested.
        id: String,
    },
    /// Writing tables to the output stream or archiving TSVs failed.
    Io {
        /// Experiment that was being written.
        id: String,
        /// Underlying I/O error.
        error: std::io::Error,
    },
    /// The experiment itself failed (panicked); `detail` carries the panic
    /// payload, which names the failing endpoint run when the panic came
    /// from [`Context::run`].
    Failed {
        /// Experiment that failed.
        id: String,
        /// The panic payload.
        detail: String,
    },
}

impl ExperimentError {
    /// The id of the experiment the error belongs to.
    pub fn id(&self) -> &str {
        match self {
            ExperimentError::UnknownId { id }
            | ExperimentError::Io { id, .. }
            | ExperimentError::Failed { id, .. } => id,
        }
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownId { id } => {
                write!(f, "unknown experiment '{id}' (try `repro list`)")
            }
            ExperimentError::Io { id, error } => {
                write!(f, "i/o error while running {id}: {error}")
            }
            ExperimentError::Failed { id, detail } => {
                write!(f, "experiment {id} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else gets a placeholder).
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one experiment by id, printing tables to `out` and archiving TSVs
/// under `results_dir` (if provided).
///
/// Everything written to `out` is deterministic, so the stream is
/// byte-identical whether experiments run serially or are buffered by a
/// parallel driver (`repro --jobs`). The experiment's wall-clock is not
/// printed here — it is recorded as an `experiment` span on the context's
/// [`Context::recorder`]; the `repro` driver reports timings after the
/// sweep, in input order, so concurrent experiments cannot interleave
/// them on stderr.
///
/// Failures are isolated: a panic inside the experiment (an invalid
/// machine configuration, a degenerate model fit) is caught here and
/// returned as [`ExperimentError::Failed`], so one broken experiment
/// cannot abort the rest of a sweep. On failure `out` may hold a partial
/// buffer; callers that promise deterministic output should discard it.
pub fn run_experiment(
    id: &str,
    ctx: &Context,
    out: &mut dyn Write,
    results_dir: Option<&Path>,
) -> Result<(), ExperimentError> {
    let Some(experiment) = experiments::find(id) else {
        return Err(ExperimentError::UnknownId { id: id.to_string() });
    };
    let mut span = ctx.recorder().scope("experiment", experiment.id);
    let result = run_found(&experiment, ctx, out, results_dir);
    span.attr("ok", result.is_ok());
    if let Ok(tables) = &result {
        span.attr("tables", *tables);
    }
    result.map(|_| ())
}

/// The experiment body proper (everything the `experiment` span covers);
/// returns the number of tables rendered.
fn run_found(
    experiment: &experiments::Experiment,
    ctx: &Context,
    out: &mut dyn Write,
    results_dir: Option<&Path>,
) -> Result<usize, ExperimentError> {
    let id = experiment.id;
    let io = |error| ExperimentError::Io { id: id.to_string(), error };
    writeln!(out, "# {} — {}", experiment.id, experiment.description).map_err(io)?;
    let tables = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (experiment.run)(ctx)))
        .map_err(|payload| ExperimentError::Failed {
        id: id.to_string(),
        detail: panic_detail(payload.as_ref()),
    })?;
    for (i, table) in tables.iter().enumerate() {
        writeln!(out, "{}", table.render()).map_err(io)?;
        if let Some(dir) = results_dir {
            std::fs::create_dir_all(dir).map_err(io)?;
            let path = dir.join(format!("{}-{}.tsv", experiment.id, i));
            std::fs::write(path, table.to_tsv()).map_err(io)?;
        }
    }
    Ok(tables.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let registry = experiments::registry();
        let mut ids: Vec<&str> = registry.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry.len());
    }

    #[test]
    fn static_tables_run_through_the_driver() {
        let ctx = Context::new();
        let mut out = Vec::new();
        run_experiment("table5", &ctx, &mut out, None).expect("table5 runs");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("ORO_DEMAND_RD"));
    }

    #[test]
    fn unknown_experiment_is_a_typed_error() {
        let ctx = Context::new();
        let mut out = Vec::new();
        let error = run_experiment("no-such-id", &ctx, &mut out, None).unwrap_err();
        assert!(matches!(&error, ExperimentError::UnknownId { id } if id == "no-such-id"));
        assert_eq!(error.id(), "no-such-id");
        assert!(error.to_string().contains("no-such-id"));
    }
}
