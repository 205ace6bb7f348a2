//! The traced run's artifacts: per-layer self times folded from the
//! benchmark's own spans, the per-layer table, and the Chrome trace.
//!
//! Spans are recorded only by the benchmark, around its calls into each
//! layer's public functions; the program itself is not instrumented for
//! this. A layer's self time is its span's duration minus the durations of
//! its child spans.

use crate::report::{Report, PER_LAYER};
use camp_obs::{Recorder, SpanRecord};
use std::collections::BTreeMap;
use std::path::Path;

/// Self time per span category: `(count, self_us, total_us)`.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for record in records.iter().filter(|r| !r.is_event) {
        if let Some(parent) = record.parent {
            *child_us.entry(parent).or_default() += record.dur_us;
        }
    }
    let mut layers: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for record in records.iter().filter(|r| !r.is_event) {
        let children = child_us.get(&record.id).copied().unwrap_or(0);
        let entry = layers.entry(record.category).or_default();
        entry.0 += 1;
        entry.1 += record.dur_us.saturating_sub(children);
        entry.2 += record.dur_us;
    }
    layers
}

/// Appends the per-layer table to `report`: self time by span category,
/// then every per-layer metric with the base its ratio is taken over.
pub fn table(report: &mut Report, recorder: &Recorder, bases: &[(&str, String)]) {
    let layers = self_times(&recorder.records());
    let traced_us: u64 = layers.values().map(|&(_, self_us, _)| self_us).sum();
    report.line(format!("{:<28} {:>9} {:>12} {:>7}", "span layer", "count", "self_ms", "share"));
    for (category, (count, self_us, _)) in &layers {
        report.line(format!(
            "{:<28} {:>9} {:>12.3} {:>6.1}%",
            category,
            count,
            *self_us as f64 / 1e3,
            100.0 * *self_us as f64 / traced_us.max(1) as f64
        ));
    }
    report.line(format!("{:<30} {:>14} {:<7} base", "per-layer metric", "value", "unit"));
    for (name, unit) in PER_LAYER {
        let value = report.get(name).unwrap_or(0.0);
        let base = bases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("not exercised by this workload", |(_, b)| b.as_str());
        report.line(format!("{name:<30} {value:>14.4} {unit:<7} {base}"));
    }
}

/// Writes the recorder's spans as a Chrome trace (`chrome://tracing`,
/// Perfetto).
pub fn write_chrome(path: &Path, recorder: &Recorder) -> Result<(), String> {
    std::fs::write(path, camp_obs::chrome::render(recorder))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let recorder = Recorder::new();
        {
            let _job = recorder.scope("job", "w");
            let _child = recorder.scope("engine", "run");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let layers = self_times(&recorder.records());
        let (count, self_us, total_us) = layers["job"];
        assert_eq!(count, 1);
        assert!(self_us < total_us, "the engine child is not the job's self time");
        assert!(layers["engine"].1 >= 5_000);
    }
}
