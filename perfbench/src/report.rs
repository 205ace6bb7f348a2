//! Metric names, the result line, and the small statistics every workload
//! shares.

use camp_obs::Json;

/// End-to-end metrics `(name, unit)`: every workload reports every one of
/// them in an untraced run (see `README.md` for each workload's
/// definition).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_mops_per_s", "Mop/s"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: every workload reports every one of
/// them in a traced run; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("trace.build_ns_per_op.graph", "ns"),
    ("trace.build_ns_per_op.other", "ns"),
    ("trace.bytes_per_op", "B"),
    ("trace.cache_hit_ratio", "ratio"),
    ("engine.ns_per_op.dram", "ns"),
    ("engine.ns_per_op.slow", "ns"),
    ("engine.ns_per_op.interleaved", "ns"),
    ("engine.runs", "count"),
    ("calibration.fit_s", "s"),
    ("model.predict_us", "us"),
    ("model.bestshot_us", "us"),
    ("pred_pearson", "ratio"),
    ("pred_within10_pct", "%"),
    ("bestshot_err_pct", "points"),
    ("harness.parallel_efficiency", "ratio"),
    ("harness.cache_hits", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.req_bytes", "B"),
    ("protocol.resp_bytes", "B"),
    ("server.request_us", "us"),
    ("server.residual_us", "us"),
    ("server.shed", "count"),
    ("server.deadline_exceeded", "count"),
    ("server.protocol_errors", "count"),
    ("obs.spans_per_request", "count"),
    ("obs.rss_kb_per_1k_requests", "KB"),
    ("tracing.overhead_pct", "%"),
];

/// One workload run's outcome: what the result line carries, plus the
/// human-readable lines printed above it.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (suite jobs or predict requests).
    pub attempted: u64,
    /// Operations that failed: error answers, framing errors, failed runs
    /// and failed output checks.
    pub failed: u64,
    /// Output checks that failed (each also counts in `failed`).
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A metric value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Records a failed output check.
    pub fn check_failed(&mut self, what: String) {
        self.failed += 1;
        self.check_failures.push(what);
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line for `metrics` (every name must have been set; a
    /// missing or non-finite value is a benchmark bug).
    pub fn result_line(&self, metrics: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut members = Vec::with_capacity(metrics.len());
        for &(name, unit) in metrics {
            let value = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            members.push((
                name.to_string(),
                Json::obj(vec![("value", value.into()), ("unit", unit.into())]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(members)),
        ])
        .render())
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in (0, 100]) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A `/proc/<pid>/status` field in KiB (`pid` None = this process), e.g.
/// `VmHWM` (peak resident set) or `VmRSS`.
pub fn status_kb(pid: Option<u32>, field: &str) -> Result<u64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no {field} line"))
}

/// Host-speed yardstick: seconds for a fixed pseudo-random read-modify-
/// write walk over 4 MiB, in this benchmark's own code (no repository
/// code runs in it). On a shared host the speed of memory-bound code —
/// the simulator, JSON handling — drifts by tens of percent within
/// minutes as neighbours load the shared cache; read next to a
/// measurement, the yardstick says how fast the host was at the time
/// (correlation 0.75 with simulator job time on a 2-vCPU Xeon VM, where
/// it cut the spread of 10 s window means from 12 % to 4 %).
pub fn yardstick_s() -> f64 {
    const WORDS: usize = 1 << 20;
    let mut table: Vec<u32> = (0..WORDS as u32).map(|i| i.wrapping_mul(0x9e37_79b1)).collect();
    let start = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u32;
    for _ in 0..(1 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x as u32;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The yardstick reading that defines reference host speed (an
/// undisturbed 2-vCPU Xeon VM). Time metrics are reported at that speed:
/// multiplied by [`host_scale`] of the readings around them.
pub const YARDSTICK_REF_S: f64 = 0.015;

/// Factor converting a duration measured between yardstick `readings`
/// to reference host speed (below 1 when the host was slow).
pub fn host_scale(readings: &[f64]) -> f64 {
    YARDSTICK_REF_S / mean(readings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut report = Report { attempted: 3, ..Report::default() };
        report.set("setup_s", 1.5);
        let line = report.result_line(&[("setup_s", "s")]).expect("complete");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#
        );
        assert!(report.result_line(&END_TO_END).unwrap_err().contains("was not measured"));
        report.check_failed("bad answer".to_string());
        assert!(report.result_line(&[("setup_s", "s")]).unwrap().contains(r#""correct":false"#));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(status_kb(None, "VmHWM").expect("linux /proc") > 0);
    }
}
