//! Shared experiment infrastructure: cached simulation runs, calibrations
//! fitted from them, and plain-text table output.
//!
//! Several experiments consume the same (platform, device) endpoint runs
//! of the full 265-workload suite; the [`Context`] memoises them so
//! `repro all` pays for each run once. The cache is thread-safe with
//! single-flight semantics: experiments running on different threads (and
//! [`Context::prefetch_runs`] fan-outs within an experiment) share one
//! cache, and two threads requesting the same endpoint run never simulate
//! it twice — the second blocks until the first finishes.

use camp_core::{Calibration, CampPredictor};
use camp_obs::Recorder;
use camp_sim::memo::Memo;
use camp_sim::par;
use camp_sim::{DeviceKind, Machine, Platform, RunReport, TraceCache, Workload};
use std::sync::Arc;

/// Cache key for one endpoint run: platform, slow device (`None` = DRAM
/// only), workload name.
type RunKey = (Platform, Option<DeviceKind>, String);

/// Memoising experiment context, shareable across threads.
pub struct Context {
    runs: Memo<RunKey, RunReport>,
    traces: TraceCache,
    obs: Recorder,
    jobs: usize,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            runs: Memo::default(),
            traces: TraceCache::new(),
            obs: Recorder::new(),
            jobs: par::default_jobs(),
        }
    }
}

impl Context {
    /// Creates an empty context using every available core for prefetch
    /// fan-outs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads [`Context::prefetch_runs`] uses
    /// (`1` disables intra-experiment parallelism).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured prefetch fan-out width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs (or recalls) `workload` on `platform`, entirely on DRAM
    /// (`device = None`) or entirely on the given slow tier.
    ///
    /// Concurrent calls with the same key are single-flight: exactly one
    /// thread simulates, the rest block on the [`Memo`] and share the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation rejects the configuration (see
    /// [`Machine::validate`]); the message names the platform, device,
    /// and workload, so a failure surfacing through a parallel sweep is
    /// attributable. A failed run leaves its memo entry empty (not
    /// wedged): later requests for the same key retry, and other keys are
    /// unaffected.
    pub fn run(
        &self,
        platform: Platform,
        device: Option<DeviceKind>,
        workload: &dyn Workload,
    ) -> Arc<RunReport> {
        let key = (platform, device, workload.name().to_string());
        self.runs.get_or_compute(&key, || {
            let device_label = match device {
                None => "dram-only".to_string(),
                Some(kind) => kind.to_string(),
            };
            // Run spans are rooted, not nested: under a parallel sweep the
            // single-flight winner is scheduling-dependent, and the span
            // tree must not be.
            let span_name = format!("{platform}/{device_label}/{}", workload.name());
            let mut span = self.obs.scope_rooted("run", span_name.clone());
            let machine = match device {
                None => Machine::dram_only(platform),
                Some(kind) => Machine::slow_only(platform, kind),
            };
            // Route through the shared trace cache: the op stream is
            // generated once per workload, not once per endpoint run.
            let traced = self.traces.wrap(workload);
            // `try_run` validates first; once validation passes no engine
            // assertion can fire, so there is no panic to catch here.
            match machine.try_run(&traced) {
                Ok(report) => {
                    span.attr("cycles", report.cycles);
                    span.attr("instructions", report.instructions);
                    span.attr("seconds", report.seconds);
                    self.note_report_anomalies(&span_name, &report);
                    report
                }
                Err(error) => {
                    span.attr("ok", false);
                    panic!(
                        "endpoint run failed (platform {platform}, device {device_label}, \
                         workload '{}'): invalid machine configuration: {error}",
                        workload.name(),
                    );
                }
            }
        })
    }

    /// Flags degenerate reports on the span layer. A non-positive duration
    /// makes rate-style metrics ([`camp_sim::TierReport::read_bandwidth`],
    /// IPC-per-second) silently collapse to zero, so instead of letting
    /// that propagate quietly the report is surfaced in the manifest as an
    /// `anomaly` event parented under the run's span.
    fn note_report_anomalies(&self, run: &str, report: &RunReport) {
        if report.seconds > 0.0 {
            return;
        }
        self.obs.event(
            "anomaly",
            "degenerate-duration",
            vec![
                ("run", run.into()),
                ("seconds", report.seconds.into()),
                ("cycles", report.cycles.into()),
                ("detail", "rate metrics (bandwidth, op/s) degenerate to 0".into()),
            ],
        );
    }

    /// The shared op-trace cache. Experiments that execute workloads
    /// outside [`Context::run`] (policy evaluations, custom placements)
    /// wrap them with [`TraceCache::wrap`] so every consumer shares one
    /// generated trace per workload.
    pub fn traces(&self) -> &TraceCache {
        &self.traces
    }

    /// Simulates every listed endpoint run that is not already cached,
    /// fanning out across [`Context::jobs`] worker threads. Experiments
    /// call this up front with their full endpoint-run set so independent
    /// runs overlap; the subsequent serial `run` calls all hit the cache.
    pub fn prefetch_runs(&self, runs: &[(Platform, Option<DeviceKind>, &dyn Workload)]) {
        par::par_map(self.jobs, runs, |&(platform, device, workload)| {
            self.run(platform, device, workload);
        });
    }

    /// Prefetches both endpoint runs (DRAM and `device`) of every workload
    /// in `suite` on `platform` — the common preamble of the suite-scale
    /// experiments.
    pub fn prefetch_suite(
        &self,
        platform: Platform,
        device: DeviceKind,
        suite: &[Box<dyn Workload>],
    ) {
        let runs: Vec<(Platform, Option<DeviceKind>, &dyn Workload)> = suite
            .iter()
            .flat_map(|workload| {
                let workload: &dyn Workload = workload.as_ref();
                [
                    (platform, None, workload),
                    (platform, Some(device), workload),
                ]
            })
            .collect();
        self.prefetch_runs(&runs);
    }

    /// The calibration for a (platform, device) pair: a pure fit over the
    /// calibration suite's probe runs, which come from [`Context::run`] —
    /// memoized, fanned out over [`Context::jobs`], and shared with every
    /// other calibration on the same platform (the DRAM half).
    ///
    /// # Panics
    ///
    /// Panics if a probe run fails (see [`Context::run`]) or the fit
    /// rejects the runs.
    pub fn calibration(&self, platform: Platform, device: DeviceKind) -> Calibration {
        self.fit_probes(platform, device, &camp_workloads::calibration_suite())
    }

    fn fit_probes(
        &self,
        platform: Platform,
        device: DeviceKind,
        probes: &[Box<dyn Workload>],
    ) -> Calibration {
        self.prefetch_suite(platform, device, probes);
        let runs: Vec<_> = probes
            .iter()
            .map(|probe| {
                let probe = probe.as_ref();
                (self.run(platform, None, probe), self.run(platform, Some(device), probe))
            })
            .collect();
        Calibration::from_probe_runs(platform, device, &runs).unwrap_or_else(|error| {
            panic!("calibration failed (platform {platform}, device {device}): {error}")
        })
    }

    /// Convenience: a predictor for a (platform, device) pair.
    pub fn predictor(&self, platform: Platform, device: DeviceKind) -> CampPredictor {
        CampPredictor::new(self.calibration(platform, device))
    }

    /// Number of simulation runs executed (not merely recalled) so far.
    pub fn runs_executed(&self) -> usize {
        self.runs.computed()
    }

    /// Number of [`Context::run`] requests so far (executions plus cache
    /// hits).
    pub fn runs_requested(&self) -> usize {
        self.runs.requests()
    }

    /// Number of run requests served from the memo cache.
    pub fn cache_hits(&self) -> usize {
        self.runs.hits()
    }

    /// The span recorder every experiment and run reports into. The
    /// `repro` driver renders it as a run manifest and Chrome trace after
    /// a sweep.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }
}

/// A plain-text table accumulated row by row and rendered with aligned
/// columns (the experiment output format; also serialisable as TSV).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as tab-separated values (for archival under `results/`).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join("\t"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given precision (helper for experiment rows).
pub fn fmt(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_workloads::kernels::PointerChase;

    #[test]
    fn context_memoises_runs() {
        let ctx = Context::new();
        let w = PointerChase::new("ctx-chase", 1, 1 << 14, 1, 5_000);
        let a = ctx.run(Platform::Skx2s, None, &w);
        let b = ctx.run(Platform::Skx2s, None, &w);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(ctx.runs_executed(), 1);
        let c = ctx.run(Platform::Skx2s, Some(DeviceKind::CxlA), &w);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(ctx.runs_executed(), 2);
    }

    #[test]
    fn endpoint_runs_share_one_trace_generation() {
        let ctx = Context::new();
        let w = PointerChase::new("ctx-trace-share", 1, 1 << 14, 1, 5_000);
        let _ = ctx.run(Platform::Skx2s, None, &w);
        let _ = ctx.run(Platform::Skx2s, Some(DeviceKind::CxlA), &w);
        let _ = ctx.run(Platform::Spr2s, None, &w);
        assert_eq!(ctx.runs_executed(), 3);
        assert_eq!(ctx.traces().generated(), 1, "one trace feeds all endpoint runs");
        assert_eq!(ctx.traces().hits(), 2);
    }

    #[test]
    fn prefetch_populates_the_cache() {
        let ctx = Context::new().with_jobs(4);
        let w1 = PointerChase::new("ctx-pf-1", 1, 1 << 14, 1, 5_000);
        let w2 = PointerChase::new("ctx-pf-2", 1, 1 << 14, 2, 5_000);
        ctx.prefetch_runs(&[
            (Platform::Skx2s, None, &w1),
            (Platform::Skx2s, None, &w2),
            (Platform::Skx2s, Some(DeviceKind::CxlA), &w1),
        ]);
        assert_eq!(ctx.runs_executed(), 3);
        // Subsequent serial calls are pure cache hits.
        let a = ctx.run(Platform::Skx2s, None, &w1);
        let b = ctx.run(Platform::Skx2s, None, &w1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.runs_executed(), 3);
    }

    #[test]
    fn failed_run_names_its_endpoint_and_leaves_the_cache_usable() {
        struct Broken;
        impl Workload for Broken {
            fn name(&self) -> &str {
                "ctx-broken"
            }
            fn footprint_bytes(&self) -> u64 {
                0 // rejected by Machine validation
            }
            fn ops(&self) -> Box<dyn Iterator<Item = camp_sim::Op> + '_> {
                Box::new(std::iter::empty())
            }
        }
        let ctx = Context::new();
        let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.run(Platform::Spr2s, Some(DeviceKind::CxlA), &Broken)
        }))
        .expect_err("broken workload must not produce a report");
        let detail = crate::panic_detail(failure.as_ref());
        assert!(detail.contains("ctx-broken"), "payload names the workload: {detail}");
        assert!(
            detail.contains(&Platform::Spr2s.to_string()),
            "payload names the platform: {detail}"
        );
        assert!(
            detail.contains(&DeviceKind::CxlA.to_string()),
            "payload names the device: {detail}"
        );
        // The failure must not wedge the cache: other keys still simulate,
        // and retrying the broken key fails identically instead of hanging
        // on a half-initialised cell.
        let w = PointerChase::new("ctx-after-failure", 1, 1 << 14, 1, 5_000);
        let report = ctx.run(Platform::Spr2s, None, &w);
        assert_eq!(report.workload, "ctx-after-failure");
        let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.run(Platform::Spr2s, Some(DeviceKind::CxlA), &Broken)
        }));
        assert!(retry.is_err(), "retry of the broken key fails loudly again");
    }

    #[test]
    fn runs_record_rooted_spans_and_cache_hit_counters() {
        let ctx = Context::new();
        let w = PointerChase::new("ctx-obs-chase", 1, 1 << 14, 1, 5_000);
        let _outer = ctx.recorder().scope("experiment", "outer");
        let _ = ctx.run(Platform::Skx2s, None, &w);
        let _ = ctx.run(Platform::Skx2s, None, &w); // cache hit: no new span
        assert_eq!(ctx.runs_requested(), 2);
        assert_eq!(ctx.runs_executed(), 1);
        assert_eq!(ctx.cache_hits(), 1);
        let records = ctx.recorder().records();
        let run = records
            .iter()
            .find(|r| r.category == "run")
            .expect("executed run records a span");
        assert_eq!(run.name, "SKX2S/dram-only/ctx-obs-chase");
        assert_eq!(run.parent, None, "run spans are rooted, not nested");
        assert_eq!(records.iter().filter(|r| r.category == "run").count(), 1);
    }

    #[test]
    fn calibration_from_memoized_runs_matches_a_serial_fit() {
        use camp_workloads::kernels::{StoreKernel, StorePattern, StridedRead};
        // The five-probe set of `camp_core::calibration`'s unit tests.
        let probes: Vec<Box<dyn Workload>> = vec![
            Box::new(PointerChase::new("calib.t-chase-c1", 1, 1 << 19, 1, 40_000)),
            Box::new(PointerChase::new("calib.t-chase-c4", 1, 1 << 19, 4, 40_000)),
            Box::new(PointerChase::new("calib.t-chase-c12", 1, 1 << 19, 12, 40_000)),
            Box::new(StridedRead::new("calib.t-strided", 1, 1 << 19, 4, 2, 40_000)),
            Box::new(StoreKernel::new("calib.t-memset", 1, 64 << 20, StorePattern::Memset, 40_000)),
        ];
        let ctx = Context::new().with_jobs(2);
        let memoized = ctx.fit_probes(Platform::Spr2s, DeviceKind::CxlA, &probes);
        assert_eq!(ctx.runs_executed(), 10, "one DRAM and one slow run per probe");
        assert_eq!(memoized, Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &probes));
        // A second device on the same platform reuses the DRAM half.
        let _ = ctx.fit_probes(Platform::Spr2s, DeviceKind::Numa, &probes);
        assert_eq!(ctx.runs_executed(), 15);
        let records = ctx.recorder().records();
        assert!(records.iter().all(|r| r.category == "run"), "probe runs are ordinary run spans");
    }

    #[test]
    fn degenerate_duration_reports_are_flagged_as_anomalies() {
        use camp_pmu::CounterSet;
        use camp_sim::report::TierReport;
        let ctx = Context::new();
        let mut report = RunReport {
            workload: "empty".into(),
            platform: Platform::Spr2s,
            threads: 1,
            counters: CounterSet::new(),
            cycles: 0.0,
            instructions: 0,
            seconds: 0.0,
            fast_tier: TierReport {
                device: DeviceKind::LocalDram,
                stats: Default::default(),
                idle_latency_cycles: 239.4,
            },
            slow_tier: None,
            epochs: Vec::new(),
        };
        ctx.note_report_anomalies("spr2s/dram-only/empty", &report);
        let records = ctx.recorder().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].category, "anomaly");
        assert_eq!(records[0].name, "degenerate-duration");
        assert!(records[0].is_event);
        // A healthy report is not flagged.
        report.seconds = 1.0;
        ctx.note_report_anomalies("spr2s/dram-only/empty", &report);
        assert_eq!(ctx.recorder().len(), 1);
    }

    #[test]
    fn table_renders_aligned_and_tsv() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["alpha".into(), "1.5".into()]);
        t.row(&["b".into(), "22".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== Demo =="));
        assert!(rendered.contains("alpha"));
        let tsv = t.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.starts_with("name\tvalue"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_header_renders_without_panicking() {
        // Regression: `widths.len() - 1` used to underflow for tables
        // constructed with no columns.
        let t = Table::new("Empty", &[]);
        let rendered = t.render();
        assert!(rendered.contains("== Empty =="));
        assert_eq!(t.to_tsv(), "\n");
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt(0.97312, 2), "0.97");
        assert_eq!(fmt(-1.5, 1), "-1.5");
    }
}
