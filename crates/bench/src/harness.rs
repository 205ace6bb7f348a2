//! Shared experiment infrastructure: cached simulation runs, calibrations
//! fitted from them, and plain-text table output.
//!
//! Several experiments consume the same (platform, device) endpoint runs
//! of the full 265-workload suite, and the interleaving figures the same
//! ratio sweeps; the [`Context`] memoises both in one table so `repro all`
//! pays for each run once. The cache is thread-safe with
//! single-flight semantics: experiments running on different threads (and
//! the fan-outs within an experiment, such as [`Context::endpoint_runs`])
//! share one cache, and two threads requesting the same run never
//! simulate it twice — the second blocks until the first finishes.

use camp_core::{Calibration, CampPredictor};
use camp_obs::Recorder;
use camp_sim::memo::Memo;
use camp_sim::par;
use camp_sim::{DeviceKind, Machine, Placement, Platform, RunReport, TraceCache, Workload};
use std::sync::Arc;

/// Cache key for one run: platform, slow device (`None` = DRAM only),
/// percent of the pages on DRAM (100 for DRAM-only, 0 for slow-only),
/// workload name.
type RunKey = (Platform, Option<DeviceKind>, u8, String);

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
    /// Creates an empty context using every available core for run
    /// fan-outs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads a fan-out of runs
    /// ([`Context::endpoint_runs`], the calibration probes, the ratio
    /// sweeps) uses (`1` disables intra-experiment parallelism).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured fan-out width.
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
        self.run_at(platform, device, if device.is_some() { 0 } else { 100 }, workload)
    }

    /// Runs (or recalls) `workload` on `platform` with its pages
    /// weighted-interleaved between DRAM and `device` at DRAM fraction `x`
    /// ([`Machine::interleaved`]). Memoized, spanned and failure-attributed
    /// like [`Context::run`], on the same memo: `x` is keyed by the percent
    /// it rounds to, so `x = 0` recalls the slow-tier endpoint run, while
    /// `x = 1` (a machine with an idle slow tier) is a run of its own.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in `[0, 1]` or is NaN, before touching the
    /// memo; otherwise as [`Context::run`].
    pub fn run_interleaved(
        &self,
        platform: Platform,
        device: DeviceKind,
        x: f64,
        workload: &dyn Workload,
    ) -> Arc<RunReport> {
        let fraction = Placement::interleave_ratio(x).fast_fraction().expect("a static ratio");
        self.run_at(platform, Some(device), (fraction * 100.0).round() as u8, workload)
    }

    /// The memoized run behind [`Context::run`] and
    /// [`Context::run_interleaved`]: `percent` of the pages on DRAM, the
    /// rest on `device`.
    fn run_at(
        &self,
        platform: Platform,
        device: Option<DeviceKind>,
        percent: u8,
        workload: &dyn Workload,
    ) -> Arc<RunReport> {
        let key = (platform, device, percent, workload.name().to_string());
        self.runs.get_or_compute(&key, || {
            let (machine, device_label) = match (device, percent) {
                (None, _) => (Machine::dram_only(platform), "dram-only".to_string()),
                (Some(kind), 0) => (Machine::slow_only(platform, kind), kind.to_string()),
                (Some(kind), _) => (
                    Machine::interleaved(platform, kind, f64::from(percent) / 100.0),
                    format!("{kind}@{percent}%"),
                ),
            };
            // Run spans are rooted, not nested: under a parallel sweep the
            // single-flight winner is scheduling-dependent, and the span
            // tree must not be.
            let span_name = format!("{platform}/{device_label}/{}", workload.name());
            let mut span = self.obs.scope_rooted("run", span_name.clone());
            // Route through the shared trace cache: the op stream is
            // generated once per workload, not once per run.
            let traced = self.traces.wrap(workload);
            // `validate` is the complete precondition of a run: once it
            // passes no engine assertion can fire, so there is no panic to
            // catch here.
            if let Err(error) = machine.validate(&traced) {
                span.attr("ok", false);
                panic!(
                    "run failed (platform {platform}, device {device_label}, \
                     workload '{}'): invalid machine configuration: {error}",
                    workload.name(),
                );
            }
            let report = machine.run(&traced);
            span.attr("cycles", report.cycles);
            span.attr("instructions", report.instructions);
            span.attr("seconds", report.seconds);
            self.note_report_anomalies(&span_name, &report);
            report
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

    /// Both endpoint runs of every workload on `platform`, entirely on
    /// DRAM and entirely on `device`, as `(dram, slow)` pairs in workload
    /// order. The 2N runs fan out over [`Context::jobs`] worker threads
    /// through the memo, so a run that is already cached (the DRAM half,
    /// when another device on the same platform came first) is recalled,
    /// not repeated.
    pub fn endpoint_runs(
        &self,
        platform: Platform,
        device: DeviceKind,
        workloads: &[Box<dyn Workload>],
    ) -> Vec<(Arc<RunReport>, Arc<RunReport>)> {
        let requests: Vec<(Option<DeviceKind>, &dyn Workload)> = workloads
            .iter()
            .flat_map(|workload| [(None, workload.as_ref()), (Some(device), workload.as_ref())])
            .collect();
        let mut runs = par::par_map(self.jobs, &requests, |&(device, workload)| {
            self.run(platform, device, workload)
        })
        .into_iter();
        std::iter::from_fn(|| Some((runs.next()?, runs.next()?))).collect()
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
        let runs = self.endpoint_runs(platform, device, probes);
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

    /// Number of [`Context::run`] and [`Context::run_interleaved`]
    /// requests so far (executions plus cache hits).
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
    fn endpoint_runs_are_memoized_pairs_in_workload_order() {
        let ctx = Context::new().with_jobs(4);
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(PointerChase::new("ctx-ep-1", 1, 1 << 14, 1, 5_000)),
            Box::new(PointerChase::new("ctx-ep-2", 1, 1 << 14, 2, 5_000)),
            Box::new(PointerChase::new("ctx-ep-3", 1, 1 << 14, 4, 5_000)),
        ];
        let (p, d) = (Platform::Skx2s, DeviceKind::CxlA);
        let pairs = ctx.endpoint_runs(p, d, &workloads);
        assert_eq!(ctx.runs_executed(), 6, "one DRAM and one slow run per workload");
        assert_eq!(pairs.len(), workloads.len());
        for (workload, (dram, slow)) in workloads.iter().zip(&pairs) {
            assert_eq!(dram.workload, workload.name());
            assert!(Arc::ptr_eq(dram, &ctx.run(p, None, workload.as_ref())));
            assert!(Arc::ptr_eq(slow, &ctx.run(p, Some(d), workload.as_ref())));
        }
        // A second call recalls every pair.
        let again = ctx.endpoint_runs(p, d, &workloads);
        assert_eq!(ctx.runs_executed(), 6, "a second call executes nothing");
        for ((a, b), (c, e)) in pairs.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, c) && Arc::ptr_eq(b, e));
        }
        // A second device on the same platform reuses the DRAM half.
        let numa = ctx.endpoint_runs(p, DeviceKind::Numa, &workloads);
        assert_eq!(ctx.runs_executed(), 9, "only the N slow runs are new");
        for ((dram, _), (numa_dram, _)) in pairs.iter().zip(&numa) {
            assert!(Arc::ptr_eq(dram, numa_dram));
        }
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
        let interleaved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.run_interleaved(Platform::Spr2s, DeviceKind::CxlA, 0.5, &Broken)
        }))
        .expect_err("broken workload must not produce an interleaved report");
        let detail = crate::panic_detail(interleaved.as_ref());
        assert!(detail.contains("device CXL-A@50%"), "payload names the ratio: {detail}");
    }

    #[test]
    fn interleaved_runs_share_the_memo_keyed_by_machine() {
        let ctx = Context::new();
        let w = PointerChase::new("ctx-il-chase", 1, 1 << 14, 1, 5_000);
        let (p, d) = (Platform::Skx2s, DeviceKind::CxlA);
        let slow = ctx.run(p, Some(d), &w);
        let dram = ctx.run(p, None, &w);
        // x = 0 places every page on the slow tier: the slow-only machine.
        assert!(Arc::ptr_eq(&ctx.run_interleaved(p, d, 0.0, &w), &slow));
        // x = 1 still configures the slow tier, so it is a machine (and a
        // run) of its own.
        let all_fast = ctx.run_interleaved(p, d, 1.0, &w);
        assert!(!Arc::ptr_eq(&all_fast, &dram));
        assert!(all_fast.slow_tier.is_some());
        // Ratios are keyed by the percent they round to.
        let a = ctx.run_interleaved(p, d, 0.349, &w);
        let b = ctx.run_interleaved(p, d, 0.351, &w);
        assert!(Arc::ptr_eq(&a, &b), "0.349 and 0.351 both interleave 35:65");
        assert_eq!(ctx.runs_requested(), 6);
        assert_eq!(ctx.runs_executed(), 4);
        let mut names: Vec<String> = ctx
            .recorder()
            .records()
            .into_iter()
            .filter(|r| r.category == "run")
            .map(|r| r.name)
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "SKX2S/CXL-A/ctx-il-chase",
                "SKX2S/CXL-A@100%/ctx-il-chase",
                "SKX2S/CXL-A@35%/ctx-il-chase",
                "SKX2S/dram-only/ctx-il-chase",
            ]
        );
    }

    #[test]
    fn bad_ratio_panics_before_touching_the_memo() {
        let ctx = Context::new();
        let w = PointerChase::new("ctx-il-bad", 1, 1 << 14, 1, 5_000);
        let (p, d) = (Platform::Skx2s, DeviceKind::CxlA);
        for x in [-0.01, 1.01, f64::NAN] {
            let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.run_interleaved(p, d, x, &w)
            }));
            assert!(failure.is_err(), "x = {x} must be rejected");
        }
        assert_eq!(ctx.runs_requested(), 0, "a rejected ratio makes no memo entry");
        assert_eq!(ctx.run_interleaved(p, d, 0.5, &w).workload, "ctx-il-bad");
        assert_eq!(ctx.runs_executed(), 1);
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
