//! Figure 4: the signals behind the demand-read model.
//!
//! (a) estimation-error CDFs of candidate `S_DRd` proxies; (b) the
//! `s_LLC/C` stall-exposure distribution; (c) the scaling-ratio
//! distributions `R_N`, `R_Lat`, `R_MLP`; (d)/(e) baseline latency and MLP
//! against their scaling ratios; (f) the latency-tolerance scatter with
//! the fitted hyperbola.

use crate::harness::{fmt, Context, Table};
use camp_core::{stats, MeasuredComponents, Signature};
use camp_pmu::Event;
use camp_sim::{DeviceKind, Platform};

const PLATFORM: Platform = Platform::Spr2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;

/// Runs Figure 4.
pub fn run(ctx: &Context) -> Vec<Table> {
    let calibration = ctx.calibration(PLATFORM, DEVICE);
    let mut scatter = Table::new(
        format!("Figure 4d/e/f: scaling ratios per workload ({} vs DRAM)", DEVICE.name()),
        &[
            "workload",
            "L_dram",
            "R_lat",
            "MLP_dram",
            "R_mlp",
            "R_N",
            "L/MLP",
            "scaling(R_lat/R_mlp-1)",
            "hyperbola_fit",
            "s_llc_over_C",
        ],
    );
    let mut proxy_errors: Vec<(f64, f64, f64)> = Vec::new(); // (C-based, lat-only, raw-stall)
    let suite = camp_workloads::suite();
    for (workload, (dram, slow)) in suite.iter().zip(ctx.endpoint_runs(PLATFORM, DEVICE, &suite)) {
        let sig_d = Signature::from_report(&dram);
        let sig_s = Signature::from_report(&slow);
        if sig_d.mlp <= 0.0 || sig_s.mlp <= 0.0 || sig_d.latency <= 0.0 {
            continue;
        }
        let r_lat = sig_s.latency / sig_d.latency;
        let r_mlp = sig_s.mlp / sig_d.mlp;
        let n_d = dram.counters.get_f64(Event::OrDemandRd).max(1.0);
        let n_s = slow.counters.get_f64(Event::OrDemandRd).max(1.0);
        let r_n = n_s / n_d;
        let tolerance = sig_d.latency_tolerance();
        let scaling = r_lat / r_mlp - 1.0;
        let s_llc_over_c =
            if sig_d.memory_active > 0.0 { sig_d.s_llc / sig_d.memory_active } else { 0.0 };
        scatter.row(&[
            workload.name().to_string(),
            fmt(sig_d.latency, 1),
            fmt(r_lat, 3),
            fmt(sig_d.mlp, 2),
            fmt(r_mlp, 3),
            fmt(r_n, 3),
            fmt(tolerance, 1),
            fmt(scaling, 3),
            fmt(calibration.hyperbola.eval(tolerance), 3),
            fmt(s_llc_over_c, 3),
        ]);
        // Figure 4a proxies for S_DRd, evaluated against the measured
        // component:
        let measured = MeasuredComponents::attribute(&dram, &slow).drd;
        let c_based = scaling.max(0.0) * sig_d.memory_active_fraction();
        let lat_only = (r_lat - 1.0) * sig_d.memory_active_fraction();
        let raw_stall = sig_d.llc_stall_fraction(); // "stalls don't scale" straw man
        proxy_errors.push((
            (c_based - measured).abs(),
            (lat_only - measured).abs(),
            (raw_stall - measured).abs(),
        ));
    }
    let mut proxies = Table::new(
        "Figure 4a: S_DRd proxy estimation error",
        &["proxy", "median abs err", "p95 abs err", "<=5%"],
    );
    for (name, pick) in [
        ("ΔC with R_lat and R_mlp", 0usize),
        ("latency scaling only", 1),
        ("raw DRAM stalls", 2),
    ] {
        let mut errs: Vec<f64> = proxy_errors.iter().map(|e| [e.0, e.1, e.2][pick]).collect();
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let within = errs.iter().filter(|&&e| e <= 0.05).count() as f64 / errs.len() as f64;
        proxies.row(&[
            name.to_string(),
            fmt(stats::quantile_sorted(&errs, 0.5), 3),
            fmt(stats::quantile_sorted(&errs, 0.95), 3),
            format!("{:.0}%", within * 100.0),
        ]);
    }
    let mut fit =
        Table::new("Figure 4f: fitted hyperbolic transfer", &["p", "q", "idle latency ratio"]);
    fit.row(&[
        fmt(calibration.hyperbola.p, 3),
        fmt(calibration.hyperbola.q, 2),
        fmt(calibration.idle_latency_ratio(), 3),
    ]);
    vec![proxies, scatter, fit]
}
