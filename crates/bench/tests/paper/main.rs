//! End-to-end paper gates: prediction accuracy (Table 6), interleaving
//! (§5) and placement policies (§6).
//!
//! Every test goes through one shared harness [`Context`], so the gates
//! take the same memoized, parallel, trace-cached path as `repro`: each
//! (platform, device) calibration's probe runs, and each workload's
//! endpoint runs, are simulated once per test binary however many tests
//! consume them, and each workload's op trace is generated once.

use camp_bench::Context;
use camp_sim::Traced;
use std::sync::OnceLock;

mod interleaving;
mod policies;
mod prediction;

/// The harness context every test in this binary shares.
fn ctx() -> &'static Context {
    static CTX: OnceLock<Context> = OnceLock::new();
    CTX.get_or_init(Context::new)
}

/// A suite workload backed by the shared context's trace cache.
fn traced(name: &str) -> Traced {
    let workload = camp_workloads::find(name).expect("in suite");
    ctx().traces().wrap(workload.as_ref())
}
