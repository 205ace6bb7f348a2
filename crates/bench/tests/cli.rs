//! Integration tests for the `repro` binary (driven through
//! `CARGO_BIN_EXE_repro`, so they exercise the real executable): argument
//! parsing at the flag/value boundary and fault isolation of a parallel
//! sweep with an injected failing experiment.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn repro_with_inject(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("CAMP_REPRO_FAIL_INJECT", "1")
        .output()
        .expect("binary runs")
}

#[test]
fn out_flag_refuses_to_consume_a_following_flag() {
    // Regression: `repro --out --jobs 4 all` used to consume "--jobs" as
    // the output directory and then run with the default job count, a
    // silent double-misparse. It must be a hard error instead.
    let output = repro(&["--out", "--jobs", "4", "table5"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--out requires a directory"), "stderr: {stderr}");
}

#[test]
fn out_flag_at_end_is_an_error() {
    let output = repro(&["table5", "--out"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--out requires a directory"));
}

#[test]
fn jobs_flag_refuses_flag_or_garbage_values() {
    for args in [
        &["--jobs", "--out", "x", "table5"][..],
        &["--jobs", "-4", "table5"],
        &["--jobs", "zero", "table5"],
        &["--jobs", "0", "table5"],
        &["table5", "--jobs"],
    ] {
        let output = repro(args);
        assert!(!output.status.success(), "args {args:?} must be rejected");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("--jobs requires a positive integer"),
            "args {args:?}"
        );
    }
}

#[test]
fn unknown_experiment_fails_before_the_sweep() {
    let output = repro(&["no-such-experiment", "--no-archive"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no-such-experiment"));
}

#[test]
fn static_tables_print_on_stdout() {
    let output = repro(&["table5", "--no-archive"]);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("ORO_DEMAND_RD"));
}

#[test]
fn injected_failure_does_not_stop_the_sweep() {
    // With the fault injection env set, the registry gains a `fail-inject`
    // experiment that panics after one endpoint run. Sandwich it between
    // two real experiments: both must still produce output, stdout must be
    // byte-identical to a run without the failing experiment, the failure
    // summary must name the experiment and its workload, and the exit code
    // must be non-zero — only after the whole sweep completed.
    let clean = repro(&["table3", "table5", "--no-archive", "--jobs", "2"]);
    assert!(clean.status.success());

    let injected = repro_with_inject(&[
        "table3",
        "fail-inject",
        "table5",
        "--no-archive",
        "--jobs",
        "2",
    ]);
    assert!(!injected.status.success(), "a failed experiment must fail the sweep");
    assert_eq!(
        injected.stdout, clean.stdout,
        "surviving experiments' stdout is unaffected by the failure"
    );
    let stderr = String::from_utf8_lossy(&injected.stderr);
    assert!(stderr.contains("1 of 3 experiments FAILED"), "stderr: {stderr}");
    assert!(stderr.contains("fail-inject"), "summary names the experiment: {stderr}");
    assert!(stderr.contains("inject.fail-probe"), "summary names the workload: {stderr}");
}

#[test]
fn injected_failure_is_isolated_in_serial_mode_too() {
    let injected = repro_with_inject(&["fail-inject", "table5", "--no-archive", "--jobs", "1"]);
    assert!(!injected.status.success());
    assert!(
        String::from_utf8_lossy(&injected.stdout).contains("ORO_DEMAND_RD"),
        "the experiment after the failure still runs and prints"
    );
    assert!(String::from_utf8_lossy(&injected.stderr).contains("fail-inject"));
}

#[test]
fn trace_stats_list_the_cached_traces_and_their_totals() {
    let output = repro_with_inject(&["fail-inject", "--trace-stats", "--no-archive"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("inject.fail-probe"), "stderr: {stderr}");
    assert!(
        stderr.contains("trace cache: 1 traces generated, 0 hits / 1 requests"),
        "stderr: {stderr}"
    );
}

#[test]
fn without_injection_the_fail_experiment_is_absent() {
    let output = repro(&["fail-inject", "--no-archive"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown experiment"));
}
