//! Smoke tests for the `camp` CLI binary (driven through
//! `CARGO_BIN_EXE_camp`, so they exercise the real executable).

use std::process::Command;

fn camp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_camp"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = camp(&[]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: camp"));
}

#[test]
fn workloads_lists_the_suite() {
    let output = camp(&["workloads"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.lines().count(), 265);
    assert!(stdout.contains("spec.603.bwaves-8t"));
}

#[test]
fn workloads_filter_narrows_output() {
    let output = camp(&["workloads", "redis."]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.lines().count() < 265);
    assert!(stdout.lines().all(|l| l.contains("redis.")));
}

#[test]
fn unknown_workload_is_a_clean_error() {
    let output = camp(&["predict", "no.such-workload"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("not in the suite"));
}

#[test]
fn unknown_option_is_a_clean_error() {
    let output = camp(&["predict", "--frobnicate"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown option"));
}

#[test]
fn bad_platform_is_a_clean_error() {
    let output = camp(&["predict", "spec.557.xz-1t", "--platform", "m1"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown platform"));
}

#[test]
fn documented_short_platform_and_device_names_parse() {
    let output = camp(&[
        "workloads",
        "stream",
        "--platform",
        "skx",
        "--device",
        "cxla",
    ]);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).contains("stream"));
}

#[test]
fn bad_device_is_a_clean_error() {
    let output = camp(&["workloads", "--device", "cxl-z"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown device"));
}

#[test]
fn help_succeeds() {
    let output = camp(&["help"]);
    assert!(output.status.success());
}
