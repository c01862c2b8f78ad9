//! The `repro` command line fails closed: every malformed invocation
//! prints a message to stderr and exits 2 without running a section or
//! writing results.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr should mention `{needle}`, got: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must write no results");
}

#[test]
fn unknown_sections_fail_closed() {
    assert_rejected(&["bogus", "--json", "-"], "unknown section `bogus`");
    assert_rejected(&["table1", "tabel2"], "unknown section `tabel2`");
}

#[test]
fn unknown_flags_fail_closed() {
    assert_rejected(&["table1", "--bogus"], "unknown flag `--bogus`");
    assert_rejected(&["table1", "--shard", "2"], "unknown flag `--shard`");
}

#[test]
fn malformed_or_zero_counts_fail_closed() {
    for flag in ["--threads", "--workers"] {
        assert_rejected(&["table1", flag, "0"], flag);
        assert_rejected(&["table1", flag, "two"], flag);
        assert_rejected(&["table1", flag], flag);
    }
    for flag in ["--shards", "--replicas"] {
        assert_rejected(&["table1", flag, "0"], flag);
        assert_rejected(&["table1", flag, "1,0,2"], flag);
        assert_rejected(&["table1", flag, "1,x"], flag);
        assert_rejected(&["table1", flag], flag);
    }
    assert_rejected(&["table1", "--cache-capacity", "lots"], "--cache-capacity");
}

#[test]
fn well_formed_invocations_still_run() {
    let out = repro(&["table1", "--threads", "2", "--shards", "1,2", "--json", "-"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.trim_start().starts_with('{'), "JSON on stdout: {doc}");
    assert!(doc.contains("\"meta\""), "results carry their meta block");
}
