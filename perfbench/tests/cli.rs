//! The benchmark command end to end: short runs pass and print a result
//! line, a wrong answer fails the run, bad arguments are refused.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simvid-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> Option<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .map(str::to_owned)
}

fn short_run(workload: &str, seconds: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        seconds,
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    bench(&args)
}

#[test]
fn a_short_run_passes_its_checks_and_prints_a_result() {
    for (workload, seconds, trace, metric) in [
        ("paper_lists", "1", "0", "query_p99_ms"),
        ("paper_lists", "1", "1", "relal.sql_over_direct.table6"),
        // Long enough for the write phase to apply a batch.
        ("uniform_miss", "4", "1", "live.apply_ms"),
    ] {
        let out = short_run(workload, seconds, trace, &[]);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = result_line(&out).expect("a result line");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"failed\": 0"));
        assert!(
            line.contains(&format!("\"{metric}\"")),
            "{workload} lacks {metric}"
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let row = text
            .lines()
            .find(|l| l.starts_with(metric))
            .expect("text row");
        assert!(!row.contains("n/a"), "{workload} did not measure {metric}");
    }
}

#[test]
fn a_wrong_answer_fails_the_command() {
    for workload in ["uniform_miss", "paper_lists"] {
        let out = short_run(workload, "1", "0", &["--corrupt-answer"]);
        assert_eq!(out.status.code(), Some(1), "{workload} must fail");
        assert!(result_line(&out).is_none(), "{workload} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("check failed"));
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_lists", "--trace", "2"],
        &["--workload", "paper_lists", "--seconds", "0"],
        &["--workload", "paper_lists", "--bogus", "1"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(result_line(&out).is_none());
    }
}
