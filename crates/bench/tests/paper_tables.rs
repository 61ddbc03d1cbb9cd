//! The `paper_tables` command line: an unknown experiment ID is a usage
//! error, so a mistyped CI step cannot skip a gate, and `--json` prints one
//! parseable ledger row.

use std::process::{Command, Output};
use vgl_obs::json::{parse, Json};

fn paper_tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(args)
        .env("VGL_BENCH_SAMPLES", "1")
        .output()
        .expect("paper_tables runs")
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = paper_tables(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn json_is_one_ledger_row() {
    let out = paper_tables(&["--json", "t1", "e4"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    let row = parse(stdout.trim_end()).expect("the row parses");
    for id in ["t1", "e4"] {
        assert!(
            row.get(id)
                .and_then(Json::as_arr)
                .is_some_and(|t| !t.is_empty()),
            "{id}"
        );
    }
    let cores = row
        .get("host")
        .and_then(|h| h.get("cores"))
        .and_then(Json::as_u64);
    assert!(cores >= Some(1), "{row}");
    assert_eq!(
        row.get("gates").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
    assert_eq!(
        row.get("samples")
            .and_then(|s| s.get("e4"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert!(row.get("rev").and_then(Json::as_str).is_some());
}
