//! A deliberately wrong result must fail the run: the result line reports
//! it and the command exits non-zero.

use std::process::Command;

#[test]
fn a_corrupted_result_fails_the_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "dashboard-taxi",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--negative-control"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a result line");
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
    assert!(stdout.contains("FAILED:"), "{stdout}");
}
