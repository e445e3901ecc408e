//! `ulba-bench gate` as a process: `drift` and `wall` compare a report with
//! the committed file of its name under `results/`, and no other gate reads
//! that directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `ulba-bench gate <gates> <report>`, run in `dir`.
fn gate(gates: &str, report: &Path, dir: &Path) -> Output {
    let bin = env!("CARGO_BIN_EXE_ulba-bench");
    Command::new(bin).args(["gate", gates]).arg(report).current_dir(dir).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn only_drift_and_wall_read_the_committed_reports() {
    // Fresh copies of two committed reports, in a directory without
    // `results/`.
    let dir = std::env::temp_dir().join(format!("ulba-gate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let copy = |name: &str| {
        let path = dir.join(name);
        std::fs::copy(repo().join("results").join(name), &path).unwrap();
        path
    };
    let (p65536, scenarios) = (copy("BENCH_p65536.json"), copy("BENCH_scenarios.json"));

    for (gates, report) in [("rss,entries", &p65536), ("rss,lambda,scenario-grid", &scenarios)] {
        let out = gate(gates, report, &dir);
        assert!(out.status.success(), "{gates}: {}", stdout(&out));
    }
    for compared in ["drift", "wall"] {
        let out = gate(compared, &scenarios, &dir);
        assert_eq!(out.status.code(), Some(1), "{compared}: {}", stdout(&out));
        let text = stdout(&out);
        assert!(text.contains("::error::") && text.contains("no committed report"), "{text}");
        assert!(text.contains("results/BENCH_scenarios.json"), "{text}");
    }
    // From the repository root a report finds its committed twin by file
    // name and reproduces it.
    let out = gate("drift,wall", &scenarios, &repo());
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("40 rows checked against the committed report"));
    std::fs::remove_dir_all(&dir).unwrap();
}
