//! `ulba-bench <study>` as a process: a knob nothing reads exits 2 before
//! the study starts, and a file the study cannot write exits 1 after it
//! ran, naming the path.

use std::process::{Command, Output};

/// `ulba-bench <args>` with only `env` set.
fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_ulba-bench"));
    command.args(args).env_clear().envs(env.iter().copied());
    command.output().unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn retired_knobs_exit_2_naming_the_offender_before_the_study_runs() {
    let flags = [
        ["fig4a", "--backend", "sequential"],
        ["all", "--workers", "2"],
        ["scenarios", "--gossip-wire", "full"],
    ];
    let runs = flags.iter().map(|args| (args[1], bench(args, &[])));
    let vars = [
        ("table2", "ULBA_QUICK", "1"),
        ("table2", "ULBA_INSTANCES", "10"),
        ("fig2", "ULBA_SA_STEPS", "10"),
        ("fig3", "ULBA_ALPHA_SAMPLES", "10"),
        ("fig4b", "ULBA_WORKERS", "two"),
        ("fig4b", "ULBA_BACKEND", "fibers"),
    ];
    let runs =
        runs.chain(vars.iter().map(|&(study, var, raw)| (var, bench(&[study], &[(var, raw)]))));
    for (named, out) in runs {
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{named}: {stderr}");
        assert!(stderr.contains(named), "{named}: {stderr}");
        assert!(out.stdout.is_empty(), "{named}: the study ran: {}", text(&out.stdout));
    }
}

#[test]
fn a_file_under_a_regular_file_is_an_error_naming_it_not_a_panic() {
    // Regression: both exited 101 ("cannot create results directory",
    // "cannot create JSON output directory: File exists").
    let dir = std::env::temp_dir().join(format!("ulba-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("a-file");
    std::fs::write(&file, "").unwrap();
    let (dir_str, file_str) = (dir.to_str().unwrap(), file.to_str().unwrap());
    let json = format!("{file_str}/BENCH_fig4b.json");
    let runs = [
        bench(&["table2", "--smoke"], &[("ULBA_RESULTS", file_str)]),
        bench(&["fig4b", "--smoke", "--json", &json], &[("ULBA_RESULTS", dir_str)]),
    ];
    for out in runs {
        let stdout = text(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{stdout}{}", text(&out.stderr));
        assert!(stdout.contains(&format!("::error::{file_str}: ")), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
