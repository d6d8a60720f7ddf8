//! Integration tests for the `limscan` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn limscan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_limscan"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("limscan_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn info_reports_circuit_and_scan_shape() {
    let out = limscan().args(["info", "s27"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 inputs"), "{text}");
    assert!(text.contains("chain of 3 flip-flops"), "{text}");
}

#[test]
fn generate_then_compact_roundtrip() {
    let prog = temp_path("s27.prog");
    let out = limscan()
        .args(["generate", "s27", "-o", prog.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prog).expect("program written");
    assert!(text.starts_with("# limscan test program"));
    assert!(text.contains("INPUTS 6"));

    let compacted = temp_path("s27_compacted.prog");
    let out = limscan()
        .args([
            "compact",
            "s27",
            prog.to_str().unwrap(),
            "-o",
            compacted.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("faults detected"), "{stderr}");
    assert!(compacted.exists());
}

#[test]
fn a_budget_that_does_not_trip_changes_nothing() {
    // One driver behind every `generate`: an untripped deadline prints
    // the same summary and program, `--analyze` included.
    let run = |extra: &[&str]| {
        limscan()
            .args(["generate", "s27", "--analyze"])
            .args(extra)
            .output()
            .expect("spawn")
    };
    let plain = run(&[]);
    let budgeted = run(&["--deadline", "1000"]);
    assert!(plain.status.success() && budgeted.status.success());
    assert_eq!(plain.stdout, budgeted.stdout);
    assert_eq!(
        String::from_utf8_lossy(&plain.stderr),
        String::from_utf8_lossy(&budgeted.stderr)
    );
}

#[test]
fn compact_budget_stop_writes_the_best_sequence_so_far() {
    let prog = temp_path("s27_uncompacted.prog");
    let out = limscan()
        .args([
            "generate",
            "s27",
            "--no-compact",
            "-o",
            prog.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let best = temp_path("s27_budget_stop.prog");
    let out = limscan()
        .args(["compact", "s27", prog.to_str().unwrap()])
        .args(["--max-vectors", "1", "-o", best.to_str().unwrap()])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("best result so far was written"),
        "{stderr}"
    );
    // Restoration stopped before it finished, so the best sequence so far
    // is the input itself.
    assert_eq!(
        std::fs::read_to_string(&best).expect("program written"),
        std::fs::read_to_string(&prog).expect("input program")
    );
}

#[test]
fn generate_accepts_bench_files_and_engine_flags() {
    // Write a .bench file, then run the genetic engine on it uncompacted.
    let bench = temp_path("toy.bench");
    std::fs::write(
        &bench,
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = NAND(a, q)\ny = XOR(q, b)\n",
    )
    .expect("write bench");
    let out = limscan()
        .args([
            "generate",
            bench.to_str().unwrap(),
            "--engine",
            "genetic",
            "--no-compact",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INPUTS 4"), "{stdout}"); // 2 + scan_sel + scan_inp
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = limscan()
        .args(["info", "no-such-circuit"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let out = limscan()
        .args(["generate", "s27", "--engine", "quantum"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Invalid chain counts must be clean errors, not panics.
    for chains in ["0", "9"] {
        let out = limscan()
            .args(["generate", "s27", "--chains", chains])
            .output()
            .expect("spawn");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    // A snapshot cannot carry the Generate stop, so a resumed
    // `--no-compact` run would compact: the pair is refused up front.
    let snaps = temp_path("nocompact_snaps");
    let _ = std::fs::remove_dir_all(&snaps);
    let out = limscan()
        .args(["generate", "s27", "--no-compact", "--snapshots"])
        .arg(&snaps)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--no-compact cannot be combined with --snapshots"),
        "{stderr}"
    );
    assert!(!snaps.exists(), "nothing written before the refusal");

    let out = limscan().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = limscan().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
