//! Flow-level benchmark for limscan.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload gen_search --seed 0 --seconds 26 --trace 0
//! ```
//!
//! Runs one named workload through limscan's public entry points, checks
//! every output, prints a report, and ends with one JSON line holding
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, measured untraced; with `--trace 1` a
//! separate traced run replays the same work as explicit per-layer calls
//! and reports the per-layer set. The workloads and the reasoning behind
//! them are described in `flowbench/WORKLOADS.md`.
//!
//! Any correctness violation makes the command exit with status 1; bad
//! arguments exit with status 2.

mod flows;
mod served;
mod speed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, in output order: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("flow_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("program_cycles", "cycles"),
    ("faults_detected", "count"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, in output order: `(name, unit)`. Every traced run
/// reports all of them; a layer a workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("lint.gate_s", "s"),
    ("scan.insert_s", "s"),
    ("fault.collapse_s", "s"),
    ("fault.targets", "count"),
    ("atpg.seq_s", "s"),
    ("atpg.vectors", "count"),
    ("atpg.aborted", "count"),
    ("atpg.funct_detected", "count"),
    ("atpg.scan_loads", "count"),
    ("atpg.comb_s", "s"),
    ("atpg.comb_tests", "count"),
    ("compact.restore_s", "s"),
    ("compact.restore_in", "vectors"),
    ("compact.restore_out", "vectors"),
    ("compact.omit_s", "s"),
    ("compact.omit_in", "vectors"),
    ("compact.omit_out", "vectors"),
    ("compact.trials_attempted", "count"),
    ("compact.trials_committed", "count"),
    ("compact.trial_commit_ratio", "ratio"),
    ("compact.checkpoint_hits", "count"),
    ("compact.restoration_probes", "count"),
    ("compact.scan_set_s", "s"),
    ("scan.translate_s", "s"),
    ("sim.vectors_simulated", "count"),
    ("sim.batches", "count"),
    ("sim.batch_self_s", "s"),
    ("sim.threads", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.slices_per_job", "ratio"),
    ("serve.shed", "count"),
    ("harness.save_ms", "ms"),
    ("trace.glue_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; 0 keeps the repository's fixed seeds.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(26),
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid value `{value}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(args)
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Flows or jobs attempted.
    pub attempted: u64,
    /// Attempts that errored, were refused or shed, or failed a check.
    pub failed: u64,
    /// One line per correctness violation.
    pub problems: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per the run kind).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Resident MiB the benchmark's own calibration kernel holds for the
    /// whole run; `peak_rss_mb` leaves it out.
    pub resident_offset_mb: f64,
}

impl Outcome {
    /// Records a correctness violation that fails one attempt.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Appends a report line.
    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }
}

/// Scratch directory for daemon state and trace files, inside the
/// directory the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".flowbench")
}

fn render(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = if args.workload == served::NAME {
        served::run(&args)
    } else if let Some(w) = flows::WORKLOADS.iter().find(|w| w.name == args.workload) {
        flows::run(w, &args)
    } else {
        eprintln!(
            "flowbench: unknown workload `{}` (known: {}, {})",
            args.workload,
            flows::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", "),
            served::NAME
        );
        return ExitCode::from(2);
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    debug_assert!(outcome
        .metrics
        .keys()
        .all(|k| names.iter().any(|(n, _)| n == k)));
    if !args.trace {
        outcome.metrics.insert(
            "peak_rss_mb",
            stats::peak_rss_mb() - outcome.resident_offset_mb,
        );
    }
    outcome.note(format!(
        "failed_frac = {} failed / {} attempted = {:.4}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    for line in &outcome.report {
        println!("{line}");
    }
    for problem in &outcome.problems {
        println!("VIOLATION: {problem}");
    }
    println!("{}", render(&outcome, names));
    if outcome.problems.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
