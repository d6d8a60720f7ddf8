//! The flow workloads: the paper's generation flow (Section 2 + 4) and
//! translation flow (Section 3 + 4), from `.bench` text to a compacted
//! test program.
//!
//! A workload is a list of *units*: one flow on one `~` paper-profile
//! circuit with one derived seed. A *pass* runs every unit once. The
//! untraced run repeats passes for the measurement window and reports the
//! median pass time; the traced run times one untraced pass, then replays
//! the same units as explicit per-layer calls inside benchmark spans and
//! requires the replay to reproduce the untraced programs byte for byte.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use limscan::atpg::first_approach;
use limscan::compact::{omission_observed, restoration_observed, scan_test_set};
use limscan::lint::{LintConfig, Linter};
use limscan::netlist::{bench_format, benchmarks};
use limscan::obs::{Event, Metric, MetricsCollector, ObsHandle, SpanKind};
use limscan::scan::program::write_program;
use limscan::sim::{set_sim_threads, SeqFaultSim, TestSequence};
use limscan::{
    AtpgConfig, Compacted, FaultList, FlowConfig, GenerationFlow, ScanCircuit, SequentialAtpg,
    TranslationFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::speed::{Calibration, REFERENCE_S};
use crate::stats::{cpu_seconds, fnv1a, host_ticks, median, quantile, steal_share, tail};
use crate::trace::{self_times, write_jsonl, Tracer};
use crate::{work_dir, Args, Outcome};

/// Which of the paper's two flows a workload runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowKind {
    /// `GenerationFlow`: sequential ATPG, restoration, omission.
    Generate,
    /// `TranslationFlow`: combinational baseline, `[26]` pruning,
    /// translation, restoration, omission.
    Translate,
}

/// One flow workload.
pub struct FlowWorkload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Flow every unit runs.
    pub kind: FlowKind,
    /// `(paper-profile circuit, max_faults)`; 0 targets every collapsed
    /// fault.
    pub circuits: &'static [(&'static str, usize)],
    /// Seeds per circuit in one pass; the units of a pass differ only in
    /// their ATPG and X-fill seeds.
    pub seeds: u64,
    /// Simulator threads; `None` is the machine's available parallelism,
    /// which is what limscan uses when nothing sets a thread count.
    pub threads: Option<usize>,
    /// FNV-1a of the first unit's program at workload seed 0, and the CLI
    /// command that writes the same program.
    pub pinned: Option<(u64, &'static str)>,
}

/// The flow workloads (see `flowbench/WORKLOADS.md` for why each exists).
pub const WORKLOADS: &[FlowWorkload] = &[
    FlowWorkload {
        name: "gen_search",
        kind: FlowKind::Generate,
        circuits: &[("s1196", 300)],
        seeds: 6,
        threads: Some(1),
        pinned: Some((
            0x17ab_ec62_23a2_9ada,
            "limscan generate s1196 --max-faults 300",
        )),
    },
    FlowWorkload {
        name: "gen_compact",
        kind: FlowKind::Generate,
        circuits: &[("b03", 0), ("b09", 0)],
        seeds: 5,
        threads: None,
        pinned: None,
    },
    FlowWorkload {
        name: "translate",
        kind: FlowKind::Translate,
        circuits: &[("s526", 0), ("b09", 0)],
        seeds: 4,
        threads: Some(1),
        pinned: None,
    },
];

/// One flow on one circuit with one seed.
struct Unit {
    circuit: &'static str,
    bench: String,
    max_faults: usize,
    seed: u64,
}

impl Unit {
    /// The flow configuration: the repository defaults with the unit seed
    /// folded into the ATPG and X-fill seeds, so unit seed 0 is exactly
    /// what `limscan generate` runs.
    fn config(&self) -> FlowConfig {
        let defaults = FlowConfig::default();
        let atpg = AtpgConfig {
            seed: defaults.atpg.seed ^ self.seed,
            ..defaults.atpg.clone()
        };
        FlowConfig {
            atpg,
            max_faults: self.max_faults,
            seed: defaults.seed ^ self.seed,
            ..defaults
        }
    }
}

/// `.bench` text of a `~` circuit: the paper-profile synthetic stand-in at
/// the repository's fixed circuit seed, so every seed sees the same
/// netlists the tables use.
pub fn bench_text(circuit: &str) -> String {
    let spec = benchmarks::paper_profile(circuit).expect("workload circuits are paper profiles");
    bench_format::write(&benchmarks::synthetic(&spec))
}

fn units(w: &FlowWorkload, seed: u64) -> Vec<Unit> {
    let texts: Vec<String> = w.circuits.iter().map(|(c, _)| bench_text(c)).collect();
    (0..w.seeds)
        .flat_map(|k| {
            let unit_seed = seed.wrapping_mul(w.seeds).wrapping_add(k);
            w.circuits
                .iter()
                .zip(&texts)
                .map(move |(&(circuit, max_faults), bench)| Unit {
                    circuit,
                    bench: bench.clone(),
                    max_faults,
                    seed: unit_seed,
                })
        })
        .collect()
}

/// The lint configuration of the flows' gate: error rules only.
fn gate_linter() -> Linter {
    Linter::with_config(LintConfig {
        testability: false,
        ..LintConfig::default()
    })
}

/// What a flow produced, whichever flow it was.
struct Produced {
    scan: ScanCircuit,
    faults: FaultList,
    /// The generated (or translated) sequence before compaction.
    first: TestSequence,
    restored: Compacted,
    omitted: Compacted,
    /// `application_cycles()` of the `[26]` baseline (translation only).
    baseline_cycles: Option<usize>,
}

fn run_unit(kind: FlowKind, unit: &Unit) -> Result<Produced, String> {
    let config = unit.config();
    match kind {
        FlowKind::Generate => {
            GenerationFlow::run_source(unit.circuit, &unit.bench, &config).map(|f| Produced {
                scan: f.scan,
                faults: f.faults,
                first: f.generated.sequence,
                restored: f.restored,
                omitted: f.omitted,
                baseline_cycles: None,
            })
        }
        FlowKind::Translate => {
            TranslationFlow::run_source(unit.circuit, &unit.bench, &config).map(|f| Produced {
                scan: f.scan,
                faults: f.faults,
                first: f.translated,
                restored: f.restored,
                omitted: f.omitted,
                baseline_cycles: Some(f.baseline_compacted.set.application_cycles()),
            })
        }
    }
    .map_err(|e| format!("{} seed {}: flow error: {e}", unit.circuit, unit.seed))
}

/// The correctness gate for one unit. Returns the oracle's detected count.
fn check(kind: FlowKind, unit: &Unit, p: &Produced) -> Result<usize, String> {
    let who = format!("{} seed {}", unit.circuit, unit.seed);
    let mut oracle = SeqFaultSim::new(p.scan.circuit(), &p.faults);
    oracle.extend_reference(&p.omitted.sequence);
    let certified = oracle.detected_count();
    let claimed = p.omitted.target_count + p.omitted.extra_detected;
    if certified != claimed {
        return Err(format!(
            "{who}: oracle certifies {certified} detected faults, flow reports {claimed}"
        ));
    }
    let (omit, restor, first) = (
        p.omitted.sequence.len(),
        p.restored.sequence.len(),
        p.first.len(),
    );
    if !(omit <= restor && restor <= first) {
        return Err(format!(
            "{who}: lengths break omit <= restor <= input ({omit}, {restor}, {first})"
        ));
    }
    if kind == FlowKind::Translate {
        let baseline = p.baseline_cycles.unwrap_or(0);
        if omit >= baseline {
            return Err(format!(
                "{who}: compacted {omit} cycles do not beat the [26] baseline's {baseline}"
            ));
        }
    }
    Ok(certified)
}

/// One setup of every distinct circuit: parse, lint gate, scan insertion,
/// fault collapse (plus the baseline's fault list for translation).
fn setup_once(w: &FlowWorkload, texts: &[String]) -> Duration {
    let translate = w.kind == FlowKind::Translate;
    let mut untraced = Tracer::off();
    let start = Instant::now();
    for (&(circuit, max_faults), bench) in w.circuits.iter().zip(texts) {
        let (built, scan) = replay_setup(&mut untraced, 0, circuit, bench, translate)
            .expect("workload circuits pass the lint gate");
        if translate {
            black_box(FaultList::collapsed(&built).sample(max_faults));
        }
        black_box(FaultList::collapsed(scan.circuit()).sample(max_faults));
    }
    start.elapsed()
}

/// Setups timed before every unit of the untraced run, so the samples
/// spread over the whole window instead of one slice of it.
const SETUPS_PER_UNIT: usize = 4;

/// Runs one workload in the mode the arguments select.
pub fn run(w: &FlowWorkload, args: &Args) -> Outcome {
    // Flows are timed in CPU seconds. With one thread that tracks wall time;
    // with more, omission decides trials in speculative waves, and the CPU
    // it spends on trials whose verdicts are discarded counts too.
    let threads = w
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
    set_sim_threads(Some(threads));
    let units = units(w, args.seed);
    let mut out = Outcome::default();
    out.note(format!(
        "flowbench {} seed {}: {} units per pass ({}), sim_threads {threads}",
        w.name,
        args.seed,
        units.len(),
        w.circuits
            .iter()
            .map(|(c, m)| format!(
                "~{c}{} x{}",
                if *m > 0 {
                    format!("/{m}")
                } else {
                    String::new()
                },
                w.seeds
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Untraced passes: the whole window, and at least two passes, in the
    // end-to-end run; one pass (the reference for the byte-for-byte replay
    // check) in the traced one.
    // A pass's time is the sum of its flows' times; the setup samples taken
    // between flows are not part of it. Flows are timed in process CPU
    // seconds, which the hypervisor's steal does not inflate; wall time is
    // kept for the report and the traced comparison.
    let (window, min_passes) = if args.trace {
        (Duration::ZERO, 1)
    } else {
        (args.seconds, 2)
    };
    let texts: Vec<String> = w.circuits.iter().map(|(c, _)| bench_text(c)).collect();
    // The untraced run times the host-speed kernel before every unit (see
    // `speed`); the traced run reports no times it would scale.
    let mut calibration = (!args.trace).then(Calibration::new);
    if let Some(c) = &calibration {
        out.resident_offset_mb = c.resident_mb;
    }
    let started = Instant::now();
    let host_before = host_ticks();
    let mut pass_cpu_s = Vec::new();
    let mut pass_wall_s = Vec::new();
    let mut setups = Vec::new();
    let mut scaled_setups = Vec::new();
    let mut unit_cpu_s = Vec::new();
    let mut pass_kernel_s = Vec::new();
    let mut reference: Vec<Option<Produced>> = Vec::new();
    loop {
        let (mut pass_cpu, mut pass_wall) = (0.0, 0.0);
        let mut kernel_s = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            if let Some(c) = &mut calibration {
                setups.extend((0..SETUPS_PER_UNIT).map(|_| setup_once(w, &texts).as_secs_f64()));
                kernel_s.push(c.sample());
            }
            out.attempted += 1;
            let (wall, cpu) = (Instant::now(), cpu_seconds());
            let produced = run_unit(w.kind, unit);
            let flow_cpu = cpu_seconds() - cpu;
            if pass_cpu_s.is_empty() {
                unit_cpu_s.push(flow_cpu);
            }
            pass_wall += wall.elapsed().as_secs_f64();
            pass_cpu += flow_cpu;
            match (produced, reference.get(i)) {
                (Err(e), None) => {
                    reference.push(None);
                    out.fail(e);
                }
                (Err(e), Some(_)) => out.fail(e),
                (Ok(p), None) => reference.push(Some(p)),
                (Ok(p), Some(Some(r))) => {
                    if p.restored.sequence != r.restored.sequence
                        || p.omitted.sequence != r.omitted.sequence
                    {
                        out.fail(format!(
                            "{} seed {}: a repeated pass produced a different program",
                            unit.circuit, unit.seed
                        ));
                    }
                }
                (Ok(_), Some(None)) => {}
            }
        }
        pass_cpu_s.push(pass_cpu);
        pass_wall_s.push(pass_wall);
        let kernel = median(&kernel_s);
        pass_kernel_s.push(kernel);
        let scale = REFERENCE_S / kernel;
        scaled_setups.extend(setups[scaled_setups.len()..].iter().map(|s| s * scale));
        if pass_cpu_s.len() >= min_passes
            && started.elapsed().as_secs_f64() + median(&pass_wall_s) > window.as_secs_f64()
        {
            break;
        }
    }
    let steal = steal_share(host_before, host_ticks());

    // The correctness gate, on the first pass's programs.
    let mut program_cycles = 0usize;
    let mut faults_detected = 0usize;
    for (unit, produced) in units.iter().zip(&reference) {
        let Some(p) = produced else { continue };
        match check(w.kind, unit, p) {
            Ok(certified) => {
                faults_detected += certified;
                program_cycles += p.omitted.sequence.len();
            }
            Err(e) => out.fail(e),
        }
    }
    if let (Some((hash, command)), 0, Some(Some(first))) = (w.pinned, args.seed, reference.first())
    {
        let program = write_program(first.scan.circuit(), &first.omitted.sequence);
        let got = fnv1a(program.as_bytes());
        if got == hash {
            out.note(format!(
                "default seed: first program matches `{command}` byte for byte"
            ));
        } else {
            out.fail(format!(
                "default seed: first program hashes to {got:#018x}, `{command}` writes {hash:#018x}"
            ));
        }
    }

    if args.trace {
        traced(w, &units, &reference, pass_wall_s[0], &mut out);
        out.metrics.insert("sim.threads", threads as f64);
        return out;
    }

    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    // Every time is scaled to the reference host speed by its own pass's
    // median kernel time (see `speed`); the raw figures are printed beside.
    let pass_s: Vec<f64> = pass_cpu_s
        .iter()
        .zip(&pass_kernel_s)
        .map(|(cpu, kernel)| cpu * REFERENCE_S / kernel)
        .collect();
    // A flow job is one pass: every program of the workload, from `.bench`
    // text to compacted program. With one seed's flows as the job, the
    // median followed whichever seed fell in the middle, and over ten
    // workload seeds it spread 0.24 of its median on gen_compact against
    // 0.14 for flow_s. So on the flows the job figures restate flow_s.
    let job_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    let setup_s = median(&scaled_setups);
    let flow_s = median(&pass_s);
    let (q, tail_ms) = tail(&job_ms);
    let jobs_per_s = job_ms.len() as f64 / pass_s.iter().sum::<f64>();
    out.note(format!(
        "flow_s          {flow_s:.4} scaled CPU s  (median of {} passes: {}; raw CPU {} s; wall {} s; host steal {:.1}%)",
        pass_s.len(),
        list(&pass_s),
        list(&pass_cpu_s),
        list(&pass_wall_s),
        100.0 * steal
    ));
    out.note(format!(
        "host speed      kernel {} s per pass (median of one sample per unit), scaled to {REFERENCE_S} s; its {:.1} MiB are left out of peak_rss_mb",
        pass_kernel_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        out.resident_offset_mb
    ));
    out.note(format!(
        "unit CPU s      {}  (raw, first pass, in unit order)",
        list(&unit_cpu_s)
    ));
    out.note(format!(
        "setup_s         {setup_s:.6} scaled s  (median of {} setups; p10 {:.6}, p90 {:.6}; raw median {:.6})",
        scaled_setups.len(),
        quantile(&scaled_setups, 0.1),
        quantile(&scaled_setups, 0.9),
        median(&setups)
    ));
    out.note(format!(
        "program_cycles  {program_cycles}  (sum over {} units)",
        units.len()
    ));
    out.note(format!(
        "faults_detected {faults_detected}  (oracle-certified, sum over units)"
    ));
    // A run holds too few jobs for a tail percentile, so job_p95_ms is
    // then the median of the same samples as job_p50_ms.
    out.note(format!(
        "per job         p50 {:.1} scaled CPU ms, job_p95_ms = p{:.0} {:.1} scaled CPU ms over {} jobs (one pass each){}; {:.3} jobs per scaled CPU s",
        median(&job_ms),
        q * 100.0,
        tail_ms,
        job_ms.len(),
        if q == 0.5 {
            ": too few jobs for a tail, so this is the median"
        } else {
            ""
        },
        jobs_per_s
    ));
    out.metrics.insert("flow_s", flow_s);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("program_cycles", program_cycles as f64);
    out.metrics
        .insert("faults_detected", faults_detected as f64);
    out.metrics.insert("job_p50_ms", median(&job_ms));
    out.metrics.insert("job_p95_ms", tail_ms);
    out.metrics.insert("jobs_per_s", jobs_per_s);
    out
}

/// Work counts read from the library's own obs counters and from the
/// values the layer calls return, summed over the traced pass.
#[derive(Default)]
struct Counts {
    by_metric: BTreeMap<&'static str, f64>,
    batch_us: u64,
}

impl Counts {
    fn add(&mut self, name: &'static str, value: usize) {
        *self.by_metric.entry(name).or_default() += value as f64;
    }

    fn get(&self, name: &str) -> f64 {
        self.by_metric.get(name).copied().unwrap_or(0.0)
    }

    /// Folds in one collector: counters by metric, plus the summed
    /// duration of its `Batch` spans (leaves, so duration is self time).
    fn absorb(&mut self, collector: &MetricsCollector) {
        for (metric, name) in [
            (Metric::VectorsSimulated, "sim.vectors_simulated"),
            (Metric::BatchesSimulated, "sim.batches"),
            (Metric::TrialsAttempted, "compact.trials_attempted"),
            (Metric::TrialsCommitted, "compact.trials_committed"),
            (Metric::CheckpointHits, "compact.checkpoint_hits"),
            (Metric::RestorationProbes, "compact.restoration_probes"),
            (Metric::AtpgEpisodes, "atpg.episodes"),
        ] {
            *self.by_metric.entry(name).or_default() += collector.counter(metric) as f64;
        }
        let mut batches = HashSet::new();
        for event in collector.events() {
            match event {
                Event::SpanBegin {
                    id,
                    kind: SpanKind::Batch,
                    ..
                } => {
                    batches.insert(id);
                }
                Event::SpanEnd { id, dur_us } if batches.contains(&id) => self.batch_us += dur_us,
                _ => {}
            }
        }
    }
}

/// Replays one unit's parse → lint → build → scan insertion → fault
/// collapse steps inside spans; shared with the daemon workload, whose
/// every job repeats them.
pub fn replay_setup(
    tr: &mut Tracer,
    trace: u64,
    circuit: &str,
    bench: &str,
    translate: bool,
) -> Result<(limscan::Circuit, ScanCircuit), String> {
    let raw = tr.time(trace, "netlist.parse", || {
        bench_format::parse_raw(circuit, bench)
    });
    let report = tr.time(trace, "lint.gate", || gate_linter().lint_raw(&raw));
    if report.has_errors() {
        return Err(format!("{circuit}: lint gate refused the source"));
    }
    let built = tr
        .time(trace, "netlist.parse", || raw.build())
        .map_err(|e| format!("{circuit}: {e}"))?;
    let scan = tr.time(trace, "scan.insert", || {
        if translate {
            ScanCircuit::insert(&built)
        } else {
            ScanCircuit::insert_chains(&built, 1)
        }
    });
    Ok((built, scan))
}

/// The same pipeline as the flow entry points, one public call per layer.
fn replay_unit(
    tr: &mut Tracer,
    trace: u64,
    kind: FlowKind,
    unit: &Unit,
    counts: &mut Counts,
) -> Result<(TestSequence, TestSequence), String> {
    let config = unit.config();
    let (circuit, scan) = replay_setup(
        tr,
        trace,
        unit.circuit,
        &unit.bench,
        kind == FlowKind::Translate,
    )?;
    let (first, faults) = match kind {
        FlowKind::Generate => {
            let faults = tr.time(trace, "fault.collapse", || {
                FaultList::collapsed(scan.circuit()).sample(unit.max_faults)
            });
            let (obs, collector) = ObsHandle::noop().with_collector();
            let generated = tr.time(trace, "atpg.seq", || {
                SequentialAtpg::new(&scan, &faults, config.atpg.clone())
                    .with_obs(&obs)
                    .run()
            });
            counts.absorb(&collector);
            counts.add("atpg.vectors", generated.sequence.len());
            counts.add("atpg.aborted", generated.aborted);
            counts.add("atpg.funct_detected", generated.funct_detected);
            counts.add("atpg.scan_loads", generated.scan_loads);
            (generated.sequence, faults)
        }
        FlowKind::Translate => {
            let base_faults = tr.time(trace, "fault.collapse", || {
                FaultList::collapsed(&circuit).sample(unit.max_faults)
            });
            let baseline = tr.time(trace, "atpg.comb", || {
                first_approach::generate(&circuit, &base_faults, &config.baseline)
            });
            let pruned = tr.time(trace, "compact.scan_set", || {
                scan_test_set(&circuit, &base_faults, &baseline.set)
            });
            let translated = tr.time(trace, "scan.translate", || {
                let mut translated = scan.translate(&pruned.set);
                translated.specify_x(&mut StdRng::seed_from_u64(config.seed));
                translated
            });
            let faults = tr.time(trace, "fault.collapse", || {
                FaultList::collapsed(scan.circuit()).sample(unit.max_faults)
            });
            counts.add("atpg.comb_tests", baseline.set.len());
            (translated, faults)
        }
    };
    counts.add("fault.targets", faults.len());
    let (obs, collector) = ObsHandle::noop().with_collector();
    let restored = tr.time(trace, "compact.restore", || {
        restoration_observed(scan.circuit(), &faults, &first, &obs)
    });
    counts.absorb(&collector);
    let (obs, collector) = ObsHandle::noop().with_collector();
    let omitted = tr.time(trace, "compact.omit", || {
        omission_observed(
            scan.circuit(),
            &faults,
            &restored.sequence,
            config.omission_passes,
            &obs,
        )
    });
    counts.absorb(&collector);
    counts.add("compact.restore_in", first.len());
    counts.add("compact.restore_out", restored.sequence.len());
    counts.add("compact.omit_in", restored.sequence.len());
    counts.add("compact.omit_out", omitted.sequence.len());
    Ok((restored.sequence, omitted.sequence))
}

/// Layer spans in report order, with the per-layer metric each feeds.
const LAYERS: &[(&str, &str)] = &[
    ("netlist.parse", "netlist.parse_s"),
    ("lint.gate", "lint.gate_s"),
    ("scan.insert", "scan.insert_s"),
    ("fault.collapse", "fault.collapse_s"),
    ("atpg.seq", "atpg.seq_s"),
    ("atpg.comb", "atpg.comb_s"),
    ("compact.scan_set", "compact.scan_set_s"),
    ("scan.translate", "scan.translate_s"),
    ("compact.restore", "compact.restore_s"),
    ("compact.omit", "compact.omit_s"),
];

/// The traced pass: replays every unit as explicit layer calls, checks it
/// against the untraced reference, and fills the per-layer metrics.
fn traced(
    w: &FlowWorkload,
    units: &[Unit],
    reference: &[Option<Produced>],
    untraced_s: f64,
    out: &mut Outcome,
) {
    out.attempted += units.len() as u64;
    let run_id = u64::from(std::process::id());
    let mut tr = Tracer::new(Instant::now(), 1);
    let mut counts = Counts::default();
    tr.begin(run_id, "pass");
    for (unit, expected) in units.iter().zip(reference) {
        tr.begin(run_id, "unit");
        let replayed = replay_unit(&mut tr, run_id, w.kind, unit, &mut counts);
        tr.end();
        let who = format!("{} seed {}", unit.circuit, unit.seed);
        match (replayed, expected) {
            (Ok((restored, omitted)), Some(p)) => {
                if restored != p.restored.sequence || omitted != p.omitted.sequence {
                    out.fail(format!(
                        "{who}: traced replay differs from the untraced flow"
                    ));
                }
            }
            (Err(e), _) => out.fail(e),
            (Ok(_), None) => {}
        }
    }
    let traced_s = tr.end();
    let spans = tr.into_spans();
    let path = work_dir().join(format!("trace-{}-{}.jsonl", w.name, std::process::id()));
    if let Err(e) = write_jsonl(&path, &spans) {
        out.note(format!("could not write {}: {e}", path.display()));
    }

    let required: &[&str] = match w.kind {
        FlowKind::Generate => &[
            "sim.vectors_simulated",
            "sim.batches",
            "compact.trials_attempted",
            "compact.restoration_probes",
            "atpg.episodes",
        ],
        FlowKind::Translate => &[
            "sim.vectors_simulated",
            "sim.batches",
            "compact.trials_attempted",
            "compact.restoration_probes",
        ],
    };
    for name in required {
        if counts.get(name) == 0.0 {
            out.fail(format!(
                "obs counter {name} reads 0: is limscan built with `trace`?"
            ));
        }
    }

    let selfs = self_times(&spans);
    let glue =
        selfs.get("pass").copied().unwrap_or(0.0) + selfs.get("unit").copied().unwrap_or(0.0);
    let overhead = traced_s / untraced_s - 1.0;
    out.note(format!(
        "traced pass {traced_s:.4} s vs untraced {untraced_s:.4} s: trace_overhead_frac {overhead:+.4}"
    ));
    out.note(format!(
        "{:<22} {:>10} {:>8}",
        "layer (self time)", "seconds", "share"
    ));
    let mut accounted = glue;
    for &(span, metric) in LAYERS {
        let s = selfs.get(span).copied().unwrap_or(0.0);
        accounted += s;
        out.metrics.insert(metric, s);
        if s > 0.0 {
            out.note(format!(
                "{span:<22} {s:>10.4} {:>7.1}%",
                100.0 * s / traced_s
            ));
        }
    }
    out.note(format!(
        "{:<22} {glue:>10.4} {:>7.1}%",
        "benchmark glue",
        100.0 * glue / traced_s
    ));
    out.note(format!(
        "layers + glue = {accounted:.4} s = {:.2}% of the traced pass, which is the untraced pass x (1 {overhead:+.4})",
        100.0 * accounted / traced_s
    ));
    let batch_s = counts.batch_us as f64 / 1e6;
    out.note(format!(
        "sim.batch_self_s {batch_s:.4} s summed over {} batches = {:.1}% of the traced pass",
        counts.get("sim.batches"),
        100.0 * batch_s / traced_s
    ));
    let attempted = counts.get("compact.trials_attempted");
    let committed = counts.get("compact.trials_committed");
    let ratio = if attempted > 0.0 {
        committed / attempted
    } else {
        0.0
    };
    out.note(format!(
        "compact.trial_commit_ratio = {committed} committed / {attempted} attempted = {ratio:.4}"
    ));
    for (name, value) in &counts.by_metric {
        if *name != "atpg.episodes" {
            out.metrics.insert(name, *value);
        }
    }
    out.metrics.insert("compact.trial_commit_ratio", ratio);
    out.metrics.insert("sim.batch_self_s", batch_s);
    out.metrics.insert("trace.glue_s", glue);
    out.metrics.insert("trace.overhead_frac", overhead);
}
