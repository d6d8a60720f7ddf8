//! The pass-boundary state machine: the one driver behind both flows.
//!
//! [`GenerationFlow`](crate::GenerationFlow) and
//! [`TranslationFlow`](crate::TranslationFlow) are this machine run with an
//! unlimited budget and no snapshot store. Under a [`RunBudget`] the run
//! charges its work against a [`CancelToken`], writes a versioned
//! [`FlowSnapshot`] at every pass boundary (when a [`SnapshotStore`] is
//! configured), and — when a limit trips or the token is cancelled — stops
//! at the next boundary with a typed [`FlowOutcome::Partial`] instead of
//! panicking or silently truncating. [`resume_flow`] restores a stopped
//! run from its snapshot and continues it; because every engine below is
//! deterministic, the resumed run's final sequence is bit-identical to the
//! uninterrupted one (pinned by the resume-parity suite).
//!
//! The state machine (documented in DESIGN.md §12):
//!
//! ```text
//! Generate --(boundary)--> Compact --(boundary)--> Omit(pass 0)
//!    |                        |          --(boundary per pass)--> Omit(k)
//!    +-- AtpgCursor           +-- sequence           +-- OmitCursor
//! ```
//!
//! Every arrow is a checkpoint; every box is a phase a snapshot can name.
//! Restoration has no mid-run cursor: a budget trip during restoration
//! discards the partial mask and the snapshot stays at the `Compact` phase
//! (resume re-runs restoration from the uncompacted sequence).

use std::cell::OnceCell;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use limscan_atpg::first_approach::{self, CombAtpgOutcome};
use limscan_atpg::genetic::GeneticAtpg;
use limscan_atpg::{AtpgOutcome, SequentialAtpg};
use limscan_compact::{
    omission_pass_resumable, restoration_resumable, scan_test_set, Compacted, CompactedSet,
};
use limscan_fault::FaultList;
use limscan_harness::{
    fnv64, AtpgCursor, CancelToken, FlowKind, FlowOutcome, FlowPhase, FlowSnapshot, OmitCursor,
    RunBudget, SnapshotError, SnapshotStore, StopReason,
};
use limscan_netlist::{bench_format, Circuit};
use limscan_obs::{FlowReport, Metric, MetricsCollector, ObsHandle, SpanKind};
use limscan_scan::ScanCircuit;
use limscan_sim::{SeqFaultSim, TestSequence};

use crate::flow::{
    apply_analysis, build_source, check_scannable, lint_gate, Engine, FlowAnalysis, FlowConfig,
    FlowError,
};

/// Configuration of a resilient run: the flow itself plus its resource
/// budget and (optionally) where to persist pass-boundary snapshots.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// The flow configuration (engines, passes, seeds, observability).
    pub flow: FlowConfig,
    /// Resource limits; the default is unlimited.
    pub budget: RunBudget,
    /// Snapshot persistence. `None` keeps checkpoints in memory only: a
    /// partial outcome still carries its [`FlowSnapshot`], just no path.
    pub snapshots: Option<SnapshotStore>,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            flow: FlowConfig::default(),
            budget: RunBudget::unlimited(),
            snapshots: None,
        }
    }
}

/// The artifact of a completed run: the final test sequence and its
/// coverage, plus the record of every phase that ran in this process.
///
/// A fresh run fills in every record of its flow. A resumed run cannot
/// reconstruct the statistics of work done in an earlier process, so the
/// records of phases before its resume point are `None`.
#[derive(Clone, Debug)]
pub struct ResilientRun {
    /// The final test sequence.
    pub sequence: TestSequence,
    /// Faults of the flow's target list detected by `sequence`.
    pub detected: usize,
    /// Size of the flow's target fault list.
    pub total_faults: usize,
    /// Phase timings and metric totals for *this process's* share of the
    /// run.
    pub report: FlowReport,
    /// The scan circuit the run worked on.
    pub scan: ScanCircuit,
    /// Target faults over `C_scan` (collapsed, possibly sampled, and with
    /// statically-untestable faults removed when analysis pruning is on).
    pub faults: FaultList,
    /// What the static analysis pass did, when enabled.
    pub analysis: Option<FlowAnalysis>,
    /// Generation flow: the generator's outcome (sequence `T` of Table 6).
    pub generated: Option<AtpgOutcome>,
    /// Translation flow: the conventional baseline test set.
    pub baseline: Option<CombAtpgOutcome>,
    /// Translation flow: the `[26]`-style pruned baseline.
    pub baseline_compacted: Option<CompactedSet>,
    /// Translation flow: the translated, X-specified flat sequence.
    pub translated: Option<TestSequence>,
    /// After vector restoration (`T_restor`).
    pub restored: Option<Compacted>,
    /// After vector omission of `T_restor` (`T_omit`); `None` as well when
    /// omission resumed past its first pass.
    pub omitted: Option<Compacted>,
}

impl ResilientRun {
    /// A run that has done nothing past scan insertion and analysis yet.
    fn new(scan: ScanCircuit, faults: FaultList, analysis: Option<FlowAnalysis>) -> Self {
        ResilientRun {
            sequence: TestSequence::new(0),
            detected: 0,
            total_faults: faults.len(),
            report: FlowReport::default(),
            scan,
            faults,
            analysis,
            generated: None,
            baseline: None,
            baseline_compacted: None,
            translated: None,
            restored: None,
            omitted: None,
        }
    }

    /// Fault coverage of the final sequence, in percent.
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.total_faults == 0 {
            return 0.0;
        }
        100.0 * self.detected as f64 / self.total_faults as f64
    }
}

/// FNV-1a digest over every configuration knob that shapes the flow's
/// determinism. Stored in each snapshot; a resume whose configuration
/// hashes differently is refused rather than silently diverging.
fn config_digest(kind: FlowKind, config: &FlowConfig) -> u64 {
    fnv64(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}",
            kind,
            config.engine,
            config.atpg,
            config.baseline,
            config.omission_passes,
            config.max_faults,
            config.scan_chains,
            config.seed,
            config.analysis,
        )
        .as_bytes(),
    )
}

/// The snapshot all boundaries of one run share, phase left as a
/// placeholder. Embedding the original (pre-scan) circuit makes every
/// snapshot self-contained.
fn snapshot_template(kind: FlowKind, circuit: &Circuit, config: &FlowConfig) -> FlowSnapshot {
    FlowSnapshot {
        kind,
        config_digest: config_digest(kind, config),
        scan_chains: config.scan_chains,
        max_faults: config.max_faults,
        omission_passes: config.omission_passes,
        seed: config.seed,
        prune_untestable: config.analysis.prune_untestable,
        dominance_targeting: config.analysis.dominance_targeting,
        circuit_bench: bench_format::write(circuit),
        phase: FlowPhase::Compact {
            sequence: TestSequence::new(0),
        },
    }
}

/// The run's context and pass-boundary bookkeeping: numbers the
/// boundaries, persists a snapshot at each one, and consults the token. A
/// failed snapshot write degrades (the flow keeps running, the event is
/// observable) instead of aborting — losing a checkpoint must never lose
/// the run.
struct Boundary<'a> {
    kind: FlowKind,
    circuit: &'a Circuit,
    config: &'a FlowConfig,
    /// Built on first use: a run with no store that never stops builds no
    /// snapshot at all.
    template: OnceCell<FlowSnapshot>,
    store: Option<&'a SnapshotStore>,
    ctl: &'a CancelToken,
    obs: &'a ObsHandle,
    index: u64,
}

impl Boundary<'_> {
    fn snapshot(&self, phase: FlowPhase) -> FlowSnapshot {
        let template = self
            .template
            .get_or_init(|| snapshot_template(self.kind, self.circuit, self.config));
        FlowSnapshot {
            phase,
            ..template.clone()
        }
    }

    fn persist(&self, snapshot: &FlowSnapshot) -> Option<PathBuf> {
        let store = self.store?;
        let name = format!("{}-{:03}.snap", snapshot.kind.tag(), self.index);
        match store.save(snapshot, &name) {
            Ok(path) => {
                self.obs.counter(Metric::SnapshotsWritten, 1);
                Some(path)
            }
            Err(_) => {
                self.obs.degrade("snapshot-write", self.index);
                None
            }
        }
    }

    /// A pass boundary: snapshot (when a store wants one), then check the
    /// budget. `Err` carries the ready-made partial outcome for the caller
    /// to return.
    // The large Err is the point: it is the finished partial outcome,
    // constructed once per run at most — not worth a box.
    #[allow(clippy::result_large_err)]
    fn boundary(&mut self, phase: impl Fn() -> FlowPhase) -> Result<(), FlowOutcome<ResilientRun>> {
        self.index += 1;
        let persisted = self.store.is_some().then(|| {
            let snapshot = self.snapshot(phase());
            let path = self.persist(&snapshot);
            (snapshot, path)
        });
        match self.ctl.pass_boundary() {
            Ok(()) => Ok(()),
            Err(reason) => {
                let (snapshot, path) = persisted.unwrap_or_else(|| (self.snapshot(phase()), None));
                Err(FlowOutcome::Partial {
                    reason,
                    snapshot,
                    path,
                })
            }
        }
    }

    /// A mid-phase stop (an engine returned its cursor): snapshot the
    /// cursor and build the partial outcome.
    fn partial(&mut self, reason: StopReason, phase: FlowPhase) -> FlowOutcome<ResilientRun> {
        self.index += 1;
        let snapshot = self.snapshot(phase);
        let path = self.persist(&snapshot);
        FlowOutcome::Partial {
            reason,
            snapshot,
            path,
        }
    }
}

/// How a run gets its circuit.
pub(crate) enum Input<'a> {
    /// A built circuit, checked by the lint gate when
    /// [`FlowConfig::lint`] is on.
    Circuit(&'a Circuit),
    /// `.bench` source text, parsed (and linted) inside the flow span.
    Source { name: &'a str, text: &'a str },
    /// A circuit rebuilt from a snapshot: it was validated when the
    /// snapshot was taken, so the gate is skipped.
    Snapshot(&'a Circuit),
}

/// Where a (possibly resumed) run enters the pipeline.
enum Stage {
    /// Generation, from scratch (`None`) or an interrupted cursor.
    Generate(Option<AtpgCursor>),
    /// Generation done; the uncompacted sequence awaits restoration.
    Compact(TestSequence),
    /// Restoration done; omission passes in progress.
    Omit(OmitCursor),
}

/// Entry point into the shared compaction tail.
enum CompactStage {
    Restore(TestSequence),
    Omit(OmitCursor),
}

/// Where a run ends when no budget stops it first.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Until {
    /// At the Generate boundary: the generated sequence, uncompacted.
    Generated,
    /// After the last omission pass.
    Compacted,
}

fn drive_generation(
    circuit: &Circuit,
    bdy: &mut Boundary<'_>,
    start: Stage,
    until: Until,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    let (config, obs) = (bdy.config, bdy.obs);
    check_scannable(circuit, config.scan_chains)?;
    let (scan, faults) = {
        let _span = obs.span(SpanKind::Pass, "scan-insert");
        let scan = ScanCircuit::insert_chains(circuit, config.scan_chains);
        let faults = FaultList::collapsed(scan.circuit()).sample(config.max_faults);
        (scan, faults)
    };
    let (faults, target_order, analysis) =
        apply_analysis(scan.circuit(), faults, &config.analysis, obs);
    let mut run = ResilientRun::new(scan, faults, analysis);

    let stage = match start {
        Stage::Generate(cursor) => {
            let generated = {
                let span = obs.span(SpanKind::Pass, "generate");
                match &config.engine {
                    Engine::Deterministic => {
                        let mut atpg =
                            SequentialAtpg::new(&run.scan, &run.faults, config.atpg.clone())
                                .with_obs(span.handle());
                        if let Some(order) = target_order {
                            atpg = atpg.with_target_order(order);
                        }
                        match atpg.run_budgeted(bdy.ctl, cursor.as_ref()) {
                            Ok(outcome) => outcome,
                            Err(stop) => {
                                return Ok(
                                    bdy.partial(stop.reason, FlowPhase::Generate(stop.cursor))
                                );
                            }
                        }
                    }
                    // The genetic engine is simulation-driven and atomic:
                    // it has no safe mid-run cursor, so it runs whole and
                    // the budget is consulted at the boundary after it.
                    Engine::Genetic(gc) => {
                        let (sequence, report) =
                            GeneticAtpg::new(&run.scan, &run.faults, gc.clone()).run();
                        let aborted = report.total() - report.detected_count();
                        AtpgOutcome {
                            sequence,
                            report,
                            funct_detected: 0,
                            scan_loads: 0,
                            aborted,
                        }
                    }
                }
            };
            let sequence = generated.sequence.clone();
            let checkpoint = bdy.boundary(|| FlowPhase::Compact {
                sequence: sequence.clone(),
            });
            if until == Until::Generated {
                // The requested work is done, so a budget that trips at
                // this very boundary stops nothing.
                run.detected = generated.report.detected_count();
                run.generated = Some(generated);
                run.sequence = sequence;
                return Ok(FlowOutcome::Complete(run));
            }
            if let Err(partial) = checkpoint {
                return Ok(partial);
            }
            run.generated = Some(generated);
            CompactStage::Restore(sequence)
        }
        Stage::Compact(sequence) => CompactStage::Restore(sequence),
        Stage::Omit(cursor) => CompactStage::Omit(cursor),
    };
    Ok(compact_stages(run, bdy, stage))
}

fn drive_translation(
    circuit: &Circuit,
    bdy: &mut Boundary<'_>,
    start: Stage,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    let (config, obs) = (bdy.config, bdy.obs);
    check_scannable(circuit, 1)?;
    let scan = {
        let _span = obs.span(SpanKind::Pass, "scan-insert");
        ScanCircuit::insert(circuit)
    };

    let mut front = None;
    let stage = match start {
        // The baseline + translation front end is atomic and fully
        // deterministic, so any pre-compaction entry re-runs it whole; the
        // first checkpoint is the translated sequence.
        Stage::Generate(_) => {
            // The baseline targets faults of the original circuit (that is
            // all a conventional tool sees).
            let (baseline, baseline_compacted) = {
                let _span = obs.span(SpanKind::Pass, "baseline");
                let base_faults = FaultList::collapsed(circuit).sample(config.max_faults);
                let baseline = first_approach::generate(circuit, &base_faults, &config.baseline);
                let baseline_compacted = scan_test_set(circuit, &base_faults, &baseline.set);
                (baseline, baseline_compacted)
            };
            let translated = {
                let _span = obs.span(SpanKind::Pass, "translate");
                let mut translated = scan.translate(&baseline_compacted.set);
                let mut rng = StdRng::seed_from_u64(config.seed);
                translated.specify_x(&mut rng);
                translated
            };
            if let Err(partial) = bdy.boundary(|| FlowPhase::Compact {
                sequence: translated.clone(),
            }) {
                return Ok(partial);
            }
            let stage = CompactStage::Restore(translated.clone());
            front = Some((baseline, baseline_compacted, translated));
            stage
        }
        Stage::Compact(sequence) => CompactStage::Restore(sequence),
        Stage::Omit(cursor) => CompactStage::Omit(cursor),
    };
    let faults = FaultList::collapsed(scan.circuit()).sample(config.max_faults);
    // The translation flow has no sequential generator, so only the
    // pruning half of the analysis applies (the target order is unused).
    let (faults, _, analysis) = apply_analysis(scan.circuit(), faults, &config.analysis, obs);
    let mut run = ResilientRun::new(scan, faults, analysis);
    if let Some((baseline, baseline_compacted, translated)) = front {
        run.baseline = Some(baseline);
        run.baseline_compacted = Some(baseline_compacted);
        run.translated = Some(translated);
    }
    Ok(compact_stages(run, bdy, stage))
}

/// The restoration → omission tail shared by both flows, with a checkpoint
/// after restoration and between omission passes.
fn compact_stages(
    mut run: ResilientRun,
    bdy: &mut Boundary<'_>,
    start: CompactStage,
) -> FlowOutcome<ResilientRun> {
    let (config, ctl, obs) = (bdy.config, bdy.ctl, bdy.obs);
    let circuit = run.scan.circuit();
    let faults = &run.faults;
    let mut cursor = match start {
        CompactStage::Restore(sequence) => {
            let (restored, detection) = {
                let span = obs.span(SpanKind::Pass, "restore");
                match restoration_resumable(circuit, faults, &sequence, span.handle(), ctl) {
                    Ok(r) => r,
                    // Restoration has no mid-run cursor: the partial mask
                    // is discarded and resume re-runs it from `sequence`.
                    Err(reason) => return bdy.partial(reason, FlowPhase::Compact { sequence }),
                }
            };
            // Omission targets are the faults the restored sequence
            // detects, stored as indices in the cursor so a resumed run
            // compacts toward the same set.
            let cursor = OmitCursor {
                pass: 0,
                sequence: restored.sequence.clone(),
                targets: detection.detected().iter().map(|id| id.index()).collect(),
                original_len: sequence.len(),
            };
            run.restored = Some(restored);
            if let Err(partial) = bdy.boundary(|| FlowPhase::Omit(cursor.clone())) {
                return partial;
            }
            cursor
        }
        CompactStage::Omit(cursor) => cursor,
    };

    let span = obs.span(SpanKind::Pass, "omit");
    // Omission starting from its first pass in this process gets a full
    // record: the faults the restored sequence detects are its baseline.
    let before = (cursor.pass == 0).then(|| {
        let report = SeqFaultSim::run_observed(circuit, faults, &cursor.sequence, span.handle());
        (report, cursor.sequence.len())
    });
    while cursor.pass < config.omission_passes && !cursor.sequence.is_empty() {
        match omission_pass_resumable(
            circuit,
            faults,
            &cursor.sequence,
            &cursor.targets,
            cursor.pass,
            span.handle(),
            ctl,
        ) {
            Ok((next, changed)) => {
                cursor.pass += 1;
                cursor.sequence = next;
                if !changed {
                    break;
                }
                if cursor.pass < config.omission_passes {
                    if let Err(partial) = bdy.boundary(|| FlowPhase::Omit(cursor.clone())) {
                        return partial;
                    }
                }
            }
            // A tripped pass discards its partial work; the cursor still
            // names the sequence the pass started from.
            Err(reason) => return bdy.partial(reason, FlowPhase::Omit(cursor)),
        }
    }
    let after = SeqFaultSim::run_observed(circuit, faults, &cursor.sequence, span.handle());
    drop(span);

    run.omitted = before.map(|(before, original_len)| Compacted {
        sequence: cursor.sequence.clone(),
        original_len,
        target_count: before.detected_count(),
        extra_detected: faults
            .ids()
            .filter(|&id| after.is_detected(id) && !before.is_detected(id))
            .count(),
    });
    run.detected = after.detected_count();
    run.sequence = cursor.sequence;
    FlowOutcome::Complete(run)
}

/// Fills in the completed run's [`FlowReport`] once the flow span closed.
/// The detection profile describes the uncompacted sequence when this
/// process produced it: straight from the generator's report, or from an
/// unobserved simulation of the translated sequence. The event log cannot
/// provide it, because compaction re-simulates prefixes and would
/// double-count detections.
fn attach(
    outcome: FlowOutcome<ResilientRun>,
    collector: &MetricsCollector,
) -> FlowOutcome<ResilientRun> {
    match outcome {
        FlowOutcome::Complete(mut run) => {
            run.report = FlowReport::from_collector(collector);
            run.report.detection_profile = match (&run.generated, &run.translated) {
                (Some(generated), _) => generated.report.detection_profile(),
                (None, Some(translated)) => {
                    SeqFaultSim::run(run.scan.circuit(), &run.faults, translated)
                        .detection_profile()
                }
                (None, None) => Vec::new(),
            };
            FlowOutcome::Complete(run)
        }
        partial => partial,
    }
}

fn execute(
    input: Input<'_>,
    kind: FlowKind,
    rcfg: &ResilientConfig,
    start: Stage,
    until: Until,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    let config = &rcfg.flow;
    let (obs, collector) = config.obs.with_collector();
    let outcome = {
        let flow = obs.span(
            SpanKind::Flow,
            match kind {
                FlowKind::Generation => "generation-flow",
                FlowKind::Translation => "translation-flow",
            },
        );
        let built;
        let circuit = match input {
            Input::Circuit(circuit) => {
                if config.lint {
                    let _span = flow.child(SpanKind::Pass, "lint-gate");
                    lint_gate(circuit)?;
                }
                circuit
            }
            Input::Source { name, text } => {
                // The source lint already covers the built form's rule
                // families.
                built = {
                    let _span = flow.child(SpanKind::Pass, "lint-gate");
                    build_source(name, text, config.lint)?
                };
                &built
            }
            Input::Snapshot(circuit) => circuit,
        };
        let ctl = CancelToken::new(rcfg.budget.clone());
        let mut bdy = Boundary {
            kind,
            circuit,
            config,
            template: OnceCell::new(),
            store: rcfg.snapshots.as_ref(),
            ctl: &ctl,
            obs: flow.handle(),
            index: 0,
        };
        match kind {
            FlowKind::Generation => drive_generation(circuit, &mut bdy, start, until)?,
            FlowKind::Translation => drive_translation(circuit, &mut bdy, start)?,
        }
    };
    Ok(attach(outcome, &collector))
}

/// A flow run to completion: unlimited budget, no snapshot store. This is
/// what [`GenerationFlow`](crate::GenerationFlow) and
/// [`TranslationFlow`](crate::TranslationFlow) are built from.
pub(crate) fn run_unlimited(
    input: Input<'_>,
    kind: FlowKind,
    config: &FlowConfig,
) -> Result<ResilientRun, FlowError> {
    let rcfg = ResilientConfig {
        flow: config.clone(),
        budget: RunBudget::unlimited(),
        snapshots: None,
    };
    Ok(execute(input, kind, &rcfg, Stage::Generate(None), Until::Compacted)?.into_complete())
}

/// Runs the generation flow under a budget, checkpointing at every pass
/// boundary. A `Complete` outcome's sequence is bit-identical to
/// [`GenerationFlow::run`](crate::GenerationFlow::run)'s compacted
/// (`omitted`) sequence under the same [`FlowConfig`].
///
/// # Errors
///
/// The flow's validation errors ([`FlowError::Lint`],
/// [`FlowError::NoFlipFlops`], [`FlowError::ChainCount`]). Budget trips
/// are **not** errors — they are [`FlowOutcome::Partial`].
pub fn run_generation_resilient(
    circuit: &Circuit,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute(
        Input::Circuit(circuit),
        FlowKind::Generation,
        rcfg,
        Stage::Generate(None),
        Until::Compacted,
    )
}

/// Runs the generation flow up to its Generate boundary and stops there:
/// a `Complete` outcome's sequence is the generated, uncompacted one. The
/// boundary still writes its snapshot when a store is configured, so
/// [`resume_flow`] can compact the sequence later.
///
/// # Errors
///
/// As [`run_generation_resilient`].
pub fn run_generation_uncompacted(
    circuit: &Circuit,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute(
        Input::Circuit(circuit),
        FlowKind::Generation,
        rcfg,
        Stage::Generate(None),
        Until::Generated,
    )
}

/// Runs the translation flow under a budget (see
/// [`run_generation_resilient`]; the `Complete` sequence matches
/// [`TranslationFlow::run`](crate::TranslationFlow::run)'s `omitted`).
///
/// # Errors
///
/// As [`run_generation_resilient`].
pub fn run_translation_resilient(
    circuit: &Circuit,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute(
        Input::Circuit(circuit),
        FlowKind::Translation,
        rcfg,
        Stage::Generate(None),
        Until::Compacted,
    )
}

/// Runs only the compaction tail (restoration plus omission passes) of the
/// generation flow over an existing `sequence`, under a budget, with the
/// same checkpoint boundaries as [`run_generation_resilient`] — this is
/// how a standalone "compact this sequence" job gets the full park/resume
/// treatment. A `Complete` outcome matches
/// [`restore_then_omit`](limscan_compact::restore_then_omit) over the same
/// scan circuit and fault list.
///
/// # Errors
///
/// As [`run_generation_resilient`].
pub fn run_compaction_resilient(
    circuit: &Circuit,
    sequence: &TestSequence,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute(
        Input::Circuit(circuit),
        FlowKind::Generation,
        rcfg,
        Stage::Compact(sequence.clone()),
        Until::Compacted,
    )
}

/// Resumes an interrupted flow from its snapshot and continues it (under
/// `rcfg.budget`, which may itself trip again — chained resumes converge
/// on the uninterrupted result).
///
/// The snapshot is self-contained: the circuit is rebuilt from the
/// embedded `.bench` text, so no external file has to survive between the
/// interrupted process and this one. The lint gate is skipped — the
/// circuit was validated when the snapshot was taken.
///
/// # Errors
///
/// [`FlowError::Snapshot`] with [`SnapshotError::ConfigMismatch`] when
/// `rcfg.flow` hashes differently from the configuration the snapshot was
/// taken under, plus any circuit-build error from the embedded text.
pub fn resume_flow(
    snapshot: &FlowSnapshot,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    if snapshot.config_digest != config_digest(snapshot.kind, &rcfg.flow) {
        return Err(FlowError::Snapshot(SnapshotError::ConfigMismatch));
    }
    let circuit = build_source(snapshot.circuit_name(), &snapshot.circuit_bench, false)?;
    let start = match &snapshot.phase {
        FlowPhase::Generate(c) => Stage::Generate(Some(c.clone())),
        FlowPhase::Compact { sequence } => Stage::Compact(sequence.clone()),
        FlowPhase::Omit(c) => Stage::Omit(c.clone()),
    };
    execute(
        Input::Snapshot(&circuit),
        snapshot.kind,
        rcfg,
        start,
        Until::Compacted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenerationFlow, TranslationFlow};
    use limscan_netlist::benchmarks;

    fn budget(max_checkpoints: u64) -> RunBudget {
        RunBudget {
            max_checkpoints: Some(max_checkpoints),
            ..RunBudget::default()
        }
    }

    #[test]
    fn unlimited_run_matches_the_classic_generation_flow() {
        let circuit = benchmarks::s27();
        let classic = GenerationFlow::run(&circuit, &FlowConfig::default()).unwrap();
        let run = run_generation_resilient(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        assert_eq!(run.sequence, classic.omitted.sequence);
        assert!(run.detected > 0);
        assert_eq!(run.total_faults, classic.faults.len());
    }

    #[test]
    fn unlimited_run_matches_the_classic_translation_flow() {
        let circuit = benchmarks::s27();
        let classic = TranslationFlow::run(&circuit, &FlowConfig::default()).unwrap();
        let run = run_translation_resilient(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        assert_eq!(run.sequence, classic.omitted.sequence);
    }

    #[test]
    fn uncompacted_run_stops_at_the_generate_boundary() {
        let circuit = benchmarks::s27();
        let classic = GenerationFlow::run(&circuit, &FlowConfig::default()).unwrap();
        let run = run_generation_uncompacted(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        assert_eq!(run.sequence, classic.generated.sequence);
        assert_eq!(run.detected, classic.generated.report.detected_count());
        assert!(run.restored.is_none() && run.omitted.is_none());
        let phases: Vec<&str> = run.report.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(phases, ["lint-gate", "scan-insert", "generate"]);
    }

    #[test]
    fn every_interruption_point_resumes_to_the_same_sequence() {
        let circuit = benchmarks::s27();
        let full = run_generation_resilient(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        for k in 1..=6 {
            let rcfg = ResilientConfig {
                budget: budget(k),
                ..ResilientConfig::default()
            };
            match run_generation_resilient(&circuit, &rcfg).unwrap() {
                FlowOutcome::Complete(run) => {
                    // Fewer boundaries than k: the flow finished whole.
                    assert_eq!(run.sequence, full.sequence, "k={k}");
                    break;
                }
                FlowOutcome::Partial {
                    reason,
                    snapshot,
                    path,
                } => {
                    assert_eq!(reason, StopReason::CheckpointBudget, "k={k}");
                    assert!(path.is_none(), "no store configured");
                    let resumed = resume_flow(&snapshot, &ResilientConfig::default())
                        .unwrap()
                        .into_complete();
                    assert_eq!(
                        resumed.sequence,
                        full.sequence,
                        "resume from boundary {k} (phase {}) diverged",
                        snapshot.phase.tag()
                    );
                    assert_eq!(resumed.detected, full.detected, "k={k}");
                }
            }
        }
    }

    #[test]
    fn snapshot_text_roundtrips_through_the_partial_outcome() {
        let circuit = benchmarks::s27();
        let rcfg = ResilientConfig {
            budget: budget(1),
            ..ResilientConfig::default()
        };
        let FlowOutcome::Partial { snapshot, .. } =
            run_generation_resilient(&circuit, &rcfg).unwrap()
        else {
            panic!("checkpoint budget 1 must stop at the first boundary");
        };
        let back = FlowSnapshot::from_text(&snapshot.to_text()).unwrap();
        assert_eq!(back, snapshot);
        // The embedded circuit rebuilds and re-validates.
        assert!(build_source("snapshot", &back.circuit_bench, true).is_ok());
    }

    #[test]
    fn drifted_configuration_is_refused_on_resume() {
        let circuit = benchmarks::s27();
        let rcfg = ResilientConfig {
            budget: budget(1),
            ..ResilientConfig::default()
        };
        let FlowOutcome::Partial { snapshot, .. } =
            run_generation_resilient(&circuit, &rcfg).unwrap()
        else {
            panic!("expected a partial outcome");
        };
        let drifted = ResilientConfig {
            flow: FlowConfig {
                seed: 1,
                ..FlowConfig::default()
            },
            ..ResilientConfig::default()
        };
        let err = resume_flow(&snapshot, &drifted).expect_err("digest must mismatch");
        assert!(
            matches!(err, FlowError::Snapshot(SnapshotError::ConfigMismatch)),
            "{err:?}"
        );
    }

    #[test]
    fn vector_budget_surfaces_as_a_generate_phase_partial() {
        let circuit = benchmarks::s27();
        // Disable the random phase (which alone covers s27) so generation
        // must run episodes, and budget one vector so the second episode's
        // check trips mid-generation.
        let flow = FlowConfig {
            atpg: limscan_atpg::AtpgConfig {
                random_phase_vectors: 0,
                ..limscan_atpg::AtpgConfig::default()
            },
            ..FlowConfig::default()
        };
        let rcfg = ResilientConfig {
            flow: flow.clone(),
            budget: RunBudget {
                max_vectors: Some(1),
                ..RunBudget::default()
            },
            ..ResilientConfig::default()
        };
        let FlowOutcome::Partial {
            reason, snapshot, ..
        } = run_generation_resilient(&circuit, &rcfg).unwrap()
        else {
            panic!("a one-vector budget cannot finish s27");
        };
        assert_eq!(reason, StopReason::VectorBudget);
        assert!(matches!(snapshot.phase, FlowPhase::Generate(_)));
        let unlimited = ResilientConfig {
            flow,
            ..ResilientConfig::default()
        };
        let full = run_generation_resilient(&circuit, &unlimited)
            .unwrap()
            .into_complete();
        let resumed = resume_flow(&snapshot, &unlimited).unwrap().into_complete();
        assert_eq!(resumed.sequence, full.sequence);
    }
}
