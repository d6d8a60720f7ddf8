//! Fault dropping must be invisible in everything except runtime.
//!
//! `SeqFaultSim::extend` slices long extensions and repacks the undetected
//! survivors at slice barriers when dropping is enabled. Because lanes
//! evolve independently and barriers fall only after a window is fully
//! merged, the detection report, the fault-free state, and the carried
//! faulty states must be bit-identical with dropping on or off — at any
//! thread count, and across interleaved rewinds via `reset_with_state`.
//!
//! Dropping and thread count are process-global knobs, so every test in
//! this binary serialises on [`LOCK`] — the harness otherwise runs them on
//! concurrent threads.

use std::sync::Mutex;

use limscan_fault::FaultList;
use limscan_netlist::benchmarks;
use limscan_sim::{set_fault_dropping, set_sim_threads, Logic, SeqFaultSim, TestSequence};
use proptest::prelude::*;

/// Serialises the tests of this binary (global dropping / thread knobs).
static LOCK: Mutex<()> = Mutex::new(());

fn random_seq(width: usize, len: usize, seed: u64) -> TestSequence {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// One full scenario at a fixed dropping setting: extend over `seq1`,
/// rewind to a mid-run machine state, extend over `seq2`, and return every
/// observable the two runs must agree on.
#[allow(clippy::type_complexity)]
fn run_scenario(
    circuit_name: &str,
    seed: u64,
    len1: usize,
    len2: usize,
    drop: bool,
) -> (
    Vec<Option<u32>>,
    Vec<Logic>,
    Vec<(usize, Vec<Logic>)>,
    usize,
) {
    set_fault_dropping(Some(drop));
    let c = benchmarks::load(circuit_name).expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let faults = if faults.len() > 600 {
        faults.sample(600)
    } else {
        faults
    };
    let mut sim = SeqFaultSim::new(&c, &faults);

    let seq1 = random_seq(c.inputs().len(), len1, seed);
    sim.extend(&seq1);
    let mid_state: Vec<Logic> = sim.good_state().to_vec();
    let first_pass: Vec<Option<u32>> = faults.ids().map(|f| sim.detected_at(f)).collect();

    // Rewind: reuse the simulator from the mid-run fault-free state. The
    // undetected set must be rebuilt from scratch (dropping bookkeeping
    // from the first pass must not leak through the reset).
    sim.reset_with_state(&mid_state);
    let seq2 = random_seq(c.inputs().len(), len2, seed ^ 0x9E37_79B9);
    sim.extend(&seq2);

    let detected: Vec<Option<u32>> = faults.ids().map(|f| sim.detected_at(f)).collect();
    let good = sim.good_state().to_vec();
    let carried: Vec<(usize, Vec<Logic>)> = faults
        .ids()
        .filter(|&f| sim.detected_at(f).is_none())
        .map(|f| (f.index(), sim.fault_state(f).to_vec()))
        .collect();
    let first_count = first_pass.iter().filter(|d| d.is_some()).count();
    set_fault_dropping(None);
    (detected, good, carried, first_count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Detection reports, fault-free state, and carried faulty states are
    /// identical with dropping on and off, across 1–8 threads and an
    /// interleaved `reset_with_state` rewind.
    #[test]
    fn dropping_is_observably_invisible(
        circuit_idx in 0usize..5,
        seed in 0u64..1_000_000,
        len1 in 33usize..80, // > DROP_SLICE so at least one barrier fires
        len2 in 1usize..48,
        threads in 1usize..=8,
    ) {
        let name = ["s27", "s298", "s344", "s420", "s526"][circuit_idx];
        let _g = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_sim_threads(Some(threads));
        let on = run_scenario(name, seed, len1, len2, true);
        let off = run_scenario(name, seed, len1, len2, false);
        set_sim_threads(Some(1));
        prop_assert_eq!(&on.0, &off.0, "detection report differs on {}", name);
        prop_assert_eq!(&on.1, &off.1, "good state differs on {}", name);
        prop_assert_eq!(&on.2, &off.2, "carried faulty states differ on {}", name);
        prop_assert_eq!(on.3, off.3, "first-pass detections differ on {}", name);

        // And thread count itself must be invisible: re-run the dropping
        // configuration single-threaded and compare.
        set_sim_threads(Some(1));
        let single = run_scenario(name, seed, len1, len2, true);
        prop_assert_eq!(&on.0, &single.0, "thread count changed the report on {}", name);
        prop_assert_eq!(&on.1, &single.1, "thread count changed good state on {}", name);
        prop_assert_eq!(&on.2, &single.2, "thread count changed faulty states on {}", name);
    }
}

/// The generated test program (greedy detection-driven vector selection)
/// must come out identical with dropping on and off: program equality is
/// the paper-level observable the report feeds.
#[test]
fn selected_test_program_is_identical_with_and_without_dropping() {
    let c = benchmarks::load("s298").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let pool = random_seq(c.inputs().len(), 96, 0xCAFE);

    let build_program = |drop: bool| -> Vec<usize> {
        set_fault_dropping(Some(drop));
        let mut sim = SeqFaultSim::new(&c, &faults);
        let mut kept = Vec::new();
        let mut covered = 0usize;
        // Greedy pass: keep each 8-vector block iff it detects new faults.
        for block in 0..pool.len() / 8 {
            let mut chunk = TestSequence::new(pool.width());
            for t in block * 8..(block + 1) * 8 {
                chunk.push(pool.vector(t).to_vec());
            }
            sim.extend(&chunk);
            if sim.detected_count() > covered {
                covered = sim.detected_count();
                kept.push(block);
            }
        }
        set_fault_dropping(None);
        kept
    };

    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_sim_threads(Some(1));
    assert_eq!(build_program(true), build_program(false));
}

/// Regression: a fault detected in pass 1 stays dropped for the rest of
/// that extension but reappears (and is re-detected at the same time) after
/// a reset — dropping state must not outlive the run it belongs to.
#[test]
fn dropped_faults_are_restored_by_reset() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_sim_threads(Some(1));
    let c = benchmarks::load("s27").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let seq = random_seq(c.inputs().len(), 40, 7);

    set_fault_dropping(Some(true));
    let mut sim = SeqFaultSim::new(&c, &faults);
    sim.extend(&seq);
    let first: Vec<Option<u32>> = faults.ids().map(|f| sim.detected_at(f)).collect();
    let init: Vec<Logic> = vec![Logic::X; c.dffs().len()];
    sim.reset_with_state(&init);
    sim.extend(&seq);
    let second: Vec<Option<u32>> = faults.ids().map(|f| sim.detected_at(f)).collect();
    set_fault_dropping(None);

    assert_eq!(first, second);
    assert!(
        first.iter().any(std::option::Option::is_some),
        "scenario should detect at least one fault"
    );
}
