//! Bit-exactness of the wide (multi-word) kernel.
//!
//! Three engines must agree fault-for-fault and time-unit-for-time-unit on
//! every embedded benchmark:
//!
//! * `extend` — the production wide kernel (`LANE_WORDS` words);
//! * `extend_narrow` — the same kernel compiled at one word per lane (the
//!   old 64-lane geometry);
//! * `extend_reference` — the dense scalar-per-word oracle.
//!
//! Agreement covers detection verdicts, first-detection times, the
//! fault-free machine state, and the per-fault faulty machine states that
//! carry across incremental extensions.

use limscan_fault::{FaultId, FaultList};
use limscan_netlist::benchmarks;
use limscan_sim::{set_sim_threads, Logic, SeqFaultSim, TestSequence, TrialCheckpoints, LANES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random fully-specified test sequence.
fn random_seq(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// Asserts that two simulators that consumed the same input agree on every
/// observable: detection verdicts with times, fault-free state, and the
/// faulty state of every still-undetected fault.
fn assert_same_outcome(name: &str, a: &SeqFaultSim, b: &SeqFaultSim, faults: &FaultList) {
    for id in faults.ids() {
        assert_eq!(
            a.detected_at(id),
            b.detected_at(id),
            "{name}: fault {} detection differs",
            id.index()
        );
    }
    assert_eq!(a.good_state(), b.good_state(), "{name}: good state differs");
    for id in faults.ids() {
        if a.detected_at(id).is_none() {
            assert_eq!(
                a.fault_state(id),
                b.fault_state(id),
                "{name}: fault {} carried state differs",
                id.index()
            );
        }
    }
}

/// Runs all three engines over the same two-part extension (the split
/// exercises incremental state carry-over) and cross-checks them.
/// `name` is `circuit` or `circuit/variant` — everything before the first
/// `/` or `@` is the benchmark to load.
fn cross_check(name: &str, faults: &FaultList, seed: u64, len: usize) {
    let circuit = name.split(['/', '@']).next().unwrap();
    let c = benchmarks::load(circuit).expect("known benchmark");
    let seq = random_seq(c.inputs().len(), len, seed);
    let head = seq.prefix(len / 2);
    let mut tail = TestSequence::new(seq.width());
    for t in len / 2..len {
        tail.push(seq.vector(t).to_vec());
    }

    let mut wide = SeqFaultSim::new(&c, faults);
    wide.extend(&head);
    wide.extend(&tail);

    let mut narrow = SeqFaultSim::new(&c, faults);
    narrow.extend_narrow(&head);
    narrow.extend_narrow(&tail);

    let mut reference = SeqFaultSim::new(&c, faults);
    reference.extend_reference(&head);
    reference.extend_reference(&tail);

    assert_same_outcome(&format!("{name} wide-vs-narrow"), &wide, &narrow, faults);
    assert_same_outcome(
        &format!("{name} wide-vs-reference"),
        &wide,
        &reference,
        faults,
    );
}

#[test]
fn engines_agree_on_every_embedded_benchmark() {
    set_sim_threads(Some(1));
    for (i, &name) in benchmarks::iscas89_suite()
        .iter()
        .chain(benchmarks::itc99_suite())
        .enumerate()
    {
        if name == "s35932" {
            continue; // covered separately with a sampled fault list
        }
        let c = benchmarks::load(name).expect("known benchmark");
        let faults = FaultList::collapsed(&c);
        // Large circuits get a sampled list to keep the reference oracle
        // affordable; the wide/narrow pair still sees batch boundaries.
        let faults = if faults.len() > 1200 {
            faults.sample(1200)
        } else {
            faults
        };
        cross_check(name, &faults, 0x5EED + i as u64, 24);
    }
}

#[test]
fn engines_agree_on_largest_benchmark_sampled() {
    set_sim_threads(Some(1));
    let c = benchmarks::load("s35932").expect("known benchmark");
    let faults = FaultList::collapsed(&c).sample(600);
    cross_check("s35932", &faults, 0x35932, 8);
}

#[test]
fn engines_agree_with_multiple_threads() {
    let c = benchmarks::load("s1423").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    set_sim_threads(Some(4));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cross_check("s1423@4t", &faults, 77, 40);
    }));
    set_sim_threads(Some(1));
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// 65 faults: one past the old 64-lane word. The second (nearly empty)
/// narrow batch and the partial wide word must mask unused lanes
/// identically.
#[test]
fn batch_boundary_at_65_faults() {
    set_sim_threads(Some(1));
    let c = benchmarks::load("s298").expect("known benchmark");
    let all = FaultList::collapsed(&c);
    let ids: Vec<FaultId> = all.ids().take(65).collect();
    let faults = FaultList::from_faults(ids.iter().map(|&id| all.fault(id)));
    assert_eq!(faults.len(), 65);
    cross_check("s298/65", &faults, 65, 32);
}

/// Regression: the per-thread kernel scratch is reused across circuits, and
/// its component bookkeeping must not leak from a many-component circuit
/// into a smaller one (stale component ids once indexed out of bounds).
/// This goes through the checkpoint recorder, whose kernel calls have no
/// degradation fallback to hide a panic behind.
#[test]
fn kernel_scratch_survives_circuit_switches() {
    set_sim_threads(Some(1));
    for &name in &["s953", "s27", "s641", "b02", "s420", "s27"] {
        let c = benchmarks::load(name).expect("known benchmark");
        let faults = FaultList::collapsed(&c).sample(200);
        let seq = random_seq(c.inputs().len(), 12, 0xC1C);
        let ck = TrialCheckpoints::record(&c, &faults, &seq);
        let mut sim = SeqFaultSim::new(&c, &faults);
        sim.extend(&seq);
        assert_eq!(
            ck.recorded_detected(),
            sim.detected_count(),
            "{name}: recorder and extend disagree"
        );
    }
}

/// `LANES + 1` faults: one past the wide word, forcing a second wide batch
/// with a single occupied lane.
#[test]
fn batch_boundary_past_wide_word() {
    set_sim_threads(Some(1));
    let c = benchmarks::load("s526").expect("known benchmark");
    let all = FaultList::collapsed(&c);
    let faults = FaultList::from_faults(all.as_slice().iter().copied().cycle().take(LANES + 1));
    assert_eq!(faults.len(), LANES + 1);
    cross_check("s526/LANES+1", &faults, 257, 32);
}
