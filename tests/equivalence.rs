//! Behavioural ↔ structural equivalence of every benchmark IP.
//!
//! The methodology's training traces come from the *gate-level* twin while
//! estimation-time traces come from the *behavioural* model, so the two
//! must agree bit-for-bit, cycle-for-cycle on every output. These tests
//! drive both models with the same randomised stimuli and compare every
//! port at every instant.

use psm_prng::Prng;
use psmgen::ips::{behavioural_trace, ip_by_name, testbench};
use psmgen::rtl::{Simulator, Stimulus};
use psmgen::trace::Bits;

/// Runs the structural twin and checks all sampled ports against the
/// behavioural trace.
fn assert_equivalent(name: &str, stimulus: &Stimulus) {
    let mut ip = ip_by_name(name).expect("benchmark exists");
    let behavioural = behavioural_trace(ip.as_mut(), stimulus).expect("stimulus fits");

    let netlist = ip.netlist().expect("netlist builds");
    let mut sim = Simulator::new(&netlist).expect("netlist is acyclic");
    let handles = sim.input_handles();
    for t in 0..stimulus.len() {
        for ((_, h), value) in handles.iter().zip(&stimulus.cycle_bits(t)) {
            sim.set_input_by_handle(*h, value).expect("widths match");
        }
        sim.step();
        let sampled = sim.sample_ports();
        for (i, (_, decl)) in netlist.signal_set().iter().enumerate() {
            assert_eq!(
                sampled[i],
                behavioural.cycle(t).bits(
                    behavioural
                        .signals()
                        .by_name(decl.name())
                        .expect("same interface")
                ),
                "{name}: port `{}` diverges at cycle {t}",
                decl.name()
            );
        }
    }
}

#[test]
fn ram_models_are_equivalent_on_random_traffic() {
    assert_equivalent("RAM", &testbench::ram_short_ts(42));
    assert_equivalent("RAM", &testbench::ram_long_ts(43, 2_000));
}

#[test]
fn multsum_models_are_equivalent_on_random_traffic() {
    assert_equivalent("MultSum", &testbench::multsum_short_ts(42));
    assert_equivalent("MultSum", &testbench::multsum_long_ts(43, 2_000));
}

#[test]
fn aes_models_are_equivalent_on_random_traffic() {
    assert_equivalent("AES", &testbench::aes_long_ts(42, 2_500));
}

#[test]
fn camellia_models_are_equivalent_on_random_traffic() {
    assert_equivalent("Camellia", &testbench::camellia_long_ts(42, 2_500));
}

/// Adversarial stimulus: random values on *every* input line each cycle,
/// including command pulses at arbitrary (possibly illegal) times.
fn chaos_stimulus(name: &str, seed: u64, cycles: usize) -> Stimulus {
    let ip = ip_by_name(name).expect("benchmark exists");
    let signals = ip.signals();
    let mut rng = Prng::seed_from_u64(seed);
    let mut stim = Stimulus::new();
    for _ in 0..cycles {
        let mut cycle = Vec::new();
        for id in signals.inputs() {
            let w = signals.decl(id).width();
            let mut b = Bits::zero(w);
            for bit in 0..w {
                if rng.chance(0.5) {
                    b.set_bit(bit, true);
                }
            }
            cycle.push(b);
        }
        stim.push_cycle(cycle).unwrap();
    }
    stim
}

#[test]
fn all_ips_survive_chaos_stimuli_equivalently() {
    for name in ["RAM", "MultSum", "AES", "Camellia"] {
        assert_equivalent(name, &chaos_stimulus(name, 7, 600));
    }
}

#[test]
fn whitebox_camellia_probe_matches_structurally() {
    use psmgen::ips::{Camellia128Whitebox, Ip};
    use psmgen::rtl::Simulator;
    let stimulus = testbench::camellia_long_ts(11, 1_500);
    let mut ip = Camellia128Whitebox::new();
    let behavioural = behavioural_trace(&mut ip, &stimulus).expect("stimulus fits");
    let netlist = ip.netlist().expect("netlist builds");
    let mut sim = Simulator::new(&netlist).expect("acyclic");
    let handles = sim.input_handles();
    let fl = behavioural
        .signals()
        .by_name("fl_active")
        .expect("probe exists");
    for t in 0..stimulus.len() {
        for ((_, h), value) in handles.iter().zip(&stimulus.cycle_bits(t)) {
            sim.set_input_by_handle(*h, value).expect("widths match");
        }
        sim.step();
        assert_eq!(
            sim.output("fl_active").expect("probe port"),
            behavioural.cycle(t).bits(fl),
            "probe diverges at cycle {t}"
        );
    }
}

/// The whole-trace mining fast path (`intern_trace` / `classify_trace`:
/// atoms resolved against the row layout once, one truth-row buffer per
/// trace) must be indistinguishable from the per-row allocating
/// reference: same ids in the same order, and a byte-identical
/// serialised table.
#[test]
fn scratch_mining_path_matches_allocating_reference() {
    use psm_persist::Persist;

    let flow = psmgen::flow::PsmFlow::builder()
        .preset(psmgen::flow::IpPreset::MultSum)
        .build();
    let mut ip = ip_by_name("MultSum").expect("benchmark exists");
    let model = flow
        .train(ip.as_mut(), &[testbench::multsum_short_ts(1)])
        .expect("trains");

    // A fresh workload the table has never seen.
    let workload = testbench::multsum_long_ts(91, 1_500);
    let trace = behavioural_trace(ip.as_mut(), &workload).expect("workload fits");

    // Interning: reference (allocate + intern a boxed row per cycle)
    // against the trace walk, starting from identical table clones.
    let mut reference_table = model.table.clone();
    let mut fast_table = model.table.clone();
    let fast_ids = fast_table.intern_trace(&trace);
    assert_eq!(fast_ids.len(), trace.len());
    for t in 0..trace.len() {
        let row = reference_table.vocabulary().evaluate_row(trace.cycle(t));
        let ref_id = reference_table.intern(row);
        assert_eq!(ref_id, fast_ids.id(t), "intern diverges at cycle {t}");
    }
    assert_eq!(
        reference_table.to_json().render(),
        fast_table.to_json().render(),
        "interned tables must serialise byte-identically"
    );

    // Classification: the trace walk against a linear row scan.
    let fast = model.table.classify_trace(&trace);
    assert_eq!(fast.len(), trace.len());
    for (t, &fast) in fast.iter().enumerate() {
        let row = model.table.vocabulary().evaluate_row(trace.cycle(t));
        let scan = model
            .table
            .ids()
            .find(|&id| model.table.get(id).row() == row.as_slice());
        assert_eq!(scan, fast, "classify diverges at cycle {t}");
    }
}

/// End-to-end byte-identity: training and estimating through the
/// optimized pipeline must serialise models and produce estimates
/// identical across repeated runs and worker counts (the optimizations
/// must not introduce any run-to-run or scheduling sensitivity).
#[test]
fn optimized_pipeline_stays_deterministic_end_to_end() {
    use psmgen::flow::Parallelism;
    let training = [
        testbench::multsum_long_ts(3, 900),
        testbench::multsum_long_ts(4, 900),
    ];
    let workload = testbench::multsum_long_ts(5, 900);

    let mut renderings = Vec::new();
    let mut estimates = Vec::new();
    for parallelism in [Parallelism::Sequential, Parallelism::Workers(4)] {
        let flow = psmgen::flow::PsmFlow::builder()
            .preset(psmgen::flow::IpPreset::MultSum)
            .parallelism(parallelism)
            .build();
        let mut ip = ip_by_name("MultSum").expect("benchmark exists");
        let model = flow.train(ip.as_mut(), &training).expect("trains");
        renderings.push(model.to_json_string());
        let trace = behavioural_trace(ip.as_mut(), &workload).expect("workload fits");
        let outcome = flow.estimate_from_trace(&model, &trace);
        estimates.push(
            outcome
                .estimate
                .iter()
                .map(f64::to_bits)
                .collect::<Vec<u64>>(),
        );
    }
    assert_eq!(renderings[0], renderings[1], "model JSON diverged");
    assert_eq!(estimates[0], estimates[1], "estimates diverged");
}

/// The optimiser must preserve cycle-accurate behaviour on the real
/// benchmark netlists, not just on synthetic examples.
#[test]
fn optimised_netlists_match_behavioural_models() {
    use psmgen::rtl::optimize;
    for name in ["MultSum", "AES", "Camellia"] {
        let mut ip = ip_by_name(name).expect("benchmark exists");
        let stimulus = chaos_stimulus(name, 23, 400);
        let behavioural = behavioural_trace(ip.as_mut(), &stimulus).expect("stimulus fits");

        let netlist = ip.netlist().expect("netlist builds");
        let (optimised, stats) = optimize(&netlist).expect("optimisation succeeds");
        assert!(stats.removed() > 0, "{name}: nothing folded?");

        let mut sim = Simulator::new(&optimised).expect("netlist is acyclic");
        let handles = sim.input_handles();
        for t in 0..stimulus.len() {
            for ((_, h), value) in handles.iter().zip(&stimulus.cycle_bits(t)) {
                sim.set_input_by_handle(*h, value).expect("widths match");
            }
            sim.step();
            for (i, (_, decl)) in optimised.signal_set().iter().enumerate() {
                assert_eq!(
                    sim.sample_ports()[i],
                    behavioural.cycle(t).bits(
                        behavioural
                            .signals()
                            .by_name(decl.name())
                            .expect("same interface")
                    ),
                    "{name} (optimised): port `{}` diverges at cycle {t}",
                    decl.name()
                );
            }
        }
    }
}
