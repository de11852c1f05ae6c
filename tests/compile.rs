//! Bit-identity of the compiled runtime (`psm-compile`) against the
//! reference walker (`psm_hmm::HmmSimulator`).
//!
//! The compiled runtime is the only estimator of the flow and of `psmd`,
//! and it is only admissible because it changes *nothing* observable:
//! every estimate bit, wrong-state-prediction count and unknown-instant
//! count must equal the reference result — one-shot, under any chunking
//! of the same inputs, and for models the compiler was never tuned on.
//! These tests pin that contract on all four paper benchmarks (directly
//! and through `PsmFlow`'s flat and hierarchical estimation), on
//! randomised PRNG-built models (including unknown and out-of-range
//! observations), and through the `psmgen-artifact/v3` round trip into
//! the serving registry.

use psm_prng::Prng;
use psmgen::compile::CompiledModel;
use psmgen::flow::{IpPreset, PsmFlow, TrainedModel};
use psmgen::hmm::{build_hmm, HmmOutcome, HmmSimulator};
use psmgen::ips::{behavioural_trace, ip_by_name, testbench};
use psmgen::mining::{PropositionId, PropositionTrace};
use psmgen::psm::{classify_trace, generate_psm, join, MergePolicy};
use psmgen::serve::Registry;
use psmgen::trace::{FunctionalTrace, PowerTrace};
use std::process::Command;

const BENCHES: [&str; 4] = ["RAM", "MultSum", "AES", "Camellia"];

fn flow_for(name: &str) -> PsmFlow {
    let preset = IpPreset::from_name(name).expect("paper benchmark");
    PsmFlow::builder().preset(preset).build()
}

/// The reference estimate: classify, then the textbook walker.
fn oracle(model: &TrainedModel, workload: &FunctionalTrace) -> HmmOutcome {
    let obs = classify_trace(&model.table, workload);
    let hamming = workload.input_hamming_series();
    HmmSimulator::new(&model.psm, model.hmm.clone()).run(&obs, &hamming)
}

/// Trains one paper benchmark and generates a fresh estimation workload.
fn trained(name: &str, cycles: usize) -> (TrainedModel, FunctionalTrace) {
    let flow = flow_for(name);
    let mut ip = ip_by_name(name).expect("paper benchmark");
    let model = flow
        .train(
            ip.as_mut(),
            &[testbench::short_ts(name, 1).expect("paper benchmark")],
        )
        .expect("training succeeds");
    let stim = testbench::long_ts(name, 5, cycles).expect("paper benchmark");
    let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");
    (model, workload)
}

fn assert_bit_identical(fast: &HmmOutcome, interp: &HmmOutcome, label: &str) {
    assert_eq!(
        fast.wrong_state_predictions, interp.wrong_state_predictions,
        "{label}: wrong-state counters diverge"
    );
    assert_eq!(
        fast.unknown_instants, interp.unknown_instants,
        "{label}: unknown counters diverge"
    );
    assert_eq!(fast.estimate.len(), interp.estimate.len(), "{label}");
    for (t, (a, b)) in fast.estimate.iter().zip(interp.estimate.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: instant {t} diverges");
    }
}

#[test]
fn compiled_forward_is_bit_identical_on_all_paper_benches() {
    for name in BENCHES {
        let (model, workload) = trained(name, 2_000);
        let compiled = model.compile().expect("model compiles");
        let obs = classify_trace(&model.table, &workload);
        let hamming = workload.input_hamming_series();
        let interp = oracle(&model, &workload);
        let fast = compiled.run(&obs, &hamming);
        assert!(!interp.estimate.is_empty(), "{name}: empty workload");
        assert_bit_identical(&fast, &interp, name);
    }
}

#[test]
fn flow_estimation_is_bit_identical_to_the_reference_simulator() {
    for name in BENCHES {
        let flow = flow_for(name);
        let mut ip = ip_by_name(name).expect("paper benchmark");
        let training = [testbench::short_ts(name, 1).expect("paper benchmark")];
        let stim = testbench::long_ts(name, 5, 1_500).expect("paper benchmark");
        let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");

        let model = flow
            .train(ip.as_mut(), &training)
            .expect("training succeeds");
        let flat = flow.estimate_from_trace(&model, &workload);
        assert!(!flat.estimate.is_empty(), "{name}: empty workload");
        assert_bit_identical(&flat, &oracle(&model, &workload), &format!("{name} flat"));

        // Hierarchical: the per-domain reference outcomes, combined the
        // way `estimate_hierarchical` documents (instant-wise sum in
        // domain order, worst-domain counters).
        let hier = flow
            .train_hierarchical(ip.as_mut(), &training)
            .expect("hierarchical training succeeds");
        let mut domains = hier.models.iter().map(|m| oracle(m, &workload));
        let first = domains.next().expect("at least the core domain");
        let want = domains.fold(first, |acc, out| HmmOutcome {
            estimate: acc
                .estimate
                .iter()
                .zip(out.estimate.iter())
                .map(|(a, b)| a + b)
                .collect(),
            wrong_state_predictions: acc.wrong_state_predictions.max(out.wrong_state_predictions),
            unknown_instants: acc.unknown_instants.max(out.unknown_instants),
        });
        let got = flow.estimate_hierarchical(&hier, &workload);
        assert_bit_identical(&got, &want, &format!("{name} hierarchical"));
    }
}

#[test]
fn streamed_chunk_resume_is_bit_identical_for_every_window() {
    for name in BENCHES {
        let (model, workload) = trained(name, 1_000);
        let compiled = model.compile().expect("model compiles");
        let obs = classify_trace(&model.table, &workload);
        let hamming = workload.input_hamming_series();
        let oneshot = compiled.run(&obs, &hamming);
        for window in [1usize, 3, 7, 64, obs.len()] {
            let mut state = compiled.begin();
            let mut estimate = PowerTrace::with_capacity(obs.len());
            let mut start = 0;
            while start < obs.len() {
                let end = (start + window).min(obs.len());
                compiled.resume(
                    &mut state,
                    &obs[start..end],
                    &hamming[start..end],
                    &mut estimate,
                );
                start = end;
            }
            assert_eq!(
                state.wrong_state_predictions(),
                oneshot.wrong_state_predictions,
                "{name} window {window}"
            );
            assert_eq!(
                state.unknown_instants(),
                oneshot.unknown_instants,
                "{name} window {window}"
            );
            assert_eq!(state.instants(), obs.len(), "{name} window {window}");
            assert_eq!(estimate.len(), oneshot.estimate.len());
            for (a, b) in estimate.iter().zip(oneshot.estimate.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} window {window}");
            }
        }
    }
}

#[test]
fn randomised_models_agree_between_engines() {
    let mut rng = Prng::seed_from_u64(2026);
    for case in 0..24 {
        // A random proposition sequence with enough repetition for the
        // miner-shaped XU structure to emerge, and a power profile that
        // ties distinct levels to distinct propositions.
        let symbols = rng.range_u32(2..6);
        let len = rng.range_usize(40..160);
        let mut props: Vec<u32> = Vec::with_capacity(len);
        let mut current = rng.range_u32(0..symbols);
        for _ in 0..len {
            if rng.chance(0.35) {
                current = rng.range_u32(0..symbols);
            }
            props.push(current);
        }
        let power: PowerTrace = props
            .iter()
            .map(|&p| 1.5 + 2.0 * p as f64 + rng.f64_in(0.0, 0.25))
            .collect();
        let psm = generate_psm(&PropositionTrace::from_indices(&props), &power, case)
            .expect("generation succeeds");
        let joined = join(&[psm], &MergePolicy::default());
        let hmm = build_hmm(&joined, symbols as usize);
        let compiled = CompiledModel::compile(&joined, &hmm).expect("model compiles");

        // Observation stream with unknown instants (None) and symbols
        // beyond the HMM's alphabet mixed in.
        let steps = rng.range_usize(50..300);
        let obs: Vec<Option<PropositionId>> = (0..steps)
            .map(|_| {
                if rng.chance(0.1) {
                    None
                } else if rng.chance(0.05) {
                    Some(PropositionId::from_index(symbols + rng.range_u32(0..3)))
                } else {
                    Some(PropositionId::from_index(rng.range_u32(0..symbols)))
                }
            })
            .collect();
        let hamming: Vec<u32> = (0..steps).map(|_| rng.range_u32(0..12)).collect();

        let interp = HmmSimulator::new(&joined, hmm.clone()).run(&obs, &hamming);
        let fast = compiled.run(&obs, &hamming);
        assert_bit_identical(&fast, &interp, &format!("random case {case}"));
    }
}

#[test]
fn v3_artifact_round_trip_serves_bit_identically() {
    let (model, workload) = trained("RAM", 1_500);
    let dir = std::env::temp_dir().join(format!("psmgen-compile-v3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    model.save(dir.join("ram@1.json")).expect("v2 saves");
    // The v3 twin comes from the offline compiler, as deployed.
    let status = Command::new(env!("CARGO_BIN_EXE_psmctl"))
        .arg("compile")
        .arg(dir.join("ram@1.json"))
        .arg(dir.join("ram@2.json"))
        .status()
        .expect("psmctl runs");
    assert!(status.success(), "psmctl compile failed: {status}");

    let want = oracle(&model, &workload);
    let registry = Registry::open(&dir).expect("registry opens");
    for version in [1, 2] {
        let served = registry
            .snapshot()
            .lookup("ram", Some(version))
            .expect("model served");
        assert_eq!(served.format_version, version as u32 + 1);
        let got = served.estimate(&workload);
        assert_bit_identical(&got, &want, &format!("v{version}"));
    }

    // The v3 file also still loads as a training-side model: the
    // compiled section is additive, not a fork of the schema.
    let back = TrainedModel::load(dir.join("ram@2.json")).expect("v3 loads as TrainedModel");
    assert_eq!(back.to_json_string(), model.to_json_string());
    std::fs::remove_dir_all(&dir).ok();
}
