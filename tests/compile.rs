//! Bit-identity of the compiled runtime (`psm-compile`) against the
//! reference walker (`psm_hmm::HmmSimulator`).
//!
//! The compiled runtime is the only estimator of the flow and of `psmd`,
//! and it is only admissible because it changes *nothing* observable:
//! every estimate bit, wrong-state-prediction count and unknown-instant
//! count must equal the reference result — one-shot, under any chunking
//! of the same inputs, and for models the compiler was never tuned on.
//! These tests pin that contract on all four paper benchmarks (directly
//! and through `PsmFlow`'s flat and hierarchical estimation), on a
//! long-TS model whose chains carry large counts, on randomised
//! PRNG-built models whose states hold chains of count > 1 and distinct
//! chains sharing an entry proposition (including unknown and
//! out-of-range observations, one-shot and chunked), through every
//! artifact format version into the serving registry, and on a legacy
//! artifact that lists every copy of a chain, against the estimate the
//! build that wrote it served.

use psm_prng::Prng;
use psmgen::compile::CompiledModel;
use psmgen::flow::{IpPreset, PsmFlow, TrainedModel};
use psmgen::hmm::{build_hmm, HmmOutcome, HmmSimulator};
use psmgen::ips::{behavioural_trace, ip_by_name, testbench};
use psmgen::mining::{PropositionId, PropositionTrace};
use psmgen::psm::{classify_trace, generate_psm, join, MergePolicy};
use psmgen::serve::Registry;
use psmgen::trace::{FunctionalTrace, PowerTrace};
use std::collections::HashSet;

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

/// Feeds `obs` to `compiled` in windows of 1, 3, 7, 64 and all instants,
/// one `step` per instant through one state carried across windows,
/// asserting each chunked run equals the one-shot run bit for bit.
fn assert_chunked_resume_matches_one_shot(
    compiled: &CompiledModel,
    obs: &[Option<PropositionId>],
    hamming: &[u32],
    name: &str,
) {
    let oneshot = compiled.run(obs, hamming);
    for window in [1usize, 3, 7, 64, obs.len()] {
        let mut state = compiled.begin();
        let mut estimate = PowerTrace::with_capacity(obs.len());
        let mut start = 0;
        while start < obs.len() {
            let end = (start + window).min(obs.len());
            for t in start..end {
                estimate.push(compiled.step(&mut state, obs[t], hamming[t]));
            }
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

#[test]
fn streamed_chunk_resume_is_bit_identical_for_every_window() {
    for name in BENCHES {
        let (model, workload) = trained(name, 1_000);
        let compiled = model.compile().expect("model compiles");
        let obs = classify_trace(&model.table, &workload);
        let hamming = workload.input_hamming_series();
        assert_chunked_resume_matches_one_shot(&compiled, &obs, &hamming, name);
    }
}

/// A model trained on long traces: joining folds thousands of equal
/// chains into a few distinct ones with large counts. The walk meets each
/// distinct chain once, and must still match the reference bit for bit.
#[test]
fn long_ts_model_with_duplicate_chains_is_bit_identical() {
    let name = "MultSum";
    let flow = flow_for(name);
    let mut ip = ip_by_name(name).expect("paper benchmark");
    let stimuli: Vec<_> = (7..=10)
        .map(|seed| testbench::long_ts(name, seed, 5_000).expect("paper benchmark"))
        .collect();
    let model = flow
        .train(ip.as_mut(), &stimuli)
        .expect("training succeeds");
    let (total, distinct) = model
        .psm
        .states()
        .fold((0, 0), |(total, distinct), (_, s)| {
            let unique: HashSet<_> = s.chains().iter().collect();
            assert_eq!(unique.len(), s.chains().len(), "a state repeats a chain");
            (total + s.multiplicity(), distinct + s.chains().len())
        });
    assert!(
        total > distinct,
        "long-TS chains carry counts > 1 ({total} in all, {distinct} distinct)"
    );

    let stim = testbench::long_ts(name, 11, 1_000).expect("paper benchmark");
    let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");
    let compiled = model.compile().expect("model compiles");
    let obs = classify_trace(&model.table, &workload);
    let hamming = workload.input_hamming_series();
    let interp = oracle(&model, &workload);
    assert!(!interp.estimate.is_empty(), "{name}: empty workload");
    assert_bit_identical(&compiled.run(&obs, &hamming), &interp, "MultSum long-TS");
    assert_chunked_resume_matches_one_shot(&compiled, &obs, &hamming, "MultSum long-TS");
}

/// Whether some state of `psm` holds (a) a chain of count > 1 and (b) two
/// distinct chains entered by the same proposition — the two shapes
/// `join` gives a state's alternatives.
fn chain_shapes(psm: &psmgen::psm::Psm) -> (bool, bool) {
    let mut repeated = false;
    let mut shared_entry = false;
    for (_, state) in psm.states() {
        repeated |= state.counts().iter().any(|&n| n > 1);
        let chains = state.chains();
        for (i, a) in chains.iter().enumerate() {
            for b in &chains[..i] {
                assert_ne!(a, b, "a state repeats a chain");
                shared_entry |= a.entry_proposition() == b.entry_proposition();
            }
        }
    }
    (repeated, shared_entry)
}

#[test]
fn randomised_models_agree_between_engines() {
    let mut rng = Prng::seed_from_u64(2026);
    let (mut with_counts, mut with_shared_entries) = (0, 0);
    for case in 0..32 {
        // One to three random proposition sequences with enough repetition
        // for the miner-shaped XU structure to emerge, and power profiles
        // that tie distinct levels to distinct propositions. Joining
        // several traces' PSMs gives states alternative chains: one chain
        // with a count > 1, and distinct chains opened by one proposition.
        let symbols = rng.range_u32(2..6);
        let traces = rng.range_usize(1..4);
        let psms: Vec<_> = (0..traces)
            .map(|k| {
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
                generate_psm(&PropositionTrace::from_indices(&props), &power, case + k)
                    .expect("generation succeeds")
            })
            .collect();
        let joined = join(&psms, &MergePolicy::default());
        let (repeated, shared_entry) = chain_shapes(&joined);
        with_counts += usize::from(repeated);
        with_shared_entries += usize::from(shared_entry);
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
        let label = format!("random case {case}");
        assert_bit_identical(&compiled.run(&obs, &hamming), &interp, &label);
        assert_chunked_resume_matches_one_shot(&compiled, &obs, &hamming, &label);
    }
    assert!(
        with_counts >= 16 && with_shared_entries >= 16,
        "the cases must exercise both joined shapes: {with_counts} with a chain of \
         count > 1, {with_shared_entries} with distinct chains sharing an entry"
    );
}

/// The north-star artifact invariant: one trained model written as v1
/// (bare JSON), v2 (`save`), v3 without a `compiled` section and v3 with a
/// garbage one loads to the same model and serves the same estimates.
#[test]
fn v3_artifact_round_trip_serves_bit_identically() {
    let (model, workload) = trained("RAM", 1_500);
    let dir = std::env::temp_dir().join(format!("psmgen-compile-v3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    model.save(dir.join("ram@2.json")).expect("v2 saves");
    let v2 = std::fs::read_to_string(dir.join("ram@2.json")).unwrap();
    let body = v2
        .strip_prefix("psmgen-artifact/v2\n")
        .expect("save writes a v2 header");
    assert_eq!(body, format!("{}\n", model.to_json_string()));
    std::fs::write(dir.join("ram@1.json"), model.to_json_string()).unwrap();
    std::fs::write(
        dir.join("ram@3.json"),
        format!("psmgen-artifact/v3\n{body}"),
    )
    .unwrap();
    let garbage = format!(
        "psmgen-artifact/v3\n{},\"compiled\":{{\"at\":[1e308]}}}}\n",
        model.to_json_string().strip_suffix('}').unwrap()
    );
    std::fs::write(dir.join("ram@4.json"), garbage).unwrap();

    // `save_compiled` is `save` after a compile check: the same bytes.
    model
        .save_compiled(dir.join("twin.out"))
        .expect("compiles and saves");
    assert_eq!(std::fs::read_to_string(dir.join("twin.out")).unwrap(), v2);
    std::fs::remove_file(dir.join("twin.out")).unwrap();

    let want = oracle(&model, &workload);
    let registry = Registry::open(&dir).expect("registry opens");
    for (version, format) in [(1, 1), (2, 2), (3, 3), (4, 3)] {
        let served = registry
            .snapshot()
            .lookup("ram", Some(version))
            .expect("model served");
        assert_eq!(served.format_version, format, "ram@{version}");
        let got = served.estimate(&workload);
        assert_bit_identical(&got, &want, &format!("ram@{version}"));

        // Every format also loads as a training-side model, to the same
        // canonical body.
        let back = TrainedModel::load(dir.join(format!("ram@{version}.json")))
            .expect("artifact loads as TrainedModel");
        assert_eq!(
            back.to_json_string(),
            model.to_json_string(),
            "ram@{version}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A MultSum model an earlier build wrote (three long-TS captures of 2 000
/// cycles, seeds 7–9), whose states list every copy of their chains under
/// the legacy `chains` key.
const LEGACY_FIXTURE: &str = "examples/artifacts/multsum_duplicate_chains.json";

/// What `psmctl estimate multsum_duplicate_chains --gen MultSum:11:1000
/// --format json` printed against [`LEGACY_FIXTURE`] when the build that
/// wrote the fixture served it.
const LEGACY_ESTIMATE: &str = "examples/artifacts/multsum_duplicate_chains.estimate.json";

/// Loading folds a legacy chain list into counts, and nothing observable
/// moves: each state holds its distinct chains in first-occurrence order
/// with their copy counts, and the reference walker, the compiled pass and
/// the serving registry all reproduce the estimate the writing build
/// served, bit for bit.
#[test]
fn legacy_duplicate_chain_artifact_folds_exactly() {
    use psm_persist::{decode_artifact, JsonValue, Persist};

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = root.join(LEGACY_FIXTURE);
    let text = std::fs::read_to_string(&fixture).expect("fixture reads");
    let (format, doc) = decode_artifact(&text).expect("fixture decodes");
    assert_eq!(format, 2);

    // The copies as the file lists them, folded by first occurrence.
    let legacy_states = doc
        .field("psm")
        .and_then(|psm| psm.arr_field("states"))
        .expect("psm states");
    let model = TrainedModel::load(&fixture).expect("legacy artifact loads");
    assert_eq!(model.psm.state_count(), legacy_states.len());
    let (mut copies, mut distinct) = (0, 0);
    for ((id, state), legacy) in model.psm.states().zip(legacy_states) {
        let mut want: Vec<(String, usize)> = Vec::new();
        for chain in legacy.arr_field("chains").expect("legacy chain list") {
            let key = chain.render();
            match want.iter_mut().find(|(k, _)| *k == key) {
                Some((_, count)) => *count += 1,
                None => want.push((key, 1)),
            }
            copies += 1;
        }
        let got: Vec<(String, usize)> = state
            .chains()
            .iter()
            .zip(state.counts())
            .map(|(c, &n)| (c.to_json().render(), n))
            .collect();
        assert_eq!(got, want, "state {id}");
        distinct += want.len();
    }
    assert!(
        copies > distinct,
        "the fixture lists copies ({copies} chains, {distinct} distinct)"
    );

    let expected = JsonValue::parse(&std::fs::read_to_string(root.join(LEGACY_ESTIMATE)).unwrap())
        .expect("estimate parses");
    let want = HmmOutcome {
        estimate: expected
            .arr_field("estimate")
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect(),
        wrong_state_predictions: expected.usize_field("wrong_state_predictions").unwrap(),
        unknown_instants: expected.usize_field("unknown_instants").unwrap(),
    };
    let mut ip = ip_by_name("MultSum").expect("paper benchmark");
    let stim = testbench::long_ts("MultSum", 11, 1_000).expect("paper benchmark");
    let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");
    assert_eq!(workload.len(), want.estimate.len());
    assert_bit_identical(&oracle(&model, &workload), &want, "reference walker");
    let obs = classify_trace(&model.table, &workload);
    let hamming = workload.input_hamming_series();
    let compiled = model.compile().expect("model compiles");
    assert_bit_identical(&compiled.run(&obs, &hamming), &want, "compiled pass");

    // The registry serves the legacy file as it is, and the model
    // re-saved in the counted shape loads back to the same PSM.
    let dir = std::env::temp_dir().join(format!("psmgen-legacy-chains-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&fixture, dir.join("legacy.json")).unwrap();
    model.save(dir.join("resaved.json")).expect("model saves");
    let registry = Registry::open(&dir).expect("registry opens");
    for name in ["legacy", "resaved"] {
        let served = registry
            .snapshot()
            .lookup(name, None)
            .expect("model served");
        assert_eq!(served.format_version, 2, "{name}");
        assert_eq!(served.state_count(), model.psm.state_count(), "{name}");
        assert_bit_identical(&served.estimate(&workload), &want, name);
    }
    let resaved = TrainedModel::load(dir.join("resaved.json")).expect("resaved model loads");
    assert_eq!(resaved.psm, model.psm);
    assert_eq!(resaved.hmm, model.hmm);
    std::fs::remove_dir_all(&dir).ok();
}
