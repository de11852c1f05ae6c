//! The row estimator (`psm_compile::RowEstimator`) against the reference
//! path it replaces: `classify_trace`, then the trace's input Hamming
//! series, then `HmmSimulator::run` over both.
//!
//! The estimator classifies a row only when a word the table's atoms read
//! changed since the previous row, and folds the Hamming distance and the
//! compiled forward step into the same pass. These tests pin that it
//! changes nothing observable: every estimate bit, wrong-state count and
//! unknown count equals the reference on all four paper benchmarks'
//! long-TS workloads, one-shot (directly, through `PsmFlow` and through a
//! served model) and fed in chunks (directly and through
//! `StreamSession`). The classifier's read set is checked on PRNG-built
//! traces: a word outside it never changes a class, and a walk that
//! reuses the previous class across unchanged read words (this file's
//! own, and `classify_trace`'s) equals the `Bits` oracle row by row, on
//! traces with runs of equal rows and runs that differ only outside the
//! read set, on an empty trace and on a trace with no words per cycle.

use psm_persist::{JsonValue, Persist};
use psm_prng::Prng;
use psmgen::compile::{CompiledModel, RowEstimator};
use psmgen::flow::{IpPreset, PsmFlow, TrainedModel};
use psmgen::hmm::{build_hmm, HmmOutcome, HmmSimulator};
use psmgen::ips::{behavioural_trace, ip_by_name, testbench};
use psmgen::mining::{
    Miner, MiningConfig, PropositionId, PropositionTable, PropositionTrace, RowClassifier,
};
use psmgen::psm::{classify_trace, generate_psm, join, MergePolicy};
use psmgen::serve::{Registry, ServedModel, StreamSession};
use psmgen::trace::{Direction, FunctionalTrace, PowerTrace, SignalSet};
use std::borrow::Cow;
use std::sync::Arc;

const BENCHES: [&str; 4] = ["RAM", "MultSum", "AES", "Camellia"];

fn assert_bit_identical(got: &HmmOutcome, want: &HmmOutcome, label: &str) {
    assert_eq!(
        got.wrong_state_predictions, want.wrong_state_predictions,
        "{label}: wrong-state counters diverge"
    );
    assert_eq!(
        got.unknown_instants, want.unknown_instants,
        "{label}: unknown counters diverge"
    );
    assert_eq!(got.estimate.len(), want.estimate.len(), "{label}");
    for (t, (a, b)) in got.estimate.iter().zip(want.estimate.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: instant {t} diverges");
    }
}

/// The reference estimate of `trace` under `table` and the model `hmm`
/// was built from.
fn reference(
    table: &PropositionTable,
    psm: &psmgen::psm::Psm,
    hmm: &psmgen::hmm::Hmm,
    trace: &FunctionalTrace,
) -> HmmOutcome {
    let obs = classify_trace(table, trace);
    HmmSimulator::new(psm, hmm.clone()).run(&obs, &trace.input_hamming_series())
}

/// Rows `start..end` of `trace`, as a trace of their own.
fn rows(trace: &FunctionalTrace, start: usize, end: usize) -> FunctionalTrace {
    let mut out = FunctionalTrace::with_capacity(trace.signals().clone(), end - start);
    for t in start..end {
        out.push_words(trace.cycle(t).as_words()).unwrap();
    }
    out
}

/// Chunk boundaries: fixed-size windows, the last one possibly shorter.
fn windows(len: usize, window: usize) -> Vec<(usize, usize)> {
    (0..len)
        .step_by(window.max(1))
        .map(|start| (start, (start + window).min(len)))
        .collect()
}

/// Chunk boundaries of random sizes, with runs of one-row chunks and
/// empty chunks mixed in.
fn random_chunking(len: usize, rng: &mut Prng) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        let size = if rng.chance(0.05) {
            0
        } else if rng.chance(0.3) {
            rng.range_usize(1..4)
        } else {
            rng.range_usize(4..5_000)
        };
        let end = (start + size).min(len);
        out.push((start, end));
        start = end;
    }
    out
}

/// Feeds `trace` to `estimator` chunk by chunk and packages the result.
fn feed_chunked(
    estimator: &RowEstimator,
    trace: &FunctionalTrace,
    chunks: &[(usize, usize)],
) -> HmmOutcome {
    let mut state = estimator.begin();
    let mut estimate = PowerTrace::with_capacity(trace.len());
    for &(start, end) in chunks {
        estimator
            .feed(&mut state, &rows(trace, start, end), &mut estimate)
            .expect("chunks are laid out as the estimator's rows");
    }
    assert_eq!(state.instants(), trace.len());
    HmmOutcome {
        estimate,
        wrong_state_predictions: state.wrong_state_predictions(),
        unknown_instants: state.unknown_instants(),
    }
}

/// Streams `trace` through a session of `served` chunk by chunk.
fn stream_chunked(
    served: &Arc<ServedModel>,
    trace: &FunctionalTrace,
    chunks: &[(usize, usize)],
) -> HmmOutcome {
    let mut session = StreamSession::open(served.clone());
    let mut estimate = PowerTrace::with_capacity(trace.len());
    for &(start, end) in chunks {
        let out = session
            .feed(&rows(trace, start, end))
            .expect("chunks continue the stream");
        for value in out.estimate.iter() {
            estimate.push(value);
        }
        assert_eq!(out.instants, end);
    }
    HmmOutcome {
        estimate,
        wrong_state_predictions: session.wrong_state_predictions(),
        unknown_instants: session.unknown_instants(),
    }
}

/// Trains one paper benchmark on its short TS, serves the model from a
/// scratch registry, and generates a long-TS workload of `cycles` cycles.
fn trained(
    name: &str,
    seed: u64,
    cycles: usize,
) -> (TrainedModel, Arc<ServedModel>, FunctionalTrace) {
    let flow = PsmFlow::builder()
        .preset(IpPreset::from_name(name).expect("paper benchmark"))
        .build();
    let mut ip = ip_by_name(name).expect("paper benchmark");
    let model = flow
        .train(
            ip.as_mut(),
            &[testbench::short_ts(name, 1).expect("paper benchmark")],
        )
        .expect("training succeeds");
    let stim = testbench::long_ts(name, seed, cycles).expect("paper benchmark");
    let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");

    let dir = std::env::temp_dir().join(format!(
        "psmgen-estimator-{name}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    model.save(dir.join("model.json")).expect("model saves");
    let served = Registry::open(&dir)
        .expect("registry opens")
        .snapshot()
        .lookup("model", None)
        .expect("model served");
    std::fs::remove_dir_all(&dir).ok();

    // The one-shot paths all agree with the reference.
    let want = reference(&model.table, &model.psm, &model.hmm, &workload);
    assert!(!want.estimate.is_empty(), "{name}: empty workload");
    assert_bit_identical(
        &flow.estimate_from_trace(&model, &workload),
        &want,
        &format!("{name} flow"),
    );
    assert_bit_identical(
        &served.estimate(&workload),
        &want,
        &format!("{name} served"),
    );
    (model, served, workload)
}

fn estimator_for<'t>(model: &'t TrainedModel, trace: &FunctionalTrace) -> RowEstimator<'t> {
    let compiled = model.compile().expect("model compiles");
    RowEstimator::new(Cow::Borrowed(&model.table), trace.signals(), compiled)
        .expect("trace holds the atoms")
}

#[test]
fn row_estimator_matches_the_reference_on_long_ts_workloads() {
    for name in BENCHES {
        let (model, served, workload) = trained(name, 5, 3_000);
        let want = reference(&model.table, &model.psm, &model.hmm, &workload);
        let estimator = estimator_for(&model, &workload);
        assert_bit_identical(&estimator.run(&workload), &want, name);
        for window in [1, 7, 256, workload.len()] {
            let chunks = windows(workload.len(), window);
            let label = format!("{name} window {window}");
            assert_bit_identical(&feed_chunked(&estimator, &workload, &chunks), &want, &label);
            assert_bit_identical(
                &stream_chunked(&served, &workload, &chunks),
                &want,
                &format!("{label} streamed"),
            );
        }
    }
}

/// The 10⁵-instant differential check: every paper benchmark, seeded
/// random chunkings, directly and through `StreamSession`. Run it in
/// release: `cargo test --release --test estimator -- --ignored`.
#[test]
#[ignore = "10^5 instants per benchmark; run in release"]
fn row_estimator_matches_the_reference_at_scale() {
    let mut rng = Prng::seed_from_u64(0xE57);
    for name in BENCHES {
        let (model, served, workload) = trained(name, 9, 100_000);
        assert!(workload.len() >= 100_000, "{name}: short workload");
        let want = reference(&model.table, &model.psm, &model.hmm, &workload);
        let estimator = estimator_for(&model, &workload);
        assert_bit_identical(&estimator.run(&workload), &want, name);
        for round in 0..3 {
            let chunks = random_chunking(workload.len(), &mut rng);
            let label = format!("{name} chunking {round}");
            assert_bit_identical(&feed_chunked(&estimator, &workload, &chunks), &want, &label);
            assert_bit_identical(
                &stream_chunked(&served, &workload, &chunks),
                &want,
                &format!("{label} streamed"),
            );
        }
    }
}

/// A PRNG trace over an interface with every shape of atom: one-bit and
/// small-domain controls (`v = c` on one word), a 100-bit bus with three
/// values (`v = c` on two words), two equal-width buses (`v ∘ w`) and
/// wide noise no atom reads. Rows come in runs of equal values.
fn prng_trace(rng: &mut Prng, len: usize) -> FunctionalTrace {
    let mut signals = SignalSet::new();
    signals.push("en", 1, Direction::Input).unwrap();
    signals.push("mode", 3, Direction::Input).unwrap();
    signals.push("a", 16, Direction::Input).unwrap();
    signals.push("b", 16, Direction::Input).unwrap();
    signals.push("wide", 100, Direction::Input).unwrap();
    signals.push("noise", 40, Direction::Output).unwrap();
    signals.push("blob", 130, Direction::Output).unwrap();
    let words = signals.words_per_cycle();
    let mut trace = FunctionalTrace::with_capacity(signals, len);
    let mut row = vec![0u64; words];
    while trace.len() < len {
        // en, mode, a, b, wide (2 words), noise, blob (3 words).
        row[0] = rng.range_u64(0..2);
        row[1] = rng.range_u64(0..4);
        row[2] = rng.range_u64(0..3);
        row[3] = rng.range_u64(0..3);
        let wide = *rng.pick(&[(0u64, 0u64), (u64::MAX, 7), (5, 1 << 35)]);
        (row[4], row[5]) = wide;
        for _ in 0..rng.range_usize(1..6).min(len - trace.len()) {
            for word in &mut row[6..] {
                *word = rng.next_u64();
            }
            trace.push_words(&row).unwrap();
        }
    }
    trace
}

fn mine(trace: &FunctionalTrace) -> PropositionTable {
    Miner::new(MiningConfig::default().with_const_atom_max_domain(4))
        .mine(&[trace])
        .expect("mining succeeds")
        .table
}

/// `row` with its words outside `classifier`'s read set scrambled, kept
/// within each signal's width.
fn scramble_unread(
    classifier: &RowClassifier<'_>,
    signals: &SignalSet,
    row: &[u64],
    rng: &mut Prng,
) -> Vec<u64> {
    let mut scrambled = row.to_vec();
    for (w, word) in scrambled.iter_mut().enumerate() {
        if !classifier.reads().contains(&w) {
            *word ^= rng.next_u64();
        }
    }
    let mut masked = FunctionalTrace::new(signals.clone());
    masked.push_words(&scrambled).unwrap();
    masked.as_words().to_vec()
}

#[test]
fn words_outside_the_read_set_never_change_the_class() {
    let mut rng = Prng::seed_from_u64(31);
    for case in 0..16 {
        let trace = prng_trace(&mut rng, 400);
        let table = mine(&trace);
        let classifier = table.row_classifier(trace.signals()).unwrap();
        let classes = table.classify_trace(&trace);
        let reads = classifier.reads();
        assert!(!reads.is_empty(), "case {case}: no atom reads the row");
        // noise (word 6) and blob (words 7..10) are never read.
        assert!(reads.iter().all(|&w| w < 6), "case {case}: reads {reads:?}");
        let mut truths = classifier.truth_buffer();
        for (t, cycle) in trace.iter().enumerate() {
            let row = cycle.as_words();
            assert_eq!(classifier.classify(row, &mut truths), classes[t]);
            let scrambled = scramble_unread(&classifier, trace.signals(), row, &mut rng);
            assert!(!classifier.reads_differ(row, &scrambled));
            assert_eq!(
                classifier.classify(&scrambled, &mut truths),
                classes[t],
                "case {case} instant {t}"
            );
            // Every read word does change something the atoms see.
            for &w in reads {
                let mut flipped = row.to_vec();
                flipped[w] ^= 1;
                assert!(classifier.reads_differ(row, &flipped));
            }
        }
    }
}

/// What the estimator does: keep the previous class while the read words
/// repeat.
fn memoised_walk(
    classifier: &RowClassifier<'_>,
    trace: &FunctionalTrace,
) -> (Vec<Option<PropositionId>>, usize) {
    let mut truths = classifier.truth_buffer();
    let mut out = Vec::with_capacity(trace.len());
    let mut classified = 0;
    for t in 0..trace.len() {
        let row = trace.cycle(t).as_words();
        if t == 0 || classifier.reads_differ(trace.cycle(t - 1).as_words(), row) {
            classified += 1;
            out.push(classifier.classify(row, &mut truths));
        } else {
            out.push(*out.last().unwrap());
        }
    }
    (out, classified)
}

#[test]
fn memoised_walk_equals_classify_trace() {
    let mut rng = Prng::seed_from_u64(47);
    for case in 0..16 {
        let training = prng_trace(&mut rng, 300);
        let table = mine(&training);
        let classifier = table.row_classifier(training.signals()).unwrap();

        // Runs of equal rows and runs that differ only outside the read
        // set, built on fresh rows the table may not know.
        let base = prng_trace(&mut rng, 200);
        let mut trace = FunctionalTrace::new(base.signals().clone());
        for cycle in base.iter() {
            let row = cycle.as_words();
            for _ in 0..rng.range_usize(1..5) {
                if rng.chance(0.5) {
                    trace.push_words(row).unwrap();
                } else {
                    let scrambled = scramble_unread(&classifier, base.signals(), row, &mut rng);
                    trace.push_words(&scrambled).unwrap();
                }
            }
        }
        // Both memoised walks against the `Bits` oracle, row by row.
        let per_row: Vec<_> = trace.iter().map(|row| table.classify(row)).collect();
        let (walk, classified) = memoised_walk(&classifier, &trace);
        assert_eq!(walk, per_row, "case {case}");
        assert_eq!(table.classify_trace(&trace), per_row, "case {case}");
        assert!(
            classified < trace.len() / 2,
            "case {case}: the walk reused a class on {} of {} rows",
            trace.len() - classified,
            trace.len()
        );

        // The estimator over the same rows, against the reference walker
        // of a model trained on the training trace.
        let ids = table.classify_trace(&training);
        let power: PowerTrace = ids
            .iter()
            .map(|id| 2.0 + 3.0 * id.map_or(0, |id| id.index()) as f64 + rng.f64_in(0.0, 0.2))
            .collect();
        let mined = Miner::new(MiningConfig::default().with_const_atom_max_domain(4))
            .mine(&[&training])
            .unwrap();
        let psm = join(
            &[generate_psm(&mined.traces[0], &power, case).unwrap()],
            &MergePolicy::default(),
        );
        let hmm = build_hmm(&psm, mined.table.len());
        let estimator = RowEstimator::new(
            Cow::Borrowed(&mined.table),
            trace.signals(),
            CompiledModel::compile(&psm, &hmm).unwrap(),
        )
        .unwrap();
        let want = reference(&mined.table, &psm, &hmm, &trace);
        let label = format!("prng case {case}");
        assert_bit_identical(&estimator.run(&trace), &want, &label);
        for window in [1, 7, trace.len()] {
            let chunks = windows(trace.len(), window);
            assert_bit_identical(
                &feed_chunked(&estimator, &trace, &chunks),
                &want,
                &format!("{label} window {window}"),
            );
        }
    }
}

#[test]
fn empty_traces_and_rows_without_words() {
    // An empty trace: nothing to classify, nothing estimated.
    let mut rng = Prng::seed_from_u64(3);
    let training = prng_trace(&mut rng, 100);
    let mined = Miner::new(MiningConfig::default())
        .mine(&[&training])
        .unwrap();
    let empty = FunctionalTrace::new(training.signals().clone());
    let classifier = mined.table.row_classifier(empty.signals()).unwrap();
    assert!(memoised_walk(&classifier, &empty).0.is_empty());
    let power: PowerTrace = (0..training.len()).map(|t| 1.0 + (t % 3) as f64).collect();
    let psm = join(
        &[generate_psm(&mined.traces[0], &power, 0).unwrap()],
        &MergePolicy::default(),
    );
    let hmm = build_hmm(&psm, mined.table.len());
    let estimator = RowEstimator::new(
        Cow::Borrowed(&mined.table),
        empty.signals(),
        CompiledModel::compile(&psm, &hmm).unwrap(),
    )
    .unwrap();
    let want = reference(&mined.table, &psm, &hmm, &empty);
    assert!(want.estimate.is_empty());
    assert_bit_identical(&estimator.run(&empty), &want, "empty trace");

    // A trace over no signals: every row is the same empty row. Mining
    // finds no atom there, so the table (one proposition over no atoms)
    // is loaded the way a model artifact would carry it.
    let mut bare = FunctionalTrace::new(SignalSet::new());
    for _ in 0..12 {
        bare.push_words(&[]).unwrap();
    }
    let table: PropositionTable = Persist::from_json(
        &JsonValue::parse(
            r#"{"vocabulary":{"signals":[],"atoms":[]},"props":[{"row":[0],"atoms":0}]}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let classifier = table.row_classifier(bare.signals()).unwrap();
    assert_eq!(classifier.row_words(), 0);
    assert!(classifier.reads().is_empty());
    let (walk, classified) = memoised_walk(&classifier, &bare);
    assert_eq!(walk, table.classify_trace(&bare));
    assert!(walk.iter().all(Option::is_some));
    assert_eq!(classified, 1);
    // A model trained elsewhere on two behaviours; the bare rows show
    // only the first.
    let props = [0u32, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0];
    let power: PowerTrace = props.iter().map(|&p| 3.0 + 6.0 * p as f64).collect();
    let psm = join(
        &[generate_psm(&PropositionTrace::from_indices(&props), &power, 0).unwrap()],
        &MergePolicy::default(),
    );
    let hmm = build_hmm(&psm, 2);
    let estimator = RowEstimator::new(
        Cow::Borrowed(&table),
        bare.signals(),
        CompiledModel::compile(&psm, &hmm).unwrap(),
    )
    .unwrap();
    let want = reference(&table, &psm, &hmm, &bare);
    assert_eq!(want.estimate.len(), bare.len());
    assert_bit_identical(&estimator.run(&bare), &want, "no words");
    for window in [1, 5, bare.len()] {
        assert_bit_identical(
            &feed_chunked(&estimator, &bare, &windows(bare.len(), window)),
            &want,
            &format!("no words, window {window}"),
        );
    }
}
