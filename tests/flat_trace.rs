//! Differential tests of the flat, row-major trace storage against the
//! owned-`Bits` oracle: the Hamming series, atom evaluation, windowed
//! Hamming stitching (through `InputSpans`) and chunked streaming
//! estimation must all agree with what per-signal `Bits` arithmetic
//! gives, on random traces whose widths straddle every word boundary and
//! whose inputs and outputs interleave.

use psm_persist::{encode_artifact, JsonValue, Persist};
use psm_prng::Prng;
use psmgen::hmm::build_hmm;
use psmgen::mining::{AtomicProposition, Comparison, Miner, MiningConfig};
use psmgen::psm::{calibrate, generate_psm, join, simplify, CalibrationConfig, MergePolicy};
use psmgen::serve::{Registry, StreamSession};
use psmgen::trace::{
    Bits, Direction, FunctionalTrace, InputSpans, PowerTrace, SignalId, SignalSet,
};

/// Widths around every word boundary, up to the paper's widest (AES).
const WIDTHS: [usize; 7] = [1, 7, 63, 64, 65, 128, 260];

/// Every width once as an input and once as an output, interleaved
/// (in, out, in, out, …), so input words are never contiguous.
fn interleaved_signals() -> SignalSet {
    let mut signals = SignalSet::new();
    for (k, &w) in WIDTHS.iter().enumerate() {
        signals
            .push(format!("i{k}"), w, Direction::Input)
            .expect("unique");
        signals
            .push(format!("o{k}"), w, Direction::Output)
            .expect("unique");
    }
    signals
}

fn random_bits(rng: &mut Prng, width: usize) -> Bits {
    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
    Bits::from_words(&words, width)
}

/// A random trace in phases: each signal draws from a small pool of
/// values per phase, so propositions repeat and models have structure,
/// while some instants flip single values for fresh Hamming distances.
fn random_trace(rng: &mut Prng, cycles: usize) -> FunctionalTrace {
    let signals = interleaved_signals();
    let pools: Vec<Vec<Bits>> = signals
        .iter()
        .map(|(_, d)| (0..3).map(|_| random_bits(rng, d.width())).collect())
        .collect();
    let mut trace = FunctionalTrace::new(signals);
    let mut phase = vec![0usize; pools.len()];
    for _ in 0..cycles {
        if rng.chance(0.15) {
            for p in phase.iter_mut() {
                *p = rng.range_usize(0..3);
            }
        }
        let row: Vec<Bits> = pools
            .iter()
            .zip(&phase)
            .map(|(pool, &p)| {
                if rng.chance(0.1) {
                    random_bits(rng, pool[p].width())
                } else {
                    pool[p].clone()
                }
            })
            .collect();
        trace
            .push_cycle(row)
            .expect("widths follow the declarations");
    }
    trace
}

/// The oracle series: per input signal, `Bits::hamming_distance` of
/// owned values between consecutive instants.
fn oracle_hamming(trace: &FunctionalTrace) -> Vec<u32> {
    let inputs = trace.signals().inputs();
    (0..trace.len())
        .map(|t| {
            if t == 0 {
                return 0;
            }
            inputs
                .iter()
                .map(|&id| {
                    trace
                        .cycle(t - 1)
                        .bits(id)
                        .hamming_distance(&trace.cycle(t).bits(id))
                        .expect("one signal keeps its width")
                })
                .sum()
        })
        .collect()
}

#[test]
fn hamming_series_matches_the_bits_oracle() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0001);
    for case in 0..16 {
        let cycles = 1 + rng.range_usize(0..300);
        let trace = random_trace(&mut rng, cycles);
        let oracle = oracle_hamming(&trace);
        assert_eq!(trace.input_hamming_series(), oracle, "case {case}");
        for (t, &h) in oracle.iter().enumerate() {
            assert_eq!(trace.input_hamming(t), h, "case {case}, instant {t}");
        }
    }
}

#[test]
fn row_atom_evaluation_matches_bits_equality_and_compare() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0002);
    let trace = random_trace(&mut rng, 400);
    let ids: Vec<(SignalId, usize)> = trace
        .signals()
        .iter()
        .map(|(id, d)| (id, d.width()))
        .collect();
    for _ in 0..2_000 {
        let t = rng.range_usize(0..trace.len());
        let row = trace.cycle(t);
        let &(signal, width) = rng.pick(&ids);
        // A constant seen somewhere in the trace, a fresh random one, or
        // the row's own words at another width (which must never hold,
        // even when the words agree).
        let value = match rng.range_u32(0..3) {
            0 => trace.cycle(rng.range_usize(0..trace.len())).bits(signal),
            1 => random_bits(&mut rng, width),
            _ => Bits::from_words(row.words(signal), if width == 1 { 2 } else { width - 1 }),
        };
        let expected = row.bits(signal) == value;
        let atom = AtomicProposition::VarEqConst { signal, value };
        assert_eq!(atom.eval(row), expected, "v = c at instant {t}");

        // Relational atoms over the equal-width input/output pair.
        let k = rng.range_usize(0..WIDTHS.len());
        let (left, right) = (ids[2 * k].0, ids[2 * k + 1].0);
        let (left, right) = if rng.chance(0.5) {
            (left, right)
        } else {
            (right, left)
        };
        let ord = row
            .bits(left)
            .compare(&row.bits(right))
            .expect("equal widths");
        for cmp in Comparison::ALL {
            let atom = AtomicProposition::VarCmpVar { left, cmp, right };
            assert_eq!(atom.eval(row), cmp.test(ord), "v {cmp} w at instant {t}");
        }
        // A value compared with itself is equal, whatever its width.
        let same = AtomicProposition::VarCmpVar {
            left,
            cmp: Comparison::Eq,
            right: left,
        };
        assert!(same.eval(row));
    }
}

#[test]
fn trace_walks_equal_per_row_evaluation() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0005);
    let training = random_trace(&mut rng, 300);
    let signals = training.signals().clone();
    // Designer atoms add a multi-word constant and one of the wrong width
    // (which never holds) to the mined `v = c` and `v ∘ w` atoms.
    let wide = signals.by_name("i6").expect("the 260-bit input");
    let extra = vec![
        AtomicProposition::VarEqConst {
            signal: wide,
            value: training.cycle(0).bits(wide),
        },
        AtomicProposition::VarEqConst {
            signal: wide,
            value: Bits::zero(259),
        },
    ];
    let config = MiningConfig::default().with_const_atom_max_domain(4);
    let mut mined = Miner::new(config)
        .mine_with_atoms(&[&training], extra)
        .expect("mining succeeds");
    let vocabulary = mined.table.vocabulary().clone();
    assert!(vocabulary
        .atoms()
        .iter()
        .any(|a| matches!(a, AtomicProposition::VarCmpVar { .. })));

    let workload = random_trace(&mut rng, 300);
    for row in workload.iter() {
        let packed = vocabulary.evaluate_row(row);
        for (i, atom) in vocabulary.atoms().iter().enumerate() {
            assert_eq!(packed[i / 64] >> (i % 64) & 1 == 1, atom.eval(row));
        }
    }
    let per_row: Vec<_> = workload
        .iter()
        .map(|row| mined.table.classify(row))
        .collect();
    assert_eq!(mined.table.classify_trace(&workload), per_row);
    assert!(per_row.iter().any(Option::is_some));

    // Interning the workload as a whole equals interning row by row.
    let mut by_row = mined.table.clone();
    let ids: Vec<_> = workload
        .iter()
        .map(|row| by_row.intern_cycle(row))
        .collect();
    let walked = mined.table.intern_trace(&workload);
    assert_eq!(walked.iter().collect::<Vec<_>>(), ids);
    assert_eq!(mined.table.len(), by_row.len());
}

#[test]
fn split_windows_stitched_with_input_spans_equal_the_series() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0003);
    let trace = random_trace(&mut rng, 257);
    let full = trace.input_hamming_series();
    let spans = InputSpans::new(trace.signals());
    for window in [1, 2, 7, 64, 256, 257, 1_000] {
        let mut stitched = Vec::new();
        let mut prev: Option<Vec<u64>> = None;
        for chunk in trace.split_windows(window) {
            let mut series = chunk.input_hamming_series();
            if let Some(prev) = &prev {
                series[0] = spans.distance(prev, chunk.cycle(0).as_words());
            }
            stitched.extend(series);
            prev = Some(chunk.cycle(chunk.len() - 1).as_words().to_vec());
        }
        assert_eq!(stitched, full, "window {window}");
    }
}

#[test]
fn chunked_stream_estimates_equal_one_shot_estimates() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0004);
    // Train on one random trace; power follows its phases plus a
    // Hamming-dependent term, so regression calibration can kick in and
    // the stitched Hamming series matters to the estimate.
    let training = random_trace(&mut rng, 600);
    let hamming = training.input_hamming_series();
    let power: PowerTrace = (0..training.len())
        .map(|t| {
            let base = 1.0 + (training.cycle(t).as_words()[0] & 1) as f64 * 4.0;
            base + 0.01 * f64::from(hamming[t])
        })
        .collect();
    let mined = Miner::new(MiningConfig::default())
        .mine(&[&training])
        .expect("mining succeeds");
    let merge = MergePolicy::default();
    let mut psm = generate_psm(&mined.traces[0], &power, 0).expect("psm generates");
    simplify(&mut psm, &merge);
    let mut combined = join(&[psm], &merge);
    let calibrated = calibrate(
        &mut combined,
        &[(&training, &power)],
        &CalibrationConfig::default(),
    )
    .expect("calibration succeeds");
    assert!(
        calibrated.calibrated_count() > 0,
        "a Hamming-calibrated state makes the stitched series matter"
    );
    let hmm = build_hmm(&combined, mined.table.len());
    let body = JsonValue::obj([
        ("table", mined.table.to_json()),
        ("psm", combined.to_json()),
        ("hmm", hmm.to_json()),
    ]);

    let dir = std::env::temp_dir().join(format!("psmgen-flat-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("rand@1.json"), encode_artifact(&body)).unwrap();
    let model = Registry::open(&dir)
        .expect("registry loads")
        .snapshot()
        .lookup("rand", None)
        .expect("model is registered");
    std::fs::remove_dir_all(&dir).ok();

    // A held-out workload of the same shape.
    let workload = random_trace(&mut rng, 700);
    model
        .check_interface(workload.signals())
        .expect("same interface");
    let oneshot = model.estimate(&workload);
    assert!(oneshot.unknown_instants < workload.len());
    for chunk_size in [1, 7, 256] {
        let mut session = StreamSession::open(model.clone());
        let mut streamed: Vec<u64> = Vec::new();
        let mut last = None;
        for chunk in workload.split_windows(chunk_size) {
            let out = session.feed(&chunk).expect("same interface");
            streamed.extend(out.estimate.iter().map(f64::to_bits));
            last = Some(out);
        }
        let last = last.expect("at least one chunk");
        let expected: Vec<u64> = oneshot.estimate.iter().map(f64::to_bits).collect();
        assert_eq!(streamed, expected, "chunk size {chunk_size}");
        assert_eq!(
            last.wrong_state_predictions, oneshot.wrong_state_predictions,
            "chunk size {chunk_size}"
        );
        assert_eq!(
            last.unknown_instants, oneshot.unknown_instants,
            "chunk size {chunk_size}"
        );
        assert_eq!(last.instants, workload.len());
    }
}
