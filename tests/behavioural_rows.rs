//! The behavioural IPs step over flat word rows: stimuli are row-major
//! word buffers, and `behavioural_trace` writes each row in place.
//!
//! These tests pin that path three ways: golden hashes of the functional
//! traces the Bits-per-port models produced, the errors a misfit cycle
//! meets where it is pushed and every simulation entry point returns for
//! a stimulus laid out for another interface, and the `Bits` ↔ row round
//! trip of `Stimulus`.

use psm_prng::Prng;
use psmgen::ips::{behavioural_trace, ip_by_name, testbench, Camellia128Whitebox, Ip};
use psmgen::rtl::{capture_traces, capture_traces_batch, PowerModel, RtlError, Stimulus};
use psmgen::trace::{Bits, Direction, FunctionalTrace, SignalSet, TraceError};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn ip(name: &str) -> Box<dyn Ip> {
    match name {
        "Camellia-whitebox" => Box::new(Camellia128Whitebox::new()),
        _ => ip_by_name(name).expect("benchmark exists"),
    }
}

/// Functional-trace words of every benchmark IP (and the white-box
/// Camellia) on short-TS seed 7 and long-TS seed 7 × 2 000 cycles, as the
/// models that stepped over one `Bits` per port recorded them.
#[test]
fn behavioural_traces_match_golden_hashes() {
    let golden: [(&str, [(usize, u64); 2]); 5] = [
        (
            "RAM",
            [(3639, 0xb759_71db_94e7_195c), (2211, 0xf71f_99d8_e4c1_52a0)],
        ),
        (
            "MultSum",
            [(2647, 0xc7fd_4ab1_a834_7a99), (2007, 0x2f10_a8e2_9ac0_5a4f)],
        ),
        (
            "AES",
            [(5272, 0x3915_2f2d_d6c5_f5f2), (2129, 0x34f5_3d8e_9fd9_e094)],
        ),
        (
            "Camellia",
            [(6148, 0xd9b4_bf02_fae1_d4a1), (2080, 0x3ead_fe5f_a317_7a6d)],
        ),
        (
            "Camellia-whitebox",
            [(6148, 0x6f03_4a19_55ae_e319), (2080, 0xdd9a_e1a3_6ce7_b6c5)],
        ),
    ];
    for (name, [short, long]) in golden {
        let bench = name.trim_end_matches("-whitebox");
        for ((len, hash), stimulus) in [
            (short, testbench::short_ts(bench, 7)),
            (long, testbench::long_ts(bench, 7, 2_000)),
        ] {
            let stimulus = stimulus.expect("benchmark exists");
            let trace = behavioural_trace(ip(name).as_mut(), &stimulus).expect("stimulus fits");
            assert_eq!(trace.len(), len, "{name}");
            assert_eq!(fnv(trace.as_words()), hash, "{name}: {len}-cycle trace");
        }
    }
}

/// One RAM cycle with an `addr` port of `addr_width` bits.
fn ram_cycle(t: u64, addr_width: usize) -> Vec<Bits> {
    vec![
        Bits::from_u64(t, addr_width),
        Bits::from_u64(t * 3, 32),
        Bits::from_bool(true),
        Bits::from_bool(false),
        Bits::from_bool(true),
        Bits::from_bool(false),
    ]
}

/// Four cycles laid out by `cycle`, which may be another interface's.
fn laid_out(cycle: impl Fn(u64) -> Vec<Bits>) -> Stimulus {
    (0..4).map(cycle).collect()
}

/// A RAM cycle with one port fewer than the RAM has.
fn short_cycle(t: u64) -> Vec<Bits> {
    ram_cycle(t, 8)[..5].to_vec()
}

fn long_cycle() -> Vec<Bits> {
    let mut cycle = ram_cycle(0, 8);
    cycle.push(Bits::from_bool(true));
    cycle
}

/// Errors hold no `PartialEq` (an I/O error may sit inside): compare
/// their debug forms.
fn debug(error: impl std::fmt::Debug) -> String {
    format!("{error:?}")
}

fn shape_error(expected: usize, actual: usize) -> RtlError {
    RtlError::Trace(TraceError::CycleShapeMismatch { expected, actual })
}

fn width_error(port: &str, expected: usize, actual: usize) -> RtlError {
    RtlError::PortWidthMismatch {
        port: port.to_owned(),
        expected,
        actual,
    }
}

/// A stimulus laid out for another interface fails each entry point
/// whole, with the error its layout raises: no panic, no truncated trace.
#[test]
fn malformed_stimuli_fail_every_simulation_path() {
    let netlist = ip("RAM").netlist().expect("netlist builds");
    let model = PowerModel::default();
    let good = testbench::ram_short_ts(1);
    let cases = [
        ("port count", laid_out(short_cycle), shape_error(6, 5)),
        (
            "width",
            laid_out(|t| ram_cycle(t, 9)),
            width_error("addr", 8, 9),
        ),
    ];
    for (label, stimulus, capture_error) in cases {
        // The behavioural trace reports what the trace's own cycle check
        // says: 7 signals (6 inputs + `rdata`) expected.
        let want = match &capture_error {
            RtlError::Trace(TraceError::CycleShapeMismatch { actual, .. }) => {
                TraceError::CycleShapeMismatch {
                    expected: 7,
                    actual: actual + 1,
                }
            }
            RtlError::PortWidthMismatch {
                port,
                expected,
                actual,
            } => TraceError::SignalWidthMismatch {
                signal: port.clone(),
                expected: *expected,
                actual: *actual,
            },
            other => unreachable!("{other:?}"),
        };
        let got = behavioural_trace(ip("RAM").as_mut(), &stimulus).expect_err(label);
        assert_eq!(debug(got), debug(want), "{label}");

        let got = capture_traces(&netlist, &model, &stimulus, 1).expect_err(label);
        assert_eq!(debug(got), debug(&capture_error), "{label}");

        let lanes = [good.clone(), stimulus, good.clone()];
        let got = capture_traces_batch(&netlist, &model, &lanes, &[1, 2, 3]).expect_err(label);
        assert_eq!(debug(got), debug(&capture_error), "{label}: batch");
    }
}

/// A cycle that does not fit is refused where it is pushed, with the
/// error a trace over the same ports returns, and nothing is appended;
/// that holds for the first cycle of a `for_inputs` stimulus too.
#[test]
fn push_cycle_refuses_a_misfit_where_it_is_pushed() {
    let signals = ip("RAM").signals();
    let mut inputs = SignalSet::new();
    for id in signals.inputs() {
        let decl = signals.decl(id);
        inputs
            .push(decl.name(), decl.width(), Direction::Input)
            .expect("RAM inputs are well formed");
    }
    let cases = [
        (
            "mid width",
            ram_cycle(5, 7),
            TraceError::SignalWidthMismatch {
                signal: "addr".to_owned(),
                expected: 8,
                actual: 7,
            },
        ),
        (
            "mid count",
            long_cycle(),
            TraceError::CycleShapeMismatch {
                expected: 6,
                actual: 7,
            },
        ),
    ];
    for (label, misfit, want) in cases {
        let mut stimulus = Stimulus::for_inputs(&signals);
        for t in 0..5 {
            stimulus.push_cycle(ram_cycle(t, 8)).expect("fits");
        }
        let got = stimulus.push_cycle(misfit.clone()).expect_err(label);
        let mut trace = FunctionalTrace::new(inputs.clone());
        let from_trace = trace.push_cycle(misfit).expect_err(label);
        assert_eq!(debug(&got), debug(want), "{label}");
        assert_eq!(debug(&got), debug(from_trace), "{label}");
        assert_eq!(stimulus.len(), 5, "{label}");
        stimulus.push_cycle(ram_cycle(5, 8)).expect("fits");
        assert_eq!(stimulus.len(), 6, "{label}");
    }

    let mut stimulus = Stimulus::for_inputs(&signals);
    let got = stimulus
        .push_cycle(short_cycle(0))
        .expect_err("first cycle");
    let want = TraceError::CycleShapeMismatch {
        expected: 6,
        actual: 5,
    };
    assert_eq!(debug(got), debug(want), "first cycle");
    assert!(stimulus.is_empty());
    assert_eq!(stimulus.widths(), [8, 32, 1, 1, 1, 1]);
}

/// Collecting cycles panics at the first one that does not fit the
/// first cycle's layout, and says which cycle it is.
#[test]
#[should_panic(
    expected = "stimulus cycle 2 does not fit: signal `in0` declared 8 bit(s) wide, got a 7-bit value"
)]
fn collecting_a_misfit_cycle_panics_naming_it() {
    let _: Stimulus = (0..4)
        .map(|t| ram_cycle(t, if t == 2 { 7 } else { 8 }))
        .collect();
}

/// Across lanes, the batch fails with the lowest misfit lane's error,
/// whatever port or kind of misfit later lanes hold. An empty lane
/// fits every interface.
#[test]
fn batch_reports_the_first_error_its_staging_meets() {
    let netlist = ip("RAM").netlist().expect("netlist builds");
    let model = PowerModel::default();
    let good = testbench::ram_short_ts(1);
    let narrow_wdata = laid_out(|t| {
        let mut cycle = ram_cycle(t, 8);
        cycle[1] = Bits::from_u64(0, 31);
        cycle
    });
    let wide_addr = laid_out(|t| ram_cycle(t, 9));
    let short = laid_out(short_cycle);
    let cases = [
        (
            vec![
                good.clone(),
                narrow_wdata.clone(),
                wide_addr.clone(),
                short.clone(),
            ],
            width_error("wdata", 32, 31),
        ),
        (
            vec![good.clone(), short.clone(), narrow_wdata],
            shape_error(6, 5),
        ),
        (
            vec![
                Stimulus::for_inputs(&ip("MultSum").signals()),
                good,
                wide_addr,
                short,
            ],
            width_error("addr", 8, 9),
        ),
    ];
    for (lanes, want) in cases {
        let seeds: Vec<u64> = (1..=lanes.len() as u64).collect();
        let got = capture_traces_batch(&netlist, &model, &lanes, &seeds).expect_err("misfit lane");
        assert_eq!(debug(got), debug(&want));
    }
}

/// `push_cycle` lays a cycle's values out as one word row, and
/// `cycle_bits` reads the same values back; `push_row` builds the same
/// stimulus from the words.
#[test]
fn bits_cycles_round_trip_through_word_rows() {
    for name in ["RAM", "AES"] {
        let signals = ip(name).signals();
        let widths: Vec<usize> = signals
            .inputs()
            .into_iter()
            .map(|id| signals.decl(id).width())
            .collect();
        let mut rng = Prng::seed_from_u64(5);
        let mut random = |w: usize| {
            let mut b = Bits::zero(w);
            (0..w).for_each(|i| b.set_bit(i, rng.chance(0.5)));
            b
        };
        let cycles: Vec<Vec<Bits>> = (0..50)
            .map(|_| widths.iter().map(|&w| random(w)).collect())
            .collect();
        let from_bits: Stimulus = cycles.iter().cloned().collect();
        let mut from_rows = Stimulus::for_inputs(&signals);
        for (t, cycle) in cycles.iter().enumerate() {
            let words: Vec<u64> = cycle.iter().flat_map(|b| b.as_words().to_vec()).collect();
            assert_eq!(from_bits.row(t), words, "{name}: cycle {t}");
            assert_eq!(&from_bits.cycle_bits(t), cycle, "{name}: cycle {t}");
            from_rows.push_row(&words);
        }
        assert_eq!(from_bits.widths(), widths, "{name}");
        assert_eq!(from_rows, from_bits, "{name}");
    }
}
