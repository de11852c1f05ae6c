//! Bounded-model-checking tests: the k-cycle ternary unroller must be
//! sound against the concrete simulator, the seeded defect fixture must
//! keep reporting its refuted and vacuous assertions, every emitted
//! counterexample must replay to a real violation, and the four paper
//! benches must verify clean at the default depth.

use psm_prng::Prng;
use psmgen::analyze::{
    replay_witness, unroll_ternary, verify_model, Severity, Ternary, Verdict, VerifyConfig,
};
use psmgen::flow::{IpPreset, PsmFlow, TrainedModel};
use psmgen::ips::{ip_by_name, testbench, BENCHMARK_NAMES};
use psmgen::rtl::{parse_verilog, NetId, Netlist, Simulator};
use psmgen::trace::{
    read_functional_csv, write_functional_csv, Bits, Direction, FunctionalTrace, SignalSet,
};
use std::process::Command;

fn fixture_pair() -> (Netlist, TrainedModel) {
    let verilog = std::fs::read_to_string("examples/artifacts/verify_defect.v")
        .expect("fixture netlist is checked in");
    let netlist = parse_verilog(&verilog).expect("fixture netlist parses");
    let model = TrainedModel::load("examples/artifacts/verify_defect.json")
        .expect("fixture model is checked in");
    (netlist, model)
}

/// Soundness of the sequential unroller: on every bench netlist, under
/// random concrete stimuli, the concrete value of every net at every
/// instant is contained in the abstract one (`v ⊑ unrolled[t][net]`).
#[test]
fn unroller_contains_concrete_runs_on_all_benches() {
    let depth = 6;
    let mut prng = Prng::seed_from_u64(0xBEEF);
    for name in BENCHMARK_NAMES {
        let ip = ip_by_name(name).expect("known bench");
        let netlist = ip.netlist().expect("bench netlist builds");
        let unrolled = unroll_ternary(&netlist, depth)
            .unwrap_or_else(|| panic!("{name}: bench netlist unrolls"));
        let mut sim = Simulator::new(&netlist).expect("bench netlist simulates");
        let handles = sim.input_handles();
        for run in 0..3 {
            sim.reset();
            for (t, instant) in unrolled.iter().enumerate() {
                for (port_name, handle) in &handles {
                    let width = netlist.port(port_name).expect("input port exists").width();
                    let mut bits = Bits::zero(width);
                    for i in 0..width {
                        bits.set_bit(i, prng.chance(0.5));
                    }
                    sim.set_input_by_handle(*handle, &bits).expect("width fits");
                }
                sim.step();
                for (net, &abstracted) in instant.iter().enumerate() {
                    let concrete = Ternary::from_bool(sim.net_value(NetId(net)));
                    assert!(
                        concrete.le(abstracted),
                        "{name} run {run}: net {net} at instant {t} escapes the abstraction"
                    );
                }
            }
        }
    }
}

/// The pinned MC001/MC002 regression target: the checked-in defect pair
/// must report at least one refuted and one vacuous assertion.
#[test]
fn defect_fixture_reports_refuted_and_vacuous() {
    let (netlist, model) = fixture_pair();
    let outcome = verify_model(&netlist, &model.table, &model.psm, &VerifyConfig::default());
    let refuted = outcome
        .checks
        .iter()
        .filter(|c| c.verdict == Verdict::Refuted)
        .count();
    let vacuous = outcome
        .checks
        .iter()
        .filter(|c| c.verdict == Verdict::Vacuous)
        .count();
    assert!(
        refuted >= 1,
        "expected a refutation:\n{}",
        outcome.report.text()
    );
    assert!(vacuous >= 1, "expected vacuity:\n{}", outcome.report.text());
    let codes: Vec<&str> = outcome
        .report
        .diagnostics()
        .iter()
        .map(|d| d.code)
        .collect();
    assert!(codes.contains(&"MC001"), "{codes:?}");
    assert!(codes.contains(&"MC002"), "{codes:?}");
    // Refutations are errors, vacuity is a warning.
    assert!(outcome.report.has_errors());
}

/// Every reported counterexample must re-simulate to an actual violation,
/// and must survive the witness-CSV round trip that `psmlint
/// --witness-dir`/`--replay` uses.
#[test]
fn every_counterexample_replays_to_a_violation() {
    let (netlist, model) = fixture_pair();
    let outcome = verify_model(&netlist, &model.table, &model.psm, &VerifyConfig::default());
    let mut seen = 0;
    for check in &outcome.checks {
        let Some(cex) = &check.counterexample else {
            continue;
        };
        seen += 1;
        // Direct replay of the in-memory stimulus.
        let replay = replay_witness(&netlist, &model.table, &model.psm, &cex.stimulus);
        assert!(
            replay.diagnostics().iter().any(|d| d.code == "MC001"),
            "counterexample of `{}` does not replay:\n{}",
            check.text,
            replay.text()
        );
        // The same stimulus through the CSV witness format.
        let mut inputs = SignalSet::new();
        for (_, decl) in netlist.signal_set().iter() {
            if decl.direction() == Direction::Input {
                inputs
                    .push(decl.name(), decl.width(), Direction::Input)
                    .expect("fresh set");
            }
        }
        let mut trace = FunctionalTrace::new(inputs.clone());
        for cycle in &cex.stimulus {
            trace.push_cycle(cycle.clone()).expect("stimulus fits");
        }
        let mut csv = Vec::new();
        write_functional_csv(&trace, &mut csv).expect("witness writes");
        let back = read_functional_csv(inputs, csv.as_slice()).expect("witness reads back");
        let stimulus: Vec<Vec<Bits>> = back.iter().map(|row| row.to_vec()).collect();
        let replay = replay_witness(&netlist, &model.table, &model.psm, &stimulus);
        assert!(
            replay.diagnostics().iter().any(|d| d.code == "MC001"),
            "CSV round-tripped witness of `{}` does not replay",
            check.text
        );
    }
    assert!(seen >= 1, "fixture produced no counterexamples");
}

/// Assertions mined by the standard flow must verify clean on the very
/// netlist they were mined from, for all four paper benches at the
/// default depth: no refutation, no error-severity MC finding.
#[test]
fn paper_benches_verify_clean_at_default_depth() {
    for name in BENCHMARK_NAMES {
        let preset = match name {
            "RAM" => IpPreset::Ram1k,
            "MultSum" => IpPreset::MultSum,
            "AES" => IpPreset::Aes,
            "Camellia" => IpPreset::Camellia,
            other => panic!("unknown bench {other}"),
        };
        let flow = PsmFlow::builder().preset(preset).build();
        let mut ip = ip_by_name(name).expect("known bench");
        let training = testbench::short_ts(name, 1).expect("known bench");
        let model = flow
            .train(ip.as_mut(), &[training])
            .unwrap_or_else(|e| panic!("{name}: training fails: {e}"));
        let netlist = ip.netlist().expect("bench netlist builds");
        let outcome = verify_model(&netlist, &model.table, &model.psm, &VerifyConfig::default());
        for check in &outcome.checks {
            assert_ne!(
                check.verdict,
                Verdict::Refuted,
                "{name}: `{}` refuted:\n{}",
                check.text,
                outcome.report.text()
            );
        }
        assert!(
            !outcome
                .report
                .diagnostics()
                .iter()
                .any(|d| d.severity == Severity::Error),
            "{name}: verification errors:\n{}",
            outcome.report.text()
        );
    }
}

/// The strictness-gated flow hook: training the defect model's behaviour
/// is fine, but `verify.depth = 0` must disable the pass entirely (the
/// validate stage emits no MC diagnostics).
#[test]
fn flow_exposes_and_disables_the_verify_knob() {
    assert_eq!(PsmFlow::default().verify, VerifyConfig::default());
    assert!(PsmFlow::default().verify.depth > 0, "hook is on by default");
    let flow = PsmFlow::builder()
        .verify(VerifyConfig {
            depth: 0,
            ..VerifyConfig::default()
        })
        .build();
    assert_eq!(flow.verify.depth, 0);
}

/// `--baseline` pointing at a missing or unparsable file must exit with
/// the dedicated status 3 and a clear message, for both failure shapes.
#[test]
fn psmlint_bad_baseline_exits_3() {
    let missing = Command::new(env!("CARGO_BIN_EXE_psmlint"))
        .args([
            "--baseline",
            "definitely/not/a/file.json",
            "examples/artifacts/verify_defect.v",
        ])
        .output()
        .expect("psmlint runs");
    assert_eq!(missing.status.code(), Some(3));
    let stderr = String::from_utf8(missing.stderr).expect("utf-8");
    assert!(stderr.contains("--baseline is unusable"), "{stderr}");

    let garbage = std::env::temp_dir().join(format!("psmgen-verify-{}.json", std::process::id()));
    std::fs::write(&garbage, "not json at all").unwrap();
    let unparsable = Command::new(env!("CARGO_BIN_EXE_psmlint"))
        .args([
            "--baseline",
            garbage.to_str().unwrap(),
            "examples/artifacts/verify_defect.v",
        ])
        .output()
        .expect("psmlint runs");
    std::fs::remove_file(&garbage).ok();
    assert_eq!(unparsable.status.code(), Some(3));
}

/// End-to-end CLI pass over the checked-in defect pair: `--verify` must
/// surface MC001 and MC002, a saved witness must `--replay` to exit 1.
#[test]
fn psmlint_verify_and_replay_cli_round_trip() {
    let dir = std::env::temp_dir().join(format!("psmgen-witness-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_psmlint"))
        .args([
            "--quiet",
            "--verify",
            "--witness-dir",
            dir.to_str().unwrap(),
            "examples/artifacts/verify_defect.v",
            "examples/artifacts/verify_defect.json",
        ])
        .output()
        .expect("psmlint runs");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("MC001"), "{text}");
    assert!(text.contains("MC002"), "{text}");

    let witness = dir.join("witness_001.csv");
    assert!(witness.exists(), "witness CSV emitted");
    let replay = Command::new(env!("CARGO_BIN_EXE_psmlint"))
        .args([
            "--quiet",
            "--replay",
            witness.to_str().unwrap(),
            "examples/artifacts/verify_defect.v",
            "examples/artifacts/verify_defect.json",
        ])
        .output()
        .expect("psmlint runs");
    let text = String::from_utf8(replay.stdout).expect("utf-8");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(replay.status.code(), Some(1), "{text}");
    assert!(text.contains("replay confirms the violation"), "{text}");
}
