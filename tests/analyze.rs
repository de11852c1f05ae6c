//! End-to-end static-analysis tests: seeded defects in every artifact
//! class must surface through `psmlint` (text and JSON) with stable codes,
//! and strict flows must refuse to train on them.

use psmgen::analyze::{codes, Severity};
use psmgen::flow::{FlowError, IpPreset, PsmFlow, Strictness, TrainedModel};
use psmgen::ips::{testbench, Ip, MultSum};
use psmgen::mining::{TemporalAssertion, TemporalPattern};
use psmgen::psm::{ChainAssertion, PowerAttributes, PowerState, SourceWindow};
use psmgen::rtl::{parse_verilog, write_verilog, Netlist, RtlError, Stimulus};
use psmgen::trace::{write_power_csv, PowerTrace, SignalSet};
use std::path::PathBuf;
use std::process::Command;

/// The writer grammar with hand-seeded defects: a combinational cycle on
/// n3/n4 and a doubly driven n5 (kept on disjoint nets so neither defect
/// masks the other in `levelize`).
const DEFECTIVE_VERILOG: &str = "\
module broken (clk, a, x);
  input clk;
  input a;
  output x;
  wire n2;
  wire n3;
  wire n4;
  wire n5;
  assign n2 = a[0];
  assign x[0] = n4;
  and  g0 (n3, n2, n4);
  and  g1 (n4, n3, 1'b1);
  buf  g2 (n5, 1'b0);
  buf  g3 (n5, 1'b1);
endmodule
";

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psmgen-analyze-{}-{name}", std::process::id()))
}

fn run_psmlint(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_psmlint"))
        .args(args)
        .output()
        .expect("psmlint runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code(), stdout)
}

fn quick_model() -> TrainedModel {
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    flow.train(&mut MultSum::new(), &[testbench::multsum_short_ts(1)])
        .expect("clean training succeeds")
}

#[test]
fn psmlint_flags_defective_netlist_in_text_and_json() {
    let path = scratch_path("broken.v");
    std::fs::write(&path, DEFECTIVE_VERILOG).unwrap();

    let (code, text) = run_psmlint(&[path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "errors must exit 1:\n{text}");
    assert!(text.contains("NL001"), "cycle missing from:\n{text}");
    assert!(text.contains("NL002"), "multi-driver missing from:\n{text}");

    let (code, json) = run_psmlint(&["--json", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1));
    assert!(json.contains("\"code\":\"NL001\""), "{json}");
    assert!(json.contains("\"code\":\"NL002\""), "{json}");
}

#[test]
fn psmlint_flags_nan_power_sample() {
    let trace: PowerTrace = [1.0, f64::NAN, 2.0].into_iter().collect();
    let path = scratch_path("nan.csv");
    let mut file = std::fs::File::create(&path).unwrap();
    write_power_csv(&trace, &mut file).unwrap();
    drop(file);

    let (code, text) = run_psmlint(&[path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("TR001"), "{text}");

    let (code, json) = run_psmlint(&["--json", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1));
    assert!(json.contains("\"code\":\"TR001\""), "{json}");
}

#[test]
fn psmlint_flags_unreachable_state_in_saved_model() {
    let mut model = quick_model();
    // Seed an orphan: a state no transition reaches and no initial names.
    // The HMM keeps its original dimensions, so the same file also trips
    // the PSM/HMM consistency check.
    let delta: PowerTrace = [3.0, 3.5].into_iter().collect();
    let p = psmgen::mining::PropositionId::from_index(0);
    let orphan = PowerState::new(
        ChainAssertion::single(TemporalAssertion::new(TemporalPattern::Until, p, p)),
        SourceWindow {
            trace: 0,
            start: 0,
            stop: 1,
        },
        PowerAttributes::from_window(&delta, 0, 1),
    );
    model.psm.add_state(orphan);
    let path = scratch_path("orphan.json");
    model.save(&path).unwrap();

    let (code, text) = run_psmlint(&[path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("PS001"), "unreachable state missing:\n{text}");
    assert!(text.contains("HM003"), "psm/hmm mismatch missing:\n{text}");

    let (code, json) = run_psmlint(&["--json", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1));
    assert!(json.contains("\"code\":\"PS001\""), "{json}");
    assert!(json.contains("\"code\":\"HM003\""), "{json}");
}

#[test]
fn psmlint_flags_non_stochastic_hmm_row() {
    let model = quick_model();
    // Perturb the first transition-matrix entry by 5e-7: small enough for
    // the persist loader's 1e-6 tolerance, far beyond the lint's 1e-9.
    let json = model.to_json_string();
    let hmm_at = json.find("\"hmm\":").expect("model json has an hmm");
    let marker = "\"a\":[[";
    let row_at = hmm_at + json[hmm_at..].find(marker).expect("hmm has an A matrix");
    let start = row_at + marker.len();
    let end = start + json[start..].find([',', ']']).expect("row has entries");
    let value: f64 = json[start..end].parse().expect("entry is a number");
    let perturbed = format!("{}{}{}", &json[..start], value + 5e-7, &json[end..]);

    let path = scratch_path("skewed.json");
    std::fs::write(&path, perturbed).unwrap();

    let (code, text) = run_psmlint(&[path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("HM001"), "{text}");
    assert!(text.contains("A row 0"), "{text}");

    let (code, json_out) = run_psmlint(&["--json", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1));
    assert!(json_out.contains("\"code\":\"HM001\""), "{json_out}");
}

#[test]
fn psmlint_passes_clean_artifacts() {
    let model = quick_model();
    let model_path = scratch_path("clean.json");
    model.save(&model_path).unwrap();
    let netlist_path = scratch_path("clean.v");
    let netlist = MultSum::new().netlist().unwrap();
    let mut file = std::fs::File::create(&netlist_path).unwrap();
    write_verilog(&netlist, &mut file).unwrap();
    drop(file);

    let (code, text) = run_psmlint(&[netlist_path.to_str().unwrap(), model_path.to_str().unwrap()]);
    std::fs::remove_file(&model_path).ok();
    std::fs::remove_file(&netlist_path).ok();
    assert_eq!(code, Some(0), "clean artifacts must pass:\n{text}");
    assert!(text.contains("0 error(s)"), "{text}");
}

#[test]
fn psmlint_rejects_unloadable_artifacts() {
    let path = scratch_path("garbage.json");
    std::fs::write(&path, "not a model").unwrap();
    let (code, _) = run_psmlint(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(2), "load failures must exit 2");
    let (code, _) = run_psmlint(&["/nonexistent/psmgen/nowhere.v"]);
    assert_eq!(code, Some(2));
}

/// MultSum with a corrupted structural twin: its netlist round-trips
/// through the Verilog writer with an extra driver spliced onto the first
/// gate's output net — the builder would reject this, the parser loads it.
struct DefectiveMultSum(MultSum);

impl Ip for DefectiveMultSum {
    fn name(&self) -> &'static str {
        "DefectiveMultSum"
    }
    fn signals(&self) -> SignalSet {
        self.0.signals()
    }
    fn netlist(&self) -> Result<Netlist, RtlError> {
        let clean = self.0.netlist()?;
        let driven = clean.gates()[0].output;
        let mut text = Vec::new();
        write_verilog(&clean, &mut text)?;
        let text = String::from_utf8(text).expect("writer emits utf-8");
        let defective = text.replace(
            "endmodule",
            &format!("  buf  g9999 (n{}, 1'b0);\nendmodule", driven.index()),
        );
        parse_verilog(&defective)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        self.0.step(inputs, outputs)
    }
}

fn short_training() -> Stimulus {
    testbench::multsum_short_ts(1)
}

#[test]
fn strict_flow_refuses_defective_netlist() {
    let flow = PsmFlow::builder()
        .preset(IpPreset::MultSum)
        .strictness(Strictness::Strict)
        .build();
    match flow.train(&mut DefectiveMultSum(MultSum::new()), &[short_training()]) {
        Err(FlowError::Validation(report)) => {
            assert!(report.has_errors());
            assert!(
                report.diagnostics().iter().any(|d| d.code == "NL002"),
                "expected the multi-driver error, got: {}",
                report.text()
            );
        }
        other => panic!("strict mode must fail validation, got {other:?}"),
    }
}

#[test]
fn lenient_flow_trains_with_warnings_in_telemetry() {
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    assert_eq!(flow.strictness, Strictness::Lenient);
    let (model, report) = flow
        .train_with_telemetry(&mut DefectiveMultSum(MultSum::new()), &[short_training()])
        .expect("lenient mode demotes errors to report entries");
    assert!(model.stats.states > 0);
    assert!(
        report.diagnostics.iter().any(|d| d.code == "NL002"),
        "telemetry must carry the finding: {}",
        report.text()
    );
    assert!(report.text().contains("NL002"));
    assert!(report.to_json().render().contains("NL002"));
}

#[test]
fn strict_flow_trains_clean_designs() {
    let flow = PsmFlow::builder()
        .preset(IpPreset::MultSum)
        .strictness(Strictness::Strict)
        .build();
    let (model, report) = flow
        .train_with_telemetry(&mut MultSum::new(), &[short_training()])
        .expect("clean design passes strict validation");
    assert!(model.stats.states > 0);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.severity < Severity::Error),
        "{}",
        report.text()
    );
}

#[test]
fn every_code_is_documented_in_diagnostics_md() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DIAGNOSTICS.md"))
        .expect("DIAGNOSTICS.md exists at the repo root");
    for info in codes::ALL {
        assert!(
            doc.contains(info.code),
            "{} missing from DIAGNOSTICS.md",
            info.code
        );
    }
}

#[test]
fn every_code_is_unique_and_catalogued() {
    let mut seen = std::collections::HashSet::new();
    for info in codes::ALL {
        assert!(seen.insert(info.code), "duplicate code {}", info.code);
        assert!(!info.summary.is_empty());
        assert!(!info.help.is_empty());
    }
}

/// Writer-grammar netlist with an undriven net whose X reaches the output
/// port: NL003 names the floating net, NL010 proves it observable.
const UNDRIVEN_VERILOG: &str = "\
module floating (a, x);
  input a;
  output [1:0] x;
  wire n2;
  wire n3;
  wire n4;
  wire n5;
  assign n2 = a[0];
  and g0 (n4, n2, n3);
  buf g1 (n5, n4);
  assign x[0] = n5;
  assign x[1] = n2;
endmodule
";

/// A netlist whose defects are only visible *semantically*: a register
/// that can only re-latch 0 (NL008 on its feedback and masking gates,
/// NL009 on both stuck output ports) and inputs whose every path is
/// blocked by the stuck constant (NL011).
fn stuck_register_netlist() -> Netlist {
    use psmgen::rtl::{NetlistBuilder, Word};
    let mut b = NetlistBuilder::new("stuck");
    let a = b.input("a", 1);
    let c = b.input("c", 1);
    let r = b.register("r", 1);
    let next = b.and(r.q().bit(0), a.bit(0));
    b.connect_register(&r, &Word::from_nets(vec![next]));
    let masked = b.and(c.bit(0), r.q().bit(0));
    b.output("x", &r.q());
    b.output("y", &Word::from_nets(vec![masked]));
    b.finish()
        .expect("stuck netlist is structurally well-formed")
}

#[test]
fn psmlint_flags_semantic_netlist_defects() {
    let path = scratch_path("stuck.v");
    let mut file = std::fs::File::create(&path).unwrap();
    write_verilog(&stuck_register_netlist(), &mut file).unwrap();
    drop(file);

    // The defects are warnings: visible in the report, clean exit by
    // default, non-zero under --deny-warnings.
    let (code, text) = run_psmlint(&[path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("NL008"), "stuck gates missing from:\n{text}");
    assert!(
        text.contains("NL009"),
        "stuck outputs missing from:\n{text}"
    );
    assert!(
        text.contains("NL011"),
        "blocked inputs missing from:\n{text}"
    );

    let (code, _) = run_psmlint(&["--deny-warnings", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "warnings must fail under --deny-warnings");
}

#[test]
fn psmlint_flags_observable_x_from_undriven_net() {
    let path = scratch_path("floating.v");
    std::fs::write(&path, UNDRIVEN_VERILOG).unwrap();
    let (code, text) = run_psmlint(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("NL003"), "floating net missing from:\n{text}");
    assert!(text.contains("NL010"), "observable X missing from:\n{text}");
}

#[test]
fn psmlint_config_levels_change_exit_codes() {
    let netlist_path = scratch_path("configured.v");
    std::fs::write(&netlist_path, UNDRIVEN_VERILOG).unwrap();
    let config_path = scratch_path("psmlint.toml");
    std::fs::write(
        &config_path,
        "# demote the floating-net pair for triage\n[levels]\nNL003 = \"allow\"\nNL010 = \"warn\"\n",
    )
    .unwrap();

    // Both findings are errors by default…
    let (code, _) = run_psmlint(&[netlist_path.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    // …the config demotes them below the failure threshold…
    let (code, text) = run_psmlint(&[
        "--config",
        config_path.to_str().unwrap(),
        netlist_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{text}");
    assert!(!text.contains("NL003"), "allowed code must vanish:\n{text}");
    assert!(text.contains("NL010"), "demoted code must remain:\n{text}");
    // …unless warnings are denied wholesale.
    let (code, _) = run_psmlint(&[
        "--config",
        config_path.to_str().unwrap(),
        "--deny-warnings",
        netlist_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));

    // And the other direction: denying a warn-level code fails the run.
    let stuck_path = scratch_path("stuck-deny.v");
    let mut file = std::fs::File::create(&stuck_path).unwrap();
    write_verilog(&stuck_register_netlist(), &mut file).unwrap();
    drop(file);
    std::fs::write(&config_path, "[levels]\nNL009 = \"deny\"\n").unwrap();
    let (code, text) = run_psmlint(&[
        "--config",
        config_path.to_str().unwrap(),
        stuck_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&netlist_path).ok();
    std::fs::remove_file(&config_path).ok();
    std::fs::remove_file(&stuck_path).ok();
    assert_eq!(code, Some(1), "denied warning must fail:\n{text}");
}

#[test]
fn psmlint_baseline_suppresses_previous_findings() {
    let netlist_path = scratch_path("baselined.v");
    std::fs::write(&netlist_path, UNDRIVEN_VERILOG).unwrap();

    let (code, json) = run_psmlint(&["--format", "json", netlist_path.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(json.contains("\"schema\":\"psmlint/v1\""), "{json}");
    assert!(json.contains("\"elapsed_ns\":"), "{json}");
    let baseline_path = scratch_path("baseline.json");
    std::fs::write(&baseline_path, &json).unwrap();

    // The same findings again: suppressed, clean exit.
    let (code, text) = run_psmlint(&[
        "--baseline",
        baseline_path.to_str().unwrap(),
        netlist_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&netlist_path).ok();
    std::fs::remove_file(&baseline_path).ok();
    assert_eq!(code, Some(0), "baselined findings must not fail:\n{text}");
    assert!(text.contains("suppressed"), "{text}");
}

#[test]
fn psmlint_sarif_output_is_schema_shaped() {
    use psm_persist::JsonValue;
    let path = scratch_path("sarif.v");
    std::fs::write(&path, UNDRIVEN_VERILOG).unwrap();
    let (code, sarif) = run_psmlint(&["--format", "sarif", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "format does not change the exit code");

    let doc = JsonValue::parse(&sarif).expect("sarif output is valid JSON");
    assert_eq!(doc.str_field("version").unwrap(), "2.1.0");
    assert!(doc.str_field("$schema").unwrap().contains("sarif-2.1.0"));
    let runs = doc.arr_field("runs").unwrap();
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .field("tool")
        .unwrap()
        .field("driver")
        .unwrap()
        .clone();
    assert_eq!(driver.str_field("name").unwrap(), "psmlint");
    assert_eq!(
        driver.arr_field("rules").unwrap().len(),
        codes::ALL.len(),
        "every catalogued code ships as a SARIF rule"
    );
    let results = runs[0].arr_field("results").unwrap();
    let rule_ids: Vec<&str> = results
        .iter()
        .map(|r| r.str_field("ruleId").unwrap())
        .collect();
    assert!(rule_ids.contains(&"NL003"), "{rule_ids:?}");
    assert!(rule_ids.contains(&"NL010"), "{rule_ids:?}");
    assert!(results
        .iter()
        .all(|r| r.field("locations").is_ok() && r.field("message").is_ok()));
}

#[test]
fn psmlint_cross_checks_model_against_power_traces() {
    let model = quick_model();
    let model_path = scratch_path("xa002.json");
    model.save(&model_path).unwrap();
    // Two samples cannot be the training trace the model's source windows
    // reference: the attribute re-derivation must fail loudly.
    let trace: PowerTrace = [1.0, 2.0].into_iter().collect();
    let csv_path = scratch_path("xa002.csv");
    let mut file = std::fs::File::create(&csv_path).unwrap();
    write_power_csv(&trace, &mut file).unwrap();
    drop(file);

    let (code, text) = run_psmlint(&[model_path.to_str().unwrap(), csv_path.to_str().unwrap()]);
    std::fs::remove_file(&model_path).ok();
    std::fs::remove_file(&csv_path).ok();
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("XA002"),
        "attribute mismatch missing:\n{text}"
    );
}

/// MultSum advertising a trace interface that disagrees with its netlist:
/// `a` claims 8 bits where the port has 16.
struct MismatchedMultSum(MultSum);

impl Ip for MismatchedMultSum {
    fn name(&self) -> &'static str {
        "MismatchedMultSum"
    }
    fn signals(&self) -> SignalSet {
        use psmgen::trace::Direction;
        let mut s = SignalSet::new();
        s.push("a", 8, Direction::Input).expect("unique");
        s.push("b", 16, Direction::Input).expect("unique");
        s.push("en", 1, Direction::Input).expect("unique");
        s.push("clear", 1, Direction::Input).expect("unique");
        s.push("sum", 32, Direction::Output).expect("unique");
        s
    }
    fn netlist(&self) -> Result<Netlist, RtlError> {
        self.0.netlist()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        self.0.step(inputs, outputs)
    }
}

#[test]
fn strict_flow_refuses_interface_mismatch() {
    let flow = PsmFlow::builder()
        .preset(IpPreset::MultSum)
        .strictness(Strictness::Strict)
        .build();
    match flow.train(&mut MismatchedMultSum(MultSum::new()), &[short_training()]) {
        Err(FlowError::Validation(report)) => {
            assert!(
                report.diagnostics().iter().any(|d| d.code == "XA001"),
                "expected the interface mismatch, got: {}",
                report.text()
            );
        }
        other => panic!("strict mode must fail on XA001, got {other:?}"),
    }
}

#[test]
fn flow_lint_config_overrides_strictness_outcome() {
    use psmgen::flow::{LintConfig, LintLevel};
    // Allowing XA001 lets the mismatched interface train even strictly…
    let flow = PsmFlow::builder()
        .preset(IpPreset::MultSum)
        .strictness(Strictness::Strict)
        .lint_config(LintConfig::new().with_level("XA001", LintLevel::Allow))
        .build();
    let model = flow
        .train(&mut MismatchedMultSum(MultSum::new()), &[short_training()])
        .expect("allowed code no longer aborts");
    assert!(model.stats.states > 0);
    // …and the telemetry no longer carries the finding at all.
    let (_, report) = flow
        .train_with_telemetry(&mut MismatchedMultSum(MultSum::new()), &[short_training()])
        .expect("allowed code no longer aborts");
    assert!(
        report.diagnostics.iter().all(|d| d.code != "XA001"),
        "{}",
        report.text()
    );
}

#[test]
fn benchmark_netlists_are_clean_under_semantic_lints() {
    use psmgen::analyze::{lint_interface, lint_netlist_dataflow, lint_power_intent};
    use psmgen::ips::{ip_by_name, BENCHMARK_NAMES};
    for name in BENCHMARK_NAMES {
        let ip = ip_by_name(name).expect("known IP");
        let netlist = ip.netlist().expect("netlist builds");
        let report = lint_netlist_dataflow(&netlist);
        assert!(report.is_clean(), "{name}: {}", report.text());
        let report = lint_interface(&ip.signals(), &netlist);
        assert!(report.is_clean(), "{name}: {}", report.text());
        let report = lint_power_intent(&netlist);
        assert!(report.is_clean(), "{name}: {}", report.text());
    }
}

/// The seeded power-intent defect fixture shipped with the repo, shared
/// with the CI SARIF gate and the baseline workflow.
fn powerintent_fixture() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/artifacts/powerintent_defect.v"
    )
}

#[test]
fn psmlint_pins_power_intent_defect_fixture() {
    use psm_persist::JsonValue;
    let (code, json) = run_psmlint(&["--format", "json", powerintent_fixture()]);
    assert_eq!(code, Some(1), "{json}");
    let doc = JsonValue::parse(&json).expect("valid JSON envelope");
    let reports = doc.arr_field("reports").unwrap();
    assert_eq!(reports.len(), 1);
    let mut counts = std::collections::BTreeMap::new();
    for d in reports[0]
        .field("report")
        .unwrap()
        .arr_field("diagnostics")
        .unwrap()
    {
        *counts
            .entry(d.str_field("code").unwrap().to_string())
            .or_insert(0usize) += 1;
    }
    let expect: std::collections::BTreeMap<String, usize> = [
        ("PD001", 1), // unisolated unit -> core crossing (n6 and n8's sink)
        ("PD002", 1), // clamp1-marked AND can only force 0
        ("PD006", 2), // both core gates read X with unit off
        ("PD007", 2), // both output bits observe the X
        ("PD008", 1), // intent summary: unit LEAKS
    ]
    .into_iter()
    .map(|(c, n)| (c.to_string(), n))
    .collect();
    assert_eq!(counts, expect, "{json}");
    assert_eq!(doc.u64_field("errors").unwrap(), 6, "{json}");
    assert_eq!(doc.u64_field("warnings").unwrap(), 0, "{json}");
}

#[test]
fn psmlint_list_codes_matches_the_catalogue() {
    use psm_persist::JsonValue;
    let (code, text) = run_psmlint(&["--list-codes"]);
    assert_eq!(code, Some(0), "{text}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), codes::ALL.len(), "one line per code:\n{text}");
    for (line, info) in lines.iter().zip(codes::ALL) {
        assert!(
            line.starts_with(info.code),
            "catalogue order must hold: {line}"
        );
        assert!(line.contains(info.severity.name()), "{line}");
    }

    let (code, json) = run_psmlint(&["--list-codes", "--format", "json"]);
    assert_eq!(code, Some(0), "{json}");
    let doc = JsonValue::parse(&json).expect("valid JSON");
    assert_eq!(doc.str_field("schema").unwrap(), "psmlint-codes/v1");
    let entries = doc.arr_field("codes").unwrap();
    assert_eq!(entries.len(), codes::ALL.len());
    for (entry, info) in entries.iter().zip(codes::ALL) {
        assert_eq!(entry.str_field("code").unwrap(), info.code);
        assert_eq!(entry.str_field("severity").unwrap(), info.severity.name());
    }
}

#[test]
fn psmlint_cross_checks_power_states_against_intent() {
    // Graft a reachable low-power state onto the trained machine. The
    // guard is an exit proposition of the initial state and, by
    // construction, the entry proposition of the new state's chain, so
    // the PSM stays structurally valid (no PS001/PS004); rebuilding the
    // HMM keeps the dimensions consistent (no HM003).
    let mut model = quick_model();
    let (root, _) = model.psm.initials()[0];
    let g = model.psm.state(root).chains()[0].exit_proposition();
    let max_mu = model
        .psm
        .states()
        .map(|(_, s)| s.attrs().mu())
        .fold(0.0, f64::max);
    assert!(max_mu > 0.0, "training yields positive power states");
    let delta: PowerTrace = [max_mu * 0.01, max_mu * 0.01].into_iter().collect();
    let off = PowerState::new(
        ChainAssertion::single(TemporalAssertion::new(TemporalPattern::Until, g, g)),
        SourceWindow {
            trace: 0,
            start: 0,
            stop: 1,
        },
        PowerAttributes::from_window(&delta, 0, 1),
    );
    let off_id = model.psm.add_state(off);
    model.psm.add_transition(root, off_id, g);
    model.hmm = psmgen::hmm::build_hmm(&model.psm, model.hmm.num_symbols());

    let model_path = scratch_path("xa005.json");
    model.save(&model_path).unwrap();
    let (code, json) = run_psmlint(&[
        "--json",
        model_path.to_str().unwrap(),
        powerintent_fixture(),
    ]);
    std::fs::remove_file(&model_path).ok();
    assert_eq!(code, Some(1), "{json}");
    assert!(json.contains("\"code\":\"XA005\""), "{json}");
    // The cross-artifact finding names both inputs so SARIF viewers can
    // resolve the related locations.
    let related = format!(
        "\"related\":[\"{}\",\"{}\"]",
        model_path.display(),
        powerintent_fixture()
    );
    assert!(json.contains(&related), "{json}");
}

#[test]
fn off_domain_proof_matches_concrete_simulation() {
    use psmgen::analyze::prove_domain_off;
    use psmgen::rtl::Simulator;
    use psmgen::trace::Bits;
    let src = std::fs::read_to_string(powerintent_fixture()).unwrap();
    let netlist = parse_verilog(&src).unwrap();
    let unit = netlist
        .domains()
        .iter()
        .position(|d| d == "unit")
        .expect("fixture declares the unit domain");
    let proof = prove_domain_off(&netlist, unit).expect("fixture is interpretable");
    assert!(!proof.is_isolated());
    // The ternary proof says both output bits escape…
    assert_eq!(proof.leaks.iter().filter(|l| l.at_output).count(), 2);

    // …and the scalar simulator agrees. With isolation asserted
    // (en_n = 0), toggling the off domain's source still moves x[1]
    // (the unisolated n6/n8 route, PD006/PD007) while x[0] parks at 0
    // despite the declared clamp1 polarity (PD002).
    let mut sim = Simulator::new(&netlist).unwrap();
    let mut x_at = |a: u64| {
        sim.set_input("a", &Bits::from_u64(a, 2)).unwrap();
        sim.set_input("en_n", &Bits::from_u64(0, 1)).unwrap();
        sim.step();
        sim.output("x").unwrap().to_u64().unwrap()
    };
    let x_lo = x_at(0b00);
    let x_hi = x_at(0b10);
    assert_eq!(x_lo & 1, 0, "marked clamp parks at 0, not the declared 1");
    assert_eq!(x_hi & 1, 0);
    assert_ne!(
        x_lo >> 1,
        x_hi >> 1,
        "off-domain data must reach x[1] through the unisolated crossing"
    );
}

/// A small random netlist for the NL011 oracle: input words, registers
/// (some provably stuck at 0 through `s' = s & x` with reset 0, the rest
/// closed with random feedback), a soup of gates, muxes and adders over
/// the nets created so far, an optional memory macro and 1–3 output
/// ports.
fn nl011_random_netlist(rng: &mut psm_prng::Prng) -> Netlist {
    use psmgen::rtl::{NetId, NetlistBuilder, Word};
    let mut b = NetlistBuilder::new("nl011");
    let mut pool: Vec<NetId> = vec![b.const0(), b.const1()];
    for i in 0..rng.range_usize(1..4) {
        let word = b.input(format!("i{i}"), rng.range_usize(1..5));
        pool.extend_from_slice(word.nets());
    }
    let regs: Vec<_> = (0..rng.range_usize(0..4))
        .map(|i| (b.register(format!("r{i}"), 1), rng.chance(0.5)))
        .collect();
    pool.extend(regs.iter().map(|(r, _)| r.q().bit(0)));
    let mut memory = rng.chance(0.3);
    for _ in 0..rng.range_usize(3..30) {
        let a = *rng.pick(&pool);
        let c = *rng.pick(&pool);
        let net = match rng.range_usize(0..8) {
            0 => b.and(a, c),
            1 => b.or(a, c),
            2 => b.xor(a, c),
            3 => b.not(a),
            4 => b.nand(a, c),
            5 => {
                let sel = *rng.pick(&pool);
                b.mux(sel, a, c)
            }
            6 => {
                let d = *rng.pick(&pool);
                let sum = b.add(&Word::from_nets(vec![a, c]), &Word::from_nets(vec![d, a]));
                pool.push(sum.sum.bit(0));
                sum.carry
            }
            _ if memory => {
                memory = false;
                let pins: Vec<NetId> = (0..5).map(|_| *rng.pick(&pool)).collect();
                let rdata = b.memory(
                    &Word::from_nets(vec![pins[0]]),
                    &Word::from_nets(vec![pins[1], a]),
                    pins[2],
                    pins[3],
                    pins[4],
                );
                pool.push(rdata.bit(0));
                rdata.bit(1)
            }
            _ => b.nor(a, c),
        };
        pool.push(net);
    }
    for (r, stuck) in &regs {
        let x = *rng.pick(&pool);
        let next = if *stuck { b.and(r.q().bit(0), x) } else { x };
        b.connect_register(r, &Word::from_nets(vec![next]));
    }
    for o in 0..rng.range_usize(1..4) {
        let width = rng.range_usize(1..4);
        // Outputs lean towards the late, deep nets.
        let nets: Vec<NetId> = (0..width)
            .map(|_| pool[rng.range_usize(pool.len() / 2..pool.len())])
            .collect();
        b.output(format!("o{o}"), &Word::from_nets(nets));
    }
    b.finish().expect("generated netlist is well-formed")
}

/// Brute-force NL011: for each read input bit, a forward DFS over the
/// influence edges (gates with a non-constant output, non-constant
/// register d→q, memory input pin→read data) under the ternary fixpoint,
/// asking whether any output-port net is reachable. Returns the blocked
/// bits of each input port that has any, as (location, bits).
fn nl011_oracle(netlist: &Netlist) -> Vec<(String, Vec<usize>)> {
    use psmgen::analyze::analyze_dataflow;
    use psmgen::trace::Direction;
    let df = analyze_dataflow(netlist).expect("interpretable");
    let nets = netlist.net_count();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nets];
    let mut read = vec![false; nets];
    for g in netlist.gates() {
        for n in &g.inputs {
            read[n.index()] = true;
            if !df.value(g.output).is_const() {
                succ[n.index()].push(g.output.index());
            }
        }
    }
    for d in netlist.dffs() {
        read[d.d.index()] = true;
        if !df.value(d.q).is_const() {
            succ[d.d.index()].push(d.q.index());
        }
    }
    for m in netlist.memories() {
        for pin in m.inputs() {
            read[pin.index()] = true;
            succ[pin.index()].extend(m.rdata.iter().map(|n| n.index()));
        }
    }
    let mut observable = vec![false; nets];
    for p in netlist.ports() {
        if p.direction() == Direction::Output {
            for n in p.nets() {
                read[n.index()] = true;
                observable[n.index()] = true;
            }
        }
    }
    let reaches_output = |start: usize| {
        let mut seen = vec![false; nets];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(n) = stack.pop() {
            if observable[n] {
                return true;
            }
            for &s in &succ[n] {
                if !std::mem::replace(&mut seen[s], true) {
                    stack.push(s);
                }
            }
        }
        false
    };
    netlist
        .ports()
        .iter()
        .filter(|p| p.direction() == Direction::Input)
        .filter_map(|p| {
            let blocked: Vec<usize> = (0..p.width())
                .filter(|&bit| {
                    let n = p.nets()[bit].index();
                    read[n] && !reaches_output(n)
                })
                .collect();
            (!blocked.is_empty()).then(|| (format!("port `{}`", p.name()), blocked))
        })
        .collect()
}

/// The NL011 findings of `lint_netlist_dataflow` as (location, bits).
fn nl011_findings(netlist: &Netlist) -> Vec<(String, Vec<usize>)> {
    psmgen::analyze::lint_netlist_dataflow(netlist)
        .diagnostics()
        .iter()
        .filter(|d| d.code == codes::NL011.code)
        .map(|d| {
            let bits = d.message.rsplit("(bits [").next().unwrap();
            let bits = bits.trim_end_matches("])");
            let bits = bits.split(", ").map(|b| b.parse().unwrap()).collect();
            (d.location.clone(), bits)
        })
        .collect()
}

#[test]
fn nl011_matches_a_brute_force_reachability_oracle() {
    let (mut flagged, mut clean) = (0, 0);
    for seed in 0..600u64 {
        let mut rng = psm_prng::Prng::seed_from_u64(0x4E4C_0110 ^ seed);
        let netlist = nl011_random_netlist(&mut rng);
        let expected = nl011_oracle(&netlist);
        assert_eq!(nl011_findings(&netlist), expected, "seed {seed}");
        if expected.is_empty() {
            clean += 1;
        } else {
            flagged += 1;
        }
    }
    assert!(
        flagged > 0 && clean > 0,
        "both outcomes must occur: {flagged} flagged, {clean} clean"
    );

    use psmgen::ips::{ip_by_name, BENCHMARK_NAMES};
    for name in BENCHMARK_NAMES {
        let netlist = ip_by_name(name).unwrap().netlist().unwrap();
        assert_eq!(nl011_findings(&netlist), nl011_oracle(&netlist), "{name}");
    }
}
