//! Runs every workload of `BENCHMARK.json` at toy sizes (`--smoke`: both
//! the untraced and the traced pass, ~500-cycle traces, one round, one
//! 1 s serve step at 50 req/s) and checks the result contract.

use psm_persist::JsonValue;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    doc.arr_field(list)
        .expect("metric list")
        .iter()
        .map(|m| {
            let unit = m.str_field("unit").unwrap_or("").to_owned();
            (m.str_field("name").expect("name").to_owned(), unit)
        })
        .collect()
}

#[test]
fn every_workload_passes_its_smoke_run() {
    let doc = benchmark_json();
    let mut metrics = names(&doc, "end_to_end");
    metrics.extend(names(&doc, "per_layer"));
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("psmperf-smoke");
    std::fs::create_dir_all(&work).expect("scratch directory");

    for (workload, _) in names(&doc, "workloads") {
        let out = Command::new(env!("CARGO_BIN_EXE_psmperf"))
            .args(["--workload", &workload, "--seed", "3", "--smoke"])
            .current_dir(&work)
            .output()
            .expect("psmperf runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: exit {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        // A traced output that differs from the untraced one, a wrong
        // served reply or an unclean daemon exit is a failed check.
        assert!(!stdout.contains("check-failed"), "{workload}:\n{stdout}");

        for (name, unit) in &metrics {
            let line = stdout
                .lines()
                .find(|l| l.split(' ').next() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("{workload}: metric {name} not printed\n{stdout}"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 3, "{workload}: `{line}`");
            let value: f64 = fields[1].parse().expect("numeric value");
            assert!(value.is_finite(), "{workload}: `{line}`");
            assert_eq!(fields[2], unit, "{workload}: `{line}`");
        }

        let result = JsonValue::parse(stdout.lines().last().expect("result line"))
            .expect("the last line is the JSON result");
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(result.u64_field("failed").ok(), Some(0), "{workload}");
        assert!(
            result.u64_field("attempted").unwrap_or(0) >= 1,
            "{workload}"
        );
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_psmperf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("psmperf runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
