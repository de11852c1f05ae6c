//! Lints over functional and power traces, and over the mined
//! proposition table's coverage of a trace.

use crate::{codes, AnalysisReport, Diagnostic};
use psm_mining::PropositionTable;
use psm_trace::{FunctionalTrace, PowerTrace};

/// Checks a power trace for non-finite (`TR001`) and negative (`TR002`)
/// samples. `name` identifies the trace in the report (e.g. `trace 3`).
pub fn lint_power_trace(trace: &PowerTrace, name: &str) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("power {name}"));
    let mut non_finite = Vec::new();
    let mut negative = Vec::new();
    for (t, p) in trace.iter().enumerate() {
        if !p.is_finite() {
            non_finite.push(t);
        } else if p < 0.0 {
            negative.push(t);
        }
    }
    if let Some(&first) = non_finite.first() {
        report.push(Diagnostic::new(
            &codes::TR001,
            format!("instant {first}"),
            format!(
                "{} non-finite power sample(s), first at instant {first}",
                non_finite.len()
            ),
        ));
    }
    if let Some(&first) = negative.first() {
        report.push(Diagnostic::new(
            &codes::TR002,
            format!("instant {first}"),
            format!(
                "{} negative power sample(s), first at instant {first}",
                negative.len()
            ),
        ));
    }
    report
}

/// Checks a functional trace for signals stuck at one constant value for
/// its whole duration (`TR004`). Traces shorter than two instants carry no
/// toggle information and are skipped.
pub fn lint_functional_trace(trace: &FunctionalTrace) -> AnalysisReport {
    let mut report = AnalysisReport::new("functional trace".to_string());
    if trace.len() < 2 {
        return report;
    }
    for (id, decl) in trace.signals().iter() {
        let first = trace.cycle(0).words(id);
        let stuck = trace.iter().all(|row| row.words(id) == first);
        if stuck {
            report.push(Diagnostic::new(
                &codes::TR004,
                format!("signal `{}`", decl.name()),
                format!(
                    "signal `{}` holds one constant value across all {} instants",
                    decl.name(),
                    trace.len()
                ),
            ));
        }
    }
    report
}

/// Checks one functional/power trace pair: length agreement (`TR003`) plus
/// the per-trace lints of [`lint_power_trace`] and
/// [`lint_functional_trace`]. `name` identifies the pair in the report.
pub fn lint_trace_pair(
    functional: &FunctionalTrace,
    power: &PowerTrace,
    name: &str,
) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("trace pair {name}"));
    if functional.len() != power.len() {
        report.push(Diagnostic::new(
            &codes::TR003,
            format!("{name} lengths"),
            format!(
                "functional trace has {} instant(s), power trace {}",
                functional.len(),
                power.len()
            ),
        ));
    }
    report.merge(lint_power_trace(power, name));
    report.merge(lint_functional_trace(functional));
    report
}

/// Checks the paper's closed-world property — *exactly one proposition
/// holds per instant* — over a functional trace: every cycle must classify
/// to some proposition of the mined table (`TR005`).
pub fn lint_proposition_coverage(
    table: &PropositionTable,
    trace: &FunctionalTrace,
    name: &str,
) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("proposition coverage of {name}"));
    let uncovered: Vec<usize> = table
        .classify_trace(trace)
        .iter()
        .enumerate()
        .filter_map(|(t, id)| id.is_none().then_some(t))
        .collect();
    if let Some(&first) = uncovered.first() {
        report.push(Diagnostic::new(
            &codes::TR005,
            format!("instant {first}"),
            format!(
                "{} instant(s) match no mined proposition, first at instant {first}",
                uncovered.len()
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn finite_positive_power_is_clean() {
        let p: PowerTrace = [0.0, 1.5, 2.0].into_iter().collect();
        assert!(lint_power_trace(&p, "trace 0").is_clean());
    }

    #[test]
    fn nan_infinity_and_negative_samples_are_flagged() {
        let p: PowerTrace = [1.0, f64::NAN, -2.0, f64::INFINITY].into_iter().collect();
        let report = lint_power_trace(&p, "trace 0");
        assert_eq!(codes_of(&report), vec!["TR001", "TR002"]);
        assert!(report.diagnostics()[0].message.contains("2 non-finite"));
        assert!(report.diagnostics()[0].location.contains("instant 1"));
        assert!(report.diagnostics()[1].message.contains("1 negative"));
    }

    #[test]
    fn length_mismatch_is_tr003() {
        use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
        let mut signals = SignalSet::new();
        signals.push("a", 1, Direction::Input).unwrap();
        let mut f = FunctionalTrace::new(signals);
        f.push_cycle(vec![Bits::from_u64(0, 1)]).unwrap();
        f.push_cycle(vec![Bits::from_u64(1, 1)]).unwrap();
        let p: PowerTrace = [1.0].into_iter().collect();
        let report = lint_trace_pair(&f, &p, "pair 0");
        assert!(codes_of(&report).contains(&"TR003"), "{}", report.text());
    }

    #[test]
    fn stuck_signal_is_tr004_and_toggling_is_not() {
        use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
        let mut signals = SignalSet::new();
        signals.push("stuck", 2, Direction::Input).unwrap();
        signals.push("lively", 1, Direction::Output).unwrap();
        let mut f = FunctionalTrace::new(signals);
        for t in 0..4u64 {
            f.push_cycle(vec![Bits::from_u64(2, 2), Bits::from_u64(t % 2, 1)])
                .unwrap();
        }
        let report = lint_functional_trace(&f);
        assert_eq!(codes_of(&report), vec!["TR004"]);
        assert!(report.diagnostics()[0].location.contains("stuck"));
    }
}
