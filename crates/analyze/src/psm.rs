//! Lints over generated power state machines.

use crate::{codes, AnalysisReport, Diagnostic};
use psm_core::{Psm, StateId};
use std::collections::{HashMap, VecDeque};

/// Statically checks a PSM's structural invariants.
///
/// Emits `PS006` (transitions or initial marks referencing states outside
/// the machine — if any are present the remaining checks are skipped),
/// `PS005` (no initial state), `PS001` (states unreachable from every
/// initial state), `PS002` (invalid power attributes: n = 0, σ < 0,
/// non-finite μ/σ or a non-finite output function), `PS003` (distinct
/// states sharing one assertion label) and `PS004` (transition guards that
/// are not the exit proposition of the source and the entry proposition of
/// the destination — chain adjacency broken by a bad edit or merge).
pub fn lint_psm(psm: &Psm) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("psm ({} states)", psm.state_count()));
    let n = psm.state_count();

    // PS006: dangling endpoints poison every later check.
    let mut dangling = false;
    for (ti, t) in psm.transitions().iter().enumerate() {
        for (role, s) in [("source", t.from), ("destination", t.to)] {
            if s.index() >= n {
                dangling = true;
                report.push(Diagnostic::new(
                    &codes::PS006,
                    format!("transition #{ti}"),
                    format!("{role} state s{} is beyond the {n}-state table", s.index()),
                ));
            }
        }
    }
    for &(s, _) in psm.initials() {
        if s.index() >= n {
            dangling = true;
            report.push(Diagnostic::new(
                &codes::PS006,
                format!("initial s{}", s.index()),
                format!("initial state s{} is beyond the {n}-state table", s.index()),
            ));
        }
    }
    if dangling {
        return report;
    }

    // PS005: a machine with states must have somewhere to start.
    if n > 0 && psm.initials().is_empty() {
        report.push(Diagnostic::new(
            &codes::PS005,
            "initials",
            format!("PSM has {n} state(s) but no initial state"),
        ));
    }

    // PS001: breadth-first reachability from the initial states.
    let mut reachable = vec![false; n];
    let mut queue: VecDeque<StateId> = VecDeque::new();
    for &(s, _) in psm.initials() {
        if !reachable[s.index()] {
            reachable[s.index()] = true;
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        for t in psm.successors(s) {
            if !reachable[t.to.index()] {
                reachable[t.to.index()] = true;
                queue.push_back(t.to);
            }
        }
    }
    if !psm.initials().is_empty() {
        for (id, _) in psm.states() {
            if !reachable[id.index()] {
                report.push(Diagnostic::new(
                    &codes::PS001,
                    format!("state s{}", id.index()),
                    format!(
                        "state s{} is unreachable from the initial states",
                        id.index()
                    ),
                ));
            }
        }
    }

    // PS002: the attributes every estimate is built from.
    for (id, state) in psm.states() {
        let a = state.attrs();
        let mut problems = Vec::new();
        if a.n() == 0 {
            problems.push("n = 0".to_string());
        }
        if !a.mu().is_finite() {
            problems.push(format!("μ = {}", a.mu()));
        }
        if a.sigma() < 0.0 || !a.sigma().is_finite() {
            problems.push(format!("σ = {}", a.sigma()));
        }
        let out = state.output();
        if !out.evaluate(0.0).is_finite() || !out.evaluate(1.0).is_finite() {
            problems.push("non-finite output function".to_string());
        }
        if !problems.is_empty() {
            report.push(Diagnostic::new(
                &codes::PS002,
                format!("state s{}", id.index()),
                format!("invalid power attributes: {}", problems.join(", ")),
            ));
        }
    }

    // PS003: two states whose sorted sets of distinct chains coincide.
    let mut by_label: HashMap<String, Vec<usize>> = HashMap::new();
    for (id, state) in psm.states() {
        let mut labels: Vec<String> = state.chains().iter().map(|c| c.to_string()).collect();
        labels.sort();
        by_label
            .entry(labels.join(" ∨ "))
            .or_default()
            .push(id.index());
    }
    let mut groups: Vec<(&String, &Vec<usize>)> =
        by_label.iter().filter(|(_, ids)| ids.len() > 1).collect();
    groups.sort_by_key(|(_, ids)| ids[0]);
    for (label, ids) in groups {
        report.push(Diagnostic::new(
            &codes::PS003,
            format!("states {:?}", ids),
            format!("{} states share the label `{label}`", ids.len()),
        ));
    }

    // PS004: chain adjacency — a guard is the proposition observed when
    // leaving the source chain and entering the destination chain.
    for (ti, t) in psm.transitions().iter().enumerate() {
        let from = psm.state(t.from);
        let to = psm.state(t.to);
        let exits = from
            .chains()
            .iter()
            .any(|c| c.exit_proposition() == t.guard);
        let enters = to.chains().iter().any(|c| c.entry_proposition() == t.guard);
        if !exits || !enters {
            let side = if !exits { "exit" } else { "entry" };
            report.push(Diagnostic::new(
                &codes::PS004,
                format!("transition #{ti} (s{} → s{})", t.from.index(), t.to.index()),
                format!(
                    "guard {} is not an {side} proposition of its {} state",
                    t.guard,
                    if !exits { "source" } else { "destination" }
                ),
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_core::{ChainAssertion, PowerAttributes, PowerState, SourceWindow};
    use psm_mining::{PropositionId, TemporalAssertion, TemporalPattern};
    use psm_trace::PowerTrace;

    fn codes_of(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    fn state(left: u32, right: u32) -> PowerState {
        let delta: PowerTrace = [3.0, 3.1].into_iter().collect();
        PowerState::new(
            ChainAssertion::single(TemporalAssertion::new(
                TemporalPattern::Until,
                PropositionId::from_index(left),
                PropositionId::from_index(right),
            )),
            SourceWindow {
                trace: 0,
                start: 0,
                stop: 1,
            },
            PowerAttributes::from_window(&delta, 0, 1),
        )
    }

    #[test]
    fn chain_of_states_is_clean() {
        let mut psm = Psm::new();
        let s0 = psm.add_state(state(0, 1));
        let s1 = psm.add_state(state(1, 2));
        psm.add_transition(s0, s1, PropositionId::from_index(1));
        psm.add_initial(s0);
        let report = lint_psm(&psm);
        assert!(report.is_clean(), "{}", report.text());
    }

    #[test]
    fn orphan_state_is_ps001() {
        let mut psm = Psm::new();
        let s0 = psm.add_state(state(0, 1));
        let _orphan = psm.add_state(state(1, 2));
        psm.add_initial(s0);
        let report = lint_psm(&psm);
        assert_eq!(codes_of(&report), vec!["PS001"]);
        assert!(report.diagnostics()[0].location.contains("s1"));
    }

    #[test]
    fn missing_initial_is_ps005() {
        let mut psm = Psm::new();
        psm.add_state(state(0, 1));
        let report = lint_psm(&psm);
        assert!(codes_of(&report).contains(&"PS005"), "{}", report.text());
    }

    #[test]
    fn duplicate_labels_are_ps003() {
        let mut psm = Psm::new();
        let s0 = psm.add_state(state(0, 1));
        let s1 = psm.add_state(state(0, 1));
        psm.add_initial(s0);
        psm.add_initial(s1);
        let report = lint_psm(&psm);
        assert_eq!(codes_of(&report), vec!["PS003"], "{}", report.text());
    }

    #[test]
    fn broken_guard_is_ps004() {
        let mut psm = Psm::new();
        let s0 = psm.add_state(state(0, 1));
        let s1 = psm.add_state(state(1, 2));
        psm.add_transition(s0, s1, PropositionId::from_index(7));
        psm.add_initial(s0);
        let report = lint_psm(&psm);
        assert!(codes_of(&report).contains(&"PS004"), "{}", report.text());
    }

    #[test]
    fn dangling_transition_is_ps006_and_stops_analysis() {
        let mut psm = Psm::new();
        let s0 = psm.add_state(state(0, 1));
        psm.add_transition(s0, StateId::from_index(9), PropositionId::from_index(1));
        psm.add_initial(s0);
        let report = lint_psm(&psm);
        assert_eq!(codes_of(&report), vec!["PS006"]);
    }
}
