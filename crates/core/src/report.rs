//! Human-readable model reports.
//!
//! A compact textual summary of a generated PSM: one line per state with
//! its power attributes and characterising assertions, one per transition,
//! plus structural counters — the view a designer inspects before trusting
//! a model.

use crate::psm::{OutputFunction, Psm};
use psm_mining::PropositionTable;
use std::fmt::Write as _;

/// Renders a multi-line report of the PSM.
///
/// Assertions are rendered through `table` when provided (full proposition
/// formulas); otherwise with opaque `pN` identifiers.
///
/// # Examples
///
/// ```
/// use psm_core::{generate_psm, report};
/// use psm_mining::PropositionTrace;
/// use psm_trace::PowerTrace;
///
/// let gamma = PropositionTrace::from_indices(&[0, 0, 1, 1, 2]);
/// let delta: PowerTrace = [3.0, 3.0, 1.0, 1.0, 2.0].into_iter().collect();
/// let psm = generate_psm(&gamma, &delta, 0)?;
/// let text = report(&psm, None);
/// assert!(text.contains("2 states"));
/// assert!(text.contains("s0"));
/// # Ok::<(), psm_core::CoreError>(())
/// ```
pub fn report(psm: &Psm, table: Option<&PropositionTable>) -> String {
    let mut out = String::new();
    let nondet = if psm.is_deterministic() {
        "deterministic"
    } else {
        "non-deterministic"
    };
    let _ = writeln!(
        out,
        "PSM: {} states, {} transitions, {} initial, {nondet}",
        psm.state_count(),
        psm.transition_count(),
        psm.initials().len(),
    );

    for (id, state) in psm.states() {
        let output = match state.output() {
            OutputFunction::Constant(mu) => format!("const {mu:.4} mW"),
            OutputFunction::Regression { slope, intercept } => {
                format!("regr {slope:.4}·h + {intercept:.4} mW")
            }
        };
        let _ = writeln!(
            out,
            "  {id} {}  ω = {output}  [{} chain(s), {} window(s)]",
            state.attrs(),
            state.chains().len(),
            state.windows().len()
        );
        for (chain, count) in state.chains().iter().zip(state.counts()).take(4) {
            let rendered = match table {
                Some(t) => chain.render(t),
                None => chain.to_string(),
            };
            let _ = writeln!(out, "      ‖ {rendered} ×{count}");
        }
        if state.chains().len() > 4 {
            let _ = writeln!(out, "      ‖ … {} more", state.chains().len() - 4);
        }
    }

    for t in psm.transitions() {
        let guard = match table {
            Some(tb) => tb.render(t.guard),
            None => t.guard.to_string(),
        };
        let _ = writeln!(out, "  {} -[{guard}]-> {}", t.from, t.to);
    }
    for (s, count) in psm.initials() {
        let _ = writeln!(out, "  initial: {s} ×{count}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_psm;
    use crate::merge::{join, MergePolicy};
    use psm_mining::PropositionTrace;
    use psm_trace::PowerTrace;

    fn sample() -> Psm {
        let gamma = PropositionTrace::from_indices(&[0, 0, 0, 1, 1, 1, 2, 3]);
        let delta: PowerTrace = [3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 3.4, 3.4]
            .into_iter()
            .collect();
        generate_psm(&gamma, &delta, 0).expect("generates")
    }

    #[test]
    fn report_lists_everything() {
        let psm = sample();
        let r = report(&psm, None);
        assert!(r.contains("3 states, 2 transitions"));
        assert!(r.contains("deterministic"));
        assert!(r.contains("s0") && r.contains("s1") && r.contains("s2"));
        assert!(r.contains("-[p1]->"));
        assert!(r.contains("initial: s0 ×1"));
        assert!(r.contains("const"));
    }

    #[test]
    fn long_alternative_lists_are_elided() {
        // Join power-identical behaviours over eight distinct propositions
        // into one state: each hand-over pN U pN+1 is a distinct chain.
        let mut props = Vec::new();
        let mut power = Vec::new();
        for p in 0..8u32 {
            for _ in 0..4 {
                props.push(p);
                power.push(3.0);
            }
        }
        props.push(8);
        power.push(9.0);
        props.push(9);
        power.push(9.0);
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).expect("generates");
        let joined = join(&[psm], &MergePolicy::default());
        assert!(
            joined.states().any(|(_, s)| s.chains().len() > 4),
            "fixture must give one state more than 4 distinct chains"
        );
        let r = report(&joined, None);
        assert!(r.contains("more"), "{r}");
    }
}
