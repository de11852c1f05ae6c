//! Graphviz export of PSMs, for inspection and documentation.

use crate::psm::Psm;
use psm_mining::PropositionTable;
use std::fmt::Write as _;

/// Renders a PSM as Graphviz `dot` text.
///
/// States show their assertions (resolved through `table` when provided)
/// and power attributes; transitions show their enabling propositions;
/// initial states are marked with an incoming arrow from a point node.
///
/// # Examples
///
/// ```
/// use psm_core::{generate_psm, to_dot};
/// use psm_mining::PropositionTrace;
/// use psm_trace::PowerTrace;
///
/// let gamma = PropositionTrace::from_indices(&[0, 0, 1, 1, 2]);
/// let delta: PowerTrace = [3.0, 3.0, 1.0, 1.0, 2.0].into_iter().collect();
/// let psm = generate_psm(&gamma, &delta, 0)?;
/// let dot = to_dot(&psm, None);
/// assert!(dot.starts_with("digraph psm {"));
/// assert!(dot.contains("s0 -> s1"));
/// # Ok::<(), psm_core::CoreError>(())
/// ```
pub fn to_dot(psm: &Psm, table: Option<&PropositionTable>) -> String {
    let mut out =
        String::from("digraph psm {\n  rankdir=LR;\n  node [shape=box, style=rounded];\n");
    for (id, state) in psm.states() {
        let chains: Vec<String> = state
            .chains()
            .iter()
            .zip(state.counts())
            .map(|(c, count)| match table {
                Some(t) => format!("{} ×{count}", c.render(t)),
                None => format!("{c} ×{count}"),
            })
            .collect();
        let label = format!("{}\\n{}\\n{}", id, chains.join(" ‖ "), state.attrs());
        let _ = writeln!(out, "  {} [label=\"{}\"];", id, label.replace('"', "'"));
    }
    for (i, (s, count)) in psm.initials().iter().enumerate() {
        let _ = writeln!(out, "  init{i} [shape=point];");
        let _ = writeln!(out, "  init{i} -> {s} [label=\"×{count}\"];");
    }
    for t in psm.transitions() {
        let guard = match table {
            Some(tb) => tb.render(t.guard),
            None => t.guard.to_string(),
        };
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{}\"];",
            t.from,
            t.to,
            guard.replace('"', "'")
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_psm;
    use psm_mining::PropositionTrace;
    use psm_trace::PowerTrace;

    #[test]
    fn dot_contains_states_transitions_and_initials() {
        let gamma = PropositionTrace::from_indices(&[0, 0, 1, 1, 2]);
        let delta: PowerTrace = [3.0, 3.0, 1.0, 1.0, 2.0].into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).unwrap();
        let dot = to_dot(&psm, None);
        assert!(dot.contains("s0 ["));
        assert!(dot.contains("s1 ["));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("init0 -> s0"));
        assert!(dot.contains("p0 U p1"));
        assert!(dot.ends_with("}\n"));
    }
}
