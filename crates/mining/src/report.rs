//! Mining diagnostics: per-atom support and proposition-set statistics.
//!
//! Choosing the thresholds of a [`MiningConfig`](crate::MiningConfig) is a
//! designer activity; this report shows what the miner actually extracted
//! so the thresholds can be judged against the trace.

use crate::proposition::PropositionTable;
use psm_trace::FunctionalTrace;
use std::fmt::Write as _;

/// Support statistics of one mined atom over a set of traces.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomSupport {
    /// Rendered atom formula (e.g. `start=true`).
    pub atom: String,
    /// Instants where the atom holds.
    pub holds: usize,
    /// Fraction of all instants where the atom holds.
    pub support: f64,
}

/// Statistics of a completed mining run.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningReport {
    /// Per-atom support, in vocabulary order.
    pub atoms: Vec<AtomSupport>,
    /// Number of interned propositions.
    pub propositions: usize,
    /// Total instants analysed.
    pub instants: usize,
}

impl MiningReport {
    /// Computes the report for a table over its training traces.
    pub fn new(table: &PropositionTable, traces: &[&FunctionalTrace]) -> Self {
        let vocab = table.vocabulary();
        let total: usize = traces.iter().map(|t| t.len()).sum();
        let mut holds = vec![0usize; vocab.len()];
        for trace in traces {
            for row in trace.iter() {
                for (i, atom) in vocab.atoms().iter().enumerate() {
                    if atom.eval(row) {
                        holds[i] += 1;
                    }
                }
            }
        }
        let atoms = vocab
            .atoms()
            .iter()
            .zip(holds)
            .map(|(atom, h)| AtomSupport {
                atom: atom.render(vocab.signals()),
                holds: h,
                support: if total > 0 {
                    h as f64 / total as f64
                } else {
                    0.0
                },
            })
            .collect();
        MiningReport {
            atoms,
            propositions: table.len(),
            instants: total,
        }
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mining report: {} atom(s), {} proposition(s), {} instant(s)",
            self.atoms.len(),
            self.propositions,
            self.instants
        );
        for a in &self.atoms {
            let _ = writeln!(out, "  {:>6.2} %  {}", a.support * 100.0, a.atom);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Miner, MiningConfig};
    use psm_trace::{Bits, Direction, SignalSet};

    fn trace() -> FunctionalTrace {
        let mut signals = SignalSet::new();
        signals.push("en", 1, Direction::Input).expect("unique");
        let mut t = FunctionalTrace::new(signals);
        for k in 0..10u64 {
            t.push_cycle(vec![Bits::from_u64(u64::from(k >= 7), 1)])
                .expect("well-formed");
        }
        t
    }

    #[test]
    fn supports_match_the_trace() {
        let t = trace();
        let mined = Miner::new(MiningConfig::default())
            .mine(&[&t])
            .expect("mines");
        let report = MiningReport::new(&mined.table, &[&t]);
        assert_eq!(report.instants, 10);
        assert_eq!(report.propositions, 2);
        let en_true = report
            .atoms
            .iter()
            .find(|a| a.atom == "en=true")
            .expect("mined");
        assert_eq!(en_true.holds, 3);
        assert!((en_true.support - 0.3).abs() < 1e-12);
    }

    #[test]
    fn render_is_nonempty_and_lists_atoms() {
        let t = trace();
        let mined = Miner::new(MiningConfig::default())
            .mine(&[&t])
            .expect("mines");
        let text = MiningReport::new(&mined.table, &[&t]).render();
        assert!(text.contains("mining report"));
        assert!(text.contains("en=true"));
        assert!(text.contains("en=false"));
    }
}
