//! The two-phase mining procedure (ref. [9] of the paper).

use crate::atom::{compare_words, AtomicProposition, Comparison};
use crate::config::MiningConfig;
use crate::proposition::{PropositionTable, PropositionVocabulary};
use crate::trace::PropositionTrace;
use crate::MiningError;
use psm_trace::{Bits, FunctionalTrace};
use std::collections::HashMap;

/// The complete mining result for one IP: the shared proposition table and
/// one proposition trace per input functional trace.
#[derive(Debug, Clone)]
pub struct MinedTraces {
    /// Interned proposition set, shared by all traces of the IP.
    pub table: PropositionTable,
    /// One proposition trace Γ per input functional trace Φ, same order.
    pub traces: Vec<PropositionTrace>,
}

/// The assertion miner: extracts frequent atomic propositions (phase 1) and
/// composes them into per-instant propositions (phase 2).
///
/// See the [crate-level example](crate) for the paper's Fig. 3 worked end
/// to end.
#[derive(Debug, Clone, Default)]
pub struct Miner {
    config: MiningConfig,
}

impl Miner {
    /// Creates a miner with the given thresholds.
    pub fn new(config: MiningConfig) -> Self {
        Miner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MiningConfig {
        &self.config
    }

    /// Runs both phases over a set of functional traces of one IP.
    ///
    /// All traces must share a signal interface; the returned table is the
    /// shared proposition set *Prop*, and `traces[i]` is the proposition
    /// trace of input `traces[i]`.
    ///
    /// # Examples
    ///
    /// A one-signal enable line mines down to two propositions (`en=true`
    /// and its closed-world complement); see the [crate-level
    /// example](crate) for the paper's full Fig. 3 reproduction.
    ///
    /// ```
    /// use psm_mining::{Miner, MiningConfig};
    /// use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
    ///
    /// let mut signals = SignalSet::new();
    /// signals.push("en", 1, Direction::Input)?;
    /// let mut phi = FunctionalTrace::new(signals);
    /// for v in [1u64, 1, 0, 0, 1, 1] {
    ///     phi.push_cycle(vec![Bits::from_u64(v, 1)])?;
    /// }
    ///
    /// let mined = Miner::new(MiningConfig::default()).mine(&[&phi])?;
    /// assert_eq!(mined.table.len(), 2);
    /// assert_eq!(mined.traces[0].id(0), mined.traces[0].id(4));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// * [`MiningError::EmptyTrace`] when no non-empty trace is supplied;
    /// * [`MiningError::SignalSetMismatch`] when interfaces differ;
    /// * [`MiningError::EmptyVocabulary`] when no atom survives the
    ///   thresholds.
    pub fn mine(&self, traces: &[&FunctionalTrace]) -> Result<MinedTraces, MiningError> {
        self.mine_with_atoms(traces, Vec::new())
    }

    /// Like [`Miner::mine`], with designer-supplied atomic propositions
    /// unioned into the mined vocabulary — domain knowledge the templates
    /// cannot express (e.g. an address-range predicate encoded as
    /// `v = c` atoms, or relations the support thresholds would drop).
    ///
    /// Duplicates of already-mined atoms are ignored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Miner::mine`].
    pub fn mine_with_atoms(
        &self,
        traces: &[&FunctionalTrace],
        extra: Vec<AtomicProposition>,
    ) -> Result<MinedTraces, MiningError> {
        let vocabulary = self.mine_vocabulary(traces)?;
        let mut atoms = vocabulary.atoms().to_vec();
        for atom in extra {
            if !atoms.contains(&atom) {
                atoms.push(atom);
            }
        }
        // Phase 2: intern every instant of every trace into one table.
        let vocabulary = PropositionVocabulary::new(vocabulary.signals().clone(), atoms);
        let mut table = PropositionTable::new(vocabulary);
        let traces = traces.iter().map(|t| table.intern_trace(t)).collect();
        Ok(MinedTraces { table, traces })
    }

    /// Phase 1: extracts the atomic-proposition vocabulary from the
    /// training traces.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Miner::mine`].
    pub fn mine_vocabulary(
        &self,
        traces: &[&FunctionalTrace],
    ) -> Result<PropositionVocabulary, MiningError> {
        let total: usize = traces.iter().map(|t| t.len()).sum();
        if traces.is_empty() || total == 0 {
            return Err(MiningError::EmptyTrace);
        }
        let signals = traces[0].signals().clone();
        if traces.iter().any(|t| t.signals() != &signals) {
            return Err(MiningError::SignalSetMismatch);
        }

        let min_count = (self.config.min_support() * total as f64).ceil() as usize;
        let keep = |support: usize| -> bool {
            support >= min_count.max(1) && (!self.config.drop_invariants() || support < total)
        };

        let mut atoms = Vec::new();

        // --- `v = c` atoms for small-domain (control-like) signals -------
        let max_domain = self.config.const_atom_max_domain();
        for (id, decl) in signals.iter() {
            let mut counts: HashMap<&[u64], usize> = HashMap::new();
            let mut overflowed = false;
            'outer: for trace in traces {
                for row in trace.iter() {
                    let v = row.words(id);
                    if let Some(c) = counts.get_mut(v) {
                        *c += 1;
                    } else {
                        if counts.len() == max_domain {
                            overflowed = true;
                            break 'outer;
                        }
                        counts.insert(v, 1);
                    }
                }
            }
            if overflowed {
                continue;
            }
            // Deterministic order: sort observed constants numerically.
            let mut observed: Vec<(&[u64], usize)> = counts.into_iter().collect();
            observed.sort_by(|(a, _), (b, _)| compare_words(a, b));
            for (words, support) in observed {
                if keep(support) {
                    atoms.push(AtomicProposition::VarEqConst {
                        signal: id,
                        value: Bits::from_words(words, decl.width()),
                    });
                }
            }
        }

        // --- `v ∘ w` atoms between equal-width signal pairs ---------------
        if self.config.pair_relations() {
            let ids: Vec<_> = signals.iter().map(|(id, d)| (id, d.width())).collect();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    let (left, wl) = ids[i];
                    let (right, wr) = ids[j];
                    if wl != wr {
                        continue;
                    }
                    let mut support = [0usize; 3]; // Eq, Lt, Gt
                    for trace in traces {
                        for row in trace.iter() {
                            match compare_words(row.words(left), row.words(right)) {
                                std::cmp::Ordering::Equal => support[0] += 1,
                                std::cmp::Ordering::Less => support[1] += 1,
                                std::cmp::Ordering::Greater => support[2] += 1,
                            }
                        }
                    }
                    for (k, cmp) in Comparison::ALL.into_iter().enumerate() {
                        if keep(support[k]) {
                            atoms.push(AtomicProposition::VarCmpVar { left, cmp, right });
                        }
                    }
                }
            }
        }

        if atoms.is_empty() {
            return Err(MiningError::EmptyVocabulary);
        }
        Ok(PropositionVocabulary::new(signals, atoms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::{Direction, SignalSet};

    /// The paper's Fig. 3 functional trace.
    fn fig3_trace() -> FunctionalTrace {
        let mut signals = SignalSet::new();
        signals.push("v1", 1, Direction::Input).unwrap();
        signals.push("v2", 1, Direction::Input).unwrap();
        signals.push("v3", 4, Direction::Output).unwrap();
        signals.push("v4", 4, Direction::Output).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        let rows: [(u64, u64, u64, u64); 8] = [
            (1, 0, 3, 1),
            (1, 0, 3, 1),
            (1, 0, 3, 1),
            (0, 1, 3, 3),
            (0, 1, 4, 4),
            (0, 1, 2, 2),
            (1, 1, 0, 0),
            (1, 1, 3, 1),
        ];
        for (v1, v2, v3, v4) in rows {
            phi.push_cycle(vec![
                Bits::from_u64(v1, 1),
                Bits::from_u64(v2, 1),
                Bits::from_u64(v3, 4),
                Bits::from_u64(v4, 4),
            ])
            .unwrap();
        }
        phi
    }

    #[test]
    fn fig3_reproduces_paper_grouping() {
        let phi = fig3_trace();
        let mined = Miner::new(MiningConfig::default()).mine(&[&phi]).unwrap();
        let g = &mined.traces[0];
        // p_a in [0,2], p_b in [3,5], p_c at 6, p_d at 7.
        let runs = g.runs();
        assert_eq!(runs.len(), 4, "four behaviours: {runs:?}");
        assert_eq!((runs[0].1, runs[0].2), (0, 2));
        assert_eq!((runs[1].1, runs[1].2), (3, 5));
        assert_eq!((runs[2].1, runs[2].2), (6, 6));
        assert_eq!((runs[3].1, runs[3].2), (7, 7));
        // All four propositions are distinct.
        assert_eq!(mined.table.len(), 4);
    }

    #[test]
    fn fig3_propositions_render_like_paper() {
        let phi = fig3_trace();
        let mined = Miner::new(MiningConfig::default()).mine(&[&phi]).unwrap();
        let g = &mined.traces[0];
        let pa = mined.table.render(g.id(0));
        // p_a: v1=true & v2=false & v3>v4
        assert!(pa.contains("v1=true"), "{pa}");
        assert!(pa.contains("v2=false"), "{pa}");
        assert!(pa.contains("v3>v4"), "{pa}");
        let pb = mined.table.render(g.id(3));
        assert!(pb.contains("v1=false") && pb.contains("v3=v4"), "{pb}");
    }

    #[test]
    fn vocabulary_excludes_wide_domains_and_unsupported() {
        let phi = fig3_trace();
        let vocab = Miner::new(MiningConfig::default())
            .mine_vocabulary(&[&phi])
            .unwrap();
        // v3 takes 4 distinct values, v4 takes 3: no const atoms for them
        // under the default domain bound of 2. v3<v4 never holds. So:
        // v1∈{t,f}, v2∈{t,f}, the three v1∘v2 relations (both 1-bit wide),
        // v3=v4 and v3>v4 → 9 atoms.
        assert_eq!(vocab.len(), 9);
        let rendered: Vec<String> = vocab
            .atoms()
            .iter()
            .map(|a| a.render(vocab.signals()))
            .collect();
        assert!(!rendered.iter().any(|r| r == "v3<v4"), "{rendered:?}");
        assert!(
            !rendered.iter().any(|r| r.starts_with("v3=4'h")),
            "{rendered:?}"
        );
    }

    #[test]
    fn classify_unseen_behaviour_is_none() {
        let phi = fig3_trace();
        let mined = Miner::new(MiningConfig::default()).mine(&[&phi]).unwrap();
        // v1=false & v2=false never occurs in training.
        let mut unseen = FunctionalTrace::new(phi.signals().clone());
        unseen
            .push_cycle(vec![
                Bits::from_u64(0, 1),
                Bits::from_u64(0, 1),
                Bits::from_u64(1, 4),
                Bits::from_u64(2, 4),
            ])
            .unwrap();
        assert!(mined.table.classify(unseen.cycle(0)).is_none());
    }

    #[test]
    fn shared_table_across_traces() {
        let phi = fig3_trace();
        let mined = Miner::new(MiningConfig::default())
            .mine(&[&phi, &phi])
            .unwrap();
        assert_eq!(mined.traces.len(), 2);
        assert_eq!(mined.traces[0], mined.traces[1]);
        assert_eq!(mined.table.len(), 4); // no duplicates interned
    }

    #[test]
    fn empty_inputs_rejected() {
        let miner = Miner::new(MiningConfig::default());
        assert!(matches!(miner.mine(&[]), Err(MiningError::EmptyTrace)));
    }

    #[test]
    fn mismatched_interfaces_rejected() {
        let phi = fig3_trace();
        let mut other_signals = SignalSet::new();
        other_signals.push("x", 1, Direction::Input).unwrap();
        let mut psi = FunctionalTrace::new(other_signals);
        psi.push_cycle(vec![Bits::from_bool(true)]).unwrap();
        let r = Miner::new(MiningConfig::default()).mine(&[&phi, &psi]);
        assert!(matches!(r, Err(MiningError::SignalSetMismatch)));
    }

    #[test]
    fn invariant_atoms_dropped_by_default() {
        // A signal stuck at one value across training yields only invariant
        // atoms, which are dropped; with a second varying signal mining
        // still succeeds and the stuck signal contributes nothing.
        let mut signals = SignalSet::new();
        signals.push("stuck", 1, Direction::Input).unwrap();
        signals.push("osc", 1, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        for t in 0..10u64 {
            phi.push_cycle(vec![Bits::from_bool(true), Bits::from_u64(t % 2, 1)])
                .unwrap();
        }
        let vocab = Miner::new(MiningConfig::default())
            .mine_vocabulary(&[&phi])
            .unwrap();
        // osc=true, osc=false, stuck=osc (50%), stuck>osc (50%).
        for atom in vocab.atoms() {
            let rendered = atom.render(vocab.signals());
            assert_ne!(rendered, "stuck=true", "invariant must be dropped");
        }
    }

    #[test]
    fn designer_atoms_refine_the_proposition_set() {
        // A wide bus gets no const atoms by default; the designer knows
        // that the value 0xF0 marks a special mode and injects it.
        let mut signals = SignalSet::new();
        signals.push("mode", 8, Direction::Input).unwrap();
        signals.push("run", 1, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals.clone());
        for t in 0..40u64 {
            let mode = if t % 10 < 3 { 0xF0 } else { t % 7 };
            phi.push_cycle(vec![Bits::from_u64(mode, 8), Bits::from_u64(t % 2, 1)])
                .unwrap();
        }
        let miner = Miner::new(MiningConfig::default());
        let plain = miner.mine(&[&phi]).unwrap();
        let special = crate::AtomicProposition::VarEqConst {
            signal: signals.by_name("mode").unwrap(),
            value: Bits::from_u64(0xF0, 8),
        };
        let refined = miner.mine_with_atoms(&[&phi], vec![special]).unwrap();
        assert!(refined.table.vocabulary().len() > plain.table.vocabulary().len());
        assert!(
            refined.table.len() > plain.table.len(),
            "finer propositions"
        );
        // The designer atom appears in renders.
        let any_mode = refined
            .table
            .ids()
            .any(|id| refined.table.render(id).contains("mode=8'hf0"));
        assert!(any_mode);
    }

    #[test]
    fn min_support_filters_rare_constants() {
        let mut signals = SignalSet::new();
        signals.push("mode", 2, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        // mode = 0 for 99 cycles, mode = 1 exactly once.
        for t in 0..100u64 {
            phi.push_cycle(vec![Bits::from_u64(u64::from(t == 50), 2)])
                .unwrap();
        }
        let strict = Miner::new(MiningConfig::default().with_min_support(0.05))
            .mine_vocabulary(&[&phi])
            .unwrap();
        // Only mode=0 survives (mode=1 holds 1% < 5%).
        assert_eq!(strict.len(), 1);
        let lax = Miner::new(MiningConfig::default().with_min_support(0.01))
            .mine_vocabulary(&[&phi])
            .unwrap();
        assert_eq!(lax.len(), 2);
    }
}
