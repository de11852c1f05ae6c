//! Concurrent simulation of the combined PSMs through the HMM (paper §V).
//!
//! The simulation is **assertion-driven**: the simulator walks the current
//! state's characterising chain exactly like the deterministic simulator of
//! `psm-core` (§III-C), and consults the HMM's filtered belief only where
//! the paper says to — when a choice is non-deterministic (several
//! alternative chains or transitions match the observation) and when a
//! wrong prediction forces a revert/resynchronisation.

use crate::model::Hmm;
use psm_core::{Psm, StateId};
use psm_mining::{PropositionId, TemporalPattern};
use psm_trace::PowerTrace;

/// Result of an HMM-driven power estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmOutcome {
    /// Per-instant power estimate (mW).
    pub estimate: PowerTrace,
    /// Instants where the current state's assertion failed and the model
    /// recovered onto a different path — the paper's *wrong-state
    /// predictions*.
    pub wrong_state_predictions: usize,
    /// Instants of behaviour unknown to the model (no state can accept the
    /// observation); the simulator holds the last valid state there.
    pub unknown_instants: usize,
}

impl HmmOutcome {
    /// WSP as a fraction of the trace (Table III's *WSP* column).
    pub fn wsp_rate(&self) -> f64 {
        if self.estimate.is_empty() {
            0.0
        } else {
            self.wrong_state_predictions as f64 / self.estimate.len() as f64
        }
    }

    /// Unknown-behaviour instants as a fraction of the trace.
    pub fn unknown_rate(&self) -> f64 {
        if self.estimate.is_empty() {
            0.0
        } else {
            self.unknown_instants as f64 / self.estimate.len() as f64
        }
    }
}

/// One live alternative inside a state: which chain, which part, and
/// whether a `next` part already consumed its single left-instant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Alt {
    chain: usize,
    part: usize,
    next_consumed: bool,
}

/// Where the walk currently sits: a state plus the set of its alternative
/// chains still compatible with the observations since entry (paper §V:
/// a joined state is characterised by concurrent assertions, and the
/// simulation watches which of them is being satisfied).
#[derive(Debug, Clone, PartialEq)]
struct Cursor {
    state: StateId,
    alts: Vec<Alt>,
}

/// Simulates a (possibly non-deterministic) joined PSM: chain-cursor
/// walking with HMM-ranked choices.
///
/// Per instant, in order:
///
/// 1. the cursor advances deterministically within its chain (an `until`
///    part repeats on its left proposition, cascades or exits on its right
///    one);
/// 2. an exit with several matching transitions/alternative chains is
///    resolved by the **filtered belief** — the paper's use of the HMM for
///    non-deterministic choices;
/// 3. a failing assertion is a **wrong-state prediction**: the simulator
///    reverts and re-enters the best-ranked state accepting the
///    observation (zeroing nothing permanently — the belief already
///    down-weights the wrong path);
/// 4. if no state accepts the observation the behaviour is **unknown**:
///    the simulator holds the last valid state until a known behaviour
///    reappears.
///
/// A state's alternatives are its distinct chains
/// ([`PowerState::chains`](psm_core::PowerState::chains)): a chain's count
/// weighs its symbols in B but never makes the walk visit it twice.
///
/// The walk is causal, as in the paper's §V: [`run`](HmmSimulator::run)
/// reads each instant once, in order, and consults only the
/// forward-filtered belief. This is the reference semantics of that walk.
/// Estimation in the flow and in `psmd` runs the table-driven
/// `psm-compile` runtime, which walks the same distinct chains and which
/// the workspace's `tests/compile.rs` pins bit for bit against
/// [`HmmSimulator::run`].
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct HmmSimulator<'a> {
    psm: &'a Psm,
    hmm: Hmm,
}

impl<'a> HmmSimulator<'a> {
    /// Pairs a joined PSM with its HMM (usually from
    /// [`build_hmm`](crate::build_hmm)).
    ///
    /// # Panics
    ///
    /// Panics when the HMM's state count does not match the PSM's.
    pub fn new(psm: &'a Psm, hmm: Hmm) -> Self {
        assert_eq!(
            psm.state_count(),
            hmm.num_states(),
            "HMM and PSM must agree on the state space"
        );
        HmmSimulator { psm, hmm }
    }

    /// Replays an observation stream, producing per-instant power
    /// estimates.
    ///
    /// `observations[t]` is the proposition classified at instant `t`
    /// (`None` = behaviour unseen in training); `input_hamming[t]` feeds
    /// regression-calibrated output functions.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the PSM has no states.
    ///
    /// # Examples
    ///
    /// Estimate a fresh workload against a PSM trained on idle/busy runs:
    ///
    /// ```
    /// use psm_core::{generate_psm, join, MergePolicy};
    /// use psm_hmm::{build_hmm, HmmSimulator};
    /// use psm_mining::{PropositionId, PropositionTrace};
    /// use psm_trace::PowerTrace;
    ///
    /// let props = [0u32, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1];
    /// let power: PowerTrace = props.iter().map(|&p| if p == 0 { 3.0 } else { 9.0 }).collect();
    /// let psm = generate_psm(&PropositionTrace::from_indices(&props), &power, 0)?;
    /// let joined = join(&[psm], &MergePolicy::default());
    /// let sim = HmmSimulator::new(&joined, build_hmm(&joined, 2));
    ///
    /// // A workload with different run lengths than training.
    /// let obs: Vec<_> = [0u32, 0, 0, 1, 1, 0, 0, 0]
    ///     .iter()
    ///     .map(|&i| Some(PropositionId::from_index(i)))
    ///     .collect();
    /// let out = sim.run(&obs, &[0; 8]);
    /// assert_eq!(out.estimate.len(), obs.len());
    /// assert!((out.estimate[0] - 3.0).abs() < 0.1, "idle instants near 3 mW");
    /// assert!((out.estimate[3] - 9.0).abs() < 0.1, "busy instants near 9 mW");
    /// # Ok::<(), psm_core::CoreError>(())
    /// ```
    pub fn run(&self, observations: &[Option<PropositionId>], input_hamming: &[u32]) -> HmmOutcome {
        assert_eq!(
            observations.len(),
            input_hamming.len(),
            "observations and hamming series must align"
        );
        assert!(self.psm.state_count() > 0, "cannot simulate an empty PSM");
        let m = self.psm.state_count();
        let mut belief = vec![1.0 / m as f64; m];
        let mut scratch = vec![0.0; m];
        let mut cursor: Option<Cursor> = None;
        let mut last_state = self
            .psm
            .initials()
            .first()
            .map(|(s, _)| *s)
            .unwrap_or(StateId::from_index(0));
        let mut wrong = 0;
        let mut unknown = 0;
        let mut estimate = PowerTrace::with_capacity(observations.len());
        for (t, obs) in observations.iter().enumerate() {
            match obs {
                None => {
                    unknown += 1;
                    cursor = None;
                }
                Some(o) => {
                    // Keep the statistical belief in sync with the
                    // evidence; fall back to the emission model when the
                    // transition-constrained update collapses.
                    let sym = o.index();
                    if sym < self.hmm.num_symbols() {
                        let like = self
                            .hmm
                            .filter_step(&mut belief, sym, &mut scratch)
                            .unwrap_or(0.0);
                        if like <= 0.0 {
                            if let Some(nb) = self.hmm.emission_belief(sym) {
                                belief = nb;
                            }
                        }
                    }

                    match cursor.as_ref() {
                        Some(cur) => match self.advance(cur, *o, &belief) {
                            Some(next) => {
                                last_state = next.state;
                                cursor = Some(next);
                            }
                            None => {
                                // The chosen state's assertion failed.
                                cursor = self.resync(*o, &belief);
                                match &cursor {
                                    Some(next) => {
                                        wrong += 1;
                                        last_state = next.state;
                                    }
                                    None => unknown += 1,
                                }
                            }
                        },
                        None => {
                            // (Re-)synchronise on the first acceptable
                            // behaviour; missing targets stay unknown but
                            // are only counted once per instant.
                            cursor = self.resync(*o, &belief);
                            match &cursor {
                                Some(next) => last_state = next.state,
                                None => unknown += 1,
                            }
                        }
                    }
                }
            }
            let holder = self.psm.state(last_state);
            estimate.push(holder.output().evaluate(input_hamming[t] as f64));
        }
        HmmOutcome {
            estimate,
            wrong_state_predictions: wrong,
            unknown_instants: unknown,
        }
    }

    /// Enters `state`, activating every alternative chain whose entry
    /// proposition is `o` (they stay live concurrently and narrow as
    /// observations arrive).
    fn enter(&self, state: StateId, o: PropositionId) -> Option<Cursor> {
        let alts: Vec<Alt> = self
            .psm
            .state(state)
            .chains()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.entry_proposition() == o)
            .map(|(ci, c)| Alt {
                chain: ci,
                part: 0,
                next_consumed: c.parts()[0].pattern() == TemporalPattern::Next,
            })
            .collect();
        if alts.is_empty() {
            None
        } else {
            Some(Cursor { state, alts })
        }
    }

    /// One step from `cursor` on observation `o`. Every live alternative
    /// either continues (the until run repeats, or the sequence cascades)
    /// or requests an exit; continuing wins over exiting unless the belief
    /// clearly prefers an exit target, and ambiguous exits are ranked by
    /// the belief. `None` signals that no alternative accepts `o`.
    fn advance(&self, cursor: &Cursor, o: PropositionId, belief: &[f64]) -> Option<Cursor> {
        let state = self.psm.state(cursor.state);
        let mut stays: Vec<Alt> = Vec::new();
        let mut wants_exit = false;
        for alt in &cursor.alts {
            let chain = &state.chains()[alt.chain];
            let part = chain.parts()[alt.part];
            if o == part.left() && !alt.next_consumed && part.pattern() == TemporalPattern::Until {
                stays.push(*alt);
                continue;
            }
            if o == part.right() {
                if alt.part + 1 < chain.len() {
                    // Cascade into the next part of the sequence.
                    let next_part = chain.parts()[alt.part + 1];
                    stays.push(Alt {
                        chain: alt.chain,
                        part: alt.part + 1,
                        next_consumed: next_part.pattern() == TemporalPattern::Next,
                    });
                } else {
                    wants_exit = true;
                }
            }
        }

        let exit_target = if wants_exit {
            self.best_exit(cursor.state, o, belief)
        } else {
            None
        };
        match (stays.is_empty(), exit_target) {
            (false, None) => Some(Cursor {
                state: cursor.state,
                alts: stays,
            }),
            (true, Some(c)) => Some(c),
            (false, Some(c)) => {
                // Both staying and exiting are possible: a genuine
                // non-deterministic choice, resolved by the belief.
                if belief[c.state.index()] > belief[cursor.state.index()] {
                    Some(c)
                } else {
                    Some(Cursor {
                        state: cursor.state,
                        alts: stays,
                    })
                }
            }
            (true, None) => None,
        }
    }

    /// The belief-preferred exit of `from` through a transition guarded by
    /// `o`.
    fn best_exit(&self, from: StateId, o: PropositionId, belief: &[f64]) -> Option<Cursor> {
        let mut best: Option<(f64, Cursor)> = None;
        for tr in self.psm.successors(from) {
            if tr.guard != o {
                continue;
            }
            if let Some(c) = self.enter(tr.to, o) {
                let score = belief[tr.to.index()];
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, c));
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Finds the best state accepting `o` as an entry, ranked by the
    /// belief — the paper's revert-and-follow-a-different-path.
    fn resync(&self, o: PropositionId, belief: &[f64]) -> Option<Cursor> {
        let mut best: Option<(f64, Cursor)> = None;
        for (id, _) in self.psm.states() {
            if let Some(c) = self.enter(id, o) {
                let score = belief[id.index()];
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, c));
                }
            }
        }
        best.map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hmm;
    use psm_core::{generate_psm, join, MergePolicy};
    use psm_mining::PropositionTrace;

    fn obs(ids: &[u32]) -> Vec<Option<PropositionId>> {
        ids.iter()
            .map(|&i| Some(PropositionId::from_index(i)))
            .collect()
    }

    fn looped_model() -> (Psm, usize) {
        let mut props = Vec::new();
        let mut power = Vec::new();
        for &(id, mw, len) in &[
            (0u32, 3.0, 6),
            (1, 9.0, 4),
            (0, 3.0, 6),
            (1, 9.0, 4),
            (0, 3.0, 2),
        ] {
            for k in 0..len {
                props.push(id);
                power.push(mw + 0.002 * (k % 3) as f64);
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).unwrap();
        (join(&[psm], &MergePolicy::default()), 2)
    }

    #[test]
    fn tracks_alternating_workload() {
        let (psm, syms) = looped_model();
        let hmm = build_hmm(&psm, syms);
        let sim = HmmSimulator::new(&psm, hmm);
        let o = obs(&[0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0]);
        let out = sim.run(&o, &vec![0; o.len()]);
        assert_eq!(out.wrong_state_predictions, 0);
        assert_eq!(out.unknown_instants, 0);
        for (t, &expect) in [3.0, 3.0, 3.0, 9.0, 9.0, 3.0, 3.0, 9.0, 9.0, 9.0, 3.0, 3.0]
            .iter()
            .enumerate()
        {
            assert!(
                (out.estimate[t] - expect).abs() < 0.1,
                "t={t}: {} vs {expect}",
                out.estimate[t]
            );
        }
    }

    #[test]
    fn unknown_proposition_holds_last_state() {
        let (psm, syms) = looped_model();
        let hmm = build_hmm(&psm, syms);
        let sim = HmmSimulator::new(&psm, hmm);
        let mut o = obs(&[0, 0, 1, 1, 0, 0]);
        o[3] = None;
        let out = sim.run(&o, &vec![0; o.len()]);
        assert_eq!(out.unknown_instants, 1);
        // Held the busy state through the unknown instant.
        assert!((out.estimate[3] - 9.0).abs() < 0.1);
        assert!(out.unknown_rate() > 0.0);
    }

    #[test]
    fn wrong_state_prediction_detected_and_recovered() {
        // Train idle→busy→low→busy→idle…; stimulate with a jump the
        // transition structure does not allow (idle → low directly).
        let mut props = Vec::new();
        let mut power = Vec::new();
        for &(id, mw, len) in &[
            (0u32, 3.0, 6),
            (1, 9.0, 4),
            (2, 1.0, 6),
            (1, 9.0, 4),
            (0, 3.0, 6),
            (1, 9.0, 2),
        ] {
            for k in 0..len {
                props.push(id);
                power.push(mw + 0.002 * (k % 3) as f64);
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).unwrap();
        let joined = join(&[psm], &MergePolicy::default());
        let hmm = build_hmm(&joined, 3);
        let sim = HmmSimulator::new(&joined, hmm);
        // Training never saw p0 followed directly by p2.
        let o = obs(&[0, 0, 0, 2, 2, 2]);
        let out = sim.run(&o, &vec![0; o.len()]);
        assert_eq!(out.wrong_state_predictions, 1);
        assert!(out.wsp_rate() > 0.0);
        // After resynchronisation the low state is tracked correctly.
        assert!((out.estimate[4] - 1.0).abs() < 0.1);
    }

    #[test]
    fn ambiguous_exit_resolved_by_context() {
        // Two behaviours share the "busy" proposition but are reached
        // through different markers, like a key-load vs a block-start:
        //   idle →(lk)→ lk-cycle →(busy)→ keyexp(2 mW) →(idle)→ idle
        //   idle →(st)→ st-cycle →(busy)→ rounds(9 mW) →(idle)→ idle
        // Symbols: 0 idle, 1 lk, 2 st, 3 busy.
        let mut props = Vec::new();
        let mut power = Vec::new();
        let phases: &[(u32, f64, usize)] = &[
            (0, 0.5, 6),
            (1, 0.8, 1),
            (3, 2.0, 8),
            (0, 0.5, 6),
            (2, 0.9, 1),
            (3, 9.0, 8),
            (0, 0.5, 6),
            (1, 0.8, 1),
            (3, 2.0, 8),
            (0, 0.5, 6),
            (2, 0.9, 1),
            (3, 9.0, 8),
            (0, 0.5, 4),
            (1, 0.8, 1),
        ];
        for &(id, mw, len) in phases {
            for k in 0..len {
                props.push(id);
                power.push(mw + 0.002 * (k % 3) as f64);
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).unwrap();
        let joined = join(&[psm], &MergePolicy::default());
        let hmm = build_hmm(&joined, 4);
        let sim = HmmSimulator::new(&joined, hmm);
        // Fresh workload, different run lengths.
        let o = obs(&[0, 0, 0, 2, 3, 3, 3, 3, 0, 0, 1, 3, 3, 3, 0, 0]);
        let out = sim.run(&o, &vec![0; o.len()]);
        assert_eq!(out.wrong_state_predictions, 0, "markers disambiguate");
        // Busy after `st` marker is the 9 mW behaviour…
        assert!((out.estimate[5] - 9.0).abs() < 0.2, "{}", out.estimate[5]);
        // …busy after `lk` marker is the 2 mW behaviour.
        assert!((out.estimate[12] - 2.0).abs() < 0.2, "{}", out.estimate[12]);
    }

    #[test]
    fn initial_nondeterminism_resolved_by_pi() {
        let mk = |first: u32, idx| {
            let mut props = Vec::new();
            let mut power = Vec::new();
            let other = 1 - first;
            for &(id, mw, len) in &[
                (first, if first == 0 { 3.0 } else { 9.0 }, 5),
                (other, if other == 0 { 3.0 } else { 9.0 }, 5),
                (2u32, 1.0, 2),
            ] {
                for k in 0..len {
                    props.push(id);
                    power.push(mw + 0.002 * (k % 3) as f64);
                }
            }
            let gamma = PropositionTrace::from_indices(&props);
            let delta: PowerTrace = power.into_iter().collect();
            generate_psm(&gamma, &delta, idx).unwrap()
        };
        let joined = join(&[mk(0, 0), mk(0, 1), mk(1, 2)], &MergePolicy::default());
        let hmm = build_hmm(&joined, 3);
        let idle = joined
            .states()
            .find(|(_, s)| (s.attrs().mu() - 3.0).abs() < 0.3)
            .unwrap()
            .0
            .index();
        assert!(hmm.pi()[idle] > 0.5);
    }
}

#[cfg(test)]
mod outcome_tests {
    use super::*;

    #[test]
    fn rates_on_empty_outcomes() {
        let o = HmmOutcome {
            estimate: PowerTrace::new(),
            wrong_state_predictions: 0,
            unknown_instants: 0,
        };
        assert_eq!(o.wsp_rate(), 0.0);
        assert_eq!(o.unknown_rate(), 0.0);
    }

    #[test]
    fn rates_scale_with_counts() {
        let o = HmmOutcome {
            estimate: PowerTrace::from_samples(vec![1.0; 10]),
            wrong_state_predictions: 2,
            unknown_instants: 5,
        };
        assert!((o.wsp_rate() - 0.2).abs() < 1e-12);
        assert!((o.unknown_rate() - 0.5).abs() < 1e-12);
    }
}
