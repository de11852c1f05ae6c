//! The `simplify` procedure (paper §IV, Fig. 6a): shortening chain PSMs by
//! merging adjacent mergeable states into sequence-states.

use crate::merge::MergePolicy;
use crate::psm::{Fold, Psm};
use std::collections::HashSet;

/// Iteratively merges adjacent mergeable states of a chain PSM.
///
/// Two *adjacent* states sᵢ → sᵢ₊₁ merge when their power attributes are
/// indistinguishable under `policy`; the merged state is characterised by
/// the assertion sequence `{pᵢ; pᵢ₊₁}` and by attributes recomputed over
/// the union of both training windows. The procedure repeats until no
/// adjacent pair qualifies, exactly like the paper's fixpoint iteration.
///
/// Only chain-shaped states qualify (a unique successor that has a unique
/// predecessor, both characterised by a single chain of multiplicity 1) —
/// which is the shape `PSMGenerator` produces. `simplify` is a no-op on
/// already-joined graphs.
///
/// Returns the number of merges performed.
///
/// # Examples
///
/// ```
/// use psm_core::{generate_psm, simplify, MergePolicy};
/// use psm_mining::PropositionTrace;
/// use psm_trace::PowerTrace;
///
/// // Three behaviours at practically the same power level.
/// let gamma = PropositionTrace::from_indices(&[0, 0, 1, 1, 2, 2, 3]);
/// let delta: PowerTrace = [3.0, 3.01, 2.99, 3.0, 3.01, 3.0, 9.0]
///     .into_iter()
///     .collect();
/// let mut psm = generate_psm(&gamma, &delta, 0)?;
/// assert_eq!(psm.state_count(), 3);
/// let merges = simplify(&mut psm, &MergePolicy::default());
/// assert_eq!(merges, 2);
/// assert_eq!(psm.state_count(), 1);
/// assert_eq!(psm.state(psm.initials()[0].0).chains()[0].len(), 3);
/// # Ok::<(), psm_core::CoreError>(())
/// ```
pub fn simplify(psm: &mut Psm, policy: &MergePolicy) -> usize {
    let mut fold = Fold::new(std::mem::take(psm));
    let mut graph = Adjacency::new(&fold);
    let mut merges = 0;
    // Every live state below `cursor` is known not to qualify, so the scan
    // still finds the lowest-indexed qualifying state first.
    let mut cursor = 0;
    while let Some(s) = (cursor..fold.state_count()).find(|&s| graph.qualifies(&fold, policy, s)) {
        // The first merge also deduplicates the transition list, which can
        // change any state's degrees: recount, and rescan from the start.
        let recount = merges == 0 && retire_duplicates(&mut fold);
        if recount {
            graph = Adjacency::new(&fold);
        }
        let resume = graph.merge(&mut fold, s);
        cursor = if recount { 0 } else { resume };
        merges += 1;
    }
    *psm = fold.compact();
    merges
}

/// The degrees of a PSM under `simplify`, updated per merge so that testing
/// whether a state qualifies costs O(1). Lists hold transition indices into
/// [`Fold::transitions`]; retired transitions are in none of them.
struct Adjacency {
    /// Outgoing transitions of each live state.
    outgoing: Vec<Vec<usize>>,
    /// Incoming transitions of each live state.
    incoming: Vec<Vec<usize>>,
    /// The state that currently owns each transition's source.
    source: Vec<usize>,
}

impl Adjacency {
    fn new(fold: &Fold) -> Self {
        let n = fold.state_count();
        let mut graph = Adjacency {
            outgoing: vec![Vec::new(); n],
            incoming: vec![Vec::new(); n],
            source: Vec::with_capacity(fold.transitions().len()),
        };
        for (k, t) in fold.transitions().iter().enumerate() {
            graph.source.push(t.from.index());
            if !fold.is_retired(k) {
                graph.outgoing[t.from.index()].push(k);
                graph.incoming[t.to.index()].push(k);
            }
        }
        graph
    }

    /// `true` when `s`'s successor can fold into it: `s` is live with a
    /// single chain of multiplicity 1 and a unique successor `next ≠ s`,
    /// and `next` has `s` as its unique predecessor, a single chain of
    /// multiplicity 1 and power attributes indistinguishable from `s`'s.
    fn qualifies(&self, fold: &Fold, policy: &MergePolicy, s: usize) -> bool {
        if !fold.is_live(s) || fold.state(s).multiplicity() != 1 {
            return false;
        }
        let [t] = self.outgoing[s][..] else {
            return false;
        };
        let next = fold.transitions()[t].to.index();
        next != s
            && self.incoming[next].len() == 1
            && fold.state(next).multiplicity() == 1
            && policy.mergeable(fold.state(s).attrs(), fold.state(next).attrs())
    }

    /// Folds the unique successor of a qualifying `s` into it, retiring the
    /// inner transitions `s → next` and `next → s` (paper Fig. 6a). Returns
    /// where the scan resumes: only `s` and its predecessors can change
    /// qualification, because `next` had `s` as its sole predecessor and `s`
    /// had `next` as its sole successor.
    fn merge(&mut self, fold: &mut Fold, s: usize) -> usize {
        let inner = self.outgoing[s].pop().expect("s has a unique successor");
        let next = fold.transitions()[inner].to.index();
        fold.retire(inner);
        self.incoming[next].clear();
        for t in std::mem::take(&mut self.outgoing[next]) {
            if fold.transitions()[t].to.index() == s {
                fold.retire(t);
                self.incoming[s].retain(|&k| k != t);
            } else {
                self.source[t] = s;
                self.outgoing[s].push(t);
            }
        }
        fold.merge(s, next, true);
        self.incoming[s]
            .iter()
            .map(|&t| self.source[t])
            .fold(s, usize::min)
    }
}

/// Retires every later copy of a transition. Returns `false`, changing
/// nothing, when the list has no duplicates.
fn retire_duplicates(fold: &mut Fold) -> bool {
    let mut seen = HashSet::with_capacity(fold.transitions().len());
    let copies: Vec<usize> = (0..fold.transitions().len())
        .filter(|&k| !fold.is_retired(k) && !seen.insert(fold.transitions()[k]))
        .collect();
    for &k in &copies {
        fold.retire(k);
    }
    !copies.is_empty()
}

/// [`simplify`] with the per-merge rebuild of [`Psm::merge_states`] and a
/// scan from state 0 after every merge: the differential oracle of the
/// in-place fold.
#[cfg(test)]
pub(crate) fn simplify_reference(psm: &mut Psm, policy: &MergePolicy) -> usize {
    let mut merges = 0;
    loop {
        let Some((keep, remove)) = find_adjacent_pair(psm, policy) else {
            return merges;
        };
        psm.merge_states(keep, remove, true);
        merges += 1;
    }
}

#[cfg(test)]
fn find_adjacent_pair(
    psm: &Psm,
    policy: &MergePolicy,
) -> Option<(crate::psm::StateId, crate::psm::StateId)> {
    for (id, state) in psm.states() {
        if state.multiplicity() != 1 {
            continue;
        }
        // Unique successor…
        let mut succ = psm.successors(id);
        let (Some(t), None) = (succ.next(), succ.next()) else {
            continue;
        };
        let next = t.to;
        if next == id {
            continue;
        }
        // …whose unique predecessor is this state…
        if psm.transitions().iter().filter(|t| t.to == next).count() != 1 {
            continue;
        }
        let next_state = psm.state(next);
        if next_state.multiplicity() != 1 {
            continue;
        }
        // …and power-indistinguishable from it.
        if policy.mergeable(state.attrs(), next_state.attrs()) {
            return Some((id, next));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_psm;
    use crate::psm::{ChainAssertion, PowerState, SourceWindow, StateId};
    use crate::PowerAttributes;
    use psm_mining::{PropositionId, PropositionTrace, TemporalAssertion, TemporalPattern};
    use psm_persist::{JsonValue, Persist};
    use psm_prng::Prng;
    use psm_trace::PowerTrace;

    fn build(levels: &[(u32, f64, usize)]) -> Psm {
        let mut props = Vec::new();
        let mut power = Vec::new();
        for &(id, mw, len) in levels {
            for k in 0..len {
                props.push(id);
                power.push(mw + 0.002 * (k % 3) as f64);
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        generate_psm(&gamma, &delta, 0).unwrap()
    }

    #[test]
    fn merges_adjacent_similar_states() {
        // Two 3 mW behaviours followed by a 9 mW one, then a 1mW tail so
        // the 9 mW state is recognised.
        let mut psm = build(&[(0, 3.0, 6), (1, 3.0, 6), (2, 9.0, 6), (3, 1.0, 2)]);
        assert_eq!(psm.state_count(), 3);
        let merges = simplify(&mut psm, &MergePolicy::default());
        assert_eq!(merges, 1);
        assert_eq!(psm.state_count(), 2);
        let merged = psm.state(StateId(0));
        assert_eq!(merged.chains().len(), 1);
        assert_eq!(merged.chains()[0].len(), 2);
        assert_eq!(merged.attrs().n(), 12);
        // Entry of the sequence is p0, exit is p2 (into the 9 mW state).
        assert_eq!(
            merged.chains()[0].entry_proposition(),
            PropositionId::from_index(0)
        );
        assert_eq!(
            merged.chains()[0].exit_proposition(),
            PropositionId::from_index(2)
        );
        // One transition remains: merged → 9 mW state, guarded by p2.
        assert_eq!(psm.transition_count(), 1);
        assert_eq!(psm.transitions()[0].guard, PropositionId::from_index(2));
    }

    #[test]
    fn distinct_levels_untouched() {
        let mut psm = build(&[(0, 1.0, 5), (1, 5.0, 5), (2, 9.0, 5), (3, 0.2, 2)]);
        let merges = simplify(&mut psm, &MergePolicy::default());
        assert_eq!(merges, 0);
        assert_eq!(psm.state_count(), 3);
    }

    #[test]
    fn cascading_merges_collapse_whole_plateau() {
        let mut psm = build(&[
            (0, 3.0, 4),
            (1, 3.0, 4),
            (2, 3.0, 4),
            (3, 3.0, 4),
            (4, 8.0, 2),
        ]);
        assert_eq!(psm.state_count(), 4);
        let merges = simplify(&mut psm, &MergePolicy::default());
        assert_eq!(merges, 3);
        assert_eq!(psm.state_count(), 1);
        assert_eq!(psm.state(StateId(0)).chains()[0].len(), 4);
    }

    #[test]
    fn preserves_power_semantics_of_attributes() {
        let mut psm = build(&[(0, 2.0, 5), (1, 2.0, 5), (2, 7.0, 3), (3, 0.5, 2)]);
        let total_before: f64 = psm
            .states()
            .map(|(_, s)| s.attrs().mu() * s.attrs().n() as f64)
            .sum();
        simplify(&mut psm, &MergePolicy::default());
        let total_after: f64 = psm
            .states()
            .map(|(_, s)| s.attrs().mu() * s.attrs().n() as f64)
            .sum();
        assert!((total_before - total_after).abs() < 1e-9);
    }

    /// A hand-built graph: state `i` holds three instants around
    /// `levels[i]` mW; `edges` are `(from, to, guard)`.
    fn graph(levels: &[f64], edges: &[(usize, usize, u32)], initials: &[usize]) -> Psm {
        let mut psm = Psm::new();
        for (i, &mw) in levels.iter().enumerate() {
            let delta: PowerTrace = [mw - 0.001, mw, mw + 0.001].into_iter().collect();
            let p = |k: usize| PropositionId::from_index(k as u32);
            psm.add_state(PowerState::new(
                ChainAssertion::single(TemporalAssertion::new(
                    TemporalPattern::Until,
                    p(i),
                    p(i + 1),
                )),
                SourceWindow {
                    trace: 0,
                    start: 3 * i,
                    stop: 3 * i + 2,
                },
                PowerAttributes::from_window(&delta, 0, 2),
            ));
        }
        for &(from, to, guard) in edges {
            psm.add_transition(StateId(from), StateId(to), PropositionId::from_index(guard));
        }
        for &s in initials {
            psm.add_initial(StateId(s));
        }
        psm
    }

    /// Runs both implementations and requires the same PSM and merge count.
    fn agrees_with_reference(psm: &Psm) -> usize {
        let policy = MergePolicy::default();
        let (mut fast, mut slow) = (psm.clone(), psm.clone());
        let merges = simplify(&mut fast, &policy);
        assert_eq!(merges, simplify_reference(&mut slow, &policy), "{psm:?}");
        assert_eq!(fast, slow, "{psm:?}");
        merges
    }

    #[test]
    fn random_graphs_match_the_reference() {
        let mut rng = Prng::seed_from_u64(0x0515_F01E);
        let mut merges = 0;
        for _ in 0..500 {
            let n = 2 + rng.range_usize(0..12);
            let levels: Vec<f64> = (0..n).map(|_| *rng.pick(&[3.0, 3.03, 3.06, 9.0])).collect();
            // Mostly a chain, plus self-loops, back edges and branches.
            let mut edges: Vec<(usize, usize, u32)> = (1..n)
                .filter(|_| rng.chance(0.8))
                .map(|i| (i - 1, i, i as u32))
                .collect();
            for _ in 0..rng.range_usize(0..4) {
                let (from, to) = (rng.range_usize(0..n), rng.range_usize(0..n));
                edges.push((from, to, rng.range_u32(0..4)));
            }
            let initials: Vec<usize> = (0..1 + rng.range_usize(0..3))
                .map(|_| rng.range_usize(0..n))
                .collect();
            merges += agrees_with_reference(&graph(&levels, &edges, &initials));
        }
        assert!(merges > 500, "{merges}");
    }

    #[test]
    fn two_cycle_retires_both_inner_transitions() {
        let psm = graph(
            &[3.0, 3.0, 3.0, 9.0],
            &[(0, 1, 1), (1, 0, 0), (1, 2, 2), (2, 3, 3)],
            &[0],
        );
        assert_eq!(agrees_with_reference(&psm), 2);
    }

    #[test]
    fn self_loops_never_qualify() {
        let psm = graph(
            &[3.0, 3.0, 3.0, 3.0],
            &[(0, 1, 1), (1, 2, 2), (2, 2, 2), (3, 3, 3)],
            &[0, 3],
        );
        assert_eq!(agrees_with_reference(&psm), 1);
    }

    #[test]
    fn branching_successor_stops_the_sequence() {
        let psm = graph(
            &[3.0, 3.0, 3.0, 3.0],
            &[(0, 1, 1), (1, 2, 2), (1, 3, 3)],
            &[0],
        );
        assert_eq!(agrees_with_reference(&psm), 1);
    }

    #[test]
    fn a_chain_joined_twice_does_not_qualify() {
        // One power level along s0 → s1 → s2, but s0's single chain has
        // count 2: it is not a chain state, so only s1 and s2 merge.
        let mut psm = graph(&[3.0, 3.0, 3.0], &[(0, 1, 1), (1, 2, 2)], &[0]);
        let copy = psm.state(StateId(0)).clone();
        psm.state_mut(StateId(0)).absorb(copy, false);
        assert_eq!(psm.state(StateId(0)).counts(), &[2]);
        assert_eq!(agrees_with_reference(&psm), 1);
        simplify(&mut psm, &MergePolicy::default());
        assert_eq!(psm.state_count(), 2);
        assert_eq!(psm.state(StateId(0)).counts(), &[2]);
        assert_eq!(psm.state(StateId(1)).chains()[0].len(), 2);
    }

    #[test]
    fn successor_with_two_predecessors_is_skipped() {
        let psm = graph(
            &[3.0, 3.0, 3.0, 3.0],
            &[(0, 2, 2), (1, 2, 2), (2, 3, 3)],
            &[0, 1],
        );
        assert_eq!(agrees_with_reference(&psm), 1);
    }

    #[test]
    fn predecessor_indexed_above_the_state() {
        let psm = graph(
            &[3.0, 3.0, 3.0, 3.0],
            &[(3, 0, 0), (0, 1, 1), (1, 2, 2)],
            &[3],
        );
        assert_eq!(agrees_with_reference(&psm), 3);
    }

    #[test]
    fn merge_can_requalify_a_lower_predecessor() {
        // 3.00 vs 3.06 is too far apart, 3.06 vs 3.02 is close; once those
        // two merge, their 3.04 mW mean is close to 3.00, so the scan must
        // go back to state 0.
        let psm = graph(
            &[3.0, 3.06, 3.02, 9.0],
            &[(0, 1, 1), (1, 2, 2), (2, 3, 3)],
            &[0],
        );
        assert_eq!(agrees_with_reference(&psm), 2);
    }

    #[test]
    fn several_initials_fold_their_counts() {
        let psm = graph(
            &[3.0, 3.0, 9.0, 3.0, 3.0, 9.0],
            &[(0, 1, 1), (1, 2, 2), (3, 4, 4), (4, 5, 5)],
            &[0, 1, 3, 4],
        );
        assert_eq!(agrees_with_reference(&psm), 2);
    }

    /// `psm` as a loaded document that repeats its first transition.
    fn with_first_transition_doubled(psm: &Psm) -> Psm {
        let first = psm.transitions()[0].to_json().render();
        let text = psm.to_json().render().replacen(
            "\"transitions\":[",
            &format!("\"transitions\":[{first},"),
            1,
        );
        Psm::from_json(&JsonValue::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn duplicate_transitions_count_until_the_first_merge() {
        // State 0 has two successors until the first merge deduplicates
        // the list; then it qualifies.
        let edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3)];
        let psm = with_first_transition_doubled(&graph(&[3.0, 3.0, 3.0, 9.0], &edges, &[0]));
        assert_eq!(psm.transition_count(), 4);
        assert_eq!(agrees_with_reference(&psm), 2);
        // Without a merge the duplicate stays.
        let mut psm = with_first_transition_doubled(&graph(&[1.0, 5.0, 9.0, 13.0], &edges, &[0]));
        assert_eq!(simplify(&mut psm, &MergePolicy::default()), 0);
        assert_eq!(psm.transition_count(), 4);
    }
}
