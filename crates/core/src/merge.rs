//! Mergeability of power states (paper §IV-A) and the `join` procedure.

use crate::psm::{Fold, Psm};
use crate::PowerAttributes;
use psm_stats::{one_sample_t_test, welch_t_test};

/// Decides whether two power states are statistically indistinguishable —
/// the paper's three-case analysis:
///
/// * **Case 1** (both `n = 1`, two `next` states): merge when
///   `|μᵢ − μⱼ| < ε`;
/// * **Case 2** (both `n > 1`, two `until` states): merge when **Welch's
///   t-test** fails to reject equal means at level α;
/// * **Case 3** (`n > 1` vs `n = 1`): merge when a one-sample t-test finds
///   the singleton consistent with the larger sample.
///
/// `mean_tolerance_override` is a practical extension: with very long
/// training traces the t-tests detect arbitrarily small mean differences,
/// so means within ε are additionally accepted regardless of the test.
/// Disable it to evaluate the paper's pure-test behaviour (see the
/// `ablation_epsilon` bench).
///
/// # Examples
///
/// ```
/// use psm_core::{MergePolicy, PowerAttributes};
/// use psm_trace::PowerTrace;
///
/// let delta: PowerTrace = [3.0, 3.02, 2.98, 3.01, 5.0, 5.01, 4.99, 5.02]
///     .into_iter()
///     .collect();
/// let low = PowerAttributes::from_window(&delta, 0, 3);
/// let high = PowerAttributes::from_window(&delta, 4, 7);
/// let policy = MergePolicy::default();
/// assert!(policy.mergeable(&low, &low));
/// assert!(!policy.mergeable(&low, &high));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergePolicy {
    epsilon: f64,
    alpha: f64,
    mean_tolerance_override: bool,
}

impl MergePolicy {
    /// Creates a policy with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon >= 0` and `0 < alpha < 1`.
    pub fn new(epsilon: f64, alpha: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon cannot be negative");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
        MergePolicy {
            epsilon,
            alpha,
            mean_tolerance_override: true,
        }
    }

    /// The designer's ε tolerance for case 1, in mW.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Significance level of the t-tests.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether means within ε merge regardless of the t-test outcome.
    pub fn mean_tolerance_override(&self) -> bool {
        self.mean_tolerance_override
    }

    /// Returns a copy with the ε-override enabled or disabled.
    pub fn with_mean_tolerance_override(mut self, enabled: bool) -> Self {
        self.mean_tolerance_override = enabled;
        self
    }

    /// Applies the appropriate §IV-A case to two attribute triplets.
    pub fn mergeable(&self, a: &PowerAttributes, b: &PowerAttributes) -> bool {
        if a.n() == 0 || b.n() == 0 {
            return false;
        }
        let delta = (a.mu() - b.mu()).abs();
        let mean_close = delta < self.epsilon;
        match (a.n() == 1, b.n() == 1) {
            // Case 1: two next-pattern states.
            (true, true) => mean_close,
            // Case 3: until vs next.
            (false, true) => self.case3(a, b, mean_close, delta),
            (true, false) => self.case3(b, a, mean_close, delta),
            // Case 2: two until-pattern states.
            (false, false) => {
                if self.mean_tolerance_override && mean_close {
                    return true;
                }
                // Fast conservative reject: a t statistic beyond ~6 gives
                // p < 1e-8 ≪ any practical α, so the full test (log-gamma,
                // continued fractions) is skipped. `join` over long traces
                // probes millions of pairs; almost all die here.
                let spread = Self::standard_error(a) + Self::standard_error(b);
                if delta > 6.0 * spread && spread.is_finite() {
                    return false;
                }
                match welch_t_test(a.stats(), b.stats()) {
                    Ok(t) => t.is_same_population(self.alpha),
                    Err(_) => false,
                }
            }
        }
    }

    fn standard_error(x: &PowerAttributes) -> f64 {
        x.stats().standard_error().unwrap_or(f64::INFINITY)
    }

    fn case3(
        &self,
        sample: &PowerAttributes,
        single: &PowerAttributes,
        mean_close: bool,
        delta: f64,
    ) -> bool {
        if self.mean_tolerance_override && mean_close {
            return true;
        }
        // Fast reject mirroring the one-sample prediction interval.
        if let Ok(s) = sample.stats().sample_std_dev() {
            if s > 0.0 && delta > 6.0 * s * (1.0 + 1.0 / sample.n() as f64).sqrt() {
                return false;
            }
        }
        match one_sample_t_test(sample.stats(), single.mu()) {
            Ok(t) => t.is_same_population(self.alpha),
            Err(_) => false,
        }
    }
}

impl Default for MergePolicy {
    /// ε = 0.05 mW, α = 0.01, ε-override enabled.
    fn default() -> Self {
        MergePolicy::new(0.05, 0.01)
    }
}

/// Combines a set of per-trace PSMs into one reduced model — the paper's
/// `join`: mergeable states (not necessarily adjacent, possibly from
/// different PSMs) collapse into concurrent states `{pᵢ ‖ pⱼ ‖ …}`,
/// with transitions and initial marks redirected.
///
/// The result may be non-deterministic
/// ([`Psm::is_deterministic`]); such models are simulated through the
/// HMM of `psm-hmm`.
///
/// Merging is greedy and deterministic. The states of all PSMs, in input
/// order, are swept row by row: row `i` probes every later state `j` in
/// index order and folds each mergeable one into `i`; after a fold, `i`'s
/// attributes have changed, so the row restarts at `i + 1`. Sweeps repeat
/// until one performs no merge: a merge in a later row changes a state
/// that an earlier row already probed, which can make that pair mergeable.
pub fn join(psms: &[Psm], policy: &MergePolicy) -> Psm {
    let mut combined = Psm::new();
    for p in psms {
        combined.absorb_psm(p);
    }
    let mut fold = Fold::new(combined);
    // Original indices of the live states, in index order: row and column
    // positions of the sweep.
    let mut live: Vec<usize> = (0..fold.state_count()).collect();
    loop {
        let mut merged_any = false;
        let mut i = 0;
        while i < live.len() {
            let mut j = i + 1;
            while j < live.len() {
                if policy.mergeable(fold.state(live[i]).attrs(), fold.state(live[j]).attrs()) {
                    fold.merge(live[i], live.remove(j), false);
                    merged_any = true;
                    // `i`'s attributes changed: partners before `j` may now
                    // match, so rescan from the start of the row.
                    j = i + 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
        if !merged_any {
            return fold.compact();
        }
    }
}

/// [`join`] with the per-merge rebuild of [`Psm::merge_states`]: the
/// differential oracle of the in-place fold.
#[cfg(test)]
pub(crate) fn join_reference(psms: &[Psm], policy: &MergePolicy) -> Psm {
    let mut combined = Psm::new();
    for p in psms {
        combined.absorb_psm(p);
    }
    loop {
        let mut merged_any = false;
        let mut i = 0usize;
        while i < combined.state_count() {
            let a = crate::psm::StateId::from_index(i);
            let mut j = i + 1;
            while j < combined.state_count() {
                let b = crate::psm::StateId::from_index(j);
                if policy.mergeable(combined.state(a).attrs(), combined.state(b).attrs()) {
                    combined.merge_states(a, b, false);
                    merged_any = true;
                    j = i + 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
        if !merged_any {
            return combined;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_psm;
    use crate::simplify::{simplify, simplify_reference};
    use psm_mining::PropositionTrace;
    use psm_prng::Prng;
    use psm_trace::PowerTrace;

    fn attrs(values: &[f64]) -> PowerAttributes {
        let delta: PowerTrace = values.iter().copied().collect();
        PowerAttributes::from_window(&delta, 0, values.len() - 1)
    }

    #[test]
    fn case1_epsilon() {
        let p = MergePolicy::new(0.1, 0.05);
        assert!(p.mergeable(&attrs(&[3.00]), &attrs(&[3.05])));
        assert!(!p.mergeable(&attrs(&[3.00]), &attrs(&[3.20])));
    }

    #[test]
    fn case2_welch() {
        let p = MergePolicy::new(1e-9, 0.05); // ε ~ 0 so only the test decides
        let a = attrs(&[3.0, 3.1, 2.9, 3.05, 2.95]);
        let b = attrs(&[3.02, 2.97, 3.08, 2.93, 3.0]);
        assert!(p.mergeable(&a, &b));
        let far = attrs(&[9.0, 9.1, 8.9, 9.05, 8.95]);
        assert!(!p.mergeable(&a, &far));
    }

    #[test]
    fn case3_one_sample() {
        let p = MergePolicy::new(1e-9, 0.05);
        let until = attrs(&[3.0, 3.1, 2.9, 3.05, 2.95, 3.02]);
        let next_in = attrs(&[3.01]);
        let next_out = attrs(&[8.0]);
        assert!(p.mergeable(&until, &next_in));
        assert!(p.mergeable(&next_in, &until), "case 3 is symmetric");
        assert!(!p.mergeable(&until, &next_out));
    }

    #[test]
    fn epsilon_override_bridges_strict_tests() {
        // Two long, tight samples 0.02 mW apart: Welch rejects, ε accepts.
        let a: Vec<f64> = (0..200).map(|i| 3.00 + 0.001 * (i % 3) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| 3.02 + 0.001 * (i % 3) as f64).collect();
        let with = MergePolicy::new(0.05, 0.01);
        let without = with.with_mean_tolerance_override(false);
        assert!(with.mergeable(&attrs(&a), &attrs(&b)));
        assert!(!without.mergeable(&attrs(&a), &attrs(&b)));
    }

    fn psm_from(levels: &[(u32, f64, usize)], trace_index: usize) -> Psm {
        // Builds Γ/Δ with runs of `len` instants at `power` for prop `id`.
        let mut props = Vec::new();
        let mut power = Vec::new();
        for &(id, mw, len) in levels {
            for k in 0..len {
                props.push(id);
                // deterministic jitter so variances are non-zero
                power.push(mw + 0.001 * (k % 3) as f64);
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        generate_psm(&gamma, &delta, trace_index).unwrap()
    }

    #[test]
    fn join_merges_equivalent_states_across_psms() {
        // Two traces of the same IP: idle(3) → busy(9) → idle(3) → low(1);
        // a short distinct tail so the low state is recognised by XU.
        let a = psm_from(
            &[
                (0, 3.0, 10),
                (1, 9.0, 10),
                (0, 3.0, 10),
                (2, 1.0, 5),
                (3, 5.0, 2),
            ],
            0,
        );
        let b = psm_from(
            &[
                (0, 3.0, 8),
                (1, 9.0, 12),
                (0, 3.0, 9),
                (2, 1.0, 5),
                (3, 5.0, 2),
            ],
            1,
        );
        assert_eq!(a.state_count(), 4);
        let joined = join(&[a, b], &MergePolicy::default());
        // 6 chain states collapse into 3 power levels.
        assert_eq!(joined.state_count(), 3);
        // Both traces start in the same (merged) initial state.
        assert_eq!(joined.initials().len(), 1);
        assert_eq!(joined.initials()[0].1, 2);
        // The merged idle state carries windows from both traces.
        let idle = joined
            .states()
            .find(|(_, s)| (s.attrs().mu() - 3.0).abs() < 0.1)
            .expect("an idle state must survive")
            .1;
        let mut traces: Vec<usize> = idle.windows().iter().map(|w| w.trace).collect();
        traces.sort_unstable();
        traces.dedup();
        assert_eq!(traces, vec![0, 1]);
    }

    #[test]
    fn join_preserves_distinct_levels() {
        let a = psm_from(&[(0, 1.0, 10), (1, 5.0, 10), (2, 9.0, 10), (3, 13.0, 4)], 0);
        let joined = join(&[a], &MergePolicy::default());
        assert_eq!(joined.state_count(), 3); // trailing run dropped by XU
    }

    #[test]
    fn join_creates_self_loops_for_repeating_behaviour() {
        // idle → busy → idle merges the two idle states; the transition
        // busy→idle2 becomes busy→idle, and idle→busy stays: a loop.
        let a = psm_from(&[(0, 3.0, 10), (1, 9.0, 10), (0, 3.0, 10), (2, 1.0, 4)], 0);
        let joined = join(&[a], &MergePolicy::default());
        assert_eq!(joined.state_count(), 2);
        let idle = joined
            .states()
            .find(|(_, s)| (s.attrs().mu() - 3.0).abs() < 0.1)
            .unwrap()
            .0;
        let busy = joined
            .states()
            .find(|(_, s)| (s.attrs().mu() - 9.0).abs() < 0.1)
            .unwrap()
            .0;
        assert!(joined
            .transitions()
            .iter()
            .any(|t| t.from == idle && t.to == busy));
        assert!(joined
            .transitions()
            .iter()
            .any(|t| t.from == busy && t.to == idle));
    }

    /// A chain PSM over random phases: a small alphabet so that
    /// propositions recur, and a few repeated power levels so that
    /// `simplify` and `join` both find work.
    fn random_chain(rng: &mut Prng, trace: usize) -> Option<Psm> {
        const LEVELS: [f64; 4] = [1.0, 3.0, 3.03, 6.0];
        let mut props = Vec::new();
        let mut power = Vec::new();
        for _ in 0..2 + rng.range_usize(0..24) {
            let id = rng.range_u32(0..6);
            let mw = *rng.pick(&LEVELS);
            for _ in 0..1 + rng.range_usize(0..8) {
                props.push(id);
                power.push(mw + 0.01 * rng.next_f64());
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        generate_psm(&gamma, &delta, trace).ok()
    }

    #[test]
    fn in_place_reduction_matches_the_per_merge_reference() {
        let policies = [
            MergePolicy::default(),
            MergePolicy::new(0.0, 0.01),
            MergePolicy::default().with_mean_tolerance_override(false),
        ];
        let mut rng = Prng::seed_from_u64(0x0515_F01D);
        let (mut simplified, mut joined) = (0, 0);
        for case in 0..600 {
            let policy = &policies[case % policies.len()];
            let mut chains: Vec<Psm> = (0..1 + rng.range_usize(0..6))
                .filter_map(|i| random_chain(&mut rng, i))
                .collect();
            for chain in &mut chains {
                let mut slow = chain.clone();
                let merges = simplify(chain, policy);
                assert_eq!(merges, simplify_reference(&mut slow, policy), "case {case}");
                assert_eq!(*chain, slow, "case {case}");
                simplified += merges;
            }
            let combined = join(&chains, policy);
            assert_eq!(combined, join_reference(&chains, policy), "case {case}");
            joined += chains.iter().map(Psm::state_count).sum::<usize>() - combined.state_count();
        }
        // The oracle is only as strong as the merges it sees.
        assert!(
            simplified > 5_000 && joined > 10_000,
            "{simplified} {joined}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn policy_rejects_bad_alpha() {
        let _ = MergePolicy::new(0.1, 0.0);
    }
}
