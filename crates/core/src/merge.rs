//! Mergeability of power states (paper §IV-A) and the `join` procedure.

use crate::probe::{CriticalTable, Probe, PREFILTER_T};
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
/// # How a t-test is decided
///
/// After the ε-override, cases 2 and 3 are decided in three steps:
///
/// 1. A pair whose means lie more than six summed standard errors apart
///    (case 2) or six prediction-interval widths apart (case 3), so that
///    `|t| > 6`, is rejected untested — but only when the test's degrees
///    of freedom are at least df₆(α), the smallest df whose critical value
///    (widened by the guard band below) is at most 6, so that `|t| > 6`
///    is a certain reject. The df bound is `min(nₐ, n_b) − 1` for Welch
///    and `n − 1` for case 3. For α = 0.3, df₆ = 1 and the prefilter
///    always applies; for the default α = 0.01, df₆ = 3. In `join` over
///    long traces almost every pair ends here.
/// 2. Otherwise `|t|` is compared with the two-sided critical values of α
///    tabulated at the ladder points bracketing the test's degrees of
///    freedom. The critical value falls as df grows, so `|t|` above the
///    larger one is a certain reject and below the smaller one a certain
///    accept; both bounds are widened by a relative guard band of 1e-7
///    that covers the p-value's rounding noise.
/// 3. Inside the band, for df above 2²⁰, and for degenerate input (zero
///    variance, non-finite values) the full test runs.
///
/// Steps 2 and 3 together give exactly the verdict `p >= α` of
/// [`welch_t_test`] or [`one_sample_t_test`], mostly without computing p.
///
/// The table is shared by every policy with the same α, filled on first
/// use and kept for the life of the process.
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
#[derive(Debug, Clone, Copy)]
pub struct MergePolicy {
    epsilon: f64,
    alpha: f64,
    mean_tolerance_override: bool,
    critical: &'static CriticalTable,
}

impl PartialEq for MergePolicy {
    /// The critical-value table follows from α, so it takes no part.
    fn eq(&self, other: &Self) -> bool {
        self.epsilon == other.epsilon
            && self.alpha == other.alpha
            && self.mean_tolerance_override == other.mean_tolerance_override
    }
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
            critical: CriticalTable::for_alpha(alpha),
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
        self.decide(&Probe::new(a), &Probe::new(b))
    }

    /// [`mergeable`](Self::mergeable) on precomputed probes: the one
    /// decision path, which `join` calls with probes it caches per state.
    pub(crate) fn decide(&self, a: &Probe, b: &Probe) -> bool {
        if a.n() == 0 || b.n() == 0 {
            return false;
        }
        let delta = (a.mu() - b.mu()).abs();
        let mean_close = delta < self.epsilon;
        match (a.n() == 1, b.n() == 1) {
            // Case 1: two next-pattern states.
            (true, true) => mean_close,
            _ if self.mean_tolerance_override && mean_close => true,
            // Case 3: until vs next.
            (false, true) => self.case3(a, b, delta),
            (true, false) => self.case3(b, a, delta),
            // Case 2: two until-pattern states.
            (false, false) => self.case2(a, b, delta),
        }
    }

    /// Welch's test, with the statistic and Welch–Satterthwaite df
    /// computed as [`welch_t_test`] computes them.
    fn case2(&self, a: &Probe, b: &Probe, delta: f64) -> bool {
        // The prefilter: means more than six summed standard errors apart
        // (so |t| > 6) are rejected untested, once the Welch df, which is
        // at least min(nₐ, n_b) − 1, is known to put t_crit below 6. Most
        // `join` probes end here.
        let spread = a.standard_error + b.standard_error;
        if a.n().min(b.n()) >= self.critical.prefilter_min_n
            && delta > PREFILTER_T * spread
            && spread.is_finite()
        {
            return false;
        }
        let (na, nb) = (a.n() as f64, b.n() as f64);
        let (wa, wb) = (a.variance / na, b.variance / nb);
        let se2 = wa + wb;
        if se2 > 0.0 {
            let t = (a.mu() - b.mu()) / se2.sqrt();
            let df = se2 * se2 / (wa.powi(2) / (na - 1.0) + wb.powi(2) / (nb - 1.0));
            if let Some(same) = self.critical.decide(t, df) {
                return same;
            }
        }
        welch_t_test(&a.stats, &b.stats).is_ok_and(|t| t.is_same_population(self.alpha))
    }

    /// The one-sample prediction-interval test, with the statistic
    /// computed as [`one_sample_t_test`] computes it.
    fn case3(&self, sample: &Probe, single: &Probe, delta: f64) -> bool {
        if sample.variance > 0.0 {
            // The same prefilter on the prediction interval, at df n − 1.
            if sample.n() >= self.critical.prefilter_min_n && delta > sample.prediction_radius {
                return false;
            }
            let t = (single.mu() - sample.mu()) / sample.prediction_scale;
            let df = sample.n() as f64 - 1.0;
            if let Some(same) = self.critical.decide(t, df) {
                return same;
            }
        }
        one_sample_t_test(&sample.stats, single.mu())
            .is_ok_and(|t| t.is_same_population(self.alpha))
    }

    /// The plain §IV-A tests, one p-value per pair and no prefilter: the
    /// differential oracle of [`Self::decide`].
    #[cfg(test)]
    pub(crate) fn mergeable_reference(&self, a: &PowerAttributes, b: &PowerAttributes) -> bool {
        if a.n() == 0 || b.n() == 0 {
            return false;
        }
        let mean_close = (a.mu() - b.mu()).abs() < self.epsilon;
        let test = match (a.n() == 1, b.n() == 1) {
            // Case 1: two next-pattern states.
            (true, true) => return mean_close,
            _ if self.mean_tolerance_override && mean_close => return true,
            // Case 3: until vs next.
            (false, true) => one_sample_t_test(a.stats(), b.mu()),
            (true, false) => one_sample_t_test(b.stats(), a.mu()),
            // Case 2: two until-pattern states.
            (false, false) => welch_t_test(a.stats(), b.stats()),
        };
        test.is_ok_and(|t| t.is_same_population(self.alpha))
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
    // The live states in index order, each as its original index beside
    // its probe: row and column positions of the sweep.
    let mut live: Vec<(usize, Probe)> = (0..fold.state_count())
        .map(|i| (i, Probe::new(fold.state(i).attrs())))
        .collect();
    loop {
        let mut merged_any = false;
        let mut i = 0;
        while i < live.len() {
            // `i`'s attributes change with every fold, so after one the
            // row rescans from `i + 1`: earlier partners may now match.
            while let Some(k) = live[i + 1..]
                .iter()
                .position(|(_, probe)| policy.decide(&live[i].1, probe))
            {
                let (removed, _) = live.remove(i + 1 + k);
                let keep = live[i].0;
                fold.merge(keep, removed, false);
                live[i].1 = Probe::new(fold.state(keep).attrs());
                merged_any = true;
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
    use crate::probe::{bracket, GUARD, LADDER_END};
    use crate::simplify::{simplify, simplify_reference};
    use psm_mining::PropositionTrace;
    use psm_prng::Prng;
    use psm_stats::StudentsT;
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

    #[test]
    fn small_samples_are_tested_not_prefiltered() {
        // Six summed standard errors apart (|t| = 9.19), yet Welch's test
        // at df 2 gives p = 0.0116 ≥ α = 0.01: t_crit(2) is 9.92, so the
        // 6σ prefilter must not decide this pair.
        let (a, b) = (attrs(&[0.0, 1.0]), attrs(&[6.5, 7.5]));
        let welch = welch_t_test(a.stats(), b.stats()).unwrap();
        assert!(welch.is_same_population(0.01), "{welch:?}");
        assert!(MergePolicy::default().mergeable(&a, &b));
        assert!(MergePolicy::default().mergeable_reference(&a, &b));
        // At α = 0.3 the pair is rejected either way (t_crit(2) = 1.39).
        assert!(!MergePolicy::new(0.05, 0.3).mergeable(&a, &b));
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

    /// Attributes with freely chosen accumulator fields, built through
    /// the persisted form: n, μ and the sum of squared deviations.
    fn raw_attrs(count: u64, mean: f64, m2: f64) -> PowerAttributes {
        use psm_persist::{JsonValue, Persist};
        let stats = JsonValue::obj([
            ("count", JsonValue::from(count)),
            ("mean", JsonValue::from_f64(mean)),
            ("m2", JsonValue::from_f64(m2)),
            ("min", JsonValue::from_f64(mean)),
            ("max", JsonValue::from_f64(mean)),
        ]);
        PowerAttributes::from_json(&stats).expect("well-formed accumulator")
    }

    const ALPHAS: [f64; 5] = [0.001, 0.01, 0.05, 0.3, 0.9];

    /// A state size: the degenerate sizes, sizes past the critical-value
    /// table, and log-uniform sizes across it.
    fn draw_n(rng: &mut Prng) -> u64 {
        match rng.range_usize(0..10) {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 3,
            4 => 1_000_000 + rng.range_u64(0..4_000_000),
            _ => 2f64.powf(rng.f64_in(1.0, 22.0)) as u64,
        }
    }

    /// One side of a pair: n, μ at one of several magnitudes and signs,
    /// and a spread that is zero, relative to μ, or infinite.
    fn draw_side(rng: &mut Prng) -> (u64, f64, f64) {
        let n = draw_n(rng);
        let scale = *rng.pick(&[3.0, -5.0, 1e12, 1e-12, -1e9, 1e300]);
        let mu = scale * rng.f64_in(0.5, 1.5);
        let m2 = match rng.range_usize(0..8) {
            _ if n < 2 => 0.0,
            0 => 0.0,
            1 if scale.abs() < 1e100 => f64::INFINITY,
            _ => {
                let sd = scale.abs() * 10f64.powf(rng.f64_in(-9.0, 0.0));
                sd * sd * (n - 1) as f64
            }
        };
        (n, mu, m2)
    }

    /// The t statistic's denominator and df for a pair whose second side
    /// is still to be placed, or `None` outside the t-test cases.
    fn test_shape(first: &Probe, n_second: u64, m2_second: f64) -> Option<(f64, f64)> {
        let second = Probe::new(&raw_attrs(n_second, 0.0, m2_second));
        match (first.n(), second.n()) {
            (0 | 1, _) | (_, 0) => None,
            (n, 1) => Some((first.prediction_scale, n as f64 - 1.0)),
            (na, nb) => {
                let (na, nb) = (na as f64, nb as f64);
                let (wa, wb) = (first.variance / na, second.variance / nb);
                let se2 = wa + wb;
                let df = se2 * se2 / (wa.powi(2) / (na - 1.0) + wb.powi(2) / (nb - 1.0));
                Some((se2.sqrt(), df))
            }
        }
    }

    /// Draws a pair and checks the probe decision against the reference
    /// under `policy`. Returns the shared verdict.
    fn check_random_pair(rng: &mut Prng, policy: &MergePolicy) -> bool {
        let (na, mu_a, m2_a) = draw_side(rng);
        let (nb, _, m2_b) = draw_side(rng);
        let a = raw_attrs(na, mu_a, m2_a);
        let shape = test_shape(&Probe::new(&a), nb, m2_b)
            .filter(|&(scale, df)| scale > 0.0 && scale.is_finite() && df >= 1.0 && df.is_finite());
        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
        let mu_b = match (rng.range_usize(0..4), shape) {
            // |t| a hair either side of the exact critical value.
            (0, Some((scale, df))) => {
                let crit = StudentsT::new(df)
                    .unwrap()
                    .critical_value(policy.alpha())
                    .unwrap();
                let nudge = if rng.chance(0.5) {
                    1.0 + 1e-9
                } else {
                    1.0 - 1e-9
                };
                mu_a + sign * crit * nudge * scale
            }
            // |t| just outside the guard band of the bracketing entries,
            // where the table decides alone.
            (1, Some((scale, df))) if df < LADDER_END => {
                let (lo, hi) = bracket(df).unwrap();
                let margin = GUARD * rng.f64_in(1.000_001, 1.5);
                let t = if rng.chance(0.5) {
                    policy.critical.critical_value(lo) * (1.0 + margin)
                } else {
                    policy.critical.critical_value(hi) * (1.0 - margin)
                };
                mu_a + sign * t * scale
            }
            // Means a hair either side of ε.
            (2, _) => mu_a + sign * policy.epsilon() * rng.f64_in(1.0 - 1e-12, 1.0 + 1e-12),
            // Anywhere from identical to far apart.
            (_, Some((scale, _))) => mu_a + sign * rng.f64_in(0.0, 12.0) * scale,
            (_, None) => mu_a + sign * mu_a.abs() * 10f64.powf(rng.f64_in(-12.0, 0.0)),
        };
        let b = raw_attrs(nb, mu_b, m2_b);
        let (a, b) = if rng.chance(0.5) { (a, b) } else { (b, a) };
        let expected = policy.mergeable_reference(&a, &b);
        assert_eq!(
            policy.mergeable(&a, &b),
            expected,
            "{policy:?}\n a = {:?}\n b = {:?}",
            a.stats(),
            b.stats()
        );
        expected
    }

    fn check_random_pairs(pairs: usize, seed: u64) {
        let policies: Vec<MergePolicy> = ALPHAS
            .iter()
            .flat_map(|&alpha| [0.0, 0.05].map(|eps| MergePolicy::new(eps, alpha)))
            .flat_map(|p| [true, false].map(|on| p.with_mean_tolerance_override(on)))
            .collect();
        let mut rng = Prng::seed_from_u64(seed);
        let merged = (0..pairs)
            .filter(|k| check_random_pair(&mut rng, &policies[k % policies.len()]))
            .count();
        // Both verdicts must be well represented for the check to bite.
        assert!(merged > pairs / 10 && merged < pairs * 9 / 10, "{merged}");
    }

    #[test]
    fn probe_decision_matches_the_reference() {
        check_random_pairs(200_000, 0x1A7E_57E5);
    }

    #[test]
    #[ignore = "ten million pairs; run in release with --ignored"]
    fn probe_decision_matches_the_reference_at_scale() {
        check_random_pairs(10_000_000, 0x0DEC_1DE5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn policy_rejects_bad_alpha() {
        let _ = MergePolicy::new(0.1, 0.0);
    }
}
