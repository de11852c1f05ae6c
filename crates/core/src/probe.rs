//! The inputs of one side of a mergeability test, computed once per state,
//! and the table of Student-t critical values that decides most t-tests
//! without evaluating a p-value.
//!
//! [`MergePolicy`](crate::MergePolicy) decides the §IV-A t-tests by
//! comparing `|t|` with `t_crit(df, α)`, the two-sided critical value at
//! which the p-value equals α: `p >= α` exactly when `|t| <= t_crit`. The
//! table holds `t_crit` at a ladder of df points. For the true Student-t
//! distribution `t_crit` falls as df grows, whatever α, so a df between
//! two ladder points `d_lo <= df <= d_hi` has
//! `t_crit(d_hi) <= t_crit(df) <= t_crit(d_lo)`. A statistic above the
//! upper value is therefore a certain reject and one below the lower value
//! a certain accept. The bounds are widened by a relative [`GUARD`] band,
//! which covers the rounding noise of the computed p-value; between them,
//! the full test decides.

use crate::PowerAttributes;
use psm_stats::{OnlineStats, StudentsT};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Per-state inputs of the mergeability tests: the attributes themselves
/// (which the full tests read) and the square roots every probe would
/// otherwise recompute. Each derived value is computed with the same
/// floating-point operations as [`psm_stats::welch_t_test`],
/// [`psm_stats::one_sample_t_test`] and the prefilters use, so a decision
/// from the probe sees the very numbers the full tests see.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// ⟨μ, n⟩ and the accumulator the full tests take.
    pub(crate) stats: OnlineStats,
    /// Sample variance s²; NaN when `n < 2`.
    pub(crate) variance: f64,
    /// Standard error s/√n; `+inf` when `n < 2`.
    pub(crate) standard_error: f64,
    /// s·√(1 + 1/n), the denominator of the one-sample (case 3) statistic.
    pub(crate) prediction_scale: f64,
    /// [`PREFILTER_T`]·s·√(1 + 1/n), the case-3 prefilter radius.
    pub(crate) prediction_radius: f64,
}

impl Probe {
    pub(crate) fn new(attrs: &PowerAttributes) -> Self {
        let stats = *attrs.stats();
        let variance = stats.sample_variance().unwrap_or(f64::NAN);
        let s = variance.sqrt();
        let widen = (1.0 + 1.0 / stats.count() as f64).sqrt();
        Probe {
            stats,
            variance,
            standard_error: stats.standard_error().unwrap_or(f64::INFINITY),
            prediction_scale: s * widen,
            prediction_radius: PREFILTER_T * s * widen,
        }
    }

    pub(crate) fn n(&self) -> u64 {
        self.stats.count()
    }

    pub(crate) fn mu(&self) -> f64 {
        self.stats.mean()
    }
}

/// The |t| past which the prefilters reject a pair untested, when the
/// samples are large enough for that to be a certain reject
/// ([`CriticalTable::prefilter_min_n`]).
pub(crate) const PREFILTER_T: f64 = 6.0;

/// Relative guard band around the tabulated critical values. The computed
/// p-value's rounding noise moves its α-crossing by at most about 4e-9 of
/// `t_crit` below [`LADDER_END`]; inside the band the full test decides.
pub(crate) const GUARD: f64 = 1e-7;

/// Ladder points per octave of df, as mantissa bits: the points are the
/// floats `2^e · (1 + j/16)`, which are every integer up to 32 and then a
/// geometric ladder with ratio at most 17/16.
const STEP_BITS: u32 = 4;

/// Octaves of df covered, from 1 up to `LADDER_END`. Above it the computed
/// p-value's noise grows towards the guard band, so larger df always run
/// the full test.
const OCTAVES: usize = 20;

/// The first df the table does not cover, 2²⁰.
pub(crate) const LADDER_END: f64 = (1u64 << OCTAVES) as f64;

const POINTS: usize = (OCTAVES << STEP_BITS) + 1;

/// df at ladder index `k`.
pub(crate) fn ladder_point(k: usize) -> f64 {
    let steps = 1usize << STEP_BITS;
    ((steps + k % steps) as f64 / steps as f64) * (1u64 << (k >> STEP_BITS)) as f64
}

/// The ladder indices of the points bracketing `df` (equal when `df` is a
/// point), or `None` when `df` is outside `[1, LADDER_END)` or not a
/// number.
pub(crate) fn bracket(df: f64) -> Option<(usize, usize)> {
    if !(1.0..LADDER_END).contains(&df) {
        return None;
    }
    const FRACTION_BITS: u32 = 52;
    let bits = df.to_bits();
    let octave = ((bits >> FRACTION_BITS) - 1023) as usize;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let below = fraction & ((1 << (FRACTION_BITS - STEP_BITS)) - 1);
    let lo = (octave << STEP_BITS) | (fraction >> (FRACTION_BITS - STEP_BITS)) as usize;
    Some((lo, lo + usize::from(below != 0)))
}

/// Two-sided critical values of one significance level α at every ladder
/// point, filled on first use.
///
/// There is one table per distinct α in the process, shared by every
/// policy with that α and never freed; reading an entry is one relaxed
/// atomic load, with no lock. Relaxed ordering suffices because an entry
/// publishes nothing but its own value. Two threads may both fill an
/// entry; they store the same value.
pub(crate) struct CriticalTable {
    alpha: f64,
    /// The smallest sample size at which the prefilters may reject: every
    /// df of at least `prefilter_min_n − 1` has a `t_crit`, widened by
    /// [`GUARD`], of at most [`PREFILTER_T`], so `|t| > PREFILTER_T` is a
    /// certain reject. `u64::MAX` when no point of the table qualifies.
    pub(crate) prefilter_min_n: u64,
    /// `t_crit` bits per ladder point; 0 until computed (`t_crit > 0`).
    entries: [AtomicU64; POINTS],
}

impl CriticalTable {
    /// The shared table for `alpha`, created on first request.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub(crate) fn for_alpha(alpha: f64) -> &'static CriticalTable {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
        static TABLES: Mutex<Vec<&'static CriticalTable>> = Mutex::new(Vec::new());
        // A push is the only update, so a poisoned list is still whole.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables.iter().find(|t| t.alpha == alpha) {
            return table;
        }
        let mut table = CriticalTable {
            alpha,
            prefilter_min_n: u64::MAX,
            entries: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        table.prefilter_min_n = table.first_n_at_most(PREFILTER_T);
        let table: &'static CriticalTable = Box::leak(Box::new(table));
        tables.push(table);
        table
    }

    /// One more than the smallest ladder df whose critical value, widened
    /// by the guard band, is at most `t`, rounded up to a whole df; found
    /// by bisection over the ladder (the critical value falls as df
    /// grows). `u64::MAX` when there is none.
    fn first_n_at_most(&self, t: f64) -> u64 {
        let (mut lo, mut hi) = (0, POINTS);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.critical_value(mid) * (1.0 + GUARD) <= t {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo < POINTS {
            ladder_point(lo).ceil() as u64 + 1
        } else {
            u64::MAX
        }
    }

    /// `Some(p >= α)` for a statistic `t` with `df` degrees of freedom when
    /// the bracketing table entries settle it outside the guard band;
    /// `None` when the full test must decide (inside the band, df off the
    /// table, or `t` not finite).
    pub(crate) fn decide(&self, t: f64, df: f64) -> Option<bool> {
        let (lo, hi) = bracket(df)?;
        let t = t.abs();
        if !t.is_finite() {
            return None;
        }
        if t > self.critical_value(lo) * (1.0 + GUARD) {
            Some(false)
        } else if t < self.critical_value(hi) * (1.0 - GUARD) {
            Some(true)
        } else {
            None
        }
    }

    /// `t_crit` at ladder point `k`, computed on first use.
    pub(crate) fn critical_value(&self, k: usize) -> f64 {
        let bits = self.entries[k].load(Ordering::Relaxed);
        if bits != 0 {
            return f64::from_bits(bits);
        }
        let value = StudentsT::new(ladder_point(k))
            .and_then(|t| t.critical_value(self.alpha))
            .expect("ladder points are valid df and alpha lies in (0, 1)");
        self.entries[k].store(value.to_bits(), Ordering::Relaxed);
        value
    }
}

impl fmt::Debug for CriticalTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CriticalTable")
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_holds_every_integer_up_to_32_then_grows_geometrically() {
        let points: Vec<f64> = (0..POINTS).map(ladder_point).collect();
        for df in 1..=32 {
            assert!(points.contains(&(df as f64)), "df {df}");
        }
        for w in points.windows(2) {
            assert!(w[0] < w[1] && w[1] / w[0] <= 17.0 / 16.0, "{w:?}");
        }
        assert_eq!(points[POINTS - 1], LADDER_END);
    }

    #[test]
    fn bracket_finds_the_neighbouring_points() {
        assert_eq!(bracket(1.0), Some((0, 0)));
        for k in 0..POINTS - 1 {
            let (lo, hi) = (ladder_point(k), ladder_point(k + 1));
            assert_eq!(bracket(lo), Some((k, k)), "point {lo}");
            let mid = lo + 0.37 * (hi - lo);
            assert_eq!(bracket(mid), Some((k, k + 1)), "df {mid}");
        }
        for df in [0.0, 0.999, LADDER_END, 1e30, f64::NAN, f64::INFINITY, -2.0] {
            assert_eq!(bracket(df), None, "df {df}");
        }
    }

    #[test]
    fn one_table_per_alpha() {
        let a = CriticalTable::for_alpha(0.0123);
        assert!(std::ptr::eq(a, CriticalTable::for_alpha(0.0123)));
        assert!(!std::ptr::eq(a, CriticalTable::for_alpha(0.0124)));
        // df = 10 is ladder point 3·16 + 4.
        assert_eq!(ladder_point(52), 10.0);
        let crit = a.critical_value(52);
        assert_eq!(
            crit,
            StudentsT::new(10.0)
                .unwrap()
                .critical_value(0.0123)
                .unwrap()
        );
        assert_eq!(a.decide(crit * (1.0 + 2.0 * GUARD), 10.0), Some(false));
        assert_eq!(a.decide(crit * (1.0 - 2.0 * GUARD), 10.0), Some(true));
        assert_eq!(a.decide(crit, 10.0), None);
        assert_eq!(a.decide(f64::INFINITY, 10.0), None);
        assert_eq!(a.decide(1.0, 0.5), None);
    }

    #[test]
    fn prefilter_applies_from_the_first_df_with_a_critical_value_below_six() {
        // t_crit at α = 0.01 is 63.657, 9.925, 5.841 for df 1, 2, 3; at
        // α = 0.001, 6.869 (df 5) and 5.959 (df 6); at α = 0.3 it is 1.963
        // at df 1. Six sigma never reaches α = 1e-10 (z = 6.47).
        for (alpha, n) in [(0.01, 4), (0.001, 7), (0.3, 2), (0.9, 2)] {
            let table = CriticalTable::for_alpha(alpha);
            assert_eq!(table.prefilter_min_n, n, "α {alpha}");
        }
        assert_eq!(CriticalTable::for_alpha(1e-10).prefilter_min_n, u64::MAX);
    }
}
