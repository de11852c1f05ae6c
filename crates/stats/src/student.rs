//! Student's t distribution.

use crate::special::{
    incomplete_beta_half_large_a, regularized_incomplete_beta, HALF_SERIES_MIN_A,
};
use crate::StatsError;

/// Student's t distribution with (possibly fractional) degrees of freedom.
///
/// Welch's t-test produces fractional degrees of freedom through the
/// Welch–Satterthwaite equation, so `df` is an `f64`.
///
/// # Examples
///
/// ```
/// use psm_stats::StudentsT;
///
/// let t = StudentsT::new(10.0)?;
/// // The distribution is symmetric around zero.
/// assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((t.cdf(1.5) + t.cdf(-1.5) - 1.0).abs() < 1e-12);
/// # Ok::<(), psm_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentsT {
    df: f64,
}

impl StudentsT {
    /// Creates a t distribution with `df` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `df` is not a positive,
    /// finite number.
    pub fn new(df: f64) -> Result<Self, StatsError> {
        if !(df.is_finite() && df > 0.0) {
            return Err(StatsError::InvalidParameter(
                "degrees of freedom must be positive and finite",
            ));
        }
        Ok(StudentsT { df })
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Cumulative distribution function `P(T <= t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        if t.is_infinite() {
            return if t > 0.0 { 1.0 } else { 0.0 };
        }
        let p = 0.5 * self.two_sided_p_value(t);
        if t > 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    /// Two-sided p-value for an observed statistic, `P(|T| >= |t|)`.
    ///
    /// This is the quantity the paper's mergeability tests compare against
    /// the designer-chosen significance level.
    ///
    /// From `df = 2¹⁸` up it is computed from `t² / df` directly rather
    /// than through `x = df / (df + t²)`, whose rounding alone would move
    /// the p-value by more than it changes between nearby `df`.
    pub fn two_sided_p_value(&self, t: f64) -> f64 {
        let a = 0.5 * self.df;
        let r = t * t / self.df;
        if a >= HALF_SERIES_MIN_A && r.is_finite() {
            // y = 1 − x = t² / (df + t²) and ln x = −ln(1 + t² / df).
            return incomplete_beta_half_large_a(a, r / (1.0 + r), -r.ln_1p());
        }
        let x = self.df / (self.df + t * t);
        regularized_incomplete_beta(a, 0.5, x)
    }

    /// Two-sided critical value: the `|t|` at which
    /// [`two_sided_p_value`](Self::two_sided_p_value) equals `alpha`, so that
    /// `p >= alpha` exactly when `|t|` is at most this value.
    ///
    /// Found by bisection on `two_sided_p_value` itself, down to adjacent
    /// floats, so a table of these values agrees with the p-values it
    /// stands in for. Returns `+inf` when the p-value stays at or above
    /// `alpha` for every finite `t` (only for `alpha` near the smallest
    /// floats).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `0 < alpha < 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use psm_stats::StudentsT;
    ///
    /// let t = StudentsT::new(10.0)?;
    /// let crit = t.critical_value(0.05)?;
    /// assert!((crit - 2.228).abs() < 1e-3);
    /// assert!((t.two_sided_p_value(crit) - 0.05).abs() < 1e-12);
    /// # Ok::<(), psm_stats::StatsError>(())
    /// ```
    pub fn critical_value(&self, alpha: f64) -> Result<f64, StatsError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(StatsError::InvalidParameter(
                "significance level must lie in (0, 1)",
            ));
        }
        // Invariant: p(lo) >= alpha > p(hi). p(0) = 1, and p falls
        // monotonically towards 0 as |t| grows.
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        while self.two_sided_p_value(hi) >= alpha {
            lo = hi;
            hi *= 2.0;
            if !hi.is_finite() {
                return Ok(f64::INFINITY);
            }
        }
        loop {
            let mid = lo + 0.5 * (hi - lo);
            if mid <= lo || mid >= hi {
                return Ok(lo);
            }
            if self.two_sided_p_value(mid) >= alpha {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_df() {
        assert!(StudentsT::new(0.0).is_err());
        assert!(StudentsT::new(-3.0).is_err());
        assert!(StudentsT::new(f64::NAN).is_err());
        assert!(StudentsT::new(f64::INFINITY).is_err());
    }

    #[test]
    fn symmetric_cdf() {
        let t = StudentsT::new(7.0).unwrap();
        for &x in &[0.0, 0.5, 1.0, 2.5, 10.0] {
            assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn known_critical_values() {
        // Standard t-table entries: P(T <= t_crit) = 0.975.
        let cases = [
            (1.0, 12.706),
            (2.0, 4.303),
            (5.0, 2.571),
            (10.0, 2.228),
            (30.0, 2.042),
            (120.0, 1.980),
        ];
        for (df, crit) in cases {
            let t = StudentsT::new(df).unwrap();
            assert!(
                (t.cdf(crit) - 0.975).abs() < 5e-4,
                "df = {df}: cdf({crit}) = {}",
                t.cdf(crit)
            );
        }
    }

    #[test]
    fn df_one_is_cauchy() {
        // t with df = 1 is the Cauchy distribution: CDF = 1/2 + atan(x)/pi.
        let t = StudentsT::new(1.0).unwrap();
        for &x in &[-3.0f64, -0.7, 0.0, 0.4, 2.0] {
            let cauchy = 0.5 + x.atan() / std::f64::consts::PI;
            assert!((t.cdf(x) - cauchy).abs() < 1e-10, "x = {x}");
        }
    }

    #[test]
    fn large_df_approaches_normal() {
        // At df = 10_000 the t CDF at 1.96 is essentially the normal 0.975.
        let t = StudentsT::new(10_000.0).unwrap();
        assert!((t.cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn two_sided_p_value_matches_cdf() {
        let t = StudentsT::new(12.0).unwrap();
        for &x in &[0.3, 1.1, 2.7] {
            let p = t.two_sided_p_value(x);
            let via_cdf = 2.0 * (1.0 - t.cdf(x));
            assert!((p - via_cdf).abs() < 1e-12, "x = {x}");
            // p-value must be sign-invariant.
            assert!((p - t.two_sided_p_value(-x)).abs() < 1e-15);
        }
    }

    #[test]
    fn critical_values_match_the_t_table() {
        // Two-sided table entries: (alpha, df, t_crit).
        let cases = [
            (0.01, 1.0, 63.657),
            (0.01, 10.0, 3.169),
            (0.01, 30.0, 2.750),
            (0.3, 1.0, 1.963),
            (0.3, 10.0, 1.093),
        ];
        for (alpha, df, crit) in cases {
            let t = StudentsT::new(df).unwrap();
            let got = t.critical_value(alpha).unwrap();
            assert!((got - crit).abs() < 5e-4, "alpha {alpha}, df {df}: {got}");
        }
    }

    #[test]
    fn critical_value_inverts_the_p_value() {
        for alpha in [0.001, 0.01, 0.05, 0.3, 0.9] {
            for df in [1.0, 1.5, 2.0, 7.0, 33.25, 1e3, 1e4, 1e5] {
                let t = StudentsT::new(df).unwrap();
                let crit = t.critical_value(alpha).unwrap();
                // The largest float whose p-value is still >= alpha.
                let p = t.two_sided_p_value(crit);
                let next = f64::from_bits(crit.to_bits() + 1);
                assert!(p >= alpha, "alpha {alpha}, df {df}: p {p}");
                assert!(t.two_sided_p_value(next) < alpha, "alpha {alpha}, df {df}");
                // The p-value is a staircase in t: x = df / (df + t²) moves
                // in ulp steps near 1, each worth about dp/dx · 1e-16, which
                // grows with df (alpha = 0.9 steps by 2.5e-12 at df = 1e4,
                // alpha = 0.9 by 3.3e-11 at df = 1e5).
                let tolerance = if df <= 1e3 { 1e-12 } else { 1e-10 };
                assert!(
                    (p - alpha).abs() < tolerance,
                    "alpha {alpha}, df {df}: p {p}"
                );
            }
        }
    }

    #[test]
    fn critical_value_does_not_increase_with_df() {
        // The ladder psm-core tabulates: 16 points per octave of df, up to
        // 2^20. Much further out, rounding noise in the p-value outgrows
        // the true decrease between neighbouring points.
        let ladder = (0..=20 * 16).map(|k| (16 + k % 16) as f64 / 16.0 * (1u64 << (k / 16)) as f64);
        for alpha in [0.001, 0.01, 0.05, 0.3, 0.9] {
            let mut last = f64::INFINITY;
            for df in ladder.clone() {
                let crit = StudentsT::new(df).unwrap().critical_value(alpha).unwrap();
                assert!(crit <= last, "alpha {alpha}, df {df}: {crit} > {last}");
                last = crit;
            }
        }
    }

    #[test]
    fn critical_value_stays_monotone_at_huge_df() {
        // 16 points per octave from 2^17 to 2^33: the incomplete beta's
        // prefactor comes from the ln Γ(a + ½) − ln Γ(a) series there, so
        // the p-value keeps its absolute precision and the critical value
        // keeps falling towards the normal quantile.
        let ladder = (17 * 16..=33 * 16)
            .map(|k: u64| (16 + k % 16) as f64 / 16.0 * (1u64 << (k / 16)) as f64);
        // Two-sided normal quantiles z(1 − α/2).
        for (alpha, z) in [
            (0.01, 2.575_829_303_548_901),
            (0.05, 1.959_963_984_540_054),
            (0.3, 1.036_433_389_493_789_8),
        ] {
            let mut last = f64::INFINITY;
            for df in ladder.clone() {
                let crit = StudentsT::new(df).unwrap().critical_value(alpha).unwrap();
                assert!(crit <= last, "alpha {alpha}, df {df}: {crit} > {last}");
                assert!(
                    crit >= z * (1.0 - 1e-12),
                    "alpha {alpha}, df {df}: {crit} < {z}"
                );
                last = crit;
            }
            // t_crit ≈ z·(1 + (z² + 1)/(4·df)): at df = 2^33 within 1e-9.
            assert!((last - z).abs() < 1e-9 * z, "alpha {alpha}: {last} vs {z}");
        }
    }

    #[test]
    fn critical_value_rejects_alpha_outside_the_unit_interval() {
        let t = StudentsT::new(5.0).unwrap();
        for alpha in [0.0, 1.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    t.critical_value(alpha),
                    Err(StatsError::InvalidParameter(_))
                ),
                "alpha {alpha}"
            );
        }
    }

    #[test]
    fn infinite_statistic() {
        let t = StudentsT::new(4.0).unwrap();
        assert_eq!(t.cdf(f64::INFINITY), 1.0);
        assert_eq!(t.cdf(f64::NEG_INFINITY), 0.0);
        assert!(t.cdf(f64::NAN).is_nan());
    }
}
