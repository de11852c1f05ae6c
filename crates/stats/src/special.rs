//! Special functions: log-gamma and the regularised incomplete beta function.
//!
//! These are the numerical workhorses behind the Student-t CDF used by the
//! paper's mergeability tests (§IV-A). Implemented from scratch (Lanczos
//! approximation and Lentz's continued-fraction method) so the crate carries
//! no numerical dependencies.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9 coefficients), accurate to
/// roughly 15 significant digits over the positive reals.
///
/// # Panics
///
/// Panics if `x <= 0` (the routine is only needed for positive arguments
/// here; reflection is intentionally not implemented).
///
/// # Examples
///
/// ```
/// use psm_stats::ln_gamma;
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The regularised incomplete beta function `I_x(a, b)`.
///
/// Computed with the continued-fraction expansion (Lentz's method) plus the
/// symmetry relation `I_x(a,b) = 1 - I_{1-x}(b,a)` for fast convergence.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0` or `x` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use psm_stats::regularized_incomplete_beta;
/// // I_0.5(2, 2) = 0.5 by symmetry.
/// assert!((regularized_incomplete_beta(2.0, 2.0, 0.5) - 0.5).abs() < 1e-12);
/// ```
pub fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must lie in [0, 1], got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_beta = if b == 0.5 && a >= HALF_SERIES_MIN_A {
        ln_gamma_half_step(a) - 0.5 * std::f64::consts::PI.ln()
    } else {
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
    };
    let ln_front = ln_beta + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// From this `a` up, [`regularized_incomplete_beta`] with `b = ½` (the
/// Student-t case, `a = df / 2`) takes `ln Γ(a + ½) − ln Γ(a)` from
/// [`ln_gamma_half_step`] instead of subtracting two `ln_gamma` values of
/// order `a · ln a`, whose rounding would swamp the p-value's absolute
/// precision as `df` grows. Below it every result is unchanged.
pub(crate) const HALF_SERIES_MIN_A: f64 = (1u64 << 17) as f64;

/// `I_x(a, ½)` for `a ≥ HALF_SERIES_MIN_A`, from `y = 1 − x` and `ln x`
/// given to full relative precision — the Student-t tail at large `df`,
/// where `x` itself sits within `t² / df` of 1.
///
/// [`beta_continued_fraction`] in `x` loses about `1 / (a·y)` of relative
/// precision there: each odd partial numerator is `−1 + O(1/a)`, so every
/// odd step cancels against 1 (about 10⁻⁷ at `a = 2³²`). This routine
/// never forms those differences. On the tail side it runs the odd part of
/// the same fraction ([`beta_fraction_near_one`]), whose partial
/// denominators come from `y` in closed form; on the other side it takes
/// `1 − I_y(½, a)`, whose fraction works on `y` alone. The result is
/// accurate to a few parts in 10¹⁴ and smooth in `a` and `y`.
pub(crate) fn incomplete_beta_half_large_a(a: f64, y: f64, ln_x: f64) -> f64 {
    debug_assert!(a >= HALF_SERIES_MIN_A);
    const B: f64 = 0.5;
    if y == 0.0 {
        return 1.0;
    }
    let ln_front = ln_gamma_half_step(a) - 0.5 * std::f64::consts::PI.ln() + a * ln_x + B * y.ln();
    let front = ln_front.exp();
    if y > (B + 1.0) / (a + B + 2.0) {
        front * beta_fraction_near_one(a, B, y) / a
    } else {
        1.0 - front * beta_continued_fraction(B, a, y) / B
    }
}

/// The continued fraction of [`beta_continued_fraction`] at `x = 1 − y`,
/// evaluated through its odd part so that no step cancels.
///
/// With the fraction's partial numerators `d₁, d₂, …` (all partial
/// denominators 1), its value is `1 / f` where `f = (1 + d₁) − d₁d₂ / ((1 +
/// d₂ + d₃) − d₃d₄ / ((1 + d₄ + d₅) − …))`. The sums `1 + d₂ₘ₊₁` are the
/// ones that cancel; each is computed from `y` exactly as
/// `(a(2m+1−b) + m(3m+2−b) + (a+m)(a+b+m)·y) / ((a+2m)(a+2m+1))`.
fn beta_fraction_near_one(a: f64, b: f64, y: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const TINY: f64 = 1e-300;

    let x = 1.0 - y;
    let d_odd = |m: f64| -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    let one_plus_d_odd = |m: f64| {
        (a * (2.0 * m + 1.0 - b) + m * (3.0 * m + 2.0 - b) + (a + m) * (a + b + m) * y)
            / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
    };
    let d_even = |m: f64| m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };

    // Modified Lentz on f = E₀ + N₁/(E₁ + N₂/(E₂ + …)).
    let mut f = nonzero(one_plus_d_odd(0.0));
    let mut c = f;
    let mut d = 0.0;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let e = one_plus_d_odd(m) + d_even(m);
        let n = -d_odd(m - 1.0) * d_even(m);
        d = 1.0 / nonzero(e + n * d);
        c = nonzero(e + n / c);
        let del = c * d;
        f *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    1.0 / f
}

/// `ln Γ(a + ½) − ln Γ(a)` for large `a`, from its asymptotic series
/// `½ ln a − 1/(8a) + 1/(192a³) − 1/(640a⁵) + …` (the Bernoulli-polynomial
/// expansion of `ln Γ(a + h) − ln Γ(a)` at `h = ½`). At `a ≥ 2¹⁷` the
/// first omitted term, `17/(14336a⁷)`, is below 2·10⁻³⁹, so the sum is
/// exact to rounding.
fn ln_gamma_half_step(a: f64) -> f64 {
    let r = 1.0 / a;
    let r2 = r * r;
    0.5 * a.ln() - r * (1.0 / 8.0 - r2 * (1.0 / 192.0 - r2 / 640.0))
}

/// Continued-fraction for the incomplete beta (Numerical Recipes `betacf`).
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (i, &f) in facts.iter().enumerate() {
            let n = (i + 1) as f64;
            assert!((ln_gamma(n) - f.ln()).abs() < 1e-10, "ln_gamma({n})");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.3, 1.7, 4.2, 11.5, 99.9] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-10, "recurrence at {x}");
        }
    }

    #[test]
    fn incomplete_beta_boundaries() {
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn incomplete_beta_uniform() {
        // I_x(1, 1) = x (uniform distribution CDF).
        for &x in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!((regularized_incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn incomplete_beta_symmetry() {
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (0.5, 0.5, 0.2), (10.0, 3.0, 0.8)] {
            let lhs = regularized_incomplete_beta(a, b, x);
            let rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "symmetry at ({a},{b},{x})");
        }
    }

    #[test]
    fn incomplete_beta_known_value() {
        // I_0.5(2, 3): Beta(2,3) CDF at 0.5 = 11/16 = 0.6875
        // F(x) = 6x^2 - 8x^3 + 3x^4 → F(0.5) = 1.5 - 1.0 + 0.1875 = 0.6875
        let v = regularized_incomplete_beta(2.0, 3.0, 0.5);
        assert!((v - 0.6875).abs() < 1e-12, "got {v}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }
}
