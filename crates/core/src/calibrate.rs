//! Regression calibration of data-dependent power states (paper §IV).
//!
//! States with a "too high" standard deviation are likely data-dependent:
//! their power is driven by the values on the IP's inputs rather than by
//! the functional behaviour alone. For those states — and only when the
//! Hamming distance of consecutive input values correlates strongly with
//! the reference power, the paper's necessary condition [11] — the constant
//! μ output is replaced by a fitted regression line.

use crate::psm::{OutputFunction, Psm, StateId};
use crate::CoreError;
use psm_stats::LinearRegression;
use psm_trace::{FunctionalTrace, InputSpans, PowerTrace};

/// Thresholds of the calibration step.
///
/// # Examples
///
/// ```
/// use psm_core::CalibrationConfig;
///
/// let config = CalibrationConfig::default().with_min_abs_r(0.8);
/// assert_eq!(config.min_abs_r(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    sigma_over_mu: f64,
    min_abs_r: f64,
    min_samples: usize,
}

impl CalibrationConfig {
    /// Relative deviation σ/μ above which a state counts as
    /// data-dependent.
    pub fn sigma_over_mu(&self) -> f64 {
        self.sigma_over_mu
    }

    /// Minimum |Pearson r| between input Hamming distance and power for
    /// the regression to be considered reliable.
    pub fn min_abs_r(&self) -> f64 {
        self.min_abs_r
    }

    /// Minimum number of training samples backing a fit.
    pub fn min_samples(&self) -> usize {
        self.min_samples
    }

    /// Sets the σ/μ threshold.
    pub fn with_sigma_over_mu(mut self, v: f64) -> Self {
        assert!(v >= 0.0, "threshold cannot be negative");
        self.sigma_over_mu = v;
        self
    }

    /// Sets the correlation threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= r <= 1`.
    pub fn with_min_abs_r(mut self, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r), "|r| threshold must lie in [0, 1]");
        self.min_abs_r = r;
        self
    }

    /// Sets the minimum sample count.
    pub fn with_min_samples(mut self, n: usize) -> Self {
        self.min_samples = n;
        self
    }
}

impl Default for CalibrationConfig {
    /// σ/μ > 0.08, |r| ≥ 0.7, at least 48 samples.
    ///
    /// The sample floor is deliberately high: a regression fitted on a
    /// handful of instants extrapolates wildly and can poison every later
    /// estimate of the state, which is far worse than keeping the constant
    /// μ.
    fn default() -> Self {
        CalibrationConfig {
            sigma_over_mu: 0.08,
            min_abs_r: 0.7,
            min_samples: 48,
        }
    }
}

/// Per-state outcome of one calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// `(state, |r|, calibrated?)` for every state that exceeded the σ/μ
    /// threshold; states below the threshold are not listed.
    pub examined: Vec<(StateId, f64, bool)>,
}

impl CalibrationReport {
    /// Number of states whose output became a regression.
    pub fn calibrated_count(&self) -> usize {
        self.examined.iter().filter(|(_, _, c)| *c).count()
    }
}

/// Replaces the constant output of data-dependent states with a
/// Hamming-distance regression fitted on the training traces.
///
/// `training` supplies, per trace index recorded in the states' windows,
/// the functional trace (for input Hamming distances) and the reference
/// power trace (for the regressand).
///
/// # Errors
///
/// Returns [`CoreError::MissingTrainingTrace`] when a state references a
/// trace index not present in `training`.
pub fn calibrate(
    psm: &mut Psm,
    training: &[(&FunctionalTrace, &PowerTrace)],
    config: &CalibrationConfig,
) -> Result<CalibrationReport, CoreError> {
    let mut examined = Vec::new();
    // Each training trace's input spans, resolved once for all windows.
    let spans: Vec<InputSpans> = training
        .iter()
        .map(|(phi, _)| InputSpans::new(phi.signals()))
        .collect();
    let ids: Vec<StateId> = psm.states().map(|(id, _)| id).collect();
    for id in ids {
        let state = psm.state(id);
        let attrs = state.attrs();
        if attrs.mu() <= 0.0 || attrs.sigma() / attrs.mu() <= config.sigma_over_mu {
            continue;
        }
        // Collect (input hamming, power) pairs over all training windows.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for w in state.windows() {
            let (phi, delta) = training
                .get(w.trace)
                .ok_or(CoreError::MissingTrainingTrace(w.trace))?;
            let inputs = &spans[w.trace];
            for t in w.start..=w.stop.min(phi.len().saturating_sub(1)) {
                // The distance to the previous instant, 0 at the first.
                let hamming = t.checked_sub(1).map_or(0, |prev| {
                    inputs.distance(phi.cycle(prev).as_words(), phi.cycle(t).as_words())
                });
                xs.push(f64::from(hamming));
                ys.push(delta[t]);
            }
        }
        if xs.len() < config.min_samples {
            examined.push((id, 0.0, false));
            continue;
        }
        match LinearRegression::fit(&xs, &ys) {
            Ok(fit) if fit.r().abs() >= config.min_abs_r => {
                psm.state_mut(id).set_output(OutputFunction::Regression {
                    slope: fit.slope(),
                    intercept: fit.intercept(),
                });
                examined.push((id, fit.r().abs(), true));
            }
            Ok(fit) => examined.push((id, fit.r().abs(), false)),
            // All Hamming distances identical: no linear information.
            Err(_) => examined.push((id, 0.0, false)),
        }
    }
    Ok(CalibrationReport { examined })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_psm;
    use psm_mining::PropositionTrace;
    use psm_trace::{Bits, Direction, SignalSet};

    /// A synthetic data-dependent IP: one behaviour whose power is
    /// `0.5 * hamming + 1.0`, preceded/followed by an idle behaviour.
    fn data_dependent_setup() -> (FunctionalTrace, PowerTrace, PropositionTrace) {
        let mut signals = SignalSet::new();
        signals.push("data", 8, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        let mut delta = PowerTrace::new();
        let mut props = Vec::new();
        // Idle: constant input, constant 1 mW.
        for _ in 0..10 {
            phi.push_cycle(vec![Bits::from_u64(0, 8)]).unwrap();
            delta.push(1.0);
        }
        props.extend(std::iter::repeat_n(0u32, 10));
        // Busy: alternating data with varying Hamming distance.
        let pattern = [
            0x00u64, 0xFF, 0x0F, 0xFF, 0x00, 0xF0, 0xFF, 0x3C, 0xC3, 0x00,
        ];
        for (k, &v) in pattern.iter().enumerate() {
            phi.push_cycle(vec![Bits::from_u64(v, 8)]).unwrap();
            let t = 10 + k;
            let h = phi.input_hamming(t) as f64;
            delta.push(0.5 * h + 1.0);
            props.push(1);
        }
        // Tail so the busy behaviour is recognised.
        for _ in 0..3 {
            phi.push_cycle(vec![Bits::from_u64(0x55, 8)]).unwrap();
            delta.push(0.2);
        }
        props.extend(std::iter::repeat_n(2, 3));
        (phi, delta, PropositionTrace::from_indices(&props))
    }

    #[test]
    fn calibrates_data_dependent_state() {
        let (phi, delta, gamma) = data_dependent_setup();
        let mut psm = generate_psm(&gamma, &delta, 0).unwrap();
        // The synthetic trace is tiny; lower the production sample floor.
        let config = CalibrationConfig::default().with_min_samples(8);
        let report = calibrate(&mut psm, &[(&phi, &delta)], &config).unwrap();
        assert_eq!(report.calibrated_count(), 1);
        // The busy state now predicts exactly: 0.5 h + 1.0.
        let busy = psm
            .states()
            .find(|(_, s)| s.output().is_regression())
            .expect("busy state calibrated")
            .1;
        match busy.output() {
            OutputFunction::Regression { slope, intercept } => {
                assert!((slope - 0.5).abs() < 1e-9, "slope {slope}");
                assert!((intercept - 1.0).abs() < 1e-9, "intercept {intercept}");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn idle_state_untouched() {
        let (phi, delta, gamma) = data_dependent_setup();
        let mut psm = generate_psm(&gamma, &delta, 0).unwrap();
        let config = CalibrationConfig::default().with_min_samples(8);
        calibrate(&mut psm, &[(&phi, &delta)], &config).unwrap();
        let idle = psm
            .states()
            .find(|(_, s)| (s.attrs().mu() - 1.0).abs() < 1e-9)
            .unwrap()
            .1;
        assert!(!idle.output().is_regression());
    }

    #[test]
    fn uncorrelated_noise_not_calibrated() {
        // High σ but power unrelated to input Hamming distance.
        let mut signals = SignalSet::new();
        signals.push("data", 8, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        let mut delta = PowerTrace::new();
        let mut props = Vec::new();
        let noise = [5.0, 1.0, 4.0, 2.0, 5.5, 0.5, 3.0, 4.5, 1.5, 2.5, 5.0, 1.0];
        for (k, &p) in noise.iter().enumerate() {
            // Constant hamming (alternate 0x00/0xFF) but noisy power.
            phi.push_cycle(vec![Bits::from_u64(if k % 2 == 0 { 0 } else { 0xFF }, 8)])
                .unwrap();
            delta.push(p);
            props.push(0u32);
        }
        for _ in 0..2 {
            phi.push_cycle(vec![Bits::from_u64(0, 8)]).unwrap();
            delta.push(0.1);
        }
        props.extend(std::iter::repeat_n(1, 2));
        let gamma = PropositionTrace::from_indices(&props);
        let mut psm = generate_psm(&gamma, &delta, 0).unwrap();
        let config = CalibrationConfig::default().with_min_samples(8);
        let report = calibrate(&mut psm, &[(&phi, &delta)], &config).unwrap();
        assert_eq!(report.calibrated_count(), 0);
        assert!(!report.examined.is_empty(), "state was examined");
    }

    #[test]
    fn missing_training_trace_is_an_error() {
        let (phi, delta, gamma) = data_dependent_setup();
        let mut psm = generate_psm(&gamma, &delta, 3).unwrap(); // index 3 unknown
        let config = CalibrationConfig::default().with_min_samples(8);
        let r = calibrate(&mut psm, &[(&phi, &delta)], &config);
        assert!(matches!(r, Err(CoreError::MissingTrainingTrace(3))));
    }

    #[test]
    fn config_builders() {
        let c = CalibrationConfig::default()
            .with_sigma_over_mu(0.2)
            .with_min_abs_r(0.9)
            .with_min_samples(16);
        assert_eq!(c.sigma_over_mu(), 0.2);
        assert_eq!(c.min_abs_r(), 0.9);
        assert_eq!(c.min_samples(), 16);
    }
}
