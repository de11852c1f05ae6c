//! A generic discrete hidden Markov model with filtering, Viterbi decoding
//! and Baum–Welch re-estimation.

// The α/β/δ recurrences below keep Rabiner's index notation (α_t(i)·a_ij)
// on purpose; iterator rewrites obscure which matrix axis each loop walks.
#![allow(clippy::needless_range_loop)]

use crate::HmmError;

/// A discrete HMM λ = (A, B, π) over `m` hidden states and `k` observation
/// symbols (paper §V, after Baum & Petrie, 1966).
///
/// Rows of A, B and π are normalised on construction; a zero row is
/// rejected rather than silently patched.
///
/// # Examples
///
/// A two-state weather model:
///
/// ```
/// use psm_hmm::Hmm;
///
/// let hmm = Hmm::new(
///     vec![vec![0.7, 0.3], vec![0.4, 0.6]],        // A
///     vec![vec![0.9, 0.1], vec![0.2, 0.8]],        // B
///     vec![0.5, 0.5],                              // π
/// )?;
/// // After observing symbol 0, state 0 is the better explanation.
/// let mut belief = hmm.initial_belief(0).expect("symbol in range");
/// assert!(belief[0] > belief[1]);
/// hmm.filter_step(&mut belief, 0)?;
/// assert!(belief[0] > 0.8);
/// # Ok::<(), psm_hmm::HmmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    a: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
    pi: Vec<f64>,
}

fn normalize(row: &mut [f64]) -> bool {
    let sum: f64 = row.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return false;
    }
    for v in row {
        *v /= sum;
    }
    true
}

impl Hmm {
    /// Builds a model from raw (non-negative) weight matrices, normalising
    /// every row.
    ///
    /// # Errors
    ///
    /// * [`HmmError::DimensionMismatch`] when shapes disagree;
    /// * [`HmmError::DegenerateDistribution`] when a row sums to zero.
    pub fn new(
        mut a: Vec<Vec<f64>>,
        mut b: Vec<Vec<f64>>,
        mut pi: Vec<f64>,
    ) -> Result<Self, HmmError> {
        let m = pi.len();
        if a.len() != m || b.len() != m {
            return Err(HmmError::DimensionMismatch(
                "A and B need one row per state",
            ));
        }
        if a.iter().any(|r| r.len() != m) {
            return Err(HmmError::DimensionMismatch("A must be square"));
        }
        let k = b.first().map_or(0, Vec::len);
        if b.iter().any(|r| r.len() != k) || k == 0 {
            return Err(HmmError::DimensionMismatch("B rows must share a width"));
        }
        for (i, row) in a.iter_mut().enumerate() {
            if !normalize(row) {
                return Err(HmmError::DegenerateDistribution {
                    matrix: "A",
                    row: i,
                });
            }
        }
        for (i, row) in b.iter_mut().enumerate() {
            if !normalize(row) {
                return Err(HmmError::DegenerateDistribution {
                    matrix: "B",
                    row: i,
                });
            }
        }
        if !normalize(&mut pi) {
            return Err(HmmError::DegenerateDistribution {
                matrix: "pi",
                row: 0,
            });
        }
        Ok(Hmm { a, b, pi })
    }

    /// Number of hidden states.
    pub fn num_states(&self) -> usize {
        self.pi.len()
    }

    /// Number of observation symbols.
    pub fn num_symbols(&self) -> usize {
        self.b.first().map_or(0, Vec::len)
    }

    /// Transition matrix.
    pub fn a(&self) -> &[Vec<f64>] {
        &self.a
    }

    /// Emission matrix.
    pub fn b(&self) -> &[Vec<f64>] {
        &self.b
    }

    /// Initial distribution.
    pub fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Belief after observing `symbol` at time zero:
    /// `α_i ∝ π_i · b_i(symbol)`. Returns `None` when no state can emit
    /// the symbol from the initial distribution.
    pub fn initial_belief(&self, symbol: usize) -> Option<Vec<f64>> {
        let mut alpha: Vec<f64> = self
            .pi
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.b[i].get(symbol).copied().unwrap_or(0.0))
            .collect();
        normalize(&mut alpha).then_some(alpha)
    }

    /// Belief from the emission model alone (no transition constraint):
    /// `α_i ∝ b_i(symbol)` — the resynchronisation fallback.
    pub fn emission_belief(&self, symbol: usize) -> Option<Vec<f64>> {
        let mut alpha: Vec<f64> = self
            .b
            .iter()
            .map(|row| row.get(symbol).copied().unwrap_or(0.0))
            .collect();
        normalize(&mut alpha).then_some(alpha)
    }

    /// One forward-filtering step in place:
    /// `α'_j ∝ (Σ_i α_i A_ij) · b_j(symbol)`.
    ///
    /// Returns the (pre-normalisation) likelihood of the observation; a
    /// zero return means the previous belief cannot explain the symbol
    /// (the wrong-state-prediction trigger) and leaves `belief` unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::UnknownSymbol`] for out-of-range symbols, and
    /// [`HmmError::DimensionMismatch`] when `belief` has the wrong length.
    pub fn filter_step(&self, belief: &mut [f64], symbol: usize) -> Result<f64, HmmError> {
        let mut scratch = vec![0.0; self.num_states()];
        self.filter_step_scratch(belief, symbol, &mut scratch)
    }

    /// Allocation-free variant of [`Hmm::filter_step`] for hot loops:
    /// `scratch` must have one slot per state and is clobbered.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Hmm::filter_step`], plus a dimension error when
    /// `scratch` has the wrong length.
    pub fn filter_step_scratch(
        &self,
        belief: &mut [f64],
        symbol: usize,
        scratch: &mut [f64],
    ) -> Result<f64, HmmError> {
        let m = self.num_states();
        if belief.len() != m || scratch.len() != m {
            return Err(HmmError::DimensionMismatch("belief length"));
        }
        if symbol >= self.num_symbols() {
            return Err(HmmError::UnknownSymbol {
                symbol,
                known: self.num_symbols(),
            });
        }
        for (j, nj) in scratch.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in 0..m {
                acc += belief[i] * self.a[i][j];
            }
            *nj = acc * self.b[j][symbol];
        }
        let likelihood: f64 = scratch.iter().sum();
        if likelihood > 0.0 {
            for (dst, src) in belief.iter_mut().zip(scratch.iter()) {
                *dst = src / likelihood;
            }
        }
        Ok(likelihood)
    }

    /// Log-likelihood of a full observation sequence under the model.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::UnknownSymbol`] for out-of-range symbols.
    /// Sequences impossible under the model yield `-inf`.
    pub fn log_likelihood(&self, observations: &[usize]) -> Result<f64, HmmError> {
        let Some((&first, rest)) = observations.split_first() else {
            return Ok(0.0);
        };
        if first >= self.num_symbols() {
            return Err(HmmError::UnknownSymbol {
                symbol: first,
                known: self.num_symbols(),
            });
        }
        let mut alpha: Vec<f64> = self
            .pi
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.b[i][first])
            .collect();
        let mut log_like = {
            let s: f64 = alpha.iter().sum();
            if s <= 0.0 {
                return Ok(f64::NEG_INFINITY);
            }
            for v in &mut alpha {
                *v /= s;
            }
            s.ln()
        };
        let mut scratch = vec![0.0f64; self.num_states()];
        for &o in rest {
            let l = self.filter_step_scratch(&mut alpha, o, &mut scratch)?;
            if l <= 0.0 {
                return Ok(f64::NEG_INFINITY);
            }
            log_like += l.ln();
        }
        Ok(log_like)
    }

    /// Most likely hidden-state sequence (Viterbi decoding), or `None` when
    /// the sequence is impossible under the model.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::UnknownSymbol`] for out-of-range symbols.
    pub fn viterbi(&self, observations: &[usize]) -> Result<Option<Vec<usize>>, HmmError> {
        if observations.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let m = self.num_states();
        for &o in observations {
            if o >= self.num_symbols() {
                return Err(HmmError::UnknownSymbol {
                    symbol: o,
                    known: self.num_symbols(),
                });
            }
        }
        // Log-space to avoid underflow on long traces.
        let log = |x: f64| if x > 0.0 { x.ln() } else { f64::NEG_INFINITY };
        // The recurrence reads log(a[i][j]) and log(b[j][o]) once per
        // instant; on long traces that is n·m² (resp. n·m) `ln` calls for
        // matrices that never change. Cache both log matrices up front —
        // log_at column-major so the inner max walks contiguously — and
        // ping-pong two delta rows instead of allocating per instant.
        // Each element is transformed by the same single `ln`, so scores
        // and ties are bit-identical to the uncached recurrence.
        let k = self.num_symbols();
        let mut log_at = vec![f64::NEG_INFINITY; m * m];
        for i in 0..m {
            for j in 0..m {
                log_at[j * m + i] = log(self.a[i][j]);
            }
        }
        let mut log_bt = vec![f64::NEG_INFINITY; k * m];
        for j in 0..m {
            for s in 0..k {
                log_bt[s * m + j] = log(self.b[j][s]);
            }
        }
        let mut delta: Vec<f64> = (0..m)
            .map(|i| log(self.pi[i]) + log_bt[observations[0] * m + i])
            .collect();
        let mut next = vec![f64::NEG_INFINITY; m];
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(observations.len());
        for &o in &observations[1..] {
            let mut arg = vec![0usize; m];
            let log_b_col = &log_bt[o * m..(o + 1) * m];
            for j in 0..m {
                let col = &log_at[j * m..(j + 1) * m];
                let mut best = f64::NEG_INFINITY;
                for i in 0..m {
                    let cand = delta[i] + col[i];
                    if cand > best {
                        best = cand;
                        arg[j] = i;
                    }
                }
                next[j] = best + log_b_col[j];
            }
            back.push(arg);
            std::mem::swap(&mut delta, &mut next);
        }
        let (mut best, score) = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .expect("m > 0 by construction");
        if score == f64::NEG_INFINITY {
            return Ok(None);
        }
        let mut path = vec![best; observations.len()];
        for (t, arg) in back.iter().enumerate().rev() {
            best = arg[best];
            path[t] = best;
        }
        Ok(Some(path))
    }

    /// Forward–backward smoothing: the posterior distribution over hidden
    /// states at every instant, given the *whole* observation sequence.
    ///
    /// Filtering (the paper's §V choice) is causal and suits live
    /// co-simulation; smoothing is the natural offline upgrade when the
    /// full trace is available — each instant's state estimate also uses
    /// the future observations.
    ///
    /// # Errors
    ///
    /// * [`HmmError::UnknownSymbol`] for out-of-range symbols;
    /// * [`HmmError::DegenerateDistribution`] when the sequence is
    ///   impossible under the model.
    pub fn smooth(&self, observations: &[usize]) -> Result<Vec<Vec<f64>>, HmmError> {
        let m = self.num_states();
        let n = observations.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        for &o in observations {
            if o >= self.num_symbols() {
                return Err(HmmError::UnknownSymbol {
                    symbol: o,
                    known: self.num_symbols(),
                });
            }
        }
        // Scaled forward pass.
        let mut alpha = vec![vec![0.0f64; m]; n];
        let mut scale = vec![0.0f64; n];
        for i in 0..m {
            alpha[0][i] = self.pi[i] * self.b[i][observations[0]];
        }
        scale[0] = alpha[0].iter().sum();
        if scale[0] <= 0.0 {
            return Err(HmmError::DegenerateDistribution {
                matrix: "A",
                row: 0,
            });
        }
        alpha[0].iter_mut().for_each(|v| *v /= scale[0]);
        for t in 1..n {
            for j in 0..m {
                let mut acc = 0.0;
                for i in 0..m {
                    acc += alpha[t - 1][i] * self.a[i][j];
                }
                alpha[t][j] = acc * self.b[j][observations[t]];
            }
            scale[t] = alpha[t].iter().sum();
            if scale[t] <= 0.0 {
                return Err(HmmError::DegenerateDistribution {
                    matrix: "A",
                    row: t,
                });
            }
            alpha[t].iter_mut().for_each(|v| *v /= scale[t]);
        }
        // Scaled backward pass and posterior.
        let mut beta = vec![1.0f64; m];
        let mut gamma = vec![vec![0.0f64; m]; n];
        for i in 0..m {
            gamma[n - 1][i] = alpha[n - 1][i];
        }
        for t in (0..n - 1).rev() {
            let mut next_beta = vec![0.0f64; m];
            for i in 0..m {
                let mut acc = 0.0;
                for j in 0..m {
                    acc += self.a[i][j] * self.b[j][observations[t + 1]] * beta[j];
                }
                next_beta[i] = acc / scale[t + 1];
            }
            beta = next_beta;
            let mut norm = 0.0;
            for i in 0..m {
                gamma[t][i] = alpha[t][i] * beta[i];
                norm += gamma[t][i];
            }
            if norm > 0.0 {
                gamma[t].iter_mut().for_each(|v| *v /= norm);
            }
        }
        Ok(gamma)
    }

    /// One Baum–Welch re-estimation pass over an observation sequence,
    /// returning the updated model and the sequence log-likelihood under
    /// the *old* model. Iterating this is the classic EM training loop —
    /// provided as an extension for refining PSM-derived models on held-out
    /// traces.
    ///
    /// # Errors
    ///
    /// * [`HmmError::UnknownSymbol`] for out-of-range symbols;
    /// * [`HmmError::DegenerateDistribution`] when the sequence is
    ///   impossible under the model.
    pub fn baum_welch_step(&self, observations: &[usize]) -> Result<(Hmm, f64), HmmError> {
        let m = self.num_states();
        let k = self.num_symbols();
        let n = observations.len();
        if n == 0 {
            return Ok((self.clone(), 0.0));
        }
        for &o in observations {
            if o >= k {
                return Err(HmmError::UnknownSymbol {
                    symbol: o,
                    known: k,
                });
            }
        }
        // Scaled forward pass.
        let mut alpha = vec![vec![0.0f64; m]; n];
        let mut scale = vec![0.0f64; n];
        for i in 0..m {
            alpha[0][i] = self.pi[i] * self.b[i][observations[0]];
        }
        scale[0] = alpha[0].iter().sum();
        if scale[0] <= 0.0 {
            return Err(HmmError::DegenerateDistribution {
                matrix: "A",
                row: 0,
            });
        }
        for v in &mut alpha[0] {
            *v /= scale[0];
        }
        for t in 1..n {
            for j in 0..m {
                let mut acc = 0.0;
                for i in 0..m {
                    acc += alpha[t - 1][i] * self.a[i][j];
                }
                alpha[t][j] = acc * self.b[j][observations[t]];
            }
            scale[t] = alpha[t].iter().sum();
            if scale[t] <= 0.0 {
                return Err(HmmError::DegenerateDistribution {
                    matrix: "A",
                    row: t,
                });
            }
            for v in &mut alpha[t] {
                *v /= scale[t];
            }
        }
        // Scaled backward pass.
        let mut beta = vec![vec![1.0f64; m]; n];
        for t in (0..n - 1).rev() {
            for i in 0..m {
                let mut acc = 0.0;
                for j in 0..m {
                    acc += self.a[i][j] * self.b[j][observations[t + 1]] * beta[t + 1][j];
                }
                beta[t][i] = acc / scale[t + 1];
            }
        }
        // Re-estimate.
        let mut new_a = vec![vec![0.0f64; m]; m];
        let mut new_b = vec![vec![0.0f64; k]; m];
        let mut gamma0 = vec![0.0f64; m];
        for t in 0..n {
            for i in 0..m {
                let g = alpha[t][i] * beta[t][i];
                new_b[i][observations[t]] += g;
                if t == 0 {
                    gamma0[i] = g;
                }
            }
        }
        for t in 0..n - 1 {
            for i in 0..m {
                for j in 0..m {
                    new_a[i][j] += alpha[t][i]
                        * self.a[i][j]
                        * self.b[j][observations[t + 1]]
                        * beta[t + 1][j]
                        / scale[t + 1];
                }
            }
        }
        // Rows that were never visited keep their previous distribution.
        for i in 0..m {
            if new_a[i].iter().sum::<f64>() <= 0.0 {
                new_a[i] = self.a[i].clone();
            }
            if new_b[i].iter().sum::<f64>() <= 0.0 {
                new_b[i] = self.b[i].clone();
            }
        }
        if gamma0.iter().sum::<f64>() <= 0.0 {
            gamma0 = self.pi.clone();
        }
        let log_like: f64 = scale.iter().map(|s| s.ln()).sum();
        Ok((Hmm::new(new_a, new_b, gamma0)?, log_like))
    }
}

/// The serialised model stores the already-normalised matrices. Loading
/// validates shapes and row sums directly instead of renormalising through
/// [`Hmm::new`], so a save/load cycle reproduces the stored probabilities
/// bit-for-bit (renormalising an already-normalised row can perturb the
/// last ulp).
impl psm_persist::Persist for Hmm {
    fn to_json(&self) -> psm_persist::JsonValue {
        use psm_persist::JsonValue;
        JsonValue::obj([
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
            ("pi", self.pi.to_json()),
        ])
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        use psm_persist::PersistError;
        let a: Vec<Vec<f64>> = Vec::from_json(v.field("a")?)?;
        let b: Vec<Vec<f64>> = Vec::from_json(v.field("b")?)?;
        let pi: Vec<f64> = Vec::from_json(v.field("pi")?)?;
        let m = pi.len();
        if a.len() != m || b.len() != m || a.iter().any(|r| r.len() != m) {
            return Err(PersistError::schema("HMM matrix shapes disagree"));
        }
        let k = b.first().map_or(0, Vec::len);
        if k == 0 || b.iter().any(|r| r.len() != k) {
            return Err(PersistError::schema("HMM emission rows must share a width"));
        }
        let is_distribution = |row: &[f64]| {
            let sum: f64 = row.iter().sum();
            row.iter().all(|&p| (0.0..=1.0).contains(&p)) && (sum - 1.0).abs() < 1e-6
        };
        if !a.iter().all(|r| is_distribution(r))
            || !b.iter().all(|r| is_distribution(r))
            || !is_distribution(&pi)
        {
            return Err(PersistError::schema(
                "HMM rows must be probability distributions",
            ));
        }
        Ok(Hmm { a, b, pi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Hmm {
        Hmm::new(
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![0.6, 0.4],
        )
        .unwrap()
    }

    #[test]
    fn construction_normalises() {
        let h = Hmm::new(
            vec![vec![2.0, 2.0], vec![1.0, 3.0]],
            vec![vec![3.0, 1.0], vec![1.0, 1.0]],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!((h.a()[0][0] - 0.5).abs() < 1e-12);
        assert!((h.b()[0][0] - 0.75).abs() < 1e-12);
        assert!((h.pi()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_shapes_and_zero_rows() {
        assert!(matches!(
            Hmm::new(vec![vec![1.0]], vec![vec![1.0]], vec![1.0, 1.0]),
            Err(HmmError::DimensionMismatch(_))
        ));
        assert!(matches!(
            Hmm::new(
                vec![vec![0.0, 0.0], vec![1.0, 1.0]],
                vec![vec![1.0], vec![1.0]],
                vec![1.0, 1.0]
            ),
            Err(HmmError::DegenerateDistribution {
                matrix: "A",
                row: 0
            })
        ));
    }

    #[test]
    fn filtering_tracks_evidence() {
        let h = toy();
        let mut belief = h.initial_belief(0).unwrap();
        for _ in 0..5 {
            h.filter_step(&mut belief, 0).unwrap();
        }
        assert!(belief[0] > 0.85, "state 0 explains a run of symbol 0");
        for _ in 0..5 {
            h.filter_step(&mut belief, 1).unwrap();
        }
        assert!(belief[1] > 0.8, "state 1 explains a run of symbol 1");
        let s: f64 = belief.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "belief stays normalised");
    }

    #[test]
    fn filter_zero_likelihood_leaves_belief() {
        // State 1 cannot emit symbol 0 at all.
        let h = Hmm::new(
            vec![vec![0.0, 1.0], vec![0.0, 1.0]], // everything moves to state 1
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![1.0, 0.0],
        )
        .unwrap();
        let mut belief = h.initial_belief(0).unwrap();
        let before = belief.clone();
        let like = h.filter_step(&mut belief, 0).unwrap();
        assert_eq!(like, 0.0);
        assert_eq!(belief, before);
    }

    #[test]
    fn viterbi_decodes_obvious_runs() {
        let h = toy();
        let path = h.viterbi(&[0, 0, 0, 1, 1, 1]).unwrap().unwrap();
        assert_eq!(path, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn viterbi_impossible_sequence() {
        let h = Hmm::new(
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            vec![1.0, 0.0],
        )
        .unwrap();
        // Starting in state 0 (emitting 0) can never emit symbol 1.
        assert_eq!(h.viterbi(&[0, 1]).unwrap(), None);
    }

    #[test]
    fn log_likelihood_ranks_sequences() {
        let h = toy();
        let typical = h.log_likelihood(&[0, 0, 0, 1, 1, 1]).unwrap();
        let atypical = h.log_likelihood(&[1, 0, 1, 0, 1, 0]).unwrap();
        assert!(typical > atypical);
        assert_eq!(h.log_likelihood(&[]).unwrap(), 0.0);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let h = toy();
        assert!(matches!(
            h.log_likelihood(&[5]),
            Err(HmmError::UnknownSymbol {
                symbol: 5,
                known: 2
            })
        ));
        let mut b = h.initial_belief(0).unwrap();
        assert!(h.filter_step(&mut b, 9).is_err());
    }

    #[test]
    fn hmm_round_trips_bit_for_bit() {
        use psm_persist::{JsonValue, Persist};
        let h = Hmm::new(
            vec![
                vec![1.0, 2.0, 0.5],
                vec![0.1, 0.2, 0.3],
                vec![5.0, 1.0, 1.0],
            ],
            vec![vec![0.3, 0.7], vec![0.9, 0.1], vec![0.5, 0.5]],
            vec![0.2, 0.5, 0.3],
        )
        .unwrap();
        let text = h.to_json().render();
        let back = Hmm::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        for i in 0..h.num_states() {
            for j in 0..h.num_states() {
                assert_eq!(back.a()[i][j].to_bits(), h.a()[i][j].to_bits());
            }
        }
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn hmm_load_rejects_non_distributions() {
        use psm_persist::{JsonValue, Persist};
        let doc = JsonValue::parse(r#"{"a":[[0.5,0.5],[2.0,0.0]],"b":[[1],[1]],"pi":[0.5,0.5]}"#)
            .unwrap();
        assert!(Hmm::from_json(&doc).is_err());
        let doc = JsonValue::parse(r#"{"a":[[1]],"b":[[1],[1]],"pi":[1]}"#).unwrap();
        assert!(Hmm::from_json(&doc).is_err());
    }

    #[test]
    fn baum_welch_improves_likelihood() {
        // Start from a deliberately mediocre model and train on data that
        // clearly alternates long runs.
        let h = Hmm::new(
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![vec![0.6, 0.4], vec![0.4, 0.6]],
            vec![0.5, 0.5],
        )
        .unwrap();
        let obs: Vec<usize> = (0..60).map(|t| usize::from((t / 10) % 2 == 1)).collect();
        let mut model = h;
        let mut last = f64::NEG_INFINITY;
        for _ in 0..15 {
            let (next, ll) = model.baum_welch_step(&obs).unwrap();
            assert!(
                ll >= last - 1e-9,
                "EM must not decrease the likelihood ({ll} < {last})"
            );
            last = ll;
            model = next;
        }
        // The trained model prefers staying in a state (long runs).
        assert!(model.a()[0][0] > 0.7);
        assert!(model.a()[1][1] > 0.7);
    }
}
