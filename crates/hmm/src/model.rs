//! A generic discrete hidden Markov model with forward filtering — the
//! causal belief update of the paper's §V.

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
/// hmm.filter_step(&mut belief, 0, &mut [0.0; 2])?;
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
    /// `α'_j ∝ (Σ_i α_i A_ij) · b_j(symbol)`. `scratch` needs one slot per
    /// state and is clobbered, so a hot loop allocates nothing.
    ///
    /// Returns the (pre-normalisation) likelihood of the observation; a
    /// zero return means the previous belief cannot explain the symbol
    /// (the wrong-state-prediction trigger) and leaves `belief` unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`HmmError::UnknownSymbol`] for out-of-range symbols, and
    /// [`HmmError::DimensionMismatch`] when `belief` or `scratch` has the
    /// wrong length.
    pub fn filter_step(
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
            for (bi, row) in belief.iter().zip(&self.a) {
                acc += bi * row[j];
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
            h.filter_step(&mut belief, 0, &mut [0.0; 2]).unwrap();
        }
        assert!(belief[0] > 0.85, "state 0 explains a run of symbol 0");
        for _ in 0..5 {
            h.filter_step(&mut belief, 1, &mut [0.0; 2]).unwrap();
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
        let like = h.filter_step(&mut belief, 0, &mut [0.0; 2]).unwrap();
        assert_eq!(like, 0.0);
        assert_eq!(belief, before);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let h = toy();
        let mut b = h.initial_belief(0).unwrap();
        assert!(matches!(
            h.filter_step(&mut b, 9, &mut [0.0; 2]),
            Err(HmmError::UnknownSymbol {
                symbol: 9,
                known: 2
            })
        ));
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
}
