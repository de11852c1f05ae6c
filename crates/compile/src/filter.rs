//! The belief update of the compiled forward pass: `Hmm::filter_step`
//! over sparse copies of A and B, with the interpreter's emission
//! fallback.

use psm_hmm::Hmm;

/// A matrix stored as the non-zero entries of each of its rows (CSR):
/// row `r` holds `(idx[x], val[x])` for `x` in `off[r]..off[r+1]`, index
/// ascending.
#[derive(Debug, Clone)]
struct SparseRows {
    off: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SparseRows {
    /// The columns of `dense` (rows of `width` entries) as sparse rows:
    /// row `c` of the result lists the rows `i` of `dense` with a kept
    /// entry `dense[i][c]`, ascending.
    ///
    /// Only `+0.0` is dropped. A `-0.0` entry (a loaded artifact may hold
    /// one) is kept, so the updated belief keeps every sign bit of the
    /// dense product.
    fn columns(dense: &[Vec<f64>], width: usize) -> SparseRows {
        let mut off = Vec::with_capacity(width + 1);
        off.push(0);
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for c in 0..width {
            for (i, row) in dense.iter().enumerate() {
                if row[c].to_bits() != 0 {
                    idx.push(i as u32);
                    val.push(row[c]);
                }
            }
            off.push(idx.len() as u32);
        }
        SparseRows { off, idx, val }
    }

    /// The indices and values of row `r`.
    fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.off[r] as usize..self.off[r + 1] as usize;
        (&self.idx[span.clone()], &self.val[span])
    }
}

/// What one belief update reads: A by columns and B by symbols, each
/// without its zero entries, and the resynchronisation fallback beliefs.
///
/// A forward step `α'_j ∝ (Σ_i α_i A_ij) · b_j(s)` over these tables is
/// bit-identical to `Hmm::filter_step`. Beliefs are finite and
/// non-negative, so a skipped term `α_i · 0` or `(…) · 0` is `+0.0`, and
/// adding `+0.0` leaves a running sum unchanged: the sums start at `+0.0`
/// and so are never `-0.0`. The surviving terms keep their i-order and
/// j-order, and a skipped state's belief becomes `0 / l = +0.0`, as it
/// does in the dense update.
#[derive(Debug, Clone)]
pub(crate) struct ForwardFilter {
    /// Number of states.
    pub(crate) m: usize,
    /// Number of emission symbols.
    pub(crate) k: usize,
    /// Row `j` lists the states `i` with `A[i][j] ≠ 0`, ascending.
    a_cols: SparseRows,
    /// Row `s` lists the states `j` with `B[j][s] ≠ 0`, ascending.
    emit: SparseRows,
    /// Resynchronisation fallback beliefs: row `s` (length `m`, at offset
    /// `s*m`) is `Hmm::emission_belief(s)`, or all zeros when that symbol
    /// has no normalisable emission column.
    emission: Vec<f64>,
    /// Whether `emission` row `s` is a valid distribution.
    emission_ok: Vec<bool>,
}

impl ForwardFilter {
    /// Lowers the HMM's matrices; the values are the interpreter's, bit
    /// for bit.
    pub(crate) fn new(hmm: &Hmm) -> ForwardFilter {
        let m = hmm.num_states();
        let k = hmm.num_symbols();
        // Resync fallback beliefs, computed by the interpreter's own
        // emission_belief (same sum order, same division).
        let mut emission = vec![0.0f64; k * m];
        let mut emission_ok = vec![false; k];
        for s in 0..k {
            if let Some(alpha) = hmm.emission_belief(s) {
                emission[s * m..(s + 1) * m].copy_from_slice(&alpha);
                emission_ok[s] = true;
            }
        }
        ForwardFilter {
            m,
            k,
            a_cols: SparseRows::columns(hmm.a(), m),
            emit: SparseRows::columns(hmm.b(), k),
            emission,
            emission_ok,
        }
    }

    /// The reference walker's belief update for an observed symbol: one
    /// filter step, replaced by the symbol's emission belief when the
    /// step's likelihood is 0 and that belief exists. A symbol outside
    /// the HMM's alphabet leaves `belief` as it is. `scratch` needs one
    /// slot per state and is clobbered.
    pub(crate) fn update(&self, belief: &mut [f64], symbol: usize, scratch: &mut [f64]) {
        if symbol >= self.k {
            return;
        }
        let like = self.filter_step(belief, symbol, scratch);
        if like <= 0.0 && self.emission_ok[symbol] {
            let m = self.m;
            belief.copy_from_slice(&self.emission[symbol * m..(symbol + 1) * m]);
        }
    }

    /// `Hmm::filter_step` without its error paths: updates
    /// `belief` in place when the likelihood is positive and returns the
    /// likelihood. Only the states that can emit `symbol` are computed,
    /// each from the non-zero entries of its column of A.
    pub(crate) fn filter_step(
        &self,
        belief: &mut [f64],
        symbol: usize,
        scratch: &mut [f64],
    ) -> f64 {
        let (states, emit) = self.emit.row(symbol);
        let mut likelihood = 0.0;
        for ((&j, &bj), nj) in states.iter().zip(emit).zip(scratch.iter_mut()) {
            let (from, col) = self.a_cols.row(j as usize);
            let mut acc = 0.0;
            for (&i, &aij) in from.iter().zip(col) {
                acc += belief[i as usize] * aij;
            }
            *nj = acc * bj;
            likelihood += *nj;
        }
        if likelihood > 0.0 {
            belief.fill(0.0);
            for (&j, nj) in states.iter().zip(scratch.iter()) {
                belief[j as usize] = nj / likelihood;
            }
        }
        likelihood
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts the sparse step equals `Hmm::filter_step` from
    /// `belief` on every symbol: the same belief bits, and the same
    /// likelihood bits whenever it is positive.
    fn assert_step_matches(hmm: &Hmm, belief: &[f64]) {
        let filter = ForwardFilter::new(hmm);
        let m = hmm.num_states();
        for s in 0..hmm.num_symbols() {
            let mut want = belief.to_vec();
            let want_like = hmm.filter_step(&mut want, s, &mut vec![0.0; m]).unwrap();
            let mut got = belief.to_vec();
            let got_like = filter.filter_step(&mut got, s, &mut vec![0.0; m]);
            if want_like > 0.0 {
                assert_eq!(got_like.to_bits(), want_like.to_bits(), "symbol {s}");
            } else {
                assert!(got_like <= 0.0, "symbol {s}: {got_like}");
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "symbol {s}");
        }
    }

    /// A four-state model with zeros in every place the sparse tables
    /// skip: state 3 is never entered (an empty column of A), symbol 2 is
    /// never emitted (an empty column of B), and state 0 is entered only
    /// from itself.
    fn sparse_model() -> Hmm {
        Hmm::new(
            vec![
                vec![0.5, 0.5, 0.0, 0.0],
                vec![0.0, 0.25, 0.75, 0.0],
                vec![0.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.3, 0.7, 0.0],
            ],
            vec![
                vec![0.6, 0.4, 0.0, 0.0],
                vec![0.0, 1.0, 0.0, 0.0],
                vec![0.2, 0.0, 0.0, 0.8],
                vec![0.0, 0.0, 0.0, 1.0],
            ],
            vec![0.25; 4],
        )
        .unwrap()
    }

    #[test]
    fn sparse_step_is_bit_identical_to_the_dense_step() {
        let hmm = sparse_model();
        for belief in [
            vec![0.25; 4],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.1, 0.2, 0.3, 0.4],
            vec![0.0, 1.0 / 3.0, 2.0 / 3.0, 0.0],
        ] {
            assert_step_matches(&hmm, &belief);
        }
        // A dense model: nothing is skipped.
        let dense = Hmm::new(
            vec![vec![0.7, 0.3], vec![0.4, 0.6]],
            vec![vec![0.9, 0.1], vec![0.2, 0.8]],
            vec![0.6, 0.4],
        )
        .unwrap();
        assert_step_matches(&dense, &[0.35, 0.65]);
    }

    #[test]
    fn zero_likelihood_falls_back_to_the_emission_belief() {
        let hmm = sparse_model();
        let filter = ForwardFilter::new(&hmm);
        let mut scratch = vec![0.0; 4];

        // Symbol 3 is emitted by states 2 and 3 only, and state 0 reaches
        // neither in one step: from all belief on state 0 the step
        // collapses, and the update takes the emission belief instead.
        let mut belief = vec![1.0, 0.0, 0.0, 0.0];
        assert!(filter.filter_step(&mut belief.clone(), 3, &mut scratch) <= 0.0);
        filter.update(&mut belief, 3, &mut scratch);
        assert_eq!(belief, hmm.emission_belief(3).unwrap());

        // Symbol 2 is never emitted: no emission belief either, so the
        // belief is left as it was.
        let mut belief = vec![0.1, 0.2, 0.3, 0.4];
        filter.update(&mut belief, 2, &mut scratch);
        assert_eq!(hmm.emission_belief(2), None);
        assert_eq!(belief, vec![0.1, 0.2, 0.3, 0.4]);

        // A symbol beyond the alphabet is not evidence at all.
        filter.update(&mut belief, 9, &mut scratch);
        assert_eq!(belief, vec![0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn negative_zero_entries_keep_their_sign_in_the_belief() {
        // A loaded artifact may spell a zero probability `-0.0`; the dense
        // product then leaves `-0.0` in the belief, and so must the sparse
        // one.
        let hmm = Hmm::new(
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![vec![1.0, -0.0], vec![0.0, 1.0]],
            vec![0.5, 0.5],
        )
        .unwrap();
        assert_step_matches(&hmm, &[0.5, 0.5]);
        let mut belief = vec![0.5, 0.5];
        ForwardFilter::new(&hmm).filter_step(&mut belief, 1, &mut [0.0; 2]);
        assert_eq!(belief[0].to_bits(), (-0.0f64).to_bits());
    }
}
