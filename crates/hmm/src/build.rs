//! Constructing the HMM λ = (A, B, π) from a joined PSM (paper §V).

use crate::model::Hmm;
use psm_core::Psm;

/// Maps a (joined, possibly non-deterministic) PSM onto an HMM:
///
/// * one hidden state per PSM state;
/// * `A[i][j]`: the PSM's transition structure. Self-loop mass models the
///   state's dwell time — a state entered `w` times covering `n` training
///   instants dwells `n/w` instants on average, so `A[i][i] = 1 − w/n`
///   (the geometric-dwell approximation; exactly 0 for `next` states).
///   The remaining mass is split evenly over the distinct outgoing
///   transitions, following the paper's transition counting. States with
///   no successor are absorbing.
/// * `B[j][k]`: how often proposition `k` appears as the *observed* (left)
///   proposition of an assertion characterising state `j`, each chain
///   weighted by the multiplicity `join` gave it — the paper's b_jk. The
///   sums are of small integers, exact in `f64` in any order, so a count
///   of `n` adds exactly what `n` copies of the chain would;
/// * `π`: the number of training traces that started in each initial
///   state.
///
/// `num_symbols` is the total proposition count of the mining table (so
/// that symbols never emitted by any state still index valid, zero
/// columns).
///
/// # Panics
///
/// Panics if the PSM has no states or `num_symbols` is zero.
///
/// # Examples
///
/// Derive the HMM of a two-state idle/busy PSM generated from a short
/// training trace:
///
/// ```
/// use psm_core::{generate_psm, join, MergePolicy};
/// use psm_hmm::build_hmm;
/// use psm_mining::PropositionTrace;
/// use psm_trace::PowerTrace;
///
/// // Six idle cycles (proposition 0), four busy ones (proposition 1), twice.
/// let props = [0u32, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1];
/// let power: PowerTrace = props.iter().map(|&p| if p == 0 { 3.0 } else { 9.0 }).collect();
/// let psm = generate_psm(&PropositionTrace::from_indices(&props), &power, 0)?;
/// let joined = join(&[psm], &MergePolicy::default());
///
/// let hmm = build_hmm(&joined, 2);
/// assert_eq!(hmm.num_states(), joined.state_count());
/// assert_eq!(hmm.num_symbols(), 2);
/// // Long dwell times become strong self-loops.
/// assert!(hmm.a()[0][0] > 0.5);
/// # Ok::<(), psm_core::CoreError>(())
/// ```
pub fn build_hmm(psm: &Psm, num_symbols: usize) -> Hmm {
    let m = psm.state_count();
    assert!(m > 0, "cannot build an HMM from an empty PSM");
    assert!(num_symbols > 0, "need at least one observation symbol");

    // --- A ---------------------------------------------------------------
    let mut a = vec![vec![0.0f64; m]; m];
    for (id, state) in psm.states() {
        let i = id.index();
        let n = state.attrs().n() as f64;
        let entries = state.windows().len().max(1) as f64;
        let self_prob = if n > entries { 1.0 - entries / n } else { 0.0 };
        let succ: Vec<usize> = psm.successors(id).map(|t| t.to.index()).collect();
        if succ.is_empty() {
            a[i][i] = 1.0; // absorbing
            continue;
        }
        a[i][i] += self_prob;
        let share = (1.0 - self_prob) / succ.len() as f64;
        for j in succ {
            a[i][j] += share;
        }
    }

    // --- B ---------------------------------------------------------------
    let mut b = vec![vec![0.0f64; num_symbols]; m];
    for (id, state) in psm.states() {
        let i = id.index();
        for (chain, &count) in state.chains().iter().zip(state.counts()) {
            for part in chain.parts() {
                let k = part.left().index();
                if k < num_symbols {
                    b[i][k] += count as f64;
                }
            }
        }
        // A state whose propositions all fall outside the symbol range
        // would have a zero row; emit uniformly as a safe fallback.
        if b[i].iter().sum::<f64>() <= 0.0 {
            b[i].iter_mut().for_each(|v| *v = 1.0);
        }
    }

    // --- π ---------------------------------------------------------------
    let mut pi = vec![0.0f64; m];
    for (s, count) in psm.initials() {
        pi[s.index()] += *count as f64;
    }
    if pi.iter().sum::<f64>() <= 0.0 {
        pi.iter_mut().for_each(|v| *v = 1.0);
    }

    Hmm::new(a, b, pi).expect("PSM-derived matrices are well-formed by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_core::{generate_psm, join, MergePolicy};
    use psm_mining::PropositionTrace;
    use psm_trace::PowerTrace;

    fn alternating_psm() -> Psm {
        // idle(6) busy(4) idle(6) busy(4) idle(2, dropped tail)
        let mut props = Vec::new();
        let mut power = Vec::new();
        for &(id, mw, len) in &[
            (0u32, 3.0, 6),
            (1, 9.0, 4),
            (0, 3.0, 6),
            (1, 9.0, 4),
            (0, 3.0, 2),
        ] {
            for k in 0..len {
                props.push(id);
                power.push(mw + 0.002 * (k % 3) as f64);
            }
        }
        let gamma = PropositionTrace::from_indices(&props);
        let delta: PowerTrace = power.into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).unwrap();
        join(&[psm], &MergePolicy::default())
    }

    #[test]
    fn dimensions_match_psm() {
        let psm = alternating_psm();
        let hmm = build_hmm(&psm, 3);
        assert_eq!(hmm.num_states(), psm.state_count());
        assert_eq!(hmm.num_symbols(), 3);
    }

    #[test]
    fn dwell_probabilities_follow_run_lengths() {
        let psm = alternating_psm();
        let hmm = build_hmm(&psm, 3);
        let idle = psm
            .states()
            .find(|(_, s)| (s.attrs().mu() - 3.0).abs() < 0.1)
            .unwrap()
            .0
            .index();
        let busy = psm
            .states()
            .find(|(_, s)| (s.attrs().mu() - 9.0).abs() < 0.1)
            .unwrap()
            .0
            .index();
        // Idle dwells 6 instants per entry → self prob 1 - 2/12 ≈ 0.833.
        assert!((hmm.a()[idle][idle] - (1.0 - 2.0 / 12.0)).abs() < 1e-9);
        // Busy dwells 4 instants per entry → 1 - 2/8 = 0.75.
        assert!((hmm.a()[busy][busy] - 0.75).abs() < 1e-9);
        // Off-diagonal mass flows to the other state.
        assert!(hmm.a()[idle][busy] > 0.0);
        assert!(hmm.a()[busy][idle] > 0.0);
    }

    #[test]
    fn emissions_reflect_join_multiplicity() {
        let psm = alternating_psm();
        let hmm = build_hmm(&psm, 3);
        let idle = psm
            .states()
            .find(|(_, s)| (s.attrs().mu() - 3.0).abs() < 0.1)
            .unwrap()
            .0
            .index();
        // The idle state emits only proposition 0.
        assert!((hmm.b()[idle][0] - 1.0).abs() < 1e-12);
        assert_eq!(hmm.b()[idle][1], 0.0);
    }

    /// B built from chain counts equals B built from every copy the
    /// counts stand for, each added on its own and interleaved across
    /// chains, bit for bit.
    #[test]
    fn emissions_from_counts_equal_emissions_from_expanded_copies() {
        // Twelve traces repeating four behaviours with varying dwell
        // times: join folds hundreds of equal chains into counts.
        let psms: Vec<Psm> = (0..12usize)
            .map(|trace| {
                let mut props = Vec::new();
                let mut power = Vec::new();
                for rep in 0..20usize {
                    for &(id, mw, len) in &[
                        (0u32, 3.0, 2 + (rep + trace) % 4),
                        (1, 9.0, 2),
                        (2, 9.0, 1 + rep % 2),
                        (3, 5.0, 3),
                    ] {
                        for k in 0..len {
                            props.push(id);
                            power.push(mw + 0.002 * (k % 3) as f64);
                        }
                    }
                }
                let delta: PowerTrace = power.into_iter().collect();
                generate_psm(&PropositionTrace::from_indices(&props), &delta, trace).unwrap()
            })
            .collect();
        let joined = join(&psms, &MergePolicy::default());
        assert!(
            joined
                .states()
                .any(|(_, s)| s.counts().iter().any(|&n| n >= 10)),
            "join must fold many copies"
        );
        let hmm = build_hmm(&joined, 4);

        let m = joined.state_count();
        let mut b = vec![vec![0.0f64; 4]; m];
        for (id, state) in joined.states() {
            let mut left = state.counts().to_vec();
            while left.iter().any(|&n| n > 0) {
                for (chain, n) in state.chains().iter().zip(&mut left) {
                    if *n > 0 {
                        *n -= 1;
                        for part in chain.parts() {
                            b[id.index()][part.left().index()] += 1.0;
                        }
                    }
                }
            }
        }
        let identity = (0..m)
            .map(|i| (0..m).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        let copies = Hmm::new(identity, b, vec![1.0; m]).unwrap();
        for (i, (got, want)) in hmm.b().iter().zip(copies.b()).enumerate() {
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "B row {i}");
        }
    }

    #[test]
    fn pi_counts_initial_traces() {
        let a = alternating_psm();
        let hmm = build_hmm(&a, 3);
        // A single training trace: π is concentrated on its initial state.
        let init = a.initials()[0].0.index();
        assert!((hmm.pi()[init] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn terminal_states_are_absorbing() {
        // A pure chain (no join): the last state has no successor.
        let gamma = PropositionTrace::from_indices(&[0, 0, 1, 1, 2, 2, 3]);
        let delta: PowerTrace = [1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 2.0].into_iter().collect();
        let psm = generate_psm(&gamma, &delta, 0).unwrap();
        let hmm = build_hmm(&psm, 4);
        let last = psm.state_count() - 1;
        assert!((hmm.a()[last][last] - 1.0).abs() < 1e-12);
    }
}
