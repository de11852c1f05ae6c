//! Randomised property tests of PSM generation and optimisation
//! invariants, driven by the workspace PRNG so runs are deterministic and
//! offline.

use psm_core::{generate_psm, join, mine_xu_assertions, simplify, MergePolicy, Psm, StateId};
use psm_mining::{PropositionId, PropositionTrace, TemporalPattern};
use psm_prng::Prng;
use psm_trace::PowerTrace;

const CASES: usize = 128;

/// Where a deterministic walk sits: state, chain, part, and whether a
/// `next` part already consumed its single left instant.
type Cursor = (StateId, usize, usize, bool);

/// Instants a deterministic walk of `psm` spends out of synchronisation
/// while replaying `gamma` (paper §III-C). The walk starts lost, enters
/// the lowest state with a chain whose entry proposition is observed,
/// follows `until`/`next` parts and guarded transitions, and loses sync
/// on any observation its current part does not allow.
fn replay_sync_losses(psm: &Psm, gamma: &PropositionTrace) -> usize {
    let enter = |state: StateId, chain: usize| -> Cursor {
        let part = psm.state(state).chains()[chain].parts()[0];
        (state, chain, 0, part.pattern() == TemporalPattern::Next)
    };
    let resync = |o: PropositionId| {
        psm.states().find_map(|(id, s)| {
            let chain = s.chains().iter().position(|c| c.entry_proposition() == o)?;
            Some(enter(id, chain))
        })
    };
    let advance = |(state, chain, part, consumed): Cursor, o: PropositionId| {
        let parts = psm.state(state).chains()[chain].parts();
        let current = parts[part];
        if o == current.left() && !consumed && current.pattern() == TemporalPattern::Until {
            return Some((state, chain, part, consumed));
        }
        if o != current.right() {
            return None;
        }
        if let Some(next) = parts.get(part + 1) {
            return Some((
                state,
                chain,
                part + 1,
                next.pattern() == TemporalPattern::Next,
            ));
        }
        let to = psm.successors(state).find(|t| t.guard == o)?.to;
        let chain = psm
            .state(to)
            .chains()
            .iter()
            .position(|c| c.entry_proposition() == o)?;
        Some(enter(to, chain))
    };
    let mut cursor = None;
    let mut lost = 0;
    for o in gamma.iter() {
        cursor = match cursor {
            None => resync(o),
            Some(c) => advance(c, o),
        };
        lost += usize::from(cursor.is_none());
    }
    lost
}

/// A proposition trace as run-length phases plus a matching power trace.
fn random_phases(rng: &mut Prng) -> (PropositionTrace, PowerTrace) {
    let n = 2 + rng.range_usize(0..10);
    let mut props = Vec::new();
    let mut power = Vec::new();
    for _ in 0..n {
        let id = rng.range_u32(0..5);
        let mw = rng.f64_in(0.5, 10.0);
        let len = 1 + rng.range_usize(0..7);
        for k in 0..len {
            props.push(id);
            power.push(mw + 0.002 * (k % 3) as f64);
        }
    }
    (
        PropositionTrace::from_indices(&props),
        power.into_iter().collect(),
    )
}

#[test]
fn xu_intervals_partition_the_recognised_prefix() {
    let mut rng = Prng::seed_from_u64(0xC04E_0001);
    for _ in 0..CASES {
        let (gamma, _) = random_phases(&mut rng);
        let mined = mine_xu_assertions(&gamma);
        let mut expected = 0usize;
        for m in &mined {
            assert_eq!(m.start, expected);
            assert!(m.stop >= m.start);
            // Within the interval the left proposition holds throughout.
            for t in m.start..=m.stop {
                assert_eq!(gamma.id(t), m.assertion.left());
            }
            // The right proposition is observed immediately after.
            assert_eq!(gamma.get(m.stop + 1), Some(m.assertion.right()));
            expected = m.stop + 1;
        }
    }
}

#[test]
fn generation_accounts_every_recognised_instant() {
    let mut rng = Prng::seed_from_u64(0xC04E_0002);
    for _ in 0..CASES {
        let (gamma, delta) = random_phases(&mut rng);
        if let Ok(psm) = generate_psm(&gamma, &delta, 0) {
            let mined = mine_xu_assertions(&gamma);
            let covered: usize = mined.iter().map(|m| m.stop - m.start + 1).sum();
            let total_n: u64 = psm.states().map(|(_, s)| s.attrs().n()).sum();
            assert_eq!(total_n as usize, covered);
        }
    }
}

#[test]
fn simplify_preserves_total_energy() {
    let mut rng = Prng::seed_from_u64(0xC04E_0003);
    for _ in 0..CASES {
        let (gamma, delta) = random_phases(&mut rng);
        if let Ok(mut psm) = generate_psm(&gamma, &delta, 0) {
            let energy = |p: &psm_core::Psm| -> f64 {
                p.states()
                    .map(|(_, s)| s.attrs().mu() * s.attrs().n() as f64)
                    .sum()
            };
            let before = energy(&psm);
            simplify(&mut psm, &MergePolicy::default());
            assert!((energy(&psm) - before).abs() < 1e-6 * (1.0 + before.abs()));
        }
    }
}

#[test]
fn simplify_is_idempotent() {
    let mut rng = Prng::seed_from_u64(0xC04E_0004);
    for _ in 0..CASES {
        let (gamma, delta) = random_phases(&mut rng);
        if let Ok(mut psm) = generate_psm(&gamma, &delta, 0) {
            let policy = MergePolicy::default();
            simplify(&mut psm, &policy);
            let after_first = psm.clone();
            let more = simplify(&mut psm, &policy);
            assert_eq!(more, 0);
            assert_eq!(psm, after_first);
        }
    }
}

#[test]
fn join_preserves_instants_and_energy() {
    let mut rng = Prng::seed_from_u64(0xC04E_0005);
    for _ in 0..CASES {
        let (gamma, delta) = random_phases(&mut rng);
        if let Ok(psm) = generate_psm(&gamma, &delta, 0) {
            let energy = |p: &psm_core::Psm| -> f64 {
                p.states()
                    .map(|(_, s)| s.attrs().mu() * s.attrs().n() as f64)
                    .sum()
            };
            let count = |p: &psm_core::Psm| -> u64 { p.states().map(|(_, s)| s.attrs().n()).sum() };
            let (e0, n0) = (energy(&psm), count(&psm));
            let joined = join(&[psm], &MergePolicy::default());
            assert_eq!(count(&joined), n0);
            assert!((energy(&joined) - e0).abs() < 1e-6 * (1.0 + e0.abs()));
            // Join never increases the state count.
            assert!(joined.state_count() as u64 <= n0);
        }
    }
}

#[test]
fn deterministic_replay_of_training_trace_never_desyncs_midway() {
    let mut rng = Prng::seed_from_u64(0xC04E_0006);
    for _ in 0..CASES {
        let (gamma, delta) = random_phases(&mut rng);
        // Replaying the exact training observations through a deterministic
        // chain PSM loses sync only in the dropped tail, never before.
        if let Ok(psm) = generate_psm(&gamma, &delta, 0) {
            if psm.is_deterministic() {
                let lost = replay_sync_losses(&psm, &gamma);
                let mined = mine_xu_assertions(&gamma);
                let recognised_until = mined.last().expect("non-empty").stop;
                let tail = gamma.len() - 1 - recognised_until;
                assert!(
                    lost <= tail + 1,
                    "lost {lost} instants with a tail of {tail}"
                );
            }
        }
    }
}
