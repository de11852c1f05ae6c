//! Randomised property tests of the HMM layer, driven by the workspace
//! PRNG so runs are deterministic and offline.

use psm_hmm::Hmm;
use psm_prng::Prng;

const CASES: usize = 128;

fn random_hmm(rng: &mut Prng) -> Hmm {
    let m = 2 + rng.range_usize(0..6);
    let k = 2 + rng.range_usize(0..4);
    let row =
        |rng: &mut Prng, n: usize| -> Vec<f64> { (0..n).map(|_| rng.f64_in(0.01, 1.0)).collect() };
    let a: Vec<Vec<f64>> = (0..m).map(|_| row(rng, m)).collect();
    let b: Vec<Vec<f64>> = (0..m).map(|_| row(rng, k)).collect();
    let pi = row(rng, m);
    Hmm::new(a, b, pi).expect("strictly positive weights")
}

fn random_obs(rng: &mut Prng, k: usize, lo: usize, hi: usize) -> Vec<usize> {
    let n = lo + rng.range_usize(0..hi - lo);
    (0..n).map(|_| rng.range_usize(0..k)).collect()
}

#[test]
fn construction_normalises_all_rows() {
    let mut rng = Prng::seed_from_u64(0x4447_0001);
    for _ in 0..CASES {
        let hmm = random_hmm(&mut rng);
        for row in hmm.a() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for row in hmm.b() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!((hmm.pi().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn filtering_preserves_normalisation() {
    let mut rng = Prng::seed_from_u64(0x4447_0002);
    for _ in 0..CASES {
        let hmm = random_hmm(&mut rng);
        let k = hmm.num_symbols();
        let obs = random_obs(&mut rng, k, 1, 60);
        let Some(mut belief) = hmm.initial_belief(obs[0]) else {
            continue;
        };
        let mut scratch = vec![0.0; hmm.num_states()];
        for &o in &obs[1..] {
            hmm.filter_step(&mut belief, o, &mut scratch)
                .expect("in range");
            let sum: f64 = belief.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "belief sum {}", sum);
            assert!(belief.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }
}
