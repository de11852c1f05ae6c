//! Micro-benchmarks of the substrate layers: gate-level simulation
//! throughput, bit-vector operations, statistics and HMM filtering.
//!
//! ```sh
//! cargo bench -p psm-bench --bench substrate
//! ```

use psm_bench::ip;
use psm_bench::timing::{bench, bench_throughput};
use psm_rtl::Simulator;
use psm_stats::{welch_t_test, OnlineStats};
use psm_trace::Bits;

fn gate_sim() {
    for name in ["MultSum", "AES", "Camellia"] {
        let netlist = ip(name).netlist().expect("netlist builds");
        let mut sim = Simulator::new(&netlist).expect("acyclic");
        let inputs = sim.input_handles();
        let widths: Vec<usize> = {
            let set = netlist.signal_set();
            inputs
                .iter()
                .map(|(n, _)| set.decl(set.by_name(n).expect("port exists")).width())
                .collect()
        };
        let mut k = 0u64;
        bench_throughput(&format!("{name}_100_cycles"), 100, || {
            for _ in 0..100 {
                k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
                for ((_, h), w) in inputs.iter().zip(&widths) {
                    sim.set_input_by_handle(*h, &Bits::from_u64(k, (*w).min(64)))
                        .ok();
                }
                std::hint::black_box(sim.step());
            }
        });
    }
}

fn bits_ops() {
    let a = Bits::from_le_bytes(&[0xA5; 32], 256);
    let b = Bits::from_le_bytes(&[0x3C; 32], 256);
    bench("bits_hamming_256", || {
        a.hamming_distance(&b).expect("equal widths")
    });
    bench("bits_xor_256", || a.clone() ^ b.clone());
}

fn stats_ops() {
    let xs: OnlineStats = (0..1000).map(|i| 3.0 + 0.01 * (i % 7) as f64).collect();
    let ys: OnlineStats = (0..800).map(|i| 3.01 + 0.01 * (i % 5) as f64).collect();
    bench("welch_t_test", || welch_t_test(&xs, &ys).expect("n >= 2"));
}

fn hmm_filter() {
    let m = 16;
    let a = vec![vec![1.0; m]; m];
    let bm = vec![vec![1.0; 8]; m];
    let pi = vec![1.0; m];
    let hmm = psm_hmm::Hmm::new(a, bm, pi).expect("well-formed");
    bench("hmm_filter_1000_steps", || {
        let mut belief = hmm.initial_belief(0).expect("symbol in range");
        let mut scratch = vec![0.0; m];
        for t in 0..1000 {
            hmm.filter_step(&mut belief, t % 8, &mut scratch)
                .expect("in range");
        }
        belief
    });
}

fn main() {
    gate_sim();
    bits_ops();
    stats_ops();
    hmm_filter();
}
