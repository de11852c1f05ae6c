//! Regenerates the paper's **Table II** — characteristics of the generated
//! PSMs.
//!
//! For every IP and both testset families (*short-TS* above the line,
//! *long-TS* below it): the testset length, the golden power-simulation
//! time (the PrimeTime-PX role), the PSM generation time, the state and
//! transition counts of the combined model, and the MRE of simulating the
//! PSMs back against the golden reference of the *same* testset.
//!
//! `PSM_BENCH_CYCLES` sizes the long testsets (default 60 000; the paper
//! uses 500 000).

use psm_bench::{flow, header, ip, long_ts, row, short_ts, BENCHMARKS};
use psm_ips::behavioural_trace;
use psm_rtl::Stimulus;

fn run_row(name: &str, label: &str, stimulus: &Stimulus) {
    let pipeline = flow(name);
    let mut core = ip(name);
    let model = pipeline
        .train(core.as_mut(), std::slice::from_ref(stimulus))
        .expect("training succeeds on benchmark stimuli");

    // Self-MRE: simulate the PSMs on the training workload and compare
    // against the golden reference (regenerated with the same seed).
    let functional =
        behavioural_trace(core.as_mut(), stimulus).expect("stimulus fits the interface");
    let outcome = pipeline.estimate_from_trace(&model, &functional);
    let reference = {
        // Reproduce the training reference exactly (same noise seed).
        let netlist = core.netlist().expect("netlist builds");
        psm_rtl::capture_traces_batch(
            &netlist,
            &pipeline.power_model,
            std::slice::from_ref(stimulus),
            &[pipeline.noise_seed],
        )
        .expect("capture succeeds")
        .remove(0)
        .power
    };
    let mre = psm_stats::mean_relative_error(outcome.estimate.as_slice(), reference.as_slice())
        .expect("non-empty traces");

    row(&[
        format!("{name} ({label})"),
        model.stats.training_instants.to_string(),
        format!("{:.2}", model.stats.reference_power_time.as_secs_f64()),
        format!("{:.2}", model.stats.generation_time.as_secs_f64()),
        model.stats.states.to_string(),
        model.stats.transitions.to_string(),
        format!("{:.2} %", mre * 100.0),
    ]);
}

fn main() {
    println!("# Table II — characteristics of the generated PSMs\n");
    header(&[
        "IP",
        "TS",
        "PX (s)",
        "PSMs gen. (s)",
        "States",
        "Trans.",
        "MRE",
    ]);
    for name in BENCHMARKS {
        run_row(name, "short-TS", &short_ts(name));
    }
    for name in BENCHMARKS {
        run_row(name, "long-TS", &long_ts(name));
    }
    println!("\npaper reference (short-TS MRE): RAM 0.30 %, MultSum 4.03 %,");
    println!("AES 3.45 %, Camellia 32.66 %  (long-TS within ~0.4 % of short-TS)");
}
