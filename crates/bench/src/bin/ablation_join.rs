//! Ablation: the `join` optimisation (paper §IV).
//!
//! Trains each benchmark on *two* traces and combines the per-trace PSMs
//! either with the paper's `join` (mergeable states collapse across PSMs)
//! or with a disjoint union (a merge policy that never fires). Without
//! `join` the model balloons and every behaviour the second trace shares
//! with the first is duplicated — the HMM still works, but the model is
//! bigger and resynchronises more.

use psm_bench::{flow, header, ip, row, short_ts, BENCHMARKS};
use psm_core::{calibrate, classify_trace, generate_psm, join, simplify, MergePolicy};
use psm_hmm::{build_hmm, HmmSimulator};
use psm_ips::{behavioural_trace, testbench};
use psm_mining::Miner;
use psm_rtl::capture_traces_batch;
use psm_trace::{FunctionalTrace, PowerTrace};

fn main() {
    println!("# Ablation — join on/off (two training traces)\n");
    header(&["IP", "Join", "States", "Trans.", "MRE", "WSP"]);
    for name in BENCHMARKS {
        let pipeline = flow(name);
        let netlist = ip(name).netlist().expect("netlist builds");
        let stimuli = [
            short_ts(name),
            testbench::long_ts(name, 2, 6_000).expect("benchmark names are valid"),
        ];
        let seeds: Vec<u64> = (0..stimuli.len() as u64)
            .map(|i| pipeline.noise_seed + i)
            .collect();
        let caps = capture_traces_batch(&netlist, &pipeline.power_model, &stimuli, &seeds)
            .expect("capture succeeds");
        let functional: Vec<&FunctionalTrace> = caps.iter().map(|c| &c.functional).collect();
        let power: Vec<&PowerTrace> = caps.iter().map(|c| &c.power).collect();
        let mined = Miner::new(pipeline.mining)
            .mine(&functional)
            .expect("mining succeeds");

        // A policy that never merges: ε = 0 and a rejection level so high
        // the t-tests always reject.
        let never = MergePolicy::new(0.0, 0.999).with_mean_tolerance_override(false);

        for (label, policy) in [("on", pipeline.merge), ("off", never)] {
            let mut psms = Vec::new();
            for (i, gamma) in mined.traces.iter().enumerate() {
                let mut psm = generate_psm(gamma, power[i], i).expect("generation succeeds");
                simplify(&mut psm, &pipeline.merge); // simplify stays on
                psms.push(psm);
            }
            let mut combined = join(&psms, &policy);
            let training: Vec<(&FunctionalTrace, &PowerTrace)> = functional
                .iter()
                .copied()
                .zip(power.iter().copied())
                .collect();
            calibrate(&mut combined, &training, &pipeline.calibration)
                .expect("calibration succeeds");
            let hmm = build_hmm(&combined, mined.table.len());

            // The non-joined model has hundreds of states; its O(states²)
            // filtering makes long workloads impractical, and the point
            // (model size vs accuracy) shows at moderate length.
            let workload =
                psm_ips::testbench::long_ts(name, 7, 10_000).expect("benchmark names are valid");
            let mut core = ip(name);
            let trace = behavioural_trace(core.as_mut(), &workload).expect("workload fits");
            let obs = classify_trace(&mined.table, &trace);
            let hamming = trace.input_hamming_series();
            let outcome = HmmSimulator::new(&combined, hmm).run(&obs, &hamming);
            let reference = pipeline
                .reference_power(core.as_ref(), &workload)
                .expect("capture succeeds");
            let mre =
                psm_stats::mean_relative_error(outcome.estimate.as_slice(), reference.as_slice())
                    .expect("non-empty traces");
            row(&[
                name.to_owned(),
                label.to_owned(),
                combined.state_count().to_string(),
                combined.transition_count().to_string(),
                format!("{:.2} %", mre * 100.0),
                format!("{:.2} %", outcome.wsp_rate() * 100.0),
            ]);
        }
    }
}
