//! Micro-benchmarks of the PSM pipeline stages: assertion mining, PSM
//! generation + optimisation, and HMM-driven estimation throughput.
//!
//! ```sh
//! cargo bench -p psm-bench --bench pipeline
//! ```

use psm_bench::timing::{bench, bench_throughput};
use psm_bench::{flow, ip};
use psm_core::{classify_trace, generate_psm, join, simplify};
use psm_hmm::{build_hmm, HmmSimulator};
use psm_ips::{behavioural_trace, testbench};
use psm_mining::Miner;
use psm_rtl::capture_traces_batch;

fn mining() {
    let pipeline = flow("MultSum");
    let netlist = ip("MultSum").netlist().expect("netlist builds");
    let stim = testbench::multsum_short_ts(1);
    let cap = capture_traces_batch(&netlist, &pipeline.power_model, &[stim], &[1])
        .expect("capture succeeds")
        .remove(0);

    let miner = Miner::new(pipeline.mining);
    bench_throughput("mine_multsum_short_ts", cap.functional.len(), || {
        miner.mine(&[&cap.functional]).expect("mines")
    });

    let mined = miner.mine(&[&cap.functional]).expect("mines");
    bench("generate_simplify_join", || {
        let mut psm = generate_psm(&mined.traces[0], &cap.power, 0).expect("generates");
        simplify(&mut psm, &pipeline.merge);
        join(&[psm], &pipeline.merge)
    });
}

fn estimation() {
    let pipeline = flow("MultSum");
    let mut core = ip("MultSum");
    let model = pipeline
        .train(core.as_mut(), &[testbench::multsum_short_ts(1)])
        .expect("trains");
    let workload = testbench::multsum_long_ts(3, 5_000);
    let trace = behavioural_trace(core.as_mut(), &workload).expect("workload fits");
    let obs = classify_trace(&model.table, &trace);
    let hamming = trace.input_hamming_series();

    bench_throughput("hmm_estimate_5k_cycles", obs.len(), || {
        let sim = HmmSimulator::new(&model.psm, model.hmm.clone());
        sim.run(&obs, &hamming)
    });
    bench_throughput("classify_5k_cycles", obs.len(), || {
        classify_trace(&model.table, &trace)
    });
    bench("hmm_build", || build_hmm(&model.psm, model.table.len()));
}

fn main() {
    mining();
    estimation();
}
