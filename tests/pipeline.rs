//! End-to-end pipeline tests over the four paper benchmarks.
//!
//! These assert the *shape* of the paper's results on reduced trace
//! budgets: who tracks well, who does not, zero (or near-zero) wrong-state
//! predictions for the well-behaved IPs, and reproducibility of the whole
//! flow.

use psmgen::flow::{IpPreset, PsmFlow};
use psmgen::ips::{ip_by_name, testbench};

/// The preset flow for a benchmark, via the typed builder.
fn flow_for(name: &str) -> PsmFlow {
    let preset = IpPreset::from_name(name).expect("benchmark preset exists");
    PsmFlow::builder().preset(preset).build()
}

fn mre_for(name: &str, workload_cycles: usize) -> (f64, f64, usize) {
    let flow = flow_for(name);
    let mut ip = ip_by_name(name).expect("benchmark exists");
    let training = testbench::short_ts(name, 1).expect("benchmark exists");
    let model = flow
        .train(ip.as_mut(), &[training])
        .expect("training succeeds");
    let workload = testbench::long_ts(name, 7, workload_cycles).expect("benchmark exists");
    let est = flow
        .estimate(&model, ip.as_mut(), &workload)
        .expect("estimation succeeds");
    (
        est.mre_vs_reference().expect("non-empty"),
        est.outcome.wsp_rate(),
        model.stats.states,
    )
}

#[test]
fn ram_tracks_tightly_with_regression_calibration() {
    let (mre, wsp, states) = mre_for("RAM", 4_000);
    assert!(mre < 0.08, "RAM MRE {mre}");
    assert!(wsp < 0.01, "RAM WSP {wsp}");
    assert!((2..=15).contains(&states), "RAM states {states}");
}

#[test]
fn multsum_tracks_with_moderate_error() {
    let (mre, wsp, states) = mre_for("MultSum", 4_000);
    assert!(mre < 0.12, "MultSum MRE {mre}");
    assert!(wsp < 0.01, "MultSum WSP {wsp}");
    assert!((2..=10).contains(&states), "MultSum states {states}");
}

#[test]
fn aes_tracks_tightly() {
    let (mre, wsp, _) = mre_for("AES", 4_000);
    assert!(mre < 0.08, "AES MRE {mre}");
    assert!(wsp < 0.01, "AES WSP {wsp}");
}

#[test]
fn camellia_is_the_hard_benchmark() {
    // The paper's key contrast: Camellia's MRE is several times the other
    // IPs' because its subcomponents alternate invisibly.
    let (mre_camellia, _, _) = mre_for("Camellia", 4_000);
    let (mre_aes, _, _) = mre_for("AES", 4_000);
    assert!(mre_camellia > 0.10, "Camellia MRE {mre_camellia}");
    assert!(
        mre_camellia > 3.0 * mre_aes,
        "contrast lost: Camellia {mre_camellia} vs AES {mre_aes}"
    );
}

#[test]
fn training_is_deterministic() {
    let flow = flow_for("MultSum");
    let train = || {
        let mut ip = ip_by_name("MultSum").expect("benchmark exists");
        let training = testbench::short_ts("MultSum", 1).expect("benchmark exists");
        flow.train(ip.as_mut(), &[training])
            .expect("training succeeds")
    };
    let a = train();
    let b = train();
    assert_eq!(a.psm, b.psm);
    assert_eq!(a.hmm, b.hmm);
    assert_eq!(a.stats.states, b.stats.states);
}

#[test]
fn estimation_is_deterministic() {
    let flow = flow_for("RAM");
    let mut ip = ip_by_name("RAM").expect("benchmark exists");
    let training = testbench::short_ts("RAM", 1).expect("benchmark exists");
    let model = flow
        .train(ip.as_mut(), &[training])
        .expect("training succeeds");
    let workload = testbench::ram_long_ts(5, 1_500);
    let e1 = flow
        .estimate(&model, ip.as_mut(), &workload)
        .expect("estimates");
    let e2 = flow
        .estimate(&model, ip.as_mut(), &workload)
        .expect("estimates");
    assert_eq!(e1.outcome, e2.outcome);
    assert_eq!(e1.reference, e2.reference);
}

#[test]
fn more_training_data_does_not_blow_up_the_model() {
    // Paper §VI: PSMs from verification testbenches are already high
    // quality; long traces must not change the picture dramatically.
    let flow = flow_for("MultSum");
    let mut ip = ip_by_name("MultSum").expect("benchmark exists");
    let short = testbench::short_ts("MultSum", 1).expect("benchmark exists");
    let long = testbench::multsum_long_ts(2, 8_000);
    let small = flow
        .train(ip.as_mut(), std::slice::from_ref(&short))
        .expect("trains");
    let big = flow.train(ip.as_mut(), &[short, long]).expect("trains");
    assert!(
        big.stats.states <= small.stats.states * 4 + 4,
        "model exploded: {} -> {}",
        small.stats.states,
        big.stats.states
    );
}

#[test]
fn unknown_behaviour_is_flagged_not_fabricated() {
    // Train the RAM without ever exercising `clr`; a workload that pulses
    // it produces unknown-behaviour instants rather than silent nonsense.
    use psmgen::rtl::Stimulus;
    use psmgen::trace::Bits;
    let ram_cycle = |addr: u64, we: bool, re: bool, ce: bool, clr: bool| {
        vec![
            Bits::from_u64(addr, 8),
            Bits::from_u64(addr * 3, 32),
            Bits::from_bool(we),
            Bits::from_bool(re),
            Bits::from_bool(ce),
            Bits::from_bool(clr),
        ]
    };
    let mut training = Stimulus::new();
    for k in 0..400u64 {
        let phase = k % 20;
        if phase < 8 {
            training
                .push_cycle(ram_cycle(k % 256, true, false, true, false))
                .unwrap();
        } else if phase < 16 {
            training
                .push_cycle(ram_cycle(k % 256, false, true, true, false))
                .unwrap();
        } else {
            training
                .push_cycle(ram_cycle(0, false, false, false, false))
                .unwrap();
        }
    }
    let flow = flow_for("RAM");
    let mut ip = ip_by_name("RAM").expect("benchmark exists");
    let model = flow
        .train(ip.as_mut(), &[training.clone()])
        .expect("trains");

    let mut workload = training;
    workload
        .push_cycle(ram_cycle(1, false, false, true, true))
        .unwrap(); // clr never trained
    workload
        .push_cycle(ram_cycle(1, false, false, true, true))
        .unwrap();
    let est = flow
        .estimate(&model, ip.as_mut(), &workload)
        .expect("estimates");
    assert!(
        est.outcome.unknown_instants >= 2,
        "clr cycles must classify as unknown behaviour"
    );
}

#[test]
fn whitebox_probe_collapses_camellia_error() {
    // The paper's future-work hypothesis, as a regression test: exposing
    // which subcomponent is active lets the miner split the busy behaviour
    // and the MRE collapses.
    use psmgen::ips::{behavioural_trace, Camellia128Whitebox};
    let flow = flow_for("Camellia");
    let training = testbench::camellia_short_ts(1);
    let workload = testbench::camellia_long_ts(7, 4_000);

    let (mre_black, _, _) = mre_for("Camellia", 4_000);

    let mut wb = Camellia128Whitebox::new();
    let model = flow.train(&mut wb, &[training]).expect("training succeeds");
    let trace = behavioural_trace(&mut wb, &workload).expect("workload fits");
    let outcome = flow.estimate_from_trace(&model, &trace);
    let golden = flow
        .reference_power(&wb, &workload)
        .expect("capture succeeds");
    let mre_white =
        psmgen::stats::mean_relative_error(outcome.estimate.as_slice(), golden.as_slice())
            .expect("non-empty");
    assert!(
        mre_white < mre_black / 2.0,
        "white-box {mre_white} vs black-box {mre_black}"
    );
}

#[test]
fn hierarchical_model_estimates_and_attributes() {
    use psmgen::ips::{behavioural_trace, Camellia128Whitebox};
    let flow = flow_for("Camellia");
    let training = testbench::camellia_short_ts(1);
    let mut wb = Camellia128Whitebox::new();
    let model = flow
        .train_hierarchical(&mut wb, &[training])
        .expect("training succeeds");
    assert_eq!(model.domains.len(), 4); // core, key_sched, fl_unit, f_unit
    assert_eq!(model.models.len(), model.domains.len());

    let workload = testbench::camellia_long_ts(9, 3_000);
    let trace = behavioural_trace(&mut wb, &workload).expect("workload fits");
    let outcome = flow.estimate_hierarchical(&model, &trace);
    let golden = flow
        .reference_power(&wb, &workload)
        .expect("capture succeeds");
    let mre = psmgen::stats::mean_relative_error(outcome.estimate.as_slice(), golden.as_slice())
        .expect("non-empty");
    assert!(mre < 0.25, "hierarchical MRE {mre}");
}
