//! Golden hashes of what the whole flow produces: the model JSON of all
//! four paper benchmarks trained with their preset on short-TS seed 7,
//! and each model's estimate of a 5 000-cycle long-TS seed-11 workload.
//!
//! A refactor of mining, calibration, classification or the forward pass
//! that changes any model byte or estimate bit fails here. It takes about
//! 5 s in a debug build and under 1 s in release, so it runs by default.

use psmgen::flow::{IpPreset, PsmFlow};
use psmgen::ips::{behavioural_trace, ip_by_name, testbench};

/// FNV-1a over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per benchmark: the FNV-1a hash of the trained model's
/// `to_json_string`, then the hash of the estimate's bits and its
/// wrong-state and unknown-instant counts.
#[test]
fn trained_models_and_estimates_match_golden_hashes() {
    let golden: [(IpPreset, u64, u64, usize, usize); 4] = [
        (
            IpPreset::Ram1k,
            0x0253_79ee_e23f_583d,
            0xc4f9_87c2_e394_e64f,
            0,
            0,
        ),
        (
            IpPreset::MultSum,
            0xf436_93eb_2276_3f82,
            0x1a6a_9823_4b64_4362,
            0,
            0,
        ),
        (
            IpPreset::Aes,
            0x562d_79a4_ea9c_c9b3,
            0x50cb_8c68_bef3_8655,
            0,
            0,
        ),
        (
            IpPreset::Camellia,
            0x6f62_57a2_ae24_740b,
            0x2c30_0275_2bfe_2009,
            3,
            0,
        ),
    ];
    for (preset, model_hash, estimate_hash, wrong, unknown) in golden {
        let name = preset.benchmark_name();
        let flow = PsmFlow::builder().preset(preset).build();
        let mut ip = ip_by_name(name).expect("benchmark exists");
        let training = testbench::short_ts(name, 7).expect("benchmark exists");
        let model = flow
            .train(ip.as_mut(), &[training])
            .expect("training succeeds");
        let json = model.to_json_string();

        let workload = testbench::long_ts(name, 11, 5_000).expect("benchmark exists");
        let trace = behavioural_trace(ip.as_mut(), &workload).expect("workload fits");
        let outcome = flow.estimate_from_trace(&model, &trace);
        let bits = fnv(outcome
            .estimate
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes()));
        assert_eq!(outcome.estimate.len(), trace.len(), "{name}");
        assert!(trace.len() >= 5_000, "{name}");
        assert_eq!(fnv(json.bytes()), model_hash, "{name}: model JSON");
        assert_eq!(bits, estimate_hash, "{name}: estimate bits");
        assert_eq!(outcome.wrong_state_predictions, wrong, "{name}: WSP");
        assert_eq!(outcome.unknown_instants, unknown, "{name}: unknown");
    }
}
