//! Dynamic-power-management exploration — the use case the paper's
//! introduction motivates: once an IP has a trained PSM, a system architect
//! can compare the energy of alternative workload schedules in milliseconds
//! instead of re-running gate-level power simulation for each candidate.
//!
//! Here: the same 96 MAC jobs executed back-to-back (race-to-idle) versus
//! spread out with gaps (always-on) — the PSM prices both instantly, and
//! the golden simulator confirms the ranking.
//!
//! ```sh
//! cargo run --release --example dpm_exploration
//! ```

#![deny(deprecated)]

use psmgen::flow::{IpPreset, PsmFlow};
use psmgen::ips::{behavioural_trace, testbench, Ip, MultSum};
use psmgen::rtl::Stimulus;
use psmgen::trace::{Bits, TraceError};
use std::time::Instant;

fn mac_cycle(a: u64, b: u64, en: bool) -> Vec<Bits> {
    vec![
        Bits::from_u64(a, 16),
        Bits::from_u64(b, 16),
        Bits::from_bool(en),
        Bits::from_bool(false),
    ]
}

/// `jobs` bursts of `len` MACs separated by `gap` idle cycles. Each cycle
/// is checked against the MAC's inputs as it is pushed.
fn schedule(jobs: usize, len: usize, gap: usize) -> Result<Stimulus, TraceError> {
    let mut s = Stimulus::for_inputs(&MultSum::new().signals());
    let mut x = 0x1234_5678u64;
    for _ in 0..10 {
        s.push_cycle(mac_cycle(0, 0, false))?;
    }
    let mut last = (0, 0);
    for _ in 0..jobs {
        for _ in 0..len {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            last = ((x >> 16) & 0xFFFF, (x >> 32) & 0xFFFF);
            s.push_cycle(mac_cycle(last.0, last.1, true))?;
        }
        for _ in 0..gap {
            s.push_cycle(mac_cycle(last.0, last.1, false))?;
        }
    }
    Ok(s)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let mut mac = MultSum::new();
    let model = flow.train(&mut mac, &[testbench::multsum_short_ts(1)])?;
    println!(
        "MAC power model trained ({} states) in {:?}\n",
        model.stats.states, model.stats.generation_time
    );

    // Two schedules with identical total work (96 × 32 MACs).
    let candidates = [
        (
            "race-to-idle (3 bursts × 1024, long gaps)",
            schedule(3, 1024, 1024)?,
        ),
        (
            "always-on (96 bursts × 32, short gaps)",
            schedule(96, 32, 32)?,
        ),
    ];

    for (label, stim) in &candidates {
        let t0 = Instant::now();
        let trace = behavioural_trace(&mut mac, stim)?;
        let outcome = flow.estimate_from_trace(&model, &trace);
        let psm_time = t0.elapsed();
        let psm_energy = outcome.estimate.total_energy();

        let t0 = Instant::now();
        let golden = flow.reference_power(&mac, stim)?;
        let golden_time = t0.elapsed();

        println!("{label}:");
        println!(
            "  PSM estimate: {:9.1} mW·cycles in {:?}",
            psm_energy, psm_time
        );
        println!(
            "  golden:       {:9.1} mW·cycles in {:?}  (estimate off by {:+.1} %)",
            golden.total_energy(),
            golden_time,
            100.0 * (psm_energy - golden.total_energy()) / golden.total_energy()
        );
    }
    println!("\nThe PSM ranks the schedules like the golden simulator, at a fraction");
    println!("of the cost — the early-DPM-exploration workflow of the paper's intro.");
    Ok(())
}
