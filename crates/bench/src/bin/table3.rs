//! Regenerates the paper's **Table III** — simulation times and accuracy.
//!
//! PSMs are generated from *short-TS* and then simulated against the
//! *long-TS* workload:
//!
//! * `IP sim.` — wall-clock of the behavioural functional simulation alone;
//! * `IP+PSMs` — the same plus concurrent PSM/HMM power estimation;
//!
//!   both in milliseconds;
//! * `Overhead` — the relative cost of the power model;
//! * `PX (s)` — the golden gate-level power simulation of the same
//!   workload, for the headline speedup;
//!
//! the three timings each the fastest of [`REPEATS`] runs;
//! * `MRE` / `WSP` — accuracy of the short-TS-trained PSMs on the unseen
//!   long workload.

use psm_bench::{flow, header, ip, long_ts, long_ts_cycles, row, short_ts, BENCHMARKS};
use psm_ips::behavioural_trace;
use std::time::{Duration, Instant};

/// Runs of the `IP sim.`, `IP+PSMs` and `PX` rounds. The three alternate,
/// so all see the same host conditions, and each column reports its
/// fastest run, the one least disturbed by the host; the speedup divides
/// one best by another.
const REPEATS: usize = 15;

/// Elapsed wall-clock of `round`, with its result.
fn timed<T>(round: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = round();
    (t0.elapsed(), out)
}

fn main() {
    println!(
        "# Table III — simulation times and accuracy ({} instants)\n",
        long_ts_cycles()
    );
    header(&[
        "IP",
        "IP sim. (ms)",
        "IP+PSMs (ms)",
        "Overhead",
        "PX (s)",
        "Speedup vs PX",
        "MRE",
        "P95 rel. err.",
        "WSP",
    ]);
    for name in BENCHMARKS {
        let pipeline = flow(name);
        let mut core = ip(name);
        let training = short_ts(name);
        let model = pipeline
            .train(core.as_mut(), &[training])
            .expect("training succeeds");

        let workload = long_ts(name);

        // Functional simulation alone, functional simulation plus
        // concurrent PSM power estimation, and the golden path
        // (PrimeTime-PX role), alternately.
        let (mut ip_sim, mut ip_psm, mut px) = (Duration::MAX, Duration::MAX, Duration::MAX);
        let mut runs = None;
        for _ in 0..REPEATS {
            let (sim, _) = timed(|| {
                behavioural_trace(core.as_mut(), &workload).expect("workload fits the interface")
            });
            let (psm, out) = timed(|| {
                let functional = behavioural_trace(core.as_mut(), &workload)
                    .expect("workload fits the interface");
                pipeline.estimate_from_trace(&model, &functional)
            });
            let (gold, reference) = timed(|| {
                pipeline
                    .reference_power(core.as_ref(), &workload)
                    .expect("gate-level capture succeeds")
            });
            ip_sim = ip_sim.min(sim);
            ip_psm = ip_psm.min(psm);
            px = px.min(gold);
            runs = Some((out, reference));
        }
        let (outcome, reference) = runs.expect("REPEATS is positive");

        let mre = psm_stats::mean_relative_error(outcome.estimate.as_slice(), reference.as_slice())
            .expect("non-empty traces");
        let errs = psm_stats::relative_errors(outcome.estimate.as_slice(), reference.as_slice())
            .expect("aligned traces");
        let p95 = psm_stats::quantile(&errs, 0.95).expect("non-empty");
        let overhead = (ip_psm.as_secs_f64() - ip_sim.as_secs_f64()) / ip_sim.as_secs_f64();
        let speedup = px.as_secs_f64() / ip_psm.as_secs_f64();

        row(&[
            name.to_owned(),
            format!("{:.1}", ip_sim.as_secs_f64() * 1e3),
            format!("{:.1}", ip_psm.as_secs_f64() * 1e3),
            format!("{:.1} %", overhead * 100.0),
            format!("{:.2}", px.as_secs_f64()),
            format!("{speedup:.1}x"),
            format!("{:.2} %", mre * 100.0),
            format!("{:.2} %", p95 * 100.0),
            format!("{:.2} %", outcome.wsp_rate() * 100.0),
        ]);
    }
    println!("\npaper reference: overhead 3.5-26.4 %, PSM estimation up to two orders");
    println!("of magnitude faster than PrimeTime PX; MRE RAM 0.29 %, MultSum 3.97 %,");
    println!("AES 3.11 %, Camellia 32.64 %; WSP 0 % everywhere except Camellia (20 %)");
}
