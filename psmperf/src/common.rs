//! Plumbing shared by the workloads: models, inputs, golden references,
//! host facts and the timing loop.

use crate::trace::Tracer;
use psmgen::flow::{IpPreset, Parallelism, PsmFlow, TrainedModel};
use psmgen::ips::{behavioural_trace, ip_by_name, testbench, Ip};
use psmgen::rtl::Stimulus;
use psmgen::stats::mean_relative_error;
use psmgen::trace::PowerTrace;
use std::error::Error;
use std::time::{Duration, Instant};

/// The benchmark's error type: any failure aborts the run.
pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// The Table I benchmark names, in paper order.
pub const ALL_IPS: [&str; 4] = ["RAM", "MultSum", "AES", "Camellia"];

/// A Table I IP by name.
pub fn ip(name: &str) -> Box<dyn Ip> {
    ip_by_name(name).unwrap_or_else(|| panic!("`{name}` is a Table I benchmark"))
}

/// The IP's preset flow, on one thread: the single-thread cost is the
/// figure of merit, and one thread keeps the two cores free for noise.
pub fn flow(name: &str) -> PsmFlow {
    let preset = IpPreset::from_name(name).expect("Table I benchmark name");
    PsmFlow::builder()
        .preset(preset)
        .parallelism(Parallelism::Sequential)
        .build()
}

/// A long-TS stimulus of `cycles` cycles.
pub fn long_ts(name: &str, seed: u64, cycles: usize) -> Stimulus {
    testbench::long_ts(name, seed, cycles).expect("Table I benchmark name")
}

/// The paper's short-TS training stimulus.
pub fn short_ts(name: &str, seed: u64) -> Stimulus {
    testbench::short_ts(name, seed).expect("Table I benchmark name")
}

/// FNV-1a over bytes: the fingerprint outputs are compared by.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fingerprint of a power estimate, bit for bit, with its counters.
pub fn outcome_hash(estimate: &[f64], wrong: usize, unknown: usize) -> u64 {
    let mut bytes = Vec::with_capacity(estimate.len() * 8 + 16);
    for v in estimate {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&(wrong as u64).to_le_bytes());
    bytes.extend_from_slice(&(unknown as u64).to_le_bytes());
    fnv(&bytes)
}

/// Golden gate-level power of `workloads`, one
/// [`PsmFlow::reference_power`] call each: the accuracy oracle, computed
/// outside every timed region.
pub fn reference_powers(name: &str, workloads: &[Stimulus]) -> Res<Vec<PowerTrace>> {
    let flow = flow(name);
    let core = ip(name);
    let mut out = Vec::with_capacity(workloads.len());
    for w in workloads {
        out.push(flow.reference_power(core.as_ref(), w)?);
    }
    Ok(out)
}

/// Runs `jobs` on at most `nproc` scoped threads, results in job order.
pub fn on_threads<T: Send>(jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = nproc().min(jobs).max(1);
    let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    (w..jobs)
                        .step_by(workers)
                        .map(|j| (j, f(j)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (j, v) in h.join().expect("worker thread panicked") {
                out[j] = Some(v);
            }
        }
    });
    out.into_iter().map(|v| v.expect("every job ran")).collect()
}

/// Mean relative error, in percent, of `model` on held-out `workloads`
/// against their golden `references`.
pub fn heldout_mre_pct(
    name: &str,
    model: &TrainedModel,
    workloads: &[Stimulus],
    references: &[PowerTrace],
) -> Res<f64> {
    let flow = flow(name);
    let mut ip = ip(name);
    let mut sum = 0.0;
    for (w, r) in workloads.iter().zip(references) {
        let trace = behavioural_trace(ip.as_mut(), w)?;
        let outcome = flow.estimate_from_trace(model, &trace);
        sum += mean_relative_error(outcome.estimate.as_slice(), r.as_slice())?;
    }
    Ok(sum / workloads.len() as f64 * 100.0)
}

/// Available cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Res<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kib / 1024.0)
}

/// Least time spent on repeated set-ups. Other tenants of a shared host
/// slow everything down for seconds at a time; set-ups spread over a few
/// seconds include some that ran undisturbed.
const SETUP_SPAN: Duration = Duration::from_secs(4);
/// Most set-up repetitions.
const SETUP_MAX_REPEATS: usize = 200;

/// Runs `setup` at least `repeats` times, and more (up to 200) until four
/// seconds have been spent, returning the last result and every run's
/// wall-clock. Earlier results are dropped before the next run starts, so
/// peak memory counts one set-up.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < repeats.max(1)
        || (start.elapsed() < SETUP_SPAN && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Repeats `round(i)` from round 0 until `budget` has elapsed, at least
/// `min_rounds` times, returning what each round measured.
pub fn rounds_for<T>(
    budget: Duration,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Res<T>,
) -> Res<Vec<T>> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_rounds || start.elapsed() < budget {
        times.push(round(times.len())?);
    }
    Ok(times)
}

/// The time of one round with every job at its fastest: per job, the
/// least time it took in any of `rounds` (each round lists its jobs'
/// times in the same order), summed over the jobs, in ms. A job does the
/// same work in every round, so a slower repeat measures how busy the
/// host was, not the program.
pub fn best_round_ms(rounds: &[Vec<Duration>]) -> f64 {
    let jobs = rounds.first().map_or(0, Vec::len);
    (0..jobs)
        .map(|j| {
            rounds
                .iter()
                .map(|r| r[j])
                .min()
                .expect("at least one round")
                .as_secs_f64()
                * 1e3
        })
        .sum()
}

/// The rounds of an alternating traced pass.
#[derive(Debug, Default)]
pub struct Paired {
    /// Ids of the traced rounds.
    pub traced_rounds: Vec<usize>,
    /// Each traced round's duration (ms).
    pub traced_ms: Vec<f64>,
    /// The duration (ms) of the untraced round run just before each
    /// traced one.
    pub untraced_ms: Vec<f64>,
}

/// The traced pass's round loop. Round 0 is untraced and warms up; after
/// it untraced (odd) and traced (even) rounds alternate until `budget`
/// has elapsed, so each traced round has an untraced twin run under the
/// same conditions just before it. `check` sees every round's outputs.
pub fn alternate<S, M>(
    budget: Duration,
    state: &mut S,
    t: &mut Tracer,
    mut untraced: impl FnMut(&mut S) -> Res<(Duration, M)>,
    mut traced: impl FnMut(&mut S, &mut Tracer) -> Res<M>,
    mut check: impl FnMut(&S, usize, M),
) -> Res<Paired> {
    let mut paired = Paired::default();
    let mut last_untraced = 0.0;
    rounds_for(budget, 3, |r| {
        let (busy, out) = if r > 0 && r % 2 == 0 {
            t.set_round(r);
            let root = t.enter("round");
            let out = traced(state, t)?;
            let busy = t.exit(root);
            paired.traced_rounds.push(r);
            paired.traced_ms.push(busy.as_secs_f64() * 1e3);
            paired.untraced_ms.push(last_untraced);
            (busy, out)
        } else {
            let (busy, out) = untraced(state)?;
            last_untraced = busy.as_secs_f64() * 1e3;
            (busy, out)
        };
        check(state, r, out);
        Ok(busy)
    })?;
    Ok(paired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_round_takes_each_jobs_fastest_repeat() {
        let ms = Duration::from_millis;
        // Job 0 is fastest in round 1, job 1 in round 0: 10 + 20 ms.
        let rounds = vec![vec![ms(15), ms(20)], vec![ms(10), ms(40)]];
        assert_eq!(best_round_ms(&rounds), 30.0);
        assert_eq!(best_round_ms(&[]), 0.0);
    }
}
