//! `estimate_table3`: the paper's Table III fast path.
//!
//! Set-up trains one short-TS model per Table I IP and generates four
//! held-out long-TS workloads per IP. A round estimates every workload
//! through `behavioural_trace` and `PsmFlow::estimate_from_trace`; no
//! gate-level work is timed. The golden references the accuracy is
//! checked against are computed once, after the timed rounds.

use crate::common::{
    alternate, flow, ip, long_ts, on_threads, outcome_hash, peak_rss_mib, reference_powers,
    rounds_for, short_ts, timed_setup, Res, ALL_IPS,
};
use crate::trace::Tracer;
use crate::{layer_metrics, Config, Outcome};
use psmgen::flow::{PsmFlow, TrainedModel};
use psmgen::hmm::{HmmOutcome, HmmSimulator};
use psmgen::ips::{behavioural_trace, Ip};
use psmgen::psm::classify_trace;
use psmgen::rtl::Stimulus;
use psmgen::stats::mean_relative_error;
use std::time::{Duration, Instant};

/// Held-out workloads per IP and their length: 100 000 instants per IP,
/// as in Table III.
const WORKLOADS_PER_IP: u64 = 4;
const WORKLOAD_CYCLES: usize = 25_000;
const SMOKE_CYCLES: usize = 500;

struct Target {
    name: &'static str,
    flow: PsmFlow,
    ip: Box<dyn Ip>,
    model: TrainedModel,
    workloads: Vec<Stimulus>,
}

/// Trains each IP's model and generates its workloads, one IP per job on
/// at most `nproc` threads (each training itself sequential).
fn setup(cfg: &Config) -> Res<Vec<Target>> {
    let cycles = if cfg.smoke {
        SMOKE_CYCLES
    } else {
        WORKLOAD_CYCLES
    };
    let parts = on_threads(ALL_IPS.len(), |i| -> Res<_> {
        let name = ALL_IPS[i];
        let workloads: Vec<Stimulus> = (0..WORKLOADS_PER_IP)
            .map(|k| long_ts(name, cfg.seed + 100 + k, cycles))
            .collect();
        let model = flow(name).train(ip(name).as_mut(), &[short_ts(name, cfg.seed)])?;
        Ok((model, workloads))
    });
    let mut targets = Vec::with_capacity(ALL_IPS.len());
    for (name, part) in ALL_IPS.into_iter().zip(parts) {
        let (model, workloads) = part?;
        targets.push(Target {
            name,
            flow: flow(name),
            ip: ip(name),
            model,
            workloads,
        });
    }
    Ok(targets)
}

fn instants(targets: &[Target]) -> usize {
    targets
        .iter()
        .flat_map(|t| &t.workloads)
        .map(Stimulus::len)
        .sum()
}

fn sizes(targets: &[Target]) -> Vec<(String, u64)> {
    vec![
        ("instants_per_round".to_owned(), instants(targets) as u64),
        ("workloads_per_ip".to_owned(), WORKLOADS_PER_IP),
    ]
}

/// Each workload's estimate must be bit-identical in every round (and
/// between the traced and untraced paths).
#[derive(Default)]
struct Reference {
    hashes: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Reference {
    fn check(&mut self, slot: usize, round: usize, label: &str, outcome: &HmmOutcome) {
        let h = outcome_hash(
            outcome.estimate.as_slice(),
            outcome.wrong_state_predictions,
            outcome.unknown_instants,
        );
        self.attempted += 1;
        if slot == self.hashes.len() {
            self.hashes.push(h);
        } else if self.hashes[slot] != h {
            self.failed += 1;
            self.problems.push(format!(
                "round {round}: {label} estimate differs from round 0"
            ));
        }
    }
}

/// One untraced round; returns each workload's time inside the two timed
/// calls and every outcome, both in target-then-workload order.
fn untraced_round(targets: &mut [Target]) -> Res<(Vec<Duration>, Vec<HmmOutcome>)> {
    let mut times = Vec::new();
    let mut outcomes = Vec::new();
    for t in targets.iter_mut() {
        for w in &t.workloads {
            // Freeing the trace is part of the cost: it is inside the clock.
            let t0 = Instant::now();
            let outcome = {
                let trace = behavioural_trace(t.ip.as_mut(), w)?;
                t.flow.estimate_from_trace(&t.model, &trace)
            };
            times.push(t0.elapsed());
            outcomes.push(outcome);
        }
    }
    Ok((times, outcomes))
}

/// `PsmFlow::estimate_from_trace` call for call, one span per layer call.
fn traced_round(t: &mut Tracer, targets: &mut [Target]) -> Res<Vec<HmmOutcome>> {
    let mut outcomes = Vec::new();
    for target in targets.iter_mut() {
        let span = t.enter("estimate");
        let model = &target.model;
        for w in &target.workloads {
            let trace = t.leaf("ips.behavioural", || {
                behavioural_trace(target.ip.as_mut(), w)
            })?;
            let observations = t.leaf("core.classify", || classify_trace(&model.table, &trace));
            let hamming = t.leaf("trace.hamming", || trace.input_hamming_series());
            outcomes.push(t.leaf("hmm.forward", || {
                HmmSimulator::new(&model.psm, model.hmm.clone()).run(&observations, &hamming)
            }));
            t.leaf("trace.drop", || drop(trace));
        }
        t.exit(span);
    }
    Ok(outcomes)
}

fn labels(targets: &[Target]) -> Vec<String> {
    targets
        .iter()
        .flat_map(|t| (0..t.workloads.len()).map(move |k| format!("{} workload {k}", t.name)))
        .collect()
}

/// The end-to-end pass.
pub fn untraced(cfg: &Config) -> Res<Outcome> {
    let (mut targets, setup_s) = timed_setup(cfg.setup_repeats, || setup(cfg))?;
    let labels = labels(&targets);
    let mut reference = Reference::default();
    let mut first = Vec::new();
    let rounds = rounds_for(cfg.budget, 2, |r| {
        let (times, outcomes) = untraced_round(&mut targets)?;
        for (slot, outcome) in outcomes.iter().enumerate() {
            reference.check(slot, r, &labels[slot], outcome);
        }
        if r == 0 {
            first = outcomes;
        }
        Ok(times)
    })?;
    let rss = peak_rss_mib("self")?;

    // MRE per IP (mean over its workloads), then the mean over IPs.
    let workloads: Vec<&[Stimulus]> = targets.iter().map(|t| t.workloads.as_slice()).collect();
    let references = on_threads(targets.len(), |i| {
        reference_powers(ALL_IPS[i], workloads[i])
    });
    let mut mre_sum = 0.0;
    let mut outcomes = first.iter();
    for ip_references in references {
        let ip_references = ip_references?;
        let mut ip_sum = 0.0;
        for r in &ip_references {
            let outcome = outcomes.next().expect("one outcome per workload");
            ip_sum += mean_relative_error(outcome.estimate.as_slice(), r.as_slice())?;
        }
        mre_sum += ip_sum / ip_references.len() as f64;
    }
    let mre_pct = mre_sum / targets.len() as f64 * 100.0;

    let mut out = Outcome::new(sizes(&targets));
    out.attempted = reference.attempted;
    out.failed = reference.failed;
    out.problems = reference.problems;
    // Round 0 warms caches and the allocator; it is not a sample.
    out.process_e2e(&setup_s, &rounds[1..], rss, mre_pct);
    Ok(out)
}

/// The per-layer pass: traced rounds alternate with untraced ones (see
/// [`alternate`]); the first untraced round fixes the reference outcomes.
pub fn traced(cfg: &Config) -> Res<Outcome> {
    let mut targets = setup(cfg)?;
    let labels = labels(&targets);
    let mut t = Tracer::new();
    let mut reference = Reference::default();
    let mut last = Vec::new();
    let paired = alternate(
        cfg.budget,
        &mut targets,
        &mut t,
        |targets| untraced_round(targets).map(|(times, outcomes)| (times.iter().sum(), outcomes)),
        |targets, t| traced_round(t, targets),
        |_, r, outcomes| {
            for (slot, outcome) in outcomes.iter().enumerate() {
                reference.check(slot, r, &labels[slot], outcome);
            }
            last = outcomes;
        },
    )?;

    let mut out = Outcome::new(sizes(&targets));
    out.attempted = reference.attempted;
    out.failed = reference.failed;
    out.problems = reference.problems;
    layer_metrics(&mut out, &t, &paired);
    let unknown: usize = last.iter().map(|o| o.unknown_instants).sum();
    let wrong: usize = last.iter().map(|o| o.wrong_state_predictions).sum();
    out.metric("hmm.unknown_instants", unknown as f64, "count");
    out.metric("hmm.wrong_state_predictions", wrong as f64, "count");
    out.tracer = Some(t);
    Ok(out)
}
