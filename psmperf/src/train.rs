//! `train_short_ts` and `train_long_ts`: rounds of `PsmFlow::train`.
//!
//! The untraced pass calls `PsmFlow::train`. The traced pass calls
//! `PsmFlow::train_with_telemetry`, which runs the same code and also
//! returns the flow's span for each layer call; those spans become the
//! per-layer metrics. Every traced model must equal the untraced one byte
//! for byte.

use crate::common::{
    alternate, flow, fnv, heldout_mre_pct, ip, long_ts, on_threads, peak_rss_mib, reference_powers,
    rounds_for, short_ts, timed_setup, Res, ALL_IPS,
};
use crate::trace::Tracer;
use crate::{layer_metrics, Config, Outcome};
use psmgen::flow::{PsmFlow, TrainedModel};
use psmgen::ips::Ip;
use psmgen::rtl::Stimulus;
use psmgen::telemetry::{Span, Stage};
use std::time::{Duration, Instant};

/// Which training regime.
#[derive(Debug, Clone, Copy)]
pub enum Regime {
    /// Every Table I IP on its short-TS testbench.
    Short,
    /// RAM and MultSum, each on four long-TS stimuli.
    Long,
}

/// Long-TS stimulus length; AES and Camellia are left out of the long
/// regime because join alone takes them several seconds per model.
const LONG_CYCLES: usize = 25_000;
/// Long-TS stimuli per model.
const LONG_STIMULI: u64 = 4;
/// Held-out cycles per IP for the accuracy check of the trained models.
const HELDOUT_CYCLES: usize = 10_000;
/// Trace length of every stimulus under `--smoke`.
const SMOKE_CYCLES: usize = 500;

struct Job {
    name: &'static str,
    flow: PsmFlow,
    ip: Box<dyn Ip>,
    stimuli: Vec<Stimulus>,
}

fn setup(regime: Regime, cfg: &Config) -> Vec<Job> {
    let names: &[&'static str] = match regime {
        Regime::Short => &ALL_IPS,
        Regime::Long => &["RAM", "MultSum"],
    };
    names
        .iter()
        .map(|&name| {
            let stimuli = match (regime, cfg.smoke) {
                (_, true) => vec![long_ts(name, cfg.seed, SMOKE_CYCLES)],
                (Regime::Short, false) => vec![short_ts(name, cfg.seed)],
                (Regime::Long, false) => (0..LONG_STIMULI)
                    .map(|k| long_ts(name, cfg.seed + k, LONG_CYCLES))
                    .collect(),
            };
            Job {
                name,
                flow: flow(name),
                ip: ip(name),
                stimuli,
            }
        })
        .collect()
}

fn instants(jobs: &[Job]) -> usize {
    jobs.iter()
        .flat_map(|j| &j.stimuli)
        .map(Stimulus::len)
        .sum()
}

fn sizes(jobs: &[Job]) -> Vec<(String, u64)> {
    let mut out = vec![("instants_per_round".to_owned(), instants(jobs) as u64)];
    for j in jobs {
        out.push((format!("{}.stimuli", j.name), j.stimuli.len() as u64));
    }
    out
}

/// Checks each round's models against the first round's, by the
/// fingerprint of their canonical JSON.
#[derive(Default)]
struct Reference {
    hashes: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Reference {
    fn check(&mut self, job: usize, name: &str, round: usize, model: &TrainedModel) {
        if self.hashes.len() <= job {
            self.hashes.resize(job + 1, None);
        }
        let h = fnv(model.to_json_string().as_bytes());
        self.attempted += 1;
        if *self.hashes[job].get_or_insert(h) != h {
            self.failed += 1;
            self.problems
                .push(format!("round {round}: {name} model differs from round 0"));
        }
    }
}

/// One untraced round: `PsmFlow::train` per job. Returns each job's call
/// time (fingerprinting is outside it) and the models.
fn untraced_round(jobs: &mut [Job]) -> Res<(Vec<Duration>, Vec<TrainedModel>)> {
    let mut times = Vec::with_capacity(jobs.len());
    let mut models = Vec::with_capacity(jobs.len());
    for job in jobs.iter_mut() {
        let t0 = Instant::now();
        let model = job.flow.train(job.ip.as_mut(), &job.stimuli)?;
        times.push(t0.elapsed());
        models.push(model);
    }
    Ok((times, models))
}

/// The end-to-end pass.
pub fn untraced(regime: Regime, cfg: &Config) -> Res<Outcome> {
    let (mut jobs, setup_s) = timed_setup(cfg.setup_repeats, || Ok(setup(regime, cfg)))?;
    let mut reference = Reference::default();
    let mut last = Vec::new();
    let rounds = rounds_for(cfg.budget, 2, |r| {
        let (times, models) = untraced_round(&mut jobs)?;
        for (j, model) in models.iter().enumerate() {
            reference.check(j, jobs[j].name, r, model);
        }
        last = models;
        Ok(times)
    })?;
    let rss = peak_rss_mib("self")?;
    let mre = heldout_mre(&jobs, &last, cfg)?;
    let mut out = Outcome::new(sizes(&jobs));
    out.attempted = reference.attempted;
    out.failed = reference.failed;
    out.problems = reference.problems;
    // Round 0 warms caches and the allocator; it is not a sample.
    out.process_e2e(&setup_s, &rounds[1..], rss, mre);
    Ok(out)
}

/// Mean over the jobs' IPs of each trained model's MRE on a held-out
/// long-TS workload.
fn heldout_mre(jobs: &[Job], models: &[TrainedModel], cfg: &Config) -> Res<f64> {
    let cycles = if cfg.smoke {
        SMOKE_CYCLES
    } else {
        HELDOUT_CYCLES
    };
    let names: Vec<&str> = jobs.iter().map(|j| j.name).collect();
    let mres = on_threads(names.len(), |i| -> Res<f64> {
        let workload = vec![long_ts(names[i], cfg.seed + 100, cycles)];
        let references = reference_powers(names[i], &workload)?;
        heldout_mre_pct(names[i], &models[i], &workload, &references)
    });
    let mut sum = 0.0;
    for m in mres {
        sum += m?;
    }
    Ok(sum / names.len() as f64)
}

/// The per-layer pass: traced rounds alternate with untraced ones (see
/// [`alternate`]); the first untraced round's models are the reference
/// every traced model must equal.
pub fn traced(regime: Regime, cfg: &Config) -> Res<Outcome> {
    let mut jobs = setup(regime, cfg);
    let mut t = Tracer::new();
    let mut reference = Reference::default();
    let mut last = Vec::new();
    let mut capture_groups = 0;
    let paired = alternate(
        cfg.budget,
        &mut jobs,
        &mut t,
        |jobs| untraced_round(jobs).map(|(times, models)| (times.iter().sum(), models)),
        |jobs, t| {
            capture_groups = 0;
            jobs.iter_mut()
                .map(|job| {
                    let span = t.enter("train");
                    let start = t.now();
                    let (model, report) = job
                        .flow
                        .train_with_telemetry(job.ip.as_mut(), &job.stimuli)?;
                    for s in &report.spans {
                        t.record(layer_of(s), start + s.start, s.duration);
                    }
                    t.exit(span);
                    capture_groups += report.stage_spans(Stage::Capture).count();
                    Ok(model)
                })
                .collect()
        },
        |jobs, r, models| {
            for (j, model) in models.iter().enumerate() {
                reference.check(j, jobs[j].name, r, model);
            }
            last = models;
        },
    )?;

    let mut out = Outcome::new(sizes(&jobs));
    out.attempted = reference.attempted;
    out.failed = reference.failed;
    out.problems = reference.problems;
    layer_metrics(&mut out, &t, &paired);
    // The batch engine evaluates 64 lanes per word whether or not a
    // stimulus fills them, for as many cycles as a group's longest one.
    let longest = jobs
        .iter()
        .flat_map(|j| &j.stimuli)
        .map(Stimulus::len)
        .max()
        .unwrap_or(0);
    let ratio = instants(&jobs) as f64 / (64 * capture_groups * longest).max(1) as f64;
    out.metric("rtl.lane_occupancy", ratio, "ratio");
    let count = |f: fn(&TrainedModel) -> usize| last.iter().map(f).sum::<usize>() as f64;
    out.metric("mining.propositions", count(|m| m.table.len()), "count");
    out.metric(
        "core.states_generated",
        count(|m| m.stats.states_before_optimisation),
        "count",
    );
    out.metric("core.states_final", count(|m| m.stats.states), "count");
    out.tracer = Some(t);
    Ok(out)
}

/// The per-layer metric stem of one of the flow's telemetry spans. A
/// validation span whose label is not listed here stays unattributed and
/// shows in `flow.other_ms`.
fn layer_of(span: &Span) -> &'static str {
    match span.stage {
        Stage::Validate => match span.label.as_str() {
            "netlist" | "interface" => "analyze.netlist",
            "netlist dataflow" => "analyze.dataflow",
            "power intent" | "psm power intent" => "analyze.power_intent",
            l if l.starts_with("trace pair ") || l.starts_with("coverage ") => "analyze.trace",
            "trained model" | "state attributes" | "hmm emissions" | "psm guards" => {
                "analyze.model"
            }
            "assertion verify" => "analyze.verify",
            _ => "analyze.unlisted",
        },
        Stage::Capture => "rtl.capture",
        Stage::Mining => "mining.mine",
        Stage::Generation => "core.generate",
        Stage::Simplify => "core.simplify",
        Stage::Join => "core.join",
        Stage::Calibrate => "core.calibrate",
        Stage::HmmBuild => "hmm.build",
        _ => "flow.unlisted",
    }
}
