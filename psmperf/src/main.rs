//! `psmperf` — the long-run benchmark of psmgen.
//!
//! ```text
//! psmperf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!         [--smoke] [--out <file>]
//! ```
//!
//! Workloads: `train_short_ts`, `train_long_ts`, `estimate_table3`,
//! `serve_mixed` (see README.md). Inputs are generated from `--seed`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced pass and reports the per-layer metrics; `--smoke` runs both
//! passes at toy sizes. Every metric is printed as a `name value unit`
//! line, and the last line of standard output is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every output check passed.
//!
//! `--daemon <registry-dir>` is internal: the `serve_mixed` workload
//! re-executes this binary in that mode to run psmd in a child process.

mod common;
mod estimate;
mod serve;
mod stats;
mod trace;
mod train;

use common::{best_round_ms, Paired, Res};
use psm_persist::JsonValue;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Result schema tag, bumped when a metric changes meaning.
const SCHEMA: &str = "psmperf/v1";

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_best_ms", "ms"),
    ("mre_pct", "%"),
];

/// Per-layer metrics of the traced pass. A workload that never calls into
/// a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("analyze.netlist_ms", "ms"),
    ("analyze.dataflow_ms", "ms"),
    ("analyze.power_intent_ms", "ms"),
    ("analyze.trace_ms", "ms"),
    ("analyze.model_ms", "ms"),
    ("analyze.verify_ms", "ms"),
    ("ips.behavioural_ms", "ms"),
    ("rtl.capture_ms", "ms"),
    ("rtl.lane_occupancy", "ratio"),
    ("mining.mine_ms", "ms"),
    ("mining.propositions", "count"),
    ("core.generate_ms", "ms"),
    ("core.simplify_ms", "ms"),
    ("core.join_ms", "ms"),
    ("core.calibrate_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.states_generated", "count"),
    ("core.states_final", "count"),
    ("trace.hamming_ms", "ms"),
    ("trace.drop_ms", "ms"),
    ("hmm.build_ms", "ms"),
    ("hmm.forward_ms", "ms"),
    ("hmm.unknown_instants", "count"),
    ("hmm.wrong_state_predictions", "count"),
    ("compile.lower_ms", "ms"),
    ("persist.registry_load_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.forward_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.chunk_feed_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.busy", "count"),
    ("serve.oneshot_p99_ms", "ms"),
    ("serve.chunk_p50_ms", "ms"),
    ("serve.chunk_p99_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.minst_per_cpu_s", "Minst/s"),
    ("flow.other_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// What one invocation runs with.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of the pass.
    pub budget: Duration,
    /// Toy sizes and a zero budget: one round, for the smoke test.
    pub smoke: bool,
    /// How many times set-up runs at least; `setup_s` is the fastest.
    pub setup_repeats: usize,
    /// Scratch directory for artifacts and results, inside the checkout.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<Summary>,
}

/// What a pass measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Every failed output check, for the report.
    pub problems: Vec<String>,
    sizes: Vec<(String, u64)>,
    /// The traced pass's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// An empty outcome for a workload of the given sizes.
    pub fn new(sizes: Vec<(String, u64)>) -> Outcome {
        Outcome {
            sizes,
            ..Outcome::default()
        }
    }

    /// Records a metric with the samples it was derived from, whose
    /// summary goes to the result file.
    pub fn sampled(&mut self, name: &str, value: f64, samples: &[f64], unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: Summary::of(samples),
        });
    }

    /// Records a single-valued metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
        });
    }

    /// The fastest of the set-ups as `setup_s`.
    pub fn setup(&mut self, setup_s: &[f64]) {
        let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
        self.sampled("setup_s", fastest, setup_s, "s");
    }

    /// The end-to-end metrics of a workload whose operations run in this
    /// process: set-up time, peak memory (`rss_mib`, read before the
    /// accuracy oracle ran), the round time with every job at its fastest
    /// (see [`best_round_ms`]) and accuracy. `rounds` excludes the warm-up.
    pub fn process_e2e(
        &mut self,
        setup_s: &[f64],
        rounds: &[Vec<Duration>],
        rss_mib: f64,
        mre_pct: f64,
    ) {
        self.setup(setup_s);
        self.metric("peak_rss_mib", rss_mib, "MiB");
        let totals: Vec<f64> = rounds
            .iter()
            .map(|r| r.iter().sum::<Duration>().as_secs_f64() * 1e3)
            .collect();
        self.sampled("op_best_ms", best_round_ms(rounds), &totals, "ms");
        self.metric("mre_pct", mre_pct, "%");
    }

    fn merge(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        if self.sizes.is_empty() {
            self.sizes = other.sizes;
        }
        if other.tracer.is_some() {
            self.tracer = other.tracer;
        }
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Per-layer self times of the traced rounds (mean per round, in ms, for
/// the `*_ms` metrics of [`PER_LAYER`]; `*_us` per-call metrics are the
/// caller's), the rest of the round, in no listed span, as
/// `flow.other_ms`, and the tracing overhead: the median over traced
/// rounds of their excess over the untraced round run just before.
pub fn layer_metrics(out: &mut Outcome, t: &Tracer, p: &Paired) {
    let rounds = p.traced_rounds.len().max(1) as f64;
    let listed = |metric: &str| PER_LAYER.iter().any(|(n, _)| *n == metric);
    let mut other = 0.0;
    for (name, total) in t.self_times(&p.traced_rounds) {
        let ms = total.as_secs_f64() * 1e3 / rounds;
        let metric = format!("{name}_ms");
        if listed(&metric) {
            out.metric(&metric, ms, "ms");
        } else if !listed(&format!("{name}_us")) {
            other += ms;
        }
    }
    out.metric("flow.other_ms", other, "ms");
    let excess: Vec<f64> = p
        .traced_ms
        .iter()
        .zip(&p.untraced_ms)
        .map(|(traced, untraced)| (traced / untraced - 1.0) * 100.0)
        .collect();
    let overhead = Summary::of(&excess).map_or(0.0, |s| s.median);
    out.metric("trace_overhead_pct", overhead, "%");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: psmperf --workload <train_short_ts|train_long_ts|estimate_table3|serve_mixed> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(parsed)
}

fn run_pass(workload: &str, traced: bool, cfg: &Config) -> Res<Outcome> {
    use train::Regime;
    match (workload, traced) {
        ("train_short_ts", false) => train::untraced(Regime::Short, cfg),
        ("train_short_ts", true) => train::traced(Regime::Short, cfg),
        ("train_long_ts", false) => train::untraced(Regime::Long, cfg),
        ("train_long_ts", true) => train::traced(Regime::Long, cfg),
        ("estimate_table3", false) => estimate::untraced(cfg),
        ("estimate_table3", true) => estimate::traced(cfg),
        ("serve_mixed", false) => serve::untraced(cfg),
        ("serve_mixed", true) => serve::traced(cfg),
        (other, _) => Err(format!("unknown workload `{other}`\n{USAGE}").into()),
    }
}

/// The git revision of the working directory, or `unknown`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_facts(args: &Args, sizes: &[(String, u64)]) -> JsonValue {
    JsonValue::obj([
        ("schema", JsonValue::from(SCHEMA)),
        ("workload", JsonValue::from(args.workload.as_str())),
        ("seed", JsonValue::from(args.seed)),
        ("seconds", JsonValue::from_f64(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("smoke", JsonValue::Bool(args.smoke)),
        ("nproc", JsonValue::from(common::nproc())),
        ("git_rev", JsonValue::from(git_revision())),
        (
            "sizes",
            JsonValue::obj(sizes.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v)))),
        ),
    ])
}

fn metric_json(m: &Metric) -> JsonValue {
    let mut fields = vec![
        ("value", JsonValue::from_f64(m.value)),
        ("unit", JsonValue::from(m.unit)),
    ];
    if let Some(s) = &m.samples {
        fields.extend([
            ("n", JsonValue::from(s.n)),
            ("p25", JsonValue::from_f64(s.p25)),
            ("median", JsonValue::from_f64(s.median)),
            ("p75", JsonValue::from_f64(s.p75)),
            ("min", JsonValue::from_f64(s.min)),
            ("max", JsonValue::from_f64(s.max)),
        ]);
    }
    JsonValue::obj(fields)
}

fn write_file(path: &Path, body: &JsonValue) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body.render())?;
    Ok(())
}

fn run(args: &Args) -> Res<bool> {
    let work_dir = PathBuf::from(".psmperf");
    let cfg = Config {
        seed: args.seed,
        budget: if args.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(args.seconds)
        },
        smoke: args.smoke,
        setup_repeats: if args.smoke { 1 } else { 3 },
        work_dir: work_dir.clone(),
    };
    let passes = if args.smoke {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut outcome = Outcome::default();
    for &traced in &passes {
        outcome.merge(run_pass(&args.workload, traced, &cfg)?);
    }

    let mut wanted: Vec<(&str, &str)> = Vec::new();
    if passes.contains(&false) {
        wanted.extend(END_TO_END);
    }
    if passes.contains(&true) {
        wanted.extend(PER_LAYER);
    }
    let mut reported = Vec::new();
    for (name, unit) in wanted {
        let metric = match outcome.value(name) {
            Some(m) if m.unit == unit => m.clone(),
            Some(m) => return Err(format!("{name} measured in {} not {unit}", m.unit).into()),
            None if PER_LAYER.iter().any(|(n, _)| *n == name) => Metric {
                name: name.to_owned(),
                value: 0.0,
                unit: PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("listed")
                    .1,
                samples: None,
            },
            None => return Err(format!("{name} was not measured").into()),
        };
        reported.push(metric);
    }

    let correct = outcome.problems.is_empty();
    let host = host_facts(args, &outcome.sizes);
    println!("host {}", host.render());
    for problem in &outcome.problems {
        println!("check-failed {problem}");
    }
    for m in &reported {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let out_path = args.out.clone().unwrap_or_else(|| {
        work_dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace || args.smoke)
        ))
    });
    write_file(
        &out_path,
        &JsonValue::obj([
            ("host", host.clone()),
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::from(outcome.attempted)),
            ("failed", JsonValue::from(outcome.failed)),
            (
                "problems",
                JsonValue::arr(outcome.problems.iter().map(|p| JsonValue::from(p.as_str()))),
            ),
            (
                "metrics",
                JsonValue::obj(reported.iter().map(|m| (m.name.clone(), metric_json(m)))),
            ),
        ]),
    )?;
    if let Some(t) = &outcome.tracer {
        let mut trace_path = out_path.into_os_string();
        trace_path.push(".trace.json");
        let mut body = t.to_json();
        if let JsonValue::Obj(fields) = &mut body {
            fields.insert(0, ("host".to_owned(), host));
        }
        write_file(Path::new(&trace_path), &body)?;
    }
    println!(
        "{}",
        JsonValue::obj([
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::from(outcome.attempted)),
            ("failed", JsonValue::from(outcome.failed)),
            (
                "metrics",
                JsonValue::obj(reported.iter().map(|m| {
                    (
                        m.name.clone(),
                        JsonValue::obj([
                            ("value", JsonValue::from_f64(m.value)),
                            ("unit", JsonValue::from(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        return match serve::daemon_main(args.get(1).map(String::as_str)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("psmperf daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("psmperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("psmperf: {e}");
            ExitCode::from(2)
        }
    }
}
