//! `psmbench` — the psmgen performance harness.
//!
//! Runs the fixed scenario suite from [`psm_bench::scenarios`] (assertion
//! mining, PSM generation, merging, HMM build + reference forward
//! simulation, the compiled flat-table forward pass against the
//! reference walker on all four paper benches, the full
//! [`psmgen::flow::PsmFlow`] train/estimate path at several worker
//! counts, and the `psmd` daemon end to end: eight concurrent loopback
//! clients at the same worker counts, a one-shot JSON-vs-binary wire format
//! comparison, and chunked streaming sessions with per-chunk
//! latency percentiles), prints a human-readable table, and writes a
//! schema-versioned `BENCH_psmgen.json` with per-scenario ns/op,
//! throughput in trace-rows/s and speedup-vs-1-thread.
//!
//! With `--baseline <file> --max-regress <pct>` the run additionally
//! compares each scenario's median against a previous `BENCH_*.json` and
//! fails when any scenario slowed down by more than the threshold, so CI
//! can gate on performance. A failing comparison is re-measured (up to
//! `--retries` extra suite runs, keeping each scenario's best median)
//! before the gate fails, so transient load on a shared host does not
//! produce false alarms. See `BENCHMARKS.md` for the methodology and the
//! JSON schema.
//!
//! Exit status (the psmlint convention): `0` success, `1` at least one
//! scenario regressed past `--max-regress`, `2` malformed command line or
//! unreadable/invalid baseline file.

use psm_bench::scenarios::{run_suite, ScenarioResult, SuiteConfig};
use psm_persist::JsonValue;
use std::process::ExitCode;

/// Format version of the emitted JSON document. Bump on any breaking
/// change to field names or semantics.
const SCHEMA: &str = "psmbench/v1";

const USAGE: &str = "\
usage: psmbench [options]

Runs the fixed psmgen benchmark suite and writes BENCH_psmgen.json.

Options:
  --quick              CI-sized budget (5 iters, 2k-cycle traces, 1/2 threads)
  --iters <n>          measured iterations per scenario (overrides the budget)
  --cycles <n>         long-trace cycle budget (overrides the budget)
  --out <file>         output path (default BENCH_psmgen.json)
  --baseline <file>    previous BENCH_*.json to compare against
  --max-regress <pct>  fail (exit 1) when any scenario's median is more than
                       <pct> percent slower than the baseline (default 25)
  --retries <n>        when the baseline check fails, re-measure up to <n>
                       times and keep each scenario's best run, so transient
                       host load cannot fail the gate (default 1)
  --min-flow-speedup <x>
                       fail (exit 1) when any multi-threaded flow_train
                       scenario's speedup_vs_1_thread is below <x>; only
                       meaningful on hosts with 2+ cores
  --list               print the scenario names and exit
  -h, --help           show this help";

struct Options {
    quick: bool,
    iters: Option<u32>,
    cycles: Option<usize>,
    out: String,
    baseline: Option<String>,
    max_regress: f64,
    retries: u32,
    min_flow_speedup: Option<f64>,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        iters: None,
        cycles: None,
        out: "BENCH_psmgen.json".to_owned(),
        baseline: None,
        max_regress: 25.0,
        retries: 1,
        min_flow_speedup: None,
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--list" => opts.list = true,
            "--iters" => {
                let v = it.next().ok_or("--iters needs a number")?;
                opts.iters = Some(v.parse().map_err(|_| format!("bad --iters `{v}`"))?);
            }
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a number")?;
                opts.cycles = Some(v.parse().map_err(|_| format!("bad --cycles `{v}`"))?);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                opts.out = v.clone();
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file path")?;
                opts.baseline = Some(v.clone());
            }
            "--max-regress" => {
                let v = it.next().ok_or("--max-regress needs a percentage")?;
                opts.max_regress = v.parse().map_err(|_| format!("bad --max-regress `{v}`"))?;
                if !opts.max_regress.is_finite() || opts.max_regress < 0.0 {
                    return Err(format!("bad --max-regress `{v}`"));
                }
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a number")?;
                opts.retries = v.parse().map_err(|_| format!("bad --retries `{v}`"))?;
            }
            "--min-flow-speedup" => {
                let v = it.next().ok_or("--min-flow-speedup needs a number")?;
                let x: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --min-flow-speedup `{v}`"))?;
                if !x.is_finite() || x <= 0.0 {
                    return Err(format!("bad --min-flow-speedup `{v}`"));
                }
                opts.min_flow_speedup = Some(x);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn config(opts: &Options) -> SuiteConfig {
    let mut cfg = if opts.quick {
        SuiteConfig::quick()
    } else {
        SuiteConfig::full()
    };
    if let Some(iters) = opts.iters {
        cfg.iters = iters.max(1);
    }
    if let Some(cycles) = opts.cycles {
        cfg.cycles = cycles.max(100);
    }
    cfg
}

fn scenario_json(name: &str, r: &ScenarioResult) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("name".into(), name.into()),
        ("iters".into(), JsonValue::from(u64::from(r.m.iters))),
        ("rows".into(), JsonValue::from(r.rows as u64)),
        (
            "median_ns".into(),
            JsonValue::from(r.m.median.as_nanos() as u64),
        ),
        ("mad_ns".into(), JsonValue::from(r.m.mad.as_nanos() as u64)),
        (
            "mean_ns".into(),
            JsonValue::from(r.m.mean.as_nanos() as u64),
        ),
        ("min_ns".into(), JsonValue::from(r.m.min.as_nanos() as u64)),
        ("rows_per_sec".into(), JsonValue::from_f64(r.rows_per_sec())),
    ];
    if let Some(t) = r.threads {
        fields.push(("threads".into(), JsonValue::from(t as u64)));
    }
    if let Some(s) = r.speedup_vs_1_thread {
        fields.push(("speedup_vs_1_thread".into(), JsonValue::from_f64(s)));
    }
    if !r.stages.is_empty() {
        let stages = r.stages.iter().map(|(stage, total_ns, wall_ns)| {
            JsonValue::obj([
                ("stage", JsonValue::from(stage.as_str())),
                ("total_ns", JsonValue::from(*total_ns)),
                ("wall_ns", JsonValue::from(*wall_ns)),
            ])
        });
        fields.push(("stages".into(), JsonValue::arr(stages)));
    }
    for (key, value) in &r.extras {
        fields.push((key.clone(), JsonValue::from(*value)));
    }
    JsonValue::obj(fields)
}

/// Logical CPUs the host offers this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or `unknown` outside a git checkout.
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

fn suite_json(cfg: &SuiteConfig, quick: bool, results: &[(String, ScenarioResult)]) -> JsonValue {
    JsonValue::obj([
        ("schema", JsonValue::from(SCHEMA)),
        (
            "config",
            JsonValue::obj([
                ("iters", JsonValue::from(u64::from(cfg.iters))),
                ("cycles", JsonValue::from(cfg.cycles as u64)),
                ("seed", JsonValue::from(cfg.seed)),
                ("quick", JsonValue::from(quick)),
                (
                    "threads",
                    JsonValue::arr(cfg.threads.iter().map(|&t| JsonValue::from(t as u64))),
                ),
                ("nproc", JsonValue::from(nproc())),
                ("git_rev", JsonValue::from(git_revision())),
            ]),
        ),
        (
            "scenarios",
            JsonValue::arr(results.iter().map(|(name, r)| scenario_json(name, r))),
        ),
    ])
}

/// Baseline medians by scenario name, from a previous `BENCH_*.json`.
fn load_baseline(path: &str) -> Result<Vec<(String, u64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
    let schema = doc
        .str_field("schema")
        .map_err(|e| format!("baseline {path}: {e}"))?;
    if schema != SCHEMA {
        return Err(format!(
            "baseline {path}: schema `{schema}` does not match `{SCHEMA}`"
        ));
    }
    let scenarios = doc
        .arr_field("scenarios")
        .map_err(|e| format!("baseline {path}: {e}"))?;
    scenarios
        .iter()
        .map(|s| {
            let name = s.str_field("name")?.to_owned();
            let median = s.u64_field("median_ns")?;
            Ok((name, median))
        })
        .collect::<Result<Vec<_>, psm_persist::PersistError>>()
        .map_err(|e| format!("baseline {path}: {e}"))
}

/// Compares the run against the baseline; returns the regressed
/// scenarios as `(name, change_pct)`.
fn regressions(
    results: &[(String, ScenarioResult)],
    baseline: &[(String, u64)],
    max_regress: f64,
) -> Vec<(String, f64)> {
    let mut bad = Vec::new();
    for (name, r) in results {
        let Some((_, base_ns)) = baseline.iter().find(|(n, _)| n == name) else {
            println!("psmbench: note: `{name}` missing from baseline, skipped");
            continue;
        };
        if *base_ns == 0 {
            continue;
        }
        let cur_ns = r.m.median.as_nanos() as f64;
        let change = (cur_ns - *base_ns as f64) / *base_ns as f64 * 100.0;
        if change > max_regress {
            bad.push((name.clone(), change));
        }
    }
    bad
}

/// Multi-threaded `flow_train` scenarios whose `speedup_vs_1_thread`
/// falls below the floor, as `(name, speedup)`.
fn slow_flows(results: &[(String, ScenarioResult)], floor: f64) -> Vec<(String, f64)> {
    results
        .iter()
        .filter(|(name, r)| name.starts_with("flow_train_t") && r.threads.is_some_and(|t| t > 1))
        .filter_map(|(name, r)| {
            let s = r.speedup_vs_1_thread?;
            (s < floor).then(|| (name.clone(), s))
        })
        .collect()
}

/// Per-scenario best of two suite runs (smaller median wins). A genuine
/// code regression slows every run; transient host load slows only some,
/// so taking the best before judging keeps the gate honest on shared
/// machines without hiding real slowdowns.
fn merge_best(
    first: Vec<(String, ScenarioResult)>,
    rerun: Vec<(String, ScenarioResult)>,
) -> Vec<(String, ScenarioResult)> {
    first
        .into_iter()
        .map(|(name, r)| {
            let best = match rerun.iter().find(|(n, _)| *n == name) {
                Some((_, again)) if again.m.median < r.m.median => again.clone(),
                _ => r,
            };
            (name, best)
        })
        .collect()
}

fn print_table(results: &[(String, ScenarioResult)]) {
    println!();
    psm_bench::header(&[
        "scenario", "threads", "rows", "median", "mad", "rows/s", "speedup",
    ]);
    for (name, r) in results {
        psm_bench::row(&[
            name.clone(),
            r.threads.map_or_else(|| "-".into(), |t| t.to_string()),
            r.rows.to_string(),
            format!("{:?}", r.m.median),
            format!("{:?}", r.m.mad),
            format!("{:.0}", r.rows_per_sec()),
            r.speedup_vs_1_thread
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
        ]);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("psmbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = config(&opts);
    if opts.list {
        // The canonical scenario names, without running anything.
        for name in [
            "mine_long_trace",
            "classify_long_trace",
            "decode_trace_bin",
            "capture_lanes1",
            "capture_lanes4",
            "capture_lanes64",
            "psm_generate_simplify",
            "join_traces",
            "reduce_long_ts",
            "hmm_build",
            "hmm_forward_sim",
            "compiled_forward_ram",
            "compiled_forward_multsum",
            "compiled_forward_aes",
            "compiled_forward_camellia",
            "compiled_forward_long_ts",
            "lint_suite",
            "verify_suite",
            "powerintent_suite",
        ] {
            println!("{name}");
        }
        for t in &cfg.threads {
            println!("flow_train_t{t}");
            println!("flow_estimate_t{t}");
        }
        for t in &cfg.threads {
            println!("serve_estimate_t{t}");
        }
        println!("serve_oneshot_bin");
        for t in &cfg.threads {
            println!("serve_stream_t{t}");
        }
        return ExitCode::SUCCESS;
    }

    // Load the baseline *before* the (slow) suite so a bad path fails fast.
    let baseline = match opts.baseline.as_deref().map(load_baseline) {
        Some(Ok(b)) => Some(b),
        Some(Err(message)) => {
            eprintln!("psmbench: {message}");
            return ExitCode::from(2);
        }
        None => None,
    };

    println!(
        "psmbench: {} iters/scenario, {}-cycle traces, threads {:?}{}",
        cfg.iters,
        cfg.cycles,
        cfg.threads,
        if opts.quick { " (quick)" } else { "" }
    );
    let mut results = run_suite(&cfg);

    let mut failed = false;
    if let Some(baseline) = &baseline {
        let mut bad = regressions(&results, baseline, opts.max_regress);
        let mut retries = opts.retries;
        while !bad.is_empty() && retries > 0 {
            println!(
                "psmbench: {} scenario(s) over the limit; re-measuring to rule out host noise \
                 ({retries} retry(s) left)",
                bad.len()
            );
            results = merge_best(results, run_suite(&cfg));
            bad = regressions(&results, baseline, opts.max_regress);
            retries -= 1;
        }
        if bad.is_empty() {
            println!(
                "psmbench: no scenario regressed more than {:.1}% vs baseline",
                opts.max_regress
            );
        } else {
            for (name, change) in &bad {
                eprintln!(
                    "psmbench: REGRESSION {name}: median {change:+.1}% vs baseline (limit +{:.1}%)",
                    opts.max_regress
                );
            }
            failed = true;
        }
    }

    if let Some(floor) = opts.min_flow_speedup {
        let slow = slow_flows(&results, floor);
        if slow.is_empty() {
            println!("psmbench: every multi-threaded flow_train scenario scales >= {floor:.2}x");
        } else {
            for (name, s) in &slow {
                eprintln!(
                    "psmbench: SCALING FAILURE {name}: speedup_vs_1_thread {s:.2}x \
                     below the required {floor:.2}x"
                );
            }
            failed = true;
        }
    }

    print_table(&results);
    let doc = suite_json(&cfg, opts.quick, &results);
    if let Err(e) = std::fs::write(&opts.out, doc.render() + "\n") {
        eprintln!("psmbench: cannot write {}: {e}", opts.out);
        return ExitCode::from(2);
    }
    println!(
        "\npsmbench: wrote {} ({} scenarios)",
        opts.out,
        results.len()
    );
    if failed {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
