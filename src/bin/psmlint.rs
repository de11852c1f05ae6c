//! `psmlint` — static analysis of psmgen pipeline artifacts.
//!
//! Loads persisted artifacts and runs the [`psmgen::analyze`] lints over
//! them, printing an [`AnalysisReport`] per artifact as text, JSON or
//! SARIF 2.1.0:
//!
//! * `*.v` — a structural-Verilog netlist (the `psm-rtl` writer grammar),
//!   checked structurally (cycles, multi-driven nets, undriven reads,
//!   dead cones, unused input bits) and semantically through a ternary
//!   dataflow fixpoint (stuck gates and outputs, observable X,
//!   influence-free inputs);
//! * `*.csv` — a golden power trace (`write_power_csv` format), checked
//!   for non-finite and negative samples;
//! * `*.json` — a trained model file ([`TrainedModel`] or
//!   [`HierarchicalModel`]), checked for unreachable states, invalid power
//!   attributes, broken chain adjacency, non-stochastic HMM rows,
//!   PSM/HMM inconsistencies and guards outside the proposition
//!   dictionary. When power CSVs accompany a flat model on the same
//!   command line, the model's state attributes are additionally
//!   re-derived from them (XA002), the CSVs taken in command-line order
//!   as the training traces.
//!
//! Findings can be policed per code (`--config psmlint.toml`) and gated
//! against a previous run (`--baseline old.json`); see DIAGNOSTICS.md.
//!
//! With `--verify`, every netlist × flat-model pair on the command line
//! is additionally run through the bounded model checker
//! ([`psmgen::analyze::verify_model`]): each mined assertion comes back
//! proved (to the depth), refuted with a replayable counterexample, or
//! vacuous, as the `MC` diagnostic family. `--witness-dir` saves each
//! counterexample stimulus as a functional CSV, and `--replay <csv>`
//! re-executes such a witness against the same netlist × model pair.
//!
//! Stdout carries only the report in the selected format — progress and
//! log lines go to stderr (suppressed entirely by `--quiet`), so
//! `--format json|sarif` output pipes straight into `jq` or a SARIF
//! viewer.
//!
//! Exit status: `0` when clean, `1` when any *new* error-severity
//! diagnostic survives the configuration and baseline (warnings too under
//! `--deny-warnings`), `2` when an artifact could not be loaded or the
//! command line is malformed, `3` when `--baseline` points at a missing
//! or unparsable file.

use psm_persist::JsonValue;
use psmgen::analyze::{
    codes, lint_model, lint_netlist, lint_netlist_dataflow, lint_power_intent, lint_power_trace,
    lint_psm_against_table, lint_psm_against_training, lint_psm_power_intent, replay_witness,
    to_sarif, verify_model, AnalysisReport, Baseline, LintConfig, Severity,
};
use psmgen::flow::{HierarchicalModel, IpPreset, PsmFlow, TrainedModel};
use psmgen::ips::{testbench, MultSum};
use psmgen::mining::PropositionTable;
use psmgen::psm::Psm;
use psmgen::rtl::{parse_verilog, Netlist};
use psmgen::trace::{
    read_functional_csv, read_power_csv, write_functional_csv, Bits, Direction, FunctionalTrace,
    PowerTrace, SignalSet,
};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: psmlint [options] <artifact>...

Artifacts:
  *.v      structural Verilog netlist (psm-rtl writer grammar)
  *.csv    golden power trace (write_power_csv format)
  *.json   model file saved by TrainedModel or HierarchicalModel

Giving a flat model together with power CSVs cross-checks the model's
state attributes against those traces (XA002, CSVs in command-line
order).

Options:
  --format <text|json|sarif>  output format (default text)
  --json            alias of --format json
  --config <path>   psmlint.toml with per-code allow/warn/deny levels
                    and an optional [verify] section
  --baseline <path> suppress findings recorded by a previous --format
                    json run; exit status reflects new findings only
                    (exit 3 when the file is missing or unparsable)
  --deny-warnings   exit non-zero on warnings, not just errors
  --verify          bounded-model-check every mined assertion of each
                    flat model against each netlist given alongside it
                    (MC codes; see DIAGNOSTICS.md)
  --depth <n>       unroll depth of --verify (default 8); --replay
                    always re-executes the full witness stimulus
  --witness-dir <dir>  save each counterexample stimulus as a
                    functional CSV witness under <dir>
  --replay <csv>    re-execute a witness stimulus against the netlist
                    and model given alongside it, instead of --verify
  --demo <path>     train a quick MultSum model, save it at <path>,
                    then lint the saved file
  --list-codes      print the full diagnostic catalogue (code, severity,
                    summary) as text, or as JSON with --format json, and
                    exit; needs no artifacts
  -q, --quiet       suppress progress lines (stderr); stdout carries
                    only the report in the selected format
  -h, --help        show this help";

/// Version tag of the JSON envelope (`--format json`).
const SCHEMA: &str = "psmlint/v1";

/// Significance level of the XA002 cross-check between a model file and
/// accompanying power CSVs — the default `MergePolicy` α.
const CROSS_CHECK_ALPHA: f64 = 0.01;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    deny_warnings: bool,
    quiet: bool,
    config: Option<String>,
    baseline: Option<String>,
    demo: Option<String>,
    list_codes: bool,
    verify: bool,
    depth: Option<usize>,
    witness_dir: Option<String>,
    replay: Option<String>,
    paths: Vec<String>,
}

impl Options {
    /// A progress/log line: stderr only, silenced by `--quiet`. Keeps
    /// stdout pipe-clean for `--format json|sarif` consumers.
    fn progress(&self, message: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("psmlint: {message}");
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        deny_warnings: false,
        quiet: false,
        config: None,
        baseline: None,
        demo: None,
        list_codes: false,
        verify: false,
        depth: None,
        witness_dir: None,
        replay: None,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let name = it.next().ok_or("--format needs text, json or sarif")?;
                opts.format = match name.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--json" => opts.format = Format::Json,
            "--deny-warnings" => opts.deny_warnings = true,
            "-q" | "--quiet" => opts.quiet = true,
            "--config" => {
                let path = it.next().ok_or("--config needs a file path")?;
                opts.config = Some(path.clone());
            }
            "--baseline" => {
                let path = it.next().ok_or("--baseline needs a file path")?;
                opts.baseline = Some(path.clone());
            }
            "--demo" => {
                let path = it.next().ok_or("--demo needs a file path")?;
                opts.demo = Some(path.clone());
            }
            "--list-codes" => opts.list_codes = true,
            "--verify" => opts.verify = true,
            "--depth" => {
                let value = it.next().ok_or("--depth needs a cycle count")?;
                let depth = value
                    .parse()
                    .map_err(|_| format!("--depth needs an integer, got `{value}`"))?;
                opts.depth = Some(depth);
            }
            "--witness-dir" => {
                let dir = it.next().ok_or("--witness-dir needs a directory path")?;
                opts.witness_dir = Some(dir.clone());
            }
            "--replay" => {
                let path = it.next().ok_or("--replay needs a witness CSV path")?;
                opts.replay = Some(path.clone());
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            path => opts.paths.push(path.to_owned()),
        }
    }
    if opts.paths.is_empty() && opts.demo.is_none() && !opts.list_codes {
        return Err("no artifacts given".to_owned());
    }
    Ok(opts)
}

/// Prints the diagnostic catalogue (`--list-codes`) in the selected
/// format. The text form is one `code severity summary` line per code —
/// the shape CI diffs against the DIAGNOSTICS.md tables.
fn print_codes(format: Format) {
    match format {
        Format::Json | Format::Sarif => {
            let entries = JsonValue::arr(codes::ALL.iter().map(|info| {
                JsonValue::obj([
                    ("code", JsonValue::from(info.code)),
                    ("severity", JsonValue::from(info.severity.name())),
                    ("summary", JsonValue::from(info.summary)),
                    ("help", JsonValue::from(info.help)),
                ])
            }));
            let doc = JsonValue::obj([
                ("schema", JsonValue::from("psmlint-codes/v1")),
                ("codes", entries),
            ]);
            println!("{}", doc.render());
        }
        Format::Text => {
            for info in codes::ALL {
                println!(
                    "{}  {:<7}  {}",
                    info.code,
                    info.severity.name(),
                    info.summary
                );
            }
        }
    }
}

/// Artifacts remembered across files for the cross-artifact checks.
#[derive(Default)]
struct Loaded {
    /// Flat models, by path, for the XA002 attribute re-derivation and
    /// the `--verify`/`--replay` modes.
    models: Vec<(String, PropositionTable, Psm)>,
    /// Per-domain PSMs of hierarchical models, as (path, domain, psm),
    /// for the domain-scoped XA005 power-intent cross-check.
    domain_models: Vec<(String, String, Psm)>,
    /// Power traces in command-line order.
    power: Vec<PowerTrace>,
    /// Paths of the power traces, same order (XA002 related artifacts).
    power_paths: Vec<String>,
    /// Parsed netlists, by path, for the `--verify`/`--replay` modes and
    /// the XA005 power-intent cross-check.
    netlists: Vec<(String, Netlist)>,
}

/// One linted artifact with its wall-clock cost and baseline bookkeeping.
struct LintedFile {
    file: String,
    report: AnalysisReport,
    elapsed_ns: u64,
    suppressed: usize,
}

/// Lints one artifact file, returning one report per contained model and
/// remembering cross-checkable artifacts in `loaded`.
fn lint_path(path: &str, loaded: &mut Loaded) -> Result<Vec<AnalysisReport>, String> {
    if path.ends_with(".v") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let netlist = parse_verilog(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut report = lint_netlist(&netlist);
        report.merge(lint_netlist_dataflow(&netlist));
        report.merge(lint_power_intent(&netlist));
        loaded.netlists.push((path.to_owned(), netlist));
        return Ok(vec![report]);
    }
    if path.ends_with(".csv") {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace =
            read_power_csv(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
        let report = lint_power_trace(&trace, path);
        loaded.power.push(trace);
        loaded.power_paths.push(path.to_owned());
        return Ok(vec![report]);
    }
    // Model files: a flat TrainedModel, else a HierarchicalModel.
    match TrainedModel::load(path) {
        Ok(model) => {
            let mut report = lint_model(&model.psm, &model.hmm, model.table.len());
            report.merge(lint_psm_against_table(&model.psm, model.table.len()));
            loaded
                .models
                .push((path.to_owned(), model.table, model.psm));
            Ok(vec![report])
        }
        Err(flat_err) => match HierarchicalModel::load(path) {
            Ok(model) => Ok(model
                .models
                .iter()
                .zip(&model.domains)
                .map(|(m, domain)| {
                    let mut report = AnalysisReport::new(format!("domain `{domain}`"));
                    report.merge(lint_model(&m.psm, &m.hmm, m.table.len()));
                    report.merge(lint_psm_against_table(&m.psm, m.table.len()));
                    loaded
                        .domain_models
                        .push((path.to_owned(), domain.clone(), m.psm.clone()));
                    report
                })
                .collect()),
            Err(_) => Err(format!("cannot load {path}: {flat_err}")),
        },
    }
}

/// Trains a small MultSum model and saves it, so CI can exercise the whole
/// persist-and-lint path offline.
fn train_demo(path: &str) -> Result<(), String> {
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let training = testbench::multsum_short_ts(1);
    let model = flow
        .train(&mut MultSum::new(), &[training])
        .map_err(|e| format!("demo training failed: {e}"))?;
    model
        .save(path)
        .map_err(|e| format!("cannot save demo model at {path}: {e}"))
}

fn load_config(path: &str) -> Result<LintConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    LintConfig::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Baseline::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The input-only port interface of a netlist — the witness CSV schema.
fn input_signals(netlist: &Netlist) -> Result<SignalSet, String> {
    let mut set = SignalSet::new();
    for (_, decl) in netlist.signal_set().iter() {
        if decl.direction() == Direction::Input {
            set.push(decl.name(), decl.width(), Direction::Input)
                .map_err(|e| format!("netlist `{}`: {e}", netlist.name()))?;
        }
    }
    Ok(set)
}

/// Saves one counterexample stimulus as a functional CSV under `dir`.
fn save_witness(
    dir: &str,
    index: usize,
    netlist: &Netlist,
    stimulus: &[Vec<Bits>],
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut trace = FunctionalTrace::new(input_signals(netlist)?);
    for cycle in stimulus {
        trace
            .push_cycle(cycle.clone())
            .map_err(|e| format!("witness stimulus is malformed: {e}"))?;
    }
    let path = format!("{dir}/witness_{index:03}.csv");
    let mut file = std::fs::File::create(&path).map_err(|e| format!("cannot write {path}: {e}"))?;
    write_functional_csv(&trace, &mut file).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

/// Reads a witness CSV back into a per-cycle input stimulus.
fn load_witness(path: &str, netlist: &Netlist) -> Result<Vec<Vec<Bits>>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = read_functional_csv(input_signals(netlist)?, std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(trace.iter().map(|row| row.to_vec()).collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("psmlint: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.list_codes {
        print_codes(opts.format);
        return ExitCode::SUCCESS;
    }
    let config = match opts.config.as_deref().map(load_config).transpose() {
        Ok(config) => config.unwrap_or_default(),
        Err(message) => {
            eprintln!("psmlint: {message}");
            return ExitCode::from(2);
        }
    };
    let baseline = match opts.baseline.as_deref().map(load_baseline).transpose() {
        Ok(baseline) => baseline.unwrap_or_default(),
        Err(message) => {
            // A distinct status: the gate itself is broken (stale path in
            // CI, corrupted record), not the artifacts under analysis.
            eprintln!(
                "psmlint: --baseline is unusable: {message}\n\
                 psmlint: regenerate it with `psmlint --format json ... > baseline.json`"
            );
            return ExitCode::from(3);
        }
    };
    if let Some(demo) = &opts.demo.clone() {
        opts.progress(format_args!("training demo MultSum model at {demo}"));
        if let Err(message) = train_demo(demo) {
            eprintln!("psmlint: {message}");
            return ExitCode::from(2);
        }
        opts.paths.push(demo.clone());
    }

    let mut loaded = Loaded::default();
    let mut files: Vec<LintedFile> = Vec::new();
    for path in &opts.paths {
        opts.progress(format_args!("linting {path}"));
        let start = Instant::now();
        match lint_path(path, &mut loaded) {
            Ok(found) => {
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                files.extend(found.into_iter().map(|report| LintedFile {
                    file: path.clone(),
                    report,
                    elapsed_ns,
                    suppressed: 0,
                }));
            }
            Err(message) => {
                eprintln!("psmlint: {message}");
                return ExitCode::from(2);
            }
        }
    }
    // Cross-check every flat model against the power traces given
    // alongside it (XA002: are the stored attributes re-derivable?).
    if !loaded.power.is_empty() {
        for (path, _, psm) in &loaded.models {
            opts.progress(format_args!(
                "cross-checking {path} against {} power trace(s)",
                loaded.power.len()
            ));
            let start = Instant::now();
            let mut report = lint_psm_against_training(psm, &loaded.power, CROSS_CHECK_ALPHA);
            let mut related = vec![path.clone()];
            related.extend(loaded.power_paths.iter().cloned());
            report.tag_related(&related);
            files.push(LintedFile {
                file: path.clone(),
                report,
                elapsed_ns: start.elapsed().as_nanos() as u64,
                suppressed: 0,
            });
        }
    }
    // Power-intent cross-check (XA005): every model given alongside a
    // netlist that declares power intent is checked for off-implying
    // states over domains the netlist cannot actually gate. Hierarchical
    // models scope the check to their own domain.
    for (netlist_path, netlist) in &loaded.netlists {
        if !netlist.has_power_intent() {
            continue;
        }
        let flat = loaded.models.iter().map(|(path, _, psm)| (path, None, psm));
        let scoped = loaded
            .domain_models
            .iter()
            .map(|(path, domain, psm)| (path, Some(domain.as_str()), psm));
        for (model_path, domain, psm) in flat.chain(scoped) {
            opts.progress(format_args!(
                "cross-checking power intent of {model_path} against {netlist_path}"
            ));
            let start = Instant::now();
            let mut report = lint_psm_power_intent(psm, domain, netlist);
            report.tag_related(&[model_path.clone(), netlist_path.clone()]);
            files.push(LintedFile {
                file: model_path.clone(),
                report,
                elapsed_ns: start.elapsed().as_nanos() as u64,
                suppressed: 0,
            });
        }
    }
    // Bounded model checking: every mined assertion of every flat model
    // against every netlist given alongside it.
    if opts.verify || opts.replay.is_some() {
        if loaded.netlists.is_empty() || loaded.models.is_empty() {
            eprintln!(
                "psmlint: --verify/--replay need at least one netlist (*.v) and one flat \
                 model (*.json) on the command line"
            );
            return ExitCode::from(2);
        }
        let mut verify_cfg = config.verify().cloned().unwrap_or_default();
        if let Some(depth) = opts.depth {
            verify_cfg.depth = depth;
        }
        let mut witness_index = 0usize;
        for (netlist_path, netlist) in &loaded.netlists {
            for (model_path, table, psm) in &loaded.models {
                let start = Instant::now();
                let report = if let Some(witness) = &opts.replay {
                    opts.progress(format_args!(
                        "replaying {witness} against {netlist_path} x {model_path}"
                    ));
                    let stimulus = match load_witness(witness, netlist) {
                        Ok(stimulus) => stimulus,
                        Err(message) => {
                            eprintln!("psmlint: {message}");
                            return ExitCode::from(2);
                        }
                    };
                    replay_witness(netlist, table, psm, &stimulus)
                } else {
                    opts.progress(format_args!(
                        "verifying {model_path} against {netlist_path} (depth {})",
                        verify_cfg.depth
                    ));
                    let outcome = verify_model(netlist, table, psm, &verify_cfg);
                    if let Some(dir) = &opts.witness_dir {
                        for check in &outcome.checks {
                            let Some(cex) = &check.counterexample else {
                                continue;
                            };
                            witness_index += 1;
                            match save_witness(dir, witness_index, netlist, &cex.stimulus) {
                                Ok(path) => opts.progress(format_args!(
                                    "witness for `{}` saved at {path}",
                                    check.text
                                )),
                                Err(message) => {
                                    eprintln!("psmlint: {message}");
                                    return ExitCode::from(2);
                                }
                            }
                        }
                    }
                    outcome.report
                };
                let mut report = report;
                report.tag_related(&[model_path.clone(), netlist_path.clone()]);
                files.push(LintedFile {
                    file: model_path.clone(),
                    report,
                    elapsed_ns: start.elapsed().as_nanos() as u64,
                    suppressed: 0,
                });
            }
        }
    }
    // Policy first (re-level / drop), then the baseline (suppress what a
    // previous run already recorded).
    for f in &mut files {
        let report = config.apply(std::mem::replace(
            &mut f.report,
            AnalysisReport::new(String::new()),
        ));
        let (report, suppressed) = baseline.filter(&f.file, report);
        f.report = report;
        f.suppressed = suppressed;
    }

    let errors: usize = files.iter().map(|f| f.report.count(Severity::Error)).sum();
    let warnings: usize = files.iter().map(|f| f.report.count(Severity::Warn)).sum();
    let suppressed: usize = files.iter().map(|f| f.suppressed).sum();

    match opts.format {
        Format::Json => {
            let entries = JsonValue::arr(files.iter().map(|f| {
                JsonValue::obj([
                    ("file", JsonValue::from(f.file.as_str())),
                    ("elapsed_ns", JsonValue::from(f.elapsed_ns)),
                    ("errors", JsonValue::from(f.report.count(Severity::Error))),
                    ("warnings", JsonValue::from(f.report.count(Severity::Warn))),
                    ("infos", JsonValue::from(f.report.count(Severity::Info))),
                    ("suppressed", JsonValue::from(f.suppressed)),
                    ("report", f.report.to_json()),
                ])
            }));
            let doc = JsonValue::obj([
                ("schema", JsonValue::from(SCHEMA)),
                ("reports", entries),
                ("errors", JsonValue::from(errors)),
                ("warnings", JsonValue::from(warnings)),
                ("suppressed", JsonValue::from(suppressed)),
            ]);
            println!("{}", doc.render());
            opts.progress(format_args!(
                "{errors} error(s), {warnings} warning(s), {suppressed} suppressed"
            ));
        }
        Format::Sarif => {
            let pairs: Vec<(String, AnalysisReport)> =
                files.into_iter().map(|f| (f.file, f.report)).collect();
            println!("{}", to_sarif(&pairs).render());
            opts.progress(format_args!(
                "{errors} error(s), {warnings} warning(s), {suppressed} suppressed"
            ));
        }
        Format::Text => {
            for f in &files {
                println!("== {}", f.file);
                if f.suppressed > 0 {
                    println!("   ({} baselined finding(s) suppressed)", f.suppressed);
                }
                println!("{}", f.report.text());
            }
            if suppressed > 0 {
                println!(
                    "psmlint: {errors} error(s), {warnings} warning(s), {suppressed} suppressed"
                );
            } else {
                println!("psmlint: {errors} error(s), {warnings} warning(s)");
            }
        }
    }

    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
