//! The fixed `psmbench` scenario suite.
//!
//! Every scenario is a named, deterministic workload over one stage of the
//! PSM pipeline (or the whole [`PsmFlow`] path at a fixed worker count).
//! Workloads are generated by `psm-prng`-seeded testbenches, so two runs
//! of the same suite on the same build measure identical work; all timing
//! goes through [`crate::timing`] (warm-up + measured iterations, median +
//! MAD). See `BENCHMARKS.md` for the catalogue and the JSON schema the
//! results serialise to.

use crate::timing::{bench_iters, Measurement};
use psm_core::{classify_trace, generate_psm, join, simplify, Psm};
use psm_hmm::{build_hmm, HmmSimulator};
use psm_ips::{behavioural_trace, testbench, Ip};
use psm_mining::Miner;
use psm_rtl::{capture_traces_batch, Stimulus};
use psm_trace::binary::{decode_trace, encode_trace};
use psm_trace::{FunctionalTrace, PowerTrace};
use psmgen::analyze::{
    lint_interface, lint_model, lint_netlist, lint_netlist_dataflow, lint_power_intent,
    lint_psm_against_table, prove_domain_off, verify_model, VerifyConfig,
};
use psmgen::flow::{Parallelism, PsmFlow, TrainedModel};
use psmgen::serve::{Client, PoolConfig, Server, ServerConfig};
use psmgen::telemetry::Stage;

/// Suite-wide knobs, fixed before any scenario runs so every scenario of
/// one invocation shares the same budget.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Measured iterations per scenario (a warm-up pass is always added).
    pub iters: u32,
    /// Cycle budget for the long synthetic traces.
    pub cycles: usize,
    /// Base seed for the deterministic workload generators.
    pub seed: u64,
    /// Worker counts for the full-flow sweep (first entry is the
    /// speedup baseline).
    pub threads: Vec<usize>,
}

impl SuiteConfig {
    /// The full suite: 10 iterations, 20 000-cycle traces, 1/2/4/8 threads.
    pub fn full() -> Self {
        SuiteConfig {
            iters: 10,
            cycles: 20_000,
            seed: 7,
            threads: vec![1, 2, 4, 8],
        }
    }

    /// A CI-sized suite: 5 iterations, 2 000-cycle traces, 1/2 threads.
    /// Small enough for a smoke gate, still covering every scenario.
    pub fn quick() -> Self {
        SuiteConfig {
            iters: 5,
            cycles: 2_000,
            seed: 7,
            threads: vec![1, 2],
        }
    }
}

/// One scenario's outcome: the timing summary plus the work-unit count
/// that turns it into a throughput, and (for flow scenarios) the worker
/// count, speedup and per-stage telemetry breakdown.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Timing summary from the [`crate::timing`] harness.
    pub m: Measurement,
    /// Trace rows processed per iteration (the throughput denominator).
    pub rows: usize,
    /// Worker count, for the `flow_*` thread-sweep scenarios.
    pub threads: Option<usize>,
    /// Median-based speedup relative to the 1-thread run of the same
    /// scenario family.
    pub speedup_vs_1_thread: Option<f64>,
    /// Per-stage timing from the flow's telemetry report, captured on the
    /// final iteration: `(stage name, total ns, wall ns)`. `total` sums
    /// worker time across threads; `wall` is the union of the stage's
    /// span intervals — in a parallel run the two diverge, and speedup
    /// regressions are attributable to the stage whose wall time grew.
    pub stages: Vec<(String, u64, u64)>,
    /// Extra scenario-specific figures serialised as additional JSON
    /// fields (e.g. `chunk_p50_ns`/`chunk_p99_ns` for the streaming
    /// scenarios). The regression gate ignores them.
    pub extras: Vec<(String, u64)>,
}

impl ScenarioResult {
    fn plain(m: Measurement, rows: usize) -> Self {
        ScenarioResult {
            m,
            rows,
            threads: None,
            speedup_vs_1_thread: None,
            stages: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Rows per second at the median iteration time.
    pub fn rows_per_sec(&self) -> f64 {
        self.m.elems_per_sec_median(self.rows)
    }
}

/// Shared fixtures, built once: a long capture for the substrate
/// scenarios and a trained model for the estimation-side ones.
struct Fixtures {
    flow: PsmFlow,
    functional: Vec<FunctionalTrace>,
    power: Vec<PowerTrace>,
    model: TrainedModel,
    workload_trace: FunctionalTrace,
    training: Vec<Stimulus>,
}

fn build_fixtures(cfg: &SuiteConfig) -> Fixtures {
    let flow = crate::flow("MultSum");
    let netlist = crate::ip("MultSum").netlist().expect("netlist builds");

    // Three long captures: one long trace for the single-trace scenarios,
    // all three for join. Seeds derive from the suite seed so the workload
    // is a pure function of the config.
    let stimuli: Vec<Stimulus> = (0..3)
        .map(|k| testbench::multsum_long_ts(cfg.seed + k, cfg.cycles))
        .collect();
    let seeds: Vec<u64> = (0..stimuli.len() as u64).map(|i| cfg.seed + i).collect();
    let mut functional = Vec::new();
    let mut power = Vec::new();
    for cap in capture_traces_batch(&netlist, &flow.power_model, &stimuli, &seeds)
        .expect("capture succeeds")
    {
        functional.push(cap.functional);
        power.push(cap.power);
    }

    let mut core = crate::ip("MultSum");
    let model = flow
        .train(core.as_mut(), &[testbench::multsum_short_ts(1)])
        .expect("training succeeds");
    let workload = testbench::multsum_long_ts(cfg.seed + 13, cfg.cycles);
    let workload_trace = behavioural_trace(core.as_mut(), &workload).expect("workload fits");

    // Training set for the flow sweep: enough stimuli to give the worker
    // pool real fan-out, short enough to iterate.
    let training: Vec<Stimulus> = (0..4)
        .map(|k| testbench::multsum_long_ts(100 + cfg.seed + k, cfg.cycles / 4))
        .collect();

    Fixtures {
        flow,
        functional,
        power,
        model,
        workload_trace,
        training,
    }
}

fn simplified_psms(fx: &Fixtures) -> Vec<Psm> {
    let miner = Miner::new(fx.flow.mining);
    let refs: Vec<&FunctionalTrace> = fx.functional.iter().collect();
    let mined = miner.mine(&refs).expect("mines");
    mined
        .traces
        .iter()
        .zip(&fx.power)
        .enumerate()
        .map(|(i, (trace, pw))| {
            let mut psm = generate_psm(trace, pw, i).expect("generates");
            simplify(&mut psm, &fx.flow.merge);
            psm
        })
        .collect()
}

/// Cycles of each of the 64 stimuli behind `capture_lanes64`, whatever
/// the suite's budget: a full lane word at the `--quick` length would be
/// too short to time above host noise, at the full length too slow.
const CAPTURE_WIDE_CYCLES: usize = 1_500;

/// Cycles of each capture behind `reduce_long_ts`, whatever the suite's
/// budget: `simplify` and `join` cost grows with the number of generated
/// states, and the `--quick` traces are too short for the regression gate
/// to see a superlinear slowdown above host noise.
const REDUCE_CYCLES: usize = 25_000;

/// The generated (not yet simplified) chain PSMs of four MultSum long-TS
/// captures of [`REDUCE_CYCLES`] cycles, with their total instants.
fn long_chain_psms(flow: &PsmFlow, seed: u64) -> (Vec<Psm>, usize) {
    let netlist = crate::ip("MultSum").netlist().expect("netlist builds");
    let stimuli: Vec<Stimulus> = (0..4)
        .map(|k| testbench::multsum_long_ts(seed + k, REDUCE_CYCLES))
        .collect();
    let seeds: Vec<u64> = (0..stimuli.len() as u64).map(|k| seed + k).collect();
    let (functional, power): (Vec<FunctionalTrace>, Vec<PowerTrace>) =
        capture_traces_batch(&netlist, &flow.power_model, &stimuli, &seeds)
            .expect("capture succeeds")
            .into_iter()
            .map(|cap| (cap.functional, cap.power))
            .unzip();
    let refs: Vec<&FunctionalTrace> = functional.iter().collect();
    let mined = Miner::new(flow.mining).mine(&refs).expect("mines");
    let chains = mined
        .traces
        .iter()
        .zip(&power)
        .enumerate()
        .map(|(i, (trace, pw))| generate_psm(trace, pw, i).expect("generates"))
        .collect();
    (chains, functional.iter().map(FunctionalTrace::len).sum())
}

/// Cycles of each of the four long-TS captures `compiled_forward_long_ts`
/// trains on, whatever the suite's budget: the model must be the one the
/// paper's long-TS rows produce, whose few distinct chains carry counts in
/// the thousands.
const LONG_TS_MODEL_CYCLES: usize = 25_000;

/// Compiles `model`, checks the compiled pass bit-agrees with the
/// reference `HmmSimulator` on `workload`, then times both passes over
/// the same classified observations. The measured figure is the compiled
/// pass; the reference median, the speedup (×100, so 250 = 2.5×) and the
/// one-off compilation cost ride in the extras.
fn compiled_forward(
    scen: String,
    model: &TrainedModel,
    workload: &FunctionalTrace,
    iters: u32,
) -> (String, ScenarioResult) {
    let obs = classify_trace(&model.table, workload);
    let hamming = workload.input_hamming_series();
    let rows = obs.len();

    let t0 = std::time::Instant::now();
    let compiled = model.compile().expect("model compiles");
    let compile_ns = t0.elapsed().as_nanos() as u64;
    let interp_out = HmmSimulator::new(&model.psm, model.hmm.clone()).run(&obs, &hamming);
    assert_eq!(
        compiled.run(&obs, &hamming),
        interp_out,
        "{scen}: compiled pass diverges from the reference simulator"
    );

    let interp = bench_iters(&format!("{scen}:interpreted"), iters, &mut || {
        let sim = HmmSimulator::new(&model.psm, model.hmm.clone());
        sim.run(&obs, &hamming)
    });
    let m = bench_iters(&scen, iters, &mut || compiled.run(&obs, &hamming));
    let speedup_x100 =
        (interp.median.as_secs_f64() / m.median.as_secs_f64() * 100.0).round() as u64;
    let result = ScenarioResult {
        m,
        rows,
        threads: None,
        speedup_vs_1_thread: None,
        stages: Vec::new(),
        extras: vec![
            ("interp_median_ns".into(), interp.median.as_nanos() as u64),
            ("speedup_x100".into(), speedup_x100),
            ("compile_ns".into(), compile_ns),
        ],
    };
    (scen, result)
}

/// Runs the whole suite, printing one harness line per scenario, and
/// returns the results in run order as `(name, result)` pairs.
pub fn run_suite(cfg: &SuiteConfig) -> Vec<(String, ScenarioResult)> {
    let fx = build_fixtures(cfg);
    let mut out: Vec<(String, ScenarioResult)> = Vec::new();

    // -- mining over one long trace ------------------------------------
    let miner = Miner::new(fx.flow.mining);
    let long = &fx.functional[0];
    let rows = long.len();
    let m = bench_iters("mine_long_trace", cfg.iters, &mut || {
        miner.mine(&[long]).expect("mines")
    });
    out.push(("mine_long_trace".into(), ScenarioResult::plain(m, rows)));

    // -- proposition classification over a behavioural trace -----------
    let rows = fx.workload_trace.len();
    let m = bench_iters("classify_long_trace", cfg.iters, &mut || {
        classify_trace(&fx.model.table, &fx.workload_trace)
    });
    out.push(("classify_long_trace".into(), ScenarioResult::plain(m, rows)));

    // -- binary trace decode: a 2000-cycle AES payload, as psmd gets it -
    let stim = testbench::long_ts("AES", cfg.seed + 31, 2_000).expect("known IP");
    let aes_trace = behavioural_trace(crate::ip("AES").as_mut(), &stim).expect("workload fits");
    let payload = encode_trace(&aes_trace);
    let m = bench_iters("decode_trace_bin", cfg.iters, &mut || {
        decode_trace(&payload).expect("decodes")
    });
    out.push((
        "decode_trace_bin".into(),
        ScenarioResult::plain(m, aes_trace.len()),
    ));

    // -- behavioural IP simulation: the estimation path's IP sim. layer -
    // All four paper benches over long-TS stimuli of the budget's length,
    // generated outside the timed loop (rows = instants of the four).
    let mut behavioural: Vec<(Box<dyn Ip>, Stimulus)> = ["RAM", "MultSum", "AES", "Camellia"]
        .into_iter()
        .map(|name| {
            let stim = testbench::long_ts(name, cfg.seed + 41, cfg.cycles).expect("known IP");
            (crate::ip(name), stim)
        })
        .collect();
    let rows = behavioural.iter().map(|(_, stim)| stim.len()).sum();
    let m = bench_iters("behavioural_long_ts", cfg.iters, &mut || {
        behavioural
            .iter_mut()
            .map(|(ip, stim)| behavioural_trace(ip.as_mut(), stim).expect("workload fits"))
            .collect::<Vec<_>>()
    });
    out.push(("behavioural_long_ts".into(), ScenarioResult::plain(m, rows)));

    // -- gate-level capture at 1, 4 and 64 lanes ------------------------
    // The batch engine's three regimes: one short-TS stimulus (psmperf's
    // `train_short_ts`), four long-TS stimuli (`train_long_ts`) and a
    // full 64-lane word, the wide accumulation path psmperf never runs.
    // Rows are gate-cycles: combinational cells × captured cycles.
    for (scen, name, stimuli) in [
        (
            "capture_lanes1",
            "AES",
            vec![testbench::short_ts("AES", cfg.seed).expect("known IP")],
        ),
        (
            "capture_lanes4",
            "MultSum",
            (0..4)
                .map(|k| testbench::multsum_long_ts(cfg.seed + k, cfg.cycles))
                .collect(),
        ),
        (
            "capture_lanes64",
            "MultSum",
            (0..64)
                .map(|k| testbench::multsum_long_ts(cfg.seed + k, CAPTURE_WIDE_CYCLES))
                .collect(),
        ),
    ] {
        let netlist = crate::ip(name).netlist().expect("netlist builds");
        let seeds: Vec<u64> = (0..stimuli.len() as u64).map(|k| cfg.seed + k).collect();
        let power = crate::flow(name).power_model;
        let cycles: usize = stimuli.iter().map(Stimulus::len).sum();
        let m = bench_iters(scen, cfg.iters, &mut || {
            capture_traces_batch(&netlist, &power, &stimuli, &seeds).expect("capture succeeds")
        });
        out.push((
            scen.into(),
            ScenarioResult::plain(m, netlist.gates().len() * cycles),
        ));
    }

    // -- XU-automaton generation + simplify ----------------------------
    let refs: Vec<&FunctionalTrace> = fx.functional.iter().collect();
    let mined = miner.mine(&refs).expect("mines");
    let rows = fx.functional[0].len();
    let m = bench_iters("psm_generate_simplify", cfg.iters, &mut || {
        let mut psm = generate_psm(&mined.traces[0], &fx.power[0], 0).expect("generates");
        simplify(&mut psm, &fx.flow.merge);
        psm
    });
    out.push((
        "psm_generate_simplify".into(),
        ScenarioResult::plain(m, rows),
    ));

    // -- joining per-trace PSMs ----------------------------------------
    let psms = simplified_psms(&fx);
    let rows: usize = fx.functional.iter().map(FunctionalTrace::len).sum();
    let m = bench_iters("join_traces", cfg.iters, &mut || {
        join(&psms, &fx.flow.merge)
    });
    out.push(("join_traces".into(), ScenarioResult::plain(m, rows)));

    // -- simplify + join at long-trace scale ----------------------------
    let (chains, rows) = long_chain_psms(&fx.flow, cfg.seed);
    let m = bench_iters("reduce_long_ts", cfg.iters, &mut || {
        let simplified: Vec<Psm> = chains
            .iter()
            .map(|chain| {
                let mut psm = chain.clone();
                simplify(&mut psm, &fx.flow.merge);
                psm
            })
            .collect();
        join(&simplified, &fx.flow.merge)
    });
    out.push(("reduce_long_ts".into(), ScenarioResult::plain(m, rows)));

    // -- HMM construction from a PSM -----------------------------------
    let rows = fx.model.psm.states().count();
    let m = bench_iters("hmm_build", cfg.iters, &mut || {
        build_hmm(&fx.model.psm, fx.model.table.len())
    });
    out.push(("hmm_build".into(), ScenarioResult::plain(m, rows)));

    // -- reference (textbook) forward simulation over the long workload -
    let obs = classify_trace(&fx.model.table, &fx.workload_trace);
    let hamming = fx.workload_trace.input_hamming_series();
    let rows = obs.len();
    let m = bench_iters("hmm_forward_sim", cfg.iters, &mut || {
        let sim = HmmSimulator::new(&fx.model.psm, fx.model.hmm.clone());
        sim.run(&obs, &hamming)
    });
    out.push(("hmm_forward_sim".into(), ScenarioResult::plain(m, rows)));

    // -- compiled flat-table forward vs the reference walker ------------
    // One scenario per paper bench, trained on its short-TS testbench,
    // and one on the MultSum model trained on four long-TS captures,
    // whose few distinct chains carry counts in the thousands.
    for name in ["RAM", "MultSum", "AES", "Camellia"] {
        let mut ip = crate::ip(name);
        let model = crate::flow(name)
            .train(
                ip.as_mut(),
                &[testbench::short_ts(name, 1).expect("known IP")],
            )
            .expect("training succeeds");
        let stim = testbench::long_ts(name, cfg.seed + 21, cfg.cycles).expect("known IP");
        let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");
        let scen = format!("compiled_forward_{}", name.to_lowercase());
        out.push(compiled_forward(scen, &model, &workload, cfg.iters));
    }
    let mut ip = crate::ip("MultSum");
    let stimuli: Vec<Stimulus> = (0..4)
        .map(|k| testbench::multsum_long_ts(cfg.seed + k, LONG_TS_MODEL_CYCLES))
        .collect();
    let model = fx
        .flow
        .train(ip.as_mut(), &stimuli)
        .expect("training succeeds");
    let stim = testbench::multsum_long_ts(cfg.seed + 21, cfg.cycles);
    let workload = behavioural_trace(ip.as_mut(), &stim).expect("workload fits");
    out.push(compiled_forward(
        "compiled_forward_long_ts".into(),
        &model,
        &workload,
        cfg.iters,
    ));

    // -- full static-analysis pass: netlist + interface + model lints --
    let lint_ip = crate::ip("MultSum");
    let netlist = lint_ip.netlist().expect("netlist builds");
    let rows = netlist.net_count();
    let m = bench_iters("lint_suite", cfg.iters, &mut || {
        let mut report = lint_netlist(&netlist);
        report.merge(lint_netlist_dataflow(&netlist));
        report.merge(lint_interface(&lint_ip.signals(), &netlist));
        report.merge(lint_model(
            &fx.model.psm,
            &fx.model.hmm,
            fx.model.table.len(),
        ));
        report.merge(lint_psm_against_table(&fx.model.psm, fx.model.table.len()));
        report
    });
    out.push(("lint_suite".into(), ScenarioResult::plain(m, rows)));

    // -- bounded model checking of the mined assertions ----------------
    // MultSum's input interface is wider than the exhaustive-enumeration
    // budget, so this measures the abstract k-cycle unroller path.
    let verify_cfg = VerifyConfig::default();
    let rows = fx.model.table.len() * verify_cfg.depth;
    let m = bench_iters("verify_suite", cfg.iters, &mut || {
        verify_model(&netlist, &fx.model.table, &fx.model.psm, &verify_cfg)
    });
    out.push(("verify_suite".into(), ScenarioResult::plain(m, rows)));

    // -- power-intent analysis over the largest multi-domain bench -----
    // Camellia declares four power domains. The structural pass walks the
    // crossing graph; `prove_domain_off` then runs one ternary fixpoint
    // per non-core domain (the proof is not intent-gated, so it measures
    // the semantic engine even though the bench declares no isolation).
    let pd_netlist = crate::ip("Camellia").netlist().expect("netlist builds");
    let pd_rows = pd_netlist.net_count() * (pd_netlist.domains().len() - 1);
    let m = bench_iters("powerintent_suite", cfg.iters, &mut || {
        let report = lint_power_intent(&pd_netlist);
        let mut edges = pd_netlist.domain_crossings().len();
        for d in 1..pd_netlist.domains().len() {
            let proof = prove_domain_off(&pd_netlist, d).expect("bench is interpretable");
            edges += proof.sweeps;
        }
        (report, edges)
    });
    out.push((
        "powerintent_suite".into(),
        ScenarioResult::plain(m, pd_rows),
    ));

    // -- full flow train + estimate at each worker count ---------------
    let train_rows: usize = fx.training.iter().map(Stimulus::len).sum();
    let mut train_base: Option<f64> = None;
    let mut estimate_base: Option<f64> = None;
    for &w in &cfg.threads {
        let run = PsmFlow {
            parallelism: parallelism_for(w),
            ..fx.flow.clone()
        };

        let mut stages: Vec<(String, u64, u64)> = Vec::new();
        let m = bench_iters(&format!("flow_train_t{w}"), cfg.iters, &mut || {
            let (model, report) = run
                .train_with_telemetry(crate::ip("MultSum").as_mut(), &fx.training)
                .expect("training succeeds");
            stages = Stage::ALL
                .iter()
                .map(|&s| {
                    (
                        s.name().to_owned(),
                        report.stage_total(s).as_nanos() as u64,
                        report.stage_wall(s).as_nanos() as u64,
                    )
                })
                .filter(|(_, ns, _)| *ns > 0)
                .collect();
            model
        });
        let median = m.median.as_secs_f64();
        let speedup = *train_base.get_or_insert(median) / median;
        out.push((
            format!("flow_train_t{w}"),
            ScenarioResult {
                m,
                rows: train_rows,
                threads: Some(w),
                speedup_vs_1_thread: Some(speedup),
                stages,
                extras: Vec::new(),
            },
        ));

        let workloads: Vec<Stimulus> = (0..4)
            .map(|k| testbench::multsum_long_ts(200 + cfg.seed + k, cfg.cycles / 4))
            .collect();
        let est_rows: usize = workloads.iter().map(Stimulus::len).sum();
        let m = bench_iters(&format!("flow_estimate_t{w}"), cfg.iters, &mut || {
            run.estimate_batch(&fx.model, || crate::ip("MultSum"), &workloads)
                .expect("estimation succeeds")
        });
        let median = m.median.as_secs_f64();
        let speedup = *estimate_base.get_or_insert(median) / median;
        out.push((
            format!("flow_estimate_t{w}"),
            ScenarioResult {
                m,
                rows: est_rows,
                threads: Some(w),
                speedup_vs_1_thread: Some(speedup),
                stages: Vec::new(),
                extras: Vec::new(),
            },
        ));
    }

    // -- psmd loopback estimation at each worker count -----------------
    // Eight concurrent clients against a daemon serving the trained
    // model; measures the framed-protocol + batching-pool path end to
    // end (connect, submit, estimate, reply) over loopback TCP, with
    // the default binary trace payload.
    let registry = std::env::temp_dir().join(format!("psmbench-registry-{}", std::process::id()));
    std::fs::create_dir_all(&registry).expect("registry dir");
    fx.model
        .save(registry.join("multsum@1.json"))
        .expect("model saves");
    let serve_workloads: Vec<FunctionalTrace> = (0..8)
        .map(|k| {
            let stim = testbench::multsum_long_ts(300 + cfg.seed + k, cfg.cycles / 4);
            behavioural_trace(crate::ip("MultSum").as_mut(), &stim).expect("workload fits")
        })
        .collect();
    let serve_rows: usize = serve_workloads.iter().map(FunctionalTrace::len).sum();
    let mut serve_base: Option<f64> = None;
    for &w in &cfg.threads {
        let scen = format!("serve_estimate_t{w}");
        let running = Server::bind(ServerConfig {
            pool: PoolConfig {
                workers: w,
                ..PoolConfig::default()
            },
            ..ServerConfig::new(&registry)
        })
        .expect("daemon binds")
        .spawn();
        let addr = running.addr();
        let m = bench_iters(&scen, cfg.iters, &mut || {
            std::thread::scope(|scope| {
                for trace in &serve_workloads {
                    scope.spawn(move || {
                        Client::connect(addr)
                            .expect("connect")
                            .estimate_binary("multsum", None, trace)
                            .expect("estimate succeeds")
                    });
                }
            });
        });
        Client::connect(addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        running.join().expect("daemon exits cleanly");
        let median = m.median.as_secs_f64();
        let speedup = *serve_base.get_or_insert(median) / median;
        out.push((
            scen,
            ScenarioResult {
                m,
                rows: serve_rows,
                threads: Some(w),
                speedup_vs_1_thread: Some(speedup),
                stages: Vec::new(),
                extras: Vec::new(),
            },
        ));
    }

    // -- one-shot binary estimate over one persistent connection --------
    // One client, the same long workload: the wire cost (serialise,
    // transfer, decode) plus one forward pass.
    {
        let running = Server::bind(ServerConfig::new(&registry))
            .expect("daemon binds")
            .spawn();
        let addr = running.addr();
        let mut client = Client::connect(addr).expect("connect");
        let rows = fx.workload_trace.len();
        let m = bench_iters("serve_oneshot_bin", cfg.iters, &mut || {
            client
                .estimate_binary("multsum", None, &fx.workload_trace)
                .expect("estimate succeeds")
        });
        out.push(("serve_oneshot_bin".into(), ScenarioResult::plain(m, rows)));
        Client::connect(addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        running.join().expect("daemon exits cleanly");
    }

    // -- streamed estimation at each worker count ----------------------
    // One client streaming the long workload in 256-cycle chunks over a
    // session (open, N chunks, close) per iteration; the per-chunk
    // round-trip latencies land in `chunk_p50_ns`/`chunk_p99_ns`.
    let stream_chunks: Vec<FunctionalTrace> = fx.workload_trace.split_windows(256);
    let stream_rows = fx.workload_trace.len();
    let mut stream_base: Option<f64> = None;
    for &w in &cfg.threads {
        let running = Server::bind(ServerConfig {
            pool: PoolConfig {
                workers: w,
                ..PoolConfig::default()
            },
            ..ServerConfig::new(&registry)
        })
        .expect("daemon binds")
        .spawn();
        let addr = running.addr();
        let mut client = Client::connect(addr).expect("connect");
        let mut chunk_ns: Vec<u64> = Vec::new();
        let m = bench_iters(&format!("serve_stream_t{w}"), cfg.iters, &mut || {
            let mut stream = client
                .open_stream("multsum", None, fx.workload_trace.signals())
                .expect("stream opens");
            for chunk in &stream_chunks {
                let t0 = std::time::Instant::now();
                stream.send_chunk(chunk).expect("chunk estimates");
                chunk_ns.push(t0.elapsed().as_nanos() as u64);
            }
            stream.close().expect("stream closes")
        });
        Client::connect(addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        running.join().expect("daemon exits cleanly");
        // The first pass is bench_iters' warm-up; only the measured
        // iterations count towards the percentiles.
        let mut chunk_ns = chunk_ns.split_off(stream_chunks.len());
        chunk_ns.sort_unstable();
        let pct = |p: f64| chunk_ns[((chunk_ns.len() - 1) as f64 * p).round() as usize];
        let median = m.median.as_secs_f64();
        let speedup = *stream_base.get_or_insert(median) / median;
        out.push((
            format!("serve_stream_t{w}"),
            ScenarioResult {
                m,
                rows: stream_rows,
                threads: Some(w),
                speedup_vs_1_thread: Some(speedup),
                stages: Vec::new(),
                extras: vec![
                    ("chunk_p50_ns".into(), pct(0.50)),
                    ("chunk_p99_ns".into(), pct(0.99)),
                ],
            },
        ));
    }
    std::fs::remove_dir_all(&registry).ok();

    out
}

fn parallelism_for(workers: usize) -> Parallelism {
    if workers <= 1 {
        Parallelism::Sequential
    } else {
        Parallelism::Workers(workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller_than_full() {
        let q = SuiteConfig::quick();
        let f = SuiteConfig::full();
        assert!(q.iters < f.iters);
        assert!(q.cycles < f.cycles);
        assert!(q.threads.len() <= f.threads.len());
        assert_eq!(q.seed, f.seed); // same workloads, smaller budget
    }

    #[test]
    fn rows_per_sec_uses_median() {
        let m = Measurement {
            name: "x".into(),
            iters: 1,
            mean: std::time::Duration::from_secs(2),
            min: std::time::Duration::from_secs(1),
            median: std::time::Duration::from_secs(1),
            mad: std::time::Duration::ZERO,
        };
        let r = ScenarioResult::plain(m, 1000);
        assert!((r.rows_per_sec() - 1000.0).abs() < 1e-9);
    }
}
