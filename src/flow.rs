//! The end-to-end PSM pipeline (paper Fig. 1).
//!
//! [`PsmFlow`] packages the whole methodology behind two calls:
//!
//! * [`PsmFlow::train`] — run the *golden* gate-level power simulation on
//!   the training stimuli (the PrimeTime-PX role), mine temporal
//!   assertions, generate one chain PSM per trace, `simplify`, `join`,
//!   calibrate data-dependent states and build the HMM;
//! * [`PsmFlow::estimate`] — simulate the fast behavioural model of the IP
//!   concurrently with the PSMs (through the HMM) on a fresh workload and
//!   return the power estimate, plus the golden reference for accuracy
//!   evaluation.
//!
//! Flows are configured through [`PsmFlow::builder`] (with [`IpPreset`]
//! for the paper's Table I benchmarks). The training engine fans the
//! per-stimulus golden captures and the per-trace PSM generation across
//! scoped worker threads ([`Parallelism`]); the merge is deterministic, so
//! a parallel run produces a [`TrainedModel`] byte-identical to a
//! sequential one. Every stage is instrumented
//! ([`train_with_telemetry`](PsmFlow::train_with_telemetry)), and batch
//! entry points ([`train_batch`](PsmFlow::train_batch),
//! [`estimate_batch`](PsmFlow::estimate_batch)) spread whole jobs over the
//! same worker pool.
//!
//! Every pipeline artifact is statically checked by the [`psm_analyze`]
//! lints as training proceeds (the `validate` stage of the telemetry
//! report). Under the default [`Strictness::Lenient`] the diagnostics are
//! demoted to warnings and ride along in the [`TelemetryReport`]; under
//! [`Strictness::Strict`] any error-severity finding aborts training with
//! [`FlowError::Validation`].

pub use crate::parallel::Parallelism;
use crate::parallel::{collect_ordered, lane_partition, run_indexed};
use crate::telemetry::{Stage, Telemetry, TelemetryReport};
use psm_analyze::{
    lint_hmm_against_observations, lint_interface, lint_model, lint_netlist, lint_netlist_dataflow,
    lint_power_intent, lint_proposition_coverage, lint_psm_against_table,
    lint_psm_against_training, lint_psm_power_intent, lint_trace_pair, verify_model,
    AnalysisReport, Severity,
};
pub use psm_analyze::{LintConfig, LintLevel, Strictness, VerifyConfig};
use psm_compile::CompiledModel;
use psm_core::{
    calibrate, classify_trace, generate_psm, join, simplify, CalibrationConfig, CoreError,
    MergePolicy, Psm,
};
use psm_hmm::{build_hmm, Hmm, HmmOutcome};
use psm_ips::{behavioural_trace, Ip};
use psm_mining::{Miner, MiningConfig, MiningError, PropositionTable};
use psm_rtl::{
    capture_traces_batch, capture_traces_by_domain_batch, PowerModel, RtlError, Stimulus,
};
use psm_stats::{mean_relative_error, StatsError};
use psm_trace::{FunctionalTrace, PowerTrace, TraceError};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What went wrong while saving or loading a model file.
#[derive(Debug)]
pub enum PersistenceError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file's contents did not parse or validate as a model.
    Format(psm_persist::PersistError),
}

impl fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistenceError::Io(e) => write!(f, "i/o: {e}"),
            PersistenceError::Format(e) => write!(f, "format: {e}"),
        }
    }
}

/// Errors surfaced by the pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Assertion mining failed.
    Mining(MiningError),
    /// PSM generation or simulation failed.
    Core(CoreError),
    /// Gate-level capture failed.
    Rtl(RtlError),
    /// Trace assembly failed.
    Trace(TraceError),
    /// An accuracy metric could not be computed.
    Stats(StatsError),
    /// No training stimulus was provided.
    NoTrainingData,
    /// Static validation found error-severity diagnostics and the flow runs
    /// under [`Strictness::Strict`]. The report carries every finding for
    /// the offending artifact.
    Validation(AnalysisReport),
    /// Saving or loading a model file failed.
    Persistence {
        /// The file involved.
        path: PathBuf,
        /// The underlying i/o or format failure.
        source: PersistenceError,
    },
}

impl FlowError {
    pub(crate) fn persistence_io(path: impl Into<PathBuf>, e: std::io::Error) -> Self {
        FlowError::Persistence {
            path: path.into(),
            source: PersistenceError::Io(e),
        }
    }

    pub(crate) fn persistence_format(
        path: impl Into<PathBuf>,
        e: psm_persist::PersistError,
    ) -> Self {
        FlowError::Persistence {
            path: path.into(),
            source: PersistenceError::Format(e),
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Mining(e) => write!(f, "mining: {e}"),
            FlowError::Core(e) => write!(f, "psm: {e}"),
            FlowError::Rtl(e) => write!(f, "gate-level: {e}"),
            FlowError::Trace(e) => write!(f, "trace: {e}"),
            FlowError::Stats(e) => write!(f, "metric: {e}"),
            FlowError::NoTrainingData => write!(f, "at least one training stimulus is required"),
            FlowError::Validation(report) => write!(
                f,
                "validation failed for {}: {} error(s)",
                report.artifact(),
                report.count(Severity::Error)
            ),
            FlowError::Persistence { path, source } => {
                write!(
                    f,
                    "model persistence failed at {}: {source}",
                    path.display()
                )
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Mining(e) => Some(e),
            FlowError::Core(e) => Some(e),
            FlowError::Rtl(e) => Some(e),
            FlowError::Trace(e) => Some(e),
            FlowError::Stats(e) => Some(e),
            FlowError::NoTrainingData => None,
            FlowError::Validation(_) => None,
            FlowError::Persistence { source, .. } => match source {
                PersistenceError::Io(e) => Some(e),
                PersistenceError::Format(e) => Some(e),
            },
        }
    }
}

impl From<MiningError> for FlowError {
    fn from(e: MiningError) -> Self {
        FlowError::Mining(e)
    }
}
impl From<CoreError> for FlowError {
    fn from(e: CoreError) -> Self {
        FlowError::Core(e)
    }
}
impl From<RtlError> for FlowError {
    fn from(e: RtlError) -> Self {
        FlowError::Rtl(e)
    }
}
impl From<TraceError> for FlowError {
    fn from(e: TraceError) -> Self {
        FlowError::Trace(e)
    }
}
impl From<StatsError> for FlowError {
    fn from(e: StatsError) -> Self {
        FlowError::Stats(e)
    }
}

/// Timing and size measurements gathered while training — the raw material
/// of the paper's Table II.
///
/// The two `Duration` fields are wall-clock and therefore machine- and
/// schedule-dependent; they are **excluded from the serialised form** so
/// that a parallel and a sequential training run of the same flow produce
/// byte-identical model files. Loading a model restores them as zero.
#[derive(Debug, Clone, Default)]
pub struct TrainingStats {
    /// Total training instants across all stimuli (Table II column *TS*).
    pub training_instants: usize,
    /// Wall-clock of the golden gate-level power simulation (column *PX*).
    pub reference_power_time: Duration,
    /// Wall-clock of mining + generation + simplify + join + calibration +
    /// HMM construction (column *PSMs gen.*).
    pub generation_time: Duration,
    /// States of the combined model (column *States*).
    pub states: usize,
    /// Transitions of the combined model (column *Trans.*).
    pub transitions: usize,
    /// States before `simplify`/`join` (for the ablation benches).
    pub states_before_optimisation: usize,
    /// States eliminated by `simplify` + `join`.
    pub states_merged: usize,
    /// States replaced by a regression output during calibration.
    pub calibrated_states: usize,
}

/// A trained power model for one IP.
///
/// Serialisable: a model trained once against the slow golden simulator can
/// be saved ([`TrainedModel::save`]) and shipped alongside the IP for
/// instant reuse in system-level explorations.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The shared proposition set mined from the training traces.
    pub table: PropositionTable,
    /// The combined, optimised PSM.
    pub psm: Psm,
    /// The HMM driving non-deterministic simulation.
    pub hmm: Hmm,
    /// Measurements gathered during training.
    pub stats: TrainingStats,
}

impl TrainedModel {
    /// Saves the model as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Persistence`] on serialisation or I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), FlowError> {
        crate::persist::save_to_path(self, path.as_ref())
    }

    /// Loads a model previously written by [`TrainedModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Persistence`] on I/O or parse failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, FlowError> {
        crate::persist::load_from_path(path.as_ref())
    }

    /// The canonical serialised JSON body — what [`TrainedModel::save`]
    /// wraps in the `psmgen-artifact/v2` container. Deterministic: equal
    /// models render to equal bytes, regardless of the [`Parallelism`]
    /// they were trained under.
    pub fn to_json_string(&self) -> String {
        crate::persist::render_model(self)
    }

    /// Lowers this model to its flat-table serving form (see
    /// [`psm_compile::CompiledModel`]): interned observation codes, flat
    /// transition/emission tables, precomputed log-probabilities and an
    /// allocation-free forward pass, bit-identical to the reference
    /// [`HmmSimulator`](psm_hmm::HmmSimulator).
    ///
    /// # Errors
    ///
    /// Returns [`psm_compile::CompileError`] when the PSM and HMM disagree
    /// on the state space (impossible for models produced by
    /// [`PsmFlow::train`], possible for hand-assembled ones).
    pub fn compile(&self) -> Result<CompiledModel, psm_compile::CompileError> {
        CompiledModel::compile_with_dictionary(&self.table, &self.psm, &self.hmm)
    }

    /// Saves the model as a `psmgen-artifact/v3`: the
    /// [`save`](TrainedModel::save) body plus a `"compiled"` section
    /// holding the serving form, so `psmd` can load the flat tables
    /// directly instead of compiling at registry-load time. The file still
    /// loads through [`TrainedModel::load`] (the extra section is ignored
    /// by the training-side reader).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Persistence`] on compilation, serialisation or
    /// I/O failure.
    pub fn save_compiled(&self, path: impl AsRef<std::path::Path>) -> Result<(), FlowError> {
        crate::persist::save_compiled_to_path(self, path.as_ref())
    }
}

/// A hierarchical power model: one trained PSM set per power domain of the
/// IP's netlist (the paper's future-work extension).
#[derive(Debug, Clone)]
pub struct HierarchicalModel {
    /// Domain names, aligned with [`models`](Self::models).
    pub domains: Vec<String>,
    /// One trained model per domain (sharing one proposition table).
    pub models: Vec<TrainedModel>,
}

impl HierarchicalModel {
    /// Saves the hierarchical model as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Persistence`] on serialisation or I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), FlowError> {
        crate::persist::save_to_path(self, path.as_ref())
    }

    /// Loads a model previously written by [`HierarchicalModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Persistence`] on I/O or parse failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, FlowError> {
        crate::persist::load_from_path(path.as_ref())
    }

    /// The canonical serialised JSON body — what
    /// [`HierarchicalModel::save`] wraps in the `psmgen-artifact/v2`
    /// container.
    pub fn to_json_string(&self) -> String {
        crate::persist::render_model(self)
    }
}

/// A power estimate for one workload, with its golden reference.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The PSM/HMM estimation outcome (per-instant power, WSP counters).
    pub outcome: HmmOutcome,
    /// The golden gate-level reference power of the same workload.
    pub reference: PowerTrace,
}

impl Estimate {
    /// Mean relative error of the estimate against the golden reference —
    /// the paper's MRE metric.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] when the traces are empty or misaligned.
    pub fn mre_vs_reference(&self) -> Result<f64, StatsError> {
        mean_relative_error(self.outcome.estimate.as_slice(), self.reference.as_slice())
    }
}

/// The Table I benchmark presets — the paper's per-design configuration
/// step, as a typed knob for [`PsmFlowBuilder::preset`].
///
/// All four benchmarks disable relational atoms: their wide data buses
/// carry (pseudo-)random payloads whose pairwise order says nothing about
/// *behaviour*, and under this crate's closed-world proposition composition
/// such atoms would fragment every control state into data-dependent
/// shards. Data-dependent *power* is instead handled where the paper
/// handles it — by the Hamming-distance regression calibration.
///
/// The merge tests run at α = 0.3 (power traces are noisy, so a lenient
/// rejection level keeps genuinely different behaviours apart), and the
/// calibration accepts fits with |r| ≥ 0.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpPreset {
    /// The 1 KB synchronous RAM (Table I row *RAM*).
    Ram1k,
    /// The multiply–accumulate datapath (row *MultSum*).
    MultSum,
    /// The AES-128 cipher round design (row *AES*).
    Aes,
    /// The Camellia cipher design (row *Camellia*).
    Camellia,
}

impl IpPreset {
    /// All presets, in Table I order.
    pub const ALL: [IpPreset; 4] = [
        IpPreset::Ram1k,
        IpPreset::MultSum,
        IpPreset::Aes,
        IpPreset::Camellia,
    ];

    /// The benchmark name as the IP registry spells it
    /// ([`psm_ips::ip_by_name`]).
    pub fn benchmark_name(self) -> &'static str {
        match self {
            IpPreset::Ram1k => "RAM",
            IpPreset::MultSum => "MultSum",
            IpPreset::Aes => "AES",
            IpPreset::Camellia => "Camellia",
        }
    }

    /// Looks a preset up by benchmark name; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        IpPreset::ALL
            .into_iter()
            .find(|p| p.benchmark_name() == name)
    }

    fn apply(self, flow: &mut PsmFlow) {
        flow.mining = flow.mining.with_pair_relations(false);
        flow.merge = MergePolicy::new(0.05, 0.3);
        flow.calibration = CalibrationConfig::default().with_min_abs_r(0.6);
    }
}

impl fmt::Display for IpPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.benchmark_name())
    }
}

/// Fluent constructor for [`PsmFlow`], started with [`PsmFlow::builder`].
///
/// # Examples
///
/// ```
/// use psmgen::flow::{IpPreset, Parallelism, PsmFlow};
///
/// let flow = PsmFlow::builder()
///     .preset(IpPreset::Aes)
///     .noise_seed(7)
///     .parallelism(Parallelism::Sequential)
///     .build();
/// assert!(!flow.mining.pair_relations());
/// assert_eq!(flow.noise_seed, 7);
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until `.build()`"]
pub struct PsmFlowBuilder {
    flow: PsmFlow,
}

impl PsmFlowBuilder {
    /// Applies a Table I benchmark preset (later knob calls still override
    /// individual fields).
    pub fn preset(mut self, preset: IpPreset) -> Self {
        preset.apply(&mut self.flow);
        self
    }

    /// Sets the assertion-mining thresholds (§III-A).
    pub fn mining(mut self, mining: MiningConfig) -> Self {
        self.flow.mining = mining;
        self
    }

    /// Sets the mergeability policy of `simplify`/`join` (§IV-A).
    pub fn merge(mut self, merge: MergePolicy) -> Self {
        self.flow.merge = merge;
        self
    }

    /// Sets the regression-calibration thresholds (§IV).
    pub fn calibration(mut self, calibration: CalibrationConfig) -> Self {
        self.flow.calibration = calibration;
        self
    }

    /// Sets the electrical model of the golden power estimator.
    pub fn power_model(mut self, power_model: PowerModel) -> Self {
        self.flow.power_model = power_model;
        self
    }

    /// Sets the seed of the golden estimator's measurement noise.
    pub fn noise_seed(mut self, noise_seed: u64) -> Self {
        self.flow.noise_seed = noise_seed;
        self
    }

    /// Sets the worker budget of the parallel engine.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.flow.parallelism = parallelism;
        self
    }

    /// Sets how validation diagnostics are handled: [`Strictness::Strict`]
    /// aborts training on the first error-severity finding, the default
    /// [`Strictness::Lenient`] demotes everything to telemetry warnings.
    pub fn strictness(mut self, strictness: Strictness) -> Self {
        self.flow.strictness = strictness;
        self
    }

    /// Sets per-code lint-level overrides (`allow`/`warn`/`deny`), applied
    /// to every validation report before the [`Strictness`] decision.
    pub fn lint_config(mut self, lint_config: LintConfig) -> Self {
        self.flow.lint_config = lint_config;
        self
    }

    /// Tunes the bounded model checker run at the end of the validate
    /// stage (`depth: 0` disables it entirely).
    pub fn verify(mut self, verify: VerifyConfig) -> Self {
        self.flow.verify = verify;
        self
    }

    /// Finishes the flow.
    pub fn build(self) -> PsmFlow {
        self.flow
    }
}

/// Pipeline configuration: the designer-tunable knobs of the methodology.
///
/// # Examples
///
/// ```
/// use psmgen::flow::{IpPreset, PsmFlow};
///
/// // Per-benchmark tuning as the paper's designers would do it:
/// let flow = PsmFlow::builder().preset(IpPreset::Aes).build();
/// assert!(!flow.mining.pair_relations());
/// ```
#[derive(Debug, Clone)]
pub struct PsmFlow {
    /// Assertion-mining thresholds (§III-A).
    pub mining: MiningConfig,
    /// Mergeability policy of `simplify`/`join` (§IV-A).
    pub merge: MergePolicy,
    /// Regression-calibration thresholds (§IV).
    pub calibration: CalibrationConfig,
    /// Electrical model of the golden power estimator.
    pub power_model: PowerModel,
    /// Seed of the golden estimator's measurement noise.
    pub noise_seed: u64,
    /// Worker budget of the parallel training/estimation engine. Does not
    /// affect results: any setting produces byte-identical models.
    pub parallelism: Parallelism,
    /// How static-validation diagnostics affect training
    /// ([`Strictness::Lenient`] by default).
    pub strictness: Strictness,
    /// Per-code lint-level overrides, applied to every validation report
    /// before the [`Strictness`] decision (empty by default).
    pub lint_config: LintConfig,
    /// Bounded-model-checking knobs for the mined-assertion verification
    /// pass at the end of the validate stage; `depth: 0` disables it.
    pub verify: VerifyConfig,
}

impl Default for PsmFlow {
    fn default() -> Self {
        PsmFlow {
            mining: MiningConfig::default(),
            merge: MergePolicy::default(),
            calibration: CalibrationConfig::default(),
            power_model: PowerModel::default(),
            noise_seed: 0xD5E_u64,
            parallelism: Parallelism::Auto,
            strictness: Strictness::default(),
            lint_config: LintConfig::default(),
            verify: VerifyConfig::default(),
        }
    }
}

impl PsmFlow {
    /// Starts a fluent configuration ([`PsmFlowBuilder`]).
    pub fn builder() -> PsmFlowBuilder {
        PsmFlowBuilder::default()
    }

    /// Runs the full training pipeline of Fig. 1 on one IP.
    ///
    /// Every stimulus becomes one training trace pair (functional + golden
    /// power, captured in a single gate-level run); the traces are mined
    /// together so PSMs from different traces share a proposition set and
    /// can be joined. Captures and per-trace generation fan across the
    /// worker pool ([`PsmFlow::parallelism`]); the result does not depend
    /// on the worker count.
    ///
    /// # Examples
    ///
    /// Train on a verification-style testbench, then estimate a fresh
    /// workload straight from a behavioural trace (the paper's fast path):
    ///
    /// ```
    /// use psmgen::flow::{IpPreset, PsmFlow};
    /// use psmgen::ips::{behavioural_trace, testbench, MultSum};
    ///
    /// let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    /// let mut ip = MultSum::new();
    /// let model = flow.train(&mut ip, &[testbench::multsum_short_ts(1)])?;
    /// assert!(model.psm.state_count() > 0);
    ///
    /// let workload = testbench::multsum_long_ts(7, 300);
    /// let trace = behavioural_trace(&mut ip, &workload)?;
    /// let outcome = flow.estimate_from_trace(&model, &trace);
    /// assert_eq!(outcome.estimate.len(), workload.len());
    /// # Ok::<(), psmgen::flow::FlowError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// * [`FlowError::NoTrainingData`] when `stimuli` is empty;
    /// * any layer error, wrapped in the matching [`FlowError`] variant.
    pub fn train(&self, ip: &mut dyn Ip, stimuli: &[Stimulus]) -> Result<TrainedModel, FlowError> {
        let telemetry = Telemetry::new();
        self.train_core(ip, stimuli, &telemetry)
    }

    /// Like [`PsmFlow::train`], additionally returning the per-stage
    /// [`TelemetryReport`] of the run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PsmFlow::train`].
    pub fn train_with_telemetry(
        &self,
        ip: &mut dyn Ip,
        stimuli: &[Stimulus],
    ) -> Result<(TrainedModel, TelemetryReport), FlowError> {
        let telemetry = Telemetry::new();
        let model = self.train_core(ip, stimuli, &telemetry)?;
        Ok((model, telemetry.report()))
    }

    /// Folds one validation report into the run: the per-code
    /// [`LintConfig`] re-levels the diagnostics first, then everything
    /// lands in the telemetry; strict flows additionally abort on errors.
    fn check(&self, telemetry: &Telemetry, report: AnalysisReport) -> Result<(), FlowError> {
        let report = self.lint_config.apply(report);
        telemetry.add_diagnostics(&report);
        if self.strictness.is_strict() && report.has_errors() {
            return Err(FlowError::Validation(report));
        }
        Ok(())
    }

    fn train_core(
        &self,
        ip: &mut dyn Ip,
        stimuli: &[Stimulus],
        telemetry: &Telemetry,
    ) -> Result<TrainedModel, FlowError> {
        if stimuli.is_empty() {
            return Err(FlowError::NoTrainingData);
        }
        let netlist = ip.netlist()?;
        let netlist_report = telemetry.time(Stage::Validate, "netlist", || lint_netlist(&netlist));
        self.check(telemetry, netlist_report)?;
        let dataflow_report = telemetry.time(Stage::Validate, "netlist dataflow", || {
            lint_netlist_dataflow(&netlist)
        });
        self.check(telemetry, dataflow_report)?;
        let interface_report = telemetry.time(Stage::Validate, "interface", || {
            lint_interface(&ip.signals(), &netlist)
        });
        self.check(telemetry, interface_report)?;
        // Silent unless the netlist declares power intent (isolation-marked
        // cells); PD001/PD006/PD007 holes fail training under the default
        // strictness before any power-down is ever mined.
        let intent_report = telemetry.time(Stage::Validate, "power intent", || {
            lint_power_intent(&netlist)
        });
        self.check(telemetry, intent_report)?;

        // Golden capture: functional + reference power over the bit-parallel
        // engine. Stimuli pack 64-to-a-lane-word into contiguous groups (one
        // work unit per effective worker, see `lane_partition`), and the
        // noise seed stays a function of the stimulus *index*, so neither
        // grouping nor worker scheduling can change any trace.
        let px_start = Instant::now();
        let groups = lane_partition(stimuli.len(), self.parallelism);
        let workers = self.parallelism.worker_count(groups.len());
        let captures = collect_ordered(run_indexed(groups.len(), workers, |g| {
            let (start, end) = groups[g];
            telemetry.time(Stage::Capture, format!("stimuli {start}..{end}"), || {
                let seeds: Vec<u64> = (start..end).map(|i| self.noise_seed + i as u64).collect();
                capture_traces_batch(&netlist, &self.power_model, &stimuli[start..end], &seeds)
                    .map_err(FlowError::from)
            })
        }))?;
        let (functional, power): (Vec<FunctionalTrace>, Vec<PowerTrace>) = captures
            .into_iter()
            .flatten()
            .map(|c| (c.functional, c.power))
            .unzip();
        let reference_power_time = px_start.elapsed();
        for (i, (f, p)) in functional.iter().zip(power.iter()).enumerate() {
            let report = telemetry.time(Stage::Validate, format!("trace pair {i}"), || {
                lint_trace_pair(f, p, &format!("training trace {i}"))
            });
            self.check(telemetry, report)?;
        }

        // Mining interns one shared proposition set over all traces, so it
        // stays sequential (and cheap relative to capture).
        let gen_start = Instant::now();
        let mined = telemetry.time(Stage::Mining, "all traces", || {
            let miner = Miner::new(self.mining);
            let trace_refs: Vec<&FunctionalTrace> = functional.iter().collect();
            miner.mine(&trace_refs)
        })?;
        for (i, f) in functional.iter().enumerate() {
            let report = telemetry.time(Stage::Validate, format!("coverage {i}"), || {
                lint_proposition_coverage(&mined.table, f, &format!("training trace {i}"))
            });
            self.check(telemetry, report)?;
        }

        // Per-trace chain-PSM generation + simplify, fanned per trace.
        // Each worker touches only its own (gamma, power) pair; the merge
        // below walks the results in index order.
        let gen_workers = self.parallelism.worker_count(mined.traces.len());
        let generated = collect_ordered(run_indexed(mined.traces.len(), gen_workers, |i| {
            let mut psm = telemetry
                .time(Stage::Generation, format!("trace {i}"), || {
                    generate_psm(&mined.traces[i], &power[i], i)
                })
                .map_err(FlowError::from)?;
            let before = psm.state_count();
            telemetry.time(Stage::Simplify, format!("trace {i}"), || {
                simplify(&mut psm, &self.merge)
            });
            Ok::<_, FlowError>((before, psm))
        }))?;
        let states_before: usize = generated.iter().map(|(before, _)| before).sum();
        let psms: Vec<Psm> = generated.into_iter().map(|(_, psm)| psm).collect();

        let mut combined = telemetry.time(Stage::Join, "all psms", || join(&psms, &self.merge));
        let states_merged = states_before.saturating_sub(combined.state_count());
        telemetry.add_states_merged(states_merged);

        let training: Vec<(&FunctionalTrace, &PowerTrace)> =
            functional.iter().zip(power.iter()).collect();
        let report = telemetry.time(Stage::Calibrate, "combined psm", || {
            calibrate(&mut combined, &training, &self.calibration)
        })?;
        telemetry.add_calibrated_states(report.calibrated_count());

        let hmm = telemetry.time(Stage::HmmBuild, "combined psm", || {
            build_hmm(&combined, mined.table.len())
        });
        let model_report = telemetry.time(Stage::Validate, "trained model", || {
            lint_model(&combined, &hmm, mined.table.len())
        });
        self.check(telemetry, model_report)?;
        // Cross-artifact consistency: the trained model against the very
        // artifacts it was derived from.
        let attrs_report = telemetry.time(Stage::Validate, "state attributes", || {
            lint_psm_against_training(&combined, &power, self.merge.alpha())
        });
        self.check(telemetry, attrs_report)?;
        let emissions_report = telemetry.time(Stage::Validate, "hmm emissions", || {
            lint_hmm_against_observations(&hmm, &mined.traces)
        });
        self.check(telemetry, emissions_report)?;
        let guards_report = telemetry.time(Stage::Validate, "psm guards", || {
            lint_psm_against_table(&combined, mined.table.len())
        });
        self.check(telemetry, guards_report)?;
        // Off-implying mined states versus the netlist's isolation proofs
        // (XA005): the model must not promise power-downs the netlist
        // cannot survive.
        let psm_intent_report = telemetry.time(Stage::Validate, "psm power intent", || {
            lint_psm_power_intent(&combined, None, &netlist)
        });
        self.check(telemetry, psm_intent_report)?;
        // Bounded model checking: every mined assertion against the
        // netlist's reachable behaviours, not just the training traces.
        if self.verify.depth > 0 {
            let verify_report = telemetry.time(Stage::Validate, "assertion verify", || {
                verify_model(&netlist, &mined.table, &combined, &self.verify).report
            });
            self.check(telemetry, verify_report)?;
        }
        let generation_time = gen_start.elapsed();

        let stats = TrainingStats {
            training_instants: stimuli.iter().map(Stimulus::len).sum(),
            reference_power_time,
            generation_time,
            states: combined.state_count(),
            transitions: combined.transition_count(),
            states_before_optimisation: states_before,
            states_merged,
            calibrated_states: report.calibrated_count(),
        };
        Ok(TrainedModel {
            table: mined.table,
            psm: combined,
            hmm,
            stats,
        })
    }

    /// Trains one model per stimulus set, fanning whole jobs across the
    /// worker pool. `make_ip` constructs a fresh IP inside each worker (an
    /// [`Ip`] need not be `Send`).
    ///
    /// Job `i` trains on `jobs[i]` and produces `models[i]`, each
    /// byte-identical to what a lone [`PsmFlow::train`] call would return.
    ///
    /// # Errors
    ///
    /// The lowest-index failing job's error, under the same conditions as
    /// [`PsmFlow::train`].
    pub fn train_batch<F>(
        &self,
        make_ip: F,
        jobs: &[Vec<Stimulus>],
    ) -> Result<Vec<TrainedModel>, FlowError>
    where
        F: Fn() -> Box<dyn Ip> + Sync,
    {
        // Jobs are the parallel axis here; each job trains sequentially so
        // the pool is not oversubscribed.
        let inner = PsmFlow {
            parallelism: Parallelism::Sequential,
            ..self.clone()
        };
        let workers = self.parallelism.worker_count(jobs.len());
        collect_ordered(run_indexed(jobs.len(), workers, |i| {
            let mut ip = make_ip();
            let telemetry = Telemetry::new();
            inner.train_core(ip.as_mut(), &jobs[i], &telemetry)
        }))
    }

    /// Estimates the power of a fresh workload through the trained PSMs
    /// *and* computes the golden reference for the same workload, so the
    /// result carries its own accuracy ground truth.
    ///
    /// # Errors
    ///
    /// Any layer error, wrapped in the matching [`FlowError`] variant.
    pub fn estimate(
        &self,
        model: &TrainedModel,
        ip: &mut dyn Ip,
        workload: &Stimulus,
    ) -> Result<Estimate, FlowError> {
        let telemetry = Telemetry::new();
        self.estimate_core(model, ip, workload, &telemetry)
    }

    /// Like [`PsmFlow::estimate`], additionally returning the per-stage
    /// [`TelemetryReport`] (estimation spans plus the golden-reference
    /// capture span, and the run's WSP/sync-loss counters).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PsmFlow::estimate`].
    pub fn estimate_with_telemetry(
        &self,
        model: &TrainedModel,
        ip: &mut dyn Ip,
        workload: &Stimulus,
    ) -> Result<(Estimate, TelemetryReport), FlowError> {
        let telemetry = Telemetry::new();
        let estimate = self.estimate_core(model, ip, workload, &telemetry)?;
        Ok((estimate, telemetry.report()))
    }

    fn estimate_core(
        &self,
        model: &TrainedModel,
        ip: &mut dyn Ip,
        workload: &Stimulus,
        telemetry: &Telemetry,
    ) -> Result<Estimate, FlowError> {
        let functional = telemetry.time(Stage::Estimation, "behavioural trace", || {
            behavioural_trace(ip, workload)
        })?;
        let outcome = telemetry.time(Stage::Estimation, "psm/hmm simulation", || {
            self.estimate_from_trace(model, &functional)
        });
        telemetry.add_wrong_state_predictions(outcome.wrong_state_predictions);
        telemetry.add_sync_losses(outcome.unknown_instants);
        let reference = telemetry.time(Stage::Capture, "golden reference", || {
            self.reference_power(ip, workload)
        })?;
        Ok(Estimate { outcome, reference })
    }

    /// Estimates many workloads against one model, fanning across the
    /// worker pool. `make_ip` constructs a fresh IP inside each worker.
    ///
    /// # Errors
    ///
    /// The lowest-index failing workload's error, under the same
    /// conditions as [`PsmFlow::estimate`].
    pub fn estimate_batch<F>(
        &self,
        model: &TrainedModel,
        make_ip: F,
        workloads: &[Stimulus],
    ) -> Result<Vec<Estimate>, FlowError>
    where
        F: Fn() -> Box<dyn Ip> + Sync,
    {
        let workers = self.parallelism.worker_count(workloads.len());
        collect_ordered(run_indexed(workloads.len(), workers, |i| {
            let mut ip = make_ip();
            let telemetry = Telemetry::new();
            self.estimate_core(model, ip.as_mut(), &workloads[i], &telemetry)
        }))
    }

    /// The fast path of Table III: PSM/HMM estimation from an
    /// already-captured functional trace, with no gate-level work at all.
    ///
    /// The model is lowered to its flat-table form
    /// ([`psm_compile::CompiledModel`], tens of microseconds) and run
    /// there; the result is bit-identical to the reference
    /// [`HmmSimulator`](psm_hmm::HmmSimulator).
    ///
    /// # Panics
    ///
    /// Panics when the model's PSM and HMM disagree on the state space
    /// (impossible for models produced by [`PsmFlow::train`]).
    pub fn estimate_from_trace(
        &self,
        model: &TrainedModel,
        functional: &FunctionalTrace,
    ) -> HmmOutcome {
        let observations = classify_trace(&model.table, functional);
        let hamming = functional.input_hamming_series();
        let compiled = CompiledModel::compile(&model.psm, &model.hmm)
            .unwrap_or_else(|e| panic!("HMM and PSM must agree on the state space: {e}"));
        compiled.run(&observations, &hamming)
    }

    /// Trains one PSM set **per power domain** of the IP's netlist — the
    /// hierarchical power model the paper proposes as future work ("a power
    /// model based on hierarchical PSMs that distinguishes among IP
    /// subcomponents").
    ///
    /// The proposition mining runs once over the shared functional traces
    /// (captures fan across the worker pool); each domain's PSMs are
    /// generated, optimised and calibrated against that domain's golden
    /// power trace. The hierarchical estimate of a workload is the
    /// per-instant sum of the domain estimates
    /// ([`PsmFlow::estimate_hierarchical`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PsmFlow::train`].
    pub fn train_hierarchical(
        &self,
        ip: &mut dyn Ip,
        stimuli: &[Stimulus],
    ) -> Result<HierarchicalModel, FlowError> {
        if stimuli.is_empty() {
            return Err(FlowError::NoTrainingData);
        }
        let netlist = ip.netlist()?;
        let groups = lane_partition(stimuli.len(), self.parallelism);
        let workers = self.parallelism.worker_count(groups.len());
        let captures: Vec<_> = collect_ordered(run_indexed(groups.len(), workers, |g| {
            let (start, end) = groups[g];
            let seeds: Vec<u64> = (start..end).map(|i| self.noise_seed + i as u64).collect();
            capture_traces_by_domain_batch(
                &netlist,
                &self.power_model,
                &stimuli[start..end],
                &seeds,
            )
            .map_err(FlowError::from)
        }))?
        .into_iter()
        .flatten()
        .collect();
        let domains = captures
            .first()
            .map(|c| c.domains.clone())
            .unwrap_or_default();
        let mut functional = Vec::with_capacity(captures.len());
        let mut domain_power: Vec<Vec<PowerTrace>> = Vec::with_capacity(captures.len());
        for cap in captures {
            functional.push(cap.functional);
            domain_power.push(cap.by_domain);
        }

        let miner = Miner::new(self.mining);
        let trace_refs: Vec<&FunctionalTrace> = functional.iter().collect();
        let mined = miner.mine(&trace_refs)?;

        let mut models = Vec::with_capacity(domains.len());
        for d in 0..domains.len() {
            let mut psms = Vec::new();
            let mut states_before = 0;
            for (i, gamma) in mined.traces.iter().enumerate() {
                let mut psm = generate_psm(gamma, &domain_power[i][d], i)?;
                states_before += psm.state_count();
                simplify(&mut psm, &self.merge);
                psms.push(psm);
            }
            let mut combined = join(&psms, &self.merge);
            let training: Vec<(&FunctionalTrace, &PowerTrace)> = functional
                .iter()
                .zip(domain_power.iter().map(|p| &p[d]))
                .collect();
            let report = calibrate(&mut combined, &training, &self.calibration)?;
            let hmm = build_hmm(&combined, mined.table.len());
            let stats = TrainingStats {
                training_instants: stimuli.iter().map(Stimulus::len).sum(),
                states: combined.state_count(),
                transitions: combined.transition_count(),
                states_before_optimisation: states_before,
                states_merged: states_before.saturating_sub(combined.state_count()),
                calibrated_states: report.calibrated_count(),
                ..TrainingStats::default()
            };
            models.push(TrainedModel {
                table: mined.table.clone(),
                psm: combined,
                hmm,
                stats,
            });
        }
        Ok(HierarchicalModel { domains, models })
    }

    /// Hierarchical estimation: sums the per-domain PSM estimates of a
    /// functional trace (the fast path; no gate-level work).
    pub fn estimate_hierarchical(
        &self,
        model: &HierarchicalModel,
        functional: &FunctionalTrace,
    ) -> HmmOutcome {
        let mut total: Option<HmmOutcome> = None;
        for m in &model.models {
            let outcome = self.estimate_from_trace(m, functional);
            total = Some(match total {
                None => outcome,
                Some(acc) => HmmOutcome {
                    estimate: acc
                        .estimate
                        .iter()
                        .zip(outcome.estimate.iter())
                        .map(|(a, b)| a + b)
                        .collect(),
                    wrong_state_predictions: acc
                        .wrong_state_predictions
                        .max(outcome.wrong_state_predictions),
                    unknown_instants: acc.unknown_instants.max(outcome.unknown_instants),
                },
            });
        }
        total.expect("netlists always have at least the core domain")
    }

    /// The slow golden path of Table II's *PX* column: gate-level power
    /// simulation of a workload.
    ///
    /// # Errors
    ///
    /// Any layer error, wrapped in the matching [`FlowError`] variant.
    pub fn reference_power(
        &self,
        ip: &dyn Ip,
        workload: &Stimulus,
    ) -> Result<PowerTrace, FlowError> {
        let netlist = ip.netlist()?;
        // A one-lane batch run: the compiled op program makes even single
        // workloads faster than the scalar engine, with identical bytes.
        let mut cap = capture_traces_batch(
            &netlist,
            &self.power_model,
            std::slice::from_ref(workload),
            &[self.noise_seed ^ 0x5A5A],
        )?;
        Ok(cap.remove(0).power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_ips::{testbench, MultSum, Ram1k};

    #[test]
    fn train_and_estimate_multsum() {
        let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
        let training = testbench::multsum_short_ts(1);
        let model = flow.train(&mut MultSum::new(), &[training]).unwrap();
        assert!(model.stats.states > 0);
        assert!(model.stats.states <= model.stats.states_before_optimisation);
        assert_eq!(
            model.stats.states_merged,
            model.stats.states_before_optimisation - model.stats.states
        );
        assert_eq!(model.psm.state_count(), model.stats.states);

        let workload = testbench::multsum_long_ts(9, 3_000);
        let est = flow
            .estimate(&model, &mut MultSum::new(), &workload)
            .unwrap();
        assert_eq!(est.outcome.estimate.len(), workload.len());
        let mre = est.mre_vs_reference().unwrap();
        assert!(mre < 0.30, "MultSum MRE {mre}");
    }

    #[test]
    fn models_round_trip_through_json() {
        let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
        let training = testbench::multsum_short_ts(1);
        let model = flow.train(&mut MultSum::new(), &[training]).unwrap();

        let dir = std::env::temp_dir().join("psmgen-model-roundtrip.json");
        model.save(&dir).unwrap();
        let loaded = TrainedModel::load(&dir).unwrap();
        std::fs::remove_file(&dir).ok();
        assert_eq!(loaded.psm.state_count(), model.psm.state_count());
        assert_eq!(loaded.psm.transitions(), model.psm.transitions());
        assert_eq!(loaded.hmm.num_states(), model.hmm.num_states());
        assert_eq!(loaded.table.len(), model.table.len());
        assert_eq!(loaded.stats.states_merged, model.stats.states_merged);
        // Wall-clock fields are deliberately not serialised.
        assert_eq!(loaded.stats.generation_time, Duration::ZERO);

        // The loaded model estimates the same powers (floats may differ by
        // an ulp through the JSON round-trip).
        let workload = testbench::multsum_long_ts(5, 1_000);
        let mut ip = MultSum::new();
        let trace = psm_ips::behavioural_trace(&mut ip, &workload).unwrap();
        let a = flow.estimate_from_trace(&model, &trace);
        let b = flow.estimate_from_trace(&loaded, &trace);
        assert_eq!(a.wrong_state_predictions, b.wrong_state_predictions);
        assert_eq!(a.unknown_instants, b.unknown_instants);
        for (x, y) in a.estimate.iter().zip(b.estimate.iter()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn training_needs_data() {
        let flow = PsmFlow::default();
        assert!(matches!(
            flow.train(&mut Ram1k::new(), &[]),
            Err(FlowError::NoTrainingData)
        ));
    }

    #[test]
    fn multiple_training_traces_share_a_table() {
        let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
        let a = testbench::multsum_short_ts(1);
        let b = testbench::multsum_long_ts(2, 1_500);
        let model = flow.train(&mut MultSum::new(), &[a, b]).unwrap();
        // Two traces, joined into one model with at most one initial state
        // per distinct starting behaviour.
        assert!(model.psm.initials().iter().map(|(_, c)| c).sum::<usize>() == 2);
    }

    #[test]
    fn presets_resolve_by_name() {
        for preset in IpPreset::ALL {
            assert_eq!(IpPreset::from_name(preset.benchmark_name()), Some(preset));
            assert!(psm_ips::ip_by_name(preset.benchmark_name()).is_some());
        }
        assert_eq!(IpPreset::from_name("nope"), None);
    }

    #[test]
    fn train_batch_matches_individual_runs() {
        let flow = PsmFlow::builder()
            .preset(IpPreset::MultSum)
            .parallelism(Parallelism::Workers(2))
            .build();
        let jobs = vec![
            vec![testbench::multsum_short_ts(1)],
            vec![testbench::multsum_short_ts(2)],
        ];
        let batch = flow
            .train_batch(|| Box::new(MultSum::new()), &jobs)
            .unwrap();
        assert_eq!(batch.len(), 2);
        for (job, model) in jobs.iter().zip(&batch) {
            let lone = flow.train(&mut MultSum::new(), job).unwrap();
            assert_eq!(model.to_json_string(), lone.to_json_string());
        }
    }

    #[test]
    fn estimate_batch_matches_individual_runs() {
        let flow = PsmFlow::builder()
            .preset(IpPreset::MultSum)
            .parallelism(Parallelism::Workers(2))
            .build();
        let model = flow
            .train(&mut MultSum::new(), &[testbench::multsum_short_ts(1)])
            .unwrap();
        let workloads = vec![
            testbench::multsum_long_ts(3, 500),
            testbench::multsum_long_ts(4, 700),
        ];
        let batch = flow
            .estimate_batch(&model, || Box::new(MultSum::new()), &workloads)
            .unwrap();
        assert_eq!(batch.len(), 2);
        for (workload, est) in workloads.iter().zip(&batch) {
            let lone = flow
                .estimate(&model, &mut MultSum::new(), workload)
                .unwrap();
            assert_eq!(est.outcome.estimate, lone.outcome.estimate);
            assert_eq!(est.reference, lone.reference);
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn flow_errors_render_and_chain() {
        use std::error::Error as _;
        let errs: Vec<FlowError> = vec![
            FlowError::Mining(psm_mining::MiningError::EmptyTrace),
            FlowError::Core(psm_core::CoreError::NoBehaviours),
            FlowError::Trace(psm_trace::TraceError::ZeroWidth),
            FlowError::Stats(psm_stats::StatsError::InvalidParameter("x")),
            FlowError::NoTrainingData,
            FlowError::Validation(psm_analyze::AnalysisReport::new("netlist `x`")),
            FlowError::persistence_io("/tmp/model.json", std::io::Error::other("disk full")),
            FlowError::persistence_format(
                "/tmp/model.json",
                psm_persist::PersistError::schema("bad field"),
            ),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            // sources chain where applicable
            match &e {
                FlowError::NoTrainingData | FlowError::Validation(_) => {
                    assert!(e.source().is_none())
                }
                _ => assert!(e.source().is_some()),
            }
        }
    }

    #[test]
    fn persistence_errors_name_the_path() {
        let e = FlowError::persistence_io(
            "/some/dir/model.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "missing"),
        );
        let msg = e.to_string();
        assert!(msg.contains("/some/dir/model.json"), "{msg}");
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("psmgen-garbage-model.json");
        std::fs::write(&dir, "not json at all").unwrap();
        let r = TrainedModel::load(&dir);
        std::fs::remove_file(&dir).ok();
        assert!(matches!(
            r,
            Err(FlowError::Persistence {
                source: PersistenceError::Format(_),
                ..
            })
        ));
    }

    #[test]
    fn load_missing_file_is_a_persistence_error() {
        let r = TrainedModel::load("/nonexistent/psmgen/model.json");
        assert!(matches!(
            r,
            Err(FlowError::Persistence {
                source: PersistenceError::Io(_),
                ..
            })
        ));
    }
}
