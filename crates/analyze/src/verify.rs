//! Bounded model checking of mined temporal assertions against the netlist.
//!
//! The miner (psm-mining) extracts `p X q` / `p U q` assertions from *one*
//! training trace; nothing guarantees they hold on every behaviour the
//! gate-level implementation can exhibit. This module closes that loop with
//! a bounded reachability engine over the netlist:
//!
//! * **exhaustive mode** — when the primary-input width fits the
//!   [`VerifyConfig::enum_bits`] budget, a breadth-first search over
//!   concrete simulator states enumerates *every* input assignment per
//!   cycle up to [`VerifyConfig::depth`], de-duplicating on the simulator's
//!   functional state. Verdicts are definitive to the depth;
//! * **abstract mode** — otherwise, the ternary-lattice interpreter of
//!   [`crate::analyze_dataflow`] is extended from a single-cycle fixpoint
//!   to a k-cycle sequential unroller ([`unroll_ternary`]): inputs are
//!   `X` every cycle, registers start at their reset values and each
//!   instant's net values over-approximate all concrete runs. The
//!   abstraction can soundly prove *vacuity* (an antecedent that is
//!   forced-false at every instant is unsatisfiable) and detect *forced*
//!   violations (everything the assertion allows is forced-false right
//!   after a forced-true antecedent), but never claims `proved`.
//!
//! Every check returns a [`Verdict`]: **proved** (to the depth),
//! **refuted** — with a concrete per-cycle primary-input stimulus that is
//! re-simulated through the untouched [`Simulator`] and confirmed to
//! violate the assertion *before* it is reported — **vacuous**, or
//! **unknown**. Counterexamples carry a per-cycle trace that surfaces as
//! SARIF `codeFlows` and replayable `.csv` witness stimuli
//! (`psmlint --replay`).
//!
//! Because assertions are mined per occurrence, one antecedent may carry
//! several mined successors (`p X q₁` and `p X q₂` from different parts of
//! the trace, or `p U q` allowing `p` itself). A transition `p → r` only
//! refutes the assertions on `p` when `r` is outside the *union* of their
//! allowed successors — the disjunctive reading under which the mined set
//! describes the model's transition structure.
//!
//! Mined propositions also constrain primary inputs, which the design
//! does not control: an adversarial environment can always steer the
//! inputs away from anything the training trace exhibited, and that alone
//! must not refute an assertion about the *design*. A transition `p → r`
//! therefore only counts as a violation when some allowed successor `q`
//! agrees with `r` on every input-only atom — the environment behaved as
//! the assertion anticipated, yet the design's response still diverged.
//! Runs whose inputs leave the mined assumptions are simply outside the
//! assertion's scope (surfaced once as MC007 when the whole port
//! valuation leaves the dictionary).

use crate::dataflow::{eval_ternary, interpretable, Ternary};
use crate::{codes, AnalysisReport, Diagnostic};
use psm_core::{Psm, StateId};
use psm_mining::{
    AtomicProposition, PropositionId, PropositionTable, RowClassifier, TemporalAssertion,
    TemporalPattern,
};
use psm_prng::Prng;
use psm_rtl::{Netlist, PortHandle, Simulator};
use psm_trace::{Bits, Direction, FunctionalTrace};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Knobs of the bounded verification pass (the `[verify]` section of
/// `psmlint.toml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Unroll depth k: instants checked per run. `0` disables the pass.
    pub depth: usize,
    /// Exhaustive-mode budget: total primary-input bits up to which every
    /// input assignment is enumerated per cycle (`2^enum_bits` branches).
    /// Assignments are packed into a `u64`, so widths of 64 bits or more
    /// never enumerate regardless of this value — they use the abstract
    /// engine (config parsing rejects such settings up front).
    pub enum_bits: usize,
    /// Exhaustive-mode cap on distinct `(state, proposition)` nodes; past
    /// it the search falls back to the abstract unroller.
    pub max_states: usize,
    /// Optional concrete random runs (of `depth` cycles each) hunting for
    /// counterexamples beyond what the abstract engine can force. Off by
    /// default: random stimuli routinely leave the mined vocabulary on
    /// models trained from directed traces.
    pub samples: usize,
    /// Seed of the deterministic sampling PRNG.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            depth: 8,
            enum_bits: 6,
            max_states: 512,
            samples: 0,
            seed: 0xB0DE,
        }
    }
}

/// Which engine produced the verdicts of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Every input assignment enumerated; verdicts definitive to the depth.
    Exhaustive,
    /// Ternary over-approximation; only refutations and vacuity are claimed.
    Abstract,
}

impl VerifyMode {
    /// Stable lowercase name (used in the MC003 summary).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Exhaustive => "exhaustive",
            VerifyMode::Abstract => "abstract",
        }
    }
}

/// Outcome of checking one mined assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No reachable behaviour violates the assertion up to the depth
    /// (exhaustive mode only).
    Proved,
    /// A concrete, re-simulated stimulus violates the assertion.
    Refuted,
    /// The antecedent proposition is unreachable within the depth.
    Vacuous,
    /// The bounded engines could neither prove nor refute.
    Unknown,
}

impl Verdict {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Refuted => "refuted",
            Verdict::Vacuous => "vacuous",
            Verdict::Unknown => "unknown",
        }
    }
}

/// A confirmed counterexample: a cycle-accurate primary-input stimulus
/// that re-simulates to an assertion violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Input port names, in declaration order (the witness CSV header).
    pub inputs: Vec<String>,
    /// One value per input port per cycle, declaration order.
    pub stimulus: Vec<Vec<Bits>>,
    /// Instant (0-based) at which the forbidden successor appears.
    pub violation_instant: usize,
    /// Human-readable per-cycle trace (rendered as SARIF `codeFlows`).
    pub steps: Vec<String>,
}

/// The per-assertion result of a verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionCheck {
    /// The mined assertion under check.
    pub assertion: TemporalAssertion,
    /// Its rendering over the proposition table (stable across runs).
    pub text: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The confirmed counterexample behind a [`Verdict::Refuted`].
    pub counterexample: Option<Counterexample>,
}

/// Everything a verification run produced.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// The MC-family diagnostics of the run.
    pub report: AnalysisReport,
    /// One entry per distinct mined assertion.
    pub checks: Vec<AssertionCheck>,
    /// Which engine ran.
    pub mode: VerifyMode,
    /// The depth the verdicts hold to.
    pub depth: usize,
}

/// Unrolls the ternary abstract interpreter for `depth` cycles.
///
/// Mirrors one [`Simulator::step`] per instant: register outputs carry the
/// previous instant's sampled `d` values (reset values at the first
/// instant), primary inputs and memory read-data are `X`, and the
/// combinational cone settles in levelized order through
/// [`eval_ternary`]. Element `t` of the result holds the settled value of
/// every net at instant `t`, indexed by `NetId::index`.
///
/// The result over-approximates every concrete run: for any stimulus, the
/// concrete value of each net at instant `t` is contained in (`⊑`) the
/// returned ternary value — the soundness property pinned by the
/// `verify_unroller_soundness` test suite.
///
/// Returns `None` when the netlist is not safely interpretable (cycles,
/// arity mismatches, out-of-range nets) — the structural lints report
/// those.
pub fn unroll_ternary(netlist: &Netlist, depth: usize) -> Option<Vec<Vec<Ternary>>> {
    let order = interpretable(netlist)?;
    let nets = netlist.net_count();
    let mut qs: Vec<Ternary> = netlist
        .dffs()
        .iter()
        .map(|d| Ternary::from_bool(d.init))
        .collect();
    let mut out = Vec::with_capacity(depth);
    for _ in 0..depth {
        let mut values = vec![Ternary::X; nets];
        values[Netlist::CONST0.index()] = Ternary::Zero;
        values[Netlist::CONST1.index()] = Ternary::One;
        for (d, &q) in netlist.dffs().iter().zip(&qs) {
            values[d.q.index()] = q;
        }
        for &gi in &order {
            let g = &netlist.gates()[gi];
            let ins: Vec<Ternary> = g.inputs.iter().map(|n| values[n.index()]).collect();
            values[g.output.index()] = eval_ternary(&g.kind, &ins);
        }
        for (qs_i, d) in qs.iter_mut().zip(netlist.dffs()) {
            *qs_i = values[d.d.index()];
        }
        out.push(values);
    }
    Some(out)
}

/// Three-valued truth of a proposition at an abstract instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    /// Forced false: no concrete run satisfies it here.
    No,
    /// Undecided under the abstraction.
    Maybe,
    /// Forced true: every concrete run satisfies it here.
    Yes,
}

/// Ternary truth of one atomic proposition over abstract port words.
fn atom_ternary(atom: &AtomicProposition, ports: &[Vec<Ternary>]) -> Ternary {
    match atom {
        AtomicProposition::VarEqConst { signal, value } => {
            let word = &ports[signal.index()];
            if value.width() != word.len() {
                return Ternary::Zero;
            }
            let mut unknown = false;
            for (i, t) in word.iter().enumerate() {
                match t.as_const() {
                    Some(b) if b != value.bit(i) => return Ternary::Zero,
                    Some(_) => {}
                    None => unknown = true,
                }
            }
            if unknown {
                Ternary::X
            } else {
                Ternary::One
            }
        }
        AtomicProposition::VarCmpVar { left, cmp, right } => {
            let (a, b) = (&ports[left.index()], &ports[right.index()]);
            if a.len() != b.len() {
                return Ternary::X;
            }
            // Unsigned compare, deciding at the most significant bit pair
            // that is known on both sides and differs; any `X` above the
            // decision point keeps the outcome unknown.
            for i in (0..a.len()).rev() {
                match (a[i].as_const(), b[i].as_const()) {
                    (Some(x), Some(y)) if x == y => {}
                    (Some(x), Some(y)) => return Ternary::from_bool(cmp.test(x.cmp(&y))),
                    _ => return Ternary::X,
                }
            }
            Ternary::from_bool(cmp.test(std::cmp::Ordering::Equal))
        }
    }
}

/// Three-valued truth of an interned proposition given its atoms' ternary
/// truths.
fn proposition_status(table: &PropositionTable, id: PropositionId, atoms: &[Ternary]) -> Tri {
    let p = table.get(id);
    let mut all_known = true;
    for (i, t) in atoms.iter().enumerate() {
        match t.as_const() {
            Some(b) if b != p.atom_truth(i) => return Tri::No,
            Some(_) => {}
            None => all_known = false,
        }
    }
    if all_known {
        Tri::Yes
    } else {
        Tri::Maybe
    }
}

/// The distinct mined assertions of a PSM, in first-appearance order.
fn collect_assertions(psm: &Psm) -> Vec<TemporalAssertion> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (_, state) in psm.states() {
        for chain in state.chains() {
            for part in chain.parts() {
                let key = (
                    part.pattern() == TemporalPattern::Until,
                    part.left().index(),
                    part.right().index(),
                );
                if seen.insert(key) {
                    out.push(*part);
                }
            }
        }
    }
    out
}

/// Allowed-successor sets under the disjunctive reading: for each
/// antecedent, the union of the consequents of its assertions, plus the
/// antecedent itself for `U` patterns (an until may keep holding).
fn allowed_successors(assertions: &[TemporalAssertion]) -> BTreeMap<usize, BTreeSet<usize>> {
    let mut allowed: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for a in assertions {
        let entry = allowed.entry(a.left().index()).or_default();
        entry.insert(a.right().index());
        if a.is_until() {
            entry.insert(a.left().index());
        }
    }
    allowed
}

/// Input port names and widths, declaration order.
fn input_ports(netlist: &Netlist) -> Vec<(String, usize)> {
    netlist
        .ports()
        .iter()
        .filter(|p| p.direction() == Direction::Input)
        .map(|p| (p.name().to_owned(), p.width()))
        .collect()
}

/// The violation predicate shared by every engine: the allowed-successor
/// relation plus the environment-compatibility filter from the module
/// docs. It holds the run's one [`RowClassifier`], which classifies every
/// sampled port valuation.
struct Checker<'a> {
    classifier: RowClassifier<'a>,
    allowed: BTreeMap<usize, BTreeSet<usize>>,
    /// Indices of atoms referencing only input signals.
    input_atoms: Vec<usize>,
}

impl<'a> Checker<'a> {
    /// The checker of `assertions` over `table`, or why `netlist`'s
    /// sampled ports cannot be classified as its rows: the table's
    /// interface and the port list must agree on names, widths and
    /// directions (XA001's concern; verification silently steps aside
    /// when they do not), and the atoms must fit that interface.
    fn new(
        netlist: &Netlist,
        table: &'a PropositionTable,
        assertions: &[TemporalAssertion],
    ) -> Result<Self, String> {
        let signals = table.vocabulary().signals();
        if netlist.signal_set() != *signals {
            return Err("trace interface and netlist ports disagree (see XA001)".to_owned());
        }
        let is_input = |id: psm_trace::SignalId| signals.decl(id).direction() == Direction::Input;
        let input_atoms = table
            .vocabulary()
            .atoms()
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                let all_inputs = match a {
                    AtomicProposition::VarEqConst { signal, .. } => is_input(*signal),
                    AtomicProposition::VarCmpVar { left, right, .. } => {
                        is_input(*left) && is_input(*right)
                    }
                };
                all_inputs.then_some(i)
            })
            .collect();
        Ok(Checker {
            classifier: RowClassifier::new(Cow::Borrowed(table), signals)
                .map_err(|e| e.to_string())?,
            allowed: allowed_successors(assertions),
            input_atoms,
        })
    }

    /// `true` when the transition from a cycle satisfying `antecedent` to
    /// the port valuation with the row words `next_row` (classified as
    /// `next_prop`) violates the mined assertion set.
    fn violates(
        &self,
        antecedent: PropositionId,
        next_row: &[u64],
        next_prop: Option<PropositionId>,
    ) -> bool {
        let Some(next) = self.allowed.get(&antecedent.index()) else {
            return false;
        };
        if let Some(b) = next_prop {
            if next.contains(&b.index()) {
                return false;
            }
        }
        // Environment compatibility: some allowed successor must agree
        // with the actual row on every input-only atom, otherwise the
        // stimulus left the assertion's assumptions.
        let mut truths = self.classifier.truth_buffer();
        self.classifier.classify(next_row, &mut truths);
        let truth = |i: usize| (truths[i / 64] >> (i % 64)) & 1 == 1;
        next.iter().any(|&q| {
            let qp = self
                .classifier
                .table()
                .get(PropositionId::from_index(q as u32));
            self.input_atoms
                .iter()
                .all(|&i| truth(i) == qp.atom_truth(i))
        })
    }
}

/// Replays `stimulus` from reset; returns the classified proposition and
/// the trace of sampled port valuations, one per instant, or `None` when
/// the simulator rejects the netlist or stimulus.
fn simulate_props(
    netlist: &Netlist,
    classifier: &RowClassifier<'_>,
    stimulus: &[Vec<Bits>],
) -> Option<(Vec<Option<PropositionId>>, FunctionalTrace)> {
    let mut sim = Simulator::new(netlist).ok()?;
    let handles: Vec<PortHandle> = sim.input_handles().into_iter().map(|(_, h)| h).collect();
    let signals = classifier.table().vocabulary().signals().clone();
    let mut rows = FunctionalTrace::with_capacity(signals, stimulus.len());
    for cycle in stimulus {
        if cycle.len() != handles.len() {
            return None;
        }
        for (&h, bits) in handles.iter().zip(cycle) {
            sim.set_input_by_handle(h, bits).ok()?;
        }
        sim.step();
        rows.push_cycle(sim.sample_ports()).ok()?;
    }
    Some((classifier.classify_trace(&rows), rows))
}

/// Renders the per-cycle trace of a stimulus for SARIF `codeFlows`.
fn render_steps(
    table: &PropositionTable,
    inputs: &[(String, usize)],
    stimulus: &[Vec<Bits>],
    props: &[Option<PropositionId>],
) -> Vec<String> {
    stimulus
        .iter()
        .zip(props)
        .enumerate()
        .map(|(t, (cycle, prop))| {
            let ins: Vec<String> = inputs
                .iter()
                .zip(cycle)
                .map(|((name, _), bits)| format!("{name}={bits}"))
                .collect();
            let row = match prop {
                Some(id) => format!("p{} {}", id.index(), table.render(*id)),
                None => "(row outside the mined dictionary)".to_owned(),
            };
            format!("cycle {t}: inputs {} -> {row}", ins.join(", "))
        })
        .collect()
}

/// Re-simulates a candidate stimulus and keeps it only when it truly
/// violates the allowed-successor relation. Returns the confirmed
/// counterexample and the violated antecedent.
///
/// With a `target` antecedent the replay looks specifically for a
/// violation of *that* antecedent — the replayed path may well violate a
/// different antecedent at an earlier cycle (which has its own candidate
/// in the exhaustive search), and returning that one instead would
/// silently drop the target's refutation.
fn confirm_witness(
    netlist: &Netlist,
    checker: &Checker<'_>,
    stimulus: Vec<Vec<Bits>>,
    target: Option<usize>,
) -> Option<(usize, Counterexample)> {
    let (props, rows) = simulate_props(netlist, &checker.classifier, &stimulus)?;
    let violation = (0..props.len().saturating_sub(1)).find_map(|t| {
        let a = props[t]?;
        if target.is_some_and(|want| want != a.index()) {
            return None;
        }
        checker
            .violates(a, rows.cycle(t + 1).as_words(), props[t + 1])
            .then_some((t + 1, a.index()))
    });
    let (instant, left) = violation?;
    let inputs = input_ports(netlist);
    let table = checker.classifier.table();
    let steps = render_steps(table, &inputs, &stimulus[..=instant], &props[..=instant]);
    Some((
        left,
        Counterexample {
            inputs: inputs.into_iter().map(|(n, _)| n).collect(),
            stimulus,
            violation_instant: instant,
            steps,
        },
    ))
}

/// What a reachability engine learned about the netlist × model pair.
struct Exploration {
    /// Complete to the depth: `proved` and unreachable-implies-vacuous may
    /// be claimed.
    complete: bool,
    /// Propositions observed reachable (exhaustive/sampled runs).
    reachable: BTreeSet<usize>,
    /// In abstract mode: propositions forced-false at *every* instant.
    never: BTreeSet<usize>,
    /// Confirmed counterexamples, one per violated antecedent.
    violations: BTreeMap<usize, Counterexample>,
    /// A confirmed reachable row outside the mined dictionary.
    unknown_row: Option<Counterexample>,
}

/// Splits a packed input assignment into per-port values.
fn unpack_combo(combo: u64, inputs: &[(String, usize)]) -> Vec<Bits> {
    let mut off = 0;
    inputs
        .iter()
        .map(|(_, w)| {
            let mask = if *w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            let bits = Bits::from_u64((combo >> off) & mask, *w);
            off += w;
            bits
        })
        .collect()
}

/// Exhaustive bounded search: breadth-first over concrete simulator
/// states, every input assignment per cycle, de-duplicating on
/// `(functional state, sampled proposition)`. Returns `None` when the
/// input width exceeds the budget or the node cap is hit — callers fall
/// back to the abstract engine.
fn exhaustive_search(
    netlist: &Netlist,
    checker: &Checker<'_>,
    cfg: &VerifyConfig,
) -> Option<Exploration> {
    let table = checker.classifier.table();
    let inputs = input_ports(netlist);
    let total_bits: usize = inputs.iter().map(|(_, w)| w).sum();
    // `total_bits >= 64` would overflow the packed-`u64` combination
    // representation below, whatever `enum_bits` the config asked for.
    if total_bits > cfg.enum_bits || total_bits >= 64 || cfg.depth == 0 {
        return None;
    }
    let base = Simulator::new(netlist).ok()?;
    let handles: Vec<PortHandle> = base.input_handles().into_iter().map(|(_, h)| h).collect();
    let combos: Vec<Vec<Bits>> = (0..1u64 << total_bits)
        .map(|c| unpack_combo(c, &inputs))
        .collect();

    struct Node {
        parent: usize,
        combo: usize,
        depth: usize,
        prop: Option<PropositionId>,
    }
    let mut nodes = vec![Node {
        parent: usize::MAX,
        combo: usize::MAX,
        depth: 0,
        prop: None,
    }];
    let mut seen: HashMap<(Vec<u64>, Option<usize>), ()> = HashMap::new();
    seen.insert((base.functional_state(), None), ());
    // FIFO order makes the search breadth-first, so the *first* discovery
    // of every `(state, prop)` key is at its minimal depth — the depthless
    // `seen` dedup below would otherwise hide shallower rediscoveries of a
    // state first met deep in an earlier subtree, silently truncating the
    // explored horizon while `complete` stays true.
    let mut frontier: VecDeque<(usize, Simulator)> = VecDeque::from([(0, base)]);

    let mut reachable = BTreeSet::new();
    // First candidate per violated antecedent / for an unmined row, as
    // node indices to rebuild the stimulus from.
    let mut candidates: BTreeMap<usize, usize> = BTreeMap::new();
    let mut unknown_candidate: Option<usize> = None;
    // Every sampled port valuation, one row per node after the root.
    let mut samples = FunctionalTrace::new(table.vocabulary().signals().clone());
    let mut truths = checker.classifier.truth_buffer();

    while let Some((ni, sim)) = frontier.pop_front() {
        if nodes[ni].depth >= cfg.depth {
            continue;
        }
        for (ci, combo) in combos.iter().enumerate() {
            let mut child = sim.clone();
            for (&h, bits) in handles.iter().zip(combo) {
                child.set_input_by_handle(h, bits).ok()?;
            }
            child.step();
            samples.push_cycle(child.sample_ports()).ok()?;
            let sampled = samples.cycle(samples.len() - 1).as_words();
            let prop = checker.classifier.classify(sampled, &mut truths);
            let m = nodes.len();
            nodes.push(Node {
                parent: ni,
                combo: ci,
                depth: nodes[ni].depth + 1,
                prop,
            });
            match prop {
                Some(p) => {
                    reachable.insert(p.index());
                }
                None => {
                    if unknown_candidate.is_none() {
                        unknown_candidate = Some(m);
                    }
                }
            }
            // A transition out of a classified instant that the mined
            // assertion set does not allow is a violation candidate.
            if let Some(a) = nodes[ni].prop {
                if checker.violates(a, sampled, prop) {
                    candidates.entry(a.index()).or_insert(m);
                }
            }
            let key = (child.functional_state(), prop.map(PropositionId::index));
            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
                e.insert(());
                if nodes.len() > cfg.max_states {
                    return None; // state blow-up: fall back to abstract
                }
                frontier.push_back((m, child));
            }
        }
    }

    let rebuild = |mut ni: usize| {
        let mut stim = Vec::new();
        while nodes[ni].parent != usize::MAX {
            stim.push(combos[nodes[ni].combo].clone());
            ni = nodes[ni].parent;
        }
        stim.reverse();
        stim
    };

    let mut complete = true;
    let mut violations = BTreeMap::new();
    for (&left, &node) in &candidates {
        // Replay through the untouched simulator before reporting; a
        // candidate that does not confirm for *its own* antecedent leaves
        // the search inconclusive rather than risking a false refutation
        // (or a false `Proved` for `left`, were the replay allowed to
        // attribute the path to an earlier violation of another
        // antecedent — that one has its own candidate here).
        match confirm_witness(netlist, checker, rebuild(node), Some(left)) {
            Some((_, cex)) => {
                violations.insert(left, cex);
            }
            None => complete = false,
        }
    }
    let unknown_row = unknown_candidate.and_then(|node| {
        let stimulus = rebuild(node);
        let (props, _) = simulate_props(netlist, &checker.classifier, &stimulus)?;
        let instant = props.iter().position(Option::is_none)?;
        let inputs = input_ports(netlist);
        let steps = render_steps(table, &inputs, &stimulus[..=instant], &props[..=instant]);
        Some(Counterexample {
            inputs: inputs.into_iter().map(|(n, _)| n).collect(),
            stimulus,
            violation_instant: instant,
            steps,
        })
    });

    Some(Exploration {
        complete,
        reachable,
        never: BTreeSet::new(),
        violations,
        unknown_row,
    })
}

/// Abstract bounded exploration over the k-cycle ternary unroller, plus
/// optional concrete random sampling.
fn abstract_search(netlist: &Netlist, checker: &Checker<'_>, cfg: &VerifyConfig) -> Exploration {
    let table = checker.classifier.table();
    let mut out = Exploration {
        complete: false,
        reachable: BTreeSet::new(),
        never: BTreeSet::new(),
        violations: BTreeMap::new(),
        unknown_row: None,
    };
    let Some(unrolled) = unroll_ternary(netlist, cfg.depth) else {
        return out;
    };
    // Per instant, per proposition: three-valued truth.
    let port_words = |values: &[Ternary]| -> Vec<Vec<Ternary>> {
        netlist
            .ports()
            .iter()
            .map(|p| p.nets().iter().map(|n| values[n.index()]).collect())
            .collect()
    };
    let mut status: Vec<BTreeMap<usize, Tri>> = Vec::with_capacity(unrolled.len());
    for values in &unrolled {
        let ports = port_words(values);
        let atoms: Vec<Ternary> = table
            .vocabulary()
            .atoms()
            .iter()
            .map(|a| atom_ternary(a, &ports))
            .collect();
        let mut per = BTreeMap::new();
        for id in table.ids() {
            per.insert(id.index(), proposition_status(table, id, &atoms));
        }
        status.push(per);
    }
    for id in table.ids() {
        if status.iter().all(|per| per[&id.index()] == Tri::No) {
            out.never.insert(id.index());
        }
    }
    // Forced violations: a forced-true antecedent whose every allowed
    // successor is forced-false at the next instant is violated by *all*
    // runs — any concrete stimulus (all-zero inputs here) must confirm.
    let inputs = input_ports(netlist);
    for t in 0..status.len().saturating_sub(1) {
        for (&left, next) in &checker.allowed {
            if out.violations.contains_key(&left) {
                continue;
            }
            if status[t].get(&left) == Some(&Tri::Yes)
                && next.iter().all(|r| status[t + 1].get(r) == Some(&Tri::No))
            {
                let zeros: Vec<Bits> = inputs.iter().map(|(_, w)| Bits::zero(*w)).collect();
                let stimulus = vec![zeros; t + 2];
                if let Some((_, cex)) = confirm_witness(netlist, checker, stimulus, Some(left)) {
                    out.violations.entry(left).or_insert(cex);
                }
            }
        }
    }
    // Optional concrete sampling: deterministic random stimuli, each
    // confirmed violation reported with its own replayable witness.
    let mut prng = Prng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.samples {
        let stimulus: Vec<Vec<Bits>> = (0..cfg.depth.max(2))
            .map(|_| {
                inputs
                    .iter()
                    .map(|(_, w)| {
                        let mut bits = Bits::zero(*w);
                        for i in 0..*w {
                            bits.set_bit(i, prng.chance(0.5));
                        }
                        bits
                    })
                    .collect()
            })
            .collect();
        let Some((props, _)) = simulate_props(netlist, &checker.classifier, &stimulus) else {
            continue;
        };
        for p in props.iter().flatten() {
            out.reachable.insert(p.index());
        }
        if let Some((left, cex)) = confirm_witness(netlist, checker, stimulus.clone(), None) {
            out.violations.entry(left).or_insert(cex);
        }
        if out.unknown_row.is_none() {
            if let Some(instant) = props.iter().position(Option::is_none) {
                let steps = render_steps(table, &inputs, &stimulus[..=instant], &props[..=instant]);
                out.unknown_row = Some(Counterexample {
                    inputs: inputs.iter().map(|(n, _)| n.clone()).collect(),
                    stimulus,
                    violation_instant: instant,
                    steps,
                });
            }
        }
    }
    out
}

/// Bounded verification of every mined assertion of `psm` against the
/// reachable behaviours of `netlist`, plus PSM-level reachability checks,
/// reported as the `MC` diagnostic family.
///
/// The proposition `table` must describe the same port interface as the
/// netlist (the XA001 lint's invariant); runs over mismatched pairs
/// produce a single informational note and no verdicts.
///
/// See the module-level docs for the engine selection and the exact
/// meaning of each verdict.
pub fn verify_model(
    netlist: &Netlist,
    table: &PropositionTable,
    psm: &Psm,
    cfg: &VerifyConfig,
) -> VerifyOutcome {
    let mut report = AnalysisReport::new(format!(
        "verify netlist `{}` against the mined model",
        netlist.name()
    ));
    let assertions = collect_assertions(psm);
    let checker = match cfg.depth {
        0 => Err("verification disabled (depth 0)".to_owned()),
        _ => Checker::new(netlist, table, &assertions)
            .map_err(|why| format!("verification skipped: {why}")),
    };
    let checker = match checker {
        Ok(checker) => checker,
        Err(why) => {
            report.push(Diagnostic::new(&codes::MC003, "verification run", why));
            return VerifyOutcome {
                report,
                checks: Vec::new(),
                mode: VerifyMode::Abstract,
                depth: cfg.depth,
            };
        }
    };
    let (mode, exploration) = match exhaustive_search(netlist, &checker, cfg) {
        Some(e) => (VerifyMode::Exhaustive, e),
        None => (
            VerifyMode::Abstract,
            abstract_search(netlist, &checker, cfg),
        ),
    };

    let mut checks = Vec::with_capacity(assertions.len());
    for assertion in &assertions {
        let left = assertion.left().index();
        let text = assertion.render(table);
        let (verdict, counterexample) = if let Some(cex) = exploration.violations.get(&left) {
            (Verdict::Refuted, Some(cex.clone()))
        } else if (exploration.complete && !exploration.reachable.contains(&left))
            || exploration.never.contains(&left)
        {
            (Verdict::Vacuous, None)
        } else if exploration.complete {
            (Verdict::Proved, None)
        } else {
            (Verdict::Unknown, None)
        };
        checks.push(AssertionCheck {
            assertion: *assertion,
            text,
            verdict,
            counterexample,
        });
    }

    for check in &checks {
        let location = format!("assertion `{}`", check.text);
        match check.verdict {
            Verdict::Refuted => {
                let cex = check.counterexample.as_ref().expect("refuted carries cex");
                report.push(
                    Diagnostic::new(
                        &codes::MC001,
                        location,
                        format!(
                            "refuted: a replayed {}-cycle stimulus reaches a successor the \
                             mined assertions forbid at cycle {}",
                            cex.stimulus.len(),
                            cex.violation_instant,
                        ),
                    )
                    .with_steps(cex.steps.clone()),
                );
            }
            Verdict::Vacuous => {
                report.push(Diagnostic::new(
                    &codes::MC002,
                    location,
                    format!(
                        "vacuous: antecedent p{} {} is unreachable within depth {}",
                        check.assertion.left().index(),
                        table.render(check.assertion.left()),
                        cfg.depth,
                    ),
                ));
            }
            Verdict::Proved | Verdict::Unknown => {}
        }
    }
    if let Some(cex) = &exploration.unknown_row {
        report.push(
            Diagnostic::new(
                &codes::MC007,
                format!("cycle {}", cex.violation_instant),
                format!(
                    "the netlist reaches a port valuation matching no mined proposition \
                     at cycle {} (confirmed by replay)",
                    cex.violation_instant,
                ),
            )
            .with_steps(cex.steps.clone()),
        );
    }

    psm_structure_checks(psm, table, &exploration, mode, &mut report);

    let tally = |v: Verdict| checks.iter().filter(|c| c.verdict == v).count();
    report.push(Diagnostic::new(
        &codes::MC003,
        "verification run",
        format!(
            "{} assertion(s) checked in {} mode to depth {}: {} proved, {} refuted, \
             {} vacuous, {} unknown",
            checks.len(),
            mode.name(),
            cfg.depth,
            tally(Verdict::Proved),
            tally(Verdict::Refuted),
            tally(Verdict::Vacuous),
            tally(Verdict::Unknown),
        ),
    ));

    VerifyOutcome {
        report,
        checks,
        mode,
        depth: cfg.depth,
    }
}

/// PSM-level checks on top of the reachability engine: dead states
/// (MC004), overlapping guards (MC005) and sink states (MC006).
fn psm_structure_checks(
    psm: &Psm,
    table: &PropositionTable,
    exploration: &Exploration,
    mode: VerifyMode,
    report: &mut AnalysisReport,
) {
    // MC004: no entry proposition of any chain is reachable on the
    // implementation within the bound.
    for (id, state) in psm.states() {
        let entries: Vec<usize> = state
            .chains()
            .iter()
            .map(|c| c.entry_proposition().index())
            .collect();
        if entries.is_empty() {
            continue;
        }
        let dead = match mode {
            VerifyMode::Exhaustive => {
                exploration.complete && entries.iter().all(|e| !exploration.reachable.contains(e))
            }
            VerifyMode::Abstract => entries.iter().all(|e| exploration.never.contains(e)),
        };
        if dead {
            report.push(Diagnostic::new(
                &codes::MC004,
                format!("state s{}", id.index()),
                format!(
                    "dead on the implementation: no entry proposition ({}) is reachable \
                     within the bound",
                    entries
                        .iter()
                        .map(|e| format!("p{e}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
            ));
        }
    }
    // MC005: one guard, two different successors.
    for (id, _) in psm.states() {
        let mut by_guard: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for t in psm.successors(id) {
            by_guard
                .entry(t.guard.index())
                .or_default()
                .insert(t.to.index());
        }
        for (guard, targets) in by_guard {
            if targets.len() > 1 {
                report.push(Diagnostic::new(
                    &codes::MC005,
                    format!("state s{} guard p{guard}", id.index()),
                    format!(
                        "guard p{guard} {} leads to {} different states ({}): the \
                         \"exactly one successor\" invariant does not pick one",
                        table.render(PropositionId::from_index(guard as u32)),
                        targets.len(),
                        targets
                            .iter()
                            .map(|s| format!("s{s}"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                ));
            }
        }
    }
    // MC006: graph-reachable states with no way out (resync is the only
    // recovery once the estimator lands there).
    if psm.state_count() > 1 {
        let mut graph_reachable = vec![false; psm.state_count()];
        let mut stack: Vec<StateId> = psm.initials().iter().map(|&(s, _)| s).collect();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut graph_reachable[s.index()], true) {
                continue;
            }
            for t in psm.successors(s) {
                if t.to.index() < graph_reachable.len() && !graph_reachable[t.to.index()] {
                    stack.push(t.to);
                }
            }
        }
        for (id, _) in psm.states() {
            if graph_reachable[id.index()] && psm.successors(id).next().is_none() {
                report.push(Diagnostic::new(
                    &codes::MC006,
                    format!("state s{}", id.index()),
                    "reachable state with no outgoing transitions: once entered, only a \
                     resync can leave it",
                ));
            }
        }
    }
}

/// Re-executes a witness stimulus against the model's assertion set and
/// reports what it shows: MC001 when the replay confirms a violation,
/// MC007 when it leaves the mined dictionary, or a single MC003 note when
/// the stimulus shows no violation.
///
/// This is the engine behind `psmlint --replay`: witnesses written by
/// [`verify_model`] (or hand-crafted stimuli) can be re-checked at any
/// time against any netlist × model pair.
pub fn replay_witness(
    netlist: &Netlist,
    table: &PropositionTable,
    psm: &Psm,
    stimulus: &[Vec<Bits>],
) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!(
        "replay {} cycle(s) against netlist `{}`",
        stimulus.len(),
        netlist.name()
    ));
    let assertions = collect_assertions(psm);
    let checker = match Checker::new(netlist, table, &assertions) {
        Ok(checker) => checker,
        Err(why) => {
            let why = format!("replay skipped: {why}");
            report.push(Diagnostic::new(&codes::MC003, "replay", why));
            return report;
        }
    };
    match confirm_witness(netlist, &checker, stimulus.to_vec(), None) {
        Some((left, cex)) => {
            let refuted: Vec<String> = assertions
                .iter()
                .filter(|a| a.left().index() == left)
                .map(|a| a.render(table))
                .collect();
            report.push(
                Diagnostic::new(
                    &codes::MC001,
                    format!("assertion `{}`", refuted.join("`, `")),
                    format!(
                        "replay confirms the violation at cycle {}",
                        cex.violation_instant
                    ),
                )
                .with_steps(cex.steps),
            );
        }
        None => {
            let note = match simulate_props(netlist, &checker.classifier, stimulus) {
                Some((props, _)) => match props.iter().position(Option::is_none) {
                    Some(t) => {
                        report.push(Diagnostic::new(
                            &codes::MC007,
                            format!("cycle {t}"),
                            format!("replay leaves the mined proposition dictionary at cycle {t}"),
                        ));
                        return report;
                    }
                    None => "replay shows no assertion violation".to_owned(),
                },
                None => "replay failed: stimulus does not fit the netlist's inputs".to_owned(),
            };
            report.push(Diagnostic::new(&codes::MC003, "replay", note));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_core::generate_psm;
    use psm_mining::{Miner, MiningConfig};
    use psm_trace::{FunctionalTrace, PowerTrace, SignalSet};

    /// The defective twin of the fixture pair: `y` is a register fed by
    /// `en & y`, so with `y` reset to 0 the output is stuck at 0 while the
    /// training behaviour below has `y` follow `en` one cycle late.
    fn stuck_netlist() -> Netlist {
        let mut b = psm_rtl::NetlistBuilder::new("verify_defect");
        let en = b.input("en", 1);
        let r = b.register("y_r", 1);
        let d = b.and(en.bit(0), r.q().bit(0));
        b.connect_register(&r, &psm_rtl::Word::from_nets(vec![d]));
        b.output("y", &r.q());
        b.finish().expect("fixture netlist builds")
    }

    /// A working twin: `y` really follows `en` one cycle late.
    fn delay_netlist() -> Netlist {
        let mut b = psm_rtl::NetlistBuilder::new("verify_defect");
        let en = b.input("en", 1);
        let r = b.register("y_r", 1);
        b.connect_register(&r, &psm_rtl::Word::from_nets(vec![en.bit(0)]));
        b.output("y", &r.q());
        b.finish().expect("fixture netlist builds")
    }

    fn interface() -> SignalSet {
        let mut s = SignalSet::new();
        s.push("en", 1, Direction::Input).unwrap();
        s.push("y", 1, Direction::Output).unwrap();
        s
    }

    /// Training trace of the intended behaviour (`y` follows `en`).
    fn training_trace() -> FunctionalTrace {
        let en = [
            true, true, true, false, false, true, false, true, true, false, false, true, true,
            true, false, false,
        ];
        let mut t = FunctionalTrace::new(interface());
        let mut y = false;
        for &e in &en {
            t.push_cycle(vec![Bits::from_bool(e), Bits::from_bool(y)])
                .unwrap();
            y = e;
        }
        t
    }

    fn mined_model() -> (PropositionTable, Psm) {
        let phi = training_trace();
        let mined = Miner::new(MiningConfig::default())
            .mine(&[&phi])
            .expect("mining succeeds");
        let delta: PowerTrace = (0..phi.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let psm = generate_psm(&mined.traces[0], &delta, 0).expect("psm generates");
        (mined.table, psm)
    }

    #[test]
    fn unroller_contains_every_concrete_run() {
        let netlist = delay_netlist();
        let depth = 6;
        let unrolled = unroll_ternary(&netlist, depth).expect("unrolls");
        let mut sim = Simulator::new(&netlist).unwrap();
        let handles: Vec<PortHandle> = sim.input_handles().into_iter().map(|(_, h)| h).collect();
        for (t, instant) in unrolled.iter().enumerate() {
            let bits = Bits::from_bool(t % 2 == 0);
            for &h in &handles {
                sim.set_input_by_handle(h, &bits).unwrap();
            }
            sim.step();
            for (net, &abstracted) in instant.iter().enumerate() {
                let concrete = Ternary::from_bool(sim.net_value(psm_rtl::NetId(net)));
                assert!(
                    concrete.le(abstracted),
                    "net {net} at instant {t}: concrete {concrete:?} ⋢ {abstracted:?}"
                );
            }
        }
    }

    #[test]
    fn defective_twin_is_refuted_and_vacuous() {
        let (table, psm) = mined_model();
        let outcome = verify_model(&stuck_netlist(), &table, &psm, &VerifyConfig::default());
        assert_eq!(outcome.mode, VerifyMode::Exhaustive);
        let verdicts: Vec<Verdict> = outcome.checks.iter().map(|c| c.verdict).collect();
        assert!(
            verdicts.contains(&Verdict::Refuted),
            "expected a refutation: {:?}",
            outcome.report.text()
        );
        assert!(
            verdicts.contains(&Verdict::Vacuous),
            "expected a vacuous assertion: {:?}",
            outcome.report.text()
        );
        assert!(outcome
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == "MC001"));
        assert!(outcome
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == "MC002"));
    }

    #[test]
    fn every_counterexample_replays_to_a_violation() {
        let (table, psm) = mined_model();
        let netlist = stuck_netlist();
        let outcome = verify_model(&netlist, &table, &psm, &VerifyConfig::default());
        let mut confirmed = 0;
        for check in &outcome.checks {
            if let Some(cex) = &check.counterexample {
                let replay = replay_witness(&netlist, &table, &psm, &cex.stimulus);
                assert!(
                    replay.diagnostics().iter().any(|d| d.code == "MC001"),
                    "witness of `{}` did not replay to a violation: {}",
                    check.text,
                    replay.text()
                );
                confirmed += 1;
            }
        }
        assert!(confirmed > 0, "expected at least one counterexample");
    }

    /// A six-state machine (3-bit register `c`, 1-bit input `en`,
    /// `y = (c == 5)`) built so that state 3 has both a short path
    /// (`0 -en=0-> 4 -en=1-> 3`, 2 steps) and a long one
    /// (`0 -en=1-> 1 -> 2 -> 3`, 3 steps), and state 5 — the only state
    /// with `y = 1` — is reachable solely through state 3:
    ///
    /// ```text
    /// en=1:  0 -> 1 -> 2 -> 3 -> 5 -> 5      4 -> 3
    /// en=0:  0 -> 4, everything else holds
    /// ```
    ///
    /// Sampled rows lag the register by one step (`y` at row `t` shows
    /// the state after `t - 1` steps), so the `(en=1, y=1)` row first
    /// appears at row 4 — and only via the short path at bound 4. A
    /// depth-first exploration that dedups `(state, prop)` without depth
    /// first meets state 3 at depth 3 via the long chain, drops the
    /// shallower short-path rediscovery, generates state 5 only at the
    /// bound where it is never expanded — and falsely reports assertions
    /// whose antecedent only holds there as vacuous. Breadth-first
    /// discovery keeps every state at its minimal depth.
    fn two_path_netlist() -> Netlist {
        let mut b = psm_rtl::NetlistBuilder::new("two_path");
        let en = b.input("en", 1);
        let r = b.register("c", 3);
        let q = r.q();
        let f1: Vec<psm_rtl::Word> = [1u64, 2, 3, 5, 3, 5, 6, 7]
            .iter()
            .map(|&v| b.const_word(v, 3))
            .collect();
        let f0: Vec<psm_rtl::Word> = [4u64, 1, 2, 3, 4, 5, 6, 7]
            .iter()
            .map(|&v| b.const_word(v, 3))
            .collect();
        let t1 = b.mux_tree(&q, &f1);
        let t0 = b.mux_tree(&q, &f0);
        let next = b.mux_word(en.bit(0), &t0, &t1);
        b.connect_register(&r, &next);
        let y = b.eq_const(&q, 5);
        b.output("y", &psm_rtl::Word::from_nets(vec![y]));
        b.finish().expect("fixture netlist builds")
    }

    #[test]
    fn deep_first_discovery_does_not_hide_shallow_paths() {
        // Train on the en=1 walk that reaches state 5 and parks there:
        // rows (en, y) = (1,0) ×4, (1,1), (0,1) — y lags the state by
        // one row, exactly what the netlist produces for this stimulus.
        let mut phi = FunctionalTrace::new(interface());
        let en = [true, true, true, true, true, false];
        let y = [false, false, false, false, true, true];
        for (&e, &o) in en.iter().zip(&y) {
            phi.push_cycle(vec![Bits::from_bool(e), Bits::from_bool(o)])
                .unwrap();
        }
        let mined = Miner::new(MiningConfig::default())
            .mine(&[&phi])
            .expect("mining succeeds");
        let delta: PowerTrace = (0..phi.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let psm = generate_psm(&mined.traces[0], &delta, 0).expect("psm generates");
        let cfg = VerifyConfig {
            depth: 4,
            ..VerifyConfig::default()
        };
        let outcome = verify_model(&two_path_netlist(), &mined.table, &psm, &cfg);
        assert_eq!(outcome.mode, VerifyMode::Exhaustive);
        // The p(en=1, y=1) row only follows a step out of state 5, whose
        // minimal entry depth is 3 — but only via the short path through
        // the doubly-reachable state 3, making the row's minimal depth
        // exactly the bound.
        let pv = mined
            .table
            .classify(phi.cycle(4))
            .expect("the (en=1, y=1) row is in the mined dictionary");
        let at_v: Vec<&AssertionCheck> = outcome
            .checks
            .iter()
            .filter(|c| c.assertion.left() == pv)
            .collect();
        assert!(
            !at_v.is_empty(),
            "expected an assertion with antecedent p(en=1, y=1)"
        );
        for check in at_v {
            assert_eq!(
                check.verdict,
                Verdict::Proved,
                "`{}` should be proved, not {:?}:\n{}",
                check.text,
                check.verdict,
                outcome.report.text()
            );
        }
    }

    #[test]
    fn faithful_twin_proves_every_assertion() {
        let (table, psm) = mined_model();
        let outcome = verify_model(&delay_netlist(), &table, &psm, &VerifyConfig::default());
        assert_eq!(outcome.mode, VerifyMode::Exhaustive);
        for check in &outcome.checks {
            assert!(
                matches!(check.verdict, Verdict::Proved | Verdict::Vacuous),
                "`{}` unexpectedly {:?}",
                check.text,
                check.verdict
            );
        }
        assert!(!outcome
            .report
            .diagnostics()
            .iter()
            .any(|d| d.severity == crate::Severity::Error));
    }

    #[test]
    fn depth_zero_disables_the_pass() {
        let (table, psm) = mined_model();
        let cfg = VerifyConfig {
            depth: 0,
            ..VerifyConfig::default()
        };
        let outcome = verify_model(&stuck_netlist(), &table, &psm, &cfg);
        assert!(outcome.checks.is_empty());
        assert_eq!(outcome.report.diagnostics().len(), 1);
        assert_eq!(outcome.report.diagnostics()[0].code, "MC003");
    }

    #[test]
    fn atom_ternary_decides_known_prefixes() {
        let set = interface();
        let ids: Vec<_> = set.iter().map(|(id, _)| id).collect();
        let sig = |i: usize| ids[i];
        let eq = AtomicProposition::VarEqConst {
            signal: sig(0),
            value: Bits::from_u64(0b10, 2),
        };
        // Known-equal bits decide; an X keeps it open only while no known
        // bit contradicts.
        assert_eq!(
            atom_ternary(&eq, &[vec![Ternary::Zero, Ternary::One]]),
            Ternary::One
        );
        assert_eq!(
            atom_ternary(&eq, &[vec![Ternary::One, Ternary::X]]),
            Ternary::Zero
        );
        assert_eq!(
            atom_ternary(&eq, &[vec![Ternary::Zero, Ternary::X]]),
            Ternary::X
        );
        let lt = AtomicProposition::VarCmpVar {
            left: sig(0),
            cmp: psm_mining::Comparison::Lt,
            right: sig(1),
        };
        // MSB decides 01 < 10 even with the low bits unknown.
        assert_eq!(
            atom_ternary(
                &lt,
                &[
                    vec![Ternary::X, Ternary::Zero],
                    vec![Ternary::X, Ternary::One]
                ]
            ),
            Ternary::One
        );
        assert_eq!(
            atom_ternary(
                &lt,
                &[
                    vec![Ternary::X, Ternary::One],
                    vec![Ternary::X, Ternary::One]
                ]
            ),
            Ternary::X
        );
    }
}
