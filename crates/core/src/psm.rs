//! The power state machine data structure.

use crate::attrs::PowerAttributes;
use psm_mining::{PropositionId, PropositionTable, TemporalAssertion};
use std::fmt;

/// Identifier of a state within one [`Psm`].
///
/// Ids are dense indices; merging states (via [`simplify`](crate::simplify)
/// or [`join`](crate::join)) compacts the id space, so ids must not be held
/// across merge operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// Dense index of this state.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index (e.g. when mapping HMM hidden states
    /// back onto PSM states). The index is validated at first use against
    /// the PSM it is applied to.
    pub fn from_index(index: usize) -> Self {
        StateId(index)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Provenance of a state's power attributes: the inclusive interval of one
/// training trace where the state's assertion held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceWindow {
    /// Index of the training trace (position in the mining input set).
    pub trace: usize,
    /// First instant of the interval.
    pub start: usize,
    /// Last instant (inclusive).
    pub stop: usize,
}

/// A *sequence* of temporal assertions `{p_i; p_{i+1}; …}` characterising a
/// state (paper §IV): produced by `simplify` merging adjacent states. A
/// freshly generated state holds a chain of length one.
///
/// # Examples
///
/// ```
/// use psm_core::ChainAssertion;
/// use psm_mining::{PropositionId, TemporalAssertion, TemporalPattern};
///
/// let p = |i| PropositionId::from_index(i);
/// let a = ChainAssertion::single(TemporalAssertion::new(TemporalPattern::Until, p(0), p(1)));
/// let b = ChainAssertion::single(TemporalAssertion::new(TemporalPattern::Until, p(1), p(2)));
/// let seq = a.concat(&b);
/// assert_eq!(seq.len(), 2);
/// assert_eq!(seq.entry_proposition(), p(0));
/// assert_eq!(seq.exit_proposition(), p(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChainAssertion {
    parts: Vec<TemporalAssertion>,
}

impl ChainAssertion {
    /// A chain of one assertion.
    pub fn single(assertion: TemporalAssertion) -> Self {
        ChainAssertion {
            parts: vec![assertion],
        }
    }

    /// Concatenates two chains: first all of `self`, then all of `other`.
    pub fn concat(&self, other: &ChainAssertion) -> Self {
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().copied());
        ChainAssertion { parts }
    }

    /// The assertions in cascade order.
    pub fn parts(&self) -> &[TemporalAssertion] {
        &self.parts
    }

    /// Number of cascaded assertions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// A chain is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The proposition observed when the state is entered.
    pub fn entry_proposition(&self) -> PropositionId {
        self.parts[0].left()
    }

    /// The proposition whose appearance exits the state (labels the
    /// outgoing transition).
    pub fn exit_proposition(&self) -> PropositionId {
        self.parts[self.parts.len() - 1].right()
    }

    /// Renders with full proposition formulas, e.g.
    /// `{(…) U (…); (…) X (…)}`.
    pub fn render(&self, table: &PropositionTable) -> String {
        let parts: Vec<String> = self.parts.iter().map(|a| a.render(table)).collect();
        if parts.len() == 1 {
            parts.into_iter().next().expect("chains are non-empty")
        } else {
            format!("{{{}}}", parts.join("; "))
        }
    }
}

impl fmt::Display for ChainAssertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.len() == 1 {
            write!(f, "{}", self.parts[0])
        } else {
            let parts: Vec<String> = self.parts.iter().map(|a| a.to_string()).collect();
            write!(f, "{{{}}}", parts.join("; "))
        }
    }
}

/// The power output function ω of a state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputFunction {
    /// The constant μ of the state's power attributes (the paper's default).
    Constant(f64),
    /// Data-dependent calibration (paper §IV): power predicted from the
    /// Hamming distance of consecutive input values,
    /// `power = slope · hamming + intercept`.
    Regression {
        /// mW per toggling input bit.
        slope: f64,
        /// mW at zero input activity.
        intercept: f64,
    },
}

impl OutputFunction {
    /// Evaluates the function for one instant; `input_hamming` is the
    /// Hamming distance between this instant's and the previous instant's
    /// primary-input values (ignored by [`OutputFunction::Constant`]).
    pub fn evaluate(&self, input_hamming: f64) -> f64 {
        match self {
            OutputFunction::Constant(mu) => *mu,
            OutputFunction::Regression { slope, intercept } => slope * input_hamming + intercept,
        }
    }

    /// `true` when this is a regression (calibrated) output.
    pub fn is_regression(&self) -> bool {
        matches!(self, OutputFunction::Regression { .. })
    }
}

/// One power state: its characterising assertions, the training windows
/// backing it, its power attributes and its output function.
///
/// A state generated by `PSMGenerator` has exactly one chain of length one;
/// `simplify` lengthens chains, `join` adds *alternative* chains
/// (`{p_i ‖ p_j ‖ …}`). A state holds each distinct chain once, in
/// first-occurrence order, beside its multiplicity: how many of the
/// merged states it came from carried that chain. Joining a state whose
/// chain this one already holds adds to that chain's count, so the
/// multiplicities the HMM's B matrix counts never exist as copies.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerState {
    chains: Vec<ChainAssertion>,
    counts: Vec<usize>,
    windows: Vec<SourceWindow>,
    attrs: PowerAttributes,
    output: OutputFunction,
}

impl PowerState {
    /// Creates a state for one assertion with its training window and power
    /// attributes — the paper's `createPowerState(p, ⟨μ, σ, n⟩)`.
    pub fn new(chain: ChainAssertion, window: SourceWindow, attrs: PowerAttributes) -> Self {
        PowerState {
            chains: vec![chain],
            counts: vec![1],
            windows: vec![window],
            attrs,
            output: OutputFunction::Constant(attrs.mu()),
        }
    }

    /// The distinct alternative chains characterising this state
    /// (`‖`-composition), in first-occurrence order.
    pub fn chains(&self) -> &[ChainAssertion] {
        &self.chains
    }

    /// The multiplicity of each chain, parallel to [`chains`](Self::chains):
    /// every count is at least 1.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total multiplicity: the sum of [`counts`](Self::counts), the number
    /// of chains the merged states carried, copies included.
    pub fn multiplicity(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Training windows backing the attributes.
    pub fn windows(&self) -> &[SourceWindow] {
        &self.windows
    }

    /// Power attributes ⟨μ, σ, n⟩.
    pub fn attrs(&self) -> &PowerAttributes {
        &self.attrs
    }

    /// Output function ω.
    pub fn output(&self) -> OutputFunction {
        self.output
    }

    /// Replaces the output function (used by calibration).
    pub fn set_output(&mut self, output: OutputFunction) {
        self.output = output;
    }

    /// `true` when the attributes come from a single instant — the paper's
    /// shorthand for a `next`-pattern state (mergeability case 1/3).
    pub fn is_next_state(&self) -> bool {
        self.attrs.n() == 1
    }

    /// Adds `count` occurrences of `chain`: to its count when this state
    /// already holds it, as a new last alternative otherwise.
    fn add_chain(&mut self, chain: ChainAssertion, count: usize) {
        match self.chains.iter().position(|c| *c == chain) {
            Some(i) => self.counts[i] += count,
            None => {
                self.chains.push(chain);
                self.counts.push(count);
            }
        }
    }

    /// Absorbs another state's assertions, windows and attributes, either
    /// as a *sequence* (`simplify`: other's chain is appended to this
    /// state's single chain) or as *alternatives* (`join`: each of other's
    /// chains folds into an equal chain's count or is appended).
    pub(crate) fn absorb(&mut self, other: PowerState, as_sequence: bool) {
        if as_sequence {
            debug_assert_eq!(self.multiplicity(), 1, "sequence merges act on chain PSMs");
            debug_assert_eq!(other.multiplicity(), 1);
            let tail = other
                .chains
                .into_iter()
                .next()
                .expect("chains are non-empty");
            self.chains[0].parts.extend(tail.parts);
        } else {
            for (chain, count) in other.chains.into_iter().zip(other.counts) {
                self.add_chain(chain, count);
            }
        }
        self.windows.extend(other.windows);
        self.attrs.merge(&other.attrs);
        // Keep a constant output in sync with the merged mean; calibrated
        // outputs are recomputed after merging anyway.
        if let OutputFunction::Constant(_) = self.output {
            self.output = OutputFunction::Constant(self.attrs.mu());
        }
    }
}

/// A transition with its enabling proposition (the guard that fires it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Enabling function: the proposition whose appearance fires the
    /// transition (the exit proposition of the source state's assertion).
    pub guard: PropositionId,
}

/// A power state machine (paper Def. 3, specialised): states with power
/// attributes, proposition-guarded transitions and one or more initial
/// states with multiplicities (several training traces may start in the
/// same behaviour — the multiplicity feeds the HMM's π vector).
///
/// Generated PSMs are chains; [`join`](crate::join) folds many chains into
/// one graph-shaped, possibly non-deterministic model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Psm {
    states: Vec<PowerState>,
    transitions: Vec<Transition>,
    initials: Vec<(StateId, usize)>,
}

impl Psm {
    /// Creates an empty PSM.
    pub fn new() -> Self {
        Psm::default()
    }

    /// Adds a state — the paper's `addState`.
    pub fn add_state(&mut self, state: PowerState) -> StateId {
        self.states.push(state);
        StateId(self.states.len() - 1)
    }

    /// Adds a transition — the paper's `addTransition`. Duplicate
    /// transitions (same endpoints and guard) are kept only once.
    pub fn add_transition(&mut self, from: StateId, to: StateId, guard: PropositionId) {
        let t = Transition { from, to, guard };
        if !self.transitions.contains(&t) {
            self.transitions.push(t);
        }
    }

    /// Marks (another) training trace as starting in `state`.
    pub fn add_initial(&mut self, state: StateId) {
        if let Some(entry) = self.initials.iter_mut().find(|(s, _)| *s == state) {
            entry.1 += 1;
        } else {
            self.initials.push((state, 1));
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The state behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (out of range).
    pub fn state(&self, id: StateId) -> &PowerState {
        &self.states[id.0]
    }

    /// Mutable access to a state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (out of range).
    pub fn state_mut(&mut self, id: StateId) -> &mut PowerState {
        &mut self.states[id.0]
    }

    /// Iterates over `(id, state)` pairs.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &PowerState)> {
        self.states.iter().enumerate().map(|(i, s)| (StateId(i), s))
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions leaving `state`.
    pub fn successors(&self, state: StateId) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// Initial states with their multiplicities.
    pub fn initials(&self) -> &[(StateId, usize)] {
        &self.initials
    }

    /// A PSM is deterministic when no state has two outgoing transitions
    /// with the same guard and no state has two alternative chains sharing
    /// an entry proposition (a chain joined twice only adds multiplicity,
    /// not ambiguity). The paper's §IV notes `join` can break determinism;
    /// non-deterministic models need the HMM simulator.
    pub fn is_deterministic(&self) -> bool {
        for (id, state) in self.states() {
            let mut guards: Vec<_> = self.successors(id).map(|t| t.guard).collect();
            guards.sort();
            if guards.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
            let mut entries: Vec<_> = state
                .chains()
                .iter()
                .map(|c| c.entry_proposition())
                .collect();
            entries.sort();
            if entries.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
        }
        self.initials.len() <= 1
    }

    /// Merges state `remove` into state `keep`: assertions become
    /// alternatives (or a sequence when `as_sequence`), attributes are
    /// combined, transitions and initial marks are redirected, and the id
    /// space is compacted.
    ///
    /// All previously held [`StateId`]s become stale. This per-merge
    /// rebuild is the primitive of the reference `simplify`/`join` the unit
    /// tests check [`Fold`] against.
    ///
    /// # Panics
    ///
    /// Panics if the ids are equal or stale.
    #[cfg(test)]
    pub(crate) fn merge_states(&mut self, keep: StateId, remove: StateId, as_sequence: bool) {
        assert_ne!(keep, remove, "cannot merge a state with itself");
        let removed = self.states[remove.0].clone();
        self.states[keep.0].absorb(removed, as_sequence);
        self.states.remove(remove.0);

        if as_sequence {
            // The inner transition of the collapsed sequence disappears
            // (paper Fig. 6a): the new state is entered through s_i's
            // ingoing and left through s_{i+j}'s outgoing transition.
            self.transitions.retain(|t| {
                !((t.from == keep && t.to == remove) || (t.from == remove && t.to == keep))
            });
        }

        let remap = |s: StateId| -> StateId {
            if s == remove {
                // Account for `keep` itself shifting when it sits after
                // `remove` in the vector.
                StateId(if keep.0 > remove.0 {
                    keep.0 - 1
                } else {
                    keep.0
                })
            } else if s.0 > remove.0 {
                StateId(s.0 - 1)
            } else {
                s
            }
        };

        let mut transitions = Vec::with_capacity(self.transitions.len());
        let mut seen = std::collections::HashSet::with_capacity(self.transitions.len());
        for t in self.transitions.drain(..) {
            let nt = Transition {
                from: remap(t.from),
                to: remap(t.to),
                guard: t.guard,
            };
            if seen.insert(nt) {
                transitions.push(nt);
            }
        }
        self.transitions = transitions;

        let mut initials: Vec<(StateId, usize)> = Vec::new();
        for (s, count) in self.initials.drain(..) {
            let ns = remap(s);
            if let Some(entry) = initials.iter_mut().find(|(e, _)| *e == ns) {
                entry.1 += count;
            } else {
                initials.push((ns, count));
            }
        }
        self.initials = initials;
    }

    /// Disjoint union: appends all states, transitions and initial marks of
    /// `other`, shifting its ids. Used by [`join`](crate::join).
    pub(crate) fn absorb_psm(&mut self, other: &Psm) {
        let offset = self.states.len();
        self.states.extend(other.states.iter().cloned());
        for t in &other.transitions {
            self.transitions.push(Transition {
                from: StateId(t.from.0 + offset),
                to: StateId(t.to.0 + offset),
                guard: t.guard,
            });
        }
        for (s, count) in &other.initials {
            let shifted = StateId(s.0 + offset);
            if let Some(entry) = self.initials.iter_mut().find(|(e, _)| *e == shifted) {
                entry.1 += count;
            } else {
                self.initials.push((shifted, *count));
            }
        }
    }
}

/// A [`Psm`] under reduction by [`simplify`](crate::simplify) or
/// [`join`](crate::join): merges fold states together in place, and the id
/// space is compacted once, by [`Fold::compact`].
///
/// A merge moves the removed state into the kept one and records
/// `into[remove] = keep`. Every state keeps its index for the whole
/// reduction and no transition is rewritten per merge. Compacting keeps the
/// live states in index order, maps every transition through the resolved
/// `into`, drops the retired ones and keeps the first occurrence of each
/// image; the initial marks fold by first occurrence the same way. That is
/// exactly the PSM a remap-and-deduplicate after every merge yields: a
/// deduplication only drops a later transition whose earlier twin maps to
/// the same image, and the two stay twins under every later remap.
pub(crate) struct Fold {
    states: Vec<Option<PowerState>>,
    into: Vec<usize>,
    transitions: Vec<Transition>,
    retired: Vec<bool>,
    initials: Vec<(StateId, usize)>,
    merged: bool,
}

impl Fold {
    pub(crate) fn new(psm: Psm) -> Self {
        let n = psm.states.len();
        Fold {
            states: psm.states.into_iter().map(Some).collect(),
            into: (0..n).collect(),
            retired: vec![false; psm.transitions.len()],
            transitions: psm.transitions,
            initials: psm.initials,
            merged: false,
        }
    }

    /// Number of states before any merge (live and folded).
    pub(crate) fn state_count(&self) -> usize {
        self.states.len()
    }

    /// `false` once state `i` has been folded into another.
    pub(crate) fn is_live(&self, i: usize) -> bool {
        self.states[i].is_some()
    }

    /// The live state at original index `i`.
    pub(crate) fn state(&self, i: usize) -> &PowerState {
        self.states[i].as_ref().expect("state was folded away")
    }

    /// All transitions, in original ids, retired ones included.
    pub(crate) fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// `true` once transition `t` has been retired.
    pub(crate) fn is_retired(&self, t: usize) -> bool {
        self.retired[t]
    }

    /// Drops transition `t` from the compacted PSM.
    pub(crate) fn retire(&mut self, t: usize) {
        self.retired[t] = true;
    }

    /// Folds state `remove` into state `keep` (see [`PowerState::absorb`]).
    pub(crate) fn merge(&mut self, keep: usize, remove: usize, as_sequence: bool) {
        assert_ne!(keep, remove, "cannot merge a state with itself");
        let removed = self.states[remove].take().expect("state was folded away");
        self.states[keep]
            .as_mut()
            .expect("state was folded away")
            .absorb(removed, as_sequence);
        self.into[remove] = keep;
        self.merged = true;
    }

    /// The reduced PSM with dense ids.
    pub(crate) fn compact(self) -> Psm {
        let states = self.states.into_iter().flatten();
        if !self.merged {
            return Psm {
                states: states.collect(),
                transitions: self.transitions,
                initials: self.initials,
            };
        }
        let mut into = self.into;
        let mut dense = vec![usize::MAX; into.len()];
        let mut live = 0;
        for (i, &target) in into.iter().enumerate() {
            if target == i {
                dense[i] = live;
                live += 1;
            }
        }
        let image: Vec<StateId> = (0..into.len())
            .map(|i| {
                // Path halving keeps chains of folds cheap to resolve.
                let mut r = i;
                while into[r] != r {
                    into[r] = into[into[r]];
                    r = into[r];
                }
                StateId(dense[r])
            })
            .collect();

        let mut seen = std::collections::HashSet::with_capacity(self.transitions.len());
        let transitions = self
            .transitions
            .iter()
            .zip(&self.retired)
            .filter(|(_, &retired)| !retired)
            .map(|(t, _)| Transition {
                from: image[t.from.0],
                to: image[t.to.0],
                guard: t.guard,
            })
            .filter(|t| seen.insert(*t))
            .collect();

        let mut initials: Vec<(StateId, usize)> = Vec::new();
        for (s, count) in self.initials {
            let s = image[s.0];
            if let Some(entry) = initials.iter_mut().find(|(e, _)| *e == s) {
                entry.1 += count;
            } else {
                initials.push((s, count));
            }
        }
        Psm {
            states: states.collect(),
            transitions,
            initials,
        }
    }
}

mod persist {
    //! [`Persist`] implementations for the PSM data structure. The JSON
    //! layout mirrors the in-memory structure; referential invariants
    //! (transition endpoints, initial states, chain shapes and counts) are
    //! re-validated on load so a hand-edited document cannot produce a PSM
    //! that panics later.

    use super::*;
    use psm_persist::{JsonValue, Persist, PersistError};

    impl Persist for StateId {
        fn to_json(&self) -> JsonValue {
            JsonValue::from(self.0)
        }

        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            Ok(StateId(v.as_usize()?))
        }
    }

    impl Persist for SourceWindow {
        fn to_json(&self) -> JsonValue {
            JsonValue::obj([
                ("trace", JsonValue::from(self.trace)),
                ("start", JsonValue::from(self.start)),
                ("stop", JsonValue::from(self.stop)),
            ])
        }

        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            let w = SourceWindow {
                trace: v.usize_field("trace")?,
                start: v.usize_field("start")?,
                stop: v.usize_field("stop")?,
            };
            if w.start > w.stop {
                return Err(PersistError::schema("window start after stop"));
            }
            Ok(w)
        }
    }

    impl Persist for ChainAssertion {
        fn to_json(&self) -> JsonValue {
            self.parts.to_json()
        }

        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            let parts: Vec<TemporalAssertion> = Vec::from_json(v)?;
            if parts.is_empty() {
                return Err(PersistError::schema("assertion chains are never empty"));
            }
            Ok(ChainAssertion { parts })
        }
    }

    impl Persist for OutputFunction {
        fn to_json(&self) -> JsonValue {
            match self {
                OutputFunction::Constant(mu) => {
                    JsonValue::obj([("const", JsonValue::from_f64(*mu))])
                }
                OutputFunction::Regression { slope, intercept } => JsonValue::obj([
                    ("slope", JsonValue::from_f64(*slope)),
                    ("intercept", JsonValue::from_f64(*intercept)),
                ]),
            }
        }

        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            if let Some(mu) = v.get("const") {
                Ok(OutputFunction::Constant(mu.as_f64()?))
            } else {
                Ok(OutputFunction::Regression {
                    slope: v.f64_field("slope")?,
                    intercept: v.f64_field("intercept")?,
                })
            }
        }
    }

    impl Persist for PowerState {
        fn to_json(&self) -> JsonValue {
            let alternatives = self.chains.iter().zip(&self.counts).map(|(chain, count)| {
                JsonValue::obj([
                    ("chain", chain.to_json()),
                    ("count", JsonValue::from(*count)),
                ])
            });
            JsonValue::obj([
                ("alternatives", JsonValue::arr(alternatives)),
                ("windows", self.windows.to_json()),
                ("attrs", self.attrs.to_json()),
                ("output", self.output.to_json()),
            ])
        }

        /// Reads `alternatives` (each distinct chain once, with its count)
        /// or, from files written before chains carried counts, the legacy
        /// `chains` list of every copy, folded into counts by first
        /// occurrence — the state `join` builds from the same copies.
        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            let mut state = PowerState {
                chains: Vec::new(),
                counts: Vec::new(),
                windows: Vec::from_json(v.field("windows")?)?,
                attrs: PowerAttributes::from_json(v.field("attrs")?)?,
                output: OutputFunction::from_json(v.field("output")?)?,
            };
            match (v.get("alternatives"), v.get("chains")) {
                (Some(alternatives), None) => {
                    for item in alternatives.as_arr()? {
                        let chain = ChainAssertion::from_json(item.field("chain")?)?;
                        let count = item.usize_field("count")?;
                        if count == 0 || state.chains.contains(&chain) {
                            return Err(PersistError::schema("invalid alternative-chain table"));
                        }
                        state.chains.push(chain);
                        state.counts.push(count);
                    }
                }
                (None, Some(legacy)) => {
                    for chain in Vec::<ChainAssertion>::from_json(legacy)? {
                        state.add_chain(chain, 1);
                    }
                }
                (Some(_), Some(_)) => {
                    return Err(PersistError::schema(
                        "a power state holds `alternatives` or the legacy `chains`, not both",
                    ))
                }
                (None, None) => return Err(PersistError::schema("missing field \"alternatives\"")),
            }
            if state.chains.is_empty() {
                return Err(PersistError::schema("a power state needs a chain"));
            }
            Ok(state)
        }
    }

    impl Persist for Transition {
        fn to_json(&self) -> JsonValue {
            JsonValue::obj([
                ("from", self.from.to_json()),
                ("to", self.to.to_json()),
                ("guard", self.guard.to_json()),
            ])
        }

        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            Ok(Transition {
                from: StateId::from_json(v.field("from")?)?,
                to: StateId::from_json(v.field("to")?)?,
                guard: PropositionId::from_json(v.field("guard")?)?,
            })
        }
    }

    impl Persist for Psm {
        fn to_json(&self) -> JsonValue {
            JsonValue::obj([
                ("states", self.states.to_json()),
                ("transitions", self.transitions.to_json()),
                (
                    "initials",
                    JsonValue::arr(self.initials.iter().map(|(s, count)| {
                        JsonValue::obj([("state", s.to_json()), ("count", JsonValue::from(*count))])
                    })),
                ),
            ])
        }

        fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
            let states: Vec<PowerState> = Vec::from_json(v.field("states")?)?;
            let transitions: Vec<Transition> = Vec::from_json(v.field("transitions")?)?;
            let n = states.len();
            for t in &transitions {
                if t.from.0 >= n || t.to.0 >= n {
                    return Err(PersistError::schema(format!(
                        "transition {}→{} references a state outside 0..{n}",
                        t.from, t.to
                    )));
                }
            }
            let mut initials: Vec<(StateId, usize)> = Vec::new();
            for item in v.arr_field("initials")? {
                let state = StateId::from_json(item.field("state")?)?;
                let count = item.usize_field("count")?;
                if state.0 >= n {
                    return Err(PersistError::schema(format!(
                        "initial state {state} outside 0..{n}"
                    )));
                }
                if count == 0 || initials.iter().any(|(s, _)| *s == state) {
                    return Err(PersistError::schema("invalid initial-state table"));
                }
                initials.push((state, count));
            }
            Ok(Psm {
                states,
                transitions,
                initials,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_mining::TemporalPattern;
    use psm_trace::PowerTrace;

    fn p(i: u32) -> PropositionId {
        PropositionId::from_index(i)
    }

    fn chain(l: u32, r: u32, until: bool) -> ChainAssertion {
        ChainAssertion::single(TemporalAssertion::new(
            if until {
                TemporalPattern::Until
            } else {
                TemporalPattern::Next
            },
            p(l),
            p(r),
        ))
    }

    fn state(l: u32, r: u32, power: &[f64]) -> PowerState {
        let delta: PowerTrace = power.iter().copied().collect();
        PowerState::new(
            chain(l, r, power.len() > 1),
            SourceWindow {
                trace: 0,
                start: 0,
                stop: power.len() - 1,
            },
            PowerAttributes::from_window(&delta, 0, power.len() - 1),
        )
    }

    fn three_state_chain() -> Psm {
        let mut psm = Psm::new();
        let s0 = psm.add_state(state(0, 1, &[3.0, 3.1, 2.9]));
        let s1 = psm.add_state(state(1, 2, &[1.5, 1.6]));
        let s2 = psm.add_state(state(2, 3, &[3.0]));
        psm.add_transition(s0, s1, p(1));
        psm.add_transition(s1, s2, p(2));
        psm.add_initial(s0);
        psm
    }

    #[test]
    fn chain_shape_accessors() {
        let psm = three_state_chain();
        assert_eq!(psm.state_count(), 3);
        assert_eq!(psm.transition_count(), 2);
        assert_eq!(psm.initials(), &[(StateId(0), 1)]);
        assert!(psm.is_deterministic());
        assert_eq!(psm.successors(StateId(0)).count(), 1);
        assert_eq!(psm.successors(StateId(2)).count(), 0);
        assert!(psm.state(StateId(2)).is_next_state());
        assert!(!psm.state(StateId(0)).is_next_state());
    }

    #[test]
    fn output_function_evaluation() {
        let c = OutputFunction::Constant(2.5);
        assert_eq!(c.evaluate(100.0), 2.5);
        assert!(!c.is_regression());
        let r = OutputFunction::Regression {
            slope: 0.5,
            intercept: 1.0,
        };
        assert_eq!(r.evaluate(4.0), 3.0);
        assert!(r.is_regression());
    }

    #[test]
    fn merge_adjacent_as_sequence() {
        let mut psm = three_state_chain();
        psm.merge_states(StateId(0), StateId(1), true);
        assert_eq!(psm.state_count(), 2);
        let merged = psm.state(StateId(0));
        assert_eq!(merged.chains().len(), 1);
        assert_eq!(merged.chains()[0].len(), 2);
        assert_eq!(merged.chains()[0].entry_proposition(), p(0));
        assert_eq!(merged.chains()[0].exit_proposition(), p(2));
        assert_eq!(merged.attrs().n(), 5);
        // The inner s0→s1 transition disappears (Fig. 6a); the outgoing
        // transition of the absorbed state survives as s0→s1 (old s1→s2).
        assert_eq!(psm.transition_count(), 1);
        assert!(psm
            .transitions()
            .iter()
            .any(|t| t.from == StateId(0) && t.to == StateId(1) && t.guard == p(2)));
        assert_eq!(psm.initials(), &[(StateId(0), 1)]);
    }

    #[test]
    fn merge_remaps_initials_and_transitions() {
        let mut psm = three_state_chain();
        // Merge s2 into s0 (a join-style alternative merge).
        psm.merge_states(StateId(0), StateId(2), false);
        assert_eq!(psm.state_count(), 2);
        let merged = psm.state(StateId(0));
        assert_eq!(merged.chains().len(), 2);
        // s1→s2 now points at s0.
        assert!(psm
            .transitions()
            .iter()
            .any(|t| t.from == StateId(1) && t.to == StateId(0)));
    }

    #[test]
    fn merge_keep_after_remove_remaps_keep() {
        let mut psm = three_state_chain();
        psm.merge_states(StateId(2), StateId(0), false);
        assert_eq!(psm.state_count(), 2);
        // Old s1 is now s0; old s2 (merged with old s0) is s1.
        assert_eq!(psm.initials(), &[(StateId(1), 1)]);
        assert!(psm
            .transitions()
            .iter()
            .any(|t| t.from == StateId(1) && t.to == StateId(0)));
    }

    #[test]
    fn absorb_psm_is_disjoint_union() {
        let mut a = three_state_chain();
        let b = three_state_chain();
        a.absorb_psm(&b);
        assert_eq!(a.state_count(), 6);
        assert_eq!(a.transition_count(), 4);
        assert_eq!(a.initials().len(), 2);
        assert!(a
            .transitions()
            .iter()
            .any(|t| t.from == StateId(3) && t.to == StateId(4)));
        // Two distinct initial states → not deterministic as a whole.
        assert!(!a.is_deterministic());
    }

    #[test]
    fn nondeterminism_via_duplicate_guards() {
        let mut psm = three_state_chain();
        // Second outgoing transition from s0 with the same guard p1.
        psm.add_transition(StateId(0), StateId(2), p(1));
        assert!(!psm.is_deterministic());
    }

    #[test]
    fn duplicate_transitions_are_deduped() {
        let mut psm = three_state_chain();
        let before = psm.transition_count();
        psm.add_transition(StateId(0), StateId(1), p(1));
        assert_eq!(psm.transition_count(), before);
    }

    #[test]
    fn psm_round_trips_through_json() {
        use psm_persist::{JsonValue, Persist};
        let mut psm = three_state_chain();
        psm.state_mut(StateId(1))
            .set_output(OutputFunction::Regression {
                slope: 0.125,
                intercept: 1.75,
            });
        let text = psm.to_json().render();
        let back = Psm::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, psm);
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn psm_load_rejects_dangling_references() {
        use psm_persist::{JsonValue, Persist};
        let psm = three_state_chain();
        let text = psm.to_json().render();
        // Point a transition at a non-existent state.
        let bad = text.replace("\"to\":2", "\"to\":9");
        assert!(Psm::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
        // Duplicate initial entry.
        let bad = text.replace(
            "[{\"state\":0,\"count\":1}]",
            "[{\"state\":0,\"count\":1},{\"state\":0,\"count\":1}]",
        );
        assert!(Psm::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn join_folds_equal_chains_into_counts() {
        let mut psm = three_state_chain();
        psm.absorb_psm(&three_state_chain());
        // s3 carries the same chain as s0: its count folds into s0's.
        psm.merge_states(StateId(0), StateId(3), false);
        let merged = psm.state(StateId(0));
        assert_eq!(merged.chains(), &[chain(0, 1, true)]);
        assert_eq!(merged.counts(), &[2]);
        assert_eq!(merged.multiplicity(), 2);
        assert_eq!(merged.windows().len(), 2);
        // A distinct chain is appended after it, with its own count.
        psm.merge_states(StateId(0), StateId(2), false);
        let merged = psm.state(StateId(0));
        assert_eq!(merged.chains(), &[chain(0, 1, true), chain(2, 3, false)]);
        assert_eq!(merged.counts(), &[2, 1]);
        assert_eq!(merged.multiplicity(), 3);
        // Folding a state that already holds counts adds them up.
        let mut other = merged.clone();
        other.absorb(merged.clone(), false);
        assert_eq!(other.counts(), &[4, 2]);
    }

    #[test]
    fn legacy_chain_lists_fold_into_counts() {
        use psm_persist::{JsonValue, Persist};
        let mut joined = state(0, 1, &[3.0, 3.1]);
        joined.absorb(state(2, 3, &[3.0]), false);
        joined.absorb(state(0, 1, &[3.0, 2.9]), false);
        joined.absorb(state(0, 1, &[3.1, 3.0]), false);
        assert_eq!(joined.counts(), &[3, 1]);

        // The list of every copy a file written before counts held.
        let text = joined.to_json().render();
        let a = chain(0, 1, true).to_json().render();
        let b = chain(2, 3, false).to_json().render();
        let alternatives = format!(
            "\"alternatives\":[{{\"chain\":{a},\"count\":3}},{{\"chain\":{b},\"count\":1}}]"
        );
        assert!(text.contains(&alternatives), "{text}");
        let legacy = text.replace(&alternatives, &format!("\"chains\":[{a},{b},{a},{a}]"));
        let back = PowerState::from_json(&JsonValue::parse(&legacy).unwrap()).unwrap();
        assert_eq!(back, joined);
        assert_eq!(back.to_json().render(), text);

        // Counts are positive, chains distinct, and one key is read.
        for bad in [
            text.replace("\"count\":1}", "\"count\":0}"),
            text.replace(&b, &a),
            text.replace(&alternatives, &format!("{alternatives},\"chains\":[{a}]")),
            text.replace(&alternatives, "\"chains\":[]"),
        ] {
            assert!(
                PowerState::from_json(&JsonValue::parse(&bad).unwrap()).is_err(),
                "{bad}"
            );
        }
        let neither = text.replace(&format!("{alternatives},"), "");
        let err = PowerState::from_json(&JsonValue::parse(&neither).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("missing field \"alternatives\""),
            "{err}"
        );
    }

    #[test]
    fn chain_assertion_display() {
        let c = chain(0, 1, true);
        assert_eq!(c.to_string(), "p0 U p1");
        let seq = c.concat(&chain(1, 2, false));
        assert_eq!(seq.to_string(), "{p0 U p1; p1 X p2}");
    }
}
