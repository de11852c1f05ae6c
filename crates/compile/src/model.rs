//! The compiled model: flat, index-addressed tables lowered from a trained
//! `(PropositionTable, Psm, Hmm)` triple.

use std::error::Error;
use std::fmt;

use psm_core::{OutputFunction, Psm, StateId};
use psm_hmm::Hmm;
use psm_mining::{PropositionId, PropositionTable, TemporalPattern};

/// Failures while compiling or executing a compiled model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The PSM and the HMM disagree on the number of states, so the belief
    /// vector cannot index PSM states.
    StateSpaceMismatch {
        /// States in the PSM.
        psm_states: usize,
        /// States in the HMM.
        hmm_states: usize,
    },
    /// The model has no states at all; there is nothing to compile.
    EmptyModel,
    /// A decode request used an observation code outside the emission
    /// alphabet (mirrors `HmmError::UnknownSymbol`).
    UnknownSymbol {
        /// The offending code.
        symbol: usize,
        /// The alphabet size.
        known: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::StateSpaceMismatch {
                psm_states,
                hmm_states,
            } => write!(
                f,
                "PSM has {psm_states} states but HMM has {hmm_states}; the models are not a pair"
            ),
            CompileError::EmptyModel => write!(f, "cannot compile a model with zero states"),
            CompileError::UnknownSymbol { symbol, known } => {
                write!(
                    f,
                    "observation symbol {symbol} out of range ({known} known)"
                )
            }
        }
    }
}

impl Error for CompileError {}

/// A trained PSM+HMM lowered to flat tables for serving.
///
/// Every probability, guard, chain part and output coefficient of the source
/// model is re-laid-out into contiguous `Vec`s addressed by dense integer
/// ids — no boxed state objects, no hash lookups, no per-instant allocation.
/// The numeric tables hold exactly the same `f64` values the interpreter
/// reads (no reassociation, no renormalisation), which is why the compiled
/// forward pass is bit-identical to `psm_hmm::HmmSimulator`.
///
/// Construction: [`CompiledModel::compile`] (no observation dictionary, for
/// callers that already hold `PropositionId`s) or
/// [`CompiledModel::compile_with_dictionary`] (also interns the proposition
/// table rows into a sorted-slice dictionary so raw trace cycles can be
/// classified without the training-side hash map).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    // ---- HMM tables (transposed, values copied verbatim) ----
    /// Number of states.
    pub(crate) m: usize,
    /// Number of emission symbols.
    pub(crate) k: usize,
    /// Transposed transition matrix: `at[j*m + i] = A[i][j]` (column-major,
    /// so the forward inner product walks one contiguous column).
    pub(crate) at: Vec<f64>,
    /// Transposed emission matrix: `bt[s*m + j] = B[j][s]` (symbol-major).
    pub(crate) bt: Vec<f64>,
    /// Initial distribution π.
    pub(crate) pi: Vec<f64>,
    /// Resynchronisation fallback beliefs: row `s` (length `m`, at offset
    /// `s*m`) is `Hmm::emission_belief(s)`, or all zeros when that symbol
    /// has no normalisable emission column.
    pub(crate) emission: Vec<f64>,
    /// Whether `emission` row `s` is a valid distribution.
    pub(crate) emission_ok: Vec<bool>,
    // ---- derived log tables (never persisted; recomputed at load) ----
    /// `log_at[j*m + i] = ln(A[i][j])`, `-inf` for zero entries.
    pub(crate) log_at: Vec<f64>,
    /// `log_bt[s*m + j] = ln(B[j][s])`, `-inf` for zero entries.
    pub(crate) log_bt: Vec<f64>,
    /// `log_pi[i] = ln(π_i)`, `-inf` for zero entries.
    pub(crate) log_pi: Vec<f64>,
    // ---- PSM structure ----
    /// Width of the entry dictionary: one past the largest proposition id
    /// that opens any chain.
    pub(crate) props: usize,
    /// CSR offsets into the global chain id space: state `s` owns chains
    /// `chain_off[s]..chain_off[s+1]`, in the source enumeration order.
    pub(crate) chain_off: Vec<u32>,
    /// CSR offsets into the part arrays: chain `c` spans parts
    /// `part_off[c]..part_off[c+1]` (chains are never empty).
    pub(crate) part_off: Vec<u32>,
    /// Left proposition of each chain part (`p` in `p U q` / `p X q`).
    pub(crate) part_left: Vec<u32>,
    /// Right proposition of each chain part.
    pub(crate) part_right: Vec<u32>,
    /// `true` when the part's pattern is `Next` (`false` ⇔ `Until`; the
    /// temporal alphabet has exactly those two patterns).
    pub(crate) part_next: Vec<bool>,
    /// CSR offsets per observation code: symbol `o` opens the chains listed
    /// at `entry_off[o]..entry_off[o+1]` of `entry_state`/`entry_chain`.
    pub(crate) entry_off: Vec<u32>,
    /// Owning state of each entry-table slot, ascending per symbol — the
    /// resynchronisation scan order of the interpreter.
    pub(crate) entry_state: Vec<u32>,
    /// Global chain id of each entry-table slot, ascending within a state.
    pub(crate) entry_chain: Vec<u32>,
    /// CSR offsets: state `s` has outgoing transitions
    /// `trans_off[s]..trans_off[s+1]`, preserving source declaration order.
    pub(crate) trans_off: Vec<u32>,
    /// Target state of each transition.
    pub(crate) trans_to: Vec<u32>,
    /// Guard proposition of each transition.
    pub(crate) trans_guard: Vec<u32>,
    /// Output-function kind per state: 0 = constant, 1 = regression. Kept
    /// as an explicit discriminant — lowering a constant to a slope-0
    /// regression is not bit-safe (`0.0 * h + μ` rewrites `μ = -0.0` to
    /// `+0.0`), and the interpreter evaluates constants without arithmetic.
    pub(crate) out_kind: Vec<u8>,
    /// Regression slope per state (unused slots are 0).
    pub(crate) out_slope: Vec<f64>,
    /// Constant μ or regression intercept per state.
    pub(crate) out_offset: Vec<f64>,
    /// Mean power per state (diagnostic attribute).
    pub(crate) attr_mu: Vec<f64>,
    /// Power standard deviation per state.
    pub(crate) attr_sigma: Vec<f64>,
    /// Training-sample count per state.
    pub(crate) attr_n: Vec<u64>,
    /// Walker start state: first initial state, or state 0.
    pub(crate) initial_state: u32,
    /// Largest per-state chain count — the alternative-buffer capacity that
    /// makes the compiled resume allocation-free (derived, not persisted).
    pub(crate) max_chains: usize,
    // ---- observation dictionary (sorted-slice interning) ----
    /// Words per dictionary row (0 when compiled without a dictionary).
    pub(crate) row_words: usize,
    /// Flattened proposition bit-rows, lexicographically sorted, stride
    /// `row_words`.
    pub(crate) dict_rows: Vec<u64>,
    /// Observation code (`PropositionId` index) of each sorted row.
    pub(crate) dict_codes: Vec<u32>,
}

impl CompiledModel {
    /// Compiles a PSM/HMM pair without an observation dictionary. Suitable
    /// when observations are already `PropositionId`s (e.g. replayed
    /// proposition traces); [`CompiledModel::classify_row`] will return
    /// `None` for every cycle.
    ///
    /// # Errors
    ///
    /// [`CompileError::StateSpaceMismatch`] when the PSM and HMM disagree on
    /// the state count, [`CompileError::EmptyModel`] for zero-state models.
    pub fn compile(psm: &Psm, hmm: &Hmm) -> Result<Self, CompileError> {
        Self::build(None, psm, hmm)
    }

    /// Compiles a full trained triple, interning the proposition table into
    /// a sorted-slice dictionary so raw cycles can be classified to dense
    /// observation codes at serve time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledModel::compile`].
    pub fn compile_with_dictionary(
        table: &PropositionTable,
        psm: &Psm,
        hmm: &Hmm,
    ) -> Result<Self, CompileError> {
        Self::build(Some(table), psm, hmm)
    }

    fn build(table: Option<&PropositionTable>, psm: &Psm, hmm: &Hmm) -> Result<Self, CompileError> {
        let m = psm.state_count();
        if m != hmm.num_states() {
            return Err(CompileError::StateSpaceMismatch {
                psm_states: m,
                hmm_states: hmm.num_states(),
            });
        }
        if m == 0 {
            return Err(CompileError::EmptyModel);
        }
        let k = hmm.num_symbols();

        // HMM tables, transposed so the forward inner product walks one
        // contiguous column; the values are the interpreter's, bit for bit.
        let a = hmm.a();
        let b = hmm.b();
        let mut at = vec![0.0f64; m * m];
        for (i, row) in a.iter().enumerate() {
            for (j, &aij) in row.iter().enumerate() {
                at[j * m + i] = aij;
            }
        }
        let mut bt = vec![0.0f64; k * m];
        for (j, row) in b.iter().enumerate() {
            for (s, &bjs) in row.iter().enumerate() {
                bt[s * m + j] = bjs;
            }
        }
        let pi = hmm.pi().to_vec();

        // Resync fallback beliefs, computed by the interpreter's own
        // emission_belief (same sum order, same division).
        let mut emission = vec![0.0f64; k * m];
        let mut emission_ok = vec![false; k];
        for s in 0..k {
            if let Some(alpha) = hmm.emission_belief(s) {
                emission[s * m..(s + 1) * m].copy_from_slice(&alpha);
                emission_ok[s] = true;
            }
        }

        // PSM structure, flattened in source enumeration order (states
        // ascending, chains in declaration order) so every tie-break of the
        // interpreted walker is reproduced.
        let mut chain_off: Vec<u32> = Vec::with_capacity(m + 1);
        chain_off.push(0);
        let mut part_off: Vec<u32> = vec![0];
        let mut part_left: Vec<u32> = Vec::new();
        let mut part_right: Vec<u32> = Vec::new();
        let mut part_next: Vec<bool> = Vec::new();
        let mut chain_entry: Vec<u32> = Vec::new();
        let mut chain_owner: Vec<u32> = Vec::new();
        let mut out_kind: Vec<u8> = Vec::with_capacity(m);
        let mut out_slope: Vec<f64> = Vec::with_capacity(m);
        let mut out_offset: Vec<f64> = Vec::with_capacity(m);
        let mut attr_mu: Vec<f64> = Vec::with_capacity(m);
        let mut attr_sigma: Vec<f64> = Vec::with_capacity(m);
        let mut attr_n: Vec<u64> = Vec::with_capacity(m);
        for (id, state) in psm.states() {
            for chain in state.chains() {
                chain_entry.push(chain.entry_proposition().index() as u32);
                chain_owner.push(id.index() as u32);
                for part in chain.parts() {
                    part_left.push(part.left().index() as u32);
                    part_right.push(part.right().index() as u32);
                    part_next.push(part.pattern() == TemporalPattern::Next);
                }
                part_off.push(part_left.len() as u32);
            }
            chain_off.push(chain_entry.len() as u32);
            match state.output() {
                OutputFunction::Constant(mu) => {
                    out_kind.push(0);
                    out_slope.push(0.0);
                    out_offset.push(mu);
                }
                OutputFunction::Regression { slope, intercept } => {
                    out_kind.push(1);
                    out_slope.push(slope);
                    out_offset.push(intercept);
                }
            }
            let attrs = state.attrs();
            attr_mu.push(attrs.mu());
            attr_sigma.push(attrs.sigma());
            attr_n.push(attrs.n());
        }

        // Per-symbol entry dictionary. Bucketing the global (already
        // state-ascending, chain-ascending) chain sequence keeps each
        // symbol's slot order identical to the interpreter's resync scan.
        let props = chain_entry
            .iter()
            .map(|&p| p as usize + 1)
            .max()
            .unwrap_or(0);
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); props];
        for (c, &p) in chain_entry.iter().enumerate() {
            buckets[p as usize].push((chain_owner[c], c as u32));
        }
        let mut entry_off: Vec<u32> = Vec::with_capacity(props + 1);
        entry_off.push(0);
        let mut entry_state: Vec<u32> = Vec::with_capacity(chain_entry.len());
        let mut entry_chain: Vec<u32> = Vec::with_capacity(chain_entry.len());
        for bucket in &buckets {
            for &(s, c) in bucket {
                entry_state.push(s);
                entry_chain.push(c);
            }
            entry_off.push(entry_state.len() as u32);
        }

        // Transitions grouped by source state; `successors` filters the
        // global declaration-ordered vector, so relative order per source
        // is preserved and best-exit ties break exactly as interpreted.
        let mut trans_off: Vec<u32> = Vec::with_capacity(m + 1);
        trans_off.push(0);
        let mut trans_to: Vec<u32> = Vec::new();
        let mut trans_guard: Vec<u32> = Vec::new();
        for s in 0..m {
            for t in psm.successors(StateId::from_index(s)) {
                trans_to.push(t.to.index() as u32);
                trans_guard.push(t.guard.index() as u32);
            }
            trans_off.push(trans_to.len() as u32);
        }

        let initial_state = psm.initials().first().map_or(0, |(s, _)| s.index()) as u32;

        // Sorted-slice observation dictionary: proposition bit-rows in
        // lexicographic order, looked up by binary search. Exact-match
        // lookup over distinct interned rows is equivalent to the training
        // hash map.
        let (row_words, dict_rows, dict_codes) = match table {
            Some(t) => {
                let w = t.vocabulary().len().div_ceil(64).max(1);
                let mut order: Vec<u32> = (0..t.len() as u32).collect();
                order.sort_by(|&x, &y| {
                    t.get(PropositionId::from_index(x))
                        .row()
                        .cmp(t.get(PropositionId::from_index(y)).row())
                });
                let mut rows: Vec<u64> = Vec::with_capacity(t.len() * w);
                for &c in &order {
                    rows.extend_from_slice(t.get(PropositionId::from_index(c)).row());
                }
                (w, rows, order)
            }
            None => (0, Vec::new(), Vec::new()),
        };

        let (log_at, log_bt, log_pi) = derive_logs(&at, &bt, &pi);
        let max_chains = (0..m)
            .map(|s| (chain_off[s + 1] - chain_off[s]) as usize)
            .max()
            .unwrap_or(0);

        Ok(CompiledModel {
            m,
            k,
            at,
            bt,
            pi,
            emission,
            emission_ok,
            log_at,
            log_bt,
            log_pi,
            props,
            chain_off,
            part_off,
            part_left,
            part_right,
            part_next,
            entry_off,
            entry_state,
            entry_chain,
            trans_off,
            trans_to,
            trans_guard,
            out_kind,
            out_slope,
            out_offset,
            attr_mu,
            attr_sigma,
            attr_n,
            initial_state,
            max_chains,
            row_words,
            dict_rows,
            dict_codes,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.m
    }

    /// Number of emission symbols.
    pub fn num_symbols(&self) -> usize {
        self.k
    }

    /// Width of the chain-entry dictionary (one past the largest
    /// proposition id that opens a chain).
    pub fn prop_count(&self) -> usize {
        self.props
    }

    /// Number of interned observation rows in the dictionary (0 when
    /// compiled without one).
    pub fn dictionary_len(&self) -> usize {
        self.dict_codes.len()
    }

    /// The walker's start state index.
    pub fn initial_state(&self) -> usize {
        self.initial_state as usize
    }

    /// Mean power attribute of a state.
    pub fn state_mu(&self, state: usize) -> f64 {
        self.attr_mu[state]
    }

    /// Power standard deviation attribute of a state.
    pub fn state_sigma(&self, state: usize) -> f64 {
        self.attr_sigma[state]
    }

    /// Training-sample count attribute of a state.
    pub fn state_samples(&self, state: usize) -> u64 {
        self.attr_n[state]
    }

    /// Total bytes held by the compiled tables (diagnostic; excludes the
    /// struct header).
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.at.len() + self.bt.len() + self.pi.len() + self.emission.len()) * size_of::<f64>()
            + (self.log_at.len() + self.log_bt.len() + self.log_pi.len()) * size_of::<f64>()
            + (self.out_slope.len() + self.out_offset.len()) * size_of::<f64>()
            + (self.attr_mu.len() + self.attr_sigma.len()) * size_of::<f64>()
            + self.attr_n.len() * size_of::<u64>()
            + self.dict_rows.len() * size_of::<u64>()
            + (self.chain_off.len()
                + self.part_off.len()
                + self.part_left.len()
                + self.part_right.len()
                + self.entry_off.len()
                + self.entry_state.len()
                + self.entry_chain.len()
                + self.trans_off.len()
                + self.trans_to.len()
                + self.trans_guard.len()
                + self.dict_codes.len())
                * size_of::<u32>()
            + self.part_next.len()
            + self.emission_ok.len()
            + self.out_kind.len()
    }

    /// Looks up a proposition bit-row in the compiled dictionary, returning
    /// its dense observation code. `None` for unseen rows, width mismatches,
    /// or models compiled without a dictionary — exactly the cases where the
    /// training-side table's `classify` also fails.
    pub fn classify_row(&self, row: &[u64]) -> Option<PropositionId> {
        if self.row_words == 0 || row.len() != self.row_words {
            return None;
        }
        let w = self.row_words;
        let mut lo = 0usize;
        let mut hi = self.dict_codes.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.dict_rows[mid * w..(mid + 1) * w].cmp(row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return Some(PropositionId::from_index(self.dict_codes[mid]));
                }
            }
        }
        None
    }

    /// Most likely hidden-state sequence under the compiled model —
    /// `Hmm::viterbi` over the precomputed log tables. Each log entry is
    /// produced by the same single `ln` the interpreter applies, so scores,
    /// ties and paths are bit-identical.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownSymbol`] for out-of-range observation codes.
    pub fn decode(&self, observations: &[usize]) -> Result<Option<Vec<usize>>, CompileError> {
        if observations.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let m = self.m;
        for &o in observations {
            if o >= self.k {
                return Err(CompileError::UnknownSymbol {
                    symbol: o,
                    known: self.k,
                });
            }
        }
        let mut delta: Vec<f64> = (0..m)
            .map(|i| self.log_pi[i] + self.log_bt[observations[0] * m + i])
            .collect();
        let mut next = vec![f64::NEG_INFINITY; m];
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(observations.len());
        for &o in &observations[1..] {
            let mut arg = vec![0usize; m];
            let log_b_col = &self.log_bt[o * m..(o + 1) * m];
            for j in 0..m {
                let col = &self.log_at[j * m..(j + 1) * m];
                let mut best = f64::NEG_INFINITY;
                for i in 0..m {
                    let cand = delta[i] + col[i];
                    if cand > best {
                        best = cand;
                        arg[j] = i;
                    }
                }
                next[j] = best + log_b_col[j];
            }
            back.push(arg);
            std::mem::swap(&mut delta, &mut next);
        }
        let (mut best, score) = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .expect("m > 0 by construction");
        if score == f64::NEG_INFINITY {
            return Ok(None);
        }
        let mut path = vec![best; observations.len()];
        for (t, arg) in back.iter().enumerate().rev() {
            best = arg[best];
            path[t] = best;
        }
        Ok(Some(path))
    }
}

/// Log-space tables derived from the linear ones: the identical single-`ln`
/// transform `Hmm::viterbi` applies per element (zero ↦ `-inf`), hoisted to
/// compile time. Derived, never persisted — reloading a v3 artifact
/// recomputes them from the linear tables, so a serialised model cannot
/// smuggle in divergent log values.
pub(crate) fn derive_logs(at: &[f64], bt: &[f64], pi: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let log = |x: &f64| if *x > 0.0 { x.ln() } else { f64::NEG_INFINITY };
    (
        at.iter().map(log).collect(),
        bt.iter().map(log).collect(),
        pi.iter().map(log).collect(),
    )
}
