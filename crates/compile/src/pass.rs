//! The compiled forward pass: the assertion-driven walker of
//! `psm_hmm::HmmSimulator::run` executed over the flat tables of a
//! [`CompiledModel`], with every per-instant allocation hoisted into a
//! reusable [`CompiledForwardState`].

use psm_hmm::HmmOutcome;
use psm_mining::PropositionId;
use psm_trace::PowerTrace;

use crate::model::CompiledModel;

/// One live alternative chain: global chain id, global part index, and
/// whether a `next` part already consumed its single left-instant.
#[derive(Debug, Clone, Copy)]
struct CompiledAlt {
    chain: u32,
    part: u32,
    next_consumed: bool,
}

/// Resumable state of a compiled estimation run: the filtered belief,
/// the chain cursor, the holder state and the wrong/unknown counters.
///
/// All buffers (belief, filter scratch, the two alternative sets) are
/// allocated once by [`CompiledModel::begin`] with capacity for the widest
/// state, so [`CompiledModel::step`] performs **zero allocations** (the
/// caller-owned output trace is the only growing buffer).
#[derive(Debug, Clone)]
pub struct CompiledForwardState {
    pub(crate) belief: Vec<f64>,
    pub(crate) scratch: Vec<f64>,
    /// Live alternatives of the current cursor; meaningful only when
    /// `has_cursor`.
    alts: Vec<CompiledAlt>,
    /// Double buffer the per-instant step writes surviving alternatives
    /// into before swapping.
    next_alts: Vec<CompiledAlt>,
    has_cursor: bool,
    /// Cursor state index; meaningful only when `has_cursor`.
    cur_state: u32,
    last_state: u32,
    wrong: usize,
    unknown: usize,
    instants: usize,
}

impl CompiledForwardState {
    /// Wrong-state predictions accumulated over every instant so far.
    pub fn wrong_state_predictions(&self) -> usize {
        self.wrong
    }

    /// Unknown instants accumulated over every instant so far.
    pub fn unknown_instants(&self) -> usize {
        self.unknown
    }

    /// Total instants fed through this state so far.
    pub fn instants(&self) -> usize {
        self.instants
    }

    /// Packages `estimate` with this state's counters.
    pub(crate) fn outcome(&self, estimate: PowerTrace) -> HmmOutcome {
        HmmOutcome {
            estimate,
            wrong_state_predictions: self.wrong,
            unknown_instants: self.unknown,
        }
    }
}

impl CompiledModel {
    /// A fresh [`CompiledForwardState`] positioned before the first
    /// instant — uniform belief, no cursor, the initial state as holder —
    /// with every scratch buffer pre-sized so subsequent
    /// [`step`](CompiledModel::step) calls never allocate.
    pub fn begin(&self) -> CompiledForwardState {
        let m = self.filter.m;
        CompiledForwardState {
            belief: vec![1.0 / m as f64; m],
            scratch: vec![0.0; m],
            alts: Vec::with_capacity(self.entries.max_chains),
            next_alts: Vec::with_capacity(self.entries.max_chains),
            has_cursor: false,
            cur_state: 0,
            last_state: self.initial_state,
            wrong: 0,
            unknown: 0,
            instants: 0,
        }
    }

    /// One-shot convenience: begin, one [`step`](Self::step) per instant,
    /// package an [`HmmOutcome`] — the compiled twin of
    /// `HmmSimulator::run`. Feeding the instants to `step` in chunks
    /// through one state is bit-identical to this.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn run(&self, observations: &[Option<PropositionId>], input_hamming: &[u32]) -> HmmOutcome {
        assert_eq!(
            observations.len(),
            input_hamming.len(),
            "observations and hamming series must align"
        );
        let mut state = self.begin();
        let estimate = observations
            .iter()
            .zip(input_hamming)
            .map(|(&obs, &hamming)| self.step(&mut state, obs, hamming))
            .collect();
        state.outcome(estimate)
    }

    /// Advances `state` by one instant, observed as `obs` (`None`: unknown
    /// behaviour) with input Hamming distance `input_hamming` from the
    /// previous instant, and returns that instant's power estimate.
    ///
    /// This is the whole forward pass; [`run`](Self::run) and the row
    /// estimator are loops over it.
    #[inline]
    pub fn step(
        &self,
        state: &mut CompiledForwardState,
        obs: Option<PropositionId>,
        input_hamming: u32,
    ) -> f64 {
        match obs {
            None => {
                state.unknown += 1;
                state.has_cursor = false;
            }
            Some(o) => {
                // Belief update: the filter step, with the emission
                // fallback copied (not reallocated) when the
                // transition-constrained update collapses.
                self.filter
                    .update(&mut state.belief, o.index(), &mut state.scratch);

                let code = o.index() as u32;
                if state.has_cursor {
                    match self.advance_step(state, code) {
                        StepOutcome::Stay => {
                            std::mem::swap(&mut state.alts, &mut state.next_alts);
                            state.last_state = state.cur_state;
                        }
                        StepOutcome::Enter(next) => {
                            self.fill_entry_alts(next, code, &mut state.alts);
                            state.cur_state = next;
                            state.last_state = next;
                        }
                        StepOutcome::Fail => match self.resync_state(code, &state.belief) {
                            Some(next) => {
                                state.wrong += 1;
                                self.fill_entry_alts(next, code, &mut state.alts);
                                state.cur_state = next;
                                state.last_state = next;
                            }
                            None => {
                                state.unknown += 1;
                                state.has_cursor = false;
                            }
                        },
                    }
                } else if let Some(next) = self.resync_state(code, &state.belief) {
                    self.fill_entry_alts(next, code, &mut state.alts);
                    state.cur_state = next;
                    state.last_state = next;
                    state.has_cursor = true;
                } else {
                    state.unknown += 1;
                }
            }
        }
        state.instants += 1;
        let s = state.last_state as usize;
        if self.out_kind[s] == 0 {
            self.out_offset[s]
        } else {
            self.out_slope[s] * input_hamming as f64 + self.out_offset[s]
        }
    }

    /// Advances the live alternatives of `state.cur_state` on observation
    /// `o`, writing survivors into `state.next_alts`. Mirrors
    /// the reference walker's `advance` including its tie resolution: staying beats
    /// exiting unless the belief strictly prefers the exit target.
    fn advance_step(&self, state: &mut CompiledForwardState, o: u32) -> StepOutcome {
        state.next_alts.clear();
        let mut wants_exit = false;
        for alt in &state.alts {
            let part = alt.part as usize;
            // An `until` part repeats on its left proposition…
            if o == self.part_left[part] && !alt.next_consumed && !self.part_next[part] {
                state.next_alts.push(*alt);
                continue;
            }
            // …and cascades or exits on its right one.
            if o == self.part_right[part] {
                if alt.part + 1 < self.part_off[alt.chain as usize + 1] {
                    state.next_alts.push(CompiledAlt {
                        chain: alt.chain,
                        part: alt.part + 1,
                        next_consumed: self.part_next[part + 1],
                    });
                } else {
                    wants_exit = true;
                }
            }
        }
        let exit_target = if wants_exit {
            self.best_exit_state(state.cur_state, o, &state.belief)
        } else {
            None
        };
        match (state.next_alts.is_empty(), exit_target) {
            (false, None) => StepOutcome::Stay,
            (true, Some(next)) => StepOutcome::Enter(next),
            (false, Some(next)) => {
                if state.belief[next as usize] > state.belief[state.cur_state as usize] {
                    StepOutcome::Enter(next)
                } else {
                    StepOutcome::Stay
                }
            }
            (true, None) => StepOutcome::Fail,
        }
    }

    /// Whether `state` has at least one chain entered by `o` — the
    /// compiled `enter(state, o).is_some()`.
    fn state_accepts(&self, state: u32, o: u32) -> bool {
        let lo = self.chain_off[state as usize] as usize;
        let hi = self.chain_off[state as usize + 1] as usize;
        (lo..hi).any(|c| self.part_left[self.part_off[c] as usize] == o)
    }

    /// Rebuilds the alternative set `enter(state, o)` produces, into a
    /// pre-sized buffer: one alternative per chain whose entry proposition
    /// is `o`, in chain order.
    fn fill_entry_alts(&self, state: u32, o: u32, buf: &mut Vec<CompiledAlt>) {
        buf.clear();
        let lo = self.chain_off[state as usize] as usize;
        let hi = self.chain_off[state as usize + 1] as usize;
        for c in lo..hi {
            let first = self.part_off[c] as usize;
            if self.part_left[first] == o {
                buf.push(CompiledAlt {
                    chain: c as u32,
                    part: first as u32,
                    next_consumed: self.part_next[first],
                });
            }
        }
    }

    /// The belief-preferred exit of `from` through a transition guarded by
    /// `o`. Transition order matches the source declaration order, and ties
    /// break on strict `>`, exactly as the reference walker's `best_exit`.
    fn best_exit_state(&self, from: u32, o: u32, belief: &[f64]) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        let lo = self.trans_off[from as usize] as usize;
        let hi = self.trans_off[from as usize + 1] as usize;
        for t in lo..hi {
            if self.trans_guard[t] != o {
                continue;
            }
            let to = self.trans_to[t];
            if !self.state_accepts(to, o) {
                continue;
            }
            let score = belief[to as usize];
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, to));
            }
        }
        best.map(|(_, s)| s)
    }

    /// The best state accepting `o` as an entry, ranked by belief with
    /// strict-`>` ties — the compiled `resync` of the reference walker. Scans the
    /// per-symbol entry table, whose slots are state-ascending like the
    /// interpreter's full state scan, one per state.
    fn resync_state(&self, o: u32, belief: &[f64]) -> Option<u32> {
        let entries = &self.entries;
        if o as usize >= entries.props {
            return None;
        }
        let lo = entries.off[o as usize] as usize;
        let hi = entries.off[o as usize + 1] as usize;
        let mut best: Option<(f64, u32)> = None;
        for &s in &entries.state[lo..hi] {
            let score = belief[s as usize];
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, s));
            }
        }
        best.map(|(_, s)| s)
    }
}

/// Resolution of one cursor step.
enum StepOutcome {
    /// At least one alternative survives in the current state.
    Stay,
    /// Exit into (or resynchronise onto) the given state.
    Enter(u32),
    /// No alternative accepts the observation.
    Fail,
}
