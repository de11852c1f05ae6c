//! Functional traces: evaluations of PIs/POs over simulation instants.

use crate::bits::Bits;
use crate::signal::{Direction, SignalId, SignalSet};
use crate::TraceError;
use std::fmt;
use std::ops::Range;

/// A functional trace Φ = ⟨φ₁, …, φₙ⟩ (paper Def. 2): for every simulation
/// instant, the value of every primary input and output of the model.
///
/// Storage is one row-major buffer of `u64` words: each instant is a row
/// of [`SignalSet::words_per_cycle`] words, and each signal sits in its
/// row at the words [`SignalSet::word_range`] names, little-endian, with
/// the bits above its width kept at zero. Appending an instant copies
/// words; nothing is allocated per instant or per signal. [`cycle`]
/// borrows one row as a [`Row`], which is how the miner, the classifier
/// and the Hamming series read the trace.
///
/// The instant count is stored on its own, so an interface with no
/// signals still has a length.
///
/// [`cycle`]: FunctionalTrace::cycle
///
/// # Examples
///
/// ```
/// use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
///
/// let mut signals = SignalSet::new();
/// let en = signals.push("en", 1, Direction::Input)?;
/// let q = signals.push("q", 8, Direction::Output)?;
/// let mut trace = FunctionalTrace::new(signals);
/// trace.push_cycle(vec![Bits::from_bool(true), Bits::from_u64(0x10, 8)])?;
/// trace.push_cycle(vec![Bits::from_bool(false), Bits::from_u64(0x13, 8)])?;
///
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.cycle(0).words(en), [1]);
/// // 0x10 ^ 0x13 = 0x03 → two toggling output bits between instants 0 and 1.
/// assert_eq!(trace.cycle(0).bits(q).hamming_distance(&trace.cycle(1).bits(q))?, 2);
/// # Ok::<(), psm_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionalTrace {
    signals: SignalSet,
    len: usize,
    words: Vec<u64>,
}

/// One instant of a [`FunctionalTrace`], borrowed: the trace's signal set
/// and the row's words.
///
/// A `Row` is `Copy` and costs two pointers. [`words`](Row::words) reads a
/// signal in place; [`bits`](Row::bits) builds an owned [`Bits`] and is
/// meant for API edges (files, messages, tests), not for per-instant
/// loops.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    signals: &'a SignalSet,
    words: &'a [u64],
}

impl<'a> Row<'a> {
    /// The interface the row is laid out by.
    #[inline]
    pub fn signals(&self) -> &'a SignalSet {
        self.signals
    }

    /// The words of `signal`, least-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not belong to the row's interface.
    #[inline]
    pub fn words(&self, signal: SignalId) -> &'a [u64] {
        &self.words[self.signals.word_range(signal)]
    }

    /// Every word of the row, in declaration order.
    #[inline]
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }

    /// The value of `signal` as an owned [`Bits`].
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not belong to the row's interface.
    pub fn bits(&self, signal: SignalId) -> Bits {
        Bits::from_words(self.words(signal), self.signals.decl(signal).width())
    }

    /// Every value of the row as an owned [`Bits`], in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = Bits> + 'a {
        let row = *self;
        row.signals.iter().map(move |(id, _)| row.bits(id))
    }

    /// The row as one owned [`Bits`] per signal — the shape
    /// [`FunctionalTrace::push_cycle`] takes.
    pub fn to_vec(&self) -> Vec<Bits> {
        self.iter().collect()
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words && self.signals == other.signals
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FunctionalTrace {
    /// Creates an empty trace over the given interface.
    pub fn new(signals: SignalSet) -> Self {
        FunctionalTrace::with_capacity(signals, 0)
    }

    /// Creates an empty trace with room for `capacity` cycles.
    pub fn with_capacity(signals: SignalSet, capacity: usize) -> Self {
        let words = Vec::with_capacity(capacity * signals.words_per_cycle());
        FunctionalTrace {
            signals,
            len: 0,
            words,
        }
    }

    /// The PI/PO interface this trace samples.
    pub fn signals(&self) -> &SignalSet {
        &self.signals
    }

    /// Appends one simulation instant.
    ///
    /// `values` must contain exactly one [`Bits`] per declared signal, in
    /// declaration order, each with the declared width.
    ///
    /// # Errors
    ///
    /// * [`TraceError::CycleShapeMismatch`] when the count is wrong;
    /// * [`TraceError::SignalWidthMismatch`] when a value's width differs
    ///   from its declaration.
    pub fn push_cycle(&mut self, values: Vec<Bits>) -> Result<(), TraceError> {
        self.signals.check_cycle(&values)?;
        for value in &values {
            self.words.extend_from_slice(value.as_words());
        }
        self.len += 1;
        Ok(())
    }

    /// Appends one simulation instant given as a raw row of
    /// [`SignalSet::words_per_cycle`] words. Bits above each signal's
    /// width are cleared, as [`Bits::from_words`] does.
    ///
    /// # Errors
    ///
    /// [`TraceError::CycleShapeMismatch`] (counting words) when `row` has
    /// the wrong length.
    pub fn push_words(&mut self, row: &[u64]) -> Result<(), TraceError> {
        let wpc = self.signals.words_per_cycle();
        if row.len() != wpc {
            return Err(TraceError::CycleShapeMismatch {
                expected: wpc,
                actual: row.len(),
            });
        }
        self.words.extend_from_slice(row);
        self.len += 1;
        self.clear_unused_bits(self.len - 1);
        Ok(())
    }

    /// Appends `count` instants written in place: `fill` receives the new
    /// rows back to back, zeroed, [`SignalSet::words_per_cycle`] words
    /// each. Bits above each signal's width are cleared afterwards, as
    /// [`push_words`](FunctionalTrace::push_words) does.
    ///
    /// # Examples
    ///
    /// ```
    /// use psm_trace::{Direction, FunctionalTrace, SignalSet};
    ///
    /// let mut signals = SignalSet::new();
    /// let q = signals.push("q", 4, Direction::Output)?;
    /// let mut trace = FunctionalTrace::new(signals);
    /// trace.extend_rows_with(3, |rows| {
    ///     for (t, word) in rows.iter_mut().enumerate() {
    ///         *word = 0x10 + t as u64; // bit 4 is above the width
    ///     }
    /// });
    /// assert_eq!(trace.len(), 3);
    /// assert_eq!(trace.cycle(2).words(q), [2]);
    /// # Ok::<(), psm_trace::TraceError>(())
    /// ```
    pub fn extend_rows_with(&mut self, count: usize, fill: impl FnOnce(&mut [u64])) {
        let first = self.len;
        let start = self.words.len();
        self.words
            .resize(start + count * self.signals.words_per_cycle(), 0);
        fill(&mut self.words[start..]);
        self.len += count;
        self.clear_unused_bits(first);
    }

    /// Clears the bits above each signal's width in rows `first..`.
    fn clear_unused_bits(&mut self, first: usize) {
        let wpc = self.signals.words_per_cycle();
        for (word, mask) in self.signals.top_word_masks() {
            for row in first..self.len {
                self.words[row * wpc + word] &= mask;
            }
        }
    }

    /// Number of simulation instants recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no instant has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole buffer: [`len`](FunctionalTrace::len) rows of
    /// [`SignalSet::words_per_cycle`] words, in time order.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Instant `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    #[inline]
    pub fn cycle(&self, t: usize) -> Row<'_> {
        assert!(
            t < self.len,
            "instant {t} out of a {}-instant trace",
            self.len
        );
        let wpc = self.signals.words_per_cycle();
        Row {
            signals: &self.signals,
            words: &self.words[t * wpc..(t + 1) * wpc],
        }
    }

    /// Iterates over instants in time order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.len).map(|t| self.cycle(t))
    }

    /// Concatenation of all *input* values at instant `t` (declaration
    /// order, earlier declarations in lower bits).
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range or the interface has no inputs.
    pub fn input_word(&self, t: usize) -> Bits {
        self.direction_word(t, true)
    }

    /// Concatenation of all *output* values at instant `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range or the interface has no outputs.
    pub fn output_word(&self, t: usize) -> Bits {
        self.direction_word(t, false)
    }

    fn direction_word(&self, t: usize, inputs: bool) -> Bits {
        let ids = if inputs {
            self.signals.inputs()
        } else {
            self.signals.outputs()
        };
        assert!(
            !ids.is_empty(),
            "interface has no signals of that direction"
        );
        let row = self.cycle(t);
        let mut word = row.bits(ids[0]);
        for id in &ids[1..] {
            word = word.concat(&row.bits(*id));
        }
        word
    }

    /// Hamming distance of the primary-input values between consecutive
    /// instants `t-1` and `t`.
    ///
    /// This sequence (for t = 1..n) is the predictor used by the paper's §IV
    /// linear-regression calibration of data-dependent power states. By
    /// convention the distance at `t = 0` is 0 (no prior instant).
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn input_hamming(&self, t: usize) -> u32 {
        let row = self.cycle(t);
        if t == 0 {
            return 0;
        }
        InputSpans::new(&self.signals).distance(self.cycle(t - 1).words, row.words)
    }

    /// The full input-Hamming-distance series, one entry per instant.
    pub fn input_hamming_series(&self) -> Vec<u32> {
        let spans = InputSpans::new(&self.signals);
        let wpc = self.signals.words_per_cycle();
        let mut out = Vec::with_capacity(self.len);
        if self.len > 0 {
            out.push(0);
        }
        if wpc > 0 {
            let rows = self.words.chunks_exact(wpc);
            out.extend(
                rows.clone()
                    .zip(rows.skip(1))
                    .map(|(prev, row)| spans.distance(prev, row)),
            );
        } else {
            out.resize(self.len, 0);
        }
        out
    }

    /// Splits the trace into windows of at most `window` instants each
    /// (the last window may be shorter). Useful for turning one long
    /// testbench run into the paper's "set of functional traces".
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn split_windows(&self, window: usize) -> Vec<FunctionalTrace> {
        assert!(window > 0, "window must be positive");
        let wpc = self.signals.words_per_cycle();
        (0..self.len)
            .step_by(window)
            .map(|start| {
                let len = window.min(self.len - start);
                FunctionalTrace {
                    signals: self.signals.clone(),
                    len,
                    words: self.words[start * wpc..(start + len) * wpc].to_vec(),
                }
            })
            .collect()
    }
}

/// The input spans of one row layout, resolved once: the row words of
/// its primary inputs, merged into maximal contiguous spans, which is
/// what the input Hamming distance between two rows reads.
/// [`FunctionalTrace::input_hamming_series`] measures every pair of
/// consecutive rows of one trace; a row-by-row consumer resolves this
/// once per interface and calls [`distance`](InputSpans::distance) per
/// row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSpans(Vec<Range<usize>>);

impl InputSpans {
    /// The input spans of rows laid out by `signals`.
    pub fn new(signals: &SignalSet) -> InputSpans {
        let mut spans: Vec<Range<usize>> = Vec::new();
        let ranges = signals
            .iter()
            .filter(|(_, decl)| decl.direction() == Direction::Input)
            .map(|(id, _)| signals.word_range(id));
        for range in ranges {
            match spans.last_mut() {
                Some(last) if last.end == range.start => last.end = range.end,
                _ => spans.push(range),
            }
        }
        InputSpans(spans)
    }

    /// Number of input bits that differ between two rows of the layout.
    ///
    /// # Panics
    ///
    /// Panics if a row is shorter than the layout's input words reach.
    #[inline]
    pub fn distance(&self, prev: &[u64], row: &[u64]) -> u32 {
        self.0
            .iter()
            .map(|range| {
                prev[range.clone()]
                    .iter()
                    .zip(&row[range.clone()])
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum::<u32>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Direction;

    fn simple_trace() -> (FunctionalTrace, SignalId, SignalId) {
        let mut s = SignalSet::new();
        let a = s.push("a", 4, Direction::Input).unwrap();
        let b = s.push("b", 4, Direction::Output).unwrap();
        let mut t = FunctionalTrace::new(s);
        for (x, y) in [(0u64, 1u64), (3, 1), (15, 2)] {
            t.push_cycle(vec![Bits::from_u64(x, 4), Bits::from_u64(y, 4)])
                .unwrap();
        }
        (t, a, b)
    }

    #[test]
    fn push_and_read_back() {
        let (t, a, b) = simple_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.cycle(1).bits(a).to_u64().unwrap(), 3);
        assert_eq!(t.cycle(2).words(b), [2]);
        assert_eq!(t.cycle(0).as_words(), [0, 1]);
        assert_eq!(t.as_words(), [0, 1, 3, 1, 15, 2]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (mut t, _, _) = simple_trace();
        assert!(matches!(
            t.push_cycle(vec![Bits::zero(4)]),
            Err(TraceError::CycleShapeMismatch {
                expected: 2,
                actual: 1
            })
        ));
        assert!(matches!(
            t.push_words(&[0, 0, 0]),
            Err(TraceError::CycleShapeMismatch {
                expected: 2,
                actual: 3
            })
        ));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn width_mismatch_rejected() {
        let (mut t, _, _) = simple_trace();
        let r = t.push_cycle(vec![Bits::zero(5), Bits::zero(4)]);
        assert!(matches!(
            r,
            Err(TraceError::SignalWidthMismatch {
                expected: 4,
                actual: 5,
                ..
            })
        ));
        assert_eq!(t.as_words().len(), 6, "a rejected cycle writes nothing");
    }

    #[test]
    fn push_words_masks_bits_above_each_width() {
        let (mut t, a, b) = simple_trace();
        t.push_words(&[0xf5, u64::MAX]).unwrap();
        assert_eq!(t.cycle(3).bits(a), Bits::from_u64(5, 4));
        assert_eq!(t.cycle(3).bits(b), Bits::from_u64(15, 4));
    }

    #[test]
    fn zero_signal_interface_still_counts_instants() {
        let mut t = FunctionalTrace::new(SignalSet::new());
        t.push_cycle(vec![]).unwrap();
        t.push_words(&[]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.cycle(1).as_words().is_empty());
        assert_eq!(t.input_hamming_series(), vec![0, 0]);
        assert_eq!(t.split_windows(1).len(), 2);
    }

    #[test]
    fn input_hamming_series() {
        let (t, _, _) = simple_trace();
        // inputs: 0 → 3 (2 bits) → 15 (2 bits)
        assert_eq!(t.input_hamming_series(), vec![0, 2, 2]);
        assert_eq!(t.input_hamming(2), 2);
        let spans = InputSpans::new(t.signals());
        assert_eq!(
            spans.distance(t.cycle(0).as_words(), t.cycle(2).as_words()),
            4
        );
    }

    #[test]
    fn input_output_words() {
        let (t, _, _) = simple_trace();
        assert_eq!(t.input_word(1).to_u64().unwrap(), 3);
        assert_eq!(t.output_word(2).to_u64().unwrap(), 2);
        assert_eq!(t.input_word(0).width(), 4);
    }

    #[test]
    fn split_windows_covers_everything() {
        let (t, a, _) = simple_trace();
        let parts = t.split_windows(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[1].cycle(0).bits(a).to_u64().unwrap(), 15);
    }

    #[test]
    fn iter_visits_all_cycles() {
        let (t, _, _) = simple_trace();
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.iter().nth(1), Some(t.cycle(1)));
        assert_eq!(
            t.cycle(2).to_vec(),
            vec![Bits::from_u64(15, 4), Bits::from_u64(2, 4)]
        );
    }
}
