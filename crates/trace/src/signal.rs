//! Signal declarations: the PI/PO interface of a model.

use crate::{Bits, TraceError};
use std::fmt;
use std::ops::Range;

/// Direction of a primary signal as seen from the IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// A primary input (PI).
    Input,
    /// A primary output (PO).
    Output,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Input => f.write_str("input"),
            Direction::Output => f.write_str("output"),
        }
    }
}

/// Opaque, cheap handle identifying a signal within one [`SignalSet`].
///
/// IDs are dense indices assigned in declaration order; a signal's words
/// within a trace row are found through [`SignalSet::word_range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// The dense index of this signal in declaration order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Declaration of one primary signal: name, bit width and direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignalDecl {
    name: String,
    width: usize,
    direction: Direction,
}

impl SignalDecl {
    pub(crate) fn new(name: String, width: usize, direction: Direction) -> Self {
        SignalDecl {
            name,
            width,
            direction,
        }
    }

    /// Signal name (unique within its [`SignalSet`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Input or output.
    pub fn direction(&self) -> Direction {
        self.direction
    }
}

impl fmt::Display for SignalDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}:0] {}", self.direction, self.width - 1, self.name)
    }
}

/// The ordered set of primary inputs and outputs of a model.
///
/// This is the `V` of the paper's Def. 2: the variables over which atomic
/// propositions predicate. Declaration order is preserved and defines the
/// column order of a [`FunctionalTrace`](crate::FunctionalTrace).
///
/// The set also fixes the word layout of one trace row: each signal takes
/// `width.div_ceil(64)` little-endian `u64` words, in declaration order,
/// starting at the offset [`SignalSet::word_range`] reports.
///
/// # Examples
///
/// ```
/// use psm_trace::{Direction, SignalSet};
///
/// let mut set = SignalSet::new();
/// let clk_en = set.push("clk_en", 1, Direction::Input)?;
/// let data = set.push("data", 32, Direction::Output)?;
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.decl(clk_en).name(), "clk_en");
/// assert_eq!(set.by_name("data"), Some(data));
/// assert_eq!(set.input_width(), 1);
/// assert_eq!(set.output_width(), 32);
/// # Ok::<(), psm_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignalSet {
    decls: Vec<SignalDecl>,
    /// Words of each signal within a row, in declaration order.
    ranges: Vec<Range<usize>>,
}

impl SignalSet {
    /// Creates an empty signal set.
    pub fn new() -> Self {
        SignalSet::default()
    }

    /// Declares a signal and returns its handle.
    ///
    /// # Errors
    ///
    /// * [`TraceError::DuplicateSignal`] when `name` is already declared;
    /// * [`TraceError::ZeroWidth`] when `width` is zero.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        width: usize,
        direction: Direction,
    ) -> Result<SignalId, TraceError> {
        let name = name.into();
        if width == 0 {
            return Err(TraceError::ZeroWidth);
        }
        if self.decls.iter().any(|d| d.name == name) {
            return Err(TraceError::DuplicateSignal(name));
        }
        let start = self.words_per_cycle();
        self.ranges.push(start..start + width.div_ceil(64));
        self.decls.push(SignalDecl {
            name,
            width,
            direction,
        });
        Ok(SignalId(self.decls.len() - 1))
    }

    /// Checks that `values` holds one value per declared signal, in
    /// declaration order, each with the declared width.
    ///
    /// # Errors
    ///
    /// * [`TraceError::CycleShapeMismatch`] when the count is wrong;
    /// * [`TraceError::SignalWidthMismatch`] when a value's width differs
    ///   from its declaration.
    pub fn check_cycle<'a>(
        &self,
        values: impl IntoIterator<Item = &'a Bits>,
    ) -> Result<(), TraceError> {
        let mut count = 0;
        let mut width_error = None;
        for value in values {
            if let Some(decl) = self.decls.get(count) {
                if width_error.is_none() && decl.width != value.width() {
                    width_error = Some(TraceError::SignalWidthMismatch {
                        signal: decl.name.clone(),
                        expected: decl.width,
                        actual: value.width(),
                    });
                }
            }
            count += 1;
        }
        if count != self.decls.len() {
            return Err(TraceError::CycleShapeMismatch {
                expected: self.decls.len(),
                actual: count,
            });
        }
        width_error.map_or(Ok(()), Err)
    }

    /// Number of `u64` words one trace row of this interface occupies.
    #[inline]
    pub fn words_per_cycle(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// The words of signal `id` within a trace row.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    #[inline]
    pub fn word_range(&self, id: SignalId) -> Range<usize> {
        self.ranges[id.0].clone()
    }

    /// For every signal whose width does not fill its top word: that
    /// word's index within a row and the mask of the bits the width
    /// covers.
    pub(crate) fn top_word_masks(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.decls
            .iter()
            .zip(&self.ranges)
            .filter(|(d, _)| d.width % 64 != 0)
            .map(|(d, r)| (r.end - 1, (1u64 << (d.width % 64)) - 1))
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Returns `true` when no signal is declared.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Declaration of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn decl(&self, id: SignalId) -> &SignalDecl {
        &self.decls[id.0]
    }

    /// Looks a signal up by name.
    pub fn by_name(&self, name: &str) -> Option<SignalId> {
        self.decls.iter().position(|d| d.name == name).map(SignalId)
    }

    /// Iterates over `(id, declaration)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &SignalDecl)> {
        self.decls.iter().enumerate().map(|(i, d)| (SignalId(i), d))
    }

    /// IDs of all inputs, in declaration order.
    pub fn inputs(&self) -> Vec<SignalId> {
        self.of_direction(Direction::Input)
    }

    /// IDs of all outputs, in declaration order.
    pub fn outputs(&self) -> Vec<SignalId> {
        self.of_direction(Direction::Output)
    }

    fn of_direction(&self, dir: Direction) -> Vec<SignalId> {
        self.iter()
            .filter(|(_, d)| d.direction() == dir)
            .map(|(id, _)| id)
            .collect()
    }

    /// Total bit width of all inputs (paper Table I, column *PIs*).
    pub fn input_width(&self) -> usize {
        self.width_of(Direction::Input)
    }

    /// Total bit width of all outputs (paper Table I, column *POs*).
    pub fn output_width(&self) -> usize {
        self.width_of(Direction::Output)
    }

    fn width_of(&self, dir: Direction) -> usize {
        self.decls
            .iter()
            .filter(|d| d.direction == dir)
            .map(|d| d.width)
            .sum()
    }
}

impl<'a> IntoIterator for &'a SignalSet {
    type Item = (SignalId, &'a SignalDecl);
    type IntoIter = Box<dyn Iterator<Item = (SignalId, &'a SignalDecl)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_signals() -> (SignalSet, SignalId, SignalId, SignalId) {
        let mut s = SignalSet::new();
        let a = s.push("a", 1, Direction::Input).unwrap();
        let b = s.push("b", 8, Direction::Input).unwrap();
        let c = s.push("c", 16, Direction::Output).unwrap();
        (s, a, b, c)
    }

    #[test]
    fn declaration_order_is_preserved() {
        let (s, a, b, c) = three_signals();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        let names: Vec<&str> = s.iter().map(|(_, d)| d.name()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut s = SignalSet::new();
        s.push("x", 1, Direction::Input).unwrap();
        assert!(matches!(
            s.push("x", 2, Direction::Output),
            Err(TraceError::DuplicateSignal(_))
        ));
    }

    #[test]
    fn zero_width_rejected() {
        let mut s = SignalSet::new();
        assert!(matches!(
            s.push("x", 0, Direction::Input),
            Err(TraceError::ZeroWidth)
        ));
    }

    #[test]
    fn direction_partition_and_widths() {
        let (s, a, b, c) = three_signals();
        assert_eq!(s.inputs(), vec![a, b]);
        assert_eq!(s.outputs(), vec![c]);
        assert_eq!(s.input_width(), 9);
        assert_eq!(s.output_width(), 16);
    }

    #[test]
    fn word_layout_follows_declaration_order() {
        let mut s = SignalSet::new();
        let a = s.push("a", 1, Direction::Input).unwrap();
        let b = s.push("b", 130, Direction::Output).unwrap();
        let c = s.push("c", 64, Direction::Input).unwrap();
        assert_eq!(s.word_range(a), 0..1);
        assert_eq!(s.word_range(b), 1..4);
        assert_eq!(s.word_range(c), 4..5);
        assert_eq!(s.words_per_cycle(), 5);
        assert_eq!(s.top_word_masks().collect::<Vec<_>>(), [(0, 1), (3, 3)]);
        assert_eq!(SignalSet::new().words_per_cycle(), 0);
    }

    #[test]
    fn lookup_by_name() {
        let (s, _, b, _) = three_signals();
        assert_eq!(s.by_name("b"), Some(b));
        assert_eq!(s.by_name("nope"), None);
    }

    #[test]
    fn display_formats() {
        let (s, a, _, c) = three_signals();
        assert_eq!(s.decl(a).to_string(), "input [0:0] a");
        assert_eq!(s.decl(c).to_string(), "output [15:0] c");
        assert_eq!(a.to_string(), "s0");
    }
}
