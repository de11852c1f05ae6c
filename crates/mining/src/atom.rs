//! Atomic propositions: the indivisible predicates of the mined logic.

use crate::ClassifyError;
use psm_trace::{Bits, Row, SignalId, SignalSet};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// Relational operator between two signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// `left = right`
    Eq,
    /// `left < right` (unsigned)
    Lt,
    /// `left > right` (unsigned)
    Gt,
}

impl Comparison {
    /// All comparison operators, in a stable order.
    pub const ALL: [Comparison; 3] = [Comparison::Eq, Comparison::Lt, Comparison::Gt];

    /// Applies the operator to an [`Ordering`].
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            Comparison::Eq => ord == Ordering::Equal,
            Comparison::Lt => ord == Ordering::Less,
            Comparison::Gt => ord == Ordering::Greater,
        }
    }

    /// Operator glyph for rendering.
    pub fn symbol(self) -> &'static str {
        match self {
            Comparison::Eq => "=",
            Comparison::Lt => "<",
            Comparison::Gt => ">",
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An atomic proposition over the PIs/POs of a model (paper Def. 1): a
/// logic formula without connectives.
///
/// Two template families are mined, following ref.\[9\]:
///
/// * `v = c` — a signal equals one of its frequently observed constants
///   (covers boolean controls like `start = true`);
/// * `v ∘ w` — a relation between two equal-width signals
///   (e.g. the paper's `v3 > v4`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomicProposition {
    /// `signal = value`
    VarEqConst {
        /// The observed signal.
        signal: SignalId,
        /// The constant it is compared against.
        value: Bits,
    },
    /// `left ∘ right` for two equal-width signals.
    VarCmpVar {
        /// Left-hand signal.
        left: SignalId,
        /// Relational operator.
        cmp: Comparison,
        /// Right-hand signal.
        right: SignalId,
    },
}

impl AtomicProposition {
    /// Evaluates the atom over one functional-trace cycle, as owned
    /// [`Bits`]: `v = c` by `Bits` equality, `v ∘ w` by the numeric order
    /// [`Bits::compare`] gives. This is the per-row reference; whole-trace
    /// walks test the row's words in place through a
    /// [`RowClassifier`](crate::RowClassifier).
    ///
    /// A `v = c` atom whose constant has a different width from `v` never
    /// holds, as `Bits` equality would have it.
    ///
    /// # Panics
    ///
    /// Panics if a referenced signal is out of range for the row's
    /// interface, or if a `VarCmpVar` was constructed over signals of
    /// different widths (the miner never does).
    pub fn eval(&self, cycle: Row<'_>) -> bool {
        match self {
            AtomicProposition::VarEqConst { signal, value } => cycle.bits(*signal) == *value,
            AtomicProposition::VarCmpVar { left, cmp, right } => cmp.test(
                cycle
                    .bits(*left)
                    .compare(&cycle.bits(*right))
                    .expect("a relational atom compares equal-width signals"),
            ),
        }
    }

    /// Resolves the atom against the row layout of `signals`, or says why
    /// that layout cannot hold it, calling its signals what `name` says.
    pub(crate) fn resolve(
        &self,
        signals: &SignalSet,
        name: impl Fn(SignalId) -> String,
    ) -> Result<RowTest, ClassifyError> {
        let declared = |id: SignalId| {
            (id.index() < signals.len())
                .then(|| signals.decl(id).width())
                .ok_or_else(|| ClassifyError::MissingSignal {
                    signal: name(id),
                    index: id.index(),
                    declared: signals.len(),
                })
        };
        match self {
            AtomicProposition::VarEqConst { signal, value } => {
                let width = declared(*signal)?;
                let range = signals.word_range(*signal);
                Ok(if width != value.width() {
                    RowTest::Never
                } else if range.len() == 1 {
                    RowTest::Word(range.start, value.as_words()[0])
                } else {
                    RowTest::Words(range, value.as_words().into())
                })
            }
            AtomicProposition::VarCmpVar { left, cmp, right } => {
                let (left_width, right_width) = (declared(*left)?, declared(*right)?);
                if left_width != right_width {
                    return Err(ClassifyError::WidthMismatch {
                        left: name(*left),
                        left_width,
                        right: name(*right),
                        right_width,
                    });
                }
                Ok(RowTest::Cmp(
                    signals.word_range(*left),
                    *cmp,
                    signals.word_range(*right),
                ))
            }
        }
    }

    /// Renders the atom with signal names resolved through `signals`.
    ///
    /// Boolean `v = c` atoms render as `v=true` / `v=false`, matching the
    /// paper's Fig. 3 notation.
    pub fn render(&self, signals: &SignalSet) -> String {
        match self {
            AtomicProposition::VarEqConst { signal, value } => {
                let name = signals.decl(*signal).name();
                if value.width() == 1 {
                    format!("{name}={}", if value.bit(0) { "true" } else { "false" })
                } else {
                    format!("{name}={value}")
                }
            }
            AtomicProposition::VarCmpVar { left, cmp, right } => {
                format!(
                    "{}{}{}",
                    signals.decl(*left).name(),
                    cmp,
                    signals.decl(*right).name()
                )
            }
        }
    }
}

/// An atom resolved against one row layout: the words it reads. A trace
/// walk resolves its atoms once and then tests every row with a few word
/// compares.
#[derive(Debug, Clone)]
pub(crate) enum RowTest {
    /// `v = c` where `c` has another width than `v`: never holds.
    Never,
    /// `v = c` for a one-word `v`: the word at this index equals `c`.
    Word(usize, u64),
    /// `v = c` for a wider `v`: these words equal `c`'s.
    Words(Range<usize>, Box<[u64]>),
    /// `v ∘ w` over two equal-width word ranges.
    Cmp(Range<usize>, Comparison, Range<usize>),
}

impl RowTest {
    /// Whether the atom holds on the row `words`.
    #[inline]
    pub(crate) fn holds(&self, words: &[u64]) -> bool {
        match self {
            RowTest::Never => false,
            RowTest::Word(at, value) => words[*at] == *value,
            RowTest::Words(range, value) => words[range.clone()] == **value,
            RowTest::Cmp(left, cmp, right) => {
                cmp.test(compare_words(&words[left.clone()], &words[right.clone()]))
            }
        }
    }

    /// The row words [`holds`](Self::holds) reads, possibly repeated.
    pub(crate) fn reads(&self) -> impl Iterator<Item = usize> {
        let (first, second) = match self {
            RowTest::Never => (0..0, 0..0),
            RowTest::Word(at, _) => (*at..*at + 1, 0..0),
            RowTest::Words(range, _) => (range.clone(), 0..0),
            RowTest::Cmp(left, _, right) => (left.clone(), right.clone()),
        };
        first.chain(second)
    }
}

/// Numeric order of two equal-width values given as little-endian words,
/// as [`Bits::compare`] orders them.
pub(crate) fn compare_words(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

impl psm_persist::Persist for Comparison {
    fn to_json(&self) -> psm_persist::JsonValue {
        psm_persist::JsonValue::from(match self {
            Comparison::Eq => "eq",
            Comparison::Lt => "lt",
            Comparison::Gt => "gt",
        })
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        match v.as_str()? {
            "eq" => Ok(Comparison::Eq),
            "lt" => Ok(Comparison::Lt),
            "gt" => Ok(Comparison::Gt),
            other => Err(psm_persist::PersistError::schema(format!(
                "unknown comparison {other:?}"
            ))),
        }
    }
}

impl psm_persist::Persist for AtomicProposition {
    fn to_json(&self) -> psm_persist::JsonValue {
        use psm_persist::JsonValue;
        match self {
            AtomicProposition::VarEqConst { signal, value } => JsonValue::obj([
                ("kind", JsonValue::from("eq_const")),
                ("signal", signal.to_json()),
                ("value", value.to_json()),
            ]),
            AtomicProposition::VarCmpVar { left, cmp, right } => JsonValue::obj([
                ("kind", JsonValue::from("cmp_var")),
                ("left", left.to_json()),
                ("cmp", cmp.to_json()),
                ("right", right.to_json()),
            ]),
        }
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        match v.str_field("kind")? {
            "eq_const" => Ok(AtomicProposition::VarEqConst {
                signal: SignalId::from_json(v.field("signal")?)?,
                value: Bits::from_json(v.field("value")?)?,
            }),
            "cmp_var" => Ok(AtomicProposition::VarCmpVar {
                left: SignalId::from_json(v.field("left")?)?,
                cmp: Comparison::from_json(v.field("cmp")?)?,
                right: SignalId::from_json(v.field("right")?)?,
            }),
            other => Err(psm_persist::PersistError::schema(format!(
                "unknown atom kind {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::{Direction, FunctionalTrace};

    fn setup() -> (SignalSet, FunctionalTrace) {
        let mut s = SignalSet::new();
        s.push("en", 1, Direction::Input).unwrap();
        s.push("a", 4, Direction::Input).unwrap();
        s.push("b", 4, Direction::Output).unwrap();
        let mut trace = FunctionalTrace::new(s.clone());
        trace
            .push_cycle(vec![
                Bits::from_bool(true),
                Bits::from_u64(9, 4),
                Bits::from_u64(3, 4),
            ])
            .unwrap();
        (s, trace)
    }

    #[test]
    fn var_eq_const_eval() {
        let (s, cycle) = setup();
        let en = s.by_name("en").unwrap();
        let atom = AtomicProposition::VarEqConst {
            signal: en,
            value: Bits::from_bool(true),
        };
        assert!(atom.eval(cycle.cycle(0)));
        let atom = AtomicProposition::VarEqConst {
            signal: en,
            value: Bits::from_bool(false),
        };
        assert!(!atom.eval(cycle.cycle(0)));
    }

    #[test]
    fn var_cmp_var_eval() {
        let (s, cycle) = setup();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        let gt = AtomicProposition::VarCmpVar {
            left: a,
            cmp: Comparison::Gt,
            right: b,
        };
        let lt = AtomicProposition::VarCmpVar {
            left: a,
            cmp: Comparison::Lt,
            right: b,
        };
        let eq = AtomicProposition::VarCmpVar {
            left: a,
            cmp: Comparison::Eq,
            right: b,
        };
        assert!(gt.eval(cycle.cycle(0)));
        assert!(!lt.eval(cycle.cycle(0)));
        assert!(!eq.eval(cycle.cycle(0)));
    }

    #[test]
    fn render_matches_paper_notation() {
        let (s, _) = setup();
        let en = s.by_name("en").unwrap();
        let a = s.by_name("a").unwrap();
        let b = s.by_name("b").unwrap();
        assert_eq!(
            AtomicProposition::VarEqConst {
                signal: en,
                value: Bits::from_bool(true)
            }
            .render(&s),
            "en=true"
        );
        assert_eq!(
            AtomicProposition::VarCmpVar {
                left: a,
                cmp: Comparison::Gt,
                right: b
            }
            .render(&s),
            "a>b"
        );
        assert_eq!(
            AtomicProposition::VarEqConst {
                signal: a,
                value: Bits::from_u64(9, 4)
            }
            .render(&s),
            "a=4'h9"
        );
    }

    #[test]
    fn comparison_test_and_symbols() {
        assert!(Comparison::Eq.test(Ordering::Equal));
        assert!(Comparison::Lt.test(Ordering::Less));
        assert!(Comparison::Gt.test(Ordering::Greater));
        assert!(!Comparison::Gt.test(Ordering::Less));
        assert_eq!(Comparison::ALL.len(), 3);
        assert_eq!(Comparison::Lt.to_string(), "<");
    }
}
