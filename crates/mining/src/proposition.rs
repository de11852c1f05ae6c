//! Propositions: AND-compositions of atomic propositions, one per distinct
//! truth-matrix row.

use crate::atom::{AtomicProposition, RowTest};
use crate::trace::PropositionTrace;
use psm_trace::{FunctionalTrace, Row, SignalSet};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a proposition within one [`PropositionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropositionId(pub(crate) u32);

impl PropositionId {
    /// Dense index of this proposition.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PropositionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The mined atomic propositions — the columns of the paper's truth matrix
/// *m* — together with the interface they predicate over.
#[derive(Debug, Clone)]
pub struct PropositionVocabulary {
    signals: SignalSet,
    atoms: Vec<AtomicProposition>,
}

impl PropositionVocabulary {
    pub(crate) fn new(signals: SignalSet, atoms: Vec<AtomicProposition>) -> Self {
        PropositionVocabulary { signals, atoms }
    }

    /// The PI/PO interface the atoms predicate over.
    pub fn signals(&self) -> &SignalSet {
        &self.signals
    }

    /// The mined atoms, in stable order.
    pub fn atoms(&self) -> &[AtomicProposition] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` when no atom was mined.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluates every atom over one functional-trace cycle, producing a
    /// packed truth row (bit *i* = truth of atom *i*). This is the per-row
    /// reference; whole-trace walks use [`PropositionTable::intern_trace`]
    /// and [`PropositionTable::classify_trace`].
    pub fn evaluate_row(&self, cycle: Row<'_>) -> Vec<u64> {
        let mut row = Vec::new();
        pack_truths(
            &mut row,
            self.atoms.len(),
            self.atoms.iter().map(|atom| atom.eval(cycle)),
        );
        row
    }

    /// Every atom resolved against the row layout of `signals`, for a
    /// walk over many rows of that layout.
    fn resolve(&self, signals: &SignalSet) -> Vec<RowTest<'_>> {
        self.atoms
            .iter()
            .map(|atom| atom.resolve(signals))
            .collect()
    }
}

/// Writes the packed truth row of `count` atoms (bit *i* = truth *i*).
fn pack_truths(row: &mut Vec<u64>, count: usize, truths: impl Iterator<Item = bool>) {
    row.clear();
    row.resize(count.div_ceil(64).max(1), 0);
    for (i, truth) in truths.enumerate() {
        if truth {
            row[i / 64] |= 1 << (i % 64);
        }
    }
}

/// One mined proposition: a distinct truth-value row over the vocabulary.
///
/// A proposition is the AND-composition of the atoms that hold (and,
/// implicitly, the negation of those that do not — the *closed-world*
/// reading). This identification guarantees the paper's requirement that
/// **exactly one proposition of the set holds at every instant** on any
/// trace whatsoever.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Proposition {
    row: Vec<u64>,
    atom_count: usize,
}

impl Proposition {
    /// Truth of atom `i` within this proposition.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn atom_truth(&self, i: usize) -> bool {
        assert!(i < self.atom_count, "atom {i} out of range");
        self.row[i / 64] >> (i % 64) & 1 == 1
    }

    /// Indices of the atoms that hold in this proposition.
    pub fn satisfied_atoms(&self) -> Vec<usize> {
        (0..self.atom_count)
            .filter(|&i| self.atom_truth(i))
            .collect()
    }

    /// The packed truth row.
    pub fn row(&self) -> &[u64] {
        &self.row
    }
}

/// The interned set *Prop* of mined propositions, shared across all traces
/// of one IP so that PSMs generated from different traces can be compared
/// and joined.
///
/// [`PropositionTable::intern`] is used while mining (new rows become new
/// propositions); [`PropositionTable::classify`] is used while *simulating*
/// and returns `None` for behaviour never seen in training — the paper's
/// "unknown functional behaviour".
#[derive(Debug, Clone)]
pub struct PropositionTable {
    vocabulary: PropositionVocabulary,
    props: Vec<Proposition>,
    index: HashMap<Vec<u64>, PropositionId>,
}

impl PropositionTable {
    pub(crate) fn new(vocabulary: PropositionVocabulary) -> Self {
        PropositionTable {
            vocabulary,
            props: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The vocabulary whose rows this table interns.
    pub fn vocabulary(&self) -> &PropositionVocabulary {
        &self.vocabulary
    }

    /// Number of interned propositions.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Interns a truth row, returning the existing or a fresh id.
    pub fn intern(&mut self, row: Vec<u64>) -> PropositionId {
        intern_row(
            &mut self.props,
            &mut self.index,
            self.vocabulary.len(),
            &row,
        )
    }

    /// Evaluates one cycle and interns its row (mining path).
    pub fn intern_cycle(&mut self, cycle: Row<'_>) -> PropositionId {
        let row = self.vocabulary.evaluate_row(cycle);
        self.intern(row)
    }

    /// Interns every instant of `trace` in time order, returning its
    /// proposition trace (mining path). The atoms are resolved against
    /// the trace's row layout once, so an instant costs a few word
    /// compares and one lookup.
    pub fn intern_trace(&mut self, trace: &FunctionalTrace) -> PropositionTrace {
        let tests = self.vocabulary.resolve(trace.signals());
        let mut row = Vec::new();
        trace
            .iter()
            .map(|cycle| {
                let words = cycle.as_words();
                pack_truths(&mut row, tests.len(), tests.iter().map(|t| t.holds(words)));
                intern_row(&mut self.props, &mut self.index, tests.len(), &row)
            })
            .collect()
    }

    /// Classifies every instant of `trace` without interning (simulation
    /// path); `None` marks unknown behaviour. Equal, instant for instant,
    /// to [`classify`](Self::classify) on each row, with the atoms
    /// resolved against the trace's row layout once.
    ///
    /// # Examples
    ///
    /// ```
    /// use psm_mining::{Miner, MiningConfig};
    /// use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
    ///
    /// let mut signals = SignalSet::new();
    /// signals.push("en", 1, Direction::Input)?;
    /// let mut phi = FunctionalTrace::new(signals);
    /// for v in [1u64, 1, 0, 0] {
    ///     phi.push_cycle(vec![Bits::from_u64(v, 1)])?;
    /// }
    /// let mined = Miner::new(MiningConfig::default()).mine(&[&phi])?;
    ///
    /// let ids = mined.table.classify_trace(&phi);
    /// assert!(ids.iter().all(Option::is_some));
    /// assert_eq!(ids[0], ids[1]);
    /// assert_ne!(ids[1], ids[2]);
    /// assert_eq!(ids[2], mined.table.classify(phi.cycle(2)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn classify_trace(&self, trace: &FunctionalTrace) -> Vec<Option<PropositionId>> {
        let tests = self.vocabulary.resolve(trace.signals());
        let mut row = Vec::new();
        trace
            .iter()
            .map(|cycle| {
                let words = cycle.as_words();
                pack_truths(&mut row, tests.len(), tests.iter().map(|t| t.holds(words)));
                self.index.get(row.as_slice()).copied()
            })
            .collect()
    }

    /// Evaluates one cycle *without* interning (simulation path); `None`
    /// means unknown behaviour.
    pub fn classify(&self, cycle: Row<'_>) -> Option<PropositionId> {
        let row = self.vocabulary.evaluate_row(cycle);
        self.index.get(row.as_slice()).copied()
    }

    /// The proposition behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    pub fn get(&self, id: PropositionId) -> &Proposition {
        &self.props[id.index()]
    }

    /// All interned proposition ids, in interning order.
    pub fn ids(&self) -> impl Iterator<Item = PropositionId> + '_ {
        (0..self.props.len()).map(|i| PropositionId(i as u32))
    }

    /// Renders a proposition as the conjunction of its satisfied atoms
    /// (the paper's Fig. 3 notation, e.g.
    /// `v1=true & v2=false & v3>v4`). Propositions satisfying no atom
    /// render as `⊤` (every atom negated).
    pub fn render(&self, id: PropositionId) -> String {
        let p = self.get(id);
        let parts: Vec<String> = p
            .satisfied_atoms()
            .into_iter()
            .map(|i| self.vocabulary.atoms()[i].render(self.vocabulary.signals()))
            .collect();
        if parts.is_empty() {
            "⊤".to_owned()
        } else {
            parts.join(" & ")
        }
    }
}

impl psm_persist::Persist for PropositionId {
    fn to_json(&self) -> psm_persist::JsonValue {
        psm_persist::JsonValue::from(self.0)
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        let raw = v.as_u64()?;
        u32::try_from(raw)
            .map(PropositionId)
            .map_err(|_| psm_persist::PersistError::schema("proposition id out of range"))
    }
}

impl psm_persist::Persist for PropositionVocabulary {
    fn to_json(&self) -> psm_persist::JsonValue {
        use psm_persist::JsonValue;
        JsonValue::obj([
            ("signals", self.signals.to_json()),
            ("atoms", self.atoms.to_json()),
        ])
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        Ok(PropositionVocabulary {
            signals: SignalSet::from_json(v.field("signals")?)?,
            atoms: Vec::from_json(v.field("atoms")?)?,
        })
    }
}

impl psm_persist::Persist for Proposition {
    fn to_json(&self) -> psm_persist::JsonValue {
        use psm_persist::JsonValue;
        JsonValue::obj([
            ("row", self.row.to_json()),
            ("atoms", JsonValue::from(self.atom_count)),
        ])
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        let row: Vec<u64> = Vec::from_json(v.field("row")?)?;
        let atom_count = v.usize_field("atoms")?;
        if row.len() != atom_count.div_ceil(64).max(1) {
            return Err(psm_persist::PersistError::schema(
                "proposition row length does not match its atom count",
            ));
        }
        Ok(Proposition { row, atom_count })
    }
}

/// Returns the id of `row`, interning it as a fresh proposition over
/// `atom_count` atoms when unseen (the row is cloned only then).
fn intern_row(
    props: &mut Vec<Proposition>,
    index: &mut HashMap<Vec<u64>, PropositionId>,
    atom_count: usize,
    row: &[u64],
) -> PropositionId {
    if let Some(&id) = index.get(row) {
        return id;
    }
    let id = PropositionId(props.len() as u32);
    props.push(Proposition {
        row: row.to_vec(),
        atom_count,
    });
    index.insert(row.to_vec(), id);
    id
}

/// The serialised table stores only the vocabulary and the interned
/// propositions; the row→id lookup index is derived data and is rebuilt on
/// load.
impl psm_persist::Persist for PropositionTable {
    fn to_json(&self) -> psm_persist::JsonValue {
        use psm_persist::JsonValue;
        JsonValue::obj([
            ("vocabulary", self.vocabulary.to_json()),
            ("props", self.props.to_json()),
        ])
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        let vocabulary = PropositionVocabulary::from_json(v.field("vocabulary")?)?;
        let props: Vec<Proposition> = Vec::from_json(v.field("props")?)?;
        for (i, p) in props.iter().enumerate() {
            if p.atom_count != vocabulary.len() {
                return Err(psm_persist::PersistError::schema(format!(
                    "proposition {i} predicates over {} atom(s), vocabulary has {}",
                    p.atom_count,
                    vocabulary.len()
                )));
            }
        }
        let index: HashMap<Vec<u64>, PropositionId> = props
            .iter()
            .enumerate()
            .map(|(i, p)| (p.row.clone(), PropositionId(i as u32)))
            .collect();
        if index.len() != props.len() {
            return Err(psm_persist::PersistError::schema(
                "duplicate proposition rows in table",
            ));
        }
        Ok(PropositionTable {
            vocabulary,
            props,
            index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Comparison;
    use psm_trace::{Bits, Direction, FunctionalTrace};

    fn table() -> PropositionTable {
        let mut s = SignalSet::new();
        let en = s.push("en", 1, Direction::Input).unwrap();
        let a = s.push("a", 4, Direction::Input).unwrap();
        let b = s.push("b", 4, Direction::Output).unwrap();
        let atoms = vec![
            AtomicProposition::VarEqConst {
                signal: en,
                value: Bits::from_bool(true),
            },
            AtomicProposition::VarCmpVar {
                left: a,
                cmp: Comparison::Gt,
                right: b,
            },
        ];
        let vocab = PropositionVocabulary::new(s, atoms);
        PropositionTable::new(vocab)
    }

    /// A one-instant trace over [`table`]'s interface.
    fn cycle(en: u64, a: u64, b: u64) -> FunctionalTrace {
        let mut trace = FunctionalTrace::new(table().vocabulary().signals().clone());
        trace
            .push_cycle(vec![
                Bits::from_u64(en, 1),
                Bits::from_u64(a, 4),
                Bits::from_u64(b, 4),
            ])
            .unwrap();
        trace
    }

    #[test]
    fn interning_dedupes_rows() {
        let mut t = table();
        let p1 = t.intern_cycle(cycle(1, 5, 3).cycle(0));
        let p2 = t.intern_cycle(cycle(1, 9, 2).cycle(0)); // same truth row: en & a>b
        let p3 = t.intern_cycle(cycle(0, 5, 3).cycle(0));
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn classify_does_not_intern() {
        let mut t = table();
        t.intern_cycle(cycle(1, 5, 3).cycle(0));
        assert!(t.classify(cycle(1, 9, 9).cycle(0)).is_none()); // en & !(a>b): unseen
        assert_eq!(t.len(), 1);
        assert_eq!(t.classify(cycle(1, 7, 0).cycle(0)), Some(PropositionId(0)));
    }

    #[test]
    fn render_shows_satisfied_atoms_only() {
        let mut t = table();
        let p = t.intern_cycle(cycle(1, 5, 3).cycle(0));
        assert_eq!(t.render(p), "en=true & a>b");
        let q = t.intern_cycle(cycle(0, 0, 3).cycle(0));
        assert_eq!(t.render(q), "⊤");
    }

    #[test]
    fn proposition_truths() {
        let mut t = table();
        let p = t.intern_cycle(cycle(0, 9, 3).cycle(0)); // !en, a>b
        let prop = t.get(p);
        assert!(!prop.atom_truth(0));
        assert!(prop.atom_truth(1));
        assert_eq!(prop.satisfied_atoms(), vec![1]);
    }

    #[test]
    fn ids_iterate_in_order() {
        let mut t = table();
        t.intern_cycle(cycle(1, 5, 3).cycle(0));
        t.intern_cycle(cycle(0, 5, 3).cycle(0));
        let ids: Vec<_> = t.ids().collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].index(), 0);
        assert_eq!(ids[1].to_string(), "p1");
    }

    #[test]
    fn table_round_trips_through_json() {
        use psm_persist::{JsonValue, Persist};
        let mut t = table();
        let p1 = t.intern_cycle(cycle(1, 5, 3).cycle(0));
        t.intern_cycle(cycle(0, 5, 3).cycle(0));
        let text = t.to_json().render();
        let back = PropositionTable::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), t.len());
        // The rebuilt index classifies exactly like the original.
        assert_eq!(back.classify(cycle(1, 9, 2).cycle(0)), Some(p1));
        assert_eq!(back.classify(cycle(1, 9, 9).cycle(0)), None);
        assert_eq!(back.render(p1), t.render(p1));
        // Serialisation is deterministic.
        assert_eq!(text, back.to_json().render());
    }

    #[test]
    fn table_rejects_inconsistent_documents() {
        use psm_persist::{JsonValue, Persist};
        let mut t = table();
        t.intern_cycle(cycle(1, 5, 3).cycle(0));
        let good = t.to_json().render();
        // Corrupt the atom count of the proposition.
        let bad = good.replace("\"atoms\":2", "\"atoms\":1");
        assert!(PropositionTable::from_json(&JsonValue::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn wide_vocabulary_rows() {
        // More than 64 atoms exercises multi-word rows.
        let mut s = SignalSet::new();
        let sig = s.push("x", 8, Direction::Input).unwrap();
        let atoms: Vec<AtomicProposition> = (0..70)
            .map(|i| AtomicProposition::VarEqConst {
                signal: sig,
                value: Bits::from_u64(i, 8),
            })
            .collect();
        let vocab = PropositionVocabulary::new(s, atoms);
        assert_eq!(vocab.len(), 70);
        let mut trace = FunctionalTrace::new(vocab.signals().clone());
        trace.push_cycle(vec![Bits::from_u64(69, 8)]).unwrap();
        let row = vocab.evaluate_row(trace.cycle(0));
        assert_eq!(row.len(), 2);
        assert_eq!(row[1], 1 << 5); // atom 69 in word 1, bit 5
    }
}
