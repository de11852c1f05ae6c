//! Propositions: AND-compositions of atomic propositions, one per distinct
//! truth-matrix row.

use crate::atom::{AtomicProposition, RowTest};
use crate::trace::PropositionTrace;
use psm_trace::{FunctionalTrace, Row, SignalSet};
use std::borrow::Cow;
use std::error::Error;
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
    /// reference, over [`AtomicProposition::eval`]; whole-trace walks and
    /// the estimator classify through a [`RowClassifier`].
    pub fn evaluate_row(&self, cycle: Row<'_>) -> Vec<u64> {
        let mut row = Vec::new();
        pack_truths(&mut row, self.atoms.iter().map(|atom| atom.eval(cycle)));
        row
    }
}

/// Why a trace cannot be classified against a [`PropositionTable`]: its
/// interface does not lay out a signal the table's atoms read.
///
/// Signal names are the table's own (the trace may name its signals
/// differently); indices are declaration positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyError {
    /// An atom reads the table's signal `signal`, at declaration index
    /// `index`, but the trace declares only `declared` signals.
    MissingSignal {
        /// The table's name for the signal.
        signal: String,
        /// Its declaration index.
        index: usize,
        /// Signals the trace declares.
        declared: usize,
    },
    /// A relational atom compares `left` with `right`, but the trace
    /// declares them at different widths.
    WidthMismatch {
        /// The table's name for the left-hand signal.
        left: String,
        /// Its width in the trace.
        left_width: usize,
        /// The table's name for the right-hand signal.
        right: String,
        /// Its width in the trace.
        right_width: usize,
    },
}

impl fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifyError::MissingSignal {
                signal,
                index,
                declared,
            } => write!(
                f,
                "the model reads signal `{signal}` (index {index}), but the trace declares \
                 {declared} signal(s)"
            ),
            ClassifyError::WidthMismatch {
                left,
                left_width,
                right,
                right_width,
            } => write!(
                f,
                "the model compares `{left}` with `{right}`, but the trace declares them \
                 {left_width} and {right_width} bits wide"
            ),
        }
    }
}

impl Error for ClassifyError {}

/// Writes the packed truth row of the atoms' truths (bit *i* = truth *i*).
fn pack_truths(row: &mut Vec<u64>, truths: impl ExactSizeIterator<Item = bool>) {
    row.clear();
    row.resize(truths.len().div_ceil(64).max(1), 0);
    for (i, truth) in truths.enumerate() {
        if truth {
            row[i / 64] |= 1 << (i % 64);
        }
    }
}

/// A vocabulary's atoms resolved against one row layout: word tests, the
/// words they read (ascending, each once) and the words per row. It holds
/// no table, so interning and classifying walk the same resolved form.
#[derive(Debug, Clone)]
struct RowAtoms {
    tests: Vec<RowTest>,
    reads: Vec<usize>,
    row_words: usize,
}

impl RowAtoms {
    /// Resolves every atom of `vocabulary` against the row layout of
    /// `signals`, or names the first atom that layout cannot hold.
    fn new(vocabulary: &PropositionVocabulary, signals: &SignalSet) -> Result<Self, ClassifyError> {
        // A loaded vocabulary's atoms are not checked against its own
        // signals, so an id it does not declare is named by its index.
        let name = |id: psm_trace::SignalId| {
            if id.index() < vocabulary.signals.len() {
                vocabulary.signals.decl(id).name().to_owned()
            } else {
                id.to_string()
            }
        };
        let tests: Vec<RowTest> = vocabulary
            .atoms
            .iter()
            .map(|atom| atom.resolve(signals, name))
            .collect::<Result<_, _>>()?;
        let mut reads: Vec<usize> = tests.iter().flat_map(RowTest::reads).collect();
        reads.sort_unstable();
        reads.dedup();
        Ok(RowAtoms {
            tests,
            reads,
            row_words: signals.words_per_cycle(),
        })
    }

    /// The one per-row body: packs `row`'s truth row into `truths`, then
    /// returns the id `id_of` (a lookup or an intern) gives it.
    #[inline]
    fn id<T>(&self, row: &[u64], truths: &mut Vec<u64>, id_of: impl FnOnce(&[u64]) -> T) -> T {
        pack_truths(truths, self.tests.iter().map(|t| t.holds(row)));
        id_of(truths)
    }

    /// Whether two rows differ in a word the atoms read.
    #[inline]
    fn reads_differ(&self, a: &[u64], b: &[u64]) -> bool {
        self.reads.iter().any(|&w| a[w] != b[w])
    }

    /// Every row of `trace` with its [`id`](Self::id), in time order. A
    /// row equal to the previous one on every read word keeps the
    /// previous id (exact: see [`RowClassifier`]).
    ///
    /// # Panics
    ///
    /// Panics if `trace`'s rows are not `row_words` wide.
    fn walk<'a, T: Copy + 'a>(
        &'a self,
        trace: &'a FunctionalTrace,
        truths: &'a mut Vec<u64>,
        mut id_of: impl FnMut(&[u64]) -> T + 'a,
    ) -> impl Iterator<Item = (&'a [u64], T)> + 'a {
        assert_eq!(trace.signals().words_per_cycle(), self.row_words);
        let (words, width) = (trace.as_words(), self.row_words);
        let mut prev: Option<(&[u64], T)> = None;
        (0..trace.len()).map(move |t| {
            let row = &words[t * width..(t + 1) * width];
            let id = match prev {
                Some((prev, id)) if !self.reads_differ(prev, row) => id,
                _ => self.id(row, truths, &mut id_of),
            };
            prev = Some((row, id));
            (row, id)
        })
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
    index: RowIndex,
}

impl PropositionTable {
    pub(crate) fn new(vocabulary: PropositionVocabulary) -> Self {
        PropositionTable {
            vocabulary,
            props: Vec::new(),
            index: RowIndex::with_capacity(0),
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
        self.index
            .intern(&mut self.props, self.vocabulary.len(), &row)
    }

    /// Evaluates one cycle and interns its row (mining path).
    pub fn intern_cycle(&mut self, cycle: Row<'_>) -> PropositionId {
        let row = self.vocabulary.evaluate_row(cycle);
        self.intern(row)
    }

    /// Interns every instant of `trace` in time order, returning its
    /// proposition trace (mining path). It walks the atoms resolved as a
    /// [`RowClassifier`] resolves them, with its memo: an instant equal to
    /// the previous one on every word the atoms read keeps its id, which
    /// is what interning its (equal) truth row again would return.
    ///
    /// # Panics
    ///
    /// Panics when `trace`'s interface cannot hold the vocabulary's atoms
    /// (the [`ClassifyError`] cases).
    pub fn intern_trace(&mut self, trace: &FunctionalTrace) -> PropositionTrace {
        let atoms = RowAtoms::new(&self.vocabulary, trace.signals())
            .unwrap_or_else(|e| panic!("cannot intern the trace: {e}"));
        let count = self.vocabulary.len();
        let mut truths = Vec::new();
        atoms
            .walk(trace, &mut truths, |truths| {
                self.index.intern(&mut self.props, count, truths)
            })
            .map(|(_, id)| id)
            .collect()
    }

    /// Classifies every instant of `trace` without interning (simulation
    /// path); `None` marks unknown behaviour: the
    /// [`RowClassifier::classify_trace`] of the trace's interface. Equal,
    /// instant for instant, to [`classify`](Self::classify) on each row.
    ///
    /// # Panics
    ///
    /// Panics when `trace`'s interface cannot hold the table's atoms (see
    /// [`row_classifier`](Self::row_classifier), which reports it as a
    /// [`ClassifyError`] instead).
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
        self.row_classifier(trace.signals())
            .unwrap_or_else(|e| panic!("cannot classify the trace: {e}"))
            .classify_trace(trace)
    }

    /// [`RowClassifier::new`] borrowing this table.
    ///
    /// # Errors
    ///
    /// As [`RowClassifier::new`].
    pub fn row_classifier(&self, signals: &SignalSet) -> Result<RowClassifier<'_>, ClassifyError> {
        RowClassifier::new(Cow::Borrowed(self), signals)
    }

    /// Evaluates one cycle *without* interning; `None` means unknown
    /// behaviour. The per-row reference over
    /// [`PropositionVocabulary::evaluate_row`]; traces and rows are
    /// classified through a [`RowClassifier`].
    pub fn classify(&self, cycle: Row<'_>) -> Option<PropositionId> {
        let row = self.vocabulary.evaluate_row(cycle);
        self.index.get(&self.props, &row)
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

/// A [`PropositionTable`] resolved against one row layout: the table,
/// borrowed or owned, its atoms as word tests, and the row words those
/// tests read. Built by [`RowClassifier::new`] (or, borrowing,
/// [`PropositionTable::row_classifier`]), it is the one way rows are
/// classified, by the flow, the estimator and the model checker alike;
/// an owning classifier lets a served model keep one for its lifetime.
///
/// A row's class is a pure function of the words in
/// [`reads`](Self::reads): two rows that agree on every one of them
/// satisfy the same atoms, so they have the same truth row and the same
/// class. [`classify_rows`](Self::classify_rows) therefore keeps the
/// previous row's class whenever [`reads_differ`](Self::reads_differ) is
/// false, and the result is exactly what classifying every row gives.
///
/// # Examples
///
/// ```
/// use psm_mining::{Miner, MiningConfig};
/// use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
///
/// let mut signals = SignalSet::new();
/// signals.push("en", 1, Direction::Input)?;
/// signals.push("data", 8, Direction::Input)?;
/// let mut phi = FunctionalTrace::new(signals);
/// for (en, data) in [(1u64, 3u64), (1, 9), (0, 9), (0, 3)] {
///     phi.push_cycle(vec![Bits::from_u64(en, 1), Bits::from_u64(data, 8)])?;
/// }
/// let mined = Miner::new(MiningConfig::default()).mine(&[&phi])?;
///
/// let classifier = mined.table.row_classifier(phi.signals())?;
/// let mut truths = classifier.truth_buffer();
/// let row = phi.cycle(2).as_words();
/// assert_eq!(classifier.classify(row, &mut truths), mined.table.classify(phi.cycle(2)));
/// // A word no atom reads cannot change the class.
/// for w in (0..classifier.row_words()).filter(|w| !classifier.reads().contains(w)) {
///     let mut flipped = row.to_vec();
///     flipped[w] ^= 1;
///     assert!(!classifier.reads_differ(row, &flipped));
///     assert_eq!(
///         classifier.classify(&flipped, &mut truths),
///         classifier.classify(row, &mut truths)
///     );
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RowClassifier<'t> {
    table: Cow<'t, PropositionTable>,
    atoms: RowAtoms,
}

impl<'t> RowClassifier<'t> {
    /// Resolves `table`'s atoms against the row layout of `signals`.
    ///
    /// # Errors
    ///
    /// [`ClassifyError`] naming the first signal an atom reads that
    /// `signals` lacks, or two it compares at different widths there.
    pub fn new(
        table: Cow<'t, PropositionTable>,
        signals: &SignalSet,
    ) -> Result<RowClassifier<'t>, ClassifyError> {
        let atoms = RowAtoms::new(&table.vocabulary, signals)?;
        Ok(RowClassifier { table, atoms })
    }
}

impl RowClassifier<'_> {
    /// The table the classifier classifies against.
    pub fn table(&self) -> &PropositionTable {
        &self.table
    }

    /// Words per row of the layout the classifier was resolved against.
    pub fn row_words(&self) -> usize {
        self.atoms.row_words
    }

    /// The row words the table's atoms read, ascending, each once.
    pub fn reads(&self) -> &[usize] {
        &self.atoms.reads
    }

    /// A scratch buffer sized for [`classify`](Self::classify), so that
    /// classifying never allocates.
    pub fn truth_buffer(&self) -> Vec<u64> {
        Vec::with_capacity(self.atoms.tests.len().div_ceil(64).max(1))
    }

    /// The class of one row of the layout; `None` marks unknown
    /// behaviour. `truths` is scratch (see
    /// [`truth_buffer`](Self::truth_buffer)); on return it holds the
    /// row's packed truth row (bit *i* = truth of atom *i*).
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the words the atoms read.
    pub fn classify(&self, row: &[u64], truths: &mut Vec<u64>) -> Option<PropositionId> {
        self.atoms.id(row, truths, |truths| self.class_of(truths))
    }

    /// Every row of `trace` with its class, in time order. A row equal to
    /// the previous one on every word in [`reads`](Self::reads) keeps the
    /// previous class; the others are classified as
    /// [`classify`](Self::classify) does, with `truths` as scratch.
    ///
    /// # Panics
    ///
    /// Panics if `trace`'s rows are not [`row_words`](Self::row_words)
    /// wide.
    pub fn classify_rows<'a>(
        &'a self,
        trace: &'a FunctionalTrace,
        truths: &'a mut Vec<u64>,
    ) -> impl Iterator<Item = (&'a [u64], Option<PropositionId>)> + 'a {
        self.atoms
            .walk(trace, truths, |truths| self.class_of(truths))
    }

    /// The class of every row of `trace`, in time order.
    ///
    /// # Panics
    ///
    /// As [`classify_rows`](Self::classify_rows).
    pub fn classify_trace(&self, trace: &FunctionalTrace) -> Vec<Option<PropositionId>> {
        let mut truths = self.truth_buffer();
        self.classify_rows(trace, &mut truths)
            .map(|(_, class)| class)
            .collect()
    }

    /// Whether two rows of the layout differ in a word the atoms read.
    /// When they do not, they have the same class.
    ///
    /// # Panics
    ///
    /// Panics if a row is shorter than the words the atoms read.
    #[inline]
    pub fn reads_differ(&self, a: &[u64], b: &[u64]) -> bool {
        self.atoms.reads_differ(a, b)
    }

    /// The class of a packed truth row.
    #[inline]
    fn class_of(&self, truths: &[u64]) -> Option<PropositionId> {
        self.table.index.get(&self.table.props, truths)
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

/// The row → id lookup of a [`PropositionTable`]: an open-addressed hash
/// table of ids, probed linearly, whose keys are the interned rows
/// themselves. The hash is multiplicative over the row's words, so a
/// one-word row (every paper IP's) costs one multiply and, on a hit, one
/// word compare. Derived data: rebuilt on load and never iterated.
///
/// The hash is not keyed. Classifying never inserts, so a lookup probes
/// at most one cluster of the interned rows, whatever rows the trace
/// holds; only the table's own rows — training data or a model artifact,
/// both chosen by whoever trains or deploys the model — could be crafted
/// to collide.
#[derive(Debug, Clone)]
struct RowIndex {
    /// One past the id each slot holds; 0 marks an empty slot. A power of
    /// two, and at least twice the number of ids, so a probe always meets
    /// an empty slot.
    slots: Vec<u32>,
}

impl RowIndex {
    /// An empty index with room for `ids` rows.
    fn with_capacity(ids: usize) -> RowIndex {
        RowIndex {
            slots: vec![0; (2 * ids).next_power_of_two().max(16)],
        }
    }

    /// Indexes `props`; `Err(i)` when row `i` repeats an earlier one.
    fn build(props: &[Proposition]) -> Result<RowIndex, usize> {
        let mut index = RowIndex::with_capacity(props.len());
        for (i, p) in props.iter().enumerate() {
            let slot = index.find(props, &p.row).err().ok_or(i)?;
            index.slots[slot] = i as u32 + 1;
        }
        Ok(index)
    }

    /// The id of `row` among `props`, or `None` when it is not interned.
    fn get(&self, props: &[Proposition], row: &[u64]) -> Option<PropositionId> {
        self.find(props, row).ok()
    }

    /// The id of `row`, interning it into `props` as a fresh proposition
    /// over `atom_count` atoms when unseen (the row is copied only then).
    fn intern(
        &mut self,
        props: &mut Vec<Proposition>,
        atom_count: usize,
        row: &[u64],
    ) -> PropositionId {
        let slot = match self.find(props, row) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = PropositionId(props.len() as u32);
        props.push(Proposition {
            row: row.to_vec(),
            atom_count,
        });
        if 2 * props.len() > self.slots.len() {
            *self = RowIndex::build(props).expect("interned rows are distinct");
        } else {
            self.slots[slot] = id.0 + 1;
        }
        id
    }

    /// `Ok(id)` of `row`, or `Err(slot)`: the empty slot it would take.
    fn find(&self, props: &[Proposition], row: &[u64]) -> Result<PropositionId, usize> {
        let mask = self.slots.len() - 1;
        // Fx-style: fold the words with a rotate, xor and odd multiply, and
        // take the top bits, which every input bit reaches.
        let hash = row.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                n if props[n as usize - 1].row == row => return Ok(PropositionId(n - 1)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
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
        let index = RowIndex::build(&props).map_err(|_| {
            psm_persist::PersistError::schema("duplicate proposition rows in table")
        })?;
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

    /// A table over `atoms` one-bit `VarEqConst` atoms on one signal, so
    /// its rows are `atoms.div_ceil(64)` words wide.
    fn table_of_width(atoms: u64) -> PropositionTable {
        let mut s = SignalSet::new();
        let sig = s.push("x", 8, Direction::Input).unwrap();
        let atoms = (0..atoms)
            .map(|i| AtomicProposition::VarEqConst {
                signal: sig,
                value: Bits::from_u64(i % 256, 8),
            })
            .collect();
        PropositionTable::new(PropositionVocabulary::new(s, atoms))
    }

    #[test]
    fn row_index_maps_every_interned_row_and_nothing_else() {
        use psm_prng::Prng;
        let mut rng = Prng::seed_from_u64(23);
        // One-word rows (every paper IP) and rows spanning two and three
        // words; 300 rows force the index to grow several times.
        for atoms in [12u64, 70, 130] {
            let mut t = table_of_width(atoms);
            let words = atoms.div_ceil(64) as usize;
            let top_mask = match atoms % 64 {
                0 => u64::MAX,
                r => (1 << r) - 1,
            };
            // Wide rows share their first word with many others, so a
            // lookup that compared fewer than all words would mix them up.
            let random_row = |rng: &mut Prng| {
                let mut row: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
                if words > 1 {
                    row[0] %= 16;
                }
                row[words - 1] &= top_mask;
                row
            };
            let mut rows = Vec::new();
            while rows.len() < 300 {
                let row = random_row(&mut rng);
                if !rows.contains(&row) {
                    rows.push(row);
                }
            }
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(t.intern(row.clone()), PropositionId(i as u32));
            }
            assert_eq!(t.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                // Interning again finds the same id, and adds nothing.
                assert_eq!(t.index.get(&t.props, row), Some(PropositionId(i as u32)));
                assert_eq!(t.intern(row.clone()), PropositionId(i as u32));
            }
            assert_eq!(t.len(), rows.len());
            let mut unseen = 0;
            while unseen < 300 {
                let row = random_row(&mut rng);
                if !rows.contains(&row) {
                    assert_eq!(t.index.get(&t.props, &row), None, "{atoms} atoms");
                    unseen += 1;
                }
            }
            // A row one bit away from an interned one, or of another
            // width, is never a key.
            for row in &rows {
                let mut near = row.clone();
                near[words - 1] ^= 1;
                if !rows.contains(&near) {
                    assert_eq!(t.index.get(&t.props, &near), None, "{atoms} atoms");
                }
            }
            assert_eq!(
                t.index.get(&t.props, &[rows[0].clone(), vec![0]].concat()),
                None
            );
        }
    }

    #[test]
    fn wide_rows_classify_through_the_index() {
        // 130 atoms over one 8-bit signal: atom i holds when x == i % 256,
        // so x = 5 sets bit 5 of word 0 and x = 129 bit 1 of word 2.
        let mut t = table_of_width(130);
        let mut trace = FunctionalTrace::new(t.vocabulary().signals().clone());
        for x in [5u64, 129, 5, 200, 129] {
            trace.push_cycle(vec![Bits::from_u64(x, 8)]).unwrap();
        }
        let mut training = FunctionalTrace::new(t.vocabulary().signals().clone());
        for x in [129u64, 5] {
            training.push_cycle(vec![Bits::from_u64(x, 8)]).unwrap();
        }
        let ids = t.intern_trace(&training);
        let (p129, p5) = (ids.get(0).unwrap(), ids.get(1).unwrap());
        assert_eq!(t.get(p129).row(), &[0, 0, 1 << 1]);
        assert_eq!(
            t.classify_trace(&trace),
            vec![Some(p5), Some(p129), Some(p5), None, Some(p129)]
        );
        for (i, want) in t.classify_trace(&trace).into_iter().enumerate() {
            assert_eq!(t.classify(trace.cycle(i)), want);
        }
    }

    #[test]
    fn foreign_interfaces_are_classifier_errors() {
        // The toy model of one 1-bit signal `en`, against a trace with no
        // signals at all.
        let mut signals = SignalSet::new();
        signals.push("en", 1, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        for v in [1u64, 1, 0, 0, 1] {
            phi.push_cycle(vec![Bits::from_u64(v, 1)]).unwrap();
        }
        let mined = crate::Miner::new(crate::MiningConfig::default())
            .mine(&[&phi])
            .unwrap();
        let mut empty = FunctionalTrace::new(SignalSet::new());
        empty.push_cycle(Vec::new()).unwrap();
        let err = mined.table.row_classifier(empty.signals()).unwrap_err();
        assert_eq!(
            err,
            ClassifyError::MissingSignal {
                signal: "en".into(),
                index: 0,
                declared: 0
            }
        );
        assert_eq!(
            err.to_string(),
            "the model reads signal `en` (index 0), but the trace declares 0 signal(s)"
        );
        assert_eq!(
            mined
                .table
                .row_classifier(phi.signals())
                .unwrap()
                .classify_trace(&phi),
            mined.table.classify_trace(&phi)
        );

        // `a > b` over 4-bit signals, against a trace declaring `b` 8 bits
        // wide.
        let t = table();
        let mut s = SignalSet::new();
        s.push("en", 1, Direction::Input).unwrap();
        s.push("a", 4, Direction::Input).unwrap();
        s.push("b", 8, Direction::Output).unwrap();
        let err = t.row_classifier(&s).unwrap_err();
        assert_eq!(
            err,
            ClassifyError::WidthMismatch {
                left: "a".into(),
                left_width: 4,
                right: "b".into(),
                right_width: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "cannot classify the trace: the model reads signal `en`")]
    fn classify_trace_panics_on_a_foreign_interface() {
        let mut signals = SignalSet::new();
        signals.push("en", 1, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals);
        for v in [1u64, 0] {
            phi.push_cycle(vec![Bits::from_u64(v, 1)]).unwrap();
        }
        let mined = crate::Miner::new(crate::MiningConfig::default())
            .mine(&[&phi])
            .unwrap();
        let mut empty = FunctionalTrace::new(SignalSet::new());
        empty.push_cycle(Vec::new()).unwrap();
        mined.table.classify_trace(&empty);
    }
}
