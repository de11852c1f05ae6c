//! Ternary-lattice dataflow analysis over the gate-level netlist.
//!
//! The abstract domain is the flat lattice `{0, 1} ⊑ X`: a net is either
//! provably constant zero, provably constant one, or unknown (`X`). The
//! interpreter seeds constants, treats every input-port and memory-read
//! net as `X`, starts registers at their reset value, and evaluates the
//! combinational logic in levelized order; register outputs are then
//! widened by joining the reset value with the fixpoint of their data
//! inputs until nothing changes. Because every net only moves *up* the
//! two-level lattice, the loop terminates after at most `#dffs + 1`
//! sweeps.
//!
//! The fixpoint powers the semantic netlist lints `NL008`–`NL011`, which
//! see through the structure that the purely topological checks of
//! [`crate::lint_netlist`] (`NL004`/`NL005`) cannot: a gate can be wired
//! to an observable output and still be provably constant, and an input
//! bit can be read by live logic and still be unable to influence any
//! output.

use crate::netlist::{driver_counts, read_nets};
use crate::{codes, AnalysisReport, Diagnostic};
use psm_rtl::{levelize, GateKind, NetId, Netlist};
use psm_trace::Direction;

/// Abstract value of one net: the flat ternary lattice `{Zero, One} ⊑ X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Provably constant 0.
    Zero,
    /// Provably constant 1.
    One,
    /// Unknown: the net can carry either value.
    X,
}

impl Ternary {
    /// Lifts a concrete bit into the lattice.
    pub fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// The concrete value, when the net is provably constant.
    pub fn as_const(self) -> Option<bool> {
        match self {
            Ternary::Zero => Some(false),
            Ternary::One => Some(true),
            Ternary::X => None,
        }
    }

    /// `true` when the value is a known constant (not [`Ternary::X`]).
    pub fn is_const(self) -> bool {
        self != Ternary::X
    }

    /// Least upper bound: equal values stay, differing values widen to `X`.
    pub fn join(self, other: Ternary) -> Ternary {
        if self == other {
            self
        } else {
            Ternary::X
        }
    }

    /// Greatest lower bound: `X` yields to the other operand. The flat
    /// lattice has no bottom element, so two distinct constants have no
    /// common refinement and the meet is partial: `None` marks the
    /// contradiction (a net required to be both 0 and 1).
    pub fn meet(self, other: Ternary) -> Option<Ternary> {
        match (self, other) {
            (Ternary::X, v) | (v, Ternary::X) => Some(v),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }

    /// The lattice order: `a ⊑ b` when `b` is `a` or `X`.
    pub fn le(self, other: Ternary) -> bool {
        self == other || other == Ternary::X
    }
}

/// Largest number of unknown LUT inputs the transfer function enumerates
/// exactly; beyond it the output conservatively widens to `X`.
const LUT_ENUM_LIMIT: u32 = 6;

/// Ternary transfer function of one cell kind.
///
/// Constants are propagated with full short-circuit knowledge: an `AND`
/// with a zero input is zero no matter what the other pin carries, a mux
/// with a known select ignores the unselected branch, and a LUT with few
/// unknown inputs is evaluated over every completion of its `X` pins
/// (joining the results). `inputs` must match the kind's arity.
///
/// # Panics
///
/// Panics like [`GateKind::eval`] when `inputs` does not match the cell's
/// arity or a LUT table is too small for its pin count.
///
/// # Examples
///
/// ```
/// use psm_analyze::{eval_ternary, Ternary};
/// use psm_rtl::GateKind;
///
/// let x = Ternary::X;
/// assert_eq!(eval_ternary(&GateKind::And2, &[Ternary::Zero, x]), Ternary::Zero);
/// assert_eq!(eval_ternary(&GateKind::Or2, &[x, Ternary::One]), Ternary::One);
/// assert_eq!(eval_ternary(&GateKind::Xor2, &[x, Ternary::One]), Ternary::X);
/// ```
pub fn eval_ternary(kind: &GateKind, inputs: &[Ternary]) -> Ternary {
    use Ternary::{One, Zero, X};
    match kind {
        GateKind::Buf => inputs[0],
        GateKind::Not => match inputs[0] {
            Zero => One,
            One => Zero,
            X => X,
        },
        GateKind::And2 => match (inputs[0], inputs[1]) {
            (Zero, _) | (_, Zero) => Zero,
            (One, One) => One,
            _ => X,
        },
        GateKind::Or2 => match (inputs[0], inputs[1]) {
            (One, _) | (_, One) => One,
            (Zero, Zero) => Zero,
            _ => X,
        },
        GateKind::Xor2 => match (inputs[0], inputs[1]) {
            (X, _) | (_, X) => X,
            (a, b) => Ternary::from_bool(a != b),
        },
        GateKind::Nand2 => match (inputs[0], inputs[1]) {
            (Zero, _) | (_, Zero) => One,
            (One, One) => Zero,
            _ => X,
        },
        GateKind::Nor2 => match (inputs[0], inputs[1]) {
            (One, _) | (_, One) => Zero,
            (Zero, Zero) => One,
            _ => X,
        },
        // inputs = [sel, a, b]: a known select picks one branch, an
        // unknown select joins both.
        GateKind::Mux2 => match inputs[0] {
            Zero => inputs[1],
            One => inputs[2],
            X => inputs[1].join(inputs[2]),
        },
        GateKind::Lut { .. } => {
            let unknown = inputs.iter().filter(|v| **v == X).count() as u32;
            if unknown > LUT_ENUM_LIMIT {
                return X;
            }
            // Enumerate every completion of the X pins and join the
            // concrete outcomes; 2^unknown ≤ 64 evaluations.
            let mut concrete: Vec<bool> = inputs.iter().map(|v| *v == One).collect();
            let x_pins: Vec<usize> = inputs
                .iter()
                .enumerate()
                .filter(|(_, v)| **v == X)
                .map(|(i, _)| i)
                .collect();
            let mut acc: Option<Ternary> = None;
            for combo in 0u64..(1u64 << unknown) {
                for (k, &pin) in x_pins.iter().enumerate() {
                    concrete[pin] = (combo >> k) & 1 == 1;
                }
                let out = Ternary::from_bool(kind.eval(&concrete));
                acc = Some(match acc {
                    None => out,
                    Some(prev) => prev.join(out),
                });
                if acc == Some(X) {
                    break;
                }
            }
            acc.unwrap_or(X)
        }
    }
}

/// The fixpoint of the ternary interpreter: one abstract value per net,
/// plus the set of nets whose unknown-ness originates from an *undriven*
/// net (as opposed to a legitimate input port or memory read).
#[derive(Debug, Clone)]
pub struct DataflowResult {
    values: Vec<Ternary>,
    tainted: Vec<bool>,
    sweeps: usize,
}

impl DataflowResult {
    /// Abstract value of `net` at the fixpoint.
    pub fn value(&self, net: NetId) -> Ternary {
        self.values[net.index()]
    }

    /// All per-net values, indexed by [`NetId::index`].
    pub fn values(&self) -> &[Ternary] {
        &self.values
    }

    /// `true` when the `X` on `net` can be traced back to an undriven net.
    pub fn is_undriven_tainted(&self, net: NetId) -> bool {
        self.tainted[net.index()]
    }

    /// Number of evaluation sweeps the fixpoint took (at least one; grows
    /// only when register widening changes a `q` value).
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }
}

/// Runs ternary constant- and X-propagation to fixpoint.
///
/// Requires the netlist to be levelizable and its net references to be in
/// range; call after the structural checks of [`crate::lint_netlist`]
/// pass (the semantic lints do exactly that). Undriven nets evaluate to
/// `X` and are tracked as *tainted* so [`lint_netlist_dataflow`] can tell
/// a floating wire from an honest unknown.
///
/// Returns `None` when the netlist is not safely interpretable (out of
/// range references, arity mismatches or a combinational cycle) — those
/// defects are the structural lints' to report.
pub fn analyze_dataflow(netlist: &Netlist) -> Option<DataflowResult> {
    let order = interpretable(netlist)?;
    Some(fixpoint(netlist, &order))
}

/// The fixpoint of [`analyze_dataflow`] over a levelized gate `order` of
/// an [`interpretable`] netlist.
fn fixpoint(netlist: &Netlist, order: &[usize]) -> DataflowResult {
    // Undriven nets seed the taint.
    let mut values = vec![Ternary::X; netlist.net_count()];
    let mut tainted: Vec<bool> = driver_counts(netlist).iter().map(|&c| c == 0).collect();
    values[Netlist::CONST0.index()] = Ternary::Zero;
    values[Netlist::CONST1.index()] = Ternary::One;
    for d in netlist.dffs() {
        values[d.q.index()] = Ternary::from_bool(d.init);
    }
    // Input ports and memory reads stay X but carry no taint.

    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        // One combinational sweep in topological order.
        for &gi in order {
            let g = &netlist.gates()[gi];
            let ins: Vec<Ternary> = g.inputs.iter().map(|n| values[n.index()]).collect();
            let out = eval_ternary(&g.kind, &ins);
            values[g.output.index()] = out;
            tainted[g.output.index()] = out == Ternary::X
                && g.inputs
                    .iter()
                    .any(|n| values[n.index()] == Ternary::X && tainted[n.index()]);
        }
        // Widen register outputs by the fixpoint of their data inputs.
        let mut changed = false;
        for d in netlist.dffs() {
            let q = values[d.q.index()];
            let next = q.join(values[d.d.index()]);
            if next != q {
                values[d.q.index()] = next;
                tainted[d.q.index()] = tainted[d.d.index()];
                changed = true;
            } else if next == Ternary::X && tainted[d.d.index()] && !tainted[d.q.index()] {
                tainted[d.q.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    DataflowResult {
        values,
        tainted,
        sweeps,
    }
}

/// Checks that the netlist can be abstractly interpreted — levelizable,
/// sane arities, every net reference in range — and returns the levelized
/// gate order when it can. Shared guard of [`analyze_dataflow`], the
/// power-intent off-domain proof and the sequential unroller.
pub(crate) fn interpretable(netlist: &Netlist) -> Option<Vec<usize>> {
    let nets = netlist.net_count();
    let order = levelize(netlist).ok()?;
    for g in netlist.gates() {
        match g.kind.arity() {
            Some(arity) if g.inputs.len() != arity => return None,
            None => {
                let table_words = match &g.kind {
                    GateKind::Lut { table } => table.len(),
                    _ => 0,
                };
                if table_words < (1usize << g.inputs.len()).div_ceil(64) {
                    return None;
                }
            }
            Some(_) => {}
        }
        if g.inputs
            .iter()
            .chain([&g.output])
            .any(|n| n.index() >= nets)
        {
            return None;
        }
    }
    let in_range = |n: NetId| n.index() < nets;
    if !netlist
        .dffs()
        .iter()
        .all(|d| in_range(d.d) && in_range(d.q))
        || !netlist
            .memories()
            .iter()
            .all(|m| m.inputs().chain(m.rdata.iter().copied()).all(in_range))
        || !netlist
            .ports()
            .iter()
            .all(|p| p.nets().iter().copied().all(in_range))
    {
        return None;
    }
    Some(order)
}

/// Semantic netlist lints on top of the ternary fixpoint.
///
/// Emits, in order:
///
/// * `NL008` — a gate whose output is provably constant although at least
///   one of its inputs is not (the gate masks live logic), and whose
///   output is read by another cell, register, memory or output port.
///   Gates wired straight to the constant nets are exempt — those are
///   deliberate tie-offs, not propagation surprises;
/// * `NL009` — an output-port bit that is provably constant (mining will
///   see a stuck primary output);
/// * `NL010` — an undriven net whose `X` propagates all the way to an
///   output port (the float is observable, not just structural);
/// * `NL011` — input-port bits that are read by logic yet cannot influence
///   any output port (the semantic refinement of `NL004`/`NL005`: the path
///   exists but is provably blocked). Registers and memories only pass
///   influence on, so an input that feeds nothing but a register or
///   memory no output observes is blocked too.
///
/// Netlists that the structural lints would reject (cycles, bad arities,
/// out-of-range nets) produce an empty report here — run
/// [`crate::lint_netlist`] first.
pub fn lint_netlist_dataflow(netlist: &Netlist) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("netlist `{}` dataflow", netlist.name()));
    let Some(order) = interpretable(netlist) else {
        return report;
    };
    let df = fixpoint(netlist, &order);
    let nets = netlist.net_count();

    // What reads each net (to tell "feeding live logic" from dangling).
    let read = read_nets(netlist);

    // NL008: constant gate outputs that mask at least one live input.
    // Constants that are *benign* — fully explained by the constant nets
    // alone, like the zero-padding and tie-off chains of the builder's
    // arithmetic idioms — stay exempt. A constant counts as benign when
    // re-evaluating the gate with only its benign-constant inputs (all
    // others widened to X) still forces the same constant; the closure
    // extends through registers whose data cones are benign. What
    // survives is the *surprising* kind of constant: one forced by
    // sequential feedback or a degenerate truth table.
    let mut benign = vec![false; nets];
    benign[Netlist::CONST0.index()] = true;
    benign[Netlist::CONST1.index()] = true;
    loop {
        let mut changed = false;
        for g in netlist.gates() {
            if benign[g.output.index()] || !df.value(g.output).is_const() {
                continue;
            }
            let masked: Vec<Ternary> = g
                .inputs
                .iter()
                .map(|n| {
                    if benign[n.index()] {
                        df.value(*n)
                    } else {
                        Ternary::X
                    }
                })
                .collect();
            if eval_ternary(&g.kind, &masked) == df.value(g.output) {
                benign[g.output.index()] = true;
                changed = true;
            }
        }
        for d in netlist.dffs() {
            if !benign[d.q.index()] && df.value(d.q).is_const() && benign[d.d.index()] {
                benign[d.q.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let masking: Vec<usize> = netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            df.value(g.output).is_const()
                && !benign[g.output.index()]
                && read[g.output.index()]
                && g.inputs.iter().any(|n| !df.value(*n).is_const())
        })
        .map(|(gi, _)| gi)
        .collect();
    if !masking.is_empty() {
        let first = &netlist.gates()[masking[0]];
        let value = df.value(first.output).as_const().unwrap_or(false) as u8;
        report.push(Diagnostic::new(
            &codes::NL008,
            format!("net {}", first.output),
            format!(
                "{} gate(s) provably constant while reading live nets \
                 (first: {} driving {} stuck at {value})",
                masking.len(),
                first.kind,
                first.output
            ),
        ));
    }

    // NL009: stuck output-port bits.
    for p in netlist.ports() {
        if p.direction() != Direction::Output {
            continue;
        }
        let stuck: Vec<(usize, bool)> = p
            .nets()
            .iter()
            .enumerate()
            .filter_map(|(bit, n)| df.value(*n).as_const().map(|v| (bit, v)))
            .collect();
        if !stuck.is_empty() {
            let bits: Vec<String> = stuck
                .iter()
                .map(|(bit, v)| format!("{bit}={}", *v as u8))
                .collect();
            report.push(Diagnostic::new(
                &codes::NL009,
                format!("port `{}`", p.name()),
                format!(
                    "{} of {} output bit(s) provably constant ({})",
                    stuck.len(),
                    p.width(),
                    bits.join(", ")
                ),
            ));
        }
    }

    // NL010: undriven-origin X observable at an output port.
    for p in netlist.ports() {
        if p.direction() != Direction::Output {
            continue;
        }
        let floating: Vec<usize> = p
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| df.value(**n) == Ternary::X && df.is_undriven_tainted(**n))
            .map(|(bit, _)| bit)
            .collect();
        if !floating.is_empty() {
            report.push(Diagnostic::new(
                &codes::NL010,
                format!("port `{}`", p.name()),
                format!(
                    "bit(s) {floating:?} of `{}` carry the X of an undriven net",
                    p.name()
                ),
            ));
        }
    }

    // NL011: read input bits with no semantic path to an output port.
    // Backward liveness from the output-port nets over the reversed
    // influence edges: a gate whose output is not provably constant (a
    // constant output blocks all influence) passes liveness to its inputs,
    // a non-constant register from q to d, and a memory from any read-data
    // bit to every input pin. Sweeping gates in reverse levelized order
    // settles the combinational cone in one pass, so another round is
    // needed only after a register or memory edge (or a net with two
    // drivers, which levelization does not order) marks a new net. Each
    // round is linear in the netlist.
    let mut live = vec![false; nets];
    for p in netlist.ports() {
        if p.direction() == Direction::Output {
            for &n in p.nets() {
                live[n.index()] = true;
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &gi in order.iter().rev() {
            let g = &netlist.gates()[gi];
            if live[g.output.index()] && !df.value(g.output).is_const() {
                for &n in &g.inputs {
                    changed |= mark(&mut live, n);
                }
            }
        }
        for d in netlist.dffs() {
            if live[d.q.index()] && !df.value(d.q).is_const() {
                changed |= mark(&mut live, d.d);
            }
        }
        for m in netlist.memories() {
            if m.rdata.iter().any(|n| live[n.index()]) {
                for n in m.inputs() {
                    changed |= mark(&mut live, n);
                }
            }
        }
    }
    for p in netlist.ports() {
        if p.direction() != Direction::Input {
            continue;
        }
        let blocked: Vec<usize> = p
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| read[n.index()] && !live[n.index()])
            .map(|(bit, _)| bit)
            .collect();
        if !blocked.is_empty() {
            report.push(Diagnostic::new(
                &codes::NL011,
                format!("port `{}`", p.name()),
                format!(
                    "{} of {} input bit(s) read by logic but provably \
                     unable to influence any output (bits {blocked:?})",
                    blocked.len(),
                    p.width(),
                ),
            ));
        }
    }

    report
}

/// Marks `net` live; `true` when it was not live before.
fn mark(live: &mut [bool], net: NetId) -> bool {
    !std::mem::replace(&mut live[net.index()], true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_rtl::{NetlistBuilder, Word};

    fn codes_of(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn lattice_join_meet() {
        use Ternary::{One, Zero, X};
        for a in [Zero, One, X] {
            assert_eq!(a.join(a), a);
            assert_eq!(a.meet(a), Some(a));
            assert_eq!(a.join(X), X);
            assert_eq!(a.meet(X), Some(a));
            assert!(a.le(X));
        }
        assert_eq!(Zero.join(One), X);
        assert_eq!(Zero.meet(One), None, "distinct constants contradict");
        assert!(!X.le(Zero));
    }

    #[test]
    fn transfer_short_circuits() {
        use Ternary::{One, Zero, X};
        assert_eq!(eval_ternary(&GateKind::And2, &[Zero, X]), Zero);
        assert_eq!(eval_ternary(&GateKind::Nand2, &[X, Zero]), One);
        assert_eq!(eval_ternary(&GateKind::Or2, &[One, X]), One);
        assert_eq!(eval_ternary(&GateKind::Nor2, &[X, One]), Zero);
        assert_eq!(eval_ternary(&GateKind::Mux2, &[One, X, Zero]), Zero);
        assert_eq!(eval_ternary(&GateKind::Mux2, &[X, One, One]), One);
        assert_eq!(eval_ternary(&GateKind::Mux2, &[X, One, Zero]), X);
    }

    #[test]
    fn lut_enumerates_unknowns() {
        use Ternary::{One, Zero, X};
        // 2-input LUT for OR: bits 1110 → 0xE. With a one on pin 1 the
        // output is one no matter what pin 0 carries.
        let lut = GateKind::Lut { table: vec![0xE] };
        assert_eq!(eval_ternary(&lut, &[X, One]), One);
        assert_eq!(eval_ternary(&lut, &[X, Zero]), X);
        // Constant-one LUT collapses even under all-X inputs.
        let ones = GateKind::Lut { table: vec![0xF] };
        assert_eq!(eval_ternary(&ones, &[X, X]), One);
    }

    #[test]
    fn fixpoint_sees_through_register() {
        // q starts 0 and re-latches its own AND with an input: q can only
        // stay 0, so the output is provably stuck.
        let mut b = NetlistBuilder::new("regstuck");
        let a = b.input("a", 1);
        let r = b.register("r", 1);
        let next = b.and(r.q().bit(0), a.bit(0));
        b.connect_register(&r, &Word::from_nets(vec![next]));
        b.output("x", &r.q());
        let n = b.finish().unwrap();
        let df = analyze_dataflow(&n).unwrap();
        assert_eq!(df.value(n.ports()[1].nets()[0]), Ternary::Zero);
        let report = lint_netlist_dataflow(&n);
        assert!(codes_of(&report).contains(&"NL009"), "{}", report.text());
    }

    #[test]
    fn masked_gate_is_nl008() {
        let mut b = NetlistBuilder::new("masked");
        let a = b.input("a", 1);
        let c = b.input("c", 1);
        let zero = b.const0();
        // A tie-off and the constant it propagates are benign: the
        // zero-padding idiom of the builder's arithmetic must stay exempt.
        let tied = b.and(a.bit(0), zero);
        let padded = b.and(c.bit(0), tied);
        // A register that can only re-latch 0 is a *surprising* constant:
        // both the feedback gate and the gate it masks must fire.
        let r = b.register("r", 1);
        let next = b.and(r.q().bit(0), a.bit(0));
        b.connect_register(&r, &Word::from_nets(vec![next]));
        let masked = b.and(c.bit(0), r.q().bit(0));
        let t = b.or(masked, padded);
        let out = b.or(t, c.bit(0));
        let out = b.or(out, a.bit(0));
        b.output("x", &Word::from_nets(vec![out]));
        let n = b.finish().unwrap();
        let report = lint_netlist_dataflow(&n);
        let nl008: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "NL008")
            .collect();
        assert_eq!(nl008.len(), 1, "{}", report.text());
        assert!(
            nl008[0].message.contains("2 gate(s)"),
            "{}",
            nl008[0].message
        );
    }

    #[test]
    fn blocked_input_is_nl011() {
        let mut b = NetlistBuilder::new("blocked");
        let a = b.input("a", 1);
        let c = b.input("c", 1);
        let zero = b.const0();
        let masked = b.and(a.bit(0), zero); // `a` is read, influence blocked
        let out = b.or(masked, c.bit(0));
        b.output("x", &Word::from_nets(vec![out]));
        // `e` only feeds a self-looping XOR register that no output
        // observes: registers pass influence on but are not observable
        // points, so `e` is blocked, while NL004 (which counts register
        // data as a sink) stays silent.
        let e = b.input("e", 1);
        let r = b.register("r", 1);
        let next = b.xor(r.q().bit(0), e.bit(0));
        b.connect_register(&r, &Word::from_nets(vec![next]));
        let n = b.finish().unwrap();
        assert!(crate::lint_netlist(&n).is_clean());
        let report = lint_netlist_dataflow(&n);
        let nl011: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "NL011")
            .map(|d| d.location.as_str())
            .collect();
        assert_eq!(nl011, ["port `a`", "port `e`"], "{}", report.text());
    }

    #[test]
    fn clean_design_is_quiet() {
        let mut b = NetlistBuilder::new("clean");
        let a = b.input("a", 2);
        let c = b.input("c", 2);
        let s = b.add(&a, &c);
        b.output("x", &s.sum);
        let n = b.finish().unwrap();
        let report = lint_netlist_dataflow(&n);
        assert!(report.is_clean(), "{}", report.text());
    }

    #[test]
    fn cyclic_netlist_yields_no_dataflow() {
        // A hand-built cycle: analyze_dataflow must bail out, the lint
        // report must stay empty (NL001 is the structural lint's job).
        let text = "\
module loopy (a, x);
  input a;
  output x;
  wire n2;
  wire n3;
  wire n4;
  assign n2 = a[0];
  assign x[0] = n4;
  and  g0 (n3, n2, n4);
  and  g1 (n4, n3, 1'b1);
endmodule
";
        let n = psm_rtl::parse_verilog(text).unwrap();
        assert!(analyze_dataflow(&n).is_none());
        assert!(lint_netlist_dataflow(&n).is_clean());
    }

    #[test]
    fn undriven_x_reaching_output_is_nl010() {
        let text = "\
module floaty (a, x);
  input a;
  output x;
  wire n2;
  wire n3;
  wire n4;
  assign n2 = a[0];
  and  g0 (n4, n3, n2);
  assign x[0] = n4;
endmodule
";
        let n = psm_rtl::parse_verilog(text).unwrap();
        let report = lint_netlist_dataflow(&n);
        assert!(codes_of(&report).contains(&"NL010"), "{}", report.text());
    }
}
