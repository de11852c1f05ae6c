//! Power-intent static analysis (`PD…` codes): domain-crossing lints and
//! ternary isolation proofs.
//!
//! The paper's PSMs abstract a design into power states; several of those
//! states have near-zero mean power, i.e. they describe intervals in which
//! a whole power domain could be gated off. Before anyone acts on that —
//! by synthesising power gating from the mined model — the *netlist* must
//! be able to survive the power-down: every net leaving the gated domain
//! needs an isolation cell, or the floating `X` of the dead logic corrupts
//! the still-on side.
//!
//! This module checks exactly that, in two layers:
//!
//! * **structural** — over the [`Netlist::domain_crossings`] graph:
//!   crossings with no isolation cell (`PD001`), isolation cells whose
//!   clamp polarity their gate kind cannot produce (`PD002`), marks that
//!   isolate nothing (`PD003`), gateable domains with no primary-input
//!   controllability (`PD004`) and always-on logic sandwiched between
//!   gateable domains (`PD005`);
//! * **semantic** — [`prove_domain_off`] re-runs the ternary interpreter
//!   of [`crate::analyze_dataflow`] with every net driven inside one
//!   domain forced to `X`, gives validly-marked isolation cells their
//!   clamp semantics, and proves that no still-on net and no primary
//!   output ever observes the `X`. Escapes come back as
//!   [`IsolationLeak`]s carrying the concrete propagation path
//!   (`PD006`/`PD007`, rendered as SARIF code flows).
//!
//! All of it is **intent-gated**: a netlist with no isolation-marked cell
//! ([`Netlist::has_power_intent`]) has declared no power intent, its
//! domains are assumed always-on, and [`lint_power_intent`] stays silent —
//! multi-domain designs that merely *partition* logic (like the Camellia
//! benchmark) are not findings. The raw [`prove_domain_off`] query is not
//! gated, so what-if analyses and benchmarks can run it directly.

use crate::dataflow::interpretable;
use crate::{codes, eval_ternary, AnalysisReport, Diagnostic, Ternary};
use psm_rtl::{CellRef, GateKind, IsolationKind, NetId, Netlist};
use psm_trace::Direction;
use std::collections::BTreeMap;

/// Domain index reserved for always-on logic (`core` in the builder and
/// the Verilog attribute grammar). Cells here are never powered down.
pub(crate) const ALWAYS_ON: usize = 0;

/// Cap on reported escapes per powered-down domain; beyond it the proof
/// still counts the leaks but the lint stops attaching paths.
const MAX_REPORTED_LEAKS: usize = 8;

/// `true` when `kind`, marked as `iso`, can actually force the declared
/// clamp constant: a clamp0 needs a controlling-zero input (AND/NOR), a
/// clamp1 a controlling-one input (OR/NAND); a mux can park either way.
fn clamp_matches(kind: &GateKind, iso: IsolationKind) -> bool {
    match iso {
        IsolationKind::Clamp0 => {
            matches!(kind, GateKind::And2 | GateKind::Nor2 | GateKind::Mux2)
        }
        IsolationKind::Clamp1 => {
            matches!(kind, GateKind::Or2 | GateKind::Nand2 | GateKind::Mux2)
        }
    }
}

/// `true` when the gate kind can clamp at all (with *some* polarity).
fn can_clamp(kind: &GateKind) -> bool {
    matches!(
        kind,
        GateKind::And2 | GateKind::Or2 | GateKind::Nand2 | GateKind::Nor2 | GateKind::Mux2
    )
}

/// One escape found by the off-domain proof: a net outside the powered-down
/// domain that observes the dead logic's `X`.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationLeak {
    /// The net the `X` was observed on — a still-on cell's output, or the
    /// net wired to a primary-output bit.
    pub net: NetId,
    /// Human-readable description of the observing sink.
    pub sink: String,
    /// `true` when the escape reaches a primary output (`PD007`), `false`
    /// for an escape into still-on internal logic (`PD006`).
    pub at_output: bool,
    /// The concrete X-propagation route, from a net driven inside the
    /// powered-down domain to [`IsolationLeak::net`] (inclusive).
    pub path: Vec<NetId>,
}

/// Result of [`prove_domain_off`]: either a proof that the domain is fully
/// isolated, or the list of escapes refuting it.
#[derive(Debug, Clone)]
pub struct DomainOffProof {
    /// Index of the powered-down domain (into [`Netlist::domains`]).
    pub domain: usize,
    /// Escapes into still-on logic or primary outputs; empty iff the
    /// domain is provably isolated.
    pub leaks: Vec<IsolationLeak>,
    /// Number of isolation cells that actively clamped the domain's `X`.
    pub clamped: usize,
    /// Fixpoint sweeps the ternary interpreter took.
    pub sweeps: usize,
}

impl DomainOffProof {
    /// `true` when powering the domain down leaks no `X` anywhere.
    pub fn is_isolated(&self) -> bool {
        self.leaks.is_empty()
    }
}

/// Reconstructs the X-propagation route ending at `net` by walking the
/// taint-origin parent pointers back to a net driven inside the powered-down
/// domain. Origin edges follow dataflow and register `d → q` arcs, so a
/// defensive cycle guard caps the walk.
fn escape_path(origin: &[Option<NetId>], net: NetId) -> Vec<NetId> {
    let mut path = vec![net];
    let mut at = net;
    while let Some(parent) = origin[at.index()] {
        if path.len() > origin.len() || path.contains(&parent) {
            break;
        }
        path.push(parent);
        at = parent;
    }
    path.reverse();
    path
}

/// Proves (or refutes) that power-gating one domain cannot corrupt the
/// rest of the design.
///
/// Re-runs the levelized ternary fixpoint with every net driven by a cell
/// of `domain` pinned to `X` and *tainted*; validly-marked isolation cells
/// ([`Netlist::gate_isolation`], polarity consistent with the gate kind)
/// are given their power-down semantics — a tainted input makes them drive
/// the declared clamp constant, clearing the taint. Isolation controls are
/// assumed asserted for the whole power-down, which is exactly the UPF
/// contract the cells encode. An ordinary still-on cell whose output goes
/// `X` *because of* the off domain (taint, not an honest input-port
/// unknown) at the boundary is a leak, as is any tainted primary-output
/// bit.
///
/// Leaks are reported at the **frontier**: the first still-on cell on each
/// escape route (its taint origin is a net driven inside `domain`), so a
/// single hole yields one leak, not one per downstream consumer. Crossings
/// that the logic provably masks (e.g. ANDed with a constant 0) do not
/// leak — that is the refinement this proof adds over the structural
/// `PD001` check.
///
/// Returns `None` when `domain` is out of range or the netlist is not
/// safely interpretable (cycles, arity or net-range defects — the
/// structural lints' findings).
pub fn prove_domain_off(netlist: &Netlist, domain: usize) -> Option<DomainOffProof> {
    if domain >= netlist.domains().len() {
        return None;
    }
    let order = interpretable(netlist)?;
    let nets = netlist.net_count();
    let net_domain = netlist.net_domains();

    let mut values = vec![Ternary::X; nets];
    let mut tainted = vec![false; nets];
    // Parent pointer of each tainted net: the tainted input its X came
    // from; `None` marks a root (driven inside the off domain).
    let mut origin: Vec<Option<NetId>> = vec![None; nets];
    values[Netlist::CONST0.index()] = Ternary::Zero;
    values[Netlist::CONST1.index()] = Ternary::One;
    for (ff, &d) in netlist.dffs().iter().zip(netlist.dff_domains()) {
        if d == domain {
            tainted[ff.q.index()] = true; // state is lost with the power
        } else {
            values[ff.q.index()] = Ternary::from_bool(ff.init);
        }
    }
    for (m, &d) in netlist.memories().iter().zip(netlist.mem_domains()) {
        if d == domain {
            for &n in &m.rdata {
                tainted[n.index()] = true;
            }
        }
    }
    // Input ports and still-on memory reads stay X but carry no taint.

    let mut clamped = vec![false; netlist.gates().len()];
    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        for &gi in &order {
            let g = &netlist.gates()[gi];
            let o = g.output.index();
            if netlist.gate_domains()[gi] == domain {
                values[o] = Ternary::X;
                tainted[o] = true;
                origin[o] = None;
                continue;
            }
            let iso = netlist.gate_isolation()[gi].filter(|&k| clamp_matches(&g.kind, k));
            let hot = g.inputs.iter().any(|n| tainted[n.index()]);
            if let (Some(kind), true) = (iso, hot) {
                values[o] = Ternary::from_bool(kind.clamp_value());
                tainted[o] = false;
                origin[o] = None;
                clamped[gi] = true;
                continue;
            }
            clamped[gi] = false;
            let ins: Vec<Ternary> = g.inputs.iter().map(|n| values[n.index()]).collect();
            let out = eval_ternary(&g.kind, &ins);
            values[o] = out;
            let src = if out == Ternary::X {
                g.inputs
                    .iter()
                    .find(|n| values[n.index()] == Ternary::X && tainted[n.index()])
                    .copied()
            } else {
                None
            };
            tainted[o] = src.is_some();
            origin[o] = src;
        }
        let mut changed = false;
        for (ff, &d) in netlist.dffs().iter().zip(netlist.dff_domains()) {
            if d == domain {
                continue; // pinned X root
            }
            let qi = ff.q.index();
            let di = ff.d.index();
            let q = values[qi];
            let next = q.join(values[di]);
            if next != q {
                values[qi] = next;
                tainted[qi] = tainted[di];
                origin[qi] = tainted[di].then_some(ff.d);
                changed = true;
            } else if next == Ternary::X && tainted[di] && !tainted[qi] {
                tainted[qi] = true;
                origin[qi] = Some(ff.d);
                changed = true;
            }
        }
        for (m, &d) in netlist.memories().iter().zip(netlist.mem_domains()) {
            if d == domain {
                continue;
            }
            // A still-on macro addressed or written through tainted pins
            // can deliver the corruption on any later read.
            if let Some(src) = m.inputs().find(|n| tainted[n.index()]) {
                for &rd in &m.rdata {
                    if !tainted[rd.index()] {
                        tainted[rd.index()] = true;
                        origin[rd.index()] = Some(src);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Frontier leaks: a still-on cell whose taint origin is a net driven
    // inside the off domain — the first observer on each escape route.
    let from_off = |n: Option<NetId>| n.is_some_and(|n| net_domain[n.index()] == Some(domain));
    let mut leaks = Vec::new();
    for (gi, (g, &gd)) in netlist
        .gates()
        .iter()
        .zip(netlist.gate_domains())
        .enumerate()
    {
        let o = g.output;
        if gd != domain && tainted[o.index()] && from_off(origin[o.index()]) {
            leaks.push(IsolationLeak {
                net: o,
                sink: format!(
                    "{} gate #{gi} in domain `{}`",
                    g.kind,
                    netlist.domains()[gd]
                ),
                at_output: false,
                path: escape_path(&origin, o),
            });
        }
    }
    for (fi, (ff, &fd)) in netlist.dffs().iter().zip(netlist.dff_domains()).enumerate() {
        if fd != domain && tainted[ff.q.index()] && from_off(Some(ff.d)) {
            leaks.push(IsolationLeak {
                net: ff.q,
                sink: format!("flip-flop #{fi} in domain `{}`", netlist.domains()[fd]),
                at_output: false,
                path: escape_path(&origin, ff.q),
            });
        }
    }
    for (mi, (m, &md)) in netlist
        .memories()
        .iter()
        .zip(netlist.mem_domains())
        .enumerate()
    {
        if md != domain && m.rdata.iter().any(|n| tainted[n.index()]) && {
            let first = m.rdata.iter().find(|n| tainted[n.index()]).unwrap();
            from_off(origin[first.index()])
        } {
            let rd = *m.rdata.iter().find(|n| tainted[n.index()]).unwrap();
            leaks.push(IsolationLeak {
                net: rd,
                sink: format!("memory macro #{mi} in domain `{}`", netlist.domains()[md]),
                at_output: false,
                path: escape_path(&origin, rd),
            });
        }
    }
    for p in netlist.ports() {
        if p.direction() != Direction::Output {
            continue;
        }
        for (bit, &n) in p.nets().iter().enumerate() {
            if tainted[n.index()] {
                leaks.push(IsolationLeak {
                    net: n,
                    sink: format!("output port `{}` bit {bit}", p.name()),
                    at_output: true,
                    path: escape_path(&origin, n),
                });
            }
        }
    }

    Some(DomainOffProof {
        domain,
        leaks,
        clamped: clamped.iter().filter(|c| **c).count(),
        sweeps,
    })
}

/// Annotates one net of an escape path with its domain, for the step list
/// rendered as a SARIF code flow.
fn step_label(netlist: &Netlist, net_domain: &[Option<usize>], off: usize, net: NetId) -> String {
    match net_domain[net.index()] {
        Some(d) if d == off => format!(
            "net {net} (driven in powered-off domain `{}`)",
            &netlist.domains()[d]
        ),
        Some(d) => format!("net {net} (domain `{}`)", &netlist.domains()[d]),
        None => format!("net {net}"),
    }
}

/// The power-intent lint family (`PD001`–`PD008`).
///
/// Silent unless the netlist declares power intent by marking at least one
/// isolation cell ([`Netlist::has_power_intent`]); a declared-intent
/// netlist always gets at least the `PD008` summary. Runs the structural
/// crossing lints, then [`prove_domain_off`] for every gateable domain;
/// escapes carry their propagation path in [`Diagnostic::steps`].
pub fn lint_power_intent(netlist: &Netlist) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("netlist `{}` power intent", netlist.name()));
    if !netlist.has_power_intent() {
        return report;
    }
    let domains = netlist.domains();
    let net_domain = netlist.net_domains();
    let crossings = netlist.domain_crossings();
    let gates = netlist.gates();
    let iso = netlist.gate_isolation();

    // `true` for a marked gate whose polarity its kind can actually drive.
    let valid_iso: Vec<bool> = gates
        .iter()
        .zip(iso)
        .map(|(g, k)| k.is_some_and(|k| clamp_matches(&g.kind, k)))
        .collect();

    // PD002 / PD003: every isolation mark is either usable, contradictory
    // or pointless.
    for (gi, (g, k)) in gates.iter().zip(iso).enumerate() {
        let Some(k) = *k else { continue };
        let location = format!("gate #{gi} ({})", g.kind);
        if !can_clamp(&g.kind) {
            report.push(Diagnostic::new(
                &codes::PD003,
                location,
                format!(
                    "`{}` cell marked `isolation = \"{k}\"` but a {} has no controlling \
                     input and can never clamp",
                    g.kind, g.kind
                ),
            ));
        } else if !clamp_matches(&g.kind, k) {
            report.push(Diagnostic::new(
                &codes::PD002,
                location,
                format!(
                    "`{}` cell marked `isolation = \"{k}\"` can only force the opposite \
                     constant; while its domain is gated it would clamp to {} instead of {}",
                    g.kind,
                    !k.clamp_value() as u8,
                    k.clamp_value() as u8
                ),
            ));
        } else {
            let gd = netlist.gate_domains()[gi];
            let crosses = g
                .inputs
                .iter()
                .any(|n| net_domain[n.index()].is_some_and(|d| d != gd));
            if !crosses {
                report.push(Diagnostic::new(
                    &codes::PD003,
                    location,
                    format!(
                        "isolation cell reads only domain-`{}` and undomained nets; no \
                         crossing passes through it",
                        domains[gd]
                    ),
                ));
            }
        }
    }

    // PD001: crossings out of a gateable domain whose sink is not a valid
    // isolation cell, grouped per (from, to) pair. Primary outputs count
    // as an always-on sink of their own.
    let mut unisolated: BTreeMap<(usize, Option<usize>), Vec<NetId>> = BTreeMap::new();
    for e in &crossings {
        if e.from == ALWAYS_ON {
            continue; // always-on drivers never float
        }
        let protected = matches!(e.sink, CellRef::Gate(gi) if valid_iso[gi]);
        if !protected {
            unisolated
                .entry((e.from, Some(e.to)))
                .or_default()
                .push(e.net);
        }
    }
    for p in netlist.ports() {
        if p.direction() != Direction::Output {
            continue;
        }
        for &n in p.nets() {
            if let Some(d) = net_domain[n.index()] {
                if d != ALWAYS_ON {
                    unisolated.entry((d, None)).or_default().push(n);
                }
            }
        }
    }
    for ((from, to), nets) in &unisolated {
        let sink = match to {
            Some(t) => format!("domain `{}`", domains[*t]),
            None => "the primary outputs".to_string(),
        };
        report.push(Diagnostic::new(
            &codes::PD001,
            format!("domain `{}` -> {sink}", domains[*from]),
            format!(
                "{} net(s) leave gateable domain `{}` into {sink} with no isolation \
                 cell (first: net {})",
                nets.len(),
                domains[*from],
                nets[0]
            ),
        ));
    }

    // PD004: structural forward reachability of primary-input influence;
    // a gateable domain none of whose cells sees any of it cannot be
    // driven (or observed) from outside.
    let mut reach = vec![false; netlist.net_count()];
    for p in netlist.ports() {
        if p.direction() == Direction::Input {
            for &n in p.nets() {
                reach[n.index()] = true;
            }
        }
    }
    loop {
        let mut changed = false;
        for g in gates {
            if !reach[g.output.index()] && g.inputs.iter().any(|n| reach[n.index()]) {
                reach[g.output.index()] = true;
                changed = true;
            }
        }
        for ff in netlist.dffs() {
            if !reach[ff.q.index()] && reach[ff.d.index()] {
                reach[ff.q.index()] = true;
                changed = true;
            }
        }
        for m in netlist.memories() {
            if m.inputs().any(|n| reach[n.index()]) {
                for &rd in &m.rdata {
                    if !reach[rd.index()] {
                        reach[rd.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut populated = vec![false; domains.len()];
    let mut controllable = vec![false; domains.len()];
    for (g, &d) in gates.iter().zip(netlist.gate_domains()) {
        populated[d] = true;
        controllable[d] |= g.inputs.iter().any(|n| reach[n.index()]);
    }
    for (ff, &d) in netlist.dffs().iter().zip(netlist.dff_domains()) {
        populated[d] = true;
        controllable[d] |= reach[ff.d.index()];
    }
    for (m, &d) in netlist.memories().iter().zip(netlist.mem_domains()) {
        populated[d] = true;
        controllable[d] |= m.inputs().any(|n| reach[n.index()]);
    }
    for (d, name) in domains.iter().enumerate() {
        if d != ALWAYS_ON && populated[d] && !controllable[d] {
            report.push(Diagnostic::new(
                &codes::PD004,
                format!("domain `{name}`"),
                format!(
                    "no cell of gateable domain `{name}` is reachable from any primary \
                     input; its activity cannot be exercised from outside"
                ),
            ));
        }
    }

    // PD005: always-on gates that read gateable-domain nets and whose
    // output is consumed only by gateable-domain cells — logic that can
    // never power down yet serves nothing always-on.
    let mut read_on = vec![false; netlist.net_count()]; // by always-on cell or PO
    let mut read_gateable = vec![false; netlist.net_count()];
    {
        let mut mark = |n: NetId, d: usize| {
            if d == ALWAYS_ON {
                read_on[n.index()] = true;
            } else {
                read_gateable[n.index()] = true;
            }
        };
        for (g, &d) in gates.iter().zip(netlist.gate_domains()) {
            for &n in &g.inputs {
                mark(n, d);
            }
        }
        for (ff, &d) in netlist.dffs().iter().zip(netlist.dff_domains()) {
            mark(ff.d, d);
        }
        for (m, &d) in netlist.memories().iter().zip(netlist.mem_domains()) {
            for n in m.inputs() {
                mark(n, d);
            }
        }
        for p in netlist.ports() {
            if p.direction() == Direction::Output {
                for &n in p.nets() {
                    read_on[n.index()] = true;
                }
            }
        }
    }
    let sandwiched: Vec<usize> = gates
        .iter()
        .zip(netlist.gate_domains())
        .enumerate()
        .filter(|(gi, (g, &d))| {
            d == ALWAYS_ON
                && iso[*gi].is_none()
                && g.inputs
                    .iter()
                    .any(|n| net_domain[n.index()].is_some_and(|x| x != ALWAYS_ON))
                && read_gateable[g.output.index()]
                && !read_on[g.output.index()]
        })
        .map(|(gi, _)| gi)
        .collect();
    if !sandwiched.is_empty() {
        let first = &gates[sandwiched[0]];
        report.push(Diagnostic::new(
            &codes::PD005,
            format!("gate #{} ({})", sandwiched[0], first.kind),
            format!(
                "{} always-on gate(s) read from and feed only gateable domains \
                 (first: {} driving net {})",
                sandwiched.len(),
                first.kind,
                first.output
            ),
        ));
    }

    // PD006 / PD007: the semantic off-domain proofs.
    let mut verdicts: Vec<String> = Vec::new();
    for (d, name) in domains.iter().enumerate() {
        if d == ALWAYS_ON || !populated[d] {
            continue;
        }
        let Some(proof) = prove_domain_off(netlist, d) else {
            verdicts.push(format!("{name}: not interpretable"));
            continue;
        };
        for leak in proof.leaks.iter().take(MAX_REPORTED_LEAKS) {
            let info = if leak.at_output {
                &codes::PD007
            } else {
                &codes::PD006
            };
            let steps: Vec<String> = leak
                .path
                .iter()
                .map(|&n| step_label(netlist, &net_domain, d, n))
                .chain([format!("observed by {}", leak.sink)])
                .collect();
            report.push(
                Diagnostic::new(
                    info,
                    format!("net {}", leak.net),
                    format!(
                        "powering down domain `{name}` drives {} to X through an \
                         unclamped boundary ({} step route attached)",
                        leak.sink,
                        leak.path.len()
                    ),
                )
                .with_steps(steps),
            );
        }
        verdicts.push(if proof.is_isolated() {
            format!("{name}: isolated ({} clamp(s))", proof.clamped)
        } else {
            format!("{name}: LEAKS ({} escape(s))", proof.leaks.len())
        });
    }

    // PD008: one informational summary whenever intent is declared.
    let iso_count = iso.iter().filter(|k| k.is_some()).count();
    let gateable = (0..domains.len())
        .filter(|&d| d != ALWAYS_ON && populated[d])
        .count();
    report.push(Diagnostic::new(
        &codes::PD008,
        format!("netlist `{}`", netlist.name()),
        format!(
            "{} domain(s) ({gateable} gateable), {} crossing edge(s), {iso_count} \
             isolation cell(s); off-domain proofs: {}",
            domains.len(),
            crossings.len(),
            if verdicts.is_empty() {
                "none".to_string()
            } else {
                verdicts.join(", ")
            }
        ),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_rtl::{NetlistBuilder, Word};

    fn codes_of(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    /// One gateable domain, properly clamped at its only exit.
    fn isolated_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("iso_ok");
        let a = b.input("a", 1);
        let en_n = b.input("en_n", 1);
        b.domain("unit");
        let inv = b.not(a.bit(0));
        b.domain("core");
        let clamped = b.isolation_cell(IsolationKind::Clamp0, inv, en_n.bit(0));
        let out = b.not(clamped);
        b.output("x", &Word::from_nets(vec![out]));
        b.finish().unwrap()
    }

    /// Two exits from `unit`: one clamped, one straight into live logic.
    fn leaky_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("leaky");
        let a = b.input("a", 2);
        let en_n = b.input("en_n", 1);
        b.domain("unit");
        let inv0 = b.not(a.bit(0));
        let inv1 = b.not(a.bit(1));
        b.domain("core");
        let clamped = b.isolation_cell(IsolationKind::Clamp0, inv0, en_n.bit(0));
        let merged = b.or(inv1, clamped);
        b.output("x", &Word::from_nets(vec![merged]));
        b.finish().unwrap()
    }

    #[test]
    fn isolated_domain_proves_clean() {
        let n = isolated_netlist();
        let unit = n.domains().iter().position(|d| d == "unit").unwrap();
        let proof = prove_domain_off(&n, unit).unwrap();
        assert!(proof.is_isolated(), "leaks: {:?}", proof.leaks);
        assert_eq!(proof.clamped, 1);
        let report = lint_power_intent(&n);
        assert_eq!(codes_of(&report), vec!["PD008"], "{}", report.text());
        assert!(!report.has_errors());
    }

    #[test]
    fn unclamped_crossing_leaks_and_lints() {
        let n = leaky_netlist();
        let unit = n.domains().iter().position(|d| d == "unit").unwrap();
        let proof = prove_domain_off(&n, unit).unwrap();
        assert!(!proof.is_isolated());
        // One frontier leak (the OR gate) plus the tainted primary output.
        assert_eq!(proof.leaks.len(), 2, "{:?}", proof.leaks);
        assert!(proof.leaks.iter().any(|l| l.at_output));
        let frontier = proof.leaks.iter().find(|l| !l.at_output).unwrap();
        assert!(frontier.path.len() >= 2, "{:?}", frontier.path);

        let report = lint_power_intent(&n);
        let codes = codes_of(&report);
        assert!(codes.contains(&"PD001"), "{}", report.text());
        assert!(codes.contains(&"PD006"), "{}", report.text());
        assert!(codes.contains(&"PD007"), "{}", report.text());
        assert!(codes.contains(&"PD008"), "{}", report.text());
        let pd6 = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "PD006")
            .unwrap();
        assert!(!pd6.steps.is_empty(), "escape must carry its route");
        assert!(pd6.steps[0].contains("powered-off domain `unit`"));
    }

    #[test]
    fn masked_crossing_does_not_leak_semantically() {
        // The crossing is ANDed against constant 0: structurally a PD001,
        // semantically provably harmless.
        let mut b = NetlistBuilder::new("masked");
        let a = b.input("a", 1);
        let en_n = b.input("en_n", 1);
        b.domain("unit");
        let inv = b.not(a.bit(0));
        b.domain("core");
        let zero = b.const0();
        let dead = b.and(inv, zero);
        let iso = b.isolation_cell(IsolationKind::Clamp0, inv, en_n.bit(0));
        let out = b.or(dead, iso);
        b.output("x", &Word::from_nets(vec![out]));
        let n = b.finish().unwrap();
        let unit = n.domains().iter().position(|d| d == "unit").unwrap();
        let proof = prove_domain_off(&n, unit).unwrap();
        assert!(proof.is_isolated(), "{:?}", proof.leaks);
        let codes = codes_of(&lint_power_intent(&n));
        assert!(codes.contains(&"PD001"));
        assert!(!codes.contains(&"PD006"));
        assert!(!codes.contains(&"PD007"));
    }

    #[test]
    fn undeclared_intent_stays_silent() {
        // Multi-domain partitioning without isolation marks is not power
        // intent; the lint must not punish it (the paper benches rely on
        // this).
        let mut b = NetlistBuilder::new("partitioned");
        let a = b.input("a", 1);
        b.domain("unit");
        let inv = b.not(a.bit(0));
        b.domain("core");
        let out = b.not(inv);
        b.output("x", &Word::from_nets(vec![out]));
        let n = b.finish().unwrap();
        assert!(!n.has_power_intent());
        assert!(lint_power_intent(&n).is_clean());
        // The raw proof still answers what-if queries.
        let unit = n.domains().iter().position(|d| d == "unit").unwrap();
        assert!(!prove_domain_off(&n, unit).unwrap().is_isolated());
    }

    #[test]
    fn wrong_polarity_is_pd002_and_leaks() {
        // Parsed, not built: the builder cannot produce a contradictory
        // mark, but the attribute grammar can claim clamp1 on an AND.
        let text = "\
module wrongpol (a, en_n, x);
  input a;
  input en_n;
  output x;
  wire n3;
  wire n4;
  wire n5;
  wire n6;
  assign n3 = a[0];
  assign n4 = en_n[0];
  (* power_domain = \"unit\" *) not g0 (n5, n3);
  (* isolation = \"clamp1\" *) and g1 (n6, n5, n4);
  assign x[0] = n6;
endmodule
";
        let n = psm_rtl::parse_verilog(text).unwrap();
        assert!(n.has_power_intent());
        let report = lint_power_intent(&n);
        let codes = codes_of(&report);
        assert!(codes.contains(&"PD002"), "{}", report.text());
        // The contradictory cell protects nothing, so the crossing is
        // unisolated and the proof leaks through it.
        assert!(codes.contains(&"PD001"), "{}", report.text());
        assert!(codes.contains(&"PD007"), "{}", report.text());
    }

    #[test]
    fn uncontrollable_and_sandwiched_logic_warn() {
        let mut b = NetlistBuilder::new("pd45");
        let en_n = b.input("en_n", 1);
        b.domain("unit");
        let r = b.register("r", 1);
        let inv = b.not(r.q().bit(0));
        b.connect_register(&r, &Word::from_nets(vec![inv]));
        b.domain("core");
        let mid = b.not(inv); // always-on, feeds only `dsp`
        b.domain("dsp");
        let dsp = b.not(mid);
        b.domain("core");
        let out = b.isolation_cell(IsolationKind::Clamp0, dsp, en_n.bit(0));
        b.output("x", &Word::from_nets(vec![out]));
        let n = b.finish().unwrap();
        let report = lint_power_intent(&n);
        let codes = codes_of(&report);
        // Neither `unit` nor `dsp` sees any primary input.
        assert_eq!(codes.iter().filter(|c| **c == "PD004").count(), 2);
        assert!(codes.contains(&"PD005"), "{}", report.text());
        assert!(codes.contains(&"PD001"), "{}", report.text());
        // Powering `unit` down taints `mid` (frontier) but the clamp stops
        // it before the output.
        assert!(codes.contains(&"PD006"), "{}", report.text());
        assert!(!codes.contains(&"PD007"), "{}", report.text());
    }

    #[test]
    fn pointless_isolation_mark_is_pd003() {
        let mut b = NetlistBuilder::new("pointless");
        let a = b.input("a", 2);
        let en_n = b.input("en_n", 1);
        b.domain("unit");
        let inv = b.not(a.bit(0));
        b.domain("core");
        // A real clamp so intent is declared and the crossing is safe…
        let iso = b.isolation_cell(IsolationKind::Clamp0, inv, en_n.bit(0));
        // …and a second mark on a cell no crossing passes through.
        let pointless = b.isolation_cell(IsolationKind::Clamp0, iso, a.bit(1));
        b.output("x", &Word::from_nets(vec![pointless]));
        let n = b.finish().unwrap();
        let report = lint_power_intent(&n);
        let codes = codes_of(&report);
        assert!(codes.contains(&"PD003"), "{}", report.text());
        assert!(!report.has_errors(), "{}", report.text());
    }

    #[test]
    fn off_domain_state_loss_taints_registers() {
        // A register inside the gated domain loses its state; an unclamped
        // read of its q net leaks even though the net is sequential.
        let mut b = NetlistBuilder::new("seqleak");
        let a = b.input("a", 1);
        let en_n = b.input("en_n", 1);
        b.domain("unit");
        let r = b.register("r", 1);
        let nxt = b.xor(r.q().bit(0), a.bit(0));
        b.connect_register(&r, &Word::from_nets(vec![nxt]));
        b.domain("core");
        let iso = b.isolation_cell(IsolationKind::Clamp1, nxt, en_n.bit(0));
        let merged = b.and(r.q().bit(0), iso);
        b.output("x", &Word::from_nets(vec![merged]));
        let n = b.finish().unwrap();
        let unit = n.domains().iter().position(|d| d == "unit").unwrap();
        let proof = prove_domain_off(&n, unit).unwrap();
        assert!(!proof.is_isolated());
        assert!(proof
            .leaks
            .iter()
            .any(|l| l.path.first() == Some(&r.q().bit(0))));
    }

    #[test]
    fn out_of_range_domain_is_none() {
        let n = isolated_netlist();
        assert!(prove_domain_off(&n, n.domains().len()).is_none());
    }
}
