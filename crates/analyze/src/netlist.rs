//! Structural lints over the gate-level netlist IR.

use crate::{codes, AnalysisReport, Diagnostic};
use psm_rtl::{levelize, Netlist, RtlError};
use psm_trace::Direction;
use std::collections::{BTreeSet, VecDeque};

/// Statically checks a netlist for structural defects.
///
/// Emits, in order: `NL006` (cell arity mismatches, including LUT tables
/// too small for their pin count), `NL007` (net references beyond the net
/// count — if any are present the remaining checks are skipped, since the
/// netlist is not safely indexable), `NL002` (multi-driven nets), `NL003`
/// (read-but-undriven nets), `NL001` (combinational cycles, surfaced from
/// [`psm_rtl::levelize`]), `NL004` (dead logic cones that reach no output
/// port, register or memory) and `NL005` (input port bits nothing reads).
pub fn lint_netlist(netlist: &Netlist) -> AnalysisReport {
    let mut report = AnalysisReport::new(format!("netlist `{}`", netlist.name()));
    let nets = netlist.net_count();

    // NL006: pin counts that don't match the cell kind.
    for (gi, g) in netlist.gates().iter().enumerate() {
        match g.kind.arity() {
            Some(arity) if g.inputs.len() != arity => {
                report.push(Diagnostic::new(
                    &codes::NL006,
                    format!("gate #{gi} ({})", g.kind),
                    format!(
                        "{} expects {arity} input(s), has {}",
                        g.kind,
                        g.inputs.len()
                    ),
                ));
            }
            None => {
                // LUT: the packed table must cover all 2^k index values.
                if let psm_rtl::GateKind::Lut { table } = &g.kind {
                    let needed_words = (1usize << g.inputs.len()).div_ceil(64);
                    if table.len() < needed_words {
                        report.push(Diagnostic::new(
                            &codes::NL006,
                            format!("gate #{gi} (LUT)"),
                            format!(
                                "{}-input LUT needs {needed_words} table word(s), has {}",
                                g.inputs.len(),
                                table.len()
                            ),
                        ));
                    }
                }
            }
            Some(_) => {}
        }
    }

    // NL007: references outside the net table make every other analysis
    // unsound, so collect them and stop early when present.
    let mut out_of_range = BTreeSet::new();
    {
        let mut check = |n: psm_rtl::NetId| {
            if n.index() >= nets {
                out_of_range.insert(n.index());
            }
        };
        for g in netlist.gates() {
            g.inputs.iter().for_each(|&n| check(n));
            check(g.output);
        }
        for d in netlist.dffs() {
            check(d.d);
            check(d.q);
        }
        for m in netlist.memories() {
            m.inputs()
                .chain(m.rdata.iter().copied())
                .for_each(&mut check);
        }
        for p in netlist.ports() {
            p.nets().iter().for_each(|&n| check(n));
        }
    }
    for idx in &out_of_range {
        report.push(Diagnostic::new(
            &codes::NL007,
            format!("net n{idx}"),
            format!("referenced net n{idx} is beyond the net count {nets}"),
        ));
    }
    if !out_of_range.is_empty() {
        return report;
    }

    // Driver census, mirroring Netlist::validate but reporting every
    // offender instead of stopping at the first.
    let drivers = driver_counts(netlist);
    for (idx, &count) in drivers.iter().enumerate() {
        if count > 1 {
            report.push(Diagnostic::new(
                &codes::NL002,
                format!("net n{idx}"),
                format!("net n{idx} has {count} drivers"),
            ));
        }
    }

    // NL003: read nets without a driver.
    let read = read_nets(netlist);
    for idx in 0..nets {
        if read[idx] && drivers[idx] == 0 {
            report.push(Diagnostic::new(
                &codes::NL003,
                format!("net n{idx}"),
                format!("net n{idx} is read but has no driver"),
            ));
        }
    }

    // NL001: cyclic combinational logic.
    if let Err(RtlError::CombinationalLoop { net }) = levelize(netlist) {
        report.push(Diagnostic::new(
            &codes::NL001,
            format!("net {net}"),
            format!("combinational cycle through net {net}"),
        ));
    }

    // NL004: gates whose fan-out cone reaches no observable point.
    // Walk backwards from every sink (output port bits, register data
    // inputs, memory control/data/address pins) through gate drivers.
    let mut driver_gate: Vec<Option<usize>> = vec![None; nets];
    for (gi, g) in netlist.gates().iter().enumerate() {
        driver_gate[g.output.index()] = Some(gi);
    }
    let mut live_net = vec![false; nets];
    let mut queue = VecDeque::new();
    let seed = |n: psm_rtl::NetId, queue: &mut VecDeque<usize>, live: &mut Vec<bool>| {
        if !live[n.index()] {
            live[n.index()] = true;
            queue.push_back(n.index());
        }
    };
    for p in netlist.ports() {
        if p.direction() == Direction::Output {
            for &n in p.nets() {
                seed(n, &mut queue, &mut live_net);
            }
        }
    }
    for d in netlist.dffs() {
        seed(d.d, &mut queue, &mut live_net);
    }
    for n in netlist.memories().iter().flat_map(|m| m.inputs()) {
        seed(n, &mut queue, &mut live_net);
    }
    while let Some(idx) = queue.pop_front() {
        if let Some(gi) = driver_gate[idx] {
            for &n in &netlist.gates()[gi].inputs {
                if !live_net[n.index()] {
                    live_net[n.index()] = true;
                    queue.push_back(n.index());
                }
            }
        }
    }
    let dead: Vec<usize> = netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| !live_net[g.output.index()])
        .map(|(gi, _)| gi)
        .collect();
    if !dead.is_empty() {
        let first = &netlist.gates()[dead[0]];
        report.push(Diagnostic::new(
            &codes::NL004,
            format!("net {}", first.output),
            format!(
                "{} gate(s) reach no output, register or memory (first: {} driving {})",
                dead.len(),
                first.kind,
                first.output
            ),
        ));
    }

    // NL005: declared input bits that feed nothing.
    for p in netlist.ports() {
        if p.direction() != Direction::Input {
            continue;
        }
        let unused: Vec<usize> = p
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| !read[n.index()])
            .map(|(bit, _)| bit)
            .collect();
        if !unused.is_empty() {
            report.push(Diagnostic::new(
                &codes::NL005,
                format!("port `{}`", p.name()),
                format!(
                    "{} of {} input bit(s) never read (bits {:?})",
                    unused.len(),
                    p.width(),
                    unused
                ),
            ));
        }
    }

    report
}

/// How many cells drive each net: the constants, input-port bits, gate
/// and register outputs and memory read data. Every net reference must be
/// in range.
pub(crate) fn driver_counts(netlist: &Netlist) -> Vec<usize> {
    let mut drivers = vec![0usize; netlist.net_count()];
    let inputs = netlist
        .ports()
        .iter()
        .filter(|p| p.direction() == Direction::Input)
        .flat_map(|p| p.nets().iter().copied());
    let gates = netlist.gates().iter().map(|g| g.output);
    let flops = netlist.dffs().iter().map(|d| d.q);
    let memories = netlist
        .memories()
        .iter()
        .flat_map(|m| m.rdata.iter().copied());
    for n in [Netlist::CONST0, Netlist::CONST1]
        .into_iter()
        .chain(inputs)
        .chain(gates)
        .chain(flops)
        .chain(memories)
    {
        drivers[n.index()] += 1;
    }
    drivers
}

/// Which nets something reads: gate inputs, register data, memory input
/// pins and output-port bits. Every net reference must be in range.
pub(crate) fn read_nets(netlist: &Netlist) -> Vec<bool> {
    let mut read = vec![false; netlist.net_count()];
    let gates = netlist
        .gates()
        .iter()
        .flat_map(|g| g.inputs.iter().copied());
    let flops = netlist.dffs().iter().map(|d| d.d);
    let memories = netlist.memories().iter().flat_map(|m| m.inputs());
    let outputs = netlist
        .ports()
        .iter()
        .filter(|p| p.direction() == Direction::Output)
        .flat_map(|p| p.nets().iter().copied());
    for n in gates.chain(flops).chain(memories).chain(outputs) {
        read[n.index()] = true;
    }
    read
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_rtl::NetlistBuilder;

    fn codes_of(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    fn clean_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("clean");
        let a = b.input("a", 1);
        let c = b.input("c", 1);
        let x = b.and(a.bit(0), c.bit(0));
        b.output("x", &psm_rtl::Word::from_nets(vec![x]));
        b.finish().unwrap()
    }

    #[test]
    fn clean_netlist_has_no_diagnostics() {
        let report = lint_netlist(&clean_netlist());
        assert!(report.is_clean(), "{}", report.text());
    }

    #[test]
    fn artifact_names_the_module() {
        let report = lint_netlist(&clean_netlist());
        assert!(report.artifact().contains("clean"));
    }

    #[test]
    fn unused_input_bit_is_nl005() {
        let mut b = NetlistBuilder::new("widein");
        let a = b.input("a", 3);
        let c = b.not(a.bit(0));
        b.output("x", &psm_rtl::Word::from_nets(vec![c]));
        let n = b.finish().unwrap();
        let report = lint_netlist(&n);
        assert_eq!(codes_of(&report), vec!["NL005"]);
        let d = &report.diagnostics()[0];
        assert!(d.message.contains("2 of 3"), "{}", d.message);
    }
}
