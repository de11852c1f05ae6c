//! Netlist optimisation: constant propagation, algebraic simplification
//! and dead-cell elimination.
//!
//! The word-level builder is deliberately naive (ripple adders, full mux
//! trees), so designs carry foldable structure — constant operands,
//! buffers, muxes with constant selects. This pass performs the classic
//! logic-synthesis clean-up while provably preserving behaviour (the test
//! suite re-simulates optimised netlists against the originals on random
//! stimuli).

use crate::gate::{Gate, GateKind, NetId};
use crate::netlist::Netlist;
use crate::RtlError;
use psm_trace::Direction;

/// What [`optimize`] did to a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Cells whose output was folded to a constant or aliased to another
    /// net.
    pub folded: usize,
    /// Cells removed because nothing reads their output.
    pub dead: usize,
    /// Flip-flops replaced by constants (d tied to init).
    pub const_dffs: usize,
}

impl OptStats {
    /// Total cells removed.
    pub fn removed(&self) -> usize {
        self.folded + self.dead + self.const_dffs
    }
}

/// A net's resolved value during folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Const(bool),
    Net(NetId),
}

fn resolve(subst: &[Value], mut n: NetId) -> Value {
    loop {
        match subst[n.index()] {
            Value::Net(m) if m != n => n = m,
            v @ Value::Const(_) => return v,
            _ => return Value::Net(n),
        }
    }
}

/// Optimises a netlist: folds constants through gates, collapses buffers
/// and trivial gates, removes flip-flops stuck at their reset value, and
/// sweeps dead cells. Ports, port semantics and cycle-accurate behaviour
/// are preserved exactly.
///
/// # Errors
///
/// Returns an error only if the input netlist itself fails validation.
///
/// # Examples
///
/// ```
/// use psm_rtl::{optimize, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("foldable");
/// let a = b.input("a", 4);
/// let zero = b.const_word(0, 4);
/// // x = a & 0 is constant zero; y = a ^ 0 is just a.
/// let x = b.and_word(&a, &zero);
/// let y = b.xor_word(&a, &zero);
/// b.output("x", &x);
/// b.output("y", &y);
/// let n = b.finish()?;
/// let (opt, stats) = optimize(&n)?;
/// assert_eq!(opt.gates().len(), 0, "everything folds away");
/// assert_eq!(stats.removed(), 8);
/// # Ok::<(), psm_rtl::RtlError>(())
/// ```
pub fn optimize(netlist: &Netlist) -> Result<(Netlist, OptStats), RtlError> {
    netlist.validate()?;
    let n_nets = netlist.net_count();
    let mut subst: Vec<Value> = (0..n_nets).map(|i| Value::Net(NetId(i))).collect();
    subst[Netlist::CONST0.index()] = Value::Const(false);
    subst[Netlist::CONST1.index()] = Value::Const(true);

    let mut gates: Vec<Option<(Gate, usize)>> = netlist
        .gates()
        .iter()
        .cloned()
        .zip(netlist.gate_domains().iter().copied())
        .map(Some)
        .collect();
    let mut dffs: Vec<Option<(crate::netlist::Dff, usize)>> = netlist
        .dffs()
        .iter()
        .copied()
        .zip(netlist.dff_domains().iter().copied())
        .map(Some)
        .collect();
    let mut stats = OptStats::default();

    // --- constant folding / aliasing to a fixpoint ------------------------
    loop {
        let mut changed = false;

        for slot in gates.iter_mut() {
            let Some((g, _)) = slot else { continue };
            let ins: Vec<Value> = g.inputs.iter().map(|&n| resolve(&subst, n)).collect();
            let consts: Vec<Option<bool>> = ins
                .iter()
                .map(|v| match v {
                    Value::Const(c) => Some(*c),
                    Value::Net(_) => None,
                })
                .collect();

            // Fully constant cell.
            if consts.iter().all(Option::is_some) {
                let vals: Vec<bool> = consts.iter().map(|c| c.expect("checked")).collect();
                subst[g.output.index()] = Value::Const(g.kind.eval(&vals));
                *slot = None;
                stats.folded += 1;
                changed = true;
                continue;
            }

            // Algebraic simplifications with one constant operand.
            let alias: Option<Value> = match (&g.kind, consts.as_slice()) {
                (GateKind::Buf, _) => Some(ins[0]),
                (GateKind::And2, [Some(false), _]) | (GateKind::And2, [_, Some(false)]) => {
                    Some(Value::Const(false))
                }
                (GateKind::And2, [Some(true), _]) => Some(ins[1]),
                (GateKind::And2, [_, Some(true)]) => Some(ins[0]),
                (GateKind::Or2, [Some(true), _]) | (GateKind::Or2, [_, Some(true)]) => {
                    Some(Value::Const(true))
                }
                (GateKind::Or2, [Some(false), _]) => Some(ins[1]),
                (GateKind::Or2, [_, Some(false)]) => Some(ins[0]),
                (GateKind::Xor2, [Some(false), _]) => Some(ins[1]),
                (GateKind::Xor2, [_, Some(false)]) => Some(ins[0]),
                (GateKind::Mux2, [Some(sel), ..]) => Some(if *sel { ins[2] } else { ins[1] }),
                // Mux with identical branches ignores the select.
                (GateKind::Mux2, _) if ins[1] == ins[2] => Some(ins[1]),
                _ => None,
            };
            if let Some(v) = alias {
                subst[g.output.index()] = v;
                *slot = None;
                stats.folded += 1;
                changed = true;
                continue;
            }

            // Rewrite inputs in place so later passes see resolved nets.
            for (input, v) in g.inputs.iter_mut().zip(&ins) {
                let new = match v {
                    Value::Const(false) => Netlist::CONST0,
                    Value::Const(true) => Netlist::CONST1,
                    Value::Net(n) => *n,
                };
                if *input != new {
                    *input = new;
                    changed = true;
                }
            }
        }

        // Flip-flops stuck at their reset value.
        for slot in dffs.iter_mut() {
            let Some((d, _)) = slot else { continue };
            match resolve(&subst, d.d) {
                Value::Const(c) if c == d.init => {
                    subst[d.q.index()] = Value::Const(c);
                    *slot = None;
                    stats.const_dffs += 1;
                    changed = true;
                }
                Value::Net(n) if n != d.d => {
                    d.d = n;
                    changed = true;
                }
                Value::Const(c) => {
                    // Settles after one cycle but starts differently: keep
                    // the flop, just tie its input to the constant net.
                    let tied = if c { Netlist::CONST1 } else { Netlist::CONST0 };
                    if d.d != tied {
                        d.d = tied;
                        changed = true;
                    }
                }
                Value::Net(_) => {}
            }
        }

        if !changed {
            break;
        }
    }

    // --- dead-cell elimination ---------------------------------------------
    // Roots: output-port nets, flip-flop data, memory inputs.
    let final_net = |v: Value| -> NetId {
        match v {
            Value::Const(false) => Netlist::CONST0,
            Value::Const(true) => Netlist::CONST1,
            Value::Net(n) => n,
        }
    };
    let mut live = vec![false; n_nets];
    let mark = |n: NetId, live: &mut Vec<bool>| {
        live[n.index()] = true;
    };
    for p in netlist.ports() {
        if p.direction() == Direction::Output {
            for &n in p.nets() {
                mark(final_net(resolve(&subst, n)), &mut live);
            }
        }
    }
    for slot in dffs.iter().flatten() {
        mark(slot.0.d, &mut live);
    }
    for n in netlist.memories().iter().flat_map(|m| m.inputs()) {
        mark(final_net(resolve(&subst, n)), &mut live);
    }
    // Backward closure over remaining gates (levelized order reversed is
    // cheapest, but a fixpoint is simplest and the pass is cold).
    loop {
        let mut changed = false;
        for slot in gates.iter().flatten() {
            if live[slot.0.output.index()] {
                for &i in &slot.0.inputs {
                    if !live[i.index()] {
                        live[i.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for slot in gates.iter_mut() {
        if let Some((g, _)) = slot {
            if !live[g.output.index()] {
                *slot = None;
                stats.dead += 1;
            }
        }
    }

    // --- rebuild -------------------------------------------------------------
    let mut new_gates = Vec::new();
    let mut new_gate_domains = Vec::new();
    for (g, dom) in gates.into_iter().flatten() {
        new_gates.push(g);
        new_gate_domains.push(dom);
    }
    let mut new_dffs = Vec::new();
    let mut new_dff_domains = Vec::new();
    for (d, dom) in dffs.into_iter().flatten() {
        new_dffs.push(d);
        new_dff_domains.push(dom);
    }

    // Memories keep their structure; rewrite their input nets.
    let mut new_memories = netlist.memories().to_vec();
    for m in &mut new_memories {
        for n in m.addr.iter_mut().chain(m.wdata.iter_mut()) {
            *n = final_net(resolve(&subst, *n));
        }
        m.we = final_net(resolve(&subst, m.we));
        m.re = final_net(resolve(&subst, m.re));
        m.clear = final_net(resolve(&subst, m.clear));
    }

    // Ports: inputs keep their nets (they are sources); outputs follow the
    // substitution. Ports store nets immutably inside Netlist, so rebuild.
    let mut out = Netlist::from_parts(
        netlist.name().to_owned(),
        n_nets,
        new_gates,
        new_dffs,
        new_memories,
        Vec::new(),
        netlist.domains().to_vec(),
        new_gate_domains,
        new_dff_domains,
        netlist.mem_domains().to_vec(),
    );
    for p in netlist.ports() {
        let nets = match p.direction() {
            Direction::Input => p.nets().to_vec(),
            Direction::Output => p
                .nets()
                .iter()
                .map(|&n| final_net(resolve(&subst, n)))
                .collect(),
        };
        out.add_port(p.name().to_owned(), p.direction(), nets)?;
    }
    out.validate()?;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetlistBuilder, Simulator};
    use psm_trace::Bits;

    /// Random-vector equivalence between two netlists with one data input.
    fn assert_equiv(a: &Netlist, b: &Netlist, width: usize, cycles: usize) {
        let mut sa = Simulator::new(a).expect("acyclic");
        let mut sb = Simulator::new(b).expect("acyclic");
        let mut x = 0x2545F4914F6CDD1Du64;
        for t in 0..cycles {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = Bits::from_u64(x, width);
            sa.set_input("a", &v).expect("port");
            sb.set_input("a", &v).expect("port");
            sa.step();
            sb.step();
            for p in a.ports() {
                if p.direction() == Direction::Output {
                    assert_eq!(
                        sa.output(p.name()).expect("port"),
                        sb.output(p.name()).expect("port"),
                        "port {} at cycle {t}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn folds_constant_cones() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a", 8);
        let k = b.const_word(0x0F, 8);
        let x = b.and_word(&a, &k); // low nibble passes, high nibble zero
        let y = b.add(&x, &k).sum;
        b.output("y", &y);
        let n = b.finish().expect("builds");
        let (opt, stats) = optimize(&n).expect("optimises");
        assert!(stats.removed() > 0);
        assert!(opt.gates().len() < n.gates().len());
        assert_equiv(&n, &opt, 8, 200);
    }

    #[test]
    fn sweeps_dead_logic() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a", 8);
        let _unused = b.mul(&a, &a); // large dead cone
        let y = b.not_word(&a);
        b.output("y", &y);
        let n = b.finish().expect("builds");
        let (opt, stats) = optimize(&n).expect("optimises");
        assert_eq!(opt.gates().len(), 8, "only the inverters remain");
        assert!(stats.dead > 100);
        assert_equiv(&n, &opt, 8, 100);
    }

    #[test]
    fn removes_stuck_flops() {
        let mut b = NetlistBuilder::new("stuck");
        let a = b.input("a", 1);
        let r = b.register("r", 1); // d tied to 0 = init
        let zero_w = crate::Word::from_nets(vec![b.const0()]);
        b.connect_register(&r, &zero_w);
        let q = r.q();
        let y = b.or_word(&a, &q); // q is always 0 → y = a
        b.output("y", &y);
        let n = b.finish().expect("builds");
        let (opt, stats) = optimize(&n).expect("optimises");
        assert_eq!(stats.const_dffs, 1);
        assert!(opt.dffs().is_empty());
        assert!(opt.gates().is_empty(), "or(a, 0) aliases to a");
        assert_equiv(&n, &opt, 1, 50);
    }

    #[test]
    fn sequential_designs_stay_equivalent() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a", 4);
        let r = b.register("r", 4);
        let q = r.q();
        let zero = b.const_word(0, 4);
        let gated = b.mux_word(a.bit(0), &q, &zero); // half-constant mux
        let sum = b.add(&gated, &a).sum;
        b.connect_register(&r, &sum);
        b.output("q", &r.q());
        let n = b.finish().expect("builds");
        let (opt, _) = optimize(&n).expect("optimises");
        assert_equiv(&n, &opt, 4, 300);
    }

    #[test]
    fn benchmark_netlists_shrink_and_stay_valid() {
        use psm_trace::Direction;
        for name in ["MultSum", "AES", "Camellia"] {
            let ip = tests_support::ip_netlist(name);
            let (opt, stats) = optimize(&ip).expect("optimises");
            assert!(opt.validate().is_ok());
            assert!(
                stats.removed() > 0,
                "{name}: expected some foldable structure"
            );
            // Interfaces unchanged.
            assert_eq!(
                ip.ports()
                    .iter()
                    .filter(|p| p.direction() == Direction::Output)
                    .count(),
                opt.ports()
                    .iter()
                    .filter(|p| p.direction() == Direction::Output)
                    .count()
            );
        }
    }
}

/// Tiny internal hook so the optimiser tests can fetch benchmark netlists
/// without a dependency cycle on `psm-ips`.
#[cfg(test)]
pub(crate) mod tests_support {
    use crate::{Netlist, NetlistBuilder};

    /// Builds stand-in netlists with benchmark-like structure.
    pub fn ip_netlist(name: &str) -> Netlist {
        let mut b = NetlistBuilder::new(name);
        match name {
            "MultSum" => {
                let a = b.input("a", 16);
                let x = b.input("b", 16);
                let acc = b.register("acc", 32);
                let p = b.mul(&a, &x);
                let q = acc.q();
                let s = b.add(&q, &p).sum;
                b.connect_register(&acc, &s);
                b.output("sum", &acc.q());
            }
            _ => {
                // A generic round-ish structure with constant-heavy muxing.
                let d = b.input("a", 32);
                let st = b.register("st", 32);
                let k = b.const_word(0xDEAD_BEEF, 32);
                let q = st.q();
                let x = b.xor_word(&q, &k);
                let zero = b.const_word(0, 32);
                let sel = d.bit(0);
                let m = b.mux_word(sel, &x, &zero);
                let nxt = b.add(&m, &d).sum;
                b.connect_register(&st, &nxt);
                b.output("o", &st.q());
            }
        }
        b.finish().expect("builds")
    }
}
