//! Power-domain crossing queries over a [`Netlist`].
//!
//! Power domains partition the *cells* of a design; a net inherits the
//! domain of its driving cell. Constant nets and input-port bits have no
//! driving cell and count as always-on. A **domain crossing** is a net
//! whose driving cell and reading cell live in different domains — exactly
//! the boundaries that need isolation cells once a domain can be powered
//! down. This module computes the per-net domain map and the full crossing
//! graph; the semantic analysis on top of it (ternary off-domain proofs,
//! PD diagnostics) lives in `psm-analyze`.

use crate::gate::NetId;
use crate::netlist::Netlist;
use std::fmt;

/// Clamp polarity of an isolation cell.
///
/// An isolation cell sits in a still-on domain, reads a net driven inside a
/// gateable domain, and forces a known constant onto its output while that
/// domain is powered down: `Clamp0` parks the boundary at 0, `Clamp1` at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationKind {
    /// Output is clamped to 0 while the source domain is off.
    Clamp0,
    /// Output is clamped to 1 while the source domain is off.
    Clamp1,
}

impl IsolationKind {
    /// The constant the cell drives while isolation is active.
    pub fn clamp_value(self) -> bool {
        matches!(self, IsolationKind::Clamp1)
    }

    /// The attribute spelling (`"clamp0"` / `"clamp1"`).
    pub fn label(self) -> &'static str {
        match self {
            IsolationKind::Clamp0 => "clamp0",
            IsolationKind::Clamp1 => "clamp1",
        }
    }

    /// Parses the attribute spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "clamp0" => Some(IsolationKind::Clamp0),
            "clamp1" => Some(IsolationKind::Clamp1),
            _ => None,
        }
    }
}

impl fmt::Display for IsolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The cell on the reading side of a crossing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellRef {
    /// Combinational cell, by index into [`Netlist::gates`].
    Gate(usize),
    /// Flip-flop, by index into [`Netlist::dffs`].
    Dff(usize),
    /// SRAM macro, by index into [`Netlist::memories`].
    Memory(usize),
}

/// One edge of the domain-crossing graph: a net driven in `from` and read
/// by a cell in `to`, with `from != to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossingEdge {
    /// The crossing net (output of the driving cell in `from`).
    pub net: NetId,
    /// Domain index of the driving cell.
    pub from: usize,
    /// Domain index of the reading cell.
    pub to: usize,
    /// The reading cell.
    pub sink: CellRef,
}

impl Netlist {
    /// The domain of each net, derived from its driving cell.
    ///
    /// `None` marks nets with no driving cell: the two constants and
    /// input-port bits (both always-on by convention), plus any undriven
    /// nets in defective netlists.
    pub fn net_domains(&self) -> Vec<Option<usize>> {
        let mut map = vec![None; self.net_count()];
        for (g, &d) in self.gates().iter().zip(self.gate_domains()) {
            if let Some(slot) = map.get_mut(g.output.index()) {
                *slot = Some(d);
            }
        }
        for (ff, &d) in self.dffs().iter().zip(self.dff_domains()) {
            if let Some(slot) = map.get_mut(ff.q.index()) {
                *slot = Some(d);
            }
        }
        for (m, &d) in self.memories().iter().zip(self.mem_domains()) {
            for n in &m.rdata {
                if let Some(slot) = map.get_mut(n.index()) {
                    *slot = Some(d);
                }
            }
        }
        map
    }

    /// The full domain-crossing graph: every (net, sink cell) pair whose
    /// driver domain differs from the sink cell's domain.
    ///
    /// Edges are reported in cell order (gates, then flip-flops, then
    /// macros); a cell reading several crossing nets contributes one edge
    /// per net. A single-domain netlist always yields an empty graph.
    pub fn domain_crossings(&self) -> Vec<CrossingEdge> {
        let map = self.net_domains();
        let mut edges = Vec::new();
        let mut push = |net: NetId, to: usize, sink: CellRef| {
            if let Some(Some(from)) = map.get(net.index()) {
                if *from != to {
                    edges.push(CrossingEdge {
                        net,
                        from: *from,
                        to,
                        sink,
                    });
                }
            }
        };
        for (i, (g, &to)) in self.gates().iter().zip(self.gate_domains()).enumerate() {
            for &n in &g.inputs {
                push(n, to, CellRef::Gate(i));
            }
        }
        for (i, (ff, &to)) in self.dffs().iter().zip(self.dff_domains()).enumerate() {
            push(ff.d, to, CellRef::Dff(i));
        }
        for (i, (m, &to)) in self.memories().iter().zip(self.mem_domains()).enumerate() {
            for n in m.inputs() {
                push(n, to, CellRef::Memory(i));
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn isolation_kind_round_trips() {
        for k in [IsolationKind::Clamp0, IsolationKind::Clamp1] {
            assert_eq!(IsolationKind::parse(k.label()), Some(k));
            assert_eq!(k.to_string(), k.label());
        }
        assert_eq!(IsolationKind::parse("clampX"), None);
        assert!(!IsolationKind::Clamp0.clamp_value());
        assert!(IsolationKind::Clamp1.clamp_value());
    }

    #[test]
    fn single_domain_netlist_has_no_crossings() {
        let mut b = NetlistBuilder::new("flat");
        let a = b.input("a", 4);
        let r = b.register("r", 4);
        let s = b.add(&a, &r.q());
        b.connect_register(&r, &s.sum);
        b.output("y", &r.q());
        let n = b.finish().unwrap();
        assert!(n.domain_crossings().is_empty());
        assert!(!n.has_power_intent());
    }

    #[test]
    fn crossing_edges_span_distinct_domains() {
        let mut b = NetlistBuilder::new("dual");
        let a = b.input("a", 1);
        b.domain("unit");
        let inv = b.not_word(&a);
        b.domain("core");
        let back = b.not_word(&inv);
        b.output("y", &back);
        let n = b.finish().unwrap();
        let edges = n.domain_crossings();
        assert_eq!(edges.len(), 1);
        let e = edges[0];
        assert_ne!(e.from, e.to);
        assert_eq!(n.domains()[e.from], "unit");
        assert_eq!(n.domains()[e.to], "core");
        assert!(matches!(e.sink, CellRef::Gate(_)));
    }

    #[test]
    fn crossing_graph_is_complete_and_minimal() {
        // Property: against randomly generated multi-domain netlists, the
        // crossing graph equals the brute-force enumeration of every
        // (input net, reading cell) pair whose driver domain differs from
        // the cell domain — no edge missing (complete), none extra or
        // duplicated (minimal), and never a same-domain edge.
        use crate::builder::Word;
        use psm_prng::Prng;
        let names = ["core", "u0", "u1", "u2"];
        for seed in 0..50u64 {
            let mut rng = Prng::seed_from_u64(0x9e3779b97f4a7c15 ^ seed);
            let domain_count = rng.range_usize(1..names.len() + 1);
            let mut b = NetlistBuilder::new("rand");
            let a = b.input("a", 4);
            let mut pool: Vec<NetId> = (0..4).map(|i| a.bit(i)).collect();
            let mut regs = Vec::new();
            for i in 0..rng.range_usize(4..24) {
                b.domain(names[rng.range_usize(0..domain_count)]);
                if rng.chance(0.15) {
                    let r = b.register(format!("r{i}"), 1);
                    pool.push(r.q().bit(0));
                    regs.push(r);
                    continue;
                }
                let x = *rng.pick(&pool);
                let y = *rng.pick(&pool);
                let out = match rng.range_usize(0..4) {
                    0 => b.and(x, y),
                    1 => b.or(x, y),
                    2 => b.xor(x, y),
                    _ => b.not(x),
                };
                pool.push(out);
            }
            for r in &regs {
                let d = *rng.pick(&pool);
                b.connect_register(r, &Word::from_nets(vec![d]));
            }
            b.domain("core");
            let y = *rng.pick(&pool);
            b.output("y", &Word::from_nets(vec![y]));
            let n = b.finish().unwrap();

            let map = n.net_domains();
            let mut expect = Vec::new();
            for (i, (g, &to)) in n.gates().iter().zip(n.gate_domains()).enumerate() {
                for &inp in &g.inputs {
                    if let Some(from) = map[inp.index()] {
                        if from != to {
                            expect.push(CrossingEdge {
                                net: inp,
                                from,
                                to,
                                sink: CellRef::Gate(i),
                            });
                        }
                    }
                }
            }
            for (i, (ff, &to)) in n.dffs().iter().zip(n.dff_domains()).enumerate() {
                if let Some(from) = map[ff.d.index()] {
                    if from != to {
                        expect.push(CrossingEdge {
                            net: ff.d,
                            from,
                            to,
                            sink: CellRef::Dff(i),
                        });
                    }
                }
            }
            let edges = n.domain_crossings();
            assert_eq!(edges, expect, "seed {seed}");
            assert!(edges.iter().all(|e| e.from != e.to), "seed {seed}");
            if domain_count == 1 {
                assert!(edges.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn input_ports_and_constants_have_no_domain() {
        let mut b = NetlistBuilder::new("io");
        let a = b.input("a", 1);
        b.domain("unit");
        let x = b.not_word(&a);
        b.output("y", &x);
        let n = b.finish().unwrap();
        let map = n.net_domains();
        assert_eq!(map[Netlist::CONST0.index()], None);
        assert_eq!(map[Netlist::CONST1.index()], None);
        assert_eq!(map[a.bit(0).index()], None);
        assert_eq!(map[x.bit(0).index()], Some(1));
        // A PI read inside a domain is not a crossing.
        assert!(n.domain_crossings().is_empty());
    }
}
