//! Bit-parallel (64-lane) gate-level simulation and capture.
//!
//! The scalar [`Simulator`](crate::Simulator) settles one stimulus per run,
//! one `bool` per net per cycle. Training, however, captures *many
//! independent stimuli over the same netlist* — a workload that is
//! embarrassingly parallel at the bit level. [`BatchSimulator`] packs up to
//! 64 independent stimuli into one `u64` **lane word** per net
//! (struct-of-arrays: `values[net]` holds lane `l`'s value in bit `l`) and
//! evaluates the levelized netlist with whole-word bitwise operations, so
//! one instruction advances a gate for all lanes at once.
//!
//! The engine works in its own net index space, renumbered once at
//! construction: the sources (the two constants, input-port bits,
//! flip-flop outputs, memory read data, then any net nothing drives) come
//! first, and gate outputs follow in levelized order. Gate `i` of the
//! tape therefore writes net `first_out + i` (unless the netlist drives
//! some net twice), so the tape names no output and its writes walk
//! `values` sequentially. Every cell except a LUT compiles to one 16-byte
//! [`Op`] evaluated through the same branchless select.
//!
//! Switching-activity accounting stays *per lane* and **bit-identical** to
//! the scalar engine: every capacitance contribution is added to the
//! toggling lanes in exactly the order the scalar simulator would have
//! accumulated it, so the resulting [`CycleActivity`] values — and every
//! model trained from them — are byte-for-byte the same. The equivalence is
//! pinned by `tests/batch_equivalence.rs`.
//!
//! The scalar engine remains the independent reference implementation (and
//! the substrate of the exhaustive bounded-model-checking search in
//! `psm-analyze`, which forks simulators per input assignment); the batch
//! engine is the capture hot path. See `DESIGN.md` §3c for the lane layout.

use crate::gate::{GateKind, NetId};
use crate::harness::{check_stimuli, input_layout, CaptureResult, HierarchicalCapture, Stimulus};
use crate::levelize::levelize;
use crate::netlist::{MemoryMacro, Netlist};
use crate::power::{CycleActivity, PowerEstimator, PowerModel};
use crate::sim::{PortHandle, Simulator};
use crate::RtlError;
use psm_trace::{Bits, Direction, FunctionalTrace, PowerTrace};
use std::collections::HashMap;

/// One compiled combinational cell: 16 bytes, no output field (gate `i`
/// writes net `first_out + i`) and no accounting (that lives in the
/// per-op [`Charge`] table, read only when the cell toggles).
///
/// Every one- and two-input cell and the mux evaluate as the lane-wise
/// select `a ? b ^ xb : c ^ xc`, where `kind` bit 0 sets `xb` and bit 1
/// sets `xc` to all ones; constant operands point at the renumbered
/// `CONST0`/`CONST1` nets:
///
/// | cell | `a` | `b` | `c` | inverts |
/// |---|---|---|---|---|
/// | BUF x | x | 1 | 0 | |
/// | INV x | x | 0 | 1 | |
/// | AND2 x y | x | y | 0 | |
/// | OR2 x y | x | 1 | y | |
/// | XOR2 x y | x | y | y | `b` |
/// | NAND2 x y | x | y | 1 | `b` |
/// | NOR2 x y | x | 0 | y | `c` |
/// | MUX2 s lo hi | s | hi | lo | |
///
/// A LUT (`kind` = [`OP_LUT`]) instead reads its input list and table from
/// the shared pools: `a` = input-pool offset, `b` = input count, `c` =
/// table-pool offset. It is the only cell the step loop branches on.
#[derive(Clone, Copy)]
struct Op {
    a: u32,
    b: u32,
    c: u32,
    kind: u8,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// [`Op::kind`] bit that inverts the `b` operand of the select.
const OP_INV_B: u8 = 1;
/// [`Op::kind`] bit that inverts the `c` operand of the select.
const OP_INV_C: u8 = 2;
/// [`Op::kind`] of a per-lane table lookup (ROMs, S-boxes).
const OP_LUT: u8 = 4;

/// What one toggle of a gate output costs: its capacitance and the power
/// domain it is charged to. Indexed like the tape.
#[derive(Clone, Copy)]
struct Charge {
    cap: f64,
    dom: u32,
}

/// Batches of at most this many lanes accumulate through the fixed-trip,
/// branch-free loop of [`LaneSums::add_narrow`]; wider ones walk the set
/// bits of each toggle mask ([`LaneSums::add_wide`]), because adding
/// `+0.0` to 64 lanes for every toggled op costs more than the walk.
const NARROW_LANES: usize = 8;

/// A primary-input net staged for the next step: the new value and the
/// lanes that staged it, in the scalar engine's staging order.
struct StagedNet {
    net: u32,
    value: u64,
    care: u64,
}

/// One memory macro's pins in the renumbered index space.
struct MemPins {
    addr: Vec<u32>,
    wdata: Vec<u32>,
    we: u32,
    re: u32,
    clear: u32,
    rdata: Vec<u32>,
    dom: usize,
}

/// Per-lane accounting of one step: switched capacitance, toggle count
/// and (when tracked) switched capacitance per domain, `[dom * 64 + lane]`.
struct LaneSums {
    caps: [f64; 64],
    toggles: [u32; 64],
    /// Empty when domain tracking is disabled (total-only captures skip
    /// the extra accumulate per toggling lane).
    dom_caps: Vec<f64>,
}

impl LaneSums {
    /// Adds `cap` to every lane set in `mask`, in lane order — the per-lane
    /// equivalent of the scalar engine's single `+=`, so each lane sees the
    /// same f64 addition sequence. Only set lanes are touched (a
    /// `trailing_zeros` walk), so the cost scales with how many lanes
    /// toggled, not with the batch width.
    #[inline]
    fn scatter(&mut self, dom: usize, mut mask: u64, cap: f64) {
        if self.dom_caps.is_empty() {
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                self.caps[l] += cap;
                self.toggles[l] += 1;
                mask &= mask - 1;
            }
        } else {
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                self.caps[l] += cap;
                self.dom_caps[dom * 64 + l] += cap;
                self.toggles[l] += 1;
                mask &= mask - 1;
            }
        }
    }

    /// Charges the toggled gates of a wide batch: one [`scatter`] per
    /// toggled op, in tape order.
    ///
    /// [`scatter`]: LaneSums::scatter
    #[inline(never)]
    fn add_wide(&mut self, charges: &[Charge], ops: &[u32], masks: &[u64]) {
        for (&op, &mask) in ops.iter().zip(masks) {
            let Charge { cap, dom } = charges[op as usize];
            self.scatter(dom as usize, mask, cap);
        }
    }

    /// Charges the toggled gates of a batch of at most `W` lanes without
    /// a data-dependent branch: every op adds `cap` to each of the `W`
    /// lanes whose mask bit is set and `+0.0` to the others.
    ///
    /// This is bit-identical to adding to the set lanes only. Every running
    /// sum starts at a clock-tree constant that is `+0.0` or positive and
    /// only ever grows by non-negative capacitances, and `x + 0.0 == x`
    /// exactly for every such `x` (only `-0.0 + 0.0` differs, and no sum is
    /// ever `-0.0`). Lanes at or above the batch width add `+0.0` forever
    /// and are never read.
    #[inline(never)]
    fn add_narrow<const W: usize>(&mut self, charges: &[Charge], ops: &[u32], masks: &[u64]) {
        let caps: &mut [f64; W] = (&mut self.caps[..W]).try_into().expect("W ≤ 64");
        let toggles: &mut [u32; W] = (&mut self.toggles[..W]).try_into().expect("W ≤ 64");
        let lane_adds = |cap: f64, mask: u64| -> [f64; W] {
            let bits = cap.to_bits();
            std::array::from_fn(|l| f64::from_bits(bits & (mask >> l & 1).wrapping_neg()))
        };
        if self.dom_caps.is_empty() {
            for (&op, &mask) in ops.iter().zip(masks) {
                let adds = lane_adds(charges[op as usize].cap, mask);
                for l in 0..W {
                    caps[l] += adds[l];
                    toggles[l] += (mask >> l & 1) as u32;
                }
            }
        } else {
            for (&op, &mask) in ops.iter().zip(masks) {
                let Charge { cap, dom } = charges[op as usize];
                let adds = lane_adds(cap, mask);
                let base = dom as usize * 64;
                let dom_caps: &mut [f64; W] = (&mut self.dom_caps[base..base + W])
                    .try_into()
                    .expect("slice has W elements");
                for l in 0..W {
                    caps[l] += adds[l];
                    dom_caps[l] += adds[l];
                    toggles[l] += (mask >> l & 1) as u32;
                }
            }
        }
    }

    /// Charges the toggled gates of one step, in tape order: through the
    /// branch-free [`add_narrow`] for batches of at most [`NARROW_LANES`]
    /// lanes (its width rounded up to a power of two, so one lane does one
    /// lane's work), through [`add_wide`] above that.
    ///
    /// [`add_narrow`]: LaneSums::add_narrow
    /// [`add_wide`]: LaneSums::add_wide
    fn add_toggled(&mut self, lanes: usize, charges: &[Charge], ops: &[u32], masks: &[u64]) {
        match lanes {
            1 => self.add_narrow::<1>(charges, ops, masks),
            2 => self.add_narrow::<2>(charges, ops, masks),
            3 | 4 => self.add_narrow::<4>(charges, ops, masks),
            5..=NARROW_LANES => self.add_narrow::<NARROW_LANES>(charges, ops, masks),
            _ => self.add_wide(charges, ops, masks),
        }
    }
}

/// Evaluates one LUT cell lane by lane: gathers each active lane's input
/// bits into a table index and reads that lane's output bit.
#[inline(never)]
fn eval_lut(values: &[u64], inputs: &[u32], table: &[u64], lanes: usize) -> u64 {
    let mut word = 0u64;
    for l in 0..lanes {
        let mut idx = 0usize;
        for (k, &input) in inputs.iter().enumerate() {
            idx |= ((values[input as usize] >> l & 1) as usize) << k;
        }
        word |= (table[idx / 64] >> (idx % 64) & 1) << l;
    }
    word
}

/// The netlist in the engine's index space: the op tape with its
/// accounting table and LUT pools, and every pin the step loop reads, all
/// renumbered once.
struct Compiled {
    ops: Vec<Op>,
    charges: Vec<Charge>,
    lut_inputs: Vec<u32>,
    lut_tables: Vec<u64>,
    /// Net written by the first op; op `i` writes `first_out + i`.
    first_out: usize,
    /// Op `i`'s output net, listed only when some gate drives a net that
    /// another driver already numbered (a netlist that fails
    /// [`Netlist::validate`] with [`RtlError::MultipleDrivers`]); empty, and
    /// `first_out + i` in force, otherwise.
    outs: Vec<u32>,
    dff_q: Vec<u32>,
    dff_d: Vec<u32>,
    mems: Vec<MemPins>,
    /// Every port's nets, back to back in declaration order; port `p`
    /// owns `port_nets[port_start[p]..port_start[p + 1]]`.
    port_nets: Vec<u32>,
    port_start: Vec<usize>,
}

impl Compiled {
    /// Renumbers the nets and compiles the levelized cells to the tape.
    ///
    /// Sources take the low indices: the constants keep 0 and 1, then come
    /// input-port bits (declaration order), flip-flop outputs, memory read
    /// data and any net nothing drives; gate outputs follow in `order`.
    /// A net with several drivers keeps the one index its first driver in
    /// that sequence gave it, so every driver reads and writes the same
    /// word, as in the scalar engine.
    fn new(netlist: &Netlist, order: &[usize]) -> Self {
        let gates = netlist.gates();
        let mut by_index = vec![Netlist::CONST0, Netlist::CONST1];
        for p in netlist.ports() {
            if p.direction() == Direction::Input {
                by_index.extend_from_slice(p.nets());
            }
        }
        by_index.extend(netlist.dffs().iter().map(|d| d.q));
        for m in netlist.memories() {
            by_index.extend_from_slice(&m.rdata);
        }
        let mut driven = vec![false; netlist.net_count()];
        for net in by_index.iter().chain(gates.iter().map(|g| &g.output)) {
            driven[net.index()] = true;
        }
        by_index.extend((0..netlist.net_count()).filter(|&i| !driven[i]).map(NetId));
        // Numbers `net` unless an earlier driver already did.
        fn number(map: &mut [u32], next: &mut u32, net: NetId) {
            if map[net.index()] == u32::MAX {
                map[net.index()] = *next;
                *next += 1;
            }
        }
        let mut map = vec![u32::MAX; netlist.net_count()];
        let mut next = 0u32;
        for &net in &by_index {
            number(&mut map, &mut next, net);
        }
        let first_out = next as usize;
        for &gi in order {
            number(&mut map, &mut next, gates[gi].output);
        }
        let renum = |n: NetId| map[n.index()];
        let dense = order
            .iter()
            .enumerate()
            .all(|(i, &gi)| renum(gates[gi].output) as usize == first_out + i);
        let outs = if dense {
            Vec::new()
        } else {
            order.iter().map(|&gi| renum(gates[gi].output)).collect()
        };

        let gate_domains = netlist.gate_domains();
        let mut lut_inputs: Vec<u32> = Vec::new();
        let mut lut_tables: Vec<u64> = Vec::new();
        let (zero, one) = (renum(Netlist::CONST0), renum(Netlist::CONST1));
        let ops: Vec<Op> = order
            .iter()
            .map(|&gi| {
                let g = &gates[gi];
                let pin = |k: usize| renum(g.inputs[k]);
                let (a, b, c, kind) = match &g.kind {
                    GateKind::Buf => (pin(0), one, zero, 0),
                    GateKind::Not => (pin(0), zero, one, 0),
                    GateKind::And2 => (pin(0), pin(1), zero, 0),
                    GateKind::Or2 => (pin(0), one, pin(1), 0),
                    GateKind::Xor2 => (pin(0), pin(1), pin(1), OP_INV_B),
                    GateKind::Nand2 => (pin(0), pin(1), one, OP_INV_B),
                    GateKind::Nor2 => (pin(0), zero, pin(1), OP_INV_C),
                    GateKind::Mux2 => (pin(0), pin(2), pin(1), 0),
                    GateKind::Lut { table } => {
                        let in_off = lut_inputs.len() as u32;
                        lut_inputs.extend(g.inputs.iter().map(|&n| renum(n)));
                        let tab_off = lut_tables.len() as u32;
                        lut_tables.extend_from_slice(table);
                        (in_off, g.inputs.len() as u32, tab_off, OP_LUT)
                    }
                };
                Op { a, b, c, kind }
            })
            .collect();
        let charges = order
            .iter()
            .map(|&gi| Charge {
                cap: gates[gi].kind.capacitance_ff(),
                dom: gate_domains[gi] as u32,
            })
            .collect();

        let mems = netlist
            .memories()
            .iter()
            .zip(netlist.mem_domains())
            .map(|(m, &dom)| MemPins {
                addr: m.addr.iter().map(|&n| renum(n)).collect(),
                wdata: m.wdata.iter().map(|&n| renum(n)).collect(),
                we: renum(m.we),
                re: renum(m.re),
                clear: renum(m.clear),
                rdata: m.rdata.iter().map(|&n| renum(n)).collect(),
                dom,
            })
            .collect();
        let mut port_start = vec![0];
        let mut port_nets = Vec::new();
        for p in netlist.ports() {
            port_nets.extend(p.nets().iter().map(|&n| renum(n)));
            port_start.push(port_nets.len());
        }
        Compiled {
            ops,
            charges,
            lut_inputs,
            lut_tables,
            first_out,
            outs,
            dff_q: netlist.dffs().iter().map(|d| renum(d.q)).collect(),
            dff_d: netlist.dffs().iter().map(|d| renum(d.d)).collect(),
            mems,
            port_nets,
            port_start,
        }
    }

    /// Port `p`'s nets, in bit order.
    fn port(&self, p: usize) -> &[u32] {
        &self.port_nets[self.port_start[p]..self.port_start[p + 1]]
    }

    /// Settles the tape over `values`, whole words at a time. With `DENSE`,
    /// op `i` writes net `first_out + i`; otherwise it writes `outs[i]`.
    ///
    /// Whether a cell toggled is data-dependent and unpredictable, so
    /// instead of branching into the accounting per op, every op writes its
    /// index and toggle mask to the compaction buffer (`toggled_op`,
    /// `toggled_mask`) and a flag-add advances the cursor only when the mask
    /// is nonzero. Returns the number of toggled ops. Stable compaction
    /// keeps them in op order, which is what keeps the per-lane sums
    /// bit-identical to the scalar engine's.
    fn settle<const DENSE: bool>(
        &self,
        values: &mut [u64],
        lanes: usize,
        active: u64,
        toggled_op: &mut [u32],
        toggled_mask: &mut [u64],
    ) -> usize {
        let mut n_toggled = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            let new = if op.kind == OP_LUT {
                let a = op.a as usize;
                eval_lut(
                    values,
                    &self.lut_inputs[a..a + op.b as usize],
                    &self.lut_tables[op.c as usize..],
                    lanes,
                )
            } else {
                let sel = values[op.a as usize];
                let hi = values[op.b as usize] ^ u64::from(op.kind & OP_INV_B).wrapping_neg();
                // Below `OP_LUT`, `kind >> 1` is the `OP_INV_C` bit.
                let lo = values[op.c as usize] ^ u64::from(op.kind >> 1).wrapping_neg();
                lo ^ (sel & (hi ^ lo))
            };
            let out = if DENSE {
                self.first_out + i
            } else {
                self.outs[i] as usize
            };
            let mask = (values[out] ^ new) & active;
            values[out] = new;
            toggled_op[n_toggled] = i as u32;
            toggled_mask[n_toggled] = mask;
            n_toggled += usize::from(mask != 0);
        }
        n_toggled
    }
}

/// Cycle-based gate-level simulator over up to 64 independent stimulus
/// lanes.
///
/// Each lane is a fully independent simulation of the same netlist: lane
/// `l` of every net word carries that lane's value, flip-flop state,
/// memory contents and activity accounting. [`step`](BatchSimulator::step)
/// advances all lanes by one clock cycle using whole-word bitwise
/// evaluation of the levelized logic; the per-lane [`CycleActivity`]
/// results are bit-identical to what the scalar
/// [`Simulator`](crate::Simulator) produces for each stimulus on its own.
///
/// # Examples
///
/// Two lanes of a 4-bit accumulator, stepped together:
///
/// ```
/// use psm_rtl::{BatchSimulator, NetlistBuilder};
/// use psm_trace::Bits;
///
/// let mut b = NetlistBuilder::new("acc4");
/// let d = b.input("d", 4);
/// let acc = b.register("acc", 4);
/// let sum = b.add(&acc.q(), &d);
/// b.connect_register(&acc, &sum.sum);
/// b.output("q", &acc.q());
/// let netlist = b.finish()?;
///
/// let mut sim = BatchSimulator::new(&netlist, 2)?;
/// let d = sim.port_handle("d")?;
/// for _ in 0..3 {
///     sim.set_input(0, d, &Bits::from_u64(1, 4))?; // lane 0 adds 1
///     sim.set_input(1, d, &Bits::from_u64(2, 4))?; // lane 1 adds 2
///     sim.step();
/// }
/// let q = sim.port_handle("q")?;
/// assert_eq!(sim.output_by_handle(0, q).to_u64()?, 2);
/// assert_eq!(sim.output_by_handle(1, q).to_u64()?, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchSimulator<'a> {
    netlist: &'a Netlist,
    compiled: Compiled,
    lanes: usize,
    /// Mask with one bit set per active lane.
    active: u64,
    /// Lane word per renumbered net (struct-of-arrays layout). Gate
    /// outputs are stored unmasked: bits at or above `lanes` hold
    /// don't-care values that no toggle mask and no reader sees.
    values: Vec<u64>,
    /// Lane word per flip-flop: next `q`, sampled at the previous edge.
    pending_q: Vec<u64>,
    /// Per-macro, lane-major storage: `mem_base[mi] + lane * words + addr`.
    mem_contents: Vec<u64>,
    mem_base: Vec<usize>,
    /// Next read-register value, `[mi * 64 + lane]`.
    mem_pending: Vec<u64>,
    /// Previous-cycle bus values, `[mi * 64 + lane]`.
    mem_prev_addr: Vec<usize>,
    mem_prev_wdata: Vec<u64>,
    staged: Vec<StagedNet>,
    /// Per renumbered net: 1 + index into `staged`, or 0 when not staged
    /// this cycle.
    staged_slot: Vec<u32>,
    sums: LaneSums,
    /// Step-scoped toggle compaction buffer, one slot per op: the index of
    /// each toggled op and its toggle mask. The eval loop writes every op
    /// branch-free and advances the cursor only on a nonzero mask; the
    /// accounting pass then reads just the compacted prefix, in op order.
    toggled_op: Vec<u32>,
    toggled_mask: Vec<u64>,
    /// Clock-tree capacitance added to every lane every cycle, computed
    /// with the scalar engine's exact expression.
    clock_cap_total: f64,
    /// Per-domain clock-tree base, accumulated in the scalar engine's
    /// exact per-cell order.
    clock_dom_base: Vec<f64>,
    activities: Vec<CycleActivity>,
    port_index: HashMap<String, usize>,
    cycle: u64,
}

impl<'a> BatchSimulator<'a> {
    /// The lane capacity of one batch: the width of the `u64` lane word.
    pub const MAX_LANES: usize = 64;

    /// Prepares a batch simulator for `lanes` independent stimuli
    /// (levelizing, renumbering and compiling the netlist's logic).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::CombinationalLoop`] on cyclic combinational
    /// logic.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or exceeds
    /// [`MAX_LANES`](Self::MAX_LANES).
    pub fn new(netlist: &'a Netlist, lanes: usize) -> Result<Self, RtlError> {
        Self::with_domain_tracking(netlist, lanes, true)
    }

    /// Like [`new`](Self::new), but optionally without per-domain
    /// accounting: total-only capture paths skip one accumulate per
    /// toggling lane per cell. With tracking off,
    /// [`domain_activity`](Self::domain_activity) panics.
    pub(crate) fn with_domain_tracking(
        netlist: &'a Netlist,
        lanes: usize,
        track_domains: bool,
    ) -> Result<Self, RtlError> {
        assert!(
            (1..=Self::MAX_LANES).contains(&lanes),
            "lanes must be in 1..={}, got {lanes}",
            Self::MAX_LANES
        );
        let order = levelize(netlist)?;
        let compiled = Compiled::new(netlist, &order);

        // The scalar engine's per-step clock constants, reproduced with the
        // same expressions so per-lane accounting starts from identical
        // floating-point values.
        let clock_cap_total = netlist.dffs().len() as f64 * Simulator::CLOCK_PIN_CAP_FF
            + netlist.memories().len() as f64 * MemoryMacro::CLOCK_CAP_FF;
        let mut clock_dom_base = vec![0.0f64; netlist.domains().len()];
        for &dom in netlist.dff_domains() {
            clock_dom_base[dom] += Simulator::CLOCK_PIN_CAP_FF;
        }
        for &dom in netlist.mem_domains() {
            clock_dom_base[dom] += MemoryMacro::CLOCK_CAP_FF;
        }

        let mut mem_base = Vec::with_capacity(netlist.memories().len());
        let mut mem_words = 0usize;
        for m in netlist.memories() {
            mem_base.push(mem_words);
            mem_words += m.words() * lanes;
        }

        let n_ops = compiled.ops.len();
        let mut sim = BatchSimulator {
            netlist,
            compiled,
            lanes,
            active: if lanes == Self::MAX_LANES {
                !0
            } else {
                (1u64 << lanes) - 1
            },
            values: vec![0; netlist.net_count()],
            pending_q: vec![0; netlist.dffs().len()],
            mem_contents: vec![0; mem_words],
            mem_base,
            mem_pending: vec![0; netlist.memories().len() * 64],
            mem_prev_addr: vec![0; netlist.memories().len() * 64],
            mem_prev_wdata: vec![0; netlist.memories().len() * 64],
            staged: Vec::new(),
            staged_slot: vec![0; netlist.net_count()],
            sums: LaneSums {
                caps: [0.0; 64],
                toggles: [0; 64],
                dom_caps: if track_domains {
                    vec![0.0; netlist.domains().len() * 64]
                } else {
                    Vec::new()
                },
            },
            toggled_op: vec![0; n_ops],
            toggled_mask: vec![0; n_ops],
            clock_cap_total,
            clock_dom_base,
            activities: vec![CycleActivity::default(); lanes],
            port_index: netlist
                .ports()
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name().to_owned(), i))
                .collect(),
            cycle: 0,
        };
        sim.reset();
        Ok(sim)
    }

    /// Number of active lanes in this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of completed cycles since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns every lane to the post-reset state: all nets low, registers
    /// at their initial values, memories zeroed, no staged inputs.
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0);
        self.values[1] = !0; // CONST1 keeps its index
        for ((d, &q), pending) in self
            .netlist
            .dffs()
            .iter()
            .zip(&self.compiled.dff_q)
            .zip(&mut self.pending_q)
        {
            let word = if d.init { !0 } else { 0 };
            *pending = word;
            self.values[q as usize] = word;
        }
        self.mem_contents.iter_mut().for_each(|v| *v = 0);
        self.mem_pending.iter_mut().for_each(|v| *v = 0);
        self.mem_prev_addr.iter_mut().for_each(|v| *v = 0);
        self.mem_prev_wdata.iter_mut().for_each(|v| *v = 0);
        for s in self.staged.drain(..) {
            self.staged_slot[s.net as usize] = 0;
        }
        self.cycle = 0;
    }

    /// Resolves a port name once, for hot-loop stimulus application.
    /// Handles are interchangeable with the scalar
    /// [`Simulator`](crate::Simulator)'s.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownPort`] for undeclared names.
    pub fn port_handle(&self, name: &str) -> Result<PortHandle, RtlError> {
        self.port_index
            .get(name)
            .copied()
            .map(PortHandle::from_index)
            .ok_or_else(|| RtlError::UnknownPort(name.to_owned()))
    }

    /// Iterates over input port handles in declaration order.
    pub fn input_handles(&self) -> Vec<(String, PortHandle)> {
        self.netlist
            .ports()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction() == Direction::Input)
            .map(|(i, p)| (p.name().to_owned(), PortHandle::from_index(i)))
            .collect()
    }

    /// Stages a value on an input port of one lane; it takes effect at the
    /// next [`step`](BatchSimulator::step).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::PortWidthMismatch`] when the value's width
    /// differs from the port's.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn set_input(&mut self, lane: usize, h: PortHandle, value: &Bits) -> Result<(), RtlError> {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        let port = &self.netlist.ports()[h.index()];
        if port.width() != value.width() {
            return Err(RtlError::PortWidthMismatch {
                port: port.name().to_owned(),
                expected: port.width(),
                actual: value.width(),
            });
        }
        self.stage(lane, h.index(), value.as_words());
        Ok(())
    }

    /// Stages port `port` of one lane from its little-endian words, LSB
    /// first: the staging [`set_input`](BatchSimulator::set_input) does
    /// once the width is checked.
    fn stage(&mut self, lane: usize, port: usize, words: &[u64]) {
        let lane_bit = 1u64 << lane;
        for (i, &net) in self.compiled.port(port).iter().enumerate() {
            let slot = &mut self.staged_slot[net as usize];
            let entry = if *slot == 0 {
                self.staged.push(StagedNet {
                    net,
                    value: 0,
                    care: 0,
                });
                *slot = self.staged.len() as u32;
                self.staged.last_mut().expect("just pushed")
            } else {
                &mut self.staged[*slot as usize - 1]
            };
            entry.care |= lane_bit;
            if words[i / 64] >> (i % 64) & 1 != 0 {
                entry.value |= lane_bit;
            } else {
                entry.value &= !lane_bit;
            }
        }
    }

    /// Runs one clock cycle on every lane.
    ///
    /// The phase order matches the scalar engine exactly: clock tree,
    /// flip-flop/macro edge, staged inputs, levelized combinational
    /// settle, memory-access accounting, flip-flop sampling. Per-lane
    /// activity is then available from
    /// [`activities`](BatchSimulator::activities) and
    /// [`domain_activity`](BatchSimulator::domain_activity).
    pub fn step(&mut self) {
        let active = self.active;
        let lanes = self.lanes;
        let dff_cap = Netlist::dff_capacitance_ff();
        let sums = &mut self.sums;

        // Clock tree: identical constants for every lane, accumulated with
        // the scalar engine's expressions.
        for l in 0..lanes {
            sums.caps[l] = self.clock_cap_total;
            sums.toggles[l] = 0;
        }
        if !sums.dom_caps.is_empty() {
            for (d, &base) in self.clock_dom_base.iter().enumerate() {
                for l in 0..lanes {
                    sums.dom_caps[d * 64 + l] = base;
                }
            }
        }

        // 1. Clock edge: apply pending flip-flop and macro outputs.
        for ((&net, &q), &dom) in self
            .compiled
            .dff_q
            .iter()
            .zip(&self.pending_q)
            .zip(self.netlist.dff_domains())
        {
            let value = &mut self.values[net as usize];
            let mask = (*value ^ q) & active;
            *value = q;
            if mask != 0 {
                sums.scatter(dom, mask, dff_cap);
            }
        }
        for (mi, pins) in self.compiled.mems.iter().enumerate() {
            let pending = &self.mem_pending[mi * 64..mi * 64 + lanes];
            for (bit, &net) in pins.rdata.iter().enumerate() {
                let mut word = 0u64;
                for (l, &p) in pending.iter().enumerate() {
                    word |= (p >> bit & 1) << l;
                }
                let value = &mut self.values[net as usize];
                let mask = (*value ^ word) & active;
                if mask != 0 {
                    *value = word;
                    sums.scatter(pins.dom, mask, MemoryMacro::RDATA_CAP_FF);
                }
            }
        }

        // 2. Apply staged inputs in staging order (port-major, LSB-first —
        //    the order every lane's scalar run would use).
        const INPUT_WIRE_CAP_FF: f64 = 0.5;
        for s in &self.staged {
            let idx = s.net as usize;
            let old = self.values[idx];
            let new = (old & !s.care) | (s.value & s.care);
            let mask = old ^ new;
            if mask != 0 {
                self.values[idx] = new;
                sums.scatter(0, mask, INPUT_WIRE_CAP_FF);
            }
            self.staged_slot[idx] = 0;
        }
        self.staged.clear();

        // 3. Settle combinational logic in tape order, then charge the
        //    toggled ops in the same order.
        let (values, ops, masks) = (
            &mut self.values,
            &mut self.toggled_op,
            &mut self.toggled_mask,
        );
        let n_toggled = if self.compiled.outs.is_empty() {
            self.compiled
                .settle::<true>(values, lanes, active, ops, masks)
        } else {
            self.compiled
                .settle::<false>(values, lanes, active, ops, masks)
        };
        sums.add_toggled(
            lanes,
            &self.compiled.charges,
            &self.toggled_op[..n_toggled],
            &self.toggled_mask[..n_toggled],
        );

        // 3b. Memory-macro accesses, per macro then per lane so each
        //     lane's additions arrive in the scalar engine's order.
        for (mi, (mem, pins)) in self
            .netlist
            .memories()
            .iter()
            .zip(&self.compiled.mems)
            .enumerate()
        {
            let words = mem.words();
            for l in 0..lanes {
                let lane_bit = |net: u32| self.values[net as usize] >> l & 1;
                let mut addr = 0usize;
                for (bit, &net) in pins.addr.iter().enumerate() {
                    addr |= (lane_bit(net) as usize) << bit;
                }
                let we = lane_bit(pins.we) == 1;
                let re = lane_bit(pins.re) == 1;
                let clear = lane_bit(pins.clear) == 1;
                let cell = self.mem_base[mi] + l * words + addr;
                let stored = self.mem_contents[cell];
                let mut wdata_now = 0u64;
                for (bit, &net) in pins.wdata.iter().enumerate() {
                    wdata_now |= lane_bit(net) << bit;
                }
                let prev_addr = self.mem_prev_addr[mi * 64 + l];
                let prev_wdata = self.mem_prev_wdata[mi * 64 + l];
                let mut mem_cap = 0.0;
                mem_cap += MemoryMacro::ADDR_BUS_CAP_FF * ((prev_addr ^ addr).count_ones()) as f64;
                mem_cap +=
                    MemoryMacro::WDATA_BUS_CAP_FF * ((prev_wdata ^ wdata_now).count_ones()) as f64;
                self.mem_prev_addr[mi * 64 + l] = addr;
                self.mem_prev_wdata[mi * 64 + l] = wdata_now;
                if re || we {
                    mem_cap += MemoryMacro::WORDLINE_CAP_FF
                        + MemoryMacro::ACCESS_CAP_PER_BIT_FF * mem.width() as f64;
                }
                if we {
                    let flipped = (stored ^ wdata_now).count_ones();
                    mem_cap += MemoryMacro::WRITE_CELL_CAP_FF * flipped as f64;
                    self.mem_contents[cell] = wdata_now;
                }
                sums.caps[l] += mem_cap;
                if !sums.dom_caps.is_empty() {
                    sums.dom_caps[pins.dom * 64 + l] += mem_cap;
                }
                if clear {
                    self.mem_pending[mi * 64 + l] = 0;
                } else if re {
                    self.mem_pending[mi * 64 + l] = stored;
                }
            }
        }

        // 4. Sample flip-flop inputs for the next edge.
        for (&d, pending) in self.compiled.dff_d.iter().zip(&mut self.pending_q) {
            *pending = self.values[d as usize];
        }

        self.cycle += 1;
        for l in 0..lanes {
            self.activities[l] = CycleActivity {
                switched_capacitance_ff: sums.caps[l],
                toggled_nets: sums.toggles[l],
            };
        }
    }

    /// Per-lane switching activity of the most recent
    /// [`step`](BatchSimulator::step), indexed by lane.
    pub fn activities(&self) -> &[CycleActivity] {
        &self.activities
    }

    /// Switched capacitance per power domain of one lane during the most
    /// recent [`step`](BatchSimulator::step) (fF), indexed like
    /// [`Netlist::domains`].
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn domain_activity(&self, lane: usize) -> Vec<f64> {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        assert!(
            self.sums.dom_caps.len() >= self.netlist.domains().len() * 64,
            "domain tracking is disabled for this batch"
        );
        (0..self.netlist.domains().len())
            .map(|d| self.sums.dom_caps[d * 64 + lane])
            .collect()
    }

    /// ORs lane `lane`'s value of every net in `nets` into `words`, bit `i`
    /// of the port at bit `i % 64` of word `i / 64`. `words` must be zero.
    fn gather(&self, lane: usize, nets: &[u32], words: &mut [u64]) {
        for (i, &net) in nets.iter().enumerate() {
            words[i / 64] |= (self.values[net as usize] >> lane & 1) << (i % 64);
        }
    }

    /// Reads the settled value of a port on one lane for the current
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn output_by_handle(&self, lane: usize, h: PortHandle) -> Bits {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        let nets = self.compiled.port(h.index());
        let mut words = [0u64; 4];
        let mut spill: Vec<u64>;
        let words: &mut [u64] = if nets.len() <= 256 {
            &mut words[..nets.len().div_ceil(64)]
        } else {
            spill = vec![0; nets.len().div_ceil(64)];
            &mut spill
        };
        self.gather(lane, nets, words);
        Bits::from_words(words, nets.len())
    }

    /// Reads every port of one lane in declaration order — one
    /// functional-trace cycle, identical to the scalar engine's
    /// [`sample_ports`](crate::Simulator::sample_ports).
    pub fn sample_ports(&self, lane: usize) -> Vec<Bits> {
        (0..self.netlist.ports().len())
            .map(|i| self.output_by_handle(lane, PortHandle::from_index(i)))
            .collect()
    }

    /// Writes every port of one lane into `row`, laid out as one row of a
    /// [`FunctionalTrace`] over [`Netlist::signal_set`]: ports in
    /// declaration order, each in its own `width.div_ceil(64)` words.
    fn sample_row(&self, lane: usize, row: &mut [u64]) {
        row.fill(0);
        let mut word = 0;
        for p in 0..self.netlist.ports().len() {
            let nets = self.compiled.port(p);
            let end = word + nets.len().div_ceil(64);
            self.gather(lane, nets, &mut row[word..end]);
            word = end;
        }
    }
}

/// Captures paired functional + power traces for many stimuli in one
/// bit-parallel run — the batch twin of
/// [`capture_traces`](crate::capture_traces).
///
/// Stimuli are packed 64 to a lane word; result `i` is byte-identical to
/// `capture_traces(netlist, model, &stimuli[i], seeds[i])`. Stimuli of
/// different lengths may share a batch: each lane stops recording at its
/// own length.
///
/// # Errors
///
/// Same conditions as [`capture_traces`](crate::capture_traces). A
/// malformed stimulus fails the whole call (the lowest lane's error wins),
/// not just its own lane, and before any lane group is simulated.
///
/// # Panics
///
/// Panics when `seeds.len() != stimuli.len()`.
///
/// # Examples
///
/// ```
/// use psm_rtl::{capture_traces, capture_traces_batch, NetlistBuilder, PowerModel, Stimulus};
/// use psm_trace::Bits;
///
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a", 1);
/// let y = b.not_word(&a);
/// b.output("y", &y);
/// let n = b.finish()?;
///
/// let stimuli: Vec<Stimulus> = (0..3)
///     .map(|k| (0..4).map(|i| vec![Bits::from_u64((i + k) % 2, 1)]).collect())
///     .collect();
/// let batch = capture_traces_batch(&n, &PowerModel::default(), &stimuli, &[7, 8, 9])?;
/// for (k, result) in batch.iter().enumerate() {
///     let scalar = capture_traces(&n, &PowerModel::default(), &stimuli[k], 7 + k as u64)?;
///     assert_eq!(result.power, scalar.power);
///     assert_eq!(result.functional, scalar.functional);
/// }
/// # Ok::<(), psm_rtl::RtlError>(())
/// ```
pub fn capture_traces_batch(
    netlist: &Netlist,
    model: &PowerModel,
    stimuli: &[Stimulus],
    seeds: &[u64],
) -> Result<Vec<CaptureResult>, RtlError> {
    assert_eq!(
        stimuli.len(),
        seeds.len(),
        "one noise seed per stimulus is required"
    );
    check_stimuli(&input_layout(&netlist.signal_set()), stimuli)?;
    let mut out = Vec::with_capacity(stimuli.len());
    for (chunk, chunk_seeds) in stimuli
        .chunks(BatchSimulator::MAX_LANES)
        .zip(seeds.chunks(BatchSimulator::MAX_LANES))
    {
        // Total-only capture: skip the per-domain accounting entirely —
        // the per-lane total is unaffected (see `LaneSums`).
        capture_group(netlist, model, chunk, chunk_seeds, false, &mut out)?;
    }
    Ok(out
        .into_iter()
        .map(|h| CaptureResult {
            functional: h.functional,
            power: h.total,
        })
        .collect())
}

/// Like [`capture_traces_batch`], additionally recording one golden power
/// trace per power domain — the batch twin of
/// [`capture_traces_by_domain`](crate::capture_traces_by_domain), with the
/// same per-domain estimator seeding (`seed ^ (0xD00D + domain)`).
///
/// # Errors
///
/// Same conditions as [`capture_traces_batch`].
///
/// # Panics
///
/// Panics when `seeds.len() != stimuli.len()`.
pub fn capture_traces_by_domain_batch(
    netlist: &Netlist,
    model: &PowerModel,
    stimuli: &[Stimulus],
    seeds: &[u64],
) -> Result<Vec<HierarchicalCapture>, RtlError> {
    assert_eq!(
        stimuli.len(),
        seeds.len(),
        "one noise seed per stimulus is required"
    );
    check_stimuli(&input_layout(&netlist.signal_set()), stimuli)?;
    let mut out = Vec::with_capacity(stimuli.len());
    for (chunk, chunk_seeds) in stimuli
        .chunks(BatchSimulator::MAX_LANES)
        .zip(seeds.chunks(BatchSimulator::MAX_LANES))
    {
        capture_group(netlist, model, chunk, chunk_seeds, true, &mut out)?;
    }
    Ok(out)
}

/// Captures one lane group (≤ 64 stimuli, already checked against the
/// netlist's inputs) in a single batch run. With `track_domains` off, the
/// per-domain traces are left empty and the engine skips domain
/// accounting altogether.
fn capture_group(
    netlist: &Netlist,
    model: &PowerModel,
    stimuli: &[Stimulus],
    seeds: &[u64],
    track_domains: bool,
    out: &mut Vec<HierarchicalCapture>,
) -> Result<(), RtlError> {
    let lanes = stimuli.len();
    if lanes == 0 {
        return Ok(());
    }
    let mut sim = BatchSimulator::with_domain_tracking(netlist, lanes, track_domains)?;
    let n_domains = if track_domains {
        netlist.domains().len()
    } else {
        0
    };
    // Per-lane estimators, seeded exactly as the scalar capture seeds its
    // per-stimulus estimators: the baseline lives in domain 0 only.
    let zero_base = PowerModel::new(
        model.vdd(),
        model.freq_mhz(),
        f64::MIN_POSITIVE,
        model.noise_fraction(),
    );
    let mut estimators: Vec<PowerEstimator> = seeds
        .iter()
        .map(|&seed| PowerEstimator::new(*model, seed))
        .collect();
    let mut domain_estimators: Vec<Vec<PowerEstimator>> = seeds
        .iter()
        .map(|&seed| {
            (0..n_domains)
                .map(|d| {
                    let m = if d == 0 { *model } else { zero_base };
                    PowerEstimator::new(m, seed ^ (0xD0_0D + d as u64))
                })
                .collect()
        })
        .collect();

    let signals = netlist.signal_set();
    let inputs = input_layout(&signals);
    let input_handles = sim.input_handles();
    let port_words: Vec<_> = inputs.iter().map(|(id, _)| inputs.word_range(id)).collect();
    let mut row = vec![0u64; signals.words_per_cycle()];
    let mut functional: Vec<FunctionalTrace> = stimuli
        .iter()
        .map(|s| FunctionalTrace::with_capacity(signals.clone(), s.len()))
        .collect();
    let mut total: Vec<PowerTrace> = stimuli
        .iter()
        .map(|s| PowerTrace::with_capacity(s.len()))
        .collect();
    let mut by_domain: Vec<Vec<PowerTrace>> = stimuli
        .iter()
        .map(|s| {
            (0..n_domains)
                .map(|_| PowerTrace::with_capacity(s.len()))
                .collect()
        })
        .collect();

    let max_len = stimuli.iter().map(Stimulus::len).max().unwrap_or(0);
    for t in 0..max_len {
        // Port-major, lane-minor staging keeps each lane's staged-net
        // order identical to its scalar run.
        for ((_, handle), words) in input_handles.iter().zip(&port_words) {
            for (l, stim) in stimuli.iter().enumerate() {
                if t < stim.len() {
                    sim.stage(l, handle.index(), &stim.row(t)[words.clone()]);
                }
            }
        }
        sim.step();
        for (l, stim) in stimuli.iter().enumerate() {
            if t >= stim.len() {
                continue;
            }
            let activity = sim.activities()[l];
            sim.sample_row(l, &mut row);
            functional[l].push_words(&row)?;
            total[l].push(estimators[l].next_sample(&activity));
            if track_domains {
                let lane_domains = sim.domain_activity(l);
                for (d, trace) in by_domain[l].iter_mut().enumerate() {
                    let a = CycleActivity {
                        switched_capacitance_ff: lane_domains[d],
                        toggled_nets: 0,
                    };
                    trace.push(domain_estimators[l][d].next_sample(&a));
                }
            }
        }
    }

    let domains = if track_domains {
        netlist.domains().to_vec()
    } else {
        Vec::new()
    };
    for ((functional, total), by_domain) in functional.into_iter().zip(total).zip(by_domain) {
        out.push(HierarchicalCapture {
            functional,
            total,
            domains: domains.clone(),
            by_domain,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{capture_traces, capture_traces_by_domain};
    use crate::NetlistBuilder;

    fn counter(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("counter");
        let en = b.input("en", 1);
        let r = b.register("count", width);
        let q = r.q();
        let next = b.inc(&q);
        b.connect_register_en(&r, en.bit(0), &next.sum);
        b.output("q", &r.q());
        b.finish().unwrap()
    }

    #[test]
    fn lanes_run_independently() {
        let n = counter(8);
        let mut sim = BatchSimulator::new(&n, 3).unwrap();
        let en = sim.port_handle("en").unwrap();
        let q = sim.port_handle("q").unwrap();
        for t in 0..10u64 {
            sim.set_input(0, en, &Bits::from_u64(1, 1)).unwrap();
            sim.set_input(1, en, &Bits::from_u64(t % 2, 1)).unwrap();
            sim.set_input(2, en, &Bits::from_u64(0, 1)).unwrap();
            sim.step();
        }
        assert_eq!(sim.output_by_handle(0, q).to_u64().unwrap(), 9);
        assert_eq!(sim.output_by_handle(1, q).to_u64().unwrap(), 4);
        assert_eq!(sim.output_by_handle(2, q).to_u64().unwrap(), 0);
    }

    #[test]
    fn per_lane_activity_matches_scalar() {
        let n = counter(6);
        let mut batch = BatchSimulator::new(&n, 2).unwrap();
        let ben = batch.port_handle("en").unwrap();
        let mut scalars = [Simulator::new(&n).unwrap(), Simulator::new(&n).unwrap()];
        for t in 0..32u64 {
            let drive = [t % 3 != 0, t % 2 == 0];
            for (l, sim) in scalars.iter_mut().enumerate() {
                sim.set_input("en", &Bits::from_bool(drive[l])).unwrap();
            }
            batch.set_input(0, ben, &Bits::from_bool(drive[0])).unwrap();
            batch.set_input(1, ben, &Bits::from_bool(drive[1])).unwrap();
            let expected = [scalars[0].step(), scalars[1].step()];
            batch.step();
            for l in 0..2 {
                assert_eq!(batch.activities()[l], expected[l], "lane {l} cycle {t}");
                assert_eq!(
                    batch.domain_activity(l),
                    scalars[l].domain_activity(),
                    "lane {l} cycle {t}"
                );
                assert_eq!(batch.sample_ports(l), scalars[l].sample_ports());
            }
        }
    }

    #[test]
    fn batch_capture_matches_scalar_capture() {
        let n = counter(5);
        let stimuli: Vec<Stimulus> = (0..5)
            .map(|k| {
                (0..40)
                    .map(|t| vec![Bits::from_u64((t + k) % 2, 1)])
                    .collect()
            })
            .collect();
        let seeds: Vec<u64> = (0..5).map(|k| 11 + k).collect();
        let batch =
            capture_traces_by_domain_batch(&n, &PowerModel::default(), &stimuli, &seeds).unwrap();
        for (k, got) in batch.iter().enumerate() {
            let want = capture_traces_by_domain(&n, &PowerModel::default(), &stimuli[k], seeds[k])
                .unwrap();
            assert_eq!(got.functional, want.functional, "stimulus {k}");
            assert_eq!(got.total, want.total, "stimulus {k}");
            assert_eq!(got.by_domain, want.by_domain, "stimulus {k}");
        }
    }

    #[test]
    fn ragged_lengths_share_a_batch() {
        let n = counter(4);
        let stimuli: Vec<Stimulus> = [13usize, 4, 29]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|t| vec![Bits::from_u64((t % 2) as u64, 1)])
                    .collect()
            })
            .collect();
        let batch = capture_traces_batch(&n, &PowerModel::default(), &stimuli, &[1, 2, 3]).unwrap();
        for (k, got) in batch.iter().enumerate() {
            assert_eq!(got.functional.len(), stimuli[k].len());
            let want =
                capture_traces(&n, &PowerModel::default(), &stimuli[k], 1 + k as u64).unwrap();
            assert_eq!(got.power, want.power, "stimulus {k}");
            assert_eq!(got.functional, want.functional, "stimulus {k}");
        }
    }

    #[test]
    fn an_empty_first_lane_leaves_the_others_staged() {
        let n = counter(4);
        let busy: Stimulus = (0..9u64).map(|t| vec![Bits::from_u64(t % 2, 1)]).collect();
        let stimuli = [Stimulus::new(), busy.clone()];
        let batch = capture_traces_batch(&n, &PowerModel::default(), &stimuli, &[1, 2]).unwrap();
        assert!(batch[0].functional.is_empty());
        let want = capture_traces(&n, &PowerModel::default(), &busy, 2).unwrap();
        assert_eq!(batch[1].power, want.power);
        assert_eq!(batch[1].functional, want.functional);
    }

    #[test]
    fn more_than_64_stimuli_chunk_transparently() {
        let n = counter(3);
        let stimuli: Vec<Stimulus> = (0..67u64)
            .map(|k| {
                (0..6)
                    .map(|t| vec![Bits::from_u64((t + k) % 2, 1)])
                    .collect()
            })
            .collect();
        let seeds: Vec<u64> = (0..67).collect();
        let batch = capture_traces_batch(&n, &PowerModel::default(), &stimuli, &seeds).unwrap();
        assert_eq!(batch.len(), 67);
        for (k, got) in batch.iter().enumerate() {
            let want = capture_traces(&n, &PowerModel::default(), &stimuli[k], k as u64).unwrap();
            assert_eq!(got.power, want.power, "stimulus {k}");
        }
    }

    #[test]
    fn malformed_cycle_fails_the_group() {
        let n = counter(4);
        let good: Stimulus = (0..4).map(|_| vec![Bits::from_u64(1, 1)]).collect();
        let mut bad = Stimulus::new();
        bad.push_cycle(vec![]).unwrap();
        let err = capture_traces_batch(&n, &PowerModel::default(), &[good, bad], &[0, 1]);
        assert!(matches!(
            err,
            Err(RtlError::Trace(
                psm_trace::TraceError::CycleShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn a_misfit_past_the_first_group_fails_with_its_own_error() {
        let n = counter(3);
        let mut stimuli: Vec<Stimulus> = (0..65u64)
            .map(|k| {
                (0..6)
                    .map(|t| vec![Bits::from_u64((t + k) % 2, 1)])
                    .collect()
            })
            .collect();
        stimuli[64] = (0..6).map(|_| vec![Bits::from_u64(2, 2)]).collect();
        let seeds: Vec<u64> = (0..65).collect();
        let want = capture_traces(&n, &PowerModel::default(), &stimuli[64], 64)
            .unwrap_err()
            .to_string();
        assert!(want.contains("en"), "{want}");
        let err = capture_traces_batch(&n, &PowerModel::default(), &stimuli, &seeds).unwrap_err();
        assert!(matches!(err, RtlError::PortWidthMismatch { .. }), "{err:?}");
        assert_eq!(err.to_string(), want);
        let err = capture_traces_by_domain_batch(&n, &PowerModel::default(), &stimuli, &seeds)
            .unwrap_err();
        assert_eq!(err.to_string(), want);
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=64")]
    fn rejects_zero_lanes() {
        let n = counter(2);
        let _ = BatchSimulator::new(&n, 0);
    }

    #[test]
    fn reset_restores_every_lane() {
        let n = counter(4);
        let mut sim = BatchSimulator::new(&n, 2).unwrap();
        let en = sim.port_handle("en").unwrap();
        let q = sim.port_handle("q").unwrap();
        for _ in 0..5 {
            sim.set_input(0, en, &Bits::from_u64(1, 1)).unwrap();
            sim.set_input(1, en, &Bits::from_u64(1, 1)).unwrap();
            sim.step();
        }
        assert_ne!(sim.output_by_handle(0, q).to_u64().unwrap(), 0);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        sim.step();
        assert_eq!(sim.output_by_handle(0, q).to_u64().unwrap(), 0);
        assert_eq!(sim.output_by_handle(1, q).to_u64().unwrap(), 0);
    }
}
