//! Word-level netlist construction ("synthesis").
//!
//! [`NetlistBuilder`] plays the role Synopsys DesignCompiler plays in the
//! paper's flow: it lowers word-level RTL operations — registers, adders,
//! multipliers, comparators, decoders, mux trees and ROM lookups — to the
//! primitive cell library of [`GateKind`]. The output is a flattened,
//! validated [`Netlist`] ready for levelized simulation and gate-level power
//! estimation.

use crate::crossing::IsolationKind;
use crate::gate::{Gate, GateKind, NetId};
use crate::levelize::levelize;
use crate::netlist::{Dff, MemoryMacro, Netlist};
use crate::RtlError;
use psm_trace::{Bits, Direction};

/// A bundle of single-bit nets, least-significant bit first.
///
/// `Word` is the value type of the builder's RTL layer: every operation
/// consumes and produces words. Cloning is cheap (a `Vec<NetId>` copy) and
/// has no structural effect on the netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    nets: Vec<NetId>,
}

impl Word {
    /// Wraps raw nets as a word (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn from_nets(nets: Vec<NetId>) -> Self {
        assert!(!nets.is_empty(), "zero-width words are not representable");
        Word { nets }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.nets.len()
    }

    /// The underlying nets, LSB first.
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// Net of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> NetId {
        self.nets[i]
    }

    /// The sub-word `[lo, lo + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the word or `width` is zero.
    pub fn slice(&self, lo: usize, width: usize) -> Word {
        assert!(width > 0, "zero-width slice");
        assert!(lo + width <= self.nets.len(), "slice out of range");
        Word {
            nets: self.nets[lo..lo + width].to_vec(),
        }
    }

    /// Concatenates `high` above `self` (self keeps the low bits).
    pub fn concat(&self, high: &Word) -> Word {
        let mut nets = self.nets.clone();
        nets.extend_from_slice(&high.nets);
        Word { nets }
    }

    /// Rotated left by `n` bit positions (free rewiring, no gates).
    pub fn rotate_left(&self, n: usize) -> Word {
        let w = self.width();
        let n = n % w;
        // Bit i of the result is bit (i - n) mod w of the input.
        let nets = (0..w).map(|i| self.nets[(i + w - n) % w]).collect();
        Word { nets }
    }

    /// Reversed bit order (free rewiring).
    pub fn reversed(&self) -> Word {
        Word {
            nets: self.nets.iter().rev().copied().collect(),
        }
    }
}

/// A register (bank of flip-flops) created by
/// [`NetlistBuilder::register`]; its next-value must be connected with
/// [`NetlistBuilder::connect_register`] before [`NetlistBuilder::finish`].
#[derive(Debug, Clone)]
pub struct Register {
    pub(crate) index: usize,
    q: Word,
}

impl Register {
    /// The register's output word (flip-flop `q` pins).
    pub fn q(&self) -> Word {
        self.q.clone()
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.q.width()
    }
}

/// The outputs of a ripple-carry addition: sum word plus final carry.
#[derive(Debug, Clone)]
pub struct AddResult {
    /// Sum, same width as the operands.
    pub sum: Word,
    /// Carry out of the top bit.
    pub carry: NetId,
}

struct RegisterSlot {
    name: String,
    dff_start: usize,
    width: usize,
    connected: bool,
}

/// Word-level netlist builder; see the module docs above for its role.
///
/// # Examples
///
/// A 2-bit counter:
///
/// ```
/// use psm_rtl::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("counter");
/// let count = b.register("count", 2);
/// let one = b.const_word(1, 2);
/// let next = b.add(&count.q(), &one);
/// b.connect_register(&count, &next.sum);
/// b.output("q", &count.q());
/// let netlist = b.finish()?;
/// assert_eq!(netlist.stats().memory_elements, 2);
/// # Ok::<(), psm_rtl::RtlError>(())
/// ```
pub struct NetlistBuilder {
    name: String,
    next_net: usize,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    memories: Vec<MemoryMacro>,
    registers: Vec<RegisterSlot>,
    ports: Vec<(String, Direction, Vec<NetId>)>,
    domains: Vec<String>,
    current_domain: usize,
    gate_domains: Vec<usize>,
    dff_domains: Vec<usize>,
    mem_domains: Vec<usize>,
    isolation_marks: Vec<(usize, IsolationKind)>,
}

impl NetlistBuilder {
    /// Starts a new design.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            next_net: 2, // nets 0 and 1 are the constants
            gates: Vec::new(),
            dffs: Vec::new(),
            memories: Vec::new(),
            registers: Vec::new(),
            ports: Vec::new(),
            domains: vec!["core".to_owned()],
            current_domain: 0,
            gate_domains: Vec::new(),
            dff_domains: Vec::new(),
            mem_domains: Vec::new(),
            isolation_marks: Vec::new(),
        }
    }

    /// Switches the *current power domain*: every cell created afterwards is
    /// tagged with it, and the simulator reports each domain's switching
    /// activity separately. Returns the domain index (creating the name on
    /// first use); pass `"core"` to return to the default domain.
    ///
    /// Domains are the substrate of the hierarchical-PSM extension: one
    /// power trace (and one PSM set) per subcomponent.
    pub fn domain(&mut self, name: &str) -> usize {
        let idx = match self.domains.iter().position(|d| d == name) {
            Some(i) => i,
            None => {
                self.domains.push(name.to_owned());
                self.domains.len() - 1
            }
        };
        self.current_domain = idx;
        idx
    }

    fn fresh(&mut self) -> NetId {
        let id = NetId(self.next_net);
        self.next_net += 1;
        id
    }

    fn emit(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let output = self.fresh();
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        self.gate_domains.push(self.current_domain);
        output
    }

    // ------------------------------------------------------------------
    // Ports and constants
    // ------------------------------------------------------------------

    /// Declares a primary input of the given width and returns its word.
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Word {
        assert!(width > 0, "zero-width port");
        let nets: Vec<NetId> = (0..width).map(|_| self.fresh()).collect();
        self.ports
            .push((name.into(), Direction::Input, nets.clone()));
        Word { nets }
    }

    /// Declares a primary output driven by `word`.
    pub fn output(&mut self, name: impl Into<String>, word: &Word) {
        self.ports
            .push((name.into(), Direction::Output, word.nets.clone()));
    }

    /// A constant word from the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn const_word(&mut self, value: u64, width: usize) -> Word {
        self.const_bits(&Bits::from_u64(value, width))
    }

    /// A constant word from an arbitrary-width [`Bits`] value.
    pub fn const_bits(&mut self, value: &Bits) -> Word {
        let nets = (0..value.width())
            .map(|i| {
                if value.bit(i) {
                    Netlist::CONST1
                } else {
                    Netlist::CONST0
                }
            })
            .collect();
        Word { nets }
    }

    /// The constant-zero single net.
    pub fn const0(&self) -> NetId {
        Netlist::CONST0
    }

    /// The constant-one single net.
    pub fn const1(&self) -> NetId {
        Netlist::CONST1
    }

    // ------------------------------------------------------------------
    // Registers
    // ------------------------------------------------------------------

    /// Creates a register (bank of DFFs) resetting to all-zeros.
    pub fn register(&mut self, name: impl Into<String>, width: usize) -> Register {
        self.register_init(name, &Bits::zero(width))
    }

    /// Creates a register resetting to `init`.
    pub fn register_init(&mut self, name: impl Into<String>, init: &Bits) -> Register {
        let dff_start = self.dffs.len();
        let mut qs = Vec::with_capacity(init.width());
        for i in 0..init.width() {
            let q = self.fresh();
            // `d` temporarily points at `q` (hold); connect_register overwrites.
            self.dffs.push(Dff {
                d: q,
                q,
                init: init.bit(i),
            });
            self.dff_domains.push(self.current_domain);
            qs.push(q);
        }
        self.registers.push(RegisterSlot {
            name: name.into(),
            dff_start,
            width: init.width(),
            connected: false,
        });
        Register {
            index: self.registers.len() - 1,
            q: Word { nets: qs },
        }
    }

    /// Connects the next-value of `reg`. Calling it again overwrites the
    /// previous connection.
    ///
    /// # Panics
    ///
    /// Panics if `next` does not match the register's width or `reg` came
    /// from a different builder.
    pub fn connect_register(&mut self, reg: &Register, next: &Word) {
        let slot = &mut self.registers[reg.index];
        assert_eq!(
            slot.width,
            next.width(),
            "register `{}` is {} bit(s), next-value is {}",
            slot.name,
            slot.width,
            next.width()
        );
        for i in 0..slot.width {
            self.dffs[slot.dff_start + i].d = next.bit(i);
        }
        slot.connected = true;
    }

    /// Convenience: a register that holds its value unless `enable` is high,
    /// in which case it loads `next`.
    pub fn connect_register_en(&mut self, reg: &Register, enable: NetId, next: &Word) {
        let held = reg.q();
        let loaded = self.mux_word(enable, &held, next);
        self.connect_register(reg, &loaded);
    }

    // ------------------------------------------------------------------
    // Bit-level gates
    // ------------------------------------------------------------------

    /// `!a`
    pub fn not(&mut self, a: NetId) -> NetId {
        self.emit(GateKind::Not, vec![a])
    }

    /// `a & b`
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.emit(GateKind::And2, vec![a, b])
    }

    /// `a | b`
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.emit(GateKind::Or2, vec![a, b])
    }

    /// `a ^ b`
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.emit(GateKind::Xor2, vec![a, b])
    }

    /// `!(a & b)`
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        self.emit(GateKind::Nand2, vec![a, b])
    }

    /// `!(a | b)`
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        self.emit(GateKind::Nor2, vec![a, b])
    }

    /// `sel ? b : a`
    pub fn mux(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.emit(GateKind::Mux2, vec![sel, a, b])
    }

    /// Instantiates an isolation cell over the boundary net `data`,
    /// controlled by `ctrl`, and marks it with the given clamp polarity.
    ///
    /// `Clamp0` lowers to `AND2(data, ctrl)` with `ctrl` as an active-low
    /// isolate (drive `ctrl` low to park the boundary at 0); `Clamp1`
    /// lowers to `OR2(data, ctrl)` with `ctrl` as an active-high isolate.
    /// The cell is created in the *current* domain, which should be the
    /// still-on side of the crossing.
    pub fn isolation_cell(&mut self, kind: IsolationKind, data: NetId, ctrl: NetId) -> NetId {
        let gate_kind = match kind {
            IsolationKind::Clamp0 => GateKind::And2,
            IsolationKind::Clamp1 => GateKind::Or2,
        };
        let out = self.emit(gate_kind, vec![data, ctrl]);
        self.isolation_marks.push((self.gates.len() - 1, kind));
        out
    }

    // ------------------------------------------------------------------
    // Word-level logic
    // ------------------------------------------------------------------

    /// Bit-wise NOT of a word.
    pub fn not_word(&mut self, a: &Word) -> Word {
        let nets = a.nets.clone();
        Word {
            nets: nets.into_iter().map(|n| self.not(n)).collect(),
        }
    }

    /// Bit-wise AND of two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch (as do all two-operand word ops).
    pub fn and_word(&mut self, a: &Word, b: &Word) -> Word {
        self.zip(a, b, GateKind::And2)
    }

    /// Bit-wise OR of two equal-width words.
    pub fn or_word(&mut self, a: &Word, b: &Word) -> Word {
        self.zip(a, b, GateKind::Or2)
    }

    /// Bit-wise XOR of two equal-width words.
    pub fn xor_word(&mut self, a: &Word, b: &Word) -> Word {
        self.zip(a, b, GateKind::Xor2)
    }

    fn zip(&mut self, a: &Word, b: &Word, kind: GateKind) -> Word {
        assert_eq!(a.width(), b.width(), "word width mismatch in {kind:?}");
        let pairs: Vec<(NetId, NetId)> =
            a.nets.iter().copied().zip(b.nets.iter().copied()).collect();
        Word {
            nets: pairs
                .into_iter()
                .map(|(x, y)| self.emit(kind.clone(), vec![x, y]))
                .collect(),
        }
    }

    /// Word-wide 2:1 mux: `sel ? b : a`.
    pub fn mux_word(&mut self, sel: NetId, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "word width mismatch in mux");
        let pairs: Vec<(NetId, NetId)> =
            a.nets.iter().copied().zip(b.nets.iter().copied()).collect();
        Word {
            nets: pairs
                .into_iter()
                .map(|(x, y)| self.mux(sel, x, y))
                .collect(),
        }
    }

    /// AND-reduction of all bits.
    pub fn reduce_and(&mut self, a: &Word) -> NetId {
        self.reduce(a, GateKind::And2)
    }

    /// OR-reduction of all bits.
    pub fn reduce_or(&mut self, a: &Word) -> NetId {
        self.reduce(a, GateKind::Or2)
    }

    /// XOR-reduction (parity) of all bits.
    pub fn reduce_xor(&mut self, a: &Word) -> NetId {
        self.reduce(a, GateKind::Xor2)
    }

    fn reduce(&mut self, a: &Word, kind: GateKind) -> NetId {
        // Balanced tree for shallow logic depth.
        let mut layer = a.nets.clone();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.emit(kind.clone(), vec![pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Full adder over three bits, returning `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let t1 = self.and(axb, cin);
        let t2 = self.and(a, b);
        let carry = self.or(t1, t2);
        (sum, carry)
    }

    /// Ripple-carry addition of two equal-width words.
    pub fn add(&mut self, a: &Word, b: &Word) -> AddResult {
        self.add_with_carry(a, b, Netlist::CONST0)
    }

    /// Ripple-carry addition with an explicit carry-in.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add_with_carry(&mut self, a: &Word, b: &Word, cin: NetId) -> AddResult {
        assert_eq!(a.width(), b.width(), "word width mismatch in add");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.width());
        for i in 0..a.width() {
            let (s, c) = self.full_adder(a.bit(i), b.bit(i), carry);
            sum.push(s);
            carry = c;
        }
        AddResult {
            sum: Word { nets: sum },
            carry,
        }
    }

    /// Two's-complement subtraction `a - b`; `carry` is the *not-borrow*.
    pub fn sub(&mut self, a: &Word, b: &Word) -> AddResult {
        let nb = self.not_word(b);
        self.add_with_carry(a, &nb, Netlist::CONST1)
    }

    /// Increment by one.
    pub fn inc(&mut self, a: &Word) -> AddResult {
        let zero = self.const_word(0, a.width());
        self.add_with_carry(a, &zero, Netlist::CONST1)
    }

    /// Unsigned array multiplication; the product has width
    /// `a.width() + b.width()`.
    pub fn mul(&mut self, a: &Word, b: &Word) -> Word {
        let out_w = a.width() + b.width();
        let zero = self.const_word(0, out_w);
        let mut acc = zero;
        for i in 0..b.width() {
            // Partial product: (a & b[i]) << i, zero-extended to out_w.
            let mut pp_nets = vec![Netlist::CONST0; out_w];
            for j in 0..a.width() {
                let g = self.and(a.bit(j), b.bit(i));
                pp_nets[i + j] = g;
            }
            let pp = Word { nets: pp_nets };
            acc = self.add(&acc, &pp).sum;
        }
        acc
    }

    // ------------------------------------------------------------------
    // Comparison
    // ------------------------------------------------------------------

    /// Equality of two equal-width words.
    pub fn eq(&mut self, a: &Word, b: &Word) -> NetId {
        let x = self.xor_word(a, b);
        let any = self.reduce_or(&x);
        self.not(any)
    }

    /// Equality against a constant.
    pub fn eq_const(&mut self, a: &Word, value: u64) -> NetId {
        let c = self.const_word(value, a.width());
        self.eq(a, &c)
    }

    /// Unsigned `a < b` via the subtractor's borrow.
    pub fn lt(&mut self, a: &Word, b: &Word) -> NetId {
        let r = self.sub(a, b);
        self.not(r.carry)
    }

    // ------------------------------------------------------------------
    // Structured blocks
    // ------------------------------------------------------------------

    /// Full one-hot decoder: output `i` is high iff `addr == i`.
    pub fn decoder(&mut self, addr: &Word) -> Vec<NetId> {
        let n = addr.width();
        // Precompute complemented address bits once.
        let inv: Vec<NetId> = addr.nets.clone().into_iter().map(|b| self.not(b)).collect();
        let mut outs = Vec::with_capacity(1 << n);
        for code in 0..(1usize << n) {
            let lits = Word {
                nets: (0..n)
                    .map(|b| {
                        if code >> b & 1 == 1 {
                            addr.bit(b)
                        } else {
                            inv[b]
                        }
                    })
                    .collect(),
            };
            outs.push(self.reduce_and(&lits));
        }
        outs
    }

    /// Selects `options[sel]` through a balanced mux tree.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty, the options differ in width, or
    /// `options.len()` exceeds `2^sel.width()`.
    pub fn mux_tree(&mut self, sel: &Word, options: &[Word]) -> Word {
        assert!(!options.is_empty(), "mux tree needs at least one option");
        let w = options[0].width();
        assert!(
            options.iter().all(|o| o.width() == w),
            "mux tree options must share a width"
        );
        assert!(
            options.len() <= 1usize << sel.width(),
            "selector too narrow for {} options",
            options.len()
        );
        let mut layer: Vec<Word> = options.to_vec();
        for level in 0..sel.width() {
            if layer.len() == 1 {
                break;
            }
            let s = sel.bit(level);
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut i = 0;
            while i < layer.len() {
                if i + 1 < layer.len() {
                    let a = layer[i].clone();
                    let b = layer[i + 1].clone();
                    next.push(self.mux_word(s, &a, &b));
                } else {
                    next.push(layer[i].clone());
                }
                i += 2;
            }
            layer = next;
        }
        layer.remove(0)
    }

    /// An 8-bit-in / 8-bit-out ROM lookup (e.g. a cipher S-box), lowered to
    /// eight 8-input LUT macro cells.
    ///
    /// # Panics
    ///
    /// Panics unless `addr` is 8 bits wide.
    pub fn sbox8(&mut self, addr: &Word, table: &[u8; 256]) -> Word {
        assert_eq!(addr.width(), 8, "sbox8 needs an 8-bit address");
        let mut outs = Vec::with_capacity(8);
        for bit in 0..8 {
            let mut packed = vec![0u64; 4];
            for (i, &e) in table.iter().enumerate() {
                if e >> bit & 1 == 1 {
                    packed[i / 64] |= 1 << (i % 64);
                }
            }
            outs.push(self.emit(GateKind::Lut { table: packed }, addr.nets.clone()));
        }
        Word { nets: outs }
    }

    /// A general ROM: `contents[addr]` with entries of `out_width` bits,
    /// lowered to `out_width` LUT macro cells over the address.
    ///
    /// # Panics
    ///
    /// Panics if `contents.len() != 2^addr.width()` or `out_width` is zero
    /// or wider than 64.
    pub fn rom(&mut self, addr: &Word, contents: &[u64], out_width: usize) -> Word {
        assert!(
            out_width > 0 && out_width <= 64,
            "rom entries are 1..=64 bits"
        );
        assert_eq!(
            contents.len(),
            1usize << addr.width(),
            "rom needs 2^addr_width entries"
        );
        let words = contents.len().div_ceil(64);
        let mut outs = Vec::with_capacity(out_width);
        for bit in 0..out_width {
            let mut packed = vec![0u64; words];
            for (i, &e) in contents.iter().enumerate() {
                if e >> bit & 1 == 1 {
                    packed[i / 64] |= 1 << (i % 64);
                }
            }
            outs.push(self.emit(GateKind::Lut { table: packed }, addr.nets.clone()));
        }
        Word { nets: outs }
    }

    /// Logical shift left by a constant amount (free rewiring plus constant
    /// zero fill); the width is preserved.
    pub fn shl_const(&mut self, a: &Word, n: usize) -> Word {
        let w = a.width();
        let nets = (0..w)
            .map(|i| if i < n { Netlist::CONST0 } else { a.bit(i - n) })
            .collect();
        Word { nets }
    }

    /// Logical shift right by a constant amount.
    pub fn shr_const(&mut self, a: &Word, n: usize) -> Word {
        let w = a.width();
        let nets = (0..w)
            .map(|i| {
                if i + n < w {
                    a.bit(i + n)
                } else {
                    Netlist::CONST0
                }
            })
            .collect();
        Word { nets }
    }

    /// Zero-extends a word to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width < a.width()`.
    pub fn zero_extend(&mut self, a: &Word, width: usize) -> Word {
        assert!(width >= a.width(), "cannot zero-extend to a smaller width");
        let mut nets = a.nets.clone();
        nets.resize(width, Netlist::CONST0);
        Word { nets }
    }

    /// Instantiates a synchronous single-port SRAM macro (see
    /// [`MemoryMacro`]) and returns its registered read-data word.
    ///
    /// Depth is `2^addr.width()`; a read returns the word at the
    /// *pre-write* address contents (read-before-write). `clear`
    /// synchronously zeroes the read register.
    ///
    /// # Panics
    ///
    /// Panics when `wdata` is wider than 64 bits (macro storage uses one
    /// word per row) or `addr` is wider than 24 bits.
    pub fn memory(
        &mut self,
        addr: &Word,
        wdata: &Word,
        we: NetId,
        re: NetId,
        clear: NetId,
    ) -> Word {
        assert!(
            wdata.width() <= 64,
            "memory macros store at most 64-bit words"
        );
        assert!(
            addr.width() <= 24,
            "memory macros support at most 2^24 words"
        );
        let rdata: Vec<NetId> = (0..wdata.width()).map(|_| self.fresh()).collect();
        self.mem_domains.push(self.current_domain);
        self.memories.push(MemoryMacro {
            addr: addr.nets().to_vec(),
            wdata: wdata.nets().to_vec(),
            we,
            re,
            clear,
            rdata: rdata.clone(),
        });
        Word::from_nets(rdata)
    }

    // ------------------------------------------------------------------
    // Finalisation
    // ------------------------------------------------------------------

    /// Validates and seals the design.
    ///
    /// # Errors
    ///
    /// * [`RtlError::UnconnectedRegister`] if a register never received a
    ///   next-value;
    /// * [`RtlError::DuplicatePort`] on port name collisions;
    /// * [`RtlError::MultipleDrivers`] / [`RtlError::UndrivenNet`] on
    ///   structural violations;
    /// * [`RtlError::CombinationalLoop`] if the combinational logic cycles.
    pub fn finish(self) -> Result<Netlist, RtlError> {
        for r in &self.registers {
            if !r.connected {
                return Err(RtlError::UnconnectedRegister(r.name.clone()));
            }
        }
        let mut netlist = Netlist::from_parts(
            self.name,
            self.next_net,
            self.gates,
            self.dffs,
            self.memories,
            Vec::new(),
            self.domains,
            self.gate_domains,
            self.dff_domains,
            self.mem_domains,
        );
        for (gate, kind) in self.isolation_marks {
            netlist.set_gate_isolation(gate, kind);
        }
        for (name, dir, nets) in self.ports {
            netlist.add_port(name, dir, nets)?;
        }
        netlist.validate()?;
        levelize(&netlist)?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use psm_trace::Bits;

    /// Builds a combinational design, applies inputs, returns one output.
    fn run_comb(
        build: impl FnOnce(&mut NetlistBuilder),
        inputs: &[(&str, u64, usize)],
        out: &str,
    ) -> u64 {
        let mut b = NetlistBuilder::new("dut");
        build(&mut b);
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        for (name, v, w) in inputs {
            sim.set_input(name, &Bits::from_u64(*v, *w)).unwrap();
        }
        sim.step();
        sim.output(out).unwrap().to_u64().unwrap()
    }

    #[test]
    fn adder_is_correct() {
        for (a, bv) in [(0u64, 0u64), (1, 1), (7, 9), (200, 55), (255, 255)] {
            let sum = run_comb(
                |b| {
                    let x = b.input("a", 8);
                    let y = b.input("b", 8);
                    let r = b.add(&x, &y);
                    b.output("s", &r.sum);
                    let carry = Word::from_nets(vec![r.carry]);
                    b.output("c", &carry);
                },
                &[("a", a, 8), ("b", bv, 8)],
                "s",
            );
            assert_eq!(sum, (a + bv) & 0xFF, "{a} + {bv}");
        }
    }

    #[test]
    fn subtractor_is_correct() {
        for (a, bv) in [(9u64, 5u64), (5, 9), (0, 0), (255, 1)] {
            let d = run_comb(
                |b| {
                    let x = b.input("a", 8);
                    let y = b.input("b", 8);
                    let r = b.sub(&x, &y);
                    b.output("d", &r.sum);
                },
                &[("a", a, 8), ("b", bv, 8)],
                "d",
            );
            assert_eq!(d, a.wrapping_sub(bv) & 0xFF, "{a} - {bv}");
        }
    }

    #[test]
    fn multiplier_is_correct() {
        for (a, bv) in [(0u64, 7u64), (3, 5), (15, 15), (12, 11)] {
            let p = run_comb(
                |b| {
                    let x = b.input("a", 4);
                    let y = b.input("b", 4);
                    let r = b.mul(&x, &y);
                    b.output("p", &r);
                },
                &[("a", a, 4), ("b", bv, 4)],
                "p",
            );
            assert_eq!(p, a * bv, "{a} * {bv}");
        }
    }

    #[test]
    fn comparators() {
        for (a, bv) in [(3u64, 3u64), (3, 4), (4, 3), (0, 15)] {
            let bits = run_comb(
                |b| {
                    let x = b.input("a", 4);
                    let y = b.input("b", 4);
                    let eq = b.eq(&x, &y);
                    let lt = b.lt(&x, &y);
                    b.output("r", &Word::from_nets(vec![eq, lt]));
                },
                &[("a", a, 4), ("b", bv, 4)],
                "r",
            );
            assert_eq!(bits & 1 == 1, a == bv, "eq {a} {bv}");
            assert_eq!(bits >> 1 & 1 == 1, a < bv, "lt {a} {bv}");
        }
    }

    #[test]
    fn reductions() {
        let r = run_comb(
            |b| {
                let x = b.input("a", 5);
                let and = b.reduce_and(&x);
                let or = b.reduce_or(&x);
                let xor = b.reduce_xor(&x);
                b.output("r", &Word::from_nets(vec![and, or, xor]));
            },
            &[("a", 0b10110, 5)],
            "r",
        );
        assert_eq!(r & 1, 0); // not all ones
        assert_eq!(r >> 1 & 1, 1); // some one
        assert_eq!(r >> 2 & 1, 1); // odd parity
    }

    #[test]
    fn decoder_is_one_hot() {
        for addr in 0u64..8 {
            let r = run_comb(
                |b| {
                    let a = b.input("a", 3);
                    let outs = b.decoder(&a);
                    b.output("d", &Word::from_nets(outs));
                },
                &[("a", addr, 3)],
                "d",
            );
            assert_eq!(r, 1 << addr, "decode {addr}");
        }
    }

    #[test]
    fn mux_tree_selects() {
        for sel in 0u64..4 {
            let r = run_comb(
                |b| {
                    let s = b.input("s", 2);
                    let opts: Vec<Word> = (0..4).map(|i| b.const_word(10 + i, 8)).collect();
                    let o = b.mux_tree(&s, &opts);
                    b.output("o", &o);
                },
                &[("s", sel, 2)],
                "o",
            );
            assert_eq!(r, 10 + sel, "select {sel}");
        }
    }

    #[test]
    fn sbox_lookup() {
        let mut table = [0u8; 256];
        for (i, e) in table.iter_mut().enumerate() {
            *e = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        for addr in [0u64, 1, 100, 255] {
            let r = run_comb(
                |b| {
                    let a = b.input("a", 8);
                    let o = b.sbox8(&a, &table);
                    b.output("o", &o);
                },
                &[("a", addr, 8)],
                "o",
            );
            assert_eq!(r, table[addr as usize] as u64, "sbox[{addr}]");
        }
    }

    #[test]
    fn rom_lookup() {
        let contents: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        for addr in [0u64, 7, 15] {
            let r = run_comb(
                |b| {
                    let a = b.input("a", 4);
                    let o = b.rom(&a, &contents, 8);
                    b.output("o", &o);
                },
                &[("a", addr, 4)],
                "o",
            );
            assert_eq!(r, contents[addr as usize], "rom[{addr}]");
        }
    }

    #[test]
    fn shifts_and_rotates() {
        let r = run_comb(
            |b| {
                let a = b.input("a", 8);
                let l = b.shl_const(&a, 2);
                let rr = b.shr_const(&a, 3);
                let rot = a.rotate_left(1);
                let cat = l.concat(&rr).concat(&rot);
                b.output("o", &cat);
            },
            &[("a", 0b1011_0110, 8)],
            "o",
        );
        let l = r & 0xFF;
        let sh = (r >> 8) & 0xFF;
        let rot = (r >> 16) & 0xFF;
        assert_eq!(l, (0b1011_0110u64 << 2) & 0xFF);
        assert_eq!(sh, 0b1011_0110u64 >> 3);
        assert_eq!(rot, 0b0110_1101);
    }

    #[test]
    fn register_holds_and_updates() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d", 4);
        let en = b.input("en", 1);
        let r = b.register("r", 4);
        b.connect_register_en(&r, en.bit(0), &d);
        b.output("q", &r.q());
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();

        sim.set_input("d", &Bits::from_u64(9, 4)).unwrap();
        sim.set_input("en", &Bits::from_u64(1, 1)).unwrap();
        sim.step();
        assert_eq!(sim.output("q").unwrap().to_u64().unwrap(), 0); // pre-edge value visible during the cycle
        sim.set_input("en", &Bits::from_u64(0, 1)).unwrap();
        sim.set_input("d", &Bits::from_u64(5, 4)).unwrap();
        sim.step();
        assert_eq!(sim.output("q").unwrap().to_u64().unwrap(), 9); // captured 9, ignored 5
        sim.step();
        assert_eq!(sim.output("q").unwrap().to_u64().unwrap(), 9); // held
    }

    #[test]
    fn unconnected_register_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let _r = b.register("r", 2);
        assert!(matches!(b.finish(), Err(RtlError::UnconnectedRegister(_))));
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a", 1);
        b.output("a", &a);
        assert!(matches!(b.finish(), Err(RtlError::DuplicatePort(_))));
    }

    #[test]
    fn register_init_value() {
        let mut b = NetlistBuilder::new("init");
        let r = b.register_init("r", &Bits::from_u64(0b101, 3));
        let q = r.q();
        b.connect_register(&r, &q);
        b.output("q", &r.q());
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step();
        assert_eq!(sim.output("q").unwrap().to_u64().unwrap(), 0b101);
    }

    #[test]
    fn word_slice_concat_reverse() {
        let w = Word::from_nets((2..10).map(NetId).collect());
        assert_eq!(w.width(), 8);
        assert_eq!(w.slice(2, 3).nets(), &[NetId(4), NetId(5), NetId(6)]);
        assert_eq!(w.reversed().bit(0), NetId(9));
        let c = w.slice(0, 1).concat(&w.slice(7, 1));
        assert_eq!(c.nets(), &[NetId(2), NetId(9)]);
        assert_eq!(w.rotate_left(0), w);
        assert_eq!(w.rotate_left(8), w);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "selector too narrow")]
    fn mux_tree_rejects_narrow_selector() {
        let mut b = NetlistBuilder::new("bad");
        let sel = b.input("s", 1);
        let opts: Vec<Word> = (0..3).map(|i| b.const_word(i, 4)).collect();
        let _ = b.mux_tree(&sel, &opts);
    }

    #[test]
    #[should_panic(expected = "share a width")]
    fn mux_tree_rejects_mixed_widths() {
        let mut b = NetlistBuilder::new("bad");
        let sel = b.input("s", 1);
        let o1 = b.const_word(0, 4);
        let o2 = b.const_word(0, 5);
        let _ = b.mux_tree(&sel, &[o1, o2]);
    }

    #[test]
    #[should_panic(expected = "2^addr_width")]
    fn rom_rejects_wrong_depth() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a", 3);
        let _ = b.rom(&a, &[0, 1, 2], 8);
    }

    #[test]
    fn domain_switch_round_trips() {
        let mut b = NetlistBuilder::new("domains");
        assert_eq!(b.domain("unit_a"), 1);
        assert_eq!(b.domain("core"), 0);
        assert_eq!(b.domain("unit_a"), 1, "existing names are reused");
        let a = b.input("x", 1);
        let y = b.not_word(&a);
        b.output("y", &y);
        let n = b.finish().unwrap();
        assert_eq!(n.domains().len(), 2);
        // the inverter was created in unit_a? No: domain("unit_a") then
        // domain("core") then domain("unit_a") — last switch wins.
        assert_eq!(n.gate_domains(), &[1]);
    }

    #[test]
    fn zero_extend_and_slice() {
        let mut b = NetlistBuilder::new("zx");
        let a = b.input("a", 3);
        let wide = b.zero_extend(&a, 8);
        assert_eq!(wide.width(), 8);
        assert_eq!(wide.bit(7), Netlist::CONST0);
        b.output("o", &wide);
        b.finish().unwrap();
    }
}
