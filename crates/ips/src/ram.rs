//! A 1 KB (256 words × 32 bits) synchronous single-port RAM.
//!
//! The paper's RAM benchmark: 44 PI bits, 32 PO bits, 8192 memory
//! elements. Interface:
//!
//! | port   | dir | width | role                                   |
//! |--------|-----|-------|----------------------------------------|
//! | `addr` | in  | 8     | word address                           |
//! | `wdata`| in  | 32    | write data                             |
//! | `we`   | in  | 1     | write enable                           |
//! | `re`   | in  | 1     | read enable (loads the output register)|
//! | `ce`   | in  | 1     | chip enable (gates both)               |
//! | `clr`  | in  | 1     | synchronous clear of the output register|
//! | `rdata`| out | 32    | registered read data                   |
//!
//! Writes are data-dependent from the energy point of view: the switched
//! capacitance of a write tracks how many cell bits actually flip — the
//! behaviour the paper's regression calibration targets.

use crate::traits::Ip;
use psm_rtl::{Netlist, NetlistBuilder, RtlError};
use psm_trace::{Direction, SignalSet};

const WORDS: usize = 256;

/// Behavioural model of the RAM; see the module docs above for the
/// interface and the [crate example](crate) for usage.
#[derive(Debug, Clone)]
pub struct Ram1k {
    mem: Vec<u32>,
    rdata: u32,
}

impl Ram1k {
    /// A zero-initialised RAM.
    pub fn new() -> Self {
        Ram1k {
            mem: vec![0; WORDS],
            rdata: 0,
        }
    }

    /// Direct backdoor read (testing aid; not part of the interface).
    pub fn peek(&self, addr: usize) -> u32 {
        self.mem[addr]
    }
}

impl Default for Ram1k {
    fn default() -> Self {
        Ram1k::new()
    }
}

impl Ip for Ram1k {
    fn name(&self) -> &'static str {
        "RAM"
    }

    fn signals(&self) -> SignalSet {
        let mut s = SignalSet::new();
        s.push("addr", 8, Direction::Input).expect("unique");
        s.push("wdata", 32, Direction::Input).expect("unique");
        s.push("we", 1, Direction::Input).expect("unique");
        s.push("re", 1, Direction::Input).expect("unique");
        s.push("ce", 1, Direction::Input).expect("unique");
        s.push("clr", 1, Direction::Input).expect("unique");
        s.push("rdata", 32, Direction::Output).expect("unique");
        s
    }

    fn netlist(&self) -> Result<Netlist, RtlError> {
        let mut b = NetlistBuilder::new("ram1k");
        let addr = b.input("addr", 8);
        let wdata = b.input("wdata", 32);
        let we = b.input("we", 1).bit(0);
        let re = b.input("re", 1).bit(0);
        let ce = b.input("ce", 1).bit(0);
        let clr = b.input("clr", 1).bit(0);

        // The storage array is an SRAM macro (synthesis flows never lower
        // RAMs to flip-flops); chip-enable gating happens outside it.
        let we_g = b.and(we, ce);
        let re_g = b.and(re, ce);
        let rdata = b.memory(&addr, &wdata, we_g, re_g, clr);
        b.output("rdata", &rdata);
        b.finish()
    }

    fn reset(&mut self) {
        self.mem.iter_mut().for_each(|w| *w = 0);
        self.rdata = 0;
    }

    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let &[addr, wdata, we, re, ce, clr] = inputs else {
            panic!("RAM takes 6 one-word input ports");
        };
        let (addr, wdata) = (addr as usize, wdata as u32);
        let (we, re, ce, clr) = (we != 0, re != 0, ce != 0, clr != 0);

        // Outputs visible during this cycle: the current output register.
        outputs[0] = u64::from(self.rdata);

        // Clock edge: the write lands, then the output register updates
        // (read-before-write order matches the netlist, whose read mux
        // sees the *old* cell values during the cycle).
        let read_now = self.mem[addr];
        if ce && we {
            self.mem[addr] = wdata;
        }
        if clr {
            self.rdata = 0;
        } else if ce && re {
            self.rdata = read_now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::Bits;

    fn drive(
        ram: &mut Ram1k,
        addr: u64,
        wdata: u64,
        we: bool,
        re: bool,
        ce: bool,
        clr: bool,
    ) -> u64 {
        let outs = ram.step_bits(&[
            Bits::from_u64(addr, 8),
            Bits::from_u64(wdata, 32),
            Bits::from_bool(we),
            Bits::from_bool(re),
            Bits::from_bool(ce),
            Bits::from_bool(clr),
        ]);
        outs[0].to_u64().unwrap()
    }

    #[test]
    fn write_then_read() {
        let mut ram = Ram1k::new();
        drive(&mut ram, 42, 0xCAFEBABE, true, false, true, false);
        drive(&mut ram, 42, 0, false, true, true, false);
        // The registered read appears one cycle later.
        let v = drive(&mut ram, 0, 0, false, false, true, false);
        assert_eq!(v, 0xCAFEBABE);
        assert_eq!(ram.peek(42), 0xCAFEBABE);
    }

    #[test]
    fn chip_enable_gates_everything() {
        let mut ram = Ram1k::new();
        drive(&mut ram, 5, 0x123, true, false, false, false); // ce low
        assert_eq!(ram.peek(5), 0);
        drive(&mut ram, 5, 0x456, true, false, true, false);
        drive(&mut ram, 5, 0, false, true, false, false); // read gated
        let v = drive(&mut ram, 0, 0, false, false, true, false);
        assert_eq!(v, 0, "gated read must not load the output register");
    }

    #[test]
    fn clear_resets_output_register() {
        let mut ram = Ram1k::new();
        drive(&mut ram, 1, 77, true, false, true, false);
        drive(&mut ram, 1, 0, false, true, true, false);
        drive(&mut ram, 0, 0, false, false, true, true); // clr
        let v = drive(&mut ram, 0, 0, false, false, true, false);
        assert_eq!(v, 0);
    }

    #[test]
    fn simultaneous_read_write_returns_old_value() {
        let mut ram = Ram1k::new();
        drive(&mut ram, 9, 0xAAAA, true, false, true, false);
        // Read and write the same address in one cycle.
        drive(&mut ram, 9, 0x5555, true, true, true, false);
        let v = drive(&mut ram, 0, 0, false, false, true, false);
        assert_eq!(v, 0xAAAA, "read-before-write semantics");
        assert_eq!(ram.peek(9), 0x5555);
    }

    #[test]
    fn reset_clears_state() {
        let mut ram = Ram1k::new();
        drive(&mut ram, 3, 99, true, true, true, false);
        ram.reset();
        assert_eq!(ram.peek(3), 0);
        let v = drive(&mut ram, 0, 0, false, false, true, false);
        assert_eq!(v, 0);
    }

    #[test]
    fn interface_shape_matches_paper() {
        let ram = Ram1k::new();
        let s = ram.signals();
        assert_eq!(s.input_width(), 44); // paper Table I: PIs 44
        assert_eq!(s.output_width(), 32); // paper Table I: POs 32
    }

    #[test]
    fn netlist_has_8192_memory_bits() {
        let n = Ram1k::new().netlist().unwrap();
        let stats = n.stats();
        // 256 × 32 macro bits — the paper's Table I value.
        assert_eq!(stats.memory_elements, 8192);
        assert_eq!(stats.input_bits, 44);
        assert_eq!(stats.output_bits, 32);
        assert_eq!(n.memories().len(), 1);
        assert_eq!(n.memories()[0].bits(), 8192);
    }
}
