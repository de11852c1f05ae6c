//! A multiplier-accumulator ("MultSum"), modelled after the Synopsys
//! DesignWare MAC (`DW02_mac`) the paper benchmarks.
//!
//! Interface:
//!
//! | port    | dir | width | role                                |
//! |---------|-----|-------|-------------------------------------|
//! | `a`     | in  | 16    | multiplicand                        |
//! | `b`     | in  | 16    | multiplier                          |
//! | `en`    | in  | 1     | accumulate `a × b` this cycle       |
//! | `clear` | in  | 1     | synchronous clear of the accumulator|
//! | `sum`   | out | 32    | accumulator value                   |
//!
//! Like `DW02_mac`, the multiply-add is combinational: the product of the
//! *current* operands accumulates at the closing clock edge of an enabled
//! cycle and is visible on `sum` one cycle later. The multiplier array's
//! switching tracks how the operands change — the data dependence behind
//! the paper's MultSum accuracy discussion (its residual power variation
//! correlates with operand values over a window wider than the one-cycle
//! Hamming distance the calibration regression sees).

use crate::traits::Ip;
use psm_rtl::{Netlist, NetlistBuilder, RtlError};
use psm_trace::{Direction, SignalSet};

/// Behavioural model of the MAC; see the module docs above.
#[derive(Debug, Clone, Default)]
pub struct MultSum {
    acc: u32,
}

impl MultSum {
    /// A cleared MAC.
    pub fn new() -> Self {
        MultSum::default()
    }
}

impl Ip for MultSum {
    fn name(&self) -> &'static str {
        "MultSum"
    }

    fn signals(&self) -> SignalSet {
        let mut s = SignalSet::new();
        s.push("a", 16, Direction::Input).expect("unique");
        s.push("b", 16, Direction::Input).expect("unique");
        s.push("en", 1, Direction::Input).expect("unique");
        s.push("clear", 1, Direction::Input).expect("unique");
        s.push("sum", 32, Direction::Output).expect("unique");
        s
    }

    fn netlist(&self) -> Result<Netlist, RtlError> {
        let mut b = NetlistBuilder::new("multsum");
        let a_in = b.input("a", 16);
        let b_in = b.input("b", 16);
        let en = b.input("en", 1).bit(0);
        let clear = b.input("clear", 1).bit(0);

        let acc = b.register("acc", 32);
        let product = b.mul(&a_in, &b_in);
        debug_assert_eq!(product.width(), 32);
        let acc_q = acc.q();
        let summed = b.add(&acc_q, &product).sum;
        let held = acc.q();
        let next = b.mux_word(en, &held, &summed);
        let zero = b.const_word(0, 32);
        let cleared = b.mux_word(clear, &next, &zero);
        b.connect_register(&acc, &cleared);
        b.output("sum", &acc.q());
        b.finish()
    }

    fn reset(&mut self) {
        self.acc = 0;
    }

    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let &[a, bv, en, clear] = inputs else {
            panic!("MultSum takes 4 one-word input ports");
        };
        let (a, bv) = (a as u32, bv as u32);

        outputs[0] = u64::from(self.acc);

        // Clock edge: the combinational product of this cycle's operands
        // accumulates now.
        if clear != 0 {
            self.acc = 0;
        } else if en != 0 {
            self.acc = self.acc.wrapping_add(a.wrapping_mul(bv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::Bits;

    fn drive(m: &mut MultSum, a: u64, b: u64, en: bool, clear: bool) -> u64 {
        m.step_bits(&[
            Bits::from_u64(a, 16),
            Bits::from_u64(b, 16),
            Bits::from_bool(en),
            Bits::from_bool(clear),
        ])[0]
            .to_u64()
            .unwrap()
    }

    #[test]
    fn accumulates_products_with_one_cycle_latency() {
        let mut m = MultSum::new();
        drive(&mut m, 3, 4, true, false); // 3*4 accumulates at this edge
        let v = drive(&mut m, 5, 6, true, false);
        assert_eq!(v, 12);
        let v = drive(&mut m, 0, 0, false, false);
        assert_eq!(v, 42);
        let v = drive(&mut m, 9, 9, false, false);
        assert_eq!(v, 42, "disabled cycles hold");
    }

    #[test]
    fn clear_wins_over_enable() {
        let mut m = MultSum::new();
        drive(&mut m, 100, 100, true, false);
        drive(&mut m, 7, 7, true, true); // clear dominates
        let v = drive(&mut m, 0, 0, false, false);
        assert_eq!(v, 0);
    }

    #[test]
    fn accumulator_wraps_at_32_bits() {
        let mut m = MultSum::new();
        // 0xFFFF * 0xFFFF = 0xFFFE0001; twice overflows 32 bits.
        drive(&mut m, 0xFFFF, 0xFFFF, true, false);
        drive(&mut m, 0xFFFF, 0xFFFF, true, false);
        let v = drive(&mut m, 0, 0, false, false);
        assert_eq!(v, 0xFFFE_0001u64.wrapping_mul(2) & 0xFFFF_FFFF);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = MultSum::new();
        drive(&mut m, 9, 9, true, false);
        m.reset();
        let v = drive(&mut m, 0, 0, false, false);
        assert_eq!(v, 0);
    }

    #[test]
    fn interface_shape() {
        let s = MultSum::new().signals();
        assert_eq!(s.input_width(), 34);
        assert_eq!(s.output_width(), 32);
    }

    #[test]
    fn netlist_flop_count() {
        let n = MultSum::new().netlist().unwrap();
        assert_eq!(n.stats().memory_elements, 32); // the accumulator
        assert!(n.stats().combinational > 1000, "a real multiplier array");
    }
}
