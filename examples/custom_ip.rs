//! Brings your own IP: defines a small peripheral from scratch (a
//! parallel-to-serial UART-style transmitter), gives it both a behavioural
//! model and a structural twin, and runs the whole PSM flow on it.
//!
//! This is the integration path a downstream user follows for their own
//! designs: implement [`Ip`], reuse everything else.
//!
//! ```sh
//! cargo run --release --example custom_ip
//! ```

#![deny(deprecated)]

use psmgen::flow::PsmFlow;
use psmgen::ips::Ip;
use psmgen::rtl::{Netlist, NetlistBuilder, RtlError, Stimulus, Word};
use psmgen::trace::{Direction, SignalSet};

/// A byte transmitter: `send` latches `data`, then 8 bits shift out on
/// `tx` (LSB first) while `busy` is high.
#[derive(Debug, Default)]
struct TxByte {
    shift: u8,
    remaining: u8,
}

impl Ip for TxByte {
    fn name(&self) -> &'static str {
        "TxByte"
    }

    fn signals(&self) -> SignalSet {
        let mut s = SignalSet::new();
        s.push("data", 8, Direction::Input).expect("unique");
        s.push("send", 1, Direction::Input).expect("unique");
        s.push("tx", 1, Direction::Output).expect("unique");
        s.push("busy", 1, Direction::Output).expect("unique");
        s
    }

    fn netlist(&self) -> Result<Netlist, RtlError> {
        let mut b = NetlistBuilder::new("tx_byte");
        let data = b.input("data", 8);
        let send = b.input("send", 1).bit(0);

        let shift = b.register("shift", 8);
        let count = b.register("count", 4);

        let count_q = count.q();
        let busy = {
            let idle = b.eq_const(&count_q, 0);
            b.not(idle)
        };
        let n_busy = b.not(busy);
        let fire = b.and(send, n_busy);

        // Shift register: load on fire, shift right while busy.
        let shift_q = shift.q();
        let shifted = b.shr_const(&shift_q, 1);
        let held = b.mux_word(busy, &shift_q, &shifted);
        let next_shift = b.mux_word(fire, &held, &data);
        b.connect_register(&shift, &next_shift);

        // Bit counter: 8 on fire, minus one while busy.
        let one = b.const_word(1, 4);
        let dec = b.sub(&count_q, &one).sum;
        let held_c = b.mux_word(busy, &count_q, &dec);
        let eight = b.const_word(8, 4);
        let next_count = b.mux_word(fire, &held_c, &eight);
        b.connect_register(&count, &next_count);

        b.output("tx", &shift.q().slice(0, 1));
        b.output("busy", &Word::from_nets(vec![busy]));
        b.finish()
    }

    fn reset(&mut self) {
        *self = TxByte::default();
    }

    /// One cycle over word rows: every port here fits one word, so the
    /// inputs are `[data, send]` and the outputs `[tx, busy]`.
    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let (data, send) = (inputs[0] as u8, inputs[1] != 0);
        let busy = self.remaining > 0;

        outputs[0] = u64::from(self.shift & 1);
        outputs[1] = u64::from(busy);

        if busy {
            self.shift >>= 1;
            self.remaining -= 1;
        } else if send {
            self.shift = data;
            self.remaining = 8;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simple directed-plus-random testbench for the transmitter, one
    // `[data, send]` word row per cycle.
    let make_stimulus = |seed: u64, frames: usize| {
        let mut s = Stimulus::for_inputs(&TxByte::default().signals());
        let mut x = seed;
        for _ in 0..10 {
            s.push_row(&[0, 0]);
        }
        for _ in 0..frames {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let byte = (x >> 33) & 0xFF;
            s.push_row(&[byte, 1]);
            for _ in 0..8 {
                s.push_row(&[byte, 0]);
            }
            for _ in 0..(3 + (x >> 40) % 9) {
                s.push_row(&[byte, 0]);
            }
        }
        s
    };

    // Tiny peripheral, tiny power levels: tighten the designer knobs.
    let mut flow = PsmFlow::default();
    flow.merge = psmgen::psm::MergePolicy::new(0.005, 0.3);
    flow.mining = flow.mining.with_pair_relations(false);
    let mut ip = TxByte::default();
    let model = flow.train(&mut ip, &[make_stimulus(1, 150)])?;
    println!(
        "TxByte model: {} states, {} transitions",
        model.stats.states, model.stats.transitions
    );
    for (id, state) in model.psm.states() {
        println!(
            "  {id}: {}  —  {}",
            state.attrs(),
            state.chains()[0].render(&model.table)
        );
    }

    let workload = make_stimulus(777, 300);
    let est = flow.estimate(&model, &mut ip, &workload)?;
    println!(
        "fresh workload: MRE {:.2} %, WSP {:.2} %",
        est.mre_vs_reference()? * 100.0,
        est.outcome.wsp_rate() * 100.0
    );
    Ok(())
}
