//! The benchmark-IP abstraction.

use psm_rtl::{Netlist, RtlError};
use psm_trace::{Bits, Direction, SignalSet};

/// A benchmark IP with a behavioural model and a structural (gate-level)
/// twin.
///
/// The contract between the two:
///
/// * [`Ip::signals`] matches the port list of [`Ip::netlist`] exactly
///   (names, widths, directions, declaration order), inputs first;
/// * one call to [`Ip::step`] corresponds to one clock cycle of the
///   structural simulation: given the inputs applied in cycle *t* and the
///   architectural state left by cycle *t − 1*, it writes the output
///   values visible *during* cycle *t* and commits the state the clock
///   edge captures.
///
/// The cross-model equivalence is enforced by randomised tests in the
/// workspace's integration suite.
pub trait Ip {
    /// Short benchmark name (Table I row label).
    fn name(&self) -> &'static str;

    /// The PI/PO interface, in declaration order (PIs first).
    fn signals(&self) -> SignalSet;

    /// Builds the structural twin.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures; for the shipped IPs this
    /// cannot fail and mostly exists so implementors can use `?`.
    fn netlist(&self) -> Result<Netlist, RtlError>;

    /// Returns the behavioural model to its post-reset state.
    fn reset(&mut self);

    /// Executes one clock cycle on word rows, laid out as a
    /// [`FunctionalTrace`](psm_trace::FunctionalTrace) row over
    /// [`signals`](Ip::signals): every port takes `width.div_ceil(64)`
    /// little-endian words, in declaration order. `inputs` is the input
    /// ports' part of the row and `outputs` the output ports' part, which
    /// directly follows it in a trace row.
    ///
    /// The bits of `inputs` above each port's width are zero. `step`
    /// writes every word of `outputs`, with the bits above each port's
    /// width zero.
    ///
    /// # Panics
    ///
    /// Implementations may panic when a row has the wrong length — a
    /// programming error, matching how an HDL simulator would fail
    /// elaboration. [`behavioural_trace`](crate::behavioural_trace)
    /// checks a stimulus against the interface before the first step.
    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]);

    /// Executes one clock cycle on one [`Bits`] per port: a convenience
    /// over [`step`](Ip::step) for tests and examples. `inputs` are in
    /// PI declaration order; returns the POs in PO declaration order.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` does not fit the input ports (count or
    /// widths).
    fn step_bits(&mut self, inputs: &[Bits]) -> Vec<Bits> {
        let signals = self.signals();
        let (ins, outs): (Vec<_>, Vec<_>) = signals
            .iter()
            .map(|(_, d)| d)
            .partition(|d| d.direction() == Direction::Input);
        assert_eq!(inputs.len(), ins.len(), "{} input ports", ins.len());
        let mut in_row = Vec::with_capacity(signals.words_per_cycle());
        for (value, decl) in inputs.iter().zip(&ins) {
            assert_eq!(value.width(), decl.width(), "width of `{}`", decl.name());
            in_row.extend_from_slice(value.as_words());
        }
        let mut out_row = vec![0; signals.words_per_cycle() - in_row.len()];
        self.step(&in_row, &mut out_row);
        let mut at = 0;
        outs.iter()
            .map(|d| {
                let n = d.width().div_ceil(64);
                let value = Bits::from_words(&out_row[at..at + n], d.width());
                at += n;
                value
            })
            .collect()
    }
}
