//! One-pass capture of paired functional + power training traces.
//!
//! The paper's methodology needs, for every benchmark IP, a functional trace
//! and a *corresponding* power trace over the same stimuli. This module runs
//! a gate-level simulation once and records both, playing the role of the
//! paper's "simulate the IP with its verification testbenches, then run
//! PrimeTime PX on the same traces" step.

use crate::netlist::{Netlist, Port};
use crate::power::{PowerEstimator, PowerModel};
use crate::sim::Simulator;
use crate::RtlError;
use psm_trace::{Bits, Direction, FunctionalTrace, PowerTrace, SignalSet};
use std::ops::Range;

/// A cycle-by-cycle input stimulus: for every cycle, one value per input
/// port, in the netlist's declaration order.
///
/// Storage is one row-major buffer of `u64` words, laid out as the input
/// half of a [`FunctionalTrace`] row: each cycle is a row of
/// [`words_per_cycle`](Stimulus::words_per_cycle) words, and each port
/// takes `width.div_ceil(64)` little-endian words of it, in declaration
/// order, with the bits above its width kept at zero. The port widths,
/// [`widths`](Stimulus::widths), are the stimulus's layout: fixed up
/// front by [`for_inputs`](Stimulus::for_inputs), or by the first cycle
/// pushed into an empty stimulus.
///
/// A cycle pushed with [`push_cycle`](Stimulus::push_cycle) in another
/// shape is kept as a row of zeros, and the first such cycle is
/// remembered: a simulation that reads the stimulus rejects it with the
/// error that cycle's values would have raised, before it simulates
/// anything (see [`first_misfit`](Stimulus::first_misfit)).
///
/// # Examples
///
/// ```
/// use psm_rtl::Stimulus;
/// use psm_trace::Bits;
///
/// let mut s = Stimulus::new();
/// s.push_cycle(vec![Bits::from_u64(1, 1), Bits::from_u64(0x1F, 8)]);
/// s.push_row(&[0, 0x1FF]); // bits above a port's width are dropped
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.widths(), [1, 8]);
/// assert_eq!(s.row(0), [1, 0x1F]);
/// assert_eq!(s.row(1), [0, 0xFF]);
/// assert_eq!(s.cycle_bits(1)[1], Bits::from_u64(0xFF, 8));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stimulus {
    /// Input-port widths in declaration order: the row layout.
    widths: Vec<usize>,
    /// Words per row: the sum of `width.div_ceil(64)` over `widths`.
    wpc: usize,
    /// `len` rows of `words_per_cycle` words, in time order.
    words: Vec<u64>,
    len: usize,
    /// The first cycle pushed in a shape other than `widths`, with the
    /// port widths it was pushed with.
    misfit: Option<(usize, Vec<usize>)>,
}

impl Stimulus {
    /// Creates an empty stimulus; the first cycle pushed fixes its layout.
    pub fn new() -> Self {
        Stimulus::default()
    }

    /// An empty stimulus laid out over input ports of the given widths
    /// (from a `SignalSet` or from `Bits`, so none is zero).
    fn with_widths(widths: &[usize]) -> Self {
        Stimulus {
            widths: widths.to_vec(),
            wpc: widths.iter().map(|w| w.div_ceil(64)).sum(),
            ..Stimulus::default()
        }
    }

    /// Creates an empty stimulus laid out over the inputs of `signals`.
    pub fn for_inputs(signals: &SignalSet) -> Self {
        let widths: Vec<usize> = signals
            .iter()
            .filter(|(_, d)| d.direction() == Direction::Input)
            .map(|(_, d)| d.width())
            .collect();
        Stimulus::with_widths(&widths)
    }

    /// Appends the input values for one cycle (input-port declaration
    /// order). Into an empty stimulus, the cycle's widths become the
    /// layout; see the type docs for a cycle that does not fit it.
    pub fn push_cycle(&mut self, inputs: Vec<Bits>) {
        if self.len == 0 {
            let widths: Vec<usize> = inputs.iter().map(Bits::width).collect();
            *self = Stimulus::with_widths(&widths);
        }
        let fits = inputs.len() == self.widths.len()
            && inputs
                .iter()
                .zip(&self.widths)
                .all(|(v, &w)| v.width() == w);
        let start = self.words.len();
        if fits {
            for value in &inputs {
                self.words.extend_from_slice(value.as_words());
            }
        } else {
            self.words.resize(start + self.wpc, 0);
            if self.misfit.is_none() {
                self.misfit = Some((self.len, inputs.iter().map(Bits::width).collect()));
            }
        }
        self.len += 1;
    }

    /// Appends one cycle given as a row of
    /// [`words_per_cycle`](Stimulus::words_per_cycle) words. Bits above
    /// each port's width are cleared.
    ///
    /// # Panics
    ///
    /// Panics when `row` has the wrong length.
    pub fn push_row(&mut self, row: &[u64]) {
        assert_eq!(
            row.len(),
            self.wpc,
            "a stimulus row over ports of widths {:?}",
            self.widths
        );
        let start = self.words.len();
        self.words.extend_from_slice(row);
        let mut end = start;
        for &w in &self.widths {
            end += w.div_ceil(64);
            if w % 64 != 0 {
                self.words[end - 1] &= (1u64 << (w % 64)) - 1;
            }
        }
        self.len += 1;
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no cycle has been added.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The input-port widths the rows are laid out over.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Number of `u64` words one cycle occupies.
    pub fn words_per_cycle(&self) -> usize {
        self.wpc
    }

    /// The words of cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn row(&self, t: usize) -> &[u64] {
        assert!(t < self.len, "cycle {t} of {}", self.len);
        &self.words[t * self.wpc..(t + 1) * self.wpc]
    }

    /// Iterates over the cycles' rows in time order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> {
        let wpc = self.wpc;
        (0..self.len).map(move |t| &self.words[t * wpc..(t + 1) * wpc])
    }

    /// Cycle `t` as one [`Bits`] per input port: a convenience for tests
    /// and scalar reference paths, which allocates.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn cycle_bits(&self, t: usize) -> Vec<Bits> {
        let row = self.row(t);
        word_ranges(&self.widths)
            .into_iter()
            .zip(&self.widths)
            .map(|(words, &w)| Bits::from_words(&row[words], w))
            .collect()
    }

    /// The first cycle whose port widths differ from `widths`, with the
    /// widths that cycle was pushed with; `None` when every cycle fits.
    ///
    /// A simulation checks its stimulus with this once, instead of every
    /// cycle, and reports the error the returned cycle raises.
    pub fn first_misfit(&self, widths: &[usize]) -> Option<(usize, &[usize])> {
        if self.len == 0 {
            None
        } else if self.widths != widths {
            Some((0, &self.widths))
        } else {
            self.misfit.as_ref().map(|(t, w)| (*t, w.as_slice()))
        }
    }
}

impl FromIterator<Vec<Bits>> for Stimulus {
    fn from_iter<I: IntoIterator<Item = Vec<Bits>>>(iter: I) -> Self {
        let mut stimulus = Stimulus::new();
        for inputs in iter {
            stimulus.push_cycle(inputs);
        }
        stimulus
    }
}

/// The words of each port within a row over ports of `widths`.
pub(crate) fn word_ranges(widths: &[usize]) -> Vec<Range<usize>> {
    let mut start = 0;
    widths
        .iter()
        .map(|w| {
            let range = start..start + w.div_ceil(64);
            start = range.end;
            range
        })
        .collect()
}

/// The input ports of `netlist`, in declaration order.
pub(crate) fn input_ports(netlist: &Netlist) -> Vec<&Port> {
    netlist
        .ports()
        .iter()
        .filter(|p| p.direction() == Direction::Input)
        .collect()
}

/// Checks stimuli, one per lane, against `netlist`'s inputs once, and
/// returns the error that staging them cycle by cycle would meet first.
/// That is the earliest misfit cycle of any lane; within it, the
/// port-count error of the lowest lane, since counts are checked before
/// anything is staged, else the width error met first in port-major,
/// lane-minor order.
pub(crate) fn check_stimuli(netlist: &Netlist, stimuli: &[Stimulus]) -> Result<(), RtlError> {
    let ports = input_ports(netlist);
    let widths: Vec<usize> = ports.iter().map(|p| p.width()).collect();
    let misfits: Vec<(usize, &[usize])> = stimuli
        .iter()
        .filter_map(|s| s.first_misfit(&widths))
        .collect();
    let Some(first) = misfits.iter().map(|&(t, _)| t).min() else {
        return Ok(());
    };
    // Each misfit's error, keyed by when the staging meets it: `None`
    // (a count error) sorts before `Some(port)`.
    let (_, err) = misfits
        .iter()
        .filter(|&&(t, _)| t == first)
        .map(|&(_, shape)| {
            if shape.len() != widths.len() {
                let err = RtlError::Trace(psm_trace::TraceError::CycleShapeMismatch {
                    expected: widths.len(),
                    actual: shape.len(),
                });
                return (None, err);
            }
            let p = (0..widths.len())
                .find(|&p| widths[p] != shape[p])
                .expect("a misfit cycle has a port of another width");
            let err = RtlError::PortWidthMismatch {
                port: ports[p].name().to_owned(),
                expected: widths[p],
                actual: shape[p],
            };
            (Some(p), err)
        })
        .min_by_key(|&(key, _)| key)
        .expect("the earliest misfit is in some lane");
    Err(err)
}

/// Paired training traces captured from one gate-level run.
#[derive(Debug, Clone)]
pub struct CaptureResult {
    /// Functional trace over all ports (PIs and POs), one row per cycle.
    pub functional: FunctionalTrace,
    /// Golden dynamic power trace over the same cycles, in mW.
    pub power: PowerTrace,
}

/// Training traces with per-power-domain golden power — the substrate of
/// the hierarchical-PSM extension (the paper's future work: "a power model
/// based on hierarchical PSMs that distinguishes among IP subcomponents").
#[derive(Debug, Clone)]
pub struct HierarchicalCapture {
    /// Functional trace over all ports.
    pub functional: FunctionalTrace,
    /// Whole-design golden power, in mW.
    pub total: PowerTrace,
    /// Domain names, indexed like [`by_domain`](Self::by_domain).
    pub domains: Vec<String>,
    /// One golden power trace per power domain; per instant they sum to
    /// [`total`](Self::total) (up to the independently drawn noise).
    pub by_domain: Vec<PowerTrace>,
}

/// Simulates `netlist` under `stimulus`, recording the functional trace of
/// all ports and the golden power trace of the same cycles.
///
/// `seed` drives the power estimator's measurement noise only; the
/// functional behaviour is fully deterministic.
///
/// This is the scalar reference capture, one [`Simulator`] run per
/// stimulus. Every production path captures through
/// [`capture_traces_batch`](crate::capture_traces_batch), whose results it
/// reproduces byte for byte; this one is the oracle that pins them.
///
/// # Errors
///
/// * [`RtlError::CombinationalLoop`] if the netlist cannot be levelized;
/// * [`RtlError::PortWidthMismatch`] / [`RtlError::Trace`] when a stimulus
///   cycle does not match the input interface.
///
/// # Examples
///
/// ```
/// use psm_rtl::{capture_traces, NetlistBuilder, PowerModel, Stimulus};
/// use psm_trace::Bits;
///
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a", 1);
/// let y = b.not_word(&a);
/// b.output("y", &y);
/// let n = b.finish()?;
///
/// let stim: Stimulus = (0..4)
///     .map(|i| vec![Bits::from_u64(i % 2, 1)])
///     .collect();
/// let result = capture_traces(&n, &PowerModel::default(), &stim, 1)?;
/// assert_eq!(result.functional.len(), 4);
/// assert_eq!(result.power.len(), 4);
/// # Ok::<(), psm_rtl::RtlError>(())
/// ```
pub fn capture_traces(
    netlist: &Netlist,
    model: &PowerModel,
    stimulus: &Stimulus,
    seed: u64,
) -> Result<CaptureResult, RtlError> {
    let h = capture_traces_by_domain(netlist, model, stimulus, seed)?;
    Ok(CaptureResult {
        functional: h.functional,
        power: h.total,
    })
}

/// Like [`capture_traces`], additionally recording one golden power trace
/// per power domain of the netlist (see
/// [`NetlistBuilder::domain`](crate::NetlistBuilder::domain)).
///
/// The static baseline of the power model is attributed to domain 0; each
/// domain's measurement noise is drawn independently (seeded), so domain
/// traces sum to the total only up to noise.
///
/// # Errors
///
/// Same conditions as [`capture_traces`].
pub fn capture_traces_by_domain(
    netlist: &Netlist,
    model: &PowerModel,
    stimulus: &Stimulus,
    seed: u64,
) -> Result<HierarchicalCapture, RtlError> {
    let mut sim = Simulator::new(netlist)?;
    let mut estimator = PowerEstimator::new(*model, seed);
    let n_domains = netlist.domains().len();
    // Domain estimators: the baseline lives in domain 0 only.
    let zero_base = PowerModel::new(
        model.vdd(),
        model.freq_mhz(),
        f64::MIN_POSITIVE,
        model.noise_fraction(),
    );
    let mut domain_estimators: Vec<PowerEstimator> = (0..n_domains)
        .map(|d| {
            let m = if d == 0 { *model } else { zero_base };
            PowerEstimator::new(m, seed ^ (0xD0_0D + d as u64))
        })
        .collect();

    let signals = netlist.signal_set();
    let input_handles: Vec<_> = sim.input_handles();
    let mut functional = FunctionalTrace::with_capacity(signals, stimulus.len());
    let mut total = PowerTrace::with_capacity(stimulus.len());
    let mut by_domain: Vec<PowerTrace> = (0..n_domains)
        .map(|_| PowerTrace::with_capacity(stimulus.len()))
        .collect();

    check_stimuli(netlist, std::slice::from_ref(stimulus))?;
    for t in 0..stimulus.len() {
        for ((_, handle), value) in input_handles.iter().zip(stimulus.cycle_bits(t)) {
            sim.set_input_by_handle(*handle, &value)?;
        }
        let activity = sim.step();
        functional.push_cycle(sim.sample_ports())?;
        total.push(estimator.next_sample(&activity));
        for (d, trace) in by_domain.iter_mut().enumerate() {
            let a = crate::power::CycleActivity {
                switched_capacitance_ff: sim.domain_activity()[d],
                toggled_nets: 0,
            };
            trace.push(domain_estimators[d].next_sample(&a));
        }
    }

    Ok(HierarchicalCapture {
        functional,
        total,
        domains: netlist.domains().to_vec(),
        by_domain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn accumulator() -> Netlist {
        let mut b = NetlistBuilder::new("acc");
        let d = b.input("d", 8);
        let acc = b.register("acc", 8);
        let q = acc.q();
        let sum = b.add(&q, &d);
        b.connect_register(&acc, &sum.sum);
        b.output("q", &acc.q());
        b.finish().unwrap()
    }

    #[test]
    fn captures_matching_lengths() {
        let n = accumulator();
        let stim: Stimulus = (0..50).map(|i| vec![Bits::from_u64(i % 7, 8)]).collect();
        let r = capture_traces(&n, &PowerModel::default(), &stim, 11).unwrap();
        assert_eq!(r.functional.len(), 50);
        assert_eq!(r.power.len(), 50);
        // The functional trace covers both ports.
        assert_eq!(r.functional.signals().len(), 2);
    }

    #[test]
    fn functional_values_match_direct_simulation() {
        let n = accumulator();
        let stim: Stimulus = (0..10).map(|i| vec![Bits::from_u64(i, 8)]).collect();
        let r = capture_traces(&n, &PowerModel::default(), &stim, 0).unwrap();
        let q = r.functional.signals().by_name("q").unwrap();
        // Accumulator: q at cycle t equals sum of inputs 0..t (one-cycle lag).
        let mut expected = 0u64;
        for t in 0..10 {
            assert_eq!(
                r.functional.cycle(t).bits(q).to_u64().unwrap(),
                expected,
                "cycle {t}"
            );
            expected = (expected + t as u64) & 0xFF;
        }
    }

    #[test]
    fn same_seed_same_power() {
        let n = accumulator();
        let stim: Stimulus = (0..20).map(|i| vec![Bits::from_u64(i * 3, 8)]).collect();
        let a = capture_traces(&n, &PowerModel::default(), &stim, 5).unwrap();
        let b = capture_traces(&n, &PowerModel::default(), &stim, 5).unwrap();
        assert_eq!(a.power, b.power);
        let c = capture_traces(&n, &PowerModel::default(), &stim, 6).unwrap();
        assert_ne!(a.power, c.power);
    }

    #[test]
    fn rejects_malformed_cycles() {
        let n = accumulator();
        let mut stim = Stimulus::new();
        stim.push_cycle(vec![]);
        assert!(capture_traces(&n, &PowerModel::default(), &stim, 0).is_err());
    }

    #[test]
    fn busy_cycles_draw_more_power() {
        let n = accumulator();
        // 100 busy cycles with changing data, then 100 idle cycles (d = 0,
        // accumulator saturated at a fixed point: q + 0 = q).
        let mut stim = Stimulus::new();
        for i in 0..100u64 {
            stim.push_cycle(vec![Bits::from_u64(0x55 ^ (i * 37), 8)]);
        }
        for _ in 0..100 {
            stim.push_cycle(vec![Bits::from_u64(0, 8)]);
        }
        // Zero baseline so the comparison sees only the dynamic component.
        let model = PowerModel::new(1.2, 500.0, 0.0, 0.0);
        let r = capture_traces(&n, &model, &stim, 0).unwrap();
        let busy: f64 = r.power.as_slice()[10..100].iter().sum::<f64>() / 90.0;
        let idle: f64 = r.power.as_slice()[110..].iter().sum::<f64>() / 90.0;
        assert!(busy > 2.0 * idle, "busy {busy} vs idle {idle}");
    }
}

#[cfg(test)]
mod domain_tests {
    use super::*;
    use crate::NetlistBuilder;
    use psm_trace::Bits;

    /// Two registers in two domains; only one is active per phase.
    fn two_domain_design() -> Netlist {
        let mut b = NetlistBuilder::new("duo");
        let d = b.input("d", 8);
        let sel = b.input("sel", 1).bit(0);
        let a = b.register("a", 8);
        b.domain("unit_b");
        let c = b.register("c", 8);
        b.domain("core");
        b.connect_register_en(&a, sel, &d);
        let nsel = b.not(sel);
        // The enable mux of `c` lives in unit_b.
        b.domain("unit_b");
        b.connect_register_en(&c, nsel, &d);
        b.domain("core");
        let aq = a.q();
        let cq = c.q();
        let x = b.xor_word(&aq, &cq);
        b.output("x", &x);
        b.finish().unwrap()
    }

    #[test]
    fn domain_traces_follow_the_active_unit() {
        let n = two_domain_design();
        assert_eq!(n.domains(), &["core".to_string(), "unit_b".to_string()]);
        let mut stim = Stimulus::new();
        // Phase 1: sel=1 → register `a` (core) loads changing data.
        for k in 0..40u64 {
            stim.push_cycle(vec![Bits::from_u64(k * 37, 8), Bits::from_bool(true)]);
        }
        // Phase 2: sel=0 → register `c` (unit_b) loads changing data.
        for k in 0..40u64 {
            stim.push_cycle(vec![Bits::from_u64(k * 53, 8), Bits::from_bool(false)]);
        }
        let model = PowerModel::new(1.2, 500.0, 0.0, 0.0);
        let cap = capture_traces_by_domain(&n, &model, &stim, 0).unwrap();
        assert_eq!(cap.by_domain.len(), 2);
        let core_p1: f64 = cap.by_domain[0].as_slice()[5..35].iter().sum();
        let core_p2: f64 = cap.by_domain[0].as_slice()[45..75].iter().sum();
        let unit_p1: f64 = cap.by_domain[1].as_slice()[5..35].iter().sum();
        let unit_p2: f64 = cap.by_domain[1].as_slice()[45..75].iter().sum();
        assert!(core_p1 > core_p2, "core is busier in phase 1");
        assert!(unit_p2 > unit_p1, "unit_b is busier in phase 2");
    }

    #[test]
    fn domain_activity_sums_to_total() {
        let n = two_domain_design();
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input("d", &Bits::from_u64(0xA5, 8)).unwrap();
        sim.set_input("sel", &Bits::from_bool(true)).unwrap();
        for _ in 0..10 {
            let activity = sim.step();
            let by_domain: f64 = sim.domain_activity().iter().sum();
            assert!(
                (by_domain - activity.switched_capacitance_ff).abs() < 1e-9,
                "domains must partition the total"
            );
            sim.set_input("d", &Bits::from_u64(0x5A, 8)).unwrap();
        }
    }
}
