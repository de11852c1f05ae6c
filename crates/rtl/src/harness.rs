//! One-pass capture of paired functional + power training traces.
//!
//! The paper's methodology needs, for every benchmark IP, a functional trace
//! and a *corresponding* power trace over the same stimuli. This module runs
//! a gate-level simulation once and records both, playing the role of the
//! paper's "simulate the IP with its verification testbenches, then run
//! PrimeTime PX on the same traces" step. Its input, a [`Stimulus`], is
//! the input half of the [`FunctionalTrace`] the capture records.

use crate::netlist::Netlist;
use crate::power::{PowerEstimator, PowerModel};
use crate::sim::Simulator;
use crate::RtlError;
use psm_trace::{Bits, Direction, FunctionalTrace, PowerTrace, SignalSet, TraceError};

/// A cycle-by-cycle input stimulus: for every cycle, one value per input
/// port, in the netlist's declaration order.
///
/// A stimulus is a [`FunctionalTrace`] over input ports only: each cycle
/// is a row in which each port takes `width.div_ceil(64)` little-endian
/// words, in declaration order, with the bits above its width zero. Its
/// ports are its layout: [`for_inputs`](Stimulus::for_inputs) keeps an
/// interface's input declarations, and a stimulus with no ports and no
/// cycles, like [`new`](Stimulus::new)'s, takes the first pushed cycle's
/// widths, with positional port names (`in0`, `in1`, …).
///
/// Each cycle is checked where it is pushed, so a stimulus holds only
/// rows that fit its layout, and a simulation checks just the layout
/// ([`check_fits`](Stimulus::check_fits)). Two stimuli are equal when
/// their port widths and rows are; names are not compared.
///
/// # Examples
///
/// ```
/// use psm_rtl::Stimulus;
/// use psm_trace::{Bits, TraceError};
///
/// let mut s = Stimulus::new();
/// s.push_cycle(vec![Bits::from_u64(1, 1), Bits::from_u64(0x1F, 8)])?;
/// s.push_row(&[0, 0x1FF]); // bits above a port's width are dropped
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.widths(), [1, 8]);
/// assert_eq!(s.row(0), [1, 0x1F]);
/// assert_eq!(s.row(1), [0, 0xFF]);
/// assert_eq!(s.cycle_bits(1)[1], Bits::from_u64(0xFF, 8));
///
/// // A cycle in another shape is refused, and nothing is appended.
/// let err = s.push_cycle(vec![Bits::from_u64(1, 1)]).unwrap_err();
/// assert!(matches!(err, TraceError::CycleShapeMismatch { expected: 2, actual: 1 }));
/// assert_eq!(s.len(), 2);
/// # Ok::<(), TraceError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stimulus(FunctionalTrace);

impl Stimulus {
    /// Creates an empty stimulus; the first cycle pushed fixes its layout.
    pub fn new() -> Self {
        Stimulus::default()
    }

    /// Creates an empty stimulus laid out over the inputs of `signals`.
    pub fn for_inputs(signals: &SignalSet) -> Self {
        Stimulus(FunctionalTrace::new(input_layout(signals)))
    }

    /// Appends the input values for one cycle (input-port declaration
    /// order). Into a stimulus with no ports and no cycles, the cycle's
    /// widths become the layout.
    ///
    /// # Errors
    ///
    /// What [`FunctionalTrace::push_cycle`] returns for a cycle that does
    /// not fit the layout; nothing is appended.
    pub fn push_cycle(&mut self, inputs: Vec<Bits>) -> Result<(), TraceError> {
        if self.0.is_empty() && self.0.signals().is_empty() {
            let mut ports = SignalSet::new();
            for (p, value) in inputs.iter().enumerate() {
                ports.push(format!("in{p}"), value.width(), Direction::Input)?;
            }
            self.0 = FunctionalTrace::new(ports);
        }
        self.0.push_cycle(inputs)
    }

    /// Appends one cycle given as a row of words in the layout. Bits
    /// above each port's width are cleared.
    ///
    /// # Panics
    ///
    /// Panics when `row` has the wrong length.
    pub fn push_row(&mut self, row: &[u64]) {
        if let Err(err) = self.0.push_words(row) {
            panic!("a stimulus row over ports {:?}: {err}", self.widths());
        }
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when no cycle has been added.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The input-port widths the rows are laid out over.
    pub fn widths(&self) -> Vec<usize> {
        self.0.signals().iter().map(|(_, d)| d.width()).collect()
    }

    /// The words of cycle `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn row(&self, t: usize) -> &[u64] {
        self.0.cycle(t).as_words()
    }

    /// Iterates over the cycles' rows in time order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> {
        // Slicing the buffer, not `FunctionalTrace::iter`, keeps the row
        // width lookup out of the behavioural IPs' per-cycle loop.
        let wpc = self.0.signals().words_per_cycle();
        let words = self.0.as_words();
        (0..self.len()).map(move |t| &words[t * wpc..(t + 1) * wpc])
    }

    /// Checks the layout against an interface whose input ports are
    /// declared first: the result is what [`SignalSet::check_cycle`]
    /// returns for one cycle of this stimulus's port widths followed by
    /// the output ports of `signals`. An empty stimulus fits every
    /// interface.
    ///
    /// # Errors
    ///
    /// [`TraceError::CycleShapeMismatch`] for a wrong port count,
    /// [`TraceError::SignalWidthMismatch`] for a wrong width.
    pub fn check_fits(&self, signals: &SignalSet) -> Result<(), TraceError> {
        if self.is_empty() {
            return Ok(());
        }
        let outputs = signals.outputs().into_iter().map(|id| signals.decl(id));
        let widths = self.widths().into_iter().chain(outputs.map(|d| d.width()));
        signals.check_cycle(&widths.map(Bits::zero).collect::<Vec<_>>())
    }

    /// Cycle `t` as one [`Bits`] per input port: a convenience for tests
    /// and scalar reference paths, which allocates.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn cycle_bits(&self, t: usize) -> Vec<Bits> {
        self.0.cycle(t).to_vec()
    }
}

impl PartialEq for Stimulus {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.widths() == other.widths()
            && self.0.as_words() == other.0.as_words()
    }
}

impl FromIterator<Vec<Bits>> for Stimulus {
    /// Collects cycles into a [`new`](Stimulus::new) stimulus.
    ///
    /// # Panics
    ///
    /// Panics at the first cycle that does not fit the first one's layout,
    /// naming the cycle and its [`push_cycle`](Stimulus::push_cycle) error.
    fn from_iter<I: IntoIterator<Item = Vec<Bits>>>(iter: I) -> Self {
        let mut stimulus = Stimulus::new();
        for (t, inputs) in iter.into_iter().enumerate() {
            if let Err(err) = stimulus.push_cycle(inputs) {
                panic!("stimulus cycle {t} does not fit: {err}");
            }
        }
        stimulus
    }
}

/// The input ports of `signals`, in declaration order: the layout of a
/// stimulus row.
pub(crate) fn input_layout(signals: &SignalSet) -> SignalSet {
    let mut inputs = SignalSet::new();
    for (_, d) in signals
        .iter()
        .filter(|(_, d)| d.direction() == Direction::Input)
    {
        inputs
            .push(d.name(), d.width(), Direction::Input)
            .expect("a signal set's declarations are unique and non-zero width");
    }
    inputs
}

/// Checks stimuli, one per lane, against a netlist's input ports
/// `inputs` with [`Stimulus::check_fits`], naming the port in a width
/// error. The lowest misfit lane's error is returned.
pub(crate) fn check_stimuli(inputs: &SignalSet, stimuli: &[Stimulus]) -> Result<(), RtlError> {
    for stimulus in stimuli {
        stimulus.check_fits(inputs).map_err(|err| match err {
            TraceError::SignalWidthMismatch {
                signal,
                expected,
                actual,
            } => RtlError::PortWidthMismatch {
                port: signal,
                expected,
                actual,
            },
            err => RtlError::Trace(err),
        })?;
    }
    Ok(())
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
    check_stimuli(&input_layout(&signals), std::slice::from_ref(stimulus))?;
    let input_handles: Vec<_> = sim.input_handles();
    let mut functional = FunctionalTrace::with_capacity(signals, stimulus.len());
    let mut total = PowerTrace::with_capacity(stimulus.len());
    let mut by_domain: Vec<PowerTrace> = (0..n_domains)
        .map(|_| PowerTrace::with_capacity(stimulus.len()))
        .collect();

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
        stim.push_cycle(vec![]).unwrap();
        assert!(capture_traces(&n, &PowerModel::default(), &stim, 0).is_err());
    }

    #[test]
    fn busy_cycles_draw_more_power() {
        let n = accumulator();
        // 100 busy cycles with changing data, then 100 idle cycles (d = 0,
        // accumulator saturated at a fixed point: q + 0 = q).
        let mut stim = Stimulus::new();
        for i in 0..100u64 {
            stim.push_cycle(vec![Bits::from_u64(0x55 ^ (i * 37), 8)])
                .unwrap();
        }
        for _ in 0..100 {
            stim.push_cycle(vec![Bits::from_u64(0, 8)]).unwrap();
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
            stim.push_cycle(vec![Bits::from_u64(k * 37, 8), Bits::from_bool(true)])
                .unwrap();
        }
        // Phase 2: sel=0 → register `c` (unit_b) loads changing data.
        for k in 0..40u64 {
            stim.push_cycle(vec![Bits::from_u64(k * 53, 8), Bits::from_bool(false)])
                .unwrap();
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
