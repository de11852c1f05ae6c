//! Signal-activity statistics over functional traces.
//!
//! Trace-level activity profiling answers the questions a power engineer
//! asks before modelling: which signals toggle, how often, and with what
//! duty cycle. The mining configuration (support thresholds, domain
//! bounds) is usually chosen after a look at exactly these numbers.

use crate::functional::FunctionalTrace;
use crate::signal::SignalId;

/// Activity profile of one signal over a functional trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalActivity {
    /// The profiled signal.
    pub signal: SignalId,
    /// Total bit toggles across consecutive instants.
    pub toggles: u64,
    /// Mean toggling bits per instant (the signal's activity factor × width).
    pub toggles_per_cycle: f64,
    /// Fraction of instants where at least one bit of the signal is high.
    pub nonzero_duty: f64,
    /// Number of distinct values observed (saturates at `distinct_cap`).
    pub distinct_values: usize,
}

/// Profiles every signal of a trace.
///
/// `distinct_cap` bounds the per-signal distinct-value tracking (wide data
/// buses would otherwise accumulate one entry per instant); profiling stops
/// counting a signal's distinct values once the cap is hit, reporting the
/// cap itself.
///
/// # Examples
///
/// ```
/// use psm_trace::{activity_profile, Bits, Direction, FunctionalTrace, SignalSet};
///
/// let mut signals = SignalSet::new();
/// let en = signals.push("en", 1, Direction::Input)?;
/// let mut t = FunctionalTrace::new(signals);
/// for k in 0..8u64 {
///     t.push_cycle(vec![Bits::from_u64(k % 2, 1)])?;
/// }
/// let profile = activity_profile(&t, 16);
/// assert_eq!(profile[0].signal, en);
/// assert_eq!(profile[0].toggles, 7);        // alternates every cycle
/// assert_eq!(profile[0].distinct_values, 2);
/// assert!((profile[0].nonzero_duty - 0.5).abs() < 1e-12);
/// # Ok::<(), psm_trace::TraceError>(())
/// ```
pub fn activity_profile(trace: &FunctionalTrace, distinct_cap: usize) -> Vec<SignalActivity> {
    let n = trace.len();
    trace
        .signals()
        .iter()
        .map(|(id, _)| {
            let mut toggles = 0u64;
            let mut nonzero = 0usize;
            let mut distinct: std::collections::HashSet<&[u64]> = std::collections::HashSet::new();
            let mut capped = false;
            let mut prev: Option<&[u64]> = None;
            for row in trace.iter() {
                let v = row.words(id);
                if v.iter().any(|&w| w != 0) {
                    nonzero += 1;
                }
                if !capped {
                    distinct.insert(v);
                    if distinct.len() >= distinct_cap {
                        capped = true;
                    }
                }
                if let Some(p) = prev {
                    toggles += p
                        .iter()
                        .zip(v)
                        .map(|(a, b)| u64::from((a ^ b).count_ones()))
                        .sum::<u64>();
                }
                prev = Some(v);
            }
            SignalActivity {
                signal: id,
                toggles,
                toggles_per_cycle: if n > 1 {
                    toggles as f64 / (n - 1) as f64
                } else {
                    0.0
                },
                nonzero_duty: if n > 0 {
                    nonzero as f64 / n as f64
                } else {
                    0.0
                },
                distinct_values: distinct.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bits, Direction, SignalSet};

    fn trace() -> FunctionalTrace {
        let mut signals = SignalSet::new();
        signals.push("ctl", 1, Direction::Input).expect("unique");
        signals.push("bus", 8, Direction::Output).expect("unique");
        let mut t = FunctionalTrace::new(signals);
        for k in 0..10u64 {
            t.push_cycle(vec![
                Bits::from_u64(u64::from(k >= 5), 1),
                Bits::from_u64(k * 37 % 256, 8),
            ])
            .expect("well-formed");
        }
        t
    }

    #[test]
    fn control_signal_profile() {
        let p = activity_profile(&trace(), 64);
        let ctl = &p[0];
        assert_eq!(ctl.toggles, 1, "one rising edge");
        assert_eq!(ctl.distinct_values, 2);
        assert!((ctl.nonzero_duty - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bus_signal_profile() {
        let p = activity_profile(&trace(), 64);
        let bus = &p[1];
        assert!(bus.toggles > 10, "data bus toggles a lot");
        assert_eq!(bus.distinct_values, 10);
        assert!(bus.toggles_per_cycle > 1.0);
    }

    #[test]
    fn distinct_cap_saturates() {
        let p = activity_profile(&trace(), 3);
        assert_eq!(p[1].distinct_values, 3);
    }

    #[test]
    fn empty_trace_profile() {
        let mut signals = SignalSet::new();
        signals.push("x", 1, Direction::Input).expect("unique");
        let t = FunctionalTrace::new(signals);
        let p = activity_profile(&t, 8);
        assert_eq!(p[0].toggles, 0);
        assert_eq!(p[0].nonzero_duty, 0.0);
    }
}
