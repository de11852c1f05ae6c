//! Helpers bridging IPs with the trace substrate.

use crate::traits::Ip;
use crate::{Aes128, Camellia128, MultSum, Ram1k};
use psm_rtl::Stimulus;
use psm_trace::{FunctionalTrace, TraceError};

/// The Table I benchmark names, in paper order.
pub const BENCHMARK_NAMES: [&str; 4] = ["RAM", "MultSum", "AES", "Camellia"];

/// Instantiates a benchmark IP by its Table I name.
///
/// # Examples
///
/// ```
/// use psm_ips::ip_by_name;
/// assert!(ip_by_name("AES").is_some());
/// assert!(ip_by_name("nonsense").is_none());
/// ```
pub fn ip_by_name(name: &str) -> Option<Box<dyn Ip>> {
    match name {
        "RAM" => Some(Box::new(Ram1k::new())),
        "MultSum" => Some(Box::new(MultSum::new())),
        "AES" => Some(Box::new(Aes128::new())),
        "Camellia" => Some(Box::new(Camellia128::new())),
        _ => None,
    }
}

/// Runs the *behavioural* model under a stimulus, recording the functional
/// trace of all ports — the paper's fast "IP sim." path (Table III).
///
/// The IP is reset first, so the trace always starts from the post-reset
/// state (matching the structural capture in `psm-rtl`). The stimulus's
/// layout is checked against the IP's inputs once; then every cycle's
/// input row is copied into its trace row and [`Ip::step`] writes the
/// outputs next to it, in place. An empty stimulus fits every IP.
///
/// # Errors
///
/// What [`Stimulus::check_fits`] returns for the IP's interface when the
/// stimulus is not laid out over its inputs; nothing else is returned.
pub fn behavioural_trace(
    ip: &mut dyn Ip,
    stimulus: &Stimulus,
) -> Result<FunctionalTrace, TraceError> {
    ip.reset();
    let signals = ip.signals();
    stimulus.check_fits(&signals)?;
    let wpc = signals.words_per_cycle();
    let mut trace = FunctionalTrace::with_capacity(signals, stimulus.len());
    trace.extend_rows_with(stimulus.len(), |rows| {
        for (t, inputs) in stimulus.rows().enumerate() {
            let (row_in, row_out) = rows[t * wpc..(t + 1) * wpc].split_at_mut(inputs.len());
            row_in.copy_from_slice(inputs);
            ip.step(row_in, row_out);
        }
    });
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::Bits;

    #[test]
    fn behavioural_trace_covers_all_ports() {
        let mut ram = Ram1k::new();
        let mut stim = Stimulus::new();
        for i in 0..5u64 {
            stim.push_cycle(vec![
                Bits::from_u64(i, 8),
                Bits::from_u64(i * 3, 32),
                Bits::from_bool(true),
                Bits::from_bool(false),
                Bits::from_bool(true),
                Bits::from_bool(false),
            ])
            .unwrap();
        }
        let trace = behavioural_trace(&mut ram, &stim).unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.signals().len(), 7); // 6 PIs + rdata
    }

    #[test]
    fn all_benchmarks_instantiable() {
        for name in BENCHMARK_NAMES {
            let ip = ip_by_name(name).unwrap();
            assert_eq!(ip.name(), name);
            assert!(!ip.signals().is_empty());
        }
    }
}
