//! Classification of a functional trace into mined propositions — the
//! observation stream of PSM simulation (paper §III-C).
//!
//! The forward walk over those observations runs in the HMM runtime
//! (`psm-hmm`, and its compiled form in `psm-compile`), which handles
//! deterministic and joined, non-deterministic models alike (paper §V).

use psm_mining::{PropositionId, PropositionTable};
use psm_trace::FunctionalTrace;

/// Classifies every instant of a functional trace into its mined
/// proposition; `None` marks behaviour unseen during training.
///
/// This is the observation stream the HMM forward pass consumes. The
/// table's atoms are resolved against the trace's row layout once and
/// every instant is read in place as a row of words (see
/// [`PropositionTable::classify_trace`]), so the per-cycle
/// classification is allocation-free.
pub fn classify_trace(
    table: &PropositionTable,
    trace: &FunctionalTrace,
) -> Vec<Option<PropositionId>> {
    table.classify_trace(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_trace_maps_unknowns() {
        use psm_mining::{Miner, MiningConfig};
        use psm_trace::{Bits, Direction, SignalSet};
        let mut signals = SignalSet::new();
        signals.push("x", 1, Direction::Input).unwrap();
        signals.push("y", 1, Direction::Input).unwrap();
        let mut phi = FunctionalTrace::new(signals.clone());
        for (x, y) in [(0u64, 1u64), (0, 1), (1, 0), (1, 0)] {
            phi.push_cycle(vec![Bits::from_u64(x, 1), Bits::from_u64(y, 1)])
                .unwrap();
        }
        let mined = Miner::new(MiningConfig::default()).mine(&[&phi]).unwrap();
        let obs = classify_trace(&mined.table, &phi);
        assert!(obs.iter().all(Option::is_some));
        // A cycle with x=y=1 was never seen.
        let mut unseen = FunctionalTrace::new(signals);
        unseen
            .push_cycle(vec![Bits::from_u64(1, 1), Bits::from_u64(1, 1)])
            .unwrap();
        let obs2 = classify_trace(&mined.table, &unseen);
        assert_eq!(obs2, vec![None]);
    }
}
