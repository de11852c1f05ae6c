//! Power attributes ⟨μ, σ, n⟩ of a power state.

use psm_stats::OnlineStats;
use psm_trace::PowerTrace;
use std::fmt;

/// The power attributes of one state (paper §III-B): the number of instants
/// `n` where its assertion held, and the mean μ and standard deviation σ of
/// the reference power values over those instants.
///
/// Internally an [`OnlineStats`] accumulator, so attributes of merged states
/// (`simplify`/`join`) are combined exactly, as if recomputed over the union
/// of the source intervals.
///
/// # Examples
///
/// ```
/// use psm_core::PowerAttributes;
/// use psm_trace::PowerTrace;
///
/// let delta: PowerTrace = [3.349, 3.339, 3.353].into_iter().collect();
/// let attrs = PowerAttributes::from_window(&delta, 0, 2);
/// assert_eq!(attrs.n(), 3);
/// assert!((attrs.mu() - 3.347).abs() < 1e-9);
/// assert!(attrs.sigma() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerAttributes {
    stats: OnlineStats,
}

impl PowerAttributes {
    /// Attributes of the inclusive window `[start, stop]` of a power trace —
    /// the paper's `getPowerAttributes(Δ, start, stop)`.
    ///
    /// # Panics
    ///
    /// Panics when `start > stop` or `stop` is out of range.
    pub fn from_window(delta: &PowerTrace, start: usize, stop: usize) -> Self {
        PowerAttributes {
            stats: delta.window(start, stop).iter().copied().collect(),
        }
    }

    /// Mean power μ (mW) — the state's constant output function before
    /// calibration.
    pub fn mu(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation σ (mW); 0 for single-instant (`next`)
    /// states.
    pub fn sigma(&self) -> f64 {
        self.stats.population_std_dev()
    }

    /// Number of instants the state's assertion held.
    pub fn n(&self) -> u64 {
        self.stats.count()
    }

    /// The underlying accumulator (for the t-tests of §IV-A).
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Merges another state's attributes into this one; exact, equivalent
    /// to recomputing over the union of both windows.
    pub fn merge(&mut self, other: &PowerAttributes) {
        self.stats.merge(&other.stats);
    }
}

impl psm_persist::Persist for PowerAttributes {
    fn to_json(&self) -> psm_persist::JsonValue {
        psm_persist::Persist::to_json(&self.stats)
    }

    fn from_json(v: &psm_persist::JsonValue) -> Result<Self, psm_persist::PersistError> {
        Ok(PowerAttributes {
            stats: <OnlineStats as psm_persist::Persist>::from_json(v)?,
        })
    }
}

impl fmt::Display for PowerAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨μ={:.4}, σ={:.4}, n={}⟩",
            self.mu(),
            self.sigma(),
            self.n()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_attributes() {
        let delta: PowerTrace = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        let a = PowerAttributes::from_window(&delta, 1, 3);
        assert_eq!(a.n(), 3);
        assert_eq!(a.mu(), 3.0);
        assert!((a.sigma() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_instant_sigma_zero() {
        let delta: PowerTrace = [7.5].into_iter().collect();
        let a = PowerAttributes::from_window(&delta, 0, 0);
        assert_eq!(a.n(), 1);
        assert_eq!(a.sigma(), 0.0);
    }

    #[test]
    fn merge_equals_union_window() {
        let delta: PowerTrace = [1.0, 2.0, 3.0, 10.0, 11.0].into_iter().collect();
        let mut a = PowerAttributes::from_window(&delta, 0, 2);
        let b = PowerAttributes::from_window(&delta, 3, 4);
        a.merge(&b);
        let whole = PowerAttributes::from_window(&delta, 0, 4);
        assert_eq!(a.n(), whole.n());
        assert!((a.mu() - whole.mu()).abs() < 1e-12);
        assert!((a.sigma() - whole.sigma()).abs() < 1e-12);
    }

    #[test]
    fn display_shows_all_three() {
        let delta: PowerTrace = [2.0, 4.0].into_iter().collect();
        let a = PowerAttributes::from_window(&delta, 0, 1);
        let s = a.to_string();
        assert!(s.contains("μ=3.0000") && s.contains("n=2"), "{s}");
    }
}
