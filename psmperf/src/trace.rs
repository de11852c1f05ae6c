//! In-memory span recording for the traced pass.
//!
//! A span is one call into a layer (a leaf, named `<layer>.<what>`) or a
//! grouping of calls (a round, one IP's training). Spans nest through an
//! explicit parent index; a span's self time is its duration minus the
//! time its children cover. Spans stay in memory and are written out once,
//! when the run ends, so recording costs two clock reads and a push.
//! Training's layer spans come from the flow's own telemetry and are
//! copied in with [`Tracer::record`].

use psm_persist::JsonValue;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric stem (`core.join`) or grouping name (`round`).
    pub name: String,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round (or serve step) the span belongs to.
    pub round: usize,
}

/// A span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Sets the round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx`, which must be the innermost open one.
    pub fn exit(&mut self, idx: usize) -> Duration {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end = self.epoch.elapsed();
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Time since the tracer's epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Adds a span measured elsewhere (a telemetry span of the program
    /// under test) as a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Duration, duration: Duration) {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start + duration,
            parent: self.open.last().copied(),
            round: self.round,
        });
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over the spans of `rounds`.
    pub fn self_times(&self, rounds: &[usize]) -> BTreeMap<String, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end.saturating_sub(span.start);
            }
        }
        let mut out: BTreeMap<String, Duration> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            if rounds.contains(&span.round) {
                let own = span
                    .end
                    .saturating_sub(span.start)
                    .saturating_sub(*children);
                *out.entry(span.name.clone()).or_default() += own;
            }
        }
        out
    }

    /// The spans as JSON: `{"spans": [{name, start_ns, end_ns, parent,
    /// round}, ...]}`, `parent` being an index into the same array or
    /// `null`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([(
            "spans",
            JsonValue::arr(self.spans.iter().map(|s| {
                JsonValue::obj([
                    ("name", JsonValue::from(s.name.as_str())),
                    ("start_ns", JsonValue::from(s.start.as_nanos() as u64)),
                    ("end_ns", JsonValue::from(s.end.as_nanos() as u64)),
                    (
                        "parent",
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::from(p as u64)),
                    ),
                    ("round", JsonValue::from(s.round as u64)),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_round(3);
        let outer = t.enter("round");
        t.leaf("core.join", || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(5));
        let total = t.exit(outer);
        let times = t.self_times(&[3]);
        let join = times["core.join"];
        let own = times["round"];
        assert!(join >= Duration::from_millis(20));
        assert!(own >= Duration::from_millis(5));
        assert_eq!(join + own, total);
        assert!(t.self_times(&[0]).is_empty());
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
