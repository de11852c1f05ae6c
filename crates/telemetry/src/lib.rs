//! Per-stage telemetry of the pipeline and the estimation service.
//!
//! Every run of the training or estimation engine — and every lifetime of
//! the `psmd` daemon — can record, per pipeline stage, *spans* (what ran,
//! when it started relative to the run, how long it took), *counters* (how
//! many states the optimiser merged, how often estimation lost sync, how
//! many requests each opcode served) and *gauges* (instantaneous values
//! such as queue depth, tracked as last + high-water mark).
//! The result is a [`TelemetryReport`] that renders as an aligned text
//! table or as JSON — the raw material of the paper's Table II/III timing
//! columns and of the daemon's `STATS` opcode.
//!
//! [`Telemetry`] is thread-safe: the parallel engine's workers record spans
//! concurrently while fanning captures and per-trace generation across
//! threads, and the service's worker pool adds request time to fixed
//! named counters while the event loop bumps opcode counters.

#![deny(missing_docs)]

use psm_analyze::{AnalysisReport, Diagnostic};
use psm_persist::JsonValue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The pipeline stages the engine instruments (paper Fig. 1, plus the
/// estimation step of Table III and the `psmd` service loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Static validation of pipeline artifacts (netlist, traces, model).
    Validate,
    /// Golden gate-level capture of paired functional + power traces.
    Capture,
    /// Temporal-assertion mining over the functional traces.
    Mining,
    /// Chain-PSM generation, one per training trace.
    Generation,
    /// Intra-trace state merging (`simplify`).
    Simplify,
    /// Inter-trace model union (`join`).
    Join,
    /// Hamming-regression calibration of data-dependent states.
    Calibrate,
    /// HMM construction from the combined PSM.
    HmmBuild,
    /// PSM/HMM power estimation of a workload.
    Estimation,
    /// Service start-up: `psmd`'s registry load. Per-request service
    /// time goes to named counters, not spans.
    Serve,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::Validate,
        Stage::Capture,
        Stage::Mining,
        Stage::Generation,
        Stage::Simplify,
        Stage::Join,
        Stage::Calibrate,
        Stage::HmmBuild,
        Stage::Estimation,
        Stage::Serve,
    ];

    /// The stages exercised by training (everything but estimation and
    /// service work).
    pub const TRAINING: [Stage; 8] = [
        Stage::Validate,
        Stage::Capture,
        Stage::Mining,
        Stage::Generation,
        Stage::Simplify,
        Stage::Join,
        Stage::Calibrate,
        Stage::HmmBuild,
    ];

    /// Stable lowercase name (used in both report formats).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Validate => "validate",
            Stage::Capture => "capture",
            Stage::Mining => "mining",
            Stage::Generation => "generation",
            Stage::Simplify => "simplify",
            Stage::Join => "join",
            Stage::Calibrate => "calibrate",
            Stage::HmmBuild => "hmm-build",
            Stage::Estimation => "estimation",
            Stage::Serve => "serve",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed unit of work: a stage instance with its offset from the start
/// of the run.
#[derive(Debug, Clone)]
pub struct Span {
    /// The pipeline stage this span belongs to.
    pub stage: Stage,
    /// What exactly ran (e.g. `stimulus 2`, `trace 0`, `req 17`).
    pub label: String,
    /// Start offset relative to the telemetry epoch.
    pub start: Duration,
    /// Wall-clock duration (never zero; sub-nanosecond work rounds up).
    pub duration: Duration,
}

/// Event counters accumulated across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// States eliminated by `simplify` + `join` (before − after).
    pub states_merged: usize,
    /// States whose constant output was replaced by a regression fit.
    pub calibrated_states: usize,
    /// Estimation instants where the predicted state failed and the model
    /// resynchronised (the paper's WSP events).
    pub wrong_state_predictions: usize,
    /// Estimation instants of behaviour unknown to the model.
    pub sync_losses: usize,
}

/// Snapshot of one named gauge: the last value observed and the
/// high-water mark across the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The gauge name (e.g. `serve.queue_depth`).
    pub name: String,
    /// The most recently observed value.
    pub last: u64,
    /// The largest value observed.
    pub max: u64,
}

/// Thread-safe collector of [`Span`]s, [`Counters`], named counters and
/// gauges for one engine run or service lifetime.
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    diagnostics: Mutex<Vec<Diagnostic>>,
    named: Mutex<Vec<(String, u64)>>,
    gauges: Mutex<Vec<(String, u64, u64)>>,
    states_merged: AtomicUsize,
    calibrated_states: AtomicUsize,
    wrong_state_predictions: AtomicUsize,
    sync_losses: AtomicUsize,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Starts a fresh collector; the epoch is *now*.
    pub fn new() -> Self {
        Telemetry {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            diagnostics: Mutex::new(Vec::new()),
            named: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            states_merged: AtomicUsize::new(0),
            calibrated_states: AtomicUsize::new(0),
            wrong_state_predictions: AtomicUsize::new(0),
            sync_losses: AtomicUsize::new(0),
        }
    }

    /// Runs `f`, recording a span for it under `stage`.
    pub fn time<T>(&self, stage: Stage, label: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let duration = self
            .epoch
            .elapsed()
            .saturating_sub(start)
            .max(Duration::from_nanos(1));
        self.spans.lock().expect("telemetry lock").push(Span {
            stage,
            label: label.into(),
            start,
            duration,
        });
        out
    }

    /// Runs `f`, adding its elapsed nanoseconds to the named counter
    /// `name`. Unlike [`Telemetry::time`] it records no span, so a
    /// service can call it once per request without the collector
    /// growing.
    pub fn time_named<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos().max(1);
        self.add_named(name, u64::try_from(nanos).unwrap_or(u64::MAX));
        out
    }

    /// Appends every diagnostic of a validation report, so lint findings
    /// ride along with the run's timings in the final report.
    pub fn add_diagnostics(&self, report: &AnalysisReport) {
        self.diagnostics
            .lock()
            .expect("telemetry lock")
            .extend(report.diagnostics().iter().cloned());
    }

    /// Adds to the merged-states counter.
    pub fn add_states_merged(&self, n: usize) {
        self.states_merged.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the calibrated-states counter.
    pub fn add_calibrated_states(&self, n: usize) {
        self.calibrated_states.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the wrong-state-prediction counter.
    pub fn add_wrong_state_predictions(&self, n: usize) {
        self.wrong_state_predictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the sync-loss (unknown-behaviour) counter.
    pub fn add_sync_losses(&self, n: usize) {
        self.sync_losses.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to the named counter `name`, creating it at zero on first
    /// use. Named counters carry service-side events (one per opcode, BUSY
    /// rejections, reloads) that the fixed [`Counters`] fields do not
    /// cover.
    pub fn add_named(&self, name: &str, n: u64) {
        let mut named = self.named.lock().expect("telemetry lock");
        match named.iter_mut().find(|(k, _)| k == name) {
            Some((_, total)) => *total += n,
            None => named.push((name.to_owned(), n)),
        }
    }

    /// Records an observation of the gauge `name`: the report keeps the
    /// last observed value and the high-water mark.
    pub fn set_gauge(&self, name: &str, value: u64) {
        let mut gauges = self.gauges.lock().expect("telemetry lock");
        match gauges.iter_mut().find(|(k, _, _)| k == name) {
            Some((_, last, max)) => {
                *last = value;
                *max = (*max).max(value);
            }
            None => gauges.push((name.to_owned(), value, value)),
        }
    }

    /// Snapshots the collected spans and counters into a report. Spans are
    /// sorted by start offset (ties broken by duration), so the report is
    /// monotone even when parallel workers finished out of order. Named
    /// counters and gauges are sorted by name, so two snapshots of the
    /// same state render identically.
    pub fn report(&self) -> TelemetryReport {
        let mut spans = self.spans.lock().expect("telemetry lock").clone();
        spans.sort_by_key(|s| (s.start, s.duration));
        let mut named = self.named.lock().expect("telemetry lock").clone();
        named.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|(name, last, max)| GaugeSnapshot {
                name: name.clone(),
                last: *last,
                max: *max,
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetryReport {
            spans,
            diagnostics: self.diagnostics.lock().expect("telemetry lock").clone(),
            counters: Counters {
                states_merged: self.states_merged.load(Ordering::Relaxed),
                calibrated_states: self.calibrated_states.load(Ordering::Relaxed),
                wrong_state_predictions: self.wrong_state_predictions.load(Ordering::Relaxed),
                sync_losses: self.sync_losses.load(Ordering::Relaxed),
            },
            named_counters: named,
            gauges,
            total: self.epoch.elapsed(),
        }
    }
}

/// An immutable snapshot of one run's telemetry.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// All recorded spans, sorted by start offset.
    pub spans: Vec<Span>,
    /// Validation diagnostics recorded during the run, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// The accumulated event counters.
    pub counters: Counters,
    /// Named counters (service opcodes, BUSY rejections, …), sorted by
    /// name.
    pub named_counters: Vec<(String, u64)>,
    /// Gauge snapshots (queue depth, …), sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Wall-clock from the telemetry epoch to the snapshot.
    pub total: Duration,
}

impl TelemetryReport {
    /// Spans belonging to one stage, in start order.
    pub fn stage_spans(&self, stage: Stage) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.stage == stage)
    }

    /// Summed duration of one stage across all its spans. In a parallel
    /// run this is aggregate worker time, which may exceed wall-clock —
    /// use [`stage_wall`](Self::stage_wall) for elapsed time.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        self.stage_spans(stage).map(|s| s.duration).sum()
    }

    /// Wall-clock time one stage occupied: the union of its span
    /// intervals, so concurrent workers count once. `stage_wall ==
    /// stage_total` in a sequential run; in a parallel run the ratio of
    /// the two is the stage's effective worker occupancy. This is the
    /// number speedups must be judged against (a t2 run whose capture
    /// *total* doubles while its capture *wall* halves is scaling
    /// perfectly).
    pub fn stage_wall(&self, stage: Stage) -> Duration {
        // Spans are already sorted by start offset.
        let mut wall = Duration::ZERO;
        let mut cur: Option<(Duration, Duration)> = None;
        for s in self.stage_spans(stage) {
            let end = s.start + s.duration;
            match &mut cur {
                Some((_, cur_end)) if s.start <= *cur_end => *cur_end = (*cur_end).max(end),
                Some((cur_start, cur_end)) => {
                    wall += *cur_end - *cur_start;
                    cur = Some((s.start, end));
                }
                None => cur = Some((s.start, end)),
            }
        }
        if let Some((start, end)) = cur {
            wall += end - start;
        }
        wall
    }

    /// `true` when every stage in `stages` has at least one span.
    pub fn covers(&self, stages: &[Stage]) -> bool {
        stages
            .iter()
            .all(|&st| self.stage_spans(st).next().is_some())
    }

    /// The value of one named counter, zero when never bumped.
    pub fn named_counter(&self, name: &str) -> u64 {
        self.named_counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The snapshot of one gauge, `None` when never observed.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The aligned text report: one row per stage that ran, then counters,
    /// named counters and gauges.
    pub fn text(&self) -> String {
        let mut out = String::from("stage       spans  total      wall\n");
        for stage in Stage::ALL {
            let n = self.stage_spans(stage).count();
            if n == 0 {
                continue;
            }
            let total = self.stage_total(stage);
            let wall = self.stage_wall(stage);
            out.push_str(&format!(
                "{:<11} {:>5}  {:<9}  {:<9}\n",
                stage.name(),
                n,
                format!("{total:.3?}"),
                format!("{wall:.3?}"),
            ));
        }
        out.push_str(&format!(
            "counters    states_merged={} calibrated_states={} \
             wrong_state_predictions={} sync_losses={}\n",
            self.counters.states_merged,
            self.counters.calibrated_states,
            self.counters.wrong_state_predictions,
            self.counters.sync_losses,
        ));
        for (name, total) in &self.named_counters {
            out.push_str(&format!("counter     {name}={total}\n"));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "gauge       {} last={} max={}\n",
                g.name, g.last, g.max
            ));
        }
        for d in &self.diagnostics {
            out.push_str(&format!("diagnostic  {d}\n"));
        }
        out
    }

    /// The report as a JSON document: per-stage aggregates, the raw spans,
    /// the counters, the named counters and the gauges.
    pub fn to_json(&self) -> JsonValue {
        let stages = JsonValue::arr(Stage::ALL.iter().filter_map(|&stage| {
            let n = self.stage_spans(stage).count();
            if n == 0 {
                return None;
            }
            Some(JsonValue::obj([
                ("stage", JsonValue::from(stage.name())),
                ("spans", JsonValue::from(n)),
                (
                    "total_ns",
                    JsonValue::from(self.stage_total(stage).as_nanos() as u64),
                ),
                (
                    "wall_ns",
                    JsonValue::from(self.stage_wall(stage).as_nanos() as u64),
                ),
            ]))
        }));
        let spans = JsonValue::arr(self.spans.iter().map(|s| {
            JsonValue::obj([
                ("stage", JsonValue::from(s.stage.name())),
                ("label", JsonValue::from(s.label.as_str())),
                ("start_ns", JsonValue::from(s.start.as_nanos() as u64)),
                ("duration_ns", JsonValue::from(s.duration.as_nanos() as u64)),
            ])
        }));
        JsonValue::obj([
            ("stages", stages),
            ("spans", spans),
            (
                "diagnostics",
                JsonValue::arr(self.diagnostics.iter().map(Diagnostic::to_json)),
            ),
            (
                "counters",
                JsonValue::obj([
                    (
                        "states_merged",
                        JsonValue::from(self.counters.states_merged),
                    ),
                    (
                        "calibrated_states",
                        JsonValue::from(self.counters.calibrated_states),
                    ),
                    (
                        "wrong_state_predictions",
                        JsonValue::from(self.counters.wrong_state_predictions),
                    ),
                    ("sync_losses", JsonValue::from(self.counters.sync_losses)),
                ]),
            ),
            (
                "named_counters",
                JsonValue::arr(self.named_counters.iter().map(|(name, total)| {
                    JsonValue::obj([
                        ("name", JsonValue::from(name.as_str())),
                        ("total", JsonValue::from(*total)),
                    ])
                })),
            ),
            (
                "gauges",
                JsonValue::arr(self.gauges.iter().map(|g| {
                    JsonValue::obj([
                        ("name", JsonValue::from(g.name.as_str())),
                        ("last", JsonValue::from(g.last)),
                        ("max", JsonValue::from(g.max)),
                    ])
                })),
            ),
            ("total_ns", JsonValue::from(self.total.as_nanos() as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_sort() {
        let t = Telemetry::new();
        let x = t.time(Stage::Mining, "all", || 21 * 2);
        assert_eq!(x, 42);
        t.time(Stage::Capture, "stimulus 0", || {});
        let report = t.report();
        assert_eq!(report.spans.len(), 2);
        // Sorted by start, so mining (recorded first) leads.
        assert_eq!(report.spans[0].stage, Stage::Mining);
        assert!(report.spans.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(report.spans.iter().all(|s| s.duration > Duration::ZERO));
    }

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add_states_merged(3);
        t.add_states_merged(4);
        t.add_calibrated_states(2);
        t.add_wrong_state_predictions(1);
        t.add_sync_losses(5);
        let c = t.report().counters;
        assert_eq!(c.states_merged, 7);
        assert_eq!(c.calibrated_states, 2);
        assert_eq!(c.wrong_state_predictions, 1);
        assert_eq!(c.sync_losses, 5);
    }

    #[test]
    fn named_counters_accumulate_and_sort() {
        let t = Telemetry::new();
        t.add_named("op.stats", 1);
        t.add_named("op.estimate", 2);
        t.add_named("op.estimate", 3);
        let report = t.report();
        assert_eq!(report.named_counter("op.estimate"), 5);
        assert_eq!(report.named_counter("op.stats"), 1);
        assert_eq!(report.named_counter("op.none"), 0);
        // Sorted by name for deterministic rendering.
        let names: Vec<&str> = report
            .named_counters
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["op.estimate", "op.stats"]);
        assert!(report.text().contains("counter     op.estimate=5"));
        let json = report.to_json();
        assert_eq!(json.arr_field("named_counters").unwrap().len(), 2);
    }

    #[test]
    fn gauges_keep_last_and_max() {
        let t = Telemetry::new();
        t.set_gauge("queue_depth", 3);
        t.set_gauge("queue_depth", 7);
        t.set_gauge("queue_depth", 1);
        t.set_gauge("batch_size", 4);
        let report = t.report();
        let g = report.gauge("queue_depth").unwrap();
        assert_eq!((g.last, g.max), (1, 7));
        assert_eq!(report.gauge("batch_size").unwrap().max, 4);
        assert!(report.gauge("missing").is_none());
        assert!(report
            .text()
            .contains("gauge       queue_depth last=1 max=7"));
        let json = report.to_json();
        // Sorted: batch_size before queue_depth.
        let gauges = json.arr_field("gauges").unwrap();
        assert_eq!(gauges[0].str_field("name").unwrap(), "batch_size");
        assert_eq!(gauges[1].u64_field("max").unwrap(), 7);
    }

    #[test]
    fn report_text_and_json_list_recorded_stages() {
        let t = Telemetry::new();
        for stage in Stage::ALL {
            t.time(stage, "unit", || {});
        }
        let report = t.report();
        assert!(report.covers(&Stage::ALL));
        let text = report.text();
        for stage in Stage::ALL {
            assert!(text.contains(stage.name()), "missing {stage} in:\n{text}");
        }
        let json = report.to_json();
        assert_eq!(json.arr_field("stages").unwrap().len(), Stage::ALL.len());
        assert_eq!(json.arr_field("spans").unwrap().len(), Stage::ALL.len());
        let rendered = json.render();
        let reparsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(
            reparsed.arr_field("stages").unwrap().len(),
            Stage::ALL.len()
        );
    }

    #[test]
    fn stage_wall_unions_overlapping_spans() {
        let span = |start_ms: u64, dur_ms: u64| Span {
            stage: Stage::Capture,
            label: String::new(),
            start: Duration::from_millis(start_ms),
            duration: Duration::from_millis(dur_ms),
        };
        let report = TelemetryReport {
            // Two overlapping spans (0..80 and 10..90: two workers), a
            // touching one (90..100) and a disjoint one (200..250).
            spans: vec![span(0, 80), span(10, 80), span(90, 10), span(200, 50)],
            diagnostics: Vec::new(),
            counters: Counters::default(),
            named_counters: Vec::new(),
            gauges: Vec::new(),
            total: Duration::from_millis(250),
        };
        assert_eq!(
            report.stage_total(Stage::Capture),
            Duration::from_millis(220)
        );
        assert_eq!(
            report.stage_wall(Stage::Capture),
            Duration::from_millis(150)
        );
        assert_eq!(report.stage_wall(Stage::Mining), Duration::ZERO);
    }

    #[test]
    fn sequential_wall_equals_total() {
        let t = Telemetry::new();
        t.time(Stage::Capture, "a", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.time(Stage::Capture, "b", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let report = t.report();
        assert_eq!(
            report.stage_wall(Stage::Capture),
            report.stage_total(Stage::Capture),
            "non-overlapping spans union to their sum"
        );
        // Both aggregates surface in the reports.
        assert!(report
            .text()
            .starts_with("stage       spans  total      wall\n"));
        let json = report.to_json();
        let stages = json.arr_field("stages").unwrap();
        assert!(stages[0].u64_field("wall_ns").unwrap() > 0);
        assert_eq!(
            stages[0].u64_field("wall_ns").unwrap(),
            stages[0].u64_field("total_ns").unwrap()
        );
    }

    #[test]
    fn covers_detects_missing_stages() {
        let t = Telemetry::new();
        t.time(Stage::Capture, "only", || {});
        let report = t.report();
        assert!(report.covers(&[Stage::Capture]));
        assert!(!report.covers(&Stage::TRAINING));
        assert_eq!(report.stage_total(Stage::Join), Duration::ZERO);
    }

    #[test]
    fn diagnostics_ride_along_in_both_report_formats() {
        use psm_analyze::codes;
        let t = Telemetry::new();
        let mut r = AnalysisReport::new("unit");
        r.push(Diagnostic::new(
            &codes::NL002,
            "net n3",
            "net n3 has 2 drivers",
        ));
        t.add_diagnostics(&r);
        let report = t.report();
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.text().contains("NL002"), "{}", report.text());
        let json = report.to_json();
        assert_eq!(json.arr_field("diagnostics").unwrap().len(), 1);
        assert_eq!(
            json.arr_field("diagnostics").unwrap()[0]
                .str_field("code")
                .unwrap(),
            "NL002"
        );
    }

    #[test]
    fn concurrent_spans_are_all_kept() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for j in 0..8 {
                        t.time(Stage::Generation, format!("w{i} j{j}"), || {});
                    }
                });
            }
        });
        assert_eq!(t.report().spans.len(), 32);
    }

    #[test]
    fn concurrent_named_counters_and_gauges() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for v in 0..100u64 {
                        t.add_named("op.estimate", 1);
                        t.set_gauge("queue_depth", v);
                    }
                });
            }
        });
        let report = t.report();
        assert_eq!(report.named_counter("op.estimate"), 400);
        assert_eq!(report.gauge("queue_depth").unwrap().max, 99);
    }

    #[test]
    fn time_named_adds_nanoseconds_without_a_span() {
        let t = Telemetry::new();
        let out = t.time_named("serve.estimate_ns", || 7);
        t.time_named("serve.estimate_ns", || ());
        assert_eq!(out, 7);
        let report = t.report();
        assert!(report.spans.is_empty());
        assert_eq!(report.named_counters.len(), 1);
        assert!(report.named_counter("serve.estimate_ns") >= 2);
    }
}
