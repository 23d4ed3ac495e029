//! Per-stage wall-clock and throughput accounting.
//!
//! Every engine run produces an [`EngineReport`]: one [`StageStats`] entry
//! per pipeline stage (repeated stages — e.g. the Top-K stage across
//! several incremental ingests — accumulate into one entry). The scaling
//! benchmark in `dehealth-bench` serializes these counters to
//! `BENCH_scaling.json` so the performance trajectory is tracked across
//! PRs.

use std::time::Instant;

/// Wall-clock and volume counters for one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (`"prepare"`, `"topk"`, `"filter"`, `"refined"`).
    pub stage: &'static str,
    /// What `items` counts (`"posts"`, `"pairs"`, `"users"`).
    pub unit: &'static str,
    /// Accumulated wall-clock seconds.
    pub seconds: f64,
    /// Accumulated processed item count.
    pub items: u64,
    /// Items the stage *considered* but skipped without processing —
    /// e.g. pairs pruned by the indexed scorer's upper bound before their
    /// degree/distance terms were ever computed. `items + skipped` is the
    /// stage's full workload.
    pub skipped: u64,
}

impl StageStats {
    /// Items per second (0 when no time was observed).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.items as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Counters for the approximate tier's margin-prescreen and rescore
/// decisions. All three stay zero under `ExactnessMode::Exact`, which the
/// wire serializers rely on to keep exact-mode responses byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrescreenTally {
    /// Top-K pairs fully scored while a prescreen margin was active.
    pub admitted: u64,
    /// Top-K pairs dropped by the margin prescreen without exact scoring;
    /// each one's true score was below `floor + margin`.
    pub skipped: u64,
    /// Refined-stage users whose quantized vote landed inside the margin
    /// band and were rescored with the exact f64 kernel.
    pub rescored: u64,
}

impl PrescreenTally {
    /// True when every counter is zero — i.e. the run was exact, or the
    /// approximate tier never made a decision.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.admitted == 0 && self.skipped == 0 && self.rescored == 0
    }
}

/// The engine's execution report: configuration echoes plus per-stage
/// counters, in pipeline order of first appearance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineReport {
    /// Resolved worker-thread count.
    pub n_threads: usize,
    /// Anonymized users per work block.
    pub block_size: usize,
    /// Stage counters.
    pub stages: Vec<StageStats>,
    /// Approximate-tier decision counters (all zero in exact mode).
    pub prescreen: PrescreenTally,
    /// Top-K pairs pruned on their pre-merge bound, before the
    /// hot-attribute merge. With [`Self::topk_pruned_after_merge`] it
    /// sums to the `topk` stage's `skipped` count.
    pub topk_pruned_before_merge: u64,
    /// Top-K pairs that paid the hot-attribute merge and were then
    /// pruned.
    pub topk_pruned_after_merge: u64,
}

impl EngineReport {
    pub(crate) fn new(n_threads: usize, block_size: usize) -> Self {
        Self { n_threads, block_size, ..Self::default() }
    }

    /// Accumulate one Top-K pass's pair counters: `scored` as the `topk`
    /// stage's items, both pruned classes as its `skipped` and each on
    /// its own field, and the prescreen decisions.
    pub(crate) fn record_pairs(&mut self, tally: &dehealth_core::index::PairTally) {
        self.record("topk", "pairs", tally.scored, 0.0);
        self.record_skipped("topk", "pairs", tally.pruned());
        self.topk_pruned_before_merge += tally.pruned_before_merge;
        self.topk_pruned_after_merge += tally.pruned_after_merge;
        self.record_prescreen(tally.admitted, tally.skipped);
    }

    /// Accumulate margin-prescreen decisions from the Top-K stage.
    pub(crate) fn record_prescreen(&mut self, admitted: u64, skipped: u64) {
        self.prescreen.admitted += admitted;
        self.prescreen.skipped += skipped;
    }

    /// Accumulate refined-stage exact rescores of margin-band users.
    pub(crate) fn record_rescored(&mut self, rescored: u64) {
        self.prescreen.rescored += rescored;
    }

    /// Accumulate `items` processed in `seconds` into `stage`.
    pub(crate) fn record(
        &mut self,
        stage: &'static str,
        unit: &'static str,
        items: u64,
        seconds: f64,
    ) {
        if let Some(s) = self.stages.iter_mut().find(|s| s.stage == stage) {
            s.items += items;
            s.seconds += seconds;
        } else {
            self.stages.push(StageStats { stage, unit, seconds, items, skipped: 0 });
        }
    }

    /// Accumulate `skipped` items (considered but pruned) into `stage`.
    pub(crate) fn record_skipped(&mut self, stage: &'static str, unit: &'static str, skipped: u64) {
        if let Some(s) = self.stages.iter_mut().find(|s| s.stage == stage) {
            s.skipped += skipped;
        } else {
            self.stages.push(StageStats { stage, unit, seconds: 0.0, items: 0, skipped });
        }
    }

    /// Counters of one stage, if it ran.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Total wall-clock seconds across stages.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Feed this report into a metric registry: one
    /// `engine_stage_seconds{stage=…}` histogram sample plus
    /// `engine_stage_items_total` / `engine_stage_skipped_total` counter
    /// increments per stage, and `engine_topk_pairs_total{class=…}` per
    /// Top-K pair class. The daemon calls this after every served
    /// attack, turning one-shot reports into per-stage latency
    /// distributions across requests.
    pub fn record_into(&self, registry: &dehealth_telemetry::Registry) {
        for s in &self.stages {
            let labels = [("stage", s.stage)];
            registry.histogram_with("engine_stage_seconds", &labels).record_secs(s.seconds);
            registry.counter_with("engine_stage_items_total", &labels).add(s.items);
            registry.counter_with("engine_stage_skipped_total", &labels).add(s.skipped);
        }
        for (class, n) in [
            ("scored", self.stage("topk").map_or(0, |t| t.items)),
            ("pruned_before_merge", self.topk_pruned_before_merge),
            ("pruned_after_merge", self.topk_pruned_after_merge),
        ] {
            registry.counter_with("engine_topk_pairs_total", &[("class", class)]).add(n);
        }
        let p = self.prescreen;
        for (outcome, n) in
            [("admitted", p.admitted), ("skipped", p.skipped), ("rescored", p.rescored)]
        {
            registry.counter_with("engine_prescreen_total", &[("outcome", outcome)]).add(n);
        }
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "engine report ({} threads, block size {}):", self.n_threads, self.block_size)?;
        for s in &self.stages {
            write!(
                f,
                "  {:<8} {:>10.3}s  {:>12} {:<6} {:>14.0} {}/s",
                s.stage,
                s.seconds,
                s.items,
                s.unit,
                s.throughput(),
                s.unit
            )?;
            if s.skipped > 0 {
                write!(f, "  ({} {} pruned)", s.skipped, s.unit)?;
            }
            writeln!(f)?;
        }
        let (before, after) = (self.topk_pruned_before_merge, self.topk_pruned_after_merge);
        if before + after > 0 {
            writeln!(f, "  topk pruned {before} before merge, {after} after merge")?;
        }
        if !self.prescreen.is_empty() {
            let p = self.prescreen;
            writeln!(
                f,
                "  prescreen  {} admitted, {} skipped, {} rescored",
                p.admitted, p.skipped, p.rescored
            )?;
        }
        write!(f, "  total    {:>10.3}s", self.total_seconds())
    }
}

/// Measure the wall-clock of `f`.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_stage() {
        let mut r = EngineReport::new(4, 64);
        r.record("topk", "pairs", 100, 0.5);
        r.record("topk", "pairs", 50, 0.25);
        r.record("refined", "users", 10, 1.0);
        assert_eq!(r.stages.len(), 2);
        let topk = r.stage("topk").unwrap();
        assert_eq!(topk.items, 150);
        assert!((topk.seconds - 0.75).abs() < 1e-12);
        assert!((topk.throughput() - 200.0).abs() < 1e-9);
        assert!((r.total_seconds() - 1.75).abs() < 1e-12);
        assert!(r.stage("missing").is_none());
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        let s = StageStats { stage: "x", unit: "pairs", seconds: 0.0, items: 5, skipped: 0 };
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn skipped_accumulates_and_shows_in_display() {
        let mut r = EngineReport::new(1, 8);
        r.record("topk", "pairs", 10, 0.1);
        r.record_skipped("topk", "pairs", 7);
        r.record_skipped("topk", "pairs", 3);
        let topk = r.stage("topk").unwrap();
        assert_eq!(topk.items, 10);
        assert_eq!(topk.skipped, 10);
        assert!(format!("{r}").contains("10 pairs pruned"));
        // A skipped-only record creates the stage too.
        r.record_skipped("other", "users", 2);
        assert_eq!(r.stage("other").unwrap().skipped, 2);
    }

    #[test]
    fn pair_classes_sum_to_the_stage_counts_and_reach_the_registry() {
        let mut r = EngineReport::new(1, 8);
        for (scored, before, after) in [(5, 30, 4), (2, 10, 1)] {
            r.record_pairs(&dehealth_core::index::PairTally {
                scored,
                pruned_before_merge: before,
                pruned_after_merge: after,
                ..Default::default()
            });
        }
        let topk = r.stage("topk").unwrap();
        assert_eq!((topk.items, topk.skipped), (7, 45));
        assert_eq!((r.topk_pruned_before_merge, r.topk_pruned_after_merge), (40, 5));
        assert!(format!("{r}").contains("pruned 40 before merge, 5 after merge"));
        let registry = dehealth_telemetry::Registry::new();
        r.record_into(&registry);
        let class = |c| registry.counter_with("engine_topk_pairs_total", &[("class", c)]).get();
        assert_eq!((class("scored"), class("pruned_before_merge")), (7, 40));
        assert_eq!(class("pruned_after_merge"), 5);
    }

    #[test]
    fn display_mentions_stages() {
        let mut r = EngineReport::new(2, 32);
        r.record("topk", "pairs", 10, 0.1);
        let text = format!("{r}");
        assert!(text.contains("2 threads"));
        assert!(text.contains("topk"));
    }

    #[test]
    fn record_into_feeds_a_registry() {
        let mut r = EngineReport::new(2, 32);
        r.record("topk", "pairs", 100, 0.5);
        r.record_skipped("topk", "pairs", 7);
        r.record("refined", "users", 10, 0.1);
        let registry = dehealth_telemetry::Registry::new();
        r.record_into(&registry);
        r.record_into(&registry); // accumulates across runs
        let topk = registry.histogram_with("engine_stage_seconds", &[("stage", "topk")]);
        assert_eq!(topk.count(), 2);
        assert!((topk.sum_seconds() - 1.0).abs() < 1e-9);
        let items = registry.counter_with("engine_stage_items_total", &[("stage", "topk")]);
        assert_eq!(items.get(), 200);
        let skipped = registry.counter_with("engine_stage_skipped_total", &[("stage", "topk")]);
        assert_eq!(skipped.get(), 14);
        assert_eq!(
            registry.histogram_with("engine_stage_seconds", &[("stage", "refined")]).count(),
            2
        );
    }

    #[test]
    fn prescreen_counters_accumulate_and_export() {
        let mut r = EngineReport::new(1, 8);
        assert!(r.prescreen.is_empty());
        assert!(!format!("{r}").contains("prescreen"));
        r.record_prescreen(5, 3);
        r.record_prescreen(1, 0);
        r.record_rescored(2);
        assert_eq!(r.prescreen, PrescreenTally { admitted: 6, skipped: 3, rescored: 2 });
        assert!(format!("{r}").contains("6 admitted, 3 skipped, 2 rescored"));
        let registry = dehealth_telemetry::Registry::new();
        r.record_into(&registry);
        for (outcome, want) in [("admitted", 6), ("skipped", 3), ("rescored", 2)] {
            let c = registry.counter_with("engine_prescreen_total", &[("outcome", outcome)]);
            assert_eq!(c.get(), want);
        }
    }

    #[test]
    fn timed_measures_and_returns() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
