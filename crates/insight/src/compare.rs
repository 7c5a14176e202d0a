//! Perf-regression gating over `BENCH_harness.json` snapshots.
//!
//! [`load_rows`] parses a harness file into keyed rows
//! (`experiment@t<threads>`); [`compare`] matches a baseline snapshot
//! against a current one and flags rows whose wall time or throughput
//! regressed past configurable thresholds, plus — when the workload is
//! identical — any drift in the deterministic trace counters (questions,
//! spend, decision counts must be bit-identical for the same seeds).
//! The CLI exits non-zero when any regression is found, which is what
//! lets CI gate merges on it.

use disq_trace::{BenchRow, Counter};
use std::collections::BTreeMap;
use std::path::Path;

/// Parses a `BENCH_harness.json` file into rows keyed by
/// `experiment@t<threads>`.
pub fn load_rows(path: &Path) -> Result<BTreeMap<String, BenchRow>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_rows(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses the harness file body (a JSON array of row objects).
pub fn parse_rows(text: &str) -> Result<BTreeMap<String, BenchRow>, String> {
    let doc = disq_trace::json::parse(text)?;
    let arr = doc.as_arr().ok_or("harness file is not a JSON array")?;
    let mut rows = BTreeMap::new();
    for (i, row) in arr.iter().enumerate() {
        let row = BenchRow::from_json(row).map_err(|e| format!("row {i}: {e}"))?;
        rows.insert(row.experiment.clone(), row);
    }
    Ok(rows)
}

/// Thresholds for [`compare`]. Ratios are multiplicative: `1.5` allows
/// the current run to be up to 50% slower before flagging.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Max allowed `current.wall_secs / baseline.wall_secs` when the
    /// workloads (units) match.
    pub max_wall_slowdown: f64,
    /// Max allowed `baseline.units_per_sec / current.units_per_sec`
    /// (workload-normalized, so it applies even when reps differ).
    pub max_throughput_drop: f64,
    /// Check deterministic counter drift when the workload matches.
    pub check_counters: bool,
    /// Max allowed growth of the traced allocation counters
    /// (`allocs`, `alloc_bytes`) on an identical workload. Allocation
    /// counts are near-deterministic but not bit-exact (trace lines vary
    /// in length with timestamps), so this is a ratio gate rather than
    /// an equality check. Compared only when both rows carry non-zero
    /// allocation counters (i.e. both were traced with the counting
    /// allocator compiled in).
    pub max_alloc_growth: f64,
    /// Max allowed growth of `serve.p99_us` between matching serve
    /// load-generator rows. Per-request tail latency is roughly
    /// independent of how many queries a run issued, so — unlike the
    /// wall-clock gates — this applies even when the query counts
    /// differ. `None` leaves tail latency ungated (the default: latency
    /// is noisy on shared CI hardware, so the gate is opt-in via
    /// `--max-p99-growth`).
    pub max_p99_growth: Option<f64>,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            max_wall_slowdown: 1.5,
            max_throughput_drop: 1.5,
            check_counters: true,
            max_alloc_growth: 1.5,
            max_p99_growth: None,
        }
    }
}

/// One flagged regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row key.
    pub key: String,
    /// Metric that regressed (`wall_secs`, `units_per_sec`,
    /// `counter:<name>`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Human-readable verdict.
    pub message: String,
}

/// The outcome of one comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Keys compared (present in both snapshots).
    pub compared: Vec<String>,
    /// Keys present in only one snapshot (informational).
    pub unmatched: Vec<String>,
    /// Regressions found.
    pub regressions: Vec<Regression>,
}

impl CompareOutcome {
    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "compared {} row(s); {} unmatched\n",
            self.compared.len(),
            self.unmatched.len()
        ));
        for key in &self.unmatched {
            out.push_str(&format!("  note: {key} present in only one snapshot\n"));
        }
        if self.regressions.is_empty() {
            out.push_str("PASS: no regressions\n");
        } else {
            out.push_str(&format!("FAIL: {} regression(s)\n", self.regressions.len()));
            for r in &self.regressions {
                out.push_str(&format!("  {}\n", r.message));
            }
        }
        out
    }
}

/// The deterministic counters compared when workloads match exactly.
/// Timer histograms and wall-clock-adjacent counters are excluded — only
/// quantities that are pure functions of `(workload, seeds)` belong
/// here.
const DETERMINISTIC_COUNTERS: [Counter; 13] = [
    Counter::QuestionsBinary,
    Counter::QuestionsNumeric,
    Counter::QuestionsDismantle,
    Counter::QuestionsVerify,
    Counter::QuestionsExample,
    Counter::SpendMillicents,
    Counter::SpamAnswersDropped,
    Counter::SpamFallbacks,
    Counter::DismantleChoices,
    Counter::SprtAccepted,
    Counter::SprtRejected,
    Counter::SprtSamples,
    Counter::RegressionFits,
];

/// Compares two harness snapshots row by row.
pub fn compare(
    baseline: &BTreeMap<String, BenchRow>,
    current: &BTreeMap<String, BenchRow>,
    cfg: &CompareConfig,
) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();
    for key in baseline.keys().chain(current.keys()) {
        if (!baseline.contains_key(key) || !current.contains_key(key))
            && !outcome.unmatched.contains(key)
        {
            outcome.unmatched.push(key.clone());
        }
    }
    for (key, base) in baseline {
        let Some(cur) = current.get(key) else {
            continue;
        };
        outcome.compared.push(key.clone());
        let same_workload = base.units == cur.units && base.reps == cur.reps;

        if same_workload && base.wall_secs > 0.0 && cur.wall_secs > 0.0 {
            let ratio = cur.wall_secs / base.wall_secs;
            if ratio > cfg.max_wall_slowdown {
                outcome.regressions.push(Regression {
                    key: key.clone(),
                    metric: "wall_secs".into(),
                    baseline: base.wall_secs,
                    current: cur.wall_secs,
                    message: format!(
                        "{key}: wall_secs {:.3}s -> {:.3}s ({ratio:.2}x > {:.2}x allowed)",
                        base.wall_secs, cur.wall_secs, cfg.max_wall_slowdown
                    ),
                });
            }
        }

        if base.units_per_sec > 0.0 && cur.units_per_sec > 0.0 {
            let drop = base.units_per_sec / cur.units_per_sec;
            if drop > cfg.max_throughput_drop {
                outcome.regressions.push(Regression {
                    key: key.clone(),
                    metric: "units_per_sec".into(),
                    baseline: base.units_per_sec,
                    current: cur.units_per_sec,
                    message: format!(
                        "{key}: throughput {:.2} -> {:.2} units/s \
                         ({drop:.2}x drop > {:.2}x allowed)",
                        base.units_per_sec, cur.units_per_sec, cfg.max_throughput_drop
                    ),
                });
            }
        }

        if same_workload {
            if let (Some(bs), Some(cs)) = (&base.summary, &cur.summary) {
                for c in [Counter::Allocs, Counter::AllocBytes] {
                    let (b, n) = (bs.counter(c), cs.counter(c));
                    if b == 0 || n == 0 {
                        continue; // untraced rows carry no allocation data
                    }
                    let growth = n as f64 / b as f64;
                    if growth > cfg.max_alloc_growth {
                        outcome.regressions.push(Regression {
                            key: key.clone(),
                            metric: format!("counter:{}", c.name()),
                            baseline: b as f64,
                            current: n as f64,
                            message: format!(
                                "{key}: {} grew {b} -> {n} ({growth:.2}x > {:.2}x allowed) \
                                 on an identical workload",
                                c.name(),
                                cfg.max_alloc_growth
                            ),
                        });
                    }
                }
            }
        }

        if same_workload && base.peak_alloc_bytes > 0 && cur.peak_alloc_bytes > 0 {
            let growth = cur.peak_alloc_bytes as f64 / base.peak_alloc_bytes as f64;
            if growth > cfg.max_alloc_growth {
                outcome.regressions.push(Regression {
                    key: key.clone(),
                    metric: "peak_alloc_bytes".into(),
                    baseline: base.peak_alloc_bytes as f64,
                    current: cur.peak_alloc_bytes as f64,
                    message: format!(
                        "{key}: peak heap grew {} -> {} bytes ({growth:.2}x > {:.2}x \
                         allowed) on an identical workload",
                        base.peak_alloc_bytes, cur.peak_alloc_bytes, cfg.max_alloc_growth
                    ),
                });
            }
        }

        if let (Some(limit), Some(bs), Some(cs)) = (cfg.max_p99_growth, &base.serve, &cur.serve) {
            if bs.p99_us > 0.0 && cs.p99_us > 0.0 {
                let growth = cs.p99_us / bs.p99_us;
                if growth > limit {
                    outcome.regressions.push(Regression {
                        key: key.clone(),
                        metric: "serve:p99_us".into(),
                        baseline: bs.p99_us,
                        current: cs.p99_us,
                        message: format!(
                            "{key}: p99 latency grew {:.0}us -> {:.0}us \
                             ({growth:.2}x > {limit:.2}x allowed)",
                            bs.p99_us, cs.p99_us
                        ),
                    });
                }
            }
        }

        if cfg.check_counters && same_workload {
            if let (Some(bs), Some(cs)) = (&base.summary, &cur.summary) {
                for c in DETERMINISTIC_COUNTERS {
                    let (b, n) = (bs.counter(c), cs.counter(c));
                    if b != n {
                        outcome.regressions.push(Regression {
                            key: key.clone(),
                            metric: format!("counter:{}", c.name()),
                            baseline: b as f64,
                            current: n as f64,
                            message: format!(
                                "{key}: deterministic counter {} drifted {b} -> {n} \
                                 on an identical workload",
                                c.name()
                            ),
                        });
                    }
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_trace::ServeRow;

    fn row(key: &str, wall: f64, units: u64) -> String {
        format!(
            "{{\"experiment\":\"{key}\",\"threads\":1,\"cells\":6,\"reps\":4,\
             \"units\":{units},\"wall_secs\":{wall:.4},\"cells_per_sec\":1.0,\
             \"units_per_sec\":{:.4},\"cache_hits\":0,\"cache_misses\":0,\
             \"cache_hit_rate\":0.0}}",
            units as f64 / wall
        )
    }

    fn snapshot(rows: &[String]) -> BTreeMap<String, BenchRow> {
        parse_rows(&format!("[\n{}\n]", rows.join(",\n"))).unwrap()
    }

    #[test]
    fn identical_snapshots_pass() {
        let rows = snapshot(&[row("fig1@t1", 2.0, 24), row("fig1@t4", 0.7, 24)]);
        let outcome = compare(&rows, &rows, &CompareConfig::default());
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        assert_eq!(outcome.compared.len(), 2);
        assert!(outcome.render().contains("PASS"));
    }

    #[test]
    fn two_x_slowdown_fails() {
        let base = snapshot(&[row("fig1@t1", 2.0, 24)]);
        let cur = snapshot(&[row("fig1@t1", 4.0, 24)]);
        let outcome = compare(&base, &cur, &CompareConfig::default());
        assert!(!outcome.passed());
        // Both the wall and throughput checks trip on the same row.
        assert!(outcome.regressions.iter().any(|r| r.metric == "wall_secs"));
        assert!(outcome
            .regressions
            .iter()
            .any(|r| r.metric == "units_per_sec"));
        assert!(outcome.render().contains("FAIL"));
    }

    #[test]
    fn different_workload_compares_throughput_only() {
        let base = snapshot(&[row("fig1@t2", 4.0, 48)]); // 12 units/s
        let cur = snapshot(&[row("fig1@t2", 2.0, 24)]); // 12 units/s
        let outcome = compare(&base, &cur, &CompareConfig::default());
        assert!(outcome.passed(), "{:?}", outcome.regressions);

        let slow = snapshot(&[row("fig1@t2", 8.0, 24)]); // 3 units/s
        let outcome = compare(&base, &slow, &CompareConfig::default());
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "units_per_sec");
    }

    #[test]
    fn speedups_and_unmatched_keys_are_not_failures() {
        let base = snapshot(&[row("fig1@t1", 4.0, 24), row("fig9@t1", 1.0, 24)]);
        let cur = snapshot(&[row("fig1@t1", 1.0, 24), row("fig2@t1", 1.0, 24)]);
        let outcome = compare(&base, &cur, &CompareConfig::default());
        assert!(outcome.passed());
        assert_eq!(outcome.compared, vec!["fig1@t1".to_string()]);
        assert_eq!(outcome.unmatched.len(), 2);
    }

    #[test]
    fn counter_drift_on_identical_workload_fails() {
        let with_summary = |spend: u64| {
            format!(
                "{{\"experiment\":\"fig1@t1\",\"threads\":1,\"cells\":6,\"reps\":4,\
                 \"units\":24,\"wall_secs\":2.0,\"cells_per_sec\":3.0,\
                 \"units_per_sec\":12.0,\"cache_hits\":0,\"cache_misses\":0,\
                 \"cache_hit_rate\":0.0,\"run_summary\":{{\"counters\":{{\
                 \"spend_millicents\":{spend}}},\"timers\":{{}}}}}}"
            )
        };
        let base = snapshot(&[with_summary(1000)]);
        let cur = snapshot(&[with_summary(1234)]);
        let outcome = compare(&base, &cur, &CompareConfig::default());
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "counter:spend_millicents");

        let lax = CompareConfig {
            check_counters: false,
            ..CompareConfig::default()
        };
        assert!(compare(&base, &cur, &lax).passed());
    }

    #[test]
    fn peak_alloc_growth_past_threshold_fails() {
        let with_peak = |peak: u64| {
            format!(
                "{{\"experiment\":\"fig1@n100000\",\"threads\":1,\"cells\":1,\"reps\":1,\
                 \"units\":100000,\"wall_secs\":2.0,\"cells_per_sec\":0.5,\
                 \"units_per_sec\":50000.0,\"cache_hits\":0,\"cache_misses\":0,\
                 \"cache_hit_rate\":0.0,\"peak_alloc_bytes\":{peak}}}"
            )
        };
        let base = snapshot(&[with_peak(10_000_000)]);
        // Within 1.5x: passes.
        let ok = snapshot(&[with_peak(12_000_000)]);
        assert!(compare(&base, &ok, &CompareConfig::default()).passed());
        // 2x peak heap: flagged.
        let bad = snapshot(&[with_peak(20_000_000)]);
        let outcome = compare(&base, &bad, &CompareConfig::default());
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "peak_alloc_bytes");
        assert!(outcome.render().contains("peak heap grew"));
        // Rows without the watermark (no field → 0) are never flagged.
        let legacy = snapshot(&[
            "{\"experiment\":\"fig1@n100000\",\"threads\":1,\"cells\":1,\"reps\":1,\
             \"units\":100000,\"wall_secs\":2.0,\"cells_per_sec\":0.5,\
             \"units_per_sec\":50000.0,\"cache_hits\":0,\"cache_misses\":0,\
             \"cache_hit_rate\":0.0}"
                .to_string(),
        ]);
        assert!(compare(&legacy, &bad, &CompareConfig::default()).passed());
        // Configurable threshold.
        let lax = CompareConfig {
            max_alloc_growth: 3.0,
            ..CompareConfig::default()
        };
        assert!(compare(&base, &bad, &lax).passed());
    }

    #[test]
    fn alloc_growth_past_threshold_fails() {
        let with_allocs = |allocs: u64, bytes: u64| {
            format!(
                "{{\"experiment\":\"fig1@t1\",\"threads\":1,\"cells\":6,\"reps\":4,\
                 \"units\":24,\"wall_secs\":2.0,\"cells_per_sec\":3.0,\
                 \"units_per_sec\":12.0,\"cache_hits\":0,\"cache_misses\":0,\
                 \"cache_hit_rate\":0.0,\"run_summary\":{{\"counters\":{{\
                 \"allocs\":{allocs},\"alloc_bytes\":{bytes}}},\"timers\":{{}}}}}}"
            )
        };
        let base = snapshot(&[with_allocs(1_000, 64_000)]);
        // Within 1.5x on both: passes.
        let ok = snapshot(&[with_allocs(1_400, 80_000)]);
        assert!(compare(&base, &ok, &CompareConfig::default()).passed());
        // 2x allocation calls: flagged.
        let bad = snapshot(&[with_allocs(2_000, 64_000)]);
        let outcome = compare(&base, &bad, &CompareConfig::default());
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "counter:allocs");
        assert!(outcome.render().contains("grew 1000 -> 2000"));
        // Untraced rows (zero counters) are never flagged.
        let untraced = snapshot(&[with_allocs(0, 0)]);
        assert!(compare(&base, &untraced, &CompareConfig::default()).passed());
        assert!(compare(&untraced, &bad, &CompareConfig::default()).passed());
        // The gate is independent of --no-counters (it is a ratio, not
        // a determinism check), but configurable via max_alloc_growth.
        let lax = CompareConfig {
            max_alloc_growth: 3.0,
            ..CompareConfig::default()
        };
        assert!(compare(&base, &bad, &lax).passed());
    }

    #[test]
    fn p99_latency_gate_is_opt_in_and_workload_independent() {
        let with_p99 = |queries: u64, p99: f64| {
            format!(
                "{{\"experiment\":\"serve@c8\",\"threads\":8,\"cells\":8,\"reps\":{reps},\
                 \"units\":{queries},\"wall_secs\":{wall:.4},\"cells_per_sec\":4.0,\
                 \"units_per_sec\":480.0,\"cache_hits\":10,\"cache_misses\":4,\
                 \"cache_hit_rate\":0.714,\"serve\":{{\"p50_us\":800,\"p99_us\":{p99},\
                 \"qps\":120.0,\"questions_per_query\":6.0,\
                 \"plan_cache_hit_rate\":0.97}}}}",
                reps = queries / 8,
                wall = queries as f64 / 480.0,
            )
        };
        let base = snapshot(&[with_p99(960, 4000.0)]);
        assert_eq!(
            base["serve@c8"].serve,
            Some(ServeRow {
                p50_us: 800.0,
                // The fixture row predates p90 recording: the field is
                // additive, so legacy snapshots parse with None.
                p90_us: None,
                p99_us: 4000.0,
                qps: 120.0,
                questions_per_query: 6.0,
                plan_cache_hit_rate: 0.97,
            })
        );

        // 3x tail growth, measured over a *smaller* query count (the CI
        // smoke): still caught once the gate is armed.
        let bad = snapshot(&[with_p99(96, 12000.0)]);
        assert!(
            compare(&base, &bad, &CompareConfig::default()).passed(),
            "gate must be opt-in"
        );
        let armed = CompareConfig {
            max_p99_growth: Some(2.0),
            ..CompareConfig::default()
        };
        let outcome = compare(&base, &bad, &armed);
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "serve:p99_us");
        assert!(outcome.render().contains("p99 latency grew"), "{outcome:?}");

        // Within threshold: passes; rows without serve stats are skipped.
        let ok = snapshot(&[with_p99(96, 6000.0)]);
        assert!(compare(&base, &ok, &armed).passed());
        let plain = snapshot(&[row("serve@c8", 2.0, 960)]);
        assert!(compare(&plain, &bad, &armed).passed());
        assert!(compare(&base, &plain, &armed).passed());
    }

    #[test]
    fn serve_rows_with_p90_parse_it() {
        let text = "[{\"experiment\":\"serve@c1\",\"threads\":1,\"cells\":1,\"reps\":1,\
                    \"units\":1,\"wall_secs\":1.0,\"cells_per_sec\":1.0,\
                    \"units_per_sec\":1.0,\"cache_hits\":0,\"cache_misses\":0,\
                    \"cache_hit_rate\":0.0,\"serve\":{\"p50_us\":800,\"p99_us\":4200,\
                    \"qps\":120.0,\"questions_per_query\":6.0,\
                    \"plan_cache_hit_rate\":0.97,\"p90_us\":2000}}]";
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows["serve@c1"].serve.unwrap().p90_us, Some(2000.0));
    }

    #[test]
    fn malformed_serve_block_errors_cleanly() {
        let text = "[{\"experiment\":\"serve@c1\",\"threads\":1,\"cells\":1,\"reps\":1,\
                    \"units\":1,\"wall_secs\":1.0,\"cells_per_sec\":1.0,\
                    \"units_per_sec\":1.0,\"cache_hits\":0,\"cache_misses\":0,\
                    \"cache_hit_rate\":0.0,\"serve\":{\"p50_us\":800}}]";
        let err = parse_rows(text).unwrap_err();
        assert!(err.contains("serve block missing"), "{err}");
    }

    #[test]
    fn malformed_files_error_cleanly() {
        assert!(parse_rows("not json").is_err());
        assert!(parse_rows("{\"not\":\"array\"}").is_err());
        assert!(
            parse_rows("[{\"experiment\":\"x\"}]").is_err(),
            "missing fields"
        );
        assert!(load_rows(Path::new("/nonexistent/bench.json")).is_err());
    }
}
