//! Wall-clock instrumentation and machine-readable records for the
//! parallel experiment harness.
//!
//! Every experiment that sweeps cells through
//! [`crate::runner::run_cells_parallel`] goes through [`run_experiment`],
//! which times the sweep, renders a human-readable `harness:` line for
//! the report footer, and appends/updates a record in
//! `BENCH_harness.json` at the repository root (override the path with
//! the `DISQ_HARNESS_JSON` environment variable). Records are keyed by
//! `experiment@t<threads>` so runs at different thread counts coexist —
//! that is how the serial-vs-parallel speedup of a figure is kept on
//! disk.

use crate::runner::{run_cells_parallel_with, Cell};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Latency/throughput facts of one `disq-serve` load-generator run,
/// attached to the `serve@c<conns>` harness rows so
/// `disq-insight compare --max-p99-growth` can gate tail latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Median request latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile request latency in microseconds — the "almost
    /// everyone" latency, less noisy than p99 at CI-sized query counts.
    pub p90_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
    /// Completed queries per wall-clock second across all connections.
    pub qps: f64,
    /// Crowd questions actually asked per query (after coalescing).
    pub questions_per_query: f64,
    /// Plan-cache hit rate over the measured window.
    pub plan_cache_hit_rate: f64,
}

impl ServeStats {
    /// The harness row's `serve` block.
    fn row(&self) -> disq_trace::ServeRow {
        disq_trace::ServeRow {
            p50_us: self.p50_us as f64,
            p90_us: Some(self.p90_us as f64),
            p99_us: self.p99_us as f64,
            qps: self.qps,
            questions_per_query: self.questions_per_query,
            plan_cache_hit_rate: self.plan_cache_hit_rate,
        }
    }
}

/// Timing and throughput facts of one harness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessTimings {
    /// Experiment name, e.g. `"fig1"`.
    pub experiment: String,
    /// Worker threads the pool used.
    pub threads: usize,
    /// Number of experimental cells in the sweep.
    pub cells: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// `(cell, rep)` units executed (`cells × reps`).
    pub units: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// World-cache lookups served from an existing slot.
    pub cache_hits: usize,
    /// World-cache lookups that sampled a fresh population.
    pub cache_misses: usize,
    /// Trace counters and kernel-timer histograms accumulated during the
    /// sweep (the delta of the process-global [`disq_trace`] registry).
    pub summary: disq_trace::RunSummary,
    /// Peak live-heap delta (bytes) during the measured region, from a
    /// [`disq_trace::Watermark`] window opened around it on the
    /// measuring thread. Zero when the experiment opened no window; only
    /// the scale rows (`fig1@n…`) currently do.
    pub peak_alloc_bytes: u64,
    /// Daemon latency stats; only the `serve@c…` load-generator rows
    /// carry them.
    pub serve: Option<ServeStats>,
}

impl HarnessTimings {
    /// Cells completed per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cells as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// `(cell, rep)` units completed per wall-clock second.
    pub fn units_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.units as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Fraction of world lookups served from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Record key: experiment name qualified by thread count, so the
    /// same figure measured serially and in parallel keeps both rows.
    /// Names that already carry a qualifier (kernel rows such as
    /// `budget_dist@k16`) are used verbatim — their sweep axis is not
    /// the thread count.
    pub fn key(&self) -> String {
        if self.experiment.contains('@') {
            self.experiment.clone()
        } else {
            format!("{}@t{}", self.experiment, self.threads)
        }
    }

    /// The human-readable footer appended to report output: the
    /// `harness:` line, plus the `trace:` block when the sweep recorded
    /// any trace activity.
    pub fn render(&self) -> String {
        let mut line = format!(
            "harness: {} cells x {} reps = {} units in {:.2}s \
             ({:.2} cells/s, {:.2} units/s) on {} thread{}; \
             world cache {:.0}% hits ({}/{})",
            self.cells,
            self.reps,
            self.units,
            self.wall_secs,
            self.cells_per_sec(),
            self.units_per_sec(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            100.0 * self.cache_hit_rate(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        );
        if !self.summary.is_empty() {
            line.push('\n');
            line.push_str(self.summary.render().trim_end());
        }
        if let Ok(path) = std::env::var(disq_trace::TRACE_ENV_VAR) {
            if !path.is_empty() {
                let _ = write!(
                    line,
                    "\ntrace: events in {path}; analyze with `disq-insight report {path}`"
                );
            }
        }
        line
    }

    /// The record for `BENCH_harness.json`.
    fn row(&self) -> disq_trace::BenchRow {
        disq_trace::BenchRow {
            experiment: self.key(),
            threads: self.threads as u64,
            cells: self.cells as u64,
            reps: self.reps as u64,
            units: self.units as u64,
            wall_secs: self.wall_secs,
            cells_per_sec: self.cells_per_sec(),
            units_per_sec: self.units_per_sec(),
            cache_hits: self.cache_hits as u64,
            cache_misses: self.cache_misses as u64,
            cache_hit_rate: self.cache_hit_rate(),
            peak_alloc_bytes: self.peak_alloc_bytes,
            serve: self.serve.map(|s| s.row()),
            summary: (!self.summary.is_empty()).then(|| self.summary.clone()),
        }
    }

    /// One-line JSON object for `BENCH_harness.json`.
    pub fn to_json(&self) -> String {
        self.row().to_json()
    }
}

/// Where harness records go: `DISQ_HARNESS_JSON` when set, else
/// `BENCH_harness.json` at the repository root.
pub fn harness_json_path() -> PathBuf {
    std::env::var("DISQ_HARNESS_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_harness.json"
            ))
        })
}

/// Merges a record into the JSON file: the file is a JSON array with one
/// object per line, and records are replaced by [`HarnessTimings::key`]
/// so re-running an experiment updates its row in place. Every displaced
/// row is appended to the sibling `*.history.jsonl` file, so the main
/// file stays bounded (one row per key) without losing measurements.
pub fn record(timings: &HarnessTimings) -> std::io::Result<()> {
    record_at(&harness_json_path(), timings)
}

/// The append-only sibling of a harness file where displaced rows go,
/// e.g. `BENCH_harness.json` → `BENCH_harness.history.jsonl`.
pub fn history_path(path: &std::path::Path) -> PathBuf {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("BENCH_harness");
    path.with_file_name(format!("{stem}.history.jsonl"))
}

/// Extracts the exact record key (`"fig1@t4"`) of one harness row by
/// parsing it — substring matching would make `fig1@t1` claim
/// `fig1@t16` rows too.
fn row_key(line: &str) -> Option<String> {
    let row = disq_trace::BenchRow::from_json(&disq_trace::json::parse(line).ok()?).ok()?;
    Some(row.experiment)
}

fn record_at(path: &std::path::Path, timings: &HarnessTimings) -> std::io::Result<()> {
    let mut rows: Vec<(Option<String>, String)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with('{') {
                rows.push((row_key(line), line.to_string()));
            }
        }
    }
    rows.push((Some(timings.key()), timings.to_json()));

    // Keep only the last row per key (unparseable rows are preserved
    // verbatim); everything displaced moves to the history file.
    let mut last: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for (i, (key, _)) in rows.iter().enumerate() {
        if let Some(key) = key {
            last.insert(key, i);
        }
    }
    let mut kept: Vec<&str> = Vec::new();
    let mut displaced: Vec<&str> = Vec::new();
    for (i, (key, row)) in rows.iter().enumerate() {
        match key {
            Some(key) if last[key.as_str()] != i => displaced.push(row),
            _ => kept.push(row),
        }
    }

    if !displaced.is_empty() {
        use std::io::Write as _;
        let mut hist = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history_path(path))?;
        for row in &displaced {
            writeln!(hist, "{row}")?;
        }
    }

    let mut out = String::from("[\n");
    for (i, e) in kept.iter().enumerate() {
        out.push_str(e);
        if i + 1 < kept.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Runs a named experiment's cells through the parallel harness:
/// executes every `(cell, rep)` unit on the configured worker count,
/// persists a timing record, and returns per-cell aggregates plus the
/// timings (whose [`HarnessTimings::render`] line the caller appends to
/// its report).
///
/// Unit tests skip the persistence unless `DISQ_HARNESS_JSON` is set,
/// so test runs never dirty the checked-in benchmark file.
pub fn run_experiment(
    name: &str,
    cells: &[Cell],
    reps: usize,
) -> (Vec<Option<(f64, f64)>>, HarnessTimings) {
    let threads = crate::pool::configured_threads();
    disq_trace::init_from_env();
    let trace_before = disq_trace::summary();
    let start = Instant::now();
    let outcome = run_cells_parallel_with(cells, reps, threads);
    let timings = HarnessTimings {
        experiment: name.to_string(),
        threads: outcome.threads,
        cells: cells.len(),
        reps,
        units: outcome.units,
        wall_secs: start.elapsed().as_secs_f64(),
        cache_hits: outcome.cache_hits,
        cache_misses: outcome.cache_misses,
        summary: disq_trace::summary().delta_since(&trace_before),
        peak_alloc_bytes: 0,
        serve: None,
    };
    persist(&timings);
    (outcome.results, timings)
}

/// Times an arbitrary pool fan-out for experiments whose units are not
/// [`Cell`]s (coverage, Tables 4/5) and persists the record like
/// [`run_experiment`]. `f(i)` receives the flat unit index
/// `0..cells * reps`; when the experiment shares worlds, pass its
/// [`crate::world::WorldCache`] so the record carries the cache stats.
pub fn run_units<T, F>(
    name: &str,
    cells: usize,
    reps: usize,
    cache: Option<&crate::world::WorldCache>,
    f: F,
) -> (Vec<T>, HarnessTimings)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = crate::pool::configured_threads();
    let units = cells * reps;
    disq_trace::init_from_env();
    let trace_before = disq_trace::summary();
    let start = Instant::now();
    let out = crate::pool::run_indexed(units, threads, f);
    let timings = HarnessTimings {
        experiment: name.to_string(),
        threads,
        cells,
        reps,
        units,
        wall_secs: start.elapsed().as_secs_f64(),
        cache_hits: cache.map_or(0, |c| c.hits()),
        cache_misses: cache.map_or(0, |c| c.misses()),
        summary: disq_trace::summary().delta_since(&trace_before),
        peak_alloc_bytes: 0,
        serve: None,
    };
    persist(&timings);
    (out, timings)
}

/// Best-effort persistence: unit tests skip it unless `DISQ_HARNESS_JSON`
/// is set, so test runs never dirty the checked-in benchmark file.
pub(crate) fn persist(timings: &HarnessTimings) {
    if !cfg!(test) || std::env::var("DISQ_HARNESS_JSON").is_ok() {
        if let Err(e) = record(timings) {
            eprintln!(
                "warning: could not write {}: {e}",
                harness_json_path().display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, threads: usize) -> HarnessTimings {
        HarnessTimings {
            experiment: name.to_string(),
            threads,
            cells: 6,
            reps: 4,
            units: 24,
            wall_secs: 2.0,
            cache_hits: 20,
            cache_misses: 4,
            summary: disq_trace::RunSummary::default(),
            peak_alloc_bytes: 0,
            serve: None,
        }
    }

    #[test]
    fn rates_and_key() {
        let t = sample("fig1", 4);
        assert_eq!(t.key(), "fig1@t4");
        assert!((t.cells_per_sec() - 3.0).abs() < 1e-12);
        assert!((t.units_per_sec() - 12.0).abs() < 1e-12);
        assert!((t.cache_hit_rate() - 20.0 / 24.0).abs() < 1e-12);
        let line = t.render();
        assert!(line.contains("6 cells x 4 reps"), "{line}");
        assert!(line.contains("4 threads"), "{line}");
    }

    #[test]
    fn prequalified_names_keep_their_own_axis() {
        // Kernel rows sweep a problem size, not a thread count; their
        // names already carry the qualifier and must not grow `@t1`.
        assert_eq!(sample("budget_dist@k16", 1).key(), "budget_dist@k16");
        assert_eq!(sample("budget_dist", 1).key(), "budget_dist@t1");
        // Serve rows sweep a connection count.
        assert_eq!(sample("serve@c8", 8).key(), "serve@c8");
        assert_eq!(sample("serve_cold@c1", 1).key(), "serve_cold@c1");
    }

    #[test]
    fn serve_rows_dedup_exactly_and_carry_stats() {
        let dir = std::env::temp_dir().join(format!(
            "disq-harness-serve-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");

        let mut c8 = sample("serve@c8", 8);
        c8.serve = Some(ServeStats {
            p50_us: 900,
            p90_us: 2_000,
            p99_us: 4_200,
            qps: 310.5,
            questions_per_query: 6.0,
            plan_cache_hit_rate: 0.97,
        });
        record_at(&path, &c8).unwrap();
        // "serve@c1" vs "serve@c32": neither may displace the other, and
        // re-recording c8 replaces exactly its own row.
        record_at(&path, &sample("serve@c1", 1)).unwrap();
        record_at(&path, &sample("serve@c32", 32)).unwrap();
        record_at(&path, &c8).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for key in ["serve@c1", "serve@c8", "serve@c32"] {
            assert_eq!(
                text.matches(&format!("\"experiment\":\"{key}\"")).count(),
                1,
                "{text}"
            );
        }
        assert!(
            text.contains("\"serve\":{\"p50_us\":900,\"p99_us\":4200,\"qps\":310.50"),
            "{text}"
        );
        // p90 is additive: it trails the legacy keys so old rows keep
        // the same prefix shape.
        assert!(text.contains("\"p90_us\":2000}"), "{text}");
        let hist = std::fs::read_to_string(history_path(&path)).unwrap();
        assert_eq!(hist.lines().count(), 1, "only the first c8 row moved");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pins the exact bytes of a harness row, bare and with every
    /// optional block, so the writer cannot drift from the committed
    /// `BENCH_harness.json` rows.
    #[test]
    fn json_rows_are_pinned() {
        let mut t = sample("fig1", 4);
        t.wall_secs = 1.23456;
        assert_eq!(
            t.to_json(),
            r#"{"experiment":"fig1@t4","threads":4,"cells":6,"reps":4,"units":24,"wall_secs":1.2346,"cells_per_sec":4.8600,"units_per_sec":19.4401,"cache_hits":20,"cache_misses":4,"cache_hit_rate":0.8333}"#
        );
        t.peak_alloc_bytes = 272_000;
        t.serve = Some(ServeStats {
            p50_us: 900,
            p90_us: 2_000,
            p99_us: 4_200,
            qps: 310.456,
            questions_per_query: 6.123456,
            plan_cache_hit_rate: 0.97,
        });
        t.summary = disq_trace::RunSummary::from_json(
            &disq_trace::json::parse(
                r#"{"counters":{"spend_millicents":1234,"allocs":7},"timers":{}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            t.to_json(),
            r#"{"experiment":"fig1@t4","threads":4,"cells":6,"reps":4,"units":24,"wall_secs":1.2346,"cells_per_sec":4.8600,"units_per_sec":19.4401,"cache_hits":20,"cache_misses":4,"cache_hit_rate":0.8333,"peak_alloc_bytes":272000,"serve":{"p50_us":900,"p99_us":4200,"qps":310.46,"questions_per_query":6.1235,"plan_cache_hit_rate":0.9700,"p90_us":2000},"run_summary":{"counters":{"spend_millicents":1234,"allocs":7},"timers":{}}}"#
        );
    }

    #[test]
    fn zero_wall_time_is_finite() {
        let mut t = sample("fig1", 1);
        t.wall_secs = 0.0;
        assert_eq!(t.cells_per_sec(), 0.0);
        assert_eq!(t.units_per_sec(), 0.0);
    }

    #[test]
    fn json_round_trip_fields() {
        let j = sample("fig2", 2).to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"experiment\":\"fig2@t2\""), "{j}");
        assert!(j.contains("\"cache_hits\":20"), "{j}");
        assert!(!j.contains('\n'));
    }

    #[test]
    fn json_carries_run_summary_only_when_nonempty() {
        let empty = sample("fig9", 1);
        assert!(!empty.to_json().contains("run_summary"));

        let before = disq_trace::summary();
        disq_trace::count(disq_trace::Counter::DismantleChoices);
        let mut t = sample("fig9", 1);
        t.summary = disq_trace::summary().delta_since(&before);
        let j = t.to_json();
        assert!(j.contains("\"run_summary\":{"), "{j}");
        assert!(j.contains("dismantle_choices"), "{j}");
        assert!(j.ends_with("}}"), "{j}");
    }

    #[test]
    fn record_merges_by_key() {
        let dir = std::env::temp_dir().join(format!(
            "disq-harness-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");

        record_at(&path, &sample("fig1", 1)).unwrap();
        record_at(&path, &sample("fig1", 4)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("fig1@t1") && text.contains("fig1@t4"),
            "{text}"
        );

        // Re-recording the same key replaces, not appends.
        let mut faster = sample("fig1", 4);
        faster.wall_secs = 1.0;
        record_at(&path, &faster).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("fig1@t4").count(), 1, "{text}");
        assert!(text.contains("\"wall_secs\":1.0000"), "{text}");
        assert!(text.trim_start().starts_with('[') && text.trim_end().ends_with(']'));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_key_match_is_exact_not_prefix() {
        let dir = std::env::temp_dir().join(format!(
            "disq-harness-prefix-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");

        record_at(&path, &sample("fig1", 16)).unwrap();
        // "fig1@t1" is a string prefix of "fig1@t16": recording it must
        // not displace the t16 row.
        record_at(&path, &sample("fig1", 1)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\":\"fig1@t16\""), "{text}");
        assert!(text.contains("\"experiment\":\"fig1@t1\""), "{text}");
        assert!(!history_path(&path).exists(), "nothing was displaced");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn displaced_rows_accumulate_in_history() {
        let dir = std::env::temp_dir().join(format!(
            "disq-harness-history-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        assert_eq!(
            history_path(&path),
            dir.join("bench.history.jsonl"),
            "history sits next to the main file"
        );

        let mut first = sample("fig1", 4);
        first.wall_secs = 9.0;
        record_at(&path, &first).unwrap();
        let mut second = sample("fig1", 4);
        second.wall_secs = 5.0;
        record_at(&path, &second).unwrap();
        record_at(&path, &sample("fig1", 4)).unwrap();

        let main = std::fs::read_to_string(&path).unwrap();
        assert_eq!(main.matches("fig1@t4").count(), 1, "{main}");
        assert!(main.contains("\"wall_secs\":2.0000"), "latest kept: {main}");

        let hist = std::fs::read_to_string(history_path(&path)).unwrap();
        assert_eq!(hist.lines().count(), 2, "{hist}");
        assert!(hist.contains("\"wall_secs\":9.0000"), "{hist}");
        assert!(hist.contains("\"wall_secs\":5.0000"), "{hist}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preexisting_duplicate_keys_are_collapsed_to_latest() {
        let dir = std::env::temp_dir().join(format!(
            "disq-harness-dupes-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");

        // A file grown by the old substring-matching code: duplicate
        // rows for one key, plus an unparseable row that must survive.
        let mut old = sample("fig2", 2);
        old.wall_secs = 7.0;
        let newer = sample("fig2", 2);
        std::fs::write(
            &path,
            format!(
                "[\n{},\n{{\"broken\": tru\n{}\n]\n",
                old.to_json(),
                newer.to_json()
            ),
        )
        .unwrap();

        record_at(&path, &sample("fig3", 2)).unwrap();
        let main = std::fs::read_to_string(&path).unwrap();
        assert_eq!(main.matches("fig2@t2").count(), 1, "{main}");
        assert!(main.contains("\"wall_secs\":2.0000"), "{main}");
        assert!(main.contains("fig3@t2"), "{main}");
        assert!(main.contains("{\"broken\": tru"), "{main}");
        let hist = std::fs::read_to_string(history_path(&path)).unwrap();
        assert!(hist.contains("\"wall_secs\":7.0000"), "{hist}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
