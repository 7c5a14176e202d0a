//! Performance trajectories over the harness history.
//!
//! [`super::compare`] gates one snapshot against one baseline; this
//! module reads the *append-only* `BENCH_harness.history.jsonl` sibling
//! (every row ever displaced from the main file, in displacement order)
//! and renders each experiment key's wall-clock / throughput / peak-heap
//! trajectory with per-step and first-to-last deltas — the long view the
//! single-shot compare gate cannot give.
//!
//! Given the main `BENCH_harness.json` path, the current rows are
//! appended as each trajectory's final point, so "history + present" is
//! one call: `disq-insight trend BENCH_harness.json`.

use crate::report::fmt_f64;
use crate::table::{Align, Table};
use disq_trace::json::{self, Json};
use disq_trace::BenchRow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One measurement of one experiment key.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// `(cell, rep)` units executed.
    pub units: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Units per wall-clock second.
    pub units_per_sec: f64,
    /// Peak live-heap bytes (0 when the row was not measured with the
    /// allocation watermark).
    pub peak_alloc_bytes: u64,
    /// 90th-percentile request latency (µs) from the row's `serve`
    /// block. `None` for non-serve rows and for serve rows written
    /// before the harness recorded p90.
    pub serve_p90_us: Option<f64>,
    /// 99th-percentile request latency (µs) from the row's `serve`
    /// block; `None` for non-serve rows.
    pub serve_p99_us: Option<f64>,
}

/// One experiment key's measurements in file order (oldest first).
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    /// Record key, e.g. `fig1@t4`.
    pub key: String,
    /// Measurements, oldest first.
    pub points: Vec<TrendPoint>,
}

/// All trajectories of one history (+ optional current snapshot).
#[derive(Debug, Clone, Default)]
pub struct TrendReport {
    /// Series in key order.
    pub series: Vec<TrendSeries>,
    /// Unparseable rows skipped.
    pub skipped: usize,
}

fn absorb_row(rows: &mut BTreeMap<String, Vec<TrendPoint>>, row: &Json) -> bool {
    let Ok(row) = BenchRow::from_json(row) else {
        return false;
    };
    rows.entry(row.experiment).or_default().push(TrendPoint {
        units: row.units,
        wall_secs: row.wall_secs,
        units_per_sec: row.units_per_sec,
        peak_alloc_bytes: row.peak_alloc_bytes,
        serve_p90_us: row.serve.and_then(|s| s.p90_us),
        serve_p99_us: row.serve.map(|s| s.p99_us),
    });
    true
}

impl TrendReport {
    /// Parses an append-only history body (one JSON object per line).
    pub fn from_history(text: &str) -> TrendReport {
        let mut rows = BTreeMap::new();
        let mut skipped = 0;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let ok = json::parse(line)
                .ok()
                .is_some_and(|row| absorb_row(&mut rows, &row));
            skipped += usize::from(!ok);
        }
        TrendReport::from_rows(rows, skipped)
    }

    /// Appends the current rows of a main harness snapshot (a JSON
    /// array) as each key's newest point.
    pub fn append_snapshot(&mut self, text: &str) -> Result<(), String> {
        let doc = json::parse(text)?;
        let arr = doc.as_arr().ok_or("harness file is not a JSON array")?;
        let mut rows: BTreeMap<String, Vec<TrendPoint>> =
            self.series.drain(..).map(|s| (s.key, s.points)).collect();
        for row in arr {
            if !absorb_row(&mut rows, row) {
                self.skipped += 1;
            }
        }
        let skipped = self.skipped;
        *self = TrendReport::from_rows(rows, skipped);
        Ok(())
    }

    fn from_rows(rows: BTreeMap<String, Vec<TrendPoint>>, skipped: usize) -> TrendReport {
        TrendReport {
            series: rows
                .into_iter()
                .map(|(key, points)| TrendSeries { key, points })
                .collect(),
            skipped,
        }
    }

    /// Renders every trajectory with per-step and end-to-end deltas.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.skipped > 0 {
            let _ = writeln!(out, "({} unparseable row(s) skipped)", self.skipped);
        }
        if self.series.is_empty() {
            out.push_str(
                "no history rows — the harness writes *.history.jsonl once a \
                 re-run displaces an older measurement\n",
            );
            return out;
        }
        for s in &self.series {
            let _ = writeln!(out, "\n{} ({} run(s)):", s.key, s.points.len());
            let mut t = Table::new(&[
                "run",
                "units",
                "wall",
                "Δwall",
                "units/s",
                "Δthroughput",
                "peak heap",
                "p90/p99 us",
            ])
            .aligns(&[
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
            for (i, p) in s.points.iter().enumerate() {
                let (dw, dt) = match i {
                    0 => (String::new(), String::new()),
                    _ => {
                        let prev = &s.points[i - 1];
                        (
                            pct_delta(prev.wall_secs, p.wall_secs),
                            pct_delta(prev.units_per_sec, p.units_per_sec),
                        )
                    }
                };
                t.row(vec![
                    format!("#{}", i + 1),
                    p.units.to_string(),
                    format!("{:.3}s", p.wall_secs),
                    dw,
                    fmt_f64(p.units_per_sec),
                    dt,
                    match p.peak_alloc_bytes {
                        0 => "-".into(),
                        b => fmt_bytes(b),
                    },
                    match (p.serve_p90_us, p.serve_p99_us) {
                        (Some(p90), Some(p99)) => format!("{p90:.0}/{p99:.0}"),
                        // Legacy serve rows carry p99 but predate p90.
                        (None, Some(p99)) => format!("-/{p99:.0}"),
                        _ => "-".into(),
                    },
                ]);
            }
            out.push_str(&t.render());
            if s.points.len() >= 2 {
                let (first, last) = (&s.points[0], &s.points[s.points.len() - 1]);
                let _ = writeln!(
                    out,
                    "trend: wall {:.3}s -> {:.3}s ({}), throughput {} -> {} ({})",
                    first.wall_secs,
                    last.wall_secs,
                    pct_delta(first.wall_secs, last.wall_secs),
                    fmt_f64(first.units_per_sec),
                    fmt_f64(last.units_per_sec),
                    pct_delta(first.units_per_sec, last.units_per_sec),
                );
            }
        }
        out
    }

    /// Renders the trajectories as one JSON object (the `--json` mode).
    pub fn to_json(&self) -> String {
        use disq_trace::json::{write_f64, write_str};
        let mut o = String::from("{\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"key\":");
            write_str(&mut o, &s.key);
            o.push_str(",\"points\":[");
            for (j, p) in s.points.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"units\":{},\"wall_secs\":", p.units);
                write_f64(&mut o, p.wall_secs);
                o.push_str(",\"units_per_sec\":");
                write_f64(&mut o, p.units_per_sec);
                let _ = write!(o, ",\"peak_alloc_bytes\":{}", p.peak_alloc_bytes);
                if let Some(p90) = p.serve_p90_us {
                    o.push_str(",\"serve_p90_us\":");
                    write_f64(&mut o, p90);
                }
                if let Some(p99) = p.serve_p99_us {
                    o.push_str(",\"serve_p99_us\":");
                    write_f64(&mut o, p99);
                }
                o.push('}');
            }
            o.push_str("]}");
        }
        let _ = write!(o, "],\"skipped\":{}}}", self.skipped);
        o
    }
}

/// Loads a trend report from either a `*.history.jsonl` file or a main
/// `BENCH_harness.json` snapshot (whose history sibling, when present,
/// supplies the older points).
pub fn load(path: &Path) -> Result<TrendReport, String> {
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
    let (history_path, main_path): (PathBuf, Option<PathBuf>) = if name.ends_with(".history.jsonl")
    {
        (path.to_path_buf(), None)
    } else {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("BENCH_harness");
        (
            path.with_file_name(format!("{stem}.history.jsonl")),
            Some(path.to_path_buf()),
        )
    };
    let history = match std::fs::read_to_string(&history_path) {
        Ok(text) => text,
        // The main snapshot alone is a (single-point) trend.
        Err(_) if main_path.is_some() => String::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", history_path.display())),
    };
    let mut report = TrendReport::from_history(&history);
    if let Some(main) = main_path {
        let text = std::fs::read_to_string(&main)
            .map_err(|e| format!("cannot read {}: {e}", main.display()))?;
        report
            .append_snapshot(&text)
            .map_err(|e| format!("{}: {e}", main.display()))?;
    }
    Ok(report)
}

fn pct_delta(from: f64, to: f64) -> String {
    if from <= 0.0 || !from.is_finite() || !to.is_finite() {
        return "-".into();
    }
    format!("{:+.1}%", (to - from) / from * 100.0)
}

fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b}B"),
        1024..=1_048_575 => format!("{:.1}KiB", b as f64 / 1024.0),
        1_048_576..=1_073_741_823 => format!("{:.1}MiB", b as f64 / 1048576.0),
        _ => format!("{:.2}GiB", b as f64 / 1073741824.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: &str, units: u64, wall: f64) -> String {
        format!(
            "{{\"experiment\":\"{key}\",\"threads\":1,\"cells\":6,\"reps\":4,\
             \"units\":{units},\"wall_secs\":{wall:.4},\"cells_per_sec\":1.0,\
             \"units_per_sec\":{:.4},\"cache_hits\":0,\"cache_misses\":0,\
             \"cache_hit_rate\":0.0}}",
            units as f64 / wall
        )
    }

    #[test]
    fn history_rows_group_by_key_in_file_order() {
        let text = format!(
            "{}\n{}\n{}\n",
            row("fig1@t1", 24, 4.0),
            row("fig2@t1", 24, 1.0),
            row("fig1@t1", 24, 3.0)
        );
        let r = TrendReport::from_history(&text);
        assert_eq!(r.series.len(), 2);
        assert_eq!(r.series[0].key, "fig1@t1");
        assert_eq!(r.series[0].points.len(), 2);
        assert_eq!(r.series[0].points[0].wall_secs, 4.0);
        assert_eq!(r.series[0].points[1].wall_secs, 3.0);
        assert_eq!(r.skipped, 0);
    }

    #[test]
    fn snapshot_rows_append_as_newest_points() {
        let mut r = TrendReport::from_history(&format!("{}\n", row("fig1@t1", 24, 4.0)));
        let snapshot = format!("[\n{}\n]", row("fig1@t1", 24, 2.0));
        r.append_snapshot(&snapshot).unwrap();
        assert_eq!(r.series[0].points.len(), 2);
        assert_eq!(r.series[0].points[1].wall_secs, 2.0);
        let text = r.render();
        assert!(text.contains("fig1@t1 (2 run(s)):"), "{text}");
        assert!(text.contains("-50.0%"), "wall delta rendered: {text}");
        assert!(
            text.contains("+100.0%"),
            "throughput delta rendered: {text}"
        );
        assert!(
            text.contains("trend: wall 4.000s -> 2.000s"),
            "end-to-end line: {text}"
        );
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let text = format!(
            "garbage\n{}\n{{\"experiment\":\"x\"}}\n",
            row("fig1@t1", 24, 4.0)
        );
        let r = TrendReport::from_history(&text);
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.skipped, 2);
        assert!(r.render().contains("2 unparseable row(s) skipped"));
    }

    #[test]
    fn serve_tail_latency_rides_along_when_present() {
        // One legacy serve row (p99 only) and one current row (p90 too):
        // both parse; the tail column renders what each point carries.
        let legacy = "{\"experiment\":\"serve@c8\",\"units\":960,\"wall_secs\":2.0,\
                      \"units_per_sec\":480.0,\"serve\":{\"p50_us\":800,\"p99_us\":4000,\
                      \"qps\":120.0,\"questions_per_query\":6.0,\"plan_cache_hit_rate\":0.97}}";
        let current = "{\"experiment\":\"serve@c8\",\"units\":960,\"wall_secs\":1.8,\
                       \"units_per_sec\":533.0,\"serve\":{\"p50_us\":700,\"p99_us\":3600,\
                       \"qps\":130.0,\"questions_per_query\":6.0,\
                       \"plan_cache_hit_rate\":0.97,\"p90_us\":1500}}";
        let r = TrendReport::from_history(&format!("{legacy}\n{current}\n"));
        assert_eq!(r.skipped, 0);
        let points = &r.series[0].points;
        assert_eq!(points[0].serve_p90_us, None);
        assert_eq!(points[0].serve_p99_us, Some(4000.0));
        assert_eq!(points[1].serve_p90_us, Some(1500.0));
        let text = r.render();
        assert!(text.contains("-/4000"), "legacy tail cell: {text}");
        assert!(text.contains("1500/3600"), "current tail cell: {text}");
        let doc = json::parse(&r.to_json()).unwrap();
        let pts = doc.get("series").and_then(Json::as_arr).unwrap()[0]
            .get("points")
            .and_then(Json::as_arr)
            .unwrap();
        assert!(pts[0].get("serve_p90_us").is_none());
        assert_eq!(
            pts[1].get("serve_p90_us").and_then(Json::as_f64),
            Some(1500.0)
        );
        assert_eq!(
            pts[1].get("serve_p99_us").and_then(Json::as_f64),
            Some(3600.0)
        );
    }

    #[test]
    fn empty_history_renders_a_hint() {
        let r = TrendReport::from_history("");
        assert!(r.render().contains("no history rows"));
    }

    #[test]
    fn json_mode_round_trips() {
        let r = TrendReport::from_history(&format!(
            "{}\n{}\n",
            row("fig1@t1", 24, 4.0),
            row("fig1@t1", 24, 2.0)
        ));
        let doc = json::parse(&r.to_json()).unwrap();
        let series = doc.get("series").and_then(Json::as_arr).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("key").and_then(Json::as_str), Some("fig1@t1"));
        assert_eq!(
            series[0]
                .get("points")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn load_merges_history_sibling_with_main_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "disq-trend-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let main = dir.join("bench.json");
        std::fs::write(&main, format!("[\n{}\n]", row("fig1@t1", 24, 2.0))).unwrap();
        std::fs::write(
            dir.join("bench.history.jsonl"),
            format!("{}\n", row("fig1@t1", 24, 4.0)),
        )
        .unwrap();

        // Main path: history sibling first, current snapshot last.
        let r = load(&main).unwrap();
        assert_eq!(r.series[0].points.len(), 2);
        assert_eq!(r.series[0].points[1].wall_secs, 2.0);

        // History path alone: just the displaced rows.
        let r = load(&dir.join("bench.history.jsonl")).unwrap();
        assert_eq!(r.series[0].points.len(), 1);

        // Main without any history: single-point trend, not an error.
        std::fs::remove_file(dir.join("bench.history.jsonl")).unwrap();
        let r = load(&main).unwrap();
        assert_eq!(r.series[0].points.len(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }
}
