//! The harness-row schema: one record of `BENCH_harness.json`.
//!
//! `disq-bench` writes these rows and `disq-insight`'s `compare` gate and
//! `trend` view read them back. Both directions go through [`BenchRow`],
//! so a new field is added here and nowhere else.

use crate::json::{write_str, Json};
use crate::RunSummary;
use std::fmt::Write as _;

/// The `"serve":{...}` latency block a `serve@c<conns>` load-generator
/// row carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRow {
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile request latency, microseconds. `None` for rows
    /// written before the harness recorded it: the field is additive, so
    /// legacy snapshots keep parsing.
    pub p90_us: Option<f64>,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Queries per second across all connections.
    pub qps: f64,
    /// Crowd questions asked per query (after coalescing).
    pub questions_per_query: f64,
    /// Plan-cache hit rate over the measured window.
    pub plan_cache_hit_rate: f64,
}

/// One harness record, keyed by `experiment` (e.g. `fig1@t4`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Record key: the experiment name qualified by its sweep axis.
    pub experiment: String,
    /// Worker threads (or connections) the run used.
    pub threads: u64,
    /// Experimental cells in the sweep.
    pub cells: u64,
    /// Repetitions per cell.
    pub reps: u64,
    /// `(cell, rep)` units executed.
    pub units: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Cells per wall-clock second.
    pub cells_per_sec: f64,
    /// Units per wall-clock second.
    pub units_per_sec: f64,
    /// World-cache (or plan-cache) hits.
    pub cache_hits: u64,
    /// World-cache (or plan-cache) misses.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`.
    pub cache_hit_rate: f64,
    /// Peak live-heap bytes from the allocation watermark; 0 when the
    /// row was not measured with it, and then omitted from the line.
    pub peak_alloc_bytes: u64,
    /// Daemon latency stats of a serve load-generator row.
    pub serve: Option<ServeRow>,
    /// Trace counters and timers accumulated during the run.
    pub summary: Option<RunSummary>,
}

impl BenchRow {
    /// One-line JSON object for `BENCH_harness.json`. Optional blocks
    /// follow the fixed keys, and `p90_us` trails its serve block, so
    /// rows written before those fields existed share a prefix with
    /// current ones.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"experiment\":");
        write_str(&mut s, &self.experiment);
        let _ = write!(
            s,
            ",\"threads\":{},\"cells\":{},\"reps\":{},\"units\":{},\"wall_secs\":{:.4},\
             \"cells_per_sec\":{:.4},\"units_per_sec\":{:.4},\"cache_hits\":{},\
             \"cache_misses\":{},\"cache_hit_rate\":{:.4}",
            self.threads,
            self.cells,
            self.reps,
            self.units,
            self.wall_secs,
            self.cells_per_sec,
            self.units_per_sec,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate,
        );
        if self.peak_alloc_bytes > 0 {
            let _ = write!(s, ",\"peak_alloc_bytes\":{}", self.peak_alloc_bytes);
        }
        if let Some(v) = &self.serve {
            let _ = write!(
                s,
                ",\"serve\":{{\"p50_us\":{},\"p99_us\":{},\"qps\":{:.2},\
                 \"questions_per_query\":{:.4},\"plan_cache_hit_rate\":{:.4}",
                v.p50_us, v.p99_us, v.qps, v.questions_per_query, v.plan_cache_hit_rate,
            );
            if let Some(p90) = v.p90_us {
                let _ = write!(s, ",\"p90_us\":{p90}");
            }
            s.push('}');
        }
        if let Some(summary) = &self.summary {
            let _ = write!(s, ",\"run_summary\":{}", summary.to_json());
        }
        s.push('}');
        s
    }

    /// Decodes one row. Only `experiment`, `wall_secs` and
    /// `units_per_sec` are required; absent counts read as 0, so rows
    /// from older writers keep parsing. A present `serve` block needs
    /// every key but `p90_us`, and a present `run_summary` must decode.
    pub fn from_json(v: &Json) -> Result<BenchRow, String> {
        let num = |obj: &Json, name: &str| obj.get(name).and_then(Json::as_f64);
        let need = |name: &str| num(v, name).ok_or_else(|| format!("missing number {name:?}"));
        let count = |name: &str| num(v, name).unwrap_or(0.0) as u64;
        let serve = match v.get("serve") {
            Some(b) => {
                let need = |name: &str| {
                    num(b, name).ok_or_else(|| format!("serve block missing {name:?}"))
                };
                Some(ServeRow {
                    p50_us: need("p50_us")?,
                    p90_us: num(b, "p90_us"),
                    p99_us: need("p99_us")?,
                    qps: need("qps")?,
                    questions_per_query: need("questions_per_query")?,
                    plan_cache_hit_rate: need("plan_cache_hit_rate")?,
                })
            }
            None => None,
        };
        Ok(BenchRow {
            experiment: v
                .get("experiment")
                .and_then(Json::as_str)
                .ok_or("missing \"experiment\"")?
                .to_string(),
            threads: count("threads"),
            cells: count("cells"),
            reps: count("reps"),
            units: count("units"),
            wall_secs: need("wall_secs")?,
            cells_per_sec: num(v, "cells_per_sec").unwrap_or(0.0),
            units_per_sec: need("units_per_sec")?,
            cache_hits: count("cache_hits"),
            cache_misses: count("cache_misses"),
            cache_hit_rate: num(v, "cache_hit_rate").unwrap_or(0.0),
            peak_alloc_bytes: count("peak_alloc_bytes"),
            serve,
            summary: v
                .get("run_summary")
                .map(RunSummary::from_json)
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let summary = RunSummary::from_json(
            &crate::json::parse(r#"{"counters":{"allocs":7},"timers":{}}"#).unwrap(),
        )
        .unwrap();
        let row = BenchRow {
            experiment: "serve@c8".into(),
            threads: 8,
            cells: 8,
            reps: 120,
            units: 960,
            wall_secs: 2.0,
            cells_per_sec: 4.0,
            units_per_sec: 480.0,
            cache_hits: 10,
            cache_misses: 4,
            cache_hit_rate: 0.7143,
            peak_alloc_bytes: 1 << 20,
            serve: Some(ServeRow {
                p50_us: 800.0,
                p90_us: Some(1500.0),
                p99_us: 4000.0,
                qps: 480.25,
                questions_per_query: 6.5,
                plan_cache_hit_rate: 0.97,
            }),
            summary: Some(summary),
        };
        let line = row.to_json();
        let back = BenchRow::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, row);
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn only_the_key_and_rates_are_required() {
        let parse = |text: &str| BenchRow::from_json(&crate::json::parse(text).unwrap());
        let row = parse(r#"{"experiment":"x","wall_secs":1.5,"units_per_sec":2}"#).unwrap();
        assert_eq!((row.units, row.peak_alloc_bytes), (0, 0));
        assert!(row.serve.is_none() && row.summary.is_none());
        let err = parse(r#"{"experiment":"x","wall_secs":1.5}"#).unwrap_err();
        assert!(err.contains("units_per_sec"), "{err}");
        assert!(parse(r#"{"wall_secs":1.5,"units_per_sec":2}"#).is_err());
    }
}
