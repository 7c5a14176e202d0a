//! `disq-insight`: post-hoc analytics over DisQ's observability surface.
//!
//! The `disq-trace` crate records what the pipeline *did* — JSONL event
//! streams, always-on counters, kernel-timer histograms embedded in
//! `BENCH_harness.json`. This crate turns those artifacts into answers:
//!
//! * [`report`] — streams a JSONL trace (crash-tolerant) into one
//!   aggregated [`report::RunReport`]: budget attribution by phase and
//!   question kind, dismantle-decision tables with every candidate's
//!   Eq. 8/9 score, SPRT verdict/sample summaries, and kernel-timer
//!   histogram renderings with p50/p90/p99.
//! * [`calib`] — scores the Eq. 2 error model: joins predicted `Err(b)`
//!   against realized per-object MSE, reporting correlation, bias and
//!   the worst-calibrated attributes.
//! * [`compare`] — a perf-regression gate between two
//!   `BENCH_harness.json` snapshots with configurable slowdown
//!   thresholds, deterministic-counter drift checks, and allocation
//!   regression detection; the CLI exits non-zero on regression so CI
//!   can gate on it.
//! * [`explain`] — `EXPLAIN ANALYZE` for crowd queries: renders the
//!   audit ledger of a traced run (query/object audits, drift-detector
//!   status, spam decisions) into a per-query error-attribution
//!   narrative, worst component first, and re-verifies the
//!   `noise + model + cross == realized` decomposition identity.
//! * [`trend`] — per-experiment wall/throughput/peak-heap trajectories
//!   over the append-only `BENCH_harness.history.jsonl` file.
//! * [`workers`] — per-worker scorecards from the provenance ledger:
//!   answers, spend, observed spam rate, James–Stein-shrunk quality
//!   estimates and the worst-offender ranking, scored against the
//!   planted profiles when the heterogeneous worker model ran.
//! * [`timeline`] — exports the span/event stream as Chrome trace-event
//!   JSON for `chrome://tracing` / Perfetto.
//! * [`flame`] — folds spans into a self/total-time and bytes-allocated
//!   hierarchy: ASCII tree or classic folded stacks.
//!
//! The `disq-insight` binary wraps all of these as subcommands
//! (`report` and `explain` also speak `--json`). Everything is
//! std-only, matching the rest of the workspace.

#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod explain;
pub mod flame;
pub mod report;
pub mod slow;
pub mod table;
pub mod timeline;
pub mod trend;
pub mod workers;

pub use calib::{CalibReport, CalibSample};
pub use compare::{compare, load_rows, CompareConfig, CompareOutcome, Regression};
pub use explain::{ExplainReport, QueryExplain};
pub use flame::{FlameGraph, FlameNode};
pub use report::{render_timers, RunReport};
pub use slow::SlowReport;
pub use timeline::Timeline;
pub use trend::{TrendPoint, TrendReport, TrendSeries};
pub use workers::{WorkerCard, WorkersReport};
