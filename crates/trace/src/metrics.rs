//! Always-on counters and opt-in kernel-timing histograms, aggregated
//! into a [`RunSummary`].
//!
//! Counters are process-global relaxed atomics: incrementing one costs a
//! few nanoseconds, far below the cost of any crowd question or linear
//! solve it annotates, so they stay on even when no trace sink is
//! installed — that is what makes silent behaviours (spam-filter
//! fallbacks, solver fallbacks) visible in every run. Timers wrap
//! the `disq-math` kernels and *are* gated on an installed sink, because
//! two `Instant::now` calls per tiny Cholesky solve would be measurable
//! in the greedy loop.
//!
//! [`RunSummary`] snapshots are plain data; `later.delta_since(&earlier)`
//! scopes a summary to one experiment, mirroring the crowd ledger's
//! snapshot/delta pattern.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds durations in
/// `[2^(i−1), 2^i)` nanoseconds (bucket 0 holds 0–1 ns).
pub const HIST_BUCKETS: usize = 32;

/// Process-global event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Binary value questions charged.
    QuestionsBinary,
    /// Numeric value questions charged.
    QuestionsNumeric,
    /// Dismantle questions charged.
    QuestionsDismantle,
    /// Verification questions charged.
    QuestionsVerify,
    /// Example questions charged.
    QuestionsExample,
    /// Total milli-cents charged across all questions.
    SpendMillicents,
    /// Individual answers discarded by the online spam filter.
    SpamAnswersDropped,
    /// Answer batches the spam filter rejected entirely, forcing the
    /// estimator to average the unfiltered answers.
    SpamFallbacks,
    /// `GetNextAttribute` decisions taken.
    DismantleChoices,
    /// SPRT verifications that accepted the candidate.
    SprtAccepted,
    /// SPRT verifications that rejected the candidate.
    SprtRejected,
    /// Worker answers consumed across all SPRT dialogues.
    SprtSamples,
    /// Question grants made by the greedy budget-distribution loop
    /// (top-level calls only, not the loss-term probes).
    BudgetSteps,
    /// Per-target regressions fitted.
    RegressionFits,
    /// Greedy budget-distribution calls where the incremental
    /// Sherman–Morrison engine hit a numerical breakdown (non-SPD
    /// update, non-finite statistics) and restarted on the dense
    /// refactorize-per-candidate engine.
    SolverFallbacks,
    /// Next-attribute loss probes answered from the dismantle-step probe
    /// cache instead of re-running a greedy solve.
    ProbeCacheHits,
    /// Objects given a per-object error-attribution audit
    /// ([`crate::TraceEvent::ObjectAudit`]); incremented only on traced
    /// audit paths, so the event count and counter delta stay bit-exact.
    AuditedObjects,
    /// Query targets given a full error-attribution ledger
    /// ([`crate::TraceEvent::QueryAudit`]); same traced-only gating.
    AuditedQueries,
    /// Drift-detector alarms raised ([`crate::TraceEvent::DriftDetected`]);
    /// same traced-only gating.
    DriftAlarms,
    /// Trace-sink write failures (file creation or mid-run I/O errors in
    /// the JSONL sink). Non-zero means the trace on disk is incomplete.
    TraceWriteErrors,
    /// Events evicted by a capped [`crate::MemorySink`] (drop-oldest).
    TraceDroppedEvents,
    /// Bytes requested from the allocator while tracing was active
    /// (counted only when [`crate::CountingAlloc`] is the global
    /// allocator).
    AllocBytes,
    /// Allocator calls while tracing was active (same gating as
    /// [`Counter::AllocBytes`]).
    Allocs,
    /// HTTP requests accepted by the `disq-serve` daemon.
    ServeRequests,
    /// Serve requests answered with a 4xx/5xx error.
    ServeErrors,
    /// `/query` requests answered from an in-memory cached plan.
    PlanCacheHits,
    /// `/query` requests that had to compute (or load) a plan.
    PlanCacheMisses,
    /// Plans warm-started from the on-disk plan store instead of
    /// recomputed via `preprocess`.
    PlanStoreLoads,
    /// Cross-request question batches shared by ≥ 2 concurrent queries
    /// (the serve-path micro-batcher).
    CoalescedBatches,
    /// Crowd questions avoided by batch sharing
    /// (`Σ kᵢ − max kᵢ` per coalesced batch).
    CoalescedQuestionsSaved,
    /// Access-log lines that failed to write (the log keeps serving;
    /// the first failure warns on stderr).
    AccessLogWriteErrors,
    /// Slow-request flight-recorder dumps that failed to write.
    SlowDumpWriteErrors,
    /// Slow-request flight-recorder dumps written successfully.
    SlowDumps,
}

/// Number of counters.
pub const COUNTER_COUNT: usize = 33;

impl Counter {
    /// Every counter, in `RunSummary` order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
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
        Counter::BudgetSteps,
        Counter::RegressionFits,
        Counter::SolverFallbacks,
        Counter::ProbeCacheHits,
        Counter::AuditedObjects,
        Counter::AuditedQueries,
        Counter::DriftAlarms,
        Counter::TraceWriteErrors,
        Counter::TraceDroppedEvents,
        Counter::AllocBytes,
        Counter::Allocs,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanStoreLoads,
        Counter::CoalescedBatches,
        Counter::CoalescedQuestionsSaved,
        Counter::AccessLogWriteErrors,
        Counter::SlowDumpWriteErrors,
        Counter::SlowDumps,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::QuestionsBinary => "questions_binary",
            Counter::QuestionsNumeric => "questions_numeric",
            Counter::QuestionsDismantle => "questions_dismantle",
            Counter::QuestionsVerify => "questions_verify",
            Counter::QuestionsExample => "questions_example",
            Counter::SpendMillicents => "spend_millicents",
            Counter::SpamAnswersDropped => "spam_answers_dropped",
            Counter::SpamFallbacks => "spam_fallbacks",
            Counter::DismantleChoices => "dismantle_choices",
            Counter::SprtAccepted => "sprt_accepted",
            Counter::SprtRejected => "sprt_rejected",
            Counter::SprtSamples => "sprt_samples",
            Counter::BudgetSteps => "budget_steps",
            Counter::RegressionFits => "regression_fits",
            Counter::SolverFallbacks => "solver_fallbacks",
            Counter::ProbeCacheHits => "probe_cache_hits",
            Counter::AuditedObjects => "audited_objects",
            Counter::AuditedQueries => "audited_queries",
            Counter::DriftAlarms => "drift_alarms",
            Counter::TraceWriteErrors => "trace_write_errors",
            Counter::TraceDroppedEvents => "trace_dropped_events",
            Counter::AllocBytes => "alloc_bytes",
            Counter::Allocs => "allocs",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeErrors => "serve_errors",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanStoreLoads => "plan_store_loads",
            Counter::CoalescedBatches => "coalesced_batches",
            Counter::CoalescedQuestionsSaved => "coalesced_questions_saved",
            Counter::AccessLogWriteErrors => "access_log_write_errors",
            Counter::SlowDumpWriteErrors => "slow_dump_write_errors",
            Counter::SlowDumps => "slow_dumps",
        }
    }
}

/// Timed kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// `QuadFormWorkspace::factorize_with` (packed Cholesky + rescue
    /// ladder).
    QuadFormFactorize,
    /// `QuadFormWorkspace::quad_form` (triangular solves).
    QuadFormSolve,
    /// Dense `Cholesky::new` factorization.
    CholeskyFactorize,
    /// Crowd questions end to end (any kind). Single questions
    /// (dismantle, verify, example, `ask_value`) are one sample each; a
    /// batch of `k` value questions is timed as a whole, so each of its
    /// `k` samples is the per-question mean of that batch. Preprocessing
    /// and the online phase both ask value questions in batches, one per
    /// object × attribute cell.
    CrowdQuestion,
    /// Packed-factor rank-1 diagonal update / bordered append
    /// (`disq_math::rank1`), the incremental solver's mutation kernels.
    Rank1Update,
    /// One candidate grant scored by the incremental greedy engine
    /// (Sherman–Morrison or bordered Schur complement).
    CandidateScore,
}

/// Number of timers.
pub const TIMER_COUNT: usize = 6;

impl Timer {
    /// Every timer, in `RunSummary` order.
    pub const ALL: [Timer; TIMER_COUNT] = [
        Timer::QuadFormFactorize,
        Timer::QuadFormSolve,
        Timer::CholeskyFactorize,
        Timer::CrowdQuestion,
        Timer::Rank1Update,
        Timer::CandidateScore,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Timer::QuadFormFactorize => "quadform_factorize",
            Timer::QuadFormSolve => "quadform_solve",
            Timer::CholeskyFactorize => "cholesky_factorize",
            Timer::CrowdQuestion => "crowd_question",
            Timer::Rank1Update => "rank1_update",
            Timer::CandidateScore => "candidate_score",
        }
    }
}

struct AtomicHist {
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl AtomicHist {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHist {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    /// Records `n ≥ 1` samples that took `total_ns` together, each
    /// bucketed at their mean `total_ns / n`.
    fn record_n(&self, total_ns: u64, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.buckets[bucket_of(total_ns / n)].fetch_add(n, Ordering::Relaxed);
    }
}

/// Bucket index of a nanosecond duration: `⌈log₂(ns+1)⌉`, capped.
fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

struct Registry {
    counters: [AtomicU64; COUNTER_COUNT],
    timers: [AtomicHist; TIMER_COUNT],
}

static REGISTRY: Registry = {
    #[allow(clippy::declare_interior_mutable_const)] // array-init seeds
    const C: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const H: AtomicHist = AtomicHist::new();
    Registry {
        counters: [C; COUNTER_COUNT],
        timers: [H; TIMER_COUNT],
    }
};

/// Increments a counter by one.
#[inline]
pub fn count(counter: Counter) {
    count_n(counter, 1);
}

/// The first [`QUESTION_KINDS`] counters are the per-kind question
/// counts; they feed both [`RunSummary::total_questions`] and per-span
/// question attribution.
const QUESTION_KINDS: usize = 5;

/// Increments a counter by `n`.
#[inline]
pub fn count_n(counter: Counter, n: u64) {
    REGISTRY.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    // The question kinds additionally feed open spans' per-thread
    // attribution — gated on an installed sink so the always-on path
    // stays one `fetch_add` (plus a branch).
    if (counter as usize) < QUESTION_KINDS && crate::active() {
        crate::span::note_questions(n);
    }
}

/// Records one timed kernel invocation. Callers gate on
/// [`crate::active`]; see [`crate::time`].
pub fn record_timer(timer: Timer, elapsed: Duration) {
    record_timer_n(timer, elapsed, 1);
}

/// Records `n` invocations timed together as one `elapsed` interval:
/// `count` grows by `n`, `total_ns` by `elapsed`, and all `n` samples
/// land in the bucket of the per-invocation mean `elapsed / n`. Open
/// spans attribute `elapsed` once, exactly as `n` separate recordings
/// summing to it would. `n = 0` records nothing. Callers gate on
/// [`crate::active`], as for [`record_timer`].
pub fn record_timer_n(timer: Timer, elapsed: Duration, n: u64) {
    if n == 0 {
        return;
    }
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    REGISTRY.timers[timer as usize].record_n(ns, n);
    crate::span::note_kernel_ns(ns);
}

/// Frozen state of one timer's histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerStats {
    /// Invocations recorded.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub total_ns: u64,
    /// Power-of-two nanosecond buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl TimerStats {
    fn zero() -> Self {
        TimerStats {
            count: 0,
            total_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the `q`-th recorded duration (`0 < q ≤ 1`).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (HIST_BUCKETS - 1)
    }

    /// Median duration upper bound, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// 90th-percentile duration upper bound, nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.9)
    }

    /// 99th-percentile duration upper bound, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// A frozen view of every counter and timer — either absolute (since
/// process start) from [`crate::summary`], or scoped to an interval via
/// [`RunSummary::delta_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    counters: [u64; COUNTER_COUNT],
    timers: Vec<TimerStats>,
}

impl Default for RunSummary {
    fn default() -> Self {
        RunSummary {
            counters: [0; COUNTER_COUNT],
            timers: vec![TimerStats::zero(); TIMER_COUNT],
        }
    }
}

/// Snapshots the global registry.
pub fn summary() -> RunSummary {
    let mut out = RunSummary::default();
    for (i, c) in REGISTRY.counters.iter().enumerate() {
        out.counters[i] = c.load(Ordering::Relaxed);
    }
    for (i, h) in REGISTRY.timers.iter().enumerate() {
        out.timers[i].count = h.count.load(Ordering::Relaxed);
        out.timers[i].total_ns = h.total_ns.load(Ordering::Relaxed);
        for (j, b) in h.buckets.iter().enumerate() {
            out.timers[i].buckets[j] = b.load(Ordering::Relaxed);
        }
    }
    out
}

impl RunSummary {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The stats of one timer.
    pub fn timer(&self, t: Timer) -> &TimerStats {
        &self.timers[t as usize]
    }

    /// Total questions of all kinds.
    pub fn total_questions(&self) -> u64 {
        Counter::ALL[..QUESTION_KINDS]
            .iter()
            .map(|&c| self.counter(c))
            .sum()
    }

    /// Counter-wise and bucket-wise saturating difference: the activity
    /// between `earlier` and `self`.
    pub fn delta_since(&self, earlier: &RunSummary) -> RunSummary {
        let mut out = self.clone();
        for i in 0..COUNTER_COUNT {
            out.counters[i] = out.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..TIMER_COUNT {
            let e = &earlier.timers[i];
            let t = &mut out.timers[i];
            t.count = t.count.saturating_sub(e.count);
            t.total_ns = t.total_ns.saturating_sub(e.total_ns);
            for j in 0..HIST_BUCKETS {
                t.buckets[j] = t.buckets[j].saturating_sub(e.buckets[j]);
            }
        }
        out
    }

    /// Overwrites one timer's stats (test fixture construction).
    #[cfg(test)]
    pub(crate) fn set_timer_for_test(&mut self, t: Timer, stats: TimerStats) {
        self.timers[t as usize] = stats;
    }

    /// True when nothing was counted or timed.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.timers.iter().all(|t| t.count == 0)
    }

    /// Human-readable multi-line block for report footers; every line is
    /// prefixed `trace:`. Zero sections are omitted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let q = self.total_questions();
        if q > 0 {
            let _ = write!(
                out,
                "trace: {} questions (binary {}, numeric {}, dismantle {}, verify {}, \
                 example {}); spend {}mc",
                q,
                self.counter(Counter::QuestionsBinary),
                self.counter(Counter::QuestionsNumeric),
                self.counter(Counter::QuestionsDismantle),
                self.counter(Counter::QuestionsVerify),
                self.counter(Counter::QuestionsExample),
                self.counter(Counter::SpendMillicents),
            );
            out.push('\n');
        }
        let decisions = [
            (Counter::DismantleChoices, "dismantle choices"),
            (Counter::SprtAccepted, "sprt accepts"),
            (Counter::SprtRejected, "sprt rejects"),
            (Counter::SprtSamples, "sprt samples"),
            (Counter::BudgetSteps, "budget steps"),
            (Counter::RegressionFits, "regression fits"),
            (Counter::SpamAnswersDropped, "spam drops"),
            (Counter::SpamFallbacks, "spam fallbacks"),
            (Counter::SolverFallbacks, "solver fallbacks"),
            (Counter::ProbeCacheHits, "probe cache hits"),
            (Counter::AuditedObjects, "audited objects"),
            (Counter::AuditedQueries, "audited queries"),
            (Counter::DriftAlarms, "drift alarms"),
            (Counter::TraceWriteErrors, "trace write errors"),
            (Counter::TraceDroppedEvents, "trace dropped events"),
        ];
        let parts: Vec<String> = decisions
            .iter()
            .filter(|&&(c, _)| self.counter(c) > 0)
            .map(|&(c, label)| format!("{label} {}", self.counter(c)))
            .collect();
        if !parts.is_empty() {
            let _ = write!(out, "trace: {}", parts.join(", "));
            out.push('\n');
        }
        if self.counter(Counter::Allocs) > 0 {
            let _ = write!(
                out,
                "trace: alloc {} bytes in {} calls while traced",
                self.counter(Counter::AllocBytes),
                self.counter(Counter::Allocs),
            );
            out.push('\n');
        }
        for t in Timer::ALL {
            let stats = self.timer(t);
            if stats.count > 0 {
                let _ = write!(
                    out,
                    "trace: kernel {} n={} mean={:.0}ns p50≤{}ns p99≤{}ns",
                    t.name(),
                    stats.count,
                    stats.mean_ns(),
                    stats.quantile_ns(0.5),
                    stats.quantile_ns(0.99),
                );
                out.push('\n');
            }
        }
        out
    }

    /// One-line JSON object (non-zero counters and timers only), the
    /// `run_summary` block merged into `BENCH_harness.json` records.
    /// Timers carry their full sparse bucket list (`[[index, count], …]`)
    /// so downstream tooling (`disq-insight`) can re-render the log₂
    /// histograms and recompute any percentile.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        let mut first = true;
        for c in Counter::ALL {
            let v = self.counter(c);
            if v > 0 {
                if !first {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{v}", c.name());
                first = false;
            }
        }
        s.push_str("},\"timers\":{");
        let mut first = true;
        for t in Timer::ALL {
            let stats = self.timer(t);
            if stats.count > 0 {
                if !first {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\"{}\":{{\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\
                     \"p99_ns\":{},\"buckets\":[",
                    t.name(),
                    stats.count,
                    stats.total_ns,
                    stats.p50_ns(),
                    stats.p90_ns(),
                    stats.p99_ns(),
                );
                let mut first_bucket = true;
                for (i, &b) in stats.buckets.iter().enumerate() {
                    if b > 0 {
                        if !first_bucket {
                            s.push(',');
                        }
                        let _ = write!(s, "[{i},{b}]");
                        first_bucket = false;
                    }
                }
                s.push_str("]}");
                first = false;
            }
        }
        s.push_str("}}");
        s
    }

    /// Parses a [`RunSummary::to_json`] object back (absent counters and
    /// timers read as zero; the legacy pre-bucket timer encoding is
    /// accepted with empty buckets). Unknown counter or timer names are
    /// an error — they indicate a version mismatch worth surfacing.
    pub fn from_json(v: &crate::json::Json) -> Result<RunSummary, String> {
        use crate::json::Json;
        let mut out = RunSummary::default();
        if let Some(Json::Obj(counters)) = v.get("counters") {
            for (name, value) in counters {
                let c = Counter::ALL
                    .iter()
                    .find(|c| c.name() == name)
                    .ok_or_else(|| format!("unknown counter {name:?}"))?;
                out.counters[*c as usize] = value
                    .as_u64()
                    .ok_or_else(|| format!("counter {name:?} is not an integer"))?;
            }
        }
        if let Some(Json::Obj(timers)) = v.get("timers") {
            for (name, value) in timers {
                let t = Timer::ALL
                    .iter()
                    .find(|t| t.name() == name)
                    .ok_or_else(|| format!("unknown timer {name:?}"))?;
                let stats = &mut out.timers[*t as usize];
                let int = |field: &str| -> Result<u64, String> {
                    value
                        .get(field)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("timer {name:?}: missing integer {field:?}"))
                };
                stats.count = int("count")?;
                stats.total_ns = int("total_ns")?;
                if let Some(buckets) = value.get("buckets").and_then(Json::as_arr) {
                    for pair in buckets {
                        let pair = pair
                            .as_arr()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| format!("timer {name:?}: bad bucket entry"))?;
                        let i = pair[0]
                            .as_u64()
                            .filter(|&i| (i as usize) < HIST_BUCKETS)
                            .ok_or_else(|| format!("timer {name:?}: bucket index out of range"))?;
                        stats.buckets[i as usize] = pair[1]
                            .as_u64()
                            .ok_or_else(|| format!("timer {name:?}: bad bucket count"))?;
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let before = summary();
        count(Counter::SpamFallbacks);
        count_n(Counter::SpamAnswersDropped, 3);
        let delta = summary().delta_since(&before);
        assert_eq!(delta.counter(Counter::SpamFallbacks), 1);
        assert_eq!(delta.counter(Counter::SpamAnswersDropped), 3);
    }

    #[test]
    fn timer_stats_quantiles() {
        let mut stats = TimerStats::zero();
        // 90 fast (bucket 4: ≤16ns), 10 slow (bucket 11: ≤2048ns).
        stats.buckets[4] = 90;
        stats.buckets[11] = 10;
        stats.count = 100;
        stats.total_ns = 90 * 10 + 10 * 1500;
        assert_eq!(stats.quantile_ns(0.5), 16);
        assert_eq!(stats.quantile_ns(0.99), 2048);
        assert!((stats.mean_ns() - 159.0).abs() < 1e-9);
    }

    #[test]
    fn record_timer_lands_in_summary() {
        let before = summary();
        record_timer(Timer::CholeskyFactorize, Duration::from_nanos(100));
        let delta = summary().delta_since(&before);
        let stats = delta.timer(Timer::CholeskyFactorize);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.total_ns, 100);
        assert_eq!(stats.buckets[bucket_of(100)], 1);
    }

    #[test]
    fn record_timer_n_counts_every_sample_at_the_batch_mean() {
        let before = summary();
        record_timer_n(Timer::Rank1Update, Duration::from_nanos(4_000), 8);
        let delta = summary().delta_since(&before);
        let stats = delta.timer(Timer::Rank1Update);
        assert_eq!(stats.count, 8);
        assert_eq!(stats.total_ns, 4_000);
        // All eight samples sit in the bucket of the 500 ns mean.
        assert_eq!(stats.buckets[bucket_of(500)], 8);
        assert_eq!(stats.buckets.iter().sum::<u64>(), 8);

        let before = summary();
        record_timer_n(Timer::Rank1Update, Duration::from_nanos(4_000), 0);
        assert_eq!(
            summary().delta_since(&before).timer(Timer::Rank1Update),
            &TimerStats::zero()
        );
    }

    #[test]
    fn render_and_json_skip_zero_sections() {
        let empty = RunSummary::default();
        assert!(empty.is_empty());
        assert_eq!(empty.render(), "");
        assert_eq!(empty.to_json(), "{\"counters\":{},\"timers\":{}}");

        let mut s = RunSummary::default();
        s.counters[Counter::QuestionsBinary as usize] = 7;
        s.counters[Counter::SpendMillicents as usize] = 700;
        let rendered = s.render();
        assert!(rendered.contains("7 questions"), "{rendered}");
        assert!(rendered.contains("spend 700mc"), "{rendered}");
        let json = s.to_json();
        assert!(json.contains("\"questions_binary\":7"), "{json}");
        assert!(!json.contains("questions_numeric"), "{json}");
    }

    #[test]
    fn percentile_accessors_on_empty_histogram() {
        let stats = TimerStats::zero();
        assert_eq!(stats.p50_ns(), 0);
        assert_eq!(stats.p90_ns(), 0);
        assert_eq!(stats.p99_ns(), 0);
        assert_eq!(stats.mean_ns(), 0.0);
    }

    #[test]
    fn percentile_accessors_on_single_bucket() {
        let mut stats = TimerStats::zero();
        stats.buckets[7] = 1_000; // every sample in (64, 128] ns
        stats.count = 1_000;
        stats.total_ns = 100_000;
        assert_eq!(stats.p50_ns(), 128);
        assert_eq!(stats.p90_ns(), 128);
        assert_eq!(stats.p99_ns(), 128);
    }

    #[test]
    fn percentile_accessors_spread_across_buckets() {
        let mut stats = TimerStats::zero();
        stats.buckets[4] = 50; // ≤16ns
        stats.buckets[8] = 45; // ≤256ns
        stats.buckets[20] = 5; // ≤2^20ns
        stats.count = 100;
        assert_eq!(stats.p50_ns(), 16);
        assert_eq!(stats.p90_ns(), 256);
        assert_eq!(stats.p99_ns(), 1 << 20);
    }

    #[test]
    fn percentile_accessors_on_saturated_histogram() {
        // Everything lands in the terminal bucket (durations beyond
        // 2^30ns), with counts large enough to stress the rank math.
        let mut stats = TimerStats::zero();
        stats.buckets[HIST_BUCKETS - 1] = u64::MAX / 2;
        stats.count = u64::MAX / 2;
        stats.total_ns = u64::MAX;
        let cap = 1u64 << (HIST_BUCKETS - 1);
        assert_eq!(stats.p50_ns(), cap);
        assert_eq!(stats.p99_ns(), cap);
        // Bucket-zero only histogram reports the 1ns floor.
        let mut zeroes = TimerStats::zero();
        zeroes.buckets[0] = 3;
        zeroes.count = 3;
        assert_eq!(zeroes.p50_ns(), 1);
        assert_eq!(zeroes.p99_ns(), 1);
    }

    #[test]
    fn summary_json_round_trips_through_parser() {
        let mut s = RunSummary::default();
        s.counters[Counter::QuestionsBinary as usize] = 41;
        s.counters[Counter::SpendMillicents as usize] = 123_456;
        s.timers[Timer::CrowdQuestion as usize] = TimerStats {
            count: 100,
            total_ns: 5_000,
            buckets: {
                let mut b = [0u64; HIST_BUCKETS];
                b[4] = 90;
                b[11] = 10;
                b
            },
        };
        let json = s.to_json();
        assert!(json.contains("\"p90_ns\":16"), "{json}");
        assert!(json.contains("\"buckets\":[[4,90],[11,10]]"), "{json}");
        let parsed = crate::json::parse(&json).unwrap();
        let back = RunSummary::from_json(&parsed).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn summary_from_json_rejects_unknown_names() {
        let bad = crate::json::parse("{\"counters\":{\"bogus\":1},\"timers\":{}}").unwrap();
        assert!(RunSummary::from_json(&bad).is_err());
        let bad = crate::json::parse("{\"counters\":{},\"timers\":{\"bogus\":{}}}").unwrap();
        assert!(RunSummary::from_json(&bad).is_err());
    }

    /// Snapshot/delta arithmetic must stay consistent while other
    /// threads are hammering the counters. The two coalescing counters
    /// are bumped only by `disq-crowd`'s batcher, which this crate does
    /// not link, so no other test in this binary moves them and the
    /// exact-equality assertions hold under the parallel test runner.
    #[test]
    fn concurrent_increments_keep_deltas_consistent() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let before = summary();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        count(Counter::CoalescedBatches);
                        count_n(Counter::CoalescedQuestionsSaved, 2);
                    }
                });
            }
            // Snapshots taken mid-flight must be monotone in every
            // counter and never exceed the final totals.
            let mut last = summary();
            for _ in 0..50 {
                let now = summary();
                for c in Counter::ALL {
                    assert!(now.counter(c) >= last.counter(c), "{:?} regressed", c);
                }
                last = now;
            }
        });
        let delta = summary().delta_since(&before);
        assert_eq!(
            delta.counter(Counter::CoalescedBatches),
            (THREADS as u64) * PER_THREAD
        );
        assert_eq!(
            delta.counter(Counter::CoalescedQuestionsSaved),
            (THREADS as u64) * PER_THREAD * 2
        );
        // A delta of a summary against itself is empty on those counters.
        let now = summary();
        let self_delta = now.delta_since(&now);
        assert_eq!(self_delta.counter(Counter::CoalescedBatches), 0);
        assert_eq!(self_delta.counter(Counter::CoalescedQuestionsSaved), 0);
    }

    #[test]
    fn counter_names_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()));
        }
        for t in Timer::ALL {
            assert!(seen.insert(t.name()));
        }
    }
}
