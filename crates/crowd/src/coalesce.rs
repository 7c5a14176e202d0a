//! Cross-request micro-batching in front of a [`CrowdPlatform`].
//!
//! The query daemon runs many queries concurrently against one simulated
//! crowd. When two in-flight queries ask about the *same* `(object,
//! attribute)` cell — the common case under a skewed attribute mix —
//! their value questions can share one worker batch instead of paying
//! for two (T-Crowd's shared-task framing): the batcher asks
//! `max(k_i)` questions once and every requester reads its first `k_i`
//! answers off the shared batch.
//!
//! Coalescing is bounded two ways, both tunable from the environment:
//! a batch executes when its collection window expires
//! ([`BATCH_WINDOW_ENV`], microseconds) or as soon as
//! [`BATCH_MAX_ENV`] requests have joined, whichever comes first.
//!
//! **Determinism contract**: when at most one query is in flight (or the
//! window is zero), every ask passes straight through to the underlying
//! platform under its lock — same calls, same order, same RNG stream —
//! so a single-connection serve run is bit-identical to the in-process
//! evaluation path (`passthrough_is_bit_identical`). Only genuinely
//! concurrent traffic takes the coalesced path, where answer-sharing
//! (deliberately) changes which stream draws serve which request.

use crate::{CrowdError, CrowdPlatform, Money};
use disq_domain::{AttributeId, ObjectId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable: batch collection window in microseconds
/// (`0` disables coalescing entirely — every ask passes through).
pub const BATCH_WINDOW_ENV: &str = "DISQ_BATCH_WINDOW_US";

/// Environment variable: execute a batch early once this many requests
/// have joined it.
pub const BATCH_MAX_ENV: &str = "DISQ_BATCH_MAX";

/// Default collection window when [`BATCH_WINDOW_ENV`] is unset.
pub const DEFAULT_WINDOW_US: u64 = 200;

/// Default join cap when [`BATCH_MAX_ENV`] is unset.
pub const DEFAULT_BATCH_MAX: usize = 32;

/// Tuning knobs of the micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// How long the first requester of a cell waits for sharers.
    pub window: Duration,
    /// Execute early once this many requests joined one batch.
    pub max_batch: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            window: Duration::from_micros(DEFAULT_WINDOW_US),
            max_batch: DEFAULT_BATCH_MAX,
        }
    }
}

impl BatcherConfig {
    /// Reads [`BATCH_WINDOW_ENV`] / [`BATCH_MAX_ENV`], falling back to
    /// the defaults on unset or unparseable values.
    pub fn from_env() -> Self {
        let window_us = std::env::var(BATCH_WINDOW_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_WINDOW_US);
        let max_batch = std::env::var(BATCH_MAX_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_BATCH_MAX);
        BatcherConfig {
            window: Duration::from_micros(window_us),
            max_batch,
        }
    }

    /// A config with coalescing disabled: every ask passes through.
    pub fn passthrough() -> Self {
        BatcherConfig {
            window: Duration::ZERO,
            max_batch: DEFAULT_BATCH_MAX,
        }
    }
}

/// One open batch: requesters for the same `(object, attribute)` cell
/// rendezvous here. The *leader* (first arrival) waits out the window,
/// detaches the batch from the open map, executes it on the platform and
/// publishes the result; *followers* wait for the result.
struct Batch {
    state: Mutex<BatchState>,
    cv: Condvar,
}

struct BatchState {
    /// Largest per-requester answer count — what the platform is asked.
    k_max: usize,
    /// Sum of requested counts (for the questions-saved accounting).
    k_sum: usize,
    /// Requests sharing this batch.
    joiners: usize,
    /// Trace request id of every sharer (0 = outside any request
    /// scope); stamped onto the flush event so a coalesced batch stays
    /// attributable to each request whose questions rode it.
    reqs: Vec<u64>,
    /// Set by the leader when it detaches the batch to execute it;
    /// arrivals that see this must open a fresh batch instead.
    closed: bool,
    /// Set when the platform call unwound on the leader; waiting
    /// followers then panic too instead of waiting for a result.
    abandoned: bool,
    /// The shared answers plus the outcome every sharer reports. On a
    /// partial failure (budget exhaustion mid-batch) the answers
    /// collected before the error are still here, matching the
    /// partial-`out` semantics of a direct `ask_values`.
    result: Option<(Vec<f64>, Result<(), CrowdError>)>,
}

/// Point-in-time statistics of a [`CoalescingCrowd`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Query guards taken so far (completed or in flight).
    pub queries: u64,
    /// `ask_values` calls served (passthrough or coalesced).
    pub asks: u64,
    /// Questions the callers requested (`Σ k`).
    pub requested_questions: u64,
    /// Questions actually put to the platform.
    pub asked_questions: u64,
    /// Batches that were shared by ≥ 2 requests.
    pub coalesced_batches: u64,
    /// Questions saved by sharing (`Σ k_i − max k_i` per shared batch).
    pub saved_questions: u64,
}

struct Inner<P> {
    platform: Mutex<P>,
    open: Mutex<HashMap<(u64, u32), Arc<Batch>>>,
    config: BatcherConfig,
    in_flight: AtomicUsize,
    queries: AtomicU64,
    asks: AtomicU64,
    requested_questions: AtomicU64,
    asked_questions: AtomicU64,
    coalesced_batches: AtomicU64,
    saved_questions: AtomicU64,
}

/// A cloneable, thread-safe handle multiplexing one [`CrowdPlatform`]
/// between concurrent requests, coalescing same-cell value questions.
///
/// Implements [`crate::ValueSource`], so it plugs straight into the
/// online estimation kernel; the rest of the platform surface (needed
/// only by preprocessing, which is inherently exclusive) is reachable
/// through [`CoalescingCrowd::with_platform`].
pub struct CoalescingCrowd<P> {
    inner: Arc<Inner<P>>,
}

impl<P> Clone for CoalescingCrowd<P> {
    fn clone(&self) -> Self {
        CoalescingCrowd {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<P> std::fmt::Debug for CoalescingCrowd<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalescingCrowd")
            .field("config", &self.inner.config)
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

/// RAII marker of one in-flight query; the batcher only coalesces while
/// at least two of these are alive (see [`CoalescingCrowd::begin_query`]).
pub struct QueryGuard<P> {
    inner: Arc<Inner<P>>,
}

impl<P> Drop for QueryGuard<P> {
    fn drop(&mut self) {
        self.inner.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<P> CoalescingCrowd<P> {
    /// Wraps `platform` with the given batching config.
    pub fn new(platform: P, config: BatcherConfig) -> Self {
        CoalescingCrowd {
            inner: Arc::new(Inner {
                platform: Mutex::new(platform),
                open: Mutex::new(HashMap::new()),
                config,
                in_flight: AtomicUsize::new(0),
                queries: AtomicU64::new(0),
                asks: AtomicU64::new(0),
                requested_questions: AtomicU64::new(0),
                asked_questions: AtomicU64::new(0),
                coalesced_batches: AtomicU64::new(0),
                saved_questions: AtomicU64::new(0),
            }),
        }
    }

    /// Marks a query as in flight for the guard's lifetime. While fewer
    /// than two guards are alive every ask passes straight through to
    /// the platform — that is the single-request determinism contract.
    pub fn begin_query(&self) -> QueryGuard<P> {
        self.inner.in_flight.fetch_add(1, Ordering::AcqRel);
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        QueryGuard {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Acquire)
    }

    /// Exclusive access to the wrapped platform (preprocessing, ledger
    /// reads). Blocks until in-flight asks drain off the platform lock;
    /// callers should not hold it across long work while queries run.
    pub fn with_platform<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        let mut platform = self
            .inner
            .platform
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        f(&mut platform)
    }

    /// The active batching configuration.
    pub fn config(&self) -> BatcherConfig {
        self.inner.config
    }

    /// Snapshot of the batcher's counters.
    pub fn stats(&self) -> BatcherStats {
        let i = &self.inner;
        BatcherStats {
            queries: i.queries.load(Ordering::Relaxed),
            asks: i.asks.load(Ordering::Relaxed),
            requested_questions: i.requested_questions.load(Ordering::Relaxed),
            asked_questions: i.asked_questions.load(Ordering::Relaxed),
            coalesced_batches: i.coalesced_batches.load(Ordering::Relaxed),
            saved_questions: i.saved_questions.load(Ordering::Relaxed),
        }
    }
}

impl<P: CrowdPlatform> CoalescingCrowd<P> {
    /// Money spent on the wrapped platform's ledger so far.
    pub fn spent(&self) -> Money {
        self.with_platform(|p| p.ledger().spent())
    }

    fn ask_direct(
        &self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        self.inner
            .asked_questions
            .fetch_add(k as u64, Ordering::Relaxed);
        self.with_platform(|p| p.ask_values(o, a, k, out))
    }

    /// The coalescing slow path: join or lead the open batch for the
    /// `(o, a)` cell and split the shared result.
    fn ask_coalesced(
        &self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        let key = (o.0 as u64, a.0 as u32);
        loop {
            // Join an open batch, or open one and become its leader.
            let (batch, leader) = {
                let mut open = self.inner.open.lock().unwrap_or_else(|e| e.into_inner());
                match open.get(&key) {
                    Some(batch) => (Arc::clone(batch), false),
                    None => {
                        let batch = Arc::new(Batch {
                            state: Mutex::new(BatchState {
                                k_max: k,
                                k_sum: k,
                                joiners: 1,
                                reqs: vec![disq_trace::span::current_request()],
                                closed: false,
                                abandoned: false,
                                result: None,
                            }),
                            cv: Condvar::new(),
                        });
                        open.insert(key, Arc::clone(&batch));
                        (batch, true)
                    }
                }
            };

            if leader {
                return self.lead(key, &batch, k, out);
            }

            // Follower: register, then wait for the shared result. A
            // batch that closed between the map lookup and here is a
            // lost race — retry with a fresh batch.
            {
                let mut st = batch.state.lock().unwrap_or_else(|e| e.into_inner());
                if st.closed {
                    continue;
                }
                st.joiners += 1;
                st.k_sum += k;
                st.k_max = st.k_max.max(k);
                st.reqs.push(disq_trace::span::current_request());
                batch.cv.notify_all(); // the leader re-checks saturation
                let wait_span =
                    disq_trace::span!("batch_wait", "o={} a={} k={} follow", key.0, key.1, k);
                while st.result.is_none() {
                    if st.abandoned {
                        drop(st);
                        panic!("coalesced batch leader panicked before publishing answers");
                    }
                    st = batch.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                drop(wait_span);
                disq_trace::span::note_coalesce_width(st.joiners as u64);
                return split_result(&st, k, out);
            }
        }
    }

    /// Leader duty: wait out the window (or saturation), detach the
    /// batch, execute it once on the platform, publish the result.
    fn lead(
        &self,
        key: (u64, u32),
        batch: &Arc<Batch>,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        let deadline = Instant::now() + self.inner.config.window;
        {
            let _wait_span =
                disq_trace::span!("batch_wait", "o={} a={} k={} lead", key.0, key.1, k);
            let mut st = batch.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.joiners >= self.inner.config.max_batch {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, _timeout) = batch
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = next;
            }
        }

        // Detach from the open map first so latecomers open a fresh
        // batch, then close so in-progress joiners retry cleanly.
        self.inner
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        let (k_max, k_sum, joiners, reqs) = {
            let mut st = batch.state.lock().unwrap_or_else(|e| e.into_inner());
            st.closed = true;
            let mut reqs = std::mem::take(&mut st.reqs);
            reqs.sort_unstable();
            reqs.dedup();
            (st.k_max, st.k_sum, st.joiners, reqs)
        };

        self.inner
            .asked_questions
            .fetch_add(k_max as u64, Ordering::Relaxed);
        if joiners > 1 {
            let saved = (k_sum - k_max) as u64;
            self.inner.coalesced_batches.fetch_add(1, Ordering::Relaxed);
            self.inner
                .saved_questions
                .fetch_add(saved, Ordering::Relaxed);
            disq_trace::count(disq_trace::Counter::CoalescedBatches);
            disq_trace::count_n(disq_trace::Counter::CoalescedQuestionsSaved, saved);
        }
        disq_trace::span::note_coalesce_width(joiners as u64);

        let mut answers = Vec::with_capacity(k_max);
        let _abandon = AbandonOnUnwind(batch);
        let outcome = {
            // The flush runs on the leader's thread (and under its
            // request scope); the event below carries every sharer.
            let _flush_span = disq_trace::span!(
                "batch_flush",
                "o={} a={} k_max={} joiners={}",
                key.0,
                key.1,
                k_max,
                joiners
            );
            self.with_platform(|p| {
                p.ask_values(
                    ObjectId(key.0 as usize),
                    AttributeId(key.1 as usize),
                    k_max,
                    &mut answers,
                )
            })
        };
        disq_trace::emit(move || disq_trace::TraceEvent::BatchFlush {
            object: key.0,
            attr: key.1,
            k_max: k_max as u32,
            k_sum: k_sum as u32,
            joiners: joiners as u32,
            reqs,
        });
        let mut st = batch.state.lock().unwrap_or_else(|e| e.into_inner());
        st.result = Some((answers, outcome));
        batch.cv.notify_all();
        split_result(&st, k, out)
    }
}

/// Armed by a batch leader around the platform call. If the call
/// panics, the drop marks the batch abandoned so every waiting follower
/// returns (by panicking, which the request handler turns into an error
/// response) instead of waiting forever for a result.
struct AbandonOnUnwind<'a>(&'a Batch);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.abandoned = true;
            self.0.cv.notify_all();
        }
    }
}

/// Copies one requester's share — its first `k` answers — out of the
/// published batch result. On an error the partial answers still flow
/// into `out`, matching a direct ask's partial-batch semantics.
fn split_result(st: &BatchState, k: usize, out: &mut Vec<f64>) -> Result<(), CrowdError> {
    let (answers, outcome) = st.result.as_ref().expect("published result");
    out.extend_from_slice(&answers[..k.min(answers.len())]);
    outcome.clone()
}

impl<P: CrowdPlatform> crate::ValueSource for CoalescingCrowd<P> {
    fn ask_values(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        self.inner.asks.fetch_add(1, Ordering::Relaxed);
        self.inner
            .requested_questions
            .fetch_add(k as u64, Ordering::Relaxed);
        if k == 0 {
            return Ok(());
        }
        // Passthrough: zero window disables coalescing; a lone query has
        // nobody to share with, and paying the window would only add
        // latency *and* break the bit-identity contract.
        if self.inner.config.window.is_zero() || self.in_flight() <= 1 {
            return self.ask_direct(o, a, k, out);
        }
        self.ask_coalesced(o, a, k, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrowdConfig, SimulatedCrowd, ValueSource};
    use disq_domain::{domains::pictures, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc as StdArc;

    fn crowd(seed: u64, cap: Option<Money>) -> SimulatedCrowd {
        let spec = StdArc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 100, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), cap, seed)
    }

    fn bmi() -> AttributeId {
        pictures::spec().id_of("Bmi").unwrap()
    }

    #[test]
    fn config_from_env_defaults_are_sane() {
        let c = BatcherConfig::default();
        assert_eq!(c.window, Duration::from_micros(DEFAULT_WINDOW_US));
        assert_eq!(c.max_batch, DEFAULT_BATCH_MAX);
        assert!(BatcherConfig::passthrough().window.is_zero());
    }

    /// With one query in flight the wrapped platform sees exactly the
    /// calls a bare platform would — answers are bit-identical.
    #[test]
    fn passthrough_is_bit_identical() {
        let a = bmi();
        let coalescer = CoalescingCrowd::new(crowd(7, None), BatcherConfig::default());
        let mut handle = coalescer.clone();
        let mut bare = crowd(7, None);
        let _guard = coalescer.begin_query();
        for i in 0..10 {
            let o = ObjectId(i % 4);
            let k = [1, 3, 8][i % 3];
            let mut got = Vec::new();
            handle.ask_values(o, a, k, &mut got).unwrap();
            let mut want = Vec::new();
            CrowdPlatform::ask_values(&mut bare, o, a, k, &mut want).unwrap();
            assert_eq!(got, want, "ask {i}");
        }
        assert_eq!(coalescer.spent(), bare.ledger().spent());
        let stats = coalescer.stats();
        assert_eq!(stats.coalesced_batches, 0);
        assert_eq!(stats.requested_questions, stats.asked_questions);
    }

    /// Zero-window config passes through even under concurrency.
    #[test]
    fn zero_window_never_coalesces() {
        let a = bmi();
        let coalescer = CoalescingCrowd::new(crowd(3, None), BatcherConfig::passthrough());
        let _g1 = coalescer.begin_query();
        let _g2 = coalescer.begin_query();
        let mut handle = coalescer.clone();
        let mut out = Vec::new();
        handle.ask_values(ObjectId(0), a, 4, &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(coalescer.stats().coalesced_batches, 0);
    }

    /// Concurrent same-cell requests share one platform batch: the
    /// platform is charged max(k) questions, not Σk, every requester
    /// gets its full answer count, and sharers see a common prefix.
    #[test]
    fn concurrent_same_cell_requests_share_a_batch() {
        let a = bmi();
        let config = BatcherConfig {
            window: Duration::from_millis(200),
            max_batch: 3,
        };
        let coalescer = CoalescingCrowd::new(crowd(11, None), config);
        let guards: Vec<_> = (0..3).map(|_| coalescer.begin_query()).collect();
        let results: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [5usize, 3, 5]
                .iter()
                .map(|&k| {
                    let mut h = coalescer.clone();
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        h.ask_values(ObjectId(0), a, k, &mut out).unwrap();
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(guards);
        assert_eq!(results[0].len(), 5);
        assert_eq!(results[1].len(), 3);
        assert_eq!(results[2].len(), 5);
        // All three shared the same answers: the k=3 result is a prefix
        // of both k=5 results, which are equal.
        assert_eq!(results[0], results[2]);
        assert_eq!(results[1], results[0][..3]);
        let stats = coalescer.stats();
        assert_eq!(stats.requested_questions, 13);
        assert_eq!(stats.asked_questions, 5, "one shared batch of max(k)");
        assert_eq!(stats.coalesced_batches, 1);
        assert_eq!(stats.saved_questions, 8);
        // The ledger agrees: only 5 numeric questions were charged.
        assert_eq!(coalescer.with_platform(|p| p.ledger().total_questions()), 5);
    }

    /// Saturation executes the batch before the window expires.
    #[test]
    fn saturated_batch_executes_early() {
        let a = bmi();
        let config = BatcherConfig {
            window: Duration::from_secs(30), // would time out the test
            max_batch: 2,
        };
        let coalescer = CoalescingCrowd::new(crowd(5, None), config);
        let _g1 = coalescer.begin_query();
        let _g2 = coalescer.begin_query();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let mut h = coalescer.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    h.ask_values(ObjectId(1), a, 2, &mut out).unwrap();
                    assert_eq!(out.len(), 2);
                });
            }
        });
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "batch must fire on saturation, not the 30s window"
        );
        assert_eq!(coalescer.stats().coalesced_batches, 1);
    }

    /// Different cells never share batches.
    #[test]
    fn distinct_cells_do_not_coalesce() {
        let a = bmi();
        let config = BatcherConfig {
            window: Duration::from_millis(30),
            max_batch: 8,
        };
        let coalescer = CoalescingCrowd::new(crowd(9, None), config);
        let _g1 = coalescer.begin_query();
        let _g2 = coalescer.begin_query();
        std::thread::scope(|scope| {
            for o in 0..2 {
                let mut h = coalescer.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    h.ask_values(ObjectId(o), a, 3, &mut out).unwrap();
                    assert_eq!(out.len(), 3);
                });
            }
        });
        let stats = coalescer.stats();
        assert_eq!(stats.coalesced_batches, 0);
        assert_eq!(stats.asked_questions, 6);
    }

    /// Budget exhaustion mid-batch: every sharer gets the same error and
    /// the answers collected before it, exactly like a direct ask.
    #[test]
    fn budget_error_propagates_to_all_sharers() {
        let a = bmi();
        // Numeric questions cost 0.4¢: 1.2¢ affords 3 answers.
        let coalescer = CoalescingCrowd::new(
            crowd(2, Some(Money::from_cents(1.2))),
            BatcherConfig {
                window: Duration::from_millis(200),
                max_batch: 2,
            },
        );
        let _g1 = coalescer.begin_query();
        let _g2 = coalescer.begin_query();
        let outcomes: Vec<(Vec<f64>, Result<(), CrowdError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let mut h = coalescer.clone();
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let res = h.ask_values(ObjectId(0), a, 5, &mut out);
                        (out, res)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (out, res) in &outcomes {
            assert!(matches!(res, Err(CrowdError::BudgetExhausted { .. })));
            assert_eq!(out.len(), 3, "partial answers survive");
        }
        assert_eq!(outcomes[0].0, outcomes[1].0);
    }

    /// A platform whose value questions panic.
    struct PanickingPlatform(crate::BudgetLedger);

    impl CrowdPlatform for PanickingPlatform {
        fn ask_value(&mut self, _: ObjectId, _: AttributeId) -> Result<f64, CrowdError> {
            panic!("platform failure");
        }
        fn ask_dismantle(&mut self, _: AttributeId) -> Result<String, CrowdError> {
            unreachable!()
        }
        fn ask_verify(&mut self, _: &str, _: AttributeId) -> Result<bool, CrowdError> {
            unreachable!()
        }
        fn ask_example(&mut self, _: &[AttributeId]) -> Result<(ObjectId, Vec<f64>), CrowdError> {
            unreachable!()
        }
        fn ledger(&self) -> &crate::BudgetLedger {
            &self.0
        }
    }

    /// A leader that panics inside the platform call must not strand
    /// its followers: every joiner of the shared batch returns (here by
    /// panicking) within a bounded time, and the cell stays usable.
    #[test]
    fn leader_panic_releases_every_joiner() {
        let joiners = 3;
        let coalescer = CoalescingCrowd::new(
            PanickingPlatform(crate::BudgetLedger::unlimited()),
            BatcherConfig {
                window: Duration::from_secs(30),
                max_batch: joiners,
            },
        );
        let guards: Vec<_> = (0..joiners).map(|_| coalescer.begin_query()).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..joiners {
            let mut h = coalescer.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    h.ask_values(ObjectId(0), AttributeId(0), 2, &mut Vec::new())
                }));
                tx.send(outcome.is_err()).unwrap();
            });
        }
        for i in 0..joiners {
            let panicked = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("joiner {i} of {joiners} never returned"));
            assert!(panicked, "a joiner got an answer from a panicking platform");
        }
        assert!(coalescer.inner.open.lock().unwrap().is_empty());
        drop(guards);
    }

    /// The query guard counter pairs increments with decrements.
    #[test]
    fn query_guards_track_in_flight() {
        let coalescer = CoalescingCrowd::new(crowd(1, None), BatcherConfig::default());
        assert_eq!(coalescer.in_flight(), 0);
        let g1 = coalescer.begin_query();
        let g2 = coalescer.begin_query();
        assert_eq!(coalescer.in_flight(), 2);
        drop(g1);
        assert_eq!(coalescer.in_flight(), 1);
        drop(g2);
        assert_eq!(coalescer.in_flight(), 0);
        assert_eq!(coalescer.stats().queries, 2);
    }
}
