//! The traced run: per-layer metrics from outside the program.
//!
//! The run measures the workload twice for half the run length each:
//! once as the end-to-end run does (flight recorder on, no sink), then
//! with a `MemorySink` installed, folding the program's existing spans
//! into self times. It then times the benchmark's own calls into each
//! crate's public functions, with the sink still installed, and reads
//! the counters the program exposes. Nothing is added to the program.

use crate::stats;
use crate::workload::{sample_population, Session, Window};
use crate::{latency_pair, per, Metric};
use disq_core::{output_to_json, preprocess, DisqConfig, PlanMeta, PlanStore, PreprocessOutput};
use disq_crowd::{CrowdConfig, CrowdPlatform, PricingModel, SimulatedCrowd};
use disq_domain::{AttributeId, ObjectId};
use disq_serve::http::{self, Request};
use disq_serve::ReferenceSession;
use disq_trace::{Counter, MemorySink, RunSummary, Timer, TraceEvent};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall and self time of one span label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LabelTime {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children covered, ns.
    pub self_ns: u64,
}

struct OpenSpan {
    label: String,
    parent: Option<u64>,
    child_ns: u64,
    follow: bool,
}

/// Spans folded into per-label self times, plus the batcher's waits.
#[derive(Default)]
pub struct SpanFold {
    open: HashMap<u64, OpenSpan>,
    /// Times per span label.
    pub labels: HashMap<String, LabelTime>,
    /// `batch_wait` spans closed.
    pub waits: u64,
    /// Their summed duration, ns.
    pub wait_ns: u64,
    /// Waits whose batch had at least two joiners: every follower, and
    /// each leader whose flush reported `joiners >= 2`.
    pub useful_waits: u64,
    /// Threads whose last `batch_wait` was a leader's, awaiting the flush
    /// that follows it on the same thread.
    leading: HashSet<u64>,
}

fn joiners(detail: &str) -> Option<u64> {
    detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("joiners="))
        .and_then(|n| n.parse().ok())
}

impl SpanFold {
    /// Folds one event. Ends without a start (opened before the sink was
    /// installed) are skipped.
    pub fn feed(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::SpanStart {
                id,
                parent,
                tid,
                label,
                detail,
                ..
            } => {
                if label == "batch_flush"
                    && self.leading.remove(tid)
                    && joiners(detail).is_some_and(|j| j >= 2)
                {
                    self.useful_waits += 1;
                }
                self.open.insert(
                    *id,
                    OpenSpan {
                        label: label.clone(),
                        parent: *parent,
                        child_ns: 0,
                        follow: detail.ends_with("follow"),
                    },
                );
            }
            TraceEvent::SpanEnd {
                id, tid, dur_ns, ..
            } => {
                let Some(span) = self.open.remove(id) else {
                    return;
                };
                if let Some(parent) = span.parent.and_then(|p| self.open.get_mut(&p)) {
                    parent.child_ns += dur_ns;
                }
                if span.label == "batch_wait" {
                    self.waits += 1;
                    self.wait_ns += dur_ns;
                    if span.follow {
                        self.useful_waits += 1;
                    } else {
                        self.leading.insert(*tid);
                    }
                }
                let t = self.labels.entry(span.label).or_default();
                t.count += 1;
                t.total_ns += dur_ns;
                t.self_ns += dur_ns.saturating_sub(span.child_ns);
            }
            _ => {}
        }
    }

    fn self_ns(&self, labels: &[&str]) -> u64 {
        labels
            .iter()
            .filter_map(|l| self.labels.get(*l))
            .map(|t| t.self_ns)
            .sum()
    }
}

/// Drains an installed `MemorySink` every few milliseconds into a
/// [`SpanFold`], so a long traced window holds little memory.
struct Folder {
    sink: Arc<MemorySink>,
    fold: Arc<Mutex<SpanFold>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Folder {
    fn start() -> Folder {
        let sink = Arc::new(MemorySink::new());
        disq_trace::install(sink.clone());
        let fold = Arc::new(Mutex::new(SpanFold::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (sink, fold, stop) = (Arc::clone(&sink), Arc::clone(&fold), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(10));
                    drain(&sink, &fold);
                }
            })
        };
        Folder {
            sink,
            fold,
            stop,
            thread: Some(thread),
        }
    }

    /// Everything folded since the last call.
    fn take(&self) -> SpanFold {
        drain(&self.sink, &self.fold);
        std::mem::take(&mut *self.fold.lock().expect("fold lock"))
    }

    fn dropped(&self) -> u64 {
        self.sink.dropped()
    }
}

impl Drop for Folder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        disq_trace::uninstall();
    }
}

fn drain(sink: &MemorySink, fold: &Mutex<SpanFold>) {
    let events = sink.take();
    let mut fold = fold.lock().expect("fold lock");
    for e in &events {
        fold.feed(e);
    }
}

/// The daemon's per-attribute preprocessing seed: the master seed
/// rotated and mixed with the label by FNV-1a, as `disq-serve` seeds
/// each plan's crowd. The direct `preprocess` calls use it so they redo
/// the daemon's own plan computations (checked against the stored plans).
fn plan_seed(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).map_or(0.0, |q| q.value)
}

/// Direct calls per workload: enough for a stable median in well under
/// a second.
fn direct_requests(s: &Session) -> usize {
    (60_000 / s.objects).clamp(60, 1000)
}

/// Runs the traced measurement and returns every per-layer metric.
pub fn run(s: &mut Session, seconds: f64) -> Result<Vec<Metric>, String> {
    let half = seconds / 2.0;
    let untraced = s.measure(half)?;
    let folder = Folder::start();
    let traced = s.measure(half)?;
    let window_fold = folder.take();

    let mut out = Vec::new();
    serve_layer(s, &traced, &mut out)?;
    crowd_layer(s, &traced, &window_fold, &mut out)?;
    core_layers(s, &folder, &mut out)?;
    let dropped = folder.dropped();
    drop(folder);

    let cpu_ms = |w: &Window| w.cpu_ticks as f64 * 1e3 / crate::procfs::TICKS_PER_SECOND;
    let base = per(cpu_ms(&untraced), untraced.queries);
    out.push(Metric::new(
        "trace.events_per_query",
        "1/query",
        per(untraced.recorder_events as f64, untraced.queries),
        format!(
            "flight recorder intake over {} untraced queries",
            untraced.queries
        ),
    ));
    out.push(Metric::new(
        "trace.overhead_share",
        "1",
        if base > 0.0 { per(cpu_ms(&traced), traced.queries) / base - 1.0 } else { 0.0 },
        format!(
            "CPU per query with the MemorySink over without ({} vs {} queries; {dropped} events dropped)",
            traced.queries, untraced.queries
        ),
    ));
    out.push(Metric::new(
        "proc.cpu_ms_per_query",
        "ms",
        base,
        format!(
            "user+sys CPU of the process over {} untraced queries",
            untraced.queries
        ),
    ));
    Ok(out)
}

fn serve_layer(s: &mut Session, w: &Window, out: &mut Vec<Metric>) -> Result<(), String> {
    let reqs = s.sample_requests(direct_requests(s));
    let engine = Arc::clone(&s.daemon().engine);
    let mut conn = s.daemon().connect()?;
    let (mut handle_us, mut rtt_us, mut run_query_us) = (Vec::new(), Vec::new(), Vec::new());
    // Interleaved per request, so drift over the loop hits all three alike.
    for (a, body) in &reqs {
        let req = Request {
            method: "POST".into(),
            path: "/query".into(),
            body: body.clone().into_bytes(),
            close: false,
        };
        let t = Instant::now();
        let (resp, _) = http::handle(&engine, &req);
        handle_us.push(us(t));
        s.direct_result(resp.status == 200, || {
            format!("direct handle: status {}", resp.status)
        });

        let t = Instant::now();
        let reply = conn.post_query(body);
        rtt_us.push(us(t));
        s.direct_result(reply.as_ref().is_ok_and(|r| r.status == 200), || {
            "round trip failed".into()
        });

        let label = s.spec.attr(AttributeId(*a)).name.clone();
        let t = Instant::now();
        let r = engine.run_query(&label, None, Some(s.objects));
        run_query_us.push(us(t));
        let ok = r.as_ref().is_ok_and(|(q, _)| q.scanned == s.objects);
        s.direct_result(ok, || format!("direct run_query {label} failed"));
    }
    drop(conn);
    let what = "direct calls on the warm engine";
    out.extend(latency_pair(
        "serve.handle_us.p50",
        "serve.handle_us.p99",
        "us",
        &handle_us,
        what,
    ));
    out.push(Metric::new(
        "serve.wire_us.p50",
        "us",
        median(&rtt_us) - median(&handle_us),
        format!(
            "median client round trip minus median handle over the same {} requests",
            reqs.len()
        ),
    ));
    out.extend(latency_pair(
        "serve.run_query_us.p50",
        "serve.run_query_us.p99",
        "us",
        &run_query_us,
        what,
    ));
    let total = w.snap.plan_hits + w.snap.plan_misses;
    out.push(Metric::new(
        "serve.response_bytes",
        "bytes",
        per(w.response_bytes as f64, w.queries),
        format!("mean body over {} traced queries", w.queries),
    ));
    out.push(Metric::new(
        "serve.plan_hit_rate",
        "1",
        per(w.snap.plan_hits as f64, total),
        format!("{} hits of {total} plan lookups", w.snap.plan_hits),
    ));
    out.push(Metric::new(
        "serve.plan_disk_loads",
        "1/query",
        per(w.snap.plan_disk_loads as f64, w.queries),
        format!(
            "{} loads over {} queries",
            w.snap.plan_disk_loads, w.queries
        ),
    ));
    Ok(())
}

fn crowd_layer(
    s: &mut Session,
    w: &Window,
    fold: &SpanFold,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let q = w.queries;
    out.push(Metric::new(
        "crowd.requested_per_query",
        "1/query",
        per(w.snap.requested as f64, q),
        "questions asked of the batcher",
    ));
    out.push(Metric::new(
        "crowd.asked_per_query",
        "1/query",
        per(w.snap.asked as f64, q),
        "questions put to the platform",
    ));
    out.push(Metric::new(
        "crowd.saved_share",
        "1",
        per(w.snap.saved as f64, w.snap.requested),
        format!("{} saved of {} requested", w.snap.saved, w.snap.requested),
    ));
    out.push(Metric::new(
        "crowd.batch_waits_per_query",
        "1/query",
        per(fold.waits as f64, q),
        format!("{} batch_wait spans", fold.waits),
    ));
    out.push(Metric::new(
        "crowd.batch_wait_us_per_query",
        "us",
        per(fold.wait_ns as f64 / 1e3, q),
        "summed batch_wait duration",
    ));
    out.push(Metric::new(
        "crowd.useful_wait_share",
        "1",
        per(fold.useful_waits as f64, fold.waits),
        format!(
            "{} of {} waits in a batch of two or more",
            fold.useful_waits, fold.waits
        ),
    ));

    // The warm daemon's cells, asked of a crowd the benchmark owns.
    let pop = sample_population(&s.spec, s.config.population, s.config.seed)?;
    let mut crowd = SimulatedCrowd::new(pop, CrowdConfig::default(), None, s.config.seed);
    let plans = stored_plans(s)?;
    let mut answers = 0u64;
    let mut buf = Vec::new();
    let t = Instant::now();
    for (a, _) in s.sample_requests(direct_requests(s)) {
        for o in 0..s.objects {
            for p in &plans[&a].plan.attributes {
                buf.clear();
                crowd
                    .ask_values(ObjectId(o), p.attr, p.questions as usize, &mut buf)
                    .map_err(|e| format!("ask_values: {e}"))?;
                answers += buf.len() as u64;
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    out.push(Metric::new(
        "crowd.ask_ns_per_answer",
        "ns",
        per(ns, answers),
        format!("{answers} answers from SimulatedCrowd::ask_values"),
    ));
    Ok(())
}

/// The warm daemon's stored plans, by attribute index.
fn stored_plans(s: &Session) -> Result<HashMap<usize, PreprocessOutput>, String> {
    let store = PlanStore::new(s.config.plan_dir.clone().expect("plan dir"));
    s.attrs
        .iter()
        .map(|&a| {
            let label = &s.spec.attr(AttributeId(a)).name;
            store
                .load(s.spec.name(), label, s.config.seed)
                .map_err(|e| format!("plan store: {e}"))?
                .map(|p| (a, p))
                .ok_or_else(|| format!("no stored plan for {label}"))
        })
        .collect()
}

/// Preprocess span labels of each reported phase.
const PHASES: [(&str, &[&str]); 5] = [
    ("core.preprocess.examples_share", &["examples", "target"]),
    (
        "core.preprocess.dismantle_share",
        &["dismantle", "dismantle_round"],
    ),
    ("core.preprocess.refine_share", &["refine", "refine_round"]),
    ("core.preprocess.budget_dist_share", &["budget_dist"]),
    (
        "core.preprocess.regression_share",
        &["regression", "regression_fit"],
    ),
];

const QUESTION_KINDS: [(&str, Counter); 5] = [
    (
        "core.prep_questions_per_plan.binary",
        Counter::QuestionsBinary,
    ),
    (
        "core.prep_questions_per_plan.numeric",
        Counter::QuestionsNumeric,
    ),
    (
        "core.prep_questions_per_plan.dismantle",
        Counter::QuestionsDismantle,
    ),
    (
        "core.prep_questions_per_plan.verify",
        Counter::QuestionsVerify,
    ),
    (
        "core.prep_questions_per_plan.example",
        Counter::QuestionsExample,
    ),
];

fn core_layers(s: &mut Session, folder: &Folder, out: &mut Vec<Metric>) -> Result<(), String> {
    let reqs = s.sample_requests(direct_requests(s));
    let n_objects = (reqs.len() * s.objects) as f64;
    let mut reference = ReferenceSession::new(s.config.clone()).map_err(|e| e.message())?;
    for &a in &s.attrs {
        // Plans first, untimed: the timed calls measure evaluation only.
        reference
            .query(&s.spec.attr(AttributeId(a)).name, None, Some(1))
            .map_err(|e| e.message())?;
    }
    let t = Instant::now();
    for (a, _) in &reqs {
        reference
            .query(&s.spec.attr(AttributeId(*a)).name, None, Some(s.objects))
            .map_err(|e| e.message())?;
    }
    out.push(Metric::new(
        "core.evaluate_us_per_object",
        "us",
        us(t) / n_objects,
        format!("ReferenceSession::query over {n_objects} objects"),
    ));
    drop(reference);

    // Direct preprocess calls: the daemon's plan computations, redone.
    let _ = folder.take();
    let pop = sample_population(&s.spec, s.config.population, s.config.seed)?;
    let stored = stored_plans(s)?;
    let before = disq_trace::summary();
    let mut prep_ms = Vec::new();
    let mut outputs = Vec::new();
    for &a in &s.attrs {
        let label = s.spec.attr(AttributeId(a)).name.clone();
        let seed = plan_seed(s.config.seed, &label);
        let mut crowd = SimulatedCrowd::new(
            pop.clone(),
            CrowdConfig::default(),
            Some(s.config.b_prc),
            seed,
        );
        let t = Instant::now();
        let output = preprocess(
            &mut crowd,
            &s.spec,
            &[AttributeId(a)],
            s.config.b_obj,
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            seed,
        )
        .map_err(|e| format!("preprocess {label}: {e}"))?;
        prep_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let meta = PlanMeta {
            domain: s.spec.name().to_string(),
            attribute: label.clone(),
            seed: s.config.seed,
        };
        if output_to_json(&output, &meta) != output_to_json(&stored[&a], &meta) {
            println!("note: direct preprocess of {label} differs from the daemon's stored plan");
        }
        outputs.push((output, meta));
    }
    let d = disq_trace::summary().delta_since(&before);
    let fold = folder.take();
    let plans = outputs.len() as u64;
    out.push(Metric::new(
        "core.preprocess_ms",
        "ms",
        median(&prep_ms),
        format!("median of {plans} direct preprocess calls"),
    ));
    let total = fold.labels.get("preprocess").map_or(0, |t| t.total_ns) as f64;
    for (name, labels) in PHASES {
        out.push(Metric::new(
            name,
            "1",
            if total > 0.0 {
                fold.self_ns(labels) as f64 / total
            } else {
                0.0
            },
            format!("self time of {labels:?} over preprocess span time"),
        ));
    }
    for (name, c) in QUESTION_KINDS {
        out.push(Metric::new(
            name,
            "1/plan",
            per(d.counter(c) as f64, plans),
            "counter delta",
        ));
    }

    let store = PlanStore::new(
        s.config
            .plan_dir
            .as_ref()
            .expect("plan dir")
            .with_file_name("direct-plans"),
    );
    let (mut save_us, mut load_us, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for (output, meta) in &outputs {
        let t = Instant::now();
        let path = store
            .save(output, meta)
            .map_err(|e| format!("plan save: {e}"))?;
        save_us.push(us(t));
        bytes += std::fs::metadata(&path)
            .map_err(|e| format!("plan size: {e}"))?
            .len();
        let t = Instant::now();
        let loaded = store.load(&meta.domain, &meta.attribute, meta.seed);
        load_us.push(us(t));
        if !matches!(loaded, Ok(Some(_))) {
            return Err(format!(
                "plan store round trip failed for {}",
                meta.attribute
            ));
        }
    }
    out.push(Metric::new(
        "core.plan_store.save_us",
        "us",
        median(&save_us),
        "median PlanStore::save",
    ));
    out.push(Metric::new(
        "core.plan_store.load_us",
        "us",
        median(&load_us),
        "median PlanStore::load",
    ));
    out.push(Metric::new(
        "core.plan_bytes",
        "bytes",
        per(bytes as f64, plans),
        "mean stored plan size",
    ));
    stats_and_math(&d, plans, out);

    let mut sample_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(sample_population(
            &s.spec,
            s.config.population,
            s.config.seed,
        )?);
        sample_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(Metric::new(
        "domain.sample_ms",
        "ms",
        median(&sample_ms),
        format!(
            "median of 5 Population::sample at {} objects",
            s.config.population
        ),
    ));
    Ok(())
}

fn stats_and_math(d: &RunSummary, plans: u64, out: &mut Vec<Metric>) {
    out.push(Metric::new(
        "stats.probe_cache_hits_per_plan",
        "1/plan",
        per(d.counter(Counter::ProbeCacheHits) as f64, plans),
        "counter delta",
    ));
    out.push(Metric::new(
        "stats.solver_fallbacks",
        "count",
        d.counter(Counter::SolverFallbacks) as f64,
        format!("over {plans} plans"),
    ));
    for (name, timer) in [
        ("stats.candidate_score_ns", Timer::CandidateScore),
        ("math.quadform_solve_ns", Timer::QuadFormSolve),
        ("math.cholesky_ns", Timer::CholeskyFactorize),
        ("math.rank1_update_ns", Timer::Rank1Update),
    ] {
        let t = d.timer(timer);
        out.push(Metric::new(
            name,
            "ns",
            t.mean_ns(),
            format!("mean of {} timed calls", t.count),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, tid: u64, label: &str, detail: &str) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent,
            tid,
            req: 0,
            label: label.into(),
            detail: detail.into(),
        }
    }

    fn end(id: u64, tid: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent::SpanEnd {
            id,
            tid,
            dur_ns,
            alloc_bytes: 0,
            allocs: 0,
            questions: 0,
            kernel_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut f = SpanFold::default();
        for e in [
            start(1, None, 1, "preprocess", ""),
            start(2, Some(1), 1, "dismantle", ""),
            start(3, Some(2), 1, "budget_dist", ""),
            end(3, 1, 30),
            end(2, 1, 100),
            end(1, 1, 150),
            end(99, 1, 7), // start never seen
        ] {
            f.feed(&e);
        }
        assert_eq!(
            f.labels["preprocess"],
            LabelTime {
                count: 1,
                total_ns: 150,
                self_ns: 50
            }
        );
        assert_eq!(f.labels["dismantle"].self_ns, 70);
        assert_eq!(f.labels["budget_dist"].self_ns, 30);
        assert_eq!(f.self_ns(&["dismantle", "budget_dist"]), 100);
        assert_eq!(f.labels.len(), 3);
    }

    #[test]
    fn waits_are_useful_when_their_batch_is_shared() {
        let mut f = SpanFold::default();
        for e in [
            // Thread 1 leads a batch two requests share.
            start(1, None, 1, "batch_wait", "o=0 a=1 k=3 lead"),
            start(2, None, 2, "batch_wait", "o=0 a=1 k=2 follow"),
            end(1, 1, 200),
            start(3, None, 1, "batch_flush", "o=0 a=1 k_max=3 joiners=2"),
            end(3, 1, 10),
            end(2, 2, 220),
            // Thread 1 leads a batch nobody joins.
            start(4, None, 1, "batch_wait", "o=1 a=1 k=3 lead"),
            end(4, 1, 200),
            start(5, None, 1, "batch_flush", "o=1 a=1 k_max=3 joiners=1"),
            end(5, 1, 10),
        ] {
            f.feed(&e);
        }
        assert_eq!((f.waits, f.wait_ns, f.useful_waits), (3, 620, 2));
    }

    #[test]
    fn plan_seed_mixes_label_and_seed() {
        assert_ne!(plan_seed(42, "Bmi"), plan_seed(42, "Age"));
        assert_ne!(plan_seed(42, "Bmi"), plan_seed(43, "Bmi"));
    }
}
