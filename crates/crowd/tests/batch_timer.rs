//! Batched value questions are timed per batch, not per answer: one
//! `ask_values(o, a, k)` adds exactly `k` samples to
//! `Timer::CrowdQuestion`, and the enclosing span still sees the `k`
//! questions and the batch's crowd time.
//!
//! The timer registry and the trace sink are process-global, so these
//! tests live in their own binary and serialize on one lock.

use disq_crowd::{CrowdConfig, CrowdError, CrowdPlatform, Money, SimulatedCrowd};
use disq_domain::{domains::pictures, ObjectId, Population};
use disq_trace::{MemorySink, Timer, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn crowd(cap: Option<Money>) -> SimulatedCrowd {
    let spec = Arc::new(pictures::spec());
    let mut rng = StdRng::seed_from_u64(0);
    let pop = Population::sample(spec, 50, &mut rng).unwrap();
    SimulatedCrowd::new(pop, CrowdConfig::default(), cap, 7)
}

/// Runs `f` inside a span under an installed `MemorySink`; returns the
/// `CrowdQuestion` sample count it added and the span's
/// `(questions, kernel_ns)`.
fn traced(f: impl FnOnce()) -> (u64, (u64, u64)) {
    let _lock = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sink = Arc::new(MemorySink::new());
    disq_trace::install(sink.clone());
    let before = disq_trace::summary();
    {
        let _span = disq_trace::span!("batch");
        f();
    }
    let count = disq_trace::summary()
        .delta_since(&before)
        .timer(Timer::CrowdQuestion)
        .count;
    disq_trace::uninstall();
    let end = sink
        .take()
        .into_iter()
        .find_map(|e| match e {
            TraceEvent::SpanEnd {
                questions,
                kernel_ns,
                ..
            } => Some((questions, kernel_ns)),
            _ => None,
        })
        .expect("span_end emitted");
    (count, end)
}

#[test]
fn one_batch_adds_k_samples_and_its_time_to_the_span() {
    let mut c = crowd(None);
    let bmi = c.population().spec().id_of("Bmi").unwrap();
    let k = 9;
    let mut out = Vec::new();
    let (count, (questions, kernel_ns)) = traced(|| {
        CrowdPlatform::ask_values(&mut c, ObjectId(3), bmi, k, &mut out).unwrap();
    });
    assert_eq!(out.len(), k);
    assert_eq!(count, k as u64);
    assert_eq!(questions, k as u64);
    assert!(kernel_ns > 0, "the batch's crowd time reaches the span");
}

#[test]
fn a_batch_that_runs_dry_counts_every_charge_attempt() {
    // Numeric values cost 0.4¢: a 1.2¢ cap affords exactly 3 of 5, and
    // the fourth charge attempt fails.
    let mut c = crowd(Some(Money::from_cents(1.2)));
    let bmi = c.population().spec().id_of("Bmi").unwrap();
    let mut out = Vec::new();
    let mut err = None;
    let (count, (questions, _)) = traced(|| {
        err = CrowdPlatform::ask_values(&mut c, ObjectId(3), bmi, 5, &mut out).err();
    });
    assert!(matches!(err, Some(CrowdError::BudgetExhausted { .. })));
    assert_eq!(out.len(), 3);
    assert_eq!(questions, 3, "only charged questions count as asked");
    assert_eq!(count, 4, "three charges plus the failed attempt");
}

#[test]
fn an_untraced_batch_records_no_samples() {
    let mut c = crowd(None);
    let bmi = c.population().spec().id_of("Bmi").unwrap();
    let _lock = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    disq_trace::uninstall();
    let before = disq_trace::summary();
    let mut out = Vec::new();
    CrowdPlatform::ask_values(&mut c, ObjectId(3), bmi, 4, &mut out).unwrap();
    let delta = disq_trace::summary().delta_since(&before);
    assert_eq!(delta.timer(Timer::CrowdQuestion).count, 0);
}
