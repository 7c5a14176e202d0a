//! `BudgetLedger::charge_up_to` moves the process-global question and
//! spend counters, and open spans' question attribution, by exactly what
//! a loop of `charge` stopping at the first refusal moves them.
//!
//! The counters are process-global, so this binary holds a single test.

use disq_crowd::{BudgetLedger, Money, QuestionKind};
use disq_trace::{Counter, MemorySink, RunSummary};
use std::sync::Arc;

const COUNTERS: [Counter; 6] = [
    Counter::QuestionsBinary,
    Counter::QuestionsNumeric,
    Counter::QuestionsDismantle,
    Counter::QuestionsVerify,
    Counter::QuestionsExample,
    Counter::SpendMillicents,
];

/// The counter deltas and span-attributed questions `f` causes.
fn moved(f: impl FnOnce()) -> (Vec<u64>, u64) {
    let before = disq_trace::summary();
    let questions = disq_trace::span::thread_questions();
    f();
    let delta: RunSummary = disq_trace::summary().delta_since(&before);
    (
        COUNTERS.iter().map(|&c| delta.counter(c)).collect(),
        disq_trace::span::thread_questions() - questions,
    )
}

#[test]
fn batched_charges_move_the_counters_like_a_charge_loop() {
    // Span question attribution ticks only while tracing is active.
    disq_trace::install(Arc::new(MemorySink::new()));
    let cases = [
        // (cap in millicents, kind, price in millicents, k)
        (None, QuestionKind::NumericValue, 400, 7),
        (Some(1_200), QuestionKind::NumericValue, 400, 5),
        (Some(1_000), QuestionKind::BinaryValue, 100, 10),
        (Some(999), QuestionKind::BinaryValue, 100, 12),
        (Some(50), QuestionKind::Verify, 100, 3),
        (Some(0), QuestionKind::Example, 0, 4),
        (Some(300), QuestionKind::Dismantle, 1_500, 0),
    ];
    for (cap, kind, price, k) in cases {
        let ledger = match cap {
            Some(mc) => BudgetLedger::with_cap(Money::from_millicents(mc)),
            None => BudgetLedger::unlimited(),
        };
        let price = Money::from_millicents(price);
        let mut looped = ledger.clone();
        let want = moved(|| {
            for _ in 0..k {
                if looped.charge(kind, price).is_err() {
                    break;
                }
            }
        });
        let mut batched = ledger;
        let got = moved(|| {
            batched.charge_up_to(kind, price, k);
        });
        assert_eq!(got, want, "cap {cap:?}, {kind:?} at {price}, k {k}");
        assert_eq!(batched.snapshot(), looped.snapshot());
    }
    disq_trace::uninstall();
}
