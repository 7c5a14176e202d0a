//! The flight recorder and a trace sink installed side by side see the
//! same events in the same order: the emit path builds each event once,
//! shows it to the sink by reference and moves it into the recorder's
//! ring. Span edges stamp the recorder with the clock reading the span
//! itself takes, so every `span_end` is stamped no earlier than its
//! `span_start`.
//!
//! The sink and recorder slots are process-global, so this binary holds
//! a single test.

use disq_serve::{Engine, ServeConfig};
use disq_trace::{MemorySink, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn recorder_snapshot_equals_sink_events_over_one_query() {
    let engine = Engine::new(ServeConfig {
        population: 60,
        seed: 5,
        default_objects: 8,
        ..ServeConfig::default()
    })
    .expect("engine");
    let rec = disq_trace::recorder().expect("the engine installs a flight recorder");
    let already = rec.len();
    let sink = Arc::new(MemorySink::new());
    disq_trace::install(sink.clone());
    engine
        .run_query("Bmi", None, Some(8))
        .expect("query answers");
    disq_trace::uninstall();

    let sunk = sink.take();
    let recorded = rec.snapshot();
    assert_eq!(rec.evicted(), 0, "the ring must hold the whole query");
    let ring_events: Vec<&TraceEvent> = recorded[already..].iter().map(|(_, e)| e).collect();
    assert!(
        sunk.iter().any(|e| e.name() == "span_start"),
        "the query emits spans"
    );
    assert_eq!(ring_events.len(), sunk.len());
    for (i, (r, s)) in ring_events.iter().zip(&sunk).enumerate() {
        assert_eq!(*r, s, "event {i} differs between recorder and sink");
    }

    let mut started = HashMap::new();
    let mut ends = 0;
    for (t_us, event) in &recorded[already..] {
        match event {
            TraceEvent::SpanStart { id, .. } => {
                started.insert(*id, *t_us);
            }
            TraceEvent::SpanEnd { id, .. } => {
                let start = started[id];
                assert!(
                    *t_us >= start,
                    "span {id} ends at {t_us} µs before it starts at {start} µs"
                );
                ends += 1;
            }
            _ => {}
        }
    }
    assert_eq!(ends, started.len(), "every span closed");
}
