//! A warm query's span count does not grow with the objects it scans:
//! the online sweep is bracketed by a fixed set of spans and opens none
//! per object.
//!
//! The flight recorder is process-global, so this binary holds a single
//! test.

use disq_serve::{Engine, ServeConfig};
use disq_trace::TraceEvent;

/// Runs one query over `objects` objects under a fresh request id and
/// returns the labels of the spans it opened, as the recorder saw them.
fn span_labels(engine: &Engine, objects: usize) -> Vec<String> {
    let req = disq_trace::span::next_request_id();
    {
        let _scope = disq_trace::span::enter_request(req);
        let (result, _) = engine.run_query("Bmi", None, Some(objects)).expect("query");
        assert_eq!(result.scanned, objects);
    }
    disq_trace::recorder()
        .expect("the engine installed a flight recorder")
        .slice_for_request(req)
        .into_iter()
        .filter_map(|(_, event)| match event {
            TraceEvent::SpanStart { label, .. } => Some(label),
            _ => None,
        })
        .collect()
}

#[test]
fn span_count_per_query_does_not_depend_on_the_scan_size() {
    let engine = Engine::new(ServeConfig {
        population: 500,
        seed: 3,
        ..ServeConfig::default()
    })
    .expect("engine");
    // The first query computes the plan; the measured ones reuse it.
    span_labels(&engine, 50);

    let small = span_labels(&engine, 50);
    let large = span_labels(&engine, 500);
    assert!(
        small.iter().any(|l| l == "evaluate_query"),
        "the sweep is still bracketed: {small:?}"
    );
    let per_object = large.iter().filter(|l| *l == "object").count();
    assert_eq!(per_object, 0, "spans labelled `object` at 500 objects");
    assert_eq!(
        small.len(),
        large.len(),
        "span_start count per query at 50 objects vs at 500"
    );
}
