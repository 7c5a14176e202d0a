//! Engines share the process-global flight recorder: the first engine
//! installs it, the last one to drop uninstalls it, and a recorder that
//! someone else installed is never replaced or removed.
//!
//! The recorder slot is process-global, so this binary holds a single
//! test.

use disq_serve::{Engine, ServeConfig};
use disq_trace::FlightRecorder;
use std::sync::Arc;

fn engine() -> Engine {
    Engine::new(ServeConfig {
        population: 40,
        seed: 3,
        default_objects: 4,
        ..ServeConfig::default()
    })
    .expect("engine")
}

fn installed() -> Arc<FlightRecorder> {
    disq_trace::recorder().expect("a flight recorder is installed")
}

#[test]
fn overlapping_engines_keep_the_recorder() {
    assert!(disq_trace::recorder().is_none());

    // A starts first and B overlaps it; A drops first.
    let a = engine();
    let rec = installed();
    let b = engine();
    assert!(Arc::ptr_eq(&installed(), &rec), "B shares A's recorder");
    drop(a);
    assert!(Arc::ptr_eq(&installed(), &rec), "B keeps the recorder");
    let before = rec.len();
    b.run_query("Bmi", None, None).expect("query");
    assert!(rec.len() > before, "B's query reaches the recorder");
    drop(b);
    assert!(
        disq_trace::recorder().is_none(),
        "the last engine uninstalls"
    );
    assert!(!disq_trace::active());

    // An engine that opts out neither installs nor holds a recorder.
    let quiet = Engine::new(ServeConfig {
        population: 40,
        flight_recorder: false,
        ..ServeConfig::default()
    })
    .expect("engine");
    assert!(disq_trace::recorder().is_none());
    let c = engine();
    let rec = installed();
    drop(quiet);
    assert!(Arc::ptr_eq(&installed(), &rec));
    drop(c);
    assert!(disq_trace::recorder().is_none());

    // Someone else's recorder outlives every engine.
    let mine = Arc::new(FlightRecorder::new());
    disq_trace::install_recorder(Arc::clone(&mine));
    let d = engine();
    let e = engine();
    assert!(Arc::ptr_eq(&installed(), &mine), "never replaced");
    drop(d);
    drop(e);
    assert!(Arc::ptr_eq(&installed(), &mine), "never removed");
    disq_trace::uninstall_recorder();

    // If that owner removes its recorder while an engine lives, a later
    // engine installs one again, and the last engine removes it.
    disq_trace::install_recorder(Arc::clone(&mine));
    let f = engine();
    disq_trace::uninstall_recorder();
    let g = engine();
    let rec = installed();
    assert!(!Arc::ptr_eq(&rec, &mine));
    drop(g);
    assert!(Arc::ptr_eq(&installed(), &rec), "F still holds a lease");
    drop(f);
    assert!(disq_trace::recorder().is_none());
}
