//! The fast-path gate agrees with the destination slot under concurrent
//! installs and uninstalls: once every change has returned, `active()`
//! is true exactly when a sink or a flight recorder is installed.
//!
//! The slot is process-global, so this binary holds a single test.

use disq_trace::{FlightRecorder, MemorySink, TraceSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const ROUNDS: usize = 4_000;
/// Install/uninstall pairs the installer runs before its final install.
const TOGGLES: usize = 8;

#[test]
fn gate_matches_the_slot_after_racing_changes() {
    let sink: Arc<dyn TraceSink> = Arc::new(MemorySink::new());
    let rec = Arc::new(FlightRecorder::new());
    // Each round starts with an empty slot. The installer toggles one
    // destination and leaves it installed; meanwhile the remover keeps
    // emptying the other, already empty, destination until the installer
    // is done. Even rounds toggle the recorder, odd rounds the sink.
    let start = Arc::new(Barrier::new(3));
    let end = Arc::new(Barrier::new(3));
    let installed = Arc::new(AtomicBool::new(false));

    let installer = {
        let (start, end, installed) = (start.clone(), end.clone(), installed.clone());
        let (sink, rec) = (sink.clone(), rec.clone());
        thread::spawn(move || {
            for round in 0..ROUNDS {
                start.wait();
                for _ in 0..TOGGLES {
                    if round % 2 == 0 {
                        disq_trace::install_recorder(rec.clone());
                        disq_trace::uninstall_recorder();
                    } else {
                        disq_trace::install(sink.clone());
                        disq_trace::uninstall();
                    }
                }
                if round % 2 == 0 {
                    disq_trace::install_recorder(rec.clone());
                } else {
                    disq_trace::install(sink.clone());
                }
                installed.store(true, Ordering::SeqCst);
                end.wait();
            }
        })
    };
    let remover = {
        let (start, end, installed) = (start.clone(), end.clone(), installed.clone());
        thread::spawn(move || {
            for round in 0..ROUNDS {
                start.wait();
                loop {
                    if round % 2 == 0 {
                        disq_trace::uninstall();
                    } else {
                        disq_trace::uninstall_recorder();
                    }
                    if installed.load(Ordering::SeqCst) {
                        break;
                    }
                }
                end.wait();
            }
        })
    };

    let mut dark = Vec::new();
    for round in 0..ROUNDS {
        installed.store(false, Ordering::SeqCst);
        start.wait();
        end.wait();
        let on = disq_trace::active();
        let had_sink = disq_trace::uninstall().is_some();
        let had_rec = disq_trace::uninstall_recorder().is_some();
        assert!(
            had_sink != had_rec,
            "round {round}: one destination remains"
        );
        if !on {
            dark.push(round);
        }
        assert!(!disq_trace::active(), "round {round}: empty slot, gate off");
    }
    installer.join().unwrap();
    remover.join().unwrap();
    assert!(
        dark.is_empty(),
        "{} of {ROUNDS} rounds left a destination installed with tracing off \
         (first: round {})",
        dark.len(),
        dark[0]
    );
}
