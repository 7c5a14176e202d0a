//! Batch vs streaming statistics engine selection.
//!
//! The trio-construction covariances ([`super::statistics`]) can be
//! computed by the legacy two-pass batch formulas
//! ([`disq_stats::covariance`]/[`disq_stats::sample_variance`]) or by the
//! one-pass streaming co-moment accumulator
//! ([`disq_stats::CoMomentMatrix`], the engine the million-object scale
//! path uses everywhere). The two agree to floating-point round-off —
//! every *decision* downstream (dismantle choices, SPRT verdicts, greedy
//! budget grants) integerizes the scores, so the experiment tables are
//! byte-identical under either engine (proved by
//! `tests/stats_engines.rs` at the workspace root, the same contract the
//! budget-distribution engines honor).
//!
//! Production always runs [`StatsEngine::Stream`]. Tests substitute the
//! batch reference per thread via [`with_stats_engine`].

use disq_stats::{covariance, sample_variance, streaming_covariance, streaming_variance};
use std::cell::Cell;

/// Which implementation computes trio-construction statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsEngine {
    /// Two-pass batch formulas (legacy reference path).
    Batch,
    /// One-pass streaming co-moment accumulation (default).
    Stream,
}

thread_local! {
    static ENGINE_OVERRIDE: Cell<Option<StatsEngine>> = const { Cell::new(None) };
}

/// The engine in effect on this thread: the [`with_stats_engine`]
/// override if inside one, else [`StatsEngine::Stream`].
pub fn current_stats_engine() -> StatsEngine {
    ENGINE_OVERRIDE
        .with(|c| c.get())
        .unwrap_or(StatsEngine::Stream)
}

/// Runs `f` with `engine` forced on the current thread (restored on exit,
/// including by panic). Thread-local: does not propagate into worker
/// threads spawned inside `f`.
pub fn with_stats_engine<T>(engine: StatsEngine, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<StatsEngine>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = ENGINE_OVERRIDE.with(|c| c.replace(Some(engine)));
    let _restore = Restore(prev);
    f()
}

/// Covariance under the current engine.
pub(crate) fn engine_covariance(xs: &[f64], ys: &[f64]) -> f64 {
    match current_stats_engine() {
        StatsEngine::Batch => covariance(xs, ys),
        StatsEngine::Stream => streaming_covariance(xs, ys),
    }
}

/// Sample variance under the current engine.
pub(crate) fn engine_variance(xs: &[f64]) -> f64 {
    match current_stats_engine() {
        StatsEngine::Batch => sample_variance(xs),
        StatsEngine::Stream => streaming_variance(xs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_scopes_and_restores() {
        let base = current_stats_engine();
        let inner = with_stats_engine(StatsEngine::Batch, current_stats_engine);
        assert_eq!(inner, StatsEngine::Batch);
        let nested = with_stats_engine(StatsEngine::Batch, || {
            with_stats_engine(StatsEngine::Stream, current_stats_engine)
        });
        assert_eq!(nested, StatsEngine::Stream);
        assert_eq!(current_stats_engine(), base);
    }

    #[test]
    fn engines_agree_to_roundoff() {
        let xs = [1.0, 2.5, 3.0, 5.5, 8.0, 2.0];
        let ys = [2.0, 1.0, 4.5, 4.0, 9.0, -1.0];
        let b = with_stats_engine(StatsEngine::Batch, || engine_covariance(&xs, &ys));
        let s = with_stats_engine(StatsEngine::Stream, || engine_covariance(&xs, &ys));
        assert!((b - s).abs() < 1e-12, "batch {b} vs stream {s}");
        let bv = with_stats_engine(StatsEngine::Batch, || engine_variance(&xs));
        let sv = with_stats_engine(StatsEngine::Stream, || engine_variance(&xs));
        assert!((bv - sv).abs() < 1e-12);
    }
}
