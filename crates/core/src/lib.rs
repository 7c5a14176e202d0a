//! The DisQ algorithm (Laadan & Milo, EDBT 2015).
//!
//! Given a query whose attributes are missing from the database and hard
//! for the crowd to estimate directly, DisQ spends an offline
//! preprocessing budget `B_prc` to:
//!
//! 1. discover *related attributes* by asking the crowd to dismantle hard
//!    attributes into easier ones (and verifying each suggestion),
//! 2. collect the statistics trio `(S_o, S_a, S_c)` about everything
//!    discovered, from `k` cheap answers per example object,
//! 3. compute a per-object *budget distribution* `b` — how many of the
//!    `B_obj` online value questions go to each attribute (greedy forward
//!    selection of the Eq. 2 objective), and
//! 4. learn per-target *assembly regressions* `l` over a training set of
//!    `N₂ = 50 + 8·#attrs` examples.
//!
//! The output is an [`EvaluationPlan`] — the paper's formulas like
//! `Bmi ≈ 0.6·Bmi^(5) + 11.9·Heavy^(10) − 2.7·Attractive^(3) + …` — which
//! the online phase ([`online`]) executes per object.
//!
//! Entry point: [`preprocess`] (single- and multi-target; §4's pairing
//! rule and angular-distance `S_o` estimation included), then
//! [`online::estimate_objects`] / [`online::evaluate_query`].
//!
//! Every baseline of the paper's evaluation is expressible as a
//! [`DisqConfig`] variation; see `disq-baselines`.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // per-target index loops mirror the paper's notation

pub mod advisor;
pub mod components;
mod config;
mod discovered;
mod error;
pub mod metrics;
pub mod online;
mod plan;
pub mod plan_store;
mod preprocess;

#[cfg(test)]
mod proptests;

pub use config::{DisqConfig, EstimationPolicy, PairingPolicy, SelectionStrategy, Unification};
pub use discovered::{AttributePool, DiscoveredAttr, Resolution};
pub use error::DisqError;
pub use plan::{EvaluationPlan, PlannedAttribute, TargetRegression};
pub use plan_store::{output_from_json, output_to_json, PlanMeta, PlanStore, PLAN_DIR_ENV};
pub use preprocess::{preprocess, PreprocessOutput, PreprocessStats};
