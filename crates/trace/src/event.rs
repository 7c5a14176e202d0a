//! The typed event taxonomy and its JSONL encoding.
//!
//! One [`TraceEvent`] is one line of a trace: a decision or phase
//! transition the DisQ pipeline took. Events serialize to single-line
//! JSON objects tagged `"event"` and parse back exactly (floats use
//! Rust's shortest round-trip formatting; non-finite values encode as
//! `null` and decode as NaN).
//!
//! The whole wire format is the one table in the `wire_format!`
//! invocation below: each entry declares a variant's tag and its fields
//! in wire order, and the macro emits the types, [`TraceEvent::name`],
//! the writer and the parser from it. A field's JSON key is its Rust
//! name; how a value is written and read is decided once per field type
//! by `Field`. Adding an event or a field is one table edit.

use crate::json::{self, write_f64, write_str, Json};
use std::fmt::Write as _;

/// How one field type is written into an event line and read back.
trait Field: Sized {
    /// Appends the value's JSON encoding to `out`.
    fn write(&self, out: &mut String);
    /// Decodes a present value; the error says what was expected.
    fn read(v: &Json) -> Result<Self, String>;
}

/// Implements [`Field`] for a type from its writer and its reader.
macro_rules! fields {
    ($($t:ty => $write:expr, $read:expr;)*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                $write(out, self)
            }
            fn read(v: &Json) -> Result<Self, String> {
                $read(v).ok_or_else(|| concat!("expected ", stringify!($t)).to_string())
            }
        }
    )*};
}

fn write_display(out: &mut String, v: &impl std::fmt::Display) {
    let _ = write!(out, "{v}");
}

fields! {
    u64 => write_display, Json::as_u64;
    u32 => write_display, |v: &Json| v.as_u64().and_then(|n| u32::try_from(n).ok());
    i64 => write_display, Json::as_i64;
    bool => write_display, Json::as_bool;
    String => |out, s: &String| write_str(out, s), |v: &Json| v.as_str().map(str::to_string);
    // Non-finite values write as `null`, and `null` reads as NaN.
    f64 => |out, x: &f64| write_f64(out, *x), Json::as_f64;
}

/// Always written: `None` is `null`. (Only integer payloads are used;
/// an `f64` payload would be ambiguous with the NaN encoding.)
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
    fn read(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("expected an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// Appends `<sep>"key":value` and makes `sep` a comma, unless the value
/// equals the field's declared default.
fn put<T: Field + PartialEq>(
    out: &mut String,
    sep: &mut char,
    key: &str,
    value: &T,
    default: Option<T>,
) {
    if default.as_ref() == Some(value) {
        return;
    }
    out.push(*sep);
    *sep = ',';
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    value.write(out);
}

/// Reads field `key` of an object; only a field with a declared default
/// may be absent.
fn get<T: Field>(obj: &Json, key: &str, default: Option<T>) -> Result<T, String> {
    match (obj.get(key), default) {
        (Some(v), _) => T::read(v).map_err(|e| format!("{key:?}: {e}")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("missing {key:?}")),
    }
}

/// Generates the event enum, the records nested in its events and their
/// JSON codec from one table. Fields are listed in wire order. A field
/// written `name: Type = default` is omitted from the line when it
/// equals `default` and reads as `default` when absent.
macro_rules! wire_format {
    (
        $(#[$emeta:meta])*
        enum $E:ident {
            $(
                $(#[$vmeta:meta])*
                $V:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $f:ident: $fty:ty $(= $default:expr)?, )*
                },
            )*
        }
        $(
            $(#[$smeta:meta])*
            struct $S:ident {
                $( $(#[$sfmeta:meta])* $sf:ident: $sty:ty, )*
            }
        )*
    ) => {
        $(
            $(#[$smeta])*
            #[derive(Debug, Clone, PartialEq)]
            pub struct $S {
                $( $(#[$sfmeta])* pub $sf: $sty, )*
            }

            impl Field for $S {
                fn write(&self, out: &mut String) {
                    let mut sep = '{';
                    $( put(out, &mut sep, stringify!($sf), &self.$sf, None); )*
                    out.push('}');
                }
                fn read(v: &Json) -> Result<Self, String> {
                    Ok($S { $( $sf: get(v, stringify!($sf), None)?, )* })
                }
            }
        )*

        $(#[$emeta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $E {
            $(
                $(#[$vmeta])*
                $V { $( $(#[$fmeta])* $f: $fty, )* },
            )*
        }

        impl $E {
            /// The `"event"` tag of the JSON encoding.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $E::$V { .. } => $tag, )*
                }
            }

            /// Serializes to one line of JSON (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut s = String::from("{\"event\":");
                write_str(&mut s, self.name());
                let mut sep = ',';
                match self {
                    $( $E::$V { $($f),* } => {
                        $( put(&mut s, &mut sep, stringify!($f), $f, None $(.or(Some($default)))?); )*
                    } )*
                }
                s.push('}');
                s
            }

            /// Parses one JSONL line back into an event. Unknown object
            /// keys (e.g. the `t_us` timestamp the JSONL sink splices in)
            /// are ignored.
            pub fn parse(line: &str) -> Result<$E, String> {
                let v = json::parse(line)?;
                $E::from_json(&v)
            }

            /// Decodes an already-parsed JSON object into an event (the
            /// working half of [`TraceEvent::parse`];
            /// [`crate::TraceReader`] calls this directly so it can also
            /// read the line's timestamp).
            pub fn from_json(v: &Json) -> Result<$E, String> {
                let tag = v
                    .get("event")
                    .and_then(Json::as_str)
                    .ok_or("missing \"event\" tag")?;
                let event = match tag {
                    $( $tag => (|| -> Result<$E, String> {
                        Ok($E::$V { $( $f: get(v, stringify!($f), None $(.or(Some($default)))?)?, )* })
                    })(), )*
                    other => return Err(format!("unknown event tag {other:?}")),
                };
                event.map_err(|e| format!("{tag}: {e}"))
            }
        }
    };
}

wire_format! {
    /// One structured trace record.
    enum TraceEvent {
        /// A preprocessing run began.
        RunStart = "run_start" {
            /// Free-form run label (domain / query description).
            label: String,
            /// The algorithm seed.
            seed: u64,
        },
        /// A `B_prc` phase boundary: ledger delta since the previous boundary.
        PhaseSpend = "phase_spend" {
            /// Phase that just ended (`examples`, `dismantle`, `refine`,
            /// `regression`).
            phase: String,
            /// Cumulative ledger spend at the boundary, in milli-cents.
            spent_millicents: i64,
            /// Spend attributable to this phase, in milli-cents.
            delta_millicents: i64,
            /// Questions asked during this phase.
            delta_questions: u64,
            /// Non-zero per-kind breakdown of the delta.
            by_kind: Vec<KindSpend>,
        },
        /// One `GetNextAttribute` decision with every candidate's score.
        DismantleChoice = "dismantle_choice" {
            /// Chosen pool index, or `None` when no candidate had positive
            /// expected value (a stopping signal).
            chosen: Option<u32>,
            /// Scores of all scored candidates (empty under the `Random`
            /// strategy, which skips scoring).
            scores: Vec<CandidateScore>,
        },
        /// An SPRT verification dialogue concluded.
        SprtVerdict = "sprt_verdict" {
            /// The crowd-suggested attribute text under verification.
            candidate: String,
            /// Pool attribute it was suggested for (raw attribute id).
            parent: u32,
            /// `true` = accepted as relevant.
            accepted: bool,
            /// Worker answers the test consumed before deciding.
            samples: u32,
        },
        /// Statistics-trio growth after an attribute was measured.
        TrioSize = "trio_size" {
            /// Query targets tracked.
            n_targets: u32,
            /// Attributes currently in the trio.
            n_attrs: u32,
        },
        /// One grant of the greedy budget-distribution loop.
        BudgetStep = "budget_step" {
            /// Which top-level distribution call this belongs to (`main`,
            /// `refine`, `fallback`).
            label: String,
            /// Pool index granted one more question.
            attr: u32,
            /// That attribute's question count after the grant.
            question: u32,
            /// Objective value after the grant.
            objective: f64,
        },
        /// A finished greedy budget distribution.
        BudgetChosen = "budget_chosen" {
            /// Same labels as [`TraceEvent::BudgetStep`].
            label: String,
            /// Final questions per pool attribute.
            allocation: Vec<u32>,
            /// Final objective value.
            objective: f64,
        },
        /// A per-target regression was fitted.
        RegressionFit = "regression_fit" {
            /// Target index within the plan.
            target: u32,
            /// Target label.
            label: String,
            /// Realized training MSE (the plan-validation residual).
            training_mse: f64,
            /// Training rows the fit used.
            rows: u32,
        },
        /// The online spam filter rejected an entire answer batch and the
        /// estimator fell back to the unfiltered answers.
        SpamFallback = "spam_fallback" {
            /// Object being estimated.
            object: u64,
            /// Attribute whose batch was wiped (raw attribute id).
            attr: u32,
            /// Batch size that was entirely rejected.
            answers: u32,
        },
        /// The incremental (Sherman–Morrison) budget-distribution engine
        /// hit a numerical breakdown and the call restarted on the dense
        /// refactorize-per-candidate engine. Rare by construction — it fires
        /// exactly where the dense engine's jitter rescue ladder would.
        SolverFallback = "solver_fallback" {
            /// Which solve fell back: a top-level distribution label
            /// (`main`, `refine`, `fallback`) or `probe` for a
            /// next-attribute loss probe.
            label: String,
            /// Which incremental step broke down (e.g. `schur`,
            /// `sherman_morrison`, `downdate`, `non_finite`).
            reason: String,
        },
        /// One target's Err(b) calibration sample, emitted by the bench
        /// runner after scoring a plan against ground truth: the paper's
        /// predicted plan error joined with the realized per-object MSE.
        /// Self-contained (no cross-event join key needed) because parallel
        /// sweeps interleave events from many runs in one JSONL stream.
        EvalCalibration = "eval_calibration" {
            /// Cell identity: domain, query, strategy and budgets.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Target attribute label.
            target: String,
            /// `Err(b) = Var(a_t) − S_oᵀ(S_a + Diag(S_c/b))⁻¹S_o` at the
            /// chosen budget (NaN when the strategy has no trio, e.g.
            /// NaiveAverage).
            predicted_mse: f64,
            /// The plan regression's realized training MSE.
            training_mse: f64,
            /// Realized per-object MSE against bench ground truth.
            realized_mse: f64,
            /// Held-out objects the realized MSE averaged over.
            n_objects: u32,
        },
        /// The online spam filter discarded at least one answer from a
        /// batch: the filter's decision statistics, surfaced so error
        /// attribution can see *why* answers were dropped.
        SpamDecision = "spam_decision" {
            /// Object being estimated.
            object: u64,
            /// Attribute whose batch was filtered (raw attribute id).
            attr: u32,
            /// Raw batch size.
            answers: u32,
            /// Answers that survived the filter.
            kept: u32,
            /// Batch median the filter centred on.
            median: f64,
            /// Scaled median absolute deviation (the filter's spread
            /// estimate; 0 when a majority answered identically).
            mad: f64,
        },
        /// One query target's full error-attribution ledger, assembled by
        /// the bench runner after scoring a plan against ground truth. The
        /// realized per-object MSE decomposes as
        /// `noise_mse + model_mse + cross_mse` (exact per-object algebra:
        /// residual = crowd-noise error through the regression + the
        /// regression's own model error on true attribute values).
        /// Self-contained like [`TraceEvent::EvalCalibration`].
        QueryAudit = "query_audit" {
            /// Process-unique audit id correlating this ledger with its
            /// [`TraceEvent::ObjectAudit`] rows. `(label, seed, target)` is
            /// *not* unique — sweeps rerun the same cell identity per budget
            /// point, possibly concurrently, interleaving their rows.
            query: u64,
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Target attribute label.
            target: String,
            /// Held-out objects audited.
            n_objects: u32,
            /// Predicted `Err(b)` at the chosen budget (Eq. 2).
            predicted_mse: f64,
            /// The plan regression's training MSE.
            training_mse: f64,
            /// Realized per-object MSE against ground truth.
            realized_mse: f64,
            /// Mean squared crowd-noise error: `(ŷ − ỹ)²` where `ỹ` is the
            /// regression applied to *true* attribute values.
            noise_mse: f64,
            /// Mean squared model error: `(ỹ − y)²`.
            model_mse: f64,
            /// Twice the mean noise×model cross term (completes the exact
            /// decomposition; near zero when the two are independent).
            cross_mse: f64,
            /// Predicted `Err(b)` at an effectively unbounded budget — the
            /// error floor the regression could reach with infinite answers.
            error_floor: f64,
            /// `predicted_mse − error_floor`: the loss attributable to
            /// truncating the per-object budget at `B_obj`.
            budget_truncation: f64,
            /// Nominal two-sided confidence level of the per-object
            /// intervals (e.g. 0.95).
            ci_level: f64,
            /// Fraction of audited objects whose true value fell inside
            /// `estimate ± z·√predicted_mse`.
            ci_coverage: f64,
            /// Per-planned-attribute answer-stream audit.
            attrs: Vec<AttrAudit>,
        },
        /// One audited object's residual and confidence interval (the
        /// per-object grain under a [`TraceEvent::QueryAudit`]).
        ObjectAudit = "object_audit" {
            /// The owning [`TraceEvent::QueryAudit`]'s audit id.
            query: u64,
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Target attribute label.
            target: String,
            /// Audited object.
            object: u64,
            /// Ground-truth target value.
            truth: f64,
            /// The plan's estimate.
            estimate: f64,
            /// `estimate − truth`.
            residual: f64,
            /// Crowd-noise component of the residual (`ŷ − ỹ`).
            noise_err: f64,
            /// Model component of the residual (`ỹ − y`).
            model_err: f64,
            /// Lower edge of the predicted confidence interval.
            ci_lo: f64,
            /// Upper edge of the predicted confidence interval.
            ci_hi: f64,
            /// Whether the truth fell inside `[ci_lo, ci_hi]`.
            in_ci: bool,
        },
        /// Final state of one drift detector after an audited run: the
        /// always-emitted companion of [`TraceEvent::DriftDetected`] (which
        /// only fires on alarms), so coverage gates can require it.
        DriftUpdate = "drift_update" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Monitored attribute label.
            attr: String,
            /// Monitored metric: `answer_var` or `spam_rate`.
            metric: String,
            /// Planned reference value the stream is compared against.
            reference: f64,
            /// EWMA of the standardized deviations from the reference.
            ewma: f64,
            /// Current two-sided CUSUM score (max of both sides, in sigmas).
            score: f64,
            /// CUSUM decision threshold `h`.
            threshold: f64,
            /// Batches the detector absorbed.
            samples: u64,
            /// Alarms raised over the run.
            alarms: u64,
        },
        /// A drift detector crossed its decision threshold: the realized
        /// answer stream departed from the plan's assumptions. This is the
        /// trigger signal a streaming replanning engine consumes.
        DriftDetected = "drift_detected" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Monitored attribute label.
            attr: String,
            /// Monitored metric: `answer_var` or `spam_rate`.
            metric: String,
            /// The observation that tripped the alarm.
            observed: f64,
            /// Planned reference value.
            reference: f64,
            /// CUSUM score just before the alarm reset (exceeds
            /// `threshold`).
            score: f64,
            /// CUSUM decision threshold `h`.
            threshold: f64,
            /// 1-based index of the tripping batch in the stream.
            sample: u64,
        },
        /// Planted quality profile of one worker in the simulated pool,
        /// emitted per audited repetition (deterministic, so re-emission is
        /// idempotent) so scorecards can compare observed behaviour against
        /// the planted truth.
        WorkerProfile = "worker_profile" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Worker index within the pool.
            worker: u32,
            /// Planted noise-sd multiplier (1.0 in the homogeneous model).
            sd_multiplier: f64,
            /// Planted spam propensity (0.0 for honest workers).
            spam_propensity: f64,
        },
        /// Observed per-worker tallies of one audited repetition: the
        /// provenance side of the audit ledger.
        WorkerStats = "worker_stats" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Worker index within the pool.
            worker: u32,
            /// Binary value answers attributed to the worker.
            binary_answers: u64,
            /// Numeric value answers attributed to the worker.
            numeric_answers: u64,
            /// Answers the spam filter rejected.
            rejected: u64,
            /// Millicents charged for the worker's answers.
            spent_millicents: i64,
            /// Standardized residuals recorded (kept answers of well-formed
            /// batches).
            residual_n: u64,
            /// Sum of those standardized residuals.
            residual_sum: f64,
            /// Sum of their squares (raw moments add exactly across reps).
            residual_sq: f64,
        },
        /// A hierarchical span opened (see [`crate::span`]). Matched by
        /// exactly one [`TraceEvent::SpanEnd`] with the same `id`.
        SpanStart = "span_start" {
            /// Process-unique span id.
            id: u64,
            /// Innermost open span on the same thread at open time, if any.
            parent: Option<u64>,
            /// Trace-thread id of the opening thread (1-based).
            tid: u64,
            /// Request id scoped onto the opening thread (see
            /// [`crate::span::enter_request`]); 0 = no request context.
            /// Omitted when 0, so traces from non-serving runs keep the
            /// bytes they had before request scoping existed.
            req: u64 = 0,
            /// Static span label (`preprocess`, `dismantle_round`, …).
            label: String,
            /// Free-form detail (`k=3`, a target name, …); may be empty.
            detail: String,
        },
        /// A span closed; carries the resources attributed to it (cumulative
        /// over the span's lifetime on its own thread — children included).
        SpanEnd = "span_end" {
            /// Matches the [`TraceEvent::SpanStart`] id.
            id: u64,
            /// Trace-thread id of the closing thread.
            tid: u64,
            /// Wall-clock nanoseconds the span was open.
            dur_ns: u64,
            /// Bytes requested from the allocator while open (0 unless
            /// [`crate::CountingAlloc`] is the global allocator).
            alloc_bytes: u64,
            /// Allocator calls while open.
            allocs: u64,
            /// Crowd questions charged while open (any kind).
            questions: u64,
            /// Kernel-timer nanoseconds recorded while open.
            kernel_ns: u64,
        },
        /// The micro-batcher flushed one coalesced `(object, attribute)`
        /// cell to the crowd platform, answering every sharer at once. The
        /// flush runs on the leading request's thread; `reqs` preserves the
        /// causal link to every other request whose questions rode along.
        BatchFlush = "batch_flush" {
            /// Object id of the coalesced cell.
            object: u64,
            /// Attribute id of the coalesced cell.
            attr: u32,
            /// Questions actually asked (the max over sharers).
            k_max: u32,
            /// Questions requested across all sharers.
            k_sum: u32,
            /// Number of requests sharing the flush.
            joiners: u32,
            /// Request ids of every participant (sorted, deduplicated;
            /// 0 = a participant outside any request scope).
            reqs: Vec<u64>,
        },
    }

    /// Per-candidate term of one dismantle-target choice: the Eq. 8/9
    /// score `Pr(new | a_j) · Σ_t ω_t [G − L]` and its factors.
    struct CandidateScore {
        /// Pool index of the candidate attribute.
        index: u32,
        /// `Pr(new | a_j) = 1/(n_j + 2)` (Eq. 4).
        pr_new: f64,
        /// The weighted gain-minus-loss sum `Σ_t ω_t [G − L]`.
        value: f64,
        /// The product actually ranked.
        score: f64,
    }

    /// Per-question-kind component of a phase's spend delta.
    struct KindSpend {
        /// Question kind label (the ledger's display name).
        kind: String,
        /// Questions of that kind asked during the phase.
        questions: u64,
        /// Milli-cents spent on that kind during the phase.
        millicents: i64,
    }

    /// Per-attribute slice of a [`TraceEvent::QueryAudit`]: how one
    /// planned attribute's answer stream behaved against the plan's
    /// assumptions.
    struct AttrAudit {
        /// Planned attribute label.
        label: String,
        /// Questions per object the plan allocated (`b(a)`).
        questions: u32,
        /// Answer batches observed (= objects estimated).
        batches: u64,
        /// Raw answers asked across all batches.
        answers: u64,
        /// Answers the spam filter discarded.
        dropped: u64,
        /// Whole-batch rejections (estimator fell back to raw answers).
        fallbacks: u64,
        /// The trio's planned per-answer variance `S_c[a]`.
        planned_sc: f64,
        /// Mean within-batch sample variance of the answers actually
        /// averaged (NaN when no batch kept ≥ 2 answers).
        realized_sc: f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                label: "pictures / {Bmi}".into(),
                seed: 42,
            },
            TraceEvent::PhaseSpend {
                phase: "examples".into(),
                spent_millicents: 123_456,
                delta_millicents: 123_456,
                delta_questions: 40,
                by_kind: vec![KindSpend {
                    kind: "example".into(),
                    questions: 40,
                    millicents: 123_456,
                }],
            },
            TraceEvent::DismantleChoice {
                chosen: Some(2),
                scores: vec![
                    CandidateScore {
                        index: 0,
                        pr_new: 0.5,
                        value: 1.0 / 3.0,
                        score: 1.0 / 6.0,
                    },
                    CandidateScore {
                        index: 2,
                        pr_new: 0.25,
                        value: 2.0,
                        score: 0.5,
                    },
                ],
            },
            TraceEvent::DismantleChoice {
                chosen: None,
                scores: vec![],
            },
            TraceEvent::SprtVerdict {
                candidate: "Has \"Meat\"".into(),
                parent: 3,
                accepted: true,
                samples: 7,
            },
            TraceEvent::TrioSize {
                n_targets: 2,
                n_attrs: 5,
            },
            TraceEvent::BudgetStep {
                label: "main".into(),
                attr: 1,
                question: 3,
                objective: 0.725,
            },
            TraceEvent::BudgetChosen {
                label: "main".into(),
                allocation: vec![5, 10, 0, 3],
                objective: 0.81,
            },
            TraceEvent::RegressionFit {
                target: 0,
                label: "Bmi".into(),
                training_mse: 4.25,
                rows: 58,
            },
            TraceEvent::SpamFallback {
                object: 17,
                attr: 4,
                answers: 6,
            },
            TraceEvent::SolverFallback {
                label: "main".into(),
                reason: "schur".into(),
            },
            TraceEvent::EvalCalibration {
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                seed: 3,
                target: "Bmi".into(),
                predicted_mse: 3.75,
                training_mse: 4.25,
                realized_mse: 4.5,
                n_objects: 150,
            },
            TraceEvent::SpamDecision {
                object: 17,
                attr: 4,
                answers: 6,
                kept: 5,
                median: 23.5,
                mad: 2.9652,
            },
            TraceEvent::QueryAudit {
                query: 12,
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                seed: 3,
                target: "Bmi".into(),
                n_objects: 150,
                predicted_mse: 3.75,
                training_mse: 4.25,
                realized_mse: 4.5,
                noise_mse: 2.5,
                model_mse: 1.75,
                cross_mse: 0.25,
                error_floor: 1.5,
                budget_truncation: 2.25,
                ci_level: 0.95,
                ci_coverage: 0.9266666666666666,
                attrs: vec![
                    AttrAudit {
                        label: "Weight".into(),
                        questions: 5,
                        batches: 150,
                        answers: 750,
                        dropped: 12,
                        fallbacks: 1,
                        planned_sc: 40.0,
                        realized_sc: 43.7,
                    },
                    AttrAudit {
                        label: "Height".into(),
                        questions: 3,
                        batches: 150,
                        answers: 450,
                        dropped: 0,
                        fallbacks: 0,
                        planned_sc: 0.01,
                        realized_sc: 0.008,
                    },
                ],
            },
            TraceEvent::ObjectAudit {
                query: 12,
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                seed: 3,
                target: "Bmi".into(),
                object: 117,
                truth: 24.0,
                estimate: 25.5,
                residual: 1.5,
                noise_err: 1.0,
                model_err: 0.5,
                ci_lo: 21.7,
                ci_hi: 29.3,
                in_ci: true,
            },
            TraceEvent::DriftUpdate {
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                attr: "Weight".into(),
                metric: "answer_var".into(),
                reference: 40.0,
                ewma: 0.35,
                score: 1.25,
                threshold: 5.0,
                samples: 150,
                alarms: 0,
            },
            TraceEvent::DriftDetected {
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                attr: "Weight".into(),
                metric: "spam_rate".into(),
                observed: 0.4,
                reference: 0.0,
                score: 5.2,
                threshold: 5.0,
                sample: 31,
            },
            TraceEvent::WorkerProfile {
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                worker: 7,
                sd_multiplier: 1.62,
                spam_propensity: 0.85,
            },
            TraceEvent::WorkerStats {
                label: "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢".into(),
                seed: 3,
                worker: 7,
                binary_answers: 12,
                numeric_answers: 88,
                rejected: 19,
                spent_millicents: 36_400,
                residual_n: 81,
                residual_sum: -2.5,
                residual_sq: 130.75,
            },
            TraceEvent::SpanStart {
                id: 42,
                parent: Some(41),
                tid: 1,
                req: 7,
                label: "dismantle_round".into(),
                detail: "k=3".into(),
            },
            TraceEvent::SpanStart {
                id: 43,
                parent: None,
                tid: 2,
                req: 0,
                label: "preprocess".into(),
                detail: String::new(),
            },
            TraceEvent::SpanEnd {
                id: 42,
                tid: 1,
                dur_ns: 12_345_678,
                alloc_bytes: 1 << 33,
                allocs: 9_001,
                questions: 57,
                kernel_ns: 2_000_000,
            },
            TraceEvent::BatchFlush {
                object: 12,
                attr: 3,
                k_max: 5,
                k_sum: 9,
                joiners: 3,
                reqs: vec![7, 8, 11],
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for event in samples() {
            let line = event.to_json();
            assert!(!line.contains('\n'), "{line}");
            let back =
                TraceEvent::parse(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    /// Pins the encoded line of every sample byte for byte. Round-trip
    /// equality alone would still pass a writer/parser pair that changed
    /// the bytes symmetrically.
    #[test]
    fn encoded_lines_are_pinned() {
        let golden = [
            r#"{"event":"run_start","label":"pictures / {Bmi}","seed":42}"#,
            r#"{"event":"phase_spend","phase":"examples","spent_millicents":123456,"delta_millicents":123456,"delta_questions":40,"by_kind":[{"kind":"example","questions":40,"millicents":123456}]}"#,
            r#"{"event":"dismantle_choice","chosen":2,"scores":[{"index":0,"pr_new":0.5,"value":0.3333333333333333,"score":0.16666666666666666},{"index":2,"pr_new":0.25,"value":2,"score":0.5}]}"#,
            r#"{"event":"dismantle_choice","chosen":null,"scores":[]}"#,
            r#"{"event":"sprt_verdict","candidate":"Has \"Meat\"","parent":3,"accepted":true,"samples":7}"#,
            r#"{"event":"trio_size","n_targets":2,"n_attrs":5}"#,
            r#"{"event":"budget_step","label":"main","attr":1,"question":3,"objective":0.725}"#,
            r#"{"event":"budget_chosen","label":"main","allocation":[5,10,0,3],"objective":0.81}"#,
            r#"{"event":"regression_fit","target":0,"label":"Bmi","training_mse":4.25,"rows":58}"#,
            r#"{"event":"spam_fallback","object":17,"attr":4,"answers":6}"#,
            r#"{"event":"solver_fallback","label":"main","reason":"schur"}"#,
            r#"{"event":"eval_calibration","label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","seed":3,"target":"Bmi","predicted_mse":3.75,"training_mse":4.25,"realized_mse":4.5,"n_objects":150}"#,
            r#"{"event":"spam_decision","object":17,"attr":4,"answers":6,"kept":5,"median":23.5,"mad":2.9652}"#,
            r#"{"event":"query_audit","query":12,"label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","seed":3,"target":"Bmi","n_objects":150,"predicted_mse":3.75,"training_mse":4.25,"realized_mse":4.5,"noise_mse":2.5,"model_mse":1.75,"cross_mse":0.25,"error_floor":1.5,"budget_truncation":2.25,"ci_level":0.95,"ci_coverage":0.9266666666666666,"attrs":[{"label":"Weight","questions":5,"batches":150,"answers":750,"dropped":12,"fallbacks":1,"planned_sc":40,"realized_sc":43.7},{"label":"Height","questions":3,"batches":150,"answers":450,"dropped":0,"fallbacks":0,"planned_sc":0.01,"realized_sc":0.008}]}"#,
            r#"{"event":"object_audit","query":12,"label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","seed":3,"target":"Bmi","object":117,"truth":24,"estimate":25.5,"residual":1.5,"noise_err":1,"model_err":0.5,"ci_lo":21.7,"ci_hi":29.3,"in_ci":true}"#,
            r#"{"event":"drift_update","label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","attr":"Weight","metric":"answer_var","reference":40,"ewma":0.35,"score":1.25,"threshold":5,"samples":150,"alarms":0}"#,
            r#"{"event":"drift_detected","label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","attr":"Weight","metric":"spam_rate","observed":0.4,"reference":0,"score":5.2,"threshold":5,"sample":31}"#,
            r#"{"event":"worker_profile","label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","worker":7,"sd_multiplier":1.62,"spam_propensity":0.85}"#,
            r#"{"event":"worker_stats","label":"pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢","seed":3,"worker":7,"binary_answers":12,"numeric_answers":88,"rejected":19,"spent_millicents":36400,"residual_n":81,"residual_sum":-2.5,"residual_sq":130.75}"#,
            r#"{"event":"span_start","id":42,"parent":41,"tid":1,"req":7,"label":"dismantle_round","detail":"k=3"}"#,
            r#"{"event":"span_start","id":43,"parent":null,"tid":2,"label":"preprocess","detail":""}"#,
            r#"{"event":"span_end","id":42,"tid":1,"dur_ns":12345678,"alloc_bytes":8589934592,"allocs":9001,"questions":57,"kernel_ns":2000000}"#,
            r#"{"event":"batch_flush","object":12,"attr":3,"k_max":5,"k_sum":9,"joiners":3,"reqs":[7,8,11]}"#,
        ];
        let lines: Vec<String> = samples().iter().map(TraceEvent::to_json).collect();
        assert_eq!(lines, golden);
        // Non-finite floats encode as null; negative zero keeps its sign.
        let event = TraceEvent::EvalCalibration {
            label: "x".into(),
            seed: 3,
            target: "Bmi".into(),
            predicted_mse: f64::NAN,
            training_mse: -0.0,
            realized_mse: f64::NEG_INFINITY,
            n_objects: 0,
        };
        assert_eq!(
            event.to_json(),
            r#"{"event":"eval_calibration","label":"x","seed":3,"target":"Bmi","predicted_mse":null,"training_mse":-0,"realized_mse":null,"n_objects":0}"#
        );
    }

    #[test]
    fn integers_above_2_pow_53_round_trip() {
        let event = TraceEvent::RunStart {
            label: "big".into(),
            seed: (1 << 53) + 1,
        };
        let line = event.to_json();
        assert_eq!(
            line,
            r#"{"event":"run_start","label":"big","seed":9007199254740993}"#
        );
        assert_eq!(TraceEvent::parse(&line).unwrap(), event);
    }

    #[test]
    fn names_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for event in samples() {
            seen.insert(event.name());
        }
        assert_eq!(seen.len(), 21);
    }

    #[test]
    fn zero_request_span_start_omits_the_req_field() {
        // Spans opened outside any request scope must serialize exactly
        // as they did before the field existed (byte-compat with old
        // traces and the round-trip tests that re-serialize them).
        let event = TraceEvent::SpanStart {
            id: 43,
            parent: None,
            tid: 2,
            req: 0,
            label: "preprocess".into(),
            detail: String::new(),
        };
        let line = event.to_json();
        assert!(!line.contains("\"req\""), "{line}");
        assert_eq!(TraceEvent::parse(&line).unwrap(), event);
        // Legacy lines without the field parse with req = 0.
        let legacy = "{\"event\":\"span_start\",\"id\":43,\"parent\":null,\
                      \"tid\":2,\"label\":\"preprocess\",\"detail\":\"\"}";
        assert_eq!(TraceEvent::parse(legacy).unwrap(), event);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        // The JSONL sink splices a "t_us" timestamp into every line;
        // parse must tolerate it (and any future additive field).
        let event = TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 3,
        };
        let line = event.to_json();
        let stamped = format!("{{\"t_us\":123456,{}", &line[1..]);
        assert_eq!(TraceEvent::parse(&stamped).unwrap(), event);
    }

    #[test]
    fn non_finite_mse_encodes_as_null() {
        let event = TraceEvent::RegressionFit {
            target: 0,
            label: "Bmi".into(),
            training_mse: f64::INFINITY,
            rows: 0,
        };
        let line = event.to_json();
        assert!(line.contains("\"training_mse\":null"), "{line}");
        match TraceEvent::parse(&line).unwrap() {
            TraceEvent::RegressionFit { training_mse, .. } => assert!(training_mse.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(TraceEvent::parse("{\"event\":\"nope\"}").is_err());
        assert!(TraceEvent::parse("not json").is_err());
        assert!(TraceEvent::parse("{\"no_tag\":1}").is_err());
    }
}
