//! Preprocessing asks its value questions one cell at a time through
//! `CrowdPlatform::ask_values`. A platform that implements only the
//! single-question methods gets the trait's default per-question loop
//! instead; both must yield the same preprocessing run: the same
//! output, the same ledger and the same number of
//! `Timer::CrowdQuestion` samples.
//!
//! The timer registry and the trace sink are process-global, so these
//! tests live in their own binary and serialize on one lock.

use disq_core::{preprocess, DisqConfig, DisqError, PreprocessOutput};
use disq_crowd::{
    BudgetLedger, CrowdConfig, CrowdError, CrowdPlatform, LedgerSnapshot, Money, PricingModel,
    SimulatedCrowd,
};
use disq_domain::{domains, AttributeId, DomainSpec, ObjectId, Population};
use disq_trace::{MemorySink, Timer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Forwards only the single-question methods, so `ask_values` falls
/// back to the trait's default loop of `ask_value` calls.
struct Looped(SimulatedCrowd);

impl CrowdPlatform for Looped {
    fn ask_value(&mut self, o: ObjectId, a: AttributeId) -> Result<f64, CrowdError> {
        self.0.ask_value(o, a)
    }

    fn ask_dismantle(&mut self, a: AttributeId) -> Result<String, CrowdError> {
        self.0.ask_dismantle(a)
    }

    fn ask_verify(&mut self, candidate: &str, of: AttributeId) -> Result<bool, CrowdError> {
        self.0.ask_verify(candidate, of)
    }

    fn ask_example(&mut self, attrs: &[AttributeId]) -> Result<(ObjectId, Vec<f64>), CrowdError> {
        self.0.ask_example(attrs)
    }

    fn ledger(&self) -> &BudgetLedger {
        self.0.ledger()
    }
}

/// The bare crowd's batched path, counting the cells the budget ran dry
/// in the middle of: at least one answer given, then a failed charge.
struct Probe {
    inner: SimulatedCrowd,
    dry_mid_cell: u32,
}

impl CrowdPlatform for Probe {
    fn ask_value(&mut self, o: ObjectId, a: AttributeId) -> Result<f64, CrowdError> {
        self.inner.ask_value(o, a)
    }

    fn ask_values(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        let start = out.len();
        let res = CrowdPlatform::ask_values(&mut self.inner, o, a, k, out);
        if res.is_err() && out.len() > start {
            self.dry_mid_cell += 1;
        }
        res
    }

    fn ask_dismantle(&mut self, a: AttributeId) -> Result<String, CrowdError> {
        self.inner.ask_dismantle(a)
    }

    fn ask_verify(&mut self, candidate: &str, of: AttributeId) -> Result<bool, CrowdError> {
        self.inner.ask_verify(candidate, of)
    }

    fn ask_example(&mut self, attrs: &[AttributeId]) -> Result<(ObjectId, Vec<f64>), CrowdError> {
        self.inner.ask_example(attrs)
    }

    fn ledger(&self) -> &BudgetLedger {
        self.inner.ledger()
    }
}

struct Case {
    spec: Arc<DomainSpec>,
    targets: Vec<AttributeId>,
    b_prc: Money,
    seed: u64,
}

impl Case {
    fn new(spec: DomainSpec, targets: &[&str], b_prc: Money, seed: u64) -> Self {
        let targets = targets.iter().map(|t| spec.id_of(t).unwrap()).collect();
        Case {
            spec: Arc::new(spec),
            targets,
            b_prc,
            seed,
        }
    }

    fn crowd(&self) -> SimulatedCrowd {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pop = Population::sample(Arc::clone(&self.spec), 120, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), Some(self.b_prc), self.seed)
    }

    fn preprocess<P: CrowdPlatform>(
        &self,
        platform: &mut P,
    ) -> Result<PreprocessOutput, DisqError> {
        preprocess(
            platform,
            &self.spec,
            &self.targets,
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            self.seed,
        )
    }

    /// Runs preprocessing under an installed sink, so crowd questions are
    /// timed. Returns the output (compared through `Debug`: the trio keeps
    /// NaN sentinels, which `==` would never equate), the final ledger and
    /// the `CrowdQuestion` samples the run added.
    fn traced<P: CrowdPlatform>(&self, platform: &mut P) -> (String, LedgerSnapshot, u64) {
        disq_trace::install(Arc::new(MemorySink::new()));
        let before = disq_trace::summary();
        let out = self.preprocess(platform);
        let samples = disq_trace::summary()
            .delta_since(&before)
            .timer(Timer::CrowdQuestion)
            .count;
        disq_trace::uninstall();
        (format!("{out:?}"), platform.ledger().snapshot(), samples)
    }

    /// Asserts the batched and the looped run agree; returns the number of
    /// cells in which the batched run's budget ran dry.
    fn assert_batched_matches_looped(&self) -> u32 {
        // Any thread's questions count while a sink is installed: even the
        // untraced probe run must not overlap another test's traced run.
        let _lock = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let batched = self.traced(&mut self.crowd());
        let looped = self.traced(&mut Looped(self.crowd()));
        assert_eq!(batched.0, looped.0, "preprocess output");
        assert_eq!(batched.1, looped.1, "ledger");
        assert_eq!(batched.2, looped.2, "CrowdQuestion samples");
        assert!(batched.2 > 0, "tracing was active");

        let mut probe = Probe {
            inner: self.crowd(),
            dry_mid_cell: 0,
        };
        assert_eq!(format!("{:?}", self.preprocess(&mut probe)), batched.0);
        probe.dry_mid_cell
    }
}

#[test]
fn cold_plans_match_the_per_question_loop() {
    for (spec, target, seed) in [
        (domains::pictures::spec(), "Bmi", 3),
        (domains::recipes::spec(), "Protein", 4),
        (domains::housing::spec(), "Price", 5),
        (domains::laptops::spec(), "Price", 6),
    ] {
        let case = Case::new(spec, &[target], Money::from_dollars(30.0), seed);
        case.assert_batched_matches_looped();
    }
}

#[test]
fn budget_running_dry_mid_cell_matches_the_per_question_loop() {
    // Once the plan is fixed, preprocessing turns the rest of B_prc into
    // extra training rows until a value question can no longer be paid.
    // Under these caps that happens inside a cell of several answers.
    for (spec, target, dollars) in [
        (domains::pictures::spec(), "Bmi", 10.0),
        (domains::recipes::spec(), "Protein", 12.0),
    ] {
        let case = Case::new(spec, &[target], Money::from_dollars(dollars), 3);
        assert_eq!(case.assert_batched_matches_looped(), 1, "{target}");
    }
}

#[test]
fn multi_target_runs_match() {
    let case = Case::new(
        domains::pictures::spec(),
        &["Bmi", "Age"],
        Money::from_dollars(40.0),
        9,
    );
    case.assert_batched_matches_looped();
}
