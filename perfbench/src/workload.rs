//! The three workloads, driven against an in-process `QueryServer` over
//! loopback TCP, and the output checks run on every response.
//!
//! Every workload starts the same way: a daemon on an empty plan
//! directory answers one query per attribute (each computes its plan and
//! writes it to the store), is stopped, and a second daemon on the same
//! directory answers the same queries again (each plan is read back from
//! disk). `serve_mix` and `serve_scan` then measure on the second, warm
//! daemon; `plan_build` measures that start-up cycle itself, over many
//! engine seeds and all four domains.

use crate::client::{Conn, Reply};
use crate::schedule::{poisson_arrivals, Zipf};
use crate::stats::{self, Nrmse};
use disq_core::PlanStore;
use disq_crowd::{BatcherConfig, Money, DEFAULT_BATCH_MAX, DEFAULT_WINDOW_US};
use disq_domain::{DomainSpec, Population};
use disq_serve::{domain_spec, Engine, QueryServer, ReferenceSession, ServeConfig, ServeSnapshot};
use disq_trace::json::{self, Json};
use disq_trace::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attributes `serve_mix` draws from, most popular first.
const MIX_ATTRS: [&str; 4] = ["Bmi", "Age", "Heavy", "Weight"];
/// Offered load of `serve_mix`, requests per second.
pub const MIX_RATE: f64 = 500.0;
const MIX_POPULATION: usize = 300;
const MIX_OBJECTS: usize = 30;
/// Client connections (and client threads) of `serve_mix`.
const MIX_CONNS: usize = 2;
const SCAN_POPULATION: usize = 20_000;
const SCAN_OBJECTS: usize = 1_000;
const BUILD_POPULATION: usize = 300;
const BUILD_OBJECTS: usize = 30;
const BUILD_DOMAINS: [&str; 4] = ["pictures", "recipes", "housing", "laptops"];
/// Seed of the serve workloads' daemon. The workload seed shapes only
/// the requests, so every seed meets the same daemon state.
const SERVE_ENGINE_SEED: u64 = 42;
/// Unmeasured requests a serve workload sends after each start-up cycle,
/// counted in `setup_s`. Enough to fill the flight recorder on
/// `serve_scan`, whose scans record a few thousand events each.
const WARMUP_QUERIES: usize = 32;
/// Daemon lifetimes per run. Each starts with a timed start-up cycle
/// (`setup_s` is their median) and measures `1/LIFETIMES` of the run.
pub const LIFETIMES: usize = 8;
/// A `serve_mix` run is invalid when the generator itself sends requests
/// this late (µs) on average after they were due and a connection was
/// free: a tenth of the mean gap between arrivals. Sleep overshoot alone
/// is tens of µs.
pub const GENERATOR_MEAN_LIMIT_US: f64 = 0.1 * 1e6 / MIX_RATE;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop interactive traffic over two keep-alive connections.
    ServeMix,
    /// Closed-loop large scans over one connection.
    ServeScan,
    /// Closed-loop cold plan builds and warm starts from the plan store.
    PlanBuild,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::ServeMix, Kind::ServeScan, Kind::PlanBuild];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeMix => "serve_mix",
            Kind::ServeScan => "serve_scan",
            Kind::PlanBuild => "plan_build",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The daemon configuration of one engine, with every field set here:
/// no value comes from the environment.
pub fn serve_config(
    domain: &str,
    population: usize,
    seed: u64,
    plan_dir: &Path,
    objects: usize,
) -> ServeConfig {
    ServeConfig {
        domain: domain.to_string(),
        population,
        seed,
        batcher: BatcherConfig {
            window: Duration::from_micros(DEFAULT_WINDOW_US),
            max_batch: DEFAULT_BATCH_MAX,
        },
        plan_dir: Some(plan_dir.to_path_buf()),
        default_objects: objects,
        read_timeout: Duration::from_millis(2000),
        b_prc: Money::from_dollars(30.0),
        b_obj: Money::from_cents(4.0),
        plan_cache: true,
        flight_recorder: true,
        slow_us: None,
        slow_dir: None,
        access_log: None,
        slo_us: 100_000,
    }
}

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent to the daemon.
    pub attempted: u64,
    /// Requests that failed, were refused, or failed an output check.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.failed += other.failed;
    }
}

/// True attribute values of one population, for scoring answers.
pub struct Truth {
    columns: Vec<Vec<f64>>,
    sd: Vec<f64>,
}

impl Truth {
    /// Samples the population exactly as `Engine::new` does.
    pub fn sample(spec: &Arc<DomainSpec>, population: usize, seed: u64) -> Result<Truth, String> {
        let pop = sample_population(spec, population, seed)?;
        let columns: Vec<Vec<f64>> = spec
            .attribute_ids()
            .map(|a| pop.column(a).to_vec())
            .collect();
        let sd = columns.iter().map(|c| stats::sd(c)).collect();
        Ok(Truth { columns, sd })
    }
}

/// `Population::sample` with the engine's seeding.
pub fn sample_population(
    spec: &Arc<DomainSpec>,
    population: usize,
    seed: u64,
) -> Result<Population, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    Population::sample(Arc::clone(spec), population, &mut rng)
        .map_err(|e| format!("population sampling: {e}"))
}

/// What a checked response carried.
struct Answer {
    /// FNV-1a over `(object, value bits)` of every row, in response order.
    hash: u64,
    plan: String,
}

/// Order-sensitive FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in one word.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Hash of an in-process query result, comparable with [`Answer::hash`].
pub fn result_hash(result: &disq_core::online::QueryResult) -> u64 {
    let mut h = Fnv::new();
    for row in &result.rows {
        h.add(row.object.0 as u64);
        h.add(row.values[0].to_bits());
    }
    h.get()
}

/// Checks one `/query` response for `objects` objects of attribute
/// `attr` (index into the domain's attributes) and scores its estimates.
/// The benchmark's queries carry no predicate, so every scanned object
/// must come back exactly once.
fn check_reply(
    reply: &Reply,
    attr: usize,
    objects: usize,
    truth: &Truth,
    nrmse: &mut Nrmse,
) -> Result<Answer, String> {
    let text = std::str::from_utf8(&reply.body).map_err(|_| "non-UTF-8 body".to_string())?;
    if reply.status != 200 {
        return Err(format!("status {}: {text}", reply.status));
    }
    let v = json::parse(text).map_err(|e| format!("unparseable body: {e}"))?;
    let scanned = v.get("scanned").and_then(Json::as_u64);
    if scanned != Some(objects as u64) {
        return Err(format!("scanned {scanned:?}, requested {objects}"));
    }
    let rows = v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("no rows array")?;
    if rows.len() != objects {
        return Err(format!("{} rows for {objects} scanned objects", rows.len()));
    }
    let column = &truth.columns[attr];
    let sd = truth.sd[attr];
    let mut seen = vec![false; objects];
    let mut h = Fnv::new();
    for row in rows {
        let object = row
            .get("object")
            .and_then(Json::as_u64)
            .ok_or("row without object")? as usize;
        let value = row
            .get("value")
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("object {object}: no finite value"))?;
        if object >= objects || std::mem::replace(&mut seen[object], true) {
            return Err(format!("object {object} out of range or repeated"));
        }
        h.add(object as u64);
        h.add(value.to_bits());
        if sd > 0.0 {
            nrmse.add(value, column[object], sd);
        }
    }
    let plan = v
        .get("plan")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Ok(Answer {
        hash: h.get(),
        plan,
    })
}

fn query_body(attr: &str, objects: usize) -> String {
    format!("{{\"attribute\":\"{attr}\",\"objects\":{objects}}}")
}

/// A running daemon. Field order is drop order: the server (and its
/// connection threads) stop before the engine goes.
pub struct Daemon {
    server: QueryServer,
    /// The engine behind the server.
    pub engine: Arc<Engine>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Result<Daemon, String> {
        let engine = Arc::new(Engine::new(config).map_err(|e| e.message())?);
        let server = QueryServer::start("127.0.0.1:0", Arc::clone(&engine))
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Daemon { server, engine })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.server.local_addr())
    }
}

/// Counter deltas of `Engine::snapshot()`, summed over engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    /// In-memory plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Misses served from the plan store.
    pub plan_disk_loads: u64,
    /// Questions requests asked for, before coalescing.
    pub requested: u64,
    /// Questions put to the platform.
    pub asked: u64,
    /// Questions saved by coalescing.
    pub saved: u64,
}

impl Snap {
    fn of(s: &ServeSnapshot) -> Snap {
        Snap {
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
            plan_disk_loads: s.plan_disk_loads,
            requested: s.requested_questions,
            asked: s.asked_questions,
            saved: s.saved_questions,
        }
    }

    fn since(self, before: Snap) -> Snap {
        Snap {
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            plan_disk_loads: self.plan_disk_loads - before.plan_disk_loads,
            requested: self.requested - before.requested,
            asked: self.asked - before.asked,
            saved: self.saved - before.saved,
        }
    }

    fn add(&mut self, o: Snap) {
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.plan_disk_loads += o.plan_disk_loads;
        self.requested += o.requested;
        self.asked += o.asked;
        self.saved += o.saved;
    }
}

/// One start-up cycle: cold daemon, restart, warm start. The client
/// connection is declared (so dropped) first: a server shutting down
/// waits for its open connections.
struct Cycle {
    conn: Conn,
    daemon: Daemon,
    seconds: f64,
    plan_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    warm_hashes: Vec<u64>,
    queries: u64,
    nrmse: Nrmse,
    snap: Snap,
    response_bytes: u64,
}

/// Runs one start-up cycle over `attrs` (indices into the domain's
/// attributes) on an empty `config.plan_dir`. Checks that every cold
/// query computed its plan, every warm-start query read it from disk,
/// and warm-start answers equal the cold ones bit for bit (both daemons
/// start from the same crowd seed and ask the same sequence).
fn start_cycle(
    config: &ServeConfig,
    spec: &DomainSpec,
    attrs: &[usize],
    objects: usize,
    truth: &Truth,
    tally: &mut Tally,
) -> Result<Cycle, String> {
    let dir = config
        .plan_dir
        .as_ref()
        .expect("benchmark configs set a plan dir");
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let mut nrmse = Nrmse::default();
    let mut response_bytes = 0u64;
    let mut pass = |conn: &mut Conn,
                    expect_plan: &str,
                    times: &mut Vec<f64>,
                    hashes: &mut Vec<u64>,
                    tally: &mut Tally| {
        for &a in attrs {
            let label = &spec.attr(disq_domain::AttributeId(a)).name;
            let body = query_body(label, objects);
            tally.attempted += 1;
            let t = Instant::now();
            let reply = conn.post_query(&body);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            let checked = reply.and_then(|r| {
                response_bytes += r.body.len() as u64;
                check_reply(&r, a, objects, truth, &mut nrmse)
            });
            match checked {
                Ok(ans) if ans.plan == expect_plan => hashes.push(ans.hash),
                Ok(ans) => {
                    tally.fail(format!(
                        "{label}: plan '{}', expected '{expect_plan}'",
                        ans.plan
                    ));
                    hashes.push(ans.hash);
                }
                Err(e) => {
                    tally.fail(format!("{label}: {e}"));
                    hashes.push(0);
                }
            }
        }
    };
    let start = Instant::now();
    let (mut plan_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let (mut cold_hashes, mut warm_hashes) = (Vec::new(), Vec::new());
    let mut snap = {
        let cold = Daemon::start(config.clone())?;
        let mut conn = cold.connect()?;
        pass(&mut conn, "computed", &mut plan_ms, &mut cold_hashes, tally);
        drop(conn);
        Snap::of(&cold.engine.snapshot())
    };
    let daemon = Daemon::start(config.clone())?;
    let mut conn = daemon.connect()?;
    pass(&mut conn, "disk", &mut warm_ms, &mut warm_hashes, tally);
    let seconds = start.elapsed().as_secs_f64();
    snap.add(Snap::of(&daemon.engine.snapshot()));
    for (i, (c, w)) in cold_hashes.iter().zip(&warm_hashes).enumerate() {
        if c != w {
            let label = &spec.attr(disq_domain::AttributeId(attrs[i])).name;
            tally.fail(format!(
                "{label}: warm-start answer differs from the cold pass"
            ));
        }
    }
    Ok(Cycle {
        daemon,
        conn,
        seconds,
        plan_ms,
        warm_ms,
        warm_hashes,
        queries: 2 * attrs.len() as u64,
        nrmse,
        snap,
        response_bytes,
    })
}

/// Offline spend (millicents) of the plans stored for `attrs`.
fn stored_prep_spend(
    config: &ServeConfig,
    spec: &DomainSpec,
    attrs: &[usize],
) -> Result<i64, String> {
    let store = PlanStore::new(config.plan_dir.clone().expect("plan dir"));
    let mut total = 0;
    for &a in attrs {
        let label = &spec.attr(disq_domain::AttributeId(a)).name;
        let plan = store
            .load(spec.name(), label, config.seed)
            .map_err(|e| format!("plan store: {e}"))?
            .ok_or_else(|| format!("no stored plan for {label}"))?;
        total += plan.stats.spent.millicents();
    }
    Ok(total)
}

/// What the open-loop generator of `serve_mix` did.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Requests scheduled.
    pub offered: u64,
    /// Requests completed before their window ended.
    pub completed_in_window: u64,
    /// Scheduled seconds.
    pub seconds: f64,
    /// Requests due before their window ended but not yet sent then,
    /// summed over windows.
    pub backlog: u64,
    /// Per request: send time minus the later of its due time and the
    /// time its connection came free, µs. This is the generator's own
    /// lateness.
    pub gen_late_us: Vec<f64>,
    /// Per request: how long past its due time it waited for a free
    /// connection, µs.
    pub conn_wait_us: Vec<f64>,
}

impl OpenLoop {
    fn merge(&mut self, o: OpenLoop) {
        self.offered += o.offered;
        self.completed_in_window += o.completed_in_window;
        self.seconds += o.seconds;
        self.backlog += o.backlog;
        self.gen_late_us.extend(o.gen_late_us);
        self.conn_wait_us.extend(o.conn_wait_us);
    }

    /// Requests completed in their window, per scheduled second.
    pub fn achieved_rate(&self) -> f64 {
        self.completed_in_window as f64 / self.seconds
    }
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Queries answered.
    pub queries: u64,
    /// Objects estimated.
    pub objects: u64,
    /// Wall time the queries took, seconds.
    pub wall_s: f64,
    /// Query latency, ms (from due time in open loop, send time in closed).
    pub latency_ms: Vec<f64>,
    /// Client round trip (send to last byte), ms; open loop only.
    pub rtt_ms: Vec<f64>,
    /// Latency of queries whose plan was computed, ms.
    pub plan_ms: Vec<f64>,
    /// Latency of first queries after a restart (plan from disk), ms.
    pub warm_ms: Vec<f64>,
    /// Offline spend of the plans built in the window, millicents.
    pub prep_mc: i64,
    /// Plans built in the window.
    pub plans: u64,
    /// Delta of the always-on spend counter, millicents.
    pub spend_mc: u64,
    /// Answer error.
    pub nrmse: Nrmse,
    /// Response body bytes.
    pub response_bytes: u64,
    /// Engine counter deltas.
    pub snap: Snap,
    /// Process CPU ticks used.
    pub cpu_ticks: u64,
    /// Events the installed flight recorder took in (0 when none is).
    pub recorder_events: u64,
    /// Generator statistics (open loop only).
    pub open: Option<OpenLoop>,
}

impl Window {
    /// Folds a later window into this one.
    pub fn merge(&mut self, o: Window) {
        self.queries += o.queries;
        self.objects += o.objects;
        self.wall_s += o.wall_s;
        self.latency_ms.extend(o.latency_ms);
        self.rtt_ms.extend(o.rtt_ms);
        self.plan_ms.extend(o.plan_ms);
        self.warm_ms.extend(o.warm_ms);
        self.prep_mc += o.prep_mc;
        self.plans += o.plans;
        self.spend_mc += o.spend_mc;
        self.nrmse.merge(&o.nrmse);
        self.response_bytes += o.response_bytes;
        self.snap.add(o.snap);
        self.cpu_ticks += o.cpu_ticks;
        self.recorder_events += o.recorder_events;
        match (&mut self.open, o.open) {
            (Some(a), Some(b)) => a.merge(b),
            (a @ None, b) => *a = b,
            _ => {}
        }
    }
}

/// Process-wide counters sampled around a window.
struct Marks {
    spend: u64,
    cpu: u64,
    recorder: u64,
}

impl Marks {
    fn take() -> Result<Marks, String> {
        Ok(Marks {
            spend: disq_trace::summary().counter(Counter::SpendMillicents),
            cpu: crate::procfs::cpu_ticks()?,
            recorder: disq_trace::recorder().map_or(0, |r| r.len() as u64 + r.evicted()),
        })
    }

    fn close(self, w: &mut Window) -> Result<(), String> {
        let now = Marks::take()?;
        w.spend_mc = now.spend - self.spend;
        w.cpu_ticks = now.cpu - self.cpu;
        w.recorder_events = now.recorder.saturating_sub(self.recorder);
        Ok(())
    }
}

/// Set-up results of a run.
#[derive(Debug, Default)]
pub struct Setup {
    /// Duration of each start-up cycle, seconds.
    pub setup_s: Vec<f64>,
    /// Cold-plan query latencies of the cycles, ms.
    pub plan_ms: Vec<f64>,
    /// Warm-start query latencies of the cycles, ms.
    pub warm_ms: Vec<f64>,
    /// Offline spend of the plans the cycles built, millicents.
    pub prep_mc: i64,
    /// Plans the cycles built.
    pub plans: u64,
}

/// One run of one workload: daemon lifetimes of set-up plus measured
/// windows, and the output checks.
pub struct Session {
    /// The workload.
    pub kind: Kind,
    seed: u64,
    /// Requests attempted and failed so far.
    pub tally: Tally,
    /// Set-up results.
    pub setup: Setup,
    conns: Vec<Conn>,
    /// The warm daemon of the current lifetime (`None` between them).
    daemon: Option<Daemon>,
    /// Configuration of the warm daemon.
    pub config: ServeConfig,
    /// The warm daemon's domain.
    pub spec: Arc<DomainSpec>,
    /// Attribute indices the workload queries.
    pub attrs: Vec<usize>,
    /// Objects per query.
    pub objects: usize,
    truth: Truth,
    zipf: Zipf,
    /// `serve_scan`: `(attribute, answer hash)` of every query the
    /// current warm daemon answered, in order, for the reference replay.
    replay: Vec<(usize, u64)>,
    /// Daemon lifetimes started.
    lifetimes: u64,
    /// Windows measured (each `serve_mix` window gets its own schedule).
    windows: u64,
    /// `plan_build`: index of the next engine seed.
    next_seed: u64,
    work: PathBuf,
}

/// Engine seed `i` of a `plan_build` run: SplitMix64 of the pair, cut
/// to 53 bits. The plan store reads a stored seed back through an `f64`,
/// so a daemon whose seed needs more bits cannot load its own plans
/// (reported as a defect; realistic seeds are small integers).
pub fn build_seed(workload_seed: u64, i: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

fn spec_of(domain: &str) -> Result<Arc<DomainSpec>, String> {
    domain_spec(domain)
        .map(Arc::new)
        .ok_or_else(|| format!("unknown domain {domain}"))
}

fn all_attrs(spec: &DomainSpec) -> Vec<usize> {
    spec.attribute_ids().map(|a| a.0).collect()
}

/// `plan_build`'s set-up seeds count down from the top of the seed
/// index space; its measured seeds count up from 0.
const SETUP_SEED_BASE: u64 = u64::MAX;

impl Session {
    /// Prepares a run. No daemon runs until [`Session::restart`].
    pub fn new(kind: Kind, seed: u64, work: &Path) -> Result<Session, String> {
        let spec = spec_of("pictures")?;
        let (population, objects, engine_seed, attrs) = match kind {
            Kind::ServeMix => {
                let attrs = MIX_ATTRS
                    .iter()
                    .map(|l| {
                        spec.id_of(l)
                            .map(|a| a.0)
                            .ok_or(format!("no attribute {l}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (MIX_POPULATION, MIX_OBJECTS, SERVE_ENGINE_SEED, attrs)
            }
            Kind::ServeScan => (
                SCAN_POPULATION,
                SCAN_OBJECTS,
                SERVE_ENGINE_SEED,
                all_attrs(&spec),
            ),
            Kind::PlanBuild => (
                BUILD_POPULATION,
                BUILD_OBJECTS,
                build_seed(seed, SETUP_SEED_BASE),
                all_attrs(&spec),
            ),
        };
        let config = serve_config(
            "pictures",
            population,
            engine_seed,
            &work.join("plans"),
            objects,
        );
        let truth = Truth::sample(&spec, population, engine_seed)?;
        let zipf = Zipf::new(attrs.len(), seed);
        Ok(Session {
            kind,
            seed,
            tally: Tally::default(),
            setup: Setup::default(),
            conns: Vec::new(),
            daemon: None,
            config,
            spec,
            attrs,
            objects,
            truth,
            zipf,
            replay: Vec::new(),
            lifetimes: 0,
            windows: 0,
            next_seed: 0,
            work: work.to_path_buf(),
        })
    }

    /// Starts a new daemon lifetime: stops (and checks) the current
    /// daemon, then runs one timed start-up cycle whose warm daemon the
    /// next windows measure. Spreading the set-up cycles over the run
    /// exposes them to the same machine conditions as the windows.
    pub fn restart(&mut self) -> Result<(), String> {
        self.stop()?;
        if self.kind == Kind::PlanBuild {
            let seed = build_seed(self.seed, SETUP_SEED_BASE - self.lifetimes);
            self.config.seed = seed;
            self.truth = Truth::sample(&self.spec, self.config.population, seed)?;
        }
        self.lifetimes += 1;
        let started = Instant::now();
        let cycle = start_cycle(
            &self.config,
            &self.spec,
            &self.attrs,
            self.objects,
            &self.truth,
            &mut self.tally,
        )?;
        self.setup.plan_ms.extend_from_slice(&cycle.plan_ms);
        self.setup.warm_ms.extend_from_slice(&cycle.warm_ms);
        self.setup.prep_mc += stored_prep_spend(&self.config, &self.spec, &self.attrs)?;
        self.setup.plans += self.attrs.len() as u64;
        self.replay = self.attrs.iter().copied().zip(cycle.warm_hashes).collect();
        self.conns = vec![cycle.conn];
        if self.kind == Kind::ServeMix {
            while self.conns.len() < MIX_CONNS {
                self.conns.push(cycle.daemon.connect()?);
            }
        }
        self.daemon = Some(cycle.daemon);
        if self.kind != Kind::PlanBuild {
            // The workload's own first requests, unmeasured: a new daemon
            // grows its flight-recorder ring to full size over its first
            // ~65k events, and the windows should measure the steady state.
            self.scan(f64::INFINITY, WARMUP_QUERIES)?;
        }
        self.setup.setup_s.push(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Stops the current daemon and, on `serve_scan`, replays every
    /// query it answered through `ReferenceSession` (the in-process path
    /// with no serving layers): with one query in flight the batcher
    /// passes through, so answers must match bit for bit.
    pub fn stop(&mut self) -> Result<(), String> {
        self.conns.clear();
        if self.daemon.take().is_none() || self.kind != Kind::ServeScan {
            return Ok(());
        }
        let mut reference = ReferenceSession::new(self.config.clone()).map_err(|e| e.message())?;
        for (i, &(a, hash)) in self.replay.iter().enumerate() {
            let label = &self.spec.attr(disq_domain::AttributeId(a)).name;
            match reference.query(label, None, Some(self.objects)) {
                Ok(r) if result_hash(&r) == hash => {}
                Ok(_) => self.tally.fail(format!(
                    "query {i} ({label}) of lifetime {}: daemon answer differs from ReferenceSession",
                    self.lifetimes
                )),
                Err(e) => self.tally.fail(format!("reference query {i}: {}", e.message())),
            }
        }
        Ok(())
    }

    /// Counts one request the traced run sends outside a window.
    pub fn direct_result(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.attempted += 1;
        if !ok {
            self.tally.fail(what());
        }
    }

    /// The warm daemon.
    pub fn daemon(&self) -> &Daemon {
        self.daemon
            .as_ref()
            .expect("a daemon runs between restart and stop")
    }

    /// Runs the workload for `seconds`.
    pub fn measure(&mut self, seconds: f64) -> Result<Window, String> {
        self.windows += 1;
        let marks = Marks::take()?;
        let before = Snap::of(&self.daemon().engine.snapshot());
        let mut w = match self.kind {
            Kind::ServeMix => self.open_loop(seconds)?,
            Kind::ServeScan => self.scan(seconds, usize::MAX)?,
            // Counts the start-up cycles' own engines instead.
            Kind::PlanBuild => self.build(seconds)?,
        };
        if self.kind != Kind::PlanBuild {
            w.snap = Snap::of(&self.daemon().engine.snapshot()).since(before);
        }
        marks.close(&mut w)?;
        Ok(w)
    }

    /// The `/query` body for attribute `a` at the workload's object count.
    fn body(&self, a: usize) -> String {
        query_body(
            &self.spec.attr(disq_domain::AttributeId(a)).name,
            self.objects,
        )
    }

    /// The workload's first `n` requests as drawn from its seed, as
    /// `(attribute, body)`.
    pub fn sample_requests(&self, n: usize) -> Vec<(usize, String)> {
        let mut zipf = Zipf::new(self.attrs.len(), self.seed);
        (0..n)
            .map(|i| {
                let a = match self.kind {
                    Kind::PlanBuild => self.attrs[i % self.attrs.len()],
                    _ => self.attrs[zipf.next_rank()],
                };
                (a, self.body(a))
            })
            .collect()
    }

    /// `serve_mix`: Poisson arrivals at [`MIX_RATE`], each request sent
    /// on whichever of the two connections is free, timed from its due
    /// time.
    fn open_loop(&mut self, seconds: f64) -> Result<Window, String> {
        // Each window draws its own arrivals; attributes continue the
        // run's Zipf stream.
        let due = poisson_arrivals(MIX_RATE, seconds, self.seed.wrapping_add(self.windows));
        let attrs: Vec<usize> = due
            .iter()
            .map(|_| self.attrs[self.zipf.next_rank()])
            .collect();
        let bodies: Vec<String> = attrs.iter().map(|&a| self.body(a)).collect();
        let next = AtomicUsize::new(0);
        let (objects, truth) = (self.objects, &self.truth);
        let start = Instant::now();
        let per_conn: Vec<(Conn, Vec<Sent>, Nrmse, u64, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = std::mem::take(&mut self.conns)
                .into_iter()
                .map(|mut conn| {
                    let (next, due, attrs, bodies) = (&next, &due, &attrs, &bodies);
                    s.spawn(move || {
                        let mut sent = Vec::new();
                        let mut nrmse = Nrmse::default();
                        let mut bytes = 0u64;
                        let mut tally = Tally::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= due.len() {
                                break;
                            }
                            let free_us = start.elapsed().as_micros() as u64;
                            if free_us < due[i] {
                                std::thread::sleep(Duration::from_micros(due[i] - free_us));
                            }
                            let send_us = start.elapsed().as_micros() as u64;
                            tally.attempted += 1;
                            let reply = conn.post_query(&bodies[i]);
                            let done_us = start.elapsed().as_micros() as u64;
                            let checked = reply.and_then(|r| {
                                bytes += r.body.len() as u64;
                                check_reply(&r, attrs[i], objects, truth, &mut nrmse)
                            });
                            match checked {
                                Ok(_) => sent.push(Sent {
                                    due_us: due[i],
                                    free_us,
                                    send_us,
                                    done_us,
                                }),
                                Err(e) => tally.fail(format!("request {i}: {e}")),
                            }
                        }
                        (conn, sent, nrmse, bytes, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut w = Window::default();
        let mut sent = Vec::new();
        for (conn, s, nrmse, bytes, tally) in per_conn {
            self.conns.push(conn);
            sent.extend(s);
            w.nrmse.merge(&nrmse);
            w.response_bytes += bytes;
            self.tally.merge(tally);
        }
        let end_us = (seconds * 1e6) as u64;
        let ms = |us: u64| us as f64 / 1e3;
        w.queries = sent.len() as u64;
        w.objects = w.queries * objects as u64;
        w.wall_s = sent.iter().map(|s| s.done_us).max().unwrap_or(0) as f64 / 1e6;
        w.latency_ms = sent.iter().map(|s| ms(s.done_us - s.due_us)).collect();
        w.rtt_ms = sent.iter().map(|s| ms(s.done_us - s.send_us)).collect();
        w.open = Some(OpenLoop {
            offered: due.len() as u64,
            completed_in_window: sent.iter().filter(|s| s.done_us <= end_us).count() as u64,
            seconds,
            backlog: sent
                .iter()
                .filter(|s| s.due_us < end_us && s.send_us > end_us)
                .count() as u64,
            gen_late_us: sent
                .iter()
                .map(|s| (s.send_us - s.due_us.max(s.free_us)) as f64)
                .collect(),
            conn_wait_us: sent
                .iter()
                .map(|s| s.free_us.saturating_sub(s.due_us) as f64)
                .collect(),
        });
        Ok(w)
    }

    /// `serve_scan`: back-to-back scans of Zipf-chosen attributes.
    ///
    /// Closed-loop queries on the first connection, for `seconds` or
    /// `max_queries`, whichever ends first.
    fn scan(&mut self, seconds: f64, max_queries: usize) -> Result<Window, String> {
        let mut w = Window::default();
        let start = Instant::now();
        let mut sent = 0;
        while sent < max_queries && start.elapsed().as_secs_f64() < seconds {
            sent += 1;
            let a = self.attrs[self.zipf.next_rank()];
            let body = self.body(a);
            self.tally.attempted += 1;
            let t = Instant::now();
            let reply = self.conns[0].post_query(&body);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let checked = reply.and_then(|r| {
                w.response_bytes += r.body.len() as u64;
                check_reply(&r, a, self.objects, &self.truth, &mut w.nrmse)
            });
            match checked {
                Ok(ans) => {
                    self.replay.push((a, ans.hash));
                    w.latency_ms.push(ms);
                    w.queries += 1;
                    w.objects += self.objects as u64;
                }
                Err(e) => {
                    self.replay.push((a, 0));
                    self.tally.fail(format!("scan {}: {e}", self.replay.len()));
                }
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        Ok(w)
    }

    /// `plan_build`: start-up cycles over every domain for successive
    /// engine seeds. Queries of the cold pass are this workload's query
    /// latencies; the warm-start pass is reported on its own.
    fn build(&mut self, seconds: f64) -> Result<Window, String> {
        let mut w = Window::default();
        let start = Instant::now();
        let dir = self.work.join("build-plans");
        'seeds: loop {
            let engine_seed = build_seed(self.seed, self.next_seed);
            self.next_seed += 1;
            for domain in BUILD_DOMAINS {
                if start.elapsed().as_secs_f64() >= seconds {
                    break 'seeds;
                }
                let spec = spec_of(domain)?;
                let attrs = all_attrs(&spec);
                let truth = Truth::sample(&spec, BUILD_POPULATION, engine_seed)?;
                let config =
                    serve_config(domain, BUILD_POPULATION, engine_seed, &dir, BUILD_OBJECTS);
                let cycle = start_cycle(
                    &config,
                    &spec,
                    &attrs,
                    BUILD_OBJECTS,
                    &truth,
                    &mut self.tally,
                )?;
                w.snap.add(cycle.snap);
                w.wall_s += cycle.seconds;
                w.queries += cycle.queries;
                w.objects += cycle.queries * BUILD_OBJECTS as u64;
                w.latency_ms.extend_from_slice(&cycle.plan_ms);
                w.plan_ms.extend_from_slice(&cycle.plan_ms);
                w.warm_ms.extend_from_slice(&cycle.warm_ms);
                w.nrmse.merge(&cycle.nrmse);
                w.response_bytes += cycle.response_bytes;
                drop(cycle);
                w.prep_mc += stored_prep_spend(&config, &spec, &attrs)?;
                w.plans += attrs.len() as u64;
            }
        }
        Ok(w)
    }
}

/// Timestamps (µs from window start) of one open-loop request.
struct Sent {
    due_us: u64,
    free_us: u64,
    send_us: u64,
    done_us: u64,
}
