//! The benchmark worker: builds one workload's database, runs its query list
//! in a closed loop with one client through `perm::Session`, checks every
//! result, and prints one JSON line per query on standard output. `run.py`
//! starts it under an address-space cap, collects the lines and computes the
//! metrics; when a query kills the worker, `run.py` records that query as
//! failed and starts a new worker at the next position of the list.
//!
//! ```text
//! permbench-worker --workload <name> --seed <n> --trace <0|1>
//!                  [--start <index>] [--budget-ms <ms>] [--setup-reps <k>]
//!                  [--min-positions <n>] [--repeat <index>:<times>,...]
//! ```
//!
//! `--repeat` runs no query list: it executes the listed positions again,
//! in rounds, each position until it has run its number of times.
//!
//! Between queries, outside every timed window, the worker times a fixed
//! calibration kernel that never touches the engine and prints those times
//! as `calib` lines: before every set-up, before a query whenever
//! [`CALIBRATION_INTERVAL`] has passed since the last burst, and at the end.
//! `run.py` scales each query's time by the kernel times measured around it.
//!
//! With `--trace 0` each query runs the way a user runs it: ad hoc through
//! `Session::prepare(_provenance)` + `Session::execute`, or as an execution
//! of a statement prepared once per cycle. With `--trace 1` the worker
//! instead calls each layer's public function itself, in the order and
//! configuration `Session` uses, records a span around every call, and
//! reruns the query through `Session` to check that the layer-by-layer
//! drive gave the same bag and the same operator count.

use perm::algebra::{Expr, Plan};
use perm::core::{ProvenanceQuery, TraceEvent, TraceKind, TraceSink};
use perm::exec::{optimize, plan_fingerprint, CompiledPlan, ExecError, OptimizerReport};
use perm::{CancelToken, Database, PermError, Prepared, QueryProfile, Relation, Session};
use perm::{SessionConfig, Strategy, Value};
use permbench::{Query, QuerySpec, Workload, SYNTH_STATEMENTS};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-query deadline: a safety bound far above the slowest completing
/// query (a Gen draw of TPC-H Q20 at about 11 s).
const DEADLINE: Duration = Duration::from_secs(60);
/// Per-session memory budget: a safety bound far above any completing
/// query's accounted state.
const MEMORY_BUDGET: u64 = 1 << 30;
/// Seed of the warm-up list: the same under every workload seed, so that
/// set-up warms up with the same synthetic draws in every run. One q2 or q3
/// draw costs 150–550 ms, which a seed-drawn warm-up spreads into `setup_s`.
const WARM_UP_SEED: u64 = 0x5EED_0000_0000_0001;
/// Runs of the calibration kernel in one burst.
const CALIBRATION_RUNS: usize = 5;
/// Least wall time between two calibration bursts during a query list.
/// A burst takes about 8 ms, so calibration adds about 4% to the wall
/// time of a run, none of it inside a timed window.
const CALIBRATION_INTERVAL: Duration = Duration::from_millis(200);

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    start: u64,
    budget: Duration,
    setup_reps: usize,
    /// Positions the list runs at least (`--min-positions`).
    min_positions: u64,
    /// Positions to execute again and how often (`--repeat`).
    repeat: Vec<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let number = |name: &str, default: Option<u64>| -> Result<u64, String> {
        match values.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a number")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    };
    let workload_name = values.get("workload").ok_or("--workload is required")?;
    let repeat = values
        .get("repeat")
        .map_or("", String::as_str)
        .split(',')
        .filter(|item| !item.is_empty())
        .map(|item| {
            let (index, times) = item.split_once(':').unwrap_or((item, ""));
            match (index.parse(), times.parse()) {
                (Ok(index), Ok(times)) => Ok((index, times)),
                _ => Err(format!("--repeat: `{item}` is not <index>:<times>")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    if values.contains_key("repeat") && repeat.is_empty() {
        return Err("--repeat needs at least one <index>:<times>".into());
    }
    Ok(Args {
        workload: Workload::from_name(workload_name)
            .ok_or_else(|| format!("unknown workload `{workload_name}`"))?,
        seed: number("seed", None)?,
        trace: number("trace", Some(0))? != 0,
        start: number("start", Some(0))?,
        budget: Duration::from_millis(number("budget-ms", Some(10_000))?),
        setup_reps: number("setup-reps", Some(1))?.max(1) as usize,
        min_positions: number("min-positions", Some(0))?,
        repeat,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("permbench-worker: {message}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    for rep in 1..=args.setup_reps {
        calibrate();
        let start = Instant::now();
        let db = args.workload.database();
        gen_ms.push(millis(start.elapsed()));
        let mut worker = Worker::new(&args, &db, epoch);
        worker.warm_up(false);
        setup_s.push(start.elapsed().as_secs_f64());
        if rep == args.setup_reps {
            worker.last_calibration = calibrate();
            emit(&format!(
                "{{\"type\":\"setup\",\"setup_s\":{},\"gen_ms\":{}}}",
                json_numbers(&setup_s),
                json_numbers(&gen_ms)
            ));
            if args.workload == Workload::SynthGen {
                worker.warm_up(true);
                worker.last_calibration = calibrate();
            }
            worker.memo.take();
            if args.repeat.is_empty() {
                worker.run(&args);
            } else {
                worker.repeat(&args.repeat);
            }
        }
    }
}

/// Counts sublink-memo traffic. The bundled `RingTraceSink` keeps only the
/// most recent events, and one Gen TPC-H Q22 alone records more than
/// 100 000 memo hits, so the benchmark counts instead of storing.
#[derive(Default)]
struct MemoCounter {
    hits: AtomicU64,
    inserts: AtomicU64,
    insert_bytes: AtomicU64,
}

impl TraceSink for MemoCounter {
    fn record(&self, event: TraceEvent) {
        match event.kind {
            TraceKind::MemoHit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            TraceKind::MemoInsert => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                self.insert_bytes.fetch_add(event.value, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl MemoCounter {
    /// Returns (hits, inserts, insert bytes) since the last call.
    fn take(&self) -> (u64, u64, u64) {
        (
            self.hits.swap(0, Ordering::Relaxed),
            self.inserts.swap(0, Ordering::Relaxed),
            self.insert_bytes.swap(0, Ordering::Relaxed),
        )
    }
}

/// Spans of one query (or of the set-up preparation), kept in memory and
/// written out when the query has finished.
struct Spans {
    epoch: Instant,
    /// (name, parent index, start ns, end ns) relative to `epoch`.
    spans: Vec<(&'static str, Option<usize>, u64, u64)>,
    open: Vec<usize>,
}

impl Spans {
    fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push((name, parent, start, start));
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].3 = end;
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|(name, parent, start, end)| {
                let parent = parent.map_or("null".to_string(), |p| p.to_string());
                format!("[\"{name}\",{parent},{start},{end}]")
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// A synthetic statement prepared once per cycle: the `Session` form, its
/// plain counterpart for the Theorem 4 check, and in traced runs the form
/// the layer-by-layer drive compiled on the traced session's executor.
struct Statement {
    prepared: Arc<Prepared>,
    plain: Arc<Prepared>,
    traced: Option<TracedPlan>,
}

/// What the layer-by-layer drive produced before execution.
struct TracedPlan {
    compiled: CompiledPlan,
    plan: Plan,
    layers: LayerCounts,
}

/// Counts read at the layer boundaries of one preparation.
#[derive(Default, Clone, Copy)]
struct LayerCounts {
    sql_calls: u64,
    ops_bound: u64,
    ops_rewritten: u64,
    prov_attrs: u64,
    report: OptimizerReport,
    sublinks_remaining: u64,
}

/// One traced query: the layer-by-layer drive's result (its optimized
/// plan and rows), its counts, and the `Session` rerun it is checked
/// against.
struct TracedRun {
    result: Result<(Plan, Relation), PermError>,
    layers: LayerCounts,
    before: ExecCounts,
    after: ExecCounts,
    rerun: Result<(Relation, QueryProfile), PermError>,
    rerun_ops: u64,
    rerun_ns: u64,
    /// The result check (reference interpreter or Theorem 4).
    checked: Option<String>,
}

/// The outcome of one query-list position.
#[derive(Default)]
struct Outcome {
    ns: u64,
    error: Option<(&'static str, String)>,
    ops: u64,
    rows: u64,
    fingerprint: u64,
    sublinks_remaining: u64,
    mismatch: Option<String>,
    /// Traced runs only: the layer counters, execution counters, memo
    /// traffic, the `Session` rerun's time and the spans.
    traced: Option<String>,
}

struct Worker<'a> {
    workload: Workload,
    seed: u64,
    db: &'a Database,
    config: SessionConfig,
    traced_config: SessionConfig,
    memo: Arc<MemoCounter>,
    epoch: Instant,
    trace: bool,
    /// `synth-gen`: the session its statements were prepared on and
    /// execute on, the session of their plain counterparts, and in traced
    /// runs the session whose executor the layer-by-layer drive uses.
    session: Option<Session<'a>>,
    plain_session: Option<Session<'a>>,
    traced_session: Option<Session<'a>>,
    statements: Vec<Statement>,
    /// Traced runs: the spans of the latest preparation of the synthetic
    /// statements.
    prepare_spans: Spans,
    /// Expected results per SQL text from the reference interpreter.
    reference: HashMap<String, Relation>,
    /// When the last calibration burst ended.
    last_calibration: Instant,
}

impl<'a> Worker<'a> {
    fn new(args: &Args, db: &'a Database, epoch: Instant) -> Worker<'a> {
        let mut config = SessionConfig {
            deadline: Some(DEADLINE),
            memory_budget: Some(MEMORY_BUDGET),
            ..SessionConfig::default()
        };
        if args.workload == Workload::SynthGen {
            config.strategy = Strategy::Gen;
        }
        let memo = Arc::new(MemoCounter::default());
        let traced_config = SessionConfig {
            trace_sink: Some(memo.clone() as Arc<dyn TraceSink>),
            ..config.clone()
        };
        let mut worker = Worker {
            workload: args.workload,
            seed: args.seed,
            db,
            config,
            traced_config,
            memo,
            epoch,
            trace: args.trace,
            session: None,
            plain_session: None,
            traced_session: None,
            statements: Vec::new(),
            prepare_spans: Spans::new(epoch),
            reference: HashMap::new(),
            last_calibration: Instant::now(),
        };
        if args.workload == Workload::SynthGen {
            worker.prepare_statements();
        }
        worker
    }

    /// Prepares the synthetic statements on fresh sessions: at set-up, and
    /// again before every cycle of the query list, so that each cycle starts
    /// from empty memos.
    fn prepare_statements(&mut self) {
        self.statements.clear();
        self.prepare_spans = Spans::new(self.epoch);
        let session = Session::with_config(self.db, self.config.clone());
        let plain_session = Session::with_config(
            self.db,
            SessionConfig {
                retain_memo: false,
                ..self.config.clone()
            },
        );
        let traced_session = self
            .trace
            .then(|| Session::with_config(self.db, self.traced_config.clone()));
        for (name, sql) in SYNTH_STATEMENTS {
            let prepared = session
                .prepare_provenance(sql)
                .unwrap_or_else(|e| panic!("preparing {name}: {e}"));
            let plain = plain_session
                .prepare(sql)
                .unwrap_or_else(|e| panic!("preparing plain {name}: {e}"));
            let traced = traced_session.as_ref().map(|traced| {
                let strategy = self.config.strategy;
                self.prepare_spans.enter("prepare");
                let out = drive_prepare(&mut self.prepare_spans, traced, sql, true, strategy);
                self.prepare_spans.exit();
                out.unwrap_or_else(|e| panic!("layer-by-layer preparation of {name}: {e}"))
            });
            self.statements.push(Statement {
                prepared,
                plain,
                traced,
            });
        }
        self.session = Some(session);
        self.plain_session = Some(plain_session);
        self.traced_session = traced_session;
    }

    /// Runs queries of the set with results unchecked: every TPC-H text
    /// once, plain and ad hoc; each synthetic statement once, or with
    /// `whole_set` every synthetic execution of a cycle. The first cycle of
    /// synthetic executions in a process runs 2–10% slower than the next
    /// ones, while the heap grows to its working size; the worker runs
    /// that cycle after set-up, untimed, outside `setup_s`.
    fn warm_up(&mut self, whole_set: bool) {
        let mut warmed = std::collections::HashSet::new();
        for index in 0..self.workload.cycle() {
            let spec = self.workload.query(WARM_UP_SEED, index);
            if self.workload == Workload::SynthGen
                && !whole_set
                && !warmed.insert(spec.shape.clone())
            {
                continue;
            }
            match &spec.query {
                Query::Adhoc(sql) => {
                    let session = Session::with_config(self.db, self.config.clone());
                    let _ = session.prepare(sql).and_then(|p| session.execute(&p, &[]));
                }
                Query::Prepared { statement, params } => {
                    let statement = &self.statements[*statement];
                    for (session, prepared) in [
                        (&self.session, &statement.prepared),
                        (&self.plain_session, &statement.plain),
                    ] {
                        let session = session.as_ref().expect("synth-gen has sessions");
                        let _ = session.execute(prepared, params);
                    }
                    if let (Some(traced), Some(plan)) = (&self.traced_session, &statement.traced) {
                        let executor = traced.executor();
                        executor.set_cancel_token(Some(CancelToken::with_deadline(DEADLINE)));
                        executor.bind_params(params.clone());
                        let _ = executor.execute_compiled(&plan.compiled, None);
                    }
                }
            }
        }
    }

    /// The closed loop: query after query from `args.start`, until the
    /// summed query time reaches the budget at the end of a cycle and the
    /// first `args.min_positions` positions have run.
    fn run(&mut self, args: &Args) {
        let mut spent = Duration::ZERO;
        let mut index = args.start;
        while spent < args.budget
            || index < args.min_positions
            || !index.is_multiple_of(self.workload.cycle())
        {
            spent += Duration::from_nanos(self.position(index));
            index += 1;
        }
        calibrate();
        emit("{\"type\":\"done\"}");
    }

    /// Executes the listed positions again in rounds: round `k` executes
    /// every position that is to run at least `k` times, in list order. A
    /// position's executions so spread over the whole pass instead of
    /// sitting back to back in one moment of the machine's speed.
    fn repeat(&mut self, positions: &[(u64, u64)]) {
        let rounds = positions.iter().map(|&(_, times)| times).max().unwrap_or(0);
        for round in 1..=rounds {
            for &(index, times) in positions {
                if times >= round {
                    self.position(index);
                }
            }
        }
        calibrate();
        emit("{\"type\":\"done\"}");
    }

    /// Runs the query at list position `index` between a `begin` and an
    /// `end` line; returns its time in ns.
    fn position(&mut self, index: u64) -> u64 {
        if self.workload == Workload::SynthGen && index.is_multiple_of(self.workload.cycle()) {
            self.prepare_statements();
            if self.trace {
                emit(&format!(
                    "{{\"type\":\"prepare_spans\",\"spans\":{}}}",
                    self.prepare_spans.to_json()
                ));
            }
        }
        if self.last_calibration.elapsed() >= CALIBRATION_INTERVAL {
            self.last_calibration = calibrate();
        }
        let spec = self.workload.query(self.seed, index);
        emit(&format!(
            "{{\"type\":\"begin\",\"i\":{index},\"shape\":\"{}\",\"draw\":{}}}",
            spec.shape, spec.draw
        ));
        let outcome = if self.trace {
            self.traced(&spec)
        } else {
            self.timed(&spec)
        };
        emit(&outcome.to_json(&spec));
        outcome.ns
    }

    /// One query as a user runs it.
    fn timed(&mut self, spec: &QuerySpec) -> Outcome {
        let mut outcome = Outcome::default();
        match &spec.query {
            Query::Adhoc(sql) => {
                let provenance = self.workload == Workload::TpchProv;
                let session = Session::with_config(self.db, self.config.clone());
                let start = Instant::now();
                let result = prepare_adhoc(&session, sql, provenance)
                    .and_then(|p| session.execute(&p, &[]).map(|r| (p, r)));
                outcome.ns = start.elapsed().as_nanos() as u64;
                outcome.ops = session.executor().operators_evaluated();
                match result {
                    Ok((prepared, relation)) => {
                        outcome.set_plan(prepared.plan(), &relation);
                        outcome.mismatch = self.check_adhoc(sql, &prepared, &relation);
                    }
                    Err(e) => outcome.set_error(&e),
                }
            }
            Query::Prepared { statement, params } => {
                let session = self.session.as_ref().expect("synth-gen has a session");
                let statement = &self.statements[*statement];
                let ops = session.executor().operators_evaluated();
                let start = Instant::now();
                let result = session.execute(&statement.prepared, params);
                outcome.ns = start.elapsed().as_nanos() as u64;
                outcome.ops = session.executor().operators_evaluated() - ops;
                match result {
                    Ok(relation) => {
                        outcome.set_plan(statement.prepared.plan(), &relation);
                        outcome.mismatch = self.check_prepared(statement, params, &relation);
                    }
                    Err(e) => outcome.set_error(&e),
                }
            }
        }
        outcome
    }

    /// One query driven layer by layer, with spans, then rerun through
    /// `Session` for the comparison.
    fn traced(&mut self, spec: &QuerySpec) -> Outcome {
        let mut spans = Spans::new(self.epoch);
        let run = match &spec.query {
            Query::Adhoc(sql) => self.traced_adhoc(&mut spans, sql),
            Query::Prepared { statement, params } => {
                self.traced_prepared(&mut spans, *statement, params)
            }
        };
        let mut outcome = Outcome::default();
        let root = spans.spans.first().copied().expect("query span");
        outcome.ns = root.3 - root.2;
        outcome.ops = run.after.ops - run.before.ops;
        let (hits, inserts, insert_bytes) = self.memo.take();
        let mut rows_in = 0;
        match (&run.result, &run.rerun) {
            (Ok((plan, relation)), Ok((reference, profile))) => {
                outcome.set_plan(plan, relation);
                rows_in = profile_rows_in(&profile.root);
                outcome.mismatch = run.checked.or_else(|| {
                    if !relation.bag_eq(reference) {
                        Some("layer-by-layer result differs from Session's".into())
                    } else if outcome.ops != run.rerun_ops {
                        Some(format!(
                            "layer-by-layer drive evaluated {} operators, Session {}",
                            outcome.ops, run.rerun_ops
                        ))
                    } else {
                        None
                    }
                });
            }
            (Err(e), Err(_)) => outcome.set_error(e),
            (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
                outcome.set_error(e);
                outcome.mismatch =
                    Some("layer-by-layer drive and Session disagree on failing".into());
            }
        }
        let (layers, report) = (run.layers, run.layers.report);
        outcome.traced = Some(format!(
            "\"layers\":{{\"sql_calls\":{},\"ops_bound\":{},\"ops_rewritten\":{},\
             \"prov_attrs\":{},\"rules_fired\":{},\"decorrelated\":{},\"passes\":{},\
             \"sublinks_remaining\":{},\"ops\":{},\"qcmp\":{},\"rows_out\":{},\
             \"peak_bytes\":{},\"batches\":{},\"fallback_rows\":{},\"rows_in\":{rows_in},\
             \"memo_hits\":{hits},\"memo_inserts\":{inserts},\"memo_insert_bytes\":{insert_bytes},\
             \"session_ns\":{}}},\"spans\":{}",
            layers.sql_calls,
            layers.ops_bound,
            layers.ops_rewritten,
            layers.prov_attrs,
            report.rules_fired(),
            report.sublinks_decorrelated,
            report.passes,
            layers.sublinks_remaining,
            outcome.ops,
            run.after.quantifier_comparisons - run.before.quantifier_comparisons,
            outcome.rows,
            run.after.peak_bytes,
            run.after.batches - run.before.batches,
            run.after.fallback_rows - run.before.fallback_rows,
            run.rerun_ns,
            spans.to_json(),
        ));
        outcome
    }

    /// An ad-hoc query: every layer inside the `query` span, on a fresh
    /// session, then the `Session` rerun on another.
    fn traced_adhoc(&mut self, spans: &mut Spans, sql: &str) -> TracedRun {
        let provenance = self.workload == Workload::TpchProv;
        let session = Session::with_config(self.db, self.traced_config.clone());
        spans.enter("query");
        let result = drive_prepare(spans, &session, sql, provenance, self.config.strategy)
            .and_then(|traced| {
                drive_execute(spans, &session, &traced.compiled, Vec::new())
                    .map(|relation| (traced, relation))
            });
        spans.exit();
        let layers = result.as_ref().map(|(t, _)| t.layers).unwrap_or_default();
        let reference = Session::with_config(self.db, self.config.clone());
        let start = Instant::now();
        let rerun = prepare_adhoc(&reference, sql, provenance)
            .and_then(|p| reference.execute_profiled(&p, &[]).map(|r| (p, r)));
        let rerun_ns = start.elapsed().as_nanos() as u64;
        let checked = match (&result, &rerun) {
            (Ok((_, relation)), Ok((prepared, _))) => self.check_adhoc(sql, prepared, relation),
            _ => None,
        };
        TracedRun {
            result: result.map(|(t, relation)| (t.plan, relation)),
            layers,
            before: ExecCounts::default(),
            after: ExecCounts::of(&session),
            rerun: rerun.map(|(_, r)| r),
            rerun_ops: reference.executor().operators_evaluated(),
            rerun_ns,
            checked,
        }
    }

    /// An execution of a synthetic statement prepared layer by layer at
    /// set-up, then the same execution of its `Session` form. The two
    /// sessions run the same executions in the same order, so their
    /// retained memos stay alike.
    fn traced_prepared(&self, spans: &mut Spans, statement: usize, params: &[Value]) -> TracedRun {
        let session = self.traced_session.as_ref().expect("traced session");
        let statement = &self.statements[statement];
        let plan = statement.traced.as_ref().expect("traced plan");
        let before = ExecCounts::of(session);
        spans.enter("query");
        let result = drive_execute(spans, session, &plan.compiled, params.to_vec());
        spans.exit();
        let after = ExecCounts::of(session);
        let reference = self.session.as_ref().expect("synth-gen has a session");
        let ops = reference.executor().operators_evaluated();
        let start = Instant::now();
        let rerun = reference.execute_profiled(&statement.prepared, params);
        let rerun_ns = start.elapsed().as_nanos() as u64;
        let checked = match &result {
            Ok(relation) => self.check_prepared(statement, params, relation),
            Err(_) => None,
        };
        TracedRun {
            result: result.map(|relation| (plan.plan.clone(), relation)),
            layers: plan.layers,
            before,
            after,
            rerun,
            rerun_ops: reference.executor().operators_evaluated() - ops,
            rerun_ns,
            checked,
        }
    }

    /// Checks an ad-hoc TPC-H result: a plain result must equal the
    /// reference interpreter's bag; a provenance result, projected on the
    /// original attributes, must equal the plain result as a set
    /// (Theorem 4, result preservation).
    fn check_adhoc(&mut self, sql: &str, prepared: &Prepared, result: &Relation) -> Option<String> {
        let db = self.db;
        let expected = self
            .reference
            .entry(sql.to_string())
            .or_insert_with(|| reference_result(db, sql));
        match prepared.descriptor() {
            None if !result.bag_eq(expected) => {
                Some("result differs from the reference interpreter".into())
            }
            None => None,
            Some(descriptor) => theorem4(result, descriptor.attr_count(), expected),
        }
    }

    /// Theorem 4 for one execution of a synthetic statement, against its
    /// plain counterpart run with the same parameters.
    fn check_prepared(
        &self,
        statement: &Statement,
        params: &[Value],
        result: &Relation,
    ) -> Option<String> {
        let session = self.plain_session.as_ref().expect("synth-gen has sessions");
        match session.execute(&statement.plain, params) {
            Ok(plain) => {
                let attrs = statement
                    .prepared
                    .descriptor()
                    .map_or(0, |d| d.attr_count());
                theorem4(result, attrs, &plain)
            }
            Err(e) => Some(format!("plain counterpart failed: {e}")),
        }
    }
}

/// Execution-side counters of a session's executor.
#[derive(Default, Clone, Copy)]
struct ExecCounts {
    ops: u64,
    quantifier_comparisons: u64,
    peak_bytes: u64,
    batches: u64,
    fallback_rows: u64,
}

impl ExecCounts {
    fn of(session: &Session<'_>) -> ExecCounts {
        let executor = session.executor();
        ExecCounts {
            ops: executor.operators_evaluated(),
            quantifier_comparisons: executor.quantifier_comparisons(),
            peak_bytes: executor.peak_bytes(),
            batches: executor.batches_vectorized(),
            fallback_rows: executor.batch_fallback_rows(),
        }
    }
}

fn prepare_adhoc(
    session: &Session<'_>,
    sql: &str,
    provenance: bool,
) -> Result<Arc<Prepared>, PermError> {
    if provenance {
        session.prepare_provenance(sql)
    } else {
        session.prepare(sql)
    }
}

/// Parse → bind → (provenance rewrite) → optimize → compile, one span per
/// layer, as `Session::prepare(_provenance)` runs them.
fn drive_prepare(
    spans: &mut Spans,
    session: &Session<'_>,
    sql: &str,
    provenance: bool,
    strategy: Strategy,
) -> Result<TracedPlan, PermError> {
    let db = session.database();
    let mut layers = LayerCounts {
        sql_calls: 2,
        ..LayerCounts::default()
    };
    let parsed = spans.span("sql.parse", || perm::sql::parse_query(sql))?;
    let plan = spans
        .span("sql.bind", || perm::sql::bind(db, &parsed))?
        .plan;
    layers.ops_bound = count_operators(&plan);
    let plan = if provenance {
        let rewritten = spans.span("core.rewrite", || {
            ProvenanceQuery::new(db, &plan).strategy(strategy).rewrite()
        })?;
        layers.prov_attrs = rewritten.descriptor.attr_count() as u64;
        rewritten.plan
    } else {
        plan
    };
    layers.ops_rewritten = count_operators(&plan);
    let (plan, report) = spans.span("exec.optimize", || optimize(&plan));
    layers.report = report;
    layers.sublinks_remaining = count_sublinks(&plan);
    let compiled = spans.span("exec.compile", || session.executor().prepare(&plan))?;
    Ok(TracedPlan {
        compiled,
        plan,
        layers,
    })
}

/// Arms the executor as `Session::execute` does (a fresh deadline token,
/// the parameter binding) and executes inside an `exec.execute` span.
fn drive_execute(
    spans: &mut Spans,
    session: &Session<'_>,
    compiled: &CompiledPlan,
    params: Vec<Value>,
) -> Result<Relation, PermError> {
    let executor = session.executor();
    executor.set_cancel_token(Some(CancelToken::with_deadline(DEADLINE)));
    executor.bind_params(params);
    Ok(spans.span("exec.execute", || executor.execute_compiled(compiled, None))?)
}

/// The expected plain result of a TPC-H text: the bound plan evaluated by
/// the reference interpreter (no optimizer, no compilation).
fn reference_result(db: &Database, sql: &str) -> Relation {
    let (plan, _) = perm::sql::compile(db, sql).expect("benchmark SQL binds");
    perm::Executor::new(db)
        .execute_unoptimized(&plan)
        .expect("the reference interpreter runs every benchmark query")
}

/// Theorem 4: the provenance result's original attributes, as a set, equal
/// the plain result's distinct tuples.
fn theorem4(provenance: &Relation, prov_attrs: usize, plain: &Relation) -> Option<String> {
    let arity = plain.schema().arity();
    if provenance.schema().arity() != arity + prov_attrs {
        return Some(format!(
            "provenance result has arity {}, expected {arity} + {prov_attrs}",
            provenance.schema().arity()
        ));
    }
    let positions: Vec<usize> = (0..arity).collect();
    let projected = Relation::from_rows(
        plain.schema().clone(),
        provenance
            .tuples()
            .iter()
            .map(|t| t.project(&positions).into_values())
            .collect(),
    );
    (!projected.set_eq(plain))
        .then(|| "provenance result projected on the original attributes differs from the plain result (Theorem 4)".into())
}

/// Operators of a plan, counting those inside sublink plans.
fn count_operators(plan: &Plan) -> u64 {
    1 + plan
        .children()
        .into_iter()
        .map(count_operators)
        .sum::<u64>()
        + sublink_plans(plan).map(count_operators).sum::<u64>()
}

/// Sublinks left in a plan, nested ones included.
fn count_sublinks(plan: &Plan) -> u64 {
    plan.children().into_iter().map(count_sublinks).sum::<u64>()
        + sublink_plans(plan)
            .map(|p| 1 + count_sublinks(p))
            .sum::<u64>()
}

fn sublink_plans(plan: &Plan) -> impl Iterator<Item = &Plan> {
    plan.expressions()
        .into_iter()
        .flat_map(|e| e.sublinks())
        .filter_map(|e| match e {
            Expr::Sublink { plan, .. } => Some(plan.as_ref()),
            _ => None,
        })
}

fn profile_rows_in(node: &perm::ProfileNode) -> u64 {
    node.rows_in + node.children.iter().map(profile_rows_in).sum::<u64>()
}

impl Outcome {
    fn set_plan(&mut self, plan: &Plan, relation: &Relation) {
        self.rows = relation.len() as u64;
        self.fingerprint = plan_fingerprint(plan);
        self.sublinks_remaining = count_sublinks(plan);
    }

    fn set_error(&mut self, error: &PermError) {
        let kind = match error {
            PermError::Exec(ExecError::Cancelled { .. }) => "cancelled",
            PermError::Exec(ExecError::ResourceExhausted { .. }) => "exhausted",
            _ => "error",
        };
        self.error = Some((kind, error.to_string()));
    }

    /// The `end` line of a query. It also carries the worker's thread count
    /// and peak resident set right after the query, read from
    /// `/proc/self/status`.
    fn to_json(&self, spec: &QuerySpec) -> String {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let field = |name: &str| -> u64 {
            status
                .lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
                .unwrap_or(0)
        };
        let mut out = format!(
            "{{\"type\":\"end\",\"i\":{},\"shape\":\"{}\",\"draw\":{},\"ns\":{},\"ops\":{},\
             \"rows\":{},\"fingerprint\":\"{:016x}\",\"sublinks_remaining\":{},\
             \"threads\":{},\"vm_hwm_kb\":{}",
            spec.index,
            spec.shape,
            spec.draw,
            self.ns,
            self.ops,
            self.rows,
            self.fingerprint,
            self.sublinks_remaining,
            field("Threads:"),
            field("VmHWM:"),
        );
        match &self.error {
            Some((kind, message)) => write!(
                out,
                ",\"error\":\"{kind}\",\"message\":{}",
                json_string(message)
            ),
            None => write!(out, ",\"error\":null"),
        }
        .expect("writing to a String");
        if let Some(mismatch) = &self.mismatch {
            write!(out, ",\"mismatch\":{}", json_string(mismatch)).expect("writing to a String");
        }
        if let Some(traced) = &self.traced {
            write!(out, ",{traced}").expect("writing to a String");
        }
        out.push('}');
        out
    }
}

/// Times [`CALIBRATION_RUNS`] runs of the calibration kernel and prints
/// them as a `calib` line; returns when the burst ended.
fn calibrate() -> Instant {
    thread_local! {
        static KERNEL: RefCell<CalibrationKernel> = RefCell::new(CalibrationKernel::new());
    }
    KERNEL.with_borrow_mut(|kernel| {
        let mut ns = Vec::with_capacity(CALIBRATION_RUNS);
        for _ in 0..CALIBRATION_RUNS {
            let start = Instant::now();
            std::hint::black_box(kernel.run());
            ns.push(start.elapsed().as_nanos().to_string());
        }
        emit(&format!("{{\"type\":\"calib\",\"ns\":[{}]}}", ns.join(",")));
    });
    Instant::now()
}

/// Entries the calibration kernel works on.
const KERNEL_ITEMS: usize = 4000;

/// The calibration kernel: a fixed piece of work, about 1.5 ms, that uses
/// none of the engine's code but the kinds of work the engine spends its
/// time on: string formatting, vector fills, a comparison sort and hash
/// lookups. How fast the machine runs it moves with how fast the machine
/// runs the engine; a plain arithmetic loop moves with the engine far less.
/// Its buffers are allocated once and reused, so its time does not depend
/// on the state the engine's queries left the allocator in.
struct CalibrationKernel {
    items: Vec<(String, Vec<u64>)>,
    order: Vec<usize>,
    sums: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl CalibrationKernel {
    fn new() -> CalibrationKernel {
        let mut sums = HashMap::default();
        sums.reserve(KERNEL_ITEMS);
        CalibrationKernel {
            items: (0..KERNEL_ITEMS)
                .map(|_| (String::with_capacity(16), Vec::with_capacity(8)))
                .collect(),
            order: Vec::with_capacity(KERNEL_ITEMS),
            sums,
        }
    }

    fn run(&mut self) -> u64 {
        let mut x: u64 = 99;
        for (i, (key, values)) in self.items.iter_mut().enumerate() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i as u64);
            key.clear();
            write!(key, "k{}", x % 100_000).expect("writing to a String");
            values.clear();
            values.extend(std::iter::repeat_n(x, (x % 7) as usize + 1));
        }
        let items = &self.items;
        self.order.clear();
        self.order.extend(0..items.len());
        self.order.sort_by(|&a, &b| items[a].0.cmp(&items[b].0));
        let hash = |key: &str| {
            let mut hasher = DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        self.sums.clear();
        for &i in &self.order {
            let (key, values) = &items[i];
            *self.sums.entry(hash(key)).or_insert(0) += values.iter().sum::<u64>() & 0xffff;
        }
        let mut acc = self.sums.len() as u64;
        for _ in 0..3 {
            for (key, values) in items {
                if let Some(sum) = self.sums.get(&hash(key)) {
                    acc = acc.wrapping_add(sum ^ values[0]);
                }
            }
        }
        acc
    }
}

fn emit(line: &str) {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").expect("writing to stdout");
    stdout.flush().expect("flushing stdout");
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
