//! The serving-grade API: an [`Engine`] owning the data, [`Session`]s that
//! prepare and execute statements, [`Prepared`] statements that carry the
//! whole parse → bind → rewrite → compile pipeline exactly once, and
//! structured results ([`Rows`] cursors and [`ProvenanceRows`] witness
//! views).
//!
//! The Perm approach computes provenance *inside* the relational model
//! precisely so an unmodified engine can serve it like any other query.
//! This module is the serving side of that bargain: a query — provenance or
//! plain — is prepared once and executed many times with different `$1`-style
//! parameter bindings, paying per execution only for execution.
//!
//! ```
//! use perm::{Engine, Value};
//! use perm::{Database, Relation, Schema};
//!
//! let mut db = Database::new();
//! db.create_table("items", Relation::from_rows(
//!     Schema::from_names(&["id", "price"]).with_qualifier("items"),
//!     vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(99)]],
//! )).unwrap();
//!
//! let engine = Engine::new(db);
//! let session = engine.session();
//! let expensive = session.prepare("SELECT id FROM items WHERE price > $1").unwrap();
//! assert_eq!(session.execute(&expensive, &[Value::Int(50)]).unwrap().len(), 1);
//! assert_eq!(session.execute(&expensive, &[Value::Int(5)]).unwrap().len(), 2);
//! // Two executions, one compilation.
//! assert_eq!(session.stats().compiles, 1);
//! ```

use crate::PermError;
use perm_algebra::Plan;
use perm_core::tracer::Tracer;
use perm_core::{ProvenanceDescriptor, ProvenanceQuery, Strategy};
use perm_core::{TraceEvent, TraceKind, TraceSink};
use perm_exec::{
    CancelToken, Degradation, Executor, FaultPlan, QueryProfile, SharedSublinkMemo, TraceSignal,
};
use perm_storage::{Database, Relation, Schema, Tuple, Value};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Re-export of the executor's streaming cursor: `Iterator<Item =
/// Result<Tuple, ExecError>>`. See [`Session::rows`].
pub use perm_exec::Rows;

/// The owning entry point: a database plus the default session
/// configuration and the **cross-session plan cache**. An engine is the
/// long-lived object of a serving process; each worker opens its own
/// (cheap) [`Session`] against it, and a statement prepared by any of them
/// is a cache hit for all of them.
pub struct Engine {
    db: Database,
    config: SessionConfig,
    plan_cache: PlanCache,
    /// Every shared sublink memo a session of this engine has attached
    /// (weakly, so the registry never keeps a memo alive): the set
    /// [`Engine::database_mut`] must invalidate, since cached sublink
    /// results are functions of the data. Deduplicated by pointer.
    attached_memos: Mutex<Vec<Weak<SharedSublinkMemo>>>,
}

impl Engine {
    /// Creates an engine over a database with the default
    /// [`SessionConfig`].
    pub fn new(db: Database) -> Engine {
        Engine {
            db,
            config: SessionConfig::default(),
            plan_cache: PlanCache::default(),
            attached_memos: Mutex::new(Vec::new()),
        }
    }

    /// Replaces the default configuration handed to [`Engine::session`].
    pub fn with_config(mut self, config: SessionConfig) -> Engine {
        self.config = config;
        self
    }

    /// Bounds the cross-session plan cache to at most `capacity` cached
    /// statements (insertion-order eviction; an evicted statement that is
    /// still hot simply re-enters on its next preparation). `None` — the
    /// default — keeps it unbounded, which is right when clients use `$n`
    /// parameters; bound it when serving ad-hoc texts with inlined
    /// literals, where every request is a new cache key.
    pub fn with_plan_cache_capacity(self, capacity: Option<usize>) -> Engine {
        self.plan_cache.set_capacity(capacity);
        self
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The default configuration handed to [`Engine::session`].
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the database (loading tables, etc.). Note that
    /// sessions borrow the engine, so data loading happens between
    /// sessions, not under them — exactly the exclusivity the borrow
    /// checker enforces.
    ///
    /// Taking this invalidates everything derived from the data: the
    /// cross-session plan cache (prepared statements bind against catalog
    /// schemas), the configured shared sublink memo, and every shared
    /// sublink memo any session of this engine has attached (cached
    /// sublink results are functions of the data; the engine remembers
    /// attached memos weakly for exactly this moment).
    pub fn database_mut(&mut self) -> &mut Database {
        self.plan_cache.clear();
        if let Some(memo) = &self.config.shared_sublink_memo {
            memo.clear();
        }
        let mut attached = self.attached_memos.lock().expect("memo registry poisoned");
        attached.retain(|weak| match weak.upgrade() {
            Some(memo) => {
                memo.clear();
                true
            }
            None => false,
        });
        &mut self.db
    }

    /// Opens a session with the engine's default configuration.
    pub fn session(&self) -> Session<'_> {
        self.session_with(self.config.clone())
    }

    /// Opens a session with an explicit configuration.
    pub fn session_with(&self, config: SessionConfig) -> Session<'_> {
        if let Some(memo) = &config.shared_sublink_memo {
            self.register_memo(memo);
        }
        let mut session = Session::with_config(&self.db, config);
        session.plan_cache = Some(&self.plan_cache);
        session
    }

    /// Remembers a session-attached shared memo (weakly, deduplicated) so
    /// [`Engine::database_mut`] can invalidate it.
    fn register_memo(&self, memo: &Arc<SharedSublinkMemo>) {
        let mut attached = self.attached_memos.lock().expect("memo registry poisoned");
        attached.retain(|weak| weak.strong_count() > 0);
        if !attached
            .iter()
            .any(|weak| weak.as_ptr() == Arc::as_ptr(memo))
        {
            attached.push(Arc::downgrade(memo));
        }
    }

    /// Hit/miss/entry counters of the cross-session plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drops every cached prepared statement (counters keep running).
    /// Statements already handed out stay valid — the cache holds `Arc`s.
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }
}

/// The cache key of one prepared statement: the SQL text plus the parts of
/// the [`SessionConfig`] that shape the *prepared form* — the rewrite
/// strategy and the tracer toggle, and whether provenance was forced by
/// [`Session::prepare_provenance`] rather than the `SELECT PROVENANCE`
/// marker (which lives in the text itself). Execution-only knobs (memo
/// toggles, capacities, retention) are deliberately *not* part of the key:
/// sessions differing only in those share one compiled plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    sql: String,
    forced_provenance: bool,
    strategy: Strategy,
    tracer: bool,
    optimize: bool,
}

/// The engine's cross-session plan cache: SQL text (+ config fingerprint)
/// → shared [`Prepared`]. A plain mutex-guarded map — preparation is rare
/// and expensive next to execution, so one lock is not a bottleneck; the
/// hot path (execution) never touches it. An optional capacity bound
/// ([`Engine::with_plan_cache_capacity`]) evicts in insertion order.
#[derive(Default)]
struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<PlanKey, Arc<Prepared>>,
    /// Insertion order of the live keys, for capacity eviction. Only
    /// maintained while a capacity is set (empty otherwise).
    order: VecDeque<PlanKey>,
    capacity: Option<usize>,
}

impl PlanCacheInner {
    fn evict_over_capacity(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.map.len() > capacity.max(1) {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => {
                    // Entries inserted while unbounded have no order record;
                    // rebuild it (arbitrary order is a valid insertion
                    // history for them) and retry.
                    self.order = self.map.keys().cloned().collect();
                    if self.order.is_empty() {
                        break;
                    }
                }
            }
        }
    }
}

impl PlanCache {
    fn set_capacity(&self, capacity: Option<usize>) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.capacity = capacity;
        if capacity.is_none() {
            inner.order.clear();
        }
        inner.evict_over_capacity();
    }

    fn get(&self, key: &PlanKey) -> Option<Arc<Prepared>> {
        let hit = self
            .inner
            .lock()
            .expect("plan cache poisoned")
            .map
            .get(key)
            .cloned();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Inserts a freshly prepared statement and returns the *canonical*
    /// one: two sessions racing to prepare the same statement both get
    /// here, the incumbent wins, and the loser's compilation is discarded
    /// — including by its own preparer, which adopts the returned
    /// incumbent so every holder shares one set of sublink ids (and hence
    /// one set of shared-memo keys).
    fn insert(&self, key: PlanKey, prepared: Arc<Prepared>) -> Arc<Prepared> {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if let Some(incumbent) = inner.map.get(&key) {
            return Arc::clone(incumbent);
        }
        if inner.capacity.is_some() {
            inner.order.push_back(key.clone());
        }
        inner.map.insert(key, Arc::clone(&prepared));
        inner.evict_over_capacity();
        prepared
    }

    fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.clear();
        inner.order.clear();
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("plan cache poisoned").map.len(),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.stats().fmt(f)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.db.table_names())
            .field("config", &self.config)
            .field("plan_cache", &self.plan_cache)
            .finish()
    }
}

/// Counters of the engine-wide plan cache ([`Engine::plan_cache_stats`]).
/// Per-session views of the same traffic are on [`SessionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Preparations served from the cache (no parse/bind/rewrite/compile).
    pub hits: u64,
    /// Preparations that had to run the full pipeline.
    pub misses: u64,
    /// Statements currently cached.
    pub entries: usize,
}

/// Session configuration: every execution toggle that used to be scattered
/// across free functions and executor builder methods, in one place.
#[derive(Clone)]
pub struct SessionConfig {
    /// The provenance rewrite strategy (default [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Whether correlated sublinks are memoized per distinct binding
    /// (default `true`; the uncorrelated InitPlan caching stays on either
    /// way).
    pub sublink_memo: bool,
    /// Optional LRU bound on each sublink/verdict memo (default `None`,
    /// i.e. unbounded — the established behaviour). Bounding the memos
    /// trades repeated sublink work for bounded memory on
    /// high-cardinality correlations.
    pub memo_capacity: Option<usize>,
    /// Whether memo entries are retained across executions of the same
    /// [`Prepared`] statement (default `true` — parameter values are part
    /// of every memo key, so reuse is safe and is the point of preparing).
    /// Ad-hoc [`Session::run`] under `false` keeps the classic
    /// clear-per-execution semantics.
    pub retain_memo: bool,
    /// Whether prepared plans run through the algebraic optimizer
    /// ([`perm_exec::optimize()`]) between the (provenance) rewrite and
    /// compilation (default `true`). The headline rule decorrelates
    /// `EXISTS` / `NOT EXISTS` / `IN` / `= ANY` sublinks into hash
    /// semi/anti joins; predicate pushdown, projection pruning and constant
    /// folding ride in the same fixpoint. Results, errors and provenance
    /// witnesses are identical either way (differentially tested); `false`
    /// keeps the memo-only plan shape — the measurement baseline of
    /// `harness opt`. Part of the plan-cache key: the prepared form
    /// differs.
    pub optimize: bool,
    /// Compute provenance with the reference tracer instead of the rewrite
    /// strategies (default `false`). The tracer is the paper's closed-form
    /// characterisation evaluated tuple by tuple — the test oracle — and
    /// does not support query parameters or streaming.
    pub tracer: bool,
    /// Optional cross-thread sublink memo (default `None`). When set, every
    /// session opened with this configuration attaches the memo to its
    /// executor ([`perm_exec::Executor::with_shared_memo`]), so compiled
    /// correlated-sublink results and `ANY`/`ALL` verdicts are shared
    /// between sessions — across worker threads. The concurrent serving
    /// subsystem (`perm-serve`) sets this for its worker sessions; combine
    /// with `retain_memo` (the default) so the warmed entries survive
    /// between executions.
    ///
    /// A shared memo is engine-lifecycle state: sessions never clear it
    /// (only [`Engine::database_mut`] or the owner does), so entries from
    /// statements that bypass the plan cache — [`Session::prepare_plan`],
    /// or any preparation repeated after a cache clear — are keyed by
    /// sublink ids that later preparations never reuse and sit there as
    /// dead weight. Serve plan-cached SQL statements through it (their ids
    /// are stable, so entries keep hitting), and bound it with
    /// [`SharedSublinkMemo::with_config`] when the workload also carries
    /// ad-hoc traffic.
    pub shared_sublink_memo: Option<Arc<SharedSublinkMemo>>,
    /// Optional per-execution deadline (default `None`). When set, every
    /// [`Session::execute`]/[`Session::rows`] call mints a fresh
    /// [`CancelToken`] with this time budget; an execution that overruns it
    /// is cancelled cooperatively at the next batch boundary and surfaces
    /// as [`perm_exec::ExecError::Cancelled`]. Per-call override:
    /// [`Session::execute_with_deadline`]. Not part of the plan-cache key —
    /// sessions differing only in deadline share compiled plans.
    pub deadline: Option<Duration>,
    /// Optional memory budget in bytes for the session's executor (default
    /// `None` = unbounded). Execution state (join build tables, aggregation
    /// groups, sort keys) and memo entries are accounted against it; under
    /// pressure the memos are reclaimed first (a speed loss, not an error),
    /// and only when an operator still cannot grow does execution fail with
    /// [`perm_exec::ExecError::ResourceExhausted`] naming the operator.
    /// Execution-only, like the memo knobs: not part of the plan-cache key.
    pub memory_budget: Option<u64>,
    /// Whether execution may **spill to disk** under memory pressure
    /// (default `false`). With a [`SessionConfig::memory_budget`] set and
    /// spilling on, the growing operators go out of core instead of
    /// failing — grace hash join, external merge sort, partitioned
    /// aggregation — and reclaimed sublink-memo entries are persisted for
    /// reload instead of dropped, demoting
    /// [`perm_exec::ExecError::ResourceExhausted`] to a last resort.
    /// Results are bag- and order-identical to in-memory execution; the
    /// spill counters on [`SessionStats`] and
    /// [`SessionStats::degradation`] record what happened. Execution-only:
    /// not part of the plan-cache key.
    pub spill: bool,
    /// Base directory for spill files (default `None` = the system temp
    /// dir). The session's executor creates a process-unique subdirectory
    /// inside it and removes that subdirectory when the session drops.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Deterministic fault injection for resilience testing (default
    /// `None`): the plan is installed on the session's executor and fires
    /// at the configured N-th checkpoint/memo/operator event. Serving
    /// tests use this to provoke cancellations, budget exhaustion and
    /// worker panics at exact, reproducible points.
    pub fault_plan: Option<FaultPlan>,
    /// Optional structured-trace sink (default `None`). When set, every
    /// session opened with this configuration records
    /// [`perm_core::TraceEvent`]s into it: one [`TraceKind::Phase`] span
    /// per completed pipeline phase (`parse`, `bind`, `rewrite`, `optimize`,
    /// `compile`, `execute`, each carrying its wall time in nanoseconds),
    /// plus the
    /// executor's resilience events — sublink-memo inserts and hits, spill
    /// writes, degradation-rung transitions, and cancellation checkpoints
    /// that actually fired. With no sink attached the executor's emission
    /// seam is a single `Option` check; nothing is allocated or recorded.
    /// The bundled [`perm_core::RingTraceSink`] keeps the most recent
    /// events in a bounded ring; the trait is `Send + Sync`, so one sink
    /// may observe many sessions (the serving worker pool does exactly
    /// that). Execution-only: not part of the plan-cache key.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            strategy: Strategy::Auto,
            sublink_memo: true,
            memo_capacity: None,
            retain_memo: true,
            optimize: true,
            tracer: false,
            shared_sublink_memo: None,
            deadline: None,
            memory_budget: None,
            spill: false,
            spill_dir: None,
            fault_plan: None,
            trace_sink: None,
        }
    }
}

impl std::fmt::Debug for SessionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual only because `dyn TraceSink` has no `Debug`; every other
        // field is shown as the derive would.
        f.debug_struct("SessionConfig")
            .field("strategy", &self.strategy)
            .field("sublink_memo", &self.sublink_memo)
            .field("memo_capacity", &self.memo_capacity)
            .field("retain_memo", &self.retain_memo)
            .field("optimize", &self.optimize)
            .field("tracer", &self.tracer)
            .field("shared_sublink_memo", &self.shared_sublink_memo)
            .field("deadline", &self.deadline)
            .field("memory_budget", &self.memory_budget)
            .field("spill", &self.spill)
            .field("spill_dir", &self.spill_dir)
            .field("fault_plan", &self.fault_plan)
            .field("trace_sink", &self.trace_sink.as_ref().map(|_| ".."))
            .finish()
    }
}

/// Bridges the executor-side [`TraceSignal`] (emitted by the resilience
/// governor, which cannot depend on `perm-core`) into the sink-side
/// [`TraceEvent`]. Runs only when a sink is attached.
fn bridge_signal(signal: TraceSignal) -> TraceEvent {
    match signal {
        TraceSignal::MemoInsert { label, bytes } => {
            TraceEvent::new(TraceKind::MemoInsert, label, bytes)
        }
        TraceSignal::MemoHit { label } => TraceEvent::new(TraceKind::MemoHit, label, 0),
        TraceSignal::Spill { label, bytes } => TraceEvent::new(TraceKind::Spill, label, bytes),
        TraceSignal::Rung { rung } => TraceEvent::new(TraceKind::Rung, format!("{rung:?}"), 0),
        TraceSignal::CancelFired { operator } => {
            TraceEvent::new(TraceKind::CancelFired, operator, 0)
        }
    }
}

/// Pipeline counters of one session, for observability and for asserting
/// the prepared-statement contract (re-execution performs zero parse, bind,
/// rewrite or compile work).
///
/// # Counter semantics
///
/// Every counter **accumulates monotonically over the session's lifetime**.
/// Nothing resets between executions — not between two executions of one
/// [`Prepared`] statement, not across statements, not when
/// [`Session::run`] clears ad-hoc memo entries. Differencing two snapshots
/// therefore attributes work to exactly the executions in between, which
/// is how the prepared-statement contract is asserted: after a prepare,
/// re-executing must advance `executions` (and execution-side counters
/// like `vectorized_batches` and `cancel_checks`) while `parses`, `binds`,
/// `rewrites` and `compiles` stay put.
///
/// Three fields are not event counters but still move monotonically:
/// [`SessionStats::peak_bytes`] and [`SessionStats::degradation`] are
/// high-water marks (the worst value ever observed, under byte and rung
/// ordering respectively), and [`SessionStats::buffer_pool_capacity`] is a
/// configuration gauge — constant for the session's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// SQL texts parsed.
    pub parses: u64,
    /// Parsed queries bound against the catalog.
    pub binds: u64,
    /// Provenance rewrites performed.
    pub rewrites: u64,
    /// Optimizer rule applications across this session's fresh
    /// preparations (decorrelations + constant folds + predicate pushes +
    /// projection prunes). Like `compiles`, a plan-cache hit advances
    /// nothing — the cached statement was optimized by the session that
    /// prepared it.
    pub optimizer_rules_fired: u64,
    /// Sublinks this session's fresh preparations decorrelated into
    /// semi/anti joins (a subset of `optimizer_rules_fired`).
    pub sublinks_decorrelated: u64,
    /// Plans compiled to slot-resolved form.
    pub compiles: u64,
    /// Statement executions (materialised or streaming or traced).
    pub executions: u64,
    /// Preparations this session served from the engine's cross-session
    /// plan cache (each such prepare did zero parse/bind/rewrite/compile
    /// work anywhere — the statement was compiled by an earlier session).
    pub plan_cache_hits: u64,
    /// Preparations this session ran through the full pipeline and
    /// published to the engine's plan cache (or ran privately, for
    /// sessions opened without an engine).
    pub plan_cache_misses: u64,
    /// Expression-over-batch evaluations performed by the vectorized
    /// compiled evaluator (one per expression per batch of up to
    /// [`perm_exec::BATCH_ROWS`] rows).
    pub vectorized_batches: u64,
    /// Rows a vectorized batch handed back to the per-tuple evaluator
    /// because their expression subtree carries a sublink — the fallback
    /// that keeps the parameterized sublink memo seam untouched.
    pub sublink_fallback_rows: u64,
    /// Column blocks whose typed lanes were actually materialised by the
    /// columnar evaluator (a block is counted on first lane access, not
    /// per batch).
    pub columnar_blocks: u64,
    /// Rows the columnar evaluator handed back to the row-major `Value`
    /// path — mixed-type or otherwise untyped lanes, string/date kernels
    /// without a typed fast path, and sublink-bearing subtrees (which also
    /// count into [`SessionStats::sublink_fallback_rows`]).
    pub columnar_fallback_rows: u64,
    /// Cancellation checkpoints polled by the executor (batch boundaries,
    /// cursor refills, sublink entries). Monotone over the session's life;
    /// the gap between two snapshots bounds how often a cancel or deadline
    /// could have been observed in between.
    pub cancel_checks: u64,
    /// High-water mark of accounted bytes (operator state + memo entries)
    /// seen by the executor's budget accountant. Tracked whether or not a
    /// [`SessionConfig::memory_budget`] is set whenever memo entries exist;
    /// transient operator state is only accounted under a budget.
    pub peak_bytes: u64,
    /// Total payload bytes written to spill files (grace-join partitions,
    /// sort runs, aggregate partitions, persisted memo entries). Zero
    /// unless [`SessionConfig::spill`] is on and pressure occurred.
    pub spilled_bytes: u64,
    /// Spill partition files and sort runs created.
    pub spill_partitions: u64,
    /// Buffer-pool hits while reading spill files back.
    pub buffer_pool_hits: u64,
    /// Buffer-pool misses (page loads from disk) while reading spill files.
    pub buffer_pool_misses: u64,
    /// Pages evicted from the spill-file buffer pool to admit new ones —
    /// the churn signal that, next to the hit/miss split, tells an
    /// undersized pool from a cold one.
    pub buffer_pool_evictions: u64,
    /// Configured frame capacity of the spill-file buffer pool (a gauge,
    /// not a counter; zero when the session has no spill manager).
    pub buffer_pool_capacity: u64,
    /// Worst [`Degradation`] rung the executor reached under memory
    /// pressure: `None` (never over budget), `SpilledToDisk` (state moved
    /// to disk, no work lost), `ReclaimedMemos` (cached sublink results
    /// dropped) or `Exhausted` (a query failed).
    pub degradation: Degradation,
}

/// A session: the unit of statement preparation and execution. Holds one
/// [`Executor`] so sublink memos persist across executions according to the
/// configured policy. Cheap to create; not `Sync` — one session per worker.
pub struct Session<'a> {
    db: &'a Database,
    config: SessionConfig,
    executor: Executor<'a>,
    /// The engine's cross-session plan cache; `None` for sessions opened
    /// directly over a database ([`Session::new`]), which prepare privately.
    plan_cache: Option<&'a PlanCache>,
    parses: Cell<u64>,
    binds: Cell<u64>,
    rewrites: Cell<u64>,
    optimizer_rules_fired: Cell<u64>,
    sublinks_decorrelated: Cell<u64>,
    executions: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    /// Whether the executor's current cancel token was minted for a
    /// deadline by [`Session::bind_checked`]. Such a token must not leak
    /// into a later deadline-less execution (an expired deadline would
    /// cancel it spuriously), while a token installed by the user via
    /// [`Session::cancel_handle`] is theirs and is left in place.
    deadline_token: Cell<bool>,
}

/// How a prepared statement produces its result.
#[derive(Debug)]
enum PreparedKind {
    /// An ordinary query.
    Plain,
    /// A provenance query rewritten by a strategy; the descriptor maps the
    /// appended provenance attributes back to base-relation accesses.
    Provenance { descriptor: ProvenanceDescriptor },
    /// A provenance query computed by the reference tracer at execution
    /// time (no rewrite; the logical plan is traced directly).
    Traced { descriptor: ProvenanceDescriptor },
}

/// A prepared statement: the result of running parse → bind → (optional)
/// provenance rewrite → compile exactly once. Executing it again costs only
/// execution. A `Prepared` owns its compiled form and can outlive the
/// session that prepared it (sublink identities are process-unique), but it
/// is only valid against the database it was prepared on.
#[derive(Debug)]
pub struct Prepared {
    sql: Option<String>,
    /// The bound (and, for provenance statements, rewritten) logical plan
    /// as it entered the optimizer — the reference shape.
    bound_plan: Plan,
    /// What the optimizer did to [`Prepared::bound_plan`]; all-zero when
    /// [`SessionConfig::optimize`] was off (then `plan == bound_plan`).
    optimizer: perm_exec::OptimizerReport,
    /// The logical plan that was compiled: the optimized form of
    /// [`Prepared::bound_plan`] (identical when the optimizer was off or
    /// fired no rule).
    plan: Plan,
    /// The slot-resolved physical form; `None` only for tracer statements,
    /// which interpret the logical plan directly.
    compiled: Option<perm_exec::CompiledPlan>,
    kind: PreparedKind,
    schema: Schema,
    param_count: usize,
}

impl Prepared {
    /// The SQL text this statement was prepared from, when it came from
    /// SQL.
    pub fn sql(&self) -> Option<&str> {
        self.sql.as_deref()
    }

    /// The output schema (for provenance statements: original attributes
    /// followed by the provenance attributes).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of `$n` parameter slots the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The provenance descriptor, when this is a provenance statement.
    pub fn descriptor(&self) -> Option<&ProvenanceDescriptor> {
        match &self.kind {
            PreparedKind::Plain => None,
            PreparedKind::Provenance { descriptor } | PreparedKind::Traced { descriptor } => {
                Some(descriptor)
            }
        }
    }

    /// The logical plan that was compiled: for sessions with
    /// [`SessionConfig::optimize`] on (the default), the *optimized* form
    /// of the bound plan. The pre-optimization shape is
    /// [`Prepared::bound_plan`].
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The bound (and, for provenance statements, rewritten) logical plan
    /// *before* the optimizer ran — the reference shape
    /// [`Session::explain`] diffs against.
    pub fn bound_plan(&self) -> &Plan {
        &self.bound_plan
    }

    /// What the optimizer did to this statement (all-zero when
    /// [`SessionConfig::optimize`] was off or no rule fired).
    pub fn optimizer_report(&self) -> perm_exec::OptimizerReport {
        self.optimizer
    }

    /// The compiled physical form; `None` only for tracer statements. The
    /// concurrent serving subsystem walks this to find correlated sublinks
    /// whose binding domains it can partition across worker threads.
    pub fn compiled_plan(&self) -> Option<&perm_exec::CompiledPlan> {
        self.compiled.as_ref()
    }
}

impl<'a> Session<'a> {
    /// Opens a session with the default configuration directly over a
    /// database — the escape hatch for callers that manage the database
    /// themselves.
    pub fn new(db: &'a Database) -> Session<'a> {
        Session::with_config(db, SessionConfig::default())
    }

    /// Opens a session with an explicit configuration.
    pub fn with_config(db: &'a Database, config: SessionConfig) -> Session<'a> {
        let mut executor = Executor::new(db)
            .with_sublink_memo(config.sublink_memo)
            .with_memo_capacity(config.memo_capacity)
            .with_memo_retention(config.retain_memo)
            .with_memory_budget(config.memory_budget)
            .with_spill(config.spill)
            .with_spill_dir(config.spill_dir.clone());
        if let Some(memo) = &config.shared_sublink_memo {
            executor = executor.with_shared_memo(Arc::clone(memo));
        }
        if let Some(plan) = &config.fault_plan {
            executor = executor.with_fault_plan(plan.clone());
        }
        if let Some(sink) = &config.trace_sink {
            let sink = Arc::clone(sink);
            executor.set_trace_hook(Some(Rc::new(move |signal| {
                sink.record(bridge_signal(signal))
            })));
        }
        Session {
            db,
            config,
            executor,
            plan_cache: None,
            parses: Cell::new(0),
            binds: Cell::new(0),
            rewrites: Cell::new(0),
            optimizer_rules_fired: Cell::new(0),
            sublinks_decorrelated: Cell::new(0),
            executions: Cell::new(0),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            deadline_token: Cell::new(false),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The database this session reads.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The session's executor — diagnostic counters
    /// ([`Executor::operators_evaluated`],
    /// [`Executor::quantifier_comparisons`]) and low-level execution live
    /// here.
    pub fn executor(&self) -> &Executor<'a> {
        &self.executor
    }

    /// Records one completed pipeline phase into the configured trace sink
    /// (a no-op without one). Only *completed* phases are recorded: a phase
    /// that errors contributes no span.
    fn trace_phase(&self, phase: &'static str, start: Instant) {
        if let Some(sink) = &self.config.trace_sink {
            sink.record(TraceEvent::new(
                TraceKind::Phase,
                phase,
                start.elapsed().as_nanos() as u64,
            ));
        }
    }

    /// A snapshot of the session's pipeline counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            parses: self.parses.get(),
            binds: self.binds.get(),
            rewrites: self.rewrites.get(),
            optimizer_rules_fired: self.optimizer_rules_fired.get(),
            sublinks_decorrelated: self.sublinks_decorrelated.get(),
            compiles: self.executor.statements_compiled(),
            executions: self.executions.get(),
            plan_cache_hits: self.cache_hits.get(),
            plan_cache_misses: self.cache_misses.get(),
            vectorized_batches: self.executor.batches_vectorized(),
            sublink_fallback_rows: self.executor.batch_fallback_rows(),
            columnar_blocks: self.executor.columnar_blocks(),
            columnar_fallback_rows: self.executor.columnar_fallback_rows(),
            cancel_checks: self.executor.cancel_checks(),
            peak_bytes: self.executor.peak_bytes(),
            spilled_bytes: self.executor.spilled_bytes(),
            spill_partitions: self.executor.spill_partitions(),
            buffer_pool_hits: self.executor.buffer_pool_hits(),
            buffer_pool_misses: self.executor.buffer_pool_misses(),
            buffer_pool_evictions: self.executor.buffer_pool_evictions(),
            buffer_pool_capacity: self.executor.buffer_pool_capacity(),
            degradation: self.executor.degradation(),
        }
    }

    /// Prepares a SQL statement: parse → bind → provenance rewrite (if the
    /// query carries the `SELECT PROVENANCE` marker) → compile, once. The
    /// returned [`Prepared`] executes many times via [`Session::execute`],
    /// [`Session::rows`] or [`Session::provenance_rows`].
    ///
    /// Sessions opened from an [`Engine`] first consult the engine's
    /// cross-session plan cache: a statement any session of this engine
    /// already prepared (under the same strategy/tracer configuration) is
    /// returned as a shared handle with zero pipeline work — see
    /// [`SessionStats::plan_cache_hits`] and [`Engine::plan_cache_stats`].
    pub fn prepare(&self, sql: &str) -> Result<Arc<Prepared>, PermError> {
        self.prepare_sql(sql, false)
    }

    /// Prepares a SQL statement for provenance computation whether or not
    /// it carries the `PROVENANCE` keyword. Plan-cached like
    /// [`Session::prepare`] (under a distinct cache key, so the same text
    /// prepared plain and forced-provenance are two entries).
    pub fn prepare_provenance(&self, sql: &str) -> Result<Arc<Prepared>, PermError> {
        self.prepare_sql(sql, true)
    }

    fn prepare_sql(&self, sql: &str, forced_provenance: bool) -> Result<Arc<Prepared>, PermError> {
        let Some(cache) = self.plan_cache else {
            self.cache_misses.set(self.cache_misses.get() + 1);
            return Ok(Arc::new(self.prepare_fresh(sql, forced_provenance)?));
        };
        let key = PlanKey {
            sql: sql.to_owned(),
            forced_provenance,
            strategy: self.config.strategy,
            tracer: self.config.tracer,
            optimize: self.config.optimize,
        };
        if let Some(hit) = cache.get(&key) {
            self.cache_hits.set(self.cache_hits.get() + 1);
            return Ok(hit);
        }
        self.cache_misses.set(self.cache_misses.get() + 1);
        let prepared = Arc::new(self.prepare_fresh(sql, forced_provenance)?);
        // `insert` returns the canonical statement — ours, unless another
        // session won the race while we were compiling.
        Ok(cache.insert(key, prepared))
    }

    fn prepare_fresh(&self, sql: &str, forced_provenance: bool) -> Result<Prepared, PermError> {
        let (plan, wants_provenance) = self.parse_and_bind(sql)?;
        self.prepare_inner(Some(sql), plan, forced_provenance || wants_provenance)
    }

    /// Prepares an algebra plan directly (no SQL front end). Plan
    /// preparations bypass the plan cache — there is no text to key on —
    /// so each call mints fresh sublink identities: keep the returned
    /// statement and re-execute it rather than re-preparing in a loop,
    /// especially on sessions with a shared sublink memo (repeated
    /// preparation would fill it with entries no later statement can hit;
    /// see [`SessionConfig::shared_sublink_memo`]).
    pub fn prepare_plan(&self, plan: &Plan) -> Result<Arc<Prepared>, PermError> {
        Ok(Arc::new(self.prepare_inner(None, plan.clone(), false)?))
    }

    /// Prepares an algebra plan for provenance computation.
    pub fn prepare_provenance_plan(&self, plan: &Plan) -> Result<Arc<Prepared>, PermError> {
        Ok(Arc::new(self.prepare_inner(None, plan.clone(), true)?))
    }

    fn parse_and_bind(&self, sql: &str) -> Result<(Plan, bool), PermError> {
        let start = Instant::now();
        let parsed = perm_sql::parse_query(sql)?;
        self.parses.set(self.parses.get() + 1);
        self.trace_phase("parse", start);
        let provenance = parsed.provenance;
        let start = Instant::now();
        let bound = perm_sql::bind(self.db, &parsed)?;
        self.binds.set(self.binds.get() + 1);
        self.trace_phase("bind", start);
        Ok((bound.plan, provenance))
    }

    fn prepare_inner(
        &self,
        sql: Option<&str>,
        plan: Plan,
        provenance: bool,
    ) -> Result<Prepared, PermError> {
        let param_count = perm_algebra::visit::param_count(&plan);
        if provenance && self.config.tracer {
            if param_count > 0 {
                return Err(PermError::Param(
                    "tracer sessions do not support query parameters; \
                     disable `SessionConfig::tracer` to use `$n` bindings"
                        .into(),
                ));
            }
            // The tracer interprets the logical plan directly at execution
            // time: nothing to rewrite or compile here.
            let descriptor = Tracer::new(self.db).descriptor(&plan)?;
            let schema = plan.schema().concat(&descriptor.schema());
            // The tracer interprets the bound plan as-is; the optimizer
            // never runs for traced statements (it may introduce semi/anti
            // joins the tracer's closed-form characterisation does not
            // cover).
            return Ok(Prepared {
                sql: sql.map(str::to_owned),
                bound_plan: plan.clone(),
                optimizer: perm_exec::OptimizerReport::default(),
                plan,
                compiled: None,
                kind: PreparedKind::Traced { descriptor },
                schema,
                param_count,
            });
        }
        let (plan, kind) = if provenance {
            let start = Instant::now();
            let rewritten = ProvenanceQuery::new(self.db, &plan)
                .strategy(self.config.strategy)
                .rewrite()?;
            self.rewrites.set(self.rewrites.get() + 1);
            self.trace_phase("rewrite", start);
            let descriptor = rewritten.descriptor;
            (rewritten.plan, PreparedKind::Provenance { descriptor })
        } else {
            (plan, PreparedKind::Plain)
        };
        let bound_plan = plan.clone();
        let (plan, report) = if self.config.optimize {
            let start = Instant::now();
            let (optimized, report) = perm_exec::optimize::optimize(&plan);
            self.optimizer_rules_fired
                .set(self.optimizer_rules_fired.get() + report.rules_fired());
            self.sublinks_decorrelated
                .set(self.sublinks_decorrelated.get() + report.sublinks_decorrelated);
            self.trace_phase("optimize", start);
            (optimized, report)
        } else {
            (plan, perm_exec::OptimizerReport::default())
        };
        let start = Instant::now();
        let compiled = self.executor.prepare(&plan)?;
        self.trace_phase("compile", start);
        let schema = compiled.schema().clone();
        Ok(Prepared {
            sql: sql.map(str::to_owned),
            bound_plan,
            optimizer: report,
            plan,
            compiled: Some(compiled),
            kind,
            schema,
            param_count,
        })
    }

    /// Binds `params`, checks the arity against the statement, and arms the
    /// executor's governor for this execution: when a deadline applies (the
    /// per-call override, else [`SessionConfig::deadline`]) a *fresh*
    /// [`CancelToken`] is minted so each execution gets the full time
    /// budget; without one, a stale deadline token from a previous
    /// execution is removed while a token installed via
    /// [`Session::cancel_handle`] is left in place.
    fn bind_checked(
        &self,
        prepared: &Prepared,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> Result<(), PermError> {
        if params.len() != prepared.param_count {
            return Err(PermError::Param(format!(
                "statement expects {} parameter{}, got {}",
                prepared.param_count,
                if prepared.param_count == 1 { "" } else { "s" },
                params.len()
            )));
        }
        match deadline.or(self.config.deadline) {
            Some(d) => {
                self.executor
                    .set_cancel_token(Some(CancelToken::with_deadline(d)));
                self.deadline_token.set(true);
            }
            // A deadline token from a previous execution must not survive
            // into this one — once expired it would cancel every later
            // request. User-installed tokens are left alone.
            None => {
                if self.deadline_token.replace(false) {
                    self.executor.set_cancel_token(None);
                }
            }
        }
        self.executor.bind_params(params.to_vec());
        if !self.config.retain_memo {
            self.executor.clear_compiled_memos();
        }
        Ok(())
    }

    fn count_execution(&self) {
        self.executions.set(self.executions.get() + 1);
    }

    /// Executes a prepared statement with the given parameter binding,
    /// materialising the full result. No parse/bind/rewrite/compile work
    /// happens here — only execution (assertable via [`Session::stats`]).
    pub fn execute(&self, prepared: &Prepared, params: &[Value]) -> Result<Relation, PermError> {
        self.execute_inner(prepared, params, None)
    }

    /// [`Session::execute`] with a per-call deadline that overrides
    /// [`SessionConfig::deadline`] for this execution only. The execution
    /// is cancelled cooperatively at the first batch boundary past the
    /// deadline and returns [`perm_exec::ExecError::Cancelled`] (wrapped in
    /// [`PermError::Exec`]); no partial result escapes.
    pub fn execute_with_deadline(
        &self,
        prepared: &Prepared,
        params: &[Value],
        deadline: Duration,
    ) -> Result<Relation, PermError> {
        self.execute_inner(prepared, params, Some(deadline))
    }

    fn execute_inner(
        &self,
        prepared: &Prepared,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> Result<Relation, PermError> {
        self.bind_checked(prepared, params, deadline)?;
        let start = Instant::now();
        let result = match (&prepared.kind, &prepared.compiled) {
            (PreparedKind::Traced { .. }, _) => Tracer::new(self.db).trace(&prepared.plan)?,
            (_, Some(compiled)) => self.executor.execute_compiled(compiled, None)?,
            (_, None) => unreachable!("non-traced statements always carry a compiled plan"),
        };
        self.trace_phase("execute", start);
        self.count_execution();
        Ok(result)
    }

    /// A [`CancelToken`] wired to this session's executor, installing one
    /// if none is present: cancelling it — from any thread — stops the
    /// session's in-flight execution at its next batch boundary. When a
    /// deadline applies ([`SessionConfig::deadline`] or
    /// [`Session::execute_with_deadline`]), each execution mints a fresh
    /// token and a handle taken earlier no longer governs it; take the
    /// handle per execution in that case.
    pub fn cancel_handle(&self) -> CancelToken {
        self.executor.cancel_handle()
    }

    /// Opens a pull-based cursor over a prepared statement: tuples are
    /// produced on demand, so a `LIMIT`-style consumer stops paying for
    /// input it never looks at. The cursor captures this parameter binding;
    /// other statements may run on the session while it is open.
    pub fn rows<'s>(
        &'s self,
        prepared: &'s Prepared,
        params: &[Value],
    ) -> Result<Rows<'s, 'a>, PermError> {
        let Some(compiled) = &prepared.compiled else {
            return Err(PermError::Param(
                "tracer sessions cannot stream; use `Session::execute` or \
                 `Session::provenance_rows`"
                    .into(),
            ));
        };
        self.bind_checked(prepared, params, None)?;
        let rows = self.executor.open(compiled)?;
        self.count_execution();
        Ok(rows)
    }

    /// `EXPLAIN`: prepares `sql` (plan-cached like [`Session::prepare`])
    /// and returns the shape of its physical plan as a [`QueryProfile`]
    /// whose counters are all zero — **nothing is executed**. The same
    /// tree, annotated with actuals, comes back from
    /// [`Session::explain_analyze`]; render either with
    /// [`QueryProfile::render`] or encode it with
    /// [`QueryProfile::to_json`].
    pub fn explain(&self, sql: &str) -> Result<QueryProfile, PermError> {
        let prepared = self.prepare(sql)?;
        let compiled = Self::profilable(&prepared)?;
        let mut profile = perm_exec::profile::ProfileTree::for_plan(compiled).snapshot();
        self.annotate_optimizer(&mut profile, &prepared);
        Ok(profile)
    }

    /// Attaches the bound-vs-optimized logical plan diff and the rule
    /// summary to an `EXPLAIN` profile (sessions with
    /// [`SessionConfig::optimize`] off keep the bare physical tree).
    fn annotate_optimizer(&self, profile: &mut QueryProfile, prepared: &Prepared) {
        if !self.config.optimize {
            return;
        }
        profile.bound_plan = Some(perm_algebra::display::explain(prepared.bound_plan()));
        profile.optimized_plan = Some(perm_algebra::display::explain(prepared.plan()));
        profile.optimizer = Some(prepared.optimizer_report().summary());
    }

    /// `EXPLAIN ANALYZE`: prepares and executes a parameter-free `sql`
    /// statement and returns its [`QueryProfile`] — the physical plan tree
    /// annotated with per-operator actuals (invocations, rows in/out,
    /// batches, wall time, memo hits/misses, spill bytes/partitions,
    /// columnar-fallback rows). The result rows are discarded, as in SQL
    /// `EXPLAIN ANALYZE`; use [`Session::execute_profiled`] to keep them,
    /// or [`Session::rows_profiled`] to profile a streaming cursor.
    ///
    /// Like [`Session::run`], this is the ad-hoc path: the session's own
    /// memo entries are cleared afterwards under the retention policy so
    /// one-off analysis does not accumulate entries.
    pub fn explain_analyze(&self, sql: &str) -> Result<QueryProfile, PermError> {
        let prepared = self.prepare(sql)?;
        let result = self.execute_profiled(&prepared, &[]);
        if self.config.retain_memo {
            self.executor.clear_compiled_memos();
        }
        result.map(|(_, mut profile)| {
            self.annotate_optimizer(&mut profile, &prepared);
            profile
        })
    }

    /// Executes a prepared statement with profiling armed, returning both
    /// the result and the [`QueryProfile`] of this execution. Semantically
    /// identical to [`Session::execute`] — same rows, same errors, same
    /// memo/deadline behaviour — plus per-operator actuals. Profiling cost
    /// is a strided clock probe per operator invocation (see the
    /// `perm_exec::profile` docs); the `harness obs --check` gate pins it.
    pub fn execute_profiled(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<(Relation, QueryProfile), PermError> {
        let compiled = Self::profilable(prepared)?;
        self.bind_checked(prepared, params, None)?;
        let start = Instant::now();
        let (relation, profile) = self.executor.execute_profiled(compiled)?;
        self.trace_phase("execute", start);
        self.count_execution();
        Ok((relation, profile))
    }

    /// [`Session::rows`] with profiling armed: the returned cursor records
    /// per-operator actuals as it is pulled, and [`Rows::profile`] snapshots
    /// them at any point — typically after exhaustion, but a mid-stream
    /// snapshot of a `LIMIT`-style consumer is exactly how much the
    /// early-out actually saved.
    pub fn rows_profiled<'s>(
        &'s self,
        prepared: &'s Prepared,
        params: &[Value],
    ) -> Result<Rows<'s, 'a>, PermError> {
        let compiled = Self::profilable(prepared)?;
        self.bind_checked(prepared, params, None)?;
        let rows = self.executor.open_profiled(compiled)?;
        self.count_execution();
        Ok(rows)
    }

    /// The compiled form of a statement, or the uniform error for tracer
    /// statements (which interpret the logical plan and have no physical
    /// operators to profile).
    fn profilable(prepared: &Prepared) -> Result<&perm_exec::CompiledPlan, PermError> {
        prepared.compiled.as_ref().ok_or_else(|| {
            PermError::Param(
                "tracer statements have no physical plan to profile; \
                 disable `SessionConfig::tracer` to use EXPLAIN/EXPLAIN ANALYZE"
                    .into(),
            )
        })
    }

    /// Executes a provenance statement and returns the structured witness
    /// view: each output tuple with its witness tuples grouped per
    /// base-relation access, instead of a flat relation whose `prov_r_a`
    /// column names the caller would have to string-match.
    pub fn provenance_rows(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<ProvenanceRows, PermError> {
        let descriptor = match &prepared.kind {
            PreparedKind::Provenance { descriptor } | PreparedKind::Traced { descriptor } => {
                descriptor.clone()
            }
            PreparedKind::Plain => {
                return Err(PermError::Param(
                    "statement was not prepared for provenance; use \
                     `Session::prepare_provenance` (or the `SELECT PROVENANCE` marker)"
                        .into(),
                ))
            }
        };
        let relation = self.execute(prepared, params)?;
        Ok(ProvenanceRows::new(relation, &descriptor))
    }

    /// Ad-hoc convenience: prepares and executes a parameter-free SQL
    /// statement once, honouring the `SELECT PROVENANCE` marker. For
    /// repeated or parameterized execution, [`Session::prepare`] and keep
    /// the [`Prepared`] around. (On engine-attached sessions the transient
    /// statement still lands in the cross-session plan cache, so repeated
    /// ad-hoc texts at least stop paying for compilation.)
    ///
    /// The session's own memo entries are cleared afterwards even under the
    /// retention policy — ad-hoc traffic should not accumulate entries. As
    /// the clearing is whole-memo, a session interleaving `run` with
    /// prepared statements loses those statements' warm memo entries too;
    /// keep ad-hoc traffic on its own session when that matters. An
    /// attached shared sublink memo is *not* cleared (its lifecycle belongs
    /// to the engine/serving layer).
    pub fn run(&self, sql: &str) -> Result<Relation, PermError> {
        let prepared = self.prepare(sql)?;
        let result = self.execute(&prepared, &[]);
        if self.config.retain_memo {
            self.executor.clear_compiled_memos();
        }
        result
    }
}

/// A group of provenance attributes inside the flat rewritten tuple: which
/// base-relation access it witnesses and where its values sit.
#[derive(Debug, Clone)]
struct WitnessGroup {
    table: String,
    occurrence: usize,
    start: usize,
    arity: usize,
}

/// The structured view of a provenance result: every output tuple paired
/// with its witness tuples, grouped per base-relation access of the query
/// (in [`ProvenanceDescriptor`] order). Built by
/// [`Session::provenance_rows`].
#[derive(Debug, Clone)]
pub struct ProvenanceRows {
    schema: Schema,
    original_arity: usize,
    groups: Vec<WitnessGroup>,
    tuples: Vec<Tuple>,
}

impl ProvenanceRows {
    fn new(relation: Relation, descriptor: &ProvenanceDescriptor) -> ProvenanceRows {
        let schema = relation.schema().clone();
        let original_arity = schema.arity() - descriptor.attr_count();
        let mut groups = Vec::with_capacity(descriptor.len());
        let mut start = original_arity;
        for entry in descriptor.entries() {
            let arity = entry.prov_schema.arity();
            groups.push(WitnessGroup {
                table: entry.table.clone(),
                occurrence: entry.occurrence,
                start,
                arity,
            });
            start += arity;
        }
        ProvenanceRows {
            schema,
            original_arity,
            groups,
            tuples: relation.into_tuples(),
        }
    }

    /// The full (flat) schema: original attributes then provenance
    /// attributes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema of the original query (provenance attributes stripped).
    pub fn output_schema(&self) -> Schema {
        Schema::new(self.schema.attributes()[..self.original_arity].to_vec())
    }

    /// Number of result rows (one per witness *combination*, as in the
    /// paper's single-relation representation).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the structured rows.
    pub fn iter(&self) -> impl Iterator<Item = ProvenanceRow<'_>> {
        self.tuples
            .iter()
            .map(move |tuple| ProvenanceRow { rows: self, tuple })
    }
}

/// One row of a [`ProvenanceRows`] result: the original output tuple plus
/// one witness slice per base-relation access.
#[derive(Clone, Copy)]
pub struct ProvenanceRow<'r> {
    rows: &'r ProvenanceRows,
    tuple: &'r Tuple,
}

impl<'r> ProvenanceRow<'r> {
    /// The original output tuple (provenance attributes stripped).
    pub fn output(&self) -> &'r [Value] {
        &self.tuple.values()[..self.rows.original_arity]
    }

    /// The witnesses of this row, one per base-relation access, in
    /// descriptor order.
    pub fn witnesses(&self) -> impl Iterator<Item = Witness<'r>> + '_ {
        let tuple = self.tuple;
        self.rows.groups.iter().map(move |group| Witness {
            table: &group.table,
            occurrence: group.occurrence,
            values: &tuple.values()[group.start..group.start + group.arity],
        })
    }

    /// The witness for the `i`-th base-relation access of the descriptor.
    pub fn witness(&self, i: usize) -> Option<Witness<'r>> {
        let group = self.rows.groups.get(i)?;
        Some(Witness {
            table: &group.table,
            occurrence: group.occurrence,
            values: &self.tuple.values()[group.start..group.start + group.arity],
        })
    }
}

/// The contribution of one base-relation access to one output tuple: either
/// a witness tuple of that relation, or no contribution (the rewrite's
/// NULL-padded outer-join side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Witness<'r> {
    /// Catalog name of the base relation.
    pub table: &'r str,
    /// Occurrence index of this access within the query (multiple accesses
    /// of one relation are distinct provenance sources).
    pub occurrence: usize,
    values: &'r [Value],
}

impl<'r> Witness<'r> {
    /// The witness tuple, or `None` when this base-relation access did not
    /// contribute to the output row (every provenance attribute is NULL —
    /// the representation the rewrites share with the paper).
    pub fn tuple(&self) -> Option<&'r [Value]> {
        if self.values.iter().all(|v| v.is_null()) {
            None
        } else {
            Some(self.values)
        }
    }

    /// The raw provenance attribute values, NULL-padded or not.
    pub fn values(&self) -> &'r [Value] {
        self.values
    }
}
