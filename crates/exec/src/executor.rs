//! Plan execution: two thin drivers over one shared physical-operator
//! layer, with a compile/memoize pipeline in front of the default path.
//!
//! Execution of a top-level plan through [`Executor::execute`] goes through
//! three stages:
//!
//! 1. **Plan-level optimization** — residual selections sitting directly on
//!    cross products are fused into joins
//!    ([`perm_algebra::optimize::fuse_select_over_cross`]) so that large
//!    products (in particular the `CrossBase` products of the Gen rewrite
//!    strategy) are never materialised unfiltered. The algebraic optimizer
//!    ([`mod@crate::optimize`]) is not part of this pipeline; callers run it
//!    on the plan beforehand.
//! 2. **Compilation** ([`crate::compile`]) — a one-time pass per operator
//!    that resolves every column reference to a positional *slot*
//!    (scope depth + attribute index) against the concrete schema chain, so
//!    the per-tuple evaluator does integer indexing instead of name lookup,
//!    and computes each sublink's *correlation signature* (its free column
//!    references, [`perm_algebra::visit::free_correlated_columns`]) resolved
//!    to outer-scope slots.
//! 3. **Compiled evaluation** with a **parameterized sublink memo**: a
//!    sublink result is cached under `(sublink identity, encoded values of
//!    its correlated bindings)` as an `Arc<Relation>`, so a hit shares the
//!    materialised result instead of deep-copying it. A correlated sublink
//!    over an outer relation with *k* distinct binding values therefore
//!    executes *k* times instead of once per outer tuple; an uncorrelated
//!    sublink (empty signature) degenerates to the classic PostgreSQL
//!    "InitPlan" behaviour of one execution per query. On top of the result
//!    memo, `ANY`/`ALL` *verdicts* are memoized per `(sublink identity,
//!    bindings, test value)`, so repeated quantifier folds over the same
//!    cached result are skipped too. The memos can be switched off with
//!    [`Executor::with_sublink_memo`] for measurements. Expressions are
//!    evaluated vectorized, one dispatch per expression per batch over
//!    typed column lanes; the per-tuple [`Executor::ceval`] runs only the
//!    sublink-bearing subtrees, row by row, so every sublink goes through
//!    the memo.
//!
//! The uncompiled interpreter ([`Executor::execute_unoptimized`] /
//! [`Executor::execute_with_env`]) remains available as the reference
//! semantics; the tracer in `perm-core` builds on it, and the
//! strategy-equivalence tests cross-check compiled against interpreted
//! results. Both drivers delegate every operator loop — joins (hashed and
//! nested-loop, with left-outer padding), aggregation, sorting, set
//! operations, projection/selection — to the shared `crate::physical`
//! module, so no operator body is implemented twice; the drivers differ
//! only in the tuple-evaluator closures they pass (name lookup through an
//! [`Env`] chain vs. slot indexing through a [`crate::compile::Frame`]
//! chain). The interpreter path resolves correlation signatures *at
//! runtime* ([`perm_algebra::visit::free_correlated_columns`] looked up in
//! the current [`Env`]), which lets the same parameterized sublink memo —
//! and the verdict memo — serve the interpreter and the tracer as well.

use crate::compile::CompiledPlan;
use crate::eval::Env;
use crate::memo::{MemoMap, SharedSublinkMemo};
use crate::physical::{self, AggSpec};
use crate::profile::{OpProbe, ProfileTree};
use crate::resilience::{CancelToken, Degradation, FaultPlan, Governor, MemoCost, TraceSignal};
use crate::{ExecError, Result};
use perm_algebra::visit::{free_correlated_columns, free_params};
use perm_algebra::{Expr, Plan, SortKey};
use perm_storage::{encode_key_typed, Database, Relation, Schema, Truth, Tuple, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::time::Duration;

/// One free correlated column reference as reported by
/// [`free_correlated_columns`]: optional qualifier plus name.
type FreeColumn = (Option<String>, String);

/// Executes plans against an in-memory database.
pub struct Executor<'a> {
    db: &'a Database,
    /// Parameterized sublink memo of the compiled path: sublink results
    /// keyed by `(compiled sublink id, typed encoding of the referenced
    /// query-parameter values followed by the correlated binding values)`,
    /// shared as `Arc`s so hits never deep-copy. Wrapped in an `Rc` so the
    /// resilience governor can hold a reclaim handle: under memory-budget
    /// pressure the memo is cleared (a pure speed loss) before the query is
    /// failed.
    pub(crate) sublink_memo: Rc<RefCell<MemoMap<Arc<Relation>>>>,
    /// Parameterized sublink memo of the interpreter path: same contract,
    /// keyed by the sublink plan's *node address* (stable for the lifetime
    /// of one query execution because plans are borrowed immutably) plus
    /// the typed encoding of its referenced parameter values and free
    /// correlated column bindings.
    pub(crate) interp_sublink_memo: Rc<RefCell<MemoMap<Arc<Relation>>>>,
    /// `ANY`/`ALL` verdict memo, shared by both paths: `Truth` keyed by the
    /// sublink's result-memo key extended with the typed test value. The
    /// namespace tag leading each result key keeps compiled ids and
    /// interpreter addresses from colliding.
    pub(crate) verdict_memo: Rc<RefCell<MemoMap<Truth>>>,
    /// The resilience governor: installed cancel token / fault plan /
    /// memory budget plus the `cancel_checks` and `peak_bytes` counters.
    /// Polled at batch boundaries by `crate::physical`, at cursor refills
    /// and at memoized-sublink entry.
    pub(crate) governor: Governor,
    /// Optional cross-thread memo ([`Executor::with_shared_memo`]). When
    /// attached, compiled-path sublink results and verdicts go to (and come
    /// from) the shared sharded maps instead of the private memos above, so
    /// worker threads and sibling sessions serving the same prepared
    /// statements reuse each other's work. Interpreter-path entries stay
    /// private either way — their keys are plan *node addresses*, which mean
    /// nothing outside this executor.
    pub(crate) shared_memo: Option<Arc<SharedSublinkMemo>>,
    /// Cache of free-correlated-column analyses per interpreter sublink
    /// plan address.
    free_columns_cache: RefCell<HashMap<usize, Rc<[FreeColumn]>>>,
    /// Cache of free-parameter analyses per interpreter sublink plan
    /// address (the parameter half of the memo signature).
    free_params_cache: RefCell<HashMap<usize, Rc<[usize]>>>,
    /// The query-parameter vector (`$1` is index 0) bound for the current
    /// execution. Shared as an `Rc` so a streaming cursor can cheaply
    /// re-assert its own binding on every pull.
    pub(crate) params: RefCell<Rc<[Value]>>,
    /// Whether the parameterized memos may be consulted for correlated
    /// sublinks.
    pub(crate) memo_enabled: Cell<bool>,
    /// Whether [`Executor::execute`] retains the compiled-path memos across
    /// calls instead of clearing them up front (the prepared-statement
    /// serving policy; see [`Executor::with_memo_retention`]).
    retain_memo: Cell<bool>,
    /// Number of plan compilations performed by [`Executor::prepare`]
    /// (diagnostic counter for prepared-statement tests).
    compile_count: Cell<u64>,
    /// Number of operator evaluations performed (for tests/diagnostics);
    /// counted inside `crate::physical`, once per operator invocation.
    pub(crate) ops_evaluated: Cell<u64>,
    /// Number of per-row comparisons performed while folding `ANY`/`ALL`
    /// sublink results (for tests/diagnostics; verdict-memo hits skip the
    /// fold entirely).
    pub(crate) cmp_evaluated: Cell<u64>,
    /// Number of expression-over-batch evaluations performed by the
    /// vectorized compiled evaluator (diagnostic; one per expression per
    /// batch).
    pub(crate) batches_vectorized: Cell<u64>,
    /// Rows a vectorized batch evaluation handed back to the per-tuple
    /// evaluator because their expression subtree carries a sublink (the
    /// fallback that keeps the parameterized sublink memo seam untouched).
    pub(crate) batch_fallback_rows: Cell<u64>,
    /// Number of [`crate::batch::ColumnBlock`]s that served at least one
    /// columnar lane access (diagnostic; one per block touched, not per
    /// access).
    pub(crate) columnar_blocks: Cell<u64>,
    /// Rows whose columnar evaluation fell back to the row-major scalar
    /// path: mixed-type (`Values`) lanes, lane pairings without a typed
    /// kernel, integer-overflow retries, and sublink-bearing subtrees.
    pub(crate) columnar_fallback_rows: Cell<u64>,
    /// The armed `EXPLAIN ANALYZE` profile tree, held weakly: only the
    /// memoized-sublink seam reads it (to attribute memo hits/misses and
    /// sublink executions by sublink id — ids are process-unique, so a plan
    /// the tree was not armed for simply misses the lookup); the operator
    /// tree itself is threaded positionally by the profiled driver. A
    /// `Weak` means a dropped profile degrades to unarmed execution with no
    /// bookkeeping.
    pub(crate) profile: RefCell<Weak<ProfileTree>>,
}

/// Namespace tag of compiled-path memo keys.
pub(crate) const MEMO_TAG_COMPILED: u8 = b'C';
/// Namespace tag of interpreter-path memo keys.
pub(crate) const MEMO_TAG_INTERPRETED: u8 = b'I';

impl<'a> Executor<'a> {
    /// Creates an executor over a database. Sublink memoization is enabled;
    /// use [`Executor::with_sublink_memo`] to switch it off.
    pub fn new(db: &'a Database) -> Executor<'a> {
        let sublink_memo = Rc::new(RefCell::new(MemoMap::new()));
        let interp_sublink_memo = Rc::new(RefCell::new(MemoMap::new()));
        let verdict_memo = Rc::new(RefCell::new(MemoMap::new()));
        let governor = Governor::new();
        // Register every private memo for byte accounting and
        // budget-pressure reclaim (evict first, fail only if that is not
        // enough).
        // The compiled result memo is registered through the spill-aware
        // wrapper: under pressure with spilling enabled its entries are
        // persisted instead of dropped (compiled keys are process-stable).
        // The interpreter memo (keyed by plan-node *addresses*, unsafe to
        // persist) and the verdict memo (cheap to refold) reclaim by
        // dropping.
        governor.register_memo(Box::new(crate::memo::SpillableResultMemo(Rc::clone(
            &sublink_memo,
        ))));
        governor.register_memo(Box::new(Rc::clone(&interp_sublink_memo)));
        governor.register_memo(Box::new(Rc::clone(&verdict_memo)));
        Executor {
            db,
            sublink_memo,
            interp_sublink_memo,
            verdict_memo,
            governor,
            shared_memo: None,
            free_columns_cache: RefCell::new(HashMap::new()),
            free_params_cache: RefCell::new(HashMap::new()),
            params: RefCell::new(Rc::from(Vec::new())),
            memo_enabled: Cell::new(true),
            retain_memo: Cell::new(false),
            compile_count: Cell::new(0),
            ops_evaluated: Cell::new(0),
            cmp_evaluated: Cell::new(0),
            batches_vectorized: Cell::new(0),
            batch_fallback_rows: Cell::new(0),
            columnar_blocks: Cell::new(0),
            columnar_fallback_rows: Cell::new(0),
            profile: RefCell::new(Weak::new()),
        }
    }

    /// Arms (or, with `None`, disarms) the `EXPLAIN ANALYZE` profile for
    /// subsequent profiled executions. Held weakly — see the field docs.
    pub(crate) fn set_profile(&self, tree: Option<&Rc<ProfileTree>>) {
        *self.profile.borrow_mut() = match tree {
            Some(tree) => Rc::downgrade(tree),
            None => Weak::new(),
        };
    }

    /// Number of expression-over-batch evaluations performed so far by the
    /// vectorized compiled evaluator (diagnostic counter; one per
    /// expression per batch of up to [`crate::BATCH_ROWS`] rows).
    pub fn batches_vectorized(&self) -> u64 {
        self.batches_vectorized.get()
    }

    /// Number of rows vectorized batch evaluation handed back to the
    /// per-tuple evaluator because their expression subtree carries a
    /// sublink (diagnostic counter; those rows drive the parameterized
    /// sublink memo exactly like tuple-at-a-time execution).
    pub fn batch_fallback_rows(&self) -> u64 {
        self.batch_fallback_rows.get()
    }

    /// Number of column blocks that served at least one columnar lane
    /// access so far (diagnostic counter; a block of up to
    /// [`crate::BATCH_ROWS`] rows counts once however many lanes and
    /// expressions touch it).
    pub fn columnar_blocks(&self) -> u64 {
        self.columnar_blocks.get()
    }

    /// Number of rows whose columnar evaluation fell back to the row-major
    /// scalar path (diagnostic counter): mixed-type lanes, lane pairings
    /// without a typed kernel, integer-overflow retries, and
    /// sublink-bearing subtrees (which are also counted in
    /// [`Executor::batch_fallback_rows`]).
    pub fn columnar_fallback_rows(&self) -> u64 {
        self.columnar_fallback_rows.get()
    }

    /// Enables or disables the parameterized sublink memos (enabled by
    /// default) on both execution paths. Disabling them makes every
    /// correlated sublink execute once per outer tuple again, which is what
    /// the benchmark harness measures as the "memo off" baseline; the
    /// per-query InitPlan caching of *uncorrelated* sublinks stays on
    /// either way, mirroring what the PostgreSQL engine underneath the
    /// original Perm system always does.
    pub fn with_sublink_memo(self, enabled: bool) -> Executor<'a> {
        self.memo_enabled.set(enabled);
        self
    }

    /// Bounds every memo (sublink results on both paths and `ANY`/`ALL`
    /// verdicts) to at most `capacity` entries each, evicting
    /// least-recently-used entries — the ROADMAP follow-on for
    /// high-cardinality correlations. `None` (the default) keeps the memos
    /// unbounded, preserving the established behaviour.
    pub fn with_memo_capacity(self, capacity: Option<usize>) -> Executor<'a> {
        self.sublink_memo.borrow_mut().set_capacity(capacity);
        self.interp_sublink_memo.borrow_mut().set_capacity(capacity);
        self.verdict_memo.borrow_mut().set_capacity(capacity);
        self
    }

    /// Attaches a cross-thread [`SharedSublinkMemo`]: compiled-path sublink
    /// results and `ANY`/`ALL` verdicts are then cached in (and served
    /// from) the shared sharded maps instead of this executor's private
    /// memos, so several worker executors — each still single-threaded —
    /// jointly warm one memo. Safe because compiled memo keys embed a
    /// process-unique sublink id plus the typed parameter and binding
    /// values; see [`SharedSublinkMemo`] for the full contract.
    ///
    /// The shared memo's lifecycle belongs to its owner:
    /// [`Executor::clear_compiled_memos`] never touches it, and ad-hoc
    /// [`Executor::execute`] (which mints fresh sublink ids per call) would
    /// fill it with entries that can never hit again — attach it to
    /// executors serving *prepared* plans under memo retention, which is
    /// what the serving subsystem does.
    pub fn with_shared_memo(mut self, memo: Arc<SharedSublinkMemo>) -> Executor<'a> {
        // The shared memo participates in byte accounting and is reclaimed
        // under budget pressure like the private memos — other sessions
        // lose warm entries (speed), never correctness.
        self.governor.register_memo(Box::new(Arc::clone(&memo)));
        self.shared_memo = Some(memo);
        self
    }

    /// The attached cross-thread memo, if any.
    pub fn shared_memo(&self) -> Option<&Arc<SharedSublinkMemo>> {
        self.shared_memo.as_ref()
    }

    /// Chooses the memo policy of [`Executor::execute`]: with `retain` set,
    /// the compiled-path memos survive across `execute` calls instead of
    /// being cleared up front. Retention is what a prepared statement wants
    /// — re-executing the same [`CompiledPlan`] (same sublink ids, with the
    /// bound parameter values folded into every memo key) can then reuse
    /// entries from earlier executions. The default (`false`) keeps the
    /// ad-hoc clearing semantics: each `execute` mints fresh sublink ids,
    /// so old entries could never hit again and would only accumulate.
    pub fn with_memo_retention(self, retain: bool) -> Executor<'a> {
        self.retain_memo.set(retain);
        self
    }

    /// Installs a cooperative [`CancelToken`], polled at batch boundaries,
    /// cursor refills and memoized-sublink entry; once it trips, the
    /// current (and any later) execution fails with
    /// [`ExecError::Cancelled`] within one batch worth of work.
    pub fn with_cancel_token(self, token: CancelToken) -> Executor<'a> {
        self.governor.set_cancel_token(Some(token));
        self
    }

    /// Installs a fresh cancel token that trips once `deadline` has passed
    /// (a convenience over [`Executor::with_cancel_token`]).
    pub fn with_deadline(self, deadline: Duration) -> Executor<'a> {
        self.governor
            .set_cancel_token(Some(CancelToken::with_deadline(deadline)));
        self
    }

    /// Bounds the bytes this executor may hold in growing operator state
    /// (hash-join build tables and candidate buffers, aggregation groups,
    /// sort buffers) plus its sublink memos. On pressure the memos are
    /// reclaimed first — losing only speed — and the query fails with
    /// [`ExecError::ResourceExhausted`] only when that does not free
    /// enough. `None` (the default) disables accounting entirely.
    pub fn with_memory_budget(self, bytes: Option<u64>) -> Executor<'a> {
        self.governor.set_budget(bytes);
        self
    }

    /// Enables spill-to-disk degradation (disabled by default): under
    /// budget pressure the growing operators go out of core (grace hash
    /// join, external merge sort, partitioned aggregation) and reclaimed
    /// compiled-memo entries are persisted for reload instead of dropped,
    /// demoting [`ExecError::ResourceExhausted`] to a last resort. Results
    /// are bag- and order-identical to in-memory execution; only the spill
    /// counters ([`Executor::spilled_bytes`] &c.) can tell the difference.
    pub fn with_spill(self, enabled: bool) -> Executor<'a> {
        self.governor.set_spill_enabled(enabled);
        self
    }

    /// Base directory for spill files (`None`, the default, uses the system
    /// temp dir). The executor creates a process-unique subdirectory inside
    /// it and removes the subdirectory on drop.
    pub fn with_spill_dir(self, dir: Option<std::path::PathBuf>) -> Executor<'a> {
        self.governor.set_spill_dir(dir);
        self
    }

    /// Worst [`Degradation`] rung reached so far under memory pressure.
    pub fn degradation(&self) -> Degradation {
        self.governor.degradation()
    }

    /// Total payload bytes written to spill files so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.governor.spilled_bytes()
    }

    /// Spill partition files and sort runs created so far.
    pub fn spill_partitions(&self) -> u64 {
        self.governor.spill_partitions()
    }

    /// Buffer-pool hits while reading spill files.
    pub fn buffer_pool_hits(&self) -> u64 {
        self.governor.buffer_pool_hits()
    }

    /// Buffer-pool misses (page loads from disk) while reading spill files.
    pub fn buffer_pool_misses(&self) -> u64 {
        self.governor.buffer_pool_misses()
    }

    /// Buffer-pool frame evictions while reading spill files.
    pub fn buffer_pool_evictions(&self) -> u64 {
        self.governor.buffer_pool_evictions()
    }

    /// Installs (or clears, with `None`) a structured-trace hook: the
    /// governor and the memoized-sublink seams call it with a
    /// [`TraceSignal`] on memo inserts and hits, spill writes, degradation
    /// rung transitions, and cancellation checkpoints that fired. The
    /// session facade bridges these into its `TraceSink`; with no hook
    /// installed the emission sites cost one `Option` check.
    pub fn set_trace_hook(&self, hook: Option<Rc<dyn Fn(TraceSignal)>>) {
        self.governor.set_trace_hook(hook);
    }

    /// Configured buffer-pool frame capacity (0 until a spill manager — and
    /// with it a pool — has been created).
    pub fn buffer_pool_capacity(&self) -> u64 {
        self.governor.buffer_pool_capacity()
    }

    /// Installs a deterministic [`FaultPlan`] that fires a cancellation,
    /// budget exhaustion or panic at the N-th checkpoint / memo-insert /
    /// operator event — the crash-consistency test harness.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Executor<'a> {
        self.governor.set_fault_plan(Some(plan));
        self
    }

    /// Replaces the installed cancel token (or removes it with `None`)
    /// without consuming the executor — sessions mint a fresh token per
    /// execution so a stale cancel never leaks into the next query.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        self.governor.set_cancel_token(token);
    }

    /// The installed cancel token, creating (and installing) a fresh one if
    /// none is present — the handle behind `Rows::cancel_handle`.
    pub fn cancel_handle(&self) -> CancelToken {
        self.governor.ensure_cancel_token()
    }

    /// Number of cancellation checkpoints polled so far (diagnostic
    /// counter; deliberately separate from
    /// [`Executor::operators_evaluated`], which counts logical operator
    /// invocations and is pinned exactly by many tests).
    pub fn cancel_checks(&self) -> u64 {
        self.governor.cancel_checks()
    }

    /// High-water mark of accounted bytes (operator state plus memo
    /// footprint) observed so far. Only grows while a memory budget is
    /// installed or memos insert entries.
    pub fn peak_bytes(&self) -> u64 {
        self.governor.peak_bytes()
    }

    /// Binds the query-parameter vector (`$1` is `params[0]`) used by
    /// subsequent executions. Parameters stay bound until rebound; plans
    /// that reference no parameters ignore the vector entirely.
    pub fn bind_params(&self, params: Vec<Value>) {
        *self.params.borrow_mut() = Rc::from(params);
    }

    /// The currently bound parameter vector, shared.
    pub(crate) fn params_rc(&self) -> Rc<[Value]> {
        Rc::clone(&self.params.borrow())
    }

    /// Re-asserts a previously captured parameter binding (used by
    /// streaming cursors, whose pulls may interleave with other executions
    /// on the same executor).
    pub(crate) fn rebind_params(&self, params: &Rc<[Value]>) {
        *self.params.borrow_mut() = Rc::clone(params);
    }

    /// Reads the value bound to parameter index `index` (0-based), erring
    /// like an unresolvable column when the binding is absent.
    pub(crate) fn param_value(&self, index: usize) -> Result<Value> {
        let params = self.params.borrow();
        params.get(index).cloned().ok_or_else(|| {
            ExecError::Param(format!(
                "parameter ${} is not bound ({} parameter{} supplied)",
                index + 1,
                params.len(),
                if params.len() == 1 { "" } else { "s" }
            ))
        })
    }

    /// The database this executor reads from.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Number of operator invocations so far (diagnostic counter). Both the
    /// compiled and the interpreted path count one evaluation per operator
    /// node per invocation; a memo hit counts nothing, which is what makes
    /// the memoization win measurable.
    pub fn operators_evaluated(&self) -> u64 {
        self.ops_evaluated.get()
    }

    /// Number of per-row `ANY`/`ALL` fold comparisons so far (diagnostic
    /// counter). A verdict-memo hit skips the fold and counts nothing.
    pub fn quantifier_comparisons(&self) -> u64 {
        self.cmp_evaluated.get()
    }

    /// Number of plan compilations performed so far (diagnostic counter).
    /// The prepared-statement contract is that re-executing a prepared plan
    /// performs *zero* additional compilations; this counter makes that
    /// assertable.
    pub fn statements_compiled(&self) -> u64 {
        self.compile_count.get()
    }

    /// Compiles a plan for repeated execution: fuses residual selections
    /// over cross products, then resolves all column references to slots
    /// and attaches correlation signatures (plus referenced parameter
    /// indices) to sublinks (see [`crate::compile`]). Sublink ids are drawn
    /// from a process-wide counter, so compiled plans from different
    /// executors can never collide in a shared memo.
    ///
    /// `prepare` does not run the algebraic optimizer: callers that want it
    /// pass the plan through [`crate::optimize::optimize`] first (a
    /// session does so under its `optimize` setting).
    pub fn prepare(&self, plan: &Plan) -> Result<CompiledPlan> {
        self.compile_count.set(self.compile_count.get() + 1);
        let fused = perm_algebra::optimize::fuse_select_over_cross(plan.clone());
        crate::compile::compile_plan(&fused)
    }

    /// Clears the compiled-path memos (sublink results and verdicts) *of
    /// this executor*. An attached [`SharedSublinkMemo`] is deliberately
    /// left alone — it is shared state whose lifecycle belongs to its owner
    /// (clearing it here would drop entries other sessions are warm on).
    /// The interpreter-path caches have their own lifecycle
    /// ([`Executor::reset_interpreter_caches`]).
    pub fn clear_compiled_memos(&self) {
        self.sublink_memo.borrow_mut().clear();
        self.verdict_memo.borrow_mut().clear();
    }

    /// Executes a top-level plan through the compile/memoize pipeline.
    ///
    /// Under the default policy the compiled-path memos are cleared first:
    /// `execute` mints fresh sublink ids via [`Executor::prepare`], so
    /// entries from earlier `execute` calls could never hit again and would
    /// only accumulate. Callers that re-execute the *same* prepared
    /// [`CompiledPlan`] — where reuse is both safe (stable sublink ids,
    /// parameter values folded into every key) and the entire point —
    /// should either call [`Executor::execute_compiled`] directly or switch
    /// the policy with [`Executor::with_memo_retention`].
    pub fn execute(&self, plan: &Plan) -> Result<Relation> {
        if !self.retain_memo.get() {
            self.clear_compiled_memos();
        }
        let compiled = self.prepare(plan)?;
        self.execute_compiled(&compiled, None)
    }

    /// Executes a plan exactly as given with the name-resolving interpreter:
    /// no fusing pass and no compilation. The interpreter shares the
    /// parameterized sublink memo (resolving correlation signatures at
    /// runtime instead of compile time), so it is the *semantics* reference
    /// — same results, same errors — not a memoization-free baseline; for
    /// that, combine it with [`Executor::with_sublink_memo`]`(false)`.
    pub fn execute_unoptimized(&self, plan: &Plan) -> Result<Relation> {
        self.reset_interpreter_caches();
        self.execute_with_env(plan, None)
    }

    /// Clears the interpreter-path sublink caches. They are keyed by plan
    /// *node address*, which is only stable while that plan is alive — a
    /// later plan can allocate a sublink node at a freed address and would
    /// otherwise inherit stale entries. Called automatically at the start of
    /// [`Executor::execute_unoptimized`]; callers that drive
    /// [`Executor::execute_with_env`] directly across different plans (e.g.
    /// the tracer in `perm-core`) must call it between plans themselves.
    pub fn reset_interpreter_caches(&self) {
        self.interp_sublink_memo.borrow_mut().clear();
        self.free_columns_cache.borrow_mut().clear();
        self.free_params_cache.borrow_mut().clear();
        // The verdict memo namespaces interpreter entries under the plan
        // address too; clearing it wholesale is conservative but safe (the
        // compiled entries it drops were only a shortcut).
        self.verdict_memo.borrow_mut().clear();
    }

    /// The parameterized memo key of an interpreter-path sublink: the plan
    /// node address plus the typed encoding of its referenced
    /// query-parameter values and its free correlated column bindings
    /// resolved in `env` — the runtime analogue of the compiled path's
    /// correlation signature. Parameter and binding counts are fixed per
    /// plan node, so the two groups concatenate unambiguously. Returns
    /// `None` when the sublink is not memoizable here: a binding does not
    /// resolve in the current scope chain or a referenced parameter is
    /// unbound (either reference might still sit safely behind a short
    /// circuit), or the memo is disabled and the sublink is correlated
    /// (uncorrelated sublinks keep their InitPlan caching either way).
    pub(crate) fn interp_sublink_key(&self, plan: &Plan, env: Option<&Env<'_>>) -> Option<Vec<u8>> {
        let addr = plan as *const Plan as usize;
        let free = {
            let mut cache = self.free_columns_cache.borrow_mut();
            cache
                .entry(addr)
                .or_insert_with(|| free_correlated_columns(plan).into())
                .clone()
        };
        if !free.is_empty() && !self.memo_enabled.get() {
            return None;
        }
        let param_refs = {
            let mut cache = self.free_params_cache.borrow_mut();
            cache
                .entry(addr)
                .or_insert_with(|| free_params(plan).into())
                .clone()
        };
        let params = self.params.borrow();
        let mut values = Vec::with_capacity(param_refs.len() + free.len());
        for &index in param_refs.iter() {
            values.push(params.get(index)?.clone());
        }
        for (qualifier, name) in free.iter() {
            values.push(env?.lookup(qualifier.as_deref(), name).ok()?);
        }
        let mut key = vec![MEMO_TAG_INTERPRETED];
        key.extend_from_slice(&addr.to_le_bytes());
        key.extend_from_slice(&encode_key_typed(&values));
        Some(key)
    }

    /// Executes a sublink plan in the given correlation environment,
    /// consulting the parameterized memo. See
    /// [`Executor::interp_sublink_key`] for the key contract.
    pub(crate) fn execute_sublink(
        &self,
        plan: &Plan,
        env: Option<&Env<'_>>,
    ) -> Result<Arc<Relation>> {
        let key = self.interp_sublink_key(plan, env);
        self.execute_sublink_keyed(plan, env, key)
    }

    /// [`Executor::execute_sublink`] with a precomputed memo key (so the
    /// `ANY`/`ALL` verdict path computes the key once for both memos).
    pub(crate) fn execute_sublink_keyed(
        &self,
        plan: &Plan,
        env: Option<&Env<'_>>,
        key: Option<Vec<u8>>,
    ) -> Result<Arc<Relation>> {
        if let Some(k) = &key {
            if let Some(hit) = self.interp_sublink_memo.borrow_mut().get(k) {
                self.governor.trace_memo_hit("interp-sublink-memo");
                return Ok(hit);
            }
        }
        let result = Arc::new(self.execute_with_env(plan, env)?);
        if let Some(k) = key {
            let cost = k.len() as u64 + result.cost_bytes();
            if self.governor.memo_insert_event("sublink-memo", cost)? {
                self.interp_sublink_memo
                    .borrow_mut()
                    .insert(k, Arc::clone(&result));
            }
        }
        Ok(result)
    }

    /// Recursive interpreter-path plan evaluation: executes children, wraps
    /// [`Executor::eval_expr`] into per-tuple closures over an [`Env`] scope
    /// chain, and delegates every operator body to `crate::physical`.
    /// `env` is the enclosing correlation scope (present when this plan is a
    /// sublink query of an outer operator).
    pub fn execute_with_env(&self, plan: &Plan, env: Option<&Env<'_>>) -> Result<Relation> {
        // The interpreter path runs unprofiled (profiles mirror *compiled*
        // plans); the probe still carries the shared global counter.
        let probe = OpProbe::new(&self.ops_evaluated, None);
        let gov = &self.governor;
        match plan {
            Plan::Scan { table, schema, .. } => physical::scan(probe, gov, self.db, table, schema),
            Plan::Values { schema, rows } => physical::values(probe, gov, schema, rows),
            Plan::Project {
                input,
                items,
                distinct,
            } => {
                let child = self.execute_with_env(input, env)?;
                let child_schema = child.schema().clone();
                physical::project(
                    probe,
                    gov,
                    &child,
                    plan.schema(),
                    *distinct,
                    |batch, out| {
                        for tuple in batch.iter() {
                            let scope = Env::new(env, &child_schema, tuple);
                            // Explicit loop, not `collect::<Result<_>>()`: the
                            // fallible-collect machinery reports a zero lower
                            // size hint and grows the row by realloc —
                            // measurably slower on projection-heavy plans.
                            let mut row = Vec::with_capacity(items.len());
                            for item in items {
                                row.push(self.eval_expr(&item.expr, Some(&scope))?);
                            }
                            out.push(Tuple::new(row));
                        }
                        Ok(())
                    },
                )
            }
            Plan::Select { input, predicate } => {
                let child = self.execute_with_env(input, env)?;
                let child_schema = child.schema().clone();
                physical::select(probe, gov, &child, |batch, out| {
                    for tuple in batch.iter() {
                        let scope = Env::new(env, &child_schema, tuple);
                        out.push(self.eval_predicate(predicate, Some(&scope))?.is_true());
                    }
                    Ok(())
                })
            }
            Plan::CrossProduct { left, right } => {
                let l = self.execute_with_env(left, env)?;
                let r = self.execute_with_env(right, env)?;
                let schema = l.schema().concat(r.schema());
                physical::cross_product(probe, gov, &l, &r, schema)
            }
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => {
                let l = self.execute_with_env(left, env)?;
                if l.is_empty() && kind.left_only_output() {
                    // Mirror the per-binding reference: with no outer rows
                    // the decorrelated inner plan never runs.
                    return Ok(Relation::empty(l.schema().clone()));
                }
                let r = self.execute_with_env(right, env)?;
                let l_schema = l.schema().clone();
                let r_schema = r.schema().clone();
                // The condition is evaluated over the concatenated candidate
                // row even for semi/anti joins, whose output is left-only.
                let cond_schema = l_schema.concat(&r_schema);
                let out_schema = if kind.left_only_output() {
                    l_schema.clone()
                } else {
                    cond_schema.clone()
                };
                // Hash keys only for sublink-free conditions: a condition
                // carrying sublinks falls back to the nested loop, which is
                // exactly the cost profile the paper discusses for the Left
                // strategy's Jsub conditions.
                let equi_keys = if condition.has_sublink() {
                    Vec::new()
                } else {
                    extract_equi_keys(condition, &l_schema, &r_schema)
                };
                let null_safe: Vec<bool> = equi_keys.iter().map(|k| k.null_safe).collect();
                physical::join(
                    probe,
                    gov,
                    &l,
                    &r,
                    &out_schema,
                    *kind,
                    &null_safe,
                    |batch, i, col| {
                        for lt in batch.iter() {
                            let scope = Env::new(env, &l_schema, lt);
                            col.push_value(self.eval_expr(&equi_keys[i].left, Some(&scope))?);
                        }
                        Ok(())
                    },
                    |batch, i, col| {
                        for rt in batch.iter() {
                            let scope = Env::new(env, &r_schema, rt);
                            col.push_value(self.eval_expr(&equi_keys[i].right, Some(&scope))?);
                        }
                        Ok(())
                    },
                    |batch, out| {
                        for joined in batch.iter() {
                            let scope = Env::new(env, &cond_schema, joined);
                            out.push(self.eval_predicate(condition, Some(&scope))?.is_true());
                        }
                        Ok(())
                    },
                )
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let child = self.execute_with_env(input, env)?;
                let child_schema = child.schema().clone();
                let specs: Vec<AggSpec> = aggregates
                    .iter()
                    .map(|a| AggSpec {
                        func: a.func,
                        distinct: a.distinct,
                        has_arg: a.arg.is_some(),
                    })
                    .collect();
                physical::aggregate(
                    probe,
                    gov,
                    &child,
                    plan.schema(),
                    group_by.len(),
                    &specs,
                    |batch, group_cols, agg_cols| {
                        for tuple in batch.iter() {
                            let scope = Env::new(env, &child_schema, tuple);
                            for (g, col) in group_by.iter().zip(group_cols.iter_mut()) {
                                col.push_value(self.eval_expr(&g.expr, Some(&scope))?);
                            }
                            for (a, col) in aggregates.iter().zip(agg_cols.iter_mut()) {
                                if let Some(arg) = &a.arg {
                                    col.push(self.eval_expr(arg, Some(&scope))?);
                                }
                            }
                        }
                        Ok(())
                    },
                )
            }
            Plan::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.execute_with_env(left, env)?;
                let r = self.execute_with_env(right, env)?;
                physical::set_op(probe, gov, *op, *all, &l, &r)
            }
            Plan::Sort { input, keys } => {
                let child = self.execute_with_env(input, env)?;
                let child_schema = child.schema().clone();
                let ascending: Vec<bool> = keys.iter().map(|k: &SortKey| k.ascending).collect();
                physical::sort(probe, gov, child, &ascending, |batch, cols| {
                    for tuple in batch.iter() {
                        let scope = Env::new(env, &child_schema, tuple);
                        for (k, col) in keys.iter().zip(cols.iter_mut()) {
                            col.push(self.eval_expr(&k.expr, Some(&scope))?);
                        }
                    }
                    Ok(())
                })
            }
            Plan::Limit { input, limit } => {
                let child = self.execute_with_env(input, env)?;
                physical::limit(probe, gov, child, *limit)
            }
        }
    }
}

/// One hash-join key pair: a left-side expression, a right-side expression
/// and whether the comparison is null-safe (`=n`, in which case NULL keys
/// match NULL keys instead of being dropped).
pub(crate) struct EquiKey {
    pub(crate) left: Expr,
    pub(crate) right: Expr,
    pub(crate) null_safe: bool,
}

/// Extracts equality conjuncts `colL = colR` (or `colL =n colR`) from a join
/// condition, where one side resolves only against the left schema and the
/// other only against the right schema.
pub(crate) fn extract_equi_keys(condition: &Expr, left: &Schema, right: &Schema) -> Vec<EquiKey> {
    let mut conjuncts = Vec::new();
    flatten_conjuncts(condition, &mut conjuncts);
    let mut keys = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            op,
            left: a,
            right: b,
        } = c
        {
            let null_safe = match op {
                perm_algebra::BinaryOp::Cmp(perm_algebra::CompareOp::Eq) => false,
                perm_algebra::BinaryOp::NullSafeEq => true,
                _ => continue,
            };
            if let (Expr::Column { .. }, Expr::Column { .. }) = (a.as_ref(), b.as_ref()) {
                match (side_of(a, left, right), side_of(b, left, right)) {
                    (Some(Side::Left), Some(Side::Right)) => keys.push(EquiKey {
                        left: a.as_ref().clone(),
                        right: b.as_ref().clone(),
                        null_safe,
                    }),
                    (Some(Side::Right), Some(Side::Left)) => keys.push(EquiKey {
                        left: b.as_ref().clone(),
                        right: a.as_ref().clone(),
                        null_safe,
                    }),
                    _ => {}
                }
            }
        }
    }
    keys
}

#[derive(PartialEq)]
enum Side {
    Left,
    Right,
}

fn side_of(expr: &Expr, left: &Schema, right: &Schema) -> Option<Side> {
    if let Expr::Column { qualifier, name } = expr {
        let in_left = matches!(left.try_resolve(qualifier.as_deref(), name), Ok(Some(_)));
        let in_right = matches!(right.try_resolve(qualifier.as_deref(), name), Ok(Some(_)));
        match (in_left, in_right) {
            (true, false) => Some(Side::Left),
            (false, true) => Some(Side::Right),
            _ => None,
        }
    } else {
        None
    }
}

fn flatten_conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary {
        op: perm_algebra::BinaryOp::And,
        left,
        right,
    } = expr
    {
        flatten_conjuncts(left, out);
        flatten_conjuncts(right, out);
    } else {
        out.push(expr);
    }
}

/// Three-valued truth helper re-exported for predicates in tests.
pub fn truth_of(value: &Value) -> Truth {
    value.as_truth()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;
    use perm_algebra::builder::{
        self, all_sublink, any_sublink, col, count_star, eq, exists_sublink, lit, qcol,
        scalar_sublink, sum, PlanBuilder,
    };
    use perm_algebra::{CompareOp, ProjectItem, SetOpKind};
    use perm_storage::{Attribute, DataType, Tuple};

    /// The example relations R(a,b) and S(c,d) from Figure 3 of the paper.
    fn figure3_db() -> Database {
        let mut db = Database::new();
        let r_schema = Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("r", "b", DataType::Int),
        ]);
        let s_schema = Schema::new(vec![
            Attribute::qualified("s", "c", DataType::Int),
            Attribute::qualified("s", "d", DataType::Int),
        ]);
        db.create_table(
            "r",
            Relation::from_rows(
                r_schema,
                vec![
                    vec![Value::Int(1), Value::Int(1)],
                    vec![Value::Int(2), Value::Int(1)],
                    vec![Value::Int(3), Value::Int(2)],
                ],
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                s_schema,
                vec![
                    vec![Value::Int(1), Value::Int(3)],
                    vec![Value::Int(2), Value::Int(4)],
                    vec![Value::Int(4), Value::Int(5)],
                ],
            ),
        )
        .unwrap();
        db
    }

    fn run(db: &Database, plan: &Plan) -> Relation {
        Executor::new(db).execute(plan).unwrap()
    }

    #[test]
    fn scan_select_project() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(eq(col("a"), lit(3)))
            .project_columns(&["b"])
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0], Tuple::new(vec![Value::Int(2)]));
    }

    #[test]
    fn projection_bag_vs_set() {
        let db = figure3_db();
        let bag = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["b"])
            .build();
        assert_eq!(run(&db, &bag).len(), 3);
        let set = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_distinct(vec![ProjectItem::column("b")])
            .build();
        assert_eq!(run(&db, &set).len(), 2);
    }

    #[test]
    fn cross_product_and_join() {
        let db = figure3_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let cross = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(s.clone())
            .build();
        assert_eq!(run(&db, &cross).len(), 9);
        let join = PlanBuilder::scan(&db, "r")
            .unwrap()
            .join(s, eq(col("a"), col("c")))
            .build();
        let result = run(&db, &join);
        assert_eq!(result.len(), 2); // a=1 matches c=1, a=2 matches c=2
    }

    #[test]
    fn left_outer_join_pads_with_nulls() {
        let db = figure3_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let join = PlanBuilder::scan(&db, "r")
            .unwrap()
            .left_join(s, eq(col("a"), col("c")))
            .build();
        let result = run(&db, &join);
        assert_eq!(result.len(), 3);
        let unmatched: Vec<&Tuple> = result
            .tuples()
            .iter()
            .filter(|t| t.get(0) == &Value::Int(3))
            .collect();
        assert_eq!(unmatched.len(), 1);
        assert!(unmatched[0].get(2).is_null());
        assert!(unmatched[0].get(3).is_null());
    }

    #[test]
    fn join_with_non_equi_condition_uses_nested_loop() {
        let db = figure3_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let join = PlanBuilder::scan(&db, "r")
            .unwrap()
            .join(s, builder::cmp(CompareOp::Lt, col("a"), col("c")))
            .build();
        let result = run(&db, &join);
        // pairs with a < c: (1,*)x(2,4),(4,5) ; (2,*)x(4,5); (3,*)x(4,5)
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn aggregate_with_and_without_groups() {
        let db = figure3_db();
        let global = PlanBuilder::scan(&db, "r")
            .unwrap()
            .aggregate(vec![], vec![sum(col("a"), "sum_a"), count_star("cnt")])
            .build();
        let result = run(&db, &global);
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.tuples()[0],
            Tuple::new(vec![Value::Int(6), Value::Int(3)])
        );

        let grouped = PlanBuilder::scan(&db, "r")
            .unwrap()
            .aggregate(vec![ProjectItem::column("b")], vec![sum(col("a"), "sum_a")])
            .build();
        let result = run(&db, &grouped);
        assert_eq!(result.len(), 2);
        let mut rows = result.sorted_tuples();
        rows.sort_by(|x, y| x.sort_key(y));
        assert_eq!(rows[0], Tuple::new(vec![Value::Int(1), Value::Int(3)]));
        assert_eq!(rows[1], Tuple::new(vec![Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn aggregate_over_empty_input_produces_single_row_without_groups() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(eq(col("a"), lit(999)))
            .aggregate(vec![], vec![count_star("cnt"), sum(col("a"), "s")])
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(0));
        assert!(result.tuples()[0].get(1).is_null());
    }

    #[test]
    fn set_operations() {
        let db = figure3_db();
        let r1 = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["b"])
            .build();
        let r2 = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["b"])
            .build();
        let union_all = PlanBuilder::from_plan(r1.clone())
            .set_op(SetOpKind::Union, true, r2.clone())
            .build();
        assert_eq!(run(&db, &union_all).len(), 6);
        let union = PlanBuilder::from_plan(r1.clone())
            .set_op(SetOpKind::Union, false, r2.clone())
            .build();
        assert_eq!(run(&db, &union).len(), 2);
        let except = PlanBuilder::from_plan(r1)
            .set_op(SetOpKind::Except, true, r2)
            .build();
        assert_eq!(run(&db, &except).len(), 0);
    }

    #[test]
    fn sort_and_limit() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .sort(vec![SortKey::desc(col("a"))])
            .limit(2)
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 2);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(3));
        assert_eq!(result.tuples()[1].get(0), &Value::Int(2));
    }

    #[test]
    fn uncorrelated_any_sublink_in_selection() {
        let db = figure3_db();
        // q1 from Figure 3: σ_{a = ANY(Π_c(S))}(R)
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 2);
        assert!(result.contains(&Tuple::new(vec![Value::Int(1), Value::Int(1)])));
        assert!(result.contains(&Tuple::new(vec![Value::Int(2), Value::Int(1)])));
    }

    #[test]
    fn uncorrelated_all_sublink_in_selection() {
        let db = figure3_db();
        // q2 from Figure 3: σ_{c > ALL(Π_a(R))}(S) — only (4,5) qualifies.
        let sub = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["a"])
            .build();
        let q = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(all_sublink(col("c"), CompareOp::Gt, sub))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.tuples()[0],
            Tuple::new(vec![Value::Int(4), Value::Int(5)])
        );
    }

    #[test]
    fn correlated_exists_sublink() {
        let db = figure3_db();
        // σ_{EXISTS(σ_{c = a}(S))}(R): rows of R whose a appears as S.c.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "a")))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 2);
        assert!(!result.contains(&Tuple::new(vec![Value::Int(3), Value::Int(2)])));
    }

    #[test]
    fn correlated_scalar_sublink_in_projection() {
        let db = figure3_db();
        // Π_{a, (σ_{c=b}(Π_c(S)))}(R): the scalar sublink returns the single
        // matching c or NULL.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project(vec![
                ProjectItem::column("a"),
                ProjectItem::new(scalar_sublink(sub), "match_c"),
            ])
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 3);
        let rows = result.sorted_tuples();
        assert_eq!(rows[0], Tuple::new(vec![Value::Int(1), Value::Int(1)]));
        assert_eq!(rows[1], Tuple::new(vec![Value::Int(2), Value::Int(1)]));
        assert_eq!(rows[2], Tuple::new(vec![Value::Int(3), Value::Int(2)]));
    }

    #[test]
    fn scalar_sublink_cardinality_violation_is_an_error() {
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project(vec![ProjectItem::new(scalar_sublink(sub), "x")])
            .build();
        let err = Executor::new(&db).execute(&q).unwrap_err();
        assert!(matches!(err, ExecError::ScalarSublinkCardinality(_)));
    }

    #[test]
    fn nested_sublinks() {
        let db = figure3_db();
        // σ_{a = ANY(σ_{c = ANY(Π_d(S))}(Π_c(S)))}(R):
        // inner: c values that appear among d values of S -> {4}
        // outer: rows of R with a = 4 -> none. Then with d replaced by c the
        // middle level keeps all c's -> rows with a ∈ {1,2,4} -> 2 rows.
        let inner = PlanBuilder::scan_as(&db, "s", Some("s2"))
            .unwrap()
            .project_columns(&["d"])
            .build();
        let middle = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(any_sublink(col("c"), CompareOp::Eq, inner))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, middle))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 0);
    }

    #[test]
    fn null_semantics_in_any_sublink() {
        // NOT IN with NULLs: x NOT IN (…, NULL, …) is never TRUE when no
        // element matches — the classic three-valued-logic trap.
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::from_names(&["x"]),
                vec![vec![Value::Int(1)], vec![Value::Int(5)]],
            ),
        )
        .unwrap();
        db.create_table(
            "u",
            Relation::from_rows(
                Schema::from_names(&["y"]),
                vec![vec![Value::Int(1)], vec![Value::Null]],
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "u").unwrap().build();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(builder::not(any_sublink(col("x"), CompareOp::Eq, sub)))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 0, "x NOT IN (1, NULL) must never be TRUE");
    }

    #[test]
    fn empty_sublink_results() {
        let db = figure3_db();
        let empty_sub = || {
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(eq(col("c"), lit(999)))
                .project_columns(&["c"])
                .build()
        };
        // ANY over empty is FALSE, ALL over empty is TRUE, EXISTS is FALSE.
        let any_q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, empty_sub()))
            .build();
        assert_eq!(run(&db, &any_q).len(), 0);
        let all_q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(all_sublink(col("a"), CompareOp::Eq, empty_sub()))
            .build();
        assert_eq!(run(&db, &all_q).len(), 3);
        let exists_q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(empty_sub()))
            .build();
        assert_eq!(run(&db, &exists_q).len(), 0);
    }

    #[test]
    fn values_plan_is_materialised() {
        let db = Database::new();
        let plan = Plan::Values {
            schema: Schema::from_names(&["x"]),
            rows: vec![
                Tuple::new(vec![Value::Int(7)]),
                Tuple::new(vec![Value::Null]),
            ],
        };
        let result = Executor::new(&db).execute(&plan).unwrap();
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn group_by_keeps_large_ints_distinct() {
        // Int(2⁵³) and Int(2⁵³ + 1) share an f64 view but are distinct
        // values; a lossy grouping key would merge their groups.
        const TWO_53: i64 = 1 << 53;
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "x", DataType::Int)]),
                vec![
                    vec![Value::Int(TWO_53)],
                    vec![Value::Int(TWO_53 + 1)],
                    vec![Value::Int(TWO_53)],
                ],
            ),
        )
        .unwrap();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .aggregate(vec![ProjectItem::column("x")], vec![count_star("n")])
            .build();
        for result in [
            Executor::new(&db).execute(&q).unwrap(),
            Executor::new(&db).execute_unoptimized(&q).unwrap(),
        ] {
            assert_eq!(result.len(), 2);
            let mut groups: Vec<(i64, i64)> = result
                .tuples()
                .iter()
                .map(|t| match (t.get(0), t.get(1)) {
                    (Value::Int(x), Value::Int(n)) => (*x, *n),
                    other => panic!("unexpected group row {other:?}"),
                })
                .collect();
            groups.sort_unstable();
            assert_eq!(groups, vec![(TWO_53, 2), (TWO_53 + 1, 1)]);
        }
    }

    #[test]
    fn hash_join_matches_date_keys_against_int_keys() {
        let mut db = Database::new();
        db.create_table(
            "d",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("d", "day", DataType::Date)]),
                vec![vec![Value::Date(3)], vec![Value::Date(9)]],
            ),
        )
        .unwrap();
        db.create_table(
            "n",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("n", "num", DataType::Int)]),
                vec![vec![Value::Int(3)], vec![Value::Int(7)]],
            ),
        )
        .unwrap();
        let join = PlanBuilder::scan(&db, "d")
            .unwrap()
            .join(
                PlanBuilder::scan(&db, "n").unwrap().build(),
                eq(col("day"), col("num")),
            )
            .build();
        // The condition is a column-to-column equality, so this runs as a
        // hash join; the Date(3)/Int(3) pair must meet in one bucket because
        // the engine's equality coerces dates numerically.
        let hashed = run(&db, &join);
        assert_eq!(hashed.len(), 1);
        assert_eq!(
            hashed.tuples()[0],
            Tuple::new(vec![Value::Date(3), Value::Int(3)])
        );
        // Cross-check against the nested-loop path: force it by OR-ing an
        // always-false disjunct, which defeats equi-key extraction.
        let nested = PlanBuilder::scan(&db, "d")
            .unwrap()
            .join(
                PlanBuilder::scan(&db, "n").unwrap().build(),
                builder::or(eq(col("day"), col("num")), eq(lit(1), lit(2))),
            )
            .build();
        assert!(run(&db, &nested).bag_eq(&hashed));
    }

    #[test]
    fn aggregate_groups_date_keys_with_equal_int_keys() {
        let mut db = Database::new();
        db.create_table(
            "m",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("m", "k", DataType::Any),
                    Attribute::qualified("m", "v", DataType::Int),
                ]),
                vec![
                    vec![Value::Date(3), Value::Int(10)],
                    vec![Value::Int(3), Value::Int(20)],
                    vec![Value::Float(3.0), Value::Int(30)],
                    vec![Value::Int(4), Value::Int(40)],
                ],
            ),
        )
        .unwrap();
        let q = PlanBuilder::scan(&db, "m")
            .unwrap()
            .aggregate(vec![ProjectItem::column("k")], vec![sum(col("v"), "s")])
            .build();
        let result = run(&db, &q);
        // Date(3), Int(3) and Float(3.0) are null_safe_eq-equal and must
        // land in one group.
        assert_eq!(result.len(), 2);
        let sums: Vec<i64> = result
            .tuples()
            .iter()
            .map(|t| match t.get(1) {
                Value::Int(i) => *i,
                other => panic!("expected int sum, got {other:?}"),
            })
            .collect();
        assert!(sums.contains(&60) && sums.contains(&40));
    }

    #[test]
    fn sublink_cache_reuses_uncorrelated_results() {
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let ex = Executor::new(&db);
        ex.execute(&q).unwrap();
        // The uncorrelated sublink plan (project over scan) is evaluated only
        // once even though R has three tuples: scan r + select + (project +
        // scan s) = 4 operator invocations.
        assert_eq!(ex.operators_evaluated(), 4);
    }

    #[test]
    fn interpreter_path_memoizes_correlated_sublinks_per_binding() {
        // The acceptance bar of the shared-operator refactor: the
        // parameterized sublink memo serves the interpreter too. R.b takes
        // the two distinct values {1, 2} over three rows, so the correlated
        // sublink (select + scan = 2 operators) runs twice, not thrice.
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();

        let memoized = Executor::new(&db);
        memoized.execute_unoptimized(&q).unwrap();
        assert_eq!(memoized.operators_evaluated(), 2 + 2 * 2);

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        unmemoized.execute_unoptimized(&q).unwrap();
        // Memo off: once per outer tuple again.
        assert_eq!(unmemoized.operators_evaluated(), 2 + 3 * 2);
    }

    #[test]
    fn initplan_caching_survives_memo_off_on_both_paths() {
        // Uncorrelated sublinks keep their per-query InitPlan cache even in
        // the memo-off baseline, mirroring the PostgreSQL engine the paper
        // measures against — on the interpreter *and* the compiled path, so
        // "memo off" means the same baseline on both.
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let interp = Executor::new(&db).with_sublink_memo(false);
        interp.execute_unoptimized(&q).unwrap();
        assert_eq!(interp.operators_evaluated(), 4);

        let compiled = Executor::new(&db).with_sublink_memo(false);
        compiled.execute(&q).unwrap();
        assert_eq!(compiled.operators_evaluated(), 4);
    }
}
