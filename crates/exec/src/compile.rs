//! Plan compilation: the one-time pass that turns a [`Plan`] into a
//! [`CompiledPlan`] whose per-tuple work is integer indexing instead of
//! name lookup.
//!
//! Two things happen per operator:
//!
//! 1. **Slot resolution.** Every [`Expr::Column`] is resolved against the
//!    concrete *schema chain* in scope at its location — the operator's own
//!    input schema innermost, then the scopes of the operators containing
//!    each enclosing sublink, outermost last — into a [`Slot`] of scope
//!    depth and attribute index. Resolution order matches the interpreter's
//!    [`crate::eval::Env::lookup`] exactly: innermost scope first, falling
//!    outwards only when a name is absent. Names that do not resolve (or are
//!    ambiguous within the scope that first knows them) compile to a
//!    deferred error that is raised only if the expression is actually
//!    evaluated, preserving the interpreter's short-circuit behaviour.
//! 2. **Correlation signatures.** For every sublink, the free correlated
//!    columns of its plan ([`free_correlated_columns`]) are resolved against
//!    the outer chain. When they all resolve, the sublink is *memoizable*:
//!    its result is a pure function of the database and those binding
//!    values, so the executor caches it per `(sublink id, encoded binding)`
//!    — *k* distinct bindings mean *k* executions, however large the outer
//!    relation is. An uncorrelated sublink has an empty signature and runs
//!    once per query.
//!
//! Compilation never changes semantics: results (including errors) are
//! identical to [`crate::Executor::execute_unoptimized`]. In particular the
//! memo key is *type-exact* ([`encode_key_typed`]) — `Int(3)` and
//! `Float(3.0)` are distinct bindings even though the engine's equality
//! coerces them — so a memo hit always substitutes the result of a
//! byte-identical binding.

use crate::batch::Batch;
use crate::eval::{arithmetic, compare};
use crate::executor::{extract_equi_keys, Executor};
use crate::functions;
use crate::physical::{self, AggSpec};
use crate::profile::{OpProbe, ProfNode, ProfileTree, QueryProfile};
use crate::{ExecError, Result};
use perm_algebra::visit::{free_correlated_columns, free_params};
use perm_algebra::{
    AggFunc, BinaryOp, CompareOp, Expr, FuncName, JoinKind, Plan, SetOpKind, SublinkKind, UnaryOp,
};
use perm_storage::{
    encode_key_typed, ColumnVec, Relation, Schema, StorageError, Truth, Tuple, Validity, Value,
};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A resolved column reference: how many scopes outwards, and at which
/// attribute position there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Scope distance: 0 is the innermost (current operator input) scope.
    pub depth: usize,
    /// Attribute index within that scope's tuple.
    pub index: usize,
}

/// A compiled scalar expression. Structurally mirrors [`Expr`] with column
/// references replaced by [`Slot`]s and sublinks by [`CompiledSublink`]s.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A column resolved to a positional slot.
    Slot(Slot),
    /// A column that did not resolve at compile time. Evaluating it raises
    /// the stored error — exactly when the interpreter would have raised it.
    Unresolved {
        /// Name as written, for the error message.
        name: String,
        /// `true` when the name was ambiguous rather than unknown.
        ambiguous: bool,
    },
    /// A constant.
    Literal(Value),
    /// A query parameter (`$1` is index 0), read from the executor's bound
    /// parameter vector at evaluation time.
    Param(usize),
    /// Binary operation.
    Binary {
        op: BinaryOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    /// Unary operation.
    Unary {
        op: UnaryOp,
        expr: Box<CompiledExpr>,
    },
    /// Scalar function call.
    Func {
        name: FuncName,
        args: Vec<CompiledExpr>,
    },
    /// `CASE WHEN … THEN … ELSE … END`.
    Case {
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
    /// A sublink with its compiled plan and correlation signature.
    Sublink(Box<CompiledSublink>),
}

/// A compiled sublink expression.
#[derive(Debug, Clone)]
pub struct CompiledSublink {
    /// Unique id (per [`Executor`]) used in memo keys.
    pub id: usize,
    /// The sublink kind (`ANY`, `ALL`, `EXISTS`, scalar).
    pub kind: SublinkKind,
    /// Test expression of `ANY`/`ALL` sublinks, compiled against the outer
    /// scope chain.
    pub test_expr: Option<CompiledExpr>,
    /// Comparison operator of `ANY`/`ALL` sublinks.
    pub op: Option<CompareOp>,
    /// The compiled sublink query.
    pub plan: CompiledPlan,
    /// The correlation signature: outer-scope slots (relative to the
    /// sublink's use site) whose values parameterise the result. `Some` when
    /// every free column of the sublink plan resolved statically — the memo
    /// precondition. Empty means uncorrelated (InitPlan).
    pub params: Option<Vec<Slot>>,
    /// The query-parameter indices the sublink plan references (transitively,
    /// including nested sublinks), sorted. The bound values of exactly these
    /// indices are folded into the memo key alongside the correlation
    /// bindings, so memoization stays correct across executions of one
    /// prepared plan with different parameter vectors.
    pub param_refs: Vec<usize>,
}

/// One compiled hash-join key pair (see
/// [`crate::executor::Executor::execute`]'s equi-join hashing).
#[derive(Debug, Clone)]
pub struct CompiledEquiKey {
    /// Key expression over the left input.
    pub left: CompiledExpr,
    /// Key expression over the right input.
    pub right: CompiledExpr,
    /// `=n` instead of `=`: NULL keys match NULL keys.
    pub null_safe: bool,
}

/// One compiled aggregate computation.
#[derive(Debug, Clone)]
pub struct CompiledAggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` for `count(*)`).
    pub arg: Option<CompiledExpr>,
    /// Whether duplicates are dropped before aggregating.
    pub distinct: bool,
}

/// One compiled `ORDER BY` key.
#[derive(Debug, Clone)]
pub struct CompiledSortKey {
    /// Sort expression.
    pub expr: CompiledExpr,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

/// A compiled plan operator. Every node carries its output schema, computed
/// once at compile time.
#[derive(Debug, Clone)]
pub enum CompiledPlan {
    /// Base relation access.
    Scan { table: String, schema: Schema },
    /// Constant relation.
    Values { schema: Schema, rows: Vec<Tuple> },
    /// Projection.
    Project {
        input: Box<CompiledPlan>,
        items: Vec<CompiledExpr>,
        distinct: bool,
        schema: Schema,
    },
    /// Selection.
    Select {
        input: Box<CompiledPlan>,
        predicate: CompiledExpr,
        schema: Schema,
    },
    /// Cross product.
    CrossProduct {
        left: Box<CompiledPlan>,
        right: Box<CompiledPlan>,
        schema: Schema,
    },
    /// Inner or left-outer join. `equi_keys` is non-empty when the condition
    /// admits hash execution; the full condition is always rechecked.
    Join {
        left: Box<CompiledPlan>,
        right: Box<CompiledPlan>,
        kind: JoinKind,
        condition: CompiledExpr,
        equi_keys: Vec<CompiledEquiKey>,
        schema: Schema,
    },
    /// Grouping and aggregation.
    Aggregate {
        input: Box<CompiledPlan>,
        group_by: Vec<CompiledExpr>,
        aggregates: Vec<CompiledAggregate>,
        schema: Schema,
    },
    /// Set operation.
    SetOp {
        op: SetOpKind,
        all: bool,
        left: Box<CompiledPlan>,
        right: Box<CompiledPlan>,
        schema: Schema,
    },
    /// Sorting.
    Sort {
        input: Box<CompiledPlan>,
        keys: Vec<CompiledSortKey>,
        schema: Schema,
    },
    /// First-`n` truncation.
    Limit {
        input: Box<CompiledPlan>,
        limit: usize,
        schema: Schema,
    },
}

impl CompiledPlan {
    /// The output schema of this operator.
    pub fn schema(&self) -> &Schema {
        match self {
            CompiledPlan::Scan { schema, .. }
            | CompiledPlan::Values { schema, .. }
            | CompiledPlan::Project { schema, .. }
            | CompiledPlan::Select { schema, .. }
            | CompiledPlan::CrossProduct { schema, .. }
            | CompiledPlan::Join { schema, .. }
            | CompiledPlan::Aggregate { schema, .. }
            | CompiledPlan::SetOp { schema, .. }
            | CompiledPlan::Sort { schema, .. }
            | CompiledPlan::Limit { schema, .. } => schema,
        }
    }
}

/// The compile-time scope chain, innermost scope at the head. Parallel to
/// the runtime [`Frame`] chain.
struct Scopes<'a> {
    parent: Option<&'a Scopes<'a>>,
    schema: &'a Schema,
}

impl<'a> Scopes<'a> {
    fn nest(parent: Option<&'a Scopes<'a>>, schema: &'a Schema) -> Scopes<'a> {
        Scopes { parent, schema }
    }

    /// Resolves a name along the chain, innermost first — the compile-time
    /// mirror of [`crate::eval::Env::lookup`].
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> CompiledExpr {
        match self.schema.try_resolve(qualifier, name) {
            Ok(Some(index)) => CompiledExpr::Slot(Slot { depth: 0, index }),
            Ok(None) => match self.parent {
                Some(p) => match p.resolve(qualifier, name) {
                    CompiledExpr::Slot(slot) => CompiledExpr::Slot(Slot {
                        depth: slot.depth + 1,
                        index: slot.index,
                    }),
                    unresolved => unresolved,
                },
                None => CompiledExpr::Unresolved {
                    name: name.to_string(),
                    ambiguous: false,
                },
            },
            // Ambiguity in the innermost scope that knows the name stops the
            // search, exactly like the interpreter.
            Err(_) => CompiledExpr::Unresolved {
                name: name.to_string(),
                ambiguous: true,
            },
        }
    }
}

/// The runtime scope chain: one borrowed tuple per compile-time scope.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    parent: Option<&'a Frame<'a>>,
    tuple: &'a Tuple,
}

impl<'a> Frame<'a> {
    /// Pushes a new innermost scope.
    pub fn new(parent: Option<&'a Frame<'a>>, tuple: &'a Tuple) -> Frame<'a> {
        Frame { parent, tuple }
    }

    /// Reads the value at a compiled slot.
    fn get(&self, slot: Slot) -> &Value {
        let mut frame = self;
        for _ in 0..slot.depth {
            frame = frame
                .parent
                .expect("compiled slot depth exceeds runtime scope chain");
        }
        frame.tuple.get(slot.index)
    }
}

/// Source of compiled-sublink ids: process-wide, so the memo keys of plans
/// prepared by *different* executors (e.g. two sessions sharing one engine,
/// or a prepared statement outliving the session that compiled it) can never
/// collide either — including when those preparations *race* on different
/// threads.
///
/// Memory-ordering contract: `fetch_add(1, Ordering::Relaxed)` is a single
/// atomic read-modify-write, so every call observes a distinct value of the
/// counter — uniqueness needs only the atomicity of the RMW, not any
/// ordering of *other* memory between threads. The id is then embedded in a
/// `CompiledPlan` that reaches other threads only through a synchronising
/// handoff (an `Arc` behind the engine's plan-cache mutex, a scoped-thread
/// join, a channel), and that handoff provides the happens-before edge that
/// publishes the plan's memory. `Relaxed` is therefore sufficient and the
/// cheapest correct choice; `SeqCst` would buy nothing.
///
/// The memo key spaces stay collision-proof on top of unique ids because
/// every key leads with a namespace tag: compiled keys
/// (`MEMO_TAG_COMPILED`) embed this id; interpreter keys
/// (`MEMO_TAG_INTERPRETED`) embed a plan node *address* and are only ever
/// stored in executor-private maps (addresses are not stable or meaningful
/// across executors, so they are excluded from the shared memo by
/// construction — see `crate::memo::SharedSublinkMemo`).
static NEXT_SUBLINK_ID: AtomicUsize = AtomicUsize::new(0);

/// Applies a unary operator to an already-evaluated value. Shared by the
/// per-tuple evaluator and the vectorized batch evaluator so their
/// semantics cannot drift apart.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::Not => v.as_truth().not().to_value(),
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            _ => return Err(ExecError::Type("cannot negate non-number".into())),
        },
        UnaryOp::IsNull => Value::Bool(v.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!v.is_null()),
    })
}

/// Applies a non-logical binary operator to already-evaluated operand
/// values (`AND`/`OR` short-circuit over unevaluated operands and are
/// handled by the callers). Shared by the per-tuple and the vectorized
/// evaluator.
pub(crate) fn apply_binary_scalar(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arithmetic(op, l, r)
        }
        BinaryOp::Cmp(cmp_op) => Ok(compare(cmp_op, l, r).to_value()),
        BinaryOp::NullSafeEq => Ok(Value::Bool(l.null_safe_eq(r))),
        BinaryOp::Like => Ok(functions::sql_like(l, r).to_value()),
        BinaryOp::NotLike => Ok(functions::sql_like(l, r).not().to_value()),
        BinaryOp::Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Ok(Value::Str(format!("{l}{r}"))),
        },
        BinaryOp::And | BinaryOp::Or => unreachable!("logical connectives short-circuit"),
    }
}

/// Classifies one attribute of a batch's live rows into a column: the
/// first non-NULL value picks the lane, mixed representations demote to
/// the `Values` fallback lane (see `perm_storage::column`).
fn classify_rows(batch: &Batch<'_>, index: usize) -> ColumnVec {
    let n = batch.len();
    let first = (0..n)
        .map(|i| batch.row(i).get(index))
        .find(|v| !v.is_null());
    let mut col = match first {
        Some(v) => ColumnVec::typed_for(v, n),
        None => ColumnVec::values_with_capacity(n),
    };
    for i in 0..n {
        col.push_value(batch.row(i).get(index).clone());
    }
    col
}

/// Whether the left operand's truth alone decides a logical connective
/// for a row (FALSE decides `AND`, TRUE decides `OR`).
fn logic_decided(op: BinaryOp, t: Truth) -> bool {
    (op == BinaryOp::And && t == Truth::False) || (op == BinaryOp::Or && t == Truth::True)
}

/// Packs three-valued truths into a `Bool` lane (Unknown ⇒ invalid slot),
/// the columnar image of `Truth::to_value`.
fn truths_to_bool_lane(truths: impl Iterator<Item = Truth>, n: usize) -> ColumnVec {
    let mut data = Vec::with_capacity(n);
    let mut validity = Validity::with_capacity(n);
    for t in truths {
        validity.push(t != Truth::Unknown);
        data.push(t == Truth::True);
    }
    ColumnVec::Bool { data, validity }
}

/// Compiles a plan with an empty outer scope chain.
pub(crate) fn compile_plan(plan: &Plan) -> Result<CompiledPlan> {
    let mut compiler = Compiler;
    compiler.plan(plan, None)
}

struct Compiler;

impl Compiler {
    fn plan(&mut self, plan: &Plan, outer: Option<&Scopes<'_>>) -> Result<CompiledPlan> {
        match plan {
            Plan::Scan { table, schema, .. } => Ok(CompiledPlan::Scan {
                table: table.clone(),
                schema: schema.clone(),
            }),
            Plan::Values { schema, rows } => Ok(CompiledPlan::Values {
                schema: schema.clone(),
                rows: rows.clone(),
            }),
            Plan::Project {
                input,
                items,
                distinct,
            } => {
                let child_schema = input.schema();
                let scope = Scopes::nest(outer, &child_schema);
                let items = items
                    .iter()
                    .map(|item| self.expr(&item.expr, Some(&scope)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(CompiledPlan::Project {
                    input: Box::new(self.plan(input, outer)?),
                    items,
                    distinct: *distinct,
                    schema: plan.schema(),
                })
            }
            Plan::Select { input, predicate } => {
                let child_schema = input.schema();
                let scope = Scopes::nest(outer, &child_schema);
                let predicate = self.expr(predicate, Some(&scope))?;
                Ok(CompiledPlan::Select {
                    input: Box::new(self.plan(input, outer)?),
                    predicate,
                    schema: child_schema,
                })
            }
            Plan::CrossProduct { left, right } => Ok(CompiledPlan::CrossProduct {
                schema: plan.schema(),
                left: Box::new(self.plan(left, outer)?),
                right: Box::new(self.plan(right, outer)?),
            }),
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => {
                let l_schema = left.schema();
                let r_schema = right.schema();
                // The condition always sees the concatenated candidate row;
                // the stored output schema is left-only for semi/anti joins.
                let cond_schema = l_schema.concat(&r_schema);
                let out_schema = if kind.left_only_output() {
                    l_schema.clone()
                } else {
                    cond_schema.clone()
                };

                // Hash keys only for sublink-free conditions, as in the
                // interpreter. Each side compiles against its own input
                // scope; the residual condition sees the joined row.
                let mut equi_keys = Vec::new();
                if !condition.has_sublink() {
                    for key in extract_equi_keys(condition, &l_schema, &r_schema) {
                        let l_scope = Scopes::nest(outer, &l_schema);
                        let r_scope = Scopes::nest(outer, &r_schema);
                        equi_keys.push(CompiledEquiKey {
                            left: self.expr(&key.left, Some(&l_scope))?,
                            right: self.expr(&key.right, Some(&r_scope))?,
                            null_safe: key.null_safe,
                        });
                    }
                }
                let scope = Scopes::nest(outer, &cond_schema);
                let condition = self.expr(condition, Some(&scope))?;
                Ok(CompiledPlan::Join {
                    left: Box::new(self.plan(left, outer)?),
                    right: Box::new(self.plan(right, outer)?),
                    kind: *kind,
                    condition,
                    equi_keys,
                    schema: out_schema,
                })
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let child_schema = input.schema();
                let scope = Scopes::nest(outer, &child_schema);
                let group_by = group_by
                    .iter()
                    .map(|g| self.expr(&g.expr, Some(&scope)))
                    .collect::<Result<Vec<_>>>()?;
                let aggregates = aggregates
                    .iter()
                    .map(|a| {
                        Ok(CompiledAggregate {
                            func: a.func,
                            arg: a
                                .arg
                                .as_ref()
                                .map(|arg| self.expr(arg, Some(&scope)))
                                .transpose()?,
                            distinct: a.distinct,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(CompiledPlan::Aggregate {
                    input: Box::new(self.plan(input, outer)?),
                    group_by,
                    aggregates,
                    schema: plan.schema(),
                })
            }
            Plan::SetOp {
                op,
                all,
                left,
                right,
            } => Ok(CompiledPlan::SetOp {
                op: *op,
                all: *all,
                schema: left.schema(),
                left: Box::new(self.plan(left, outer)?),
                right: Box::new(self.plan(right, outer)?),
            }),
            Plan::Sort { input, keys } => {
                let child_schema = input.schema();
                let scope = Scopes::nest(outer, &child_schema);
                let keys = keys
                    .iter()
                    .map(|k| {
                        Ok(CompiledSortKey {
                            expr: self.expr(&k.expr, Some(&scope))?,
                            ascending: k.ascending,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(CompiledPlan::Sort {
                    input: Box::new(self.plan(input, outer)?),
                    keys,
                    schema: child_schema,
                })
            }
            Plan::Limit { input, limit } => Ok(CompiledPlan::Limit {
                schema: input.schema(),
                input: Box::new(self.plan(input, outer)?),
                limit: *limit,
            }),
        }
    }

    fn expr(&mut self, expr: &Expr, scopes: Option<&Scopes<'_>>) -> Result<CompiledExpr> {
        Ok(match expr {
            Expr::Column { qualifier, name } => match scopes {
                Some(s) => s.resolve(qualifier.as_deref(), name),
                None => CompiledExpr::Unresolved {
                    name: name.clone(),
                    ambiguous: false,
                },
            },
            Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
            Expr::Param(index) => CompiledExpr::Param(*index),
            Expr::Binary { op, left, right } => CompiledExpr::Binary {
                op: *op,
                left: Box::new(self.expr(left, scopes)?),
                right: Box::new(self.expr(right, scopes)?),
            },
            Expr::Unary { op, expr } => CompiledExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr, scopes)?),
            },
            Expr::Func { name, args } => CompiledExpr::Func {
                name: *name,
                args: args
                    .iter()
                    .map(|a| self.expr(a, scopes))
                    .collect::<Result<Vec<_>>>()?,
            },
            Expr::Case {
                branches,
                else_expr,
            } => CompiledExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.expr(c, scopes)?, self.expr(v, scopes)?)))
                    .collect::<Result<Vec<_>>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.expr(e, scopes)?)),
                    None => None,
                },
            },
            Expr::Sublink {
                kind,
                test_expr,
                op,
                plan,
            } => {
                let id = NEXT_SUBLINK_ID.fetch_add(1, Ordering::Relaxed);

                // The correlation signature: every free column of the
                // sublink plan, resolved against the chain at the use site.
                // One unresolvable or ambiguous reference disables
                // memoization for this sublink (it may still execute — the
                // reference might sit behind a short circuit).
                let mut params: Option<Vec<Slot>> = Some(Vec::new());
                for (qualifier, name) in free_correlated_columns(plan) {
                    let resolved = match scopes {
                        Some(s) => s.resolve(qualifier.as_deref(), &name),
                        None => CompiledExpr::Unresolved {
                            name,
                            ambiguous: false,
                        },
                    };
                    match resolved {
                        CompiledExpr::Slot(slot) => {
                            if let Some(p) = params.as_mut() {
                                if !p.contains(&slot) {
                                    p.push(slot);
                                }
                            }
                        }
                        _ => params = None,
                    }
                }

                CompiledExpr::Sublink(Box::new(CompiledSublink {
                    id,
                    kind: *kind,
                    test_expr: test_expr
                        .as_deref()
                        .map(|t| self.expr(t, scopes))
                        .transpose()?,
                    op: *op,
                    plan: self.sublink_plan(plan, scopes)?,
                    params,
                    param_refs: free_params(plan),
                }))
            }
        })
    }

    /// Compiles a sublink plan. Its outer chain is the scope chain at the
    /// sublink's use site — operators inside the sublink do *not* see each
    /// other's scopes, matching the interpreter's environment threading.
    fn sublink_plan(&mut self, plan: &Plan, scopes: Option<&Scopes<'_>>) -> Result<CompiledPlan> {
        self.plan(plan, scopes)
    }
}

use crate::cursor::streams_lazily;

impl Executor<'_> {
    /// Recursive compiled-path plan evaluation: executes children, wraps
    /// the vectorized batch evaluator (`Executor::ceval_batch`) into
    /// batch-evaluator closures over a [`Frame`] slot chain, and delegates
    /// every operator body to `crate::physical` — the same bodies the
    /// interpreter drives. `frame` is the runtime scope chain for
    /// correlated slot references (present when this plan is a sublink
    /// query of an outer operator).
    ///
    /// A **top-level** `LIMIT` (this entry point, no enclosing frame) over
    /// a lazily streamable spine is routed through the `crate::cursor`
    /// pull machinery, so the materialising path shares the cursor's
    /// guarantee of never evaluating input beyond what the limit consumes.
    /// The routing happens only here, never in the recursion: a limit
    /// nested under an operator (or inside a sublink plan) executes
    /// eagerly, exactly like the reference interpreter — only the
    /// documented top-level case may diverge from it on an erroring tail.
    pub fn execute_compiled(
        &self,
        plan: &CompiledPlan,
        frame: Option<&Frame<'_>>,
    ) -> Result<Relation> {
        if frame.is_none() {
            if let CompiledPlan::Limit { input, .. } = plan {
                if streams_lazily(input) {
                    return self.open(plan)?.into_relation();
                }
            }
        }
        self.execute_compiled_node(plan, frame, None)
    }

    /// [`Executor::execute_compiled`] with a [`ProfileTree`] armed for the
    /// duration: the `EXPLAIN ANALYZE` entry point. Builds the zeroed
    /// skeleton for `plan`, attaches it to the executor (weakly — see
    /// `Executor::set_profile`) so the memoized-sublink seam can attribute
    /// hits and misses, executes with per-node probes threaded through the
    /// drivers, and returns the result alongside the annotated snapshot.
    /// A *top-level* `LIMIT` over a streamable spine is cursor-routed with
    /// the same profile tree, so the routing decision is identical to the
    /// unprofiled path.
    pub fn execute_profiled(&self, plan: &CompiledPlan) -> Result<(Relation, QueryProfile)> {
        let tree = ProfileTree::for_plan(plan);
        self.set_profile(Some(&tree));
        let result = (|| {
            if let CompiledPlan::Limit { input, .. } = plan {
                if streams_lazily(input) {
                    return self.open_with_tree(plan, Rc::clone(&tree))?.into_relation();
                }
            }
            self.execute_compiled_node(plan, None, Some(&tree.root))
        })();
        self.set_profile(None);
        result.map(|rel| (rel, tree.snapshot()))
    }

    /// Wraps one physical operator call when a profile node is armed:
    /// records input rows (child cardinalities), output rows on success,
    /// and the operator body's *deltas* of the executor's spill and
    /// columnar-fallback counters — children have already executed when
    /// the body runs, so a delta taken around the body alone attributes
    /// the work to the operator that did it (sublinks evaluated inside the
    /// body's expressions included, like nested `EXPLAIN ANALYZE` time).
    fn profiled(
        &self,
        prof: Option<&ProfNode>,
        rows_in: u64,
        body: impl FnOnce() -> Result<Relation>,
    ) -> Result<Relation> {
        let Some(node) = prof else { return body() };
        let spilled0 = self.governor.spilled_bytes();
        let parts0 = self.governor.spill_partitions();
        let colfb0 = self.columnar_fallback_rows();
        let result = body();
        let s = &node.stats;
        s.rows_in.set(s.rows_in.get() + rows_in);
        s.spilled_bytes
            .set(s.spilled_bytes.get() + (self.governor.spilled_bytes() - spilled0));
        s.spill_partitions
            .set(s.spill_partitions.get() + (self.governor.spill_partitions() - parts0));
        s.columnar_fallback_rows
            .set(s.columnar_fallback_rows.get() + (self.columnar_fallback_rows() - colfb0));
        if let Ok(rel) = &result {
            s.rows_out.set(s.rows_out.get() + rel.len() as u64);
        }
        result
    }

    /// The recursive operator evaluation behind [`Executor::execute_compiled`]
    /// (which see): no cursor routing happens at this level. `prof` is the
    /// armed profile node mirroring `plan` (`None` on every unprofiled
    /// path); children recurse positionally into its child nodes, so the
    /// tree stays aligned with the plan by construction.
    pub(crate) fn execute_compiled_node(
        &self,
        plan: &CompiledPlan,
        frame: Option<&Frame<'_>>,
        prof: Option<&ProfNode>,
    ) -> Result<Relation> {
        let gov = &self.governor;
        let probe = OpProbe::new(&self.ops_evaluated, prof.map(|p| &p.stats));
        match plan {
            CompiledPlan::Scan { table, schema } => self.profiled(prof, 0, || {
                physical::scan(probe, gov, self.database(), table, schema)
            }),
            CompiledPlan::Values { schema, rows } => {
                self.profiled(prof, 0, || physical::values(probe, gov, schema, rows))
            }
            CompiledPlan::Project {
                input,
                items,
                distinct,
                schema,
            } => {
                let child = self.execute_compiled_node(input, frame, prof.map(|p| p.child(0)))?;
                self.profiled(prof, child.len() as u64, || {
                    physical::project(
                        probe,
                        gov,
                        &child,
                        schema.clone(),
                        *distinct,
                        |batch, out| self.project_rows_vectorized(items, batch, frame, out),
                    )
                })
            }
            CompiledPlan::Select {
                input, predicate, ..
            } => {
                let child = self.execute_compiled_node(input, frame, prof.map(|p| p.child(0)))?;
                self.profiled(prof, child.len() as u64, || {
                    physical::select(probe, gov, &child, |batch, out| {
                        self.predicate_truths_vectorized(predicate, batch, frame, out)
                    })
                })
            }
            CompiledPlan::CrossProduct {
                left,
                right,
                schema,
            } => {
                let l = self.execute_compiled_node(left, frame, prof.map(|p| p.child(0)))?;
                let r = self.execute_compiled_node(right, frame, prof.map(|p| p.child(1)))?;
                self.profiled(prof, (l.len() + r.len()) as u64, || {
                    physical::cross_product(probe, gov, &l, &r, schema.clone())
                })
            }
            CompiledPlan::Join {
                left,
                right,
                kind,
                condition,
                equi_keys,
                schema,
            } => {
                let l = self.execute_compiled_node(left, frame, prof.map(|p| p.child(0)))?;
                if l.is_empty() && kind.left_only_output() {
                    // A decorrelated sublink's inner plan never ran when the
                    // outer input was empty; skipping the build side keeps
                    // the operator count and error surface of the reference
                    // per-binding evaluation.
                    return Ok(Relation::empty(schema.clone()));
                }
                let r = self.execute_compiled_node(right, frame, prof.map(|p| p.child(1)))?;
                let null_safe: Vec<bool> = equi_keys.iter().map(|k| k.null_safe).collect();
                self.profiled(prof, (l.len() + r.len()) as u64, || {
                    physical::join(
                        probe,
                        gov,
                        &l,
                        &r,
                        schema,
                        *kind,
                        &null_safe,
                        |batch, i, col| self.expr_batch(&equi_keys[i].left, batch, frame, col),
                        |batch, i, col| self.expr_batch(&equi_keys[i].right, batch, frame, col),
                        |batch, out| self.predicate_truths_vectorized(condition, batch, frame, out),
                    )
                })
            }
            CompiledPlan::Aggregate {
                input,
                group_by,
                aggregates,
                schema,
            } => {
                let child = self.execute_compiled_node(input, frame, prof.map(|p| p.child(0)))?;
                let specs: Vec<AggSpec> = aggregates
                    .iter()
                    .map(|a| AggSpec {
                        func: a.func,
                        distinct: a.distinct,
                        has_arg: a.arg.is_some(),
                    })
                    .collect();
                self.profiled(prof, child.len() as u64, || {
                    physical::aggregate(
                        probe,
                        gov,
                        &child,
                        schema.clone(),
                        group_by.len(),
                        &specs,
                        |batch, group_cols, agg_cols| {
                            for (expr, col) in group_by.iter().zip(group_cols.iter_mut()) {
                                self.expr_batch(expr, batch, frame, col)?;
                            }
                            for (a, col) in aggregates.iter().zip(agg_cols.iter_mut()) {
                                if let Some(arg) = &a.arg {
                                    self.expr_values(arg, batch, frame, col)?;
                                }
                            }
                            Ok(())
                        },
                    )
                })
            }
            CompiledPlan::SetOp {
                op,
                all,
                left,
                right,
                ..
            } => {
                let l = self.execute_compiled_node(left, frame, prof.map(|p| p.child(0)))?;
                let r = self.execute_compiled_node(right, frame, prof.map(|p| p.child(1)))?;
                self.profiled(prof, (l.len() + r.len()) as u64, || {
                    physical::set_op(probe, gov, *op, *all, &l, &r)
                })
            }
            CompiledPlan::Sort { input, keys, .. } => {
                let child = self.execute_compiled_node(input, frame, prof.map(|p| p.child(0)))?;
                let ascending: Vec<bool> = keys.iter().map(|k| k.ascending).collect();
                let rows_in = child.len() as u64;
                self.profiled(prof, rows_in, || {
                    physical::sort(probe, gov, child, &ascending, |batch, cols| {
                        for (k, col) in keys.iter().zip(cols.iter_mut()) {
                            self.expr_values(&k.expr, batch, frame, col)?;
                        }
                        Ok(())
                    })
                })
            }
            CompiledPlan::Limit { input, limit, .. } => {
                // Eager truncation: the cursor routing for a *top-level*
                // LIMIT lives in `execute_compiled` alone, so a limit
                // nested under an operator or inside a sublink plan
                // evaluates its whole input exactly like the interpreter.
                let child = self.execute_compiled_node(input, frame, prof.map(|p| p.child(0)))?;
                let rows_in = child.len() as u64;
                self.profiled(prof, rows_in, || physical::limit(probe, gov, child, *limit))
            }
        }
    }

    /// The vectorized projection core, shared by the materialising driver
    /// and the streaming cursor: every item is evaluated vectorized into a
    /// column, and the columns are transposed into output rows
    /// (`with_capacity` + push — fallible `collect` grows by realloc).
    /// Appends nothing on error: all columns are fully evaluated before
    /// the first row is emitted, which is what lets the cursor replay a
    /// failing batch per tuple without deduplicating output.
    pub(crate) fn project_rows_vectorized(
        &self,
        items: &[CompiledExpr],
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let n = batch.len();
        let mut columns: Vec<ColumnVec> = Vec::with_capacity(items.len());
        for item in items {
            if let Some(col) = self.bare_slot_column(item, batch) {
                columns.push(col);
                continue;
            }
            columns.push(self.ceval_batch(item, batch, outer)?);
        }
        for i in 0..n {
            let mut row = Vec::with_capacity(items.len());
            for col in columns.iter_mut() {
                // Move, don't clone: each column cell is consumed once.
                row.push(col.take_value(i));
            }
            out.push(Tuple::new(row));
        }
        Ok(())
    }

    /// The bare-column bypass: a depth-0 `Slot` item gathers its values
    /// straight from the rows instead of
    /// round-tripping through the block's lane cache, which would cost one
    /// extra full-column copy (gather-from-lane after classify-into-lane)
    /// for a value that is consumed exactly once. Counts as one vectorized
    /// batch, exactly like the dispatch it replaces.
    fn bare_slot_column(&self, item: &CompiledExpr, batch: &Batch<'_>) -> Option<ColumnVec> {
        if batch.is_empty() {
            return None;
        }
        match item {
            CompiledExpr::Slot(slot) if slot.depth == 0 => {
                self.batches_vectorized
                    .set(self.batches_vectorized.get() + 1);
                let n = batch.len();
                let mut col = Vec::with_capacity(n);
                for i in 0..n {
                    col.push(batch.row(i).get(slot.index).clone());
                }
                Some(ColumnVec::Values(col))
            }
            _ => None,
        }
    }

    /// The vectorized predicate core, shared by the materialising driver
    /// and the streaming cursor: one three-valued-TRUE verdict per live
    /// row. Appends nothing on error.
    pub(crate) fn predicate_truths_vectorized(
        &self,
        predicate: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<bool>,
    ) -> Result<()> {
        let values = self.ceval_batch(predicate, batch, outer)?;
        match &values {
            // The typed fast path: a comparison kernel's Bool lane turns
            // into verdicts without materialising a `Value` per row.
            ColumnVec::Bool { data, validity } => {
                if validity.is_all_valid() {
                    out.extend_from_slice(data);
                } else {
                    for (i, b) in data.iter().enumerate() {
                        out.push(validity.get(i) && *b);
                    }
                }
            }
            other => {
                for i in 0..other.len() {
                    out.push(other.truth_at(i).is_true());
                }
            }
        }
        Ok(())
    }

    /// A single expression over one batch for the compiled driver (join
    /// keys): one value per live row, in a column. A bare depth-0 slot
    /// classifies straight into a typed lane — the common equi-key shape,
    /// which the column-wise key encoders then consume without a `Value`
    /// match per row — skipping the block's lane cache (keys are read
    /// once; the cache round-trip would cost an extra copy).
    fn expr_batch(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut ColumnVec,
    ) -> Result<()> {
        if !batch.is_empty() {
            if let CompiledExpr::Slot(slot) = expr {
                if slot.depth == 0 {
                    self.batches_vectorized
                        .set(self.batches_vectorized.get() + 1);
                    *out = classify_rows(batch, slot.index);
                    return Ok(());
                }
            }
        }
        *out = self.ceval_batch(expr, batch, outer)?;
        Ok(())
    }

    /// A single expression over one batch, appended as row-major values
    /// (sort keys, the interpreter-compatible aggregate inputs).
    fn expr_values(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        if let Some(col) = self.bare_slot_column(expr, batch) {
            col.append_to_values(out);
            return Ok(());
        }
        self.ceval_batch(expr, batch, outer)?.append_to_values(out);
        Ok(())
    }

    /// Evaluates a compiled expression **vectorized** over every live row
    /// of a batch, appending one value per live row in selection order —
    /// one dispatch per expression node per batch instead of per tuple.
    ///
    /// Semantics are identical to evaluating [`Executor::ceval`] row by
    /// row, because evaluation follows the selection:
    ///
    /// * `AND`/`OR` evaluate their right operand only over the sub-selection
    ///   of rows the left operand did not decide, so a FALSE left conjunct
    ///   still shields an unresolvable (or otherwise failing) right conjunct
    ///   for exactly the rows it shields per tuple;
    /// * `CASE` branches narrow the selection the same way — a row that took
    ///   an earlier branch never evaluates a later condition;
    /// * an empty selection evaluates nothing, so deferred errors behind it
    ///   are never raised;
    /// * sublink-bearing subtrees fall back to the per-tuple evaluator row
    ///   by row (see the `Sublink` arm of `ceval_typed`), leaving the
    ///   parameterized sublink memo and the
    ///   [`Executor::execute_memoized_sublink`] seam untouched.
    ///
    /// The only observable difference is *which* of several pending errors
    /// surfaces first (per-tuple evaluation is row-major, vectorized
    /// evaluation is expression-major): the set of evaluated (row,
    /// subexpression) pairs — and hence whether an error occurs at all — is
    /// identical.
    ///
    /// Evaluation runs through [`Executor::ceval_typed`] over typed
    /// [`ColumnVec`] lanes.
    pub(crate) fn ceval_batch(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        if batch.is_empty() {
            return Ok(ColumnVec::default());
        }
        self.batches_vectorized
            .set(self.batches_vectorized.get() + 1);
        self.ceval_typed(expr, batch, outer)
    }

    /// The columnar recursive body of [`Executor::ceval_batch`]: returns a
    /// column of exactly `batch.len()` values aligned with the live
    /// selection, evaluated by the typed kernels of [`crate::kernels`]
    /// wherever the lane pairing has a proven scalar equivalence and by
    /// the shared scalar appliers row by row otherwise (counted in
    /// `columnar_fallback_rows`). Sub-selections narrow through
    /// [`Batch::narrow`], keeping the block's lane cache reachable.
    fn ceval_typed(
        &self,
        expr: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        if n == 0 {
            // Empty means untouched (batch invariant 4): no lane is
            // classified and no deferred error can surface.
            return Ok(ColumnVec::default());
        }
        match expr {
            CompiledExpr::Slot(slot) => {
                if slot.depth == 0 {
                    Ok(self.slot_column(slot.index, batch))
                } else {
                    match outer {
                        Some(frame) => {
                            let v = frame.get(Slot {
                                depth: slot.depth - 1,
                                index: slot.index,
                            });
                            Ok(ColumnVec::broadcast(v, n))
                        }
                        None => Err(ExecError::Storage(StorageError::UnknownAttribute(
                            "<compiled slot without scope>".into(),
                        ))),
                    }
                }
            }
            CompiledExpr::Unresolved { name, ambiguous } => {
                Err(ExecError::Storage(if *ambiguous {
                    StorageError::AmbiguousAttribute(name.clone())
                } else {
                    StorageError::UnknownAttribute(name.clone())
                }))
            }
            CompiledExpr::Literal(v) => Ok(ColumnVec::broadcast(v, n)),
            CompiledExpr::Param(index) => {
                let v = self.param_value(*index)?;
                Ok(ColumnVec::broadcast(&v, n))
            }
            CompiledExpr::Binary { op, left, right }
                if matches!(op, BinaryOp::And | BinaryOp::Or) =>
            {
                self.ceval_logic_typed(*op, left, right, batch, outer)
            }
            CompiledExpr::Binary { op, left, right } => {
                let l = self.ceval_typed(left, batch, outer)?;
                let r = self.ceval_typed(right, batch, outer)?;
                let (col, fell_back) = crate::kernels::binary_column(*op, l, r)?;
                if fell_back {
                    self.columnar_fallback_rows
                        .set(self.columnar_fallback_rows.get() + n as u64);
                }
                Ok(col)
            }
            CompiledExpr::Unary { op, expr } => {
                let v = self.ceval_typed(expr, batch, outer)?;
                let (col, fell_back) = crate::kernels::unary_column(*op, v)?;
                if fell_back {
                    self.columnar_fallback_rows
                        .set(self.columnar_fallback_rows.get() + n as u64);
                }
                Ok(col)
            }
            CompiledExpr::Func { name, args } => {
                // Function application is row-major by nature (arguments
                // gathered into a scratch row), so this is not counted as
                // a columnar fallback.
                let mut cols: Vec<ColumnVec> = Vec::with_capacity(args.len());
                for a in args {
                    cols.push(self.ceval_typed(a, batch, outer)?);
                }
                let mut scratch: Vec<Value> = Vec::with_capacity(args.len());
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    scratch.clear();
                    for col in cols.iter_mut() {
                        // Move, don't clone: each cell is consumed once.
                        scratch.push(col.take_value(i));
                    }
                    out.push(crate::eval::apply_func(*name, &scratch)?);
                }
                Ok(ColumnVec::Values(out))
            }
            CompiledExpr::Case {
                branches,
                else_expr,
            } => self.ceval_case_typed(branches, else_expr.as_deref(), batch, outer),
            CompiledExpr::Sublink(sublink) => {
                // Per-tuple fallback: sublink evaluation goes through the
                // parameterized memo (and, for ANY/ALL, the verdict memo)
                // exactly as in tuple-at-a-time execution.
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let scope = Frame::new(outer, batch.row(i));
                    out.push(self.ceval_sublink(sublink, Some(&scope))?);
                }
                self.batch_fallback_rows
                    .set(self.batch_fallback_rows.get() + n as u64);
                self.columnar_fallback_rows
                    .set(self.columnar_fallback_rows.get() + n as u64);
                Ok(ColumnVec::Values(out))
            }
        }
    }

    /// The column for a depth-0 slot: served from the batch's shared
    /// [`crate::batch::ColumnBlock`] lane cache when one is attached
    /// (cloning the cached lane, or gathering the live rows from it under
    /// a selection), classified directly from the live rows otherwise.
    fn slot_column(&self, index: usize, batch: &Batch<'_>) -> ColumnVec {
        if let Some(block) = batch.columns() {
            if block.note_first_use() {
                self.columnar_blocks.set(self.columnar_blocks.get() + 1);
            }
            return match batch.selection() {
                None => block.lane(batch.rows(), index).clone(),
                Some(sel) => match block.cached(index) {
                    Some(lane) => lane.gather(sel),
                    // An uncached lane under a narrow selection: classify
                    // only the live rows rather than transposing the dead
                    // majority of the block.
                    None => classify_rows(batch, index),
                },
            };
        }
        classify_rows(batch, index)
    }

    /// Columnar `AND`/`OR` with fused selection handling: when the left
    /// operand decides no rows, the right operand runs over the *same*
    /// batch — no selection vector is allocated, so a dense block stays
    /// dense and allocation-free; when it decides every row, the right
    /// operand never runs; only the mixed case pays for a sub-selection
    /// (narrowed through [`Batch::narrow`], keeping the lane cache). The
    /// right operand sees only the rows the left operand left undecided, so a
    /// FALSE left conjunct shields a failing right conjunct for exactly
    /// its rows, as in per-tuple `ceval`.
    fn ceval_logic_typed(
        &self,
        op: BinaryOp,
        left: &CompiledExpr,
        right: &CompiledExpr,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        let lcol = self.ceval_typed(left, batch, outer)?;
        let mut ltruths: Vec<Truth> = Vec::with_capacity(n);
        let mut undecided = 0usize;
        for i in 0..n {
            let t = lcol.truth_at(i);
            if !logic_decided(op, t) {
                undecided += 1;
            }
            ltruths.push(t);
        }
        let combine = |l: Truth, r: Truth| {
            if op == BinaryOp::And {
                l.and(r)
            } else {
                l.or(r)
            }
        };
        if undecided == n {
            let rcol = self.ceval_typed(right, batch, outer)?;
            return Ok(truths_to_bool_lane(
                (0..n).map(|i| combine(ltruths[i], rcol.truth_at(i))),
                n,
            ));
        }
        if undecided == 0 {
            return Ok(truths_to_bool_lane(ltruths.into_iter(), n));
        }
        let mut need_rows = Vec::with_capacity(undecided);
        let mut need_pos = Vec::with_capacity(undecided);
        for (i, t) in ltruths.iter().enumerate() {
            if !logic_decided(op, *t) {
                need_rows.push(batch.row_index(i));
                need_pos.push(i);
            }
        }
        let rcol = self.ceval_typed(right, &batch.narrow(&need_rows), outer)?;
        let mut k = 0usize;
        Ok(truths_to_bool_lane(
            ltruths.iter().enumerate().map(|(i, &l)| {
                if k < need_pos.len() && need_pos[k] == i {
                    let r = rcol.truth_at(k);
                    k += 1;
                    combine(l, r)
                } else {
                    l
                }
            }),
            n,
        ))
    }

    /// Columnar `CASE`: a row that took an earlier branch never evaluates
    /// a later condition, and an exhausted selection stops evaluating
    /// branches entirely, with sub-batches narrowed
    /// through [`Batch::narrow`] so the lane cache stays reachable.
    fn ceval_case_typed(
        &self,
        branches: &[(CompiledExpr, CompiledExpr)],
        else_expr: Option<&CompiledExpr>,
        batch: &Batch<'_>,
        outer: Option<&Frame<'_>>,
    ) -> Result<ColumnVec> {
        let n = batch.len();
        let mut result: Vec<Option<Value>> = vec![None; n];
        let mut remaining_rows: Vec<usize> = (0..n).map(|i| batch.row_index(i)).collect();
        let mut remaining_pos: Vec<usize> = (0..n).collect();
        for (cond, branch_value) in branches {
            if remaining_rows.is_empty() {
                break;
            }
            let cvals = self.ceval_typed(cond, &batch.narrow(&remaining_rows), outer)?;
            let mut take_rows = Vec::new();
            let mut take_pos = Vec::new();
            let mut keep_rows = Vec::new();
            let mut keep_pos = Vec::new();
            for k in 0..remaining_rows.len() {
                if cvals.truth_at(k).is_true() {
                    take_rows.push(remaining_rows[k]);
                    take_pos.push(remaining_pos[k]);
                } else {
                    keep_rows.push(remaining_rows[k]);
                    keep_pos.push(remaining_pos[k]);
                }
            }
            let mut tvals = self.ceval_typed(branch_value, &batch.narrow(&take_rows), outer)?;
            for (k, p) in take_pos.into_iter().enumerate() {
                result[p] = Some(tvals.take_value(k));
            }
            remaining_rows = keep_rows;
            remaining_pos = keep_pos;
        }
        if !remaining_rows.is_empty() {
            match else_expr {
                Some(e) => {
                    let mut evals = self.ceval_typed(e, &batch.narrow(&remaining_rows), outer)?;
                    for (k, p) in remaining_pos.into_iter().enumerate() {
                        result[p] = Some(evals.take_value(k));
                    }
                }
                None => {
                    for p in remaining_pos {
                        result[p] = Some(Value::Null);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        for v in result {
            out.push(v.expect("every live row took a branch or the else"));
        }
        Ok(ColumnVec::Values(out))
    }

    /// Evaluates a compiled expression.
    pub fn ceval(&self, expr: &CompiledExpr, frame: Option<&Frame<'_>>) -> Result<Value> {
        match expr {
            CompiledExpr::Slot(slot) => match frame {
                Some(f) => Ok(f.get(*slot).clone()),
                None => Err(ExecError::Storage(StorageError::UnknownAttribute(
                    "<compiled slot without scope>".into(),
                ))),
            },
            CompiledExpr::Unresolved { name, ambiguous } => {
                Err(ExecError::Storage(if *ambiguous {
                    StorageError::AmbiguousAttribute(name.clone())
                } else {
                    StorageError::UnknownAttribute(name.clone())
                }))
            }
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Param(index) => self.param_value(*index),
            CompiledExpr::Binary { op, left, right } => self.ceval_binary(*op, left, right, frame),
            CompiledExpr::Unary { op, expr } => {
                let v = self.ceval(expr, frame)?;
                apply_unary(*op, v)
            }
            CompiledExpr::Func { name, args } => {
                let values: Vec<Value> = args
                    .iter()
                    .map(|a| self.ceval(a, frame))
                    .collect::<Result<_>>()?;
                crate::eval::apply_func(*name, &values)
            }
            CompiledExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    if self.ceval(cond, frame)?.as_truth().is_true() {
                        return self.ceval(result, frame);
                    }
                }
                match else_expr {
                    Some(e) => self.ceval(e, frame),
                    None => Ok(Value::Null),
                }
            }
            CompiledExpr::Sublink(sublink) => self.ceval_sublink(sublink, frame),
        }
    }

    fn ceval_binary(
        &self,
        op: BinaryOp,
        left: &CompiledExpr,
        right: &CompiledExpr,
        frame: Option<&Frame<'_>>,
    ) -> Result<Value> {
        // Boolean connectives get non-strict NULL handling with the same
        // short-circuiting as the interpreter (a FALSE left conjunct must
        // shield an unresolvable right conjunct).
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            let l = self.ceval(left, frame)?.as_truth();
            if op == BinaryOp::And && l == Truth::False {
                return Ok(Truth::False.to_value());
            }
            if op == BinaryOp::Or && l == Truth::True {
                return Ok(Truth::True.to_value());
            }
            let r = self.ceval(right, frame)?.as_truth();
            return Ok(match op {
                BinaryOp::And => l.and(r),
                BinaryOp::Or => l.or(r),
                _ => unreachable!(),
            }
            .to_value());
        }

        let l = self.ceval(left, frame)?;
        let r = self.ceval(right, frame)?;
        apply_binary_scalar(op, &l, &r)
    }

    fn ceval_sublink(&self, sublink: &CompiledSublink, frame: Option<&Frame<'_>>) -> Result<Value> {
        match sublink.kind {
            SublinkKind::Exists => {
                let result = self.execute_memoized_sublink(sublink, frame)?;
                Ok(Value::Bool(!result.is_empty()))
            }
            SublinkKind::Scalar => {
                let result = self.execute_memoized_sublink(sublink, frame)?;
                crate::eval::scalar_sublink_value(&result)
            }
            SublinkKind::Any | SublinkKind::All => {
                let test = sublink.test_expr.as_ref().ok_or_else(|| {
                    ExecError::Unsupported("ANY/ALL sublink without test expression".into())
                })?;
                let op = sublink.op.ok_or_else(|| {
                    ExecError::Unsupported("ANY/ALL sublink without comparison operator".into())
                })?;
                let test_value = self.ceval(test, frame)?;
                let key = self.compiled_sublink_key(sublink, frame)?;
                let truth = self.quantified_truth(key, sublink.kind, op, &test_value, |key| {
                    self.execute_compiled_sublink_keyed(sublink, frame, key)
                })?;
                Ok(truth.to_value())
            }
        }
    }

    /// The parameterized memo key of a compiled sublink: its id followed by
    /// [`encode_key_typed`] over the query-parameter values of its
    /// `param_refs` and the binding values read from `frame` at the slots of
    /// its correlation signature (both counts are fixed per sublink, so the
    /// two groups concatenate unambiguously). Unlike the join/grouping key,
    /// the memo key is *type-exact* (`Int(3)`, `Float(3.0)` and `Date(3)`
    /// all differ), so a hit can only ever substitute the result of a
    /// byte-identical binding — coarser keying would be wrong for
    /// type-sensitive expressions such as string concatenation or date
    /// arithmetic over the binding. `None` when the sublink has no resolved
    /// signature, a referenced parameter is unbound (the reference might
    /// still sit behind a short circuit), or the memo is disabled and the
    /// sublink is correlated — an *uncorrelated* sublink (empty signature)
    /// keeps its per-query InitPlan caching even in the memo-off baseline,
    /// exactly like the interpreter path
    /// ([`Executor::interp_sublink_key`]) and the PostgreSQL engine
    /// underneath the original Perm system.
    fn compiled_sublink_key(
        &self,
        sublink: &CompiledSublink,
        frame: Option<&Frame<'_>>,
    ) -> Result<Option<Vec<u8>>> {
        match &sublink.params {
            Some(slots) if self.memo_enabled.get() || slots.is_empty() => {
                let params = self.params_rc();
                let mut values: Vec<Value> =
                    Vec::with_capacity(sublink.param_refs.len() + slots.len());
                for &index in &sublink.param_refs {
                    match params.get(index) {
                        Some(v) => values.push(v.clone()),
                        None => return Ok(None),
                    }
                }
                for &slot in slots {
                    match frame {
                        Some(f) => values.push(f.get(slot).clone()),
                        None => {
                            return Err(ExecError::Storage(StorageError::UnknownAttribute(
                                "<correlated sublink without outer scope>".into(),
                            )))
                        }
                    }
                }
                let mut key = vec![crate::executor::MEMO_TAG_COMPILED];
                key.extend_from_slice(&sublink.id.to_le_bytes());
                key.extend_from_slice(&encode_key_typed(&values));
                Ok(Some(key))
            }
            _ => Ok(None),
        }
    }

    /// `true` when the sublink's result for the binding carried by `frame`
    /// is already memoized (in the shared memo when one is attached,
    /// otherwise in this executor's private memo). A cheap key-compute +
    /// lookup with no execution — the serving layer's warm-probe, so a
    /// parallel warming pass can skip bindings (and whole thread scopes)
    /// that earlier executions already paid for.
    pub fn sublink_is_memoized(
        &self,
        sublink: &CompiledSublink,
        frame: Option<&Frame<'_>>,
    ) -> bool {
        match self.compiled_sublink_key(sublink, frame) {
            Ok(Some(key)) => match &self.shared_memo {
                Some(shared) => shared.get_result(&key).is_some(),
                None => self.sublink_memo.borrow_mut().get(&key).is_some(),
            },
            _ => false,
        }
    }

    /// Executes a compiled sublink plan, consulting the parameterized memo
    /// when the sublink has a resolved correlation signature (the memo-key
    /// contract is documented on the private `compiled_sublink_key`).
    /// Results are shared as `Arc<Relation>`s: a hit clones the pointer,
    /// never the tuples. Errors are never cached.
    ///
    /// Public because it is the *parallel-evaluation seam*: the serving
    /// subsystem partitions the distinct correlated bindings of a sublink
    /// across worker threads, and each worker drives exactly this method —
    /// with a synthetic outer [`Frame`] carrying one binding — against an
    /// executor that shares a [`crate::memo::SharedSublinkMemo`], so the
    /// warmed entries are the very entries the final (serial) pass will hit.
    pub fn execute_memoized_sublink(
        &self,
        sublink: &CompiledSublink,
        frame: Option<&Frame<'_>>,
    ) -> Result<Arc<Relation>> {
        let key = self.compiled_sublink_key(sublink, frame)?;
        self.execute_compiled_sublink_keyed(sublink, frame, key)
    }

    /// [`Executor::execute_memoized_sublink`] with a precomputed memo key
    /// (so the `ANY`/`ALL` verdict path computes the key once for both
    /// memos).
    fn execute_compiled_sublink_keyed(
        &self,
        sublink: &CompiledSublink,
        frame: Option<&Frame<'_>>,
        key: Option<Vec<u8>>,
    ) -> Result<Arc<Relation>> {
        self.governor.checkpoint("sublink")?;
        // The armed profile tree, if any, holds this sublink's subtree by
        // id — ids are process-unique, so when a *foreign* plan executes
        // while a tree is armed, the lookup simply misses and nothing is
        // misattributed. The upgrade fails (and profiling is off) once the
        // owning `execute_profiled`/`Rows` has dropped the tree.
        let tree = self.profile.borrow().upgrade();
        let sub_prof = tree.as_ref().and_then(|t| t.sublink(sublink.id));
        // With a shared memo attached, compiled-path entries live there —
        // the keys are process-unique, so cross-executor hits are safe and
        // are the point. Without one, the executor-private memo serves.
        if let Some(k) = &key {
            let hit = match &self.shared_memo {
                Some(shared) => shared.get_result(k),
                None => self.sublink_memo.borrow_mut().get(k),
            };
            if let Some(hit) = hit {
                if let Some(p) = sub_prof {
                    p.stats.memo_hits.set(p.stats.memo_hits.get() + 1);
                }
                self.governor.trace_memo_hit("sublink-memo");
                return Ok(hit);
            }
            // Resident miss: the entry may have been reclaimed to the spill
            // file under budget pressure — reload it instead of
            // re-executing the sublink (pure I/O, no recomputation).
            if let Some(spilled) = self.governor.spill_fetch_result(k) {
                if let Some(p) = sub_prof {
                    p.stats.memo_hits.set(p.stats.memo_hits.get() + 1);
                }
                self.governor.trace_memo_hit("sublink-memo-spilled");
                return Ok(spilled);
            }
        }
        if let Some(p) = sub_prof {
            p.stats.memo_misses.set(p.stats.memo_misses.get() + 1);
        }
        let result = Arc::new(self.execute_compiled_node(
            &sublink.plan,
            frame,
            sub_prof.map(|p| p.as_ref()),
        )?);
        if let Some(k) = key {
            let cost = k.len() as u64 + crate::resilience::MemoCost::cost_bytes(&result);
            if self.governor.memo_insert_event("sublink-memo", cost)? {
                match &self.shared_memo {
                    Some(shared) => shared.insert_result(k, Arc::clone(&result)),
                    None => self
                        .sublink_memo
                        .borrow_mut()
                        .insert(k, Arc::clone(&result)),
                }
            } else {
                // The entry cannot stay resident; persist it so the next
                // miss on this key reloads instead of re-executing.
                self.governor.spill_store_result(&k, &result);
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::builder::{
        self, any_sublink, cmp, col, eq, exists_sublink, lit, qcol, scalar_sublink, PlanBuilder,
    };
    use perm_algebra::{CompareOp, ProjectItem};
    use perm_storage::{Attribute, DataType, Database};

    fn db_with_groups() -> Database {
        // R(a, g) with a low-cardinality correlation attribute g, and
        // S(c, g) to correlate against.
        let mut db = Database::new();
        let r_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect();
        let s_rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(100 + i), Value::Int(i % 3)])
            .collect();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("r", "a", DataType::Int),
                    Attribute::qualified("r", "g", DataType::Int),
                ]),
                r_rows,
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("s", "c", DataType::Int),
                    Attribute::qualified("s", "g", DataType::Int),
                ]),
                s_rows,
            ),
        )
        .unwrap();
        db
    }

    fn correlated_exists_query(db: &Database) -> Plan {
        let sub = PlanBuilder::scan(db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .build();
        PlanBuilder::scan(db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build()
    }

    #[test]
    fn compiled_execution_matches_interpreter() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let compiled = Executor::new(&db).execute(&q).unwrap();
        let interpreted = Executor::new(&db).execute_unoptimized(&q).unwrap();
        assert!(compiled.bag_eq(&interpreted));
        assert_eq!(compiled.len(), 30);
    }

    #[test]
    fn correlated_sublink_runs_once_per_distinct_binding() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);

        let memoized = Executor::new(&db);
        memoized.execute(&q).unwrap();
        // scan r + select + 3 distinct g bindings × (select + scan s).
        assert_eq!(memoized.operators_evaluated(), 2 + 3 * 2);

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        unmemoized.execute(&q).unwrap();
        // Without the memo the sublink runs once per outer tuple.
        assert_eq!(unmemoized.operators_evaluated(), 2 + 30 * 2);
    }

    #[test]
    fn memoized_and_unmemoized_results_agree() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let memoized = Executor::new(&db).execute(&q).unwrap();
        let unmemoized = Executor::new(&db)
            .with_sublink_memo(false)
            .execute(&q)
            .unwrap();
        assert!(memoized.bag_eq(&unmemoized));
    }

    #[test]
    fn uncorrelated_sublink_degenerates_to_initplan() {
        let db = db_with_groups();
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
        // scan r + select + one sublink execution (project + scan s).
        assert_eq!(ex.operators_evaluated(), 4);
    }

    #[test]
    fn null_bindings_are_memoized_separately_and_correctly() {
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "x", DataType::Int)]),
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Null],
                    vec![Value::Null],
                    vec![Value::Int(1)],
                ],
            ),
        )
        .unwrap();
        db.create_table(
            "u",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("u", "y", DataType::Int)]),
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            ),
        )
        .unwrap();
        // Π_{x, (scalar: count of u rows with y = t.x)}(T) — NULL bindings
        // produce a 0 count (y = NULL is never true), and must not collide
        // with the x = 1 binding in the memo.
        let sub = PlanBuilder::scan(&db, "u")
            .unwrap()
            .select(eq(col("y"), qcol("t", "x")))
            .aggregate(vec![], vec![perm_algebra::builder::count_star("n")])
            .build();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![
                ProjectItem::column("x"),
                ProjectItem::new(scalar_sublink(sub), "n"),
            ])
            .build();
        let ex = Executor::new(&db);
        let result = ex.execute(&q).unwrap();
        let rows: Vec<(Value, Value)> = result
            .tuples()
            .iter()
            .map(|t| (t.get(0).clone(), t.get(1).clone()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (Value::Int(1), Value::Int(1)),
                (Value::Null, Value::Int(0)),
                (Value::Null, Value::Int(0)),
                (Value::Int(1), Value::Int(1)),
            ]
        );
        // 2 distinct bindings (1, NULL) → sublink plan (3 ops) runs twice:
        // scan t + project + 2 × (aggregate + select + scan u).
        assert_eq!(ex.operators_evaluated(), 2 + 2 * 3);
    }

    #[test]
    fn memo_keys_are_type_exact() {
        // t(x) holds Int(3) and Float(3.0): null-safe-equal bindings whose
        // *representations* differ. A correlated sublink that stringifies
        // its binding must not reuse one binding's cached result for the
        // other — this is why memo keys use `encode_key_typed`, not the
        // coarser join/grouping encoding.
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "x", DataType::Any)]),
                vec![vec![Value::Int(3)], vec![Value::Float(3.0)]],
            ),
        )
        .unwrap();
        db.create_table(
            "one",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("one", "k", DataType::Int)]),
                vec![vec![Value::Int(0)]],
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "one")
            .unwrap()
            .project(vec![ProjectItem::new(
                builder::binary(perm_algebra::BinaryOp::Concat, qcol("t", "x"), lit("!")),
                "s",
            )])
            .build();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![ProjectItem::new(scalar_sublink(sub), "s")])
            .build();
        let compiled = Executor::new(&db).execute(&q).unwrap();
        let interpreted = Executor::new(&db).execute_unoptimized(&q).unwrap();
        assert!(compiled.bag_eq(&interpreted));
        assert_eq!(compiled.tuples()[0].get(0), &Value::str("3!"));
        assert_eq!(compiled.tuples()[1].get(0), &Value::str("3.0!"));
    }

    #[test]
    fn short_circuit_still_shields_unresolvable_columns() {
        let db = db_with_groups();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::and(
                lit(false),
                eq(col("does_not_exist"), lit(1)),
            ))
            .build();
        let result = Executor::new(&db).execute(&q).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn unresolvable_column_errors_when_evaluated() {
        let db = db_with_groups();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(eq(col("does_not_exist"), lit(1)))
            .build();
        let err = Executor::new(&db).execute(&q).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Storage(StorageError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn typed_lane_short_circuit_shields_deferred_errors() {
        // The left conjunct is a typed Int-lane comparison that is FALSE
        // for every row, so the right conjunct — a deferred unresolvable
        // column — must never be evaluated: an all-false typed truth lane
        // yields an empty undecided selection and the fused columnar AND
        // skips the right side entirely.
        let db = db_with_groups();
        let shielded = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::and(
                cmp(CompareOp::Lt, qcol("r", "a"), lit(-1)),
                eq(col("does_not_exist"), lit(1)),
            ))
            .build();
        let result = Executor::new(&db).execute(&shielded).unwrap();
        assert!(result.is_empty());

        // Same shape, but some rows pass the typed left conjunct: those
        // rows *do* reach the right side and the deferred error surfaces,
        // exactly as in the reference interpreter.
        let surfaced = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(perm_algebra::builder::and(
                cmp(CompareOp::Lt, qcol("r", "a"), lit(5)),
                eq(col("does_not_exist"), lit(1)),
            ))
            .build();
        let ex = Executor::new(&db);
        for err in [
            ex.execute(&surfaced).unwrap_err(),
            ex.execute_unoptimized(&surfaced).unwrap_err(),
        ] {
            assert!(matches!(
                err,
                ExecError::Storage(StorageError::UnknownAttribute(_))
            ));
        }
    }

    /// Digs the single sublink out of a compiled `σ_{…sublink…}(scan)` plan.
    fn select_sublink(plan: &CompiledPlan) -> &CompiledSublink {
        match plan {
            CompiledPlan::Select { predicate, .. } => match predicate {
                CompiledExpr::Sublink(s) => s,
                other => panic!("expected sublink, got {other:?}"),
            },
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn memo_hits_share_the_relation_allocation() {
        // A memo hit must return the cached `Arc<Relation>` itself — the
        // same allocation, not a deep copy of the tuples. Drive the memoized
        // sublink executor directly with the same binding twice and compare
        // pointers.
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&q).unwrap();
        let sublink = select_sublink(&compiled);
        let outer = Tuple::new(vec![Value::Int(0), Value::Int(1)]);
        let frame = Frame::new(None, &outer);
        let first = ex.execute_memoized_sublink(sublink, Some(&frame)).unwrap();
        let second = ex.execute_memoized_sublink(sublink, Some(&frame)).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "memo hit must share the cached allocation"
        );
        // A different binding gets its own entry.
        let other_outer = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let other_frame = Frame::new(None, &other_outer);
        let third = ex
            .execute_memoized_sublink(sublink, Some(&other_frame))
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        // With the memo off every execution materialises afresh.
        let off = Executor::new(&db).with_sublink_memo(false);
        let compiled = off.prepare(&q).unwrap();
        let sublink = select_sublink(&compiled);
        let a = off.execute_memoized_sublink(sublink, Some(&frame)).unwrap();
        let b = off.execute_memoized_sublink(sublink, Some(&frame)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn verdict_memo_cuts_quantifier_comparisons_on_a_correlated_any_sweep() {
        // R(a, g) with heavily repeated (a, g) pairs: the correlated ANY
        // sublink σ_{s.g = r.g}(S) has 3 distinct bindings and each binding
        // sees only 4 distinct test values, so of the 60 outer rows only 12
        // (binding, test value) pairs are distinct. The verdict memo must
        // fold each distinct pair once; without it every outer row rescans
        // its (memoized) sublink result.
        let mut db = Database::new();
        let r_rows: Vec<Vec<Value>> = (0..60)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i % 3)])
            .collect();
        let s_rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("r", "a", DataType::Int),
                    Attribute::qualified("r", "g", DataType::Int),
                ]),
                r_rows,
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("s", "c", DataType::Int),
                    Attribute::qualified("s", "g", DataType::Int),
                ]),
                s_rows,
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();

        let memoized = Executor::new(&db);
        let with_memo = memoized.execute(&q).unwrap();
        let cmp_on = memoized.quantifier_comparisons();

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        let without_memo = unmemoized.execute(&q).unwrap();
        let cmp_off = unmemoized.quantifier_comparisons();

        assert!(with_memo.bag_eq(&without_memo));
        assert!(
            cmp_on * 4 <= cmp_off,
            "verdict memo must cut fold comparisons ≥4×: {cmp_on} on vs {cmp_off} off"
        );

        // The interpreter path shares the verdict memo.
        let interp = Executor::new(&db);
        let interp_result = interp.execute_unoptimized(&q).unwrap();
        assert!(interp_result.bag_eq(&with_memo));
        assert!(
            interp.quantifier_comparisons() * 4 <= cmp_off,
            "interpreter verdicts must be memoized too: {} on vs {cmp_off} off",
            interp.quantifier_comparisons()
        );
    }

    #[test]
    fn param_values_participate_in_sublink_memo_keys_on_both_paths() {
        // A sublink correlated on r.g AND filtered by $1: the memo key must
        // include the parameter value, or a retained memo would serve stale
        // results after rebinding. Checked on the compiled and the
        // interpreter path.
        let db = db_with_groups();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(builder::and(
                eq(qcol("s", "g"), qcol("r", "g")),
                builder::cmp(CompareOp::Gt, qcol("s", "c"), perm_algebra::Expr::Param(0)),
            ))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();

        let ex = Executor::new(&db);
        let compiled = ex.prepare(&q).unwrap();
        ex.bind_params(vec![Value::Int(108)]);
        let strict = ex.execute_compiled(&compiled, None).unwrap();
        let after_first = ex.operators_evaluated();
        // Same binding again: every (g, $1) pair is a memo hit.
        let strict_again = ex.execute_compiled(&compiled, None).unwrap();
        let after_second = ex.operators_evaluated();
        assert_eq!(after_second - after_first, 2, "outer scan + select only");
        assert!(strict.bag_eq(&strict_again));
        // New binding: the sublink must re-run per distinct g, and the
        // result must change (more s rows qualify).
        ex.bind_params(vec![Value::Int(-1)]);
        let loose = ex.execute_compiled(&compiled, None).unwrap();
        assert!(ex.operators_evaluated() - after_second > 2);
        assert!(loose.len() > strict.len());

        // Interpreter path: same contract, per execution.
        let interp = Executor::new(&db);
        interp.bind_params(vec![Value::Int(108)]);
        let i_strict = interp.execute_unoptimized(&q).unwrap();
        interp.bind_params(vec![Value::Int(-1)]);
        let i_loose = interp.execute_unoptimized(&q).unwrap();
        assert!(i_strict.bag_eq(&strict));
        assert!(i_loose.bag_eq(&loose));
    }

    #[test]
    fn memo_capacity_keeps_results_correct_under_thrashing() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let bounded = Executor::new(&db).with_memo_capacity(Some(1));
        let unbounded = Executor::new(&db);
        let a = bounded.execute(&q).unwrap();
        let b = unbounded.execute(&q).unwrap();
        assert!(a.bag_eq(&b));
        // 3 correlated groups vs capacity 1: evictions force re-execution.
        assert!(bounded.operators_evaluated() >= unbounded.operators_evaluated());
    }

    #[test]
    fn racing_preparations_never_collide_on_sublink_ids() {
        // The satellite fix of the concurrent serving subsystem: the
        // process-wide sublink-id counter must hand out distinct ids under
        // concurrent `prepare` (`fetch_add` is an atomic RMW; `Relaxed`
        // ordering suffices for uniqueness — see `NEXT_SUBLINK_ID`). Race 8
        // threads × 16 preparations of a nested two-sublink plan and check
        // every id is globally unique.
        let db = db_with_groups();
        let inner = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .project_columns(&["c"])
            .build();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(any_sublink(col("c"), CompareOp::Eq, inner))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();

        fn collect_ids(plan: &CompiledPlan, out: &mut Vec<usize>) {
            fn expr_ids(expr: &CompiledExpr, out: &mut Vec<usize>) {
                match expr {
                    CompiledExpr::Sublink(s) => {
                        out.push(s.id);
                        if let Some(t) = &s.test_expr {
                            expr_ids(t, out);
                        }
                        collect_ids(&s.plan, out);
                    }
                    CompiledExpr::Binary { left, right, .. } => {
                        expr_ids(left, out);
                        expr_ids(right, out);
                    }
                    CompiledExpr::Unary { expr, .. } => expr_ids(expr, out),
                    _ => {}
                }
            }
            match plan {
                CompiledPlan::Select {
                    input, predicate, ..
                } => {
                    expr_ids(predicate, out);
                    collect_ids(input, out);
                }
                CompiledPlan::Project { input, items, .. } => {
                    for item in items {
                        expr_ids(item, out);
                    }
                    collect_ids(input, out);
                }
                CompiledPlan::Scan { .. } | CompiledPlan::Values { .. } => {}
                other => panic!("unexpected operator in test plan: {other:?}"),
            }
        }

        let all_ids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let ex = Executor::new(&db);
                    let mut ids = Vec::new();
                    for _ in 0..16 {
                        let compiled = ex.prepare(&q).unwrap();
                        collect_ids(&compiled, &mut ids);
                    }
                    all_ids.lock().unwrap().extend(ids);
                });
            }
        });
        let mut ids = all_ids.into_inner().unwrap();
        assert_eq!(ids.len(), 8 * 16 * 2, "two sublinks per preparation");
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(
            ids.len(),
            before,
            "racing preparations produced duplicate sublink ids"
        );
    }

    #[test]
    fn shared_memo_serves_hits_across_executors() {
        // Two executors (think: two worker threads) attached to one shared
        // memo: a binding warmed by the first is a hit — the same
        // allocation — for the second, and the second's operator counter
        // shows it did no sublink work of its own.
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let shared = crate::memo::SharedSublinkMemo::new();

        let warmer = Executor::new(&db).with_shared_memo(Arc::clone(&shared));
        let compiled = warmer.prepare(&q).unwrap();
        let sublink = select_sublink(&compiled);
        let outer = Tuple::new(vec![Value::Int(0), Value::Int(1)]);
        let frame = Frame::new(None, &outer);
        let first = warmer
            .execute_memoized_sublink(sublink, Some(&frame))
            .unwrap();
        assert!(
            shared.entry_count() > 0,
            "warming populated the shared memo"
        );

        let server = Executor::new(&db).with_shared_memo(Arc::clone(&shared));
        let before = server.operators_evaluated();
        let second = server
            .execute_memoized_sublink(sublink, Some(&frame))
            .unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "cross-executor hit must share the cached allocation"
        );
        assert_eq!(
            server.operators_evaluated(),
            before,
            "a shared-memo hit does no operator work"
        );
        // Full-query check: an executor serving the same prepared plan over
        // the warm memo produces the same result as a cold private one.
        let warm_result = server.execute_compiled(&compiled, None).unwrap();
        let cold_result = Executor::new(&db).execute(&q).unwrap();
        assert!(warm_result.bag_eq(&cold_result));
    }

    #[test]
    fn sublink_ids_from_repeated_compilations_do_not_collide() {
        let db = db_with_groups();
        let q = correlated_exists_query(&db);
        let ex = Executor::new(&db);
        let first = ex.prepare(&q).unwrap();
        let second = ex.prepare(&q).unwrap();
        let id_of = |plan: &CompiledPlan| -> usize {
            match plan {
                CompiledPlan::Select { predicate, .. } => match predicate {
                    CompiledExpr::Sublink(s) => s.id,
                    other => panic!("expected sublink, got {other:?}"),
                },
                other => panic!("expected select, got {other:?}"),
            }
        };
        assert_ne!(id_of(&first), id_of(&second));
    }
}
