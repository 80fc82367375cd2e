//! Differential testing of the execution modes over randomly generated
//! nested-subquery plans.
//!
//! A seeded generator (the local `rand` shim, so runs are reproducible)
//! composes plans over the synthetic tables of `perm-synthetic` —
//! correlated and uncorrelated sublinks of every kind (`EXISTS`, `ANY`,
//! `ALL`, scalar), optionally nested two levels deep, under selections,
//! projections, aggregations, sorts with limits, joins and set operations.
//! Every plan is executed through
//!
//! 1. `Executor::execute` — compile + parameterized sublink/verdict memos,
//!    evaluated vectorized over columnar batches,
//! 2. `Executor::execute_unoptimized` — the name-resolving interpreter
//!    (which shares the parameterized memo, resolved at runtime), and
//! 3. `Executor::execute` with the memos disabled,
//!
//! and all results must agree bag-for-bag (or all modes must fail). Since
//! both drivers are thin shells over the shared physical-operator layer, a
//! divergence here points at the evaluator closures, the typed kernels or
//! the memo keying — exactly the parts that are *not* shared.

use perm_algebra::builder::{
    all_sublink, and, any_sublink, between, cmp, count_star, eq, exists_sublink, lit, not, or,
    qcol, scalar_sublink, sum, PlanBuilder,
};
use perm_algebra::{CompareOp, Plan, ProjectItem, SetOpKind, SortKey};
use perm_exec::{ExecError, Executor, FaultKind, FaultPlan, FaultSite, BATCH_ROWS};
use perm_storage::{Attribute, DataType, Database, Relation, Schema, Value};
use perm_synthetic::build_database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PLANS: usize = 220;

fn random_compare_op(rng: &mut StdRng) -> CompareOp {
    match rng.gen_range(0..6u32) {
        0 => CompareOp::Eq,
        1 => CompareOp::Neq,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        _ => CompareOp::Ge,
    }
}

/// A random window predicate on `r2.b` (the synthetic values are Gaussian
/// with σ = 100 · rows, so the window keeps selectivity away from 0/1).
fn random_r2_window(rng: &mut StdRng) -> perm_algebra::Expr {
    let low = rng.gen_range(-3000..1500i64);
    between(
        qcol("r2", "b"),
        lit(low),
        lit(low + rng.gen_range(500..3000i64)),
    )
}

/// A random sublink query over `r2`, correlated against the enclosing scan
/// of `r1` with the given probability; `project_a` adds the single-column
/// projection `ANY`/`ALL`/scalar sublinks need.
fn random_sublink_plan(db: &Database, rng: &mut StdRng, correlated: bool, nested: bool) -> Plan {
    let corr = match rng.gen_range(0..3u32) {
        0 => eq(qcol("r2", "g"), qcol("r1", "g")),
        1 => cmp(CompareOp::Le, qcol("r2", "b"), qcol("r1", "b")),
        _ => and(
            eq(qcol("r2", "g"), qcol("r1", "g")),
            cmp(CompareOp::Gt, qcol("r2", "a"), qcol("r1", "a")),
        ),
    };
    let window = random_r2_window(rng);
    let predicate = if correlated {
        and(window, corr)
    } else {
        window
    };
    let builder = PlanBuilder::scan_as(db, "r2", Some("r2"))
        .expect("r2 must exist")
        .select(predicate);
    if !nested {
        return builder.build();
    }
    // Nest one more sublink level: the inner query scans r2 under a fresh
    // alias and correlates against the *middle* scope (and, sometimes,
    // through to the outermost r1 scope).
    let inner_corr = if rng.gen_bool(0.5) {
        eq(qcol("m", "g"), qcol("r2", "g"))
    } else {
        and(
            eq(qcol("m", "g"), qcol("r2", "g")),
            cmp(CompareOp::Lt, qcol("m", "a"), qcol("r1", "b")),
        )
    };
    let inner = PlanBuilder::scan_as(db, "r2", Some("m"))
        .expect("r2 must exist")
        .select(inner_corr)
        .build();
    let inner_sublink = if rng.gen_bool(0.5) {
        exists_sublink(inner)
    } else {
        not(exists_sublink(inner))
    };
    builder.select(inner_sublink).build()
}

/// A random sublink *expression* usable in a selection over `r1`.
fn random_sublink_expr(db: &Database, rng: &mut StdRng) -> perm_algebra::Expr {
    let correlated = rng.gen_bool(0.6);
    let nested = rng.gen_bool(0.25);
    match rng.gen_range(0..4u32) {
        0 => {
            let sub = random_sublink_plan(db, rng, correlated, nested);
            if rng.gen_bool(0.3) {
                not(exists_sublink(sub))
            } else {
                exists_sublink(sub)
            }
        }
        1 => {
            let sub = PlanBuilder::from_plan(random_sublink_plan(db, rng, correlated, nested))
                .project_columns(&["a"])
                .build();
            let test = if rng.gen_bool(0.5) {
                qcol("r1", "a")
            } else {
                qcol("r1", "b")
            };
            any_sublink(test, random_compare_op(rng), sub)
        }
        2 => {
            let sub = PlanBuilder::from_plan(random_sublink_plan(db, rng, correlated, nested))
                .project_columns(&["a"])
                .build();
            all_sublink(qcol("r1", "a"), random_compare_op(rng), sub)
        }
        _ => {
            // Scalar sublink: the global aggregate guarantees exactly one
            // row and one attribute for every binding.
            let agg = if rng.gen_bool(0.5) {
                count_star("n")
            } else {
                sum(qcol("r2", "a"), "s")
            };
            let sub = PlanBuilder::from_plan(random_sublink_plan(db, rng, correlated, nested))
                .aggregate(vec![], vec![agg])
                .build();
            cmp(
                random_compare_op(rng),
                scalar_sublink(sub),
                lit(rng.gen_range(-4000..4000i64)),
            )
        }
    }
}

/// A random selection over `r1` whose predicate combines a sublink with an
/// optional plain range conjunct/disjunct.
fn random_filtered_r1(db: &Database, rng: &mut StdRng) -> Plan {
    let sublink = random_sublink_expr(db, rng);
    let predicate = match rng.gen_range(0..3u32) {
        0 => sublink,
        1 => {
            let low = rng.gen_range(-3000..2000i64);
            and(between(qcol("r1", "b"), lit(low), lit(low + 2000)), sublink)
        }
        _ => {
            let low = rng.gen_range(-3000..2000i64);
            or(between(qcol("r1", "b"), lit(low), lit(low + 500)), sublink)
        }
    };
    PlanBuilder::scan(db, "r1")
        .expect("r1 must exist")
        .select(predicate)
        .build()
}

/// One full random plan: a sublink selection over `r1` under a random
/// top-level shape.
fn random_plan(db: &Database, rng: &mut StdRng) -> Plan {
    let base = random_filtered_r1(db, rng);
    match rng.gen_range(0..6u32) {
        // The bare sublink selection.
        0 => base,
        // Projection, bag or set.
        1 => {
            let builder = PlanBuilder::from_plan(base);
            if rng.gen_bool(0.5) {
                builder.project_columns(&["g", "a"]).build()
            } else {
                builder
                    .project_distinct(vec![ProjectItem::column("g")])
                    .build()
            }
        }
        // Aggregation over the filtered rows.
        2 => PlanBuilder::from_plan(base)
            .aggregate(
                vec![ProjectItem::column("g")],
                vec![count_star("n"), sum(qcol("r1", "a"), "total")],
            )
            .build(),
        // Sort + limit (stable sort, shared loop ⇒ identical prefixes).
        3 => PlanBuilder::from_plan(base)
            .sort(vec![
                SortKey::desc(qcol("r1", "b")),
                SortKey::asc(qcol("r1", "a")),
            ])
            .limit(rng.gen_range(1..12usize))
            .build(),
        // Set operation between two independently filtered branches.
        4 => {
            let left = PlanBuilder::from_plan(base)
                .project_columns(&["a", "g"])
                .build();
            let right = PlanBuilder::from_plan(random_filtered_r1(db, rng))
                .project_columns(&["a", "g"])
                .build();
            let op = match rng.gen_range(0..3u32) {
                0 => SetOpKind::Union,
                1 => SetOpKind::Intersect,
                _ => SetOpKind::Except,
            };
            PlanBuilder::from_plan(left)
                .set_op(op, rng.gen_bool(0.5), right)
                .build()
        }
        // Join with a sublink-bearing condition (nested-loop path) or a
        // plain equi-join (hash path) against a second r1 alias.
        _ => {
            let other = PlanBuilder::scan_as(db, "r1", Some("o"))
                .expect("r1 must exist")
                .build();
            let join_cond = eq(qcol("r1", "g"), qcol("o", "g"));
            let builder = PlanBuilder::from_plan(base);
            if rng.gen_bool(0.5) {
                builder.join(other, join_cond).build()
            } else {
                builder.left_join(other, join_cond).build()
            }
        }
    }
}

#[test]
fn random_plans_agree_across_all_execution_modes() {
    // Small tables keep even the ALL-sublink nested loops fast; 24 × 18
    // rows with the 32-group correlation attribute still exercises memo
    // hits, NULL-free bindings and empty sublink results.
    let db = build_database(24, 18, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut correlated_hits = 0usize;
    for i in 0..PLANS {
        let plan = random_plan(&db, &mut rng);

        let compiled_ex = Executor::new(&db);
        let compiled = compiled_ex.execute(&plan);

        let interp_ex = Executor::new(&db);
        let interpreted = interp_ex.execute_unoptimized(&plan);

        let memo_off_ex = Executor::new(&db).with_sublink_memo(false);
        let memo_off = memo_off_ex.execute(&plan);

        match (&compiled, &interpreted, &memo_off) {
            (Ok(a), Ok(b), Ok(c)) => {
                assert!(
                    a.bag_eq(b),
                    "plan {i}: compiled+memo disagrees with the interpreter\n{}",
                    perm_algebra::display::explain(&plan)
                );
                assert!(
                    a.bag_eq(c),
                    "plan {i}: compiled+memo disagrees with memo-off\n{}",
                    perm_algebra::display::explain(&plan)
                );
                if compiled_ex.operators_evaluated() < memo_off_ex.operators_evaluated() {
                    correlated_hits += 1;
                }
            }
            (Err(_), Err(_), Err(_)) => {}
            other => panic!(
                "plan {i}: execution modes disagree on success/failure: \
                 compiled={:?} interpreted={:?} memo_off={:?}\n{}",
                other.0.as_ref().map(|_| "ok"),
                other.1.as_ref().map(|_| "ok"),
                other.2.as_ref().map(|_| "ok"),
                perm_algebra::display::explain(&plan),
            ),
        }
    }
    // The sweep must actually exercise the memo, not just uncorrelated
    // plans: a healthy generator produces many plans where memoization
    // saves operator evaluations.
    assert!(
        correlated_hits >= PLANS / 10,
        "only {correlated_hits}/{PLANS} plans exercised the sublink memo"
    );
}

/// The optimizer differential mode: the full random corpus with the
/// **algebraic optimizer** on versus the memo-only reference. Result bags
/// must agree (or both modes must fail), and the optimizer must never cost
/// operator evaluations beyond the decorrelation allowance — a
/// decorrelated plan may spend up to two extra operators (the join and the
/// fresh key projection) at trivial scale, and must *win* operators on a
/// healthy share of correlated plans, where one join replaces a
/// per-binding sublink re-execution.
#[test]
fn optimizer_on_agrees_with_reference_and_never_costs_operators() {
    let db = build_database(24, 18, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut decorrelated_plans = 0usize;
    let mut strict_wins = 0usize;
    for i in 0..PLANS {
        let plan = random_plan(&db, &mut rng);

        let ref_ex = Executor::new(&db);
        let reference = ref_ex.execute(&plan);

        let (opt_plan, report) = perm_exec::optimize(&plan);
        let opt_ex = Executor::new(&db);
        let optimized = opt_ex.execute(&opt_plan);

        match (&reference, &optimized) {
            (Ok(a), Ok(b)) => {
                assert!(
                    a.bag_eq(b),
                    "plan {i}: optimizer-on disagrees with memo-only reference\n{}",
                    perm_algebra::display::explain(&plan)
                );
                let slack = 2 * report.sublinks_decorrelated;
                let (ops_ref, ops_opt) =
                    (ref_ex.operators_evaluated(), opt_ex.operators_evaluated());
                assert!(
                    ops_opt <= ops_ref + slack,
                    "plan {i}: optimizer-on evaluated {ops_opt} operators vs {ops_ref} \
                     reference (allowance {slack}); report {report:?}\n{}",
                    perm_algebra::display::explain(&plan)
                );
                if report.sublinks_decorrelated > 0 {
                    decorrelated_plans += 1;
                    if ops_opt < ops_ref {
                        strict_wins += 1;
                    }
                }
            }
            (Err(_), Err(_)) => {}
            other => panic!(
                "plan {i}: optimizer changed the error outcome: reference={:?} optimized={:?}\n{}",
                other.0.as_ref().map(|_| "ok"),
                other.1.as_ref().map(|_| "ok"),
                perm_algebra::display::explain(&plan),
            ),
        }
    }
    // The corpus must actually exercise decorrelation, and decorrelation
    // must actually pay: most correlated points have more bindings than
    // the 2-operator allowance.
    assert!(
        decorrelated_plans >= PLANS / 10,
        "only {decorrelated_plans}/{PLANS} plans decorrelated a sublink"
    );
    assert!(
        strict_wins * 2 >= decorrelated_plans,
        "decorrelation won operators on only {strict_wins}/{decorrelated_plans} plans"
    );
}

// ---------------------------------------------------------------------------
// Batch-seam differential cases: table sizes straddling the batch size
// (0, 1, BATCH−1, BATCH, BATCH+1 rows) with NaN keys and >2⁵³ integer keys
// placed so they cross the first batch boundary. Three execution modes
// (compiled, interpreted, memo-off) must agree bag-for-bag on every plan
// shape that exercises a batched seam (vectorized logic/CASE/function
// evaluation, hashed and batched join probes, grouping, sort+limit tie
// order, sublink fallback).
// ---------------------------------------------------------------------------

const TWO_53: i64 = 1 << 53;

/// t(a, k, g) with `rows` rows: `a` is the row number, `k` mixes small
/// integers, NaN floats (every 97th row) and a run of 2⁵³-family integers
/// straddling the first batch boundary, `g` is a 7-group correlation
/// attribute. u(c, g) is a small lookup relation to correlate against.
fn seam_database(rows: usize) -> Database {
    let mut db = Database::new();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let k = if i + 4 >= BATCH_ROWS && i <= BATCH_ROWS + 1 {
                // 2⁵³−4 … 2⁵³+1: exact-integer keys whose f64 views collide
                // at the top, crossing the first batch boundary.
                Value::Int(TWO_53 + (i as i64 - BATCH_ROWS as i64))
            } else if i % 97 == 0 {
                Value::Float(f64::NAN)
            } else {
                Value::Int((i % 5) as i64)
            };
            vec![Value::Int(i as i64), k, Value::Int((i % 7) as i64)]
        })
        .collect();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("t", "a", DataType::Int),
                Attribute::qualified("t", "k", DataType::Any),
                Attribute::qualified("t", "g", DataType::Int),
            ]),
            data,
        ),
    )
    .unwrap();
    db.create_table(
        "u",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("u", "c", DataType::Int),
                Attribute::qualified("u", "g", DataType::Int),
            ]),
            (0..21)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                .collect(),
        ),
    )
    .unwrap();
    db
}

/// Runs one plan through compiled, interpreted and memo-off execution and
/// asserts bag equality.
fn assert_seam_modes_agree(db: &Database, plan: &Plan, label: &str) {
    let batched = Executor::new(db).execute(plan).unwrap();
    let interpreted = Executor::new(db).execute_unoptimized(plan).unwrap();
    let memo_off = Executor::new(db)
        .with_sublink_memo(false)
        .execute(plan)
        .unwrap();
    assert!(
        batched.bag_eq(&interpreted),
        "{label}: batched vs interpreter"
    );
    assert!(batched.bag_eq(&memo_off), "{label}: batched vs memo-off");
}

#[test]
fn batch_boundary_seams_agree_across_all_modes() {
    for rows in [0, 1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
        let db = seam_database(rows);
        let label = |shape: &str| format!("{shape} at {rows} rows");

        // Vectorized AND/OR short-circuiting plus arithmetic over batches.
        let select = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(or(
                and(
                    cmp(CompareOp::Ge, qcol("t", "k"), lit(3)),
                    cmp(CompareOp::Lt, qcol("t", "g"), lit(5)),
                ),
                cmp(
                    CompareOp::Gt,
                    perm_algebra::builder::binary(
                        perm_algebra::BinaryOp::Mul,
                        qcol("t", "a"),
                        lit(2),
                    ),
                    lit(rows as i64),
                ),
            ))
            .build();
        assert_seam_modes_agree(&db, &select, &label("select"));

        // Vectorized CASE branch narrowing and function evaluation.
        let project = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![
                ProjectItem::new(
                    perm_algebra::builder::binary(
                        perm_algebra::BinaryOp::Add,
                        qcol("t", "a"),
                        lit(1),
                    ),
                    "a1",
                ),
                ProjectItem::new(
                    perm_algebra::Expr::Case {
                        branches: vec![
                            (cmp(CompareOp::Gt, qcol("t", "k"), lit(2)), lit("hi")),
                            (cmp(CompareOp::Le, qcol("t", "k"), lit(0)), lit("lo")),
                        ],
                        else_expr: Some(Box::new(lit("mid"))),
                    },
                    "bucket",
                ),
                ProjectItem::new(
                    perm_algebra::Expr::Func {
                        name: perm_algebra::FuncName::Abs,
                        args: vec![perm_algebra::builder::binary(
                            perm_algebra::BinaryOp::Sub,
                            qcol("t", "g"),
                            lit(3),
                        )],
                    },
                    "dist",
                ),
            ])
            .build();
        assert_seam_modes_agree(&db, &project, &label("project"));

        // Grouping on the mixed key column: NaN forms one group, the
        // 2⁵³-family integers stay distinct groups across the boundary.
        let aggregate = PlanBuilder::scan(&db, "t")
            .unwrap()
            .aggregate(
                vec![ProjectItem::column("k")],
                vec![count_star("n"), sum(qcol("t", "a"), "total")],
            )
            .build();
        assert_seam_modes_agree(&db, &aggregate, &label("aggregate"));

        // Stable sort with heavy ties + limit at the batch boundary: tie
        // order (input order) must survive batching identically.
        let sort_limit = PlanBuilder::scan(&db, "t")
            .unwrap()
            .sort(vec![
                SortKey::desc(qcol("t", "g")),
                SortKey::asc(qcol("t", "k")),
            ])
            .limit(BATCH_ROWS)
            .build();
        assert_seam_modes_agree(&db, &sort_limit, &label("sort+limit"));

        // Hash join whose probe side crosses the batch boundary and whose
        // build side carries the NaN and >2⁵³ keys.
        let boundary_rows = PlanBuilder::scan_as(&db, "t", Some("o"))
            .unwrap()
            .select(cmp(
                CompareOp::Ge,
                qcol("o", "a"),
                lit(BATCH_ROWS as i64 - 4),
            ))
            .build();
        let join = PlanBuilder::scan(&db, "t")
            .unwrap()
            .join(boundary_rows.clone(), eq(qcol("t", "k"), qcol("o", "k")))
            .build();
        assert_seam_modes_agree(&db, &join, &label("hash join"));

        // Left-outer nested-loop join (no extractable equi-key): batched
        // candidate filtering with per-left-row padding order.
        let outer_join = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(CompareOp::Lt, qcol("t", "a"), lit(40)))
            .left_join(
                boundary_rows,
                or(
                    eq(qcol("t", "k"), qcol("o", "k")),
                    cmp(CompareOp::Gt, qcol("t", "g"), qcol("o", "g")),
                ),
            )
            .build();
        assert_seam_modes_agree(&db, &outer_join, &label("left-outer nested-loop join"));

        // Correlated EXISTS: the sublink subtree falls back per tuple and
        // must keep driving the parameterized memo (7 distinct bindings).
        let correlated = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(and(
                exists_sublink(
                    PlanBuilder::scan(&db, "u")
                        .unwrap()
                        .select(and(
                            eq(qcol("u", "g"), qcol("t", "g")),
                            cmp(CompareOp::Gt, qcol("u", "c"), lit(10)),
                        ))
                        .build(),
                ),
                cmp(CompareOp::Ge, qcol("t", "a"), lit(0)),
            ))
            .build();
        assert_seam_modes_agree(&db, &correlated, &label("correlated exists"));
    }
}

/// v(x, y) with `rows` rows where `x` is NULL on two runs that straddle the
/// first and second batch boundaries (and `y` interleaves shorter NULL
/// runs): the validity bitmap of a typed Int lane must carry whole-word
/// NULL runs across the 1024-row seam identically to row-major `Value`s.
fn null_run_database(rows: usize) -> Database {
    let in_null_run = |i: usize| {
        (i + 37 >= BATCH_ROWS && i <= BATCH_ROWS + 41)
            || (i + 3 >= 2 * BATCH_ROWS && i <= 2 * BATCH_ROWS + 66)
    };
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let x = if in_null_run(i) {
                Value::Null
            } else {
                Value::Int((i % 11) as i64)
            };
            let y = if i % 128 < 5 {
                Value::Null
            } else {
                Value::Int((i % 7) as i64)
            };
            vec![x, y]
        })
        .collect();
    let mut db = Database::new();
    db.create_table(
        "v",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("v", "x", DataType::Int),
                Attribute::qualified("v", "y", DataType::Int),
            ]),
            data,
        ),
    )
    .unwrap();
    db
}

#[test]
fn null_runs_crossing_the_batch_seam_agree_across_modes() {
    let db = null_run_database(2 * BATCH_ROWS + 70);

    // Typed comparison and arithmetic over the NULL runs: UNKNOWN rows are
    // dropped by the selection in every mode.
    let select = PlanBuilder::scan(&db, "v")
        .unwrap()
        .select(or(
            cmp(
                CompareOp::Lt,
                perm_algebra::builder::binary(perm_algebra::BinaryOp::Add, qcol("v", "x"), lit(2)),
                lit(6),
            ),
            cmp(CompareOp::Ge, qcol("v", "y"), lit(5)),
        ))
        .build();
    assert_seam_modes_agree(&db, &select, "select over NULL runs");

    // NULL-safe grouping: the NULL runs form one group whose key encoding
    // must agree between the column-wise and row-major encoders.
    let aggregate = PlanBuilder::scan(&db, "v")
        .unwrap()
        .aggregate(
            vec![ProjectItem::column("x")],
            vec![count_star("n"), sum(qcol("v", "y"), "total")],
        )
        .build();
    assert_seam_modes_agree(&db, &aggregate, "aggregate over NULL runs");

    // Hash join keyed on the NULL-run column: NULL keys never match under
    // plain equality, so both runs drop out of build and probe.
    let small = PlanBuilder::scan_as(&db, "v", Some("w"))
        .unwrap()
        .select(cmp(CompareOp::Ge, qcol("w", "y"), lit(4)))
        .build();
    let join = PlanBuilder::scan(&db, "v")
        .unwrap()
        .join(small, eq(qcol("v", "x"), qcol("w", "x")))
        .build();
    assert_seam_modes_agree(&db, &join, "hash join over NULL-run keys");

    // IS NULL / IS NOT NULL straight off the validity bitmap.
    let is_null = PlanBuilder::scan(&db, "v")
        .unwrap()
        .select(and(
            perm_algebra::builder::is_null(qcol("v", "x")),
            not(perm_algebra::builder::is_null(qcol("v", "y"))),
        ))
        .build();
    assert_seam_modes_agree(&db, &is_null, "IS NULL over the validity bitmap");
}

// ---------------------------------------------------------------------------
// Crash-consistency sweeps: the same seeded plan corpus, re-executed under
// injected faults. The contract is binary — every faulted execution returns
// either the exact reference bag (the fault landed after the work, or the
// governor degraded gracefully) or one clean typed error; never a partial
// bag, a hang, or a panic.
// ---------------------------------------------------------------------------

/// The plans of the seeded corpus, sampled every 11th (20 of 220) to keep
/// the sweep a few seconds while still covering every top-level shape.
fn sampled_corpus(db: &Database) -> Vec<(usize, Plan)> {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    (0..PLANS)
        .map(|i| (i, random_plan(db, &mut rng)))
        .step_by(11)
        .collect()
}

#[test]
fn cancellation_sweep_yields_exact_bags_or_a_clean_cancelled_error() {
    let db = build_database(24, 18, 0xD1FF);
    let mut cancelled = 0usize;
    for (i, plan) in sampled_corpus(&db) {
        let reference = Executor::new(&db).execute(&plan);
        // Cancel at the k-th checkpoint, k swept geometrically until it
        // lies beyond the plan's last checkpoint (the fault no longer
        // fires and the run must reproduce the reference exactly).
        let mut k = 1u64;
        loop {
            let fault = FaultPlan::new(FaultKind::Cancel, FaultSite::Checkpoint, k);
            let ex = Executor::new(&db).with_fault_plan(fault.clone());
            let result = ex.execute(&plan);
            match (&reference, &result) {
                (_, Err(ExecError::Cancelled { reason })) => {
                    assert!(
                        reason.contains("injected"),
                        "plan {i} k={k}: cancellation must carry its reason, got {reason:?}"
                    );
                    cancelled += 1;
                }
                (Ok(want), Ok(got)) => assert!(
                    want.bag_eq(got),
                    "plan {i} k={k}: a survived cancellation point changed the bag"
                ),
                (Err(want), Err(got)) => assert_eq!(
                    want, got,
                    "plan {i} k={k}: the plan's own error must survive unchanged"
                ),
                _ => panic!(
                    "plan {i} k={k}: fault flipped success/failure: reference \
                     {reference:?} vs faulted {result:?}"
                ),
            }
            if !fault.fired() {
                break;
            }
            k *= 2;
        }
    }
    assert!(
        cancelled >= 20,
        "the sweep must actually hit live checkpoints, got {cancelled} cancellations"
    );
}

#[test]
fn memory_budget_sweep_degrades_gracefully_or_fails_with_a_named_operator() {
    let db = build_database(24, 18, 0xD1FF);
    let mut exhausted = 0usize;
    for (i, plan) in sampled_corpus(&db) {
        let reference = Executor::new(&db).execute(&plan);
        // Budgets from starvation to ample: small ones force memo skips and
        // operator failures, large ones must change nothing.
        for budget in [256u64, 4 << 10, 64 << 10, 4 << 20] {
            let ex = Executor::new(&db).with_memory_budget(Some(budget));
            let result = ex.execute(&plan);
            match (&reference, &result) {
                (_, Err(ExecError::ResourceExhausted { operator })) => {
                    assert!(
                        !operator.is_empty(),
                        "plan {i} budget={budget}: exhaustion must name its operator"
                    );
                    exhausted += 1;
                }
                (Ok(want), Ok(got)) => assert!(
                    want.bag_eq(got),
                    "plan {i} budget={budget}: degraded memoization changed the bag"
                ),
                (Err(want), Err(got)) => assert_eq!(want, got, "plan {i} budget={budget}"),
                _ => panic!(
                    "plan {i} budget={budget}: budget flipped success/failure: \
                     {reference:?} vs {result:?}"
                ),
            }
        }
    }
    assert!(
        exhausted > 0,
        "the starvation budgets must exhaust at least one operator"
    );
}

// ---------------------------------------------------------------------------
// Spill-forced mode: the full 220-plan corpus under a starvation
// budget *with spilling enabled*. Queries must produce exactly the
// unbudgeted reference bag — the out-of-core operators (grace hash join,
// external merge sort, partitioned aggregation) and the spilled memo are
// bag- and order-transparent — and `operators_evaluated` must match the
// reference exactly: a spilled memo entry is reloaded, never re-executed.
// ---------------------------------------------------------------------------

/// Drives each out-of-core operator path deterministically — grace inner
/// join, grace left-outer join (NULL padding through the ordinal walk),
/// external merge sort over a multi-batch input, and partitioned
/// aggregation — and demands **row-for-row identical** output, not just
/// bag equality: out-of-core execution must be order-transparent.
#[test]
fn out_of_core_operators_reproduce_exact_row_order() {
    let db = build_database(600, 400, 0xACE5);
    // Self-join on the Gaussian `b` values: ~600 distinct keys, so grace
    // partitioning is effective (a low-cardinality key like `g` would pack
    // whole key groups into single partitions), and every left row matches
    // itself, so the join output stays full-size for the sort and
    // aggregation plans below.
    let inner_join = || {
        PlanBuilder::scan(&db, "r1")
            .unwrap()
            .join(
                PlanBuilder::scan_as(&db, "r1", Some("o")).unwrap().build(),
                eq(qcol("r1", "b"), qcol("o", "b")),
            )
            .build()
    };
    // Equality on the Gaussian `a` values matches almost never, so nearly
    // every left row takes the left-outer NULL-padding path.
    let outer_join = PlanBuilder::scan(&db, "r1")
        .unwrap()
        .left_join(
            PlanBuilder::scan_as(&db, "r2", Some("o")).unwrap().build(),
            eq(qcol("r1", "a"), qcol("o", "a")),
        )
        .build();
    let sorted = PlanBuilder::from_plan(inner_join())
        .sort(vec![
            SortKey::desc(qcol("r1", "b")),
            SortKey::asc(qcol("o", "a")),
        ])
        .build();
    let grouped = PlanBuilder::from_plan(inner_join())
        .aggregate(
            vec![ProjectItem::new(qcol("r1", "g"), "g")],
            vec![count_star("n"), sum(qcol("o", "b"), "total")],
        )
        .build();
    for (label, plan) in [
        ("grace inner join", inner_join()),
        ("grace left-outer join", outer_join),
        ("external merge sort", sorted),
        ("partitioned aggregation", grouped),
    ] {
        let reference = Executor::new(&db).execute(&plan).unwrap();
        let ex = Executor::new(&db)
            .with_memory_budget(Some(4 << 10))
            .with_spill(true);
        let got = ex.execute(&plan).unwrap();
        assert_eq!(
            reference, got,
            "{label}: out-of-core output must be row-for-row identical"
        );
        assert!(ex.spilled_bytes() > 0, "{label}: must actually spill");
        assert!(
            ex.spill_partitions() > 0,
            "{label}: must create partition files or runs"
        );
        assert_eq!(
            ex.degradation(),
            perm_exec::Degradation::SpilledToDisk,
            "{label}: spilling must stop the ladder at its first rung"
        );
        assert!(
            ex.buffer_pool_hits() + ex.buffer_pool_misses() > 0,
            "{label}: spilled state must be read back through the pool"
        );
    }
}

#[test]
fn spill_forced_corpus_reproduces_reference_bags_and_operator_counts() {
    let db = build_database(24, 18, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let dir = std::env::temp_dir();
    let mut spilled_total = 0u64;
    let mut spilled_plans = 0usize;
    for i in 0..PLANS {
        let plan = random_plan(&db, &mut rng);
        let reference_ex = Executor::new(&db);
        let reference = reference_ex.execute(&plan);
        let spill_ex = Executor::new(&db)
            .with_memory_budget(Some(4 << 10))
            .with_spill(true)
            .with_spill_dir(Some(dir.clone()));
        let result = spill_ex.execute(&plan);
        match (&reference, &result) {
            (Ok(want), Ok(got)) => {
                assert!(
                    want.bag_eq(got),
                    "plan {i}: spilling changed the bag\n{}",
                    perm_algebra::display::explain(&plan)
                );
                assert_eq!(
                    reference_ex.operators_evaluated(),
                    spill_ex.operators_evaluated(),
                    "plan {i}: a spilled memo entry must reload, not re-execute\n{}",
                    perm_algebra::display::explain(&plan)
                );
            }
            (Err(want), Err(got)) => assert_eq!(want, got, "plan {i}"),
            _ => panic!(
                "plan {i}: spilling flipped success/failure: reference {reference:?} \
                 vs spilled {result:?}\n{}",
                perm_algebra::display::explain(&plan)
            ),
        }
        if spill_ex.spilled_bytes() > 0 {
            spilled_plans += 1;
            spilled_total += spill_ex.spilled_bytes();
        }
    }
    assert!(
        spilled_plans >= PLANS / 10,
        "the starvation budget must actually force spilling, \
         got {spilled_plans}/{PLANS} plans ({spilled_total} bytes)"
    );
}

#[test]
fn resilience_counters_are_monotone_across_executions() {
    let db = build_database(24, 18, 0xD1FF);
    let ex = Executor::new(&db).with_memory_budget(Some(16 << 20));
    let mut last_checks = 0u64;
    let mut last_peak = 0u64;
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for _ in 0..8 {
        let plan = random_plan(&db, &mut rng);
        let _ = ex.execute(&plan);
        let checks = ex.cancel_checks();
        let peak = ex.peak_bytes();
        assert!(
            checks > last_checks,
            "every execution passes at least one checkpoint"
        );
        assert!(peak >= last_peak, "peak_bytes is a high-water mark");
        last_checks = checks;
        last_peak = peak;
    }
}

#[test]
fn streaming_cursor_honours_a_cancel_handle_mid_stream() {
    use perm_algebra::builder::PlanBuilder;
    let db = seam_database(BATCH_ROWS + 1);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .select(cmp(CompareOp::Ge, qcol("t", "a"), lit(0)))
        .build();
    let ex = Executor::new(&db);
    let compiled = ex.prepare(&plan).unwrap();
    let mut rows = ex.open(&compiled).unwrap();
    let handle = rows.cancel_handle();
    assert!(rows.next().unwrap().is_ok(), "stream starts healthy");
    handle.cancel("user abort");
    // Buffered rows may still drain; the next refill must fail cleanly.
    let tail_error = rows
        .by_ref()
        .find_map(|r| r.err())
        .expect("a cancelled cursor must surface the cancellation");
    assert_eq!(
        tail_error,
        ExecError::Cancelled {
            reason: "user abort".into()
        }
    );
    assert!(rows.next().is_none(), "a failed cursor stays terminated");
}

#[test]
fn vectorized_fallback_rows_are_counted_and_memo_behaviour_is_unchanged() {
    // The sublink fallback seam: on a batched execution every outer row of
    // a sublink-bearing predicate is handed to the per-tuple evaluator
    // (visible on `batch_fallback_rows`), while the memo still collapses
    // the sublink to one execution per distinct binding.
    let rows = BATCH_ROWS + 1;
    let db = seam_database(rows);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .select(exists_sublink(
            PlanBuilder::scan(&db, "u")
                .unwrap()
                .select(eq(qcol("u", "g"), qcol("t", "g")))
                .build(),
        ))
        .build();
    let ex = Executor::new(&db);
    ex.execute(&plan).unwrap();
    assert_eq!(
        ex.batch_fallback_rows(),
        rows as u64,
        "every outer row goes through the per-tuple sublink fallback"
    );
    assert!(ex.batches_vectorized() > 0, "the spine still vectorizes");
    // scan t + select + 7 distinct g bindings × (select + scan u).
    assert_eq!(ex.operators_evaluated(), 2 + 7 * 2);
}
