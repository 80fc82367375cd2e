//! The serving-grade API end to end: prepared statements, `$n` parameters,
//! streaming cursors, structured provenance results, memo policy and error
//! chains — everything `ISSUE 3` promises of the `Engine`/`Session` facade.

use perm::prelude::*;
use perm::{PermError, SessionConfig};
use std::error::Error as _;

/// R(a, g) and S(c, g): a correlated workload with a low-cardinality group
/// attribute, mirroring the synthetic `q3` shape.
fn grouped_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::from_names(&["a", "g"]).with_qualifier("r"),
            (0..12)
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::from_names(&["c", "g"]).with_qualifier("s"),
            (0..9)
                .map(|i| vec![Value::Int(10 * i), Value::Int(i % 3)])
                .collect(),
        ),
    )
    .unwrap();
    db
}

#[test]
fn prepared_reexecution_does_zero_frontend_work() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s) OR a < $1")
        .unwrap();
    let after_prepare = session.stats();
    assert_eq!(after_prepare.parses, 1);
    assert_eq!(after_prepare.binds, 1);
    assert_eq!(after_prepare.rewrites, 0);
    assert_eq!(after_prepare.compiles, 1);
    assert_eq!(after_prepare.executions, 0);

    for bound in [3, 7, 11] {
        session.execute(&prepared, &[Value::Int(bound)]).unwrap();
    }
    let after = session.stats();
    // Re-execution is execution only: the front-end counters are frozen.
    assert_eq!(after.parses, 1);
    assert_eq!(after.binds, 1);
    assert_eq!(after.rewrites, 0);
    assert_eq!(after.compiles, 1, "counters must show one compile total");
    assert_eq!(after.executions, 3);
}

#[test]
fn parameters_change_results_without_recompiling() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session.prepare("SELECT a FROM r WHERE a < $1").unwrap();
    assert_eq!(prepared.param_count(), 1);
    assert_eq!(
        session.execute(&prepared, &[Value::Int(3)]).unwrap().len(),
        3
    );
    assert_eq!(
        session
            .execute(&prepared, &[Value::Int(100)])
            .unwrap()
            .len(),
        12
    );
    // Wrong arity is a statement error, not a silent NULL.
    assert!(matches!(
        session.execute(&prepared, &[]),
        Err(PermError::Param(_))
    ));
    assert!(matches!(
        session.execute(&prepared, &[Value::Int(1), Value::Int(2)]),
        Err(PermError::Param(_))
    ));
    assert_eq!(session.stats().compiles, 1);
}

#[test]
fn rows_cursor_streams_limit_without_full_materialisation() {
    // Row 0 divides cleanly; the last row would divide by zero. A LIMIT 1
    // must never evaluate it — on the streaming cursor *and* on the
    // materialising path, which routes a top-level LIMIT over a streamable
    // spine through the same batch-pull machinery. Without the limit the
    // poisoned row is reached and the statement fails.
    let mut db = Database::new();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::from_names(&["x"]).with_qualifier("t"),
            vec![vec![Value::Int(5)], vec![Value::Int(0)]],
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT 10 / x AS y FROM t LIMIT 1")
        .unwrap();

    let materialised = session.execute(&prepared, &[]).unwrap();
    assert_eq!(
        materialised.len(),
        1,
        "execute must match Rows and never evaluate the tail"
    );
    assert_eq!(materialised.tuples()[0].get(0), &Value::Int(2));

    let unlimited = session.prepare("SELECT 10 / x AS y FROM t").unwrap();
    assert!(
        matches!(session.execute(&unlimited, &[]), Err(PermError::Exec(_))),
        "without the limit the poisoned row is reached"
    );

    let tuples: Vec<Tuple> = session
        .rows(&prepared, &[])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(tuples.len(), 1);
    assert_eq!(tuples[0].get(0), &Value::Int(2));
}

#[test]
fn acceptance_correlated_provenance_with_parameter_three_bindings() {
    // The ISSUE 3 acceptance bar: a correlated `SELECT PROVENANCE` query
    // with a `$1` parameter, prepared once, executed with three different
    // bindings, returning correct per-binding witnesses via
    // `ProvenanceRows`, with one compile total.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare(
            "SELECT PROVENANCE a FROM r \
             WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g AND s.c > $1)",
        )
        .unwrap();
    assert!(prepared.descriptor().is_some());
    assert_eq!(prepared.param_count(), 1);

    for bound in [-1i64, 30, 75] {
        let rows = session
            .provenance_rows(&prepared, &[Value::Int(bound)])
            .unwrap();
        // Reference semantics, computed directly: r-rows whose group has an
        // s.c above the binding.
        let db = engine.database();
        let s = db.table("s").unwrap();
        let r = db.table("r").unwrap();
        let surviving: Vec<i64> = r
            .tuples()
            .iter()
            .filter(|rt| {
                s.tuples()
                    .iter()
                    .any(|st| st.get(1) == rt.get(1) && st.get(0).as_i64().unwrap() > bound)
            })
            .map(|rt| rt.get(0).as_i64().unwrap())
            .collect();
        let mut seen: Vec<i64> = rows
            .iter()
            .map(|row| row.output()[0].as_i64().unwrap())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, surviving, "wrong output set for $1 = {bound}");

        // Witness structure: every row carries an `r` witness equal to its
        // own tuple and an `s` witness that satisfies the correlated,
        // parameterized predicate for THIS binding.
        for row in rows.iter() {
            let a = row.output()[0].as_i64().unwrap();
            let g = a % 3;
            let r_witness = row.witnesses().find(|w| w.table == "r").unwrap();
            assert_eq!(r_witness.tuple(), Some(&[Value::Int(a), Value::Int(g)][..]));
            let s_witness = row.witnesses().find(|w| w.table == "s").unwrap();
            let s_values = s_witness
                .tuple()
                .expect("a surviving row must have an s witness");
            assert_eq!(s_values[1], Value::Int(g), "witness from the right group");
            assert!(
                s_values[0].as_i64().unwrap() > bound,
                "witness must satisfy the $1 = {bound} binding, got {:?}",
                s_values
            );
        }
    }
    assert_eq!(session.stats().compiles, 1);
    assert_eq!(session.stats().rewrites, 1);
}

#[test]
fn prepared_memo_retention_is_policy_driven() {
    let db = grouped_db();
    let engine = Engine::new(db);

    // Default policy: memos are retained across executions of one prepared
    // statement, so the parameter-independent sublink runs once total.
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let first = session.executor().operators_evaluated();
    session.execute(&prepared, &[]).unwrap();
    let second = session.executor().operators_evaluated() - first;
    // First run: project + select + scan r + (project + scan s) = 5.
    // Second run: the sublink is a memo hit — the outer three only.
    assert_eq!(first, 5);
    assert_eq!(second, 3, "retained memo must skip the sublink re-run");

    // retain_memo = false keeps the ad-hoc clearing semantics.
    let session = engine.session_with(SessionConfig {
        retain_memo: false,
        ..SessionConfig::default()
    });
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let first = session.executor().operators_evaluated();
    session.execute(&prepared, &[]).unwrap();
    let second = session.executor().operators_evaluated() - first;
    assert_eq!(first, 5);
    assert_eq!(second, 5, "clearing policy must re-run the sublink");
}

#[test]
fn ad_hoc_run_clears_transient_memo_entries_even_under_retention() {
    // `Session::run` serves a transient statement whose sublink identities
    // are never reused; under the retention policy its memo entries would
    // leak forever, so run() clears the compiled memos afterwards. The
    // observable consequence asserted here: a previously warmed prepared
    // statement re-runs its sublink after an interleaved run().
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap(); // warm: 5 ops
    session
        .run("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    let before = session.executor().operators_evaluated();
    session.execute(&prepared, &[]).unwrap();
    assert_eq!(
        session.executor().operators_evaluated() - before,
        5,
        "run() must have cleared the memos, forcing a full re-run"
    );
}

#[test]
fn parameter_values_participate_in_retained_memo_keys() {
    // A parameterized (but uncorrelated) sublink: retention may reuse the
    // result for a repeated binding but MUST recompute for a new one.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c / 10 FROM s WHERE c > $1)")
        .unwrap();

    let run = |bound: i64| {
        let before = session.executor().operators_evaluated();
        let rel = session.execute(&prepared, &[Value::Int(bound)]).unwrap();
        (session.executor().operators_evaluated() - before, rel)
    };
    let (ops_a, res_a) = run(30);
    let (ops_b, res_b) = run(30); // same binding: memo hit
    let (ops_c, res_c) = run(-1); // new binding: sublink must re-run
    assert_eq!(ops_a, 3 + 3, "outer three ops + 3-op sublink");
    assert_eq!(ops_b, 3, "repeated binding reuses the memo entry");
    assert_eq!(ops_c, 3 + 3, "new binding must not reuse the old result");
    assert!(res_a.bag_eq(&res_b));
    assert!(!res_a.bag_eq(&res_c), "different binding, different result");
}

#[test]
fn memo_capacity_bounds_are_configurable_and_correct() {
    // A capacity of 1 thrashes on a 3-group correlated query but must stay
    // correct; unbounded agrees with it.
    let db = grouped_db();
    let engine = Engine::new(db);
    let sql = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)";

    // Memo-path test: keep the sublink a sublink (the optimizer would
    // decorrelate this shape into a semi join and never touch the memo).
    let bounded = engine.session_with(SessionConfig {
        memo_capacity: Some(1),
        optimize: false,
        ..SessionConfig::default()
    });
    let unbounded = engine.session_with(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let p_bounded = bounded.prepare(sql).unwrap();
    let p_unbounded = unbounded.prepare(sql).unwrap();
    let a = bounded.execute(&p_bounded, &[]).unwrap();
    let b = unbounded.execute(&p_unbounded, &[]).unwrap();
    assert!(a.bag_eq(&b));
    // The capacity-1 session had to re-execute evicted bindings.
    assert!(
        bounded.executor().operators_evaluated() > unbounded.executor().operators_evaluated(),
        "a thrashing LRU must do strictly more operator work"
    );
}

#[test]
fn tracer_config_subsumes_the_reference_path() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let traced_session = engine.session_with(SessionConfig {
        tracer: true,
        ..SessionConfig::default()
    });
    let rewritten_session = engine.session();
    let sql = "SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)";
    let traced = traced_session.prepare(sql).unwrap();
    let rewritten = rewritten_session.prepare(sql).unwrap();
    let t = traced_session.execute(&traced, &[]).unwrap();
    // The prepared schema must describe what execute() actually returns —
    // original attributes followed by the provenance attributes.
    assert_eq!(traced.schema().names(), t.schema().names());
    // The tracer interprets the plan directly: nothing was compiled.
    assert_eq!(traced_session.stats().compiles, 0);
    let r = rewritten_session.execute(&rewritten, &[]).unwrap();
    assert!(t.bag_eq(&r), "tracer and rewrite must agree:\n{t}\nvs\n{r}");
    // The structured view works on traced results too.
    let rows = traced_session.provenance_rows(&traced, &[]).unwrap();
    assert_eq!(rows.len(), t.len());
    // Tracer sessions reject parameters up front.
    assert!(matches!(
        traced_session.prepare("SELECT PROVENANCE a FROM r WHERE a < $1"),
        Err(PermError::Param(_))
    ));
}

#[test]
fn error_chains_surface_the_underlying_cause() {
    let db = grouped_db();
    let session = Session::new(&db);

    // Lexical error: the byte position must survive to the top-level
    // Display and the SqlError must be reachable via source().
    let err = session.prepare("SELECT 'oops").unwrap_err();
    let display = err.to_string();
    assert!(display.contains("sql error"), "{display}");
    assert!(display.contains("byte 7"), "{display}");
    let source = err.source().expect("PermError::Sql must have a source");
    assert!(source.to_string().contains("unterminated"));

    // Execution error: PermError -> ExecError -> StorageError, three levels.
    let prepared = session.prepare("SELECT missing_column FROM r").unwrap();
    let err = session.execute(&prepared, &[]).unwrap_err();
    assert!(err.to_string().contains("execution error"), "{err}");
    let exec = err.source().expect("PermError::Exec must have a source");
    let storage = exec
        .source()
        .expect("ExecError::Storage must chain to the StorageError");
    assert!(storage.to_string().contains("missing_column"));
}

#[test]
fn provenance_rows_split_output_and_witness_groups() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT PROVENANCE a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    let rows = session.provenance_rows(&prepared, &[]).unwrap();
    assert_eq!(rows.output_schema().names(), vec!["a"]);
    let descriptor = prepared.descriptor().unwrap();
    assert_eq!(descriptor.len(), 2, "two base-relation accesses: r and s");
    for row in rows.iter() {
        let tables: Vec<&str> = row.witnesses().map(|w| w.table).collect();
        assert_eq!(tables, vec!["r", "s"]);
        assert_eq!(row.witness(0).unwrap().tuple().unwrap().len(), 2);
    }
    // A plain statement refuses the provenance view.
    let plain = session.prepare("SELECT a FROM r").unwrap();
    assert!(matches!(
        session.provenance_rows(&plain, &[]),
        Err(PermError::Param(_))
    ));
}

#[test]
fn streaming_rows_work_with_parameters_and_provenance() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g AND s.c > $1)")
        .unwrap();
    let streamed: Vec<Tuple> = session
        .rows(&prepared, &[Value::Int(30)])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let materialised = session.execute(&prepared, &[Value::Int(30)]).unwrap();
    assert_eq!(streamed.len(), materialised.len());
}

#[test]
fn plan_cache_amortizes_preparation_across_sessions() {
    let engine = Engine::new(grouped_db());
    let sql = "SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE s.g = r.g)";
    let first = engine.session();
    let stmt_a = first.prepare(sql).unwrap();
    assert_eq!(first.stats().plan_cache_misses, 1);
    assert_eq!(first.stats().compiles, 1);

    // A *different* session gets the same statement back, compiling nothing.
    let second = engine.session();
    let stmt_b = second.prepare(sql).unwrap();
    assert!(std::sync::Arc::ptr_eq(&stmt_a, &stmt_b));
    let stats = second.stats();
    assert_eq!(stats.plan_cache_hits, 1);
    assert_eq!(stats.parses, 0);
    assert_eq!(stats.binds, 0);
    assert_eq!(stats.compiles, 0);
    assert_eq!(engine.plan_cache_stats().entries, 1);

    // Plain and forced-provenance preparations of one text are distinct
    // entries (they produce different plans).
    let forced = second.prepare_provenance(sql).unwrap();
    assert!(forced.descriptor().is_some());
    assert!(stmt_a.descriptor().is_none());
    assert_eq!(engine.plan_cache_stats().entries, 2);

    // Sessions opened directly over the database prepare privately.
    let detached = Session::new(engine.database());
    let stmt_c = detached.prepare(sql).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&stmt_a, &stmt_c));
    assert_eq!(engine.plan_cache_stats().entries, 2);
}

#[test]
fn plan_cache_capacity_evicts_in_insertion_order() {
    let engine = Engine::new(grouped_db()).with_plan_cache_capacity(Some(2));
    let session = engine.session();
    let texts = [
        "SELECT a FROM r WHERE a < 1",
        "SELECT a FROM r WHERE a < 2",
        "SELECT a FROM r WHERE a < 3",
    ];
    for sql in texts {
        session.prepare(sql).unwrap();
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.entries, 2, "capacity bound holds: {stats:?}");
    // The oldest text was evicted: preparing it again is a miss (and
    // re-enters, evicting the then-oldest), the newest is still a hit.
    session.prepare(texts[0]).unwrap();
    session.prepare(texts[2]).unwrap();
    let stats = session.stats();
    assert_eq!(stats.plan_cache_misses, 4);
    assert_eq!(stats.plan_cache_hits, 1);
}

#[test]
fn database_mut_invalidates_plan_cache_and_session_attached_shared_memos() {
    use perm::SharedSublinkMemo;
    use std::sync::Arc;

    let mut engine = Engine::new(grouped_db());
    let memo = SharedSublinkMemo::new();
    // Memo-path test: disable the optimizer so the correlated EXISTS stays
    // a sublink and actually warms the shared memo.
    let config = SessionConfig {
        shared_sublink_memo: Some(Arc::clone(&memo)),
        optimize: false,
        ..SessionConfig::default()
    };
    // The memo is attached via `session_with` only — the engine's own
    // default config knows nothing about it. `database_mut` must still
    // invalidate it (the engine registers attached memos weakly).
    let sql = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)";
    let prepared = {
        let session = engine.session_with(config.clone());
        let prepared = session.prepare(sql).unwrap();
        let before = session.execute(&prepared, &[]).unwrap();
        assert_eq!(before.len(), 12, "every r row has a matching s group");
        prepared
    };
    assert!(memo.entry_count() > 0, "execution warmed the shared memo");
    assert_eq!(engine.plan_cache_stats().entries, 1);

    // Empty `s`: now *no* row of `r` has a witness.
    engine.database_mut().create_or_replace_table(
        "s",
        Relation::from_rows(Schema::from_names(&["c", "g"]).with_qualifier("s"), vec![]),
    );
    assert_eq!(memo.entry_count(), 0, "attached memo was invalidated");
    assert_eq!(engine.plan_cache_stats().entries, 0);

    // Re-executing the *held* statement on a fresh memo-attached session
    // must see the new data, not stale cached sublink results.
    let session = engine.session_with(config);
    let after = session.execute(&prepared, &[]).unwrap();
    assert!(
        after.is_empty(),
        "stale shared-memo entries served: {after}"
    );
}

#[test]
fn an_expired_deadline_does_not_poison_later_executions() {
    use perm::ExecError;
    use std::time::Duration;

    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();

    // A zero deadline cancels at the first checkpoint, before any work.
    match session.execute_with_deadline(&prepared, &[], Duration::ZERO) {
        Err(PermError::Exec(ExecError::Cancelled { .. })) => {}
        other => panic!("expected a cancellation, got {other:?}"),
    }

    // The expired token must not leak into the next, deadline-less
    // execution of the same session — deadline tokens are minted (and
    // retired) per execution.
    let rows = session
        .execute(&prepared, &[])
        .expect("the session must keep serving after a deadline expiry");
    assert_eq!(rows.len(), 12);

    // And a fresh per-call deadline gets its full budget, not the stale
    // expired one.
    let rows = session
        .execute_with_deadline(&prepared, &[], Duration::from_secs(60))
        .expect("a generous fresh deadline must not cancel");
    assert_eq!(rows.len(), 12);
}

#[test]
fn columnar_stats_count_blocks_and_fallbacks() {
    let db = grouped_db();
    let engine = Engine::new(db);

    // A sublink-free integer filter runs entirely on typed column lanes:
    // blocks are materialised, nothing falls back.
    let session = engine.session();
    let prepared = session.prepare("SELECT a FROM r WHERE a < 6").unwrap();
    let typed_rows = session.execute(&prepared, &[]).unwrap();
    assert_eq!(typed_rows.len(), 6);
    let stats = session.stats();
    assert!(
        stats.columnar_blocks > 0,
        "the typed filter must materialise at least one column block"
    );
    assert_eq!(
        stats.columnar_fallback_rows, 0,
        "an all-Int comparison has a typed kernel — no row may fall back"
    );
    assert!(stats.vectorized_batches > 0);

    // A sublink-bearing predicate keeps the memo seam: its rows fall back
    // to the per-tuple evaluator and are counted on *both* fallback
    // counters (the columnar one also covers mixed-type lanes).
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let stats = session.stats();
    assert!(stats.sublink_fallback_rows > 0);
    assert!(
        stats.columnar_fallback_rows >= stats.sublink_fallback_rows,
        "sublink rows are a subset of the columnar fallback rows"
    );
}

#[test]
fn stats_counters_accumulate_monotonically_over_the_session_life() {
    // The documented contract (`SessionStats` — *Counter semantics*):
    // nothing resets between executions. Totals accumulate over the
    // session's life, `peak_bytes` and `degradation` are high-water marks,
    // and `buffer_pool_capacity` is a configuration gauge — so every
    // numeric field must be non-decreasing across consecutive snapshots.
    use perm::SessionStats;
    type Counter = (&'static str, fn(&SessionStats) -> u64);
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let counters: &[Counter] = &[
        ("parses", |s| s.parses),
        ("binds", |s| s.binds),
        ("rewrites", |s| s.rewrites),
        ("optimizer_rules_fired", |s| s.optimizer_rules_fired),
        ("sublinks_decorrelated", |s| s.sublinks_decorrelated),
        ("compiles", |s| s.compiles),
        ("executions", |s| s.executions),
        ("plan_cache_hits", |s| s.plan_cache_hits),
        ("plan_cache_misses", |s| s.plan_cache_misses),
        ("vectorized_batches", |s| s.vectorized_batches),
        ("sublink_fallback_rows", |s| s.sublink_fallback_rows),
        ("columnar_blocks", |s| s.columnar_blocks),
        ("columnar_fallback_rows", |s| s.columnar_fallback_rows),
        ("cancel_checks", |s| s.cancel_checks),
        ("peak_bytes", |s| s.peak_bytes),
        ("spilled_bytes", |s| s.spilled_bytes),
        ("spill_partitions", |s| s.spill_partitions),
        ("buffer_pool_hits", |s| s.buffer_pool_hits),
        ("buffer_pool_misses", |s| s.buffer_pool_misses),
        ("buffer_pool_evictions", |s| s.buffer_pool_evictions),
        ("buffer_pool_capacity", |s| s.buffer_pool_capacity),
    ];
    let mut previous = session.stats();
    for sql in [
        "SELECT a FROM r WHERE a IN (SELECT c FROM s)",
        "SELECT PROVENANCE a FROM r WHERE a < 9",
        "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)",
        "SELECT g FROM r",
    ] {
        let prepared = session.prepare(sql).unwrap();
        session.execute(&prepared, &[]).unwrap();
        let current = session.stats();
        for (name, get) in counters {
            assert!(
                get(&current) >= get(&previous),
                "{name} decreased between executions ({} -> {}) after `{sql}`",
                get(&previous),
                get(&current)
            );
        }
        assert!(
            current.degradation >= previous.degradation,
            "the degradation high-water mark moved back after `{sql}`"
        );
        assert_eq!(current.executions, previous.executions + 1);
        previous = current;
    }
    assert_eq!(previous.parses, 4);
    assert_eq!(previous.executions, 4);
    assert_eq!(previous.rewrites, 1, "one statement carried PROVENANCE");
}

#[test]
fn optimizer_counters_advance_on_prepare_and_freeze_like_compiles() {
    // `optimizer_rules_fired` / `sublinks_decorrelated` follow the same
    // contract as `compiles`: they advance when a statement is prepared
    // fresh, and neither execution nor a plan-cache hit moves them.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();

    let correlated = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)";
    let prepared = session.prepare(correlated).unwrap();
    let after_prepare = session.stats();
    assert_eq!(
        after_prepare.sublinks_decorrelated, 1,
        "the correlated EXISTS must decorrelate into a semi join"
    );
    assert!(after_prepare.optimizer_rules_fired >= after_prepare.sublinks_decorrelated);

    for _ in 0..3 {
        session.execute(&prepared, &[]).unwrap();
    }
    // Re-preparing the same text is a plan-cache hit: no optimizer work.
    let _again = session.prepare(correlated).unwrap();
    let after = session.stats();
    assert_eq!(after.sublinks_decorrelated, 1);
    assert_eq!(
        after.optimizer_rules_fired,
        after_prepare.optimizer_rules_fired
    );
    assert!(after.plan_cache_hits > 0);

    // With the optimizer off, both counters stay at zero — and the results
    // still agree with the optimized session.
    let off = engine.session_with(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let p_off = off.prepare(correlated).unwrap();
    let r_off = off.execute(&p_off, &[]).unwrap();
    assert_eq!(off.stats().optimizer_rules_fired, 0);
    assert_eq!(off.stats().sublinks_decorrelated, 0);
    let r_on = session.execute(&prepared, &[]).unwrap();
    assert!(r_on.bag_eq(&r_off));
}

#[test]
fn explain_surfaces_the_bound_to_optimized_plan_diff() {
    // One `explain` call shows the pre-optimization bound shape, the
    // optimized logical plan and the rules that fired — so the
    // decorrelation diff is visible without a second session.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let profile = session
        .explain("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    let bound = profile.bound_plan.as_deref().expect("bound plan annotated");
    let optimized = profile
        .optimized_plan
        .as_deref()
        .expect("optimized plan annotated");
    let rules = profile
        .optimizer
        .as_deref()
        .expect("rule summary annotated");
    assert!(
        bound.contains("EXISTS") || bound.to_lowercase().contains("sublink"),
        "bound shape keeps the sublink:\n{bound}"
    );
    assert!(
        optimized.contains('⋉') || optimized.to_lowercase().contains("semi"),
        "optimized shape shows the semi join:\n{optimized}"
    );
    assert!(
        rules.contains("decorrelate"),
        "summary names the rule: {rules}"
    );
    let rendered = profile.render();
    for header in ["bound plan:", "optimized plan", "physical plan:"] {
        assert!(
            rendered.contains(header),
            "render misses `{header}`:\n{rendered}"
        );
    }

    // EXPLAIN ANALYZE carries the same annotations alongside actuals.
    let analyzed = session
        .explain_analyze("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    assert!(analyzed.bound_plan.is_some() && analyzed.optimizer.is_some());

    // With the optimizer off there is no diff to show.
    let off = engine.session_with(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    let bare = off
        .explain("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    assert!(bare.bound_plan.is_none() && bare.optimized_plan.is_none() && bare.optimizer.is_none());
}

#[test]
fn spill_sessions_report_buffer_pool_churn_and_capacity() {
    // The buffer-pool fields on `SessionStats`: a starvation budget with
    // spill enabled must surface the configured pool capacity (a gauge,
    // zero until a spill manager exists) and the pool traffic incurred
    // while reading runs back.
    let mut db = Database::new();
    db.create_table(
        "big",
        Relation::from_rows(
            Schema::from_names(&["k", "v"]).with_qualifier("big"),
            (0..3000)
                .map(|i| vec![Value::Int((i * 37) % 1000), Value::Int(i)])
                .collect(),
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let session = engine.session_with(SessionConfig {
        memory_budget: Some(8 << 10),
        spill: true,
        ..SessionConfig::default()
    });
    let prepared = session.prepare("SELECT k, v FROM big ORDER BY k").unwrap();
    let rows = session.execute(&prepared, &[]).unwrap();
    assert_eq!(rows.len(), 3000);
    let stats = session.stats();
    assert!(
        stats.spilled_bytes > 0,
        "an 8KB budget must push the sort out of core"
    );
    assert!(
        stats.buffer_pool_capacity > 0,
        "a spill manager must bring a configured pool capacity"
    );
    assert!(
        stats.buffer_pool_hits + stats.buffer_pool_misses > 0,
        "reading spilled runs back must go through the buffer pool"
    );
}
