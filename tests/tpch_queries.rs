//! Integration tests over the TPC-H workload: every sublink template
//! compiles, executes, and its provenance rewrite preserves the original
//! result; strategies agree with each other where more than one applies.

use perm::{ProvenanceQuery, Strategy};
use perm_exec::Executor;
use perm_storage::{Relation, Tuple, Value};
use perm_tpch::{generate, sublink_queries, SublinkClass, TpchScale};

fn tiny_db() -> perm_storage::Database {
    generate(TpchScale::new(0.0001), 1234)
}

/// Distinct rows of `rel` projected onto `names`, sorted (for set comparison
/// across relations whose column order differs).
fn named_rows(rel: &Relation, names: &[String]) -> Vec<Vec<Value>> {
    let positions: Vec<usize> = names
        .iter()
        .map(|n| rel.schema().resolve(None, n).unwrap())
        .collect();
    let mut out: Vec<Vec<Value>> = rel
        .tuples()
        .iter()
        .map(|t| positions.iter().map(|&i| t.get(i).clone()).collect())
        .collect();
    out.sort_by(|a, b| Tuple::new(a.clone()).sort_key(&Tuple::new(b.clone())));
    out.dedup_by(|a, b| Tuple::new(a.clone()).null_safe_eq(&Tuple::new(b.clone())));
    out
}

#[test]
fn every_template_preserves_the_original_result_under_rewriting() {
    let db = tiny_db();
    let executor = Executor::new(&db);
    for template in sublink_queries() {
        // Correlated templates exercise the Gen strategy (the only one that
        // applies to them); uncorrelated ones use Move here, with the
        // Left/Gen agreement covered by `uncorrelated_templates_agree…`.
        let strategy = match template.class {
            SublinkClass::Correlated => Strategy::Gen,
            SublinkClass::Uncorrelated => Strategy::Move,
        };
        if matches!(template.id, 2 | 17 | 20 | 21) {
            // The most expensive correlated Gen rewrites (sublinks over
            // partsupp/lineitem, evaluated per CrossBase tuple) are exercised
            // by the benchmark harness in release mode; in this (debug-mode
            // friendly) test their rewrites are checked structurally by
            // `expensive_correlated_rewrites_are_well_formed`, and Q4/Q22
            // below cover Gen execution end to end.
            continue;
        }
        let sql = template.instantiate(5);
        let (plan, _) = perm_sql::compile(&db, &sql)
            .unwrap_or_else(|e| panic!("Q{} does not compile: {e}", template.id));
        let original = executor
            .execute(&plan)
            .unwrap_or_else(|e| panic!("Q{} does not execute: {e}", template.id));
        let rewritten = ProvenanceQuery::new(&db, &plan)
            .strategy(strategy)
            .rewrite()
            .unwrap_or_else(|e| panic!("Q{} does not rewrite with {strategy}: {e}", template.id));
        let (batches, blocks) = (executor.batches_vectorized(), executor.columnar_blocks());
        let provenance = executor
            .execute(rewritten.plan())
            .unwrap_or_else(|e| panic!("Q{}+ does not execute: {e}", template.id));
        // Gen plans run vectorized over typed column blocks, and the
        // compiled result agrees with the reference interpreter. Q4 is left
        // out of the interpreter comparison only for time: its Gen witness
        // check over lineitem takes ~20 s interpreted in a debug build.
        if strategy == Strategy::Gen {
            assert!(
                executor.batches_vectorized() > batches,
                "Q{}+ never reached the vectorized evaluator",
                template.id
            );
            assert!(
                executor.columnar_blocks() > blocks,
                "Q{}+ never materialised a typed column block",
                template.id
            );
        }
        if template.id != 4 {
            let interpreted = executor
                .execute_unoptimized(rewritten.plan())
                .unwrap_or_else(|e| panic!("Q{}+ does not interpret: {e}", template.id));
            assert!(
                provenance.bag_eq(&interpreted),
                "Q{}+ compiled and interpreted results differ",
                template.id
            );
        }

        // Result preservation: distinct original tuples == distinct rewritten
        // tuples projected on the original attributes (Theorem 4).
        let names = original.schema().names();
        assert_eq!(
            named_rows(&original, &names),
            named_rows(&provenance, &names),
            "Q{} rewritten with {strategy} does not preserve the original result",
            template.id
        );
        // The rewritten schema appends one provenance attribute group per
        // base relation access of the query.
        assert!(rewritten.descriptor().attr_count() > 0);
        assert_eq!(
            provenance.schema().arity(),
            original.schema().arity() + rewritten.descriptor().attr_count()
        );
    }
}

#[test]
fn expensive_correlated_rewrites_are_well_formed() {
    let db = tiny_db();
    for id in [2u32, 17, 20, 21] {
        let template = sublink_queries().into_iter().find(|t| t.id == id).unwrap();
        let sql = template.instantiate(5);
        let (plan, _) = perm_sql::compile(&db, &sql).unwrap();
        let rewritten = ProvenanceQuery::new(&db, &plan)
            .strategy(Strategy::Gen)
            .rewrite()
            .unwrap();
        rewritten.plan().validate().unwrap();
        assert!(rewritten.descriptor().attr_count() > 0);
        // The provenance schema must mention every base relation the query
        // accesses, including the ones only reachable through sublinks.
        let tables: Vec<String> = rewritten
            .descriptor()
            .entries()
            .iter()
            .map(|e| e.table.clone())
            .collect();
        if matches!(id, 2 | 20) {
            assert!(tables.contains(&"partsupp".to_string()));
        }
        if matches!(id, 17 | 20 | 21) {
            assert!(tables.contains(&"lineitem".to_string()));
        }
    }
}

#[test]
fn uncorrelated_templates_agree_across_strategies() {
    let db = tiny_db();
    let executor = Executor::new(&db);
    for template in sublink_queries() {
        if template.class != SublinkClass::Uncorrelated {
            continue;
        }
        let sql = template.instantiate(9);
        let (plan, _) = perm_sql::compile(&db, &sql).unwrap();
        let reference = {
            let rewritten = ProvenanceQuery::new(&db, &plan)
                .strategy(Strategy::Left)
                .rewrite()
                .unwrap();
            executor.execute(rewritten.plan()).unwrap()
        };
        let names = reference.schema().names();
        // Move is compared on every uncorrelated template; the Gen comparison
        // is limited to Q16 (whose CrossBase is just the supplier relation)
        // to keep the debug-mode test suite fast — the harness compares Gen
        // on the remaining templates in release mode.
        let mut strategies = vec![Strategy::Move];
        if template.id == 16 {
            strategies.push(Strategy::Gen);
        }
        for strategy in strategies {
            let rewritten = ProvenanceQuery::new(&db, &plan)
                .strategy(strategy)
                .rewrite()
                .unwrap();
            let result = executor.execute(rewritten.plan()).unwrap();
            assert_eq!(
                named_rows(&result, &names),
                named_rows(&reference, &names),
                "Q{}: {strategy} disagrees with Left",
                template.id
            );
        }
    }
}

#[test]
fn q4_gen_provenance_links_orders_to_their_late_lineitems() {
    // Q4 counts orders with at least one lineitem whose commit date precedes
    // its receipt date. The provenance of each output row must contain such a
    // lineitem of a contributing order.
    let db = tiny_db();
    let template = sublink_queries().into_iter().find(|t| t.id == 4).unwrap();
    let sql = template.instantiate(13);
    let (plan, _) = perm_sql::compile(&db, &sql).unwrap();
    let rewritten = ProvenanceQuery::new(&db, &plan)
        .strategy(Strategy::Gen)
        .rewrite()
        .unwrap();
    let result = Executor::new(&db).execute(rewritten.plan()).unwrap();
    let schema = result.schema();
    let commit = schema.resolve(None, "prov_lineitem_l_commitdate").unwrap();
    let receipt = schema.resolve(None, "prov_lineitem_l_receiptdate").unwrap();
    let order_key = schema.resolve(None, "prov_orders_o_orderkey").unwrap();
    for row in result.tuples() {
        assert!(!row.get(order_key).is_null(), "an order always contributes");
        if !row.get(commit).is_null() {
            let commit_days = row.get(commit).as_i64().unwrap();
            let receipt_days = row.get(receipt).as_i64().unwrap();
            assert!(
                commit_days < receipt_days,
                "only late lineitems belong to the provenance of Q4"
            );
        }
    }
}
