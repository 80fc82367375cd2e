//! Differential testing of the per-operator profiles (`EXPLAIN ANALYZE`):
//! over a seeded slice of the shared nested-subquery SQL corpus
//! ([`perm_synthetic::sqlgen`], the same generator the session and
//! concurrent differential tests draw from), a profiled execution must
//! (a) reconcile exactly with the executor's `operators_evaluated`
//! counter and (b) leave the result bag unchanged against the unprofiled
//! session path.

use perm::prelude::*;
use perm_synthetic::sqlgen::{corpus_case, corpus_database};

#[test]
fn profile_invocation_sums_reconcile_with_the_operator_counter() {
    let db = corpus_database();
    let engine = Engine::new(db);
    let session = engine.session();
    let mut nontrivial = 0usize;
    for seed in 0..60u64 {
        let case = corpus_case(seed);
        let sql = &case.sql;
        let prepared = session
            .prepare(sql)
            .unwrap_or_else(|e| panic!("seed {seed}: failed to prepare `{sql}`: {e}"));
        let params = case.params(prepared.param_count());
        let reference = session
            .execute(&prepared, &params)
            .unwrap_or_else(|e| panic!("seed {seed}: `{sql}` with {params:?} failed: {e}"));

        let (plan, _) = perm::sql::compile(engine.database(), sql).unwrap();
        let ex = Executor::new(engine.database());
        ex.bind_params(params.clone());
        let compiled = ex.prepare(&plan).unwrap();
        let before = ex.operators_evaluated();
        let (relation, profile) = ex
            .execute_profiled(&compiled)
            .unwrap_or_else(|e| panic!("seed {seed}: profiled `{sql}` failed: {e}"));
        let delta = ex.operators_evaluated() - before;

        assert_eq!(
            profile.total_invocations(),
            delta,
            "seed {seed}: per-node invocation sums diverge from operators_evaluated \
             on `{sql}`:\n{profile}"
        );
        assert!(
            relation.bag_eq(&reference),
            "seed {seed}: the profiled run changed the bag on `{sql}`"
        );
        if delta > 1 {
            nontrivial += 1;
        }
    }
    assert!(
        nontrivial > 30,
        "the corpus slice must mostly exercise multi-operator plans ({nontrivial} did)"
    );
}
