//! Strategy comparison on the synthetic workload of Section 4.2.2 — a small
//! interactive version of Figures 7–9.
//!
//! Each strategy runs in a one-shot [`Session`] configured with that
//! strategy, so every timing covers the rewrite, optimization, compilation
//! and execution of the plan.
//!
//! Run with `cargo run --release --example strategy_comparison`.

use perm::{Session, SessionConfig, Strategy};
use perm_algebra::display::explain;
use perm_bench_shim::*;

/// The example uses the same building blocks as the benchmark harness but
/// keeps them local so the example stays a plain `perm` API consumer.
mod perm_bench_shim {
    pub use perm_core::ProvenanceQuery;
    pub use perm_synthetic::queries::{build_database, build_query, random_range, QueryKind};
}

fn main() {
    let sizes = [(200usize, 100usize), (400, 200), (800, 400)];
    for (r1_rows, r2_rows) in sizes {
        let db = build_database(r1_rows, r2_rows, 42);
        let params = random_range(r1_rows, r2_rows, 42);
        println!("== |R1| = {r1_rows}, |R2| = {r2_rows} ==");
        for (kind, name) in [
            (QueryKind::Q1EqualityAny, "q1 (a = ANY)"),
            (QueryKind::Q2InequalityAll, "q2 (a < ALL)"),
        ] {
            let plan = build_query(&db, params, kind);
            print!("  {name:<14}");
            for strategy in Strategy::ALL {
                let start = std::time::Instant::now();
                let session = Session::with_config(
                    &db,
                    SessionConfig {
                        strategy,
                        ..SessionConfig::default()
                    },
                );
                let result = session
                    .prepare_provenance_plan(&plan)
                    .and_then(|prepared| session.execute(&prepared, &[]));
                match result {
                    Ok(result) => print!(
                        "  {:>5}: {:>7.1}ms ({} rows)",
                        strategy.name(),
                        start.elapsed().as_secs_f64() * 1000.0,
                        result.len()
                    ),
                    Err(_) => print!("  {:>5}: {:>9}", strategy.name(), "n/a"),
                }
            }
            println!();
        }
        println!();
    }

    // Show what the rewrites actually look like for the smallest instance.
    let db = build_database(20, 10, 1);
    let params = random_range(20, 10, 1);
    let plan = build_query(&db, params, QueryKind::Q1EqualityAny);
    println!("original q1 plan:\n{}", explain(&plan));
    for strategy in [Strategy::Unn, Strategy::Move, Strategy::Gen] {
        if let Ok(rewritten) = ProvenanceQuery::new(&db, &plan)
            .strategy(strategy)
            .rewrite()
        {
            println!(
                "q1 rewritten with {strategy}:\n{}",
                explain(rewritten.plan())
            );
        }
    }
}
