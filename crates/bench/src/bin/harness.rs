//! The figure/table harness: regenerates every figure of the paper's
//! evaluation section as text tables, and writes each figure additionally
//! as a machine-readable `BENCH_<figure>.json` artefact (ms and
//! `operators_evaluated` per point) so the perf trajectory can be tracked
//! across PRs.
//!
//! ```text
//! harness fig6 --scale xs [--runs N] [--timeout SECS]   # Figure 6 (one panel per scale)
//! harness fig7 [--max-rows N]                           # Figure 7: vary input relation
//! harness fig8 [--max-rows N]                           # Figure 8: vary sublink relation
//! harness fig9 [--max-rows N]                           # Figure 9: vary both relations
//! harness memo [--max-rows N] [--check]                 # sublink memo on/off on q3 (Fig. 7 sweep)
//!                                                       # --check: fail unless memoized < unmemoized ops
//! harness opt [--max-rows N] [--scale S] [--check]      # optimizer decorrelation vs memo-only (Fig. 7 + TPC-H Q4)
//!                                                       # --check: fail unless optimized < baseline ops at every
//!                                                       #          point with more outer rows than the correlation
//!                                                       #          groups
//! harness robust [--max-rows N] [--check]               # resilience machinery armed-but-idle vs absent (Fig. 7)
//!                                                       # --check: fail unless overhead <= 5% and a mid-query
//!                                                       #          cancel returns within one batch
//! harness spill [--max-rows N] [--check]                # out-of-core: starvation budgets with spill-to-disk
//!                                                       # --check: fail unless budgets that exhaust without
//!                                                       #          spill complete with it, at bounded slowdown
//! harness obs [--max-rows N] [--check]                  # EXPLAIN ANALYZE profiling armed vs absent (Fig. 7)
//!                                                       # --check: fail unless overhead <= 5% and the serving
//!                                                       #          metrics export in Prometheus line format
//! harness serve [--rows N] [--execs N] [--check]        # prepared vs one-shot serving cost
//!                                                       # --check: fail unless prepared is cheaper
//! harness ablation [--rows N]                           # rewrite-structure ablation
//! harness all                                           # everything, at the smallest scale
//! ```

use perm_bench::{
    concurrent_to_json, format_table, measure_ablation, measure_concurrent, measure_fig6,
    measure_obs, measure_opt, measure_robust, measure_serve, measure_spill, measure_sublink_memo,
    measure_synthetic_sweep, memo_results_to_json, obs_to_json, opt_to_json,
    prometheus_format_errors, results_to_json, robust_to_json, serve_to_json, spill_to_json,
    BenchConfig, SyntheticSweep,
};
use perm_tpch::TpchScale;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return;
    }
    let command = args[0].as_str();
    let options = Options::parse(&args[1..]);
    let config = BenchConfig {
        runs: options.runs,
        timeout: Duration::from_secs(options.timeout_secs),
        seed: options.seed,
    };

    match command {
        "fig6" => fig6(&options, &config),
        "fig7" => synthetic(
            SyntheticSweep::VaryInput,
            "fig7",
            "Figure 7",
            &options,
            &config,
        ),
        "fig8" => synthetic(
            SyntheticSweep::VarySublink,
            "fig8",
            "Figure 8",
            &options,
            &config,
        ),
        "fig9" => synthetic(
            SyntheticSweep::VaryBoth,
            "fig9",
            "Figure 9",
            &options,
            &config,
        ),
        "memo" => memo(&options, &config),
        "opt" => opt(&options, &config),
        "robust" => robust(&options, &config),
        "spill" => spill(&options, &config),
        "obs" => obs(&options, &config),
        "serve" => serve(&options, &config),
        "concurrent" => concurrent(&options, &config),
        "ablation" => ablation(&options, &config),
        "all" => {
            fig6(&options, &config);
            synthetic(
                SyntheticSweep::VaryInput,
                "fig7",
                "Figure 7",
                &options,
                &config,
            );
            synthetic(
                SyntheticSweep::VarySublink,
                "fig8",
                "Figure 8",
                &options,
                &config,
            );
            synthetic(
                SyntheticSweep::VaryBoth,
                "fig9",
                "Figure 9",
                &options,
                &config,
            );
            memo(&options, &config);
            opt(&options, &config);
            robust(&options, &config);
            spill(&options, &config);
            obs(&options, &config);
            serve(&options, &config);
            concurrent(&options, &config);
            ablation(&options, &config);
        }
        _ => print_usage(),
    }
}

/// Writes a JSON artefact next to the printed table and reports the path.
fn write_json(figure: &str, json: &str) {
    let path = format!("BENCH_{figure}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

struct Options {
    scale: String,
    runs: usize,
    timeout_secs: u64,
    seed: u64,
    max_rows: usize,
    rows: usize,
    execs: usize,
    check: bool,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut options = Options {
            scale: "xs".to_string(),
            runs: 3,
            timeout_secs: 20,
            seed: 42,
            max_rows: 2000,
            rows: 1000,
            execs: 25,
            check: false,
        };
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--check" {
                options.check = true;
                i += 1;
                continue;
            }
            let value = args.get(i + 1).cloned().unwrap_or_default();
            match args[i].as_str() {
                "--scale" => options.scale = value,
                "--runs" => options.runs = value.parse().unwrap_or(options.runs),
                "--timeout" => options.timeout_secs = value.parse().unwrap_or(options.timeout_secs),
                "--seed" => options.seed = value.parse().unwrap_or(options.seed),
                "--max-rows" => options.max_rows = value.parse().unwrap_or(options.max_rows),
                "--rows" => options.rows = value.parse().unwrap_or(options.rows),
                "--execs" => options.execs = value.parse().unwrap_or(options.execs),
                other => {
                    eprintln!("unknown option {other}");
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        options
    }
}

fn fig6(options: &Options, config: &BenchConfig) {
    let Some(scale) = TpchScale::named(&options.scale) else {
        eprintln!(
            "unknown scale `{}` (expected xs, s, m or l — the stand-ins for the paper's 1MB, \
             10MB, 100MB and 1GB databases)",
            options.scale
        );
        return;
    };
    println!(
        "== Figure 6 ({}) — TPC-H sublink queries, scale factor {} ==",
        options.scale, scale.factor
    );
    println!(
        "(Gen on all queries; Left/Move/Unn only where applicable. `n/a` = strategy not \
         applicable, `>Ns` = exceeded the time budget, as in the paper's >6h exclusions.)\n"
    );
    let rows = measure_fig6(scale, config);
    println!("{}", format_table(&rows));
    write_json(
        &format!("fig6_{}", options.scale),
        &results_to_json("fig6", &rows),
    );
}

fn synthetic(
    sweep: SyntheticSweep,
    figure: &str,
    title: &str,
    options: &Options,
    config: &BenchConfig,
) {
    println!(
        "== {title} — synthetic workload (max {} rows) ==\n",
        options.max_rows
    );
    let rows = measure_synthetic_sweep(sweep, options.max_rows, config);
    println!("{}", format_table(&rows));
    write_json(figure, &results_to_json(figure, &rows));
}

fn memo(options: &Options, config: &BenchConfig) {
    println!(
        "== Sublink memoization — q3 with the parameterized memo on/off (max {} rows) ==\n",
        options.max_rows
    );
    let rows = measure_sublink_memo(SyntheticSweep::VaryInput, options.max_rows, config);
    println!(
        "{:<28} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "workload", "ops on", "ops off", "ratio", "ms on", "ms off"
    );
    for row in &rows {
        println!(
            "{:<28} {:>10} {:>10} {:>7.1}x {:>12.1} {:>12.1}",
            row.label,
            row.ops_memoized,
            row.ops_unmemoized,
            row.ops_ratio(),
            row.ms_memoized,
            row.ms_unmemoized
        );
    }
    println!();
    write_json("memo", &memo_results_to_json("memo", &rows));

    // `--check` turns the comparison into a smoke gate for CI: the memoized
    // path must never do *more* operator evaluations than the unmemoized
    // one, and must do strictly fewer wherever outer rows outnumber the
    // correlation groups (there, distinct bindings are guaranteed to
    // repeat; at smaller points a seed can draw all-distinct bindings and
    // a tie is legitimate). Exits non-zero on violation.
    if options.check {
        let mut failed = rows.is_empty();
        if failed {
            eprintln!("memo check: no points completed within the time budget");
        }
        let mut strict_points = 0usize;
        for row in &rows {
            let must_be_strict = row.r1_rows > perm_synthetic::CORRELATION_GROUPS as usize;
            strict_points += must_be_strict as usize;
            let violated = if must_be_strict {
                row.ops_memoized >= row.ops_unmemoized
            } else {
                row.ops_memoized > row.ops_unmemoized
            };
            if violated {
                eprintln!(
                    "memo check: {} evaluated {} operators with the memo vs {} without",
                    row.label, row.ops_memoized, row.ops_unmemoized
                );
                failed = true;
            }
        }
        if !failed && strict_points == 0 {
            eprintln!(
                "memo check: no sweep point exceeded {} rows, nothing to gate on \
                 (raise --max-rows)",
                perm_synthetic::CORRELATION_GROUPS
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "memo check passed: memoized < unmemoized operator count at all {strict_points} \
             points above {} rows ({} points total)",
            perm_synthetic::CORRELATION_GROUPS,
            rows.len()
        );
    }
}

fn opt(options: &Options, config: &BenchConfig) {
    println!(
        "== Optimizer decorrelation — correlated sublinks as semi/anti joins vs the \
         memo-only baseline (Fig. 7 q3 up to {} rows, TPC-H Q4 at scale {}) ==\n",
        options.max_rows, options.scale
    );
    let Some(scale) = TpchScale::named(&options.scale) else {
        eprintln!("unknown scale `{}` (expected xs, s, m or l)", options.scale);
        std::process::exit(1);
    };
    let rows = measure_opt(SyntheticSweep::VaryInput, options.max_rows, scale, config);
    println!(
        "{:<28} {:>9} {:>10} {:>10} {:>8} {:>10} {:>10} {:>6}",
        "workload", "outer", "ops opt", "ops base", "ratio", "ms opt", "ms base", "decorr"
    );
    for row in &rows {
        println!(
            "{:<28} {:>9} {:>10} {:>10} {:>7.1}x {:>10.1} {:>10.1} {:>6}",
            row.label,
            row.outer_rows,
            row.ops_optimized,
            row.ops_baseline,
            row.ops_ratio(),
            row.ms_optimized,
            row.ms_baseline,
            row.sublinks_decorrelated
        );
    }
    println!();
    write_json("opt", &opt_to_json("opt", &rows));

    // `--check` turns the comparison into a CI gate, mirroring `memo
    // --check`: the optimized plan must never evaluate *more* operators
    // than the memo-only baseline, must decorrelate every point, and must
    // win strictly wherever outer rows outnumber the correlation groups
    // (there, the memo's amortisation is saturated and static unnesting
    // still has to beat it; at tiny points a tie is legitimate).
    if options.check {
        let mut failed = rows.is_empty();
        if failed {
            eprintln!("opt check: no points completed within the time budget");
        }
        let mut strict_points = 0usize;
        for row in &rows {
            strict_points += row.must_be_strict as usize;
            let violated = if row.must_be_strict {
                row.ops_optimized >= row.ops_baseline
            } else {
                row.ops_optimized > row.ops_baseline
            };
            if violated {
                eprintln!(
                    "opt check: {} evaluated {} operators optimized vs {} on the baseline",
                    row.label, row.ops_optimized, row.ops_baseline
                );
                failed = true;
            }
            if row.sublinks_decorrelated == 0 {
                eprintln!(
                    "opt check: {} decorrelated no sublink — the headline rule did not fire",
                    row.label
                );
                failed = true;
            }
        }
        if !failed && strict_points == 0 {
            eprintln!(
                "opt check: no point exceeded {} outer rows, nothing to gate on \
                 (raise --max-rows)",
                perm_synthetic::CORRELATION_GROUPS
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "opt check passed: optimized < baseline operator count at all {strict_points} \
             points above {} outer rows ({} points total, every point decorrelated)",
            perm_synthetic::CORRELATION_GROUPS,
            rows.len()
        );
    }
}

fn robust(options: &Options, config: &BenchConfig) {
    println!(
        "== Resilience overhead — cancel-token checkpoints and the memory accountant armed \
         but idle vs absent, on the Fig. 7 workload (Gen rewrite, {} synthetic rows) ==\n",
        options.max_rows
    );
    let rows = measure_robust(options.max_rows, config);
    println!(
        "{:<24} {:>13} {:>12} {:>10} {:>8} {:>12} {:>10}",
        "workload", "guarded [ms]", "plain [ms]", "overhead", "checks", "peak [B]", "rows"
    );
    for row in &rows {
        println!(
            "{:<24} {:>13.1} {:>12.1} {:>9.1}% {:>8} {:>12} {:>10}",
            row.label,
            row.ms_guarded,
            row.ms_plain,
            row.overhead_pct(),
            row.cancel_checks,
            row.peak_bytes,
            row.result_rows
        );
    }
    println!();
    write_json("robust", &robust_to_json("robust", &rows));

    // `--check` is the CI gate of the resilience layer. Correctness is
    // unconditional (guarded and unguarded results bag-equal, the injected
    // cancellation surfacing as `ExecError::Cancelled` — asserted inside
    // `measure_robust`, a divergence panics). The wall-time gate bounds the
    // armed-but-idle machinery at 5% using the best pairwise ratio over the
    // order-alternated pairs: one quiet pair shows
    // the checkpoints are cheap, while true overhead is slower in every
    // pair. The latency gate requires zero checkpoints after the injected
    // cancellation — the query must return within the batch it was in.
    if options.check {
        let mut failed = rows.is_empty();
        if failed {
            eprintln!("robust check: no points completed within the time budget");
        }
        for row in &rows {
            if row.best_pair_ratio > 1.05 {
                eprintln!(
                    "robust check: {} paid more than 5% for the armed resilience machinery \
                     in every pair (best ratio {:.3}, min {:.1}ms vs {:.1}ms)",
                    row.label, row.best_pair_ratio, row.ms_guarded, row.ms_plain
                );
                failed = true;
            }
            if row.cancel_checks == 0 {
                eprintln!("robust check: {} never reached a checkpoint", row.label);
                failed = true;
            }
            if row.checkpoints_after_cancel != 0 {
                eprintln!(
                    "robust check: {} ran {} more checkpoints after the cancellation \
                     injected at checkpoint {}",
                    row.label, row.checkpoints_after_cancel, row.cancel_at
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "robust check passed: armed cancel+budget machinery within 5% of the unguarded \
             run at all {} points (best pairwise ratio <= 1.05), and every injected \
             mid-query cancellation returned without reaching another checkpoint",
            rows.len()
        );
    }
}

fn spill(options: &Options, config: &BenchConfig) {
    println!(
        "== Out-of-core execution — starvation memory budgets with spill-to-disk enabled vs \
         the unbudgeted reference, on the Fig. 7 workload (Gen rewrite, {} synthetic rows) ==\n",
        options.max_rows
    );
    let rows = measure_spill(options.max_rows, config);
    println!(
        "{:<24} {:>10} {:>14} {:>12} {:>7} {:>10} {:>12} {:>7} {:>10}",
        "workload",
        "budget",
        "no-spill",
        "spilled [B]",
        "parts",
        "pool h/m",
        "plain [ms]",
        "spill",
        "rows"
    );
    for row in &rows {
        println!(
            "{:<24} {:>10} {:>14} {:>12} {:>7} {:>10} {:>12.1} {:>6.1}x {:>10}",
            row.label,
            row.budget,
            if row.exhausted_without_spill {
                "exhausted"
            } else {
                "completed"
            },
            row.spilled_bytes,
            row.spill_partitions,
            format!("{}/{}", row.buffer_pool_hits, row.buffer_pool_misses),
            row.ms_unbudgeted,
            row.best_pair_ratio,
            row.result_rows
        );
    }
    println!();
    write_json("spill", &spill_to_json("spill", &rows));

    // `--check` is the CI gate of the out-of-core layer. Correctness is
    // unconditional (every spill-enabled run must complete and be bag-equal
    // to the unbudgeted reference — asserted inside `measure_spill`, a
    // divergence panics). The gate additionally demands that the sweep
    // reaches at least one budget where the budgeted-but-spill-less
    // executor died with `ResourceExhausted` — the query class the spill
    // paths exist to rescue — and that spilling stays a bounded constant
    // factor over the unbudgeted run (best pairwise ratio over
    // order-alternated pairs, so shared-machine noise only inflates it).
    if options.check {
        let mut failed = rows.is_empty();
        if failed {
            eprintln!("spill check: no points measured");
        }
        if !rows.is_empty() && !rows.iter().any(|r| r.exhausted_without_spill) {
            eprintln!(
                "spill check: no budget in the sweep exhausted the spill-less executor — \
                 the sweep no longer exercises the rescued query class"
            );
            failed = true;
        }
        for row in &rows {
            if row.exhausted_without_spill && row.spilled_bytes == 0 {
                eprintln!(
                    "spill check: {} budget={} completed where spill-less exhausted, \
                     yet wrote no spill bytes",
                    row.label, row.budget
                );
                failed = true;
            }
            // The slowdown bound is multiplicative once the query is big
            // enough to amortize the fixed partition-file setup; a
            // sub-25ms spilled run passes outright (creating dozens of
            // partition files costs more than a millisecond-scale query).
            if row.best_pair_ratio > 5.0 && row.ms_spill > 25.0 {
                eprintln!(
                    "spill check: {} budget={} paid more than 5x for spilling in every \
                     pair (best ratio {:.2}, min {:.1}ms vs {:.1}ms)",
                    row.label, row.budget, row.best_pair_ratio, row.ms_unbudgeted, row.ms_spill
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "spill check passed: all {} points bag-equal to the unbudgeted reference, \
             budgets that exhausted the spill-less executor completed via spill, and \
             spilling stayed within 5x of the unbudgeted run (best pairwise ratio)",
            rows.len()
        );
    }
}

fn obs(options: &Options, config: &BenchConfig) {
    println!(
        "== Observability overhead — per-operator EXPLAIN ANALYZE profiling armed vs absent, \
         on the Fig. 7 workload (Gen rewrite, {} synthetic rows) ==\n",
        options.max_rows
    );
    let rows = measure_obs(options.max_rows, config);
    println!(
        "{:<24} {:>14} {:>12} {:>10} {:>7} {:>12} {:>10}",
        "workload", "profiled [ms]", "plain [ms]", "overhead", "nodes", "invocations", "rows"
    );
    for row in &rows {
        println!(
            "{:<24} {:>14.1} {:>12.1} {:>9.1}% {:>7} {:>12} {:>10}",
            row.label,
            row.ms_profiled,
            row.ms_plain,
            row.overhead_pct(),
            row.profile_nodes,
            row.total_invocations,
            row.result_rows
        );
    }
    println!();
    write_json("obs", &obs_to_json("obs", &rows));

    // Serving-metrics smoke: a tiny batch through the concurrent engine,
    // then the registry snapshot exported as Prometheus text and checked
    // line by line. Runs unconditionally (the export must never emit a
    // malformed line), but only `--check` turns a violation into a
    // non-zero exit.
    let prometheus_errors = prometheus_smoke(config);
    match &prometheus_errors {
        errors if errors.is_empty() => {
            println!("prometheus export: clean line format");
        }
        errors => {
            for error in errors {
                eprintln!("prometheus export: {error}");
            }
        }
    }

    // `--check` is the CI gate of the observability layer. Correctness is
    // unconditional (profiled and unprofiled results bag-equal, per-node
    // invocation sums equal to the executor's `operators_evaluated` delta —
    // asserted inside `measure_obs`, a divergence panics). The wall-time
    // gate bounds the armed profile probes at 5% using the best pairwise
    // ratio over the order-alternated pairs, as in `robust --check`: one
    // quiet pair shows the probes are cheap, while true overhead is slower
    // in every pair. The metrics gate requires a clean Prometheus export.
    if options.check {
        let mut failed = rows.is_empty();
        if failed {
            eprintln!("obs check: no points completed within the time budget");
        }
        for row in &rows {
            if row.best_pair_ratio > 1.05 {
                eprintln!(
                    "obs check: {} paid more than 5% for the armed profile probes in \
                     every pair (best ratio {:.3}, min {:.1}ms vs {:.1}ms)",
                    row.label, row.best_pair_ratio, row.ms_profiled, row.ms_plain
                );
                failed = true;
            }
            if row.profile_nodes == 0 || row.total_invocations == 0 {
                eprintln!("obs check: {} produced an empty profile", row.label);
                failed = true;
            }
        }
        if !prometheus_errors.is_empty() {
            eprintln!(
                "obs check: the serving metrics export violated the Prometheus line \
                 format ({} lines)",
                prometheus_errors.len()
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "obs check passed: armed EXPLAIN ANALYZE probes within 5% of the plain run \
             at all {} points (best pairwise ratio <= 1.05), invocation sums equal to \
             operators_evaluated, and the serving metrics exported in clean Prometheus \
             line format",
            rows.len()
        );
    }
}

/// Serves a small batch through a [`perm_serve::ConcurrentEngine`], exports
/// the metrics registry as Prometheus text and returns the line-format
/// violations (plus any missing metric family), empty when clean.
fn prometheus_smoke(config: &BenchConfig) -> Vec<String> {
    use perm::{Engine, Value};
    use perm_serve::{ConcurrentEngine, Request};

    let db = perm_bench::synthetic_database(60, 30, config.seed);
    let sql = "SELECT PROVENANCE a, b FROM r1 \
               WHERE EXISTS (SELECT * FROM r2 WHERE r2.g = r1.g AND r2.b > $1)";
    let batch: Vec<Request> = (0..4)
        .map(|i| Request::sql(sql, vec![Value::Int(i * 100)]))
        .collect();
    let engine = ConcurrentEngine::new(Engine::new(db)).with_workers(2);
    for (i, result) in engine.serve(&batch).iter().enumerate() {
        if let Err(e) = result {
            return vec![format!("smoke request {i} failed: {e}")];
        }
    }
    let text = engine.metrics().prometheus_text();
    let mut errors = prometheus_format_errors(&text);
    for family in [
        "perm_requests_served_total",
        "perm_execution_micros_bucket",
        "perm_queue_wait_micros_count",
        "perm_plan_cache_hit_rate",
    ] {
        if !text.contains(family) {
            errors.push(format!("metric family {family} missing from the export"));
        }
    }
    errors
}

fn serve(options: &Options, config: &BenchConfig) {
    println!(
        "== Serving — prepared vs one-shot execution of a parameterized correlated \
         provenance query ({} rows, {} executions) ==\n",
        options.rows, options.execs
    );
    let comparison = measure_serve(options.rows, options.execs, config);
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "path", "total [ms]", "per exec [ms]", "compiles"
    );
    println!(
        "{:<10} {:>12.1} {:>14.2} {:>10}",
        "prepared",
        comparison.ms_prepared_total + comparison.ms_prepare,
        comparison.ms_prepared_per_exec(),
        comparison.prepared_compiles
    );
    println!(
        "{:<10} {:>12.1} {:>14.2} {:>10}",
        "one-shot",
        comparison.ms_oneshot_total,
        comparison.ms_oneshot_per_exec(),
        comparison.oneshot_compiles
    );
    println!("speedup: {:.1}x amortized\n", comparison.speedup());
    write_json("serve", &serve_to_json(&comparison));

    // `--check` is the CI smoke gate for the serving redesign: prepared
    // re-execution (including its share of the one-time prepare) must be
    // strictly cheaper than the one-shot pipeline, and must have compiled
    // exactly once.
    if options.check {
        let mut failed = false;
        if comparison.prepared_compiles != 1 {
            eprintln!(
                "serve check: prepared path compiled {} times, expected 1",
                comparison.prepared_compiles
            );
            failed = true;
        }
        if comparison.ms_prepared_total + comparison.ms_prepare >= comparison.ms_oneshot_total {
            eprintln!(
                "serve check: prepared path ({:.1}ms incl. prepare) is not cheaper than \
                 one-shot ({:.1}ms)",
                comparison.ms_prepared_total + comparison.ms_prepare,
                comparison.ms_oneshot_total
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "serve check passed: {} prepared executions (1 compile) ran {:.1}x faster than \
             the one-shot pipeline",
            comparison.executions,
            comparison.speedup()
        );
    }
}

fn concurrent(options: &Options, config: &BenchConfig) {
    println!(
        "== Concurrent serving — the correlated Fig. 7 provenance workload on a shared-engine \
         worker pool ({} rows, {} requests) ==\n",
        options.rows, options.execs
    );
    let comparison = measure_concurrent(options.rows, options.execs, config);
    println!("{:<8} {:>12} {:>14}", "workers", "total [ms]", "requests/s");
    for point in &comparison.throughput {
        println!(
            "{:<8} {:>12.1} {:>14.1}",
            point.workers, point.total_ms, point.requests_per_sec
        );
    }
    println!();
    println!("cold single query (parallel sublink evaluation):");
    println!("{:<8} {:>12}", "workers", "ms");
    for point in &comparison.single_query {
        println!("{:<8} {:>12.2}", point.workers, point.ms);
    }
    println!();
    write_json("concurrent", &concurrent_to_json(&comparison));

    // `--check` is the CI gate of the concurrent serving subsystem. Result
    // correctness is unconditional: `measure_concurrent` has already
    // asserted every pooled result bag-equal to the single-threaded
    // reference (a divergence panics, which exits non-zero). The *scaling*
    // gate — 4-worker throughput strictly above 1-worker — needs hardware
    // parallelism to be physically satisfiable, so like `memo --check`'s
    // tiny-scale rule it only applies where it can hold: on ≥2 cores.
    if options.check {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let one = comparison.throughput_at(1).unwrap_or(0.0);
        let four = comparison.throughput_at(4).unwrap_or(0.0);
        if cores < 2 {
            println!(
                "concurrent check: results verified against the single-threaded reference; \
                 scaling gate skipped ({cores} core — 4 workers cannot outrun 1 without \
                 hardware parallelism)"
            );
            return;
        }
        if four <= one {
            eprintln!(
                "concurrent check: 4-worker throughput ({four:.1} req/s) is not above \
                 1-worker throughput ({one:.1} req/s) on {cores} cores"
            );
            std::process::exit(1);
        }
        println!(
            "concurrent check passed: {:.1} req/s at 4 workers vs {:.1} req/s at 1 \
             ({:.2}x, {} cores), results identical to the single-threaded reference",
            four,
            one,
            four / one.max(1e-9),
            cores
        );
    }
}

fn ablation(options: &Options, config: &BenchConfig) {
    println!(
        "== Ablation — rewritten-plan structure vs. run time ({} rows) ==\n",
        options.rows
    );
    let rows = measure_ablation(options.rows, config);
    println!(
        "{:<6} {:<8} {:>10} {:>10} {:>12}",
        "query", "strategy", "operators", "sublinks", "time [ms]"
    );
    for row in rows {
        println!(
            "{:<6} {:<8} {:>10} {:>10} {:>12}",
            row.label,
            row.strategy.name(),
            row.operators,
            row.sublinks,
            row.measurement.cell()
        );
    }
}

fn print_usage() {
    println!(
        "usage: harness <fig6|fig7|fig8|fig9|memo|opt|robust|spill|obs|serve|concurrent|ablation|all> \
         [--scale xs|s|m|l] [--runs N] [--timeout SECS] [--seed N] [--max-rows N] [--rows N] \
         [--execs N] [--check]"
    );
    println!(
        "  --check (memo): exit non-zero unless the memoized path evaluates strictly \
         fewer operators than the unmemoized path at every point"
    );
    println!(
        "  --check (opt): exit non-zero unless the decorrelating optimizer evaluates \
         strictly fewer operators than the memo-only baseline at every point with more \
         outer rows than the correlation groups (and decorrelates every point)"
    );
    println!(
        "  --check (robust): exit non-zero unless the armed cancel+budget machinery stays \
         within 5% of the unguarded run and an injected mid-query cancel returns without \
         reaching another checkpoint"
    );
    println!(
        "  --check (spill): exit non-zero unless at least one swept budget exhausts the \
         spill-less executor while the spill-enabled one completes bag-equal to the \
         unbudgeted reference within a 5x slowdown"
    );
    println!(
        "  --check (obs): exit non-zero unless the armed EXPLAIN ANALYZE probes stay \
         within 5% of the plain run and the serving metrics export in clean Prometheus \
         line format (invocation sums always verified against operators_evaluated)"
    );
    println!(
        "  --check (serve): exit non-zero unless prepared re-execution is strictly cheaper \
         than the one-shot pipeline and compiled exactly once"
    );
    println!(
        "  --check (concurrent): exit non-zero unless 4-worker throughput beats 1-worker \
         on >=2 cores (results are always verified against the single-threaded reference)"
    );
    println!("  --execs (serve/concurrent): number of executions / requests (default 25)");
}
