//! The benchmark's workloads: which database each one builds, and which
//! query each position of its closed-loop query list holds. The engine only
//! ever sees the generated database and SQL; the seed stays in the
//! benchmark.

use perm::synthetic::{build_database, random_range};
use perm::tpch::{generate, sublink_queries, TpchScale};
use perm::{Database, Value};

/// TPC-H scale of both TPC-H workloads: 919 tuples, the generator's row
/// minimums. At the next named scale (`xs`) single Gen draws of Q4 and Q20
/// exceed 15 s, which leaves too few queries per run to measure.
pub const TPCH_SCALE: f64 = 0.0001;

/// Seed of the TPC-H database, the same for every run, as `dbgen` gives one
/// database per scale factor.
pub const TPCH_DATA_SEED: u64 = 1;

/// Parameter draws per TPC-H template in the workloads' fixed query set.
///
/// The set is fixed because the cost of one Gen draw depends on its
/// parameters and data far more than on the engine: one Q20 draw takes
/// 0.7 s, 3 s or 7 s depending on color and year, one Q4 draw 1.5–5 s. With
/// seed-dependent draws, the four or so draws of each template that fit in
/// a run would make the throughput of two seeds differ by more than any
/// bound worth having. The workload seed orders each cycle of the set.
pub const TPCH_DRAWS_PER_TEMPLATE: u64 = 4;

/// Rows of `r1` and `r2` in `synth-gen` (one Fig. 7 point).
pub const SYNTH_R1_ROWS: usize = 1000;
/// See [`SYNTH_R1_ROWS`].
pub const SYNTH_R2_ROWS: usize = 200;

/// Seed of the `synth-gen` database, the same for every run.
pub const SYNTH_DATA_SEED: u64 = 1;

/// Range draws per synthetic statement in `synth-gen`'s fixed set.
///
/// The set is fixed for the reason the TPC-H set is: one execution of q2 or
/// q3 takes 150–550 ms depending on its ranges, so the sixty or so
/// executions of a run drawn afresh under each seed make the throughput of
/// two seeds differ by 10% and more. The workload seed orders each cycle
/// of the set; each cycle runs on freshly prepared statements, so an
/// execution finds the same retained memos in every cycle.
pub const SYNTH_DRAWS_PER_STATEMENT: u64 = 10;

/// The three synthetic statements of `synth-gen`, as SQL with `$n` range
/// parameters mirroring `perm_synthetic::build_query`: q1 (`= ANY`), q2
/// (`< ALL`) and q3 (correlated `EXISTS` on the group attribute `g`).
pub const SYNTH_STATEMENTS: [(&str, &str); 3] = [
    (
        "q1",
        "SELECT r1.a, r1.b, r1.g FROM r1 WHERE r1.b BETWEEN $1 AND $2 \
         AND r1.a = ANY (SELECT r2.a FROM r2 WHERE r2.b BETWEEN $3 AND $4)",
    ),
    (
        "q2",
        "SELECT r1.a, r1.b, r1.g FROM r1 WHERE r1.b BETWEEN $1 AND $2 \
         AND r1.a < ALL (SELECT r2.a FROM r2 WHERE r2.b BETWEEN $3 AND $4)",
    ),
    (
        "q3",
        "SELECT r1.a, r1.b, r1.g FROM r1 WHERE EXISTS \
         (SELECT r2.a FROM r2 WHERE r2.b BETWEEN $1 AND $2 AND r2.g = r1.g)",
    ),
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The TPC-H sublink queries as ad-hoc provenance queries (Fig. 6).
    TpchProv,
    /// The same query list without provenance: the overhead baseline.
    TpchPlain,
    /// The synthetic q1/q2/q3 statements, prepared once per cycle under Gen
    /// and re-executed with fresh range parameters (Figs. 7–9).
    SynthGen,
}

impl Workload {
    /// Parses a workload name as the command line spells it.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "tpch-prov" => Some(Workload::TpchProv),
            "tpch-plain" => Some(Workload::TpchPlain),
            "synth-gen" => Some(Workload::SynthGen),
            _ => None,
        }
    }

    /// Number of query shapes.
    pub fn shapes(self) -> u64 {
        match self {
            Workload::TpchProv | Workload::TpchPlain => sublink_queries().len() as u64,
            Workload::SynthGen => SYNTH_STATEMENTS.len() as u64,
        }
    }

    /// Positions in one cycle of the query list, the workload's fixed
    /// query set. A run measures whole cycles.
    pub fn cycle(self) -> u64 {
        match self {
            Workload::TpchProv | Workload::TpchPlain => self.shapes() * TPCH_DRAWS_PER_TEMPLATE,
            Workload::SynthGen => self.shapes() * SYNTH_DRAWS_PER_STATEMENT,
        }
    }

    /// Builds the workload's database: the same one for every run, as
    /// `dbgen` gives one database per scale factor.
    pub fn database(self) -> Database {
        match self {
            Workload::TpchProv | Workload::TpchPlain => {
                generate(TpchScale::new(TPCH_SCALE), TPCH_DATA_SEED)
            }
            Workload::SynthGen => build_database(SYNTH_R1_ROWS, SYNTH_R2_ROWS, SYNTH_DATA_SEED),
        }
    }

    /// The query at position `index` of the workload's query list for
    /// `seed`; equal seeds give equal lists. A list runs the workload's
    /// fixed query set ([`TPCH_DRAWS_PER_TEMPLATE`],
    /// [`SYNTH_DRAWS_PER_STATEMENT`]) cycle after cycle, each cycle in its
    /// own seed-drawn order.
    pub fn query(self, seed: u64, index: u64) -> QuerySpec {
        let order = permutation(self.cycle(), mix(seed, index / self.cycle()));
        let entry = order[(index % self.cycle()) as usize];
        match self {
            Workload::TpchProv | Workload::TpchPlain => {
                let template = sublink_queries()[(entry % self.shapes()) as usize];
                let draw = mix(TPCH_DATA_SEED, entry);
                QuerySpec {
                    index,
                    shape: format!("Q{}", template.id),
                    draw,
                    query: Query::Adhoc(template.instantiate(draw)),
                }
            }
            Workload::SynthGen => {
                let shape = (entry % self.shapes()) as usize;
                let draw = mix(SYNTH_DATA_SEED, entry);
                let range = random_range(SYNTH_R1_ROWS, SYNTH_R2_ROWS, draw);
                let params = if shape == 2 {
                    vec![Value::Int(range.r2_low), Value::Int(range.r2_high)]
                } else {
                    vec![
                        Value::Int(range.r1_low),
                        Value::Int(range.r1_high),
                        Value::Int(range.r2_low),
                        Value::Int(range.r2_high),
                    ]
                };
                QuerySpec {
                    index,
                    shape: SYNTH_STATEMENTS[shape].0.to_string(),
                    draw,
                    query: Query::Prepared {
                        statement: shape,
                        params,
                    },
                }
            }
        }
    }
}

/// One position of a workload's query list.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Position in the list.
    pub index: u64,
    /// Query shape (TPC-H template or synthetic statement name).
    pub shape: String,
    /// The parameter draw of this position.
    pub draw: u64,
    /// What to run.
    pub query: Query,
}

/// The work of one query-list position.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A SQL text prepared and executed ad hoc.
    Adhoc(String),
    /// An execution of the `statement`-th entry of [`SYNTH_STATEMENTS`],
    /// prepared once per cycle, with these parameters.
    Prepared {
        /// Index into [`SYNTH_STATEMENTS`].
        statement: usize,
        /// `$n` bindings.
        params: Vec<Value>,
    },
}

/// A seed-drawn order of `0..n` (Fisher–Yates driven by [`mix`]).
fn permutation(n: u64, seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// SplitMix64 over the pair: the draw seed of list position `index`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [Workload::TpchProv, Workload::TpchPlain, Workload::SynthGen];

    fn list_range(workload: Workload, seed: u64, start: usize, len: usize) -> Vec<QuerySpec> {
        (start..start + len)
            .map(|i| workload.query(seed, i as u64))
            .collect()
    }

    fn list(workload: Workload, seed: u64) -> Vec<QuerySpec> {
        list_range(workload, seed, 0, 100)
    }

    #[test]
    fn a_seed_always_yields_the_same_query_list() {
        for workload in ALL {
            assert_eq!(list(workload, 7), list(workload, 7), "{workload:?}");
            assert_ne!(list(workload, 7), list(workload, 8), "{workload:?}");
        }
    }

    #[test]
    fn every_run_gets_the_same_database() {
        for workload in ALL {
            let (a, b) = (workload.database(), workload.database());
            for table in a.table_names() {
                let (ra, rb) = (a.table(&table).unwrap(), b.table(&table).unwrap());
                assert!(ra.bag_eq(rb), "{workload:?} table {table}");
            }
        }
    }

    /// The sorted queries of cycle `c` of `workload`'s list for `seed`.
    fn cycle_set(workload: Workload, seed: u64, c: usize) -> Vec<String> {
        let cycle = workload.cycle() as usize;
        let mut texts: Vec<String> = list_range(workload, seed, c * cycle, cycle)
            .into_iter()
            .map(|q| format!("{} {:?}", q.shape, q.query))
            .collect();
        texts.sort();
        texts
    }

    #[test]
    fn lists_run_the_fixed_set_once_per_cycle_in_seed_order() {
        for workload in ALL {
            let set = |seed, c| cycle_set(workload, seed, c);
            assert_eq!(set(1, 0), set(1, 1), "{workload:?}");
            assert_eq!(set(1, 0), set(2, 0), "{workload:?}");
            let draws: std::collections::HashSet<(String, u64)> =
                list_range(workload, 1, 0, workload.cycle() as usize)
                    .into_iter()
                    .map(|q| (q.shape, q.draw))
                    .collect();
            assert_eq!(draws.len() as u64, workload.cycle(), "{workload:?}");
        }
        for template in sublink_queries() {
            let shape = format!("Q{}", template.id);
            let count = cycle_set(Workload::TpchProv, 1, 0)
                .iter()
                .filter(|t| t.starts_with(&format!("{shape} ")))
                .count();
            assert_eq!(count as u64, TPCH_DRAWS_PER_TEMPLATE, "{shape}");
        }
        let cycle = Workload::TpchProv.cycle() as usize;
        assert_eq!(
            list_range(Workload::TpchProv, 5, 0, 2 * cycle),
            list_range(Workload::TpchPlain, 5, 0, 2 * cycle)
        );
        assert_ne!(
            list_range(Workload::TpchProv, 5, 0, cycle),
            list_range(Workload::TpchProv, 5, cycle, cycle)
                .into_iter()
                .map(|q| QuerySpec {
                    index: q.index - cycle as u64,
                    ..q
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_synthetic_cycle_draws_each_statement_equally_often() {
        for (name, _) in SYNTH_STATEMENTS {
            let count = cycle_set(Workload::SynthGen, 5, 0)
                .iter()
                .filter(|t| t.starts_with(&format!("{name} ")))
                .count();
            assert_eq!(count as u64, SYNTH_DRAWS_PER_STATEMENT, "{name}");
        }
    }
}
