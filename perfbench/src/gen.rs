//! Seeded workload inputs.
//!
//! Rule programs and databases come from the `park_workloads` generators;
//! only the random DAG of `serve_graph` and the op streams are new here.
//! Every op stream is a pure function of `(seed, op count)`: ops are drawn
//! in blocks of ten with a fixed kind mix, shuffled per block, so the mix
//! is exact at every op count that is a multiple of ten.

use park_json::Json;
use park_workloads::{
    erdos_renyi_edges, payroll_database, payroll_program, staggered_conflicts,
    transitive_closure_program, PayrollConfig,
};

/// Nodes of the `run_closure` Erdős–Rényi graph (`park workload closure --n 128`).
const CLOSURE_NODES: usize = 128;
/// Edge probability of the `run_closure` graph.
const CLOSURE_P: f64 = 0.1;
/// Seed of the `run_closure` graph: the default of `park workload closure`,
/// so the graph is the reference instance. The graph's diameter sets the
/// number of Γ steps (4 or 5 at this size), which moves a run's time by a
/// third, so the graph stays fixed and the benchmark seed draws the queries.
const CLOSURE_GRAPH_SEED: u64 = 42;
/// Chains of the `run_chains` staggered-conflict program.
pub const CHAINS_K: usize = 32;
/// Nodes of the initial `serve_graph` DAG.
const GRAPH_NODES: usize = 500;
/// Seed of the initial `serve_graph` DAG. Its closure size varies by half
/// between seeds, so the DAG stays fixed and the benchmark seed draws the
/// op stream.
const GRAPH_DAG_SEED: u64 = 42;
/// Employees in the initial `serve_hr` database.
const HR_EMPLOYEES: usize = 2_500;

/// `park run` invocations (each followed by one `park query`) per 20 s of
/// `--seconds` on the `run_*` workloads.
const RUNS_PER_20S: usize = 100;
/// Requests per 20 s of `--seconds` on `serve_graph`, whose state grows
/// with every insert.
const GRAPH_OPS_PER_20S: usize = 1_500;
/// Requests per 20 s of `--seconds` on `serve_hr`.
const HR_OPS_PER_20S: usize = 1_500;

/// splitmix64: small, seedable, and stable across toolchains, so a seed
/// names the same inputs forever.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_9A2C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One `park run` process per transaction, one `park query` per read.
    Run,
    /// One resident `park serve` process, requests in a closed loop.
    Serve,
}

/// One operation of a workload's op stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// One `park run` process over the workload's program and database.
    Run,
    /// One `park query` process over the last run's output.
    CliQuery { query: String, node: usize },
    /// One `transact` request.
    Tx {
        updates: String,
        delete: bool,
        /// `serve_graph`: the edge inserted or deleted.
        edge: Option<(usize, usize)>,
    },
    /// One `query` request.
    Query { query: String, node: usize },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Run | Op::Tx { .. })
    }

    /// The request line a serve client sends for this op.
    pub fn request(&self, db: &str) -> String {
        match self {
            Op::Tx { updates, .. } => Json::object([
                ("op", Json::str("transact")),
                ("db", Json::str(db)),
                ("updates", Json::str(updates)),
            ])
            .to_compact(),
            Op::Query { query, .. } => Json::object([
                ("op", Json::str("query")),
                ("db", Json::str(db)),
                ("query", Json::str(query)),
            ])
            .to_compact(),
            Op::Run | Op::CliQuery { .. } => unreachable!("not a serve request"),
        }
    }
}

/// A workload instance: its inputs and its op stream.
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub program: String,
    pub facts: String,
    /// `create` with `"incremental": true`.
    pub incremental: bool,
    pub ops: Vec<Op>,
}

/// The serve database name used by every session.
pub const DB: &str = "w";

impl Workload {
    /// The `create` request that loads this workload into `park serve`.
    pub fn create_request(&self) -> String {
        let mut members = vec![
            ("op", Json::str("create")),
            ("db", Json::str(DB)),
            ("program", Json::str(&self.program)),
            ("facts", Json::str(&self.facts)),
        ];
        if self.incremental {
            members.push(("incremental", Json::Bool(true)));
        }
        Json::object(members).to_compact()
    }

    pub fn settle_request() -> String {
        Json::object([("op", Json::str("settle")), ("db", Json::str(DB))]).to_compact()
    }
}

pub const NAMES: [&str; 4] = ["run_closure", "run_chains", "serve_graph", "serve_hr"];

/// Build workload `name` for `seed`, with its op stream sized for
/// `seconds` of measurement on the reference host.
pub fn workload(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let scale = |per_20s: usize| (per_20s * seconds as usize).div_ceil(20).max(1);
    Some(match name {
        "run_closure" => run_closure(seed, scale(RUNS_PER_20S), CLOSURE_NODES, CLOSURE_GRAPH_SEED),
        "run_chains" => run_chains(seed, scale(RUNS_PER_20S), CHAINS_K),
        "serve_graph" => serve_graph(seed, scale(GRAPH_OPS_PER_20S), GRAPH_NODES, GRAPH_DAG_SEED),
        "serve_hr" => serve_hr(seed, scale(HR_OPS_PER_20S), HR_EMPLOYEES),
        _ => return None,
    })
}

/// `park run` on transitive closure over
/// `erdos_renyi_edges(n, 0.1, graph_seed)`; each run is followed by one
/// `?- tc(X, nK).` over its output, `K` drawn from `seed`.
pub fn run_closure(seed: u64, runs: usize, n: usize, graph_seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(2 * runs);
    for _ in 0..runs {
        let node = rng.below(n);
        ops.push(Op::Run);
        ops.push(Op::CliQuery {
            query: format!("?- tc(X, n{node})."),
            node,
        });
    }
    Workload {
        name: "run_closure",
        family: Family::Run,
        program: transitive_closure_program(),
        facts: erdos_renyi_edges(n, CLOSURE_P, graph_seed),
        incremental: false,
        ops,
    }
}

/// `park run` on `staggered_conflicts(k)`; each run is followed by one
/// `?- linkI_J.` over its output (chain `I`, link `J ≤ I`).
pub fn run_chains(seed: u64, runs: usize, k: usize) -> Workload {
    let mut rng = Rng::new(seed);
    let (program, facts) = staggered_conflicts(k);
    let mut ops = Vec::with_capacity(2 * runs);
    for _ in 0..runs {
        let chain = rng.below(k);
        let link = rng.below(chain + 1);
        ops.push(Op::Run);
        ops.push(Op::CliQuery {
            query: format!("?- link{chain}_{link}."),
            node: chain,
        });
    }
    Workload {
        name: "run_chains",
        family: Family::Run,
        program,
        facts,
        incremental: false,
        ops,
    }
}

/// A seeded random DAG: node `i ≥ 1` links to one or two distinct earlier
/// nodes, chosen uniformly. Edges point from parent to child.
fn dag_edges(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for child in 1..n {
        let first = rng.below(child);
        edges.push((first, child));
        if child >= 2 && rng.below(2) == 1 {
            let second = rng.below(child);
            if second != first {
                edges.push((second, child));
            }
        }
    }
    edges
}

fn edge_facts(edges: &[(usize, usize)]) -> String {
    edges
        .iter()
        .map(|(a, b)| format!("edge(n{a}, n{b}).\n"))
        .collect()
}

/// Incremental `park serve` on ancestor closure over a seeded DAG of `n`
/// nodes. Per block of ten ops: seven inserts attaching a fresh node under
/// a random node of the initial DAG, one deletion of a random existing
/// edge, two `?- tc(X, nK).` queries. Attaching under initial nodes only
/// keeps the growth of the closure a sum of independent draws, so it is
/// nearly the same for every seed.
pub fn serve_graph(seed: u64, ops: usize, n: usize, dag_seed: u64) -> Workload {
    let mut edges = dag_edges(&mut Rng::new(dag_seed), n);
    let mut rng = Rng::new(seed);
    let facts = edge_facts(&edges);
    let mut nodes = n;
    let mut stream = Vec::with_capacity(ops);
    let mut block = Vec::new();
    while stream.len() < ops {
        if block.is_empty() {
            block = vec![0u8, 0, 0, 0, 0, 0, 0, 1, 2, 2];
            rng.shuffle(&mut block);
        }
        stream.push(match block.pop().expect("refilled above") {
            0 => {
                let parent = rng.below(n);
                let child = nodes;
                nodes += 1;
                edges.push((parent, child));
                Op::Tx {
                    updates: format!("+edge(n{parent}, n{child})."),
                    delete: false,
                    edge: Some((parent, child)),
                }
            }
            1 => {
                let (a, b) = edges.swap_remove(rng.below(edges.len()));
                Op::Tx {
                    updates: format!("-edge(n{a}, n{b})."),
                    delete: true,
                    edge: Some((a, b)),
                }
            }
            _ => {
                let node = rng.below(nodes);
                Op::Query {
                    query: format!("?- tc(X, n{node})."),
                    node,
                }
            }
        });
    }
    Workload {
        name: "serve_graph",
        family: Family::Serve,
        program: transitive_closure_program(),
        facts,
        incremental: true,
        ops: stream,
    }
}

/// Plain `park serve` on the payroll program over `employees` staff. Per
/// block of ten ops: three deactivations of an active employee, three new
/// active and eligible hires, two compliance flags, and two reads of the
/// flagged staff's payroll, `?- payroll(X, S), flagged(X).` (a point query
/// takes 0.1 ms, mostly the pipe, and its time is scheduling noise).
pub fn serve_hr(seed: u64, ops: usize, employees: usize) -> Workload {
    let mut rng = Rng::new(seed);
    let (facts, _) = payroll_database(&PayrollConfig {
        employees,
        seed,
        ..PayrollConfig::default()
    });
    let mut active: Vec<usize> = facts
        .lines()
        .filter_map(|l| l.strip_prefix("active(e")?.strip_suffix(").")?.parse().ok())
        .collect();
    let mut staff = employees;
    let mut stream = Vec::with_capacity(ops);
    let mut block = Vec::new();
    while stream.len() < ops {
        if block.is_empty() {
            block = vec![0u8, 0, 0, 1, 1, 1, 2, 2, 3, 3];
            rng.shuffle(&mut block);
        }
        stream.push(match block.pop().expect("refilled above") {
            0 if !active.is_empty() => {
                let who = active.swap_remove(rng.below(active.len()));
                Op::Tx {
                    updates: format!("-active(e{who})."),
                    delete: true,
                    edge: None,
                }
            }
            0 | 1 => {
                let who = staff;
                staff += 1;
                active.push(who);
                let salary = 30_000 + 100 * rng.below(500);
                Op::Tx {
                    updates: format!(
                        "+emp(e{who}). +active(e{who}). +eligible(e{who}). +payroll(e{who}, {salary})."
                    ),
                    delete: false,
                    edge: None,
                }
            }
            2 => Op::Tx {
                updates: format!("+flagged(e{}).", rng.below(staff)),
                delete: false,
                edge: None,
            },
            _ => Op::Query {
                query: "?- payroll(X, S), flagged(X).".to_string(),
                node: 0,
            },
        });
    }
    Workload {
        name: "serve_hr",
        family: Family::Serve,
        program: payroll_program(),
        facts,
        incremental: false,
        ops: stream,
    }
}
