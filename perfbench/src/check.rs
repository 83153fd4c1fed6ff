//! Independent output checks.
//!
//! The reference never comes from the path under test: closures are
//! computed here by breadth-first search, the chains answer is closed-form,
//! and down-scaled instances of every workload are compared against the
//! `park-testkit` oracle, a paper-literal brute-force evaluator.

use crate::client::{self, Serve};
use crate::gen::{self, Family, Op, Workload};
use park_engine::{CompiledProgram, Inertia, ResolutionScope};
use park_storage::{FactStore, UpdateSet, Vocabulary};
use park_testkit::{oracle_evaluate, OracleVariant};
use std::collections::{BTreeSet, VecDeque};
use std::path::Path;

/// Parse the `edge(nA, nB).` lines this benchmark generated.
fn parse_edges(facts: &str) -> Vec<(usize, usize)> {
    facts
        .lines()
        .filter_map(|l| {
            let (a, b) = l
                .strip_prefix("edge(n")?
                .strip_suffix(").")?
                .split_once(", n")?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

/// Nodes with a path of length ≥ 1 to `target`.
fn ancestors(edges: &[(usize, usize)], nodes: usize, target: usize) -> Vec<usize> {
    let mut parents = vec![Vec::new(); nodes];
    for &(a, b) in edges {
        parents[b].push(a);
    }
    let mut seen = vec![false; nodes];
    let mut queue: VecDeque<usize> = parents[target].iter().copied().collect();
    while let Some(x) = queue.pop_front() {
        if !std::mem::replace(&mut seen[x], true) {
            queue.extend(parents[x].iter().copied());
        }
    }
    (0..nodes).filter(|&x| seen[x]).collect()
}

/// `park run` prints the result database one fact per line.
fn as_output(facts: &[String]) -> String {
    if facts.is_empty() {
        return "\n".to_string();
    }
    let mut out = facts.join(".\n");
    out.push_str(".\n");
    out
}

/// The reference `park run` output of a `run_*` workload.
pub fn run_output(w: &Workload) -> String {
    as_output(&if w.name == "run_chains" {
        chains_facts(gen::CHAINS_K)
    } else {
        GraphModel::new(&w.facts).facts()
    })
}

/// The reference rows of a `run_*` workload's query: the ancestors of
/// `node` on `run_closure` (`model`), `true` on `run_chains`.
pub fn run_query_rows(model: Option<&GraphModel>, node: usize) -> Vec<String> {
    match model {
        Some(m) => m.query_rows(node),
        None => vec!["true".to_string()],
    }
}

/// The closed-form result of `staggered_conflicts(k)` under inertia: every
/// `seed_i` grounding is blocked (`goal_i` is not in `D`, so the deletion
/// wins), no `goal_i` survives, every link of every chain does.
fn chains_facts(k: usize) -> Vec<String> {
    let mut facts = vec!["start".to_string()];
    for i in 0..k {
        for j in 0..=i {
            facts.push(format!("link{i}_{j}"));
        }
    }
    facts.sort();
    facts
}

/// Check `park run --stats` output for the chains closed form: `k`
/// restarts, `k` blocked groundings, all of them `seed_i`.
pub fn chains_stats_ok(stderr: &str, k: usize) -> bool {
    let restarts = stderr
        .split_whitespace()
        .find_map(|w| w.strip_prefix("restarts="))
        .and_then(|v| v.parse::<usize>().ok());
    let blocked: BTreeSet<&str> = stderr
        .lines()
        .find_map(|l| l.strip_prefix("blocked: "))
        .map(|l| l.split(", ").collect())
        .unwrap_or_default();
    let want: BTreeSet<String> = (0..k).map(|i| format!("(seed{i})")).collect();
    restarts == Some(k) && blocked.len() == k && want.iter().all(|s| blocked.contains(s.as_str()))
}

/// Rows of a conjunctive query of positive atoms, such as
/// `?- payroll(X, S), flagged(X).`, over rendered facts: each row binds the
/// query's variables in order of first appearance and renders like the
/// engine's `X = e1, S = 30100` (`true` for a ground query); sorted.
pub fn query_rows(facts: &[String], query: &str) -> Vec<String> {
    let body = query
        .trim()
        .trim_start_matches("?-")
        .trim()
        .trim_end_matches('.');
    let atoms: Vec<(&str, Vec<&str>)> = body.split("), ").map(split_atom).collect();
    let facts: Vec<(&str, Vec<&str>)> = facts.iter().map(|f| split_atom(f)).collect();
    let mut vars: Vec<&str> = Vec::new();
    for arg in atoms.iter().flat_map(|(_, args)| args) {
        if is_var(arg) && !vars.contains(arg) {
            vars.push(arg);
        }
    }
    let mut rows = Vec::new();
    join(&atoms, &facts, &vars, &mut Vec::new(), &mut rows);
    rows.sort();
    rows.dedup();
    rows
}

fn is_var(arg: &str) -> bool {
    arg.starts_with(|c: char| c.is_ascii_uppercase())
}

fn join<'a>(
    atoms: &[(&str, Vec<&'a str>)],
    facts: &[(&str, Vec<&'a str>)],
    vars: &[&str],
    binding: &mut Vec<(&'a str, &'a str)>,
    rows: &mut Vec<String>,
) {
    let Some(((pred, args), rest)) = atoms.split_first() else {
        let row: Vec<String> = vars
            .iter()
            .filter_map(|v| binding.iter().find(|(b, _)| b == v))
            .map(|(v, val)| format!("{v} = {val}"))
            .collect();
        rows.push(if row.is_empty() {
            "true".to_string()
        } else {
            row.join(", ")
        });
        return;
    };
    for (p, vals) in facts {
        if p != pred || vals.len() != args.len() {
            continue;
        }
        let mark = binding.len();
        let fits = args.iter().zip(vals).all(|(arg, val)| {
            if !is_var(arg) {
                return arg == val;
            }
            match binding.iter().find(|(b, _)| b == arg) {
                Some((_, bound)) => bound == val,
                None => {
                    binding.push((arg, val));
                    true
                }
            }
        });
        if fits {
            join(rest, facts, vars, binding, rows);
        }
        binding.truncate(mark);
    }
}

/// `p(a, b)` (or `p(a, b` cut from a conjunction) into `("p", ["a", "b"])`.
fn split_atom(atom: &str) -> (&str, Vec<&str>) {
    match atom.split_once('(') {
        Some((p, rest)) => (p, rest.trim_end_matches(')').split(", ").collect()),
        None => (atom, Vec::new()),
    }
}

/// `park query` prints one row per line, or `(no answers)`.
pub fn cli_rows(stdout: &str) -> Vec<String> {
    let mut rows: Vec<String> = stdout
        .lines()
        .filter(|l| *l != "(no answers)")
        .map(str::to_string)
        .collect();
    rows.sort();
    rows
}

/// The rows of a `rows` frame, sorted.
pub fn frame_rows(frame: &park_json::Json) -> Option<Vec<String>> {
    let mut rows: Vec<String> = frame
        .get("rows")?
        .as_array()?
        .iter()
        .map(|r| r.as_str().map(str::to_string))
        .collect::<Option<_>>()?;
    rows.sort();
    Some(rows)
}

/// The reference state of the closure workloads: the edge set and, per
/// node, the `X` of every `tc(X, node)` fact.
///
/// The initial closure is a breadth-first search over the edges. After
/// that the model follows PARK's update semantics rather than a view's:
/// every `tc` fact a transaction derives is committed to the database, and
/// the program only ever inserts `tc`. Deleting an edge therefore removes
/// that edge alone, and an inserted edge `p -> c` adds `tc(x, z)` for every
/// `x` in `{p} ∪ tc(·, p)` and `z` in `{c} ∪ tc(c, ·)`.
pub struct GraphModel {
    pub edges: Vec<(usize, usize)>,
    ancestors: Vec<BTreeSet<usize>>,
}

impl GraphModel {
    pub fn new(facts: &str) -> GraphModel {
        let edges = parse_edges(facts);
        let nodes = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
        let ancestors = (0..nodes)
            .map(|b| ancestors(&edges, nodes, b).into_iter().collect())
            .collect();
        GraphModel { edges, ancestors }
    }

    /// Apply a `serve_graph` transaction.
    pub fn apply(&mut self, op: &Op) {
        let Op::Tx {
            edge: Some((p, c)),
            delete,
            ..
        } = op
        else {
            return;
        };
        let (p, c) = (*p, *c);
        if *delete {
            self.edges.retain(|e| *e != (p, c));
            return;
        }
        self.edges.push((p, c));
        let needed = p.max(c) + 1;
        if self.ancestors.len() < needed {
            self.ancestors.resize(needed, BTreeSet::new());
        }
        let mut sources = self.ancestors[p].clone();
        sources.insert(p);
        let targets: Vec<usize> = (0..self.ancestors.len())
            .filter(|&z| z == c || self.ancestors[z].contains(&c))
            .collect();
        for z in targets {
            self.ancestors[z].extend(sources.iter().copied());
        }
    }

    /// Rows of `?- tc(X, n<node>).`, sorted.
    pub fn query_rows(&self, node: usize) -> Vec<String> {
        let mut rows: Vec<String> = self
            .ancestors
            .get(node)
            .into_iter()
            .flatten()
            .map(|a| format!("X = n{a}"))
            .collect();
        rows.sort();
        rows
    }

    /// Every fact of the state, rendered and sorted.
    pub fn facts(&self) -> Vec<String> {
        let mut facts: Vec<String> = self
            .edges
            .iter()
            .map(|(a, b)| format!("edge(n{a}, n{b})"))
            .collect();
        for (b, xs) in self.ancestors.iter().enumerate() {
            facts.extend(xs.iter().map(|a| format!("tc(n{a}, n{b})")));
        }
        facts.sort();
        facts
    }
}

/// The `park-testkit` oracle over a chain of transactions: the committed
/// state after the initial settle and after every transaction, each
/// rendered and sorted.
fn oracle_states(program: &str, facts: &str, txs: &[&str]) -> Result<Vec<Vec<String>>, String> {
    let vocab = Vocabulary::new();
    let ast = park_syntax::parse_program(program).map_err(|e| e.to_string())?;
    let compiled = CompiledProgram::compile(vocab.clone(), &ast).map_err(|e| e.to_string())?;
    let mut state = FactStore::from_source(vocab.clone(), facts).map_err(|e| e.to_string())?;
    let mut states = Vec::with_capacity(txs.len() + 1);
    for updates in std::iter::once("").chain(txs.iter().copied()) {
        let u = UpdateSet::from_source(&vocab, updates).map_err(|e| e.to_string())?;
        let run = oracle_evaluate(
            &compiled.with_updates(&u),
            &state,
            ResolutionScope::All,
            &mut Inertia,
            OracleVariant::Faithful,
        )
        .map_err(|e| e.to_string())?;
        state = run.outcome.database;
        states.push(state.sorted_display());
    }
    Ok(states)
}

/// Outcome of a group of checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// A down-scaled instance of workload `name`, small enough for the
/// brute-force oracle.
fn small(name: &str, seed: u64) -> Workload {
    match name {
        "run_closure" => gen::run_closure(seed, 1, 6, seed),
        "run_chains" => gen::run_chains(seed, 1, 3),
        "serve_graph" => gen::serve_graph(seed, 20, 6, seed),
        _ => gen::serve_hr(seed, 20, 6),
    }
}

/// Run a down-scaled instance of `name` through the shipped binary and
/// compare every committed state and answer with the oracle.
pub fn oracle_check(name: &str, seed: u64, park: &Path, dir: &Path, tally: &mut Tally) {
    let w = small(name, seed);
    let txs: Vec<&str> = w
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Tx { updates, .. } => Some(updates.as_str()),
            _ => None,
        })
        .collect();
    let states = match oracle_states(&w.program, &w.facts, &txs) {
        Ok(s) => s,
        Err(e) => return tally.check(false, || format!("{name}: oracle failed: {e}")),
    };
    match w.family {
        Family::Run => {
            let prog = dir.join("small.park");
            let facts = dir.join("small.facts");
            let written =
                std::fs::write(&prog, &w.program).and_then(|()| std::fs::write(&facts, &w.facts));
            let out = written.and_then(|()| {
                client::run(
                    park,
                    &["run", path_str(&prog), "--db", path_str(&facts)],
                    false,
                )
            });
            let ok =
                matches!(&out, Ok(f) if f.exit_ok && f.stdout == as_output(&states[0]).as_bytes());
            tally.check(ok, || {
                format!("{name}: small `park run` differs from the oracle")
            });
        }
        Family::Serve => {
            let result = (|| -> std::io::Result<()> {
                let mut serve = Serve::spawn(park)?;
                let state_req = format!(r#"{{"op":"state","db":"{}"}}"#, gen::DB);
                let state_of = |serve: &mut Serve| -> std::io::Result<Option<Vec<String>>> {
                    let (frame, _) = serve.request(&state_req)?;
                    Ok(park_json::parse(&frame).ok().and_then(|f| {
                        let facts = f.get("facts")?.as_array()?;
                        facts
                            .iter()
                            .map(|x| x.as_str().map(str::to_string))
                            .collect()
                    }))
                };
                serve.request(&w.create_request())?;
                serve.request(&Workload::settle_request())?;
                let mut committed = 0;
                let got = state_of(&mut serve)?;
                tally.check(got.as_ref() == Some(&states[0]), || {
                    format!("{name}: small settle differs from the oracle")
                });
                for op in &w.ops {
                    let (frame, _) = serve.request(&op.request(gen::DB))?;
                    match op {
                        Op::Tx { .. } => {
                            committed += 1;
                            let got = state_of(&mut serve)?;
                            tally.check(got.as_ref() == Some(&states[committed]), || {
                                format!("{name}: small tx {committed} differs from the oracle")
                            });
                        }
                        Op::Query { query, .. } => {
                            let want = query_rows(&states[committed], query);
                            let got = park_json::parse(&frame).ok().and_then(|f| frame_rows(&f));
                            tally.check(got.as_ref() == Some(&want), || {
                                format!("{name}: small query `{query}` differs from the oracle")
                            });
                        }
                        _ => {}
                    }
                }
                let clean = serve.shutdown()?;
                tally.check(clean, || format!("{name}: small session did not shut down"));
                Ok(())
            })();
            if let Err(e) = result {
                tally.check(false, || format!("{name}: small session failed: {e}"));
            }
        }
    }
}

pub fn path_str(p: &Path) -> &str {
    p.to_str().expect("benchmark paths are UTF-8")
}
