//! The traced run.
//!
//! Each op of a prefix of the op stream goes end to end first, untraced,
//! and is then replayed in-process through each layer's public functions,
//! every call timed from outside as a span. The only engine hooks are the
//! public `MetricsSink` (per-step timings) and `ConflictResolver` (a timing
//! decorator) traits, implemented here.
//!
//! Lanes. `run_*` ops replay as the `park run` / `park query` pipelines of
//! the CLI (`cli.run`, `cli.query`). Serve ops replay three times, each lane
//! one layer deeper: lane A hands the request line to
//! `protocol::parse_request` and `DbSession::handle`; lane B calls the
//! `ActiveDatabase` underneath directly; lane C re-runs every cold
//! transaction through `Engine::run` on the pre-transaction state. A
//! deeper lane's spans name the shallower lane's span as their parent, so a
//! span's self time (its duration minus its children's) is the time its
//! layer adds. `run_*` workloads also replay their set-up and queries
//! through lanes A–C, as `setup_s` measures loading them into `park serve`.
//!
//! Lane B never requests metrics or a trace, which would force an
//! incremental database cold; its incremental counters must equal the
//! untraced live session's `stats` frame.

use crate::check::{self, Tally};
use crate::client::{self, Serve};
use crate::drive::{self, Drive};
use crate::gen::{self, Family, Op, Workload};
use crate::stats::{median, quantile};
use park::db::ActiveDatabase;
use park_engine::{
    certify_conflict_free, lower, AnalysisVariant, Conflict, ConflictResolver, Engine,
    EngineOptions, MetricsSink, ParkOutcome, Query, Resolution, SelectContext, StepEvent, Strata,
};
use park_json::Json;
use park_serve::protocol::{parse_request, DbOp, Request};
use park_serve::{DbSession, ServeOptions};
use park_storage::{FactStore, UpdateSet, Vocabulary};
use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The traced run replays this share of the op stream (1 in `PREFIX_DIV`),
/// so that all lanes fit in about one untraced run's time.
const PREFIX_DIV: usize = 4;

const POLICY: &str = "inertia";

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    req: Cell<u64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`, or under the innermost open span.
    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let parent = parent.or_else(|| self.stack.borrow().last().copied());
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            req: self.req.get(),
        });
        let id = spans.len() - 1;
        self.stack.borrow_mut().push(id);
        id
    }

    fn close(&self, id: usize) {
        let end = self.now();
        self.spans.borrow_mut()[id].end_ns = end;
        let top = self.stack.borrow_mut().pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    fn under<T>(&self, parent: Option<usize>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.under(None, name, f)
    }

    /// Record an already finished interval under the innermost open span.
    fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.stack.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: self.req.get(),
        });
    }
}

/// Per-step timings from the engine's public metrics hook.
struct StepSink<'a> {
    tracer: &'a Tracer,
    step_ns: u64,
}

impl MetricsSink for StepSink<'_> {
    fn step(&mut self, ev: &StepEvent<'_>) {
        let end = self.tracer.now();
        self.tracer
            .record("engine.step", end.saturating_sub(ev.nanos), end);
        self.step_ns += ev.nanos;
    }
}

/// A timing decorator around the session policy.
struct TimedPolicy<'a> {
    inner: Box<dyn ConflictResolver>,
    tracer: &'a Tracer,
    calls: u64,
}

impl ConflictResolver for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(
        &mut self,
        ctx: &SelectContext<'_>,
        conflict: &Conflict,
    ) -> Result<Resolution, String> {
        self.calls += 1;
        let inner = &mut self.inner;
        self.tracer
            .span("policies.select", || inner.select(ctx, conflict))
    }
}

fn make_policy(t: &Tracer) -> TimedPolicy<'_> {
    let inner = t.span("policies.make", || {
        park_policies::by_name(POLICY).expect("a built-in policy")
    });
    TimedPolicy {
        inner,
        tracer: t,
        calls: 0,
    }
}

/// What one engine-lane run reported.
#[derive(Default)]
struct EngineRun {
    run_ms: f64,
    /// The same run with the step-timing sink attached.
    metered_ms: f64,
    step_ms: f64,
    policies_ms: f64,
    select_calls: u64,
    gamma_steps: u64,
    restarts: u64,
    groundings_fired: u64,
    eval_tasks: u64,
    replayed_steps: u64,
    conflicts_resolved: u64,
    peak_marked: u64,
    result_facts: u64,
}

/// `Engine::run` on `db` with the timing policy decorator, its span opened
/// under `parent` (or the innermost open span).
fn engine_run(
    t: &Tracer,
    engine: &Engine,
    db: &FactStore,
    updates: &UpdateSet,
    parent: Option<usize>,
) -> Result<(ParkOutcome, EngineRun, usize), String> {
    let started = t.now();
    let mut policy = make_policy(t);
    let make_ns = t.now() - started;
    let run_id = t.open("engine.run", parent);
    let begun = Instant::now();
    let outcome = engine.run(db, updates, &mut policy);
    let run_ms = begun.elapsed().as_secs_f64() * 1e3;
    t.close(run_id);
    let outcome = outcome.map_err(|e| e.to_string())?;
    let select_ms: f64 = t
        .spans
        .borrow()
        .iter()
        .filter(|s| s.name == "policies.select" && s.parent == Some(run_id))
        .map(Span::ms)
        .sum();
    let run = EngineRun {
        run_ms,
        policies_ms: make_ns as f64 / 1e6 + select_ms,
        select_calls: policy.calls,
        result_facts: outcome.database.len() as u64,
        ..EngineRun::default()
    };
    Ok((outcome, run, run_id))
}

/// Probes on the inputs of engine run `run_id`, outside its interval.
/// `with_updates` and `certify_conflict_free` run inside `Engine::run` and
/// become children of its span. Under a `probe` root, off the shipped
/// path: `Strata::of`, `lower`, and the run again with the step-timing
/// sink attached, which gives the step times, the counters, and the
/// tracing overhead.
fn engine_probes(
    t: &Tracer,
    engine: &Engine,
    db: &FactStore,
    updates: &UpdateSet,
    run_id: usize,
    run: &mut EngineRun,
) -> Result<(), String> {
    let p_u = t.under(Some(run_id), "engine.with_updates", || {
        engine.program().with_updates(updates)
    });
    t.under(Some(run_id), "engine.certify", || {
        std::hint::black_box(certify_conflict_free(&p_u, AnalysisVariant::Faithful))
    });
    let probe = t.open("probe", None);
    t.span("engine.strata", || std::hint::black_box(Strata::of(&p_u)));
    t.span("engine.lower", || std::hint::black_box(lower(&p_u, db)));
    let mut policy = park_policies::by_name(POLICY).expect("a built-in policy");
    let mut sink = StepSink {
        tracer: t,
        step_ns: 0,
    };
    let metered = t.open("engine.run_metered", None);
    let begun = Instant::now();
    let outcome = engine.run_with_metrics(db, updates, policy.as_mut(), &mut sink);
    run.metered_ms = begun.elapsed().as_secs_f64() * 1e3;
    t.close(metered);
    t.close(probe);
    let s = outcome.map_err(|e| e.to_string())?.stats;
    run.step_ms = sink.step_ns as f64 / 1e6;
    run.gamma_steps = s.gamma_steps;
    run.restarts = s.restarts;
    run.groundings_fired = s.groundings_fired;
    run.eval_tasks = s.eval_tasks;
    run.replayed_steps = s.replayed_steps;
    run.conflicts_resolved = s.conflicts_resolved;
    run.peak_marked = s.peak_marked_atoms as u64;
    Ok(())
}

/// Everything the lanes measured.
#[derive(Default)]
struct Lanes {
    engine_runs: Vec<EngineRun>,
    /// In-process `create` + `settle` through the session, untraced.
    setup_ms: Vec<f64>,
    /// (end-to-end, in-process) ms of each `park run` and its replay.
    run_pairs: Vec<(f64, f64)>,
    /// (end-to-end round trip, `serve.handle`) ms of each served op.
    served: Vec<(f64, f64)>,
    final_facts: u64,
    final_bytes: u64,
    warm_ratio: f64,
    cold_txs: u64,
    incremental: Option<park::db::IncrementalStats>,
    ops: u64,
}

/// Replay one `park run`: the `cmd_run` pipeline of the CLI. Returns the
/// rendered output and the pipeline's time in ms.
fn cli_run(t: &Tracer, w: &Workload, lanes: &mut Lanes) -> Result<(String, f64), String> {
    let root = t.open("cli.run", None);
    let program = t.span("syntax.parse_program", || {
        let p = park_syntax::parse_program(&w.program).map_err(|e| e.to_string())?;
        park_syntax::check_program(&p).map_err(|_| "unsafe program".to_string())?;
        Ok::<_, String>(p)
    })?;
    let vocab = Vocabulary::new();
    let facts = t
        .span("syntax.parse_facts", || park_syntax::parse_facts(&w.facts))
        .map_err(|e| e.to_string())?;
    let db = t
        .span("storage.load", || {
            FactStore::from_facts(vocab.clone(), &facts)
        })
        .map_err(|e| e.to_string())?;
    let updates = t.span("storage.parse_updates", UpdateSet::empty);
    let engine = t
        .span("engine.compile", || {
            Engine::with_options(vocab.clone(), &program, EngineOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let (outcome, mut run, run_id) = engine_run(t, &engine, &db, &updates, None)?;
    let output = t.span("cli.render", || outcome.database.to_source());
    t.close(root);
    engine_probes(t, &engine, &db, &updates, run_id, &mut run)?;
    lanes.engine_runs.push(run);
    lanes.final_facts = outcome.database.len() as u64;
    lanes.final_bytes = outcome.database.encoded_bytes() as u64;
    let pipeline_ms = t.spans.borrow()[root].ms();
    Ok((output, pipeline_ms))
}

/// Replay one `park query` over a run's output: the `cmd_query` pipeline.
fn cli_query(t: &Tracer, output: &str, query: &str) -> Result<Vec<String>, String> {
    t.span("cli.query", || {
        let vocab = Vocabulary::new();
        let facts = t
            .span("syntax.parse_output", || park_syntax::parse_facts(output))
            .map_err(|e| e.to_string())?;
        let db = t
            .span("storage.load_output", || {
                FactStore::from_facts(vocab.clone(), &facts)
            })
            .map_err(|e| e.to_string())?;
        let (q, rows) = t
            .span("engine.query", || {
                let q = Query::parse(&vocab, query)?;
                let rows = q.run_on_database(&db);
                Ok::<_, park_engine::EngineError>((q, rows))
            })
            .map_err(|e| e.to_string())?;
        let mut rendered = t.span("cli.render_rows", || q.render_rows(&rows));
        rendered.sort();
        Ok(rendered)
    })
}

/// Replay the serve side: set-up (`create`, `settle`) and `ops`, each with
/// its index in the op stream, through lanes A (session), B (database) and
/// C (engine, cold transactions). Each op first goes to `live`, a `park
/// serve` session already set up, whose settle took `settle_e2e_ms`; its
/// frames must equal lane A's. Spans carry the op's index + 1 as request
/// id, 0 for the set-up.
fn serve_lanes(
    t: &Tracer,
    w: &Workload,
    ops: &[(usize, Op)],
    live: &mut Serve,
    settle_e2e_ms: f64,
    lanes: &mut Lanes,
    tally: &mut Tally,
) -> Result<(), String> {
    let defaults = ServeOptions::default();
    // Set-up.
    t.req.set(0);
    let create_line = w.create_request();
    let request = t.span("serve.parse_request", || {
        parse_request(&create_line, &defaults)
    })?;
    let Request::Db {
        db: name,
        op:
            DbOp::Create {
                program,
                facts,
                policy,
                options,
                journal,
                incremental,
            },
    } = request
    else {
        return Err("create request did not parse as create".into());
    };
    let open = || {
        DbSession::open(
            &name,
            &program,
            &facts,
            &policy,
            options,
            journal.as_deref(),
            incremental,
        )
    };
    // Untraced in-process set-ups, the counterpart of `setup_s`.
    for _ in 0..drive::SETUPS {
        let begun = Instant::now();
        let mut session = open()?;
        let Ok(Request::Db { op, .. }) = parse_request(&Workload::settle_request(), &defaults)
        else {
            return Err("settle request did not parse".into());
        };
        std::hint::black_box(session.handle(1, op));
        lanes.setup_ms.push(begun.elapsed().as_secs_f64() * 1e3);
    }
    let create_id = t.open("serve.create", None);
    let mut session = open()?;
    t.close(create_id);
    // Lane B opens its own database as `DbSession::open` does.
    let ast = t
        .under(Some(create_id), "syntax.parse_program", || {
            park_syntax::parse_program(&program)
        })
        .map_err(|e| e.to_string())?;
    let vocab = Vocabulary::new();
    let parsed = t
        .under(Some(create_id), "syntax.parse_facts", || {
            park_syntax::parse_facts(&facts)
        })
        .map_err(|e| e.to_string())?;
    let store = t
        .under(Some(create_id), "storage.load", || {
            FactStore::from_facts(vocab.clone(), &parsed)
        })
        .map_err(|e| e.to_string())?;
    let open_id = t.open("db.open", Some(create_id));
    let mut db = ActiveDatabase::open_with_options(&ast, store, options)
        .map_err(|e| e.to_string())?
        .with_incremental(incremental);
    t.close(open_id);
    t.under(Some(open_id), "engine.compile", || {
        std::hint::black_box(Engine::with_options(vocab.clone(), &ast, options).is_ok())
    });

    let mut steps: Vec<(u64, String, Option<&Op>)> = vec![(0, Workload::settle_request(), None)];
    steps.extend(
        ops.iter()
            .map(|(i, op)| (*i as u64 + 1, op.request(gen::DB), Some(op))),
    );
    // Sequence numbers as in the live session: `create` took 1.
    let mut seq = 1u64;
    for (req, line, op) in steps {
        seq += 1;
        t.req.set(req);
        let (live_frame, e2e_ms) = match op {
            None => (None, settle_e2e_ms),
            Some(_) => {
                let (frame, ms) = live.request(&line).map_err(|e| e.to_string())?;
                (Some(frame), ms)
            }
        };
        let request = t.span("serve.parse_request", || parse_request(&line, &defaults))?;
        let Request::Db { op: db_op, .. } = request else {
            return Err(format!("`{line}` is not a database request"));
        };
        let handle_id = t.open("serve.handle", None);
        let begun = Instant::now();
        let (frames, _) = session.handle(seq, db_op);
        let handle_ms = begun.elapsed().as_secs_f64() * 1e3;
        t.close(handle_id);
        lanes.served.push((e2e_ms, handle_ms));
        let frame = frames.first().cloned().unwrap_or_default();
        if let Some(live_frame) = live_frame {
            tally.check(live_frame.trim_end() == frame, || {
                format!("`{line}`: the live session and the replayed session disagree")
            });
        }
        match op {
            Some(Op::Query { query, .. }) => {
                let query_id = t.open("db.query", Some(handle_id));
                let rows = db.query_rows(query);
                t.close(query_id);
                let mut rows = rows.map_err(|e| e.to_string())?;
                rows.sort();
                // What `query_rows` asks of the engine, on the same state.
                t.under(Some(query_id), "engine.query", || {
                    let q = Query::parse(db.vocab(), query)?;
                    Ok::<_, park_engine::EngineError>(q.render_rows(&q.run_on_database(db.state())))
                })
                .map_err(|e| e.to_string())?;
                let served = park_json::parse(&frame)
                    .ok()
                    .and_then(|f| check::frame_rows(&f));
                tally.check(served.as_ref() == Some(&rows), || {
                    format!("replayed query `{query}`: session and database disagree")
                });
            }
            _ => {
                let updates_src = match op {
                    Some(Op::Tx { updates, .. }) => updates.as_str(),
                    _ => "",
                };
                let updates = t
                    .under(Some(handle_id), "storage.parse_updates", || {
                        UpdateSet::from_source(db.vocab(), updates_src)
                    })
                    .map_err(|e| e.to_string())?;
                // A cold transaction re-runs in lane C on the same pre-state.
                let settle = op.is_none();
                let cold = !incremental || settle;
                let pre = cold.then(|| (db.engine().clone(), db.state().clone()));
                // Lane B's policy is not timed: lane C times the same
                // resolver calls of a cold transaction.
                let mut policy = park_policies::by_name(POLICY).expect("a built-in policy");
                let tx_id = t.open(
                    if settle { "db.settle" } else { "db.transact" },
                    Some(handle_id),
                );
                let report = db.transact(&updates, policy.as_mut());
                t.close(tx_id);
                report.map_err(|e| e.to_string())?;
                tally.check(frame.starts_with(r#"{"frame":"delta""#), || {
                    format!("replayed `{line}`: {}", &frame[..frame.len().min(160)])
                });
                if let Some((engine, state)) = pre {
                    let (outcome, mut run, run_id) =
                        engine_run(t, &engine, &state, &updates, Some(tx_id))?;
                    engine_probes(t, &engine, &state, &updates, run_id, &mut run)?;
                    tally.check(outcome.database.same_facts(db.state()), || {
                        format!("replayed `{line}`: engine lane and database disagree")
                    });
                    lanes.engine_runs.push(run);
                }
            }
        }
    }
    if w.family == Family::Serve {
        // The `state` request's rendering of the whole database.
        t.span("cli.render", || {
            std::hint::black_box(db.state().sorted_display())
        });
    }
    let state = db.state();
    lanes.final_facts = state.len() as u64;
    lanes.final_bytes = state.encoded_bytes() as u64;
    let s = db.incremental_stats();
    let transactions = db.transactions().max(1);
    lanes.warm_ratio = (s.incremental_txs + s.partial_stratum_txs) as f64 / transactions as f64;
    lanes.cold_txs = if incremental {
        s.cold_txs
    } else {
        db.transactions()
    };
    lanes.incremental = incremental.then_some(s);
    Ok(())
}

/// One named metric with its unit.
pub type Metric = (String, f64, &'static str);

/// Traced run of workload `w`: per-layer metrics, spans written to
/// `spans_path`.
///
/// Every replayed op is paired with the same op sent end to end just
/// before it — a `park run` process, or a request to a live `park serve`
/// session — so end-to-end minus in-process differences see the same host
/// speed.
pub fn traced(
    w: &Workload,
    park: &Path,
    dir: &Path,
    spans_path: &Path,
) -> std::io::Result<(Vec<Metric>, Tally)> {
    // Whole write/read pairs for run workloads, whole blocks for serve.
    let unit = if w.family == Family::Run { 2 } else { 10 };
    let take = (w.ops.len() / PREFIX_DIV / unit).max(1) * unit;
    let prefix = &w.ops[..take.min(w.ops.len())];
    let mut d = Drive::default();
    drive::set_ups(w, park, &mut d, 1)?;
    let (mut live, secs, settle_ms) = drive::set_up(w, park, &mut d.tally)?;
    d.setup_s.push(secs);
    let mut tally = std::mem::take(&mut d.tally);
    let (prog, facts) = drive::write_inputs(w, dir)?;
    let model = (w.name != "run_chains").then(|| check::GraphModel::new(&w.facts));
    let expected = (w.family == Family::Run).then(|| check::run_output(w));
    let t = Tracer::new();
    let mut lanes = Lanes::default();
    let result = (|| -> Result<(), String> {
        let mut served = Vec::new();
        for (i, op) in prefix.iter().enumerate() {
            t.req.set(i as u64 + 1);
            match op {
                Op::Run => {
                    let f = client::run(park, &["run", &prog, "--db", &facts], false)
                        .map_err(|e| e.to_string())?;
                    let (output, inprocess_ms) = cli_run(&t, w, &mut lanes)?;
                    let want = expected.as_deref().unwrap_or_default();
                    tally.check(f.exit_ok && f.stdout == want.as_bytes(), || {
                        "`park run` output differs from the reference".into()
                    });
                    tally.check(output == want, || {
                        "replayed `park run` output differs from the reference".into()
                    });
                    lanes.run_pairs.push((f.ms, inprocess_ms));
                }
                Op::CliQuery { query, node } => {
                    let output = expected.as_deref().unwrap_or_default();
                    let rows = cli_query(&t, output, query)?;
                    tally.check(rows == check::run_query_rows(model.as_ref(), *node), || {
                        format!("replayed `park query {query}` differs from the reference")
                    });
                    served.push((
                        i,
                        Op::Query {
                            query: query.clone(),
                            node: *node,
                        },
                    ));
                }
                _ => served.push((i, op.clone())),
            }
        }
        serve_lanes(&t, w, &served, &mut live, settle_ms, &mut lanes, &mut tally)
    })();
    if let Err(e) = result {
        tally.check(false, || format!("traced replay failed: {e}"));
    }
    lanes.ops = prefix.len() as u64 + 1;
    // The incremental counters of the replay equal the live session's.
    let (stats, _) = live.request(&format!(r#"{{"op":"stats","db":"{}"}}"#, gen::DB))?;
    let clean = live.shutdown()?;
    tally.check(clean, || "session did not shut down".into());
    let frame = park_json::parse(&stats)
        .ok()
        .and_then(|f| f.get("incremental").cloned());
    let same = match (&frame, lanes.incremental) {
        (None, None) => true,
        (Some(f), Some(s)) => [
            ("incremental_txs", s.incremental_txs),
            ("partial_stratum_txs", s.partial_stratum_txs),
            ("cold_txs", s.cold_txs),
            ("cold_txs_deletion", s.cold_txs_deletion),
            ("cold_txs_uncertified", s.cold_txs_uncertified),
        ]
        .iter()
        .all(|(k, v)| f.get(k).and_then(Json::as_i64) == Some(*v as i64)),
        _ => false,
    };
    tally.check(same, || {
        "replayed incremental counters differ from the session's stats frame".into()
    });
    write_spans(&t, spans_path)?;
    Ok((per_layer(w, &d, &t, &lanes), tally))
}

fn write_spans(t: &Tracer, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in t.spans.borrow().iter().enumerate() {
        let line = Json::object([
            ("id", Json::Int(id as i64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("req", Json::Int(s.req as i64)),
        ]);
        writeln!(out, "{}", line.to_compact())?;
    }
    out.flush()
}

const LAYERS: [&str; 7] = [
    "syntax", "storage", "engine", "policies", "db", "serve", "cli",
];

fn per_layer(w: &Workload, d: &Drive, t: &Tracer, lanes: &Lanes) -> Vec<Metric> {
    let spans = t.spans.borrow();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let med = |name: &str| median(&durations(name));
    // Self time: duration minus the children's; the probe subtree is not
    // on the shipped path and is left out.
    let mut child_ms = vec![0.0; spans.len()];
    let mut in_probe = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
            in_probe[i] = in_probe[p] || spans[p].name == "probe";
        }
    }
    let self_ms = |i: usize| spans[i].ms() - child_ms[i];
    let handle_self: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.handle")
        .map(|(i, _)| self_ms(i))
        .collect();

    let runs = &lanes.engine_runs;
    let per_run = |f: fn(&EngineRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let mean_count = |f: fn(&EngineRun) -> u64| {
        runs.iter().map(f).sum::<u64>() as f64 / runs.len().max(1) as f64
    };
    let total = |f: fn(&EngineRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let (tail_q, _) = crate::tail_quantiles(w.family);
    let tx_spans: Vec<f64> = durations("db.transact")
        .into_iter()
        .chain(durations("db.settle"))
        .collect();

    // End-to-end minus in-process, paired op by op.
    let transport: Vec<f64> = lanes.served.iter().map(|(e2e, h)| e2e - h).collect();
    let unattributed = match w.family {
        Family::Run => median(
            &lanes
                .run_pairs
                .iter()
                .map(|(e2e, r)| e2e - r)
                .collect::<Vec<_>>(),
        ),
        Family::Serve => median(&d.setup_s) * 1e3 - median(&lanes.setup_ms),
    };

    let mut m: Vec<Metric> = vec![
        (
            "syntax.parse_program_ms".into(),
            med("syntax.parse_program"),
            "ms",
        ),
        (
            "syntax.parse_facts_ms".into(),
            med("syntax.parse_facts"),
            "ms",
        ),
        ("storage.load_ms".into(), med("storage.load"), "ms"),
        (
            "storage.parse_updates_ms".into(),
            med("storage.parse_updates"),
            "ms",
        ),
        ("storage.facts".into(), lanes.final_facts as f64, "count"),
        (
            "storage.bytes_per_fact".into(),
            lanes.final_bytes as f64 / lanes.final_facts.max(1) as f64,
            "B",
        ),
        ("engine.compile_ms".into(), med("engine.compile"), "ms"),
        (
            "engine.with_updates_ms".into(),
            med("engine.with_updates"),
            "ms",
        ),
        ("engine.certify_ms".into(), med("engine.certify"), "ms"),
        ("engine.strata_ms".into(), med("engine.strata"), "ms"),
        ("engine.lower_ms".into(), med("engine.lower"), "ms"),
        ("engine.run_ms".into(), per_run(|r| r.run_ms), "ms"),
        ("engine.step_ms".into(), per_run(|r| r.step_ms), "ms"),
        (
            "engine.outside_step_ms".into(),
            per_run(|r| r.metered_ms - r.step_ms),
            "ms",
        ),
        (
            "engine.gamma_steps".into(),
            mean_count(|r| r.gamma_steps),
            "count",
        ),
        (
            "engine.restarts".into(),
            mean_count(|r| r.restarts),
            "count",
        ),
        (
            "engine.groundings_fired".into(),
            mean_count(|r| r.groundings_fired),
            "count",
        ),
        (
            "engine.eval_tasks".into(),
            mean_count(|r| r.eval_tasks),
            "count",
        ),
        (
            "engine.replayed_steps".into(),
            mean_count(|r| r.replayed_steps),
            "count",
        ),
        (
            "engine.conflicts_resolved".into(),
            mean_count(|r| r.conflicts_resolved),
            "count",
        ),
        (
            "engine.peak_marked".into(),
            mean_count(|r| r.peak_marked),
            "count",
        ),
        (
            "engine.fired_per_result_fact".into(),
            total(|r| r.groundings_fired) / total(|r| r.result_facts).max(1.0),
            "ratio",
        ),
        (
            "engine.replay_ratio".into(),
            total(|r| r.replayed_steps) / total(|r| r.gamma_steps).max(1.0),
            "ratio",
        ),
        ("engine.query_ms".into(), med("engine.query"), "ms"),
        (
            "policies.select_calls".into(),
            mean_count(|r| r.select_calls),
            "count",
        ),
        (
            "policies.resolver_ms".into(),
            per_run(|r| r.policies_ms),
            "ms",
        ),
        ("db.tx_ms_p50".into(), median(&tx_spans), "ms"),
        ("db.tx_ms_tail".into(), quantile(&tx_spans, tail_q), "ms"),
        ("db.settle_ms".into(), med("db.settle"), "ms"),
        ("db.query_ms".into(), med("db.query"), "ms"),
        ("db.warm_ratio".into(), lanes.warm_ratio, "ratio"),
        ("db.cold_txs".into(), lanes.cold_txs as f64, "count"),
        (
            "serve.parse_request_ms".into(),
            med("serve.parse_request"),
            "ms",
        ),
        ("serve.handle_ms".into(), med("serve.handle"), "ms"),
        (
            "serve.session_overhead_ms".into(),
            median(&handle_self),
            "ms",
        ),
        ("serve.transport_ms".into(), median(&transport), "ms"),
        ("cli.render_ms".into(), med("cli.render"), "ms"),
        ("cli.unattributed_ms".into(), unattributed, "ms"),
    ];
    for layer in LAYERS {
        let total: f64 = spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !in_probe[*i] && s.name != "probe" && s.name.split('.').next() == Some(layer)
            })
            .map(|(i, _)| self_ms(i))
            .sum();
        m.push((format!("{layer}.self_ms"), total / lanes.ops as f64, "ms"));
    }
    m.push((
        "trace.overhead_ms".into(),
        per_run(|r| r.metered_ms - r.run_ms),
        "ms",
    ));
    m.push(("trace.spans".into(), spans.len() as f64, "count"));
    m
}
