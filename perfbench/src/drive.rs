//! The untraced end-to-end run: the shipped binary with default flags, a
//! single client, a closed loop, and the output checks.

use crate::calib;
use crate::check::{self, GraphModel, Tally};
use crate::client::{self, Serve};
use crate::gen::{self, Family, Op, Workload};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run: at least `SETUPS`, and more, up to `MAX_SETUPS`, while
/// they have taken less than `SETUP_BUDGET_S` in all. `setup_s` is their
/// median; a set-up lasts 0.02-0.4 s, and a single one is mostly
/// process-start noise.
pub const SETUPS: usize = 7;
const MAX_SETUPS: usize = 31;
const SETUP_BUDGET_S: f64 = 2.5;

/// What one end-to-end pass over an op stream measured.
#[derive(Default)]
pub struct Drive {
    /// Seconds from spawning `park serve` until `create` and the initial
    /// `settle` are acknowledged, once per set-up.
    pub setup_s: Vec<f64>,
    /// Latency of every op, in op order.
    pub op_ms: Vec<f64>,
    /// Seconds the closed loop ran.
    pub loop_s: f64,
    /// Peak RSS in KiB: one per `park run` process, or the `park serve`
    /// session's `VmHWM`.
    pub rss_kb: Vec<f64>,
    /// Host-speed calibration samples (see `calib`) taken after each
    /// set-up.
    pub setup_calib_ms: Vec<f64>,
    /// Calibration samples taken in the loop, each with the number of ops
    /// done before it.
    pub calib: Vec<(usize, f64)>,
    pub tally: Tally,
}

impl Drive {
    /// Latencies of the write (or read) ops, each scaled to the reference
    /// host's speed by the calibration samples around it.
    pub fn scaled_latencies(&self, ops: &[Op], write: bool) -> Vec<f64> {
        ops.iter()
            .zip(&self.op_ms)
            .enumerate()
            .filter(|(_, (op, _))| op.is_write() == write)
            .map(|(i, (_, ms))| ms * calib::scale(&self.calib, i))
            .collect()
    }
}

/// Spawn `park serve`, create the workload's database, and settle it.
/// Returns the session, the seconds it took, and the settle round trip.
pub fn set_up(w: &Workload, park: &Path, tally: &mut Tally) -> std::io::Result<(Serve, f64, f64)> {
    let started = Instant::now();
    let mut serve = Serve::spawn(park)?;
    let (created, _) = serve.request(&w.create_request())?;
    let (settled, settle_ms) = serve.request(&Workload::settle_request())?;
    let secs = started.elapsed().as_secs_f64();
    tally.check(created.starts_with(r#"{"frame":"created""#), || {
        format!("create failed: {}", clip(&created))
    });
    tally.check(settled.starts_with(r#"{"frame":"delta""#), || {
        format!("settle failed: {}", clip(&settled))
    });
    Ok((serve, secs, settle_ms))
}

fn clip(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// Throwaway set-ups into `d`, leaving room for `own` more that the caller
/// keeps as live sessions.
pub fn set_ups(w: &Workload, park: &Path, d: &mut Drive, own: usize) -> std::io::Result<()> {
    while d.setup_s.len() + own < SETUPS
        || (d.setup_s.len() + own < MAX_SETUPS && d.setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (serve, secs, _) = set_up(w, park, &mut d.tally)?;
        d.setup_s.push(secs);
        d.setup_calib_ms.push(calib::sample());
        let clean = serve.shutdown()?;
        d.tally
            .check(clean, || "set-up session did not shut down".into());
    }
    Ok(())
}

/// Write the workload's program and database under `dir` for `park run`.
pub fn write_inputs(w: &Workload, dir: &Path) -> std::io::Result<(String, String)> {
    let prog = dir.join("workload.park");
    let facts = dir.join("workload.facts");
    std::fs::write(&prog, &w.program)?;
    std::fs::write(&facts, &w.facts)?;
    Ok((
        check::path_str(&prog).to_string(),
        check::path_str(&facts).to_string(),
    ))
}

/// Run `ops` of workload `w` end to end, writing inputs under `dir`.
pub fn drive(w: &Workload, ops: &[Op], park: &Path, dir: &Path) -> std::io::Result<Drive> {
    let mut d = Drive::default();
    // A serve workload's own session is its last set-up.
    set_ups(w, park, &mut d, usize::from(w.family == Family::Serve))?;
    match w.family {
        Family::Run => drive_runs(w, ops, park, dir, &mut d)?,
        Family::Serve => drive_serve(w, ops, park, &mut d)?,
    }
    Ok(d)
}

fn drive_runs(
    w: &Workload,
    ops: &[Op],
    park: &Path,
    dir: &Path,
    d: &mut Drive,
) -> std::io::Result<()> {
    let (prog, facts) = write_inputs(w, dir)?;
    let (prog, facts) = (prog.as_str(), facts.as_str());
    let result = dir.join("result.facts");
    let result = check::path_str(&result);
    let model = (w.name != "run_chains").then(|| GraphModel::new(&w.facts));
    let expected = check::run_output(w);
    let mut wrote_result = false;
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Run => {
                d.calib.push((i, calib::sample()));
                let f = client::run(park, &["run", prog, "--db", facts], false)?;
                d.op_ms.push(f.ms);
                d.rss_kb.push(f.maxrss_kb as f64);
                d.tally
                    .check(f.exit_ok && f.stdout == expected.as_bytes(), || {
                        "`park run` output differs from the reference".into()
                    });
                if !wrote_result {
                    std::fs::write(result, &f.stdout)?;
                    wrote_result = true;
                }
            }
            Op::CliQuery { query, node } => {
                let f = client::run(park, &["query", query, "--db", result], false)?;
                d.op_ms.push(f.ms);
                let want = check::run_query_rows(model.as_ref(), *node);
                let got = check::cli_rows(&String::from_utf8_lossy(&f.stdout));
                d.tally.check(f.exit_ok && got == want, || {
                    format!("`park query {query}` differs from the reference")
                });
            }
            _ => unreachable!("run workloads hold runs and queries"),
        }
    }
    d.loop_s = started.elapsed().as_secs_f64();
    if w.name == "run_chains" {
        // Restarts and the blocked set are printed only with --stats, so
        // they are checked once, outside the timed loop.
        let f = client::run(park, &["run", prog, "--db", facts, "--stats"], true)?;
        d.tally.check(
            f.exit_ok && check::chains_stats_ok(&String::from_utf8_lossy(&f.stderr), gen::CHAINS_K),
            || "`park run --stats` on chains: restarts or blocked set differ".into(),
        );
    }
    Ok(())
}

fn drive_serve(w: &Workload, ops: &[Op], park: &Path, d: &mut Drive) -> std::io::Result<()> {
    let (mut serve, secs, _) = set_up(w, park, &mut d.tally)?;
    d.setup_s.push(secs);
    let mut frames = Vec::with_capacity(ops.len());
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i % 10 == 0 {
            d.calib.push((i, calib::sample()));
        }
        let (frame, ms) = serve.request(&op.request(gen::DB))?;
        d.op_ms.push(ms);
        frames.push(frame);
    }
    d.loop_s = started.elapsed().as_secs_f64();
    if let Some(kb) = serve.vm_hwm_kb() {
        d.rss_kb.push(kb as f64);
    }
    let (state, _) = serve.request(&format!(r#"{{"op":"state","db":"{}"}}"#, gen::DB))?;
    let clean = serve.shutdown()?;
    d.tally.check(clean, || "session did not shut down".into());

    // Checks, outside the timed loop.
    let mut model = (w.name == "serve_graph").then(|| GraphModel::new(&w.facts));
    // serve_hr: every payroll row of `?- payroll(X, S), flagged(X).` must
    // name an employee flagged so far.
    let flag_of = |l: &str| Some(l.strip_prefix("flagged(")?.split_once(')')?.0.to_string());
    let mut flagged: HashSet<String> = w.facts.lines().filter_map(flag_of).collect();
    for (op, frame) in ops.iter().zip(&frames) {
        let parsed = park_json::parse(frame).ok();
        let kind = parsed
            .as_ref()
            .and_then(|f| f.get("frame")?.as_str().map(str::to_string));
        match op {
            Op::Tx { updates, .. } => {
                d.tally.check(kind.as_deref() == Some("delta"), || {
                    format!("transact `{updates}`: {}", clip(frame))
                });
                if let Some(m) = &mut model {
                    m.apply(op);
                }
                flagged.extend(
                    updates
                        .split_whitespace()
                        .filter_map(|u| flag_of(u.strip_prefix('+')?)),
                );
            }
            Op::Query { query, node } => {
                let rows = parsed.as_ref().and_then(check::frame_rows);
                let ok = match (&model, &rows) {
                    (Some(m), Some(rows)) => *rows == m.query_rows(*node),
                    (None, Some(rows)) => rows.iter().all(|r| {
                        r.strip_prefix("X = ")
                            .and_then(|r| r.split_once(", S = "))
                            .is_some_and(|(x, _)| flagged.contains(x))
                    }),
                    (_, None) => false,
                };
                d.tally
                    .check(ok, || format!("query `{query}`: {}", clip(frame)));
            }
            _ => unreachable!("serve workloads hold transactions and queries"),
        }
    }
    let facts: Option<Vec<String>> = park_json::parse(&state).ok().and_then(|f| {
        f.get("facts")?
            .as_array()?
            .iter()
            .map(|x| x.as_str().map(str::to_string))
            .collect()
    });
    match &model {
        Some(m) => d.tally.check(facts == Some(m.facts()), || {
            "final serve_graph state differs from the BFS closure".into()
        }),
        None => d
            .tally
            .check(facts.is_some(), || "`state` request failed".into()),
    }
    Ok(())
}
