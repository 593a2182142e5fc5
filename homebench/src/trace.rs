//! The traced passes: each replays the traced window's op log on a fresh
//! build of the same seed and times the calls the benchmark itself makes
//! into one layer's public API. Replayed answers must equal the recorded
//! ones, so every pass is also an answer check.
//!
//! * routes — request bytes through `http::read_request`, the session
//!   store, `routes::handle` and `Response::write_to`;
//! * exec — closures submitted through `FleetExec::run_on_home` /
//!   `begin_upgrade` calling the `Fleet` methods the routes call.

use crate::rig::{median, open_journal, us, Rig};
use crate::{Bench, Checks, Done, Op};
use hg_api::http::{read_request, ChunkedWriter, Limits};
use hg_api::routes::{handle, Reply};
use hg_api::wire::{
    bulk_json, force_uninstall_json, install_report_json, rollout_json, shard_part_json,
    uninstall_report_json,
};
use hg_api::{ExecError, FleetExec};
use hg_rules::json::Json;
use hg_service::{Fleet, HomeId, InstallReport, UpgradeRollout};
use hg_telemetry::{TelemetryBus, TelemetryEvent};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts `write` calls (a response written as head + body is 2).
#[derive(Default)]
struct Counting {
    writes: u64,
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The body a replayed `GET /homes/{id}` must produce.
pub fn home_json(home: HomeId, apps: &[String]) -> String {
    Json::obj([
        ("home", Json::Num(home.raw() as i64)),
        (
            "apps",
            Json::Arr(apps.iter().cloned().map(Json::Str).collect()),
        ),
    ])
    .to_text()
}

/// The merged-rollout line that ends a streamed upgrade reply.
pub fn rollout_line(rollout: &UpgradeRollout) -> String {
    Json::obj([("rollout", rollout_json(rollout))]).to_text()
}

pub struct RouteLayers {
    pub socket_us: f64,
    pub writes_per_response: f64,
    pub parse_us: f64,
    pub session_us: f64,
    pub write_us: f64,
}

/// Replays every request through the HTTP parser, the session store, the
/// route table and the response writer, in process.
pub fn routes_pass<B: Bench>(
    bench: &B,
    seed: u64,
    logs: &[Vec<Done>],
    checks: &mut Checks,
) -> RouteLayers {
    let (rig, plan) = bench.build(seed, false);
    let state = rig.state();
    let limits = Limits::default();
    let (mut parse, mut session, mut write, mut socket, mut writes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (token, log) in bench.tokens(&plan).iter().zip(logs) {
        for done in log {
            let bytes = done.op.call().render(token, false);
            let t = Instant::now();
            let request = read_request(&mut &bytes[..], &limits);
            let parse_us = us(t);
            let Ok(Some(request)) = request else {
                checks.expect(false, || format!("replayed {:?} did not parse", done.op));
                continue;
            };
            let t = Instant::now();
            let sessions = state.sessions();
            let mut live = sessions.validate(token);
            if let Some(home) = done.op.home() {
                live &= sessions.owns(token, home) == Some(true);
            }
            session.push(us(t));
            checks.expect(live, || format!("replayed session lost {:?}", done.op));
            let t = Instant::now();
            let reply = handle(state, &request);
            let handled = us(t);
            let mut out = Counting::default();
            let t = Instant::now();
            let body = match reply {
                Reply::Full(response) => {
                    let _ = response.write_to(&mut out, request.keep_alive);
                    checks.expect(response.status == done.status, || {
                        format!("replayed {:?} answered {}", done.op, response.status)
                    });
                    String::from_utf8_lossy(&response.body).into_owned()
                }
                Reply::Stream(mut stream) => {
                    let mut chunked = ChunkedWriter::begin(&mut out, 200).expect("in memory");
                    while let Some((shard, part)) = stream.next_part() {
                        let mut line = shard_part_json(shard, part).to_text();
                        line.push('\n');
                        let _ = chunked.chunk(line.as_bytes());
                    }
                    let merged = rollout_line(&stream.finish());
                    let _ = chunked.chunk(merged.as_bytes());
                    let _ = chunked.finish();
                    // Streamed parts arrive in completion order; only the
                    // merged line is deterministic. The sweep runs while
                    // the stream is written, so its time counts as write.
                    merged
                }
                Reply::Events(_) => String::new(),
            };
            let write_us = us(t);
            // `/stats` reports live gauges (queue occupancy), not answers.
            let expected = match done.op {
                Op::Upgrade { .. } => done.body.lines().last().unwrap_or(""),
                Op::Stats => body.as_str(),
                _ => done.body.as_str(),
            };
            checks.expect(body == expected, || {
                format!("replayed {:?} answered differently: {body}", done.op)
            });
            parse.push(parse_us);
            write.push(write_us);
            writes.push(out.writes as f64);
            socket.push(done.micros - (parse_us + handled + write_us));
        }
    }
    RouteLayers {
        socket_us: median(&socket),
        writes_per_response: median(&writes),
        parse_us: median(&parse),
        session_us: median(&session),
        write_us: median(&write),
    }
}

#[derive(Default)]
struct Samples {
    queue_wait: Vec<f64>,
    run: Vec<f64>,
    busy: f64,
    install: Vec<f64>,
    confirm: Vec<f64>,
    uninstall: Vec<f64>,
    check: Vec<f64>,
    encode: Vec<f64>,
    part_arrival: Vec<f64>,
    skew: Vec<f64>,
    upgrade_shard: Vec<f64>,
    install_group: Vec<f64>,
}

impl Samples {
    fn absorb(&mut self, o: Samples) {
        self.queue_wait.extend(o.queue_wait);
        self.run.extend(o.run);
        self.busy += o.busy;
        self.install.extend(o.install);
        self.confirm.extend(o.confirm);
        self.uninstall.extend(o.uninstall);
        self.check.extend(o.check);
        self.encode.extend(o.encode);
        self.part_arrival.extend(o.part_arrival);
        self.skew.extend(o.skew);
        self.upgrade_shard.extend(o.upgrade_shard);
        self.install_group.extend(o.install_group);
    }
}

pub struct ExecLayers {
    pub queue_wait_us: f64,
    pub run_us: f64,
    pub busy: f64,
    pub install_us: f64,
    pub confirm_us: f64,
    pub uninstall_us: f64,
    pub check_us: f64,
    pub encode_us: f64,
    pub shard_part_us: f64,
    pub sweep_skew: f64,
    pub upgrade_shard_us: f64,
    pub install_group_us: f64,
}

/// Submits `f` to `home`'s shard worker, recording queue wait and run
/// time; a refused submission is counted and retried.
fn probe<R, F>(exec: &FleetExec, home: HomeId, f: F, s: &mut Samples) -> (R, f64)
where
    R: Send + 'static,
    F: FnOnce(&Fleet) -> R + Clone + Send + 'static,
{
    loop {
        let job = f.clone();
        let submitted = Instant::now();
        match exec.run_on_home(home, move |fleet| {
            let started = Instant::now();
            let out = job(fleet);
            (out, started, us(started))
        }) {
            Ok((out, started, run)) => {
                let wait = started.saturating_duration_since(submitted);
                s.queue_wait.push(wait.as_nanos() as f64 / 1e3);
                s.run.push(run);
                return (out, run);
            }
            Err(ExecError::Busy { .. }) => {
                s.busy += 1.0;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ExecError::Gone) => panic!("executor stopped during the exec pass"),
        }
    }
}

/// One home per shard, for submitting shard-level units to its worker.
fn shard_homes(fleet: &Fleet) -> Vec<Option<HomeId>> {
    let mut reps = vec![None; fleet.shard_count()];
    for id in fleet.home_ids() {
        reps[fleet.shard_of(id)].get_or_insert(id);
    }
    reps
}

fn replay_client(
    exec: &FleetExec,
    reps: &[Option<HomeId>],
    log: &[Done],
    s: &mut Samples,
    checks: &mut Checks,
) {
    let mut pending: Option<InstallReport> = None;
    let mut streamed = true;
    for done in log {
        let expect_body = |checks: &mut Checks, got: String| {
            checks.expect(got == done.body, || {
                format!("exec replay of {:?} answered differently: {got}", done.op)
            });
        };
        match done.op.clone() {
            Op::Install { home, name, source } => {
                let (out, run) = probe(
                    exec,
                    home,
                    move |f| f.install_app(home, &source, &name, None),
                    s,
                );
                s.install.push(run);
                match out {
                    Ok(report) => {
                        let t = Instant::now();
                        let text = install_report_json(&report).to_text();
                        s.encode.push(us(t));
                        expect_body(checks, text);
                        pending = (!report.installed).then_some(report);
                    }
                    Err(e) => checks.expect(false, || format!("exec install: {e}")),
                }
            }
            Op::Confirm { home, app } => {
                let Some(report) = pending.take().filter(|r| r.app == app) else {
                    checks.expect(false, || format!("exec replay: nothing pending for {app}"));
                    continue;
                };
                let (out, run) = probe(exec, home, move |f| f.confirm_install(home, report), s);
                s.confirm.push(run);
                match out {
                    Ok(report) => expect_body(checks, install_report_json(&report).to_text()),
                    Err(e) => checks.expect(false, || format!("exec confirm: {e}")),
                }
            }
            Op::Uninstall { home, app } => {
                let (out, run) = probe(exec, home, move |f| f.uninstall_app(home, &app), s);
                s.uninstall.push(run);
                match out {
                    Ok(report) => expect_body(checks, uninstall_report_json(&report).to_text()),
                    Err(e) => checks.expect(false, || format!("exec uninstall: {e}")),
                }
            }
            Op::Check { home, app } => {
                let (out, run) = probe(exec, home, move |f| f.check_install(home, &app), s);
                s.check.push(run);
                match out {
                    Ok(report) => expect_body(checks, install_report_json(&report).to_text()),
                    Err(e) => checks.expect(false, || format!("exec check: {e}")),
                }
            }
            Op::Get { home } => {
                let (out, _) = probe(
                    exec,
                    home,
                    move |f| f.with_home(home, |h| h.installed_apps()),
                    s,
                );
                match out {
                    Ok(apps) => expect_body(checks, home_json(home, &apps)),
                    Err(e) => checks.expect(false, || format!("exec get: {e}")),
                }
            }
            Op::Upgrade { name, source } => {
                let merged = if streamed {
                    streamed_upgrade(exec, &name, &source, s)
                } else {
                    sharded_upgrade(exec, reps, &name, &source, s)
                };
                streamed = !streamed;
                let last = done.body.lines().last().unwrap_or("");
                let got = rollout_line(&merged);
                checks.expect(got == last, || format!("exec rollout differs: {got}"));
            }
            Op::InstallMany {
                homes,
                name,
                source,
            } => {
                let outcomes = grouped_install(exec, &homes, &name, &source, s);
                let got = Json::obj([("outcomes", bulk_json(&outcomes))]).to_text();
                expect_body(checks, got);
            }
            Op::ForceUninstall { app } => match exec.force_uninstall(app) {
                Ok(outcome) => expect_body(checks, force_uninstall_json(&outcome).to_text()),
                Err(e) => checks.expect(false, || format!("exec force uninstall: {e}")),
            },
            Op::Stats => {}
        }
    }
}

/// `FleetExec::begin_upgrade`, timing each shard part's arrival.
fn streamed_upgrade(exec: &FleetExec, name: &str, source: &str, s: &mut Samples) -> UpgradeRollout {
    let started = Instant::now();
    let mut stream = exec
        .begin_upgrade(source.to_string(), name.to_string())
        .expect("executor running")
        .expect("upgrade source ingests");
    let mut arrivals = Vec::new();
    while stream.next_part().is_some() {
        arrivals.push(us(started));
    }
    let mid = median(&arrivals);
    let slowest = arrivals.iter().copied().fold(0.0, f64::max);
    if mid > 0.0 {
        s.skew.push(slowest / mid);
    }
    s.part_arrival.extend(arrivals);
    stream.finish()
}

/// The same rollout as one `Fleet::upgrade_shard` closure per shard
/// worker, timing each unit.
fn sharded_upgrade(
    exec: &FleetExec,
    reps: &[Option<HomeId>],
    name: &str,
    source: &str,
    s: &mut Samples,
) -> UpgradeRollout {
    exec.fleet()
        .ingest_app_as(source, name)
        .expect("upgrade source ingests");
    let source = Arc::new(source.to_string());
    let app = Arc::new(name.to_string());
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = reps
            .iter()
            .enumerate()
            .filter_map(|(shard, rep)| rep.map(|home| (shard, home)))
            .map(|(shard, home)| {
                let (source, app) = (source.clone(), app.clone());
                scope.spawn(move || {
                    let mut local = Samples::default();
                    let (part, run) = probe(
                        exec,
                        home,
                        move |f| f.upgrade_shard(shard, &source, &app),
                        &mut local,
                    );
                    local.upgrade_shard.push(run);
                    (part, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard probe thread"))
            .collect::<Vec<_>>()
    });
    let mut merged_parts = Vec::new();
    for (part, local) in parts {
        s.absorb(local);
        merged_parts.push(part);
    }
    UpgradeRollout::merge(name, merged_parts)
}

/// A bulk install as the executor runs it — ingest once, one
/// `Fleet::install_group` per shard — timing each group.
fn grouped_install(
    exec: &FleetExec,
    homes: &[HomeId],
    name: &str,
    source: &str,
    s: &mut Samples,
) -> hg_service::BulkOutcomes {
    let fleet = exec.fleet();
    fleet.ingest_app(source, name).expect("bulk source ingests");
    let mut groups: Vec<Vec<(usize, HomeId)>> = vec![Vec::new(); fleet.shard_count()];
    for (pos, &id) in homes.iter().enumerate() {
        groups[fleet.shard_of(id)].push((pos, id));
    }
    let source = Arc::new(source.to_string());
    let app = Arc::new(name.to_string());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|group| {
                let (source, app) = (source.clone(), app.clone());
                scope.spawn(move || {
                    let mut local = Samples::default();
                    let ids: Vec<HomeId> = group.iter().map(|&(_, id)| id).collect();
                    let (outcomes, run) = probe(
                        exec,
                        ids[0],
                        move |f| f.install_group(&ids, &source, &app, None),
                        &mut local,
                    );
                    local.install_group.push(run);
                    (group, outcomes, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("group probe thread"))
            .collect::<Vec<_>>()
    });
    let mut slots: Vec<Option<(HomeId, _)>> = homes.iter().map(|_| None).collect();
    for (group, outcomes, local) in results {
        s.absorb(local);
        for ((pos, _), outcome) in group.into_iter().zip(outcomes) {
            slots[pos] = Some(outcome);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every home belongs to a group"))
        .collect()
}

/// Replays every client's log concurrently through executor closures.
pub fn exec_pass<B: Bench>(
    bench: &B,
    seed: u64,
    logs: &[Vec<Done>],
    checks: &mut Checks,
) -> ExecLayers {
    let (rig, _plan) = bench.build(seed, false);
    let exec = rig.state().exec();
    let reps = shard_homes(&rig.fleet);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .map(|log| {
                let (exec, reps) = (&exec, &reps);
                scope.spawn(move || {
                    let mut samples = Samples::default();
                    let mut local = Checks::default();
                    replay_client(exec, reps, log, &mut samples, &mut local);
                    (samples, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exec replay thread"))
            .collect::<Vec<_>>()
    });
    let mut s = Samples::default();
    for (samples, local) in results {
        s.absorb(samples);
        checks.absorb(local);
    }
    ExecLayers {
        queue_wait_us: median(&s.queue_wait),
        run_us: median(&s.run),
        busy: s.busy,
        install_us: median(&s.install),
        confirm_us: median(&s.confirm),
        uninstall_us: median(&s.uninstall),
        check_us: median(&s.check),
        encode_us: median(&s.encode),
        shard_part_us: median(&s.part_arrival),
        sweep_skew: median(&s.skew),
        upgrade_shard_us: median(&s.upgrade_shard),
        install_group_us: median(&s.install_group),
    }
}

/// In-process `GET /metrics` through the route table (which first waits
/// for the collector to fold everything published), median of 5.
pub fn scrape_us(rig: &Rig) -> f64 {
    let bytes = b"GET /metrics HTTP/1.1\r\nhost: homebench\r\n\r\n";
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let request = read_request(&mut &bytes[..], &Limits::default())
                .ok()
                .flatten()
                .expect("static request parses");
            let t = Instant::now();
            let _ = handle(rig.state(), &request);
            us(t)
        })
        .collect();
    median(&samples)
}

/// Layer timings of one recovery.
pub struct Recovery {
    pub open_us: f64,
    pub replay_records_per_s: f64,
}

/// Layer timings of one recovery from `dir`: `Journal::open`, and the
/// replay rate `Fleet::recover` reports on the journal's event bus.
pub fn recovery_layers(dir: &std::path::Path, checks: &mut Checks) -> Recovery {
    let t = Instant::now();
    let journal = open_journal(dir, None);
    let open_us = us(t);
    let bus = Arc::new(TelemetryBus::new());
    journal.set_telemetry(bus.clone());
    let recovered = Fleet::recover(Arc::new(journal));
    checks.expect(recovered.is_ok(), || "traced recovery failed".to_string());
    let mut events = Vec::new();
    bus.drain_since(0, &mut events);
    let replay_records_per_s = events
        .iter()
        .find_map(|(_, event)| match event {
            TelemetryEvent::JournalReplayed { records, micros } => {
                Some(*records as f64 / (*micros).max(1) as f64 * 1e6)
            }
            _ => None,
        })
        .unwrap_or(0.0);
    Recovery {
        open_us,
        replay_records_per_s,
    }
}

/// Per-home snapshot decode (`hg_persist::home_from_text`, the codec a
/// checkpoint document is made of), median over up to 32 homes, with the
/// median document size.
pub fn home_decode(fleet: &Fleet) -> (f64, f64) {
    let (mut micros, mut bytes) = (Vec::new(), Vec::new());
    for id in fleet.home_ids().into_iter().take(32) {
        let Ok(state) = fleet.export_home(id) else {
            continue;
        };
        let text = hg_persist::home_to_text(&state);
        let t = Instant::now();
        let _ = std::hint::black_box(hg_persist::home_from_text(&text));
        micros.push(us(t));
        bytes.push(text.len() as f64);
    }
    (median(&micros), median(&bytes))
}

/// Chain length bound of a deployment-default home (`HomeBuilder`).
pub const CHAIN_DEPTH: usize = 4;

/// Lower-layer samples: direct calls into the store, the extractor and
/// the detection engine.
#[derive(Default)]
pub struct Lower {
    ingest: Vec<f64>,
    ingests: f64,
    ingest_hits: f64,
    extract: Vec<f64>,
    check: Vec<f64>,
    chains: Vec<f64>,
    installs: f64,
    stats: hg_detector::DetectStats,
}

impl Lower {
    /// `RuleStore::ingest` (or `ingest_as`), plus a standalone
    /// `hg_symexec::extract` of the same source when the store missed.
    pub fn ingest(&mut self, fleet: &Fleet, source: &str, name: &str, as_name: bool) -> bool {
        let store = fleet.store();
        let hit = store.has_ingested(source, name);
        let t = Instant::now();
        let ok = if as_name {
            store.ingest_as(source, name).is_ok()
        } else {
            store.ingest(source, name).is_ok()
        };
        self.ingest.push(us(t));
        self.ingests += 1.0;
        if hit {
            self.ingest_hits += 1.0;
        } else {
            let t = Instant::now();
            let _ = std::hint::black_box(hg_symexec::extract(source, name, store.config()));
            self.extract.push(us(t));
        }
        ok
    }

    /// `DetectionEngine::check` (or `check_excluding` for an upgrade) of
    /// `app`'s store rules in `home`, then `find_chains` over the Allowed
    /// list plus the new threats — the report `Home` would stage.
    pub fn stage(
        &mut self,
        fleet: &Fleet,
        home: HomeId,
        app: &str,
        upgrade: bool,
        install: bool,
    ) -> Option<InstallReport> {
        let rules = fleet.store().rules_of(app).ok()?;
        fleet
            .with_home(home, |h| {
                let t = Instant::now();
                let (threats, stats) = if upgrade {
                    h.engine().check_excluding(&rules, app)
                } else {
                    h.engine().check(&rules)
                };
                self.check.push(us(t));
                if install {
                    self.installs += 1.0;
                    self.stats.absorb(stats);
                }
                let t = Instant::now();
                let mut edges = hg_detector::Edge::from_threats(&threats);
                let allowed: Vec<_> = h
                    .allowed()
                    .iter()
                    .filter(|t| !upgrade || (t.source.app != app && t.target.app != app))
                    .cloned()
                    .collect();
                edges.extend(hg_detector::Edge::from_threats(&allowed));
                let chains: Vec<_> = hg_detector::find_chains(&edges, CHAIN_DEPTH)
                    .into_iter()
                    .filter(|c| c.rules.iter().any(|r| r.app == app))
                    .collect();
                self.chains.push(us(t));
                InstallReport {
                    app: app.to_string(),
                    rules,
                    threats,
                    chains,
                    stats,
                    installed: false,
                    config: None,
                    replaces: upgrade.then(|| app.to_string()),
                    dropped_ranks: Vec::new(),
                }
            })
            .ok()
    }

    pub fn metrics(&self) -> Vec<crate::Metric> {
        use crate::metric;
        use crate::rig::ratio;
        let s = &self.stats;
        let check_total: f64 = self.check.iter().sum();
        vec![
            metric("core.ingest_us", median(&self.ingest), "us"),
            metric(
                "core.ingest_hit_ratio",
                ratio(self.ingest_hits, self.ingests),
                "ratio",
            ),
            metric("symexec.extract_us", median(&self.extract), "us"),
            metric("detector.check_us", median(&self.check), "us"),
            metric("detector.pair_us", ratio(check_total, s.pairs as f64), "us"),
            metric(
                "detector.pairs_per_install",
                ratio(s.pairs as f64, self.installs),
                "count",
            ),
            metric(
                "detector.pruned_ratio",
                ratio(s.pruned as f64, (s.pruned + s.pairs) as f64),
                "ratio",
            ),
            metric(
                "detector.solves_per_install",
                ratio(s.solves as f64, self.installs),
                "count",
            ),
            metric(
                "detector.lowered_share",
                ratio(
                    s.lowered_hits as f64,
                    (s.lowered_hits + s.solver_fallbacks) as f64,
                ),
                "ratio",
            ),
            metric("detector.chains_us", median(&self.chains), "us"),
        ]
    }
}

/// Pass over per-home ops (install, confirm, uninstall, check, get): each
/// install is staged by direct lower-layer calls and committed through
/// `Fleet::confirm_install` when clean or confirmed, so the fleet evolves
/// exactly as it did behind the HTTP server.
pub fn lower_home_ops(fleet: &Fleet, logs: &[Vec<Done>], checks: &mut Checks) -> Lower {
    let mut lower = Lower::default();
    for log in logs {
        let mut pending: Option<InstallReport> = None;
        for done in log {
            let got = match &done.op {
                Op::Install { home, name, source } => {
                    lower.ingest(fleet, source, name, false);
                    let Some(report) = lower.stage(fleet, *home, name, false, true) else {
                        checks.expect(false, || format!("lower pass could not stage {name}"));
                        continue;
                    };
                    if report.is_clean() {
                        fleet
                            .confirm_install(*home, report)
                            .map(|r| install_report_json(&r).to_text())
                    } else {
                        let text = install_report_json(&report).to_text();
                        pending = Some(report);
                        Ok(text)
                    }
                }
                Op::Confirm { home, .. } => match pending.take() {
                    Some(report) => fleet
                        .confirm_install(*home, report)
                        .map(|r| install_report_json(&r).to_text()),
                    None => Ok(String::new()),
                },
                Op::Uninstall { home, app } => fleet
                    .uninstall_app(*home, app)
                    .map(|r| uninstall_report_json(&r).to_text()),
                Op::Check { home, app } => Ok(lower
                    .stage(fleet, *home, app, false, false)
                    .map(|r| install_report_json(&r).to_text())
                    .unwrap_or_default()),
                Op::Get { home } => {
                    fleet.with_home(*home, |h| home_json(*home, &h.installed_apps()))
                }
                _ => continue,
            };
            checks.expect(got.as_ref().is_ok_and(|g| *g == done.body), || {
                format!("lower-layer replay of {:?} answered {got:?}", done.op)
            });
        }
    }
    lower
}
