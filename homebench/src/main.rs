//! homebench — one command that drives seeded workloads through the real
//! HomeGuard serving path (keep-alive HTTP → sessions → per-shard queues →
//! fleet → store/detector → `DirBackend` journal, telemetry on) and checks
//! every answer.
//!
//! ```text
//! cargo run --release --manifest-path homebench/Cargo.toml -- \
//!     --workload home_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload again with per-layer timing taken around the calls the
//! benchmark makes into each crate's public API (nothing inside the
//! program is instrumented) and prints the per-layer metrics. The last
//! stdout line is one JSON object `{correct, attempted, failed, metrics}`;
//! a failed answer check makes the exit code non-zero.

mod churn;
mod rig;
mod rollout;
mod trace;
mod vetting;

use hg_rules::json::Json;
use hg_service::{Fleet, HomeId};
use rig::{median, open_journal, peak_rss_mb, quantile, ratio, Call, Conn, Rig, ScratchDir};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// `setup_s` is the median over five batches; a batch repeats the set-up
/// until it has run for `BATCH_SECONDS` and reports the mean. Short
/// set-ups thus get many samples, and every sample spans long enough to
/// average out brief slow phases of a shared machine.
const BATCH_SECONDS: f64 = 2.0;

/// Mean duration (seconds) of `step` over `batches` batches, one entry
/// per batch.
fn batches(batches: usize, mut step: impl FnMut() -> f64) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let (mut total, mut runs) = (0.0, 0.0);
            while runs == 0.0 || total < BATCH_SECONDS {
                total += step();
                runs += 1.0;
            }
            total / runs
        })
        .collect()
}

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Answer checks: every failure is counted and the first few explained.
#[derive(Default)]
pub struct Checks {
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }
}

/// A client operation: the request it maps to and, once sent, the
/// recorded reply (see [`Done`]). Traced replays re-run the same ops.
#[derive(Clone, Debug)]
pub enum Op {
    Install {
        home: HomeId,
        name: String,
        source: Arc<String>,
    },
    Confirm {
        home: HomeId,
        app: String,
    },
    Uninstall {
        home: HomeId,
        app: String,
    },
    Check {
        home: HomeId,
        app: String,
    },
    Get {
        home: HomeId,
    },
    Upgrade {
        name: String,
        source: Arc<String>,
    },
    InstallMany {
        homes: Vec<HomeId>,
        name: String,
        source: Arc<String>,
    },
    ForceUninstall {
        app: String,
    },
    Stats,
}

fn home_path(home: HomeId, action: &str) -> String {
    format!("/homes/{}/{action}", home.raw())
}

impl Op {
    pub fn call(&self) -> Call {
        match self {
            Op::Install { home, name, source } => Call::post(
                home_path(*home, "install"),
                Json::obj([
                    ("name", Json::str(name.as_str())),
                    ("source", Json::str(source.as_str())),
                ]),
            ),
            Op::Confirm { home, app } => Call::post(
                home_path(*home, "confirm"),
                Json::obj([("app", Json::str(app.as_str()))]),
            ),
            Op::Uninstall { home, app } => Call::post(
                home_path(*home, "uninstall"),
                Json::obj([("app", Json::str(app.as_str()))]),
            ),
            Op::Check { home, app } => Call::post(
                home_path(*home, "check"),
                Json::obj([("app", Json::str(app.as_str()))]),
            ),
            Op::Get { home } => Call::get(format!("/homes/{}", home.raw())),
            Op::Upgrade { name, source } => Call::post(
                "/fleet/upgrades".to_string(),
                Json::obj([
                    ("name", Json::str(name.as_str())),
                    ("source", Json::str(source.as_str())),
                ]),
            ),
            Op::InstallMany {
                homes,
                name,
                source,
            } => Call::post(
                "/fleet/install_many".to_string(),
                Json::obj([
                    (
                        "homes",
                        Json::Arr(homes.iter().map(|h| Json::Num(h.raw() as i64)).collect()),
                    ),
                    ("name", Json::str(name.as_str())),
                    ("source", Json::str(source.as_str())),
                ]),
            ),
            Op::ForceUninstall { app } => Call::post(
                "/fleet/uninstall".to_string(),
                Json::obj([("app", Json::str(app.as_str()))]),
            ),
            Op::Stats => Call::get("/stats".to_string()),
        }
    }

    /// The home a per-home route addresses.
    pub fn home(&self) -> Option<HomeId> {
        match self {
            Op::Install { home, .. }
            | Op::Confirm { home, .. }
            | Op::Uninstall { home, .. }
            | Op::Check { home, .. }
            | Op::Get { home } => Some(*home),
            _ => None,
        }
    }

    /// Reads touch neither the journal nor the write path.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Check { .. } | Op::Get { .. } | Op::Stats)
    }
}

/// A sent op with its reply and client-side latency.
#[derive(Clone, Debug)]
pub struct Done {
    pub op: Op,
    pub status: u16,
    pub body: String,
    pub micros: f64,
}

impl Done {
    pub fn json(&self) -> Option<Json> {
        Json::parse(self.body.lines().last().unwrap_or("")).ok()
    }
}

/// Sends `op` on `conn`, logging the reply. `None` (and a failed check)
/// when the transport fails or the status is not 2xx.
pub fn exchange<'a>(
    conn: &mut Conn,
    op: Op,
    token: &str,
    log: &'a mut Vec<Done>,
    checks: &mut Checks,
) -> Option<&'a Done> {
    let bytes = op.call().render(token, false);
    let started = Instant::now();
    match conn.send(&bytes) {
        Ok(reply) => {
            let micros = rig::us(started);
            let ok = (200..300).contains(&reply.status);
            checks.expect(ok, || {
                format!("{op:?} answered {}: {}", reply.status, reply.body)
            });
            log.push(Done {
                op,
                status: reply.status,
                body: reply.body,
                micros,
            });
            ok.then(|| log.last().expect("just pushed"))
        }
        Err(e) => {
            checks.expect(false, || format!("{op:?} failed on the wire: {e}"));
            None
        }
    }
}

/// Reads the memory high-water mark once the timed window has finished a
/// fixed number of workload ops, so `peak_rss_mb` covers set-up plus the
/// same amount of serving traffic however fast the window runs.
pub struct PeakProbe {
    at: usize,
    done: AtomicUsize,
    mb: OnceLock<f64>,
}

impl PeakProbe {
    fn op_done(&self) {
        // A count that publishes no other data.
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.mb.set(peak_rss_mb());
        }
    }
}

/// When a client stops issuing ops.
#[derive(Clone, Copy)]
pub enum Stop<'a> {
    /// Timed window: no new op starts after the instant; the probe counts
    /// every finished op.
    At(Instant, &'a PeakProbe),
    /// The fixed-size tail sent right after set-up.
    Tail,
}

impl Stop<'_> {
    /// Whether op number `n` (0-based) of a client may start, given the
    /// workload's tail length. In the window, op `n - 1` has finished.
    pub fn go(self, n: usize, tail: usize) -> bool {
        match self {
            Stop::At(deadline, peak) => {
                if n > 0 {
                    peak.op_done();
                }
                Instant::now() < deadline
            }
            Stop::Tail => n < tail,
        }
    }
}

/// What a workload provides to the generic run.
pub trait Bench: Sync {
    type Plan: Send + Sync;
    /// Window ops after which `peak_rss_mb` is read (see [`PeakProbe`]).
    const PEAK_OPS: usize;

    /// Builds the journaled fleet and the clients' plan from the seed.
    fn build(&self, seed: u64, traced: bool) -> (Rig, Self::Plan);
    /// Session tokens, one per client.
    fn tokens<'a>(&self, plan: &'a Self::Plan) -> &'a [String];
    /// Runs every client until `stop`; one log per client.
    fn drive(
        &self,
        rig: &Rig,
        plan: &mut Self::Plan,
        stop: Stop<'_>,
        checks: &mut Checks,
    ) -> Vec<Vec<Done>>;
    /// End-of-run answer checks against the live server.
    fn verify(&self, rig: &Rig, plan: &Self::Plan, logs: &[Vec<Done>], checks: &mut Checks) -> u64;
    /// The workload's throughput over the window's logs (`ops_per_s`).
    fn throughput(&self, logs: &[Vec<Done>], secs: f64) -> f64;
    /// Whether `op` counts toward `write_p50_ms` / `write_p95_ms`.
    fn timed_write(&self, op: &Op) -> bool {
        !op.is_read()
    }
    /// Lower-layer pass: direct calls into store, extractor and detector
    /// on a fresh build, replaying `logs`.
    fn lower(&self, seed: u64, logs: &[Vec<Done>], checks: &mut Checks) -> Vec<Metric>;
    /// Checks the traced window's fresh extractions (moves of the store's
    /// ingest epoch) and verdict-cache hit ratio against what the
    /// workload is built to cause.
    fn check_window(
        &self,
        _window: &[Vec<Done>],
        _extracts: u64,
        _hit_ratio: f64,
        _checks: &mut Checks,
    ) {
    }
}

/// Latency quantile over the selected ops of `logs`, milliseconds.
fn latency_ms(logs: &[Vec<Done>], q: f64, pick: impl Fn(&Op) -> bool) -> f64 {
    let samples: Vec<f64> = logs
        .iter()
        .flatten()
        .filter(|d| pick(&d.op))
        .map(|d| d.micros / 1e3)
        .collect();
    quantile(&samples, q)
}

/// The end-to-end figures the window's logs give.
fn window_metrics<B: Bench>(bench: &B, logs: &[Vec<Done>], secs: f64) -> Vec<Metric> {
    let write = |op: &Op| bench.timed_write(op);
    vec![
        metric("ops_per_s", bench.throughput(logs, secs), "1/s"),
        metric("write_p50_ms", latency_ms(logs, 0.5, write), "ms"),
        metric("write_p95_ms", latency_ms(logs, 0.95, write), "ms"),
        metric("read_p50_ms", latency_ms(logs, 0.5, Op::is_read), "ms"),
        metric("read_p95_ms", latency_ms(logs, 0.95, Op::is_read), "ms"),
    ]
}

/// Homes per second of `POST /fleet/install_many` wall time.
fn bulk_installs_per_s(logs: &[Vec<Done>]) -> f64 {
    let (mut homes, mut secs) = (0.0, 0.0);
    for done in logs.iter().flatten() {
        if let Op::InstallMany { homes: h, .. } = &done.op {
            homes += h.len() as f64;
            secs += done.micros / 1e6;
        }
    }
    ratio(homes, secs)
}

/// Copies the journal directory while every client is idle: the image a
/// process kill at this instant leaves behind. Returns it with the live
/// fleet's snapshot text at the same instant.
fn crash_image(rig: &Rig) -> (ScratchDir, String) {
    let image = ScratchDir::new("image");
    for entry in std::fs::read_dir(&rig.dir.0).expect("listing the journal directory") {
        let entry = entry.expect("journal directory entry");
        std::fs::copy(entry.path(), image.0.join(entry.file_name())).expect("copying the journal");
    }
    let snapshot = rig.fleet.snapshot().expect("live snapshot").to_text();
    (image, snapshot)
}

/// Recovers the journal in `dir` (`Journal::open` + `Fleet::recover`);
/// with `expected`, the recovered fleet must snapshot byte-equal to it.
/// Returns the wall seconds of the recovery alone.
fn recover(dir: &Path, expected: Option<&str>, checks: &mut Checks) -> f64 {
    let started = Instant::now();
    let recovered = Fleet::recover(Arc::new(open_journal(dir, None)));
    let secs = started.elapsed().as_secs_f64();
    match (recovered, expected) {
        (Ok(fleet), Some(expected)) => {
            let text = fleet.snapshot().map(|s| s.to_text());
            checks.expect(text.is_ok_and(|t| t == expected), || {
                "recovered snapshot differs from the live fleet".to_string()
            });
        }
        (Ok(_), None) => {}
        (Err(e), _) => checks.expect(false, || format!("recovery failed: {e}")),
    }
    secs
}

/// The end-of-run kill-and-recover: stops the server, recovers its live
/// journal directory and compares with the live fleet.
fn kill_and_check(rig: &mut Rig, checks: &mut Checks) {
    rig.kill();
    let live = rig.fleet.snapshot().expect("live snapshot").to_text();
    recover(&rig.dir.0, Some(&live), checks);
}

/// Everything one invocation prints.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    checks: Checks,
}

fn count_ops(logs: &[Vec<Done>]) -> u64 {
    logs.iter().map(|l| l.len() as u64).sum()
}

/// The fixed tail: the same ops in every run, sent right after set-up.
/// The recovery image is cut after it, so recovery replays the same
/// records however much the window does.
fn tail_and_image<B: Bench>(
    bench: &B,
    rig: &Rig,
    plan: &mut B::Plan,
    checks: &mut Checks,
) -> (Vec<Vec<Done>>, (ScratchDir, String)) {
    let logs = bench.drive(rig, plan, Stop::Tail, checks);
    (logs, crash_image(rig))
}

/// The timed window; returns its logs, its length in seconds and the
/// memory high-water mark after `B::PEAK_OPS` window ops (`None` when the
/// window finished fewer).
fn window<B: Bench>(
    bench: &B,
    rig: &Rig,
    plan: &mut B::Plan,
    secs: f64,
    checks: &mut Checks,
) -> (Vec<Vec<Done>>, f64, Option<f64>) {
    let peak = PeakProbe {
        at: B::PEAK_OPS,
        done: AtomicUsize::new(0),
        mb: OnceLock::new(),
    };
    let started = Instant::now();
    let stop = Stop::At(started + secs_dur(secs), &peak);
    let logs = bench.drive(rig, plan, stop, checks);
    (
        logs,
        started.elapsed().as_secs_f64(),
        peak.mb.get().copied(),
    )
}

/// Per-client concatenation of the tail and window logs.
fn joined(tail: Vec<Vec<Done>>, window: &[Vec<Done>]) -> Vec<Vec<Done>> {
    tail.into_iter()
        .zip(window)
        .map(|(mut log, more)| {
            log.extend(more.iter().cloned());
            log
        })
        .collect()
}

fn untraced<B: Bench>(bench: &B, seed: u64, secs: f64) -> Report {
    let mut checks = Checks::default();
    let mut world = None;
    let setup_s = median(&batches(5, || {
        drop(world.take());
        let started = Instant::now();
        world = Some(bench.build(seed, false));
        started.elapsed().as_secs_f64()
    }));
    let (mut rig, mut plan) = world.expect("at least one set-up");
    let (tail, (image, at_image)) = tail_and_image(bench, &rig, &mut plan, &mut checks);
    let (window, window_s, peak_rss) = window(bench, &rig, &mut plan, secs, &mut checks);
    let peak_rss = peak_rss.unwrap_or_else(|| {
        eprintln!(
            "note: the window finished fewer than {} ops; peak_rss_mb is read at its end",
            B::PEAK_OPS
        );
        peak_rss_mb()
    });
    let mut metrics = window_metrics(bench, &window, window_s);
    let logs = joined(tail, &window);
    let verified = bench.verify(&rig, &plan, &logs, &mut checks);
    kill_and_check(&mut rig, &mut checks);
    drop(rig);
    recover(&image.0, Some(&at_image), &mut checks);
    metrics.push(metric("setup_s", setup_s, "s"));
    metrics.push(metric("peak_rss_mb", peak_rss, "MiB"));
    Report {
        metrics,
        attempted: count_ops(&logs) + verified,
        checks,
    }
}

fn secs_dur(secs: f64) -> Duration {
    Duration::from_secs_f64(secs)
}

fn write_p50(metrics: &[Metric]) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == "write_p50_ms")
        .map_or(0.0, |m| m.value)
}

fn traced<B: Bench>(bench: &B, seed: u64, secs: f64) -> Report {
    let mut checks = Checks::default();
    let half = secs / 2.0;

    // Untraced half window: the baseline for the tracing overhead.
    let untraced_p50 = {
        let (rig, mut plan) = bench.build(seed, false);
        tail_and_image(bench, &rig, &mut plan, &mut checks);
        let (logs, secs, _) = window(bench, &rig, &mut plan, half, &mut checks);
        write_p50(&window_metrics(bench, &logs, secs))
    };

    // Traced half window: timing journal backend, counters sampled
    // around the window from the program's public state.
    let (mut rig, mut plan) = bench.build(seed, true);
    let (tail, (image, _)) = tail_and_image(bench, &rig, &mut plan, &mut checks);
    let io = rig.io.clone().expect("traced rig times its journal");
    let cache = rig.fleet.store().verdict_cache().clone();
    let (bus0, dropped0) = rig.bus_counts();
    let cache0 = cache.stats();
    let io0 = io.counts();
    let append0 = io.append_ns.lock().expect("append log").len();
    let epoch0 = rig.fleet.store().ingest_epoch();
    let rss0 = rig::rss_mb();
    let (window, window_s, _) = window(bench, &rig, &mut plan, half, &mut checks);
    let ops = count_ops(&window) as f64;
    let logs = joined(tail, &window);
    let e2e = window_metrics(bench, &window, window_s);
    let traced_p50 = write_p50(&e2e);
    let rss_growth_kb = (rig::rss_mb() - rss0) * 1024.0;
    let (bus1, dropped1) = rig.bus_counts();
    let cache1 = cache.stats();
    let extracts = rig.fleet.store().ingest_epoch() - epoch0;
    let io1 = io.counts();
    let append_ns = io.append_ns.lock().expect("append log")[append0..].to_vec();
    let scrape_us = trace::scrape_us(&rig);
    let verified = bench.verify(&rig, &plan, &logs, &mut checks);
    kill_and_check(&mut rig, &mut checks);
    let ckpt_bytes0 = io.counts().3;
    let started = Instant::now();
    let checkpointed = rig.fleet.checkpoint();
    let checkpoint_us = rig::us(started);
    checks.expect(checkpointed.is_ok(), || "checkpoint failed".to_string());
    let checkpoint_bytes = io.counts().3 - ckpt_bytes0;
    let (decode_us, home_bytes) = trace::home_decode(&rig.fleet);
    let recovery = trace::recovery_layers(&image.0, &mut checks);
    let recovers: Vec<f64> = (0..3)
        .map(|_| recover(&image.0, None, &mut checks))
        .collect();
    drop(rig);
    drop(plan);

    let busy = logs.iter().flatten().filter(|d| d.status == 429).count() as f64;
    let routes = trace::routes_pass(bench, seed, &logs, &mut checks);
    let exec = trace::exec_pass(bench, seed, &logs, &mut checks);
    let lower = bench.lower(seed, &logs, &mut checks);

    let attempted = count_ops(&logs) + verified;
    let hits = (cache1.hits - cache0.hits) as f64;
    let lookups = hits + (cache1.misses - cache0.misses) as f64;
    let hit_ratio = ratio(hits, lookups);
    bench.check_window(&window, extracts, hit_ratio, &mut checks);
    let append_us: Vec<f64> = append_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let mut metrics = vec![
        metric(
            "api.error_share",
            ratio(checks.failed as f64, attempted as f64),
            "ratio",
        ),
        metric("api.socket_us", routes.socket_us, "us"),
        metric(
            "api.writes_per_response",
            routes.writes_per_response,
            "count",
        ),
        metric("api.parse_us", routes.parse_us, "us"),
        metric("api.session_us", routes.session_us, "us"),
        metric("api.encode_us", routes.write_us + exec.encode_us, "us"),
        metric(
            "api.bulk_installs_per_s",
            bulk_installs_per_s(&window),
            "1/s",
        ),
        metric("exec.queue_wait_us", exec.queue_wait_us, "us"),
        metric("exec.run_us", exec.run_us, "us"),
        metric("exec.busy_429", busy + exec.busy, "count"),
        metric("exec.shard_part_us", exec.shard_part_us, "us"),
        metric("exec.sweep_skew", exec.sweep_skew, "ratio"),
        metric("service.upgrade_shard_us", exec.upgrade_shard_us, "us"),
        metric("service.install_group_us", exec.install_group_us, "us"),
        metric("service.install_us", exec.install_us, "us"),
        metric("service.confirm_us", exec.confirm_us, "us"),
        metric("service.uninstall_us", exec.uninstall_us, "us"),
        metric("service.check_us", exec.check_us, "us"),
        metric("symexec.extracts", extracts as f64, "count"),
        metric("detector.cache_hit_ratio", hit_ratio, "ratio"),
        metric("detector.cache_entries", cache1.entries as f64, "count"),
        metric(
            "detector.cache_evictions",
            (cache1.evicted - cache0.evicted) as f64,
            "count",
        ),
        metric("journal.append_us", median(&append_us), "us"),
        metric(
            "journal.appends_per_op",
            ratio((io1.0 - io0.0) as f64, ops),
            "count",
        ),
        metric(
            "journal.bytes_per_op",
            ratio((io1.1 - io0.1) as f64, ops),
            "B",
        ),
        metric("journal.fsyncs", (io1.2 - io0.2) as f64, "count"),
        metric("journal.checkpoint_us", checkpoint_us, "us"),
        metric("journal.checkpoint_bytes", checkpoint_bytes as f64, "B"),
        metric("journal.recover_s", median(&recovers), "s"),
        metric("journal.open_us", recovery.open_us, "us"),
        metric("persist.decode_us", decode_us, "us"),
        metric("persist.home_bytes", home_bytes, "B"),
        metric(
            "journal.replay_records_per_s",
            recovery.replay_records_per_s,
            "1/s",
        ),
        metric(
            "service.rss_growth_kb_per_op",
            ratio(rss_growth_kb, ops),
            "KiB",
        ),
        metric(
            "telemetry.events_per_op",
            ratio((bus1 - bus0) as f64, ops),
            "count",
        ),
        metric("telemetry.dropped", (dropped1 - dropped0) as f64, "count"),
        metric("telemetry.scrape_us", scrape_us, "us"),
        metric("trace.untraced_write_p50_ms", untraced_p50, "ms"),
        metric("trace.traced_write_p50_ms", traced_p50, "ms"),
        metric(
            "trace.overhead_share",
            ratio(traced_p50, untraced_p50) - 1.0,
            "ratio",
        ),
    ];
    metrics.extend(lower);
    Report {
        metrics,
        attempted,
        checks,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: homebench --workload <home_churn|fleet_rollout|cold_vetting> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut secs = 10.0f64;
    let mut trace_on = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => secs = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace_on = value == "1",
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let started = Instant::now();
    let report = match (workload.as_str(), trace_on) {
        ("home_churn", false) => untraced(&churn::Churn, seed, secs),
        ("home_churn", true) => traced(&churn::Churn, seed, secs),
        ("fleet_rollout", false) => untraced(&rollout::Rollout, seed, secs),
        ("fleet_rollout", true) => traced(&rollout::Rollout, seed, secs),
        ("cold_vetting", false) => untraced(&vetting::Vetting, seed, secs),
        ("cold_vetting", true) => traced(&vetting::Vetting, seed, secs),
        _ => usage(),
    };
    let correct = report.checks.failed == 0;
    eprintln!(
        "homebench {workload} seed={seed} seconds={secs} trace={} hardware_threads={hardware_threads} \
         journal_fs={} wall={:.1}s",
        u8::from(trace_on),
        rig::fs_type(std::path::Path::new(".")),
        started.elapsed().as_secs_f64()
    );
    for m in &report.metrics {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  error_share {:.6} ({} failed of {} attempted)",
        ratio(report.checks.failed as f64, report.attempted as f64),
        report.checks.failed,
        report.attempted
    );
    for note in &report.checks.notes {
        eprintln!("  CHECK FAILED: {note}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.checks.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
