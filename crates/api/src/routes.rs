//! Route dispatch: one function per endpoint, all over the shared
//! [`AppState`].
//!
//! | Route | Auth | Effect |
//! |---|---|---|
//! | `POST /sessions` | — | issue a bearer token |
//! | `DELETE /sessions` | token | revoke the session |
//! | `POST /homes` | token | create a home (session adopts it) |
//! | `GET /homes/{id}` | owner | installed apps |
//! | `DELETE /homes/{id}` | owner | deregister the home |
//! | `POST /homes/{id}/check` | owner | dry-run install check |
//! | `POST /homes/{id}/install` | owner | install (dirty → stashed pending) |
//! | `POST /homes/{id}/confirm` | owner | confirm the stashed report |
//! | `POST /homes/{id}/upgrade` | owner | per-home upgrade |
//! | `POST /homes/{id}/uninstall` | owner | per-home uninstall |
//! | `POST /fleet/install_many` | token | bulk install via the queue executor |
//! | `POST /fleet/upgrades` | token | streamed fleet rollout |
//! | `POST /fleet/uninstall` | token | fleet-wide forced uninstall |
//! | `GET /snapshot` | token | full fleet snapshot |
//! | `POST /restore` | token | revive a fleet from a snapshot |
//! | `GET /health` | — | liveness: always 200, body says `ok`/`degraded` |
//! | `GET /ready` | — | readiness: 503 when quarantined or poisoned |
//! | `POST /journal/heal` | token | re-arm a quarantined journal (fresh checkpoint) |
//! | `GET /stats` | — | fleet + queue + session gauges |
//! | `GET /journal/stats` | — | journal offsets, segment and checkpoint counts |
//! | `GET /metrics` | — | metrics registry and journal counters (JSON; `?format=prometheus`) |
//! | `GET /analytics/interference` | — | per-app interference-rate table |
//! | `GET /analytics/hot-pairs` | — | verdict-cache hot-pair leaderboard |
//! | `GET /analytics/latency` | — | install-write latency histogram |
//! | `GET /events/stream` | — | live NDJSON event tail (`?cursor&limit&max_ms`) |
//!
//! Every per-home mutation dispatches through [`FleetExec`], so a full
//! shard queue surfaces as `429` with `Retry-After` **before** any work
//! is admitted — and, when telemetry is on, as a `queue_saturated` event.

use crate::exec::{ExecConfig, FleetExec, RolloutStream};
use crate::http::{Request, Response};
use crate::session::SessionStore;
use crate::wire::{
    bulk_json, force_uninstall_json, hot_pairs_json, install_report_json, need_home_ids, need_str,
    parse_body, uninstall_report_json, ApiError,
};
use hg_persist::FleetSnapshot;
use hg_rules::json::Json;
use hg_service::{Fleet, HgError, HomeId, Journal, JournalState};
use hg_telemetry::{TelemetryBus, TelemetryHub};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Header carrying the bearer token.
pub const SESSION_HEADER: &str = "x-session";

/// Shared server state: the executor (swappable — `POST /restore`
/// replaces the whole fleet) and the session registry.
pub struct AppState {
    exec: RwLock<Arc<FleetExec>>,
    sessions: SessionStore,
    exec_config: ExecConfig,
    telemetry: Option<TelemetryHub>,
    journal: Option<Arc<Journal>>,
}

impl AppState {
    /// State over a freshly started executor for `fleet`. With a
    /// `telemetry` hub, the hub's bus is attached to the fleet before any
    /// request is served (and re-attached to every fleet `POST /restore`
    /// swaps in), and the observability routes come alive.
    pub fn new(
        fleet: Arc<Fleet>,
        exec_config: ExecConfig,
        sessions: SessionStore,
        telemetry: Option<TelemetryHub>,
    ) -> AppState {
        if let Some(hub) = &telemetry {
            fleet.attach_telemetry(hub.bus().clone());
        }
        AppState {
            exec: RwLock::new(FleetExec::start(fleet, exec_config.clone())),
            sessions,
            exec_config,
            telemetry,
            journal: None,
        }
    }

    /// Attaches a write-ahead journal to the served fleet and remembers it
    /// so `POST /restore` re-journals the swapped-in fleet (the journal is
    /// reset first: a restore starts a new durability timeline) and
    /// `GET /journal/stats` comes alive.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] / [`HgError::Poisoned`] from
    /// [`Fleet::attach_journal`] (writing the baseline checkpoint).
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Result<AppState, HgError> {
        self.exec().fleet().attach_journal(journal.clone())?;
        self.journal = Some(journal);
        Ok(self)
    }

    /// The attached journal, when durability is enabled.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The telemetry hub, when observability is enabled.
    pub fn telemetry(&self) -> Option<&TelemetryHub> {
        self.telemetry.as_ref()
    }

    /// The live executor (the restore route swaps it atomically).
    pub fn exec(&self) -> Arc<FleetExec> {
        self.exec
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The session registry.
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }

    /// Stops the live executor's workers (server shutdown).
    pub fn stop(&self) {
        self.exec().stop();
    }

    fn swap_fleet(&self, fleet: Arc<Fleet>) -> Result<(), HgError> {
        if let Some(hub) = &self.telemetry {
            fleet.attach_telemetry(hub.bus().clone());
        }
        if let Some(journal) = &self.journal {
            // The swapped-in fleet is a new durability timeline: wipe the
            // old fleet's records and re-baseline on the fresh state. From
            // the reset on, the old fleet's late writes (a worker that read
            // `exec()` before the swap, jobs still draining from the old
            // executor) are refused instead of landing in this journal.
            journal.reset()?;
            fleet.attach_journal(journal.clone())?;
        }
        let fresh = FleetExec::start(fleet, self.exec_config.clone());
        let old = std::mem::replace(
            &mut *self
                .exec
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            fresh,
        );
        old.stop();
        Ok(())
    }
}

/// A live NDJSON tail of the fleet event bus, produced by
/// `GET /events/stream` and driven by the connection handler: drain from
/// `cursor`, emit one JSON line per event, park on the bus between
/// batches, stop after `limit` events or `max_ms` elapsed. Both bounds
/// are hard-capped at parse time, so a stream can never pin an HTTP
/// worker past its window; a reader slower than the bus's retention
/// simply misses the dropped-oldest events (each line carries `seq`, so
/// gaps are visible).
pub struct EventStream {
    /// The bus to tail.
    pub bus: Arc<TelemetryBus>,
    /// Starting cursor (sequence number; older events already evicted are
    /// skipped).
    pub cursor: u64,
    /// Stop after this many events.
    pub limit: usize,
    /// Stop after this much wall-clock time.
    pub window: Duration,
}

/// What a route produced: a buffered response or a stream to drive.
pub enum Reply {
    /// A complete response.
    Full(Response),
    /// A chunked-stream rollout (the connection handler drives it).
    Stream(RolloutStream),
    /// A chunked NDJSON live event tail (the connection handler drives
    /// it).
    Events(EventStream),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Full(response)
    }
}

impl From<ApiError> for Reply {
    fn from(error: ApiError) -> Reply {
        Reply::Full(error_response(&error))
    }
}

/// Renders an [`ApiError`] as its JSON response (429s carry
/// `Retry-After`).
pub fn error_response(error: &ApiError) -> Response {
    let response = Response::json(error.status, &error.body());
    if error.status == 429 {
        response.with_header("retry-after", "1")
    } else {
        response
    }
}

/// The telemetry hub, or the 404 every observability route answers when
/// the server runs with telemetry off.
fn need_hub(state: &AppState) -> Result<&TelemetryHub, ApiError> {
    state.telemetry().ok_or_else(|| {
        ApiError::new(
            404,
            "telemetry_disabled",
            "this server runs with telemetry disabled",
        )
    })
}

/// Parses an optional non-negative integer query parameter.
fn query_num(req: &Request, name: &str) -> Result<Option<u64>, ApiError> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
            ApiError::bad_request(format!(
                "query parameter `{name}` must be a non-negative integer, got `{raw}`"
            ))
        }),
    }
}

/// `GET /metrics`: reads the journal's counters and samples the
/// pull-style gauges of the live executor, then renders them with the
/// registry as JSON (default) or Prometheus text (`?format=prometheus`).
fn metrics_route(state: &AppState, req: &Request) -> Result<Reply, ApiError> {
    let hub = need_hub(state)?;
    let exec = state.exec();
    let registry = hub.registry();
    // The journal is its counts' only home; they render as counters.
    let read = state.journal().map_or_else(Vec::new, |journal| {
        let counters = journal.counters();
        vec![
            ("journal_appends_total", counters.appends),
            ("journal_bytes_total", counters.append_bytes),
            ("journal_syncs_total", counters.syncs),
            ("journal_sync_micros_total", counters.sync_micros),
            ("io_retries_total", counters.io_retries),
            ("journal_healed_total", counters.heals),
        ]
    });
    let mut gauges = BTreeMap::new();
    for (index, depth) in exec.shard_depths().into_iter().enumerate() {
        gauges.insert(format!("shard_{index}_queue_depth"), depth as i64);
    }
    let busy_shards = exec.shard_occupancy().iter().filter(|busy| **busy).count();
    for (name, value) in [
        ("shard_workers_busy", busy_shards as i64),
        ("store_queue_depth", exec.store_depth() as i64),
        ("store_workers_busy", exec.store_busy_workers() as i64),
        ("queue_capacity", exec.queue_capacity() as i64),
        ("bus_dropped_events", hub.bus().dropped_events() as i64),
        ("fleet_homes", exec.fleet().len() as i64),
    ] {
        gauges.insert(name.to_string(), value);
    }
    match req.query_param("format") {
        Some("prometheus") => Ok(Response {
            status: 200,
            headers: vec![(
                "content-type".to_string(),
                "text/plain; version=0.0.4".to_string(),
            )],
            body: registry.render_prometheus(&read, &gauges).into_bytes(),
        }
        .into()),
        None | Some("json") => Ok(Response::json(200, &registry.to_json(&read, &gauges)).into()),
        Some(other) => Err(ApiError::bad_request(format!(
            "unknown metrics format `{other}` (expected `json` or `prometheus`)"
        ))),
    }
}

fn token<'a>(state: &AppState, req: &'a Request) -> Result<&'a str, ApiError> {
    let token = req
        .header(SESSION_HEADER)
        .ok_or_else(|| ApiError::new(401, "no_session", "missing x-session header"))?;
    if !state.sessions.validate(token) {
        return Err(ApiError::new(
            401,
            "bad_session",
            "unknown or expired session token",
        ));
    }
    Ok(token)
}

fn owned_home(state: &AppState, req: &Request, id: HomeId) -> Result<(), ApiError> {
    let token = token(state, req)?;
    match state.sessions.owns(token, id) {
        Some(true) => Ok(()),
        Some(false) => Err(ApiError::new(
            403,
            "not_owner",
            format!("session does not own {id}"),
        )),
        None => Err(ApiError::new(
            401,
            "bad_session",
            "session expired mid-request",
        )),
    }
}

/// Splits `/homes/{id}` or `/homes/{id}/{action}` into id and action.
fn home_path(path: &str) -> Option<(HomeId, Option<&str>)> {
    let rest = path.strip_prefix("/homes/")?;
    let mut parts = rest.splitn(2, '/');
    let id = parts.next()?.parse::<u64>().ok()?;
    let action = parts.next().filter(|a| !a.is_empty());
    Some((HomeId::new(id), action))
}

/// Dispatches one request. Streaming routes return [`Reply::Stream`] for
/// the connection handler to drive.
pub fn handle(state: &AppState, req: &Request) -> Reply {
    match dispatch(state, req) {
        Ok(reply) => reply,
        Err(error) => error.into(),
    }
}

fn dispatch(state: &AppState, req: &Request) -> Result<Reply, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/sessions") => {
            let token = state.sessions.issue();
            Ok(Response::json(
                201,
                &Json::obj([
                    ("token", Json::str(token)),
                    ("ttl_secs", Json::Num(state.sessions.ttl().as_secs() as i64)),
                ]),
            )
            .into())
        }
        ("DELETE", "/sessions") => {
            let token = token(state, req)?;
            state.sessions.revoke(token);
            Ok(Response::empty(204).into())
        }
        ("POST", "/homes") => {
            let token = token(state, req)?;
            let exec = state.exec();
            let id = exec.fleet().create_home().map_err(ApiError::from)?;
            state.sessions.adopt(token, id);
            Ok(Response::json(201, &Json::obj([("home", Json::Num(id.raw() as i64))])).into())
        }
        ("GET", "/health") => {
            // Liveness: always 200 — a degraded service is still alive and
            // still serving reads; the body says what degraded.
            let (_healthy, body) = health_json(state);
            Ok(Response::json(200, &body).into())
        }
        ("GET", "/ready") => {
            // Readiness: 503 drops the instance out of a load balancer the
            // moment the journal quarantines or a shard poisons.
            let (healthy, body) = health_json(state);
            Ok(Response::json(if healthy { 200 } else { 503 }, &body).into())
        }
        ("POST", "/journal/heal") => {
            token(state, req)?;
            state.journal().ok_or_else(|| {
                ApiError::new(
                    404,
                    "journal_disabled",
                    "this server runs without a write-ahead journal",
                )
            })?;
            let stats = state
                .exec()
                .fleet()
                .heal_journal()
                .map_err(ApiError::from)?;
            Ok(Response::json(
                200,
                &Json::obj([
                    ("healed", Json::Bool(true)),
                    ("offset", Json::Num(stats.offset as i64)),
                    ("homes", Json::Num(stats.homes as i64)),
                ]),
            )
            .into())
        }
        ("GET", "/stats") => Ok(Response::json(200, &stats_json(state)).into()),
        ("GET", "/journal/stats") => {
            let journal = state.journal().ok_or_else(|| {
                ApiError::new(
                    404,
                    "journal_disabled",
                    "this server runs without a write-ahead journal",
                )
            })?;
            Ok(Response::json(200, &Json::obj([("journal", journal.stats_json())])).into())
        }
        ("GET", "/metrics") => metrics_route(state, req),
        ("GET", "/analytics/interference") => {
            let hub = need_hub(state)?;
            Ok(Response::json(
                200,
                &Json::obj([("interference", hub.registry().interference_json())]),
            )
            .into())
        }
        ("GET", "/analytics/hot-pairs") => {
            need_hub(state)?;
            let limit = query_num(req, "limit")?.unwrap_or(10).clamp(1, 100) as usize;
            let pairs = state
                .exec()
                .fleet()
                .store()
                .verdict_cache()
                .top_pairs(limit);
            Ok(Response::json(200, &Json::obj([("hot_pairs", hot_pairs_json(&pairs))])).into())
        }
        ("GET", "/analytics/latency") => {
            let hub = need_hub(state)?;
            Ok(Response::json(
                200,
                &Json::obj([("histograms", hub.registry().latency_json())]),
            )
            .into())
        }
        ("GET", "/events/stream") => {
            let hub = need_hub(state)?;
            let cursor = query_num(req, "cursor")?.unwrap_or(0);
            let limit = query_num(req, "limit")?.unwrap_or(256).min(10_000) as usize;
            let max_ms = query_num(req, "max_ms")?.unwrap_or(1_000).min(30_000);
            Ok(Reply::Events(EventStream {
                bus: hub.bus().clone(),
                cursor,
                limit,
                window: Duration::from_millis(max_ms),
            }))
        }
        ("GET", "/snapshot") => {
            token(state, req)?;
            let snapshot = state
                .exec()
                .run_on_store(|fleet| fleet.snapshot())
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Response {
                status: 200,
                headers: Vec::new(),
                body: snapshot.to_text().into_bytes(),
            }
            .into())
        }
        ("POST", "/restore") => {
            token(state, req)?;
            let text = std::str::from_utf8(&req.body)
                .map_err(|_| ApiError::bad_request("snapshot is not UTF-8"))?;
            let snapshot = FleetSnapshot::from_text(text).map_err(ApiError::from)?;
            let fleet = Arc::new(Fleet::restore(snapshot).map_err(ApiError::from)?);
            let homes = fleet.len();
            state.swap_fleet(fleet).map_err(ApiError::from)?;
            Ok(Response::json(200, &Json::obj([("homes", Json::Num(homes as i64))])).into())
        }
        ("POST", "/fleet/install_many") => {
            token(state, req)?;
            let body = parse_body(&req.body)?;
            let homes = need_home_ids(&body, "homes")?;
            let source = need_str(&body, "source")?.to_string();
            let name = need_str(&body, "name")?.to_string();
            let outcomes = state
                .exec()
                .install_many(homes, source, name)
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Response::json(200, &Json::obj([("outcomes", bulk_json(&outcomes))])).into())
        }
        ("POST", "/fleet/upgrades") => {
            token(state, req)?;
            let body = parse_body(&req.body)?;
            let source = need_str(&body, "source")?.to_string();
            let name = need_str(&body, "name")?.to_string();
            let stream = state
                .exec()
                .begin_upgrade(source, name)
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Reply::Stream(stream))
        }
        ("POST", "/fleet/uninstall") => {
            token(state, req)?;
            let body = parse_body(&req.body)?;
            let app = need_str(&body, "app")?.to_string();
            let outcome = state.exec().force_uninstall(app).map_err(ApiError::from)?;
            Ok(Response::json(200, &force_uninstall_json(&outcome)).into())
        }
        (method, path) if path.starts_with("/homes/") => {
            let (id, action) = home_path(path)
                .ok_or_else(|| ApiError::new(404, "no_route", format!("no route {path}")))?;
            home_route(state, req, method, id, action)
        }
        (_, path) => Err(ApiError::new(404, "no_route", format!("no route {path}"))),
    }
}

fn home_route(
    state: &AppState,
    req: &Request,
    method: &str,
    id: HomeId,
    action: Option<&str>,
) -> Result<Reply, ApiError> {
    owned_home(state, req, id)?;
    let exec = state.exec();
    match (method, action) {
        ("GET", None) => {
            let apps = exec
                .run_on_home(id, move |fleet| fleet.with_home(id, |h| h.installed_apps()))
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Response::json(
                200,
                &Json::obj([
                    ("home", Json::Num(id.raw() as i64)),
                    ("apps", Json::Arr(apps.into_iter().map(Json::Str).collect())),
                ]),
            )
            .into())
        }
        ("DELETE", None) => {
            exec.run_on_home(id, move |fleet| fleet.remove_home(id))
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            if let Some(tok) = req.header(SESSION_HEADER) {
                state.sessions.disown(tok, id);
            }
            Ok(Response::empty(204).into())
        }
        ("POST", Some("check")) => {
            let body = parse_body(&req.body)?;
            let app = need_str(&body, "app")?.to_string();
            let report = exec
                .run_on_home(id, move |fleet| fleet.check_install(id, &app))
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Response::json(200, &install_report_json(&report)).into())
        }
        ("POST", Some(verb @ ("install" | "upgrade"))) => {
            let body = parse_body(&req.body)?;
            let source = need_str(&body, "source")?.to_string();
            let name = need_str(&body, "name")?.to_string();
            let upgrade = verb == "upgrade";
            let report = exec
                .run_on_home(id, move |fleet| {
                    if upgrade {
                        fleet.upgrade_app(id, &source, &name, None)
                    } else {
                        fleet.install_app(id, &source, &name, None)
                    }
                })
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            let rendered = install_report_json(&report);
            if !report.installed {
                // Dirty verdict: stash the full report server-side so the
                // confirm route needs only the app name.
                if let Some(tok) = req.header(SESSION_HEADER) {
                    state.sessions.stash_pending(tok, id, report);
                }
            }
            Ok(Response::json(200, &rendered).into())
        }
        ("POST", Some("confirm")) => {
            let body = parse_body(&req.body)?;
            let app = need_str(&body, "app")?;
            let tok = req.header(SESSION_HEADER).unwrap_or_default();
            let pending = state.sessions.take_pending(tok, id, app).ok_or_else(|| {
                ApiError::new(
                    409,
                    "nothing_pending",
                    format!("no pending report for `{app}` on {id}"),
                )
            })?;
            let confirmed = exec
                .run_on_home(id, move |fleet| fleet.confirm_install(id, pending))
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Response::json(200, &install_report_json(&confirmed)).into())
        }
        ("POST", Some("uninstall")) => {
            let body = parse_body(&req.body)?;
            let app = need_str(&body, "app")?.to_string();
            let report = exec
                .run_on_home(id, move |fleet| fleet.uninstall_app(id, &app))
                .map_err(ApiError::from)?
                .map_err(ApiError::from)?;
            Ok(Response::json(200, &uninstall_report_json(&report)).into())
        }
        (_, action) => Err(ApiError::new(
            404,
            "no_route",
            format!("no route /homes/{{id}}/{}", action.unwrap_or("")),
        )),
    }
}

/// The health probe body and the verdict behind it: `true` means fully
/// serviceable (journal active or absent, no poisoned shard). Queue
/// saturation is reported but does not fail readiness — a full queue
/// already answers 429 per request and drains on its own.
fn health_json(state: &AppState) -> (bool, Json) {
    let exec = state.exec();
    let fleet = exec.fleet();
    let poisoned = fleet.poisoned_shards();
    let capacity = exec.queue_capacity();
    let max_depth = exec
        .shard_depths()
        .into_iter()
        .chain([exec.store_depth()])
        .max()
        .unwrap_or(0);
    let (journal_json, quarantined) = match state.journal() {
        None => (Json::obj([("enabled", Json::Bool(false))]), false),
        Some(journal) => match journal.state() {
            JournalState::Active => (
                Json::obj([
                    ("enabled", Json::Bool(true)),
                    ("state", Json::str("active")),
                ]),
                false,
            ),
            JournalState::Quarantined {
                durable_offset,
                reason,
            } => (
                Json::obj([
                    ("enabled", Json::Bool(true)),
                    ("state", Json::str("quarantined")),
                    ("durable_offset", Json::Num(durable_offset as i64)),
                    ("reason", Json::str(reason)),
                ]),
                true,
            ),
        },
    };
    let healthy = !quarantined && poisoned == 0;
    let body = Json::obj([
        ("status", Json::str(if healthy { "ok" } else { "degraded" })),
        ("journal", journal_json),
        ("poisoned_shards", Json::Num(poisoned as i64)),
        (
            "queue",
            Json::obj([
                ("capacity", Json::Num(capacity as i64)),
                ("max_depth", Json::Num(max_depth as i64)),
                ("saturated", Json::Bool(max_depth >= capacity)),
            ]),
        ),
    ]);
    (healthy, body)
}

fn stats_json(state: &AppState) -> Json {
    let exec = state.exec();
    let fleet = exec.fleet();
    let capacity = exec.queue_capacity() as i64;
    let depths = exec.shard_depths();
    let occupancy = exec.shard_occupancy();
    Json::obj([
        ("homes", Json::Num(fleet.len() as i64)),
        ("shards", Json::Num(fleet.shard_count() as i64)),
        (
            "store_apps",
            Json::Num(fleet.store().app_names().len() as i64),
        ),
        ("sessions", Json::Num(state.sessions.len() as i64)),
        (
            "shard_queue_depths",
            Json::Arr(depths.iter().map(|d| Json::Num(*d as i64)).collect()),
        ),
        ("store_queue_depth", Json::Num(exec.store_depth() as i64)),
        (
            "shard_queues",
            Json::Arr(
                depths
                    .iter()
                    .zip(occupancy.iter())
                    .map(|(depth, busy)| {
                        Json::obj([
                            ("depth", Json::Num(*depth as i64)),
                            ("capacity", Json::Num(capacity)),
                            ("busy", Json::Bool(*busy)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "store_queue",
            Json::obj([
                ("depth", Json::Num(exec.store_depth() as i64)),
                ("capacity", Json::Num(capacity)),
                ("busy_workers", Json::Num(exec.store_busy_workers() as i64)),
            ]),
        ),
        ("telemetry", Json::Bool(state.telemetry.is_some())),
        ("journal", Json::Bool(state.journal.is_some())),
    ])
}
