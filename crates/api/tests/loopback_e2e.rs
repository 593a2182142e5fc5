//! Loopback end-to-end: the HTTP surface must be **behavior-identical**
//! to driving the [`Fleet`] directly — same reports, same typed errors,
//! same rollout merges — plus the network-only semantics: sessions,
//! TTL expiry, queue backpressure (429 + Retry-After), snapshot/restore.

mod common;

use common::{app_body, send, OFF_APP, ON_APP};
use hg_api::{ApiServer, ExecConfig, Limits, ServerConfig, TelemetryEvent};
use hg_rules::json::Json;
use hg_service::{Fleet, HgError, HomeId, Journal, MemBackend, RuleStore};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start(fleet: Arc<Fleet>, exec: ExecConfig, ttl: Duration, reap: Duration) -> ApiServer {
    ApiServer::start(
        fleet,
        ServerConfig {
            exec,
            session_ttl: ttl,
            reap_interval: reap,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn session(server: &ApiServer) -> String {
    send(server.addr(), "POST", "/sessions", None, None)
        .json()
        .get("token")
        .and_then(Json::as_str)
        .expect("session token")
        .to_string()
}

fn create_home(server: &ApiServer, token: &str) -> i64 {
    send(server.addr(), "POST", "/homes", Some(token), None)
        .json()
        .get("home")
        .and_then(Json::as_num)
        .expect("home id")
}

/// `POST /restore` with a snapshot document as the raw body.
fn post_restore(server: &ApiServer, token: &str, snapshot: &[u8]) -> common::Reply {
    let mut raw = format!(
        "POST /restore HTTP/1.1\r\nconnection: close\r\nx-session: {token}\r\ncontent-length: {}\r\n\r\n",
        snapshot.len()
    )
    .into_bytes();
    raw.extend_from_slice(snapshot);
    common::parse_reply(&common::send_raw(server.addr(), &raw))
}

#[test]
fn http_lifecycle_is_identical_to_direct_fleet_calls() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(4).build());
    let server = start(
        fleet,
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let token = session(&server);
    let home = create_home(&server, &token);

    // Reference: the same lifecycle against a directly-driven fleet.
    let direct = Fleet::builder(RuleStore::shared()).shards(4).build();
    let direct_home = direct.create_home().unwrap();

    // Clean install.
    let via_http = send(
        addr,
        "POST",
        &format!("/homes/{home}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    assert_eq!(via_http.status, 200);
    let direct_report = direct
        .install_app(direct_home, ON_APP, "OnApp", None)
        .unwrap();
    let http_json = via_http.json();
    assert_eq!(
        http_json.get("installed"),
        Some(&Json::Bool(direct_report.installed))
    );
    assert_eq!(
        http_json
            .get("threats")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        direct_report.threats.len()
    );

    // Dirty install: same threat verdict, pending on both paths.
    let dirty_http = send(
        addr,
        "POST",
        &format!("/homes/{home}/install"),
        Some(&token),
        Some(&app_body(OFF_APP, "OffApp")),
    );
    let dirty_direct = direct
        .install_app(direct_home, OFF_APP, "OffApp", None)
        .unwrap();
    assert!(!dirty_direct.installed);
    let dirty_json = dirty_http.json();
    assert_eq!(dirty_json.get("installed"), Some(&Json::Bool(false)));
    assert_eq!(dirty_json.get("pending"), Some(&Json::Bool(true)));
    let http_threats = dirty_json.get("threats").and_then(Json::as_arr).unwrap();
    assert_eq!(http_threats.len(), dirty_direct.threats.len());
    assert_eq!(
        http_threats[0].get("kind").and_then(Json::as_str),
        Some(dirty_direct.threats[0].kind.acronym())
    );

    // Confirm via the stashed report; direct path confirms its own.
    let confirmed = send(
        addr,
        "POST",
        &format!("/homes/{home}/confirm"),
        Some(&token),
        Some(&Json::obj([("app", Json::str("OffApp"))])),
    );
    assert_eq!(confirmed.status, 200);
    assert_eq!(confirmed.json().get("installed"), Some(&Json::Bool(true)));
    direct.confirm_install(direct_home, dirty_direct).unwrap();

    // Confirming twice is a typed 409 (nothing pending anymore).
    let again = send(
        addr,
        "POST",
        &format!("/homes/{home}/confirm"),
        Some(&token),
        Some(&Json::obj([("app", Json::str("OffApp"))])),
    );
    assert_eq!(again.status, 409);

    // Both paths now agree on installed apps.
    let apps_http = send(addr, "GET", &format!("/homes/{home}"), Some(&token), None);
    let apps: Vec<String> = apps_http
        .json()
        .get("apps")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|j| j.as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        apps,
        direct
            .with_home(direct_home, |h| h.installed_apps())
            .unwrap()
    );

    // Uninstall agrees too.
    let un_http = send(
        addr,
        "POST",
        &format!("/homes/{home}/uninstall"),
        Some(&token),
        Some(&Json::obj([("app", Json::str("OffApp"))])),
    );
    let un_direct = direct.uninstall_app(direct_home, "OffApp").unwrap();
    assert_eq!(un_http.status, 200);
    assert_eq!(
        un_http.json().get("retired_threats").and_then(Json::as_num),
        Some(un_direct.retired_threats as i64)
    );

    // Typed errors ride through: uninstalling a ghost app is 404 on the
    // wire, UnknownApp directly.
    let ghost = send(
        addr,
        "POST",
        &format!("/homes/{home}/uninstall"),
        Some(&token),
        Some(&Json::obj([("app", Json::str("Ghost"))])),
    );
    assert_eq!(ghost.status, 404);
    assert!(direct.uninstall_app(direct_home, "Ghost").is_err());

    // Deleting the home removes it from the registry.
    let deleted = send(
        addr,
        "DELETE",
        &format!("/homes/{home}"),
        Some(&token),
        None,
    );
    assert_eq!(deleted.status, 204);
    let gone = send(addr, "GET", &format!("/homes/{home}"), Some(&token), None);
    assert_eq!(gone.status, 403, "deleted home is no longer owned");
    server.shutdown();
}

#[test]
fn bulk_install_and_streamed_rollout_match_direct_sweeps() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(4).build());
    let server = start(
        fleet.clone(),
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let token = session(&server);
    let homes: Vec<i64> = (0..12).map(|_| create_home(&server, &token)).collect();

    // Reference fleet, identically populated via direct calls.
    let direct = Fleet::builder(RuleStore::shared()).shards(4).build();
    let direct_ids: Vec<HomeId> = (0..12).map(|_| direct.create_home().unwrap()).collect();

    // Bulk install over HTTP ≡ direct install_many.
    let bulk = send(
        addr,
        "POST",
        "/fleet/install_many",
        Some(&token),
        Some(&Json::obj([
            (
                "homes",
                Json::Arr(homes.iter().map(|&h| Json::Num(h)).collect()),
            ),
            ("source", Json::str(ON_APP)),
            ("name", Json::str("OnApp")),
        ])),
    );
    assert_eq!(bulk.status, 200);
    let outcomes = bulk
        .json()
        .get("outcomes")
        .and_then(Json::as_arr)
        .unwrap()
        .to_vec();
    let direct_outcomes = direct
        .install_many(&direct_ids, ON_APP, "OnApp", None)
        .unwrap();
    assert_eq!(outcomes.len(), direct_outcomes.len());
    for (http, (_, direct_result)) in outcomes.iter().zip(&direct_outcomes) {
        assert_eq!(
            http.get("report").and_then(|r| r.get("installed")),
            Some(&Json::Bool(direct_result.as_ref().unwrap().installed))
        );
    }

    // Give one home a conflict so the rollout has a pending entry.
    fleet
        .install_app_forced(HomeId::new(homes[2] as u64), OFF_APP, "OffApp", None)
        .unwrap();
    direct
        .install_app_forced(direct_ids[2], OFF_APP, "OffApp", None)
        .unwrap();

    // Streamed rollout: one NDJSON line per shard, then the merged
    // summary — which must equal the direct synchronous rollout.
    let v2 = format!("{ON_APP}// v2\n");
    let streamed = send(
        addr,
        "POST",
        "/fleet/upgrades",
        Some(&token),
        Some(&app_body(&v2, "OnApp")),
    );
    assert_eq!(streamed.status, 200);
    assert_eq!(
        streamed
            .header("transfer-encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );
    let lines = streamed.ndjson_lines();
    let (parts, summary): (Vec<&Json>, Vec<&Json>) =
        lines.iter().partition(|l| l.get("shard").is_some());
    assert_eq!(parts.len(), 4, "one progress line per shard");
    assert_eq!(summary.len(), 1, "exactly one merged summary line");
    let mut seen: Vec<i64> = parts
        .iter()
        .map(|p| p.get("shard").and_then(Json::as_num).unwrap())
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3]);

    let direct_rollout = direct.propagate_upgrade(&v2, "OnApp").unwrap();
    let merged = summary[0].get("rollout").expect("merged rollout");
    let upgraded: Vec<i64> = merged
        .get("upgraded")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|j| j.as_num().unwrap())
        .collect();
    assert_eq!(
        upgraded,
        direct_rollout
            .upgraded
            .iter()
            .map(|id| id.raw() as i64)
            .collect::<Vec<_>>(),
        "streamed merge must equal the synchronous rollout"
    );
    assert_eq!(
        merged
            .get("pending")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| j.as_num().unwrap())
            .collect::<Vec<_>>(),
        direct_rollout
            .pending
            .iter()
            .map(|(id, _)| id.raw() as i64)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        merged.get("skipped").and_then(Json::as_num),
        Some(direct_rollout.skipped as i64)
    );

    // Fleet-wide forced uninstall agrees with the direct sweep.
    let pulled = send(
        addr,
        "POST",
        "/fleet/uninstall",
        Some(&token),
        Some(&Json::obj([("app", Json::str("OffApp"))])),
    );
    assert_eq!(pulled.status, 200);
    let direct_pull = direct.force_uninstall("OffApp");
    let pulled_json = pulled.json();
    assert_eq!(
        pulled_json
            .get("removed")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        direct_pull.removed.len()
    );
    assert_eq!(pulled_json.get("store_retired"), Some(&Json::Bool(true)));
    assert!(!fleet.store().has_app("OffApp"));
    server.shutdown();
}

#[test]
fn snapshot_restore_round_trips_over_http() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    let server = start(
        fleet,
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let token = session(&server);
    let home = create_home(&server, &token);
    send(
        addr,
        "POST",
        &format!("/homes/{home}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );

    let snapshot = send(addr, "GET", "/snapshot", Some(&token), None);
    assert_eq!(snapshot.status, 200);
    let text = snapshot.body.clone();

    // Wipe: restore over the snapshot after adding a second home — the
    // restore replaces the whole fleet with the captured one.
    create_home(&server, &token);
    assert_eq!(
        send(addr, "GET", "/stats", None, None)
            .json()
            .get("homes")
            .and_then(Json::as_num),
        Some(2)
    );
    let restored = post_restore(&server, &token, &text);
    assert_eq!(restored.status, 200);
    assert_eq!(restored.json().get("homes").and_then(Json::as_num), Some(1));
    assert_eq!(
        send(addr, "GET", "/stats", None, None)
            .json()
            .get("homes")
            .and_then(Json::as_num),
        Some(1)
    );
    // The restored fleet serves: the surviving home still owns its app.
    let apps = send(addr, "GET", &format!("/homes/{home}"), Some(&token), None);
    assert_eq!(apps.status, 200);
    assert_eq!(
        apps.json()
            .get("apps")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        1
    );
    server.shutdown();
}

/// A snapshot over the default 1 MiB `Limits::max_body` is refused by
/// `POST /restore` with a typed 413, and the same bytes restore once
/// `ServerConfig::limits.max_body` is raised — the documented upgrade path
/// for a large fleet.
#[test]
fn restoring_a_snapshot_over_the_body_limit_needs_a_raised_limit() {
    let fleet = Fleet::builder(RuleStore::shared()).shards(2).build();
    let ids = fleet.create_homes(1_200).unwrap();
    fleet.install_many(&ids, ON_APP, "OnApp", None).unwrap();
    let server = start(
        Arc::new(fleet),
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let token = session(&server);
    let snapshot = send(server.addr(), "GET", "/snapshot", Some(&token), None);
    assert_eq!(snapshot.status, 200);
    let text = snapshot.body;
    let default_limit = Limits::default().max_body;
    assert!(
        text.len() > default_limit,
        "{} B snapshot is within the default limit",
        text.len()
    );

    // Head and body in one write: the server answers 413 from the head,
    // then reads and discards the body the client is still sending, so
    // the refusal is never lost to a connection reset.
    for attempt in 0..10 {
        let refused = post_restore(&server, &token, &text);
        assert_eq!(refused.status, 413, "attempt {attempt}");
        let error = refused.json();
        let message = error
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("attempt {attempt}: no typed error body"));
        assert!(message.contains(&default_limit.to_string()), "{message}");
    }
    server.shutdown();

    let raised = ApiServer::start(
        Arc::new(Fleet::new(RuleStore::shared())),
        ServerConfig {
            limits: Limits {
                max_body: 4 * default_limit,
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let token = session(&raised);
    let restored = post_restore(&raised, &token, &text);
    assert_eq!(restored.status, 200);
    assert_eq!(
        restored.json().get("homes").and_then(Json::as_num),
        Some(ids.len() as i64)
    );
    let round_trip = send(raised.addr(), "GET", "/snapshot", Some(&token), None);
    assert!(
        round_trip.body == text,
        "restored fleet snapshots differently"
    );
    raised.shutdown();
}

/// `POST /restore` starts a new journal timeline. The replaced fleet stays
/// reachable through any executor handle taken before the swap (an HTTP
/// worker mid-request, a job queued on the old executor), but its writes
/// are refused before they touch state or the journal, so recovery
/// reproduces exactly the restored fleet.
#[test]
fn restore_refuses_late_writes_from_the_replaced_fleet() {
    let mem = MemBackend::new();
    let journal = Arc::new(Journal::open(Box::new(mem.clone())).expect("open journal"));
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    let server = ApiServer::start_journaled(fleet, ServerConfig::default(), journal).expect("bind");
    let token = session(&server);
    for _ in 0..3 {
        create_home(&server, &token);
    }
    let single = Fleet::new(RuleStore::shared());
    single.create_home().unwrap();
    let old = server.state().exec();
    let restored = post_restore(
        &server,
        &token,
        single.snapshot().unwrap().to_text().as_bytes(),
    );
    assert_eq!(restored.status, 200);

    assert!(matches!(
        old.fleet().create_home(),
        Err(HgError::Degraded(_))
    ));
    assert!(matches!(
        old.fleet().checkpoint(),
        Err(HgError::Degraded(_))
    ));
    // The restored fleet journals as usual.
    create_home(&server, &token);
    let live = server.state().exec().fleet().snapshot().unwrap().to_text();
    let recovered = Fleet::recover(Arc::new(Journal::open(Box::new(mem.fork())).unwrap())).unwrap();
    assert_eq!(recovered.snapshot().unwrap().to_text(), live);
    assert_eq!(recovered.len(), 2);
    server.shutdown();
}

/// `/metrics` samples its queue gauges from the executor serving the
/// scrape: after `POST /restore` swaps a 16-shard fleet for a 4-shard one,
/// the gauges of the shards that no longer exist are gone from both
/// renderings.
#[test]
fn metrics_gauges_follow_the_restored_fleets_shards() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(16).build());
    let server = start(
        fleet,
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let token = session(&server);
    let shard_gauges = || {
        let json = send(addr, "GET", "/metrics", None, None).json();
        let Some(Json::Obj(gauges)) = json.get("gauges") else {
            panic!("gauges object");
        };
        let names: Vec<String> = gauges
            .keys()
            .filter(|name| name.starts_with("shard_") && name.ends_with("_queue_depth"))
            .cloned()
            .collect();
        let prom = send(addr, "GET", "/metrics?format=prometheus", None, None);
        let text = String::from_utf8(prom.body).unwrap();
        let lines = text
            .lines()
            .filter(|line| line.starts_with("hg_shard_") && line.contains("_queue_depth "))
            .count();
        assert_eq!(lines, names.len(), "both renderings carry the same gauges");
        names
    };
    assert_eq!(shard_gauges().len(), 16);

    let small = Fleet::builder(RuleStore::shared()).shards(4).build();
    small.create_home().unwrap();
    let restored = post_restore(
        &server,
        &token,
        small.snapshot().unwrap().to_text().as_bytes(),
    );
    assert_eq!(restored.status, 200);
    let expected: Vec<String> = (0..4)
        .map(|index| format!("shard_{index}_queue_depth"))
        .collect();
    assert_eq!(shard_gauges(), expected);
    server.shutdown();
}

#[test]
fn saturated_shard_queue_answers_429_with_retry_after() {
    // One shard, queue bound 1: a wedged worker plus one queued job ⇒
    // the next admission must be refused, typed, with Retry-After.
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(1).build());
    let server = start(
        fleet,
        ExecConfig {
            queue_capacity: 1,
            store_workers: 1,
        },
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let token = session(&server);
    let home = create_home(&server, &token);

    // Wedge the single shard worker: a job that blocks until released.
    let exec = server.state().exec();
    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let wedger = {
        let exec = exec.clone();
        std::thread::spawn(move || {
            let _ = exec.run_on_home(HomeId::new(0), move |_fleet| {
                let _ = started_tx.send(());
                let _ = release_rx.recv();
            });
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("wedge job must start");

    // Fill the queue behind the wedged worker.
    let filler = {
        let exec = exec.clone();
        std::thread::spawn(move || {
            let _ = exec.run_on_home(HomeId::new(0), |_fleet| {});
        })
    };
    // Wait until the filler's job is actually queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while exec.shard_depths()[0] < 1 {
        assert!(std::time::Instant::now() < deadline, "filler never queued");
        std::thread::yield_now();
    }

    // The next per-home request over HTTP must be refused up front.
    let refused = send(
        addr,
        "POST",
        &format!("/homes/{home}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    assert_eq!(refused.status, 429);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(
        refused
            .json()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("queue_full")
    );

    // Released, the very same request is admitted and succeeds.
    release_tx.send(()).unwrap();
    wedger.join().unwrap();
    filler.join().unwrap();
    let accepted = send(
        addr,
        "POST",
        &format!("/homes/{home}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    assert_eq!(accepted.status, 200);
    server.shutdown();
}

#[test]
fn metrics_and_analytics_reconcile_exactly_with_observed_traffic() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    let server = start(
        fleet,
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let token = session(&server);
    let home_a = create_home(&server, &token);
    let home_b = create_home(&server, &token);

    // Known traffic: 2 clean installs, 1 dirty install (confirmed — the
    // confirm itself is not a fresh attempt, so it publishes no event).
    send(
        addr,
        "POST",
        &format!("/homes/{home_a}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    let dirty = send(
        addr,
        "POST",
        &format!("/homes/{home_a}/install"),
        Some(&token),
        Some(&app_body(OFF_APP, "OffApp")),
    );
    let threat_count = dirty
        .json()
        .get("threats")
        .and_then(Json::as_arr)
        .expect("threats array")
        .len() as i64;
    assert!(threat_count > 0, "OffApp must conflict with OnApp");
    send(
        addr,
        "POST",
        &format!("/homes/{home_a}/confirm"),
        Some(&token),
        Some(&Json::obj([("app", Json::str("OffApp"))])),
    );
    send(
        addr,
        "POST",
        &format!("/homes/{home_b}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );

    // The bus folds each event as it is published: totals are exact when
    // the requests above returned, with no wait.
    let metrics = send(addr, "GET", "/metrics", None, None);
    assert_eq!(metrics.status, 200);
    let body = metrics.json();
    let counter = |name: &str| {
        body.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or(0)
    };
    assert_eq!(counter("homes_created_total"), 2);
    assert_eq!(counter("installs_total"), 3);
    assert_eq!(counter("installs_clean_total"), 2);
    assert_eq!(counter("installs_dirty_total"), 1);
    assert_eq!(counter("threats_total"), threat_count);
    assert_eq!(
        body.get("gauges")
            .and_then(|g| g.get("fleet_homes"))
            .and_then(Json::as_num),
        Some(2)
    );

    // The Prometheus rendering carries the same totals as labeled text.
    let prom = send(addr, "GET", "/metrics?format=prometheus", None, None);
    assert_eq!(prom.status, 200);
    assert!(prom
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let text = String::from_utf8(prom.body.clone()).unwrap();
    assert!(text.contains("hg_installs_total 3"));
    assert!(text.contains("hg_app_interference_rate{app=\"OffApp\"} 1.0"));

    // Analytics: OffApp tops the interference table (its one attempt was
    // dirty), the hot-pair board knows the OnApp/OffApp pair, and the
    // install histogram saw exactly the three attempts.
    let interference = send(addr, "GET", "/analytics/interference", None, None);
    let rows = interference
        .json()
        .get("interference")
        .and_then(Json::as_arr)
        .expect("interference rows")
        .to_vec();
    assert_eq!(rows[0].get("app").and_then(Json::as_str), Some("OffApp"));
    assert_eq!(rows[0].get("dirty").and_then(Json::as_num), Some(1));
    assert_eq!(rows[0].get("rate_pct").and_then(Json::as_num), Some(10_000));

    let hot = send(addr, "GET", "/analytics/hot-pairs?limit=5", None, None);
    assert_eq!(hot.status, 200);
    let pairs = hot
        .json()
        .get("hot_pairs")
        .and_then(Json::as_arr)
        .expect("hot pairs")
        .to_vec();
    assert!(
        pairs.iter().any(|p| {
            p.get("apps")
                .and_then(Json::as_arr)
                .is_some_and(|apps| apps.iter().filter_map(Json::as_str).eq(["OffApp", "OnApp"]))
        }),
        "the conflicting pair must be on the leaderboard"
    );

    let latency = send(addr, "GET", "/analytics/latency", None, None);
    assert_eq!(
        latency
            .json()
            .get("histograms")
            .and_then(|h| h.get("install_micros"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_num),
        Some(3)
    );

    // /stats exposes the executor gauges: per-shard queue shape and the
    // store pool, plus the telemetry switch.
    let stats = send(addr, "GET", "/stats", None, None).json();
    assert_eq!(stats.get("telemetry"), Some(&Json::Bool(true)));
    let shard_queues = stats
        .get("shard_queues")
        .and_then(Json::as_arr)
        .expect("shard queue gauges");
    assert_eq!(shard_queues.len(), 2);
    for queue in shard_queues {
        assert_eq!(queue.get("depth").and_then(Json::as_num), Some(0));
        assert_eq!(
            queue.get("capacity").and_then(Json::as_num),
            Some(ExecConfig::default().queue_capacity as i64)
        );
        assert_eq!(queue.get("busy"), Some(&Json::Bool(false)));
    }
    assert_eq!(
        stats
            .get("store_queue")
            .and_then(|q| q.get("depth"))
            .and_then(Json::as_num),
        Some(0)
    );

    // Unknown format is a typed 400; disabled telemetry is a typed 404.
    assert_eq!(
        send(addr, "GET", "/metrics?format=xml", None, None).status,
        400
    );
    server.shutdown();

    let dark_fleet = Arc::new(Fleet::new(RuleStore::shared()));
    let dark = ApiServer::start(
        dark_fleet,
        ServerConfig {
            telemetry: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let refused = send(dark.addr(), "GET", "/metrics", None, None);
    assert_eq!(refused.status, 404);
    assert_eq!(
        refused
            .json()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("telemetry_disabled")
    );
    assert_eq!(
        send(dark.addr(), "GET", "/stats", None, None)
            .json()
            .get("telemetry"),
        Some(&Json::Bool(false))
    );
    dark.shutdown();
}

#[test]
fn event_stream_tails_live_events_and_a_slow_reader_cannot_wedge_a_worker() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    let server = start(
        fleet,
        ExecConfig::default(),
        Duration::from_secs(60),
        Duration::from_secs(60),
    );
    let addr = server.addr();
    let bus = server
        .state()
        .telemetry()
        .expect("telemetry on by default")
        .bus()
        .clone();

    // Some history before the stream opens…
    for home in 0..3 {
        bus.publish(TelemetryEvent::HomesCreated { homes: vec![home] });
    }

    // …then a deliberately slow reader: request the tail, go silent, and
    // let the bus overflow its retention while nothing is consumed.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(
            b"GET /events/stream?cursor=0&limit=5&max_ms=5000 HTTP/1.1\r\n\
              host: loopback\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // More events than default retention holds (32,768), so the
    // flood must shed history while the reader sits on an unread socket.
    for home in 0..40_000u64 {
        bus.publish(TelemetryEvent::HomesCreated { homes: vec![home] });
    }
    assert!(
        bus.dropped_events() > 0,
        "the flood must overflow retention — publishers drop oldest, never block"
    );

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream completes");
    let reply = common::parse_reply(&raw);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/x-ndjson"));
    let lines = reply.ndjson_lines();
    assert_eq!(lines.len(), 5, "the limit bounds the stream");
    let seqs: Vec<i64> = lines
        .iter()
        .map(|l| l.get("seq").and_then(Json::as_num).expect("seq"))
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "sequence numbers must strictly increase (gaps mark drops): {seqs:?}"
    );
    assert!(lines
        .iter()
        .all(|l| l.get("type").and_then(Json::as_str) == Some("homes_created")));

    // The worker is free again: the server keeps serving.
    assert_eq!(send(addr, "GET", "/stats", None, None).status, 200);

    // With no events arriving, the wall-clock window ends the stream.
    let started = std::time::Instant::now();
    let idle = common::parse_reply(&common::send_raw(
        addr,
        b"GET /events/stream?cursor=99999999&max_ms=300 HTTP/1.1\r\n\
          host: loopback\r\nconnection: close\r\n\r\n",
    ));
    assert_eq!(idle.status, 200);
    assert!(idle.ndjson_lines().is_empty(), "nothing new to tail");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the window must bound the idle stream"
    );

    // Bad cursor input is a typed 400, not a hung stream.
    assert_eq!(
        send(addr, "GET", "/events/stream?cursor=banana", None, None).status,
        400
    );
    server.shutdown();
}

#[test]
fn expired_sessions_are_rejected_and_reaped() {
    let fleet = Arc::new(Fleet::new(RuleStore::shared()));
    let server = start(
        fleet,
        ExecConfig::default(),
        Duration::from_millis(150),
        Duration::from_millis(30),
    );
    let addr = server.addr();
    let token = session(&server);
    let home = create_home(&server, &token);
    assert_eq!(
        send(addr, "GET", "/stats", None, None)
            .json()
            .get("sessions")
            .and_then(Json::as_num),
        Some(1)
    );

    // Past the TTL the token is refused on a mutating route…
    std::thread::sleep(Duration::from_millis(400));
    let expired = send(
        addr,
        "POST",
        &format!("/homes/{home}/install"),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    assert_eq!(expired.status, 401);

    // …and the reaper thread has already reclaimed the session.
    assert_eq!(
        send(addr, "GET", "/stats", None, None)
            .json()
            .get("sessions")
            .and_then(Json::as_num),
        Some(0)
    );

    // A fresh session starts clean — but cannot touch the orphaned home.
    let fresh = session(&server);
    let foreign = send(addr, "GET", &format!("/homes/{home}"), Some(&fresh), None);
    assert_eq!(foreign.status, 403);
    server.shutdown();
}
