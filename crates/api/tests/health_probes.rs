//! Loopback coverage for the health surface: `GET /health` (liveness —
//! always 200, the body names what degraded), `GET /ready` (readiness —
//! 503 drops the instance from a load balancer), and
//! `POST /journal/heal` (operator re-arms a quarantined journal). The
//! failure injections are the real ones: a panicking home handler
//! poisons its shard; a scripted [`FaultBackend`] permanent error
//! quarantines the journal.

mod common;

use common::{app_body, send, ON_APP};
use hg_api::{ApiServer, ServerConfig};
use hg_rules::json::Json;
use hg_service::{
    FaultBackend, FaultKind, FaultPlan, Fleet, HomeId, Journal, JournalConfig, MemBackend,
    RuleStore,
};
use std::sync::Arc;

fn session(server: &ApiServer) -> String {
    send(server.addr(), "POST", "/sessions", None, None)
        .json()
        .get("token")
        .and_then(Json::as_str)
        .expect("session token")
        .to_string()
}

fn create_home(server: &ApiServer, token: &str) -> HomeId {
    let raw = send(server.addr(), "POST", "/homes", Some(token), None)
        .json()
        .get("home")
        .and_then(Json::as_num)
        .expect("home id");
    HomeId::new(raw as u64)
}

fn probe(server: &ApiServer, path: &str) -> (u16, Json) {
    let reply = send(server.addr(), "GET", path, None, None);
    let json = reply.json();
    (reply.status, json)
}

#[test]
fn poisoned_shard_fails_readiness_but_siblings_keep_serving() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(4).build());
    let server = ApiServer::start(fleet.clone(), ServerConfig::default()).expect("bind");
    let token = session(&server);

    // A fresh server is alive and ready; no journal is attached.
    let (status, body) = probe(&server, "/health");
    assert_eq!(status, 200);
    assert_eq!(body.get("status"), Some(&Json::str("ok")));
    assert_eq!(
        body.get("journal").and_then(|j| j.get("enabled")),
        Some(&Json::Bool(false))
    );
    assert_eq!(probe(&server, "/ready").0, 200);

    // Two session-owned homes on different shards.
    let victim = create_home(&server, &token);
    let sibling = (0..4)
        .map(|_| create_home(&server, &token))
        .find(|id| fleet.shard_of(*id) != fleet.shard_of(victim))
        .expect("a home on another shard");

    // A panicking home handler poisons exactly the victim's shard.
    let doomed = fleet.clone();
    std::thread::spawn(move || {
        let _ = doomed.with_home_mut(victim, |_| panic!("handler dies"));
    })
    .join()
    .unwrap_err();

    // Liveness stays 200 but reports the poison; readiness drops out.
    let (status, body) = probe(&server, "/health");
    assert_eq!(status, 200);
    assert_eq!(body.get("status"), Some(&Json::str("degraded")));
    assert_eq!(body.get("poisoned_shards"), Some(&Json::Num(1)));
    let (status, body) = probe(&server, "/ready");
    assert_eq!(status, 503);
    assert_eq!(body.get("status"), Some(&Json::str("degraded")));

    // The poisoned home's requests answer a typed 503; the sibling shard
    // keeps serving installs untouched.
    let dead = send(
        server.addr(),
        "POST",
        &format!("/homes/{}/install", victim.raw()),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    assert_eq!(dead.status, 503);
    assert_eq!(
        dead.json().get("error").and_then(|e| e.get("code")),
        Some(&Json::str("poisoned"))
    );
    let alive = send(
        server.addr(),
        "POST",
        &format!("/homes/{}/install", sibling.raw()),
        Some(&token),
        Some(&app_body(ON_APP, "OnApp")),
    );
    assert_eq!(alive.status, 200);
    assert_eq!(alive.json().get("installed"), Some(&Json::Bool(true)));

    server.shutdown();
}

#[test]
fn journal_quarantine_drops_readiness_until_healed_over_http() {
    let mem = MemBackend::new();
    let fault = FaultBackend::new(mem.clone());
    let journal = Arc::new(
        Journal::open_with(
            Box::new(fault.clone()),
            JournalConfig {
                max_io_attempts: 2,
                backoff_micros: 0,
                ..JournalConfig::default()
            },
        )
        .expect("open journal"),
    );
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    let server =
        ApiServer::start_journaled(fleet, ServerConfig::default(), journal.clone()).expect("bind");
    let token = session(&server);
    create_home(&server, &token);

    let (status, body) = probe(&server, "/health");
    assert_eq!(status, 200);
    assert_eq!(
        body.get("journal").and_then(|j| j.get("state")),
        Some(&Json::str("active"))
    );
    assert_eq!(probe(&server, "/ready").0, 200);

    // The next backend write fails permanently: the in-flight mutation
    // reports its durability lapse (500) and the journal quarantines.
    fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::Permanent));
    let lapsed = send(server.addr(), "POST", "/homes", Some(&token), None);
    assert_eq!(lapsed.status, 500);
    assert_eq!(
        lapsed.json().get("error").and_then(|e| e.get("code")),
        Some(&Json::str("journal_failed"))
    );
    assert!(journal.is_quarantined());

    // Liveness 200 + quarantine detail; readiness 503; writes refuse with
    // a retryable 503 before touching state.
    let (status, body) = probe(&server, "/health");
    assert_eq!(status, 200);
    let journal_body = body.get("journal").expect("journal body");
    assert_eq!(journal_body.get("state"), Some(&Json::str("quarantined")));
    assert!(journal_body.get("durable_offset").is_some());
    assert_eq!(probe(&server, "/ready").0, 503);
    let refused = send(server.addr(), "POST", "/homes", Some(&token), None);
    assert_eq!(refused.status, 503);
    assert_eq!(
        refused.json().get("error").and_then(|e| e.get("code")),
        Some(&Json::str("degraded"))
    );

    // Healing needs a session; unauthenticated probes cannot re-arm.
    assert_eq!(
        send(server.addr(), "POST", "/journal/heal", None, None).status,
        401
    );

    // Operator replaces the disk, heals over HTTP: readiness returns and
    // writes journal again.
    fault.disarm();
    let healed = send(server.addr(), "POST", "/journal/heal", Some(&token), None);
    assert_eq!(healed.status, 200);
    assert_eq!(healed.json().get("healed"), Some(&Json::Bool(true)));
    assert!(!journal.is_quarantined());
    assert_eq!(probe(&server, "/ready").0, 200);
    assert_eq!(
        probe(&server, "/health").1.get("status"),
        Some(&Json::str("ok"))
    );
    let offset = journal.next_offset();
    assert_eq!(
        send(server.addr(), "POST", "/homes", Some(&token), None).status,
        201
    );
    assert_eq!(journal.next_offset(), offset + 1, "append flows post-heal");

    server.shutdown();
}
