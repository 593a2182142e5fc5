//! The observability surface end to end: start the `hg-api` frontend
//! with its telemetry hub (the default), drive fleet traffic, then
//! scrape everything a dashboard would — `/metrics` in JSON and
//! Prometheus text, the per-app interference table (paper Fig. 8), the
//! verdict-cache hot-pair leaderboard, the latency histograms, a live
//! `/events/stream` NDJSON tail — and prove the counters reconcile with
//! the traffic the moment each request returns.
//!
//! Run with: `cargo run -p homeguard-examples --bin fleet_dashboard`

use hg_api::{ApiServer, ServerConfig, SESSION_HEADER};
use hg_rules::json::Json;
use hg_service::{Fleet, RuleStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One request over a fresh connection; returns (status, raw body).
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    token: Option<&str>,
    body: Option<&Json>,
) -> (u16, String) {
    let payload = body.map(|b| b.to_text()).unwrap_or_default();
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: fleet\r\nconnection: close\r\n");
    if let Some(token) = token {
        head.push_str(&format!("{SESSION_HEADER}: {token}\r\n"));
    }
    if !payload.is_empty() {
        head.push_str(&format!("content-length: {}\r\n", payload.len()));
    }
    head.push_str("\r\n");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{head}{payload}").as_bytes())
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head/body split");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (
        status,
        String::from_utf8_lossy(&raw[split + 4..]).into_owned(),
    )
}

fn json(body: &str) -> Json {
    Json::parse(body).expect("JSON body")
}

/// One counter from a `GET /metrics` JSON body (0 when never bumped).
fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .unwrap_or(0)
}

/// JSON payload lines of a chunked NDJSON body (chunk-size lines are hex,
/// payload lines are objects).
fn ndjson(body: &str) -> Vec<Json> {
    body.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Json::parse(l).ok())
        .collect()
}

fn main() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(4).build());
    let server = ApiServer::start(fleet, ServerConfig::default()).expect("bind loopback");
    let addr = server.addr();
    println!("=== fleet dashboard over http://{addr} ===");

    // ---- traffic: installs, one conflict, a fleet-wide rollout ---------
    let (_, body) = call(addr, "POST", "/sessions", None, None);
    let token = json(&body)
        .get("token")
        .and_then(Json::as_str)
        .expect("session token")
        .to_string();
    let mut homes = Vec::new();
    for _ in 0..8 {
        let (_, body) = call(addr, "POST", "/homes", Some(&token), None);
        homes.push(json(&body).get("home").and_then(Json::as_num).unwrap());
    }
    let comfort_tv = hg_corpus::benign_app("ComfortTV").expect("corpus app");
    let cold_defender = hg_corpus::benign_app("ColdDefender").expect("corpus app");
    let install = |name: &str, source: &str, home: i64| {
        call(
            addr,
            "POST",
            &format!("/homes/{home}/install"),
            Some(&token),
            Some(&Json::obj([
                ("source", Json::str(source)),
                ("name", Json::str(name)),
            ])),
        )
    };
    for &home in &homes {
        let (status, _) = install(comfort_tv.name, comfort_tv.source, home);
        assert_eq!(status, 200);
    }
    let (_, dirty) = install(cold_defender.name, cold_defender.source, homes[0]);
    assert_eq!(json(&dirty).get("pending"), Some(&Json::Bool(true)));
    call(
        addr,
        "POST",
        &format!("/homes/{}/confirm", homes[0]),
        Some(&token),
        Some(&Json::obj([("app", Json::str(cold_defender.name))])),
    );
    let v2 = format!("{}\n// v2\n", comfort_tv.source);
    call(
        addr,
        "POST",
        "/fleet/upgrades",
        Some(&token),
        Some(&Json::obj([
            ("source", Json::str(&v2)),
            ("name", Json::str(comfort_tv.name)),
        ])),
    );
    println!(
        "traffic: {} homes, {} clean installs, 1 confirmed conflict, 1 rollout",
        homes.len(),
        homes.len()
    );

    // ---- /metrics: flat JSON, exact as soon as the traffic returned ----
    let (status, body) = call(addr, "GET", "/metrics", None, None);
    assert_eq!(status, 200);
    let metrics = json(&body);
    println!("\n--- counters ---");
    for name in [
        "homes_created_total",
        "installs_total",
        "installs_clean_total",
        "installs_dirty_total",
        "threats_total",
        "cache_hits_total",
        "cache_misses_total",
        "sweep_shards_total",
    ] {
        println!("  {name:<28} {}", counter(&metrics, name));
    }
    assert_eq!(counter(&metrics, "homes_created_total"), homes.len() as i64);
    assert!(
        counter(&metrics, "installs_dirty_total") >= 1,
        "the conflict counts"
    );
    assert!(counter(&metrics, "threats_total") >= 1);
    assert_eq!(
        counter(&metrics, "sweep_shards_total"),
        4,
        "one per rollout shard"
    );
    println!("--- gauges ---");
    if let Some(Json::Obj(gauges)) = metrics.get("gauges") {
        for (name, value) in gauges {
            println!("  {name:<28} {}", value.to_text());
        }
    }

    // ---- Prometheus text rendering -------------------------------------
    let (status, prom) = call(addr, "GET", "/metrics?format=prometheus", None, None);
    assert_eq!(status, 200);
    assert!(prom.contains("hg_installs_total"));
    println!(
        "\n--- prometheus ({} lines, first 6) ---",
        prom.lines().count()
    );
    for line in prom.lines().take(6) {
        println!("  {line}");
    }

    // ---- analytics: Fig. 8 interference, hot pairs, latency ------------
    let (_, body) = call(addr, "GET", "/analytics/interference", None, None);
    let rows = json(&body)
        .get("interference")
        .and_then(Json::as_arr)
        .expect("interference rows")
        .to_vec();
    println!("\n--- interference (rate%% · dirty/installs · threats) ---");
    for row in rows.iter().take(5) {
        println!(
            "  {:<16} {:>6.2}%  {}/{}  threats={}",
            row.get("app").and_then(Json::as_str).unwrap_or("?"),
            row.get("rate_pct").and_then(Json::as_num).unwrap_or(0) as f64 / 100.0,
            row.get("dirty").and_then(Json::as_num).unwrap_or(0),
            row.get("installs").and_then(Json::as_num).unwrap_or(0),
            row.get("threats").and_then(Json::as_num).unwrap_or(0),
        );
    }
    assert!(
        rows.iter()
            .any(|r| r.get("app").and_then(Json::as_str) == Some(cold_defender.name)),
        "the conflicting app must appear in the table"
    );

    let (_, body) = call(addr, "GET", "/analytics/hot-pairs?limit=5", None, None);
    let pairs = json(&body)
        .get("hot_pairs")
        .and_then(Json::as_arr)
        .expect("hot pairs")
        .to_vec();
    println!("--- hot pairs ---");
    for pair in &pairs {
        println!(
            "  {}  hits={} entries={} threats={}",
            pair.get("apps")
                .and_then(Json::as_arr)
                .map(|a| a
                    .iter()
                    .filter_map(Json::as_str)
                    .collect::<Vec<_>>()
                    .join(" ↔ "))
                .unwrap_or_default(),
            pair.get("hits").and_then(Json::as_num).unwrap_or(0),
            pair.get("entries").and_then(Json::as_num).unwrap_or(0),
            pair.get("threats").and_then(Json::as_num).unwrap_or(0),
        );
    }

    let (_, body) = call(addr, "GET", "/analytics/latency", None, None);
    let histograms = json(&body);
    let install_count = histograms
        .get("histograms")
        .and_then(|h| h.get("install_micros"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_num)
        .unwrap_or(0);
    println!("--- latency: install_micros count={install_count} ---");
    assert_eq!(
        install_count,
        homes.len() as i64 + 1 + counter(&metrics, "sweep_shards_total"),
        "every install write is timed exactly once: each home's install, \
         the conflict, and each rollout shard"
    );

    // ---- live NDJSON event tail ----------------------------------------
    let (status, body) = call(
        addr,
        "GET",
        "/events/stream?cursor=0&limit=6&max_ms=1000",
        None,
        None,
    );
    assert_eq!(status, 200);
    let lines = ndjson(&body);
    println!("--- event tail (first {} events) ---", lines.len());
    for line in &lines {
        println!("  {}", line.to_text());
    }
    assert_eq!(lines.len(), 6, "the limit bounds the tail");

    // ---- exact with no wait: counters move by the requests just made ---
    let (homes_before, installs_before) = (
        counter(&metrics, "homes_created_total"),
        counter(&metrics, "installs_total"),
    );
    let extra = 3;
    for _ in 0..extra {
        let (_, body) = call(addr, "POST", "/homes", Some(&token), None);
        let home = json(&body).get("home").and_then(Json::as_num).unwrap();
        let (status, _) = install(comfort_tv.name, comfort_tv.source, home);
        assert_eq!(status, 200);
    }
    let (_, body) = call(addr, "GET", "/metrics", None, None);
    let after = json(&body);
    assert_eq!(
        counter(&after, "homes_created_total"),
        homes_before + extra,
        "every home creation is counted when its request returns"
    );
    assert_eq!(
        counter(&after, "installs_total"),
        installs_before + extra,
        "every install is counted when its request returns"
    );
    println!(
        "\nno-wait scrape: {extra} more homes and installs → installs_total \
         {installs_before} → {}",
        counter(&after, "installs_total")
    );

    server.shutdown();
    println!("=== dashboard audit complete ===");
}
