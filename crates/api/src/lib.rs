//! # hg-api — the networked fleet frontend
//!
//! The paper's deployment is a cloud backend serving "heavy traffic from
//! millions of users"; `hg-service` gives that backend its concurrent
//! in-process form ([`Fleet`]), and this crate puts a **network edge** in
//! front of it, built entirely on `std` (the repo takes no external
//! dependencies):
//!
//! * **Per-shard work-queue executor** ([`FleetExec`]) — one bounded
//!   queue + dedicated worker per fleet shard, plus a store-operation
//!   pool. Same-home requests serialize in submission order; different
//!   shards run concurrently; a full queue refuses at admission time.
//!   Fleet-wide sweeps dispatch the fleet's own per-shard units
//!   ([`Fleet::upgrade_shard`](hg_service::Fleet::upgrade_shard) and
//!   friends) and merge through its deterministic helpers, so
//!   queue-dispatched results are identical to the serial walk.
//! * **HTTP/1.1 over `std::net`** — a strict hand-rolled parser (method,
//!   line, header and body limits; `Content-Length` only) where every
//!   malformed request is a typed 4xx, plus keep-alive and chunked
//!   streaming for rollout progress.
//! * **Sessions** — bearer tokens with a sliding TTL, per-session home
//!   ownership, server-side stashing of dirty install reports for the
//!   confirm flow, and a periodic expiry reaper.
//! * **Backpressure** — full queues surface as `429` with `Retry-After`
//!   before any work is admitted (and publish `queue_saturated` events
//!   when telemetry is on).
//! * **Observability** — a [`TelemetryHub`] (on by default) attaches the
//!   fleet event bus and serves `GET /metrics` (JSON or Prometheus text),
//!   `GET /analytics/{interference,hot-pairs,latency}` and a live
//!   `GET /events/stream` NDJSON tail. Counters are exact when a request
//!   returns and reset when the process restarts.
//!
//! See [`routes`] for the endpoint table and [`ApiServer`] to run one.
//!
//! # Examples
//!
//! ```
//! use hg_api::{ApiServer, ServerConfig};
//! use hg_service::{Fleet, RuleStore};
//! use std::sync::Arc;
//!
//! let fleet = Arc::new(Fleet::new(RuleStore::shared()));
//! let server = ApiServer::start(fleet, ServerConfig::default()).unwrap();
//! let addr = server.addr(); // connect any HTTP client here
//! assert_ne!(addr.port(), 0);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod http;
pub mod routes;
pub mod server;
pub mod session;
pub mod wire;

pub use exec::{ExecConfig, ExecError, FleetExec, RolloutStream, WorkQueue};
pub use http::{Limits, Request, Response};
pub use routes::{AppState, EventStream, SESSION_HEADER};
pub use server::{ApiServer, ServerConfig};
pub use session::SessionStore;
pub use wire::ApiError;

// Re-exported so examples and tests can build a fleet without naming the
// service crate separately.
pub use hg_service::Fleet;

// Re-exported so clients can read the hub (the registry for totals, the
// bus for in-process tails) without naming the telemetry crate.
pub use hg_telemetry::{MetricsRegistry, TelemetryBus, TelemetryEvent, TelemetryHub};
