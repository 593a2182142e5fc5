//! # hg-telemetry — fleet observability for HomeGuard
//!
//! The fleet detects, mediates, caches and serves — this crate is where
//! it finally *measures*. Three pieces, std-only like the rest of the
//! service stack:
//!
//! * [`TelemetryBus`] — the bounded event bus the fleet publishes
//!   [`TelemetryEvent`]s into, with its journal and its work-queue
//!   executor. The fleet is the only lifecycle publisher and publishes
//!   once per write: a bulk install, a rollout shard or a batch creation
//!   is one event carrying its homes, counts and threat tally, never one
//!   event per home. The journal publishes its four transitions only
//!   (checkpoint, replay, quarantine, heal): its appends, syncs and
//!   retries publish nothing. Homes, detectors and enforcers hold no bus.
//!   Each publish stamps, folds and retains its events under one lock in a
//!   single ring; overflow drops the oldest event from the ring and
//!   counts it, so a slow `/events/stream` reader costs history, never
//!   throughput.
//! * [`MetricsRegistry`] — counters, a fixed-bucket install-write latency
//!   histogram and the paper's per-app interference table; it renders
//!   them with the counters and gauges the scraper reads from their
//!   owners, such as the journal's append, sync and retry counters. The
//!   bus folds every event into its registry as it is published, so
//!   totals are exact the moment an operation returns. Counters live in
//!   memory and reset on restart.
//! * [`TelemetryHub`] — the thread-free handle a server keeps: the bus
//!   and, through it, the registry.
//!
//! The design invariant, enforced by the differential test in
//! `tests/telemetry_differential.rs`: telemetry is a **pure observer**.
//! Attaching a bus changes no report, no trace and no snapshot bit;
//! detaching it leaves behind nothing but an un-taken measurement.
//! Mediation cost is not an event: it stays in each home's
//! `MediationStats`, summed by `Fleet::mediation_stats`.

pub mod bus;
pub mod event;
pub mod hub;
pub mod metrics;

pub use bus::TelemetryBus;
pub use event::{Sweep, TelemetryEvent, ThreatCount};
pub use hub::TelemetryHub;
pub use metrics::{AppInterference, Histogram, MetricsRegistry};
