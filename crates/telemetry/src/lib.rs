//! # hg-telemetry — fleet observability for HomeGuard
//!
//! The fleet detects, mediates, caches and serves — this crate is where
//! it finally *measures*. Three pieces, std-only like the rest of the
//! service stack:
//!
//! * [`TelemetryBus`] — the bounded event bus the hot paths publish
//!   [`TelemetryEvent`]s into through a cheap `Option<Arc<TelemetryBus>>`
//!   handle. `None` is the zero-cost default. Each publish stamps, folds
//!   and retains its events under one lock in a single ring; overflow
//!   drops the oldest event from the ring and counts it, so a slow
//!   `/events/stream` reader costs history, never throughput.
//! * [`MetricsRegistry`] — counters, fixed-bucket histograms and the
//!   paper's fleet analytics (per-app interference table, latency
//!   splits); it renders them with gauges the scraper samples. The bus folds every event into its registry as it is
//!   published, so totals are exact the moment an operation returns.
//!   Counters live in memory and reset on restart.
//! * [`TelemetryHub`] — the thread-free handle a server keeps: the bus
//!   and, through it, the registry.
//!
//! The design invariant, enforced by the differential test in
//! `tests/telemetry_differential.rs`: telemetry is a **pure observer**.
//! Attaching a bus changes no report, no trace and no snapshot bit;
//! detaching it leaves behind nothing but an un-taken measurement.

pub mod bus;
pub mod event;
pub mod hub;
pub mod metrics;

pub use bus::TelemetryBus;
pub use event::TelemetryEvent;
pub use hub::TelemetryHub;
pub use metrics::{AppInterference, Histogram, MetricsRegistry};
