//! # hg-service — the HomeGuard fleet service surface
//!
//! The paper's deployment model is one cloud-side rule store serving many
//! independent homes ("heavy traffic from millions of users"). The
//! per-home [`Home`] session from `homeguard-core` is single-threaded by
//! design; this crate is the layer that turns a process full of sessions
//! into a **service**: a [`Fleet`] owning an N-way-sharded concurrent
//! registry of homes on top of the shared [`RuleStore`].
//!
//! * **Sharded, not globally locked** — homes live in per-shard
//!   `RwLock`ed maps, routed by [`HomeId`]; installs into different shards
//!   proceed in parallel, and the shared store's ingest cache means one
//!   extraction serves every home installing the same app.
//! * **Full lifecycle** — install → confirm → upgrade → uninstall, each
//!   incremental against the per-home candidate index, plus the fleet-wide
//!   bulk operations [`Fleet::install_many`] (extract once, install
//!   everywhere) and [`Fleet::propagate_upgrade`] (re-extract once,
//!   re-check every home running the app).
//! * **Typed errors** — every entry point returns [`HgError`]; a missing
//!   home, an unknown app, a corrupt rule file, a poisoned shard and a
//!   malformed snapshot are distinct, per-home recoverable conditions.
//! * **Durability** — [`Fleet::snapshot`] / [`Fleet::restore`] capture and
//!   revive the whole service through `hg-persist` (warm restart: ids,
//!   Allowed lists and the ingest cache survive), [`Fleet::export_home`] /
//!   [`Fleet::import_home`] migrate one session between processes, and
//!   [`Fleet::force_uninstall`] retracts a store-pulled app from every
//!   home *and* the shared database. With a write-ahead [`Journal`]
//!   attached ([`Fleet::attach_journal`]), every lifecycle mutation is
//!   journaled and restore becomes *last checkpoint + replay*
//!   ([`Fleet::recover`], [`Fleet::checkpoint`], [`start_checkpointer`]
//!   — see [`durability`]).
//! * **Fault tolerance** — journal I/O failures are classified, retried
//!   and, on exhaustion, quarantined: the fleet keeps serving reads and
//!   refuses every write with [`HgError::Degraded`] before it touches
//!   state, so nothing commits that recovery would roll back.
//!   [`Fleet::heal_journal`] re-arms a recovered backend with a fresh
//!   checkpoint; [`Fleet::poisoned_shards`] is the health-probe
//!   signal. Deterministic chaos lives in [`FaultPlan`] /
//!   [`FaultBackend`] (`tests/chaos_fuzz.rs`).
//!
//! # Examples
//!
//! ```
//! use hg_service::{Fleet, RuleStore};
//!
//! let fleet = Fleet::new(RuleStore::shared());
//! let alice = fleet.create_home().unwrap();
//! let bob = fleet.create_home().unwrap();
//!
//! const APP: &str = r#"
//!     definition(name: "OnApp")
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion.active", h) }
//!     def h(evt) { lamp.on() }
//! "#;
//!
//! // One extraction serves both homes.
//! let results = fleet.install_many(&[alice, bob], APP, "OnApp", None).unwrap();
//! assert!(results.iter().all(|(_, r)| r.as_ref().unwrap().installed));
//! assert!(fleet.store().cache_hits() >= 1);
//!
//! // v2 of the app rolls out fleet-wide with a single re-extraction.
//! let v2 = APP.replace("lamp.on()", "lamp.off()");
//! let rollout = fleet.propagate_upgrade(&v2, "OnApp").unwrap();
//! assert_eq!(rollout.upgraded.len(), 2);
//!
//! // Uninstall retracts: the app's rules stop mediating anything.
//! fleet.uninstall_app(alice, "OnApp").unwrap();
//! assert_eq!(fleet.with_home(alice, |h| h.installed_rules().len()).unwrap(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod fleet;

pub use durability::start_checkpointer;
pub use fleet::{
    BulkOutcomes, Fleet, FleetBuilder, ForceUninstall, ShardRollout, ShardUninstall, UpgradeRollout,
};
pub use hg_journal::{
    CheckpointScheduler, CheckpointStats, DirBackend, FaultBackend, FaultKind, FaultPlan, Journal,
    JournalConfig, JournalRecord, JournalState, MemBackend,
};
pub use hg_persist::FleetSnapshot;
pub use hg_telemetry::{TelemetryBus, TelemetryEvent};
pub use homeguard_core::{
    frontend, HgError, Home, HomeBuilder, HomeId, HomeState, InstallReport, MediationStats,
    PolicyTable, RuleStore, UninstallReport,
};

/// Deployment-facing alias: a [`Fleet`] *is* the HomeGuard service.
pub type HomeGuardService = Fleet;
