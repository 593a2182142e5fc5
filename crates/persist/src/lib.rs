//! # hg-persist — versioned snapshot serialization
//!
//! The paper's deployment model assumes a long-lived per-home guard whose
//! confirmed threat decisions survive across sessions; before this crate
//! the whole system was memory-only — a process restart silently discarded
//! the rule database, every Allowed list and all mediation state. This
//! crate is the durability layer:
//!
//! * **Home snapshots** ([`home_to_text`] / [`home_from_text`]) — one
//!   session's ground truth: installed apps and rules, confirmed/Allowed
//!   threat decisions, the configuration recorder and the handling-policy
//!   table. This is the migration unit: export a home from one process,
//!   import it into another fleet.
//! * **Fleet snapshots** ([`FleetSnapshot`]) — the whole service: the
//!   rule store (database, cached analyses and live ingest fingerprints,
//!   so a restarted store answers unchanged-source ingests from cache),
//!   every home and the registry routing parameters, produced and
//!   consumed by `hg_service::Fleet::{snapshot, restore}`. It is the only
//!   whole-fleet document: an `hg-journal` checkpoint is exactly this
//!   text ([`FleetSnapshot::to_text`]), stored under the journal offset it
//!   covers.
//!
//! ## What is (deliberately) not serialized
//!
//! Snapshots hold **ground truth only**. Derived state — the detection
//! engine's candidate-index postings, the compiled [`MediationIndex`]
//! (`hg-runtime`), any live enforcer — is rebuilt on restore from the
//! rules and the Allowed list, so a snapshot can never disagree with the
//! state it implies. Per-run enforcer memory (one-shot defer grants,
//! fired-rule traces) and effort counters never survive a restart at all.
//!
//! ## Format and versioning guarantees
//!
//! Snapshots are a single JSON document in the same hand-rolled codec the
//! rule-store database uses ([`hg_rules::json`]); an app's rules appear in
//! a snapshot as *exactly* the rule-file bytes the database holds. A
//! whole-fleet document is written straight into its output text one home
//! (and one store app) at a time, never built as one tree of the fleet, so
//! encoding needs about the text's size in extra heap. Every
//! document carries `{"version": N, "kind": "home"|"fleet"}`;
//! readers refuse an unknown kind or version — and any corrupt or garbage
//! input — with a typed [`HgError::Snapshot`](homeguard_core::HgError),
//! never a panic and never a half-applied restore.
//!
//! [`MediationIndex`]: hg_runtime::MediationIndex
//!
//! ## Example
//!
//! ```
//! use homeguard_core::{Home, RuleStore};
//! use hg_persist::{home_from_text, home_to_text};
//! use std::sync::Arc;
//!
//! let store = RuleStore::shared();
//! let mut home = Home::new(store.clone());
//! home.install_app(r#"
//!     definition(name: "OnApp")
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion.active", h) }
//!     def h(evt) { lamp.on() }
//! "#, "OnApp", None).unwrap();
//!
//! // "The process restarts": only the snapshot text survives.
//! let bytes = home_to_text(&home.export_state());
//! let revived = Home::restore_state(store, home_from_text(&bytes).unwrap());
//! assert_eq!(revived.installed_apps(), vec!["OnApp".to_string()]);
//! assert_eq!(revived.installed_rules().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod snapshot;

pub use snapshot::{home_from_text, home_to_text, FleetSnapshot, MAX_SHARDS};
