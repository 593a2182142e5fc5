//! # hg-journal — write-ahead lifecycle journal and checkpoints
//!
//! Before this crate, the fleet's only durability unit was
//! `hg-persist`'s stop-the-world full snapshot: a restart replayed
//! nothing and a crash lost everything since the last full walk. This
//! crate makes restore = **last checkpoint + replay**:
//!
//! * **[`Journal`]** — an append-only journal of fleet lifecycle events
//!   ([`JournalRecord`], one kind per state change: homes created or
//!   imported, a home removed, an install confirmed into homes, an app
//!   uninstalled from homes, policy and config changes, store
//!   ingest/retire; a record that changes homes names them, one or a
//!   whole batch). Records are framed with per-record CRC-32 checksums
//!   ([`frame`]); segments rotate by size; opening a journal verifies
//!   every frame and **truncates a torn tail** instead of panicking.
//! * **Checkpoints** — the fleet's ground truth as of a journal offset:
//!   the [`hg_persist::FleetSnapshot`] document `GET /snapshot` returns,
//!   stored under the offset it covers, which only the backend key
//!   records. Writing one ([`Journal::checkpoint_write`]) removes every
//!   older checkpoint and every segment but the tail that it covers, so
//!   the journal holds one image plus the records since, and recovery
//!   reads one document ([`Journal::latest_checkpoint`]).
//! * **[`JournalBackend`]** — pluggable storage: [`MemBackend`] (tests,
//!   benches, crash forks) and [`DirBackend`] (a directory of
//!   `seg-*.wal` / `ckpt-*.json` files).
//! * **[`CheckpointScheduler`]** — a background thread driving periodic
//!   checkpoints.
//! * **[`FaultPlan`] / [`FaultBackend`]** — deterministic, seeded I/O
//!   fault injection for chaos tests, driving the journal's failure
//!   policy: classified [`BackendError`]s, bounded retry with tail
//!   repair, quarantine (a quarantined journal refuses writes through
//!   [`Journal::admit`]), and [`Journal::heal`] (a fresh checkpoint
//!   re-arms a recovered backend).
//!
//! The fleet-side wiring (journaled mutation paths, `Fleet::recover`)
//! lives in `hg-service`; this crate knows nothing about live homes —
//! only their exported ground truth.
//!
//! ## Consistency
//!
//! The journal's checkpoint gate makes every checkpoint a consistent
//! cut, and records are state deltas (not re-run commands), so:
//! *newest checkpoint + replay of records `>= offset`* is bit-identical
//! to the live fleet — the property `tests/journal_fuzz.rs` proves by
//! truncating at every record boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod fault;
pub mod frame;
#[allow(clippy::module_inception)]
pub mod journal;
pub mod record;
pub mod scheduler;

pub use backend::{BackendError, DirBackend, JournalBackend, MemBackend};
pub use fault::{FaultBackend, FaultKind, FaultPlan};
pub use journal::{CheckpointStats, Journal, JournalConfig, JournalCounters, JournalState};
pub use record::{journal_context, journal_err, JournalRecord};
pub use scheduler::CheckpointScheduler;
