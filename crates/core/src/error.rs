//! The unified HomeGuard error taxonomy and fleet-level home identities.
//!
//! Before the fleet redesign, failures outside extraction either panicked
//! (`expect("rule store poisoned")`) or were silently swallowed
//! (`rules_from_text(..).ok()`). Every user-reachable entry point across
//! `homeguard-core`, `hg-service` and the runtime surfaces now returns
//! [`HgError`], so a caller driving thousands of homes can tell a missing
//! app from a failed extraction from a poisoned shard — and react per home
//! instead of crashing the service.

use hg_symexec::ExtractError;
use std::fmt;

/// Identity of one home inside a fleet registry (`hg-service`).
///
/// Handles are plain integers: `Copy`, `Ord` and cheap to pass across
/// threads. The fleet assigns them densely at
/// [`create_home`](https://docs.rs/hg-service) time and uses them to route
/// to the owning shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HomeId(u64);

impl HomeId {
    /// Wraps a raw id (fleet-internal; tests may forge ids to probe
    /// [`HgError::UnknownHome`]).
    pub fn new(raw: u64) -> HomeId {
        HomeId(raw)
    }

    /// The raw integer identity (shard routing key).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for HomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "home-{}", self.0)
    }
}

/// Everything that can go wrong on a HomeGuard service entry point.
#[derive(Debug)]
#[non_exhaustive]
pub enum HgError {
    /// Symbolic extraction of an app's source failed.
    Extract {
        /// The app whose source was being extracted.
        app: String,
        /// The underlying extractor failure.
        error: ExtractError,
    },
    /// No home with this id is registered in the fleet.
    UnknownHome(HomeId),
    /// The app is not in the rule store (or not installed where the
    /// operation requires it to be).
    UnknownApp(String),
    /// A lifecycle operation (uninstall, upgrade) targeted an app whose
    /// installation was never confirmed in this home.
    UnconfirmedInstall(String),
    /// The app's installation is already confirmed in this home; use
    /// `upgrade_app` to replace it.
    AlreadyInstalled(String),
    /// An upgrade's new source declares a different app name than the
    /// installed app it was submitted for.
    UpgradeRenames {
        /// The app name the upgrade was submitted for.
        installed: String,
        /// The name the new source actually declares.
        new: String,
    },
    /// A lock was poisoned by a panicking writer and the guarded state
    /// cannot be trusted (fleet shards; the rule store itself recovers).
    Poisoned(&'static str),
    /// A persisted snapshot could not be decoded: corrupt bytes, a wrong
    /// or missing schema version, or a structurally invalid document.
    /// Restoration fails as a whole — a snapshot is never half-applied.
    Snapshot(String),
    /// The write-ahead journal failed: an append could not be made
    /// durable, a stored record or checkpoint is corrupt, or replay hit a
    /// record the live fleet refuses. The in-memory operation that
    /// triggered a failed append has still been applied — the error tells
    /// the caller its durability guarantee lapsed, not that state is bad.
    Journal(String),
    /// The service is running degraded and refuses this write: its
    /// write-ahead journal is quarantined after exhausting I/O retries, or
    /// the fleet was replaced and its journal handed to the new one.
    /// Unlike [`HgError::Journal`], nothing was applied: the mutation was
    /// rejected up front and can be retried verbatim once the journal
    /// heals. Reads keep serving.
    Degraded(String),
}

impl HgError {
    /// Extraction failure for `app`.
    pub fn extract(app: impl Into<String>, error: ExtractError) -> HgError {
        HgError::Extract {
            app: app.into(),
            error,
        }
    }
}

impl fmt::Display for HgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HgError::Extract { app, error } => write!(f, "extraction of `{app}` failed: {error}"),
            HgError::UnknownHome(id) => write!(f, "no such home: {id}"),
            HgError::UnknownApp(app) => write!(f, "unknown app: `{app}`"),
            HgError::UnconfirmedInstall(app) => {
                write!(f, "`{app}` has no confirmed installation in this home")
            }
            HgError::AlreadyInstalled(app) => {
                write!(f, "`{app}` is already installed in this home")
            }
            HgError::UpgradeRenames { installed, new } => {
                write!(
                    f,
                    "upgrade of `{installed}` declares a different name `{new}`"
                )
            }
            HgError::Poisoned(what) => write!(f, "poisoned lock: {what}"),
            HgError::Snapshot(detail) => write!(f, "invalid snapshot: {detail}"),
            HgError::Journal(detail) => write!(f, "journal failure: {detail}"),
            HgError::Degraded(detail) => write!(f, "service degraded: {detail}"),
        }
    }
}

impl std::error::Error for HgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HgError::Extract { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_informative() {
        let e = HgError::UnknownApp("Ghost".into());
        assert!(e.to_string().contains("Ghost"));
        let e = HgError::UnknownHome(HomeId::new(7));
        assert!(e.to_string().contains("home-7"));
        let e = HgError::UpgradeRenames {
            installed: "A".into(),
            new: "B".into(),
        };
        assert!(e.to_string().contains("different name"));
        let e = HgError::Journal("segment 3 torn".into());
        assert!(e.to_string().contains("journal failure"));
        assert!(e.to_string().contains("segment 3 torn"));
        let e = HgError::Degraded("journal quarantined at offset 4".into());
        assert!(e.to_string().contains("degraded"));
        assert!(e.to_string().contains("offset 4"));
    }

    #[test]
    fn home_ids_are_ordered_and_round_trip() {
        let a = HomeId::new(1);
        let b = HomeId::new(2);
        assert!(a < b);
        assert_eq!(a.raw(), 1);
        assert_eq!(a, HomeId::new(1));
    }

    #[test]
    fn extract_errors_expose_their_source() {
        use std::error::Error as _;
        let e = HgError::extract("App", ExtractError::Unsupported("call".into()));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("unsupported"));
    }
}
