//! Snapshot envelopes: versioned, self-describing documents for a single
//! home session or a whole fleet.
//!
//! Every envelope carries the schema version
//! ([`hg_rules::json::SCHEMA_VERSION`]) and a `kind` tag. Readers refuse a
//! wrong kind, then a wrong version, with a typed [`HgError::Snapshot`] —
//! a snapshot written by a future schema generation fails loudly instead
//! of being half-misread into a live fleet.

use crate::codec;
use hg_rules::json::{Json, SCHEMA_VERSION};
use homeguard_core::{HgError, HomeId, HomeState, StoreState};
use std::fmt::Write as _;

/// The largest shard count a fleet snapshot may name. A restored fleet
/// allocates one shard lock per shard and a server spawns one worker
/// thread per shard, so a forged or corrupt document must not choose the
/// count freely.
pub const MAX_SHARDS: usize = 1024;

/// The `{"kind", "payload", "version"}` envelope text around the payload
/// `write_payload` appends, keys in [`Json::to_text`]'s byte order.
fn envelope(kind: &'static str, write_payload: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"kind\":\"{kind}\",\"payload\":");
    write_payload(&mut out);
    let _ = write!(out, ",\"version\":{SCHEMA_VERSION}}}");
    out
}

/// Parses an envelope, checks its kind and then its version, and moves
/// its payload out of the parsed document (no second copy of the tree).
/// A document of another kind is refused by its kind, whatever version
/// it carries.
fn open_envelope(text: &str, kind: &str) -> Result<Json, HgError> {
    let doc = Json::parse(text).map_err(|e| codec::snap_err(e.to_string()))?;
    match doc.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => {}
        Some(k) => {
            return Err(codec::snap_err(format!(
                "snapshot kind `{k}` where `{kind}` was expected"
            )))
        }
        None => return Err(codec::snap_err("missing snapshot kind")),
    }
    match doc.get("version").and_then(Json::as_num) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => {
            return Err(codec::snap_err(format!(
                "schema version {v} (this build reads {SCHEMA_VERSION})"
            )))
        }
        None => return Err(codec::snap_err("missing schema version")),
    }
    match doc {
        Json::Obj(mut fields) => fields.remove("payload"),
        _ => None,
    }
    .ok_or_else(|| codec::snap_err("missing payload"))
}

/// Serializes one home session's exported state — the migration unit: a
/// home exported here can be imported into a different process's fleet.
pub fn home_to_text(state: &HomeState) -> String {
    envelope("home", |out| codec::home_state_to_json(state).write_to(out))
}

/// Parses a home snapshot back.
///
/// # Errors
///
/// [`HgError::Snapshot`] on corrupt bytes, a wrong schema version or kind,
/// or a structurally invalid document.
pub fn home_from_text(text: &str) -> Result<HomeState, HgError> {
    codec::home_state_from_json(&open_envelope(text, "home")?)
}

/// A whole-fleet snapshot: the shared store, every registered home's
/// session state, and the registry's routing parameters. Produced by
/// `Fleet::snapshot()`, consumed by `Fleet::restore()`; [`to_text`] /
/// [`from_text`] are the durable byte form in between. A journal
/// checkpoint is this same document, stored under the journal offset it
/// covers.
///
/// A snapshot holds ground truth only, never telemetry: metrics counters
/// reset when a fleet is restored, as Prometheus counters do on restart.
/// A document that still carries a `telemetry` key loads as before and
/// the key is ignored.
///
/// [`to_text`]: FleetSnapshot::to_text
/// [`from_text`]: FleetSnapshot::from_text
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Shard count — preserved so restored home ids route to the same
    /// shard they lived in. Decoding refuses a count above [`MAX_SHARDS`].
    pub shards: usize,
    /// The id counter, so post-restore `create_home` never reissues a
    /// handle a restored home already holds.
    pub next_id: u64,
    /// The shared rule store's state.
    pub store: StoreState,
    /// Every home's session state, ascending by id.
    pub homes: Vec<(HomeId, HomeState)>,
}

impl FleetSnapshot {
    /// Serializes the snapshot to its durable text form: the `fleet`
    /// envelope around the homes, next id, shard count and store, written
    /// one home and one store app at a time, so encoding holds about one
    /// home's document beside the text.
    pub fn to_text(&self) -> String {
        envelope("fleet", |out| {
            out.push_str("{\"homes\":");
            codec::write_homes(&self.homes, out);
            let _ = write!(
                out,
                ",\"nextId\":{},\"shards\":{},\"store\":",
                self.next_id as i64, self.shards as i64
            );
            codec::write_store(&self.store, out);
            out.push('}');
        })
    }

    /// Parses a fleet snapshot back.
    ///
    /// # Errors
    ///
    /// [`HgError::Snapshot`] on corrupt bytes, a wrong kind or schema
    /// version, a structurally invalid document, a shard count above
    /// [`MAX_SHARDS`], or duplicate home ids.
    pub fn from_text(text: &str) -> Result<FleetSnapshot, HgError> {
        let payload = open_envelope(text, "fleet")?;
        let shards = payload
            .get("shards")
            .and_then(Json::as_num)
            .filter(|&n| n > 0)
            .ok_or_else(|| codec::snap_err("missing or invalid shard count"))?;
        if shards > MAX_SHARDS as i64 {
            return Err(codec::snap_err(format!(
                "shard count {shards} exceeds the limit of {MAX_SHARDS}"
            )));
        }
        Ok(FleetSnapshot {
            shards: shards as usize,
            next_id: codec::nonneg_field(&payload, "nextId")? as u64,
            store: codec::store_state_from_json(
                payload
                    .get("store")
                    .ok_or_else(|| codec::snap_err("missing store"))?,
            )?,
            homes: codec::homes_from_json(
                payload
                    .get("homes")
                    .ok_or_else(|| codec::snap_err("missing homes"))?,
            )?,
        })
    }
}
