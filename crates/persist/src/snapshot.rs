//! Snapshot envelopes: versioned, self-describing documents for a rule
//! store, a single home session, or a whole fleet.
//!
//! Every envelope carries the schema version
//! ([`hg_rules::json::SCHEMA_VERSION`]) and a `kind` tag. Readers refuse a
//! wrong version or kind with a typed [`HgError::Snapshot`] — a snapshot
//! written by a future schema generation fails loudly instead of being
//! half-misread into a live fleet.

use crate::codec;
use hg_rules::json::{Json, SCHEMA_VERSION};
use homeguard_core::{HgError, HomeId, HomeState, StoreState};

fn envelope(kind: &'static str, payload: Json) -> Json {
    Json::obj([
        ("version", Json::Num(SCHEMA_VERSION)),
        ("kind", Json::str(kind)),
        ("payload", payload),
    ])
}

fn open_envelope(text: &str, kind: &str) -> Result<Json, HgError> {
    let doc = Json::parse(text).map_err(|e| codec::snap_err(e.to_string()))?;
    match doc.get("version").and_then(Json::as_num) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => {
            return Err(codec::snap_err(format!(
                "schema version {v} (this build reads {SCHEMA_VERSION})"
            )))
        }
        None => return Err(codec::snap_err("missing schema version")),
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => {}
        Some(k) => {
            return Err(codec::snap_err(format!(
                "snapshot kind `{k}` where `{kind}` was expected"
            )))
        }
        None => return Err(codec::snap_err("missing snapshot kind")),
    }
    doc.get("payload")
        .cloned()
        .ok_or_else(|| codec::snap_err("missing payload"))
}

/// Serializes a store's exported state (see `RuleStore::export_state`).
pub fn store_to_text(state: &StoreState) -> String {
    envelope("store", codec::store_state_to_json(state)).to_text()
}

/// Parses a store snapshot back.
///
/// # Errors
///
/// [`HgError::Snapshot`] on corrupt bytes, a wrong schema version or kind,
/// or a structurally invalid document.
pub fn store_from_text(text: &str) -> Result<StoreState, HgError> {
    codec::store_state_from_json(&open_envelope(text, "store")?)
}

/// Serializes one home session's exported state — the migration unit: a
/// home exported here can be imported into a different process's fleet.
pub fn home_to_text(state: &HomeState) -> String {
    envelope("home", codec::home_state_to_json(state)).to_text()
}

/// Parses a home snapshot back.
///
/// # Errors
///
/// As [`store_from_text`].
pub fn home_from_text(text: &str) -> Result<HomeState, HgError> {
    codec::home_state_from_json(&open_envelope(text, "home")?)
}

/// A whole-fleet snapshot: the shared store, every registered home's
/// session state, and the registry's routing parameters. Produced by
/// `Fleet::snapshot()`, consumed by `Fleet::restore()`; [`to_text`] /
/// [`from_text`] are the durable byte form in between.
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
    /// shard they lived in.
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
    /// Serializes the snapshot to its durable text form.
    pub fn to_text(&self) -> String {
        let payload = Json::obj([
            ("shards", Json::Num(self.shards as i64)),
            ("nextId", Json::Num(self.next_id as i64)),
            ("store", codec::store_state_to_json(&self.store)),
            (
                "homes",
                Json::Arr(
                    self.homes
                        .iter()
                        .map(|(id, state)| {
                            Json::obj([
                                ("id", Json::Num(id.raw() as i64)),
                                ("home", codec::home_state_to_json(state)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        envelope("fleet", payload).to_text()
    }

    /// Parses a fleet snapshot back.
    ///
    /// # Errors
    ///
    /// [`HgError::Snapshot`] on corrupt bytes, a wrong schema version or
    /// kind, a structurally invalid document, or duplicate home ids.
    pub fn from_text(text: &str) -> Result<FleetSnapshot, HgError> {
        let payload = open_envelope(text, "fleet")?;
        let shards = payload
            .get("shards")
            .and_then(Json::as_num)
            .filter(|&n| n > 0)
            .ok_or_else(|| codec::snap_err("missing or invalid shard count"))?
            as usize;
        let next_id = codec::nonneg_field(&payload, "nextId")? as u64;
        let store = codec::store_state_from_json(
            payload
                .get("store")
                .ok_or_else(|| codec::snap_err("missing store"))?,
        )?;
        let mut homes: Vec<(HomeId, HomeState)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for entry in payload
            .get("homes")
            .and_then(Json::as_arr)
            .ok_or_else(|| codec::snap_err("missing homes"))?
        {
            let id = HomeId::new(codec::nonneg_field(entry, "id")? as u64);
            if !seen.insert(id) {
                return Err(codec::snap_err(format!("duplicate home id {id}")));
            }
            let state = codec::home_state_from_json(
                entry
                    .get("home")
                    .ok_or_else(|| codec::snap_err("home entry missing state"))?,
            )?;
            homes.push((id, state));
        }
        Ok(FleetSnapshot {
            shards,
            next_id,
            store,
            homes,
        })
    }
}
