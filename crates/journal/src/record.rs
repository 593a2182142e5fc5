//! The journal's record vocabulary and its JSON codec.
//!
//! Records are **state deltas**, not replayed commands: an install record
//! carries the confirmed report's mutation data (rules when they differ
//! from the store's current rule file, allowed threats, config URI)
//! because re-running detection at replay time against a store that has
//! since moved on could legitimately produce a different report —
//! `confirm_install` accepts stale reports by design. Replaying a record
//! therefore reproduces the exact state transition the live fleet made,
//! byte for byte.
//!
//! Payloads reuse the snapshot codecs from [`hg_persist::codec`] wholesale
//! — a home state inside a `home_created` record is the same document a
//! fleet snapshot holds. Decoders return
//! [`HgError::Journal`](homeguard_core::HgError) naming the malformed
//! field; garbage is a typed error, never a panic.

use hg_detector::Threat;
use hg_persist::codec::{
    home_state_from_json, home_state_to_json, policy_table_from_json, policy_table_to_json,
    threat_from_json, threat_to_json,
};
use hg_rules::json::{rule_from_json, rule_to_json, Json};
use hg_rules::rule::Rule;
use homeguard_core::{HgError, HomeState, PolicyTable};

/// Journal payload format version, checked on decode.
pub const RECORD_VERSION: i64 = 1;

/// Builds the journal's uniform decode failure.
pub fn journal_err(detail: impl Into<String>) -> HgError {
    HgError::Journal(detail.into())
}

/// One durable fleet lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A home was created; `state` is its ground truth at creation.
    HomeCreated {
        /// Raw home id the fleet assigned.
        id: u64,
        /// Exported state at creation (template defaults + customization).
        state: HomeState,
    },
    /// A batch of template homes was created in one transaction: every id
    /// shares the **one** exported template state, so the record costs a
    /// single state export and append regardless of batch size (the
    /// fast path for standing up large fleets).
    HomesCreated {
        /// Raw home ids the fleet assigned, in creation order.
        ids: Vec<u64>,
        /// The shared template ground truth each home started from.
        state: HomeState,
    },
    /// A home was imported (migration); same shape as creation.
    HomeImported {
        /// Raw home id the fleet assigned.
        id: u64,
        /// The imported ground truth.
        state: HomeState,
    },
    /// A home was removed from the fleet.
    HomeRemoved {
        /// Raw home id.
        id: u64,
    },
    /// An install (or upgrade) was confirmed into a home.
    InstallCommitted {
        /// Raw home id.
        id: u64,
        /// The app name the report confirmed.
        app: String,
        /// The installed app this one replaced, for upgrades.
        replaces: Option<String>,
        /// The report's rules **when they differ** from the store's
        /// current rule file for `app`; `None` means "the store's rules
        /// at replay", which is the common case and keeps records small.
        rules: Option<Vec<Rule>>,
        /// Threats the user allowed by confirming.
        threats: Vec<Threat>,
        /// Configuration-info URI recorded by the confirmation, if any.
        config: Option<String>,
    },
    /// An app was uninstalled from a home.
    UninstallCommitted {
        /// Raw home id.
        id: u64,
        /// The removed app.
        app: String,
    },
    /// A bulk install auto-confirmed cleanly into these homes (one record
    /// per `install_group` call). Rules are always store-derived at
    /// replay — the group commit only batches homes whose reports match
    /// the store's current rule file — and every home shares the group's
    /// one configuration, so the record costs one append regardless of
    /// group size.
    InstallSwept {
        /// The installed app.
        app: String,
        /// Raw ids of homes whose install auto-confirmed clean.
        homes: Vec<u64>,
        /// The group's shared configuration-info URI, if any.
        config: Option<String>,
    },
    /// A clean upgrade sweep landed on these homes (one record per shard).
    UpgradeSwept {
        /// The upgraded app.
        app: String,
        /// Raw ids of homes whose upgrade auto-confirmed.
        homes: Vec<u64>,
    },
    /// A forced uninstall sweep removed the app from these homes.
    UninstallSwept {
        /// The removed app.
        app: String,
        /// Raw ids of homes the app was removed from.
        homes: Vec<u64>,
    },
    /// A home's threat-handling policy table was replaced.
    PolicyChanged {
        /// Raw home id.
        id: u64,
        /// The new table.
        table: PolicyTable,
    },
    /// Configuration info was recorded into a home outside an install.
    ConfigRecorded {
        /// Raw home id.
        id: u64,
        /// The config-info URI (lossless round-trip codec).
        uri: String,
    },
    /// A fresh source landed in the shared rule store.
    StoreIngested {
        /// The app name the analysis declared.
        app: String,
        /// The ingested source text.
        source: String,
        /// Whether this was the name-checked `ingest_as` path.
        as_name: bool,
    },
    /// An app was retired from the shared rule store.
    StoreRetired {
        /// The retired app.
        app: String,
    },
}

impl JournalRecord {
    /// Stable machine-readable operation tag.
    pub fn op(&self) -> &'static str {
        match self {
            JournalRecord::HomeCreated { .. } => "home_created",
            JournalRecord::HomesCreated { .. } => "homes_created",
            JournalRecord::HomeImported { .. } => "home_imported",
            JournalRecord::HomeRemoved { .. } => "home_removed",
            JournalRecord::InstallCommitted { .. } => "install_committed",
            JournalRecord::UninstallCommitted { .. } => "uninstall_committed",
            JournalRecord::InstallSwept { .. } => "install_swept",
            JournalRecord::UpgradeSwept { .. } => "upgrade_swept",
            JournalRecord::UninstallSwept { .. } => "uninstall_swept",
            JournalRecord::PolicyChanged { .. } => "policy_changed",
            JournalRecord::ConfigRecorded { .. } => "config_recorded",
            JournalRecord::StoreIngested { .. } => "store_ingested",
            JournalRecord::StoreRetired { .. } => "store_retired",
        }
    }

    /// Encodes the record as one JSON document (a frame payload).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("v".to_string(), Json::Num(RECORD_VERSION)),
            ("op".to_string(), Json::str(self.op())),
        ];
        match self {
            JournalRecord::HomeCreated { id, state }
            | JournalRecord::HomeImported { id, state } => {
                fields.push(("id".into(), Json::Num(*id as i64)));
                fields.push(("state".into(), home_state_to_json(state)));
            }
            JournalRecord::HomesCreated { ids, state } => {
                fields.push((
                    "ids".into(),
                    Json::Arr(ids.iter().map(|&h| Json::Num(h as i64)).collect()),
                ));
                fields.push(("state".into(), home_state_to_json(state)));
            }
            JournalRecord::HomeRemoved { id } => {
                fields.push(("id".into(), Json::Num(*id as i64)));
            }
            JournalRecord::InstallCommitted {
                id,
                app,
                replaces,
                rules,
                threats,
                config,
            } => {
                fields.push(("id".into(), Json::Num(*id as i64)));
                fields.push(("app".into(), Json::str(app)));
                fields.push((
                    "replaces".into(),
                    replaces.as_deref().map(Json::str).unwrap_or(Json::Null),
                ));
                fields.push((
                    "rules".into(),
                    rules
                        .as_ref()
                        .map(|rs| Json::Arr(rs.iter().map(rule_to_json).collect()))
                        .unwrap_or(Json::Null),
                ));
                fields.push((
                    "threats".into(),
                    Json::Arr(threats.iter().map(threat_to_json).collect()),
                ));
                fields.push((
                    "config".into(),
                    config.as_deref().map(Json::str).unwrap_or(Json::Null),
                ));
            }
            JournalRecord::UninstallCommitted { id, app } => {
                fields.push(("id".into(), Json::Num(*id as i64)));
                fields.push(("app".into(), Json::str(app)));
            }
            JournalRecord::UpgradeSwept { app, homes }
            | JournalRecord::UninstallSwept { app, homes } => {
                fields.push(("app".into(), Json::str(app)));
                fields.push((
                    "homes".into(),
                    Json::Arr(homes.iter().map(|&h| Json::Num(h as i64)).collect()),
                ));
            }
            JournalRecord::InstallSwept { app, homes, config } => {
                fields.push(("app".into(), Json::str(app)));
                fields.push((
                    "homes".into(),
                    Json::Arr(homes.iter().map(|&h| Json::Num(h as i64)).collect()),
                ));
                fields.push((
                    "config".into(),
                    config.as_deref().map(Json::str).unwrap_or(Json::Null),
                ));
            }
            JournalRecord::PolicyChanged { id, table } => {
                fields.push(("id".into(), Json::Num(*id as i64)));
                fields.push(("table".into(), policy_table_to_json(table)));
            }
            JournalRecord::ConfigRecorded { id, uri } => {
                fields.push(("id".into(), Json::Num(*id as i64)));
                fields.push(("uri".into(), Json::str(uri)));
            }
            JournalRecord::StoreIngested {
                app,
                source,
                as_name,
            } => {
                fields.push(("app".into(), Json::str(app)));
                fields.push(("source".into(), Json::str(source)));
                fields.push(("asName".into(), Json::Bool(*as_name)));
            }
            JournalRecord::StoreRetired { app } => {
                fields.push(("app".into(), Json::str(app)));
            }
        }
        Json::Obj(fields.into_iter().collect())
    }

    /// Serializes to the frame payload bytes.
    pub fn to_payload(&self) -> Vec<u8> {
        self.to_json().to_text().into_bytes()
    }

    /// Decodes one frame payload back into a record.
    pub fn from_payload(payload: &[u8]) -> Result<JournalRecord, HgError> {
        let text =
            std::str::from_utf8(payload).map_err(|_| journal_err("record payload is not UTF-8"))?;
        let j = Json::parse(text).map_err(|e| journal_err(format!("record parse: {e}")))?;
        Self::from_json(&j)
    }

    /// Decodes a record document.
    pub fn from_json(j: &Json) -> Result<JournalRecord, HgError> {
        let version = j.get("v").and_then(Json::as_num);
        if version != Some(RECORD_VERSION) {
            return Err(journal_err(format!(
                "unsupported record version {version:?} (expected {RECORD_VERSION})"
            )));
        }
        let id = || nonneg(j, "id").map(|n| n as u64);
        let app = || str_field(j, "app");
        let homes = || u64_array(j, "homes");
        match j.get("op").and_then(Json::as_str) {
            Some("home_created") => Ok(JournalRecord::HomeCreated {
                id: id()?,
                state: state_field(j)?,
            }),
            Some("homes_created") => Ok(JournalRecord::HomesCreated {
                ids: u64_array(j, "ids")?,
                state: state_field(j)?,
            }),
            Some("home_imported") => Ok(JournalRecord::HomeImported {
                id: id()?,
                state: state_field(j)?,
            }),
            Some("home_removed") => Ok(JournalRecord::HomeRemoved { id: id()? }),
            Some("install_committed") => Ok(JournalRecord::InstallCommitted {
                id: id()?,
                app: app()?,
                replaces: opt_str(j, "replaces")?,
                rules: match j.get("rules") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => Some(
                        items
                            .iter()
                            .map(|r| rule_from_json(r).map_err(journal_err))
                            .collect::<Result<_, _>>()?,
                    ),
                    Some(_) => return Err(journal_err("`rules` is neither null nor an array")),
                },
                threats: j
                    .get("threats")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| journal_err("missing array field `threats`"))?
                    .iter()
                    .map(|t| threat_from_json(t).map_err(as_journal))
                    .collect::<Result<_, _>>()?,
                config: opt_str(j, "config")?,
            }),
            Some("uninstall_committed") => Ok(JournalRecord::UninstallCommitted {
                id: id()?,
                app: app()?,
            }),
            Some("install_swept") => Ok(JournalRecord::InstallSwept {
                app: app()?,
                homes: homes()?,
                config: opt_str(j, "config")?,
            }),
            Some("upgrade_swept") => Ok(JournalRecord::UpgradeSwept {
                app: app()?,
                homes: homes()?,
            }),
            Some("uninstall_swept") => Ok(JournalRecord::UninstallSwept {
                app: app()?,
                homes: homes()?,
            }),
            Some("policy_changed") => Ok(JournalRecord::PolicyChanged {
                id: id()?,
                table: policy_table_from_json(
                    j.get("table")
                        .ok_or_else(|| journal_err("missing field `table`"))?,
                )
                .map_err(as_journal)?,
            }),
            Some("config_recorded") => Ok(JournalRecord::ConfigRecorded {
                id: id()?,
                uri: str_field(j, "uri")?,
            }),
            Some("store_ingested") => Ok(JournalRecord::StoreIngested {
                app: app()?,
                source: str_field(j, "source")?,
                as_name: match j.get("asName") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err(journal_err("missing boolean field `asName`")),
                },
            }),
            Some("store_retired") => Ok(JournalRecord::StoreRetired { app: app()? }),
            Some(other) => Err(journal_err(format!("unknown record op `{other}`"))),
            None => Err(journal_err("record missing `op`")),
        }
    }
}

/// Re-brands a snapshot-codec failure as a journal failure: the document
/// that failed to decode lives in the journal, so the journal's error
/// variant is the honest one.
fn as_journal(e: HgError) -> HgError {
    journal_err(e.to_string())
}

fn str_field(j: &Json, field: &str) -> Result<String, HgError> {
    j.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| journal_err(format!("missing string field `{field}`")))
}

fn opt_str(j: &Json, field: &str) -> Result<Option<String>, HgError> {
    match j.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(s) => Ok(Some(s.as_str().map(str::to_string).ok_or_else(|| {
            journal_err(format!("`{field}` is neither null nor a string"))
        })?)),
    }
}

fn u64_array(j: &Json, field: &str) -> Result<Vec<u64>, HgError> {
    j.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| journal_err(format!("missing array field `{field}`")))?
        .iter()
        .map(|h| {
            h.as_num()
                .filter(|&n| n >= 0)
                .map(|n| n as u64)
                .ok_or_else(|| journal_err(format!("bad home id in `{field}`")))
        })
        .collect()
}

fn nonneg(j: &Json, field: &str) -> Result<i64, HgError> {
    let n = j
        .get(field)
        .and_then(Json::as_num)
        .ok_or_else(|| journal_err(format!("missing numeric field `{field}`")))?;
    if n < 0 {
        return Err(journal_err(format!("negative `{field}`: {n}")));
    }
    Ok(n)
}

fn state_field(j: &Json) -> Result<HomeState, HgError> {
    home_state_from_json(
        j.get("state")
            .ok_or_else(|| journal_err("missing field `state`"))?,
    )
    .map_err(as_journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeguard_core::{Home, RuleStore};

    fn sample_state() -> HomeState {
        let store = RuleStore::shared();
        let mut home = Home::new(store);
        home.install_app(
            r#"
            definition(name: "OnApp")
            input "m", "capability.motionSensor"
            input "lamp", "capability.switch", title: "lamp"
            def installed() { subscribe(m, "motion.active", h) }
            def h(evt) { lamp.on() }
            "#,
            "OnApp",
            None,
        )
        .unwrap();
        home.export_state()
    }

    #[test]
    fn every_record_round_trips_through_the_payload_codec() {
        let state = sample_state();
        let records = [
            JournalRecord::HomeCreated {
                id: 7,
                state: state.clone(),
            },
            JournalRecord::HomesCreated {
                ids: vec![9, 10, 12],
                state: sample_state(),
            },
            JournalRecord::HomeImported { id: 8, state },
            JournalRecord::HomeRemoved { id: 7 },
            JournalRecord::InstallCommitted {
                id: 3,
                app: "OnApp".into(),
                replaces: Some("OldApp".into()),
                rules: None,
                threats: Vec::new(),
                config: Some("hgconf://OnApp?d.lamp=lamp-3".into()),
            },
            JournalRecord::UninstallCommitted {
                id: 3,
                app: "OnApp".into(),
            },
            JournalRecord::InstallSwept {
                app: "OnApp".into(),
                homes: vec![0, 6, 11],
                config: Some("hgconf://OnApp?d.lamp=lamp-9".into()),
            },
            JournalRecord::UpgradeSwept {
                app: "OnApp".into(),
                homes: vec![1, 2, 5],
            },
            JournalRecord::UninstallSwept {
                app: "OnApp".into(),
                homes: vec![4],
            },
            JournalRecord::PolicyChanged {
                id: 2,
                table: PolicyTable::default(),
            },
            JournalRecord::ConfigRecorded {
                id: 2,
                uri: "hgconf://OnApp?v.level=n%3A50".into(),
            },
            JournalRecord::StoreIngested {
                app: "OnApp".into(),
                source: "definition(name: \"OnApp\")".into(),
                as_name: true,
            },
            JournalRecord::StoreRetired {
                app: "OnApp".into(),
            },
        ];
        for record in records {
            let payload = record.to_payload();
            let back = JournalRecord::from_payload(&payload).expect("decode");
            assert_eq!(back, record, "round trip of `{}`", record.op());
            assert_eq!(back.op(), record.op());
        }
    }

    #[test]
    fn decoder_refuses_garbage_with_typed_errors() {
        assert!(matches!(
            JournalRecord::from_payload(b"\xFF\xFE"),
            Err(HgError::Journal(_))
        ));
        assert!(matches!(
            JournalRecord::from_payload(b"not json"),
            Err(HgError::Journal(_))
        ));
        assert!(matches!(
            JournalRecord::from_payload(b"{\"v\":1,\"op\":\"warp_core_breach\"}"),
            Err(HgError::Journal(_))
        ));
        assert!(matches!(
            JournalRecord::from_payload(b"{\"v\":99,\"op\":\"home_removed\",\"id\":1}"),
            Err(HgError::Journal(_))
        ));
        assert!(matches!(
            JournalRecord::from_payload(b"{\"v\":1,\"op\":\"home_removed\",\"id\":-4}"),
            Err(HgError::Journal(_))
        ));
    }
}
