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
//! There is one record per kind of state change, and every record that
//! changes homes names those homes: one home or a whole batch, the shape
//! is the same.
//!
//! Payloads reuse the snapshot codecs from [`hg_persist::codec`] wholesale
//! — a home state inside a `homes_created` record is the same document a
//! fleet snapshot holds, read with the same field readers. Decoders return
//! [`HgError::Journal`](homeguard_core::HgError) naming the malformed
//! field; garbage is a typed error, never a panic.

use hg_detector::Threat;
use hg_persist::codec::{
    arr_field, bool_field, home_state_from_json, home_state_to_json, nonneg_field, opt_str_field,
    policy_table_from_json, policy_table_to_json, snap_err, str_field, threat_from_json,
    threat_to_json,
};
use hg_rules::json::{rule_from_json, rule_to_json, Json};
use hg_rules::rule::Rule;
use homeguard_core::{HgError, HomeState, PolicyTable};

/// Journal payload format version, checked on decode.
pub const RECORD_VERSION: i64 = 2;

/// Builds the journal's uniform decode failure.
pub fn journal_err(detail: impl Into<String>) -> HgError {
    HgError::Journal(detail.into())
}

/// `error` as an [`HgError::Journal`] whose detail starts with `context`.
/// A journal failure's own detail is wrapped rather than its rendering,
/// so the "journal failure: " prefix is said once.
pub fn journal_context(context: impl std::fmt::Display, error: HgError) -> HgError {
    match error {
        HgError::Journal(detail) => journal_err(format!("{context}: {detail}")),
        other => journal_err(format!("{context}: {other}")),
    }
}

/// One durable fleet lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Homes were created or imported, each from the same state: one
    /// home, or a batch of template homes whose state is exported once.
    HomesCreated {
        /// Raw home ids the fleet assigned, in creation order.
        ids: Vec<u64>,
        /// The ground truth each home started from.
        state: HomeState,
    },
    /// A home was removed from the fleet.
    HomeRemoved {
        /// Raw home id.
        id: u64,
    },
    /// These homes confirmed one install (or upgrade) report.
    InstallCommitted {
        /// Raw home ids, in commit order.
        homes: Vec<u64>,
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
    /// An app was uninstalled from these homes.
    UninstallCommitted {
        /// Raw home ids, in removal order.
        homes: Vec<u64>,
        /// The removed app.
        app: String,
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
            JournalRecord::HomesCreated { .. } => "homes_created",
            JournalRecord::HomeRemoved { .. } => "home_removed",
            JournalRecord::InstallCommitted { .. } => "install_committed",
            JournalRecord::UninstallCommitted { .. } => "uninstall_committed",
            JournalRecord::PolicyChanged { .. } => "policy_changed",
            JournalRecord::ConfigRecorded { .. } => "config_recorded",
            JournalRecord::StoreIngested { .. } => "store_ingested",
            JournalRecord::StoreRetired { .. } => "store_retired",
        }
    }

    /// Encodes the record as one JSON document (a frame payload).
    pub fn to_json(&self) -> Json {
        let ids = |ids: &[u64]| Json::Arr(ids.iter().map(|&h| Json::Num(h as i64)).collect());
        let fields = match self {
            JournalRecord::HomesCreated { ids: homes, state } => {
                vec![("ids", ids(homes)), ("state", home_state_to_json(state))]
            }
            JournalRecord::HomeRemoved { id } => vec![("id", Json::Num(*id as i64))],
            JournalRecord::InstallCommitted {
                homes,
                app,
                replaces,
                rules,
                threats,
                config,
            } => {
                // Absent and empty fields are left out; the decoder reads a
                // missing one as `None` or empty.
                let mut fields = vec![("homes", ids(homes)), ("app", Json::str(app))];
                if let Some(replaces) = replaces {
                    fields.push(("replaces", Json::str(replaces)));
                }
                if let Some(rules) = rules {
                    fields.push(("rules", Json::Arr(rules.iter().map(rule_to_json).collect())));
                }
                if !threats.is_empty() {
                    let threats = threats.iter().map(threat_to_json).collect();
                    fields.push(("threats", Json::Arr(threats)));
                }
                if let Some(config) = config {
                    fields.push(("config", Json::str(config)));
                }
                fields
            }
            JournalRecord::UninstallCommitted { homes, app } => {
                vec![("homes", ids(homes)), ("app", Json::str(app))]
            }
            JournalRecord::PolicyChanged { id, table } => vec![
                ("id", Json::Num(*id as i64)),
                ("table", policy_table_to_json(table)),
            ],
            JournalRecord::ConfigRecorded { id, uri } => {
                vec![("id", Json::Num(*id as i64)), ("uri", Json::str(uri))]
            }
            JournalRecord::StoreIngested {
                app,
                source,
                as_name,
            } => vec![
                ("app", Json::str(app)),
                ("source", Json::str(source)),
                ("asName", Json::Bool(*as_name)),
            ],
            JournalRecord::StoreRetired { app } => vec![("app", Json::str(app))],
        };
        Json::obj(
            [
                ("v", Json::Num(RECORD_VERSION)),
                ("op", Json::str(self.op())),
            ]
            .into_iter()
            .chain(fields),
        )
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

    /// Decodes a record document. A record of another format version is
    /// refused by its version number.
    pub fn from_json(j: &Json) -> Result<JournalRecord, HgError> {
        // The field readers speak the snapshot codec's error; the document
        // lives in the journal, so its failure is re-branded once, here.
        Self::decode(j).map_err(|e| match e {
            HgError::Snapshot(detail) => journal_err(detail),
            other => other,
        })
    }

    fn decode(j: &Json) -> Result<JournalRecord, HgError> {
        let version = nonneg_field(j, "v")?;
        if version != RECORD_VERSION {
            return Err(snap_err(format!(
                "record version {version} is not supported (expected {RECORD_VERSION})"
            )));
        }
        let field = |name: &str| {
            j.get(name)
                .ok_or_else(|| snap_err(format!("missing field `{name}`")))
        };
        let ids = |name: &str| {
            arr_field(j, name)?
                .iter()
                .map(|h| {
                    h.as_num()
                        .filter(|&n| n >= 0)
                        .map(|n| n as u64)
                        .ok_or_else(|| snap_err(format!("bad home id in `{name}`")))
                })
                .collect::<Result<Vec<u64>, HgError>>()
        };
        let id = || nonneg_field(j, "id").map(|n| n as u64);
        let app = || str_field(j, "app");
        Ok(match str_field(j, "op")?.as_str() {
            "homes_created" => JournalRecord::HomesCreated {
                ids: ids("ids")?,
                state: home_state_from_json(field("state")?)?,
            },
            "home_removed" => JournalRecord::HomeRemoved { id: id()? },
            "install_committed" => JournalRecord::InstallCommitted {
                homes: ids("homes")?,
                app: app()?,
                replaces: opt_str_field(j, "replaces")?,
                rules: match j.get("rules") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(items)) => Some(
                        items
                            .iter()
                            .map(|r| rule_from_json(r).map_err(snap_err))
                            .collect::<Result<_, _>>()?,
                    ),
                    Some(_) => return Err(snap_err("`rules` is neither null nor an array")),
                },
                threats: match j.get("threats") {
                    None => Vec::new(),
                    Some(_) => arr_field(j, "threats")?
                        .iter()
                        .map(threat_from_json)
                        .collect::<Result<_, _>>()?,
                },
                config: opt_str_field(j, "config")?,
            },
            "uninstall_committed" => JournalRecord::UninstallCommitted {
                homes: ids("homes")?,
                app: app()?,
            },
            "policy_changed" => JournalRecord::PolicyChanged {
                id: id()?,
                table: policy_table_from_json(field("table")?)?,
            },
            "config_recorded" => JournalRecord::ConfigRecorded {
                id: id()?,
                uri: str_field(j, "uri")?,
            },
            "store_ingested" => JournalRecord::StoreIngested {
                app: app()?,
                source: str_field(j, "source")?,
                as_name: bool_field(j, "asName")?,
            },
            "store_retired" => JournalRecord::StoreRetired { app: app()? },
            other => return Err(snap_err(format!("unknown record op `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeguard_core::{Home, RuleStore};

    /// A home running `OnApp`, and `OnApp`'s rules.
    fn sample() -> (HomeState, Vec<Rule>) {
        let store = RuleStore::shared();
        let mut home = Home::new(store.clone());
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
        (home.export_state(), store.rules_of("OnApp").unwrap())
    }

    #[test]
    fn every_record_round_trips_through_the_payload_codec() {
        let (state, rules) = sample();
        let records = [
            JournalRecord::HomesCreated {
                ids: vec![9, 10, 12],
                state,
            },
            JournalRecord::HomeRemoved { id: 7 },
            JournalRecord::InstallCommitted {
                homes: vec![3],
                app: "OnApp".into(),
                replaces: Some("OldApp".into()),
                rules: None,
                threats: Vec::new(),
                config: Some("hgconf://OnApp?d.lamp=lamp-3".into()),
            },
            JournalRecord::InstallCommitted {
                homes: vec![0, 6, 11],
                app: "OnApp".into(),
                replaces: None,
                rules: Some(rules),
                threats: Vec::new(),
                config: None,
            },
            JournalRecord::UninstallCommitted {
                homes: vec![1, 2, 5],
                app: "OnApp".into(),
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

    /// An install record leaves out its absent and empty fields, and a
    /// record that spells them out as `null` and `[]` decodes to the same
    /// record.
    #[test]
    fn install_records_omit_absent_fields_and_read_spelled_out_ones() {
        let record = JournalRecord::InstallCommitted {
            homes: vec![3],
            app: "OnApp".into(),
            replaces: None,
            rules: None,
            threats: Vec::new(),
            config: None,
        };
        let compact = String::from_utf8(record.to_payload()).unwrap();
        assert_eq!(
            compact,
            r#"{"app":"OnApp","homes":[3],"op":"install_committed","v":2}"#
        );
        let spelled_out = br#"{"app":"OnApp","config":null,"homes":[3],"op":"install_committed","replaces":null,"rules":null,"threats":[],"v":2}"#;
        assert_eq!(JournalRecord::from_payload(spelled_out).unwrap(), record);
    }

    #[test]
    fn decoder_refuses_garbage_with_typed_errors() {
        for garbage in [
            b"\xFF\xFE".as_slice(),
            b"not json",
            b"{\"v\":2,\"op\":\"warp_core_breach\"}",
            b"{\"v\":99,\"op\":\"home_removed\",\"id\":1}",
            b"{\"v\":2,\"op\":\"home_removed\",\"id\":-4}",
            b"{\"v\":2,\"op\":\"uninstall_committed\",\"homes\":[-1],\"app\":\"A\"}",
            b"{\"v\":2,\"op\":\"homes_created\",\"ids\":[1],\"state\":7}",
        ] {
            assert!(matches!(
                JournalRecord::from_payload(garbage),
                Err(HgError::Journal(_))
            ));
        }
    }

    /// A record an older build wrote is refused by its version number.
    #[test]
    fn a_version_1_record_is_refused_by_name() {
        match JournalRecord::from_payload(b"{\"v\":1,\"op\":\"home_created\",\"id\":1}") {
            Err(HgError::Journal(detail)) => assert!(
                detail.contains("record version 1 is not supported"),
                "{detail}"
            ),
            other => panic!("expected a typed journal error, got {other:?}"),
        }
    }
}
