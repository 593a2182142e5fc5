//! The checkpoint document: a full fleet image as of a journal offset.
//!
//! A checkpoint freezes the fleet's ground truth **as of a journal
//! offset**: the whole [`FleetSnapshot`], with every record at an offset
//! below it folded in. Replaying the journal records at offsets
//! `>= offset` on top of it reproduces the live fleet. Each checkpoint
//! replaces its predecessors ([`Journal::checkpoint_write`]), so recovery
//! reads one document.
//!
//! [`Journal::checkpoint_write`]: crate::Journal::checkpoint_write

use hg_persist::FleetSnapshot;
use hg_rules::json::Json;
use homeguard_core::HgError;
use std::fmt::Write as _;

use crate::record::journal_err;

/// Checkpoint document format version, checked on decode.
pub const CHECKPOINT_VERSION: i64 = 3;

/// The checkpoint document's `kind` tag.
const KIND: &str = "journal-checkpoint";

/// One checkpoint document: the fleet's ground truth as of a journal
/// offset. Every record at an offset `< offset` is folded in; replay
/// resumes at `offset`.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Journal offset this checkpoint covers.
    pub offset: u64,
    /// The fleet image.
    pub fleet: FleetSnapshot,
}

impl Checkpoint {
    /// Serializes to the checkpoint document text, written one home (and
    /// one store app) at a time with keys in [`Json::to_text`]'s byte
    /// order.
    pub fn to_text(&self) -> String {
        let mut out = String::from("{\"fleet\":");
        self.fleet.write_payload(&mut out);
        let _ = write!(
            out,
            ",\"kind\":\"{KIND}\",\"offset\":{},\"version\":{CHECKPOINT_VERSION}}}",
            self.offset as i64
        );
        out
    }

    /// Decodes a checkpoint document.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] on corrupt text, a document of another
    /// format version (naming it) or kind, or an invalid fleet image.
    pub fn from_text(text: &str) -> Result<Checkpoint, HgError> {
        let j = Json::parse(text).map_err(|e| journal_err(format!("checkpoint parse: {e}")))?;
        match j.get("version").and_then(Json::as_num) {
            Some(CHECKPOINT_VERSION) => {}
            Some(v) => {
                return Err(journal_err(format!(
                    "unsupported checkpoint version {v} (this build reads {CHECKPOINT_VERSION})"
                )))
            }
            None => return Err(journal_err("checkpoint missing `version`")),
        }
        if j.get("kind").and_then(Json::as_str) != Some(KIND) {
            return Err(journal_err("not a journal checkpoint document"));
        }
        let offset = j
            .get("offset")
            .and_then(Json::as_num)
            .filter(|&n| n >= 0)
            .ok_or_else(|| journal_err("checkpoint `offset` missing or negative"))?;
        let fleet = j
            .get("fleet")
            .ok_or_else(|| journal_err("checkpoint missing `fleet`"))?;
        Ok(Checkpoint {
            offset: offset as u64,
            fleet: FleetSnapshot::from_json(fleet).map_err(|e| journal_err(e.to_string()))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeguard_core::{Home, HomeId, HomeState, RuleStore, StoreState};

    fn state_with(apps: &[(&str, &str)]) -> (HomeState, StoreState) {
        let store = RuleStore::shared();
        let mut home = Home::new(store.clone());
        for (name, source) in apps {
            home.install_app(source, name, None).unwrap();
        }
        (home.export_state(), store.export_state())
    }

    fn id(raw: u64) -> HomeId {
        HomeId::new(raw)
    }

    const ON_APP: &str = r#"
        definition(name: "OnApp")
        input "m", "capability.motionSensor"
        input "lamp", "capability.switch", title: "lamp"
        def installed() { subscribe(m, "motion.active", h) }
        def h(evt) { lamp.on() }
    "#;

    #[test]
    fn checkpoints_round_trip() {
        let (state, store) = state_with(&[("OnApp", ON_APP)]);
        let fleet = FleetSnapshot {
            shards: 4,
            next_id: 9,
            store,
            homes: vec![(id(3), state)],
        };
        let ckpt = Checkpoint {
            offset: 12,
            fleet: fleet.clone(),
        };
        let text = ckpt.to_text();
        // Written straight into text, the document is still exactly what
        // its `Json` tree prints: sorted keys, compact.
        assert_eq!(Json::parse(&text).unwrap().to_text(), text);
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back.offset, 12);
        // Every field is encoded, so a field lost in decoding breaks the
        // fixed point.
        assert_eq!(back.to_text(), text);
        // The document's fleet object is the snapshot payload itself.
        let doc = Json::parse(&text).unwrap();
        let embedded = FleetSnapshot::from_json(doc.get("fleet").unwrap()).unwrap();
        assert_eq!(embedded.to_text(), fleet.to_text());
        // Document-level refusals.
        assert!(Checkpoint::from_text("garbage").is_err());
        assert!(Checkpoint::from_text("{\"version\":3,\"kind\":\"store\"}").is_err());
        // A checkpoint naming an absurd shard count is refused at decode,
        // before anything is allocated per shard.
        let absurd = text.replacen("\"shards\":4", "\"shards\":1000000", 1);
        match Checkpoint::from_text(&absurd) {
            Err(HgError::Journal(detail)) => assert!(detail.contains("shard count"), "{detail}"),
            other => panic!("expected a typed journal error, got {other:?}"),
        }
        // Documents of earlier format versions are refused by name: a
        // version-2 document still carried a `"full"` flag.
        let v2 = text
            .replacen(",\"kind\"", ",\"full\":true,\"kind\"", 1)
            .replacen("\"version\":3", "\"version\":2", 1);
        for (old, version) in [
            (v2.as_str(), 2),
            (&text.replacen("\"version\":3", "\"version\":1", 1), 1),
        ] {
            match Checkpoint::from_text(old) {
                Err(HgError::Journal(detail)) => assert!(
                    detail.contains(&format!("unsupported checkpoint version {version}")),
                    "{detail}"
                ),
                other => panic!("expected a typed journal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_home_ids_are_refused() {
        let (state, store) = state_with(&[("OnApp", ON_APP)]);
        let ckpt = Checkpoint {
            offset: 4,
            fleet: FleetSnapshot {
                shards: 1,
                next_id: 4,
                store,
                homes: vec![(id(3), state.clone()), (id(3), state)],
            },
        };
        match Checkpoint::from_text(&ckpt.to_text()) {
            Err(HgError::Journal(detail)) => {
                assert!(detail.contains("duplicate home id"), "{detail}")
            }
            other => panic!("a home listed twice must be refused, got {other:?}"),
        }
    }
}
