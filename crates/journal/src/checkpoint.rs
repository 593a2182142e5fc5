//! Delta checkpoints and their materialization into a full fleet image.
//!
//! A checkpoint freezes the fleet's ground truth **as of a journal
//! offset**: the first one in a chain is always full (a whole
//! [`FleetSnapshot`]); later ones are deltas carrying only the homes
//! dirtied — and the store, if touched — since the previous checkpoint,
//! plus the ids of homes removed. Folding the chain left to right
//! ([`materialize`]) reproduces the fleet snapshot the newest checkpoint
//! covers, and replaying journal records at offsets `>= offset` on top of
//! it reproduces the live fleet.

use hg_persist::codec::{homes_from_json, store_state_from_json, write_homes, write_store};
use hg_persist::FleetSnapshot;
use hg_rules::json::Json;
use homeguard_core::{HgError, HomeId, HomeState, StoreState};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::journal_err;

/// Checkpoint document format version, checked on decode.
pub const CHECKPOINT_VERSION: i64 = 2;

/// The checkpoint document's `kind` tag.
const KIND: &str = "journal-checkpoint";

/// One checkpoint document: the fleet's ground truth (full) or the
/// dirtied part of it (delta) as of a journal offset. Every record at an
/// offset `< offset` is folded in; replay resumes at `offset`.
#[derive(Debug, Clone)]
pub enum Checkpoint {
    /// A chain base: the whole fleet.
    Full {
        /// Journal offset this checkpoint covers.
        offset: u64,
        /// The fleet image.
        fleet: FleetSnapshot,
    },
    /// What changed since the previous checkpoint.
    Delta {
        /// Journal offset this checkpoint covers.
        offset: u64,
        /// The fleet's next home id.
        next_id: u64,
        /// The shared rule store's state, present only when store
        /// records landed since the previous checkpoint.
        store: Option<StoreState>,
        /// Every home dirtied since the previous checkpoint.
        homes: Vec<(HomeId, HomeState)>,
        /// Raw ids of homes removed since the previous checkpoint.
        removed: Vec<u64>,
    },
}

impl Checkpoint {
    /// Journal offset this checkpoint covers.
    pub fn offset(&self) -> u64 {
        match self {
            Checkpoint::Full { offset, .. } | Checkpoint::Delta { offset, .. } => *offset,
        }
    }

    /// Serializes to the checkpoint document text, written one home (and
    /// one store app) at a time with keys in [`Json::to_text`]'s byte
    /// order.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        match self {
            Checkpoint::Full { offset, fleet } => {
                out.push_str("{\"fleet\":");
                fleet.write_payload(&mut out);
                let _ = write!(
                    out,
                    ",\"full\":true,\"kind\":\"{KIND}\",\"offset\":{},\"version\":{CHECKPOINT_VERSION}}}",
                    *offset as i64
                );
            }
            Checkpoint::Delta {
                offset,
                next_id,
                store,
                homes,
                removed,
            } => {
                out.push_str("{\"full\":false,\"homes\":");
                write_homes(homes, &mut out);
                let _ = write!(
                    out,
                    ",\"kind\":\"{KIND}\",\"nextId\":{},\"offset\":{},\"removed\":",
                    *next_id as i64, *offset as i64
                );
                Json::Arr(removed.iter().map(|&r| Json::Num(r as i64)).collect())
                    .write_to(&mut out);
                out.push_str(",\"store\":");
                match store {
                    Some(store) => write_store(store, &mut out),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"version\":{CHECKPOINT_VERSION}}}");
            }
        }
        out
    }

    /// Decodes a checkpoint document.
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
        let field = |name: &str| {
            j.get(name)
                .ok_or_else(|| journal_err(format!("checkpoint missing `{name}`")))
        };
        let num = |name: &str| -> Result<u64, HgError> {
            let n = field(name)?
                .as_num()
                .ok_or_else(|| journal_err(format!("checkpoint `{name}` not a number")))?;
            if n < 0 {
                return Err(journal_err(format!("negative checkpoint `{name}`")));
            }
            Ok(n as u64)
        };
        let persist = |e: HgError| journal_err(e.to_string());
        let offset = num("offset")?;
        match field("full")? {
            Json::Bool(true) => Ok(Checkpoint::Full {
                offset,
                fleet: FleetSnapshot::from_json(field("fleet")?).map_err(persist)?,
            }),
            Json::Bool(false) => Ok(Checkpoint::Delta {
                offset,
                next_id: num("nextId")?,
                store: match field("store")? {
                    Json::Null => None,
                    s => Some(store_state_from_json(s).map_err(persist)?),
                },
                homes: homes_from_json(field("homes")?).map_err(persist)?,
                removed: field("removed")?
                    .as_arr()
                    .ok_or_else(|| journal_err("checkpoint `removed` not an array"))?
                    .iter()
                    .map(|r| {
                        r.as_num()
                            .filter(|&n| n >= 0)
                            .map(|n| n as u64)
                            .ok_or_else(|| journal_err("bad removed id in checkpoint"))
                    })
                    .collect::<Result<_, _>>()?,
            }),
            _ => Err(journal_err("checkpoint `full` not a boolean")),
        }
    }
}

/// Folds a checkpoint chain (ascending offsets, first one full) into the
/// fleet image as of the newest checkpoint's offset, returned with that
/// offset.
pub fn materialize(chain: Vec<Checkpoint>) -> Result<(u64, FleetSnapshot), HgError> {
    let mut chain = chain.into_iter();
    let (mut at, mut fleet) = match chain.next() {
        Some(Checkpoint::Full { offset, fleet }) => (offset, fleet),
        Some(Checkpoint::Delta { offset, .. }) => {
            return Err(journal_err(format!(
                "checkpoint chain does not start full (base covers offset {offset})"
            )))
        }
        None => return Err(journal_err("empty checkpoint chain")),
    };
    let mut homes: BTreeMap<HomeId, HomeState> =
        std::mem::take(&mut fleet.homes).into_iter().collect();
    for ckpt in chain {
        if ckpt.offset() < at {
            return Err(journal_err(format!(
                "checkpoint chain offsets regress at {}",
                ckpt.offset()
            )));
        }
        at = ckpt.offset();
        match ckpt {
            Checkpoint::Full { fleet: base, .. } => {
                fleet = base;
                homes = std::mem::take(&mut fleet.homes).into_iter().collect();
            }
            Checkpoint::Delta {
                next_id,
                store,
                homes: dirtied,
                removed,
                ..
            } => {
                fleet.next_id = next_id;
                if let Some(store) = store {
                    fleet.store = store;
                }
                homes.extend(dirtied);
                for id in removed {
                    homes.remove(&HomeId::new(id));
                }
            }
        }
    }
    fleet.homes = homes.into_iter().collect();
    Ok((at, fleet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeguard_core::{Home, RuleStore};
    use std::sync::Arc;

    fn state_with(apps: &[(&str, &str)]) -> (HomeState, StoreState, Arc<RuleStore>) {
        let store = RuleStore::shared();
        let mut home = Home::new(store.clone());
        for (name, source) in apps {
            home.install_app(source, name, None).unwrap();
        }
        (home.export_state(), store.export_state(), store)
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
        let (state, store, _) = state_with(&[("OnApp", ON_APP)]);
        let fleet = FleetSnapshot {
            shards: 4,
            next_id: 9,
            store: store.clone(),
            homes: vec![(id(3), state.clone())],
        };
        let full = Checkpoint::Full {
            offset: 12,
            fleet: fleet.clone(),
        };
        let delta = Checkpoint::Delta {
            offset: 15,
            next_id: 10,
            store: Some(store),
            homes: vec![(id(3), state)],
            removed: vec![7],
        };
        for ckpt in [&full, &delta] {
            let text = ckpt.to_text();
            // Written straight into text, the document is still exactly
            // what its `Json` tree prints: sorted keys, compact.
            assert_eq!(Json::parse(&text).unwrap().to_text(), text);
            let back = Checkpoint::from_text(&text).unwrap();
            assert_eq!(back.offset(), ckpt.offset());
            // Every field is encoded, so a field lost in decoding breaks
            // the fixed point.
            assert_eq!(back.to_text(), text);
        }
        // The full document's fleet object is the snapshot payload itself.
        let doc = Json::parse(&full.to_text()).unwrap();
        let embedded = FleetSnapshot::from_json(doc.get("fleet").unwrap()).unwrap();
        assert_eq!(embedded.to_text(), fleet.to_text());
        let text = delta.to_text();
        // Document-level refusals, including a version-1 document.
        assert!(Checkpoint::from_text("garbage").is_err());
        assert!(Checkpoint::from_text("{\"version\":2,\"kind\":\"store\"}").is_err());
        // A full checkpoint naming an absurd shard count is refused at
        // decode, before anything is allocated per shard.
        let absurd = full
            .to_text()
            .replacen("\"shards\":4", "\"shards\":1000000", 1);
        match Checkpoint::from_text(&absurd) {
            Err(HgError::Journal(detail)) => assert!(detail.contains("shard count"), "{detail}"),
            other => panic!("expected a typed journal error, got {other:?}"),
        }
        match Checkpoint::from_text(&text.replacen("\"version\":2", "\"version\":1", 1)) {
            Err(HgError::Journal(detail)) => {
                assert!(
                    detail.contains("unsupported checkpoint version 1"),
                    "{detail}"
                )
            }
            other => panic!("expected a typed journal error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_home_ids_are_refused_in_full_and_delta_documents() {
        let (state, store, _) = state_with(&[("OnApp", ON_APP)]);
        let twice = vec![(id(3), state.clone()), (id(3), state)];
        let full = Checkpoint::Full {
            offset: 4,
            fleet: FleetSnapshot {
                shards: 1,
                next_id: 4,
                store,
                homes: twice.clone(),
            },
        };
        let delta = Checkpoint::Delta {
            offset: 4,
            next_id: 4,
            store: None,
            homes: twice,
            removed: Vec::new(),
        };
        for ckpt in [full, delta] {
            match Checkpoint::from_text(&ckpt.to_text()) {
                Err(HgError::Journal(detail)) => {
                    assert!(detail.contains("duplicate home id"), "{detail}")
                }
                other => panic!("a home listed twice must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn materialize_folds_deltas_over_the_full_base() {
        let (state_a, store, shared) = state_with(&[("OnApp", ON_APP)]);
        let mut home_b = Home::new(shared);
        let state_b0 = home_b.export_state();
        home_b.install_app(ON_APP, "OnApp", None).unwrap();
        let state_b1 = home_b.export_state();
        let chain = vec![
            Checkpoint::Full {
                offset: 2,
                fleet: FleetSnapshot {
                    shards: 2,
                    next_id: 2,
                    store,
                    homes: vec![(id(0), state_a.clone()), (id(1), state_b0)],
                },
            },
            Checkpoint::Delta {
                offset: 5,
                next_id: 3,
                store: None,
                homes: vec![(id(1), state_b1.clone()), (id(2), state_a.clone())],
                removed: vec![0],
            },
        ];
        let (offset, image) = materialize(chain.clone()).unwrap();
        assert_eq!(offset, 5);
        assert_eq!(image.next_id, 3);
        assert_eq!(image.shards, 2);
        assert_eq!(
            image.homes,
            vec![(id(1), state_b1), (id(2), state_a)],
            "home 0 removed, homes 1-2 live"
        );
        // A chain that does not start full is refused.
        assert!(materialize(chain[1..].to_vec()).is_err());
        assert!(materialize(Vec::new()).is_err());
    }
}
