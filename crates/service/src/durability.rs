//! Journal-backed durability: crash recovery and checkpoints.
//!
//! With a [`Journal`] attached ([`Fleet::attach_journal`]), every fleet
//! lifecycle mutation appends a [`JournalRecord`]
//! under the journal's checkpoint gate, so restore stops being a
//! stop-the-world snapshot problem and becomes **last checkpoint +
//! replay**:
//!
//! * [`Fleet::recover`] — revives the journal's newest checkpoint, a
//!   [`FleetSnapshot`](hg_persist::FleetSnapshot) document, with
//!   [`Fleet::restore`] (the warm-restart path `POST /restore` takes too),
//!   then replays every record past the offset it is stored under
//!   through the same public lifecycle methods live traffic uses. The
//!   result is bit-identical to the crashed fleet (the property
//!   `tests/journal_fuzz.rs` proves at every record boundary).
//! * [`Fleet::checkpoint`] — stores the text of the fleet's own
//!   [`Fleet::snapshot`], taken under the gate's exclusive side so the
//!   cut is consistent, under the journal offset it covers; the journal
//!   drops the checkpoints and segments it replaces. A checkpoint is
//!   byte for byte what `GET /snapshot` returns at that cut, so a
//!   snapshot body stored as the only checkpoint of an empty journal
//!   (`ckpt-00000000000000000000.json` in a
//!   [`DirBackend`](hg_journal::DirBackend) directory) recovers like any
//!   other.
//! * [`start_checkpointer`] — wires a fleet into the journal's background
//!   [`CheckpointScheduler`].

use crate::fleet::Fleet;
use hg_config::ConfigInfo;
use hg_detector::DetectStats;
use hg_journal::{
    journal_context, journal_err, CheckpointScheduler, CheckpointStats, Journal, JournalRecord,
};
use homeguard_core::{HgError, HomeId, InstallReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Fleet {
    /// Revives a fleet from its write-ahead journal — the crash-recovery
    /// path. Reads the newest checkpoint, revives its fleet image with
    /// [`Fleet::restore`] (ids, Allowed lists and the ingest cache
    /// survive), replays every journal record at or past its offset
    /// through the public lifecycle methods, and finally re-attaches the
    /// journal so the recovered fleet keeps journaling where the crashed
    /// one stopped.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when no checkpoint is stored, the newest one
    /// is corrupt or not a fleet snapshot this build reads (its offset and
    /// its kind or version are named in the message; an older build's
    /// checkpoint document is refused by its kind), or a record cannot be
    /// replayed (the offending offset is named); [`HgError::Snapshot`]
    /// when the image is inconsistent.
    pub fn recover(journal: Arc<Journal>) -> Result<Fleet, HgError> {
        let (offset, fleet) = journal.latest_checkpoint()?;
        let fleet = Fleet::restore(fleet)?;
        let records = journal.records_from(offset)?;
        let started = Instant::now();
        let replayed = records.len() as u64;
        for (at, record) in records {
            fleet
                .replay(record)
                .map_err(|e| journal_context(format_args!("replay failed at offset {at}"), e))?;
        }
        journal.note_replayed(replayed, started.elapsed().as_micros() as u64);
        fleet.attach_journal(journal)?;
        Ok(fleet)
    }

    /// Applies one journal record to an un-journaled fleet being rebuilt.
    /// Records are state deltas: installs re-enter through
    /// [`Fleet::confirm_install`] with the journaled report, never by
    /// re-running detection against whatever the store holds *now*.
    fn replay(&self, record: JournalRecord) -> Result<(), HgError> {
        match record {
            JournalRecord::HomesCreated { ids, state } => {
                for id in ids {
                    self.insert_home_at(HomeId::new(id), state.clone())?;
                }
                Ok(())
            }
            JournalRecord::HomeRemoved { id } => self.remove_home(HomeId::new(id)),
            JournalRecord::InstallCommitted {
                homes,
                app,
                replaces,
                rules,
                threats,
                config,
            } => {
                // Rules come from the record when it carried them (a
                // stale-report confirmation) and from the store otherwise.
                let rules = match rules {
                    Some(rules) => rules,
                    None => self.store().rules_of(&app)?,
                };
                let report = InstallReport {
                    config: config.map(|uri| config_info(&uri)).transpose()?,
                    app,
                    rules,
                    threats,
                    chains: Vec::new(),
                    stats: DetectStats::default(),
                    installed: false,
                    replaces,
                    dropped_ranks: Vec::new(),
                };
                for id in homes {
                    self.confirm_install(HomeId::new(id), report.clone())?;
                }
                Ok(())
            }
            JournalRecord::UninstallCommitted { homes, app } => {
                for id in homes {
                    self.uninstall_app(HomeId::new(id), &app)?;
                }
                Ok(())
            }
            JournalRecord::PolicyChanged { id, table } => {
                self.set_handling_policy(HomeId::new(id), table)
            }
            JournalRecord::ConfigRecorded { id, uri } => {
                self.record_config(HomeId::new(id), &config_info(&uri)?)
            }
            JournalRecord::StoreIngested {
                app,
                source,
                as_name,
            } => {
                if as_name {
                    self.store().ingest_as(&source, &app).map(|_| ())
                } else {
                    self.store().ingest(&source, &app).map(|_| ())
                }
            }
            JournalRecord::StoreRetired { app } => {
                self.store().retire_app(&app);
                Ok(())
            }
        }
    }

    /// Writes a checkpoint covering everything journaled so far: the
    /// fleet's whole image, taken under the checkpoint gate's exclusive
    /// side, so the cut is consistent with respect to every journaled
    /// mutation. The journal then holds this checkpoint alone, with the
    /// records since it ([`Journal::checkpoint_write`]). When no record
    /// has landed since the newest checkpoint, nothing is written and the
    /// stats report `homes: 0`.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when no journal is attached or the write
    /// fails; [`HgError::Poisoned`] when exporting hits a poisoned shard;
    /// [`HgError::Degraded`] when a [`Journal::reset`] handed the journal
    /// to the fleet that replaced this one.
    pub fn checkpoint(&self) -> Result<CheckpointStats, HgError> {
        let (journal, _cut) = self.journal_cut()?;
        let offset = journal.next_offset();
        if journal.last_checkpoint_offset() == Some(offset) {
            return Ok(CheckpointStats {
                offset,
                homes: 0,
                micros: 0,
            });
        }
        journal.checkpoint_write(offset, &self.snapshot()?)
    }

    /// Re-arms a quarantined journal over the **live** fleet state: takes
    /// the gate's exclusive side (no mutation is mid-flight), snapshots
    /// the fleet, and hands the snapshot to [`Journal::heal`] at the
    /// journal's current offset. While quarantined every write is refused,
    /// so the only state the fresh image carries beyond the durable prefix
    /// is that of writes already admitted when the quarantine tripped
    /// (each applied and reported as [`HgError::Journal`]); after healing,
    /// recovery keeps them.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when no journal is attached, the journal is
    /// not quarantined, or the backend is still failing (the quarantine
    /// stands — call again once the disk recovers); [`HgError::Poisoned`]
    /// when the snapshot hits a poisoned shard; [`HgError::Degraded`] as
    /// on [`Fleet::checkpoint`].
    pub fn heal_journal(&self) -> Result<CheckpointStats, HgError> {
        let (journal, _cut) = self.journal_cut()?;
        journal.heal(journal.next_offset(), self.snapshot()?)
    }
}

/// Decodes a journaled configuration-info URI.
fn config_info(uri: &str) -> Result<ConfigInfo, HgError> {
    ConfigInfo::from_uri(uri).map_err(|e| journal_err(format!("bad config uri in journal: {e}")))
}

/// Starts the background checkpointer for a journaled fleet: every
/// `interval`, [`Fleet::checkpoint`] runs on the `hg-checkpointer`
/// thread. A tick's failure (e.g. a poisoned shard) is skipped — the next
/// tick retries, and an un-checkpointed journal merely replays longer.
/// Stops when the returned [`CheckpointScheduler`] is dropped.
pub fn start_checkpointer(fleet: Arc<Fleet>, interval: Duration) -> CheckpointScheduler {
    CheckpointScheduler::start(interval, move || {
        let _ = fleet.checkpoint();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_journal::{DirBackend, JournalBackend, JournalConfig, MemBackend};
    use homeguard_core::RuleStore;

    const ON_APP: &str = r#"
definition(name: "OnApp")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.on() }
"#;

    const OFF_APP: &str = r#"
definition(name: "OffApp")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.off() }
"#;

    fn journaled_fleet() -> (Fleet, MemBackend) {
        let backend = MemBackend::new();
        let journal = Arc::new(Journal::open(Box::new(backend.clone())).unwrap());
        let fleet = Fleet::new(RuleStore::shared());
        assert!(fleet.attach_journal(journal).unwrap());
        (fleet, backend)
    }

    fn reopen(backend: &MemBackend) -> Fleet {
        let journal = Arc::new(Journal::open(Box::new(backend.clone())).unwrap());
        Fleet::recover(journal).unwrap()
    }

    fn fleet_text(fleet: &Fleet) -> String {
        fleet.snapshot().unwrap().to_text()
    }

    #[test]
    fn recover_replays_installs_and_removals() {
        let (fleet, backend) = journaled_fleet();
        let a = fleet.create_home().unwrap();
        let b = fleet.create_home().unwrap();
        fleet.install_app(a, ON_APP, "OnApp", None).unwrap();
        let dirty = fleet.install_app(a, OFF_APP, "OffApp", None).unwrap();
        assert!(!dirty.installed);
        fleet.confirm_install(a, dirty).unwrap();
        fleet.install_app(b, ON_APP, "OnApp", None).unwrap();
        fleet.remove_home(b).unwrap();

        let recovered = reopen(&backend);
        assert_eq!(fleet_text(&recovered), fleet_text(&fleet));
        // The recovered fleet keeps journaling.
        assert!(recovered.journal().is_some());
    }

    #[test]
    fn bulk_install_journals_one_sweep_record_and_replays() {
        let (fleet, backend) = journaled_fleet();
        // Batch creation journals one `HomesCreated` for all six homes.
        let journal = fleet.journal().unwrap().clone();
        let created_at = journal.next_offset();
        let ids = fleet.create_homes(6).unwrap();
        assert_eq!(journal.next_offset(), created_at + 1);
        // One home already runs a conflicting app, so its group install
        // stays pending while the other five auto-confirm.
        fleet.install_app(ids[0], OFF_APP, "OffApp", None).unwrap();
        let before = journal.next_offset();
        let outcomes = fleet.install_many(&ids, ON_APP, "OnApp", None).unwrap();
        let installed = outcomes
            .iter()
            .filter(|(_, r)| r.as_ref().unwrap().installed)
            .count();
        assert_eq!(installed, 5, "the conflicted home stays pending");
        // One `StoreIngested` (the bulk pre-ingest) plus one
        // `InstallCommitted` naming all five clean homes — not one record
        // per home. The pending report journals nothing until it is
        // confirmed.
        assert_eq!(journal.next_offset(), before + 2);
        match &journal.records_from(before + 1).unwrap()[0].1 {
            JournalRecord::InstallCommitted { homes, rules, .. } => {
                assert_eq!(homes.len(), 5);
                assert!(rules.is_none(), "the store holds the batch's rules");
            }
            other => panic!("expected the batch's install record, got {other:?}"),
        }
        let pending = outcomes
            .into_iter()
            .find_map(|(id, r)| {
                let report = r.unwrap();
                (!report.installed).then_some((id, report))
            })
            .unwrap();
        fleet.confirm_install(pending.0, pending.1).unwrap();

        let recovered = reopen(&backend);
        assert_eq!(fleet_text(&recovered), fleet_text(&fleet));
    }

    /// The backend holds exactly the checkpoint at `offset`, and no
    /// segment but the tail it was written beside lies wholly below it.
    fn assert_holds_only(backend: &MemBackend, offset: u64) {
        assert_eq!(backend.checkpoints().unwrap(), vec![offset]);
        // Segment `i` ends where segment `i + 1` starts. Appends since the
        // write may have rotated past that tail, so the first segment may
        // lie below the checkpoint, but not the second.
        let starts = backend.segments().unwrap();
        assert!(
            starts.get(2).is_none_or(|&end| end > offset),
            "segments {starts:?} below the checkpoint at {offset} survived"
        );
    }

    #[test]
    fn recover_resumes_from_the_newest_checkpoint() {
        let (fleet, backend) = journaled_fleet();
        assert_holds_only(&backend, 0);
        let a = fleet.create_home().unwrap();
        fleet.install_app(a, ON_APP, "OnApp", None).unwrap();
        let first = fleet.checkpoint().unwrap();
        assert_eq!(first.homes, 1);
        assert_holds_only(&backend, first.offset);
        let b = fleet.create_home().unwrap();
        fleet.install_app(b, OFF_APP, "OffApp", None).unwrap();
        let second = fleet.checkpoint().unwrap();
        assert!(second.offset > first.offset);
        assert_holds_only(&backend, second.offset);
        fleet.uninstall_app(a, "OnApp").unwrap();

        let recovered = reopen(&backend);
        assert_eq!(fleet_text(&recovered), fleet_text(&fleet));
    }

    #[test]
    fn checkpoint_with_no_new_records_writes_nothing() {
        let (fleet, backend) = journaled_fleet();
        let journal = fleet.journal().unwrap().clone();
        let before = journal.last_checkpoint_offset();
        let stats = fleet.checkpoint().unwrap();
        assert_eq!(stats.homes, 0);
        assert_eq!(journal.last_checkpoint_offset(), before);
        assert_eq!(backend.checkpoints().unwrap().len(), 1);
    }

    /// A checkpoint is the `GET /snapshot` document at its cut, byte for
    /// byte: the attach baseline and a later checkpoint alike.
    #[test]
    fn checkpoint_stores_the_snapshot_document() {
        let (fleet, backend) = journaled_fleet();
        assert_eq!(backend.read_checkpoint(0).unwrap(), fleet_text(&fleet));
        let a = fleet.create_home().unwrap();
        fleet.install_app(a, ON_APP, "OnApp", None).unwrap();
        let stats = fleet.checkpoint().unwrap();
        assert_eq!(
            backend.read_checkpoint(stats.offset).unwrap(),
            fleet_text(&fleet)
        );
    }

    /// The upgrade path that skips `POST /restore`: a `GET /snapshot` body
    /// written as the only file of an empty journal directory recovers,
    /// re-exports unchanged and journals onward from offset 0.
    #[test]
    fn a_snapshot_body_stored_as_the_only_checkpoint_recovers() {
        const FLEET_V1: &str = include_str!("../../persist/tests/fleet_snapshot_v1.json");
        let dir = std::env::temp_dir().join(format!("hg-upgrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt-00000000000000000000.json"), FLEET_V1).unwrap();
        let open = || Arc::new(Journal::open(Box::new(DirBackend::new(&dir).unwrap())).unwrap());
        let recovered = Fleet::recover(open()).unwrap();
        assert_eq!(fleet_text(&recovered), FLEET_V1);
        recovered.create_home().unwrap();
        assert_eq!(recovered.journal().unwrap().next_offset(), 1);
        assert_eq!(
            fleet_text(&Fleet::recover(open()).unwrap()),
            fleet_text(&recovered)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An older build stored the snapshot's payload under a `fleet` key
    /// beside its offset, at checkpoint format version 3. That document
    /// is refused by its kind, naming the offset it is stored under.
    #[test]
    fn recover_refuses_an_older_builds_checkpoint_by_its_kind() {
        let (fleet, backend) = journaled_fleet();
        fleet.create_home().unwrap();
        let offset = fleet.checkpoint().unwrap().offset;
        let text = backend.read_checkpoint(offset).unwrap();
        let payload = text
            .strip_prefix("{\"kind\":\"fleet\",\"payload\":")
            .and_then(|rest| rest.strip_suffix(",\"version\":1}"))
            .unwrap();
        let old = format!(
            "{{\"fleet\":{payload},\"kind\":\"journal-checkpoint\",\"offset\":{offset},\"version\":3}}"
        );
        backend.write_checkpoint(offset, &old).unwrap();
        let journal = Arc::new(Journal::open(Box::new(backend.clone())).unwrap());
        match Fleet::recover(journal) {
            Err(HgError::Journal(detail)) => assert!(
                detail.contains(&format!("checkpoint at offset {offset}"))
                    && detail.contains("kind `journal-checkpoint`"),
                "{detail}"
            ),
            Err(other) => panic!("expected a typed journal error, got {other:?}"),
            Ok(_) => panic!("an older build's checkpoint must be refused"),
        }
    }

    /// Two upgrades of one app race: both versions are published before
    /// the first one's shard units run. Each home's `ingest_as` then
    /// re-extracts the first version, which moves the store back to it;
    /// recovery must replay that move, or it installs the second
    /// version's rules and leaves the store on it.
    #[test]
    fn shard_upgrade_after_a_newer_ingest_replays_the_rules_it_installed() {
        let (fleet, backend) = journaled_fleet();
        let a = fleet.create_home().unwrap();
        fleet.install_app(a, ON_APP, "OnApp", None).unwrap();
        let away = ON_APP.replace(
            "{ lamp.on() }",
            "{ if (location.mode == \"Away\") { lamp.on() } }",
        );
        fleet.ingest_app_as(&away, "OnApp").unwrap();
        let night = away.replace("Away", "Night");
        fleet.ingest_app_as(&night, "OnApp").unwrap();
        for index in 0..fleet.shard_count() {
            fleet.upgrade_shard(index, &away, "OnApp");
        }
        let rules = |fleet: &Fleet| {
            fleet
                .with_home(a, |home| format!("{:?}", home.installed_rules()))
                .unwrap()
        };
        assert!(rules(&fleet).contains("Away"), "the live home runs v2");
        // The snapshot holds the store, which must be back on v2 too.
        let recovered = reopen(&backend);
        assert_eq!(rules(&recovered), rules(&fleet));
        assert_eq!(fleet_text(&recovered), fleet_text(&fleet));
    }

    /// A version-1 record past the newest checkpoint is refused by its
    /// version. The upgrade path, a checkpoint at the head, covers it,
    /// and records below a checkpoint are never decoded.
    #[test]
    fn recover_refuses_a_version_1_record_until_a_checkpoint_covers_it() {
        let (fleet, backend) = journaled_fleet();
        fleet.create_home().unwrap();
        // The journal's one record, as an older build wrote it.
        let v1 = br#"{"app":"OnApp","homes":[0],"op":"upgrade_swept","v":1}"#;
        backend.truncate_segment(0, 0).unwrap();
        backend
            .append_segment(0, &hg_journal::frame::encode_frame(v1))
            .unwrap();
        let journal = Arc::new(Journal::open(Box::new(backend.clone())).unwrap());
        match Fleet::recover(journal).err() {
            Some(error @ HgError::Journal(_)) => {
                let text = error.to_string();
                assert!(text.contains("record version 1"), "{text}");
                assert_eq!(
                    text.matches("journal failure: ").count(),
                    1,
                    "the prefix is said once: {text}"
                );
            }
            other => panic!("a version-1 record must be refused, got {other:?}"),
        }
        fleet.checkpoint().unwrap();
        assert_eq!(backend.segments().unwrap(), vec![0], "the record stays");
        assert_eq!(fleet_text(&reopen(&backend)), fleet_text(&fleet));
    }

    #[test]
    fn checkpoint_without_journal_is_an_error() {
        let fleet = Fleet::new(RuleStore::shared());
        assert!(matches!(fleet.checkpoint(), Err(HgError::Journal(_))));
    }

    #[test]
    fn background_checkpointer_leaves_no_records_to_replay() {
        let (fleet, backend) = journaled_fleet();
        let fleet = Arc::new(fleet);
        let a = fleet.create_home().unwrap();
        fleet.install_app(a, ON_APP, "OnApp", None).unwrap();
        let journal = fleet.journal().unwrap().clone();
        {
            let _scheduler = start_checkpointer(fleet.clone(), Duration::from_millis(5));
            let deadline = Instant::now() + Duration::from_secs(5);
            while journal.last_checkpoint_offset() != Some(journal.next_offset()) {
                assert!(Instant::now() < deadline, "checkpointer never ticked");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert!(journal
            .records_from(journal.next_offset())
            .unwrap()
            .is_empty());
        let recovered = reopen(&backend);
        assert_eq!(fleet_text(&recovered), fleet_text(&fleet));
    }

    /// The periodic checkpointer keeps the journal bounded: however many
    /// ticks land while the fleet churns over small segments, the backend
    /// ends up holding the newest checkpoint alone and no segment but the
    /// tail below it.
    #[test]
    fn checkpointer_keeps_one_checkpoint_and_no_covered_segment() {
        let backend = MemBackend::new();
        let config = JournalConfig {
            max_segment_bytes: 256,
            ..JournalConfig::default()
        };
        let journal = Arc::new(Journal::open_with(Box::new(backend.clone()), config).unwrap());
        let fleet = Arc::new(Fleet::new(RuleStore::shared()));
        assert!(fleet.attach_journal(journal.clone()).unwrap());
        let homes: Vec<HomeId> = (0..4).map(|_| fleet.create_home().unwrap()).collect();
        let scheduler = start_checkpointer(fleet.clone(), Duration::from_millis(1));
        let mut seen = std::collections::BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        for round in 0.. {
            let home = homes[round % homes.len()];
            fleet.install_app(home, ON_APP, "OnApp", None).unwrap();
            fleet.uninstall_app(home, "OnApp").unwrap();
            seen.extend(journal.last_checkpoint_offset());
            if (seen.len() >= 8 && round >= 200) || Instant::now() > deadline {
                break;
            }
        }
        scheduler.stop();
        assert!(
            seen.len() >= 8,
            "the checkpointer ticked {} times",
            seen.len()
        );
        assert_holds_only(&backend, journal.last_checkpoint_offset().unwrap());
        assert!(
            backend.segments().unwrap()[0] > 0,
            "rotated segments must have been dropped"
        );
        let recovered = reopen(&backend);
        assert_eq!(fleet_text(&recovered), fleet_text(&fleet));
    }
}
