//! The typed fleet event vocabulary.
//!
//! Every observable moment in the fleet — a lifecycle write finishing, a
//! journal append, a queue refusing work — is one [`TelemetryEvent`]
//! published into the [`TelemetryBus`](crate::TelemetryBus). The fleet
//! publishes one lifecycle event per write, whatever the number of homes
//! it touched: a batch or sweep carries its homes and tallies in that one
//! event. Events are plain owned data: cheap to clone, comparable in
//! tests, and renderable as one NDJSON line each for `/events/stream`.

use hg_rules::json::Json;

/// The pairwise threats of one write's reports between one pair of apps,
/// of one kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreatCount {
    /// Threat-kind acronym (paper Table I).
    pub kind: &'static str,
    /// Source-side app.
    pub source_app: String,
    /// Target-side app.
    pub target_app: String,
    /// Threats of this kind between the two apps.
    pub count: u64,
}

/// The shard a sweep unit walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// Shard index.
    pub shard: u64,
    /// Homes visited in the shard, whether or not they ran the app.
    pub visited: u64,
}

/// One fleet observability event. Field conventions: `homes` are raw
/// [`HomeId`](hg_rules::rule::RuleId) routing keys, `micros` are
/// wall-clock, `kind` strings are the paper's threat acronyms (AR, GC,
/// CT, SD, LT, EC, DC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// One write registered homes (a creation, a batch creation or an
    /// import).
    HomesCreated {
        /// Raw ids of the new homes, in creation order.
        homes: Vec<u64>,
    },
    /// One install-shaped write ran its detection passes: an install or
    /// upgrade into one home, a group install, or one shard of an upgrade
    /// rollout.
    InstallCompleted {
        /// The app checked.
        app: String,
        /// Whether the write upgraded an installed app.
        upgrade: bool,
        /// Raw ids of the homes whose attempt produced a report.
        homes: Vec<u64>,
        /// Reports that landed installed (auto-confirmed, or forced).
        clean: u64,
        /// Reports awaiting a user's confirmation.
        dirty: u64,
        /// Pairs checked, over every report.
        pairs: u64,
        /// Constraint solves run.
        solves: u64,
        /// Pair verdicts answered from the fleet cache.
        cache_hits: u64,
        /// Pair verdicts computed fresh.
        cache_misses: u64,
        /// The reports' pairwise threats, tallied by kind and app pair.
        threats: Vec<ThreatCount>,
        /// The shard walked, when the write is a sweep unit.
        sweep: Option<Sweep>,
        /// Wall-clock time of the whole write.
        micros: u64,
    },
    /// One write uninstalled an app: from one home, or from every home of
    /// one shard running it.
    UninstallCompleted {
        /// The app removed.
        app: String,
        /// Raw ids of the homes it was removed from.
        homes: Vec<u64>,
        /// Rules unposted, over every home.
        removed_rules: u64,
        /// Allowed threats retired with it, over every home.
        retired_threats: u64,
        /// The shard walked, when the write is a sweep unit.
        sweep: Option<Sweep>,
    },
    /// A consistent fleet snapshot was captured.
    SnapshotTaken {
        /// Homes in the snapshot.
        homes: u64,
        /// Wall-clock capture time.
        micros: u64,
    },
    /// A work queue refused a job at capacity (the HTTP 429 path).
    QueueSaturated {
        /// Which queue: `shard` or `store`.
        queue: &'static str,
        /// Shard index (the shard count stands in for the store pool).
        shard: u64,
        /// Queue depth at refusal.
        depth: u64,
    },
    /// Records were appended durably to the write-ahead journal.
    JournalAppended {
        /// Records appended.
        records: u64,
        /// Framed bytes written.
        bytes: u64,
    },
    /// The journal flushed its backend to stable storage.
    JournalSynced {
        /// Wall-clock flush time.
        micros: u64,
    },
    /// A journal checkpoint document was written.
    JournalCheckpoint {
        /// Journal offset the checkpoint covers.
        offset: u64,
        /// Homes exported into the document.
        homes: u64,
        /// Wall-clock export-and-write time.
        micros: u64,
    },
    /// Crash recovery replayed journal records onto the newest
    /// checkpoint image.
    JournalReplayed {
        /// Records replayed.
        records: u64,
        /// Wall-clock replay time.
        micros: u64,
    },
    /// A journal backend write was retried after transient I/O failures.
    IoRetry {
        /// Which operation retried: `append`, `sync` or `checkpoint`.
        op: String,
        /// Retry attempts this operation consumed (beyond the first try).
        attempts: u64,
    },
    /// The journal exhausted its I/O retries (or hit a permanent error)
    /// and quarantined itself; the service is serving degraded.
    JournalDegraded {
        /// The last offset the journal can still vouch for.
        offset: u64,
        /// What tripped the quarantine.
        reason: String,
    },
    /// A quarantined journal healed: a fresh checkpoint re-armed it
    /// on a recovered backend.
    JournalHealed {
        /// The offset the healing checkpoint covers.
        offset: u64,
    },
}

impl TelemetryEvent {
    /// Stable machine-readable event-type tag.
    pub fn tag(&self) -> &'static str {
        match self {
            TelemetryEvent::HomesCreated { .. } => "homes_created",
            TelemetryEvent::InstallCompleted { .. } => "install_completed",
            TelemetryEvent::UninstallCompleted { .. } => "uninstall_completed",
            TelemetryEvent::SnapshotTaken { .. } => "snapshot_taken",
            TelemetryEvent::QueueSaturated { .. } => "queue_saturated",
            TelemetryEvent::JournalAppended { .. } => "journal_appended",
            TelemetryEvent::JournalSynced { .. } => "journal_synced",
            TelemetryEvent::JournalCheckpoint { .. } => "journal_checkpoint",
            TelemetryEvent::JournalReplayed { .. } => "journal_replayed",
            TelemetryEvent::IoRetry { .. } => "io_retry",
            TelemetryEvent::JournalDegraded { .. } => "journal_degraded",
            TelemetryEvent::JournalHealed { .. } => "journal_healed",
        }
    }

    /// Encodes the event as one flat JSON object (an NDJSON stream line),
    /// stamped with its bus sequence number.
    pub fn to_json(&self, seq: u64) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::Num(seq as i64)),
            ("type".to_string(), Json::str(self.tag())),
        ];
        match self {
            TelemetryEvent::HomesCreated { homes } => {
                fields.push(("homes".into(), ids_json(homes)));
            }
            TelemetryEvent::InstallCompleted {
                app,
                upgrade,
                homes,
                clean,
                dirty,
                pairs,
                solves,
                cache_hits,
                cache_misses,
                threats,
                sweep,
                micros,
            } => {
                let threats = threats
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("kind", Json::str(t.kind)),
                            ("source_app", Json::str(&t.source_app)),
                            ("target_app", Json::str(&t.target_app)),
                            ("count", Json::Num(t.count as i64)),
                        ])
                    })
                    .collect();
                fields.extend([
                    ("app".to_string(), Json::str(app)),
                    ("upgrade".to_string(), Json::Bool(*upgrade)),
                    ("homes".to_string(), ids_json(homes)),
                    ("clean".to_string(), Json::Num(*clean as i64)),
                    ("dirty".to_string(), Json::Num(*dirty as i64)),
                    ("pairs".to_string(), Json::Num(*pairs as i64)),
                    ("solves".to_string(), Json::Num(*solves as i64)),
                    ("cache_hits".to_string(), Json::Num(*cache_hits as i64)),
                    ("cache_misses".to_string(), Json::Num(*cache_misses as i64)),
                    ("threats".to_string(), Json::Arr(threats)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                ]);
                fields.extend(sweep_fields(sweep));
            }
            TelemetryEvent::UninstallCompleted {
                app,
                homes,
                removed_rules,
                retired_threats,
                sweep,
            } => {
                fields.extend([
                    ("app".to_string(), Json::str(app)),
                    ("homes".to_string(), ids_json(homes)),
                    (
                        "removed_rules".to_string(),
                        Json::Num(*removed_rules as i64),
                    ),
                    (
                        "retired_threats".to_string(),
                        Json::Num(*retired_threats as i64),
                    ),
                ]);
                fields.extend(sweep_fields(sweep));
            }
            TelemetryEvent::SnapshotTaken { homes, micros } => {
                fields.extend([
                    ("homes".to_string(), Json::Num(*homes as i64)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                ]);
            }
            TelemetryEvent::QueueSaturated {
                queue,
                shard,
                depth,
            } => {
                fields.extend([
                    ("queue".to_string(), Json::str(*queue)),
                    ("shard".to_string(), Json::Num(*shard as i64)),
                    ("depth".to_string(), Json::Num(*depth as i64)),
                ]);
            }
            TelemetryEvent::JournalAppended { records, bytes } => {
                fields.extend([
                    ("records".to_string(), Json::Num(*records as i64)),
                    ("bytes".to_string(), Json::Num(*bytes as i64)),
                ]);
            }
            TelemetryEvent::JournalSynced { micros } => {
                fields.push(("micros".to_string(), Json::Num(*micros as i64)));
            }
            TelemetryEvent::JournalCheckpoint {
                offset,
                homes,
                micros,
            } => {
                fields.extend([
                    ("offset".to_string(), Json::Num(*offset as i64)),
                    ("homes".to_string(), Json::Num(*homes as i64)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                ]);
            }
            TelemetryEvent::JournalReplayed { records, micros } => {
                fields.extend([
                    ("records".to_string(), Json::Num(*records as i64)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                ]);
            }
            TelemetryEvent::IoRetry { op, attempts } => {
                fields.extend([
                    ("op".to_string(), Json::str(op)),
                    ("attempts".to_string(), Json::Num(*attempts as i64)),
                ]);
            }
            TelemetryEvent::JournalDegraded { offset, reason } => {
                fields.extend([
                    ("offset".to_string(), Json::Num(*offset as i64)),
                    ("reason".to_string(), Json::str(reason)),
                ]);
            }
            TelemetryEvent::JournalHealed { offset } => {
                fields.push(("offset".to_string(), Json::Num(*offset as i64)));
            }
        }
        Json::Obj(fields.into_iter().collect())
    }
}

fn ids_json(ids: &[u64]) -> Json {
    Json::Arr(ids.iter().map(|&id| Json::Num(id as i64)).collect())
}

/// A sweep unit's `shard` and `visited` fields (none outside a sweep).
fn sweep_fields(sweep: &Option<Sweep>) -> Vec<(String, Json)> {
    sweep
        .iter()
        .flat_map(|s| {
            [
                ("shard".to_string(), Json::Num(s.shard as i64)),
                ("visited".to_string(), Json::Num(s.visited as i64)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_encodes_with_seq_and_type() {
        let events = [
            TelemetryEvent::HomesCreated { homes: vec![3, 4] },
            TelemetryEvent::InstallCompleted {
                app: "OnApp".into(),
                upgrade: false,
                homes: vec![1, 5],
                clean: 1,
                dirty: 1,
                pairs: 4,
                solves: 2,
                cache_hits: 2,
                cache_misses: 2,
                threats: vec![ThreatCount {
                    kind: "AR",
                    source_app: "A".into(),
                    target_app: "OnApp".into(),
                    count: 1,
                }],
                sweep: Some(Sweep {
                    shard: 5,
                    visited: 12,
                }),
                micros: 120,
            },
            TelemetryEvent::UninstallCompleted {
                app: "A".into(),
                homes: vec![1],
                removed_rules: 2,
                retired_threats: 1,
                sweep: None,
            },
            TelemetryEvent::SnapshotTaken {
                homes: 64,
                micros: 1500,
            },
            TelemetryEvent::QueueSaturated {
                queue: "shard",
                shard: 2,
                depth: 64,
            },
            TelemetryEvent::JournalAppended {
                records: 1,
                bytes: 180,
            },
            TelemetryEvent::JournalSynced { micros: 45 },
            TelemetryEvent::JournalCheckpoint {
                offset: 96,
                homes: 12,
                micros: 2200,
            },
            TelemetryEvent::JournalReplayed {
                records: 34,
                micros: 5100,
            },
            TelemetryEvent::IoRetry {
                op: "append".into(),
                attempts: 2,
            },
            TelemetryEvent::JournalDegraded {
                offset: 41,
                reason: "injected: disk full".into(),
            },
            TelemetryEvent::JournalHealed { offset: 41 },
        ];
        for (n, event) in events.iter().enumerate() {
            let json = event.to_json(n as u64);
            assert_eq!(json.get("seq").and_then(Json::as_num), Some(n as i64));
            assert_eq!(
                json.get("type").and_then(Json::as_str),
                Some(event.tag()),
                "tag must match encoding"
            );
            // Round-trips through the wire codec.
            let back = Json::parse(&json.to_text()).unwrap();
            assert_eq!(back.get("type").and_then(Json::as_str), Some(event.tag()));
        }
    }
}
