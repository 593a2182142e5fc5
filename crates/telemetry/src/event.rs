//! The typed fleet event vocabulary.
//!
//! Every observable moment in the fleet — a lifecycle operation finishing,
//! a threat surfacing, a mediation decision, a cache probe — is one
//! [`TelemetryEvent`] published into the [`TelemetryBus`](crate::TelemetryBus).
//! Events are plain owned data: cheap to clone, comparable in tests, and
//! renderable as one NDJSON line each for `/events/stream`.

use hg_rules::json::Json;

/// One fleet observability event. Field conventions: `home` is the raw
/// [`HomeId`](hg_rules::rule::RuleId) routing key (0 for a standalone
/// session outside any fleet), `micros`/`latency_ns` are wall-clock,
/// `kind` strings are the paper's threat acronyms (AR, GC, CT, SD, LT,
/// EC, DC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// A home was registered in the fleet.
    HomeCreated {
        /// Raw home id.
        home: u64,
    },
    /// An install or upgrade attempt ran its detection pass to completion
    /// (clean → auto-confirmed; dirty → pending a user confirmation).
    InstallCompleted {
        /// Raw home id.
        home: u64,
        /// The app checked.
        app: String,
        /// Whether the attempt auto-confirmed (no interference).
        installed: bool,
        /// Whether this was an upgrade of an installed app.
        upgrade: bool,
        /// Threats in the report.
        threats: u64,
        /// Pairs checked.
        pairs: u64,
        /// Constraint solves run.
        solves: u64,
        /// Pair verdicts answered from the fleet cache.
        cache_hits: u64,
        /// Pair verdicts computed fresh.
        cache_misses: u64,
        /// Wall-clock cost of the whole attempt.
        micros: u64,
    },
    /// One threat surfaced by a detection pass.
    ThreatDetected {
        /// Raw home id.
        home: u64,
        /// Threat-kind acronym (paper Table I).
        kind: &'static str,
        /// Source-side app.
        source_app: String,
        /// Target-side app.
        target_app: String,
    },
    /// An app was uninstalled from a home.
    UninstallCompleted {
        /// Raw home id.
        home: u64,
        /// The app removed.
        app: String,
        /// Rules unposted.
        removed_rules: u64,
        /// Allowed threats retired with it.
        retired_threats: u64,
    },
    /// The runtime enforcer mediated one intercepted event.
    MediationDecision {
        /// Raw home id.
        home: u64,
        /// Threat-kind acronym of the governing point (`-` when the event
        /// took the non-member fast path).
        kind: &'static str,
        /// Final decision: `allow`, `suppress` or `defer`.
        verdict: &'static str,
        /// Wall-clock decision time.
        latency_ns: u64,
    },
    /// A sampled pair-check timing probe (hits are 1-in-N sampled with
    /// `weight` N; misses are all timed with weight 1).
    CacheProbe {
        /// Whether the fleet verdict cache answered.
        hit: bool,
        /// Wall-clock pair-check time.
        micros: u64,
        /// How many pair checks this probe stands for.
        weight: u64,
    },
    /// One shard's slice of a fleet-wide sweep finished.
    SweepShardDone {
        /// Shard index.
        shard: u64,
        /// Sweep kind: `upgrade` or `uninstall`.
        op: &'static str,
        /// Homes visited in the shard.
        homes: u64,
        /// Wall-clock shard time.
        micros: u64,
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
            TelemetryEvent::HomeCreated { .. } => "home_created",
            TelemetryEvent::InstallCompleted { .. } => "install_completed",
            TelemetryEvent::ThreatDetected { .. } => "threat_detected",
            TelemetryEvent::UninstallCompleted { .. } => "uninstall_completed",
            TelemetryEvent::MediationDecision { .. } => "mediation_decision",
            TelemetryEvent::CacheProbe { .. } => "cache_probe",
            TelemetryEvent::SweepShardDone { .. } => "sweep_shard_done",
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
            TelemetryEvent::HomeCreated { home } => {
                fields.push(("home".into(), Json::Num(*home as i64)));
            }
            TelemetryEvent::InstallCompleted {
                home,
                app,
                installed,
                upgrade,
                threats,
                pairs,
                solves,
                cache_hits,
                cache_misses,
                micros,
            } => {
                fields.extend([
                    ("home".to_string(), Json::Num(*home as i64)),
                    ("app".to_string(), Json::str(app)),
                    ("installed".to_string(), Json::Bool(*installed)),
                    ("upgrade".to_string(), Json::Bool(*upgrade)),
                    ("threats".to_string(), Json::Num(*threats as i64)),
                    ("pairs".to_string(), Json::Num(*pairs as i64)),
                    ("solves".to_string(), Json::Num(*solves as i64)),
                    ("cache_hits".to_string(), Json::Num(*cache_hits as i64)),
                    ("cache_misses".to_string(), Json::Num(*cache_misses as i64)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                ]);
            }
            TelemetryEvent::ThreatDetected {
                home,
                kind,
                source_app,
                target_app,
            } => {
                fields.extend([
                    ("home".to_string(), Json::Num(*home as i64)),
                    ("kind".to_string(), Json::str(*kind)),
                    ("source_app".to_string(), Json::str(source_app)),
                    ("target_app".to_string(), Json::str(target_app)),
                ]);
            }
            TelemetryEvent::UninstallCompleted {
                home,
                app,
                removed_rules,
                retired_threats,
            } => {
                fields.extend([
                    ("home".to_string(), Json::Num(*home as i64)),
                    ("app".to_string(), Json::str(app)),
                    (
                        "removed_rules".to_string(),
                        Json::Num(*removed_rules as i64),
                    ),
                    (
                        "retired_threats".to_string(),
                        Json::Num(*retired_threats as i64),
                    ),
                ]);
            }
            TelemetryEvent::MediationDecision {
                home,
                kind,
                verdict,
                latency_ns,
            } => {
                fields.extend([
                    ("home".to_string(), Json::Num(*home as i64)),
                    ("kind".to_string(), Json::str(*kind)),
                    ("verdict".to_string(), Json::str(*verdict)),
                    ("latency_ns".to_string(), Json::Num(*latency_ns as i64)),
                ]);
            }
            TelemetryEvent::CacheProbe {
                hit,
                micros,
                weight,
            } => {
                fields.extend([
                    ("hit".to_string(), Json::Bool(*hit)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                    ("weight".to_string(), Json::Num(*weight as i64)),
                ]);
            }
            TelemetryEvent::SweepShardDone {
                shard,
                op,
                homes,
                micros,
            } => {
                fields.extend([
                    ("shard".to_string(), Json::Num(*shard as i64)),
                    ("op".to_string(), Json::str(*op)),
                    ("homes".to_string(), Json::Num(*homes as i64)),
                    ("micros".to_string(), Json::Num(*micros as i64)),
                ]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_encodes_with_seq_and_type() {
        let events = [
            TelemetryEvent::HomeCreated { home: 3 },
            TelemetryEvent::InstallCompleted {
                home: 1,
                app: "OnApp".into(),
                installed: true,
                upgrade: false,
                threats: 0,
                pairs: 4,
                solves: 2,
                cache_hits: 2,
                cache_misses: 2,
                micros: 120,
            },
            TelemetryEvent::ThreatDetected {
                home: 1,
                kind: "AR",
                source_app: "A".into(),
                target_app: "B".into(),
            },
            TelemetryEvent::UninstallCompleted {
                home: 1,
                app: "A".into(),
                removed_rules: 2,
                retired_threats: 1,
            },
            TelemetryEvent::MediationDecision {
                home: 1,
                kind: "AR",
                verdict: "suppress",
                latency_ns: 900,
            },
            TelemetryEvent::CacheProbe {
                hit: true,
                micros: 2,
                weight: 64,
            },
            TelemetryEvent::SweepShardDone {
                shard: 5,
                op: "upgrade",
                homes: 12,
                micros: 800,
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
