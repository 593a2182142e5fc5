//! Telemetry differential: attaching the fleet event bus must be a
//! **pure observation** — every report, every persisted byte, identical
//! with and without it — while the metrics registry's totals reconcile
//! *exactly* with the events the bus carried.
//!
//! Two fleets over separate stores run the same lifecycle churn: one
//! silent, one wired to a [`TelemetryHub`]. The wired fleet's observable
//! outputs (install/uninstall reports, rollout merges, the snapshot
//! document) must be bit-identical to the silent fleet's; the hub's
//! counters must then equal a direct recount of the bus events. The bus
//! folds each event as it is published, so no check here waits for
//! anything: totals are exact the moment an operation returns, even when
//! the operation fanned out over several shard workers.

use hg_api::{ExecConfig, FleetExec};
use hg_persist::FleetSnapshot;
use hg_service::{
    FaultBackend, FaultKind, FaultPlan, Fleet, HomeId, Journal, JournalConfig, MemBackend,
    RuleStore, TelemetryEvent,
};
use hg_telemetry::TelemetryHub;
use homeguard_core::HgError;
use std::sync::Arc;

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

/// One fleet's full observable output for the shared churn script: every
/// report rendered to a canonical line, in execution order.
fn churn(fleet: &Fleet) -> Vec<String> {
    let mut log = Vec::new();
    let ids: Vec<HomeId> = (0..6).map(|_| fleet.create_home().unwrap()).collect();
    for id in &ids {
        let report = fleet.install_app(*id, ON_APP, "OnApp", None).unwrap();
        log.push(render_install(&report));
    }
    for id in ids.iter().take(3) {
        let report = fleet
            .install_app_forced(*id, OFF_APP, "OffApp", None)
            .unwrap();
        log.push(render_install(&report));
    }
    let gone = fleet.uninstall_app(ids[0], "OffApp").unwrap();
    log.push(format!(
        "uninstall app={} rules={} retired={}",
        gone.app,
        gone.removed_rules.len(),
        gone.retired_threats
    ));
    let rollout = fleet
        .propagate_upgrade(&format!("{ON_APP}// v2\n"), "OnApp")
        .unwrap();
    log.push(format!(
        "rollout upgraded={:?} pending={:?} skipped={} failed={}",
        rollout
            .upgraded
            .iter()
            .map(|id| id.raw())
            .collect::<Vec<_>>(),
        rollout
            .pending
            .iter()
            .map(|(id, _)| id.raw())
            .collect::<Vec<_>>(),
        rollout.skipped,
        rollout.failed.len()
    ));
    log
}

fn render_install(report: &homeguard_core::InstallReport) -> String {
    let mut threats: Vec<String> = report
        .threats
        .iter()
        .map(|t| format!("{}:{}->{}", t.kind.acronym(), t.source.app, t.target.app))
        .collect();
    threats.sort();
    format!(
        "install app={} installed={} threats={:?} pairs={} solves={} hits={} misses={}",
        report.app,
        report.installed,
        threats,
        report.stats.pairs,
        report.stats.solves,
        report.stats.cache_hits,
        report.stats.cache_misses
    )
}

#[test]
fn attached_bus_changes_no_report_and_no_persisted_byte() {
    let silent = Fleet::builder(RuleStore::shared()).shards(4).build();
    let wired = Fleet::builder(RuleStore::shared()).shards(4).build();
    let hub = TelemetryHub::new();
    assert!(wired.attach_telemetry(hub.bus().clone()));

    let silent_log = churn(&silent);
    let wired_log = churn(&wired);
    assert_eq!(
        silent_log, wired_log,
        "every report must be identical with the bus attached"
    );

    // The persisted documents are bit-identical: a snapshot never embeds
    // observability state.
    let silent_doc = silent.snapshot().unwrap().to_text();
    let wired_doc = wired.snapshot().unwrap().to_text();
    assert_eq!(
        silent_doc, wired_doc,
        "snapshot bytes must not depend on telemetry"
    );

    // Exactness: the registry's totals equal a direct recount of the bus
    // events. Each event stands for one write; its homes and threat tally
    // carry the per-home counts.
    assert_eq!(hub.bus().dropped_events(), 0, "churn fits bus retention");
    let mut events = Vec::new();
    hub.bus().drain_since(0, &mut events);
    let sum = |per_event: fn(&TelemetryEvent) -> Option<u64>| -> (u64, u64) {
        let counts: Vec<u64> = events.iter().filter_map(|(_, e)| per_event(e)).collect();
        (counts.len() as u64, counts.iter().sum())
    };
    let registry = hub.registry();
    let (install_writes, installs) = sum(|e| match e {
        TelemetryEvent::InstallCompleted { homes, .. } => Some(homes.len() as u64),
        _ => None,
    });
    let (_, threats) = sum(|e| match e {
        TelemetryEvent::InstallCompleted { threats, .. } => {
            Some(threats.iter().map(|t| t.count).sum())
        }
        _ => None,
    });
    assert!(installs >= 9, "6 installs + 3 forced at minimum");
    assert!(threats > 0, "OffApp conflicts must surface");
    assert_eq!(registry.counter("installs_total"), installs);
    assert_eq!(registry.counter("threats_total"), threats);
    assert_eq!(
        registry.histogram("install_micros").unwrap().count,
        install_writes,
        "one timing per install write"
    );
    let (creations, created) = sum(|e| match e {
        TelemetryEvent::HomesCreated { homes } => Some(homes.len() as u64),
        _ => None,
    });
    assert_eq!(registry.counter("homes_created_total"), created);
    assert_eq!((creations, created), (6, 6), "one event per creation");
    let (_, uninstalled) = sum(|e| match e {
        TelemetryEvent::UninstallCompleted { homes, .. } => Some(homes.len() as u64),
        _ => None,
    });
    assert_eq!(registry.counter("uninstalls_total"), uninstalled);
    assert_eq!(registry.counter("uninstalls_total"), 1);
    let (sweeps, _) = sum(|e| match e {
        TelemetryEvent::InstallCompleted { sweep, .. }
        | TelemetryEvent::UninstallCompleted { sweep, .. } => sweep.map(|s| s.visited),
        _ => None,
    });
    assert_eq!(registry.counter("sweep_shards_total"), sweeps);
    assert_eq!(registry.counter("sweep_shards_total"), 4);
    assert_eq!(registry.counter("snapshots_total"), 1);
    assert_eq!(hub.bus().published(), events.len() as u64);

    // The detection counters reconcile exactly too: each registry total
    // equals the sum of the per-write payloads the bus carried. The
    // churn must produce both verdict-cache misses (the first home to ask
    // a pair) and hits (its neighbors asking the same pair), and every
    // pair check is one or the other.
    let mut sums = [0u64; 4];
    for (_, event) in &events {
        if let TelemetryEvent::InstallCompleted {
            pairs,
            solves,
            cache_hits,
            cache_misses,
            ..
        } = event
        {
            for (sum, n) in sums
                .iter_mut()
                .zip([pairs, solves, cache_hits, cache_misses])
            {
                *sum += n;
            }
        }
    }
    let [pairs, solves, hits, misses] = sums;
    assert_eq!(registry.counter("pairs_checked_total"), pairs);
    assert_eq!(registry.counter("solves_total"), solves);
    assert_eq!(registry.counter("cache_hits_total"), hits);
    assert_eq!(registry.counter("cache_misses_total"), misses);
    assert!(hits > 0, "neighbor homes must hit the verdict cache");
    assert!(misses > 0, "the first home to ask a pair must miss");
    assert_eq!(hits + misses, pairs, "every pair check hits or misses");

    // The silent fleet's mediation accessors work without any bus.
    assert_eq!(silent.mediation_stats().events, 0);
}

/// The fault-policy lifecycle publishes exactly what the registry
/// counts: one scripted transient and one torn write surface as
/// [`TelemetryEvent::IoRetry`] events whose `attempts` sum to
/// `io_retries_total`; the permanent fault's quarantine and the
/// subsequent heal appear once each. An exact reconciliation — not
/// `>=` — so a double-published or swallowed event fails the build.
#[test]
fn fault_policy_events_reconcile_exactly_with_registry_totals() {
    let mem = MemBackend::new();
    let fault = FaultBackend::new(mem.clone());
    let journal = Arc::new(
        Journal::open_with(
            Box::new(fault.clone()),
            JournalConfig {
                max_io_attempts: 3,
                backoff_micros: 0,
                ..JournalConfig::default()
            },
        )
        .unwrap(),
    );
    let hub = TelemetryHub::new();
    journal.set_telemetry(hub.bus().clone());
    let fleet = Fleet::builder(RuleStore::shared()).shards(2).build();
    assert!(fleet.attach_telemetry(hub.bus().clone()));
    assert!(fleet.attach_journal(journal.clone()).unwrap());
    fleet.create_home().unwrap();

    // One transient and one torn write: both absorbed by bounded retry.
    fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::Transient));
    fleet.create_home().unwrap();
    fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::ShortWrite));
    fleet.create_home().unwrap();
    assert!(!journal.is_quarantined(), "retries must absorb transients");

    // A permanent fault quarantines; a refused write adds no event noise.
    fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::Permanent));
    assert!(matches!(fleet.create_home(), Err(HgError::Journal(_))));
    assert!(journal.is_quarantined());
    assert!(matches!(fleet.create_home(), Err(HgError::Degraded(_))));

    // Heal and prove the journal is live again.
    fault.disarm();
    fleet.heal_journal().unwrap();
    fleet.create_home().unwrap();

    assert_eq!(hub.bus().dropped_events(), 0, "churn fits bus retention");
    let mut events = Vec::new();
    hub.bus().drain_since(0, &mut events);
    let registry = hub.registry();

    let retry_events = events
        .iter()
        .filter(|(_, e)| matches!(e, TelemetryEvent::IoRetry { .. }))
        .count() as u64;
    let retries: u64 = events
        .iter()
        .map(|(_, e)| match e {
            TelemetryEvent::IoRetry { attempts, .. } => *attempts,
            _ => 0,
        })
        .sum();
    let degraded = events
        .iter()
        .filter(|(_, e)| matches!(e, TelemetryEvent::JournalDegraded { .. }))
        .count() as u64;
    let healed = events
        .iter()
        .filter(|(_, e)| matches!(e, TelemetryEvent::JournalHealed { .. }))
        .count() as u64;

    assert!(retry_events >= 2, "transient + torn write both retried");
    assert!(retries >= retry_events, "each event carries ≥1 attempt");
    assert_eq!(degraded, 1, "exactly one quarantine transition");
    assert_eq!(healed, 1, "exactly one heal transition");
    assert_eq!(registry.counter("io_retry_events_total"), retry_events);
    assert_eq!(registry.counter("io_retries_total"), retries);
    assert_eq!(registry.counter("journal_degraded_total"), degraded);
    assert_eq!(registry.counter("journal_healed_total"), healed);
}

/// Upgrades dispatched through the per-shard executor publish from
/// every shard worker at once, one event per shard unit. With no wait
/// after each rollout, the registry must already account for every home
/// the rollout touched.
#[test]
fn exec_dispatched_rollouts_reconcile_with_no_wait() {
    const SHARDS: u64 = 4;
    let hub = TelemetryHub::new();
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(4).build());
    assert!(fleet.attach_telemetry(hub.bus().clone()));
    let ids: Vec<HomeId> = (0..32).map(|_| fleet.create_home().unwrap()).collect();
    for (_, result) in fleet.install_many(&ids, ON_APP, "OnApp", None).unwrap() {
        result.unwrap();
    }
    let registry = hub.registry();
    let counter = |name: &str| registry.counter(name);
    // The bulk install commits as one group, yet counts each home's
    // install exactly once.
    assert_eq!(counter("installs_total"), ids.len() as u64);
    assert_eq!(counter("installs_clean_total"), ids.len() as u64);
    // Every third home also runs the conflicting app, so part of each
    // rollout comes back dirty with threats.
    for id in ids.iter().step_by(3) {
        fleet
            .install_app_forced(*id, OFF_APP, "OffApp", None)
            .unwrap();
    }
    let exec = FleetExec::start(fleet.clone(), ExecConfig::default());
    let (upgrades, dirty, threats, sweeps, swept) = (
        counter("upgrades_total"),
        counter("installs_dirty_total"),
        counter("threats_total"),
        counter("sweep_shards_total"),
        counter("sweep_homes_total"),
    );
    let (mut touched, mut pending, mut pending_threats) = (0, 0, 0);
    for round in 1..=6u64 {
        let published = hub.bus().published();
        let source = format!("{ON_APP}// v{round}\n");
        let mut stream = exec
            .begin_upgrade(source, "OnApp".to_string())
            .unwrap()
            .unwrap();
        while stream.next_part().is_some() {}
        let rollout = stream.finish();
        assert!(rollout.failed.is_empty());
        assert_eq!(
            hub.bus().published() - published,
            SHARDS,
            "one event per shard unit, however many homes it swept"
        );
        touched += (rollout.upgraded.len() + rollout.pending.len()) as u64;
        pending += rollout.pending.len() as u64;
        pending_threats += rollout
            .pending
            .iter()
            .map(|(_, report)| report.threats.len() as u64)
            .sum::<u64>();

        assert_eq!(counter("upgrades_total") - upgrades, touched);
        assert_eq!(counter("installs_dirty_total") - dirty, pending);
        assert_eq!(counter("threats_total") - threats, pending_threats);
        assert_eq!(counter("sweep_shards_total") - sweeps, SHARDS * round);
        assert_eq!(
            counter("sweep_homes_total") - swept,
            ids.len() as u64 * round
        );
    }
    assert_eq!(touched, 6 * ids.len() as u64, "every home runs OnApp");
    assert!(
        pending > 0 && pending_threats > 0,
        "OffApp homes stay dirty"
    );
    exec.stop();
}

/// Snapshots written while the server still embedded a `telemetry`
/// aggregate load unchanged; the key is ignored and never written back.
#[test]
fn snapshot_with_a_legacy_telemetry_key_loads_and_drops_it() {
    let fleet = Fleet::builder(RuleStore::shared()).shards(2).build();
    churn(&fleet);
    let text = fleet.snapshot().unwrap().to_text();
    let legacy = text.replacen(
        "\"payload\":{",
        "\"payload\":{\"telemetry\":{\"v\":1,\"counters\":{\"installs_total\":9}},",
        1,
    );
    assert_ne!(legacy, text);
    let revived = FleetSnapshot::from_text(&legacy).unwrap();
    assert_eq!(revived.to_text(), text);
    let back = Fleet::restore(revived).unwrap();
    assert_eq!(back.snapshot().unwrap().to_text(), text);
}
