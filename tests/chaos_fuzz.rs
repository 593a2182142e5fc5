//! Seeded I/O-chaos differential harness for the journal failure policy
//! (companion to `journal_fuzz.rs`, which crashes the storage — this one
//! makes the storage *lie* while the fleet is live). A deterministic
//! [`FaultPlan`] arms a [`FaultBackend`] over the journal's real
//! [`MemBackend`], injecting transient errors, permanent errors, torn
//! short writes and disk-full onset at exact backend-operation counts
//! while a seeded churn script drives the fleet. The invariants:
//!
//! * **zero panics** — every fault surfaces as a typed error
//!   ([`HgError::Degraded`] before state moves, [`HgError::Journal`]
//!   after) or is absorbed by bounded retry;
//! * **no silent WAL divergence** — while the journal is active, every
//!   operation boundary recovers **bit-identically** from a fork of the
//!   true backend bytes; once quarantined, recovery lands exactly on the
//!   durable prefix the quarantine named;
//! * **degraded fleets keep serving reads** — reads and detection probes
//!   answer while every write is refused before it touches state;
//! * **heal closes the gap** — [`Fleet::heal_journal`] over a recovered
//!   backend re-arms the journal with a fresh checkpoint, after
//!   which a kill/recover is bit-identical to the live fleet again;
//! * **unarmed chaos is free** — a fault-free [`FaultBackend`] is
//!   bit-for-bit pass-through: same snapshots, same backend bytes.

use hg_config::ConfigInfo;
use hg_journal::{
    FaultBackend, FaultKind, FaultPlan, Journal, JournalBackend, JournalConfig, MemBackend,
};
use hg_service::{Fleet, HomeId, PolicyTable, RuleStore};
use homeguard_core::{HandlingPolicy, HgError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// SplitMix64, as in `tests/properties.rs` and the fault plans themselves.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// Synthetic palette, as in `journal_fuzz.rs`.
const SENSORS: [(&str, &str, &str); 3] = [
    ("capability.motionSensor", "motion", "active"),
    ("capability.contactSensor", "contact", "open"),
    ("capability.waterSensor", "water", "wet"),
];

const ACTUATORS: [(&str, &str, [&str; 2]); 3] = [
    ("capability.switch", "lamp", ["on", "off"]),
    ("capability.alarm", "siren", ["siren", "off"]),
    ("capability.lock", "door", ["lock", "unlock"]),
];

fn palette_name(sensor: usize, actuator: usize) -> String {
    format!("App{sensor}{actuator}")
}

fn palette_source(sensor: usize, actuator: usize, command: usize) -> String {
    let (s_cap, s_attr, s_val) = SENSORS[sensor];
    let (a_cap, a_title, commands) = ACTUATORS[actuator];
    let cmd = commands[command];
    let name = palette_name(sensor, actuator);
    format!(
        r#"
definition(name: "{name}")
input "t", "{s_cap}"
input "a", "{a_cap}", title: "{a_title}"
def installed() {{ subscribe(t, "{s_attr}.{s_val}", h) }}
def h(evt) {{ a.{cmd}() }}
"#
    )
}

/// Zero-backoff retry policy so exhaustion paths run at test speed.
fn chaos_config() -> JournalConfig {
    JournalConfig {
        max_io_attempts: 3,
        backoff_micros: 0,
        ..JournalConfig::default()
    }
}

/// A journaled fleet whose backend can be sabotaged mid-flight. The fault
/// layer starts **unarmed** so the attach-time baseline checkpoint always
/// lands; `FaultBackend::arm` starts the scripted chaos afterwards.
fn chaos_fleet() -> (Fleet, Arc<Journal>, MemBackend, FaultBackend) {
    let mem = MemBackend::new();
    let fault = FaultBackend::new(mem.clone());
    let journal = Arc::new(Journal::open_with(Box::new(fault.clone()), chaos_config()).unwrap());
    let fleet = Fleet::builder(RuleStore::shared()).shards(4).build();
    assert!(fleet.attach_journal(journal.clone()).unwrap());
    (fleet, journal, mem, fault)
}

fn snapshot_text(fleet: &Fleet) -> String {
    fleet.snapshot().unwrap().to_text()
}

/// Is this outcome legal under chaos? Lifecycle noise (already installed,
/// nothing to uninstall), the two fault-policy errors, and success — but
/// never a poisoned shard or a corrupt store.
fn tolerate<T>(outcome: Result<T, HgError>, what: &str) {
    match outcome {
        Ok(_)
        | Err(HgError::Degraded(_))
        | Err(HgError::Journal(_))
        | Err(HgError::AlreadyInstalled(_))
        | Err(HgError::UnknownApp(_))
        | Err(HgError::UnknownHome(_))
        | Err(HgError::UnconfirmedInstall(_)) => {}
        Err(e) => panic!("{what}: unexpected error under chaos: {e}"),
    }
}

/// One seeded churn step against a possibly-degraded fleet. Every error a
/// fault can cause is tolerated; everything else panics the harness.
fn churn_step(fleet: &Fleet, rng: &mut Gen, homes: &mut Vec<HomeId>) {
    let roll = rng.range(0, 100);
    let id = homes[rng.range(0, homes.len())];
    let (sensor, actuator, command) = (rng.range(0, 3), rng.range(0, 3), rng.range(0, 2));
    let name = palette_name(sensor, actuator);
    let source = palette_source(sensor, actuator, command);
    match roll {
        0..=9 => match fleet.create_home() {
            Ok(id) => homes.push(id),
            Err(e) => tolerate::<()>(Err(e), "create_home"),
        },
        10..=14 => match fleet.create_homes(rng.range(1, 4)) {
            Ok(ids) => homes.extend(ids),
            Err(e) => tolerate::<()>(Err(e), "create_homes"),
        },
        15..=49 => match fleet.install_app(id, &source, &name, None) {
            Ok(report) if !report.installed => {
                tolerate(fleet.confirm_install(id, report), "confirm_install");
            }
            other => tolerate(other, "install_app"),
        },
        50..=59 => tolerate(fleet.uninstall_app(id, &name), "uninstall_app"),
        60..=69 => match fleet.upgrade_app(id, &source, &name, None) {
            Ok(report) if !report.installed => {
                tolerate(fleet.confirm_install(id, report), "confirm_upgrade");
            }
            other => tolerate(other, "upgrade_app"),
        },
        70..=74 => {
            if homes.len() > 1 {
                let slot = rng.range(0, homes.len());
                match fleet.remove_home(homes[slot]) {
                    Ok(()) => {
                        homes.remove(slot);
                    }
                    Err(e) => tolerate::<()>(Err(e), "remove_home"),
                }
            }
        }
        75..=81 => {
            let table = match rng.range(0, 3) {
                0 => PolicyTable::block_all(),
                1 => PolicyTable::uniform(HandlingPolicy::Defer { window_ms: 250 }),
                _ => PolicyTable::default(),
            };
            tolerate(fleet.set_handling_policy(id, table), "set_handling_policy");
        }
        82..=86 => {
            let info = ConfigInfo::new(name.clone())
                .bind_device("t", &format!("{:032x}", rng.next()))
                .bind_device("a", &format!("{:032x}", rng.next()));
            tolerate(fleet.record_config(id, &info), "record_config");
        }
        87..=92 => {
            let group: Vec<HomeId> = homes.iter().take(3).copied().collect();
            match fleet.install_many(&group, &source, &name, None) {
                Ok(outcomes) => {
                    for (_, outcome) in outcomes {
                        tolerate(outcome, "install_many outcome");
                    }
                }
                other => tolerate(other.map(|_| ()), "install_many"),
            }
        }
        93..=95 => {
            // Infallible by design: refusals and lapses ride the report.
            fleet.force_uninstall(&name);
        }
        _ => tolerate(
            fleet.propagate_upgrade(&source, &name).map(|_| ()),
            "propagate_upgrade",
        ),
    }
}

/// Recovers a fresh fleet from a fork of the true backend bytes (no fault
/// layer — the disk's content is whatever survived the chaos).
fn recover_fork(mem: &MemBackend) -> (Fleet, Arc<Journal>) {
    let journal = Arc::new(Journal::open(Box::new(mem.fork())).unwrap());
    let fleet = Fleet::recover(journal.clone()).unwrap();
    (fleet, journal)
}

/// The 24-plan sweep: seeded fault scripts. Whatever the chaos did, the
/// harness must come out the other side with a healable journal and a
/// bit-identical recovery.
#[test]
fn seeded_chaos_plans_never_panic_and_heal_to_bit_identical_recovery() {
    for seed in 1..=24u64 {
        let (fleet, journal, mem, fault) = chaos_fleet();
        // 5 faults over a 160-op horizon: most plans trip mid-script,
        // some never fire (fault-free runs ride the same assertions).
        fault.arm(FaultPlan::seeded(seed, 160, 5));
        let mut rng = Gen::new(seed ^ 0xc0ffee);
        let mut homes: Vec<HomeId> = (0..3)
            .map(|_| fleet.create_home().expect("pre-chaos"))
            .collect();
        let mut boundaries: BTreeMap<u64, String> = BTreeMap::new();
        for step in 0..28 {
            churn_step(&fleet, &mut rng, &mut homes);
            if step % 9 == 8 {
                // Checkpoints refuse while quarantined; that refusal is
                // part of the policy under test.
                let _ = fleet.checkpoint();
            }
            if !journal.is_quarantined() {
                // Journal and live state agree here: this offset is a
                // crash-recoverable ground truth.
                boundaries.insert(journal.next_offset(), snapshot_text(&fleet));
            }
        }
        let quarantined = journal.is_quarantined();
        if quarantined {
            // The degraded journal froze at its durable prefix: recovery
            // from the true bytes must land exactly on a state the live
            // fleet passed through while still journaled.
            let (recovered, reopened) = recover_fork(&mem);
            let effective = reopened
                .last_checkpoint_offset()
                .unwrap_or(0)
                .max(reopened.next_offset());
            if let Some(expected) = boundaries.get(&effective) {
                assert_eq!(
                    &snapshot_text(&recovered),
                    expected,
                    "seed {seed}: durable-prefix recovery diverges"
                );
            }
            // Operator fixes the disk, the fleet re-arms the journal.
            fault.disarm();
            fleet
                .heal_journal()
                .unwrap_or_else(|e| panic!("seed {seed}: heal: {e}"));
            assert!(!journal.is_quarantined(), "seed {seed}: heal must clear");
        } else {
            fault.disarm();
        }
        // Post-chaos (and post-heal) the journal is live again: new
        // mutations journal normally and a kill/recover is bit-identical.
        let id = fleet.create_home().expect("post-heal create");
        tolerate(
            fleet.install_app(id, &palette_source(0, 0, 0), &palette_name(0, 0), None),
            "post-heal install",
        );
        let (recovered, _) = recover_fork(&mem);
        assert_eq!(
            snapshot_text(&recovered),
            snapshot_text(&fleet),
            "seed {seed} (quarantined={quarantined}): post-heal recovery diverges"
        );
    }
}

/// A permanent fault: writes answer [`HgError::Degraded`] without
/// touching state, reads and detection probes keep serving, and the
/// quarantine names the durable offset.
#[test]
fn refuse_writes_degrades_writes_but_serves_detection_probes() {
    let (fleet, journal, _mem, fault) = chaos_fleet();
    let a = fleet.create_home().unwrap();
    let b = fleet.create_home().unwrap();
    fleet
        .install_app(a, &palette_source(0, 0, 0), &palette_name(0, 0), None)
        .unwrap();
    let before = snapshot_text(&fleet);
    let probe_before = format!("{:?}", fleet.check_install(b, &palette_name(0, 0)).unwrap());

    // The next write op fails permanently (the op counter runs from
    // backend creation, so the plan pins relative to `ops()`): the next
    // append quarantines (state applied, durability lapsed) and
    // everything after is refused.
    fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::Permanent));
    let lapsed = fleet.create_home();
    assert!(
        matches!(lapsed, Err(HgError::Journal(_))),
        "the tripping write reports its lapse: {lapsed:?}"
    );
    assert!(journal.is_quarantined());

    // Writes refuse up front: nothing is applied.
    let homes_before = fleet.len();
    assert!(matches!(fleet.create_home(), Err(HgError::Degraded(_))));
    assert!(matches!(
        fleet.install_app(b, &palette_source(1, 1, 0), &palette_name(1, 1), None),
        Err(HgError::Degraded(_))
    ));
    assert!(matches!(fleet.remove_home(a), Err(HgError::Degraded(_))));
    assert_eq!(fleet.len(), homes_before, "refused writes must not apply");

    // Sweeps refuse per shard without touching homes.
    let rollout = fleet.propagate_upgrade(&palette_source(0, 0, 1), &palette_name(0, 0));
    assert!(matches!(rollout, Err(HgError::Degraded(_))));
    let swept = fleet.force_uninstall(&palette_name(0, 0));
    assert_eq!(swept.refused_shards, fleet.shard_count());
    assert!(swept.removed.is_empty());
    assert!(swept.store_error.is_some(), "store purge refused too");

    // Reads and the detection pipeline still answer, unchanged — the
    // degraded home still guards its devices.
    let probe_after = format!("{:?}", fleet.check_install(b, &palette_name(0, 0)).unwrap());
    assert_eq!(probe_after, probe_before);
    assert_eq!(
        fleet.with_home(a, |h| h.installed_apps()).unwrap(),
        vec![palette_name(0, 0)]
    );
    // The lapsed create was applied before quarantine, so live state is
    // exactly `before` plus one empty home.
    assert_ne!(snapshot_text(&fleet), before);
}

/// Disk-full onset mid-script: appends quarantine after retries exhaust,
/// the operator "frees space" (`disarm`), heal re-arms, and the journal
/// keeps appending where the durable prefix ended.
#[test]
fn disk_full_quarantines_then_heal_rearms_appends() {
    let (fleet, journal, mem, fault) = chaos_fleet();
    let a = fleet.create_home().unwrap();
    fault.arm(FaultPlan::new().at(fault.ops() + 2, FaultKind::DiskFull));
    // Two more write ops land, then ENOSPC onset: one create lapses.
    let mut lapsed = false;
    for _ in 0..6 {
        if fleet.create_home().is_err() {
            lapsed = true;
            break;
        }
    }
    assert!(lapsed, "disk-full must surface");
    assert!(journal.is_quarantined());
    assert!(matches!(fleet.create_home(), Err(HgError::Degraded(_))));

    fault.disarm();
    fleet.heal_journal().unwrap();
    let before = journal.next_offset();
    let b = fleet.create_home().expect("healed journal appends again");
    assert_eq!(journal.next_offset(), before + 1);
    fleet
        .install_app(b, &palette_source(1, 0, 1), &palette_name(1, 0), None)
        .unwrap();
    let (recovered, _) = recover_fork(&mem);
    assert_eq!(snapshot_text(&recovered), snapshot_text(&fleet));
    assert!(fleet.with_home(a, |_| ()).is_ok());
}

/// Torn short writes: half the frame lands, the append retries after a
/// tail repair, and either way the backend never holds bytes that recovery
/// chokes on.
#[test]
fn short_writes_repair_and_recover_cleanly() {
    for ops in [0u64, 1, 3, 5] {
        let (fleet, journal, mem, fault) = chaos_fleet();
        fault.arm(FaultPlan::new().at(fault.ops() + ops, FaultKind::ShortWrite));
        let mut rng = Gen::new(ops ^ 0xdead);
        let mut homes: Vec<HomeId> = (0..2)
            .map(|_| fleet.create_home().expect("pre-chaos"))
            .collect();
        for _ in 0..10 {
            churn_step(&fleet, &mut rng, &mut homes);
        }
        // A single repaired short write must never quarantine …
        assert!(
            !journal.is_quarantined(),
            "op {ops}: one transient short write exhausted the retry budget"
        );
        // … and the disk bytes replay to exactly the live fleet.
        let (recovered, _) = recover_fork(&mem);
        assert_eq!(
            snapshot_text(&recovered),
            snapshot_text(&fleet),
            "op {ops}: torn-write recovery diverges"
        );
        assert!(fault.injected() > 0, "op +{ops}: plan must fire");
    }
}

/// An unarmed fault layer is bit-for-bit pass-through: same fleet
/// snapshots, same backend bytes, zero injections — chaos instrumentation
/// cannot perturb a healthy deployment.
#[test]
fn unarmed_fault_backend_is_bit_identical_pass_through() {
    let run = |wrap: bool| -> (String, Vec<(u64, Vec<u8>)>, MemBackend) {
        let mem = MemBackend::new();
        let backend: Box<dyn JournalBackend> = if wrap {
            Box::new(FaultBackend::new(mem.clone()))
        } else {
            Box::new(mem.clone())
        };
        let journal = Arc::new(Journal::open_with(backend, chaos_config()).unwrap());
        let fleet = Fleet::builder(RuleStore::shared()).shards(4).build();
        fleet.attach_journal(journal.clone()).unwrap();
        let mut rng = Gen::new(99);
        let mut homes: Vec<HomeId> = (0..3).map(|_| fleet.create_home().unwrap()).collect();
        for step in 0..20 {
            churn_step(&fleet, &mut rng, &mut homes);
            if step % 7 == 6 {
                fleet.checkpoint().unwrap();
            }
        }
        let segments: Vec<(u64, Vec<u8>)> = mem
            .segments()
            .unwrap()
            .into_iter()
            .map(|start| (start, mem.read_segment(start).unwrap()))
            .collect();
        (snapshot_text(&fleet), segments, mem)
    };
    let (plain_snap, plain_segments, _) = run(false);
    let (chaos_snap, chaos_segments, chaos_mem) = run(true);
    assert_eq!(plain_snap, chaos_snap, "live fleets diverge");
    assert_eq!(plain_segments, chaos_segments, "WAL bytes diverge");
    let (recovered, _) = recover_fork(&chaos_mem);
    assert_eq!(snapshot_text(&recovered), chaos_snap);
}
