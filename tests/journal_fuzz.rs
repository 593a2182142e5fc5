//! Differential crash-consistency harness for the write-ahead journal
//! (mirroring `persist_fuzz.rs`): seeded churn scripts drive a
//! **journaled** fleet through creates, home imports, installs, confirms,
//! uninstalls, upgrades, removals, policy changes, reconfigurations and
//! fleet-wide sweeps, taking checkpoints mid-script over small rotating
//! segments. The journal's backing storage is then crashed at **every
//! record boundary** (fork + truncate, some forks with torn-tail garbage
//! appended) and recovered with [`Fleet::recover`]. Each checkpoint
//! replaces its predecessor and the segments below it, so a crash below
//! a checkpoint's offset is cut from the storage as it stood just before
//! that checkpoint was written:
//!
//! * recovery must always succeed — a torn tail is truncated, never a
//!   panic;
//! * at every boundary the fleet had a recorded ground truth for
//!   (checkpoints land between operations), the recovered fleet's
//!   snapshot is **bit-identical** to the live fleet's at that point;
//! * at mid-operation boundaries (e.g. between a `StoreIngested` and its
//!   `InstallCommitted`), the recovered fleet still snapshot-round-trips;
//! * the fully-recovered fleet answers probe `check_install` reports and
//!   mediation stats identically to the live fleet, also after a
//!   checkpoint that dropped rotated segments.

use hg_config::ConfigInfo;
use hg_journal::{Journal, JournalBackend, JournalConfig, JournalRecord, MemBackend};
use hg_service::{Fleet, HomeId, PolicyTable, RuleStore};
use homeguard_core::{HandlingPolicy, HgError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// SplitMix64, as in `tests/properties.rs`.
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

/// Synthetic palette, as in `lifecycle_fuzz.rs`: the app name is
/// independent of the command so a command flip is an **upgrade** of the
/// same app, not a rename.
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

fn journaled_fleet() -> (Fleet, Arc<Journal>, MemBackend) {
    let backend = MemBackend::new();
    // Small segments, so the scripts rotate and checkpoints drop some.
    let config = JournalConfig {
        max_segment_bytes: 2048,
        ..JournalConfig::default()
    };
    let journal = Arc::new(Journal::open_with(Box::new(backend.clone()), config).unwrap());
    let fleet = Fleet::builder(RuleStore::shared()).shards(4).build();
    assert!(fleet.attach_journal(journal.clone()).unwrap());
    (fleet, journal, backend)
}

fn snapshot_text(fleet: &Fleet) -> String {
    fleet.snapshot().unwrap().to_text()
}

/// Installs like a user who accepts every verdict.
fn install_accepting(fleet: &Fleet, id: HomeId, source: &str, name: &str) {
    match fleet.install_app(id, source, name, None) {
        Ok(report) if !report.installed => {
            fleet.confirm_install(id, report).unwrap();
        }
        Ok(_) => {}
        Err(HgError::AlreadyInstalled(_)) => {}
        Err(e) => panic!("install {name}: {e}"),
    }
}

/// A seeded churn script's outcome: the live fleet, its journal handles,
/// the ground-truth snapshot at every operation boundary, and the
/// storage as it stood just before each checkpoint, each keyed by journal
/// offset.
struct Churned {
    fleet: Fleet,
    journal: Arc<Journal>,
    backend: MemBackend,
    boundaries: BTreeMap<u64, String>,
    before_checkpoints: BTreeMap<u64, MemBackend>,
}

/// Runs a seeded churn script on a journaled fleet.
fn churn(seed: u64, steps: usize) -> Churned {
    let (fleet, journal, backend) = journaled_fleet();
    let mut before_checkpoints = BTreeMap::new();
    let mut rng = Gen::new(seed);
    let mut boundaries = BTreeMap::new();
    boundaries.insert(journal.next_offset(), snapshot_text(&fleet));
    let mut homes: Vec<HomeId> = (0..3).map(|_| fleet.create_home().unwrap()).collect();
    boundaries.insert(journal.next_offset(), snapshot_text(&fleet));
    for step in 0..steps {
        let roll = rng.range(0, 100);
        let id = homes[rng.range(0, homes.len())];
        let (sensor, actuator, command) = (rng.range(0, 3), rng.range(0, 3), rng.range(0, 2));
        let name = palette_name(sensor, actuator);
        let source = palette_source(sensor, actuator, command);
        match roll {
            0..=7 => homes.push(fleet.create_home().unwrap()),
            // A migration round trip within one fleet: the copy lands
            // under a fresh id.
            8..=9 => homes.push(fleet.import_home(fleet.export_home(id).unwrap()).unwrap()),
            10..=14 => homes.extend(fleet.create_homes(rng.range(1, 4)).unwrap()),
            15..=49 => install_accepting(&fleet, id, &source, &name),
            50..=59 => {
                let _ = fleet.uninstall_app(id, &name);
            }
            60..=69 => match fleet.upgrade_app(id, &source, &name, None) {
                Ok(report) if !report.installed => {
                    fleet.confirm_install(id, report).unwrap();
                }
                _ => {}
            },
            70..=74 => {
                if homes.len() > 1 {
                    let victim = homes.remove(rng.range(0, homes.len()));
                    fleet.remove_home(victim).unwrap();
                }
            }
            75..=81 => {
                let table = match rng.range(0, 3) {
                    0 => PolicyTable::block_all(),
                    1 => PolicyTable::uniform(HandlingPolicy::Defer { window_ms: 250 }),
                    _ => PolicyTable::default(),
                };
                fleet.set_handling_policy(id, table).unwrap();
            }
            82..=86 => {
                let info = ConfigInfo::new(name.clone())
                    .bind_device("t", &format!("{:032x}", rng.next()))
                    .bind_device("a", &format!("{:032x}", rng.next()));
                fleet.record_config(id, &info).unwrap();
            }
            87..=92 => {
                let group: Vec<HomeId> = homes.iter().take(3).copied().collect();
                for (_, outcome) in fleet.install_many(&group, &source, &name, None).unwrap() {
                    if let Ok(report) = outcome {
                        if !report.installed {
                            // Group installs leave dirty verdicts pending;
                            // that is itself a state worth crash-testing.
                        }
                    }
                }
            }
            93..=95 => {
                fleet.force_uninstall(&name);
            }
            _ => {
                let _ = fleet.propagate_upgrade(&source, &name);
            }
        }
        if step % 7 == 6 {
            before_checkpoints
                .entry(journal.next_offset())
                .or_insert_with(|| backend.fork());
            fleet.checkpoint().unwrap();
        }
        boundaries.insert(journal.next_offset(), snapshot_text(&fleet));
    }
    Churned {
        fleet,
        journal,
        backend,
        boundaries,
        before_checkpoints,
    }
}

/// Crash the backing storage at every record boundary and recover; known
/// boundaries must come back bit-identical, unknown (mid-operation) ones
/// must still produce a consistent, snapshot-round-tripping fleet.
fn crash_everywhere(run: &Churned) {
    for cut in 0..=run.journal.next_offset() {
        // A crash below a checkpoint's offset came before that checkpoint
        // was written, when its predecessor and the records since were
        // still stored.
        let disk = run
            .before_checkpoints
            .range(cut + 1..)
            .next()
            .map_or(&run.backend, |(_, disk)| disk);
        let fork = disk.fork();
        // Every third crash leaves a half-written frame behind.
        let garbage: &[u8] = if cut % 3 == 0 {
            b"HGJ1\x99\x00\x00\x00torn"
        } else {
            b""
        };
        fork.truncate_to_records(cut, garbage);
        let journal = Arc::new(
            Journal::open(Box::new(fork)).unwrap_or_else(|e| panic!("open at cut {cut}: {e}")),
        );
        let recovered =
            Fleet::recover(journal).unwrap_or_else(|e| panic!("recover at cut {cut}: {e}"));
        let text = snapshot_text(&recovered);
        match run.boundaries.get(&cut) {
            Some(expected) => assert_eq!(&text, expected, "cut {cut}: recovered fleet diverges"),
            None => {
                // Mid-operation boundary: no recorded ground truth, but the
                // recovered fleet must still be fully consistent.
                let reread =
                    Fleet::restore(hg_persist::FleetSnapshot::from_text(&text).unwrap()).unwrap();
                assert_eq!(snapshot_text(&reread), text, "cut {cut}: round-trip");
            }
        }
    }
}

/// Probe comparison between the live fleet and its full recovery: every
/// home answers a dry-run `check_install` identically (threats, chains,
/// effort counters all ride in the debug rendering) and mediation stats
/// agree.
fn assert_behaviorally_identical(live: &Fleet, recovered: &Fleet) {
    assert_eq!(snapshot_text(recovered), snapshot_text(live));
    assert_eq!(
        format!("{:?}", recovered.mediation_stats()),
        format!("{:?}", live.mediation_stats())
    );
    // Effort counters (pair-cache hits vs misses) depend on verdict-cache
    // warmth, which is deliberately NOT ground truth — zero them before
    // comparing, so the probe checks verdicts, rules, threats and chains.
    let canonical = |outcome: Result<hg_service::InstallReport, HgError>| match outcome {
        Ok(mut report) => {
            report.stats = Default::default();
            format!("Ok({report:?})")
        }
        Err(e) => format!("Err({e:?})"),
    };
    for id in live.home_ids() {
        for (sensor, actuator) in [(0, 0), (1, 2)] {
            let name = palette_name(sensor, actuator);
            let a = canonical(live.check_install(id, &name));
            let b = canonical(recovered.check_install(id, &name));
            assert_eq!(a, b, "probe {name} on {id} diverges");
        }
    }
}

#[test]
fn crash_at_every_record_boundary_recovers_exactly() {
    for seed in [11, 42] {
        let run = churn(seed, 36);
        assert!(
            run.journal.next_offset() > 20,
            "script must journal a real workload"
        );
        assert!(
            run.before_checkpoints.len() >= 4,
            "seed {seed}: script must crash-test across checkpoints"
        );
        assert!(
            run.backend.segments().unwrap()[0] > 0,
            "seed {seed}: checkpoints must have dropped rotated segments"
        );
        // Every record is stored on the disk taken before the checkpoint
        // that covers it, or on the final one.
        let imports = |disk: &MemBackend| {
            let journal = Journal::open(Box::new(disk.fork())).unwrap();
            journal
                .records_from(0)
                .unwrap()
                .iter()
                .any(|(_, record)| matches!(record, JournalRecord::HomeImported { .. }))
        };
        assert!(
            run.before_checkpoints
                .values()
                .chain([&run.backend])
                .any(imports),
            "seed {seed}: script must crash-test a home import"
        );
        crash_everywhere(&run);

        let full = Arc::new(Journal::open(Box::new(run.backend.fork())).unwrap());
        let recovered = Fleet::recover(full).unwrap();
        assert_behaviorally_identical(&run.fleet, &recovered);
    }
}

#[test]
fn compaction_preserves_recovery() {
    let run = churn(7, 24);
    let stats = run.fleet.checkpoint().unwrap();
    // The checkpoint replaced every earlier one and dropped the rotated
    // segments below it.
    assert_eq!(run.backend.checkpoints().unwrap(), vec![stats.offset]);
    let starts = run.backend.segments().unwrap();
    assert!(starts[0] > 0, "rotated segments survived: {starts:?}");
    let reopened = Arc::new(Journal::open(Box::new(run.backend.fork())).unwrap());
    assert!(reopened.records_from(stats.offset).unwrap().is_empty());
    let recovered = Fleet::recover(reopened).unwrap();
    assert_behaviorally_identical(&run.fleet, &recovered);
}

#[test]
fn torn_tail_garbage_never_panics_the_open() {
    let run = churn(3, 12);
    let (backend, total) = (&run.backend, run.journal.next_offset());
    for garbage in [
        b"\x00".as_slice(),
        b"HGJ1".as_slice(),
        b"HGJ1\xff\xff\xff\x7f....".as_slice(),
        b"complete nonsense that is much longer than a frame header".as_slice(),
    ] {
        let fork = backend.fork();
        fork.truncate_to_records(total, garbage);
        let reopened = Journal::open(Box::new(fork)).unwrap();
        assert_eq!(reopened.next_offset(), total, "garbage tail must truncate");
        Fleet::recover(Arc::new(reopened)).unwrap();
    }
}
