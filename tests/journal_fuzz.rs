//! Differential crash-consistency harness for the write-ahead journal
//! (mirroring `persist_fuzz.rs`): seeded churn scripts drive a
//! **journaled** fleet through creates, home imports, installs, confirms,
//! uninstalls, upgrades, removals, policy changes, reconfigurations and
//! fleet-wide sweeps, plus a racing step (two versions of an app published
//! before the first one's shard units run), taking checkpoints mid-script
//! over small rotating segments. The scripts count what they ran: each
//! seed must crash-test an import, a batch install, a shard upgrade, a
//! shard uninstall and the racing step. The journal's backing storage is
//! then crashed at **every record boundary** (fork + truncate, some forks
//! with torn-tail garbage appended) and recovered with [`Fleet::recover`].
//! Each checkpoint replaces its predecessor and the segments below it, so
//! a crash below a checkpoint's offset is cut from the storage as it stood
//! just before that checkpoint was written:
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
use hg_journal::{Journal, JournalBackend, JournalConfig, MemBackend};
use hg_service::{Fleet, HomeId, PolicyTable, RuleStore, UpgradeRollout};
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

/// The first app, in `homes` order, that a home runs, with its palette
/// sensor and actuator.
fn app_a_home_runs(fleet: &Fleet, homes: &[HomeId]) -> Option<(String, usize, usize)> {
    let app = homes.iter().find_map(|&id| {
        fleet
            .with_home(id, |home| home.installed_apps().into_iter().next())
            .unwrap()
    })?;
    let digit = |at: usize| usize::from(app.as_bytes()[at] - b'0');
    let (sensor, actuator) = (digit(3), digit(4));
    Some((app, sensor, actuator))
}

/// The racing step: publishes version `command` of `app`, then its other
/// version, then sweeps the first version shard by shard. Each home's
/// `ingest_as` re-extracts the first version, which moves the store back
/// to it. Returns how many homes the sweep upgraded.
fn racing_upgrade(
    fleet: &Fleet,
    app: &str,
    sensor: usize,
    actuator: usize,
    command: usize,
) -> usize {
    let first = palette_source(sensor, actuator, command);
    fleet.ingest_app_as(&first, app).unwrap();
    fleet
        .ingest_app_as(&palette_source(sensor, actuator, 1 - command), app)
        .unwrap();
    let parts = (0..fleet.shard_count()).map(|index| fleet.upgrade_shard(index, &first, app));
    let rollout = UpgradeRollout::merge(app, parts);
    assert!(rollout.journal_lapses.is_empty() && rollout.failed.is_empty());
    rollout.upgraded.len()
}

/// How many operations of each kind the coverage check names a churn
/// script ran that committed home state, and so journaled records a crash
/// can cut.
#[derive(Debug, Default)]
struct Counts {
    imports: usize,
    /// `install_group` batches that installed at least two homes.
    batches: usize,
    /// Shard upgrades that upgraded a home.
    upgrades: usize,
    /// Shard uninstalls that removed the app from a home.
    uninstalls: usize,
    /// Racing steps whose sweep upgraded a home.
    races: usize,
}

/// A seeded churn script's outcome: the live fleet, its journal handles,
/// the ground-truth snapshot at every operation boundary, the storage as
/// it stood just before each checkpoint, each keyed by journal offset,
/// and what the script ran.
struct Churned {
    fleet: Fleet,
    journal: Arc<Journal>,
    backend: MemBackend,
    boundaries: BTreeMap<u64, String>,
    before_checkpoints: BTreeMap<u64, MemBackend>,
    counts: Counts,
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
    let mut counts = Counts::default();
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
            8..=9 => {
                homes.push(fleet.import_home(fleet.export_home(id).unwrap()).unwrap());
                counts.imports += 1;
            }
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
                // Group installs leave dirty verdicts pending; that is
                // itself a state worth crash-testing.
                let installed = fleet
                    .install_many(&group, &source, &name, None)
                    .unwrap()
                    .into_iter()
                    .filter(|(_, outcome)| outcome.as_ref().is_ok_and(|report| report.installed))
                    .count();
                counts.batches += usize::from(installed >= 2);
            }
            93..=95 => {
                let removed = fleet.force_uninstall(&name).removed.len();
                counts.uninstalls += usize::from(removed > 0);
            }
            _ => {
                if let Ok(rollout) = fleet.propagate_upgrade(&source, &name) {
                    counts.upgrades += usize::from(!rollout.upgraded.is_empty());
                }
            }
        }
        // Every fifth step also sweeps an app a home runs: a fleet upgrade
        // or a forced uninstall in turn, and two steps later the racing
        // step. The rolls alone reach neither sweep on every seed. These
        // steps choose by the step and the fleet's state, never by the
        // script's RNG, so they leave its other draws as they were.
        let sweep = matches!(step % 5, 2 | 4)
            .then(|| app_a_home_runs(&fleet, &homes))
            .flatten();
        if let Some((app, sensor, actuator)) = sweep {
            boundaries.insert(journal.next_offset(), snapshot_text(&fleet));
            if step % 5 == 4 {
                let upgraded = racing_upgrade(&fleet, &app, sensor, actuator, step / 5 % 2);
                counts.races += usize::from(upgraded > 0);
            } else if step / 5 % 2 == 0 {
                let source = palette_source(sensor, actuator, step / 10 % 2);
                let upgraded = fleet.propagate_upgrade(&source, &app).unwrap().upgraded;
                counts.upgrades += usize::from(!upgraded.is_empty());
            } else {
                let removed = fleet.force_uninstall(&app).removed.len();
                counts.uninstalls += usize::from(removed > 0);
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
        counts,
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
        // Every record the script journaled is cut by some crash below.
        let counts = &run.counts;
        assert!(
            [
                counts.imports,
                counts.batches,
                counts.upgrades,
                counts.uninstalls,
                counts.races,
            ]
            .iter()
            .all(|&n| n > 0),
            "seed {seed}: script must crash-test each counted kind: {counts:?}"
        );
        crash_everywhere(&run);

        let full = Arc::new(Journal::open(Box::new(run.backend.fork())).unwrap());
        let recovered = Fleet::recover(full).unwrap();
        assert_behaviorally_identical(&run.fleet, &recovered);
    }
}

#[test]
fn checkpoint_after_churn_preserves_recovery() {
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
