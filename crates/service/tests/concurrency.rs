//! Fleet concurrency: 8 threads drive seeded install / uninstall /
//! upgrade / check scripts across 256 homes through one shared, journaled
//! `Fleet`, interleaving arbitrarily across shards while a background
//! checkpointer takes the journal's exclusive gate every millisecond. The
//! run must (a) terminate — no deadlock between shard locks, the shared
//! store and the checkpoint gate — (b) leave every home in exactly the
//! state a serial replay of its script produces on a plain
//! `homeguard-core` session, and (c) recover from its journal to exactly
//! the live fleet.
//!
//! Thread ownership is strided (thread t owns homes t, t+8, t+16, …)
//! while shard routing is modular, so every thread hammers every shard.
//!
//! A second case races shard upgrades against bulk installs of one app,
//! whose versions keep replacing each other in the store, and checks that
//! every home's prepared rules are still exactly what a fresh preparation
//! gives.

use hg_detector::{PreparedRule, Unification};
use hg_service::{
    start_checkpointer, Fleet, HgError, Home, HomeId, Journal, MemBackend, RuleStore,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const HOMES: usize = 256;
const THREADS: usize = 8;
const STEPS: usize = 10;

/// The app palette: four racing/unrelated automations plus a v2 for
/// upgrades. `(name, source)` per slot.
fn palette() -> Vec<(String, String)> {
    let combos = [
        ("motionSensor", "motion", "active", "switch", "lamp", "on"),
        ("motionSensor", "motion", "active", "switch", "lamp", "off"),
        ("contactSensor", "contact", "open", "lock", "door", "unlock"),
        (
            "waterSensor",
            "water",
            "wet",
            "valve",
            "main valve",
            "close",
        ),
        ("contactSensor", "contact", "open", "lock", "door", "lock"),
        (
            "motionSensor",
            "motion",
            "active",
            "alarm",
            "siren",
            "siren",
        ),
    ];
    combos
        .iter()
        .enumerate()
        .map(|(i, (s_cap, s_attr, s_val, a_cap, a_title, cmd))| {
            let name = format!("Pal{i}");
            let source = format!(
                r#"
definition(name: "{name}")
input "t", "capability.{s_cap}"
input "a", "capability.{a_cap}", title: "{a_title}"
def installed() {{ subscribe(t, "{s_attr}.{s_val}", h) }}
def h(evt) {{ a.{cmd}() }}
"#
            );
            (name, source)
        })
        .collect()
}

/// v2 of a palette app: behaviorally identical but textually distinct, so
/// the upgrade re-extracts (new fingerprint) while staying name-stable.
fn palette_v2(source: &str) -> String {
    format!("{source}// v2\n")
}

#[derive(Clone, Copy, Debug)]
enum Op {
    InstallForced(usize),
    Uninstall(usize),
    UpgradeForced(usize),
    Check(usize),
}

/// SplitMix64, as in the sibling fuzz harnesses.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded per-home op script. Pure function of the home index, so the
/// concurrent run and the serial replay derive identical scripts.
fn script(home: usize) -> Vec<Op> {
    let palette_len = palette().len();
    (0..STEPS)
        .map(|step| {
            let r = mix((home as u64) << 32 | step as u64);
            let app = (r >> 8) as usize % palette_len;
            match r % 4 {
                0 | 1 => Op::InstallForced(app),
                2 => {
                    if r & 0x10 != 0 {
                        Op::Uninstall(app)
                    } else {
                        Op::UpgradeForced(app)
                    }
                }
                _ => Op::Check(app),
            }
        })
        .collect()
}

/// A comparable digest of one op's outcome.
fn digest_install(report: &Result<hg_service::InstallReport, HgError>) -> String {
    match report {
        Ok(r) => format!(
            "ok:installed={} threats={} chains={}",
            r.installed,
            r.threats.len(),
            r.chains.len()
        ),
        Err(e) => format!("err:{}", variant(e)),
    }
}

fn variant(e: &HgError) -> &'static str {
    match e {
        HgError::Extract { .. } => "extract",
        HgError::UnknownHome(_) => "unknown-home",
        HgError::UnknownApp(_) => "unknown-app",
        HgError::UnconfirmedInstall(_) => "unconfirmed",
        HgError::AlreadyInstalled(_) => "already-installed",
        HgError::UpgradeRenames { .. } => "renames",
        HgError::Poisoned(_) => "poisoned",
        _ => "other",
    }
}

/// Runs one home's script against the fleet, returning the op digests and
/// the final state digest.
fn run_script(fleet: &Fleet, id: HomeId, home: usize, apps: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for op in script(home) {
        let digest = match op {
            Op::InstallForced(a) => {
                let (name, source) = &apps[a];
                digest_install(&fleet.install_app_forced(id, source, name, None))
            }
            Op::Uninstall(a) => match fleet.uninstall_app(id, &apps[a].0) {
                Ok(r) => format!(
                    "ok:removed={} retired={}",
                    r.removed_rules.len(),
                    r.retired_threats
                ),
                Err(e) => format!("err:{}", variant(&e)),
            },
            Op::UpgradeForced(a) => {
                let (name, source) = &apps[a];
                digest_install(&fleet.upgrade_app(id, &palette_v2(source), name, None))
            }
            Op::Check(a) => match fleet.check_install(id, &apps[a].0) {
                Ok(r) => format!("ok:threats={} chains={}", r.threats.len(), r.chains.len()),
                Err(e) => format!("err:{}", variant(&e)),
            },
        };
        out.push(digest);
    }
    // Final state digest: surviving apps + Allowed size.
    let final_state = fleet
        .with_home(id, |h| {
            format!(
                "apps={:?} allowed={}",
                h.installed_apps(),
                h.allowed().len()
            )
        })
        .unwrap();
    out.push(final_state);
    out
}

/// Publishes every palette app (v1 and v2) into a fleet's store — the
/// store-before-install deployment order. Without this, a `Check` op's
/// verdict would depend on whether *some other home* already ingested the
/// app, making per-home scripts non-deterministic across interleavings.
fn publish_palette(fleet: &Fleet, apps: &[(String, String)]) {
    for (name, source) in apps {
        fleet.store().ingest(source, name).unwrap();
        fleet.store().ingest(&palette_v2(source), name).unwrap();
    }
}

#[test]
fn eight_threads_over_256_homes_match_serial_replay() {
    let apps = Arc::new(palette());

    // Concurrent run: one journaled fleet, 8 shards, 8 threads with
    // strided home ownership (every thread touches every shard).
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(THREADS).build());
    publish_palette(&fleet, &apps);
    let mem = MemBackend::new();
    let journal = Arc::new(Journal::open(Box::new(mem.clone())).unwrap());
    assert!(fleet.attach_journal(journal).unwrap());
    let ids: Vec<HomeId> = (0..HOMES).map(|_| fleet.create_home().unwrap()).collect();
    assert_eq!(fleet.len(), HOMES);
    let checkpointer = start_checkpointer(fleet.clone(), Duration::from_millis(1));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let fleet = fleet.clone();
        let ids = ids.clone();
        let apps = apps.clone();
        handles.push(std::thread::spawn(move || {
            let mut results = Vec::new();
            for home in (t..HOMES).step_by(THREADS) {
                results.push((home, run_script(&fleet, ids[home], home, &apps)));
            }
            results
        }));
    }
    let mut concurrent: Vec<Vec<String>> = vec![Vec::new(); HOMES];
    for handle in handles {
        for (home, digests) in handle.join().expect("no thread may die") {
            concurrent[home] = digests;
        }
    }
    checkpointer.stop();

    // The checkpoints cut between journaled writes: the last checkpoint
    // plus replay is exactly the live fleet.
    let recovered = Fleet::recover(Arc::new(Journal::open(Box::new(mem.fork())).unwrap())).unwrap();
    assert_eq!(
        recovered.snapshot().unwrap().to_text(),
        fleet.snapshot().unwrap().to_text(),
        "journal recovery diverges from the live fleet"
    );

    // Serial replay: same scripts against plain single-threaded sessions
    // in a fresh single-shard fleet.
    let serial_fleet = Fleet::builder(RuleStore::shared()).shards(1).build();
    publish_palette(&serial_fleet, &apps);
    let serial_ids: Vec<HomeId> = (0..HOMES)
        .map(|_| serial_fleet.create_home().unwrap())
        .collect();
    for home in 0..HOMES {
        let expected = run_script(&serial_fleet, serial_ids[home], home, &apps);
        assert_eq!(
            concurrent[home], expected,
            "home {home}: concurrent outcome diverges from serial replay"
        );
    }

    // The palette was actually exercised in every flavor.
    let all: Vec<&String> = concurrent.iter().flatten().collect();
    assert!(all.iter().any(|d| d.contains("threats=1")), "races seen");
    assert!(
        all.iter().any(|d| d.starts_with("ok:removed=")),
        "uninstalls succeeded somewhere"
    );
    assert!(
        all.iter()
            .any(|d| d.contains("err:unconfirmed") || d.contains("err:unknown-app")),
        "lifecycle errors exercised"
    );
    // One extraction per palette app + v2 variants; everything else came
    // from the shared ingest cache.
    assert!(fleet.store().cache_hits() > HOMES as u64);
}

/// Version `v` of the raced app: each version guards the command on a
/// different location mode, so consecutive versions extract to different
/// rules.
fn raced_version(v: usize) -> String {
    let mode = ["Home", "Away", "Night"][v % 3];
    format!(
        r#"
definition(name: "Raced")
input "t", "capability.motionSensor"
input "a", "capability.switch", title: "lamp"
def installed() {{ subscribe(t, "motion.active", h) }}
def h(evt) {{ if (location.mode == "{mode}") {{ a.on() }} }}
"#
    )
}

/// Every slot of `home` is what `PreparedRule::prepare` returns for its
/// rule under the home's unification.
fn assert_slots_fresh(home: &Home) {
    let unification = &home.engine().detector().unification;
    for slot in home.engine().installed_prepared() {
        let fresh = PreparedRule::prepare(&slot.orig, unification);
        assert_eq!(slot.fingerprint(), fresh.fingerprint(), "{}", slot.orig.id);
        assert_eq!(slot.unified, fresh.unified, "{}", slot.orig.id);
    }
}

#[test]
fn shard_upgrades_race_bulk_installs_on_shared_forms() {
    const SHARDS: usize = 4;
    const ROUNDS: usize = 12;
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(SHARDS).build());
    let ids = fleet.create_homes(64).unwrap();
    let mut by_shard: Vec<Vec<HomeId>> = vec![Vec::new(); SHARDS];
    for &id in &ids {
        by_shard[fleet.shard_of(id)].push(id);
    }
    // Shards 0 and 1 run v0 and upgrade it; shards 2 and 3 install and
    // uninstall it in bulk. Every thread publishes the version it works
    // on, so the store's current analysis of the app keeps changing under
    // the others.
    let runners: Vec<HomeId> = by_shard[0].iter().chain(&by_shard[1]).copied().collect();
    for outcome in fleet
        .install_many(&runners, &raced_version(0), "Raced", None)
        .unwrap()
    {
        assert!(outcome.1.unwrap().installed);
    }
    let start = Arc::new(Barrier::new(SHARDS));
    let handles: Vec<_> = (0..SHARDS)
        .map(|shard| {
            let fleet = fleet.clone();
            let homes = by_shard[shard].clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for round in 1..=ROUNDS {
                    let source = raced_version(round);
                    if shard < 2 {
                        fleet.ingest_app_as(&source, "Raced").unwrap();
                        let part = fleet.upgrade_shard(shard, &source, "Raced");
                        assert!(part.failed.is_empty() && part.pending.is_empty());
                    } else {
                        fleet.ingest_app(&source, "Raced").unwrap();
                        for (_, outcome) in fleet.install_group(&homes, &source, "Raced", None) {
                            assert!(outcome.unwrap().installed);
                        }
                        if round < ROUNDS {
                            let part = fleet.uninstall_shard(shard, "Raced");
                            assert_eq!(part.removed.len(), homes.len());
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no thread may die");
    }

    // Every home runs some version of the app, prepared exactly.
    let versions: Vec<_> = (0..3)
        .map(|v| {
            RuleStore::new()
                .ingest(&raced_version(v), "Raced")
                .unwrap()
                .rules
                .clone()
        })
        .collect();
    for &id in &ids {
        fleet
            .with_home(id, |home| {
                assert!(home.is_installed("Raced"));
                let rules: Vec<_> = home.installed_rules().into_iter().cloned().collect();
                assert!(versions.contains(&rules), "home {id}: {rules:?}");
                assert_slots_fresh(home);
            })
            .unwrap();
    }

    // A serial rollout afterwards leaves every home on one shared form
    // of the new version.
    let last = raced_version(ROUNDS + 1);
    let rollout = fleet.propagate_upgrade(&last, "Raced").unwrap();
    assert_eq!(rollout.upgraded.len(), ids.len());
    let last_rules = fleet.store().rules_of("Raced").unwrap();
    let mut forms = Vec::new();
    for &id in &ids {
        fleet
            .with_home(id, |home| {
                assert_slots_fresh(home);
                assert_eq!(
                    home.engine().installed_rules().cloned().collect::<Vec<_>>(),
                    last_rules
                );
                assert!(matches!(
                    home.engine().detector().unification,
                    Unification::ByType
                ));
                forms.extend(home.engine().installed_prepared().cloned());
            })
            .unwrap();
    }
    assert_eq!(forms.len(), ids.len());
    assert!(forms.iter().all(|form| Arc::ptr_eq(form, &forms[0])));
    assert_eq!(fleet.store().live_forms("Raced"), 1);
}
