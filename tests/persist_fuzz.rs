//! Differential snapshot/restore harness (mirroring `lifecycle_fuzz.rs`):
//! seeded churn scripts drive a live fleet through installs, confirms,
//! uninstalls, upgrades and priority re-rankings; the fleet is then
//! snapshotted, serialized to text, parsed back and restored — and the
//! restored fleet must be **behaviorally identical** to the live one:
//!
//! * identical detection reports (threats, chains, effort stats) for a
//!   fresh probe app in every home;
//! * identical compiled mediation points and handling tables;
//! * identical runtime behavior: paired simulations driven by the same
//!   event schedule produce bit-identical traces and the same mediation
//!   decisions;
//! * and a restored-then-upgraded home stays clean — no stale store
//!   fingerprints, no dangling `Priority` ranks.

use hg_bench::fleet_gen::{populate, FleetSpec};
use hg_persist::FleetSnapshot;
use hg_rules::json::Json;
use hg_rules::rule::{ActionSubject, Rule, RuleId, Trigger};
use hg_rules::value::Value;
use hg_rules::varid::DeviceRef;
use hg_service::{Fleet, HomeId, PolicyTable, RuleStore};
use homeguard_core::HandlingPolicy;
use std::collections::BTreeSet;

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

/// Synthetic palette, as in `lifecycle_fuzz.rs`: every app subscribes to
/// one sensor and commands one actuator.
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

fn palette_source(name: &str, sensor: usize, actuator: usize, command: usize) -> String {
    let (s_cap, s_attr, s_val) = SENSORS[sensor];
    let (a_cap, a_title, commands) = ACTUATORS[actuator];
    let cmd = commands[command];
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

/// Whole-fleet documents are written one home at a time, straight into
/// their text, and must be the very bytes their own `Json` tree prints:
/// keys byte-sorted, no whitespace. Parsing and printing back is then the
/// identity.
fn assert_canonical(text: &str) {
    let reprinted = Json::parse(text).expect("document parses").to_text();
    assert!(reprinted == text, "document is not canonical JSON");
}

/// Canonical, comparable threat key (as in `tests/differential.rs`).
fn threat_keys(threats: &[hg_detector::Threat]) -> Vec<(hg_detector::ThreatKind, String, String)> {
    let mut keys: Vec<_> = threats
        .iter()
        .map(|t| {
            let s = t.source.to_string();
            let d = t.target.to_string();
            if t.kind.is_directed() || s <= d {
                (t.kind, s, d)
            } else {
                (t.kind, d, s)
            }
        })
        .collect();
    keys.sort();
    keys
}

/// Comparable mediation-point keys of a home's compiled index.
fn mediation_keys(fleet: &Fleet, id: HomeId) -> Vec<(String, String, String, String)> {
    let mut keys = fleet
        .with_home_mut(id, |home| {
            home.mediation_index()
                .points()
                .iter()
                .map(|p| {
                    (
                        p.kind.acronym().to_string(),
                        p.source.to_string(),
                        p.target.to_string(),
                        p.policy.tag().to_string(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .unwrap();
    keys.sort();
    keys
}

/// The static capability name behind a canonical `type:<cap>/<kind>` id.
fn static_capability(device_id: &str) -> &'static str {
    let cap = device_id
        .strip_prefix("type:")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or_else(|| panic!("unexpected device id {device_id}"));
    match cap {
        "motionSensor" => "motionSensor",
        "contactSensor" => "contactSensor",
        "waterSensor" => "waterSensor",
        "switch" => "switch",
        "alarm" => "alarm",
        "lock" => "lock",
        other => panic!("unexpected capability {other}"),
    }
}

/// The bound device ids a unified rule set touches.
fn bound_devices(rules: &[Rule]) -> BTreeSet<String> {
    let mut ids = BTreeSet::new();
    for rule in rules {
        if let Trigger::DeviceEvent {
            subject: DeviceRef::Bound { device_id },
            ..
        } = &rule.trigger
        {
            ids.insert(device_id.clone());
        }
        for action in &rule.actions {
            if let ActionSubject::Device(DeviceRef::Bound { device_id }) = &action.subject {
                ids.insert(device_id.clone());
            }
        }
    }
    ids
}

/// Builds a simulated home for a session's unified rules, installs the
/// session's enforcer, drives the schedule, and returns the sim.
fn simulate(
    seed: u64,
    rules: &[Rule],
    enforcer: homeguard_core::SharedEnforcer,
    schedule: &[(String, &'static str, &'static str)],
) -> hg_sim::Home {
    use hg_capability::device_kind::DeviceKind;
    let mut sim = hg_sim::Home::new(seed);
    for id in bound_devices(rules) {
        let cap = static_capability(&id);
        sim.add_device(hg_sim::Device::new(
            id.clone(),
            id,
            cap,
            DeviceKind::Unknown,
        ));
    }
    for rule in rules {
        sim.install_rule(rule.clone());
    }
    sim.set_mediator(enforcer.mediator());
    for (device, attr, value) in schedule {
        sim.stimulate(device, attr, Value::sym(*value));
    }
    sim
}

/// The unified (ByType — no bindings are recorded in this harness) rules
/// of a home, in install order.
fn unified_rules(fleet: &Fleet, id: HomeId) -> Vec<Rule> {
    fleet
        .with_home(id, |home| {
            home.installed_rules()
                .into_iter()
                .map(|r| hg_detector::Unification::ByType.unify_rule(r))
                .collect()
        })
        .unwrap()
}

#[test]
fn restored_fleet_is_behaviorally_identical_to_the_live_one() {
    let mut uninstalls = 0usize;
    let mut upgrades = 0usize;
    let mut rankings = 0usize;
    let mut dropped_rank_events = 0usize;
    let mut nonempty_mediation = 0usize;
    let mut mediated_runs = 0usize;

    for seed in 0..12u64 {
        let mut g = Gen::new(0xcafe ^ seed);
        let fleet = Fleet::builder(RuleStore::shared())
            .shards(3)
            .home_defaults(|b| b.handling_policy(PolicyTable::block_all()))
            .build();
        let homes: Vec<HomeId> = (0..3).map(|_| fleet.create_home().unwrap()).collect();
        // Mirror of each home's surviving apps: (name, source).
        let mut live: Vec<Vec<(String, String)>> = vec![Vec::new(); homes.len()];

        for step in 0..14 {
            let h = g.range(0, homes.len());
            let id = homes[h];
            match g.range(0, 100) {
                0..=54 => {
                    let name = format!("App{seed}h{h}x{step}");
                    let source = palette_source(&name, g.range(0, 3), g.range(0, 3), g.range(0, 2));
                    let report = fleet.install_app_forced(id, &source, &name, None).unwrap();
                    assert!(report.installed);
                    live[h].push((name, source));
                }
                55..=69 => {
                    if live[h].is_empty() {
                        continue;
                    }
                    let victim = g.range(0, live[h].len());
                    let (name, _) = live[h].remove(victim);
                    fleet.uninstall_app(id, &name).unwrap();
                    uninstalls += 1;
                }
                70..=84 => {
                    if live[h].is_empty() {
                        continue;
                    }
                    let slot = g.range(0, live[h].len());
                    let name = live[h][slot].0.clone();
                    let v2 = palette_source(&name, g.range(0, 3), g.range(0, 3), g.range(0, 2));
                    let report = fleet
                        .with_home_mut(id, |home| home.upgrade_app_forced(&v2, &name, None))
                        .unwrap()
                        .unwrap();
                    assert!(report.installed && report.is_upgrade());
                    if !report.dropped_ranks.is_empty() {
                        dropped_rank_events += 1;
                    }
                    live[h][slot].1 = v2;
                    upgrades += 1;
                }
                _ => {
                    // The user ranks two of the home's apps for Actuator
                    // Race arbitration.
                    if live[h].len() < 2 {
                        continue;
                    }
                    let first = g.range(0, live[h].len());
                    let mut second = g.range(0, live[h].len());
                    if second == first {
                        second = (second + 1) % live[h].len();
                    }
                    let table = PolicyTable::block_all().prioritize([
                        RuleId::new(live[h][first].0.clone(), 0),
                        RuleId::new(live[h][second].0.clone(), 0),
                    ]);
                    fleet
                        .with_home_mut(id, |home| home.set_handling_policy(table))
                        .unwrap();
                    rankings += 1;
                }
            }
        }

        // Restart: only the snapshot text crosses the process boundary.
        let text = fleet.snapshot().unwrap().to_text();
        assert_canonical(&text);
        let restored = Fleet::restore(FleetSnapshot::from_text(&text).unwrap()).unwrap();
        assert_eq!(restored.home_ids(), fleet.home_ids());
        assert_eq!(restored.store().len(), fleet.store().len());

        // A fresh probe app, published to both stores.
        let probe_name = format!("Probe{seed}");
        let probe = palette_source(&probe_name, g.range(0, 3), g.range(0, 3), g.range(0, 2));
        fleet.store().ingest(&probe, &probe_name).unwrap();
        restored.store().ingest(&probe, &probe_name).unwrap();

        for (h, &id) in homes.iter().enumerate() {
            // Ground truth agrees...
            assert_eq!(
                restored.with_home(id, |x| x.installed_apps()).unwrap(),
                fleet.with_home(id, |x| x.installed_apps()).unwrap(),
                "seed {seed} home {h}: installed apps diverge"
            );
            assert_eq!(
                restored
                    .with_home(id, |x| x
                        .installed_rules()
                        .iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>())
                    .unwrap(),
                fleet
                    .with_home(id, |x| x
                        .installed_rules()
                        .iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>())
                    .unwrap(),
                "seed {seed} home {h}: installed rules diverge"
            );
            assert_eq!(
                restored
                    .with_home(id, |x| x.handling_policy().clone())
                    .unwrap(),
                fleet
                    .with_home(id, |x| x.handling_policy().clone())
                    .unwrap(),
                "seed {seed} home {h}: handling tables diverge"
            );

            // ...detection reports agree, effort included...
            let live_report = fleet.check_install(id, &probe_name).unwrap();
            let back_report = restored.check_install(id, &probe_name).unwrap();
            assert_eq!(
                threat_keys(&live_report.threats),
                threat_keys(&back_report.threats),
                "seed {seed} home {h}: probe threat sets diverge"
            );
            assert_eq!(live_report.chains.len(), back_report.chains.len());
            assert_eq!(
                live_report.stats, back_report.stats,
                "seed {seed} home {h}: detection effort diverges"
            );

            // ...the compiled mediation points agree...
            let live_points = mediation_keys(&fleet, id);
            assert_eq!(
                live_points,
                mediation_keys(&restored, id),
                "seed {seed} home {h}: mediation points diverge"
            );
            if !live_points.is_empty() {
                nonempty_mediation += 1;
            }

            // ...and the runtime *behaves* the same: paired simulations on
            // the same schedule replay bit-identically, mediation included.
            let rules = unified_rules(&fleet, id);
            assert_eq!(rules, unified_rules(&restored, id));
            let mut schedule = Vec::new();
            for (_, s_attr, s_val) in SENSORS {
                for device in bound_devices(&rules) {
                    if static_capability(&device).ends_with("Sensor") {
                        schedule.push((device, s_attr, s_val));
                    }
                }
            }
            let live_enf = fleet.with_home_mut(id, |x| x.enforcer()).unwrap();
            let back_enf = restored.with_home_mut(id, |x| x.enforcer()).unwrap();
            let live_sim = simulate(seed, &rules, live_enf.clone(), &schedule);
            let back_sim = simulate(seed, &rules, back_enf.clone(), &schedule);
            assert_eq!(
                live_sim.trace, back_sim.trace,
                "seed {seed} home {h}: replayed traces diverge"
            );
            assert_eq!(
                live_enf.stats().mediated,
                back_enf.stats().mediated,
                "seed {seed} home {h}: mediation decisions diverge"
            );
            assert_eq!(live_enf.journal().len(), back_enf.journal().len());
            if live_enf.stats().mediated > 0 {
                mediated_runs += 1;
            }
        }

        // Restored-then-upgraded: churn every restored home once more and
        // verify no staleness survived the restart.
        for (h, &id) in homes.iter().enumerate() {
            let Some((name, _)) = live[h].first().cloned() else {
                continue;
            };
            if h == 0 {
                // The user ranks the app right before its upgrade — in
                // both worlds — so the rank-remap path runs on a restored
                // handling table too.
                let table = PolicyTable::block_all().prioritize([RuleId::new(name.clone(), 0)]);
                fleet
                    .with_home_mut(id, |home| home.set_handling_policy(table.clone()))
                    .unwrap();
                restored
                    .with_home_mut(id, |home| home.set_handling_policy(table))
                    .unwrap();
            }
            let v2 = palette_source(&name, g.range(0, 3), g.range(0, 3), g.range(0, 2));
            let live_up = fleet
                .with_home_mut(id, |home| home.upgrade_app_forced(&v2, &name, None))
                .unwrap()
                .unwrap();
            let back_up = restored
                .with_home_mut(id, |home| home.upgrade_app_forced(&v2, &name, None))
                .unwrap()
                .unwrap();
            assert_eq!(
                threat_keys(&live_up.threats),
                threat_keys(&back_up.threats),
                "seed {seed} home {h}: post-restore upgrade reports diverge"
            );
            assert_eq!(live_up.dropped_ranks, back_up.dropped_ranks);
            if !back_up.dropped_ranks.is_empty() {
                dropped_rank_events += 1;
            }

            // No dangling Priority ranks: every surviving rank references
            // an installed rule.
            restored
                .with_home(id, |home| {
                    let installed: BTreeSet<String> = home
                        .installed_rules()
                        .iter()
                        .map(|r| r.id.to_string())
                        .collect();
                    for (_, policy) in home
                        .handling_policy()
                        .entries()
                        .map(|(k, p)| (Some(k), p))
                        .chain(std::iter::once((None, home.handling_policy().fallback())))
                    {
                        if let HandlingPolicy::Priority(order) = policy {
                            for rank in order {
                                assert!(
                                    installed.contains(&rank.to_string()),
                                    "seed {seed} home {h}: dangling rank {rank}"
                                );
                            }
                        }
                    }
                })
                .unwrap();

            // No stale fingerprints: the store's dedup cache and by-name
            // views agree after the post-restore upgrade — an ingest of
            // any source yields an analysis identical to what `rules_of`
            // then serves.
            let (_, v1_source) = live[h].first().unwrap().clone();
            let revived = restored.store().ingest(&v1_source, &name).unwrap();
            assert_eq!(
                restored.store().rules_of(&name).unwrap(),
                revived.rules,
                "seed {seed} home {h}: stale fingerprint served a dead analysis"
            );
        }
    }

    // The properties must not hold vacuously.
    assert!(uninstalls >= 8, "only {uninstalls} uninstalls exercised");
    assert!(upgrades >= 8, "only {upgrades} upgrades exercised");
    assert!(rankings >= 4, "only {rankings} priority rankings exercised");
    assert!(
        dropped_rank_events >= 2,
        "only {dropped_rank_events} upgrades dropped dangling ranks"
    );
    assert!(
        nonempty_mediation >= 6,
        "only {nonempty_mediation} homes ended with live mediation points"
    );
    assert!(
        mediated_runs >= 4,
        "only {mediated_runs} replays actually mediated anything"
    );
}

/// The streamed encoder over a generated population with device rebinds
/// and relay-ladder homes (confirmed threats with witnesses, chains): the
/// fleet snapshot, which is also the journal's checkpoint document, is
/// canonical JSON and a fixed point of decoding and re-encoding.
#[test]
fn streamed_fleet_documents_are_canonical() {
    let spec = FleetSpec {
        shards: 4,
        ..FleetSpec::sized(60)
    };
    let fleet = Fleet::builder(RuleStore::shared())
        .shards(spec.shards)
        .build();
    let (_, stats) = populate(&fleet, &spec);
    assert!(
        stats.failures == 0 && stats.configs_recorded > 0 && stats.chained_reports > 0,
        "{stats:?}"
    );
    let snapshot = fleet.snapshot().unwrap();

    let text = snapshot.to_text();
    assert_canonical(&text);
    let again = FleetSnapshot::from_text(&text).unwrap().to_text();
    assert!(again == text, "snapshot re-encodes differently");
}
