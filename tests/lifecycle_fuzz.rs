//! Differential retraction harness: random install / uninstall / upgrade
//! sequences must leave the incrementally maintained detection state
//! **identical** to a from-scratch rebuild of the surviving population.
//!
//! Two levels, both seeded (SplitMix64, as in `tests/properties.rs` and
//! `tests/runtime_fuzz.rs`, so every sequence reproduces from its seed):
//!
//! * engine level — lifecycle ops over the real benign+malicious corpus
//!   drive `DetectionEngine::{install_rules, remove_app}` directly; after
//!   every op a probe app must get the identical threat set from the
//!   churned engine and a freshly rebuilt one;
//! * session level — lifecycle ops through the full `Home` API (forced
//!   installs, uninstalls, forced upgrades) must leave installed rules,
//!   the Allowed list *and the compiled mediation points* identical to a
//!   fresh session that only ever saw the surviving apps — in particular,
//!   an uninstalled app's rules produce **zero** mediation points;
//! * shared forms — homes on one store install the store's prepared
//!   rules; after every op each slot must equal a fresh preparation, and
//!   each home must match a twin on a store of its own.

use hg_config::ConfigInfo;
use hg_detector::{DetectionEngine, Detector, PreparedRule, Threat, ThreatKind, Unification};
use hg_persist::home_to_text;
use hg_rules::rule::Rule;
use hg_symexec::{extract, ExtractorConfig};
use homeguard_core::{HgError, Home, InstallReport, PolicyTable, RuleStore};
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

/// Canonical, comparable threat key (as in `tests/differential.rs`).
fn key(t: &Threat) -> (ThreatKind, String, String) {
    let s = t.source.to_string();
    let d = t.target.to_string();
    if t.kind.is_directed() || s <= d {
        (t.kind, s, d)
    } else {
        (t.kind, d, s)
    }
}

fn sorted_keys(threats: &[Threat]) -> Vec<(ThreatKind, String, String)> {
    let mut keys: Vec<_> = threats.iter().map(key).collect();
    keys.sort();
    keys
}

/// Extracted rule sets of the benign + malicious corpus apps that yield
/// rules, re-identified under unique labels so a benign and a malicious
/// app sharing a name cannot collide and `remove_app(label)` matches the
/// installed rule identities exactly.
fn corpus_rule_sets() -> Vec<(String, Vec<Rule>)> {
    let config = ExtractorConfig::extended();
    let mut out = Vec::new();
    for app in hg_corpus::benign_apps() {
        if let Ok(analysis) = extract(app.source, app.name, &config) {
            if !analysis.rules.is_empty() {
                out.push((analysis.name.clone(), analysis.rules));
            }
        }
    }
    for app in hg_corpus::MALICIOUS_APPS {
        if let Ok(analysis) = extract(app.source, app.name, &config) {
            if !analysis.rules.is_empty() {
                let label = format!("mal::{}", analysis.name);
                let rules = reidentify(&analysis.rules, &label);
                out.push((label, rules));
            }
        }
    }
    out
}

/// Re-identifies a donor rule set as `app` (the "v2" of an upgrade): same
/// automation, new ownership.
fn reidentify(rules: &[Rule], app: &str) -> Vec<Rule> {
    rules
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.id.app = app.to_string();
            r
        })
        .collect()
}

#[test]
fn engine_retraction_matches_fresh_rebuild_over_corpus() {
    let corpus = corpus_rule_sets();
    assert!(corpus.len() > 50, "corpus suspiciously small");

    let mut installs = 0usize;
    let mut uninstalls = 0usize;
    let mut upgrades = 0usize;
    for seed in 0..6 {
        let mut g = Gen::new(seed);
        let mut engine = DetectionEngine::new(Detector::store_wide());
        // The mirror: what a from-scratch rebuild would install.
        let mut live: Vec<(String, Vec<Rule>)> = Vec::new();

        for _ in 0..24 {
            match g.range(0, 100) {
                // Install an app not currently live (rules re-identified so
                // repeat installs across seeds cannot collide).
                0..=49 => {
                    let (name, rules) = &corpus[g.range(0, corpus.len())];
                    if live.iter().any(|(n, _)| n == name) {
                        continue;
                    }
                    engine.install_rules(rules);
                    live.push((name.clone(), rules.clone()));
                    installs += 1;
                }
                // Uninstall a random live app.
                50..=74 => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = g.range(0, live.len());
                    let (name, _) = live.remove(victim);
                    let removed = engine.remove_app(&name);
                    assert!(!removed.is_empty(), "{name} had rules installed");
                    uninstalls += 1;
                }
                // Upgrade a random live app to another corpus app's
                // automation (re-identified), exercising remove + add.
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let slot = g.range(0, live.len());
                    let app = live[slot].0.clone();
                    let (_, donor) = &corpus[g.range(0, corpus.len())];
                    let v2 = reidentify(donor, &app);
                    engine.remove_app(&app);
                    engine.install_rules(&v2);
                    live[slot].1 = v2;
                    upgrades += 1;
                }
            }

            // Differential: a probe app must see the identical threat set
            // from the churned engine and a fresh rebuild of `live`.
            let mut fresh = DetectionEngine::new(Detector::store_wide());
            for (_, rules) in &live {
                fresh.install_rules(rules);
            }
            assert_eq!(engine.len(), fresh.len(), "seed {seed}: live rule counts");
            let churned_ids: Vec<String> =
                engine.installed_rules().map(|r| r.id.to_string()).collect();
            let fresh_ids: Vec<String> =
                fresh.installed_rules().map(|r| r.id.to_string()).collect();
            let (mut a, mut b) = (churned_ids.clone(), fresh_ids.clone());
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed}: installed populations diverge");

            let (_, probe) = &corpus[g.range(0, corpus.len())];
            let (churned_threats, _) = engine.check(probe);
            let (fresh_threats, _) = fresh.check(probe);
            assert_eq!(
                sorted_keys(&churned_threats),
                sorted_keys(&fresh_threats),
                "seed {seed}: probe threat sets diverge after lifecycle churn"
            );
        }
    }
    // The property must not hold vacuously.
    assert!(installs >= 30, "only {installs} installs exercised");
    assert!(uninstalls >= 15, "only {uninstalls} uninstalls exercised");
    assert!(upgrades >= 10, "only {upgrades} upgrades exercised");
}

/// Synthetic palette for session-level lifecycle fuzzing: every app
/// subscribes to one sensor and commands one actuator, so pairs race,
/// covertly trigger, or stay unrelated depending on the draw.
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

/// [`palette_source`] with an optional guard around the handler's command,
/// so condition-overlap questions (GC's merged solve, EC's effect solve)
/// reach the pair check. Shape 0 is the unguarded palette; shapes 1–3 guard
/// on mode membership, a constant threshold, and a comparison against an
/// **unresolved user input**, whose (absent) configured value the
/// verdict-cache key folds in.
fn conditional_palette_source(
    name: &str,
    sensor: usize,
    actuator: usize,
    command: usize,
    cond: usize,
) -> String {
    if cond == 0 {
        return palette_source(name, sensor, actuator, command);
    }
    let (s_cap, s_attr, s_val) = SENSORS[sensor];
    let (a_cap, a_title, commands) = ACTUATORS[actuator];
    let cmd = commands[command];
    let (extra_inputs, guard) = match cond {
        1 => ("", r#"location.mode == "Home""#.to_string()),
        2 => (
            "input \"m\", \"capability.temperatureMeasurement\"\n",
            "m.currentTemperature > 50".to_string(),
        ),
        _ => (
            "input \"m\", \"capability.temperatureMeasurement\"\ninput \"thr\", \"number\", title: \"Above?\"\n",
            "m.currentTemperature > thr".to_string(),
        ),
    };
    format!(
        r#"
definition(name: "{name}")
input "t", "{s_cap}"
input "a", "{a_cap}", title: "{a_title}"
{extra_inputs}def installed() {{ subscribe(t, "{s_attr}.{s_val}", h) }}
def h(evt) {{ if ({guard}) {{ a.{cmd}() }} }}
"#
    )
}

#[test]
fn cached_detection_matches_uncached_over_seeded_churn() {
    // The verdict-cache differential: two sessions over ONE shared store —
    // one consulting the fleet verdict cache (the default), one with
    // sharing disabled (the uncached ground truth) — replay identical
    // seeded lifecycle scripts. Every report must carry bit-identical
    // threats (witnesses, notes, everything) and identical stats modulo
    // the hit/miss markers; after the churn the Allowed lists and compiled
    // mediation points must agree. Upgrades and uninstalls are in the
    // script, so a stale verdict surviving an app replacement would
    // surface as a divergent post-upgrade report. Apps come from the
    // guarded palette, so condition-overlap questions, and cache keys
    // that fold in an unresolved user input, are held to the same bar.
    let mut hits_total = 0u64;
    let mut upgrades = 0usize;
    let mut uninstalls = 0usize;
    let mut dirty_reports = 0usize;
    let mut guarded_dirty = 0usize;
    for seed in 0..12 {
        let mut g = Gen::new(0xcafe ^ seed);
        let store = RuleStore::shared();
        // Two cached sessions replay the identical script — the second is
        // the "neighbor home" whose checks should be answered from the
        // first one's solving — plus the uncached ground truth.
        let mut cached = Home::builder(store.clone())
            .handling_policy(PolicyTable::block_all())
            .build();
        let mut twin = Home::builder(store.clone())
            .handling_policy(PolicyTable::block_all())
            .build();
        let mut plain = Home::builder(store.clone())
            .handling_policy(PolicyTable::block_all())
            .verdict_sharing(false)
            .build();
        let mut live: Vec<String> = Vec::new();

        for step in 0..14 {
            match g.range(0, 100) {
                0..=54 => {
                    let name = format!("Cache{seed}x{step}");
                    let (sensor, actuator, command, guard) =
                        (g.range(0, 3), g.range(0, 3), g.range(0, 2), g.range(0, 4));
                    let source =
                        conditional_palette_source(&name, sensor, actuator, command, guard);
                    let a = cached.install_app_forced(&source, &name, None).unwrap();
                    let t = twin.install_app_forced(&source, &name, None).unwrap();
                    let b = plain.install_app_forced(&source, &name, None).unwrap();
                    for (label, report) in [("cached", &a), ("twin", &t)] {
                        assert_eq!(
                            report.threats, b.threats,
                            "seed {seed} step {step}: {label} install threats diverge"
                        );
                        assert_eq!(
                            report.stats.logical(),
                            b.stats.logical(),
                            "seed {seed} step {step}: {label} logical stats diverge"
                        );
                    }
                    assert_eq!(b.stats.cache_hits + b.stats.cache_misses, 0);
                    // The twin's pairs repeat the first session's work.
                    assert_eq!(t.stats.cache_hits, t.stats.pairs);
                    hits_total += t.stats.cache_hits;
                    if !a.is_clean() {
                        dirty_reports += 1;
                        guarded_dirty += usize::from(guard > 0);
                    }
                    live.push(name);
                }
                55..=74 => {
                    if live.is_empty() {
                        continue;
                    }
                    let name = live.remove(g.range(0, live.len()));
                    let a = cached.uninstall_app(&name).unwrap();
                    let t = twin.uninstall_app(&name).unwrap();
                    let b = plain.uninstall_app(&name).unwrap();
                    assert_eq!(a.removed_rules, b.removed_rules);
                    assert_eq!(t.removed_rules, b.removed_rules);
                    assert_eq!(a.retired_threats, b.retired_threats);
                    uninstalls += 1;
                }
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let name = live[g.range(0, live.len())].clone();
                    let v2 = conditional_palette_source(
                        &name,
                        g.range(0, 3),
                        g.range(0, 3),
                        g.range(0, 2),
                        g.range(0, 4),
                    );
                    let a = cached.upgrade_app_forced(&v2, &name, None).unwrap();
                    let t = twin.upgrade_app_forced(&v2, &name, None).unwrap();
                    let b = plain.upgrade_app_forced(&v2, &name, None).unwrap();
                    for (label, report) in [("cached", &a), ("twin", &t)] {
                        assert_eq!(
                            report.threats, b.threats,
                            "seed {seed} step {step}: {label} post-upgrade threats diverge \
                             (a stale verdict survived the replacement?)"
                        );
                        assert_eq!(report.stats.logical(), b.stats.logical());
                    }
                    hits_total += t.stats.cache_hits;
                    upgrades += 1;
                }
            }

            // Between ops: a probe check must agree bit-identically too.
            let probe = format!("Probe{seed}x{step}");
            let probe_src = conditional_palette_source(
                &probe,
                g.range(0, 3),
                g.range(0, 3),
                g.range(0, 2),
                g.range(0, 4),
            );
            store.ingest(&probe_src, &probe).unwrap();
            let a = cached.check_install(&probe).unwrap();
            let t = twin.check_install(&probe).unwrap();
            let b = plain.check_install(&probe).unwrap();
            assert_eq!(
                a.threats, b.threats,
                "seed {seed} step {step}: probe diverges"
            );
            assert_eq!(
                t.threats, b.threats,
                "seed {seed} step {step}: twin probe diverges"
            );
            assert_eq!(a.stats.logical(), b.stats.logical());
            assert_eq!(t.stats.logical(), b.stats.logical());
            hits_total += t.stats.cache_hits;
            store.retire_app(&probe);
        }

        for (label, home) in [("cached", &cached), ("twin", &twin)] {
            assert_eq!(
                sorted_keys(home.allowed()),
                sorted_keys(plain.allowed()),
                "seed {seed}: {label} Allowed lists diverge"
            );
        }
        assert_eq!(
            cached.mediation_index().len(),
            plain.mediation_index().len(),
            "seed {seed}: mediation point counts diverge"
        );
        let points = |home: &mut Home| {
            let mut v: Vec<(String, String)> = home
                .mediation_index()
                .points()
                .iter()
                .map(|p| (p.source.to_string(), p.target.to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            points(&mut cached),
            points(&mut plain),
            "seed {seed}: mediation points diverge"
        );
    }
    // Not vacuous: the cache served real traffic, churn really replaced
    // and retired apps, and interference actually surfaced, guarded
    // handlers included.
    assert!(hits_total >= 50, "only {hits_total} cache hits exercised");
    assert!(upgrades >= 10, "only {upgrades} upgrades exercised");
    assert!(uninstalls >= 10, "only {uninstalls} uninstalls exercised");
    assert!(dirty_reports >= 10, "only {dirty_reports} dirty installs");
    assert!(
        guarded_dirty >= 8,
        "only {guarded_dirty} dirty guarded installs"
    );
}

#[test]
fn home_lifecycle_matches_fresh_session_replay() {
    let mut uninstalls = 0usize;
    let mut upgrades = 0usize;
    let mut nonempty_mediation = 0usize;
    for seed in 0..16 {
        let mut g = Gen::new(0xbeef ^ seed);
        let mut home = Home::builder(RuleStore::shared())
            .handling_policy(PolicyTable::block_all())
            .build();
        // The mirror: (name, source) of every app surviving the churn, in
        // the order a fresh session would install them.
        let mut live: Vec<(String, String)> = Vec::new();

        for step in 0..12 {
            match g.range(0, 100) {
                0..=54 => {
                    let name = format!("App{seed}x{step}");
                    let source = palette_source(&name, g.range(0, 3), g.range(0, 3), g.range(0, 2));
                    let report = home.install_app_forced(&source, &name, None).unwrap();
                    assert!(report.installed);
                    live.push((name, source));
                }
                55..=79 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (name, _) = live.remove(g.range(0, live.len()));
                    home.uninstall_app(&name).unwrap();
                    uninstalls += 1;
                }
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let slot = g.range(0, live.len());
                    let name = live[slot].0.clone();
                    let v2 = palette_source(&name, g.range(0, 3), g.range(0, 3), g.range(0, 2));
                    let report = home.upgrade_app_forced(&v2, &name, None).unwrap();
                    assert!(report.installed && report.is_upgrade());
                    live[slot].1 = v2;
                    upgrades += 1;
                }
            }
        }

        // A fresh session that only ever saw the survivors.
        let mut fresh = Home::builder(RuleStore::shared())
            .handling_policy(PolicyTable::block_all())
            .build();
        for (name, source) in &live {
            fresh.install_app_forced(source, name, None).unwrap();
        }

        // Compared as sets: an upgrade legitimately moves an app to the
        // end of the churned home's install order.
        let mut churned_rules: Vec<String> = home
            .installed_rules()
            .iter()
            .map(|r| r.to_string())
            .collect();
        let mut fresh_rules: Vec<String> = fresh
            .installed_rules()
            .iter()
            .map(|r| r.to_string())
            .collect();
        churned_rules.sort();
        fresh_rules.sort();
        assert_eq!(
            churned_rules, fresh_rules,
            "seed {seed}: surviving rules diverge"
        );

        assert_eq!(
            sorted_keys(home.allowed()),
            sorted_keys(fresh.allowed()),
            "seed {seed}: Allowed lists diverge after churn"
        );

        // The compiled mediation points agree, and no point references an
        // app outside the surviving population — an uninstalled app's
        // rules produce zero mediation points.
        let fresh_points = fresh.mediation_index().len();
        let index = home.mediation_index();
        assert_eq!(
            index.len(),
            fresh_points,
            "seed {seed}: mediation point counts diverge"
        );
        for point in index.points() {
            for rule in [&point.source, &point.target] {
                assert!(
                    live.iter().any(|(name, _)| *name == rule.app),
                    "seed {seed}: mediation point references retired app {rule}"
                );
            }
        }
        if !index.is_empty() {
            nonempty_mediation += 1;
        }
    }
    // Not vacuous: the sequences actually retired and replaced apps, and
    // some surviving populations still interfere.
    assert!(uninstalls >= 10, "only {uninstalls} uninstalls exercised");
    assert!(upgrades >= 10, "only {upgrades} upgrades exercised");
    assert!(
        nonempty_mediation >= 4,
        "only {nonempty_mediation} seeds ended with live mediation points"
    );
}

/// Every installed slot of `home` is what `PreparedRule::prepare` returns
/// for its rule under the home's current unification.
fn assert_slots_fresh(home: &Home, context: &str) {
    let unification = &home.engine().detector().unification;
    for slot in home.engine().installed_prepared() {
        let fresh = PreparedRule::prepare(&slot.orig, unification);
        assert_eq!(
            slot.fingerprint(),
            fresh.fingerprint(),
            "{context}: stale form for {}",
            slot.orig.id
        );
        assert_eq!(
            slot.unified, fresh.unified,
            "{context}: wrongly unified form for {}",
            slot.orig.id
        );
    }
}

fn assert_same_report(a: &InstallReport, b: &InstallReport, context: &str) {
    assert_eq!(a.rules, b.rules, "{context}: rules");
    assert_eq!(a.threats, b.threats, "{context}: threats");
    assert_eq!(a.chains, b.chains, "{context}: chains");
    assert_eq!(a.stats.logical(), b.stats.logical(), "{context}: stats");
    assert_eq!(a.installed, b.installed, "{context}: installed");
    assert_eq!(a.replaces, b.replaces, "{context}: replaces");
    assert_eq!(a.dropped_ranks, b.dropped_ranks, "{context}: dropped ranks");
}

/// A confirmed report's rules are the rules `home` now runs for its app.
fn assert_runs(home: &Home, report: &InstallReport, context: &str) {
    if report.installed {
        let running: Vec<&Rule> = home
            .installed_rules()
            .into_iter()
            .filter(|rule| rule.id.app == report.app)
            .collect();
        let confirmed: Vec<&Rule> = report.rules.iter().collect();
        assert_eq!(
            running, confirmed,
            "{context}: runs other rules than confirmed"
        );
    }
}

/// `home` rebuilt on `store` from its exported state, which the rebuilt
/// home must export unchanged.
fn restore(store: &Arc<RuleStore>, home: &Home, context: &str) -> Home {
    let state = home.export_state();
    let restored = Home::restore_state(store.clone(), state.clone());
    assert_eq!(
        restored.export_state(),
        state,
        "{context}: restore changed the state"
    );
    restored
}

/// Both outcomes agree; returns the pair of reports when both succeeded.
fn same_outcome(
    a: Result<InstallReport, HgError>,
    b: Result<InstallReport, HgError>,
    context: &str,
) -> Option<(InstallReport, InstallReport)> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_same_report(&a, &b, context);
            Some((a, b))
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{context}: errors");
            None
        }
        (a, b) => panic!("{context}: outcomes diverge: {a:?} vs {b:?}"),
    }
}

/// One home on the shared store, its twin on a store of its own, and the
/// dirty reports the pair has not confirmed yet, oldest first.
struct Side {
    home: Home,
    twin: Home,
    pending: Vec<(InstallReport, InstallReport)>,
}

#[test]
fn shared_forms_match_fresh_preparation_over_seeded_churn() {
    // Two by-type homes on one store run the store's prepared forms, so
    // one home's install, upgrade, uninstall or restore changes which
    // forms the other one shares. Each home has a twin on a store of its
    // own, with verdict sharing off, that sees every store publication in
    // the same order, so its forms and verdicts are never another home's.
    // The script installs (clean installs auto-confirm, dirty ones wait,
    // some stage a device binding), confirms waiting reports that may have
    // gone stale, uninstalls, upgrades (a re-ingest under the app's name),
    // rebinds devices (moving a home from by-type to bindings unification;
    // uninstalling the bound app moves it back), and restores one home or
    // the whole store. After every op each slot must equal a fresh
    // preparation, and each home must export the same snapshot text as its
    // twin.
    const POOL: usize = 4;
    let mut shared_slots = 0usize;
    let mut to_bindings = 0usize;
    let mut to_by_type = 0usize;
    let mut stale_confirms = 0usize;
    let mut restores = 0usize;
    let mut recovers = 0usize;
    for seed in 0..16 {
        let mut g = Gen::new(0xf0f0 ^ seed);
        let mut store = RuleStore::shared();
        let mut twin_stores = [RuleStore::shared(), RuleStore::shared()];
        let mut sides: Vec<Side> = (0..2)
            .map(|i| Side {
                home: Home::new(store.clone()),
                twin: Home::builder(twin_stores[i].clone())
                    .verdict_sharing(false)
                    .build(),
                pending: Vec::new(),
            })
            .collect();
        let mut published: BTreeMap<String, String> = BTreeMap::new();
        let draw_source = |g: &mut Gen, name: &str| {
            let (sensor, actuator, command, guard) =
                (g.range(0, 3), g.range(0, 3), g.range(0, 2), g.range(0, 4));
            conditional_palette_source(name, sensor, actuator, command, guard)
        };
        let bind = |g: &mut Gen, app: &str| {
            ConfigInfo::new(app)
                .bind_device("t", &format!("sensor-{}", g.range(0, 2)))
                .bind_device("a", &format!("actuator-{}", g.range(0, 2)))
        };

        for step in 0..40 {
            let s = g.range(0, 2);
            let context = format!("seed {seed} step {step} home {s}");
            let by_type =
                |home: &Home| matches!(home.engine().detector().unification, Unification::ByType);
            let was_by_type = by_type(&sides[s].home);
            match g.range(0, 100) {
                0..=44 => {
                    // Mostly the store's current version, so the other
                    // home may already hold its forms.
                    let name = format!("App{}", g.range(0, POOL));
                    let source = match published.get(&name) {
                        Some(source) if g.range(0, 4) > 0 => source.clone(),
                        _ => draw_source(&mut g, &name),
                    };
                    published.insert(name.clone(), source.clone());
                    let staged = (g.range(0, 8) == 0).then(|| bind(&mut g, &name));
                    for target in std::iter::once(&store).chain(&twin_stores) {
                        target.ingest(&source, &name).unwrap();
                    }
                    let side = &mut sides[s];
                    let a = side.home.install_app(&source, &name, staged.as_ref());
                    let b = side.twin.install_app(&source, &name, staged.as_ref());
                    if let Some((a, b)) = same_outcome(a, b, &context) {
                        assert_runs(&side.home, &a, &context);
                        if !a.installed {
                            side.pending.push((a, b));
                        }
                    }
                }
                45..=59 => {
                    let side = &mut sides[s];
                    if side.pending.is_empty() {
                        continue;
                    }
                    let (a, b) = side.pending.remove(0);
                    stale_confirms += usize::from(!store.rules_eq(&a.app, &a.rules));
                    let a = side.home.confirm_install(a);
                    let b = side.twin.confirm_install(b);
                    if let Some((a, _)) = same_outcome(a, b, &context) {
                        assert_runs(&side.home, &a, &context);
                    }
                }
                60..=69 => {
                    let side = &mut sides[s];
                    let apps = side.home.installed_apps();
                    if apps.is_empty() {
                        continue;
                    }
                    let name = &apps[g.range(0, apps.len())];
                    let a = side.home.uninstall_app(name).unwrap();
                    let b = side.twin.uninstall_app(name).unwrap();
                    assert_eq!(a.removed_rules, b.removed_rules, "{context}");
                    assert_eq!(a.retired_threats, b.retired_threats, "{context}");
                }
                70..=79 => {
                    let apps = sides[s].home.installed_apps();
                    if apps.is_empty() {
                        continue;
                    }
                    let name = apps[g.range(0, apps.len())].clone();
                    let source = draw_source(&mut g, &name);
                    published.insert(name.clone(), source.clone());
                    for target in std::iter::once(&store).chain(&twin_stores) {
                        target.ingest_as(&source, &name).unwrap();
                    }
                    let side = &mut sides[s];
                    let a = side.home.upgrade_app(&source, &name, None);
                    let b = side.twin.upgrade_app(&source, &name, None);
                    if let Some((a, b)) = same_outcome(a, b, &context) {
                        assert_runs(&side.home, &a, &context);
                        if !a.installed {
                            side.pending.push((a, b));
                        }
                    }
                }
                80..=83 => {
                    let side = &mut sides[s];
                    let apps = side.home.installed_apps();
                    if apps.is_empty() {
                        continue;
                    }
                    let app = apps[g.range(0, apps.len())].clone();
                    let info = bind(&mut g, &app);
                    side.home.record_config(&info);
                    side.twin.record_config(&info);
                }
                84..=93 => {
                    let side = &mut sides[s];
                    side.home = restore(&store, &side.home, &context);
                    side.twin = restore(&twin_stores[s], &side.twin, &context);
                    restores += 1;
                }
                _ => {
                    // Recovery: a new store from the exported one, with no
                    // prepared form cached, and every home restored onto it.
                    store = Arc::new(RuleStore::restore_state(store.export_state()));
                    for (i, side) in sides.iter_mut().enumerate() {
                        twin_stores[i] =
                            Arc::new(RuleStore::restore_state(twin_stores[i].export_state()));
                        side.home = restore(&store, &side.home, &context);
                        side.twin = restore(&twin_stores[i], &side.twin, &context);
                    }
                    recovers += 1;
                }
            }
            let is_by_type = by_type(&sides[s].home);
            to_bindings += usize::from(was_by_type && !is_by_type);
            to_by_type += usize::from(!was_by_type && is_by_type);

            // A probe check of a store app agrees too.
            let probe = format!("App{}", g.range(0, POOL));
            for (i, side) in sides.iter().enumerate() {
                let context = format!("{context}: home {i}");
                assert_slots_fresh(&side.home, &context);
                assert_slots_fresh(&side.twin, &format!("{context} twin"));
                assert_eq!(
                    home_to_text(&side.home.export_state()),
                    home_to_text(&side.twin.export_state()),
                    "{context}: snapshot text diverges from the twin's"
                );
                same_outcome(
                    side.home.check_install(&probe),
                    side.twin.check_install(&probe),
                    &format!("{context}: probe {probe}"),
                );
            }
            shared_slots += sides[0]
                .home
                .engine()
                .installed_prepared()
                .filter(|mine| {
                    sides[1]
                        .home
                        .engine()
                        .installed_prepared()
                        .any(|theirs| Arc::ptr_eq(mine, theirs))
                })
                .count();
        }
    }
    // Not vacuous: the homes really shared forms, moved between
    // unifications both ways, confirmed reports the store had moved past,
    // and were restored and recovered (measured: 79 shared slots, 31 and
    // 10 moves, 5 stale confirms, 60 restores, 30 recoveries).
    assert!(shared_slots >= 40, "only {shared_slots} shared slots seen");
    assert!(to_bindings >= 15, "only {to_bindings} moves to bindings");
    assert!(to_by_type >= 5, "only {to_by_type} moves back to by-type");
    assert!(stale_confirms >= 3, "only {stale_confirms} stale confirms");
    assert!(restores >= 30, "only {restores} restores");
    assert!(recovers >= 15, "only {recovers} recoveries");
}
