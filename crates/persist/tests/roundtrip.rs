//! Snapshot round-trip property tests: fleets in interesting states must
//! survive serialize → parse → restore unchanged, and every malformed
//! input must surface as a typed [`HgError`], never a panic or a
//! half-applied restore.

use hg_persist::{home_from_text, home_to_text, FleetSnapshot, MAX_SHARDS};
use hg_rules::json::Json;
use hg_service::{Fleet, HgError, RuleStore};
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

#[test]
fn empty_fleet_round_trips() {
    let fleet = Fleet::builder(RuleStore::shared()).shards(8).build();
    let text = fleet.snapshot().unwrap().to_text();
    let restored = Fleet::restore(FleetSnapshot::from_text(&text).unwrap()).unwrap();
    assert!(restored.is_empty());
    assert!(restored.store().is_empty());
    assert_eq!(restored.shard_count(), 8);
    // The empty fleet is fully operational after restore.
    let id = restored.create_home().unwrap();
    assert!(
        restored
            .install_app(id, ON_APP, "OnApp", None)
            .unwrap()
            .installed
    );
}

#[test]
fn mid_rollout_fleet_round_trips_and_pending_reports_stay_confirmable() {
    // A rollout upgrades the clean homes and leaves one home pending: the
    // snapshot is taken in that half-rolled state.
    let fleet = Fleet::new(RuleStore::shared());
    let ids: Vec<_> = (0..4).map(|_| fleet.create_home().unwrap()).collect();
    fleet.install_many(&ids, ON_APP, "OnApp", None).unwrap();
    fleet
        .install_app_forced(ids[1], OFF_APP, "OffApp", None)
        .unwrap();

    let v2 = ON_APP.replace("lamp.on()", "lamp.on(); lamp.off()");
    let rollout = fleet.propagate_upgrade(&v2, "OnApp").unwrap();
    assert_eq!(rollout.upgraded.len(), 3);
    assert_eq!(rollout.pending.len(), 1);
    let (pending_home, pending_report) = rollout.pending.into_iter().next().unwrap();

    let text = fleet.snapshot().unwrap().to_text();
    let restored = Fleet::restore(FleetSnapshot::from_text(&text).unwrap()).unwrap();

    // The pending home still runs v1 after the restart...
    assert_eq!(
        restored
            .with_home(pending_home, |h| {
                h.installed_rules()
                    .iter()
                    .filter(|r| r.id.app == "OnApp")
                    .map(|r| r.actions.len())
                    .sum::<usize>()
            })
            .unwrap(),
        1
    );
    // ...and the outstanding report (persisted by the operator alongside
    // the snapshot, or re-staged) confirms against the restored fleet.
    restored
        .confirm_install(pending_home, pending_report)
        .unwrap();
    assert_eq!(
        restored
            .with_home(pending_home, |h| {
                h.installed_rules()
                    .iter()
                    .filter(|r| r.id.app == "OnApp")
                    .map(|r| r.actions.len())
                    .sum::<usize>()
            })
            .unwrap(),
        2,
        "v2 has two actions"
    );
}

#[test]
fn poisoned_shard_fleet_snapshot_is_a_typed_error() {
    let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
    let a = fleet.create_home().unwrap();
    let _b = fleet.create_home().unwrap();
    let doomed = fleet.clone();
    std::thread::spawn(move || {
        let _ = doomed.with_home_mut(a, |_| panic!("home handler dies"));
    })
    .join()
    .unwrap_err();

    match fleet.snapshot() {
        Err(HgError::Poisoned(what)) => assert_eq!(what, "fleet shard"),
        other => panic!("expected Poisoned, got {other:?}"),
    }
}

/// A `GET /snapshot` document at schema version 1: two live homes (one
/// with a confirmed threat in its Allowed list and a Priority handling
/// table, one with a config binding and value), a removed home so
/// `nextId` exceeds every live id, and a three-app store. `GET /snapshot`
/// on an old build then `POST /restore` on a new one is the upgrade path,
/// so these bytes must load and re-export unchanged.
const FLEET_V1: &str = include_str!("fleet_snapshot_v1.json");

#[test]
fn snapshot_format_is_pinned_by_a_fixture() {
    let fleet = Fleet::restore(FleetSnapshot::from_text(FLEET_V1).unwrap()).unwrap();
    assert_eq!(fleet.len(), 2);
    assert_eq!(fleet.snapshot().unwrap().to_text(), FLEET_V1);
    // The streamed encoder writes what the document's `Json` tree prints:
    // sorted keys, compact.
    assert_eq!(Json::parse(FLEET_V1).unwrap().to_text(), FLEET_V1);
}

#[test]
fn garbage_bytes_are_parse_errors_not_panics() {
    let corpora: &[&str] = &[
        "",
        "not json at all",
        "{",
        "null",
        "[1,2,3]",
        "{}",
        r#"{"version":1}"#,
        r#"{"version":1,"kind":"fleet"}"#,
        r#"{"version":1,"kind":"fleet","payload":{}}"#,
        r#"{"version":1,"kind":"fleet","payload":{"shards":0,"nextId":0,"store":{"config":{},"apps":[]},"homes":[]}}"#,
        r#"{"version":1,"kind":"home","payload":{}}"#,
        "\u{0}\u{1}\u{2}",
    ];
    for text in corpora {
        assert!(
            matches!(FleetSnapshot::from_text(text), Err(HgError::Snapshot(_))),
            "fleet parse of {text:?} must be a typed error"
        );
        assert!(
            matches!(home_from_text(text), Err(HgError::Snapshot(_))),
            "home parse of {text:?} must be a typed error"
        );
    }
}

#[test]
fn truncated_snapshots_are_parse_errors() {
    let fleet = Fleet::new(RuleStore::shared());
    let id = fleet.create_home().unwrap();
    fleet.install_app(id, ON_APP, "OnApp", None).unwrap();
    let text = fleet.snapshot().unwrap().to_text();
    // Truncation at every eighth byte: all prefixes must fail cleanly.
    for cut in (0..text.len() - 1).step_by(8) {
        let truncated = &text[..cut];
        assert!(
            matches!(
                FleetSnapshot::from_text(truncated),
                Err(HgError::Snapshot(_))
            ),
            "truncation at byte {cut} must be a typed error"
        );
    }
}

#[test]
fn negative_numeric_fields_are_refused_not_bitcast() {
    // A forged `"nextId":-1` must not bit-cast to u64::MAX — that would
    // slip past restore's forged-id check and let the wrapped counter
    // reissue a restored home's id. Same for a negative defer window
    // (would become an effectively permanent deferral) and home ids.
    let fleet = Fleet::new(RuleStore::shared());
    fleet.create_home().unwrap();
    let text = fleet.snapshot().unwrap().to_text();

    for (field, forged) in [
        ("\"nextId\":1", "\"nextId\":-1"),
        ("\"id\":0", "\"id\":-7"),
        ("\"chainDepth\":4", "\"chainDepth\":-4"),
    ] {
        assert!(text.contains(field), "fixture lost field {field}");
        let doc = text.replacen(field, forged, 1);
        match FleetSnapshot::from_text(&doc) {
            Err(HgError::Snapshot(detail)) => {
                assert!(detail.contains("negative"), "{detail}")
            }
            other => panic!("forged {forged} must be refused, got {other:?}"),
        }
    }

    // A home listed twice would restore over itself; the document is
    // refused instead.
    let mut twice = fleet.snapshot().unwrap();
    twice.homes.push(twice.homes[0].clone());
    match FleetSnapshot::from_text(&twice.to_text()) {
        Err(HgError::Snapshot(detail)) => assert!(detail.contains("duplicate home id"), "{detail}"),
        other => panic!("a home listed twice must be refused, got {other:?}"),
    }

    // Handling-table windows decode through the same guard.
    let home = fleet.export_home(fleet.home_ids()[0]).unwrap();
    let home_text = home_to_text(&home);
    assert!(home_text.contains("\"windowMs\":5000"), "{home_text}");
    let forged = home_text.replacen("\"windowMs\":5000", "\"windowMs\":-1", 1);
    assert!(matches!(
        home_from_text(&forged),
        Err(HgError::Snapshot(detail)) if detail.contains("negative")
    ));
}

#[test]
fn shard_counts_above_the_ceiling_are_refused_at_decode() {
    // A restored fleet allocates one lock per shard and a server one
    // worker thread per shard, so a forged count is refused while the
    // document is decoded. Decode only: nothing here restores or serves
    // a large count.
    let fleet = Fleet::builder(RuleStore::shared()).shards(2).build();
    let text = fleet.snapshot().unwrap().to_text();
    assert!(text.contains("\"shards\":2"), "{text}");
    let at = |n: usize| text.replacen("\"shards\":2", &format!("\"shards\":{n}"), 1);

    let ceiling = FleetSnapshot::from_text(&at(MAX_SHARDS)).unwrap();
    assert_eq!(ceiling.shards, MAX_SHARDS);
    for forged in [MAX_SHARDS + 1, 1_000_000] {
        match FleetSnapshot::from_text(&at(forged)) {
            Err(HgError::Snapshot(detail)) => {
                assert!(
                    detail.contains(&format!("shard count {forged}")),
                    "{detail}"
                )
            }
            other => panic!("{forged} shards must be refused, got {other:?}"),
        }
    }
}

#[test]
fn store_entries_need_an_analysis_and_a_parsable_rule_file() {
    // A store app is restored as one record, its analysis, with the rules
    // parsed from the entry's rule file: an entry missing either refuses
    // the whole snapshot.
    let fleet = Fleet::new(RuleStore::shared());
    let id = fleet.create_home().unwrap();
    fleet.install_app(id, ON_APP, "OnApp", None).unwrap();
    let text = fleet.snapshot().unwrap().to_text();

    let start = text.find("\"analysis\":{").expect("store entry analysis");
    let end = start + text[start..].find(",\"fingerprints\":").unwrap();
    let no_analysis = format!("{}\"analysis\":null{}", &text[..start], &text[end..]);
    let corrupt_rules = text.replacen("\"ruleFile\":\"", "\"ruleFile\":\"x", 1);
    assert_ne!(corrupt_rules, text);
    for doc in [no_analysis, corrupt_rules] {
        match FleetSnapshot::from_text(&doc) {
            Err(HgError::Snapshot(detail)) => assert!(detail.contains("OnApp"), "{detail}"),
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }
}

#[test]
fn wrong_version_and_kind_are_refused() {
    let fleet = Fleet::new(RuleStore::shared());
    let text = fleet.snapshot().unwrap().to_text();

    let future = text.replacen("\"version\":1", "\"version\":999", 1);
    match FleetSnapshot::from_text(&future) {
        Err(HgError::Snapshot(detail)) => assert!(detail.contains("999"), "{detail}"),
        other => panic!("expected Snapshot error, got {other:?}"),
    }

    // A fleet document is not a home document, even though both parse.
    match home_from_text(&text) {
        Err(HgError::Snapshot(detail)) => assert!(detail.contains("fleet"), "{detail}"),
        other => panic!("expected Snapshot error, got {other:?}"),
    }

    // An older build's journal checkpoint held the same payload under a
    // `fleet` key, at its own format version 3. It is refused by its kind.
    let payload = text
        .strip_prefix("{\"kind\":\"fleet\",\"payload\":")
        .and_then(|rest| rest.strip_suffix(",\"version\":1}"))
        .unwrap();
    let old = format!(
        "{{\"fleet\":{payload},\"kind\":\"journal-checkpoint\",\"offset\":0,\"version\":3}}"
    );
    match FleetSnapshot::from_text(&old) {
        Err(HgError::Snapshot(detail)) => {
            assert!(detail.contains("kind `journal-checkpoint`"), "{detail}")
        }
        other => panic!("expected Snapshot error, got {other:?}"),
    }
}

#[test]
fn rich_session_state_round_trips_field_for_field() {
    use hg_config::ConfigInfo;
    use hg_service::PolicyTable;
    use homeguard_core::Home;

    // A session exercising every serialized field: modes, bindings, user
    // values, an Allowed threat (with solver witness), Priority ranks.
    let store = RuleStore::shared();
    let mut home = Home::builder(store.clone())
        .modes(["Day", "Night"])
        .chain_depth(3)
        .build();
    let cfg = ConfigInfo::new("OnApp")
        .bind_device("m", "motion-1")
        .bind_device("lamp", "lamp-1");
    home.install_app(ON_APP, "OnApp", Some(&cfg)).unwrap();
    let cfg2 = ConfigInfo::new("OffApp")
        .bind_device("m", "motion-1")
        .bind_device("lamp", "lamp-1");
    home.install_app_forced(OFF_APP, "OffApp", Some(&cfg2))
        .unwrap();
    home.set_handling_policy(PolicyTable::default().prioritize([
        hg_rules::rule::RuleId::new("OnApp", 0),
        hg_rules::rule::RuleId::new("OffApp", 0),
    ]));
    assert_eq!(home.allowed().len(), 1);

    let text = home_to_text(&home.export_state());
    let state = home_from_text(&text).unwrap();
    let mut revived = Home::restore_state(store, state);

    assert_eq!(revived.modes(), home.modes());
    assert_eq!(revived.installed_apps(), home.installed_apps());
    assert_eq!(
        revived
            .installed_rules()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>(),
        home.installed_rules()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(revived.allowed(), home.allowed(), "witnesses included");
    assert_eq!(revived.handling_policy(), home.handling_policy());
    assert_eq!(
        revived.mediation_index().len(),
        home.mediation_index().len()
    );
    // A second export of the revived session is byte-identical: the
    // serialization is a fixed point, not an approximation.
    assert_eq!(home_to_text(&revived.export_state()), text);
}

#[test]
fn verdict_cache_is_never_serialized_and_restores_empty() {
    // Warm the fleet-shared verdict cache with real repeated-install
    // traffic, then snapshot. The cache is runtime state: it must leave no
    // trace in the document (the snapshot of a hot cache is byte-identical
    // to the snapshot after dropping it), and a restored fleet starts with
    // an empty cache that refills from live traffic.
    let fleet = Fleet::new(RuleStore::shared());
    let ids: Vec<_> = (0..6).map(|_| fleet.create_home().unwrap()).collect();
    fleet.install_many(&ids, ON_APP, "OnApp", None).unwrap();
    for &id in &ids {
        fleet
            .install_app_forced(id, OFF_APP, "OffApp", None)
            .unwrap();
    }
    let verdicts = fleet.store().verdict_cache();
    assert!(
        !verdicts.is_empty() && verdicts.stats().hits > 0,
        "the grid must actually warm the cache: {:?}",
        verdicts.stats()
    );

    let hot = fleet.snapshot().unwrap().to_text();
    verdicts.clear();
    let cold = fleet.snapshot().unwrap().to_text();
    assert_eq!(hot, cold, "cache state leaked into the snapshot");
    assert!(
        !hot.contains("verdict"),
        "no cache vocabulary may appear in the document"
    );

    let restored = Fleet::restore(FleetSnapshot::from_text(&hot).unwrap()).unwrap();
    let restored_cache = restored.store().verdict_cache();
    assert!(restored_cache.is_empty(), "restored cache must start cold");
    assert_eq!(restored_cache.stats().hits, 0);

    // ...and refills from live traffic: a fresh home repeating the same
    // installs is served by new cache entries, with identical verdicts.
    let fresh = restored.create_home().unwrap();
    restored.install_app(fresh, ON_APP, "OnApp", None).unwrap();
    let report = restored
        .install_app(fresh, OFF_APP, "OffApp", None)
        .unwrap();
    assert!(!report.is_clean());
    assert!(!restored_cache.is_empty());
}
