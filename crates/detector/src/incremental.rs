//! The incremental detection engine: installed rules + candidate index.
//!
//! The naive pipeline re-unifies every installed rule and brute-forces
//! every (new, installed) pair on each install. [`DetectionEngine`] keeps
//! the per-home detection state *persistent*: installed rules are prepared
//! (unified + faceted) once, posted into a [`CandidateIndex`], and a new
//! rule only visits the index-colliding subset. `check` reports the exact
//! same threats as `check_exhaustive` — the index is a proven
//! over-approximation of the per-pair action-analysis filters — while
//! skipping most pair visits, which is what lets one process serve many
//! homes against a large installed population.
//!
//! Since the fleet redesign the engine also supports **retraction**
//! ([`remove_rules`](DetectionEngine::remove_rules) /
//! [`remove_app`](DetectionEngine::remove_app)): removed rules are
//! unposted from the index and their slots tombstoned, so uninstall and
//! upgrade are as incremental as install. The slot vector self-compacts
//! once tombstones dominate, keeping long install/uninstall churn from
//! growing the per-home state without bound.

use crate::engine::Detector;
use crate::index::{CandidateIndex, PreparedRule};
use crate::report::{DetectStats, Threat};
use hg_rules::rule::{Rule, RuleId};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-home incremental CAI detection state.
#[derive(Debug, Clone, Default)]
pub struct DetectionEngine {
    detector: Detector,
    /// Slot-addressed installed rules; `None` marks a retracted slot whose
    /// postings have been removed from the index. A prepared form depends
    /// only on its rule and the unification, so homes that unify alike
    /// can share one `Arc` per rule (the rule store hands out by-type
    /// forms this way).
    installed: Vec<Option<Arc<PreparedRule>>>,
    index: CandidateIndex,
    /// Number of live (non-tombstone) slots.
    live: usize,
}

impl DetectionEngine {
    /// An engine with the given detector (unification policy + solver
    /// context) and no installed rules.
    pub fn new(detector: Detector) -> DetectionEngine {
        DetectionEngine {
            detector,
            installed: Vec::new(),
            index: CandidateIndex::new(),
            live: 0,
        }
    }

    /// The configured detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Replaces the detector. When the unification changes (device
    /// bindings recorded after installation change how slots resolve),
    /// every installed rule is re-prepared and re-posted; otherwise the
    /// prepared forms and postings stay, because a form depends on nothing
    /// else the detector carries.
    pub fn reconfigure(&mut self, detector: Detector) {
        let rebind = detector.unification != self.detector.unification;
        self.detector = detector;
        if !rebind {
            return;
        }
        let rules: Vec<Rule> = self
            .installed
            .drain(..)
            .flatten()
            .map(|p| p.orig.clone())
            .collect();
        self.index.clear();
        self.live = 0;
        self.install_prepared(self.prepare(&rules));
    }

    /// Prepares `rules` under this engine's unification.
    pub fn prepare(&self, rules: &[Rule]) -> Vec<Arc<PreparedRule>> {
        rules
            .iter()
            .map(|r| Arc::new(PreparedRule::prepare(r, &self.detector.unification)))
            .collect()
    }

    /// Prepares and posts one rule as installed.
    pub fn install_rule(&mut self, rule: &Rule) {
        self.install_prepared(self.prepare(std::slice::from_ref(rule)));
    }

    /// Prepares and posts a batch of rules as installed.
    pub fn install_rules<'a>(&mut self, rules: impl IntoIterator<Item = &'a Rule>) {
        for rule in rules {
            self.install_rule(rule);
        }
    }

    /// Posts already-prepared rules as installed, in order. Each form must
    /// be what [`PreparedRule::prepare`] returns for its rule under this
    /// engine's unification.
    pub fn install_prepared(&mut self, forms: impl IntoIterator<Item = Arc<PreparedRule>>) {
        for prepared in forms {
            self.index.insert(self.installed.len(), &prepared);
            self.installed.push(Some(prepared));
            self.live += 1;
        }
    }

    /// Retracts every installed rule whose identity is in `ids`: postings
    /// are removed from the candidate index and the slots tombstoned.
    /// Returns how many rules were removed.
    pub fn remove_rules(&mut self, ids: &[RuleId]) -> usize {
        // Hashed membership: the retraction loop visits every installed
        // slot, so an `ids.contains` scan would make bulk retraction
        // O(installed × ids).
        let ids: HashSet<&RuleId> = ids.iter().collect();
        self.retract(|rule| ids.contains(&rule.id)).len()
    }

    /// Retracts every installed rule belonging to `app` (the uninstall /
    /// upgrade entry point), returning the removed rule identities in
    /// install order.
    pub fn remove_app(&mut self, app: &str) -> Vec<RuleId> {
        self.retract(|rule| rule.id.app == app)
    }

    /// The one retraction loop: unpost from the index, tombstone the slot,
    /// keep the live count honest, compact when tombstones dominate.
    fn retract(&mut self, mut gone: impl FnMut(&Rule) -> bool) -> Vec<RuleId> {
        let mut removed = Vec::new();
        for slot in 0..self.installed.len() {
            let Some(prepared) = &self.installed[slot] else {
                continue;
            };
            if gone(&prepared.orig) {
                self.index.remove(slot, prepared);
                removed.push(prepared.orig.id.clone());
                self.installed[slot] = None;
                self.live -= 1;
            }
        }
        self.maybe_compact();
        removed
    }

    /// Rebuilds the slot vector and index without tombstones once dead
    /// slots dominate. Prepared forms are reused — no re-unification.
    fn maybe_compact(&mut self) {
        let dead = self.installed.len() - self.live;
        if dead <= 32 || dead <= self.live {
            return;
        }
        let survivors: Vec<Arc<PreparedRule>> = self.installed.drain(..).flatten().collect();
        self.index.clear();
        for (slot, prepared) in survivors.iter().enumerate() {
            self.index.insert(slot, prepared);
        }
        self.installed = survivors.into_iter().map(Some).collect();
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no rule is installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The installed rules in install order (original, pre-unification
    /// forms).
    pub fn installed_rules(&self) -> impl Iterator<Item = &Rule> {
        self.installed_prepared().map(|p| &p.orig)
    }

    /// The installed rules' prepared forms, in install order.
    pub fn installed_prepared(&self) -> impl Iterator<Item = &Arc<PreparedRule>> {
        self.installed.iter().flatten()
    }

    /// Indexed incremental detection: checks `new_rules` against the
    /// installed population, visiting only index-colliding pairs. Pairs
    /// internal to `new_rules` are also checked (a multi-rule app can
    /// interfere with itself).
    pub fn check(&self, new_rules: &[Rule]) -> (Vec<Threat>, DetectStats) {
        self.check_prepared(&self.prepare(new_rules), None)
    }

    /// [`check`](DetectionEngine::check) against the installed population
    /// **minus one app's rules** — upgrade staging: the new version is
    /// checked as if the old one were already retracted, without cloning
    /// or mutating the engine.
    pub fn check_excluding(
        &self,
        new_rules: &[Rule],
        exclude_app: &str,
    ) -> (Vec<Threat>, DetectStats) {
        self.check_prepared(&self.prepare(new_rules), Some(exclude_app))
    }

    /// [`check`](DetectionEngine::check) of already-prepared rules (see
    /// [`install_prepared`](DetectionEngine::install_prepared)), with an
    /// optional app whose installed rules are masked out as in
    /// [`check_excluding`](DetectionEngine::check_excluding).
    pub fn check_prepared(
        &self,
        new_rules: &[Arc<PreparedRule>],
        exclude_app: Option<&str>,
    ) -> (Vec<Threat>, DetectStats) {
        // The population an exhaustive filterless detector would visit:
        // live rules minus the masked app's.
        let population = match exclude_app {
            None => self.live,
            Some(app) => {
                self.live
                    - self
                        .installed
                        .iter()
                        .flatten()
                        .filter(|p| p.orig.id.app == app)
                        .count()
            }
        };
        let mut threats = Vec::new();
        let mut stats = DetectStats::default();
        // Scratch reused across pair visits: threats append straight into
        // the report vector and the candidate buffer keeps its allocation
        // from rule to rule — the sweep's only steady-state allocations
        // are the threats themselves.
        let mut candidates: Vec<usize> = Vec::new();
        for (i, new_rule) in new_rules.iter().enumerate() {
            self.index.candidates_into(new_rule, &mut candidates);
            let mut visited = 0usize;
            for &id in &candidates {
                // Candidates only ever name live slots: retraction unposts
                // a slot from every index key before tombstoning it.
                let Some(old) = &self.installed[id] else {
                    continue;
                };
                if exclude_app.is_some_and(|app| old.orig.id.app == app) {
                    continue;
                }
                visited += 1;
                stats.absorb(
                    self.detector
                        .detect_pair_prepared_into(new_rule, old, &mut threats),
                );
            }
            stats.pruned += (population - visited) as u64;
            // Intra-batch pairs: scan them directly — one app's rules are
            // few compared to the installed population the index exists
            // for.
            for earlier in &new_rules[..i] {
                stats.absorb(self.detector.detect_pair_prepared_into(
                    new_rule,
                    earlier,
                    &mut threats,
                ));
            }
        }
        (threats, stats)
    }

    /// Exhaustive pairwise detection of `new_rules` against the installed
    /// population (and within the batch): the ground truth the candidate
    /// index is differentially tested against.
    pub fn check_exhaustive(&self, new_rules: &[Rule]) -> (Vec<Threat>, DetectStats) {
        let prepared = self.prepare(new_rules);
        let mut threats = Vec::new();
        let mut stats = DetectStats::default();
        for (i, new_rule) in prepared.iter().enumerate() {
            for old in self.installed.iter().flatten() {
                stats.absorb(
                    self.detector
                        .detect_pair_prepared_into(new_rule, old, &mut threats),
                );
            }
            for earlier in &prepared[..i] {
                stats.absorb(self.detector.detect_pair_prepared_into(
                    new_rule,
                    earlier,
                    &mut threats,
                ));
            }
        }
        (threats, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ThreatKind;
    use hg_symexec::{extract, ExtractorConfig};

    fn rules_of(source: &str, name: &str) -> Vec<Rule> {
        extract(source, name, &ExtractorConfig::extended())
            .unwrap()
            .rules
    }

    fn on_app(name: &str) -> Vec<Rule> {
        rules_of(
            &format!(
                r#"
definition(name: "{name}")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() {{ subscribe(m, "motion.active", h) }}
def h(evt) {{ lamp.on() }}
"#
            ),
            name,
        )
    }

    fn off_app(name: &str) -> Vec<Rule> {
        rules_of(
            &format!(
                r#"
definition(name: "{name}")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() {{ subscribe(m, "motion.active", h) }}
def h(evt) {{ lamp.off() }}
"#
            ),
            name,
        )
    }

    fn leak_app(name: &str) -> Vec<Rule> {
        rules_of(
            &format!(
                r#"
definition(name: "{name}")
input "leak", "capability.waterSensor"
input "valve", "capability.valve"
def installed() {{ subscribe(leak, "water.wet", h) }}
def h(evt) {{ valve.close() }}
"#
            ),
            name,
        )
    }

    #[test]
    fn incremental_matches_exhaustive_and_finds_race() {
        let mut engine = DetectionEngine::new(Detector::store_wide());
        engine.install_rules(&on_app("OnApp"));
        let new = off_app("OffApp");
        let (indexed, _) = engine.check(&new);
        let (exhaustive, _) = engine.check_exhaustive(&new);
        assert!(indexed.iter().any(|t| t.kind == ThreatKind::ActuatorRace));
        assert_eq!(indexed.len(), exhaustive.len());
    }

    #[test]
    fn index_prunes_unrelated_rules() {
        let mut engine = DetectionEngine::new(Detector::store_wide());
        engine.install_rules(&leak_app("LeakA"));
        engine.install_rules(&on_app("OnApp"));
        let (threats, stats) = engine.check(&off_app("OffApp"));
        assert!(threats.iter().any(|t| t.kind == ThreatKind::ActuatorRace));
        assert!(stats.pruned >= 1, "the leak rule must be pruned: {stats:?}");
        assert_eq!(stats.pairs, 1, "only the lamp rule is visited");
    }

    #[test]
    fn reconfigure_rebinds_devices() {
        use crate::overlap::Unification;
        use std::collections::BTreeMap;
        let mut engine = DetectionEngine::new(Detector::store_wide());
        engine.install_rules(&on_app("OnApp"));
        // Different physical lamps: rebinding must suppress the race.
        let mut map = BTreeMap::new();
        map.insert(
            ("OnApp".to_string(), "lamp".to_string()),
            "lamp-1".to_string(),
        );
        map.insert(
            ("OnApp".to_string(), "m".to_string()),
            "motion-1".to_string(),
        );
        map.insert(
            ("OffApp".to_string(), "lamp".to_string()),
            "lamp-2".to_string(),
        );
        map.insert(
            ("OffApp".to_string(), "m".to_string()),
            "motion-1".to_string(),
        );
        engine.reconfigure(Detector {
            unification: Unification::Bindings(map),
            ..Detector::default()
        });
        let (threats, _) = engine.check(&off_app("OffApp"));
        assert!(
            !threats.iter().any(|t| t.kind == ThreatKind::ActuatorRace),
            "{threats:?}"
        );
    }

    #[test]
    fn remove_app_retracts_rules_and_postings() {
        let mut engine = DetectionEngine::new(Detector::store_wide());
        engine.install_rules(&on_app("OnApp"));
        engine.install_rules(&leak_app("LeakA"));
        assert_eq!(engine.len(), 2);

        let removed = engine.remove_app("OnApp");
        assert_eq!(removed, vec![RuleId::new("OnApp", 0)]);
        assert_eq!(engine.len(), 1);
        assert_eq!(
            engine
                .installed_rules()
                .map(|r| &r.id.app)
                .collect::<Vec<_>>(),
            vec!["LeakA"]
        );

        // The race partner is gone: a re-check of OffApp is clean, and the
        // leak rule is pruned rather than visited.
        let (threats, stats) = engine.check(&off_app("OffApp"));
        assert!(threats.is_empty(), "{threats:?}");
        assert_eq!(stats.pairs, 0);
        assert_eq!(stats.pruned, 1);

        // Removing an app that is not installed is a no-op.
        assert!(engine.remove_app("OnApp").is_empty());
        assert_eq!(engine.remove_rules(&[RuleId::new("Ghost", 0)]), 0);
    }

    #[test]
    fn retraction_matches_a_fresh_rebuild() {
        let mut engine = DetectionEngine::new(Detector::store_wide());
        engine.install_rules(&on_app("OnApp"));
        engine.install_rules(&leak_app("LeakA"));
        engine.install_rules(&off_app("OffApp"));
        engine.remove_app("LeakA");

        let mut fresh = DetectionEngine::new(Detector::store_wide());
        fresh.install_rules(&on_app("OnApp"));
        fresh.install_rules(&off_app("OffApp"));

        let probe = off_app("Probe");
        let (incremental, _) = engine.check(&probe);
        let (rebuilt, _) = fresh.check(&probe);
        assert_eq!(incremental.len(), rebuilt.len());
        for (a, b) in incremental.iter().zip(&rebuilt) {
            assert_eq!(
                (a.kind, &a.source, &a.target),
                (b.kind, &b.source, &b.target)
            );
        }
    }

    #[test]
    fn check_excluding_masks_the_old_version() {
        let mut engine = DetectionEngine::new(Detector::store_wide());
        engine.install_rules(&on_app("OnApp"));
        engine.install_rules(&leak_app("LeakA"));

        // Upgrading OnApp to an off-variant: checked against the
        // population minus OnApp's own v1, the new rules are clean.
        let v2 = off_app("OnApp");
        let (threats, stats) = engine.check_excluding(&v2, "OnApp");
        assert!(threats.is_empty(), "{threats:?}");
        assert_eq!(stats.pairs, 0);
        assert_eq!(stats.pruned, 1, "only the leak rule is in the population");

        // The mask must match actually retracting the app.
        let mut retracted = engine.clone();
        retracted.remove_app("OnApp");
        let (reference, ref_stats) = retracted.check(&v2);
        assert_eq!(threats.len(), reference.len());
        assert_eq!(stats.pruned, ref_stats.pruned);

        // Without the mask, v1 and v2 race.
        let (threats, _) = engine.check(&v2);
        assert!(threats.iter().any(|t| t.kind == ThreatKind::ActuatorRace));
    }

    #[test]
    fn heavy_churn_compacts_tombstones() {
        let mut engine = DetectionEngine::new(Detector::store_wide());
        for round in 0..60 {
            let name = format!("App{round}");
            engine.install_rules(&on_app(&name));
            if round >= 2 {
                let victim = format!("App{}", round - 2);
                assert_eq!(engine.remove_app(&victim).len(), 1);
            }
        }
        assert_eq!(engine.len(), 2, "only the last two apps survive");
        assert!(
            engine.installed.len() <= engine.live * 2 + 33,
            "tombstones must not accumulate: {} slots for {} live",
            engine.installed.len(),
            engine.live
        );
        // The survivors still race with a probe.
        let (threats, _) = engine.check(&off_app("Probe"));
        assert!(threats.iter().any(|t| t.kind == ThreatKind::ActuatorRace));
    }

    #[test]
    fn intra_batch_pairs_checked_within_one_app_set() {
        let engine = DetectionEngine::new(Detector::store_wide());
        let mut combined = on_app("OnApp");
        combined.extend(off_app("OffApp"));
        let (threats, _) = engine.check(&combined);
        assert!(threats.iter().any(|t| t.kind == ThreatKind::ActuatorRace));
    }
}
