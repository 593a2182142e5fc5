//! Candidate indexing for incremental detection.
//!
//! The paper's action analysis (the M_AR/M_GC maps, §VI-A1) runs as a cheap
//! per-pair filter inside [`Detector::detect_pair`]: most rule pairs share
//! no actuator, no goal property and no trigger/condition variable, so they
//! are rejected before any constraint solving. For a store serving many
//! homes that per-pair scan is still O(installed) work per new rule. This
//! module lifts the same filter into a persistent *candidate index*: every
//! installed rule is posted under its interaction keys, and a new rule only
//! visits the rules it collides with.
//!
//! The index is a strict over-approximation of the per-pair filters — a
//! pair the index prunes can never produce a threat (the differential test
//! in `tests/differential.rs` asserts exactly that over the whole corpus) —
//! so indexed incremental detection reports the identical threat set while
//! skipping most pair visits.

use crate::engine::{action_kind, direct_effects, Detector};
use crate::overlap::Unification;
use hg_capability::domains::EnvProperty;
use hg_rules::constraint::Formula;
use hg_rules::rule::{ActionSubject, Rule};
use hg_rules::varid::{DeviceRef, VarId};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// A rule prepared for repeated detection: unified once against the home's
/// device-resolution policy, with its interaction facets precomputed.
///
/// Preparing once per installed rule (instead of re-unifying on every pair
/// visit, as the naive pipeline does) is what makes solver sessions
/// reusable across candidates.
#[derive(Debug, Clone)]
pub struct PreparedRule {
    /// The rule as extracted (pre-unification); Goal Conflict analysis and
    /// user-facing slot names need this form.
    pub orig: Rule,
    /// The rule with every device slot resolved per the home's unification.
    pub unified: Rule,
    pub(crate) facets: Facets,
    /// 128-bit content fingerprint of `(orig, unified)` — one component
    /// of a [`VerdictCache`](crate::VerdictCache) pair key. Everything a
    /// pair verdict reads from this rule (formulas, actions, identity,
    /// how its slots resolved) is folded in, so equal fingerprints mean
    /// the rule contributes identically to any pair it joins.
    fingerprint: u128,
    /// The [`VarId::UserInput`] variables the unified rule's formulas and
    /// action parameters reference — the only configuration the overlap
    /// solver can substitute for this rule, and therefore the only
    /// configuration a pair key needs to fold in.
    user_inputs: BTreeSet<VarId>,
    /// The unified rule's [`Rule::situation`] conjunction, built once at
    /// preparation instead of re-cloned on every pair visit (the
    /// Actuator-Race overlap solve reads it for every candidate pair).
    situation: Formula,
}

impl PreparedRule {
    /// Unifies `rule` and computes its interaction facets.
    pub fn prepare(rule: &Rule, unification: &Unification) -> PreparedRule {
        let unified = unification.unify_rule(rule);
        let facets = Facets::of(rule, &unified);
        let fingerprint = crate::verdict_cache::fingerprint128(|h| {
            rule.hash(h);
            unified.hash(h);
        });
        let mut user_inputs = BTreeSet::new();
        collect_user_inputs(&unified, &mut user_inputs);
        let situation = unified.situation();
        PreparedRule {
            orig: rule.clone(),
            unified,
            facets,
            fingerprint,
            user_inputs,
            situation,
        }
    }

    /// The unified rule's situation conjunction (trigger constraint ∧
    /// condition), precomputed at preparation.
    pub fn situation(&self) -> &Formula {
        &self.situation
    }

    /// The rule's content fingerprint (see the field docs).
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// The user-input variables the rule's solver-visible formulas
    /// reference (sorted).
    pub fn user_inputs(&self) -> impl Iterator<Item = &VarId> {
        self.user_inputs.iter()
    }

    /// Canonical identities of the actuators the rule commands — the index
    /// keys runtime mediation points are compiled against (AR/SD/LT).
    pub fn actuator_keys(&self) -> impl Iterator<Item = &str> {
        self.facets.actuators.iter().map(String::as_str)
    }

    /// Environment properties the rule's actions can move (GC).
    pub fn goal_properties(&self) -> impl Iterator<Item = EnvProperty> + '_ {
        self.facets.goal_props.iter().copied()
    }

    /// World variables the rule's actions write (CT/EC/DC source side).
    pub fn written_vars(&self) -> impl Iterator<Item = &VarId> {
        self.facets.writes.iter()
    }

    /// World variables the rule observes (trigger + condition variables).
    pub fn read_vars(&self) -> impl Iterator<Item = &VarId> {
        self.facets.reads.iter()
    }

    /// The canonical variable the rule's trigger observes, post-unification.
    pub fn trigger_var(&self) -> Option<VarId> {
        self.unified.trigger.observed_var()
    }
}

/// The interaction keys of one rule, split by the role they play in a pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct Facets {
    /// Canonical identities of the actuators the rule commands (Actuator
    /// Race, and through it Self Disabling / Loop Triggering).
    pub actuators: BTreeSet<String>,
    /// Environment properties the rule's actions can move (Goal Conflict).
    pub goal_props: BTreeSet<EnvProperty>,
    /// World variables the rule's actions write — directly through command
    /// effects, or physically through the goal-effect map (Covert
    /// Triggering and Enabling/Disabling Condition, source side).
    pub writes: BTreeSet<VarId>,
    /// World variables the rule observes: its trigger variable and its
    /// condition variables (CT/EC/DC, target side).
    pub reads: BTreeSet<VarId>,
}

impl Facets {
    fn of(orig: &Rule, unified: &Rule) -> Facets {
        let mut f = Facets::default();
        for action in unified.actuations() {
            f.actuators.insert(actuator_key(&action.subject));
            for (var, _) in direct_effects(action) {
                f.writes.insert(var);
            }
        }
        // Goal effects are keyed on the original (pre-unification) subject,
        // whose input declaration carries the classified device kind.
        for action in orig.actuations() {
            if let Some(kind) = action_kind(action) {
                for fx in kind.goal_effects() {
                    if fx.command == action.command {
                        f.goal_props.insert(fx.property);
                        f.writes.insert(VarId::env(fx.property.name()));
                    }
                }
            }
        }
        if let Some(var) = unified.trigger.observed_var() {
            f.reads.insert(var);
        }
        f.reads.extend(unified.condition.predicate.variables());
        f
    }
}

/// Collects every [`VarId::UserInput`] the overlap solver could substitute
/// while deciding a pair involving `unified`: trigger-constraint and
/// condition variables (everything [`Rule::situation`] conjoins) plus
/// action parameter terms (Covert-Triggering effect formulas embed them).
fn collect_user_inputs(unified: &Rule, out: &mut BTreeSet<VarId>) {
    let mut vars = unified.situation().variables();
    for action in unified.actuations() {
        for param in &action.params {
            param.collect_vars(&mut vars);
        }
    }
    out.extend(
        vars.into_iter()
            .filter(|v| matches!(v, VarId::UserInput { .. })),
    );
}

/// The canonical index identity of an actuation subject: the bound device
/// id once unified, a `slot:` key for unresolved slots, `@mode` for the
/// virtual location-mode actuator. Mediation points (`hg-runtime`) and the
/// candidate index share this keying.
pub fn actuator_key(subject: &ActionSubject) -> String {
    match subject {
        ActionSubject::Device(DeviceRef::Bound { device_id }) => device_id.clone(),
        ActionSubject::Device(DeviceRef::Unbound { app, input, .. }) => {
            format!("slot:{app}/{input}")
        }
        _ => "@mode".to_string(),
    }
}

/// Postings from interaction keys to rule slots.
///
/// A pair `(new, old)` is a candidate iff at least one of:
///
/// * they command a common actuator (AR, SD, LT);
/// * their actions move a common environment property (GC);
/// * one's writes intersect the other's reads, in either direction
///   (CT, EC, DC).
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    by_actuator: BTreeMap<String, Vec<usize>>,
    by_goal_prop: BTreeMap<EnvProperty, Vec<usize>>,
    by_write: BTreeMap<VarId, Vec<usize>>,
    by_read: BTreeMap<VarId, Vec<usize>>,
    len: usize,
}

impl CandidateIndex {
    /// An empty index.
    pub fn new() -> CandidateIndex {
        CandidateIndex::default()
    }

    /// Number of rules posted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rule is posted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Posts `rule` under slot `id`.
    pub fn insert(&mut self, id: usize, rule: &PreparedRule) {
        let f = &rule.facets;
        for key in &f.actuators {
            self.by_actuator.entry(key.clone()).or_default().push(id);
        }
        for prop in &f.goal_props {
            self.by_goal_prop.entry(*prop).or_default().push(id);
        }
        for var in &f.writes {
            self.by_write.entry(var.clone()).or_default().push(id);
        }
        for var in &f.reads {
            self.by_read.entry(var.clone()).or_default().push(id);
        }
        self.len += 1;
    }

    /// Unposts `rule` from slot `id` — the retraction half of the index,
    /// what app uninstall and upgrade are built on. The caller must pass
    /// the same prepared rule the slot was [`insert`](Self::insert)ed
    /// under, so every posting is found and removed.
    pub fn remove(&mut self, id: usize, rule: &PreparedRule) {
        let f = &rule.facets;
        for key in &f.actuators {
            unpost(&mut self.by_actuator, key, id);
        }
        for prop in &f.goal_props {
            unpost(&mut self.by_goal_prop, prop, id);
        }
        for var in &f.writes {
            unpost(&mut self.by_write, var, id);
        }
        for var in &f.reads {
            unpost(&mut self.by_read, var, id);
        }
        self.len = self.len.saturating_sub(1);
    }

    /// The slots of every posted rule that can possibly interact with
    /// `rule`, sorted and deduplicated.
    pub fn candidates(&self, rule: &PreparedRule) -> Vec<usize> {
        let mut out = Vec::new();
        self.candidates_into(rule, &mut out);
        out
    }

    /// [`candidates`](Self::candidates) into a caller-owned buffer, so a
    /// sweep over many new rules reuses one allocation (`out` is cleared
    /// first; the result is sorted and deduplicated as before).
    pub fn candidates_into(&self, rule: &PreparedRule, out: &mut Vec<usize>) {
        out.clear();
        let f = &rule.facets;
        for key in &f.actuators {
            if let Some(ids) = self.by_actuator.get(key) {
                out.extend_from_slice(ids);
            }
        }
        for prop in &f.goal_props {
            if let Some(ids) = self.by_goal_prop.get(prop) {
                out.extend_from_slice(ids);
            }
        }
        // New writes can fire or flip posted rules...
        for var in &f.writes {
            if let Some(ids) = self.by_read.get(var) {
                out.extend_from_slice(ids);
            }
        }
        // ...and posted rules' writes can fire or flip the new rule.
        for var in &f.reads {
            if let Some(ids) = self.by_write.get(var) {
                out.extend_from_slice(ids);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Drops all postings.
    pub fn clear(&mut self) {
        self.by_actuator.clear();
        self.by_goal_prop.clear();
        self.by_write.clear();
        self.by_read.clear();
        self.len = 0;
    }
}

/// Removes one slot id from a posting list, dropping the key when its list
/// empties (so stale keys cannot accumulate over install/uninstall churn).
fn unpost<K: Ord + Clone>(map: &mut BTreeMap<K, Vec<usize>>, key: &K, id: usize) {
    if let Some(ids) = map.get_mut(key) {
        ids.retain(|&posted| posted != id);
        if ids.is_empty() {
            map.remove(key);
        }
    }
}

/// Convenience: prepares a rule with the detector's unification.
pub(crate) fn prepare_with(detector: &Detector, rule: &Rule) -> PreparedRule {
    PreparedRule::prepare(rule, &detector.unification)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_capability::device_kind::DeviceKind;
    use hg_rules::constraint::Formula;
    use hg_rules::rule::{Action, Condition, RuleId, Trigger};
    use hg_rules::value::Value;

    fn slot(app: &str, input: &str, cap: &str, kind: DeviceKind) -> DeviceRef {
        DeviceRef::Unbound {
            app: app.into(),
            input: input.into(),
            capability: cap.into(),
            kind,
        }
    }

    fn lamp_rule(app: &str, command: &str) -> Rule {
        let m = slot(app, "m", "motionSensor", DeviceKind::Unknown);
        let lamp = slot(app, "lamp", "switch", DeviceKind::Light);
        Rule {
            id: RuleId::new(app, 0),
            trigger: Trigger::DeviceEvent {
                subject: m,
                attribute: "motion".into(),
                constraint: None,
            },
            condition: Condition {
                data_constraints: vec![],
                predicate: Formula::True,
            },
            actions: vec![Action::device(lamp, command)],
        }
    }

    fn siren_rule(app: &str) -> Rule {
        let d = slot(app, "d", "contactSensor", DeviceKind::Unknown);
        let siren = slot(app, "siren", "alarm", DeviceKind::Siren);
        Rule {
            id: RuleId::new(app, 0),
            trigger: Trigger::DeviceEvent {
                subject: d,
                attribute: "contact".into(),
                constraint: None,
            },
            condition: Condition {
                data_constraints: vec![],
                predicate: Formula::True,
            },
            actions: vec![Action::device(siren, "siren")],
        }
    }

    #[test]
    fn facets_capture_actuators_and_reads() {
        let p = PreparedRule::prepare(&lamp_rule("A", "on"), &Unification::ByType);
        assert!(!p.facets.actuators.is_empty());
        assert!(!p.facets.reads.is_empty(), "trigger var must be read");
        assert!(
            p.facets
                .writes
                .iter()
                .any(|v| matches!(v, VarId::DeviceAttr { .. })),
            "`on` writes the switch attribute: {:?}",
            p.facets.writes
        );
    }

    #[test]
    fn colliding_rules_are_candidates() {
        let u = Unification::ByType;
        let a = PreparedRule::prepare(&lamp_rule("A", "on"), &u);
        let b = PreparedRule::prepare(&lamp_rule("B", "off"), &u);
        let mut index = CandidateIndex::new();
        index.insert(0, &a);
        assert_eq!(index.candidates(&b), vec![0]);
    }

    #[test]
    fn unrelated_rules_are_pruned() {
        let u = Unification::ByType;
        let a = PreparedRule::prepare(&lamp_rule("A", "on"), &u);
        let b = PreparedRule::prepare(&siren_rule("B"), &u);
        let mut index = CandidateIndex::new();
        index.insert(0, &a);
        assert!(
            index.candidates(&b).is_empty(),
            "lamp and siren share nothing"
        );
    }

    #[test]
    fn mode_writers_reach_mode_readers() {
        let writer = Rule {
            id: RuleId::new("W", 0),
            trigger: Trigger::AppTouch,
            condition: Condition {
                data_constraints: vec![],
                predicate: Formula::True,
            },
            actions: vec![Action {
                subject: ActionSubject::LocationMode,
                command: "setLocationMode".into(),
                params: vec![hg_rules::constraint::Term::sym("Home")],
                when_secs: 0,
                period_secs: 0,
            }],
        };
        let reader = Rule {
            id: RuleId::new("R", 0),
            trigger: Trigger::ModeChange { constraint: None },
            condition: Condition {
                data_constraints: vec![],
                predicate: Formula::var_eq(VarId::Mode, Value::sym("Home")),
            },
            actions: vec![Action::device(
                slot("R", "door", "lock", DeviceKind::Lock),
                "unlock",
            )],
        };
        let u = Unification::ByType;
        let mut index = CandidateIndex::new();
        index.insert(0, &PreparedRule::prepare(&reader, &u));
        let cands = index.candidates(&PreparedRule::prepare(&writer, &u));
        assert_eq!(
            cands,
            vec![0],
            "mode write must collide with mode trigger/condition"
        );
    }

    #[test]
    fn remove_unposts_every_facet() {
        let u = Unification::ByType;
        let a = PreparedRule::prepare(&lamp_rule("A", "on"), &u);
        let b = PreparedRule::prepare(&lamp_rule("B", "off"), &u);
        let mut index = CandidateIndex::new();
        index.insert(0, &a);
        index.insert(1, &b);
        assert_eq!(index.candidates(&b), vec![0, 1]);
        index.remove(0, &a);
        assert_eq!(index.len(), 1);
        assert_eq!(
            index.candidates(&b),
            vec![1],
            "slot 0 must vanish from every posting"
        );
        index.remove(1, &b);
        assert!(index.is_empty());
        assert!(index.candidates(&a).is_empty());
    }

    #[test]
    fn clear_empties_postings() {
        let u = Unification::ByType;
        let a = PreparedRule::prepare(&lamp_rule("A", "on"), &u);
        let mut index = CandidateIndex::new();
        index.insert(0, &a);
        index.clear();
        assert!(index.is_empty());
        assert!(index.candidates(&a).is_empty());
    }
}
