//! Pairwise CAI threat detection (paper §VI).
//!
//! Detection is a two-stage pipeline per rule pair: cheap *candidate
//! filtering* from the action analysis maps (M_AR, M_GC), then
//! *overlapping-condition detection* with the constraint solver. Solver
//! results are reused across threat kinds exactly as Fig. 9's green dotted
//! edges describe: CT/SD/LT reuse the AR overlap result, DC reuses EC's.

use crate::index::{prepare_with, PreparedRule};
use crate::overlap::{OverlapSolver, Unification};
use crate::report::{DetectStats, Threat, ThreatKind};
use crate::verdict_cache::{fingerprint128, PairKey, VerdictCache};
use hg_capability::capability::{self, AttrEffect};
use hg_capability::contradiction::{contradiction, Contradiction};
use hg_capability::device_kind::DeviceKind;
use hg_capability::domains::{EnvProperty, Sign};
use hg_rules::constraint::{CmpOp, Formula, Term};
use hg_rules::rule::{Action, ActionSubject, Rule, Trigger};
use hg_rules::varid::{DeviceRef, VarId};
use hg_solver::Outcome;
use std::hash::Hash;
use std::sync::Arc;

/// The CAI threat detector.
///
/// A pair check is answered in one of two ways: a hit in the attached
/// [`VerdictCache`], or a fresh detection in which every overlap
/// question is a [`solve`](OverlapSolver::solve) on `solver`. Nothing
/// else decides a verdict, and no option selects another evaluator.
#[derive(Debug, Clone, Default)]
pub struct Detector {
    /// Device slot unification strategy.
    pub unification: Unification,
    /// Overlap solver (modes + collected configuration values).
    pub solver: OverlapSolver,
    /// The fleet-shared pair-verdict cache, when one is attached (the
    /// [`RuleStore`]-owned `Arc` threaded through every home's detector).
    /// `None` runs every pair fresh — the ground truth the cached path is
    /// differentially tested against.
    ///
    /// [`RuleStore`]: https://docs.rs/homeguard-core
    pub cache: Option<Arc<VerdictCache>>,
}

impl Detector {
    /// A detector for store-wide analysis (type-based unification).
    pub fn store_wide() -> Detector {
        Detector::default()
    }

    /// This detector with the fleet-shared verdict cache attached.
    pub fn with_cache(mut self, cache: Arc<VerdictCache>) -> Detector {
        self.cache = Some(cache);
        self
    }

    /// Detects all CAI threats between two rules (both directions for the
    /// directed categories).
    pub fn detect_pair(&self, r1: &Rule, r2: &Rule) -> (Vec<Threat>, DetectStats) {
        let p1 = prepare_with(self, r1);
        let p2 = prepare_with(self, r2);
        self.detect_pair_prepared(&p1, &p2)
    }

    /// Detects all CAI threats between two [`PreparedRule`]s, skipping the
    /// per-pair unification work. This is the inner loop of the incremental
    /// [`DetectionEngine`](crate::DetectionEngine): rules are prepared once
    /// per session and reused across every candidate pair.
    pub fn detect_pair_prepared(
        &self,
        p1: &PreparedRule,
        p2: &PreparedRule,
    ) -> (Vec<Threat>, DetectStats) {
        let mut threats = Vec::new();
        let stats = self.detect_pair_prepared_into(p1, p2, &mut threats);
        (threats, stats)
    }

    /// [`detect_pair_prepared`](Self::detect_pair_prepared) appending into
    /// a caller-owned buffer, so a sweep over many candidate pairs reuses
    /// one threat vector instead of allocating per pair. Consults the
    /// attached [`VerdictCache`] first: a hit replays the memoized threats
    /// and logical effort counters (marked `cache_hits = 1`) without
    /// filtering or solving; a miss computes fresh and publishes the
    /// verdict for every other home sharing the cache.
    pub fn detect_pair_prepared_into(
        &self,
        p1: &PreparedRule,
        p2: &PreparedRule,
        out: &mut Vec<Threat>,
    ) -> DetectStats {
        let Some(cache) = &self.cache else {
            return self.detect_pair_fresh(p1, p2, out);
        };
        let key = self.pair_key(p1, p2);
        if let Some((threats, stats)) = cache.lookup(&key) {
            out.extend(threats);
            return DetectStats {
                cache_hits: 1,
                ..stats
            };
        }
        let start = out.len();
        let stats = self.detect_pair_fresh(p1, p2, out);
        cache.insert(
            key,
            [&p1.orig.id.app, &p2.orig.id.app],
            out[start..].to_vec(),
            stats,
        );
        DetectStats {
            cache_misses: 1,
            ..stats
        }
    }

    /// The cache key of an ordered prepared pair: both rules' content
    /// fingerprints plus the solver context — location modes and the
    /// collected configuration values for exactly the user inputs the two
    /// rules reference. Homes differing only in configuration the pair
    /// never reads produce the same key and share the entry; any
    /// difference a verdict could observe changes it. The mode list is
    /// folded in through the solver's **pre-hashed** fingerprint
    /// ([`OverlapSolver::modes_fingerprint`]): the fields are sealed behind
    /// setters that maintain the fingerprint, so the per-pair cost is one
    /// `u128` hash instead of re-walking every mode string.
    fn pair_key(&self, p1: &PreparedRule, p2: &PreparedRule) -> PairKey {
        let ctx = fingerprint128(|h| {
            self.solver.modes_fingerprint().hash(h);
            for var in p1.user_inputs().chain(p2.user_inputs()) {
                if let VarId::UserInput { app, name } = var {
                    var.hash(h);
                    self.solver.user_value(app, name).hash(h);
                }
            }
        });
        PairKey {
            fp1: p1.fingerprint(),
            fp2: p2.fingerprint(),
            ctx,
        }
    }

    /// The uncached pair detection pipeline (candidate filtering, then
    /// overlap solving with Fig. 9's reuse edges).
    fn detect_pair_fresh(
        &self,
        p1: &PreparedRule,
        p2: &PreparedRule,
        out: &mut Vec<Threat>,
    ) -> DetectStats {
        let mut cx = PairCx {
            detector: self,
            pair: [p1, p2],
            stats: DetectStats {
                pairs: 1,
                ..Default::default()
            },
            situation_overlap: None,
            condition_overlap: None,
        };
        cx.detect_actuator_race(out);
        cx.detect_goal_conflict(out);
        let ct_12 = cx.detect_trigger_interference(0, 1, out);
        let ct_21 = cx.detect_trigger_interference(1, 0, out);
        cx.detect_self_disabling(ct_12, ct_21, out);
        cx.detect_loop_triggering(ct_12, ct_21, out);
        cx.detect_condition_interference(0, 1, out);
        cx.detect_condition_interference(1, 0, out);
        cx.stats
    }

    /// Pairwise detection over a whole rule population.
    pub fn detect_all(&self, rules: &[Rule]) -> (Vec<Threat>, DetectStats) {
        let mut threats = Vec::new();
        let mut stats = DetectStats::default();
        for i in 0..rules.len() {
            for j in (i + 1)..rules.len() {
                let (t, s) = self.detect_pair(&rules[i], &rules[j]);
                threats.extend(t);
                stats.absorb(s);
            }
        }
        (threats, stats)
    }
}

struct PairCx<'a> {
    detector: &'a Detector,
    pair: [&'a PreparedRule; 2],
    stats: DetectStats,
    /// Cached result of the merged situation solve (AR's overlap check),
    /// reused by CT/SD/LT.
    situation_overlap: Option<Outcome>,
    /// Cached conditions-only overlap (GC and the CT environment channel).
    condition_overlap: Option<Outcome>,
}

impl<'a> PairCx<'a> {
    /// The i-th rule as extracted. Returned at the pair's lifetime (not
    /// the borrow's), so detection loops can iterate rule internals while
    /// calling `&mut self` solver helpers.
    fn orig(&self, i: usize) -> &'a Rule {
        let p: &'a PreparedRule = self.pair[i];
        &p.orig
    }

    /// The i-th rule with device slots resolved.
    fn unified(&self, i: usize) -> &'a Rule {
        let p: &'a PreparedRule = self.pair[i];
        &p.unified
    }

    fn solve(&mut self, formulas: &[&Formula]) -> Outcome {
        self.stats.solves += 1;
        self.detector.solver.solve(formulas)
    }

    /// The overlap of both rules' full situations (trigger constraints plus
    /// conditions), computed once and reused. The situation conjunctions
    /// themselves were precomputed at preparation — no per-pair formula
    /// cloning.
    fn situation_overlap(&mut self) -> Outcome {
        if let Some(o) = self.situation_overlap.clone() {
            self.stats.reused += 1;
            return o;
        }
        let p1: &'a PreparedRule = self.pair[0];
        let p2: &'a PreparedRule = self.pair[1];
        let outcome = self.solve(&[p1.situation(), p2.situation()]);
        self.situation_overlap = Some(outcome.clone());
        outcome
    }

    /// Conditions-only overlap (no trigger constraints): Table I requires
    /// `C1 ∩ C2 ≠ ∅` for GC and the trigger-interference kinds. Cached.
    fn condition_overlap(&mut self) -> Outcome {
        if let Some(o) = self.condition_overlap.clone() {
            self.stats.reused += 1;
            return o;
        }
        let c1 = &self.unified(0).condition.predicate;
        let c2 = &self.unified(1).condition.predicate;
        let outcome = self.solve(&[c1, c2]);
        self.condition_overlap = Some(outcome.clone());
        outcome
    }

    // ----- Action-Interference threats (§VI-A) -------------------------------

    fn detect_actuator_race(&mut self, out: &mut Vec<Threat>) {
        let r1 = self.unified(0);
        let r2 = self.unified(1);
        let mut found = false;
        for (i1, a1) in r1.actuations().enumerate() {
            for a2 in r2.actuations() {
                if found {
                    break;
                }
                let Some(conflict) = actions_contradict(a1, a2) else {
                    continue;
                };
                // AR requires the rules to take effect together: identical
                // trigger events, or a delayed command that can land while
                // the other rule fires.
                let coincide = triggers_coincide(&r1.trigger, &r2.trigger)
                    || a1.when_secs > 0
                    || a2.when_secs > 0;
                if !coincide {
                    continue;
                }
                self.stats.candidates += 1;
                let outcome = self.situation_overlap();
                if let Outcome::Sat(witness) = outcome {
                    found = true;
                    out.push(Threat {
                        kind: ThreatKind::ActuatorRace,
                        source: r1.id.clone(),
                        target: r2.id.clone(),
                        witness: Some(witness),
                        actuator: Some(action_subject_name(self.orig(0), i1)),
                        property: None,
                        note: format!(
                            "`{}` and `{}` race on the same actuator ({})",
                            a1.command,
                            a2.command,
                            describe_conflict(conflict)
                        ),
                    });
                }
            }
        }
    }

    fn detect_goal_conflict(&mut self, out: &mut Vec<Threat>) {
        let mut reported: Vec<EnvProperty> = Vec::new();
        // Unified subjects ride along with the original actions: the
        // unified rule's action list is the original's mapped through
        // `Unification::resolve`, so no per-pair re-resolution (and no
        // synthetic-id allocation) is needed.
        for (a1, u1) in self.orig(0).actuations().zip(self.unified(0).actuations()) {
            for (a2, u2) in self.orig(1).actuations().zip(self.unified(1).actuations()) {
                // Same-actuator conflicts are Actuator Races, not GCs.
                if let (Some(d1), Some(d2)) = (u1.subject.device(), u2.subject.device()) {
                    if d1.same_device(d2) {
                        continue;
                    }
                }
                let (Some(k1), Some(k2)) = (action_kind(a1), action_kind(a2)) else {
                    continue;
                };
                for prop in EnvProperty::ALL {
                    if reported.contains(&prop) {
                        continue;
                    }
                    let (Some(s1), Some(s2)) = (
                        k1.effect_on(&a1.command, prop),
                        k2.effect_on(&a2.command, prop),
                    ) else {
                        continue;
                    };
                    if s1 != s2.opposite() {
                        continue;
                    }
                    self.stats.candidates += 1;
                    if let Outcome::Sat(witness) = self.condition_overlap() {
                        reported.push(prop);
                        out.push(Threat {
                            kind: ThreatKind::GoalConflict,
                            source: self.unified(0).id.clone(),
                            target: self.unified(1).id.clone(),
                            witness: Some(witness),
                            actuator: None,
                            property: Some(prop),
                            note: format!(
                                "`{}` on {} ({s1}{prop}) conflicts with `{}` on {} ({s2}{prop})",
                                a1.command,
                                k1.name(),
                                a2.command,
                                k2.name(),
                            ),
                        });
                    }
                }
            }
        }
    }

    // ----- Trigger-Interference threats (§VI-B) -------------------------------

    /// Detects CT from rule `src` to rule `dst`; returns whether a CT pair
    /// was established (used by SD/LT).
    fn detect_trigger_interference(
        &mut self,
        src: usize,
        dst: usize,
        out: &mut Vec<Threat>,
    ) -> bool {
        let src_unified = self.unified(src);
        let src_orig = self.orig(src);
        let dst_unified = self.unified(dst);
        let Some(t2_var) = dst_unified.trigger.observed_var() else {
            return false;
        };
        let t2_constraint = dst_unified.trigger.constraint();
        let mut found = false;
        for (a_unified, a_orig) in src_unified.actuations().zip(src_orig.actuations()) {
            if found {
                break;
            }
            // Channel 1: the command directly writes the observed variable.
            for (var, effect) in direct_effects(a_unified) {
                if var != t2_var {
                    continue;
                }
                self.stats.candidates += 1;
                // Effect value must satisfy T2's constraint together with
                // both conditions. Reuses the AR situation solve when no
                // effect refinement is needed.
                let c1 = &src_unified.condition.predicate;
                let c2 = &dst_unified.condition.predicate;
                let mut parts = vec![&effect, c1, c2];
                if let Some(t2c) = t2_constraint {
                    parts.push(t2c);
                }
                let outcome = self.solve(&parts);
                if let Outcome::Sat(witness) = outcome {
                    found = true;
                    out.push(Threat {
                        kind: ThreatKind::CovertTriggering,
                        source: src_unified.id.clone(),
                        target: dst_unified.id.clone(),
                        witness: Some(witness),
                        actuator: None,
                        property: None,
                        note: format!(
                            "`{}` changes `{var}`, which triggers {}",
                            a_unified.command, dst_unified.id
                        ),
                    });
                    break;
                }
            }
            if found {
                break;
            }
            // Channel 2: the command moves an environment feature a sensor
            // reports, and the movement direction can fire T2.
            let Some(kind) = action_kind(a_orig) else {
                continue;
            };
            for fx in kind.goal_effects() {
                if fx.command != a_orig.command {
                    continue;
                }
                let env_var = VarId::env(fx.property.name());
                if env_var != t2_var {
                    continue;
                }
                if !direction_compatible(t2_constraint, &t2_var, fx.sign) {
                    continue;
                }
                self.stats.candidates += 1;
                let outcome = self.condition_overlap();
                if let Outcome::Sat(witness) = outcome {
                    found = true;
                    out.push(Threat {
                        kind: ThreatKind::CovertTriggering,
                        source: src_unified.id.clone(),
                        target: dst_unified.id.clone(),
                        witness: Some(witness),
                        actuator: None,
                        property: Some(fx.property),
                        note: format!(
                            "`{}` on {} moves {} ({}), which can trigger {}",
                            a_orig.command,
                            kind.name(),
                            fx.property,
                            fx.sign,
                            dst_unified.id
                        ),
                    });
                    break;
                }
            }
        }
        found
    }

    fn detect_self_disabling(&mut self, ct_12: bool, ct_21: bool, out: &mut Vec<Threat>) {
        for (src, dst, ct) in [(0usize, 1usize, ct_12), (1, 0, ct_21)] {
            if !ct {
                continue;
            }
            // R_dst's action must undo R_src's action on the same actuator.
            if let Some((actuator, note)) =
                first_contradictory_pair(self.unified(src), self.unified(dst))
            {
                // Reuse the action-analysis + CT overlap results: no fresh
                // solving needed (Fig. 9).
                self.stats.reused += 1;
                out.push(Threat {
                    kind: ThreatKind::SelfDisabling,
                    source: self.unified(src).id.clone(),
                    target: self.unified(dst).id.clone(),
                    witness: None,
                    actuator: Some(actuator),
                    property: None,
                    note: format!(
                        "{} covertly triggers {}, whose action undoes it ({note})",
                        self.unified(src).id,
                        self.unified(dst).id
                    ),
                });
            }
        }
    }

    fn detect_loop_triggering(&mut self, ct_12: bool, ct_21: bool, out: &mut Vec<Threat>) {
        if !(ct_12 && ct_21) {
            return;
        }
        if let Some((actuator, note)) = first_contradictory_pair(self.unified(0), self.unified(1)) {
            self.stats.reused += 1;
            out.push(Threat {
                kind: ThreatKind::LoopTriggering,
                source: self.unified(0).id.clone(),
                target: self.unified(1).id.clone(),
                witness: None,
                actuator: Some(actuator),
                property: None,
                note: format!("mutual triggering with contradictory actions ({note})"),
            });
        }
    }

    // ----- Condition-Interference threats (§VI-C) -------------------------------

    fn detect_condition_interference(&mut self, src: usize, dst: usize, out: &mut Vec<Threat>) {
        let src_unified = self.unified(src);
        let src_orig = self.orig(src);
        let dst_unified = self.unified(dst);
        let c2 = &dst_unified.condition.predicate;
        if *c2 == Formula::True {
            return;
        }
        let c2_vars = c2.variables();
        let mut reported_ec = false;
        let mut reported_dc = false;
        for (a_unified, a_orig) in src_unified.actuations().zip(src_orig.actuations()) {
            if reported_ec && reported_dc {
                break;
            }
            // Channel 1: direct attribute writes mentioned by C2.
            for (var, effect) in direct_effects(a_unified) {
                if !c2_vars.contains(&var) {
                    continue;
                }
                self.stats.candidates += 1;
                // EC solve; DC reuses its result (Fig. 9).
                let outcome = self.solve(&[&effect, c2]);
                self.stats.reused += 1; // the DC decision reuses this solve
                let (kind, already) = match outcome {
                    Outcome::Sat(_) => (ThreatKind::EnablingCondition, &mut reported_ec),
                    _ => (ThreatKind::DisablingCondition, &mut reported_dc),
                };
                if *already {
                    continue;
                }
                *already = true;
                out.push(Threat {
                    kind,
                    source: src_unified.id.clone(),
                    target: dst_unified.id.clone(),
                    witness: outcome.witness().cloned(),
                    actuator: None,
                    property: None,
                    note: format!(
                        "`{}` sets `{var}`, which {} the condition of {}",
                        a_unified.command,
                        if kind == ThreatKind::EnablingCondition {
                            "can satisfy"
                        } else {
                            "falsifies"
                        },
                        dst_unified.id
                    ),
                });
            }
            // Channel 2: environment movement vs. C2's numeric thresholds.
            let Some(kind_dev) = action_kind(a_orig) else {
                continue;
            };
            for fx in kind_dev.goal_effects() {
                if fx.command != a_orig.command {
                    continue;
                }
                let env_var = VarId::env(fx.property.name());
                if !c2_vars.contains(&env_var) {
                    continue;
                }
                self.stats.candidates += 1;
                for (threat_kind, flag) in classify_env_condition_effect(c2, &env_var, fx.sign) {
                    let already = match threat_kind {
                        ThreatKind::EnablingCondition => &mut reported_ec,
                        _ => &mut reported_dc,
                    };
                    if *already || !flag {
                        continue;
                    }
                    *already = true;
                    out.push(Threat {
                        kind: threat_kind,
                        source: src_unified.id.clone(),
                        target: dst_unified.id.clone(),
                        witness: None,
                        actuator: None,
                        property: Some(fx.property),
                        note: format!(
                            "`{}` on {} moves {} ({}), which {} the condition of {}",
                            a_orig.command,
                            kind_dev.name(),
                            fx.property,
                            fx.sign,
                            if threat_kind == ThreatKind::EnablingCondition {
                                "can enable"
                            } else {
                                "can disable"
                            },
                            dst_unified.id
                        ),
                    });
                }
            }
        }
    }
}

// ----- helpers ------------------------------------------------------------------

/// The classified device kind of an action's original (pre-unification)
/// subject.
pub(crate) fn action_kind(a: &Action) -> Option<DeviceKind> {
    match &a.subject {
        ActionSubject::Device(DeviceRef::Unbound { kind, .. }) => Some(*kind),
        ActionSubject::Device(DeviceRef::Bound { device_id }) => {
            // Synthetic type ids carry the kind.
            let rest = device_id.strip_prefix("type:")?;
            let (_, kind_name) = rest.split_once('/')?;
            DeviceKind::ALL.into_iter().find(|k| k.name() == kind_name)
        }
        _ => None,
    }
}

/// Whether two actions contradict on the same actuator.
fn actions_contradict(a1: &Action, a2: &Action) -> Option<Contradiction> {
    match (&a1.subject, &a2.subject) {
        (ActionSubject::Device(d1), ActionSubject::Device(d2)) => {
            if !d1.same_device(d2) {
                return None;
            }
            // Prefer the device's own capability for contradiction lookup.
            if let Some(cap) = device_capability(d1) {
                if cap.command(&a1.command).is_some() && cap.command(&a2.command).is_some() {
                    match contradiction(cap, &a1.command, &a2.command) {
                        Contradiction::Direct => return Some(Contradiction::Direct),
                        Contradiction::ParamDependent => {
                            if a1.params == a2.params && a1.params.iter().all(is_const_term) {
                                return None;
                            }
                            return Some(Contradiction::ParamDependent);
                        }
                        Contradiction::None => return None,
                    }
                }
            }
            // Fall back to any capability defining both commands.
            for cap in capability::CAPABILITIES {
                if cap.command(&a1.command).is_some() && cap.command(&a2.command).is_some() {
                    match contradiction(cap, &a1.command, &a2.command) {
                        Contradiction::None => continue,
                        Contradiction::Direct => return Some(Contradiction::Direct),
                        Contradiction::ParamDependent => {
                            // Same parameterized command: races only when the
                            // parameters can differ.
                            if a1.params == a2.params && a1.params.iter().all(is_const_term) {
                                return None;
                            }
                            return Some(Contradiction::ParamDependent);
                        }
                    }
                }
            }
            None
        }
        (ActionSubject::LocationMode, ActionSubject::LocationMode) => {
            if a1.params == a2.params && a1.params.iter().all(is_const_term) {
                None
            } else {
                Some(Contradiction::ParamDependent)
            }
        }
        _ => None,
    }
}

fn is_const_term(t: &Term) -> bool {
    t.as_const().is_some()
}

fn describe_conflict(c: Contradiction) -> &'static str {
    match c {
        Contradiction::Direct => "opposite commands",
        Contradiction::ParamDependent => "conflicting parameters",
        Contradiction::None => "no conflict",
    }
}

/// Whether two triggers can fire from the same event.
fn triggers_coincide(t1: &Trigger, t2: &Trigger) -> bool {
    match (t1, t2) {
        (Trigger::DeviceEvent { .. }, Trigger::DeviceEvent { .. }) => {
            t1.observed_var() == t2.observed_var()
        }
        (Trigger::ModeChange { .. }, Trigger::ModeChange { .. }) => true,
        (Trigger::Periodic { period_secs: p1 }, Trigger::Periodic { period_secs: p2 }) => p1 == p2,
        (
            Trigger::TimeOfDay {
                at_minutes: Some(m1),
                ..
            },
            Trigger::TimeOfDay {
                at_minutes: Some(m2),
                ..
            },
        ) => m1 == m2,
        (Trigger::AppTouch, Trigger::AppTouch) => true,
        _ => false,
    }
}

/// The direct world-state writes of an action: `(variable, effect formula)`.
pub(crate) fn direct_effects(a: &Action) -> Vec<(VarId, Formula)> {
    let mut out = Vec::new();
    match &a.subject {
        ActionSubject::Device(dev) => {
            // Prefer the device's own capability; fall back to the first
            // capability defining the command with effects.
            let own = device_capability(dev).filter(|cap| cap.command(&a.command).is_some());
            let cap = own.or_else(|| {
                capability::CAPABILITIES.iter().find(|c| {
                    c.command(&a.command)
                        .map(|cmd| !cmd.effects.is_empty())
                        .unwrap_or(false)
                })
            });
            let Some(cap) = cap else { return out };
            let Some(cmd) = cap.command(&a.command) else {
                return out;
            };
            for eff in cmd.effects {
                match eff {
                    AttrEffect::SetConst { attribute, value } => {
                        let var = VarId::canonical_attr(dev, attribute);
                        out.push((
                            var.clone(),
                            Formula::cmp(Term::Var(var), CmpOp::Eq, Term::sym(value.to_string())),
                        ));
                    }
                    AttrEffect::SetParam {
                        attribute,
                        param_index,
                    } => {
                        if let Some(p) = a.params.get(*param_index) {
                            let var = VarId::canonical_attr(dev, attribute);
                            out.push((
                                var.clone(),
                                Formula::cmp(Term::Var(var), CmpOp::Eq, p.clone()),
                            ));
                        }
                    }
                }
            }
        }
        ActionSubject::LocationMode => {
            if let Some(p) = a.params.first() {
                out.push((
                    VarId::Mode,
                    Formula::cmp(Term::Var(VarId::Mode), CmpOp::Eq, p.clone()),
                ));
            }
        }
        _ => {}
    }
    out
}

/// The capability a device reference was granted with, resolving synthetic
/// `type:capability/kind` ids.
fn device_capability(dev: &DeviceRef) -> Option<&'static hg_capability::capability::Capability> {
    if let Some(name) = dev.capability() {
        return capability::lookup(name);
    }
    if let DeviceRef::Bound { device_id } = dev {
        if let Some(rest) = device_id.strip_prefix("type:") {
            if let Some((name, _)) = rest.split_once('/') {
                return capability::lookup(name);
            }
        }
    }
    None
}

/// Whether a trigger constraint is compatible with the environment moving in
/// `sign` direction: a `> c` trigger needs an increase, `< c` a decrease,
/// `==`/no-constraint accepts both.
fn direction_compatible(constraint: Option<&Formula>, var: &VarId, sign: Sign) -> bool {
    let Some(c) = constraint else { return true };
    let mut compatible = false;
    let mut any_atom = false;
    scan_atoms(c, &mut |lhs, op, rhs| {
        let (op, touches) = match (lhs, rhs) {
            (Term::Var(v), _) if v == var => (op, true),
            (_, Term::Var(v)) if v == var => (op.flip(), true),
            _ => (op, false),
        };
        if !touches {
            return;
        }
        any_atom = true;
        compatible |= matches!(
            (op, sign),
            (CmpOp::Gt | CmpOp::Ge, Sign::Inc)
                | (CmpOp::Lt | CmpOp::Le, Sign::Dec)
                | (CmpOp::Eq | CmpOp::Ne, _)
        );
    });
    !any_atom || compatible
}

/// Classifies how moving `var` in `sign` direction affects a condition:
/// returns flags for (EnablingCondition, DisablingCondition).
fn classify_env_condition_effect(c2: &Formula, var: &VarId, sign: Sign) -> [(ThreatKind, bool); 2] {
    let mut enables = false;
    let mut disables = false;
    scan_atoms(c2, &mut |lhs, op, rhs| {
        let (op, touches) = match (lhs, rhs) {
            (Term::Var(v), _) if v == var => (op, true),
            (_, Term::Var(v)) if v == var => (op.flip(), true),
            _ => (op, false),
        };
        if !touches {
            return;
        }
        match (op, sign) {
            (CmpOp::Gt | CmpOp::Ge, Sign::Inc) | (CmpOp::Lt | CmpOp::Le, Sign::Dec) => {
                enables = true;
            }
            (CmpOp::Gt | CmpOp::Ge, Sign::Dec) | (CmpOp::Lt | CmpOp::Le, Sign::Inc) => {
                disables = true;
            }
            (CmpOp::Eq | CmpOp::Ne, _) => {
                // Movement can cross an equality in either direction.
                enables = true;
                disables = true;
            }
        }
    });
    [
        (ThreatKind::EnablingCondition, enables),
        (ThreatKind::DisablingCondition, disables),
    ]
}

fn scan_atoms(f: &Formula, visit: &mut impl FnMut(&Term, CmpOp, &Term)) {
    match f {
        Formula::Cmp { lhs, op, rhs } => visit(lhs, *op, rhs),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                scan_atoms(p, visit);
            }
        }
        Formula::Not(inner) => scan_atoms(inner, visit),
        _ => {}
    }
}

/// First contradictory action pair between two rules (for SD/LT notes).
fn first_contradictory_pair(r1: &Rule, r2: &Rule) -> Option<(String, String)> {
    for a1 in r1.actuations() {
        for a2 in r2.actuations() {
            if actions_contradict(a1, a2).is_some() {
                let actuator = match a1.subject.device() {
                    Some(d) => d.to_string(),
                    None => "location mode".to_string(),
                };
                return Some((actuator, format!("`{}` vs `{}`", a1.command, a2.command)));
            }
        }
    }
    None
}

/// Display name for the i-th actuation subject of a rule (pre-unification,
/// so the user sees the input slot name).
fn action_subject_name(rule: &Rule, index: usize) -> String {
    rule.actuations()
        .nth(index)
        .map(|a| match &a.subject {
            ActionSubject::Device(d) => d.to_string(),
            ActionSubject::LocationMode => "location mode".to_string(),
            _ => "?".to_string(),
        })
        .unwrap_or_else(|| "?".to_string())
}
