//! The runtime enforcer: policy arbitration over compiled mediation
//! points, with a decision journal and effort counters.
//!
//! The enforcer sits inline in an event loop (it implements
//! [`hg_sim::Mediator`] through [`SharedEnforcer`]) and answers two
//! questions:
//!
//! * **may this rule fire?** — [`Enforcer::decide_fire`]. If a mediation
//!   point pairs the rule with a counterpart that already acted in this
//!   run, the point's policy applies: `Block` suppresses the firing,
//!   `Defer` postpones its actions past the window, `Notify` journals and
//!   lets it through.
//! * **may this command execute?** — [`Enforcer::decide_command`], for the
//!   actuator-conflict kinds (AR/SD/LT). `Priority` arbitration lives
//!   here: of two same-instant conflicting commands on a shared actuator,
//!   only the higher-ranked rule's command takes effect, so the race's
//!   final state is deterministic regardless of scheduling order.
//!
//! Rules that key into no mediation point take an allow-everything fast
//! path that touches no state, which is what makes a mediated threat-free
//! home behave identically to an unmediated one.

use crate::point::MediationIndex;
use crate::policy::{HandlingPolicy, PolicyTable};
use hg_detector::{Threat, ThreatKind, Unification};
use hg_rules::rule::{Rule, RuleId};
use hg_sim::mediator::{Decision, Mediator};
use hg_sim::SimTime;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What the enforcer did about one mediated event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The event was suppressed (`Block`).
    Blocked,
    /// A same-instant conflicting command lost the priority arbitration
    /// and was discarded (`Priority`).
    Reordered,
    /// The event was postponed past the mediation window (`Defer`).
    Deferred {
        /// By how much, in simulated milliseconds.
        delay_ms: u64,
    },
    /// The event was allowed through and journaled (`Notify`).
    Notified,
}

/// One journaled mediation decision, for incident audits.
#[derive(Debug, Clone)]
pub struct MediationDecision {
    /// Simulated time of the intercepted event.
    pub at: SimTime,
    /// The threat category of the mediation point that fired.
    pub kind: ThreatKind,
    /// The rule whose event was mediated.
    pub rule: RuleId,
    /// The other member of the threat pair.
    pub counterpart: RuleId,
    /// What happened.
    pub verdict: Verdict,
    /// Human-readable incident line.
    pub note: String,
}

impl fmt::Display for MediationDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={}ms [{}] {:?} {}: {}",
            self.at,
            self.kind.acronym(),
            self.verdict,
            self.rule,
            self.note
        )
    }
}

/// The decision journal: every mediation decision, in order.
#[derive(Debug, Clone, Default)]
pub struct MediationTrace {
    entries: Vec<MediationDecision>,
}

impl MediationTrace {
    /// All decisions, in order.
    pub fn entries(&self) -> &[MediationDecision] {
        &self.entries
    }

    /// Number of journaled decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Decisions for one threat kind.
    pub fn for_kind(&self, kind: ThreatKind) -> impl Iterator<Item = &MediationDecision> {
        self.entries.iter().filter(move |d| d.kind == kind)
    }

    /// Decisions involving one rule (as the mediated rule or counterpart).
    pub fn for_rule<'a>(
        &'a self,
        rule: &'a RuleId,
    ) -> impl Iterator<Item = &'a MediationDecision> + 'a {
        self.entries
            .iter()
            .filter(move |d| d.rule == *rule || d.counterpart == *rule)
    }

    fn push(&mut self, decision: MediationDecision) {
        self.entries.push(decision);
    }
}

/// Effort counters for the mediation engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediationStats {
    /// Intercepted events (rule firings + actuator commands) seen.
    pub events: u64,
    /// Events where a non-allow decision was taken (blocked, reordered,
    /// deferred).
    pub mediated: u64,
    /// Journal entries written (includes `Notify` allows).
    pub journaled: u64,
    /// Total wall-clock decision time, nanoseconds.
    pub latency_ns: u128,
}

impl MediationStats {
    /// Mean wall-clock nanoseconds per intercepted event.
    pub fn mean_latency_ns(&self) -> u128 {
        if self.events == 0 {
            0
        } else {
            self.latency_ns / self.events as u128
        }
    }

    /// Folds another counter set in (merging per-enforcer deltas into a
    /// session- or fleet-level aggregate).
    pub fn absorb(&mut self, other: MediationStats) {
        self.events += other.events;
        self.mediated += other.mediated;
        self.journaled += other.journaled;
        self.latency_ns += other.latency_ns;
    }

    /// The counters accumulated since `before` (a snapshot of `self`
    /// taken earlier). Saturating so a reset between the snapshots
    /// degrades to zero rather than wrapping.
    pub fn since(&self, before: MediationStats) -> MediationStats {
        MediationStats {
            events: self.events.saturating_sub(before.events),
            mediated: self.mediated.saturating_sub(before.mediated),
            journaled: self.journaled.saturating_sub(before.journaled),
            latency_ns: self.latency_ns.saturating_sub(before.latency_ns),
        }
    }
}

/// The runtime mediation engine.
#[derive(Debug, Clone, Default)]
pub struct Enforcer {
    index: MediationIndex,
    /// Pair-member rules that fired in the current run.
    fired: BTreeSet<RuleId>,
    /// Last executed command per (device, pair-member rule) this run.
    commanded: BTreeMap<(String, RuleId), (SimTime, String)>,
    /// One-shot grants so a deferred command is allowed on replay, keyed
    /// by the earliest time the replay may pass — a fresh identical
    /// command issued before that instant goes through full mediation
    /// instead of consuming the grant.
    defer_tokens: BTreeMap<(RuleId, String, String), SimTime>,
    journal: MediationTrace,
    stats: MediationStats,
    /// Session-shared stats sink: every decision's counter delta is
    /// folded in, so a `Home` that hands out fresh enforcers per call can
    /// still answer "what has mediation cost this session" (the
    /// [`MediationStats`] accessor the service layer aggregates).
    sink: Option<Arc<Mutex<MediationStats>>>,
}

impl Enforcer {
    /// An enforcer over pre-compiled mediation points.
    pub fn new(index: MediationIndex) -> Enforcer {
        Enforcer {
            index,
            ..Enforcer::default()
        }
    }

    /// Compiles `threats` (an install-time report, or a session's confirmed
    /// threat set) against the installed `rules` and builds the enforcer.
    pub fn from_threats(
        threats: &[Threat],
        rules: &[Rule],
        unification: &Unification,
        table: &PolicyTable,
    ) -> Enforcer {
        Enforcer::new(MediationIndex::compile(threats, rules, unification, table))
    }

    /// The compiled mediation points.
    pub fn index(&self) -> &MediationIndex {
        &self.index
    }

    /// Swaps in a recompiled mediation index — how a live enforcer follows
    /// a lifecycle change (app uninstalled or upgraded, points retired or
    /// added) without losing its journal. **All** per-run memory — fired
    /// rules, executed commands and one-shot defer grants — is dropped:
    /// that state was accumulated under the old points' policies, and a
    /// grant or remembered firing carried across the swap would let a
    /// retired or re-policied pair keep influencing decisions (a defer
    /// token issued under the old window could wave a command straight
    /// past a stricter new policy). Journal and stats persist across the
    /// swap; the same wipe applies when an enforcer is rebuilt from a
    /// snapshot, so restored sessions never inherit in-flight grants.
    pub fn replace_index(&mut self, index: MediationIndex) {
        self.index = index;
        self.begin_run();
    }

    /// Wires a session-shared stats sink: each decision's counter delta
    /// is folded into it as it happens. The sink is a pure observer —
    /// decisions are identical with or without it.
    pub fn set_stats_sink(&mut self, sink: Arc<Mutex<MediationStats>>) {
        self.sink = Some(sink);
    }

    /// The decision journal.
    pub fn journal(&self) -> &MediationTrace {
        &self.journal
    }

    /// The effort counters.
    pub fn stats(&self) -> MediationStats {
        self.stats
    }

    /// Clears per-run memory (fired rules, executed commands, defer
    /// grants). Call between simulation runs; the journal and stats are
    /// cumulative across runs.
    pub fn begin_run(&mut self) {
        self.fired.clear();
        self.commanded.clear();
        self.defer_tokens.clear();
    }

    /// Full reset: per-run memory, journal and stats.
    pub fn reset(&mut self) {
        self.begin_run();
        self.journal = MediationTrace::default();
        self.stats = MediationStats::default();
    }

    /// Mediates a rule firing. See the module docs for the policy
    /// semantics.
    pub fn decide_fire(&mut self, rule: &RuleId, at: SimTime) -> Decision {
        let started = Instant::now();
        let before = self.stats;
        self.stats.events += 1;
        let mut final_decision = Decision::Allow;
        let mut journal: Vec<MediationDecision> = Vec::new();
        let mut is_member = false;
        for point in self.index.points_for_rule(rule) {
            is_member = true;
            let Some(counterpart) = point.counterpart(rule) else {
                continue;
            };
            if !self.fired.contains(counterpart) && !self.commanded_any(counterpart) {
                continue; // the pair has not collided yet in this run
            }
            let verdict = match &point.policy {
                HandlingPolicy::Block => Some(Verdict::Blocked),
                HandlingPolicy::Defer { window_ms } => Some(Verdict::Deferred {
                    delay_ms: *window_ms,
                }),
                HandlingPolicy::Notify => Some(Verdict::Notified),
                // Priority arbitration happens at the command level.
                HandlingPolicy::Priority(_) => None,
            };
            if let Some(verdict) = verdict {
                journal.push(MediationDecision {
                    at,
                    kind: point.kind,
                    rule: rule.clone(),
                    counterpart: counterpart.clone(),
                    verdict,
                    note: format!(
                        "{} firing after {} acted ({} point, policy {})",
                        rule,
                        counterpart,
                        point.kind.acronym(),
                        point.policy.tag()
                    ),
                });
                final_decision = merge(final_decision, verdict);
            }
        }
        if is_member && !matches!(final_decision, Decision::Suppress) {
            self.fired.insert(rule.clone());
        }
        self.commit(journal, &final_decision);
        self.stats.latency_ns += started.elapsed().as_nanos();
        self.report(before);
        final_decision
    }

    /// Mediates an actuator command issued by `rule` against `device`.
    /// Only the actuator-conflict kinds (AR/SD/LT) mediate here; the other
    /// kinds act on firings.
    pub fn decide_command(
        &mut self,
        rule: &RuleId,
        device: &str,
        command: &str,
        at: SimTime,
    ) -> Decision {
        let started = Instant::now();
        let before = self.stats;
        self.stats.events += 1;
        let token = (rule.clone(), device.to_string(), command.to_string());
        if self
            .defer_tokens
            .get(&token)
            .is_some_and(|ready_at| at >= *ready_at)
        {
            // Replay of a command this enforcer deferred, arriving at or
            // after the granted instant: let it through. An identical
            // command arriving *early* (a fresh firing inside the window)
            // is not the replay and falls through to full mediation.
            self.defer_tokens.remove(&token);
            self.record_command(rule, device, command, at);
            self.stats.latency_ns += started.elapsed().as_nanos();
            self.report(before);
            return Decision::Allow;
        }
        let mut final_decision = Decision::Allow;
        let mut journal: Vec<MediationDecision> = Vec::new();
        for point in self.index.points_for_rule(rule) {
            if !matches!(
                point.kind,
                ThreatKind::ActuatorRace | ThreatKind::SelfDisabling | ThreatKind::LoopTriggering
            ) {
                continue;
            }
            if !point.actuators.is_empty() && !point.actuators.contains(device) {
                continue;
            }
            let Some(counterpart) = point.counterpart(rule) else {
                continue;
            };
            let Some((other_at, other_cmd)) = self
                .commanded
                .get(&(device.to_string(), counterpart.clone()))
            else {
                continue;
            };
            if other_cmd == command {
                continue; // identical commands cannot conflict
            }
            let verdict = match &point.policy {
                HandlingPolicy::Block => Some(Verdict::Blocked),
                HandlingPolicy::Priority(order) => {
                    // Arbitrate same-instant conflicts only: later commands
                    // overwrite earlier ones legitimately.
                    if *other_at != at {
                        None
                    } else {
                        match (rank(order, rule), rank(order, counterpart)) {
                            // Lower rank wins; unranked loses to ranked.
                            (Some(me), Some(other)) if me > other => Some(Verdict::Reordered),
                            (None, Some(_)) => Some(Verdict::Reordered),
                            // A pair the order never ranked cannot be
                            // arbitrated — fall back to blocking the later
                            // conflicting command so the race stays handled
                            // (and audited) instead of silently passing.
                            (None, None) => Some(Verdict::Blocked),
                            _ => None,
                        }
                    }
                }
                HandlingPolicy::Defer { window_ms } => {
                    if at < other_at.saturating_add(*window_ms) {
                        Some(Verdict::Deferred {
                            delay_ms: *window_ms,
                        })
                    } else {
                        None
                    }
                }
                HandlingPolicy::Notify => Some(Verdict::Notified),
            };
            if let Some(verdict) = verdict {
                journal.push(MediationDecision {
                    at,
                    kind: point.kind,
                    rule: rule.clone(),
                    counterpart: counterpart.clone(),
                    verdict,
                    note: format!(
                        "`{command}` on {device} conflicts with {counterpart}'s `{other_cmd}` \
                         ({} point, policy {})",
                        point.kind.acronym(),
                        point.policy.tag()
                    ),
                });
                final_decision = merge(final_decision, verdict);
            }
        }
        match final_decision {
            Decision::Allow => self.record_command(rule, device, command, at),
            Decision::Defer { delay_ms } => {
                self.defer_tokens.insert(token, at + delay_ms);
            }
            Decision::Suppress => {}
        }
        self.commit(journal, &final_decision);
        self.stats.latency_ns += started.elapsed().as_nanos();
        self.report(before);
        final_decision
    }

    /// Whether `rule` executed any command this run.
    fn commanded_any(&self, rule: &RuleId) -> bool {
        self.commanded.keys().any(|(_, r)| r == rule)
    }

    fn record_command(&mut self, rule: &RuleId, device: &str, command: &str, at: SimTime) {
        // A pair member's commands matter; others never reach this path
        // because `decide_command` only records after point lookups. Still
        // guard: only track rules that key into a point.
        if self.index.points_for_rule(rule).next().is_some() {
            self.commanded.insert(
                (device.to_string(), rule.clone()),
                (at, command.to_string()),
            );
        }
    }

    fn commit(&mut self, journal: Vec<MediationDecision>, decision: &Decision) {
        if !matches!(decision, Decision::Allow) {
            self.stats.mediated += 1;
        }
        self.stats.journaled += journal.len() as u64;
        for entry in journal {
            self.journal.push(entry);
        }
    }

    /// Folds one decision's counter delta since `before` into the shared
    /// sink, when one is wired.
    fn report(&self, before: MediationStats) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .absorb(self.stats.since(before));
        }
    }
}

/// Priority rank: position in the configured order, `None` if unranked.
fn rank(order: &[RuleId], rule: &RuleId) -> Option<usize> {
    order.iter().position(|r| r == rule)
}

/// Most-restrictive-wins decision merge across a rule's mediation points.
fn merge(current: Decision, verdict: Verdict) -> Decision {
    let proposed = match verdict {
        Verdict::Blocked | Verdict::Reordered => Decision::Suppress,
        Verdict::Deferred { delay_ms } => Decision::Defer { delay_ms },
        Verdict::Notified => Decision::Allow,
    };
    match (current, proposed) {
        (Decision::Suppress, _) | (_, Decision::Suppress) => Decision::Suppress,
        (Decision::Defer { delay_ms: a }, Decision::Defer { delay_ms: b }) => {
            Decision::Defer { delay_ms: a.max(b) }
        }
        (d @ Decision::Defer { .. }, Decision::Allow) => d,
        (Decision::Allow, d) => d,
    }
}

/// A clonable, shareable handle around an [`Enforcer`], so the same engine
/// can be installed into a simulator (as its [`Mediator`]) while the
/// harness keeps access to the journal and stats.
#[derive(Debug, Clone, Default)]
pub struct SharedEnforcer {
    inner: Rc<RefCell<Enforcer>>,
}

impl SharedEnforcer {
    /// Wraps an enforcer.
    pub fn new(enforcer: Enforcer) -> SharedEnforcer {
        SharedEnforcer {
            inner: Rc::new(RefCell::new(enforcer)),
        }
    }

    /// A boxed mediator handle for [`hg_sim::Home::set_mediator`]; the
    /// original handle keeps observing the same engine.
    pub fn mediator(&self) -> Box<dyn Mediator> {
        Box::new(self.clone())
    }

    /// Clears per-run memory (see [`Enforcer::begin_run`]).
    pub fn begin_run(&self) {
        self.inner.borrow_mut().begin_run();
    }

    /// Snapshot of the decision journal.
    pub fn journal(&self) -> MediationTrace {
        self.inner.borrow().journal().clone()
    }

    /// Snapshot of the effort counters.
    pub fn stats(&self) -> MediationStats {
        self.inner.borrow().stats()
    }

    /// Runs `f` against the underlying enforcer.
    pub fn with<R>(&self, f: impl FnOnce(&Enforcer) -> R) -> R {
        f(&self.inner.borrow())
    }
}

impl Mediator for SharedEnforcer {
    fn on_rule_fire(&mut self, rule: &RuleId, at: SimTime) -> Decision {
        self.inner.borrow_mut().decide_fire(rule, at)
    }

    fn on_command(&mut self, rule: &RuleId, device: &str, command: &str, at: SimTime) -> Decision {
        self.inner
            .borrow_mut()
            .decide_command(rule, device, command, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::MediationPoint;
    use std::collections::BTreeSet;

    fn point(kind: ThreatKind, policy: HandlingPolicy) -> MediationPoint {
        MediationPoint {
            kind,
            source: RuleId::new("A", 0),
            target: RuleId::new("B", 0),
            actuators: BTreeSet::from(["lamp-1".to_string()]),
            property: None,
            trigger_vars: BTreeSet::new(),
            policy,
        }
    }

    fn enforcer_with(kind: ThreatKind, policy: HandlingPolicy) -> Enforcer {
        let mut index = MediationIndex::default();
        index.insert(point(kind, policy));
        Enforcer::new(index)
    }

    #[test]
    fn non_member_rules_take_the_fast_path() {
        let mut e = enforcer_with(ThreatKind::CovertTriggering, HandlingPolicy::Block);
        let other = RuleId::new("Other", 3);
        assert_eq!(e.decide_fire(&other, 0), Decision::Allow);
        assert_eq!(e.decide_command(&other, "lamp-1", "on", 0), Decision::Allow);
        assert!(e.journal().is_empty());
        assert_eq!(e.stats().events, 2);
        assert_eq!(e.stats().mediated, 0);
    }

    #[test]
    fn block_suppresses_second_member_firing() {
        let mut e = enforcer_with(ThreatKind::CovertTriggering, HandlingPolicy::Block);
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_fire(&a, 0), Decision::Allow);
        assert_eq!(e.decide_fire(&b, 10), Decision::Suppress);
        assert_eq!(e.journal().len(), 1);
        assert_eq!(e.journal().entries()[0].verdict, Verdict::Blocked);
        // A suppressed firing is not remembered as fired: once A's side of
        // the run is over (new run), B fires freely again.
        e.begin_run();
        assert_eq!(e.decide_fire(&b, 20), Decision::Allow);
    }

    #[test]
    fn priority_discards_the_lower_ranked_same_instant_command() {
        let order = vec![RuleId::new("B", 0), RuleId::new("A", 0)];
        let mut e = enforcer_with(ThreatKind::ActuatorRace, HandlingPolicy::Priority(order));
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        // B (rank 0) commands first; A's same-instant conflicting command
        // loses the arbitration.
        assert_eq!(e.decide_command(&b, "lamp-1", "off", 100), Decision::Allow);
        assert_eq!(
            e.decide_command(&a, "lamp-1", "on", 100),
            Decision::Suppress
        );
        assert_eq!(e.journal().entries()[0].verdict, Verdict::Reordered);
        // The other arrival order converges to the same winner: A lands
        // first, B (higher priority) overwrites it.
        e.begin_run();
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 100), Decision::Allow);
        assert_eq!(e.decide_command(&b, "lamp-1", "off", 100), Decision::Allow);
        // A later conflicting command is a legitimate overwrite, not a race.
        e.begin_run();
        assert_eq!(e.decide_command(&b, "lamp-1", "off", 100), Decision::Allow);
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 200), Decision::Allow);
    }

    #[test]
    fn defer_postpones_once_and_replays() {
        let mut e = enforcer_with(
            ThreatKind::ActuatorRace,
            HandlingPolicy::Defer { window_ms: 1_000 },
        );
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 0), Decision::Allow);
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 0),
            Decision::Defer { delay_ms: 1_000 }
        );
        // The replayed command holds a one-shot grant.
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 1_000),
            Decision::Allow
        );
        assert_eq!(e.stats().mediated, 1);
    }

    #[test]
    fn unranked_priority_pair_falls_back_to_blocking() {
        // The order names other rules entirely: the pair cannot be
        // arbitrated, so the same-instant conflict is blocked and audited
        // rather than silently passed.
        let order = vec![RuleId::new("X", 0), RuleId::new("Y", 0)];
        let mut e = enforcer_with(ThreatKind::ActuatorRace, HandlingPolicy::Priority(order));
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 100), Decision::Allow);
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 100),
            Decision::Suppress
        );
        assert_eq!(e.journal().entries()[0].verdict, Verdict::Blocked);
    }

    #[test]
    fn early_identical_command_does_not_consume_the_defer_grant() {
        let mut e = enforcer_with(
            ThreatKind::ActuatorRace,
            HandlingPolicy::Defer { window_ms: 1_000 },
        );
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 0), Decision::Allow);
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 0),
            Decision::Defer { delay_ms: 1_000 }
        );
        // A *fresh* identical command inside the window is mediated again,
        // not waved through on the replay grant...
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 500),
            Decision::Defer { delay_ms: 1_000 }
        );
        // ...while the true replay (at or past the granted instant) passes.
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 1_500),
            Decision::Allow
        );
    }

    #[test]
    fn notify_journals_without_intervening() {
        let mut e = enforcer_with(ThreatKind::DisablingCondition, HandlingPolicy::Notify);
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_fire(&a, 0), Decision::Allow);
        assert_eq!(e.decide_fire(&b, 5), Decision::Allow);
        assert_eq!(e.stats().mediated, 0);
        assert_eq!(e.journal().len(), 1);
        assert_eq!(e.journal().entries()[0].verdict, Verdict::Notified);
    }

    #[test]
    fn most_restrictive_policy_wins_across_points() {
        // The same pair is both a CT (notify) and an SD (block) point —
        // blocking wins.
        let mut index = MediationIndex::default();
        index.insert(point(ThreatKind::CovertTriggering, HandlingPolicy::Notify));
        index.insert(point(ThreatKind::SelfDisabling, HandlingPolicy::Block));
        let mut e = Enforcer::new(index);
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_fire(&a, 0), Decision::Allow);
        assert_eq!(e.decide_fire(&b, 5), Decision::Suppress);
        // Both points journaled their view of the event.
        assert_eq!(e.journal().len(), 2);
    }

    #[test]
    fn replace_index_drops_state_of_retired_pairs() {
        let mut e = enforcer_with(ThreatKind::CovertTriggering, HandlingPolicy::Block);
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_fire(&a, 0), Decision::Allow);
        assert_eq!(e.decide_fire(&b, 10), Decision::Suppress);
        let journaled = e.journal().len();

        // App A is uninstalled: the recompiled index has no points, so B
        // fires freely — A's remembered firing must not linger.
        let mut index = e.index().clone();
        index.remove_app("A");
        e.replace_index(index);
        assert_eq!(e.decide_fire(&b, 20), Decision::Allow);
        assert_eq!(e.journal().len(), journaled, "journal survives the swap");
    }

    #[test]
    fn defer_tokens_never_survive_replace_index() {
        // A deferred command holds a one-shot replay grant. The index is
        // then swapped (same points — an unrelated lifecycle change): the
        // grant was issued under the old index's policies and must die
        // with it, so the replay goes through full mediation again instead
        // of being waved past a possibly-stricter policy.
        let mut e = enforcer_with(
            ThreatKind::ActuatorRace,
            HandlingPolicy::Defer { window_ms: 1_000 },
        );
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 0), Decision::Allow);
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 0),
            Decision::Defer { delay_ms: 1_000 }
        );
        e.replace_index(e.index().clone());
        // No grant, and no remembered counterpart command either: the
        // replay is mediated from scratch and passes only because the
        // conflicting history is gone too.
        assert_eq!(
            e.decide_command(&b, "lamp-1", "off", 1_000),
            Decision::Allow
        );
        assert_eq!(e.stats().mediated, 1, "no second mediation consumed");
    }

    #[test]
    fn fired_memory_never_survives_replace_index() {
        // Block policy: A fired, then the index is swapped. B firing after
        // the swap must not be suppressed on the strength of pre-swap
        // memory.
        let mut e = enforcer_with(ThreatKind::CovertTriggering, HandlingPolicy::Block);
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_fire(&a, 0), Decision::Allow);
        e.replace_index(e.index().clone());
        assert_eq!(e.decide_fire(&b, 10), Decision::Allow);
        assert!(e.journal().is_empty());
    }

    #[test]
    fn commanded_memory_never_survives_replace_index() {
        // Priority policy: A commanded, then the index is swapped. B's
        // same-instant conflicting command must not lose an arbitration
        // against a command that predates the swap.
        let order = vec![RuleId::new("A", 0), RuleId::new("B", 0)];
        let mut e = enforcer_with(ThreatKind::ActuatorRace, HandlingPolicy::Priority(order));
        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        assert_eq!(e.decide_command(&a, "lamp-1", "on", 100), Decision::Allow);
        e.replace_index(e.index().clone());
        assert_eq!(e.decide_command(&b, "lamp-1", "off", 100), Decision::Allow);
        assert_eq!(e.stats().mediated, 0);
    }

    #[test]
    fn stats_sink_observes_without_changing_decisions() {
        let sink = Arc::new(Mutex::new(MediationStats::default()));
        let mut observed = enforcer_with(ThreatKind::CovertTriggering, HandlingPolicy::Block);
        observed.set_stats_sink(sink.clone());
        let mut plain = enforcer_with(ThreatKind::CovertTriggering, HandlingPolicy::Block);

        let (a, b) = (RuleId::new("A", 0), RuleId::new("B", 0));
        for e in [&mut observed, &mut plain] {
            assert_eq!(e.decide_fire(&a, 0), Decision::Allow);
            assert_eq!(e.decide_fire(&b, 10), Decision::Suppress);
        }
        // The sink carries the same counters the enforcer reports.
        let sunk = *sink.lock().unwrap();
        assert_eq!(sunk.events, observed.stats().events);
        assert_eq!(sunk.mediated, 1);
        assert_eq!(sunk.journaled, 1);
        // Pure observer: journals match entry for entry.
        assert_eq!(observed.journal().len(), plain.journal().len());
        assert_eq!(
            observed.journal().entries()[0].verdict,
            plain.journal().entries()[0].verdict
        );
    }

    #[test]
    fn stats_track_latency_and_reset() {
        let mut e = enforcer_with(ThreatKind::ActuatorRace, HandlingPolicy::Block);
        let a = RuleId::new("A", 0);
        e.decide_fire(&a, 0);
        assert!(e.stats().events == 1);
        e.reset();
        assert_eq!(e.stats(), MediationStats::default());
        assert!(e.journal().is_empty());
    }
}
