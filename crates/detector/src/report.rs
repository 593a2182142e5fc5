//! Threat kinds and detection reports (paper Table I).

use hg_capability::domains::EnvProperty;
use hg_rules::rule::RuleId;
use hg_solver::Assignment;
use std::fmt;

/// The seven CAI threat categories of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThreatKind {
    /// Actuator Race: contradictory actions on the same actuator.
    ActuatorRace,
    /// Goal Conflict: actions with contradictory goals on different actuators.
    GoalConflict,
    /// Covert Triggering: a rule's action triggers another rule.
    CovertTriggering,
    /// Self Disabling: a rule triggers another rule that undoes it.
    SelfDisabling,
    /// Loop Triggering: two rules trigger each other with contradictory
    /// actions.
    LoopTriggering,
    /// Enabling-Condition interference.
    EnablingCondition,
    /// Disabling-Condition interference.
    DisablingCondition,
}

impl ThreatKind {
    /// All kinds, in Table I order.
    pub const ALL: [ThreatKind; 7] = [
        ThreatKind::ActuatorRace,
        ThreatKind::GoalConflict,
        ThreatKind::CovertTriggering,
        ThreatKind::SelfDisabling,
        ThreatKind::LoopTriggering,
        ThreatKind::EnablingCondition,
        ThreatKind::DisablingCondition,
    ];

    /// The paper's two-letter acronym.
    pub fn acronym(&self) -> &'static str {
        match self {
            ThreatKind::ActuatorRace => "AR",
            ThreatKind::GoalConflict => "GC",
            ThreatKind::CovertTriggering => "CT",
            ThreatKind::SelfDisabling => "SD",
            ThreatKind::LoopTriggering => "LT",
            ThreatKind::EnablingCondition => "EC",
            ThreatKind::DisablingCondition => "DC",
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ThreatKind::ActuatorRace => "Actuator Race",
            ThreatKind::GoalConflict => "Goal Conflict",
            ThreatKind::CovertTriggering => "Covert Triggering",
            ThreatKind::SelfDisabling => "Self Disabling",
            ThreatKind::LoopTriggering => "Loop Triggering",
            ThreatKind::EnablingCondition => "Enabling-Condition Interference",
            ThreatKind::DisablingCondition => "Disabling-Condition Interference",
        }
    }

    /// Whether the relation is directed (R1 interferes with R2, not
    /// necessarily vice versa).
    pub fn is_directed(&self) -> bool {
        matches!(
            self,
            ThreatKind::CovertTriggering
                | ThreatKind::SelfDisabling
                | ThreatKind::EnablingCondition
                | ThreatKind::DisablingCondition
        )
    }
}

impl fmt::Display for ThreatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.acronym())
    }
}

/// One detected threat between two rules.
///
/// For directed kinds, `source` is R1 (the interfering rule) and `target`
/// is R2 (the interfered-with rule).
#[derive(Debug, Clone, PartialEq)]
pub struct Threat {
    /// Threat category.
    pub kind: ThreatKind,
    /// The interfering rule.
    pub source: RuleId,
    /// The interfered-with rule.
    pub target: RuleId,
    /// A concrete situation in which the interference manifests, when the
    /// solver produced one.
    pub witness: Option<Assignment>,
    /// The actuator both rules fight over (AR/SD/LT), as a display string.
    pub actuator: Option<String>,
    /// The conflicting goal property (GC) or interference channel (CT/EC/DC
    /// via the environment).
    pub property: Option<EnvProperty>,
    /// Free-text explanation assembled by the detector.
    pub note: String,
}

impl fmt::Display for Threat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {}: {}",
            self.kind.acronym(),
            self.source,
            self.target,
            self.note
        )
    }
}

/// Counters for the Fig. 9 efficiency analysis.
///
/// A pair check is a [`VerdictCache`](crate::VerdictCache) hit or a fresh
/// detection whose every overlap question is one `OverlapSolver` solve;
/// there is no other evaluator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// Rule pairs examined.
    pub pairs: u64,
    /// Pairs that survived candidate filtering per threat kind.
    pub candidates: u64,
    /// Constraint-solver invocations.
    pub solves: u64,
    /// Solver invocations avoided by reusing a previous result (the green
    /// dotted reuse edges of Fig. 9).
    pub reused: u64,
    /// Rule pairs never visited at all because the candidate index proved
    /// they cannot interact. Each such pair would have cost at least one
    /// merged-situation solve in a filterless detector, so this is the
    /// index's solver-invocation saving.
    pub pruned: u64,
    /// Pair verdicts answered from the fleet-shared
    /// [`VerdictCache`](crate::VerdictCache): filtering, model build and
    /// solving were all skipped. The other counters of a hit pair report
    /// the memoized *logical* effort, so cached and uncached runs agree on
    /// everything but the hit/miss markers.
    pub cache_hits: u64,
    /// Pair verdicts computed fresh and published to the cache. Zero when
    /// no cache is attached.
    pub cache_misses: u64,
    /// Always zero: no detector writes it, and `absorb`/`logical` leave it
    /// alone. It stays for readers built against it (`homebench`'s trace
    /// derives `detector.lowered_share` from it, which therefore reads 0).
    pub lowered_hits: u64,
    /// Always zero, like [`lowered_hits`](Self::lowered_hits).
    pub solver_fallbacks: u64,
}

impl DetectStats {
    /// Merges another counter set into this one.
    pub fn absorb(&mut self, other: DetectStats) {
        self.pairs += other.pairs;
        self.candidates += other.candidates;
        self.solves += other.solves;
        self.reused += other.reused;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// This counter set with the cache hit/miss markers zeroed — the
    /// *logical* detection effort, identical between a cached and an
    /// uncached run over the same population (the differential harnesses
    /// compare exactly this projection).
    pub fn logical(mut self) -> DetectStats {
        self.cache_hits = 0;
        self.cache_misses = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acronyms_match_table_i() {
        let acr: Vec<_> = ThreatKind::ALL.iter().map(|k| k.acronym()).collect();
        assert_eq!(acr, vec!["AR", "GC", "CT", "SD", "LT", "EC", "DC"]);
    }

    #[test]
    fn directedness() {
        assert!(ThreatKind::CovertTriggering.is_directed());
        assert!(ThreatKind::EnablingCondition.is_directed());
        assert!(!ThreatKind::ActuatorRace.is_directed());
        assert!(!ThreatKind::LoopTriggering.is_directed());
    }

    #[test]
    fn display_forms() {
        let t = Threat {
            kind: ThreatKind::ActuatorRace,
            source: RuleId::new("A", 0),
            target: RuleId::new("B", 1),
            witness: None,
            actuator: Some("window1".into()),
            property: None,
            note: "opposite commands".into(),
        };
        let s = t.to_string();
        assert!(s.contains("[AR]"));
        assert!(s.contains("A#0"));
        assert!(s.contains("B#1"));
    }

    #[test]
    fn stats_absorb() {
        let mut a = DetectStats {
            pairs: 1,
            candidates: 2,
            solves: 3,
            reused: 4,
            pruned: 5,
            cache_hits: 6,
            cache_misses: 7,
            ..Default::default()
        };
        a.absorb(DetectStats {
            pairs: 10,
            candidates: 20,
            solves: 30,
            reused: 40,
            pruned: 50,
            cache_hits: 60,
            cache_misses: 70,
            ..Default::default()
        });
        assert_eq!(
            a,
            DetectStats {
                pairs: 11,
                candidates: 22,
                solves: 33,
                reused: 44,
                pruned: 55,
                cache_hits: 66,
                cache_misses: 77,
                ..Default::default()
            }
        );
        // The logical projection strips only the cache markers.
        assert_eq!(
            a.logical(),
            DetectStats {
                cache_hits: 0,
                cache_misses: 0,
                ..a
            }
        );
    }
}
