//! Chained CAI threat detection (paper §VI-D).
//!
//! Users may accept a pairwise interference and install anyway; HomeGuard
//! records such pairs in an *Allowed* list. When a new rule arrives, the
//! detector must find *indirect* interference: chains `r1 → r2 → ... → rn`
//! through previously-allowed edges, e.g. `CurlingIron` triggering
//! `SwitchChangesMode` triggering `MakeItSo`'s door unlock (§VIII-B).

use crate::report::{Threat, ThreatKind};
use hg_rules::rule::RuleId;
use std::collections::BTreeMap;

/// A directed interference edge usable in chains: CT (action fires the next
/// rule) and EC (action enables the next rule's condition).
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// The interfering rule.
    pub from: RuleId,
    /// The interfered-with rule.
    pub to: RuleId,
    /// The pairwise threat kind the edge came from.
    pub kind: ThreatKind,
}

impl Edge {
    /// Extracts chainable edges from pairwise threats. Only the directed,
    /// execution-propagating kinds form chains.
    pub fn from_threats<'a>(threats: impl IntoIterator<Item = &'a Threat>) -> Vec<Edge> {
        threats
            .into_iter()
            .filter(|t| {
                matches!(
                    t.kind,
                    ThreatKind::CovertTriggering | ThreatKind::EnablingCondition
                )
            })
            .map(|t| Edge {
                from: t.source.clone(),
                to: t.target.clone(),
                kind: t.kind,
            })
            .collect()
    }
}

/// A chain of rules connected by interference edges — a *covert rule* whose
/// trigger is the head's trigger and whose action is the tail's action.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The rules along the chain, head first.
    pub rules: Vec<RuleId>,
    /// The edge kinds along the chain (`rules.len() - 1` entries).
    pub kinds: Vec<ThreatKind>,
}

impl Chain {
    /// Chain length in edges.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the chain is empty (never produced by the finder).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

impl std::fmt::Display for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, " ={}=> ", self.kinds[i - 1].acronym())?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Finds all chains of length ≥ 2 edges (indirect interference) up to
/// `max_len` edges, with no repeated rule (loops are reported by LT
/// detection, not here).
pub fn find_chains(edges: &[Edge], max_len: usize) -> Vec<Chain> {
    let mut adjacency: BTreeMap<&RuleId, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adjacency.entry(&e.from).or_default().push(e);
    }
    let mut chains = Vec::new();
    for start in adjacency.keys().copied() {
        let mut path = vec![start.clone()];
        let mut kinds = Vec::new();
        dfs(
            start,
            &adjacency,
            &mut path,
            &mut kinds,
            max_len,
            &mut chains,
        );
    }
    chains
}

fn dfs(
    node: &RuleId,
    adjacency: &BTreeMap<&RuleId, Vec<&Edge>>,
    path: &mut Vec<RuleId>,
    kinds: &mut Vec<ThreatKind>,
    max_len: usize,
    chains: &mut Vec<Chain>,
) {
    if kinds.len() >= max_len {
        return;
    }
    let Some(next_edges) = adjacency.get(node) else {
        return;
    };
    for edge in next_edges {
        if path.contains(&edge.to) {
            continue;
        }
        path.push(edge.to.clone());
        kinds.push(edge.kind);
        if kinds.len() >= 2 {
            chains.push(Chain {
                rules: path.clone(),
                kinds: kinds.clone(),
            });
        }
        dfs(&edge.to, adjacency, path, kinds, max_len, chains);
        path.pop();
        kinds.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(app: &str) -> RuleId {
        RuleId::new(app, 0)
    }

    fn edge(a: &str, b: &str) -> Edge {
        Edge {
            from: rid(a),
            to: rid(b),
            kind: ThreatKind::CovertTriggering,
        }
    }

    #[test]
    fn finds_three_rule_chain() {
        // CurlingIron -> SwitchChangesMode -> MakeItSo (paper §VIII-B #2).
        let edges = vec![
            edge("CurlingIron", "SwitchChangesMode"),
            edge("SwitchChangesMode", "MakeItSo"),
        ];
        let chains = find_chains(&edges, 4);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].rules.len(), 3);
        assert_eq!(chains[0].len(), 2);
        let s = chains[0].to_string();
        assert!(s.contains("CurlingIron"), "{s}");
        assert!(s.contains("=CT=>"), "{s}");
    }

    #[test]
    fn no_chain_from_single_edge() {
        let chains = find_chains(&[edge("A", "B")], 4);
        assert!(chains.is_empty());
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let edges = vec![edge("A", "B"), edge("B", "A"), edge("B", "C")];
        let chains = find_chains(&edges, 8);
        // A->B->C is the only simple chain of length >= 2 plus B->A->B is
        // blocked by the repeat check.
        assert!(chains.iter().any(|c| c.rules.len() == 3));
        assert!(chains.iter().all(|c| {
            let mut seen = std::collections::BTreeSet::new();
            c.rules.iter().all(|r| seen.insert(r.clone()))
        }));
    }

    #[test]
    fn max_len_caps_depth() {
        let edges = vec![
            edge("A", "B"),
            edge("B", "C"),
            edge("C", "D"),
            edge("D", "E"),
        ];
        let chains = find_chains(&edges, 2);
        assert!(chains.iter().all(|c| c.len() <= 2));
        let deep = find_chains(&edges, 8);
        assert!(deep.iter().any(|c| c.len() == 4));
    }

    #[test]
    fn edges_filter_to_directed_kinds() {
        let threats = vec![
            Threat {
                kind: ThreatKind::CovertTriggering,
                source: rid("A"),
                target: rid("B"),
                witness: None,
                actuator: None,
                property: None,
                note: String::new(),
            },
            Threat {
                kind: ThreatKind::ActuatorRace,
                source: rid("A"),
                target: rid("C"),
                witness: None,
                actuator: None,
                property: None,
                note: String::new(),
            },
            Threat {
                kind: ThreatKind::EnablingCondition,
                source: rid("B"),
                target: rid("C"),
                witness: None,
                actuator: None,
                property: None,
                note: String::new(),
            },
        ];
        let edges = Edge::from_threats(&threats);
        assert_eq!(edges.len(), 2);
    }
}
