//! Device unification, domain declaration, and overlapping-condition
//! detection (paper §VI-A2).
//!
//! Before two rules' formulas can be merged, their device references must be
//! *unified*: the detector must know when two input slots denote the same
//! physical device. In deployment that comes from the 128-bit device ids the
//! configuration collector gathered; in store-wide analysis (paper §VIII-B)
//! two slots of the same device type are assumed bindable to the same device.

use hg_capability::capability;
use hg_capability::domains::{scaled, AttrDomain};
use hg_rules::constraint::Formula;
use hg_rules::rule::{Action, ActionSubject, Rule, Trigger};
use hg_rules::value::Value;
use hg_rules::varid::{DeviceRef, VarId};
use hg_solver::{Model, Outcome};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Borrowed-lookup adapter for `(String, String)`-keyed maps.
///
/// The recorders key bindings and user values by owned `(app, input)`
/// pairs, but the detection hot paths look them up with borrowed `&str`s
/// straight out of a [`VarId`] — and `BTreeMap::get` cannot borrow a
/// `(String, String)` as `(&str, &str)`. This trait bridges the gap the
/// standard way: both tuple forms implement it, the owned key [`Borrow`]s
/// the trait object, and the trait object carries the tuple's ordering, so
/// `map.get(&(app, name) as &dyn SlotKey)` finds the owned entry without
/// cloning two `String`s per lookup.
trait SlotKey {
    /// The app component.
    fn app(&self) -> &str;
    /// The input/slot component.
    fn slot(&self) -> &str;
}

impl SlotKey for (String, String) {
    fn app(&self) -> &str {
        &self.0
    }
    fn slot(&self) -> &str {
        &self.1
    }
}

impl SlotKey for (&str, &str) {
    fn app(&self) -> &str {
        self.0
    }
    fn slot(&self) -> &str {
        self.1
    }
}

impl<'a> Borrow<dyn SlotKey + 'a> for (String, String) {
    fn borrow(&self) -> &(dyn SlotKey + 'a) {
        self
    }
}

impl PartialEq for dyn SlotKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.app() == other.app() && self.slot() == other.slot()
    }
}

impl Eq for dyn SlotKey + '_ {}

impl PartialOrd for dyn SlotKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn SlotKey + '_ {
    // Must agree with the derived lexicographic order of the owned tuple,
    // or lookups would walk the wrong side of the tree.
    fn cmp(&self, other: &Self) -> Ordering {
        self.app()
            .cmp(other.app())
            .then_with(|| self.slot().cmp(other.slot()))
    }
}

/// Allocation-free lookup in an `(app, input)`-keyed map.
fn slot_get<'m, V>(map: &'m BTreeMap<(String, String), V>, app: &str, slot: &str) -> Option<&'m V> {
    map.get(&(app, slot) as &dyn SlotKey)
}

/// How device slots are resolved to concrete devices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Unification {
    /// Use collected configuration: `(app, input) → device id`.
    Bindings(BTreeMap<(String, String), String>),
    /// Assume two slots of the same device type are the same device
    /// (store-wide analysis, §VIII-B).
    #[default]
    ByType,
}

impl Unification {
    /// Resolves a device reference to its canonical bound form.
    pub fn resolve(&self, d: &DeviceRef) -> DeviceRef {
        match d {
            DeviceRef::Bound { .. } => d.clone(),
            DeviceRef::Unbound {
                app,
                input,
                capability,
                kind,
            } => match self {
                Unification::Bindings(map) => match slot_get(map, app, input) {
                    Some(id) => DeviceRef::bound(id.clone()),
                    None => d.clone(),
                },
                Unification::ByType => DeviceRef::Bound {
                    device_id: format!("type:{capability}/{}", kind.name()),
                },
            },
        }
    }

    /// Rewrites a rule so every device reference is resolved.
    pub fn unify_rule(&self, rule: &Rule) -> Rule {
        let map_var = |v: &VarId| -> VarId {
            match v {
                VarId::DeviceAttr { device, attribute } => VarId::DeviceAttr {
                    device: self.resolve(device),
                    attribute: attribute.clone(),
                },
                other => other.clone(),
            }
        };
        let map_formula = |f: &Formula| f.map_vars(&map_var);
        let trigger = match &rule.trigger {
            Trigger::DeviceEvent {
                subject,
                attribute,
                constraint,
            } => Trigger::DeviceEvent {
                subject: self.resolve(subject),
                attribute: attribute.clone(),
                constraint: constraint.as_ref().map(map_formula),
            },
            Trigger::ModeChange { constraint } => Trigger::ModeChange {
                constraint: constraint.as_ref().map(map_formula),
            },
            other => other.clone(),
        };
        let actions = rule
            .actions
            .iter()
            .map(|a| Action {
                subject: match &a.subject {
                    ActionSubject::Device(d) => ActionSubject::Device(self.resolve(d)),
                    other => other.clone(),
                },
                ..a.clone()
            })
            .collect();
        Rule {
            id: rule.id.clone(),
            trigger,
            condition: hg_rules::rule::Condition {
                data_constraints: rule.condition.data_constraints.clone(),
                predicate: map_formula(&rule.condition.predicate),
            },
            actions,
        }
    }
}

/// Configuration values collected at install time: `(app, input) → value`.
pub type UserValues = BTreeMap<(String, String), Value>;

/// Builds a solver model declaring domains for every variable the formulas
/// mention, substituting collected user-input values first.
///
/// The solver context (modes + user values) is sealed behind accessors:
/// every mutation goes through a setter, so the 128-bit modes fingerprint
/// the verdict-cache key needs can be maintained **once per change**
/// instead of being rehashed per pair visit.
#[derive(Debug, Clone)]
pub struct OverlapSolver {
    /// The home's location modes.
    modes: Vec<String>,
    /// Pre-hashed content fingerprint of `modes` (see
    /// [`OverlapSolver::modes_fingerprint`]), maintained by the setters.
    modes_fp: u128,
    /// Collected user-configured values.
    user_values: UserValues,
}

impl Default for OverlapSolver {
    fn default() -> Self {
        OverlapSolver::with_modes(["Home", "Away", "Night"])
    }
}

impl OverlapSolver {
    /// A solver over the given location modes and no collected values.
    pub fn with_modes(modes: impl IntoIterator<Item = impl Into<String>>) -> OverlapSolver {
        let mut solver = OverlapSolver {
            modes: Vec::new(),
            modes_fp: 0,
            user_values: UserValues::new(),
        };
        solver.set_modes(modes);
        solver
    }

    /// The home's location modes.
    pub fn modes(&self) -> &[String] {
        &self.modes
    }

    /// Replaces the home's location modes (and refreshes the cached modes
    /// fingerprint).
    pub fn set_modes(&mut self, modes: impl IntoIterator<Item = impl Into<String>>) {
        self.modes = modes.into_iter().map(Into::into).collect();
        self.modes_fp = crate::verdict_cache::fingerprint128(|h| {
            use std::hash::Hash;
            self.modes.hash(h);
        });
    }

    /// The 128-bit content fingerprint of the mode list, computed once per
    /// [`set_modes`](OverlapSolver::set_modes) call. The verdict-cache pair
    /// key hashes this instead of re-walking every mode string per pair —
    /// the pre-hash that sealing the fields made sound.
    pub fn modes_fingerprint(&self) -> u128 {
        self.modes_fp
    }

    /// The collected configuration values.
    pub fn user_values(&self) -> &UserValues {
        &self.user_values
    }

    /// Replaces the collected configuration values wholesale.
    pub fn set_user_values(&mut self, values: UserValues) {
        self.user_values = values;
    }

    /// Records one collected configuration value.
    pub fn set_user_value(
        &mut self,
        app: impl Into<String>,
        input: impl Into<String>,
        value: Value,
    ) {
        self.user_values.insert((app.into(), input.into()), value);
    }
    /// Substitutes collected configuration values into a formula. The
    /// lookup borrows the variable's `&str` components directly — no
    /// `String` clones per [`VarId::UserInput`] visit (this closure runs
    /// for every variable of every formula of every solved pair).
    pub fn substitute(&self, f: &Formula) -> Formula {
        f.substitute(&|v| match v {
            VarId::UserInput { app, name } => self.user_value(app, name).cloned(),
            _ => None,
        })
    }

    /// The collected configuration value for one user input, looked up
    /// without cloning the key.
    pub fn user_value(&self, app: &str, name: &str) -> Option<&Value> {
        slot_get(&self.user_values, app, name)
    }

    /// Solves the conjunction of `formulas` after substitution and domain
    /// declaration. This is the paper's overlapping-condition detection.
    pub fn solve(&self, formulas: &[&Formula]) -> Outcome {
        let merged = Formula::and(formulas.iter().map(|f| self.substitute(f)));
        let mut model = Model::new();
        self.declare_domains(&mut model, &merged);
        model.solve(&merged)
    }

    /// Declares domains for every variable in `f`.
    pub fn declare_domains(&self, model: &mut Model, f: &Formula) {
        for var in f.variables() {
            if model.is_declared(&var) {
                continue;
            }
            match &var {
                VarId::DeviceAttr { device, attribute } => {
                    if let Some(domain) = attr_domain(device, attribute) {
                        match domain {
                            AttrDomain::Enum(values) => {
                                model.declare_enum(var.clone(), values.iter().copied());
                            }
                            AttrDomain::Numeric { min, max, .. } => {
                                model.declare_int(var.clone(), min, max);
                            }
                            AttrDomain::Text => {}
                        }
                    }
                }
                VarId::Env(p) => {
                    let (lo, hi) = env_bounds(p);
                    model.declare_int(var.clone(), lo, hi);
                }
                VarId::Mode => {
                    model.declare_enum(var.clone(), self.modes.iter().map(String::as_str));
                }
                VarId::TimeOfDay => {
                    model.declare_int(var.clone(), 0, scaled(24 * 60));
                }
                VarId::DayOfWeek => {
                    model.declare_int(var.clone(), 0, scaled(6));
                }
                // User inputs, state and opaque sources keep inferred
                // domains.
                _ => {}
            }
        }
    }
}

/// The attribute's domain, looked up through any capability that declares it
/// (preferring the device's own capability when known).
fn attr_domain(device: &DeviceRef, attribute: &str) -> Option<AttrDomain> {
    if let Some(capname) = device.capability() {
        if let Some(cap) = capability::lookup(capname) {
            if let Some(attr) = cap.attribute(attribute) {
                return Some(attr.domain);
            }
        }
    }
    // Synthetic `type:capability/kind` ids keep the capability in the id.
    if let DeviceRef::Bound { device_id } = device {
        if let Some(rest) = device_id.strip_prefix("type:") {
            if let Some((capname, _)) = rest.split_once('/') {
                if let Some(cap) = capability::lookup(capname) {
                    if let Some(attr) = cap.attribute(attribute) {
                        return Some(attr.domain);
                    }
                }
            }
        }
    }
    capability::capabilities_with_attribute(attribute)
        .first()
        .and_then(|c| c.attribute(attribute))
        .map(|a| a.domain)
}

/// Physical bounds for environment properties (scaled).
pub fn env_bounds(property: &str) -> (i64, i64) {
    match property {
        "temperature" => (scaled(-40), scaled(150)),
        "illuminance" => (0, scaled(100_000)),
        "humidity" => (0, scaled(100)),
        "power" => (0, scaled(20_000)),
        "noise" => (0, scaled(200)),
        "airQuality" => (0, scaled(10_000)),
        _ => (scaled(-1_000_000), scaled(1_000_000)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_capability::device_kind::DeviceKind;
    use hg_rules::constraint::{CmpOp, Term};

    fn slot(app: &str, input: &str, kind: DeviceKind) -> DeviceRef {
        DeviceRef::Unbound {
            app: app.into(),
            input: input.into(),
            capability: "switch".into(),
            kind,
        }
    }

    #[test]
    fn by_type_unifies_same_kind() {
        let u = Unification::ByType;
        let a = u.resolve(&slot("A", "tv1", DeviceKind::Tv));
        let b = u.resolve(&slot("B", "tele", DeviceKind::Tv));
        let c = u.resolve(&slot("B", "lamp", DeviceKind::Light));
        assert!(a.same_device(&b));
        assert!(!a.same_device(&c));
    }

    #[test]
    fn bindings_unify_configured_devices() {
        let mut map = BTreeMap::new();
        map.insert(("A".to_string(), "tv1".to_string()), "0e0b".to_string());
        map.insert(("B".to_string(), "tele".to_string()), "0e0b".to_string());
        map.insert(("B".to_string(), "lamp".to_string()), "ffff".to_string());
        let u = Unification::Bindings(map);
        let a = u.resolve(&slot("A", "tv1", DeviceKind::Tv));
        let b = u.resolve(&slot("B", "tele", DeviceKind::Tv));
        let c = u.resolve(&slot("B", "lamp", DeviceKind::Light));
        assert!(a.same_device(&b));
        assert!(!a.same_device(&c));
        // Unconfigured slots stay unbound.
        let d = u.resolve(&slot("C", "x", DeviceKind::Tv));
        assert!(matches!(d, DeviceRef::Unbound { .. }));
    }

    #[test]
    fn substitution_uses_collected_config() {
        let mut solver = OverlapSolver::default();
        solver.set_user_value("A", "threshold", Value::Num(scaled(30)));
        let f = Formula::cmp(
            Term::var(VarId::env("temperature")),
            CmpOp::Gt,
            Term::var(VarId::UserInput {
                app: "A".into(),
                name: "threshold".into(),
            }),
        );
        let sub = solver.substitute(&f);
        assert!(sub.to_string().contains("> 30"), "{sub}");
    }

    #[test]
    fn solve_declares_device_attr_domain() {
        let solver = OverlapSolver::default();
        let dev = Unification::ByType.resolve(&slot("A", "sw", DeviceKind::Light));
        let var = VarId::device_attr(dev, "switch");
        // switch == "on" is satisfiable; "sideways" is not in the domain.
        let ok = Formula::var_eq(var.clone(), Value::sym("on"));
        assert!(solver.solve(&[&ok]).is_sat());
        let bad = Formula::var_eq(var, Value::sym("sideways"));
        assert_eq!(solver.solve(&[&bad]), Outcome::Unsat);
    }

    #[test]
    fn solve_env_bounds() {
        let solver = OverlapSolver::default();
        let too_hot = Formula::cmp(
            Term::var(VarId::env("temperature")),
            CmpOp::Gt,
            Term::num(scaled(200)),
        );
        assert_eq!(solver.solve(&[&too_hot]), Outcome::Unsat);
    }

    #[test]
    fn mode_domain_from_home_config() {
        let solver = OverlapSolver::default();
        let ok = Formula::var_eq(VarId::Mode, Value::sym("Night"));
        assert!(solver.solve(&[&ok]).is_sat());
        let bad = Formula::var_eq(VarId::Mode, Value::sym("Party"));
        assert_eq!(solver.solve(&[&bad]), Outcome::Unsat);
    }

    #[test]
    fn unify_rule_rewrites_everything() {
        let tv = slot("A", "tv1", DeviceKind::Tv);
        let rule = Rule {
            id: hg_rules::rule::RuleId::new("A", 0),
            trigger: Trigger::DeviceEvent {
                subject: tv.clone(),
                attribute: "switch".into(),
                constraint: Some(Formula::var_eq(
                    VarId::device_attr(tv.clone(), "switch"),
                    Value::sym("on"),
                )),
            },
            condition: hg_rules::rule::Condition {
                data_constraints: vec![],
                predicate: Formula::var_eq(
                    VarId::device_attr(tv.clone(), "switch"),
                    Value::sym("on"),
                ),
            },
            actions: vec![Action::device(tv, "off")],
        };
        let unified = Unification::ByType.unify_rule(&rule);
        assert!(matches!(
            unified.trigger.subject().unwrap(),
            DeviceRef::Bound { .. }
        ));
        for v in unified.condition.predicate.variables() {
            assert!(matches!(
                v,
                VarId::DeviceAttr {
                    device: DeviceRef::Bound { .. },
                    ..
                }
            ));
        }
        assert!(matches!(
            unified.actions[0].subject,
            ActionSubject::Device(DeviceRef::Bound { .. })
        ));
    }
}
