//! Field codecs for snapshot documents.
//!
//! Everything here rides on the hand-rolled [`Json`] document type from
//! `hg-rules` — rules themselves reuse the rule-file codec verbatim, so a
//! snapshot's rule encoding is *the same bytes* the store database holds.
//! Every decoder returns [`HgError::Snapshot`] naming the malformed field;
//! garbage input is a typed error, never a panic.

use hg_capability::domains::EnvProperty;
use hg_detector::{Threat, ThreatKind};
use hg_rules::json::{
    rule_from_json, rule_to_json, rules_from_text, rules_to_text, value_from_json, value_to_json,
    varid_from_json, varid_to_json, Json,
};
use hg_rules::rule::RuleId;
use hg_runtime::{HandlingPolicy, PolicyTable};
use hg_solver::Assignment;
use hg_symexec::{AppAnalysis, ExtractorConfig, InputDecl, InputType};
use homeguard_core::{HgError, HomeId, HomeState, StoreAppState, StoreState, UnificationPolicy};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Builds the crate's uniform decode failure, [`HgError::Snapshot`].
pub fn snap_err(detail: impl Into<String>) -> HgError {
    HgError::Snapshot(detail.into())
}

/// A required string field.
pub fn str_field(j: &Json, field: &str) -> Result<String, HgError> {
    j.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| snap_err(format!("missing string field `{field}`")))
}

/// A semantically non-negative numeric field (an index, a count, a
/// window). A negative value is a corrupt or forged document and must be
/// refused — blindly `as`-casting it to an unsigned type would produce a
/// huge value (e.g. a `Defer` window of u64::MAX milliseconds) instead of
/// the typed error this crate guarantees.
pub fn nonneg_field(j: &Json, field: &str) -> Result<i64, HgError> {
    let n = j
        .get(field)
        .and_then(Json::as_num)
        .ok_or_else(|| snap_err(format!("missing numeric field `{field}`")))?;
    if n < 0 {
        return Err(snap_err(format!("negative `{field}`: {n}")));
    }
    Ok(n)
}

/// An optional string field: absent or `null` reads as `None`.
pub fn opt_str_field(j: &Json, field: &str) -> Result<Option<String>, HgError> {
    match j.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| snap_err(format!("`{field}` is neither null nor a string"))),
    }
}

/// A required boolean field.
pub fn bool_field(j: &Json, field: &str) -> Result<bool, HgError> {
    match j.get(field) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(snap_err(format!("missing boolean field `{field}`"))),
    }
}

/// A required array field, borrowed.
pub fn arr_field<'a>(j: &'a Json, field: &str) -> Result<&'a [Json], HgError> {
    j.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| snap_err(format!("missing array field `{field}`")))
}

fn str_arr_field(j: &Json, field: &str) -> Result<Vec<String>, HgError> {
    arr_field(j, field)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| snap_err(format!("non-string entry in `{field}`")))
        })
        .collect()
}

/// Appends `items` to `out` as a JSON array, each element written by
/// `write`, so an element's document lives only while it is written.
fn write_each<T>(items: &[T], out: &mut String, mut write: impl FnMut(&T, &mut String)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
    out.push(']');
}

// ----- rule identities and threats -------------------------------------------

fn rule_id_to_json(r: &RuleId) -> Json {
    Json::obj([
        ("app", Json::str(&r.app)),
        ("index", Json::Num(r.index as i64)),
    ])
}

fn rule_id_from_json(j: &Json) -> Result<RuleId, HgError> {
    Ok(RuleId::new(
        str_field(j, "app")?,
        nonneg_field(j, "index")? as usize,
    ))
}

fn kind_to_json(kind: ThreatKind) -> Json {
    Json::str(kind.acronym())
}

fn kind_from_json(j: &Json) -> Result<ThreatKind, HgError> {
    let acronym = j
        .as_str()
        .ok_or_else(|| snap_err("threat kind not a string"))?;
    ThreatKind::ALL
        .into_iter()
        .find(|k| k.acronym() == acronym)
        .ok_or_else(|| snap_err(format!("unknown threat kind `{acronym}`")))
}

fn witness_to_json(witness: &Assignment) -> Json {
    Json::Arr(
        witness
            .iter()
            .map(|(var, value)| {
                Json::obj([("var", varid_to_json(var)), ("value", value_to_json(value))])
            })
            .collect(),
    )
}

fn witness_from_json(j: &Json) -> Result<Assignment, HgError> {
    let mut witness = Assignment::new();
    for entry in j.as_arr().ok_or_else(|| snap_err("witness not an array"))? {
        let var = varid_from_json(
            entry
                .get("var")
                .ok_or_else(|| snap_err("witness missing var"))?,
        )
        .map_err(snap_err)?;
        let value = value_from_json(
            entry
                .get("value")
                .ok_or_else(|| snap_err("witness missing value"))?,
        )
        .map_err(snap_err)?;
        witness.insert(var, value);
    }
    Ok(witness)
}

/// Encodes one detected threat (kind, endpoint rules, witness,
/// environment channel) as a snapshot document field.
pub fn threat_to_json(t: &Threat) -> Json {
    Json::obj([
        ("kind", kind_to_json(t.kind)),
        ("source", rule_id_to_json(&t.source)),
        ("target", rule_id_to_json(&t.target)),
        (
            "witness",
            t.witness
                .as_ref()
                .map(witness_to_json)
                .unwrap_or(Json::Null),
        ),
        (
            "actuator",
            t.actuator.as_deref().map(Json::str).unwrap_or(Json::Null),
        ),
        (
            "property",
            t.property
                .map(|p| Json::str(p.name()))
                .unwrap_or(Json::Null),
        ),
        ("note", Json::str(&t.note)),
    ])
}

/// Decodes a [`threat_to_json`] document.
pub fn threat_from_json(j: &Json) -> Result<Threat, HgError> {
    let property = match j.get("property") {
        None | Some(Json::Null) => None,
        Some(p) => {
            let name = p
                .as_str()
                .ok_or_else(|| snap_err("property not a string"))?;
            Some(
                EnvProperty::from_name(name)
                    .ok_or_else(|| snap_err(format!("unknown env property `{name}`")))?,
            )
        }
    };
    Ok(Threat {
        kind: kind_from_json(
            j.get("kind")
                .ok_or_else(|| snap_err("threat missing kind"))?,
        )?,
        source: rule_id_from_json(
            j.get("source")
                .ok_or_else(|| snap_err("threat missing source"))?,
        )?,
        target: rule_id_from_json(
            j.get("target")
                .ok_or_else(|| snap_err("threat missing target"))?,
        )?,
        witness: match j.get("witness") {
            None | Some(Json::Null) => None,
            Some(w) => Some(witness_from_json(w)?),
        },
        actuator: opt_str_field(j, "actuator")?,
        property,
        note: str_field(j, "note")?,
    })
}

// ----- handling policies ------------------------------------------------------

fn policy_to_json(p: &HandlingPolicy) -> Json {
    match p {
        HandlingPolicy::Block => Json::obj([("type", Json::str("block"))]),
        HandlingPolicy::Notify => Json::obj([("type", Json::str("notify"))]),
        HandlingPolicy::Defer { window_ms } => Json::obj([
            ("type", Json::str("defer")),
            ("windowMs", Json::Num(*window_ms as i64)),
        ]),
        HandlingPolicy::Priority(order) => Json::obj([
            ("type", Json::str("priority")),
            (
                "order",
                Json::Arr(order.iter().map(rule_id_to_json).collect()),
            ),
        ]),
    }
}

fn policy_from_json(j: &Json) -> Result<HandlingPolicy, HgError> {
    match j.get("type").and_then(Json::as_str) {
        Some("block") => Ok(HandlingPolicy::Block),
        Some("notify") => Ok(HandlingPolicy::Notify),
        Some("defer") => Ok(HandlingPolicy::Defer {
            window_ms: nonneg_field(j, "windowMs")? as u64,
        }),
        Some("priority") => Ok(HandlingPolicy::Priority(
            arr_field(j, "order")?
                .iter()
                .map(rule_id_from_json)
                .collect::<Result<_, _>>()?,
        )),
        _ => Err(snap_err("unknown handling policy type")),
    }
}

/// Encodes a runtime threat-handling policy table.
pub fn policy_table_to_json(table: &PolicyTable) -> Json {
    Json::obj([
        ("fallback", policy_to_json(table.fallback())),
        (
            "byKind",
            Json::Arr(
                table
                    .entries()
                    .map(|(kind, policy)| {
                        Json::obj([
                            ("kind", kind_to_json(kind)),
                            ("policy", policy_to_json(policy)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`policy_table_to_json`] document.
pub fn policy_table_from_json(j: &Json) -> Result<PolicyTable, HgError> {
    let fallback = policy_from_json(
        j.get("fallback")
            .ok_or_else(|| snap_err("table missing fallback"))?,
    )?;
    let mut table = PolicyTable::uniform(fallback);
    for entry in arr_field(j, "byKind")? {
        let kind = kind_from_json(
            entry
                .get("kind")
                .ok_or_else(|| snap_err("entry missing kind"))?,
        )?;
        let policy = policy_from_json(
            entry
                .get("policy")
                .ok_or_else(|| snap_err("entry missing policy"))?,
        )?;
        table = table.with(kind, policy);
    }
    Ok(table)
}

// ----- analyses and extractor configuration -----------------------------------

fn input_type_to_json(t: &InputType) -> Json {
    let (kind, arg) = match t {
        InputType::Capability(c) => ("capability", Json::str(c)),
        InputType::NonStandardDevice(d) => ("nonStandardDevice", Json::str(d)),
        InputType::Number => ("number", Json::Null),
        InputType::Decimal => ("decimal", Json::Null),
        InputType::Enum(options) => ("enum", Json::Arr(options.iter().map(Json::str).collect())),
        InputType::Text => ("text", Json::Null),
        InputType::Time => ("time", Json::Null),
        InputType::Phone => ("phone", Json::Null),
        InputType::Contact => ("contact", Json::Null),
        InputType::Mode => ("mode", Json::Null),
        InputType::Bool => ("bool", Json::Null),
        InputType::Other(o) => ("other", Json::str(o)),
    };
    Json::obj([("kind", Json::str(kind)), ("arg", arg)])
}

fn input_type_from_json(j: &Json) -> Result<InputType, HgError> {
    let arg_str = || {
        j.get("arg")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| snap_err("input type missing string arg"))
    };
    match j.get("kind").and_then(Json::as_str) {
        Some("capability") => Ok(InputType::Capability(arg_str()?)),
        Some("nonStandardDevice") => Ok(InputType::NonStandardDevice(arg_str()?)),
        Some("number") => Ok(InputType::Number),
        Some("decimal") => Ok(InputType::Decimal),
        Some("enum") => Ok(InputType::Enum(
            j.get("arg")
                .and_then(Json::as_arr)
                .ok_or_else(|| snap_err("enum input missing options"))?
                .iter()
                .map(|o| {
                    o.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| snap_err("non-string enum option"))
                })
                .collect::<Result<_, _>>()?,
        )),
        Some("text") => Ok(InputType::Text),
        Some("time") => Ok(InputType::Time),
        Some("phone") => Ok(InputType::Phone),
        Some("contact") => Ok(InputType::Contact),
        Some("mode") => Ok(InputType::Mode),
        Some("bool") => Ok(InputType::Bool),
        Some("other") => Ok(InputType::Other(arg_str()?)),
        _ => Err(snap_err("unknown input type")),
    }
}

fn input_decl_to_json(d: &InputDecl) -> Json {
    Json::obj([
        ("name", Json::str(&d.name)),
        ("type", input_type_to_json(&d.input_type)),
        (
            "title",
            d.title.as_deref().map(Json::str).unwrap_or(Json::Null),
        ),
        ("required", Json::Bool(d.required)),
        ("multiple", Json::Bool(d.multiple)),
    ])
}

fn input_decl_from_json(j: &Json) -> Result<InputDecl, HgError> {
    Ok(InputDecl {
        name: str_field(j, "name")?,
        input_type: input_type_from_json(
            j.get("type")
                .ok_or_else(|| snap_err("input missing type"))?,
        )?,
        title: opt_str_field(j, "title")?,
        required: bool_field(j, "required")?,
        multiple: bool_field(j, "multiple")?,
    })
}

/// Encodes an analysis *without* its rules — the entry's `ruleFile` next to
/// it carries those, so a snapshot holds each app's rules exactly once.
fn analysis_to_json(a: &AppAnalysis) -> Json {
    Json::obj([
        ("name", Json::str(&a.name)),
        ("description", Json::str(&a.description)),
        (
            "inputs",
            Json::Arr(a.inputs.iter().map(input_decl_to_json).collect()),
        ),
        (
            "warnings",
            Json::Arr(a.warnings.iter().map(Json::str).collect()),
        ),
        ("isWebService", Json::Bool(a.is_web_service)),
    ])
}

fn analysis_from_json(j: &Json, rules: Vec<hg_rules::rule::Rule>) -> Result<AppAnalysis, HgError> {
    Ok(AppAnalysis {
        name: str_field(j, "name")?,
        description: str_field(j, "description")?,
        inputs: arr_field(j, "inputs")?
            .iter()
            .map(input_decl_from_json)
            .collect::<Result<_, _>>()?,
        rules,
        warnings: str_arr_field(j, "warnings")?,
        is_web_service: bool_field(j, "isWebService")?,
    })
}

fn extractor_config_to_json(c: &ExtractorConfig) -> Json {
    Json::obj([
        (
            "allowNonstandardDevices",
            Json::Bool(c.allow_nonstandard_devices),
        ),
        (
            "modelUndocumentedApis",
            Json::Bool(c.model_undocumented_apis),
        ),
        ("maxPaths", Json::Num(c.max_paths as i64)),
        ("maxCallDepth", Json::Num(c.max_call_depth as i64)),
        ("loopUnroll", Json::Num(c.loop_unroll as i64)),
    ])
}

fn extractor_config_from_json(j: &Json) -> Result<ExtractorConfig, HgError> {
    Ok(ExtractorConfig {
        allow_nonstandard_devices: bool_field(j, "allowNonstandardDevices")?,
        model_undocumented_apis: bool_field(j, "modelUndocumentedApis")?,
        max_paths: nonneg_field(j, "maxPaths")? as usize,
        max_call_depth: nonneg_field(j, "maxCallDepth")? as usize,
        loop_unroll: nonneg_field(j, "loopUnroll")? as usize,
    })
}

// ----- store state ------------------------------------------------------------

/// Appends the exported rule-store database (config, apps, rule files,
/// analyses, fingerprints) to `out` as compact JSON, one app at a time.
pub fn write_store(state: &StoreState, out: &mut String) {
    out.push_str("{\"apps\":");
    write_each(&state.apps, out, |app, out| {
        Json::obj([
            ("name", Json::str(&app.name)),
            ("ruleFile", Json::Str(rules_to_text(&app.analysis.rules))),
            ("analysis", analysis_to_json(&app.analysis)),
            (
                "fingerprints",
                // u64 fingerprints bit-cast through i64: the codec's number
                // type is i64, and the cast round-trips exactly.
                Json::Arr(
                    app.fingerprints
                        .iter()
                        .map(|&fp| Json::Num(fp as i64))
                        .collect(),
                ),
            ),
        ])
        .write_to(out)
    });
    out.push_str(",\"config\":");
    extractor_config_to_json(&state.config).write_to(out);
    out.push('}');
}

/// Decodes a [`write_store`] document.
pub fn store_state_from_json(j: &Json) -> Result<StoreState, HgError> {
    let mut apps = Vec::new();
    for entry in arr_field(j, "apps")? {
        let name = str_field(entry, "name")?;
        let rules = rules_from_text(&str_field(entry, "ruleFile")?)
            .map_err(|e| snap_err(format!("rule file of `{name}`: {e}")))?;
        let analysis = entry
            .get("analysis")
            .filter(|a| **a != Json::Null)
            .ok_or_else(|| snap_err(format!("store app `{name}` has no analysis")))?;
        apps.push(StoreAppState {
            analysis: Arc::new(analysis_from_json(analysis, rules)?),
            name,
            fingerprints: arr_field(entry, "fingerprints")?
                .iter()
                .map(|fp| {
                    fp.as_num()
                        .map(|n| n as u64)
                        .ok_or_else(|| snap_err("non-numeric fingerprint"))
                })
                .collect::<Result<_, _>>()?,
        });
    }
    Ok(StoreState {
        config: extractor_config_from_json(
            j.get("config")
                .ok_or_else(|| snap_err("store missing config"))?,
        )?,
        apps,
    })
}

// ----- home state -------------------------------------------------------------

fn unification_to_json(p: UnificationPolicy) -> Json {
    Json::str(match p {
        UnificationPolicy::Auto => "auto",
        UnificationPolicy::ByType => "byType",
    })
}

fn unification_from_json(j: &Json) -> Result<UnificationPolicy, HgError> {
    match j.as_str() {
        Some("auto") => Ok(UnificationPolicy::Auto),
        Some("byType") => Ok(UnificationPolicy::ByType),
        _ => Err(snap_err("unknown unification policy")),
    }
}

/// Encodes one home's exported ground-truth state.
pub fn home_state_to_json(state: &HomeState) -> Json {
    Json::obj([
        (
            "modes",
            Json::Arr(state.modes.iter().map(Json::str).collect()),
        ),
        ("unification", unification_to_json(state.policy)),
        ("chainDepth", Json::Num(state.chain_depth as i64)),
        (
            "apps",
            Json::Arr(state.apps.iter().map(Json::str).collect()),
        ),
        (
            "rules",
            Json::Arr(state.rules.iter().map(rule_to_json).collect()),
        ),
        (
            "bindings",
            Json::Arr(
                state
                    .bindings
                    .iter()
                    .map(|(app, input, device)| {
                        Json::obj([
                            ("app", Json::str(app)),
                            ("input", Json::str(input)),
                            ("device", Json::str(device)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "values",
            Json::Arr(
                state
                    .values
                    .iter()
                    .map(|(app, input, value)| {
                        Json::obj([
                            ("app", Json::str(app)),
                            ("input", Json::str(input)),
                            ("value", value_to_json(value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "allowed",
            Json::Arr(state.allowed.iter().map(threat_to_json).collect()),
        ),
        ("handling", policy_table_to_json(&state.handling)),
    ])
}

/// Decodes a [`home_state_to_json`] document.
pub fn home_state_from_json(j: &Json) -> Result<HomeState, HgError> {
    let mut bindings = Vec::new();
    for entry in arr_field(j, "bindings")? {
        bindings.push((
            str_field(entry, "app")?,
            str_field(entry, "input")?,
            str_field(entry, "device")?,
        ));
    }
    let mut values = Vec::new();
    for entry in arr_field(j, "values")? {
        values.push((
            str_field(entry, "app")?,
            str_field(entry, "input")?,
            value_from_json(
                entry
                    .get("value")
                    .ok_or_else(|| snap_err("value entry missing value"))?,
            )
            .map_err(snap_err)?,
        ));
    }
    Ok(HomeState {
        modes: str_arr_field(j, "modes")?,
        policy: unification_from_json(
            j.get("unification")
                .ok_or_else(|| snap_err("home missing unification"))?,
        )?,
        chain_depth: nonneg_field(j, "chainDepth")? as usize,
        apps: str_arr_field(j, "apps")?,
        rules: arr_field(j, "rules")?
            .iter()
            .map(|r| rule_from_json(r).map_err(snap_err))
            .collect::<Result<_, _>>()?,
        bindings,
        values,
        allowed: arr_field(j, "allowed")?
            .iter()
            .map(threat_from_json)
            .collect::<Result<_, _>>()?,
        handling: policy_table_from_json(
            j.get("handling")
                .ok_or_else(|| snap_err("home missing handling"))?,
        )?,
    })
}

/// Appends a list of homes to `out` as `[{"home", "id"}, ...]` — the home
/// list of a fleet snapshot — one home at a time: each home's document is
/// dropped before the next is built.
pub fn write_homes(homes: &[(HomeId, HomeState)], out: &mut String) {
    write_each(homes, out, |(id, state), out| {
        out.push_str("{\"home\":");
        home_state_to_json(state).write_to(out);
        let _ = write!(out, ",\"id\":{}}}", id.raw() as i64);
    });
}

/// Decodes a [`write_homes`] list, refusing a home id listed twice.
pub fn homes_from_json(j: &Json) -> Result<Vec<(HomeId, HomeState)>, HgError> {
    let mut seen = BTreeSet::new();
    j.as_arr()
        .ok_or_else(|| snap_err("homes not an array"))?
        .iter()
        .map(|entry| {
            let id = HomeId::new(nonneg_field(entry, "id")? as u64);
            if !seen.insert(id) {
                return Err(snap_err(format!("duplicate home id {id}")));
            }
            let state = entry
                .get("home")
                .ok_or_else(|| snap_err("home entry missing state"))?;
            Ok((id, home_state_from_json(state)?))
        })
        .collect()
}
