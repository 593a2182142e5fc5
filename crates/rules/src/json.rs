//! A small self-contained JSON codec for rule files.
//!
//! The paper stores extracted rules as JSON on the HomeGuard backend
//! (§VIII-C measures an average rule file of 6.2 KB per app). We hand-roll
//! the codec rather than pull in an unapproved dependency; the format is a
//! direct structural encoding of [`Rule`].

use crate::constraint::{CmpOp, Formula, Term};
use crate::rule::{Action, ActionSubject, Condition, DataConstraint, Rule, RuleId, Trigger};
use crate::value::Value;
use crate::varid::{DeviceRef, VarId};
use hg_capability::device_kind::DeviceKind;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Version of the rule-file / snapshot schema this codec writes.
///
/// Bumped whenever the structural encoding of [`Rule`] (or anything layered
/// on it, such as `hg-persist` snapshots) changes incompatibly. Readers
/// embed it in their envelopes and refuse documents from a different
/// schema generation instead of misparsing them.
pub const SCHEMA_VERSION: i64 = 1;

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always integral in rule files).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload.
    pub fn as_num(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Appends the compact JSON text [`to_text`](Json::to_text) returns to
    /// `out`, so an encoder can write a large document one small tree at a
    /// time instead of building the whole document as one tree.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError {
                pos: p.pos,
                message: "trailing characters",
            });
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Description of the problem.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            pos: self.pos,
            message,
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<i64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'/') => out.push('/'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let text = std::str::from_utf8(&self.bytes[self.pos..run])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(text);
                    self.pos = run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

// ----- rule encoding ----------------------------------------------------------

/// Encodes a rule to its JSON document.
pub fn rule_to_json(rule: &Rule) -> Json {
    Json::obj([
        ("app", Json::str(&rule.id.app)),
        ("index", Json::Num(rule.id.index as i64)),
        ("trigger", trigger_to_json(&rule.trigger)),
        ("condition", condition_to_json(&rule.condition)),
        (
            "actions",
            Json::Arr(rule.actions.iter().map(action_to_json).collect()),
        ),
    ])
}

/// Decodes a rule from its JSON document.
///
/// # Errors
///
/// Returns a static message naming the first malformed field.
pub fn rule_from_json(json: &Json) -> Result<Rule, &'static str> {
    let app = json
        .get("app")
        .and_then(Json::as_str)
        .ok_or("missing app")?;
    let index = json
        .get("index")
        .and_then(Json::as_num)
        .ok_or("missing index")? as usize;
    let trigger = trigger_from_json(json.get("trigger").ok_or("missing trigger")?)?;
    let condition = condition_from_json(json.get("condition").ok_or("missing condition")?)?;
    let actions = json
        .get("actions")
        .and_then(Json::as_arr)
        .ok_or("missing actions")?
        .iter()
        .map(action_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rule {
        id: RuleId::new(app, index),
        trigger,
        condition,
        actions,
    })
}

/// Serializes a set of rules (an app's rule file) to JSON text.
pub fn rules_to_text(rules: &[Rule]) -> String {
    Json::Arr(rules.iter().map(rule_to_json).collect()).to_text()
}

/// Parses an app's rule file back.
///
/// # Errors
///
/// Returns a message for malformed JSON or rule structure.
pub fn rules_from_text(text: &str) -> Result<Vec<Rule>, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    json.as_arr()
        .ok_or_else(|| "rule file must be a JSON array".to_string())?
        .iter()
        .map(|j| rule_from_json(j).map_err(|e| e.to_string()))
        .collect()
}

fn trigger_to_json(t: &Trigger) -> Json {
    match t {
        Trigger::DeviceEvent {
            subject,
            attribute,
            constraint,
        } => Json::obj([
            ("type", Json::str("deviceEvent")),
            ("subject", device_ref_to_json(subject)),
            ("attribute", Json::str(attribute)),
            (
                "constraint",
                constraint
                    .as_ref()
                    .map(formula_to_json)
                    .unwrap_or(Json::Null),
            ),
        ]),
        Trigger::ModeChange { constraint } => Json::obj([
            ("type", Json::str("modeChange")),
            (
                "constraint",
                constraint
                    .as_ref()
                    .map(formula_to_json)
                    .unwrap_or(Json::Null),
            ),
        ]),
        Trigger::TimeOfDay {
            at_minutes,
            description,
        } => Json::obj([
            ("type", Json::str("timeOfDay")),
            (
                "atMinutes",
                at_minutes
                    .map(|m| Json::Num(m as i64))
                    .unwrap_or(Json::Null),
            ),
            ("description", Json::str(description)),
        ]),
        Trigger::Periodic { period_secs } => Json::obj([
            ("type", Json::str("periodic")),
            ("periodSecs", Json::Num(*period_secs as i64)),
        ]),
        Trigger::AppTouch => Json::obj([("type", Json::str("appTouch"))]),
    }
}

fn trigger_from_json(j: &Json) -> Result<Trigger, &'static str> {
    match j.get("type").and_then(Json::as_str) {
        Some("deviceEvent") => Ok(Trigger::DeviceEvent {
            subject: device_ref_from_json(j.get("subject").ok_or("missing subject")?)?,
            attribute: j
                .get("attribute")
                .and_then(Json::as_str)
                .ok_or("missing attribute")?
                .to_string(),
            constraint: optional_formula(j.get("constraint"))?,
        }),
        Some("modeChange") => Ok(Trigger::ModeChange {
            constraint: optional_formula(j.get("constraint"))?,
        }),
        Some("timeOfDay") => Ok(Trigger::TimeOfDay {
            at_minutes: j.get("atMinutes").and_then(Json::as_num).map(|n| n as u32),
            description: j
                .get("description")
                .and_then(Json::as_str)
                .ok_or("missing description")?
                .to_string(),
        }),
        Some("periodic") => Ok(Trigger::Periodic {
            period_secs: j
                .get("periodSecs")
                .and_then(Json::as_num)
                .ok_or("missing period")? as u64,
        }),
        Some("appTouch") => Ok(Trigger::AppTouch),
        _ => Err("unknown trigger type"),
    }
}

fn optional_formula(j: Option<&Json>) -> Result<Option<Formula>, &'static str> {
    match j {
        None | Some(Json::Null) => Ok(None),
        Some(other) => formula_from_json(other).map(Some),
    }
}

fn condition_to_json(c: &Condition) -> Json {
    Json::obj([
        (
            "dataConstraints",
            Json::Arr(
                c.data_constraints
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(&d.name)),
                            ("term", term_to_json(&d.term)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("predicate", formula_to_json(&c.predicate)),
    ])
}

fn condition_from_json(j: &Json) -> Result<Condition, &'static str> {
    let data_constraints = j
        .get("dataConstraints")
        .and_then(Json::as_arr)
        .ok_or("missing dataConstraints")?
        .iter()
        .map(|d| {
            Ok(DataConstraint {
                name: d
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("missing dc name")?
                    .to_string(),
                term: term_from_json(d.get("term").ok_or("missing dc term")?)?,
            })
        })
        .collect::<Result<Vec<_>, &'static str>>()?;
    let predicate = formula_from_json(j.get("predicate").ok_or("missing predicate")?)?;
    Ok(Condition {
        data_constraints,
        predicate,
    })
}

fn action_to_json(a: &Action) -> Json {
    let subject = match &a.subject {
        ActionSubject::Device(d) => Json::obj([
            ("type", Json::str("device")),
            ("device", device_ref_to_json(d)),
        ]),
        ActionSubject::LocationMode => Json::obj([("type", Json::str("locationMode"))]),
        ActionSubject::Message { target } => Json::obj([
            ("type", Json::str("message")),
            (
                "target",
                target.as_ref().map(Json::str).unwrap_or(Json::Null),
            ),
        ]),
        ActionSubject::Http { method, url } => Json::obj([
            ("type", Json::str("http")),
            ("method", Json::str(method)),
            ("url", url.as_ref().map(Json::str).unwrap_or(Json::Null)),
        ]),
        ActionSubject::HubCommand => Json::obj([("type", Json::str("hubCommand"))]),
    };
    Json::obj([
        ("subject", subject),
        ("command", Json::str(&a.command)),
        (
            "params",
            Json::Arr(a.params.iter().map(term_to_json).collect()),
        ),
        ("when", Json::Num(a.when_secs as i64)),
        ("period", Json::Num(a.period_secs as i64)),
    ])
}

fn action_from_json(j: &Json) -> Result<Action, &'static str> {
    let sj = j.get("subject").ok_or("missing subject")?;
    let subject = match sj.get("type").and_then(Json::as_str) {
        Some("device") => ActionSubject::Device(device_ref_from_json(
            sj.get("device").ok_or("missing device")?,
        )?),
        Some("locationMode") => ActionSubject::LocationMode,
        Some("message") => ActionSubject::Message {
            target: sj.get("target").and_then(Json::as_str).map(str::to_string),
        },
        Some("http") => ActionSubject::Http {
            method: sj
                .get("method")
                .and_then(Json::as_str)
                .ok_or("missing method")?
                .to_string(),
            url: sj.get("url").and_then(Json::as_str).map(str::to_string),
        },
        Some("hubCommand") => ActionSubject::HubCommand,
        _ => return Err("unknown action subject"),
    };
    Ok(Action {
        subject,
        command: j
            .get("command")
            .and_then(Json::as_str)
            .ok_or("missing command")?
            .to_string(),
        params: j
            .get("params")
            .and_then(Json::as_arr)
            .ok_or("missing params")?
            .iter()
            .map(term_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        when_secs: j.get("when").and_then(Json::as_num).unwrap_or(0) as u64,
        period_secs: j.get("period").and_then(Json::as_num).unwrap_or(0) as u64,
    })
}

fn device_ref_to_json(d: &DeviceRef) -> Json {
    match d {
        DeviceRef::Bound { device_id } => Json::obj([
            ("bound", Json::Bool(true)),
            ("deviceId", Json::str(device_id)),
        ]),
        DeviceRef::Unbound {
            app,
            input,
            capability,
            kind,
        } => Json::obj([
            ("bound", Json::Bool(false)),
            ("app", Json::str(app)),
            ("input", Json::str(input)),
            ("capability", Json::str(capability)),
            ("kind", Json::str(kind.name())),
        ]),
    }
}

fn device_ref_from_json(j: &Json) -> Result<DeviceRef, &'static str> {
    match j.get("bound") {
        Some(Json::Bool(true)) => Ok(DeviceRef::Bound {
            device_id: j
                .get("deviceId")
                .and_then(Json::as_str)
                .ok_or("missing deviceId")?
                .to_string(),
        }),
        Some(Json::Bool(false)) => {
            let kind_name = j.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
            let kind = DeviceKind::ALL
                .into_iter()
                .find(|k| k.name() == kind_name)
                .unwrap_or(DeviceKind::Unknown);
            Ok(DeviceRef::Unbound {
                app: j
                    .get("app")
                    .and_then(Json::as_str)
                    .ok_or("missing app")?
                    .to_string(),
                input: j
                    .get("input")
                    .and_then(Json::as_str)
                    .ok_or("missing input")?
                    .to_string(),
                capability: j
                    .get("capability")
                    .and_then(Json::as_str)
                    .ok_or("missing capability")?
                    .to_string(),
                kind,
            })
        }
        _ => Err("missing bound flag"),
    }
}

/// Encodes a [`Value`] (shared with `hg-persist` session snapshots).
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Num(n) => Json::obj([("num", Json::Num(*n))]),
        Value::Sym(s) => Json::obj([("sym", Json::str(s))]),
        Value::Bool(b) => Json::obj([("bool", Json::Bool(*b))]),
        Value::Null => Json::Null,
    }
}

/// Decodes a [`Value`].
///
/// # Errors
///
/// Returns a static message on a malformed document.
pub fn value_from_json(j: &Json) -> Result<Value, &'static str> {
    if *j == Json::Null {
        return Ok(Value::Null);
    }
    if let Some(n) = j.get("num").and_then(Json::as_num) {
        return Ok(Value::Num(n));
    }
    if let Some(s) = j.get("sym").and_then(Json::as_str) {
        return Ok(Value::Sym(s.to_string()));
    }
    if let Some(Json::Bool(b)) = j.get("bool") {
        return Ok(Value::Bool(*b));
    }
    Err("invalid value")
}

/// Encodes a [`VarId`] (shared with `hg-persist` witness snapshots).
pub fn varid_to_json(v: &VarId) -> Json {
    match v {
        VarId::DeviceAttr { device, attribute } => Json::obj([
            ("type", Json::str("deviceAttr")),
            ("device", device_ref_to_json(device)),
            ("attribute", Json::str(attribute)),
        ]),
        VarId::Env(p) => Json::obj([("type", Json::str("env")), ("property", Json::str(p))]),
        VarId::Mode => Json::obj([("type", Json::str("mode"))]),
        VarId::TimeOfDay => Json::obj([("type", Json::str("timeOfDay"))]),
        VarId::DayOfWeek => Json::obj([("type", Json::str("dayOfWeek"))]),
        VarId::UserInput { app, name } => Json::obj([
            ("type", Json::str("userInput")),
            ("app", Json::str(app)),
            ("name", Json::str(name)),
        ]),
        VarId::State { app, name } => Json::obj([
            ("type", Json::str("state")),
            ("app", Json::str(app)),
            ("name", Json::str(name)),
        ]),
        VarId::Opaque { app, name } => Json::obj([
            ("type", Json::str("opaque")),
            ("app", Json::str(app)),
            ("name", Json::str(name)),
        ]),
    }
}

/// Decodes a [`VarId`].
///
/// # Errors
///
/// Returns a static message on a malformed document.
pub fn varid_from_json(j: &Json) -> Result<VarId, &'static str> {
    let get_app_name = || -> Result<(String, String), &'static str> {
        Ok((
            j.get("app")
                .and_then(Json::as_str)
                .ok_or("missing app")?
                .to_string(),
            j.get("name")
                .and_then(Json::as_str)
                .ok_or("missing name")?
                .to_string(),
        ))
    };
    match j.get("type").and_then(Json::as_str) {
        Some("deviceAttr") => Ok(VarId::DeviceAttr {
            device: device_ref_from_json(j.get("device").ok_or("missing device")?)?,
            attribute: j
                .get("attribute")
                .and_then(Json::as_str)
                .ok_or("missing attribute")?
                .to_string(),
        }),
        Some("env") => Ok(VarId::Env(
            j.get("property")
                .and_then(Json::as_str)
                .ok_or("missing property")?
                .to_string(),
        )),
        Some("mode") => Ok(VarId::Mode),
        Some("timeOfDay") => Ok(VarId::TimeOfDay),
        Some("dayOfWeek") => Ok(VarId::DayOfWeek),
        Some("userInput") => {
            let (app, name) = get_app_name()?;
            Ok(VarId::UserInput { app, name })
        }
        Some("state") => {
            let (app, name) = get_app_name()?;
            Ok(VarId::State { app, name })
        }
        Some("opaque") => {
            let (app, name) = get_app_name()?;
            Ok(VarId::Opaque { app, name })
        }
        _ => Err("unknown varid type"),
    }
}

fn term_to_json(t: &Term) -> Json {
    match t {
        Term::Const(v) => Json::obj([("const", value_to_json(v))]),
        Term::Var(v) => Json::obj([("var", varid_to_json(v))]),
        Term::Add(a, b) => binop_json("add", a, b),
        Term::Sub(a, b) => binop_json("sub", a, b),
        Term::Mul(a, b) => binop_json("mul", a, b),
        Term::Div(a, b) => binop_json("div", a, b),
        Term::Neg(a) => Json::obj([("neg", term_to_json(a))]),
    }
}

fn binop_json(op: &'static str, a: &Term, b: &Term) -> Json {
    Json::obj([(op, Json::Arr(vec![term_to_json(a), term_to_json(b)]))])
}

fn term_from_json(j: &Json) -> Result<Term, &'static str> {
    if let Some(v) = j.get("const") {
        return Ok(Term::Const(value_from_json(v)?));
    }
    if let Some(v) = j.get("var") {
        return Ok(Term::Var(varid_from_json(v)?));
    }
    for (key, ctor) in [
        ("add", Term::Add as fn(Box<Term>, Box<Term>) -> Term),
        ("sub", Term::Sub),
        ("mul", Term::Mul),
        ("div", Term::Div),
    ] {
        if let Some(pair) = j.get(key).and_then(Json::as_arr) {
            if pair.len() != 2 {
                return Err("binary term needs two operands");
            }
            return Ok(ctor(
                Box::new(term_from_json(&pair[0])?),
                Box::new(term_from_json(&pair[1])?),
            ));
        }
    }
    if let Some(inner) = j.get("neg") {
        return Ok(Term::Neg(Box::new(term_from_json(inner)?)));
    }
    Err("invalid term")
}

fn formula_to_json(f: &Formula) -> Json {
    match f {
        Formula::True => Json::Bool(true),
        Formula::False => Json::Bool(false),
        Formula::Cmp { lhs, op, rhs } => Json::obj([
            ("lhs", term_to_json(lhs)),
            ("op", Json::str(op.symbol())),
            ("rhs", term_to_json(rhs)),
        ]),
        Formula::And(parts) => Json::obj([(
            "and",
            Json::Arr(parts.iter().map(formula_to_json).collect()),
        )]),
        Formula::Or(parts) => {
            Json::obj([("or", Json::Arr(parts.iter().map(formula_to_json).collect()))])
        }
        Formula::Not(inner) => Json::obj([("not", formula_to_json(inner))]),
    }
}

fn formula_from_json(j: &Json) -> Result<Formula, &'static str> {
    match j {
        Json::Bool(true) => return Ok(Formula::True),
        Json::Bool(false) => return Ok(Formula::False),
        _ => {}
    }
    if let Some(parts) = j.get("and").and_then(Json::as_arr) {
        return Ok(Formula::And(
            parts
                .iter()
                .map(formula_from_json)
                .collect::<Result<_, _>>()?,
        ));
    }
    if let Some(parts) = j.get("or").and_then(Json::as_arr) {
        return Ok(Formula::Or(
            parts
                .iter()
                .map(formula_from_json)
                .collect::<Result<_, _>>()?,
        ));
    }
    if let Some(inner) = j.get("not") {
        return Ok(Formula::Not(Box::new(formula_from_json(inner)?)));
    }
    let op_text = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or("invalid formula")?;
    let op = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ]
    .into_iter()
    .find(|o| o.symbol() == op_text)
    .ok_or("unknown operator")?;
    Ok(Formula::Cmp {
        lhs: term_from_json(j.get("lhs").ok_or("missing lhs")?)?,
        op,
        rhs: term_from_json(j.get("rhs").ok_or("missing rhs")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CmpOp;
    use crate::rule::{Condition, Trigger};

    #[test]
    fn json_value_roundtrip() {
        let doc = Json::obj([
            ("a", Json::Num(-5)),
            ("b", Json::str("hi \"there\"\n")),
            ("c", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("d", Json::Obj(BTreeMap::new())),
        ]);
        let text = doc.to_text();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn json_parse_errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123abc").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn long_mixed_strings_round_trip_in_linear_time() {
        // Over 256 KiB of ASCII, multibyte characters and every escape the
        // writer emits, in one string.
        let unit = "plain ascii, ünïcödé, 漢字, 🏠 \"quoted\" back\\slash\n\t\r\u{1}/ ";
        let long: String = unit.repeat(256 * 1024 / unit.len() + 1);
        assert!(long.len() >= 256 * 1024);
        let doc = Json::obj([("s", Json::str(long.clone()))]);
        let text = doc.to_text();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(long.as_str()));
        assert!(elapsed.as_secs() < 2, "parse took {elapsed:?}");
    }

    #[test]
    fn json_whitespace_tolerant() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    fn sample_rule() -> Rule {
        let window = DeviceRef::Unbound {
            app: "ComfortTV".into(),
            input: "window1".into(),
            capability: "switch".into(),
            kind: DeviceKind::WindowOpener,
        };
        let tv = DeviceRef::Unbound {
            app: "ComfortTV".into(),
            input: "tv1".into(),
            capability: "switch".into(),
            kind: DeviceKind::Tv,
        };
        Rule {
            id: RuleId::new("ComfortTV", 0),
            trigger: Trigger::DeviceEvent {
                subject: tv.clone(),
                attribute: "switch".into(),
                constraint: Some(Formula::var_eq(
                    VarId::device_attr(tv, "switch"),
                    Value::sym("on"),
                )),
            },
            condition: Condition {
                data_constraints: vec![DataConstraint {
                    name: "t".into(),
                    term: Term::var(VarId::env("temperature")),
                }],
                predicate: Formula::and([
                    Formula::cmp(
                        Term::var(VarId::env("temperature")),
                        CmpOp::Gt,
                        Term::var(VarId::UserInput {
                            app: "ComfortTV".into(),
                            name: "threshold1".into(),
                        }),
                    ),
                    Formula::var_eq(
                        VarId::device_attr(window.clone(), "switch"),
                        Value::sym("off"),
                    ),
                ]),
            },
            actions: vec![Action::device(window, "on")],
        }
    }

    #[test]
    fn rule_roundtrip() {
        let r = sample_rule();
        let encoded = rule_to_json(&r);
        let decoded = rule_from_json(&encoded).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn rule_file_roundtrip() {
        let rules = vec![sample_rule(), sample_rule()];
        let text = rules_to_text(&rules);
        let back = rules_from_text(&text).unwrap();
        assert_eq!(back, rules);
    }

    #[test]
    fn rule_file_size_is_reasonable() {
        // Sanity for the §VIII-C size experiment: a one-rule app encodes to
        // a few KB at most.
        let text = rules_to_text(&[sample_rule()]);
        assert!(text.len() > 100);
        assert!(
            text.len() < 8_000,
            "rule file unexpectedly large: {}",
            text.len()
        );
    }

    #[test]
    fn all_trigger_kinds_roundtrip() {
        for trig in [
            Trigger::ModeChange { constraint: None },
            Trigger::TimeOfDay {
                at_minutes: Some(420),
                description: "7:00".into(),
            },
            Trigger::TimeOfDay {
                at_minutes: None,
                description: "sunset".into(),
            },
            Trigger::Periodic { period_secs: 300 },
            Trigger::AppTouch,
        ] {
            let mut r = sample_rule();
            r.trigger = trig;
            let decoded = rule_from_json(&rule_to_json(&r)).unwrap();
            assert_eq!(decoded, r);
        }
    }

    #[test]
    fn all_action_subjects_roundtrip() {
        for subject in [
            ActionSubject::LocationMode,
            ActionSubject::Message {
                target: Some("555".into()),
            },
            ActionSubject::Message { target: None },
            ActionSubject::Http {
                method: "POST".into(),
                url: Some("http://x".into()),
            },
            ActionSubject::HubCommand,
        ] {
            let mut r = sample_rule();
            r.actions = vec![Action {
                subject,
                command: "go".into(),
                params: vec![Term::num(5), Term::sym("x")],
                when_secs: 60,
                period_secs: 300,
            }];
            let decoded = rule_from_json(&rule_to_json(&r)).unwrap();
            assert_eq!(decoded, r);
        }
    }

    #[test]
    fn nested_term_roundtrip() {
        let t = Term::Add(
            Box::new(Term::Mul(
                Box::new(Term::num(2)),
                Box::new(Term::var(VarId::Mode)),
            )),
            Box::new(Term::Neg(Box::new(Term::num(7)))),
        );
        let decoded = term_from_json(&term_to_json(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn malformed_rule_rejected() {
        let j = Json::obj([("app", Json::str("X"))]);
        assert!(rule_from_json(&j).is_err());
        assert!(rules_from_text("{}").is_err());
        assert!(rules_from_text("not json").is_err());
    }
}
