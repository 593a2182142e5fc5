//! The JSON wire format: report encodings and the error taxonomy mapping.
//!
//! Everything rides on [`hg_rules::json::Json`] — the same hand-rolled
//! codec rule files and snapshots use — so the API layer introduces no
//! second JSON dialect. Every [`HgError`] maps to one HTTP status
//! ([`ApiError::from`]), so a client can switch on status alone and read
//! the machine-readable `code` for the exact variant.

use hg_detector::{HotPair, Threat};
use hg_rules::json::{Json, JsonError};
use hg_service::{
    BulkOutcomes, ForceUninstall, HgError, InstallReport, ShardRollout, UninstallReport,
    UpgradeRollout,
};

/// A route failure: the status to answer with, a stable machine-readable
/// code, and a human-readable message.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status.
    pub status: u16,
    /// Stable error code (`unknown_home`, `queue_full`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A fresh error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// A 400 for a structurally bad request body.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// The JSON error body every failed route answers with.
    pub fn body(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("code", Json::str(self.code)),
                ("message", Json::str(&self.message)),
            ]),
        )])
    }
}

impl From<HgError> for ApiError {
    fn from(error: HgError) -> ApiError {
        hg_error_ref_to_api(&error)
    }
}

impl From<JsonError> for ApiError {
    fn from(error: JsonError) -> ApiError {
        ApiError::new(400, "bad_json", error.to_string())
    }
}

impl From<crate::exec::ExecError> for ApiError {
    fn from(error: crate::exec::ExecError) -> ApiError {
        match error {
            crate::exec::ExecError::Busy { depth } => ApiError::new(
                429,
                "queue_full",
                format!("shard queue full ({depth} jobs deep)"),
            ),
            crate::exec::ExecError::Gone => {
                ApiError::new(503, "executor_gone", "executor stopped or job died")
            }
        }
    }
}

fn threat_json(threat: &Threat) -> Json {
    Json::obj([
        ("kind", Json::str(threat.kind.acronym())),
        (
            "source",
            Json::str(format!("{}#{}", threat.source.app, threat.source.index)),
        ),
        (
            "target",
            Json::str(format!("{}#{}", threat.target.app, threat.target.index)),
        ),
        (
            "actuator",
            threat
                .actuator
                .as_deref()
                .map(Json::str)
                .unwrap_or(Json::Null),
        ),
        ("note", Json::str(&threat.note)),
    ])
}

/// Encodes an install/upgrade report. `pending` mirrors `!installed`: a
/// dirty verdict the caller must confirm (the full report is stashed
/// server-side in the session).
pub fn install_report_json(report: &InstallReport) -> Json {
    Json::obj([
        ("app", Json::str(&report.app)),
        ("installed", Json::Bool(report.installed)),
        ("pending", Json::Bool(!report.installed)),
        (
            "replaces",
            report
                .replaces
                .as_deref()
                .map(Json::str)
                .unwrap_or(Json::Null),
        ),
        (
            "threats",
            Json::Arr(report.threats.iter().map(threat_json).collect()),
        ),
        ("chains", Json::Num(report.chains.len() as i64)),
        (
            "dropped_ranks",
            Json::Arr(
                report
                    .dropped_ranks
                    .iter()
                    .map(|id| Json::str(format!("{}#{}", id.app, id.index)))
                    .collect(),
            ),
        ),
    ])
}

/// Encodes an uninstall report.
pub fn uninstall_report_json(report: &UninstallReport) -> Json {
    Json::obj([
        ("app", Json::str(&report.app)),
        (
            "removed_rules",
            Json::Num(report.removed_rules.len() as i64),
        ),
        ("retired_threats", Json::Num(report.retired_threats as i64)),
        (
            "dropped_ranks",
            Json::Num(report.dropped_ranks.len() as i64),
        ),
    ])
}

/// Encodes per-home bulk outcomes, in request order.
pub fn bulk_json(outcomes: &BulkOutcomes) -> Json {
    Json::Arr(
        outcomes
            .iter()
            .map(|(id, outcome)| match outcome {
                Ok(report) => Json::obj([
                    ("home", Json::Num(id.raw() as i64)),
                    ("report", install_report_json(report)),
                ]),
                Err(error) => {
                    let mapped = hg_error_ref_to_api(error);
                    Json::obj([
                        ("home", Json::Num(id.raw() as i64)),
                        (
                            "error",
                            mapped.body().get("error").cloned().unwrap_or(Json::Null),
                        ),
                    ])
                }
            })
            .collect(),
    )
}

/// Maps a borrowed [`HgError`] (bulk outcomes own their errors) to the
/// same status/code an owned conversion would produce.
fn hg_error_ref_to_api(error: &HgError) -> ApiError {
    let (status, code) = match error {
        HgError::UnknownHome(_) => (404, "unknown_home"),
        HgError::UnknownApp(_) => (404, "unknown_app"),
        HgError::AlreadyInstalled(_) => (409, "already_installed"),
        HgError::UnconfirmedInstall(_) => (409, "unconfirmed_install"),
        HgError::UpgradeRenames { .. } => (409, "upgrade_renames"),
        HgError::Extract { .. } => (422, "extract_failed"),
        HgError::Poisoned(_) => (503, "poisoned"),
        HgError::Snapshot(_) => (400, "bad_snapshot"),
        HgError::Journal(_) => (500, "journal_failed"),
        // Retryable: nothing was applied; heal the journal and resend.
        HgError::Degraded(_) => (503, "degraded"),
        _ => (500, "internal"),
    };
    ApiError::new(status, code, error.to_string())
}

/// Encodes one shard's streamed rollout progress line.
pub fn shard_part_json(shard: usize, part: &ShardRollout) -> Json {
    Json::obj([
        ("shard", Json::Num(shard as i64)),
        ("poisoned", Json::Bool(part.poisoned)),
        ("refused", Json::Bool(part.refused)),
        (
            "upgraded",
            Json::Arr(
                part.upgraded
                    .iter()
                    .map(|id| Json::Num(id.raw() as i64))
                    .collect(),
            ),
        ),
        (
            "pending",
            Json::Arr(
                part.pending
                    .iter()
                    .map(|(id, _)| Json::Num(id.raw() as i64))
                    .collect(),
            ),
        ),
        ("skipped", Json::Num(part.skipped as i64)),
        ("failed", Json::Num(part.failed.len() as i64)),
    ])
}

/// Encodes the merged fleet-wide rollout.
pub fn rollout_json(rollout: &UpgradeRollout) -> Json {
    Json::obj([
        ("app", Json::str(&rollout.app)),
        (
            "upgraded",
            Json::Arr(
                rollout
                    .upgraded
                    .iter()
                    .map(|id| Json::Num(id.raw() as i64))
                    .collect(),
            ),
        ),
        (
            "pending",
            Json::Arr(
                rollout
                    .pending
                    .iter()
                    .map(|(id, _)| Json::Num(id.raw() as i64))
                    .collect(),
            ),
        ),
        ("skipped", Json::Num(rollout.skipped as i64)),
        (
            "failed",
            Json::Arr(
                rollout
                    .failed
                    .iter()
                    .map(|(id, e)| {
                        Json::obj([
                            ("home", Json::Num(id.raw() as i64)),
                            ("message", Json::str(e.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("poisoned_shards", Json::Num(rollout.poisoned_shards as i64)),
        ("refused_shards", Json::Num(rollout.refused_shards as i64)),
        (
            "journal_lapses",
            Json::Num(rollout.journal_lapses.len() as i64),
        ),
    ])
}

/// Encodes a fleet-wide forced uninstall outcome.
pub fn force_uninstall_json(outcome: &ForceUninstall) -> Json {
    Json::obj([
        ("app", Json::str(&outcome.app)),
        (
            "removed",
            Json::Arr(
                outcome
                    .removed
                    .iter()
                    .map(|(id, report)| {
                        Json::obj([
                            ("home", Json::Num(id.raw() as i64)),
                            ("report", uninstall_report_json(report)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("skipped", Json::Num(outcome.skipped as i64)),
        ("failed", Json::Num(outcome.failed.len() as i64)),
        ("poisoned_shards", Json::Num(outcome.poisoned_shards as i64)),
        ("refused_shards", Json::Num(outcome.refused_shards as i64)),
        (
            "journal_lapses",
            Json::Num(outcome.journal_lapses.len() as i64),
        ),
        ("store_retired", Json::Bool(outcome.store_retired)),
        (
            "store_error",
            outcome.store_error.as_ref().map_or(Json::Null, Json::str),
        ),
    ])
}

/// Encodes the verdict-cache hot-pair leaderboard (the
/// `/analytics/hot-pairs` body): which app pairs the fleet re-checks
/// most, and how much interference they carry.
pub fn hot_pairs_json(pairs: &[HotPair]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|pair| {
                Json::obj([
                    ("apps", Json::Arr(pair.apps.iter().map(Json::str).collect())),
                    ("hits", Json::Num(pair.hits as i64)),
                    ("entries", Json::Num(pair.entries as i64)),
                    ("threats", Json::Num(pair.threats as i64)),
                ])
            })
            .collect(),
    )
}

/// Parses a request body as a JSON object.
///
/// # Errors
///
/// A 400 [`ApiError`] for non-UTF-8, non-JSON or non-object bodies.
pub fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request("empty body where JSON is required"));
    }
    let json = Json::parse(text)?;
    if !matches!(json, Json::Obj(_)) {
        return Err(ApiError::bad_request("body must be a JSON object"));
    }
    Ok(json)
}

/// Extracts a required string field.
///
/// # Errors
///
/// A 400 [`ApiError`] naming the missing/mistyped field.
pub fn need_str<'a>(body: &'a Json, field: &str) -> Result<&'a str, ApiError> {
    body.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("missing string field `{field}`")))
}

/// Extracts a required array of home ids.
///
/// # Errors
///
/// A 400 [`ApiError`] naming the missing/mistyped field.
pub fn need_home_ids(body: &Json, field: &str) -> Result<Vec<hg_service::HomeId>, ApiError> {
    let arr = body
        .get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request(format!("missing array field `{field}`")))?;
    arr.iter()
        .map(|v| {
            v.as_num()
                .filter(|n| *n >= 0)
                .map(|n| hg_service::HomeId::new(n as u64))
                .ok_or_else(|| {
                    ApiError::bad_request(format!("`{field}` entries must be non-negative ids"))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hg_error_variant_maps_to_a_distinct_intentional_status() {
        use hg_service::HomeId;
        let cases: Vec<(HgError, u16)> = vec![
            (HgError::UnknownHome(HomeId::new(1)), 404),
            (HgError::UnknownApp("X".into()), 404),
            (HgError::AlreadyInstalled("X".into()), 409),
            (HgError::UnconfirmedInstall("X".into()), 409),
            (
                HgError::UpgradeRenames {
                    installed: "A".into(),
                    new: "B".into(),
                },
                409,
            ),
            (HgError::Poisoned("shard"), 503),
            (HgError::Snapshot("bad".into()), 400),
            (HgError::Journal("segment 3 torn".into()), 500),
            (HgError::Degraded("journal quarantined".into()), 503),
        ];
        for (error, status) in cases {
            let api = ApiError::from(error);
            assert_eq!(api.status, status, "{}", api.message);
            assert!(api.body().get("error").is_some());
        }
    }

    #[test]
    fn body_parsing_refuses_garbage_with_400() {
        assert_eq!(parse_body(b"{\"a\":1}").unwrap().as_num(), None);
        assert_eq!(parse_body(&[0xff, 0xfe]).unwrap_err().status, 400);
        assert_eq!(parse_body(b"not json").unwrap_err().status, 400);
        assert_eq!(parse_body(b"[1,2]").unwrap_err().status, 400);
        assert_eq!(parse_body(b"").unwrap_err().status, 400);
        let body = parse_body(b"{\"app\": \"X\", \"homes\": [1, 2]}").unwrap();
        assert_eq!(need_str(&body, "app").unwrap(), "X");
        assert_eq!(need_str(&body, "ghost").unwrap_err().status, 400);
        assert_eq!(need_home_ids(&body, "homes").unwrap().len(), 2);
        assert_eq!(need_home_ids(&body, "app").unwrap_err().status, 400);
    }
}
