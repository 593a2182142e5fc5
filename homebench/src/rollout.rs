//! `fleet_rollout`: one operator client over a generated fleet of ~20k
//! homes (relay ladders, config rebinds), checkpointed at the end of
//! set-up. Each round streams a `POST /fleet/upgrades` of a new palette
//! app version, then a `POST /fleet/install_many` + `POST /fleet/uninstall`
//! pair, then a `GET /stats`. The work is shard fan-out,
//! verdict-cache refill after each re-ingest, chain search on long Allowed
//! lists, sweep journal records, and checkpoint decode plus replay.

use crate::churn::palette;
use crate::rig::{self, Conn, Rig};
use crate::trace::{rollout_line, Lower};
use crate::{exchange, Bench, Checks, Done, Metric, Op, Stop};
use hg_bench::fleet_gen::{populate, FleetSpec};
use hg_rules::json::Json;
use hg_service::{Fleet, HomeId, RuleStore};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Homes in the generated fleet.
const HOMES: usize = 5_000;
/// Homes per bulk install.
const BULK: usize = 256;
/// Rounds in the fixed tail sent before the window.
const TAIL: usize = 2;
/// Homes per upgrade whose staging the lower-layer pass times.
const STAGED: usize = 64;
const MODES: [&str; 3] = ["Home", "Away", "Night"];

pub struct Plan {
    seed: u64,
    drives: u64,
    tokens: Vec<String>,
    ids: Vec<HomeId>,
    palette: Vec<(Arc<String>, String)>,
    /// Homes running each palette app. Upgrades keep it fixed (a pending
    /// home still runs the old version) and bulk apps come and go, so it
    /// is exact for the whole run.
    running: Vec<Vec<HomeId>>,
    /// Upgrades so far per palette app.
    versions: Vec<usize>,
    rounds: usize,
}

pub struct Rollout;

/// Palette app `p` at version `v`: the handler gains a location-mode
/// guard that changes with every version, so each rollout re-ingests new
/// rule content under the same name.
fn upgraded(palette: &[(Arc<String>, String)], p: usize, v: usize) -> Arc<String> {
    let (source, _) = &palette[p];
    let lines: Vec<String> = source
        .lines()
        .map(|line| match line.strip_prefix("def h(evt) { a.") {
            Some(rest) => {
                let cmd = rest.trim_end_matches("() }");
                let mode = MODES[v % MODES.len()];
                format!("def h(evt) {{ if (location.mode == \"{mode}\") {{ a.{cmd}() }} }}")
            }
            None => line.to_string(),
        })
        .collect();
    Arc::new(lines.join("\n"))
}

/// A bulk-installed store app: a palette source under a bulk name.
fn bulk_app(palette: &[(Arc<String>, String)], p: usize, slot: usize) -> (Arc<String>, String) {
    let (source, name) = &palette[p];
    let bulk = format!("Bulk{slot}");
    let source = source.replacen(
        &format!("name: \"{name}\""),
        &format!("name: \"{bulk}\""),
        1,
    );
    (Arc::new(source), bulk)
}

fn count(json: &Json, path: &[&str]) -> Option<usize> {
    let mut at = json;
    for key in path {
        at = at.get(key)?;
    }
    at.as_arr()
        .map(<[Json]>::len)
        .or_else(|| at.as_num().map(|n| n as usize))
}

impl Bench for Rollout {
    type Plan = Plan;
    /// About half the rounds a 15 s window finishes on 2 hardware threads.
    const PEAK_OPS: usize = 56;

    fn build(&self, seed: u64, traced: bool) -> (Rig, Plan) {
        let palette = palette();
        // Journaled from empty: the population enters as journal records
        // (a full checkpoint of it would take minutes to decode).
        let rig = Rig::start(Fleet::new(RuleStore::shared()), traced);
        let fleet = &rig.fleet;
        let spec = FleetSpec {
            seed,
            ..FleetSpec::sized(HOMES)
        };
        let (ids, stats) = populate(fleet, &spec);
        assert_eq!(stats.failures, 0, "generated fleet installs cleanly");
        let mut running = vec![Vec::new(); palette.len()];
        for &id in &ids {
            fleet
                .with_home(id, |h| {
                    for (p, (_, name)) in palette.iter().enumerate() {
                        if h.is_installed(name) {
                            running[p].push(id);
                        }
                    }
                })
                .expect("generated home exists");
        }
        let tokens = vec![rig.session(&[])];
        let versions = vec![0; palette.len()];
        (
            rig,
            Plan {
                seed,
                drives: 0,
                tokens,
                ids,
                palette,
                running,
                versions,
                rounds: 0,
            },
        )
    }

    fn tokens<'a>(&self, plan: &'a Plan) -> &'a [String] {
        &plan.tokens
    }

    fn drive(&self, rig: &Rig, plan: &mut Plan, stop: Stop, checks: &mut Checks) -> Vec<Vec<Done>> {
        plan.drives += 1;
        let mut rng = rig::rng(plan.seed, plan.drives << 8);
        let mut conn = Conn::new(rig.addr());
        let token = plan.tokens[0].clone();
        let total = plan.ids.len();
        let mut log = Vec::new();
        let mut n = 0;
        while stop.go(n, TAIL) {
            n += 1;
            plan.rounds += 1;
            // Every palette app in turn, so each window covers the same mix.
            let p = plan.rounds % plan.palette.len();
            plan.versions[p] += 1;
            let op = Op::Upgrade {
                name: plan.palette[p].1.clone(),
                source: upgraded(&plan.palette, p, plan.versions[p]),
            };
            if let Some(done) = exchange(&mut conn, op, &token, &mut log, checks) {
                let json = done.json();
                let rollout = json.as_ref().and_then(|j| j.get("rollout"));
                let got = rollout.map(|r| {
                    (
                        count(r, &["upgraded"]).unwrap_or(0) + count(r, &["pending"]).unwrap_or(0),
                        count(r, &["skipped"]).unwrap_or(0),
                        count(r, &["failed"]).unwrap_or(1)
                            + count(r, &["poisoned_shards"]).unwrap_or(1)
                            + count(r, &["refused_shards"]).unwrap_or(1)
                            + count(r, &["journal_lapses"]).unwrap_or(1),
                    )
                });
                let runs = plan.running[p].len();
                checks.expect(got == Some((runs, total - runs, 0)), || {
                    format!(
                        "rollout of {} covered {got:?}, {runs} homes run it",
                        plan.palette[p].1
                    )
                });
            }

            let mut homes = BTreeSet::new();
            while homes.len() < BULK.min(total) {
                homes.insert(plan.ids[rng.range(0, total)]);
            }
            let (source, name) = bulk_app(
                &plan.palette,
                rng.range(0, plan.palette.len()),
                plan.rounds % 3,
            );
            let op = Op::InstallMany {
                homes: homes.into_iter().collect(),
                name: name.clone(),
                source,
            };
            let installed = exchange(&mut conn, op, &token, &mut log, checks).and_then(|done| {
                let json = done.json()?;
                let outcomes = json.get("outcomes")?.as_arr()?;
                let errors = outcomes.iter().filter(|o| o.get("error").is_some()).count();
                checks.expect(errors == 0, || {
                    format!("bulk install of {name}: {errors} errors")
                });
                Some(
                    outcomes
                        .iter()
                        .filter(|o| {
                            o.get("report").and_then(|r| r.get("installed"))
                                == Some(&Json::Bool(true))
                        })
                        .count(),
                )
            });

            let op = Op::ForceUninstall { app: name.clone() };
            if let (Some(installed), Some(done)) =
                (installed, exchange(&mut conn, op, &token, &mut log, checks))
            {
                let json = done.json();
                let got = json.as_ref().map(|j| {
                    (
                        count(j, &["removed"]).unwrap_or(0),
                        count(j, &["skipped"]).unwrap_or(0),
                        j.get("store_retired") == Some(&Json::Bool(true)),
                    )
                });
                checks.expect(got == Some((installed, total - installed, true)), || {
                    format!("uninstall of {name} reported {got:?}, {installed} installed")
                });
            }
            exchange(&mut conn, Op::Stats, &token, &mut log, checks);
        }
        vec![log]
    }

    fn verify(&self, rig: &Rig, plan: &Plan, _logs: &[Vec<Done>], checks: &mut Checks) -> u64 {
        checks.expect(rig.fleet.len() == plan.ids.len(), || {
            format!(
                "fleet holds {} homes, generated {}",
                rig.fleet.len(),
                plan.ids.len()
            )
        });
        0
    }

    /// Homes rolled out (upgraded + pending) per second of rollout wall
    /// time.
    fn throughput(&self, logs: &[Vec<Done>], _secs: f64) -> f64 {
        let (mut homes, mut rollout_s) = (0.0, 0.0);
        for done in logs.iter().flatten() {
            if let Op::Upgrade { .. } = done.op {
                let json = done.json();
                let r = json.as_ref().and_then(|j| j.get("rollout"));
                homes += r.map_or(0, |r| {
                    count(r, &["upgraded"]).unwrap_or(0) + count(r, &["pending"]).unwrap_or(0)
                }) as f64;
                rollout_s += done.micros / 1e6;
            }
        }
        rig::ratio(homes, rollout_s)
    }

    fn lower(&self, seed: u64, logs: &[Vec<Done>], checks: &mut Checks) -> Vec<Metric> {
        let (rig, plan) = self.build(seed, false);
        let fleet = &rig.fleet;
        let mut lower = Lower::default();
        for done in logs.iter().flatten() {
            let got = match &done.op {
                Op::Upgrade { name, source } => {
                    lower.ingest(fleet, source, name, true);
                    let p = plan
                        .palette
                        .iter()
                        .position(|(_, n)| n == name)
                        .expect("palette app");
                    for &home in plan.running[p].iter().take(STAGED) {
                        lower.stage(fleet, home, name, true, true);
                    }
                    let last = done.body.lines().last().unwrap_or("").to_string();
                    fleet
                        .propagate_upgrade(source, name)
                        .map(|r| (rollout_line(&r), last))
                }
                Op::InstallMany {
                    homes,
                    name,
                    source,
                } => {
                    lower.ingest(fleet, source, name, false);
                    fleet
                        .install_many(homes, source, name, None)
                        .map(|outcomes| {
                            let text =
                                Json::obj([("outcomes", hg_api::wire::bulk_json(&outcomes))])
                                    .to_text();
                            (text, done.body.clone())
                        })
                }
                Op::ForceUninstall { app } => {
                    let outcome = fleet.force_uninstall(app);
                    Ok((
                        hg_api::wire::force_uninstall_json(&outcome).to_text(),
                        done.body.clone(),
                    ))
                }
                _ => continue,
            };
            checks.expect(got.as_ref().is_ok_and(|(g, want)| g == want), || {
                format!("lower-layer replay of {:?} differs", done.op)
            });
        }
        lower.metrics()
    }
}
