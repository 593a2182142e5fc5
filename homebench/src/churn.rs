//! `home_churn`: `nproc` keep-alive clients, each with its own session
//! and a few hundred homes, toggling shared palette apps (confirming dirty
//! reports, uninstalling installed ones) beside dry-run checks and home
//! reads. Store apps are shared, so the ingest and verdict caches hit;
//! the cost sits in the HTTP edge, the queues, per-record journal appends
//! and telemetry.

use crate::rig::{self, send_once, Conn, Rig};
use crate::trace::{home_json, lower_home_ops};
use crate::{exchange, Bench, Checks, Done, Metric, Op, Stop};
use hg_api::wire::{install_report_json, uninstall_report_json};
use hg_rules::json::Json;
use hg_service::{Fleet, Home, HomeId, RuleStore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Homes each client owns.
const CLIENT_HOMES: usize = 200;
/// Apps a home runs at most; a toggle at the cap uninstalls instead, so
/// the work per op stays the same through the run.
const CAP: usize = 4;
/// Ops per client in the fixed tail sent before the window.
const TAIL: usize = 48;
/// Homes per client whose verdicts are re-derived by a solver-only
/// reference session after the run.
const SAMPLED: usize = 3;

/// The 18 palette apps every home draws from (shared store apps).
pub fn palette() -> Vec<(Arc<String>, String)> {
    let mut apps = Vec::new();
    for sensor in 0..3 {
        for actuator in 0..3 {
            for command in 0..2 {
                let (source, name) = hg_bench::fleet_gen::palette_app(sensor, actuator, command);
                apps.push((Arc::new(source), name));
            }
        }
    }
    apps
}

pub struct Client {
    homes: Vec<HomeId>,
    /// The client's view of every home it owns: installed apps in
    /// first-install order, as `GET /homes/{id}` lists them.
    model: BTreeMap<HomeId, Vec<String>>,
    /// Palette indices installed at set-up, per sampled home.
    sampled: BTreeMap<HomeId, Vec<usize>>,
}

pub struct Plan {
    seed: u64,
    drives: u64,
    tokens: Vec<String>,
    clients: Vec<Client>,
    palette: Vec<(Arc<String>, String)>,
}

pub struct Churn;

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn setup_picks(seed: u64, home: HomeId, palette: usize) -> Vec<usize> {
    let mut rng = rig::rng(seed, 0x1000 + home.raw());
    let mut picks = Vec::new();
    while picks.len() < CAP {
        let p = rng.range(0, palette);
        if !picks.contains(&p) {
            picks.push(p);
        }
    }
    picks
}

impl Bench for Churn {
    type Plan = Plan;
    /// About half the ops a 15 s window finishes on 2 hardware threads.
    const PEAK_OPS: usize = 256;

    fn build(&self, seed: u64, traced: bool) -> (Rig, Plan) {
        let palette = palette();
        // Journaled from empty: set-up state enters as journal records.
        let rig = Rig::start(Fleet::new(RuleStore::shared()), traced);
        let fleet = &rig.fleet;
        for (source, name) in &palette {
            fleet.ingest_app(source, name).expect("palette app ingests");
        }
        let n = clients();
        let ids = fleet
            .create_homes(n * CLIENT_HOMES)
            .expect("creating homes");
        let mut clients: Vec<Client> = (0..n)
            .map(|_| Client {
                homes: Vec::new(),
                model: BTreeMap::new(),
                sampled: BTreeMap::new(),
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let picks = setup_picks(seed, id, palette.len());
            for &p in &picks {
                let (source, name) = &palette[p];
                // A user who accepts every report.
                let report = fleet.install_app(id, source, name, None);
                let report = report.expect("set-up install");
                if !report.installed {
                    fleet.confirm_install(id, report).expect("set-up confirm");
                }
            }
            let client = &mut clients[i % n];
            client.homes.push(id);
            let apps = fleet
                .with_home(id, |h| h.installed_apps())
                .expect("home exists");
            client.model.insert(id, apps);
            if client.sampled.len() < SAMPLED && rig::rng(seed, 0x2000 + id.raw()).chance(5) {
                client.sampled.insert(id, picks);
            }
        }
        warm_verdicts(fleet.store(), &palette);
        let tokens = clients.iter().map(|c| rig.session(&c.homes)).collect();
        (
            rig,
            Plan {
                seed,
                drives: 0,
                tokens,
                clients,
                palette,
            },
        )
    }

    fn tokens<'a>(&self, plan: &'a Plan) -> &'a [String] {
        &plan.tokens
    }

    fn drive(&self, rig: &Rig, plan: &mut Plan, stop: Stop, checks: &mut Checks) -> Vec<Vec<Done>> {
        plan.drives += 1;
        let (seed, drives, palette) = (plan.seed, plan.drives, &plan.palette);
        let addr = rig.addr();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .clients
                .iter_mut()
                .zip(&plan.tokens)
                .enumerate()
                .map(|(c, (client, token))| {
                    scope.spawn(move || {
                        let mut rng = rig::rng(seed, (drives << 8) + c as u64);
                        let mut conn = Conn::new(addr);
                        let mut log = Vec::new();
                        let mut checks = Checks::default();
                        let mut n = 0;
                        while stop.go(n, TAIL) {
                            n += 1;
                            let home = client.homes[rng.range(0, client.homes.len())];
                            let roll = rng.range(0, 100);
                            if roll < 50 {
                                toggle(
                                    client,
                                    home,
                                    palette,
                                    &mut rng,
                                    token,
                                    &mut conn,
                                    &mut log,
                                    &mut checks,
                                );
                            } else if roll < 75 {
                                let app = palette[rng.range(0, palette.len())].1.clone();
                                exchange(
                                    &mut conn,
                                    Op::Check { home, app },
                                    token,
                                    &mut log,
                                    &mut checks,
                                );
                            } else if let Some(done) =
                                exchange(&mut conn, Op::Get { home }, token, &mut log, &mut checks)
                            {
                                let want = home_json(home, &client.model[&home]);
                                checks.expect(done.body == want, || {
                                    format!("GET {home} answered {} (model {want})", done.body)
                                });
                            }
                        }
                        (log, checks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        results
            .into_iter()
            .map(|(log, local)| {
                checks.absorb(local);
                log
            })
            .collect()
    }

    fn verify(&self, rig: &Rig, plan: &Plan, logs: &[Vec<Done>], checks: &mut Checks) -> u64 {
        let mut sent = 0;
        for (client, token) in plan.clients.iter().zip(&plan.tokens) {
            for (&home, apps) in &client.model {
                sent += 1;
                let reply = send_once(rig.addr(), &Op::Get { home }.call(), token);
                let want = home_json(home, apps);
                checks.expect(reply.as_ref().is_ok_and(|r| r.body == want), || {
                    format!("final GET {home} differs from the client model {want}")
                });
            }
        }
        reference_check(
            &plan.palette,
            plan.clients.iter().map(|c| &c.sampled),
            logs,
            checks,
        );
        sent
    }

    /// Requests of every kind per second.
    fn throughput(&self, logs: &[Vec<Done>], secs: f64) -> f64 {
        logs.iter().map(Vec::len).sum::<usize>() as f64 / secs
    }

    fn lower(&self, seed: u64, logs: &[Vec<Done>], checks: &mut Checks) -> Vec<Metric> {
        let (rig, _plan) = self.build(seed, false);
        lower_home_ops(&rig.fleet, logs, checks).metrics()
    }

    /// Shared store apps: nothing is extracted and pair verdicts come
    /// from the cache.
    fn check_window(
        &self,
        _window: &[Vec<Done>],
        extracts: u64,
        hit_ratio: f64,
        checks: &mut Checks,
    ) {
        checks.expect(extracts == 0, || {
            format!("the store extracted {extracts} sources for shared apps")
        });
        checks.expect(hit_ratio >= 0.95, || {
            format!("verdict cache hit ratio {hit_ratio} is below 0.95")
        });
    }
}

/// Fills the shared verdict cache with every palette pair in both orders
/// and each app with itself, using two sessions outside the fleet, so the
/// window measures the steady state (caches filled) rather than warm-up.
fn warm_verdicts(store: &Arc<RuleStore>, palette: &[(Arc<String>, String)]) {
    for reversed in [false, true] {
        let mut home = Home::new(store.clone());
        let order: Vec<_> = if reversed {
            palette.iter().rev().collect()
        } else {
            palette.iter().collect()
        };
        for (source, name) in order {
            let _ = home.install_app_forced(source, name, None);
        }
        // Dry-run checks of an installed app pair it with itself.
        for (_, name) in palette {
            let _ = home.check_install(name);
        }
    }
}

/// One write: uninstall the drawn app when installed (or a random one at
/// the cap), else install it and confirm a dirty report.
#[allow(clippy::too_many_arguments)]
fn toggle(
    client: &mut Client,
    home: HomeId,
    palette: &[(Arc<String>, String)],
    rng: &mut hg_bench::fleet_gen::GenRng,
    token: &str,
    conn: &mut Conn,
    log: &mut Vec<Done>,
    checks: &mut Checks,
) {
    let (source, name) = &palette[rng.range(0, palette.len())];
    let apps = client.model.get_mut(&home).expect("owned home");
    let victim = if apps.contains(name) {
        Some(name.clone())
    } else if apps.len() >= CAP {
        Some(apps[rng.range(0, apps.len())].clone())
    } else {
        None
    };
    if let Some(app) = victim {
        if exchange(
            conn,
            Op::Uninstall {
                home,
                app: app.clone(),
            },
            token,
            log,
            checks,
        )
        .is_some()
        {
            apps.retain(|a| *a != app);
        }
        return;
    }
    let op = Op::Install {
        home,
        name: name.clone(),
        source: source.clone(),
    };
    let Some(done) = exchange(conn, op, token, log, checks) else {
        return;
    };
    let installed = done.json().and_then(|j| j.get("installed").cloned());
    if installed == Some(Json::Bool(true)) {
        apps.push(name.clone());
        return;
    }
    let confirm = Op::Confirm {
        home,
        app: name.clone(),
    };
    if exchange(conn, confirm, token, log, checks).is_some() {
        apps.push(name.clone());
    }
}

/// Re-derives the sampled homes' verdicts with solver-only sessions
/// (`verdict_sharing(false)`, `lowered_pairs(false)`) on a private store:
/// set-up installs first, then every logged op on that home, each answer
/// compared with the recorded reply.
pub fn reference_check<'a>(
    palette: &[(Arc<String>, String)],
    sampled: impl Iterator<Item = &'a BTreeMap<HomeId, Vec<usize>>>,
    logs: &[Vec<Done>],
    checks: &mut Checks,
) {
    let store = RuleStore::shared();
    for (source, name) in palette {
        store.ingest(source, name).expect("palette app ingests");
    }
    for (homes, log) in sampled.zip(logs) {
        for (&id, picks) in homes {
            let mut home = Home::builder(store.clone())
                .verdict_sharing(false)
                .lowered_pairs(false)
                .build();
            for &p in picks {
                let (source, name) = &palette[p];
                let accepted = home.install_app(source, name, None).and_then(|r| {
                    if r.installed {
                        Ok(r)
                    } else {
                        home.confirm_install(r)
                    }
                });
                checks.expect(accepted.is_ok(), || {
                    format!("reference set-up of {name} failed")
                });
            }
            replay_reference(&mut home, id, log, checks);
        }
    }
}

/// Replays `home`'s logged ops on the reference session.
pub fn replay_reference(home: &mut Home, id: HomeId, log: &[Done], checks: &mut Checks) {
    let mut pending = None;
    for done in log.iter().filter(|d| d.op.home() == Some(id)) {
        let got = match &done.op {
            Op::Install { name, source, .. } => home.install_app(source, name, None).map(|r| {
                let text = install_report_json(&r).to_text();
                pending = (!r.installed).then_some(r);
                text
            }),
            Op::Confirm { .. } => match pending.take() {
                Some(report) => home
                    .confirm_install(report)
                    .map(|r| install_report_json(&r).to_text()),
                None => Ok(String::new()),
            },
            Op::Uninstall { app, .. } => home
                .uninstall_app(app)
                .map(|r| uninstall_report_json(&r).to_text()),
            Op::Check { app, .. } => home
                .check_install(app)
                .map(|r| install_report_json(&r).to_text()),
            Op::Get { .. } => Ok(home_json(id, &home.installed_apps())),
            _ => continue,
        };
        checks.expect(got.as_ref().is_ok_and(|g| *g == done.body), || {
            format!("solver-only reference disagrees on {:?}: {got:?}", done.op)
        });
    }
}
