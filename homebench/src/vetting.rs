//! `cold_vetting`: `nproc` keep-alive clients install apps never seen
//! before into homes that already run a 20-app corpus baseline. Every
//! source is a seeded variant of a corpus device-control app — its
//! numeric literals, on/off and lock/unlock commands and location-mode
//! names redrawn, under a fresh name — so every ingest and every pair
//! check misses the caches and extraction plus the lowered and solver
//! tiers do the work. Dirty reports are mostly rejected; each home holds
//! at most `CAP` vetted apps (the oldest is uninstalled first), so the
//! work per install stays the same through the run.

use crate::churn::replay_reference;
use crate::rig::{self, send_once, Conn, Rig};
use crate::trace::{home_json, lower_home_ops};
use crate::{exchange, Bench, Checks, Done, Metric, Op, Stop};
use hg_bench::fleet_gen::GenRng;
use hg_corpus::CorpusApp;
use hg_rules::json::Json;
use hg_service::{Fleet, Home, HomeId, RuleStore};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};

/// Homes each client vets into.
const CLIENT_HOMES: usize = 24;
/// Corpus apps every home runs before the window.
const BASELINE: usize = 20;
/// Vetted apps a home holds at most.
const CAP: usize = 4;
/// Share of dirty reports the user confirms anyway, percent.
const CONFIRM_PCT: u64 = 20;
/// Vetting steps per client in the fixed tail sent before the window.
const TAIL: usize = 12;
/// Homes per client re-derived by the solver-only reference.
const SAMPLED: usize = 2;
const MODES: [&str; 3] = ["Home", "Away", "Night"];

/// Corpus device-control apps whose redrawn variants extract to rules.
fn bases() -> &'static [&'static CorpusApp] {
    static BASES: OnceLock<Vec<&'static CorpusApp>> = OnceLock::new();
    BASES.get_or_init(|| {
        let config = hg_symexec::ExtractorConfig::extended();
        hg_corpus::device_control_apps()
            .into_iter()
            .filter(|app| {
                (0..4).all(|n| {
                    let mut rng = rig::rng(0xBA5E, n);
                    let name = format!("Probe{n}");
                    let source = variant(app, &mut rng, &name);
                    source.contains(&name)
                        && hg_symexec::extract(&source, &name, &config)
                            .is_ok_and(|a| !a.rules.is_empty())
                })
            })
            .collect()
    })
}

/// `app`'s source renamed to `name`, with literals, commands and mode
/// guards redrawn from `rng`. String literals are left alone except for
/// location-mode names; digits inside identifiers are left alone.
fn variant(app: &CorpusApp, rng: &mut GenRng, name: &str) -> String {
    let source = app.source.replacen(
        &format!("name: \"{}\"", app.name),
        &format!("name: \"{name}\""),
        1,
    );
    let mut out = String::with_capacity(source.len() + 16);
    let mut rest = source.as_str();
    let mut in_string = false;
    let mut prev = ' ';
    while let Some(c) = rest.chars().next() {
        if c == '"' {
            if !in_string {
                if let Some(mode) = MODES
                    .iter()
                    .find(|m| rest[1..].starts_with(&format!("{m}\"")))
                {
                    out.push('"');
                    out.push_str(MODES[rng.range(0, MODES.len())]);
                    out.push('"');
                    rest = &rest[mode.len() + 2..];
                    prev = '"';
                    continue;
                }
            }
            in_string = !in_string;
        } else if !in_string
            && c.is_ascii_digit()
            && !(prev.is_alphanumeric() || prev == '_' || prev == '.')
        {
            let digits = rest.chars().take_while(char::is_ascii_digit).count();
            out.push_str(&rng.range(1, 100).to_string());
            rest = &rest[digits..];
            prev = '0';
            continue;
        } else if !in_string && c == '.' {
            let swap = [
                (".on()", ".off()"),
                (".off()", ".on()"),
                (".lock()", ".unlock()"),
                (".unlock()", ".lock()"),
            ]
            .into_iter()
            .find(|(from, _)| rest.starts_with(from));
            if let Some((from, to)) = swap {
                out.push_str(if rng.chance(33) { to } else { from });
                rest = &rest[from.len()..];
                prev = ')';
                continue;
            }
        }
        out.push(c);
        prev = c;
        rest = &rest[c.len_utf8()..];
    }
    out
}

pub struct Client {
    homes: Vec<HomeId>,
    model: BTreeMap<HomeId, Vec<String>>,
    /// Vetted apps installed per home, oldest first.
    vetted: BTreeMap<HomeId, VecDeque<String>>,
    /// Baseline corpus picks per sampled home.
    sampled: BTreeMap<HomeId, Vec<usize>>,
    /// Variants drawn so far (names stay unique across drives).
    drawn: u64,
}

pub struct Plan {
    seed: u64,
    drives: u64,
    tokens: Vec<String>,
    clients: Vec<Client>,
}

pub struct Vetting;

fn baseline_picks(seed: u64, home: HomeId) -> Vec<usize> {
    let mut rng = rig::rng(seed, 0x3000 + home.raw());
    let mut picks = Vec::new();
    while picks.len() < BASELINE.min(bases().len()) {
        let p = rng.range(0, bases().len());
        if !picks.contains(&p) {
            picks.push(p);
        }
    }
    picks
}

impl Bench for Vetting {
    type Plan = Plan;
    /// About half the vetting steps a 15 s window finishes on 2 hardware
    /// threads.
    const PEAK_OPS: usize = 128;

    fn build(&self, seed: u64, traced: bool) -> (Rig, Plan) {
        // Journaled from empty: set-up state enters as journal records.
        let rig = Rig::start(Fleet::new(RuleStore::shared()), traced);
        let fleet = &rig.fleet;
        let n = std::thread::available_parallelism().map_or(1, usize::from);
        let ids = fleet
            .create_homes(n * CLIENT_HOMES)
            .expect("creating homes");
        let mut clients: Vec<Client> = (0..n)
            .map(|_| Client {
                homes: Vec::new(),
                model: BTreeMap::new(),
                vetted: BTreeMap::new(),
                sampled: BTreeMap::new(),
                drawn: 0,
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let picks = baseline_picks(seed, id);
            for &p in &picks {
                let app = bases()[p];
                fleet
                    .install_app_forced(id, app.source, app.name, None)
                    .expect("baseline corpus app installs");
            }
            let client = &mut clients[i % n];
            client.homes.push(id);
            let apps = fleet
                .with_home(id, |h| h.installed_apps())
                .expect("home exists");
            client.model.insert(id, apps);
            client.vetted.insert(id, VecDeque::new());
            if client.sampled.len() < SAMPLED {
                client.sampled.insert(id, picks);
            }
        }
        let tokens = clients.iter().map(|c| rig.session(&c.homes)).collect();
        (
            rig,
            Plan {
                seed,
                drives: 0,
                tokens,
                clients,
            },
        )
    }

    fn tokens<'a>(&self, plan: &'a Plan) -> &'a [String] {
        &plan.tokens
    }

    fn drive(&self, rig: &Rig, plan: &mut Plan, stop: Stop, checks: &mut Checks) -> Vec<Vec<Done>> {
        plan.drives += 1;
        let (seed, drives) = (plan.seed, plan.drives);
        let addr = rig.addr();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .clients
                .iter_mut()
                .zip(&plan.tokens)
                .enumerate()
                .map(|(c, (client, token))| {
                    scope.spawn(move || {
                        let mut rng = rig::rng(seed, 0x4000 + (drives << 8) + c as u64);
                        let mut conn = Conn::new(addr);
                        let mut log = Vec::new();
                        let mut checks = Checks::default();
                        let mut n = 0;
                        while stop.go(n, TAIL) {
                            n += 1;
                            vet_one(
                                client,
                                c,
                                seed,
                                &mut rng,
                                token,
                                &mut conn,
                                &mut log,
                                &mut checks,
                            );
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
        let store = RuleStore::shared();
        for (client, log) in plan.clients.iter().zip(logs) {
            for (&id, picks) in &client.sampled {
                let mut home = Home::builder(store.clone())
                    .verdict_sharing(false)
                    .lowered_pairs(false)
                    .build();
                for &p in picks {
                    let app = bases()[p];
                    let ok = home.install_app_forced(app.source, app.name, None).is_ok();
                    checks.expect(ok, || format!("reference baseline {} failed", app.name));
                }
                replay_reference(&mut home, id, log, checks);
            }
        }
        sent
    }

    /// Install verdicts per second.
    fn throughput(&self, logs: &[Vec<Done>], secs: f64) -> f64 {
        let installs = logs.iter().flatten().filter(|d| self.timed_write(&d.op));
        installs.count() as f64 / secs
    }

    /// Only install verdicts: cap-making uninstalls and confirms are not
    /// vetting.
    fn timed_write(&self, op: &Op) -> bool {
        matches!(op, Op::Install { .. })
    }

    fn lower(&self, seed: u64, logs: &[Vec<Done>], checks: &mut Checks) -> Vec<Metric> {
        let (rig, _plan) = self.build(seed, false);
        lower_home_ops(&rig.fleet, logs, checks).metrics()
    }

    /// Every install extracts afresh and no pair verdict is reused.
    fn check_window(
        &self,
        window: &[Vec<Done>],
        extracts: u64,
        hit_ratio: f64,
        checks: &mut Checks,
    ) {
        let installs = window
            .iter()
            .flatten()
            .filter(|d| matches!(d.op, Op::Install { .. }))
            .count() as u64;
        checks.expect(extracts == installs, || {
            format!("the store extracted {extracts} sources for {installs} cold installs")
        });
        checks.expect(hit_ratio == 0.0, || {
            format!("cold installs hit the verdict cache (ratio {hit_ratio})")
        });
    }
}

/// One vetting step: make room under the cap, install a fresh variant
/// (confirming some dirty verdicts), then read the home back.
#[allow(clippy::too_many_arguments)]
fn vet_one(
    client: &mut Client,
    c: usize,
    seed: u64,
    rng: &mut GenRng,
    token: &str,
    conn: &mut Conn,
    log: &mut Vec<Done>,
    checks: &mut Checks,
) {
    let home = client.homes[rng.range(0, client.homes.len())];
    let model = client.model.get_mut(&home).expect("owned home");
    let vetted = client.vetted.get_mut(&home).expect("owned home");
    if vetted.len() >= CAP {
        let app = vetted.pop_front().expect("at the cap");
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
            model.retain(|a| *a != app);
        }
    }
    client.drawn += 1;
    let name = format!("Vet{seed}x{c}x{}", client.drawn);
    let base = bases()[rng.range(0, bases().len())];
    let source = Arc::new(variant(base, rng, &name));
    let op = Op::Install {
        home,
        name: name.clone(),
        source,
    };
    if let Some(done) = exchange(conn, op, token, log, checks) {
        let installed =
            done.json().and_then(|j| j.get("installed").cloned()) == Some(Json::Bool(true));
        let keep = installed
            || (rng.chance(CONFIRM_PCT)
                && exchange(
                    conn,
                    Op::Confirm {
                        home,
                        app: name.clone(),
                    },
                    token,
                    log,
                    checks,
                )
                .is_some());
        if keep {
            model.push(name.clone());
            vetted.push_back(name);
        }
    }
    if let Some(done) = exchange(conn, Op::Get { home }, token, log, checks) {
        let want = home_json(home, model);
        checks.expect(done.body == want, || {
            format!("GET {home} answered {} (model {want})", done.body)
        });
    }
}
