//! Parameterized synthetic fleet generator: seeded, heterogeneous home
//! populations for soak tests and the end-to-end benchmark (`homebench/`).
//!
//! The generator stands up fleets of 10⁵+ homes from a small shared app
//! palette (so the store's ingest cache serves every home, exactly like a
//! real deployment installing store apps), with three axes of
//! heterogeneity driven by one [`GenRng`] seed:
//!
//! * **app mix** — every home draws `apps_per_home` palette apps (sensor →
//!   actuator pairs over the corpus capability set), so homes differ in
//!   which rules interact;
//! * **config distribution** — a slice of homes re-binds an app's devices
//!   via [`ConfigInfo`] to synthetic 128-bit device ids;
//! * **chain seams** — every `chain_every`-th home installs a relay ladder
//!   (`motion → relay-0.on`, `relay-0.on → relay-1.on`, ...) whose
//!   consecutive links are CovertTriggering pairs: confirming the dirty
//!   links builds an Allowed list, and the next link's report carries
//!   **chained threats** (`report.chains`, paper §VI-D) — the
//!   chained-detection coverage the soak harness asserts on.
//!
//! Everything is deterministic in [`FleetSpec::seed`]: two fleets
//! populated from the same spec are snapshot-identical.

use hg_config::ConfigInfo;
use hg_service::{Fleet, HomeId};

/// SplitMix64 (the same generator the fuzz harnesses use), seeded and
/// deterministic.
pub struct GenRng {
    state: u64,
}

impl GenRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> GenRng {
        GenRng {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03,
        }
    }

    /// The next raw 64-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.draw() % (hi - lo) as u64) as usize
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.draw() % 100 < pct
    }
}

/// Sensor palette: `(capability, attribute, value)`.
const SENSORS: [(&str, &str, &str); 3] = [
    ("capability.motionSensor", "motion", "active"),
    ("capability.contactSensor", "contact", "open"),
    ("capability.waterSensor", "water", "wet"),
];

/// Actuator palette: `(capability, device title, commands)`.
const ACTUATORS: [(&str, &str, [&str; 2]); 3] = [
    ("capability.switch", "lamp", ["on", "off"]),
    ("capability.alarm", "siren", ["siren", "off"]),
    ("capability.lock", "door", ["lock", "unlock"]),
];

/// One synthetic store app: subscribes to a sensor, commands an actuator.
/// The name is a pure function of the palette indices, so every home
/// installing the same combination shares one store extraction.
pub fn palette_app(sensor: usize, actuator: usize, command: usize) -> (String, String) {
    let (s_cap, s_attr, s_val) = SENSORS[sensor % SENSORS.len()];
    let (a_cap, a_title, commands) = ACTUATORS[actuator % ACTUATORS.len()];
    let cmd = commands[command % commands.len()];
    let name = format!("Gen{sensor}{actuator}{command}");
    let source = format!(
        r#"
definition(name: "{name}")
input "t", "{s_cap}"
input "a", "{a_cap}", title: "{a_title}"
def installed() {{ subscribe(t, "{s_attr}.{s_val}", h) }}
def h(evt) {{ a.{cmd}() }}
"#
    );
    (source, name)
}

/// The relay-ladder apps forming chained threats: level 0 turns `relay-0`
/// on from a motion sensor; level `i > 0` subscribes to `relay-(i-1)`'s
/// switch attribute and turns `relay-i` on. Installing the ladder in
/// order and confirming each dirty link makes every consecutive pair an
/// Allowed CovertTriggering edge, so the last link's install report
/// carries chains (§VI-D).
pub fn relay_ladder(depth: usize) -> Vec<(String, String)> {
    (0..depth)
        .map(|level| {
            let name = format!("Relay{level}");
            let source = if level == 0 {
                format!(
                    r#"
definition(name: "{name}")
input "m", "capability.motionSensor"
input "r", "capability.switch", title: "relay-0"
def installed() {{ subscribe(m, "motion.active", h) }}
def h(evt) {{ r.on() }}
"#
                )
            } else {
                format!(
                    r#"
definition(name: "{name}")
input "p", "capability.switch", title: "relay-{prev}"
input "r", "capability.switch", title: "relay-{level}"
def installed() {{ subscribe(p, "switch.on", h) }}
def h(evt) {{ r.on() }}
"#,
                    prev = level - 1
                )
            };
            (source, name)
        })
        .collect()
}

/// Shape of a generated fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Homes to create.
    pub homes: usize,
    /// Registry shard count.
    pub shards: usize,
    /// Determinism seed: same spec, same fleet.
    pub seed: u64,
    /// Palette apps drawn per home.
    pub apps_per_home: usize,
    /// Relay-ladder length for chain homes (≥ 3 links produce chains).
    pub chain_depth: usize,
    /// Every n-th home installs the relay ladder (0 disables).
    pub chain_every: usize,
    /// Percent of homes that re-bind one app's devices via [`ConfigInfo`].
    pub config_pct: u64,
}

impl FleetSpec {
    /// A spec for `homes` homes with deployment-shaped defaults.
    pub fn sized(homes: usize) -> FleetSpec {
        FleetSpec {
            homes,
            shards: 16,
            seed: 0xD5_2020,
            apps_per_home: 2,
            chain_depth: 3,
            chain_every: 10,
            config_pct: 20,
        }
    }
}

/// What [`populate`] did, for assertions and bench labels.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// Homes created.
    pub homes: u64,
    /// Install attempts that landed (auto-confirmed clean installs).
    pub clean_installs: u64,
    /// Dirty reports confirmed by the synthetic user.
    pub dirty_confirms: u64,
    /// Install reports that carried **chained** threats (§VI-D).
    pub chained_reports: u64,
    /// Homes whose devices were re-bound via [`ConfigInfo`].
    pub configs_recorded: u64,
    /// Install attempts that failed outright.
    pub failures: u64,
}

/// Populates `fleet` per `spec`, returning the ids in creation order and
/// the generation stats. Works identically on journaled and un-journaled
/// fleets — which is exactly how the journal benches measure append
/// overhead.
pub fn populate(fleet: &Fleet, spec: &FleetSpec) -> (Vec<HomeId>, GenStats) {
    let mut rng = GenRng::new(spec.seed);
    let ladder = relay_ladder(spec.chain_depth);
    // Batch creation: one journal record for the whole population (ids
    // come back in the same creation order the per-home path would
    // assign, so seeded runs stay snapshot-identical).
    let ids = fleet.create_homes(spec.homes).unwrap();
    let mut stats = GenStats::default();
    for (n, &id) in ids.iter().enumerate() {
        stats.homes += 1;
        for _ in 0..spec.apps_per_home {
            let (source, name) = palette_app(
                rng.range(0, SENSORS.len()),
                rng.range(0, ACTUATORS.len()),
                rng.range(0, 2),
            );
            install_confirming(fleet, id, &source, &name, &mut stats);
        }
        if spec.chain_every > 0 && n % spec.chain_every == 0 {
            for (source, name) in &ladder {
                install_confirming(fleet, id, source, name, &mut stats);
            }
        }
        if rng.chance(spec.config_pct) {
            let (_, name) = palette_app(0, 0, 0);
            let info = ConfigInfo::new(name)
                .bind_device("t", &format!("{:032x}", rng.draw()))
                .bind_device("a", &format!("{:032x}", rng.draw()));
            if fleet.record_config(id, &info).is_ok() {
                stats.configs_recorded += 1;
            }
        }
    }
    (ids, stats)
}

/// Installs one app into one home like a user who accepts every report:
/// dirty verdicts are confirmed, duplicate installs are tolerated (a home
/// can draw the same palette app twice).
fn install_confirming(fleet: &Fleet, id: HomeId, source: &str, name: &str, stats: &mut GenStats) {
    match fleet.install_app(id, source, name, None) {
        Ok(report) if report.installed => stats.clean_installs += 1,
        Ok(report) => {
            if !report.chains.is_empty() {
                stats.chained_reports += 1;
            }
            if fleet.confirm_install(id, report).is_ok() {
                stats.dirty_confirms += 1;
            } else {
                stats.failures += 1;
            }
        }
        Err(hg_service::HgError::AlreadyInstalled(_)) => {}
        Err(_) => stats.failures += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_service::RuleStore;

    #[test]
    fn populate_is_deterministic_and_forms_chains() {
        let spec = FleetSpec {
            homes: 40,
            shards: 4,
            ..FleetSpec::sized(40)
        };
        let a = Fleet::builder(RuleStore::shared())
            .shards(spec.shards)
            .build();
        let b = Fleet::builder(RuleStore::shared())
            .shards(spec.shards)
            .build();
        let (ids_a, stats_a) = populate(&a, &spec);
        let (ids_b, _) = populate(&b, &spec);
        assert_eq!(ids_a, ids_b);
        assert_eq!(stats_a.homes, 40);
        assert!(
            stats_a.chained_reports > 0,
            "relay ladders must produce chained threat reports: {stats_a:?}"
        );
        assert_eq!(
            a.snapshot().unwrap().to_text(),
            b.snapshot().unwrap().to_text()
        );
    }

    #[test]
    fn palette_apps_share_store_extractions() {
        let spec = FleetSpec::sized(30);
        let fleet = Fleet::builder(RuleStore::shared()).shards(4).build();
        let (_, stats) = populate(&fleet, &spec);
        assert!(stats.failures == 0, "{stats:?}");
        // 30 homes × 2 apps from an 18-app palette: far more installs than
        // extractions.
        assert!(fleet.store().cache_hits() > 30);
    }
}
