//! The metrics registry: bus events folded into counters, fixed-bucket
//! histograms and the paper's fleet-scale analytics.
//!
//! Every [`TelemetryBus`](crate::TelemetryBus) owns one
//! [`MetricsRegistry`] and folds each event into it while publishing,
//! inside the critical section that stamps the event's sequence number,
//! so scraped totals are exact the moment an operation returns. A fold is
//! a handful of map bumps on `&'static str` keys; an app that already has
//! an interference row costs no allocation. A lifecycle event stands for
//! one fleet write, so a batch's homes and threats fold as sums: per-home
//! counters count homes, not events. Counters live in memory only and
//! reset when the process restarts, as Prometheus counters do.
//!
//! A scrape copies the aggregates under one lock acquisition, so every
//! rendered body is one consistent cut, and sorts and formats after
//! releasing the lock publishers need. Pull-style gauges (queue depths,
//! fleet size) are sampled by the scraper and passed into the render
//! calls; the registry stores none.
//!
//! The per-app interference table answers the paper's fleet question
//! directly: it is Fig. 8 at fleet scale (which store apps interfere, and
//! how often).

use crate::event::{Sweep, TelemetryEvent};
use hg_rules::json::Json;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bucket upper bounds (inclusive) per histogram name. The last implicit
/// bucket is `+Inf`.
fn bounds_for(name: &str) -> &'static [u64] {
    match name {
        "install_micros" => &[
            50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
        ],
        _ => &[1, 10, 100, 1_000, 10_000, 100_000],
    }
}

/// A fixed-bucket histogram: per-bucket counts (last bucket is `+Inf`),
/// observation count and value sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive bucket upper bounds.
    pub bounds: &'static [u64],
    /// Per-bucket counts; `counts[bounds.len()]` is the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Observations.
    pub count: u64,
    /// Value sum.
    pub sum: u128,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0..=100.0`), linearly interpolated
    /// within the covering bucket — the standard fixed-bucket estimate
    /// (what a Prometheus `histogram_quantile` computes). Observations in
    /// the open-ended `+Inf` bucket clamp to the last finite bound; an
    /// empty histogram reports 0.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = p.clamp(0.0, 100.0) / 100.0 * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket) in self.counts.iter().enumerate() {
            let next = cumulative + bucket;
            if (next as f64) >= rank && bucket > 0 {
                let upper = match self.bounds.get(i) {
                    Some(&bound) => bound as f64,
                    // +Inf bucket: no upper edge to interpolate toward.
                    None => return self.bounds[self.bounds.len() - 1] as f64,
                };
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let into = (rank - cumulative as f64).max(0.0) / bucket as f64;
                return lower + (upper - lower) * into.min(1.0);
            }
            cumulative = next;
        }
        self.bounds[self.bounds.len() - 1] as f64
    }
}

/// One app's row in the fleet interference table (paper Fig. 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppInterference {
    /// Install/upgrade attempts the app was the subject of, one per home.
    pub installs: u64,
    /// Attempts that surfaced interference (dirty verdicts).
    pub dirty: u64,
    /// Threats the app was a member of (either side of the pair).
    pub threats: u64,
}

impl AppInterference {
    /// Dirty attempts as a fraction of all attempts (0.0 when none).
    pub fn rate(&self) -> f64 {
        if self.installs == 0 {
            0.0
        } else {
            self.dirty as f64 / self.installs as f64
        }
    }
}

/// The aggregates behind the registry's lock.
#[derive(Debug, Default, Clone)]
pub(crate) struct Inner {
    counters: BTreeMap<&'static str, u64>,
    /// Threats by kind acronym.
    threat_kinds: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    interference: BTreeMap<String, AppInterference>,
}

impl Inner {
    fn bump(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds_for(name)))
            .observe(value);
    }

    /// Applies `charge` to the app's interference row: one lookup when
    /// the row exists, and an allocation for its key only on first use.
    fn charge(&mut self, app: &str, charge: impl Fn(&mut AppInterference)) {
        match self.interference.get_mut(app) {
            Some(row) => charge(row),
            None => {
                let mut row = AppInterference::default();
                charge(&mut row);
                self.interference.insert(app.to_string(), row);
            }
        }
    }

    /// A sweep unit's shard visit.
    fn sweep(&mut self, sweep: &Option<Sweep>) {
        if let Some(sweep) = sweep {
            self.bump("sweep_shards_total", 1);
            self.bump("sweep_homes_total", sweep.visited);
        }
    }

    /// Folds one bus event into the aggregates. A counter appears once an
    /// event carries a value for it: a write whose homes produced no
    /// report bumps no per-home counter and adds no interference row.
    pub(crate) fn fold(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::HomesCreated { homes } => {
                self.bump("homes_created_total", homes.len() as u64)
            }
            TelemetryEvent::InstallCompleted {
                app,
                upgrade,
                clean,
                dirty,
                pairs,
                solves,
                cache_hits,
                cache_misses,
                threats,
                sweep,
                micros,
                ..
            } => {
                let attempts = clean + dirty;
                if attempts > 0 {
                    self.bump("installs_total", attempts);
                    if *clean > 0 {
                        self.bump("installs_clean_total", *clean);
                    }
                    if *dirty > 0 {
                        self.bump("installs_dirty_total", *dirty);
                    }
                    if *upgrade {
                        self.bump("upgrades_total", attempts);
                    }
                    self.bump("pairs_checked_total", *pairs);
                    self.bump("solves_total", *solves);
                    self.bump("cache_hits_total", *cache_hits);
                    self.bump("cache_misses_total", *cache_misses);
                    self.charge(app, |row| {
                        row.installs += attempts;
                        row.dirty += dirty;
                    });
                }
                for threat in threats {
                    self.bump("threats_total", threat.count);
                    *self.threat_kinds.entry(threat.kind).or_insert(0) += threat.count;
                    self.charge(&threat.source_app, |row| row.threats += threat.count);
                    if threat.target_app != threat.source_app {
                        self.charge(&threat.target_app, |row| row.threats += threat.count);
                    }
                }
                self.observe("install_micros", *micros);
                self.sweep(sweep);
            }
            TelemetryEvent::UninstallCompleted {
                homes,
                removed_rules,
                retired_threats,
                sweep,
                ..
            } => {
                if !homes.is_empty() {
                    self.bump("uninstalls_total", homes.len() as u64);
                    self.bump("uninstall_rules_removed_total", *removed_rules);
                    self.bump("uninstall_threats_retired_total", *retired_threats);
                }
                self.sweep(sweep);
            }
            TelemetryEvent::SnapshotTaken { micros, .. } => {
                self.bump("snapshots_total", 1);
                self.bump("snapshot_micros_total", *micros);
            }
            TelemetryEvent::QueueSaturated { .. } => self.bump("queue_saturated_total", 1),
            TelemetryEvent::JournalAppended { records, bytes } => {
                self.bump("journal_appends_total", 1);
                self.bump("journal_records_total", *records);
                self.bump("journal_bytes_total", *bytes);
            }
            TelemetryEvent::JournalSynced { micros } => {
                self.bump("journal_syncs_total", 1);
                self.bump("journal_sync_micros_total", *micros);
            }
            TelemetryEvent::JournalCheckpoint { homes, micros, .. } => {
                self.bump("journal_checkpoints_total", 1);
                self.bump("journal_checkpoint_homes_total", *homes);
                self.bump("journal_checkpoint_micros_total", *micros);
            }
            TelemetryEvent::JournalReplayed { records, micros } => {
                self.bump("journal_replays_total", 1);
                self.bump("journal_replayed_records_total", *records);
                self.bump("journal_replay_micros_total", *micros);
            }
            TelemetryEvent::IoRetry { attempts, .. } => {
                self.bump("io_retry_events_total", 1);
                self.bump("io_retries_total", *attempts);
            }
            TelemetryEvent::JournalDegraded { .. } => self.bump("journal_degraded_total", 1),
            TelemetryEvent::JournalHealed { .. } => self.bump("journal_healed_total", 1),
        }
    }
}

/// The fleet metrics registry (see the [module docs](self)).
#[derive(Debug)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry. Only a bus creates one, so every count it holds
    /// came through a publish.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(Inner::default()),
        }
    }

    // Lock recovery: a fold is map bumps and inserts with nothing that can
    // panic part-way, so the maps stay valid — recover them rather than
    // propagating poison into every publisher and route.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One monotonic counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// One histogram's current shape.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// The interference table, highest rate first (rate ties break toward
    /// more attempts, then app name — a stable, meaningful leaderboard).
    pub fn interference_table(&self) -> Vec<(String, AppInterference)> {
        // Copied in its own statement, so the guard is released before
        // the sort: publishers need this lock.
        let rows = self.lock().interference.clone();
        leaderboard(rows)
    }

    /// The interference table as JSON rows, highest rate first (the
    /// `/analytics/interference` body).
    pub fn interference_json(&self) -> Json {
        Json::Arr(
            self.interference_table()
                .into_iter()
                .map(|(app, row)| interference_row_json(&app, &row))
                .collect(),
        )
    }

    /// The named histograms as a JSON object (the `/analytics/latency`
    /// body); names with no observations yet are omitted.
    pub fn histograms_json(&self, names: &[&str]) -> Json {
        let inner = self.lock();
        Json::Obj(
            names
                .iter()
                .filter_map(|name| {
                    inner
                        .histograms
                        .get_key_value(*name)
                        .map(|(key, h)| ((*key).to_string(), histogram_json(h)))
                })
                .collect(),
        )
    }

    /// The full registry as flat JSON (the `GET /metrics` body), with the
    /// scraper's sampled `gauges`.
    pub fn to_json(&self, gauges: &BTreeMap<String, i64>) -> Json {
        let inner = self.lock().clone();
        let counters = Json::Obj(
            inner
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::Num(*v as i64)))
                .collect(),
        );
        let gauges = Json::Obj(
            gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let kinds = Json::Obj(
            inner
                .threat_kinds
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::Num(*v as i64)))
                .collect(),
        );
        let histograms = Json::Obj(
            inner
                .histograms
                .iter()
                .map(|(name, h)| ((*name).to_string(), histogram_json(h)))
                .collect(),
        );
        let interference = Json::Arr(
            leaderboard(inner.interference)
                .into_iter()
                .map(|(app, row)| interference_row_json(&app, &row))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("threats_by_kind", kinds),
            ("histograms", histograms),
            ("interference", interference),
        ])
    }

    /// A Prometheus-style text rendering (`GET /metrics?format=prometheus`):
    /// `hg_`-prefixed counters and the scraper's sampled `gauges`,
    /// cumulative `_bucket{le=…}` histogram series, and the interference
    /// table as labeled gauges.
    pub fn render_prometheus(&self, gauges: &BTreeMap<String, i64>) -> String {
        let inner = self.lock().clone();
        let mut out = String::new();
        for (name, value) in &inner.counters {
            out.push_str(&format!("# TYPE hg_{name} counter\nhg_{name} {value}\n"));
        }
        for (kind, value) in &inner.threat_kinds {
            out.push_str(&format!(
                "hg_threats_by_kind_total{{kind=\"{kind}\"}} {value}\n"
            ));
        }
        for (name, value) in gauges {
            out.push_str(&format!("# TYPE hg_{name} gauge\nhg_{name} {value}\n"));
        }
        for (name, h) in &inner.histograms {
            out.push_str(&format!("# TYPE hg_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                out.push_str(&format!(
                    "hg_{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!("hg_{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("hg_{name}_sum {}\n", h.sum));
            out.push_str(&format!("hg_{name}_count {}\n", h.count));
        }
        for (app, row) in leaderboard(inner.interference) {
            out.push_str(&format!(
                "hg_app_interference_rate{{app=\"{app}\"}} {:.6}\n",
                row.rate()
            ));
            out.push_str(&format!(
                "hg_app_installs_total{{app=\"{app}\"}} {}\n",
                row.installs
            ));
        }
        out
    }
}

/// The interference rows highest rate first (rate ties break toward more
/// attempts, then app name — a stable, meaningful leaderboard).
fn leaderboard(rows: BTreeMap<String, AppInterference>) -> Vec<(String, AppInterference)> {
    let mut rows: Vec<(String, AppInterference)> = rows.into_iter().collect();
    rows.sort_by(|(app_a, a), (app_b, b)| {
        b.rate()
            .partial_cmp(&a.rate())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.installs.cmp(&a.installs))
            .then(app_a.cmp(app_b))
    });
    rows
}

fn histogram_json(h: &Histogram) -> Json {
    Json::obj([
        (
            "buckets",
            Json::Arr(
                h.bounds
                    .iter()
                    .zip(&h.counts)
                    .map(|(bound, count)| {
                        Json::obj([
                            ("le", Json::Num(*bound as i64)),
                            ("count", Json::Num(*count as i64)),
                        ])
                    })
                    .chain(std::iter::once(Json::obj([
                        ("le", Json::Null),
                        ("count", Json::Num(*h.counts.last().unwrap_or(&0) as i64)),
                    ])))
                    .collect(),
            ),
        ),
        ("count", Json::Num(h.count as i64)),
        ("sum", Json::Num(h.sum as i64)),
        ("mean", Json::Num(h.mean() as i64)),
        ("p50", Json::Num(h.percentile(50.0).round() as i64)),
        ("p95", Json::Num(h.percentile(95.0).round() as i64)),
        ("p99", Json::Num(h.percentile(99.0).round() as i64)),
    ])
}

fn interference_row_json(app: &str, row: &AppInterference) -> Json {
    Json::obj([
        ("app", Json::str(app)),
        ("installs", Json::Num(row.installs as i64)),
        ("dirty", Json::Num(row.dirty as i64)),
        (
            "rate_pct",
            Json::Num((row.rate() * 10_000.0).round() as i64),
        ),
        ("threats", Json::Num(row.threats as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ThreatCount;

    /// One install write into `clean + dirty` homes, its dirty reports
    /// carrying `threats`.
    fn install(app: &str, clean: u64, dirty: u64, threats: Vec<ThreatCount>) -> TelemetryEvent {
        TelemetryEvent::InstallCompleted {
            app: app.to_string(),
            upgrade: false,
            homes: (0..clean + dirty).collect(),
            clean,
            dirty,
            pairs: 3,
            solves: 1,
            cache_hits: 2,
            cache_misses: 1,
            threats,
            sweep: None,
            micros: 420,
        }
    }

    #[test]
    fn counters_and_interference_aggregate() {
        let reg = MetricsRegistry::new();
        // A two-home write of A (one dirty, racing B) and a one-home B.
        let race = ThreatCount {
            kind: "AR",
            source_app: "A".into(),
            target_app: "B".into(),
            count: 1,
        };
        reg.lock().fold(&install("A", 1, 1, vec![race]));
        reg.lock().fold(&install("B", 1, 0, Vec::new()));
        assert_eq!(reg.counter("installs_total"), 3, "one per home");
        assert_eq!(reg.counter("installs_dirty_total"), 1);
        assert_eq!(reg.counter("cache_hits_total"), 4, "summed per write");
        assert_eq!(reg.counter("threats_total"), 1);
        assert_eq!(reg.histogram("install_micros").unwrap().count, 2);
        // A write whose homes produced no report counts as a write only.
        reg.lock().fold(&install("C", 0, 0, Vec::new()));
        assert_eq!(reg.counter("installs_total"), 3);
        assert_eq!(reg.histogram("install_micros").unwrap().count, 3);
        let table = reg.interference_table();
        assert_eq!(table.len(), 2, "no row for an app no home reported on");
        assert_eq!(table[0].0, "A", "A has the higher interference rate");
        assert!((table[0].1.rate() - 0.5).abs() < 1e-9);
        assert_eq!(table[0].1.threats, 1);
        assert_eq!(table[1].1.threats, 1, "both pair members are charged");
        // Renders in both formats without panicking, with the data and
        // the scraper's gauges present.
        let gauges = BTreeMap::from([("fleet_homes".to_string(), 2)]);
        let json = reg.to_json(&gauges);
        assert!(json.get("counters").is_some());
        assert_eq!(
            json.get("gauges")
                .and_then(|g| g.get("fleet_homes"))
                .and_then(Json::as_num),
            Some(2)
        );
        let prom = reg.render_prometheus(&gauges);
        assert!(prom.contains("hg_installs_total 3"));
        assert!(prom.contains("# TYPE hg_fleet_homes gauge\nhg_fleet_homes 2\n"));
        assert!(prom.contains("hg_app_interference_rate{app=\"A\"} 0.5"));
    }

    #[test]
    fn histograms_bucket_observations() {
        let reg = MetricsRegistry::new();
        for took in [30, 40, 9_000] {
            let mut event = install("A", 1, 0, Vec::new());
            if let TelemetryEvent::InstallCompleted { micros, .. } = &mut event {
                *micros = took;
            }
            reg.lock().fold(&event);
        }
        let h = reg.histogram("install_micros").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.counts[0], 2, "30 and 40µs land in the ≤50 bucket");
        assert_eq!(h.counts[7], 1, "9,000µs lands in the ≤10,000 bucket");
        assert_eq!(h.sum, 9_070);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = Histogram::new(bounds_for("install_micros"));
        assert_eq!(h.percentile(50.0), 0.0, "empty histogram reports 0");
        // 100 observations in the ≤500µs bucket (lower edge 250): the
        // interpolated median sits mid-bucket.
        (0..100).for_each(|_| h.observe(375));
        assert!((h.percentile(50.0) - 375.0).abs() < 1.0, "p50 ≈ 375");
        assert!((h.percentile(100.0) - 500.0).abs() < 1e-9);
        // Skewed tail: 90 fast (≤50 bucket), 10 slow (≤25,000 bucket).
        let mut h = Histogram::new(bounds_for("install_micros"));
        (0..90).for_each(|_| h.observe(40));
        (0..10).for_each(|_| h.observe(20_000));
        let p50 = h.percentile(50.0);
        assert!(p50 <= 50.0, "median stays in the fast bucket, got {p50}");
        let p95 = h.percentile(95.0);
        assert!(
            (10_000.0..=25_000.0).contains(&p95),
            "p95 lands in the slow bucket, got {p95}"
        );
        assert!(h.percentile(99.0) >= p95);
        // An observation past the last bound clamps to the last finite edge.
        let mut h = Histogram::new(bounds_for("install_micros"));
        (0..4).for_each(|_| h.observe(1_000_000));
        assert_eq!(h.percentile(50.0), 100_000.0);
        // Registry JSON carries the percentile fields.
        let reg = MetricsRegistry::new();
        reg.lock().fold(&install("A", 1, 0, Vec::new()));
        let json = reg.histograms_json(&["install_micros"]);
        let h = json.get("install_micros").unwrap();
        assert!(h.get("p50").and_then(Json::as_num).is_some());
        assert!(h.get("p95").and_then(Json::as_num).is_some());
        assert!(h.get("p99").and_then(Json::as_num).is_some());
    }

    #[test]
    fn journal_events_fold_into_counters() {
        let reg = MetricsRegistry::new();
        reg.lock().fold(&TelemetryEvent::JournalAppended {
            records: 1,
            bytes: 200,
        });
        reg.lock().fold(&TelemetryEvent::JournalAppended {
            records: 1,
            bytes: 100,
        });
        reg.lock()
            .fold(&TelemetryEvent::JournalSynced { micros: 40 });
        reg.lock().fold(&TelemetryEvent::JournalCheckpoint {
            offset: 2,
            homes: 5,
            micros: 900,
        });
        reg.lock().fold(&TelemetryEvent::JournalReplayed {
            records: 2,
            micros: 300,
        });
        assert_eq!(reg.counter("journal_appends_total"), 2);
        assert_eq!(reg.counter("journal_records_total"), 2);
        assert_eq!(reg.counter("journal_bytes_total"), 300);
        assert_eq!(reg.counter("journal_syncs_total"), 1);
        assert_eq!(reg.counter("journal_checkpoints_total"), 1);
        assert_eq!(reg.counter("journal_checkpoint_homes_total"), 5);
        assert_eq!(reg.counter("journal_replays_total"), 1);
        assert_eq!(reg.counter("journal_replayed_records_total"), 2);
    }
}
