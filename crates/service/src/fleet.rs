//! The sharded concurrent home registry.
//!
//! A [`Fleet`] routes every operation through a [`HomeId`] to one of N
//! shards, each a `RwLock<BTreeMap<HomeId, Home>>`. There is deliberately
//! no global lock: two threads driving installs into different shards
//! never contend, and read-side operations (`with_home`, `len`) share
//! each shard's lock. `HomeId`s are dense (`AtomicU64`) and route by
//! `id % shards`, so consecutive creations spread round-robin across the
//! shards — a thread working a contiguous id range touches all of them.
//!
//! # Sweeps and dispatch
//!
//! Fleet-wide operations decompose into **per-shard units** —
//! [`Fleet::install_group`], [`Fleet::upgrade_shard`],
//! [`Fleet::uninstall_shard`] — merged deterministically by
//! [`UpgradeRollout::merge`] / [`ForceUninstall::merge`]. The inherent
//! [`Fleet::propagate_upgrade`] / [`Fleet::force_uninstall`] /
//! [`Fleet::install_many`] walk the shards serially (the in-process,
//! zero-thread path); the canonical *concurrent* dispatch is `hg-api`'s
//! per-shard work-queue executor, which runs the same per-shard units on
//! one dedicated worker per shard and merges through the same helpers —
//! so queue-dispatched sweeps are report-identical to the serial walk by
//! construction.
//!
//! # Telemetry
//!
//! The fleet is the only publisher of lifecycle telemetry, and it
//! publishes per write, not per home: every creation or import, every
//! install-shaped write ([`Fleet::install_app`],
//! [`Fleet::install_app_forced`], [`Fleet::upgrade_app`],
//! [`Fleet::install_group`], [`Fleet::upgrade_shard`]) and every
//! [`Fleet::uninstall_app`] or [`Fleet::uninstall_shard`] publishes
//! exactly one event, after its records are appended and before it
//! returns. A batch or sweep event carries its homes, verdict counts,
//! summed detection effort and threat tally, so the registry's per-home
//! counters stay exact. Confirms, ingests, retirements and policy and
//! configuration writes publish nothing, and homes, detectors and
//! enforcers hold no bus.

use hg_config::ConfigInfo;
use hg_detector::DetectStats;
use hg_journal::{journal_err, Journal, JournalRecord};
use hg_persist::FleetSnapshot;
use hg_telemetry::{Sweep, TelemetryBus, TelemetryEvent, ThreatCount};
use homeguard_core::{
    HgError, Home, HomeBuilder, HomeId, HomeState, InstallReport, MediationStats, PolicyTable,
    RuleStore, UninstallReport,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

type Shard = RwLock<BTreeMap<HomeId, Home>>;

/// Per-home outcomes of a bulk operation: one entry per requested home, in
/// request order.
pub type BulkOutcomes = Vec<(HomeId, Result<InstallReport, HgError>)>;

/// Builds a [`Fleet`]: shard width and the home template.
pub struct FleetBuilder {
    store: Arc<RuleStore>,
    shards: usize,
    template: HomeBuilder,
}

impl FleetBuilder {
    /// A builder with 16 shards and deployment-default homes.
    pub fn new(store: Arc<RuleStore>) -> FleetBuilder {
        FleetBuilder {
            template: HomeBuilder::new(store.clone()),
            store,
            shards: 16,
        }
    }

    /// Sets the shard count (clamped to at least 1). More shards means
    /// less write contention between homes; the right number is roughly
    /// the expected thread parallelism.
    pub fn shards(mut self, n: usize) -> FleetBuilder {
        self.shards = n.max(1);
        self
    }

    /// Customizes the template every [`Fleet::create_home`] builds from
    /// (modes, unification policy, handling policies, …).
    pub fn home_defaults(
        mut self,
        customize: impl FnOnce(HomeBuilder) -> HomeBuilder,
    ) -> FleetBuilder {
        self.template = customize(self.template);
        self
    }

    /// Builds the fleet.
    pub fn build(self) -> Fleet {
        Fleet {
            store: self.store,
            shards: (0..self.shards)
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
            next_id: AtomicU64::new(0),
            template: self.template,
            telemetry: OnceLock::new(),
            journal: OnceLock::new(),
        }
    }
}

/// The HomeGuard service: a concurrent registry of per-home sessions over
/// one shared rule store. `Send + Sync` throughout — clone an
/// `Arc<Fleet>` into as many threads as you like.
pub struct Fleet {
    store: Arc<RuleStore>,
    shards: Box<[Shard]>,
    next_id: AtomicU64,
    template: HomeBuilder,
    /// Fleet event bus, attached at most once ([`Fleet::attach_telemetry`]).
    /// Unset, [`Write::publish`] is a single pointer test.
    telemetry: OnceLock<Arc<TelemetryBus>>,
    /// Write-ahead lifecycle journal, attached at most once
    /// ([`Fleet::attach_journal`]). Unset, [`Fleet::write`] is a single
    /// pointer test — a detached journal costs nothing.
    journal: OnceLock<Attached>,
}

/// A fleet's journal and the [`Journal::timeline`] it was attached on.
struct Attached {
    journal: Arc<Journal>,
    timeline: u64,
}

impl Attached {
    /// The journal, unless a [`Journal::reset`] has since handed it to the
    /// fleet that replaced this one. Call under either side of the gate,
    /// which `reset` holds exclusively.
    fn current(&self) -> Result<&Journal, HgError> {
        let now = self.journal.timeline();
        if now != self.timeline {
            return Err(HgError::Degraded(format!(
                "this fleet was replaced: its journal moved from timeline {} to {now}",
                self.timeline
            )));
        }
        Ok(&self.journal)
    }
}

/// One admitted fleet write ([`Fleet::write`]): holds the journal's
/// checkpoint gate shared from admission until the guard drops, so no
/// checkpoint can cut between a mutation and its records. Without a
/// journal it holds nothing and appends nothing; without a bus it
/// publishes nothing.
struct Write<'a> {
    journal: Option<(&'a Journal, RwLockReadGuard<'a, ()>)>,
    /// The fleet's bus and the write's admission time.
    telemetry: Option<(&'a TelemetryBus, Instant)>,
}

impl Write<'_> {
    /// Builds and appends one record — only when a journal is attached.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the append fails: the mutation is
    /// applied, its durability lapsed.
    fn append(&self, record: impl FnOnce() -> JournalRecord) -> Result<(), HgError> {
        match &self.journal {
            Some((journal, _gate)) => journal.append(&record()).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Ends the write with its one telemetry event, built from the write's
    /// wall time in microseconds — only when a bus is attached. Called
    /// once the records are appended, whether or not the append
    /// succeeded: the event describes what the write applied.
    fn publish(self, event: impl FnOnce(u64) -> TelemetryEvent) {
        if let Some((bus, admitted)) = self.telemetry {
            bus.publish(event(admitted.elapsed().as_micros() as u64));
        }
    }

    /// Ends a creation or import write: one record and one event name the
    /// new homes `ids`, all in `state`.
    ///
    /// # Errors
    ///
    /// As [`Write::append`]; the event is published either way.
    fn created(self, ids: Vec<u64>, state: impl FnOnce() -> HomeState) -> Result<(), HgError> {
        let journaled = self.append(|| JournalRecord::HomesCreated {
            ids: ids.clone(),
            state: state(),
        });
        self.publish(|_| TelemetryEvent::HomesCreated { homes: ids });
        journaled
    }
}

/// One install-shaped write's reports, tallied for its
/// [`TelemetryEvent::InstallCompleted`].
#[derive(Default)]
struct InstallTally {
    homes: Vec<u64>,
    clean: u64,
    stats: DetectStats,
    threats: Vec<ThreatCount>,
}

impl InstallTally {
    fn of<'r>(reports: impl IntoIterator<Item = (HomeId, &'r InstallReport)>) -> InstallTally {
        let mut tally = InstallTally::default();
        for (id, report) in reports {
            tally.add(id, report);
        }
        tally
    }

    fn add(&mut self, id: HomeId, report: &InstallReport) {
        self.homes.push(id.raw());
        self.clean += u64::from(report.installed);
        self.stats.absorb(report.stats);
        for threat in &report.threats {
            let kind = threat.kind.acronym();
            let (source, target) = (&threat.source.app, &threat.target.app);
            match self
                .threats
                .iter_mut()
                .find(|t| (t.kind, &t.source_app, &t.target_app) == (kind, source, target))
            {
                Some(count) => count.count += 1,
                None => self.threats.push(ThreatCount {
                    kind,
                    source_app: source.clone(),
                    target_app: target.clone(),
                    count: 1,
                }),
            }
        }
    }

    fn event(self, app: &str, upgrade: bool, sweep: Option<Sweep>, micros: u64) -> TelemetryEvent {
        TelemetryEvent::InstallCompleted {
            app: app.to_string(),
            upgrade,
            clean: self.clean,
            dirty: self.homes.len() as u64 - self.clean,
            homes: self.homes,
            pairs: self.stats.pairs,
            solves: self.stats.solves,
            cache_hits: self.stats.cache_hits,
            cache_misses: self.stats.cache_misses,
            threats: self.threats,
            sweep,
            micros,
        }
    }
}

/// The one [`TelemetryEvent::UninstallCompleted`] of an uninstall write.
fn uninstall_event<'r>(
    app: &str,
    removed: impl IntoIterator<Item = (HomeId, &'r UninstallReport)>,
    sweep: Option<Sweep>,
) -> TelemetryEvent {
    let (mut homes, mut removed_rules, mut retired_threats) = (Vec::new(), 0, 0);
    for (id, report) in removed {
        homes.push(id.raw());
        removed_rules += report.removed_rules.len() as u64;
        retired_threats += report.retired_threats as u64;
    }
    TelemetryEvent::UninstallCompleted {
        app: app.to_string(),
        homes,
        removed_rules,
        retired_threats,
        sweep,
    }
}

/// The outcome of a fleet-wide upgrade rollout.
#[derive(Debug)]
pub struct UpgradeRollout {
    /// The app rolled out.
    pub app: String,
    /// Homes where the upgrade was clean and auto-confirmed.
    pub upgraded: Vec<HomeId>,
    /// Homes where the upgrade surfaced interference: the old version is
    /// still running, and the report awaits a per-home
    /// [`Fleet::confirm_install`].
    pub pending: Vec<(HomeId, InstallReport)>,
    /// Homes skipped because the app is not installed there.
    pub skipped: usize,
    /// Per-home upgrade failures (the sweep continues past them).
    pub failed: Vec<(HomeId, HgError)>,
    /// Shards skipped because their lock was poisoned — their homes were
    /// not re-checked and still run the old version.
    pub poisoned_shards: usize,
    /// Shards refused up front because the journal refused writes (it is
    /// quarantined, see [`Fleet::heal_journal`]) — their homes were not
    /// touched and still run the old version; retry after healing.
    pub refused_shards: usize,
    /// Per-shard journal append failures: the named homes **were**
    /// upgraded but the sweep's records never became durable — a recovery
    /// before the next checkpoint replays them on the old version.
    pub journal_lapses: Vec<String>,
}

/// One shard's contribution to a fleet-wide upgrade rollout (the unit a
/// queue executor dispatches to that shard's worker; see
/// [`Fleet::upgrade_shard`]). Field meanings match [`UpgradeRollout`];
/// per-home vectors are in the shard's ascending `HomeId` order.
#[derive(Debug, Default)]
pub struct ShardRollout {
    /// The shard lock was poisoned; its homes were not visited.
    pub poisoned: bool,
    /// The journal refused the write; no home in this shard was visited.
    pub refused: bool,
    /// Homes upgraded cleanly in place.
    pub upgraded: Vec<HomeId>,
    /// Homes whose dirty report awaits per-home confirmation.
    pub pending: Vec<(HomeId, InstallReport)>,
    /// Homes in this shard not running the app.
    pub skipped: usize,
    /// Per-home upgrade failures.
    pub failed: Vec<(HomeId, HgError)>,
    /// The sweep's records failed to append after the homes were upgraded:
    /// state applied, durability lapsed (the journal has quarantined).
    pub journal_lapsed: Option<String>,
}

/// One shard's contribution to a fleet-wide forced uninstall (see
/// [`Fleet::uninstall_shard`]). Field meanings match [`ForceUninstall`].
#[derive(Debug, Default)]
pub struct ShardUninstall {
    /// The shard lock was poisoned; its homes were not visited.
    pub poisoned: bool,
    /// The journal refused the write; no home in this shard was visited.
    pub refused: bool,
    /// Per-home retraction reports, ascending `HomeId` order.
    pub removed: Vec<(HomeId, UninstallReport)>,
    /// Homes in this shard not running the app.
    pub skipped: usize,
    /// Per-home failures.
    pub failed: Vec<(HomeId, HgError)>,
    /// The sweep record's append failed after the homes were retracted:
    /// state applied, durability lapsed (the journal has quarantined).
    pub journal_lapsed: Option<String>,
}

/// The outcome of a fleet-wide forced uninstall (a store-pulled app).
#[derive(Debug)]
pub struct ForceUninstall {
    /// The app removed.
    pub app: String,
    /// Per-home retraction reports for every home that ran the app.
    pub removed: Vec<(HomeId, UninstallReport)>,
    /// Homes that never had the app installed.
    pub skipped: usize,
    /// Per-home failures (the sweep continues past them).
    pub failed: Vec<(HomeId, HgError)>,
    /// Shards skipped because their lock was poisoned — their homes still
    /// run the app.
    pub poisoned_shards: usize,
    /// Shards refused up front by a journal refusing writes — their homes
    /// still run the app; retry after healing.
    pub refused_shards: usize,
    /// Per-shard journal append failures: the named homes **were**
    /// retracted but the sweep record never became durable.
    pub journal_lapses: Vec<String>,
    /// Whether the store database carried the app (and retired it).
    pub store_retired: bool,
    /// The store-level purge was refused or failed to journal (degraded
    /// service); the app may still be resurrectable from the store.
    pub store_error: Option<String>,
}

impl UpgradeRollout {
    /// Merges per-shard rollout parts into one fleet-wide rollout. The
    /// merge is deterministic regardless of part arrival order: every
    /// per-home vector is sorted by `HomeId`, so a queue-dispatched sweep
    /// whose shards finish in any order reports exactly what the serial
    /// shard walk would.
    pub fn merge(app: impl Into<String>, parts: impl IntoIterator<Item = ShardRollout>) -> Self {
        let mut rollout = UpgradeRollout {
            app: app.into(),
            upgraded: Vec::new(),
            pending: Vec::new(),
            skipped: 0,
            failed: Vec::new(),
            poisoned_shards: 0,
            refused_shards: 0,
            journal_lapses: Vec::new(),
        };
        for part in parts {
            if part.poisoned {
                rollout.poisoned_shards += 1;
                continue;
            }
            if part.refused {
                rollout.refused_shards += 1;
                continue;
            }
            rollout.upgraded.extend(part.upgraded);
            rollout.pending.extend(part.pending);
            rollout.skipped += part.skipped;
            rollout.failed.extend(part.failed);
            rollout.journal_lapses.extend(part.journal_lapsed);
        }
        rollout.upgraded.sort_unstable();
        rollout.pending.sort_by_key(|(id, _)| *id);
        rollout.failed.sort_by_key(|(id, _)| *id);
        rollout
    }
}

impl ForceUninstall {
    /// Merges per-shard uninstall parts (deterministic like
    /// [`UpgradeRollout::merge`]). `store_retired` starts `false`: the
    /// store-level purge happens after the home sweep, and its outcome is
    /// recorded by the caller.
    pub fn merge(app: impl Into<String>, parts: impl IntoIterator<Item = ShardUninstall>) -> Self {
        let mut out = ForceUninstall {
            app: app.into(),
            removed: Vec::new(),
            skipped: 0,
            failed: Vec::new(),
            poisoned_shards: 0,
            refused_shards: 0,
            journal_lapses: Vec::new(),
            store_retired: false,
            store_error: None,
        };
        for part in parts {
            if part.poisoned {
                out.poisoned_shards += 1;
                continue;
            }
            if part.refused {
                out.refused_shards += 1;
                continue;
            }
            out.removed.extend(part.removed);
            out.skipped += part.skipped;
            out.failed.extend(part.failed);
            out.journal_lapses.extend(part.journal_lapsed);
        }
        out.removed.sort_by_key(|(id, _)| *id);
        out.failed.sort_by_key(|(id, _)| *id);
        out
    }
}

impl Fleet {
    /// A fleet with deployment defaults over `store`.
    pub fn new(store: Arc<RuleStore>) -> Fleet {
        Fleet::builder(store).build()
    }

    /// A builder for a customized fleet.
    pub fn builder(store: Arc<RuleStore>) -> FleetBuilder {
        FleetBuilder::new(store)
    }

    /// The shared rule store every home installs from.
    pub fn store(&self) -> &Arc<RuleStore> {
        &self.store
    }

    /// Attaches the fleet event bus: from now on every lifecycle write
    /// publishes its one event into it (see the [module docs](self)), and
    /// the attached journal its checkpoint, replay, quarantine and heal
    /// transitions (its appends, syncs and retries it only counts, in
    /// [`Journal::counters`]). Homes hold no bus, so attaching touches no
    /// shard. At most one bus per fleet — a second call is ignored and
    /// returns `false`.
    ///
    /// Telemetry is a pure observer: reports, sweeps and snapshots are
    /// bit-identical with or without an attached bus (proven in
    /// `tests/telemetry_differential.rs`).
    pub fn attach_telemetry(&self, bus: Arc<TelemetryBus>) -> bool {
        if self.telemetry.set(bus.clone()).is_err() {
            return false;
        }
        if let Some(attached) = self.journal.get() {
            attached.journal.set_telemetry(bus);
        }
        true
    }

    /// The attached fleet event bus, if any.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryBus>> {
        self.telemetry.get()
    }

    /// Attaches the write-ahead lifecycle journal: every journaled
    /// mutation from now on appends a [`JournalRecord`] before returning,
    /// making restore = *last checkpoint + replay* ([`Fleet::recover`]).
    /// At most one journal per fleet — a second call is ignored and
    /// returns `Ok(false)`.
    ///
    /// A journal with no stored checkpoint gets a **baseline checkpoint**
    /// of this fleet's current state, so replay always has a starting
    /// image; a journal that already carries history (the recovery path)
    /// is attached as-is. Attach before serving traffic:
    /// mutations racing the baseline capture are neither journaled nor in
    /// it.
    ///
    /// From then on every lifecycle mutation is one admitted write: it is
    /// refused with [`HgError::Degraded`] before touching state while the
    /// journal is quarantined (until [`Fleet::heal_journal`]), and for
    /// good once a [`Journal::reset`] hands the journal to another fleet
    /// (`POST /restore` in `hg-api`).
    ///
    /// # Errors
    ///
    /// [`HgError::Poisoned`] when the baseline snapshot hits a poisoned
    /// shard; [`HgError::Journal`] when writing the baseline fails.
    pub fn attach_journal(&self, journal: Arc<Journal>) -> Result<bool, HgError> {
        if self.journal.get().is_some() {
            return Ok(false);
        }
        if let Some(bus) = self.telemetry.get() {
            journal.set_telemetry(bus.clone());
        }
        let timeline = {
            let _cut = journal.gate_exclusive();
            if journal.last_checkpoint_offset().is_none() {
                journal.checkpoint_write(journal.next_offset(), &self.snapshot()?)?;
            }
            journal.timeline()
        };
        Ok(self.journal.set(Attached { journal, timeline }).is_ok())
    }

    /// The attached write-ahead journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.get().map(|attached| &attached.journal)
    }

    /// Fleet-wide mediation statistics: the sum of every home's
    /// session-lifetime [`Home::mediation_stats`] aggregate. Poisoned
    /// shards are recovered for the read — counters are observability
    /// state, not ground truth.
    pub fn mediation_stats(&self) -> MediationStats {
        let mut total = MediationStats::default();
        for shard in &self.shards {
            let shard = shard
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for home in shard.values() {
                total.absorb(home.mediation_stats());
            }
        }
        total
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered homes. Counts poisoned shards too: a panic
    /// inside a home handler can leave that *home's* state suspect (which
    /// is why `with_home*` report [`HgError::Poisoned`]), but the shard
    /// map itself only mutates in `create_home`/`remove_home` outside any
    /// user code, so registry-level enumeration recovers the guard.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// Whether no home is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every registered home id, ascending (poisoned shards included — see
    /// [`Fleet::len`]).
    pub fn home_ids(&self) -> Vec<HomeId> {
        let mut ids: Vec<HomeId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }

    /// The index of the shard `id` routes to — the partition key a
    /// per-shard work-queue dispatcher groups requests by.
    pub fn shard_of(&self, id: HomeId) -> usize {
        (id.raw() % self.shards.len() as u64) as usize
    }

    fn shard(&self, id: HomeId) -> &Shard {
        &self.shards[self.shard_of(id)]
    }

    /// Registers a new home built from the fleet's template and returns
    /// its handle.
    ///
    /// # Errors
    ///
    /// [`HgError::Degraded`] when the journal refuses writes (nothing is
    /// created — see [`Fleet::attach_journal`]); [`HgError::Journal`] when
    /// the creation could not be journaled (the home **is** created,
    /// durability lapsed).
    pub fn create_home(&self) -> Result<HomeId, HgError> {
        self.create_home_with(|builder| builder)
    }

    /// Registers `count` template homes in one journal transaction: the
    /// template state is exported **once** and a single
    /// [`JournalRecord::HomesCreated`] names every assigned id — one
    /// append regardless of batch size, where [`Fleet::create_home`] pays
    /// a state export and an append per home. The fast path for standing
    /// up large fleets.
    ///
    /// # Errors
    ///
    /// As [`Fleet::create_home`] — a [`HgError::Journal`] failure means
    /// every home in the batch exists but none of them is durable.
    pub fn create_homes(&self, count: usize) -> Result<Vec<HomeId>, HgError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let write = self.write()?;
        let ids: Vec<HomeId> = (0..count)
            .map(|_| self.place(self.template.clone().build()))
            .collect();
        let raw = ids.iter().map(|id| id.raw()).collect();
        write.created(raw, || self.template.clone().build().export_state())?;
        Ok(ids)
    }

    /// Registers a new home, customizing the template first (e.g. per-home
    /// modes or handling policies).
    ///
    /// A poisoned shard quarantines its homes (`with_home*` report
    /// [`HgError::Poisoned`]), so placing a *new* home there would hand
    /// back a handle that is unreachable from birth. Consecutive ids route
    /// to consecutive shards, so this burns ids until one routes to a
    /// healthy shard; only when every shard is poisoned does it recover
    /// the routed shard's map (structurally intact, see [`Fleet::len`])
    /// and insert anyway.
    ///
    /// # Errors
    ///
    /// As [`Fleet::create_home`].
    pub fn create_home_with(
        &self,
        customize: impl FnOnce(HomeBuilder) -> HomeBuilder,
    ) -> Result<HomeId, HgError> {
        let write = self.write()?;
        let home = customize(self.template.clone()).build();
        // Captured before `place` takes the home (a fresh home's state is
        // a handful of short lists).
        let state = home.export_state();
        let id = self.place(home);
        write.created(vec![id.raw()], || state)?;
        Ok(id)
    }

    /// Registers an already-built session under a fresh id (shared by
    /// `create_home_with` and `import_home`), burning ids that route to
    /// poisoned shards as documented on [`Fleet::create_home_with`].
    fn place(&self, home: Home) -> HomeId {
        let mut id = HomeId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        for _ in 0..self.shards.len() {
            match self.shard(id).write() {
                Ok(mut shard) => {
                    shard.insert(id, home);
                    return id;
                }
                Err(_) => {
                    id = HomeId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
                }
            }
        }
        self.shard(id)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(id, home);
        id
    }

    /// Deregisters a home, dropping its session state.
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownHome`]; [`HgError::Poisoned`] when the shard lock
    /// is poisoned; [`HgError::Degraded`] when the journal refuses writes
    /// (the home stays registered).
    pub fn remove_home(&self, id: HomeId) -> Result<(), HgError> {
        let write = self.write()?;
        self.shard(id)
            .write()
            .map_err(|_| HgError::Poisoned("fleet shard"))?
            .remove(&id)
            .ok_or(HgError::UnknownHome(id))?;
        write.append(|| JournalRecord::HomeRemoved { id: id.raw() })
    }

    /// Opens one journaled write — the only way a lifecycle mutation
    /// touches state. With a journal attached it takes the checkpoint
    /// gate shared and admits the write before anything changes; the
    /// returned guard then appends the mutation's records
    /// ([`Write::append`]), publishes its one telemetry event
    /// ([`Write::publish`]) and releases the gate when it ends.
    ///
    /// # Errors
    ///
    /// [`HgError::Degraded`] when the journal is quarantined, or when a
    /// [`Journal::reset`] has handed it to the fleet that replaced this
    /// one. Nothing has been applied.
    fn write(&self) -> Result<Write<'_>, HgError> {
        let telemetry = self.telemetry.get().map(|bus| (&**bus, Instant::now()));
        let Some(attached) = self.journal.get() else {
            return Ok(Write {
                journal: None,
                telemetry,
            });
        };
        let gate = attached.journal.gate();
        let journal = attached.current()?;
        journal.admit()?;
        Ok(Write {
            journal: Some((journal, gate)),
            telemetry,
        })
    }

    /// The attached journal under its **exclusive** gate — the cut
    /// [`Fleet::checkpoint`] and [`Fleet::heal_journal`] take. Refuses a
    /// replaced fleet exactly as [`Fleet::write`] does.
    pub(crate) fn journal_cut(&self) -> Result<(&Journal, RwLockWriteGuard<'_, ()>), HgError> {
        let attached = self
            .journal
            .get()
            .ok_or_else(|| journal_err("no journal attached"))?;
        let cut = attached.journal.gate_exclusive();
        Ok((attached.current()?, cut))
    }

    /// Runs `f` with shared access to a home (other readers of the same
    /// shard proceed concurrently).
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownHome`]; [`HgError::Poisoned`] when the shard lock
    /// is poisoned.
    pub fn with_home<R>(&self, id: HomeId, f: impl FnOnce(&Home) -> R) -> Result<R, HgError> {
        let shard = self
            .shard(id)
            .read()
            .map_err(|_| HgError::Poisoned("fleet shard"))?;
        shard.get(&id).map(f).ok_or(HgError::UnknownHome(id))
    }

    /// Runs `f` with exclusive access to a home. A panic inside `f`
    /// poisons only the owning shard; the rest of the fleet keeps serving,
    /// and operations on the poisoned shard report [`HgError::Poisoned`]
    /// instead of crashing their threads.
    ///
    /// Mutations made directly through this escape hatch **bypass the
    /// write-ahead journal and telemetry**: they journal nothing and
    /// publish nothing — use the named lifecycle methods (`install_app`,
    /// `uninstall_app`, `set_handling_policy`, ...) when a journal or a
    /// bus is attached.
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownHome`]; [`HgError::Poisoned`] when the shard lock
    /// is poisoned.
    pub fn with_home_mut<R>(
        &self,
        id: HomeId,
        f: impl FnOnce(&mut Home) -> R,
    ) -> Result<R, HgError> {
        let mut shard = self
            .shard(id)
            .write()
            .map_err(|_| HgError::Poisoned("fleet shard"))?;
        shard.get_mut(&id).map(f).ok_or(HgError::UnknownHome(id))
    }

    /// [`Home::check_install`] through the registry.
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own.
    pub fn check_install(&self, id: HomeId, app: &str) -> Result<InstallReport, HgError> {
        self.with_home(id, |home| home.check_install(app))?
    }

    /// Journals one write's store ingest and install commits. Every path
    /// that ingests or confirms installs builds its records here, under
    /// one rule:
    ///
    /// 1. A [`JournalRecord::StoreIngested`] comes first when the ingest
    ///    epoch moved since `epoch` and the store holds `ingested`
    ///    (`(source, name, as_name)`): a home's ingest can move the store
    ///    too (a source re-extracted after another version replaced it).
    ///    A concurrent ingest of the same pair can at worst journal a
    ///    duplicate, and replayed ingests are idempotent.
    /// 2. Homes whose clean reports share the first clean report's app,
    ///    replaced version and config share one
    ///    [`JournalRecord::InstallCommitted`]; every other home gets its own.
    /// 3. A record elides its rules only if [`RuleStore::rules_eq`] holds
    ///    as it is built. With the epoch unmoved every report came from one
    ///    analysis, so one comparison decides for the batch; with it moved,
    ///    each home compares. An unmoved epoch alone proves nothing:
    ///    [`RuleStore::retire_app`] does not move it.
    fn journal_commits<'r>(
        &self,
        write: &Write<'_>,
        epoch: u64,
        ingested: Option<(&str, &str, bool)>,
        commits: impl IntoIterator<Item = (HomeId, &'r InstallReport)>,
    ) -> Result<(), HgError> {
        if write.journal.is_none() {
            return Ok(());
        }
        let moved = self.store.ingest_epoch() != epoch;
        if let Some((source, name, as_name)) = ingested {
            if moved && self.store.has_ingested(source, name) {
                write.append(|| JournalRecord::StoreIngested {
                    app: name.to_string(),
                    source: source.to_string(),
                    as_name,
                })?;
            }
        }
        let held = |report: &InstallReport| self.store.rules_eq(&report.app, &report.rules);
        let record = |homes, report: &InstallReport, held: bool| JournalRecord::InstallCommitted {
            homes,
            app: report.app.clone(),
            replaces: report.replaces.clone(),
            rules: (!held).then(|| report.rules.clone()),
            threats: report.threats.clone(),
            config: report.config.as_ref().map(ConfigInfo::to_uri),
        };
        // The batch's first report, whether the store holds its rules, and
        // its homes.
        let mut batch: Option<(&InstallReport, bool, Vec<u64>)> = None;
        for (id, report) in commits {
            if let Some((lead, lead_held, homes)) = &mut batch {
                if report.is_clean()
                    && (&report.app, &report.replaces, &report.config)
                        == (&lead.app, &lead.replaces, &lead.config)
                    && (!moved || (*lead_held && held(report)))
                {
                    homes.push(id.raw());
                    continue;
                }
            } else if report.is_clean() {
                batch = Some((report, held(report), vec![id.raw()]));
                continue;
            }
            write.append(|| record(vec![id.raw()], report, held(report)))?;
        }
        match batch {
            Some((lead, lead_held, homes)) => write.append(|| record(homes, lead, lead_held)),
            None => Ok(()),
        }
    }

    /// Runs one install-shaped home operation as one journaled write
    /// ([`Fleet::journal_commits`]): its store ingest is journaled even
    /// when the operation itself then failed (the store mutation is real
    /// either way), and its install when the report landed installed. A
    /// report, installed or not, is published. `as_name` marks the
    /// upgrade path.
    fn journaled_install(
        &self,
        id: HomeId,
        source: &str,
        name: &str,
        as_name: bool,
        op: impl FnOnce(&mut Home) -> Result<InstallReport, HgError>,
    ) -> Result<InstallReport, HgError> {
        let write = self.write()?;
        let epoch = self.store.ingest_epoch();
        let outcome = self.with_home_mut(id, op).and_then(|report| report);
        let committed = outcome
            .iter()
            .filter(|r| r.installed)
            .map(|report| (id, report));
        let journaled =
            self.journal_commits(&write, epoch, Some((source, name, as_name)), committed);
        // The operation's own error outranks a journal append failure.
        let report = outcome?;
        write.publish(|micros| {
            InstallTally::of([(id, &report)]).event(&report.app, as_name, None, micros)
        });
        journaled?;
        Ok(report)
    }

    /// [`Home::install_app`] through the registry: extract (served from
    /// the shared cache), check, auto-confirm only when clean.
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own; [`HgError::Journal`] when
    /// the commit could not be journaled (state applied, durability
    /// lapsed).
    pub fn install_app(
        &self,
        id: HomeId,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        self.journaled_install(id, source, name, false, |home| {
            home.install_app(source, name, config)
        })
    }

    /// [`Home::install_app_forced`] through the registry.
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own; [`HgError::Journal`] as on
    /// [`Fleet::install_app`].
    pub fn install_app_forced(
        &self,
        id: HomeId,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        self.journaled_install(id, source, name, false, |home| {
            home.install_app_forced(source, name, config)
        })
    }

    /// [`Home::confirm_install`] through the registry: the user of `id`
    /// accepted a dirty install or upgrade report.
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own staleness checks;
    /// [`HgError::Journal`] as on [`Fleet::install_app`].
    pub fn confirm_install(
        &self,
        id: HomeId,
        report: InstallReport,
    ) -> Result<InstallReport, HgError> {
        let write = self.write()?;
        let epoch = self.store.ingest_epoch();
        let confirmed = self.with_home_mut(id, |home| home.confirm_install(report))??;
        self.journal_commits(&write, epoch, None, [(id, &confirmed)])?;
        Ok(confirmed)
    }

    /// [`Home::uninstall_app`] through the registry.
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own; [`HgError::Journal`] as on
    /// [`Fleet::install_app`].
    pub fn uninstall_app(&self, id: HomeId, app: &str) -> Result<UninstallReport, HgError> {
        let write = self.write()?;
        let report = self.with_home_mut(id, |home| home.uninstall_app(app))??;
        let journaled = write.append(|| JournalRecord::UninstallCommitted {
            homes: vec![id.raw()],
            app: app.to_string(),
        });
        write.publish(|_| uninstall_event(app, [(id, &report)], None));
        journaled.map(|()| report)
    }

    /// [`Home::upgrade_app`] through the registry.
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own; [`HgError::Journal`] as on
    /// [`Fleet::install_app`].
    pub fn upgrade_app(
        &self,
        id: HomeId,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        self.journaled_install(id, source, name, true, |home| {
            home.upgrade_app(source, name, config)
        })
    }

    /// Installs an already-ingested app into each listed home in order
    /// (auto-confirming where clean, exactly like [`Fleet::install_app`]),
    /// reporting per-home outcomes so one home's verdict cannot abort the
    /// group. This is the per-group unit a work-queue dispatcher hands to
    /// a shard worker after partitioning the request by [`Fleet::shard_of`]
    /// — ids sharing a shard keep their request-relative order, so a
    /// partitioned dispatch reassembles to exactly the serial outcome.
    ///
    /// Unlike [`Fleet::install_many`] this does **not** pre-ingest: the
    /// caller ingests once for the whole request, not once per group.
    ///
    /// When a journal is attached the group commits as **one** journaled
    /// write, and **one** [`JournalRecord::InstallCommitted`] names every
    /// home whose clean install auto-confirmed — batch durability at one
    /// append per group instead of one per home. A home whose report
    /// cannot share it (the store moved while the group ran, and no
    /// longer holds that home's rules) gets a record of its own. A failed
    /// append surfaces as [`HgError::Journal`]
    /// on every outcome that committed home state in this group — state
    /// applied, durability lapsed, exactly like [`Fleet::install_app`].
    /// The group publishes one event for all its reports.
    pub fn install_group(
        &self,
        home_ids: &[HomeId],
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> BulkOutcomes {
        let write = match self.write() {
            Ok(write) => write,
            // Refused up front: no home in the group was touched, every
            // outcome reports the same retryable degradation.
            Err(error) => {
                let detail = error.to_string();
                return home_ids
                    .iter()
                    .map(|&id| (id, Err(HgError::Degraded(detail.clone()))))
                    .collect();
            }
        };
        let epoch = self.store.ingest_epoch();
        let mut outcomes: BulkOutcomes = home_ids
            .iter()
            .map(|&id| {
                let outcome = self.with_home_mut(id, |home| home.install_app(source, name, config));
                (id, outcome.and_then(|report| report))
            })
            .collect();
        let committed = outcomes.iter().filter_map(|(id, outcome)| match outcome {
            Ok(report) if report.installed => Some((*id, report)),
            _ => None,
        });
        let journaled = self.journal_commits(&write, epoch, Some((source, name, false)), committed);
        write.publish(|micros| {
            let reports = outcomes
                .iter()
                .filter_map(|(id, outcome)| Some((*id, outcome.as_ref().ok()?)));
            let app = reports
                .clone()
                .next()
                .map_or(name, |(_, report)| &report.app);
            InstallTally::of(reports).event(app, false, None, micros)
        });
        if let Err(e) = journaled {
            // Every install that committed home state in this group now has
            // unjournaled state; report the durability lapse on each.
            let detail = e.to_string();
            for (_, outcome) in outcomes.iter_mut() {
                if matches!(outcome, Ok(report) if report.installed) {
                    *outcome = Err(HgError::Journal(detail.clone()));
                }
            }
        }
        outcomes
    }

    /// Bulk install: extracts `source` **once** and installs it into every
    /// listed home (auto-confirming where clean, exactly like
    /// [`Fleet::install_app`]). Per-home outcomes are reported
    /// individually, in request order, so one home's verdict cannot abort
    /// the sweep.
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`] when the source fails extraction — nothing is
    /// installed anywhere in that case.
    pub fn install_many(
        &self,
        home_ids: &[HomeId],
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<BulkOutcomes, HgError> {
        self.ingest_app(source, name)?;
        Ok(self.install_group(home_ids, source, name, config))
    }

    /// Publishes `source` into the shared store under its declared name
    /// (journaled when a journal is attached) without installing it
    /// anywhere — the coordinator-side half of a partitioned
    /// [`Fleet::install_many`].
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`] when the source fails extraction;
    /// [`HgError::Journal`] when a fresh ingest could not be journaled.
    pub fn ingest_app(&self, source: &str, name: &str) -> Result<(), HgError> {
        self.journaled_ingest(source, name, false)
    }

    /// [`Fleet::ingest_app`] via [`RuleStore::ingest_as`]: refuses a
    /// renaming submission before anything lands in the store — the
    /// upgrade-rollout publication step.
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`]; [`HgError::UpgradeRenames`];
    /// [`HgError::Journal`] as on [`Fleet::ingest_app`].
    pub fn ingest_app_as(&self, source: &str, name: &str) -> Result<(), HgError> {
        self.journaled_ingest(source, name, true)
    }

    fn journaled_ingest(&self, source: &str, name: &str, as_name: bool) -> Result<(), HgError> {
        let write = self.write()?;
        let epoch = self.store.ingest_epoch();
        if as_name {
            self.store.ingest_as(source, name)?;
        } else {
            self.store.ingest(source, name)?;
        }
        self.journal_commits(&write, epoch, Some((source, name, as_name)), [])
    }

    /// Fleet-wide upgrade rollout: re-extracts the new source **once**
    /// (publishing v2 to the shared store, as a store update would), then
    /// incrementally re-checks every home that has the app installed.
    /// Clean homes are upgraded in place; homes where the new version
    /// interferes keep the old version running and their dirty report is
    /// returned for per-home confirmation. The sweep never aborts midway:
    /// per-home failures and poisoned shards are reported in the rollout
    /// so no already-upgraded or still-pending home is lost track of.
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`] when the new source fails extraction;
    /// [`HgError::UpgradeRenames`] when it declares a different app name.
    /// Either way no home is touched.
    pub fn propagate_upgrade(&self, source: &str, name: &str) -> Result<UpgradeRollout, HgError> {
        // `ingest_as`, not `ingest`: a renaming submission must be refused
        // BEFORE anything lands in the shared database — a rejected
        // rollout cannot publish a new app store-wide as a side effect.
        self.ingest_app_as(source, name)?;
        Ok(UpgradeRollout::merge(
            name,
            (0..self.shards.len()).map(|index| self.upgrade_shard(index, source, name)),
        ))
    }

    /// One shard's slice of a [`Fleet::propagate_upgrade`] sweep: upgrades
    /// the app in every home of shard `index` that runs it, under that
    /// shard's write lock. A poisoned shard is reported, never unwrapped;
    /// homes are visited in ascending `HomeId` order (the `BTreeMap`
    /// order). The caller is responsible for having published the new
    /// source first (`ingest_as`, once per rollout) and for combining the
    /// parts with [`UpgradeRollout::merge`]. When another version was
    /// published since, each home's `ingest_as` re-extracts `source` and
    /// moves the store back to it; the sweep journals that ingest before
    /// the one [`JournalRecord::InstallCommitted`] naming its upgraded
    /// homes.
    ///
    /// # Panics
    ///
    /// If `index` is out of range (`>= self.shard_count()`).
    pub fn upgrade_shard(&self, index: usize, source: &str, name: &str) -> ShardRollout {
        // Refused before any home is touched: the whole shard unit can be
        // retried verbatim after the journal heals.
        let Ok(write) = self.write() else {
            return ShardRollout {
                refused: true,
                ..ShardRollout::default()
            };
        };
        let Ok(mut shard) = self.shards[index].write() else {
            return ShardRollout {
                poisoned: true,
                ..ShardRollout::default()
            };
        };
        let epoch = self.store.ingest_epoch();
        let mut part = ShardRollout::default();
        // Every home this sweep upgrades installs the rules
        // `ingest_as(source)` returns, so the first clean report speaks
        // for them all and the others are dropped as they land, leaving
        // only their effort counters to the sweep's event.
        let (mut lead, mut clean_stats) = (None, DetectStats::default());
        for (&id, home) in shard.iter_mut() {
            if !home.is_installed(name) {
                part.skipped += 1;
                continue;
            }
            match home.upgrade_app(source, name, None) {
                Ok(report) if report.installed => {
                    part.upgraded.push(id);
                    clean_stats.absorb(report.stats);
                    lead.get_or_insert(report);
                }
                Ok(report) => part.pending.push((id, report)),
                Err(error) => part.failed.push((id, error)),
            }
        }
        let visited = shard.len() as u64;
        drop(shard);
        let committed = lead
            .iter()
            .flat_map(|lead| part.upgraded.iter().map(move |&id| (id, lead)));
        if let Err(error) =
            self.journal_commits(&write, epoch, Some((source, name, true)), committed)
        {
            // The sweep's signature is infallible (per-home work is done
            // and must be reported), so the lapse rides the part instead
            // of vanishing.
            part.journal_lapsed = Some(error.to_string());
        }
        write.publish(|micros| {
            let mut tally = InstallTally {
                homes: part.upgraded.iter().map(|id| id.raw()).collect(),
                clean: part.upgraded.len() as u64,
                stats: clean_stats,
                threats: Vec::new(),
            };
            for (id, report) in &part.pending {
                tally.add(*id, report);
            }
            let sweep = Sweep {
                shard: index as u64,
                visited,
            };
            tally.event(name, true, Some(sweep), micros)
        });
        part
    }

    /// One shard's slice of a [`Fleet::force_uninstall`] sweep: retracts
    /// the app from every home of shard `index` that runs it, under that
    /// shard's write lock (poisoned shards reported, ascending `HomeId`
    /// order — see [`Fleet::upgrade_shard`]). Combine the parts with
    /// [`ForceUninstall::merge`]; the store-level purge is the caller's.
    ///
    /// # Panics
    ///
    /// If `index` is out of range (`>= self.shard_count()`).
    pub fn uninstall_shard(&self, index: usize, app: &str) -> ShardUninstall {
        let Ok(write) = self.write() else {
            return ShardUninstall {
                refused: true,
                ..ShardUninstall::default()
            };
        };
        let Ok(mut shard) = self.shards[index].write() else {
            return ShardUninstall {
                poisoned: true,
                ..ShardUninstall::default()
            };
        };
        let mut part = ShardUninstall::default();
        for (&id, home) in shard.iter_mut() {
            if !home.is_installed(app) {
                part.skipped += 1;
                continue;
            }
            match home.uninstall_app(app) {
                Ok(report) => part.removed.push((id, report)),
                Err(error) => part.failed.push((id, error)),
            }
        }
        let visited = shard.len() as u64;
        drop(shard);
        if !part.removed.is_empty() {
            if let Err(error) = write.append(|| JournalRecord::UninstallCommitted {
                homes: part.removed.iter().map(|(id, _)| id.raw()).collect(),
                app: app.to_string(),
            }) {
                part.journal_lapsed = Some(error.to_string());
            }
        }
        write.publish(|_| {
            let removed = part.removed.iter().map(|(id, report)| (*id, report));
            let sweep = Sweep {
                shard: index as u64,
                visited,
            };
            uninstall_event(app, removed, Some(sweep))
        });
        part
    }

    /// Fleet-wide forced uninstall: a store-pulled (e.g. discovered-
    /// malicious) app is retracted from **every** home running it — rules
    /// unposted, Allowed threats and mediation points retired, `Priority`
    /// ranks dropped, exactly the per-home retraction
    /// [`Fleet::uninstall_app`] performs — and then retired from the
    /// shared store database itself, fingerprints included, so neither a
    /// query nor an ingest cache hit can resurrect it. The sweep never
    /// aborts midway; per-home failures and poisoned shards are reported.
    pub fn force_uninstall(&self, app: &str) -> ForceUninstall {
        let mut out = ForceUninstall::merge(
            app,
            (0..self.shards.len()).map(|index| self.uninstall_shard(index, app)),
        );
        match self.retire_store_app(app) {
            Ok(retired) => out.store_retired = retired,
            Err(error) => out.store_error = Some(error.to_string()),
        }
        out
    }

    /// Retires `app` from the shared store (database, analyses,
    /// fingerprints — see [`RuleStore::retire_app`]), journaled when a
    /// journal is attached. Returns whether the store actually held it.
    ///
    /// # Errors
    ///
    /// [`HgError::Degraded`] when the journal refuses writes (the store is
    /// untouched); [`HgError::Journal`] when the retirement could not be
    /// journaled (the store **did** retire the app — a recovery before the
    /// next checkpoint resurrects it).
    pub fn retire_store_app(&self, app: &str) -> Result<bool, HgError> {
        let write = self.write()?;
        let retired = self.store.retire_app(app);
        if retired {
            write.append(|| JournalRecord::StoreRetired {
                app: app.to_string(),
            })?;
        }
        Ok(retired)
    }

    /// Replaces one home's threat-handling policy table (journaled when a
    /// journal is attached).
    ///
    /// # Errors
    ///
    /// Registry errors; [`HgError::Journal`] when the change could not be
    /// journaled.
    pub fn set_handling_policy(&self, id: HomeId, table: PolicyTable) -> Result<(), HgError> {
        let write = self.write()?;
        self.with_home_mut(id, |home| home.set_handling_policy(table.clone()))?;
        write.append(|| JournalRecord::PolicyChanged {
            id: id.raw(),
            table,
        })
    }

    /// Records (or replaces) one home's collected configuration for an
    /// installed app (journaled when a journal is attached).
    ///
    /// # Errors
    ///
    /// Registry errors plus the session's own; [`HgError::Journal`] when
    /// the change could not be journaled.
    pub fn record_config(&self, id: HomeId, info: &ConfigInfo) -> Result<(), HgError> {
        let write = self.write()?;
        self.with_home_mut(id, |home| home.record_config(info))?;
        write.append(|| JournalRecord::ConfigRecorded {
            id: id.raw(),
            uri: info.to_uri(),
        })
    }

    /// Re-seats a home under a **specific** id — the journal replay path
    /// ([`Fleet::recover`]), where ids must come back exactly as recorded.
    /// Bumps the id counter past `id` so future ids never collide.
    pub(crate) fn insert_home_at(&self, id: HomeId, state: HomeState) -> Result<(), HgError> {
        let home = Home::restore_state(self.store.clone(), state);
        let mut shard = self
            .shard(id)
            .write()
            .map_err(|_| HgError::Poisoned("fleet shard"))?;
        if shard.contains_key(&id) {
            return Err(journal_err(format!("replay would overwrite live {id}")));
        }
        shard.insert(id, home);
        drop(shard);
        self.next_id.fetch_max(id.raw() + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Captures the whole service — the shared store (database, analyses,
    /// ingest fingerprints), every home's session state, and the
    /// registry's routing parameters — as one consistent
    /// [`FleetSnapshot`]. Serialize it with
    /// [`FleetSnapshot::to_text`] and revive it with [`Fleet::restore`].
    ///
    /// Shards are captured one at a time under their read locks, so
    /// concurrent traffic on other shards proceeds; each home's state is
    /// internally consistent because its shard lock is held while it is
    /// exported.
    ///
    /// # Errors
    ///
    /// [`HgError::Poisoned`] when any shard lock is poisoned: a
    /// quarantined home's state cannot be trusted, and silently snapshotting
    /// around it would persist a fleet that claims to be whole.
    pub fn snapshot(&self) -> Result<FleetSnapshot, HgError> {
        let started = self.telemetry.get().map(|_| Instant::now());
        let mut homes = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().map_err(|_| HgError::Poisoned("fleet shard"))?;
            for (&id, home) in shard.iter() {
                homes.push((id, home.export_state()));
            }
        }
        homes.sort_by_key(|(id, _)| *id);
        let snapshot = FleetSnapshot {
            shards: self.shards.len(),
            next_id: self.next_id.load(Ordering::Relaxed),
            store: self.store.export_state(),
            homes,
        };
        if let Some(bus) = self.telemetry.get() {
            bus.publish(TelemetryEvent::SnapshotTaken {
                homes: snapshot.homes.len() as u64,
                micros: started.map_or(0, |t| t.elapsed().as_micros() as u64),
            });
        }
        Ok(snapshot)
    }

    /// Revives a fleet from a snapshot — the warm-restart path, and the
    /// base of crash recovery ([`Fleet::recover`]). The store comes back
    /// with its ingest cache live, every home is rebuilt from its ground
    /// truth (derived state — detection postings, mediation points,
    /// enforcers — is reconstructed, never deserialized), shard routing
    /// and the id counter are preserved so existing [`HomeId`] handles
    /// stay valid and future ids never collide. The home template for
    /// *future* [`Fleet::create_home`] calls resets to deployment
    /// defaults.
    ///
    /// # Errors
    ///
    /// [`HgError::Snapshot`] when the snapshot's ids exceed its own
    /// `next_id` counter (a forged or corrupted document).
    pub fn restore(snapshot: FleetSnapshot) -> Result<Fleet, HgError> {
        if let Some((id, _)) = snapshot
            .homes
            .iter()
            .find(|(id, _)| id.raw() >= snapshot.next_id)
        {
            return Err(HgError::Snapshot(format!(
                "{id} is not covered by the snapshot's id counter {}",
                snapshot.next_id
            )));
        }
        let store = Arc::new(RuleStore::restore_state(snapshot.store));
        let fleet = Fleet::builder(store.clone())
            .shards(snapshot.shards)
            .build();
        fleet.next_id.store(snapshot.next_id, Ordering::Relaxed);
        for (id, state) in snapshot.homes {
            let home = Home::restore_state(store.clone(), state);
            fleet
                .shard(id)
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(id, home);
        }
        Ok(fleet)
    }

    /// Exports one home's session state — the migration unit. Serialize it
    /// with [`hg_persist::home_to_text`] and hand it to another process's
    /// [`Fleet::import_home`].
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownHome`]; [`HgError::Poisoned`] when the shard lock
    /// is poisoned.
    pub fn export_home(&self, id: HomeId) -> Result<HomeState, HgError> {
        self.with_home(id, |home| home.export_state())
    }

    /// Imports a migrated home under a **fresh** id in this fleet (ids are
    /// process-local routing keys, not global identities). The session is
    /// rebuilt against this fleet's shared store; its installed rules are
    /// self-contained, so the home works even before the store has
    /// ingested the apps it runs.
    ///
    /// # Errors
    ///
    /// [`HgError::Degraded`] when the journal refuses writes (nothing is
    /// imported); [`HgError::Journal`] when the import could not be
    /// journaled (the home **is** registered, durability lapsed).
    pub fn import_home(&self, state: HomeState) -> Result<HomeId, HgError> {
        let write = self.write()?;
        let id = self.place(Home::restore_state(self.store.clone(), state.clone()));
        write.created(vec![id.raw()], || state)?;
        Ok(id)
    }

    /// How many shard locks are currently poisoned — homes behind them
    /// answer [`HgError::Poisoned`] instead of serving. The health-probe
    /// signal (`GET /health` in `hg-api`).
    pub fn poisoned_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_poisoned()).count()
    }
}

// The whole point of the sharded design: a Fleet handle is freely
// shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Fleet>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hg_detector::ThreatKind;

    const ON_APP: &str = r#"
definition(name: "OnApp")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.on() }
"#;

    const OFF_APP: &str = r#"
definition(name: "OffApp")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.off() }
"#;

    #[test]
    fn create_route_and_remove_homes() {
        let fleet = Fleet::builder(RuleStore::shared()).shards(4).build();
        let ids: Vec<HomeId> = (0..10).map(|_| fleet.create_home().unwrap()).collect();
        assert_eq!(fleet.len(), 10);
        assert_eq!(fleet.home_ids(), ids);
        assert_eq!(fleet.shard_count(), 4);

        fleet.remove_home(ids[3]).unwrap();
        assert_eq!(fleet.len(), 9);
        assert!(matches!(
            fleet.remove_home(ids[3]),
            Err(HgError::UnknownHome(id)) if id == ids[3]
        ));
        assert!(matches!(
            fleet.with_home(ids[3], |_| ()),
            Err(HgError::UnknownHome(_))
        ));
    }

    #[test]
    fn lifecycle_through_the_fleet() {
        let fleet = Fleet::new(RuleStore::shared());
        let id = fleet.create_home().unwrap();
        let report = fleet.install_app(id, ON_APP, "OnApp", None).unwrap();
        assert!(report.installed);

        let dirty = fleet.install_app(id, OFF_APP, "OffApp", None).unwrap();
        assert!(!dirty.installed);
        assert!(dirty
            .threats
            .iter()
            .any(|t| t.kind == ThreatKind::ActuatorRace));
        fleet.confirm_install(id, dirty).unwrap();
        assert_eq!(
            fleet.with_home(id, |h| h.installed_rules().len()).unwrap(),
            2
        );

        let removed = fleet.uninstall_app(id, "OffApp").unwrap();
        assert_eq!(removed.retired_threats, 1);
        assert_eq!(
            fleet.with_home(id, |h| h.installed_apps()).unwrap(),
            vec!["OnApp".to_string()]
        );

        let v2 = ON_APP.replace("lamp.on()", "lamp.off()");
        let upgraded = fleet.upgrade_app(id, &v2, "OnApp", None).unwrap();
        assert!(upgraded.installed);
    }

    #[test]
    fn install_many_extracts_once() {
        let fleet = Fleet::new(RuleStore::shared());
        let ids: Vec<HomeId> = (0..5).map(|_| fleet.create_home().unwrap()).collect();
        let results = fleet.install_many(&ids, ON_APP, "OnApp", None).unwrap();
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|(_, r)| r.as_ref().unwrap().installed));
        // One real extraction; the other five ingests (bulk pre-ingest +
        // five per-home installs) are cache hits.
        assert_eq!(fleet.store().cache_hits(), 5);

        // A broken source installs nowhere.
        assert!(matches!(
            fleet.install_many(&ids, "def installed() {", "Broken", None),
            Err(HgError::Extract { .. })
        ));
    }

    #[test]
    fn propagate_upgrade_rolls_the_fleet_forward() {
        let fleet = Fleet::new(RuleStore::shared());
        let with_app: Vec<HomeId> = (0..4).map(|_| fleet.create_home().unwrap()).collect();
        let without_app = fleet.create_home().unwrap();
        fleet
            .install_many(&with_app, ON_APP, "OnApp", None)
            .unwrap();
        // One home also runs a conflicting app: its upgrade stays pending.
        fleet
            .install_app_forced(with_app[2], OFF_APP, "OffApp", None)
            .unwrap();

        let v2 = ON_APP.replace("lamp.on()", "lamp.on(); lamp.off()");
        let rollout = fleet.propagate_upgrade(&v2, "OnApp").unwrap();
        assert_eq!(rollout.app, "OnApp");
        assert_eq!(rollout.skipped, 1);
        let mut upgraded = rollout.upgraded.clone();
        upgraded.sort();
        assert_eq!(upgraded, vec![with_app[0], with_app[1], with_app[3]]);
        assert_eq!(rollout.pending.len(), 1);
        let (dirty_home, ref report) = rollout.pending[0];
        assert_eq!(dirty_home, with_app[2]);
        assert!(!report.installed);

        // The pending home still runs v1; confirming commits v2.
        assert_eq!(
            fleet
                .with_home(dirty_home, |h| h.installed_rules()[0].actions.len())
                .unwrap(),
            1
        );
        fleet
            .confirm_install(dirty_home, rollout.pending.into_iter().next().unwrap().1)
            .unwrap();
        assert_eq!(
            fleet
                .with_home(dirty_home, |h| {
                    h.installed_rules()
                        .iter()
                        .filter(|r| r.id.app == "OnApp")
                        .map(|r| r.actions.len())
                        .sum::<usize>()
                })
                .unwrap(),
            2,
            "v2 has two actions"
        );
        assert_eq!(
            fleet
                .with_home(without_app, |h| h.installed_rules().len())
                .unwrap(),
            0
        );

        // A renaming rollout is refused outright — and refused BEFORE
        // publishing: the rejected name must not appear in the store.
        let renamed = ON_APP.replace("OnApp", "NewApp");
        assert!(matches!(
            fleet.propagate_upgrade(&renamed, "OnApp"),
            Err(HgError::UpgradeRenames { .. })
        ));
        assert!(
            !fleet.store().has_app("NewApp"),
            "a refused rollout must not publish the new app store-wide"
        );
    }

    #[test]
    fn poisoned_shard_reports_typed_errors_and_isolates() {
        let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
        let a = fleet.create_home().unwrap(); // shard 0
        let b = fleet.create_home().unwrap(); // shard 1

        // A panicking mutation poisons only home `a`'s shard.
        let doomed = fleet.clone();
        std::thread::spawn(move || {
            let _ = doomed.with_home_mut(a, |_| panic!("home handler dies"));
        })
        .join()
        .unwrap_err();

        assert!(matches!(
            fleet.with_home(a, |_| ()),
            Err(HgError::Poisoned(_))
        ));
        // The sibling shard keeps serving.
        assert!(
            fleet
                .install_app(b, ON_APP, "OnApp", None)
                .unwrap()
                .installed
        );

        // Registry-level enumeration still sees the quarantined home...
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet.home_ids(), vec![a, b]);

        // ...a new home is never placed in the poisoned shard (the handle
        // would be unreachable from birth): id 2 would route to shard 0,
        // so it is burned and the home lands on a healthy shard.
        let c = fleet.create_home().unwrap();
        assert!(
            fleet
                .install_app(c, ON_APP, "OnApp", None)
                .unwrap()
                .installed
        );

        // ...and a rollout sweeps past the poisoned shard instead of
        // aborting, reporting it.
        let v2 = format!("{ON_APP}// v2\n");
        let rollout = fleet.propagate_upgrade(&v2, "OnApp").unwrap();
        assert_eq!(rollout.poisoned_shards, 1);
        let mut upgraded = rollout.upgraded.clone();
        upgraded.sort();
        assert_eq!(upgraded, vec![b, c]);
        assert!(rollout.failed.is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips_the_fleet() {
        let fleet = Fleet::builder(RuleStore::shared()).shards(4).build();
        let a = fleet.create_home().unwrap();
        let b = fleet.create_home().unwrap();
        fleet.install_app(a, ON_APP, "OnApp", None).unwrap();
        let dirty = fleet.install_app(a, OFF_APP, "OffApp", None).unwrap();
        fleet.confirm_install(a, dirty).unwrap();
        fleet.install_app(b, ON_APP, "OnApp", None).unwrap();

        let text = fleet.snapshot().unwrap().to_text();
        let restored = Fleet::restore(FleetSnapshot::from_text(&text).unwrap()).unwrap();

        // Same registry: ids, routing, counts.
        assert_eq!(restored.shard_count(), 4);
        assert_eq!(restored.home_ids(), vec![a, b]);
        assert_eq!(
            restored.with_home(a, |h| h.installed_apps()).unwrap(),
            vec!["OnApp".to_string(), "OffApp".to_string()]
        );
        assert_eq!(
            restored.with_home(a, |h| h.allowed().len()).unwrap(),
            1,
            "confirmed threat decisions survive the restart"
        );
        assert_eq!(
            restored
                .with_home(b, |h| h.installed_rules().len())
                .unwrap(),
            1
        );
        // Warm restart: the store's ingest cache came back, so installing
        // the same app into a new home re-extracts nothing.
        let hits = restored.store().cache_hits();
        let c = restored.create_home().unwrap();
        assert!(c > b, "the id counter must never reissue a restored id");
        restored.install_app(c, ON_APP, "OnApp", None).unwrap();
        assert_eq!(restored.store().cache_hits(), hits + 1);
    }

    #[test]
    fn snapshot_of_a_poisoned_fleet_is_a_typed_error() {
        let fleet = Arc::new(Fleet::builder(RuleStore::shared()).shards(2).build());
        let a = fleet.create_home().unwrap();
        let doomed = fleet.clone();
        std::thread::spawn(move || {
            let _ = doomed.with_home_mut(a, |_| panic!("home handler dies"));
        })
        .join()
        .unwrap_err();
        assert!(matches!(fleet.snapshot(), Err(HgError::Poisoned(_))));
    }

    #[test]
    fn restore_rejects_ids_beyond_the_counter() {
        let fleet = Fleet::new(RuleStore::shared());
        let id = fleet.create_home().unwrap();
        let mut snapshot = fleet.snapshot().unwrap();
        snapshot.next_id = id.raw(); // forged: the counter excludes `id`
        assert!(matches!(
            Fleet::restore(snapshot),
            Err(HgError::Snapshot(_))
        ));
    }

    #[test]
    fn force_uninstall_purges_every_home_and_the_store() {
        let fleet = Fleet::new(RuleStore::shared());
        let ids: Vec<HomeId> = (0..3).map(|_| fleet.create_home().unwrap()).collect();
        let bystander = fleet.create_home().unwrap();
        fleet.install_many(&ids, OFF_APP, "OffApp", None).unwrap();
        fleet.install_app(bystander, ON_APP, "OnApp", None).unwrap();

        let outcome = fleet.force_uninstall("OffApp");
        assert_eq!(outcome.app, "OffApp");
        assert_eq!(outcome.removed.len(), 3);
        assert_eq!(outcome.skipped, 1);
        assert!(outcome.failed.is_empty());
        assert!(outcome.store_retired);
        assert!(!fleet.store().has_app("OffApp"));
        for id in &ids {
            assert!(fleet
                .with_home(*id, |h| h.installed_apps().is_empty())
                .unwrap());
        }
        // The bystander keeps its unrelated app, and the store cannot
        // serve the pulled one from any cache.
        assert!(fleet
            .with_home(bystander, |h| h.is_installed("OnApp"))
            .unwrap());
        assert!(matches!(
            fleet.check_install(bystander, "OffApp"),
            Err(HgError::UnknownApp(_))
        ));
        // Idempotent: a second pull finds nothing anywhere.
        let again = fleet.force_uninstall("OffApp");
        assert!(again.removed.is_empty());
        assert!(!again.store_retired);
    }

    #[test]
    fn export_import_migrates_a_home_between_fleets() {
        let fleet = Fleet::new(RuleStore::shared());
        let id = fleet.create_home().unwrap();
        fleet.install_app(id, ON_APP, "OnApp", None).unwrap();
        let dirty = fleet.install_app(id, OFF_APP, "OffApp", None).unwrap();
        fleet.confirm_install(id, dirty).unwrap();

        // Across "processes": only the serialized text crosses.
        let text = hg_persist::home_to_text(&fleet.export_home(id).unwrap());
        let target = Fleet::new(RuleStore::shared());
        let migrated = target
            .import_home(hg_persist::home_from_text(&text).unwrap())
            .unwrap();
        assert_eq!(
            target.with_home(migrated, |h| h.installed_apps()).unwrap(),
            vec!["OnApp".to_string(), "OffApp".to_string()]
        );
        assert_eq!(
            target.with_home(migrated, |h| h.allowed().len()).unwrap(),
            1
        );
        // The migrated session is live: lifecycle ops work even though the
        // target store never ingested the apps.
        target.uninstall_app(migrated, "OffApp").unwrap();
        assert_eq!(
            target.with_home(migrated, |h| h.installed_apps()).unwrap(),
            vec!["OnApp".to_string()]
        );
    }

    #[test]
    fn home_defaults_template_applies() {
        let fleet = Fleet::builder(RuleStore::shared())
            .home_defaults(|b| b.modes(["Day", "Night"]))
            .build();
        let id = fleet.create_home().unwrap();
        assert_eq!(
            fleet.with_home(id, |h| h.modes().to_vec()).unwrap(),
            vec!["Day".to_string(), "Night".to_string()]
        );
        // Per-home customization overrides the template.
        let custom = fleet.create_home_with(|b| b.modes(["Solo"])).unwrap();
        assert_eq!(
            fleet.with_home(custom, |h| h.modes().to_vec()).unwrap(),
            vec!["Solo".to_string()]
        );
    }

    #[test]
    fn attached_bus_sees_fleet_lifecycle_and_sweeps() {
        // Once without a journal and once with one: the journal appends a
        // record for each write but publishes nothing for it.
        for journaled in [false, true] {
            bus_sees_fleet_lifecycle_and_sweeps(journaled);
        }
    }

    fn bus_sees_fleet_lifecycle_and_sweeps(journaled: bool) {
        let fleet = Fleet::builder(RuleStore::shared()).shards(2).build();
        if journaled {
            let journal = Journal::open(Box::new(hg_journal::MemBackend::new())).unwrap();
            assert!(fleet.attach_journal(Arc::new(journal)).unwrap());
        }
        let early = fleet.create_home().unwrap();
        let bus = Arc::new(TelemetryBus::new());
        assert!(fleet.attach_telemetry(bus.clone()));
        assert!(!fleet.attach_telemetry(bus.clone()), "one bus per fleet");
        let late = fleet.create_home().unwrap();
        let batch = fleet.create_homes(3).unwrap();
        assert_eq!(bus.published(), 2, "one event per creation write");

        // The fleet publishes, not the homes: the pre-attach home's
        // install is seen like the new one's.
        fleet.install_app(early, ON_APP, "OnApp", None).unwrap();
        fleet.install_app(late, ON_APP, "OnApp", None).unwrap();
        assert_eq!(bus.published(), 4, "one event per install");
        let v2 = ON_APP.replace("lamp.on()", "lamp.toggle()");
        let rollout = fleet.propagate_upgrade(&v2, "OnApp").unwrap();
        assert_eq!(rollout.upgraded.len(), 2);
        assert_eq!(bus.published(), 6, "one event per shard unit");
        fleet.snapshot().unwrap();
        assert_eq!(bus.published(), 7);
        if let Some(journal) = fleet.journal() {
            // Three creations, two ingests, two installs, two shard units.
            assert_eq!(journal.counters().appends, 9);
        }

        let mut events = Vec::new();
        bus.drain_since(0, &mut events);
        let created: Vec<Vec<u64>> = events
            .iter()
            .filter_map(|(_, e)| match e {
                TelemetryEvent::HomesCreated { homes } => Some(homes.clone()),
                _ => None,
            })
            .collect();
        let batch: Vec<u64> = batch.iter().map(|id| id.raw()).collect();
        assert_eq!(
            created,
            vec![vec![late.raw()], batch],
            "one event per creation write; the first creation precedes attachment"
        );
        let installs: Vec<(Vec<u64>, bool, Option<Sweep>)> = events
            .iter()
            .filter_map(|(_, e)| match e {
                TelemetryEvent::InstallCompleted {
                    homes,
                    upgrade,
                    sweep,
                    ..
                } => Some((homes.clone(), *upgrade, *sweep)),
                _ => None,
            })
            .collect();
        assert_eq!(installs.len(), 4);
        assert_eq!(installs[0], (vec![early.raw()], false, None));
        assert_eq!(installs[1], (vec![late.raw()], false, None));
        // Exactly two upgrade events, one per shard, each naming the homes
        // its shard upgraded and counting the homes it visited.
        for (shard, (homes, upgrade, sweep)) in installs[2..].iter().enumerate() {
            let upgraded: Vec<u64> = rollout
                .upgraded
                .iter()
                .filter(|id| fleet.shard_of(**id) == shard)
                .map(|id| id.raw())
                .collect();
            assert_eq!(homes, &upgraded, "shard {shard}");
            assert!(*upgrade);
            let visited = fleet
                .home_ids()
                .iter()
                .filter(|id| fleet.shard_of(**id) == shard)
                .count() as u64;
            assert_eq!(
                *sweep,
                Some(Sweep {
                    shard: shard as u64,
                    visited
                })
            );
        }
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, TelemetryEvent::SnapshotTaken { homes: 5, .. })));
        // Fleet-wide mediation aggregate starts at zero.
        assert_eq!(fleet.mediation_stats().events, 0);
    }
}
