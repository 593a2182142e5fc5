//! Per-home sessions: the installation workflow (paper Fig. 6 and §VI-D)
//! on top of the shared rule store.
//!
//! Whenever a new app is installed (or reconfigured), HomeGuard:
//!
//! 1. collects the configuration information ([`hg_config::ConfigInfo`]);
//! 2. fetches the app's rules from the shared [`RuleStore`];
//! 3. runs incremental detection against the installed rules — only the
//!    candidate-index collisions are visited;
//! 4. extends the detection through the *Allowed* list to find chained
//!    (indirect) interference;
//! 5. presents the findings and records the user's verdict — confirming a
//!    dirty install moves the pairwise findings onto the Allowed list so
//!    future installs can chain through them.
//!
//! A [`Home`] owns only per-home state (installed rules, device bindings,
//! user values, the Allowed list); everything app-specific but
//! home-independent lives in the store, shared across every home the
//! process serves.
//!
//! Since the fleet redesign the session carries the **full app
//! lifecycle**: [`install_app`](Home::install_app) →
//! [`confirm_install`](Home::confirm_install) →
//! [`upgrade_app`](Home::upgrade_app) →
//! [`uninstall_app`](Home::uninstall_app). Uninstall and upgrade retract
//! incrementally — rules are unposted from the candidate index, Allowed
//! threats involving the app are retired, and the compiled
//! [`MediationIndex`] follows suit — so a lifecycle-churned home is
//! indistinguishable from one freshly built in its final state.

use crate::error::HgError;
use crate::store::RuleStore;
use hg_config::ConfigInfo;
use hg_detector::{
    find_chains, Chain, DetectStats, DetectionEngine, Detector, Edge, PreparedRule, Threat,
    Unification,
};
use hg_rules::rule::{Rule, RuleId};
use hg_rules::value::Value;
use hg_runtime::{Enforcer, MediationIndex, MediationStats, PolicyTable, SharedEnforcer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// How the home resolves device slots for detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnificationPolicy {
    /// Use recorded device bindings when any exist, else assume two slots
    /// of the same device type may be the same device (the deployment
    /// default: precise once configuration is collected).
    #[default]
    Auto,
    /// Always unify by device type, ignoring recorded bindings (store-wide
    /// analysis, paper §VIII-B).
    ByType,
}

/// Builds a [`Home`] session against a shared store.
#[derive(Clone)]
pub struct HomeBuilder {
    store: Arc<RuleStore>,
    modes: Vec<String>,
    policy: UnificationPolicy,
    chain_depth: usize,
    config: Vec<ConfigInfo>,
    handling: PolicyTable,
    share_verdicts: bool,
}

impl HomeBuilder {
    /// A builder with the deployment defaults: Home/Away/Night modes,
    /// automatic unification, chains up to 4 edges.
    pub fn new(store: Arc<RuleStore>) -> HomeBuilder {
        HomeBuilder {
            store,
            modes: vec!["Home".into(), "Away".into(), "Night".into()],
            policy: UnificationPolicy::Auto,
            chain_depth: 4,
            config: Vec::new(),
            handling: PolicyTable::default(),
            share_verdicts: true,
        }
    }

    /// Sets the home's location modes.
    pub fn modes<I, S>(mut self, modes: I) -> HomeBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.modes = modes.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the device-slot unification policy.
    pub fn unification(mut self, policy: UnificationPolicy) -> HomeBuilder {
        self.policy = policy;
        self
    }

    /// Sets the maximum chained-threat length in edges (§VI-D).
    pub fn chain_depth(mut self, edges: usize) -> HomeBuilder {
        self.chain_depth = edges.max(2);
        self
    }

    /// Pre-records configuration information collected before the session
    /// started (e.g. replayed from the configuration recorder's log).
    pub fn record_config(mut self, info: ConfigInfo) -> HomeBuilder {
        self.config.push(info);
        self
    }

    /// Sets the runtime handling policies the session's enforcer applies
    /// per threat kind (see [`Home::enforcer`]).
    pub fn handling_policy(mut self, table: PolicyTable) -> HomeBuilder {
        self.handling = table;
        self
    }

    /// Whether the session's detector consults the store's fleet-shared
    /// [`VerdictCache`](hg_detector::VerdictCache) (default: true). With
    /// sharing off, every pair check is a fresh detection whose overlap
    /// questions are all `OverlapSolver` solves: the uncached ground
    /// truth the differential harnesses hold the cached path to, bit for
    /// bit.
    ///
    /// This is a session-local diagnostic knob, not durable
    /// configuration: it is absent from [`HomeState`], and a session
    /// revived by [`Home::restore_state`] is back on the (behaviorally
    /// identical, differentially proven) shared default. Re-disable it
    /// after a restore when re-establishing a ground-truth session.
    pub fn verdict_sharing(mut self, enabled: bool) -> HomeBuilder {
        self.share_verdicts = enabled;
        self
    }

    /// Does nothing: the `OverlapSolver` answers every verdict-cache miss,
    /// so every session is already solver-only. Kept so callers written
    /// against it (the `homebench` reference sessions) still build.
    pub fn lowered_pairs(self, _enabled: bool) -> HomeBuilder {
        self
    }

    /// Builds the session handle.
    pub fn build(self) -> Home {
        let mut home = Home {
            store: self.store,
            engine: DetectionEngine::default(),
            bindings: BTreeMap::new(),
            values: BTreeMap::new(),
            allowed: Vec::new(),
            apps: Vec::new(),
            modes: self.modes,
            policy: self.policy,
            chain_depth: self.chain_depth,
            handling: self.handling,
            mediation: None,
            share_verdicts: self.share_verdicts,
            mediation_sink: Arc::new(Mutex::new(MediationStats::default())),
        };
        for info in &self.config {
            home.absorb_config(info);
        }
        home.engine = DetectionEngine::new(home.detector());
        home
    }
}

/// A per-home HomeGuard session: recorders plus the incremental detection
/// engine, borrowing the shared rule store.
pub struct Home {
    store: Arc<RuleStore>,
    engine: DetectionEngine,
    /// Configuration recorder: device bindings per (app, input).
    bindings: BTreeMap<(String, String), String>,
    /// Configuration recorder: user values per (app, input).
    values: BTreeMap<(String, String), Value>,
    /// Pairwise interferences the user accepted (the Allowed list, §VI-D).
    allowed: Vec<Threat>,
    /// Confirmed-installed app names, in first-install order. Tracked
    /// explicitly (not derived from installed rules) so an app that
    /// extracts to zero rules — e.g. a pure web-service endpoint app —
    /// still has a full lifecycle: it shows in [`Home::installed_apps`],
    /// double-installs are refused, and uninstall/upgrade find it.
    apps: Vec<String>,
    modes: Vec<String>,
    policy: UnificationPolicy,
    chain_depth: usize,
    /// Runtime handling policies for the session's enforcer.
    handling: PolicyTable,
    /// The compiled mediation points of the current Allowed list, kept
    /// between [`Home::enforcer`] calls. Lifecycle mutations either update
    /// it incrementally (uninstall retires the app's points in place) or
    /// invalidate it for lazy recompilation.
    mediation: Option<MediationIndex>,
    /// Whether detection consults the store's fleet-shared verdict cache
    /// (see [`HomeBuilder::verdict_sharing`]).
    share_verdicts: bool,
    /// Accumulated mediation statistics absorbed from every enforcer this
    /// session hands out (each [`Home::enforcer`] call builds a fresh
    /// per-run enforcer; without a shared sink its counters would die with
    /// it). Observability state only — never persisted.
    mediation_sink: Arc<Mutex<MediationStats>>,
}

/// A session's configuration recorders and engine from before a staged
/// configuration (see [`Home::stage_config`]).
struct StagedConfig {
    bindings: BTreeMap<(String, String), String>,
    values: BTreeMap<(String, String), Value>,
    engine: DetectionEngine,
}

/// The outcome of an installation attempt, shown to the user by the
/// frontend before they decide.
#[derive(Debug, Clone)]
pub struct InstallReport {
    /// The app under installation.
    pub app: String,
    /// Its rules, for the frontend's rule interpreter.
    pub rules: Vec<Rule>,
    /// Direct (pairwise) threats against installed apps.
    pub threats: Vec<Threat>,
    /// Chained threats through the Allowed list.
    pub chains: Vec<Chain>,
    /// Detection effort counters.
    pub stats: DetectStats,
    /// Whether the rules were recorded as installed (clean installs
    /// auto-confirm; dirty ones await [`Home::confirm_install`]).
    pub installed: bool,
    /// Configuration staged with this install attempt. It is recorded
    /// permanently only on confirmation, so a rejected install leaves the
    /// configuration recorder untouched.
    pub config: Option<ConfigInfo>,
    /// For an upgrade report: the installed app this install replaces on
    /// confirmation (its rules and Allowed threats are retired first).
    pub replaces: Option<String>,
    /// Filled on confirmation of an upgrade: `Priority` ranks that named
    /// rules of the replaced version with no surviving counterpart in the
    /// new one. They were dropped from the handling table (a renumbered
    /// survivor is remapped instead) and are surfaced here so the frontend
    /// can ask the user to re-rank.
    pub dropped_ranks: Vec<RuleId>,
}

impl InstallReport {
    /// Whether the installation is clean.
    pub fn is_clean(&self) -> bool {
        self.threats.is_empty() && self.chains.is_empty()
    }

    /// Whether this report stages an upgrade of an installed app.
    pub fn is_upgrade(&self) -> bool {
        self.replaces.is_some()
    }
}

/// The outcome of an app uninstall: what was retracted from the session.
#[derive(Debug, Clone)]
pub struct UninstallReport {
    /// The app removed.
    pub app: String,
    /// Identities of the retracted rules, in install order.
    pub removed_rules: Vec<RuleId>,
    /// Allowed-list threats retired because they involved the app.
    pub retired_threats: usize,
    /// `Priority` ranks dropped from the handling table because they named
    /// the uninstalled app's rules.
    pub dropped_ranks: Vec<RuleId>,
}

/// Maps each outgoing rule of an upgraded app to the new-version rule
/// carrying the identical automation (same trigger, condition and actions
/// — identity aside), if one exists. Each new rule absorbs at most one
/// predecessor, so two identical old rules cannot collapse onto one rank.
fn rank_remap(old_rules: &[Rule], new_rules: &[Rule]) -> BTreeMap<RuleId, RuleId> {
    let mut used = vec![false; new_rules.len()];
    let mut map = BTreeMap::new();
    for old in old_rules {
        let hit = new_rules.iter().enumerate().find(|(i, n)| {
            !used[*i]
                && n.trigger == old.trigger
                && n.condition == old.condition
                && n.actions == old.actions
        });
        if let Some((i, survivor)) = hit {
            used[i] = true;
            map.insert(old.id.clone(), survivor.id.clone());
        }
    }
    map
}

/// The complete persistable state of a [`Home`] session — everything that
/// is *ground truth* rather than derived. The detection engine's postings,
/// the compiled mediation index and the enforcer are deliberately absent:
/// [`Home::restore_state`] rebuilds them from the rules and the Allowed
/// list, so a snapshot can never disagree with the state it implies.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeState {
    /// Location modes.
    pub modes: Vec<String>,
    /// Device-slot unification policy.
    pub policy: UnificationPolicy,
    /// Maximum chained-threat length in edges.
    pub chain_depth: usize,
    /// Confirmed-installed app names, in first-install order.
    pub apps: Vec<String>,
    /// Installed rules, in engine install order.
    pub rules: Vec<Rule>,
    /// Configuration recorder: device bindings per (app, input).
    pub bindings: Vec<(String, String, String)>,
    /// Configuration recorder: user values per (app, input).
    pub values: Vec<(String, String, Value)>,
    /// The Allowed list (confirmed threat decisions).
    pub allowed: Vec<Threat>,
    /// Runtime handling policies, including user-configured ranks.
    pub handling: PolicyTable,
}

impl Home {
    /// A session with deployment defaults against `store`.
    pub fn new(store: Arc<RuleStore>) -> Home {
        HomeBuilder::new(store).build()
    }

    /// A builder for a customized session.
    pub fn builder(store: Arc<RuleStore>) -> HomeBuilder {
        HomeBuilder::new(store)
    }

    /// The shared store this home installs from.
    pub fn store(&self) -> &Arc<RuleStore> {
        &self.store
    }

    /// The home's location modes.
    pub fn modes(&self) -> &[String] {
        &self.modes
    }

    /// The detector matching the current recorders and policy.
    fn detector(&self) -> Detector {
        let unification = match self.policy {
            UnificationPolicy::ByType => Unification::ByType,
            UnificationPolicy::Auto => {
                if self.bindings.is_empty() {
                    Unification::ByType
                } else {
                    Unification::Bindings(self.bindings.clone())
                }
            }
        };
        let mut det = Detector {
            unification,
            ..Detector::default()
        };
        det.solver.set_modes(self.modes.iter().cloned());
        det.solver.set_user_values(self.values.clone());
        if self.share_verdicts {
            det.cache = Some(self.store.verdict_cache().clone());
        }
        det
    }

    /// Accumulated mediation statistics across **every** enforcer this
    /// session has handed out (each [`Home::enforcer`] is a fresh per-run
    /// instance; this is the session-lifetime aggregate).
    pub fn mediation_stats(&self) -> MediationStats {
        *self
            .mediation_sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn absorb_config(&mut self, info: &ConfigInfo) {
        for (input, id) in &info.devices {
            self.bindings
                .insert((info.app.clone(), input.clone()), id.clone());
        }
        for (input, value) in &info.values {
            self.values
                .insert((info.app.clone(), input.clone()), value.clone());
        }
    }

    /// Records collected configuration information (what the instrumented
    /// app's URI delivers) and re-prepares the detection state against the
    /// updated bindings.
    pub fn record_config(&mut self, info: &ConfigInfo) {
        self.absorb_config(info);
        self.engine.reconfigure(self.detector());
        // Rebinding changes actuator identities, so compiled mediation
        // points are stale.
        self.mediation = None;
        // Deliberately NO fleet-wide verdict eviction here: reconfiguring
        // ONE home changes only that home's pair keys (bindings reshape
        // the unified forms, values reshape the context hash), while the
        // old entries keep serving every other home that still runs the
        // old context. Content addressing already makes a stale answer
        // unreachable; entries orphaned by a fleet-wide rebinding wave
        // are reclaimed by the cache's capacity backstop. Store-level
        // lifecycle (retirement, upgrade re-ingest) is where entries die
        // for every home at once, and evicts there.
    }

    /// Checks an app (already ingested into the store, with configuration
    /// recorded) against the installed apps. Does **not** install it — the
    /// user decides based on the report.
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownApp`] from the store lookup.
    pub fn check_install(&self, app: &str) -> Result<InstallReport, HgError> {
        self.check(app).map(|(report, _)| report)
    }

    /// [`Home::check_install`], also returning the prepared forms of the
    /// report's rules, which its confirmation installs.
    fn check(&self, app: &str) -> Result<(InstallReport, Vec<Arc<PreparedRule>>), HgError> {
        let rules = self.store.rules_of(app)?;
        let forms = self.prepare(app, &rules);
        let (threats, stats) = self.engine.check_prepared(&forms, None);
        let chains = self.chains_for(app, &threats, None);
        let report = InstallReport {
            app: app.to_string(),
            rules,
            threats,
            chains,
            stats,
            installed: false,
            config: None,
            replaces: None,
            dropped_ranks: Vec::new(),
        };
        Ok((report, forms))
    }

    /// Prepared forms of `rules`, the rules of `app`: the store's shared
    /// by-type forms when this home unifies by type and the store's
    /// current analysis of `app` holds exactly `rules`, else forms
    /// prepared for this home alone. Both are what
    /// [`PreparedRule::prepare`] returns under the engine's unification.
    fn prepare(&self, app: &str, rules: &[Rule]) -> Vec<Arc<PreparedRule>> {
        if matches!(self.engine.detector().unification, Unification::ByType) {
            if let Ok((analysis, forms)) = self.store.prepared_of(app) {
                if analysis.rules == rules {
                    return forms;
                }
            }
        }
        self.engine.prepare(rules)
    }

    /// Chained detection through the Allowed list (§VI-D): edges from the
    /// new findings plus the user-allowed historical pairs. For upgrade
    /// staging, `exclude` drops the replaced version's pairs — they refer
    /// to rules that will be retired on confirmation.
    fn chains_for(&self, app: &str, threats: &[Threat], exclude: Option<&str>) -> Vec<Chain> {
        let mut edges = Edge::from_threats(threats);
        edges.extend(Edge::from_threats(self.allowed.iter().filter(|t| {
            exclude.is_none_or(|gone| t.source.app != gone && t.target.app != gone)
        })));
        find_chains(&edges, self.chain_depth)
            .into_iter()
            .filter(|c| c.rules.iter().any(|r| r.app == app))
            .collect()
    }

    /// The user decided to install despite the report: the staged
    /// configuration (if any) is recorded permanently, rules are recorded,
    /// and the reported pairwise threats move to the Allowed list. For an
    /// upgrade report, the replaced version is retired first.
    ///
    /// # Errors
    ///
    /// A report can go stale between staging and confirmation:
    /// [`HgError::AlreadyInstalled`] when a plain install's app was
    /// confirmed meanwhile (confirming the same report twice would install
    /// duplicate rules under one identity);
    /// [`HgError::UnconfirmedInstall`] when an upgrade report's app was
    /// uninstalled meanwhile (confirming would resurrect it).
    pub fn confirm_install(&mut self, report: InstallReport) -> Result<InstallReport, HgError> {
        self.confirm(report, None)
    }

    /// [`Home::confirm_install`] installing `staged`, the forms the report
    /// was checked with, when the caller still holds them: staging and
    /// confirming under one `&mut self` borrow see the same unification.
    fn confirm(
        &mut self,
        mut report: InstallReport,
        staged: Option<Vec<Arc<PreparedRule>>>,
    ) -> Result<InstallReport, HgError> {
        let mut replaced_rules = None;
        match report.replaces.clone() {
            Some(old) => {
                if !self.is_installed(&old) {
                    return Err(HgError::UnconfirmedInstall(old));
                }
                // Capture the outgoing version's rules before retirement:
                // they are the "from" side of the Priority rank remap.
                replaced_rules = Some(
                    self.engine
                        .installed_rules()
                        .filter(|r| r.id.app == old)
                        .cloned()
                        .collect::<Vec<Rule>>(),
                );
                self.retire_app(&old);
            }
            None => {
                if self.is_installed(&report.app) {
                    return Err(HgError::AlreadyInstalled(report.app));
                }
            }
        }
        if let Some(info) = &report.config {
            self.record_config(info);
        }
        let forms = match staged {
            Some(forms) => forms,
            None => self.prepare(&report.app, &report.rules),
        };
        self.engine.install_prepared(forms);
        self.allowed.extend(report.threats.iter().cloned());
        if !self.apps.contains(&report.app) {
            self.apps.push(report.app.clone());
        }
        if let Some(old_rules) = replaced_rules {
            // An upgrade renumbers the app's rules. A `Priority` rank on a
            // rule whose automation survived must follow it to its new
            // identity; a rank on automation the upgrade removed is
            // dropped and surfaced — silently treating it as "unranked"
            // would flip the arbitration the user explicitly configured.
            let remap = rank_remap(&old_rules, &report.rules);
            report.dropped_ranks = self.handling.remap_app_ranks(&report.app, &remap);
        }
        self.mediation = None;
        report.installed = true;
        Ok(report)
    }

    /// Removes a confirmed app from the session: its rules are unposted
    /// from the detection index, its Allowed-list threats retired, and its
    /// compiled mediation points dropped. Recorded configuration for the
    /// app is forgotten (its device slots no longer exist), which may
    /// change how *other* apps' slots unify from now on — exactly as if
    /// the app had never been installed.
    ///
    /// # Errors
    ///
    /// [`HgError::UnconfirmedInstall`] when the app is in the store but was
    /// never confirmed into this home; [`HgError::UnknownApp`] when the
    /// store has never heard of it either.
    pub fn uninstall_app(&mut self, app: &str) -> Result<UninstallReport, HgError> {
        if !self.is_installed(app) {
            return Err(self.not_installed_error(app));
        }
        let (removed_rules, retired_threats) = self.retire_app(app);
        let recorder_touched = self.bindings.keys().any(|(a, _)| a == app)
            || self.values.keys().any(|(a, _)| a == app);
        if recorder_touched {
            self.bindings.retain(|(a, _), _| a != app);
            self.values.retain(|(a, _), _| a != app);
            self.engine.reconfigure(self.detector());
            self.mediation = None;
        }
        // Ranks naming the app's rules are dangling now; drop and surface
        // them. Live mediation points embed resolved policies, so a
        // changed table invalidates the compiled cache.
        let dropped_ranks = self.handling.remap_app_ranks(app, &BTreeMap::new());
        if !dropped_ranks.is_empty() {
            self.mediation = None;
        }
        Ok(UninstallReport {
            app: app.to_string(),
            removed_rules,
            retired_threats,
            dropped_ranks,
        })
    }

    /// Stages an upgrade: the new source is **published to the shared
    /// store** (extracted once — upgrades model a store-side app update,
    /// so the store serves v2 from here on, to every home), checked
    /// against this home's installed population *minus the currently
    /// installed version*, and — like [`Home::install_app`] —
    /// auto-confirmed only when clean. A dirty report comes back with
    /// [`installed == false`](InstallReport::installed) and
    /// [`replaces`](InstallReport::replaces) set; [`Home::confirm_install`]
    /// commits it (retiring the old version first), dropping it rejects the
    /// upgrade and leaves *this home* running its installed v1 copy (the
    /// engine keeps its own rules; only fresh checks see the store's v2).
    ///
    /// Recorded configuration **persists across upgrades** (as app stores
    /// do): bindings and user values keyed by input name carry over, so a
    /// later version reintroducing an input gets the user's remembered
    /// binding. Pass `config` to rebind; uninstall + install to forget.
    ///
    /// # Errors
    ///
    /// [`HgError::UnconfirmedInstall`] / [`HgError::UnknownApp`] when `name`
    /// is not a confirmed install; [`HgError::UpgradeRenames`] when the new
    /// source declares a different app name; [`HgError::Extract`] from
    /// extraction.
    pub fn upgrade_app(
        &mut self,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        let (report, forms) = self.stage_upgrade(source, name, config)?;
        if report.is_clean() {
            self.confirm(report, Some(forms))
        } else {
            Ok(report)
        }
    }

    /// [`Home::upgrade_app`] with unconditional confirmation (the scripted-
    /// experiment path).
    ///
    /// # Errors
    ///
    /// As [`Home::upgrade_app`].
    pub fn upgrade_app_forced(
        &mut self,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        let (report, forms) = self.stage_upgrade(source, name, config)?;
        self.confirm(report, Some(forms))
    }

    fn stage_upgrade(
        &mut self,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<(InstallReport, Vec<Arc<PreparedRule>>), HgError> {
        if !self.is_installed(name) {
            // Checked before ingest so a *misdirected* upgrade cannot
            // publish v2 store-wide. A well-directed upgrade does publish
            // before this home's verdict — that is the store-update model
            // (the market already carries v2; each home decides when to
            // move), not an accident: a rejecting home keeps running its
            // own v1 rule copies while the store serves v2 to new checks.
            return Err(self.not_installed_error(name));
        }
        let analysis = self.store.ingest_as(source, name)?;
        // Stage under the upgrade's configuration, against the live
        // population with the old version masked out, then put the
        // recorders and engine back: rejecting the dirty report leaves the
        // session untouched.
        let saved = self.stage_config(config);
        let rules = analysis.rules.clone();
        let forms = self.prepare(name, &rules);
        let (threats, stats) = self.engine.check_prepared(&forms, Some(name));
        let chains = self.chains_for(name, &threats, Some(name));
        self.unstage_config(saved);
        let report = InstallReport {
            app: name.to_string(),
            rules,
            threats,
            chains,
            stats,
            installed: false,
            config: config.cloned(),
            replaces: Some(name.to_string()),
            dropped_ranks: Vec::new(),
        };
        Ok((report, forms))
    }

    /// Retracts an app's rules from the engine, retires its Allowed
    /// threats, and updates the compiled mediation points (incrementally
    /// when a compiled index is live).
    fn retire_app(&mut self, app: &str) -> (Vec<RuleId>, usize) {
        let removed_rules = self.engine.remove_app(app);
        let before = self.allowed.len();
        self.allowed
            .retain(|t| t.source.app != app && t.target.app != app);
        let retired_threats = before - self.allowed.len();
        self.apps.retain(|a| a != app);
        if let Some(index) = &mut self.mediation {
            index.remove_app(app);
        }
        (removed_rules, retired_threats)
    }

    fn not_installed_error(&self, app: &str) -> HgError {
        if self.store.has_app(app) {
            HgError::UnconfirmedInstall(app.to_string())
        } else {
            HgError::UnknownApp(app.to_string())
        }
    }

    /// Ingests + records configuration + checks, and **confirms only if
    /// clean**. A dirty report is returned with
    /// [`installed == false`](InstallReport::installed): nothing was
    /// recorded, and the caller decides — [`Home::confirm_install`] to
    /// accept the interference, or drop the report to reject the app.
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`] from extraction;
    /// [`HgError::AlreadyInstalled`] when the app's installation is already
    /// confirmed in this home (use [`Home::upgrade_app`] to replace it).
    pub fn install_app(
        &mut self,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        let (report, forms) = self.stage_install(source, name, config)?;
        if report.is_clean() {
            self.confirm(report, Some(forms))
        } else {
            Ok(report)
        }
    }

    /// Ingests + records configuration + checks + confirms unconditionally,
    /// returning the (possibly dirty) report. This is the scripted-
    /// experiment path: the "user" accepts every interference, so threats
    /// land on the Allowed list exactly as §VI-D's chained detection needs.
    ///
    /// # Errors
    ///
    /// As [`Home::install_app`].
    pub fn install_app_forced(
        &mut self,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<InstallReport, HgError> {
        let (report, forms) = self.stage_install(source, name, config)?;
        self.confirm(report, Some(forms))
    }

    /// Ingests and checks under the staged configuration, then restores
    /// the recorders: recording becomes permanent only on confirmation, so
    /// a rejected install cannot leave bindings behind (which would change
    /// how *other* apps' slots unify from then on).
    fn stage_install(
        &mut self,
        source: &str,
        name: &str,
        config: Option<&ConfigInfo>,
    ) -> Result<(InstallReport, Vec<Arc<PreparedRule>>), HgError> {
        if self.is_installed(name) {
            // Checked before ingest, like stage_upgrade: a refused
            // re-install must not silently replace the app's rule file in
            // the shared store for every other home.
            return Err(HgError::AlreadyInstalled(name.to_string()));
        }
        let analysis = self.store.ingest(source, name)?;
        let app_name = analysis.name.clone();
        if self.is_installed(&app_name) {
            // The source declared a name other than the fallback it was
            // submitted under, and THAT app is installed here.
            return Err(HgError::AlreadyInstalled(app_name));
        }
        let saved = self.stage_config(config);
        let checked = self.check(&app_name);
        self.unstage_config(saved);
        let (mut report, forms) = checked?;
        report.config = config.cloned();
        Ok((report, forms))
    }

    /// Records `config` for a staged check, returning the recorders and
    /// engine it replaced.
    fn stage_config(&mut self, config: Option<&ConfigInfo>) -> Option<StagedConfig> {
        let info = config?;
        let saved = StagedConfig {
            bindings: self.bindings.clone(),
            values: self.values.clone(),
            engine: self.engine.clone(),
        };
        self.record_config(info);
        Some(saved)
    }

    /// Puts back what [`Home::stage_config`] replaced. The engine returns
    /// with its prepared forms, so nothing is re-prepared.
    fn unstage_config(&mut self, saved: Option<StagedConfig>) {
        if let Some(saved) = saved {
            self.bindings = saved.bindings;
            self.values = saved.values;
            self.engine = saved.engine;
            self.mediation = None;
        }
    }

    /// All installed rules, in install order.
    pub fn installed_rules(&self) -> Vec<&Rule> {
        self.engine.installed_rules().collect()
    }

    /// Names of the confirmed-installed apps, in first-install order —
    /// including apps whose extraction yielded zero rules.
    pub fn installed_apps(&self) -> Vec<String> {
        self.apps.clone()
    }

    /// Whether `app`'s installation is confirmed in this home.
    pub fn is_installed(&self, app: &str) -> bool {
        self.apps.iter().any(|a| a == app)
    }

    /// The Allowed list.
    pub fn allowed(&self) -> &[Threat] {
        &self.allowed
    }

    /// The incremental detection engine (for inspection and benches).
    pub fn engine(&self) -> &DetectionEngine {
        &self.engine
    }

    /// The session's runtime handling policies.
    pub fn handling_policy(&self) -> &PolicyTable {
        &self.handling
    }

    /// Replaces the session's handling policies (e.g. the user ranked an
    /// Actuator Race pair after confirming it). Compiled mediation points
    /// embed resolved policies, so the cache is invalidated.
    pub fn set_handling_policy(&mut self, table: PolicyTable) {
        self.handling = table;
        self.mediation = None;
    }

    /// Compiles the session's confirmed-install threat set (the Allowed
    /// list) into a runtime mediation engine, ready to be installed into
    /// an event loop (e.g. `hg_sim::Home::set_mediator`).
    ///
    /// Every interference the user knowingly accepted at install time
    /// becomes a mediation point, keyed the way the detection index keys
    /// candidates, and handled per the session's
    /// [`PolicyTable`] — so "allowed" means *mediated at runtime*, not
    /// *ignored*.
    pub fn enforcer(&mut self) -> SharedEnforcer {
        let mut enforcer = Enforcer::new(self.mediation_index().clone());
        enforcer.set_stats_sink(self.mediation_sink.clone());
        SharedEnforcer::new(enforcer)
    }

    /// The compiled mediation points of the current Allowed list, cached
    /// between calls. Lifecycle mutations keep the cache honest: uninstall
    /// retires the app's points in place, installs/upgrades/rebinding
    /// invalidate it for recompilation here.
    pub fn mediation_index(&mut self) -> &MediationIndex {
        if self.mediation.is_none() {
            self.mediation = Some(self.compile_mediation());
        }
        match &self.mediation {
            Some(index) => index,
            None => unreachable!("mediation cache populated above"),
        }
    }

    /// Extracts the session's persistable state (see [`HomeState`]).
    pub fn export_state(&self) -> HomeState {
        HomeState {
            modes: self.modes.clone(),
            policy: self.policy,
            chain_depth: self.chain_depth,
            apps: self.apps.clone(),
            rules: self.engine.installed_rules().cloned().collect(),
            bindings: self
                .bindings
                .iter()
                .map(|((app, input), device)| (app.clone(), input.clone(), device.clone()))
                .collect(),
            values: self
                .values
                .iter()
                .map(|((app, input), value)| (app.clone(), input.clone(), value.clone()))
                .collect(),
            allowed: self.allowed.clone(),
            handling: self.handling.clone(),
        }
    }

    /// Rebuilds a session from exported state against `store`. Derived
    /// state is reconstructed, never deserialized: the detection engine
    /// re-posts the rules in their original install order (so incremental
    /// checks and stats are identical to the live session's), and the
    /// mediation index recompiles lazily from the restored Allowed list.
    /// Any enforcer built from the restored session starts with **empty**
    /// per-run memory — in-flight defer grants and fired-rule traces never
    /// survive a restart. Verdict sharing resets to the default (enabled):
    /// the [`HomeBuilder::verdict_sharing`] opt-out is a diagnostic knob,
    /// not persisted state. No other detection setting exists to restore:
    /// a cache miss is always answered by the `OverlapSolver`.
    pub fn restore_state(store: Arc<RuleStore>, state: HomeState) -> Home {
        let mut home = Home {
            store,
            engine: DetectionEngine::default(),
            bindings: state
                .bindings
                .into_iter()
                .map(|(app, input, device)| ((app, input), device))
                .collect(),
            values: state
                .values
                .into_iter()
                .map(|(app, input, value)| ((app, input), value))
                .collect(),
            allowed: state.allowed,
            apps: state.apps,
            modes: state.modes,
            policy: state.policy,
            chain_depth: state.chain_depth.max(2),
            handling: state.handling,
            mediation: None,
            share_verdicts: true,
            mediation_sink: Arc::new(Mutex::new(MediationStats::default())),
        };
        home.engine = DetectionEngine::new(home.detector());
        // An app's rules sit together in install order.
        for run in state.rules.chunk_by(|a, b| a.id.app == b.id.app) {
            let forms = home.prepare(&run[0].id.app, run);
            home.engine.install_prepared(forms);
        }
        home
    }

    fn compile_mediation(&self) -> MediationIndex {
        let rules: Vec<Rule> = self.installed_rules().into_iter().cloned().collect();
        let unification = self.detector().unification;
        MediationIndex::compile(&self.allowed, &rules, &unification, &self.handling)
    }
}

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
    fn first_install_is_clean_and_confirmed() {
        let mut home = Home::new(RuleStore::shared());
        let report = home.install_app(ON_APP, "OnApp", None).unwrap();
        assert!(report.is_clean());
        assert!(report.installed);
        assert_eq!(home.installed_rules().len(), 1);
    }

    #[test]
    fn dirty_install_requires_explicit_confirmation() {
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        let report = home.install_app(OFF_APP, "OffApp", None).unwrap();
        assert!(!report.is_clean());
        assert!(!report.installed, "dirty installs must not auto-confirm");
        assert!(report
            .threats
            .iter()
            .any(|t| t.kind == ThreatKind::ActuatorRace));
        assert_eq!(home.installed_rules().len(), 1, "OffApp not recorded yet");
        assert!(home.allowed().is_empty());

        let report = home.confirm_install(report).unwrap();
        assert!(report.installed);
        assert_eq!(home.installed_rules().len(), 2);
        assert!(
            !home.allowed().is_empty(),
            "threats moved to the Allowed list"
        );
    }

    #[test]
    fn forced_install_confirms_dirty_reports() {
        let mut home = Home::new(RuleStore::shared());
        home.install_app_forced(ON_APP, "OnApp", None).unwrap();
        let report = home.install_app_forced(OFF_APP, "OffApp", None).unwrap();
        assert!(!report.is_clean());
        assert!(report.installed);
        assert_eq!(home.installed_rules().len(), 2);
        assert!(!home.allowed().is_empty());
    }

    #[test]
    fn config_bindings_change_verdict() {
        let mut home = Home::new(RuleStore::shared());
        let cfg_a = ConfigInfo::new("OnApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-1");
        home.install_app(ON_APP, "OnApp", Some(&cfg_a)).unwrap();
        // OffApp bound to a DIFFERENT lamp: no race.
        let cfg_b = ConfigInfo::new("OffApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-2");
        let report = home.install_app(OFF_APP, "OffApp", Some(&cfg_b)).unwrap();
        assert!(
            !report
                .threats
                .iter()
                .any(|t| t.kind == ThreatKind::ActuatorRace),
            "{:#?}",
            report.threats
        );
    }

    #[test]
    fn rejected_install_reverts_staged_config() {
        // A dirty install staged with bindings is rejected: the bindings
        // must not linger, or they would silently flip the Auto policy
        // from by-type to bindings unification for every later check.
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        let cfg = ConfigInfo::new("OffApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-2");
        let report = home.install_app(OFF_APP, "OffApp", Some(&cfg)).unwrap();
        assert!(!report.installed, "{:#?}", report.threats);
        drop(report); // user rejects the app

        // Under restored by-type unification the race must still surface.
        let check = home.check_install("OffApp").unwrap();
        assert!(
            check
                .threats
                .iter()
                .any(|t| t.kind == ThreatKind::ActuatorRace),
            "bindings leaked from the rejected install: {:#?}",
            check.threats
        );
    }

    #[test]
    fn confirmed_install_applies_staged_config() {
        let mut home = Home::new(RuleStore::shared());
        let cfg_a = ConfigInfo::new("OnApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-1");
        home.install_app(ON_APP, "OnApp", Some(&cfg_a)).unwrap();
        let cfg_b = ConfigInfo::new("OffApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-1");
        let report = home.install_app(OFF_APP, "OffApp", Some(&cfg_b)).unwrap();
        assert!(!report.installed);
        let report = home.confirm_install(report).unwrap();
        assert!(report.installed);
        // Both apps' bindings are now permanent: a same-lamp re-check of a
        // third identical app still races under bindings unification.
        let check = home.check_install("OffApp").unwrap();
        assert!(
            check
                .threats
                .iter()
                .any(|t| t.kind == ThreatKind::ActuatorRace),
            "{:#?}",
            check.threats
        );
    }

    #[test]
    fn chained_detection_through_allowed_list() {
        // App1: motion -> switch on. App2: switch on -> mode Home.
        // App3: mode change -> unlock door. Installing all three must
        // surface the 3-rule covert chain at App3's install.
        let app1 = r#"
definition(name: "MotionSwitch")
input "m", "capability.motionSensor"
input "sw", "capability.switch", title: "hall switch"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { sw.on() }
"#;
        let app2 = r#"
definition(name: "SwitchMode")
input "sw", "capability.switch", title: "hall switch"
def installed() { subscribe(sw, "switch.on", h) }
def h(evt) { setLocationMode("Home") }
"#;
        let app3 = r#"
definition(name: "ModeUnlock")
input "door", "capability.lock", title: "front door"
def installed() { subscribe(location, "mode", h) }
def h(evt) { if (location.mode == "Home") { door.unlock() } }
"#;
        let mut home = Home::new(RuleStore::shared());
        home.install_app_forced(app1, "MotionSwitch", None).unwrap();
        home.install_app_forced(app2, "SwitchMode", None).unwrap();
        let report = home.install_app_forced(app3, "ModeUnlock", None).unwrap();
        assert!(
            !report.chains.is_empty(),
            "expected a covert chain, threats: {:#?}",
            report.threats
        );
        let chain = &report.chains[0];
        assert!(chain.rules.len() >= 3, "{chain}");
    }

    #[test]
    fn two_homes_share_one_store() {
        let store = RuleStore::shared();
        let mut alice = Home::new(store.clone());
        let mut bob = Home::builder(store.clone()).modes(["Day", "Night"]).build();

        alice.install_app(ON_APP, "OnApp", None).unwrap();
        // Bob installs the same store app: extraction is served from cache,
        // and his home is clean because HIS home has no competing rule.
        let report = bob.install_app(ON_APP, "OnApp", None).unwrap();
        assert!(report.is_clean());
        assert!(store.cache_hits() >= 1);
        assert_eq!(store.len(), 1);

        // Interference stays per-home: OffApp races in Alice's home...
        let dirty = alice.install_app(OFF_APP, "OffApp", None).unwrap();
        assert!(!dirty.is_clean());
        // ...but Bob's session state is untouched by Alice's verdicts.
        assert_eq!(bob.installed_rules().len(), 1);
        assert!(bob.allowed().is_empty());
    }

    #[test]
    fn session_threats_flow_into_the_runtime_enforcer() {
        use hg_capability::device_kind::DeviceKind;
        use hg_runtime::PolicyTable;

        let mut home = Home::builder(RuleStore::shared())
            .handling_policy(PolicyTable::block_all())
            .build();
        home.install_app_forced(ON_APP, "OnApp", None).unwrap();
        home.install_app_forced(OFF_APP, "OffApp", None).unwrap();
        assert!(!home.allowed().is_empty());

        // The confirmed-install threat set compiles straight into mediation
        // points...
        let enforcer = home.enforcer();
        assert!(enforcer.with(|e| !e.index().is_empty()));

        // ...and the enforcer sits inline in a simulated home: of the two
        // racing rules, exactly one acts per run.
        let unify = Unification::ByType;
        let mut sim = hg_sim::Home::new(11);
        sim.add_device(hg_sim::Device::new(
            "type:motionSensor/unknown",
            "motion",
            "motionSensor",
            DeviceKind::Unknown,
        ));
        sim.add_device(hg_sim::Device::new(
            "type:switch/light",
            "lamp",
            "switch",
            DeviceKind::Light,
        ));
        for rule in home.installed_rules() {
            sim.install_rule(unify.unify_rule(rule));
        }
        sim.set_mediator(enforcer.mediator());
        sim.stimulate(
            "type:motionSensor/unknown",
            "motion",
            Value::Sym("active".into()),
        );
        assert!(
            sim.fired("OnApp#0") != sim.fired("OffApp#0"),
            "exactly one racing rule must act, trace: {:#?}",
            sim.trace
        );
        assert_eq!(enforcer.journal().len(), 1);
        assert_eq!(enforcer.stats().mediated, 1);
        // The session's aggregate absorbed the enforcer's decisions.
        assert_eq!(home.mediation_stats(), enforcer.stats());
    }

    #[test]
    fn zero_rule_apps_have_a_full_lifecycle() {
        // A pure web-service endpoint app extracts to zero rules; it must
        // still install, show as installed, refuse a double install, and
        // uninstall cleanly.
        let endpoint = r#"
definition(name: "WebOnly")
input "lamp", "capability.switch", title: "lamp"
"#;
        let mut home = Home::new(RuleStore::shared());
        let report = home.install_app(endpoint, "WebOnly", None).unwrap();
        assert!(report.installed);
        assert!(report.rules.is_empty());
        assert!(home.is_installed("WebOnly"));
        assert_eq!(home.installed_apps(), vec!["WebOnly".to_string()]);
        assert!(matches!(
            home.install_app(endpoint, "WebOnly", None),
            Err(HgError::AlreadyInstalled(_))
        ));
        let removed = home.uninstall_app("WebOnly").unwrap();
        assert!(removed.removed_rules.is_empty());
        assert!(!home.is_installed("WebOnly"));
        assert!(home.installed_apps().is_empty());
    }

    #[test]
    fn stale_reports_cannot_be_confirmed_twice() {
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        let report = home.install_app(OFF_APP, "OffApp", None).unwrap();
        assert!(!report.installed);
        let confirmed = home.confirm_install(report.clone()).unwrap();
        assert!(confirmed.installed);
        // Confirming the same report again would duplicate OffApp's rules
        // under one identity.
        assert!(matches!(
            home.confirm_install(report),
            Err(HgError::AlreadyInstalled(app)) if app == "OffApp"
        ));
        assert_eq!(home.installed_rules().len(), 2);

        // An upgrade report goes stale when its app is uninstalled before
        // confirmation: confirming would resurrect it.
        let v2 = OFF_APP.replace("lamp.off()", "lamp.on()");
        let upgrade = home.upgrade_app(&v2, "OffApp", None).unwrap();
        assert!(upgrade.installed, "v2 agrees with OnApp: clean upgrade");
        let stale = home.upgrade_app(OFF_APP, "OffApp", None).unwrap();
        assert!(!stale.installed, "back to racing: dirty");
        home.uninstall_app("OffApp").unwrap();
        assert!(matches!(
            home.confirm_install(stale),
            Err(HgError::UnconfirmedInstall(app)) if app == "OffApp"
        ));
        assert_eq!(home.installed_apps(), vec!["OnApp".to_string()]);
    }

    #[test]
    fn double_install_is_a_typed_error() {
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        assert!(matches!(
            home.install_app(ON_APP, "OnApp", None),
            Err(HgError::AlreadyInstalled(app)) if app == "OnApp"
        ));
        assert_eq!(home.installed_rules().len(), 1);
    }

    #[test]
    fn refused_reinstall_does_not_touch_the_store() {
        // A refused re-install must not silently replace the app's rule
        // file in the shared store: other homes would start seeing the
        // rejected source's rules.
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        let modified = ON_APP.replace("lamp.on()", "lamp.off()");
        assert!(matches!(
            home.install_app(&modified, "OnApp", None),
            Err(HgError::AlreadyInstalled(_))
        ));
        assert_eq!(
            home.store().rules_of("OnApp").unwrap()[0].actions[0].command,
            "on",
            "the store must still serve the installed version"
        );
    }

    #[test]
    fn uninstall_retracts_rules_threats_and_mediation_points() {
        let mut home = Home::builder(RuleStore::shared())
            .handling_policy(PolicyTable::block_all())
            .build();
        home.install_app_forced(ON_APP, "OnApp", None).unwrap();
        home.install_app_forced(OFF_APP, "OffApp", None).unwrap();
        assert!(!home.allowed().is_empty());
        assert!(!home.mediation_index().is_empty());

        let report = home.uninstall_app("OffApp").unwrap();
        assert_eq!(report.removed_rules, vec![RuleId::new("OffApp", 0)]);
        assert_eq!(report.retired_threats, 1);
        assert_eq!(home.installed_apps(), vec!["OnApp".to_string()]);
        assert!(home.allowed().is_empty());
        // The uninstalled app's rules produce zero mediation points.
        assert!(home.mediation_index().is_empty());
        assert_eq!(
            home.mediation_index()
                .points_for_rule(&RuleId::new("OffApp", 0))
                .count(),
            0
        );

        // A re-check of OffApp sees the race again (OnApp is still there),
        // and a fresh install is no longer AlreadyInstalled.
        let check = home.check_install("OffApp").unwrap();
        assert!(check
            .threats
            .iter()
            .any(|t| t.kind == ThreatKind::ActuatorRace));
        let report = home.install_app(OFF_APP, "OffApp", None).unwrap();
        assert!(!report.installed, "dirty install awaits the user again");
    }

    #[test]
    fn uninstall_of_unknown_targets_is_typed() {
        let mut home = Home::new(RuleStore::shared());
        assert!(matches!(
            home.uninstall_app("Ghost"),
            Err(HgError::UnknownApp(app)) if app == "Ghost"
        ));
        // In the store (another home ingested it) but never confirmed here:
        home.store().ingest(ON_APP, "OnApp").unwrap();
        assert!(matches!(
            home.uninstall_app("OnApp"),
            Err(HgError::UnconfirmedInstall(app)) if app == "OnApp"
        ));
    }

    #[test]
    fn uninstall_forgets_the_apps_recorded_config() {
        // OnApp and OffApp bound to different lamps: no race. After OffApp
        // is uninstalled and reinstalled *without* bindings, Auto
        // unification must not resurrect its stale recorded slots.
        let mut home = Home::new(RuleStore::shared());
        let cfg_a = ConfigInfo::new("OnApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-1");
        home.install_app(ON_APP, "OnApp", Some(&cfg_a)).unwrap();
        let cfg_b = ConfigInfo::new("OffApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-2");
        let report = home
            .install_app_forced(OFF_APP, "OffApp", Some(&cfg_b))
            .unwrap();
        assert!(
            !report
                .threats
                .iter()
                .any(|t| t.kind == ThreatKind::ActuatorRace),
            "different lamps cannot race: {:#?}",
            report.threats
        );

        home.uninstall_app("OffApp").unwrap();
        // Unbound OffApp slots now unify with OnApp's recorded lamp by
        // type... no: OnApp's binding remains, OffApp is unbound, so under
        // Bindings unification its slot stays a distinct `slot:` key.
        let check = home.check_install("OffApp").unwrap();
        assert!(
            !check
                .threats
                .iter()
                .any(|t| t.kind == ThreatKind::ActuatorRace),
            "{:#?}",
            check.threats
        );
        // Re-binding the reinstall to OnApp's lamp races again.
        let cfg_b2 = ConfigInfo::new("OffApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-1");
        let report = home.install_app(OFF_APP, "OffApp", Some(&cfg_b2)).unwrap();
        assert!(
            report
                .threats
                .iter()
                .any(|t| t.kind == ThreatKind::ActuatorRace),
            "{:#?}",
            report.threats
        );
    }

    #[test]
    fn clean_upgrade_replaces_rules_in_place() {
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        // v2 flips the command; still the only app, so the upgrade is clean
        // and auto-confirms.
        let v2 = ON_APP.replace("lamp.on()", "lamp.off()");
        let report = home.upgrade_app(&v2, "OnApp", None).unwrap();
        assert!(report.installed);
        assert!(report.is_upgrade());
        assert_eq!(home.installed_rules().len(), 1);
        assert_eq!(home.installed_rules()[0].actions[0].command, "off");
    }

    #[test]
    fn dirty_upgrade_waits_for_confirmation_and_rollback_is_clean() {
        // OnApp + LeakApp (unrelated) installed; upgrading LeakApp to a
        // lamp-racing v2 is dirty: the report waits, the old version stays.
        let leak = r#"
definition(name: "LeakApp")
input "leak", "capability.waterSensor"
input "valve", "capability.valve"
def installed() { subscribe(leak, "water.wet", h) }
def h(evt) { valve.close() }
"#;
        let leak_v2 = r#"
definition(name: "LeakApp")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.off() }
"#;
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        home.install_app(leak, "LeakApp", None).unwrap();

        let report = home.upgrade_app(leak_v2, "LeakApp", None).unwrap();
        assert!(!report.installed, "dirty upgrade must wait");
        assert!(report
            .threats
            .iter()
            .any(|t| t.kind == ThreatKind::ActuatorRace));
        // Rejecting leaves the old version running.
        assert_eq!(home.installed_rules().len(), 2);
        assert_eq!(
            home.installed_rules()[1].actions[0].command,
            "close",
            "old LeakApp v1 must still be installed"
        );

        // Confirming retires v1 and installs v2; the race joins Allowed.
        let report = home.upgrade_app(leak_v2, "LeakApp", None).unwrap();
        let report = home.confirm_install(report).unwrap();
        assert!(report.installed);
        assert_eq!(home.installed_rules().len(), 2);
        assert_eq!(home.installed_rules()[1].actions[0].command, "off");
        assert_eq!(home.allowed().len(), 1);
    }

    #[test]
    fn upgrade_errors_are_typed() {
        let mut home = Home::new(RuleStore::shared());
        assert!(matches!(
            home.upgrade_app(ON_APP, "OnApp", None),
            Err(HgError::UnknownApp(_))
        ));
        home.store().ingest(ON_APP, "OnApp").unwrap();
        assert!(matches!(
            home.upgrade_app(ON_APP, "OnApp", None),
            Err(HgError::UnconfirmedInstall(_))
        ));
        // A renaming upgrade is refused before touching the session.
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        let renamed = ON_APP.replace("OnApp", "OtherApp");
        assert!(matches!(
            home.upgrade_app(&renamed, "OnApp", None),
            Err(HgError::UpgradeRenames { .. })
        ));
        assert_eq!(home.installed_apps(), vec!["OnApp".to_string()]);
    }

    #[test]
    fn upgrade_remaps_surviving_priority_ranks_and_drops_dangling() {
        use hg_runtime::HandlingPolicy;

        // TwoRule v1: rule #0 races with OnApp (user ranks it), rule #1 is
        // an unrelated valve automation (also ranked, defensively).
        let two_v1 = r#"
definition(name: "TwoRule")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
input "leak", "capability.waterSensor"
input "valve", "capability.valve"
def installed() { subscribe(m, "motion.active", h); subscribe(leak, "water.wet", k) }
def h(evt) { lamp.off() }
def k(evt) { valve.close() }
"#;
        // v2 drops the lamp rule and keeps the valve automation, which
        // renumbers it from TwoRule#1 to TwoRule#0.
        let two_v2 = r#"
definition(name: "TwoRule")
input "leak", "capability.waterSensor"
input "valve", "capability.valve"
def installed() { subscribe(leak, "water.wet", k) }
def k(evt) { valve.close() }
"#;
        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        home.install_app_forced(two_v1, "TwoRule", None).unwrap();
        home.set_handling_policy(PolicyTable::default().prioritize([
            RuleId::new("TwoRule", 0),
            RuleId::new("OnApp", 0),
            RuleId::new("TwoRule", 1),
        ]));

        let report = home.upgrade_app_forced(two_v2, "TwoRule", None).unwrap();
        assert!(report.installed);
        // The lamp rule's rank is dangling (its automation is gone)...
        assert_eq!(report.dropped_ranks, vec![RuleId::new("TwoRule", 0)]);
        // ...while the surviving valve rule's rank followed the renumbering
        // (TwoRule#1 → TwoRule#0) and other apps' ranks are untouched.
        assert!(matches!(
            home.handling_policy().policy(ThreatKind::ActuatorRace),
            HandlingPolicy::Priority(order)
                if *order == vec![RuleId::new("OnApp", 0), RuleId::new("TwoRule", 0)]
        ));
    }

    #[test]
    fn uninstall_drops_the_apps_priority_ranks() {
        use hg_runtime::HandlingPolicy;

        let mut home = Home::new(RuleStore::shared());
        home.install_app(ON_APP, "OnApp", None).unwrap();
        home.install_app_forced(OFF_APP, "OffApp", None).unwrap();
        home.set_handling_policy(
            PolicyTable::default().prioritize([RuleId::new("OffApp", 0), RuleId::new("OnApp", 0)]),
        );
        let report = home.uninstall_app("OffApp").unwrap();
        assert_eq!(report.dropped_ranks, vec![RuleId::new("OffApp", 0)]);
        assert!(matches!(
            home.handling_policy().policy(ThreatKind::ActuatorRace),
            HandlingPolicy::Priority(order) if *order == vec![RuleId::new("OnApp", 0)]
        ));
    }

    #[test]
    fn export_restore_round_trips_the_session() {
        let store = RuleStore::shared();
        let mut home = Home::builder(store.clone())
            .modes(["Day", "Night"])
            .handling_policy(PolicyTable::block_all())
            .build();
        let cfg = ConfigInfo::new("OnApp")
            .bind_device("m", "motion-1")
            .bind_device("lamp", "lamp-1");
        home.install_app(ON_APP, "OnApp", Some(&cfg)).unwrap();
        home.install_app_forced(OFF_APP, "OffApp", None).unwrap();

        let mut restored = Home::restore_state(store, home.export_state());
        assert_eq!(restored.installed_apps(), home.installed_apps());
        assert_eq!(
            restored
                .installed_rules()
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>(),
            home.installed_rules()
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(restored.allowed().len(), home.allowed().len());
        assert_eq!(restored.modes(), home.modes());
        // Derived state rebuilt: the same fresh check gets the same answer,
        // and the mediation points recompile to the same population.
        let live = home.check_install("OffApp").unwrap();
        let back = restored.check_install("OffApp").unwrap();
        assert_eq!(live.threats, back.threats);
        // Both sessions share the store's verdict cache, so the restored
        // session's identical check is answered from it — the logical
        // effort is identical, only the hit/miss markers differ.
        assert_eq!(live.stats.logical(), back.stats.logical());
        assert_eq!(back.stats.cache_hits, back.stats.pairs);
        assert_eq!(
            home.mediation_index().len(),
            restored.mediation_index().len()
        );
    }
}
