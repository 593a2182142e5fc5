//! The process-wide rule store (paper Fig. 6, §VIII-C — the extractor
//! service and its app database, redesigned for multi-home service).
//!
//! One HomeGuard backend serves many homes, but the rules of a store app do
//! not depend on the home installing it — extraction is a pure function of
//! the app source. [`RuleStore`] therefore lives *above* the per-home
//! sessions: it is created once, wrapped in an [`Arc`], and shared
//! read-only by every [`Home`](crate::Home). Ingestion uses interior
//! mutability (an `RwLock` around the database) so the store can keep
//! absorbing newly-published apps while homes hold references to it, and
//! re-ingesting an unchanged source is a cache hit — one extraction serves
//! every home installing the same store app. Likewise one by-type
//! preparation of an app's rules ([`RuleStore::prepared_of`]) serves every
//! home that unifies by type.

use crate::error::HgError;
use hg_detector::{PreparedRule, Unification, VerdictCache};
use hg_rules::json::rules_to_text;
use hg_rules::rule::Rule;
use hg_symexec::{extract, AppAnalysis, ExtractorConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};

/// The fewest entries [`StoreInner::prepared`] holds before it drops its
/// dead ones.
const PREPARED_SWEEP_FLOOR: usize = 64;

/// The shared rule database: extraction backend + one analysis per app.
pub struct RuleStore {
    /// Extractor configuration, fixed at store creation.
    config: ExtractorConfig,
    inner: RwLock<StoreInner>,
    /// How often `ingest` was answered from cache instead of re-extracting.
    /// Atomic so the cache-hit fast path stays on the read lock.
    cache_hits: AtomicU64,
    /// Bumped every time an ingest **persists** a new fingerprint (cache
    /// hits don't move it). Journaling callers compare it across an
    /// operation as a free absent→present pre-filter, so the steady-state
    /// install path never re-hashes the source just to learn nothing
    /// changed.
    ingest_epoch: AtomicU64,
    /// The fleet-shared pair-verdict cache. Owned here — the store is the
    /// one object every home already shares — and threaded through each
    /// session's detector, so two homes checking the same store-app pair
    /// under equivalent context solve it once. Runtime state only: it is
    /// never serialized, and [`RuleStore::restore_state`] starts empty.
    verdicts: Arc<VerdictCache>,
}

#[derive(Default)]
struct StoreInner {
    /// `app name → analysis` (rules, inputs, warnings): the database, one
    /// record per app.
    analyses: BTreeMap<String, Arc<AppAnalysis>>,
    /// `(source, fallback name) fingerprint → analysis`, the ingest dedup
    /// cache. Invariant: every entry serves its app's current analysis —
    /// when an upgrade replaces an app's entry, the pre-upgrade
    /// fingerprints are retired (see `app_fingerprints`), so a stale
    /// fingerprint can never answer an ingest with a pre-upgrade analysis.
    by_fingerprint: BTreeMap<u64, Arc<AppAnalysis>>,
    /// `app name → live fingerprints` — the retirement index. Upgrade and
    /// retraction walk it to drop exactly the app's stale cache entries.
    app_fingerprints: BTreeMap<String, Vec<u64>>,
    /// `app name → by-type prepared forms of its current analysis`, one
    /// per rule. Held weakly: a form lives only while some home's engine
    /// or an in-flight check holds it. Replacing or retiring the app's
    /// analysis drops its entry.
    prepared: BTreeMap<String, Vec<Weak<PreparedRule>>>,
    /// The `prepared` size at which the next insert first drops entries
    /// whose forms all died (an app no home runs keeps none), so dead
    /// entries never outnumber live ones by more than the floor.
    prepared_sweep_at: usize,
}

impl StoreInner {
    /// The cached forms of `app`'s current analysis, if every one is
    /// still alive.
    fn live_forms(&self, app: &str) -> Option<Vec<Arc<PreparedRule>>> {
        self.prepared.get(app)?.iter().map(Weak::upgrade).collect()
    }

    fn cache_forms(&mut self, app: &str, forms: &[Arc<PreparedRule>]) {
        if self.prepared.len() >= self.prepared_sweep_at {
            self.prepared
                .retain(|_, forms| forms.iter().any(|form| form.strong_count() > 0));
            self.prepared_sweep_at = (2 * self.prepared.len()).max(PREPARED_SWEEP_FLOOR);
        }
        self.prepared
            .insert(app.to_string(), forms.iter().map(Arc::downgrade).collect());
    }
}

impl Default for RuleStore {
    fn default() -> Self {
        RuleStore::new()
    }
}

impl RuleStore {
    /// A store using the extended extractor configuration (the paper's
    /// final state after modeling the special cases).
    pub fn new() -> RuleStore {
        RuleStore::with_config(ExtractorConfig::extended())
    }

    /// A store with a specific extractor configuration.
    pub fn with_config(config: ExtractorConfig) -> RuleStore {
        RuleStore {
            config,
            inner: RwLock::new(StoreInner::default()),
            cache_hits: AtomicU64::new(0),
            ingest_epoch: AtomicU64::new(0),
            verdicts: Arc::new(VerdictCache::new()),
        }
    }

    /// The fleet-shared pair-verdict cache this store owns. Homes attach
    /// it to their detectors (the default); callers can inspect hit rates
    /// or evict apps through it directly.
    pub fn verdict_cache(&self) -> &Arc<VerdictCache> {
        &self.verdicts
    }

    /// A fresh store already wrapped for sharing across homes.
    pub fn shared() -> Arc<RuleStore> {
        Arc::new(RuleStore::new())
    }

    /// Poison recovery: the store's state is a monotonic cache of pure
    /// extraction results (every write is a whole-entry insert), so a
    /// panicking writer cannot leave an entry half-updated in a way reads
    /// can't tolerate. Recover the data instead of propagating the poison
    /// to every session sharing the store.
    fn read_inner(&self) -> RwLockReadGuard<'_, StoreInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_inner(&self) -> RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Extracts an app and stores its analysis (the offline part of
    /// HomeGuard). Returns the analysis.
    ///
    /// Ingest is idempotent per `(source, fallback name)`: a repeated
    /// ingest returns the cached analysis of exactly that source without
    /// re-running extraction — this is what makes the store safe and cheap
    /// to share across every home that installs the same store app. The
    /// fallback name participates in the fingerprint because extraction of
    /// an unnamed app derives its rule identities from it.
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`] when symbolic extraction of the source fails.
    pub fn ingest(&self, source: &str, fallback_name: &str) -> Result<Arc<AppAnalysis>, HgError> {
        self.ingest_checked(source, fallback_name, false)
    }

    /// [`ingest`](RuleStore::ingest) that **persists only if** the source
    /// actually declares `name` — the upgrade submission path. A source
    /// declaring a different app name is refused with
    /// [`HgError::UpgradeRenames`] *before* anything lands in the
    /// database, so a rejected (possibly attacker-controlled) submission
    /// cannot publish a new app store-wide as a side effect.
    ///
    /// # Errors
    ///
    /// [`HgError::Extract`] from extraction; [`HgError::UpgradeRenames`]
    /// on a name mismatch.
    pub fn ingest_as(&self, source: &str, name: &str) -> Result<Arc<AppAnalysis>, HgError> {
        self.ingest_checked(source, name, true)
    }

    /// Whether an [`ingest`](RuleStore::ingest) (or
    /// [`ingest_as`](RuleStore::ingest_as)) of exactly this `(source, name)`
    /// pair has already been served and persisted. Used by journaling
    /// callers to tell a fresh ingest (worth a journal record) from a
    /// fingerprint-cache hit (a no-op on store state).
    pub fn has_ingested(&self, source: &str, name: &str) -> bool {
        self.read_inner()
            .by_fingerprint
            .contains_key(&Self::fingerprint_of(source, name))
    }

    /// A counter that moves **only** when an ingest persists a new
    /// fingerprint. Two equal reads around an operation prove no fresh
    /// ingest happened anywhere in the store during it — the cheap
    /// pre-filter journaling uses before paying a
    /// [`has_ingested`](RuleStore::has_ingested) source hash.
    pub fn ingest_epoch(&self) -> u64 {
        self.ingest_epoch.load(Ordering::Acquire)
    }

    /// Whether `app`'s stored analysis holds exactly `rules`, without
    /// cloning the rule set (unlike [`rules_of`](RuleStore::rules_of)).
    /// An app not in the store answers `false` — callers that dedup
    /// against the store fall back to carrying the rules inline.
    pub fn rules_eq(&self, app: &str, rules: &[Rule]) -> bool {
        self.read_inner()
            .analyses
            .get(app)
            .is_some_and(|analysis| analysis.rules == rules)
    }

    fn fingerprint_of(source: &str, name: &str) -> u64 {
        let mut h = DefaultHasher::new();
        source.hash(&mut h);
        name.hash(&mut h);
        h.finish()
    }

    fn ingest_checked(
        &self,
        source: &str,
        name: &str,
        must_match: bool,
    ) -> Result<Arc<AppAnalysis>, HgError> {
        let fingerprint = Self::fingerprint_of(source, name);
        // Fast path under the read lock: same ingest already served. (A
        // cached analysis was persisted by a prior successful ingest, so
        // the name check still applies but persistence cannot regress.)
        let cached = self.read_inner().by_fingerprint.get(&fingerprint).cloned();
        let analysis = match cached {
            Some(analysis) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                if must_match && analysis.name != name {
                    return Err(HgError::UpgradeRenames {
                        installed: name.to_string(),
                        new: analysis.name.clone(),
                    });
                }
                return Ok(analysis);
            }
            None => Arc::new(
                extract(source, name, &self.config)
                    .map_err(|error| HgError::extract(name, error))?,
            ),
        };
        if must_match && analysis.name != name {
            return Err(HgError::UpgradeRenames {
                installed: name.to_string(),
                new: analysis.name.clone(),
            });
        }
        let app = analysis.name.clone();
        let mut inner = self.write_inner();
        // This ingest replaces whatever the app's database entry was (an
        // upgrade, or a re-publish under a different fallback name), so
        // the fingerprints that served the previous analysis are retired:
        // a pre-upgrade fingerprint must never keep answering ingests with
        // the pre-upgrade analysis after the entry changed underneath it.
        if let Some(stale) = inner.app_fingerprints.remove(&app) {
            let replaced_content = !stale.contains(&fingerprint);
            for fp in stale {
                if fp != fingerprint {
                    inner.by_fingerprint.remove(&fp);
                }
            }
            // Upgrade re-ingest: the app's rules changed, so every
            // memoized pair verdict involving it is dead weight. (Verdict
            // keys are content-addressed, so this is reclamation, not a
            // correctness requirement — a v1 verdict can never answer for
            // v2's rules.)
            if replaced_content {
                self.verdicts.evict_app(&app);
            }
        }
        inner.prepared.remove(&app);
        inner.by_fingerprint.insert(fingerprint, analysis.clone());
        inner
            .app_fingerprints
            .insert(app.clone(), vec![fingerprint]);
        inner.analyses.insert(app, analysis.clone());
        self.ingest_epoch.fetch_add(1, Ordering::Release);
        Ok(analysis)
    }

    /// Removes a store-pulled (e.g. discovered-malicious) app from the
    /// database entirely: its analysis and every live fingerprint, so
    /// neither a query nor a dedup-cache hit can resurrect it. Returns
    /// whether the app was present. Homes keep their installed rule
    /// copies — retraction from every session is the fleet's job
    /// (`Fleet::force_uninstall` composes both).
    pub fn retire_app(&self, app: &str) -> bool {
        let mut inner = self.write_inner();
        let present = inner.analyses.remove(app).is_some();
        inner.prepared.remove(app);
        if let Some(fps) = inner.app_fingerprints.remove(app) {
            for fp in fps {
                inner.by_fingerprint.remove(&fp);
            }
        }
        // A retired app's memoized pair verdicts are unreachable garbage;
        // reclaim them fleet-wide.
        self.verdicts.evict_app(app);
        present
    }

    /// Queries the stored rules for `app` (the phone app's online request),
    /// served from its analysis.
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownApp`] when `app` was never ingested.
    pub fn rules_of(&self, app: &str) -> Result<Vec<Rule>, HgError> {
        self.read_inner()
            .analyses
            .get(app)
            .map(|analysis| analysis.rules.clone())
            .ok_or_else(|| HgError::UnknownApp(app.to_string()))
    }

    /// `app`'s current analysis with its rules prepared under
    /// [`Unification::ByType`], the forms every by-type home installs and
    /// checks. Each form is what [`PreparedRule::prepare`] returns; the
    /// store prepares an analysis' rules once for as long as any home or
    /// in-flight check holds the forms, and then forgets them.
    ///
    /// # Errors
    ///
    /// [`HgError::UnknownApp`] when `app` was never ingested.
    pub fn prepared_of(
        &self,
        app: &str,
    ) -> Result<(Arc<AppAnalysis>, Vec<Arc<PreparedRule>>), HgError> {
        let analysis = {
            let inner = self.read_inner();
            let Some(analysis) = inner.analyses.get(app).cloned() else {
                return Err(HgError::UnknownApp(app.to_string()));
            };
            if let Some(forms) = inner.live_forms(app) {
                return Ok((analysis, forms));
            }
            analysis
        };
        // Prepared outside the lock; the analysis is immutable.
        let forms: Vec<Arc<PreparedRule>> = analysis
            .rules
            .iter()
            .map(|rule| Arc::new(PreparedRule::prepare(rule, &Unification::ByType)))
            .collect();
        let mut inner = self.write_inner();
        // Cached only while `analysis` is still the app's current one.
        if inner
            .analyses
            .get(app)
            .is_some_and(|current| Arc::ptr_eq(current, &analysis))
        {
            match inner.live_forms(app) {
                // A concurrent caller cached this analysis' forms first.
                Some(shared) => return Ok((analysis, shared)),
                None => inner.cache_forms(app, &forms),
            }
        }
        Ok((analysis, forms))
    }

    /// How many of the forms [`prepared_of`](RuleStore::prepared_of)
    /// handed out for `app`'s current analysis are still alive.
    pub fn live_forms(&self, app: &str) -> usize {
        self.read_inner().prepared.get(app).map_or(0, |forms| {
            forms.iter().filter(|form| form.strong_count() > 0).count()
        })
    }

    /// Whether `app` has been ingested into the database.
    pub fn has_app(&self, app: &str) -> bool {
        self.read_inner().analyses.contains_key(app)
    }

    /// The stored analysis for `app`.
    pub fn analysis_of(&self, app: &str) -> Option<Arc<AppAnalysis>> {
        self.read_inner().analyses.get(app).cloned()
    }

    /// The serialized rule-file size in bytes for `app` (§VIII-C measures
    /// an average of ~6.2 KB per app), computed from its analysis.
    pub fn rule_file_size(&self, app: &str) -> Option<usize> {
        let analysis = self.analysis_of(app)?;
        Some(rules_to_text(&analysis.rules).len())
    }

    /// Names of every ingested app.
    pub fn app_names(&self) -> Vec<String> {
        self.read_inner().analyses.keys().cloned().collect()
    }

    /// Number of apps in the database.
    pub fn len(&self) -> usize {
        self.read_inner().analyses.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.read_inner().analyses.is_empty()
    }

    /// How many ingests were served from cache (same source, no
    /// re-extraction).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// The extractor configuration the store was created with.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Extracts the persistable state: every app's analysis with its live
    /// fingerprints, plus the extractor configuration. This is the raw
    /// material `hg-persist` serializes; the effort counters (`cache_hits`)
    /// are statistics, not state, and are deliberately not part of it.
    pub fn export_state(&self) -> StoreState {
        let inner = self.read_inner();
        StoreState {
            config: self.config.clone(),
            apps: inner
                .analyses
                .iter()
                .map(|(name, analysis)| StoreAppState {
                    name: name.clone(),
                    analysis: analysis.clone(),
                    fingerprints: inner
                        .app_fingerprints
                        .get(name)
                        .cloned()
                        .unwrap_or_default(),
                })
                .collect(),
        }
    }

    /// Rebuilds a store from exported state — the warm-restart path. The
    /// ingest dedup cache is restored along with the database: every live
    /// fingerprint resumes serving its app's analysis, so the first
    /// post-restart ingest of an unchanged source is a cache hit, not a
    /// re-extraction.
    pub fn restore_state(state: StoreState) -> RuleStore {
        let store = RuleStore::with_config(state.config);
        {
            let mut inner = store.write_inner();
            for app in state.apps {
                for &fp in &app.fingerprints {
                    inner.by_fingerprint.insert(fp, app.analysis.clone());
                }
                inner
                    .app_fingerprints
                    .insert(app.name.clone(), app.fingerprints);
                inner.analyses.insert(app.name, app.analysis);
            }
        }
        store
    }
}

/// One app's persisted store entry (see [`RuleStore::export_state`]).
#[derive(Debug, Clone)]
pub struct StoreAppState {
    /// The app name (database key).
    pub name: String,
    /// The app's analysis: its rules, inputs and warnings.
    pub analysis: Arc<AppAnalysis>,
    /// The live `(source, fallback name)` fingerprints serving `analysis`.
    pub fingerprints: Vec<u64>,
}

/// The persistable state of a [`RuleStore`].
#[derive(Debug, Clone)]
pub struct StoreState {
    /// Extractor configuration future ingests will run under.
    pub config: ExtractorConfig,
    /// Every database entry, sorted by app name.
    pub apps: Vec<StoreAppState>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_rules::json::rules_from_text;
    use std::sync::Arc;

    const APP: &str = r#"
definition(name: "Mini")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.on() }
"#;

    #[test]
    fn ingest_and_query_roundtrip() {
        let store = RuleStore::new();
        store.ingest(APP, "Mini").unwrap();
        let rules = store.rules_of("Mini").unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].actions[0].command, "on");
        assert!(store.rule_file_size("Mini").unwrap() > 50);
        assert_eq!(store.len(), 1);
        assert_eq!(store.app_names(), vec!["Mini".to_string()]);
    }

    #[test]
    fn missing_app_is_a_typed_error() {
        let store = RuleStore::new();
        assert!(matches!(
            store.rules_of("Nope"),
            Err(HgError::UnknownApp(app)) if app == "Nope"
        ));
        assert!(!store.has_app("Nope"));
        assert!(store.is_empty());
    }

    #[test]
    fn refused_renaming_ingest_publishes_nothing() {
        // A submission declaring a different app name is rejected BEFORE
        // anything lands in the shared database — a rejected upgrade must
        // not publish a new app store-wide as a side effect.
        let store = RuleStore::new();
        let renamed = APP.replace("Mini", "Backdoor");
        assert!(matches!(
            store.ingest_as(&renamed, "Mini"),
            Err(HgError::UpgradeRenames { installed, new })
                if installed == "Mini" && new == "Backdoor"
        ));
        assert!(!store.has_app("Backdoor"));
        assert!(store.is_empty());
        // The well-named path persists normally.
        store.ingest_as(APP, "Mini").unwrap();
        assert!(store.has_app("Mini"));
    }

    #[test]
    fn poisoned_store_recovers_instead_of_panicking() {
        let store = RuleStore::shared();
        store.ingest(APP, "Mini").unwrap();
        // A writer panics while holding the write lock...
        let poisoner = store.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.inner.write().unwrap();
            panic!("writer dies mid-critical-section");
        })
        .join()
        .unwrap_err();
        assert!(store.inner.is_poisoned());
        // ...and every accessor keeps serving the cached data.
        assert_eq!(store.rules_of("Mini").unwrap().len(), 1);
        assert_eq!(store.len(), 1);
        store.ingest(APP, "Mini").unwrap();
        assert!(store.cache_hits() >= 1);
    }

    #[test]
    fn database_round_trips_through_json() {
        // A snapshot persists each app's rules as the rule file of its
        // analysis and parses them back on restore: the rule file must
        // reproduce the analysis exactly.
        let store = RuleStore::new();
        let analysis_rules = store.ingest(APP, "Mini").unwrap().rules.clone();
        let text = rules_to_text(&analysis_rules);
        assert_eq!(store.rule_file_size("Mini"), Some(text.len()));
        assert_eq!(rules_from_text(&text).unwrap(), analysis_rules);
        assert_eq!(store.rules_of("Mini").unwrap(), analysis_rules);
    }

    #[test]
    fn repeated_ingest_is_a_cache_hit() {
        let store = RuleStore::new();
        let first = store.ingest(APP, "Mini").unwrap();
        let second = store.ingest(APP, "Mini").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same analysis object");
        assert_eq!(store.cache_hits(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn upgrade_retires_the_pre_upgrade_fingerprint() {
        // Regression: v2 of "Mini" replaces the database entry. The v1
        // fingerprint used to survive and keep serving the pre-upgrade
        // analysis from cache while the database served v2 — an ingest
        // answered with rules that contradicted every by-name view. Now
        // the replacement retires the stale fingerprint: a later ingest
        // of the v1 source re-extracts, and every view (returned
        // analysis, `analysis_of`, `rules_of`) agrees again.
        let v2 = APP.replace("lamp.on()", "lamp.off()");
        let store = RuleStore::new();
        store.ingest(APP, "Mini").unwrap();
        store.ingest(&v2, "Mini").unwrap();
        assert_eq!(store.cache_hits(), 0);
        assert_eq!(store.rules_of("Mini").unwrap()[0].actions[0].command, "off");

        let again_v1 = store.ingest(APP, "Mini").unwrap();
        assert_eq!(store.cache_hits(), 0, "stale fingerprint must not hit");
        assert_eq!(again_v1.rules[0].actions[0].command, "on");
        // The re-ingest is a real publish: all views agree on v1 again.
        assert_eq!(store.rules_of("Mini").unwrap()[0].actions[0].command, "on");
        assert_eq!(
            store.analysis_of("Mini").unwrap().rules[0].actions[0].command,
            "on"
        );
        // And the fresh fingerprint is live: repeating it is a cache hit.
        store.ingest(APP, "Mini").unwrap();
        assert_eq!(store.cache_hits(), 1);
    }

    #[test]
    fn retire_app_removes_database_analysis_and_fingerprints() {
        let store = RuleStore::new();
        store.ingest(APP, "Mini").unwrap();
        assert!(store.retire_app("Mini"));
        assert!(!store.has_app("Mini"));
        assert!(store.analysis_of("Mini").is_none());
        assert!(store.is_empty());
        assert!(matches!(
            store.rules_of("Mini"),
            Err(HgError::UnknownApp(_))
        ));
        // The fingerprint died with the app: re-ingesting the identical
        // source is a fresh extraction, not a cache-hit resurrection.
        store.ingest(APP, "Mini").unwrap();
        assert_eq!(store.cache_hits(), 0);
        assert!(store.has_app("Mini"));
        // Retiring an unknown app reports absence.
        assert!(!store.retire_app("Ghost"));
    }

    #[test]
    fn lifecycle_evicts_the_apps_verdicts() {
        use crate::home::Home;

        const OTHER: &str = r#"
definition(name: "Other")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.off() }
"#;
        // Warm the verdict cache through a session's dirty install.
        let store = RuleStore::shared();
        let mut home = Home::new(store.clone());
        home.install_app(APP, "Mini", None).unwrap();
        let report = home.install_app(OTHER, "Other", None).unwrap();
        assert!(!report.is_clean());
        assert!(!store.verdict_cache().is_empty());

        // Upgrade re-ingest (changed content) evicts the app's verdicts...
        let v2 = OTHER.replace("lamp.off()", "lamp.on()");
        store.ingest(&v2, "Other").unwrap();
        assert!(
            store.verdict_cache().is_empty(),
            "the replaced app's verdicts must be reclaimed"
        );

        // ...an unchanged re-ingest (cache hit) evicts nothing...
        let check = home.check_install("Other").unwrap();
        assert!(check.is_clean(), "v2 agrees with Mini");
        assert!(!store.verdict_cache().is_empty());
        store.ingest(&v2, "Other").unwrap();
        assert!(!store.verdict_cache().is_empty());

        // ...and store retirement reclaims them too.
        store.retire_app("Other");
        assert!(store.verdict_cache().is_empty());
    }

    #[test]
    fn prepared_forms_live_only_while_a_home_or_check_holds_them() {
        use crate::home::Home;

        const RACER: &str = r#"
definition(name: "Racer")
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.off() }
"#;
        let store = RuleStore::shared();
        let mut alice = Home::new(store.clone());
        let mut bob = Home::new(store.clone());
        assert!(alice.install_app(APP, "Mini", None).unwrap().installed);
        assert!(bob.install_app(APP, "Mini", None).unwrap().installed);
        // Both by-type homes run the one form the store prepared.
        let form = |home: &Home| home.engine().installed_prepared().next().unwrap().clone();
        assert!(Arc::ptr_eq(&form(&alice), &form(&bob)));
        assert_eq!(store.live_forms("Mini"), 1);

        alice.uninstall_app("Mini").unwrap();
        assert_eq!(store.live_forms("Mini"), 1, "bob still runs Mini");
        bob.uninstall_app("Mini").unwrap();
        assert_eq!(store.live_forms("Mini"), 0, "no home runs Mini");

        // A vetting candidate that races with an installed app is rejected
        // by dropping its report: the app stays in the store, its forms
        // die with the check.
        alice.install_app(APP, "Mini", None).unwrap();
        let report = alice.install_app(RACER, "Racer", None).unwrap();
        assert!(!report.installed);
        drop(report);
        assert!(store.has_app("Racer"));
        assert_eq!(store.live_forms("Racer"), 0);

        // Entries whose forms all died are dropped once they pile up.
        for n in 0..3 * PREPARED_SWEEP_FLOOR {
            let name = format!("Vetted{n}");
            store.ingest(&RACER.replace("Racer", &name), &name).unwrap();
            alice.check_install(&name).unwrap();
            assert!(store.read_inner().prepared.len() <= PREPARED_SWEEP_FLOOR);
        }
    }

    #[test]
    fn prepared_forms_follow_the_current_analysis() {
        let store = RuleStore::new();
        store.ingest(APP, "Mini").unwrap();
        let (v1, v1_forms) = store.prepared_of("Mini").unwrap();
        let (again, again_forms) = store.prepared_of("Mini").unwrap();
        assert!(Arc::ptr_eq(&v1, &again));
        assert!(Arc::ptr_eq(&v1_forms[0], &again_forms[0]), "prepared once");
        assert_eq!(
            v1_forms[0].fingerprint(),
            PreparedRule::prepare(&v1.rules[0], &Unification::ByType).fingerprint()
        );

        // An upgrade re-ingest drops the old analysis' forms.
        store
            .ingest(&APP.replace("lamp.on()", "lamp.off()"), "Mini")
            .unwrap();
        assert_eq!(store.live_forms("Mini"), 0);
        let (v2, v2_forms) = store.prepared_of("Mini").unwrap();
        assert_eq!(v2_forms[0].orig, v2.rules[0]);
        assert_eq!(v2_forms[0].orig.actions[0].command, "off");
        assert_eq!(v1_forms[0].orig.actions[0].command, "on");

        store.retire_app("Mini");
        assert_eq!(store.live_forms("Mini"), 0);
        assert!(matches!(
            store.prepared_of("Mini"),
            Err(HgError::UnknownApp(_))
        ));
    }

    #[test]
    fn export_restore_round_trips_warm() {
        let store = RuleStore::new();
        store.ingest(APP, "Mini").unwrap();
        let restored = RuleStore::restore_state(store.export_state());
        assert_eq!(restored.len(), 1);
        assert_eq!(
            restored.rules_of("Mini").unwrap(),
            store.rules_of("Mini").unwrap()
        );
        assert_eq!(restored.analysis_of("Mini").unwrap().name, "Mini");
        // Warm restart: the dedup cache came back with the database, so
        // re-ingesting the unchanged source is a cache hit.
        restored.ingest(APP, "Mini").unwrap();
        assert_eq!(restored.cache_hits(), 1);
    }

    #[test]
    fn same_source_different_fallback_names_are_distinct() {
        // Unnamed apps derive rule identities from the fallback name, so
        // the dedup cache must not conflate them.
        let unnamed = r#"
input "m", "capability.motionSensor"
input "lamp", "capability.switch", title: "lamp"
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { lamp.on() }
"#;
        let store = RuleStore::new();
        let a = store.ingest(unnamed, "AppA").unwrap();
        let b = store.ingest(unnamed, "AppB").unwrap();
        assert_eq!(a.name, "AppA");
        assert_eq!(b.name, "AppB");
        assert_eq!(store.cache_hits(), 0);
    }

    #[test]
    fn shared_store_serves_concurrent_ingest() {
        let store = RuleStore::shared();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                std::thread::spawn(move || store.ingest(APP, "Mini").unwrap().rules.len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
        assert_eq!(store.len(), 1);
        // However the threads raced, a subsequent identical ingest is a hit.
        let before = store.cache_hits();
        store.ingest(APP, "Mini").unwrap();
        assert_eq!(store.cache_hits(), before + 1);
    }
}
