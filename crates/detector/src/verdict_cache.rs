//! The fleet-shared pair-verdict cache.
//!
//! One vetting service fronts the app store for an entire fleet of homes
//! (paper §VIII), and fleet traffic is dominated by *repetition*: thousands
//! of homes install the same store apps, so the same (rule, rule) pair is
//! solved again and again with the same modes and the same relevant
//! configuration. [`VerdictCache`] memoizes the complete pair verdict —
//! the threats **and** the effort counters of one
//! [`detect_pair_prepared`](crate::Detector::detect_pair_prepared) call —
//! behind a sharded `RwLock` map that the rule store owns in an
//! `Arc` and threads through every home's [`Detector`](crate::Detector).
//! A hit skips candidate filtering, model building and constraint solving
//! entirely; a miss computes once and publishes for every other home.
//!
//! # Keying and soundness
//!
//! Entries are **content-addressed**: the key fingerprints everything the
//! pair verdict depends on —
//!
//! * both prepared rules' original *and* unified forms (so two homes whose
//!   device bindings resolve slots differently never share an entry),
//!   in order (directed threat kinds make the pair asymmetric);
//! * the solver context: the home's location modes plus the substituted
//!   [`UserValues`](crate::UserValues) **actually referenced** by the two
//!   rules' formulas and action parameters — homes differing only in
//!   configuration the pair never reads still share entries.
//!
//! Everything else a verdict reads (capability tables, environment bounds,
//! the search budget) is process-static. Content addressing makes the
//! cache self-invalidating — a changed rule hashes to a new key — and the
//! store-level lifecycle hooks ([`evict_app`](VerdictCache::evict_app),
//! wired to `retire_app` and upgrade re-ingest, where an app's entries die
//! for every home at once) reclaim the dead entries so churn cannot grow
//! the map without bound. Per-home context changes (rebinding, new user
//! values) evict nothing: they only change that home's keys, and the old
//! entries keep serving the rest of the fleet until the capacity backstop
//! turns them over.
//!
//! The cache is runtime state, never persisted: snapshots rebuild it empty
//! (`hg-persist` asserts exactly that).

use crate::report::{DetectStats, Threat};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// The identity of one memoized pair verdict: both rules' 128-bit content
/// fingerprints (ordered — directed threat kinds make the pair
/// asymmetric) plus the 128-bit solver-context fingerprint. The cache map
/// compares the **whole structured key on every hit** — a hash-bucket
/// collision degrades to a miss, never to another pair's verdict — and
/// the components are 128-bit double-hashes (two SipHash passes under
/// **secret per-process random keys**, see `fingerprint128` in this
/// module), so crafting colliding rule content offline is infeasible:
/// without the keys SipHash's PRF guarantee applies, and the cache never
/// outlives the process that drew them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// First (source-side) rule's content fingerprint.
    pub fp1: u128,
    /// Second (target-side) rule's content fingerprint.
    pub fp2: u128,
    /// Solver-context fingerprint (modes + referenced user values).
    pub ctx: u128,
}

/// Default per-shard entry cap. A shard at capacity evicts its
/// **least-recently-used quarter** (see [`Shard::evict_lru_batch`]) — hot
/// entries survive churn instead of being dumped with the whole shard, and
/// the O(n) recency scan amortizes to O(1) per insert because one scan
/// buys capacity/4 further inserts.
const MAX_ENTRIES_PER_SHARD: usize = 1 << 14;

/// One memoized pair verdict: the threats and the effort counters the
/// uncached detection produced. The counters are *logical* effort — a hit
/// replays them so cached and uncached runs report identical `DetectStats`
/// modulo the hit/miss markers themselves. The member app names ride
/// along so eviction of either app can unregister the key from its
/// partner's eviction list (no tombstone accumulation under churn).
/// `last_used` is the LRU recency stamp — an atomic so the hit fast path
/// can refresh it under the shard's **read** lock.
#[derive(Debug)]
struct CachedVerdict {
    threats: Vec<Threat>,
    stats: DetectStats,
    apps: [String; 2],
    last_used: AtomicU64,
    /// Hits this entry has served — the raw material of the hot-pair
    /// leaderboard ([`VerdictCache::top_pairs`]). Atomic for the same
    /// reason as `last_used`: the hit fast path holds only a read lock.
    hits: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<PairKey, CachedVerdict>,
    /// `app name → keys involving it`, the eviction index. An entry is
    /// registered under both member apps so either side's retirement
    /// drops it.
    by_app: HashMap<String, Vec<PairKey>>,
}

impl Shard {
    /// Removes one entry, unregistering its key from both member apps'
    /// eviction lists. Returns whether the key was live.
    fn purge_key(&mut self, key: &PairKey) -> bool {
        let Some(dead) = self.entries.remove(key) else {
            return false;
        };
        let [first, second] = &dead.apps;
        for app in std::iter::once(first).chain((second != first).then_some(second)) {
            if let Some(keys) = self.by_app.get_mut(app) {
                keys.retain(|k| k != key);
                if keys.is_empty() {
                    self.by_app.remove(app);
                }
            }
        }
        true
    }

    /// Drops the least-recently-used quarter of the shard (at least one
    /// entry). Recency stamps are strictly increasing draws from the
    /// cache-wide clock, so the cut below the k-th smallest stamp removes
    /// exactly k entries. Returns how many were dropped.
    fn evict_lru_batch(&mut self, capacity: usize) -> u64 {
        let mut stamps: Vec<u64> = self
            .entries
            .values()
            .map(|v| v.last_used.load(Ordering::Relaxed))
            .collect();
        stamps.sort_unstable();
        let batch = (capacity / 4).max(1).min(stamps.len());
        let threshold = stamps[batch - 1];
        let dead: Vec<PairKey> = self
            .entries
            .iter()
            .filter(|(_, v)| v.last_used.load(Ordering::Relaxed) <= threshold)
            .map(|(k, _)| *k)
            .collect();
        let mut dropped = 0u64;
        for key in &dead {
            if self.purge_key(key) {
                dropped += 1;
            }
        }
        dropped
    }
}

/// Aggregate cache effectiveness counters (see [`VerdictCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh detection.
    pub misses: u64,
    /// Entries dropped by lifecycle eviction or capacity pressure.
    pub evicted: u64,
    /// Live entries across all shards.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The fleet-shared pair-verdict cache (see the [module docs](self)).
#[derive(Debug)]
pub struct VerdictCache {
    shards: Box<[RwLock<Shard>]>,
    /// Per-shard entry cap; overflow evicts the LRU quarter of the shard.
    capacity: usize,
    /// The LRU clock: every hit and insert draws a strictly increasing
    /// stamp from it.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache::new()
    }
}

impl VerdictCache {
    /// A cache with 16 shards (roughly the fleet's default shard width, so
    /// concurrent per-shard sweeps rarely contend on a cache lock).
    pub fn new() -> VerdictCache {
        VerdictCache::with_shards(16)
    }

    /// A cache with a specific shard count (clamped to at least 1).
    pub fn with_shards(n: usize) -> VerdictCache {
        VerdictCache::with_shards_and_capacity(n, MAX_ENTRIES_PER_SHARD)
    }

    /// A cache with a specific shard count and per-shard capacity, both
    /// clamped to at least 1 (tests size the capacity down to exercise LRU
    /// eviction without millions of inserts).
    pub fn with_shards_and_capacity(n: usize, capacity: usize) -> VerdictCache {
        VerdictCache {
            shards: (0..n.max(1))
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    // Poison recovery (the `unwrap_or_else(PoisonError::into_inner)` in
    // lookup/insert/evict_app/clear/len): every write is a whole-entry
    // insert or removal of self-contained data, so a panicking writer
    // cannot leave an entry readers can't tolerate — recover the map
    // rather than propagating the poison into every session sharing the
    // cache.

    fn shard(&self, key: &PairKey) -> &RwLock<Shard> {
        let route = (key.fp1 ^ key.fp2.rotate_left(1) ^ key.ctx.rotate_left(2)) as u64;
        &self.shards[(route % self.shards.len() as u64) as usize]
    }

    /// Looks up a pair verdict. A hit clones the memoized threats and
    /// logical effort counters; callers mark the returned stats with
    /// `cache_hits` themselves so the cache stays oblivious to how stats
    /// are absorbed.
    pub fn lookup(&self, key: &PairKey) -> Option<(Vec<Threat>, DetectStats)> {
        let shard = self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        match shard.entries.get(key) {
            Some(verdict) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Refresh LRU recency under the read lock (the stamp is
                // atomic precisely so hits never upgrade to a write lock).
                verdict.last_used.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                verdict.hits.fetch_add(1, Ordering::Relaxed);
                Some((verdict.threats.clone(), verdict.stats))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a freshly computed verdict under `key`, registered for
    /// eviction under both member apps. Racing inserts of the same key are
    /// harmless: content addressing means both writers carry the same
    /// verdict. A shard at capacity sheds its least-recently-used quarter
    /// first, so hot-shard churn turns over cold entries instead of
    /// dumping the verdicts the fleet is actively hitting.
    pub fn insert(&self, key: PairKey, apps: [&str; 2], threats: Vec<Threat>, stats: DetectStats) {
        let mut shard = self
            .shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.entries.len() >= self.capacity && !shard.entries.contains_key(&key) {
            let dropped = shard.evict_lru_batch(self.capacity);
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
        }
        let verdict = CachedVerdict {
            threats,
            stats,
            apps: [apps[0].to_string(), apps[1].to_string()],
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            hits: AtomicU64::new(0),
        };
        if shard.entries.insert(key, verdict).is_none() {
            for app in apps {
                let keys = shard.by_app.entry(app.to_string()).or_default();
                // Both members may be the same app (intra-app pairs).
                if keys.last() != Some(&key) {
                    keys.push(key);
                }
            }
        }
    }

    /// Drops every entry involving `app` — the store-level lifecycle
    /// invalidation hook (retirement, upgrade re-ingest). Content
    /// addressing already prevents a stale verdict from answering for a
    /// *changed* rule; eviction reclaims the memory the dead version
    /// held. Returns how many entries were dropped.
    pub fn evict_app(&self, app: &str) -> usize {
        let mut dropped = 0usize;
        for shard in self.shards.iter() {
            let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
            let Some(keys) = shard.by_app.remove(app) else {
                continue;
            };
            // Purging unregisters each key from the partner app's eviction
            // list too: a long-lived app repeatedly paired against churned
            // partners must not accumulate dead keys forever.
            dropped += keys.iter().filter(|key| shard.purge_key(key)).count();
        }
        self.evicted.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drops everything (reconfiguration storms, tests).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
            self.evicted
                .fetch_add(shard.entries.len() as u64, Ordering::Relaxed);
            shard.entries.clear();
            shard.by_app.clear();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total keys registered in the eviction index across all shards
    /// (test instrumentation for the no-tombstone-accumulation property).
    #[cfg(test)]
    fn registered_keys(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .by_app
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Aggregate effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// The hot-pair leaderboard: the `n` most-hit **app pairs** (unordered
    /// — a directed pair's two orientations aggregate into one row),
    /// summed over every live entry the pair has in the cache (different
    /// solver contexts and rule pairs of the same two apps count
    /// together). Ties break by app names for a deterministic board.
    /// Evicted entries take their hit history with them: the board ranks
    /// what the *current* working set is serving.
    pub fn top_pairs(&self, n: usize) -> Vec<HotPair> {
        use std::collections::BTreeMap;
        let mut board: BTreeMap<[String; 2], (u64, u64, u64)> = BTreeMap::new();
        for shard in self.shards.iter() {
            let shard = shard.read().unwrap_or_else(PoisonError::into_inner);
            for verdict in shard.entries.values() {
                let [a, b] = &verdict.apps;
                let key = if a <= b {
                    [a.clone(), b.clone()]
                } else {
                    [b.clone(), a.clone()]
                };
                let (hits, entries, threats) = board.entry(key).or_default();
                *hits += verdict.hits.load(Ordering::Relaxed);
                *entries += 1;
                *threats += verdict.threats.len() as u64;
            }
        }
        let mut rows: Vec<HotPair> = board
            .into_iter()
            .map(|(apps, (hits, entries, threats))| HotPair {
                apps,
                hits,
                entries,
                threats,
            })
            .collect();
        rows.sort_by(|a, b| b.hits.cmp(&a.hits).then_with(|| a.apps.cmp(&b.apps)));
        rows.truncate(n);
        rows
    }
}

/// One row of the hot-pair leaderboard (see [`VerdictCache::top_pairs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPair {
    /// The two member apps, lexicographically ordered.
    pub apps: [String; 2],
    /// Cache hits served for the pair's live entries.
    pub hits: u64,
    /// Live cache entries of the pair (rule pairs × solver contexts).
    pub entries: u64,
    /// Memoized threats across those entries.
    pub threats: u64,
}

/// A 128-bit content fingerprint: two independent SipHash passes under
/// **secret keys drawn once per process** (`RandomState`), over whatever
/// `write` feeds in. The cache lives only in memory, so per-process
/// stability is all that is required — and keeping the keys secret is
/// what makes the fingerprint adversarially meaningful: SipHash is a PRF
/// under an unknown key, so a malicious store-app author cannot search
/// offline for rule content whose [`PairKey`] collides with a benign
/// pair's. (Contrast the rule store's *persisted* ingest fingerprints,
/// which use fixed keys because they must survive restarts — they gate
/// only a re-extraction, never a verdict.)
pub(crate) fn fingerprint128(write: impl Fn(&mut DefaultHasher)) -> u128 {
    static KEYS: OnceLock<(RandomState, RandomState)> = OnceLock::new();
    let (lo_keys, hi_keys) = KEYS.get_or_init(|| (RandomState::new(), RandomState::new()));
    let mut lo = lo_keys.build_hasher();
    write(&mut lo);
    let mut hi = hi_keys.build_hasher();
    write(&mut hi);
    ((hi.finish() as u128) << 64) | lo.finish() as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ThreatKind;
    use hg_rules::rule::RuleId;

    fn key(n: u128) -> PairKey {
        PairKey {
            fp1: n,
            fp2: n.rotate_left(7),
            ctx: 0,
        }
    }

    fn threat(src: &str, dst: &str) -> Threat {
        Threat {
            kind: ThreatKind::ActuatorRace,
            source: RuleId::new(src, 0),
            target: RuleId::new(dst, 0),
            witness: None,
            actuator: None,
            property: None,
            note: "race".into(),
        }
    }

    #[test]
    fn lookup_miss_then_hit_round_trips_the_verdict() {
        let cache = VerdictCache::new();
        assert!(cache.lookup(&key(7)).is_none());
        let stats = DetectStats {
            pairs: 1,
            solves: 2,
            ..Default::default()
        };
        cache.insert(key(7), ["A", "B"], vec![threat("A", "B")], stats);
        let (threats, back) = cache.lookup(&key(7)).unwrap();
        assert_eq!(threats.len(), 1);
        assert_eq!(back, stats);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evict_app_drops_entries_of_either_member() {
        let cache = VerdictCache::new();
        cache.insert(key(1), ["A", "B"], vec![], DetectStats::default());
        cache.insert(key(2), ["B", "C"], vec![], DetectStats::default());
        cache.insert(key(3), ["C", "C"], vec![], DetectStats::default());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evict_app("B"), 2, "entries 1 and 2 involve B");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(3)).is_some());
        // Idempotent; unknown apps evict nothing.
        assert_eq!(cache.evict_app("B"), 0);
        assert_eq!(cache.evict_app("Ghost"), 0);
        assert!(cache.stats().evicted >= 2);
    }

    #[test]
    fn churned_partner_evictions_leave_no_tombstones() {
        // A long-lived app ("Hub") repeatedly paired against short-lived
        // partners: evicting each partner must also unregister the dead
        // keys from Hub's eviction list, or a long-running service leaks
        // ~48 bytes per upgrade cycle forever.
        let cache = VerdictCache::with_shards(4);
        for round in 0u128..100 {
            let partner = format!("X{round}");
            cache.insert(
                key(round + 1),
                ["Hub", &partner],
                vec![],
                DetectStats::default(),
            );
            assert_eq!(cache.evict_app(&partner), 1);
            assert_eq!(
                cache.registered_keys(),
                0,
                "round {round}: dead keys must not accumulate under Hub"
            );
        }
        assert!(cache.is_empty());
        // Same-app pairs deregister cleanly too.
        cache.insert(key(7), ["Solo", "Solo"], vec![], DetectStats::default());
        assert_eq!(cache.evict_app("Solo"), 1);
        assert_eq!(cache.registered_keys(), 0);
    }

    #[test]
    fn capacity_eviction_is_least_recently_used() {
        // Capacity 8, one shard: fill it, refresh a subset, overflow, and
        // the evicted batch must be exactly the least-recently-used
        // entries — never the hot ones, and never the whole shard.
        let cache = VerdictCache::with_shards_and_capacity(1, 8);
        for n in 0u128..8 {
            cache.insert(key(n), ["A", "A"], vec![], DetectStats::default());
        }
        assert_eq!(cache.len(), 8);
        // Touch everything except entries 1, 2 and 3; they become the LRU
        // tail (in that order, oldest first).
        for n in [0u128, 4, 5, 6, 7] {
            assert!(cache.lookup(&key(n)).is_some());
        }
        // Overflow: capacity/4 = 2 entries must go — the two least
        // recently used (1 and 2), nothing else.
        cache.insert(key(8), ["A", "A"], vec![], DetectStats::default());
        assert_eq!(cache.len(), 7, "one LRU batch, not a wholesale clear");
        let miss = |n: u128| cache.lookup(&key(n)).is_none();
        assert!(miss(1) && miss(2), "the LRU tail is evicted first");
        for survivor in [0u128, 3, 4, 5, 6, 7, 8] {
            assert!(
                cache.lookup(&key(survivor)).is_some(),
                "entry {survivor} was recently used and must survive"
            );
        }
        // The eviction index shrank with the entries (no tombstones).
        assert_eq!(cache.registered_keys(), cache.len());
        assert_eq!(cache.stats().evicted, 2);

        // Re-inserting an existing key at capacity must not evict anyone:
        // it replaces in place.
        while cache.len() < 8 {
            cache.insert(key(100), ["A", "A"], vec![], DetectStats::default());
        }
        let before = cache.stats().evicted;
        cache.insert(key(8), ["A", "A"], vec![], DetectStats::default());
        assert_eq!(cache.stats().evicted, before);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn top_pairs_ranks_by_hits_and_merges_orientations() {
        let cache = VerdictCache::with_shards(4);
        // Two entries of the same unordered pair (both orientations), one
        // carrying a threat; plus a cold bystander pair.
        cache.insert(
            key(1),
            ["A", "B"],
            vec![threat("A", "B")],
            DetectStats::default(),
        );
        cache.insert(key(2), ["B", "A"], vec![], DetectStats::default());
        cache.insert(key(3), ["C", "D"], vec![], DetectStats::default());
        for _ in 0..5 {
            assert!(cache.lookup(&key(1)).is_some());
        }
        assert!(cache.lookup(&key(2)).is_some());
        assert!(cache.lookup(&key(3)).is_some());

        let board = cache.top_pairs(10);
        assert_eq!(board.len(), 2);
        assert_eq!(board[0].apps, ["A".to_string(), "B".to_string()]);
        assert_eq!(board[0].hits, 6, "both orientations aggregate");
        assert_eq!(board[0].entries, 2);
        assert_eq!(board[0].threats, 1);
        assert_eq!(board[1].hits, 1);
        // Truncation keeps the hottest.
        let top1 = cache.top_pairs(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].apps, ["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = VerdictCache::with_shards(4);
        for n in 0..64 {
            cache.insert(key(n), ["A", "A"], vec![], DetectStats::default());
        }
        assert_eq!(cache.len(), 64);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(5)).is_none());
    }

    #[test]
    fn poisoned_shard_recovers() {
        let cache = std::sync::Arc::new(VerdictCache::with_shards(1));
        cache.insert(key(1), ["A", "A"], vec![], DetectStats::default());
        let doomed = cache.clone();
        std::thread::spawn(move || {
            let _guard = doomed.shards[0].write().unwrap();
            panic!("writer dies");
        })
        .join()
        .unwrap_err();
        // Reads and writes keep serving.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(2), ["B", "B"], vec![], DetectStats::default());
        assert_eq!(cache.len(), 2);
    }
}
