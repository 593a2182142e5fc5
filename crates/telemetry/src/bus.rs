//! The bounded fleet event bus and the registry it folds into.
//!
//! [`TelemetryBus`] is the single pipe the fleet, its journal and its
//! executor publish into. One mutex guards one ring: a publish takes it
//! once, stamps the next sequence number, folds the event into the bus's
//! [`MetricsRegistry`] and appends it to the ring. Because stamping,
//! folding and retention share that critical section, the registry is
//! **exact by construction** — when [`TelemetryBus::publish`] returns,
//! every counter already includes the event — and the ring always holds
//! a gap-free run of sequence numbers ending at the newest event.
//!
//! The ring is the lossy part, kept for `/events/stream` readers. A full
//! ring **drops its oldest event** (counted in
//! [`TelemetryBus::dropped_events`]) rather than waiting for a reader: a
//! slow or absent reader costs history, never throughput and never a
//! counter.
//!
//! Readers are cursor-based: [`TelemetryBus::drain_since`] copies every
//! retained event with `seq >= cursor`, so a reader that fell behind
//! retention observes a sequence gap. [`TelemetryBus::wait_for_events`]
//! parks a reader until something newer than its cursor arrives;
//! publishers only ring the wake-up bell while a reader is parked,
//! keeping the no-reader publish path free of condvar traffic.

use crate::event::TelemetryEvent;
use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default ring retention: the newest 32k events.
const DEFAULT_CAPACITY: usize = 32_768;

/// A retained event: its global sequence stamp plus the payload.
type Stamped = (u64, TelemetryEvent);

/// The ring and its stamp, guarded together.
#[derive(Debug, Default)]
struct Ring {
    /// Retained events, oldest first, with consecutive stamps ending at
    /// `next_seq - 1`.
    events: VecDeque<Stamped>,
    /// The next event's number: events `0..next_seq` were all published.
    next_seq: u64,
    /// Events shed by the drop-oldest overflow policy.
    dropped: u64,
}

/// The fleet event bus (see the [module docs](self)).
#[derive(Debug)]
pub struct TelemetryBus {
    ring: Mutex<Ring>,
    /// Retention bound; overflow drops the oldest event.
    capacity: usize,
    registry: MetricsRegistry,
    /// Readers currently parked (or about to park) in
    /// [`TelemetryBus::wait_for_events`]. Publishers skip the bell
    /// entirely while this is zero.
    waiters: AtomicUsize,
    gate: Mutex<()>,
    bell: Condvar,
}

impl Default for TelemetryBus {
    fn default() -> Self {
        TelemetryBus::new()
    }
}

impl TelemetryBus {
    /// A bus with default retention (32,768 events).
    pub fn new() -> TelemetryBus {
        TelemetryBus::with_capacity(DEFAULT_CAPACITY)
    }

    /// A bus retaining the newest `capacity` events (clamped to at least
    /// 1 — tests size retention down to exercise drop-oldest). Retention
    /// bounds only the `/events/stream` history; the registry sees every
    /// event regardless.
    pub fn with_capacity(capacity: usize) -> TelemetryBus {
        TelemetryBus {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
            registry: MetricsRegistry::new(),
            waiters: AtomicUsize::new(0),
            gate: Mutex::new(()),
            bell: Condvar::new(),
        }
    }

    // Lock recovery: nothing between an event's stamp and its push can
    // panic, so the ring's run of sequence numbers stays gap-free.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes one event, folded into [`TelemetryBus::registry`] before
    /// this returns. Never blocks beyond one short critical section: a
    /// full ring sheds its oldest event instead of waiting.
    pub fn publish(&self, event: TelemetryEvent) {
        {
            let mut ring = self.ring();
            self.registry.lock().fold(&event);
            if ring.events.len() >= self.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            let seq = ring.next_seq;
            ring.events.push_back((seq, event));
            ring.next_seq += 1;
        }
        // The ring lock is released before the bell: a parked reader
        // woken here re-locks the ring without lock-order inversion.
        if self.waiters.load(Ordering::Acquire) > 0 {
            let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
            self.bell.notify_all();
        }
    }

    /// The aggregates every published event has been folded into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Events published over the bus's lifetime — also the sequence
    /// number the next event will be stamped with.
    pub fn published(&self) -> u64 {
        self.ring().next_seq
    }

    /// Events shed from the ring by the drop-oldest overflow policy.
    pub fn dropped_events(&self) -> u64 {
        self.ring().dropped
    }

    /// Collects every retained event with `seq >= cursor`, in sequence
    /// order, and returns the cursor to resume from (one past the newest
    /// event — `cursor` itself when nothing was newer). A reader that
    /// fell behind retention sees a sequence gap, not an error.
    pub fn drain_since(&self, cursor: u64, out: &mut Vec<Stamped>) -> u64 {
        let ring = self.ring();
        let retained = ring.events.len() as u64;
        let skip = cursor
            .saturating_sub(ring.next_seq - retained)
            .min(retained);
        out.extend(ring.events.range(skip as usize..).cloned());
        ring.next_seq.max(cursor)
    }

    /// Parks the caller until an event at or past `cursor` is published or
    /// `timeout` elapses; returns whether something newer is available.
    /// Spurious-wakeup safe; publishers pay for the bell only while a
    /// reader is parked here.
    pub fn wait_for_events(&self, cursor: u64, timeout: Duration) -> bool {
        let has_newer = || self.published() > cursor;
        if has_newer() {
            return true;
        }
        self.waiters.fetch_add(1, Ordering::AcqRel);
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + timeout;
        let newer = loop {
            // Checked under the gate: a publish between the check and the
            // wait must take the gate to ring the bell, so it cannot slip
            // past unobserved.
            if has_newer() {
                break true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break false;
            };
            let (g, wait) = self
                .bell
                .wait_timeout(gate, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            gate = g;
            if wait.timed_out() {
                break has_newer();
            }
        };
        drop(gate);
        self.waiters.fetch_sub(1, Ordering::AcqRel);
        newer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_rules::json::Json;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    fn probe(n: u64) -> TelemetryEvent {
        TelemetryEvent::JournalSynced { micros: n }
    }

    #[test]
    fn drain_returns_events_in_sequence_order() {
        let bus = TelemetryBus::with_capacity(64);
        for n in 0..20 {
            bus.publish(probe(n));
        }
        let mut out = Vec::new();
        let cursor = bus.drain_since(0, &mut out);
        assert_eq!(cursor, 20);
        assert_eq!(out.len(), 20);
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        // Resuming from the returned cursor sees only what came after.
        bus.publish(probe(99));
        let mut next = Vec::new();
        let cursor = bus.drain_since(cursor, &mut next);
        assert_eq!(cursor, 21);
        assert_eq!(next, vec![(20, probe(99))]);
        // Nothing newer: the cursor holds still, even one from the future.
        assert_eq!(bus.drain_since(cursor, &mut Vec::new()), cursor);
        assert_eq!(bus.drain_since(500, &mut next), 500);
        assert_eq!(next.len(), 1);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        // A ring of 4: publishing 10 retains the newest 4.
        let bus = TelemetryBus::with_capacity(4);
        for n in 0..10 {
            bus.publish(probe(n));
        }
        assert_eq!(bus.dropped_events(), 6);
        assert_eq!(bus.published(), 10);
        let mut out = Vec::new();
        bus.drain_since(0, &mut out);
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "drop-oldest keeps the tail");
        // A cursor inside the retained run skips what it already saw.
        out.clear();
        assert_eq!(bus.drain_since(8, &mut out), 10);
        assert_eq!(out, vec![(8, probe(8)), (9, probe(9))]);
        // Shed events still reached the registry.
        assert_eq!(bus.registry().counter("journal_syncs_total"), 10);
    }

    #[test]
    fn wait_for_events_wakes_on_publish_and_times_out_idle() {
        let bus = Arc::new(TelemetryBus::new());
        // Idle bus: the wait times out empty-handed.
        assert!(!bus.wait_for_events(0, Duration::from_millis(10)));

        let publisher = bus.clone();
        let waiter = std::thread::spawn(move || {
            // Generous timeout: the publish below must cut it short.
            publisher.wait_for_events(0, Duration::from_secs(30))
        });
        // Give the waiter a moment to park, then publish.
        std::thread::sleep(Duration::from_millis(20));
        bus.publish(probe(1));
        assert!(waiter.join().unwrap(), "publish must wake the waiter");
        // A cursor already satisfied returns immediately.
        assert!(bus.wait_for_events(0, Duration::from_secs(30)));
    }

    #[test]
    fn concurrent_publishers_never_lose_sequence_numbers() {
        let bus = Arc::new(TelemetryBus::with_capacity(10_000));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let bus = bus.clone();
            handles.push(std::thread::spawn(move || {
                for n in 0..500 {
                    bus.publish(probe(n));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        let cursor = bus.drain_since(0, &mut out);
        assert_eq!(cursor, 2000);
        assert_eq!(out.len(), 2000);
        assert_eq!(bus.dropped_events(), 0);
        // Every sequence number exactly once.
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..2000).collect::<Vec<_>>());
    }

    /// Publishers released together on a barrier race a scraper that
    /// renders the registry throughout. With or without ring overflow,
    /// the registry must account for every published event, and an
    /// un-overflowed ring must hold exactly `0..N`.
    #[test]
    fn concurrent_publishers_fold_exactly_while_scraped() {
        const PUBLISHERS: u64 = 4;
        const BATCHES: u64 = 250;
        for capacity in [1 << 16, 64] {
            let bus = Arc::new(TelemetryBus::with_capacity(capacity));
            // The scraper waits on the barrier too, so it is running
            // before the first publish, and scrapes once before each
            // `done` check, so it scrapes at least once.
            let start = Arc::new(Barrier::new(PUBLISHERS as usize + 2));
            let done = Arc::new(AtomicBool::new(false));
            let scraper = {
                let (bus, start, done) = (bus.clone(), start.clone(), done.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut scrapes = 0u64;
                    loop {
                        let homes = bus.registry().counter("homes_created_total");
                        assert!(homes <= bus.published(), "a fold never runs ahead");
                        bus.registry().render_prometheus(&BTreeMap::new());
                        scrapes += 1;
                        if done.load(Ordering::Acquire) {
                            return scrapes;
                        }
                    }
                })
            };
            let publishers: Vec<_> = (0..PUBLISHERS)
                .map(|p| {
                    let (bus, start) = (bus.clone(), start.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        for n in 0..BATCHES {
                            // A creation and three probes per round.
                            bus.publish(TelemetryEvent::HomesCreated { homes: vec![p] });
                            bus.publish(probe(n));
                            bus.publish(probe(n + 1));
                            bus.publish(probe(n + 2));
                        }
                    })
                })
                .collect();
            start.wait();
            for publisher in publishers {
                publisher.join().unwrap();
            }
            done.store(true, Ordering::Release);
            assert!(scraper.join().unwrap() > 0, "the scraper ran");

            let total = PUBLISHERS * BATCHES * 4;
            let registry = bus.registry();
            assert_eq!(bus.published(), total);
            assert_eq!(
                registry.counter("homes_created_total") + registry.counter("journal_syncs_total"),
                bus.published(),
                "every published event is folded, dropped from the ring or not"
            );
            assert_eq!(
                registry.counter("journal_syncs_total"),
                PUBLISHERS * BATCHES * 3
            );
            let mut out = Vec::new();
            assert_eq!(bus.drain_since(0, &mut out), total);
            let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
            if bus.dropped_events() == 0 {
                assert_eq!(seqs, (0..total).collect::<Vec<_>>());
            } else {
                assert_eq!(bus.dropped_events() + out.len() as u64, total);
                assert_eq!(seqs, (total - out.len() as u64..total).collect::<Vec<_>>());
            }
        }
    }

    /// `installs_total` and the per-app interference rows count the same
    /// installs, so every rendered body must agree on them.
    fn installs_json(body: &Json) -> (i64, i64) {
        let total = body
            .get("counters")
            .and_then(|c| c.get("installs_total"))
            .and_then(Json::as_num)
            .unwrap_or(0);
        let rows = body
            .get("interference")
            .and_then(Json::as_arr)
            .expect("interference rows")
            .iter()
            .map(|row| row.get("installs").and_then(Json::as_num).unwrap())
            .sum();
        (total, rows)
    }

    fn installs_prometheus(text: &str) -> (i64, i64) {
        let (mut total, mut rows) = (0, 0);
        for line in text.lines() {
            let value = || line.rsplit(' ').next().unwrap().parse::<i64>().unwrap();
            if line.starts_with("hg_installs_total ") {
                total = value();
            } else if line.starts_with("hg_app_installs_total{") {
                rows += value();
            }
        }
        (total, rows)
    }

    /// Publishers fold installs while a scraper renders the registry as
    /// JSON and as Prometheus text: each body is one consistent cut, never
    /// a counter read before a publish next to rows read after it.
    #[test]
    fn scrapes_are_never_torn_by_concurrent_publishers() {
        const PUBLISHERS: u64 = 4;
        const INSTALLS: u64 = 10_000;
        let bus = Arc::new(TelemetryBus::new());
        // On the barrier and scraping before each `done` check, as in
        // `concurrent_publishers_fold_exactly_while_scraped`.
        let start = Arc::new(Barrier::new(PUBLISHERS as usize + 2));
        let done = Arc::new(AtomicBool::new(false));
        let scraper = {
            let (bus, start, done) = (bus.clone(), start.clone(), done.clone());
            std::thread::spawn(move || {
                start.wait();
                let gauges = BTreeMap::new();
                let (mut bodies, mut torn) = (0u64, Vec::new());
                loop {
                    let json = installs_json(&bus.registry().to_json(&gauges));
                    let prometheus =
                        installs_prometheus(&bus.registry().render_prometheus(&gauges));
                    for (format, (total, rows)) in [("json", json), ("prometheus", prometheus)] {
                        if total != rows {
                            torn.push(format!("{format}: installs_total {total}, rows {rows}"));
                        }
                    }
                    bodies += 2;
                    if done.load(Ordering::Acquire) {
                        return (bodies, torn);
                    }
                }
            })
        };
        let publishers: Vec<_> = (0..PUBLISHERS)
            .map(|p| {
                let (bus, start) = (bus.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for n in 0..INSTALLS {
                        let clean = u64::from(n % 3 != 0);
                        bus.publish(TelemetryEvent::InstallCompleted {
                            app: format!("App{}", (p + n) % 8),
                            upgrade: false,
                            homes: vec![n],
                            clean,
                            dirty: 1 - clean,
                            pairs: 1,
                            solves: 1,
                            cache_hits: 0,
                            cache_misses: 1,
                            threats: Vec::new(),
                            sweep: None,
                            micros: n,
                        });
                    }
                })
            })
            .collect();
        start.wait();
        for publisher in publishers {
            publisher.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let (bodies, torn) = scraper.join().unwrap();
        assert!(bodies > 0, "the scraper ran");
        assert!(
            torn.is_empty(),
            "{} of {bodies} bodies torn: {torn:?}",
            torn.len()
        );
        let last = bus.registry().to_json(&BTreeMap::new());
        let installs = (PUBLISHERS * INSTALLS) as i64;
        assert_eq!(installs_json(&last), (installs, installs));
    }
}
