//! The journal core: ordered durable appends, checkpoints that replace
//! their predecessors, torn-tail recovery and the I/O failure policy.
//!
//! ## Consistency model
//!
//! A [`Journal`] owns a **checkpoint gate** (`RwLock<()>`). Journaled
//! fleet mutations hold the gate *shared* across their
//! apply-then-append window; a checkpoint holds it *exclusively* while it
//! exports the fleet image. That makes a checkpoint a consistent cut: no
//! operation can be applied-but-not-yet-journaled while the export runs.
//! The gate is only ever taken in **leaf** operations (never nested), so
//! shared acquisitions cannot deadlock against a queued writer.
//!
//! ## Offsets
//!
//! Every record has a global offset: the count of records appended before
//! it. A segment is named by the offset of its first record, so segment
//! record counts need no side index — `next segment start − this start`.
//! A checkpoint covers the prefix `[0, offset)`; replay resumes at
//! `offset`. Writing one removes every older checkpoint and every segment
//! but the tail whose records all precede `offset`, so the journal holds
//! one image plus the records since (and the tail segment).
//!
//! ## Failure policy
//!
//! Backend failures are classified ([`BackendError`]): **transient**
//! errors get a bounded retry with deterministic backoff — after first
//! cutting the tail segment back to its last known-good length, so a
//! retried frame never lands after the garbage of a partial write. On
//! retry exhaustion or a permanent error the journal **quarantines**: it
//! records the last offset it can vouch for, refuses further appends,
//! and publishes `journal_degraded`. From then on [`Journal::admit`]
//! refuses every fleet write before it touches state, so nothing commits
//! that recovery would roll back. [`Journal::heal`] re-arms a
//! quarantined journal by repairing the tail and cutting a fresh
//! checkpoint onto the recovered backend, so replay never crosses the
//! quarantine gap.

use hg_persist::FleetSnapshot;
use hg_telemetry::{TelemetryBus, TelemetryEvent};
use homeguard_core::HgError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

use crate::backend::{BackendError, JournalBackend};
use crate::frame::{encode_frame, scan_frames};
use crate::record::{journal_context, journal_err, JournalRecord};

/// Health of a [`Journal`], as reported by [`Journal::state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalState {
    /// Appends are being accepted and made durable.
    Active,
    /// I/O retries were exhausted (or a permanent error hit); appends
    /// are refused until [`Journal::heal`].
    Quarantined {
        /// The last offset the journal can still vouch for.
        durable_offset: u64,
        /// What tripped the quarantine.
        reason: String,
    },
}

/// Tuning for a [`Journal`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes. Rotation happens between records — a record never spans
    /// segments.
    pub max_segment_bytes: u64,
    /// Total attempts per backend write (first try + retries) before a
    /// transient failure is treated as fatal. Must be ≥ 1.
    pub max_io_attempts: u32,
    /// Base retry backoff in microseconds; attempt *n* sleeps
    /// `backoff_micros << (n−1)` — deterministic, no jitter.
    pub backoff_micros: u64,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            max_segment_bytes: 4 * 1024 * 1024,
            max_io_attempts: 3,
            backoff_micros: 50,
        }
    }
}

#[derive(Default)]
struct JournalInner {
    /// Global offset of the next record to append.
    next_offset: u64,
    /// Start offset of the active (tail) segment. It joins `segments`
    /// when its first record lands.
    tail_start: u64,
    /// Start offset → byte length of every stored segment, kept in step
    /// with the backend by open, appends, checkpoints and reset.
    segments: BTreeMap<u64, u64>,
    /// Offsets of stored checkpoints, ascending: one, unless a crash or
    /// an I/O failure came between a checkpoint and its predecessors'
    /// removal.
    checkpoints: Vec<u64>,
    /// `Some((durable offset, reason))` once retries were exhausted.
    quarantined: Option<(u64, String)>,
    /// `next_offset` as of the last successful sync.
    synced_offset: u64,
    /// Session counters (not persisted).
    appends: u64,
    append_bytes: u64,
    append_failures: u64,
    truncated_on_open: u64,
    io_retries: u64,
    refused: u64,
    heals: u64,
}

impl JournalInner {
    /// Byte length of the active segment (0 until its first record).
    fn tail_bytes(&self) -> u64 {
        self.segments.get(&self.tail_start).copied().unwrap_or(0)
    }
}

/// Summary returned by [`Journal::checkpoint_write`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointStats {
    /// Journal offset the checkpoint covers.
    pub offset: u64,
    /// Homes exported into the document.
    pub homes: u64,
    /// Wall-clock write time in microseconds.
    pub micros: u64,
}

impl CheckpointStats {
    fn of(offset: u64, fleet: &FleetSnapshot, started: Instant) -> CheckpointStats {
        CheckpointStats {
            offset,
            homes: fleet.homes.len() as u64,
            micros: started.elapsed().as_micros() as u64,
        }
    }
}

fn berr(e: BackendError) -> HgError {
    journal_err(e.to_string())
}

/// An append-only write-ahead journal of fleet lifecycle events.
pub struct Journal {
    backend: Box<dyn JournalBackend>,
    gate: RwLock<()>,
    inner: Mutex<JournalInner>,
    /// Bumped by [`Journal::reset`] under the exclusive gate, so a reader
    /// holding either side of the gate sees a settled value.
    timeline: AtomicU64,
    telemetry: OnceLock<Arc<TelemetryBus>>,
    config: JournalConfig,
}

impl Journal {
    /// Opens a journal over a backend with default tuning. See
    /// [`open_with`](Journal::open_with).
    pub fn open(backend: Box<dyn JournalBackend>) -> Result<Journal, HgError> {
        Journal::open_with(backend, JournalConfig::default())
    }

    /// Opens a journal, scanning and verifying every stored segment.
    ///
    /// A torn tail (half-written frame from a crash) is **truncated away**,
    /// never a panic: the journal resumes at the last fully-checksummed
    /// record, and any segments beyond the tear are discarded. Stored
    /// checkpoints are trusted as they are, even one covering offsets
    /// beyond the surviving records: a checkpoint is self-contained, and
    /// appends then resume at the newest one's offset (offsets are never
    /// reused).
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the backend fails or two segments
    /// overlap.
    pub fn open_with(
        backend: Box<dyn JournalBackend>,
        config: JournalConfig,
    ) -> Result<Journal, HgError> {
        let mut inner = JournalInner::default();
        let starts = backend.segments().map_err(berr)?;
        let mut torn = false;
        for &start in &starts {
            if torn {
                // Data beyond a tear is unreachable for ordered replay.
                backend.remove_segment(start).map_err(berr)?;
                continue;
            }
            if start < inner.next_offset {
                return Err(journal_err(format!(
                    "segment at offset {start} overlaps its predecessor (which ends at {})",
                    inner.next_offset
                )));
            }
            // `start > next_offset` is a forward gap: the records between
            // were dropped under a checkpoint.
            let bytes = backend.read_segment(start).map_err(berr)?;
            let scan = scan_frames(&bytes);
            if !scan.is_clean() {
                inner.truncated_on_open += (bytes.len() - scan.clean_len) as u64;
                backend
                    .truncate_segment(start, scan.clean_len as u64)
                    .map_err(berr)?;
                torn = true;
            }
            inner.tail_start = start;
            inner.segments.insert(start, scan.clean_len as u64);
            inner.next_offset = start + scan.payloads.len() as u64;
        }
        inner.checkpoints = backend.checkpoints().map_err(berr)?;
        inner.checkpoints.sort_unstable();
        if let Some(&last) = inner.checkpoints.last() {
            if last > inner.next_offset {
                inner.next_offset = last;
                inner.tail_start = last;
            }
        }
        inner.synced_offset = inner.next_offset;
        Ok(Journal {
            backend,
            gate: RwLock::new(()),
            inner: Mutex::new(inner),
            timeline: AtomicU64::new(0),
            telemetry: OnceLock::new(),
            config,
        })
    }

    fn lock(&self) -> MutexGuard<'_, JournalInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wires a telemetry bus (set-once). Returns `false` when a bus was
    /// already attached.
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) -> bool {
        self.telemetry.set(bus).is_ok()
    }

    fn publish(&self, event: TelemetryEvent) {
        if let Some(bus) = self.telemetry.get() {
            bus.publish(event);
        }
    }

    /// Takes the checkpoint gate **shared** — held by a journaled
    /// mutation across its apply-then-append window. Leaf operations
    /// only: never acquire while already holding it.
    pub fn gate(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the checkpoint gate **exclusively** — held by a checkpoint
    /// while it exports the fleet image.
    pub fn gate_exclusive(&self) -> RwLockWriteGuard<'_, ()> {
        self.gate.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current health of the journal.
    pub fn state(&self) -> JournalState {
        match &self.lock().quarantined {
            None => JournalState::Active,
            Some((durable_offset, reason)) => JournalState::Quarantined {
                durable_offset: *durable_offset,
                reason: reason.clone(),
            },
        }
    }

    /// Whether the journal has quarantined itself after an I/O failure.
    pub fn is_quarantined(&self) -> bool {
        self.lock().quarantined.is_some()
    }

    /// Admission check for one journaled mutation, called by the fleet
    /// under the shared gate **before** applying state. A healthy journal
    /// admits everything; a quarantined one refuses everything.
    ///
    /// # Errors
    ///
    /// `HgError::Degraded` when quarantined — the mutation must not be
    /// applied.
    pub fn admit(&self) -> Result<(), HgError> {
        let mut inner = self.lock();
        let Some((durable, reason)) = &inner.quarantined else {
            return Ok(());
        };
        let e = HgError::Degraded(format!(
            "journal quarantined at durable offset {durable} ({reason}); writes refused"
        ));
        inner.refused += 1;
        Err(e)
    }

    /// The journal's timeline: bumped by every [`reset`](Journal::reset).
    /// A fleet records it on attach, and its writes are refused once the
    /// journal has moved on to describe a different fleet.
    pub fn timeline(&self) -> u64 {
        self.timeline.load(Ordering::Relaxed)
    }

    /// Deterministic backoff before retry attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32) {
        let micros = self.config.backoff_micros << (attempt - 1).min(16);
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
    }

    /// Cuts the tail segment back to its last known-good length, so a
    /// retried append never lands after the garbage of a partial write.
    /// A tail segment that was never created (its first append failed
    /// outright) needs no repair.
    fn repair_tail(&self, tail_start: u64, tail_bytes: u64) -> Result<(), BackendError> {
        let starts = self.backend.segments()?;
        if !starts.contains(&tail_start) {
            return Ok(());
        }
        self.backend.truncate_segment(tail_start, tail_bytes)
    }

    /// Appends one record durably, returning its global offset.
    ///
    /// Transient backend failures are retried up to
    /// `max_io_attempts` times (tail repaired between attempts, backoff
    /// deterministic). On exhaustion or a permanent failure the journal
    /// **quarantines** at the record's offset and every later append
    /// fails fast until [`heal`](Journal::heal).
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the write could not be made durable.
    /// The caller's in-memory mutation has already been applied at that
    /// point; the error reports that durability lapsed, not that state
    /// is bad.
    pub fn append(&self, record: &JournalRecord) -> Result<u64, HgError> {
        let frame = encode_frame(&record.to_payload());
        let len = frame.len() as u64;
        let mut inner = self.lock();
        if let Some((durable, reason)) = &inner.quarantined {
            let msg = format!("journal quarantined at durable offset {durable}: {reason}");
            inner.refused += 1;
            return Err(journal_err(msg));
        }
        let mut good_len = inner.tail_bytes();
        if good_len > 0 && good_len + len > self.config.max_segment_bytes {
            inner.tail_start = inner.next_offset;
            good_len = 0;
        }
        let start = inner.tail_start;
        let offset = inner.next_offset;
        let mut retries = 0u32;
        let failure = loop {
            match self.backend.append_segment(start, &frame) {
                Ok(()) => break None,
                Err(e) => {
                    inner.append_failures += 1;
                    // A failed append may have left a partial frame on
                    // the tail; repair before retrying or giving up.
                    match self.repair_tail(start, good_len) {
                        Ok(()) if e.transient && retries + 1 < self.config.max_io_attempts => {
                            retries += 1;
                            inner.io_retries += 1;
                            self.backoff(retries);
                        }
                        Ok(()) => break Some(format!("append at offset {offset}: {e}")),
                        Err(r) => {
                            break Some(format!(
                                "append at offset {offset}: {e}; tail repair also failed: {r}"
                            ))
                        }
                    }
                }
            }
        };
        match failure {
            None => {
                *inner.segments.entry(start).or_insert(0) += len;
                inner.next_offset += 1;
                inner.appends += 1;
                inner.append_bytes += len;
                drop(inner);
                if retries > 0 {
                    self.publish(TelemetryEvent::IoRetry {
                        op: "append".into(),
                        attempts: retries as u64,
                    });
                }
                self.publish(TelemetryEvent::JournalAppended {
                    records: 1,
                    bytes: len,
                });
                Ok(offset)
            }
            Some(reason) => {
                inner.quarantined = Some((offset, reason.clone()));
                drop(inner);
                if retries > 0 {
                    self.publish(TelemetryEvent::IoRetry {
                        op: "append".into(),
                        attempts: retries as u64,
                    });
                }
                self.publish(TelemetryEvent::JournalDegraded {
                    offset,
                    reason: reason.clone(),
                });
                Err(journal_err(format!(
                    "{reason}; journal quarantined at durable offset {offset}"
                )))
            }
        }
    }

    /// Flushes backend buffers to stable storage, with the same
    /// retry-then-quarantine policy as [`append`](Journal::append). A
    /// quarantine tripped here records the offset of the last
    /// *successful* sync — records appended since were acknowledged by
    /// the backend but may not have reached stable storage.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the backend sync fails.
    pub fn sync(&self) -> Result<(), HgError> {
        let started = Instant::now();
        let covered = {
            let inner = self.lock();
            if let Some((durable, reason)) = &inner.quarantined {
                return Err(journal_err(format!(
                    "journal quarantined at durable offset {durable}: {reason}"
                )));
            }
            inner.next_offset
        };
        let outcome = self.retrying("sync", || self.backend.sync());
        let mut inner = self.lock();
        match outcome {
            Ok(()) => {
                inner.synced_offset = inner.synced_offset.max(covered);
                drop(inner);
                self.publish(TelemetryEvent::JournalSynced {
                    micros: started.elapsed().as_micros() as u64,
                });
                Ok(())
            }
            Err(e) => {
                let durable = inner.synced_offset;
                let reason = format!("sync: {e}");
                if inner.quarantined.is_none() {
                    inner.quarantined = Some((durable, reason.clone()));
                }
                drop(inner);
                self.publish(TelemetryEvent::JournalDegraded {
                    offset: durable,
                    reason: reason.clone(),
                });
                Err(journal_err(format!(
                    "{reason}; journal quarantined at durable offset {durable}"
                )))
            }
        }
    }

    /// Re-arms a quarantined journal onto a recovered backend.
    ///
    /// The caller must hold [`gate_exclusive`](Journal::gate_exclusive)
    /// and pass a snapshot of the *current* fleet state at exactly
    /// [`next_offset`](Journal::next_offset) (the fleet-side wrapper is
    /// `Fleet::heal_journal`). Heal first repairs the tail segment —
    /// proving the backend works again and cutting any bytes a failed
    /// append left behind — then stores the snapshot as the checkpoint
    /// (replacing its predecessors, as
    /// [`checkpoint_write`](Journal::checkpoint_write) does) and syncs.
    /// Only then is the quarantine cleared; replay never crosses the gap
    /// because the fresh checkpoint covers everything before it,
    /// journaled or not. Any failure leaves the journal quarantined.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when not quarantined, when `offset` is not
    /// `next_offset`, or when the backend is still failing.
    pub fn heal(&self, offset: u64, fleet: FleetSnapshot) -> Result<CheckpointStats, HgError> {
        let started = Instant::now();
        let (tail_start, tail_bytes) = {
            let inner = self.lock();
            if inner.quarantined.is_none() {
                return Err(journal_err("journal is not quarantined"));
            }
            if offset != inner.next_offset {
                return Err(journal_err(format!(
                    "heal checkpoint covers offset {offset} but the journal is at {}",
                    inner.next_offset
                )));
            }
            (inner.tail_start, inner.tail_bytes())
        };
        self.repair_tail(tail_start, tail_bytes).map_err(|e| {
            journal_err(format!("heal: tail repair failed, still quarantined: {e}"))
        })?;
        self.store_checkpoint(offset, &fleet).map_err(|e| {
            journal_err(format!(
                "heal: checkpoint write failed, still quarantined: {e}"
            ))
        })?;
        self.backend
            .sync()
            .map_err(|e| journal_err(format!("heal: sync failed, still quarantined: {e}")))?;
        let mut inner = self.lock();
        inner.quarantined = None;
        inner.synced_offset = inner.next_offset;
        inner.heals += 1;
        drop(inner);
        let stats = CheckpointStats::of(offset, &fleet, started);
        self.publish(TelemetryEvent::JournalHealed {
            offset: stats.offset,
        });
        Ok(stats)
    }

    /// Runs one backend write under the transient-retry policy (no
    /// quarantine: the callers decide what a failure means), counting and
    /// publishing the retries as `op`.
    fn retrying(
        &self,
        op: &str,
        mut write: impl FnMut() -> Result<(), BackendError>,
    ) -> Result<(), BackendError> {
        let mut retries = 0u32;
        let outcome = loop {
            match write() {
                Err(e) if e.transient && retries + 1 < self.config.max_io_attempts => {
                    retries += 1;
                    self.backoff(retries);
                }
                outcome => break outcome,
            }
        };
        if retries > 0 {
            self.lock().io_retries += retries as u64;
            self.publish(TelemetryEvent::IoRetry {
                op: op.into(),
                attempts: retries as u64,
            });
        }
        outcome
    }

    /// Stores `fleet` as the journal's one checkpoint: writes its snapshot
    /// document under `offset`, then removes every older document and
    /// every segment but the tail whose records all precede `offset`. A
    /// failure loses no history: a written document is the newest, and
    /// whatever is left to remove is history recovery no longer reads,
    /// which the next checkpoint removes.
    fn store_checkpoint(&self, offset: u64, fleet: &FleetSnapshot) -> Result<(), BackendError> {
        let text = fleet.to_text();
        self.retrying("checkpoint", || {
            self.backend.write_checkpoint(offset, &text)
        })?;
        drop(text);
        let (stale, covered) = {
            let mut inner = self.lock();
            if !inner.checkpoints.contains(&offset) {
                inner.checkpoints.push(offset);
                inner.checkpoints.sort_unstable();
            }
            let stale: Vec<u64> = inner
                .checkpoints
                .iter()
                .copied()
                .filter(|&at| at != offset)
                .collect();
            // A segment ends where the next one starts; the last one ends
            // at the next offset to append.
            let ends = inner.segments.keys().skip(1).chain([&inner.next_offset]);
            let covered: Vec<u64> = inner
                .segments
                .keys()
                .zip(ends)
                .filter(|&(&start, &end)| end <= offset && start != inner.tail_start)
                .map(|(&start, _)| start)
                .collect();
            (stale, covered)
        };
        for at in stale {
            self.retrying("checkpoint", || self.backend.remove_checkpoint(at))?;
            self.lock().checkpoints.retain(|&kept| kept != at);
        }
        for start in covered {
            self.retrying("checkpoint", || self.backend.remove_segment(start))?;
            self.lock().segments.remove(&start);
        }
        Ok(())
    }

    /// Global offset of the next record to append (= records ever
    /// appended, minus nothing: offsets are never reused).
    pub fn next_offset(&self) -> u64 {
        self.lock().next_offset
    }

    /// Offset of the newest stored checkpoint.
    pub fn last_checkpoint_offset(&self) -> Option<u64> {
        self.lock().checkpoints.last().copied()
    }

    /// Reads and decodes the newest stored checkpoint: the offset its
    /// replay resumes at, taken from the backend key, and the fleet image
    /// recovery revives.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when no checkpoint is stored, on backend
    /// failure, or when the document is not a snapshot this build reads
    /// (one of another kind or version is refused by name).
    pub fn latest_checkpoint(&self) -> Result<(u64, FleetSnapshot), HgError> {
        let offset = self
            .last_checkpoint_offset()
            .ok_or_else(|| journal_err("no checkpoint stored"))?;
        let text = self.backend.read_checkpoint(offset).map_err(berr)?;
        let fleet = FleetSnapshot::from_text(&text)
            .map_err(|e| journal_context(format_args!("checkpoint at offset {offset}"), e))?;
        Ok((offset, fleet))
    }

    /// Decodes all records at offsets `>= from`, in order.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] on backend failure or a record that no longer
    /// decodes.
    pub fn records_from(&self, from: u64) -> Result<Vec<(u64, JournalRecord)>, HgError> {
        let starts = self.backend.segments().map_err(berr)?;
        let mut out = Vec::new();
        for start in starts {
            let bytes = self.backend.read_segment(start).map_err(berr)?;
            let scan = scan_frames(&bytes);
            for (i, payload) in scan.payloads.iter().enumerate() {
                let offset = start + i as u64;
                if offset < from {
                    continue;
                }
                let record = JournalRecord::from_payload(payload)
                    .map_err(|e| journal_context(format_args!("record at offset {offset}"), e))?;
                out.push((offset, record));
            }
        }
        Ok(out)
    }

    /// Writes a checkpoint that replaces every older one: `fleet`'s
    /// snapshot document is stored under `offset` first, then the older
    /// documents and every segment but the tail whose records all precede
    /// `offset` are removed.
    ///
    /// The caller (the fleet's checkpoint path) is responsible for
    /// holding [`gate_exclusive`](Journal::gate_exclusive) while it
    /// exported the fleet, and for `offset == next_offset()` under that
    /// gate.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the journal is quarantined (heal
    /// instead) or when a backend write or removal fails after retries.
    pub fn checkpoint_write(
        &self,
        offset: u64,
        fleet: &FleetSnapshot,
    ) -> Result<CheckpointStats, HgError> {
        let started = Instant::now();
        if let Some((durable, reason)) = &self.lock().quarantined {
            return Err(journal_err(format!(
                "journal quarantined at durable offset {durable} ({reason}); heal before checkpointing"
            )));
        }
        self.store_checkpoint(offset, fleet).map_err(berr)?;
        let stats = CheckpointStats::of(offset, fleet, started);
        self.publish(TelemetryEvent::JournalCheckpoint {
            offset: stats.offset,
            homes: stats.homes,
            micros: stats.micros,
        });
        Ok(stats)
    }

    /// Wipes all stored segments and checkpoints and starts a new
    /// [`timeline`](Journal::timeline). Used when an externally-restored
    /// fleet replaces the one this journal described (e.g.
    /// `POST /restore`): the old history describes a fleet that no longer
    /// exists, and that fleet's late writes are refused from here on. A
    /// quarantine is cleared with the timeline, provided the backend
    /// accepts the wipe.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] on backend failure.
    pub fn reset(&self) -> Result<(), HgError> {
        let _exclusive = self.gate_exclusive();
        let mut inner = self.lock();
        for start in self.backend.segments().map_err(berr)? {
            self.backend.remove_segment(start).map_err(berr)?;
        }
        for offset in self.backend.checkpoints().map_err(berr)? {
            self.backend.remove_checkpoint(offset).map_err(berr)?;
        }
        *inner = JournalInner::default();
        self.timeline.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Publishes a replay-completed event (called by the recovery path).
    pub fn note_replayed(&self, records: u64, micros: u64) {
        self.publish(TelemetryEvent::JournalReplayed { records, micros });
    }

    /// Live stats as a JSON document (the `/journal/stats` surface),
    /// read from memory without touching the backend.
    pub fn stats_json(&self) -> hg_rules::json::Json {
        use hg_rules::json::Json;
        let inner = self.lock();
        let (state, quarantined_at, quarantine_reason) = match &inner.quarantined {
            None => ("active", Json::Null, Json::Null),
            Some((durable, reason)) => (
                "quarantined",
                Json::Num(*durable as i64),
                Json::Str(reason.clone()),
            ),
        };
        Json::obj([
            ("records", Json::Num(inner.next_offset as i64)),
            ("segments", Json::Num(inner.segments.len() as i64)),
            (
                "segmentBytes",
                Json::Num(inner.segments.values().sum::<u64>() as i64),
            ),
            ("checkpoints", Json::Num(inner.checkpoints.len() as i64)),
            (
                "lastCheckpoint",
                inner
                    .checkpoints
                    .last()
                    .map(|&o| Json::Num(o as i64))
                    .unwrap_or(Json::Null),
            ),
            ("state", Json::Str(state.into())),
            ("quarantinedAt", quarantined_at),
            ("quarantineReason", quarantine_reason),
            ("syncedOffset", Json::Num(inner.synced_offset as i64)),
            ("appendsSession", Json::Num(inner.appends as i64)),
            ("appendBytesSession", Json::Num(inner.append_bytes as i64)),
            (
                "appendFailuresSession",
                Json::Num(inner.append_failures as i64),
            ),
            ("ioRetriesSession", Json::Num(inner.io_retries as i64)),
            ("refusedSession", Json::Num(inner.refused as i64)),
            ("healsSession", Json::Num(inner.heals as i64)),
            ("truncatedOnOpen", Json::Num(inner.truncated_on_open as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::fault::{FaultBackend, FaultKind, FaultPlan};

    fn rec(id: u64) -> JournalRecord {
        JournalRecord::UninstallCommitted {
            homes: vec![id],
            app: format!("App{id}"),
        }
    }

    fn fast_config() -> JournalConfig {
        JournalConfig {
            backoff_micros: 0,
            ..JournalConfig::default()
        }
    }

    fn empty_fleet() -> FleetSnapshot {
        FleetSnapshot {
            shards: 1,
            next_id: 0,
            store: homeguard_core::RuleStore::new().export_state(),
            homes: Vec::new(),
        }
    }

    #[test]
    fn appends_rotate_segments_and_reopen_resumes() {
        let mem = MemBackend::new();
        let journal = Journal::open_with(
            Box::new(mem.clone()),
            JournalConfig {
                max_segment_bytes: 96,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        for n in 0..8 {
            assert_eq!(journal.append(&rec(n)).unwrap(), n);
        }
        assert!(
            mem.segments().unwrap().len() > 1,
            "tiny segment cap must force rotation"
        );
        drop(journal);
        let reopened = Journal::open(Box::new(mem.clone())).unwrap();
        assert_eq!(reopened.next_offset(), 8);
        let records = reopened.records_from(0).unwrap();
        assert_eq!(records.len(), 8);
        assert_eq!(records[5].0, 5);
        assert_eq!(records[5].1, rec(5));
    }

    #[test]
    fn torn_tail_truncates_on_open_and_later_data_is_dropped() {
        let mem = MemBackend::new();
        let journal = Journal::open(Box::new(mem.clone())).unwrap();
        for n in 0..5 {
            journal.append(&rec(n)).unwrap();
        }
        drop(journal);
        // Simulate a crash mid-write of record 3 (records 3-4 lost).
        let crashed = mem.fork();
        crashed.truncate_to_records(3, &[0x48, 0x47, 0x4A]);
        let reopened = Journal::open(Box::new(crashed.clone())).unwrap();
        assert_eq!(reopened.next_offset(), 3);
        assert_eq!(reopened.records_from(0).unwrap().len(), 3);
        // The repair is durable: a second open sees a clean journal.
        drop(reopened);
        let again = Journal::open(Box::new(crashed)).unwrap();
        assert_eq!(again.next_offset(), 3);
        assert_eq!(again.records_from(0).unwrap().len(), 3);
        // And appends continue at the truncated offset.
        assert_eq!(again.append(&rec(99)).unwrap(), 3);
    }

    #[test]
    fn checkpoint_write_replaces_older_checkpoints_and_covered_segments() {
        let mem = MemBackend::new();
        // Two ~70-byte records per segment.
        let journal = Journal::open_with(
            Box::new(mem.clone()),
            JournalConfig {
                max_segment_bytes: 150,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        journal.checkpoint_write(0, &empty_fleet()).unwrap();
        for n in 0..6 {
            journal.append(&rec(n)).unwrap();
        }
        let before = mem.segments().unwrap();
        assert_eq!(before, vec![0, 2, 4], "small segments must rotate");
        // A checkpoint inside the second segment keeps that segment and
        // every later one; only the first lies wholly below it.
        journal
            .checkpoint_write(before[1] + 1, &empty_fleet())
            .unwrap();
        assert_eq!(mem.checkpoints().unwrap(), vec![before[1] + 1]);
        assert_eq!(mem.segments().unwrap(), before[1..].to_vec());
        // A checkpoint at the head leaves only itself and the tail.
        journal.checkpoint_write(6, &empty_fleet()).unwrap();
        assert_eq!(mem.checkpoints().unwrap(), vec![6]);
        assert_eq!(mem.segments().unwrap(), vec![*before.last().unwrap()]);
        // The journal still opens, recovers from the one document and
        // appends where it stopped.
        drop(journal);
        let reopened = Journal::open(Box::new(mem)).unwrap();
        assert_eq!(reopened.latest_checkpoint().unwrap().0, 6);
        assert!(reopened.records_from(6).unwrap().is_empty());
        assert_eq!(reopened.append(&rec(6)).unwrap(), 6);
    }

    #[test]
    fn checkpoint_write_retries_a_transient_fault() {
        let mem = MemBackend::new();
        let fault = FaultBackend::new(mem.clone());
        let journal = Journal::open_with(
            Box::new(fault.clone()),
            JournalConfig {
                max_segment_bytes: 64,
                ..fast_config()
            },
        )
        .unwrap();
        journal.checkpoint_write(0, &empty_fleet()).unwrap();
        for n in 0..3 {
            journal.append(&rec(n)).unwrap();
        }
        // One transient fault on each of the next three writes: the
        // document, the predecessor's removal and a segment's removal each
        // absorb theirs by retrying.
        let at = fault.ops();
        fault.arm(
            FaultPlan::new()
                .at(at, FaultKind::Transient)
                .at(at + 2, FaultKind::Transient)
                .at(at + 4, FaultKind::Transient),
        );
        journal.checkpoint_write(3, &empty_fleet()).unwrap();
        assert_eq!(fault.injected(), 3);
        assert!(!journal.is_quarantined());
        assert_eq!(mem.checkpoints().unwrap(), vec![3]);
        assert_eq!(mem.segments().unwrap().len(), 1, "only the tail is left");
        drop(journal);
        let reopened = Journal::open(Box::new(mem)).unwrap();
        assert_eq!(reopened.latest_checkpoint().unwrap().0, 3);
    }

    /// A backend that counts `read_segment` calls.
    struct CountingReads(MemBackend, Arc<AtomicU64>);

    impl JournalBackend for CountingReads {
        fn segments(&self) -> Result<Vec<u64>, BackendError> {
            self.0.segments()
        }
        fn read_segment(&self, start: u64) -> Result<Vec<u8>, BackendError> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.read_segment(start)
        }
        fn append_segment(&self, start: u64, bytes: &[u8]) -> Result<(), BackendError> {
            self.0.append_segment(start, bytes)
        }
        fn truncate_segment(&self, start: u64, len: u64) -> Result<(), BackendError> {
            self.0.truncate_segment(start, len)
        }
        fn remove_segment(&self, start: u64) -> Result<(), BackendError> {
            self.0.remove_segment(start)
        }
        fn checkpoints(&self) -> Result<Vec<u64>, BackendError> {
            self.0.checkpoints()
        }
        fn read_checkpoint(&self, offset: u64) -> Result<String, BackendError> {
            self.0.read_checkpoint(offset)
        }
        fn write_checkpoint(&self, offset: u64, text: &str) -> Result<(), BackendError> {
            self.0.write_checkpoint(offset, text)
        }
        fn remove_checkpoint(&self, offset: u64) -> Result<(), BackendError> {
            self.0.remove_checkpoint(offset)
        }
    }

    #[test]
    fn stats_come_from_memory_without_reading_segments() {
        let mem = MemBackend::new();
        for n in 0..4 {
            mem.append_segment(0, &encode_frame(&rec(n).to_payload()))
                .unwrap();
        }
        let reads = Arc::new(AtomicU64::new(0));
        let config = JournalConfig {
            max_segment_bytes: 96,
            ..JournalConfig::default()
        };
        let journal =
            Journal::open_with(Box::new(CountingReads(mem.clone(), reads.clone())), config)
                .unwrap();
        for n in 4..9 {
            journal.append(&rec(n)).unwrap();
        }
        journal.checkpoint_write(6, &empty_fleet()).unwrap();
        let opened = reads.load(Ordering::SeqCst);
        let stats = journal.stats_json();
        assert_eq!(reads.load(Ordering::SeqCst), opened, "stats read a segment");
        // The figures still match the backend's bytes.
        let starts = mem.segments().unwrap();
        let bytes: usize = starts
            .iter()
            .map(|&s| mem.read_segment(s).unwrap().len())
            .sum();
        let num = |key: &str| stats.get(key).and_then(hg_rules::json::Json::as_num);
        assert_eq!(num("segments"), Some(starts.len() as i64));
        assert_eq!(num("segmentBytes"), Some(bytes as i64));
        assert_eq!(num("checkpoints"), Some(1));
        assert_eq!(num("records"), Some(9));
        // Reset empties them, as it empties the backend.
        journal.reset().unwrap();
        let stats = journal.stats_json();
        assert_eq!(
            stats
                .get("segmentBytes")
                .and_then(hg_rules::json::Json::as_num),
            Some(0)
        );
        assert_eq!(reads.load(Ordering::SeqCst), opened);
    }

    #[test]
    fn transient_faults_are_retried_and_the_record_survives() {
        let mem = MemBackend::new();
        let plan = FaultPlan::new()
            .at(1, FaultKind::Transient)
            .at(4, FaultKind::ShortWrite);
        let fault = FaultBackend::with_plan(mem.clone(), plan);
        let journal = Journal::open_with(Box::new(fault.clone()), fast_config()).unwrap();
        for n in 0..4 {
            assert_eq!(journal.append(&rec(n)).unwrap(), n);
        }
        assert!(!journal.is_quarantined());
        assert_eq!(journal.records_from(0).unwrap().len(), 4);
        // The short write left no garbage behind: the backend bytes are
        // clean frames.
        for start in mem.segments().unwrap() {
            assert!(scan_frames(&mem.read_segment(start).unwrap()).is_clean());
        }
        let stats = journal.stats_json().to_text();
        assert!(stats.contains("\"state\":\"active\""));
    }

    #[test]
    fn permanent_fault_quarantines_at_the_durable_offset() {
        let mem = MemBackend::new();
        let plan = FaultPlan::new().at(2, FaultKind::Permanent);
        let fault = FaultBackend::with_plan(mem.clone(), plan);
        let journal = Journal::open_with(Box::new(fault), fast_config()).unwrap();
        journal.append(&rec(0)).unwrap();
        journal.append(&rec(1)).unwrap();
        let e = journal.append(&rec(2)).unwrap_err();
        assert!(e.to_string().contains("quarantined"));
        assert!(journal.is_quarantined());
        match journal.state() {
            JournalState::Quarantined { durable_offset, .. } => assert_eq!(durable_offset, 2),
            s => panic!("expected quarantine, got {s:?}"),
        }
        // Appends now fail fast without touching the backend.
        let e = journal.append(&rec(3)).unwrap_err();
        assert!(e.to_string().contains("quarantined"));
        assert_eq!(journal.next_offset(), 2);
        // The two durable records survive untouched.
        assert_eq!(journal.records_from(0).unwrap().len(), 2);
    }

    #[test]
    fn exhausted_transients_quarantine_too() {
        // Three consecutive transient faults exhaust max_io_attempts=3.
        // The tail segment doesn't exist yet (its first append never
        // landed), so the repair between attempts consumes no op index:
        // the three append attempts are ops 0, 1, 2.
        let plan = FaultPlan::new()
            .at(0, FaultKind::Transient)
            .at(1, FaultKind::Transient)
            .at(2, FaultKind::Transient);
        let fault = FaultBackend::with_plan(MemBackend::new(), plan);
        let journal = Journal::open_with(Box::new(fault), fast_config()).unwrap();
        let e = journal.append(&rec(0)).unwrap_err();
        assert!(e.to_string().contains("quarantined"));
        assert!(journal.is_quarantined());
    }

    #[test]
    fn admit_refuses_a_quarantined_journal_until_reset() {
        let plan = FaultPlan::new().at(0, FaultKind::Permanent);
        let fault = FaultBackend::with_plan(MemBackend::new(), plan);
        let journal = Journal::open_with(Box::new(fault.clone()), fast_config()).unwrap();
        journal.admit().unwrap();
        journal.append(&rec(0)).unwrap_err();
        match journal.admit() {
            Err(HgError::Degraded(msg)) => assert!(msg.contains("quarantined"), "{msg}"),
            other => panic!("a quarantined journal must refuse writes, got {other:?}"),
        }
        assert!(journal
            .stats_json()
            .to_text()
            .contains("\"refusedSession\":1"));
        // A reset clears the quarantine and starts a new timeline.
        fault.disarm();
        let before = journal.timeline();
        journal.reset().unwrap();
        journal.admit().unwrap();
        assert_eq!(journal.timeline(), before + 1);
    }

    #[test]
    fn heal_replaces_the_checkpoint_and_reopens_cleanly() {
        let mem = MemBackend::new();
        // A short write that then exhausts retries: ops 1 (short write),
        // 2 (repair truncate transient), leaves garbage + quarantine.
        let plan = FaultPlan::new()
            .at(1, FaultKind::ShortWrite)
            .at(2, FaultKind::Permanent);
        // The heal checkpoint replaces the one the journal opened with.
        mem.write_checkpoint(0, &empty_fleet().to_text()).unwrap();
        let fault = FaultBackend::with_plan(mem.clone(), plan);
        let journal = Journal::open_with(Box::new(fault.clone()), fast_config()).unwrap();
        journal.append(&rec(0)).unwrap();
        journal.append(&rec(1)).unwrap_err();
        assert!(journal.is_quarantined());
        // The disk recovers.
        fault.disarm();
        journal.heal(journal.next_offset(), empty_fleet()).unwrap();
        assert!(!journal.is_quarantined());
        assert_eq!(mem.checkpoints().unwrap(), vec![1], "heal replaces");
        // The healed journal appends again and a reopen sees a clean
        // timeline: checkpoint at 1 plus the post-heal records.
        journal.append(&rec(7)).unwrap();
        drop(journal);
        let reopened = Journal::open(Box::new(mem)).unwrap();
        assert_eq!(reopened.next_offset(), 2);
        assert_eq!(reopened.last_checkpoint_offset(), Some(1));
        let tail = reopened.records_from(1).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].1, rec(7));
    }

    #[test]
    fn heal_requires_quarantine_and_the_next_offset() {
        let journal = Journal::open(Box::new(MemBackend::new())).unwrap();
        assert!(journal
            .heal(0, empty_fleet())
            .unwrap_err()
            .to_string()
            .contains("not quarantined"));

        let plan = FaultPlan::new().at(2, FaultKind::Permanent);
        let fault = FaultBackend::with_plan(MemBackend::new(), plan);
        let journal = Journal::open_with(Box::new(fault.clone()), fast_config()).unwrap();
        journal.append(&rec(0)).unwrap();
        journal.append(&rec(1)).unwrap();
        journal.append(&rec(2)).unwrap_err();
        assert!(journal.is_quarantined());
        assert_eq!(journal.next_offset(), 2);
        fault.disarm();
        // A stale offset is refused even on a working backend, naming
        // both offsets, and the quarantine stands.
        match journal.heal(1, empty_fleet()) {
            Err(HgError::Journal(detail)) => {
                assert!(
                    detail.contains("offset 1") && detail.contains("at 2"),
                    "{detail}"
                )
            }
            other => panic!("a stale heal must be refused, got {other:?}"),
        }
        assert!(journal.is_quarantined());
        journal.heal(2, empty_fleet()).unwrap();
        assert!(!journal.is_quarantined());
        assert_eq!(journal.last_checkpoint_offset(), Some(2));
    }

    #[test]
    fn quarantined_journal_refuses_sync_and_checkpoint() {
        let plan = FaultPlan::new().at(0, FaultKind::DiskFull);
        let fault = FaultBackend::with_plan(MemBackend::new(), plan);
        let journal = Journal::open_with(Box::new(fault), fast_config()).unwrap();
        journal.append(&rec(0)).unwrap_err();
        assert!(journal.is_quarantined());
        assert!(journal
            .sync()
            .unwrap_err()
            .to_string()
            .contains("quarantined"));
        // A checkpoint write refuses too: heal instead.
        assert!(journal
            .checkpoint_write(0, &empty_fleet())
            .unwrap_err()
            .to_string()
            .contains("heal"));
    }
}
