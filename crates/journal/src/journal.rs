//! The journal core: ordered durable appends, delta-checkpoint
//! bookkeeping, compaction, torn-tail recovery and the I/O failure
//! policy.
//!
//! ## Consistency model
//!
//! A [`Journal`] owns a **checkpoint gate** (`RwLock<()>`). Journaled
//! fleet mutations hold the gate *shared* across their
//! apply-then-append window; a checkpoint holds it *exclusively* while it
//! exports the dirty set. That makes a checkpoint a consistent cut: no
//! operation can be applied-but-not-yet-journaled while the export runs.
//! The gate is only ever taken in **leaf** operations (never nested), so
//! shared acquisitions cannot deadlock against a queued writer.
//!
//! ## Offsets
//!
//! Every record has a global offset: the count of records appended before
//! it. A segment is named by the offset of its first record, so segment
//! record counts need no side index — `next segment start − this start`.
//! Checkpoints cover a prefix `[0, offset)`; replay resumes at `offset`.
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
//! **full** checkpoint onto the recovered backend, so replay never
//! crosses the quarantine gap.

use hg_persist::FleetSnapshot;
use hg_telemetry::{TelemetryBus, TelemetryEvent};
use homeguard_core::HgError;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

use crate::backend::{BackendError, JournalBackend};
use crate::checkpoint::{materialize, Checkpoint};
use crate::frame::{encode_frame, scan_frames};
use crate::record::{journal_err, JournalRecord};

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
    /// Start offset of the active (tail) segment.
    tail_start: u64,
    /// Byte length of the active segment.
    tail_bytes: u64,
    /// Offsets of stored checkpoints, ascending.
    checkpoints: Vec<u64>,
    /// Homes dirtied since the last checkpoint.
    dirty: BTreeSet<u64>,
    /// Homes removed since the last checkpoint.
    removed: BTreeSet<u64>,
    /// Whether the store changed since the last checkpoint.
    store_dirty: bool,
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

/// Summary returned by [`Journal::checkpoint_write`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointStats {
    /// Journal offset the checkpoint covers.
    pub offset: u64,
    /// Homes exported into the document.
    pub homes: u64,
    /// Whether it was a full image.
    pub full: bool,
    /// Wall-clock write time in microseconds.
    pub micros: u64,
}

impl CheckpointStats {
    fn of(ckpt: &Checkpoint, started: Instant) -> CheckpointStats {
        let (full, homes) = match ckpt {
            Checkpoint::Full { fleet, .. } => (true, fleet.homes.len()),
            Checkpoint::Delta { homes, .. } => (false, homes.len()),
        };
        CheckpointStats {
            offset: ckpt.offset(),
            homes: homes as u64,
            full,
            micros: started.elapsed().as_micros() as u64,
        }
    }
}

/// Summary returned by [`Journal::compact`].
#[derive(Debug, Clone, Copy)]
pub struct CompactStats {
    /// Checkpoint documents folded away.
    pub checkpoints_folded: u64,
    /// Segments deleted.
    pub segments_dropped: u64,
    /// The single surviving checkpoint's offset.
    pub offset: u64,
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
    /// record. Any segments beyond a tear, and any checkpoints covering
    /// offsets beyond the surviving records, are discarded. The dirty-home
    /// bookkeeping is re-seeded by decoding the records after the newest
    /// surviving checkpoint, so delta checkpoints stay correct across a
    /// reopen with no write to the backend.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the backend fails or a surviving
    /// checkpoint/record no longer decodes.
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
            // were compacted away under a checkpoint.
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
            inner.tail_bytes = scan.clean_len as u64;
            inner.next_offset = start + scan.payloads.len() as u64;
        }
        inner.checkpoints = backend.checkpoints().map_err(berr)?;
        inner.checkpoints.sort_unstable();
        if let Some(&last) = inner.checkpoints.last() {
            if last > inner.next_offset {
                // A checkpoint is atomic and self-contained, so it is
                // trusted even when the records it folded are gone
                // (compaction deleted them). Appends resume past it —
                // offsets are never reused.
                inner.next_offset = last;
                inner.tail_start = last;
                inner.tail_bytes = 0;
            }
        }
        inner.synced_offset = inner.next_offset;
        let journal = Journal {
            backend,
            gate: RwLock::new(()),
            inner: Mutex::new(inner),
            timeline: AtomicU64::new(0),
            telemetry: OnceLock::new(),
            config,
        };
        // Re-seed dirty bookkeeping from the un-checkpointed tail.
        let replay_from = journal.last_checkpoint_offset().unwrap_or(0);
        let tail = journal.records_from(replay_from)?;
        {
            let mut inner = journal.lock();
            for (_, record) in &tail {
                note_dirty(&mut inner, record);
            }
        }
        Ok(journal)
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
    /// while it exports the dirty set.
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
        let mut inner = self.lock();
        if let Some((durable, reason)) = &inner.quarantined {
            let msg = format!("journal quarantined at durable offset {durable}: {reason}");
            inner.refused += 1;
            return Err(journal_err(msg));
        }
        if inner.tail_bytes > 0
            && inner.tail_bytes + frame.len() as u64 > self.config.max_segment_bytes
        {
            inner.tail_start = inner.next_offset;
            inner.tail_bytes = 0;
        }
        let offset = inner.next_offset;
        let mut retries = 0u32;
        let failure = loop {
            match self.backend.append_segment(inner.tail_start, &frame) {
                Ok(()) => break None,
                Err(e) => {
                    inner.append_failures += 1;
                    // A failed append may have left a partial frame on
                    // the tail; repair before retrying or giving up.
                    let repaired = self.repair_tail(inner.tail_start, inner.tail_bytes);
                    match repaired {
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
                inner.tail_bytes += frame.len() as u64;
                inner.next_offset += 1;
                inner.appends += 1;
                inner.append_bytes += frame.len() as u64;
                note_dirty(&mut inner, record);
                drop(inner);
                if retries > 0 {
                    self.publish(TelemetryEvent::IoRetry {
                        op: "append".into(),
                        attempts: retries as u64,
                    });
                }
                self.publish(TelemetryEvent::JournalAppended {
                    records: 1,
                    bytes: frame.len() as u64,
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
        let mut retries = 0u32;
        let failure = loop {
            match self.backend.sync() {
                Ok(()) => break None,
                Err(e) if e.transient && retries + 1 < self.config.max_io_attempts => {
                    retries += 1;
                    self.backoff(retries);
                }
                Err(e) => break Some(e),
            }
        };
        let mut inner = self.lock();
        inner.io_retries += retries as u64;
        match failure {
            None => {
                inner.synced_offset = inner.synced_offset.max(covered);
                drop(inner);
                if retries > 0 {
                    self.publish(TelemetryEvent::IoRetry {
                        op: "sync".into(),
                        attempts: retries as u64,
                    });
                }
                self.publish(TelemetryEvent::JournalSynced {
                    micros: started.elapsed().as_micros() as u64,
                });
                Ok(())
            }
            Some(e) => {
                let durable = inner.synced_offset;
                let reason = format!("sync: {e}");
                if inner.quarantined.is_none() {
                    inner.quarantined = Some((durable, reason.clone()));
                }
                drop(inner);
                if retries > 0 {
                    self.publish(TelemetryEvent::IoRetry {
                        op: "sync".into(),
                        attempts: retries as u64,
                    });
                }
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
    /// append left behind — then writes the snapshot as a full
    /// checkpoint and syncs it down. Only then is the quarantine cleared;
    /// replay never crosses the gap because the fresh full checkpoint
    /// covers everything before it, journaled or not. Any failure leaves
    /// the journal quarantined.
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
            (inner.tail_start, inner.tail_bytes)
        };
        self.repair_tail(tail_start, tail_bytes).map_err(|e| {
            journal_err(format!("heal: tail repair failed, still quarantined: {e}"))
        })?;
        let ckpt = Checkpoint::Full { offset, fleet };
        self.write_checkpoint_retrying(offset, &ckpt.to_text())
            .map_err(|e| {
                journal_err(format!(
                    "heal: checkpoint write failed, still quarantined: {e}"
                ))
            })?;
        self.backend
            .sync()
            .map_err(|e| journal_err(format!("heal: sync failed, still quarantined: {e}")))?;
        let mut inner = self.lock();
        note_checkpoint(&mut inner, offset);
        inner.quarantined = None;
        inner.synced_offset = inner.next_offset;
        inner.heals += 1;
        drop(inner);
        let stats = CheckpointStats::of(&ckpt, started);
        self.publish(TelemetryEvent::JournalHealed {
            offset: stats.offset,
        });
        Ok(stats)
    }

    /// A backend checkpoint write with the transient-retry policy (no
    /// quarantine: a failed checkpoint loses no history, it only defers
    /// compaction).
    fn write_checkpoint_retrying(&self, offset: u64, text: &str) -> Result<(), BackendError> {
        let mut retries = 0u32;
        loop {
            match self.backend.write_checkpoint(offset, text) {
                Ok(()) => {
                    if retries > 0 {
                        let mut inner = self.lock();
                        inner.io_retries += retries as u64;
                        drop(inner);
                        self.publish(TelemetryEvent::IoRetry {
                            op: "checkpoint".into(),
                            attempts: retries as u64,
                        });
                    }
                    return Ok(());
                }
                Err(e) if e.transient && retries + 1 < self.config.max_io_attempts => {
                    retries += 1;
                    self.backoff(retries);
                }
                Err(e) => {
                    if retries > 0 {
                        let mut inner = self.lock();
                        inner.io_retries += retries as u64;
                        drop(inner);
                        self.publish(TelemetryEvent::IoRetry {
                            op: "checkpoint".into(),
                            attempts: retries as u64,
                        });
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Global offset of the next record to append (= records ever
    /// appended, minus nothing: offsets are never reused).
    pub fn next_offset(&self) -> u64 {
        self.lock().next_offset
    }

    /// Stored checkpoint count.
    pub fn checkpoint_count(&self) -> usize {
        self.lock().checkpoints.len()
    }

    /// Offset of the newest stored checkpoint.
    pub fn last_checkpoint_offset(&self) -> Option<u64> {
        self.lock().checkpoints.last().copied()
    }

    /// The dirty set a delta checkpoint would need to export right now:
    /// `(dirtied home ids, removed home ids, store dirty)`.
    pub fn dirty_set(&self) -> (Vec<u64>, Vec<u64>, bool) {
        let inner = self.lock();
        (
            inner.dirty.iter().copied().collect(),
            inner.removed.iter().copied().collect(),
            inner.store_dirty,
        )
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
                    .map_err(|e| journal_err(format!("record at offset {offset}: {e}")))?;
                out.push((offset, record));
            }
        }
        Ok(out)
    }

    /// Writes a checkpoint document and resets the dirty bookkeeping.
    ///
    /// The caller (the fleet's checkpoint path) is responsible for
    /// holding [`gate_exclusive`](Journal::gate_exclusive) while it
    /// exported the states, and for `ckpt.offset() == next_offset()` under
    /// that gate.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when the journal is quarantined (the dirty
    /// set no longer describes WAL truth — heal instead) or when the
    /// backend write fails after retries; bookkeeping is left un-reset
    /// so a retry exports at least the same dirty set.
    pub fn checkpoint_write(&self, ckpt: &Checkpoint) -> Result<CheckpointStats, HgError> {
        let started = Instant::now();
        {
            let inner = self.lock();
            if let Some((durable, reason)) = &inner.quarantined {
                return Err(journal_err(format!(
                    "journal quarantined at durable offset {durable} ({reason}); heal before checkpointing"
                )));
            }
        }
        self.write_checkpoint_retrying(ckpt.offset(), &ckpt.to_text())
            .map_err(berr)?;
        note_checkpoint(&mut self.lock(), ckpt.offset());
        let stats = CheckpointStats::of(ckpt, started);
        self.publish(TelemetryEvent::JournalCheckpoint {
            offset: stats.offset,
            homes: stats.homes,
            full: stats.full,
            micros: stats.micros,
        });
        Ok(stats)
    }

    /// Reads and decodes the whole stored checkpoint chain, ascending.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] on backend failure or an undecodable document.
    pub fn checkpoint_chain(&self) -> Result<Vec<Checkpoint>, HgError> {
        let offsets: Vec<u64> = self.lock().checkpoints.clone();
        offsets
            .iter()
            .map(|&offset| {
                let text = self.backend.read_checkpoint(offset).map_err(berr)?;
                Checkpoint::from_text(&text)
            })
            .collect()
    }

    /// Folds the stored checkpoint chain into one fleet snapshot, with
    /// the offset replay resumes from (recovery's starting point).
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] when no checkpoint exists or the chain is
    /// damaged.
    pub fn materialize(&self) -> Result<(u64, FleetSnapshot), HgError> {
        materialize(self.checkpoint_chain()?)
    }

    /// Compacts the journal: folds the checkpoint chain into a single
    /// full checkpoint and deletes every segment fully covered by it.
    /// History below the surviving checkpoint is gone afterwards — replay
    /// can only resume at its offset.
    ///
    /// # Errors
    ///
    /// [`HgError::Journal`] on backend failure, a damaged chain, or a
    /// quarantined journal (heal first — compaction deletes history).
    pub fn compact(&self) -> Result<CompactStats, HgError> {
        let _exclusive = self.gate_exclusive();
        if let Some((durable, reason)) = &self.lock().quarantined {
            return Err(journal_err(format!(
                "journal quarantined at durable offset {durable} ({reason}); heal before compacting"
            )));
        }
        let chain = self.checkpoint_chain()?;
        if chain.is_empty() {
            return Err(journal_err("nothing to compact: no checkpoints"));
        }
        let folded: Vec<u64> = chain.iter().map(Checkpoint::offset).collect();
        let (offset, fleet) = materialize(chain)?;
        let full = Checkpoint::Full { offset, fleet };
        self.write_checkpoint_retrying(offset, &full.to_text())
            .map_err(berr)?;
        let mut dropped_ckpts = 0u64;
        for &at in &folded {
            if at != offset {
                self.backend.remove_checkpoint(at).map_err(berr)?;
                dropped_ckpts += 1;
            }
        }
        // A segment whose records all precede the surviving checkpoint
        // will never be replayed again. Segment record counts are implied
        // by neighbour start offsets.
        let mut inner = self.lock();
        let starts = self.backend.segments().map_err(berr)?;
        let mut dropped_segs = 0u64;
        for (i, &start) in starts.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(inner.next_offset);
            if end <= offset && start != inner.tail_start {
                self.backend.remove_segment(start).map_err(berr)?;
                dropped_segs += 1;
            }
        }
        inner.checkpoints = vec![offset];
        drop(inner);
        Ok(CompactStats {
            checkpoints_folded: dropped_ckpts,
            segments_dropped: dropped_segs,
            offset,
        })
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

    /// Live stats as a JSON document (the `/journal/stats` surface).
    pub fn stats_json(&self) -> hg_rules::json::Json {
        use hg_rules::json::Json;
        let segments = self.backend.segments().unwrap_or_default();
        let segment_bytes: u64 = segments
            .iter()
            .map(|&s| {
                self.backend
                    .read_segment(s)
                    .map(|b| b.len() as u64)
                    .unwrap_or(0)
            })
            .sum();
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
            ("segments", Json::Num(segments.len() as i64)),
            ("segmentBytes", Json::Num(segment_bytes as i64)),
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
            ("dirtyHomes", Json::Num(inner.dirty.len() as i64)),
            (
                "removedSinceCheckpoint",
                Json::Num(inner.removed.len() as i64),
            ),
            ("storeDirty", Json::Bool(inner.store_dirty)),
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

/// Records a checkpoint written at `offset` and resets the dirty
/// bookkeeping it covers.
fn note_checkpoint(inner: &mut JournalInner, offset: u64) {
    if inner.checkpoints.last() != Some(&offset) {
        inner.checkpoints.push(offset);
        inner.checkpoints.sort_unstable();
    }
    inner.dirty.clear();
    inner.removed.clear();
    inner.store_dirty = false;
}

fn note_dirty(inner: &mut JournalInner, record: &JournalRecord) {
    for id in record.dirtied_homes() {
        inner.dirty.insert(id);
        inner.removed.remove(&id);
    }
    if let Some(id) = record.removed_home() {
        inner.removed.insert(id);
        inner.dirty.remove(&id);
    }
    if record.touches_store() {
        inner.store_dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::fault::{FaultBackend, FaultKind, FaultPlan};

    fn rec(id: u64) -> JournalRecord {
        JournalRecord::UninstallCommitted {
            id,
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

    fn empty_delta(offset: u64) -> Checkpoint {
        Checkpoint::Delta {
            offset,
            next_id: 0,
            store: None,
            homes: Vec::new(),
            removed: Vec::new(),
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
        // Dirty bookkeeping was re-seeded from the tail.
        let (dirty, _, _) = reopened.dirty_set();
        assert_eq!(dirty.len(), 8);
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
    fn dirty_set_tracks_and_checkpoints_reset_it() {
        let journal = Journal::open(Box::new(MemBackend::new())).unwrap();
        journal.append(&rec(1)).unwrap();
        journal
            .append(&JournalRecord::HomeRemoved { id: 1 })
            .unwrap();
        journal
            .append(&JournalRecord::StoreRetired { app: "A".into() })
            .unwrap();
        let (dirty, removed, store_dirty) = journal.dirty_set();
        assert!(dirty.is_empty(), "removal supersedes dirtiness");
        assert_eq!(removed, vec![1]);
        assert!(store_dirty);
        journal
            .checkpoint_write(&Checkpoint::Full {
                offset: journal.next_offset(),
                fleet: FleetSnapshot {
                    next_id: 2,
                    ..empty_fleet()
                },
            })
            .unwrap();
        let (dirty, removed, store_dirty) = journal.dirty_set();
        assert!(dirty.is_empty() && removed.is_empty() && !store_dirty);
        assert_eq!(journal.last_checkpoint_offset(), Some(3));
    }

    #[test]
    fn compaction_folds_to_one_full_checkpoint_and_drops_dead_segments() {
        let mem = MemBackend::new();
        let journal = Journal::open_with(
            Box::new(mem.clone()),
            JournalConfig {
                max_segment_bytes: 64,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        journal
            .checkpoint_write(&Checkpoint::Full {
                offset: 0,
                fleet: empty_fleet(),
            })
            .unwrap();
        for n in 0..6 {
            journal.append(&rec(n)).unwrap();
        }
        journal.checkpoint_write(&empty_delta(6)).unwrap();
        let before_segments = mem.segments().unwrap().len();
        assert!(before_segments > 1);
        let stats = journal.compact().unwrap();
        assert_eq!(stats.offset, 6);
        assert_eq!(stats.checkpoints_folded, 1);
        assert!(stats.segments_dropped > 0);
        assert_eq!(journal.checkpoint_count(), 1);
        // The journal still opens and materializes after compaction.
        drop(journal);
        let reopened = Journal::open(Box::new(mem)).unwrap();
        let (offset, _) = reopened.materialize().unwrap();
        assert_eq!(offset, 6);
        assert!(reopened.records_from(offset).unwrap().is_empty());
    }

    #[test]
    fn compaction_retries_a_transient_checkpoint_fault() {
        let mem = MemBackend::new();
        let fault = FaultBackend::new(mem.clone());
        let journal = Journal::open_with(Box::new(fault.clone()), fast_config()).unwrap();
        journal
            .checkpoint_write(&Checkpoint::Full {
                offset: 0,
                fleet: empty_fleet(),
            })
            .unwrap();
        for n in 0..3 {
            journal.append(&rec(n)).unwrap();
        }
        // One transient fault on the next write: the delta's checkpoint
        // write absorbs it by retrying...
        fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::Transient));
        journal.checkpoint_write(&empty_delta(3)).unwrap();
        assert_eq!(fault.injected(), 1);
        // ...and so does the folded checkpoint compaction writes.
        fault.arm(FaultPlan::new().at(fault.ops(), FaultKind::Transient));
        let stats = journal.compact().unwrap();
        assert_eq!(fault.injected(), 2);
        assert_eq!(stats.offset, 3);
        assert_eq!(stats.checkpoints_folded, 1);
        assert!(!journal.is_quarantined());
        drop(journal);
        let reopened = Journal::open(Box::new(mem)).unwrap();
        assert_eq!(reopened.checkpoint_count(), 1);
        let (offset, _) = reopened.materialize().unwrap();
        assert_eq!(offset, 3);
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
    fn admit_refuses_or_serves_unjournaled_by_policy() {
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
    fn heal_cuts_a_full_checkpoint_and_reopens_cleanly() {
        let mem = MemBackend::new();
        // A short write that then exhausts retries: ops 1 (short write),
        // 2 (repair truncate transient), leaves garbage + quarantine.
        let plan = FaultPlan::new()
            .at(1, FaultKind::ShortWrite)
            .at(2, FaultKind::Permanent);
        let fault = FaultBackend::with_plan(mem.clone(), plan);
        let journal = Journal::open_with(Box::new(fault.clone()), fast_config()).unwrap();
        journal.append(&rec(0)).unwrap();
        journal.append(&rec(1)).unwrap_err();
        assert!(journal.is_quarantined());
        // The disk recovers.
        fault.disarm();
        journal.heal(journal.next_offset(), empty_fleet()).unwrap();
        assert!(!journal.is_quarantined());
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
    fn quarantined_journal_refuses_sync_checkpoint_and_compact() {
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
        let ckpt = Checkpoint::Full {
            offset: 0,
            fleet: empty_fleet(),
        };
        assert!(journal
            .checkpoint_write(&ckpt)
            .unwrap_err()
            .to_string()
            .contains("heal"));
        assert!(journal.compact().unwrap_err().to_string().contains("heal"));
    }
}
