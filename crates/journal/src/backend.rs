//! Storage backends for journal segments and checkpoint documents.
//!
//! The journal core is backend-agnostic: a [`JournalBackend`] stores
//! opaque segment byte streams (keyed by the global offset of the
//! segment's first record) and checkpoint documents (keyed by the journal
//! offset they cover). [`MemBackend`] is the in-process store used by
//! tests and benches — it can [`fork`](MemBackend::fork) a deep copy of
//! its current bytes, which is how crash tests freeze "the disk at the
//! instant of the kill". [`DirBackend`] maps the same contract onto a
//! directory of files for real durability.
//!
//! Every backend failure is a classified [`BackendError`]: **transient**
//! failures (interrupted syscall, momentary contention) are worth the
//! journal's bounded retry; **permanent** ones (missing file, disk full,
//! corrupt metadata) trip quarantine immediately.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// A classified backend failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Whether a retry has any chance of succeeding.
    pub transient: bool,
    /// Human-readable detail.
    pub detail: String,
}

impl BackendError {
    /// A retryable failure (interrupted syscall, momentary contention).
    pub fn transient(detail: impl Into<String>) -> BackendError {
        BackendError {
            transient: true,
            detail: detail.into(),
        }
    }

    /// A failure retrying cannot fix (missing file, disk full, corrupt
    /// metadata).
    pub fn permanent(detail: impl Into<String>) -> BackendError {
        BackendError {
            transient: false,
            detail: detail.into(),
        }
    }

    /// Classifies an I/O error: interrupted/would-block/timed-out are
    /// transient, everything else is permanent.
    pub fn from_io(context: &str, e: &io::Error) -> BackendError {
        let transient = matches!(
            e.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        BackendError {
            transient,
            detail: format!("{context}: {e}"),
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let class = if self.transient {
            "transient"
        } else {
            "permanent"
        };
        write!(f, "{} ({class})", self.detail)
    }
}

/// Storage contract for journal data. Errors are classified
/// [`BackendError`]s; the journal retries transients and quarantines on
/// permanents, wrapping what surfaces into `HgError::Journal`.
pub trait JournalBackend: Send + Sync {
    /// Start offsets of all stored segments, ascending.
    fn segments(&self) -> Result<Vec<u64>, BackendError>;
    /// Reads a whole segment.
    fn read_segment(&self, start: u64) -> Result<Vec<u8>, BackendError>;
    /// Appends bytes to a segment, creating it when absent.
    fn append_segment(&self, start: u64, bytes: &[u8]) -> Result<(), BackendError>;
    /// Truncates a segment to `len` bytes (torn-tail repair).
    fn truncate_segment(&self, start: u64, len: u64) -> Result<(), BackendError>;
    /// Deletes a segment (one a checkpoint covers).
    fn remove_segment(&self, start: u64) -> Result<(), BackendError>;
    /// Offsets of all stored checkpoint documents, ascending.
    fn checkpoints(&self) -> Result<Vec<u64>, BackendError>;
    /// Reads a checkpoint document.
    fn read_checkpoint(&self, offset: u64) -> Result<String, BackendError>;
    /// Writes (or overwrites) a checkpoint document.
    fn write_checkpoint(&self, offset: u64, text: &str) -> Result<(), BackendError>;
    /// Deletes a checkpoint document (one a newer checkpoint replaced).
    fn remove_checkpoint(&self, offset: u64) -> Result<(), BackendError>;
    /// Flushes buffered data to stable storage, where the backend has any.
    fn sync(&self) -> Result<(), BackendError> {
        Ok(())
    }
}

#[derive(Default)]
struct MemInner {
    segments: BTreeMap<u64, Vec<u8>>,
    checkpoints: BTreeMap<u64, String>,
}

/// An in-memory backend. Clones share storage (the handle is an `Arc`),
/// so a test can keep a handle while the journal owns the boxed trait
/// object; [`fork`](MemBackend::fork) deep-copies instead.
#[derive(Clone, Default)]
pub struct MemBackend {
    inner: Arc<Mutex<MemInner>>,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A deep copy of the current bytes — an independent "disk image"
    /// frozen at this instant, for simulating a crash.
    pub fn fork(&self) -> MemBackend {
        let inner = self.lock();
        MemBackend {
            inner: Arc::new(Mutex::new(MemInner {
                segments: inner.segments.clone(),
                checkpoints: inner.checkpoints.clone(),
            })),
        }
    }

    /// Crash-test helper: keeps only the journal records at offsets below
    /// `records` (a segment's key is its first record's offset),
    /// discarding later frames at exact frame boundaries, appends
    /// `garbage` raw bytes (a torn half-written frame) where the cut
    /// lands, and drops every checkpoint covering an offset beyond the
    /// surviving records.
    pub fn truncate_to_records(&self, records: u64, garbage: &[u8]) {
        let mut inner = self.lock();
        let mut cut = false;
        let starts: Vec<u64> = inner.segments.keys().copied().collect();
        for start in starts {
            if cut || start > records {
                inner.segments.remove(&start);
                continue;
            }
            let seg = inner.segments.get_mut(&start).expect("segment present");
            let keep = (records - start) as usize;
            let scan = crate::frame::scan_frames(seg);
            if scan.payloads.len() <= keep {
                continue;
            }
            // The cut lands inside this segment: re-measure the byte
            // length of the surviving frame prefix.
            let len: usize = scan.payloads[..keep]
                .iter()
                .map(|payload| crate::frame::FRAME_HEADER + payload.len())
                .sum();
            seg.truncate(len);
            seg.extend_from_slice(garbage);
            cut = true;
        }
        if !cut {
            // Records beyond the last segment: garbage lands on the tail.
            if let Some(seg) = inner.segments.values_mut().next_back() {
                seg.extend_from_slice(garbage);
            }
        }
        inner.checkpoints.retain(|&offset, _| offset <= records);
    }

    /// Total stored segment bytes (bench/diagnostic helper).
    pub fn total_bytes(&self) -> u64 {
        self.lock().segments.values().map(|s| s.len() as u64).sum()
    }
}

impl JournalBackend for MemBackend {
    fn segments(&self) -> Result<Vec<u64>, BackendError> {
        Ok(self.lock().segments.keys().copied().collect())
    }

    fn read_segment(&self, start: u64) -> Result<Vec<u8>, BackendError> {
        self.lock()
            .segments
            .get(&start)
            .cloned()
            .ok_or_else(|| BackendError::permanent(format!("no segment at offset {start}")))
    }

    fn append_segment(&self, start: u64, bytes: &[u8]) -> Result<(), BackendError> {
        self.lock()
            .segments
            .entry(start)
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate_segment(&self, start: u64, len: u64) -> Result<(), BackendError> {
        match self.lock().segments.get_mut(&start) {
            Some(seg) => {
                seg.truncate(len as usize);
                Ok(())
            }
            None => Err(BackendError::permanent(format!(
                "no segment at offset {start}"
            ))),
        }
    }

    fn remove_segment(&self, start: u64) -> Result<(), BackendError> {
        self.lock().segments.remove(&start);
        Ok(())
    }

    fn checkpoints(&self) -> Result<Vec<u64>, BackendError> {
        Ok(self.lock().checkpoints.keys().copied().collect())
    }

    fn read_checkpoint(&self, offset: u64) -> Result<String, BackendError> {
        self.lock()
            .checkpoints
            .get(&offset)
            .cloned()
            .ok_or_else(|| BackendError::permanent(format!("no checkpoint at offset {offset}")))
    }

    fn write_checkpoint(&self, offset: u64, text: &str) -> Result<(), BackendError> {
        self.lock().checkpoints.insert(offset, text.to_string());
        Ok(())
    }

    fn remove_checkpoint(&self, offset: u64) -> Result<(), BackendError> {
        self.lock().checkpoints.remove(&offset);
        Ok(())
    }
}

/// A directory-of-files backend: `seg-<start>.wal` segment files and
/// `ckpt-<offset>.json` checkpoint documents under one directory.
pub struct DirBackend {
    dir: PathBuf,
}

impl DirBackend {
    /// Opens (creating if needed) a journal directory, removing any
    /// `ckpt-*.tmp` file a crash left between a checkpoint's write and its
    /// rename: nothing else lists or removes one.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<DirBackend> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name.starts_with("ckpt-") && name.ends_with(".tmp") {
                fs::remove_file(&path)?;
            }
        }
        Ok(DirBackend { dir })
    }

    fn seg_path(&self, start: u64) -> PathBuf {
        self.dir.join(format!("seg-{start:020}.wal"))
    }

    fn ckpt_path(&self, offset: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{offset:020}.json"))
    }

    fn listed(&self, prefix: &str, suffix: &str) -> Result<Vec<u64>, BackendError> {
        let mut keys = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| BackendError::from_io("read_dir", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| BackendError::from_io("read_dir entry", &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(body) = name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
            {
                if let Ok(key) = body.parse::<u64>() {
                    keys.push(key);
                }
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

impl JournalBackend for DirBackend {
    fn segments(&self) -> Result<Vec<u64>, BackendError> {
        self.listed("seg-", ".wal")
    }

    fn read_segment(&self, start: u64) -> Result<Vec<u8>, BackendError> {
        fs::read(self.seg_path(start))
            .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))
    }

    fn append_segment(&self, start: u64, bytes: &[u8]) -> Result<(), BackendError> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.seg_path(start))
            .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))?;
        file.write_all(bytes)
            .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))
    }

    fn truncate_segment(&self, start: u64, len: u64) -> Result<(), BackendError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.seg_path(start))
            .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))?;
        file.set_len(len)
            .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))
    }

    fn remove_segment(&self, start: u64) -> Result<(), BackendError> {
        match fs::remove_file(self.seg_path(start)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(BackendError::from_io(&format!("segment {start}"), &e)),
        }
    }

    fn checkpoints(&self) -> Result<Vec<u64>, BackendError> {
        self.listed("ckpt-", ".json")
    }

    fn read_checkpoint(&self, offset: u64) -> Result<String, BackendError> {
        fs::read_to_string(self.ckpt_path(offset))
            .map_err(|e| BackendError::from_io(&format!("checkpoint {offset}"), &e))
    }

    fn write_checkpoint(&self, offset: u64, text: &str) -> Result<(), BackendError> {
        // Write-then-rename so a crash mid-write never leaves a torn
        // checkpoint under the real name.
        let tmp = self.dir.join(format!("ckpt-{offset:020}.tmp"));
        fs::write(&tmp, text)
            .map_err(|e| BackendError::from_io(&format!("checkpoint {offset}"), &e))?;
        fs::rename(&tmp, self.ckpt_path(offset))
            .map_err(|e| BackendError::from_io(&format!("checkpoint {offset}"), &e))
    }

    fn remove_checkpoint(&self, offset: u64) -> Result<(), BackendError> {
        match fs::remove_file(self.ckpt_path(offset)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(BackendError::from_io(&format!("checkpoint {offset}"), &e)),
        }
    }

    fn sync(&self) -> Result<(), BackendError> {
        for start in self.segments()? {
            let file = fs::File::open(self.seg_path(start))
                .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))?;
            file.sync_all()
                .map_err(|e| BackendError::from_io(&format!("segment {start}"), &e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    #[test]
    fn backend_errors_classify_io_kinds() {
        let e = BackendError::from_io("op", &io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
        assert!(e.transient);
        let e = BackendError::from_io("op", &io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(!e.transient);
        assert!(e.to_string().contains("permanent"));
        assert!(BackendError::transient("t")
            .to_string()
            .contains("transient"));
    }

    #[test]
    fn mem_backend_round_trips_and_forks_independently() {
        let mem = MemBackend::new();
        mem.append_segment(0, b"abc").unwrap();
        mem.append_segment(0, b"def").unwrap();
        mem.write_checkpoint(2, "{}").unwrap();
        assert_eq!(mem.read_segment(0).unwrap(), b"abcdef");
        let fork = mem.fork();
        mem.append_segment(0, b"ghi").unwrap();
        assert_eq!(fork.read_segment(0).unwrap(), b"abcdef");
        assert_eq!(fork.checkpoints().unwrap(), vec![2]);
    }

    #[test]
    fn truncate_to_records_cuts_frames_and_stale_checkpoints() {
        let mem = MemBackend::new();
        // Two segments of two records each.
        for (seg, n0) in [(0u64, 0), (2u64, 2)] {
            for n in n0..n0 + 2 {
                mem.append_segment(seg, &encode_frame(format!("{{\"n\":{n}}}").as_bytes()))
                    .unwrap();
            }
        }
        mem.write_checkpoint(1, "{}").unwrap();
        mem.write_checkpoint(4, "{}").unwrap();
        let cut = mem.fork();
        cut.truncate_to_records(3, b"torn");
        assert_eq!(cut.segments().unwrap(), vec![0, 2]);
        let tail = cut.read_segment(2).unwrap();
        let scan = crate::frame::scan_frames(&tail);
        assert_eq!(scan.payloads.len(), 1);
        assert!(!scan.is_clean(), "garbage tail must read as a tear");
        assert_eq!(cut.checkpoints().unwrap(), vec![1]);
        // Once a checkpoint dropped the first segment, offsets still
        // count from the segment keys: cutting to 3 keeps record 2 only.
        let dropped = mem.fork();
        dropped.remove_segment(0).unwrap();
        dropped.truncate_to_records(3, b"");
        assert_eq!(dropped.segments().unwrap(), vec![2]);
        let kept = crate::frame::scan_frames(&dropped.read_segment(2).unwrap());
        assert_eq!(kept.payloads, vec![b"{\"n\":2}".to_vec()]);
        // Cutting to zero drops everything (first segment emptied, rest gone).
        let zero = mem.fork();
        zero.truncate_to_records(0, b"");
        let total: usize = zero
            .segments()
            .unwrap()
            .iter()
            .map(|&s| zero.read_segment(s).unwrap().len())
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn dir_backend_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!(
            "hg-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let backend = DirBackend::new(&dir).unwrap();
        backend
            .append_segment(0, &encode_frame(b"{\"op\":\"a\"}"))
            .unwrap();
        backend
            .append_segment(0, &encode_frame(b"{\"op\":\"b\"}"))
            .unwrap();
        backend.write_checkpoint(2, "{\"v\":1}").unwrap();
        assert_eq!(backend.segments().unwrap(), vec![0]);
        assert_eq!(backend.checkpoints().unwrap(), vec![2]);
        let scan = crate::frame::scan_frames(&backend.read_segment(0).unwrap());
        assert!(scan.is_clean());
        assert_eq!(scan.payloads.len(), 2);
        // Torn-tail repair via truncate.
        backend.append_segment(0, b"half-written").unwrap();
        let bytes = backend.read_segment(0).unwrap();
        let scan = crate::frame::scan_frames(&bytes);
        assert!(!scan.is_clean());
        backend.truncate_segment(0, scan.clean_len as u64).unwrap();
        assert!(crate::frame::scan_frames(&backend.read_segment(0).unwrap()).is_clean());
        backend.sync().unwrap();
        // A crash between a checkpoint's write and its rename leaves its
        // temporary file; reopening the directory removes it.
        let leftover = dir.join(format!("ckpt-{:020}.tmp", 5));
        fs::write(&leftover, "{\"v\":2}").unwrap();
        let backend = DirBackend::new(&dir).unwrap();
        assert!(!leftover.exists(), "the interrupted write was not removed");
        assert_eq!(backend.checkpoints().unwrap(), vec![2]);
        backend.remove_checkpoint(2).unwrap();
        backend.remove_segment(0).unwrap();
        assert!(backend.segments().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
