//! The serving rig every workload runs against, and the client side of
//! the wire.
//!
//! A [`Rig`] is the real serving configuration: a 16-shard [`Fleet`]
//! behind [`ApiServer::start_journaled`] with default `ServerConfig` and
//! `ExecConfig` (telemetry on), journaling to a [`DirBackend`] in a
//! scratch directory under the working directory. The traced run swaps
//! the backend for [`TimingBackend`], which times the journal's I/O from
//! outside the program.

use hg_api::{ApiServer, AppState, ServerConfig};
use hg_journal::{BackendError, DirBackend, Journal, JournalBackend};
use hg_rules::json::Json;
use hg_service::{Fleet, HomeId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Root of every scratch journal directory, relative to the working
/// directory (the checkout the benchmark runs in).
pub const SCRATCH: &str = ".homebench_tmp";

/// Journal I/O counted and timed at the backend boundary.
#[derive(Default)]
pub struct IoStats {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub append_ns: Mutex<Vec<u64>>,
    pub syncs: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
}

impl IoStats {
    /// `(appends, bytes, syncs, checkpoint bytes)` right now.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.appends.load(Ordering::Relaxed),
            self.append_bytes.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
            self.checkpoint_bytes.load(Ordering::Relaxed),
        )
    }
}

/// A [`DirBackend`] that times appends and counts bytes, syncs and
/// checkpoint writes.
pub struct TimingBackend {
    inner: DirBackend,
    stats: Arc<IoStats>,
}

impl JournalBackend for TimingBackend {
    fn segments(&self) -> Result<Vec<u64>, BackendError> {
        self.inner.segments()
    }
    fn read_segment(&self, start: u64) -> Result<Vec<u8>, BackendError> {
        self.inner.read_segment(start)
    }
    fn append_segment(&self, start: u64, bytes: &[u8]) -> Result<(), BackendError> {
        let t = Instant::now();
        let out = self.inner.append_segment(start, bytes);
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.stats.append_ns.lock().expect("append log").push(ns);
        out
    }
    fn truncate_segment(&self, start: u64, len: u64) -> Result<(), BackendError> {
        self.inner.truncate_segment(start, len)
    }
    fn remove_segment(&self, start: u64) -> Result<(), BackendError> {
        self.inner.remove_segment(start)
    }
    fn checkpoints(&self) -> Result<Vec<u64>, BackendError> {
        self.inner.checkpoints()
    }
    fn read_checkpoint(&self, offset: u64) -> Result<String, BackendError> {
        self.inner.read_checkpoint(offset)
    }
    fn write_checkpoint(&self, offset: u64, text: &str) -> Result<(), BackendError> {
        self.stats
            .checkpoint_bytes
            .fetch_add(text.len() as u64, Ordering::Relaxed);
        self.inner.write_checkpoint(offset, text)
    }
    fn remove_checkpoint(&self, offset: u64) -> Result<(), BackendError> {
        self.inner.remove_checkpoint(offset)
    }
    fn sync(&self) -> Result<(), BackendError> {
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

/// A scratch directory removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH).join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating a scratch journal directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the root behind only while another run still uses it.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

/// Opens a journal over `dir`, timed through `io` when given.
pub fn open_journal(dir: &Path, io: Option<&Arc<IoStats>>) -> Journal {
    let backend = DirBackend::new(dir).expect("opening the journal directory");
    let backend: Box<dyn JournalBackend> = match io {
        Some(stats) => Box::new(TimingBackend {
            inner: backend,
            stats: stats.clone(),
        }),
        None => Box::new(backend),
    };
    Journal::open(backend).expect("opening the journal")
}

/// The journaled HTTP service under test.
pub struct Rig {
    pub fleet: Arc<Fleet>,
    pub io: Option<Arc<IoStats>>,
    server: Option<ApiServer>,
    pub dir: ScratchDir,
}

impl Rig {
    /// Journals `fleet` (its current state becomes the baseline full
    /// checkpoint) and starts serving it.
    pub fn start(fleet: Fleet, traced: bool) -> Rig {
        let dir = ScratchDir::new("journal");
        let io = traced.then(|| Arc::new(IoStats::default()));
        let journal = Arc::new(open_journal(&dir.0, io.as_ref()));
        let fleet = Arc::new(fleet);
        let server =
            ApiServer::start_journaled(fleet.clone(), ServerConfig::default(), journal.clone())
                .expect("starting the journaled API server");
        Rig {
            fleet,
            io,
            server: Some(server),
            dir,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    pub fn state(&self) -> &Arc<AppState> {
        self.server.as_ref().expect("server running").state()
    }

    /// A session owning `homes`.
    pub fn session(&self, homes: &[HomeId]) -> String {
        let sessions = self.state().sessions();
        let token = sessions.issue();
        for &id in homes {
            sessions.adopt(&token, id);
        }
        token
    }

    /// Telemetry bus counters `(published, dropped)`.
    pub fn bus_counts(&self) -> (u64, u64) {
        let hub = self.state().telemetry().expect("telemetry is on");
        (hub.bus().published(), hub.bus().dropped_events())
    }

    /// Stops the server (every thread joined) — the "kill" of a
    /// kill-and-recover. The journal directory stays.
    pub fn kill(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A request as the client sends it.
#[derive(Clone, Debug)]
pub struct Call {
    pub method: &'static str,
    pub path: String,
    pub body: Option<Json>,
}

impl Call {
    pub fn get(path: String) -> Call {
        Call {
            method: "GET",
            path,
            body: None,
        }
    }

    pub fn post(path: String, body: Json) -> Call {
        Call {
            method: "POST",
            path,
            body: Some(body),
        }
    }

    /// The request bytes, sent in one write.
    pub fn render(&self, token: &str, close: bool) -> Vec<u8> {
        let body = self.body.as_ref().map(Json::to_text).unwrap_or_default();
        let mut out = format!(
            "{} {} HTTP/1.1\r\nhost: homebench\r\nx-session: {token}\r\n",
            self.method, self.path
        );
        if close {
            out.push_str("connection: close\r\n");
        }
        if self.body.is_some() {
            out.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        out.push_str("\r\n");
        out.push_str(&body);
        out.into_bytes()
    }
}

/// A reply: status and (de-chunked) body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A keep-alive HTTP/1.1 client connection. Reconnects transparently after
/// a reply that closed the connection (streamed rollouts).
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads the whole reply.
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<Reply> {
        if self.stream.is_none() {
            self.stream = Some(BufReader::new(TcpStream::connect(self.addr)?));
        }
        let reader = self.stream.as_mut().expect("connected");
        reader.get_mut().write_all(bytes)?;
        let (reply, keep) = read_reply(reader)?;
        if !keep {
            self.stream = None;
        }
        Ok(reply)
    }
}

/// One request on a fresh `connection: close` socket.
pub fn send_once(addr: SocketAddr, call: &Call, token: &str) -> std::io::Result<Reply> {
    let mut reader = BufReader::new(TcpStream::connect(addr)?);
    reader.get_mut().write_all(&call.render(token, true))?;
    Ok(read_reply(&mut reader)?.0)
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> std::io::Result<(Reply, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a reply"));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut chunked = false;
    let mut keep = true;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse::<usize>().ok(),
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => keep = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("chunk size"))?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        body.resize(length.unwrap_or(0), 0);
        reader.read_exact(&mut body)?;
    }
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
    Ok((Reply { status, body }, keep))
}

/// Linear-interpolated quantile of `values` (`q` in 0..=1); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (server and clients), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Filesystem type holding `dir` (longest mount-point prefix in
/// `/proc/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let path = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// SplitMix64 seeded per stream, so each client draws independently of
/// how the others are scheduled.
pub fn rng(seed: u64, stream: u64) -> hg_bench::fleet_gen::GenRng {
    hg_bench::fleet_gen::GenRng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}
