//! The TCP server: accept loop, HTTP worker pool, session reaper,
//! graceful shutdown.
//!
//! One acceptor thread hands connections to a fixed pool of HTTP workers
//! over a channel; each worker runs a keep-alive loop of
//! `read_request → route → write response`. Streamed rollouts
//! (`POST /fleet/upgrades`) take over the connection with a chunked
//! writer: one JSON line per finished shard, then a final merged summary
//! line. Shutdown sets a flag, wakes the acceptor with a self-connection,
//! closes the dispatch channel, joins every worker, and stops the
//! executor and reaper.

use crate::exec::ExecConfig;
use crate::http::{read_request, ChunkedWriter, Limits};
use crate::routes::{error_response, handle, AppState, EventStream, Reply};
use crate::session::SessionStore;
use crate::wire::{rollout_json, shard_part_json, ApiError};
use hg_rules::json::Json;
use hg_service::{Fleet, Journal};
use hg_telemetry::TelemetryHub;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// HTTP worker threads (concurrent connections served).
    pub http_workers: usize,
    /// Parser hard limits.
    pub limits: Limits,
    /// Executor shape (per-shard queue bound, store pool width).
    pub exec: ExecConfig,
    /// Session time-to-live (sliding).
    pub session_ttl: Duration,
    /// How often the reaper sweeps expired sessions.
    pub reap_interval: Duration,
    /// Per-connection socket read/write timeout — a stalled peer cannot
    /// pin a worker forever.
    pub io_timeout: Duration,
    /// Whether to run the telemetry hub (event bus + metrics registry)
    /// and serve the observability routes. Off, those routes answer 404
    /// and the fleet publishes nothing.
    pub telemetry: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http_workers: 4,
            limits: Limits::default(),
            exec: ExecConfig::default(),
            session_ttl: Duration::from_secs(1800),
            reap_interval: Duration::from_secs(60),
            io_timeout: Duration::from_secs(10),
            telemetry: true,
        }
    }
}

pub(crate) struct Shutdown {
    stop: AtomicBool,
    gate: Mutex<()>,
    bell: Condvar,
}

impl Shutdown {
    fn ring(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.bell.notify_all();
    }

    /// Sleeps up to `period` or until shutdown rings; `true` to keep
    /// running.
    fn snooze(&self, period: Duration) -> bool {
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        let guard = self
            .gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = self.bell.wait_timeout(guard, period).map(|(g, _)| drop(g));
        !self.stop.load(Ordering::SeqCst)
    }
}

/// A running API server. Dropping it (or calling
/// [`ApiServer::shutdown`]) stops everything gracefully.
pub struct ApiServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<Shutdown>,
    threads: Vec<JoinHandle<()>>,
}

impl ApiServer {
    /// Binds, spawns the acceptor + worker pool + session reaper, and
    /// returns the handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(fleet: Arc<Fleet>, config: ServerConfig) -> std::io::Result<ApiServer> {
        Self::start_inner(fleet, config, None)
    }

    /// [`ApiServer::start`] with a write-ahead journal attached to the
    /// served fleet before the first request: lifecycle mutations are
    /// journaled, `GET /journal/stats`, `POST /journal/heal` and the
    /// journal half of `GET /health` / `GET /ready` come alive, and
    /// `POST /restore` re-journals whatever fleet it swaps in.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; attach failures (the baseline
    /// checkpoint could not be written) surface as
    /// [`std::io::ErrorKind::Other`].
    pub fn start_journaled(
        fleet: Arc<Fleet>,
        config: ServerConfig,
        journal: Arc<Journal>,
    ) -> std::io::Result<ApiServer> {
        Self::start_inner(fleet, config, Some(journal))
    }

    fn start_inner(
        fleet: Arc<Fleet>,
        config: ServerConfig,
        journal: Option<Arc<Journal>>,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let telemetry = config.telemetry.then(TelemetryHub::new);
        let mut state = AppState::new(
            fleet,
            config.exec.clone(),
            SessionStore::new(config.session_ttl),
            telemetry,
        );
        if let Some(journal) = journal {
            state = state
                .with_journal(journal)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let state = Arc::new(state);
        let shutdown = Arc::new(Shutdown {
            stop: AtomicBool::new(false),
            gate: Mutex::new(()),
            bell: Condvar::new(),
        });

        let (conn_tx, conn_rx) = channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut threads = Vec::new();
        for index in 0..config.http_workers.max(1) {
            threads.push(Self::spawn_http_worker(
                index,
                state.clone(),
                conn_rx.clone(),
                config.clone(),
                shutdown.clone(),
            ));
        }
        threads.push(Self::spawn_acceptor(listener, conn_tx, shutdown.clone()));
        threads.push(Self::spawn_reaper(
            state.clone(),
            shutdown.clone(),
            config.reap_interval,
        ));
        Ok(ApiServer {
            addr,
            state,
            shutdown,
            threads,
        })
    }

    fn spawn_acceptor(
        listener: TcpListener,
        conn_tx: Sender<TcpStream>,
        shutdown: Arc<Shutdown>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("hg-api-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
                // Dropping conn_tx closes the channel; idle workers wake
                // and exit.
            })
            .expect("spawning the acceptor")
    }

    fn spawn_http_worker(
        index: usize,
        state: Arc<AppState>,
        conn_rx: Arc<Mutex<Receiver<TcpStream>>>,
        config: ServerConfig,
        shutdown: Arc<Shutdown>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("hg-api-http-{index}"))
            .spawn(move || loop {
                let next = {
                    let Ok(guard) = conn_rx.lock() else { return };
                    guard.recv()
                };
                match next {
                    Ok(stream) => serve_connection(&state, stream, &config, &shutdown),
                    Err(_) => return,
                }
            })
            .expect("spawning an HTTP worker")
    }

    fn spawn_reaper(
        state: Arc<AppState>,
        shutdown: Arc<Shutdown>,
        interval: Duration,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("hg-api-reaper".to_string())
            .spawn(move || {
                while shutdown.snooze(interval) {
                    state.sessions().reap();
                }
            })
            .expect("spawning the session reaper")
    }

    /// The bound address (with the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state — tests reach the executor and session store
    /// through this.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful stop: flag, wake the acceptor, join every thread, stop
    /// the executor.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        if self.shutdown.stop.load(Ordering::SeqCst) && self.threads.is_empty() {
            return;
        }
        self.shutdown.ring();
        // The acceptor blocks in `incoming()`; a throwaway connection
        // wakes it so it can observe the flag and drop the dispatch
        // channel.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.state.stop();
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Serves one connection's keep-alive loop.
fn serve_connection(
    state: &AppState,
    stream: TcpStream,
    config: &ServerConfig,
    shutdown: &Shutdown,
) {
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    loop {
        let request = match read_request(&mut reader, &config.limits) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(refusal) => {
                let error = ApiError::new(refusal.status, "malformed_request", refusal.message);
                if error_response(&error).write_to(&mut writer, false).is_ok() {
                    linger(&mut reader, &writer, config.io_timeout);
                }
                return;
            }
        };
        let keep_alive = request.keep_alive;
        match handle(state, &request) {
            Reply::Full(response) => {
                if response.write_to(&mut writer, keep_alive).is_err() {
                    return;
                }
            }
            Reply::Stream(stream) => {
                let _ = stream_rollout(&mut writer, stream);
                // Chunked responses advertise `connection: close`.
                return;
            }
            Reply::Events(spec) => {
                let _ = stream_events(&mut writer, spec, shutdown);
                return;
            }
        }
        if !keep_alive {
            return;
        }
    }
}

/// Most bytes of a refused request [`linger`] reads and discards.
const LINGER_BYTES: usize = 16 << 20;

/// Longest [`linger`] waits for them (capped by the I/O timeout).
const LINGER_TIME: Duration = Duration::from_secs(2);

/// Closes a connection whose request was refused without losing the
/// refusal. Closing a socket with unread input makes the kernel reset the
/// connection, and the reset can destroy the response before the client
/// reads it: a client posting a body over the limit is still sending it.
/// So end the response with a shutdown of the write half, then read and
/// discard what the peer still sends until it closes, up to
/// [`LINGER_BYTES`] or [`LINGER_TIME`] (at most `io_timeout`).
fn linger(reader: &mut BufReader<TcpStream>, writer: &TcpStream, io_timeout: Duration) {
    if writer.shutdown(std::net::Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER_TIME.min(io_timeout);
    let mut discarded = 0;
    let mut buf = [0u8; 8192];
    while discarded < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
            return;
        }
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => discarded += n,
        }
    }
}

/// Drives a streamed rollout: one JSON line per shard part as it lands,
/// then a final line with the merged fleet-wide rollout.
fn stream_rollout(
    writer: &mut impl Write,
    mut stream: crate::exec::RolloutStream,
) -> std::io::Result<()> {
    let mut chunked = ChunkedWriter::begin(writer, 200)?;
    while let Some((shard, part)) = stream.next_part() {
        let mut line = shard_part_json(shard, part).to_text();
        line.push('\n');
        chunked.chunk(line.as_bytes())?;
    }
    let merged = stream.finish();
    let mut line = Json::obj([("rollout", rollout_json(&merged))]).to_text();
    line.push('\n');
    chunked.chunk(line.as_bytes())?;
    chunked.finish()
}

/// Longest single park on the bus while tailing events — short enough
/// that server shutdown and window expiry are noticed promptly.
const EVENT_WAIT_SLICE: Duration = Duration::from_millis(250);

/// Drives a live NDJSON event tail: drain the bus from the cursor, write
/// one JSON line per event, park briefly between batches. Ends at the
/// event limit, the wall-clock window, server shutdown, or a write error
/// (the client went away) — whichever comes first, so a slow or absent
/// reader can never wedge an HTTP worker.
fn stream_events(
    writer: &mut impl Write,
    spec: EventStream,
    shutdown: &Shutdown,
) -> std::io::Result<()> {
    let mut chunked = ChunkedWriter::begin(writer, 200)?;
    let deadline = std::time::Instant::now() + spec.window;
    let mut cursor = spec.cursor;
    let mut sent = 0usize;
    let mut batch = Vec::new();
    'tail: loop {
        batch.clear();
        cursor = spec.bus.drain_since(cursor, &mut batch);
        for (seq, event) in &batch {
            let mut line = event.to_json(*seq).to_text();
            line.push('\n');
            chunked.chunk(line.as_bytes())?;
            sent += 1;
            if sent >= spec.limit {
                break 'tail;
            }
        }
        loop {
            if shutdown.stop.load(Ordering::SeqCst) {
                break 'tail;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break 'tail;
            }
            if spec.bus.wait_for_events(cursor, left.min(EVENT_WAIT_SLICE)) {
                continue 'tail;
            }
        }
    }
    chunked.finish()
}
