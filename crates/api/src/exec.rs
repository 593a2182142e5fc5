//! The per-shard work-queue executor.
//!
//! A [`FleetExec`] owns one bounded queue and one dedicated worker thread
//! per fleet shard, plus a small pool draining a separate queue of
//! store-level (fleet-wide) operations. Every job routes by
//! [`Fleet::shard_of`], so two jobs against the same home are serialized
//! on its shard's worker in submission order while jobs against different
//! shards run concurrently — the same independence the shard locks give,
//! but with **admission control**: a full queue rejects at submission
//! time ([`ExecError::Busy`]) instead of queueing unboundedly, which is
//! what the HTTP layer turns into `429 Retry-After`.
//!
//! Fleet-wide sweeps decompose onto the same machinery: a coordinator job
//! on the store pool partitions the request, pushes one per-shard unit
//! ([`Fleet::upgrade_shard`] / [`Fleet::uninstall_shard`] /
//! [`Fleet::install_group`]) to each shard's worker, and merges the parts
//! with the fleet's own deterministic merge helpers — so a queue-dispatched
//! sweep is report-identical to [`Fleet`]'s serial shard walk by
//! construction. Shard workers never wait on the store queue, so the
//! coordinator blocking on shard space cannot deadlock.

use hg_service::{
    BulkOutcomes, Fleet, ForceUninstall, HgError, HomeId, ShardRollout, UpgradeRollout,
};
use hg_telemetry::TelemetryEvent;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why a submission was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The target queue is at capacity — retry later. Carries the queue
    /// depth observed at rejection time.
    Busy {
        /// Jobs waiting in the refused queue when the push was rejected.
        depth: usize,
    },
    /// The executor has been stopped, or the job died before producing a
    /// result (its worker caught a panic that poisoned the home's shard).
    Gone,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Busy { depth } => write!(f, "queue full ({depth} jobs deep)"),
            ExecError::Gone => write!(f, "executor stopped or job died"),
        }
    }
}

impl std::error::Error for ExecError {}

type Job = Box<dyn FnOnce(&Fleet) + Send>;

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A bounded multi-producer work queue drained by dedicated workers.
///
/// `try_push` never blocks (admission control for the network edge);
/// `push` blocks until space frees (internal fan-out from a sweep
/// coordinator, whose consumers are guaranteed to drain).
pub struct WorkQueue {
    state: Mutex<QueueState>,
    /// Signaled when a job arrives or the queue closes (workers wait).
    ready: Condvar,
    /// Signaled when a job is taken (blocking producers wait).
    space: Condvar,
    capacity: usize,
}

impl WorkQueue {
    fn new(capacity: usize) -> WorkQueue {
        WorkQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Jobs currently waiting (a backpressure signal; racy by nature).
    pub fn depth(&self) -> usize {
        self.state.lock().map(|s| s.jobs.len()).unwrap_or(0)
    }

    /// Maximum number of waiting jobs before submissions are refused.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn try_push(&self, job: Job) -> Result<(), ExecError> {
        let mut state = self.state.lock().map_err(|_| ExecError::Gone)?;
        if state.closed {
            return Err(ExecError::Gone);
        }
        if state.jobs.len() >= self.capacity {
            return Err(ExecError::Busy {
                depth: state.jobs.len(),
            });
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    fn push(&self, job: Job) -> Result<(), ExecError> {
        let mut state = self.state.lock().map_err(|_| ExecError::Gone)?;
        loop {
            if state.closed {
                return Err(ExecError::Gone);
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                drop(state);
                self.ready.notify_one();
                return Ok(());
            }
            // Loop re-checks: spurious wakeups and close races are benign.
            state = self.space.wait(state).map_err(|_| ExecError::Gone)?;
        }
    }

    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().ok()?;
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).ok()?;
        }
    }

    fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Tuning knobs for [`FleetExec::start`].
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Bound of each per-shard queue and of the store-operation queue.
    pub queue_capacity: usize,
    /// Workers draining the store-operation queue (sweep coordinators,
    /// snapshot work). At least 1.
    pub store_workers: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            queue_capacity: 64,
            store_workers: 2,
        }
    }
}

/// The canonical concurrent dispatch path onto a [`Fleet`]: one bounded
/// queue + dedicated worker per shard, plus a store-operation pool. See
/// the [module docs](self) for the dispatch model.
pub struct FleetExec {
    fleet: Arc<Fleet>,
    shard_queues: Vec<Arc<WorkQueue>>,
    store_queue: Arc<WorkQueue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
    /// Per-shard-worker in-flight job count (0 or 1 — one worker per
    /// shard): the occupancy gauge `GET /stats` samples.
    shard_busy: Vec<Arc<AtomicUsize>>,
    /// Store-pool workers currently running a job.
    store_busy: Arc<AtomicUsize>,
}

impl FleetExec {
    /// Spawns the workers (one per fleet shard + `config.store_workers`)
    /// and returns the executor handle.
    pub fn start(fleet: Arc<Fleet>, config: ExecConfig) -> Arc<FleetExec> {
        let shard_queues: Vec<Arc<WorkQueue>> = (0..fleet.shard_count())
            .map(|_| Arc::new(WorkQueue::new(config.queue_capacity)))
            .collect();
        let store_queue = Arc::new(WorkQueue::new(config.queue_capacity));
        let shard_busy: Vec<Arc<AtomicUsize>> = (0..fleet.shard_count())
            .map(|_| Arc::new(AtomicUsize::new(0)))
            .collect();
        let store_busy = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::new();
        for (index, queue) in shard_queues.iter().enumerate() {
            workers.push(Self::spawn_worker(
                format!("hg-api-shard-{index}"),
                fleet.clone(),
                queue.clone(),
                shard_busy[index].clone(),
            ));
        }
        for index in 0..config.store_workers.max(1) {
            workers.push(Self::spawn_worker(
                format!("hg-api-store-{index}"),
                fleet.clone(),
                store_queue.clone(),
                store_busy.clone(),
            ));
        }
        Arc::new(FleetExec {
            fleet,
            shard_queues,
            store_queue,
            workers: Mutex::new(workers),
            stopped: AtomicBool::new(false),
            shard_busy,
            store_busy,
        })
    }

    fn spawn_worker(
        name: String,
        fleet: Arc<Fleet>,
        queue: Arc<WorkQueue>,
        busy: Arc<AtomicUsize>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while let Some(job) = queue.pop() {
                    busy.fetch_add(1, Ordering::Relaxed);
                    // A panicking job poisons the shard it held (reported
                    // as `HgError::Poisoned` by later fleet calls); the
                    // worker itself must keep draining its queue.
                    let _ = catch_unwind(AssertUnwindSafe(|| job(&fleet)));
                    busy.fetch_sub(1, Ordering::Relaxed);
                }
            })
            .expect("spawning an executor worker")
    }

    /// The fleet this executor dispatches onto.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Current depth of every per-shard queue, by shard index.
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shard_queues.iter().map(|q| q.depth()).collect()
    }

    /// Current depth of the store-operation queue.
    pub fn store_depth(&self) -> usize {
        self.store_queue.depth()
    }

    /// Whether each shard's dedicated worker is currently running a job,
    /// by shard index (a point-in-time occupancy sample; racy by nature).
    pub fn shard_occupancy(&self) -> Vec<bool> {
        self.shard_busy
            .iter()
            .map(|b| b.load(Ordering::Relaxed) > 0)
            .collect()
    }

    /// Store-pool workers currently running a job.
    pub fn store_busy_workers(&self) -> usize {
        self.store_busy.load(Ordering::Relaxed)
    }

    /// The bound every queue (per-shard and store) was built with.
    pub fn queue_capacity(&self) -> usize {
        self.store_queue.capacity()
    }

    /// Publishes a [`TelemetryEvent::QueueSaturated`] for a refused
    /// submission (no-op when the fleet has no bus attached). `shard` is
    /// the shard index, or the shard count for the store queue.
    fn publish_saturated(&self, queue: &'static str, shard: usize, depth: usize) {
        if let Some(bus) = self.fleet.telemetry() {
            bus.publish(TelemetryEvent::QueueSaturated {
                queue,
                shard: shard as u64,
                depth: depth as u64,
            });
        }
    }

    /// Submits `f` to the worker owning `id`'s shard and blocks for its
    /// result. Jobs for the same shard run in submission order.
    ///
    /// # Errors
    ///
    /// [`ExecError::Busy`] when the shard's queue is full (nothing was
    /// enqueued); [`ExecError::Gone`] when the executor is stopped or the
    /// job panicked before answering.
    pub fn run_on_home<R>(
        &self,
        id: HomeId,
        f: impl FnOnce(&Fleet) -> R + Send + 'static,
    ) -> Result<R, ExecError>
    where
        R: Send + 'static,
    {
        let (tx, rx) = channel();
        let shard = self.fleet.shard_of(id);
        let queue = &self.shard_queues[shard];
        queue
            .try_push(Box::new(move |fleet| {
                let _ = tx.send(f(fleet));
            }))
            .inspect_err(|refusal| {
                if let ExecError::Busy { depth } = refusal {
                    self.publish_saturated("shard", shard, *depth);
                }
            })?;
        rx.recv().map_err(|_| ExecError::Gone)
    }

    /// Submits `f` to the store-operation pool and blocks for its result.
    ///
    /// # Errors
    ///
    /// As [`FleetExec::run_on_home`], against the store queue.
    pub fn run_on_store<R>(
        &self,
        f: impl FnOnce(&Fleet) -> R + Send + 'static,
    ) -> Result<R, ExecError>
    where
        R: Send + 'static,
    {
        let (tx, rx) = channel();
        self.store_queue
            .try_push(Box::new(move |fleet| {
                let _ = tx.send(f(fleet));
            }))
            .inspect_err(|refusal| {
                if let ExecError::Busy { depth } = refusal {
                    self.publish_saturated("store", self.fleet.shard_count(), *depth);
                }
            })?;
        rx.recv().map_err(|_| ExecError::Gone)
    }

    /// Queue-dispatched [`Fleet::install_many`]: a store-pool coordinator
    /// ingests the source once, partitions the ids by shard, runs one
    /// [`Fleet::install_group`] per shard on that shard's worker, and
    /// reassembles the outcomes in request order — exactly the serial
    /// result.
    ///
    /// # Errors
    ///
    /// Outer [`ExecError`] when the store queue refuses the coordinator;
    /// inner [`HgError::Extract`] when the source fails extraction
    /// (nothing installed anywhere).
    pub fn install_many(
        &self,
        home_ids: Vec<HomeId>,
        source: String,
        name: String,
    ) -> Result<Result<BulkOutcomes, HgError>, ExecError> {
        let queues = self.shard_queues.clone();
        self.run_on_store(move |fleet| {
            fleet.ingest_app(&source, &name)?;
            let mut groups: Vec<Vec<(usize, HomeId)>> = vec![Vec::new(); queues.len()];
            for (pos, &id) in home_ids.iter().enumerate() {
                groups[fleet.shard_of(id)].push((pos, id));
            }
            let source = Arc::new(source);
            let name = Arc::new(name);
            let (tx, rx) = channel();
            let mut submitted = 0usize;
            for (shard, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let (tx, source, name) = (tx.clone(), source.clone(), name.clone());
                let pushed = queues[shard].push(Box::new(move |fleet| {
                    let ids: Vec<HomeId> = group.iter().map(|&(_, id)| id).collect();
                    let outcomes = fleet.install_group(&ids, &source, &name, None);
                    let _ = tx.send((group, outcomes));
                }));
                if pushed.is_ok() {
                    submitted += 1;
                }
            }
            drop(tx);
            let mut slots: Vec<Option<(HomeId, Result<_, HgError>)>> =
                home_ids.iter().map(|_| None).collect();
            for _ in 0..submitted {
                let Ok((group, outcomes)) = rx.recv() else {
                    break;
                };
                for ((pos, _), outcome) in group.into_iter().zip(outcomes) {
                    slots[pos] = Some(outcome);
                }
            }
            Ok(slots
                .into_iter()
                .zip(&home_ids)
                .map(|(slot, &id)| {
                    // A slot stays empty only if its shard worker died
                    // mid-group (panic poisoned the shard).
                    slot.unwrap_or((id, Err(HgError::Poisoned("fleet shard"))))
                })
                .collect())
        })
    }

    /// Queue-dispatched [`Fleet::force_uninstall`]: per-shard
    /// [`Fleet::uninstall_shard`] units fanned out by a store-pool
    /// coordinator, merged with [`ForceUninstall::merge`], then the
    /// store-level purge.
    ///
    /// # Errors
    ///
    /// [`ExecError`] when the store queue refuses the coordinator.
    pub fn force_uninstall(&self, app: String) -> Result<ForceUninstall, ExecError> {
        let queues = self.shard_queues.clone();
        self.run_on_store(move |fleet| {
            let app = Arc::new(app);
            let (tx, rx) = channel();
            let mut submitted = 0usize;
            for (shard, queue) in queues.iter().enumerate() {
                let (tx, app) = (tx.clone(), app.clone());
                if queue
                    .push(Box::new(move |fleet| {
                        let _ = tx.send(fleet.uninstall_shard(shard, &app));
                    }))
                    .is_ok()
                {
                    submitted += 1;
                }
            }
            drop(tx);
            let parts: Vec<_> = (0..submitted).filter_map(|_| rx.recv().ok()).collect();
            let mut out = ForceUninstall::merge(app.as_str(), parts);
            match fleet.retire_store_app(&app) {
                Ok(retired) => out.store_retired = retired,
                Err(error) => out.store_error = Some(error.to_string()),
            }
            out
        })
    }

    /// Begins a queue-dispatched upgrade rollout, streaming per-shard
    /// progress. The new source is ingested (and a renaming submission
    /// refused) **before** any shard is touched, on the calling thread, so
    /// publication errors surface as typed failures rather than mid-stream
    /// aborts; then one [`Fleet::upgrade_shard`] unit is pushed to every
    /// shard's worker and the returned [`RolloutStream`] yields each
    /// part as it completes.
    ///
    /// # Errors
    ///
    /// Outer [`ExecError::Gone`] when the executor is stopped; inner
    /// [`HgError::Extract`] / [`HgError::UpgradeRenames`] from ingestion
    /// (no home touched). Rollouts are fleet admin operations and bypass
    /// admission control: shard pushes block for space instead of
    /// refusing.
    pub fn begin_upgrade(
        &self,
        source: String,
        name: String,
    ) -> Result<Result<RolloutStream, HgError>, ExecError> {
        if self.stopped.load(Ordering::Relaxed) {
            return Err(ExecError::Gone);
        }
        if let Err(error) = self.fleet.ingest_app_as(&source, &name) {
            return Ok(Err(error));
        }
        let source = Arc::new(source);
        let name = Arc::new(name);
        let (tx, rx) = channel();
        let mut submitted = 0usize;
        for (shard, queue) in self.shard_queues.iter().enumerate() {
            let (tx, source, app) = (tx.clone(), source.clone(), name.clone());
            if queue
                .push(Box::new(move |fleet| {
                    let _ = tx.send((shard, fleet.upgrade_shard(shard, &source, &app)));
                }))
                .is_ok()
            {
                submitted += 1;
            }
        }
        Ok(Ok(RolloutStream {
            app: name.as_str().to_string(),
            rx,
            remaining: submitted,
            parts: Vec::new(),
        }))
    }

    /// The synchronous form of [`FleetExec::begin_upgrade`]: dispatches
    /// through the queues and blocks for the fully merged rollout.
    ///
    /// # Errors
    ///
    /// As [`FleetExec::begin_upgrade`].
    pub fn propagate_upgrade(
        &self,
        source: String,
        name: String,
    ) -> Result<Result<UpgradeRollout, HgError>, ExecError> {
        Ok(self
            .begin_upgrade(source, name)?
            .map(|stream| stream.finish()))
    }

    /// Closes every queue and joins the workers. New submissions are
    /// refused with [`ExecError::Gone`]; jobs already queued still drain
    /// and run before their worker exits (after `POST /restore` they run
    /// against the replaced fleet, whose journaled writes are refused).
    /// Idempotent; also invoked on drop.
    pub fn stop(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for queue in &self.shard_queues {
            queue.close();
        }
        self.store_queue.close();
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for FleetExec {
    fn drop(&mut self) {
        self.stop();
    }
}

/// An in-flight streamed upgrade rollout: per-shard parts arrive as their
/// workers finish. Drain with [`RolloutStream::next_part`] (progress
/// reporting) and close with [`RolloutStream::finish`] for the merged
/// fleet-wide [`UpgradeRollout`] — identical to the synchronous sweep's.
pub struct RolloutStream {
    app: String,
    rx: Receiver<(usize, ShardRollout)>,
    remaining: usize,
    parts: Vec<ShardRollout>,
}

impl RolloutStream {
    /// The app being rolled out.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Shard parts not yet received.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Blocks for the next completed shard's part, or `None` when every
    /// part has been received (a shard whose worker died counts as
    /// received-empty: its homes are reported poisoned by later calls, and
    /// the stream must still terminate).
    pub fn next_part(&mut self) -> Option<(usize, &ShardRollout)> {
        while self.remaining > 0 {
            self.remaining -= 1;
            match self.rx.recv() {
                Ok((shard, part)) => {
                    self.parts.push(part);
                    let part = self.parts.last().expect("just pushed");
                    return Some((shard, part));
                }
                Err(_) => {
                    self.remaining = 0;
                }
            }
        }
        None
    }

    /// Drains any remaining parts and merges everything received into the
    /// fleet-wide rollout.
    pub fn finish(mut self) -> UpgradeRollout {
        while self.next_part().is_some() {}
        UpgradeRollout::merge(self.app.clone(), self.parts)
    }
}
