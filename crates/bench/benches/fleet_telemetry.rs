//! Telemetry overhead bench: the 256×4 install grid with the fleet event
//! bus attached vs. disabled, plus the first queue-dispatched sweep
//! datapoint with the host's hardware thread count recorded.
//!
//! The tentpole claim under test: publishing typed events from the
//! install/detect hot paths is cheap enough to leave on in production —
//! the target is **< 3 % throughput overhead** on the repeated-install
//! grid. The wired variant pays the whole cost on the publishing
//! threads: each publish folds its events into the bus's registry.

use criterion::{criterion_group, criterion_main, Criterion};
use hg_api::{ExecConfig, FleetExec};
use hg_corpus::device_control_apps;
use hg_service::{Fleet, HomeId, RuleStore, TelemetryBus};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The corpus slice rolled out to every home.
fn app_slice(apps: usize) -> Vec<(&'static str, &'static str)> {
    device_control_apps()
        .iter()
        .take(apps)
        .map(|app| (app.name, app.source))
        .collect()
}

/// Builds a fleet of `homes`, optionally wired to `bus`, and
/// force-installs `apps` corpus apps into every home.
fn populate(homes: usize, apps: usize, bus: Option<&Arc<TelemetryBus>>) -> (Fleet, Vec<HomeId>) {
    let fleet = Fleet::builder(RuleStore::shared()).shards(16).build();
    if let Some(bus) = bus {
        assert!(fleet.attach_telemetry(bus.clone()));
    }
    let ids: Vec<HomeId> = (0..homes).map(|_| fleet.create_home().unwrap()).collect();
    for (name, source) in app_slice(apps) {
        for result in fleet.install_many(&ids, source, name, None).unwrap() {
            result.1.unwrap();
        }
    }
    (fleet, ids)
}

/// One timed populate of the grid, in installs per second.
fn grid_round(homes: usize, apps: usize, bus: Option<&Arc<TelemetryBus>>) -> f64 {
    let started = Instant::now();
    let (fleet, ids) = populate(homes, apps, bus);
    let rate = (homes * apps) as f64 / started.elapsed().as_secs_f64();
    drop((fleet, ids));
    rate
}

fn bench_fleet_telemetry(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (homes, apps, rounds) = (256, 4, 15);

    // ---- telemetry on/off on the identical grid ------------------------
    // The variants are interleaved round-robin (off, on) and overhead is
    // the **median of per-iteration ratios**: the container's
    // throughput drifts by double digits over a bench run, so measuring
    // all of one variant before the next would charge the drift to
    // whichever ran later, and a single perturbed round would swamp a
    // mean. Adjacent rounds are ~25 ms apart — close enough that a ratio
    // between them isolates telemetry from the drift.
    let bus = Arc::new(TelemetryBus::new());
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        // The within-iteration order also alternates, so allocator/cache
        // warmth left by the previous round is not systematically
        // credited to one variant.
        for slot in 0..2 {
            match (round + slot) % 2 {
                0 => offs.push(grid_round(homes, apps, None)),
                _ => ons.push(grid_round(homes, apps, Some(&bus))),
            }
        }
    }
    let mut ratios: Vec<f64> = offs
        .iter()
        .zip(&ons)
        .map(|(off, on)| 100.0 * (off - on) / off)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    let overhead_pct = ratios[ratios.len() / 2];
    let best = |rates: &[f64]| rates.iter().cloned().fold(0f64, f64::max);
    let (off_rate, on_rate) = (best(&offs), best(&ons));
    println!(
        "grid {homes}x{apps}: telemetry off {off_rate:.0} installs/sec, \
         on {on_rate:.0} installs/sec \
         ({overhead_pct:+.2}% median overhead, target < 3%)"
    );
    let installs = bus.registry().counter("installs_total");
    println!(
        "  bus: {} events published and folded ({installs} installs), {} dropped from the ring",
        bus.published(),
        bus.dropped_events()
    );
    assert_eq!(
        installs,
        (rounds * homes * apps) as u64,
        "every wired install is counted once"
    );

    // ---- queue-dispatched sweep: the multi-core datapoint --------------
    // A fleet-wide upgrade through the per-shard work queues. On one core
    // the workers time-slice; with more hardware threads the shard sweeps
    // genuinely overlap — `hardware_threads` records which regime this
    // datapoint measured.
    let (fleet, _ids) = populate(homes, apps, Some(&bus));
    let exec = FleetExec::start(Arc::new(fleet), ExecConfig::default());
    let (name, source) = app_slice(1)[0];
    let v2 = format!("{source}\n// fleet v2\n");
    let started = Instant::now();
    let mut stream = exec.begin_upgrade(v2, name.to_string()).unwrap().unwrap();
    while stream.next_part().is_some() {}
    let rollout = stream.finish();
    let elapsed = started.elapsed();
    let touched = rollout.upgraded.len() + rollout.pending.len();
    assert_eq!(touched, homes, "every home runs the first corpus app");
    let sweep_rate = touched as f64 / elapsed.as_secs_f64();
    println!(
        "  queue-dispatched sweep: {touched} homes in {elapsed:.2?} \
         ({sweep_rate:.0} homes/sec on {threads} hardware thread(s))"
    );
    exec.stop();

    hg_bench::emit_summary(
        "fleet_telemetry",
        &[
            ("installs_per_sec_off", off_rate),
            ("installs_per_sec_on", on_rate),
            ("telemetry_overhead_pct", overhead_pct),
            ("queue_sweep_homes_per_sec", sweep_rate),
            ("hardware_threads", threads as f64),
        ],
    );

    // Criterion sampling: the small grid with the bus attached, so
    // per-iteration publish cost shows up in the tracked timings.
    let mut group = c.benchmark_group("fleet_telemetry");
    group.sample_size(10);
    group.bench_function("install_grid_16x4_wired", |b| {
        b.iter(|| black_box(populate(16, 4, Some(&bus))))
    });
    group.bench_function("install_grid_16x4_silent", |b| {
        b.iter(|| black_box(populate(16, 4, None)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet_telemetry
}
criterion_main!(benches);
