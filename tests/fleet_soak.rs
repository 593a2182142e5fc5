//! Large-population soak harness: stands up a generated heterogeneous
//! fleet (`hg_bench::fleet_gen`), asserts chained-threat detection
//! (`crates/detector/src/chained.rs`, paper §VI-D) fires across the
//! population, and kills the journaled fleet at its final offset to prove
//! recovery is bit-identical — with the background checkpointer running
//! concurrently the whole time, each tick replacing the previous
//! checkpoint with a full image.
//!
//! Sized by `HG_SOAK_HOMES` (default 300, so the suite stays a fast CI
//! smoke; set it higher for a long soak). `homebench/`'s `fleet_rollout`
//! workload builds its 5k-home fleet with the same generator.

use hg_bench::fleet_gen::{populate, relay_ladder, FleetSpec};
use hg_journal::{DirBackend, Journal, JournalBackend, MemBackend};
use hg_service::{start_checkpointer, Fleet, RuleStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn soak_homes() -> usize {
    std::env::var("HG_SOAK_HOMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// The generated population must exercise the chained-threat detector:
/// relay-ladder homes confirm their CT links one by one, so the last
/// link's install report carries multi-hop chains.
#[test]
fn generated_population_reports_chained_threats() {
    let spec = FleetSpec::sized(soak_homes());
    let fleet = Fleet::builder(RuleStore::shared())
        .shards(spec.shards)
        .build();
    let (ids, stats) = populate(&fleet, &spec);
    assert_eq!(ids.len(), spec.homes);
    assert_eq!(
        stats.failures, 0,
        "generator must not hit errors: {stats:?}"
    );
    let expected_chain_homes = (spec.homes as u64).div_ceil(spec.chain_every as u64);
    assert!(
        stats.chained_reports >= expected_chain_homes,
        "every relay-ladder home must surface a chained report: \
         {} < {expected_chain_homes} ({stats:?})",
        stats.chained_reports
    );

    // Re-probing the last ladder link on a chain home reproduces the
    // chain: detection is a pure function of the installed rule set.
    let ladder = relay_ladder(spec.chain_depth);
    let (_, last_link) = ladder.last().expect("ladder has links");
    let chain_home = ids[0]; // home 0 always installs the ladder
    let report = fleet
        .check_install(chain_home, last_link)
        .expect("ladder link is installed on home 0");
    assert!(
        !report.chains.is_empty(),
        "re-check of {last_link} on the chain home must carry chains"
    );
    // `Chain::len` counts edges: a `chain_depth`-link ladder spans
    // `chain_depth - 1` CovertTriggering edges.
    assert!(
        report
            .chains
            .iter()
            .any(|c| c.len() >= spec.chain_depth - 1),
        "a chain must span the whole {}-link ladder: {:?}",
        spec.chain_depth,
        report.chains
    );
}

/// Kill-and-recover at the final offset, with the background checkpointer
/// racing the populate: the recovered fleet is snapshot-identical, and
/// the checkpoints bounded the replay work and left one document.
#[test]
fn soak_fleet_survives_kill_and_recover() {
    let spec = FleetSpec {
        seed: 0xBEEF,
        ..FleetSpec::sized(soak_homes())
    };
    let backend = MemBackend::new();
    let journal = Arc::new(Journal::open(Box::new(backend.clone())).unwrap());
    let fleet = Arc::new(
        Fleet::builder(RuleStore::shared())
            .shards(spec.shards)
            .build(),
    );
    assert!(fleet.attach_journal(journal.clone()).unwrap());

    // Checkpoint aggressively while the generator mutates the fleet: the
    // scheduler's exclusive gate must interleave cleanly with the
    // journaled mutation paths.
    let checkpointer = start_checkpointer(fleet.clone(), Duration::from_millis(5));
    let (_ids, stats) = populate(&fleet, &spec);
    checkpointer.stop();
    assert!(stats.chained_reports > 0, "{stats:?}");

    // Crash: reopen the backing storage cold and recover.
    let reopened = Arc::new(Journal::open(Box::new(backend.fork())).unwrap());
    let replay_span = reopened.next_offset() - reopened.last_checkpoint_offset().unwrap_or(0);
    let recovered = Fleet::recover(reopened).expect("soak journal recovers");
    assert_eq!(recovered.len(), fleet.len());
    assert_eq!(
        recovered.snapshot().unwrap().to_text(),
        fleet.snapshot().unwrap().to_text(),
        "recovered soak fleet must be bit-identical"
    );
    if journal.last_checkpoint_offset().unwrap_or(0) > 0 {
        assert!(
            replay_span < journal.next_offset(),
            "checkpoints must have bounded the replay tail"
        );
    }
    assert_eq!(backend.checkpoints().unwrap().len(), 1, "one checkpoint");

    // The recovered fleet keeps journaling: `Fleet::recover` re-attached
    // the reopened journal, so new mutations land as fresh records.
    let recovered_journal = recovered.journal().expect("recover re-attaches").clone();
    let before = recovered_journal.next_offset();
    recovered.create_home().unwrap();
    assert!(
        recovered_journal.next_offset() > before,
        "post-recovery mutations must keep journaling"
    );
}

/// Real-disk soak smoke: the journaled population runs over a
/// [`DirBackend`] in a scratch directory, measuring append+sync latency
/// through the whole WAL stack (frame encode, segment file append,
/// fsync) and proving cold-start recovery from the on-disk bytes.
///
/// Gated behind `HG_SOAK_DISK=1` — CI machines with throttled or
/// network-backed disks would turn fsync timing into noise. Population
/// size still follows `HG_SOAK_HOMES`.
#[test]
fn disk_backend_soak_smoke_measures_append_sync_latency() {
    if std::env::var("HG_SOAK_DISK").map_or(true, |v| v != "1") {
        eprintln!("skipping disk soak (set HG_SOAK_DISK=1 to run)");
        return;
    }
    let dir = std::env::temp_dir().join(format!("hg-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = DirBackend::new(&dir).expect("scratch journal dir");
    let journal = Arc::new(Journal::open(Box::new(backend)).unwrap());
    let spec = FleetSpec {
        seed: 0xD15C,
        ..FleetSpec::sized(soak_homes())
    };
    let fleet = Arc::new(
        Fleet::builder(RuleStore::shared())
            .shards(spec.shards)
            .build(),
    );
    assert!(fleet.attach_journal(journal.clone()).unwrap());

    let started = Instant::now();
    let (_ids, stats) = populate(&fleet, &spec);
    let elapsed = started.elapsed();
    assert_eq!(
        stats.failures, 0,
        "disk soak must not hit errors: {stats:?}"
    );
    journal.sync().expect("final fsync");
    let records = journal.next_offset();
    assert!(records > 0, "population must journal records");
    eprintln!(
        "disk soak: {} homes, {records} records in {:?} ({:.1} µs/record, fsynced)",
        spec.homes,
        elapsed,
        elapsed.as_micros() as f64 / records as f64,
    );

    // Cold-start: a fresh process-equivalent reopen of the same directory
    // recovers the identical fleet.
    let reopened = Arc::new(Journal::open(Box::new(DirBackend::new(&dir).unwrap())).unwrap());
    let recovered = Fleet::recover(reopened).expect("disk journal recovers");
    assert_eq!(
        recovered.snapshot().unwrap().to_text(),
        fleet.snapshot().unwrap().to_text(),
        "disk-recovered soak fleet must be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
