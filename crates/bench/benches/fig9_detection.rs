//! Fig. 9: CAI detection overhead for a pair of rules, per threat kind.
//!
//! The paper reports per-kind detection times on a Galaxy S8, dominated by
//! constraint solving, with EC cheaper than AR/GC (half the constraints)
//! and CT/SD/LT reusing AR's solving result (DC reusing EC's). This bench
//! reproduces the *shape* on representative rule pairs drawn from the
//! paper's own examples, plus the filtering-only fast path.

use criterion::{criterion_group, criterion_main, Criterion};
use hg_bench::corpus_rules;
use hg_detector::{Detector, PreparedRule, VerdictCache};
use std::hint::black_box;
use std::sync::Arc;

fn pairs() -> Vec<(
    &'static str,
    Vec<hg_rules::rule::Rule>,
    Vec<hg_rules::rule::Rule>,
)> {
    vec![
        // AR: ComfortTV vs ColdDefender (Fig. 3).
        (
            "AR_pair",
            corpus_rules("ComfortTV"),
            corpus_rules("ColdDefender"),
        ),
        // GC: heater-style vs window-style conflict.
        (
            "GC_pair",
            corpus_rules("ItsTooCold"),
            corpus_rules("WindowOrAC"),
        ),
        // CT(+SD): ItsTooHot vs EnergySaver (§III-B).
        (
            "CT_SD_pair",
            corpus_rules("ItsTooHot"),
            corpus_rules("EnergySaver"),
        ),
        // LT: LightUpTheNight against itself-style second app.
        (
            "LT_pair",
            corpus_rules("LightUpTheNight"),
            corpus_rules("SmartNightlight"),
        ),
        // EC/DC: NightCare vs BurglarFinder (Fig. 5).
        (
            "EC_DC_pair",
            corpus_rules("NightCare"),
            corpus_rules("BurglarFinder"),
        ),
        // Unrelated pair: candidate filtering rejects without solving.
        (
            "filtered_pair",
            corpus_rules("KnockKnock"),
            corpus_rules("LeakAlert"),
        ),
    ]
}

fn bench_detection(c: &mut Criterion) {
    let detector = Detector::store_wide();
    let mut group = c.benchmark_group("fig9_detect_pair");
    for (label, rules_a, rules_b) in pairs() {
        if rules_a.is_empty() || rules_b.is_empty() {
            continue;
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let (threats, stats) =
                    detector.detect_pair(black_box(&rules_a[0]), black_box(&rules_b[0]));
                black_box((threats, stats))
            })
        });
    }
    group.finish();
}

fn bench_verdict_cache(c: &mut Criterion) {
    // The fleet-shared cache's fast path vs. a fresh solve of the same
    // prepared pair: what every home after the first pays for a repeated
    // store-app pair.
    let cache = Arc::new(VerdictCache::new());
    let cached = Detector::store_wide().with_cache(cache.clone());
    let uncached = Detector::store_wide();
    let a = corpus_rules("ComfortTV");
    let b = corpus_rules("ColdDefender");
    let pa = PreparedRule::prepare(&a[0], &cached.unification);
    let pb = PreparedRule::prepare(&b[0], &cached.unification);
    // Warm the entry once.
    let (warm, _) = cached.detect_pair_prepared(&pa, &pb);
    let (truth, _) = uncached.detect_pair_prepared(&pa, &pb);
    assert_eq!(warm, truth, "cached verdict must be bit-identical");

    let mut group = c.benchmark_group("verdict_cache");
    group.bench_function("uncached_pair", |bch| {
        bch.iter(|| black_box(uncached.detect_pair_prepared(&pa, &pb)))
    });
    group.bench_function("cached_pair_hit", |bch| {
        bch.iter(|| black_box(cached.detect_pair_prepared(&pa, &pb)))
    });
    group.finish();
    assert!(cache.stats().hits > 0);
}

fn bench_solver_reuse(c: &mut Criterion) {
    // The reuse effect: detect_pair solves the situation overlap once and
    // reuses it across AR/CT/SD/LT, so a full pair detection costs little
    // more than one solve.
    let detector = Detector::store_wide();
    let a = corpus_rules("ComfortTV");
    let b = corpus_rules("ColdDefender");
    let mut group = c.benchmark_group("fig9_reuse");
    group.bench_function("one_solve_direct", |bch| {
        let s1 = a[0].situation();
        let s2 = b[0].situation();
        bch.iter(|| black_box(detector.solver.solve(&[&s1, &s2])))
    });
    group.bench_function("full_pair_all_kinds", |bch| {
        bch.iter(|| black_box(detector.detect_pair(&a[0], &b[0])))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_detection, bench_solver_reuse, bench_verdict_cache
}
criterion_main!(benches);
