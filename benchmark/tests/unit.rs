//! Unit tests for the benchmark's own arithmetic: percentiles and phase
//! reduction, the Zipf draw, never-seen inputs, JSON, and `compare`.

use cc_deploy::QMap;
use cc_perf::compare::{compare, judge, worsening, Side, Verdict};
use cc_perf::inputs::{unique_image, Rng, Zipf, UNIQUE_INDICES};
use cc_perf::json::{self, Json};
use cc_perf::spec::{Better, END_TO_END, IMG_PER_S, P50_US, TILES};
use cc_perf::stats::{better_end, median, percentile, phase_stats, relative_iqr, Completion};
use cc_tensor::{Shape, Tensor};
use std::collections::HashSet;

fn metric(name: &str) -> &'static cc_perf::spec::EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("declared metric")
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), Some(5.0));
    assert_eq!(percentile(&v, 0.9), Some(9.0));
    assert_eq!(percentile(&v, 0.91), Some(10.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 1.0), Some(10.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
}

#[test]
fn median_and_iqr() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    // statistics.quantiles([90, 100, 110], n=4) == [90, 100, 110]
    assert!((relative_iqr(&[110.0, 90.0, 100.0]) - 0.2).abs() < 1e-12);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert!((relative_iqr(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    assert_eq!(relative_iqr(&[5.0]), 0.0);
    assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
}

#[test]
fn better_end_reads_a_twentieth_in() {
    let v: Vec<f64> = (1..=41).map(f64::from).collect();
    assert_eq!(better_end(&v, false), 3.0, "third smallest of 41 times");
    assert_eq!(better_end(&v, true), 39.0, "third largest of 41 rates");
    assert_eq!(
        better_end(&[5.0, 1.0, 3.0], false),
        1.0,
        "of three, the best"
    );
    assert_eq!(better_end(&[9.0], true), 9.0);
    assert_eq!(better_end(&[], true), 0.0);
    // Four fifths of the run four times slower: the figure does not move.
    let mut mostly_slow: Vec<f64> = (0..80).map(|i| 400.0 + f64::from(i)).collect();
    mostly_slow.extend((0..20).map(|i| 98.0 + f64::from(i % 5)));
    assert!((98.0..=102.0).contains(&better_end(&mostly_slow, false)));
    assert!(median(&mostly_slow) > 400.0);
}

/// A steady phase reads its true rate and latency; a stall confined to a
/// few slices moves neither.
#[test]
fn phase_stats_resists_a_stall() {
    let steady: Vec<Completion> = (1..=1000)
        .map(|i| Completion {
            at_s: i as f64 * 0.001,
            latency_us: 100.0,
        })
        .collect();
    let s = phase_stats(&steady, 1.0);
    assert_eq!(s.samples, 950, "the first 5% are warm-up");
    assert!((s.rate - 1000.0).abs() < 1e-6, "rate {}", s.rate);
    assert_eq!((s.p50_us, s.p90_us), (100.0, 100.0));
    assert_eq!(
        s.rate_slices.len(),
        14,
        "950 kept completions in slices of at least 64"
    );
    assert!((s.mean_rate - 1000.0).abs() < 1e-6);

    // 200 completions in the middle arrive four times slower and wait
    // four times longer.
    let mut at = 0.0;
    let stalled: Vec<Completion> = (0..1000)
        .map(|i| {
            let slow = (400..600).contains(&i);
            at += if slow { 0.004 } else { 0.001 };
            Completion {
                at_s: at,
                latency_us: if slow { 400.0 } else { 100.0 },
            }
        })
        .collect();
    let s = phase_stats(&stalled, 1.0);
    assert!(
        (s.rate - 1000.0).abs() < 1.0,
        "rate {} follows the stall",
        s.rate
    );
    assert_eq!(s.p90_us, 100.0);
    assert_eq!(s.p99_us, 400.0, "the unsliced tail does see it");
    let mean_rate = 1000.0 / at;
    assert!(
        mean_rate < 650.0,
        "a plain mean would have read {mean_rate}"
    );
}

#[test]
fn phase_stats_scales_by_work_per_completion_and_handles_few() {
    let batches: Vec<Completion> = (1..=40)
        .map(|i| Completion {
            at_s: i as f64 * 0.125,
            latency_us: 125_000.0,
        })
        .collect();
    let s = phase_stats(&batches, 8.0);
    assert!((s.rate - 64.0).abs() < 1e-9);
    assert_eq!(
        s.rate_slices.len(),
        4,
        "38 kept batches of 8 make four slices of at least 64 images"
    );
    assert_eq!(phase_stats(&[], 1.0).samples, 0);
    let one = phase_stats(
        &[Completion {
            at_s: 0.5,
            latency_us: 9.0,
        }],
        1.0,
    );
    assert_eq!(one.samples, 0, "a single completion is all warm-up");
}

#[test]
fn rng_is_seeded_and_uniform_enough() {
    let draw = |seed| {
        let mut r = Rng::new(seed);
        (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let mut r = Rng::new(1);
    let mut buckets = [0u32; 10];
    for _ in 0..10_000 {
        let x = r.next_f64();
        assert!((0.0..1.0).contains(&x));
        buckets[r.below(10)] += 1;
    }
    assert!(
        buckets.iter().all(|&b| (800..1200).contains(&b)),
        "{buckets:?}"
    );
}

#[test]
fn zipf_follows_one_over_rank() {
    let zipf = Zipf::new(1024, 1.0);
    let mut rng = Rng::new(3);
    let mut counts = vec![0u32; 1024];
    let n = 200_000;
    for _ in 0..n {
        counts[zipf.sample(&mut rng)] += 1;
    }
    // H(1024) = 7.509...: rank k holds 1 / ((k + 1) H) of the mass.
    let h: f64 = (1..=1024).map(|k| 1.0 / k as f64).sum();
    for rank in [0usize, 1, 9, 99] {
        let expected = n as f64 / ((rank + 1) as f64 * h);
        let got = counts[rank] as f64;
        assert!(
            (got - expected).abs() < 0.1 * expected + 30.0,
            "rank {rank}: {got} vs {expected}"
        );
    }
    assert!(
        counts[1023] > 0 || counts[1000..].iter().any(|&c| c > 0),
        "the tail is reachable"
    );
    // Same seed, same draws.
    let again: Vec<usize> = {
        let mut r = Rng::new(3);
        (0..16).map(|_| zipf.sample(&mut r)).collect()
    };
    let mut r = Rng::new(3);
    assert_eq!(
        again,
        (0..16).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
    );
}

/// Different indices give different bytes after quantization, whatever
/// the base image holds, and only the index pixels move.
#[test]
fn unique_inputs_differ_after_quantization() {
    let scale = 0.037f32;
    let base = Tensor::from_vec(
        Shape::d3(1, 6, 6),
        (0..36).map(|i| (i as f32 - 18.0) * 0.1).collect(),
    );
    let mut digests = HashSet::new();
    let indices = (0..3000u64).chain([9_999, 10_000, 1_000_000, UNIQUE_INDICES - 1]);
    for index in indices {
        let image = unique_image(&base, index, scale);
        assert_eq!(image.as_slice()[4..], base.as_slice()[4..]);
        let q = QMap::quantize(&image, scale);
        assert!(digests.insert(q.digest()), "index {index} repeats a digest");
    }
    assert!(
        digests.insert(QMap::quantize(&base, scale).digest()),
        "the base itself is apart"
    );
}

#[test]
fn json_round_trips() {
    let doc = Json::obj([
        ("name", Json::str("a \"quoted\"\nline")),
        ("n", Json::from(3u64)),
        ("x", Json::Num(0.1 + 0.2)),
        ("big", Json::Num(1.5e300)),
        ("flag", Json::Bool(true)),
        ("none", Json::Null),
        (
            "list",
            Json::Arr(vec![
                Json::Num(-1.0),
                Json::Arr(vec![]),
                Json::obj([("k", Json::Null)]),
            ]),
        ),
    ]);
    assert_eq!(json::parse(&doc.render()), Ok(doc.clone()));
    assert_eq!(json::parse(&doc.render_pretty()), Ok(doc.clone()));
    assert_eq!(
        doc.get("x").and_then(Json::as_f64),
        Some(0.1 + 0.2),
        "every digit survives"
    );
    assert!(
        doc.render().contains("\"n\":3,"),
        "whole numbers print without a fraction"
    );
    assert!(json::parse("{\"a\":1,}").is_err());
    assert!(json::parse("[1 2]").is_err());
    assert!(json::parse("{} x").is_err());
    assert_eq!(
        json::parse(" [\"\\u00e9\\t\"] "),
        Ok(Json::Arr(vec![Json::str("é\t")]))
    );
    assert!(
        json::parse(&"[".repeat(100_000)).is_err(),
        "deep nesting is refused, not recursed into"
    );
}

#[test]
fn worsening_follows_the_metric_direction() {
    assert!((worsening(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
    assert!((worsening(Better::Higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
    assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
    assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
}

#[test]
fn judge_gives_each_verdict() {
    let side = |value: f64, windows: &[f64]| Side {
        value,
        spread: relative_iqr(windows),
    };
    let rate = metric(IMG_PER_S); // higher is better
    let (within, beyond) = (100.0 * rate.bound / 2.0, 100.0 * rate.bound * 1.5);
    let tight = [99.0, 100.0, 101.0];
    let base = side(100.0, &tight);
    assert_eq!(
        judge(rate, &base, &side(100.0 - within, &tight), true),
        Verdict::Ok
    );
    assert_eq!(
        judge(rate, &base, &side(100.0 - beyond, &tight), true),
        Verdict::Regressed
    );
    assert_eq!(
        judge(rate, &base, &side(100.0 + beyond, &tight), true),
        Verdict::Improved
    );
    // Within the bound, but one run's own slices spread by 80%.
    let loose = [60.0, 100.0, 140.0];
    assert_eq!(
        judge(rate, &base, &side(100.0 - within, &loose), true),
        Verdict::Unresolved
    );
    // A regression stays a regression however noisy the run.
    assert_eq!(
        judge(
            rate,
            &side(100.0, &loose),
            &side(100.0 - beyond, &loose),
            true
        ),
        Verdict::Regressed
    );

    let latency = metric(P50_US); // lower is better
    let beyond = 100.0 * latency.bound * 1.1;
    assert_eq!(
        judge(latency, &side(100.0, &[]), &side(100.0 + beyond, &[]), true),
        Verdict::Regressed
    );
    assert_eq!(
        judge(latency, &side(100.0, &[]), &side(100.0 - beyond, &[]), true),
        Verdict::Improved
    );

    let tiles = metric(TILES); // exact at one seed
    assert_eq!(
        judge(tiles, &side(189.0, &[]), &side(189.0, &[]), true),
        Verdict::Same
    );
    assert_eq!(
        judge(tiles, &side(189.0, &[]), &side(188.0, &[]), true),
        Verdict::Changed
    );
    // Across seeds exact metrics fall back to their bound.
    assert_eq!(
        judge(tiles, &side(189.0, &[]), &side(190.0, &[]), false),
        Verdict::Ok
    );
    assert_eq!(
        judge(tiles, &side(189.0, &[]), &side(230.0, &[]), false),
        Verdict::Regressed
    );
}

fn ledger(seed: u64, img_per_s: f64, tiles: f64, failed: u64) -> Json {
    let value = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
    let metrics = END_TO_END.iter().map(|m| {
        let v = match m.name {
            IMG_PER_S => img_per_s,
            TILES => tiles,
            _ => 1.0,
        };
        (m.name, value(v))
    });
    Json::obj([
        ("schema", Json::str(cc_perf::report::SCHEMA)),
        ("seed", Json::from(seed)),
        (
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("serve_closed")),
                ("failed", Json::from(failed)),
                ("end_to_end", Json::obj(metrics)),
            ])]),
        ),
    ])
}

#[test]
fn compare_rows_and_exit_verdict() {
    let base = ledger(1, 1000.0, 9.0, 0);
    let fails = |b: &Json| {
        compare(&base, b, false)
            .unwrap()
            .iter()
            .any(|r| r.verdict.fails())
    };
    let rows = compare(&base, &base, false).unwrap();
    let exact = compare(&base, &base, true).unwrap();
    assert_eq!(
        exact.len(),
        END_TO_END.iter().filter(|m| m.exact).count() + 1
    );
    assert!(compare(&base, &ledger(1, 500.0, 9.0, 0), true)
        .unwrap()
        .iter()
        .all(|r| !r.verdict.fails()));
    assert_eq!(
        rows.len(),
        END_TO_END.len() + 1,
        "one row per metric plus the failed row"
    );
    assert!(!fails(&base));
    let bound = metric(IMG_PER_S).bound;
    assert!(
        !fails(&ledger(1, 1000.0 * (1.0 - bound / 2.0), 9.0, 0)),
        "within the bound"
    );
    assert!(
        fails(&ledger(1, 1000.0 * (1.0 - bound * 1.5), 9.0, 0)),
        "beyond the bound regresses"
    );
    assert!(
        fails(&ledger(1, 1000.0, 10.0, 0)),
        "an exact metric moved at one seed"
    );
    assert!(
        !fails(&ledger(2, 1000.0, 9.0, 0)),
        "other seed, same values"
    );
    assert!(
        fails(&ledger(1, 1000.0, 9.0, 3)),
        "more failures than the base"
    );
    assert!(!compare(&ledger(1, 1000.0, 9.0, 3), &base, false)
        .unwrap()
        .iter()
        .any(|r| r.verdict.fails()));

    let mut other_schema = base.clone();
    if let Json::Obj(members) = &mut other_schema {
        members[0].1 = Json::str("cc-perf/0");
    }
    assert!(compare(&base, &other_schema, false).is_err());
    // A workload missing from B is reported, not skipped.
    let empty = Json::obj([
        ("schema", Json::str(cc_perf::report::SCHEMA)),
        ("seed", Json::from(1u64)),
        ("workloads", Json::Arr(vec![])),
    ]);
    assert!(compare(&base, &empty, false)
        .unwrap()
        .iter()
        .all(|r| r.verdict == Verdict::Missing));
}
