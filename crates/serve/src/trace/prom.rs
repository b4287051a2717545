//! Prometheus-style text exposition of serving metrics.
//!
//! Renders a [`TelemetrySnapshot`] (plus the trace recorder's own
//! gauges) in the [Prometheus text format]: `# HELP` / `# TYPE` comment
//! pairs followed by `name{labels} value` samples, one family per
//! metric. Everything is computed from the snapshot — the exposition
//! and the bench reports read the same numbers.
//!
//! [Prometheus text format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use super::TraceStats;
use crate::qos::QosClass;
use crate::telemetry::TelemetrySnapshot;
use std::fmt::Write as _;

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Renders `snapshot` (and, when present, `trace` recorder gauges) as a
/// Prometheus text exposition document.
pub fn prometheus_text(snapshot: &TelemetrySnapshot, trace: Option<TraceStats>) -> String {
    let mut out = String::with_capacity(2048);

    family(&mut out, "cc_serve_requests_total", "Requests by lifecycle disposition.", "counter");
    sample(&mut out, "cc_serve_requests_total", "state=\"submitted\"", snapshot.submitted as f64);
    sample(&mut out, "cc_serve_requests_total", "state=\"completed\"", snapshot.completed as f64);
    sample(&mut out, "cc_serve_requests_total", "state=\"shed\"", snapshot.shed as f64);
    sample(&mut out, "cc_serve_requests_total", "state=\"failed\"", snapshot.failed as f64);

    family(
        &mut out,
        "cc_serve_shed_total",
        "Shed requests by QoS class (deadline sheds included).",
        "counter",
    );
    for class in QosClass::all() {
        sample(
            &mut out,
            "cc_serve_shed_total",
            &format!("class=\"{}\"", class.label()),
            snapshot.shed_by_class[class.index()] as f64,
        );
    }

    family(
        &mut out,
        "cc_serve_deadline_shed_total",
        "Requests shed because their deadline passed while queued.",
        "counter",
    );
    sample(&mut out, "cc_serve_deadline_shed_total", "", snapshot.deadline_shed as f64);

    family(&mut out, "cc_serve_queue_depth", "Requests admitted but not yet dispatched.", "gauge");
    sample(&mut out, "cc_serve_queue_depth", "", snapshot.queue_depth as f64);

    family(&mut out, "cc_serve_batches_total", "Batches dispatched to workers.", "counter");
    sample(&mut out, "cc_serve_batches_total", "", snapshot.batches as f64);

    family(
        &mut out,
        "cc_serve_batch_occupancy_mean",
        "Mean requests per dispatched batch.",
        "gauge",
    );
    sample(&mut out, "cc_serve_batch_occupancy_mean", "", snapshot.mean_batch_occupancy);

    family(
        &mut out,
        "cc_serve_throughput_rps",
        "Completed requests per second over the active window.",
        "gauge",
    );
    sample(&mut out, "cc_serve_throughput_rps", "", snapshot.throughput_rps);

    family(
        &mut out,
        "cc_serve_latency_seconds",
        "End-to-end request latency summary (histogram estimates).",
        "gauge",
    );
    sample(&mut out, "cc_serve_latency_seconds", "stat=\"mean\"", snapshot.mean_latency.as_secs_f64());
    sample(&mut out, "cc_serve_latency_seconds", "quantile=\"0.5\"", snapshot.p50.as_secs_f64());
    sample(&mut out, "cc_serve_latency_seconds", "quantile=\"0.95\"", snapshot.p95.as_secs_f64());
    sample(&mut out, "cc_serve_latency_seconds", "quantile=\"0.99\"", snapshot.p99.as_secs_f64());

    family(
        &mut out,
        "cc_serve_stage_busy_fraction",
        "Busy fraction per pipeline stage over elapsed time.",
        "gauge",
    );
    for (i, &frac) in snapshot.stage_busy.iter().enumerate() {
        sample(&mut out, "cc_serve_stage_busy_fraction", &format!("stage=\"{i}\""), frac);
    }

    family(
        &mut out,
        "cc_serve_shard_busy_fraction",
        "Busy kernel fraction per shard lane over elapsed time.",
        "gauge",
    );
    for (i, &frac) in snapshot.shard_busy.iter().enumerate() {
        sample(&mut out, "cc_serve_shard_busy_fraction", &format!("shard=\"{i}\""), frac);
    }

    // Heterogeneous fleets additionally aggregate by array geometry; the
    // family is omitted entirely for unlabeled (homogeneous) serving.
    if !snapshot.shard_geometry_busy.is_empty() {
        family(
            &mut out,
            "cc_serve_geometry_busy_fraction",
            "Busy kernel fraction per array geometry over elapsed time.",
            "gauge",
        );
        for (label, frac) in &snapshot.shard_geometry_busy {
            sample(
                &mut out,
                "cc_serve_geometry_busy_fraction",
                &format!("geometry=\"{label}\""),
                *frac,
            );
        }
    }

    family(
        &mut out,
        "cc_serve_worker_panics_total",
        "Worker and pipeline-stage panics caught at the unwind boundary.",
        "counter",
    );
    sample(&mut out, "cc_serve_worker_panics_total", "", snapshot.worker_panics as f64);

    family(
        &mut out,
        "cc_serve_band_faults_total",
        "Band executions that returned poisoned or dead.",
        "counter",
    );
    sample(&mut out, "cc_serve_band_faults_total", "", snapshot.band_faults as f64);

    family(
        &mut out,
        "cc_serve_band_retries_total",
        "Batch retries spent recovering from band faults.",
        "counter",
    );
    sample(&mut out, "cc_serve_band_retries_total", "", snapshot.band_retries as f64);

    family(
        &mut out,
        "cc_serve_shard_quarantined",
        "Shard lanes currently quarantined by health scoring.",
        "gauge",
    );
    sample(&mut out, "cc_serve_shard_quarantined", "", snapshot.shards_quarantined as f64);

    family(
        &mut out,
        "cc_serve_retunes_total",
        "Control-plane retune decisions applied to the live server.",
        "counter",
    );
    sample(&mut out, "cc_serve_retunes_total", "", snapshot.retunes as f64);

    family(
        &mut out,
        "cc_serve_swaps_total",
        "Model hot-swaps completed while serving.",
        "counter",
    );
    sample(&mut out, "cc_serve_swaps_total", "", snapshot.swaps as f64);

    family(&mut out, "cc_serve_cache_events_total", "Response memo-cache events.", "counter");
    sample(&mut out, "cc_serve_cache_events_total", "event=\"hit\"", snapshot.cache.hits as f64);
    sample(&mut out, "cc_serve_cache_events_total", "event=\"miss\"", snapshot.cache.misses as f64);
    sample(
        &mut out,
        "cc_serve_cache_events_total",
        "event=\"coalesced_hit\"",
        snapshot.cache.coalesced_hits as f64,
    );
    sample(
        &mut out,
        "cc_serve_cache_events_total",
        "event=\"deferred\"",
        snapshot.cache.deferred as f64,
    );
    sample(
        &mut out,
        "cc_serve_cache_events_total",
        "event=\"eviction\"",
        snapshot.cache.evictions as f64,
    );

    family(&mut out, "cc_serve_cache_entries", "Live response memo-cache entries.", "gauge");
    sample(&mut out, "cc_serve_cache_entries", "", snapshot.cache.entries as f64);
    family(&mut out, "cc_serve_cache_bytes", "Bytes held by the response memo-cache.", "gauge");
    sample(&mut out, "cc_serve_cache_bytes", "", snapshot.cache.bytes as f64);

    if let Some(stats) = trace {
        family(
            &mut out,
            "cc_serve_trace_enabled",
            "Whether the trace recorder is currently capturing events.",
            "gauge",
        );
        sample(&mut out, "cc_serve_trace_enabled", "", if stats.enabled { 1.0 } else { 0.0 });
        family(&mut out, "cc_serve_trace_capacity_events", "Trace ring capacity.", "gauge");
        sample(&mut out, "cc_serve_trace_capacity_events", "", stats.capacity as f64);
        family(&mut out, "cc_serve_trace_events_total", "Trace events ever recorded.", "counter");
        sample(&mut out, "cc_serve_trace_events_total", "", stats.recorded as f64);
        family(
            &mut out,
            "cc_serve_trace_dropped_total",
            "Trace events lost to ring overwrite or slot collision.",
            "counter",
        );
        sample(&mut out, "cc_serve_trace_dropped_total", "", stats.dropped as f64);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use std::time::Duration;

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            submitted: 100,
            completed: 90,
            shed: 10,
            shed_by_class: [1, 2, 7],
            deadline_shed: 4,
            failed: 2,
            worker_panics: 1,
            band_faults: 6,
            band_retries: 5,
            shards_quarantined: 1,
            retunes: 8,
            swaps: 2,
            queue_depth: 3,
            batches: 30,
            mean_batch_occupancy: 3.0,
            throughput_rps: 123.5,
            mean_latency: Duration::from_millis(2),
            p50: Duration::from_millis(1),
            p95: Duration::from_millis(5),
            p99: Duration::from_millis(9),
            stage_busy: vec![0.5, 0.25],
            shard_busy: vec![0.75],
            shard_geometry_busy: vec![("8x16-MX8".to_string(), 0.75)],
            cache: CacheStats {
                hits: 40,
                misses: 60,
                coalesced_hits: 12,
                deferred: 7,
                evictions: 5,
                entries: 55,
                bytes: 7040,
            },
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn exposition_covers_every_family() {
        let text = prometheus_text(
            &snapshot(),
            Some(TraceStats { enabled: true, capacity: 16384, recorded: 500, dropped: 2 }),
        );
        for family in [
            "cc_serve_requests_total",
            "cc_serve_shed_total",
            "cc_serve_deadline_shed_total",
            "cc_serve_queue_depth",
            "cc_serve_batches_total",
            "cc_serve_batch_occupancy_mean",
            "cc_serve_throughput_rps",
            "cc_serve_latency_seconds",
            "cc_serve_stage_busy_fraction",
            "cc_serve_shard_busy_fraction",
            "cc_serve_geometry_busy_fraction",
            "cc_serve_worker_panics_total",
            "cc_serve_band_faults_total",
            "cc_serve_band_retries_total",
            "cc_serve_shard_quarantined",
            "cc_serve_retunes_total",
            "cc_serve_swaps_total",
            "cc_serve_cache_events_total",
            "cc_serve_cache_entries",
            "cc_serve_cache_bytes",
            "cc_serve_trace_enabled",
            "cc_serve_trace_capacity_events",
            "cc_serve_trace_events_total",
            "cc_serve_trace_dropped_total",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "missing HELP for {family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
            assert!(
                text.lines().any(|l| l.starts_with(family) && !l.starts_with('#')),
                "missing sample for {family}"
            );
        }
        assert!(text.contains("cc_serve_requests_total{state=\"submitted\"} 100"));
        assert!(text.contains("cc_serve_requests_total{state=\"failed\"} 2"));
        assert!(text.contains("cc_serve_worker_panics_total 1"));
        assert!(text.contains("cc_serve_shard_quarantined 1"));
        assert!(text.contains("cc_serve_shed_total{class=\"interactive\"} 1"));
        assert!(text.contains("cc_serve_shed_total{class=\"batch\"} 7"));
        assert!(text.contains("cc_serve_latency_seconds{quantile=\"0.95\"} 0.005"));
        assert!(text.contains("cc_serve_stage_busy_fraction{stage=\"1\"} 0.25"));
        assert!(text.contains("cc_serve_cache_events_total{event=\"hit\"} 40"));
        assert!(text.contains("cc_serve_cache_events_total{event=\"coalesced_hit\"} 12"));
        assert!(text.contains("cc_serve_cache_events_total{event=\"deferred\"} 7"));
        assert!(text.contains("cc_serve_retunes_total 8"));
        assert!(text.contains("cc_serve_swaps_total 2"));
        assert!(text.contains("cc_serve_trace_enabled 1"));
        assert!(text.contains("cc_serve_trace_dropped_total 2"));
    }

    #[test]
    fn trace_families_are_optional() {
        let text = prometheus_text(&snapshot(), None);
        assert!(!text.contains("cc_serve_trace_"));
        assert!(text.contains("cc_serve_requests_total"));
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        let text = prometheus_text(&snapshot(), Some(TraceStats::default()));
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "), "{line}");
            } else {
                let (name, value) = line.rsplit_once(' ').expect("sample line needs a value");
                assert!(name.starts_with("cc_serve_"), "{line}");
                assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
            }
        }
    }
}
