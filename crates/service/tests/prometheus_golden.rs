//! Golden test for the Prometheus text exposition: a fixed
//! [`MetricsSnapshot`] — every counter a distinct non-zero value, two cache
//! shards, three histograms with known samples, a queue depth and
//! flight-recorder totals — must render byte-for-byte to the committed
//! `golden/prometheus.txt`. Any change to a series name, help text, family
//! order or number format shows up as a diff against that file.

use std::time::Duration;

use moqo_service::{
    render_prometheus, CacheSnapshot, HistogramSnapshot, LogHistogram, MetricsSnapshot,
    ShardCacheSnapshot, TraceStats,
};

const GOLDEN: &str = include_str!("golden/prometheus.txt");

fn histogram(samples_us: &[u64]) -> HistogramSnapshot {
    let hist = LogHistogram::new();
    for &us in samples_us {
        hist.record_us(us);
    }
    hist.snapshot()
}

fn fixed_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        uptime: Duration::from_millis(1_234_500),
        submitted: 11,
        completed: 12,
        rejected: 13,
        timed_out: 14,
        failed: 15,
        queue_full: 16,
        // Always 0 in a live service, and not part of the exposition.
        shed: 0,
        panics_total: 18,
        respawns: 19,
        stalls_detected: 20,
        downgraded_blocks: 22,
        throughput_rps: 42.25,
        p50: Duration::from_micros(1_500),
        p95: Duration::from_micros(9_000),
        p99: Duration::from_micros(240_000),
        queue_p50: Duration::from_micros(7),
        queue_p95: Duration::from_micros(960),
        queue_p99: Duration::from_micros(1_000),
        service_p50: Duration::from_micros(3_500),
        service_p95: Duration::from_millis(1_900),
        service_p99: Duration::from_secs(2),
        blocks_exa: 31,
        blocks_rta: 32,
        blocks_ira: 33,
        blocks_rmq: 34,
        blocks_cached: 35,
        alive_workers: 3,
        cache: CacheSnapshot {
            hits: 101,
            misses: 102,
            warm_starts: 103,
            insertions: 104,
            evictions: 105,
            entries: 9,
            per_shard: vec![
                ShardCacheSnapshot {
                    entries: 4,
                    evictions: 60,
                },
                ShardCacheSnapshot {
                    entries: 5,
                    evictions: 45,
                },
            ],
        },
        latency_histogram: histogram(&[5, 5, 100, 10_000, 250_000]),
        queue_wait_histogram: histogram(&[0, 7, 1_000]),
        service_time_histogram: histogram(&[40, 3_500, 2_000_000]),
    }
}

#[test]
fn prometheus_exposition_matches_the_golden_text() {
    let text = render_prometheus(
        &fixed_snapshot(),
        7,
        Some(TraceStats {
            events_total: 201,
            dropped_events: 202,
            error_exemplars: 3,
            error_exemplars_dropped: 204,
        }),
    );
    if text != GOLDEN {
        let first_diff = text
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .map_or_else(
                || "length differs".to_owned(),
                |i| format!("line {}", i + 1),
            );
        panic!("exposition drifted from the golden text ({first_diff}):\n{text}");
    }
}
