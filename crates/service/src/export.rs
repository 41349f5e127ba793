//! Export surfaces over the flight recorder and the service metrics: a
//! [`TraceSnapshot`] with a JSON dump renderer, and a Prometheus-style
//! text exposition ([`render_prometheus`]) covering every
//! [`MetricsSnapshot`](crate::MetricsSnapshot) counter and gauge plus the
//! three latency [`LogHistogram`](crate::LogHistogram)s as cumulative
//! buckets — the future TCP frontend can serve `/metrics` verbatim.
//!
//! Every exposition family is one row of the ordered `SERIES` table:
//! name, help text, and a getter that also fixes the `# TYPE`.

use std::fmt::Write;
use std::ops::Deref;

use crate::histogram::HistogramSnapshot;
use crate::metrics::{AlgorithmKind, MetricsSnapshot};
use crate::trace::{
    commutative_checksum, stream_checksum, Exemplar, FlightRecorder, TraceEvent, TraceStats,
};

/// A point-in-time view of the flight recorder: the still-resident ring
/// events, the drop accounting, and both exemplar stores.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Resident ring events ordered by timestamp (ties broken by trace id
    /// and per-trace sequence number).
    pub events: Vec<TraceEvent>,
    /// Events ever recorded across all rings.
    pub events_total: u64,
    /// Ring events overwritten before this snapshot (best-effort stream
    /// only — exemplar retention never loses error-class traces).
    pub dropped_events: u64,
    /// Full traces of every errored / shed / panicked / killed request
    /// still in the bounded store, oldest first.
    pub error_exemplars: Vec<Exemplar>,
    /// Error exemplars evicted (oldest first) after the store filled.
    pub error_exemplars_dropped: u64,
    /// The rolling slowest-k completed requests, slowest first.
    pub slowest: Vec<Exemplar>,
    /// Ordered checksum over the ring streams as captured (before the
    /// timestamp sort). Byte-deterministic only under single-worker
    /// replay; concurrent runs should gate on
    /// [`TraceSnapshot::error_checksum`] instead.
    pub stream_checksum: u64,
}

impl TraceSnapshot {
    pub(crate) fn capture(recorder: &FlightRecorder) -> Self {
        let (
            mut events,
            dropped_events,
            error_exemplars,
            error_exemplars_dropped,
            slowest,
            events_total,
        ) = recorder.collect();
        let stream = stream_checksum(events.iter());
        events.sort_by_key(|e| (e.ts, e.trace_id, e.seq));
        TraceSnapshot {
            events,
            events_total,
            dropped_events,
            error_exemplars,
            error_exemplars_dropped,
            slowest,
            stream_checksum: stream,
        }
    }

    /// Interleaving-independent checksum over the retained error
    /// exemplars (see [`commutative_checksum`]): byte-stable across runs
    /// of the same deterministic fault plan even with a concurrent worker
    /// pool — the chaos gate's number.
    #[must_use]
    pub fn error_checksum(&self) -> u64 {
        commutative_checksum(self.error_exemplars.iter())
    }

    /// Exemplars of `class`, for assertions and dashboards.
    #[must_use]
    pub fn exemplars_of(&self, class: crate::trace::ExemplarClass) -> Vec<&Exemplar> {
        self.error_exemplars
            .iter()
            .filter(|e| e.class == class)
            .collect()
    }

    /// The whole snapshot as a JSON document (hand-rolled, no
    /// dependencies; schema `moqo-trace/v1`).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.events.len() * 96);
        out.push_str("{\n  \"schema\": \"moqo-trace/v1\",\n");
        out.push_str(&format!("  \"events_total\": {},\n", self.events_total));
        out.push_str(&format!("  \"dropped_events\": {},\n", self.dropped_events));
        out.push_str(&format!(
            "  \"error_exemplars_dropped\": {},\n",
            self.error_exemplars_dropped
        ));
        out.push_str(&format!(
            "  \"stream_checksum\": {},\n",
            self.stream_checksum
        ));
        out.push_str(&format!(
            "  \"error_checksum\": {},\n",
            self.error_checksum()
        ));
        out.push_str("  \"recent\": [\n");
        push_events(&mut out, &self.events, "    ");
        out.push_str("  ],\n  \"error_exemplars\": [\n");
        push_exemplars(&mut out, &self.error_exemplars);
        out.push_str("  ],\n  \"slowest\": [\n");
        push_exemplars(&mut out, &self.slowest);
        out.push_str("  ]\n}\n");
        out
    }
}

fn push_events(out: &mut String, events: &[TraceEvent], indent: &str) {
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        out.push_str(&format!(
            "{indent}{{\"trace\": {}, \"ts\": {}, \"seq\": {}, \"kind\": \"{}\", \
             \"args\": [{}, {}, {}]}}{comma}\n",
            e.trace_id,
            e.ts,
            e.seq,
            e.kind.name(),
            e.arg0,
            e.arg1,
            e.arg2,
        ));
    }
}

fn push_exemplars(out: &mut String, exemplars: &[Exemplar]) {
    for (i, ex) in exemplars.iter().enumerate() {
        let comma = if i + 1 < exemplars.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"trace\": {}, \"class\": \"{}\", \"latency_us\": {}, \
             \"truncated\": {}, \"events\": [\n",
            ex.trace_id,
            ex.class.name(),
            ex.latency_us,
            ex.truncated,
        ));
        push_events(out, &ex.events, "      ");
        out.push_str(&format!("    ]}}{comma}\n"));
    }
}

/// What one scrape renders: the metrics snapshot plus the two live values
/// it does not carry. Derefs to the snapshot, so series getters read its
/// fields directly.
struct Scrape<'a> {
    metrics: &'a MetricsSnapshot,
    queued: usize,
    trace: TraceStats,
}

impl Deref for Scrape<'_> {
    type Target = MetricsSnapshot;

    fn deref(&self) -> &MetricsSnapshot {
        self.metrics
    }
}

/// How one family's samples are read off a [`Scrape`]; the variant also
/// fixes the family's `# TYPE`.
enum Samples {
    /// One unlabelled counter sample.
    Counter(fn(&Scrape<'_>) -> u64),
    /// One unlabelled gauge sample.
    Gauge(fn(&Scrape<'_>) -> f64),
    /// Counter samples keyed by the given label.
    LabelledCounter(&'static str, fn(&Scrape<'_>) -> Vec<(String, u64)>),
    /// Gauge samples keyed by the given label.
    LabelledGauge(&'static str, fn(&Scrape<'_>) -> Vec<(String, f64)>),
    /// A latency histogram as cumulative buckets plus `_sum` and `_count`.
    Histogram(fn(&MetricsSnapshot) -> &HistogramSnapshot),
}

/// One exposition family: name, help text and samples.
struct Series(&'static str, &'static str, Samples);

use Samples::{Counter, Gauge, Histogram, LabelledCounter, LabelledGauge};

/// Every service series, in exposition order. A new metric is one row.
#[rustfmt::skip]
const SERIES: &[Series] = &[
    Series("moqo_uptime_seconds", "Time since the service started.", Gauge(|s| s.uptime.as_secs_f64())),
    Series("moqo_submitted_total", "Requests accepted into the queue.", Counter(|s| s.submitted)),
    Series("moqo_completed_total", "Requests answered with a plan.", Counter(|s| s.completed)),
    Series("moqo_rejected_total", "Requests rejected by admission control.", Counter(|s| s.rejected)),
    Series("moqo_timed_out_total", "Requests whose deadline expired mid-flight.", Counter(|s| s.timed_out)),
    Series("moqo_failed_total", "Requests lost to internal errors.", Counter(|s| s.failed)),
    Series("moqo_queue_full_total", "Submissions bounced off a full queue.", Counter(|s| s.queue_full)),
    Series("moqo_shed_total", "Submissions shed by the brownout controller.", Counter(|s| s.shed)),
    Series("moqo_panics_total", "Worker panics caught at the job boundary.", Counter(|s| s.panics_total)),
    Series("moqo_respawns_total", "Workers respawned by the supervisor.", Counter(|s| s.respawns)),
    Series("moqo_stalls_detected_total", "Wedged workers detected and replaced.", Counter(|s| s.stalls_detected)),
    Series("moqo_degraded_blocks_total", "Blocks browned out under load pressure.", Counter(|s| s.degraded_blocks)),
    Series("moqo_downgraded_blocks_total", "Blocks that ran a weaker algorithm than preferred.", Counter(|s| s.downgraded_blocks)),
    Series("moqo_throughput_rps", "Completed requests per second over the current window.", Gauge(|s| s.throughput_rps)),
    Series("moqo_blocks_total", "Blocks served, by algorithm family.", LabelledCounter("algorithm", blocks_by_algorithm)),
    Series(
        "moqo_request_latency_quantile_seconds",
        "Log-bucket latency quantiles (lower bound of the bucket holding the order statistic).",
        LabelledGauge("q", latency_quantiles),
    ),
    Series("moqo_cache_hits_total", "Plan-cache direct serves.", Counter(|s| s.cache.hits)),
    Series("moqo_cache_misses_total", "Plan-cache lookups not served directly.", Counter(|s| s.cache.misses)),
    Series("moqo_cache_warm_starts_total", "Misses that seeded an RMQ warm start.", Counter(|s| s.cache.warm_starts)),
    Series("moqo_cache_insertions_total", "Plan-cache entries written.", Counter(|s| s.cache.insertions)),
    Series("moqo_cache_evictions_total", "Plan-cache LRU evictions.", Counter(|s| s.cache.evictions)),
    Series("moqo_cache_entries", "Plan-cache entries currently resident.", Gauge(|s| s.cache.entries as f64)),
    Series("moqo_cache_shard_entries", "Resident entries per cache shard.", LabelledGauge("shard", shard_entries)),
    Series("moqo_cache_shard_evictions_total", "LRU evictions per cache shard.", LabelledCounter("shard", shard_evictions)),
    Series("moqo_queue_depth", "Requests currently waiting in the queue.", Gauge(|s| s.queued as f64)),
    Series("moqo_alive_workers", "Workers currently registered as live.", Gauge(|s| s.alive_workers as f64)),
    Series(
        "moqo_pressure_seconds",
        "EWMA of recent queue waits (the brownout signal); 0 before any sample.",
        Gauge(|s| s.pressure.map_or(0.0, |p| p.as_secs_f64())),
    ),
    Series("moqo_request_latency_seconds", "End-to-end latency, submission to response.", Histogram(|s| &s.latency_histogram)),
    Series("moqo_queue_wait_seconds", "Queue wait, submission to worker pickup.", Histogram(|s| &s.queue_wait_histogram)),
    Series("moqo_service_time_seconds", "Processing time, worker pickup to response.", Histogram(|s| &s.service_time_histogram)),
];

/// The flight-recorder series, appended when tracing is enabled.
#[rustfmt::skip]
const TRACE_SERIES: &[Series] = &[
    Series("moqo_trace_events_total", "Flight-recorder events ever recorded.", Counter(|s| s.trace.events_total)),
    Series("moqo_trace_dropped_events_total", "Ring events overwritten before a snapshot saw them.", Counter(|s| s.trace.dropped_events)),
    Series("moqo_trace_error_exemplars", "Error-class exemplar traces currently retained.", Gauge(|s| s.trace.error_exemplars as f64)),
    Series("moqo_trace_error_exemplars_dropped_total", "Error exemplars evicted from the bounded store.", Counter(|s| s.trace.error_exemplars_dropped)),
];

fn blocks_by_algorithm(s: &Scrape<'_>) -> Vec<(String, u64)> {
    let counts = [
        s.blocks_exa,
        s.blocks_rta,
        s.blocks_ira,
        s.blocks_rmq,
        s.blocks_cached,
    ];
    AlgorithmKind::ALL
        .iter()
        .zip(counts)
        .map(|(kind, count)| (kind.name().to_owned(), count))
        .collect()
}

fn latency_quantiles(s: &Scrape<'_>) -> Vec<(String, f64)> {
    [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)]
        .iter()
        .map(|(q, value)| ((*q).to_owned(), value.as_secs_f64()))
        .collect()
}

fn shard_entries(s: &Scrape<'_>) -> Vec<(String, f64)> {
    let shards = s.cache.per_shard.iter().enumerate();
    shards
        .map(|(i, c)| (i.to_string(), c.entries as f64))
        .collect()
}

fn shard_evictions(s: &Scrape<'_>) -> Vec<(String, u64)> {
    let shards = s.cache.per_shard.iter().enumerate();
    shards.map(|(i, c)| (i.to_string(), c.evictions)).collect()
}

impl Series {
    /// Appends the family's `# HELP`/`# TYPE` header and samples. The
    /// `write!` results are discarded: writing into a `String` cannot fail.
    fn render(&self, out: &mut String, scrape: &Scrape<'_>) {
        let Series(name, help, samples) = self;
        let kind = match samples {
            Counter(_) | LabelledCounter(..) => "counter",
            Gauge(_) | LabelledGauge(..) => "gauge",
            Histogram(_) => "histogram",
        };
        let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
        match samples {
            Counter(get) => {
                let _ = writeln!(out, "{name} {}", get(scrape));
            }
            Gauge(get) => {
                let _ = writeln!(out, "{name} {}", get(scrape));
            }
            LabelledCounter(label, get) => {
                for (value, sample) in get(scrape) {
                    let _ = writeln!(out, "{name}{{{label}=\"{value}\"}} {sample}");
                }
            }
            LabelledGauge(label, get) => {
                for (value, sample) in get(scrape) {
                    let _ = writeln!(out, "{name}{{{label}=\"{value}\"}} {sample}");
                }
            }
            Histogram(get) => {
                let snapshot = get(scrape.metrics);
                // Only the buckets where the cumulative count advances are
                // emitted (496 fixed buckets are mostly empty); `+Inf`
                // always closes the series, as the exposition format
                // requires.
                let mut last = 0u64;
                for (hi_us, cumulative) in snapshot.cumulative_buckets() {
                    if cumulative != last && hi_us != u64::MAX {
                        let le = hi_us as f64 / 1e6;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                        last = cumulative;
                    }
                }
                let count = snapshot.count();
                let sum = snapshot.sum_us() as f64 / 1e6;
                let _ = write!(
                    out,
                    "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n"
                );
            }
        }
    }
}

/// Renders the full metrics surface in the Prometheus text exposition
/// format: every `SERIES` row over `metrics` and the current queue
/// depth, then — when tracing is enabled — the flight-recorder totals.
#[must_use]
pub fn render_prometheus(
    metrics: &MetricsSnapshot,
    queued: usize,
    trace: Option<TraceStats>,
) -> String {
    let scrape = Scrape {
        metrics,
        queued,
        trace: trace.unwrap_or_default(),
    };
    let trace_series = if trace.is_some() { TRACE_SERIES } else { &[] };
    let mut out = String::with_capacity(8192);
    for series in SERIES.iter().chain(trace_series) {
        series.render(&mut out, &scrape);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSnapshot;
    use crate::histogram::LogHistogram;
    use crate::metrics::{ServiceCounter, ServiceMetrics};
    use crate::trace::{EventKind, ExemplarClass};
    use std::time::Duration;

    fn sample_metrics() -> MetricsSnapshot {
        let m = ServiceMetrics::default();
        m.bump(ServiceCounter::Submitted);
        m.on_completed(Duration::from_micros(50), Duration::from_millis(2));
        m.snapshot(CacheSnapshot::default(), 3)
    }

    #[test]
    fn prometheus_covers_every_metric_family() {
        let hist = LogHistogram::new();
        hist.record(Duration::from_millis(3));
        let snap = hist.snapshot();
        let mut metrics = sample_metrics();
        metrics.latency_histogram = snap.clone();
        metrics.queue_wait_histogram = snap.clone();
        metrics.service_time_histogram = snap;
        let text = render_prometheus(
            &metrics,
            7,
            Some(crate::trace::TraceStats {
                events_total: 11,
                dropped_events: 2,
                error_exemplars: 1,
                error_exemplars_dropped: 0,
            }),
        );
        for family in [
            "moqo_uptime_seconds",
            "moqo_submitted_total",
            "moqo_completed_total",
            "moqo_rejected_total",
            "moqo_timed_out_total",
            "moqo_failed_total",
            "moqo_queue_full_total",
            "moqo_shed_total",
            "moqo_panics_total",
            "moqo_respawns_total",
            "moqo_stalls_detected_total",
            "moqo_degraded_blocks_total",
            "moqo_downgraded_blocks_total",
            "moqo_throughput_rps",
            "moqo_blocks_total{algorithm=\"exa\"}",
            "moqo_blocks_total{algorithm=\"cached\"}",
            "moqo_request_latency_quantile_seconds{q=\"0.99\"}",
            "moqo_cache_hits_total",
            "moqo_cache_misses_total",
            "moqo_cache_warm_starts_total",
            "moqo_cache_insertions_total",
            "moqo_cache_evictions_total",
            "moqo_cache_entries",
            "moqo_queue_depth 7",
            "moqo_alive_workers 3",
            "moqo_pressure_seconds",
            "moqo_request_latency_seconds_bucket",
            "moqo_request_latency_seconds_sum",
            "moqo_request_latency_seconds_count 1",
            "moqo_queue_wait_seconds_count",
            "moqo_service_time_seconds_count",
            "moqo_trace_events_total 11",
            "moqo_trace_dropped_events_total 2",
            "moqo_trace_error_exemplars 1",
            "moqo_trace_error_exemplars_dropped_total 0",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let hist = LogHistogram::new();
        for us in [5u64, 5, 100, 10_000] {
            hist.record_us(us);
        }
        let mut metrics = sample_metrics();
        metrics.latency_histogram = hist.snapshot();
        metrics.queue_wait_histogram = LogHistogram::new().snapshot();
        metrics.service_time_histogram = LogHistogram::new().snapshot();
        let text = render_prometheus(&metrics, 0, None);
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("moqo_request_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.len() >= 4, "expected distinct buckets: {text}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "not cumulative");
        assert_eq!(*counts.last().unwrap(), 4, "+Inf bucket holds the count");
        assert!(text.contains("moqo_request_latency_seconds_bucket{le=\"+Inf\"} 4"));
        // Exact sum: 5 + 5 + 100 + 10000 µs.
        assert!(text.contains("moqo_request_latency_seconds_sum 0.01011"));
    }

    #[test]
    fn json_dump_is_structured() {
        let ex = Exemplar {
            trace_id: 9,
            class: ExemplarClass::Panicked,
            latency_us: 42,
            events: vec![TraceEvent {
                trace_id: 9,
                ts: 1,
                kind: EventKind::Submitted,
                seq: 0,
                arg0: 1,
                arg1: 0,
                arg2: 0,
            }],
            truncated: false,
        };
        let snap = TraceSnapshot {
            events: ex.events.clone(),
            events_total: 1,
            dropped_events: 0,
            error_exemplars: vec![ex],
            error_exemplars_dropped: 0,
            slowest: Vec::new(),
            stream_checksum: 123,
        };
        let json = snap.render_json();
        assert!(json.contains("\"schema\": \"moqo-trace/v1\""));
        assert!(json.contains("\"kind\": \"submitted\""));
        assert!(json.contains("\"class\": \"panicked\""));
        assert!(json.contains("\"stream_checksum\": 123"));
        assert!(json.contains(&format!("\"error_checksum\": {}", snap.error_checksum())));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
