//! Service-level observability: request counters, a per-`ServiceError`
//! error taxonomy, per-algorithm block mix, and latency percentiles from
//! lock-free log-bucket histograms.
//!
//! Every recording path — submission, block completion, request
//! completion, errors — is a handful of relaxed atomic `fetch_add`s:
//! no `Mutex`, no allocation, O(buckets) memory regardless of uptime or
//! request count. `snapshot()` cost is likewise independent of how many
//! requests completed (a `bench_snapshot` cell and a unit test pin this).

use moqo_sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use moqo_core::Algorithm;

use crate::cache::CacheSnapshot;
use crate::histogram::{HistogramSnapshot, LogHistogram};
use crate::request::ServiceError;

/// Which algorithm family served a block (the service's per-algorithm mix).
/// The declaration order is the wire code packed into trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// The exact algorithm.
    Exa,
    /// The representative-tradeoffs approximation scheme.
    Rta,
    /// The iterative-refinement approximation scheme.
    Ira,
    /// The anytime randomized optimizer.
    Rmq,
    /// No algorithm ran — the block came straight from the plan cache.
    CacheServe,
}

impl AlgorithmKind {
    /// Every kind, in wire-code order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::Exa,
        AlgorithmKind::Rta,
        AlgorithmKind::Ira,
        AlgorithmKind::Rmq,
        AlgorithmKind::CacheServe,
    ];

    const NAMES: [&'static str; 5] = ["exa", "rta", "ira", "rmq", "cached"];

    /// Classifies an [`Algorithm`].
    #[must_use]
    pub fn of(algorithm: Algorithm) -> Self {
        match algorithm {
            Algorithm::Exhaustive => AlgorithmKind::Exa,
            Algorithm::Rta { .. } => AlgorithmKind::Rta,
            Algorithm::Ira { .. } => AlgorithmKind::Ira,
            Algorithm::Rmq { .. } => AlgorithmKind::Rmq,
        }
    }

    /// Stable wire code, packed into trace events.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes [`AlgorithmKind::as_u8`]; `None` for garbage.
    #[must_use]
    pub fn from_u8(code: u8) -> Option<Self> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// Stable lower-case name for export surfaces.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// The scalar service counters, each one slot of [`ServiceMetrics`]'s
/// counter array (bumped with [`ServiceMetrics::bump`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceCounter {
    /// [`MetricsSnapshot::submitted`].
    Submitted,
    /// [`MetricsSnapshot::completed`].
    Completed,
    /// [`MetricsSnapshot::rejected`].
    Rejected,
    /// [`MetricsSnapshot::timed_out`].
    TimedOut,
    /// [`MetricsSnapshot::failed`].
    Failed,
    /// [`MetricsSnapshot::queue_full`].
    QueueFull,
    /// [`MetricsSnapshot::shed`].
    Shed,
    /// [`MetricsSnapshot::panics_total`].
    PanicsTotal,
    /// [`MetricsSnapshot::respawns`].
    Respawns,
    /// [`MetricsSnapshot::stalls_detected`].
    StallsDetected,
    /// [`MetricsSnapshot::degraded_blocks`].
    DegradedBlocks,
    /// [`MetricsSnapshot::downgraded_blocks`].
    DowngradedBlocks,
}

impl ServiceCounter {
    /// Sized by the last variant: a new counter goes after it and takes
    /// its place here.
    const COUNT: usize = ServiceCounter::DowngradedBlocks as usize + 1;
}

/// Live counters; cheap to update from every worker, safe to share via
/// `Arc`. All recording methods are lock-free.
pub struct ServiceMetrics {
    started: Instant,
    /// One slot per [`ServiceCounter`].
    counters: [AtomicU64; ServiceCounter::COUNT],
    /// EWMA of recent queue waits: the brownout controller's pressure
    /// signal (reads are one relaxed load on the submit fast path).
    pressure: PressureGauge,
    algo_blocks: [AtomicU64; AlgorithmKind::ALL.len()],
    /// Submission → response, the sum of the two series below (recorded on
    /// one clock, the job's submission `Instant`, so the series agree by
    /// construction — no cross-clock `.max` papering needed).
    latency: LogHistogram,
    /// Submission → worker pickup.
    queue_wait: LogHistogram,
    /// Worker pickup → response (cache probes + optimization).
    service_time: LogHistogram,
    /// End of the last throughput window: microseconds since `started`.
    window_started_us: AtomicU64,
    /// `completed` at the end of the last throughput window.
    window_completed: AtomicU64,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            started: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            pressure: PressureGauge::default(),
            algo_blocks: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
            service_time: LogHistogram::new(),
            window_started_us: AtomicU64::new(0),
            window_completed: AtomicU64::new(0),
        }
    }
}

impl ServiceMetrics {
    /// Counts one event of `counter` (one relaxed `fetch_add`).
    #[inline]
    pub fn bump(&self, counter: ServiceCounter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed request under the error taxonomy: admission
    /// rejections, deadline expiries, shed submissions and internal losses
    /// land in separate counters, so `rejected` means what its docs say.
    /// An `Internal` error additionally bumps `panics_total` — every
    /// internal error today is a caught worker panic.
    pub fn on_error(&self, error: &ServiceError) {
        self.bump(match error {
            ServiceError::Rejected(_) => ServiceCounter::Rejected,
            ServiceError::DeadlineExceeded => ServiceCounter::TimedOut,
            ServiceError::Shed => ServiceCounter::Shed,
            ServiceError::Internal { .. } => {
                self.bump(ServiceCounter::PanicsTotal);
                ServiceCounter::Failed
            }
            ServiceError::QueueFull | ServiceError::ShuttingDown | ServiceError::WorkerLost => {
                ServiceCounter::Failed
            }
        });
    }

    /// The queue-wait pressure gauge (shared with the brownout admission
    /// controller).
    #[must_use]
    pub fn pressure_gauge(&self) -> &PressureGauge {
        &self.pressure
    }

    /// Counts one optimized (or cache-served) block.
    #[moqo::hot_path]
    pub fn on_block(&self, kind: AlgorithmKind, downgraded: bool) {
        self.algo_blocks[kind as usize].fetch_add(1, Ordering::Relaxed);
        if downgraded {
            self.bump(ServiceCounter::DowngradedBlocks);
        }
    }

    /// Records one completed request: queue wait and processing time go to
    /// separate histogram series, their sum to the end-to-end series. All
    /// three are measured from the same submission `Instant`, so no
    /// cross-clock reconciliation is needed (or performed).
    #[moqo::hot_path]
    pub fn on_completed(&self, queue_wait: Duration, service_time: Duration) {
        self.bump(ServiceCounter::Completed);
        self.queue_wait.record(queue_wait);
        self.service_time.record(service_time);
        self.latency.record(queue_wait + service_time);
        self.pressure.record(queue_wait);
    }

    /// A consistent-enough point-in-time view. Counters are relaxed loads;
    /// percentiles come from O(buckets) histogram walks — the cost does
    /// not depend on how many requests completed.
    ///
    /// Each call also closes the current *throughput window*:
    /// `throughput_rps` covers completions since the previous `snapshot()`
    /// (or since startup, on the first call), so a long-idle service
    /// reports its live rate instead of a lifetime average diluted by
    /// idle uptime.
    #[must_use]
    pub fn snapshot(&self, cache: CacheSnapshot, alive_workers: usize) -> MetricsSnapshot {
        let latency_histogram = self.latency.snapshot();
        let queue_wait_histogram = self.queue_wait.snapshot();
        let service_time_histogram = self.service_time.snapshot();
        let counters = self.counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        let count = |counter: ServiceCounter| counters[counter as usize];
        let completed = count(ServiceCounter::Completed);
        let [blocks_exa, blocks_rta, blocks_ira, blocks_rmq, blocks_cached] =
            AlgorithmKind::ALL.map(|kind| self.algo_blocks[kind as usize].load(Ordering::Relaxed));
        let elapsed = self.started.elapsed();
        let now_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        // Guard against back-to-back snapshots: a window of a few
        // microseconds holding one completion would report a million-rps
        // "spike" (or divide by ~0). Windows shorter than
        // `MIN_WINDOW_US` are *not closed* — the rate is computed over the
        // still-open window with the denominator clamped to the minimum,
        // and the next snapshot sees the full window. The close itself is
        // a CAS so two racing snapshots cannot both claim the same window.
        const MIN_WINDOW_US: u64 = 1_000;
        #[allow(clippy::cast_precision_loss)]
        let throughput_rps = {
            let window_start = self.window_started_us.load(Ordering::Relaxed);
            let window_us = now_us.saturating_sub(window_start);
            let closing = window_us >= MIN_WINDOW_US
                && self
                    .window_started_us
                    .compare_exchange(window_start, now_us, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            let window_completed = if closing {
                self.window_completed.swap(completed, Ordering::Relaxed)
            } else {
                self.window_completed.load(Ordering::Relaxed)
            };
            let window_done = completed.saturating_sub(window_completed);
            window_done as f64 / (window_us.max(MIN_WINDOW_US) as f64 / 1e6)
        };
        MetricsSnapshot {
            uptime: elapsed,
            submitted: count(ServiceCounter::Submitted),
            completed,
            rejected: count(ServiceCounter::Rejected),
            timed_out: count(ServiceCounter::TimedOut),
            failed: count(ServiceCounter::Failed),
            queue_full: count(ServiceCounter::QueueFull),
            shed: count(ServiceCounter::Shed),
            panics_total: count(ServiceCounter::PanicsTotal),
            respawns: count(ServiceCounter::Respawns),
            stalls_detected: count(ServiceCounter::StallsDetected),
            degraded_blocks: count(ServiceCounter::DegradedBlocks),
            downgraded_blocks: count(ServiceCounter::DowngradedBlocks),
            throughput_rps,
            p50: latency_histogram.quantile(0.50),
            p95: latency_histogram.quantile(0.95),
            p99: latency_histogram.quantile(0.99),
            queue_p50: queue_wait_histogram.quantile(0.50),
            queue_p95: queue_wait_histogram.quantile(0.95),
            queue_p99: queue_wait_histogram.quantile(0.99),
            service_p50: service_time_histogram.quantile(0.50),
            service_p95: service_time_histogram.quantile(0.95),
            service_p99: service_time_histogram.quantile(0.99),
            blocks_exa,
            blocks_rta,
            blocks_ira,
            blocks_rmq,
            blocks_cached,
            pressure: self.pressure.current(),
            alive_workers,
            cache,
            latency_histogram,
            queue_wait_histogram,
            service_time_histogram,
        }
    }
}

/// Everything an operator dashboard would plot.
///
/// Percentiles are log-bucket quantiles: each reported value is the lower
/// bound of the histogram bucket containing the exact order statistic, so
/// it never exceeds the true percentile and undershoots by at most 12.5%
/// (one bucket; exact below 8 µs) — see [`crate::histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Time since the service started.
    pub uptime: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a plan.
    pub completed: u64,
    /// Requests rejected at submission for malformed input (a block that
    /// fails [`JoinGraph::validate`](moqo_catalog::JoinGraph::validate), an
    /// α that is not a finite number ≥ 1) or by admission control — and
    /// only those; deadline expiries and internal failures have their own
    /// counters below.
    pub rejected: u64,
    /// Requests whose deadline expired before a block could start.
    pub timed_out: u64,
    /// Requests lost to internal errors (none of the above taxonomy).
    pub failed: u64,
    /// Submissions bounced off a full queue.
    pub queue_full: u64,
    /// Submissions shed by the brownout admission controller (queue-wait
    /// pressure above the watermark) — separate from `rejected`, which is
    /// a per-request deadline verdict.
    pub shed: u64,
    /// Worker panics caught at the job boundary and delivered as
    /// [`ServiceError::Internal`](crate::ServiceError::Internal); every
    /// one of these also counts in `failed`.
    pub panics_total: u64,
    /// Workers respawned by the supervisor after a worker thread died.
    pub respawns: u64,
    /// Wedged workers detected (heartbeat stagnant past the stall
    /// threshold); each was abandoned and a substitute fielded.
    pub stalls_detected: u64,
    /// Blocks browned out under load pressure: forced onto the anytime
    /// search (and/or a shrunken sample budget) by the admission
    /// controller rather than by deadline or size gates.
    pub degraded_blocks: u64,
    /// Blocks that ran a weaker algorithm than the request preferred.
    pub downgraded_blocks: u64,
    /// Completed requests per second over the current throughput window
    /// (since the previous snapshot; since startup on the first one).
    pub throughput_rps: f64,
    /// Median request latency (submission → response).
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Median queue wait (submission → worker pickup).
    pub queue_p50: Duration,
    /// 95th-percentile queue wait.
    pub queue_p95: Duration,
    /// 99th-percentile queue wait.
    pub queue_p99: Duration,
    /// Median processing time (worker pickup → response).
    pub service_p50: Duration,
    /// 95th-percentile processing time.
    pub service_p95: Duration,
    /// 99th-percentile processing time.
    pub service_p99: Duration,
    /// Blocks optimized by the exact algorithm.
    pub blocks_exa: u64,
    /// Blocks optimized by RTA.
    pub blocks_rta: u64,
    /// Blocks optimized by IRA.
    pub blocks_ira: u64,
    /// Blocks optimized by RMQ (fresh or warm-started).
    pub blocks_rmq: u64,
    /// Blocks served straight from the plan cache.
    pub blocks_cached: u64,
    /// Live [`PressureGauge`] value — the EWMA of recent queue waits the
    /// brownout controller reads — `None` before the first completion.
    pub pressure: Option<Duration>,
    /// Workers registered as live at snapshot time (transiently below the
    /// configured count while the supervisor replaces one).
    pub alive_workers: usize,
    /// Plan-cache counters, including the per-shard view.
    pub cache: CacheSnapshot,
    /// The end-to-end latency histogram behind `p50`/`p95`/`p99`.
    pub latency_histogram: HistogramSnapshot,
    /// The queue-wait histogram behind the `queue_p*` quantiles.
    pub queue_wait_histogram: HistogramSnapshot,
    /// The processing-time histogram behind the `service_p*` quantiles.
    pub service_time_histogram: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Total failed requests across the error taxonomy.
    #[must_use]
    pub fn errors_total(&self) -> u64 {
        self.rejected + self.timed_out + self.failed + self.shed
    }
}

/// A lock-free EWMA of recent queue waits: the load signal the brownout
/// admission controller reads on every submit (one relaxed load).
///
/// Workers fold each completed request's queue wait in with smoothing
/// 0.2; [`PressureGauge::pressure`] normalizes the current estimate
/// against a watermark, so `1.0` means "queue waits sit exactly at the
/// watermark" and values above it measure how far into brownout the
/// service is.
#[derive(Debug)]
pub struct PressureGauge {
    /// EWMA of queue-wait micros as `f64` bits; 0 = no sample yet.
    ewma_us: AtomicU64,
}

impl Default for PressureGauge {
    fn default() -> Self {
        PressureGauge {
            ewma_us: AtomicU64::new(0),
        }
    }
}

impl PressureGauge {
    const SMOOTHING: f64 = 0.2;

    /// Folds one measured queue wait in (short CAS loop; a lost race
    /// drops one sample of smoothing, never corrupts the estimate).
    #[moqo::hot_path]
    pub fn record(&self, queue_wait: Duration) {
        let sample_us = queue_wait.as_secs_f64() * 1e6;
        let mut current = self.ewma_us.load(Ordering::Relaxed);
        for _ in 0..4 {
            let updated = if current == 0 {
                sample_us
            } else {
                Self::SMOOTHING * sample_us + (1.0 - Self::SMOOTHING) * f64::from_bits(current)
            };
            // Exactly-0.0 bits would read as "no sample"; nudge instead.
            let bits = updated.max(f64::MIN_POSITIVE).to_bits();
            match self.ewma_us.compare_exchange_weak(
                current,
                bits,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current queue-wait estimate, `None` before the first sample.
    #[must_use]
    pub fn current(&self) -> Option<Duration> {
        let bits = self.ewma_us.load(Ordering::Relaxed);
        (bits != 0).then(|| Duration::from_secs_f64(f64::from_bits(bits) / 1e6))
    }

    /// Current estimate over `watermark` (`0.0` before any sample; a
    /// zero watermark saturates rather than divides by zero).
    #[must_use]
    pub fn pressure(&self, watermark: Duration) -> f64 {
        let Some(current) = self.current() else {
            return 0.0;
        };
        let watermark_s = watermark.as_secs_f64();
        if watermark_s <= 0.0 {
            return f64::INFINITY;
        }
        current.as_secs_f64() / watermark_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LogHistogram;

    #[test]
    fn percentiles_over_known_latencies() {
        let m = ServiceMetrics::default();
        for ms in 1..=100u64 {
            m.on_completed(Duration::ZERO, Duration::from_millis(ms));
        }
        let snap = m.snapshot(CacheSnapshot::default(), 0);
        assert_eq!(snap.completed, 100);
        // Log-bucket quantiles: within one bucket below the exact answer.
        for (got, exact_ms) in [(snap.p50, 51u64), (snap.p95, 95), (snap.p99, 99)] {
            let exact = exact_ms * 1000;
            let got = u64::try_from(got.as_micros()).unwrap();
            let (lo, _) = LogHistogram::bucket_bounds(exact);
            assert!(
                got >= lo && got <= exact,
                "got {got} for exact {exact} (bucket lo {lo})"
            );
        }
        // Queue waits were all zero; processing carries the latency.
        assert_eq!(snap.queue_p99, Duration::ZERO);
        assert!(snap.service_p50 > Duration::ZERO);
        assert_eq!(snap.p95, snap.service_p95);
        assert!(snap.throughput_rps > 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServiceMetrics::default();
        let snap = m.snapshot(CacheSnapshot::default(), 0);
        assert_eq!(snap.p50, Duration::ZERO);
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.errors_total(), 0);
    }

    #[test]
    fn block_mix_accumulates() {
        let m = ServiceMetrics::default();
        m.on_block(AlgorithmKind::Exa, false);
        m.on_block(AlgorithmKind::Rmq, true);
        m.on_block(AlgorithmKind::CacheServe, false);
        let snap = m.snapshot(CacheSnapshot::default(), 0);
        assert_eq!(snap.blocks_exa, 1);
        assert_eq!(snap.blocks_rmq, 1);
        assert_eq!(snap.blocks_cached, 1);
        assert_eq!(snap.downgraded_blocks, 1);
    }

    #[test]
    fn error_taxonomy_routes_to_distinct_counters() {
        let m = ServiceMetrics::default();
        m.on_error(&ServiceError::Rejected("no algorithm".into()));
        m.on_error(&ServiceError::DeadlineExceeded);
        m.on_error(&ServiceError::DeadlineExceeded);
        m.on_error(&ServiceError::WorkerLost);
        m.on_error(&ServiceError::Shed);
        m.on_error(&ServiceError::internal("boom".into()));
        let snap = m.snapshot(CacheSnapshot::default(), 0);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.timed_out, 2);
        assert_eq!(snap.failed, 2, "WorkerLost and Internal both fail");
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.panics_total, 1, "Internal implies a caught panic");
        assert_eq!(snap.errors_total(), 6);
    }

    #[test]
    fn robustness_counters_accumulate() {
        let m = ServiceMetrics::default();
        m.bump(ServiceCounter::Respawns);
        m.bump(ServiceCounter::Respawns);
        m.bump(ServiceCounter::StallsDetected);
        m.bump(ServiceCounter::DegradedBlocks);
        let snap = m.snapshot(CacheSnapshot::default(), 0);
        assert_eq!(snap.respawns, 2);
        assert_eq!(snap.stalls_detected, 1);
        assert_eq!(snap.degraded_blocks, 1);
    }

    #[test]
    fn each_counter_lands_in_its_own_snapshot_field() {
        let m = ServiceMetrics::default();
        for (i, counter) in m.counters.iter().enumerate() {
            counter.fetch_add(i as u64 + 1, Ordering::Relaxed);
        }
        m.bump(ServiceCounter::Respawns);
        let snap = m.snapshot(CacheSnapshot::default(), 0);
        let fields = [
            snap.submitted,
            snap.completed,
            snap.rejected,
            snap.timed_out,
            snap.failed,
            snap.queue_full,
            snap.shed,
            snap.panics_total,
            snap.respawns,
            snap.stalls_detected,
            snap.degraded_blocks,
            snap.downgraded_blocks,
        ];
        assert_eq!(fields, [1, 2, 3, 4, 5, 6, 7, 8, 10, 10, 11, 12]);
    }

    #[test]
    fn algorithm_kind_codes_and_names_are_stable() {
        let names: Vec<&str> = AlgorithmKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["exa", "rta", "ira", "rmq", "cached"]);
        for (code, kind) in AlgorithmKind::ALL.into_iter().enumerate() {
            let code = u8::try_from(code).unwrap();
            assert_eq!(kind.as_u8(), code);
            assert_eq!(AlgorithmKind::from_u8(code), Some(kind));
        }
        assert_eq!(AlgorithmKind::from_u8(5), None);
    }

    #[test]
    fn back_to_back_snapshots_never_report_absurd_throughput() {
        let m = ServiceMetrics::default();
        std::thread::sleep(Duration::from_millis(2));
        let _ = m.snapshot(CacheSnapshot::default(), 0);
        // One completion, then an immediate snapshot: the old swap-based
        // window could divide 1 completion by a microsecond-scale window
        // and report ~1M rps. The clamped denominator bounds the rate to
        // completions-per-minimum-window.
        m.on_completed(Duration::ZERO, Duration::from_micros(5));
        let spike = m.snapshot(CacheSnapshot::default(), 0);
        assert!(
            spike.throughput_rps <= 1_000.0,
            "1 completion in a sub-ms window must cap at 1/1ms = 1000 rps, \
             got {}",
            spike.throughput_rps
        );
        // The short window stayed open: once it is long enough, the same
        // completion still closes a window (not lost to the guard).
        std::thread::sleep(Duration::from_millis(2));
        let settled = m.snapshot(CacheSnapshot::default(), 0);
        assert!(settled.throughput_rps > 0.0);
    }

    #[test]
    fn pressure_gauge_tracks_queue_waits() {
        let gauge = PressureGauge::default();
        assert_eq!(gauge.current(), None);
        assert_eq!(gauge.pressure(Duration::from_millis(10)), 0.0);
        gauge.record(Duration::from_millis(10));
        let first = gauge.current().unwrap();
        assert!((first.as_secs_f64() - 0.010).abs() < 1e-9);
        // EWMA: 0.2 · 20ms + 0.8 · 10ms = 12ms.
        gauge.record(Duration::from_millis(20));
        let second = gauge.current().unwrap();
        assert!((second.as_secs_f64() - 0.012).abs() < 1e-9);
        let pressure = gauge.pressure(Duration::from_millis(6));
        assert!((pressure - 2.0).abs() < 1e-9, "12ms over a 6ms watermark");
        assert!(gauge.pressure(Duration::ZERO).is_infinite());
    }

    #[test]
    fn throughput_windows_reset_per_snapshot() {
        let m = ServiceMetrics::default();
        for _ in 0..100 {
            m.on_completed(Duration::ZERO, Duration::from_micros(10));
        }
        std::thread::sleep(Duration::from_millis(5));
        let first = m.snapshot(CacheSnapshot::default(), 0);
        assert!(first.throughput_rps > 0.0, "first window covers startup");
        // An idle window right after: the live rate drops to ~0 instead of
        // reporting the diluted lifetime average.
        std::thread::sleep(Duration::from_millis(5));
        let second = m.snapshot(CacheSnapshot::default(), 0);
        assert!(
            second.throughput_rps < first.throughput_rps / 2.0,
            "idle window must not inherit lifetime throughput \
             ({} vs {})",
            second.throughput_rps,
            first.throughput_rps
        );
    }

    #[test]
    fn snapshot_cost_is_independent_of_completed_count() {
        let time_snapshot = |recordings: u64| -> Duration {
            let m = ServiceMetrics::default();
            for i in 0..recordings {
                m.on_completed(
                    Duration::from_micros(i % 997),
                    Duration::from_micros(i % 100_003),
                );
            }
            // Min of several runs: the stable floor, immune to one-off
            // scheduler noise.
            (0..5)
                .map(|_| {
                    let started = Instant::now();
                    let snap = m.snapshot(CacheSnapshot::default(), 0);
                    assert_eq!(snap.completed, recordings);
                    started.elapsed()
                })
                .min()
                .expect("five timings")
        };
        let small = time_snapshot(1_000);
        let large = time_snapshot(200_000);
        // A sort-under-lock snapshot would scale O(n log n): 200× the
        // completions would cost well over 200× the snapshot. The histogram
        // walk is O(buckets); allow generous constant-factor noise only.
        assert!(
            large < small * 20 + Duration::from_millis(2),
            "snapshot() cost grew with request count: {small:?} at 1k vs \
             {large:?} at 200k completions"
        );
    }
}
