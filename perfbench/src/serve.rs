//! The open-loop serving workload `serve_open`.
//!
//! One generator thread submits requests to an `OptimizationService` with
//! two workers at seeded Poisson arrival times; one collector thread waits
//! for the tickets. Every request carries a deadline equal to the latency
//! limit. The phases run back to back against one warmed service:
//!
//! 1. the reference rate, which yields `opt_ms_p50` (requests that ran the
//!    optimizer) and, in traced runs, `bench.lat_ms_tail` (p99 of all
//!    requests);
//! 2. (traced runs only) a ladder of higher fixed rates, which yields
//!    `bench.max_rate_rps`;
//! 3. the overload rate, which yields the goodput `opt_per_s`.
//!
//! Latency runs from a request's *scheduled* arrival to its completion, so
//! a late generator cannot hide queueing (coordinated omission). The
//! completion instant is the submit-return instant plus the response's
//! `queue_wait` and `service_time`: the collector waits in submission order
//! and would stamp a fast cache hit behind a slow miss.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use moqo_catalog::{Catalog, Query};
use moqo_core::Algorithm;
use moqo_cost::{Objective, ObjectiveSet, Preference};
use moqo_service::{
    BlockSource, MetricsSnapshot, OptimizationRequest, OptimizationResponse, OptimizationService,
    ServiceError,
};
use moqo_tpch::{large_query_with, query, weighted_test_case, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, ms, peak_rss_mb, percentile, us, Outcome};

const CATALOG_SCALE_FACTOR: f64 = 0.01;
const WORKERS: usize = 2;
const CACHE_CAPACITY: usize = 256;
const QUEUE_CAPACITY: usize = 4096;
/// The latency limit, and every request's deadline.
pub const LIMIT: Duration = Duration::from_millis(50);
/// The rate `opt_ms_p50` and `bench.lat_ms_tail` are measured at, in
/// requests/s.
pub const REFERENCE_RPS: f64 = 300.0;
/// Fixed rates above the reference tried for `bench.max_rate_rps`.
pub const LADDER_RPS: [f64; 3] = [750.0, 1000.0, 1500.0];
/// The rate the goodput is measured at.
pub const OVERLOAD_RPS: f64 = 3000.0;
/// Share of requests with fresh preferences (the cold tail).
const COLD_SHARE: f64 = 0.1;
/// Share of pool requests drawn from the hot set.
const HOT_SHARE: f64 = 0.8;
const HOT_KEYS: usize = 3;
const COLD_QUERIES: [u8; 4] = [3, 10, 18, 21];
/// Nine objectives: every cold request selects all of them, so only the
/// weights, and with them the cache key, change from request to request.
const COLD_OBJECTIVES: usize = 9;
const COLD_ALPHA: f64 = 1.5;
const RMQ_SAMPLES: u64 = 1000;
/// Period of the metrics and Prometheus scrape the generator performs.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
const SETUP_REPS: usize = 3;
/// Windows per phase for the end-to-end statistics (see
/// `PhaseResult::windowed`).
const WINDOWS: usize = 5;
/// Slack for the check that the collector's wait never returns before the
/// earliest completion instant the service's clocks allow.
const WAIT_SLACK: Duration = Duration::from_micros(100);
/// Largest share of the reference latency the timed layers may leave
/// unaccounted (or count twice).
const LAYER_SUM_TOLERANCE: f64 = 0.02;

fn weighted_pref() -> Preference {
    Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
}

/// The `service_load` request pool: 16 keys, the first [`HOT_KEYS`] hot.
fn pool(catalog: &Catalog) -> Vec<OptimizationRequest> {
    let bounded = weighted_pref().bound(Objective::TupleLoss, 0.0);
    let rmq = Algorithm::Rmq {
        samples: RMQ_SAMPLES,
        seed: 42,
        threads: 1,
    };
    let mut pool = vec![
        OptimizationRequest::new(query(catalog, 3), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 12), weighted_pref(), 1.0),
        OptimizationRequest::new(query(catalog, 6), bounded, 1.0),
        OptimizationRequest::new(query(catalog, 14), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 10), weighted_pref(), 2.0),
        OptimizationRequest::new(query(catalog, 4), bounded, 1.0),
        OptimizationRequest::new(query(catalog, 19), weighted_pref(), 1.5),
        OptimizationRequest::new(query(catalog, 12), bounded, 1.5),
    ];
    for topology in Topology::ALL {
        for n in [8usize, 12] {
            pool.push(
                OptimizationRequest::new(
                    large_query_with(catalog, n, topology),
                    weighted_pref(),
                    2.0,
                )
                .with_hint(rmq),
            );
        }
    }
    pool.into_iter().map(|r| r.with_deadline(LIMIT)).collect()
}

/// What one arrival asks for.
enum Pick {
    Pool(usize),
    /// A cold-tail request: query index into [`COLD_QUERIES`] plus a fresh
    /// seeded preference.
    Cold(usize, Preference),
}

struct Arrival {
    at: Duration,
    pick: Pick,
}

/// Seeded Poisson arrivals at `rate` over `duration`.
fn schedule(rng: &mut StdRng, rate: f64, duration: Duration, pool_len: usize) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut at = 0.0f64;
    loop {
        at += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
        if at >= duration.as_secs_f64() {
            return arrivals;
        }
        let pick = if rng.gen_range(0.0..1.0) < COLD_SHARE {
            let q = rng.gen_range(0..COLD_QUERIES.len());
            let case = weighted_test_case(rng, COLD_QUERIES[q], COLD_OBJECTIVES);
            Pick::Cold(q, case.preference)
        } else if rng.gen_range(0.0..1.0) < HOT_SHARE {
            Pick::Pool(rng.gen_range(0..HOT_KEYS))
        } else {
            Pick::Pool(rng.gen_range(0..pool_len))
        };
        arrivals.push(Arrival {
            at: Duration::from_secs_f64(at),
            pick,
        });
    }
}

struct Phase {
    name: &'static str,
    rate: f64,
    duration: Duration,
    arrivals: Vec<Arrival>,
    /// Whether per-request layer records are kept.
    traced: bool,
    /// Generator stall `(at, length)` for the coordinated-omission self-test.
    stall: Option<(Duration, Duration)>,
}

/// One completed request, with its layers.
struct Served {
    latency: Duration,
    queue_wait: Duration,
    service_time: Duration,
    fully_cached: bool,
    /// `BlockReport::elapsed` of every block not served from the cache.
    optimize: Vec<Duration>,
    /// Nanoseconds per sample of every RMQ block.
    rmq_ns_per_sample: Vec<f64>,
}

struct Record {
    /// Scheduled arrival, as an offset into the phase.
    at: Duration,
    lag: Duration,
    submit: Duration,
    outcome: Result<Served, ServiceError>,
}

#[derive(Default)]
struct PhaseResult {
    records: Vec<Record>,
    /// `(offset into the phase, queued())` at each submission.
    backlog: Vec<(Duration, usize)>,
    snapshot_us: Vec<f64>,
    prometheus_us: Vec<f64>,
    /// Correctness failures (wrong responses, clock inconsistencies).
    bad: Vec<String>,
}

impl PhaseResult {
    /// Every request's latency; a request that failed counts as missing
    /// any latency limit.
    fn latencies_ms(&self) -> Vec<f64> {
        let latency = |r: &Record| r.outcome.as_ref().map_or(f64::INFINITY, |s| ms(s.latency));
        self.records.iter().map(latency).collect()
    }

    /// Latencies of the requests that ran the optimizer for at least one
    /// block.
    fn optimized_latencies_ms(&self) -> Vec<f64> {
        let optimized = self.served().filter(|s| !s.fully_cached);
        optimized.map(|s| ms(s.latency)).collect()
    }

    /// Applies `stat` to the requests scheduled in each of [`WINDOWS`] equal
    /// windows of the phase and returns the median, so a transient stall of
    /// the shared machine moves one window, not the result.
    fn windowed(&self, duration: Duration, stat: impl Fn(&[&Record]) -> f64) -> f64 {
        let width = duration / WINDOWS as u32;
        let mut windows: Vec<Vec<&Record>> = vec![Vec::new(); WINDOWS];
        for record in &self.records {
            let w = (record.at.as_nanos() / width.as_nanos().max(1)) as usize;
            windows[w.min(WINDOWS - 1)].push(record);
        }
        let stats: Vec<f64> = windows.iter().map(|w| stat(w)).collect();
        median(&stats)
    }

    fn served(&self) -> impl Iterator<Item = &Served> {
        self.records.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    fn errors(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Whether the backlog grew: the mean queue length over the last third
    /// of the phase exceeds the first third's by more than the worker count.
    fn backlog_grew(&self, duration: Duration) -> bool {
        let third = duration / 3;
        let mean = |keep: &dyn Fn(Duration) -> bool| {
            let v: Vec<f64> = self
                .backlog
                .iter()
                .filter(|(at, _)| keep(*at))
                .map(|(_, n)| *n as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        mean(&|at| at >= duration - third) > mean(&|at| at < third) + WORKERS as f64
    }

    /// The phase sustains its rate: p99 within the limit, no errors, and
    /// no growing backlog.
    fn sustained(&self, duration: Duration) -> bool {
        self.errors() == 0
            && percentile(&self.latencies_ms(), 0.99) <= ms(LIMIT)
            && !self.backlog_grew(duration)
    }
}

/// Checks one response: a finite weighted cost, and every block neither
/// downgraded nor RMQ within the requested α.
fn check_response(response: &OptimizationResponse, alpha: f64) -> Option<String> {
    if !response.weighted_cost.is_finite() {
        return Some(format!("weighted cost {}", response.weighted_cost));
    }
    for block in &response.blocks {
        let guaranteed = match &block.source {
            BlockSource::Computed {
                algorithm,
                downgraded,
            } => !downgraded && !matches!(algorithm, Algorithm::Rmq { .. }),
            BlockSource::CacheHit { certificate } => {
                if !certificate.is_valid() {
                    return Some(format!(
                        "cache hit under invalid certificate {certificate:?}"
                    ));
                }
                true
            }
            BlockSource::WarmStarted { .. } => false,
        };
        if guaranteed && block.achieved_alpha > alpha * (1.0 + 1e-9) {
            return Some(format!(
                "block achieved α {} above requested {alpha}",
                block.achieved_alpha
            ));
        }
    }
    None
}

/// Message from the generator to the collector.
struct Submitted {
    at: Duration,
    target: Instant,
    submit_started: Instant,
    submit_returned: Instant,
    alpha: f64,
    result: Result<moqo_service::Ticket, ServiceError>,
}

fn collect(rx: &mpsc::Receiver<Submitted>, traced: bool) -> (Vec<Record>, Vec<String>) {
    let mut records = Vec::new();
    let mut bad = Vec::new();
    for msg in rx {
        let lag = msg.submit_started.saturating_duration_since(msg.target);
        let submit = msg.submit_returned - msg.submit_started;
        let outcome = msg.result.and_then(|ticket| {
            let response = ticket.wait()?;
            let returned = Instant::now();
            let worked = response.queue_wait + response.service_time;
            // The queue wait starts inside `submit`, so the service clocks
            // place the completion between these two instants.
            let earliest = msg.submit_started + worked;
            if returned + WAIT_SLACK < earliest {
                bad.push(format!(
                    "wait returned {:?} before the service-clock completion",
                    earliest - returned
                ));
            }
            let completion = (msg.submit_returned + worked).min(returned);
            if let Some(why) = check_response(&response, msg.alpha) {
                bad.push(why);
            }
            let mut served = Served {
                latency: completion - msg.target,
                queue_wait: response.queue_wait,
                service_time: response.service_time,
                fully_cached: response.fully_cached(),
                optimize: Vec::new(),
                rmq_ns_per_sample: Vec::new(),
            };
            if traced {
                for block in &response.blocks {
                    let rmq = match &block.source {
                        BlockSource::CacheHit { .. } => continue,
                        BlockSource::WarmStarted { .. } => true,
                        BlockSource::Computed { algorithm, .. } => {
                            matches!(algorithm, Algorithm::Rmq { .. })
                        }
                    };
                    served.optimize.push(block.report.elapsed);
                    if rmq && block.report.considered_plans > 0 {
                        served.rmq_ns_per_sample.push(
                            block.report.elapsed.as_nanos() as f64
                                / block.report.considered_plans as f64,
                        );
                    }
                }
            }
            Ok(served)
        });
        records.push(Record {
            at: msg.at,
            lag,
            submit,
            outcome,
        });
    }
    (records, bad)
}

/// Sleeps until `target` without spinning a core the workers need.
fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one phase: the generator on this thread, the collector on another.
fn drive(
    service: &OptimizationService,
    pool: &[OptimizationRequest],
    cold: &[Query],
    phase: &Phase,
) -> PhaseResult {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let traced = phase.traced;
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(&rx, traced));
        let mut result = PhaseResult::default();
        let start = Instant::now() + Duration::from_millis(1);
        let mut next_scrape = start;
        let mut stall = phase.stall;
        for arrival in &phase.arrivals {
            if let Some((at, length)) = stall {
                if arrival.at >= at {
                    std::thread::sleep(length);
                    stall = None;
                }
            }
            let target = start + arrival.at;
            sleep_until(target);
            if Instant::now() >= next_scrape {
                let t = Instant::now();
                let snapshot: MetricsSnapshot = service.metrics();
                result.snapshot_us.push(us(t.elapsed()));
                let t = Instant::now();
                let text = service.render_prometheus();
                result.prometheus_us.push(us(t.elapsed()));
                std::hint::black_box((snapshot.completed, text.len()));
                next_scrape += SCRAPE_EVERY;
            }
            let request = match &arrival.pick {
                Pick::Pool(i) => pool[*i].clone(),
                Pick::Cold(q, preference) => {
                    OptimizationRequest::new(cold[*q].clone(), *preference, COLD_ALPHA)
                        .with_deadline(LIMIT)
                }
            };
            let alpha = request.alpha;
            let submit_started = Instant::now();
            let submitted = service.submit(request);
            let submit_returned = Instant::now();
            if traced {
                result
                    .backlog
                    .push((submit_returned - start, service.queued()));
            }
            tx.send(Submitted {
                at: arrival.at,
                target,
                submit_started,
                submit_returned,
                alpha,
                result: submitted,
            })
            .expect("the collector outlives the generator");
        }
        drop(tx);
        let (records, bad) = collector.join().expect("the collector does not panic");
        result.records = records;
        result.bad = bad;
        result
    })
}

/// Everything set-up builds: the warmed service, its pool and the phases.
struct Setup {
    service: OptimizationService,
    pool: Vec<OptimizationRequest>,
    cold: Vec<Query>,
    phases: Vec<Phase>,
    warm_metrics: MetricsSnapshot,
}

fn phase(
    name: &'static str,
    rng: &mut StdRng,
    rate: f64,
    seconds: f64,
    pool_len: usize,
    traced: bool,
) -> Phase {
    let duration = Duration::from_secs_f64(seconds);
    Phase {
        name,
        rate,
        duration,
        arrivals: schedule(rng, rate, duration, pool_len),
        traced,
        stall: None,
    }
}

impl Setup {
    fn build(seed: u64, seconds: f64, trace: bool) -> Setup {
        let catalog = moqo_tpch::catalog(CATALOG_SCALE_FACTOR);
        let pool = pool(&catalog);
        let cold: Vec<Query> = COLD_QUERIES.iter().map(|&q| query(&catalog, q)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = pool.len();
        let mut phases = Vec::new();
        if trace {
            // The first half of the reference phase keeps no layer records;
            // `bench.trace_overhead_pct` compares the two halves.
            let half = 0.2 * seconds;
            phases.push(phase(
                "reference-untraced",
                &mut rng,
                REFERENCE_RPS,
                half,
                n,
                false,
            ));
            phases.push(phase("reference", &mut rng, REFERENCE_RPS, half, n, true));
            for rate in LADDER_RPS {
                phases.push(phase("ladder", &mut rng, rate, 0.1 * seconds, n, true));
            }
            phases.push(phase(
                "overload",
                &mut rng,
                OVERLOAD_RPS,
                0.15 * seconds,
                n,
                true,
            ));
        } else {
            phases.push(phase(
                "reference",
                &mut rng,
                REFERENCE_RPS,
                0.6 * seconds,
                n,
                false,
            ));
            phases.push(phase(
                "overload",
                &mut rng,
                OVERLOAD_RPS,
                0.3 * seconds,
                n,
                false,
            ));
        }

        let service = OptimizationService::builder(catalog)
            .workers(WORKERS)
            .queue_capacity(QUEUE_CAPACITY)
            .cache_capacity(CACHE_CAPACITY)
            .build();
        // Warm-up: every pool key once, solo, so the hot set is cached.
        for request in &pool {
            let response = service
                .submit_wait(request.clone())
                .expect("warm-up request");
            std::hint::black_box(response.weighted_cost);
        }
        let warm_metrics = service.metrics();
        Setup {
            service,
            pool,
            cold,
            phases,
            warm_metrics,
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(Setup::build(seed, seconds, trace));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("built above");

    let mut out = Outcome::default();
    let mut results = Vec::new();
    for phase in &setup.phases {
        let result = drive(&setup.service, &setup.pool, &setup.cold, phase);
        let lat = result.latencies_ms();
        println!(
            "{:<19} {:>6.0} req/s: {:>6} requests, {:>5} errors, p50 {:>8.3} ms, p99 {:>8.3} ms, sustained {}",
            phase.name,
            phase.rate,
            result.records.len(),
            result.errors(),
            median(&lat),
            percentile(&lat, 0.99),
            result.sustained(phase.duration)
        );
        results.push(result);
    }
    let metrics = setup.service.metrics();

    // Failures are wrong responses and clock inconsistencies, in every
    // phase. A `ServiceError` is not a wrong answer: at the reference rate
    // it counts as a request that missed the latency limit (and in
    // `bench.fail_frac`); above it, it is the admission policy at work.
    for (phase, result) in setup.phases.iter().zip(&results) {
        out.attempted += result.records.len() as u64;
        for why in &result.bad {
            out.check(Some(format!("{} phase: {why}", phase.name)));
        }
    }

    let (reference, _) = results
        .iter()
        .zip(&setup.phases)
        .find(|(_, p)| p.name == "reference")
        .expect("a reference phase");
    let overload = results.last().expect("an overload phase");
    let overload_phase = setup.phases.last().expect("an overload phase");

    if trace {
        let served: Vec<&Served> = reference.served().collect();
        let lag_ms: Vec<f64> = reference.records.iter().map(|r| ms(r.lag)).collect();
        let submit_us: Vec<f64> = reference.records.iter().map(|r| us(r.submit)).collect();
        let queue_ms: Vec<f64> = served.iter().map(|s| ms(s.queue_wait)).collect();
        let service_ms: Vec<f64> = served.iter().map(|s| ms(s.service_time)).collect();
        let optimize_ms: Vec<f64> = served
            .iter()
            .flat_map(|s| s.optimize.iter().map(|d| ms(*d)))
            .collect();
        let cached_us: Vec<f64> = served
            .iter()
            .filter(|s| s.fully_cached)
            .map(|s| us(s.service_time))
            .collect();
        let all: Vec<&PhaseResult> = results.iter().collect();
        let rmq: Vec<f64> = all
            .iter()
            .flat_map(|r| r.served().flat_map(|s| s.rmq_ns_per_sample.iter().copied()))
            .collect();
        let snapshot_us: Vec<f64> = all
            .iter()
            .flat_map(|r| r.snapshot_us.iter().copied())
            .collect();
        let prometheus_us: Vec<f64> = all
            .iter()
            .flat_map(|r| r.prometheus_us.iter().copied())
            .collect();
        let backlog_max = all
            .iter()
            .flat_map(|r| r.backlog.iter().map(|(_, n)| *n))
            .max()
            .unwrap_or(0);
        let w = &setup.warm_metrics;
        let delta = |now: u64, then: u64| (now - then) as f64;
        let cache_hits = delta(metrics.cache.hits, w.cache.hits);
        let cache_misses = delta(metrics.cache.misses, w.cache.misses);

        out.set("bench.gen_lag_ms_p99", percentile(&lag_ms, 0.99));
        out.set("service.submit_us_p50", median(&submit_us));
        out.set("service.submit_us_p99", percentile(&submit_us, 0.99));
        out.set("queue.wait_ms_p50", median(&queue_ms));
        out.set("queue.wait_ms_p99", percentile(&queue_ms, 0.99));
        out.set("service.service_ms_p99", percentile(&service_ms, 0.99));
        out.set("service.optimize_ms_p99", percentile(&optimize_ms, 0.99));
        out.set("cache.serve_us_p50", median(&cached_us));
        out.set(
            "cache.hit_ratio",
            cache_hits / (cache_hits + cache_misses).max(1.0),
        );
        out.set(
            "cache.warm_starts",
            delta(metrics.cache.warm_starts, w.cache.warm_starts),
        );
        out.set(
            "cache.insertions",
            delta(metrics.cache.insertions, w.cache.insertions),
        );
        out.set(
            "cache.evictions",
            delta(metrics.cache.evictions, w.cache.evictions),
        );
        out.set("rmq.blocks", delta(metrics.blocks_rmq, w.blocks_rmq));
        out.set("rmq.ns_per_sample", median(&rmq));
        out.set("policy.blocks_exa", delta(metrics.blocks_exa, w.blocks_exa));
        out.set("policy.blocks_rta", delta(metrics.blocks_rta, w.blocks_rta));
        out.set("policy.blocks_ira", delta(metrics.blocks_ira, w.blocks_ira));
        out.set(
            "policy.blocks_cached",
            delta(metrics.blocks_cached, w.blocks_cached),
        );
        out.set(
            "policy.downgraded",
            delta(metrics.downgraded_blocks, w.downgraded_blocks),
        );
        out.set("service.rejected", delta(metrics.rejected, w.rejected));
        out.set("service.timed_out", delta(metrics.timed_out, w.timed_out));
        out.set("service.shed", delta(metrics.shed, w.shed));
        out.set(
            "service.queue_full",
            delta(metrics.queue_full, w.queue_full),
        );
        out.set("service.failed", delta(metrics.failed, w.failed));
        out.set("service.backlog_max", backlog_max as f64);
        out.set("metrics.snapshot_us", median(&snapshot_us));
        out.set("export.prometheus_us", median(&prometheus_us));
        let max_rate = setup
            .phases
            .iter()
            .zip(&results)
            .filter(|(p, r)| p.name != "overload" && r.sustained(p.duration))
            .map(|(p, _)| p.rate)
            .fold(0.0, f64::max);
        out.set("bench.max_rate_rps", max_rate);
        let reference_errors: usize = results
            .iter()
            .zip(&setup.phases)
            .filter(|(_, p)| p.name.starts_with("reference"))
            .map(|(r, _)| r.errors())
            .sum();
        out.set(
            "bench.fail_frac",
            (out.failed as f64 + reference_errors as f64) / out.attempted as f64,
        );
        // Layers of one request: generator lag, submit, queue wait and
        // service time. They overlap only inside `submit`, after the
        // enqueue, so they must add up to the latency.
        let latency: f64 = served.iter().map(|s| ms(s.latency)).sum();
        let layers: f64 = reference
            .records
            .iter()
            .filter_map(|r| {
                let s = r.outcome.as_ref().ok()?;
                Some(ms(r.lag + r.submit + s.queue_wait + s.service_time))
            })
            .sum();
        let gap = (latency - layers) / latency;
        out.set("bench.layer_sum_gap_pct", 100.0 * gap);
        if gap.abs() > LAYER_SUM_TOLERANCE {
            out.check(Some(format!(
                "layers sum to {layers:.3} ms of {latency:.3} ms reference latency"
            )));
        }
        let untraced_p50 = median(&results[0].optimized_latencies_ms());
        out.set(
            "bench.trace_overhead_pct",
            100.0 * (median(&reference.optimized_latencies_ms()) - untraced_p50) / untraced_p50,
        );
        out.set("bench.lat_ms_p50_all", median(&reference.latencies_ms()));
        out.set(
            "bench.lat_ms_tail",
            percentile(&reference.latencies_ms(), 0.99),
        );
    } else {
        let window_s = overload_phase.duration.as_secs_f64() / WINDOWS as f64;
        let goodput = |w: &[&Record]| {
            let good = w
                .iter()
                .filter(|r| r.outcome.as_ref().is_ok_and(|s| s.latency <= LIMIT));
            good.count() as f64 / window_s
        };
        out.set("setup_s", median(&setup_s));
        out.set(
            "opt_per_s",
            overload.windowed(overload_phase.duration, goodput),
        );
        out.set("opt_ms_p50", median(&reference.optimized_latencies_ms()));
        out.set("peak_rss_mb", peak_rss_mb());
    }
    drop(setup.service.shutdown());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator stall must show up in the tail latency: arrivals
    /// scheduled during the stall are late, and their latency counts from
    /// the schedule, not from the late submission.
    #[test]
    fn generator_stall_shows_in_tail_latency() {
        let setup = Setup::build(7, 2.0, false);
        let stall = Duration::from_millis(300);
        let mut rng = StdRng::seed_from_u64(7);
        let mut run = |stall| {
            let mut p = phase("stall-test", &mut rng, 200.0, 1.5, setup.pool.len(), false);
            p.stall = stall;
            let result = drive(&setup.service, &setup.pool, &setup.cold, &p);
            percentile(&result.latencies_ms(), 0.99)
        };
        let control = run(None);
        let stalled = run(Some((Duration::from_millis(500), stall)));
        assert!(stalled >= 0.8 * ms(stall), "stalled p99 {stalled} ms");
        assert!(
            control < 0.5 * stalled,
            "control p99 {control} ms vs stalled {stalled} ms"
        );
    }
}
