//! Metric names, units, statistics helpers and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("opt_per_s", "1/s"),
    ("opt_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tpch.case_build_ms", "ms"),
    ("costmodel.new_us", "us"),
    ("select.us", "us"),
    ("optimizer.combine_us", "us"),
    ("dp.busy_ms", "ms"),
    ("dp.considered_plans", "count"),
    ("dp.considered_per_ms", "1/ms"),
    ("dp.pareto_plans", "count"),
    ("dp.peak_stored_plans", "count"),
    ("dp.peak_memory_kb", "KB"),
    ("dp.timeouts", "count"),
    ("ira.iterations", "count"),
    ("pareto.probes", "count"),
    ("pareto.grid_hit_ratio", "ratio"),
    ("pareto.insert_ns", "ns"),
    ("pareto.probe_ns", "ns"),
    ("costmodel.join_ns", "ns"),
    ("dp.probe_share_est", "%"),
    ("dp.cost_share_est", "%"),
    ("quality.wcost_ratio_max", "ratio"),
    ("bench.gen_lag_ms_p99", "ms"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.wait_ms_p99", "ms"),
    ("service.service_ms_p99", "ms"),
    ("service.optimize_ms_p99", "ms"),
    ("cache.serve_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.warm_starts", "count"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("rmq.blocks", "count"),
    ("rmq.ns_per_sample", "ns"),
    ("policy.blocks_exa", "count"),
    ("policy.blocks_rta", "count"),
    ("policy.blocks_ira", "count"),
    ("policy.blocks_cached", "count"),
    ("policy.downgraded", "count"),
    ("service.rejected", "count"),
    ("service.timed_out", "count"),
    ("service.shed", "count"),
    ("service.queue_full", "count"),
    ("service.failed", "count"),
    ("service.backlog_max", "count"),
    ("metrics.snapshot_us", "us"),
    ("export.prometheus_us", "us"),
    ("bench.lat_ms_p50_all", "ms"),
    ("bench.lat_ms_tail", "ms"),
    ("bench.max_rate_rps", "1/s"),
    ("bench.fail_frac", "ratio"),
    ("bench.layer_sum_gap_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one run measured: the correctness tally plus named values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable failure descriptions (the first few are printed).
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        if !value.is_finite() {
            self.check(Some(format!("metric {name} is {value}")));
        }
        self.values.insert(name, value);
    }

    /// Counts one checked operation; `failure` describes why it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Prints the human table, writes the result file and prints the JSON
    /// result as the last line of standard output.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<28} {value:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        for why in self.failures.iter().take(10) {
            println!("FAILED: {why}");
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
        let file = format!("{dir}/{workload}_seed{seed}_trace{}.json", u8::from(trace));
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(&file, format!("{line}\n"));
        }
        println!("{line}");
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`); 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, the mean of the two middle samples for an even count; 0 when
/// there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
