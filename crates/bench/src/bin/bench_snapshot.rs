//! Perf-trajectory snapshot: runs a fixed workload matrix and writes median
//! wall-times to a JSON file (`BENCH_pr6.json` by default), so successive
//! PRs can track the optimizer hot paths with one committed artifact per
//! snapshot instead of scattered criterion reports.
//!
//! The matrix covers the three hot paths this repository optimizes:
//!
//! * **DP insert stream** — 2000 random cost vectors through
//!   `PlanSet::prune_insert` at 2/6/9 objectives,
//! * **Frontier structures** — the same stream pinned to each frontier
//!   layout (`plain` linear sets vs the `grid` sub-linear engine); the
//!   checksums must agree per objective count, certifying that the indexed
//!   engine produces byte-identical fronts,
//! * **Frontier probe outcomes** — how the sub-linear engine resolved the
//!   EXA chains' dominance probes (grid-cell hits vs cutoff scans), as
//!   zero-time cells whose checksum is the counter value,
//! * **EXA** — the exact DP on 6- and 8-table chain join graphs
//!   (sampling off),
//! * **EXA, props-aware** — the same chains with sampling scans enabled,
//!   where `PruneMode::auto` switches every pruning site to props-aware
//!   dominance; the checksum gates the sound mode's fronts,
//! * **RMQ** — 1k and 10k samples on 8- and 20-table chains at 1, 2 and
//!   4 threads (the fronts are seed-deterministic, so the per-thread rows
//!   also certify the parallel merge: `front` must agree per column).
//!
//! Environment knobs:
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MOQO_SMOKE` | unset | `1`: single rep, budgets ÷10 (CI smoke mode) |
//! | `MOQO_BENCH_OUT` | `BENCH_pr6.json` | output path |
//! | `MOQO_BENCH_REPS` | 5 | repetitions per cell (median is reported) |

use std::time::Instant;

use moqo_bench::snapshot::{self, Cell};
use moqo_core::pareto::{FrontierStructure, PlanEntry, PlanSet, PruneStrategy};
use moqo_core::{exa, rmq, Deadline, RmqConfig};
use moqo_cost::{CostVector, Objective, ObjectiveSet, Preference};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_plan::{PlanId, PlanProps, SortOrder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn median_ms(reps: usize, mut f: impl FnMut() -> usize) -> (f64, u64) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut checksum = 0;
    for _ in 0..reps {
        let started = Instant::now();
        checksum = f() as u64;
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    (times[times.len() / 2], checksum)
}

fn random_entries(n: usize, objectives: usize, seed: u64) -> Vec<PlanEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut a = [0.0; moqo_cost::NUM_OBJECTIVES];
            for v in a.iter_mut().take(objectives) {
                *v = rng.gen_range(1.0..1000.0);
            }
            PlanEntry {
                cost: CostVector::from_array(a),
                props: PlanProps {
                    rels: 1,
                    rows: 1.0,
                    width: 1.0,
                    order: SortOrder::None,
                    sampling_factor: 1.0,
                },
                plan: PlanId(i as u32),
            }
        })
        .collect()
}

/// Emits the frontier engine's probe-outcome counters for one EXA cell as
/// zero-time rows: the checksum IS the counter, so snapshot diffs surface
/// how the structure resolved the run's dominance probes (grid-cell hits
/// vs cutoff scans). The counters are deterministic per workload.
fn push_probe_cells(cells: &mut Vec<Cell>, workload: &str, tables: usize, probes: (u64, u64)) {
    let (grid_hits, scan_probes) = probes;
    for (outcome, value) in [("grid_hit", grid_hits), ("scan", scan_probes)] {
        cells.push(
            Cell::new(format!("{workload}_probes"), 0.0, value)
                .param("tables", tables)
                .param("outcome", outcome),
        );
    }
    println!("{workload}_probes tables={tables}: grid_hit {grid_hits} / scan {scan_probes}");
}

fn main() {
    let smoke = std::env::var("MOQO_SMOKE").is_ok_and(|v| v != "0");
    let reps: usize = std::env::var("MOQO_BENCH_REPS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(if smoke { 1 } else { 5 });
    let budget_div: u64 = if smoke { 10 } else { 1 };
    let out_path = std::env::var("MOQO_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr6.json".to_owned());

    let preference = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6);
    let params = CostModelParams {
        enable_sampling: false,
        ..CostModelParams::default()
    };
    let catalog = moqo_tpch::catalog(0.01);
    let mut cells: Vec<Cell> = Vec::new();

    // DP insert stream: the Prune hot loop in isolation.
    for &n_objs in &[2usize, 6, 9] {
        let objs: ObjectiveSet = Objective::ALL.into_iter().take(n_objs).collect();
        let entries = random_entries(2000, n_objs, 99);
        let (ms, front) = median_ms(reps, || {
            let mut set = PlanSet::new();
            let strategy = PruneStrategy::exact();
            for e in &entries {
                set.prune_insert(*e, &strategy, objs);
            }
            set.len()
        });
        cells.push(
            Cell::new("dp_insert_stream", ms, front)
                .param("objectives", n_objs)
                .param("vectors", 2000),
        );
        println!("dp_insert_stream objectives={n_objs}: {ms:.3} ms (set {front})");
    }

    // Frontier structures head-to-head: the same insert stream pinned to
    // each layout. `plain` is the linear scan; `grid` forces the
    // sub-linear engine (two-level props-class fronts + grid-bucket index)
    // from the first insert. Equal checksums per objective count certify
    // that the engine's fronts are byte-identical to the plain sets'.
    for &n_objs in &[2usize, 6, 9] {
        let objs: ObjectiveSet = Objective::ALL.into_iter().take(n_objs).collect();
        let entries = random_entries(2000, n_objs, 99);
        let mut fronts: Vec<u64> = Vec::new();
        for (layout, structure) in [
            ("plain", FrontierStructure::Plain),
            ("grid", FrontierStructure::Indexed),
        ] {
            let (ms, front) = median_ms(reps, || {
                let mut set = PlanSet::with_structure(structure);
                let strategy = PruneStrategy::exact();
                for e in &entries {
                    set.prune_insert(*e, &strategy, objs);
                }
                set.len()
            });
            fronts.push(front);
            cells.push(
                Cell::new("frontier_insert_stream", ms, front)
                    .param("objectives", n_objs)
                    .param("layout", layout)
                    .param("vectors", 2000),
            );
            println!("frontier_insert_stream objectives={n_objs} layout={layout}: {ms:.3} ms (set {front})");
        }
        assert!(
            fronts.windows(2).all(|w| w[0] == w[1]),
            "frontier layouts disagree at {n_objs} objectives: {fronts:?}"
        );
    }

    // EXA on chain graphs: the full DP inner loop.
    for &n in &[6usize, 8] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);
        let mut probes = (0u64, 0u64);
        let (ms, front) = median_ms(reps, || {
            let result = exa(&model, &preference, &Deadline::unlimited());
            probes = (
                result.stats.frontier_grid_hits,
                result.stats.frontier_scan_probes,
            );
            result.final_plans.len()
        });
        cells.push(Cell::new("exa_chain", ms, front).param("tables", n));
        println!("exa_chain tables={n}: {ms:.3} ms (front {front})");
        push_probe_cells(&mut cells, "exa_chain", n, probes);
    }

    // EXA with sampling scans enabled: the leaking regime, where the
    // entry points auto-select props-aware pruning. The front sizes gate
    // the sound mode's behaviour the same way the cost-only rows gate the
    // paper baseline.
    let sampled_params = CostModelParams::default();
    debug_assert!(sampled_params.enable_sampling);
    for &n in &[6usize, 8] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&sampled_params, &catalog, &graph);
        let mut probes = (0u64, 0u64);
        let (ms, front) = median_ms(reps, || {
            let result = exa(&model, &preference, &Deadline::unlimited());
            probes = (
                result.stats.frontier_grid_hits,
                result.stats.frontier_scan_probes,
            );
            result.final_plans.len()
        });
        cells.push(Cell::new("exa_chain_props", ms, front).param("tables", n));
        println!("exa_chain_props tables={n}: {ms:.3} ms (front {front})");
        push_probe_cells(&mut cells, "exa_chain_props", n, probes);
    }

    // RMQ: samples × tables × threads. Fronts are deterministic per seed,
    // so equal checksums across the thread column certify the merge.
    for &n in &[8usize, 20] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);
        for &samples in &[1_000u64, 10_000] {
            let samples = (samples / budget_div).max(1);
            for &threads in &[1usize, 2, 4] {
                let config = RmqConfig::new(samples, 42).with_threads(threads);
                let (ms, front) = median_ms(reps, || {
                    rmq(&model, &preference, &config, &Deadline::unlimited())
                        .final_plans
                        .len()
                });
                cells.push(
                    Cell::new("rmq_chain", ms, front)
                        .param("tables", n)
                        .param("samples", samples)
                        .param("threads", threads),
                );
                println!(
                    "rmq_chain tables={n} samples={samples} threads={threads}: \
                     {ms:.3} ms (front {front})"
                );
            }
        }
    }

    // Service metrics snapshot cost: O(buckets), independent of uptime.
    // These cells pin that — the 100× column must not cost 100× (the
    // binary asserts a generous 20× ceiling to stay robust on noisy CI
    // machines).
    {
        use moqo_service::{PlanCache, ServiceCounter, ServiceMetrics};
        use std::time::Duration;
        let cache = PlanCache::new(8, 1);
        let mut medians: Vec<f64> = Vec::new();
        for &completions in &[10_000u64, 1_000_000] {
            let metrics = ServiceMetrics::default();
            for i in 0..completions {
                metrics.bump(ServiceCounter::Submitted);
                metrics.on_completed(
                    Duration::from_micros(i % 3_000),
                    Duration::from_micros(500 + i % 20_000),
                );
            }
            // 64 snapshots per rep so the per-call cost is measurable.
            let (ms, count) = median_ms(reps.max(3), || {
                let mut completed = 0u64;
                for _ in 0..64 {
                    completed = metrics.snapshot(cache.snapshot(), 0).completed;
                }
                usize::try_from(completed).expect("counts fit usize")
            });
            medians.push(ms);
            cells.push(
                Cell::new("metrics_snapshot_cost", ms, count).param("completions", completions),
            );
            println!("metrics_snapshot_cost completions={completions}: {ms:.3} ms / 64 snapshots");
        }
        assert!(
            medians[1] < medians[0] * 20.0 + 2.0,
            "snapshot cost must be independent of completed-request count: \
             {:.3} ms at 10k vs {:.3} ms at 1M",
            medians[0],
            medians[1]
        );
    }

    let header = [
        ("pr", "6".to_owned()),
        ("smoke", smoke.to_string()),
        ("reps", reps.to_string()),
    ];
    let json = snapshot::write(&header, &cells);
    std::fs::write(&out_path, json).expect("snapshot file must be writable");
    println!("\nwrote {} cells to {out_path}", cells.len());
}
