//! The closed-loop TPC-H workloads.
//!
//! * `tpch_exa` — EXA on Q3, Q10, Q18 and Q21 at 6 and 9 objectives with
//!   `weighted_test_case` preferences (the paper's Figure 5 regime).
//! * `tpch_approx` — RTA at α ∈ {1.15, 1.5} on Q2, Q5, Q7, Q9, Q10 and Q21
//!   at 6 and 9 objectives with `bounded_test_case` preferences, plus IRA at
//!   α = 1.15 on the Q10 and Q21 cases, where EXA references exist.
//!
//! Each (query, objective count) pair is a *slot*. A slot's objective set is
//! pinned to the generator's first draw, and its *pool* is the first
//! [`POOL`] generator draws that select that same set. EXA and RTA work
//! depends on the objective set only, so the seed, which picks the pool
//! members a run optimizes, changes weights and bounds but not the amount
//! of work. IRA work does depend on weights and bounds (its iteration
//! count), so IRA always runs on pool member 0.
//!
//! The untraced run calls `Optimizer::optimize`. The traced run calls the
//! same public steps one by one and times each, then replays the final
//! fronts through `PlanSet::prune_insert` and `cost_tree`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use moqo_catalog::{Catalog, Query};
use moqo_core::pareto::{PlanSet, PruneStrategy};
use moqo_core::{
    combine_block_costs, cost_tree, exa, ira, rta, rta_internal_precision, select_best, Algorithm,
    Deadline, DpResult, OptimizationResult, Optimizer, PlanEntry, PruneMode,
};
use moqo_cost::{CostVector, ObjectiveSet, Preference};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_plan::SortOrder;
use moqo_tpch::{bounded_test_case, weighted_test_case};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{median, ms, peak_rss_mb, us, Outcome};

/// TPC-H scale factor: the Figure 5 harness default.
const SCALE_FACTOR: f64 = 1.0;
/// Per-block timeout, far above the slowest case, so no case is cut off;
/// a timeout counts as a failure.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Pool members per slot (golden data covers every member of the EXA
/// reference slots).
pub const POOL: usize = 16;
/// Distinct pool members one run optimizes per slot; passes alternate.
const MEMBERS_PER_RUN: usize = 2;
/// Bounds per `bounded_test_case` preference.
const N_BOUNDS: usize = 3;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Relative slack of the golden optimum comparison.
const GOLDEN_TOLERANCE: f64 = 1e-9;
/// Largest share of the traced case wall time the timed layers may leave
/// unaccounted.
const LAYER_SUM_TOLERANCE: f64 = 0.02;
/// Dominance margin of the replayed front copies.
const REPLAY_DELTA: f64 = 1e-3;

const GOLDEN: &str = include_str!("../golden/tpch_exa.tsv");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exa,
    Approx,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    query: u8,
    objectives: usize,
    bounded: bool,
}

impl Slot {
    fn name(self) -> String {
        let kind = if self.bounded { "bounded" } else { "weighted" };
        format!("Q{}/{}obj/{kind}", self.query, self.objectives)
    }

    /// Whether committed EXA golden data covers this slot.
    fn has_golden(self) -> bool {
        !self.bounded || matches!(self.query, 10 | 21)
    }

    fn generator_seed(self, draw: u64) -> u64 {
        (u64::from(self.query) << 40)
            ^ ((self.objectives as u64) << 32)
            ^ (u64::from(self.bounded) << 31)
            ^ draw
    }

    /// The first `count` generator draws selecting the pinned objective set.
    fn pool_draws(self, count: usize) -> Vec<u64> {
        let objectives_of = |draw: u64| {
            let mut rng = StdRng::seed_from_u64(self.generator_seed(draw));
            weighted_test_case(&mut rng, self.query, self.objectives)
                .preference
                .objectives
        };
        let pinned: ObjectiveSet = objectives_of(0);
        (0u64..)
            .filter(|&draw| objectives_of(draw) == pinned)
            .take(count)
            .collect()
    }

    /// The generator's test case for one draw (`bounded_test_case` starts
    /// with the same objective and weight draws as `weighted_test_case`).
    fn preference(
        self,
        catalog: &Catalog,
        params: &CostModelParams,
        query: &Query,
        draw: u64,
    ) -> Preference {
        let mut rng = StdRng::seed_from_u64(self.generator_seed(draw));
        if self.bounded {
            let (q, n) = (self.query, self.objectives);
            bounded_test_case(&mut rng, catalog, params, query, q, n, N_BOUNDS).preference
        } else {
            weighted_test_case(&mut rng, self.query, self.objectives).preference
        }
    }
}

impl Workload {
    fn slots(self) -> Vec<Slot> {
        let (queries, bounded): (&[u8], bool) = match self {
            Workload::Exa => (&[3, 10, 18, 21], false),
            Workload::Approx => (&[2, 5, 7, 9, 10, 21], true),
        };
        let mut slots = Vec::new();
        for &query in queries {
            for objectives in [6, 9] {
                slots.push(Slot {
                    query,
                    objectives,
                    bounded,
                });
            }
        }
        slots
    }

    fn algorithms(self, slot: Slot) -> Vec<Algorithm> {
        match self {
            Workload::Exa => vec![Algorithm::Exhaustive],
            Workload::Approx => {
                let mut algorithms = vec![
                    Algorithm::Rta { alpha: 1.15 },
                    Algorithm::Rta { alpha: 1.5 },
                ];
                if slot.has_golden() {
                    algorithms.push(Algorithm::Ira { alpha: 1.15 });
                }
                algorithms
            }
        }
    }
}

/// The committed EXA reference of one pool member.
#[derive(Debug, Clone, PartialEq)]
struct GoldenRow {
    front_sizes: Vec<usize>,
    optimum: f64,
}

fn golden_table() -> BTreeMap<(Slot, usize), GoldenRow> {
    let mut table = BTreeMap::new();
    for line in GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        assert_eq!(f.len(), 6, "malformed golden line: {line}");
        let slot = Slot {
            query: f[0].parse().expect("query"),
            objectives: f[1].parse().expect("objectives"),
            bounded: f[2] == "bounded",
        };
        let member: usize = f[3].parse().expect("member");
        let front_sizes = f[4].split(',').map(|s| s.parse().expect("size")).collect();
        let optimum = f[5].parse().expect("optimum");
        table.insert(
            (slot, member),
            GoldenRow {
                front_sizes,
                optimum,
            },
        );
    }
    table
}

/// One optimization input: a pool member of a slot.
struct Case {
    slot: Slot,
    member: usize,
    preference: Preference,
    golden: Option<GoldenRow>,
}

/// One algorithm over one slot; pass `p` optimizes `cases[p % 2]`.
struct Job {
    algorithm: Algorithm,
    cases: [usize; MEMBERS_PER_RUN],
}

struct Setup {
    catalog: Catalog,
    queries: BTreeMap<u8, Query>,
    cases: Vec<Case>,
    jobs: Vec<Job>,
    build_ms: Vec<f64>,
}

impl Setup {
    fn build(workload: Workload, seed: u64, golden: &BTreeMap<(Slot, usize), GoldenRow>) -> Setup {
        let catalog = moqo_tpch::catalog(SCALE_FACTOR);
        let params = CostModelParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries = BTreeMap::new();
        let mut cases: Vec<Case> = Vec::new();
        let mut jobs = Vec::new();
        let mut build_ms = Vec::new();
        for slot in workload.slots() {
            let query = queries
                .entry(slot.query)
                .or_insert_with(|| moqo_tpch::query(&catalog, slot.query));
            let draws = slot.pool_draws(POOL);
            let mut seeded: Vec<usize> = (0..POOL).collect();
            seeded.shuffle(&mut rng);
            for algorithm in workload.algorithms(slot) {
                let members: [usize; MEMBERS_PER_RUN] = match algorithm {
                    Algorithm::Ira { .. } => [0; MEMBERS_PER_RUN],
                    _ => [seeded[0], seeded[1]],
                };
                let case_ids = members.map(|member| {
                    if let Some(id) = cases
                        .iter()
                        .position(|c| c.slot == slot && c.member == member)
                    {
                        return id;
                    }
                    let started = Instant::now();
                    let preference = slot.preference(&catalog, &params, query, draws[member]);
                    build_ms.push(ms(started.elapsed()));
                    cases.push(Case {
                        slot,
                        member,
                        preference,
                        golden: golden.get(&(slot, member)).cloned(),
                    });
                    cases.len() - 1
                });
                jobs.push(Job {
                    algorithm,
                    cases: case_ids,
                });
            }
        }
        // Warm-up: a cheap RTA on every 6-objective case touches each
        // query's code paths once.
        let optimizer = Optimizer::new(&catalog);
        for case in cases.iter().filter(|c| c.slot.objectives == 6) {
            let query = &queries[&case.slot.query];
            let warm = optimizer.optimize(query, &case.preference, Algorithm::Rta { alpha: 1.5 });
            black_box(warm.weighted_cost);
        }
        Setup {
            catalog,
            queries,
            cases,
            jobs,
            build_ms,
        }
    }
}

fn alpha_of(algorithm: Algorithm) -> f64 {
    match algorithm {
        Algorithm::Rta { alpha } | Algorithm::Ira { alpha } => alpha,
        _ => 1.0,
    }
}

fn algorithm_name(algorithm: Algorithm) -> String {
    match algorithm {
        Algorithm::Exhaustive => "EXA".to_owned(),
        Algorithm::Rta { alpha } => format!("RTA({alpha})"),
        Algorithm::Ira { alpha } => format!("IRA({alpha})"),
        Algorithm::Rmq { .. } => "RMQ".to_owned(),
    }
}

/// Checks one result against the golden reference; returns the failure,
/// if any, and the weighted-cost ratio to the EXA optimum when known.
fn check(
    case: &Case,
    algorithm: Algorithm,
    result: &OptimizationResult,
) -> (Option<String>, Option<f64>) {
    let label = format!(
        "{} member {} {}",
        case.slot.name(),
        case.member,
        algorithm_name(algorithm)
    );
    if result.report.timed_out() {
        return (Some(format!("{label}: timed out")), None);
    }
    if !result.weighted_cost.is_finite() {
        return (
            Some(format!("{label}: weighted cost {}", result.weighted_cost)),
            None,
        );
    }
    let Some(golden) = &case.golden else {
        return (None, None);
    };
    let ratio = result.weighted_cost / golden.optimum;
    if algorithm == Algorithm::Exhaustive {
        let sizes: Vec<usize> = result
            .block_plans
            .iter()
            .map(|b| b.frontier.len())
            .collect();
        if sizes != golden.front_sizes {
            return (
                Some(format!(
                    "{label}: front sizes {sizes:?}, golden {:?}",
                    golden.front_sizes
                )),
                Some(ratio),
            );
        }
        if (ratio - 1.0).abs() > GOLDEN_TOLERANCE {
            return (
                Some(format!(
                    "{label}: optimum {} vs golden {}",
                    result.weighted_cost, golden.optimum
                )),
                Some(ratio),
            );
        }
    } else if ratio > alpha_of(algorithm) * (1.0 + GOLDEN_TOLERANCE) {
        return (
            Some(format!("{label}: weighted cost ratio {ratio} exceeds α")),
            Some(ratio),
        );
    }
    (None, Some(ratio))
}

/// Per-layer accounting of the traced run.
#[derive(Default)]
struct Layers {
    cases: u64,
    wall: Duration,
    untraced: Duration,
    costmodel_new_us: Vec<f64>,
    select_us: Vec<f64>,
    combine_us: Vec<f64>,
    costmodel_new: Duration,
    dp: Duration,
    select: Duration,
    combine: Duration,
    considered: u64,
    pareto_plans: u64,
    peak_stored: usize,
    peak_memory: usize,
    timeouts: u64,
    ira_iterations: Vec<f64>,
    grid_hits: u64,
    scan_probes: u64,
    inserts: u64,
    insert_time: Duration,
    probes_replayed: u64,
    probe_time: Duration,
    joins: u64,
    join_time: Duration,
}

/// One block's traced products, kept for the replays.
struct TracedBlock<'a> {
    model: CostModel<'a>,
    result: DpResult,
    alpha_internal: f64,
}

/// Runs one case through the public steps `Optimizer::optimize` is made
/// of, timing each, and returns the weighted cost plus the block products.
fn traced_case<'a>(
    params: &'a CostModelParams,
    catalog: &'a Catalog,
    query: &'a Query,
    preference: &Preference,
    algorithm: Algorithm,
    layers: &mut Layers,
) -> (f64, Vec<TracedBlock<'a>>) {
    let case_started = Instant::now();
    let mut blocks = Vec::with_capacity(query.blocks.len());
    let mut costs: Vec<CostVector> = Vec::with_capacity(query.blocks.len());
    for graph in &query.blocks {
        let t = Instant::now();
        let model = CostModel::new(params, catalog, graph);
        let d_new = t.elapsed();
        let deadline = Deadline::new(Some(TIMEOUT));
        let t = Instant::now();
        let (result, alpha_internal, iterations) = match algorithm {
            Algorithm::Exhaustive => (exa(&model, preference, &deadline), 1.0, None),
            Algorithm::Rta { alpha } => (
                rta(&model, preference, alpha, &deadline),
                rta_internal_precision(alpha, graph.n_rels()),
                None,
            ),
            Algorithm::Ira { alpha } => {
                let out = ira(&model, preference, alpha, &deadline);
                let mut result = out.result;
                result.stats.considered_plans = out.total_considered;
                let internal = rta_internal_precision(out.alpha_last, graph.n_rels());
                (result, internal, Some(out.iterations))
            }
            Algorithm::Rmq { .. } => unreachable!("the TPC-H workloads run no RMQ"),
        };
        let d_dp = t.elapsed();
        let t = Instant::now();
        let best = select_best(&result.final_plans, preference).expect("a non-empty front");
        let d_select = t.elapsed();
        costs.push(best.cost);

        layers.costmodel_new += d_new;
        layers.costmodel_new_us.push(us(d_new));
        layers.dp += d_dp;
        layers.select += d_select;
        layers.select_us.push(us(d_select));
        let stats = &result.stats;
        layers.considered += stats.considered_plans;
        layers.pareto_plans += result.final_plans.len() as u64;
        layers.peak_stored = layers.peak_stored.max(stats.peak_stored_plans);
        layers.peak_memory = layers.peak_memory.max(stats.peak_memory_bytes);
        layers.timeouts += u64::from(stats.timed_out);
        layers.grid_hits += stats.frontier_grid_hits;
        layers.scan_probes += stats.frontier_scan_probes;
        if let Some(i) = iterations {
            layers.ira_iterations.push(f64::from(i));
        }
        blocks.push(TracedBlock {
            model,
            result,
            alpha_internal,
        });
    }
    let t = Instant::now();
    let total = combine_block_costs(&costs);
    let weighted = preference.weighted_cost(&total);
    let d_combine = t.elapsed();
    layers.combine += d_combine;
    layers.combine_us.push(us(d_combine));
    layers.wall += case_started.elapsed();
    layers.cases += 1;
    (weighted, blocks)
}

/// Replays one block's final front, interleaved with (1+δ)-dominated
/// copies in seeded order, through `PlanSet::prune_insert` (one set per
/// output order, as the dynamic programming groups them), and re-costs the
/// front's trees with `cost_tree`.
fn replay(
    block: &TracedBlock<'_>,
    objectives: ObjectiveSet,
    rng: &mut StdRng,
    layers: &mut Layers,
) {
    let front = &block.result.final_plans;
    let copies: Vec<PlanEntry> = front
        .iter()
        .map(|entry| {
            let mut copy = *entry;
            for o in objectives.iter() {
                copy.cost.set(o, entry.cost.get(o) * (1.0 + REPLAY_DELTA));
            }
            copy
        })
        .collect();
    let mut stream: Vec<PlanEntry> = front.iter().chain(&copies).copied().collect();
    stream.shuffle(rng);
    let strategy = PruneStrategy::approximate(block.alpha_internal).with_mode(PruneMode::auto(
        block.model.params.enable_sampling,
        objectives,
    ));
    let mut sets: BTreeMap<SortOrder, PlanSet> = BTreeMap::new();
    let t = Instant::now();
    for entry in &stream {
        sets.entry(entry.props.order)
            .or_default()
            .prune_insert(*entry, &strategy, objectives);
    }
    layers.insert_time += t.elapsed();
    layers.inserts += stream.len() as u64;
    // Probe-only replay: the dynamic programming rejects almost every
    // candidate, so the probe share is estimated from the copies' probes
    // against the loaded sets, not from whole insertions.
    let t = Instant::now();
    for entry in &copies {
        let set = &sets[&entry.props.order];
        black_box(set.would_reject(&entry.cost, &entry.props, &strategy, objectives));
    }
    layers.probe_time += t.elapsed();
    layers.probes_replayed += copies.len() as u64;

    let trees: Vec<_> = front
        .iter()
        .map(|e| block.result.arena.extract_tree(e.plan))
        .collect();
    let t = Instant::now();
    for tree in &trees {
        black_box(cost_tree(&block.model, tree));
    }
    layers.join_time += t.elapsed();
    layers.joins += trees.iter().map(|tree| tree.n_joins() as u64).sum::<u64>();
}

pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let golden = golden_table();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(Setup::build(workload, seed, &golden));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("built above");
    let params = CostModelParams::default();
    let optimizer = Optimizer::new(&setup.catalog).with_timeout(TIMEOUT);

    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); setup.jobs.len()];
    let mut ratio_max: f64 = 0.0;
    let mut replay_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut longest_pass = Duration::ZERO;
    let mut pass = 0usize;
    // Whole passes only, started while at least half of one more fits.
    while pass == 0 || started.elapsed() + longest_pass / 2 <= budget {
        let pass_started = Instant::now();
        let mut order: Vec<usize> = (0..setup.jobs.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed.wrapping_add(pass as u64)));
        for &j in &order {
            let job = &setup.jobs[j];
            let case = &setup.cases[job.cases[pass % MEMBERS_PER_RUN]];
            let query = &setup.queries[&case.slot.query];
            let t = Instant::now();
            let result = optimizer.optimize(query, &case.preference, job.algorithm);
            let elapsed = t.elapsed();
            job_ms[j].push(ms(elapsed));
            let (failure, ratio) = check(case, job.algorithm, &result);
            out.check(failure);
            if job.algorithm != Algorithm::Exhaustive {
                ratio_max = ratio_max.max(ratio.unwrap_or(0.0));
            }
            if trace {
                layers.untraced += elapsed;
                let (weighted, blocks) = traced_case(
                    &params,
                    &setup.catalog,
                    query,
                    &case.preference,
                    job.algorithm,
                    &mut layers,
                );
                if weighted.to_bits() != result.weighted_cost.to_bits() {
                    out.check(Some(format!(
                        "{}: traced weighted cost {weighted} differs from Optimizer::optimize {}",
                        case.slot.name(),
                        result.weighted_cost
                    )));
                }
                if pass == 0 {
                    for block in &blocks {
                        replay(
                            block,
                            case.preference.objectives,
                            &mut replay_rng,
                            &mut layers,
                        );
                    }
                }
            }
        }
        longest_pass = longest_pass.max(pass_started.elapsed());
        pass += 1;
    }

    let job_medians: Vec<f64> = job_ms.iter().map(|t| median(t)).collect();
    println!(
        "{:?}: {} jobs × {pass} passes, {} cases built, {} optimizations checked",
        workload,
        setup.jobs.len(),
        setup.cases.len(),
        out.attempted
    );
    for (job, median_ms) in setup.jobs.iter().zip(&job_medians) {
        let slot = setup.cases[job.cases[0]].slot;
        let name = algorithm_name(job.algorithm);
        println!(
            "  {:<22} {name:<10} median {median_ms:>9.2} ms",
            slot.name()
        );
    }

    if trace {
        let cases = layers.cases.max(1) as f64;
        let dp_ns = layers.dp.as_nanos() as f64;
        let insert_ns = layers.insert_time.as_nanos() as f64 / layers.inserts.max(1) as f64;
        let probe_ns = layers.probe_time.as_nanos() as f64 / layers.probes_replayed.max(1) as f64;
        let join_ns = layers.join_time.as_nanos() as f64 / layers.joins.max(1) as f64;
        let probes = layers.grid_hits + layers.scan_probes;
        let layer_sum = layers.costmodel_new + layers.dp + layers.select + layers.combine;
        let wall = layers.wall.as_secs_f64();
        out.set("tpch.case_build_ms", median(&setup.build_ms));
        out.set("costmodel.new_us", median(&layers.costmodel_new_us));
        out.set("select.us", median(&layers.select_us));
        out.set("optimizer.combine_us", median(&layers.combine_us));
        out.set("dp.busy_ms", ms(layers.dp) / cases);
        out.set("dp.considered_plans", layers.considered as f64 / cases);
        out.set(
            "dp.considered_per_ms",
            layers.considered as f64 / ms(layers.dp),
        );
        out.set("dp.pareto_plans", layers.pareto_plans as f64 / cases);
        out.set("dp.peak_stored_plans", layers.peak_stored as f64);
        out.set("dp.peak_memory_kb", layers.peak_memory as f64 / 1024.0);
        out.set("dp.timeouts", layers.timeouts as f64);
        let iterations = &layers.ira_iterations;
        let ira_mean = if iterations.is_empty() {
            0.0
        } else {
            iterations.iter().sum::<f64>() / iterations.len() as f64
        };
        out.set("ira.iterations", ira_mean);
        out.set("pareto.probes", probes as f64 / cases);
        out.set(
            "pareto.grid_hit_ratio",
            layers.grid_hits as f64 / probes.max(1) as f64,
        );
        out.set("pareto.insert_ns", insert_ns);
        out.set("costmodel.join_ns", join_ns);
        out.set("pareto.probe_ns", probe_ns);
        out.set(
            "dp.probe_share_est",
            100.0 * probes as f64 * probe_ns / dp_ns,
        );
        out.set(
            "dp.cost_share_est",
            100.0 * layers.considered as f64 * join_ns / dp_ns,
        );
        out.set("quality.wcost_ratio_max", ratio_max);
        out.set(
            "bench.lat_ms_tail",
            job_medians.iter().copied().fold(0.0, f64::max),
        );
        out.set("bench.fail_frac", out.failed as f64 / out.attempted as f64);
        out.set(
            "bench.layer_sum_gap_pct",
            100.0 * (wall - layer_sum.as_secs_f64()) / wall,
        );
        out.set(
            "bench.trace_overhead_pct",
            100.0 * (wall - layers.untraced.as_secs_f64()) / layers.untraced.as_secs_f64(),
        );
        if (wall - layer_sum.as_secs_f64()).abs() > LAYER_SUM_TOLERANCE * wall {
            out.check(Some(format!(
                "layers sum to {:.3} s of {wall:.3} s case wall time",
                layer_sum.as_secs_f64()
            )));
        }
    } else {
        out.set("setup_s", median(&setup_s));
        // One pass made of every job's median time: a pass slowed by the
        // shared machine moves only its own samples.
        out.set(
            "opt_per_s",
            job_medians.len() as f64 / (job_medians.iter().sum::<f64>() / 1e3),
        );
        out.set("opt_ms_p50", median(&job_medians));
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// Recomputes the EXA golden data of every reference slot and rewrites
/// `golden/tpch_exa.tsv`.
pub fn generate_golden() {
    let catalog = moqo_tpch::catalog(SCALE_FACTOR);
    let params = CostModelParams::default();
    let optimizer = Optimizer::new(&catalog);
    let mut text = String::from(
        "# EXA reference per pool member: query, objectives, preference kind, member,\n\
         # per-block Pareto front sizes, optimum weighted cost. Regenerate with\n\
         # `cargo run --release --manifest-path perfbench/Cargo.toml -- --gen-golden`.\n",
    );
    let mut slots: Vec<Slot> = Workload::Exa.slots();
    slots.extend(
        Workload::Approx
            .slots()
            .into_iter()
            .filter(|s| s.has_golden()),
    );
    for slot in slots {
        let query = moqo_tpch::query(&catalog, slot.query);
        for (member, draw) in slot.pool_draws(POOL).into_iter().enumerate() {
            let preference = slot.preference(&catalog, &params, &query, draw);
            let started = Instant::now();
            let result = optimizer.optimize(&query, &preference, Algorithm::Exhaustive);
            assert!(!result.report.timed_out());
            let sizes: Vec<String> = result
                .block_plans
                .iter()
                .map(|b| b.frontier.len().to_string())
                .collect();
            let kind = if slot.bounded { "bounded" } else { "weighted" };
            let _ = writeln!(
                text,
                "{}\t{}\t{kind}\t{member}\t{}\t{:?}",
                slot.query,
                slot.objectives,
                sizes.join(","),
                result.weighted_cost
            );
            eprintln!(
                "{} member {member}: {:.0} ms",
                slot.name(),
                ms(started.elapsed())
            );
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/tpch_exa.tsv");
    std::fs::write(path, text).expect("golden file is writable");
    eprintln!("wrote {path}");
}
