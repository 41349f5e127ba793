//! `FindParetoPlans`: the shared bottom-up dynamic programming of
//! Algorithms 1 and 2.
//!
//! The enumeration follows the paper's pseudo-code, generating bushy plans:
//!
//! 1. plans for singleton table sets from all applicable scan operators,
//! 2. for table sets of increasing cardinality, all splits into two
//!    non-empty disjoint subsets, all join-operator configurations, and all
//!    combinations of stored sub-plans — each candidate goes through
//!    `Prune` (see [`crate::pareto`]).
//!
//! Two Postgres heuristics the paper deliberately kept (§4) are honoured:
//! Cartesian products are considered only for table sets that admit no
//! connected split, and (at the [`crate::Optimizer`] level) query blocks are
//! optimized separately.
//!
//! Plans are additionally grouped by output [`SortOrder`] — the slice of
//! Postgres path keys relevant here — and pruning happens within a group:
//! a sorted plan may be arbitrarily worse on every cost objective and still
//! be the key to a cheaper sort-merge join above, so comparing across orders
//! would break the principle of optimality.
//!
//! On deadline expiry the enumeration "finishes quickly by only generating
//! one plan for all table sets that have not been treated so far" (§5.1):
//! remaining sets get a single plan assembled greedily from the
//! best-weighted stored sub-plans.

use std::collections::{BTreeMap, HashMap};

use moqo_catalog::RelMask;
use moqo_cost::{ObjectiveSet, Weights};
use moqo_costmodel::{CostModel, JoinKey};
use moqo_plan::{JoinOp, PlanArena, PlanNode, ScanOp, SortOrder};

use crate::budget::Deadline;
use crate::pareto::{PlanSet, PruneMode, PruneStrategy};

pub use crate::pareto::PlanEntry;

/// Configuration of one `FindParetoPlans` run.
#[derive(Debug, Clone, Copy)]
pub struct DpConfig {
    /// Internal pruning precision `α_i` (1.0 = exact algorithm).
    pub alpha_internal: f64,
    /// Dominance relation plans are discarded under. The algorithm entry
    /// points select this via [`PruneMode::auto`]; calling
    /// `find_pareto_plans` directly with [`PruneMode::CostOnly`] while
    /// sampling scans are enabled and `TupleLoss` is unselected reproduces
    /// the unsound pruning the mode exists to fix.
    pub prune_mode: PruneMode,
}

impl DpConfig {
    /// Exact enumeration (EXA) with cost-only pruning.
    #[must_use]
    pub fn exact() -> Self {
        DpConfig {
            alpha_internal: 1.0,
            prune_mode: PruneMode::CostOnly,
        }
    }

    /// Approximate enumeration with internal precision `alpha_internal`.
    #[must_use]
    pub fn approximate(alpha_internal: f64) -> Self {
        DpConfig {
            alpha_internal,
            ..DpConfig::exact()
        }
    }

    /// Replaces the pruning mode (builder style).
    #[must_use]
    pub fn with_prune_mode(mut self, mode: PruneMode) -> Self {
        self.prune_mode = mode;
        self
    }
}

/// Counters and accounting collected during one run.
#[derive(Debug, Clone, Default)]
pub struct DpStats {
    /// Plans constructed and offered to `Prune` (the paper's "considered
    /// plans", which grow quadratically in the Pareto set sizes).
    pub considered_plans: u64,
    /// Plans currently stored across all table sets.
    pub stored_plans: usize,
    /// Peak of [`DpStats::stored_plans`], sampled whenever a table set
    /// completes (rather than after every insertion): the stored sets at a
    /// completion boundary are determined by the candidate *set*, not the
    /// candidate *order*, so the peak is comparable across enumeration-order
    /// changes. Transient within-set spikes are deliberately not counted.
    pub peak_stored_plans: usize,
    /// Deterministic memory model: peak stored plans × bytes per stored
    /// plan (plan node + cost vector + entry bookkeeping), in bytes.
    pub peak_memory_bytes: usize,
    /// Number of stored plans for the last table set that was treated
    /// completely (the paper's "#Pareto plans" metric, Figures 5 and 9).
    pub pareto_last_complete: usize,
    /// Maximum plan-set size over all (table set, order) groups.
    pub max_group_size: usize,
    /// Frontier probes resolved by the grid-bucket fast path (a verified
    /// occupant of the candidate's own α^(1/k)-cell rejected it without a
    /// scan), summed over every plan set of the run.
    pub frontier_grid_hits: u64,
    /// Frontier probes that fell through to a cutoff scan (plain sorted
    /// vector, or the indexed engine's filtered scans), summed over every
    /// plan set of the run. Together with
    /// [`DpStats::frontier_grid_hits`] this partitions all `would_reject`
    /// probes, so the hit ratio measures the index's effectiveness.
    pub frontier_scan_probes: u64,
    /// Whether the deadline expired and the quick-finish path ran.
    pub timed_out: bool,
}

impl DpStats {
    /// Bytes accounted per stored plan: the O(1)-space representation of
    /// Theorem 1 (plan node + cost vector + props + id).
    #[must_use]
    pub fn bytes_per_stored_plan() -> usize {
        PlanArena::bytes_per_node() + std::mem::size_of::<PlanEntry>()
    }

    fn on_stored_delta(&mut self, inserted: bool, deleted: usize) {
        if inserted {
            self.stored_plans += 1;
        }
        self.stored_plans -= deleted;
    }

    /// Samples the peak at a table-set completion boundary (see
    /// [`DpStats::peak_stored_plans`]).
    fn on_set_completed(&mut self) {
        if self.stored_plans > self.peak_stored_plans {
            self.peak_stored_plans = self.stored_plans;
            self.peak_memory_bytes = self.peak_stored_plans * Self::bytes_per_stored_plan();
        }
    }
}

/// Result of one `FindParetoPlans` run.
#[derive(Debug)]
pub struct DpResult {
    /// Arena owning every plan generated during the run.
    pub arena: PlanArena,
    /// The (approximate) Pareto plan set for the full table set, flattened
    /// over order groups.
    pub final_plans: Vec<PlanEntry>,
    /// Run statistics.
    pub stats: DpStats,
}

/// Per-table-set state: one [`PlanSet`] per output order.
///
/// The order index is a `BTreeMap` so entry iteration (and with it the
/// candidate stream of every superset, the flattened final front, and the
/// stored sets under *approximate* pruning, which are insertion-order
/// dependent) is deterministic; a `HashMap`'s per-instance seed made
/// α > 1 runs irreproducible. Groups per table set are few, so the tree
/// lookup is not measurable against the prune scans.
#[derive(Debug, Default)]
struct OrderGroups {
    groups: BTreeMap<SortOrder, PlanSet>,
    completed: bool,
}

impl OrderGroups {
    fn total_plans(&self) -> usize {
        self.groups.values().map(PlanSet::len).sum()
    }

    fn iter_entries(&self) -> impl Iterator<Item = &PlanEntry> {
        self.groups.values().flat_map(PlanSet::iter)
    }

    /// Sums the probe-outcome counters of every group's plan set.
    fn probes(&self) -> crate::pareto::FrontierProbes {
        let mut sum = crate::pareto::FrontierProbes::default();
        for set in self.groups.values() {
            let p = set.probes();
            sum.grid_hits += p.grid_hits;
            sum.scan_probes += p.scan_probes;
        }
        sum
    }

    fn best_weighted(&self, weights: &Weights) -> Option<PlanEntry> {
        self.iter_entries()
            .min_by(|a, b| {
                weights
                    .weighted_cost(&a.cost)
                    .partial_cmp(&weights.weighted_cost(&b.cost))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
    }
}

/// Computes the (approximate) Pareto plan set for the model's query block.
///
/// * `objectives` — the selected objective subset (dominance dimensions).
/// * `config` — internal pruning precision and prune mode.
/// * `weights` — used only by the quick-finish path after a timeout, to pick
///   the single surviving plan per remaining table set.
/// * `deadline` — wall-clock budget; see module docs for expiry semantics.
///
/// # Panics
///
/// Panics if the query block is empty or has more than 24 relations.
#[must_use]
pub fn find_pareto_plans(
    model: &CostModel<'_>,
    objectives: ObjectiveSet,
    config: &DpConfig,
    weights: &Weights,
    deadline: &Deadline,
) -> DpResult {
    let n = model.graph.n_rels();
    assert!(n >= 1, "query block must contain at least one relation");
    assert!(n <= 24, "query blocks beyond 24 relations are unsupported");

    let strategy = PruneStrategy {
        alpha_internal: config.alpha_internal,
        mode: config.prune_mode,
    };
    let full_mask: RelMask = model.graph.full_mask();
    let mut arena = PlanArena::new();
    let mut stats = DpStats::default();
    // Dense DP table indexed by mask; entry 0 unused.
    let mut table: Vec<OrderGroups> = Vec::with_capacity(1 << n);
    for _ in 0..(1usize << n) {
        table.push(OrderGroups::default());
    }

    let keys = JoinKeys::new(model);

    // Phase 1: access paths for single tables.
    for rel in 0..n {
        let mask = 1u32 << rel;
        let target = &mut table[mask as usize];
        for op in scan_configurations(model, rel) {
            if let Some((cost, props)) = model.scan_cost(rel, op) {
                stats.considered_plans += 1;
                offer_entry(
                    target,
                    cost,
                    props,
                    |a| a.scan(rel, op),
                    &mut arena,
                    &strategy,
                    objectives,
                    &mut stats,
                );
            }
        }
        target.completed = true;
        stats.pareto_last_complete = target.total_plans();
        stats.on_set_completed();
    }

    // Phase 2: table sets of increasing cardinality.
    'outer: for mask in masks_by_cardinality(n) {
        if deadline.expired() {
            stats.timed_out = true;
            break 'outer;
        }
        let splits = enumerate_splits(model, mask);
        // Split the borrow: take the target group out of the table, so both
        // sub-plan sides are read in place — no per-split clones of the two
        // entry sets. `mask` is a strict superset of every split side, so
        // the taken slot is never read below.
        let mut target = std::mem::take(&mut table[mask as usize]);
        'mask: for (m1, m2) in splits {
            let key = keys.join_key(m1, m2);
            for left in table[m1 as usize].iter_entries() {
                for right in table[m2 as usize].iter_entries() {
                    if deadline.expired() {
                        stats.timed_out = true;
                        break 'mask;
                    }
                    let right_canonical = is_canonical_index_scan(&arena, right, key.as_ref());
                    for op in JoinOp::all_configurations() {
                        let combined = model.join_cost(
                            op,
                            (&left.cost, &left.props),
                            (&right.cost, &right.props),
                            key.as_ref(),
                            right_canonical,
                        );
                        let Some((cost, props)) = combined else {
                            continue;
                        };
                        stats.considered_plans += 1;
                        offer_entry(
                            &mut target,
                            cost,
                            props,
                            |a| a.join(op, left.plan, right.plan),
                            &mut arena,
                            &strategy,
                            objectives,
                            &mut stats,
                        );
                    }
                }
            }
        }
        target.completed = !stats.timed_out;
        let total = target.total_plans();
        table[mask as usize] = target;
        // A timed-out set is still sampled: its partial plans are resident
        // and the quick-finish pass builds on top of them.
        stats.on_set_completed();
        if stats.timed_out {
            break 'outer;
        }
        stats.pareto_last_complete = total;
    }

    if stats.timed_out {
        quick_finish(
            model,
            &mut table,
            &mut arena,
            weights,
            objectives,
            config.prune_mode,
            &mut stats,
        );
    }

    // Roll the per-set probe counters up into the run stats — including
    // timed-out and quick-finish sets, whose probes are real work too.
    for group in &table {
        let probes = group.probes();
        stats.frontier_grid_hits += probes.grid_hits;
        stats.frontier_scan_probes += probes.scan_probes;
    }

    let final_plans: Vec<PlanEntry> = table[full_mask as usize].iter_entries().copied().collect();
    debug_assert!(
        !final_plans.is_empty(),
        "the DP must produce at least one plan for the full table set"
    );
    DpResult {
        arena,
        final_plans,
        stats,
    }
}

/// Scan operator configurations for one relation: sequential scan, index
/// scans on every indexed column, and the five sampling rates — streamed,
/// so per-relation callers (the DP's phase 1, random tree construction)
/// allocate nothing.
pub(crate) fn scan_configurations<'m>(
    model: &'m CostModel<'_>,
    rel: usize,
) -> impl Iterator<Item = ScanOp> + 'm {
    let table = model.catalog.table(model.graph.rels[rel].table);
    let sampling = model.params.enable_sampling;
    std::iter::once(ScanOp::SeqScan)
        .chain(
            table
                .columns
                .iter()
                .enumerate()
                .filter(|(_, col)| col.indexed)
                .map(|(ordinal, _)| ScanOp::IndexScan {
                    column: ordinal as u16,
                }),
        )
        .chain(
            sampling
                .then_some(moqo_plan::SAMPLING_RATES_PCT)
                .into_iter()
                .flatten()
                .map(|rate_pct| ScanOp::SamplingScan { rate_pct }),
        )
}

/// Per-relation scan configurations materialized once per run — the random
/// search re-draws scan operators for every sampled tree and every mutation,
/// so it indexes into this table instead of re-deriving (or re-allocating)
/// the option list per draw.
pub(crate) struct ScanOptions {
    per_rel: Vec<Vec<ScanOp>>,
}

impl ScanOptions {
    pub(crate) fn new(model: &CostModel<'_>) -> Self {
        ScanOptions {
            per_rel: (0..model.graph.n_rels())
                .map(|rel| scan_configurations(model, rel).collect())
                .collect(),
        }
    }

    /// The scan operators applicable to `rel`, in the canonical
    /// [`scan_configurations`] order.
    pub(crate) fn for_rel(&self, rel: usize) -> &[ScanOp] {
        &self.per_rel[rel]
    }
}

/// All masks with 2..=n bits, in increasing cardinality and ascending
/// numeric order within each cardinality — the exact order the eager table
/// produced (stable sort over an ascending range), but streamed: the eager
/// variant materialized and sorted all `2^n` masks (16M entries at n = 24)
/// and was built twice on every timed-out run.
pub(crate) fn masks_by_cardinality(n: usize) -> impl Iterator<Item = RelMask> {
    let n = u32::try_from(n).expect("query blocks are capped at 24 relations");
    (2..=n).flat_map(move |k| GosperMasks::new(n, k))
}

/// Iterator over all `n`-bit masks with exactly `k` bits set, ascending
/// (Gosper's hack: each step computes the next-larger integer with the same
/// population count).
struct GosperMasks {
    next: Option<u32>,
    /// Exclusive upper bound `1 << n`.
    limit: u32,
}

impl GosperMasks {
    fn new(n: u32, k: u32) -> Self {
        debug_assert!(k >= 1 && k <= n && n < 32);
        GosperMasks {
            next: Some((1u32 << k) - 1),
            limit: 1u32 << n,
        }
    }
}

impl Iterator for GosperMasks {
    type Item = RelMask;

    fn next(&mut self) -> Option<RelMask> {
        let cur = self.next.take()?;
        let c = cur & cur.wrapping_neg();
        let r = cur.wrapping_add(c);
        let succ = (((r ^ cur) >> 2) / c) | r;
        if succ < self.limit {
            self.next = Some(succ);
        }
        Some(cur)
    }
}

/// Precomputed join-key lookup: one entry per join-graph edge, with the
/// endpoint bit masks and both normalized key orientations (including the
/// inner-index catalog probe) resolved once per run, plus a per-relation
/// incidence index. The per-call [`join_key`] re-derived all of that for
/// every split of every mask; the first rework made the crossing test two
/// AND ops per edge but still scanned *all* edges per probe — on dense
/// graphs (cliques: O(n²) edges) the probe now walks only the edges
/// incident to the outer side's relations.
pub(crate) struct JoinKeys {
    edges: Vec<EdgeKeys>,
    /// For each relation, ascending indices into `edges` of the edges
    /// incident to it.
    by_rel: Vec<Vec<u32>>,
}

struct EdgeKeys {
    left_mask: RelMask,
    right_mask: RelMask,
    /// Key orientation when the edge's left endpoint is on the outer side.
    forward: JoinKey,
    /// Key orientation when the edge's right endpoint is on the outer side.
    reverse: JoinKey,
}

impl JoinKeys {
    pub(crate) fn new(model: &CostModel<'_>) -> Self {
        let indexed = |rel: usize, col: u16| {
            model
                .catalog
                .table(model.graph.rels[rel].table)
                .column(col)
                .indexed
        };
        let edges: Vec<EdgeKeys> = model
            .graph
            .edges
            .iter()
            .map(|e| EdgeKeys {
                left_mask: 1u32 << e.left_rel,
                right_mask: 1u32 << e.right_rel,
                forward: JoinKey {
                    left_rel: e.left_rel,
                    left_col: e.left_col,
                    right_rel: e.right_rel,
                    right_col: e.right_col,
                    inner_indexed: indexed(e.right_rel, e.right_col),
                },
                reverse: JoinKey {
                    left_rel: e.right_rel,
                    left_col: e.right_col,
                    right_rel: e.left_rel,
                    right_col: e.left_col,
                    inner_indexed: indexed(e.left_rel, e.left_col),
                },
            })
            .collect();
        let mut by_rel = vec![Vec::new(); model.graph.n_rels()];
        for (i, e) in model.graph.edges.iter().enumerate() {
            let i = u32::try_from(i).expect("edge count fits in u32");
            by_rel[e.left_rel].push(i);
            by_rel[e.right_rel].push(i);
        }
        JoinKeys { edges, by_rel }
    }

    /// The equi-join predicate for a split: the lowest-index edge crossing
    /// the two sides (identical to the seed's "first edge in declaration
    /// order"), normalized so the left fields refer to the `m1` (outer)
    /// side. Probes only the edges incident to `m1`'s relations via the
    /// per-relation index instead of scanning the whole edge list.
    pub(crate) fn join_key(&self, m1: RelMask, m2: RelMask) -> Option<JoinKey> {
        let mut best: Option<u32> = None;
        let mut rels = m1;
        while rels != 0 {
            let rel = rels.trailing_zeros() as usize;
            rels &= rels - 1;
            for &ei in &self.by_rel[rel] {
                if best.is_some_and(|b| ei >= b) {
                    // Incidence lists are ascending: nothing later on this
                    // relation can beat the incumbent.
                    break;
                }
                let e = &self.edges[ei as usize];
                // `rel ∈ m1` by construction; the edge crosses iff its
                // other endpoint lies in `m2`.
                let crosses = (e.left_mask & (1u32 << rel) != 0 && e.right_mask & m2 != 0)
                    || (e.right_mask & (1u32 << rel) != 0 && e.left_mask & m2 != 0);
                if crosses {
                    best = Some(ei);
                    break;
                }
            }
        }
        best.map(|ei| {
            let e = &self.edges[ei as usize];
            if e.left_mask & m1 != 0 {
                e.forward
            } else {
                e.reverse
            }
        })
    }
}

/// Ordered splits of `mask` into two non-empty disjoint subsets, honouring
/// the Cartesian-product heuristic: if any split is connected by a join
/// edge, unconnected splits are dropped. Streamed — the eager version
/// allocated two `Vec`s per mask in the DP's hottest outer loop. The
/// connected-splits-exist decision is made up front from a single edge
/// scan: `mask` admits a connected split iff some edge lies entirely
/// within it (either endpoint's singleton split is then connected), so the
/// heuristic never needs the full split list materialized.
fn enumerate_splits<'g>(model: &'g CostModel<'_>, mask: RelMask) -> SplitIter<'g> {
    debug_assert!(mask.count_ones() >= 2, "splits need at least two relations");
    let connected_only = model.graph.edges.iter().any(|e| e.within(mask));
    SplitIter {
        graph: model.graph,
        mask,
        next_m1: (mask - 1) & mask,
        connected_only,
    }
}

/// Streaming sub-mask enumeration behind [`enumerate_splits`]; yields the
/// exact sequence the eager version produced (descending `m1`, filtered).
struct SplitIter<'g> {
    graph: &'g moqo_catalog::JoinGraph,
    mask: RelMask,
    next_m1: RelMask,
    connected_only: bool,
}

impl Iterator for SplitIter<'_> {
    type Item = (RelMask, RelMask);

    fn next(&mut self) -> Option<(RelMask, RelMask)> {
        while self.next_m1 != 0 {
            let m1 = self.next_m1;
            self.next_m1 = (m1 - 1) & self.mask;
            let m2 = self.mask ^ m1;
            if self.connected_only && !self.graph.connects(m1, m2) {
                continue;
            }
            return Some((m1, m2));
        }
        None
    }
}

/// Whether `entry` is exactly the canonical index-scan plan on the join
/// key's inner column (precondition of index-nested-loop joins).
fn is_canonical_index_scan(arena: &PlanArena, entry: &PlanEntry, key: Option<&JoinKey>) -> bool {
    let Some(key) = key else { return false };
    if entry.props.rels.count_ones() != 1 {
        return false;
    }
    matches!(
        arena.node(entry.plan),
        PlanNode::Scan {
            rel,
            op: ScanOp::IndexScan { column },
        } if rel == key.right_rel && column == key.right_col
    )
}

/// Offers a costed candidate to the right order group, building its arena
/// node only when it survives the rejection probe. The vast majority of
/// considered plans are dominated on arrival, so probing before allocating
/// keeps arena growth bounded by *accepted* plans rather than the full
/// candidate stream (the caller has already counted the candidate in
/// `considered_plans`; rejected candidates never touched the stored set, so
/// every statistic is unchanged against the allocate-then-prune loop).
#[allow(clippy::too_many_arguments)]
fn offer_entry(
    groups: &mut OrderGroups,
    cost: moqo_cost::CostVector,
    props: moqo_plan::PlanProps,
    build_plan: impl FnOnce(&mut PlanArena) -> moqo_plan::PlanId,
    arena: &mut PlanArena,
    strategy: &PruneStrategy,
    objectives: ObjectiveSet,
    stats: &mut DpStats,
) {
    let set = groups.groups.entry(props.order).or_default();
    if set.would_reject(&cost, &props, strategy, objectives) {
        return;
    }
    let plan = build_plan(arena);
    let deleted = set.insert_unrejected(PlanEntry { cost, props, plan }, strategy, objectives);
    stats.on_stored_delta(true, deleted);
    if set.len() > stats.max_group_size {
        stats.max_group_size = set.len();
    }
}

/// Inserts a pre-built entry into the right order group, maintaining
/// statistics (quick-finish path: the plan node already exists because only
/// the weighted-best candidate per table set is ever materialized).
fn insert_entry(
    groups: &mut OrderGroups,
    entry: PlanEntry,
    strategy: &PruneStrategy,
    objectives: ObjectiveSet,
    stats: &mut DpStats,
) {
    let set = groups.groups.entry(entry.props.order).or_default();
    let before = set.len();
    let inserted = set.prune_insert(entry, strategy, objectives);
    let after = set.len();
    if inserted {
        // after = before + 1 − deleted.
        let deleted = before + 1 - after;
        stats.on_stored_delta(true, deleted);
        if after > stats.max_group_size {
            stats.max_group_size = after;
        }
    }
}

/// §5.1 timeout semantics: give every untreated table set exactly one plan,
/// assembled from the best-weighted stored sub-plans.
fn quick_finish(
    model: &CostModel<'_>,
    table: &mut [OrderGroups],
    arena: &mut PlanArena,
    weights: &Weights,
    objectives: ObjectiveSet,
    prune_mode: PruneMode,
    stats: &mut DpStats,
) {
    let n = model.graph.n_rels();
    let keys = JoinKeys::new(model);
    // A table set's best-weighted entry requires a full scan over all of its
    // order groups, and the old loop recomputed it for both sides of every
    // split. Sets probed here are always in their final state (the quick
    // pass walks masks in cardinality order, completing each before any
    // superset probes it), so one memoized scan per mask suffices.
    let mut best_cache: HashMap<RelMask, Option<PlanEntry>> = HashMap::new();
    for mask in masks_by_cardinality(n) {
        if table[mask as usize].completed {
            continue;
        }
        let splits = enumerate_splits(model, mask);
        let mut best: Option<PlanEntry> = None;
        for (m1, m2) in splits {
            let mut cached_best = |m: RelMask| {
                *best_cache
                    .entry(m)
                    .or_insert_with(|| table[m as usize].best_weighted(weights))
            };
            let (Some(left), Some(right)) = (cached_best(m1), cached_best(m2)) else {
                continue;
            };
            let key = keys.join_key(m1, m2);
            let right_canonical = is_canonical_index_scan(arena, &right, key.as_ref());
            for op in JoinOp::all_configurations() {
                let Some((cost, props)) = model.join_cost(
                    op,
                    (&left.cost, &left.props),
                    (&right.cost, &right.props),
                    key.as_ref(),
                    right_canonical,
                ) else {
                    continue;
                };
                let better = best
                    .as_ref()
                    .is_none_or(|b| weights.weighted_cost(&cost) < weights.weighted_cost(&b.cost));
                if better {
                    let plan = arena.join(op, left.plan, right.plan);
                    best = Some(PlanEntry { cost, props, plan });
                }
            }
            // One split suffices for the quick path once a plan exists.
            if best.is_some() {
                break;
            }
        }
        let entry = best.expect("every table set admits at least a nested-loop plan");
        let groups = &mut table[mask as usize];
        insert_entry(
            groups,
            entry,
            &PruneStrategy::exact().with_mode(prune_mode),
            objectives,
            stats,
        );
        groups.completed = true;
        stats.on_set_completed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
    use moqo_cost::Objective;
    use moqo_costmodel::CostModelParams;
    use std::time::Duration;

    fn setup3() -> (CostModelParams, Catalog, JoinGraph) {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("customer", 15_000.0, 179.0)
                .with_column(ColumnStats::new("c_custkey", 15_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("orders", 150_000.0, 121.0)
                .with_column(ColumnStats::new("o_orderkey", 150_000.0).indexed())
                .with_column(ColumnStats::new("o_custkey", 15_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("lineitem", 600_000.0, 129.0)
                .with_column(ColumnStats::new("l_orderkey", 150_000.0).indexed()),
        );
        let graph = JoinGraphBuilder::new(&cat)
            .rel("customer", 0.2)
            .rel("orders", 0.5)
            .rel("lineitem", 0.6)
            .join(("customer", "c_custkey"), ("orders", "o_custkey"))
            .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
            .build();
        (params, cat, graph)
    }

    fn objs2() -> ObjectiveSet {
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint])
    }

    #[test]
    fn exact_dp_produces_plans_for_full_set() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        assert!(!result.final_plans.is_empty());
        assert!(!result.stats.timed_out);
        assert!(result.stats.considered_plans > 0);
        for entry in &result.final_plans {
            assert_eq!(entry.props.rels, g.full_mask());
            assert_eq!(result.arena.leaf_count(entry.plan), 3);
        }
    }

    #[test]
    fn approximate_dp_stores_fewer_plans() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let w = Weights::single(Objective::TotalTime);
        let exact = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &w,
            &Deadline::unlimited(),
        );
        let approx = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::approximate(2.0f64.powf(1.0 / 3.0)),
            &w,
            &Deadline::unlimited(),
        );
        assert!(approx.stats.peak_stored_plans <= exact.stats.peak_stored_plans);
        assert!(approx.stats.considered_plans <= exact.stats.considered_plans);
        assert!(!approx.final_plans.is_empty());
    }

    #[test]
    fn single_objective_keeps_one_plan_per_group() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let objs = ObjectiveSet::single(Objective::TotalTime);
        let result = find_pareto_plans(
            &model,
            objs,
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        // Per (set, order) group at most one plan survives with one objective.
        assert!(result.stats.max_group_size == 1);
    }

    #[test]
    fn timeout_still_yields_full_plan() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            ObjectiveSet::all(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::new(Some(Duration::ZERO)),
        );
        assert!(result.stats.timed_out);
        assert!(!result.final_plans.is_empty());
        for entry in &result.final_plans {
            assert_eq!(entry.props.rels, g.full_mask());
        }
    }

    #[test]
    fn cartesian_only_without_edges() {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(TableStats::new("a", 100.0, 50.0).with_column(ColumnStats::new("id", 100.0)));
        cat.add_table(TableStats::new("b", 200.0, 50.0).with_column(ColumnStats::new("id", 200.0)));
        let graph = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 1.0)
            .build();
        let model = CostModel::new(&params, &cat, &graph);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        // All full-set plans must be nested-loop joins (the only Cartesian op).
        for entry in &result.final_plans {
            let joins = result.arena.join_ops(entry.plan);
            assert!(joins.iter().all(|op| matches!(op, JoinOp::NestedLoop)));
        }
    }

    #[test]
    fn pareto_metric_tracks_last_completed_set() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        assert_eq!(
            result.stats.pareto_last_complete,
            result.final_plans.len(),
            "last completed set is the full set on an untimed run"
        );
    }

    #[test]
    fn memory_accounting_is_consistent() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        assert!(result.stats.peak_stored_plans >= result.stats.stored_plans);
        assert_eq!(
            result.stats.peak_memory_bytes,
            result.stats.peak_stored_plans * DpStats::bytes_per_stored_plan()
        );
    }

    #[test]
    fn gosper_matches_eager_enumeration() {
        for n in 1..=12usize {
            let mut eager: Vec<RelMask> =
                (1..(1u32 << n)).filter(|m| m.count_ones() >= 2).collect();
            eager.sort_by_key(|m| m.count_ones());
            let streamed: Vec<RelMask> = masks_by_cardinality(n).collect();
            assert_eq!(streamed, eager, "n = {n}: order must match the seed");
        }
    }

    #[test]
    fn join_keys_agree_with_linear_scan() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let keys = JoinKeys::new(&model);
        // The seed implementation: first edge crossing the split, normalized
        // so the left fields refer to the outer side, index flag from the
        // catalog.
        let reference = |m1: RelMask, m2: RelMask| -> Option<JoinKey> {
            let edge = model.graph.edges.iter().find(|e| e.crosses(m1, m2))?;
            let left_in_m1 = m1 & (1u32 << edge.left_rel) != 0;
            let (left_rel, left_col, right_rel, right_col) = if left_in_m1 {
                (edge.left_rel, edge.left_col, edge.right_rel, edge.right_col)
            } else {
                (edge.right_rel, edge.right_col, edge.left_rel, edge.left_col)
            };
            let inner_indexed = model
                .catalog
                .table(model.graph.rels[right_rel].table)
                .column(right_col)
                .indexed;
            Some(JoinKey {
                left_rel,
                left_col,
                right_rel,
                right_col,
                inner_indexed,
            })
        };
        let n = g.n_rels();
        for mask in 1..(1u32 << n) {
            let mut m1 = (mask - 1) & mask;
            while m1 != 0 {
                let m2 = mask ^ m1;
                assert_eq!(
                    keys.join_key(m1, m2),
                    reference(m1, m2),
                    "split {m1:b} | {m2:b}"
                );
                m1 = (m1 - 1) & mask;
            }
        }
        // Disjoint non-adjacent sides: no key either way.
        assert_eq!(keys.join_key(0b001, 0b100), reference(0b001, 0b100));
    }

    #[test]
    fn splits_enumeration_is_exhaustive_and_ordered() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        // Mask {customer, orders} = 0b011: splits (01|10) and (10|01).
        let splits: Vec<_> = enumerate_splits(&model, 0b011).collect();
        assert_eq!(splits.len(), 2);
        assert!(splits.contains(&(0b001, 0b010)));
        assert!(splits.contains(&(0b010, 0b001)));
        // Full mask: customer–lineitem is not an edge, so the connected
        // splits exclude ({customer},{lineitem}) pairs joined directly —
        // but 0b101 vs 0b010 IS connected via both edges.
        let full_splits: Vec<_> = enumerate_splits(&model, 0b111).collect();
        assert!(full_splits.contains(&(0b101, 0b010)));
        assert_eq!(full_splits.len(), 6);
    }

    /// The streaming split iterator must reproduce the eager seed
    /// implementation — same splits, same order, same Cartesian fallback —
    /// on every mask of connected, partially connected and edge-free
    /// graphs.
    #[test]
    fn streaming_splits_match_eager_reference() {
        let eager = |model: &CostModel<'_>, mask: RelMask| {
            let mut connected = Vec::new();
            let mut all = Vec::new();
            let mut m1 = (mask - 1) & mask;
            while m1 != 0 {
                let m2 = mask ^ m1;
                all.push((m1, m2));
                if model.graph.connects(m1, m2) {
                    connected.push((m1, m2));
                }
                m1 = (m1 - 1) & mask;
            }
            if connected.is_empty() {
                all
            } else {
                connected
            }
        };

        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        for name in ["a", "b", "c", "d"] {
            cat.add_table(
                TableStats::new(name, 1000.0, 50.0)
                    .with_column(ColumnStats::new("id", 1000.0).indexed()),
            );
        }
        // A path a–b–c plus an isolated d: masks containing d alone with
        // others exercise the Cartesian fallback.
        let graph = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 1.0)
            .rel("c", 1.0)
            .rel("d", 1.0)
            .join(("a", "id"), ("b", "id"))
            .join(("b", "id"), ("c", "id"))
            .build();
        let model = CostModel::new(&params, &cat, &graph);
        for mask in 1u32..(1 << 4) {
            if mask.count_ones() < 2 {
                continue;
            }
            let streamed: Vec<_> = enumerate_splits(&model, mask).collect();
            assert_eq!(streamed, eager(&model, mask), "mask {mask:b}");
        }
    }
}
