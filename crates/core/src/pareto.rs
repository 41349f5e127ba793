//! The `Prune` procedure of Algorithms 1 and 2: incremental (approximate)
//! Pareto plan sets.
//!
//! A [`PlanSet`] holds the plans generated so far for one `(table set,
//! output order)` group. Insertion follows the paper exactly:
//!
//! * **EXA** (Algorithm 1): insert unless an existing plan *dominates* the
//!   new one; then delete stored plans the new plan dominates.
//! * **RTA** (Algorithm 2): insert unless an existing plan *approximately
//!   dominates* the new one with internal precision `α_i`; deletions still
//!   use exact dominance. The paper's §6.2 remark explains that also
//!   deleting approximately dominated plans would let the stored set drift
//!   arbitrarily far from the frontier.
//!
//! Orthogonally to the precision, a [`PruneMode`] selects the dominance
//! relation: cost-only (the paper's rule) or props-aware, which refuses to
//! discard a plan whose physical properties (row count, sort order) are
//! better than its dominator's. Props-aware mode is what keeps pruning
//! sound when sampling scans let cardinality leak past the cost vector;
//! see [`PruneMode::auto`] for the selection rule every caller shares.

use std::cell::Cell;
use std::collections::HashMap;

use moqo_cost::dominance::{
    approx_dominates, approx_dominates_with_props, dominates, dominates_with_props,
    grid_cell_coord, grid_cell_key, grid_cell_ratio, grid_cell_shift, PropsClassId, PropsKey,
};
use moqo_cost::{CostVector, Objective, ObjectiveSet, NUM_OBJECTIVES};
use moqo_plan::{PlanId, PlanProps, SortOrder};

/// One stored plan: its cost vector, physical properties and arena id.
/// Equality is bitwise over cost, props and id — two entries are equal only
/// when they are the same plan in the same arena layout, which is exactly
/// the "byte-identical fronts" property the deterministic tests assert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// Full nine-dimensional cost vector.
    pub cost: CostVector,
    /// Physical properties (rows, width, order, sampling factor).
    pub props: PlanProps,
    /// Plan node in the arena.
    pub plan: PlanId,
}

/// Which dominance relation `Prune` discards plans under.
///
/// Cost-only pruning is the paper's original rule; it is sound exactly when
/// the selected cost components determine every downstream cost. Sampling
/// scans break that: plan cardinality then varies within a table set, feeds
/// every parent operator's formula, and — when [`Objective::TupleLoss`] is
/// not selected — is invisible to the cost vector, so a cost-dominated plan
/// with fewer rows may still lead to the cheapest complete plan.
/// Props-aware pruning additionally requires the dominator's [`PropsKey`]
/// (row count, interest properties) to cover the discarded plan's, which
/// restores Lemma 2 / Theorem 3 in that regime at the price of larger
/// stored sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruneMode {
    /// Discard on (approximate) cost dominance alone.
    #[default]
    CostOnly,
    /// Discard only when dominated in cost *and* covered in physical
    /// properties.
    PropsAware,
}

impl PruneMode {
    /// The mode under which pruning is sound for a given configuration:
    /// props-aware exactly when sampling scans are in the plan space and
    /// `TupleLoss` is not among the selected objectives (the only regime in
    /// which cardinality leaks past the cost vector), cost-only otherwise.
    /// Every algorithm entry point and the serving layer derive their mode
    /// through this one function so all pruning sites agree.
    #[must_use]
    pub fn auto(sampling_enabled: bool, objectives: ObjectiveSet) -> Self {
        if sampling_enabled && !objectives.contains(Objective::TupleLoss) {
            PruneMode::PropsAware
        } else {
            PruneMode::CostOnly
        }
    }
}

/// The [`PropsKey`] of a plan's physical properties: output rows plus the
/// sort order encoded as the opaque interest tag ([`SortOrder::None`] maps
/// to [`PropsKey::NO_INTEREST`], so any sorted plan covers an unsorted one
/// at equal-or-fewer rows).
#[must_use]
pub fn props_key(props: &PlanProps) -> PropsKey {
    let interest = match props.order {
        SortOrder::None => PropsKey::NO_INTEREST,
        // 1 + packed (rel, col): never collides with NO_INTEREST.
        SortOrder::Col { rel, col } => 1 + ((rel as u64) << 16 | u64::from(col)),
    };
    PropsKey {
        rows: props.rows,
        interest,
    }
}

/// Pruning configuration shared by one dynamic-programming run.
#[derive(Debug, Clone, Copy)]
pub struct PruneStrategy {
    /// Internal approximation precision `α_i ≥ 1`; `1.0` yields the exact
    /// algorithm's pruning.
    pub alpha_internal: f64,
    /// Dominance relation plans are discarded under.
    pub mode: PruneMode,
}

impl PruneStrategy {
    /// Exact cost-only pruning (EXA).
    #[must_use]
    pub fn exact() -> Self {
        PruneStrategy {
            alpha_internal: 1.0,
            mode: PruneMode::CostOnly,
        }
    }

    /// Approximate cost-only pruning with internal precision
    /// `alpha_internal` (RTA).
    #[must_use]
    pub fn approximate(alpha_internal: f64) -> Self {
        debug_assert!(alpha_internal >= 1.0);
        PruneStrategy {
            alpha_internal,
            mode: PruneMode::CostOnly,
        }
    }

    /// Replaces the pruning mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: PruneMode) -> Self {
        self.mode = mode;
        self
    }

    /// Whether `candidate` is discarded in favour of `incumbent` under this
    /// strategy's mode and precision.
    #[inline]
    fn rejects(
        &self,
        incumbent: &PlanEntry,
        cost: &CostVector,
        key: &PropsKey,
        objectives: ObjectiveSet,
    ) -> bool {
        match self.mode {
            PruneMode::CostOnly => {
                approx_dominates(&incumbent.cost, cost, self.alpha_internal, objectives)
            }
            PruneMode::PropsAware => approx_dominates_with_props(
                &incumbent.cost,
                &props_key(&incumbent.props),
                cost,
                key,
                self.alpha_internal,
                objectives,
            ),
        }
    }

    /// Whether a stored plan is deleted by an inserted one: exact
    /// dominance in both modes, so the stored set never drifts (§6.2).
    #[inline]
    fn deletes(
        &self,
        inserted: &PlanEntry,
        key: &PropsKey,
        stored: &PlanEntry,
        objectives: ObjectiveSet,
    ) -> bool {
        match self.mode {
            PruneMode::CostOnly => dominates(&inserted.cost, &stored.cost, objectives),
            PruneMode::PropsAware => dominates_with_props(
                &inserted.cost,
                key,
                &stored.cost,
                &props_key(&stored.props),
                objectives,
            ),
        }
    }
}

/// Which physical layout a [`PlanSet`] keeps its frontier in.
///
/// All three layouts are observationally identical — same rejections, same
/// deletions, same canonical iteration order, bit for bit — because the
/// indexed engine evaluates exactly the same dominance predicates as the
/// plain scan and rejection/deletion are pure per-entry predicates (scan
/// order cannot change an existential result). The layout only moves the
/// constant factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierStructure {
    /// Start on the plain sorted vector and engage the indexed engine once
    /// the set outgrows [`PlanSet::INDEX_ENGAGE_LEN`]. The default:
    /// 2–3-objective micro-fronts never pay for the index.
    #[default]
    Adaptive,
    /// The plain sorted vector only (the seed structure).
    Plain,
    /// Engage the indexed engine from the first insertion (bench and
    /// property-test knob; also what [`FrontierStructure::Adaptive`]
    /// becomes past the size cutoff).
    Indexed,
}

/// Probe-outcome counters of one [`PlanSet`] (or, summed, of a run): how
/// often `would_reject` was resolved by the grid-bucket fast path versus
/// falling through to a cutoff scan. The ratio is the index's
/// effectiveness measure reported by `bench_snapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierProbes {
    /// Probes answered by a verified occupant of the candidate's own grid
    /// cell — O(bucket) work instead of a frontier scan.
    pub grid_hits: u64,
    /// Probes that fell through to a scan: the plain sorted-prefix scan,
    /// or (indexed mode) the class-filtered per-class cutoff scans.
    pub scan_probes: u64,
}

/// An incrementally pruned plan set for one `(table set, order)` group.
///
/// The canonical representation keeps entries sorted by the cost in the
/// *first* selected objective. Dominance is monotone per dimension, so the
/// sort order yields binary-search cutoffs for both `prune_insert` scans:
/// only a prefix of the set can (approximately) dominate a new plan, and
/// only a suffix can be dominated by it. The same set must always be probed
/// with the same objective set and precision (true for every
/// dynamic-programming run, which fixes both up front).
///
/// Small sets store exactly that sorted vector. Past
/// [`PlanSet::INDEX_ENGAGE_LEN`] (or immediately, with
/// [`FrontierStructure::Indexed`]) the set upgrades to a layered engine
/// behind the same API:
///
/// * **slot store + order vector** — entries live in insertion slots; the
///   canonical order is a parallel `u32` rank vector plus a dense key
///   vector, so a sorted insertion moves 12 bytes per displaced rank
///   instead of a full [`PlanEntry`];
/// * **dense cost rows** — the selected cost components of every slot,
///   projected into a flat `f64` row, so dominance checks run over
///   contiguous floats without per-check [`ObjectiveSet`] iteration;
/// * **two-level class fronts** (props-aware mode) — members partition
///   into [`PropsClassId`] classes, each a sub-front with its own sorted
///   first-objective cutoff; rejection scans only classes that cover the
///   candidate and deletion only classes the candidate covers, instead of
///   filtering every foreign cardinality class entry by entry;
/// * **grid-bucket index** — cost rows quantize into multiplicative
///   `α^(1/k)` cells (the ε-Pareto grid); `would_reject` first probes the
///   candidate's own cell and verifies any occupant against the exact
///   dominance predicate, resolving duplicate-heavy candidate streams in
///   O(1) without a scan.
///
/// Every accelerated path re-verifies with the same predicates the plain
/// scan uses, so fronts stay bit-identical across layouts — the engine is
/// provably a pure perf change (see `frontier_engine_properties` tests).
#[derive(Debug, Clone, Default)]
pub struct PlanSet {
    /// Plain layout: the sorted entries. Empty once `index` is engaged.
    entries: Vec<PlanEntry>,
    /// The layered engine; `None` while the set is small (plain layout).
    index: Option<Box<FrontierIndex>>,
    structure: FrontierStructure,
    grid_hits: Cell<u64>,
    scan_probes: Cell<u64>,
}

impl PlanSet {
    /// Set size at which [`FrontierStructure::Adaptive`] sets switch from
    /// the plain sorted vector to the indexed engine. Below this, the
    /// upgrade's bookkeeping costs more than the scans it saves: the DP
    /// chain workloads top out below ~90 entries per order group and
    /// measure fastest fully plain, while the high-objective insert
    /// streams (fronts of 400–1100) gain 2–4× from the engine — 128 keeps
    /// each regime on its better side.
    pub const INDEX_ENGAGE_LEN: usize = 128;

    /// An empty set with the [`FrontierStructure::Adaptive`] layout.
    #[must_use]
    pub fn new() -> Self {
        PlanSet::default()
    }

    /// An empty set with a forced layout (bench/property-test knob).
    #[must_use]
    pub fn with_structure(structure: FrontierStructure) -> Self {
        PlanSet {
            structure,
            ..PlanSet::default()
        }
    }

    /// Probe-outcome counters accumulated by this set's `would_reject`
    /// calls.
    #[must_use]
    pub fn probes(&self) -> FrontierProbes {
        FrontierProbes {
            grid_hits: self.grid_hits.get(),
            scan_probes: self.scan_probes.get(),
        }
    }

    /// Whether the indexed engine is currently engaged (test helper).
    #[must_use]
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The rejection test of `prune_insert` alone: does some stored plan
    /// (approximately) dominate the candidate — in props-aware mode, while
    /// also covering its physical properties? Lets callers that must
    /// allocate per-candidate resources (e.g. arena nodes) skip doomed
    /// candidates without mutating the set. A dominating plan needs
    /// `e ≤ α·key` in the first objective regardless of mode (cost
    /// dominance stays necessary), so the sorted order keeps its
    /// binary-search cutoff; props-aware mode merely partitions what the
    /// scanned prefix may reject.
    #[must_use]
    pub fn would_reject(
        &self,
        cost: &CostVector,
        props: &PlanProps,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> bool {
        if let Some(ix) = self.index.as_deref() {
            if ix.matches(strategy, objectives) {
                return self.indexed_reject(ix, cost, props, strategy);
            }
            // Probe signature drift (an index keyed for other objectives or
            // precision): verified full scan. The algorithms never take
            // this path — each run fixes strategy and objectives — but
            // correctness must not depend on that.
            self.scan_probes.set(self.scan_probes.get() + 1);
            let candidate_key = props_key(props);
            return ix.order.iter().any(|&s| {
                strategy.rejects(&ix.slots[s as usize], cost, &candidate_key, objectives)
            });
        }
        self.scan_probes.set(self.scan_probes.get() + 1);
        let first = objectives.iter().next();
        let key_of = |e: &PlanEntry| first.map_or(0.0, |o| e.cost.get(o));
        let alpha = strategy.alpha_internal;
        let cutoff = alpha * first.map_or(0.0, |o| cost.get(o));
        let candidate_key = props_key(props);
        for e in &self.entries {
            if key_of(e) > cutoff {
                break;
            }
            if strategy.rejects(e, cost, &candidate_key, objectives) {
                return true;
            }
        }
        false
    }

    /// The indexed `would_reject`: grid-bucket fast path first, then the
    /// class-filtered (props-aware) or plain (cost-only) cutoff scan over
    /// the dense cost rows. Evaluates exactly the predicates of the plain
    /// scan — see the per-branch comments for why each shortcut preserves
    /// them bit for bit.
    fn indexed_reject(
        &self,
        ix: &FrontierIndex,
        cost: &CostVector,
        props: &PlanProps,
        strategy: &PruneStrategy,
    ) -> bool {
        let alpha = strategy.alpha_internal;
        let k = ix.sel.len();
        // `sc[i] = α · c^o` is the right-hand side `approx_dominates`
        // computes per check; hoisting it is the same multiplication once.
        let mut sc = [0.0f64; NUM_OBJECTIVES];
        for (i, &o) in ix.sel.iter().enumerate() {
            sc[i] = alpha * cost.get(o);
        }
        let candidate_key = props_key(props);

        // Grid fast path: with cell ratio α^(1/k) any occupant of the
        // candidate's own cell α-dominates it in cost; each occupant is
        // still verified against the exact rejection predicate, which keeps
        // the path sound for α = 1 (where occupancy alone proves nothing)
        // and makes hash collisions harmless. A hit equals "∃ stored plan
        // that rejects" — the same existential the scan decides.
        if !ix.grid.is_empty() {
            if let Some(bucket) = ix.grid.get(&ix.cell_of_cost(cost)) {
                for &slot in bucket {
                    if strategy.rejects(
                        &ix.slots[slot as usize],
                        cost,
                        &candidate_key,
                        ix.objectives,
                    ) {
                        self.grid_hits.set(self.grid_hits.get() + 1);
                        return true;
                    }
                }
            }
        }

        self.scan_probes.set(self.scan_probes.get() + 1);
        // The plain scan visits entries while `key ≤ α·c_first` — exactly
        // the sorted prefix below. Within it, each entry passes a
        // monotonicity-preserving `f32` pre-filter over the remaining
        // dimensions (`f64→f32` rounding keeps ≤, so no true dominator is
        // filtered out); survivors are decided by the very predicate the
        // plain scan runs, which is what keeps layouts bit-identical.
        let cutoff = if k > 0 { sc[0] } else { 0.0 };
        let t = ix.tail_dims;
        let mut sc32 = [0.0f32; NUM_OBJECTIVES];
        for i in 0..t {
            sc32[i] = sc[i + 1] as f32;
        }
        let sc32 = &sc32[..t];
        if ix.use_class_scan() {
            // Two-level scan: a class-level `covers` test (class keys are
            // bitwise equal across members, so one test decides for all)
            // gates each per-class sorted cutoff scan.
            ix.classes.iter().any(|class| {
                class.key.covers(&candidate_key) && {
                    let end = class.keys.partition_point(|&key| key <= cutoff);
                    (0..end).any(|j| {
                        tail_filter_le(&class.tail[j * t..j * t + t], sc32)
                            && strategy.rejects(
                                &ix.slots[class.slots[j] as usize],
                                cost,
                                &candidate_key,
                                ix.objectives,
                            )
                    })
                }
            })
        } else {
            // Global scan over the canonical order (all of cost-only mode,
            // and props-aware fronts whose classes are too fine to pay for
            // per-class walks — `rejects` enforces props coverage either
            // way, so routing never changes the answer).
            let end = ix.keys.partition_point(|&key| key <= cutoff);
            (0..end).any(|r| {
                tail_filter_le(&ix.tail[r * t..r * t + t], sc32)
                    && strategy.rejects(
                        &ix.slots[ix.order[r] as usize],
                        cost,
                        &candidate_key,
                        ix.objectives,
                    )
            })
        }
    }

    /// The `Prune(P, pN)` procedure. Returns `true` if the new plan was
    /// inserted, `false` if it was discarded. The net change in stored-entry
    /// count is `1 − deleted` on insertion and `0` otherwise; the caller
    /// tracks memory via [`PlanSet::len`].
    pub fn prune_insert(
        &mut self,
        entry: PlanEntry,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> bool {
        // "Check whether new plan useful": some stored plan (approximately)
        // dominates the new one?
        if self.would_reject(&entry.cost, &entry.props, strategy, objectives) {
            return false;
        }
        self.insert_unrejected(entry, strategy, objectives);
        true
    }

    /// The insertion half of [`PlanSet::prune_insert`], for callers that
    /// already ran [`PlanSet::would_reject`] on `entry.cost` (e.g. to skip
    /// arena allocation for doomed candidates) — probing twice would double
    /// the dominant cost of the insert path. Deletes the stored plans the
    /// new plan dominates and inserts it in sorted position, returning the
    /// number of deletions.
    ///
    /// Inserting an entry that *would* have been rejected breaks the set's
    /// antichain invariant; it is the caller's contract to probe first.
    pub fn insert_unrejected(
        &mut self,
        entry: PlanEntry,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> usize {
        debug_assert!(!self.would_reject(&entry.cost, &entry.props, strategy, objectives));
        if self.index.is_none() {
            let deleted = self.plain_insert(entry, strategy, objectives);
            let engage = match self.structure {
                FrontierStructure::Adaptive => self.entries.len() >= Self::INDEX_ENGAGE_LEN,
                FrontierStructure::Plain => false,
                FrontierStructure::Indexed => true,
            };
            if engage {
                let entries = std::mem::take(&mut self.entries);
                self.index = Some(Box::new(FrontierIndex::build(
                    entries, strategy, objectives,
                )));
            }
            return deleted;
        }
        if !self
            .index
            .as_deref()
            .expect("checked above")
            .matches(strategy, objectives)
        {
            // Re-key under the new probe signature (correctness fallback;
            // the algorithms fix strategy and objectives per run).
            let entries: Vec<PlanEntry> = self.iter().copied().collect();
            self.index = Some(Box::new(FrontierIndex::build(
                entries, strategy, objectives,
            )));
        }
        self.index
            .as_deref_mut()
            .expect("engaged above")
            .insert(entry, strategy)
    }

    /// The seed's insertion path on the plain sorted vector.
    fn plain_insert(
        &mut self,
        entry: PlanEntry,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> usize {
        let first = objectives.iter().next();
        let key_of = |e: &PlanEntry| first.map_or(0.0, |o| e.cost.get(o));
        let key = key_of(&entry);
        let inserted_key = props_key(&entry.props);

        // "Delete dominated plans" under exact dominance; props-aware mode
        // additionally requires the new plan to cover the victim's props. A
        // deletable plan needs a first-objective cost of at least `key` in
        // every mode, so only a sorted suffix qualifies; compact it in
        // place, preserving order.
        let delete_start = self.entries.partition_point(|e| key_of(e) < key);
        let mut kept = delete_start;
        for read in delete_start..self.entries.len() {
            let doomed = strategy.deletes(&entry, &inserted_key, &self.entries[read], objectives);
            if !doomed {
                self.entries.swap(kept, read);
                kept += 1;
            }
        }
        let deleted = self.entries.len() - kept;
        self.entries.truncate(kept);

        let pos = self.entries.partition_point(|e| key_of(e) <= key);
        self.entries.insert(pos, entry);
        deleted
    }

    /// Number of stored plans.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.index.as_deref() {
            Some(ix) => ix.order.len(),
            None => self.entries.len(),
        }
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the stored plans in canonical (first-objective sorted)
    /// order — identical across layouts.
    pub fn iter(&self) -> PlanSetIter<'_> {
        PlanSetIter { set: self, rank: 0 }
    }

    /// Invariant check (test helper): with exact pruning no entry may
    /// strictly dominate another.
    #[must_use]
    pub fn is_antichain(&self, objectives: ObjectiveSet) -> bool {
        let entries: Vec<&PlanEntry> = self.iter().collect();
        for (i, a) in entries.iter().enumerate() {
            for (j, b) in entries.iter().enumerate() {
                if i != j && moqo_cost::dominance::strictly_dominates(&a.cost, &b.cost, objectives)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Invariant check (test helper) for props-aware exact pruning: no
    /// entry may strictly dominate another in cost *while also covering*
    /// its props key — plain cost domination between entries of different
    /// props classes is expected and sound.
    #[must_use]
    pub fn is_props_antichain(&self, objectives: ObjectiveSet) -> bool {
        let entries: Vec<&PlanEntry> = self.iter().collect();
        for (i, a) in entries.iter().enumerate() {
            for (j, b) in entries.iter().enumerate() {
                if i != j
                    && props_key(&a.props).covers(&props_key(&b.props))
                    && moqo_cost::dominance::strictly_dominates(&a.cost, &b.cost, objectives)
                {
                    return false;
                }
            }
        }
        true
    }
}

/// Iterator over a [`PlanSet`] in canonical order, across both layouts.
#[derive(Debug)]
pub struct PlanSetIter<'a> {
    set: &'a PlanSet,
    rank: usize,
}

impl<'a> Iterator for PlanSetIter<'a> {
    type Item = &'a PlanEntry;

    fn next(&mut self) -> Option<&'a PlanEntry> {
        let r = self.rank;
        self.rank += 1;
        match self.set.index.as_deref() {
            Some(ix) => ix.order.get(r).map(|&s| &ix.slots[s as usize]),
            None => self.set.entries.get(r),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.set.len().saturating_sub(self.rank);
        (left, Some(left))
    }
}

impl ExactSizeIterator for PlanSetIter<'_> {}

/// Branchless `row ≤ bound` over parallel `f32` tails: the conservative
/// pre-filter of the reject scan. `f64→f32` rounding is monotone, so a
/// stored vector that truly dominates always passes; a pass is *not* a
/// dominance proof (rounding can create ties) — callers verify survivors
/// with the exact predicate. Trivially true for empty tails (`k ≤ 1`),
/// matching `approx_dominates` over zero remaining dimensions.
#[inline]
fn tail_filter_le(row: &[f32], bound: &[f32]) -> bool {
    debug_assert_eq!(row.len(), bound.len());
    row.iter()
        .zip(bound)
        .fold(true, |acc, (a, b)| acc & (a <= b))
}

/// Branchless `row ≥ bound`: the deletion-side mirror of
/// [`tail_filter_le`] (a victim's stored tail must weakly exceed the
/// inserted tail in every remaining dimension).
#[inline]
fn tail_filter_ge(row: &[f32], bound: &[f32]) -> bool {
    debug_assert_eq!(row.len(), bound.len());
    row.iter()
        .zip(bound)
        .fold(true, |acc, (a, b)| acc & (a >= b))
}

/// One per-[`PropsClassId`] sub-front of the two-level structure: the
/// members (slots) of one bitwise-exact props class, sorted by their
/// first-objective key so the class keeps its own binary-search cutoff,
/// with its own rank-major `f32` tail mirror for the pre-filter.
#[derive(Debug, Clone)]
struct ClassFront {
    /// The exact props key every member shares.
    key: PropsKey,
    /// Member slots, sorted by `keys`.
    slots: Vec<u32>,
    /// First-objective keys parallel to `slots`.
    keys: Vec<f64>,
    /// Rank-major `f32` tail rows parallel to `slots` (stride
    /// [`FrontierIndex::tail_dims`]).
    tail: Vec<f32>,
}

/// The indexed frontier engine (see [`PlanSet`] docs for the layout).
///
/// The accelerator caches are keyed to one probe signature `(objectives,
/// α, mode)` — the quantities every cutoff, dense row and grid cell was
/// derived from. Probes under a different signature fall back to verified
/// full scans; a mutation under a different signature rebuilds the engine.
#[derive(Debug, Clone)]
struct FrontierIndex {
    objectives: ObjectiveSet,
    alpha_bits: u64,
    mode: PruneMode,
    /// Selected objectives, in index order (`k = sel.len()`).
    sel: Vec<Objective>,
    /// `k − 1`: tail dimensions per pre-filter row (dimension 0 lives in
    /// `keys` as the binary-search axis).
    tail_dims: usize,
    /// Bit shift realizing the grid's α^(1/k) cell ratio.
    cell_shift: u32,
    /// Entries by slot (insertion order, holes on `free`).
    slots: Vec<PlanEntry>,
    /// Slot-ordered props keys.
    props: Vec<PropsKey>,
    /// Slot-ordered grid cell keys (cached so `detach` never re-projects).
    cells: Vec<u64>,
    /// Reusable slots freed by deletions.
    free: Vec<u32>,
    /// Canonical order: rank → slot.
    order: Vec<u32>,
    /// First-objective keys parallel to `order` (the binary-search axis).
    keys: Vec<f64>,
    /// Rank-major `f32` tail rows parallel to `order` (stride `tail_dims`):
    /// the contiguous pre-filter mirror the scans stream over.
    tail: Vec<f32>,
    /// Two-level class fronts, in class-creation order (props-aware only).
    classes: Vec<ClassFront>,
    /// Class lookup by exact identity (props-aware only).
    class_ids: HashMap<PropsClassId, u32>,
    /// Grid buckets: cell key → occupant slots.
    grid: HashMap<u64, Vec<u32>>,
    /// Scratch buffer for deletion victims (slots).
    victims: Vec<u32>,
}

impl FrontierIndex {
    /// Builds the engine over existing entries (normally already in
    /// canonical order; a stable re-sort makes the rebuild path safe too —
    /// and is the identity when the input is already sorted).
    fn build(entries: Vec<PlanEntry>, strategy: &PruneStrategy, objectives: ObjectiveSet) -> Self {
        let sel: Vec<Objective> = objectives.iter().collect();
        let k = sel.len();
        let ratio = grid_cell_ratio(strategy.alpha_internal, k.max(1));
        let mut ix = FrontierIndex {
            objectives,
            alpha_bits: strategy.alpha_internal.to_bits(),
            mode: strategy.mode,
            tail_dims: k.saturating_sub(1),
            cell_shift: grid_cell_shift(ratio),
            sel,
            slots: Vec::with_capacity(entries.len()),
            props: Vec::with_capacity(entries.len()),
            cells: Vec::with_capacity(entries.len()),
            free: Vec::new(),
            order: Vec::with_capacity(entries.len()),
            keys: Vec::with_capacity(entries.len()),
            tail: Vec::with_capacity(entries.len() * k.saturating_sub(1)),
            classes: Vec::new(),
            class_ids: HashMap::new(),
            grid: HashMap::new(),
            victims: Vec::new(),
        };
        let first = ix.sel.first().copied();
        let mut sorted = entries;
        sorted.sort_by(|a, b| {
            let ka = first.map_or(0.0, |o| a.cost.get(o));
            let kb = first.map_or(0.0, |o| b.cost.get(o));
            ka.partial_cmp(&kb).expect("keys are not NaN")
        });
        for entry in sorted {
            let key = first.map_or(0.0, |o| entry.cost.get(o));
            let row = ix.tail_row(&entry.cost);
            let slot = ix.attach(entry, key, &row[..ix.tail_dims]);
            ix.order.push(slot);
            ix.keys.push(key);
            ix.tail.extend_from_slice(&row[..ix.tail_dims]);
        }
        ix
    }

    fn matches(&self, strategy: &PruneStrategy, objectives: ObjectiveSet) -> bool {
        self.objectives == objectives
            && self.alpha_bits == strategy.alpha_internal.to_bits()
            && self.mode == strategy.mode
    }

    /// Whether props-aware scans should walk the per-class sub-fronts.
    /// Pays off only while classes stay coarse: each probe spends a few
    /// operations per class regardless of the cutoff, so once sampled
    /// cardinalities splinter the front into near-singleton classes
    /// (`#classes` comparable to the front itself) the globally sorted
    /// cutoff scan is cheaper. Routing never changes results — both scans
    /// decide via the same verified predicate.
    #[inline]
    fn use_class_scan(&self) -> bool {
        self.mode == PruneMode::PropsAware && self.classes.len() * 4 <= self.order.len()
    }

    /// The `f32` pre-filter row of a cost vector: its tail components
    /// (all selected objectives but the first), rounded to nearest.
    #[inline]
    fn tail_row(&self, cost: &CostVector) -> [f32; NUM_OBJECTIVES] {
        let mut row = [0.0f32; NUM_OBJECTIVES];
        for (i, &o) in self.sel.iter().skip(1).enumerate() {
            row[i] = cost.get(o) as f32;
        }
        row
    }

    /// Grid cell of a candidate cost vector — the same projection slots
    /// are attached under, so stored and probed cells agree.
    #[inline]
    fn cell_of_cost(&self, cost: &CostVector) -> u64 {
        grid_cell_key(
            self.sel
                .iter()
                .map(|&o| grid_cell_coord(cost.get(o), self.cell_shift)),
        )
    }

    /// Stores an entry in a slot (reusing freed slots) and links it into
    /// the grid and its class sub-front. Does not touch the global
    /// `order`/`keys`/`tail` rank arrays.
    fn attach(&mut self, entry: PlanEntry, key: f64, tail: &[f32]) -> u32 {
        let pkey = props_key(&entry.props);
        let cell = self.cell_of_cost(&entry.cost);
        let slot = if let Some(s) = self.free.pop() {
            self.props[s as usize] = pkey;
            self.cells[s as usize] = cell;
            self.slots[s as usize] = entry;
            s
        } else {
            let s = u32::try_from(self.slots.len()).expect("frontier fits in u32 slots");
            self.props.push(pkey);
            self.cells.push(cell);
            self.slots.push(entry);
            s
        };
        self.grid.entry(cell).or_default().push(slot);
        if self.mode == PruneMode::PropsAware {
            let id = pkey.class_id();
            let cid = match self.class_ids.get(&id) {
                Some(&c) => c,
                None => {
                    let c = u32::try_from(self.classes.len()).expect("class count fits in u32");
                    self.classes.push(ClassFront {
                        key: pkey,
                        slots: Vec::new(),
                        keys: Vec::new(),
                        tail: Vec::new(),
                    });
                    self.class_ids.insert(id, c);
                    c
                }
            };
            let t = self.tail_dims;
            let class = &mut self.classes[cid as usize];
            let pos = class.keys.partition_point(|&ck| ck <= key);
            class.slots.insert(pos, slot);
            class.keys.insert(pos, key);
            class.tail.splice(pos * t..pos * t, tail.iter().copied());
        }
        slot
    }

    /// Unlinks a slot from the grid and its class sub-front and frees it.
    /// The caller removes it from the global rank arrays.
    fn detach(&mut self, slot: u32) {
        let cell = self.cells[slot as usize];
        if let Some(bucket) = self.grid.get_mut(&cell) {
            if let Some(p) = bucket.iter().position(|&s| s == slot) {
                bucket.swap_remove(p);
            }
            if bucket.is_empty() {
                self.grid.remove(&cell);
            }
        }
        if self.mode == PruneMode::PropsAware {
            let id = self.props[slot as usize].class_id();
            if let Some(&cid) = self.class_ids.get(&id) {
                let t = self.tail_dims;
                let class = &mut self.classes[cid as usize];
                if let Some(p) = class.slots.iter().position(|&s| s == slot) {
                    class.slots.remove(p);
                    class.keys.remove(p);
                    class.tail.drain(p * t..p * t + t);
                }
            }
        }
        self.free.push(slot);
    }

    /// The indexed insertion: victim scan over the sorted suffix (cost-only)
    /// or the candidate-covered class sub-fronts (props-aware), order-
    /// preserving compaction of the qualifying suffix, then sorted
    /// insertion of the new entry. Victims pass the `f32` pre-filter and
    /// are confirmed by `PruneStrategy::deletes` — the plain path's
    /// predicate over the plain path's candidate subset, so deletions are
    /// bit-identical across layouts.
    fn insert(&mut self, entry: PlanEntry, strategy: &PruneStrategy) -> usize {
        let first = self.sel.first().copied();
        let key = first.map_or(0.0, |o| entry.cost.get(o));
        let inserted_key = props_key(&entry.props);
        let t = self.tail_dims;
        let ins_row = self.tail_row(&entry.cost);
        // The `f32` filter mirrors exact deletion (`ins ≤ stored` per tail
        // dimension).
        let ins32 = &ins_row[..t];

        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        let start = self.keys.partition_point(|&e| e < key);
        if self.use_class_scan() {
            // Deletion mirror of the two-level rejection scan: only
            // classes the inserted plan covers can lose members.
            for class in &self.classes {
                if !inserted_key.covers(&class.key) {
                    continue;
                }
                let cstart = class.keys.partition_point(|&e| e < key);
                for j in cstart..class.slots.len() {
                    if !tail_filter_ge(&class.tail[j * t..j * t + t], ins32) {
                        continue;
                    }
                    let slot = class.slots[j];
                    if strategy.deletes(
                        &entry,
                        &inserted_key,
                        &self.slots[slot as usize],
                        self.objectives,
                    ) {
                        victims.push(slot);
                    }
                }
            }
        } else {
            for r in start..self.order.len() {
                if !tail_filter_ge(&self.tail[r * t..r * t + t], ins32) {
                    continue;
                }
                let slot = self.order[r];
                if strategy.deletes(
                    &entry,
                    &inserted_key,
                    &self.slots[slot as usize],
                    self.objectives,
                ) {
                    victims.push(slot);
                }
            }
        }

        let deleted = victims.len();
        if deleted > 0 {
            victims.sort_unstable();
            // Order-preserving compaction over the qualifying suffix only:
            // every victim's first-objective key is at least `key` in every
            // mode, so ranks below `start` cannot be victims.
            let mut kept = start;
            for r in start..self.order.len() {
                let slot = self.order[r];
                if victims.binary_search(&slot).is_ok() {
                    continue;
                }
                if kept != r {
                    self.order[kept] = slot;
                    self.keys[kept] = self.keys[r];
                    self.tail.copy_within(r * t..r * t + t, kept * t);
                }
                kept += 1;
            }
            self.order.truncate(kept);
            self.keys.truncate(kept);
            self.tail.truncate(kept * t);
            for &slot in &victims {
                self.detach(slot);
            }
        }
        self.victims = victims;

        let pos = self.keys.partition_point(|&e| e <= key);
        let slot = self.attach(entry, key, ins32);
        self.order.insert(pos, slot);
        self.keys.insert(pos, key);
        self.tail.splice(pos * t..pos * t, ins32.iter().copied());
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::Objective;
    use moqo_plan::SortOrder;

    fn objs() -> ObjectiveSet {
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint])
    }

    fn entry(t: f64, b: f64) -> PlanEntry {
        PlanEntry {
            cost: CostVector::from_pairs(&[
                (Objective::TotalTime, t),
                (Objective::BufferFootprint, b),
            ]),
            props: PlanProps {
                rels: 1,
                rows: 1.0,
                width: 1.0,
                order: SortOrder::None,
                sampling_factor: 1.0,
            },
            plan: PlanId(0),
        }
    }

    #[test]
    fn exact_prune_keeps_incomparable_plans() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        assert!(set.prune_insert(entry(1.0, 3.0), &s, objs()));
        assert!(set.prune_insert(entry(3.0, 1.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set.is_antichain(objs()));
    }

    #[test]
    fn exact_prune_rejects_dominated_insert() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        assert!(set.prune_insert(entry(1.0, 1.0), &s, objs()));
        assert!(!set.prune_insert(entry(2.0, 2.0), &s, objs()));
        assert!(!set.prune_insert(entry(1.0, 1.0), &s, objs())); // equal ⇒ dominated
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn exact_prune_deletes_newly_dominated() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        set.prune_insert(entry(2.0, 2.0), &s, objs());
        set.prune_insert(entry(3.0, 0.5), &s, objs());
        // (1,1) dominates (2,2) but not (3,0.5) — buffer 0.5 < 1.
        assert!(set.prune_insert(entry(1.0, 1.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set.iter().all(|e| e.cost.get(Objective::TotalTime) != 2.0));
    }

    #[test]
    fn insert_unrejected_reports_deletions() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        set.prune_insert(entry(2.0, 2.0), &s, objs());
        set.prune_insert(entry(3.0, 1.5), &s, objs());
        set.prune_insert(entry(4.0, 0.5), &s, objs());
        // (1,1) dominates the first two entries but not (4, 0.5).
        let probe = entry(1.0, 1.0);
        assert!(!set.would_reject(&probe.cost, &probe.props, &s, objs()));
        assert_eq!(set.insert_unrejected(probe, &s, objs()), 2);
        assert_eq!(set.len(), 2);
        assert!(set.is_antichain(objs()));
    }

    #[test]
    fn approximate_prune_thins_the_set() {
        let mut exact = PlanSet::new();
        let mut approx = PlanSet::new();
        let se = PruneStrategy::exact();
        let sa = PruneStrategy::approximate(2.0);
        // A dense frontier: exact keeps all, 2-approximate keeps far fewer.
        for i in 0..32 {
            let t = 1.0 + f64::from(i) * 0.1;
            let b = 10.0 / t;
            exact.prune_insert(entry(t, b), &se, objs());
            approx.prune_insert(entry(t, b), &sa, objs());
        }
        assert_eq!(exact.len(), 32);
        assert!(
            approx.len() < exact.len() / 2,
            "approx kept {}",
            approx.len()
        );
    }

    #[test]
    fn approximate_prune_still_covers_frontier() {
        // Every exact-frontier point must be α-approximately dominated by a
        // kept representative (the invariant behind Theorem 3's base case).
        let alpha = 1.5;
        let mut approx = PlanSet::new();
        let sa = PruneStrategy::approximate(alpha);
        let mut all = Vec::new();
        for i in 0..64 {
            let t = 1.0 + f64::from(i) * 0.07;
            let b = 20.0 / t;
            let e = entry(t, b);
            all.push(e.cost);
            approx.prune_insert(e, &sa, objs());
        }
        let frontier = moqo_cost::pareto_front::pareto_frontier(&all, objs());
        let kept: Vec<CostVector> = approx.iter().map(|e| e.cost).collect();
        assert!(moqo_cost::pareto_front::is_approx_pareto_set(
            &kept,
            &frontier,
            alpha,
            objs()
        ));
    }

    #[test]
    fn sound_rta_keeps_every_drift_chain_point_within_alpha() {
        // The §6.2 drift chain: each new point is slightly worse in time
        // (×1.1 < α) and much better in buffer (÷1.3), so it is NOT rejected
        // (buffer improves beyond α) but it α-dominates its predecessor.
        // All chain points are mutually incomparable, hence all lie on the
        // true frontier. Deleting approximately dominated plans would keep
        // only the last one, more than α away from the early points; sound
        // RTA pruning deletes only exactly dominated plans, so it keeps
        // every point and stays within α.
        let alpha = 1.2f64;
        let mut sound = PlanSet::new();
        let ss = PruneStrategy::approximate(alpha);
        let mut all = Vec::new();
        let (mut t, mut b) = (1.0f64, 1000.0f64);
        let mut kept_count = 0;
        for _ in 0..12 {
            let e = entry(t, b);
            all.push(e.cost);
            if sound.prune_insert(e, &ss, objs()) {
                kept_count += 1;
            }
            t *= 1.1;
            b /= 1.3;
        }
        assert_eq!(kept_count, 12);
        let kept: Vec<CostVector> = sound.iter().map(|e| e.cost).collect();
        let factor = moqo_cost::pareto_front::approximation_factor(&kept, &all, objs()).unwrap();
        assert!(
            factor <= alpha,
            "sound pruning stays within α; got {factor}"
        );
    }

    fn entry_with_rows(t: f64, b: f64, rows: f64) -> PlanEntry {
        let mut e = entry(t, b);
        e.props.rows = rows;
        e
    }

    #[test]
    fn auto_mode_selects_props_aware_only_for_the_leak_regime() {
        let no_loss = objs();
        let with_loss =
            ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::TupleLoss]);
        assert_eq!(PruneMode::auto(true, no_loss), PruneMode::PropsAware);
        assert_eq!(PruneMode::auto(false, no_loss), PruneMode::CostOnly);
        assert_eq!(PruneMode::auto(true, with_loss), PruneMode::CostOnly);
        assert_eq!(PruneMode::auto(false, with_loss), PruneMode::CostOnly);
    }

    #[test]
    fn props_aware_keeps_cost_dominated_plan_with_fewer_rows() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        assert!(set.prune_insert(entry_with_rows(1.0, 1.0, 100.0), &s, objs()));
        // Cost-dominated, but only 10 output rows: must survive, because a
        // parent operator over it can be arbitrarily cheaper.
        assert!(set.prune_insert(entry_with_rows(2.0, 2.0, 10.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set.is_props_antichain(objs()));
        // The same stream under cost-only pruning discards it.
        let mut cost_only = PlanSet::new();
        let c = PruneStrategy::exact();
        assert!(cost_only.prune_insert(entry_with_rows(1.0, 1.0, 100.0), &c, objs()));
        assert!(!cost_only.prune_insert(entry_with_rows(2.0, 2.0, 10.0), &c, objs()));
    }

    #[test]
    fn props_aware_still_prunes_within_a_props_class() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        assert!(set.prune_insert(entry_with_rows(1.0, 1.0, 50.0), &s, objs()));
        // Same rows, dominated cost: discarded exactly as in cost-only mode.
        assert!(!set.prune_insert(entry_with_rows(2.0, 2.0, 50.0), &s, objs()));
        // A dominator with *fewer* rows also prunes.
        assert!(!set.prune_insert(entry_with_rows(2.0, 2.0, 200.0), &s, objs()));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn props_aware_deletion_spares_fewer_row_incumbents() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        set.prune_insert(entry_with_rows(2.0, 2.0, 10.0), &s, objs());
        set.prune_insert(entry_with_rows(3.0, 3.0, 100.0), &s, objs());
        // (1,1,50) cost-dominates both, but covers only the 100-row entry.
        assert!(set.prune_insert(entry_with_rows(1.0, 1.0, 50.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set
            .iter()
            .any(|e| e.cost.get(Objective::TotalTime) == 2.0 && e.props.rows == 10.0));
        assert!(set.iter().all(|e| e.cost.get(Objective::TotalTime) != 3.0));
    }

    #[test]
    fn props_aware_interest_tags_partition_orders() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        let mut sorted = entry_with_rows(2.0, 2.0, 50.0);
        sorted.props.order = SortOrder::on(0, 1);
        let unsorted = entry_with_rows(1.0, 1.0, 50.0);
        // An unsorted dominator cannot discard a sorted plan…
        assert!(set.prune_insert(unsorted, &s, objs()));
        assert!(set.prune_insert(sorted, &s, objs()));
        assert_eq!(set.len(), 2);
        // …but a sorted dominator discards an unsorted one.
        let mut set2 = PlanSet::new();
        let mut sorted_cheap = entry_with_rows(1.0, 1.0, 50.0);
        sorted_cheap.props.order = SortOrder::on(0, 1);
        assert!(set2.prune_insert(sorted_cheap, &s, objs()));
        assert!(!set2.prune_insert(entry_with_rows(2.0, 2.0, 50.0), &s, objs()));
    }

    #[test]
    fn modes_agree_when_rows_and_orders_are_uniform() {
        // Without sampling every plan of a (table set, order) group has the
        // same rows and order, so the two modes are bit-identical.
        let cost_only = PruneStrategy::approximate(1.3);
        let props = PruneStrategy::approximate(1.3).with_mode(PruneMode::PropsAware);
        let mut a = PlanSet::new();
        let mut b = PlanSet::new();
        for i in 0..64u32 {
            let t = 1.0 + f64::from(i % 17) * 0.21;
            let bcost = 40.0 / t;
            let (ra, rb) = (
                a.prune_insert(entry(t, bcost), &cost_only, objs()),
                b.prune_insert(entry(t, bcost), &props, objs()),
            );
            assert_eq!(ra, rb, "insert {i}");
        }
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }
}
