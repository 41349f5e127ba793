//! Property tests for the layered frontier engine behind `PlanSet`: the
//! grid-bucket dominance index and the two-level props-class sub-fronts
//! must be *pure* accelerations of the plain sorted-vector `Prune`.
//!
//! 1. For every insertion order, prune mode (cost-only / props-aware) and
//!    α ∈ {1, 1.5, 2}, the indexed structures keep exactly the same plans
//!    (bitwise: cost vectors, props and plan ids) as the plain layout.
//! 2. At α = 1 under cost-only pruning the surviving vectors equal the
//!    oracle Pareto frontier of everything offered, for every structure
//!    and insertion order; props-aware survivors form a props-antichain.
//! 3. On 2000-vector streams at 2, 6 and 9 objectives — large enough for
//!    `Adaptive` to engage the index — every structure keeps the plain
//!    layout's plans under both prune modes.

use moqo_core::pareto::{FrontierStructure, PlanEntry, PlanSet, PruneMode, PruneStrategy};
use moqo_cost::{pareto_front, CostVector, Objective, ObjectiveSet};
use moqo_plan::{PlanId, PlanProps, SortOrder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn objs3() -> ObjectiveSet {
    ObjectiveSet::from_objectives(&[
        Objective::TotalTime,
        Objective::BufferFootprint,
        Objective::IoLoad,
    ])
}

/// Builds an entry whose physical properties vary over a few cardinality
/// classes and sort orders, so props-aware mode exercises the two-level
/// class sub-fronts instead of collapsing to a single class.
fn entry(t: f64, b: f64, io: f64, rows_class: u8, order_class: u8, id: u32) -> PlanEntry {
    let rows = [1.0, 10.0, 100.0][usize::from(rows_class) % 3];
    let order = match order_class % 3 {
        0 => SortOrder::None,
        1 => SortOrder::Col { rel: 0, col: 1 },
        _ => SortOrder::Col { rel: 1, col: 0 },
    };
    PlanEntry {
        cost: CostVector::from_pairs(&[
            (Objective::TotalTime, t),
            (Objective::BufferFootprint, b),
            (Objective::IoLoad, io),
        ]),
        props: PlanProps {
            rels: 1,
            rows,
            width: 1.0,
            order,
            sampling_factor: 1.0,
        },
        plan: PlanId(id),
    }
}

fn run_stream(
    entries: &[PlanEntry],
    structure: FrontierStructure,
    strategy: &PruneStrategy,
    objectives: ObjectiveSet,
) -> PlanSet {
    let mut set = PlanSet::with_structure(structure);
    for e in entries {
        set.prune_insert(*e, strategy, objectives);
    }
    set
}

/// Bit-exact sorted fingerprint of the surviving plans: cost bits over all
/// objectives, props identity and plan id. Two sets with equal
/// fingerprints hold byte-identical plans (iteration order aside — the
/// indexed layout iterates in first-objective order, the plain one in
/// insertion order).
fn fingerprint(set: &PlanSet) -> Vec<(Vec<u64>, u64, u32)> {
    let mut v: Vec<(Vec<u64>, u64, u32)> = set
        .iter()
        .map(|e| {
            let order_tag = match e.props.order {
                SortOrder::None => 0u64,
                SortOrder::Col { rel, col } => 1 + ((rel as u64) << 16 | u64::from(col)),
            };
            (
                e.cost.as_array().iter().map(|c| c.to_bits()).collect(),
                e.props.rows.to_bits() ^ order_tag.rotate_left(17),
                e.plan.0,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// Dedup'd sorted cost triples, for comparison against the vector oracle.
fn surviving_vectors(set: &PlanSet) -> Vec<(f64, f64, f64)> {
    let mut v: Vec<(f64, f64, f64)> = set
        .iter()
        .map(|e| {
            (
                e.cost.get(Objective::TotalTime),
                e.cost.get(Objective::BufferFootprint),
                e.cost.get(Objective::IoLoad),
            )
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.dedup();
    v
}

type RawPoint = (f64, f64, f64, u8, u8);

fn arb_stream() -> impl Strategy<Value = Vec<RawPoint>> {
    prop::collection::vec(
        (0.1f64..100.0, 0.1f64..100.0, 0.1f64..100.0, 0u8..3, 0u8..3),
        1..=64,
    )
}

fn build(points: &[RawPoint]) -> Vec<PlanEntry> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(t, b, io, rc, oc))| entry(t, b, io, rc, oc, i as u32))
        .collect()
}

proptest! {
    /// The indexed structures are observationally identical to the plain
    /// layout across both prune modes, the α grid {1, 1.5, 2}, and
    /// arbitrary insertion orders.
    #[test]
    fn indexed_structures_match_plain_prune(
        points in arb_stream(),
        rotation in 0usize..64,
    ) {
        let entries = build(&points);
        let mut permuted = entries.clone();
        permuted.reverse();
        let pivot = rotation % permuted.len();
        permuted.rotate_left(pivot);

        for &alpha in &[1.0f64, 1.5, 2.0] {
            for &mode in &[PruneMode::CostOnly, PruneMode::PropsAware] {
                let strategy = PruneStrategy::approximate(alpha).with_mode(mode);
                for stream in [&entries, &permuted] {
                    let reference =
                        run_stream(stream, FrontierStructure::Plain, &strategy, objs3());
                    for structure in [FrontierStructure::Indexed, FrontierStructure::Adaptive] {
                        let got = run_stream(stream, structure, &strategy, objs3());
                        prop_assert_eq!(
                            fingerprint(&got),
                            fingerprint(&reference),
                            "alpha {} mode {:?} structure {:?}",
                            alpha, mode, structure
                        );
                    }
                    match mode {
                        PruneMode::CostOnly => prop_assert!(reference.is_antichain(objs3())),
                        PruneMode::PropsAware => {
                            prop_assert!(reference.is_props_antichain(objs3()));
                        }
                    }
                }
            }
        }
    }

    /// At α = 1 under cost-only pruning, every structure's surviving
    /// vector set is exactly the oracle Pareto frontier of everything
    /// offered — hence order-invariant.
    #[test]
    fn exact_cost_only_fronts_equal_the_oracle_for_every_structure(
        points in arb_stream(),
        rotation in 0usize..64,
    ) {
        let entries = build(&points);
        let all: Vec<CostVector> = entries.iter().map(|e| e.cost).collect();
        let mut oracle: Vec<(f64, f64, f64)> = pareto_front::pareto_frontier(&all, objs3())
            .iter()
            .map(|c| {
                (
                    c.get(Objective::TotalTime),
                    c.get(Objective::BufferFootprint),
                    c.get(Objective::IoLoad),
                )
            })
            .collect();
        oracle.sort_by(|a, b| a.partial_cmp(b).unwrap());
        oracle.dedup();

        let mut permuted = entries.clone();
        permuted.reverse();
        let pivot = rotation % permuted.len();
        permuted.rotate_left(pivot);

        let strategy = PruneStrategy::exact();
        for stream in [&entries, &permuted] {
            for structure in [
                FrontierStructure::Plain,
                FrontierStructure::Indexed,
                FrontierStructure::Adaptive,
            ] {
                let set = run_stream(stream, structure, &strategy, objs3());
                prop_assert_eq!(surviving_vectors(&set), oracle.clone(), "{:?}", structure);
            }
        }
    }
}

/// A seeded stream of 2000 uniform cost vectors over the first
/// `objectives` dimensions, scattered across 8 output cardinalities so
/// props-aware mode exercises the two-level class sub-fronts.
fn props_class_stream(objectives: usize) -> Vec<PlanEntry> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..2000u32)
        .map(|i| {
            let mut a = [0.0; moqo_cost::NUM_OBJECTIVES];
            for v in a.iter_mut().take(objectives) {
                *v = rng.gen_range(1.0..1000.0);
            }
            let rows = 1.0 + rng.gen_range(0..8u64) as f64;
            PlanEntry {
                cost: CostVector::from_array(a),
                props: PlanProps {
                    rels: 1,
                    rows,
                    width: 1.0,
                    order: SortOrder::None,
                    sampling_factor: 1.0,
                },
                plan: PlanId(i),
            }
        })
        .collect()
}

/// The proptests above stay below the size at which `Adaptive` engages
/// the index; this stream of 2000 vectors over 8 cardinality classes
/// drives every structure through its indexed paths at 2, 6 and 9
/// objectives, and all must keep the plain layout's plans.
#[test]
fn large_props_class_streams_match_plain_for_every_structure() {
    for n_objs in [2usize, 6, 9] {
        let objectives: ObjectiveSet = Objective::ALL.into_iter().take(n_objs).collect();
        let entries = props_class_stream(n_objs);
        for mode in [PruneMode::CostOnly, PruneMode::PropsAware] {
            let strategy = PruneStrategy::exact().with_mode(mode);
            let reference = fingerprint(&run_stream(
                &entries,
                FrontierStructure::Plain,
                &strategy,
                objectives,
            ));
            for structure in [FrontierStructure::Indexed, FrontierStructure::Adaptive] {
                let got = run_stream(&entries, structure, &strategy, objectives);
                assert_eq!(
                    fingerprint(&got),
                    reference,
                    "{n_objs} objectives, mode {mode:?}, structure {structure:?}"
                );
            }
        }
    }
}
