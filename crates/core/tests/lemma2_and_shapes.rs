//! Integration test for Lemma 2's grid invariant: the RTA never stores two
//! plans whose cost vectors map to the same `δ` cell (the discretization
//! argument bounding plan-set cardinality by `O((n·log_{α_i} m)^{l−1})`).

use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
use moqo_core::{find_pareto_plans, Deadline, DpConfig};
use moqo_cost::{grid, Objective, ObjectiveSet, Weights};
use moqo_costmodel::{CostModel, CostModelParams};

fn setup4() -> (CostModelParams, Catalog, JoinGraph) {
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
            .with_column(ColumnStats::new("l_orderkey", 150_000.0).indexed())
            .with_column(ColumnStats::new("l_partkey", 20_000.0).indexed()),
    );
    cat.add_table(
        TableStats::new("part", 20_000.0, 155.0)
            .with_column(ColumnStats::new("p_partkey", 20_000.0).indexed()),
    );
    let graph = JoinGraphBuilder::new(&cat)
        .rel("customer", 0.25)
        .rel("orders", 0.5)
        .rel("lineitem", 0.75)
        .rel("part", 1.0)
        .join(("customer", "c_custkey"), ("orders", "o_custkey"))
        .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
        .join(("lineitem", "l_partkey"), ("part", "p_partkey"))
        .build();
    (params, cat, graph)
}

fn objs() -> ObjectiveSet {
    ObjectiveSet::from_objectives(&[
        Objective::TotalTime,
        Objective::BufferFootprint,
        Objective::Energy,
    ])
}

#[test]
fn rta_never_stores_two_plans_in_the_same_delta_cell() {
    let (params, cat, graph) = setup4();
    let model = CostModel::new(&params, &cat, &graph);
    for alpha_u in [1.5f64, 2.0, 4.0] {
        let alpha_i = alpha_u.powf(1.0 / graph.n_rels() as f64);
        let result = find_pareto_plans(
            &model,
            objs(),
            &DpConfig::approximate(alpha_i),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        // Lemma 2's invariant, checked per (order, zero-pattern) group on
        // the final plan set: two stored plans of the same group never share
        // a δ cell.
        let entries = &result.final_plans;
        for (i, a) in entries.iter().enumerate() {
            for b in entries.iter().skip(i + 1) {
                if a.props.order != b.props.order {
                    continue; // different Postgres path-key groups
                }
                assert!(
                    !grid::same_cell(&a.cost, &b.cost, alpha_i, objs()),
                    "α_i = {alpha_i}: two stored plans share a δ cell:\n{:?}\n{:?}",
                    a.cost,
                    b.cost
                );
            }
        }
    }
}
