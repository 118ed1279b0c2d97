//! Property-based tests on the core invariants of the paper:
//! Theorem 3 (rule-order independence), Proposition 1 (knapsack behaviour of
//! the relation-centric selection), budget monotonicity, DSL round-trips,
//! the statement API contracts (text round-trip, fingerprint invariance),
//! codec round-trips over every `PropertyValue` variant and never-panicking
//! decoders for every byte format.

use pgso::graphstore::codec::{decode_vertex, encode_vertex};
use pgso::graphstore::PropertyMap;
use pgso::ontology::catalog;
use pgso::optimizer::{
    enumerate_items, solve_exact, solve_fptas, solve_greedy, InheritanceSimilarities, KnapsackItem,
    RuleItem, SchemaGraph,
};
use pgso::prelude::*;
use proptest::prelude::*;

/// Deterministically builds a `PropertyValue` from an integer spec, cycling
/// through every variant — `Null`, `Bool`, `Int`, `Float`, `Str` (with
/// non-ASCII content) and nested `List` up to `depth` levels.
fn value_from_spec(kind: usize, payload: i64, depth: usize) -> PropertyValue {
    match kind % 6 {
        0 => PropertyValue::Null,
        1 => PropertyValue::Bool(payload % 2 == 0),
        2 => PropertyValue::Int(payload),
        3 => PropertyValue::Float(payload as f64 * 0.125),
        4 => PropertyValue::Str(format!("s{payload}-äß✓")),
        _ if depth == 0 => PropertyValue::Int(payload.wrapping_mul(3)),
        _ => PropertyValue::List(
            (0..payload.unsigned_abs() % 4)
                .map(|i| value_from_spec(kind / 6 + i as usize, payload ^ i as i64, depth - 1))
                .collect(),
        ),
    }
}

/// Deterministically builds a tiny property graph from integer specs.
fn spec_graph(vertex_specs: &[(usize, i64)], edge_specs: &[(usize, usize, usize)]) -> MemoryGraph {
    let mut graph = MemoryGraph::new();
    let n = vertex_specs.len();
    for (i, &(label, seed)) in vertex_specs.iter().enumerate() {
        graph.add_vertex(
            &format!("L{}", label % 4),
            props([
                ("p0", PropertyValue::Int(seed % 5)),
                ("p1", PropertyValue::str(format!("str{}", seed % 7))),
                ("p2", value_from_spec(i + label, seed, 2)),
            ]),
        );
    }
    for &(src, dst, label) in edge_specs {
        let (src, dst) = (src % n, dst % n);
        graph.add_edge(
            &format!("r{}", label % 3),
            pgso::graphstore::VertexId(src as u64),
            pgso::graphstore::VertexId(dst as u64),
        );
    }
    graph
}

/// Deterministically assembles a [`Statement`] from generated integer specs.
/// Optional nodes are declared in the order their edges introduce them so
/// the text form round-trips; everything else is free. Predicate specs with
/// an odd `param` component become `$name` parameter terms (collected into
/// the returned [`Params`] with a deterministic value), as do `SKIP`/`LIMIT`
/// when flag bit 64 is set — so every generated statement comes with a
/// parameter set that binds it.
fn build_statement(
    node_count: usize,
    edge_specs: &[(usize, usize, usize)],
    opt_specs: &[(usize, usize)],
    pred_specs: &[(usize, usize, usize, i64)],
    flags: u8,
) -> (Statement, Params) {
    let mut b = Statement::builder("generated");
    let mut params = Params::new();
    for i in 0..node_count {
        b = b.node(format!("v{i}"), format!("L{i}"));
    }
    for &(src, dst, label) in edge_specs {
        let (src, dst) = (src % node_count, dst % node_count);
        if src == dst {
            continue;
        }
        b = b.edge(format!("v{src}"), format!("r{label}"), format!("v{dst}"));
    }
    let mut opt_vars = Vec::new();
    for (k, &(anchor, label)) in opt_specs.iter().enumerate() {
        let var = format!("o{k}");
        b = b.opt_node(&var, format!("L{label}"));
        b = b.opt_edge(format!("v{}", anchor % node_count), format!("r{label}"), &var);
        opt_vars.push(var);
    }
    for (k, &(var, op, prop, value)) in pred_specs.iter().enumerate() {
        let pool = node_count + opt_vars.len();
        let var = var % pool;
        let var =
            if var < node_count { format!("v{var}") } else { opt_vars[var - node_count].clone() };
        let op =
            [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Contains]
                [op % 7];
        let literal = if op == CmpOp::Contains {
            PropertyValue::str(format!("needle{value}"))
        } else {
            match prop % 4 {
                0 => PropertyValue::Int(value),
                1 => PropertyValue::str(format!("str{value}")),
                2 => PropertyValue::Float(value as f64 * 0.5 + 0.25),
                _ => PropertyValue::Bool(value % 2 == 0),
            }
        };
        let property = format!("p{}", prop % 3);
        if value % 2 == 1 {
            let name = format!("param{k}");
            params.insert(&name, literal);
            b = b.filter_param(var, property, op, name);
        } else {
            b = b.filter(var, property, op, literal);
        }
    }
    b = b.ret_property("v0", "p0");
    if flags & 8 != 0 {
        b = b.ret_vertex(format!("v{}", node_count - 1));
    }
    if flags & 1 != 0 {
        b = b.distinct();
    }
    if flags & 2 != 0 {
        b = b.order_by("v0", "p0", flags & 4 != 0);
    }
    let window_params = flags & 64 != 0;
    if flags & 16 != 0 {
        if window_params {
            params.insert("skip", 3i64);
            b = b.skip_param("skip");
        } else {
            b = b.skip(3);
        }
    }
    if flags & 32 != 0 {
        if window_params {
            params.insert("limit", 7i64);
            b = b.limit_param("limit");
        } else {
            b = b.limit(7);
        }
    }
    (b.build(), params)
}

/// Applies a fixed item set in the given order until fixpoint, via the raw
/// schema graph (bypassing apply_plan's canonical ordering).
fn apply_in_order(
    ontology: &Ontology,
    items: &[RuleItem],
    config: &OptimizerConfig,
) -> PropertyGraphSchema {
    let similarities = InheritanceSimilarities::compute(ontology);
    let mut graph = SchemaGraph::from_ontology(ontology);
    loop {
        let mut changed = false;
        for item in items {
            changed |= graph.apply_item(item, ontology, &similarities, config);
        }
        if !changed {
            break;
        }
    }
    graph.to_schema(ontology, "prop")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 3: the union, inheritance, 1:M and M:N rules commute.
    #[test]
    fn theorem3_rule_order_independence(seed in 0u64..1_000) {
        let ontology = catalog::med_mini();
        let config = OptimizerConfig::default();
        let similarities = InheritanceSimilarities::compute(&ontology);
        let mut items = enumerate_items(&ontology, &similarities, &config);
        items.retain(|i| !matches!(i, RuleItem::OneToOne(_)));

        let baseline = apply_in_order(&ontology, &items, &config);

        // Shuffle deterministically from the seed.
        let mut shuffled = items.clone();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let shuffled_schema = apply_in_order(&ontology, &shuffled, &config);
        prop_assert_eq!(baseline, shuffled_schema);
    }

    /// The FPTAS never exceeds the budget and achieves at least (1-ε) of the
    /// exact optimum; the greedy heuristic also stays within budget.
    #[test]
    fn knapsack_fptas_guarantee(
        specs in proptest::collection::vec((0.0f64..100.0, 0u64..50), 1..24),
        capacity in 0u64..400,
    ) {
        let items: Vec<KnapsackItem> =
            specs.iter().map(|&(b, c)| KnapsackItem::new(b, c)).collect();
        let exact = solve_exact(&items, capacity);
        let epsilon = 0.1;
        let approx = solve_fptas(&items, capacity, epsilon);
        let greedy = solve_greedy(&items, capacity);
        prop_assert!(approx.total_cost <= capacity);
        prop_assert!(greedy.total_cost <= capacity);
        prop_assert!(exact.total_cost <= capacity);
        prop_assert!(
            approx.total_benefit >= (1.0 - epsilon) * exact.total_benefit - 1e-6,
            "FPTAS {} below (1-eps) * exact {}", approx.total_benefit, exact.total_benefit
        );
        // Selections must be consistent with the reported totals.
        let recomputed: f64 = approx.selected.iter().map(|&i| items[i].benefit).sum();
        prop_assert!((recomputed - approx.total_benefit).abs() < 1e-9);
    }

    /// Relation-centric selection: the total cost never exceeds the budget and
    /// the benefit is monotone in the budget.
    #[test]
    fn relation_centric_budget_monotonicity(fraction in 0.0f64..1.0) {
        let ontology = catalog::medical();
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 3);
        let workload = AccessFrequencies::uniform(&ontology, 1_000.0);
        let input = OptimizerInput::new(&ontology, &stats, &workload);
        let nsc = optimize_nsc(input, &OptimizerConfig::default());
        let budget = (nsc.total_cost as f64 * fraction) as u64;
        let smaller = optimize_relation_centric(
            input,
            &OptimizerConfig::with_space_limit(budget / 2),
        );
        let larger =
            optimize_relation_centric(input, &OptimizerConfig::with_space_limit(budget));
        prop_assert!(smaller.total_cost <= budget / 2);
        prop_assert!(larger.total_cost <= budget);
        prop_assert!(larger.total_benefit + 1e-9 >= smaller.total_benefit);
        prop_assert!(larger.total_benefit <= nsc.total_benefit + 1e-9);
    }

    /// Statement API contract: generated statements — `$parameters`
    /// included — round-trip through `Display` → `parse` → structural
    /// equality, the fingerprint ignores the presentation name but keys on
    /// the clause shape, and auto-parameterization canonicalizes literal
    /// variations onto one fingerprint.
    #[test]
    fn statement_text_roundtrip_and_fingerprint_invariance(
        node_count in 1usize..4,
        edge_specs in proptest::collection::vec((0usize..4, 0usize..4, 0usize..3), 0..4),
        opt_specs in proptest::collection::vec((0usize..4, 0usize..3), 0..3),
        pred_specs in proptest::collection::vec(
            (0usize..6, 0usize..7, 0usize..4, 0i64..1000),
            0..4,
        ),
        flags in 0u8..128,
    ) {
        let (stmt, params) = build_statement(node_count, &edge_specs, &opt_specs, &pred_specs, flags);

        // Round-trip through the text front-end.
        let text = stmt.to_string();
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("generated statement failed to parse: {e}\n  {text}"));
        prop_assert!(
            stmt.structurally_eq(&reparsed),
            "round-trip mismatch:\n  {}\n  {}",
            stmt,
            reparsed
        );
        // Binding makes the parameters disappear; the bound statement still
        // round-trips.
        let bound = stmt.bind(&params).expect("generated params bind");
        prop_assert!(!bound.has_parameters());
        let bound_reparsed = parse(&bound.to_string()).expect("bound statement parses");
        prop_assert!(bound.structurally_eq(&bound_reparsed));

        // Fingerprint: renaming does not key, the reparsed statement shares
        // the key (names differ only), and literal variations share a key
        // after canonicalization.
        let base = fingerprint_statement(&stmt);
        let mut renamed = stmt.clone();
        renamed.name = "renamed".into();
        prop_assert_eq!(base, fingerprint_statement(&renamed));
        prop_assert_eq!(base, fingerprint_statement(&reparsed));
        let mut other_literals = bound.clone();
        for predicate in &mut other_literals.predicates {
            predicate.value = Term::Literal(PropertyValue::str("entirely different"));
        }
        if other_literals.skip.is_some() {
            other_literals.skip = Some(CountTerm::Count(999));
        }
        if other_literals.limit.is_some() {
            other_literals.limit = Some(CountTerm::Count(1));
        }
        let (canonical_a, _) = bound.parameterize();
        let (canonical_b, _) = other_literals.parameterize();
        prop_assert_eq!(
            fingerprint_statement(&canonical_a),
            fingerprint_statement(&canonical_b),
            "canonical forms of literal variations must share one plan key"
        );

        // Shape stays significant: dropping a clause changes the key.
        if !stmt.predicates.is_empty() {
            let mut fewer = stmt.clone();
            fewer.predicates.pop();
            prop_assert!(base != fingerprint_statement(&fewer));
        }
        if stmt.limit.is_some() {
            let mut unlimited = stmt.clone();
            unlimited.limit = None;
            prop_assert!(base != fingerprint_statement(&unlimited));
        }
    }

    /// `HAVING` filters aggregate rows exactly like post-filtering the same
    /// statement's returned aggregate columns (it runs before windowing, and
    /// the statements generated here carry none), and HAVING statements
    /// round-trip through text, fingerprints and parameter binding.
    #[test]
    fn having_filters_like_post_filtering_returned_aggregates(
        vertex_specs in proptest::collection::vec((0usize..4, 0i64..40), 2..16),
        graph_edges in proptest::collection::vec((0usize..16, 0usize..16, 0usize..3), 0..24),
        having_specs in proptest::collection::vec(
            (0usize..6, 0usize..6, 0i64..6, 0u8..2),
            1..4,
        ),
        grouped in 0u8..2,
    ) {
        let graph = spec_graph(&vertex_specs, &graph_edges);
        let mut b = Statement::builder("having-gen")
            .node("a", "L0")
            .node("b", "L1")
            .edge("a", "r0", "b")
            .ret_property("a", "p0");
        let mut params = Params::new();
        let mut specs = Vec::new();
        for (k, &(agg, op, threshold, via_param)) in having_specs.iter().enumerate() {
            let (agg, property) = match agg {
                0 => (Aggregate::Count, None),
                1 => (Aggregate::CountDistinct, None),
                2 => (Aggregate::Sum, Some("p0")),
                3 => (Aggregate::Min, Some("p0")),
                4 => (Aggregate::Max, Some("p0")),
                _ => (Aggregate::Avg, Some("p0")),
            };
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op];
            b = b.ret_aggregate(agg, "b", property);
            if via_param == 1 {
                let name = format!("t{k}");
                params.insert(&name, threshold);
                b = b.having_param(agg, "b", property, op, name);
            } else {
                b = b.having(agg, "b", property, op, threshold);
            }
            specs.push((op, PropertyValue::Int(threshold)));
        }
        if grouped == 1 {
            b = b.group_by("a");
        }
        let stmt = b.build();

        // Text round-trip and fingerprint invariance.
        let reparsed = parse(&stmt.to_string())
            .unwrap_or_else(|e| panic!("generated HAVING statement failed to parse: {e}\n  {stmt}"));
        prop_assert!(stmt.structurally_eq(&reparsed), "{}\n{}", stmt, reparsed);
        prop_assert_eq!(fingerprint_statement(&stmt), fingerprint_statement(&reparsed));

        let bound = stmt.bind(&params).expect("generated params bind");
        prop_assert!(!bound.has_parameters());

        // Ground truth: the same statement with HAVING stripped, post-filtered
        // by applying each predicate to its returned aggregate column.
        let mut unfiltered = bound.clone();
        unfiltered.having.clear();
        let expected: Vec<_> = execute_statement(&unfiltered, &graph)
            .rows
            .into_iter()
            .filter(|row| {
                specs
                    .iter()
                    .enumerate()
                    .all(|(k, (op, threshold))| op.eval(&row[k + 1], threshold))
            })
            .collect();
        prop_assert_eq!(execute_statement(&bound, &graph).rows, expected, "{}", bound);
    }

    /// Binding semantics: executing `stmt.bind(params)` equals executing the
    /// statement with the values substituted by hand, and the binding is
    /// insensitive to the order the caller assembled the [`Params`] in —
    /// by-name lookup cannot mis-bind shuffled same-name parameters, which
    /// was exactly the failure mode of positional rebinding.
    #[test]
    fn shuffled_params_bind_like_literal_substitution(
        vertex_specs in proptest::collection::vec((0usize..4, 0i64..40), 2..16),
        graph_edges in proptest::collection::vec((0usize..16, 0usize..16, 0usize..3), 0..24),
        node_count in 1usize..4,
        edge_specs in proptest::collection::vec((0usize..4, 0usize..4, 0usize..3), 0..3),
        pred_specs in proptest::collection::vec(
            (0usize..4, 0usize..7, 0usize..4, 0i64..10),
            0..4,
        ),
        flags in 0u8..128,
    ) {
        let (stmt, params) = build_statement(node_count, &edge_specs, &[], &pred_specs, flags);
        let graph = spec_graph(&vertex_specs, &graph_edges);

        // Hand substitution, the ground truth.
        let mut literal = stmt.clone();
        for predicate in &mut literal.predicates {
            if let Some(name) = predicate.value.parameter_name().map(str::to_string) {
                let value = params.get(&name).expect("declared parameter generated").clone();
                predicate.value = Term::Literal(value);
            }
        }
        for count in [&mut literal.skip, &mut literal.limit].into_iter().flatten() {
            if let Some(name) = count.parameter_name().map(str::to_string) {
                let n = params.get(&name).and_then(PropertyValue::as_int).expect("count param");
                *count = CountTerm::Count(n as usize);
            }
        }

        // Bind with the parameter set assembled in reversed order: by-name
        // binding must not care.
        let mut shuffled = Params::new();
        let pairs: Vec<(String, PropertyValue)> =
            params.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
        for (name, value) in pairs.into_iter().rev() {
            shuffled.insert(name, value);
        }
        let bound = stmt.bind(&shuffled).expect("generated params bind");
        prop_assert!(bound.structurally_eq(&literal), "{bound} vs {literal}");

        let via_bind = execute_statement(&bound, &graph);
        let via_literals = execute_statement(&literal, &graph);
        prop_assert_eq!(via_bind.rows, via_literals.rows);
        prop_assert_eq!(via_bind.matches, via_literals.matches);
    }
}

proptest! {
    // Most generated statements match fewer rows than `SKIP 3 LIMIT 7`
    // spans, so a window only bites in a fraction of the cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SKIP`/`LIMIT` is the last clause: on every backend, a generated
    /// statement returns its unwindowed rows with `[skip..][..limit]` applied
    /// by hand, and stopping a plain window early never reads or traverses
    /// more than matching everything.
    #[test]
    fn windows_slice_the_unwindowed_rows_and_never_read_more(
        vertex_specs in proptest::collection::vec((0usize..4, 0i64..40), 2..16),
        graph_edges in proptest::collection::vec((0usize..16, 0usize..16, 0usize..3), 0..24),
        node_count in 1usize..4,
        edge_specs in proptest::collection::vec((0usize..4, 0usize..4, 0usize..3), 0..3),
        opt_specs in proptest::collection::vec((0usize..4, 0usize..3), 0..3),
        pred_specs in proptest::collection::vec(
            (0usize..6, 0usize..7, 0usize..4, 0i64..10),
            0..3,
        ),
        flags in 0u8..128,
    ) {
        use pgso::graphstore::{apply_updates, CsrGraph, DiskGraph, DiskGraphConfig, GraphBackend};
        let (stmt, params) = build_statement(node_count, &edge_specs, &opt_specs, &pred_specs, flags);
        let windowed = stmt.bind(&params).expect("generated params bind");
        let mut unwindowed = windowed.clone();
        (unwindowed.skip, unwindowed.limit) = (None, None);
        let count = |term: &Option<CountTerm>| term.as_ref().and_then(CountTerm::count);
        let skip = count(&windowed.skip).unwrap_or(0);
        let limit = count(&windowed.limit).unwrap_or(usize::MAX);

        let memory = spec_graph(&vertex_specs, &graph_edges);
        let csr = CsrGraph::freeze(&memory);
        let dir = tempfile::tempdir().unwrap();
        let store = dir.path().join("graph.store");
        let mut disk = DiskGraph::create(store, DiskGraphConfig::with_pool_pages(2)).unwrap();
        apply_updates(&mut disk, &memory.export_updates().expect("memory graphs export"));
        let backends: [(&str, &dyn GraphBackend); 3] =
            [("memory", &memory), ("csr", &csr), ("disk", &disk)];
        for (name, backend) in backends {
            let all = execute_statement(&unwindowed, backend);
            let window = execute_statement(&windowed, backend);
            let expected: Vec<_> = all.rows.into_iter().skip(skip).take(limit).collect();
            prop_assert_eq!(window.rows, expected, "{} on {}", windowed, name);
            prop_assert!(window.stats.vertex_reads <= all.stats.vertex_reads, "{windowed} on {name}");
            prop_assert!(
                window.stats.edge_traversals <= all.stats.edge_traversals,
                "{windowed} on {name}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The disk-record codec round-trips vertices whose properties cycle
    /// through every `PropertyValue` variant, including `Null` and nested
    /// `List`s, under arbitrary labels.
    #[test]
    fn codec_roundtrips_every_property_value_variant(
        label_seed in 0u64..1_000,
        specs in proptest::collection::vec((0usize..32, -1_000i64..1_000), 0..12),
    ) {
        let mut properties = PropertyMap::new();
        for (i, &(kind, payload)) in specs.iter().enumerate() {
            properties.insert(format!("prop{i}"), value_from_spec(kind, payload, 3));
        }
        let label = format!("Label-{label_seed}-ü");
        let encoded = encode_vertex(&label, &properties);
        let (decoded_label, decoded) = decode_vertex(&encoded).expect("decodes");
        prop_assert_eq!(label, decoded_label);
        prop_assert_eq!(properties, decoded);
    }

    /// The ontology DSL round-trips arbitrary small ontologies built from
    /// generated concept/property/relationship specs.
    #[test]
    fn dsl_roundtrip(
        concept_count in 2usize..8,
        props_per_concept in 0usize..4,
        rel_specs in proptest::collection::vec((0usize..8, 0usize..8, 0usize..3), 0..10),
    ) {
        let mut builder = OntologyBuilder::new("generated");
        let mut ids = Vec::new();
        for i in 0..concept_count {
            let c = builder.add_concept(format!("Concept{i}"));
            for p in 0..props_per_concept {
                builder.add_property(c, format!("prop{p}"), DataType::Str);
            }
            ids.push(c);
        }
        for (a, b, kind) in rel_specs {
            let (a, b) = (a % concept_count, b % concept_count);
            if a == b {
                continue;
            }
            let kind = match kind {
                0 => RelationshipKind::OneToOne,
                1 => RelationshipKind::OneToMany,
                _ => RelationshipKind::ManyToMany,
            };
            builder.add_relationship(format!("rel{a}_{b}"), ids[a], ids[b], kind);
        }
        let ontology = builder.build().expect("generated ontology is structurally valid");
        let text = pgso::ontology::dsl::to_dsl(&ontology);
        let reparsed = pgso::ontology::dsl::parse(&text).expect("emitted DSL parses");
        prop_assert_eq!(ontology, reparsed);
    }
}

/// Deterministic companion to the codec proptest: one record carrying every
/// variant at once (so coverage never depends on the random draws), with a
/// `Null` inside a nested `List` — the exact shape PR 2's tag 5 added.
#[test]
fn codec_roundtrips_all_variants_in_one_record() {
    let mut properties = PropertyMap::new();
    properties.insert("null".into(), PropertyValue::Null);
    properties.insert("bool".into(), PropertyValue::Bool(true));
    properties.insert("int".into(), PropertyValue::Int(i64::MIN));
    properties.insert("float".into(), PropertyValue::Float(-0.0));
    properties.insert("str".into(), PropertyValue::str("Zwiebel–Röstung ✓"));
    properties.insert(
        "list".into(),
        PropertyValue::List(vec![
            PropertyValue::Null,
            PropertyValue::List(vec![PropertyValue::Int(7), PropertyValue::Null]),
            PropertyValue::Bool(false),
            PropertyValue::str(""),
        ]),
    );
    let encoded = encode_vertex("Everything", &properties);
    let (label, decoded) = decode_vertex(&encoded).expect("decodes");
    assert_eq!(label, "Everything");
    assert_eq!(decoded, properties);
}

/// Non-proptest sanity check: the optimizer never produces dangling edges on
/// any catalog ontology under a range of budgets.
#[test]
fn optimized_schemas_are_always_well_formed() {
    for ontology in [catalog::med_mini(), catalog::medical(), catalog::financial()] {
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 1);
        let workload = AccessFrequencies::uniform(&ontology, 1_000.0);
        let input = OptimizerInput::new(&ontology, &stats, &workload);
        let nsc = optimize_nsc(input, &OptimizerConfig::default());
        assert!(nsc.schema.dangling_edges().is_empty(), "{}", ontology.name());
        for divisor in [1, 2, 10, 100] {
            let config = OptimizerConfig::with_space_limit(nsc.total_cost / divisor);
            let result = optimize_pgsg(input, &config);
            assert!(
                result.chosen.schema.dangling_edges().is_empty(),
                "{} at 1/{divisor} budget",
                ontology.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The persisted `WorkloadTracker` counter format round-trips exactly:
    /// encode → decode → restore into a fresh tracker reproduces every
    /// counter (the ROADMAP "persistence of workload stats" contract, now
    /// served by snapshot files and WAL checkpoints).
    #[test]
    fn workload_snapshot_counters_roundtrip(
        concept_seeds in proptest::collection::vec(0u64..1_000_000, 8..9),
        relationship_seeds in proptest::collection::vec(0u64..1_000_000, 8..9),
        property_seeds in proptest::collection::vec((0u32..8, 0u32..12, 1u64..1_000), 0..10),
        total in 0u64..10_000_000,
    ) {
        use pgso::server::{WorkloadSnapshot, WorkloadTracker};
        let ontology = catalog::med_mini();
        let nconcepts = ontology.concept_count();
        let nrels = ontology.relationship_count();
        // Shape arbitrary seed vectors onto the ontology's dimensions.
        let snapshot = WorkloadSnapshot {
            total_queries: total,
            concept_counts: (0..nconcepts)
                .map(|i| concept_seeds[i % concept_seeds.len()].wrapping_add(i as u64))
                .collect(),
            relationship_counts: (0..nrels)
                .map(|i| relationship_seeds[i % relationship_seeds.len()].wrapping_mul(i as u64))
                .collect(),
            property_counts: property_seeds
                .iter()
                .map(|&(r, p, c)| {
                    (
                        (
                            pgso::ontology::RelationshipId::new(r % nrels as u32),
                            pgso::ontology::PropertyId::new(p),
                        ),
                        c,
                    )
                })
                .collect(),
        };
        let bytes = snapshot.to_bytes();
        prop_assert_eq!(&bytes, &snapshot.to_bytes(), "deterministic encoding");
        let decoded = WorkloadSnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &snapshot);
        // Restoring into a live tracker reproduces the counters bit-exactly.
        let tracker = WorkloadTracker::new(&ontology);
        tracker.restore(&decoded);
        prop_assert_eq!(tracker.snapshot(), snapshot);
        // Truncations never decode successfully to a *different* snapshot.
        for cut in [1usize, 7, bytes.len() / 2, bytes.len().saturating_sub(3)] {
            if cut < bytes.len() {
                prop_assert!(WorkloadSnapshot::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }
}

/// Feeds `valid` (which must decode), every truncation of it, and a copy
/// with `flips` applied to `decode`: a decoder answers a value or a typed
/// error for any bytes, and never panics.
fn decoder_is_total(
    what: &str,
    valid: &[u8],
    flips: &[(usize, u8)],
    decode: &dyn Fn(&[u8]) -> bool,
) {
    assert!(decode(valid), "{what}: the valid encoding must decode");
    for cut in 0..valid.len() {
        decode(&valid[..cut]);
    }
    let mut flipped = valid.to_vec();
    for &(at, mask) in flips {
        let at = at % flipped.len();
        flipped[at] ^= mask;
    }
    decode(&flipped);
}

/// A decoder under test: true when the bytes decoded.
type Decoder = Box<dyn Fn(&[u8]) -> bool>;

/// One valid encoding of every byte format the workspace reads back, each
/// paired with its decoder.
fn every_format() -> Vec<(&'static str, Vec<u8>, Decoder)> {
    use pgso::graphstore::codec::{decode_update, encode_update};
    use pgso::net::proto::{decode_request, decode_response, encode_request, encode_response};
    use pgso::net::{ObserveReply, Request, Response, TraceContext, WireTraceEvent};
    use pgso::persist::snapshot::{decode_schema_bytes, encode_schema};
    use pgso::server::{frequencies_from_bytes, frequencies_to_bytes, HealthSummary};
    use pgso::server::{WindowRates, WorkloadSnapshot};
    use pgso::telemetry::FieldValue;

    let nested = PropertyValue::List(vec![
        PropertyValue::Null,
        PropertyValue::List(vec![PropertyValue::Int(-7), PropertyValue::str("ü")]),
        PropertyValue::Float(0.5),
        PropertyValue::Bool(true),
    ]);
    let request = |request: Request| encode_request(&request);
    let response = |response: Response| encode_response(&response);
    let registry = MetricsRegistry::new();
    registry.counter("net.requests").add(3);
    registry.gauge("drift").set(0.25);
    [1u64, 900, 1 << 40].iter().for_each(|&v| registry.histogram("query.latency").record(v));
    let messages = [
        request(Request::Execute {
            handle: 3,
            params: Params::new().set("needle", "ol").set("list", nested.clone()),
            trace: Some(TraceContext { trace_id: 9, parent_span: 1 }),
        }),
        request(Request::Prepare {
            handle: 1,
            text: "MATCH (d:Drug) RETURN d".into(),
            trace: None,
        }),
        request(Request::Use { tenant: "alpha".into() }),
        response(Response::Rows {
            rows: vec![vec![PropertyValue::str("a"), nested.clone()], vec![PropertyValue::Null]],
        }),
        response(Response::Observe(ObserveReply::MetricsSnapshot(registry.snapshot()))),
        response(Response::Observe(ObserveReply::Trace(vec![WireTraceEvent {
            seq: 1,
            at: std::time::Duration::from_micros(5),
            span_id: 9,
            name: "server.serve".into(),
            duration: Some(std::time::Duration::from_nanos(70)),
            fields: vec![
                ("rows".into(), FieldValue::U64(2)),
                ("fp".into(), FieldValue::Str("x".into())),
            ],
        }]))),
        response(Response::Observe(ObserveReply::Health(HealthSummary {
            served: 4,
            epoch: 1,
            schema_generation: 1,
            drift: 0.5,
            windows: [WindowRates::default(); 3],
            trace_dropped: 0,
        }))),
        response(Response::Error { code: pgso::net::ErrorCode::Parse, message: "no".into() }),
    ];
    let mut formats: Vec<(&'static str, Vec<u8>, Decoder)> = Vec::new();
    for (op, payload) in messages {
        // Requests and responses share no opcode, so each side only accepts
        // its own frames; both decoders run on every payload.
        formats.push((
            "wire message",
            payload,
            Box::new(move |bytes| {
                decode_request(op, bytes).is_ok() | decode_response(op, bytes).is_ok()
            }),
        ));
    }
    for update in [
        GraphUpdate::AddVertex {
            label: "Drug".into(),
            properties: props([("name", "Aspirin".into()), ("mix", nested.clone())]),
        },
        GraphUpdate::AddEdge {
            label: "treat".into(),
            src: pgso::graphstore::VertexId(0),
            dst: pgso::graphstore::VertexId(1),
        },
    ] {
        formats.push((
            "update record",
            encode_update(&update),
            Box::new(|b| decode_update(b).is_ok()),
        ));
    }

    let ontology = catalog::med_mini();
    let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), 3);
    let frequencies = AccessFrequencies::uniform(&ontology, 1_000.0);
    let schema = optimize_nsc(
        OptimizerInput::new(&ontology, &stats, &frequencies),
        &OptimizerConfig::default(),
    )
    .schema;
    formats.push(("schema", encode_schema(&schema), Box::new(|b| decode_schema_bytes(b).is_ok())));
    let tracker = WorkloadSnapshot {
        total_queries: 5,
        concept_counts: vec![1; ontology.concept_count()],
        relationship_counts: vec![2; ontology.relationship_count()],
        property_counts: [(
            (pgso::ontology::RelationshipId::new(0), pgso::ontology::PropertyId::new(0)),
            3,
        )]
        .into_iter()
        .collect(),
    };
    formats.push((
        "tracker blob",
        tracker.to_bytes(),
        Box::new(|b| WorkloadSnapshot::from_bytes(b).is_ok()),
    ));
    let baseline = frequencies_to_bytes(&ontology, &frequencies);
    formats.push((
        "frequencies blob",
        baseline,
        Box::new(move |b| frequencies_from_bytes(&ontology, b).is_ok()),
    ));
    formats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every decoder of bytes that come from outside the process — wire
    /// frames, update records, the snapshot schema, the tracker and
    /// frequencies blobs, a WAL file — is total over truncations and byte
    /// flips of a valid encoding.
    #[test]
    fn decoders_never_panic_on_truncated_or_flipped_bytes(
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..6),
    ) {
        for (what, valid, decode) in every_format() {
            decoder_is_total(what, &valid, &flips, decode.as_ref());
        }

        use pgso::persist::{read_wal, WalRecord, WalWriter};
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer
            .append(&[
                WalRecord::Update(GraphUpdate::AddVertex {
                    label: "Drug".into(),
                    properties: props([("name", "Aspirin".into())]),
                }),
                WalRecord::Prepared("MATCH (d:Drug) RETURN d.name".into()),
                WalRecord::TrackerCheckpoint(vec![1, 2, 3]),
            ])
            .unwrap();
        let valid = std::fs::read(&path).unwrap();
        let probe = dir.path().join("probe.log");
        decoder_is_total("WAL file", &valid, &flips, &|bytes| {
            std::fs::write(&probe, bytes).unwrap();
            read_wal(&probe).is_ok()
        });
    }
}
