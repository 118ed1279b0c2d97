//! The loader writes only what the schema allows: MED at scale 0.5 and FIN
//! at 0.1 (the graphs `paper_micro` serves), each under the direct schema
//! and the optimizer's, load into graphs the structural validator finds
//! nothing wrong with — every vertex label a vertex type, every edge an
//! edge type, every key declared with its declared scalar or LIST shape.

use pgso_core::{optimize_nsc, OptimizerConfig, OptimizerInput};
use pgso_datagen::{load_into, validate, InstanceKg};
use pgso_graphstore::{GraphBackend, MemoryGraph};
use pgso_ontology::{
    catalog, AccessFrequencies, DataStatistics, StatisticsConfig, WorkloadDistribution,
};
use pgso_pgschema::PropertyGraphSchema;

#[test]
fn loaded_graphs_conform_to_their_schemas() {
    const SEED: u64 = 42;
    for (ontology, scale) in [(catalog::medical(), 0.5), (catalog::financial(), 0.1)] {
        let stats = DataStatistics::synthesize(&ontology, &StatisticsConfig::default(), SEED);
        let frequencies =
            AccessFrequencies::generate(&ontology, WorkloadDistribution::Uniform, 10_000.0, SEED);
        let instance = InstanceKg::generate(&ontology, &stats, scale, SEED);
        let direct = PropertyGraphSchema::direct_from_ontology(&ontology);
        let input = OptimizerInput::new(&ontology, &stats, &frequencies);
        let optimized = optimize_nsc(input, &OptimizerConfig::default()).schema;
        for (name, schema) in [("DIR", &direct), ("OPT", &optimized)] {
            let mut graph = MemoryGraph::new();
            load_into(&mut graph, &ontology, schema, &instance);
            let elements = graph.vertex_count() + graph.edge_count();
            assert!(
                elements > 10_000,
                "{} {name}: a graph of {elements} elements",
                ontology.name()
            );
            let violations = validate(&graph, schema);
            assert!(
                violations.is_empty(),
                "{} {name}: {} violations over {elements} elements, first {}",
                ontology.name(),
                violations.len(),
                violations[0]
            );
        }
    }
}
