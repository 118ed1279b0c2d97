//! What the workloads share: the seeded generator, the MED scale-ladder
//! server, the seven statement classes and their per-request parameters.
//!
//! Graphs never depend on `--seed` (they, and the update stream that grows
//! them, are built from [`GRAPH_SEED`]), so exact-count metrics repeat across
//! seeds; the seed drives the parameter values of the requests.

use pgso_datagen::{load_into, ScaleLadder};
use pgso_graphstore::MemoryGraph;
use pgso_ontology::{catalog, AccessFrequencies, DataStatistics, Ontology, StatisticsConfig};
use pgso_persist::{JournaledGraph, PersistConfig};
use pgso_query::Params;
use pgso_server::{IngestConfig, KgServer, PreparedStatement, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

pub const GRAPH_SEED: u64 = 42;
/// One ladder chunk: about 7.5k vertices / 12.8k edges of the medical catalog.
pub const LADDER_BASE_SCALE: f64 = 3.3;

/// splitmix64 — the benchmark's only randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One statement class of the serving workloads.
pub struct Class {
    pub name: &'static str,
    pub text: &'static str,
}

/// Point lookup, one hop, selective LIMIT, top-k (ORDER BY defeats early
/// stop), full scan, grouped aggregation, OPTIONAL with a window — the split
/// ROADMAP asks for, so an index shows on `point`/`hop`, LIMIT early-stop on
/// `limit` but not `topk`, borrow-not-allocate on `scan`.
pub const CLASSES: [Class; 7] = [
    Class { name: "point", text: "MATCH (d:Drug) WHERE d.name = $name RETURN d.name" },
    Class {
        name: "hop",
        text: "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name = $name RETURN i.desc",
    },
    Class {
        name: "limit",
        text: "MATCH (p:Patient)-[:hasEncounter]->(e:Encounter) RETURN e.encounterId LIMIT $n",
    },
    Class {
        name: "topk",
        text: "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n",
    },
    Class { name: "scan", text: "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc" },
    Class {
        name: "agg",
        text: "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, count(i) GROUP BY d",
    },
    Class {
        name: "optional",
        text: "MATCH (p:Patient) OPTIONAL MATCH (p)-[:hasEncounter]->(e:Encounter) \
               WHERE p.mrn CONTAINS $needle RETURN p.mrn, e.encounterId SKIP $offset LIMIT $n",
    },
];

/// The classes whose engine work is small (`point`, `hop`, `limit`).
pub const SMALL_CLASSES: [usize; 3] = [0, 1, 2];

/// Values the `$name` parameters are drawn from: names that exist.
pub struct ParamPool {
    drug_names: Vec<String>,
}

impl ParamPool {
    /// Reads the distinct drug names back through the server itself.
    pub fn from_server(server: &KgServer) -> Self {
        let result =
            server.serve_text("MATCH (d:Drug) RETURN d.name").expect("pool statement parses");
        let mut drug_names: Vec<String> =
            result.rows.iter().filter_map(|r| r[0].as_str().map(str::to_string)).collect();
        drug_names.sort();
        drug_names.dedup();
        assert!(!drug_names.is_empty(), "the graph holds no drugs");
        Self { drug_names }
    }

    /// Parameters for one request of `class`, varied per request.
    pub fn params(&self, class: usize, rng: &mut Rng) -> Params {
        match CLASSES[class].name {
            "point" | "hop" => {
                Params::new().set("name", self.drug_names[rng.below(self.drug_names.len())].clone())
            }
            "limit" => Params::new().set("n", 1 + rng.below(16) as i64),
            "topk" => Params::new()
                .set("needle", format!("name_{}", 1 + rng.below(9)))
                .set("n", 1 + rng.below(16) as i64),
            "optional" => Params::new()
                .set("needle", format!("{}", rng.below(10)))
                .set("offset", rng.below(3) as i64)
                .set("n", 4 + rng.below(12) as i64),
            _ => Params::new(),
        }
    }
}

/// The medical catalog with the small seeded statistics every serving
/// fixture uses.
pub fn med_parts() -> (Ontology, DataStatistics) {
    let ontology = catalog::medical();
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), GRAPH_SEED);
    (ontology, statistics)
}

/// Nothing is timer- or size-triggered: publication happens only on an
/// explicit `flush_ingest`, and the schema is never re-optimized mid-run.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        auto_reoptimize: false,
        ingest: IngestConfig {
            publish_batch: usize::MAX,
            publish_interval: Duration::from_secs(3600),
        },
        ..ServerConfig::default()
    }
}

/// Builds a server holding MED ladder rung `rung`, the way the serving bench
/// does: the base chunk through construction, the chunks above it through
/// the ingest path (one staged batch, one epoch swap).
pub fn med_server(rung: usize, config: ServerConfig, persist: Option<PersistConfig>) -> KgServer {
    let (ontology, statistics) = med_parts();
    let ladder = ScaleLadder::generate(&ontology, &statistics, LADDER_BASE_SCALE, GRAPH_SEED, rung);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    let base = ladder.base_chunk().clone();
    let server = match persist {
        None => KgServer::new(ontology.clone(), statistics, base, frequencies, config),
        Some(p) => {
            KgServer::new_persistent(ontology.clone(), statistics, base, frequencies, config, p)
                .expect("persistent server builds in an empty directory")
        }
    };
    if rung > 1 {
        let schema = server.current_epoch().schema.clone();
        let mut scratch = JournaledGraph::new(MemoryGraph::new());
        load_into(&mut scratch, &ontology, &schema, ladder.base_chunk());
        let prefix_len = scratch.journal().len();
        for chunk in ladder.chunks_above_base(rung) {
            load_into(&mut scratch, &ontology, &schema, chunk);
        }
        server.ingest(scratch.journal()[prefix_len..].to_vec()).expect("ladder suffix ingests");
        assert!(server.flush_ingest(), "ladder suffix publishes in one swap");
    }
    server
}

/// Prepares `classes` (indices into [`CLASSES`]) on `server`.
pub fn prepare(server: &KgServer, classes: &[usize]) -> Vec<PreparedStatement> {
    classes
        .iter()
        .map(|&c| server.prepare_text(CLASSES[c].text).expect("class statement prepares"))
        .collect()
}

/// `benchmark/out/` — the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

/// A fresh scratch directory under `benchmark/out/`, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..32).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| rng.below(16) < 16));
    }

    #[test]
    fn params_are_a_function_of_the_seed() {
        let pool = ParamPool { drug_names: (0..50).map(|i| format!("Drug_name_{i}")).collect() };
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..70).map(|i| format!("{:?}", pool.params(i % 7, &mut rng))).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
    }

    #[test]
    fn update_stream_is_a_function_of_the_seed() {
        use pgso_datagen::{streaming_updates, UpdateStreamConfig};
        let server = med_server(1, server_config(), None);
        let epoch = server.current_epoch();
        let stream = |seed| {
            streaming_updates(
                server.ontology(),
                &epoch.schema,
                epoch.graph(),
                64,
                seed,
                &UpdateStreamConfig::default(),
            )
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(7));
    }

    #[test]
    fn every_class_prepares_and_binds_its_generated_params() {
        let server = med_server(1, server_config(), None);
        let pool = ParamPool::from_server(&server);
        let handles = prepare(&server, &[0, 1, 2, 3, 4, 5, 6]);
        let mut rng = Rng::new(42);
        for (class, handle) in handles.iter().enumerate() {
            let result = server.execute(handle, &pool.params(class, &mut rng));
            assert!(result.is_ok(), "{}: {result:?}", CLASSES[class].name);
        }
        let point = server.execute(&handles[0], &pool.params(0, &mut Rng::new(3))).unwrap();
        assert!(!point.rows.is_empty(), "a drawn name must exist in the graph");
    }
}
