//! Epoch snapshot files: one self-contained image of the served world.
//!
//! A snapshot captures everything [`recover`](fn@crate::recover) needs to
//! resurrect a serving epoch without re-deriving it from synthetic instance
//! data:
//!
//! * the **schema** the epoch serves (the optimizer's output — losing it
//!   would mean re-optimizing from scratch on restart);
//! * the **graph**, serialized as its *construction journal*: the ordered
//!   [`GraphUpdate`] sequence that built it. Backends assign dense
//!   sequential ids, so replaying the journal into any empty backend —
//!   [`MemoryGraph`](pgso_graphstore::MemoryGraph),
//!   [`CsrGraph`](pgso_graphstore::CsrGraph) or
//!   [`DiskGraph`](pgso_graphstore::DiskGraph) — reproduces the exact ids,
//!   orderings and row sets of the original, which is why one format covers
//!   every storage layout;
//! * the **workload tracker counters** and the **baseline frequencies** the
//!   schema was optimized for, stored as opaque blobs owned by the serving
//!   layer, so a restart resumes with the learned workload instead of
//!   uniform assumptions.
//!
//! # File layout
//!
//! In the primitive grammar of [`pgso_graphstore::codec`] (integers
//! little-endian; `str16`, `str32`, `blob32` and `count` as defined there):
//!
//! ```text
//! snapshot := magic "PGSOSNP1", u64 body_len, u32 crc32 (over body), body
//! body     := u16 version, u64 epoch, u64 schema_generation, u32 shard_count,
//!             schema, journal(base), journal(ingested), blob32(tracker),
//!             blob32(baseline), prepared
//! schema   := str16 name, count { str16 label, u16 nmerged str16*,
//!             u16 nprops prop* }, count { str16 label, str16 src,
//!             str16 dst, u8 kind }
//! prop     := str16 name, u8 data_type, u8 is_list, u8 has_origin
//!             [, str16 concept, str16 property]
//! journal  := count, blob32(update record)*         (graphstore codec)
//! prepared := count, str32(statement text)*
//! ```
//!
//! Snapshots are written to a temporary file, fsynced, then atomically
//! renamed into place: a crash mid-write leaves the previous generation
//! intact and the torn temporary is ignored by recovery.

use pgso_graphstore::codec::{
    decode_update, encode_update, put_blob32, put_count, put_len16, put_str16, put_str32, put_u16,
    put_u32, put_u64, put_u8, Reader,
};
use pgso_graphstore::GraphUpdate;
use pgso_ontology::{DataType, RelationshipKind};
use pgso_pgschema::{
    EdgeSchema, PropertyGraphSchema, PropertyOrigin, PropertySchema, VertexSchema,
};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::wal::crc32;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PGSOSNP1";

/// Current snapshot body version. Version 2 added the prepared-statement
/// registry (`prepared`); version 3 writes the embedded graph-update records
/// little-endian. Other versions are rejected rather than misread.
pub const SNAPSHOT_VERSION: u16 = 3;

/// One recoverable image of a serving epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Epoch number the image was taken at.
    pub epoch: u64,
    /// Schema generation of that epoch (plan-cache key; ingest swaps bump
    /// the epoch but not the schema generation).
    pub schema_generation: u64,
    /// Recorded, not interpreted; always 1. Servers that partitioned their
    /// epochs wrote their shard count here, and recovery ignores the value.
    pub shard_count: u32,
    /// The optimized schema the epoch serves.
    pub schema: PropertyGraphSchema,
    /// Construction journal of the epoch's **base load** (the schema-driven
    /// materialisation of the instance data, before any ingested update).
    /// Kept separate from [`Snapshot::ingested`] so a schema re-optimization
    /// can rebuild the base under the new schema and replay the ingested
    /// stream on top.
    pub journal: Vec<GraphUpdate>,
    /// Updates ingested (and published into the serving epoch) after the
    /// base load, in ingest order. The epoch's graph is
    /// `journal ++ ingested`.
    pub ingested: Vec<GraphUpdate>,
    /// Opaque workload-tracker counter blob (owned by `pgso-server`).
    pub tracker: Vec<u8>,
    /// Opaque baseline access-frequencies blob (owned by `pgso-server`).
    pub baseline: Vec<u8>,
    /// Prepared-statement registry in registration order: each entry is a
    /// statement's text form (round-trips through the query parser), so a
    /// recovered server re-prepares them and hands out the *same* dense
    /// prepared ids — parameter signatures included.
    pub prepared: Vec<String>,
}

/// Canonical snapshot file path for a generation: `snapshot-{gen:010}.snap`.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:010}.snap"))
}

/// Canonical WAL file path for a generation: `wal-{gen:010}.log`.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:010}.log"))
}

/// Parses the generation out of a `snapshot-*.snap` / `wal-*.log` file name.
pub(crate) fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt snapshot: {what}"))
}

// ---- schema codec ----------------------------------------------------------

fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Long => 2,
        DataType::Double => 3,
        DataType::Date => 4,
        DataType::Str => 5,
        DataType::Text => 6,
    }
}

fn data_type_from_tag(tag: u8) -> io::Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Long,
        3 => DataType::Double,
        4 => DataType::Date,
        5 => DataType::Str,
        6 => DataType::Text,
        _ => return Err(corrupt("unknown data type tag")),
    })
}

fn kind_tag(kind: RelationshipKind) -> u8 {
    match kind {
        RelationshipKind::OneToOne => 0,
        RelationshipKind::OneToMany => 1,
        RelationshipKind::ManyToMany => 2,
        RelationshipKind::Inheritance => 3,
        RelationshipKind::Union => 4,
    }
}

fn kind_from_tag(tag: u8) -> io::Result<RelationshipKind> {
    Ok(match tag {
        0 => RelationshipKind::OneToOne,
        1 => RelationshipKind::OneToMany,
        2 => RelationshipKind::ManyToMany,
        3 => RelationshipKind::Inheritance,
        4 => RelationshipKind::Union,
        _ => return Err(corrupt("unknown relationship kind tag")),
    })
}

fn put_schema(buf: &mut Vec<u8>, schema: &PropertyGraphSchema) {
    put_str16(buf, &schema.name);
    put_count(buf, schema.vertices().count());
    for vertex in schema.vertices() {
        put_str16(buf, &vertex.label);
        put_len16(buf, vertex.merged_from.len());
        for concept in &vertex.merged_from {
            put_str16(buf, concept);
        }
        put_len16(buf, vertex.properties.len());
        for prop in &vertex.properties {
            put_str16(buf, &prop.name);
            put_u8(buf, data_type_tag(prop.data_type));
            put_u8(buf, u8::from(prop.is_list));
            match &prop.origin {
                Some(origin) => {
                    put_u8(buf, 1);
                    put_str16(buf, &origin.concept);
                    put_str16(buf, &origin.property);
                }
                None => put_u8(buf, 0),
            }
        }
    }
    put_count(buf, schema.edges().count());
    for edge in schema.edges() {
        put_str16(buf, &edge.label);
        put_str16(buf, &edge.src);
        put_str16(buf, &edge.dst);
        put_u8(buf, kind_tag(edge.kind));
    }
}

/// Encodes a schema into the snapshot body format (also usable on its own,
/// e.g. to ship a schema between processes).
pub fn encode_schema(schema: &PropertyGraphSchema) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    put_schema(&mut buf, schema);
    buf
}

fn read_str(r: &mut Reader<'_>) -> io::Result<String> {
    Ok(r.str16()?.to_owned())
}

fn read_schema(r: &mut Reader<'_>) -> io::Result<PropertyGraphSchema> {
    let mut schema = PropertyGraphSchema::new(read_str(r)?);
    // A vertex is at least its label, nmerged and nprops (2 bytes each).
    for _ in 0..r.count(6)? {
        let label = read_str(r)?;
        let merged_from = (0..r.u16()?).map(|_| read_str(r)).collect::<io::Result<_>>()?;
        let mut properties = Vec::new();
        for _ in 0..r.u16()? {
            let name = read_str(r)?;
            let data_type = data_type_from_tag(r.u8()?)?;
            let is_list = r.u8()? != 0;
            let origin = match r.u8()? {
                0 => None,
                1 => Some(PropertyOrigin::new(read_str(r)?, read_str(r)?)),
                _ => return Err(corrupt("bad origin flag")),
            };
            properties.push(PropertySchema { name, data_type, is_list, origin });
        }
        schema.insert_vertex(VertexSchema { label, properties, merged_from });
    }
    // An edge is at least three str16 prefixes and its kind byte.
    for _ in 0..r.count(7)? {
        let (label, src, dst) = (read_str(r)?, read_str(r)?, read_str(r)?);
        let kind = kind_from_tag(r.u8()?)?;
        schema.add_edge(EdgeSchema { label, src, dst, kind });
    }
    Ok(schema)
}

/// Decodes a schema produced by [`encode_schema`].
pub fn decode_schema_bytes(bytes: &[u8]) -> io::Result<PropertyGraphSchema> {
    let mut r = Reader::new(bytes);
    let schema = read_schema(&mut r)?;
    r.finish()?;
    Ok(schema)
}

// ---- snapshot file I/O -----------------------------------------------------

fn put_journal(body: &mut Vec<u8>, journal: &[GraphUpdate]) {
    put_count(body, journal.len());
    for update in journal {
        put_blob32(body, &encode_update(update));
    }
}

fn read_journal(r: &mut Reader<'_>) -> io::Result<Vec<GraphUpdate>> {
    // A record is its blob32 prefix plus at least its tag byte.
    let count = r.count(5)?;
    let mut journal = Vec::with_capacity(count);
    for _ in 0..count {
        journal.push(decode_update(r.blob32()?)?);
    }
    Ok(journal)
}

fn encode_body(snapshot: &Snapshot) -> Vec<u8> {
    let mut body =
        Vec::with_capacity((snapshot.journal.len() + snapshot.ingested.len()) * 64 + 4096);
    put_u16(&mut body, SNAPSHOT_VERSION);
    put_u64(&mut body, snapshot.epoch);
    put_u64(&mut body, snapshot.schema_generation);
    put_u32(&mut body, snapshot.shard_count);
    put_schema(&mut body, &snapshot.schema);
    put_journal(&mut body, &snapshot.journal);
    put_journal(&mut body, &snapshot.ingested);
    put_blob32(&mut body, &snapshot.tracker);
    put_blob32(&mut body, &snapshot.baseline);
    put_count(&mut body, snapshot.prepared.len());
    for text in &snapshot.prepared {
        put_str32(&mut body, text);
    }
    body
}

fn decode_body(body: &[u8]) -> io::Result<Snapshot> {
    let mut r = Reader::new(body);
    let version = r.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(&format!("unsupported snapshot version {version}")));
    }
    let snapshot = Snapshot {
        epoch: r.u64()?,
        schema_generation: r.u64()?,
        shard_count: r.u32()?,
        schema: read_schema(&mut r)?,
        journal: read_journal(&mut r)?,
        ingested: read_journal(&mut r)?,
        tracker: r.blob32()?.to_vec(),
        baseline: r.blob32()?.to_vec(),
        prepared: {
            let count = r.count(4)?;
            let mut prepared = Vec::with_capacity(count);
            for _ in 0..count {
                prepared.push(r.str32()?.to_owned());
            }
            prepared
        },
    };
    r.finish()?;
    Ok(snapshot)
}

/// Writes a snapshot atomically and durably: temporary file, fsync, rename,
/// then fsync of the parent **directory** — without the last step the rename
/// is unordered metadata, and a power failure could persist a later
/// `prune_generations` unlink while losing the rename, leaving no valid
/// snapshot at all. Returns the file size in bytes (header + body), which
/// the serving layer's telemetry reports as the snapshot size.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> io::Result<u64> {
    let body = encode_body(snapshot);
    let mut header = SNAPSHOT_MAGIC.to_vec();
    put_u64(&mut header, body.len() as u64);
    put_u32(&mut header, crc32(&body));
    let tmp = path.with_extension("snap.tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(&body)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directories open read-only; sync_all on the handle flushes the
        // entry metadata (the rename) to disk.
        File::open(dir)?.sync_all()?;
    }
    Ok((header.len() + body.len()) as u64)
}

/// Reads and validates a snapshot file.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] for a missing magic, a short body, a CRC
/// mismatch, or an undecodable body — recovery treats any of these as "this
/// generation's snapshot never completed" and falls back to the previous one.
pub fn read_snapshot(path: &Path) -> io::Result<Snapshot> {
    let data = std::fs::read(path)?;
    let mut r = Reader::new(&data);
    if r.bytes(SNAPSHOT_MAGIC.len()) != Ok(&SNAPSHOT_MAGIC[..]) {
        return Err(corrupt("missing snapshot magic"));
    }
    let body_len = r.u64()?;
    let crc = r.u32()?;
    let body = r.bytes(usize::try_from(body_len).unwrap_or(usize::MAX))?;
    r.finish()?;
    if crc32(body) != crc {
        return Err(corrupt("snapshot crc mismatch"));
    }
    decode_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::{props, VertexId};

    fn sample_schema() -> PropertyGraphSchema {
        let mut schema = PropertyGraphSchema::new("med-opt");
        let mut drug = VertexSchema::new("Drug");
        drug.properties.push(PropertySchema::scalar("name", DataType::Str));
        drug.properties.push(
            PropertySchema::list("Indication.desc", DataType::Text)
                .with_origin(PropertyOrigin::new("Indication", "desc")),
        );
        schema.insert_vertex(drug);
        let mut merged = VertexSchema::new("IndicationCondition");
        merged.merged_from = vec!["Indication".into(), "Condition".into()];
        merged.properties.push(PropertySchema::scalar("desc", DataType::Text));
        schema.insert_vertex(merged);
        schema.add_edge(EdgeSchema::new(
            "treat",
            "Drug",
            "IndicationCondition",
            RelationshipKind::OneToMany,
        ));
        schema
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            epoch: 7,
            schema_generation: 3,
            shard_count: 4,
            schema: sample_schema(),
            journal: vec![
                GraphUpdate::AddVertex {
                    label: "Drug".into(),
                    properties: props([("name", "Aspirin".into())]),
                },
                GraphUpdate::AddVertex {
                    label: "IndicationCondition".into(),
                    properties: props([("desc", "Fever".into())]),
                },
                GraphUpdate::AddEdge { label: "treat".into(), src: VertexId(0), dst: VertexId(1) },
            ],
            ingested: vec![GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: props([("name", "Ibuprofen".into())]),
            }],
            tracker: vec![9, 9, 9],
            baseline: vec![1, 2],
            prepared: vec![
                "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n".into()
            ],
        }
    }

    #[test]
    fn schema_roundtrips() {
        let schema = sample_schema();
        let decoded = decode_schema_bytes(&encode_schema(&schema)).unwrap();
        assert_eq!(decoded, schema);
    }

    #[test]
    fn snapshot_roundtrips_through_a_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = snapshot_path(dir.path(), 2);
        let snapshot = sample_snapshot();
        write_snapshot(&path, &snapshot).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snapshot);
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("snapshot-"));
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_panicked_on() {
        let dir = tempfile::tempdir().unwrap();
        let path = snapshot_path(dir.path(), 0);
        write_snapshot(&path, &sample_snapshot()).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated at every 97th byte (a full sweep is slow for nothing).
        for cut in (0..good.len()).step_by(97) {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut at {cut} must fail validation");
        }
        // Bit flip in the body.
        let mut flipped = good.clone();
        let mid = 20 + (flipped.len() - 20) / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(read_snapshot(&path).is_err(), "crc must catch a body flip");
        // Not a snapshot at all.
        std::fs::write(&path, b"plain text").unwrap();
        assert!(read_snapshot(&path).is_err());
    }

    #[test]
    fn impossible_body_lengths_and_old_versions_are_invalid_data() {
        let dir = tempfile::tempdir().unwrap();
        let path = snapshot_path(dir.path(), 0);
        // A header claiming a u64::MAX body (an overflow panic while the
        // envelope was sliced by hand).
        let mut file = SNAPSHOT_MAGIC.to_vec();
        put_u64(&mut file, u64::MAX);
        put_u32(&mut file, 0);
        std::fs::write(&path, &file).unwrap();
        assert_eq!(read_snapshot(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // A well-formed envelope around a version-2 body (big-endian records).
        let mut body = encode_body(&sample_snapshot());
        body[..2].copy_from_slice(&2u16.to_le_bytes());
        let mut file = SNAPSHOT_MAGIC.to_vec();
        put_u64(&mut file, body.len() as u64);
        put_u32(&mut file, crc32(&body));
        file.extend_from_slice(&body);
        std::fs::write(&path, &file).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn generation_paths_parse_back() {
        let dir = Path::new("/tmp/x");
        let snap = snapshot_path(dir, 42);
        let wal = wal_path(dir, 42);
        assert_eq!(
            parse_generation(snap.file_name().unwrap().to_str().unwrap(), "snapshot-", ".snap"),
            Some(42)
        );
        assert_eq!(
            parse_generation(wal.file_name().unwrap().to_str().unwrap(), "wal-", ".log"),
            Some(42)
        );
        assert_eq!(parse_generation("snapshot-x.snap", "snapshot-", ".snap"), None);
    }
}
