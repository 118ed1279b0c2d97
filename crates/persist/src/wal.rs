//! The write-ahead log: CRC-framed mutation records with fsync-batched
//! group commit.
//!
//! # File layout
//!
//! In the primitive grammar of [`pgso_graphstore::codec`] (integers
//! little-endian; `blob32` and `str32` as defined there):
//!
//! ```text
//! wal      := magic frame*
//! magic    := "PGSOWAL2" (8 bytes)
//! frame    := u32 payload_len, u32 crc32 (IEEE, over payload), payload
//! payload  := update | checkpoint | prepared
//! update   := graphstore update record (tag 0 = add-vertex, 1 = add-edge,
//!             see pgso_graphstore::codec)
//! checkpoint := u8 tag 2, blob32(tracker counters)
//! prepared := u8 tag 3, str32(statement text)
//! ```
//!
//! `AddVertex` payloads are byte-identical to the disk backend's vertex
//! records ([`pgso_graphstore::codec::encode_vertex`]) — the WAL reuses the
//! graphstore codec rather than inventing a second serialization.
//!
//! # Durability contract
//!
//! [`WalWriter::append`] is the **group commit**: all records of one call are
//! framed into a single buffer, written with one `write(2)` and — when the
//! writer was opened with `fsync` — made durable with one `fdatasync`. A
//! caller batching K updates per append therefore pays one disk sync per
//! batch, not per record.
//!
//! # Torn writes
//!
//! A crash can leave the file ending in a partial frame (short header, short
//! payload, or a payload whose CRC does not match). [`read_wal`] stops at the
//! first invalid frame and reports everything before it plus
//! [`WalReadOutcome::truncated`] — it never panics on a torn tail and never
//! yields a partial record.

use pgso_graphstore::codec::{
    decode_update, encode_update, put_blob32, put_count, put_u32, put_u8, DecodeError, Reader,
};
use pgso_graphstore::GraphUpdate;
use pgso_telemetry::{Counter, Histogram, MetricsRegistry};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Handles to the WAL's metrics, pre-resolved so the append path never
/// touches the registry. Cheap to clone (all `Arc`s); attach one to a
/// [`WalWriter`] with [`WalWriter::set_telemetry`] — rotation can hand the
/// same handle set to each successor writer, keeping one continuous series
/// per serving directory.
#[derive(Debug, Clone)]
pub struct WalTelemetry {
    /// `wal.append` — wall time of one group commit's `write(2)`, ns.
    pub append: Arc<Histogram>,
    /// `wal.fsync` — wall time of one group commit's `fdatasync`, ns
    /// (recorded only when the writer is in fsync mode).
    pub fsync: Arc<Histogram>,
    /// `wal.batch_records` — records per group-commit batch.
    pub batch_records: Arc<Histogram>,
    /// `wal.appends` — group commits performed.
    pub appends: Arc<Counter>,
    /// `wal.appended_bytes` — framed bytes written.
    pub appended_bytes: Arc<Counter>,
}

impl WalTelemetry {
    /// Resolves (registering on first use) the WAL instruments in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self::register_prefixed(registry, "")
    }

    /// [`WalTelemetry::register`] with every name prefixed (for example
    /// `tenant.alpha.wal.append`), so multiple WALs sharing one registry —
    /// one per tenant under a multi-tenant host — keep distinct series.
    pub fn register_prefixed(registry: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            append: registry.histogram(&format!("{prefix}wal.append")),
            fsync: registry.histogram(&format!("{prefix}wal.fsync")),
            batch_records: registry.histogram(&format!("{prefix}wal.batch_records")),
            appends: registry.counter(&format!("{prefix}wal.appends")),
            appended_bytes: registry.counter(&format!("{prefix}wal.appended_bytes")),
        }
    }
}

/// Magic bytes opening every WAL file. `PGSOWAL1` logs wrote their update
/// records big-endian; they are refused, not misread.
pub const WAL_MAGIC: [u8; 8] = *b"PGSOWAL2";

/// Payload kind tag of a tracker-checkpoint record (graph updates use the
/// graphstore codec tags 0 and 1).
pub const RECORD_TAG_CHECKPOINT: u8 = 2;

/// Payload kind tag of a prepared-statement registration record.
pub const RECORD_TAG_PREPARED: u8 = 3;

/// Upper bound on a single frame payload; a torn header yielding a larger
/// length is rejected as truncation instead of attempting a huge allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3) over a byte slice; the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A graph mutation (the ingest stream).
    Update(GraphUpdate),
    /// An opaque workload-tracker counter checkpoint; the serving layer
    /// appends one per ingest batch so recovery resumes with the learned
    /// frequencies, not just the graph. Replay semantics: the *last*
    /// checkpoint wins.
    TrackerCheckpoint(Vec<u8>),
    /// A prepared-statement registration: the statement's text form (its
    /// `Display` rendering, which round-trips through the query parser).
    /// Replayed in order on recovery, so prepared-statement ids — dense
    /// registration indices — and their parameter signatures survive a
    /// restart.
    Prepared(String),
}

fn encode_blob_record(tag: u8, blob: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(blob.len() + 5);
    put_u8(&mut payload, tag);
    put_blob32(&mut payload, blob);
    payload
}

fn encode_record(record: &WalRecord) -> Vec<u8> {
    match record {
        WalRecord::Update(update) => encode_update(update),
        WalRecord::TrackerCheckpoint(blob) => encode_blob_record(RECORD_TAG_CHECKPOINT, blob),
        WalRecord::Prepared(text) => encode_blob_record(RECORD_TAG_PREPARED, text.as_bytes()),
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        RECORD_TAG_CHECKPOINT => WalRecord::TrackerCheckpoint(r.blob32()?.to_vec()),
        RECORD_TAG_PREPARED => WalRecord::Prepared(r.str32()?.to_owned()),
        _ => return decode_update(payload).map(WalRecord::Update),
    };
    r.finish()?;
    Ok(record)
}

/// Reads one CRC-validated frame.
fn read_frame(r: &mut Reader<'_>) -> Result<WalRecord, DecodeError> {
    let len = r.u32()?;
    let crc = r.u32()?;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(DecodeError("frame length out of range"));
    }
    let payload = r.bytes(len as usize)?;
    if crc32(payload) != crc {
        return Err(DecodeError("frame crc mismatch"));
    }
    decode_record(payload)
}

/// Appending side of the log; see the module docs for the durability
/// contract.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
    fsync: bool,
    telemetry: Option<WalTelemetry>,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and writes the magic header.
    /// With `fsync`, every [`WalWriter::append`] is made durable before it
    /// returns; without, durability is left to the OS page cache (fast mode
    /// for tests and benchmarks).
    pub fn create(path: impl Into<PathBuf>, fsync: bool) -> io::Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        file.write_all(&WAL_MAGIC)?;
        if fsync {
            file.sync_data()?;
        }
        Ok(Self { file, path, bytes: WAL_MAGIC.len() as u64, records: 0, fsync, telemetry: None })
    }

    /// Attaches (or detaches, with `None`) metric handles; subsequent
    /// [`WalWriter::append`] calls time their write and fsync phases and
    /// record the group-commit batch size into them.
    pub fn set_telemetry(&mut self, telemetry: Option<WalTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the log, including the magic header.
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// True when no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Records appended so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Group commit: frames every record into one buffer, writes it with a
    /// single syscall and (in fsync mode) makes the batch durable with a
    /// single `fdatasync`. Returns the log length after the append.
    pub fn append(&mut self, records: &[WalRecord]) -> io::Result<u64> {
        if records.is_empty() {
            return Ok(self.bytes);
        }
        let mut buf = Vec::with_capacity(records.len() * 64);
        for record in records {
            let payload = encode_record(record);
            put_count(&mut buf, payload.len());
            put_u32(&mut buf, crc32(&payload));
            buf.extend_from_slice(&payload);
        }
        match &self.telemetry {
            None => {
                self.file.write_all(&buf)?;
                if self.fsync {
                    self.file.sync_data()?;
                }
            }
            Some(telemetry) => {
                let started = Instant::now();
                self.file.write_all(&buf)?;
                telemetry.append.record_duration(started.elapsed());
                if self.fsync {
                    let started = Instant::now();
                    self.file.sync_data()?;
                    telemetry.fsync.record_duration(started.elapsed());
                }
                telemetry.batch_records.record(records.len() as u64);
                telemetry.appends.inc();
                telemetry.appended_bytes.add(buf.len() as u64);
            }
        }
        self.bytes += buf.len() as u64;
        self.records += records.len() as u64;
        Ok(self.bytes)
    }

    /// Forces everything appended so far to disk, regardless of the fsync
    /// mode the writer was opened with.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Result of scanning a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReadOutcome {
    /// Every complete, CRC-valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last valid frame (the safe truncation point
    /// for resuming appends after a crash).
    pub valid_bytes: u64,
    /// True when the file ended in a partial or corrupt frame (torn write).
    pub truncated: bool,
}

impl WalReadOutcome {
    /// Only the graph mutations, dropping checkpoints and registrations.
    pub fn updates(&self) -> Vec<GraphUpdate> {
        self.records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Update(u) => Some(u.clone()),
                _ => None,
            })
            .collect()
    }

    /// The last tracker checkpoint in the log, if any (last one wins).
    pub fn last_checkpoint(&self) -> Option<&[u8]> {
        self.records.iter().rev().find_map(|r| match r {
            WalRecord::TrackerCheckpoint(blob) => Some(blob.as_slice()),
            _ => None,
        })
    }

    /// Prepared-statement registrations in append order.
    pub fn prepared(&self) -> Vec<String> {
        self.records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Prepared(text) => Some(text.clone()),
                _ => None,
            })
            .collect()
    }
}

/// Reads a WAL file, stopping cleanly at the first torn or corrupt frame.
///
/// # Errors
/// Fails with [`io::ErrorKind::InvalidData`] when the file does not start
/// with the WAL magic (it is not a log at all), and propagates I/O errors.
/// A torn *tail* is not an error — see [`WalReadOutcome::truncated`].
pub fn read_wal(path: impl AsRef<Path>) -> io::Result<WalReadOutcome> {
    let data = std::fs::read(path.as_ref())?;
    let mut r = Reader::new(&data);
    if r.bytes(WAL_MAGIC.len()) != Ok(&WAL_MAGIC[..]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a pgso WAL file (or an older format)", path.as_ref().display()),
        ));
    }
    let mut records = Vec::new();
    // Bytes after the last valid frame: anything left there is a torn tail.
    let mut tail = r.remaining();
    while let Ok(record) = read_frame(&mut r) {
        records.push(record);
        tail = r.remaining();
    }
    Ok(WalReadOutcome { records, valid_bytes: (data.len() - tail) as u64, truncated: tail > 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_graphstore::{props, VertexId};

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Update(GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: props([("name", "Aspirin".into())]),
            }),
            WalRecord::Update(GraphUpdate::AddVertex {
                label: "Indication".into(),
                properties: props([("desc", "Fever".into())]),
            }),
            WalRecord::Update(GraphUpdate::AddEdge {
                label: "treat".into(),
                src: VertexId(0),
                dst: VertexId(1),
            }),
            WalRecord::Prepared("MATCH (d:Drug) WHERE d.name = $n RETURN d.name".into()),
            WalRecord::TrackerCheckpoint(vec![1, 2, 3, 4, 5]),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_append_and_read() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let records = sample_records();
        let mut writer = WalWriter::create(&path, true).unwrap();
        assert!(writer.is_empty());
        writer.append(&records[..2]).unwrap();
        writer.append(&records[2..]).unwrap();
        assert_eq!(writer.record_count(), 5);
        assert!(writer.len() > WAL_MAGIC.len() as u64);
        writer.sync().unwrap();

        let outcome = read_wal(&path).unwrap();
        assert!(!outcome.truncated);
        assert_eq!(outcome.records, records);
        assert_eq!(outcome.valid_bytes, writer.len());
        assert_eq!(outcome.updates().len(), 3);
        assert_eq!(outcome.last_checkpoint(), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(
            outcome.prepared(),
            vec!["MATCH (d:Drug) WHERE d.name = $n RETURN d.name".to_string()]
        );
    }

    #[test]
    fn empty_wal_reads_empty() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let _ = WalWriter::create(&path, false).unwrap();
        let outcome = read_wal(&path).unwrap();
        assert!(outcome.records.is_empty());
        assert!(!outcome.truncated);
        assert_eq!(outcome.valid_bytes, WAL_MAGIC.len() as u64);
    }

    #[test]
    fn version_one_logs_are_refused_not_misread() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer.append(&sample_records()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[..WAL_MAGIC.len()].copy_from_slice(b"PGSOWAL1");
        std::fs::write(&path, &data).unwrap();
        assert_eq!(read_wal(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("not-a-wal");
        std::fs::write(&path, b"hello world, definitely not a log").unwrap();
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(read_wal(dir.path().join("missing")).is_err());
    }

    /// The torn-write sweep: truncating the log at *every byte offset* of the
    /// final frame must drop exactly that frame — earlier records survive, no
    /// panic, no partial record.
    #[test]
    fn truncation_at_every_byte_of_the_last_frame_recovers_the_prefix() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let records = sample_records();
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer.append(&records[..records.len() - 1]).unwrap();
        let before_last = writer.len();
        writer.append(&records[records.len() - 1..]).unwrap();
        writer.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, writer.len());

        for cut in before_last..writer.len() {
            let torn = dir.path().join(format!("torn-{cut}.log"));
            std::fs::write(&torn, &full[..cut as usize]).unwrap();
            let outcome = read_wal(&torn).unwrap();
            if cut == before_last {
                // The whole last frame is gone: that is a *clean* shorter
                // log, not a torn one.
                assert!(!outcome.truncated, "cut exactly at the frame boundary is clean");
            } else {
                assert!(outcome.truncated, "cut at {cut} must report truncation");
            }
            assert_eq!(
                outcome.records,
                records[..records.len() - 1],
                "cut at {cut} must keep exactly the complete records"
            );
            assert_eq!(outcome.valid_bytes, before_last, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_middle_frame_stops_the_scan() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let records = sample_records();
        let mut writer = WalWriter::create(&path, false).unwrap();
        writer.append(&records).unwrap();
        writer.sync().unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second frame.
        let first_payload_len = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
        let second_frame = 8 + 8 + first_payload_len;
        data[second_frame + 8] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let outcome = read_wal(&path).unwrap();
        assert!(outcome.truncated);
        assert_eq!(outcome.records, records[..1], "scan stops at the corrupt frame");
    }

    #[test]
    fn absurd_length_prefix_is_treated_as_truncation() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let _ = WalWriter::create(&path, false).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let outcome = read_wal(&path).unwrap();
        assert!(outcome.truncated);
        assert!(outcome.records.is_empty());
    }

    #[test]
    fn append_nothing_is_a_noop() {
        let dir = tempfile::tempdir().unwrap();
        let mut writer = WalWriter::create(dir.path().join("wal.log"), false).unwrap();
        let len = writer.append(&[]).unwrap();
        assert_eq!(len, WAL_MAGIC.len() as u64);
        assert!(writer.is_empty());
    }

    #[test]
    fn telemetry_times_appends_and_counts_batches() {
        let dir = tempfile::tempdir().unwrap();
        let registry = MetricsRegistry::new();
        let mut writer = WalWriter::create(dir.path().join("wal.log"), true).unwrap();
        writer.set_telemetry(Some(WalTelemetry::register(&registry)));
        let records = sample_records();
        writer.append(&records[..2]).unwrap();
        writer.append(&records[2..]).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal.appends"), Some(2));
        let batch = snap.histogram("wal.batch_records").unwrap();
        assert_eq!(batch.count, 2);
        assert_eq!(batch.sum, records.len() as u64);
        assert_eq!(snap.histogram("wal.append").unwrap().count, 2);
        assert_eq!(snap.histogram("wal.fsync").unwrap().count, 2, "fsync mode times the sync");
        let framed = writer.len() - WAL_MAGIC.len() as u64;
        assert_eq!(snap.counter("wal.appended_bytes"), Some(framed));
        // Bytes and records written with telemetry attached read back intact.
        assert_eq!(read_wal(writer.path()).unwrap().records, records);
    }

    #[test]
    fn unsynced_writer_records_no_fsync_samples() {
        let dir = tempfile::tempdir().unwrap();
        let registry = MetricsRegistry::new();
        let mut writer = WalWriter::create(dir.path().join("wal.log"), false).unwrap();
        writer.set_telemetry(Some(WalTelemetry::register(&registry)));
        writer.append(&sample_records()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("wal.fsync").unwrap().count, 0);
        assert_eq!(snap.histogram("wal.append").unwrap().count, 1);
    }
}
