//! The workspace's one byte codec: the primitive grammar every persisted or
//! wire format is written in, and the vertex / graph-update records of the
//! disk backend and the write-ahead log.
//!
//! # Primitive grammar
//!
//! Every format — these records, the snapshot file and WAL frames
//! (`pgso-persist`), the tracker blobs (`pgso-server`) and the wire protocol
//! (`pgso-net`) — is a sequence of these primitives, written by the `put_*`
//! functions and read back by one [`Reader`]:
//!
//! ```text
//! u8 u16 u32 u64 i64   fixed width, little-endian
//! f64                  IEEE-754 bits, as a u64
//! str16                u16 byte length, UTF-8 bytes
//! str32                u32 byte length, UTF-8 bytes
//! blob32               u32 byte length, bytes
//! count                u32 item count
//! ```
//!
//! **The count rule:** a reader states the smallest encoding one item can
//! have ([`Reader::count`]), and a count that the remaining bytes cannot hold
//! is rejected before anything is allocated for it. Reading is total: a
//! truncated input, a non-UTF-8 string or an impossible count is a
//! [`DecodeError`], never a panic, and [`Reader::finish`] rejects trailing
//! bytes.
//!
//! Writing is total for every value the formats can hold. `str16` and the
//! `u16` counts are the one bound a caller can break; [`put_len16`] asserts
//! it as an internal invariant, and [`encodable`] lets an entry point refuse
//! such input before it reaches a writer.
//!
//! # Records
//!
//! ```text
//! record   := str16 label, u16 nprops, { str16 name, value }*
//! value    := u8 tag, payload
//!   tag 0  := bool (u8)
//!   tag 1  := i64
//!   tag 2  := f64
//!   tag 3  := str32
//!   tag 4  := list (count, value*)
//!   tag 5  := null (no payload)
//! update   := u8 tag, payload
//!   tag 0  := add-vertex (record)
//!   tag 1  := add-edge (str16 label, u64 src, u64 dst)
//! ```
//!
//! The format is deliberately simple — no varints, no compression — because
//! the disk backend's purpose is to model *where* I/O happens, not to compete
//! on storage density.

use crate::backend::{GraphUpdate, VertexId};
use crate::value::{PropertyMap, PropertyValue};
use std::fmt;
use std::io;

/// Kind tag of an encoded [`GraphUpdate::AddVertex`] record.
pub const UPDATE_TAG_ADD_VERTEX: u8 = 0;
/// Kind tag of an encoded [`GraphUpdate::AddEdge`] record.
pub const UPDATE_TAG_ADD_EDGE: u8 = 1;

/// Nesting depth cap for list values: deeper lists are rejected so foreign
/// bytes cannot drive unbounded recursion.
pub const MAX_VALUE_DEPTH: u32 = 32;

/// Why a [`Reader`] (or a format built on it) refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed bytes: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(err: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

/// Bounds-checked cursor over encoded bytes; see the module docs for the
/// grammar it reads.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.data.len() {
            return Err(DecodeError("truncated"));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.array().map(i64::from_le_bytes)
    }

    /// An `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// A `str16`, borrowed from the input.
    pub fn str16(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u16()?;
        utf8(self.bytes(len.into())?)
    }

    /// A `str32`, borrowed from the input.
    pub fn str32(&mut self) -> Result<&'a str, DecodeError> {
        utf8(self.blob32()?)
    }

    /// A `blob32`, borrowed from the input.
    pub fn blob32(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        self.bytes(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// A `count` of items each encoded in at least `min_item_bytes` (≥ 1)
    /// bytes: rejected when the remaining bytes cannot hold that many, so
    /// the result is safe to allocate for.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let count = usize::try_from(self.u32()?).unwrap_or(usize::MAX);
        match count.checked_mul(min_item_bytes) {
            Some(bytes) if bytes <= self.data.len() => Ok(count),
            _ => Err(DecodeError("count exceeds the remaining bytes")),
        }
    }

    /// Ends the read: trailing bytes are an error.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError("invalid utf-8"))
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `u16` length or count.
///
/// # Panics
/// Past `u16::MAX`: the formats cannot hold it, and every entry point that
/// takes such input from outside refuses it first (see [`encodable`]).
pub fn put_len16(buf: &mut Vec<u8>, len: usize) {
    put_u16(buf, u16::try_from(len).expect("a u16 length or count holds at most u16::MAX"));
}

/// Appends a `count` (or a 32-bit length).
///
/// # Panics
/// Past `u32::MAX`, which no in-memory collection a format writes reaches.
pub fn put_count(buf: &mut Vec<u8>, count: usize) {
    put_u32(buf, u32::try_from(count).expect("a u32 count holds at most u32::MAX"));
}

/// Appends a `str16`.
///
/// # Panics
/// For a string longer than `u16::MAX` bytes, like [`put_len16`].
pub fn put_str16(buf: &mut Vec<u8>, s: &str) {
    put_len16(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a `str32`.
pub fn put_str32(buf: &mut Vec<u8>, s: &str) {
    put_blob32(buf, s.as_bytes());
}

/// Appends a `blob32`.
pub fn put_blob32(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_count(buf, bytes.len());
    buf.extend_from_slice(bytes);
}

/// True when `update` fits the record format: every label and property name
/// at most `u16::MAX` bytes and at most `u16::MAX` properties. Ingest checks
/// this before an update is logged, so [`encode_update`] never meets one
/// that breaks [`put_len16`].
pub fn encodable(update: &GraphUpdate) -> bool {
    let fits = |n: usize| n <= usize::from(u16::MAX);
    match update {
        GraphUpdate::AddVertex { label, properties } => {
            fits(label.len())
                && fits(properties.len())
                && properties.keys().all(|name| fits(name.len()))
        }
        GraphUpdate::AddEdge { label, .. } => fits(label.len()),
    }
}

fn put_vertex(buf: &mut Vec<u8>, label: &str, properties: &PropertyMap) {
    put_str16(buf, label);
    put_len16(buf, properties.len());
    for (name, value) in properties {
        put_str16(buf, name);
        put_value(buf, value);
    }
}

/// Encodes a vertex record (label + properties).
pub fn encode_vertex(label: &str, properties: &PropertyMap) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_vertex(&mut buf, label, properties);
    buf
}

fn read_vertex(r: &mut Reader<'_>) -> Result<(String, PropertyMap), DecodeError> {
    let label = r.str16()?.to_owned();
    let mut properties = PropertyMap::new();
    for _ in 0..r.u16()? {
        let name = r.str16()?.to_owned();
        properties.insert(name, read_value(r)?);
    }
    Ok((label, properties))
}

/// Decodes a vertex record produced by [`encode_vertex`].
pub fn decode_vertex(data: &[u8]) -> Result<(String, PropertyMap), DecodeError> {
    let mut r = Reader::new(data);
    let vertex = read_vertex(&mut r)?;
    r.finish()?;
    Ok(vertex)
}

/// Label of an encoded vertex record, borrowed from the record bytes.
pub fn vertex_label(data: &[u8]) -> Result<&str, DecodeError> {
    Reader::new(data).str16()
}

/// Decodes the one property `name` of an encoded vertex record, stepping
/// over every other value without materialising it; `Ok(None)` when the
/// record has no such property.
pub fn vertex_property(data: &[u8], name: &str) -> Result<Option<PropertyValue>, DecodeError> {
    let mut r = Reader::new(data);
    r.str16()?;
    for _ in 0..r.u16()? {
        if r.str16()? == name {
            return read_value(&mut r).map(Some);
        }
        skip_value(&mut r, 0)?;
    }
    Ok(None)
}

/// Encodes one graph mutation record. `AddVertex` payloads are exactly the
/// bytes of [`encode_vertex`], so the write-ahead log shares the disk
/// backend's record format.
///
/// # Panics
/// When `update` is not [`encodable`].
pub fn encode_update(update: &GraphUpdate) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match update {
        GraphUpdate::AddVertex { label, properties } => {
            put_u8(&mut buf, UPDATE_TAG_ADD_VERTEX);
            put_vertex(&mut buf, label, properties);
        }
        GraphUpdate::AddEdge { label, src, dst } => {
            put_u8(&mut buf, UPDATE_TAG_ADD_EDGE);
            put_str16(&mut buf, label);
            put_u64(&mut buf, src.0);
            put_u64(&mut buf, dst.0);
        }
    }
    buf
}

/// Decodes a mutation record produced by [`encode_update`].
pub fn decode_update(data: &[u8]) -> Result<GraphUpdate, DecodeError> {
    let mut r = Reader::new(data);
    let update = match r.u8()? {
        UPDATE_TAG_ADD_VERTEX => {
            let (label, properties) = read_vertex(&mut r)?;
            GraphUpdate::AddVertex { label, properties }
        }
        UPDATE_TAG_ADD_EDGE => GraphUpdate::AddEdge {
            label: r.str16()?.to_owned(),
            src: VertexId(r.u64()?),
            dst: VertexId(r.u64()?),
        },
        _ => return Err(DecodeError("unknown update tag")),
    };
    r.finish()?;
    Ok(update)
}

/// Appends one [`PropertyValue`] in the record format (tag byte + payload;
/// see the module docs). Public so the wire protocol in `pgso-net` reuses
/// the exact on-disk value encoding instead of inventing a second one.
pub fn put_value(buf: &mut Vec<u8>, value: &PropertyValue) {
    match value {
        PropertyValue::Bool(v) => {
            put_u8(buf, 0);
            put_u8(buf, u8::from(*v));
        }
        PropertyValue::Int(v) => {
            put_u8(buf, 1);
            put_i64(buf, *v);
        }
        PropertyValue::Float(v) => {
            put_u8(buf, 2);
            put_f64(buf, *v);
        }
        PropertyValue::Str(s) => {
            put_u8(buf, 3);
            put_str32(buf, s);
        }
        PropertyValue::List(items) => {
            put_u8(buf, 4);
            put_count(buf, items.len());
            items.iter().for_each(|item| put_value(buf, item));
        }
        PropertyValue::Null => put_u8(buf, 5),
    }
}

/// Reads one [`PropertyValue`] written by [`put_value`]. Lists nested past
/// [`MAX_VALUE_DEPTH`] are rejected.
pub fn read_value(r: &mut Reader<'_>) -> Result<PropertyValue, DecodeError> {
    read_value_at(r, 0)
}

fn read_value_at(r: &mut Reader<'_>, depth: u32) -> Result<PropertyValue, DecodeError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(DecodeError("list nesting too deep"));
    }
    Ok(match r.u8()? {
        0 => PropertyValue::Bool(r.u8()? != 0),
        1 => PropertyValue::Int(r.i64()?),
        2 => PropertyValue::Float(r.f64()?),
        3 => PropertyValue::Str(r.str32()?.to_owned()),
        4 => {
            let count = r.count(1)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(read_value_at(r, depth + 1)?);
            }
            PropertyValue::List(items)
        }
        5 => PropertyValue::Null,
        _ => return Err(DecodeError("unknown value tag")),
    })
}

/// Steps over one value like [`read_value`] reads it, allocating nothing.
fn skip_value(r: &mut Reader<'_>, depth: u32) -> Result<(), DecodeError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(DecodeError("list nesting too deep"));
    }
    match r.u8()? {
        0 => r.bytes(1).map(|_| ()),
        1 | 2 => r.bytes(8).map(|_| ()),
        3 => r.blob32().map(|_| ()),
        4 => (0..r.count(1)?).try_for_each(|_| skip_value(r, depth + 1)),
        5 => Ok(()),
        _ => Err(DecodeError("unknown value tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::props;

    #[test]
    fn roundtrip_scalar_properties() {
        let p = props([
            ("name", "Aspirin".into()),
            ("dose", PropertyValue::Float(1.5)),
            ("count", PropertyValue::Int(42)),
            ("otc", PropertyValue::Bool(true)),
        ]);
        let encoded = encode_vertex("Drug", &p);
        let (label, decoded) = decode_vertex(&encoded).unwrap();
        assert_eq!(label, "Drug");
        assert_eq!(decoded, p);
    }

    #[test]
    fn roundtrip_list_and_nested_values() {
        let p = props([
            ("Indication.desc", PropertyValue::str_list(["Fever", "Headache"])),
            (
                "nested",
                PropertyValue::List(vec![
                    PropertyValue::Int(1),
                    PropertyValue::List(vec![PropertyValue::Bool(false)]),
                ]),
            ),
        ]);
        let encoded = encode_vertex("Drug", &p);
        let (label, decoded) = decode_vertex(&encoded).unwrap();
        assert_eq!(label, "Drug");
        assert_eq!(decoded, p);
    }

    #[test]
    fn label_and_single_property_read_without_decoding_the_record() {
        let p = props([
            ("a", PropertyValue::Bool(true)),
            ("list", PropertyValue::List(vec![1i64.into(), PropertyValue::str_list(["x"])])),
            ("name", "Aspirin".into()),
            ("null", PropertyValue::Null),
            ("z", PropertyValue::Float(2.5)),
        ]);
        let encoded = encode_vertex("Drug", &p);
        assert_eq!(vertex_label(&encoded), Ok("Drug"));
        for (name, value) in &p {
            assert_eq!(vertex_property(&encoded, name), Ok(Some(value.clone())), "{name}");
        }
        assert_eq!(vertex_property(&encoded, "missing"), Ok(None));
    }

    #[test]
    fn roundtrip_empty_properties_and_unicode() {
        let encoded = encode_vertex("Zwiebel–Röstung", &PropertyMap::new());
        let (label, decoded) = decode_vertex(&encoded).unwrap();
        assert_eq!(label, "Zwiebel–Röstung");
        assert!(decoded.is_empty());
    }

    #[test]
    fn encoding_is_compact_for_small_records() {
        let p = props([("x", PropertyValue::Int(1))]);
        let encoded = encode_vertex("A", &p);
        assert!(encoded.len() < 32, "record unexpectedly large: {}", encoded.len());
        // Little-endian like every other format: label length 1 is `01 00`.
        assert_eq!(&encoded[..3], &[1, 0, b'A']);
    }

    #[test]
    fn roundtrip_updates() {
        let updates = [
            GraphUpdate::AddVertex {
                label: "Drug".into(),
                properties: props([
                    ("name", "Aspirin".into()),
                    ("doses", PropertyValue::str_list(["100mg", "500mg"])),
                ]),
            },
            GraphUpdate::AddVertex { label: "Empty".into(), properties: PropertyMap::new() },
            GraphUpdate::AddEdge {
                label: "treat".into(),
                src: VertexId(7),
                dst: VertexId(u64::MAX),
            },
        ];
        for update in &updates {
            let encoded = encode_update(update);
            assert_eq!(decode_update(&encoded).as_ref(), Ok(update));
        }
    }

    #[test]
    fn add_vertex_update_payload_is_the_vertex_record() {
        let p = props([("name", "Aspirin".into())]);
        let update = GraphUpdate::AddVertex { label: "Drug".into(), properties: p.clone() };
        let encoded = encode_update(&update);
        assert_eq!(encoded[0], UPDATE_TAG_ADD_VERTEX);
        assert_eq!(&encoded[1..], &encode_vertex("Drug", &p)[..], "codec reuse must be exact");
    }

    #[test]
    fn foreign_bytes_decode_to_none() {
        assert!(decode_update(&[]).is_err());
        assert!(decode_update(&[9, 1, 2, 3]).is_err(), "unknown tag");
        assert!(decode_update(&[UPDATE_TAG_ADD_EDGE, 0]).is_err(), "short add-edge");
        let truncated_edge = [UPDATE_TAG_ADD_EDGE, 1, 0, b'r', 1, 2, 3];
        assert!(decode_update(&truncated_edge).is_err(), "missing endpoint bytes");
        // A label length exceeding the buffer must not panic.
        assert!(decode_update(&[UPDATE_TAG_ADD_EDGE, 0xFF, 0xFF]).is_err(), "oversized label");
        // Non-UTF-8 label bytes are rejected, not unwrapped.
        let mut bad_utf8 = vec![UPDATE_TAG_ADD_EDGE, 2, 0, 0xFF, 0xFE];
        bad_utf8.extend_from_slice(&[0u8; 16]);
        assert!(decode_update(&bad_utf8).is_err(), "invalid utf-8 label");
        // Every truncation of a vertex record is an error (these panicked
        // while the vertex decoder trusted its input).
        let encoded = encode_update(&GraphUpdate::AddVertex {
            label: "Drug".into(),
            properties: props([("name", "Aspirin".into())]),
        });
        for cut in 0..encoded.len() {
            assert!(decode_update(&encoded[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_vertex(&encoded[1..encoded.len() - 1]).is_err());
    }

    #[test]
    fn reader_counts_are_bounded_by_the_remaining_bytes() {
        let mut buf = Vec::new();
        put_count(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Reader::new(&buf).count(2), Ok(3));
        assert!(Reader::new(&buf).count(3).is_err(), "3 items of 3 bytes need 9");
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(Reader::new(&huge).count(1).is_err());
        assert!(Reader::new(&[1]).finish().is_err(), "trailing bytes");
    }

    #[test]
    fn only_encodable_updates_fit_the_record_format() {
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        let vertex = |label: &str, name: &str| GraphUpdate::AddVertex {
            label: label.into(),
            properties: props([(name, PropertyValue::Null)]),
        };
        assert!(encodable(&vertex("Drug", "name")));
        assert!(!encodable(&vertex(&long, "name")));
        assert!(!encodable(&vertex("Drug", &long)));
        let edge = GraphUpdate::AddEdge { label: long, src: VertexId(0), dst: VertexId(1) };
        assert!(!encodable(&edge));
    }

    #[test]
    #[should_panic(expected = "at most u16::MAX")]
    fn str16_refuses_what_its_prefix_cannot_hold() {
        put_str16(&mut Vec::new(), &"x".repeat(70_000));
    }
}
