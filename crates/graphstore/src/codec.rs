//! Binary encoding of vertex records for the disk backend and of
//! [`GraphUpdate`] mutation records for the write-ahead log.
//!
//! Records are self-describing and length-prefixed:
//!
//! ```text
//! record   := label props
//! label    := u16 len, bytes
//! props    := u16 count, { name value }*
//! name     := u16 len, bytes
//! value    := tag(u8) payload
//!   tag 0  := bool (u8)
//!   tag 1  := i64 (le)
//!   tag 2  := f64 (le)
//!   tag 3  := string (u32 len, bytes)
//!   tag 4  := list (u32 count, value*)
//!   tag 5  := null (no payload)
//! ```
//!
//! Mutation records prepend a one-byte kind tag and reuse the vertex record
//! encoding verbatim for the `AddVertex` payload:
//!
//! ```text
//! update   := tag(u8) payload
//!   tag 0  := add-vertex (record)
//!   tag 1  := add-edge (label, u64 src le, u64 dst le)
//! ```
//!
//! The format is deliberately simple — no varints, no compression — because
//! the disk backend's purpose is to model *where* I/O happens, not to compete
//! on storage density.

use crate::backend::{GraphUpdate, VertexId};
use crate::value::{PropertyMap, PropertyValue};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Kind tag of an encoded [`GraphUpdate::AddVertex`] record.
pub const UPDATE_TAG_ADD_VERTEX: u8 = 0;
/// Kind tag of an encoded [`GraphUpdate::AddEdge`] record.
pub const UPDATE_TAG_ADD_EDGE: u8 = 1;

/// Encodes a vertex record (label + properties) into bytes.
pub fn encode_vertex(label: &str, properties: &PropertyMap) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    put_str16(&mut buf, label);
    buf.put_u16(properties.len() as u16);
    for (name, value) in properties {
        put_str16(&mut buf, name);
        encode_value(&mut buf, value);
    }
    buf.freeze()
}

/// Decodes a vertex record produced by [`encode_vertex`].
///
/// # Panics
/// Panics on malformed input; records are only ever produced by this module.
pub fn decode_vertex(mut data: &[u8]) -> (String, PropertyMap) {
    let label = get_str16(&mut data).to_string();
    let count = data.get_u16();
    let mut properties = PropertyMap::new();
    for _ in 0..count {
        let name = get_str16(&mut data).to_string();
        let value = decode_value(&mut data);
        properties.insert(name, value);
    }
    (label, properties)
}

/// Label of an encoded vertex record, borrowed from the record bytes.
///
/// # Panics
/// Panics on malformed input; records are only ever produced by this module.
pub fn vertex_label(mut data: &[u8]) -> &str {
    get_str16(&mut data)
}

/// Decodes the one property `name` of an encoded vertex record, stepping
/// over every other value without materialising it.
///
/// # Panics
/// Panics on malformed input; records are only ever produced by this module.
pub fn vertex_property(mut data: &[u8], name: &str) -> Option<PropertyValue> {
    get_str16(&mut data);
    for _ in 0..data.get_u16() {
        if get_str16(&mut data) == name {
            return Some(decode_value(&mut data));
        }
        skip_value(&mut data);
    }
    None
}

/// Encodes one graph mutation record. `AddVertex` payloads are exactly the
/// bytes of [`encode_vertex`], so the write-ahead log shares the disk
/// backend's record format.
pub fn encode_update(update: &GraphUpdate) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match update {
        GraphUpdate::AddVertex { label, properties } => {
            buf.put_u8(UPDATE_TAG_ADD_VERTEX);
            buf.put_slice(&encode_vertex(label, properties));
        }
        GraphUpdate::AddEdge { label, src, dst } => {
            buf.put_u8(UPDATE_TAG_ADD_EDGE);
            put_str16(&mut buf, label);
            buf.put_u64_le(src.0);
            buf.put_u64_le(dst.0);
        }
    }
    buf.freeze()
}

/// Decodes a mutation record produced by [`encode_update`]. Returns `None`
/// for an unknown kind tag or a short `AddEdge` buffer. `AddVertex` payloads
/// delegate to [`decode_vertex`] and therefore must be integrity-checked
/// first (the write-ahead log CRC-validates every frame before decoding).
pub fn decode_update(mut data: &[u8]) -> Option<GraphUpdate> {
    if data.is_empty() {
        return None;
    }
    match data.get_u8() {
        UPDATE_TAG_ADD_VERTEX => {
            let (label, properties) = decode_vertex(data);
            Some(GraphUpdate::AddVertex { label, properties })
        }
        UPDATE_TAG_ADD_EDGE => {
            if data.len() < 2 {
                return None;
            }
            let len = data.get_u16() as usize;
            if data.len() < len + 16 {
                return None;
            }
            let label = std::str::from_utf8(&data[..len]).ok()?.to_string();
            data.advance(len);
            let src = VertexId(data.get_u64_le());
            let dst = VertexId(data.get_u64_le());
            Some(GraphUpdate::AddEdge { label, src, dst })
        }
        _ => None,
    }
}

/// Nesting depth cap for [`try_decode_value`]: deeper lists are rejected so
/// foreign bytes (network frames) cannot drive unbounded recursion.
pub const MAX_VALUE_DEPTH: u32 = 32;

/// Encodes one [`PropertyValue`] in the record format (tag byte + payload;
/// see the module docs). Public so higher layers — the wire protocol in
/// `pgso-net` — reuse the exact on-disk value encoding instead of inventing
/// a second one.
pub fn encode_value(buf: &mut BytesMut, value: &PropertyValue) {
    match value {
        PropertyValue::Bool(v) => {
            buf.put_u8(0);
            buf.put_u8(*v as u8);
        }
        PropertyValue::Int(v) => {
            buf.put_u8(1);
            buf.put_i64_le(*v);
        }
        PropertyValue::Float(v) => {
            buf.put_u8(2);
            buf.put_f64_le(*v);
        }
        PropertyValue::Str(s) => {
            buf.put_u8(3);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        PropertyValue::List(items) => {
            buf.put_u8(4);
            buf.put_u32_le(items.len() as u32);
            for item in items {
                encode_value(buf, item);
            }
        }
        PropertyValue::Null => {
            buf.put_u8(5);
        }
    }
}

fn decode_value(data: &mut &[u8]) -> PropertyValue {
    try_decode_value(data).expect("malformed value record")
}

/// Bounds-checked, non-panicking decode of one [`PropertyValue`]. Returns
/// `None` for truncated payloads, unknown tags, invalid UTF-8, list counts
/// exceeding the remaining bytes, or nesting past [`MAX_VALUE_DEPTH`] — the
/// hardened entry point for bytes that arrived over a network rather than
/// from this module's own encoder.
pub fn try_decode_value(data: &mut &[u8]) -> Option<PropertyValue> {
    try_decode_value_at(data, 0)
}

fn try_decode_value_at(data: &mut &[u8], depth: u32) -> Option<PropertyValue> {
    if depth > MAX_VALUE_DEPTH {
        return None;
    }
    let (&tag, rest) = data.split_first()?;
    *data = rest;
    match tag {
        0 => Some(PropertyValue::Bool(*take(data, 1)?.first()? != 0)),
        1 => Some(PropertyValue::Int(i64::from_le_bytes(take(data, 8)?.try_into().ok()?))),
        2 => Some(PropertyValue::Float(f64::from_le_bytes(take(data, 8)?.try_into().ok()?))),
        3 => {
            let len = u32::from_le_bytes(take(data, 4)?.try_into().ok()?) as usize;
            let bytes = take(data, len)?;
            Some(PropertyValue::Str(std::str::from_utf8(bytes).ok()?.to_string()))
        }
        4 => {
            let count = u32::from_le_bytes(take(data, 4)?.try_into().ok()?) as usize;
            // Every encoded value is at least one tag byte, so a count larger
            // than the remaining payload is malformed — reject it up front
            // instead of looping (and never pre-allocate from a foreign count).
            if count > data.len() {
                return None;
            }
            let mut items = Vec::new();
            for _ in 0..count {
                items.push(try_decode_value_at(data, depth + 1)?);
            }
            Some(PropertyValue::List(items))
        }
        5 => Some(PropertyValue::Null),
        _ => None,
    }
}

fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if data.len() < n {
        return None;
    }
    let (head, tail) = data.split_at(n);
    *data = tail;
    Some(head)
}

fn put_str16(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str16<'a>(data: &mut &'a [u8]) -> &'a str {
    let len = data.get_u16() as usize;
    let (head, tail) = data.split_at(len);
    *data = tail;
    std::str::from_utf8(head).expect("valid utf8 in record")
}

/// Steps over one encoded value of a record this module produced.
fn skip_value(data: &mut &[u8]) {
    match data.get_u8() {
        0 => data.advance(1),
        1 | 2 => data.advance(8),
        3 => {
            let len = data.get_u32_le() as usize;
            data.advance(len);
        }
        4 => (0..data.get_u32_le()).for_each(|_| skip_value(data)),
        5 => {}
        tag => panic!("malformed value record: tag {tag}"),
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
        let (label, decoded) = decode_vertex(&encoded);
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
        let (label, decoded) = decode_vertex(&encoded);
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
        assert_eq!(vertex_label(&encoded), "Drug");
        for (name, value) in &p {
            assert_eq!(vertex_property(&encoded, name).as_ref(), Some(value), "{name}");
        }
        assert_eq!(vertex_property(&encoded, "missing"), None);
    }

    #[test]
    fn roundtrip_empty_properties_and_unicode() {
        let encoded = encode_vertex("Zwiebel–Röstung", &PropertyMap::new());
        let (label, decoded) = decode_vertex(&encoded);
        assert_eq!(label, "Zwiebel–Röstung");
        assert!(decoded.is_empty());
    }

    #[test]
    fn encoding_is_compact_for_small_records() {
        let p = props([("x", PropertyValue::Int(1))]);
        let encoded = encode_vertex("A", &p);
        assert!(encoded.len() < 32, "record unexpectedly large: {}", encoded.len());
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
            assert_eq!(decode_update(&encoded).as_ref(), Some(update));
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
        assert_eq!(decode_update(&[]), None);
        assert_eq!(decode_update(&[9, 1, 2, 3]), None, "unknown tag");
        assert_eq!(decode_update(&[UPDATE_TAG_ADD_EDGE, 0]), None, "short add-edge");
        let truncated_edge = [UPDATE_TAG_ADD_EDGE, 0, 1, b'r', 1, 2, 3];
        assert_eq!(decode_update(&truncated_edge), None, "missing endpoint bytes");
        // A label length exceeding the buffer must not panic.
        assert_eq!(decode_update(&[UPDATE_TAG_ADD_EDGE, 0xFF, 0xFF]), None, "oversized label len");
        // Non-UTF-8 label bytes are rejected, not unwrapped.
        let mut bad_utf8 = vec![UPDATE_TAG_ADD_EDGE, 0, 2, 0xFF, 0xFE];
        bad_utf8.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_update(&bad_utf8), None, "invalid utf-8 label");
    }
}
