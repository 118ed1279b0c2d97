//! Property tests for the wire layer: frame reassembly under arbitrary
//! chunking, and request/response codec round-trips over arbitrary values.

use pgso_graphstore::PropertyValue;
use pgso_net::frame::{write_frame, FrameReader, MAX_FRAME_LEN};
use pgso_net::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use pgso_query::Params;
use proptest::collection;
use proptest::prelude::*;

/// Deterministically builds a `PropertyValue` from an integer spec, cycling
/// through every wire-codec variant (lists included, one level deep).
fn value_from_spec(kind: usize, payload: i64, depth: usize) -> PropertyValue {
    match kind % 6 {
        0 => PropertyValue::Null,
        1 => PropertyValue::Bool(payload % 2 == 0),
        2 => PropertyValue::Int(payload),
        3 => PropertyValue::Float(payload as f64 * 0.125),
        4 => PropertyValue::Str(format!("s{payload}-äß✓")),
        _ if depth == 0 => PropertyValue::Int(payload.wrapping_mul(3)),
        _ => PropertyValue::List(
            (0..(payload.unsigned_abs() % 4))
                .map(|i| value_from_spec(kind + 1 + i as usize, payload ^ i as i64, depth - 1))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame sequence reassembles identically whatever chunk boundaries
    /// the transport imposed.
    #[test]
    fn frames_survive_arbitrary_chunk_boundaries(
        frames in collection::vec((0u16..256, collection::vec(0u16..256, 0..96)), 0..12),
        chunk in 1usize..48,
    ) {
        let frames: Vec<(u8, Vec<u8>)> = frames
            .into_iter()
            .map(|(op, payload)| (op as u8, payload.into_iter().map(|b| b as u8).collect()))
            .collect();
        let mut wire = Vec::new();
        for (op, payload) in &frames {
            write_frame(&mut wire, *op, payload);
        }
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.extend(piece);
            while let Some(frame) = reader.next_frame().expect("legal frames") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// EXECUTE payloads round-trip over arbitrary parameter sets.
    #[test]
    fn execute_round_trips_arbitrary_params(
        handle in 0u32..u32::MAX,
        specs in collection::vec((0usize..8, -1000i64..1000), 0..10),
    ) {
        let mut params = Params::new();
        for (i, (kind, payload)) in specs.iter().enumerate() {
            params.insert(format!("p{i}"), value_from_spec(*kind, *payload, 2));
        }
        // Odd handles carry a trace id, even ones the all-zero (untraced)
        // trailer, so both trailer values meet arbitrary param sets.
        let trace = (handle % 2 == 1).then(|| pgso_net::TraceContext {
            trace_id: handle as u64 + 1,
            parent_span: handle as u64,
        });
        let request = Request::Execute { handle, params, trace };
        let (op, payload) = encode_request(&request);
        prop_assert_eq!(decode_request(op, &payload).expect("decodes"), request);
    }

    /// ROWS payloads round-trip over arbitrary row shapes (ragged rows
    /// included — every row carries its own column count).
    #[test]
    fn rows_round_trip_arbitrary_shapes(
        rows in collection::vec(collection::vec((0usize..8, -1000i64..1000), 0..6), 0..20),
    ) {
        let rows: Vec<Vec<PropertyValue>> = rows
            .iter()
            .map(|row| row.iter().map(|(k, p)| value_from_spec(*k, *p, 2)).collect())
            .collect();
        let response = Response::Rows { rows };
        let (op, payload) = encode_response(&response);
        prop_assert_eq!(decode_response(op, &payload).expect("decodes"), response);
    }

    /// Truncating any encoded request at any byte yields a typed violation,
    /// never a panic.
    #[test]
    fn truncated_requests_decode_to_violations(
        cut_ratio in 0.0f64..1.0,
        text_seed in 0i64..1_000_000,
        text_len in 0usize..6,
    ) {
        let text =
            (0..text_len).map(|i| format!("tok{} ", text_seed ^ i as i64)).collect::<String>();
        let request = Request::Prepare { handle: 7, text, trace: None };
        let (op, payload) = encode_request(&request);
        let cut = ((payload.len() as f64) * cut_ratio) as usize;
        if cut < payload.len() {
            prop_assert!(decode_request(op, &payload[..cut]).is_err());
        }
    }
}
