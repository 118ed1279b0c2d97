//! The OBSERVE metrics-snapshot codec, which moved here from
//! `pgso-telemetry` when the snapshot became part of the wire protocol.
//! decode(encode(s)) is the identity for arbitrary registry contents; any
//! truncated or mutated body is a typed `Malformed`, never a panic. The
//! snapshot body carries no version of its own — it is versioned by the
//! protocol revision, so a future (or past) writer is refused at HELLO.

use pgso_graphstore::codec::{put_u16, put_u32};
use pgso_net::proto::{decode_request, decode_response, encode_response, opcode};
use pgso_net::{ErrorCode, ObserveReply, Response, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use pgso_telemetry::{MetricsRegistry, MetricsSnapshot};
use proptest::collection;
use proptest::prelude::*;

/// Builds a snapshot through a real registry so histogram states carry
/// internally consistent bucket/count/sum/min/max values — the only shape
/// the encoder ever sees in production. Gauge bits are reinterpreted as
/// `f64`, so NaN/±Inf payloads are covered.
fn build_snapshot(
    counters: &[(u64, u64)],
    gauges: &[(u64, u64)],
    histograms: &[Vec<u64>],
) -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    for (i, &(tag, value)) in counters.iter().enumerate() {
        registry.counter(&format!("c{i}.n{:x}.total", tag % 4096)).add(value);
    }
    for (i, &(tag, bits)) in gauges.iter().enumerate() {
        registry.gauge(&format!("g{i}.n{:x}", tag % 4096)).set(f64::from_bits(bits));
    }
    for (i, samples) in histograms.iter().enumerate() {
        let hist = registry.histogram(&format!("h{i}.latency"));
        for &sample in samples {
            hist.record(sample);
        }
    }
    registry.snapshot()
}

/// The OBSERVE_OK payload carrying `snapshot`.
fn encode(snapshot: MetricsSnapshot) -> Vec<u8> {
    encode_response(&Response::Observe(ObserveReply::MetricsSnapshot(snapshot))).1
}

fn decode(payload: &[u8]) -> Result<MetricsSnapshot, ErrorCode> {
    match decode_response(opcode::OBSERVE_OK, payload) {
        Ok(Response::Observe(ObserveReply::MetricsSnapshot(snapshot))) => Ok(snapshot),
        Ok(other) => panic!("decoded a different reply: {other:?}"),
        Err(violation) => Err(violation.code),
    }
}

fn hello(version: u16) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, PROTOCOL_MAGIC);
    put_u16(&mut payload, version);
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_encode_is_identity(
        counters in collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..8),
        gauges in collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..8),
        histograms in collection::vec(collection::vec(0u64..u64::MAX, 0..50), 0..4),
    ) {
        let bytes = encode(build_snapshot(&counters, &gauges, &histograms));
        let decoded = decode(&bytes).unwrap();
        // NaN gauges break `PartialEq`; the encoded bytes are exact (gauges
        // serialize as their bits), so compare through them.
        prop_assert_eq!(encode(decoded), bytes);
    }

    #[test]
    fn codec_round_trips_arbitrary_histograms(
        samples in collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h");
        for &s in &samples {
            h.record(s);
        }
        let decoded = decode(&encode(registry.snapshot())).unwrap();
        prop_assert_eq!(decoded.histogram("h"), Some(&h.snapshot()));
    }

    #[test]
    fn unknown_version_is_a_typed_error(version in 0u16..u16::MAX) {
        if version != PROTOCOL_VERSION {
            let violation = decode_request(opcode::HELLO, &hello(version))
                .expect_err("only the one revision shakes hands");
            prop_assert_eq!(violation.code, ErrorCode::BadHandshake);
            prop_assert!(violation.message.contains(&version.to_string()), "names the version");
        }
    }

    #[test]
    fn truncation_never_panics(
        histograms in collection::vec(collection::vec(0u64..u64::MAX, 0..50), 1..4),
        keep in 0usize..4096,
    ) {
        let bytes = encode(build_snapshot(&[], &[], &histograms));
        if keep < bytes.len() {
            // Every strict prefix must be rejected — and, the actual point,
            // nothing may panic or loop while rejecting it.
            prop_assert_eq!(decode(&bytes[..keep]), Err(ErrorCode::Malformed));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u64..256, 0..512)) {
        // Total decoder: any byte soup behind the snapshot mode byte yields
        // a snapshot or a typed error.
        let mut payload = vec![1u8];
        payload.extend(bytes.into_iter().map(|b| b as u8));
        let _ = decode(&payload);
    }
}

#[test]
fn version_zero_and_empty_input_are_typed_errors() {
    let violation = decode_request(opcode::HELLO, &hello(0)).expect_err("version 0 is unknown");
    assert_eq!(violation.code, ErrorCode::BadHandshake);
    assert_eq!(decode(&[]), Err(ErrorCode::Malformed), "empty OBSERVE_OK");
    assert_eq!(decode(&[1]), Err(ErrorCode::Malformed), "snapshot mode, no body");
}
