//! Property tests: merging histograms is indistinguishable from recording
//! the concatenated sample stream (exact at bucket resolution).

use pgso_telemetry::{Histogram, HistogramSnapshot};
use proptest::collection;
use proptest::prelude::*;

fn record_all(samples: &[u64]) -> Histogram {
    let hist = Histogram::new();
    for &sample in samples {
        hist.record(sample);
    }
    hist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_from_equals_concatenated_recording(
        a in collection::vec(0u64..u64::MAX, 0..200),
        b in collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let left = record_all(&a);
        left.merge_from(&record_all(&b));

        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let expected = record_all(&concat).snapshot();

        prop_assert_eq!(left.snapshot(), expected);
    }

    #[test]
    fn snapshot_merged_equals_concatenated_recording(
        a in collection::vec(0u64..u64::MAX, 0..200),
        b in collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let merged = record_all(&a).snapshot().merged(&record_all(&b).snapshot());

        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        prop_assert_eq!(merged, record_all(&concat).snapshot());
    }

    #[test]
    fn percentiles_are_ordered_and_bounded(
        samples in collection::vec(0u64..1_000_000_000, 1..300),
    ) {
        let snap = record_all(&samples).snapshot();
        let (p50, p90, p99) = (snap.p50(), snap.p90(), snap.p99());
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= snap.max());
        prop_assert!(p50 >= snap.min());
        let true_min = *samples.iter().min().unwrap();
        let true_max = *samples.iter().max().unwrap();
        prop_assert_eq!(snap.min(), true_min);
        prop_assert_eq!(snap.max(), true_max);
    }
}

#[test]
fn merge_with_empty_is_identity() {
    let samples = [1u64, 10, 100, 1_000, 10_000];
    let hist = record_all(&samples);
    let before = hist.snapshot();
    hist.merge_from(&Histogram::new());
    assert_eq!(hist.snapshot(), before);
    assert_eq!(before.merged(&HistogramSnapshot::default()), before);
}
