//! Property-based tests of the snapshot container: randomly generated
//! snapshots — arbitrary `f64` bit patterns included — round-trip
//! byte-identically, and randomly corrupted encodings (truncation at any
//! boundary, any single-byte flip) always come back as a typed
//! [`PersistError`], never a panic and never silently-wrong data.

use acim_persist::{ArchiveRecord, EvalCacheRecord, EvalEntry, PersistError, Snapshot};
use proptest::prelude::*;

/// Any `f64` bit pattern at all: NaNs with payloads, infinities,
/// subnormals, negative zero.  The container stores bits, so every one of
/// these must survive a round trip untouched.
fn any_bits_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

/// Finite non-negative `f64`s — the only constraint violations the
/// decoder accepts.
fn violation() -> impl Strategy<Value = f64> {
    0.0..1e12f64
}

fn signature(prefix: &'static str) -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..=122, 1..12).prop_map(move |tail| {
        let tail: String = tail.into_iter().map(char::from).collect();
        format!("{prefix}{tail}")
    })
}

fn archive() -> impl Strategy<Value = ArchiveRecord> {
    // One genome width per archive (the matrix must be rectangular): a
    // flat cell pool is carved into `rows` genomes of `width` values.
    (
        signature("chip/"),
        0usize..5,
        1usize..5,
        prop::collection::vec(any_bits_f64(), 16),
    )
        .prop_map(|(space, rows, width, pool)| ArchiveRecord {
            space,
            genomes: (0..rows)
                .map(|row| (0..width).map(|col| pool[row * 4 + col]).collect())
                .collect(),
        })
}

fn eval_cache() -> impl Strategy<Value = EvalCacheRecord> {
    (
        signature("macro/"),
        prop::collection::vec(
            (
                prop::collection::vec(0u32..=u32::MAX, 1..6),
                prop::collection::vec(any_bits_f64(), 1..5),
                violation(),
            )
                .prop_map(|(key, objectives, constraint_violation)| EvalEntry {
                    // Centre on zero so negative genome keys are exercised.
                    key: key
                        .into_iter()
                        .map(|word| i64::from(word) - i64::from(u32::MAX / 2))
                        .collect(),
                    objectives,
                    constraint_violation,
                }),
            0..8,
        ),
    )
        .prop_map(|(space, entries)| EvalCacheRecord { space, entries })
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec(archive(), 0..4),
        prop::collection::vec(eval_cache(), 0..4),
    )
        .prop_map(|(archives, eval_caches)| {
            let mut snapshot = Snapshot::new();
            snapshot.archives = archives;
            snapshot.eval_caches = eval_caches;
            snapshot
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Byte-identity is the strongest round-trip check available: it is
    // immune to the `NaN != NaN` blind spot a record-level `PartialEq`
    // comparison would have.
    #[test]
    fn round_trip_is_byte_identical(snapshot in snapshot()) {
        let bytes = snapshot.to_bytes().unwrap();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.to_bytes().unwrap(), bytes);
        prop_assert_eq!(decoded.genome_count(), snapshot.genome_count());
        prop_assert_eq!(decoded.evaluation_count(), snapshot.evaluation_count());
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error(
        snapshot in snapshot(),
        cut_fraction in 0.0..1.0f64,
    ) {
        let bytes = snapshot.to_bytes().unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < bytes.len());
        let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(!err.reason().is_empty());
    }

    #[test]
    fn any_single_byte_flip_is_a_typed_error(
        snapshot in snapshot(),
        position_fraction in 0.0..1.0f64,
        mask in 1u8..=255,
    ) {
        let mut bytes = snapshot.to_bytes().unwrap();
        let position = ((bytes.len() as f64) * position_fraction) as usize;
        prop_assert!(position < bytes.len());
        bytes[position] ^= mask;
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        // CRC-32 detects every burst error up to 32 bits, so a one-byte
        // corruption can never decode silently.
        prop_assert!(
            !matches!(err, PersistError::Io { .. }),
            "in-memory decode produced an Io error: {err:?}"
        );
    }
}
