//! The CRC-64/XZ kernel against its definition, under the tier-1
//! command. `crates/ooc-runtime/tests/proptests.rs` holds the same
//! property; `cargo test -q` at the root skips crate-level test files,
//! and every sidecar, journal intent and recovery baseline in the repo
//! depends on these values not moving.

use ooc_opt::runtime::{crc64, crc64_f64s};
use proptest::prelude::*;

/// CRC-64/XZ one bit at a time.
fn crc64_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xC96C_5795_D787_0F42 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn known_answers() {
    // The CRC-64/XZ check value.
    assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64(b""), 0);
    assert_eq!(crc64_f64s(&[]), 0);
}

proptest! {
    /// Lengths cross zero to four blocks of the braided fold (a block
    /// is 128 words, 1024 bytes) and end in a ragged tail, at every
    /// byte alignment; the `f64` form equals the byte form.
    #[test]
    fn crc64_matches_the_bitwise_definition(
        bytes in proptest::collection::vec(any::<u8>(), 0..4 * 1024 + 200),
        skip in 0usize..9,
    ) {
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc64(bytes), crc64_bitwise(bytes));
        let values: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        prop_assert_eq!(crc64_f64s(&values), crc64_bitwise(&bytes[..values.len() * 8]));
    }
}
