//! Paged register SRAM ≡ zeroed flat SRAM.
//!
//! `RegArray` allocates 1,024-bucket pages on the first non-zero write and
//! drops them when a reset leaves them all zero. This proptest drives the
//! same random `write` / `update` / `read` / `read_range` / `reset_range`
//! sequence through the paged array and through `FlatRegArray` (one `u32`
//! per bucket) and asserts equal values, equal errors and equal
//! `write_epoch` after every step, plus that a whole-array reset leaves no
//! page allocated. Sizes that are not a multiple of the page size,
//! ranges that straddle a page boundary, zero writes and out-of-range
//! addresses are all drawn on purpose.
//!
//! The case count obeys `P4RP_PROPTEST_CASES` (CI's "Footprint" step
//! runs 64).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rmt_sim::salu::{FlatRegArray, RegArray, PAGE_BUCKETS};

const PAGE: u32 = PAGE_BUCKETS as u32;

/// An address biased towards the interesting places: page boundaries, the
/// last bucket, just past the end, and the top of the `u32` range.
fn pick_addr(raw: u32, size: u32) -> u32 {
    let r = raw >> 3;
    match raw % 8 {
        0 => u32::MAX - r % 3,
        1 => size + r % 3,
        2 | 3 => {
            let boundary = (r % (size / PAGE + 1)) * PAGE;
            (boundary + r % 3).saturating_sub(1)
        }
        _ => r % size,
    }
}

/// A length biased towards page-straddling spans, empty spans and
/// overflowing ones.
fn pick_len(raw: u32) -> u32 {
    let r = raw >> 2;
    match raw % 4 {
        0 => r % 4,
        1 => PAGE - 2 + r % 5,
        2 => u32::MAX - r % 2,
        _ => r % (3 * PAGE),
    }
}

fn check(size: u32, ops: &[(u8, u32, u32, u32)]) -> Result<(), TestCaseError> {
    let mut paged = RegArray::new("m", size as usize);
    let mut flat = FlatRegArray::new("m", size as usize);
    prop_assert_eq!(paged.size(), flat.size());
    prop_assert_eq!(paged.pages_allocated(), 0);
    for &(kind, a, b, v) in ops {
        let addr = pick_addr(a, size);
        match kind % 7 {
            0 | 1 => {
                // Half the writes store zero (into absent and present pages).
                let value = if kind % 2 == 0 { v } else { 0 };
                prop_assert_eq!(paged.write(addr, value), flat.write(addr, value));
            }
            2 => prop_assert_eq!(paged.read(addr), flat.read(addr)),
            3 if b % 2 == 0 => {
                // A SALU read-modify-write; some leave the bucket unchanged.
                let f = |mem: u32| if v % 3 == 0 { mem } else { mem.wrapping_add(v) };
                prop_assert_eq!(paged.update(addr, f), flat.update(addr, f));
            }
            3 => {
                let len = pick_len(b);
                prop_assert_eq!(paged.read_range(addr, len), flat.read_range(addr, len));
            }
            4 | 5 => {
                let len = pick_len(b);
                prop_assert_eq!(paged.reset_range(addr, len), flat.reset_range(addr, len));
            }
            _ => {
                prop_assert_eq!(paged.reset_range(0, size), flat.reset_range(0, size));
                prop_assert_eq!(paged.pages_allocated(), 0, "whole-array reset keeps a page");
            }
        }
        prop_assert_eq!(paged.write_epoch, flat.write_epoch);
    }
    prop_assert_eq!(paged.read_range(0, size), flat.read_range(0, size));
    paged
        .reset_range(0, size)
        .expect("whole-array reset is in range");
    prop_assert_eq!(paged.pages_allocated(), 0, "whole-array reset keeps a page");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("P4RP_PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn paged_regarray_matches_flat_reference(
        size in prop::sample::select(vec![1u32, 1000, 1024, 1025, 2500, 4096]),
        ops in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()),
            1..96,
        ),
    ) {
        check(size, &ops)?;
    }
}
