//! Differential tests: `LineTable` against a `BTreeMap` model.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simbase::{LineTable, CACHELINE_BYTES};

/// The simulated machine's region bases.
const PM_BASE: u64 = 0x0000_1000_0000_0000;
const DRAM_BASE: u64 = 0x0000_2000_0000_0000;
const PAGE: u64 = 64 * CACHELINE_BYTES;

/// Maps a pool index to a key: dense lines at the start of PM and DRAM,
/// the last and first lines around page edges, a far PM region (more than
/// a segment's bridging limit away), and the ends of the address space.
fn key_of(i: usize) -> u64 {
    let i = i as u64;
    match i {
        0..=199 => PM_BASE + i * CACHELINE_BYTES,
        200..=299 => DRAM_BASE + (i - 200) * CACHELINE_BYTES,
        300..=339 => {
            // Pairs straddling page boundaries 1..=20 pages into PM.
            let edge = PM_BASE + ((i - 300) / 2 + 1) * PAGE;
            if i.is_multiple_of(2) {
                edge - CACHELINE_BYTES
            } else {
                edge
            }
        }
        340..=359 => PM_BASE + (1 << 30) + (i - 340) * 3 * PAGE,
        360..=369 => DRAM_BASE + (1 << 28) + (i - 360) * CACHELINE_BYTES,
        370..=374 => (i - 370) * CACHELINE_BYTES,
        _ => u64::MAX - (CACHELINE_BYTES - 1) - (i - 375) * PAGE,
    }
}

const POOL: usize = 380;

fn assert_same(t: &LineTable<u64>, m: &BTreeMap<u64, u64>) {
    assert_eq!(t.len(), m.len());
    assert_eq!(t.is_empty(), m.is_empty());
    let got: Vec<(u64, u64)> = t.iter().map(|(k, &v)| (k, v)).collect();
    let want: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "iteration must match BTreeMap order exactly");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn line_table_matches_btreemap(
        ops in prop::collection::vec((0u8..40, 0usize..POOL, any::<u64>()), 0..600)
    ) {
        let mut t = LineTable::new();
        let mut m = BTreeMap::new();
        for (step, &(op, k, v)) in ops.iter().enumerate() {
            let key = key_of(k);
            match op {
                0..=14 => prop_assert_eq!(t.insert(key, v), m.insert(key, v)),
                15..=24 => prop_assert_eq!(t.remove(key), m.remove(&key)),
                25..=30 => prop_assert_eq!(t.get(key), m.get(&key)),
                31..=34 => {
                    if let Some(x) = t.get_mut(key) {
                        *x = x.wrapping_add(v);
                    }
                    if let Some(x) = m.get_mut(&key) {
                        *x = x.wrapping_add(v);
                    }
                }
                35..=36 => {
                    let a = *t.get_or_insert_with(key, || v);
                    let b = *m.entry(key).or_insert(v);
                    prop_assert_eq!(a, b);
                }
                37..=38 => {
                    // The predicate also records its visiting order, which
                    // must be ascending like BTreeMap::retain's.
                    let mut seen_t = Vec::new();
                    t.retain(|k, x| {
                        seen_t.push(k);
                        *x = x.wrapping_mul(3);
                        (*x ^ v) & 3 != 0
                    });
                    let mut seen_m = Vec::new();
                    m.retain(|&k, x| {
                        seen_m.push(k);
                        *x = x.wrapping_mul(3);
                        (*x ^ v) & 3 != 0
                    });
                    prop_assert_eq!(seen_t, seen_m);
                }
                _ => {
                    t.clear();
                    m.clear();
                }
            }
            if step % 25 == 0 {
                assert_same(&t, &m);
            }
        }
        assert_same(&t, &m);
    }
}
