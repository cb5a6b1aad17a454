//! Property tests for cube content fingerprints.
//!
//! The run cache keys statement executions on [`Fingerprint::of_cube`],
//! so these invariants are load-bearing for correctness of incremental
//! recomputation: the hash must depend on *content only* — not on
//! insertion order, sharing structure (CoW clone vs deep copy), or which
//! string allocations happen to back the dimension values — while any
//! single-entry change must move it.

use std::sync::Arc;

use exl_model::fingerprint::Fingerprint;
use exl_model::value::DimValue;
use exl_model::{CubeBatch, CubeData, DimPool, TimePoint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random entry set: mixed Time/Str/Int keys, values that
/// include negatives and exact zeros.
fn random_entries(seed: u64) -> Vec<(Vec<DimValue>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..40usize);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let key = vec![
            DimValue::Time(TimePoint::Quarter {
                year: 2000 + (i / 4) as i32,
                quarter: (i % 4 + 1) as u32,
            }),
            DimValue::Str(format!("r{:02}", rng.gen_range(0..6)).into()),
            DimValue::Int(rng.gen_range(-5..5)),
        ];
        let value = match rng.gen_range(0..5) {
            0 => 0.0,
            1 => -rng.gen_range(0.0..100.0),
            _ => rng.gen_range(0.0..100.0),
        };
        out.push((key, value));
    }
    // keys must be unique for order-permutation comparisons to be fair
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

fn cube_of(entries: &[(Vec<DimValue>, f64)]) -> CubeData {
    let mut data = CubeData::new();
    for (k, v) in entries {
        data.insert_overwrite(k.clone(), *v);
    }
    data
}

/// The cube of `entries` with its keys interned in a pool whose string
/// first-seen order is `strings`, rows in entry order.
fn cube_in_pool(entries: &[(Vec<DimValue>, f64)], strings: &[&str]) -> CubeData {
    let mut pool = DimPool::new();
    for s in strings {
        pool.intern(s);
    }
    let mut batch = CubeBatch::new();
    for (k, v) in entries {
        batch.push(pool.intern_tuple(k), *v);
    }
    CubeData::from_batch(batch, Arc::new(pool))
}

/// Fisher–Yates over a copy of the entries.
fn shuffled(entries: &[(Vec<DimValue>, f64)], seed: u64) -> Vec<(Vec<DimValue>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = entries.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insertion order never shows in the fingerprint: sorted, reversed,
    /// and randomly shuffled insertions all agree.
    #[test]
    fn fingerprint_is_insertion_order_independent(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let sorted = Fingerprint::of_cube(&cube_of(&entries));
        let mut rev = entries.clone();
        rev.reverse();
        prop_assert_eq!(sorted, Fingerprint::of_cube(&cube_of(&rev)));
        let shuf = shuffled(&entries, seed ^ 0xfeed);
        prop_assert_eq!(sorted, Fingerprint::of_cube(&cube_of(&shuf)));
    }

    /// Sharing structure never shows: a copy-on-write clone (shared Arc)
    /// and an entry-by-entry deep rebuild fingerprint identically.
    #[test]
    fn fingerprint_is_clone_invariant(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let original = cube_of(&entries);
        let cow = original.clone(); // shares the underlying map
        let deep = cube_of(&entries); // fresh allocations throughout
        let fp = Fingerprint::of_cube(&original);
        prop_assert_eq!(fp, Fingerprint::of_cube(&cow));
        prop_assert_eq!(fp, Fingerprint::of_cube(&deep));
        // and hashing the clone did not disturb the original
        prop_assert_eq!(fp, Fingerprint::of_cube(&original));
    }

    /// Which allocations back the strings is irrelevant: rebuilding every
    /// key with independently allocated `Arc<str>` values (a different
    /// "interner pool") leaves the fingerprint unchanged.
    #[test]
    fn fingerprint_is_interner_pool_stable(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let realloc: Vec<(Vec<DimValue>, f64)> = entries
            .iter()
            .map(|(k, v)| {
                let k = k
                    .iter()
                    .map(|d| match d {
                        DimValue::Str(s) => DimValue::Str(String::from(&**s).into()),
                        other => other.clone(),
                    })
                    .collect();
                (k, *v)
            })
            .collect();
        prop_assert_eq!(
            Fingerprint::of_cube(&cube_of(&entries)),
            Fingerprint::of_cube(&cube_of(&realloc))
        );
    }

    /// Any single-entry change moves the fingerprint: a measure nudge, a
    /// sign flip on zero, a dropped row, or a moved key.
    #[test]
    fn fingerprint_sees_single_entry_changes(seed in 0u64..10_000, idx in 0usize..64) {
        let entries = random_entries(seed);
        let base = Fingerprint::of_cube(&cube_of(&entries));
        let i = idx % entries.len();

        let mut nudged = entries.clone();
        nudged[i].1 += 1.0;
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&nudged)), "value nudge unseen");

        let mut signed = entries.clone();
        signed[i].1 = if signed[i].1 == 0.0 { -0.0 } else { -signed[i].1 };
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&signed)), "sign flip unseen");

        let mut dropped = entries.clone();
        dropped.remove(i);
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&dropped)), "dropped row unseen");

        let mut moved = entries.clone();
        moved[i].0.push(DimValue::Int(999));
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&moved)), "moved key unseen");
    }

    /// Which pool the keys are interned in never shows: the same content
    /// built through two pools with opposite string first-seen orders
    /// (and opposite row orders) compares equal, serializes to the same
    /// bytes, iterates in the same sorted sequence, and fingerprints
    /// identically — also against a cube built tuple by tuple.
    #[test]
    fn cube_data_is_pool_independent(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let names: Vec<String> = (0..6).map(|i| format!("r{i:02}")).collect();
        let fwd: Vec<&str> = names.iter().map(String::as_str).collect();
        let rev: Vec<&str> = fwd.iter().rev().copied().collect();
        let a = cube_in_pool(&entries, &fwd);
        let mut reversed = entries.clone();
        reversed.reverse();
        let b = cube_in_pool(&reversed, &rev);
        prop_assert!(!a.pool().compatible(b.pool()));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        prop_assert_eq!(a.iter_sorted().collect::<Vec<_>>(), b.iter_sorted().collect::<Vec<_>>());
        prop_assert_eq!(Fingerprint::of_cube(&a), Fingerprint::of_cube(&b));
        prop_assert_eq!(Fingerprint::of_cube(&a), Fingerprint::of_cube(&cube_of(&entries)));
    }
}
