//! Shard-aware cube partitioning: split a cube's data by one dimension's
//! hash, and concatenate disjoint shard results back together.
//!
//! The sharded dispatcher (exl-engine) partitions every aligned input of a
//! native subgraph into `n` shards by hashing a single dimension value, runs
//! one subgraph instance per shard, and concatenates the per-shard outputs.
//! Two properties make that safe:
//!
//! * **Determinism** — [`shard_of`] hashes the [`DimValue`] with the
//!   workspace's deterministic Fx hasher, so a given value lands on the same
//!   shard in every process on every platform. Cache entries keyed per shard
//!   stay valid across runs.
//! * **Disjointness** — a row belongs to exactly one shard, so
//!   [`concat_data`] never merges two measures for one point; shard outputs
//!   concatenate without any float arithmetic.
//!
//! Both directions work on the interned batch: a split hands every part
//! the input's pool and a share of its key `Arc`s, and a merge appends
//! rows (remapping symbols only for a part keyed in an incompatible pool).

use std::hash::{Hash, Hasher};

use crate::batch::CubeBatch;
use crate::cube::CubeData;
use crate::hash::FxHasher;
use crate::value::DimValue;

/// The shard a dimension value belongs to, out of `shards`. Deterministic
/// across processes and platforms (Fx hash of the value's content); `shards`
/// of zero or one always maps to shard 0.
pub fn shard_of(value: &DimValue, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = FxHasher::default();
    value.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Split a cube's data into `shards` disjoint parts by hashing the
/// dimension at `dim_idx` of every key ([`shard_of`] of the resolved
/// value). Rows keep their exact measures and input order; the union of
/// the parts is the input.
pub fn split_data(data: &CubeData, dim_idx: usize, shards: usize) -> Vec<CubeData> {
    let n = shards.max(1);
    let pool = data.pool();
    let mut parts = vec![CubeBatch::with_capacity(data.len() / n + 1); n];
    for (key, value) in data.batch().iter() {
        let s = if n == 1 {
            0
        } else {
            let mut h = FxHasher::default();
            pool.hash_value(key[dim_idx], &mut h);
            (h.finish() % n as u64) as usize
        };
        parts[s].push(key.clone(), value);
    }
    parts
        .into_iter()
        .map(|part| CubeData::from_batch(part, pool.clone()))
        .collect()
}

/// Concatenate disjoint shard outputs back into one cube. The parts come
/// from [`split_data`]-partitioned inputs, so their domains never overlap;
/// a duplicate point (a sharding bug) would silently keep the last value,
/// which the shard-invariance differential suite would surface as a row
/// count mismatch against the unsharded run.
pub fn concat_data<I>(parts: I) -> CubeData
where
    I: IntoIterator<Item = CubeData>,
{
    let mut iter = parts.into_iter();
    let Some(first) = iter.next() else {
        return CubeData::new();
    };
    let mut pool = first.pool().clone();
    let shared = first.batch_in(&mut pool);
    drop(first);
    let mut out = std::sync::Arc::unwrap_or_clone(shared);
    for part in iter {
        let batch = part.batch_in(&mut pool);
        for (key, value) in batch.iter() {
            out.insert_overwrite(key.clone(), value);
        }
    }
    CubeData::from_batch(out, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;

    fn key(q: u32, r: &str) -> Vec<DimValue> {
        vec![
            DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: q,
            }),
            DimValue::str(r),
        ]
    }

    fn sample() -> CubeData {
        let mut d = CubeData::new();
        for q in 1..=4 {
            for r in ["north", "south", "east", "west", "centre"] {
                d.insert_overwrite(key(q, r), (q as f64) + r.len() as f64);
            }
        }
        d
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 4, 8] {
            for r in ["north", "south", "zz0001"] {
                let v = DimValue::str(r);
                let s = shard_of(&v, n);
                assert!(s < n.max(1));
                assert_eq!(s, shard_of(&v, n));
            }
        }
        assert_eq!(shard_of(&DimValue::Int(7), 1), 0);
        assert_eq!(shard_of(&DimValue::Int(7), 0), 0);
    }

    #[test]
    fn split_partitions_and_concat_round_trips() {
        let data = sample();
        for n in [1usize, 2, 4, 8] {
            let parts = split_data(&data, 1, n);
            assert_eq!(parts.len(), n);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, data.len(), "split dropped or duplicated rows");
            // every row landed on the shard its region hashes to
            for (s, part) in parts.iter().enumerate() {
                for (k, _) in part.iter() {
                    assert_eq!(shard_of(&k[1], n), s);
                }
            }
            let back = concat_data(parts);
            assert_eq!(back, data);
        }
    }

    #[test]
    fn concat_of_nothing_is_empty() {
        assert!(concat_data(std::iter::empty::<CubeData>()).is_empty());
    }
}
