//! Columnar storage of cube data.
//!
//! [`CubeBatch`] is the one representation cube data has on the native
//! path: parallel `keys`/`measures` vectors over [`DimPool`]-interned
//! keys — the same layout the chase's `Relation` uses — plus a point
//! index for O(1) probes. [`CubeData`] is a copy-on-write handle over a
//! batch and the pool its keys live in, so a cube crosses catalog, run
//! cache, evaluator and commit without ever being re-interned or
//! resolved back to tuples.
//!
//! The index is built on the **first probe** ([`CubeBatch::get`] /
//! [`CubeBatch::contains`] / [`CubeBatch::row_of`]) and then *maintained*:
//! appends insert into it (growing the slot table at load factor ½) and
//! [`CubeBatch::swap_remove`] fixes it up in place, so alternating probes
//! and writes — the shape of every tuple-at-a-time loader and delta
//! patch — stay O(1) per operation. Map-shaped operators — scalar
//! arithmetic, shift, the streaming side of a join — only ever append
//! rows, so their outputs never pay for an index at all.
//!
//! A batch is *functional*: one row per key. [`CubeBatch::push`] appends
//! without checking, so **callers must push each key at most once**
//! (every evaluator operator does: scalar maps preserve keys, shift is
//! injective, join sides are disjoint, group keys are bucketed uniquely);
//! [`CubeBatch::insert_overwrite`] is the checked variant. If the
//! contract is broken anyway, probes agree on last-pushed-wins. Row order
//! is the insertion order (with swap-removes moving the last row into
//! the hole) — deterministic for a given build and input, not sorted;
//! sorted boundaries go through [`CubeData::iter_sorted`].

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::cube::CubeData;
use crate::hash::FxHasher;
use crate::intern::{remap_key, DimPool, IDim, IKey, Sym};

/// Open-addressed point index over a batch's key column: power-of-two
/// slot table of row numbers with linear probing, comparing candidate
/// rows against the key column itself. Building it is one pass with zero
/// per-key allocations (no key clones, unlike a `HashMap<IKey, u32>`).
#[derive(Debug, Clone)]
struct PointIndex {
    mask: usize,
    slots: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

fn key_hash(key: &[IDim]) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
thread_local! {
    /// Full index builds on this thread (initial builds and regrowths),
    /// for the tests that pin incremental maintenance.
    static INDEX_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl PointIndex {
    /// Index every row, with room for twice as many before regrowing.
    fn build(keys: &[IKey]) -> PointIndex {
        #[cfg(test)]
        INDEX_BUILDS.set(INDEX_BUILDS.get() + 1);
        let cap = (keys.len() * 2).next_power_of_two().max(4);
        let mut index = PointIndex {
            mask: cap - 1,
            slots: vec![NO_SLOT; cap],
        };
        for row in 0..keys.len() {
            index.insert(row as u32, keys);
        }
        index
    }

    /// Index `row` (already present in `keys`). A row whose key is
    /// already indexed replaces it — last wins, the duplicate-key rule.
    fn insert(&mut self, row: u32, keys: &[IKey]) {
        let k = &keys[row as usize];
        let mut i = key_hash(k) as usize & self.mask;
        loop {
            match self.slots[i] {
                NO_SLOT => break,
                r if keys[r as usize] == *k => break,
                _ => i = (i + 1) & self.mask,
            }
        }
        self.slots[i] = row;
    }

    /// Slot holding `row`, found by probing from its key's home slot.
    fn slot_of(&self, row: u32, keys: &[IKey]) -> Option<usize> {
        let mut i = key_hash(&keys[row as usize]) as usize & self.mask;
        loop {
            match self.slots[i] {
                NO_SLOT => return None,
                r if r == row => return Some(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Unindex `row` by backward-shift deletion: later members of the
    /// probe run move up into the hole unless their home slot lies
    /// cyclically after it, so no tombstones accumulate. `false` when
    /// the row was not indexed (a shadowed duplicate).
    fn remove(&mut self, row: u32, keys: &[IKey]) -> bool {
        let Some(mut hole) = self.slot_of(row, keys) else {
            return false;
        };
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let r = self.slots[j];
            if r == NO_SLOT {
                break;
            }
            let home = key_hash(&keys[r as usize]) as usize & self.mask;
            // `r` may fill the hole unless its home is in (hole, j]
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = r;
                hole = j;
            }
        }
        self.slots[hole] = NO_SLOT;
        true
    }

    fn lookup(&self, key: &[IDim], keys: &[IKey]) -> Option<u32> {
        let mut i = key_hash(key) as usize & self.mask;
        loop {
            match self.slots[i] {
                NO_SLOT => return None,
                r if *keys[r as usize] == *key => return Some(r),
                _ => i = (i + 1) & self.mask,
            }
        }
    }
}

/// A cube's payload in columnar form: parallel key/measure vectors over
/// interned keys, with a lazily built, incrementally maintained key →
/// row point index.
#[derive(Debug, Default)]
pub struct CubeBatch {
    keys: Vec<IKey>,
    measures: Vec<f64>,
    index: OnceLock<PointIndex>,
}

impl Clone for CubeBatch {
    /// Clones the columns and, when one was built, the index (a flat
    /// slot table: copying it beats re-hashing every key on the clone's
    /// first probe — the copy-on-write path of every revision).
    fn clone(&self) -> CubeBatch {
        let index = OnceLock::new();
        if let Some(ix) = self.index.get() {
            let _ = index.set(ix.clone());
        }
        CubeBatch {
            keys: self.keys.clone(),
            measures: self.measures.clone(),
            index,
        }
    }
}

impl PartialEq for CubeBatch {
    /// Row-for-row column equality; the index is derived state.
    fn eq(&self, other: &CubeBatch) -> bool {
        self.keys == other.keys && self.measures == other.measures
    }
}

impl CubeBatch {
    /// Empty batch.
    pub fn new() -> CubeBatch {
        CubeBatch::default()
    }

    /// Empty batch with room for `n` rows.
    pub fn with_capacity(n: usize) -> CubeBatch {
        CubeBatch {
            keys: Vec::with_capacity(n),
            measures: Vec::with_capacity(n),
            index: OnceLock::new(),
        }
    }

    /// A cube's rows with keys valid in `pool`. When `pool` agrees with
    /// the cube's own pool on every common symbol this is a column copy
    /// (`pool` first gains any symbols it lacks); otherwise the cube's
    /// strings are interned into `pool` and its keys remapped.
    pub fn from_data(data: &CubeData, pool: &mut DimPool) -> CubeBatch {
        let own = data.pool();
        if pool.compatible(own) {
            if own.len() > pool.len() {
                pool.extend_from(own);
            }
            return data.batch().clone();
        }
        data.batch().remap(&own.remap_into(pool))
    }

    /// Cube data over a copy of this batch, keyed in `pool`.
    pub fn to_data(&self, pool: &DimPool) -> CubeData {
        CubeData::from_batch(self.clone(), std::sync::Arc::new(pool.clone()))
    }

    /// The batch with every key's symbols rewritten through a
    /// [`DimPool::remap_into`] table, rows in the same order.
    pub fn remap(&self, map: &[Sym]) -> CubeBatch {
        CubeBatch::from_columns(
            self.keys.iter().map(|k| remap_key(k, map)).collect(),
            self.measures.clone(),
        )
    }

    /// Number of rows (= defined points; the batch is functional).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no row is present.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The point index, built on first use. Concurrent first probes from
    /// parallel workers serialize on the build; every later probe is a
    /// plain hash lookup.
    fn index(&self) -> &PointIndex {
        self.index.get_or_init(|| PointIndex::build(&self.keys))
    }

    /// Force the point index to exist. Callers about to probe from
    /// several threads use this to pay the build once, up front, instead
    /// of serializing the workers on the first probe.
    pub fn ensure_indexed(&self) {
        let _ = self.index();
    }

    /// Measure at a key, if defined. Builds the index on first use.
    pub fn get(&self, key: &[IDim]) -> Option<f64> {
        self.row_of(key).map(|row| self.measures[row as usize])
    }

    /// True when the key is defined. Builds the index on first use.
    pub fn contains(&self, key: &[IDim]) -> bool {
        self.row_of(key).is_some()
    }

    /// Row position of a key, if defined. Builds the index on first use.
    /// Probe loops that walk a batch in key order use this to re-seat a
    /// sequential cursor after a miss, then read neighbouring rows
    /// index-free.
    pub fn row_of(&self, key: &[IDim]) -> Option<u32> {
        self.index().lookup(key, &self.keys)
    }

    /// Append a row. The batch stays functional only if the caller never
    /// pushes the same key twice (see the module doc). A built index is
    /// kept up to date, regrowing when it passes load factor ½.
    pub fn push(&mut self, key: IKey, value: f64) {
        let row = u32::try_from(self.keys.len()).expect("batch row overflow");
        self.keys.push(key);
        self.measures.push(value);
        if let Some(ix) = self.index.get_mut() {
            if self.keys.len() * 2 > ix.slots.len() {
                *ix = PointIndex::build(&self.keys);
            } else {
                ix.insert(row, &self.keys);
            }
        }
    }

    /// Set the measure at `key`, appending a row when the key is new.
    /// Builds the index on first use.
    pub fn insert_overwrite(&mut self, key: IKey, value: f64) {
        match self.row_of(&key) {
            Some(row) => self.measures[row as usize] = value,
            None => self.push(key, value),
        }
    }

    /// Remove row `row`, moving the last row into its place, and return
    /// its key and measure. A built index is fixed up in place.
    ///
    /// # Panics
    /// Panics when `row` is out of bounds.
    pub fn swap_remove(&mut self, row: usize) -> (IKey, f64) {
        let last = self.keys.len() - 1;
        if let Some(ix) = self.index.get_mut() {
            let fixed = ix.remove(row as u32, &self.keys)
                && (row == last || {
                    let moved = ix.slot_of(last as u32, &self.keys);
                    moved.map(|slot| ix.slots[slot] = row as u32).is_some()
                });
            if !fixed {
                // a shadowed duplicate (broken contract): rebuild lazily
                self.index.take();
            }
        }
        let key = self.keys.swap_remove(row);
        let value = self.measures.swap_remove(row);
        (key, value)
    }

    /// Adopt fully built key/measure columns in one move — the bulk
    /// variant of [`CubeBatch::push`] for kernels that stream rows into
    /// plain vectors first. Same functional contract: the caller must
    /// not have produced a duplicate key.
    ///
    /// # Panics
    /// Panics when the columns disagree in length or exceed `u32` rows.
    pub fn from_columns(keys: Vec<IKey>, measures: Vec<f64>) -> CubeBatch {
        assert_eq!(keys.len(), measures.len(), "column length mismatch");
        u32::try_from(keys.len()).expect("batch row overflow");
        CubeBatch {
            keys,
            measures,
            index: OnceLock::new(),
        }
    }

    /// The key column.
    pub fn keys(&self) -> &[IKey] {
        &self.keys
    }

    /// The measure column.
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// Mutable measure column, for operators that transform measures in
    /// place without touching keys (row positions are unchanged, so a
    /// built index stays valid).
    pub fn measures_mut(&mut self) -> &mut [f64] {
        &mut self.measures
    }

    /// The key column and the mutable measure column together, for
    /// operators that rewrite each measure as a function of its own key
    /// (the streaming side of a join probes another batch per key).
    pub fn columns_mut(&mut self) -> (&[IKey], &mut [f64]) {
        (&self.keys, &mut self.measures)
    }

    /// Mutable key column, for key-rewriting operators (shift) that are
    /// injective on keys. The caller must keep keys unique. Every key may
    /// change, so a built index is discarded (it is rebuilt, once, on the
    /// next probe).
    pub fn keys_mut(&mut self) -> &mut [IKey] {
        self.index.take();
        &mut self.keys
    }

    /// Drop every row whose measure is non-finite (the §3 partiality
    /// rule), preserving row order. Discards a built index when rows are
    /// actually removed.
    pub fn retain_finite(&mut self) {
        if self.measures.iter().all(|v| v.is_finite()) {
            return;
        }
        let mut w = 0;
        for r in 0..self.measures.len() {
            if self.measures[r].is_finite() {
                self.keys.swap(w, r);
                self.measures[w] = self.measures[r];
                w += 1;
            }
        }
        self.keys.truncate(w);
        self.measures.truncate(w);
        self.index.take();
    }

    /// Iterate rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&IKey, f64)> {
        self.keys.iter().zip(self.measures.iter().copied())
    }

    /// Resolve one row's key to an owned [`DimTuple`](crate::DimTuple).
    pub fn resolve_row(&self, row: usize, pool: &DimPool) -> crate::DimTuple {
        pool.resolve_tuple(&self.keys[row])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;
    use crate::value::DimValue;

    fn sample() -> CubeData {
        let mut data = CubeData::new();
        for (i, r) in [(1i64, "north"), (2, "south"), (3, "north")] {
            data.insert_overwrite(
                vec![
                    DimValue::Int(i),
                    DimValue::str(r),
                    DimValue::Time(TimePoint::Year(2020)),
                ],
                i as f64 * 1.5,
            );
        }
        data
    }

    #[test]
    fn round_trips_through_the_pool() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        assert_eq!(batch.len(), data.len());
        assert!(!batch.is_empty());
        assert_eq!(batch.to_data(&pool), data);
    }

    #[test]
    fn probes_by_interned_key() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let key = pool.intern_tuple(&[
            DimValue::Int(2),
            DimValue::str("south"),
            DimValue::Time(TimePoint::Year(2020)),
        ]);
        assert_eq!(batch.get(&key), Some(3.0));
        assert!(batch.contains(&key));
        let missing = pool.intern_tuple(&[
            DimValue::Int(9),
            DimValue::str("south"),
            DimValue::Time(TimePoint::Year(2020)),
        ]);
        assert_eq!(batch.get(&missing), None);
    }

    #[test]
    fn pushes_after_a_probe_invalidate_the_index() {
        let mut batch = CubeBatch::new();
        let k1: IKey = vec![IDim::Int(1)].into();
        let k2: IKey = vec![IDim::Int(2)].into();
        batch.push(k1.clone(), 1.0);
        assert_eq!(batch.get(&k1), Some(1.0)); // forces the index
        batch.push(k2.clone(), 2.0);
        assert_eq!(batch.get(&k2), Some(2.0)); // rebuilt, sees the append
        assert_eq!(batch.len(), 2);
    }

    fn ikey(i: i64) -> IKey {
        vec![IDim::Int(i), IDim::Int(i % 7)].into()
    }

    #[test]
    fn alternating_probe_and_append_keeps_the_index() {
        let n = 4096;
        let mut batch = CubeBatch::new();
        INDEX_BUILDS.set(0);
        for i in 0..n {
            // every append follows a probe: a discarded index would be
            // rebuilt n times, a maintained one only on regrowth
            assert_eq!(batch.get(&ikey(i)), None);
            batch.push(ikey(i), i as f64);
        }
        let builds = INDEX_BUILDS.get();
        assert!(
            builds <= 2 + (n as f64).log2() as usize,
            "{builds} index builds for {n} appends"
        );
        for i in 0..n {
            assert_eq!(batch.get(&ikey(i)), Some(i as f64));
        }
        assert_eq!(INDEX_BUILDS.get(), builds, "probes rebuilt the index");
    }

    #[test]
    fn swap_remove_fixes_the_index_in_place() {
        let mut batch = CubeBatch::new();
        for i in 0..200 {
            batch.push(ikey(i), i as f64);
        }
        batch.ensure_indexed();
        INDEX_BUILDS.set(0);
        // remove every third key, from the front, the middle and the back
        for i in (0..200).step_by(3) {
            let row = batch.row_of(&ikey(i)).unwrap() as usize;
            let (k, v) = batch.swap_remove(row);
            assert_eq!((k, v), (ikey(i), i as f64));
        }
        assert_eq!(INDEX_BUILDS.get(), 0, "swap_remove rebuilt the index");
        for i in 0..200 {
            let want = (i % 3 != 0).then_some(i as f64);
            assert_eq!(batch.get(&ikey(i)), want, "key {i}");
        }
        assert_eq!(batch.len(), 200 - (0..200).step_by(3).count());
        // overwrite and re-insert through the maintained index
        batch.insert_overwrite(ikey(1), -1.0);
        batch.insert_overwrite(ikey(0), -2.0);
        assert_eq!(batch.get(&ikey(1)), Some(-1.0));
        assert_eq!(batch.get(&ikey(0)), Some(-2.0));
        assert_eq!(INDEX_BUILDS.get(), 0);
    }

    #[test]
    fn clone_carries_a_built_index() {
        let mut batch = CubeBatch::new();
        for i in 0..100 {
            batch.push(ikey(i), i as f64);
        }
        batch.ensure_indexed();
        INDEX_BUILDS.set(0);
        let mut copy = batch.clone();
        copy.insert_overwrite(ikey(5), 0.5);
        assert_eq!(copy.get(&ikey(5)), Some(0.5));
        assert_eq!(batch.get(&ikey(5)), Some(5.0));
        assert_eq!(INDEX_BUILDS.get(), 0);
    }

    #[test]
    fn from_data_shares_or_remaps_keys_by_pool_compatibility() {
        let data = sample();
        // an empty (or compatible) pool adopts the cube's symbols: keys
        // are shared, not re-interned
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        assert!(std::sync::Arc::ptr_eq(
            &batch.keys()[0],
            &data.batch().keys()[0]
        ));
        assert_eq!(batch.to_data(&pool), data);
        // an incompatible pool gets the strings interned and keys remapped
        let mut other = DimPool::new();
        other.intern("zzz");
        let remapped = CubeBatch::from_data(&data, &mut other);
        assert_eq!(remapped.to_data(&other), data);
        assert_eq!(other.len(), pool.len() + 1);
    }

    #[test]
    fn in_place_mutation_and_partiality() {
        let mut batch = CubeBatch::new();
        for i in 0..4 {
            batch.push(vec![IDim::Int(i)].into(), i as f64);
        }
        for v in batch.measures_mut() {
            *v = 1.0 / *v; // 1/0 = inf at row 0
        }
        batch.retain_finite();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(&[IDim::Int(0)]), None);
        assert_eq!(batch.get(&[IDim::Int(2)]), Some(0.5));
        // key rewrite through keys_mut stays probe-consistent (uniquely
        // owned keys mutate in place; aliased ones get a fresh `Arc`)
        for k in batch.keys_mut() {
            let IDim::Int(i) = k[0] else { unreachable!() };
            match std::sync::Arc::get_mut(k) {
                Some(slice) => slice[0] = IDim::Int(i + 10),
                None => *k = vec![IDim::Int(i + 10)].into(),
            }
        }
        assert_eq!(batch.get(&[IDim::Int(12)]), Some(0.5));
        assert_eq!(batch.get(&[IDim::Int(2)]), None);
    }

    #[test]
    fn clone_is_column_deep_index_lazy() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let probe = pool.intern_tuple(&[
            DimValue::Int(1),
            DimValue::str("north"),
            DimValue::Time(TimePoint::Year(2020)),
        ]);
        assert_eq!(batch.get(&probe), Some(1.5));
        let cloned = batch.clone();
        assert_eq!(cloned, batch);
        assert_eq!(cloned.get(&probe), Some(1.5));
    }

    #[test]
    fn iter_and_resolve_row() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        for (row, (k, v)) in batch.iter().enumerate() {
            let tuple = batch.resolve_row(row, &pool);
            assert_eq!(&pool.intern_tuple(&tuple), k);
            assert_eq!(data.get(&tuple), Some(v));
        }
    }
}
