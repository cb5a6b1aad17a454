//! Cube instances: finite, functional sets of cube tuples.
//!
//! A [`CubeData`] is the graph of the partial function a cube denotes,
//! stored as one interned columnar [`CubeBatch`] plus the [`DimPool`] its
//! keys are interned in — the representation the native evaluator runs
//! on, so a cube moves from catalog through the run cache, the evaluator
//! and the commit without a change of representation. Both parts sit
//! behind `Arc`s with copy-on-write mutation: cloning a cube bumps two
//! refcounts, writers deep-copy only what is actually shared, and every
//! cube derived in one run shares that run's pool. The point index of the
//! batch makes the functional egd of §4 hold *by construction* on every
//! tuple-level write — the chase crate deliberately does not use this
//! type for its running instance, so that egd checking is real work
//! there.
//!
//! Tuple-level access ([`CubeData::get`], [`CubeData::insert`],
//! [`CubeData::iter`], …) interns or resolves per call; it serves
//! serialization, CSV, the non-native backends and tests. Every boundary
//! where ordering is observable — serialization, display, diffs,
//! [`CubeData::to_tuples`], [`CubeData::iter_sorted`] — sorts by the
//! dimension tuple's total order, so exported artifacts are byte-identical
//! to what a `BTreeMap` representation would produce whatever the pool's
//! symbol order. Equality, [`Fingerprint`](crate::Fingerprint)s and
//! serialization are pool-independent.

use std::fmt;
use std::sync::Arc;

use crate::batch::CubeBatch;
use crate::error::ModelError;
use crate::intern::{cmp_ranked, DimPool, IDim};
use crate::schema::CubeSchema;
use crate::value::DimValue;

/// A dimension tuple — the point of the cube's domain.
pub type DimTuple = Vec<DimValue>;

/// The data of one cube: a finite partial function from dimension tuples to
/// an `f64` measure, stored as an interned columnar batch (see the module
/// doc).
#[derive(Clone, Default)]
pub struct CubeData {
    batch: Arc<CubeBatch>,
    pool: Arc<DimPool>,
}

impl CubeData {
    /// Empty cube.
    pub fn new() -> CubeData {
        CubeData::default()
    }

    /// Empty cube with room for `n` tuples.
    pub fn with_capacity(n: usize) -> CubeData {
        CubeData::from_batch(CubeBatch::with_capacity(n), Arc::default())
    }

    /// Cube data over a batch whose keys are interned in `pool`. The batch
    /// must be functional (one row per key), as every evaluator kernel's
    /// output is.
    pub fn from_batch(batch: CubeBatch, pool: Arc<DimPool>) -> CubeData {
        CubeData::from_shared(Arc::new(batch), pool)
    }

    /// [`CubeData::from_batch`] over an already shared batch.
    pub fn from_shared(batch: Arc<CubeBatch>, pool: Arc<DimPool>) -> CubeData {
        CubeData { batch, pool }
    }

    /// The columnar storage.
    pub fn batch(&self) -> &CubeBatch {
        &self.batch
    }

    /// The pool the batch's keys are interned in.
    pub fn pool(&self) -> &Arc<DimPool> {
        &self.pool
    }

    /// This cube's batch with keys valid in `pool`. When the pools agree
    /// on every common symbol the batch is shared as-is — and `pool`
    /// adopts this cube's pool if that is the longer one, which keeps
    /// every key already valid in `pool` valid. Otherwise this cube's
    /// strings are interned into `pool` (copy-on-write) and its keys
    /// remapped: O(distinct strings) plus an integer rewrite per row.
    pub fn batch_in(&self, pool: &mut Arc<DimPool>) -> Arc<CubeBatch> {
        if Arc::ptr_eq(pool, &self.pool) || pool.compatible(&self.pool) {
            if self.pool.len() > pool.len() {
                *pool = self.pool.clone();
            }
            return self.batch.clone();
        }
        let map = self.pool.remap_into(Arc::make_mut(pool));
        Arc::new(self.batch.remap(&map))
    }

    /// Build from an iterator of `(dimension tuple, measure)` pairs.
    ///
    /// Later pairs with a duplicate dimension tuple are rejected — a cube is
    /// a function, so base data containing two measures for one point is a
    /// functional (egd) violation.
    pub fn from_tuples<I>(tuples: I) -> Result<CubeData, ModelError>
    where
        I: IntoIterator<Item = (DimTuple, f64)>,
    {
        let mut data = CubeData::new();
        for (k, v) in tuples {
            data.insert(k, v)?;
        }
        Ok(data)
    }

    /// Row of a tuple, if defined. Interns read-only: a tuple holding a
    /// string the pool has never seen is undefined without a probe.
    fn row_of(&self, key: &[DimValue]) -> Option<usize> {
        const INLINE: usize = 8;
        let mut buf = [IDim::Int(0); INLINE];
        let row = if key.len() <= INLINE {
            for (slot, v) in buf.iter_mut().zip(key) {
                *slot = self.pool.lookup_value(v)?;
            }
            self.batch.row_of(&buf[..key.len()])
        } else {
            self.batch.row_of(&self.pool.lookup_tuple(key)?)
        };
        row.map(|r| r as usize)
    }

    /// Append a tuple known to be undefined, interning it (copy-on-write
    /// on a shared pool only when it holds a new string).
    fn push_new(&mut self, key: &[DimValue], value: f64) {
        let ikey = match self.pool.lookup_tuple(key) {
            Some(k) => k,
            None => Arc::make_mut(&mut self.pool).intern_tuple(key),
        };
        Arc::make_mut(&mut self.batch).push(ikey, value);
    }

    /// Insert one tuple. Fails with [`ModelError::FunctionalViolation`] when
    /// the point is already defined with a *different* measure; re-inserting
    /// the identical measure is a no-op (set semantics).
    pub fn insert(&mut self, key: DimTuple, value: f64) -> Result<(), ModelError> {
        match self.row_of(&key) {
            Some(row) => {
                let old = self.batch.measures()[row];
                if old.to_bits() != value.to_bits() {
                    return Err(ModelError::FunctionalViolation {
                        key: format_tuple(&key),
                        old,
                        new: value,
                    });
                }
                Ok(())
            }
            None => {
                self.push_new(&key, value);
                Ok(())
            }
        }
    }

    /// Insert, silently overwriting any previous value. Used by data
    /// loading paths that model "latest observation wins" revisions.
    pub fn insert_overwrite(&mut self, key: DimTuple, value: f64) {
        match self.row_of(&key) {
            Some(row) => Arc::make_mut(&mut self.batch).measures_mut()[row] = value,
            None => self.push_new(&key, value),
        }
    }

    /// Remove a point, returning its measure if it was defined. Used by
    /// vintage-update deltas that retract observations. A miss does not
    /// trigger the copy-on-write clone. The last row moves into the
    /// removed one's place.
    pub fn remove(&mut self, key: &[DimValue]) -> Option<f64> {
        let row = self.row_of(key)?;
        Some(Arc::make_mut(&mut self.batch).swap_remove(row).1)
    }

    /// Address of the shared batch. Two cubes with equal `storage_ptr`
    /// hold the *same* `Arc`'d batch and are therefore equal; the engine
    /// uses this for per-run fingerprint memoization (the memo retains a
    /// clone of the cube, keeping the address alive and unique for as
    /// long as the memo entry exists).
    pub fn storage_ptr(&self) -> usize {
        Arc::as_ptr(&self.batch) as usize
    }

    /// Measure at a point, if defined.
    pub fn get(&self, key: &[DimValue]) -> Option<f64> {
        self.row_of(key).map(|row| self.batch.measures()[row])
    }

    /// Number of points on which the cube is defined.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True when the cube is defined nowhere.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Iterate in row order, resolving each key to an owned tuple —
    /// deterministic for a given build history, but *not* sorted. Use
    /// only where order does not matter; anything user-visible goes
    /// through [`CubeData::iter_sorted`], and hot paths read
    /// [`CubeData::batch`] instead.
    pub fn iter(&self) -> impl Iterator<Item = (DimTuple, f64)> + '_ {
        self.batch
            .iter()
            .map(|(k, v)| (self.pool.resolve_tuple(k), v))
    }

    /// Row numbers in the dimension tuple's total order (strings by
    /// contents, whatever the pool's symbol order).
    pub fn sorted_rows(&self) -> Vec<u32> {
        let ranks = self.pool.ranks();
        let keys = self.batch.keys();
        let mut rows: Vec<u32> = (0..keys.len() as u32).collect();
        rows.sort_unstable_by(|&a, &b| cmp_ranked(&keys[a as usize], &keys[b as usize], &ranks));
        rows
    }

    /// Iterate in the dimension tuple's total order. This is the sorted
    /// boundary: serialization, export, display, and backend loading all
    /// observe this order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (DimTuple, f64)> + '_ {
        self.sorted_rows().into_iter().map(|r| {
            let r = r as usize;
            (
                self.batch.resolve_row(r, &self.pool),
                self.batch.measures()[r],
            )
        })
    }

    /// Sorted list of `(tuple, measure)` pairs.
    pub fn to_tuples(&self) -> Vec<(DimTuple, f64)> {
        self.iter_sorted().collect()
    }

    /// Project keys on the given dimension indices, deduplicating.
    pub fn project_keys(&self, indices: &[usize]) -> Vec<DimTuple> {
        let mut out: Vec<DimTuple> = self
            .batch
            .keys()
            .iter()
            .map(|k| {
                indices
                    .iter()
                    .map(|&i| self.pool.resolve_value(k[i]))
                    .collect()
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when every point of `self` is defined in `other` with a
    /// measure `same` accepts. With equal lengths that is equality of
    /// the two functions, whatever pools the keys live in.
    fn matches(&self, other: &CubeData, same: impl Fn(f64, f64) -> bool) -> bool {
        if self.len() != other.len() {
            return false;
        }
        // keys valid in (an extension of) `other`'s pool: shared when the
        // pools agree, remapped into a private copy otherwise
        let mut pool = other.pool.clone();
        let mine = self.batch_in(&mut pool);
        let all = mine
            .iter()
            .all(|(k, v)| other.batch.get(k).is_some_and(|w| same(v, w)));
        all
    }

    /// Compare to another cube with relative tolerance on measures: same
    /// domain, approximately equal values. Used for cross-backend checks.
    pub fn approx_eq(&self, other: &CubeData, rel_tol: f64) -> bool {
        self.matches(other, |v, w| crate::value::approx_eq(v, w, rel_tol))
    }

    /// A human-readable diff against another cube, for test failure
    /// messages. Returns `None` when `approx_eq` holds.
    pub fn diff(&self, other: &CubeData, rel_tol: f64) -> Option<String> {
        if self.approx_eq(other, rel_tol) {
            return None;
        }
        let mut lines = Vec::new();
        for (k, v) in self.iter_sorted() {
            match other.get(&k) {
                None => lines.push(format!("  only left : {} -> {v}", format_tuple(&k))),
                Some(w) if !crate::value::approx_eq(v, w, rel_tol) => {
                    lines.push(format!("  differs   : {} -> {v} vs {w}", format_tuple(&k)))
                }
                _ => {}
            }
        }
        for (k, v) in other.iter_sorted() {
            if self.get(&k).is_none() {
                lines.push(format!("  only right: {} -> {v}", format_tuple(&k)));
            }
        }
        Some(lines.join("\n"))
    }
}

impl PartialEq for CubeData {
    /// Equality of the two functions (measures compared with `==`),
    /// independent of row order and of the pools' symbol assignment.
    fn eq(&self, other: &CubeData) -> bool {
        self.matches(other, |v, w| v == w)
    }
}

impl fmt::Debug for CubeData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_sorted()).finish()
    }
}

impl serde::Serialize for CubeData {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // JSON objects cannot key on tuples; serialize as a sorted pair
        // list so snapshots stay byte-stable
        serializer.collect_seq(self.iter_sorted())
    }
}

impl<'de> serde::Deserialize<'de> for CubeData {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(DimTuple, f64)> = Vec::deserialize(deserializer)?;
        CubeData::from_tuples(pairs).map_err(serde::de::Error::custom)
    }
}

impl fmt::Display for CubeData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter_sorted() {
            writeln!(f, "({}) -> {v}", format_tuple(&k))?;
        }
        Ok(())
    }
}

/// Format a dimension tuple for diagnostics.
pub fn format_tuple(t: &[DimValue]) -> String {
    t.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// A schema together with its data — the unit that moves between engines.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cube {
    /// The cube's schema.
    pub schema: CubeSchema,
    /// The cube's tuples.
    pub data: CubeData,
}

impl Cube {
    /// Pair a schema with (already validated) data.
    pub fn new(schema: CubeSchema, data: CubeData) -> Cube {
        Cube { schema, data }
    }

    /// Validate that every tuple's arity and dimension types match the
    /// schema. Data created through typed constructors is valid by
    /// construction; this guards cross-engine imports.
    pub fn validate(&self) -> Result<(), ModelError> {
        for k in self.data.batch().keys() {
            if k.len() != self.schema.arity() {
                return Err(ModelError::ArityMismatch {
                    cube: self.schema.id.to_string(),
                    expected: self.schema.arity(),
                    got: k.len(),
                });
            }
            for (dim, val) in self.schema.dims.iter().zip(k.iter()) {
                if val.dim_type() != dim.ty {
                    return Err(ModelError::TypeMismatch {
                        cube: self.schema.id.to_string(),
                        dim: dim.name.clone(),
                        expected: dim.ty.to_string(),
                        got: val.dim_type().to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CubeKind, Dimension};
    use crate::time::{Frequency, TimePoint};
    use crate::value::DimType;

    fn q(y: i32, n: u32) -> DimValue {
        DimValue::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    #[test]
    fn insert_and_get() {
        let mut c = CubeData::new();
        c.insert(vec![q(2020, 1), DimValue::str("north")], 10.0)
            .unwrap();
        assert_eq!(c.get(&[q(2020, 1), DimValue::str("north")]), Some(10.0));
        assert_eq!(c.get(&[q(2020, 2), DimValue::str("north")]), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_same_value_is_noop() {
        let mut c = CubeData::new();
        c.insert(vec![DimValue::Int(1)], 2.0).unwrap();
        c.insert(vec![DimValue::Int(1)], 2.0).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn functional_violation_detected() {
        let mut c = CubeData::new();
        c.insert(vec![DimValue::Int(1)], 2.0).unwrap();
        let err = c.insert(vec![DimValue::Int(1)], 3.0).unwrap_err();
        assert!(matches!(err, ModelError::FunctionalViolation { .. }));
    }

    #[test]
    fn overwrite_bypasses_functionality() {
        let mut c = CubeData::new();
        c.insert_overwrite(vec![DimValue::Int(1)], 2.0);
        c.insert_overwrite(vec![DimValue::Int(1)], 3.0);
        assert_eq!(c.get(&[DimValue::Int(1)]), Some(3.0));
    }

    #[test]
    fn sorted_iteration_is_sorted() {
        let mut c = CubeData::new();
        c.insert(vec![DimValue::Int(3)], 1.0).unwrap();
        c.insert(vec![DimValue::Int(1)], 1.0).unwrap();
        c.insert(vec![DimValue::Int(2)], 1.0).unwrap();
        let keys: Vec<i64> = c
            .iter_sorted()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
        // unsorted iteration still visits every tuple exactly once
        let mut all: Vec<i64> = c.iter().map(|(k, _)| k[0].as_int().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn to_tuples_is_sorted() {
        let mut c = CubeData::new();
        for i in [9i64, 4, 7, 1, 8] {
            c.insert(vec![DimValue::Int(i)], i as f64).unwrap();
        }
        let keys: Vec<i64> = c
            .to_tuples()
            .into_iter()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 4, 7, 8, 9]);
    }

    #[test]
    fn project_keys_dedups() {
        let mut c = CubeData::new();
        c.insert(vec![q(2020, 1), DimValue::str("a")], 1.0).unwrap();
        c.insert(vec![q(2020, 1), DimValue::str("b")], 2.0).unwrap();
        c.insert(vec![q(2020, 2), DimValue::str("a")], 3.0).unwrap();
        let quarters = c.project_keys(&[0]);
        assert_eq!(quarters.len(), 2);
        let regions = c.project_keys(&[1]);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap();
        let b = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0 + 1e-13)]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        assert!(a.diff(&b, 1e-9).is_none());
        let c = CubeData::from_tuples(vec![(vec![DimValue::Int(2)], 1.0)]).unwrap();
        assert!(!a.approx_eq(&c, 1e-9));
        let d = a.diff(&c, 1e-9).unwrap();
        assert!(d.contains("only left"), "{d}");
        assert!(d.contains("only right"), "{d}");
    }

    #[test]
    fn serde_round_trip() {
        let mut c = CubeData::new();
        c.insert(vec![q(2020, 1), DimValue::str("n")], 1.5).unwrap();
        c.insert(vec![q(2020, 2), DimValue::str("s")], -2.0)
            .unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: CubeData = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn serialization_order_is_insertion_independent() {
        let mut fwd = CubeData::new();
        let mut rev = CubeData::new();
        let tuples: Vec<(DimTuple, f64)> = (0..50)
            .map(|i| (vec![DimValue::Int(i), DimValue::str("r")], i as f64))
            .collect();
        for (k, v) in &tuples {
            fwd.insert(k.clone(), *v).unwrap();
        }
        for (k, v) in tuples.iter().rev() {
            rev.insert(k.clone(), *v).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap()
        );
        assert_eq!(fwd.to_string(), rev.to_string());
    }

    #[test]
    fn equality_is_independent_of_pool_and_row_order() {
        let rows: Vec<(DimTuple, f64)> = ["b", "a", "c"]
            .iter()
            .enumerate()
            .map(|(i, r)| (vec![q(2020, 1), DimValue::str(*r)], i as f64))
            .collect();
        let fwd = CubeData::from_tuples(rows.clone()).unwrap();
        let rev = CubeData::from_tuples(rows.into_iter().rev()).unwrap();
        assert!(!fwd.pool().compatible(rev.pool()));
        assert_eq!(fwd, rev);
        let mut other = rev.clone();
        other.insert_overwrite(vec![q(2020, 1), DimValue::str("a")], 9.0);
        assert_ne!(fwd, other);
        assert_eq!(rev.get(&[q(2020, 1), DimValue::str("a")]), Some(1.0));
    }

    #[test]
    fn clones_share_until_written() {
        let mut a = CubeData::new();
        a.insert(vec![DimValue::str("x")], 1.0).unwrap();
        let mut b = a.clone();
        assert_eq!(a.storage_ptr(), b.storage_ptr());
        // a miss, and a write of a known string, leave the pool shared
        assert_eq!(b.remove(&[DimValue::str("nope")]), None);
        assert_eq!(a.storage_ptr(), b.storage_ptr());
        b.insert_overwrite(vec![DimValue::str("x")], 2.0);
        assert_ne!(a.storage_ptr(), b.storage_ptr());
        assert!(std::sync::Arc::ptr_eq(a.pool(), b.pool()));
        assert_eq!(a.get(&[DimValue::str("x")]), Some(1.0));
        // a new string extends a private copy of the pool
        b.insert(vec![DimValue::str("y")], 3.0).unwrap();
        assert!(!std::sync::Arc::ptr_eq(a.pool(), b.pool()));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn batch_in_adopts_or_remaps() {
        let a = CubeData::from_tuples(vec![(vec![DimValue::str("x")], 1.0)]).unwrap();
        let b = CubeData::from_tuples(vec![(vec![DimValue::str("y")], 2.0)]).unwrap();
        let mut pool = std::sync::Arc::new(DimPool::new());
        let shared = a.batch_in(&mut pool);
        assert!(std::sync::Arc::ptr_eq(&pool, a.pool()));
        assert!(std::sync::Arc::ptr_eq(&shared, &a.batch));
        let remapped = b.batch_in(&mut pool);
        assert_eq!(pool.len(), 2);
        assert_eq!(
            CubeData::from_shared(remapped, pool.clone()),
            b,
            "remapped keys resolve to the same tuples"
        );
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let schema = CubeSchema::new(
            "C",
            vec![Dimension::new("q", DimType::Time(Frequency::Quarterly))],
            CubeKind::Elementary,
        );
        let good = Cube::new(
            schema.clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 1.0)]).unwrap(),
        );
        good.validate().unwrap();

        let bad_arity = Cube::new(
            schema.clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1), DimValue::Int(1)], 1.0)]).unwrap(),
        );
        assert!(matches!(
            bad_arity.validate(),
            Err(ModelError::ArityMismatch { .. })
        ));

        let bad_type = Cube::new(
            schema,
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
        );
        assert!(matches!(
            bad_type.validate(),
            Err(ModelError::TypeMismatch { .. })
        ));
    }
}
