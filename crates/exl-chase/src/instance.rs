//! Running instances for the chase.
//!
//! Unlike [`exl_model::CubeData`] — which is a map and therefore functional
//! *by construction* — a chase [`Instance`] stores raw fact sets per
//! relation. Functionality is a constraint to be **checked** (the egds of
//! §4.1), so the paper's "the chase does not fail" argument is genuinely
//! exercised: a buggy rule, an unstratified application order, or
//! non-functional base data produce real, detectable egd violations.
//!
//! Storage is columnar and interned: the instance owns a [`DimPool`] and
//! every relation keeps flat `IKey` rows in parallel key/measure columns,
//! with a hash index from key to its first row and an intrusive chain
//! linking conflicting rows (distinct measures derived for the same key).
//! Rows iterate in insertion order, which is deterministic for a given
//! source dataset and rule order; sorted output happens only at the
//! dataset boundary ([`Instance::to_dataset`] goes through `CubeData`,
//! whose exports are sorted).

use std::collections::BTreeMap;

use exl_model::hash::FxHashMap;
use exl_model::intern::{DimPool, IDim, IKey};
use exl_model::schema::CubeId;
use exl_model::value::Measure;
use exl_model::{Cube, CubeData, CubeSchema, Dataset, DimTuple};

/// A fact: a dimension tuple plus its measure.
pub type Fact = (DimTuple, f64);

/// Sentinel for "no next row in the conflict chain".
const NO_ROW: u32 = u32::MAX;

/// Facts of one relation, with set semantics (re-deriving an identical
/// fact is a no-op) and conflict detection.
///
/// Keys are interned ([`IKey`]) against the owning [`Instance`]'s pool;
/// rows live in insertion order. A functional relation has exactly one
/// row per key; extra rows (reachable through the conflict chain) are egd
/// violations, counted separately from [`Relation::len`].
#[derive(Debug, Clone, Default)]
pub struct Relation {
    keys: Vec<IKey>,
    measures: Vec<f64>,
    /// `next[i]` chains to the next row with the same key (`NO_ROW` ends
    /// the chain).
    next: Vec<u32>,
    /// Key → first row with that key.
    index: FxHashMap<IKey, u32>,
    /// First row that recorded a *second* distinct measure for its key,
    /// if any — O(1) egd violation lookup.
    first_conflict: Option<u32>,
}

impl Relation {
    /// Insert an interned fact. Returns `true` when the fact is new (not
    /// already present with the same measure).
    pub fn insert(&mut self, key: IKey, value: f64) -> bool {
        let m = Measure(value);
        if let Some(&first) = self.index.get(&key) {
            let mut row = first;
            loop {
                if Measure(self.measures[row as usize]) == m {
                    return false;
                }
                match self.next[row as usize] {
                    NO_ROW => break,
                    n => row = n,
                }
            }
            // a second distinct measure for this key: a conflict row
            let new_row = self.push_row(key, value);
            self.next[row as usize] = new_row;
            self.first_conflict.get_or_insert(new_row);
            true
        } else {
            let new_row = self.push_row(key.clone(), value);
            self.index.insert(key, new_row);
            true
        }
    }

    fn push_row(&mut self, key: IKey, value: f64) -> u32 {
        let row = u32::try_from(self.keys.len()).expect("relation row overflow");
        self.keys.push(key);
        self.measures.push(value);
        self.next.push(NO_ROW);
        row
    }

    /// Number of *functional* facts: distinct dimension keys. Conflicting
    /// re-derivations do not inflate this — see
    /// [`Relation::conflict_count`].
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of conflict rows: distinct measures recorded beyond the
    /// first for some key. Non-zero means the functionality egd is
    /// violated.
    pub fn conflict_count(&self) -> usize {
        self.keys.len() - self.index.len()
    }

    /// Total stored rows, conflicts included.
    pub fn rows(&self) -> usize {
        self.keys.len()
    }

    /// True when the relation holds no facts.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate all rows in insertion order (each key may yield several
    /// measures when the relation is non-functional).
    pub fn iter(&self) -> impl Iterator<Item = (&[IDim], f64)> {
        self.keys
            .iter()
            .zip(self.measures.iter())
            .map(|(k, &v)| (k.as_ref(), v))
    }

    /// One row by position (insertion order).
    pub fn row(&self, row: usize) -> (&[IDim], f64) {
        (self.keys[row].as_ref(), self.measures[row])
    }

    /// The first measure stored for a key, if any.
    pub fn get_first(&self, key: &[IDim]) -> Option<f64> {
        self.index.get(key).map(|&row| self.measures[row as usize])
    }

    /// True when some row exists for this key.
    pub fn contains_key(&self, key: &[IDim]) -> bool {
        self.index.contains_key(key)
    }

    /// The first egd violation, if any: a key with two distinct measures.
    pub fn egd_violation(&self) -> Option<(&[IDim], f64, f64)> {
        let conflict_row = self.first_conflict? as usize;
        let key = self.keys[conflict_row].as_ref();
        let first_row = self.index[&self.keys[conflict_row]] as usize;
        Some((key, self.measures[first_row], self.measures[conflict_row]))
    }

    /// Convert to functional cube data, resolving keys through `pool`.
    /// Panics on a non-functional relation — call
    /// [`Relation::egd_violation`] first.
    pub fn to_cube_data(&self, pool: &DimPool) -> CubeData {
        assert!(self.first_conflict.is_none(), "relation is not functional");
        let mut out = CubeData::with_capacity(self.keys.len());
        for (k, v) in self.iter() {
            out.insert_overwrite(pool.resolve_tuple(k), v);
        }
        out
    }
}

/// A chase instance: relations keyed by name, sharing one dimension pool.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    pool: DimPool,
    relations: BTreeMap<CubeId, Relation>,
}

impl Instance {
    /// Empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Build a source instance from a dataset. Facts are interned and
    /// inserted in each cube's sorted order, so row order is independent
    /// of the dataset's internal storage.
    pub fn from_dataset(ds: &Dataset) -> Instance {
        let mut inst = Instance::new();
        for (id, cube) in ds.iter() {
            let rel = inst.relations.entry(id.clone()).or_default();
            for (k, v) in cube.data.iter_sorted() {
                rel.insert(inst.pool.intern_tuple(&k), v);
            }
        }
        inst
    }

    /// The shared dimension pool.
    pub fn pool(&self) -> &DimPool {
        &self.pool
    }

    /// Mutable pool access (interning new values before insertion).
    pub fn pool_mut(&mut self) -> &mut DimPool {
        &mut self.pool
    }

    /// The relation with the given name, if ever touched.
    pub fn relation(&self, id: &CubeId) -> Option<&Relation> {
        self.relations.get(id)
    }

    /// Mutable relation access, creating it if needed.
    pub fn relation_mut(&mut self, id: &CubeId) -> &mut Relation {
        self.relations.entry(id.clone()).or_default()
    }

    /// Split borrow: mutable target relation plus the (shared) pool —
    /// the shape fact emission needs.
    pub fn relation_mut_and_pool(&mut self, id: &CubeId) -> (&mut Relation, &mut DimPool) {
        (
            self.relations.entry(id.clone()).or_default(),
            &mut self.pool,
        )
    }

    /// Insert an un-interned fact into a relation. Returns `true` when new.
    pub fn insert(&mut self, id: &CubeId, key: DimTuple, value: f64) -> bool {
        let ikey = self.pool.intern_tuple(&key);
        self.relation_mut(id).insert(ikey, value)
    }

    /// Insert an already-interned fact. Returns `true` when new.
    pub fn insert_interned(&mut self, id: &CubeId, key: IKey, value: f64) -> bool {
        self.relation_mut(id).insert(key, value)
    }

    /// Total functional fact count (distinct keys across relations).
    /// Conflicts are reported separately by
    /// [`Instance::total_conflicts`], so an egd violation no longer
    /// inflates run reports.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Total conflict rows across relations (non-zero only while an egd
    /// is violated).
    pub fn total_conflicts(&self) -> usize {
        self.relations.values().map(|r| r.conflict_count()).sum()
    }

    /// First egd violation across all relations, with the key resolved
    /// back to dimension values.
    pub fn egd_violation(&self) -> Option<(CubeId, DimTuple, f64, f64)> {
        for (id, rel) in &self.relations {
            if let Some((k, a, b)) = rel.egd_violation() {
                return Some((id.clone(), self.pool.resolve_tuple(k), a, b));
            }
        }
        None
    }

    /// Convert to a dataset using the provided schemas. Relations without a
    /// schema are skipped; panics on non-functional relations.
    pub fn to_dataset(&self, schemas: &BTreeMap<CubeId, CubeSchema>) -> Dataset {
        let mut ds = Dataset::new();
        for (id, rel) in &self.relations {
            if let Some(schema) = schemas.get(id) {
                ds.put(Cube::new(schema.clone(), rel.to_cube_data(&self.pool)));
            }
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_model::value::DimValue;

    fn k(i: i64) -> DimTuple {
        vec![DimValue::Int(i)]
    }

    fn ik(pool: &mut DimPool, i: i64) -> IKey {
        pool.intern_tuple(&k(i))
    }

    #[test]
    fn set_semantics() {
        let mut pool = DimPool::new();
        let mut r = Relation::default();
        assert!(r.insert(ik(&mut pool, 1), 2.0));
        assert!(!r.insert(ik(&mut pool, 1), 2.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.conflict_count(), 0);
        assert!(r.egd_violation().is_none());
    }

    #[test]
    fn conflicting_facts_are_recorded_not_counted_as_facts() {
        let mut pool = DimPool::new();
        let mut r = Relation::default();
        r.insert(ik(&mut pool, 1), 2.0);
        assert!(r.insert(ik(&mut pool, 1), 3.0));
        // one functional key, one conflict — the conflict no longer
        // inflates the fact count
        assert_eq!(r.len(), 1);
        assert_eq!(r.conflict_count(), 1);
        assert_eq!(r.rows(), 2);
        let (key, a, b) = r.egd_violation().unwrap();
        assert_eq!(pool.resolve_tuple(key), k(1));
        assert_eq!((a, b), (2.0, 3.0));
        // re-deriving either existing measure is still a no-op
        assert!(!r.insert(ik(&mut pool, 1), 2.0));
        assert!(!r.insert(ik(&mut pool, 1), 3.0));
        assert_eq!(r.conflict_count(), 1);
    }

    #[test]
    fn three_way_conflicts_chain() {
        let mut pool = DimPool::new();
        let mut r = Relation::default();
        r.insert(ik(&mut pool, 7), 1.0);
        r.insert(ik(&mut pool, 7), 2.0);
        r.insert(ik(&mut pool, 7), 3.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.conflict_count(), 2);
        assert_eq!(r.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "not functional")]
    fn to_cube_data_panics_on_violation() {
        let mut pool = DimPool::new();
        let mut r = Relation::default();
        r.insert(ik(&mut pool, 1), 2.0);
        r.insert(ik(&mut pool, 1), 3.0);
        let _ = r.to_cube_data(&pool);
    }

    #[test]
    fn instance_separates_facts_from_conflicts() {
        let mut inst = Instance::new();
        let id = CubeId::new("A");
        inst.insert(&id, k(1), 1.0);
        inst.insert(&id, k(2), 2.0);
        inst.insert(&id, k(2), 9.0);
        assert_eq!(inst.total_facts(), 2);
        assert_eq!(inst.total_conflicts(), 1);
        let (rel, key, a, b) = inst.egd_violation().unwrap();
        assert_eq!(rel, id);
        assert_eq!(key, k(2));
        assert_eq!((a, b), (2.0, 9.0));
    }

    #[test]
    fn instance_round_trip_via_dataset() {
        use exl_model::schema::{CubeKind, Dimension};
        use exl_model::value::DimType;
        let schema = CubeSchema::new(
            "A",
            vec![Dimension::new("k", DimType::Int)],
            CubeKind::Elementary,
        );
        let data = CubeData::from_tuples(vec![(k(1), 5.0), (k(2), 6.0)]).unwrap();
        let mut ds = Dataset::new();
        ds.put(Cube::new(schema.clone(), data));
        let inst = Instance::from_dataset(&ds);
        assert_eq!(inst.total_facts(), 2);
        let mut schemas = BTreeMap::new();
        schemas.insert(CubeId::new("A"), schema);
        let back = inst.to_dataset(&schemas);
        assert!(ds.approx_eq_report(&back, 0.0).is_ok());
    }
}
