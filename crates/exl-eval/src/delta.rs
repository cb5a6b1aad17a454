//! Delta-aware incremental re-evaluation of statements.
//!
//! A vintage update touches a handful of observations; recomputing every
//! derived cube from zero throws that sparsity away. This module
//! re-evaluates a statement from its *previous* inputs and output plus the
//! current inputs, recomputing only what the changed keys can reach:
//!
//! * **Keyed statements** — expression trees built from the tuple-level
//!   operators (scalar/vectorial arithmetic, unary maps, `shift`) compute
//!   each output key from a fixed set of aligned input keys. The affected
//!   output keys are the forward images of the changed input keys through
//!   the tree's shift chain; the statement is re-evaluated on the inputs
//!   restricted to their preimages and the previous output is patched.
//! * **Grouped statements** — a root aggregation over a tuple-level
//!   argument recomputes only the touched groups, feeding each one its
//!   *complete* bag (the *algebraic aggregate* maintenance of Gray et
//!   al.'s data cube, specialized to whole-group replay so the fold order
//!   — and therefore every float — matches the cold path bit for bit).
//! * **Series statements** — a root series operator (`stl_*`, `cumsum`,
//!   `movavg`, …) over a tuple-level argument replays only the touched
//!   *slices* (one per combination of non-time dimension values), each
//!   through the same series kernel over its complete rows. When the
//!   changed keys touch every slice — a single-series statement such as
//!   the GDP program's `stl_trend(GDP)` — there is nothing to skip and
//!   the caller recomputes in full.
//! * Everything else — series operators or aggregations nested below the
//!   root — is whole-cube: any changed key can move every output value,
//!   so the caller must fall back to a full recompute.
//!
//! The contract, pinned by the `incremental_differential` suite, is
//! **bit-identity**: a patched output equals the cold from-scratch output
//! of [`eval_statement`](crate::eval_statement) on the current inputs,
//! bit for bit. This holds because affected keys/groups are recomputed
//! by the very same kernels over the very same (restricted) rows, and
//! unaffected keys keep values that were themselves cold-path results.
//!
//! The kernels run on interned batches: current inputs, previous inputs
//! and the previous output are brought into one pool (shared as-is when
//! their pools agree, as every catalog version's does), changed keys are
//! found by probing interned columns, and the patched output leaves as
//! [`CubeData`] over that pool.

use std::sync::Arc;

use exl_lang::ast::{Expr, Statement};
use exl_model::batch::CubeBatch;
use exl_model::hash::{FxHashMap, FxHashSet};
use exl_model::intern::{DimPool, IDim, IKey};
use exl_model::schema::{CubeId, Dimension};
use exl_model::{CubeData, Dataset, DimTuple};

use crate::error::EvalError;
use crate::eval::{eval_statement_batches, key_parts, part_idim, resolve_time_index};

/// Keys on which two versions of a cube differ: inserted, updated (by
/// measure bits — the cache promises bit-identical replay), or removed.
/// Versions whose pools agree (catalog versions always do) compare their
/// interned columns directly; only the differing keys are resolved.
pub fn changed_keys(old: &CubeData, new: &CubeData) -> Vec<DimTuple> {
    let mut pool = new.pool().clone();
    let new_batch = new.batch_in(&mut pool);
    let old_batch = old.batch_in(&mut pool);
    changed_ikeys(&old_batch, &new_batch)
        .iter()
        .map(|k| pool.resolve_tuple(k))
        .collect()
}

/// [`changed_keys`] over two batches keyed in one pool.
fn changed_ikeys(old: &CubeBatch, new: &CubeBatch) -> Vec<IKey> {
    let mut out = Vec::new();
    for (k, v) in new.iter() {
        match old.get(k) {
            Some(o) if o.to_bits() == v.to_bits() => {}
            _ => out.push(k.clone()),
        }
    }
    for (k, _) in old.iter() {
        if !new.contains(k) {
            out.push(k.clone());
        }
    }
    out
}

/// How a statement can be maintained incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaShape {
    /// Tuple-level tree: patch affected output keys.
    Keyed,
    /// Root aggregation over a tuple-level argument: replay touched
    /// groups with their full bags.
    Grouped,
    /// Root series operator over a tuple-level argument: replay touched
    /// slices in full.
    Series,
    /// Whole-cube (nested series operators or aggregations): always
    /// recompute from scratch.
    Full,
}

/// Classify an expression for incremental maintenance.
pub fn delta_shape(expr: &Expr) -> DeltaShape {
    if tuple_level(expr) {
        return DeltaShape::Keyed;
    }
    match expr {
        Expr::Aggregate { arg, .. } if tuple_level(arg) => DeltaShape::Grouped,
        Expr::SeriesFn { arg, .. } if tuple_level(arg) => DeltaShape::Series,
        _ => DeltaShape::Full,
    }
}

/// True when the tree contains only per-key operators: each output key's
/// value depends on a fixed set of input keys (its shift preimages).
fn tuple_level(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) | Expr::Cube(_) => true,
        Expr::Unary { arg, .. } | Expr::Shift { arg, .. } => tuple_level(arg),
        Expr::Binary { lhs, rhs, .. } => tuple_level(lhs) && tuple_level(rhs),
        Expr::Aggregate { .. } | Expr::SeriesFn { .. } => false,
    }
}

/// True when a series statement's argument has a dimension besides time,
/// so it can hold more than one slice. A single series is touched by any
/// delta: replaying it is the cold path.
fn sliced(expr: &Expr, env: &Dataset) -> bool {
    let Expr::SeriesFn { arg, .. } = expr else {
        return false;
    };
    dims_of(arg, env).is_some_and(|dims| dims.len() > 1)
}

/// One cube occurrence in a tuple-level tree, with the shift steps
/// between it and the tree's root. Shifts on a key are per-dimension
/// additions, so they commute and the step order does not matter.
struct Leaf {
    id: CubeId,
    chain: Vec<(usize, i64)>,
}

/// Dimensions of a tuple-level subexpression (all nodes of such a tree
/// share one positional key space — binary operators align operands
/// positionally and take the left side's dimensions).
fn dims_of(expr: &Expr, env: &Dataset) -> Option<Vec<Dimension>> {
    match expr {
        Expr::Cube(id) => env.get(id).map(|c| c.schema.dims.clone()),
        Expr::Unary { arg, .. } | Expr::Shift { arg, .. } => dims_of(arg, env),
        Expr::Binary { lhs, rhs, .. } => dims_of(lhs, env).or_else(|| dims_of(rhs, env)),
        Expr::Number(_) | Expr::Aggregate { .. } | Expr::SeriesFn { .. } => None,
    }
}

/// Collect every cube occurrence of a tuple-level tree with its shift
/// chain. `None` means the tree cannot be mapped (a shift dimension did
/// not resolve) and the caller must fall back to a full recompute.
fn collect_leaves(
    expr: &Expr,
    env: &Dataset,
    chain: &mut Vec<(usize, i64)>,
    out: &mut Vec<Leaf>,
) -> Option<()> {
    match expr {
        Expr::Number(_) => Some(()),
        Expr::Cube(id) => {
            out.push(Leaf {
                id: id.clone(),
                chain: chain.clone(),
            });
            Some(())
        }
        Expr::Unary { arg, .. } => collect_leaves(arg, env, chain, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_leaves(lhs, env, chain, out)?;
            collect_leaves(rhs, env, chain, out)
        }
        Expr::Shift { arg, offset, dim } => {
            let dims = dims_of(arg, env)?;
            let idx = match dim.as_deref() {
                Some(name) => dims.iter().position(|d| d.name == name)?,
                None => dims.iter().position(|d| d.ty.is_time())?,
            };
            chain.push((idx, *offset));
            let r = collect_leaves(arg, env, chain, out);
            chain.pop();
            r
        }
        Expr::Aggregate { .. } | Expr::SeriesFn { .. } => None,
    }
}

/// Map a key through a shift chain (`sign = 1` leaf→root forward image,
/// `sign = -1` root→leaf preimage), mirroring the evaluator's shift
/// semantics exactly. `None` when a shifted dimension holds a value the
/// evaluator would reject (or an integer overflows) — the caller bails
/// to a full recompute so errors surface on the cold path.
fn shift_key(key: &IKey, chain: &[(usize, i64)], sign: i64) -> Option<IKey> {
    if chain.is_empty() {
        return Some(key.clone());
    }
    let mut k: Vec<IDim> = key.to_vec();
    for &(idx, off) in chain {
        let off = off.checked_mul(sign)?;
        let slot = k.get_mut(idx)?;
        *slot = match *slot {
            IDim::Time(t) => IDim::Time(t.shift(off)),
            IDim::Int(i) => IDim::Int(i.checked_add(off)?),
            IDim::Sym(_) => return None,
        };
    }
    Some(k.into())
}

/// The interned working set of one delta evaluation: the pool every
/// cube the statement touches was brought into, and the current inputs.
struct Work {
    pool: Arc<DimPool>,
    /// Current input batches and dimensions, by cube.
    inputs: FxHashMap<CubeId, (Vec<Dimension>, Arc<CubeBatch>)>,
}

impl Work {
    /// Evaluate `stmt` over restricted inputs and patch the previous
    /// output: drop every `affected` key, then take the patch's value
    /// for each patched key `keep` accepts.
    fn patch(
        &self,
        stmt: &Statement,
        restricted: Vec<(CubeId, Vec<Dimension>, Arc<CubeBatch>)>,
        prev_output: Arc<CubeBatch>,
        affected: &FxHashSet<IKey>,
        keep: impl Fn(&IKey) -> bool,
    ) -> Result<CubeData, EvalError> {
        let patch = eval_statement_batches(stmt, &self.pool, restricted)?;
        let mut out = Arc::unwrap_or_clone(prev_output);
        for k in affected {
            if let Some(row) = out.row_of(k) {
                out.swap_remove(row as usize);
            }
        }
        for (k, v) in patch.iter() {
            if keep(k) {
                out.insert_overwrite(k.clone(), v);
            }
        }
        Ok(CubeData::from_batch(out, self.pool.clone()))
    }
}

/// Incrementally re-evaluate `stmt` against the current inputs in `env`,
/// given the previous data of every input cube and the previous output.
///
/// Returns `Ok(None)` when the statement is not eligible (whole-cube
/// operators, unmapped shift dimensions, missing previous inputs, or a
/// delta too large for patching to pay off) — the caller falls back to
/// [`eval_statement`](crate::eval_statement). `Ok(Some(out))` is
/// bit-identical to `eval_statement(stmt, env)`.
pub fn eval_statement_delta(
    stmt: &Statement,
    env: &Dataset,
    prev_inputs: &FxHashMap<CubeId, CubeData>,
    prev_output: &CubeData,
) -> Result<Option<CubeData>, EvalError> {
    let shape = delta_shape(&stmt.expr);
    if shape == DeltaShape::Full || (shape == DeltaShape::Series && !sliced(&stmt.expr, env)) {
        return Ok(None);
    }

    // per-cube deltas between the previous and current inputs
    let refs = stmt.expr.cube_refs();
    let mut work = Work {
        pool: Arc::default(),
        inputs: FxHashMap::default(),
    };
    let mut deltas: FxHashMap<CubeId, Vec<IKey>> = FxHashMap::default();
    let mut total_rows = 0usize;
    for id in &refs {
        let Some(cur) = env.get(id) else {
            return Ok(None);
        };
        let Some(prev) = prev_inputs.get(id) else {
            return Ok(None);
        };
        total_rows += cur.data.len();
        let cur_batch = cur.data.batch_in(&mut work.pool);
        let delta = changed_ikeys(&prev.batch_in(&mut work.pool), &cur_batch);
        if !delta.is_empty() {
            deltas.insert(id.clone(), delta);
        }
        work.inputs
            .insert(id.clone(), (cur.schema.dims.clone(), cur_batch));
    }
    if deltas.is_empty() {
        // inputs are bit-identical to the previous run: the previous
        // output *is* the answer
        return Ok(Some(prev_output.clone()));
    }
    let prev_output = prev_output.batch_in(&mut work.pool);

    match shape {
        DeltaShape::Keyed => eval_keyed(stmt, env, &work, &deltas, prev_output, total_rows),
        DeltaShape::Grouped => eval_grouped(stmt, env, &work, &deltas, prev_output),
        DeltaShape::Series => eval_series(stmt, env, &work, &deltas, prev_output),
        DeltaShape::Full => unreachable!("rejected above"),
    }
}

/// Keyed patch: recompute exactly the forward images of the changed keys.
fn eval_keyed(
    stmt: &Statement,
    env: &Dataset,
    work: &Work,
    deltas: &FxHashMap<CubeId, Vec<IKey>>,
    prev_output: Arc<CubeBatch>,
    total_rows: usize,
) -> Result<Option<CubeData>, EvalError> {
    let mut leaves = Vec::new();
    if collect_leaves(&stmt.expr, env, &mut Vec::new(), &mut leaves).is_none() {
        return Ok(None);
    }

    // affected output keys: forward images of every changed key through
    // every occurrence of its cube
    let mut affected: FxHashSet<IKey> = FxHashSet::default();
    for leaf in &leaves {
        let Some(delta) = deltas.get(&leaf.id) else {
            continue;
        };
        for k in delta {
            match shift_key(k, &leaf.chain, 1) {
                Some(out_k) => {
                    affected.insert(out_k);
                }
                // a changed key the evaluator would reject (or overflow):
                // let the cold path raise the error
                None => return Ok(None),
            }
        }
    }
    // patching probes every leaf once per affected key; past that point
    // the full kernels are cheaper (the floor keeps small cubes eligible,
    // where either path is trivially cheap and bit-identity still pays)
    if affected.len().saturating_mul(leaves.len()) > total_rows.max(64) {
        return Ok(None);
    }

    // restrict every input to the preimages of the affected keys
    let mut restricted = Vec::new();
    for id in stmt.expr.cube_refs() {
        let (dims, cur) = &work.inputs[&id];
        let mut r = CubeBatch::new();
        for leaf in leaves.iter().filter(|l| l.id == id) {
            for out_k in &affected {
                // no preimage = no input row can land on this key
                if let Some(ik) = shift_key(out_k, &leaf.chain, -1) {
                    if let Some(v) = cur.get(&ik) {
                        r.insert_overwrite(ik, v);
                    }
                }
            }
        }
        restricted.push((id, dims.clone(), Arc::new(r)));
    }

    // the restricted inputs are complete only for the affected keys; a
    // key outside the set (e.g. an outer join defaulting where a partner
    // row was restricted away) is computed from partial inputs and must
    // NOT overwrite its still-correct previous value
    work.patch(stmt, restricted, prev_output, &affected, |k| {
        affected.contains(k)
    })
    .map(Some)
}

/// Grouped patch: replay the touched groups with their complete bags.
fn eval_grouped(
    stmt: &Statement,
    env: &Dataset,
    work: &Work,
    deltas: &FxHashMap<CubeId, Vec<IKey>>,
    prev_output: Arc<CubeBatch>,
) -> Result<Option<CubeData>, EvalError> {
    let Expr::Aggregate { arg, group_by, .. } = &stmt.expr else {
        unreachable!("classified as Grouped");
    };
    let Some(arg_dims) = dims_of(arg, env) else {
        return Ok(None);
    };
    if group_by.iter().any(|g| match g {
        exl_lang::ast::GroupKey::Dim(name) => !arg_dims.iter().any(|d| &d.name == name),
        exl_lang::ast::GroupKey::TimeMap { dim, .. } => !arg_dims.iter().any(|d| &d.name == dim),
    }) {
        return Ok(None);
    }
    let Ok(parts) = key_parts(&arg_dims, group_by) else {
        return Ok(None);
    };
    // a key the group-by rejects (wrong arity, non-time value where the
    // schema promised one) bails to the cold path, which raises the error
    let group_of = |k: &IKey| -> Option<IKey> {
        parts
            .iter()
            .map(|p| part_idim(p, k, &work.pool).ok())
            .collect()
    };
    let Some(touched) = touched_groups(arg, env, work, deltas, group_of) else {
        return Ok(None);
    };
    // an aggregation's output key is its group key; only touched groups
    // got their complete bags (see `Touched::restricted`)
    work.patch(
        stmt,
        touched.restricted,
        prev_output,
        &touched.groups,
        |k| touched.groups.contains(k),
    )
    .map(Some)
}

/// Series patch: replay the touched slices — one per combination of
/// non-time dimension values — each over its complete rows.
fn eval_series(
    stmt: &Statement,
    env: &Dataset,
    work: &Work,
    deltas: &FxHashMap<CubeId, Vec<IKey>>,
    prev_output: Arc<CubeBatch>,
) -> Result<Option<CubeData>, EvalError> {
    let Expr::SeriesFn { arg, .. } = &stmt.expr else {
        unreachable!("classified as Series");
    };
    let Some(arg_dims) = dims_of(arg, env) else {
        return Ok(None);
    };
    let Ok(time_idx) = resolve_time_index(&arg_dims, None) else {
        return Ok(None);
    };
    // the series kernel slices on exactly this projection
    let slice_of = |k: &IKey| -> IKey {
        k.iter()
            .enumerate()
            .filter(|(i, _)| *i != time_idx)
            .map(|(_, &d)| d)
            .collect()
    };
    let Some(touched) = touched_groups(arg, env, work, deltas, |k| Some(slice_of(k))) else {
        return Ok(None);
    };
    if touched.whole {
        // every slice is touched: the replay would be the cold path
        return Ok(None);
    }
    let stale: FxHashSet<IKey> = prev_output
        .keys()
        .iter()
        .filter(|k| touched.groups.contains(&slice_of(k)))
        .cloned()
        .collect();
    work.patch(stmt, touched.restricted, prev_output, &stale, |k| {
        touched.groups.contains(&slice_of(k))
    })
    .map(Some)
}

/// The groups a delta touches and the complete input rows that feed
/// them — see [`touched_groups`].
struct Touched {
    /// Group keys of the forward images of every changed key.
    groups: FxHashSet<IKey>,
    /// Every input of the argument, restricted to the rows whose forward
    /// image lands in a touched group. Complete for the touched groups
    /// only: a row kept for one leaf's chain can land in an untouched
    /// group through another leaf's chain without its partners there, so
    /// the replay's output outside the touched groups must be discarded.
    restricted: Vec<(CubeId, Vec<Dimension>, Arc<CubeBatch>)>,
    /// True when the restriction kept every input row.
    whole: bool,
}

/// Touched groups of a root operator over the tuple-level `arg`, where
/// `group_of` maps an argument key to its group. Restricting each input
/// to the rows whose forward image lands in a touched group hands every
/// touched group its complete rows and nothing else, so a replay through
/// the cold kernels is bit-identical for those groups. `None` when the
/// argument's leaves cannot be mapped or a key has no group (the cold
/// path then raises whatever error the key deserves).
fn touched_groups(
    arg: &Expr,
    env: &Dataset,
    work: &Work,
    deltas: &FxHashMap<CubeId, Vec<IKey>>,
    group_of: impl Fn(&IKey) -> Option<IKey>,
) -> Option<Touched> {
    let mut leaves = Vec::new();
    collect_leaves(arg, env, &mut Vec::new(), &mut leaves)?;
    let mut groups: FxHashSet<IKey> = FxHashSet::default();
    for leaf in &leaves {
        let Some(delta) = deltas.get(&leaf.id) else {
            continue;
        };
        for k in delta {
            groups.insert(shift_key(k, &leaf.chain, 1).and_then(|out_k| group_of(&out_k))?);
        }
    }
    let mut restricted = Vec::new();
    let mut whole = true;
    for id in arg.cube_refs() {
        let (dims, cur) = &work.inputs[&id];
        let chains: Vec<&Leaf> = leaves.iter().filter(|l| l.id == id).collect();
        let mut r = CubeBatch::new();
        for (k, v) in cur.iter() {
            for leaf in &chains {
                let g = shift_key(k, &leaf.chain, 1).and_then(|out_k| group_of(&out_k))?;
                if groups.contains(&g) {
                    r.push(k.clone(), v);
                    break;
                }
            }
        }
        whole &= r.len() == cur.len();
        restricted.push((id, dims.clone(), Arc::new(r)));
    }
    Some(Touched {
        groups,
        restricted,
        whole,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_statement;
    use exl_lang::{analyze, parse_program};
    use exl_model::time::TimePoint;
    use exl_model::value::DimValue;
    use exl_model::Cube;

    fn q(y: i32, n: u32) -> DimValue {
        DimValue::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    fn bits(data: &CubeData) -> Vec<(DimTuple, u64)> {
        let mut v: Vec<(DimTuple, u64)> =
            data.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Analyze `src`, evaluate its single derived statement cold on both
    /// input versions, then warm-patch from the old state and assert
    /// bit-identity with the new cold result.
    fn check_delta(
        src: &str,
        old: Vec<(&str, Vec<(DimTuple, f64)>)>,
        patch: impl Fn(&mut Dataset),
    ) {
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = analyzed.program.statements.last().unwrap();
        let mut env = Dataset::new();
        for (name, tuples) in old {
            let schema = analyzed.schemas[&CubeId::new(name)].clone();
            env.put(Cube::new(schema, CubeData::from_tuples(tuples).unwrap()));
        }
        // evaluate intermediate statements so multi-statement programs work
        for s in &analyzed.program.statements {
            let data = eval_statement(s, &env).unwrap();
            env.put(Cube::new(analyzed.schemas[&s.target].clone(), data));
        }
        let prev_output = env.data(&stmt.target).unwrap().clone();
        let prev_inputs: FxHashMap<CubeId, CubeData> = stmt
            .expr
            .cube_refs()
            .into_iter()
            .map(|id| (id.clone(), env.data(&id).unwrap().clone()))
            .collect();

        let mut new_env = env.clone();
        patch(&mut new_env);
        // recompute intermediates under the new inputs for the cold truth
        for s in &analyzed.program.statements {
            let data = eval_statement(s, &new_env).unwrap();
            new_env.put(Cube::new(analyzed.schemas[&s.target].clone(), data));
        }
        let cold = eval_statement(stmt, &new_env).unwrap();
        let warm = eval_statement_delta(stmt, &new_env, &prev_inputs, &prev_output)
            .unwrap()
            .expect("statement should be delta-eligible");
        assert_eq!(bits(&cold), bits(&warm));
    }

    fn poke(env: &mut Dataset, cube: &str, key: DimTuple, v: f64) {
        let mut c = env.get(&CubeId::new(cube)).unwrap().clone();
        c.data.insert_overwrite(key, v);
        env.put(c);
    }

    fn drop_key(env: &mut Dataset, cube: &str, key: &[DimValue]) {
        let mut c = env.get(&CubeId::new(cube)).unwrap().clone();
        c.data.remove(key);
        env.put(c);
    }

    #[test]
    fn keyed_binary_update_and_insert() {
        check_delta(
            "cube A(q: quarter); cube B(q: quarter); C := A * B + 2;",
            vec![
                ("A", vec![(vec![q(2020, 1)], 2.0), (vec![q(2020, 2)], 3.0)]),
                ("B", vec![(vec![q(2020, 1)], 5.0), (vec![q(2020, 2)], 7.0)]),
            ],
            |env| {
                poke(env, "A", vec![q(2020, 1)], 4.0); // update
                poke(env, "B", vec![q(2020, 3)], 9.0); // insert (no partner yet)
                poke(env, "A", vec![q(2020, 3)], 1.0); // completes the pair
            },
        );
    }

    #[test]
    fn keyed_shift_moves_affected_keys() {
        check_delta(
            "cube A(q: quarter); D := A - shift(A, 1);",
            vec![(
                "A",
                vec![
                    (vec![q(2020, 1)], 1.0),
                    (vec![q(2020, 2)], 4.0),
                    (vec![q(2020, 3)], 9.0),
                ],
            )],
            |env| poke(env, "A", vec![q(2020, 2)], 5.5),
        );
    }

    #[test]
    fn keyed_delete_removes_output_keys() {
        check_delta(
            "cube A(q: quarter); cube B(q: quarter); C := A / B;",
            vec![
                ("A", vec![(vec![q(2020, 1)], 8.0), (vec![q(2020, 2)], 6.0)]),
                ("B", vec![(vec![q(2020, 1)], 2.0), (vec![q(2020, 2)], 3.0)]),
            ],
            |env| drop_key(env, "B", &[q(2020, 2)]),
        );
    }

    #[test]
    fn keyed_outer_join_default() {
        check_delta(
            "cube A(q: quarter); cube B(q: quarter); C := addz(A, B);",
            vec![
                ("A", vec![(vec![q(2020, 1)], 1.0)]),
                ("B", vec![(vec![q(2020, 2)], 10.0)]),
            ],
            |env| {
                poke(env, "B", vec![q(2020, 3)], 7.0);
                drop_key(env, "A", &[q(2020, 1)]);
            },
        );
    }

    #[test]
    fn grouped_touched_group_replayed_in_full() {
        check_delta(
            "cube R(q: quarter, r: text); G := sum(R, group by q);",
            vec![(
                "R",
                vec![
                    (vec![q(2020, 1), DimValue::str("n")], 0.1),
                    (vec![q(2020, 1), DimValue::str("s")], 0.2),
                    (vec![q(2020, 2), DimValue::str("n")], 0.3),
                ],
            )],
            |env| poke(env, "R", vec![q(2020, 1), DimValue::str("w")], 0.7),
        );
    }

    #[test]
    fn grouped_group_emptied_by_delete_disappears() {
        check_delta(
            "cube R(q: quarter, r: text); G := avg(R, group by q);",
            vec![(
                "R",
                vec![
                    (vec![q(2020, 1), DimValue::str("n")], 1.0),
                    (vec![q(2020, 2), DimValue::str("n")], 2.0),
                ],
            )],
            |env| drop_key(env, "R", &[q(2020, 2), DimValue::str("n")]),
        );
    }

    #[test]
    fn grouped_frequency_conversion() {
        use exl_model::time::Date;
        let day = |y, m, d| DimValue::Time(TimePoint::Day(Date::from_ymd(y, m, d).unwrap()));
        check_delta(
            "cube P(d: day, r: text); PQ := avg(P, group by quarter(d) as q, r);",
            vec![(
                "P",
                vec![
                    (vec![day(2020, 1, 1), DimValue::str("n")], 10.0),
                    (vec![day(2020, 2, 1), DimValue::str("n")], 20.0),
                    (vec![day(2020, 4, 1), DimValue::str("n")], 30.0),
                ],
            )],
            |env| poke(env, "P", vec![day(2020, 1, 15), DimValue::str("n")], 13.0),
        );
    }

    #[test]
    fn unchanged_inputs_return_previous_output() {
        let src = "cube A(q: quarter); B := 2 * A;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = &analyzed.program.statements[0];
        let mut env = Dataset::new();
        env.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 3.0)]).unwrap(),
        ));
        let prev_out = eval_statement(stmt, &env).unwrap();
        let prev_inputs: FxHashMap<CubeId, CubeData> = [(
            CubeId::new("A"),
            env.data(&CubeId::new("A")).unwrap().clone(),
        )]
        .into_iter()
        .collect();
        let warm = eval_statement_delta(stmt, &env, &prev_inputs, &prev_out)
            .unwrap()
            .unwrap();
        assert_eq!(bits(&warm), bits(&prev_out));
    }

    #[test]
    fn series_ops_are_not_eligible() {
        // below the root, a series operator can move every output value
        assert_eq!(
            delta_shape(
                &analyze(
                    &parse_program("cube A(q: quarter); B := 2 * cumsum(A);").unwrap(),
                    &[]
                )
                .unwrap()
                .program
                .statements[0]
                    .expr
            ),
            DeltaShape::Full
        );
    }

    /// Two regions of three quarters each, for the series tests.
    fn regions() -> Vec<(DimTuple, f64)> {
        let mut rows = Vec::new();
        for (r, base) in [("n", 1.0), ("s", 10.0)] {
            for n in 1..=3 {
                rows.push((vec![q(2020, n), DimValue::str(r)], base + 0.1 * n as f64));
            }
        }
        rows
    }

    #[test]
    fn series_touched_slice_replayed_in_full() {
        // an early revision moves every later running total of its slice
        check_delta(
            "cube R(q: quarter, r: text); S := cumsum(R);",
            vec![("R", regions())],
            |env| poke(env, "R", vec![q(2020, 1), DimValue::str("n")], 0.7),
        );
        // through a shift, the slice is found from the forward image
        check_delta(
            "cube R(q: quarter, r: text); S := movavg(R - shift(R, 1), 2);",
            vec![("R", regions())],
            |env| poke(env, "R", vec![q(2020, 4), DimValue::str("s")], 12.5),
        );
    }

    #[test]
    fn series_slice_emptied_by_deletes_disappears() {
        check_delta(
            "cube R(q: quarter, r: text); S := cumsum(R);",
            vec![("R", regions())],
            |env| {
                for n in 1..=3 {
                    drop_key(env, "R", &[q(2020, n), DimValue::str("s")]);
                }
            },
        );
    }

    /// A (quarter × int) panel whose slices, k = 3..=8, each hold two
    /// quarters, for the named-shift tests.
    fn int_panel() -> Vec<(DimTuple, f64)> {
        let mut rows = Vec::new();
        for k in 3..=8 {
            for n in 1..=2 {
                rows.push((
                    vec![q(2020, n), DimValue::Int(k)],
                    k as f64 + 0.1 * n as f64,
                ));
            }
        }
        rows
    }

    #[test]
    fn series_shift_across_slices_patches_only_touched_slices() {
        // revising slice 5 touches slices 5 and 6 (through the shift); the
        // restriction also keeps slice 4's rows (their shift lands in 5) and
        // slice 6's (their shift lands in 7), so the outer join yields
        // partial slices 4 and 7 that must not overwrite their old values
        check_delta(
            "cube R(q: quarter, k: int); S := cumsum(addz(R, shift(R, 1, k)));",
            vec![("R", int_panel())],
            |env| poke(env, "R", vec![q(2020, 1), DimValue::Int(5)], 50.5),
        );
    }

    #[test]
    fn grouped_shift_across_groups_patches_only_touched_groups() {
        check_delta(
            "cube R(q: quarter, k: int); G := sum(addz(R, shift(R, 1, k)), group by k);",
            vec![("R", int_panel())],
            |env| poke(env, "R", vec![q(2020, 1), DimValue::Int(5)], 50.5),
        );
    }

    /// Delta-evaluate the series statement of `src` after revising
    /// `keys` of its input `R`.
    fn series_delta(src: &str, old: Vec<(DimTuple, f64)>, keys: &[DimTuple]) -> Option<CubeData> {
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = &analyzed.program.statements[0];
        assert_eq!(delta_shape(&stmt.expr), DeltaShape::Series);
        let schema = analyzed.schemas[&CubeId::new("R")].clone();
        let old = CubeData::from_tuples(old).unwrap();
        let mut env = Dataset::new();
        env.put(Cube::new(schema.clone(), old.clone()));
        let prev_out = eval_statement(stmt, &env).unwrap();
        let mut new = old.clone();
        for k in keys {
            new.insert_overwrite(k.clone(), 99.5);
        }
        env.put(Cube::new(schema, new));
        let prev_inputs: FxHashMap<CubeId, CubeData> =
            [(CubeId::new("R"), old)].into_iter().collect();
        eval_statement_delta(stmt, &env, &prev_inputs, &prev_out).unwrap()
    }

    #[test]
    fn series_single_slice_argument_falls_back() {
        // one series: any delta touches the only slice
        let r = series_delta(
            "cube R(q: quarter); S := cumsum(R);",
            vec![(vec![q(2020, 1)], 1.0), (vec![q(2020, 2)], 2.0)],
            &[vec![q(2020, 2)]],
        );
        assert!(r.is_none());
        // a panel whose every slice is touched falls back the same way
        let r = series_delta(
            "cube R(q: quarter, r: text); S := cumsum(R);",
            regions(),
            &[
                vec![q(2020, 2), DimValue::str("n")],
                vec![q(2020, 2), DimValue::str("s")],
            ],
        );
        assert!(r.is_none());
    }

    #[test]
    fn missing_previous_input_falls_back() {
        let src = "cube A(q: quarter); B := 2 * A;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let stmt = &analyzed.program.statements[0];
        let mut env = Dataset::new();
        env.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 3.0)]).unwrap(),
        ));
        let r = eval_statement_delta(stmt, &env, &FxHashMap::default(), &CubeData::new()).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn changed_keys_sees_inserts_updates_deletes() {
        let old =
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 1.0), (vec![q(2020, 2)], 2.0)]).unwrap();
        let mut new = old.clone();
        new.insert_overwrite(vec![q(2020, 2)], 2.5); // update
        new.insert_overwrite(vec![q(2020, 3)], 3.0); // insert
        new.remove(&[q(2020, 1)]); // delete
        let mut ks = changed_keys(&old, &new);
        ks.sort();
        assert_eq!(
            ks,
            vec![vec![q(2020, 1)], vec![q(2020, 2)], vec![q(2020, 3)]]
        );
        assert!(changed_keys(&old, &old).is_empty());
    }
}
