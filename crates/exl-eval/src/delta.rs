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
//! * Everything else — series operators (`stl_*`, `cumsum`, …) and nested
//!   aggregations — is whole-cube: any changed key can move every output
//!   value, so the caller must fall back to a full recompute.
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
use crate::eval::{eval_statement_batches, key_parts, part_idim};

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
    /// Whole-cube (series operators, nested aggregation): always
    /// recompute from scratch.
    Full,
}

/// Classify an expression for incremental maintenance.
pub fn delta_shape(expr: &Expr) -> DeltaShape {
    if tuple_level(expr) {
        return DeltaShape::Keyed;
    }
    if let Expr::Aggregate { arg, .. } = expr {
        if tuple_level(arg) {
            return DeltaShape::Grouped;
        }
    }
    DeltaShape::Full
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
    if shape == DeltaShape::Full {
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

    let mut leaves = Vec::new();
    if collect_leaves(arg, env, &mut Vec::new(), &mut leaves).is_none() {
        return Ok(None);
    }

    // touched groups: group keys of the forward images of changed keys
    let mut affected: FxHashSet<IKey> = FxHashSet::default();
    for leaf in &leaves {
        let Some(delta) = deltas.get(&leaf.id) else {
            continue;
        };
        for k in delta {
            match shift_key(k, &leaf.chain, 1).and_then(|out_k| group_of(&out_k)) {
                Some(g) => {
                    affected.insert(g);
                }
                None => return Ok(None),
            }
        }
    }

    // restrict every input to the rows whose forward image lands in a
    // touched group — the touched groups' complete bags, nothing else
    let mut restricted = Vec::new();
    for id in arg.cube_refs() {
        let (dims, cur) = &work.inputs[&id];
        let chains: Vec<&Leaf> = leaves.iter().filter(|l| l.id == id).collect();
        let mut r = CubeBatch::new();
        for (k, v) in cur.iter() {
            for leaf in &chains {
                let Some(g) = shift_key(k, &leaf.chain, 1).and_then(|out_k| group_of(&out_k))
                else {
                    // the cold path would reject this row
                    return Ok(None);
                };
                if affected.contains(&g) {
                    r.push(k.clone(), v);
                    break;
                }
            }
        }
        restricted.push((id, dims.clone(), Arc::new(r)));
    }

    work.patch(stmt, restricted, prev_output, &affected, |_| true)
        .map(Some)
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
        assert_eq!(
            delta_shape(
                &analyze(
                    &parse_program("cube A(q: quarter); B := cumsum(A);").unwrap(),
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
