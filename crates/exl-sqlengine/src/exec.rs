//! Query execution: joins, filters, grouping, projection, ordering.

use std::cmp::Ordering;
use std::collections::HashMap;

use exl_model::time::Frequency;
use exl_stats::descriptive::AggFn;

use crate::catalog::{Column, Database, Table};
use crate::error::SqlError;
use crate::parser::{parse_script, FromItem, Select, SqlExpr, SqlStmt};
use crate::tablefn;
use crate::value::{SqlType, SqlValue};

/// The SQL engine: a database plus the statement dispatcher.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// The catalog and row stores.
    pub db: Database,
}

impl Engine {
    /// Fresh engine with an empty database.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Execute one SQL statement; `Some(table)` is returned for SELECT.
    pub fn execute(&mut self, sql: &str) -> Result<Option<Table>, SqlError> {
        self.run_traced(sql, &exl_obs::Span::disabled())
    }

    /// [`execute`](Engine::execute) with one `sql.stmt` child span of
    /// `trace` per executed statement (attrs: `index`, `kind`, `table`).
    pub fn run_traced(
        &mut self,
        sql: &str,
        trace: &exl_obs::Span,
    ) -> Result<Option<Table>, SqlError> {
        exl_fault::check("sqlengine.execute").map_err(|e| SqlError::Execution(e.to_string()))?;
        let mut last = None;
        for (i, stmt) in parse_script(sql)?.into_iter().enumerate() {
            // governance checkpoint per statement: a cancelled or
            // over-budget run stops between statements
            exl_fault::govern::checkpoint()?;
            let span = trace.child("sql.stmt");
            span.set_attr("index", i as u64);
            span.set_attr("kind", stmt_kind(&stmt));
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::Statement,
                "sqlengine.execute",
                || format!("stmt {i}: {}", stmt_kind(&stmt)),
            );
            if let Some(table) = stmt_table(&stmt) {
                span.set_attr("table", table.to_string());
            }
            match self.execute_stmt(stmt) {
                Ok(out) => last = out,
                Err(e) => {
                    span.add_event(e.to_string());
                    span.set_attr("status", "failed");
                    return Err(e);
                }
            }
        }
        Ok(last)
    }

    /// Execute a multi-statement script, discarding SELECT results.
    pub fn execute_script(&mut self, sql: &str) -> Result<(), SqlError> {
        self.execute(sql).map(|_| ())
    }

    fn execute_stmt(&mut self, stmt: SqlStmt) -> Result<Option<Table>, SqlError> {
        match stmt {
            SqlStmt::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|(name, ty)| Column { name, ty })
                    .collect();
                self.db.create_table(Table::new(name, cols))?;
                Ok(None)
            }
            SqlStmt::CreateView { name, select } => {
                self.db.create_view(&name, select)?;
                Ok(None)
            }
            SqlStmt::DropTable { name } => {
                if !self.db.drop_table(&name) {
                    return Err(SqlError::Execution(format!("unknown table {name}")));
                }
                Ok(None)
            }
            SqlStmt::InsertValues {
                table,
                columns,
                rows,
            } => {
                let reorder = self.insert_column_map(&table, &columns)?;
                for row in rows {
                    if row.len() != columns.len() {
                        return Err(SqlError::Execution(format!(
                            "INSERT into {table}: {} columns but {} values",
                            columns.len(),
                            row.len()
                        )));
                    }
                    let full = apply_column_map(&reorder, row);
                    self.db
                        .table_mut(&table)
                        .expect("checked above")
                        .push_row(full)?;
                }
                Ok(None)
            }
            SqlStmt::InsertSelect {
                table,
                columns,
                select,
            } => {
                let result = self.run_select(&select)?;
                let reorder = self.insert_column_map(&table, &columns)?;
                if result.columns.len() != columns.len() {
                    return Err(SqlError::Execution(format!(
                        "INSERT into {table}: {} target columns but SELECT yields {}",
                        columns.len(),
                        result.columns.len()
                    )));
                }
                for row in result.rows {
                    // dropped-tuple semantics: a NULL anywhere means the
                    // operator was undefined on this point
                    if row.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    let full = apply_column_map(&reorder, row);
                    self.db
                        .table_mut(&table)
                        .expect("checked above")
                        .push_row(full)?;
                }
                Ok(None)
            }
            SqlStmt::Select(select) => Ok(Some(self.run_select(&select)?)),
        }
    }

    /// Map INSERT column list onto the table's column order; unlisted
    /// columns are filled with NULL.
    fn insert_column_map(
        &self,
        table: &str,
        columns: &[String],
    ) -> Result<Vec<Option<usize>>, SqlError> {
        let t = self
            .db
            .table(table)
            .ok_or_else(|| SqlError::Execution(format!("unknown table {table}")))?;
        let mut map: Vec<Option<usize>> = vec![None; t.columns.len()];
        for (vi, c) in columns.iter().enumerate() {
            let ci = t
                .column_index(c)
                .ok_or_else(|| SqlError::Execution(format!("table {table} has no column {c}")))?;
            map[ci] = Some(vi);
        }
        Ok(map)
    }

    /// Run a SELECT, producing a result table.
    pub fn run_select(&self, select: &Select) -> Result<Table, SqlError> {
        // 1. materialize sources
        let mut sources = Vec::with_capacity(select.from.len());
        for item in &select.from {
            sources.push(self.materialize(item)?);
        }
        if sources.is_empty() {
            return Err(SqlError::Execution("SELECT needs a FROM clause".into()));
        }

        // 2. flatten the WHERE conjunction
        let mut conjuncts = Vec::new();
        if let Some(w) = &select.where_ {
            flatten_and(w, &mut conjuncts);
        }

        // 3. join sources left to right, consuming equi-join conjuncts
        let mut acc = sources.remove(0);
        for src in sources {
            acc = join(acc, src, &mut conjuncts)?;
        }

        // 4. validate every column reference against the joined schema —
        // even when there are no rows to evaluate on
        for c in &conjuncts {
            validate_expr(c, &acc.schema)?;
        }
        for item in &select.items {
            validate_expr(&item.expr, &acc.schema)?;
        }
        for g in &select.group_by {
            validate_expr(g, &acc.schema)?;
        }

        // residual filter
        let rows: Vec<Vec<SqlValue>> = acc
            .rows
            .iter()
            .filter(|row| {
                conjuncts
                    .iter()
                    .all(|c| truthy(&eval(c, &acc.schema, row).unwrap_or(SqlValue::Null)))
            })
            .cloned()
            .collect();
        // surface resolution errors hidden by the filter closure
        if let Some(row) = acc.rows.first() {
            for c in &conjuncts {
                eval(c, &acc.schema, row)?;
            }
        }
        let acc = Relation {
            schema: acc.schema,
            rows,
        };

        // 5. group / project
        let needs_group =
            !select.group_by.is_empty() || select.items.iter().any(|i| i.expr.has_aggregate());
        let mut out = if needs_group {
            group_and_project(&acc, select)?
        } else {
            project(&acc, select)?
        };

        // 6. order
        if !select.order_by.is_empty() {
            order_rows(&mut out, &select.order_by)?;
        }
        Ok(out)
    }

    fn materialize(&self, item: &FromItem) -> Result<Relation, SqlError> {
        match item {
            FromItem::Table { name, alias } => {
                let t = self.resolve_table(name)?;
                Ok(Relation::from_table(
                    &t,
                    alias.clone().unwrap_or_else(|| name.clone()),
                ))
            }
            FromItem::TableFn { func, args, alias } => {
                // table arguments may themselves be views: resolve them
                // into a scratch database first
                let mut scratch = Database::new();
                for a in args {
                    if let crate::parser::TableFnArg::Table(t) = a {
                        scratch.put_table(self.resolve_table(t)?);
                    }
                }
                let t = tablefn::apply(&scratch, func, args)?;
                let q = alias.clone().unwrap_or_else(|| func.clone());
                Ok(Relation::from_table(&t, q))
            }
        }
    }

    /// A named table, or a view materialized by running its defining query
    /// (recursively, for views over views). Column types of materialized
    /// views are inferred from their values so downstream consumers
    /// (tabular functions, cube extraction) see temporal columns.
    pub fn resolve_table(&self, name: &str) -> Result<Table, SqlError> {
        if let Some(t) = self.db.table(name) {
            return Ok(t.clone());
        }
        if let Some(view) = self.db.view(name) {
            let mut t = self.run_select(&view.clone())?;
            t.name = name.to_string();
            infer_column_types(&mut t);
            return Ok(t);
        }
        Err(SqlError::Execution(format!("unknown table or view {name}")))
    }
}

/// Replace a materialized view's default DOUBLE column types with types
/// inferred from the values.
fn infer_column_types(t: &mut Table) {
    for (c, col) in t.columns.iter_mut().enumerate() {
        let mut inferred: Option<SqlType> = None;
        for row in &t.rows {
            match &row[c] {
                SqlValue::Time(tp) => {
                    inferred = Some(SqlType::Time(tp.frequency()));
                    break;
                }
                SqlValue::Text(_) => {
                    inferred = Some(SqlType::Text);
                    break;
                }
                SqlValue::Double(_) => {
                    inferred = Some(SqlType::Double);
                    break;
                }
                SqlValue::Int(_) => {
                    inferred.get_or_insert(SqlType::Int);
                }
                SqlValue::Null => {}
            }
        }
        if let Some(ty) = inferred {
            col.ty = ty;
        }
    }
}

/// Short statement label for trace spans.
fn stmt_kind(stmt: &SqlStmt) -> &'static str {
    match stmt {
        SqlStmt::CreateTable { .. } => "create-table",
        SqlStmt::CreateView { .. } => "create-view",
        SqlStmt::DropTable { .. } => "drop-table",
        SqlStmt::InsertValues { .. } => "insert-values",
        SqlStmt::InsertSelect { .. } => "insert-select",
        SqlStmt::Select(_) => "select",
    }
}

/// The table (or view) a statement targets, if any.
fn stmt_table(stmt: &SqlStmt) -> Option<&str> {
    match stmt {
        SqlStmt::CreateTable { name, .. }
        | SqlStmt::CreateView { name, .. }
        | SqlStmt::DropTable { name } => Some(name),
        SqlStmt::InsertValues { table, .. } | SqlStmt::InsertSelect { table, .. } => Some(table),
        SqlStmt::Select(_) => None,
    }
}

fn apply_column_map(map: &[Option<usize>], row: Vec<SqlValue>) -> Vec<SqlValue> {
    map.iter()
        .map(|slot| match slot {
            Some(vi) => row[*vi].clone(),
            None => SqlValue::Null,
        })
        .collect()
}

/// An intermediate relation: qualified column schema plus rows.
struct Relation {
    schema: Vec<QualCol>,
    rows: Vec<Vec<SqlValue>>,
}

#[derive(Debug, Clone)]
struct QualCol {
    qualifier: String,
    name: String,
    #[allow(dead_code)]
    ty: SqlType,
}

impl Relation {
    fn from_table(t: &Table, qualifier: String) -> Relation {
        Relation {
            schema: t
                .columns
                .iter()
                .map(|c| QualCol {
                    qualifier: qualifier.clone(),
                    name: c.name.clone(),
                    ty: c.ty,
                })
                .collect(),
            rows: t.rows.clone(),
        }
    }
}

/// Resolve a column reference against a qualified schema.
fn resolve(schema: &[QualCol], qualifier: Option<&str>, name: &str) -> Result<usize, SqlError> {
    let matches: Vec<usize> = schema
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && qualifier
                    .map(|q| c.qualifier.eq_ignore_ascii_case(q))
                    .unwrap_or(true)
        })
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        [] => Err(SqlError::Execution(format!(
            "unknown column {}{name}",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default()
        ))),
        _ => Err(SqlError::Execution(format!("ambiguous column {name}"))),
    }
}

/// Evaluate a scalar expression on one row.
fn eval(expr: &SqlExpr, schema: &[QualCol], row: &[SqlValue]) -> Result<SqlValue, SqlError> {
    match expr {
        SqlExpr::Literal(v) => Ok(v.clone()),
        SqlExpr::Column { qualifier, name } => {
            let i = resolve(schema, qualifier.as_deref(), name)?;
            Ok(row[i].clone())
        }
        SqlExpr::Binary { op, l, r } => {
            let a = eval(l, schema, row)?;
            let b = eval(r, schema, row)?;
            eval_binary(op, a, b)
        }
        SqlExpr::Func { name, args } => {
            let vals: Vec<SqlValue> = args
                .iter()
                .map(|a| eval(a, schema, row))
                .collect::<Result<_, _>>()?;
            eval_func(name, &vals)
        }
        SqlExpr::Agg { .. } => Err(SqlError::Execution(
            "aggregate used outside GROUP BY context".into(),
        )),
    }
}

fn eval_binary(op: &str, a: SqlValue, b: SqlValue) -> Result<SqlValue, SqlError> {
    match op {
        "AND" => Ok(SqlValue::Int((truthy(&a) && truthy(&b)) as i64)),
        "=" | "<>" | "<" | "<=" | ">" | ">=" => {
            if a.is_null() || b.is_null() {
                return Ok(SqlValue::Null);
            }
            let ord = match (&a, &b) {
                (SqlValue::Time(x), SqlValue::Time(y)) => x.cmp(y),
                (SqlValue::Text(x), SqlValue::Text(y)) => x.cmp(y),
                _ => {
                    let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                        return Ok(SqlValue::Int((op == "<>") as i64));
                    };
                    x.partial_cmp(&y).unwrap_or(Ordering::Equal)
                }
            };
            let result = match op {
                "=" => ord == Ordering::Equal,
                "<>" => ord != Ordering::Equal,
                "<" => ord == Ordering::Less,
                "<=" => ord != Ordering::Greater,
                ">" => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            };
            Ok(SqlValue::Int(result as i64))
        }
        "+" | "-" | "*" | "/" => {
            if a.is_null() || b.is_null() {
                return Ok(SqlValue::Null);
            }
            // temporal shift: time ± int (the SQL face of the EXL shift)
            if let (SqlValue::Time(t), SqlValue::Int(n)) = (&a, &b) {
                return match op {
                    "+" => Ok(SqlValue::Time(t.shift(*n))),
                    "-" => Ok(SqlValue::Time(t.shift(-*n))),
                    _ => Err(SqlError::Execution(format!("cannot {op} a temporal value"))),
                };
            }
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(SqlError::Execution(format!(
                    "arithmetic on non-numeric values {a} {op} {b}"
                )));
            };
            if let (SqlValue::Int(xi), SqlValue::Int(yi), "+" | "-" | "*") = (&a, &b, op) {
                let r = match op {
                    "+" => xi.checked_add(*yi),
                    "-" => xi.checked_sub(*yi),
                    _ => xi.checked_mul(*yi),
                };
                if let Some(r) = r {
                    return Ok(SqlValue::Int(r));
                }
            }
            Ok(SqlValue::double(match op {
                "+" => x + y,
                "-" => x - y,
                "*" => x * y,
                _ => x / y,
            }))
        }
        other => Err(SqlError::Execution(format!("unknown operator {other}"))),
    }
}

fn eval_func(name: &str, args: &[SqlValue]) -> Result<SqlValue, SqlError> {
    let arity = |n: usize| -> Result<(), SqlError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Execution(format!(
                "{name} takes {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    let time_conv = |target: Frequency| -> Result<SqlValue, SqlError> {
        arity(1)?;
        if args[0].is_null() {
            return Ok(SqlValue::Null);
        }
        let t = args[0].as_time().ok_or_else(|| {
            SqlError::Execution(format!("{name} needs a temporal argument, got {}", args[0]))
        })?;
        match t.convert(target) {
            Some(c) => Ok(SqlValue::Time(c)),
            None => Err(SqlError::Execution(format!(
                "cannot convert {t} to {}",
                target.name()
            ))),
        }
    };
    let unary_math = |f: fn(f64) -> f64| -> Result<SqlValue, SqlError> {
        arity(1)?;
        if args[0].is_null() {
            return Ok(SqlValue::Null);
        }
        let x = args[0]
            .as_f64()
            .ok_or_else(|| SqlError::Execution(format!("{name} needs a numeric argument")))?;
        Ok(SqlValue::double(f(x)))
    };
    match name {
        "QUARTER" => time_conv(Frequency::Quarterly),
        "MONTH" => time_conv(Frequency::Monthly),
        "YEAR" => time_conv(Frequency::Yearly),
        "SHIFT_TIME" => {
            arity(2)?;
            if args[0].is_null() {
                return Ok(SqlValue::Null);
            }
            let t = args[0]
                .as_time()
                .ok_or_else(|| SqlError::Execution("SHIFT_TIME needs a temporal value".into()))?;
            let SqlValue::Int(n) = args[1] else {
                return Err(SqlError::Execution(
                    "SHIFT_TIME offset must be an integer".into(),
                ));
            };
            Ok(SqlValue::Time(t.shift(n)))
        }
        "LN" => unary_math(f64::ln),
        "EXP" => unary_math(f64::exp),
        "SQRT" => unary_math(f64::sqrt),
        "ABS" => unary_math(f64::abs),
        "SIN" => unary_math(f64::sin),
        "COS" => unary_math(f64::cos),
        "POWER" => {
            arity(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(SqlValue::Null);
            }
            let (Some(a), Some(b)) = (args[0].as_f64(), args[1].as_f64()) else {
                return Err(SqlError::Execution("POWER needs numeric arguments".into()));
            };
            Ok(SqlValue::double(a.powf(b)))
        }
        other => Err(SqlError::Execution(format!("unknown function {other}"))),
    }
}

fn truthy(v: &SqlValue) -> bool {
    match v {
        SqlValue::Int(i) => *i != 0,
        SqlValue::Double(d) => *d != 0.0,
        _ => false,
    }
}

fn flatten_and(expr: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match expr {
        SqlExpr::Binary { op: "AND", l, r } => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// Join two relations, consuming applicable equi-join conjuncts (hash
/// join); with no applicable conjunct the join degrades to a cross
/// product, which later filters may cut down.
fn join(
    left: Relation,
    right: Relation,
    conjuncts: &mut Vec<SqlExpr>,
) -> Result<Relation, SqlError> {
    // find conjuncts of the form col = col with one side on each relation
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut used = vec![false; conjuncts.len()];
    for (ci, c) in conjuncts.iter().enumerate() {
        if let SqlExpr::Binary { op: "=", l, r } = c {
            let sides = [(l.as_ref(), r.as_ref()), (r.as_ref(), l.as_ref())];
            for (a, b) in sides {
                if let (
                    SqlExpr::Column {
                        qualifier: qa,
                        name: na,
                    },
                    _,
                ) = (a, b)
                {
                    if let Ok(li) = resolve(&left.schema, qa.as_deref(), na) {
                        // the other side must evaluate on the right relation
                        // (allow full expressions, e.g. G2.Q - 1)
                        if expr_resolves(b, &right.schema) && !expr_resolves(b, &left.schema) {
                            left_keys.push(LeftKey::Col(li));
                            right_keys.push(b.clone());
                            used[ci] = true;
                            break;
                        }
                    }
                    // symmetric: left side is an expression over `left`
                }
            }
            if !used[ci] {
                // general case: expression-vs-expression split across sides
                if expr_resolves(l, &left.schema)
                    && !expr_resolves(l, &right.schema)
                    && expr_resolves(r, &right.schema)
                    && !expr_resolves(r, &left.schema)
                {
                    left_keys.push(LeftKey::Expr((**l).clone()));
                    right_keys.push((**r).clone());
                    used[ci] = true;
                } else if expr_resolves(r, &left.schema)
                    && !expr_resolves(r, &right.schema)
                    && expr_resolves(l, &right.schema)
                    && !expr_resolves(l, &left.schema)
                {
                    left_keys.push(LeftKey::Expr((**r).clone()));
                    right_keys.push((**l).clone());
                    used[ci] = true;
                }
            }
        }
    }
    let remaining: Vec<SqlExpr> = conjuncts
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(c, _)| c.clone())
        .collect();
    *conjuncts = remaining;

    let mut schema = left.schema;
    schema.extend(right.schema.iter().cloned());

    let mut rows = Vec::new();
    if left_keys.is_empty() {
        for lr in &left.rows {
            for rr in &right.rows {
                let mut row = lr.clone();
                row.extend(rr.iter().cloned());
                rows.push(row);
            }
        }
    } else {
        // hash the right side on its key expressions
        let right_schema: Vec<QualCol> = schema[schema.len() - right.schema.len()..].to_vec();
        let mut index: HashMap<String, Vec<usize>> = HashMap::with_capacity(right.rows.len());
        for (ri, rr) in right.rows.iter().enumerate() {
            let mut key = String::new();
            let mut ok = true;
            for k in &right_keys {
                let v = eval(k, &right_schema, rr)?;
                if v.is_null() {
                    ok = false;
                    break;
                }
                key.push_str(&canonical_key(&v));
                key.push('\u{1}');
            }
            if ok {
                index.entry(key).or_default().push(ri);
            }
        }
        let left_schema: Vec<QualCol> = schema[..schema.len() - right.schema.len()].to_vec();
        for lr in &left.rows {
            let mut key = String::new();
            let mut ok = true;
            for k in &left_keys {
                let v = match k {
                    LeftKey::Col(i) => lr[*i].clone(),
                    LeftKey::Expr(e) => eval(e, &left_schema, lr)?,
                };
                if v.is_null() {
                    ok = false;
                    break;
                }
                key.push_str(&canonical_key(&v));
                key.push('\u{1}');
            }
            if !ok {
                continue;
            }
            if let Some(matches) = index.get(&key) {
                for &ri in matches {
                    let mut row = lr.clone();
                    row.extend(right.rows[ri].iter().cloned());
                    rows.push(row);
                }
            }
        }
    }
    Ok(Relation { schema, rows })
}

enum LeftKey {
    Col(usize),
    Expr(SqlExpr),
}

/// Check that every column reference in the expression resolves, returning
/// the first resolution error.
fn validate_expr(expr: &SqlExpr, schema: &[QualCol]) -> Result<(), SqlError> {
    match expr {
        SqlExpr::Column { qualifier, name } => {
            resolve(schema, qualifier.as_deref(), name).map(|_| ())
        }
        SqlExpr::Literal(_) => Ok(()),
        SqlExpr::Binary { l, r, .. } => {
            validate_expr(l, schema)?;
            validate_expr(r, schema)
        }
        SqlExpr::Func { args, .. } => args.iter().try_for_each(|a| validate_expr(a, schema)),
        SqlExpr::Agg { arg, .. } => validate_expr(arg, schema),
    }
}

/// True when every column reference in the expression resolves against the
/// schema.
fn expr_resolves(expr: &SqlExpr, schema: &[QualCol]) -> bool {
    match expr {
        SqlExpr::Column { qualifier, name } => resolve(schema, qualifier.as_deref(), name).is_ok(),
        SqlExpr::Literal(_) => true,
        SqlExpr::Binary { l, r, .. } => expr_resolves(l, schema) && expr_resolves(r, schema),
        SqlExpr::Func { args, .. } => args.iter().all(|a| expr_resolves(a, schema)),
        SqlExpr::Agg { arg, .. } => expr_resolves(arg, schema),
    }
}

/// Canonical string key for join/group hashing — numeric values collapse
/// ints and doubles.
fn canonical_key(v: &SqlValue) -> String {
    match v {
        SqlValue::Int(i) => format!("n{}", *i as f64),
        SqlValue::Double(d) => format!("n{d}"),
        SqlValue::Text(s) => format!("t{s}"),
        SqlValue::Time(t) => format!("T{t}"),
        SqlValue::Null => "∅".to_string(),
    }
}

fn project(rel: &Relation, select: &Select) -> Result<Table, SqlError> {
    let columns = result_columns(select);
    let mut out = Table::new("result", columns);
    for row in &rel.rows {
        let mut new_row = Vec::with_capacity(select.items.len());
        for item in &select.items {
            new_row.push(eval(&item.expr, &rel.schema, row)?);
        }
        out.rows.push(new_row);
    }
    Ok(out)
}

fn group_and_project(rel: &Relation, select: &Select) -> Result<Table, SqlError> {
    // validate: non-aggregate items must appear in GROUP BY (structural)
    for item in &select.items {
        if !item.expr.has_aggregate() && !select.group_by.contains(&item.expr) {
            return Err(SqlError::Execution(format!(
                "non-aggregated select item must appear in GROUP BY: {:?}",
                item.expr
            )));
        }
    }
    // group rows on the key expressions
    let mut groups: Vec<(String, Vec<SqlValue>, Vec<usize>)> = Vec::new();
    let mut lookup: HashMap<String, usize> = HashMap::new();
    for (ri, row) in rel.rows.iter().enumerate() {
        let mut key_vals = Vec::with_capacity(select.group_by.len());
        let mut key = String::new();
        for g in &select.group_by {
            let v = eval(g, &rel.schema, row)?;
            key.push_str(&canonical_key(&v));
            key.push('\u{1}');
            key_vals.push(v);
        }
        match lookup.get(&key) {
            Some(&gi) => groups[gi].2.push(ri),
            None => {
                lookup.insert(key.clone(), groups.len());
                groups.push((key, key_vals, vec![ri]));
            }
        }
    }
    // a global aggregate without GROUP BY runs over all rows, but an empty
    // input yields no groups — matching EXL's "no tuple for an empty bag"
    if select.group_by.is_empty() && !rel.rows.is_empty() {
        // groups already holds one entry with the empty key
    }

    let columns = result_columns(select);
    let mut out = Table::new("result", columns);
    for (_, key_vals, row_ids) in &groups {
        let mut new_row = Vec::with_capacity(select.items.len());
        for item in &select.items {
            if item.expr.has_aggregate() {
                new_row.push(eval_agg(&item.expr, rel, row_ids)?);
            } else {
                // the item equals one of the grouping expressions
                let gi = select
                    .group_by
                    .iter()
                    .position(|g| *g == item.expr)
                    .expect("validated above");
                new_row.push(key_vals[gi].clone());
            }
        }
        out.rows.push(new_row);
    }
    Ok(out)
}

/// Evaluate an expression containing aggregates over a group of rows.
fn eval_agg(expr: &SqlExpr, rel: &Relation, row_ids: &[usize]) -> Result<SqlValue, SqlError> {
    match expr {
        SqlExpr::Agg { func, arg } => {
            let mut vals = Vec::with_capacity(row_ids.len());
            for &ri in row_ids {
                let v = eval(arg, &rel.schema, &rel.rows[ri])?;
                if let Some(x) = v.as_f64() {
                    vals.push(x); // NULLs skipped, standard SQL semantics
                }
            }
            match aggregate(*func, &vals) {
                Some(v) => Ok(SqlValue::double(v)),
                None => Ok(SqlValue::Null),
            }
        }
        SqlExpr::Binary { op, l, r } => {
            let a = eval_agg(l, rel, row_ids)?;
            let b = eval_agg(r, rel, row_ids)?;
            eval_binary(op, a, b)
        }
        SqlExpr::Func { name, args } => {
            let vals: Vec<SqlValue> = args
                .iter()
                .map(|a| eval_agg(a, rel, row_ids))
                .collect::<Result<_, _>>()?;
            eval_func(name, &vals)
        }
        SqlExpr::Literal(v) => Ok(v.clone()),
        SqlExpr::Column { .. } => Err(SqlError::Execution(
            "bare column mixed with aggregates must be in GROUP BY".into(),
        )),
    }
}

fn aggregate(func: AggFn, vals: &[f64]) -> Option<f64> {
    func.apply(vals)
}

fn result_columns(select: &Select) -> Vec<Column> {
    select
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| Column {
            name: item.alias.clone().unwrap_or_else(|| match &item.expr {
                SqlExpr::Column { name, .. } => name.clone(),
                _ => format!("col{}", i + 1),
            }),
            // result types are inferred loosely; DOUBLE is the safe default
            ty: SqlType::Double,
        })
        .collect()
}

fn order_rows(out: &mut Table, order_by: &[SqlExpr]) -> Result<(), SqlError> {
    let schema: Vec<QualCol> = out
        .columns
        .iter()
        .map(|c| QualCol {
            qualifier: out.name.clone(),
            name: c.name.clone(),
            ty: c.ty,
        })
        .collect();
    // pre-compute keys (so errors surface before sorting)
    let mut keyed: Vec<(Vec<SqlValue>, Vec<SqlValue>)> = Vec::with_capacity(out.rows.len());
    for row in &out.rows {
        let mut key = Vec::with_capacity(order_by.len());
        for e in order_by {
            key.push(eval(e, &schema, row)?);
        }
        keyed.push((key, row.clone()));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        ka.iter()
            .zip(kb.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(Ordering::Equal)
    });
    out.rows = keyed.into_iter().map(|(_, r)| r).collect();
    Ok(())
}
