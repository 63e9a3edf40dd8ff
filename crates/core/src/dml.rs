//! DML over named collections: INSERT / DELETE / UPDATE.
//!
//! The paper defines a query language; a system a downstream user adopts
//! also needs to put data *in*. These statements follow PartiQL's DML
//! surface (`INSERT INTO t VALUE …`, `DELETE FROM t WHERE …`,
//! `UPDATE t SET … WHERE …`) and respect the engine's semantics: the
//! predicate sees each element under the range variable with full SQL++
//! three-valued logic (an element whose predicate is NULL or MISSING is
//! *not* affected), and collections with an attached schema re-validate on
//! every mutation — the optional-schema tenet extended to writes.
//!
//! **Atomicity.** Every statement is snapshot-or-rollback: it reads an
//! `Arc` snapshot of the target and computes a [`Patch`] off to the
//! side — the positions a DELETE removes, the rebuilt rows an UPDATE
//! replaces, the elements an INSERT appends — evaluating predicates,
//! sources and assignments, each a possible failure point under strict
//! typing, resource budgets, or injected faults. Only then does it
//! publish through the single [`Engine::commit_patch`] call: the patch
//! is logged, then applied to the stored collection. Applying a patch
//! cannot fail, so any error leaves the catalog byte-identical to the
//! snapshot, and a logged patch is always published. The patch is
//! applied in place when no reader holds the collection and to a copy
//! when one does, so readers keep their snapshots either way. The
//! chaos suite (`tests/chaos.rs`) snapshot-compares the catalog around
//! every failed DML to pin this.
//!
//! **Cost.** Nothing is copied but the rows a statement touches: DELETE
//! and UPDATE run their predicate over the borrowed snapshot
//! ([`Evaluator::matching_positions`]), and the WAL record holds the
//! patch, not the collection. A single-row statement logs the same
//! bytes at 1k rows as at 100k.
//!
//! **Concurrency.** Positions are only meaningful against the snapshot
//! they were computed from, and two writers working from one snapshot
//! would lose an update. Every statement therefore holds the catalog's
//! [`dml_guard`](sqlpp_catalog::Catalog::dml_guard) from its target
//! read through its commit, serializing writers per catalog. Readers
//! never take that lock — queries keep their lock-free `Arc` snapshots
//! — and INSERT evaluates its source *before* acquiring it, so only
//! the read-modify-write window is serialized. The threaded storm in
//! `tests/serving.rs` and the B16 mixed workload (8 sessions, 1-in-8
//! DML, exact-count assertion) pin this under real contention.

use sqlpp_durability::Patch;
use sqlpp_eval::{Env, EvalConfig, Evaluator, ExecStats};
use sqlpp_plan::lower::lower_with_scope;
use sqlpp_plan::{CoreExpr, CoreOp, PlanConfig, Scope};
use sqlpp_syntax::ast::{Delete, Expr, Insert, InsertSource, PathStep, Update};
use sqlpp_value::{Tuple, Value};

use crate::error::{Error, Result};
use crate::Engine;

/// The elements of a DML target, or a usage error naming the statement.
fn elements<'v>(stmt: &str, name: &str, target: &'v Value) -> Result<&'v [Value]> {
    target.as_elements().ok_or_else(|| {
        Error::Usage(format!(
            "{stmt} target {name} is a {}, not a collection",
            target.kind().name()
        ))
    })
}

impl Engine {
    /// The single commit point for all DML: publishes one statement's
    /// patch to `name`. On a durable engine the patch is appended to the
    /// write-ahead log *before* the catalog applies it — the only
    /// failure this call can produce. A failed append leaves the catalog
    /// byte-identical to the snapshot the statement read, so statement
    /// atomicity holds on both sides of a crash. The caller holds the
    /// catalog's `dml_guard` (which is what lets [`Engine::checkpoint`]
    /// capture images that match the log exactly) and has dropped its
    /// own snapshot, so the patch can apply in place.
    fn commit_patch(&self, name: &str, patch: Patch) -> Result<()> {
        let Some(wal) = self.wal() else {
            self.catalog().update(name, |target| patch.apply(target));
            return Ok(());
        };
        // One record, or two the first time a binding `register`ed
        // without logging is patched (its base is logged in full).
        wal.append_patch(name, self.catalog().get_str(name).ok(), &patch)?;
        self.catalog().update(name, |target| patch.apply(target));
        if let Ok(value) = self.catalog().get_str(name) {
            wal.set_logged(name, value);
        }
        Ok(())
    }

    pub(crate) fn exec_insert(
        &self,
        ins: &Insert,
        collect: bool,
    ) -> Result<(usize, Option<ExecStats>)> {
        let name = ins.target.join(".");
        let mut stats: Option<ExecStats> = None;
        let new_elements: Vec<Value> = match &ins.source {
            InsertSource::Value(expr) => {
                let (v, st) = self.eval_expr_with(expr.clone(), collect)?;
                stats = st;
                vec![v]
            }
            InsertSource::Query(q) => {
                let result = if collect {
                    let (_core, value, st) = self.run_ast_with_stats(q, 0)?;
                    stats = Some(st);
                    value
                } else {
                    self.prepare_ast((**q).clone())?.execute(self)?.into_value()
                };
                match result {
                    Value::Bag(items) | Value::Array(items) => items,
                    single => vec![single],
                }
            }
        };
        // Schema enforcement on write (all-or-nothing).
        if let Some(schema) = self.catalog().schema(&crate::Name::parse(&name)) {
            for (i, v) in new_elements.iter().enumerate() {
                if !schema.admits(v) {
                    return Err(Error::Schema(format!(
                        "INSERT INTO {name}: element {i} ({}) does not conform \
                         to the attached schema {}",
                        v.kind().name(),
                        schema
                    )));
                }
            }
        }
        let count = new_elements.len();
        // Serialize the read-modify-write against concurrent writers; the
        // source evaluation above ran lock-free on its own snapshot.
        let _writers = self.catalog().dml_guard();
        // Inserting into an unbound name creates a bag (the patch's rule
        // for MISSING); a bound target must be a collection.
        if let Ok(existing) = self.catalog().get_str(&name) {
            elements("INSERT", &name, &existing)?;
        }
        let patch = Patch {
            append: new_elements,
            ..Patch::default()
        };
        self.commit_patch(&name, patch)?;
        Ok((count, stats))
    }

    pub(crate) fn exec_delete(
        &self,
        del: &Delete,
        collect: bool,
    ) -> Result<(usize, Option<ExecStats>)> {
        let name = del.target.join(".");
        let alias = del
            .alias
            .clone()
            .unwrap_or_else(|| del.target.last().expect("non-empty name").clone());
        // Held through commit: the positions are computed against the
        // snapshot read here, so a concurrent writer must wait.
        let _writers = self.catalog().dml_guard();
        let existing = self.catalog().get_str(&name)?;
        let items = elements("DELETE", &name, &existing)?;
        let matcher = self.compile_row_predicate(&del.where_clause, &alias)?;
        // DML evaluation runs under the same governor as queries: budgets,
        // deadlines, and injected faults abort the statement before its
        // commit point, leaving the catalog untouched.
        let evaluator = Evaluator::new(
            self.catalog(),
            EvalConfig {
                collect_stats: collect,
                ..self.eval_config()
            },
        );
        let delete = selected(&evaluator, &matcher, &alias, items)?;
        drop(existing);
        let deleted = delete.len();
        self.commit_patch(
            &name,
            Patch {
                delete,
                ..Patch::default()
            },
        )?;
        Ok((deleted, evaluator.stats_snapshot()))
    }

    pub(crate) fn exec_update(
        &self,
        up: &Update,
        collect: bool,
    ) -> Result<(usize, Option<ExecStats>)> {
        let name = up.target.join(".");
        let alias = up
            .alias
            .clone()
            .unwrap_or_else(|| up.target.last().expect("non-empty name").clone());
        // Held through commit, as in DELETE.
        let _writers = self.catalog().dml_guard();
        let existing = self.catalog().get_str(&name)?;
        let items = elements("UPDATE", &name, &existing)?;
        let matcher = self.compile_row_predicate(&up.where_clause, &alias)?;
        // Each assignment: an attribute path (rooted at the element) and a
        // compiled RHS evaluated against the OLD element, SQL-style.
        let mut compiled: Vec<(Vec<String>, CoreExpr)> = Vec::new();
        for (path, value) in &up.assignments {
            let attrs = assignment_path(path, &alias)?;
            compiled.push((attrs, self.compile_row_expr(value, &alias)?));
        }
        let evaluator = Evaluator::new(
            self.catalog(),
            EvalConfig {
                collect_stats: collect,
                ..self.eval_config()
            },
        );
        let positions = selected(&evaluator, &matcher, &alias, items)?;
        let schema = self.catalog().schema(&crate::Name::parse(&name));
        let mut replace = Vec::with_capacity(positions.len());
        for pos in positions {
            let item = &items[pos];
            let env = Env::new().bind(alias.clone(), item.clone());
            // Evaluate every RHS against the old element first.
            let mut new_values = Vec::with_capacity(compiled.len());
            for (_, rhs) in &compiled {
                new_values.push(evaluator.expr(rhs, &env)?);
            }
            let mut element = item.clone();
            for ((attrs, _), value) in compiled.iter().zip(new_values) {
                element = set_path(element, attrs, value)?;
            }
            if let Some(schema) = &schema {
                if !schema.admits(&element) {
                    return Err(Error::Schema(format!(
                        "UPDATE {name}: updated element does not conform to \
                         the attached schema {schema}"
                    )));
                }
            }
            replace.push((pos, element));
        }
        drop(existing);
        let updated = replace.len();
        self.commit_patch(
            &name,
            Patch {
                replace,
                ..Patch::default()
            },
        )?;
        Ok((updated, evaluator.stats_snapshot()))
    }

    /// Compiles a WHERE predicate with `alias` in scope; `None` matches
    /// everything.
    fn compile_row_predicate(&self, pred: &Option<Expr>, alias: &str) -> Result<Option<CoreExpr>> {
        match pred {
            None => Ok(None),
            Some(p) => Ok(Some(self.compile_row_expr(p, alias)?)),
        }
    }

    /// Lowers one expression with `alias` (and the catalog schemas) in
    /// scope, reusing the planner end to end.
    fn compile_row_expr(&self, expr: &Expr, alias: &str) -> Result<CoreExpr> {
        let mut scope = Scope::new();
        scope.push();
        scope.add(alias.to_string());
        let q = crate::select_value_shell(expr.clone());
        let config = PlanConfig {
            compat: self.config().compat,
            schemas: self.catalog().schema_snapshot(),
        };
        let core = lower_with_scope(&q, &config, &mut scope).map_err(Error::Plan)?;
        match core.op {
            CoreOp::Project { expr, .. } => Ok(expr),
            other => Err(Error::Usage(format!(
                "unexpected lowering for DML expression: {other:?}"
            ))),
        }
    }
}

/// The positions of the rows a WHERE predicate selects (every row without
/// one). Takes the statement's evaluator so its stats accumulate.
fn selected(
    evaluator: &Evaluator<'_>,
    matcher: &Option<CoreExpr>,
    alias: &str,
    items: &[Value],
) -> Result<Vec<usize>> {
    match matcher {
        Some(pred) => Ok(evaluator.matching_positions(pred, alias, items)?),
        None => Ok((0..items.len()).collect()),
    }
}

/// Normalizes a SET path to the attribute chain below the element:
/// `alias.a.b`, or bare `a.b` (rooted implicitly).
fn assignment_path(path: &Expr, alias: &str) -> Result<Vec<String>> {
    let Expr::Path { head, steps } = path else {
        return Err(Error::Usage(
            "SET target must be an attribute path".to_string(),
        ));
    };
    let mut attrs: Vec<String> = Vec::with_capacity(steps.len() + 1);
    if head != alias {
        attrs.push(head.clone());
    }
    for step in steps {
        match step {
            PathStep::Attr(a) => attrs.push(a.clone()),
            PathStep::Index(_) => {
                return Err(Error::Usage(
                    "SET through array indices is not supported".to_string(),
                ));
            }
        }
    }
    if attrs.is_empty() {
        return Err(Error::Usage(
            "SET target must name an attribute, not the whole element".to_string(),
        ));
    }
    Ok(attrs)
}

/// Functional update of `element.attrs… = value`; intermediate tuples are
/// created as needed, and a MISSING value removes the attribute (the
/// write-side mirror of tuple construction dropping MISSING).
fn set_path(element: Value, attrs: &[String], value: Value) -> Result<Value> {
    let mut t = match element {
        Value::Tuple(t) => t,
        other => {
            return Err(Error::Usage(format!(
                "cannot SET attribute {:?} of a {}",
                attrs[0],
                other.kind().name()
            )));
        }
    };
    let (first, rest) = attrs.split_first().expect("non-empty path");
    if rest.is_empty() {
        if value.is_missing() {
            t.remove(first);
        } else {
            t.upsert(first.clone(), value);
        }
        return Ok(Value::Tuple(t));
    }
    let inner = t
        .remove(first)
        .unwrap_or_else(|| Value::Tuple(Tuple::new()));
    let updated = set_path(inner, rest, value)?;
    t.upsert(first.clone(), updated);
    Ok(Value::Tuple(t))
}
