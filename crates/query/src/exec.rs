//! Statement executor.
//!
//! A straightforward backtracking pattern matcher: the first node pattern is
//! the root, and the remaining pattern is expanded edge by edge (forward
//! along out-edges, backward along in-edges).
//!
//! **Candidate selection.** A variable's candidates — the root's, a
//! disconnected edge's source, an isolated node's and an unanchored
//! `OPTIONAL` part's — come from one helper. With an `=` predicate on a
//! bound value it asks the backend for a seek
//! ([`GraphBackend::for_each_candidate`]); otherwise it scans the label. A
//! seek visits every match, in id order like the scan, and possibly more.
//! Every candidate is still checked against every predicate, so the rows
//! and their order are the same either way; only the reads and checks spent
//! on vertices that cannot match fall away.
//!
//! Every neighbour expansion — and every `WHERE` predicate evaluation, which
//! reads a property through [`GraphBackend::with_property`] — goes through
//! the backend and is therefore counted in its [`AccessStats`]; the executor
//! keeps no cache of its own (a seek's index belongs to the backend) and,
//! reading through the backend's borrowed forms only, no allocation per
//! candidate or neighbour (only per projected row and value), so latency
//! differences between schemas reflect the storage work, as in the paper's
//! evaluation. That makes the counters a contract: what a statement costs
//! may only change when the storage work it does changes.
//!
//! # Slots and steps
//!
//! A statement is resolved once per plan ([`PhysicalPlan::compile`]): every
//! pattern variable to a *slot* — the node patterns declaring it and the
//! `WHERE` predicates on it — every edge pattern to a *step* `(pattern, src
//! slot, dst slot)`, and every variable an output clause names to its slot.
//! An execution resolves only its operands — each predicate's literal, or
//! its `$parameter`'s value, borrowed from the request's [`Params`] — and
//! `SKIP`/`LIMIT`. Matching backtracks on one scratch row with an
//! `Option<VertexId>` cell per slot — bind a cell, recurse, unbind it — and
//! appends each complete match to one flat table of such rows: no variable
//! name is hashed and nothing is allocated per match. A cell still `None`
//! after matching belongs to an unmatched `OPTIONAL` variable and surfaces
//! as [`PropertyValue::Null`].
//!
//! [`execute_statement`] adds the statement-level clauses on top of the same
//! core: **predicate pushdown** (a `WHERE` predicate is applied the moment
//! its variable is bound — root candidates before any expansion — pruning
//! the backtracking tree instead of filtering finished rows), **optional
//! edges** (after the mandatory pattern, in order, left-outer), then
//! **aggregation** (one row per `GROUP BY` group, one global group without;
//! property-carrying aggregates flatten LIST values, which keeps them
//! correct over the replicated LIST properties the DIR→OPT rewrite
//! substitutes for edge traversals) and **`DISTINCT` → `ORDER BY` →
//! `SKIP`/`LIMIT`**, in that order, on the (possibly aggregated) rows.
//!
//! # Aggregation and windowing
//!
//! These stages copy what they return and, beyond it, only a sort key no
//! returned column holds and what a distinct set keeps. Bindings are
//! bucketed by group in one counting pass: the group index hashes each
//! binding's `GROUP BY` cells in place (FxHash — vertex ids are the
//! process's own), so no key is built per group; groups keep their
//! first-appearance order and their members binding order. Per group, each `(slot, property)` a property
//! aggregate names is read once, in one pass over the bound vertices that
//! folds every element — LIST values flattened — into one accumulator:
//! count, exact `Int` sum, `Float` sum and count, and, only where a call
//! reads them, `min`/`max` (copied when an element improves on them) and
//! a distinct set. `HAVING` and `RETURN` share the folds, so the reads stay
//! what they were when each group collected its values.
//!
//! `ORDER BY` reads each row's keys once, against its representative
//! binding; a key that a `RETURN` column projects is not copied again.
//! Rows whose keys tie are ordered by their `Debug` text, so the order never
//! depends on how bindings were enumerated: identical rows tie without
//! formatting, and a row whose text is needed is formatted once, on first
//! need. Without `DISTINCT` only the window is ordered — the first
//! `SKIP + LIMIT` rows are selected and only they are sorted. `DISTINCT`
//! and `count(DISTINCT v.p)` compare values exactly as their `Debug` text
//! would (a `Float` by bits with all NaNs equal, `Int(2) ≠ Float(2.0)`),
//! without formatting them.
//!
//! A *plain* statement — no aggregate, no `DISTINCT`, no `ORDER BY` — turns
//! each match into one row, in match order, so its window is its first
//! `SKIP + LIMIT` matches: **matching stops there**. Every stage that appends
//! to the binding table (the root loop, each edge step, the disconnected-edge
//! and isolated-node candidates, each optional pass) stops once the table
//! holds that many rows, and only the `LIMIT` rows after the first `SKIP` are
//! projected. The backend's loops cannot be broken off, so the rest of the
//! current adjacency list is still walked (and charged) and the remaining
//! root visits do nothing. Any other statement matches everything first.

use crate::ast::{Aggregate, ReturnItem};
use crate::params::{BindError, ParamSignature, Params};
use crate::stmt::{order_values, CmpOp, CountTerm, Statement, Term};
use pgso_graphstore::{AccessStats, FxBuild, GraphBackend, PropertyValue, VertexId};
use pgso_telemetry::{FieldValue, StageTimings, TraceBuffer};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// One result row: the values requested by the RETURN clause.
pub type Row = Vec<PropertyValue>;

/// Result of executing a query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Result rows (a single row for aggregate queries).
    pub rows: Vec<Row>,
    /// Matches enumerated (before aggregation and windowing); a plain
    /// window stops at `SKIP + LIMIT`.
    pub matches: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Backend access counters accumulated during execution.
    pub stats: AccessStats,
    /// `WHERE` predicate evaluations performed. Each evaluation also counts
    /// as a vertex read in [`QueryResult::stats`], since the property is
    /// fetched through the backend.
    pub predicate_checks: u64,
    /// Wall time spent in each execution stage (root selection, expansion,
    /// optional matching, aggregation, windowing). Always populated; the
    /// extra monotonic-clock reads are noise next to any real query.
    pub stage_timings: StageTimings,
}

impl QueryResult {
    /// First value of the first row as an integer, convenient for COUNT-style
    /// assertions in tests and experiments.
    pub fn scalar(&self) -> Option<i64> {
        self.rows.first().and_then(|r| r.first()).and_then(PropertyValue::as_int)
    }
}

/// Executes a full statement (predicates, optional edges, aggregation with
/// `GROUP BY`, `DISTINCT`, `ORDER BY`, `SKIP`/`LIMIT`) against a backend:
/// [`PhysicalPlan::compile`], then run with the statement's own literals.
///
/// Statements should be fully bound ([`Statement::bind`]) before execution.
/// An *unbound* `$parameter` degrades gracefully rather than panicking: a
/// predicate comparing against it matches nothing (like a `Null` literal),
/// an unbound `SKIP` skips nothing, and an unbound `LIMIT` does not limit.
pub fn execute_statement(stmt: &Statement, backend: &dyn GraphBackend) -> QueryResult {
    PhysicalPlan::compile(stmt).run(None, backend)
}

/// A statement compiled for execution: its slots, steps, output columns,
/// folds and parameter signature, as indices into the statement it keeps.
/// Immutable; one plan serves any number of executions.
pub struct PhysicalPlan<'s> {
    stmt: Cow<'s, Statement>,
    signature: ParamSignature,
    slots: Vec<Slot>,
    edges: Vec<Step>,
    opt_edges: Vec<Step>,
    /// Slots of the variables the output clauses name, item by item; `None`
    /// for a variable no pattern part mentions.
    returns: Vec<Option<usize>>,
    group_by: Vec<Option<usize>>,
    having: Vec<Option<usize>>,
    order_by: Vec<Option<usize>>,
    /// Per `ORDER BY` key, the `RETURN` column that projects the same
    /// `var.property`: a row holds that key already, so it is not copied.
    order_columns: Vec<Option<usize>>,
    /// The `(slot, property)` pairs the property aggregates other than
    /// `count(v.p)` fold over, each once, with the parts their calls read.
    folds: Vec<FoldSpec>,
    /// Cells per binding-table row: one per slot, floored at one so that a
    /// pattern-less statement's empty table still reads as zero rows.
    stride: usize,
    /// A predicate on a variable no node pattern declares can never hold.
    unsatisfiable: bool,
    /// No aggregate, no `DISTINCT`, no `ORDER BY`: each match yields one
    /// row, in match order, so the window is the first matches' rows.
    plain: bool,
}

impl<'s> PhysicalPlan<'s> {
    /// Compiles `stmt`, borrowing it.
    pub fn compile(stmt: &'s Statement) -> Self {
        Self::resolve(Cow::Borrowed(stmt))
    }

    /// Compiles `stmt` into a plan that owns it, for a plan cache.
    pub fn compile_owned(stmt: Statement) -> PhysicalPlan<'static> {
        PhysicalPlan::resolve(Cow::Owned(stmt))
    }

    /// Executes the plan with `params` read by name, in place: the result
    /// [`execute_statement`] gives [`Statement::bind`]'s copy, without it.
    ///
    /// # Errors
    /// The [`BindError`]s [`Statement::bind`] returns for the same `params`.
    pub fn execute(
        &self,
        params: &Params,
        backend: &dyn GraphBackend,
    ) -> Result<QueryResult, BindError> {
        self.signature.validate(params)?;
        Ok(self.run(Some(params), backend))
    }

    fn resolve(stmt: Cow<'s, Statement>) -> Self {
        let mut slots = Vec::new();
        // Variable names, slot by slot, room for every occurrence: only
        // compiling looks a slot up by name.
        let occurrences =
            stmt.nodes.len() + stmt.opt_nodes.len() + 2 * (stmt.edges.len() + stmt.opt_edges.len());
        let (mut inline, mut heap) = ([""; 2 * INLINE], Vec::new());
        let names = scratch(&mut inline, &mut heap, occurrences);
        // The first pattern declaring a variable decides its label, and a
        // mandatory declaration outranks an optional one.
        for (at, node) in stmt.nodes.iter().enumerate() {
            let slot = slot_of(&mut slots, names, &node.var);
            let slot = &mut slots[slot];
            if !slot.mandatory {
                (slot.label, slot.any_label, slot.mandatory) = (1 + at, 1 + at, true);
            }
        }
        for (at, node) in stmt.opt_nodes.iter().enumerate() {
            let slot = slot_of(&mut slots, names, &node.var);
            let slot = &mut slots[slot];
            if !slot.mandatory && !slot.optional {
                slot.any_label = 1 + stmt.nodes.len() + at;
            }
            slot.optional = true;
        }
        // Edge endpoints that no node pattern declares get label-less slots.
        let mut edges = Vec::with_capacity(stmt.edges.len());
        let mut opt_edges = Vec::with_capacity(stmt.opt_edges.len());
        let first = 1 + stmt.nodes.len() + stmt.opt_nodes.len();
        let opt_first = first + stmt.edges.len();
        let lists =
            [(&mut edges, &stmt.edges, first), (&mut opt_edges, &stmt.opt_edges, opt_first)];
        for (steps, patterns, first) in lists {
            for (at, edge) in patterns.iter().enumerate() {
                let src = slot_of(&mut slots, names, &edge.src);
                steps.push(Step {
                    label: first + at,
                    src,
                    dst: slot_of(&mut slots, names, &edge.dst),
                });
            }
        }
        // Undeclared endpoints keep their predicates too: unanchored OPTIONAL
        // pairs are enumerated, and counted, even when nothing can match.
        let names = &names[..slots.len()];
        let mut unsatisfiable = false;
        for (at, predicate) in stmt.predicates.iter().enumerate() {
            let slot = names.iter().position(|name| *name == predicate.var);
            let slot = slot.map(|slot| &mut slots[slot]);
            unsatisfiable |= !slot.as_ref().is_some_and(|slot| slot.mandatory || slot.optional);
            if let Some(slot) = slot {
                slot.predicates.push(at);
            }
        }
        // Output clauses name variables too: looked up once here, not per row.
        let slot = |var: &str| names.iter().position(|name| *name == var);
        let order_columns = stmt.order_by.iter().map(|key| {
            stmt.returns.iter().position(|item| {
                matches!(item, ReturnItem::Property { var, property }
                    if *var == key.var && *property == key.property)
            })
        });
        // RETURN and HAVING calls on one `(slot, property)` share one fold.
        let mut folds: Vec<FoldSpec> = Vec::new();
        let returns = stmt.returns.iter().map(|item| match item {
            ReturnItem::Aggregate { agg, var, .. } => Some((*agg, var)),
            _ => None,
        });
        let having = stmt.having.iter().map(|pred| Some((pred.agg, &pred.var)));
        let calls = returns.chain(having).enumerate().filter_map(|(call, agg)| {
            let (agg, var) = agg.filter(|(agg, _)| *agg != Aggregate::Count)?;
            Some((call, agg, var, call_property(&stmt, call)?))
        });
        for (call, agg, var, property) in calls {
            let slot = slot(var);
            let at = folds.iter().position(|fold| {
                fold.slot == slot && call_property(&stmt, fold.call) == Some(property)
            });
            let at = at.unwrap_or_else(|| {
                folds.push(FoldSpec { slot, call, min: false, max: false, distinct: false });
                folds.len() - 1
            });
            folds[at].min |= agg == Aggregate::Min;
            folds[at].max |= agg == Aggregate::Max;
            folds[at].distinct |= agg == Aggregate::CountDistinct;
        }
        PhysicalPlan {
            signature: stmt.signature(),
            returns: stmt.returns.iter().map(|item| slot(item.var())).collect(),
            group_by: stmt.group_by.iter().map(|var| slot(var)).collect(),
            having: stmt.having.iter().map(|pred| slot(&pred.var)).collect(),
            order_by: stmt.order_by.iter().map(|key| slot(&key.var)).collect(),
            order_columns: order_columns.collect(),
            folds,
            stride: slots.len().max(1),
            slots,
            edges,
            opt_edges,
            unsatisfiable,
            plain: !stmt.is_aggregation() && !stmt.distinct && stmt.order_by.is_empty(),
            stmt,
        }
    }

    /// One execution with validated `params`, or none (unbound).
    fn run(&self, params: Option<&Params>, backend: &dyn GraphBackend) -> QueryResult {
        let before = backend.stats();
        let start = Instant::now();
        let stmt = &*self.stmt;
        let (mut inline, mut heap) = ([None; INLINE], Vec::new());
        let operands = scratch(&mut inline, &mut heap, stmt.predicates.len() + stmt.having.len());
        let terms =
            stmt.predicates.iter().map(|p| &p.value).chain(stmt.having.iter().map(|h| &h.value));
        for (operand, term) in operands.iter_mut().zip(terms) {
            *operand = match term {
                Term::Literal(value) => Some(value),
                Term::Parameter(name) => params.and_then(|params| params.get(name)),
            };
        }
        // Entry 0 is the empty label, then every node and edge pattern's.
        let (mut inline, mut heap) = ([""; 2 * INLINE], Vec::new());
        let nodes = stmt.nodes.len() + stmt.opt_nodes.len();
        let labels =
            scratch(&mut inline, &mut heap, 1 + nodes + self.edges.len() + self.opt_edges.len());
        let node_labels = stmt.nodes.iter().chain(&stmt.opt_nodes).map(|node| &node.label);
        let edge_labels = stmt.edges.iter().chain(&stmt.opt_edges).map(|edge| &edge.label);
        for (cell, label) in labels[1..].iter_mut().zip(node_labels.chain(edge_labels)) {
            *cell = label;
        }
        let count = |term: &Option<CountTerm>| match term.as_ref()? {
            CountTerm::Count(n) => Some(*n),
            CountTerm::Parameter(name) => params?.get(name)?.as_int().map(|n| n as usize),
        };
        let (skip, limit) =
            (count(&stmt.skip).unwrap_or(0), count(&stmt.limit).unwrap_or(usize::MAX));
        let ctx = Ctx {
            plan: self,
            stmt,
            backend,
            labels,
            operands,
            skip,
            limit,
            budget: if self.plain { skip.saturating_add(limit) } else { usize::MAX },
            predicate_checks: std::cell::Cell::new(0),
        };
        let mut timings = StageTimings::default();
        // Room for the first rows, taken at once rather than doubled up to.
        let mut bindings: Vec<Cell> = Vec::with_capacity(ctx.budget.min(16) * ctx.stride);
        // A statement that cannot match skips root selection and expansion.
        if !ctx.unsatisfiable && !stmt.nodes.is_empty() {
            let (mut inline, mut heap) = ([None; INLINE], Vec::new());
            let row = scratch(&mut inline, &mut heap, ctx.slots.len());
            let stage = Instant::now();
            ctx.for_each_candidate(ROOT, ctx.labels[ctx.slots[ROOT].label], &mut |root| {
                // Predicate pushdown: a root failing a WHERE predicate is not
                // expanded. Once the table is full the remaining visits are
                // no-ops: the backend's seek or scan cannot be broken off.
                if !ctx.full(&bindings) && ctx.passes(ROOT, root) {
                    row[ROOT] = Some(root);
                    expand(&ctx, 0, row, &mut bindings);
                    row[ROOT] = None;
                }
            });
            timings.expansion = stage.elapsed();
        }
        let stage = Instant::now();
        let bindings = apply_optional(&ctx, bindings);
        let matches = bindings.len() / ctx.stride;
        timings.optional = stage.elapsed();
        let stage = Instant::now();
        let (rows, reps) = if stmt.is_aggregation() {
            aggregate_rows(&ctx, &bindings)
        } else {
            // A plain statement projects only the window; any other projects
            // every match, and only ORDER BY reads the representatives.
            let (skip, limit) = if ctx.plain { (ctx.skip, ctx.limit) } else { (0, usize::MAX) };
            let rows = bindings.chunks_exact(ctx.stride).skip(skip).take(limit);
            let rows = rows.map(|row| {
                (0..ctx.returns.len()).map(|item| project(&ctx, ctx.output(item), Some(row)))
            });
            let reps = if stmt.order_by.is_empty() { Vec::new() } else { (0..matches).collect() };
            (rows.map(Iterator::collect).collect(), reps)
        };
        timings.aggregate = stage.elapsed();
        let stage = Instant::now();
        let rows = if ctx.plain { rows } else { finalize_rows(&ctx, rows, &reps, &bindings) };
        timings.windowing = stage.elapsed();
        QueryResult {
            rows,
            matches,
            elapsed: start.elapsed(),
            stats: backend.stats().delta_since(&before),
            predicate_checks: ctx.predicate_checks.get(),
            stage_timings: timings,
        }
    }
}

/// The property aggregate call `call` reads — `RETURN` items first, then
/// `HAVING` predicates — if it reads one.
fn call_property(stmt: &Statement, call: usize) -> Option<&str> {
    let having = || stmt.having[call - stmt.returns.len()].property.as_deref();
    stmt.returns.get(call).map_or_else(having, ReturnItem::property)
}

/// Operands and scratch-row cells an execution keeps on the stack; twice as
/// many labels, and variable names while compiling.
const INLINE: usize = 8;

/// `n` cells of `inline`, or of `heap` when there are more.
fn scratch<'b, T: Copy + Default, const N: usize>(
    inline: &'b mut [T; N],
    heap: &'b mut Vec<T>,
    n: usize,
) -> &'b mut [T] {
    if n <= N {
        &mut inline[..n]
    } else {
        heap.resize(n, T::default());
        heap
    }
}

/// Emits the post-hoc execution trace of `result` under `span`: one
/// `stage.<name>` event per non-zero stage and a closing `query.exec` event
/// carrying match, row and predicate-check counts. Emission works from the
/// recorded [`StageTimings`], off the execution hot path; serving layers pass
/// the span they hold (a wire-supplied trace id, or [`TraceBuffer::new_span`]).
pub fn emit_exec_trace(result: &QueryResult, trace: &TraceBuffer, span: u64) {
    for (name, duration) in result.stage_timings.stages() {
        if !duration.is_zero() {
            let event = match name {
                "root_selection" => "stage.root_selection",
                "expansion" => "stage.expansion",
                "optional" => "stage.optional",
                "aggregate" => "stage.aggregate",
                _ => "stage.windowing",
            };
            trace.emit_with_duration(event, span, duration, Vec::new());
        }
    }
    trace.emit_with_duration(
        "query.exec",
        span,
        result.elapsed,
        vec![
            ("matches", FieldValue::from(result.matches)),
            ("rows", FieldValue::from(result.rows.len())),
            ("predicate_checks", FieldValue::from(result.predicate_checks)),
        ],
    );
}

/// One cell of a binding row: the vertex bound to a slot, `None` while the
/// slot is unbound (after matching: an unmatched `OPTIONAL` variable). The
/// matches of an execution are one flat table, `PhysicalPlan::stride` cells
/// to a row.
type Cell = Option<VertexId>;

/// What a property read lends: the stored value, `None` when it is missing.
type Read<'v> = Option<&'v PropertyValue>;

/// Slot of the root variable: the first node pattern is resolved first.
const ROOT: usize = 0;

/// A pattern variable, resolved once per plan.
#[derive(Default)]
struct Slot {
    /// Label (an entry of [`Ctx::labels`]) of the variable's mandatory node
    /// pattern, the only label a mandatory edge checks; entry 0, the empty
    /// label that anything matches, without one.
    label: usize,
    /// Label of its mandatory — failing that, its `OPTIONAL` — node
    /// pattern: what an optional edge checks.
    any_label: usize,
    /// Declared by a mandatory node pattern, so bound in every match.
    mandatory: bool,
    /// Declared by an `OPTIONAL` node pattern: pads with `Null` when unbound.
    optional: bool,
    /// The `WHERE` predicates on the variable, by index, for bind-time
    /// filtering.
    predicates: Vec<usize>,
}

/// An edge pattern: its label (an entry of [`Ctx::labels`]) and its
/// endpoints resolved to slots.
struct Step {
    label: usize,
    src: usize,
    dst: usize,
}

/// One execution of a plan: the plan, the backend every read goes through,
/// the operands this execution compares against, the window and the
/// predicate-evaluation counter.
struct Ctx<'a> {
    plan: &'a PhysicalPlan<'a>,
    stmt: &'a Statement,
    backend: &'a dyn GraphBackend,
    /// The statement's labels, read by index in the matching loops.
    labels: &'a [&'a str],
    /// The right-hand side of every `WHERE`, then every `HAVING` predicate:
    /// its literal or its parameter's value, `None` while unbound.
    operands: &'a [Read<'a>],
    /// `SKIP` and `LIMIT`; an unbound `$parameter` skips nothing and does
    /// not limit.
    skip: usize,
    limit: usize,
    /// Rows the binding table may need: `SKIP + LIMIT` for a plain windowed
    /// statement, unbounded otherwise. A full table stops matching.
    budget: usize,
    predicate_checks: std::cell::Cell<u64>,
}

impl<'a> std::ops::Deref for Ctx<'a> {
    type Target = PhysicalPlan<'a>;

    fn deref(&self) -> &PhysicalPlan<'a> {
        self.plan
    }
}

/// A `RETURN` item resolved to `(variable slot, property)`.
type Output<'a> = (Option<usize>, Option<&'a str>);

/// Index of `var`'s slot, appended undeclared (label-less) if `var` is new.
/// `names` holds the name of every slot in `slots`, and room for one more.
fn slot_of<'a>(slots: &mut Vec<Slot>, names: &mut [&'a str], var: &'a str) -> usize {
    match names[..slots.len()].iter().position(|name| *name == var) {
        Some(slot) => slot,
        None => {
            names[slots.len()] = var;
            slots.push(Slot::default());
            slots.len() - 1
        }
    }
}

impl<'a> Ctx<'a> {
    /// `RETURN` item `item` resolved to `(variable slot, property)`.
    fn output(&self, item: usize) -> Output<'a> {
        (self.returns[item], self.stmt.returns[item].property())
    }

    /// Whether `table` holds every row the statement can return, so that
    /// appending more would only enumerate matches the window drops.
    fn full(&self, table: &[Cell]) -> bool {
        table.len() / self.stride >= self.budget
    }

    /// Reads one property of `vertex` where it is stored (one vertex read)
    /// and returns what `f` makes of it; nothing is copied unless `f` clones.
    fn read<R>(&self, vertex: VertexId, property: &str, mut f: impl FnMut(Read<'_>) -> R) -> R {
        let mut result = None;
        self.backend.with_property(vertex, property, &mut |value| result = Some(f(value)));
        result.expect("with_property calls back exactly once")
    }

    /// Visits the vertices of `label` that `slot` may bind, in id order:
    /// those a seek on the slot's first `=` predicate with a bound value —
    /// literal or parameter — finds, or the whole label when it has none.
    /// The visitor still checks [`Ctx::passes`]: a seek may visit vertices
    /// that fail it.
    fn for_each_candidate(&self, slot: usize, label: &str, f: &mut dyn FnMut(VertexId)) {
        let seek = self.slots[slot].predicates.iter().find_map(|&at| {
            let predicate = &self.stmt.predicates[at];
            Some((&predicate.property, self.operands[at].filter(|_| predicate.op == CmpOp::Eq)?))
        });
        match seek {
            Some((key, value)) => self.backend.for_each_candidate(label, key, value, f),
            None => self.backend.for_each_with_label(label, f),
        }
    }

    /// Evaluates every predicate on `slot` against `vertex`. A missing
    /// property fails the predicate, as does an unbound `$parameter` (no
    /// property is fetched for one, so it is not counted as a check).
    /// Called per candidate and neighbour, so kept inline in those loops.
    #[inline(always)]
    fn passes(&self, slot: usize, vertex: VertexId) -> bool {
        self.slots[slot].predicates.iter().all(|&at| {
            let (predicate, Some(rhs)) = (&self.stmt.predicates[at], self.operands[at]) else {
                return false;
            };
            self.predicate_checks.set(self.predicate_checks.get() + 1);
            self.read(vertex, &predicate.property, |value| {
                value.is_some_and(|value| predicate.op.eval(value, rhs))
            })
        })
    }

    /// The one edge step. With exactly one endpoint of `edge` bound, walks
    /// the edge from it (out-neighbours from `src`, in-neighbours from `dst`)
    /// and hands `visit` the free endpoint's slot with each neighbour that
    /// may bind it: one carrying its label — the mandatory declaration's, for
    /// an `optional` edge any declaration's — and passing its predicates,
    /// checked in that order, one neighbour at a time. Returns `false`,
    /// having read nothing, when both endpoints or neither are bound.
    /// Kept inline in the expansion, which calls it per partial match.
    #[inline(always)]
    fn across(
        &self,
        edge: &Step,
        src: Cell,
        dst: Cell,
        optional: bool,
        visit: &mut dyn FnMut(usize, VertexId),
    ) -> bool {
        let (free, from) = match (src, dst) {
            (Some(src), None) => (edge.dst, src),
            (None, Some(dst)) => (edge.src, dst),
            _ => return false,
        };
        let slot = &self.slots[free];
        let label = self.labels[if optional { slot.any_label } else { slot.label }];
        let mut step = |n| {
            if (label.is_empty() || self.backend.has_label(n, label)) && self.passes(free, n) {
                visit(free, n);
            }
        };
        if src.is_some() {
            self.backend.for_each_out(from, self.labels[edge.label], &mut step);
        } else {
            self.backend.for_each_in(from, self.labels[edge.label], &mut step);
        }
        true
    }
}

/// Recursively matches mandatory edge patterns in order, backtracking on the
/// one scratch `row`: bind a cell, recurse, unbind it. A complete match is
/// appended to `out`, the only copy made of it; once `out` is full, the
/// remaining neighbours and candidates are visited without recursing.
fn expand(ctx: &Ctx<'_>, edge_index: usize, row: &mut [Cell], out: &mut Vec<Cell>) {
    let Some(edge) = ctx.edges.get(edge_index) else {
        // All edges matched. A mandatory variable still unbound belongs to
        // an isolated node pattern.
        let mut cells = ctx.slots.iter().zip(&*row);
        let complete = cells.all(|(slot, cell)| cell.is_some() || !slot.mandatory);
        return if complete { out.extend_from_slice(row) } else { bind_isolated(ctx, row, out) };
    };
    let (src, dst) = (row[edge.src], row[edge.dst]);
    let walked = ctx.across(edge, src, dst, false, &mut |free, neighbour| {
        if !ctx.full(out) {
            row[free] = Some(neighbour);
            expand(ctx, edge_index + 1, row, out);
            row[free] = None;
        }
    });
    if let (false, Some(src), Some(dst)) = (walked, src, dst) {
        let mut connected = false;
        ctx.backend.for_each_out(src, ctx.labels[edge.label], &mut |n| connected |= n == dst);
        if connected {
            expand(ctx, edge_index + 1, row, out);
        }
    } else if !walked {
        // Disconnected edge pattern: enumerate source candidates, then
        // match the same edge again with its source bound.
        ctx.for_each_candidate(edge.src, ctx.labels[ctx.slots[edge.src].label], &mut |candidate| {
            if !ctx.full(out) && ctx.passes(edge.src, candidate) {
                row[edge.src] = Some(candidate);
                expand(ctx, edge_index, row, out);
                row[edge.src] = None;
            }
        });
    }
}

/// Completes a match whose edges left mandatory node patterns unbound: each
/// binds to any vertex of its label that passes its predicates. The
/// candidates of such a slot are read once, in slot order, and the match is
/// multiplied out over them, earlier slots varying slowest. Each row of a
/// stage yields at least one match, in order, or every row yields none, so
/// no stage keeps more rows than `out` has room for.
fn bind_isolated(ctx: &Ctx<'_>, row: &[Cell], out: &mut Vec<Cell>) {
    let (width, room) = (row.len(), ctx.budget.saturating_sub(out.len() / ctx.stride));
    let mut rows = row.to_vec();
    for (slot, node) in ctx.slots.iter().enumerate() {
        // With no row left nothing can match, and nothing more is read.
        if node.mandatory && row[slot].is_none() && !rows.is_empty() {
            let mut candidates = Vec::new();
            ctx.for_each_candidate(slot, ctx.labels[node.label], &mut |candidate| {
                if ctx.passes(slot, candidate) {
                    candidates.push(candidate);
                }
            });
            let cells = (rows.len() * candidates.len()).min(room.saturating_mul(width));
            let mut expanded = Vec::with_capacity(cells);
            let product =
                rows.chunks_exact(width).flat_map(|row| candidates.iter().map(move |&c| (row, c)));
            for (row, candidate) in product.take(room) {
                expanded.extend_from_slice(row);
                let at = expanded.len() - width + slot;
                expanded[at] = Some(candidate);
            }
            rows = expanded;
        }
    }
    out.extend(rows);
}

/// Applies the optional edges in order, left-outer style: every input row
/// survives; rows whose optional edge matches are multiplied per match, rows
/// without a match keep the optional variable unbound. Since each input row
/// yields at least one output row, in order, a full output stops the pass.
fn apply_optional(ctx: &Ctx<'_>, mut current: Vec<Cell>) -> Vec<Cell> {
    if ctx.opt_edges.is_empty() {
        return current;
    }
    let push_bound = |next: &mut Vec<Cell>, row: &[Cell], bound: &[(usize, VertexId)]| {
        let at = next.len();
        next.extend_from_slice(row);
        bound.iter().for_each(|&(slot, vertex)| next[at + slot] = Some(vertex));
    };
    // Slots an earlier pattern part may have bound: the mandatory nodes plus
    // those of already-processed optional edges. An edge with both endpoints
    // outside this set is *unanchored*: it starts a fresh component and must
    // enumerate its own candidates.
    let mut introduced: Vec<bool> = ctx.slots.iter().map(|slot| slot.mandatory).collect();
    for edge in &ctx.opt_edges {
        // Candidate (src, dst) pairs for an unanchored part depend only on
        // the edge, so compute them once, not per row.
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        if !introduced[edge.src] && !introduced[edge.dst] {
            ctx.for_each_candidate(edge.src, ctx.labels[ctx.slots[edge.src].any_label], &mut |s| {
                if ctx.passes(edge.src, s) {
                    ctx.across(edge, Some(s), None, true, &mut |_, n| pairs.push((s, n)));
                }
            });
        }
        let mut next = Vec::with_capacity(current.len());
        for row in current.chunks_exact(ctx.stride) {
            if ctx.full(&next) {
                break;
            }
            let unmatched = next.len();
            let walked = ctx.across(edge, row[edge.src], row[edge.dst], true, &mut |free, n| {
                push_bound(&mut next, row, &[(free, n)]);
            });
            if !walked && row[edge.src].is_none() && !pairs.is_empty() {
                // Unanchored part with matches: cross-join them in, like a
                // left outer join against a fresh component.
                for &(s, n) in &pairs {
                    push_bound(&mut next, row, &[(edge.src, s), (edge.dst, n)]);
                }
            } else if next.len() == unmatched {
                // Nothing matched, both endpoints already bound (the edge
                // adds no binding, whether it exists or not), no unanchored
                // match, or an earlier optional part that should have bound
                // an endpoint failed: the row survives as-is.
                next.extend_from_slice(row);
            }
        }
        introduced[edge.src] = true;
        introduced[edge.dst] = true;
        current = next;
    }
    current
}

/// Evaluates a non-aggregate RETURN item against `row` (`None` for the
/// binding-less global group of an empty match).
fn project(ctx: &Ctx<'_>, (slot, property): Output<'_>, row: Option<&[Cell]>) -> PropertyValue {
    let empty = || PropertyValue::Str(String::new());
    match (row.and_then(|row| row[slot?]), property) {
        (Some(vertex), Some(property)) => {
            ctx.read(vertex, property, |value| value.cloned()).unwrap_or_else(empty)
        }
        (Some(vertex), None) => PropertyValue::Int(vertex.0 as i64),
        // Unmatched OPTIONAL variables pad with Null; anything else unbound
        // is a malformed query.
        (None, _) if row.is_some() && slot.is_some_and(|slot| ctx.slots[slot].optional) => {
            PropertyValue::Null
        }
        (None, Some(_)) => empty(),
        (None, None) => PropertyValue::Int(-1),
    }
}

/// Computes one row per aggregation group — a single global group without
/// `GROUP BY`, one group per distinct combination of grouped vertices
/// otherwise (in first-appearance order, so the output is deterministic).
/// Also returns each row's *representative* binding index (the group's first
/// binding), which downstream `ORDER BY` keys are evaluated against;
/// `usize::MAX` marks the binding-less global group of an empty match (its
/// sort keys read as `Null`).
fn aggregate_rows(ctx: &Ctx<'_>, bindings: &[Cell]) -> (Vec<Row>, Vec<usize>) {
    let stmt = ctx.stmt;
    let (members, bounds) = group_members(ctx, bindings);
    let mut rows = Vec::with_capacity(bounds.len() - 1);
    let mut reps = Vec::with_capacity(bounds.len() - 1);
    // One fold per `ctx.folds` entry, emptied for every group.
    let mut folds: Vec<Option<Fold>> = ctx.folds.iter().map(|_| None).collect();
    for members in bounds.windows(2).map(|bounds| &members[bounds[0]..bounds[1]]) {
        folds.iter_mut().for_each(|fold| *fold = None);
        // `sum(r.dose), min(r.dose), max(r.dose)` read each property once,
        // not once per aggregate (the reads are charged to AccessStats, so
        // sharing keeps the counters proportional to the data touched).
        let mut aggregate = |agg, slot, property| {
            group_aggregate(ctx, bindings, members, &mut folds, agg, slot, property)
        };
        // HAVING filters whole groups *before* their row is built (so before
        // DISTINCT / ORDER BY / SKIP / LIMIT), sharing the folds with the
        // RETURN aggregates below. An unbound `$parameter` fails the group,
        // mirroring WHERE semantics.
        let mut having =
            stmt.having.iter().zip(&ctx.having).zip(&ctx.operands[stmt.predicates.len()..]);
        let passes = having.all(|((pred, &slot), &rhs)| {
            let Some(rhs) = rhs else {
                return false;
            };
            pred.op.eval(&aggregate(pred.agg, slot, pred.property.as_deref()), rhs)
        });
        if passes {
            let rep = members.first().and_then(|&i| bindings.chunks_exact(ctx.stride).nth(i));
            let row =
                stmt.returns.iter().enumerate().map(|(item, agg)| match (agg, ctx.output(item)) {
                    (ReturnItem::Aggregate { agg, .. }, output) => {
                        aggregate(*agg, output.0, output.1)
                    }
                    // A non-aggregated item next to aggregates reads from the
                    // group's first binding — well-defined when the item's
                    // variable is a GROUP BY key, an implicit sample otherwise.
                    (_, output) => project(ctx, output, rep),
                });
            rows.push(row.collect());
            reps.push(members.first().copied().unwrap_or(usize::MAX));
        }
    }
    (rows, reps)
}

/// The bindings bucketed by group: `members[bounds[g]..bounds[g + 1]]` are
/// the binding indices of group `g`, in binding order, and groups are
/// numbered in order of first appearance. Without `GROUP BY` there is one
/// global group, which exists even over an empty match: COUNT of an empty
/// set is 0, not no-answer.
fn group_members(ctx: &Ctx<'_>, bindings: &[Cell]) -> (Vec<usize>, Vec<usize>) {
    let count = bindings.len() / ctx.stride;
    if ctx.group_by.is_empty() {
        return ((0..count).collect(), vec![0, count]);
    }
    // The group of every binding and the size of every group. A key reads
    // its binding's cells in place, so no key is built per group.
    let mut index: HashMap<GroupKey<'_>, usize, FxBuild> = HashMap::default();
    let mut group_of = Vec::with_capacity(count);
    let mut ends: Vec<usize> = Vec::new();
    for cells in bindings.chunks_exact(ctx.stride) {
        let next = ends.len();
        let group = *index.entry(GroupKey { cells, slots: &ctx.group_by }).or_insert(next);
        if group == next {
            ends.push(0);
        }
        ends[group] += 1;
        group_of.push(group);
    }
    // Sizes become end offsets. Filling each group from its end while
    // walking the bindings backwards leaves its members in binding order and
    // its end offset at its start.
    let mut end = 0;
    for size in &mut ends {
        end += *size;
        *size = end;
    }
    let mut members = vec![0; count];
    for (binding, &group) in group_of.iter().enumerate().rev() {
        ends[group] -= 1;
        members[ends[group]] = binding;
    }
    ends.push(count);
    (members, ends)
}

/// A binding's `GROUP BY` cells, read in place.
#[derive(Clone, Copy)]
struct GroupKey<'b> {
    cells: &'b [Cell],
    slots: &'b [Option<usize>],
}

impl GroupKey<'_> {
    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.slots.iter().map(|&slot| self.cells[slot?])
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cells().eq(other.cells())
    }
}

impl Eq for GroupKey<'_> {}

impl Hash for GroupKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cells().for_each(|cell| cell.hash(state));
    }
}

/// A `(variable slot, property)` that property aggregates other than
/// `count(v.p)` range over, and which optional parts of its [`Fold`] they
/// read.
struct FoldSpec {
    slot: Option<usize>,
    /// The first aggregate call on the pair (see [`call_property`]).
    call: usize,
    min: bool,
    max: bool,
    distinct: bool,
}

/// What the property aggregates of one group read of one `(slot, property)`,
/// folded in one read pass over the group's bound vertices. The pass
/// flattens LIST values into their elements and skips `Null`s and missing
/// properties (a `Null` inside a LIST is an element). That keeps the
/// per-element aggregates (`SUM`/`MIN`/`MAX`/`AVG`, `COUNT(DISTINCT v.p)`,
/// `size(COLLECT(v.p))`) correct when the DIR→OPT rewrite answers them from
/// a replicated LIST property: the list holds one element per original
/// edge, so the flattened multiset equals the per-binding multiset on DIR.
struct Fold {
    /// Elements folded.
    count: usize,
    /// Their exact sum while every element is an `Int` and the sum fits in an
    /// `i64`; `None` from the first element that is not, or overflows.
    int_sum: Option<i64>,
    /// The numeric elements summed as `f64` in binding order, from `-0.0`
    /// like [`Iterator::sum`], and how many there were.
    float_sum: f64,
    floats: usize,
    /// The first smallest and the last largest element under
    /// [`order_values`] (what `min_by` and `max_by` pick), when read.
    min: Option<PropertyValue>,
    max: Option<PropertyValue>,
    /// The distinct elements, when read.
    distinct: Option<HashSet<Typed<[PropertyValue; 1]>>>,
}

impl Fold {
    fn new(spec: &FoldSpec) -> Self {
        Fold {
            count: 0,
            int_sum: Some(0),
            float_sum: -0.0,
            floats: 0,
            min: None,
            max: None,
            distinct: spec.distinct.then(HashSet::new),
        }
    }

    /// Folds one element in. A minimum or maximum is copied only when the
    /// element improves on it; the distinct set keeps a copy of each
    /// element it has not seen (and drops that of one it has).
    fn add(&mut self, spec: &FoldSpec, value: &PropertyValue) {
        self.count += 1;
        self.int_sum = match value {
            PropertyValue::Int(n) => self.int_sum.and_then(|sum| sum.checked_add(*n)),
            _ => None,
        };
        if let Some(x) = value.as_float() {
            self.float_sum += x;
            self.floats += 1;
        }
        let replaces = |best: &Option<PropertyValue>, keep: fn(Ordering) -> bool| {
            best.as_ref().is_none_or(|best| !keep(order_values(best, value)))
        };
        if spec.min && replaces(&self.min, |ord| ord != Ordering::Greater) {
            self.min = Some(value.clone());
        }
        if spec.max && replaces(&self.max, |ord| ord == Ordering::Greater) {
            self.max = Some(value.clone());
        }
        if let Some(distinct) = &mut self.distinct {
            distinct.insert(Typed([value.clone()]));
        }
    }
}

/// Evaluates one aggregate call — a RETURN item or the left side of a
/// `HAVING` predicate — over a group's bindings; `slot` is its variable's.
/// `folds` holds the group's folds, built on the first call that reads one.
fn group_aggregate(
    ctx: &Ctx<'_>,
    bindings: &[Cell],
    members: &[usize],
    folds: &mut [Option<Fold>],
    agg: Aggregate,
    slot: Option<usize>,
    property: Option<&str>,
) -> PropertyValue {
    let bound = || members.iter().filter_map(|&i| bindings[i * ctx.stride + slot?]);
    let int = |n: usize| PropertyValue::Int(n as i64);
    let Some(property) = property else {
        return match agg {
            Aggregate::Count | Aggregate::CollectCount => int(bound().count()),
            Aggregate::CountDistinct => int(bound().collect::<HashSet<_, FxBuild>>().len()),
            // A property-less numeric aggregate cannot be built through the
            // builder or the parser; answer Null for a hand-assembled one.
            _ => PropertyValue::Null,
        };
    };
    // `count(v.p)` counts per-binding property *presence* (a LIST is one
    // value here), so it reads the property, not the fold.
    if agg == Aggregate::Count {
        return int(bound().filter(|&v| ctx.read(v, property, |value| value.is_some())).count());
    }
    let at = ctx
        .folds
        .iter()
        .position(|fold| fold.slot == slot && call_property(ctx.stmt, fold.call) == Some(property));
    let at = at.expect("compiling resolves a fold for every property aggregate");
    let spec = &ctx.folds[at];
    let fold = folds[at].get_or_insert_with(|| {
        let mut fold = Fold::new(spec);
        for vertex in bound() {
            ctx.read(vertex, property, |value| match value {
                Some(PropertyValue::List(items)) => items.iter().for_each(|v| fold.add(spec, v)),
                Some(PropertyValue::Null) | None => {}
                Some(scalar) => fold.add(spec, scalar),
            });
        }
        fold
    });
    match agg {
        Aggregate::CollectCount => int(fold.count),
        Aggregate::CountDistinct => int(fold.distinct.as_ref().map_or(0, HashSet::len)),
        // An overflowing Int sum answers the Float sum instead of wrapping.
        Aggregate::Sum => match fold.int_sum {
            Some(sum) => PropertyValue::Int(sum),
            None => PropertyValue::Float(fold.float_sum),
        },
        Aggregate::Min => fold.min.clone().unwrap_or(PropertyValue::Null),
        Aggregate::Max => fold.max.clone().unwrap_or(PropertyValue::Null),
        Aggregate::Avg => match fold.floats {
            0 => PropertyValue::Null,
            n => PropertyValue::Float(fold.float_sum / n as f64),
        },
        Aggregate::Count => unreachable!("count(v.p) is answered above"),
    }
}

/// Values compared by the equality of their `Debug` text, which `DISTINCT`
/// and the `ORDER BY` tie-break are defined by, without formatting them:
/// `Float`s by bits with every NaN equal (so `-0.0 ≠ 0.0`), `Int(2) ≠
/// Float(2.0)`, `Str`s by content and `List`s element by element. `V` is a
/// row, or one value as `[value]`. Hashed with std's keyed hasher: the
/// values come from clients.
struct Typed<V>(V);

fn same_value(a: &PropertyValue, b: &PropertyValue) -> bool {
    match (a, b) {
        (PropertyValue::Float(x), PropertyValue::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (PropertyValue::List(x), PropertyValue::List(y)) => same_values(x, y),
        _ => a == b,
    }
}

fn same_values(a: &[PropertyValue], b: &[PropertyValue]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_value(a, b))
}

fn hash_value<H: Hasher>(value: &PropertyValue, state: &mut H) {
    std::mem::discriminant(value).hash(state);
    match value {
        PropertyValue::Null => {}
        PropertyValue::Bool(b) => b.hash(state),
        PropertyValue::Int(n) => n.hash(state),
        PropertyValue::Float(x) => if x.is_nan() { f64::NAN } else { *x }.to_bits().hash(state),
        PropertyValue::Str(s) => s.hash(state),
        PropertyValue::List(items) => {
            items.len().hash(state);
            items.iter().for_each(|item| hash_value(item, state));
        }
    }
}

impl<V: AsRef<[PropertyValue]>> PartialEq for Typed<V> {
    fn eq(&self, other: &Self) -> bool {
        same_values(self.0.as_ref(), other.0.as_ref())
    }
}

impl<V: AsRef<[PropertyValue]>> Eq for Typed<V> {}

impl<V: AsRef<[PropertyValue]>> Hash for Typed<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.as_ref().iter().for_each(|value| hash_value(value, state));
    }
}

/// One row's value of one `ORDER BY` key: the row's own column when it
/// projects the same `var.property` and the property is present, a copy of
/// what was read otherwise (`Null` for a missing property or unbound
/// variable).
enum SortKey {
    Column(usize),
    Value(PropertyValue),
}

impl SortKey {
    fn get<'r>(&'r self, row: &'r [PropertyValue]) -> &'r PropertyValue {
        match self {
            SortKey::Column(column) => &row[*column],
            SortKey::Value(value) => value,
        }
    }
}

/// The `ORDER BY` keys of every row, `order_by.len()` to a row, read (and
/// charged) against the row's representative binding `reps[i]`.
fn sort_keys(ctx: &Ctx<'_>, reps: &[usize], bindings: &[Cell]) -> Vec<SortKey> {
    let width = ctx.order_by.len();
    let mut keys = Vec::with_capacity(reps.len() * width);
    for &rep in reps {
        let binding = bindings.chunks_exact(ctx.stride).nth(rep);
        let resolved = ctx.stmt.order_by.iter().zip(&ctx.order_by).zip(&ctx.order_columns);
        keys.extend(resolved.map(|((key, &slot), &column)| {
            match binding.and_then(|binding| binding[slot?]) {
                Some(vertex) => ctx.read(vertex, &key.property, |value| match (value, column) {
                    (Some(_), Some(column)) => SortKey::Column(column),
                    (value, _) => SortKey::Value(value.cloned().unwrap_or(PropertyValue::Null)),
                }),
                None => SortKey::Value(PropertyValue::Null),
            }
        }));
    }
    keys
}

/// The `ORDER BY` order of rows `a` and `b`: their keys in turn, then their
/// `Debug` text, so that the order never depends on how the bindings were
/// enumerated and DIR and OPT executions of equivalent statements order
/// rows identically. Identical rows tie without formatting; a row whose
/// text is needed is formatted once, into `reprs` (allocated on first need).
fn compare_rows(
    ctx: &Ctx<'_>,
    rows: &[Row],
    keys: &[SortKey],
    reprs: &mut Vec<Option<String>>,
    a: usize,
    b: usize,
) -> Ordering {
    let width = ctx.order_by.len();
    let (ka, kb) = (&keys[a * width..][..width], &keys[b * width..][..width]);
    for (key, (x, y)) in ctx.stmt.order_by.iter().zip(ka.iter().zip(kb)) {
        let ord = order_values(x.get(&rows[a]), y.get(&rows[b]));
        let ord = if key.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    if same_values(&rows[a], &rows[b]) {
        return Ordering::Equal;
    }
    if reprs.is_empty() {
        reprs.resize(rows.len(), None);
    }
    for row in [a, b] {
        reprs[row].get_or_insert_with(|| format!("{:?}", rows[row]));
    }
    reprs[a].cmp(&reprs[b])
}

/// Applies `DISTINCT`, `ORDER BY` and `SKIP`/`LIMIT` to the built rows and
/// moves the returned ones out. `reps[i]` is the binding index `ORDER BY`
/// keys of row `i` are evaluated against — the row's own binding for plain
/// rows, the group's first binding for aggregate rows (`usize::MAX` for the
/// binding-less global group, whose keys read as `Null`).
fn finalize_rows(ctx: &Ctx<'_>, mut rows: Vec<Row>, reps: &[usize], bindings: &[Cell]) -> Vec<Row> {
    let stmt = ctx.stmt;
    if stmt.order_by.is_empty() && !stmt.distinct {
        rows.drain(..ctx.skip.min(rows.len()));
        rows.truncate(ctx.limit);
        return rows;
    }
    // The indices of the rows to return, in output order.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    if !stmt.order_by.is_empty() {
        let keys = sort_keys(ctx, reps, bindings);
        let mut reprs = Vec::new();
        let mut cmp = |&a: &usize, &b: &usize| compare_rows(ctx, &rows, &keys, &mut reprs, a, b);
        // Without DISTINCT the window is the first `SKIP + LIMIT` rows in
        // order: select them, then sort only them. With it, sorting before
        // deduplicating keeps the first of equal rows in sorted order.
        let end = ctx.skip.saturating_add(ctx.limit);
        if !stmt.distinct && end < order.len() {
            order.select_nth_unstable_by(end, &mut cmp);
            order.truncate(end);
        }
        // Rows that compare equal are identical, so an unstable sort
        // returns what a stable one would.
        order.sort_unstable_by(&mut cmp);
    }
    if stmt.distinct {
        let mut seen = HashSet::with_capacity(order.len());
        order.retain(|&row| seen.insert(Typed(rows[row].as_slice())));
    }
    let window = order.iter().skip(ctx.skip).take(ctx.limit);
    window.map(|&row| std::mem::take(&mut rows[row])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Aggregate;
    use pgso_graphstore::{props, MemoryGraph};

    /// Builds the property graphs of Figure 1(b) (direct) and 1(c)
    /// (optimized) from the paper's motivating example.
    fn figure_1_direct() -> MemoryGraph {
        let mut g = MemoryGraph::new();
        let drug =
            g.add_vertex("Drug", props([("name", "Aspirin".into()), ("brand", "Ecotrin".into())]));
        let ind1 = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        let ind2 = g.add_vertex("Indication", props([("desc", "Headache".into())]));
        let di = g.add_vertex("DrugInteraction", props([("summary", "Delayed".into())]));
        let dfi = g.add_vertex("DrugFoodInteraction", props([("risk", "moderate".into())]));
        let dli = g.add_vertex("DrugLabInteraction", props([("mechanism", "glucose".into())]));
        g.add_edge("treat", drug, ind1);
        g.add_edge("treat", drug, ind2);
        g.add_edge("has", drug, di);
        g.add_edge("isA", di, dfi);
        g.add_edge("isA", di, dli);
        g
    }

    fn figure_1_optimized() -> MemoryGraph {
        let mut g = MemoryGraph::new();
        let drug = g.add_vertex(
            "Drug",
            props([
                ("name", "Aspirin".into()),
                ("brand", "Ecotrin".into()),
                ("Indication.desc", PropertyValue::str_list(["Fever", "Headache"])),
            ]),
        );
        let ind1 = g.add_vertex("Indication", props([("desc", "Fever".into())]));
        let ind2 = g.add_vertex("Indication", props([("desc", "Headache".into())]));
        let dfi = g.add_vertex(
            "DrugFoodInteraction",
            props([("risk", "moderate".into()), ("summary", "Delayed".into())]),
        );
        let dli = g.add_vertex(
            "DrugLabInteraction",
            props([("mechanism", "glucose".into()), ("summary", "Delayed".into())]),
        );
        g.add_edge("treat", drug, ind1);
        g.add_edge("treat", drug, ind2);
        g.add_edge("has", drug, dfi);
        g.add_edge("has", drug, dli);
        g
    }

    #[test]
    fn pattern_match_two_hops_on_direct_graph() {
        // Example 1: Drug and the risk of its DrugFoodInteraction.
        let g = figure_1_direct();
        let q = Statement::builder("example1")
            .node("d", "Drug")
            .node("di", "DrugInteraction")
            .node("dfi", "DrugFoodInteraction")
            .edge("d", "has", "di")
            .edge("di", "isA", "dfi")
            .ret_property("d", "name")
            .ret_property("dfi", "risk")
            .build();
        let result = execute_statement(&q, &g);
        assert_eq!(result.matches, 1);
        assert_eq!(result.rows[0][0].as_str(), Some("Aspirin"));
        assert_eq!(result.rows[0][1].as_str(), Some("moderate"));
        assert!(result.stats.edge_traversals >= 2, "direct graph needs 2 traversals");
    }

    #[test]
    fn pattern_match_one_hop_on_optimized_graph() {
        let g = figure_1_optimized();
        let q = Statement::builder("example1-opt")
            .node("d", "Drug")
            .node("dfi", "DrugFoodInteraction")
            .edge("d", "has", "dfi")
            .ret_property("dfi", "risk")
            .build();
        let result = execute_statement(&q, &g);
        assert_eq!(result.matches, 1);
        assert_eq!(result.rows[0][0].as_str(), Some("moderate"));
    }

    #[test]
    fn aggregation_count_over_traversal_vs_list_property() {
        // Example 2: COUNT of Indication.desc treated by each Drug.
        let direct = figure_1_direct();
        let q_direct = Statement::builder("example2")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .build();
        let r1 = execute_statement(&q_direct, &direct);
        assert_eq!(r1.scalar(), Some(2));
        assert!(r1.stats.edge_traversals >= 2);

        let optimized = figure_1_optimized();
        let q_opt = Statement::builder("example2-opt")
            .node("d", "Drug")
            .ret_aggregate(Aggregate::CollectCount, "d", Some("Indication.desc"))
            .build();
        let r2 = execute_statement(&q_opt, &optimized);
        assert_eq!(r2.scalar(), Some(2), "LIST property must yield the same count");
        assert_eq!(r2.stats.edge_traversals, 0, "no traversal needed on the optimized graph");
    }

    #[test]
    fn property_lookup_without_edges() {
        let g = figure_1_direct();
        let q = Statement::builder("lookup").node("d", "Drug").ret_property("d", "brand").build();
        let result = execute_statement(&q, &g);
        assert_eq!(result.matches, 1);
        assert_eq!(result.rows[0][0].as_str(), Some("Ecotrin"));
        assert_eq!(result.stats.edge_traversals, 0);
    }

    #[test]
    fn reverse_traversal_matches_incoming_edges() {
        let g = figure_1_direct();
        // Root at Indication, pattern edge points Drug -> Indication.
        let q = Statement::builder("reverse")
            .node("i", "Indication")
            .node("d", "Drug")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .ret_property("d", "name")
            .build();
        let result = execute_statement(&q, &g);
        assert_eq!(result.matches, 2);
        for row in &result.rows {
            assert_eq!(row[1].as_str(), Some("Aspirin"));
        }
    }

    #[test]
    fn count_aggregate_counts_matches() {
        let g = figure_1_direct();
        let q = Statement::builder("count")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::Count, "i", None)
            .build();
        assert_eq!(execute_statement(&q, &g).scalar(), Some(2));
    }

    #[test]
    fn unmatched_label_returns_no_rows() {
        let g = figure_1_direct();
        let q =
            Statement::builder("missing").node("x", "Pharmacy").ret_property("x", "name").build();
        let result = execute_statement(&q, &g);
        assert_eq!(result.matches, 0);
        assert!(result.rows.is_empty());
    }

    #[test]
    fn bound_bound_edge_check() {
        // Triangle-less check: (i1)<-[treat]-(d)-[treat]->(i2) with i1 != i2
        // via two edges sharing the drug variable.
        let g = figure_1_direct();
        let q = Statement::builder("two-indications")
            .node("d", "Drug")
            .node("i1", "Indication")
            .node("i2", "Indication")
            .edge("d", "treat", "i1")
            .edge("d", "treat", "i2")
            .ret_property("i1", "desc")
            .ret_property("i2", "desc")
            .build();
        let result = execute_statement(&q, &g);
        // 2 choices for i1 × 2 for i2 (homomorphism semantics).
        assert_eq!(result.matches, 4);
    }

    // ---- statement-level execution -------------------------------------

    use crate::stmt::{CmpOp, Statement};

    #[test]
    fn where_predicate_filters_and_pushes_down() {
        let g = figure_1_direct();
        let stmt = Statement::builder("filtered")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .filter("i", "desc", CmpOp::Eq, "Fever")
            .build();
        let result = execute_statement(&stmt, &g);
        assert_eq!(result.matches, 1);
        assert_eq!(result.rows[0][0].as_str(), Some("Fever"));
        // Pushdown: the root's equality seek hands out the one Indication
        // with that text, and it is still checked.
        assert_eq!(result.predicate_checks, 1);
        // A backend without an equality index scans the label: both
        // Indication candidates are checked at the root, same row.
        let scanned = execute_statement(&stmt, &pgso_graphstore::CsrGraph::freeze(&g));
        assert_eq!(scanned.rows, result.rows);
        assert_eq!(scanned.predicate_checks, 2);
    }

    #[test]
    fn predicates_prune_mid_expansion() {
        let g = figure_1_direct();
        let stmt = Statement::builder("pruned")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .filter("i", "desc", CmpOp::Contains, "Head")
            .build();
        let result = execute_statement(&stmt, &g);
        assert_eq!(result.matches, 1);
        assert_eq!(result.rows[0][0].as_str(), Some("Headache"));
        assert_eq!(result.predicate_checks, 2, "checked once per treat neighbour");
    }

    #[test]
    fn predicate_on_missing_property_or_unknown_var_matches_nothing() {
        let g = figure_1_direct();
        let missing = Statement::builder("missing")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter("d", "no_such_property", CmpOp::Eq, 1i64)
            .build();
        assert!(execute_statement(&missing, &g).rows.is_empty());

        // The builder and the parser refuse an undeclared WHERE variable; a
        // hand-assembled statement carrying one still matches nothing.
        let mut unknown = Statement::builder("unknown")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter("d", "name", CmpOp::Eq, "Aspirin")
            .build();
        unknown.predicates[0].var = "ghost".into();
        assert!(execute_statement(&unknown, &g).rows.is_empty());
    }

    #[test]
    fn optional_edge_pads_unmatched_rows_with_null() {
        let mut g = figure_1_direct();
        // A drug with no indications at all.
        g.add_vertex("Drug", props([("name", "Placebo".into())]));
        let stmt = Statement::builder("optional")
            .node("d", "Drug")
            .ret_property("d", "name")
            .ret_property("i", "desc")
            .opt_node("i", "Indication")
            .opt_edge("d", "treat", "i")
            .build();
        let result = execute_statement(&stmt, &g);
        // Aspirin × {Fever, Headache} plus the null-padded Placebo row.
        assert_eq!(result.matches, 3);
        let placebo: Vec<&Row> =
            result.rows.iter().filter(|r| r[0].as_str() == Some("Placebo")).collect();
        assert_eq!(placebo.len(), 1);
        assert!(placebo[0][1].is_null(), "unmatched optional pads with Null");
        assert!(result
            .rows
            .iter()
            .any(|r| r[0].as_str() == Some("Aspirin") && r[1].as_str() == Some("Fever")));
    }

    #[test]
    fn unanchored_optional_part_enumerates_its_own_candidates() {
        let g = figure_1_direct();
        // The optional pattern shares no variable with the mandatory one: it
        // must still be matched (cross-joined), not silently null-padded.
        let stmt = Statement::builder("unanchored")
            .node("dfi", "DrugFoodInteraction")
            .ret_property("dfi", "risk")
            .ret_property("i", "desc")
            .opt_node("d", "Drug")
            .opt_node("i", "Indication")
            .opt_edge("d", "treat", "i")
            .build();
        let result = execute_statement(&stmt, &g);
        // 1 DrugFoodInteraction × 2 treat pairs.
        assert_eq!(result.matches, 2);
        let descs: Vec<Option<&str>> = result.rows.iter().map(|r| r[1].as_str()).collect();
        assert!(descs.contains(&Some("Fever")) && descs.contains(&Some("Headache")), "{descs:?}");

        // An unanchored part with no matches pads instead of dropping rows.
        let no_match = Statement::builder("unanchored-empty")
            .node("dfi", "DrugFoodInteraction")
            .ret_property("dfi", "risk")
            .ret_property("p", "name")
            .opt_node("x", "Pharmacy")
            .opt_node("p", "Pharmacist")
            .opt_edge("x", "employs", "p")
            .build();
        let result = execute_statement(&no_match, &g);
        assert_eq!(result.matches, 1);
        assert!(result.rows[0][1].is_null());
    }

    #[test]
    fn unsatisfiable_predicate_short_circuits_before_matching() {
        let g = figure_1_direct();
        let mut stmt = Statement::builder("ghost")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .filter("d", "p", CmpOp::Eq, 1i64)
            .build();
        stmt.predicates[0].var = "ghost".into();
        let result = execute_statement(&stmt, &g);
        assert!(result.rows.is_empty());
        assert_eq!(result.stats.edge_traversals, 0, "no matching work before the ghost check");
        assert_eq!(result.predicate_checks, 0);
    }

    #[test]
    fn distinct_order_skip_limit_pipeline() {
        let g = figure_1_direct();
        // Two bindings return the same drug name; DISTINCT collapses them.
        let distinct = Statement::builder("distinct")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .distinct()
            .build();
        assert_eq!(execute_statement(&distinct, &g).rows.len(), 1);

        let ordered = Statement::builder("ordered")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .order_by("i", "desc", true)
            .build();
        let rows = execute_statement(&ordered, &g).rows;
        assert_eq!(rows[0][0].as_str(), Some("Headache"), "descending order");
        assert_eq!(rows[1][0].as_str(), Some("Fever"));

        let windowed = Statement::builder("windowed")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .order_by("i", "desc", false)
            .skip(1)
            .limit(5)
            .build();
        let rows = execute_statement(&windowed, &g).rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_str(), Some("Headache"), "Fever skipped");

        let empty = Statement::builder("empty")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .skip(99)
            .build();
        assert!(execute_statement(&empty, &g).rows.is_empty());
    }

    #[test]
    fn order_by_ties_break_on_row_content_deterministically() {
        let g = figure_1_direct();
        // Sort key missing on every vertex: all keys are Null, so the row
        // content must decide the order — deterministically, regardless of
        // binding enumeration order.
        let stmt = Statement::builder("tie")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .order_by("i", "no_such_property", false)
            .build();
        let rows = execute_statement(&stmt, &g).rows;
        assert_eq!(rows[0][0].as_str(), Some("Fever"));
        assert_eq!(rows[1][0].as_str(), Some("Headache"));

        // DISTINCT with an ORDER BY key outside the returned row: the
        // duplicate rows collapse and the result is still deterministic.
        let stmt = Statement::builder("distinct-foreign-key")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .distinct()
            .order_by("i", "desc", true)
            .build();
        let rows = execute_statement(&stmt, &g).rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_str(), Some("Aspirin"));
    }

    #[test]
    fn unbound_parameters_degrade_gracefully() {
        let g = figure_1_direct();
        // Unbound predicate parameter: matches nothing, fetches nothing.
        let stmt = Statement::builder("unbound")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .filter_param("i", "desc", CmpOp::Eq, "needle")
            .build();
        let result = execute_statement(&stmt, &g);
        assert!(result.rows.is_empty());
        assert_eq!(result.predicate_checks, 0, "no property fetched for an unbound parameter");
        // Bound through `bind`, it behaves like the literal statement.
        let bound = stmt.bind(&crate::Params::new().set("needle", "Fever")).unwrap();
        assert_eq!(execute_statement(&bound, &g).rows.len(), 1);
        // Unbound window parameters: no skip, no limit.
        let windowed = Statement::builder("window")
            .node("i", "Indication")
            .ret_property("i", "desc")
            .skip_param("s")
            .limit_param("n")
            .build();
        assert_eq!(execute_statement(&windowed, &g).rows.len(), 2);
    }

    #[test]
    fn largest_windows_return_nothing_without_overflow() {
        let g = figure_1_direct();
        let max = usize::MAX;
        let optional = " OPTIONAL MATCH (i)-[:treat]->(x:Drug)";
        for (optional, order) in [("", ""), ("", " ORDER BY i.desc"), (optional, "")] {
            let text =
                format!("MATCH (d:Drug)-[:treat]->(i:Indication){optional} RETURN i.desc{order}");
            // SKIP + LIMIT is usize::MAX + usize::MAX as literals, and the
            // largest count a `$parameter` (an Int) carries, doubled.
            let literal = crate::parse(&format!("{text} SKIP {max} LIMIT {max}")).unwrap();
            let params = crate::Params::new().set("s", i64::MAX).set("n", i64::MAX);
            let bound = crate::parse(&format!("{text} SKIP $s LIMIT $n")).unwrap().bind(&params);
            for stmt in [literal, bound.unwrap()] {
                let result = execute_statement(&stmt, &g);
                assert!(result.rows.is_empty(), "{stmt}");
                assert_eq!(result.matches, 2, "{stmt}: every match is enumerated");
            }
        }
    }

    #[test]
    fn group_by_aggregates_per_vertex() {
        let mut g = figure_1_direct();
        // A second drug treating one indication, so groups differ in size.
        let placebo = g.add_vertex("Drug", props([("name", "Placebo".into())]));
        g.add_edge("treat", placebo, pgso_graphstore::VertexId(1));
        let stmt = Statement::builder("per-drug")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .ret_aggregate(Aggregate::Count, "i", None)
            .group_by("d")
            .order_by("d", "name", false)
            .build();
        let rows = execute_statement(&stmt, &g).rows;
        assert_eq!(rows.len(), 2, "one row per drug");
        assert_eq!(rows[0][0].as_str(), Some("Aspirin"));
        assert_eq!(rows[0][1].as_int(), Some(2));
        assert_eq!(rows[1][0].as_str(), Some("Placebo"));
        assert_eq!(rows[1][1].as_int(), Some(1));
    }

    #[test]
    fn having_filters_groups_before_windowing() {
        let mut g = figure_1_direct();
        let placebo = g.add_vertex("Drug", props([("name", "Placebo".into())]));
        g.add_edge("treat", placebo, pgso_graphstore::VertexId(1));
        let base = |having: Vec<crate::stmt::HavingPredicate>| {
            let mut stmt = Statement::builder("per-drug")
                .node("d", "Drug")
                .node("i", "Indication")
                .edge("d", "treat", "i")
                .ret_property("d", "name")
                .ret_aggregate(Aggregate::Count, "i", None)
                .group_by("d")
                .order_by("d", "name", false)
                .build();
            stmt.having = having;
            stmt
        };
        // Aspirin treats 2 indications, Placebo 1: HAVING count(i) >= 2
        // keeps only Aspirin's group.
        let ge2 = base(vec![crate::stmt::HavingPredicate {
            agg: Aggregate::Count,
            var: "i".into(),
            property: None,
            op: CmpOp::Ge,
            value: Term::literal(2i64),
        }]);
        let rows = execute_statement(&ge2, &g).rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_str(), Some("Aspirin"));
        // Conjunction: an always-false second predicate drops every group.
        let mut none = ge2.clone();
        none.having.push(crate::stmt::HavingPredicate {
            agg: Aggregate::Count,
            var: "i".into(),
            property: None,
            op: CmpOp::Lt,
            value: Term::literal(0i64),
        });
        assert!(execute_statement(&none, &g).rows.is_empty());
        // HAVING runs before SKIP/LIMIT: with LIMIT 1 the surviving group is
        // still Aspirin's, not a windowed-then-filtered empty set.
        let mut limited = ge2.clone();
        limited.limit = Some(CountTerm::Count(1));
        let rows = execute_statement(&limited, &g).rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_str(), Some("Aspirin"));
        // An unbound $parameter fails the group, mirroring WHERE semantics.
        let mut unbound = base(Vec::new());
        unbound.having.push(crate::stmt::HavingPredicate {
            agg: Aggregate::Count,
            var: "i".into(),
            property: None,
            op: CmpOp::Ge,
            value: Term::Parameter("floor".into()),
        });
        assert!(execute_statement(&unbound, &g).rows.is_empty());
        let bound = unbound.bind(&crate::Params::new().set("floor", 1i64)).unwrap();
        assert_eq!(execute_statement(&bound, &g).rows.len(), 2);
    }

    #[test]
    fn having_property_aggregates_and_presence_counts() {
        let mut g = MemoryGraph::new();
        // Drug A: doses 10, 30 (avg 20, one untagged route).
        // Drug B: dose 5 (avg 5, tagged).
        let a = g.add_vertex("Drug", props([("name", "A".into())]));
        let b = g.add_vertex("Drug", props([("name", "B".into())]));
        let r1 = g.add_vertex("Route", props([("dose", 10i64.into()), ("tag", "t".into())]));
        let r2 = g.add_vertex("Route", props([("dose", 30i64.into())]));
        let r3 = g.add_vertex("Route", props([("dose", 5i64.into()), ("tag", "t".into())]));
        g.add_edge("hasRoute", a, r1);
        g.add_edge("hasRoute", a, r2);
        g.add_edge("hasRoute", b, r3);
        let base = Statement::builder("doses")
            .node("d", "Drug")
            .node("r", "Route")
            .edge("d", "hasRoute", "r")
            .ret_property("d", "name")
            .ret_aggregate(Aggregate::Sum, "r", Some("dose"))
            .group_by("d")
            .order_by("d", "name", false)
            .build();
        // avg(r.dose) > 10 keeps A (20) and drops B (5).
        let mut avg = base.clone();
        avg.having.push(crate::stmt::HavingPredicate {
            agg: Aggregate::Avg,
            var: "r".into(),
            property: Some("dose".into()),
            op: CmpOp::Gt,
            value: Term::literal(10i64),
        });
        let rows = execute_statement(&avg, &g).rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_str(), Some("A"));
        assert_eq!(rows[0][1].as_int(), Some(40));
        // count(r.tag) counts property *presence*: both groups have exactly
        // one tagged route, so count(r.tag) = 1 keeps both.
        let mut presence = base.clone();
        presence.having.push(crate::stmt::HavingPredicate {
            agg: Aggregate::Count,
            var: "r".into(),
            property: Some("tag".into()),
            op: CmpOp::Eq,
            value: Term::literal(1i64),
        });
        assert_eq!(execute_statement(&presence, &g).rows.len(), 2);
    }

    #[test]
    fn group_by_over_an_empty_match_returns_no_groups() {
        let g = figure_1_direct();
        let stmt = Statement::builder("empty-groups")
            .node("x", "Pharmacy")
            .ret_aggregate(Aggregate::Count, "x", None)
            .group_by("x")
            .build();
        assert!(execute_statement(&stmt, &g).rows.is_empty(), "no vertices, no groups");
        // Without GROUP BY the global group still answers 0.
        let global = Statement::builder("global")
            .node("x", "Pharmacy")
            .ret_aggregate(Aggregate::Count, "x", None)
            .build();
        assert_eq!(execute_statement(&global, &g).scalar(), Some(0));
    }

    #[test]
    fn numeric_aggregates_compute_sum_min_max_avg() {
        let mut g = MemoryGraph::new();
        let d = g.add_vertex("Drug", props([("name", "A".into())]));
        for (i, dose) in [10i64, 30, 20].into_iter().enumerate() {
            let r = g.add_vertex(
                "Route",
                props([("dose", dose.into()), ("tag", format!("r{i}").into())]),
            );
            g.add_edge("hasRoute", d, r);
        }
        let stmt = Statement::builder("nums")
            .node("d", "Drug")
            .node("r", "Route")
            .edge("d", "hasRoute", "r")
            .ret_aggregate(Aggregate::Sum, "r", Some("dose"))
            .ret_aggregate(Aggregate::Min, "r", Some("dose"))
            .ret_aggregate(Aggregate::Max, "r", Some("dose"))
            .ret_aggregate(Aggregate::Avg, "r", Some("dose"))
            .ret_aggregate(Aggregate::CountDistinct, "r", None)
            .ret_aggregate(Aggregate::CountDistinct, "r", Some("tag"))
            .build();
        let row = &execute_statement(&stmt, &g).rows[0];
        assert_eq!(row[0], PropertyValue::Int(60), "Int-only sum stays exact");
        assert_eq!(row[1], PropertyValue::Int(10));
        assert_eq!(row[2], PropertyValue::Int(30));
        assert_eq!(row[3], PropertyValue::Float(20.0));
        assert_eq!(row[4], PropertyValue::Int(3));
        assert_eq!(row[5], PropertyValue::Int(3));
    }

    #[test]
    fn per_element_aggregates_flatten_list_properties() {
        // The optimized graph stores Indication.desc as a LIST on the drug;
        // aggregating over it must see one scalar per element, exactly what
        // the DIR traversal sees per binding.
        let g = figure_1_optimized();
        let stmt = Statement::builder("flat")
            .node("d", "Drug")
            .ret_aggregate(Aggregate::CountDistinct, "d", Some("Indication.desc"))
            .ret_aggregate(Aggregate::Min, "d", Some("Indication.desc"))
            .ret_aggregate(Aggregate::Max, "d", Some("Indication.desc"))
            .build();
        let row = &execute_statement(&stmt, &g).rows[0];
        assert_eq!(row[0].as_int(), Some(2));
        assert_eq!(row[1].as_str(), Some("Fever"));
        assert_eq!(row[2].as_str(), Some("Headache"));
    }

    #[test]
    fn empty_numeric_aggregates_answer_zero_or_null() {
        let g = figure_1_direct();
        let stmt = Statement::builder("empty")
            .node("x", "Pharmacy")
            .ret_aggregate(Aggregate::Sum, "x", Some("stock"))
            .ret_aggregate(Aggregate::Min, "x", Some("stock"))
            .ret_aggregate(Aggregate::Avg, "x", Some("stock"))
            .build();
        let row = &execute_statement(&stmt, &g).rows[0];
        assert_eq!(row[0], PropertyValue::Int(0), "SUM of nothing is 0");
        assert!(row[1].is_null(), "MIN of nothing is null");
        assert!(row[2].is_null(), "AVG of nothing is null");
    }

    #[test]
    fn count_distinct_collapses_repeated_bindings() {
        let g = figure_1_direct();
        // Homomorphism semantics bind (i1, i2) in 4 combinations; the drug
        // variable repeats in every one of them.
        let stmt = Statement::builder("distinct-drug")
            .node("d", "Drug")
            .node("i1", "Indication")
            .node("i2", "Indication")
            .edge("d", "treat", "i1")
            .edge("d", "treat", "i2")
            .ret_aggregate(Aggregate::Count, "d", None)
            .ret_aggregate(Aggregate::CountDistinct, "d", None)
            .build();
        let row = &execute_statement(&stmt, &g).rows[0];
        assert_eq!(row[0].as_int(), Some(4));
        assert_eq!(row[1].as_int(), Some(1));
    }

    #[test]
    fn limit_applies_to_aggregates_too() {
        let g = figure_1_direct();
        let stmt = Statement::builder("agg-limit")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_aggregate(Aggregate::CollectCount, "i", Some("desc"))
            .limit(1)
            .build();
        let result = execute_statement(&stmt, &g);
        assert_eq!(result.scalar(), Some(2));
        assert_eq!(result.rows.len(), 1);
    }

    #[test]
    fn bare_statement_matches_plain_execution() {
        // A clause-free statement is a plain pattern match: one row per
        // binding, in binding order, and no predicate work.
        let g = figure_1_direct();
        let q = Statement::builder("plain")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build();
        let stmt = execute_statement(&q, &g);
        let descs: Vec<Option<&str>> = stmt.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(descs, [Some("Fever"), Some("Headache")]);
        assert_eq!(stmt.matches, 2);
        assert_eq!(stmt.predicate_checks, 0);
    }

    #[test]
    fn stage_timings_reflect_the_executed_stages() {
        let g = figure_1_direct();
        let stmt = Statement::builder("timed")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .order_by("i", "desc", false)
            .build();
        let result = execute_statement(&stmt, &g);
        assert!(result.stage_timings.total() <= result.elapsed);
        // Root candidates are visited in place, inside the expansion stage.
        assert_eq!(result.stage_timings.root_selection, Duration::ZERO);
        assert!(result.stage_timings.expansion > Duration::ZERO);
    }

    /// What a statement costs is part of the executor's contract (the paper
    /// compares schemas by exactly these counters), and every equivalence
    /// test above compares the executor with itself. The literals below
    /// were recorded by running this test body against the string-keyed
    /// executor this one replaced; a refactor must reproduce them. The
    /// windowed rows at the end pin the early stop of plain windows, and
    /// that `ORDER BY`, `DISTINCT` and aggregates still match everything.
    /// The root `=` predicate is pinned twice: seeking the memory graph's
    /// equality index, and scanning its label on a CSR copy without one.
    #[test]
    fn golden_counters_per_statement_shape() {
        let direct = figure_1_direct();
        let mut placebo = figure_1_direct();
        placebo.add_vertex("Drug", props([("name", "Placebo".into())]));
        let placebo_csr = pgso_graphstore::CsrGraph::freeze(&placebo);
        let mut doses = MemoryGraph::new();
        let a = doses.add_vertex("Drug", props([("name", "A".into())]));
        let b = doses.add_vertex("Drug", props([("name", "B".into())]));
        for (drug, dose) in [(a, 10i64), (a, 30), (b, 5)] {
            let route = doses.add_vertex("Route", props([("dose", dose.into())]));
            doses.add_edge("hasRoute", drug, route);
        }
        let treats = || Statement::builder("g").node("d", "Drug").node("i", "Indication");
        let pushdown = || {
            treats()
                .edge("d", "treat", "i")
                .ret_property("i", "desc")
                .filter("d", "name", CmpOp::Eq, "Aspirin")
                .filter("i", "desc", CmpOp::Contains, "Head")
                .build()
        };

        // (shape, statement, backend, rows,
        //  [matches, vertex reads, edge traversals, predicate checks])
        type Case<'a> = (&'a str, Statement, &'a dyn GraphBackend, &'a [&'a str], [u64; 4]);
        let cases: Vec<Case<'_>> = vec![
            (
                "two-hop forward",
                Statement::builder("g")
                    .node("d", "Drug")
                    .node("di", "DrugInteraction")
                    .node("dfi", "DrugFoodInteraction")
                    .edge("d", "has", "di")
                    .edge("di", "isA", "dfi")
                    .ret_property("d", "name")
                    .ret_property("dfi", "risk")
                    .build(),
                &direct,
                &["Aspirin|moderate"],
                [1, 5, 3, 0],
            ),
            (
                "reverse hop",
                Statement::builder("g")
                    .node("i", "Indication")
                    .node("d", "Drug")
                    .edge("d", "treat", "i")
                    .ret_property("i", "desc")
                    .ret_vertex("d")
                    .build(),
                &direct,
                &["Fever|0", "Headache|0"],
                [2, 4, 2, 0],
            ),
            (
                "both endpoints bound",
                treats()
                    .edge("d", "treat", "i")
                    .edge("d", "treat", "i")
                    .ret_property("i", "desc")
                    .build(),
                &direct,
                &["Fever", "Headache"],
                [2, 4, 6, 0],
            ),
            (
                "disconnected mandatory edge",
                Statement::builder("g")
                    .node("i", "Indication")
                    .node("d", "Drug")
                    .node("di", "DrugInteraction")
                    .edge("d", "has", "di")
                    .ret_property("i", "desc")
                    .ret_property("di", "summary")
                    .build(),
                &placebo,
                &["Fever|Delayed", "Headache|Delayed"],
                [2, 6, 2, 0],
            ),
            (
                "isolated node pattern",
                treats().ret_property("d", "name").ret_property("i", "desc").build(),
                &placebo,
                &["Aspirin|Fever", "Aspirin|Headache", "Placebo|Fever", "Placebo|Headache"],
                [4, 8, 0, 0],
            ),
            (
                "anchored OPTIONAL, hit and miss",
                Statement::builder("g")
                    .node("d", "Drug")
                    .opt_node("i", "Indication")
                    .opt_edge("d", "treat", "i")
                    .ret_property("d", "name")
                    .ret_property("i", "desc")
                    .ret_vertex("i")
                    .build(),
                &placebo,
                &["Aspirin|Fever|1", "Aspirin|Headache|2", "Placebo|null|null"],
                [3, 7, 2, 0],
            ),
            (
                "unanchored OPTIONAL",
                Statement::builder("g")
                    .node("i", "Indication")
                    .opt_node("di", "DrugInteraction")
                    .opt_node("dli", "DrugLabInteraction")
                    .opt_edge("di", "isA", "dli")
                    .ret_property("i", "desc")
                    .ret_property("dli", "mechanism")
                    .build(),
                &direct,
                &["Fever|glucose", "Headache|glucose"],
                [2, 6, 2, 0],
            ),
            (
                "WHERE pushdown on root and mid-pattern",
                pushdown(),
                &placebo,
                &["Headache"],
                [1, 6, 2, 3],
            ),
            (
                "WHERE pushdown, root label scanned",
                pushdown(),
                &placebo_csr,
                &["Headache"],
                [1, 7, 2, 4],
            ),
            (
                "GROUP BY + HAVING sharing one scalar read",
                Statement::builder("g")
                    .node("d", "Drug")
                    .node("r", "Route")
                    .edge("d", "hasRoute", "r")
                    .ret_property("d", "name")
                    .ret_aggregate(Aggregate::Sum, "r", Some("dose"))
                    .ret_aggregate(Aggregate::Count, "r", Some("dose"))
                    .group_by("d")
                    .having(Aggregate::Avg, "r", Some("dose"), CmpOp::Gt, 10i64)
                    .build(),
                &doses,
                &["A|40|2"],
                [3, 9, 3, 0],
            ),
            (
                "LIMIT stops the match",
                treats().edge("d", "treat", "i").ret_property("i", "desc").limit(1).build(),
                &direct,
                &["Fever"],
                [1, 3, 2, 0],
            ),
            (
                "SKIP + LIMIT stops the match",
                treats().edge("d", "treat", "i").ret_property("i", "desc").skip(1).limit(1).build(),
                &direct,
                &["Headache"],
                [2, 3, 2, 0],
            ),
            (
                "anchored OPTIONAL under LIMIT",
                Statement::builder("g")
                    .node("d", "Drug")
                    .opt_node("i", "Indication")
                    .opt_edge("d", "treat", "i")
                    .ret_property("d", "name")
                    .ret_property("i", "desc")
                    .limit(2)
                    .build(),
                &placebo,
                &["Aspirin|Fever", "Aspirin|Headache"],
                [2, 6, 2, 0],
            ),
            (
                "isolated node pattern under LIMIT",
                treats().ret_property("d", "name").ret_property("i", "desc").limit(1).build(),
                &placebo,
                &["Aspirin|Fever"],
                [1, 2, 0, 0],
            ),
            (
                "ORDER BY + LIMIT matches everything",
                treats()
                    .edge("d", "treat", "i")
                    .ret_property("i", "desc")
                    .order_by("i", "desc", true)
                    .limit(1)
                    .build(),
                &direct,
                &["Headache"],
                [2, 6, 2, 0],
            ),
            (
                "DISTINCT + LIMIT matches everything",
                treats()
                    .edge("d", "treat", "i")
                    .ret_property("d", "name")
                    .distinct()
                    .limit(1)
                    .build(),
                &direct,
                &["Aspirin"],
                [2, 4, 2, 0],
            ),
            (
                "aggregate + LIMIT matches everything",
                treats()
                    .edge("d", "treat", "i")
                    .ret_aggregate(Aggregate::Count, "i", None)
                    .limit(1)
                    .build(),
                &direct,
                &["2"],
                [2, 2, 2, 0],
            ),
        ];
        for (shape, stmt, backend, rows, counters) in cases {
            let result = execute_statement(&stmt, backend);
            let rendered: Vec<String> = result
                .rows
                .iter()
                .map(|row| row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|"))
                .collect();
            assert_eq!(rendered, rows, "{shape}: rows");
            let measured = [
                result.matches as u64,
                result.stats.vertex_reads,
                result.stats.edge_traversals,
                result.predicate_checks,
            ];
            assert_eq!(measured, counters, "{shape}: counters");
        }
    }

    #[test]
    fn order_by_a_key_that_is_nan_in_a_third_of_the_rows() {
        let mut g = MemoryGraph::new();
        for i in 0..400i64 {
            let x = if i % 3 == 0 { f64::NAN } else { ((i * 7919) % 400) as f64 };
            g.add_vertex("A", props([("x", x.into()), ("y", i.into())]));
        }
        let stmt = crate::parse("MATCH (a:A) RETURN a.y, a.x ORDER BY a.x").unwrap();
        let rows = execute_statement(&stmt, &g).rows;
        assert_eq!(rows.len(), 400);
        let xs: Vec<f64> = rows.iter().map(|row| row[1].as_float().unwrap()).collect();
        let (numbers, nans) = xs.split_at(xs.iter().position(|x| x.is_nan()).unwrap());
        assert!(numbers.is_sorted(), "numbers ascend");
        assert_eq!(nans.len(), 134, "every NaN sorts after every number");
        assert!(nans.iter().all(|x| x.is_nan()));
        // NaN keys tie, so the row text orders them: `Int(102)` < `Int(12)`.
        let ys: Vec<String> = rows[266..].iter().map(|row| format!("{:?}", row[0])).collect();
        assert!(ys.is_sorted(), "{ys:?}");
    }

    #[test]
    fn an_overflowing_int_sum_answers_the_float_sum() {
        let mut g = MemoryGraph::new();
        for x in [i64::MAX, 1] {
            g.add_vertex("A", props([("x", x.into())]));
        }
        let sum = crate::parse("MATCH (a:A) RETURN sum(a.x), avg(a.x)").unwrap();
        let row = &execute_statement(&sum, &g).rows[0];
        assert_eq!(row[0], PropertyValue::Float(9_223_372_036_854_775_808.0));
        assert_eq!(row[1], PropertyValue::Float(4_611_686_018_427_387_904.0));
        g.add_vertex("A", props([("x", (-1i64).into())]));
        let row = &execute_statement(&sum, &g).rows[0];
        assert_eq!(row[0], PropertyValue::Float(9_223_372_036_854_775_808.0), "no un-overflow");
        let mut fits = MemoryGraph::new();
        for x in [i64::MAX, -1, 1] {
            fits.add_vertex("A", props([("x", x.into())]));
        }
        assert_eq!(execute_statement(&sum, &fits).scalar(), Some(i64::MAX), "exact when it fits");
    }

    #[test]
    fn distinct_keys_follow_debug_text_equality() {
        use PropertyValue as V;
        let mut g = MemoryGraph::new();
        let values = [
            V::Int(2),
            V::Float(2.0),
            V::Float(0.0),
            V::Float(-0.0),
            V::Float(f64::NAN),
            V::Float(-f64::NAN),
            V::str("2"),
            V::List(vec![V::Int(2)]),
            V::List(vec![V::Float(2.0)]),
            V::List(vec![V::Null, V::Int(2)]),
        ];
        for value in values.iter().chain(&values) {
            g.add_vertex("A", props([("x", value.clone())]));
        }
        let stmt = crate::parse("MATCH (a:A) RETURN DISTINCT a.x").unwrap();
        let rows = execute_statement(&stmt, &g).rows;
        let texts: Vec<String> = rows.iter().map(|row| format!("{:?}", row[0])).collect();
        let mut expected: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        expected.dedup();
        assert_eq!(texts, expected, "first occurrences, in row order");
        // count(DISTINCT a.x) flattens the LISTs: Int(2), Float(2.0), 0.0,
        // -0.0, NaN, "2" and Null.
        let stmt = crate::parse("MATCH (a:A) RETURN count(DISTINCT a.x)").unwrap();
        assert_eq!(execute_statement(&stmt, &g).scalar(), Some(7));
    }

    /// The finalization stage before folds, typed keys and window selection:
    /// `aggregate_rows`, `group_aggregate` and `finalize_rows` verbatim, the
    /// reference the rewritten stage is held to.
    mod reference {
        use super::super::*;

        /// Computes one row per aggregation group — a single global group without
        /// `GROUP BY`, one group per distinct combination of grouped vertices
        /// otherwise (in first-appearance order, so the output is deterministic).
        /// Also returns each row's *representative* binding index (the group's first
        /// binding), which downstream `ORDER BY` keys are evaluated against;
        /// `usize::MAX` marks the binding-less global group of an empty match (its
        /// sort keys read as `Null`).
        pub(super) fn aggregate_rows(ctx: &Ctx<'_>, bindings: &[Cell]) -> (Vec<Row>, Vec<usize>) {
            let stmt = ctx.stmt;
            // The group of every binding. The global group exists even over an
            // empty match: COUNT of an empty set is 0, not no-answer.
            let mut group_of: Vec<usize> = vec![0; bindings.len() / ctx.stride];
            if !stmt.group_by.is_empty() {
                let mut index: HashMap<Vec<Cell>, usize> = HashMap::new();
                let mut key: Vec<Cell> = Vec::with_capacity(ctx.group_by.len());
                for (binding, group) in bindings.chunks_exact(ctx.stride).zip(&mut group_of) {
                    key.clear();
                    key.extend(ctx.group_by.iter().map(|&slot| binding[slot?]));
                    // Only a group's first binding pays for an owned key, so this
                    // allocates per group, not per binding.
                    *group = index.get(key.as_slice()).copied().unwrap_or_else(|| {
                        index.insert(key.clone(), index.len());
                        index.len() - 1
                    });
                }
            }
            // The bindings sorted (stably) by group, each run one group's members.
            let mut members: Vec<usize> = (0..group_of.len()).collect();
            members.sort_by_key(|&binding| group_of[binding]);
            let mut groups: Vec<&[usize]> =
                members.chunk_by(|&a, &b| group_of[a] == group_of[b]).collect();
            if stmt.group_by.is_empty() && groups.is_empty() {
                groups.push(&[]);
            }
            let mut rows = Vec::with_capacity(groups.len());
            let mut reps = Vec::with_capacity(groups.len());
            for members in groups {
                // Scalar property values shared across this group's aggregates:
                // `sum(r.dose), min(r.dose), max(r.dose)` reads each property once,
                // not once per aggregate (the reads are charged to AccessStats, so
                // sharing keeps the counters proportional to the data touched).
                let mut scalars = Scalars::new();
                let mut aggregate = |agg, slot, property| {
                    group_aggregate(ctx, bindings, members, &mut scalars, agg, slot, property)
                };
                // HAVING filters whole groups *before* their row is built (so before
                // DISTINCT / ORDER BY / SKIP / LIMIT), sharing the scalar cache with
                // the RETURN aggregates below. An unbound `$parameter` fails the
                // group, mirroring WHERE semantics.
                let passes = stmt.having.iter().zip(&ctx.having).all(|(pred, &slot)| {
                    let Term::Literal(rhs) = &pred.value else {
                        return false;
                    };
                    pred.op.eval(&aggregate(pred.agg, slot, pred.property.as_deref()), rhs)
                });
                if passes {
                    let rep =
                        members.first().and_then(|&i| bindings.chunks_exact(ctx.stride).nth(i));
                    let items = stmt.returns.iter().enumerate();
                    let row = items.map(|(item, agg)| match (agg, ctx.output(item)) {
                        (ReturnItem::Aggregate { agg, .. }, output) => {
                            aggregate(*agg, output.0, output.1)
                        }
                        // A non-aggregated item next to aggregates reads from the
                        // group's first binding — well-defined when the item's
                        // variable is a GROUP BY key, an implicit sample otherwise.
                        (_, output) => project(ctx, output, rep),
                    });
                    rows.push(row.collect());
                    reps.push(members.first().copied().unwrap_or(usize::MAX));
                }
            }
            (rows, reps)
        }

        /// One group's flattened scalar values, by `(variable slot, property)`.
        type Scalars<'a> = HashMap<(Option<usize>, &'a str), Vec<PropertyValue>>;

        /// Evaluates one aggregate call — a RETURN item or the left side of a
        /// `HAVING` predicate — over a group's bindings; `slot` is its variable's.
        fn group_aggregate<'a>(
            ctx: &Ctx<'_>,
            bindings: &[Cell],
            members: &[usize],
            scalars: &mut Scalars<'a>,
            agg: Aggregate,
            slot: Option<usize>,
            property: Option<&'a str>,
        ) -> PropertyValue {
            let bound = || members.iter().filter_map(|&i| bindings[i * ctx.stride + slot?]);
            let int = |n: usize| PropertyValue::Int(n as i64);
            let Some(property) = property else {
                return match agg {
                    Aggregate::Count | Aggregate::CollectCount => int(bound().count()),
                    Aggregate::CountDistinct => int(bound().collect::<HashSet<VertexId>>().len()),
                    // A property-less numeric aggregate cannot be built through the
                    // builder or the parser; answer Null for a hand-assembled one.
                    _ => PropertyValue::Null,
                };
            };
            // `count(v.p)` counts per-binding property *presence* (a LIST is one
            // value here), so it reads the property, not the flattened scalar set.
            if agg == Aggregate::Count {
                return int(bound()
                    .filter(|&v| ctx.read(v, property, |value| value.is_some()))
                    .count());
            }
            // The scalar values of `var.property` across the group, LIST values
            // flattened into their elements. That keeps per-element aggregates
            // (`SUM`/`MIN`/`MAX`/`AVG`, `COUNT(DISTINCT v.p)`, `size(COLLECT(v.p))`)
            // correct when the DIR→OPT rewrite answers them from a replicated LIST
            // property: the list holds one element per original edge, so the
            // flattened multiset equals the per-binding multiset on DIR.
            let values = scalars.entry((slot, property)).or_insert_with(|| {
                let mut values = Vec::new();
                for vertex in bound() {
                    ctx.read(vertex, property, |value| match value {
                        Some(PropertyValue::List(items)) => values.extend(items.iter().cloned()),
                        Some(PropertyValue::Null) | None => {}
                        Some(scalar) => values.push(scalar.clone()),
                    });
                }
                values
            });
            match agg {
                Aggregate::CollectCount => int(values.len()),
                Aggregate::CountDistinct => {
                    int(values.iter().map(|v| format!("{v:?}")).collect::<HashSet<String>>().len())
                }
                Aggregate::Sum => {
                    if values.iter().all(|v| matches!(v, PropertyValue::Int(_))) {
                        PropertyValue::Int(values.iter().filter_map(PropertyValue::as_int).sum())
                    } else {
                        PropertyValue::Float(
                            values.iter().filter_map(PropertyValue::as_float).sum(),
                        )
                    }
                }
                Aggregate::Min => values
                    .iter()
                    .min_by(|a, b| order_values(a, b))
                    .cloned()
                    .unwrap_or(PropertyValue::Null),
                Aggregate::Max => values
                    .iter()
                    .max_by(|a, b| order_values(a, b))
                    .cloned()
                    .unwrap_or(PropertyValue::Null),
                Aggregate::Avg => {
                    let nums = || values.iter().filter_map(PropertyValue::as_float);
                    match nums().count() {
                        0 => PropertyValue::Null,
                        n => PropertyValue::Float(nums().sum::<f64>() / n as f64),
                    }
                }
                Aggregate::Count => unreachable!("count(v.p) is answered above"),
            }
        }

        /// Applies `DISTINCT`, `ORDER BY` and `SKIP`/`LIMIT` to the built rows.
        /// `reps[i]` is the binding index `ORDER BY` keys of row `i` are evaluated
        /// against — the row's own binding for plain rows, the group's first binding
        /// for aggregate rows (`usize::MAX` for the binding-less global group, whose
        /// keys read as `Null`).
        pub(super) fn finalize_rows(
            ctx: &Ctx<'_>,
            mut rows: Vec<Row>,
            reps: &[usize],
            bindings: &[Cell],
        ) -> Vec<Row> {
            let stmt = ctx.stmt;
            // Sorting before DISTINCT makes the result independent of binding
            // enumeration order: with equal sort keys (or a key that is not part of
            // the returned row) the row content breaks the tie, so DIR and OPT
            // executions of equivalent statements produce identically ordered rows.
            // The surviving set is the same as deduplicating first.
            if !stmt.order_by.is_empty() {
                // The sort keys of all rows, `order_by.len()` to a row.
                let width = stmt.order_by.len();
                let mut keys: Vec<PropertyValue> = Vec::with_capacity(rows.len() * width);
                for &rep in reps {
                    let binding = bindings.chunks_exact(ctx.stride).nth(rep);
                    keys.extend(stmt.order_by.iter().zip(&ctx.order_by).map(|(key, &slot)| {
                        binding
                            .and_then(|binding| binding[slot?])
                            .and_then(|v| ctx.read(v, &key.property, |value| value.cloned()))
                            .unwrap_or(PropertyValue::Null)
                    }));
                }
                let reprs: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
                let mut order: Vec<usize> = (0..rows.len()).collect();
                order.sort_by(|&ia, &ib| {
                    let (a, b) = (&keys[ia * width..][..width], &keys[ib * width..][..width]);
                    for (key, (x, y)) in stmt.order_by.iter().zip(a.iter().zip(b.iter())) {
                        let ord = order_values(x, y);
                        let ord = if key.descending { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    reprs[ia].cmp(&reprs[ib])
                });
                rows = order.into_iter().map(|index| std::mem::take(&mut rows[index])).collect();
            }

            if stmt.distinct {
                let mut seen: HashSet<String> = HashSet::with_capacity(rows.len());
                rows.retain(|row| seen.insert(format!("{row:?}")));
            }

            rows.drain(..ctx.skip.min(rows.len()));
            rows.truncate(ctx.limit);
            rows
        }
    }

    /// [`execute_statement`] with the reference finalization stage.
    fn reference_execute(stmt: &Statement, backend: &dyn GraphBackend) -> QueryResult {
        let before = backend.stats();
        let plan = PhysicalPlan::compile(stmt);
        let count = |term: &Option<CountTerm>| term.as_ref().and_then(CountTerm::count);
        let (skip, limit) =
            (count(&stmt.skip).unwrap_or(0), count(&stmt.limit).unwrap_or(usize::MAX));
        let operands: Vec<_> = stmt.predicates.iter().map(|p| p.value.as_literal()).collect();
        let nodes = stmt.nodes.iter().chain(&stmt.opt_nodes).map(|node| node.label.as_str());
        let edges = stmt.edges.iter().chain(&stmt.opt_edges).map(|edge| edge.label.as_str());
        let labels: Vec<&str> = std::iter::once("").chain(nodes).chain(edges).collect();
        let ctx = Ctx {
            plan: &plan,
            stmt,
            backend,
            labels: &labels,
            operands: &operands,
            skip,
            limit,
            budget: if plan.plain { skip.saturating_add(limit) } else { usize::MAX },
            predicate_checks: std::cell::Cell::new(0),
        };
        let mut bindings: Vec<Cell> = Vec::new();
        if !ctx.unsatisfiable && !stmt.nodes.is_empty() {
            let mut row = vec![None; ctx.slots.len()];
            ctx.for_each_candidate(ROOT, ctx.labels[ctx.slots[ROOT].label], &mut |root| {
                if !ctx.full(&bindings) && ctx.passes(ROOT, root) {
                    row[ROOT] = Some(root);
                    expand(&ctx, 0, &mut row, &mut bindings);
                    row[ROOT] = None;
                }
            });
        }
        let bindings = apply_optional(&ctx, bindings);
        let matches = bindings.len() / ctx.stride;
        let (rows, reps) = if stmt.is_aggregation() {
            reference::aggregate_rows(&ctx, &bindings)
        } else {
            let (skip, limit) = if ctx.plain { (ctx.skip, ctx.limit) } else { (0, usize::MAX) };
            let rows = bindings.chunks_exact(ctx.stride).skip(skip).take(limit);
            let rows = rows.map(|row| {
                (0..ctx.returns.len()).map(|item| project(&ctx, ctx.output(item), Some(row)))
            });
            let reps = if stmt.order_by.is_empty() { Vec::new() } else { (0..matches).collect() };
            (rows.map(Iterator::collect).collect(), reps)
        };
        let rows =
            if ctx.plain { rows } else { reference::finalize_rows(&ctx, rows, &reps, &bindings) };
        QueryResult {
            rows,
            matches,
            stats: backend.stats().delta_since(&before),
            predicate_checks: ctx.predicate_checks.get(),
            ..QueryResult::default()
        }
    }

    /// A small graph from `rng`: up to six `A` and six `B` vertices, `r`
    /// edges from `A` to `B` (repeats included), and properties `x`, `y`
    /// and `l` of mixed kinds — `Int(2)` beside `Float(2.0)`, `-0.0` beside
    /// `0.0`, LISTs holding `Null` — or missing. No NaN: the reference's
    /// tie-break is only total without one.
    fn random_graph(rng: &mut proptest::TestRng) -> MemoryGraph {
        use PropertyValue as V;
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        let scalar = |pick: &mut dyn FnMut(u64) -> usize| match pick(6) {
            0 => V::Int(pick(4) as i64 - 1),
            1 => [V::Float(2.0), V::Float(-0.0), V::Float(0.0), V::Float(1.5)][pick(4)].clone(),
            2 => V::str(["", "a", "b"][pick(3)]),
            3 => V::Bool(pick(2) == 0),
            4 => V::Null,
            _ => V::Int(2),
        };
        let mut g = MemoryGraph::new();
        let mut ids = [Vec::new(), Vec::new()];
        for (which, label) in ["A", "B"].into_iter().enumerate() {
            for _ in 0..pick(7) {
                let mut properties = pgso_graphstore::PropertyMap::new();
                for key in ["x", "y", "l"] {
                    let value = match pick(5) {
                        0 => continue,
                        1 => V::List((0..pick(4)).map(|_| scalar(&mut pick)).collect()),
                        _ => scalar(&mut pick),
                    };
                    properties.insert(key.to_string(), value);
                }
                ids[which].push(g.add_vertex(label, properties));
            }
        }
        for &a in &ids[0] {
            for &b in &ids[1] {
                for _ in 0..[0, 0, 1, 1, 2][pick(5)] {
                    g.add_edge("r", a, b);
                }
            }
        }
        g
    }

    /// A statement text from `rng` over `random_graph`'s vocabulary: every
    /// aggregate, `GROUP BY` over 0–2 variables, `HAVING`, `DISTINCT`,
    /// `ORDER BY` over 1–2 keys in both directions, `SKIP` and `LIMIT`.
    fn random_statement(rng: &mut proptest::TestRng) -> String {
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        let patterns = [
            ("MATCH (a:A)-[:r]->(b:B)", &["a", "b"][..]),
            ("MATCH (a:A) OPTIONAL MATCH (a)-[:r]->(b:B)", &["a", "b"][..]),
            ("MATCH (a:A)", &["a"][..]),
        ];
        let (pattern, vars) = patterns[pick(3)];
        let var = |pick: &mut dyn FnMut(u64) -> usize| vars[pick(vars.len() as u64)];
        let property = |pick: &mut dyn FnMut(u64) -> usize| ["x", "y", "l"][pick(3)];
        let aggregate = |pick: &mut dyn FnMut(u64) -> usize, v: &str| {
            let p = property(pick);
            match pick(9) {
                0 => format!("count({v})"),
                1 => format!("count(DISTINCT {v})"),
                2 => format!("count({v}.{p})"),
                3 => format!("count(DISTINCT {v}.{p})"),
                4 => format!("size(collect({v}.{p}))"),
                n => format!("{}({v}.{p})", ["sum", "min", "max", "avg"][n - 5]),
            }
        };
        let aggregated = pick(2) == 0;
        let mut items = Vec::new();
        for i in 0..1 + pick(3) {
            let v = var(&mut pick);
            items.push(match pick(3) {
                _ if aggregated && i == 0 => aggregate(&mut pick, v),
                0 if aggregated => aggregate(&mut pick, v),
                1 => v.to_string(),
                _ => format!("{v}.{}", property(&mut pick)),
            });
        }
        let distinct = if pick(3) == 0 { "DISTINCT " } else { "" };
        let mut text = format!("{pattern} RETURN {distinct}{}", items.join(", "));
        if aggregated {
            match pick(3) {
                0 => {}
                1 => text += &format!(" GROUP BY {}", var(&mut pick)),
                _ => text += &format!(" GROUP BY {}", vars.join(", ")),
            }
            if pick(3) == 0 {
                let v = var(&mut pick);
                let op = [">", ">=", "<", "="][pick(4)];
                text += &format!(" HAVING {} {op} {}", aggregate(&mut pick, v), pick(3));
            }
        }
        let keys: Vec<String> = (0..pick(3))
            .map(|_| {
                let (v, p) = (var(&mut pick), property(&mut pick));
                format!("{v}.{p}{}", [" DESC", " ASC", ""][pick(3)])
            })
            .collect();
        if !keys.is_empty() {
            text += &format!(" ORDER BY {}", keys.join(", "));
        }
        for clause in [" SKIP", " LIMIT"] {
            if pick(2) == 0 {
                text += &format!("{clause} {}", pick(5));
            }
        }
        text
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4_000))]

        #[test]
        fn finalization_agrees_with_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let g = random_graph(&mut rng);
            let text = random_statement(&mut rng);
            let text = random_where(&mut rng, &text);
            let stmt = crate::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let (new, old) = (execute_statement(&stmt, &g), reference_execute(&stmt, &g));
            // Debug text tells -0.0 from 0.0, which `==` does not.
            assert_eq!(format!("{:?}", new.rows), format!("{:?}", old.rows), "{text}");
            assert_eq!(new.matches, old.matches, "{text}");
            assert_eq!(new.stats, old.stats, "{text}");
            assert_eq!(new.predicate_checks, old.predicate_checks, "{text}");
        }
    }

    /// `WHERE` clauses for `random_statement`'s texts over `random_graph`'s
    /// vocabulary — `=` among them, so parameterized seeks are exercised —
    /// or none.
    fn random_where(rng: &mut proptest::TestRng, text: &str) -> String {
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        let vars: &[&str] = if text.contains("(b:B)") { &["a", "b"] } else { &["a"] };
        let conditions: Vec<String> = (0..pick(3))
            .map(|_| {
                let (v, p) = (vars[pick(vars.len() as u64)], ["x", "y", "l"][pick(3)]);
                let op = ["=", "=", "<>", "<", ">=", "CONTAINS"][pick(6)];
                let value = ["'a'", "'b'", "''", "2", "2.0", "-1", "1.5", "true"][pick(8)];
                format!("{v}.{p} {op} {value}")
            })
            .collect();
        match conditions.is_empty() {
            true => text.to_string(),
            false => {
                text.replacen(" RETURN", &format!(" WHERE {} RETURN", conditions.join(" AND ")), 1)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4_000))]

        /// A compiled plan executed with `Params` answers exactly what the
        /// bound copy answers, and refuses exactly what `bind` refuses.
        #[test]
        fn plans_execute_parameters_in_place_as_bind_does(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::new(seed);
            let g = random_graph(&mut rng);
            let text = random_statement(&mut rng);
            let text = random_where(&mut rng, &text);
            let stmt = crate::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let (p, params) = stmt.parameterize();
            let plan = PhysicalPlan::compile(&p);
            let new = plan.execute(&params, &g).unwrap();
            let old = execute_statement(&p.bind(&params).unwrap(), &g);
            assert_eq!(format!("{:?}", new.rows), format!("{:?}", old.rows), "{text}");
            assert_eq!(new.matches, old.matches, "{text}");
            assert_eq!(new.stats, old.stats, "{text}");
            assert_eq!(new.predicate_checks, old.predicate_checks, "{text}");
            // Missing, unknown and mismatched window parameters.
            let entries = || params.iter().map(|(n, v)| (n, v.clone()));
            let mut wrong: Vec<Params> = vec![
                entries().skip(1).collect(),
                entries().chain([("zz", 1i64.into())]).collect(),
            ];
            let bad = [PropertyValue::Int(-1), PropertyValue::str("3"), PropertyValue::Float(3.0)];
            for count in ["skip", "limit"].into_iter().filter(|n| params.get(n).is_some()) {
                for bad in &bad {
                    let swap = |(n, v)| (n, if n == count { bad.clone() } else { v });
                    wrong.push(entries().map(swap).collect());
                }
            }
            for params in wrong.iter().filter(|params| p.bind(params).is_err()) {
                let (new, old) = (plan.execute(params, &g), p.bind(params));
                assert_eq!(new.unwrap_err(), old.unwrap_err(), "{text}");
            }
        }
    }

    #[test]
    fn traced_execution_emits_stage_and_summary_events() {
        let g = figure_1_direct();
        let stmt = Statement::builder("traced")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("i", "desc")
            .build();
        let trace = pgso_telemetry::TraceBuffer::new(32);
        let traced = execute_statement(&stmt, &g);
        emit_exec_trace(&traced, &trace, trace.new_span());
        let plain = execute_statement(&stmt, &g);
        assert_eq!(traced.rows, plain.rows, "tracing must not change results");
        let events = trace.recent();
        let summary = events.iter().find(|e| e.name == "query.exec").expect("summary event");
        assert_eq!(summary.duration, Some(traced.elapsed));
        assert!(summary.fields.contains(&("matches", FieldValue::U64(traced.matches as u64))));
        // Every stage event shares the summary's span.
        assert!(events.iter().all(|e| e.span_id == summary.span_id));
    }
}
