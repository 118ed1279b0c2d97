//! The statement surface of [`KgServer`]: [`KgServer::prepare_text`],
//! [`KgServer::execute`] and [`KgServer::serve_text`] (the `EXPLAIN` /
//! `PROFILE` plan surface included), the prepared-statement registry behind
//! them, and the serve hot path with its telemetry.

use crate::engine::KgServer;
use crate::tracker::TrackedAccess;
use pgso_graphstore::{AccessStats, GraphBackend};
use pgso_persist::WalRecord;
use pgso_query::{
    emit_exec_trace, execute_statement, fingerprint_statement, parse_named, rewrite_statement,
    rewrite_statement_traced, strip_directive, AppliedRule, BindError, ParamSignature, Params,
    ParseError, PhysicalPlan, PlanActuals, QueryMode, QueryPlan, QueryResult, Statement,
};
use pgso_telemetry::{current_trace_id, FieldValue, StageTimings};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identity of a registered prepared statement: its dense registration
/// index. Stable across epoch swaps, and — on a persistent server — across
/// [`KgServer::recover`], which re-registers the persisted statements in
/// their original order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreparedId(usize);

/// Handle returned by [`KgServer::prepare_text`]: the statement's
/// registration id plus its typed parameter signature
/// ([`pgso_query::ParamSignature`]).
///
/// The handle is the execution contract. [`KgServer::execute`] binds a
/// [`Params`] set against the signature **by name** — a missing, mismatched
/// or undeclared parameter is a [`BindError`], never a silently mis-bound
/// value. It is good on the server that issued it and on no other: the
/// signature `Arc` it shares with its registry entry is its proof of origin.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    id: PreparedId,
    signature: Arc<ParamSignature>,
}

impl PreparedStatement {
    /// The registration id.
    pub fn id(&self) -> PreparedId {
        self.id
    }

    /// The statement's declared parameters.
    pub fn signature(&self) -> &ParamSignature {
        &self.signature
    }
}

pub(crate) struct PreparedEntry {
    fingerprint: u64,
    stmt: Arc<Statement>,
    signature: Arc<ParamSignature>,
    /// The text the statement was parsed from, persisted in snapshots and
    /// the WAL: the parser is deterministic, so recovery parses it back to
    /// this very statement.
    pub(crate) text: String,
}

/// What the plan cache holds per DIR statement and schema generation: its
/// rewrite, compiled, and what the workload tracker counts per serve of it.
pub(crate) struct ServedPlan {
    plan: PhysicalPlan<'static>,
    access: TrackedAccess,
}

/// Renders a [`QueryPlan`] as a [`QueryResult`] so EXPLAIN/PROFILE flow
/// through every result surface unchanged: the plan travels as tagged rows
/// (see [`QueryPlan::to_rows`]) that the wire streams like any result and
/// clients rebuild with [`QueryPlan::from_rows`]. PROFILE copies its actuals
/// into the result's own accounting fields too.
fn plan_query_result(plan: &QueryPlan) -> QueryResult {
    let rows = plan.to_rows();
    let actuals = plan.actuals.as_ref();
    QueryResult {
        matches: rows.len(),
        rows,
        elapsed: actuals.map(|a| Duration::from_nanos(a.elapsed_ns)).unwrap_or_default(),
        stats: actuals
            .map(|a| AccessStats {
                vertex_reads: a.vertex_reads,
                edge_traversals: a.edge_traversals,
                page_reads: a.page_reads,
                page_hits: a.page_hits,
            })
            .unwrap_or_default(),
        predicate_checks: actuals.map(|a| a.predicate_checks).unwrap_or(0),
        stage_timings: StageTimings::default(),
    }
}

impl KgServer {
    /// Registry insertion without WAL logging (construction + recovery):
    /// `stmt` parsed from `text`.
    pub(crate) fn register_prepared(&self, stmt: Statement, text: String) -> PreparedStatement {
        let signature = Arc::new(stmt.signature());
        let entry = PreparedEntry {
            fingerprint: fingerprint_statement(&stmt),
            text,
            stmt: Arc::new(stmt),
            signature: signature.clone(),
        };
        let mut prepared = self.prepared.write();
        prepared.push(entry);
        PreparedStatement { id: PreparedId(prepared.len() - 1), signature }
    }

    /// Handles for every registered prepared statement, in registration
    /// order. The primary consumer is recovery: [`KgServer::recover`]
    /// restores the registry from the persisted snapshot + WAL, and callers
    /// pick their handles — ids and parameter signatures intact — back up
    /// from here.
    pub fn prepared_statements(&self) -> Vec<PreparedStatement> {
        self.prepared
            .read()
            .iter()
            .enumerate()
            .map(|(i, entry)| PreparedStatement {
                id: PreparedId(i),
                signature: entry.signature.clone(),
            })
            .collect()
    }

    /// Parses a statement text — `$name` placeholders included — and
    /// registers it for repeated execution (see [`pgso_query::parse()`] for
    /// the grammar). The returned handle carries the typed parameter
    /// signature callers bind against through [`KgServer::execute`].
    ///
    /// ```text
    /// let ps = server.prepare_text(
    ///     "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name LIMIT $n",
    /// )?;
    /// let result = server.execute(&ps, &Params::new().set("needle", "aspirin").set("n", 5i64))?;
    /// ```
    ///
    /// On a persistent server the registration is also appended to the
    /// write-ahead log as `text` (best effort — a logging failure is reported
    /// on stderr but does not fail the prepare), so [`KgServer::recover`]
    /// parses the same text back to the same statement and restores the
    /// registry with identical ids and signatures.
    pub fn prepare_text(&self, text: &str) -> Result<PreparedStatement, ParseError> {
        let stmt = parse_named(text, "prepared")?;
        let Some(persist) = &self.persist else {
            return Ok(self.register_prepared(stmt, text.to_string()));
        };
        // The WAL lock is held across the registry insertion so the log
        // order matches the dense registration ids, and so a concurrent
        // snapshot rotation (which assembles its image under this lock)
        // sees the registration and the WAL record as one unit — never a
        // record that a freshly rotated snapshot already subsumes, never a
        // registration the image missed and the pruned WAL lost.
        let mut inner = persist.inner.lock();
        let prepared = self.register_prepared(stmt, text.to_string());
        let append_started = Instant::now();
        if let Err(err) = inner.wal.append(&[WalRecord::Prepared(text.to_string())]) {
            eprintln!("pgso-server: logging prepared statement failed: {err}");
        } else if let Some(t) = &self.telemetry {
            // Close the durable tail of a wire-propagated trace: the group
            // commit (append + fsync) that made this registration
            // recoverable, under the request's trace id.
            let trace_id = current_trace_id();
            if trace_id != 0 {
                t.trace().emit_with_duration(
                    "wal.group_commit",
                    trace_id,
                    append_started.elapsed(),
                    vec![
                        ("kind", FieldValue::Str("prepared".into())),
                        ("records", FieldValue::U64(1)),
                    ],
                );
            }
        }
        Ok(prepared)
    }

    /// Executes a prepared statement with `params` bound **by name** against
    /// its signature. The compiled DIR→OPT plan is cached per prepared
    /// statement (parameters and all), so value-varying executions rewrite
    /// and compile once, and each reads its values in place.
    ///
    /// # Errors
    /// [`BindError`] when a declared parameter is missing, a `SKIP`/`LIMIT`
    /// parameter is not a non-negative integer, or `params` binds an
    /// undeclared name — and [`BindError::UnknownStatement`] when `prepared`
    /// was not issued by this server's [`KgServer::prepare_text`] (or handed
    /// back by its [`KgServer::prepared_statements`]): another server's
    /// handle is refused even when its id is in range here.
    pub fn execute(
        &self,
        prepared: &PreparedStatement,
        params: &Params,
    ) -> Result<QueryResult, BindError> {
        let (fp, stmt) = {
            let entries = self.prepared.read();
            // Every handle this server issues shares its registry entry's
            // signature `Arc`, so pointer identity tells its own handles
            // from an equal-looking id issued elsewhere.
            match entries.get(prepared.id.0) {
                Some(entry) if Arc::ptr_eq(&entry.signature, &prepared.signature) => {
                    (entry.fingerprint, entry.stmt.clone())
                }
                _ => return Err(BindError::UnknownStatement),
            }
        };
        let detailed = self.telemetry.as_deref().is_some_and(|t| t.sample_detail());
        self.serve_inner(fp, &stmt, params, Some(prepared.id), detailed)
    }

    /// Serves one parsed, parameterless DIR statement — the step behind
    /// [`KgServer::serve_text`]. The statement is **auto-parameterized**
    /// first ([`Statement::parameterize`]): its literal constants move into
    /// generated `$parameters`, the plan cache is keyed on the canonical
    /// parameterized statement, and the extracted values are bound back at
    /// execution — so value-varying ad-hoc statements of one shape share a
    /// single cached plan.
    fn serve_statement(&self, stmt: &Statement) -> Result<QueryResult, ParseError> {
        // The detail-sampling ticket is drawn here so it can also gate the
        // parameterize timing, upstream of `serve_inner`'s phases.
        let detailed = self.telemetry.as_deref().is_some_and(|t| t.sample_detail());
        let started = if detailed { Some(Instant::now()) } else { None };
        let (canonical, params) = stmt.parameterize();
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), started) {
            t.parameterize.record_duration(s.elapsed());
        }
        let fp = fingerprint_statement(&canonical);
        // The generated parameters bind by construction; only a `$parameter`
        // of the statement's own could fail here, and `serve_text` has
        // already refused those.
        self.serve_inner(fp, &canonical, &params, None, detailed)
            .map_err(|err| ParseError { message: err.to_string(), offset: 0 })
    }

    /// Parses and serves one statement text — the text-first ad-hoc entry
    /// point, implemented as parse → auto-parameterize →
    /// execute. Serving the same text with different predicate literals or
    /// `SKIP`/`LIMIT` counts therefore rewrites only once: the constants
    /// canonicalize into the same parameterized plan.
    ///
    /// # Errors
    /// A [`ParseError`] for malformed text, and also for well-formed text
    /// that declares `$parameters`: the ad-hoc path has no values to bind
    /// them with — register such a statement through
    /// [`KgServer::prepare_text`] and execute it with [`KgServer::execute`].
    pub fn serve_text(&self, text: &str) -> Result<QueryResult, ParseError> {
        // An `EXPLAIN` / `PROFILE` prefix diverts the text into the plan
        // surface: the typed [`QueryPlan`] travels back as tagged rows
        // ([`QueryPlan::to_rows`]), so the wire's RUN path streams plans
        // exactly like any result and clients rebuild them with
        // [`QueryPlan::from_rows`].
        let (mode, rest) = strip_directive(text);
        if let Some(mode) = mode {
            let plan = self.plan_text(rest, mode, text.len() - rest.len())?;
            return Ok(plan_query_result(&plan));
        }
        let started = self.telemetry.as_deref().map(|_| Instant::now());
        let stmt = parse_named(text, "adhoc")?;
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), started) {
            t.parse.record_duration(s.elapsed());
        }
        if stmt.has_parameters() {
            return Err(ParseError {
                message: "statement declares $parameters; register it with prepare_text and \
                          bind them via execute"
                    .into(),
                offset: 0,
            });
        }
        self.serve_statement(&stmt)
    }

    /// The `EXPLAIN` / `PROFILE` half of [`KgServer::serve_text`]: `rest` is
    /// the text behind the directive and `offset` the stripped prefix
    /// length, added back onto parse-error offsets so they index the
    /// original text.
    fn plan_text(
        &self,
        rest: &str,
        mode: QueryMode,
        offset: usize,
    ) -> Result<QueryPlan, ParseError> {
        let started = self.telemetry.as_deref().map(|_| Instant::now());
        let stmt = parse_named(rest, "adhoc").map_err(|mut err| {
            err.offset += offset;
            err
        })?;
        if let (Some(t), Some(s)) = (self.telemetry.as_deref(), started) {
            t.parse.record_duration(s.elapsed());
        }
        if stmt.has_parameters() {
            return Err(ParseError {
                message: format!(
                    "{} statement declares $parameters; plan a parameterless statement \
                     (literals are fine — they auto-parameterize)",
                    mode.keyword()
                ),
                offset,
            });
        }
        Ok(self.plan_statement(&stmt, mode))
    }

    /// Plans one parameterless DIR statement: DIR→OPT rewrite with rule
    /// provenance ([`pgso_query::rewrite_statement_traced`]), fan-out
    /// estimates from the workload tracker, plan-cache residency — and, in
    /// [`QueryMode::Profile`], a real execution on the current epoch whose
    /// actuals are exactly what [`pgso_query::execute_statement`] reports
    /// for the rewritten statement.
    pub(crate) fn plan_statement(&self, stmt: &Statement, mode: QueryMode) -> QueryPlan {
        let epoch = self.current_epoch();
        // Probe the key the ad-hoc path would serve this statement under:
        // its auto-parameterized canonical form. `peek` leaves the hit/miss
        // counters alone — planning is not serving.
        let (canonical, _) = stmt.parameterize();
        let cache_hit =
            self.plan_cache.peek(fingerprint_statement(&canonical), epoch.schema_generation);
        let (opt, mut rules) = rewrite_statement_traced(stmt, &epoch.schema);
        self.attach_fanouts(&mut rules, epoch.graph());
        let actuals = match mode {
            QueryMode::Explain => None,
            QueryMode::Profile => {
                let result = execute_statement(&opt, epoch.graph());
                // A profile is a real serve as far as the learned workload
                // is concerned, and its executor stages join any live trace.
                self.tracker.record_statement(&self.ontology, stmt);
                if let Some(t) = self.telemetry.as_deref() {
                    t.windows.record_request();
                    let trace_id = current_trace_id();
                    if trace_id != 0 {
                        emit_exec_trace(&result, t.trace(), trace_id);
                    }
                }
                Some(PlanActuals::from_result(&result))
            }
        };
        QueryPlan {
            mode,
            dir: stmt.to_string(),
            opt: opt.to_string(),
            schema_generation: epoch.schema_generation,
            cache_hit,
            rules,
            actuals,
        }
    }

    /// Fills [`AppliedRule::estimated_fanout`] from the workload tracker's
    /// sampled mean out-degrees, matching rules to relationships by edge
    /// label. Rules whose relationship the tracker has never seen traversed
    /// keep `None`.
    fn attach_fanouts(&self, rules: &mut [AppliedRule], backend: &dyn GraphBackend) {
        if rules.iter().all(|rule| rule.edge_label.is_none()) {
            return;
        }
        let fanouts = self.tracker.estimated_fanouts(&self.ontology, backend, 64);
        if fanouts.is_empty() {
            return;
        }
        for rule in rules.iter_mut() {
            let Some(label) = &rule.edge_label else { continue };
            rule.estimated_fanout = fanouts
                .iter()
                .find(|&&(rid, _)| self.ontology.relationship(rid).name == *label)
                .map(|&(_, fanout)| fanout);
        }
    }

    fn serve_inner(
        &self,
        fp: u64,
        stmt: &Statement,
        params: &Params,
        prepared: Option<PreparedId>,
        detailed: bool,
    ) -> Result<QueryResult, BindError> {
        // With telemetry off, every timestamp is `None` and the hot path
        // performs no clock reads and no metric updates at all. With it on,
        // the end-to-end latency costs two clock reads per serve; the phase
        // breakdown (boundary timestamps, one clock read per phase edge)
        // only runs on the sampled detail serves (`detailed`, drawn by the
        // caller via `ServerTelemetry::sample_detail`).
        let telemetry = self.telemetry.as_deref();
        let serve_started = telemetry.map(|_| Instant::now());
        let epoch = self.current_epoch();
        // Plans are keyed on the schema lineage, not the epoch number: an
        // ingest publication swaps the epoch but rewrites stay valid.
        let cached = self.plan_cache.get(fp, epoch.schema_generation);
        let mut exec_started = if detailed { Some(Instant::now()) } else { None };
        if let (Some(t), Some(s), Some(l)) = (telemetry, serve_started, exec_started) {
            t.cache_lookup.record_duration(l.duration_since(s));
        }
        let entry = match cached {
            Some(entry) => entry,
            None => {
                // Misses are rare and already expensive: the rewrite is
                // always timed, whatever the sampling ticket said.
                let rewrite_started = telemetry.map(|_| Instant::now());
                let plan = PhysicalPlan::compile_owned(rewrite_statement(stmt, &epoch.schema));
                let entry = Arc::new(ServedPlan {
                    plan,
                    access: self.tracker.resolve(&self.ontology, stmt),
                });
                if let (Some(t), Some(s)) = (telemetry, rewrite_started) {
                    let done = Instant::now();
                    t.rewrite.record_duration(done.duration_since(s));
                    // Keep a detail serve's execute phase from absorbing
                    // the rewrite.
                    if detailed {
                        exec_started = Some(done);
                    }
                }
                self.plan_cache.insert(fp, epoch.schema_generation, entry.clone());
                entry
            }
        };
        // The cached plan is the compiled rewrite of the *parameterized*
        // statement; it reads this execution's values by name, in place.
        // Its signature is the DIR statement's: the rewrite keeps every
        // predicate, HAVING and window term in place.
        let result = entry.plan.execute(params, epoch.graph())?;
        if let (Some(t), Some(s)) = (telemetry, serve_started) {
            // One final clock read closes both the execute phase (detail
            // serves only) and the end-to-end serve.
            let end = Instant::now();
            if let Some(e) = exec_started {
                t.execute.record_duration(end.duration_since(e));
            }
            self.record_serve(detailed, end.duration_since(s), fp, params, prepared, &result);
            t.windows.record_request();
            // A request arriving with a wire-propagated trace context gets
            // its serve and executor stages recorded under that id — the
            // engine's contribution to the end-to-end (socket → fsync)
            // trace. Context-less serves skip all of this: one thread-local
            // read is the only hot-path cost.
            let trace_id = current_trace_id();
            if trace_id != 0 {
                t.trace().emit_with_duration(
                    "server.serve",
                    trace_id,
                    end.duration_since(s),
                    vec![
                        ("fingerprint", FieldValue::Str(format!("{fp:016x}"))),
                        ("rows", FieldValue::from(result.rows.len())),
                        ("matches", FieldValue::from(result.matches)),
                    ],
                );
                emit_exec_trace(&result, t.trace(), trace_id);
            }
        }
        self.tracker.record(&entry.access);
        let served = self.served.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.auto_reoptimize && served.is_multiple_of(self.config.check_interval) {
            self.try_reoptimize();
        }
        Ok(result)
    }

    /// Post-execution telemetry: end-to-end latency (every serve), the
    /// per-stage detail series (sampled serves), the
    /// per-prepared-statement series, and — past the configured threshold —
    /// the structured slow-query trace event.
    fn record_serve(
        &self,
        detailed: bool,
        elapsed: Duration,
        fp: u64,
        params: &Params,
        prepared: Option<PreparedId>,
        result: &QueryResult,
    ) {
        let Some(t) = self.telemetry.as_deref() else {
            return;
        };
        t.query_latency.record_duration(elapsed);
        let stages = result.stage_timings.stages();
        if detailed {
            for (hist, &(_, duration)) in t.stage.iter().zip(stages.iter()) {
                hist.record_duration(duration);
            }
        }
        if let Some(id) = prepared {
            t.prepared_latency(id.0).record_duration(elapsed);
        }
        let Some(threshold) = self.config.slow_query_log_threshold else {
            return;
        };
        if elapsed < threshold {
            return;
        }
        t.slow_queries.inc();
        let mut fields = vec![
            ("fingerprint", FieldValue::Str(format!("{fp:016x}"))),
            ("params_hash", FieldValue::Str(format!("{:016x}", params_hash(params)))),
            ("rows", FieldValue::from(result.rows.len())),
            ("matches", FieldValue::from(result.matches)),
        ];
        for &(name, duration) in &stages {
            let field = match name {
                "root_selection" => "root_selection_ns",
                "expansion" => "expansion_ns",
                "optional" => "optional_ns",
                "aggregate" => "aggregate_ns",
                _ => "windowing_ns",
            };
            fields.push((field, FieldValue::from(duration.as_nanos() as u64)));
        }
        t.trace().emit_with_duration("slow_query", t.trace().new_span(), elapsed, fields);
    }
}

/// FNV-1a over a parameter set's sorted `(name, value)` pairs — a stable
/// fingerprint for the slow-query log that identifies *which bindings* were
/// slow without logging the values themselves. [`Params`] iterates in name
/// order, so equal sets hash equal regardless of insertion order.
pub(crate) fn params_hash(params: &Params) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash ^= 0xff; // terminator keeps ("ab","c") distinct from ("a","bc")
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for (name, value) in params.iter() {
        mix(name.as_bytes());
        mix(format!("{value:?}").as_bytes());
    }
    hash
}
