//! Multi-tenant hosting: many independent knowledge graphs served by one
//! process, with per-tenant quotas and admission control.
//!
//! A [`TenantHost`] manages N fully independent [`Tenant`]s. Each tenant
//! owns a complete serving stack — its own ontology, optimized PGSG schema,
//! instance graph, workload tracker, plan cache, and (when the host is
//! persistent) its own WAL + snapshot directory under
//! `<root>/tenants/<name>` — so one tenant's re-optimization epoch swap,
//! WAL rotation or snapshot collapse can never stall a sibling's readers.
//! What tenants *share* is infrastructure: the host's
//! [`MetricsRegistry`], into which every tenant's instruments are
//! registered under a `tenant.<name>.` prefix
//! ([`pgso_server::TelemetrySink::Shared`]), and — when fronted by
//! `pgso-net` — one listener and one accept thread.
//!
//! # Resource governance
//!
//! Every query enters a tenant through an admission gate
//! ([`Tenant::admit`]): a bounded number of in-flight queries per tenant
//! ([`TenantQuotas::max_inflight`]), an optional lifetime query budget
//! ([`TenantQuotas::max_queries`]) and an optional ingest budget
//! ([`TenantQuotas::max_ingest_updates`]). Exhaustion is a **typed
//! rejection** ([`TenantError::Quota`]) the caller can surface and the
//! client can survive — never queueing collapse: a tenant at its admission
//! limit sheds its own load while its siblings keep serving.
//!
//! # Lifecycle
//!
//! [`TenantHost::create_tenant`] builds a fresh tenant (optimizing its
//! schema, loading its instance, anchoring generation 0 when persistent);
//! [`TenantHost::open`] recovers one from its namespaced directory;
//! [`TenantHost::close`] detaches it from routing (in-flight holders of the
//! `Arc<Tenant>` finish undisturbed); [`TenantHost::drop_tenant`] closes it
//! and deletes its directory. [`TenantHost::adopt`] wraps an externally
//! built [`KgServer`] — this is how a single-server deployment becomes
//! tenant "default" of a host without rebuilding anything
//! ([`TenantHost::single`]).

use parking_lot::RwLock;
use pgso_datagen::InstanceKg;
use pgso_graphstore::GraphUpdate;
use pgso_ontology::{AccessFrequencies, DataStatistics, Ontology};
use pgso_persist::PersistConfig;
use pgso_query::{BindError, Params, ParseError, QueryResult};
use pgso_server::{
    HealthSummary, IngestReport, KgServer, PreparedStatement, ServerConfig, TelemetrySink,
};
use pgso_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Longest accepted tenant name.
pub const MAX_TENANT_NAME: usize = 64;

/// Per-tenant resource limits. `0` means unlimited for every field, so
/// [`TenantQuotas::default`] is a fully open tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Queries admitted concurrently; the `max_inflight + 1`-th concurrent
    /// query is rejected with [`TenantError::Quota`] instead of queueing.
    pub max_inflight: u64,
    /// Lifetime budget of admitted queries.
    pub max_queries: u64,
    /// Lifetime budget of ingested graph updates.
    pub max_ingest_updates: u64,
}

impl TenantQuotas {
    /// No limits on anything (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Which quota a rejected request ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaResource {
    /// [`TenantQuotas::max_inflight`].
    Inflight,
    /// [`TenantQuotas::max_queries`].
    Queries,
    /// [`TenantQuotas::max_ingest_updates`].
    IngestUpdates,
}

impl QuotaResource {
    /// Stable lower-case label (used in error messages and wire details).
    pub fn as_str(self) -> &'static str {
        match self {
            QuotaResource::Inflight => "inflight",
            QuotaResource::Queries => "queries",
            QuotaResource::IngestUpdates => "ingest_updates",
        }
    }
}

/// Everything that can go wrong talking to a tenant or its host.
#[derive(Debug)]
pub enum TenantError {
    /// A quota rejected the request. Survivable: the tenant keeps serving
    /// within its limits, siblings are unaffected.
    Quota {
        /// Rejecting tenant.
        tenant: String,
        /// Which limit was hit.
        resource: QuotaResource,
        /// The configured limit.
        limit: u64,
    },
    /// Parameter binding failed ([`pgso_query::BindError`]).
    Bind(BindError),
    /// Statement text did not parse ([`pgso_query::ParseError`]).
    Parse(ParseError),
    /// Persistence I/O failed.
    Io(io::Error),
    /// No tenant of that name is routed by the host.
    UnknownTenant(String),
    /// [`TenantHost::create_tenant`]/[`TenantHost::adopt`] on a name already
    /// routed.
    AlreadyExists(String),
    /// Tenant names must be 1–[`MAX_TENANT_NAME`] characters of
    /// `[A-Za-z0-9_-]` — they become path components and metric-name
    /// segments.
    InvalidName(String),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Quota { tenant, resource, limit } => {
                write!(f, "tenant `{tenant}` quota exceeded: {} limit {limit}", resource.as_str())
            }
            TenantError::Bind(err) => write!(f, "{err}"),
            TenantError::Parse(err) => write!(f, "{err}"),
            TenantError::Io(err) => write!(f, "{err}"),
            TenantError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            TenantError::AlreadyExists(name) => write!(f, "tenant `{name}` already exists"),
            TenantError::InvalidName(name) => write!(
                f,
                "invalid tenant name `{name}`: need 1-{MAX_TENANT_NAME} chars of [A-Za-z0-9_-]"
            ),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Bind(err) => Some(err),
            TenantError::Parse(err) => Some(err),
            TenantError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<BindError> for TenantError {
    fn from(err: BindError) -> Self {
        TenantError::Bind(err)
    }
}

impl From<ParseError> for TenantError {
    fn from(err: ParseError) -> Self {
        TenantError::Parse(err)
    }
}

impl From<io::Error> for TenantError {
    fn from(err: io::Error) -> Self {
        TenantError::Io(err)
    }
}

/// An admitted query's ticket. Holding it counts against the tenant's
/// in-flight limit; dropping it (normally or on panic/unwind) releases the
/// slot.
#[derive(Debug)]
pub struct Admission<'a> {
    tenant: &'a Tenant,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::Release);
    }
}

/// One hosted graph: a [`KgServer`] plus the quota state guarding it.
///
/// All serving entry points ([`Tenant::execute`], [`Tenant::serve_text`])
/// pass through admission control; [`Tenant::ingest`] charges the ingest
/// budget. The wrapped server is reachable via [`Tenant::server`] for
/// surfaces that don't consume quota (health, metrics, epoch inspection).
#[derive(Debug)]
pub struct Tenant {
    name: String,
    server: Arc<KgServer>,
    quotas: TenantQuotas,
    inflight: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    ingested_updates: AtomicU64,
}

impl Tenant {
    fn new(name: String, server: Arc<KgServer>, quotas: TenantQuotas) -> Self {
        Self {
            name,
            server,
            quotas,
            inflight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            ingested_updates: AtomicU64::new(0),
        }
    }

    /// This tenant's name (unique within its host).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The serving engine behind this tenant.
    pub fn server(&self) -> &Arc<KgServer> {
        &self.server
    }

    /// The limits this tenant runs under.
    pub fn quotas(&self) -> TenantQuotas {
        self.quotas
    }

    /// Admission control: claims an in-flight slot and one unit of the
    /// lifetime query budget, or rejects with [`TenantError::Quota`].
    /// The returned ticket releases the slot on drop. [`Tenant::execute`]
    /// and [`Tenant::serve_text`] call this internally; use it directly
    /// when driving [`Tenant::server`] yourself.
    pub fn admit(&self) -> Result<Admission<'_>, TenantError> {
        if self.quotas.max_queries > 0
            && self.admitted.load(Ordering::Relaxed) >= self.quotas.max_queries
        {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(self.quota_error(QuotaResource::Queries, self.quotas.max_queries));
        }
        let now_inflight = self.inflight.fetch_add(1, Ordering::Acquire) + 1;
        if self.quotas.max_inflight > 0 && now_inflight > self.quotas.max_inflight {
            self.inflight.fetch_sub(1, Ordering::Release);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(self.quota_error(QuotaResource::Inflight, self.quotas.max_inflight));
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Admission { tenant: self })
    }

    fn quota_error(&self, resource: QuotaResource, limit: u64) -> TenantError {
        TenantError::Quota { tenant: self.name.clone(), resource, limit }
    }

    /// Admission-controlled [`KgServer::execute`].
    ///
    /// Like the underlying call, refuses a handle that a different tenant's
    /// server issued with [`pgso_query::BindError::UnknownStatement`]
    /// (wrapped in [`TenantError::Bind`]) — it never runs whichever
    /// statement of this tenant happens to share the id.
    pub fn execute(
        &self,
        prepared: &PreparedStatement,
        params: &Params,
    ) -> Result<QueryResult, TenantError> {
        let _ticket = self.admit()?;
        Ok(self.server.execute(prepared, params)?)
    }

    /// Admission-controlled [`KgServer::serve_text`] (EXPLAIN/PROFILE
    /// directives included).
    pub fn serve_text(&self, text: &str) -> Result<QueryResult, TenantError> {
        let _ticket = self.admit()?;
        Ok(self.server.serve_text(text)?)
    }

    /// [`KgServer::prepare_text`] — registration only, so it does not
    /// consume query quota.
    pub fn prepare_text(&self, text: &str) -> Result<PreparedStatement, TenantError> {
        Ok(self.server.prepare_text(text)?)
    }

    /// [`KgServer::ingest`], charged against
    /// [`TenantQuotas::max_ingest_updates`]. A batch that would cross the
    /// budget is rejected whole — no partial application.
    pub fn ingest(&self, updates: Vec<GraphUpdate>) -> Result<IngestReport, TenantError> {
        let limit = self.quotas.max_ingest_updates;
        let batch = updates.len() as u64;
        if limit > 0 {
            // Optimistically charge, undo on overflow: concurrent ingests
            // cannot both sneak under the budget.
            let charged = self.ingested_updates.fetch_add(batch, Ordering::AcqRel) + batch;
            if charged > limit {
                self.ingested_updates.fetch_sub(batch, Ordering::AcqRel);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(self.quota_error(QuotaResource::IngestUpdates, limit));
            }
        } else {
            self.ingested_updates.fetch_add(batch, Ordering::Relaxed);
        }
        match self.server.ingest(updates) {
            Ok(report) => Ok(report),
            Err(err) => Err(TenantError::Io(err)),
        }
    }

    /// Liveness + quota accounting for this tenant.
    pub fn health(&self) -> TenantHealth {
        TenantHealth {
            tenant: self.name.clone(),
            server: self.server.health_summary(),
            inflight: self.inflight.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            ingested_updates: self.ingested_updates.load(Ordering::Relaxed),
        }
    }
}

/// [`Tenant::health`]: the wrapped server's [`HealthSummary`] plus the
/// tenant's admission counters.
#[derive(Debug, Clone)]
pub struct TenantHealth {
    /// Tenant name.
    pub tenant: String,
    /// The underlying engine's health (per-tenant rolling q/s windows —
    /// each tenant's [`pgso_server::ServerTelemetry`] owns its own).
    pub server: HealthSummary,
    /// Queries currently admitted and executing.
    pub inflight: u64,
    /// Queries admitted since the tenant opened.
    pub admitted: u64,
    /// Requests rejected by any quota since the tenant opened.
    pub rejected: u64,
    /// Graph updates charged against the ingest budget.
    pub ingested_updates: u64,
}

/// The inputs [`TenantHost::create_tenant`]/[`TenantHost::open`] need to
/// build a tenant's serving stack.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant's domain ontology.
    pub ontology: Ontology,
    /// Data statistics the optimizer scores rules against.
    pub statistics: DataStatistics,
    /// The instance graph loaded at creation (replayed-over on recovery).
    pub instance: InstanceKg,
    /// Access frequencies the initial schema is optimized for.
    pub frequencies: AccessFrequencies,
}

/// Host-wide configuration shared by every tenant it creates.
#[derive(Debug, Clone)]
pub struct TenantHostConfig {
    /// When `Some`, tenants are persistent: each gets its own WAL +
    /// snapshot directory at `<root>/tenants/<name>`, so rotation and
    /// collapse in one tenant's directory never touches a sibling's.
    /// When `None`, tenants are in-memory.
    pub root: Option<PathBuf>,
    /// Engine configuration applied to every created/opened tenant.
    pub server: ServerConfig,
    /// Persistence template (fsync mode, rotation threshold, checkpoint
    /// interval). Its `dir` is ignored — the host namespaces each tenant's
    /// directory under [`TenantHostConfig::root`].
    pub persist: PersistConfig,
    /// Quotas applied to tenants created without explicit ones.
    pub default_quotas: TenantQuotas,
}

impl Default for TenantHostConfig {
    fn default() -> Self {
        Self {
            root: None,
            server: ServerConfig::default(),
            persist: PersistConfig::new_unsynced(PathBuf::new()),
            default_quotas: TenantQuotas::unlimited(),
        }
    }
}

impl TenantHostConfig {
    /// A persistent host rooted at `root` (tenant directories are created
    /// beneath it on demand).
    pub fn persistent(root: impl Into<PathBuf>) -> Self {
        Self { root: Some(root.into()), ..Self::default() }
    }
}

/// Routes names to [`Tenant`]s and owns the shared observability plane.
///
/// The host's [`MetricsRegistry`] carries every tenant's series under
/// `tenant.<name>.` prefixes; [`TenantHost::metrics_text`] is the one
/// exposition covering them all. Routing state is a read-mostly map —
/// serving a query takes one `RwLock` read to resolve the tenant and
/// nothing host-global after that, so tenants scale independently.
#[derive(Debug)]
pub struct TenantHost {
    config: TenantHostConfig,
    registry: Arc<MetricsRegistry>,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    default_tenant: RwLock<Option<String>>,
}

impl TenantHost {
    /// An empty host; add tenants with [`TenantHost::create_tenant`],
    /// [`TenantHost::open`] or [`TenantHost::adopt`].
    pub fn new(config: TenantHostConfig) -> Self {
        Self {
            config,
            registry: Arc::new(MetricsRegistry::new()),
            tenants: RwLock::new(HashMap::new()),
            default_tenant: RwLock::new(None),
        }
    }

    /// Wraps one externally built server as the sole tenant `default` —
    /// the bridge from single-server deployments: `KgListener::bind` uses
    /// this so a pre-tenancy caller's listener behaves exactly as before.
    /// The host's exposition is the server's own registry when it has one,
    /// so OBSERVE metric scrapes are unchanged too.
    pub fn single(server: Arc<KgServer>) -> Arc<Self> {
        let registry = server
            .telemetry()
            .map(|t| t.registry().clone())
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        // A telemetry-disabled server keeps its zero-overhead wire path:
        // the listener gates its own instruments on this flag.
        let mut config = TenantHostConfig::default();
        config.server.telemetry_enabled = server.telemetry().is_some();
        let host = Self {
            config,
            registry,
            tenants: RwLock::new(HashMap::new()),
            default_tenant: RwLock::new(None),
        };
        host.adopt("default", server, TenantQuotas::unlimited())
            .expect("fresh host cannot already route `default`");
        Arc::new(host)
    }

    fn validate_name(name: &str) -> Result<(), TenantError> {
        let ok = !name.is_empty()
            && name.len() <= MAX_TENANT_NAME
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        if ok {
            Ok(())
        } else {
            Err(TenantError::InvalidName(name.to_string()))
        }
    }

    fn sink_for(&self, name: &str) -> TelemetrySink {
        TelemetrySink::Shared { registry: self.registry.clone(), prefix: format!("tenant.{name}.") }
    }

    fn tenant_dir(&self, name: &str) -> Option<PathBuf> {
        self.config.root.as_ref().map(|root| root.join("tenants").join(name))
    }

    fn persist_for(&self, name: &str) -> Option<PersistConfig> {
        self.tenant_dir(name).map(|dir| {
            let mut cfg = self.config.persist.clone();
            cfg.dir = dir;
            cfg
        })
    }

    /// Routes `name` to `tenant`, failing on duplicates; the first tenant
    /// routed becomes the default.
    fn route(&self, name: &str, tenant: Tenant) -> Result<Arc<Tenant>, TenantError> {
        let tenant = Arc::new(tenant);
        let mut map = self.tenants.write();
        if map.contains_key(name) {
            return Err(TenantError::AlreadyExists(name.to_string()));
        }
        map.insert(name.to_string(), tenant.clone());
        drop(map);
        let mut default = self.default_tenant.write();
        if default.is_none() {
            *default = Some(name.to_string());
        }
        Ok(tenant)
    }

    /// Builds a fresh tenant under the host's default quotas: optimizes its
    /// schema, loads its instance, and — on a persistent host — anchors
    /// snapshot generation 0 in `<root>/tenants/<name>`.
    pub fn create_tenant(&self, name: &str, spec: TenantSpec) -> Result<Arc<Tenant>, TenantError> {
        self.create_tenant_with(name, spec, self.config.default_quotas)
    }

    /// [`TenantHost::create_tenant`] with explicit quotas.
    pub fn create_tenant_with(
        &self,
        name: &str,
        spec: TenantSpec,
        quotas: TenantQuotas,
    ) -> Result<Arc<Tenant>, TenantError> {
        Self::validate_name(name)?;
        if self.tenants.read().contains_key(name) {
            return Err(TenantError::AlreadyExists(name.to_string()));
        }
        let TenantSpec { ontology, statistics, instance, frequencies } = spec;
        let mut builder = KgServer::builder(ontology, statistics, instance)
            .config(self.config.server)
            .telemetry_sink(self.sink_for(name));
        if let Some(persist) = self.persist_for(name) {
            builder = builder.persist(persist);
        }
        let server = builder.build(frequencies)?;
        self.route(name, Tenant::new(name.to_string(), Arc::new(server), quotas))
    }

    /// Recovers a previously persisted tenant from its namespaced
    /// directory — snapshot + WAL tail replay, restored prepared registry,
    /// bit-identical answers — and routes it under the host's default
    /// quotas.
    pub fn open(&self, name: &str, spec: TenantSpec) -> Result<Arc<Tenant>, TenantError> {
        self.open_with(name, spec, self.config.default_quotas)
    }

    /// [`TenantHost::open`] with explicit quotas.
    pub fn open_with(
        &self,
        name: &str,
        spec: TenantSpec,
        quotas: TenantQuotas,
    ) -> Result<Arc<Tenant>, TenantError> {
        Self::validate_name(name)?;
        if self.tenants.read().contains_key(name) {
            return Err(TenantError::AlreadyExists(name.to_string()));
        }
        let persist = self.persist_for(name).ok_or_else(|| {
            TenantError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                "TenantHost::open requires a persistent host (TenantHostConfig::root)",
            ))
        })?;
        let TenantSpec { ontology, statistics, instance, .. } = spec;
        let server = KgServer::builder(ontology, statistics, instance)
            .config(self.config.server)
            .persist(persist)
            .telemetry_sink(self.sink_for(name))
            .recover()?;
        self.route(name, Tenant::new(name.to_string(), Arc::new(server), quotas))
    }

    /// Routes an externally built server as tenant `name`. Its telemetry
    /// (if any) stays wherever the builder put it — use
    /// [`pgso_server::TelemetrySink::Shared`] with
    /// [`TenantHost::registry`] to land it in the host exposition.
    pub fn adopt(
        &self,
        name: &str,
        server: Arc<KgServer>,
        quotas: TenantQuotas,
    ) -> Result<Arc<Tenant>, TenantError> {
        Self::validate_name(name)?;
        self.route(name, Tenant::new(name.to_string(), server, quotas))
    }

    /// Detaches `name` from routing and returns it. In-flight holders of
    /// the `Arc<Tenant>` (wire connections, workload threads) finish
    /// undisturbed; new lookups fail with [`TenantError::UnknownTenant`].
    /// Persistent state stays on disk for a later [`TenantHost::open`].
    pub fn close(&self, name: &str) -> Result<Arc<Tenant>, TenantError> {
        self.tenants
            .write()
            .remove(name)
            .ok_or_else(|| TenantError::UnknownTenant(name.to_string()))
    }

    /// [`TenantHost::close`] plus deletion of the tenant's persistence
    /// directory (a no-op for in-memory hosts). Irreversible.
    pub fn drop_tenant(&self, name: &str) -> Result<(), TenantError> {
        self.close(name)?;
        if let Some(dir) = self.tenant_dir(name) {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
        }
        Ok(())
    }

    /// Resolves a tenant by name.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>, TenantError> {
        self.tenants
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| TenantError::UnknownTenant(name.to_string()))
    }

    /// The tenant new connections land on before any explicit selection
    /// (`None` when the host is empty or the default was closed).
    pub fn default_tenant(&self) -> Option<Arc<Tenant>> {
        let name = self.default_tenant.read().clone()?;
        self.tenants.read().get(&name).cloned()
    }

    /// Reassigns which tenant unselected connections land on.
    pub fn set_default(&self, name: &str) -> Result<(), TenantError> {
        if !self.tenants.read().contains_key(name) {
            return Err(TenantError::UnknownTenant(name.to_string()));
        }
        *self.default_tenant.write() = Some(name.to_string());
        Ok(())
    }

    /// Routed tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.tenants.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The shared registry every created/opened tenant's instruments live
    /// in (under `tenant.<name>.` prefixes).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether tenants created through this host run with telemetry on —
    /// the wire layer gates its own `net.*` instruments on the same flag so
    /// a telemetry-disabled deployment stays clock-free end to end.
    pub fn telemetry_enabled(&self) -> bool {
        self.config.server.telemetry_enabled
    }

    /// One point-in-time snapshot covering every tenant: refreshes each
    /// tenant's state-mirror gauges into the shared registry (including
    /// tenants whose own telemetry is disabled — their hot-path series are
    /// simply absent), then snapshots it.
    pub fn metrics_snapshot(&self) -> pgso_telemetry::MetricsSnapshot {
        let tenants: Vec<_> = self.tenants.read().values().cloned().collect();
        for tenant in &tenants {
            tenant.server().mirror_gauges_into(&self.registry);
        }
        self.registry.snapshot()
    }

    /// One text exposition covering every tenant: refreshes each tenant's
    /// state-mirror gauges, then renders the shared registry.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_text()
    }

    /// Every tenant's [`TenantHealth`], sorted by name.
    pub fn health(&self) -> Vec<TenantHealth> {
        let tenants: Vec<_> = self.tenants.read().values().cloned().collect();
        let mut report: Vec<_> = tenants.iter().map(|t| t.health()).collect();
        report.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgso_ontology::{catalog, StatisticsConfig};

    fn spec(seed: u64) -> TenantSpec {
        let ontology = catalog::med_mini();
        let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), seed);
        let instance = InstanceKg::generate(&ontology, &statistics, 0.05, seed);
        let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
        TenantSpec { ontology, statistics, instance, frequencies }
    }

    fn host_with_two_tenants() -> (TenantHost, Arc<Tenant>, Arc<Tenant>) {
        let host = TenantHost::new(TenantHostConfig::default());
        let a = host.create_tenant("alpha", spec(7)).expect("creates alpha");
        let b = host.create_tenant("beta", spec(11)).expect("creates beta");
        (host, a, b)
    }

    #[test]
    fn names_are_validated() {
        let host = TenantHost::new(TenantHostConfig::default());
        for bad in ["", "has space", "dot.dot", "slash/slash", &"x".repeat(65)] {
            assert!(
                matches!(host.create_tenant(bad, spec(1)), Err(TenantError::InvalidName(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn a_sibling_tenants_handle_is_refused_not_misrouted() {
        let (_host, alpha, beta) = host_with_two_tenants();
        let on_alpha = alpha.prepare_text("MATCH (d:Drug) RETURN d.name").expect("prepares");
        let on_beta = beta.prepare_text("MATCH (i:Indication) RETURN i.desc").expect("prepares");
        // Same id on both tenants, different statements behind it.
        assert_eq!(on_alpha.id(), on_beta.id());
        let err = beta.execute(&on_alpha, &Params::new()).expect_err("alpha's handle on beta");
        assert!(matches!(err, TenantError::Bind(BindError::UnknownStatement)), "{err}");
        // Out of range on beta: still an error, never a panic.
        let second = alpha.prepare_text("MATCH (i:Indication) RETURN i.desc").expect("prepares");
        let err = beta.execute(&second, &Params::new()).expect_err("beta has no such id");
        assert!(matches!(err, TenantError::Bind(BindError::UnknownStatement)), "{err}");
        assert_eq!(beta.server().served(), 0, "nothing ran on beta");
        assert!(!beta.execute(&on_beta, &Params::new()).expect("own handle").rows.is_empty());
    }

    #[test]
    fn duplicate_names_are_rejected_and_default_is_first() {
        let (host, a, _) = host_with_two_tenants();
        assert!(matches!(host.create_tenant("alpha", spec(3)), Err(TenantError::AlreadyExists(_))));
        assert_eq!(host.default_tenant().expect("default").name(), a.name());
        host.set_default("beta").expect("beta exists");
        assert_eq!(host.default_tenant().expect("default").name(), "beta");
        assert!(matches!(host.set_default("ghost"), Err(TenantError::UnknownTenant(_))));
        assert_eq!(host.tenant_names(), vec!["alpha", "beta"]);
    }

    #[test]
    fn inflight_quota_rejects_then_releases() {
        let host = TenantHost::new(TenantHostConfig::default());
        let t = host
            .create_tenant_with(
                "a",
                spec(5),
                TenantQuotas { max_inflight: 2, ..Default::default() },
            )
            .expect("creates");
        let first = t.admit().expect("slot 1");
        let _second = t.admit().expect("slot 2");
        let over = t.admit();
        assert!(
            matches!(
                over,
                Err(TenantError::Quota { resource: QuotaResource::Inflight, limit: 2, .. })
            ),
            "third concurrent admission must be rejected"
        );
        drop(first);
        let _third = t.admit().expect("released slot is reusable");
        let health = t.health();
        assert_eq!(health.admitted, 3);
        assert_eq!(health.rejected, 1);
        assert_eq!(health.inflight, 2);
    }

    #[test]
    fn lifetime_query_budget_is_enforced() {
        let host = TenantHost::new(TenantHostConfig::default());
        let t = host
            .create_tenant_with("a", spec(5), TenantQuotas { max_queries: 2, ..Default::default() })
            .expect("creates");
        t.serve_text("MATCH (d:Drug) RETURN count(d)").expect("within budget");
        t.serve_text("MATCH (d:Drug) RETURN count(d)").expect("within budget");
        assert!(matches!(
            t.serve_text("MATCH (d:Drug) RETURN count(d)"),
            Err(TenantError::Quota { resource: QuotaResource::Queries, .. })
        ));
    }

    #[test]
    fn ingest_budget_rejects_whole_batches() {
        let host = TenantHost::new(TenantHostConfig::default());
        let t = host
            .create_tenant_with(
                "a",
                spec(5),
                TenantQuotas { max_ingest_updates: 1, ..Default::default() },
            )
            .expect("creates");
        let update = |i: u32| GraphUpdate::AddVertex {
            label: "Drug".into(),
            properties: pgso_graphstore::props([("name", format!("NewDrug_{i}").into())]),
        };
        assert!(matches!(
            t.ingest(vec![update(0), update(1)]),
            Err(TenantError::Quota { resource: QuotaResource::IngestUpdates, limit: 1, .. })
        ));
        // The failed batch refunded its charge: a fitting one still lands.
        t.ingest(vec![update(2)]).expect("within budget");
        assert_eq!(t.health().ingested_updates, 1);
    }

    #[test]
    fn tenants_share_one_exposition_without_collisions() {
        let (host, a, b) = host_with_two_tenants();
        a.serve_text("MATCH (d:Drug) RETURN count(d)").expect("alpha serves");
        b.serve_text("MATCH (d:Drug) RETURN count(d)").expect("beta serves");
        b.serve_text("MATCH (d:Drug) RETURN count(d)").expect("beta serves");
        let text = host.metrics_text();
        assert!(text.contains("tenant_alpha_query_latency_count 1"), "{text}");
        assert!(text.contains("tenant_beta_query_latency_count 2"), "{text}");
        assert!(text.contains("tenant_alpha_plan_cache_entries"), "{text}");
        assert!(text.contains("tenant_beta_epoch_number"), "{text}");
        let health = host.health();
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].tenant, "alpha");
        assert_eq!(health[0].admitted, 1);
        assert_eq!(health[1].admitted, 2);
    }

    #[test]
    fn close_detaches_but_live_handles_finish() {
        let (host, a, _) = host_with_two_tenants();
        let closed = host.close("alpha").expect("closes");
        assert!(matches!(host.tenant("alpha"), Err(TenantError::UnknownTenant(_))));
        // Both Arcs still serve: close is routing-only.
        closed.serve_text("MATCH (d:Drug) RETURN count(d)").expect("closed arc serves");
        a.serve_text("MATCH (d:Drug) RETURN count(d)").expect("held arc serves");
        assert!(matches!(host.close("alpha"), Err(TenantError::UnknownTenant(_))));
    }

    #[test]
    fn persistent_tenants_are_namespaced_and_droppable() {
        let dir = tempfile::tempdir().expect("tempdir");
        let host = TenantHost::new(TenantHostConfig::persistent(dir.path()));
        host.create_tenant("alpha", spec(7)).expect("creates alpha");
        host.create_tenant("beta", spec(11)).expect("creates beta");
        assert!(dir.path().join("tenants/alpha").is_dir());
        assert!(dir.path().join("tenants/beta").is_dir());
        host.drop_tenant("alpha").expect("drops");
        assert!(!dir.path().join("tenants/alpha").exists());
        assert!(dir.path().join("tenants/beta").is_dir(), "sibling directory untouched");
    }
}
