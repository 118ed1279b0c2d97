//! Networking scenario: two domain knowledge graphs — the medical and the
//! financial catalog — plus a quota-capped trial tenant, hosted by **one**
//! process behind **one** TCP listener, and a remote client that does
//! everything an operator can do holding only a `KgClient`:
//!
//! * PREPARE once, EXECUTE with varying parameters, pipeline a burst;
//! * `USE` another tenant — and survive asking for one that does not exist;
//! * `EXPLAIN` / `PROFILE` as statement prefixes: the plan comes back as
//!   tagged rows and `QueryPlan::from_rows` rebuilds it, rule attribution
//!   and executed actuals included;
//! * run into a quota: typed back-pressure, the connection lives on;
//! * `OBSERVE`: drain the trace of its own request, scrape health and the
//!   host-wide metrics exposition (every tenant's series under its own
//!   `tenant.<name>.` prefix, wire series alongside).
//!
//! ```text
//! cargo run --release --example networked_kg
//! ```

use pgso::net::NetError;
use pgso::ontology::catalog;
use pgso::prelude::*;
use pgso::server::QueryPlan;
use std::sync::Arc;

/// A tenant's serving inputs: its ontology, synthesized statistics, a
/// generated instance and a uniform access workload.
fn spec(ontology: Ontology, seed: u64) -> TenantSpec {
    let statistics = DataStatistics::synthesize(&ontology, &StatisticsConfig::small(), seed);
    let instance = InstanceKg::generate(&ontology, &statistics, 0.04, seed);
    let frequencies = AccessFrequencies::uniform(&ontology, 10_000.0);
    TenantSpec { ontology, statistics, instance, frequencies }
}

const PREPARED: &str =
    "MATCH (d:Drug) WHERE d.name CONTAINS $needle RETURN d.name ORDER BY d.name LIMIT $n";
const MED_QUERY: &str = "MATCH (d:Drug)-[:has]->(di:DrugInteraction)-[:isA]->\
                         (dfi:DrugFoodInteraction) RETURN d.name, dfi.risk LIMIT 5";
const FIN_QUERY: &str = "MATCH (corp:Corporation)-[:employsOfficer]->(o:Officer) \
                         RETURN size(collect(o.title))";

/// `EXPLAIN` / `PROFILE` over the wire: a statement prefix out, a typed plan
/// back.
fn remote_plan(client: &mut KgClient, directive: &str, text: &str) -> QueryPlan {
    let result = client.run(&format!("{directive} {text}")).expect("plans remotely");
    QueryPlan::from_rows(&result.rows).expect("tagged rows rebuild")
}

fn main() {
    // ── 1. One host, three tenants. Each is a complete serving stack (own
    //       optimized schema, graph, plan cache); the host shares only
    //       infrastructure — the metrics registry and, below, the listener.
    //       "trial" carries a 5-query lifetime budget.
    let host = Arc::new(TenantHost::new(TenantHostConfig::default()));
    host.create_tenant("med", spec(catalog::medical(), 19)).expect("med builds");
    host.create_tenant("fin", spec(catalog::financial(), 23)).expect("fin builds");
    host.create_tenant_with(
        "trial",
        spec(catalog::med_mini(), 29),
        TenantQuotas { max_queries: 5, ..TenantQuotas::unlimited() },
    )
    .expect("trial builds");
    let mut listener =
        KgListener::bind_host(host.clone(), "127.0.0.1:0", NetConfig::default()).expect("binds");
    listener.serve().expect("serves");
    let addr = listener.local_addr();
    println!("hosting {:?} on {addr} (default: med)\n", host.tenant_names());

    // ── 2. A remote client lands on the default tenant: handshake, prepare
    //       once, execute with different bindings, then pipeline a burst —
    //       responses arrive strictly in request order.
    let mut client = KgClient::connect(addr).expect("handshake");
    let stmt = client.prepare(PREPARED).expect("prepares");
    println!(
        "== med: prepared handle {} [{}] ==",
        stmt.handle(),
        stmt.signature().names().collect::<Vec<_>>().join(", ")
    );
    for n in [2i64, 5] {
        let params = Params::new().set("needle", "Drug_name").set("n", n);
        let result = client.execute(&stmt, &params).expect("executes");
        println!("  LIMIT {n}: {} rows / {} matches", result.rows.len(), result.matches);
    }
    for n in 1..=10i64 {
        let params = Params::new().set("needle", "Drug_name").set("n", n);
        client.send_execute(&stmt, &params).expect("queues");
    }
    let rows: usize = (0..10).map(|_| client.recv_result().expect("in order").rows.len()).sum();
    println!("  pipelined burst of 10 served {rows} rows");

    // ── 3. EXPLAIN, then PROFILE: which rules rewrote the statement against
    //       this tenant's schema, then the executed actuals per stage.
    let plan = remote_plan(&mut client, "EXPLAIN", MED_QUERY);
    println!("\n== EXPLAIN over the wire ==\n  DIR {}\n  OPT {}", plan.dir, plan.opt);
    for rule in &plan.rules {
        println!("      {} ({})", rule.rule, rule.detail);
    }
    let plan = remote_plan(&mut client, "PROFILE", MED_QUERY);
    println!("== PROFILE over the wire ==");
    for line in plan.render_text().lines() {
        println!("  {line}");
    }

    // ── 4. OBSERVE: the request above was trace-stamped; drain exactly its
    //       events from the tenant's ring, then scrape health.
    client.run(MED_QUERY).expect("runs");
    let trace_id = client.last_trace_id();
    let events = client.observe_trace(trace_id).expect("drains");
    println!("\n== trace {trace_id:#018x}: {} event(s) across the stack ==", events.len());
    for event in &events {
        println!("  {:<24} {:>8} ns", event.name, event.duration.map_or(0, |d| d.as_nanos()));
    }
    let health = client.observe_health().expect("summarizes");
    println!(
        "health[med]: served={} epoch={} schema_gen={} drift={:.3}",
        health.served, health.epoch, health.schema_generation, health.drift
    );

    // ── 5. USE re-targets the connection. An unknown tenant is a survivable
    //       error: the connection and the previous selection live on. The
    //       same statement shape plans differently per tenant, because each
    //       schema was optimized for its own ontology.
    client.use_tenant("fin").expect("USE fin");
    match client.use_tenant("nope") {
        Err(NetError::Remote { code, .. }) => println!("\nUSE nope -> ERROR({code:?}), survivable"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    let result = client.run(FIN_QUERY).expect("fin serves");
    let plan = remote_plan(&mut client, "EXPLAIN", FIN_QUERY);
    println!("== fin via USE: answer {:?}, {} rule(s) ==", result.rows[0], plan.rules.len());

    // ── 6. Quota rejection, live: the trial tenant's 5-query budget runs out
    //       mid-loop. Typed back-pressure — the connection survives, and the
    //       siblings are untouched.
    println!("\n== trial tenant: 5-query lifetime budget ==");
    client.use_tenant("trial").expect("USE trial");
    for i in 1.. {
        match client.run("MATCH (d:Drug) RETURN count(d)") {
            Ok(_) => println!("  query {i}: ok"),
            Err(NetError::Remote { code, message }) => {
                println!("  query {i}: ERROR({code:?}) — {message}");
                break;
            }
            Err(other) => panic!("unexpected transport error: {other}"),
        }
    }
    client.use_tenant("med").expect("connection survives the rejection");
    client.run(MED_QUERY).expect("med still serves");

    // ── 7. One exposition for the whole host, scraped remotely.
    let text = client.observe_metrics_text().expect("scrapes");
    println!("\n== OBSERVE exposition ({} lines, excerpt) ==", text.lines().count());
    for needle in
        ["tenant_med_query_latency_count", "tenant_fin_query_latency_count", "net_requests"]
    {
        println!("  {}", text.lines().find(|l| l.starts_with(needle)).expect("series exported"));
    }
    for health in host.health() {
        println!(
            "  [{}] admitted {} rejected {} served {}",
            health.tenant, health.admitted, health.rejected, health.server.served
        );
    }
    client.goodbye().expect("orderly close");

    // ── 8. Wire accounting, then a draining shutdown.
    let report = listener.run_report();
    println!(
        "\n{} connection(s), {} served, {} errors",
        report.connections, report.served, report.errors
    );
    assert!(listener.shutdown().drained, "all connections drained");
}
