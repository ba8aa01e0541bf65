//! Multi-tenant serving: a warm session pool behind admission control.
//!
//! The paper's million-core machine is operated as a shared facility
//! (§5.2): many hosts check in, load their networks, and drive them
//! through run segments while the fabric stays resident. This example
//! is that machine room in miniature, built on the `spinn-serve`
//! crate: three registered models share a pool of warm
//! [`RunSession`]s, two tenants (one quota-limited) push a job stream
//! through a bounded queue, compatible jobs coalesce onto one warm
//! session, and an explicit evict -> rehydrate round-trip shows the
//! pool checkpointing a model out and bringing it back without
//! perturbing the service.
//!
//! Run with: `cargo run --release --example session_server`

use spinn_serve::{JobSpec, ServeConfig, Server, Stimulus, TenantId, TenantQuota};
use spinnaker::prelude::*;

/// One serving workload: a feed-forward chain, sized by `scale` so
/// each registered model has a distinct footprint and spike stream.
fn model_net(scale: u32) -> NetworkGraph {
    let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
    let mut net = NetworkGraph::new();
    let input = net.population("input", 192 + 64 * scale, kind, 0.0);
    let hidden = net.population("hidden", 384 + 64 * scale, kind, 0.0);
    let out = net.population("out", 128, kind, 0.0);
    net.project(
        input,
        hidden,
        Connector::FixedProbability(0.05),
        Synapses::uniform((500, 900), (1, 4)),
        11 + u64::from(scale),
    );
    net.project(
        hidden,
        out,
        Connector::FixedProbability(0.08),
        Synapses::constant(650, 2),
        12 + u64::from(scale),
    );
    net
}

/// A tenant's label, for the printout.
fn tname(server: &Server, t: TenantId) -> &str {
    server.tenant_name(t).unwrap_or("?")
}

fn main() {
    // A bounded queue and batches of up to 4 compatible jobs. The
    // resident budget is left unbounded here; the evict -> rehydrate
    // path is demonstrated explicitly below (the benchmark's
    // `serve_churn` measures it under a real byte budget, at load).
    let mut server = Server::new(ServeConfig {
        queue_cap: 32,
        resident_budget_bytes: u64::MAX,
        max_batch: 4,
        threads: 1,
    });

    // Two tenants: "lab" runs unmetered, "student" is capped at 2
    // in-flight jobs and 100 biological milliseconds total.
    let lab = server.register_tenant("lab", TenantQuota::unlimited());
    let student = server.register_tenant("student", TenantQuota::new(2, 100));

    // Three models of staggered size; nothing is built until each
    // model's first job dispatches.
    let cfg = SimConfig::new(4, 4);
    let models: Vec<_> = (0..3u32)
        .map(|m| server.register_model(model_net(m), cfg.clone()))
        .collect();
    let input = PopulationId::from_index(0);
    let job = |tenant, model: usize, run_ms, i: u32| JobSpec {
        tenant,
        model: models[model],
        run_ms,
        stimulus: vec![Stimulus {
            pop: input,
            rate_hz: 40.0 + 20.0 * f64::from(i % 4),
            seed: u64::from(i) + 1,
        }],
    };

    // The burst: 24 submissions round-robining the models, the student
    // tenant asking for every fourth job. Quota rejections are part of
    // normal operation — typed, counted, and deterministic in arrival
    // order.
    println!("submitting 24 jobs across 3 models / 2 tenants:");
    for i in 0..24u32 {
        let tenant = if i % 4 == 3 { student } else { lab };
        match server.submit(job(tenant, (i % 3) as usize, 30, i)) {
            Ok(id) => println!(
                "  job {i:>2} ({:>7}) -> admitted as {id}",
                tname(&server, tenant)
            ),
            Err(e) => println!(
                "  job {i:>2} ({:>7}) -> rejected: {e}",
                tname(&server, tenant)
            ),
        }
    }
    println!(
        "\nqueued {} / rejected {}; student in-flight {} of 2, {} bio-ms of budget left",
        server.queue_len(),
        server.stats().rejected,
        server.in_flight(student),
        server.remaining_tick_budget(student),
    );

    // Serve everything. Each poll() dispatches one batch: the
    // head-of-queue job picks the model, then up to 4 queued jobs on
    // that model ride the same warm session back-to-back.
    let results = server.drain().expect("models fit the machine");
    println!("\nserved {} jobs:", results.len());
    for r in &results {
        println!(
            "  {:<6} {:<8} model{}  {:>5} spikes  {}  ({:>5.1} ms wall)",
            r.job.to_string(),
            tname(&server, r.tenant),
            r.model.index(),
            r.spikes.len(),
            if r.warm_hit { "warm" } else { "cold" },
            r.service_ms,
        );
    }
    let stats = server.stats();
    println!(
        "\nbatching: {} batches served {} jobs ({} coalesced onto a leader's session)",
        stats.batches, stats.jobs_completed, stats.coalesced_jobs,
    );
    println!(
        "warm-hit ratio: {:.1}% (each model pays one cold build; every other job is warm)",
        stats.warm_hit_ratio() * 100.0,
    );
    assert!(
        stats.warm_hit_ratio() > 0.8,
        "batching must keep the stream warm"
    );

    // Evict -> rehydrate: checkpoint model 0 out of residency (as the
    // byte-budget does under memory pressure), then serve it again.
    // The rehydrated session picks up exactly where the checkpoint
    // left it — tests/serving_invariants.rs pins that the spike
    // streams are bit-exact across this round-trip.
    assert!(server.evict(models[0]), "model 0 was resident");
    let follow_up = server.submit(job(lab, 0, 30, 24)).expect("queue has room");
    let served = server.drain().expect("rehydrate succeeds");
    let pool = server.pool_stats();
    println!(
        "\nevict -> rehydrate: {} ran on a session restored from its checkpoint \
         ({} cold builds, {} evictions, {} rehydrates, peak {} KiB resident)",
        follow_up,
        pool.cold_builds,
        pool.evictions,
        pool.rehydrates,
        pool.peak_resident_bytes / 1024,
    );
    assert_eq!(served.len(), 1);
    assert!(pool.evictions > 0 && pool.rehydrates > 0);

    // A late student job over its remaining tick budget: the third
    // rejection class, reported with the numbers that justify it.
    if let Err(e) = server.submit(job(student, 0, 80, 25)) {
        println!("late student job: rejected: {e}");
    }

    // Per-tenant accounting rides the standard telemetry pipeline.
    println!("\n{}", server.telemetry().render_table());
}
