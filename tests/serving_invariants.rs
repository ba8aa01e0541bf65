//! Serving-layer conformance: the `spinn-serve` pool and admission
//! control must be invisible in the spike record and replayable in the
//! admission record.
//!
//! Pinned here:
//!
//! * **Eviction is bit-exact.** The same multi-model job stream served
//!   under an effectively-zero resident-byte budget (every batch
//!   checkpoints the other models out) and under an unlimited budget
//!   produces identical per-job spike streams — and both match a plain
//!   [`RunSession`] replaying each model's jobs back-to-back with no
//!   server in the loop.
//! * **Quota verdicts replay.** A seeded submission burst against
//!   quota-limited tenants produces the identical `Ok`/`Err` sequence
//!   (typed [`AdmitError`]s included) when replayed on a fresh server.
//! * **Interleaving independence (proptest).** Random interleavings of
//!   submit / poll / explicit-evict against a tight-budget batching
//!   server match an unlimited-budget, batch-of-one reference job for
//!   job, because per-model dispatch order is FIFO whatever the pool
//!   does between batches.

use proptest::collection::vec;
use proptest::prelude::*;

use spinn_serve::{AdmitError, JobSpec, ServeConfig, Server, Stimulus, TenantQuota};
use spinnaker::prelude::*;
use spinnaker::sim::Xoshiro256;

/// A small two-population chain; `size`/`salt` vary it per model so
/// different models have distinct (but deterministic) spike streams.
fn model_net(size: u32, salt: u64) -> NetworkGraph {
    let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
    let mut net = NetworkGraph::new();
    let a = net.population("in", size, kind, 0.0);
    let b = net.population("out", size, kind, 0.0);
    net.project(
        a,
        b,
        Connector::FixedProbability(0.08),
        Synapses::constant(520, 1),
        salt,
    );
    net
}

fn sim_cfg() -> SimConfig {
    SimConfig::new(2, 2).with_neurons_per_core(128)
}

/// A server preloaded with `models` copies of the chain at staggered
/// sizes and one unlimited tenant.
fn server_with_fleet(
    cfg: ServeConfig,
    models: u32,
) -> (Server, spinn_serve::TenantId, Vec<spinn_serve::ModelId>) {
    let mut server = Server::new(cfg);
    let tenant = server.register_tenant("t0", TenantQuota::unlimited());
    let ids = (0..models)
        .map(|m| server.register_model(model_net(96 + 16 * m, 0x5E47 ^ u64::from(m)), sim_cfg()))
        .collect();
    (server, tenant, ids)
}

/// The deterministic job stream both arms (and the plain-session
/// control) replay: `(model index, run_ms, stimulus rate, stimulus
/// seed)` as a pure function of the submission index.
fn job_stream(n: usize, models: u32) -> Vec<(u32, u32, f64, u64)> {
    (0..n)
        .map(|i| {
            let i = i as u64;
            (
                (i % u64::from(models)) as u32,
                2 + (i % 3) as u32,
                20.0 + 5.0 * (i % 4) as f64,
                0xBEEF ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        })
        .collect()
}

fn spec_for(
    tenant: spinn_serve::TenantId,
    ids: &[spinn_serve::ModelId],
    job: (u32, u32, f64, u64),
) -> JobSpec {
    let (model, run_ms, rate_hz, seed) = job;
    JobSpec {
        tenant,
        model: ids[model as usize],
        run_ms,
        stimulus: vec![Stimulus {
            pop: PopulationId::from_index(0),
            rate_hz,
            seed,
        }],
    }
}

/// Runs the shared stream through a server and returns spikes keyed by
/// admission sequence.
fn serve_stream(
    budget: u64,
    max_batch: usize,
    stream: &[(u32, u32, f64, u64)],
) -> Vec<Vec<PopSpike>> {
    let cfg = ServeConfig {
        queue_cap: stream.len().max(1),
        resident_budget_bytes: budget,
        max_batch,
        threads: 1,
    };
    let models = 1 + stream.iter().map(|j| j.0).max().unwrap_or(0);
    let (mut server, tenant, ids) = server_with_fleet(cfg, models);
    let mut out: Vec<Option<Vec<PopSpike>>> = vec![None; stream.len()];
    for &job in stream {
        server
            .submit(spec_for(tenant, &ids, job))
            .expect("unlimited tenant admits");
    }
    for r in server.drain().expect("drain") {
        out[r.job.sequence() as usize] = Some(r.spikes);
    }
    out.into_iter()
        .map(|s| s.expect("every job served"))
        .collect()
}

#[test]
fn eviction_and_rehydrate_are_bit_exact() {
    let stream = job_stream(18, 3);
    let roomy = serve_stream(u64::MAX, 4, &stream);
    // Budget 1 byte: every acquire is over budget, so each batch
    // checkpoints every other resident model out — maximal churn.
    let tight = serve_stream(1, 4, &stream);
    assert_eq!(roomy, tight, "evicted arm diverged from the resident arm");

    // Control: a plain RunSession per model, replaying that model's
    // jobs back-to-back with no server, pool or snapshot in the loop.
    for model in 0..3u32 {
        let net = model_net(96 + 16 * model, 0x5E47 ^ u64::from(model));
        let mut session = Simulation::build(&net, sim_cfg())
            .expect("build")
            .into_session();
        for (i, &(m, run_ms, rate_hz, seed)) in stream.iter().enumerate() {
            if m != model {
                continue;
            }
            session.clear_stimulus_sources();
            session.add_poisson(PopulationId::from_index(0), rate_hz, seed);
            session.run_for(run_ms);
            assert_eq!(
                session.take_spikes(),
                roomy[i],
                "server-served job {i} diverged from the plain session"
            );
        }
    }
}

#[test]
fn tight_budget_really_evicts() {
    // The bit-exactness above is vacuous if the tight arm never took
    // the eviction path; pin that it does. The roomy arm is the pool's
    // other half: after each model's one cold build every job rides a
    // warm session, batch followers included.
    let stream = job_stream(18, 3);
    for budget in [1, u64::MAX] {
        let cfg = ServeConfig {
            queue_cap: stream.len(),
            resident_budget_bytes: budget,
            max_batch: 4,
            threads: 1,
        };
        let (mut server, tenant, ids) = server_with_fleet(cfg, 3);
        for &job in &stream {
            server.submit(spec_for(tenant, &ids, job)).expect("admit");
        }
        server.drain().expect("drain");
        let (pool, stats) = (server.pool_stats(), server.stats());
        if budget == 1 {
            assert!(pool.evictions > 0, "1-byte budget must evict: {pool:?}");
            assert!(
                pool.rehydrates > 0,
                "evicted models must rehydrate: {pool:?}"
            );
        } else {
            assert_eq!(pool.cold_builds, 3, "one cold build per model: {pool:?}");
            assert_eq!(
                (pool.evictions, pool.rehydrates),
                (0, 0),
                "a roomy budget never evicts: {pool:?}"
            );
            // Six batches of up to four jobs: every job but the three
            // cold leaders is warm.
            assert_eq!(stats.warm_hits, 15, "{stats:?}");
            assert!(stats.warm_hit_ratio() > 0.8, "{stats:?}");
        }
    }
}

#[test]
fn quota_rejections_replay_identically() {
    // A seeded two-tenant burst against a tiny queue: every rejection
    // class (queue-full, in-flight, tick-budget) is on the table, and
    // the whole Ok/Err trace must replay exactly.
    let run = || {
        let cfg = ServeConfig {
            queue_cap: 3,
            resident_budget_bytes: u64::MAX,
            max_batch: 2,
            threads: 1,
        };
        let mut server = Server::new(cfg);
        let bounded = server.register_tenant("bounded", TenantQuota::new(2, 40));
        let greedy = server.register_tenant("greedy", TenantQuota::new(8, u64::MAX));
        let model = server.register_model(model_net(96, 0x5E47), sim_cfg());
        let mut rng = Xoshiro256::seed_from_u64(0x0_5EED);
        let mut trace: Vec<Result<u64, AdmitError>> = Vec::new();
        for i in 0..24u64 {
            let tenant = if rng.gen_bool(0.5) { bounded } else { greedy };
            let spec = JobSpec {
                tenant,
                model,
                run_ms: 2 + (i % 3) as u32,
                stimulus: vec![Stimulus {
                    pop: PopulationId::from_index(0),
                    rate_hz: 15.0,
                    seed: i,
                }],
            };
            trace.push(server.submit(spec).map(|id| id.sequence()));
            if i % 5 == 4 {
                server.poll().expect("poll");
            }
        }
        server.drain().expect("drain");
        (trace, server.stats().rejected)
    };
    let (first, rejected) = run();
    let (second, _) = run();
    assert_eq!(first, second, "admission trace must replay bit-for-bit");
    assert!(rejected > 0, "the burst must trip at least one quota");
    assert!(
        first.iter().any(Result::is_ok),
        "the burst must also admit work"
    );
}

/// One scripted server operation for the interleaving property.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Submit a job against `model % fleet` with a small `run_ms`.
    Submit { model: u32, run_ms: u32, seed: u64 },
    /// Dispatch one batch.
    Poll,
    /// Checkpoint `model % fleet` out of residency.
    Evict(u32),
}

fn decode(selector: u8, model: u8, extra: u16) -> Op {
    match selector {
        0..=2 => Op::Submit {
            model: u32::from(model),
            run_ms: 1 + u32::from(extra % 3),
            seed: u64::from(extra),
        },
        3..=4 => Op::Poll,
        _ => Op::Evict(u32::from(model)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random submit/poll/evict interleavings against a tight-budget
    /// batching server match an unlimited-budget, batch-of-one
    /// reference, job for job.
    #[test]
    fn interleavings_match_reference(
        raw in vec((0u8..6, 0u8..2, any::<u16>()), 0..24),
    ) {
        const MODELS: u32 = 2;
        let ops: Vec<Op> = raw.into_iter().map(|(s, m, e)| decode(s, m, e)).collect();

        let tight_cfg = ServeConfig {
            queue_cap: ops.len().max(1),
            resident_budget_bytes: 1,
            max_batch: 3,
            threads: 1,
        };
        let ref_cfg = ServeConfig {
            queue_cap: ops.len().max(1),
            resident_budget_bytes: u64::MAX,
            max_batch: 1,
            threads: 1,
        };
        let (mut tight, t0, tight_ids) = server_with_fleet(tight_cfg, MODELS);
        let (mut reference, r0, ref_ids) = server_with_fleet(ref_cfg, MODELS);

        // The reference only sees the submissions (in the same order);
        // polls and evicts are the interleaving under test.
        let mut served = Vec::new();
        for op in &ops {
            match *op {
                Op::Submit { model, run_ms, seed } => {
                    let mk = |tenant, ids: &[spinn_serve::ModelId]| JobSpec {
                        tenant,
                        model: ids[(model % MODELS) as usize],
                        run_ms,
                        stimulus: vec![Stimulus {
                            pop: PopulationId::from_index(0),
                            rate_hz: 25.0,
                            seed,
                        }],
                    };
                    let a = tight.submit(mk(t0, &tight_ids)).expect("tight admits");
                    let b = reference.submit(mk(r0, &ref_ids)).expect("reference admits");
                    prop_assert_eq!(a.sequence(), b.sequence());
                }
                Op::Poll => {
                    served.extend(tight.poll().expect("poll"));
                }
                Op::Evict(m) => {
                    tight.evict(tight_ids[(m % MODELS) as usize]);
                }
            }
        }
        served.extend(tight.drain().expect("drain tight"));
        let mut expected: Vec<_> = reference.drain().expect("drain reference");
        // Mid-script polls mean the tight arm's results arrived across
        // several drains' worth of batches — compare by admission id.
        served.sort_by_key(|r| r.job);
        expected.sort_by_key(|r| r.job);
        prop_assert_eq!(served.len(), expected.len());
        for (a, b) in served.iter().zip(&expected) {
            prop_assert_eq!(a.job, b.job);
            prop_assert_eq!(&a.spikes, &b.spikes, "job {} diverged", a.job);
        }
    }
}
