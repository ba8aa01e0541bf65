//! One run of `serve_churn`: four models behind `spinn-serve`, four
//! closed-loop clients each keeping one job outstanding, a resident
//! budget that forces eviction and rehydrate onto the job path.
//!
//! The server is synchronous, so the clients are simulated in-process
//! on one thread: submit until every client has a job outstanding,
//! `poll` one batch, hand each client whose job completed its next
//! request from the seeded stream. Submission order is therefore a
//! pure function of the stream — which is what lets a budgeted pass be
//! compared job by job against an unlimited-budget reference.

use std::time::Instant;

use spinn_serve::{
    JobResult, JobSpec, ModelId, ServeConfig, Server, Stimulus, TenantId, TenantQuota,
};
use spinnaker::prelude::*;

use crate::run::{checkpoint_round, Outcome};
use crate::stats::{loop_stats, median, percentile, sorted, Fnv};
use crate::workloads::{
    repeat_phase, serving_model, JobStream, Request, LOOP_SHARE, SERVE_BUDGET_SHARE,
    SERVE_CLIENTS, SERVE_JOB_MS, SERVE_MODELS, SERVE_WARMUP_JOBS, WARMUP_MS,
};

/// A server with its tenants and models registered and every model
/// built cold — the set-up a serving operator pays before the first
/// real job.
struct Rig {
    server: Server,
    tenants: Vec<TenantId>,
    models: Vec<ModelId>,
    stream: JobStream,
    /// Client waiting to submit, in the order their jobs completed.
    idle_clients: Vec<usize>,
    submitted: u64,
    rejected: u64,
}

impl Rig {
    fn new(seed: u64, budget_bytes: u64, nets: &[(NetworkGraph, SimConfig)]) -> Rig {
        let mut server = Server::new(ServeConfig {
            resident_budget_bytes: budget_bytes,
            ..ServeConfig::default()
        });
        let quota = TenantQuota {
            max_in_flight: 1,
            ..TenantQuota::default()
        };
        let tenants: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| server.register_tenant(&format!("client{c}"), quota))
            .collect();
        let models: Vec<_> = nets
            .iter()
            .map(|(net, cfg)| server.register_model(net.clone(), cfg.clone()))
            .collect();
        let mut rig = Rig {
            server,
            tenants,
            models,
            stream: JobStream::new(seed),
            idle_clients: (0..SERVE_CLIENTS).collect(),
            submitted: 0,
            rejected: 0,
        };
        // Cold-build every model: one minimal job each.
        for m in 0..SERVE_MODELS {
            let spec = rig.spec(
                0,
                Request {
                    model: m,
                    rate_hz: 0.0,
                    stim_seed: 1,
                },
                1,
            );
            rig.server.submit(spec).expect("an empty server admits");
            rig.server.drain().expect("models build");
        }
        rig
    }

    fn spec(&self, client: usize, r: Request, run_ms: u32) -> JobSpec {
        JobSpec {
            tenant: self.tenants[client],
            model: self.models[r.model],
            run_ms,
            stimulus: vec![Stimulus {
                pop: PopulationId::from_index(0),
                rate_hz: r.rate_hz,
                seed: r.stim_seed,
            }],
        }
    }

    /// One closed-loop step: every idle client submits its next
    /// request, then one batch is polled. Returns the batch's results.
    fn step(&mut self, out: &mut Outcome) -> Vec<JobResult> {
        for client in std::mem::take(&mut self.idle_clients) {
            let request = self.stream.next().expect("the stream is endless");
            let spec = self.spec(client, request, SERVE_JOB_MS);
            let (verdict, _) = out.spans.time("serve.submit", |_| self.server.submit(spec));
            self.submitted += 1;
            if verdict.is_err() {
                // A refused job is a failed operation; the client
                // moves on to its next request.
                self.rejected += 1;
                self.idle_clients.push(client);
            }
        }
        let (results, _) = out.spans.time("serve.poll", |_| self.server.poll());
        let results = results.unwrap_or_else(|e| {
            out.check("poll", false, e.to_string());
            Vec::new()
        });
        for r in &results {
            self.idle_clients.push(r.tenant.index() as usize);
        }
        results
    }
}

fn job_fingerprint(r: &JobResult) -> u64 {
    let mut h = Fnv::default();
    h.eat(u64::from(r.model.index()));
    h.eat(r.spikes.len() as u64);
    for s in &r.spikes {
        h.eat(u64::from(s.time_ms) << 32 | u64::from(s.neuron));
        h.eat(s.pop.index() as u64);
    }
    h.value()
}

/// Serves the first `SERVE_WARMUP_JOBS` jobs of the stream and returns
/// their fingerprints in job-id order.
fn warm_up(rig: &mut Rig, out: &mut Outcome) -> Vec<u64> {
    let mut fps = Vec::new();
    while fps.len() < SERVE_WARMUP_JOBS {
        let results = rig.step(out);
        if results.is_empty() && rig.server.queue_len() == 0 {
            break; // every submission refused: the caller's check fails
        }
        fps.extend(
            results
                .iter()
                .map(|r| (r.job.sequence(), job_fingerprint(r))),
        );
    }
    fps.sort_unstable();
    fps.into_iter().map(|(_, fp)| fp).collect()
}

pub fn run_serve_churn(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new(traced);
    let nets: Vec<_> = (0..SERVE_MODELS).map(|m| serving_model(seed, m)).collect();

    // ---- set-up: register + cold-build, timed; the first server is
    // the unlimited-budget reference and calibrates the budget ----
    let mut setup_s = Vec::new();
    let t0 = Instant::now();
    let mut reference = Rig::new(seed, u64::MAX, &nets);
    setup_s.push(t0.elapsed().as_secs_f64());
    let mut ref_out = Outcome::new(false);
    let ref_fps = warm_up(&mut reference, &mut ref_out);
    let unlimited_peak = reference.server.pool_stats().peak_resident_bytes;
    let budget = (unlimited_peak as f64 * SERVE_BUDGET_SHARE) as u64;
    drop(reference);

    let (mut rig, dt) = out
        .spans
        .time("serve.setup", |_| Rig::new(seed, budget, &nets));
    setup_s.push(dt);

    // ---- warm-up under the budget, checked against the reference ----
    let fps = warm_up(&mut rig, &mut out);
    let same = fps.len() == ref_fps.len() && fps == ref_fps;
    let mut all = Fnv::default();
    fps.iter().for_each(|&f| all.eat(f));
    out.exact.insert("warmup_jobs_fingerprint", all.value());
    out.check(
        "budget_invisible_in_outputs",
        same && fps.len() >= SERVE_WARMUP_JOBS,
        format!(
            "{} jobs under a {budget} B budget vs {} unlimited (peak {unlimited_peak} B)",
            fps.len(),
            ref_fps.len()
        ),
    );

    // ---- the timed loop ----
    let stats0 = rig.server.stats();
    let pool0 = rig.server.pool_stats();
    let (rejected0, submitted0) = (rig.rejected, rig.submitted);
    let submit0 = out.spans.total_s("serve.submit");
    let poll0 = out.spans.total_s("serve.poll");
    let mut done: Vec<JobResult> = Vec::new();
    let (mut step_s, mut step_jobs) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut last = 0.0;
    let wall = loop {
        let mut results = rig.step(&mut out);
        for r in &mut results {
            r.spikes = Vec::new(); // read; not kept
        }
        step_jobs.push(results.len());
        done.extend(results);
        let wall = t0.elapsed().as_secs_f64();
        step_s.push(wall - last);
        last = wall;
        if wall >= seconds * LOOP_SHARE {
            break wall;
        }
    };
    let jobs = done.len() as u64;
    let rejected = rig.rejected - rejected0;
    out.attempted += rig.submitted - submitted0;
    out.failed += rejected;
    let stats = rig.server.stats();
    let pool = rig.server.pool_stats();
    let bio_ms = jobs * u64::from(SERVE_JOB_MS);

    // ---- guards: the budget must actually bite ----
    let completed = stats.jobs_completed - stats0.jobs_completed;
    let warm_ratio = (stats.warm_hits - stats0.warm_hits) as f64 / completed.max(1) as f64;
    let rehydrates = pool.rehydrates - pool0.rehydrates;
    out.check(
        "guard_churn",
        rehydrates > 0 && (0.5..=0.9).contains(&warm_ratio) && jobs > 0,
        format!("{rehydrates} rehydrates, warm-hit ratio {warm_ratio:.3}, {jobs} jobs"),
    );

    // ---- checkpoint round trip of one served model's session ----
    let (net, cfg) = &nets[0];
    let mut session = Simulation::build(net, cfg.clone())
        .expect("model fits its machine")
        .into_session();
    session.add_poisson(PopulationId::from_index(0), 80.0, seed);
    session.run_for(WARMUP_MS);
    // The repeat phase: a server set-up and a round trip, alternately.
    let mut ckpt_s = Vec::new();
    let mut twin = None;
    let mut ckpt = |out: &mut Outcome| {
        let (restored, _, dt) = checkpoint_round(&mut out.spans, &session, net, cfg);
        twin = Some(restored);
        ckpt_s.push(dt);
    };
    if traced {
        ckpt(&mut out);
    } else {
        repeat_phase(seconds * (1.0 - LOOP_SHARE), || {
            let t0 = Instant::now();
            let fresh = Rig::new(seed, budget, &nets);
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(fresh);
            ckpt(&mut out);
        });
    }
    let twin = twin.expect("the phase runs at least one round");
    match twin {
        Err(e) => out.check("restore", false, e.to_string()),
        Ok(mut twin) => {
            session.run_for(WARMUP_MS);
            twin.run_for(WARMUP_MS);
            out.check(
                "restore_continues_exactly",
                session.spikes() == twin.spikes() && session.elapsed_ms() == twin.elapsed_ms(),
                format!(
                    "{} spikes after {WARMUP_MS} bio-ms more",
                    session.spikes().len()
                ),
            );
        }
    }

    // ---- results ----
    let lat_ms: Vec<f64> = done.iter().map(JobResult::latency_ms).collect();
    out.samples.insert("jobs", jobs);
    out.samples.insert("bio_ms", bio_ms);
    out.samples.insert("setup_repeats", setup_s.len() as u64);
    out.samples.insert("ckpt_rounds", ckpt_s.len() as u64);
    let synapses: u64 = nets
        .iter()
        .map(|(net, cfg)| {
            Simulation::build(net, cfg.clone())
                .expect("model fits its machine")
                .machine()
                .total_synapses()
        })
        .sum();
    out.exact.insert("synapses", synapses);
    out.exact.insert("budget_bytes", budget);
    if jobs == 0 {
        return out; // guard_churn already failed the run
    }
    let timed = loop_stats(&step_s, &step_jobs, &lat_ms);
    if traced {
        let p = |v: Vec<f64>, q: f64| {
            let v = sorted(v);
            if v.is_empty() {
                0.0
            } else {
                percentile(&v, q)
            }
        };
        let wait: Vec<f64> = done.iter().map(|r| r.queue_wait_ms).collect();
        let warm: Vec<f64> = done
            .iter()
            .filter(|r| r.warm_hit)
            .map(|r| r.service_ms)
            .collect();
        let miss: Vec<f64> = done
            .iter()
            .filter(|r| !r.warm_hit)
            .map(|r| r.service_ms)
            .collect();
        let layer = [
            (
                "serve.submit_s",
                out.spans.total_s("serve.submit") - submit0,
            ),
            ("serve.poll_s", out.spans.total_s("serve.poll") - poll0),
            // p99 needs ten samples beyond it: about a thousand jobs.
            ("serve.job_latency_p99_ms", p(lat_ms, 99.0)),
            ("serve.queue_wait_ms_p50", p(wait.clone(), 50.0)),
            ("serve.queue_wait_ms_p99", p(wait, 99.0)),
            ("serve.service_ms_warm_p50", p(warm, 50.0)),
            ("serve.service_ms_miss_p50", p(miss, 50.0)),
            ("serve.jobs", jobs as f64),
            ("serve.batches", (stats.batches - stats0.batches) as f64),
            (
                "serve.coalesced_jobs",
                (stats.coalesced_jobs - stats0.coalesced_jobs) as f64,
            ),
            ("serve.warm_hit_ratio", warm_ratio),
            ("serve.cold_builds", pool.cold_builds as f64),
            ("serve.evictions", (pool.evictions - pool0.evictions) as f64),
            ("serve.rehydrates", rehydrates as f64),
            ("serve.rejected", rejected as f64),
            ("serve.peak_resident_bytes", pool.peak_resident_bytes as f64),
            ("core.build_s", out.spans.total_s("serve.setup")),
            ("core.checkpoint_s", out.spans.total_s("core.checkpoint")),
            ("core.restore_s", out.spans.total_s("core.restore")),
            ("obs.traced_host_s_per_bio_s", wall / (bio_ms as f64 / 1e3)),
            ("obs.traced_job_latency_p50_ms", timed.p50_ms),
            ("obs.traced_job_latency_p95_ms", timed.p95_ms),
            ("obs.traced_jobs", jobs as f64),
            ("obs.traced_bio_ms", bio_ms as f64),
        ];
        out.layer.extend(layer);
    } else {
        out.e2e.insert("setup_s", median(&setup_s));
        out.e2e.insert(
            "host_s_per_bio_s",
            1e3 / (timed.jobs_per_s * f64::from(SERVE_JOB_MS)),
        );
        out.e2e.insert("jobs_per_s", timed.jobs_per_s);
        out.e2e.insert("job_latency_p50_ms", timed.p50_ms);
        out.e2e.insert("ckpt_roundtrip_s", median(&ckpt_s));
        out.e2e.insert("peak_rss_mb", crate::host::peak_rss_mb());
        out.e2e.insert(
            "resident_bytes_per_synapse",
            pool.peak_resident_bytes as f64 / synapses as f64,
        );
    }
    out
}
