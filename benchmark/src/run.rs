//! One run of one session workload: build (timed), cross-check the
//! build, warm up, serve jobs for the loop's share of `--seconds`,
//! guard the activity, spend the rest alternating set-ups with
//! checkpoint → restore round trips, and check the restored session
//! continues bit-exactly. A traced run adds the per-layer readings.

use std::collections::BTreeMap;
use std::time::Instant;

use spinnaker::machine::machine::{NeuralMachine, SpikeRecord};
use spinnaker::map::keys::neuron_key;
use spinnaker::map::place::Placement;
use spinnaker::prelude::*;

use crate::layers;
use crate::spans::Spans;
use crate::stats::{loop_stats, median, Fnv};
use crate::workloads::{
    repeat_phase, SessionWorkload, LOOP_SHARE, MAX_DROP_SHARE, WARMUP_MS,
};

/// One output check (or activity guard) of a run.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub info: String,
}

/// Everything one run produced.
pub struct Outcome {
    /// Operations attempted: jobs plus output checks.
    pub attempted: u64,
    /// Operations failed: failed or refused jobs plus failed checks.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metric values (untraced runs).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Values that must repeat exactly for a `(workload, seed)`,
    /// whatever the run length, thread count or telemetry mode; the
    /// suite compares them across runs.
    pub exact: BTreeMap<&'static str, u64>,
    /// Sample counts behind the percentiles.
    pub samples: BTreeMap<&'static str, u64>,
    pub spans: Spans,
}

impl Outcome {
    pub fn new(traced: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            exact: BTreeMap::new(),
            samples: BTreeMap::new(),
            spans: Spans::new(traced),
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, info: String) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push(Check { name, ok, info });
    }
}

/// Hash of everything observable about a machine's run so far: the
/// spike record in canonical order, the fabric's routing counters, the
/// modelled instruction/DMA/hop meters, the simulated latency
/// distribution and the fault counters.
pub fn machine_fingerprint(m: &NeuralMachine, spikes: &[SpikeRecord]) -> u64 {
    let mut h = Fnv::default();
    h.eat(spikes.len() as u64);
    for s in spikes {
        h.eat(u64::from(s.time_ms) << 32 | u64::from(s.key));
    }
    let rs = m.router_stats();
    let lat = m.spike_latency();
    for w in [
        rs.mc_table_hits,
        rs.mc_default_routed,
        rs.mc_local_deliveries,
        rs.emergency_reroutes,
        rs.dropped,
        m.meter().instructions,
        m.meter().sdram_bytes,
        m.meter().packet_hops,
        lat.count(),
        lat.percentile(99.0),
        m.weight_writebacks(),
        m.row_misses(),
        m.realtime_violations(),
    ] {
        h.eat(w);
    }
    h.value()
}

fn session_fingerprint(s: &RunSession) -> u64 {
    machine_fingerprint(s.machine(), s.machine().spikes())
}

/// Queues the cross-check stimuli on a not-yet-run machine.
pub fn inject(m: &mut NeuralMachine, placement: &Placement, stimuli: &[(u32, PopulationId, u32)]) {
    for &(t, pop, neuron) in stimuli {
        let slice = placement.locate(pop, neuron);
        m.queue_stimulus(
            u64::from(t) * 1_000_000,
            slice.chip,
            neuron_key(slice.global_core, neuron - slice.lo),
        );
    }
}

/// One checkpoint → bytes → restore round trip. Returns the restored
/// session, the snapshot's size and the seconds the round took.
pub fn checkpoint_round(
    spans: &mut Spans,
    session: &RunSession,
    net: &NetworkGraph,
    cfg: &SimConfig,
) -> (Result<RunSession, SpinnError>, usize, f64) {
    let ((restored, snapshot_bytes), dt) = spans.time("core.ckpt_round", |sp| {
        let (snap, _) = sp.time("core.checkpoint", |_| session.checkpoint());
        let snapshot_bytes = snap.len();
        let bytes = snap.as_bytes().to_vec();
        let (restored, _) = sp.time("core.restore", |_| {
            RunSession::restore(net, cfg.clone(), &Snapshot::from_bytes(bytes))
        });
        (restored, snapshot_bytes)
    });
    (restored, snapshot_bytes, dt)
}

/// Cumulative simulated-machine counters, for deltas over the timed
/// loop.
#[derive(Clone, Copy)]
struct SimCounters {
    routed: u64,
    dropped: u64,
    violations: u64,
    deliveries: u64,
}

impl SimCounters {
    fn of(m: &NeuralMachine) -> SimCounters {
        let rs = m.router_stats();
        SimCounters {
            routed: rs.mc_table_hits + rs.mc_default_routed,
            dropped: rs.dropped + rs.aged_out,
            violations: m.realtime_violations(),
            deliveries: m.spike_latency().count(),
        }
    }
}

/// `Simulation::build` of the workload, and the seconds it took.
fn timed_build(w: &SessionWorkload) -> (Simulation, f64) {
    let t0 = Instant::now();
    let sim = Simulation::build(&w.net, w.cfg.clone()).expect("workload fits its machine");
    (sim, t0.elapsed().as_secs_f64())
}

pub fn run_session_workload(w: &SessionWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new(traced);
    let stimuli = w.prefix_stimuli(seed);
    let neurons = w.net.total_neurons();

    // ---- build: timed repeats, plus a reference run of the prefix ----
    //
    // The reference is an independent build of the same inputs, run
    // serially with telemetry off. Untraced it is the first set-up
    // sample; traced it is the hand-staged pipeline, which also yields
    // the per-stage spans. The main session must reproduce its prefix
    // exactly — that covers build determinism, hand-staged ==
    // `Simulation::build`, 2 workers == serial, and telemetry on == off.
    let mut setup_s = Vec::new();
    let mut staged = None;
    let ref_fp;
    let mut sim;
    if traced {
        let (mut machine, placement, info) = layers::staged_build(w, &mut out.spans);
        inject(&mut machine, &placement, &stimuli);
        let done = machine.run(w.check_ms);
        ref_fp = machine_fingerprint(&done, done.spikes());
        staged = Some(info);
        let cfg = w.cfg.clone().with_observability(ObsMode::CountersAndTrace);
        sim = out
            .spans
            .time("core.build", |_| Simulation::build(&w.net, cfg))
            .0
            .expect("workload fits its machine");
    } else {
        // The reference runs and is dropped before the next build, so
        // at most two built machines are ever alive at once. Both
        // builds are set-up samples; the repeat phase adds the rest.
        let (mut reference, dt) = timed_build(w);
        setup_s.push(dt);
        let placement = reference.placement().clone();
        inject(reference.machine_mut(), &placement, &stimuli);
        let mut reference = reference.into_session();
        reference.set_threads(1).run_for(w.check_ms);
        ref_fp = session_fingerprint(&reference);
        drop(reference);
        let (main, dt) = timed_build(w);
        setup_s.push(dt);
        sim = main;
    }
    let placement = sim.placement().clone();
    inject(sim.machine_mut(), &placement, &stimuli);
    let lazy_rows_built = sim.machine().total_lazy_rows();
    let mut session = sim.into_session();
    out.spans
        .time("core.prefix", |_| session.run_for(w.check_ms));
    let main_fp = session_fingerprint(&session);
    out.exact.insert("prefix_fingerprint", main_fp);
    out.check(
        "build_cross_check",
        main_fp == ref_fp,
        format!(
            "main {main_fp:016x} vs reference {ref_fp:016x} over {} bio-ms",
            w.check_ms
        ),
    );

    // ---- warm-up ----
    for &(pop, hz, s) in &w.poisson {
        session.add_poisson(pop, hz, s);
    }
    out.spans
        .time("core.warmup", |_| session.run_for(WARMUP_MS));
    session.take_spikes();
    let synapses = session.machine().total_synapses().max(1);
    // Read before the timed loop, whose length depends on the host: at
    // this point the state is a function of the seed alone.
    let resident_bytes = session.resident_bytes();
    out.exact
        .insert("warm_fingerprint", session_fingerprint(&session));

    // ---- the timed loop: closed loop, one client, no think time ----
    let tele_before = traced.then(|| layers::TeleTotals::of(session.telemetry()));
    let sim_before = SimCounters::of(session.machine());
    let mut lat_ms = Vec::new();
    let mut run_s = 0.0;
    let mut take_s = 0.0;
    let mut spikes = 0u64;
    let mut par = layers::ParTotals::default();
    let t0 = Instant::now();
    let wall = loop {
        let (_, dt_run) = out.spans.time("core.run_for", |_| {
            session.run_for(w.job_ms);
        });
        let (taken, dt_take) = out
            .spans
            .time("core.take_spikes", |_| session.take_spikes());
        lat_ms.push((dt_run + dt_take) * 1e3);
        run_s += dt_run;
        take_s += dt_take;
        spikes += taken.len() as u64;
        if traced {
            par.add(session.machine());
        }
        let wall = t0.elapsed().as_secs_f64();
        if wall >= seconds * LOOP_SHARE {
            break wall;
        }
    };
    let jobs = lat_ms.len() as u64;
    let bio_ms = jobs * u64::from(w.job_ms);
    out.attempted += jobs;
    let sim_after = SimCounters::of(session.machine());

    // ---- activity guards ----
    let rate_hz = spikes as f64 / neurons as f64 / (bio_ms as f64 / 1e3);
    out.check(
        "guard_rate",
        (w.rate_hz.0..=w.rate_hz.1).contains(&rate_hz),
        format!("{rate_hz:.3} Hz mean, want {:?}", w.rate_hz),
    );
    let routed = sim_after.routed - sim_before.routed;
    let dropped = sim_after.dropped - sim_before.dropped;
    let deliveries = sim_after.deliveries - sim_before.deliveries;
    let drop_share = dropped as f64 / routed.max(1) as f64;
    out.check(
        "guard_traffic",
        deliveries > 0 && drop_share <= MAX_DROP_SHARE,
        format!("{deliveries} deliveries, {dropped} dropped of {routed} routed"),
    );
    let violations = sim_after.violations - sim_before.violations;
    out.check(
        "guard_realtime",
        violations == 0,
        format!("{violations} ticks overran 1 ms of modelled time"),
    );
    if w.cfg.stdp.is_some() {
        let wb = session.machine().weight_writebacks();
        out.check(
            "guard_writebacks",
            wb > 0,
            format!("{wb} rows written back"),
        );
    }

    // ---- the repeat phase: set-up and checkpoint → bytes → restore,
    // alternately; the last restored session is kept for the check ----
    let mut ckpt_s = Vec::new();
    let mut restored = None;
    let mut snapshot_bytes = 0;
    let mut ckpt = |spans: &mut Spans, restored: &mut Option<_>| {
        let (twin, bytes, dt) = checkpoint_round(spans, &session, &w.net, &w.cfg);
        *restored = Some(twin);
        snapshot_bytes = bytes;
        ckpt_s.push(dt);
    };
    if traced {
        ckpt(&mut out.spans, &mut restored);
    } else {
        repeat_phase(seconds * (1.0 - LOOP_SHARE), || {
            restored = None; // two machines alive at most
            setup_s.push(timed_build(w).1);
            ckpt(&mut out.spans, &mut restored);
        });
    }
    let restored = restored.expect("the phase runs at least one round");

    if traced {
        layers::machine_snapshot_spans(w, &session, &mut out);
    }

    // ---- the restored session must continue bit-exactly ----
    //
    // The restored twin always runs with telemetry off, so in a traced
    // run the same simulated work is timed with and without tracing.
    match restored {
        Err(e) => out.check("restore", false, e.to_string()),
        Ok(mut twin) => {
            let (_, main_s) = out
                .spans
                .time("core.continue", |_| session.run_for(w.check_ms));
            let (_, twin_s) = out
                .spans
                .time("core.continue_twin", |_| twin.run_for(w.check_ms));
            let (a, b) = (session_fingerprint(&session), session_fingerprint(&twin));
            out.check(
                "restore_continues_exactly",
                a == b && session.elapsed_ms() == twin.elapsed_ms(),
                format!(
                    "main {a:016x} vs restored {b:016x} after {} bio-ms more",
                    w.check_ms
                ),
            );
            if traced {
                out.layer
                    .insert("obs.trace_overhead_ratio", main_s / twin_s);
            }
        }
    }

    // ---- results ----
    out.samples.insert("jobs", jobs);
    out.samples.insert("bio_ms", bio_ms);
    out.samples.insert("setup_repeats", setup_s.len() as u64);
    out.samples.insert("ckpt_rounds", ckpt_s.len() as u64);
    out.exact.insert("synapses", synapses);
    out.exact.insert("resident_bytes_warm", resident_bytes);
    // One job per step; a step's wall time is its job's latency.
    let step_s: Vec<f64> = lat_ms.iter().map(|ms| ms / 1e3).collect();
    let stats = loop_stats(&step_s, &vec![1; lat_ms.len()], &lat_ms);
    if traced {
        out.layer.extend([
            ("obs.traced_host_s_per_bio_s", wall / (bio_ms as f64 / 1e3)),
            ("obs.traced_job_latency_p50_ms", stats.p50_ms),
            ("obs.traced_job_latency_p95_ms", stats.p95_ms),
            ("obs.traced_jobs", jobs as f64),
            ("obs.traced_bio_ms", bio_ms as f64),
        ]);
        let after = layers::TeleTotals::of(session.telemetry());
        layers::fill_run_layers(
            &mut out,
            layers::RunLayers {
                session: &session,
                staged: staged.expect("traced runs stage the build"),
                before: tele_before.expect("traced"),
                after,
                par,
                run_s,
                take_s,
                wall,
                lazy_rows_built,
                resident_bytes,
                synapses,
                snapshot_bytes,
                drop_share,
                violations,
            },
        );
    } else {
        out.e2e.insert("setup_s", median(&setup_s));
        out.e2e.insert(
            "host_s_per_bio_s",
            1e3 / (stats.jobs_per_s * f64::from(w.job_ms)),
        );
        out.e2e.insert("jobs_per_s", stats.jobs_per_s);
        out.e2e.insert("job_latency_p50_ms", stats.p50_ms);
        out.e2e.insert("ckpt_roundtrip_s", median(&ckpt_s));
        out.e2e.insert("peak_rss_mb", crate::host::peak_rss_mb());
        out.e2e.insert(
            "resident_bytes_per_synapse",
            resident_bytes as f64 / synapses as f64,
        );
    }
    out
}
