//! The traced run's per-layer readings: the hand-staged build with a
//! span per stage, the in-run phase split from the program's existing
//! `RunTelemetry`, machine-level snapshot spans, and kernel replays
//! that drive one layer's public functions with the workload's own
//! data. Everything here measures from outside, through public
//! functions only.

use std::hint::black_box;
use std::time::Instant;

use spinnaker::machine::machine::NeuralMachine;
use spinnaker::map::loader::{BuildOptions, CoreImage, LazyMode, LoadedApp};
use spinnaker::map::place::Placement;
use spinnaker::map::route::RoutingPlan;
use spinnaker::neuron::pool::NeuronPool;
use spinnaker::noc::compiled::CompiledTable;
use spinnaker::noc::table::McTable;
use spinnaker::obs::{Counter, Phase, RunTelemetry};
use spinnaker::prelude::*;
use spinnaker::sim::{CalendarQueue, EventQueue, SimTime};

use crate::run::Outcome;
use crate::spans::Spans;
use crate::stats::SplitMix;
use crate::workloads::SessionWorkload;

/// Core images sampled for the kernel replays (evenly spaced over the
/// placement), and routing tables likewise.
const KERNEL_IMAGES: usize = 16;
const KERNEL_TABLES: usize = 16;

/// What the hand-staged build leaves behind for the kernel replays and
/// the `map.*` counts.
pub struct Staged {
    route_entries: usize,
    route_entries_pre: usize,
    synapses: u64,
    lazy_rows: u64,
    images: Vec<CoreImage>,
    tables: Vec<CompiledTable>,
    keys: Vec<u32>,
}

/// Builds the machine stage by stage — place, route, minimize, load,
/// install — exactly as `Simulation::build` sequences them (its SDRAM
/// capacity validation aside), with a span per stage under
/// `core.build_staged`. The caller checks that the machine built this
/// way reproduces `Simulation::build`'s output.
pub fn staged_build(w: &SessionWorkload, spans: &mut Spans) -> (NeuralMachine, Placement, Staged) {
    let m = w.cfg.machine;
    let ((machine, placement, staged), _) = spans.time("core.build_staged", |sp| {
        let (placement, _) = sp.time("map.place", |_| {
            Placement::compute(
                &w.net,
                m.width,
                m.height,
                m.cores_per_chip,
                w.cfg.neurons_per_core,
                w.cfg.placer,
            )
            .expect("workload fits its machine")
        });
        let (raw, _) = sp.time("map.route", |_| {
            RoutingPlan::build(&w.net, &placement, m.width, m.height)
        });
        let (plan, _) = sp.time("map.minimize", |_| raw.minimized());
        let (app, _) = sp.time("map.load", |_| {
            LoadedApp::build_with(
                &w.net,
                &placement,
                BuildOptions {
                    threads: w.cfg.threads as usize,
                    lazy: LazyMode::Auto,
                },
            )
        });

        // Kernel-replay inputs, copied out before the images move onto
        // the machine — in a span of their own, so the copies are not
        // mistaken for the build's self time.
        let ((images, keys, tables), _) = sp.time("bench.kernel_inputs", |_| {
            let step = (app.images.len() / KERNEL_IMAGES).max(1);
            let images: Vec<CoreImage> = app.images.iter().step_by(step).cloned().collect();
            let keys: Vec<u32> = app.images.iter().map(|i| i.base_key).collect();
            let step = (plan.tables().len() / KERNEL_TABLES).max(1);
            let tables: Vec<CompiledTable> = plan
                .tables()
                .iter()
                .step_by(step)
                .map(|entries| {
                    let mut t = McTable::new(entries.len().max(1));
                    for e in entries {
                        t.insert(*e).expect("sized to fit");
                    }
                    CompiledTable::compile(&t)
                })
                .collect();
            (images, keys, tables)
        });
        let synapses = app.total_synapses();

        let (machine, _) = sp.time("machine.install", |_| {
            let mut machine = NeuralMachine::new(m);
            if let Some(p) = w.cfg.stdp {
                machine.enable_stdp(p);
            }
            machine
                .install_routing_plan(&plan)
                .expect("tables fit the router CAM");
            for img in app.images {
                machine
                    .load_core(img.chip, img.core, img.neurons, img.bias_na, img.base_key)
                    .expect("core fits its data memory");
                machine.install_matrix(img.chip, img.core, img.matrix);
            }
            machine
        });
        let staged = Staged {
            route_entries: plan.stats().total_entries,
            route_entries_pre: plan.stats().pre_minimize_entries,
            synapses,
            lazy_rows: machine.total_lazy_rows(),
            images,
            tables,
            keys,
        };
        (machine, placement, staged)
    });
    (machine, placement, staged)
}

/// Cumulative telemetry totals, for deltas over the timed loop.
#[derive(Clone, Copy)]
pub struct TeleTotals {
    counters: [u64; Counter::COUNT],
    phase_ns: [u64; Phase::COUNT],
    phase_n: [u64; Phase::COUNT],
}

impl TeleTotals {
    pub fn of(t: &RunTelemetry) -> TeleTotals {
        let mut out = TeleTotals {
            counters: [0; Counter::COUNT],
            phase_ns: [0; Phase::COUNT],
            phase_n: [0; Phase::COUNT],
        };
        for c in Counter::ALL {
            out.counters[c as usize] = t.total(c);
        }
        for p in Phase::ALL {
            let s = t.phase_total(p);
            out.phase_ns[p as usize] = s.sum_ns;
            out.phase_n[p as usize] = s.count;
        }
        out
    }
}

/// Window and exchange counts summed over the timed loop's segments
/// (the machine keeps only the last segment's).
#[derive(Clone, Copy, Default)]
pub struct ParTotals {
    windows: u64,
    exchanged: u64,
}

impl ParTotals {
    pub fn add(&mut self, m: &NeuralMachine) {
        if let Some(p) = m.par_stats() {
            self.windows += p.windows;
            self.exchanged += p.exchanged;
        }
    }
}

/// `NeuralMachine::snapshot` and `install_snapshot` timed on their own
/// (the session-level round trip also pays a full rebuild).
pub fn machine_snapshot_spans(w: &SessionWorkload, session: &RunSession, out: &mut Outcome) {
    let (bytes, _) = out.spans.time("machine.snapshot", |_| {
        session.machine().snapshot(session.pending_events())
    });
    out.layer
        .insert("machine.snapshot_bytes", bytes.len() as f64);
    let mut fresh = Simulation::build(&w.net, w.cfg.clone()).expect("workload fits its machine");
    let (r, _) = out.spans.time("machine.install_snapshot", |_| {
        fresh.machine_mut().install_snapshot(&bytes)
    });
    let info = match &r {
        Ok(run) => format!(
            "{} bio-ms, {} pending events",
            run.elapsed_ms,
            run.pending.len()
        ),
        Err(e) => e.to_string(),
    };
    let ok = r.is_ok_and(|run| run.elapsed_ms == session.elapsed_ms());
    out.check("machine_snapshot_installs", ok, info);
}

/// Everything `fill_run_layers` reads.
pub struct RunLayers<'a> {
    pub session: &'a RunSession,
    pub staged: Staged,
    pub before: TeleTotals,
    pub after: TeleTotals,
    pub par: ParTotals,
    pub run_s: f64,
    pub take_s: f64,
    pub wall: f64,
    pub lazy_rows_built: u64,
    pub resident_bytes: u64,
    pub synapses: u64,
    pub snapshot_bytes: usize,
    pub drop_share: f64,
    pub violations: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fills the per-layer metrics of a traced session run. Phase seconds
/// and counts are deltas over the timed loop only.
pub fn fill_run_layers(out: &mut Outcome, r: RunLayers<'_>) {
    let machine = r.session.machine();
    let tele = r.session.telemetry();
    let count = |c: Counter| (r.after.counters[c as usize] - r.before.counters[c as usize]) as f64;
    let phase_s =
        |p: Phase| (r.after.phase_ns[p as usize] - r.before.phase_ns[p as usize]) as f64 / 1e9;
    let phase_n = |p: Phase| (r.after.phase_n[p as usize] - r.before.phase_n[p as usize]) as f64;
    // The kernel replays run first: they record spans of their own.
    let queue_peak = r.after.counters[Counter::QueuePeak as usize];
    let (queue_cal_ns, queue_heap_ns) = queue_kernel(queue_peak as usize, &mut out.spans);
    let tick_kernel_ns = tick_kernel(&r.staged.images, &mut out.spans);
    let row_kernel_ns = row_kernel(&r.staged.images, &mut out.spans);
    let lookup_kernel_ns = lookup_kernel(&r.staged, &mut out.spans);
    let spans_s = |name: &str| out.spans.total_s(name);

    let mut put = Vec::new();
    // map
    let load_s = spans_s("map.load");
    put.extend([
        ("map.place_s", spans_s("map.place")),
        ("map.route_s", spans_s("map.route")),
        ("map.minimize_s", spans_s("map.minimize")),
        ("map.load_s", load_s),
        ("map.route_entries", r.staged.route_entries as f64),
        ("map.route_entries_pre", r.staged.route_entries_pre as f64),
        (
            "map.minimize_ratio",
            ratio(
                r.staged.route_entries as f64,
                r.staged.route_entries_pre as f64,
            ),
        ),
        ("map.synapses", r.staged.synapses as f64),
        ("map.lazy_rows", r.staged.lazy_rows as f64),
        (
            "map.load_ns_per_synapse",
            ratio(load_s * 1e9, r.staged.synapses as f64),
        ),
    ]);
    // machine
    let eff = machine.effective_threads(r.session.threads() as usize) as f64;
    let phases_s: f64 = Phase::ALL.iter().map(|&p| phase_s(p)).sum();
    put.extend([
        ("machine.install_s", spans_s("machine.install")),
        ("machine.run_s", r.run_s),
        ("machine.events", count(Counter::Events)),
        (
            "machine.ns_per_event",
            ratio(r.run_s * 1e9, count(Counter::Events)),
        ),
        // Handler self time: worker-seconds of the run not inside any
        // timed phase.
        ("machine.self_s", (r.run_s * eff - phases_s).max(0.0)),
        ("machine.snapshot_s", spans_s("machine.snapshot")),
        (
            "machine.install_snapshot_s",
            spans_s("machine.install_snapshot"),
        ),
        ("machine.dma_bytes", count(Counter::DmaBytes)),
        ("machine.row_misses", machine.row_misses() as f64),
        (
            "machine.weight_writebacks",
            machine.weight_writebacks() as f64,
        ),
        (
            "machine.resident_bytes",
            machine.total_resident_bytes() as f64,
        ),
        ("machine.sim_realtime_violations", r.violations as f64),
    ]);
    // sim
    put.extend([
        ("sim.queue_pop_s", phase_s(Phase::QueuePop)),
        ("sim.queue_pops", phase_n(Phase::QueuePop)),
        ("sim.queue_peak", queue_peak as f64),
        (
            "sim.queue_pop_ns",
            ratio(phase_s(Phase::QueuePop) * 1e9, phase_n(Phase::QueuePop)),
        ),
        ("sim.queue_kernel_ns_per_op.calendar", queue_cal_ns),
        ("sim.queue_kernel_ns_per_op.heap", queue_heap_ns),
    ]);
    // neuron
    let syn = count(Counter::SynapticEvents);
    put.extend([
        ("neuron.tick_s", phase_s(Phase::NeuronTick)),
        ("neuron.pool_ticks", phase_n(Phase::NeuronTick)),
        ("neuron.neurons_ticked", count(Counter::NeuronsTicked)),
        (
            "neuron.ns_per_neuron_tick",
            ratio(
                phase_s(Phase::NeuronTick) * 1e9,
                count(Counter::NeuronsTicked),
            ),
        ),
        ("neuron.tick_kernel_ns_per_neuron", tick_kernel_ns),
        ("neuron.row_walk_s", phase_s(Phase::RowWalk)),
        ("neuron.row_walks", phase_n(Phase::RowWalk)),
        ("neuron.syn_events", syn),
        ("neuron.syn_events_per_s", ratio(syn, r.wall)),
        (
            "neuron.ns_per_syn_event",
            ratio(phase_s(Phase::RowWalk) * 1e9, syn),
        ),
        ("neuron.row_kernel_ns_per_synapse", row_kernel_ns),
        (
            "neuron.rows_materialized",
            r.lazy_rows_built.saturating_sub(machine.total_lazy_rows()) as f64,
        ),
        (
            "neuron.resident_bytes_per_synapse",
            r.resident_bytes as f64 / r.synapses as f64,
        ),
    ]);
    // noc
    let rs = machine.router_stats();
    let lat = machine.spike_latency();
    put.extend([
        ("noc.router_s", phase_s(Phase::RouterLookup)),
        ("noc.fabric_events", phase_n(Phase::RouterLookup)),
        (
            "noc.ns_per_fabric_event",
            ratio(
                phase_s(Phase::RouterLookup) * 1e9,
                phase_n(Phase::RouterLookup),
            ),
        ),
        ("noc.packets_mc", count(Counter::PacketsMc)),
        ("noc.table_hits", rs.mc_table_hits as f64),
        ("noc.default_routed", rs.mc_default_routed as f64),
        ("noc.packets_dropped", count(Counter::PacketsDropped)),
        ("noc.sim_drop_share", r.drop_share),
        ("noc.emergency_hops", count(Counter::EmergencyHops)),
        ("noc.lookup_kernel_ns", lookup_kernel_ns),
        ("noc.sim_latency_p50_ns", lat.percentile(50.0) as f64),
        ("noc.sim_latency_p99_ns", lat.percentile(99.0) as f64),
    ]);
    // par
    let barrier_s = phase_s(Phase::BarrierWait);
    put.extend([
        ("par.barrier_wait_s", barrier_s),
        ("par.barrier_wait_share", ratio(barrier_s, phases_s)),
        ("par.windows", r.par.windows as f64),
        ("par.exchanged", r.par.exchanged as f64),
        (
            "par.shard_skew",
            if r.session.threads() > 1 {
                tele.shard_skew()
            } else {
                0.0
            },
        ),
        ("par.effective_threads", eff),
    ]);
    // core
    put.extend([
        ("core.build_s", spans_s("core.build")),
        ("core.build_self_s", out.spans.self_s("core.build_staged")),
        ("core.run_for_s", r.run_s),
        ("core.take_spikes_s", r.take_s),
        ("core.checkpoint_s", spans_s("core.checkpoint")),
        ("core.restore_s", spans_s("core.restore")),
        ("core.snapshot_bytes", r.snapshot_bytes as f64),
    ]);
    // obs
    put.push(("obs.trace_overwrite_ratio", tele.trace_overwrite_ratio()));
    for (k, v) in put {
        out.layer.insert(k, if v.is_finite() { v } else { 0.0 });
    }
}

// ---------------------------------------------------------------------
// Kernel replays: one layer's public functions, driven by the
// benchmark with the workload's own data.

/// Push/pop replay on both queue kinds at the workload's measured peak
/// depth: the queue is filled to `depth` with events spread over one
/// tick, then each operation pops the earliest event and pushes one a
/// tick later (steady depth). Returns ns per pop+push, `(calendar,
/// heap)`.
fn queue_kernel(depth: usize, spans: &mut Spans) -> (f64, f64) {
    const OPS: usize = 400_000;
    const TICK_NS: u64 = 1_000_000;
    let depth = depth.clamp(1, 1 << 20);
    macro_rules! replay {
        ($queue:ty) => {{
            let mut rng = SplitMix::new(depth as u64);
            let mut q = <$queue>::new();
            for i in 0..depth {
                q.push(SimTime::new(rng.below(TICK_NS)), i as u32);
            }
            let t0 = Instant::now();
            for _ in 0..OPS {
                let (t, e) = q.pop().expect("steady depth");
                q.push(SimTime::new(t.ticks() + TICK_NS), black_box(e));
            }
            black_box(q.len());
            t0.elapsed().as_secs_f64() * 1e9 / OPS as f64
        }};
    }
    let ((cal, heap), _) = spans.time("sim.queue_kernel", |_| {
        (replay!(CalendarQueue<u32>), replay!(EventQueue<u32>))
    });
    (cal, heap)
}

/// `NeuronPool::step_tick` over the sampled core images' own neuron
/// vectors, driven by their bias currents. ns per neuron update.
fn tick_kernel(images: &[CoreImage], spans: &mut Spans) -> f64 {
    let neurons: usize = images.iter().map(|i| i.neurons.len()).sum();
    if neurons == 0 {
        return 0.0;
    }
    let ticks = (2_000_000 / neurons).clamp(10, 2_000);
    let mut pools: Vec<(NeuronPool, &[f32])> = images
        .iter()
        .map(|i| {
            (
                NeuronPool::from_neurons(i.neurons.clone()),
                i.bias_na.as_slice(),
            )
        })
        .collect();
    let (fired, s) = spans.time("neuron.tick_kernel", |_| {
        let mut fired = 0u64;
        for _ in 0..ticks {
            for (pool, bias) in &mut pools {
                pool.step_tick(|i| bias[i] + 4.0, |_| fired += 1);
            }
        }
        fired
    });
    black_box(fired);
    s * 1e9 / (ticks * neurons) as f64
}

/// `SynapticMatrix::lookup` + `ensure_row` over the sampled images'
/// matrices with their own source keys, summing the weights walked. ns
/// per synapse.
fn row_kernel(images: &[CoreImage], spans: &mut Spans) -> f64 {
    let mut matrices: Vec<_> = images.iter().map(|i| i.matrix.clone()).collect();
    let keys: Vec<Vec<u32>> = matrices
        .iter()
        .map(|m| m.iter_rows().map(|(k, _)| k).take(4096).collect())
        .collect();
    // One untimed pass materializes lazy rows; the timed passes then
    // measure the steady-state walk.
    let walk = |matrices: &mut Vec<spinnaker::neuron::synmatrix::SynapticMatrix>| {
        let (mut synapses, mut sum) = (0u64, 0i64);
        for (m, keys) in matrices.iter_mut().zip(&keys) {
            for &k in keys {
                if let Some(row) = m.lookup(k) {
                    for w in m.ensure_row(row) {
                        sum += i64::from(w.weight_raw());
                        synapses += 1;
                    }
                }
            }
        }
        black_box(sum);
        synapses
    };
    let per_pass = walk(&mut matrices);
    if per_pass == 0 {
        return 0.0;
    }
    let passes = (20_000_000 / per_pass).clamp(1, 200);
    let (_, s) = spans.time("neuron.row_kernel", |_| {
        for _ in 0..passes {
            walk(&mut matrices);
        }
    });
    s * 1e9 / (passes * per_pass) as f64
}

/// `CompiledTable::lookup` on the sampled chips' compiled tables with
/// the workload's core base keys. ns per lookup.
fn lookup_kernel(staged: &Staged, spans: &mut Spans) -> f64 {
    if staged.tables.is_empty() || staged.keys.is_empty() {
        return 0.0;
    }
    let rounds = (2_000_000 / (staged.tables.len() * staged.keys.len())).clamp(1, 1_000);
    let (hits, s) = spans.time("noc.lookup_kernel", |_| {
        let mut hits = 0u64;
        for _ in 0..rounds {
            for t in &staged.tables {
                for &k in &staged.keys {
                    hits += u64::from(t.lookup(black_box(k)).is_some());
                }
            }
        }
        hits
    });
    black_box(hits);
    s * 1e9 / (rounds * staged.tables.len() * staged.keys.len()) as f64
}
