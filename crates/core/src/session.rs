//! Checkpointable run sessions: build once, run many segments, pause
//! and resume — the shared-facility operating mode of §5.2 (hosts check
//! in, load a network once, then drive it through many run segments
//! while the fabric stays resident).
//!
//! A [`RunSession`] wraps the built machine plus the run's dynamic
//! context (elapsed time, the paused event queue, stimulus generators)
//! and supports three things the one-shot `build → run → drop` pipeline
//! cannot:
//!
//! * **Incremental runs** — [`RunSession::run_for`] advances biological
//!   time segment by segment, bit-exactly: `run_for(100)` equals
//!   `run_for(50); run_for(50)` equals checkpointing in between,
//!   whatever thread count each segment uses.
//! * **Warm mutation between segments** — swap Poisson/stimulus
//!   sources, toggle STDP, queue mid-run link faults: one resident
//!   machine serves a stream of jobs without paying the
//!   place/route/minimize/load cost again (`examples/session_server.rs`,
//!   `spinn-serve`).
//! * **Deterministic pause/resume** — [`RunSession::checkpoint`]
//!   serializes the session into a compact [`Snapshot`] (core state,
//!   STDP arena deltas, in-flight events, stimulus RNG streams);
//!   [`RunSession::restore`] rebuilds the simulation from the same
//!   network + config and continues bit-exactly.
//!
//! # Example
//!
//! ```
//! use spinnaker::prelude::*;
//!
//! let mut net = NetworkGraph::new();
//! let exc = net.population(
//!     "exc", 100,
//!     NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()), 9.0);
//! let cfg = SimConfig::new(4, 4);
//! let mut session = Simulation::build(&net, cfg.clone()).unwrap().into_session();
//! session.run_for(30);
//! let snap = session.checkpoint();
//! session.run_for(30);
//!
//! // Later (possibly another process): rebuild + restore + continue.
//! let mut resumed = RunSession::restore(&net, cfg, &snap).unwrap();
//! resumed.run_for(30);
//! assert_eq!(session.elapsed_ms(), resumed.elapsed_ms());
//! assert_eq!(session.spikes(), resumed.spikes());
//! ```

use std::collections::HashMap;

use spinn_machine::machine::{NeuralMachine, PendingEvent};
use spinn_machine::snapshot::SnapshotError;
use spinn_map::graph::{NetworkGraph, PopulationId};
use spinn_map::keys::neuron_key;
use spinn_map::place::Placement;
use spinn_map::route::{RouteStats, RoutingPlan};
use spinn_neuron::stdp::StdpParams;
use spinn_noc::direction::Direction;
use spinn_noc::mesh::NodeCoord;
use spinn_obs::RunTelemetry;
use spinn_sim::wire::{Dec, Enc, WireError};
use spinn_sim::Xoshiro256;

use crate::error::SpinnError;
use crate::simulation::{Completed, PopSpike, SimConfig, Simulation};

/// Nanoseconds per millisecond tick.
const MS: u64 = 1_000_000;

/// Session snapshot magic + version (wraps a machine snapshot).
const MAGIC: &[u8] = b"SPNSESS1";

/// A serialized [`RunSession`]: the machine snapshot (core state, STDP
/// arena deltas, fabric state, pending events) plus the session's
/// stimulus generators with their RNG streams. Opaque bytes — write to
/// disk, ship across processes, restore with [`RunSession::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The serialized form.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps bytes previously obtained from [`Snapshot::as_bytes`]
    /// (validation happens at restore).
    pub fn from_bytes(bytes: Vec<u8>) -> Snapshot {
        Snapshot { bytes }
    }

    /// Snapshot size, bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the snapshot is empty (never true for checkpoints).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A Poisson spike source attached to a session: every neuron of `pop`
/// fires independently at `rate_hz`, with spikes injected at the
/// population's home chips. The RNG stream is consumed tick-major, so
/// the generated stimulus — and therefore the run — is independent of
/// how the session is cut into segments, and the stream state rides in
/// every checkpoint.
#[derive(Clone, Debug)]
struct PoissonSource {
    pop: PopulationId,
    rate_hz: f64,
    rng: Xoshiro256,
}

/// A resident, checkpointable simulation run (see the [module
/// docs](self)).
#[derive(Debug)]
pub struct RunSession {
    machine: Option<NeuralMachine>,
    pending: Vec<PendingEvent>,
    elapsed_ms: u32,
    threads: u32,
    sources: Vec<PoissonSource>,
    placement: Placement,
    route_stats: RouteStats,
    pop_names: Vec<String>,
    slice_of_core: HashMap<u32, (PopulationId, u32)>,
}

impl RunSession {
    pub(crate) fn new(
        machine: NeuralMachine,
        placement: Placement,
        route_stats: RouteStats,
        pop_names: Vec<String>,
        slice_of_core: HashMap<u32, (PopulationId, u32)>,
        threads: u32,
    ) -> RunSession {
        RunSession {
            machine: Some(machine),
            pending: Vec::new(),
            elapsed_ms: 0,
            threads: threads.max(1),
            sources: Vec::new(),
            placement,
            route_stats,
            pop_names,
            slice_of_core,
        }
    }

    fn machine_ref(&self) -> &NeuralMachine {
        self.machine.as_ref().expect("machine is resident")
    }

    fn machine_mut_ref(&mut self) -> &mut NeuralMachine {
        self.machine.as_mut().expect("machine is resident")
    }

    /// Milliseconds of biological time simulated so far.
    pub fn elapsed_ms(&self) -> u32 {
        self.elapsed_ms
    }

    /// The resident machine (spikes, meters, router stats).
    pub fn machine(&self) -> &NeuralMachine {
        self.machine_ref()
    }

    /// Host bytes this warm session keeps resident for synaptic state
    /// (delegates to `NeuralMachine::total_resident_bytes`). This is
    /// the unit the serving layer's eviction budget is accounted in;
    /// under the lazy loader it grows as rows materialize, so callers
    /// holding sessions against a byte budget should re-read it after
    /// each run segment.
    pub fn resident_bytes(&self) -> u64 {
        self.machine_ref().total_resident_bytes()
    }

    /// The events the paused run still has queued (in-flight packets,
    /// blocked-link retries, future stimuli), in canonical order.
    pub fn pending_events(&self) -> &[PendingEvent] {
        &self.pending
    }

    /// Routing-plan statistics carried over from the build.
    pub fn route_stats(&self) -> &RouteStats {
        &self.route_stats
    }

    /// Run telemetry accumulated over every segment so far (counters,
    /// phase timings, trace — see [`spinn_obs::RunTelemetry`]). Empty
    /// unless the build enabled observability
    /// ([`crate::SimConfig::with_observability`]).
    pub fn telemetry(&self) -> &RunTelemetry {
        self.machine_ref().telemetry()
    }

    /// Worker threads the next segment will run on (see
    /// [`RunSession::set_threads`]).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Changes the worker-thread count for subsequent segments. Results
    /// are bit-identical at any count — this knob trades wall-clock
    /// only, and may be flipped freely between segments.
    pub fn set_threads(&mut self, threads: u32) -> &mut Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets or clears the STDP rule for subsequent segments (`None`
    /// freezes all weights). Plasticity timing state survives the
    /// toggle, and weight changes made so far stay in the arenas.
    pub fn set_stdp(&mut self, params: Option<StdpParams>) -> &mut Self {
        self.machine_mut_ref().set_stdp(params);
        self
    }

    /// Attaches a Poisson spike source: every neuron of `pop` fires
    /// independently at `rate_hz`, seeded by `seed`. Sources persist
    /// across segments and checkpoints until
    /// [`RunSession::clear_stimulus_sources`]; the firing pattern is a
    /// pure function of `(seed, tick)` — never of segment boundaries.
    pub fn add_poisson(&mut self, pop: PopulationId, rate_hz: f64, seed: u64) -> &mut Self {
        self.sources.push(PoissonSource {
            pop,
            rate_hz: rate_hz.max(0.0),
            rng: Xoshiro256::seed_from_u64(seed),
        });
        self
    }

    /// Detaches every stimulus source (job swap in warm serving: the
    /// next job attaches its own sources).
    pub fn clear_stimulus_sources(&mut self) -> &mut Self {
        self.sources.clear();
        self
    }

    /// Queues one spike of `pop`'s neuron `neuron` at the start of tick
    /// `at_ms` (injected at the neuron's home chip, so it propagates
    /// through the same routes as a real firing).
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` does not lie after the simulated time, or if
    /// `neuron` is out of range for the population.
    pub fn stimulate(&mut self, at_ms: u32, pop: PopulationId, neuron: u32) -> &mut Self {
        assert!(
            at_ms > self.elapsed_ms,
            "stimulus at {at_ms} ms lies in the session's past ({} ms elapsed)",
            self.elapsed_ms
        );
        let slice = self.placement.locate(pop, neuron);
        let key = neuron_key(slice.global_core, neuron - slice.lo);
        let chip = slice.chip;
        self.machine_mut_ref()
            .queue_stimulus(at_ms as u64 * MS, chip, key);
        self
    }

    /// Queues a mid-run link failure at the start of tick `at_ms`: the
    /// cable between `chip` and its neighbour in direction `dir` fails
    /// in both directions while traffic is in flight.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` does not lie after the simulated time.
    pub fn queue_fail_link(&mut self, at_ms: u32, chip: NodeCoord, dir: Direction) -> &mut Self {
        assert!(
            at_ms > self.elapsed_ms,
            "fault at {at_ms} ms lies in the session's past ({} ms elapsed)",
            self.elapsed_ms
        );
        self.machine_mut_ref()
            .queue_fail_link(at_ms as u64 * MS, chip, dir);
        self
    }

    /// Queues a mid-run link repair at the start of tick `at_ms`: the
    /// inverse of [`RunSession::queue_fail_link`] — the cable between
    /// `chip` and its neighbour in direction `dir` comes back up in
    /// both directions. A failure and a repair of the same cable queued
    /// for the same tick resolve deterministically: the link ends the
    /// tick repaired.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` does not lie after the simulated time.
    pub fn queue_repair_link(&mut self, at_ms: u32, chip: NodeCoord, dir: Direction) -> &mut Self {
        assert!(
            at_ms > self.elapsed_ms,
            "repair at {at_ms} ms lies in the session's past ({} ms elapsed)",
            self.elapsed_ms
        );
        self.machine_mut_ref()
            .queue_repair_link(at_ms as u64 * MS, chip, dir);
        self
    }

    /// The links currently failed on the resident fabric, as
    /// `(dense chip id, outgoing direction)` pairs — both ends of every
    /// dead cable.
    pub fn failed_links(&self) -> Vec<(u32, Direction)> {
        self.machine_ref().fabric().failed_links()
    }

    /// Live route repair: re-routes the placed network around every
    /// currently failed link and hot-installs the minimized plan into
    /// the resident machine, without tearing the session down. Call it
    /// between segments once faults have landed (after the `run_for`
    /// that crossed the failure time); trees the failures never touch
    /// keep their original routes, so the repair is regional.
    ///
    /// `net` must be the same network the session was built from.
    /// Returns the number of CAM entries installed. The swapped tables
    /// ride in subsequent [`RunSession::checkpoint`]s, so a restored
    /// campaign fork resumes with the repaired routes.
    ///
    /// # Errors
    ///
    /// Returns [`SpinnError::TableOverflow`] if the detoured plan no
    /// longer fits a router CAM — fatal for the session.
    pub fn reroute_around_faults(&mut self, net: &NetworkGraph) -> Result<usize, SpinnError> {
        let failed = self.failed_links();
        let (w, h) = {
            let cfg = self.machine_ref().fabric().config();
            (cfg.width, cfg.height)
        };
        let plan = RoutingPlan::build_avoiding(net, &self.placement, w, h, &failed).minimized();
        let installed = self.machine_mut_ref().install_routing_plan(&plan)?;
        self.route_stats = plan.stats().clone();
        Ok(installed)
    }

    /// Advances the session by `ms` milliseconds of biological time.
    ///
    /// Segments chain **bit-exactly**: any sequence of `run_for` calls
    /// totalling `T` milliseconds produces the same spikes, weights and
    /// meters as a single `run_for(T)` — and as the one-shot
    /// [`Simulation::run`] of the same build — whatever thread count
    /// each segment uses.
    pub fn run_for(&mut self, ms: u32) -> &mut Self {
        if ms == 0 {
            return self;
        }
        let target = self.elapsed_ms + ms;
        // Generate the segment's Poisson stimuli tick-major (every
        // source consumes its stream in tick order, so the draw
        // sequence is independent of segment boundaries).
        let placement = &self.placement;
        let machine = self.machine.as_mut().expect("machine is resident");
        for t in self.elapsed_ms + 1..=target {
            for src in &mut self.sources {
                if src.rate_hz <= 0.0 {
                    continue;
                }
                let p = (src.rate_hz / 1000.0).min(1.0);
                for slice in placement.slices_of(src.pop) {
                    for n in 0..slice.len() {
                        if src.rng.gen_bool(p) {
                            machine.queue_stimulus(
                                t as u64 * MS,
                                slice.chip,
                                neuron_key(slice.global_core, n),
                            );
                        }
                    }
                }
            }
        }
        let machine = self.machine.take().expect("machine is resident");
        let pending = std::mem::take(&mut self.pending);
        let (machine, pending) =
            machine.run_segment(pending, self.elapsed_ms, ms, self.threads as usize);
        self.machine = Some(machine);
        self.pending = pending;
        self.elapsed_ms = target;
        self
    }

    /// All spikes recorded so far, mapped back to `(population,
    /// neuron)` coordinates.
    pub fn spikes(&self) -> Vec<PopSpike> {
        crate::simulation::map_spikes(self.machine_ref().spikes(), &self.slice_of_core)
    }

    /// Spike count of one population so far.
    pub fn spike_count(&self, pop: PopulationId) -> u64 {
        self.spikes().iter().filter(|s| s.pop == pop).count() as u64
    }

    /// Drains the recorded spikes — the per-job readout of warm
    /// multi-run serving. Drained spikes are gone from later
    /// checkpoints (and from [`RunSession::spikes`]).
    pub fn take_spikes(&mut self) -> Vec<PopSpike> {
        let taken = self.machine_mut_ref().take_spikes();
        crate::simulation::map_spikes(&taken, &self.slice_of_core)
    }

    /// Ends the session, yielding the standard [`Completed`] view
    /// (report, occupancy, rates) over everything the session ran.
    pub fn finish(mut self) -> Completed {
        let machine = self.machine.take().expect("machine is resident");
        Completed::from_parts(
            machine,
            self.route_stats,
            self.pop_names,
            self.slice_of_core,
        )
    }

    /// Serializes the session into a [`Snapshot`]: the complete machine
    /// snapshot (see `spinn_machine::snapshot`) plus the pending event
    /// queue and every stimulus source's RNG stream.
    pub fn checkpoint(&self) -> Snapshot {
        let machine_bytes = self.machine_ref().snapshot(&self.pending);
        let mut enc = Enc::new();
        enc.raw(MAGIC);
        enc.seq(machine_bytes.len());
        enc.raw(&machine_bytes);
        enc.seq(self.sources.len());
        for s in &self.sources {
            enc.u32(s.pop.index() as u32);
            enc.f64(s.rate_hz);
            for w in s.rng.state() {
                enc.u64(w);
            }
        }
        Snapshot {
            bytes: enc.into_bytes(),
        }
    }

    /// Rebuilds a session from a [`Snapshot`]: builds `net` onto a
    /// fresh machine with `cfg` (which must describe the same machine
    /// and network the checkpoint was taken from; the thread count is
    /// free to differ), installs the snapshot, and
    /// returns a session that continues **bit-exactly** where
    /// [`RunSession::checkpoint`] paused.
    ///
    /// # Errors
    ///
    /// Any [`Simulation::build`] error, or [`SpinnError::Snapshot`] if
    /// the bytes are corrupt or belong to a different build.
    pub fn restore(
        net: &NetworkGraph,
        cfg: SimConfig,
        snapshot: &Snapshot,
    ) -> Result<RunSession, SpinnError> {
        let mut dec = Dec::new(&snapshot.bytes);
        let wire = |e: WireError| SpinnError::Snapshot(SnapshotError::Wire(e));
        dec.magic(MAGIC).map_err(wire)?;
        let machine_len = dec.seq(1).map_err(wire)?;
        if dec.remaining() < machine_len {
            return Err(wire(WireError::Eof));
        }
        let offset = snapshot.bytes.len() - dec.remaining();
        let machine_bytes = &snapshot.bytes[offset..offset + machine_len];
        let mut dec = Dec::new(&snapshot.bytes[offset + machine_len..]);

        let mut session = Simulation::build(net, cfg)?.into_session();
        let restored = session
            .machine_mut_ref()
            .install_snapshot(machine_bytes)
            .map_err(SpinnError::Snapshot)?;
        session.elapsed_ms = restored.elapsed_ms;
        session.pending = restored.pending;

        let n_sources = dec.seq(44).map_err(wire)?;
        for _ in 0..n_sources {
            let pop = dec.u32().map_err(wire)? as usize;
            if pop >= session.pop_names.len() {
                return Err(SpinnError::Snapshot(SnapshotError::Mismatch(format!(
                    "stimulus source names population {pop}, network has {}",
                    session.pop_names.len()
                ))));
            }
            let rate_hz = dec.f64().map_err(wire)?;
            // `add_poisson` clamps at 0, so NaN or a negative rate can
            // only come from damaged bytes.
            if rate_hz.is_nan() || rate_hz < 0.0 {
                return Err(wire(WireError::Corrupt("poisson rate")));
            }
            let mut state = [0u64; 4];
            for w in &mut state {
                *w = dec.u64().map_err(wire)?;
            }
            if state.iter().all(|&w| w == 0) {
                return Err(SpinnError::Snapshot(SnapshotError::Wire(
                    WireError::Corrupt("rng state"),
                )));
            }
            session.sources.push(PoissonSource {
                pop: PopulationId::from_index(pop),
                rate_hz,
                rng: Xoshiro256::from_state(state),
            });
        }
        if !dec.is_empty() {
            return Err(SpinnError::Snapshot(SnapshotError::Wire(
                WireError::Corrupt("trailing bytes"),
            )));
        }
        Ok(session)
    }
}
