//! The running machine: event-driven application cores (Fig. 7) over the
//! packet fabric, with DMA-fetched synaptic rows and energy metering.
//!
//! Every active application core executes the same three tasks in
//! response to interrupt events, at descending priority (§5.3, Fig. 7):
//!
//! 1. **Packet received** — identify the spiking neuron, resolve its
//!    connectivity block through the core's master population table
//!    (binary search of `(key, mask)` entries over the contiguous
//!    synaptic arena, [`spinn_neuron::synmatrix::SynapticMatrix`]),
//!    schedule a DMA fetch.
//! 2. **DMA complete** — process the synaptic row: deposit each synapse's
//!    weight in the deferred-event ring buffer at its programmed delay.
//! 3. **1 ms timer** — advance the neuronal differential equations,
//!    drain the current ring slot, emit spike packets.
//!
//! "When all tasks are completed the processor goes into a low-power
//! 'wait for interrupt' state." Time a core spends busy vs. sleeping is
//! metered for the energy accounting (E7), and a timer tick arriving
//! while the previous tick is still being processed counts as a
//! **real-time violation** (the machine's defining constraint, §3.1).
//!
//! This module holds the machine's state and loading API. The run
//! segments — one path, on as many shards as the run gets — are in
//! `segment.rs`, and how a segment cuts the chips into shards is in
//! `partition.rs`. The events are in `events.rs`; the handlers, and the
//! per-chip agendas on which handler and DMA completions resolve
//! without passing through the machine-wide event queue, are in
//! `handlers.rs`. The queue holds what another chip can observe —
//! fabric events, the timer, spike injections, link faults, and a wake
//! for each completion that can emit a packet; a run segment moves
//! carried-over completions from the pending list onto the agendas when
//! it starts and back when it ends, so checkpoints spell them as they
//! always did.

use std::collections::VecDeque;

use spinn_neuron::model::AnyNeuron;
use spinn_neuron::pool::NeuronPool;
use spinn_neuron::ring::InputRing;
use spinn_neuron::stdp::StdpParams;
use spinn_neuron::synmatrix::SynapticMatrix;
use spinn_noc::direction::Direction;
use spinn_noc::fabric::{Delivery, DroppedPacket, Fabric};
use spinn_noc::mesh::NodeCoord;
use spinn_noc::router::RouterStats;
use spinn_obs::{Counter, ObsMode, Observability, RunTelemetry};
use spinn_sim::Histogram;

use crate::config::MachineConfig;
use crate::energy::EnergyMeter;

pub use crate::events::MachineEvent;
use crate::handlers::{Agenda, QuietCharge};

/// Nanoseconds per millisecond tick.
pub(crate) const MS: u64 = 1_000_000;

/// One recorded spike.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpikeRecord {
    /// Timer tick at which the neuron fired, ms.
    pub time_ms: u32,
    /// The neuron's AER key.
    pub key: u32,
}

/// One event a paused run segment left queued — an in-flight packet
/// arrival, a blocked-link retry, a handler completion, a future
/// stimulus. [`NeuralMachine::run_segment`] returns them in canonical
/// `(time, tie rank)` order and accepts them back on the next segment,
/// whatever its thread count.
#[derive(Clone, Debug)]
pub struct PendingEvent {
    /// Absolute simulation time, ns.
    pub at_ns: u64,
    /// The queued event.
    pub event: MachineEvent,
}

#[derive(Clone, Debug)]
pub(crate) enum WorkItem {
    /// An incoming packet's AER key, awaiting the MPT lookup.
    Packet(u32),
    /// A DMA-fetched row, by row index into the core's matrix.
    Row(u32),
    Timer,
}

/// The loadable contents of one application core (returned by
/// [`NeuralMachine::evict_core`] for functional migration).
#[derive(Clone, Debug)]
pub struct CorePayload {
    /// Neuron state vector.
    pub neurons: Vec<AnyNeuron>,
    /// Constant bias current per neuron, nA.
    pub bias_na: Vec<f32>,
    /// The core's synaptic matrix (master population table + arena),
    /// indexed by source AER key.
    pub matrix: SynapticMatrix,
    /// AER key of this core's neuron 0 (neuron `i` emits `base_key + i`).
    pub base_key: u32,
}

#[derive(Debug)]
pub(crate) struct AppCore {
    /// Neuron state, structure-of-arrays (flat per-tick update).
    pub(crate) neurons: NeuronPool,
    pub(crate) bias_na: Vec<f32>,
    pub(crate) base_key: u32,
    pub(crate) ring: InputRing,
    /// The §5.2/§6 memory model: master population table over one
    /// contiguous synaptic arena. Packet handling binary-searches the
    /// table; DMA sizes and STDP write-backs come from row slices.
    pub(crate) matrix: SynapticMatrix,
    pub(crate) q_packets: VecDeque<u32>,
    /// DMA-completed rows awaiting processing, by row index.
    pub(crate) q_rows: VecDeque<u32>,
    pub(crate) timer_pending: u32,
    pub(crate) current: Option<WorkItem>,
    pub(crate) pending_spikes: Vec<u32>,
    pub(crate) spikes_emitted: u64,
    pub(crate) overruns: u64,
    pub(crate) row_misses: u64,
    /// STDP state: per-row time of the previous pre-spike (indexed like
    /// the matrix rows; empty until the core's first row fetch under
    /// plasticity sizes it), and per-neuron time of the last post-spike
    /// (kept by every tick, so plasticity can be switched on mid-run).
    /// Updates are applied synapse-centrically when a row is fetched, as
    /// on the real machine.
    pub(crate) row_last_pre_ms: Vec<f64>,
    pub(crate) last_post_ms: Vec<f64>,
    /// Rows whose weights STDP has rewritten since load (may contain
    /// duplicates; deduplicated at checkpoint). Snapshots serialize
    /// only these rows as arena deltas against the loader's matrix.
    pub(crate) dirty_rows: Vec<u32>,
    /// `Some(tick)` while the core is *settled*: its tick `tick` changed
    /// nothing and nothing was queued for it, so it has left the timer
    /// walk and its ring has turned through `tick` (see `handlers.rs`).
    /// Derived, never serialized: a loaded or restored core starts in
    /// the walk.
    pub(crate) settled_ms: Option<u32>,
    /// The first tick whose handler finds every slot of the ring empty:
    /// a row walk during tick `t` deposits at most `RING_SLOTS` ticks
    /// out, so it is `t + RING_SLOTS + 1` after the last walk.
    pub(crate) ring_quiet_ms: u32,
}

/// DTCM bytes a core with this ring buffer and neuron count occupies —
/// the admission formula [`NeuralMachine::load_core`] checks and the
/// figure [`NeuralMachine::chip_occupancy`] reports (48 B of state per
/// neuron).
fn core_dtcm_bytes(ring: &InputRing, n_neurons: usize) -> usize {
    ring.size_bytes() + n_neurons * 48
}

impl AppCore {
    /// DTCM bytes this core's resident data occupies.
    fn dtcm_bytes(&self) -> usize {
        core_dtcm_bytes(&self.ring, self.neurons.len())
    }
}

/// Per-chip memory occupancy and packet-drop counters (see
/// [`NeuralMachine::chip_occupancy`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChipOccupancy {
    /// The chip.
    pub chip: NodeCoord,
    /// Application cores loaded on the chip.
    pub loaded_cores: u32,
    /// DTCM bytes in use across the chip's loaded cores (ring buffers
    /// plus neuron state at the admission budget).
    pub dtcm_bytes: u64,
    /// DTCM capacity: application cores × 64 KB.
    pub dtcm_capacity: u64,
    /// Synaptic-arena bytes resident in the chip's shared SDRAM.
    pub sdram_bytes: u64,
    /// The chip's shared SDRAM capacity, bytes.
    pub sdram_capacity: u64,
    /// Packets this chip's router dropped.
    pub dropped_packets: u64,
}

/// Error returned when a core's data would not fit in its 64 KB DTCM.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DtcmOverflow {
    /// Bytes the configuration requires.
    pub required: usize,
    /// Bytes available.
    pub available: usize,
}

impl std::fmt::Display for DtcmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core data ({} B) exceeds DTCM ({} B)",
            self.required, self.available
        )
    }
}

impl std::error::Error for DtcmOverflow {}

/// The counters telemetry reads off the model's own tallies
/// ([`NeuralMachine::tallies`]) once per segment, instead of counting
/// each event a second time.
const TALLIED: [Counter; 5] = [
    Counter::PacketsMc,
    Counter::PacketsDropped,
    Counter::EmergencyHops,
    Counter::DmaBytes,
    Counter::Spikes,
];

/// The whole neural machine: fabric + loaded application cores.
///
/// # Example
///
/// A two-neuron ping-pong across two chips:
///
/// ```
/// use spinn_machine::machine::NeuralMachine;
/// use spinn_machine::config::MachineConfig;
/// use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
/// use spinn_noc::mesh::NodeCoord;
/// use spinn_noc::table::{McTableEntry, RouteSet};
///
/// let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
/// let n = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
/// m.load_core(NodeCoord::new(0, 0), 1, vec![n.clone().into()], vec![10.0], 0x1000).unwrap();
/// // Deliver key 0x1000 spikes to the local core (loopback demo).
/// m.router_mut(NodeCoord::new(0, 0)).table.insert(McTableEntry {
///     key: 0x1000, mask: 0xFFFF_F000,
///     route: RouteSet::EMPTY.with_core(1),
/// }).unwrap();
/// let m = m.run(100);
/// assert!(m.spikes().len() > 0);
/// ```
#[derive(Debug)]
pub struct NeuralMachine {
    pub(crate) cfg: MachineConfig,
    pub(crate) fabric: Fabric,
    /// One slot per `(chip, core)` pair. Boxed so an empty slot costs a
    /// pointer, not a full [`AppCore`] of inline `Vec` headers: a
    /// million-core mesh has ~1.1 M slots, and sharded segments
    /// allocate a slot table *per shard* — inline, idle slots alone
    /// would dwarf the loaded state.
    pub(crate) cores: Vec<Option<Box<AppCore>>>,
    pub(crate) dma_free_at: Vec<u64>,
    /// Handler and DMA completions outstanding on each chip (empty
    /// between run segments).
    pub(crate) agenda: Agenda,
    /// What completions resolved while handling the current event
    /// scheduled globally (spike injections, wakes), as `(time_ns,
    /// event)`; flushed to the event queue before the handler returns.
    pub(crate) to_queue: Vec<(u64, MachineEvent)>,
    pub(crate) stimuli: Vec<(u64, u32, u32)>, // (time_ns, chip, key)
    pub(crate) fault_plan: Vec<(u64, u32, Direction)>, // (time_ns, chip, direction)
    pub(crate) repair_plan: Vec<(u64, u32, Direction)>, // (time_ns, chip, direction)
    pub(crate) spikes: Vec<SpikeRecord>,
    pub(crate) meter: EnergyMeter,
    pub(crate) spike_latency: Histogram,
    pub(crate) duration_ms: u32,
    pub(crate) stdp: Option<StdpParams>,
    pub(crate) reissued_packets: u64,
    pub(crate) weight_writebacks: u64,
    /// Window counters summed over every segment since build or
    /// restore ([`NeuralMachine::par_stats`]).
    pub(crate) par_stats: Option<spinn_par::ParStats>,
    /// Per chip, bit `core` set for each loaded core this machine's
    /// coalesced [`MachineEvent::Timer`] services — those not settled.
    /// Walked in ascending `(chip, core)` order, exactly the order the
    /// per-slot scan used to visit loaded cores, so a tick costs the
    /// awake-core count plus one word per chip, not `chips ×
    /// cores_per_chip` slot checks. A shard holds the words of the
    /// chips it owns for the segment; the machine keeps them between
    /// segments.
    pub(crate) awake: Vec<u32>,
    /// Per chip, the loaded cores that are settled: the complement of
    /// [`NeuralMachine::awake`] among the loaded ones. Kept like it.
    pub(crate) settled: Vec<u32>,
    /// Per chip, what its settled cores' skipped timer handlers owe the
    /// meter, in closed form. Kept like [`NeuralMachine::awake`].
    pub(crate) quiet: Vec<QuietCharge>,
    /// The last tick the timer has handled: the segment's start before
    /// its first tick, the segment's last tick after it. A settled core
    /// is caught up through it when work reaches it.
    pub(crate) timer_ms: u32,
    /// The tick through which the meter holds every settled core's
    /// skipped handlers: the segment's start.
    pub(crate) charged_ms: u32,
    /// Reusable per-event drain buffers (delivered/dropped packets):
    /// the hot path runs allocation-free once they reach steady-state
    /// capacity.
    pub(crate) delivery_scratch: Vec<Delivery>,
    pub(crate) dropped_scratch: Vec<DroppedPacket>,
    /// Live telemetry handles for the current segment (shard-scoped
    /// while sharded).
    pub(crate) obs: Observability,
    /// This shard's [`NeuralMachine::tallies`] when the segment began
    /// (only read while telemetry is on).
    pub(crate) tallies_at_start: [u64; TALLIED.len()],
    /// Telemetry accumulated across completed segments
    /// ([`NeuralMachine::telemetry`]).
    pub(crate) telemetry: RunTelemetry,
}

impl NeuralMachine {
    /// An empty machine of the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let chips = cfg.chips();
        let per = cfg.cores_per_chip as usize;
        NeuralMachine {
            fabric: Fabric::new(cfg.fabric),
            cores: (0..chips * per).map(|_| None).collect(),
            dma_free_at: vec![0; chips],
            agenda: Agenda::new(chips, per),
            to_queue: Vec::new(),
            stimuli: Vec::new(),
            fault_plan: Vec::new(),
            repair_plan: Vec::new(),
            spikes: Vec::new(),
            meter: EnergyMeter::new(),
            spike_latency: Histogram::new(4000, 250), // 250 ns buckets to 1 ms
            duration_ms: 0,
            stdp: None,
            reissued_packets: 0,
            weight_writebacks: 0,
            par_stats: None,
            awake: vec![0; chips],
            settled: vec![0; chips],
            quiet: vec![QuietCharge::default(); chips],
            timer_ms: 0,
            charged_ms: 0,
            delivery_scratch: Vec::new(),
            dropped_scratch: Vec::new(),
            obs: Observability::for_shard_with_cap(cfg.obs, 0, Self::auto_trace_cap(0)),
            tallies_at_start: [0; TALLIED.len()],
            telemetry: RunTelemetry::default(),
            cfg,
        }
    }

    /// Re-creates the live telemetry handles scoped to `shard`. Called
    /// at segment start, when the loaded neuron count — which sizes the
    /// trace ring — is known.
    fn install_observability(&mut self, shard: u32, neurons: usize) {
        let cap = Self::auto_trace_cap(neurons);
        self.obs = Observability::for_shard_with_cap(self.cfg.obs, shard, cap);
    }

    /// The per-shard trace ring capacity (only used in
    /// [`spinn_obs::ObsMode::CountersAndTrace`]): ~4 records per loaded
    /// neuron, rounded to a power of two and bounded to
    /// `[DEFAULT_TRACE_CAP, 1 Mi]`. Small nets keep the historical
    /// default; a 100k-neuron run gets a 512 Ki ring instead of losing
    /// ~94% of its records to a 16 Ki one.
    fn auto_trace_cap(neurons: usize) -> usize {
        neurons
            .saturating_mul(4)
            .next_power_of_two()
            .clamp(spinn_obs::DEFAULT_TRACE_CAP, 1 << 20)
    }

    /// Readies this machine (one shard of the segment) to run from
    /// `from_ms`: the timer starts there, the telemetry handles are
    /// scoped to `shard`, and counted runs note where the tallies
    /// stand. The trace ring is sized by the loaded neurons, so only a
    /// traced segment walks the core slots.
    pub(crate) fn begin_segment(&mut self, shard: u32, from_ms: u32) {
        self.timer_ms = from_ms;
        let neurons = if self.cfg.obs == ObsMode::CountersAndTrace {
            self.cores.iter().flatten().map(|c| c.neurons.len()).sum()
        } else {
            0
        };
        self.install_observability(shard, neurons);
        if self.cfg.obs != ObsMode::Disabled {
            self.tallies_at_start = self.tallies();
        }
    }

    /// The model's own tallies behind [`TALLIED`], in its order: the
    /// routers' multicast decisions, drops of every kind and emergency
    /// hops, the meter's DMA bytes, the raster's spikes.
    fn tallies(&self) -> [u64; TALLIED.len()] {
        let s = self.fabric.total_stats();
        [
            s.mc_table_hits + s.mc_default_routed,
            s.dropped + s.aged_out + s.mc_unroutable_local,
            s.emergency_reroutes + s.emergency_second_legs,
            self.meter.sdram_bytes,
            self.spikes.len() as u64,
        ]
    }

    /// Counts what this shard's tallies grew by since
    /// [`NeuralMachine::begin_segment`]. Only a shard's owned routers
    /// route on its fabric replica, so the growth is its own work — as
    /// long as shard 0 counts before it merges the others.
    pub(crate) fn count_tallies(&mut self) {
        if self.cfg.obs == ObsMode::Disabled {
            return;
        }
        let now = self.tallies();
        for ((&c, now), start) in TALLIED.iter().zip(now).zip(self.tallies_at_start) {
            self.obs.count(c, now - start);
        }
    }

    /// Telemetry accumulated by completed run segments (empty unless
    /// [`MachineConfig::obs`] enables collection).
    pub fn telemetry(&self) -> &RunTelemetry {
        &self.telemetry
    }

    /// Window/exchange counters summed over every run segment since the
    /// machine was built or restored from a snapshot (`None` before the
    /// first). A one-shard segment counts one window.
    pub fn par_stats(&self) -> Option<&spinn_par::ParStats> {
        self.par_stats.as_ref()
    }

    /// Resets run-mode bookkeeping after a snapshot install: the
    /// restored machine counts windows from zero, whatever sharding
    /// produced the checkpoint.
    pub(crate) fn clear_par_stats(&mut self) {
        self.par_stats = None;
        // Telemetry describes *this* process's run, not the restored
        // machine state: start the restored run's accounting fresh.
        self.telemetry = RunTelemetry::default();
        self.install_observability(0, 0);
    }

    /// Enables pair-based STDP on every loaded core. Weight updates are
    /// applied when a synaptic row is fetched (synapse-centric, as on
    /// hardware) and modified rows are DMAed back to SDRAM (§5.3: "if
    /// the connectivity data is modified, a DMA must be scheduled to
    /// write the changes back into SDRAM").
    pub fn enable_stdp(&mut self, params: StdpParams) {
        self.stdp = Some(params);
    }

    /// Sets or clears the STDP rule — `None` freezes all weights. Safe
    /// to flip between run segments: plasticity state (pre/post spike
    /// timestamps) is kept, so re-enabling continues from the timing
    /// history the cores already hold.
    pub fn set_stdp(&mut self, params: Option<StdpParams>) {
        self.stdp = params;
    }

    /// The active STDP rule, if plasticity is enabled.
    pub fn stdp(&self) -> Option<StdpParams> {
        self.stdp
    }

    /// Dropped multicast packets the monitors recovered and re-issued.
    pub fn reissued_packets(&self) -> u64 {
        self.reissued_packets
    }

    /// Number of modified synaptic rows written back to SDRAM (STDP).
    pub fn weight_writebacks(&self) -> u64 {
        self.weight_writebacks
    }

    /// The current weight (8.8 fixed point) of the synapse from the
    /// neuron with AER key `src_key` to local `target` on `(chip,
    /// core)`, if present (inspection for plasticity experiments).
    pub fn weight_of(&self, chip: NodeCoord, core: u8, src_key: u32, target: u16) -> Option<i16> {
        let idx = self.core_index(chip, core);
        self.cores[idx].as_ref().and_then(|c| {
            c.matrix.lookup(src_key).and_then(|row| {
                // `row_words` regenerates lazily stored rows without
                // mutating the arena (inspection must not materialize).
                c.matrix
                    .row_words(row)
                    .iter()
                    .find(|w| w.target() == target)
                    .map(|w| w.weight_raw())
            })
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Mutable router access (table loading; core 0 is the Monitor, so
    /// application cores are 1..cores_per_chip).
    pub fn router_mut(&mut self, chip: NodeCoord) -> &mut spinn_noc::router::Router {
        self.fabric.router_mut(chip)
    }

    /// Loads a routing plan's per-chip tables into the routers through
    /// the fallible CAM path, returning the number of entries installed.
    /// Every router CAM is cleared first, so this also hot-swaps the
    /// tables of a (possibly mid-run) machine: safe between events —
    /// packets re-resolve their route at every chip — which is what
    /// live repair relies on.
    ///
    /// # Errors
    ///
    /// Returns [`spinn_noc::table::TableFull`] if any chip's table
    /// exceeds the router CAM capacity
    /// ([`spinn_noc::router::RouterConfig::table_capacity`]); on a
    /// running machine treat that as fatal (tables are left partially
    /// swapped).
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different mesh size.
    pub fn install_routing_plan(
        &mut self,
        plan: &spinn_map::route::RoutingPlan,
    ) -> Result<usize, spinn_noc::table::TableFull> {
        plan.install_into(&mut self.fabric)
    }

    /// Fails an inter-chip link (fault injection for E3/E4).
    pub fn fail_link(&mut self, chip: NodeCoord, d: spinn_noc::direction::Direction) {
        self.fabric.fail_link(chip, d);
    }

    /// Loads neurons onto an application core.
    ///
    /// Neuron `i` fires with AER key `base_key + i`. The core starts
    /// with no synapses — every incoming packet is a row miss — until
    /// [`NeuralMachine::install_matrix`] gives it its matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DtcmOverflow`] if the neuron state plus ring buffer
    /// exceeds the 64 KB data memory.
    ///
    /// # Panics
    ///
    /// Panics if `core` is 0 (the Monitor) or out of range (the
    /// machine tracks cores in a 32-bit set per chip, like the router's
    /// delivery set), if the core is already loaded, if `bias_na` length differs from `neurons`, or
    /// if `neurons` mixes models (a core runs one population slice; see
    /// [`NeuronPool::from_neurons`]).
    pub fn load_core(
        &mut self,
        chip: NodeCoord,
        core: u8,
        neurons: Vec<AnyNeuron>,
        bias_na: Vec<f32>,
        base_key: u32,
    ) -> Result<(), DtcmOverflow> {
        assert!(
            core != 0 && core < self.cfg.cores_per_chip && u32::from(core) < u32::BITS,
            "core {core} is not an application core"
        );
        assert_eq!(neurons.len(), bias_na.len(), "bias length mismatch");
        let ring = InputRing::new(neurons.len());
        let required = core_dtcm_bytes(&ring, neurons.len());
        if required > self.cfg.dtcm_bytes as usize {
            return Err(DtcmOverflow {
                required,
                available: self.cfg.dtcm_bytes as usize,
            });
        }
        let idx = self.core_index(chip, core);
        assert!(self.cores[idx].is_none(), "core already loaded");
        self.awake[idx / self.cfg.cores_per_chip as usize] |= 1 << core;
        let n = neurons.len();
        self.cores[idx] = Some(Box::new(AppCore {
            ring,
            neurons: NeuronPool::from_neurons(neurons),
            bias_na,
            base_key,
            matrix: SynapticMatrix::new(),
            q_packets: VecDeque::new(),
            q_rows: VecDeque::new(),
            timer_pending: 0,
            current: None,
            pending_spikes: Vec::new(),
            spikes_emitted: 0,
            overruns: 0,
            row_misses: 0,
            row_last_pre_ms: Vec::new(),
            last_post_ms: vec![f64::NEG_INFINITY; n],
            dirty_rows: Vec::new(),
            settled_ms: None,
            ring_quiet_ms: 0,
        }));
        Ok(())
    }

    /// Installs a whole synaptic matrix on a loaded core, replacing the
    /// one it held — the only way synapses reach a core. The loader
    /// (`Simulation::build`) and hand-built machines alike assemble the
    /// matrix off-machine with a
    /// [`SynapticMatrixBuilder`](spinn_neuron::synmatrix::SynapticMatrixBuilder)
    /// and hand it over without per-row copies. The core's row structure
    /// is fixed from here on; its STDP history starts empty, and its
    /// per-row pre-spike times are sized on the first plastic fetch.
    ///
    /// # Panics
    ///
    /// Panics if the core is not loaded.
    pub fn install_matrix(&mut self, chip: NodeCoord, core: u8, matrix: SynapticMatrix) {
        let idx = self.core_index(chip, core);
        let c = self.cores[idx].as_mut().expect("core not loaded");
        c.matrix = matrix;
        c.row_last_pre_ms = Vec::new();
        c.dirty_rows.clear();
    }

    /// Removes a core and returns its contents (monitor-driven
    /// functional migration after a fault, §5.3).
    pub fn evict_core(&mut self, chip: NodeCoord, core: u8) -> Option<CorePayload> {
        let idx = self.core_index(chip, core);
        let id = idx / self.cfg.cores_per_chip as usize;
        if self.settled[id] & (1 << core) != 0 {
            self.unsettle(id as u32, core, self.timer_ms);
        }
        self.awake[id] &= !(1 << core);
        self.cores[idx].take().map(|c| {
            let c = *c;
            CorePayload {
                neurons: c.neurons.into_neurons(),
                bias_na: c.bias_na,
                matrix: c.matrix,
                base_key: c.base_key,
            }
        })
    }

    /// Installs a previously evicted payload on another core.
    ///
    /// # Errors
    ///
    /// Returns [`DtcmOverflow`] like [`NeuralMachine::load_core`].
    pub fn install_core(
        &mut self,
        chip: NodeCoord,
        core: u8,
        payload: CorePayload,
    ) -> Result<(), DtcmOverflow> {
        self.load_core(
            chip,
            core,
            payload.neurons,
            payload.bias_na,
            payload.base_key,
        )?;
        self.install_matrix(chip, core, payload.matrix);
        Ok(())
    }

    /// Queues an external stimulus spike (must be called before
    /// [`NeuralMachine::run`]).
    pub fn queue_stimulus(&mut self, time_ns: u64, chip: NodeCoord, key: u32) {
        let id = self.fabric.torus().id_of(chip) as u32;
        self.stimuli.push((time_ns, id, key));
    }

    /// Queues a mid-run link failure: at simulated time `time_ns` the
    /// cable between `chip` and its neighbour in direction `dir` fails
    /// in both directions (fault injection while traffic is in flight,
    /// as opposed to pre-run [`NeuralMachine::fail_link`]).
    ///
    /// Must be called before [`NeuralMachine::run`] /
    /// [`NeuralMachine::run_segment`]. The failure is replayed
    /// identically by serial and sharded runs: every shard applies the
    /// same fault to its fabric replica when its clock reaches
    /// `time_ns`.
    pub fn queue_fail_link(&mut self, time_ns: u64, chip: NodeCoord, dir: Direction) {
        let id = self.fabric.torus().id_of(chip) as u32;
        self.fault_plan.push((time_ns, id, dir));
    }

    /// Queues a mid-run link repair: at simulated time `time_ns` the
    /// cable between `chip` and its neighbour in direction `dir` is
    /// restored in both directions — the queueable inverse of
    /// [`NeuralMachine::queue_fail_link`], scheduled and replayed under
    /// exactly the same rules (broadcast to every shard, deterministic
    /// ordering against same-instant traffic).
    pub fn queue_repair_link(&mut self, time_ns: u64, chip: NodeCoord, dir: Direction) {
        let id = self.fabric.torus().id_of(chip) as u32;
        self.repair_plan.push((time_ns, id, dir));
    }

    /// Discards every fault queued with
    /// [`NeuralMachine::queue_fail_link`] and every repair queued with
    /// [`NeuralMachine::queue_repair_link`] (e.g. to run a healthy
    /// control of an otherwise identical machine).
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan.clear();
        self.repair_plan.clear();
    }

    /// All recorded spikes, in canonical `(time_ms, key)` order.
    pub fn spikes(&self) -> &[SpikeRecord] {
        &self.spikes
    }

    /// Drains the recorded spikes, leaving the machine's recording
    /// buffer empty — the per-job readout of warm multi-run serving
    /// (one resident machine, many [`NeuralMachine::run_segment`]
    /// calls). Note that drained spikes are gone from later
    /// checkpoints.
    pub fn take_spikes(&mut self) -> Vec<SpikeRecord> {
        std::mem::take(&mut self.spikes)
    }

    /// Histogram of spike fabric latency (injection to core delivery),
    /// ns.
    pub fn spike_latency(&self) -> &Histogram {
        &self.spike_latency
    }

    /// Total real-time violations (timer ticks that arrived while the
    /// previous tick was still being processed).
    pub fn realtime_violations(&self) -> u64 {
        self.cores.iter().flatten().map(|c| c.overruns).sum()
    }

    /// Packets whose synaptic row was missing (mapping errors).
    pub fn row_misses(&self) -> u64 {
        self.cores.iter().flatten().map(|c| c.row_misses).sum()
    }

    /// The energy meter (populated by [`NeuralMachine::run`]).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Wall-clock duration of the completed run, ns.
    pub fn duration_ns(&self) -> u64 {
        self.duration_ms as u64 * MS
    }

    /// Aggregated router statistics.
    pub fn router_stats(&self) -> RouterStats {
        self.fabric.total_stats()
    }

    /// Per-chip memory occupancy and drop counters: loaded cores, DTCM
    /// bytes in use (against `cores × 64 KB`), synaptic-arena SDRAM
    /// bytes in use (against the chip's shared SDRAM) and packets the
    /// chip's router dropped. The run report and the benchmark
    /// pipeline's structured occupancy section both read from here.
    pub fn chip_occupancy(&self) -> Vec<ChipOccupancy> {
        let per = self.cfg.cores_per_chip as usize;
        (0..self.cfg.chips())
            .map(|chip| {
                let coord = self.fabric.torus().coord_of(chip);
                let mut occ = ChipOccupancy {
                    chip: coord,
                    loaded_cores: 0,
                    dtcm_bytes: 0,
                    dtcm_capacity: (per.saturating_sub(1) as u64) * self.cfg.dtcm_bytes as u64,
                    sdram_bytes: 0,
                    sdram_capacity: self.cfg.sdram_bytes,
                    dropped_packets: self.fabric.router(coord).stats.dropped,
                };
                for c in self.cores[chip * per..(chip + 1) * per].iter().flatten() {
                    occ.loaded_cores += 1;
                    occ.dtcm_bytes += c.dtcm_bytes() as u64;
                    occ.sdram_bytes += c.matrix.sdram_bytes();
                }
                occ
            })
            .collect()
    }

    /// Whole-machine SDRAM in use by synaptic matrices, bytes (the sum
    /// of every core's arena — must equal the loader's total).
    pub fn total_sdram_bytes(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.sdram_bytes())
            .sum()
    }

    /// Whole-machine *host-resident* synaptic bytes: arenas, row
    /// tables, key blocks and compressed lazy recipes actually held in
    /// memory. For a lazily loaded machine this is far below
    /// [`NeuralMachine::total_sdram_bytes`] (the modelled DMA
    /// footprint) until spikes touch rows.
    pub fn total_resident_bytes(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.resident_bytes())
            .sum()
    }

    /// Whole-machine count of synaptic rows still stored compressed
    /// (generator recipe only, no materialized words). Falls as DMA
    /// touches materialize rows during a run.
    pub fn total_lazy_rows(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.lazy_rows())
            .sum()
    }

    /// Whole-machine synapse count across every loaded core's matrix.
    pub fn total_synapses(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|c| c.matrix.total_synapses())
            .sum()
    }

    /// Direct fabric access (advanced inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    // ------------------------------------------------------------------

    fn core_index(&self, chip: NodeCoord, core: u8) -> usize {
        self.fabric.torus().id_of(chip) * self.cfg.cores_per_chip as usize + core as usize
    }

    pub(crate) fn finalize(&mut self) {
        // Canonical spike order: `(time_ms, key)` is unique (a neuron
        // fires at most once per tick), so serial and sharded runs
        // produce bit-identical streams whenever they record the same
        // spikes.
        self.spikes.sort_unstable_by_key(|s| (s.time_ms, s.key));
        let duration = self.duration_ns();
        let loaded: u64 = (self.awake.iter().zip(&self.settled))
            .map(|(a, s)| u64::from((a | s).count_ones()))
            .sum();
        let busy = self.meter.core_active_ns;
        self.meter.core_sleep_ns = (loaded * duration).saturating_sub(busy);
        self.meter.chip_overhead_ns = self.cfg.chips() as u64 * duration;
        let stats = self.fabric.total_stats();
        self.meter.packets_routed =
            stats.mc_table_hits + stats.mc_default_routed + stats.p2p_forwarded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
    use spinn_neuron::synapse::SynapticWord;
    use spinn_neuron::synmatrix::SynapticMatrixBuilder;
    use spinn_noc::direction::Direction;
    use spinn_noc::table::{McTableEntry, RouteSet};

    fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// One block of `n_src` rows keyed `0x1000 + i`, each reaching
    /// targets `0..n_dst` with the same weight and delay.
    fn dense_rows(n_src: u32, n_dst: u16, weight_raw: i16, delay_ms: u8) -> SynapticMatrix {
        let mut b = SynapticMatrixBuilder::new();
        let first = b.block(0x1000, !0xFFF, n_src);
        for i in 0..n_src {
            for t in 0..n_dst {
                b.push(first + i, SynapticWord::new(weight_raw, delay_ms, t));
            }
        }
        b.finish()
    }

    /// Two chips: a driven source population on (0,0) core 1 projecting
    /// to a quiet target population on (1,0) core 1.
    fn two_chip_machine(weight_raw: i16, delay_ms: u8) -> NeuralMachine {
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        let src = NodeCoord::new(0, 0);
        let dst = NodeCoord::new(1, 0);
        m.load_core(src, 1, rs_neurons(10), vec![12.0; 10], 0x1000)
            .unwrap();
        m.load_core(dst, 1, rs_neurons(10), vec![0.0; 10], 0x2000)
            .unwrap();
        // Route source keys east then into the target core.
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        m.router_mut(dst)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        // All-to-all rows: every source neuron excites every target.
        m.install_matrix(dst, 1, dense_rows(10, 10, weight_raw, delay_ms));
        m
    }

    #[test]
    fn driven_population_spikes_and_propagates() {
        let m = two_chip_machine(1200, 1).run(200);
        let src_spikes = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x1000)
            .count();
        let dst_spikes = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x2000)
            .count();
        assert!(src_spikes > 50, "driven sources must fire: {src_spikes}");
        assert!(
            dst_spikes > 10,
            "targets must be driven to fire: {dst_spikes}"
        );
        assert_eq!(m.row_misses(), 0);
        assert_eq!(m.realtime_violations(), 0);
    }

    #[test]
    fn spike_latency_well_within_one_ms() {
        // §5.3: "The communications fabric is designed to deliver mc
        // packets in significantly under 1 ms, whatever the distance."
        let m = two_chip_machine(800, 1).run(100);
        assert!(m.spike_latency().count() > 0);
        let worst = m.spike_latency().max();
        assert!(
            worst < MS / 10,
            "worst fabric latency {worst} ns not well within 1 ms"
        );
    }

    #[test]
    fn synaptic_delays_shift_response() {
        // With a 10 ms synaptic delay the target's first spike happens
        // later than with 1 ms.
        let first_dst_spike = |delay: u8| {
            let m = two_chip_machine(1500, delay).run(150);
            m.spikes()
                .iter()
                .find(|s| s.key & 0xF000 == 0x2000)
                .map(|s| s.time_ms)
                .expect("target fired")
        };
        let early = first_dst_spike(1);
        let late = first_dst_spike(10);
        assert!(
            late >= early + 5,
            "10 ms delays should shift the response: {early} vs {late}"
        );
    }

    #[test]
    fn no_input_no_spikes_and_cores_sleep() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        m.load_core(NodeCoord::new(0, 0), 1, rs_neurons(50), vec![0.0; 50], 0)
            .unwrap();
        let m = m.run(100);
        assert!(m.spikes().is_empty());
        // The core only runs its timer handler: it must sleep most of
        // the time (energy frugality, §3.3).
        let meter = m.meter();
        assert!(
            meter.core_sleep_ns > 9 * meter.core_active_ns,
            "active {} ns vs sleep {} ns",
            meter.core_active_ns,
            meter.core_sleep_ns
        );
    }

    #[test]
    fn external_stimulus_reaches_target() {
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        let dst = NodeCoord::new(2, 2);
        m.load_core(dst, 1, rs_neurons(5), vec![0.0; 5], 0x9000)
            .unwrap();
        let mut b = SynapticMatrixBuilder::new();
        let row = b.block(0x42, u32::MAX, 1);
        for t in 0..5 {
            b.push(row, SynapticWord::new(2000, 1, t));
        }
        m.install_matrix(dst, 1, b.finish());
        // Route key 0x42 from (0,0) to (2,2): inject at the destination's
        // own chip for simplicity of the table.
        m.router_mut(dst)
            .table
            .insert(McTableEntry {
                key: 0x42,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        for t in 1..50 {
            m.queue_stimulus(t * MS + 500, dst, 0x42);
        }
        let m = m.run(100);
        assert!(!m.spikes().is_empty(), "stimulated population must fire");
    }

    #[test]
    fn dtcm_overflow_rejected() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        let err = m
            .load_core(
                NodeCoord::new(0, 0),
                1,
                rs_neurons(2000),
                vec![0.0; 2000],
                0,
            )
            .unwrap_err();
        assert!(err.required > err.available);
        assert!(err.to_string().contains("DTCM"));
    }

    #[test]
    #[should_panic(expected = "not an application core")]
    fn monitor_core_rejected() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        let _ = m.load_core(NodeCoord::new(0, 0), 0, rs_neurons(1), vec![0.0], 0);
    }

    #[test]
    #[should_panic(expected = "mixed neuron models")]
    fn mixed_models_on_one_core_rejected() {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        let mut neurons = rs_neurons(2);
        neurons.push(spinn_neuron::lif::LifNeuron::new(Default::default()).into());
        let _ = m.load_core(NodeCoord::new(0, 0), 1, neurons, vec![0.0; 3], 0);
    }

    #[test]
    fn eviction_and_migration_preserve_function() {
        // Monitor-style functional migration: move a loaded core to a
        // different chip, fix the routing tables, and the target still
        // fires.
        let mut m = two_chip_machine(1200, 1);
        let dst_old = NodeCoord::new(1, 0);
        let dst_new = NodeCoord::new(0, 1);
        let payload = m.evict_core(dst_old, 1).expect("core was loaded");
        m.install_core(dst_new, 1, payload).unwrap();
        // Re-point the routes: source now sends north.
        let src = NodeCoord::new(0, 0);
        *m.router_mut(src) = spinn_noc::router::Router::new(Default::default());
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_link(Direction::North),
            })
            .unwrap();
        m.router_mut(dst_new)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        let m = m.run(200);
        let dst_spikes = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x2000)
            .count();
        assert!(dst_spikes > 10, "migrated core must keep functioning");
    }

    #[test]
    fn determinism() {
        let run = || {
            let m = two_chip_machine(1000, 2).run(100);
            m.spikes().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn segmented_run_is_bit_exact() {
        // run(100) == run_segment(0..37) + run_segment(37..100), with
        // in-flight packets and handler completions carried across the
        // cut in the pending list.
        let whole = two_chip_machine(1200, 3).run(100);
        let (m, pending) = two_chip_machine(1200, 3).run_segment(Vec::new(), 0, 37, 1);
        let (m, _) = m.run_segment(pending, 37, 63, 1);
        assert_eq!(whole.spikes(), m.spikes());
        assert_eq!(
            whole.meter().instructions,
            m.meter().instructions,
            "energy accounting must survive the cut"
        );
        assert_eq!(whole.spike_latency().count(), m.spike_latency().count());
    }

    #[test]
    fn segmented_run_is_bit_exact_across_thread_counts() {
        let whole = two_chip_machine(1200, 1).run(80);
        // Cut at 29 ms; first segment sharded, second serial.
        let (m, pending) = two_chip_machine(1200, 1).run_segment(Vec::new(), 0, 29, 4);
        let (m, _) = m.run_segment(pending, 29, 51, 2);
        assert_eq!(whole.spikes(), m.spikes());
    }

    #[test]
    fn snapshot_restores_bit_exactly_onto_a_fresh_build() {
        let whole = two_chip_machine(1200, 2).run(90);
        let (m, pending) = two_chip_machine(1200, 2).run_segment(Vec::new(), 0, 40, 1);
        let bytes = m.snapshot(&pending);
        // Restore onto a freshly built (identical) machine and finish.
        let mut fresh = two_chip_machine(1200, 2);
        let restored = fresh.install_snapshot(&bytes).expect("snapshot installs");
        assert_eq!(restored.elapsed_ms, 40);
        let (done, _) = fresh.run_segment(restored.pending, 40, 50, 1);
        assert_eq!(whole.spikes(), done.spikes());
        assert_eq!(whole.meter().sdram_bytes, done.meter().sdram_bytes);
    }

    #[test]
    fn snapshot_with_stdp_carries_weight_deltas() {
        let run_with_stdp = || {
            let mut m = two_chip_machine(1500, 1);
            m.enable_stdp(StdpParams::default());
            m
        };
        let whole = run_with_stdp().run(200);
        let (m, pending) = run_with_stdp().run_segment(Vec::new(), 0, 80, 1);
        assert!(m.weight_writebacks() > 0, "plasticity must have fired");
        let bytes = m.snapshot(&pending);
        let mut fresh = run_with_stdp();
        let restored = fresh.install_snapshot(&bytes).unwrap();
        let (done, _) = fresh.run_segment(restored.pending, 80, 120, 1);
        assert_eq!(whole.spikes(), done.spikes());
        // The final weights match too, not just the raster.
        let at = NodeCoord::new(1, 0);
        for target in 0..10u16 {
            assert_eq!(
                whole.weight_of(at, 1, 0x1000, target),
                done.weight_of(at, 1, 0x1000, target)
            );
        }
        assert_eq!(whole.weight_writebacks(), done.weight_writebacks());
    }

    #[test]
    fn snapshot_rejects_out_of_range_event_ids() {
        // A crafted/corrupt snapshot naming a chip the machine does not
        // have must fail at install time, not panic mid-run later.
        let (m, mut pending) = two_chip_machine(1000, 1).run_segment(Vec::new(), 0, 10, 1);
        pending.push(PendingEvent {
            at_ns: 999 * MS,
            event: MachineEvent::InjectSpike { chip: 9999, key: 1 },
        });
        let bytes = m.snapshot(&pending);
        let mut fresh = two_chip_machine(1000, 1);
        assert!(matches!(
            fresh.install_snapshot(&bytes),
            Err(crate::snapshot::SnapshotError::Wire(_))
        ));
    }

    #[test]
    fn snapshot_rejects_times_before_the_restored_clock() {
        // The restored run resumes at 10 ms: an event or a stimulus
        // timed before that could only be scheduled into its past, so
        // it must fail at install time, not panic in the next segment.
        let (m, pending) = two_chip_machine(1000, 1).run_segment(Vec::new(), 0, 10, 1);
        let early = PendingEvent {
            at_ns: 5 * MS,
            event: MachineEvent::InjectSpike { chip: 0, key: 1 },
        };
        let mut stimulated = two_chip_machine(1000, 1)
            .run_segment(Vec::new(), 0, 10, 1)
            .0;
        stimulated.queue_stimulus(5 * MS, NodeCoord::new(0, 0), 1);
        for bytes in [
            m.snapshot(&[pending.clone(), vec![early]].concat()),
            stimulated.snapshot(&pending),
        ] {
            assert!(matches!(
                two_chip_machine(1000, 1).install_snapshot(&bytes),
                Err(crate::snapshot::SnapshotError::Wire(_))
            ));
        }
        assert!(two_chip_machine(1000, 1)
            .install_snapshot(&m.snapshot(&pending))
            .is_ok());
    }

    #[test]
    fn snapshot_rejects_mismatched_machines() {
        let (m, pending) = two_chip_machine(1000, 1).run_segment(Vec::new(), 0, 10, 1);
        let bytes = m.snapshot(&pending);
        // Different mesh size.
        let mut other = NeuralMachine::new(MachineConfig::new(2, 2));
        assert!(matches!(
            other.install_snapshot(&bytes),
            Err(crate::snapshot::SnapshotError::Mismatch(_))
        ));
        // Same config, different cores loaded.
        let mut empty = NeuralMachine::new(MachineConfig::new(4, 4));
        assert!(matches!(
            empty.install_snapshot(&bytes),
            Err(crate::snapshot::SnapshotError::Mismatch(_))
        ));
        // Truncated bytes.
        let mut same = two_chip_machine(1000, 1);
        assert!(matches!(
            same.install_snapshot(&bytes[..bytes.len() / 2]),
            Err(crate::snapshot::SnapshotError::Wire(_))
        ));
    }

    #[test]
    fn stdp_potentiates_causal_pathway_and_writes_back() {
        // Driven source reliably precedes target firing (pre -> post):
        // with STDP on, weights should grow toward the bound and rows be
        // written back.
        let mut m = two_chip_machine(1500, 1);
        m.enable_stdp(StdpParams::default());
        let before = m
            .weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0)
            .expect("synapse exists");
        let m = m.run(400);
        let after = m
            .weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0)
            .expect("synapse exists");
        assert!(m.weight_writebacks() > 0, "modified rows must write back");
        assert!(m.meter().sdram_bytes > 0);
        assert_ne!(before, after, "plastic weights must change");
    }

    #[test]
    fn stdp_depresses_uncorrelated_input() {
        // Target silent (no post spikes after the start): every pre
        // arrival only sees stale post history -> depression dominates.
        let mut m = two_chip_machine(200, 1); // weak: target rarely fires
        m.enable_stdp(StdpParams {
            a_minus: 20.0,
            ..Default::default()
        });
        let before = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 3).unwrap();
        let m = m.run(300);
        let after = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 3).unwrap();
        assert!(
            after <= before,
            "uncorrelated input must not potentiate: {before} -> {after}"
        );
    }

    #[test]
    fn without_stdp_weights_are_immutable() {
        let m = two_chip_machine(1500, 1);
        let before = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0).unwrap();
        let m = m.run(300);
        let after = m.weight_of(NodeCoord::new(1, 0), 1, 0x1000, 0).unwrap();
        assert_eq!(before, after);
        assert_eq!(m.weight_writebacks(), 0);
    }

    /// A congested two-chip stream whose East link dies mid-run: cap-1
    /// queues and short waits make the burst drop packets, and from
    /// 50 ms the dead link forces emergency detours (second legs that
    /// cross shard boundaries once sharded). Shared by the monitor
    /// re-issue and shard-merge regression tests.
    fn congested_faulted_machine() -> NeuralMachine {
        let mut cfg = MachineConfig::new(4, 4);
        cfg.fabric.out_queue_cap = 1;
        cfg.fabric.router.wait1_ns = 100;
        cfg.fabric.router.wait2_ns = 100;
        cfg.force_shards = true;
        let mut m = NeuralMachine::new(cfg);
        let src = NodeCoord::new(0, 0);
        let dst = NodeCoord::new(1, 0);
        m.load_core(src, 1, rs_neurons(80), vec![14.0; 80], 0x1000)
            .unwrap();
        m.load_core(dst, 1, rs_neurons(10), vec![0.0; 10], 0x2000)
            .unwrap();
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        m.router_mut(dst)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        m.install_matrix(dst, 1, dense_rows(80, 10, 100, 1));
        m.queue_fail_link(50 * MS, src, Direction::East);
        m
    }

    #[test]
    fn monitor_reissues_dropped_spikes() {
        // Emergency routing stays enabled and composes with the mid-run
        // East-link failure: the congested burst drops packets, the
        // dead link forces emergency detours, and the monitor re-issues
        // what was dropped — with bit-identical spikes at every thread
        // count even though the detour legs cross shard boundaries.
        let m = congested_faulted_machine()
            .run_segment(Vec::new(), 0, 100, 1)
            .0;
        let stats = m.router_stats();
        assert!(stats.dropped > 0, "setup should produce drops (got none)");
        assert!(
            m.reissued_packets() > 0,
            "monitor must re-issue dropped spikes"
        );
        assert!(
            stats.emergency_reroutes > 0,
            "the dead East link must invoke emergency routing"
        );
        assert!(
            stats.emergency_second_legs > 0,
            "emergency detours must complete their second leg"
        );
        for threads in [4, 16] {
            let p = congested_faulted_machine()
                .run_segment(Vec::new(), 0, 100, threads)
                .0;
            assert_eq!(
                p.spikes(),
                m.spikes(),
                "{threads}-shard spikes must match serial"
            );
        }
    }

    #[test]
    fn parallel_merge_preserves_router_stats() {
        // Regression guard for the shard merge: `adopt_owned` must
        // count every chip's router exactly once, so a multi-shard
        // report's emergency/drop counters equal the serial run's.
        let serial = congested_faulted_machine()
            .run_segment(Vec::new(), 0, 100, 1)
            .0
            .router_stats();
        assert!(serial.emergency_reroutes > 0, "no reroutes to undercount");
        for threads in [2, 4, 16] {
            let sharded = congested_faulted_machine()
                .run_segment(Vec::new(), 0, 100, threads)
                .0
                .router_stats();
            assert_eq!(
                sharded, serial,
                "{threads}-shard RouterStats diverge from serial"
            );
        }
    }

    /// A 4x4 machine under steady stimulus: six packets per chip at
    /// every tick instant (where a session's Poisson sources inject),
    /// each walking a six-synapse row on four cores of its own chip and
    /// four of the chip to the North — across the two-shard cut for
    /// half the rows. No neuron fires, so all work is packet → DMA →
    /// row chains, as on the benchmark's `cortex_stim`.
    fn stimulated_mesh() -> NeuralMachine {
        let mut cfg = MachineConfig::new(4, 4);
        cfg.force_shards = true;
        let mut m = NeuralMachine::new(cfg);
        let key_of = |x: u32, y: u32| 0x1_0000 * (1 + y * 4 + x);
        for y in 0..4 {
            for x in 0..4 {
                let chip = NodeCoord::new(x, y);
                let south = key_of(x, (y + 3) % 4);
                for (key, route) in [
                    (key_of(x, y), RouteSet::EMPTY.with_link(Direction::North)),
                    (south, RouteSet::EMPTY),
                ] {
                    let route = (1..=4).fold(route, |r, core| r.with_core(core));
                    m.router_mut(chip)
                        .table
                        .insert(McTableEntry {
                            key,
                            mask: u32::MAX,
                            route,
                        })
                        .unwrap();
                }
                for core in 1..=4u8 {
                    let base_key = 0x100_0000 + key_of(x, y) + 0x100 * core as u32;
                    m.load_core(chip, core, rs_neurons(16), vec![0.0; 16], base_key)
                        .unwrap();
                    let mut b = SynapticMatrixBuilder::new();
                    for key in [key_of(x, y), south] {
                        let row = b.block(key, u32::MAX, 1);
                        for t in 0..6u16 {
                            b.push(
                                row,
                                SynapticWord::new(8, 1 + t as u8 % 3, (t + core as u16) % 16),
                            );
                        }
                    }
                    m.install_matrix(chip, core, b.finish());
                }
            }
        }
        for ms in 1..=20u64 {
            for y in 0..4 {
                for x in 0..4 {
                    for _ in 0..6 {
                        m.queue_stimulus(ms * MS, NodeCoord::new(x, y), key_of(x, y));
                    }
                }
            }
        }
        m
    }

    #[test]
    fn row_traffic_no_longer_sets_the_window_count() {
        let serial = stimulated_mesh().run(20);
        assert_eq!(serial.row_misses(), 0);
        assert!(serial.meter().sdram_bytes > 0, "rows must be fetched");
        let m = stimulated_mesh().run_segment(Vec::new(), 0, 20, 2).0;
        assert_eq!(m.spikes(), serial.spikes());
        assert_eq!(m.meter().instructions, serial.meter().instructions);
        let stats = m.par_stats().expect("sharded run");
        assert!(stats.exchanged > 0, "rows must cross the cut");
        // Recorded at the parent of the change that took handler and
        // DMA completions out of the event queue: with every one of
        // them a queue event these 20 bio-ms took 1180 windows (59 per
        // bio-ms), both shards at work in each. Deterministic, so it
        // pins the parallel effect on a one-core runner.
        const WINDOWS_WITH_QUEUED_COMPLETIONS: u64 = 1180;
        assert!(
            stats.windows * 4 <= WINDOWS_WITH_QUEUED_COMPLETIONS,
            "{} windows for 20 bio-ms",
            stats.windows
        );
        assert!(
            stats.busy * 10 >= stats.windows * 18,
            "shards took turns: {} busy shard-windows in {} windows",
            stats.busy,
            stats.windows
        );
    }

    #[test]
    fn queued_repair_restores_delivery() {
        // Fail the only route at 30 ms; with emergency routing off the
        // target goes silent, the monitor keeps re-issuing the dropped
        // spikes, and a RepairLink at 90 ms lets the backlog and the
        // live stream through again — unlike the unrepaired control,
        // and bit-exactly at every thread count.
        fn run(repair_at: Option<u32>, threads: usize) -> NeuralMachine {
            let mut cfg = MachineConfig::new(4, 4);
            cfg.fabric.router.emergency_enabled = false;
            cfg.force_shards = true;
            let mut m = NeuralMachine::new(cfg);
            let src = NodeCoord::new(0, 0);
            let dst = NodeCoord::new(1, 0);
            m.load_core(src, 1, rs_neurons(10), vec![12.0; 10], 0x1000)
                .unwrap();
            m.load_core(dst, 1, rs_neurons(10), vec![0.0; 10], 0x2000)
                .unwrap();
            m.router_mut(src)
                .table
                .insert(McTableEntry {
                    key: 0x1000,
                    mask: 0xFFFF_F000,
                    route: RouteSet::EMPTY.with_link(Direction::East),
                })
                .unwrap();
            m.router_mut(dst)
                .table
                .insert(McTableEntry {
                    key: 0x1000,
                    mask: 0xFFFF_F000,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
            m.install_matrix(dst, 1, dense_rows(10, 10, 1200, 1));
            m.queue_fail_link(30 * MS, src, Direction::East);
            if let Some(at) = repair_at {
                m.queue_repair_link(at as u64 * MS, src, Direction::East);
            }
            m.run_segment(Vec::new(), 0, 150, threads).0
        }
        let dst_spikes = |m: &NeuralMachine| {
            m.spikes()
                .iter()
                .filter(|s| s.key & 0xF000 == 0x2000)
                .count()
        };
        let control = run(None, 1);
        let repaired = run(Some(90), 1);
        assert!(
            dst_spikes(&repaired) > dst_spikes(&control),
            "repair must recover deliveries ({} vs {})",
            dst_spikes(&repaired),
            dst_spikes(&control)
        );
        assert!(
            repaired
                .spikes()
                .iter()
                .any(|s| s.key & 0xF000 == 0x2000 && s.time_ms >= 95),
            "target must fire again after the repair lands"
        );
        assert!(
            control
                .spikes()
                .iter()
                .all(|s| s.key & 0xF000 != 0x2000 || s.time_ms < 40),
            "unrepaired control must stay silent past the failure"
        );
        for threads in [4, 16] {
            let p = run(Some(90), threads);
            assert_eq!(
                p.spikes(),
                repaired.spikes(),
                "{threads}-shard repair run must match serial"
            );
        }
    }

    #[test]
    fn install_routing_plan_loads_tables_and_reports_overflow() {
        use spinn_map::graph::{Connector, NetworkGraph, NeuronKind, Synapses};
        use spinn_map::place::{Placement, Placer};
        use spinn_map::route::RoutingPlan;
        use spinn_neuron::izhikevich::IzhikevichParams;

        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let a = net.population("a", 40, kind, 0.0);
        let b = net.population("b", 40, kind, 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(10, 1), 0);
        let placement = Placement::compute(&net, 4, 4, 20, 64, Placer::Random { seed: 3 }).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 4, 4).minimized();

        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        let installed = m.install_routing_plan(&plan).unwrap();
        assert_eq!(installed, plan.total_entries());
        let stats = m.router_stats();
        assert_eq!(
            stats.table_peak_entries,
            plan.stats().max_entries_per_chip as u64
        );
        assert_eq!(stats.table_capacity, 1024);

        // A 1-entry CAM must overflow through the fallible path.
        let mut cfg = MachineConfig::new(4, 4);
        cfg.fabric.router.table_capacity = 0;
        let mut tiny = NeuralMachine::new(cfg);
        let err = tiny.install_routing_plan(&plan).unwrap_err();
        assert_eq!(err.capacity, 0);
    }

    #[test]
    fn energy_meter_populated() {
        let m = two_chip_machine(1000, 1).run(100);
        let meter = m.meter();
        assert!(meter.instructions > 0);
        assert!(meter.core_active_ns > 0);
        assert!(meter.sdram_bytes > 0);
        assert!(meter.packet_hops > 0);
        let joules = meter.total_joules(&m.config().energy);
        assert!(joules > 0.0);
        let watts = meter.mean_watts(&m.config().energy, m.duration_ns());
        // 16 chips at ~120 mW overhead: a couple of watts, far from a
        // PC's hundreds.
        assert!(watts < 10.0, "{watts} W");
    }
}
