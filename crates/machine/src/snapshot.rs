//! Deterministic machine checkpoints: serialize a paused
//! [`NeuralMachine`] (plus its pending event queue) into a compact byte
//! snapshot, and install a snapshot onto a freshly built machine so the
//! run continues **bit-exactly**.
//!
//! What a snapshot captures:
//!
//! * every loaded core's dynamic state — neuron pool (SoA membrane
//!   variables, bit-cast), deferred-event input ring, handler queues,
//!   the in-progress work item, STDP timing vectors, counters;
//! * the synaptic arenas as **deltas**: only the rows STDP actually
//!   rewrote are stored (an unplastic network costs zero synaptic bytes
//!   per checkpoint) — restore applies them onto the loader's freshly
//!   built matrices;
//! * the fabric — routing tables, router statistics, link
//!   failed/busy/queue state with every in-flight packet;
//! * machine-level results and accounting — recorded spikes, the
//!   energy meter, the latency histogram, the DMA port clocks,
//!   remaining stimuli and fault schedules;
//! * the **pending event queue** in canonical `(time, rank)` order, as
//!   returned by [`NeuralMachine::run_segment`].
//!
//! What it deliberately does *not* capture: the static build products —
//! machine geometry, cost/energy models, base synaptic matrices and
//! neuron parameters all come from re-running the same build
//! (`Simulation::build`, or the same hand-loading code) before
//! [`NeuralMachine::install_snapshot`]. The snapshot stores the full
//! machine configuration only to *validate* that the host machine
//! matches; how a run is executed or observed (thread count, telemetry
//! level) is not part of that identity, so a checkpoint restores onto
//! any thread count without loss.

use spinn_neuron::pool::NeuronPool;
use spinn_neuron::ring::{InputRing, RING_SLOTS};
use spinn_neuron::stdp::StdpParams;
use spinn_noc::direction::Direction;
use spinn_noc::fabric::{decode_flight, encode_flight, NocEvent};
use spinn_sim::wire::{Dec, Enc, WireError};
use spinn_sim::Histogram;

use crate::config::MachineConfig;
use crate::handlers::turn_quiet_ring;
use crate::machine::{MachineEvent, NeuralMachine, PendingEvent, SpikeRecord, WorkItem};

/// Snapshot format magic + version. Version 2 added the repair plan
/// (queued [`MachineEvent::RepairLink`] schedules) after the fault
/// plan, plus the `RepairLink` pending-event tag.
const MAGIC: &[u8] = b"SPNNMACH";
const VERSION: u32 = 2;

/// Why a snapshot could not be installed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream is truncated, corrupt, or of an unknown version.
    Wire(WireError),
    /// The snapshot was taken on a machine this one does not match
    /// (geometry, cost model, loaded cores or matrix shapes differ).
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Wire(e) => write!(f, "unreadable snapshot: {e}"),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot does not match this machine: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

/// The dynamic run state a snapshot carries alongside the machine: what
/// [`NeuralMachine::install_snapshot`] hands back so the caller can
/// continue the run with [`NeuralMachine::run_segment`].
#[derive(Clone, Debug)]
pub struct RestoredRun {
    /// Milliseconds of biological time already simulated.
    pub elapsed_ms: u32,
    /// The paused run's queued events, in canonical order.
    pub pending: Vec<PendingEvent>,
}

/// Encodes every [`MachineConfig`] field that shapes results (geometry,
/// timing, cost and energy models; not telemetry or `force_shards`) —
/// the identity under which snapshots are compatible.
fn encode_config_identity(cfg: &MachineConfig, enc: &mut Enc) {
    enc.u32(cfg.width)
        .u32(cfg.height)
        .u8(cfg.cores_per_chip)
        .u32(cfg.cpu_mhz)
        .u32(cfg.itcm_bytes)
        .u32(cfg.dtcm_bytes)
        .u64(cfg.sdram_bytes)
        .u32(cfg.dma_bytes_per_us)
        .u64(cfg.dma_setup_ns);
    let f = &cfg.fabric;
    enc.u32(f.width)
        .u32(f.height)
        .u64(f.ns_per_bit)
        .u64(f.link_prop_ns)
        .u64(f.router_latency_ns)
        .u64(f.out_queue_cap as u64)
        .u64(f.router.table_capacity as u64)
        .u64(f.router.wait1_ns)
        .u64(f.router.wait2_ns)
        .bool(f.router.emergency_enabled)
        .u32(f.max_hops);
    let c = &cfg.costs;
    for v in [
        c.packet_isr_instr,
        c.dma_isr_instr,
        c.per_synapse_instr,
        c.timer_fixed_instr,
        c.per_neuron_instr,
        c.spike_emit_instr,
    ] {
        enc.u64(v);
    }
    let e = &cfg.energy;
    for v in [
        e.core_active_mw,
        e.core_sleep_mw,
        e.router_pj_per_packet,
        e.link_pj_per_hop,
        e.sdram_pj_per_byte,
        e.chip_overhead_mw,
    ] {
        enc.f64(v);
    }
}

fn encode_event(ev: &MachineEvent, enc: &mut Enc) {
    match ev {
        MachineEvent::Timer => {
            enc.u8(0);
        }
        MachineEvent::FailLink { chip, dir } => {
            enc.u8(1).u32(*chip).u8(dir.index() as u8);
        }
        MachineEvent::CoreDone { chip, core } => {
            enc.u8(2).u32(*chip).u8(*core);
        }
        MachineEvent::DmaDone { chip, core, key } => {
            enc.u8(3).u32(*chip).u8(*core).u32(*key);
        }
        MachineEvent::InjectSpike { chip, key } => {
            enc.u8(4).u32(*chip).u32(*key);
        }
        MachineEvent::ReissueSpike {
            chip,
            key,
            timestamp,
        } => {
            enc.u8(5).u32(*chip).u32(*key).u8(*timestamp);
        }
        MachineEvent::Noc(NocEvent::Arrive { node, port, flight }) => {
            enc.u8(6).u32(*node).u8(*port);
            encode_flight(enc, flight);
        }
        MachineEvent::Noc(NocEvent::LinkFree { node, dir }) => {
            enc.u8(7).u32(*node).u8(*dir);
        }
        MachineEvent::Noc(NocEvent::Retry {
            node,
            dir,
            phase,
            left,
            flight,
        }) => {
            enc.u8(8).u32(*node).u8(*dir).u8(*phase).u8(*left);
            encode_flight(enc, flight);
        }
        MachineEvent::RepairLink { chip, dir } => {
            enc.u8(9).u32(*chip).u8(dir.index() as u8);
        }
    }
}

/// Bounds-checks a decoded event against the host machine's geometry:
/// a corrupt (or crafted) snapshot must fail at install time with a
/// [`SnapshotError`], never panic later inside the run.
fn validate_event(ev: &MachineEvent, chips: u32, cores_per_chip: u8) -> Result<(), WireError> {
    let chip_ok = |chip: u32| {
        if chip < chips {
            Ok(())
        } else {
            Err(WireError::Corrupt("event chip id"))
        }
    };
    let core_ok = |core: u8| {
        if core != 0 && core < cores_per_chip {
            Ok(())
        } else {
            Err(WireError::Corrupt("event core id"))
        }
    };
    let dir_ok = |dir: u8| {
        if (dir as usize) < 6 {
            Ok(())
        } else {
            Err(WireError::Corrupt("event link direction"))
        }
    };
    match ev {
        MachineEvent::Timer => Ok(()),
        MachineEvent::FailLink { chip, .. }
        | MachineEvent::RepairLink { chip, .. }
        | MachineEvent::InjectSpike { chip, .. } => chip_ok(*chip),
        MachineEvent::ReissueSpike {
            chip, timestamp, ..
        } => {
            chip_ok(*chip)?;
            if *timestamp > 3 {
                return Err(WireError::Corrupt("event timestamp"));
            }
            Ok(())
        }
        MachineEvent::CoreDone { chip, core } | MachineEvent::DmaDone { chip, core, .. } => {
            chip_ok(*chip)?;
            core_ok(*core)
        }
        MachineEvent::Noc(NocEvent::Arrive { node, port, .. }) => {
            chip_ok(*node)?;
            dir_ok(*port)
        }
        MachineEvent::Noc(NocEvent::LinkFree { node, dir }) => {
            chip_ok(*node)?;
            dir_ok(*dir)
        }
        MachineEvent::Noc(NocEvent::Retry { node, dir, .. }) => {
            chip_ok(*node)?;
            dir_ok(*dir)
        }
    }
}

fn decode_direction(dec: &mut Dec<'_>) -> Result<Direction, WireError> {
    let idx = dec.u8()? as usize;
    if idx >= 6 {
        return Err(WireError::Corrupt("link direction"));
    }
    Ok(Direction::from_index(idx))
}

fn decode_event(dec: &mut Dec<'_>) -> Result<MachineEvent, WireError> {
    Ok(match dec.u8()? {
        0 => MachineEvent::Timer,
        1 => MachineEvent::FailLink {
            chip: dec.u32()?,
            dir: decode_direction(dec)?,
        },
        2 => MachineEvent::CoreDone {
            chip: dec.u32()?,
            core: dec.u8()?,
        },
        3 => MachineEvent::DmaDone {
            chip: dec.u32()?,
            core: dec.u8()?,
            key: dec.u32()?,
        },
        4 => MachineEvent::InjectSpike {
            chip: dec.u32()?,
            key: dec.u32()?,
        },
        5 => MachineEvent::ReissueSpike {
            chip: dec.u32()?,
            key: dec.u32()?,
            timestamp: dec.u8()?,
        },
        6 => MachineEvent::Noc(NocEvent::Arrive {
            node: dec.u32()?,
            port: dec.u8()?,
            flight: decode_flight(dec)?,
        }),
        7 => MachineEvent::Noc(NocEvent::LinkFree {
            node: dec.u32()?,
            dir: dec.u8()?,
        }),
        8 => MachineEvent::Noc(NocEvent::Retry {
            node: dec.u32()?,
            dir: dec.u8()?,
            phase: dec.u8()?,
            left: dec.u8()?,
            flight: decode_flight(dec)?,
        }),
        9 => MachineEvent::RepairLink {
            chip: dec.u32()?,
            dir: decode_direction(dec)?,
        },
        _ => return Err(WireError::Corrupt("event tag")),
    })
}

/// Writes the values of a sparse `f64` vector of logical length `len`
/// whose default is −∞ (the STDP "never seen a spike" timestamps; an
/// unsized `times` reads as all −∞): only finite entries cost bytes.
fn encode_sparse_times(times: &[f64], len: usize, enc: &mut Enc) {
    enc.seq(len);
    let finite = times.iter().filter(|t| t.is_finite()).count();
    enc.seq(finite);
    for (i, &t) in times.iter().enumerate() {
        if t.is_finite() {
            enc.u32(i as u32).f64(t);
        }
    }
}

/// Reads an [`encode_sparse_times`] vector that must hold `len` entries
/// (`what` names them in the mismatch error). It comes back unsized
/// (empty) when no entry is finite.
fn decode_sparse_times(
    dec: &mut Dec<'_>,
    len: usize,
    what: impl FnOnce() -> String,
) -> Result<Vec<f64>, SnapshotError> {
    // The declared length is the *logical* vector size, not a stored
    // element count, so it is not bounded by the remaining bytes (only
    // the finite entries are on the wire): check it against the loaded
    // core's before allocating.
    if dec.u64()? != len as u64 {
        return Err(SnapshotError::Mismatch(what()));
    }
    let mut out = Vec::new();
    let finite = dec.seq(12)?;
    for _ in 0..finite {
        let i = dec.u32()? as usize;
        if i >= len {
            return Err(WireError::Corrupt("sparse time index").into());
        }
        if out.is_empty() {
            out = vec![f64::NEG_INFINITY; len];
        }
        out[i] = dec.f64()?;
    }
    Ok(out)
}

impl NeuralMachine {
    /// Serializes this machine's complete dynamic state together with
    /// `pending` (the queued events the last
    /// [`NeuralMachine::run_segment`] returned) into a snapshot that
    /// [`NeuralMachine::install_snapshot`] restores bit-exactly.
    pub fn snapshot(&self, pending: &[PendingEvent]) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.raw(MAGIC).u32(VERSION);
        encode_config_identity(&self.cfg, &mut enc);
        enc.u32(self.duration_ms);
        match &self.stdp {
            None => {
                enc.bool(false);
            }
            Some(p) => {
                enc.bool(true)
                    .f32(p.a_plus)
                    .f32(p.a_minus)
                    .f32(p.tau_plus_ms)
                    .f32(p.tau_minus_ms)
                    .i16(p.w_min_raw)
                    .i16(p.w_max_raw);
            }
        }
        enc.u64(self.reissued_packets).u64(self.weight_writebacks);
        let m = &self.meter;
        for v in [
            m.core_active_ns,
            m.core_sleep_ns,
            m.packets_routed,
            m.packet_hops,
            m.sdram_bytes,
            m.chip_overhead_ns,
            m.instructions,
        ] {
            enc.u64(v);
        }
        self.spike_latency.encode(&mut enc);
        enc.seq(self.spikes.len());
        for s in &self.spikes {
            enc.u32(s.time_ms).u32(s.key);
        }
        enc.seq(self.dma_free_at.len());
        for &t in &self.dma_free_at {
            enc.u64(t);
        }
        enc.seq(self.stimuli.len());
        for &(t, chip, key) in &self.stimuli {
            enc.u64(t).u32(chip).u32(key);
        }
        enc.seq(self.fault_plan.len());
        for &(t, chip, dir) in &self.fault_plan {
            enc.u64(t).u32(chip).u8(dir.index() as u8);
        }
        enc.seq(self.repair_plan.len());
        for &(t, chip, dir) in &self.repair_plan {
            enc.u64(t).u32(chip).u8(dir.index() as u8);
        }
        self.fabric.encode_state(&mut enc);

        let loaded: Vec<usize> = (0..self.cores.len())
            .filter(|&i| self.cores[i].is_some())
            .collect();
        enc.seq(loaded.len());
        for idx in loaded {
            let c = self.cores[idx].as_ref().expect("filtered to loaded");
            enc.u64(idx as u64).u32(c.base_key);
            enc.seq(c.bias_na.len());
            for &b in &c.bias_na {
                enc.f32(b);
            }
            c.neurons.encode(&mut enc);
            match c.settled_ms {
                // A settled core's ring turns when it wakes; the
                // checkpoint holds it as it would be.
                Some(since) => {
                    let mut ring = c.ring.clone();
                    turn_quiet_ring(&mut ring, self.timer_ms - since);
                    ring.encode(&mut enc);
                }
                None => c.ring.encode(&mut enc),
            }
            enc.seq(c.q_packets.len());
            for &k in &c.q_packets {
                enc.u32(k);
            }
            enc.seq(c.q_rows.len());
            for &r in &c.q_rows {
                enc.u32(r);
            }
            enc.u32(c.timer_pending);
            match &c.current {
                None => enc.u8(0),
                Some(WorkItem::Packet(key)) => enc.u8(1).u32(*key),
                Some(WorkItem::Row(row)) => enc.u8(2).u32(*row),
                Some(WorkItem::Timer) => enc.u8(3),
            };
            enc.seq(c.pending_spikes.len());
            for &k in &c.pending_spikes {
                enc.u32(k);
            }
            enc.u64(c.spikes_emitted).u64(c.overruns).u64(c.row_misses);
            encode_sparse_times(&c.row_last_pre_ms, c.matrix.n_rows(), &mut enc);
            encode_sparse_times(&c.last_post_ms, c.neurons.len(), &mut enc);
            // Synaptic arena deltas: the rows STDP rewrote, deduplicated.
            let mut dirty = c.dirty_rows.clone();
            dirty.sort_unstable();
            dirty.dedup();
            c.matrix.encode_rows(&dirty, &mut enc);
        }

        enc.seq(pending.len());
        for p in pending {
            enc.u64(p.at_ns);
            encode_event(&p.event, &mut enc);
        }
        enc.into_bytes()
    }

    /// Installs a [`NeuralMachine::snapshot`] onto this machine,
    /// overwriting all dynamic state. The machine must be **freshly
    /// built the same way** as the one the snapshot was taken from
    /// (same geometry and cost model, same cores loaded with the same
    /// neuron counts and synaptic matrices). Returns the elapsed time
    /// and pending events to continue from via
    /// [`NeuralMachine::run_segment`] — the continuation replays
    /// bit-exactly on any thread count.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Wire`] if the bytes are truncated or corrupt —
    /// among them an event, stimulus, fault or repair timed before the
    /// restored clock; [`SnapshotError::Mismatch`] if the snapshot
    /// belongs to a differently built machine. Every size the bytes
    /// declare is checked against this machine's loaded cores before
    /// anything is allocated for it, so hostile bytes cost no more
    /// memory than the machine already holds. On error the machine may
    /// be partially overwritten and must be discarded.
    pub fn install_snapshot(&mut self, bytes: &[u8]) -> Result<RestoredRun, SnapshotError> {
        let mut dec = Dec::new(bytes);
        dec.magic(MAGIC)?;
        let version = dec.u32()?;
        if version != VERSION {
            return Err(SnapshotError::Wire(WireError::Version(version)));
        }
        {
            // Config identity check: the identity section is
            // fixed-width, so bit-compare it against this machine's own
            // encoding.
            let mut mine = Enc::new();
            encode_config_identity(&self.cfg, &mut mine);
            let mine = mine.into_bytes();
            let start = MAGIC.len() + 4;
            let their_slice = bytes.get(start..start + mine.len()).ok_or(WireError::Eof)?;
            if their_slice != mine.as_slice() {
                return Err(SnapshotError::Mismatch(
                    "machine configuration differs (geometry, timing or energy model)".into(),
                ));
            }
            dec = Dec::new(&bytes[start + mine.len()..]);
        }
        // Every core restarts in the timer walk.
        self.wake_all();
        self.duration_ms = dec.u32()?;
        self.timer_ms = self.duration_ms;
        self.charged_ms = self.duration_ms;
        // Everything still to happen lies at or after the instant the
        // next segment resumes from; an earlier time could only be
        // scheduled into the past.
        let clock = Self::segment_start_ns(self.duration_ms);
        let not_past = |at_ns: u64, what: &'static str| {
            if at_ns < clock {
                Err(SnapshotError::Wire(WireError::Corrupt(what)))
            } else {
                Ok(at_ns)
            }
        };
        self.stdp = if dec.bool()? {
            Some(StdpParams {
                a_plus: dec.f32()?,
                a_minus: dec.f32()?,
                tau_plus_ms: dec.f32()?,
                tau_minus_ms: dec.f32()?,
                w_min_raw: dec.i16()?,
                w_max_raw: dec.i16()?,
            })
        } else {
            None
        };
        self.reissued_packets = dec.u64()?;
        self.weight_writebacks = dec.u64()?;
        for v in [
            &mut self.meter.core_active_ns,
            &mut self.meter.core_sleep_ns,
            &mut self.meter.packets_routed,
            &mut self.meter.packet_hops,
            &mut self.meter.sdram_bytes,
            &mut self.meter.chip_overhead_ns,
            &mut self.meter.instructions,
        ] {
            *v = dec.u64()?;
        }
        self.spike_latency = Histogram::decode(&mut dec)?;
        let n_spikes = dec.seq(8)?;
        self.spikes = Vec::with_capacity(n_spikes);
        for _ in 0..n_spikes {
            self.spikes.push(SpikeRecord {
                time_ms: dec.u32()?,
                key: dec.u32()?,
            });
        }
        let n_dma = dec.seq(8)?;
        if n_dma != self.dma_free_at.len() {
            return Err(SnapshotError::Mismatch("chip count differs".into()));
        }
        for slot in self.dma_free_at.iter_mut() {
            *slot = dec.u64()?;
        }
        let chips = self.cfg.chips() as u32;
        let n_stim = dec.seq(16)?;
        self.stimuli = Vec::with_capacity(n_stim);
        for _ in 0..n_stim {
            let t = not_past(dec.u64()?, "stimulus before the restored clock")?;
            let (chip, key) = (dec.u32()?, dec.u32()?);
            if chip >= chips {
                return Err(SnapshotError::Wire(WireError::Corrupt("stimulus chip id")));
            }
            self.stimuli.push((t, chip, key));
        }
        let n_faults = dec.seq(13)?;
        self.fault_plan = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let t = not_past(dec.u64()?, "fault before the restored clock")?;
            let (chip, dir) = (dec.u32()?, decode_direction(&mut dec)?);
            if chip >= chips {
                return Err(SnapshotError::Wire(WireError::Corrupt("fault chip id")));
            }
            self.fault_plan.push((t, chip, dir));
        }
        let n_repairs = dec.seq(13)?;
        self.repair_plan = Vec::with_capacity(n_repairs);
        for _ in 0..n_repairs {
            let t = not_past(dec.u64()?, "repair before the restored clock")?;
            let (chip, dir) = (dec.u32()?, decode_direction(&mut dec)?);
            if chip >= chips {
                return Err(SnapshotError::Wire(WireError::Corrupt("repair chip id")));
            }
            self.repair_plan.push((t, chip, dir));
        }
        self.fabric.apply_state(&mut dec)?;

        let n_loaded = dec.seq(8)?;
        let actually_loaded = self.cores.iter().filter(|c| c.is_some()).count();
        if n_loaded != actually_loaded {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {n_loaded} loaded core(s), this machine has {actually_loaded}"
            )));
        }
        // A restored ring may hold charge deposited up to the cut.
        let ring_quiet_ms = self.duration_ms.saturating_add(RING_SLOTS as u32 + 1);
        for _ in 0..n_loaded {
            let idx = dec.u64()? as usize;
            let base_key = dec.u32()?;
            let c = self
                .cores
                .get_mut(idx)
                .and_then(|c| c.as_mut())
                .ok_or_else(|| SnapshotError::Mismatch(format!("core {idx} is not loaded")))?;
            if base_key != c.base_key {
                return Err(SnapshotError::Mismatch(format!(
                    "core {idx} base key differs"
                )));
            }
            let n_bias = dec.seq(4)?;
            if n_bias != c.bias_na.len() {
                return Err(SnapshotError::Mismatch(format!(
                    "core {idx} neuron count differs"
                )));
            }
            for b in c.bias_na.iter_mut() {
                *b = dec.f32()?;
            }
            let pool = NeuronPool::decode(&mut dec)?;
            if pool.len() != c.neurons.len() {
                return Err(SnapshotError::Mismatch(format!(
                    "core {idx} neuron count differs"
                )));
            }
            c.neurons = pool;
            c.ring = InputRing::decode(&mut dec, c.ring.neurons())?;
            c.ring_quiet_ms = ring_quiet_ms;
            let nq = dec.seq(4)?;
            c.q_packets.clear();
            for _ in 0..nq {
                c.q_packets.push_back(dec.u32()?);
            }
            let n_rows = c.matrix.n_rows() as u32;
            let row_ok = |row: u32| {
                if row < n_rows {
                    Ok(row)
                } else {
                    Err(SnapshotError::Wire(WireError::Corrupt("queued row index")))
                }
            };
            let nr = dec.seq(4)?;
            c.q_rows.clear();
            for _ in 0..nr {
                c.q_rows.push_back(row_ok(dec.u32()?)?);
            }
            c.timer_pending = dec.u32()?;
            c.current = match dec.u8()? {
                0 => None,
                1 => Some(WorkItem::Packet(dec.u32()?)),
                2 => Some(WorkItem::Row(row_ok(dec.u32()?)?)),
                3 => Some(WorkItem::Timer),
                _ => return Err(SnapshotError::Wire(WireError::Corrupt("work item"))),
            };
            let np = dec.seq(4)?;
            c.pending_spikes.clear();
            for _ in 0..np {
                c.pending_spikes.push(dec.u32()?);
            }
            c.spikes_emitted = dec.u64()?;
            c.overruns = dec.u64()?;
            c.row_misses = dec.u64()?;
            c.row_last_pre_ms = decode_sparse_times(&mut dec, c.matrix.n_rows(), || {
                format!("core {idx} row count differs")
            })?;
            c.last_post_ms = decode_sparse_times(&mut dec, c.neurons.len(), || {
                format!("core {idx} neuron count differs")
            })?;
            // Every tick's spikes index it: sized even when none is finite.
            c.last_post_ms.resize(c.neurons.len(), f64::NEG_INFINITY);
            // The applied rows stay dirty: the *next* checkpoint's
            // baseline is still the fresh build, so previously rewritten
            // rows must keep riding every later delta.
            c.dirty_rows = c.matrix.apply_rows(&mut dec).map_err(|e| match e {
                WireError::Corrupt("delta row index") | WireError::Corrupt("delta row length") => {
                    SnapshotError::Mismatch(format!("core {idx} synaptic matrix differs"))
                }
                other => SnapshotError::Wire(other),
            })?;
        }

        let n_pending = dec.seq(9)?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let at_ns = not_past(dec.u64()?, "pending event before the restored clock")?;
            let event = decode_event(&mut dec)?;
            validate_event(&event, chips, self.cfg.cores_per_chip)?;
            pending.push(PendingEvent { at_ns, event });
        }
        if !dec.is_empty() {
            return Err(SnapshotError::Wire(WireError::Corrupt("trailing bytes")));
        }
        self.clear_par_stats();
        Ok(RestoredRun {
            elapsed_ms: self.duration_ms,
            pending,
        })
    }
}
