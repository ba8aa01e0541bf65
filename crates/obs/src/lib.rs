//! # spinn-obs — low-overhead run telemetry
//!
//! SpiNNaker ships monitor cores and router diagnostic counters because
//! a million-core run is undebuggable without them. This crate is the
//! simulated machine's equivalent: a telemetry core the whole stack
//! threads through, cheap enough to leave compiled in everywhere.
//!
//! Three collection layers, each independently near-free when off:
//!
//! * **Counters** ([`Counter`]) — per-shard event totals: spikes,
//!   multicast packets routed, drops, DMA bytes, queue occupancy
//!   high-water, emergency-route hops, and the host's own work. Each
//!   shard runs on one worker and owns its [`Observability`], so a
//!   count is a plain add ([`Observability::count`]). Totals the
//!   simulated machine already keeps (its raster, router statistics
//!   and energy meter) are not counted twice: the machine reads what
//!   they grew by at segment end.
//! * **Phase timing** ([`PhaseProbe`]) — a sample count and summed
//!   duration per tick phase ([`Phase`]): queue pop, neuron tick,
//!   synaptic-row walk, router lookup, barrier wait. Enabled only in
//!   [`ObsMode::CountersAndTrace`], because each sample costs two
//!   monotonic-clock reads.
//! * **Event tracing** ([`Tracer`]) — a bounded ring buffer of
//!   spike/packet/drop/fault records with overwrite accounting. The hot
//!   path never blocks and never allocates past the ring's capacity;
//!   the ring flushes to JSONL via [`RunTelemetry::trace_jsonl`].
//!
//! Per-run results accumulate in a [`RunTelemetry`], which merges any
//! number of per-shard [`Observability`] handles (serial runs are one
//! shard) and renders the per-loop ns/neuron and ns/synaptic-event rows
//! the benchmark pipeline records.
//!
//! **Determinism**: telemetry observes, it never steers. Simulation
//! results are bit-identical across every [`ObsMode`] — locked down by
//! the golden-trace conformance suite (`tests/telemetry_determinism.rs`
//! in the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How much telemetry a run collects.
///
/// The mode is a run knob, not part of a machine's identity: snapshots
/// taken under one mode restore under any other, and spike output is
/// bit-identical across all three.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum ObsMode {
    /// No collection (the default): counts go nowhere, and the phase
    /// and trace hooks are a `None`-check.
    #[default]
    Disabled,
    /// Event counters only: a plain add per counted event, plus one
    /// read of the machine's own tallies per shard and segment.
    Counters,
    /// Counters plus tick-phase timing tallies plus the bounded
    /// event tracer — the debugging/profiling mode.
    CountersAndTrace,
}

impl std::fmt::Display for ObsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsMode::Disabled => f.write_str("disabled"),
            ObsMode::Counters => f.write_str("counters"),
            ObsMode::CountersAndTrace => f.write_str("counters+trace"),
        }
    }
}

/// One entry of the counter registry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Neurons that fired.
    Spikes,
    /// Neurons stepped through their 1 ms tick update: pool updates
    /// actually run. A settled core's skipped ticks are not counted;
    /// their modelled work is in the machine's energy meter.
    NeuronsTicked,
    /// Synaptic words deposited by row walks.
    SynapticEvents,
    /// Multicast routing decisions taken.
    PacketsMc,
    /// Packets dropped (unroutable, retry-exhausted or aged out).
    PacketsDropped,
    /// Bytes moved over the simulated SDRAM DMA ports.
    DmaBytes,
    /// Emergency-route hops (first legs taken plus second legs closed).
    EmergencyHops,
    /// Event-queue occupancy high-water mark (a gauge: merged with
    /// `max`, not summed).
    QueuePeak,
    /// Events dispatched by the discrete-event engine.
    Events,
}

impl Counter {
    /// Number of counters in the registry.
    pub const COUNT: usize = 9;

    /// Every counter, in registry order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Spikes,
        Counter::NeuronsTicked,
        Counter::SynapticEvents,
        Counter::PacketsMc,
        Counter::PacketsDropped,
        Counter::DmaBytes,
        Counter::EmergencyHops,
        Counter::QueuePeak,
        Counter::Events,
    ];

    /// Stable snake_case name (the JSON/JSONL key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Spikes => "spikes",
            Counter::NeuronsTicked => "neurons_ticked",
            Counter::SynapticEvents => "synaptic_events",
            Counter::PacketsMc => "packets_mc",
            Counter::PacketsDropped => "packets_dropped",
            Counter::DmaBytes => "dma_bytes",
            Counter::EmergencyHops => "emergency_hops",
            Counter::QueuePeak => "queue_peak",
            Counter::Events => "events",
        }
    }

    /// True for gauges (merged with `max` rather than summed).
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::QueuePeak)
    }
}

/// The instrumented phases of the machine's event loop.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Popping the next event off the event queue.
    QueuePop,
    /// Stepping a core's neuron pool through one 1 ms tick.
    NeuronTick,
    /// Walking a synaptic row into the input ring.
    RowWalk,
    /// A fabric event: router lookup, link arbitration, retries.
    RouterLookup,
    /// Waiting at a window barrier of the sharded engine.
    BarrierWait,
}

impl Phase {
    /// Number of instrumented phases.
    pub const COUNT: usize = 5;

    /// Every phase, in storage order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::QueuePop,
        Phase::NeuronTick,
        Phase::RowWalk,
        Phase::RouterLookup,
        Phase::BarrierWait,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueuePop => "queue_pop",
            Phase::NeuronTick => "neuron_tick",
            Phase::RowWalk => "row_walk",
            Phase::RouterLookup => "router_lookup",
            Phase::BarrierWait => "barrier_wait",
        }
    }
}

#[derive(Debug)]
struct PhaseSlot {
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl PhaseSlot {
    fn new() -> PhaseSlot {
        PhaseSlot {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct PhaseSet {
    slots: [PhaseSlot; Phase::COUNT],
}

/// A started phase measurement (see [`PhaseProbe::start`]). Carries no
/// clock read when timing is disabled.
#[must_use = "pass the token back to PhaseProbe::record"]
#[derive(Debug)]
pub struct PhaseToken(Option<Instant>);

/// A cloneable handle onto one shard's phase-timing tallies (or onto
/// nothing). The engine and the parallel driver each hold a clone;
/// samples land in the shard's shared storage.
#[derive(Clone, Debug, Default)]
pub struct PhaseProbe(Option<Arc<PhaseSet>>);

impl PhaseProbe {
    /// A live probe with fresh tallies.
    pub fn enabled() -> PhaseProbe {
        PhaseProbe(Some(Arc::new(PhaseSet {
            slots: std::array::from_fn(|_| PhaseSlot::new()),
        })))
    }

    /// Whether samples on this handle are recorded anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a measurement. Reads the monotonic clock only when the
    /// probe is live; a disabled probe returns an inert token.
    #[inline]
    pub fn start(&self) -> PhaseToken {
        PhaseToken(self.0.as_ref().map(|_| Instant::now()))
    }

    /// Completes a measurement, attributing the elapsed time to
    /// `phase`. Inert tokens are dropped for free.
    #[inline]
    pub fn record(&self, phase: Phase, token: PhaseToken) {
        if let (Some(set), Some(t0)) = (&self.0, token.0) {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let slot = &set.slots[phase as usize];
            slot.count.fetch_add(1, Ordering::Relaxed);
            slot.sum_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Reads and resets every phase tally (the segment-end
    /// harvest). All zeros when disabled.
    pub fn drain(&self) -> [PhaseStats; Phase::COUNT] {
        match &self.0 {
            Some(set) => std::array::from_fn(|i| {
                let slot = &set.slots[i];
                PhaseStats {
                    count: slot.count.swap(0, Ordering::Relaxed),
                    sum_ns: slot.sum_ns.swap(0, Ordering::Relaxed),
                }
            }),
            None => std::array::from_fn(|_| PhaseStats::default()),
        }
    }
}

/// A harvested phase tally: sample count and total nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Samples recorded.
    pub count: u64,
    /// Total nanoseconds across all samples.
    pub sum_ns: u64,
}

impl PhaseStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Mean sample duration, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// What kind of event a trace record describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A neuron fired: `a` = routing key, `b` = tick (ms).
    Spike,
    /// A packet delivered: `a` = routing key, `b` = hop count.
    Packet,
    /// A packet dropped: `a` = routing key, `b` = chip id.
    Drop,
    /// A fault fired: `a` = chip id, `b` = link direction index.
    Fault,
    /// A failed link was repaired: `a` = chip id, `b` = link direction
    /// index.
    Repair,
}

impl TraceKind {
    /// Stable lowercase name (the JSONL `kind` value).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Spike => "spike",
            TraceKind::Packet => "packet",
            TraceKind::Drop => "drop",
            TraceKind::Fault => "fault",
            TraceKind::Repair => "repair",
        }
    }
}

/// One traced event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event, ns.
    pub time_ns: u64,
    /// What happened.
    pub kind: TraceKind,
    /// First payload word (see [`TraceKind`] for the meaning).
    pub a: u32,
    /// Second payload word.
    pub b: u32,
}

/// Default per-shard trace ring capacity.
pub const DEFAULT_TRACE_CAP: usize = 16 * 1024;

/// A bounded ring buffer of [`TraceRecord`]s. Recording never blocks
/// and never grows past the capacity: when full, the oldest record is
/// overwritten and [`Tracer::overwritten`] counts the loss.
#[derive(Clone, Debug)]
pub struct Tracer {
    ring: VecDeque<TraceRecord>,
    cap: usize,
    overwritten: u64,
}

impl Tracer {
    /// A tracer bounded at `cap` records (at least 1).
    pub fn new(cap: usize) -> Tracer {
        let cap = cap.max(1);
        Tracer {
            ring: VecDeque::with_capacity(cap),
            cap,
            overwritten: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, time_ns: u64, kind: TraceKind, a: u32, b: u32) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(TraceRecord {
            time_ns,
            kind,
            a,
            b,
        });
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records lost to overwriting so far.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The ring's bound, records.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Takes every record (oldest first) and resets the loss counter.
    pub fn drain(&mut self) -> (Vec<TraceRecord>, u64) {
        let lost = std::mem::take(&mut self.overwritten);
        (self.ring.drain(..).collect(), lost)
    }
}

/// One shard's complete telemetry handles for a run segment: the
/// counter totals, the phase probe and (in
/// [`ObsMode::CountersAndTrace`]) the event tracer.
#[derive(Debug, Default)]
pub struct Observability {
    mode: ObsMode,
    shard: u32,
    /// Indexed by [`Counter`]; [`RunTelemetry::absorb`] takes them.
    counts: [u64; Counter::COUNT],
    phases: PhaseProbe,
    tracer: Option<Tracer>,
}

impl Observability {
    /// Telemetry for a serial run (shard 0).
    pub fn new(mode: ObsMode) -> Observability {
        Observability::for_shard(mode, 0)
    }

    /// Telemetry for one shard of a sharded run, with the default
    /// [`DEFAULT_TRACE_CAP`] trace ring.
    pub fn for_shard(mode: ObsMode, shard: u32) -> Observability {
        Observability::for_shard_with_cap(mode, shard, DEFAULT_TRACE_CAP)
    }

    /// Telemetry for one shard with an explicit trace ring capacity.
    ///
    /// The default 16 Ki-record ring keeps the hot path cheap but
    /// overwrites most records of an event-heavy segment; callers that
    /// want the full tail — trace archaeology, conformance replay —
    /// size the ring to the run.
    pub fn for_shard_with_cap(mode: ObsMode, shard: u32, trace_cap: usize) -> Observability {
        let (phases, tracer) = match mode {
            ObsMode::Disabled | ObsMode::Counters => (PhaseProbe::default(), None),
            ObsMode::CountersAndTrace => (PhaseProbe::enabled(), Some(Tracer::new(trace_cap))),
        };
        Observability {
            mode,
            shard,
            counts: [0; Counter::COUNT],
            phases,
            tracer,
        }
    }

    /// The collection mode.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// The shard this telemetry belongs to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Adds `n` to counter `c`. A disabled handle's counts are never
    /// read: [`RunTelemetry::absorb`] ignores it.
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Raises gauge `c` to at least `v`.
    pub fn gauge_max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.counts[c as usize];
        *slot = (*slot).max(v);
    }

    /// The phase-timing handle (cloneable).
    pub fn phases(&self) -> &PhaseProbe {
        &self.phases
    }

    /// Whether the tracer is live.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The live tracer's ring capacity (0 when not tracing).
    pub fn trace_cap(&self) -> usize {
        self.tracer.as_ref().map_or(0, Tracer::cap)
    }

    /// Appends a trace record (a no-op branch unless tracing).
    #[inline]
    pub fn trace(&mut self, time_ns: u64, kind: TraceKind, a: u32, b: u32) {
        if let Some(t) = &mut self.tracer {
            t.record(time_ns, kind, a, b);
        }
    }
}

/// One entry of the per-tenant serving-counter registry.
///
/// Unlike [`Counter`], these are *not* hot-path counters: the serving
/// layer (`spinn-serve`) records them once per job on the host side, so
/// they are always on. They
/// live in [`RunTelemetry`] so a server's accounting rides the same
/// report/merge pipeline as the machine counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TenantCounter {
    /// Jobs that passed admission control.
    JobsAdmitted,
    /// Jobs rejected at admission (queue full, quota breach, …).
    JobsRejected,
    /// Jobs run to completion.
    JobsCompleted,
    /// Biological milliseconds simulated on the tenant's behalf (the
    /// unit the tick budget is charged in).
    BioMs,
    /// Spikes returned to the tenant.
    Spikes,
    /// Jobs served on an already-resident warm session.
    WarmHits,
    /// Jobs that paid a cold build or a snapshot rehydrate first.
    ColdServes,
}

impl TenantCounter {
    /// Number of per-tenant counters.
    pub const COUNT: usize = 7;

    /// Every per-tenant counter, in registry order.
    pub const ALL: [TenantCounter; TenantCounter::COUNT] = [
        TenantCounter::JobsAdmitted,
        TenantCounter::JobsRejected,
        TenantCounter::JobsCompleted,
        TenantCounter::BioMs,
        TenantCounter::Spikes,
        TenantCounter::WarmHits,
        TenantCounter::ColdServes,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            TenantCounter::JobsAdmitted => "jobs_admitted",
            TenantCounter::JobsRejected => "jobs_rejected",
            TenantCounter::JobsCompleted => "jobs_completed",
            TenantCounter::BioMs => "bio_ms",
            TenantCounter::Spikes => "spikes",
            TenantCounter::WarmHits => "warm_hits",
            TenantCounter::ColdServes => "cold_serves",
        }
    }
}

/// One tenant's accumulated serving counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// The serving layer's tenant id.
    pub tenant: u32,
    /// Counter totals, indexed by [`TenantCounter`].
    pub counters: [u64; TenantCounter::COUNT],
}

/// Telemetry of one shard as accumulated into a [`RunTelemetry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// The shard id (0 for serial runs).
    pub shard: u32,
    /// Counter totals, indexed by [`Counter`] (gauges hold the max).
    pub counters: [u64; Counter::COUNT],
    /// Phase tallies, indexed by [`Phase`].
    pub phases: [PhaseStats; Phase::COUNT],
}

/// Machine-level trace bound: segments append their shard rings here,
/// oldest records dropping first.
const RUN_TRACE_CAP: usize = 64 * 1024;

/// A whole run's accumulated telemetry: per-shard counters and phase
/// tallies plus the merged event trace. Built by absorbing each
/// segment's per-shard [`Observability`] handles; survives any mix of
/// thread counts across segments (shards merge by id).
#[derive(Clone, Debug, Default)]
pub struct RunTelemetry {
    mode: ObsMode,
    shards: Vec<ShardTelemetry>,
    /// Per-tenant serving counters, ordered by tenant id. Populated by
    /// the serving layer (machine runs leave this empty).
    tenants: Vec<TenantStats>,
    trace: VecDeque<TraceRecord>,
    trace_overwritten: u64,
    /// Largest per-shard trace ring capacity seen across absorbed
    /// segments — records which bound (sized from the loaded neuron
    /// count) the run actually traced under.
    trace_cap: u64,
}

impl RunTelemetry {
    /// The strongest collection mode absorbed so far.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Whether any telemetry was collected.
    pub fn is_enabled(&self) -> bool {
        self.mode != ObsMode::Disabled
    }

    /// Per-shard telemetry, ordered by shard id.
    pub fn shards(&self) -> &[ShardTelemetry] {
        &self.shards
    }

    /// Per-tenant serving counters, ordered by tenant id (empty unless
    /// a serving layer recorded into this telemetry).
    pub fn tenants(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// Adds `n` to tenant `tenant`'s counter `c`, creating the tenant
    /// row on first touch. Host-side: meant for the
    /// serving layer's once-per-job accounting, not the machine hot
    /// path.
    pub fn tenant_add(&mut self, tenant: u32, c: TenantCounter, n: u64) {
        let entry = match self.tenants.iter_mut().find(|t| t.tenant == tenant) {
            Some(e) => e,
            None => {
                self.tenants.push(TenantStats {
                    tenant,
                    counters: [0; TenantCounter::COUNT],
                });
                self.tenants.sort_by_key(|t| t.tenant);
                self.tenants
                    .iter_mut()
                    .find(|t| t.tenant == tenant)
                    .expect("just inserted")
            }
        };
        entry.counters[c as usize] += n;
    }

    /// One tenant's counter total (0 for unknown tenants).
    pub fn tenant_total(&self, tenant: u32, c: TenantCounter) -> u64 {
        self.tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .map_or(0, |t| t.counters[c as usize])
    }

    /// The merged event trace, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceRecord> {
        self.trace.iter()
    }

    /// Trace records lost to ring bounds (per-shard and merged).
    pub fn trace_overwritten(&self) -> u64 {
        self.trace_overwritten
    }

    /// The per-shard trace ring capacity the run traced under (the
    /// largest across absorbed segments; 0 when nothing traced). This
    /// is the *resolved* bound: what the machine sized the ring to from
    /// its loaded neuron count.
    pub fn trace_cap(&self) -> u64 {
        self.trace_cap
    }

    /// Fraction of all recorded trace events lost to ring overwrites,
    /// in `[0, 1]` — `0.0` when nothing was recorded. A ratio near 1
    /// means the retained trace is a thin recent-history window of the
    /// run, not a record of the whole run: each shard's ring holds ~4
    /// records per loaded neuron per segment, and the merged trace the
    /// last 64 Ki records.
    pub fn trace_overwrite_ratio(&self) -> f64 {
        let recorded = self.trace_overwritten + self.trace.len() as u64;
        if recorded == 0 {
            0.0
        } else {
            self.trace_overwritten as f64 / recorded as f64
        }
    }

    /// Folds one shard's segment telemetry into the run totals,
    /// draining (and so resetting) the live handles.
    pub fn absorb(&mut self, obs: &mut Observability) {
        if obs.mode == ObsMode::Disabled {
            return;
        }
        if self.mode == ObsMode::Disabled || obs.mode == ObsMode::CountersAndTrace {
            self.mode = obs.mode;
        }
        let counters = std::mem::take(&mut obs.counts);
        let phases = obs.phases.drain();
        let entry = match self.shards.iter_mut().find(|s| s.shard == obs.shard) {
            Some(e) => e,
            None => {
                self.shards.push(ShardTelemetry {
                    shard: obs.shard,
                    counters: [0; Counter::COUNT],
                    phases: std::array::from_fn(|_| PhaseStats::default()),
                });
                self.shards.sort_by_key(|s| s.shard);
                self.shards
                    .iter_mut()
                    .find(|s| s.shard == obs.shard)
                    .expect("just inserted")
            }
        };
        for (i, c) in Counter::ALL.iter().enumerate() {
            if c.is_gauge() {
                entry.counters[i] = entry.counters[i].max(counters[i]);
            } else {
                entry.counters[i] += counters[i];
            }
        }
        for (slot, seg) in entry.phases.iter_mut().zip(phases.iter()) {
            slot.merge(seg);
        }
        if let Some(t) = &mut obs.tracer {
            self.trace_cap = self.trace_cap.max(t.cap() as u64);
            let (records, lost) = t.drain();
            self.trace_overwritten += lost;
            for r in records {
                if self.trace.len() == RUN_TRACE_CAP {
                    self.trace.pop_front();
                    self.trace_overwritten += 1;
                }
                self.trace.push_back(r);
            }
        }
    }

    /// Folds another run's telemetry into this one (shards merge by
    /// id, tenants by tenant id) — the segment-carry path of the
    /// sharded machine and the server-report path of the serving
    /// layer.
    pub fn merge(&mut self, other: &RunTelemetry) {
        // Tenant counters are host-side and mode-independent, so they
        // merge even from an otherwise-disabled telemetry.
        for ot in &other.tenants {
            for (i, &c) in TenantCounter::ALL.iter().enumerate() {
                if ot.counters[i] > 0 {
                    self.tenant_add(ot.tenant, c, ot.counters[i]);
                }
            }
        }
        if other.mode == ObsMode::Disabled {
            return;
        }
        if self.mode == ObsMode::Disabled || other.mode == ObsMode::CountersAndTrace {
            self.mode = other.mode;
        }
        for os in &other.shards {
            match self.shards.iter_mut().find(|s| s.shard == os.shard) {
                Some(e) => {
                    for (i, c) in Counter::ALL.iter().enumerate() {
                        if c.is_gauge() {
                            e.counters[i] = e.counters[i].max(os.counters[i]);
                        } else {
                            e.counters[i] += os.counters[i];
                        }
                    }
                    for (slot, seg) in e.phases.iter_mut().zip(os.phases.iter()) {
                        slot.merge(seg);
                    }
                }
                None => self.shards.push(os.clone()),
            }
        }
        self.shards.sort_by_key(|s| s.shard);
        self.trace_cap = self.trace_cap.max(other.trace_cap);
        self.trace_overwritten += other.trace_overwritten;
        for r in &other.trace {
            if self.trace.len() == RUN_TRACE_CAP {
                self.trace.pop_front();
                self.trace_overwritten += 1;
            }
            self.trace.push_back(*r);
        }
    }

    /// Counter total across shards (gauges report the max).
    pub fn total(&self, c: Counter) -> u64 {
        let i = c as usize;
        if c.is_gauge() {
            self.shards.iter().map(|s| s.counters[i]).max().unwrap_or(0)
        } else {
            self.shards.iter().map(|s| s.counters[i]).sum()
        }
    }

    /// Phase tally merged across shards.
    pub fn phase_total(&self, p: Phase) -> PhaseStats {
        let mut out = PhaseStats::default();
        for s in &self.shards {
            out.merge(&s.phases[p as usize]);
        }
        out
    }

    /// Nanoseconds of neuron-tick phase per neuron update (NaN without
    /// phase timing).
    pub fn ns_per_neuron(&self) -> f64 {
        let n = self.total(Counter::NeuronsTicked);
        let t = self.phase_total(Phase::NeuronTick);
        if n == 0 || t.count == 0 {
            f64::NAN
        } else {
            t.sum_ns as f64 / n as f64
        }
    }

    /// Nanoseconds of row-walk phase per synaptic event (NaN without
    /// phase timing).
    pub fn ns_per_synaptic_event(&self) -> f64 {
        let n = self.total(Counter::SynapticEvents);
        let t = self.phase_total(Phase::RowWalk);
        if n == 0 || t.count == 0 {
            f64::NAN
        } else {
            t.sum_ns as f64 / n as f64
        }
    }

    /// Barrier-wait time as a fraction of all timed phase time (NaN
    /// without phase timing).
    pub fn barrier_wait_share(&self) -> f64 {
        let total: u64 = Phase::ALL.iter().map(|&p| self.phase_total(p).sum_ns).sum();
        if total == 0 {
            f64::NAN
        } else {
            self.phase_total(Phase::BarrierWait).sum_ns as f64 / total as f64
        }
    }

    /// Event-count skew across shards: `max/min` of per-shard
    /// dispatched events (1.0 for a single shard, NaN when empty).
    pub fn shard_skew(&self) -> f64 {
        let i = Counter::Events as usize;
        let counts: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.counters[i])
            .filter(|&c| c > 0)
            .collect();
        match (counts.iter().max(), counts.iter().min()) {
            (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
            _ => f64::NAN,
        }
    }

    /// The human-readable telemetry section of a run report.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry:           mode {}, {} shard(s)",
            self.mode,
            self.shards.len()
        );
        let _ = writeln!(
            out,
            "  counters:          {} spikes, {} mc packets, {} dropped, {} emergency hops",
            self.total(Counter::Spikes),
            self.total(Counter::PacketsMc),
            self.total(Counter::PacketsDropped),
            self.total(Counter::EmergencyHops),
        );
        let _ = writeln!(
            out,
            "  load:              {} events, {} neuron ticks, {} synaptic events, {} DMA B, queue peak {}",
            self.total(Counter::Events),
            self.total(Counter::NeuronsTicked),
            self.total(Counter::SynapticEvents),
            self.total(Counter::DmaBytes),
            self.total(Counter::QueuePeak),
        );
        if self.mode == ObsMode::CountersAndTrace {
            let mut phases = String::new();
            for &p in &Phase::ALL {
                let t = self.phase_total(p);
                if t.count == 0 {
                    continue;
                }
                let _ = write!(
                    phases,
                    "{} {:.2} ms ({} x {:.0} ns)  ",
                    p.name(),
                    t.sum_ns as f64 / 1e6,
                    t.count,
                    t.mean_ns()
                );
            }
            let _ = writeln!(out, "  phases:            {}", phases.trim_end());
            let _ = writeln!(
                out,
                "  per-loop:          {:.1} ns/neuron, {:.1} ns/synaptic-event, barrier share {:.1}%",
                self.ns_per_neuron(),
                self.ns_per_synaptic_event(),
                100.0 * if self.barrier_wait_share().is_nan() {
                    0.0
                } else {
                    self.barrier_wait_share()
                },
            );
            let _ = writeln!(
                out,
                "  trace:             {} record(s), {} overwritten ({:.1}% lost), ring cap {}",
                self.trace.len(),
                self.trace_overwritten,
                100.0 * self.trace_overwrite_ratio(),
                self.trace_cap
            );
        }
        if self.shards.len() > 1 {
            let skew = self.shard_skew();
            let _ = writeln!(
                out,
                "  shard skew:        events max/min {:.2}x across {} shards",
                skew,
                self.shards.len()
            );
        }
        for t in &self.tenants {
            let served = t.counters[TenantCounter::JobsCompleted as usize];
            let warm = t.counters[TenantCounter::WarmHits as usize];
            let _ = writeln!(
                out,
                "  tenant {:<4}        {} admitted / {} rejected / {} served, {} bio-ms, {} spikes, warm {}/{}",
                t.tenant,
                t.counters[TenantCounter::JobsAdmitted as usize],
                t.counters[TenantCounter::JobsRejected as usize],
                served,
                t.counters[TenantCounter::BioMs as usize],
                t.counters[TenantCounter::Spikes as usize],
                warm,
                served,
            );
        }
        out
    }

    /// Flushes the merged event trace as JSONL: one object per record
    /// (`{"t_ns":…,"kind":"…","a":…,"b":…}`), oldest first.
    pub fn trace_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.trace {
            let _ = writeln!(
                out,
                "{{\"t_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                r.time_ns,
                r.kind.name(),
                r.a,
                r.b
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let probe = PhaseProbe::default();
        let tok = probe.start();
        probe.record(Phase::QueuePop, tok);
        assert!(probe.drain().iter().all(|p| p.count == 0));
    }

    #[test]
    fn counters_add_and_gauge() {
        let mut obs = Observability::new(ObsMode::Counters);
        obs.count(Counter::Spikes, 2);
        obs.count(Counter::Spikes, 3);
        obs.gauge_max(Counter::QueuePeak, 7);
        obs.gauge_max(Counter::QueuePeak, 4);
        let mut run = RunTelemetry::default();
        run.absorb(&mut obs);
        assert_eq!(run.total(Counter::Spikes), 5);
        assert_eq!(run.total(Counter::QueuePeak), 7);
        // Absorbing drains the handle: the next segment counts from 0.
        obs.count(Counter::Spikes, 1);
        run.absorb(&mut obs);
        assert_eq!(run.total(Counter::Spikes), 6);
        assert_eq!(run.total(Counter::QueuePeak), 7);
    }

    #[test]
    fn phase_probe_records() {
        let probe = PhaseProbe::enabled();
        let tok = probe.start();
        probe.record(Phase::NeuronTick, tok);
        let stats = probe.drain();
        assert_eq!(stats[Phase::NeuronTick as usize].count, 1);
        // Drained.
        assert_eq!(probe.drain()[Phase::NeuronTick as usize].count, 0);
    }

    #[test]
    fn tracer_bounds_and_accounts() {
        let mut t = Tracer::new(3);
        for i in 0..5u32 {
            t.record(i as u64, TraceKind::Spike, i, 0);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.overwritten(), 2);
        let (records, lost) = t.drain();
        assert_eq!(lost, 2);
        assert_eq!(
            records.iter().map(|r| r.a).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(t.is_empty());
        assert_eq!(t.overwritten(), 0);
    }

    #[test]
    fn telemetry_absorbs_shards_by_id() {
        let mut run = RunTelemetry::default();
        let mut s0 = Observability::for_shard(ObsMode::Counters, 0);
        let mut s1 = Observability::for_shard(ObsMode::Counters, 1);
        s0.count(Counter::Spikes, 10);
        s0.gauge_max(Counter::QueuePeak, 5);
        s1.count(Counter::Spikes, 4);
        run.absorb(&mut s0);
        run.absorb(&mut s1);
        // A second segment on shard 0 accumulates.
        s0.count(Counter::Spikes, 1);
        s0.gauge_max(Counter::QueuePeak, 3);
        run.absorb(&mut s0);
        assert_eq!(run.shards().len(), 2);
        assert_eq!(run.total(Counter::Spikes), 15);
        assert_eq!(run.total(Counter::QueuePeak), 5);
        assert!(run.is_enabled());
    }

    #[test]
    fn telemetry_merges_traces_and_renders() {
        let mut run = RunTelemetry::default();
        let mut obs = Observability::new(ObsMode::CountersAndTrace);
        obs.count(Counter::Spikes, 1);
        obs.count(Counter::NeuronsTicked, 2);
        obs.count(Counter::SynapticEvents, 3);
        let tok = obs.phases().start();
        obs.phases().record(Phase::NeuronTick, tok);
        obs.trace(1_000, TraceKind::Spike, 0x10, 0);
        obs.trace(2_000, TraceKind::Drop, 0x20, 3);
        run.absorb(&mut obs);
        assert_eq!(run.trace().count(), 2);
        let jsonl = run.trace_jsonl();
        assert!(jsonl.contains("\"kind\":\"spike\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"drop\""), "{jsonl}");
        assert_eq!(jsonl.lines().count(), 2);
        let table = run.render_table();
        assert!(table.contains("telemetry:"), "{table}");
        assert!(table.contains("counters+trace"), "{table}");
        assert!(table.contains("ns/neuron"), "{table}");
    }

    #[test]
    fn disabled_absorb_is_a_noop() {
        let mut run = RunTelemetry::default();
        let mut obs = Observability::new(ObsMode::Disabled);
        obs.count(Counter::Spikes, 99);
        run.absorb(&mut obs);
        assert!(!run.is_enabled());
        assert!(run.shards().is_empty());
    }

    #[test]
    fn tenant_counters_accumulate_merge_and_render() {
        let mut a = RunTelemetry::default();
        a.tenant_add(1, TenantCounter::JobsAdmitted, 3);
        a.tenant_add(1, TenantCounter::JobsCompleted, 2);
        a.tenant_add(0, TenantCounter::JobsRejected, 1);
        assert_eq!(a.tenant_total(1, TenantCounter::JobsAdmitted), 3);
        assert_eq!(a.tenant_total(9, TenantCounter::JobsAdmitted), 0);
        // Rows stay ordered by tenant id.
        assert_eq!(
            a.tenants().iter().map(|t| t.tenant).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // Merge folds tenants even from a mode-Disabled telemetry.
        let mut b = RunTelemetry::default();
        b.tenant_add(1, TenantCounter::JobsAdmitted, 4);
        b.tenant_add(2, TenantCounter::WarmHits, 5);
        a.merge(&b);
        assert!(!a.is_enabled());
        assert_eq!(a.tenant_total(1, TenantCounter::JobsAdmitted), 7);
        assert_eq!(a.tenant_total(2, TenantCounter::WarmHits), 5);
        let table = a.render_table();
        assert!(table.contains("tenant 1"), "{table}");
        assert!(table.contains("admitted"), "{table}");
    }

    #[test]
    fn run_merge_combines_by_shard() {
        let mut a = RunTelemetry::default();
        let mut b = RunTelemetry::default();
        let mut s = Observability::for_shard(ObsMode::Counters, 2);
        s.count(Counter::Events, 7);
        a.absorb(&mut s);
        s.count(Counter::Events, 5);
        b.absorb(&mut s);
        a.merge(&b);
        assert_eq!(a.total(Counter::Events), 12);
        assert_eq!(a.shards().len(), 1);
    }
}
