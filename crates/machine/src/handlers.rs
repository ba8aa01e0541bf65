//! The interrupt handlers of Fig. 7 — packet received, DMA complete,
//! 1 ms timer — the event dispatch that drives them, and the chip-local
//! agenda on which handler and DMA completions resolve.
//!
//! # What the queue holds, and what it does not
//!
//! A packet raises an interrupt, the ISR starts a DMA, the DMA-done
//! interrupt walks the row: none of that is visible outside the chip
//! until a timer handler emits spikes. So the machine-wide event queue
//! holds only what another chip can observe — fabric events, the timer,
//! injections, link faults — and every chip keeps an [`Agenda`] of its
//! own outstanding completions: per core the instant its current work
//! item finishes, per chip the DMA transfers in flight on its one SDRAM
//! port (which is why the unit is the chip: two cores contending for the
//! port must see each other in time order).
//!
//! [`NeuralMachine::advance_chip`] resolves a chip's completions in
//! exactly the `(time, tie rank)` order the queue would have popped
//! them in. Chips share no agenda state, so it runs lazily: before a
//! packet is handed to one of the chip's cores, before the timer looks
//! at them, and when a run segment settles. A completion goes through
//! the queue — as a [`MachineEvent::CoreDone`] *wake* — only when
//! finishing can put a packet on the fabric ([`AppCore::wakes_on_done`]);
//! the wake advances the chip at that exact instant, so everything a
//! completion schedules globally is scheduled from the present.
//!
//! # The row fetch pipeline, for the host too
//!
//! Packet ISR, DMA, row walk: each step learns an address the next one
//! reads, one modelled hand-off early. The rows, their descriptors and
//! the rings of a full machine are far larger than the host's caches,
//! so each step passes the address on as a prefetch hint — read-only
//! `&self` calls into `spinn-neuron` that change nothing computed,
//! counted or checkpointed here:
//!
//! 1. `dispatch`, as a packet's ISR starts: the key's row descriptor
//!    ([`SynapticMatrix::hint_descriptor`]), read when the ISR ends.
//!    (Not at delivery: a tick's whole packet burst is queued before
//!    any of it is served, and the lines would be evicted again.)
//! 2. `on_core_done`, as the DMA starts: the row's words
//!    ([`SynapticMatrix::hint_row`]), walked once the transfer and the
//!    core's queue allow.
//! 3. `on_dma_done`: the ring accumulators those words deposit into
//!    ([`InputRing::hint_deposit`]), written when the row handler ends.
//!
//! In between, the chip's other cores resolve a completion each — the
//! time a line takes to arrive.
//!
//! # Settled cores leave the timer walk
//!
//! The paper's cores sleep until an interrupt; the timer is one, but a
//! core whose tick cannot change anything need not take it. A core
//! *settles* after a timer handler when that tick moved no state bit
//! and fired nothing (`NeuronPool::step_tick` says so), no row walked
//! in the 16 ticks before it (so every slot of its ring is zero and the
//! next drive is the bias again), and nothing is queued or owed. Its
//! next tick would then be the same tick again, so it leaves the
//! per-chip [`NeuralMachine::awake`] mask the timer walks.
//!
//! Work reaches a core at two points only — a packet delivered, a row
//! transfer done — and both first *wake* it: it is caught up through
//! the last tick the timer handled, as if it had run every one (the
//! handlers it skipped charged, its ring turned), the last one's
//! handler interval is put back on the agenda if the work arrives
//! inside it, and it rejoins the walk. At segment end the meter is
//! charged the skipped handlers of every core still settled, one
//! closed form per chip ([`QuietCharge`]); a snapshot writes a settled
//! core's ring as it would stand. Spikes, meters, checkpoint bytes and
//! the pending list are what ticking every core produces; only the
//! host-work counts (`Counter::Events`, `Counter::NeuronsTicked`, the
//! `NeuronTick` phase) drop, as they count what ran.
//!
//! [`SynapticMatrix::hint_descriptor`]: spinn_neuron::SynapticMatrix::hint_descriptor
//! [`SynapticMatrix::hint_row`]: spinn_neuron::SynapticMatrix::hint_row
//! [`InputRing::hint_deposit`]: spinn_neuron::InputRing::hint_deposit

use std::collections::VecDeque;

use spinn_neuron::ring::{InputRing, RING_SLOTS};
use spinn_neuron::stdp::{self, apply_bounded};
use spinn_noc::fabric::CtxScheduler;
use spinn_noc::packet::{Packet, PacketKind};
use spinn_obs::{Counter, Phase, PhaseProbe, TraceKind};
use spinn_par::{RemoteEvent, ShardModel};
use spinn_sim::{Context, Model, SimTime};

use crate::events::{tie_rank, MachineEvent};
use crate::machine::{AppCore, NeuralMachine, PendingEvent, SpikeRecord, WorkItem, MS};

/// "No completion outstanding" in the agenda's time slots.
const IDLE: u64 = u64::MAX;

/// A synaptic-row DMA in flight on a chip's SDRAM port.
#[derive(Copy, Clone, Debug)]
struct DmaInFlight {
    done_ns: u64,
    core: u8,
    /// Source AER key — the transfer's name in a checkpoint
    /// ([`MachineEvent::DmaDone`]).
    key: u32,
    /// The row the key resolved to when the transfer was started.
    row: u32,
}

impl DmaInFlight {
    /// Pop order among a chip's transfers: `DmaDone`'s `(time, rank)`.
    fn order(&self) -> (u64, u8, u32) {
        (self.done_ns, self.core, self.key)
    }
}

/// Turns a settled core's ring by `ticks`, as that many ticks would
/// have: every slot is zero, so only the cursor moves, and it wraps at
/// `RING_SLOTS`.
pub(crate) fn turn_quiet_ring(ring: &mut InputRing, ticks: u32) {
    for _ in 0..ticks % RING_SLOTS as u32 {
        ring.tick();
    }
}

/// What the settled cores of one chip owe the energy meter: each would
/// have charged one quiet handler ([`NeuralMachine::quiet_handler`]) per
/// tick. `paid` weights each core's handler by the tick through which
/// the meter holds it, so the chip owes `tick × per_tick − paid` through
/// `tick`, whatever tick each core settled at.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct QuietCharge {
    /// `[instructions, busy ns]` of one quiet handler, summed over the
    /// chip's settled cores.
    per_tick: [u64; 2],
    /// The same, each core's weighted by the tick it is paid through.
    paid: [u64; 2],
}

impl QuietCharge {
    /// A core whose quiet handler costs `handler` joins, paid through
    /// `tick`.
    fn join(&mut self, handler: [u64; 2], tick: u32) {
        for ((per, paid), h) in self.per_tick.iter_mut().zip(&mut self.paid).zip(handler) {
            *per += h;
            *paid += u64::from(tick) * h;
        }
    }

    /// The inverse of [`QuietCharge::join`].
    fn leave(&mut self, handler: [u64; 2], tick: u32) {
        for ((per, paid), h) in self.per_tick.iter_mut().zip(&mut self.paid).zip(handler) {
            *per -= h;
            *paid -= u64::from(tick) * h;
        }
    }

    /// What the chip's settled cores owe through `tick`, as
    /// `[instructions, busy ns]`; from here on it counts as paid.
    fn pay_through(&mut self, tick: u32) -> [u64; 2] {
        let tick = u64::from(tick);
        let mut owed = [0; 2];
        for ((owed, per), paid) in owed.iter_mut().zip(self.per_tick).zip(&mut self.paid) {
            *owed = tick * per - *paid;
            *paid = tick * per;
        }
        owed
    }
}

/// One resolved agenda entry.
enum Completion {
    Core(u8),
    Dma(DmaInFlight),
}

/// Every chip's outstanding completions (see the module docs). Empty
/// between run segments: a paused run carries them as
/// [`MachineEvent::CoreDone`] / [`MachineEvent::DmaDone`] pending events.
#[derive(Debug)]
pub(crate) struct Agenda {
    cores_per_chip: usize,
    /// Per `(chip, core)` slot: when the core's current work item
    /// finishes, [`IDLE`] while it sleeps.
    busy_until: Vec<u64>,
    /// Per chip: transfers in flight, in completion order.
    dma: Vec<VecDeque<DmaInFlight>>,
    /// Per chip: a lower bound on its earliest completion, so asking an
    /// up-to-date chip to advance costs one compare.
    next_due: Vec<u64>,
}

impl Agenda {
    pub(crate) fn new(chips: usize, cores_per_chip: usize) -> Self {
        Agenda {
            cores_per_chip,
            busy_until: vec![IDLE; chips * cores_per_chip],
            dma: vec![VecDeque::new(); chips],
            next_due: vec![IDLE; chips],
        }
    }

    fn busy_until(&self, chip: u32, core: u8) -> u64 {
        self.busy_until[chip as usize * self.cores_per_chip + core as usize]
    }

    fn start_core(&mut self, chip: u32, core: u8, done_ns: u64) {
        self.busy_until[chip as usize * self.cores_per_chip + core as usize] = done_ns;
        let due = &mut self.next_due[chip as usize];
        *due = (*due).min(done_ns);
    }

    /// Whether a transfer is in flight on `chip`'s SDRAM port.
    fn dma_in_flight(&self, chip: usize) -> bool {
        !self.dma[chip].is_empty()
    }

    fn start_dma(&mut self, chip: u32, dma: DmaInFlight) {
        let q = &mut self.dma[chip as usize];
        // The port clock is monotone, so transfers arrive in completion
        // order; only a zero-length one can tie with its predecessor,
        // and is then placed by the rest of `DmaDone`'s rank.
        let mut at = q.len();
        while at > 0 && q[at - 1].order() > dma.order() {
            at -= 1;
        }
        q.insert(at, dma);
        let due = &mut self.next_due[chip as usize];
        *due = (*due).min(dma.done_ns);
    }

    /// Takes `chip`'s earliest completion off the agenda if it falls
    /// before `limit_ns`, in the queue's order: by time, `CoreDone`
    /// (tag 5, lower core first) before `DmaDone` (tag 6).
    fn pop_due(&mut self, chip: u32, limit_ns: u64) -> Option<(u64, Completion)> {
        let chip = chip as usize;
        if self.next_due[chip] >= limit_ns {
            return None;
        }
        let base = chip * self.cores_per_chip;
        let slots = &mut self.busy_until[base..base + self.cores_per_chip];
        let (mut core, mut core_ns) = (0, IDLE);
        for (k, &t) in slots.iter().enumerate() {
            if t < core_ns {
                (core, core_ns) = (k, t);
            }
        }
        let dma_ns = self.dma[chip].front().map_or(IDLE, |d| d.done_ns);
        let first = core_ns.min(dma_ns);
        if first >= limit_ns {
            self.next_due[chip] = first;
            return None;
        }
        Some(if core_ns <= dma_ns {
            slots[core] = IDLE;
            (core_ns, Completion::Core(core as u8))
        } else {
            let dma = self.dma[chip].pop_front().expect("front was read");
            (dma_ns, Completion::Dma(dma))
        })
    }

    /// Empties the agenda, handing every outstanding completion to
    /// `emit` as the event — and at the instant — a queue would have
    /// held it.
    fn drain(&mut self, mut emit: impl FnMut(u64, MachineEvent)) {
        for (slot, at) in self.busy_until.iter_mut().enumerate() {
            if *at != IDLE {
                let chip = (slot / self.cores_per_chip) as u32;
                let core = (slot % self.cores_per_chip) as u8;
                emit(
                    std::mem::replace(at, IDLE),
                    MachineEvent::CoreDone { chip, core },
                );
            }
        }
        for (chip, q) in self.dma.iter_mut().enumerate() {
            for d in q.drain(..) {
                let (chip, core, key) = (chip as u32, d.core, d.key);
                emit(d.done_ns, MachineEvent::DmaDone { chip, core, key });
            }
        }
        self.next_due.fill(IDLE);
    }
}

impl AppCore {
    /// Whether finishing the current work item can put a packet on the
    /// fabric: it is a timer handler with spikes to emit, or a tick is
    /// owed (the core was busy at the tick, so finishing may *start*
    /// the timer handler). Only such a completion needs the event queue
    /// to see it happen; all others resolve on the chip's agenda.
    fn wakes_on_done(&self) -> bool {
        self.timer_pending > 0
            || (matches!(self.current, Some(WorkItem::Timer)) && !self.pending_spikes.is_empty())
    }
}

impl NeuralMachine {
    fn charge(&mut self, instructions: u64) -> u64 {
        self.meter.instructions += instructions;
        let ns = self.cfg.instr_ns(instructions);
        self.meter.core_active_ns += ns;
        ns
    }

    /// Starts the core's next work item at `now` if it is idle and has
    /// one, and enters the completion on the agenda (and in the queue,
    /// when it [wakes](AppCore::wakes_on_done)).
    fn dispatch(&mut self, chip: u32, core: u8, now: u64) {
        let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
        let Some(c) = self.cores[idx].as_mut() else {
            return;
        };
        if c.current.is_some() {
            return;
        }
        let costs = self.cfg.costs;
        // Priority: packet received > DMA complete > timer (Fig. 7).
        let ns = if let Some(key) = c.q_packets.pop_front() {
            // Hint 1 of the row fetch pipeline (module docs).
            c.matrix.hint_descriptor(key);
            c.current = Some(WorkItem::Packet(key));
            self.charge(costs.packet_isr_instr)
        } else if let Some(row) = c.q_rows.pop_front() {
            let len = c.matrix.row_len(row) as u64;
            c.current = Some(WorkItem::Row(row));
            self.charge(costs.dma_isr_instr + costs.per_synapse_instr * len)
        } else if c.timer_pending > 0 {
            c.timer_pending -= 1;
            // Advance the neural dynamics now; emit the spikes when the
            // handler's compute time has elapsed.
            let tick_ms = (now / MS) as u32;
            let c = self.cores[idx].as_mut().expect("checked above");
            debug_assert!(c.pending_spikes.is_empty());
            // The SoA pool walks flat state arrays; the split borrow
            // reads the drained ring slot in place and keeps the
            // spike/bias buffers out of the pool's way.
            let AppCore {
                neurons,
                bias_na,
                ring,
                pending_spikes,
                last_post_ms,
                base_key,
                ..
            } = &mut **c;
            let base_key = *base_key;
            let inputs = ring.tick();
            let tok = self.obs.phases().start();
            let moved = neurons.step_tick(
                |i| bias_na[i] + inputs[i] as f32 / 256.0,
                |i| {
                    pending_spikes.push(base_key + i as u32);
                    last_post_ms[i] = tick_ms as f64;
                },
            );
            self.obs.phases().record(Phase::NeuronTick, tok);
            c.spikes_emitted += c.pending_spikes.len() as u64;
            let n_neurons = c.neurons.len() as u64;
            let n_spikes = c.pending_spikes.len() as u64;
            self.obs.count(Counter::NeuronsTicked, n_neurons);
            c.current = Some(WorkItem::Timer);
            let tracing = self.obs.tracing();
            let c = self.cores[idx].as_ref().expect("checked above");
            for &key in &c.pending_spikes {
                self.spikes.push(SpikeRecord {
                    time_ms: tick_ms,
                    key,
                });
                if tracing {
                    self.obs.trace(now, TraceKind::Spike, key, tick_ms);
                }
            }
            let ns = self.charge(
                costs.timer_fixed_instr
                    + costs.per_neuron_instr * n_neurons
                    + costs.spike_emit_instr * n_spikes,
            );
            // The settle test, cheapest condition first: a core that
            // fires or moves pays one compare. The queues are empty —
            // they outrank the timer — and no tick is owed, so the next
            // tick would drain an empty slot into the same fixed point,
            // and finish before the one after it.
            let c = self.cores[idx].as_ref().expect("checked above");
            if !moved && c.timer_pending == 0 && tick_ms >= c.ring_quiet_ms && ns < MS {
                self.settle(chip, core, tick_ms, self.quiet_handler(n_neurons as usize));
            }
            ns
        } else {
            return; // Nothing to do — wait-for-interrupt sleep.
        };
        let done = now + ns;
        self.agenda.start_core(chip, core, done);
        if self.cores[idx].as_ref().is_some_and(|c| c.wakes_on_done()) {
            self.to_queue
                .push((done, MachineEvent::CoreDone { chip, core }));
        }
    }

    /// The core finishes its current work item at `now`. Reached only
    /// through [`NeuralMachine::advance_chip`].
    fn on_core_done(&mut self, chip: u32, core: u8, now: u64) {
        let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
        let Some(c) = self.cores[idx].as_mut() else {
            return;
        };
        match c.current.take() {
            Some(WorkItem::Packet(key)) => {
                // Master-population-table lookup: binary search over
                // the (key, mask) entries, neuron bits select the row.
                if let Some(row) = c.matrix.lookup(key) {
                    // Hint 2: the transfer starts, for the host too.
                    c.matrix.hint_row(row);
                    let bytes = c.matrix.row_bytes(row) as u64;
                    // The DMA controller transfers in the background; the
                    // chip's SDRAM port serializes transfers.
                    let start = now.max(self.dma_free_at[chip as usize]);
                    let done = start + self.cfg.dma_ns(bytes);
                    self.dma_free_at[chip as usize] = done;
                    self.meter.sdram_bytes += bytes;
                    self.agenda.start_dma(
                        chip,
                        DmaInFlight {
                            done_ns: done,
                            core,
                            key,
                            row,
                        },
                    );
                } else {
                    c.row_misses += 1;
                }
            }
            Some(WorkItem::Row(row)) => {
                let stdp = self.stdp;
                let now_ms = now as f64 / MS as f64;
                let mut writeback_bytes = None;
                let row_events = c.matrix.row_len(row) as u64;
                let tok = self.obs.phases().start();
                {
                    let mut modified = false;
                    if let Some(p) = stdp {
                        // Deferred pair-based STDP, applied at row fetch
                        // (pre-spike time) by `stdp::weight_change`.
                        // Weights are rewritten in place in the arena, as
                        // on hardware.
                        if c.row_last_pre_ms.is_empty() {
                            c.row_last_pre_ms = vec![f64::NEG_INFINITY; c.matrix.n_rows()];
                        }
                        let last_pre =
                            std::mem::replace(&mut c.row_last_pre_ms[row as usize], now_ms);
                        let last_post_ms = &c.last_post_ms;
                        // `ensure_row_mut`: a lazily stored row is
                        // materialized on this first write touch, so
                        // STDP keeps rewriting arena words in place.
                        for w in c.matrix.ensure_row_mut(row) {
                            let last_post = last_post_ms[w.target() as usize];
                            let dw = stdp::weight_change(now_ms, last_pre, last_post, &p);
                            if dw != 0 {
                                let updated = apply_bounded(w.weight_raw(), dw, &p);
                                if updated != w.weight_raw() {
                                    *w = w.with_weight_raw(updated);
                                    modified = true;
                                }
                            }
                        }
                    }
                    if modified {
                        c.dirty_rows.push(row);
                    }
                    let AppCore { matrix, ring, .. } = &mut **c;
                    // The DMA touch: a compressed (lazily stored) row is
                    // regenerated into the arena here, on first fetch.
                    for w in matrix.ensure_row(row) {
                        ring.deposit(w.delay_ms(), w.target() as usize, w.weight_raw() as i32);
                    }
                    if modified {
                        writeback_bytes = Some(matrix.row_bytes(row) as u64);
                    }
                }
                c.ring_quiet_ms = (now / MS) as u32 + RING_SLOTS as u32 + 1;
                self.obs.phases().record(Phase::RowWalk, tok);
                self.obs.count(Counter::SynapticEvents, row_events);
                if let Some(bytes) = writeback_bytes {
                    // §5.3: modified connectivity data is DMAed back.
                    self.weight_writebacks += 1;
                    self.meter.sdram_bytes += bytes;
                    let start = now.max(self.dma_free_at[chip as usize]);
                    self.dma_free_at[chip as usize] = start + self.cfg.dma_ns(bytes);
                }
            }
            Some(WorkItem::Timer) => {
                // The comms controller serializes packet emission: spikes
                // leave one per emit interval, not as an instantaneous
                // burst (which would overflow the output link queue).
                let gap = self.cfg.instr_ns(self.cfg.costs.spike_emit_instr).max(1);
                for (i, &key) in c.pending_spikes.iter().enumerate() {
                    self.to_queue.push((
                        now + i as u64 * gap,
                        MachineEvent::InjectSpike { chip, key },
                    ));
                }
                // Clear (not take): the buffer's capacity is reused on
                // the next tick.
                c.pending_spikes.clear();
            }
            None => {}
        }
        self.dispatch(chip, core, now);
    }

    /// A row transfer lands in the core's DTCM at `now`. A handler
    /// ending at `now` has finished first (`CoreDone` outranks
    /// `DmaDone`), hence the wake's limit.
    fn on_dma_done(&mut self, chip: u32, dma: DmaInFlight, now: u64) {
        // Every tick advances a chip with a transfer in flight, so one
        // landing on a settled core lands after the last tick handled.
        debug_assert!(
            self.settled[chip as usize] & (1 << dma.core) == 0
                || now / MS == u64::from(self.timer_ms)
        );
        self.wake(chip, dma.core, now + 1);
        let idx = chip as usize * self.cfg.cores_per_chip as usize + dma.core as usize;
        if let Some(c) = self.cores[idx].as_mut() {
            // Hint 3: the words have arrived; where they will deposit.
            for w in c.matrix.hinted_words(dma.row) {
                c.ring.hint_deposit(w.delay_ms(), w.target() as usize);
            }
            c.q_rows.push_back(dma.row);
            self.dispatch(chip, dma.core, now);
        }
    }

    /// `[instructions, busy ns]` of one timer handler that fires
    /// nothing, on a core of `neurons` neurons — what `dispatch`
    /// charges for such a tick.
    fn quiet_handler(&self, neurons: usize) -> [u64; 2] {
        let costs = self.cfg.costs;
        let instr = costs.timer_fixed_instr + costs.per_neuron_instr * neurons as u64;
        [instr, self.cfg.instr_ns(instr)]
    }

    /// Takes core `core` of `chip` out of the timer walk after its tick
    /// `tick`, whose handler cost `handler`: from here on its handlers
    /// accrue on the chip's [`QuietCharge`].
    fn settle(&mut self, chip: u32, core: u8, tick: u32, handler: [u64; 2]) {
        let chip = chip as usize;
        self.awake[chip] &= !(1 << core);
        self.settled[chip] |= 1 << core;
        self.quiet[chip].join(handler, tick);
        let idx = chip * self.cfg.cores_per_chip as usize + core as usize;
        self.cores[idx]
            .as_mut()
            .expect("a settling core is loaded")
            .settled_ms = Some(tick);
    }

    /// Puts settled core `core` of `chip` back in the timer walk,
    /// caught up through `tick` as if it had run every tick since it
    /// settled: the handlers the meter does not hold yet are charged,
    /// and the ring turns one slot per tick (every slot of a settled
    /// core's ring is zero, so only its cursor moves). Returns the
    /// ticks it skipped and one handler's duration.
    pub(crate) fn unsettle(&mut self, chip: u32, core: u8, tick: u32) -> (u32, u64) {
        let chip = chip as usize;
        self.settled[chip] &= !(1 << core);
        self.awake[chip] |= 1 << core;
        let idx = chip * self.cfg.cores_per_chip as usize + core as usize;
        let c = self.cores[idx].as_mut().expect("a settled core is loaded");
        let since = c.settled_ms.take().expect("the core is settled");
        turn_quiet_ring(&mut c.ring, tick - since);
        let neurons = c.neurons.len();
        let handler = self.quiet_handler(neurons);
        // `charge_settled` has paid every handler through the segment's
        // start.
        let paid = since.max(self.charged_ms);
        let owed = u64::from(tick - paid);
        self.meter.instructions += owed * handler[0];
        self.meter.core_active_ns += owed * handler[1];
        self.quiet[chip].leave(handler, paid);
        (tick - since, handler[1])
    }

    /// Puts a settled core back in the timer walk as work reaches it —
    /// a packet delivered, a row transfer done — with `limit_ns` the
    /// instant from which completions are not yet resolved (see
    /// [`NeuralMachine::advance_chip`]). It is caught up through the
    /// last tick the timer has handled; if that tick's handler, had it
    /// run, would still be busy at `limit_ns`, it is put back on the
    /// agenda, so the work waits for it as it would have. Does nothing
    /// to a core that is awake.
    fn wake(&mut self, chip: u32, core: u8, limit_ns: u64) {
        if self.settled[chip as usize] & (1 << core) == 0 {
            return;
        }
        let tick = self.timer_ms;
        let (skipped, handler_ns) = self.unsettle(chip, core, tick);
        let end = u64::from(tick) * MS + handler_ns;
        // With none skipped, the handler of `tick` really ran and its
        // completion is on the agenda already (or resolved).
        if skipped > 0 && end >= limit_ns {
            let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
            let c = self.cores[idx].as_mut().expect("a woken core is loaded");
            debug_assert!(c.current.is_none(), "a settled core sleeps");
            c.current = Some(WorkItem::Timer);
            self.agenda.start_core(chip, core, end);
        }
    }

    /// Puts every settled core back in the timer walk, caught up
    /// through the last tick handled — before a restore overwrites
    /// them, or a run restarts from another instant.
    pub(crate) fn wake_all(&mut self) {
        for chip in 0..self.settled.len() {
            while self.settled[chip] != 0 {
                let core = self.settled[chip].trailing_zeros() as u8;
                self.unsettle(chip as u32, core, self.timer_ms);
            }
        }
    }

    /// Charges the meter, at segment end, every handler the settled
    /// cores skipped through the segment's last tick. It costs one
    /// closed form per chip; the cores stay settled, and their rings
    /// turn only when they wake (or in a snapshot's copy).
    pub(crate) fn charge_settled(&mut self) {
        for q in &mut self.quiet {
            let [instructions, ns] = q.pay_through(self.timer_ms);
            self.meter.instructions += instructions;
            self.meter.core_active_ns += ns;
        }
        self.charged_ms = self.timer_ms;
    }

    /// Resolves every completion on `chip`'s agenda that falls before
    /// `limit_ns`, in the order the event queue would have popped them.
    /// Callers pass the present instant when the event they are
    /// handling ranks below completions (`Noc`, `Timer`: a completion
    /// at this very nanosecond comes after it) and the next one when it
    /// ranks above (`InjectSpike`, `ReissueSpike`, a wake).
    fn advance_chip(&mut self, chip: u32, limit_ns: u64) {
        let mut resolved = 0;
        while let Some((at, done)) = self.agenda.pop_due(chip, limit_ns) {
            resolved += 1;
            match done {
                Completion::Core(core) => self.on_core_done(chip, core, at),
                Completion::Dma(dma) => self.on_dma_done(chip, dma, at),
            }
        }
        if resolved > 0 {
            // A resolved completion is an event handled, wherever it
            // was kept.
            self.obs.count(Counter::Events, resolved);
        }
    }

    /// Puts what completions scheduled globally — spike injections and
    /// wakes — on the event queue. Each was issued by a completion
    /// resolved at the present instant, so none lies in the past
    /// (`schedule_at` asserts it).
    fn flush_to_queue(&mut self, ctx: &mut Context<MachineEvent>) {
        for (at, ev) in self.to_queue.drain(..) {
            ctx.schedule_at(SimTime::new(at), ev);
        }
    }

    /// Takes a carried-over handler or DMA completion back onto its
    /// chip's agenda; `false` (and nothing done) for any other event.
    /// A completion naming a core that is not loaded is dropped, as
    /// handling it would have been a no-op.
    pub(crate) fn absorb_completion(&mut self, p: &PendingEvent) -> bool {
        let per = self.cfg.cores_per_chip as usize;
        match p.event {
            MachineEvent::CoreDone { chip, core } => {
                if self.cores[chip as usize * per + core as usize].is_some() {
                    self.agenda.start_core(chip, core, p.at_ns);
                }
                true
            }
            MachineEvent::DmaDone { chip, core, key } => {
                let row = self.cores[chip as usize * per + core as usize]
                    .as_ref()
                    .and_then(|c| c.matrix.lookup(key));
                if let Some(row) = row {
                    self.agenda.start_dma(
                        chip,
                        DmaInFlight {
                            done_ns: p.at_ns,
                            core,
                            key,
                            row,
                        },
                    );
                }
                true
            }
            _ => false,
        }
    }

    /// The wakes a resumed segment owes the event queue: one
    /// [`MachineEvent::CoreDone`] per busy core whose completion
    /// [must be seen](AppCore::wakes_on_done), re-derived from core
    /// state after [`NeuralMachine::absorb_completion`].
    pub(crate) fn wakes(&self) -> Vec<(SimTime, MachineEvent)> {
        let per = self.cfg.cores_per_chip as usize;
        let mut wakes = Vec::new();
        for (chip, (&awake, &settled)) in self.awake.iter().zip(&self.settled).enumerate() {
            if self.agenda.next_due[chip] == IDLE {
                continue;
            }
            let mut cores = awake | settled;
            while cores != 0 {
                let core = cores.trailing_zeros() as u8;
                cores &= cores - 1;
                let chip = chip as u32;
                let done = self.agenda.busy_until(chip, core);
                let c = self.cores[chip as usize * per + core as usize].as_ref();
                if done != IDLE && c.is_some_and(|c| c.wakes_on_done()) {
                    wakes.push((SimTime::new(done), MachineEvent::CoreDone { chip, core }));
                }
            }
        }
        wakes
    }

    /// Empties the agenda into the checkpoint form of a paused run:
    /// `drained` (this machine's drained event queue) with its wakes
    /// replaced by one `CoreDone` per busy core and one `DmaDone` per
    /// transfer in flight, at the agenda's instants — what the queue
    /// would have held had every completion gone through it.
    pub(crate) fn agenda_into_pending(
        &mut self,
        mut drained: Vec<(SimTime, u128, MachineEvent)>,
    ) -> Vec<(SimTime, u128, MachineEvent)> {
        drained.retain(|(_, _, ev)| !matches!(ev, MachineEvent::CoreDone { .. }));
        self.agenda.drain(|at, ev| {
            drained.push((SimTime::new(at), tie_rank(&ev), ev));
        });
        drained
    }

    /// The coalesced 1 ms timer: services every *awake* core — loaded
    /// and not settled, its chip's [`NeuralMachine::awake`] bit set — in
    /// ascending `(chip, core)` order, the same order per-chip timer
    /// events used to pop in (their tie rank was the chip id, then
    /// cores ascending within the chip), so the replay is bit-identical
    /// while the per-tick cost tracks the cores that have something to
    /// do: a mesh of settled cores pays one word per chip.
    ///
    /// Each such chip is first advanced to the tick instant, so the
    /// handler sees the true core state; so is a chip of settled cores
    /// with a row transfer in flight, whose completion wakes its core
    /// before this tick. A core found busy has its completion made a
    /// wake: finishing may now start the timer handler.
    fn on_timer(&mut self, ctx: &mut Context<MachineEvent>) {
        let now = ctx.now().ticks();
        let tick_ms = now / MS;
        let per = self.cfg.cores_per_chip as usize;
        for chip in 0..self.awake.len() {
            if self.awake[chip] == 0 && !self.agenda.dma_in_flight(chip) {
                continue;
            }
            self.advance_chip(chip as u32, now);
            // Read after the advance: it may have woken a core.
            let mut cores = self.awake[chip];
            while cores != 0 {
                let core = cores.trailing_zeros() as u8;
                cores &= cores - 1;
                let chip = chip as u32;
                let c = self.cores[chip as usize * per + core as usize]
                    .as_mut()
                    .expect("an awake core is loaded");
                let woke_already = c.wakes_on_done();
                c.timer_pending += 1;
                if c.timer_pending > 1 {
                    // The previous tick has not even started: a
                    // real-time violation.
                    c.overruns += 1;
                }
                if c.current.is_none() {
                    self.dispatch(chip, core, now);
                } else if !woke_already {
                    let done = self.agenda.busy_until(chip, core);
                    self.to_queue
                        .push((done, MachineEvent::CoreDone { chip, core }));
                }
            }
        }
        self.timer_ms = tick_ms as u32;
        if tick_ms < self.duration_ms as u64 {
            ctx.schedule_in(MS, MachineEvent::Timer);
        }
    }

    /// Hands what the fabric has just delivered or dropped to the cores
    /// and the monitor. Only `Fabric::handle` and `Fabric::inject`
    /// produce either, so only the handlers that call them call this.
    /// A destination chip is advanced to `limit_ns` (see
    /// [`NeuralMachine::advance_chip`]) before its cores take a packet.
    fn drain_deliveries(&mut self, ctx: &mut Context<MachineEvent>, limit_ns: u64) {
        // §5.3: the monitor is informed of dropped packets and "can
        // recover the packet and re-issue it if appropriate". The 2-bit
        // timestamp field bounds the retries. Drains swap reusable
        // buffers with the fabric, so polling is allocation-free.
        let mut dropped_buf = std::mem::take(&mut self.dropped_scratch);
        self.fabric.swap_dropped(&mut dropped_buf);
        for dropped in dropped_buf.drain(..) {
            if self.obs.tracing() {
                let chip = self.fabric.torus().id_of(dropped.node) as u32;
                self.obs
                    .trace(dropped.time_ns, TraceKind::Drop, dropped.packet.key, chip);
            }
            if dropped.packet.kind == PacketKind::Multicast && dropped.packet.timestamp < 3 {
                let chip = self.fabric.torus().id_of(dropped.node) as u32;
                ctx.schedule_in(
                    20_000,
                    MachineEvent::ReissueSpike {
                        chip,
                        key: dropped.packet.key,
                        timestamp: dropped.packet.timestamp + 1,
                    },
                );
            }
        }
        self.dropped_scratch = dropped_buf;
        let now = ctx.now().ticks();
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        self.fabric.swap_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            if d.packet.kind != PacketKind::Multicast {
                continue; // p2p/nn system traffic is not used mid-run
            }
            self.obs.trace(now, TraceKind::Packet, d.packet.key, d.hops);
            self.spike_latency.record(now - d.injected_at_ns);
            self.meter.packet_hops += d.hops as u64;
            let chip = self.fabric.torus().id_of(d.node) as u32;
            self.advance_chip(chip, limit_ns);
            for core in 1..self.cfg.cores_per_chip {
                if d.cores & (1 << core) != 0 {
                    self.wake(chip, core, limit_ns);
                    let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
                    if let Some(c) = self.cores[idx].as_mut() {
                        c.q_packets.push_back(d.packet.key);
                        self.dispatch(chip, core, now);
                    }
                }
            }
        }
        self.delivery_scratch = deliveries;
    }
}

impl ShardModel for NeuralMachine {
    fn drain_outbox(&mut self, out: &mut Vec<RemoteEvent<MachineEvent>>) {
        out.extend(
            self.fabric
                .drain_remote()
                .map(|(at, dest, ev)| RemoteEvent {
                    at: SimTime::new(at),
                    dest: dest as usize,
                    event: MachineEvent::Noc(ev),
                }),
        );
    }

    /// Settles the segment: resolves every completion through
    /// `deadline` on every chip this machine owns. Nothing else touches
    /// the chips once the post-tick packet burst has passed, so this is
    /// where most row walks happen — on the shard's own worker.
    fn quiesce(&mut self, deadline: SimTime) {
        for chip in 0..self.cfg.chips() as u32 {
            self.advance_chip(chip, deadline.ticks() + 1);
        }
        debug_assert!(
            self.to_queue.is_empty(),
            "a completion that schedules globally resolves at its wake"
        );
    }
}

impl Model for NeuralMachine {
    type Event = MachineEvent;

    fn phase_probe(&self) -> PhaseProbe {
        self.obs.phases().clone()
    }

    fn tie_rank(ev: &MachineEvent) -> u128 {
        tie_rank(ev)
    }

    fn handle(&mut self, ctx: &mut Context<MachineEvent>, ev: MachineEvent) {
        let now = ctx.now().ticks();
        // A wake is not an event of its own: the completions it stands
        // for are counted as they resolve.
        if !matches!(ev, MachineEvent::CoreDone { .. }) {
            self.obs.count(Counter::Events, 1);
        }
        match ev {
            MachineEvent::Noc(ev) => {
                let tok = self.obs.phases().start();
                self.fabric
                    .handle(now, ev, &mut CtxScheduler::new(ctx, MachineEvent::Noc));
                self.obs.phases().record(Phase::RouterLookup, tok);
                self.drain_deliveries(ctx, now);
            }
            MachineEvent::Timer => self.on_timer(ctx),
            MachineEvent::FailLink { chip, dir } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.fail_link(coord, dir);
                self.obs
                    .trace(now, TraceKind::Fault, chip, dir.index() as u32);
            }
            MachineEvent::RepairLink { chip, dir } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.repair_link(coord, dir);
                self.obs
                    .trace(now, TraceKind::Repair, chip, dir.index() as u32);
            }
            MachineEvent::CoreDone { chip, .. } => self.advance_chip(chip, now + 1),
            MachineEvent::DmaDone { .. } => {
                unreachable!("DMA completions live on the chip agenda, never in the queue")
            }
            MachineEvent::InjectSpike { chip, key } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.inject(
                    now,
                    coord,
                    Packet::multicast(key),
                    &mut CtxScheduler::new(ctx, MachineEvent::Noc),
                );
                self.drain_deliveries(ctx, now + 1);
            }
            MachineEvent::ReissueSpike {
                chip,
                key,
                timestamp,
            } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                let mut packet = Packet::multicast(key);
                packet.timestamp = timestamp;
                self.reissued_packets += 1;
                self.fabric.inject(
                    now,
                    coord,
                    packet,
                    &mut CtxScheduler::new(ctx, MachineEvent::Noc),
                );
                self.drain_deliveries(ctx, now + 1);
            }
        }
        self.flush_to_queue(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
    use spinn_neuron::model::AnyNeuron;
    use spinn_neuron::synapse::SynapticWord;
    use spinn_neuron::synmatrix::SynapticMatrixBuilder;
    use spinn_noc::direction::Direction;
    use spinn_noc::fabric::{InFlight, NocEvent};
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::table::{McTableEntry, RouteSet};
    use spinn_sim::Engine;

    type MachineEngine = Engine<NeuralMachine>;

    const KEY: u32 = 0x42;
    const ORIGIN: NodeCoord = NodeCoord { x: 0, y: 0 };

    fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// A 2x2 machine whose chip 0 delivers `KEY` to its cores 1 and 2;
    /// core `c` holds `4 * c` neurons at `bias_na` and a `KEY` row of
    /// `4 * c` weak synapses (so the two cores' transfers differ in
    /// length).
    fn machine(bias_na: f32) -> NeuralMachine {
        let mut cfg = MachineConfig::new(2, 2);
        cfg.force_shards = true;
        let mut m = NeuralMachine::new(cfg);
        m.router_mut(ORIGIN)
            .table
            .insert(McTableEntry {
                key: KEY,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1).with_core(2),
            })
            .unwrap();
        for core in 1..=2u8 {
            let n = 4 * core as usize;
            m.load_core(
                ORIGIN,
                core,
                rs_neurons(n),
                vec![bias_na; n],
                0x1000 * core as u32,
            )
            .unwrap();
            let mut b = SynapticMatrixBuilder::new();
            let row = b.block(KEY, u32::MAX, 1);
            for t in 0..n as u16 {
                b.push(row, SynapticWord::new(4, 1, t));
            }
            m.install_matrix(ORIGIN, core, b.finish());
        }
        m
    }

    /// The machine inside a serial engine, as a run segment sets it up.
    fn engine(mut m: NeuralMachine, run_ms: u32) -> MachineEngine {
        m.duration_ms = run_ms;
        m.begin_segment(0, 0);
        Engine::resume_at(m, SimTime::ZERO)
    }

    fn inject(at: u64) -> (SimTime, MachineEvent) {
        (
            SimTime::new(at),
            MachineEvent::InjectSpike { chip: 0, key: KEY },
        )
    }

    fn core(e: &MachineEngine, core: usize) -> &AppCore {
        e.model().cores[core].as_deref().expect("loaded")
    }

    #[test]
    fn a_core_busy_at_the_tick_starts_its_timer_handler_through_a_wake() {
        // Strong bias: every neuron fires at the first tick.
        let mut e = engine(machine(400.0), 1);
        let cfg = *e.model().config();
        let isr = cfg.instr_ns(cfg.costs.packet_isr_instr);
        // The packet ISR straddles the tick instant.
        let (at, ev) = inject(MS - isr / 2);
        e.schedule_at(at, ev);
        e.schedule_at(SimTime::new(MS), MachineEvent::Timer);
        e.run_until(SimTime::new(MS));
        let busy_until = MS - isr / 2 + isr;
        let wakes = |e: &mut MachineEngine| {
            let queued = e.drain_events();
            let wakes: Vec<_> = queued
                .iter()
                .filter_map(|(t, _, ev)| match ev {
                    MachineEvent::CoreDone { core, .. } => Some((t.ticks(), *core)),
                    _ => None,
                })
                .collect();
            e.restore_events(queued);
            wakes
        };
        // The tick found both cores in their ISR: no handler started,
        // each completion became a wake at the ISR's end.
        assert_eq!(core(&e, 1).timer_pending, 1);
        assert_eq!(wakes(&mut e), vec![(busy_until, 1), (busy_until, 2)]);
        assert!(e.model().spikes().is_empty());
        // The wake finishes the ISR and starts the timer handler there.
        e.run_until(SimTime::new(busy_until));
        assert_eq!(e.model().spikes().len(), 4 + 8);
        assert!(e.model().spikes().iter().all(|s| s.time_ms == 1));
        let timer_ns = |neurons: u64| {
            cfg.instr_ns(
                cfg.costs.timer_fixed_instr
                    + (cfg.costs.per_neuron_instr + cfg.costs.spike_emit_instr) * neurons,
            )
        };
        let (done_1, done_2) = (busy_until + timer_ns(4), busy_until + timer_ns(8));
        assert_eq!(wakes(&mut e), vec![(done_1, 1), (done_2, 2)]);
        // Its spikes leave one emit gap apart from the handler's end.
        e.run_until(SimTime::new(done_1));
        let gap = cfg.instr_ns(cfg.costs.spike_emit_instr);
        let injections: Vec<_> = e
            .drain_events()
            .iter()
            .filter_map(|(t, _, ev)| match ev {
                MachineEvent::InjectSpike { key, .. } => Some((t.ticks(), *key)),
                _ => None,
            })
            .collect();
        // The first left at `done_1` itself and has been routed.
        let expected: Vec<_> = (1..4)
            .map(|i| (done_1 + i * gap, 0x1000 + i as u32))
            .collect();
        assert_eq!(injections, expected);
    }

    #[test]
    fn a_delivery_resolves_same_instant_completions_by_its_event_rank() {
        let isr = {
            let cfg = MachineConfig::new(2, 2);
            cfg.instr_ns(cfg.costs.packet_isr_instr)
        };
        let busy_core_at = |second: MachineEvent| {
            let mut e = engine(machine(0.0), 1);
            let (at, ev) = inject(0);
            e.schedule_at(at, ev);
            // A second packet at exactly the instant the ISR ends.
            e.schedule_at(SimTime::new(isr), second);
            assert_eq!(e.step(), Some(SimTime::ZERO));
            assert_eq!(e.step(), Some(SimTime::new(isr)));
            e
        };
        // A fabric arrival ranks below `CoreDone`: the packet is queued
        // behind the still-running ISR, whose completion stays put.
        let e = busy_core_at(MachineEvent::Noc(NocEvent::Arrive {
            node: 0,
            port: Direction::West.index() as u8,
            flight: InFlight {
                packet: Packet::multicast(KEY),
                hops: 1,
                injected_at: 0,
            },
        }));
        assert_eq!(e.model().agenda.busy_until(0, 1), isr);
        assert_eq!(core(&e, 1).q_packets.len(), 1);
        assert!(e.model().agenda.dma[0].is_empty());
        // An injection ranks above it: the ISR completes first (its DMA
        // starts), and the idle core takes the new packet at once.
        let e = busy_core_at(inject(isr).1);
        assert_eq!(e.model().agenda.busy_until(0, 1), 2 * isr);
        assert!(core(&e, 1).q_packets.is_empty());
        assert_eq!(e.model().agenda.dma[0].len(), 2);
    }

    #[test]
    fn cores_of_a_chip_take_the_dma_port_in_completion_order() {
        let mut e = engine(machine(0.0), 1);
        let cfg = *e.model().config();
        let (at, ev) = inject(0);
        e.schedule_at(at, ev);
        e.step();
        // Both ISRs end at the same instant; `CoreDone` ranks core 1
        // first, and core 2's transfer queues behind core 1's.
        let isr = cfg.instr_ns(cfg.costs.packet_isr_instr);
        let m = e.model_mut();
        m.advance_chip(0, isr);
        assert!(m.agenda.dma[0].is_empty(), "the limit is exclusive");
        m.advance_chip(0, isr + 1);
        let bytes = |core: usize| {
            let matrix = &m.cores[core].as_ref().expect("loaded").matrix;
            matrix.row_bytes(matrix.lookup(KEY).expect("row installed")) as u64
        };
        assert!(bytes(1) < bytes(2));
        let first = isr + cfg.dma_ns(bytes(1));
        let second = first + cfg.dma_ns(bytes(2));
        let port: Vec<_> = m.agenda.dma[0]
            .iter()
            .map(|d| (d.done_ns, d.core))
            .collect();
        assert_eq!(port, vec![(first, 1), (second, 2)]);
        assert_eq!(m.dma_free_at[0], second);
    }

    #[test]
    fn a_cut_mid_chain_carries_the_agenda_and_resumes_on_any_thread_count() {
        let cfg = MachineConfig::new(2, 2);
        let isr = cfg.instr_ns(cfg.costs.packet_isr_instr);
        let build = || {
            let mut m = machine(6.0);
            // The first segment ends at 2 ms - 1 ns: one packet whose
            // transfers are in flight there, one whose ISR is running.
            m.queue_stimulus(2 * MS - isr - 100, ORIGIN, KEY);
            m.queue_stimulus(2 * MS - isr / 2, ORIGIN, KEY);
            for ms in 3..40 {
                m.queue_stimulus(ms * MS + 17, ORIGIN, KEY);
            }
            m
        };
        let whole = build().run(40);
        assert!(!whole.spikes().is_empty(), "the biased cores must fire");

        let (m, pending) = build().run_segment(Vec::new(), 0, 1, 1);
        let completions: Vec<_> = pending
            .iter()
            .filter_map(|p| match p.event {
                MachineEvent::CoreDone { core, .. } => Some((p.at_ns, core, None)),
                MachineEvent::DmaDone { core, key, .. } => Some((p.at_ns, core, Some(key))),
                _ => None,
            })
            .collect();
        let row_bytes = |core: u64| 4 + 4 * (4 * core); // header word + synapses
        let dma_1 = 2 * MS - 100 + cfg.dma_ns(row_bytes(1));
        let dma_2 = dma_1 + cfg.dma_ns(row_bytes(2));
        let isr_done = 2 * MS - isr / 2 + isr;
        assert_eq!(
            completions,
            vec![
                (isr_done, 1, None),
                (isr_done, 2, None),
                (dma_1, 1, Some(KEY)),
                (dma_2, 2, Some(KEY)),
            ]
        );
        assert!(
            m.agenda.dma[0].is_empty(),
            "a paused machine holds no agenda"
        );

        let (m, pending) = m.run_segment(pending, 1, 19, 2);
        let (m, _) = m.run_segment(pending, 20, 20, 1);
        assert_eq!(m.spikes(), whole.spikes());
        assert_eq!(m.meter().instructions, whole.meter().instructions);
        assert_eq!(m.realtime_violations(), whole.realtime_violations());
    }
}
