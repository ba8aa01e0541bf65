//! The interrupt handlers of Fig. 7 — packet received, DMA complete,
//! 1 ms timer — and the event dispatch that drives them.

use spinn_neuron::stdp::apply_bounded;
use spinn_noc::fabric::{CtxScheduler, NocEvent};
use spinn_noc::packet::{Packet, PacketKind};
use spinn_obs::{Counter, Phase, PhaseProbe, TraceKind};
use spinn_par::{RemoteEvent, ShardModel};
use spinn_sim::{Context, Model, SimTime};

use crate::events::{event_chip, tie_rank, MachineEvent};
use crate::machine::{AppCore, NeuralMachine, SpikeRecord, WorkItem, MS};

impl NeuralMachine {
    fn charge(&mut self, instructions: u64) -> u64 {
        self.meter.instructions += instructions;
        let ns = self.cfg.instr_ns(instructions);
        self.meter.core_active_ns += ns;
        ns
    }

    fn dispatch(&mut self, chip: u32, core: u8, ctx: &mut Context<MachineEvent>) {
        let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
        let Some(c) = self.cores[idx].as_mut() else {
            return;
        };
        if c.current.is_some() {
            return;
        }
        let costs = self.cfg.costs;
        // Priority: packet received > DMA complete > timer (Fig. 7).
        if let Some(key) = c.q_packets.pop_front() {
            c.current = Some(WorkItem::Packet(key));
            let ns = self.charge(costs.packet_isr_instr);
            ctx.schedule_in(ns, MachineEvent::CoreDone { chip, core });
        } else if let Some(row) = c.q_rows.pop_front() {
            let len = c.matrix.row_len(row) as u64;
            c.current = Some(WorkItem::Row(row));
            let ns = self.charge(costs.dma_isr_instr + costs.per_synapse_instr * len);
            ctx.schedule_in(ns, MachineEvent::CoreDone { chip, core });
        } else if c.timer_pending > 0 {
            c.timer_pending -= 1;
            // Advance the neural dynamics now; emit the spikes when the
            // handler's compute time has elapsed. The ring-slot snapshot
            // reuses a machine-level buffer (allocation-free per tick).
            let tick_ms = (ctx.now().ticks() / MS) as u32;
            let mut inputs = std::mem::take(&mut self.tick_inputs);
            let c = self.cores[idx].as_mut().expect("checked above");
            inputs.clear();
            inputs.extend_from_slice(c.ring.tick());
            debug_assert!(c.pending_spikes.is_empty());
            // The SoA pool walks flat state arrays; the split borrow
            // keeps the spike/bias buffers out of the pool's way.
            let AppCore {
                neurons,
                bias_na,
                pending_spikes,
                last_post_ms,
                base_key,
                ..
            } = &mut **c;
            let base_key = *base_key;
            let tok = self.obs.phases().start();
            neurons.step_tick(
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
            self.obs.counters().add(Counter::NeuronsTicked, n_neurons);
            self.obs.counters().add(Counter::Spikes, n_spikes);
            c.current = Some(WorkItem::Timer);
            let now_ns = ctx.now().ticks();
            let tracing = self.obs.tracing();
            let c = self.cores[idx].as_ref().expect("checked above");
            for &key in &c.pending_spikes {
                self.spikes.push(SpikeRecord {
                    time_ms: tick_ms,
                    key,
                });
                if tracing {
                    self.obs.trace(now_ns, TraceKind::Spike, key, tick_ms);
                }
            }
            self.tick_inputs = inputs;
            let ns = self.charge(
                costs.timer_fixed_instr
                    + costs.per_neuron_instr * n_neurons
                    + costs.spike_emit_instr * n_spikes,
            );
            ctx.schedule_in(ns, MachineEvent::CoreDone { chip, core });
        }
        // Else: nothing to do — wait-for-interrupt sleep.
    }

    fn on_core_done(&mut self, chip: u32, core: u8, ctx: &mut Context<MachineEvent>) {
        let now = ctx.now().ticks();
        let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
        let Some(c) = self.cores[idx].as_mut() else {
            return;
        };
        match c.current.take() {
            Some(WorkItem::Packet(key)) => {
                // Master-population-table lookup: binary search over
                // the (key, mask) entries, neuron bits select the row.
                if let Some(row) = c.matrix.lookup(key) {
                    let bytes = c.matrix.row_bytes(row) as u64;
                    // The DMA controller transfers in the background; the
                    // chip's SDRAM port serializes transfers.
                    let start = now.max(self.dma_free_at[chip as usize]);
                    let done = start + self.cfg.dma_ns(bytes);
                    self.dma_free_at[chip as usize] = done;
                    self.meter.sdram_bytes += bytes;
                    self.obs.counters().add(Counter::DmaBytes, bytes);
                    ctx.schedule_at(
                        SimTime::new(done),
                        MachineEvent::DmaDone { chip, core, key },
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
                        // (pre-spike time): depress against the target's
                        // most recent post-spike; potentiate the
                        // *previous* pre-spike against any post that
                        // followed it. Weights are rewritten in place in
                        // the arena, as on hardware.
                        let last_pre =
                            std::mem::replace(&mut c.row_last_pre_ms[row as usize], now_ms);
                        let last_post_ms = &c.last_post_ms;
                        // `ensure_row_mut`: a lazily stored row is
                        // materialized on this first write touch, so
                        // STDP keeps rewriting arena words in place.
                        for w in c.matrix.ensure_row_mut(row) {
                            let n = w.target() as usize;
                            let last_post = last_post_ms[n];
                            let mut dw = 0i16;
                            if last_post.is_finite() && last_post <= now_ms {
                                let dt = (now_ms - last_post) as f32;
                                dw -= (p.a_minus * (-dt / p.tau_minus_ms).exp()).round() as i16;
                            }
                            if last_post.is_finite() && last_pre.is_finite() && last_post > last_pre
                            {
                                let dt = (last_post - last_pre) as f32;
                                dw += (p.a_plus * (-dt / p.tau_plus_ms).exp()).round() as i16;
                            }
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
                self.obs.phases().record(Phase::RowWalk, tok);
                self.obs.counters().add(Counter::SynapticEvents, row_events);
                if let Some(bytes) = writeback_bytes {
                    // §5.3: modified connectivity data is DMAed back.
                    self.weight_writebacks += 1;
                    self.meter.sdram_bytes += bytes;
                    self.obs.counters().add(Counter::DmaBytes, bytes);
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
                    ctx.schedule_in(i as u64 * gap, MachineEvent::InjectSpike { chip, key });
                }
                // Clear (not take): the buffer's capacity is reused on
                // the next tick.
                c.pending_spikes.clear();
            }
            None => {}
        }
        self.dispatch(chip, core, ctx);
    }

    /// The coalesced 1 ms timer: services every *loaded* core in
    /// `self.timer_cores` in ascending `(chip, core)` order — the same
    /// order per-chip timer events used to pop in (their tie rank was
    /// the chip id, then cores ascending within the chip), so the
    /// replay is bit-identical while the per-tick cost tracks loaded
    /// cores, not mesh size: a million-core mesh with ten loaded cores
    /// pays for ten, not for 1.3 M empty `Option` probes.
    fn on_timer(&mut self, ctx: &mut Context<MachineEvent>) {
        let tick_ms = ctx.now().ticks() / MS;
        for i in 0..self.timer_cores.len() {
            let (chip, core) = self.timer_cores[i];
            let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
            if let Some(c) = self.cores[idx].as_mut() {
                c.timer_pending += 1;
                if c.timer_pending > 1 {
                    // The previous tick has not even started: a
                    // real-time violation.
                    c.overruns += 1;
                }
                self.dispatch(chip, core, ctx);
            }
        }
        if tick_ms < self.duration_ms as u64 {
            ctx.schedule_in(MS, MachineEvent::Timer);
        }
    }

    /// Hands what the fabric has just delivered or dropped to the cores
    /// and the monitor. Only `Fabric::handle` and `Fabric::inject`
    /// produce either, so only the handlers that call them call this.
    fn drain_deliveries(&mut self, ctx: &mut Context<MachineEvent>) {
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
            for core in 1..self.cfg.cores_per_chip {
                if d.cores & (1 << core) != 0 {
                    let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
                    if let Some(c) = self.cores[idx].as_mut() {
                        c.q_packets.push_back(d.packet.key);
                        self.dispatch(chip, core, ctx);
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
        self.obs.counters().add(Counter::Events, 1);
        if let Some(chip) = event_chip(&ev) {
            // Measured per-chip load, seeding the next segment's
            // event-weighted partition.
            self.chip_events[chip as usize] += 1;
        }
        match ev {
            MachineEvent::Noc(ev) => {
                if let NocEvent::Arrive { node, port, .. } = &ev {
                    self.link_flux[*node as usize * 6 + *port as usize] += 1;
                }
                let tok = self.obs.phases().start();
                self.fabric
                    .handle(now, ev, &mut CtxScheduler::new(ctx, MachineEvent::Noc));
                self.obs.phases().record(Phase::RouterLookup, tok);
                self.drain_deliveries(ctx);
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
            MachineEvent::CoreDone { chip, core } => self.on_core_done(chip, core, ctx),
            MachineEvent::DmaDone { chip, core, key } => {
                let idx = chip as usize * self.cfg.cores_per_chip as usize + core as usize;
                if let Some(c) = self.cores[idx].as_mut() {
                    // The row existed when the DMA was scheduled and
                    // rows are never removed mid-run, so the lookup
                    // re-resolves to the same row.
                    if let Some(row) = c.matrix.lookup(key) {
                        c.q_rows.push_back(row);
                        self.dispatch(chip, core, ctx);
                    }
                }
            }
            MachineEvent::InjectSpike { chip, key } => {
                let coord = self.fabric.torus().coord_of(chip as usize);
                self.fabric.inject(
                    now,
                    coord,
                    Packet::multicast(key),
                    &mut CtxScheduler::new(ctx, MachineEvent::Noc),
                );
                self.drain_deliveries(ctx);
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
                self.drain_deliveries(ctx);
            }
        }
    }
}
