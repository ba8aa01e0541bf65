//! Run segments: the one path by which the machine advances biological
//! time, whatever the thread count.
//!
//! Every segment runs through [`spinn_par::ParEngine`], on
//! [`NeuralMachine::effective_threads`] shards. The machine itself is
//! shard 0: it keeps its cores, fabric and accumulated results in place
//! and runs the chips it owns. Shards 1.. are split off at segment
//! start, each with a replica of the fabric and the cores it owns, and
//! merged back at segment end. Which chips each shard owns is a
//! function of the loaded cores alone (`partition.rs`), so every
//! segment of a run — restored from a checkpoint or not — cuts alike. A serial run is a one-shard run: no
//! partition to compute, no machine to split off, no fabric to clone,
//! and — with no other shard to reply to it — one engine pass over the
//! whole segment.

use spinn_noc::fabric::Partition;
use spinn_obs::Counter;
use spinn_par::ParEngine;
use spinn_sim::SimTime;

use crate::events::{canonical_pending, event_chip, MachineEvent};
use crate::machine::{NeuralMachine, PendingEvent, MS};

impl NeuralMachine {
    /// Runs the machine for `ms` milliseconds of biological time and
    /// returns it with all statistics populated.
    pub fn run(self, ms: u32) -> NeuralMachine {
        self.run_segment(Vec::new(), 0, ms, 1).0
    }

    /// Advances the machine by one **run segment**: `ms` milliseconds of
    /// biological time starting at `from_ms` (the machine must already
    /// hold the state of a run up to `from_ms`; pass 0 for a fresh
    /// machine). `pending` carries the events a previous segment left
    /// queued; the returned vector carries the events this segment
    /// leaves queued — in-flight packets, busy-link retries, handler
    /// completions — in canonical `(time, rank)` order.
    ///
    /// Chaining segments is **bit-exact**: `run_segment(p, 0, a+b, t)`
    /// produces the same machine as `run_segment(p, 0, a, t)` followed
    /// by `run_segment(p', a, b, t')`, for any segment lengths and any
    /// (possibly different) thread counts per segment.
    /// Segment `k` processes exactly the events in
    /// `(boundary(from), boundary(from + ms)]` with
    /// `boundary(x) = (x + 1) ms − 1 ns`, so the union over segments is
    /// independent of where the cuts fall; the boundary never coincides
    /// with a timer tick, and the coalesced 1 ms timer chain (which ends
    /// at `from + ms`) is restarted by the next segment at the same
    /// instant and tie rank it would have fired at in an unbroken run.
    ///
    /// With `threads` > 1 (clamped by
    /// [`NeuralMachine::effective_threads`]) the chips are cut into
    /// contiguous blocks of dense ids balanced by the loaded cores, one
    /// static shard per worker (`spinn-par`). Each shard advances its
    /// own event queue inside conservative windows bounded by the
    /// minimum inter-chip link latency
    /// ([`spinn_noc::fabric::FabricConfig::min_remote_delay_ns`]), and
    /// spike packets crossing a shard boundary are exchanged at window
    /// barriers with their exact arrival timestamps, so any thread count
    /// replays the serial run event for event.
    ///
    /// [`NeuralMachine::run`] is `run_segment(vec![], 0, ms, 1)` with
    /// the leftover events discarded.
    pub fn run_segment(
        mut self,
        pending: Vec<PendingEvent>,
        from_ms: u32,
        ms: u32,
        threads: usize,
    ) -> (NeuralMachine, Vec<PendingEvent>) {
        if ms == 0 {
            return (self, pending);
        }
        if from_ms != self.timer_ms {
            // A run restarted from another instant: its settled cores
            // were caught up to a clock this segment does not continue.
            self.wake_all();
            self.charged_ms = from_ms;
        }
        let shards = self.effective_threads(threads);
        let target = from_ms + ms;
        let lookahead = self.cfg.fabric.min_remote_delay_ns().max(1);
        self.duration_ms = target;
        let owner = if shards == 1 {
            vec![0; self.cfg.chips()]
        } else {
            self.load_balanced_owner(shards)
        };
        let stimuli = std::mem::take(&mut self.stimuli);
        let faults = std::mem::take(&mut self.fault_plan);
        let repairs = std::mem::take(&mut self.repair_plan);
        let mut machines: Vec<NeuralMachine> = (1..shards as u32)
            .map(|s| self.split_off(&owner, s))
            .collect();
        if shards > 1 {
            self.fabric.set_partition(Partition::new(owner.clone(), 0));
        }
        machines.insert(0, self);
        for (s, m) in machines.iter_mut().enumerate() {
            // Each shard's coalesced timer services exactly its owned
            // awake cores, and its telemetry handles are scoped to it
            // (the trace ring is sized against what it holds
            // *now*) — both needed before the engines are built, which
            // capture the phase probe.
            m.begin_segment(s as u32, from_ms);
        }

        // Carried-over completions go back on the agenda of the shard
        // owning their chip; its queue gets a wake for each it must see.
        let pending: Vec<PendingEvent> = pending
            .into_iter()
            .filter(|p| {
                !event_chip(&p.event).is_some_and(|chip| {
                    machines[owner[chip as usize] as usize].absorb_completion(p)
                })
            })
            .collect();
        let wakes: Vec<_> = machines.iter().map(NeuralMachine::wakes).collect();
        let start = Self::segment_start_ns(from_ms);
        let mut par = ParEngine::resume_at(machines, SimTime::new(start));
        // Events that mutate replicated state (the coalesced timer, link
        // failures and repairs) go to every shard; the rest to the shard
        // owning their chip. Same-instant order is by content rank,
        // never by which call staged an event.
        let broadcast = |par: &mut ParEngine<_>, at: u64, ev: MachineEvent| {
            for shard in 0..shards {
                par.schedule(shard, SimTime::new(at), ev);
            }
        };
        broadcast(&mut par, (from_ms as u64 + 1) * MS, MachineEvent::Timer);
        for (shard, wakes) in wakes.into_iter().enumerate() {
            for (at, wake) in wakes {
                par.schedule(shard, at, wake);
            }
        }
        for p in pending {
            match event_chip(&p.event) {
                Some(chip) => par.schedule(
                    owner[chip as usize] as usize,
                    SimTime::new(p.at_ns),
                    p.event,
                ),
                None => broadcast(&mut par, p.at_ns, p.event),
            }
        }
        for (t, chip, key) in stimuli {
            par.schedule(
                owner[chip as usize] as usize,
                SimTime::new(t),
                MachineEvent::InjectSpike { chip, key },
            );
        }
        for (t, chip, dir) in faults {
            broadcast(&mut par, t, MachineEvent::FailLink { chip, dir });
        }
        for (t, chip, dir) in repairs {
            broadcast(&mut par, t, MachineEvent::RepairLink { chip, dir });
        }
        par.run_until(SimTime::new(Self::segment_end_ns(target)), lookahead);
        let stats = par.stats().clone();
        let queue_peaks = par.queue_peaks();

        let mut parts = par.into_parts().into_iter().zip(queue_peaks);
        let ((mut m, queued), peak) = parts.next().expect("at least one shard");
        // Settled cores skipped the segment's ticks: charge them before
        // anything reads the meter.
        m.charge_settled();
        m.obs.gauge_max(Counter::QueuePeak, peak as u64);
        m.count_tallies();
        m.telemetry.absorb(&mut m.obs);
        let mut drained = vec![m.agenda_into_pending(queued)];
        for (s, ((mut shard, queued), peak)) in (1..).zip(parts) {
            shard.charge_settled();
            drained.push(shard.agenda_into_pending(queued));
            shard.obs.gauge_max(Counter::QueuePeak, peak as u64);
            shard.count_tallies();
            m.telemetry.absorb(&mut shard.obs);
            m.merge_shard(shard, s);
        }
        m.fabric.clear_partition();
        // Window counters accumulate across segments, like every other
        // run statistic.
        let par_stats = m.par_stats.get_or_insert_with(Default::default);
        par_stats.windows += stats.windows;
        par_stats.events += stats.events;
        par_stats.exchanged += stats.exchanged;
        par_stats.busy += stats.busy;
        let pending_out = canonical_pending(drained);
        m.finalize();
        (m, pending_out)
    }

    /// The instant a segment starting at `from_ms` resumes from: time
    /// zero for a fresh run, else the previous segment's end boundary.
    pub(crate) fn segment_start_ns(from_ms: u32) -> u64 {
        if from_ms == 0 {
            0
        } else {
            (from_ms as u64 + 1) * MS - 1
        }
    }

    /// The inclusive event horizon of a segment ending at `target_ms`:
    /// one drain millisecond past the last timer tick, stopping one
    /// nanosecond short of the next tick's instant so a later segment
    /// can still interleave its restarted timer by rank.
    fn segment_end_ns(target_ms: u32) -> u64 {
        (target_ms as u64 + 1) * MS - 1
    }

    /// Splits off shard `shard` (>= 1): a fresh machine on a replica of
    /// this one's fabric, partitioned by `owner`, holding the cores of
    /// the chips it owns. Results start empty and are merged back by
    /// [`NeuralMachine::merge_shard`].
    fn split_off(&mut self, owner: &[u32], shard: u32) -> NeuralMachine {
        let mut m = NeuralMachine::new(self.cfg);
        m.fabric = self.fabric.clone();
        m.fabric
            .set_partition(Partition::new(owner.to_vec(), shard));
        m.stdp = self.stdp;
        m.duration_ms = self.duration_ms;
        m.charged_ms = self.charged_ms;
        m.dma_free_at = self.dma_free_at.clone();
        for (chip, _) in owner.iter().enumerate().filter(|&(_, &o)| o == shard) {
            m.awake[chip] = std::mem::take(&mut self.awake[chip]);
            m.settled[chip] = std::mem::take(&mut self.settled[chip]);
            m.quiet[chip] = std::mem::take(&mut self.quiet[chip]);
        }
        let per = self.cfg.cores_per_chip as usize;
        for (idx, slot) in self.cores.iter_mut().enumerate() {
            if owner[idx / per] == shard && slot.is_some() {
                m.cores[idx] = slot.take();
            }
        }
        m
    }

    /// Takes back what shard `shard` ran: its chips' routers and links,
    /// its cores, and the results it accumulated this segment.
    fn merge_shard(&mut self, mut shard: NeuralMachine, s: u32) {
        self.fabric.adopt_owned(&mut shard.fabric, s);
        for (mine, theirs) in self.cores.iter_mut().zip(&mut shard.cores) {
            if theirs.is_some() {
                *mine = theirs.take();
            }
        }
        for chip in 0..self.awake.len() {
            if shard.awake[chip] | shard.settled[chip] != 0 {
                self.awake[chip] = shard.awake[chip];
                self.settled[chip] = shard.settled[chip];
                self.quiet[chip] = shard.quiet[chip];
            }
        }
        self.spikes.extend(shard.spikes);
        self.meter.merge(&shard.meter);
        self.spike_latency.merge(&shard.spike_latency);
        self.reissued_packets += shard.reissued_packets;
        self.weight_writebacks += shard.weight_writebacks;
        // Only a chip's owner advances its DMA port clock; everyone
        // else still holds the segment-start value.
        for (a, b) in self.dma_free_at.iter_mut().zip(&shard.dma_free_at) {
            *a = (*a).max(*b);
        }
    }
}
