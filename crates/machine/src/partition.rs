//! How a run segment cuts the machine into shards: how many
//! ([`NeuralMachine::effective_threads`]) and which chips each one owns
//! (`event_weighted_owner`).

use spinn_noc::direction::Direction;

use crate::machine::NeuralMachine;

impl NeuralMachine {
    /// The worker count — and shard count — a run request actually
    /// gets: clamped to `[1, chips]`, and — unless
    /// [`MachineConfig::force_shards`](crate::config::MachineConfig::force_shards)
    /// asks otherwise — to the host's parallelism. Workers exist to
    /// occupy cores; more shards buy no parallelism yet still pay the
    /// window/exchange machinery, and results are shard-count-invariant,
    /// so the collapse is free. Public so benchmark rows can record the
    /// post-clamp parallelism honestly next to the requested one.
    pub fn effective_threads(&self, threads: usize) -> usize {
        if threads <= 1 {
            return 1;
        }
        let threads = threads.min(self.cfg.chips());
        if self.cfg.force_shards {
            threads
        } else {
            threads.min(spinn_par::host_parallelism())
        }
    }

    /// Event-weighted contiguous chip partition: the cut of the dense
    /// chip-id axis into `threads` blocks that minimises the busiest
    /// shard's predicted work.
    ///
    /// Chip weights come from *measured* load when available — the
    /// per-chip event counts accumulated by every previous segment —
    /// because activity (which chips the spike traffic actually hammers)
    /// is what the partition has to balance, and no static estimate
    /// predicts it. A fresh machine falls back to a structural estimate:
    /// every mapped neuron costs a tick event per millisecond and every
    /// synapse feeds the packet/DMA/row-walk path in proportion to
    /// activity, while empty chips only see the coalesced timer scan.
    ///
    /// The partition is a heuristic and part of no result (every cut
    /// replays the serial run bit for bit); it is deterministic — a
    /// pure function of the weights and the measured link traffic, in
    /// integer arithmetic, ties to the earliest cut — so run traces
    /// stay comparable.
    pub(crate) fn event_weighted_owner(&self, threads: usize) -> Vec<u32> {
        let chips = self.cfg.chips();
        debug_assert!(threads >= 2 && threads <= chips);
        let per = self.cfg.cores_per_chip as usize;
        // Floor of 16 per chip: timer scans keep even empty chips
        // slightly warm, and a nonzero floor keeps the split total-order
        // stable when whole regions are unmapped.
        let mut weight = vec![16u64; chips];
        let measured: u64 = self.chip_events.iter().sum();
        if measured >= 1024 {
            for (w, &n) in weight.iter_mut().zip(&self.chip_events) {
                *w += n;
            }
        } else {
            for (idx, slot) in self.cores.iter().enumerate() {
                if let Some(core) = slot.as_ref() {
                    weight[idx / per] +=
                        core.neurons.len() as u64 + core.matrix.total_synapses() / 64;
                }
            }
        }
        // The DP below is O(shards · B²) with a B² flux matrix over the
        // cut axis. Exact per-chip resolution is affordable to ~1k
        // chips; beyond that the dense-id axis is grouped into at most
        // 1024 contiguous *blocks* (cuts then land on block edges —
        // plenty for balancing, since any shard spans many blocks). At
        // or below 1024 chips the stride is 1 and the partition is
        // bit-identical to the exact DP; a 65k-chip mesh costs a
        // 1024-block DP instead of a 4-billion-entry flux matrix.
        let stride = chips.div_ceil(1024).min((chips / threads).max(1)).max(1);
        let nb = chips.div_ceil(stride);
        debug_assert!(nb >= threads);
        let mut prefix = vec![0u64; nb + 1];
        for (chip, w) in weight.iter().enumerate() {
            prefix[chip / stride + 1] += *w;
        }
        for b in 0..nb {
            prefix[b + 1] += prefix[b];
        }
        // The objective is a makespan in units of one handled event:
        // the workers meet at a barrier every window, so a segment takes
        // as long as its busiest shard, and a shard's work is
        //
        //     events it handles + CROSS_HOP_COST * hops it exchanges,
        //
        // a hop being exchanged by both shards it joins (`link_flux`
        // entries whose endpoints the cut separates). Kept inside a
        // shard a hop is one queue push, already counted among the
        // events. Across shards the sender also stages it and pushes an
        // envelope under the destination's mailbox lock, and the
        // receiver sorts it into canonical order and schedules it: about
        // one more event's worth of work on each side, hence 2 for the
        // pair. So a chatty cluster is kept whole when that costs less
        // imbalance than twice the hops a cut through it would exchange,
        // and is split when it does not; before any traffic is measured
        // the flux is zero and the cut is pure load balance.
        const CROSS_HOP_COST: u64 = 2;
        let torus = *self.fabric.torus();
        // Block-to-block hop counts as 2-D prefix sums, so the traffic
        // inside, into and out of a contiguous block range is O(1) per
        // DP transition.
        let side = nb + 1;
        let mut fpre = vec![0u64; side * side];
        for node in 0..chips {
            for port in 0..6 {
                let hops = self.link_flux[node * 6 + port];
                if hops > 0 {
                    let from = torus
                        .id_of(torus.neighbour(torus.coord_of(node), Direction::from_index(port)));
                    fpre[(from / stride + 1) * side + node / stride + 1] += hops;
                }
            }
        }
        for i in 1..side {
            for j in 1..side {
                fpre[i * side + j] += fpre[(i - 1) * side + j] + fpre[i * side + j - 1]
                    - fpre[(i - 1) * side + j - 1];
            }
        }
        // Hops between block ranges [r0, r1) -> [c0, c1).
        let hops = |r0: usize, r1: usize, c0: usize, c1: usize| {
            fpre[r1 * side + c1] + fpre[r0 * side + c0]
                - fpre[r0 * side + c1]
                - fpre[r1 * side + c0]
        };
        let work = |a: usize, b: usize| {
            let exchanged = hops(a, b, 0, nb) + hops(0, nb, a, b) - 2 * hops(a, b, a, b);
            prefix[b] - prefix[a] + CROSS_HOP_COST * exchanged
        };
        // dp[s][c]: least makespan splitting blocks [0, c) into s+1
        // non-empty shards (every prefix is itself split optimally, so
        // the shards below the busiest one are balanced too).
        let mut dp = vec![vec![u64::MAX; nb + 1]; threads];
        let mut cut_at = vec![vec![0usize; nb + 1]; threads];
        #[allow(clippy::needless_range_loop)] // indexes two tables in lockstep
        for c in 1..=nb {
            dp[0][c] = work(0, c);
        }
        for s in 1..threads {
            for c in (s + 1)..=nb {
                let mut best = u64::MAX;
                let mut best_b = s;
                #[allow(clippy::needless_range_loop)] // reads dp[s-1][b], not an iterable
                for b in s..c {
                    let cost = dp[s - 1][b].max(work(b, c));
                    if cost < best {
                        best = cost;
                        best_b = b;
                    }
                }
                dp[s][c] = best;
                cut_at[s][c] = best_b;
            }
        }
        let mut owner = vec![0u32; chips];
        let mut end = nb;
        for s in (1..threads).rev() {
            let start = cut_at[s][end];
            for o in owner
                .iter_mut()
                .take((end * stride).min(chips))
                .skip(start * stride)
            {
                *o = s as u32;
            }
            end = start;
        }
        owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
    use spinn_neuron::model::AnyNeuron;
    use spinn_noc::mesh::NodeCoord;

    fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// A bare 4x4 machine carrying a measured load: chip `i` weighs
    /// `weight[i]` in the partition (its event count plus the per-chip
    /// floor of 16), every link carries `background` hops, and each
    /// `(chip, hops)` of `eastward` adds hops sent by `chip` to its
    /// East neighbour and as many coming back.
    fn measured_machine(
        weight: [u64; 16],
        background: u64,
        eastward: &[(usize, u64)],
    ) -> NeuralMachine {
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        for (events, w) in m.chip_events.iter_mut().zip(weight) {
            *events = w - 16;
        }
        m.link_flux.fill(background);
        for &(chip, hops) in eastward {
            assert!(chip % 4 < 3, "East of a row's last chip wraps around");
            // A packet sent East arrives through the receiver's West
            // port, and the other way round.
            m.link_flux[(chip + 1) * 6 + Direction::West.index()] += hops;
            m.link_flux[chip * 6 + Direction::East.index()] += hops;
        }
        m
    }

    /// Where a two-shard owner vector switches from shard 0 to shard 1.
    fn cut_of(owner: &[u32]) -> usize {
        let cut = owner.iter().position(|&o| o == 1).expect("two shards");
        assert!(owner[..cut].iter().all(|&o| o == 0) && owner[cut..].iter().all(|&o| o == 1));
        cut
    }

    #[test]
    fn partition_balances_measured_load_despite_uniform_traffic() {
        // The benchmark net in miniature: load spread evenly, every
        // link carrying about 0.06 hops per event. Every cut crosses
        // some traffic; a cut that sheds one chip crosses the least.
        // Balance must win: a 15 | 1 cut saves a few percent of
        // exchange work and idles one worker.
        let m = measured_machine([10_000; 16], 100, &[]);
        let owner = m.event_weighted_owner(2);
        let left = cut_of(&owner) as f64 / 16.0;
        assert!((0.45..=0.55).contains(&left), "cut at {left}");
        // A pure function of the measurements.
        assert_eq!(owner, m.event_weighted_owner(2));
        assert_eq!(
            owner,
            measured_machine([10_000; 16], 100, &[]).event_weighted_owner(2)
        );
        // More shards: every one gets its quarter.
        let owner = m.event_weighted_owner(4);
        for shard in 0..4 {
            assert_eq!(owner.iter().filter(|&&o| o == shard).count(), 4);
        }
    }

    #[test]
    fn partition_keeps_a_chatty_cluster_whole_when_balance_allows() {
        // Chips 0..6 and 7..16 weigh 9000 each, so cutting before or
        // after chip 6 is equally (un)balanced: 9000 | 12000 either way.
        let mut weight = [1000; 16];
        weight[5] = 4000;
        weight[6] = 3000;
        // Chips 5 and 6 talk to each other: only the cut after chip 6
        // keeps the pair on one shard.
        let owner = measured_machine(weight, 10, &[(5, 2000)]).event_weighted_owner(2);
        assert_eq!(cut_of(&owner), 7);
        // Without that traffic nothing separates the two cuts and the
        // tie goes to the earlier one — the flux is what decided.
        let owner = measured_machine(weight, 10, &[]).event_weighted_owner(2);
        assert_eq!(cut_of(&owner), 6);
        // A cluster is not kept whole at any price: when the balanced
        // cut runs through a pair whose traffic costs less than the
        // imbalance of sparing it, the pair is split.
        let mut weight = [1000; 16];
        weight[..5].fill(1800);
        weight[5] = 5000;
        weight[6] = 5000;
        let owner = measured_machine(weight, 10, &[(5, 500)]).event_weighted_owner(2);
        assert_eq!(cut_of(&owner), 6);
    }

    #[test]
    fn partition_of_a_fresh_machine_uses_the_structural_estimate() {
        // Nothing measured yet: loaded neurons stand in for load. Two
        // 50-neuron cores on chips 1 and 2 weigh 66 each against 16 for
        // an empty chip, which moves the even cut from 8 down to 5
        // (180 | 176).
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        for (x, key) in [(1, 0x1000), (2, 0x2000)] {
            m.load_core(NodeCoord::new(x, 0), 1, rs_neurons(50), vec![0.0; 50], key)
                .unwrap();
        }
        assert_eq!(cut_of(&m.event_weighted_owner(2)), 5);
        // Once a segment has been measured, the measurement rules.
        m.chip_events[15] = 5000;
        assert_eq!(cut_of(&m.event_weighted_owner(2)), 15);
    }
}
