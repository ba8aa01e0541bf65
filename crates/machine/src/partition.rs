//! How a run segment cuts the machine into shards: how many
//! ([`NeuralMachine::effective_threads`]) and which chips each one owns
//! (`load_balanced_owner`, a function of the loaded cores alone).

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

    /// Load-balanced contiguous chip partition: the cut of the dense
    /// chip-id axis into `threads` blocks that minimises the busiest
    /// shard's structural load.
    ///
    /// A chip's load is estimated from what is loaded on it, the way the
    /// machine is mapped once, at load time: every mapped neuron costs a
    /// tick event per millisecond and every synapse feeds the
    /// packet/DMA/row-walk path in proportion to activity, while empty
    /// chips only see the coalesced timer scan. Nothing measured during
    /// a run enters the cut, so it is a pure function of the loaded
    /// cores: a restored session cuts exactly as the unbroken one.
    ///
    /// The partition is a heuristic and part of no result (every cut
    /// replays the serial run bit for bit); it is deterministic — integer
    /// arithmetic, ties to the earliest cut — so run traces stay
    /// comparable.
    pub(crate) fn load_balanced_owner(&self, threads: usize) -> Vec<u32> {
        let chips = self.cfg.chips();
        debug_assert!(threads >= 2 && threads <= chips);
        let per = self.cfg.cores_per_chip as usize;
        // Floor of 16 per chip: timer scans keep even empty chips
        // slightly warm, and a nonzero floor keeps the split total-order
        // stable when whole regions are unmapped.
        let mut weight = vec![16u64; chips];
        for (idx, slot) in self.cores.iter().enumerate() {
            if let Some(core) = slot.as_ref() {
                weight[idx / per] += core.neurons.len() as u64 + core.matrix.total_synapses() / 64;
            }
        }
        // The DP below is O(shards · B²) in time over B cut positions.
        // Exact per-chip resolution is affordable to ~1k chips; beyond
        // that the dense-id axis is grouped into at most 1024 contiguous
        // *blocks* (cuts then land on block edges — plenty for
        // balancing, since any shard spans many blocks). At or below
        // 1024 chips the stride is 1 and the partition is the exact DP;
        // a 65k-chip mesh costs a 1024-block DP.
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
        // A shard's work is the load of its block range; the workers
        // meet at a barrier every window, so a segment takes as long as
        // its busiest shard.
        let work = |a: usize, b: usize| prefix[b] - prefix[a];
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
    use spinn_noc::table::{McTableEntry, RouteSet};

    fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// Where a two-shard owner vector switches from shard 0 to shard 1.
    fn cut_of(owner: &[u32]) -> usize {
        let cut = owner.iter().position(|&o| o == 1).expect("two shards");
        assert!(owner[..cut].iter().all(|&o| o == 0) && owner[cut..].iter().all(|&o| o == 1));
        cut
    }

    /// A 4x4 machine with a quiet 50-neuron core on chips 1 and 2 and a
    /// tonically driven 100-neuron one on chip 12, whose spikes are
    /// routed back into a core of its own chip: nearly all the run's
    /// events land on chip 12.
    fn skewed_machine() -> NeuralMachine {
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        for (x, key) in [(1, 0x1000), (2, 0x2000)] {
            m.load_core(NodeCoord::new(x, 0), 1, rs_neurons(50), vec![0.0; 50], key)
                .unwrap();
        }
        let hot = NodeCoord::new(0, 3);
        m.load_core(hot, 1, rs_neurons(100), vec![20.0; 100], 0x3000)
            .unwrap();
        m.load_core(hot, 2, rs_neurons(50), vec![0.0; 50], 0x4000)
            .unwrap();
        m.router_mut(hot)
            .table
            .insert(McTableEntry {
                key: 0x3000,
                mask: 0xFFFF_F000,
                route: RouteSet::EMPTY.with_core(2),
            })
            .unwrap();
        m
    }

    #[test]
    fn partition_balances_the_loaded_cores() {
        // One 50-neuron core on every chip: each weighs 66, and the even
        // cut is the balanced one.
        let build = || {
            let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
            for chip in 0..16 {
                let at = NodeCoord::new(chip % 4, chip / 4);
                m.load_core(at, 1, rs_neurons(50), vec![0.0; 50], 0x1000 * (chip + 1))
                    .unwrap();
            }
            m
        };
        let m = build();
        let owner = m.load_balanced_owner(2);
        assert_eq!(cut_of(&owner), 8);
        // A pure function of the loaded cores.
        assert_eq!(owner, m.load_balanced_owner(2));
        assert_eq!(owner, build().load_balanced_owner(2));
        // More shards: every one gets its quarter.
        let owner = m.load_balanced_owner(4);
        for shard in 0..4 {
            assert_eq!(owner.iter().filter(|&&o| o == shard).count(), 4);
        }
    }

    #[test]
    fn partition_of_a_fresh_machine_uses_the_structural_estimate() {
        // Loaded neurons stand in for load. Two 50-neuron cores on chips
        // 1 and 2 weigh 66 each against 16 for an empty chip, which
        // moves the even cut from 8 down to 5 (180 | 176).
        let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
        for (x, key) in [(1, 0x1000), (2, 0x2000)] {
            m.load_core(NodeCoord::new(x, 0), 1, rs_neurons(50), vec![0.0; 50], key)
                .unwrap();
        }
        assert_eq!(cut_of(&m.load_balanced_owner(2)), 5);
    }

    #[test]
    fn partition_is_a_function_of_the_build_not_of_the_run() {
        let built = skewed_machine().load_balanced_owner(2);
        let (m, pending) = skewed_machine().run_segment(Vec::new(), 0, 300, 1);
        let hot = m
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x3000)
            .count();
        assert!(
            hot > 1024,
            "the run must load chip 12 heavily: {hot} spikes"
        );
        // A run that hammered one chip leaves the cut where the build put
        // it...
        assert_eq!(m.load_balanced_owner(2), built);
        // ...and a checkpoint restored onto a fresh build cuts exactly as
        // the unbroken run does, before and after both continue.
        let mut fresh = skewed_machine();
        let restored = fresh.install_snapshot(&m.snapshot(&pending)).unwrap();
        assert_eq!(fresh.load_balanced_owner(2), built);
        let (m, _) = m.run_segment(pending, 300, 20, 1);
        let (fresh, _) = fresh.run_segment(restored.pending, 300, 20, 1);
        assert_eq!(m.spikes(), fresh.spikes());
        assert_eq!(fresh.load_balanced_owner(2), m.load_balanced_owner(2));
        assert_eq!(m.load_balanced_owner(2), built);
    }
}
