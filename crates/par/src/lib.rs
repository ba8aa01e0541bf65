//! # spinn-par — sharded, barrier-synchronized parallel execution
//!
//! SpiNNaker runs a million cores in real time without a global clock:
//! each core integrates its neurons on a local 1 ms timer, and the only
//! inter-processor coupling is spike packets that the fabric delivers
//! "in significantly under 1 ms, whatever the distance" (§3.1 of the
//! paper). Events are therefore *locally* ordered — a chip never needs
//! to know what a distant chip is doing right now, only which spikes
//! will reach it and when.
//!
//! This crate exploits exactly that property to parallelize the
//! discrete-event simulation of the machine itself:
//!
//! 1. The simulated chips are partitioned into **shards**, one
//!    [`spinn_sim::Engine`] each. Every worker thread owns a contiguous
//!    block of shards for the whole run — the machine cuts one shard
//!    per worker, so normally a block is one shard — and the calling
//!    thread is one of the workers. The machine runs *every* segment
//!    this way, a serial run as one shard on the calling thread: a lone
//!    shard has no other shard to hear from, so it covers the whole
//!    run in one window and one engine pass.
//! 2. All shards advance in lockstep **conservative windows**. At each
//!    barrier the workers agree on the global minimum pending timestamp
//!    `m`; every shard may then safely simulate all events in
//!    `[m, m + lookahead)`, where the *lookahead* is the minimum
//!    cross-shard latency — for the machine, the minimum inter-chip
//!    link delay (shortest-packet serialization + wire propagation +
//!    router pipeline). No event handled inside the window can produce
//!    a cross-shard event landing inside the same window, so no shard
//!    ever receives an event in its own past. The one departure from
//!    the classic window: a shard that is more than a lookahead behind
//!    every other shard runs, in one round, up to the others' earliest
//!    pending time (to the deadline when they are idle) — and no
//!    further, so that the next round finds all of them inside the
//!    same window. Running it a lookahead *past* the others, which is
//!    just as safe, makes two busy shards overshoot each other in turn
//!    and never run in the same window; the engine's module docs have
//!    the rule and the measurement, [`ParStats::busy`] the counter
//!    that shows it.
//! 3. Cross-shard events produced inside a window are collected in each
//!    shard's outbox ([`ShardModel::drain_outbox`]) and **exchanged at
//!    the window barrier** with their exact timestamps, sorted into a
//!    canonical `(time, source shard, source sequence)` order before
//!    queue insertion so that delivery never depends on thread
//!    scheduling.
//! 4. Same-instant ordering is **content-derived**, not insertion-
//!    derived: models implement [`spinn_sim::Model::tie_rank`] so that
//!    two events scheduled for the same nanosecond are handled in an
//!    order determined by *what they are*. This is what makes the
//!    sharded run equal the serial run even under congestion — a remote
//!    arrival inserted at a barrier and a local event staged mid-window
//!    still sort identically in both executions.
//! 5. When the last window has run, every worker **settles its own
//!    shards** ([`ShardModel::quiesce`], once per shard per run). A
//!    model may keep work that no other shard can observe out of its
//!    event queue altogether — the machine resolves handler and DMA
//!    completions on per-chip agendas — and that work then neither
//!    shortens anyone's window nor waits for the thread that merges the
//!    shards: it is done here, on all workers at once.
//!
//! The result is an *event-exact* replay of the serial simulation:
//! every event fires at the same timestamp on every thread count, and
//! the recorded spike streams are bit-identical. This mirrors the
//! machine's own semantics at a different timescale: SpiNNaker's 1 ms
//! timestep is the coarse window within which spike *arrival order
//! does not matter* (ring-buffer deposits commute); the simulator's
//! window is the fine-grained analogue within which *cross-shard events
//! cannot exist at all*. Between two timer ticks the event population
//! is sparse and clustered, so the window loop jumps across the empty
//! stretches of each millisecond and barriers only where traffic is —
//! which is what makes the barrier protocol cheap enough to win
//! wall-clock time (see the benchmark's `cortex_stim_2w` workload).
//!
//! There is one schedule and nothing in it is dynamic: no shard changes
//! hands between windows and no worker takes over part of another's
//! block. (Letting idle workers claim spare shards off a shared counter
//! was measured on two real cores and lost to this static cut even on a
//! net skewed to favour it; the figures are in `CHANGES.md`, PR 13.)
//! What balances the load is where the machine cuts the shards: a
//! function of the loaded cores, fixed by the build
//! (`NeuralMachine::run_segment`).
//!
//! Memory moves with the shards, not across them: when the neural
//! machine partitions its chips, each application core's synaptic
//! matrix (the master-population-table + contiguous-arena state of
//! `spinn_neuron::synmatrix`) is handed to its owning shard wholesale
//! and handed back at merge — sharding never copies or splits an
//! arena.
//!
//! # Example
//!
//! See [`ParEngine`] for a two-shard token-passing example, and
//! `spinn_machine::machine::NeuralMachine::run_segment` for the
//! full-machine integration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::{host_parallelism, ParEngine, ParStats, RemoteEvent, ShardModel, ShardParts};
