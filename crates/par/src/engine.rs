//! The sharded, barrier-synchronized parallel execution engine.
//!
//! See the crate-level documentation for the protocol description.
//!
//! # Scheduling
//!
//! A shard belongs to one worker for the whole run. `run_until` cuts
//! the shard vector into `min(shards, host cores)` contiguous blocks
//! with `split_at_mut`, spawns a scoped thread for every block but the
//! last and walks the last one itself. Workers hold their engines by
//! exclusive `&mut`; they share only what the protocol shares: the
//! per-shard "earliest pending" timestamps, the mailboxes and the
//! barrier between a window's two phases. Results depend on the shard
//! cut alone, never on which worker walks a shard (the machine cuts one
//! shard per worker; tests cut more), and a single worker is the same
//! loop over one block with a one-party barrier.
//!
//! # Per-shard horizons
//!
//! The classic conservative window runs every shard to
//! `global_min + lookahead`. This engine keeps that window while the
//! shards are within one lookahead of each other and widens it for a
//! shard that is not. With `L` the lookahead, `next_i` shard `i`'s
//! earliest pending time and `t_other = min(next_j, j != i)`, shard `i`
//! runs this round up to
//!
//! ```text
//! base = min(t_other + L, deadline + 1)          // the safety bound
//! cap  = min(base, max(t_other, next_i + L))     // what a round may cover
//! ```
//!
//! `base` is safe against everything already queued elsewhere: shard
//! `j` only emits at `>= next_j + L`. `cap` reads: the classic
//! `global_min + L` window, except that a shard more than `L` behind
//! every other shard runs, in one round, up to the others' earliest
//! pending time — and a shard whose neighbours are all idle runs to the
//! deadline.
//!
//! Why not simply run to `base`? Because that rule leapfrogs. Once
//! shard A is `>= L` behind B, A runs to `next_B + L`, which leaves *B*
//! `>= L` behind A; B then runs to `next_A + L`, and so on — the gap is
//! at least `L` after every round by construction, so in every window
//! one of the two shards has nothing below its horizon and sits at the
//! barrier. Two workers then strictly alternate. Stopping the laggard
//! *at* the shard it has caught up with, instead of `L` past it, puts
//! both inside the same classic window in the next round, where both
//! run. [`ParStats::busy`] counts exactly this: on the benchmark's
//! 100k-neuron net cut into two balanced shards (seed 1, 400 bio-ms)
//! `busy / windows` reads 1.07 when shards run to `base` and 1.99 when
//! they stop at `cap`, for the same 15 059 517 events.
//!
//! Within the round the horizon starts lower and grows, bounded by the
//! second way an event can still reach shard `i` — *reactions to its own
//! emissions*: an event `i` sends arriving at `a` can provoke a reply no
//! earlier than `a + L`, so the horizon also stays at or below the
//! earliest arrival `i` has staged this round plus `L` (before anything
//! is staged: `next_i + 2L`). As that bound relaxes the horizon is
//! extended, never past `cap`: a shard that emits nothing covers its
//! whole `cap` in a single barrier round, which collapses the barrier
//! count on skewed workloads from O(events) to O(interactions). A lone
//! shard has no other shard to reply to it, so its horizon starts at
//! `cap` — `deadline + 1` — and one engine pass covers the whole run,
//! as a plain [`Engine::run_until`] would.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use spinn_obs::Phase;
use spinn_sim::{Engine, Model, SimTime};

/// Sentinel for "this shard's queue is empty".
const IDLE: u64 = u64::MAX;

/// The number of threads the host can run at once (1 when it cannot be
/// told). The standard library re-reads the affinity mask and cgroup
/// limits on every call — microseconds each — and the answer is asked
/// once per run segment, so it is taken once per process.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// A model that can run as one shard of a partitioned simulation.
///
/// On top of the ordinary [`Model`] contract, a shard model accumulates
/// events destined for *other* shards in an internal outbox instead of
/// scheduling them locally; the engine drains that outbox at the end of
/// every window and delivers the events through the barrier exchange.
pub trait ShardModel: Model {
    /// Moves the cross-shard events staged since the last call onto the
    /// end of `out` (the engine's reused buffer — implementors keep
    /// their own staging capacity, e.g. `out.append(&mut self.outbox)`).
    ///
    /// Every drained event must have `at >= t + lookahead`, where `t` is
    /// the timestamp of the handler that produced it and `lookahead` is
    /// the bound passed to [`ParEngine::run_until`] — this is the
    /// conservative-synchronization contract that makes windowed
    /// execution exact.
    ///
    /// Every drained event must also target a *different* shard:
    /// same-shard events are ordinary local events and must be
    /// scheduled through the [`Context`](spinn_sim::Context) instead.
    /// (This is what lets the engine extend a shard's horizon past the
    /// global minimum — only *other* shards can still send to it.)
    fn drain_outbox(&mut self, out: &mut Vec<RemoteEvent<Self::Event>>);

    /// Called once per [`ParEngine::run_until`], on the worker that
    /// walked this shard, after the shard's last window: every event at
    /// or before `deadline` has been handled and no mailbox holds
    /// anything for it. A model that defers work no other shard can
    /// observe settles it here, in parallel with the other shards,
    /// rather than on the thread that merges them afterwards. It must
    /// not stage remote events. The default does nothing.
    fn quiesce(&mut self, _deadline: SimTime) {}
}

/// One shard's checkpoint form: the model plus its drained pending
/// events in canonical `(time, rank)` pop order (see
/// [`ParEngine::into_parts`]).
pub type ShardParts<M> = (M, Vec<(SimTime, u128, <M as Model>::Event)>);

/// A cross-shard event emitted by a [`ShardModel`].
#[derive(Debug)]
pub struct RemoteEvent<E> {
    /// Absolute delivery time.
    pub at: SimTime,
    /// Index of the destination shard.
    pub dest: usize,
    /// The event payload.
    pub event: E,
}

/// Counters describing one parallel run.
#[derive(Clone, Debug, Default)]
pub struct ParStats {
    /// Barrier rounds (conservative windows) executed.
    pub windows: u64,
    /// Events popped from the shard queues (a model may resolve further
    /// work per event that never enters a queue).
    pub events: u64,
    /// Cross-shard events exchanged at barriers.
    pub exchanged: u64,
    /// Sum over windows of the shards that handled at least one event
    /// in that window. Like `windows` it is a function of the shard cut
    /// and the events alone, never of worker count or timing;
    /// `busy / windows` is the run's mean concurrency (1.0 when the
    /// shards take turns, the shard count when every window occupies
    /// them all).
    pub busy: u64,
}

/// An envelope carrying a cross-shard event through a mailbox.
///
/// `(at, src, seq)` is the canonical delivery order: `seq` counts per
/// *source shard* (not per worker thread), so sorting by it makes queue
/// insertion — and therefore FIFO tie-breaking — independent of which
/// worker walked the source shard or reached the mailbox first.
struct Envelope<E> {
    at: u64,
    src: u32,
    seq: u64,
    event: E,
}

/// A sense-counting spin barrier.
///
/// Windows are typically microseconds long, so a futex-based
/// [`std::sync::Barrier`] would dominate the run; spinning with a yield
/// fallback keeps the barrier in the tens-of-nanoseconds range when the
/// worker count does not exceed the core count. When workers outnumber
/// cores, spinning only steals the running worker's quantum, so the
/// barrier yields immediately instead.
struct SpinBarrier {
    n: usize,
    spin_limit: u32,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            spin_limit: if n <= host_parallelism() { 20_000 } else { 0 },
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Waits for all `n` workers (returns at once when `n == 1`).
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins >= self.spin_limit {
                    std::thread::yield_now();
                } else {
                    spins += 1;
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// The parallel engine: one [`Engine`] per shard, advanced in lockstep
/// conservative windows by worker threads that each own a contiguous
/// block of shards (see the module docs).
///
/// # Example
///
/// Two shards ping-ponging a token with a 10-tick cross-shard latency:
///
/// ```
/// use spinn_par::{ParEngine, RemoteEvent, ShardModel};
/// use spinn_sim::{Context, Model, SimTime};
///
/// struct Token { me: usize, seen: u32, outbox: Vec<RemoteEvent<u32>> }
///
/// impl Model for Token {
///     type Event = u32;
///     fn handle(&mut self, ctx: &mut Context<u32>, hops: u32) {
///         self.seen += 1;
///         if hops > 0 {
///             self.outbox.push(RemoteEvent {
///                 at: ctx.now() + 10,
///                 dest: 1 - self.me,
///                 event: hops - 1,
///             });
///         }
///     }
/// }
/// impl ShardModel for Token {
///     fn drain_outbox(&mut self, out: &mut Vec<RemoteEvent<u32>>) {
///         out.append(&mut self.outbox);
///     }
/// }
///
/// let mut par = ParEngine::new(vec![
///     Token { me: 0, seen: 0, outbox: vec![] },
///     Token { me: 1, seen: 0, outbox: vec![] },
/// ]);
/// par.schedule(0, SimTime::ZERO, 5);
/// par.run_until(SimTime::new(1_000), 10);
/// let models = par.into_models();
/// assert_eq!(models[0].seen + models[1].seen, 6);
/// ```
pub struct ParEngine<M: ShardModel> {
    shards: Vec<Engine<M>>,
    stats: ParStats,
}

impl<M> ParEngine<M>
where
    M: ShardModel + Send,
    M::Event: Send,
{
    /// Wraps one engine around each shard model.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<M>) -> Self {
        ParEngine::resume_at(models, SimTime::ZERO)
    }

    /// Wraps one engine around each shard model with every shard clock
    /// starting at `now` instead of zero — the resume path of
    /// checkpointed runs (see [`Engine::resume_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn resume_at(models: Vec<M>, now: SimTime) -> Self {
        assert!(!models.is_empty(), "ParEngine needs at least one shard");
        ParEngine {
            shards: models
                .into_iter()
                .map(|m| Engine::resume_at(m, now))
                .collect(),
            stats: ParStats::default(),
        }
    }

    /// Consumes the engine, returning each shard's model together with
    /// its drained pending events in canonical `(time, rank)` pop order
    /// — the checkpoint form of a paused sharded run (mailboxes are
    /// always empty between [`ParEngine::run_until`] calls, so the
    /// shard queues hold the complete pending set).
    pub fn into_parts(self) -> Vec<ShardParts<M>> {
        self.shards.into_iter().map(Engine::into_parts).collect()
    }

    /// Schedules an initial event on one shard.
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: M::Event) {
        self.shards[shard].schedule_at(at, event);
    }

    /// Counters from completed [`ParEngine::run_until`] calls.
    pub fn stats(&self) -> &ParStats {
        &self.stats
    }

    /// Each shard queue's occupancy high-water mark, in shard order
    /// (see [`spinn_sim::CalendarQueue::peak_len`]). Read before
    /// [`ParEngine::into_parts`], which drains the queues.
    pub fn queue_peaks(&self) -> Vec<usize> {
        self.shards.iter().map(Engine::queue_peak).collect()
    }

    /// Consumes the engine, returning the shard models in shard order.
    pub fn into_models(self) -> Vec<M> {
        self.shards.into_iter().map(Engine::into_model).collect()
    }

    /// Runs every shard until all queues pass `deadline` (events at
    /// exactly `deadline` are processed, matching
    /// [`Engine::run_until`]).
    ///
    /// `lookahead_ns` must be a strict lower bound on the delivery delay
    /// of every cross-shard event: an event handled at time `t` may only
    /// produce remote events at `t + lookahead_ns` or later.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead_ns == 0`, or (in debug builds) if a shard
    /// violates the lookahead contract.
    pub fn run_until(&mut self, deadline: SimTime, lookahead_ns: u64) {
        self.run_with_workers(deadline, lookahead_ns, host_parallelism());
    }

    /// [`ParEngine::run_until`] on `min(workers, shards)` workers (at
    /// least one). Results are bit-identical for every worker count —
    /// the schedule depends only on the shard cut — which the unit
    /// tests check by calling this with counts the host may not have.
    fn run_with_workers(&mut self, deadline: SimTime, lookahead_ns: u64, workers: usize) {
        assert!(lookahead_ns > 0, "conservative windows need lookahead > 0");
        let n = self.shards.len();
        let workers = workers.clamp(1, n);
        let shared = Shared {
            barrier: SpinBarrier::new(workers),
            next: (0..n).map(|_| CacheLine(AtomicU64::new(IDLE))).collect(),
            mailboxes: (0..n).map(|_| CacheLine(Mutex::new(Vec::new()))).collect(),
            deadline_ns: deadline.ticks(),
            lookahead_ns,
        };
        let run = std::thread::scope(|scope| {
            let shared = &shared;
            let mut rest = &mut self.shards[..];
            let mut first = 0;
            let mut spawned = Vec::with_capacity(workers - 1);
            for w in 0..workers - 1 {
                // The first `n % workers` blocks are one shard longer.
                let len = n / workers + usize::from(w < n % workers);
                let (block, tail) = rest.split_at_mut(len);
                spawned.push(scope.spawn(move || worker_loop(shared, first, block)));
                first += len;
                rest = tail;
            }
            let mut run = worker_loop(shared, first, rest);
            for handle in spawned {
                let theirs = handle.join().expect("shard worker panicked");
                // Every worker counts the same barrier rounds.
                debug_assert_eq!(theirs.windows, run.windows);
                run.events += theirs.events;
                run.exchanged += theirs.exchanged;
                run.busy += theirs.busy;
            }
            run
        });
        self.stats.windows += run.windows;
        self.stats.events += run.events;
        self.stats.exchanged += run.exchanged;
        self.stats.busy += run.busy;
    }
}

/// Gives a per-shard slot a cache line of its own: in one round every
/// worker publishes its shards' `next` and pushes into other shards'
/// mailboxes, and adjacent slots on one line would bounce it between
/// the cores for no shared datum. (128 bytes, as `spinn-obs` pads its
/// counters: the adjacent-line prefetcher pairs 64-byte lines.)
#[repr(align(128))]
struct CacheLine<T>(T);

/// What the workers of one run share — everything else a worker
/// touches it holds by exclusive `&mut`.
struct Shared<E> {
    barrier: SpinBarrier,
    /// Each shard's earliest pending timestamp, published in the
    /// deliver phase and read by every worker after the barrier.
    next: Vec<CacheLine<AtomicU64>>,
    mailboxes: Vec<CacheLine<Mutex<Vec<Envelope<E>>>>>,
    deadline_ns: u64,
    lookahead_ns: u64,
}

/// One worker: walks its block of shards (`first` is the block's first
/// shard index) phase by phase until the run drains. Returns the
/// barrier rounds it saw — identical across workers, which leave the
/// loop together — and its own block's event, exchange and busy
/// counts.
fn worker_loop<M: ShardModel>(
    shared: &Shared<M::Event>,
    first: usize,
    block: &mut [Engine<M>],
) -> ParStats {
    let (next, mailboxes) = (&shared.next, &shared.mailboxes);
    let (deadline_ns, lookahead_ns) = (shared.deadline_ns, shared.lookahead_ns);
    let mut run = ParStats::default();
    // Per-source-shard envelope sequence (canonical tie-break order).
    let mut seq = vec![0u64; block.len()];
    // Barrier waits are where shard imbalance shows up: the worker with
    // the lighter block burns the difference here. Time both waits into
    // the probe of the block's first shard (inert unless telemetry is
    // on).
    let probe = block[0].probe().clone();
    let wait = || {
        let tok = probe.start();
        shared.barrier.wait();
        probe.record(Phase::BarrierWait, tok);
    };
    let mut times: Vec<u64> = vec![IDLE; next.len()];
    // Reused every window so neither side of the exchange reallocates:
    // `mail` trades places with each mailbox in turn (the emptied buffer
    // it leaves behind keeps its capacity), `outbox` receives a shard's
    // staged remote events.
    let mut mail: Vec<Envelope<M::Event>> = Vec::new();
    let mut outbox: Vec<RemoteEvent<M::Event>> = Vec::new();
    loop {
        // Deliver phase: drain each shard's mailbox in canonical order
        // and publish its earliest pending timestamp.
        for (engine, i) in block.iter_mut().zip(first..) {
            std::mem::swap(
                &mut *mailboxes[i].0.lock().expect("mailbox poisoned"),
                &mut mail,
            );
            if !mail.is_empty() {
                mail.sort_by_key(|e| (e.at, e.src, e.seq));
                for env in mail.drain(..) {
                    engine.schedule_at(SimTime::new(env.at), env.event);
                }
            }
            next[i].0.store(
                engine.next_event_time().map_or(IDLE, |t| t.ticks()),
                Ordering::Release,
            );
        }
        wait();

        // All publishes happened before the barrier, so every worker
        // reads the same snapshot and computes the same minimum.
        for (t, a) in times.iter_mut().zip(next.iter()) {
            *t = a.0.load(Ordering::Acquire);
        }
        let min = *times.iter().min().expect("at least one shard");
        if min == IDLE || min > deadline_ns {
            // All queues drained or past the deadline — and mailboxes
            // are empty, because delivery happens before the minimum is
            // recomputed. Every worker sees the same minimum and exits
            // together. Each settles its own shards on the way out.
            for engine in block.iter_mut() {
                engine.model_mut().quiesce(SimTime::new(deadline_ns));
            }
            return run;
        }

        // Run phase: advance each shard through its window (see
        // "Per-shard horizons" in the module docs for the rule and its
        // safety argument).
        for ((engine, seq), i) in block.iter_mut().zip(&mut seq).zip(first..) {
            let my_next = times[i];
            let t_other = times
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &t)| t)
                .min()
                .unwrap_or(IDLE);
            // What this round may cover: safe against everything pending
            // elsewhere (`t_other + L`), and no further past the nearest
            // other shard than the classic window — a laggard stops at
            // `t_other` rather than leapfrogging it.
            let cap = t_other
                .saturating_add(lookahead_ns)
                .min(deadline_ns.saturating_add(1))
                .min(t_other.max(my_next.saturating_add(lookahead_ns)));
            // Replies to own emissions (before anything is staged): the
            // earliest event this shard could emit is `next + L`, so
            // the earliest reply is `next + 2L`. A lone shard has no one
            // to reply and covers its whole `cap` in one pass.
            let mut horizon = if times.len() == 1 {
                cap
            } else {
                cap.min(my_next.saturating_add(lookahead_ns.saturating_mul(2)))
            };
            if my_next >= horizon {
                // Nothing pending inside this shard's window: skip the
                // engine entirely (its clock catches up lazily).
                continue;
            }
            run.busy += 1;
            let before = engine.processed();
            // Earliest arrival staged by this shard this round; replies
            // to it land at >= this + lookahead.
            let mut staged_min = IDLE;
            loop {
                engine.run_before(SimTime::new(horizon));
                engine.model_mut().drain_outbox(&mut outbox);
                for r in outbox.drain(..) {
                    debug_assert!(
                        r.at.ticks() >= my_next.saturating_add(lookahead_ns),
                        "lookahead violation: remote event at {} from window starting {}",
                        r.at,
                        my_next
                    );
                    debug_assert!(r.dest != i, "shard {i} routed an event to itself");
                    staged_min = staged_min.min(r.at.ticks());
                    run.exchanged += 1;
                    let env = Envelope {
                        at: r.at.ticks(),
                        src: i as u32,
                        seq: *seq,
                        event: r.event,
                    };
                    *seq += 1;
                    mailboxes[r.dest]
                        .0
                        .lock()
                        .expect("mailbox poisoned")
                        .push(env);
                }
                // Try to extend: the reply bound relaxes to the earliest
                // staged arrival (or, if nothing is staged yet, to
                // replies provoked by whatever the extension itself
                // might emit).
                let next_now = engine.next_event_time().map_or(IDLE, |t| t.ticks());
                let reply_floor = staged_min
                    .min(next_now.saturating_add(lookahead_ns))
                    .saturating_add(lookahead_ns);
                let extended = cap.min(reply_floor);
                if extended <= horizon || next_now >= extended {
                    break;
                }
                horizon = extended;
            }
            run.events += engine.processed() - before;
        }
        wait();
        run.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinn_sim::Context;

    /// Each shard counts its own events and forwards a share to the next
    /// shard (ring exchange) until the hop budget is spent.
    struct Ring {
        me: usize,
        n: usize,
        handled: Vec<u64>,
        /// One `(deadline, events handled so far)` per `quiesce` call.
        quiesced: Vec<(u64, usize)>,
        outbox: Vec<RemoteEvent<u32>>,
    }

    impl Model for Ring {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<u32>, hops: u32) {
            self.handled.push(ctx.now().ticks());
            if hops > 0 {
                let dest = (self.me + 1) % self.n;
                if dest == self.me {
                    // Single-shard ring: same-shard hops are local
                    // events, per the ShardModel contract.
                    ctx.schedule_at(ctx.now() + 50, hops - 1);
                } else {
                    self.outbox.push(RemoteEvent {
                        at: ctx.now() + 50,
                        dest,
                        event: hops - 1,
                    });
                }
            }
        }
    }

    impl ShardModel for Ring {
        fn drain_outbox(&mut self, out: &mut Vec<RemoteEvent<u32>>) {
            out.append(&mut self.outbox);
        }

        fn quiesce(&mut self, deadline: SimTime) {
            self.quiesced.push((deadline.ticks(), self.handled.len()));
        }
    }

    fn ring(n: usize) -> ParEngine<Ring> {
        ParEngine::new(
            (0..n)
                .map(|me| Ring {
                    me,
                    n,
                    handled: Vec::new(),
                    quiesced: Vec::new(),
                    outbox: Vec::new(),
                })
                .collect(),
        )
    }

    #[test]
    fn token_circulates_across_shards() {
        for n in [1usize, 2, 3, 4] {
            let mut par = ring(n);
            par.schedule(0, SimTime::ZERO, 12);
            par.run_until(SimTime::new(10_000), 50);
            let models = par.into_models();
            let total: usize = models.iter().map(|m| m.handled.len()).sum();
            assert_eq!(total, 13, "all hops handled with {n} shards");
            // Hop k fires at exactly k * 50 regardless of shard count.
            let mut times: Vec<u64> = models.iter().flat_map(|m| m.handled.clone()).collect();
            times.sort_unstable();
            assert_eq!(times, (0..13).map(|k| k * 50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn deadline_cuts_off_late_events() {
        let mut par = ring(2);
        par.schedule(0, SimTime::ZERO, 100);
        // 12 hops of 50 ticks fit below the deadline of 600 (hop at 600
        // exactly is still processed, matching Engine::run_until).
        par.run_until(SimTime::new(600), 50);
        let models = par.into_models();
        let total: usize = models.iter().map(|m| m.handled.len()).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn stats_are_populated() {
        let mut par = ring(3);
        par.schedule(0, SimTime::ZERO, 9);
        par.run_until(SimTime::new(10_000), 50);
        assert_eq!(par.stats().events, 10);
        assert_eq!(par.stats().exchanged, 9);
        assert!(par.stats().windows >= 1);
    }

    #[test]
    #[should_panic(expected = "lookahead > 0")]
    fn zero_lookahead_rejected() {
        let mut par = ring(2);
        par.run_until(SimTime::new(10), 0);
    }

    /// Sorted handling times of a 12-hop token on `shards` shards
    /// walked by `workers` workers, plus the run's counters.
    fn ring_run(shards: usize, workers: usize) -> (Vec<u64>, ParStats) {
        let mut par = ring(shards);
        par.schedule(0, SimTime::ZERO, 12);
        par.run_with_workers(SimTime::new(10_000), 50, workers);
        let stats = par.stats().clone();
        let models = par.into_models();
        for m in &models {
            // Settled exactly once, after the shard's last window.
            assert_eq!(m.quiesced, [(10_000, m.handled.len())], "{workers} workers");
        }
        let mut times: Vec<u64> = models.iter().flat_map(|m| m.handled.clone()).collect();
        times.sort_unstable();
        (times, stats)
    }

    #[test]
    fn worker_cap_is_result_invariant() {
        // More shards than workers: whoever walks a shard, the schedule
        // — times, windows, exchanges — is the one the shard cut fixes,
        // and every shard is quiesced once at the end (`ring_run`).
        let (baseline, stats) = ring_run(4, 4);
        assert_eq!(baseline, (0..13).map(|k| k * 50).collect::<Vec<_>>());
        for workers in [1, 2, 3] {
            let (times, s) = ring_run(4, workers);
            assert_eq!(times, baseline, "{workers} workers diverged");
            assert_eq!(
                (s.windows, s.events, s.exchanged, s.busy),
                (stats.windows, stats.events, stats.exchanged, stats.busy),
                "{workers} workers counted differently"
            );
        }
    }

    #[test]
    fn uneven_blocks_and_surplus_workers_replay_the_same_run() {
        // 5 shards on 2 workers (blocks of 3 and 2), 3 on 2 (2 and 1),
        // and more workers asked for than there are shards (clamped to
        // one shard each): all equal the one-worker walk.
        for (shards, workers) in [(5, 2), (3, 2), (2, 7), (1, 3)] {
            let (baseline, stats) = ring_run(shards, 1);
            assert_eq!(baseline.len(), 13);
            let (times, s) = ring_run(shards, workers);
            assert_eq!(times, baseline, "{shards} shards / {workers} workers");
            assert_eq!(
                (s.windows, s.events, s.exchanged, s.busy),
                (stats.windows, stats.events, stats.exchanged, stats.busy),
                "{shards} shards / {workers} workers"
            );
        }
    }

    #[test]
    fn empty_run_terminates() {
        let mut par = ring(4);
        par.run_until(SimTime::new(1_000), 10);
        assert_eq!(par.stats().events, 0);
    }

    /// With per-shard horizons, a hot shard facing an otherwise idle
    /// machine should need only O(interactions) windows, not O(events).
    #[test]
    fn idle_neighbors_extend_horizon() {
        // Shard 0 self-schedules nothing remote: a long local cascade.
        struct Cascade {
            left: u32,
            outbox: Vec<RemoteEvent<u32>>,
        }
        impl Model for Cascade {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Context<u32>, _: u32) {
                if self.left > 0 {
                    self.left -= 1;
                    let next = ctx.now() + 1;
                    ctx.schedule_at(next, 0);
                }
            }
        }
        impl ShardModel for Cascade {
            fn drain_outbox(&mut self, out: &mut Vec<RemoteEvent<u32>>) {
                out.append(&mut self.outbox);
            }
        }
        let mut par = ParEngine::new(vec![
            Cascade {
                left: 1000,
                outbox: vec![],
            },
            Cascade {
                left: 0,
                outbox: vec![],
            },
        ]);
        par.schedule(0, SimTime::ZERO, 0);
        par.run_until(SimTime::new(100_000), 2);
        assert_eq!(par.stats().events, 1001);
        // The busy shard's horizon extends to the deadline because its
        // neighbor is idle: one productive window, not ~500.
        assert!(
            par.stats().windows <= 3,
            "expected horizon extension, got {} windows",
            par.stats().windows
        );
    }

    /// A lone shard has no one to reply to it: a dense cascade — far
    /// denser than the lookahead — runs in one window and one engine
    /// pass, so its outbox is drained once per window, not once per
    /// `2L` of simulated time.
    #[test]
    fn a_lone_shard_runs_each_window_in_one_pass() {
        struct Counted {
            left: u32,
            drains: u64,
        }
        impl Model for Counted {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Context<u32>, _: u32) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.schedule_in(1, 0);
                }
            }
        }
        impl ShardModel for Counted {
            fn drain_outbox(&mut self, _: &mut Vec<RemoteEvent<u32>>) {
                self.drains += 1;
            }
        }
        let mut par = ParEngine::new(vec![Counted {
            left: 999,
            drains: 0,
        }]);
        par.schedule(0, SimTime::ZERO, 0);
        par.run_until(SimTime::new(100_000), 2);
        let stats = par.stats().clone();
        assert_eq!((stats.events, stats.windows, stats.busy), (1000, 1, 1));
        assert_eq!(par.into_models()[0].drains, stats.windows);
    }

    /// Marks a [`Dense`] shard's local cascade event; any other value is
    /// a token with that many hops still to go.
    const TICK: u32 = u32::MAX;

    /// A shard running a dense local cascade — one [`TICK`] every
    /// `step` ticks until `left` runs out — that also passes tokens on:
    /// every `emit_every`-th tick emits a last-hop token, and a token
    /// received with hops to go is forwarded, each arriving at shard
    /// `to` exactly `hop` later.
    struct Dense {
        to: usize,
        step: u64,
        left: u32,
        emit_every: u32,
        hop: u64,
        handled: Vec<(u64, u32)>,
        outbox: Vec<RemoteEvent<u32>>,
    }

    impl Dense {
        fn new(to: usize, step: u64, left: u32, emit_every: u32, hop: u64) -> Self {
            Dense {
                to,
                step,
                left,
                emit_every,
                hop,
                handled: Vec::new(),
                outbox: Vec::new(),
            }
        }

        fn send(&mut self, at: SimTime, hops: u32) {
            self.outbox.push(RemoteEvent {
                at,
                dest: self.to,
                event: hops,
            });
        }
    }

    impl Model for Dense {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<u32>, ev: u32) {
            self.handled.push((ctx.now().ticks(), ev));
            if ev == TICK {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.schedule_at(ctx.now() + self.step, TICK);
                    if self.emit_every > 0 && self.left.is_multiple_of(self.emit_every) {
                        self.send(ctx.now() + self.hop, 0);
                    }
                }
            } else if ev > 0 {
                self.send(ctx.now() + self.hop, ev - 1);
            }
        }
    }

    impl ShardModel for Dense {
        fn drain_outbox(&mut self, out: &mut Vec<RemoteEvent<u32>>) {
            out.append(&mut self.outbox);
        }
    }

    /// The leapfrog regression: two shards with plenty of local work
    /// each and a gap of a few lookaheads between them must end up
    /// inside the same window, not take turns overshooting each other.
    #[test]
    fn dense_shards_run_in_the_same_windows() {
        const L: u64 = 64;
        let mut par = ParEngine::new(vec![
            Dense::new(1, 1, 20_000, 997, L),
            Dense::new(0, 3, 6_600, 501, L),
        ]);
        par.schedule(0, SimTime::ZERO, TICK);
        par.schedule(1, SimTime::new(3 * L), TICK);
        par.run_until(SimTime::new(1_000_000), L);
        let stats = par.stats().clone();
        // Both cascades, their first events, and one token per
        // `emit_every` ticks each way.
        assert_eq!(stats.exchanged, 20_000 / 997 + 1 + 6_600 / 501 + 1);
        assert_eq!(stats.events, 20_001 + 6_601 + stats.exchanged);
        let concurrency = stats.busy as f64 / stats.windows as f64;
        assert!(
            concurrency >= 1.9,
            "shards took turns: {} busy shard-windows in {} windows",
            stats.busy,
            stats.windows
        );
    }

    /// A shard far behind its neighbour catches up in one round — and
    /// stops level with it, so the next round occupies both.
    #[test]
    fn laggard_catches_up_in_one_round_then_both_run() {
        const L: u64 = 10;
        // Shard 0 has an event at every tick of [0, 51 L), shard 1 only
        // in [50 L, 51 L).
        let mut par = ParEngine::new(vec![
            Dense::new(1, 1, 51 * L as u32 - 1, 0, L),
            Dense::new(0, 1, L as u32 - 1, 0, L),
        ]);
        par.schedule(0, SimTime::ZERO, TICK);
        par.schedule(1, SimTime::new(50 * L), TICK);
        par.run_until(SimTime::new(1_000_000), L);
        let stats = par.stats();
        assert_eq!(stats.events, 51 * L + L);
        // Round 1: shard 0 alone, up to 50 L. Round 2: both, to 51 L.
        assert_eq!((stats.windows, stats.busy), (2, 3));
    }

    /// Chain safety: tokens travel 0 -> 1 -> 2 in hops of exactly the
    /// lookahead while shard 2 is busy with a dense cascade of its own.
    /// Shard 2 must never have run past a token's arrival, however far
    /// ahead of or behind the sparse shard 0 it is.
    #[test]
    fn forwarding_chain_reaches_a_busy_shard_in_time_order() {
        const L: u64 = 10;
        let sent = [0u64, 5, 333, 334, 1200, 1990, 2500];
        let mut expected: Vec<(u64, u32)> = (0..=2000).map(|k| (300 + k, TICK)).collect();
        expected.extend(sent.iter().map(|&t| (t + 2 * L, 0)));
        expected.sort_unstable();
        for workers in [1, 3] {
            let mut par = ParEngine::new(vec![
                Dense::new(1, 1, 0, 0, L),
                Dense::new(2, 1, 0, 0, L),
                Dense::new(0, 1, 2000, 0, L),
            ]);
            for &t in &sent {
                par.schedule(0, SimTime::new(t), 2);
            }
            par.schedule(2, SimTime::new(300), TICK);
            par.run_with_workers(SimTime::new(1_000_000), L, workers);
            let models = par.into_models();
            let at = |m: &Dense| m.handled.iter().map(|&(t, _)| t).collect::<Vec<_>>();
            assert_eq!(at(&models[0]), sent);
            assert_eq!(at(&models[1]), sent.map(|t| t + L));
            let busy = &models[2].handled;
            assert!(
                busy.windows(2).all(|w| w[0].0 <= w[1].0),
                "shard 2 handled an event in its past ({workers} workers)"
            );
            let mut sorted = busy.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, expected, "{workers} workers");
        }
    }
}
