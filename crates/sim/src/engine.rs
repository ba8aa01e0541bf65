//! The simulation engine: drives a [`Model`] from the event queue.

use spinn_obs::{Phase, PhaseProbe};

use crate::calendar::CalendarQueue;
use crate::time::SimTime;

/// A simulation model: owns all mutable state and reacts to events.
///
/// The engine pops the earliest event, advances the clock to its timestamp
/// and calls [`Model::handle`]. Handlers schedule follow-on events through
/// the [`Context`]; they never see the queue directly, which keeps the
/// borrow structure simple (the model may freely mutate itself while
/// scheduling).
pub trait Model {
    /// The event payload type this model reacts to.
    type Event;

    /// Reacts to one event. `ctx.now()` is the event's timestamp.
    fn handle(&mut self, ctx: &mut Context<Self::Event>, event: Self::Event);

    /// Content-derived tie-break rank for same-instant events.
    ///
    /// Events scheduled for the same tick are handled in
    /// `(tie_rank, insertion order)` order. The default (constant 0)
    /// gives pure FIFO, which is deterministic for a single engine.
    /// Models that are also run sharded (`spinn-par`) should derive the
    /// rank from the event's *content* so that the same-instant order is
    /// independent of which shard staged each event — that is what makes
    /// a parallel run replay the serial one bit-exactly. Events mapping
    /// to the same rank at the same instant must be interchangeable
    /// (their handling order must not affect the model's final state).
    fn tie_rank(_event: &Self::Event) -> u128 {
        0
    }

    /// The phase-timing probe the engine should record queue-pop (and,
    /// in drivers like `spinn-par`, barrier-wait) samples into.
    ///
    /// The engine captures this once at construction
    /// ([`Engine::new`] / [`Engine::resume_at`]). The default is a
    /// disabled probe: every timing hook reduces to a `None`-check, so
    /// uninstrumented models pay nothing.
    fn phase_probe(&self) -> PhaseProbe {
        PhaseProbe::default()
    }
}

/// Handed to every event handler: the current time plus a staging area for
/// newly scheduled events.
#[derive(Debug)]
pub struct Context<E> {
    now: SimTime,
    staged: Vec<(SimTime, E)>,
    stop: bool,
}

impl<E> Context<E> {
    /// The timestamp of the event being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` ticks from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.staged.push((self.now + delay, event));
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the current event's time):
    /// causality violations are always model bugs.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.staged.push((at, event));
    }

    /// Requests that the engine stop after this handler returns.
    #[inline]
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// Why a call to [`Engine::run_until`] / [`Engine::run_to_completion`]
/// returned.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: nothing remains to simulate.
    Exhausted,
    /// A handler called [`Context::stop`].
    Stopped,
    /// The deadline passed; events at later times remain queued.
    DeadlineReached,
    /// The event budget was consumed (runaway-model backstop).
    BudgetExceeded,
}

/// The discrete-event simulation engine: a [`CalendarQueue`] of
/// pending events (see its docs for the pop order) and the [`Model`]
/// they drive.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine<M: Model> {
    queue: CalendarQueue<M::Event>,
    model: M,
    now: SimTime,
    processed: u64,
    /// Reusable staging buffer handed to each [`Context`]: amortizes the
    /// per-event allocation of handler-scheduled follow-on events (a
    /// packet-heavy machine run stages one or more events per packet).
    staged: Vec<(SimTime, M::Event)>,
    /// Phase-timing probe captured from [`Model::phase_probe`] at
    /// construction (disabled unless the model enables telemetry).
    probe: PhaseProbe,
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero around `model`.
    pub fn new(model: M) -> Self {
        let probe = model.phase_probe();
        Engine {
            queue: CalendarQueue::new(),
            model,
            now: SimTime::ZERO,
            processed: 0,
            staged: Vec::new(),
            probe,
        }
    }

    /// Creates an engine whose clock starts at `now` instead of zero —
    /// the resume path of checkpointed runs. The queue starts empty;
    /// feed the drained events back through
    /// [`Engine::restore_events`].
    pub fn resume_at(model: M, now: SimTime) -> Self {
        let mut e = Engine::new(model);
        e.now = now;
        e
    }

    /// Drains the pending events as canonical `(time, rank, event)`
    /// triples (see [`CalendarQueue::drain_ranked`]). The engine's clock
    /// is unchanged; the queue is left empty.
    pub fn drain_events(&mut self) -> Vec<(SimTime, u128, M::Event)> {
        self.queue.drain_ranked()
    }

    /// Consumes the engine, returning the model together with the
    /// drained pending events — the checkpoint form of a paused run.
    pub fn into_parts(mut self) -> (M, Vec<(SimTime, u128, M::Event)>) {
        let events = self.queue.drain_ranked();
        (self.model, events)
    }

    /// Restores a [`Engine::drain_events`] snapshot: clears the queue,
    /// then re-pushes the triples in order, so they pop in drain order
    /// and sort before later pushes of the same `(time, rank)`.
    ///
    /// # Panics
    ///
    /// Panics if any restored event lies before the engine's current
    /// time.
    pub fn restore_events(&mut self, items: Vec<(SimTime, u128, M::Event)>) {
        self.queue.clear();
        for (t, rank, event) in items {
            assert!(
                t >= self.now,
                "cannot restore events into the past: now={} at={}",
                self.now,
                t
            );
            self.queue.push_ranked(t, rank, event);
        }
    }

    /// Schedules an event at an absolute time (before or during a run).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.push_ranked(at, M::tie_rank(&event), event);
    }

    /// Schedules an event `delay` ticks after the current time.
    pub fn schedule_in(&mut self, delay: u64, event: M::Event) {
        self.queue
            .push_ranked(self.now + delay, M::tie_rank(&event), event);
    }

    /// The current simulation time (timestamp of the last handled event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events handled so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the next pending event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Queue-occupancy high-water mark (see
    /// [`CalendarQueue::peak_len`]).
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// The phase-timing probe captured at construction (cloneable;
    /// windowed drivers record their barrier waits through a clone).
    pub fn probe(&self) -> &PhaseProbe {
        &self.probe
    }

    /// Shared access to the model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (e.g. to inject faults mid-run).
    #[inline]
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Pops one event, advances the clock, runs the handler and flushes
    /// the staged follow-on events. Returns `(time, stop_requested)`.
    #[inline]
    fn dispatch_one(&mut self) -> Option<(SimTime, bool)> {
        let tok = self.probe.start();
        let popped = self.queue.pop();
        self.probe.record(Phase::QueuePop, tok);
        let (time, event) = popped?;
        debug_assert!(time >= self.now, "event queue went back in time");
        self.now = time;
        self.processed += 1;
        let mut ctx = Context {
            now: time,
            staged: std::mem::take(&mut self.staged),
            stop: false,
        };
        self.model.handle(&mut ctx, event);
        let stop = ctx.stop;
        let mut staged = ctx.staged;
        for (at, ev) in staged.drain(..) {
            self.queue.push_ranked(at, M::tie_rank(&ev), ev);
        }
        // Hand the (now empty) buffer back for the next event.
        self.staged = staged;
        Some((time, stop))
    }

    /// Handles exactly one event, returning its timestamp, or `None` if the
    /// queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        self.dispatch_one().map(|(time, _)| time)
    }

    /// Runs until the queue drains, a handler stops the run, or the next
    /// event would be after `deadline` (events at exactly `deadline` are
    /// processed).
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Exhausted,
                Some(t) if t > deadline => {
                    // Advance the clock to the deadline so successive calls
                    // observe monotonic time; an earlier deadline leaves it.
                    self.now = self.now.max(deadline);
                    return RunOutcome::DeadlineReached;
                }
                Some(_) => {
                    let (_, stop) = self.dispatch_one().expect("peeked");
                    if stop {
                        return RunOutcome::Stopped;
                    }
                }
            }
        }
    }

    /// Runs one conservative window: handles every event strictly before
    /// `horizon`, then advances the clock to `horizon`.
    ///
    /// This is the building block of sharded execution (`spinn-par`): a
    /// shard may safely run all events below the global lower bound plus
    /// the cross-shard lookahead, because no in-flight remote event can
    /// land inside that window. Events at exactly `horizon` stay queued
    /// for the next window. [`Context::stop`] requests end the window
    /// early but are otherwise ignored by windowed drivers.
    pub fn run_before(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            match self.queue.peek_time() {
                Some(t) if t < horizon => {
                    let (_, stop) = self.dispatch_one().expect("peeked");
                    if stop {
                        return RunOutcome::Stopped;
                    }
                }
                Some(_) => {
                    self.now = self.now.max(horizon);
                    return RunOutcome::DeadlineReached;
                }
                None => {
                    self.now = self.now.max(horizon);
                    return RunOutcome::Exhausted;
                }
            }
        }
    }

    /// Runs until the queue drains or a handler stops the run, with an
    /// optional event budget as a backstop against livelocked models.
    pub fn run_to_completion(&mut self, budget: Option<u64>) -> RunOutcome {
        let mut remaining = budget;
        loop {
            if let Some(r) = remaining.as_mut() {
                if *r == 0 {
                    return RunOutcome::BudgetExceeded;
                }
                *r -= 1;
            }
            let Some((_, stop)) = self.dispatch_one() else {
                return RunOutcome::Exhausted;
            };
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts down; schedules itself until it hits zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<u64>,
    }

    impl Model for Countdown {
        type Event = ();
        fn handle(&mut self, ctx: &mut Context<()>, _: ()) {
            self.fired_at.push(ctx.now().ticks());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(10, ());
            }
        }
    }

    #[test]
    fn run_to_completion_drains() {
        let mut e = Engine::new(Countdown {
            remaining: 3,
            fired_at: vec![],
        });
        e.schedule_at(SimTime::ZERO, ());
        assert_eq!(e.run_to_completion(None), RunOutcome::Exhausted);
        assert_eq!(e.model().fired_at, vec![0, 10, 20, 30]);
        assert_eq!(e.processed(), 4);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = Engine::new(Countdown {
            remaining: 100,
            fired_at: vec![],
        });
        e.schedule_at(SimTime::ZERO, ());
        assert_eq!(e.run_until(SimTime::new(25)), RunOutcome::DeadlineReached);
        assert_eq!(e.model().fired_at, vec![0, 10, 20]);
        assert_eq!(e.now(), SimTime::new(25));
        // Resume: remaining events still fire.
        assert_eq!(e.run_until(SimTime::new(45)), RunOutcome::DeadlineReached);
        assert_eq!(e.model().fired_at, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn an_earlier_deadline_leaves_the_clock() {
        let mut e = Engine::new(Countdown {
            remaining: 100,
            fired_at: vec![],
        });
        e.schedule_at(SimTime::new(100), ());
        assert_eq!(e.run_until(SimTime::new(150)), RunOutcome::DeadlineReached);
        assert_eq!(e.run_until(SimTime::new(50)), RunOutcome::DeadlineReached);
        assert_eq!(e.now(), SimTime::new(150), "the clock went back");
        assert_eq!(e.model().fired_at, vec![100, 110, 120, 130, 140, 150]);
    }

    #[test]
    #[should_panic(expected = "cannot restore events into the past")]
    fn restoring_a_later_event_into_the_past_panics() {
        let mut e = Engine::resume_at(Stopper, SimTime::new(100));
        e.restore_events(vec![(SimTime::new(200), 0, 0), (SimTime::new(50), 0, 1)]);
    }

    #[test]
    fn budget_backstop() {
        let mut e = Engine::new(Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
        });
        e.schedule_at(SimTime::ZERO, ());
        assert_eq!(e.run_to_completion(Some(5)), RunOutcome::BudgetExceeded);
        assert_eq!(e.processed(), 5);
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<u32>, ev: u32) {
            if ev == 2 {
                ctx.stop();
            }
        }
    }

    #[test]
    fn stop_from_handler() {
        let mut e = Engine::new(Stopper);
        for i in 0..10 {
            e.schedule_at(SimTime::new(i as u64), i);
        }
        assert_eq!(e.run_to_completion(None), RunOutcome::Stopped);
        assert_eq!(e.now(), SimTime::new(2));
        assert_eq!(e.pending(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<()>, _: ()) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut e = Engine::new(Bad);
        e.schedule_at(SimTime::new(5), ());
        e.run_to_completion(None);
    }

    #[test]
    fn step_single_event() {
        let mut e = Engine::new(Countdown {
            remaining: 1,
            fired_at: vec![],
        });
        e.schedule_at(SimTime::new(3), ());
        assert_eq!(e.step(), Some(SimTime::new(3)));
        assert_eq!(e.step(), Some(SimTime::new(13)));
        assert_eq!(e.step(), None);
    }

    #[test]
    fn into_model_returns_state() {
        let mut e = Engine::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        e.schedule_at(SimTime::ZERO, ());
        e.run_to_completion(None);
        let m = e.into_model();
        assert_eq!(m.fired_at.len(), 1);
    }
}
