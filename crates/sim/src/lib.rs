//! # spinn-sim — deterministic discrete-event simulation kernel
//!
//! The substrate beneath every level of the SpiNNaker reproduction: the
//! transition-level self-timed link models (`spinn-link`), the packet-level
//! network-on-chip fabric (`spinn-noc`) and the full machine model
//! (`spinn-machine`) all drive their state machines from this kernel.
//!
//! The kernel is intentionally small and strictly deterministic:
//!
//! * [`SimTime`] is an opaque tick counter; each simulation domain decides
//!   what a tick means (picoseconds for circuits, nanoseconds for the
//!   system-level machine).
//! * Events are ordered by `(time, tie rank, insertion sequence)`: a
//!   content-derived rank ([`Model::tie_rank`]) orders same-instant
//!   events by *what* they are, and FIFO breaks the remaining ties — no
//!   hash-map iteration order or thread scheduling can perturb a run.
//!   Every engine keeps its events in the bucketed [`CalendarQueue`]
//!   (amortized `O(1)` when events are scheduled a short way ahead of
//!   the clock, as the machine's handlers do; its docs state the
//!   contract precisely). The binary-heap [`EventQueue`] honours the
//!   same contract and drives no engine: it is the reference the
//!   calendar is tested and benchmarked against.
//! * [`Engine`] drives a user [`Model`]; models schedule future events
//!   through a [`Context`] handed to every handler.
//! * [`Xoshiro256`] is a self-contained seedable PRNG (xoshiro256**) with
//!   the distributions the experiments need (uniform, Bernoulli,
//!   exponential, normal, Poisson), so identical seeds reproduce identical
//!   experiments bit-for-bit on any platform.
//!
//! # Example
//!
//! A two-event ping/pong model:
//!
//! ```
//! use spinn_sim::{Engine, Model, Context, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! struct PingPong { pings: u32 }
//!
//! impl Model for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Ping => {
//!                 self.pings += 1;
//!                 if self.pings < 3 {
//!                     ctx.schedule_in(10, Ev::Pong);
//!                 }
//!             }
//!             Ev::Pong => ctx.schedule_in(5, Ev::Ping),
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(PingPong { pings: 0 });
//! engine.schedule_at(SimTime::ZERO, Ev::Ping);
//! engine.run_to_completion(None);
//! assert_eq!(engine.model().pings, 3);
//! assert_eq!(engine.now(), SimTime::new(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod engine;
mod event;
mod rng;
mod stats;
mod time;
pub mod wire;

pub use calendar::CalendarQueue;
pub use engine::{Context, Engine, Model, RunOutcome};
pub use event::EventQueue;
pub use rng::Xoshiro256;
pub use stats::Histogram;
pub use time::SimTime;
