//! # spinn-serve — the machine as a shared instrument
//!
//! SpiNNaker was pitched as a community machine: one physical
//! million-core instrument, many users submitting jobs against models
//! that stay loaded. The substrate for that already exists in this
//! workspace — [`spinnaker::RunSession`] keeps a built machine warm
//! between runs, and its ~48 B/neuron [`spinnaker::Snapshot`]s park and
//! resume a session bit-exactly. What was missing is the operator
//! layer: who gets to run, on which warm machine, and what happens
//! when the host can't keep every model resident. This crate is that
//! layer.
//!
//! ## Shape
//!
//! ```text
//! submit(JobSpec) ──► admission control ──► bounded FIFO queue
//!     (per-tenant quotas,  [quota::AdmitError on reject])
//!      queue-cap check)
//!                                   poll()
//!                                     │  coalesce: up to max_batch
//!                                     ▼  queued jobs on one model
//!                         ┌───────────────────────┐
//!                         │ SessionPool (LRU)     │
//!                         │  model A: Resident ◄──┼── warm hit
//!                         │  model B: Evicted  ◄──┼── rehydrate from Snapshot
//!                         │  model C: Cold     ◄──┼── first build
//!                         └───────────────────────┘
//!                                     │ resident-byte budget enforced
//!                                     ▼ (evict LRU via checkpoint())
//!                              Vec<JobResult>
//! ```
//!
//! * **Admission** ([`Server::submit`]) is synchronous and fallible:
//!   a full queue, an exhausted per-tenant in-flight slot, or a blown
//!   tick budget rejects the job *now* with a typed
//!   [`AdmitError`] instead of letting it rot in a queue. Rejection is
//!   deterministic in arrival order — the conformance suite replays a
//!   seeded arrival sequence twice and demands identical verdicts.
//! * **Serving** ([`Server::poll`]) dispatches one batch per call:
//!   the head-of-queue job picks the model, and up to
//!   [`ServeConfig::max_batch`] queued jobs *on that same model* ride
//!   the same warm session back-to-back, paying one acquire for the
//!   lot. [`Server::drain`] loops `poll` until the queue is empty.
//! * **Eviction** ([`pool::SessionPool`]) keeps resident synaptic
//!   bytes (the [`spinnaker::RunSession::resident_bytes`] accounting)
//!   under [`ServeConfig::resident_budget_bytes`] by checkpointing the
//!   least-recently-used session into a [`spinnaker::Snapshot`] and
//!   dropping its machine. A later job on that model rehydrates it —
//!   bit-exactly, so eviction is invisible in the spike streams.
//! * **Accounting** — every admission, rejection, completed job, warm
//!   hit and bio-millisecond is recorded per tenant into
//!   [`spinn_obs::RunTelemetry`] via its [`spinn_obs::TenantCounter`]
//!   registry ([`Server::telemetry`]), so operator reports ride the
//!   same pipeline as machine telemetry.
//!
//! ## Determinism
//!
//! The server never consults wall-clock time for a *decision*: batch
//! composition, eviction order and admission verdicts are pure
//! functions of the submission sequence and the configuration.
//! Wall-clock shows up only in the latency fields of [`JobResult`].
//! Combined with the session layer's bit-exact segment and snapshot
//! contracts, an identical job stream yields identical spike streams —
//! whatever the byte budget, batch width or eviction pattern.
//! `tests/serving_invariants.rs` locks this down on every CI run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod pool;
pub mod quota;
pub mod server;

pub use job::{JobId, JobResult, JobSpec, ModelId, Stimulus, TenantId};
pub use pool::{AcquireOutcome, PoolStats, SessionPool};
pub use quota::{AdmitError, TenantQuota};
pub use server::{ServeConfig, ServeStats, Server};
