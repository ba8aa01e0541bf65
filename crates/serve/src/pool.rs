//! The warm-session pool: LRU eviction under a resident-byte budget.
//!
//! Each registered model owns one slot that moves between three
//! states:
//!
//! ```text
//!        first acquire                 budget pressure
//! Cold ────────────────► Resident ────────────────────► Evicted
//!        (full build)        ▲     (checkpoint, drop       │
//!                            │      the machine)           │
//!                            └─────────────────────────────┘
//!                                next acquire (rehydrate the
//!                                Snapshot — bit-exact resume)
//! ```
//!
//! The budget is accounted in the same host-resident synaptic bytes
//! the lazy loader reports
//! ([`RunSession::resident_bytes`] /
//! `NeuralMachine::total_resident_bytes`), re-read after every batch
//! because lazily-materialized rows grow a session's footprint as it
//! runs. Eviction picks the least-recently-*acquired* resident slot,
//! never the one being served; a single model bigger than the whole
//! budget therefore stays resident alone rather than thrashing.
//!
//! The pool itself never decides *when* to run — that is the
//! [`Server`](crate::Server)'s queue — it only answers "give me a live
//! session for model M and keep the bytes legal".

use spinnaker::prelude::*;

use crate::job::ModelId;

/// What [`SessionPool::acquire`] had to do to produce a live session.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The session was already resident — the warm-hit path.
    Warm,
    /// First touch: the model paid a full place/route/load build.
    ColdBuild,
    /// The model had been evicted and was rebuilt from its
    /// [`Snapshot`] (bit-exact resume).
    Rehydrated,
}

/// Pool-level accounting, all monotonic except the byte gauges.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires answered by an already-resident session.
    pub warm_acquires: u64,
    /// Full cold builds paid.
    pub cold_builds: u64,
    /// Snapshot rehydrates paid.
    pub rehydrates: u64,
    /// Sessions checkpointed out under budget pressure (or by an
    /// explicit [`SessionPool::evict`]).
    pub evictions: u64,
    /// High-water mark of summed resident bytes.
    pub peak_resident_bytes: u64,
}

/// One model's slot.
#[derive(Debug)]
enum SlotState {
    /// Never built.
    Cold,
    /// Live and warm.
    Resident(Box<RunSession>),
    /// Checkpointed out; the snapshot holds the full resume state.
    Evicted(Box<Snapshot>),
}

/// A registered model plus its serving state.
#[derive(Debug)]
struct Slot {
    net: NetworkGraph,
    cfg: SimConfig,
    state: SlotState,
    /// Pool clock at last acquire (the LRU key).
    last_used: u64,
    /// Resident bytes at last accounting (meaningful only while
    /// `Resident`).
    resident_bytes: u64,
}

/// A pool of warm [`RunSession`]s, one slot per registered model,
/// kept under `budget_bytes` of host-resident synaptic state by LRU
/// checkpoint-eviction.
#[derive(Debug)]
pub struct SessionPool {
    slots: Vec<Slot>,
    budget_bytes: u64,
    /// Monotonic acquire counter backing the LRU order.
    clock: u64,
    stats: PoolStats,
}

impl SessionPool {
    /// An empty pool bounded at `budget_bytes` of resident synaptic
    /// state (`u64::MAX` for effectively unbounded).
    pub fn new(budget_bytes: u64) -> SessionPool {
        SessionPool {
            slots: Vec::new(),
            budget_bytes,
            clock: 0,
            stats: PoolStats::default(),
        }
    }

    /// Registers a model (cold — nothing is built until the first
    /// [`SessionPool::acquire`]) and returns its id.
    pub fn register(&mut self, net: NetworkGraph, cfg: SimConfig) -> ModelId {
        let id = u32::try_from(self.slots.len()).expect("model count fits u32");
        self.slots.push(Slot {
            net,
            cfg,
            state: SlotState::Cold,
            last_used: 0,
            resident_bytes: 0,
        });
        ModelId(id)
    }

    /// Registered models.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `model` names a registered slot.
    pub fn contains(&self, model: ModelId) -> bool {
        (model.0 as usize) < self.slots.len()
    }

    /// Makes `model`'s session live (building or rehydrating as
    /// needed), marks it most-recently-used, and enforces the byte
    /// budget by evicting other LRU residents. Call
    /// [`SessionPool::session_mut`] next for the live handle.
    ///
    /// # Errors
    ///
    /// Any [`Simulation::build`] error, or a snapshot error if a
    /// stored checkpoint fails to restore. Unknown models build-error
    /// via panic-free contract: callers (the server) validate ids at
    /// registration time, so this panics on out-of-range ids.
    pub fn acquire(&mut self, model: ModelId) -> Result<AcquireOutcome, SpinnError> {
        self.clock += 1;
        let clock = self.clock;
        let slot = &mut self.slots[model.0 as usize];
        slot.last_used = clock;
        let outcome = match &slot.state {
            SlotState::Resident(_) => {
                self.stats.warm_acquires += 1;
                AcquireOutcome::Warm
            }
            SlotState::Cold => {
                let session = Simulation::build(&slot.net, slot.cfg.clone())?.into_session();
                slot.resident_bytes = session.resident_bytes();
                slot.state = SlotState::Resident(Box::new(session));
                self.stats.cold_builds += 1;
                AcquireOutcome::ColdBuild
            }
            SlotState::Evicted(snap) => {
                let session = RunSession::restore(&slot.net, slot.cfg.clone(), snap)?;
                slot.resident_bytes = session.resident_bytes();
                slot.state = SlotState::Resident(Box::new(session));
                self.stats.rehydrates += 1;
                AcquireOutcome::Rehydrated
            }
        };
        self.note_peak();
        self.enforce_budget(model);
        Ok(outcome)
    }

    /// The live session for `model` (None while cold or evicted).
    pub fn session_mut(&mut self, model: ModelId) -> Option<&mut RunSession> {
        match &mut self.slots[model.0 as usize].state {
            SlotState::Resident(s) => Some(s),
            _ => None,
        }
    }

    /// Re-reads `model`'s resident bytes (lazy rows materialize as a
    /// session runs) and re-enforces the budget. Call after every
    /// served batch.
    pub fn refresh_accounting(&mut self, model: ModelId) {
        let slot = &mut self.slots[model.0 as usize];
        if let SlotState::Resident(s) = &slot.state {
            slot.resident_bytes = s.resident_bytes();
        }
        self.note_peak();
        self.enforce_budget(model);
    }

    /// Checkpoints `model` out of residency (a no-op unless resident).
    /// Returns whether an eviction happened.
    pub fn evict(&mut self, model: ModelId) -> bool {
        let slot = &mut self.slots[model.0 as usize];
        if let SlotState::Resident(s) = &slot.state {
            let snap = s.checkpoint();
            slot.state = SlotState::Evicted(Box::new(snap));
            slot.resident_bytes = 0;
            self.stats.evictions += 1;
            true
        } else {
            false
        }
    }

    /// Summed resident bytes across live sessions (as of the last
    /// accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s.state {
                SlotState::Resident(_) => s.resident_bytes,
                _ => 0,
            })
            .sum()
    }

    /// The configured budget, bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Pool accounting so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn note_peak(&mut self) {
        let now = self.resident_bytes();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(now);
    }

    /// Evicts least-recently-used residents (never `keep`) until the
    /// summed resident bytes fit the budget or only `keep` remains.
    fn enforce_budget(&mut self, keep: ModelId) {
        while self.resident_bytes() > self.budget_bytes {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != keep.0 as usize && matches!(s.state, SlotState::Resident(_)))
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let evicted = self.evict(ModelId(i as u32));
                    debug_assert!(evicted);
                }
                // Only the in-use model is resident; over-budget or
                // not, evicting the session we are about to run would
                // thrash, so it stays.
                None => break,
            }
        }
    }
}
