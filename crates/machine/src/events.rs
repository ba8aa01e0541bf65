//! The machine's event alphabet: what the event queue and a paused
//! run's pending list hold, which chip (and so which shard) an event
//! belongs to, the content-derived order of same-instant events, and
//! the canonical form of the pending list.

use spinn_noc::direction::Direction;
use spinn_noc::fabric::NocEvent;
use spinn_sim::SimTime;

use crate::machine::PendingEvent;

/// Events of the machine simulation.
#[derive(Copy, Clone, Debug)]
pub enum MachineEvent {
    /// Fabric internals.
    Noc(NocEvent),
    /// The 1 ms timer interrupt: fires once per machine (or per shard)
    /// and services every locally owned chip in ascending dense-id
    /// order — the same order per-chip timer events used to pop in, at
    /// a fraction of the queue traffic (one event per tick instead of
    /// one per chip per tick).
    Timer,
    /// A scheduled mid-run link failure (fault injection; see
    /// [`crate::NeuralMachine::queue_fail_link`]).
    FailLink {
        /// Dense chip id of one end of the failing cable.
        chip: u32,
        /// Direction of the cable from `chip` (both directions fail).
        dir: Direction,
    },
    /// A scheduled mid-run link repair — the inverse of
    /// [`MachineEvent::FailLink`] (see
    /// [`crate::NeuralMachine::queue_repair_link`]).
    RepairLink {
        /// Dense chip id of one end of the repaired cable.
        chip: u32,
        /// Direction of the cable from `chip` (both directions are
        /// restored).
        dir: Direction,
    },
    /// A core finishes its current handler. Handler completions resolve
    /// on the chip's agenda, not in the event queue; the queue holds
    /// this event only as a *wake* — for a completion that can put a
    /// packet on the fabric (a timer handler with spikes to emit, or
    /// any handler of a core that owes a tick), scheduled at the
    /// completion's instant so the chip is advanced exactly then. In a
    /// paused run's pending list it is the checkpoint spelling of a busy
    /// core: one per core, at the instant its work item finishes.
    CoreDone {
        /// Dense chip id.
        chip: u32,
        /// Core index on the chip.
        core: u8,
    },
    /// A DMA transfer completes (synaptic row now in DTCM). Never in
    /// the event queue: transfers in flight live on the chip's agenda,
    /// and this variant is their checkpoint spelling in a paused run's
    /// pending list.
    DmaDone {
        /// Dense chip id.
        chip: u32,
        /// Core index on the chip.
        core: u8,
        /// Source AER key whose row was fetched.
        key: u32,
    },
    /// External stimulus: a spike packet enters the fabric.
    InjectSpike {
        /// Dense chip id at which to inject.
        chip: u32,
        /// AER key.
        key: u32,
    },
    /// The monitor processor re-issues a dropped spike packet (§5.3:
    /// "can recover the packet and re-issue it if appropriate").
    ReissueSpike {
        /// Dense chip id at which the packet was dropped.
        chip: u32,
        /// AER key.
        key: u32,
        /// Reissue generation (2-bit timestamp field; gives up at 3).
        timestamp: u8,
    },
}

/// The shard that must handle an event when a segment runs sharded:
/// `Some(chip)` for chip-local events, `None` for events every shard
/// replays against its own replica (the coalesced timer, link
/// failures).
pub(crate) fn event_chip(ev: &MachineEvent) -> Option<u32> {
    match ev {
        MachineEvent::Noc(NocEvent::Arrive { node, .. })
        | MachineEvent::Noc(NocEvent::LinkFree { node, .. })
        | MachineEvent::Noc(NocEvent::Retry { node, .. }) => Some(*node),
        MachineEvent::CoreDone { chip, .. }
        | MachineEvent::DmaDone { chip, .. }
        | MachineEvent::InjectSpike { chip, .. }
        | MachineEvent::ReissueSpike { chip, .. } => Some(*chip),
        MachineEvent::Timer | MachineEvent::FailLink { .. } | MachineEvent::RepairLink { .. } => {
            None
        }
    }
}

/// Merges per-shard drained queues into one canonical pending list:
/// stable-sorted by `(time, rank)` (so same-instant order stays a
/// function of event content, as in the queues themselves) with the
/// per-shard replicas of broadcast events collapsed back to one copy.
pub(crate) fn canonical_pending(
    per_shard: Vec<Vec<(SimTime, u128, MachineEvent)>>,
) -> Vec<PendingEvent> {
    let mut flat: Vec<(u64, u128, MachineEvent)> = Vec::new();
    for shard in per_shard {
        flat.extend(shard.into_iter().map(|(t, r, e)| (t.ticks(), r, e)));
    }
    flat.sort_by_key(|&(t, r, _)| (t, r));
    // A broadcast event's rank names it (tag, chip, direction), so the
    // replicas of one event sort next to each other.
    flat.dedup_by(|b, a| (a.0, a.1) == (b.0, b.1) && event_chip(&a.2).is_none());
    flat.into_iter()
        .map(|(at_ns, _, event)| PendingEvent { at_ns, event })
        .collect()
}

/// Content-derived same-instant ordering.
///
/// Two events scheduled for the same nanosecond are handled in rank
/// order rather than insertion order. Deriving the rank from the
/// event's content makes the order identical between the serial
/// engine and a sharded run — cross-shard arrivals are inserted at
/// window barriers, so their insertion order differs, but their
/// content does not. Events with equal rank at the same instant are
/// identical packets (or duplicate interrupts) and commute.
pub(crate) fn tie_rank(ev: &MachineEvent) -> u128 {
    // Layout: [tag:8 | a:56 | b:64].
    fn pack(tag: u8, a: u64, b: u64) -> u128 {
        ((tag as u128) << 120) | (((a & 0x00FF_FFFF_FFFF_FFFF) as u128) << 64) | b as u128
    }
    // The low 64 wire bits carry header + key + 24 payload bits;
    // multicast spikes (the only mid-run traffic) fit entirely, so
    // bits 56.. are free for the hop count.
    fn packet_bits(f: &spinn_noc::fabric::InFlight) -> u64 {
        (f.packet.encode() as u64 & 0x00FF_FFFF_FFFF_FFFF) | ((f.hops as u64) << 56)
    }
    match ev {
        MachineEvent::Noc(NocEvent::Arrive { node, port, flight }) => {
            pack(1, ((*node as u64) << 8) | *port as u64, packet_bits(flight))
        }
        MachineEvent::Noc(NocEvent::LinkFree { node, dir }) => {
            pack(2, ((*node as u64) << 8) | *dir as u64, 0)
        }
        MachineEvent::Noc(NocEvent::Retry {
            node,
            dir,
            phase,
            left,
            flight,
        }) => pack(
            3,
            ((*node as u64) << 24) | ((*dir as u64) << 16) | ((*phase as u64) << 8) | *left as u64,
            packet_bits(flight),
        ),
        // Link failures and repairs sort before all same-instant
        // traffic (tag 0) so a packet routed at exactly the
        // transition time sees the new link state in serial and
        // sharded runs alike. A repair at the same instant as a
        // failure of the same cable ranks after it (b = 1): the link
        // ends the nanosecond repaired, deterministically.
        MachineEvent::FailLink { chip, dir } => pack(0, ((*chip as u64) << 8) | *dir as u64, 0),
        MachineEvent::RepairLink { chip, dir } => pack(0, ((*chip as u64) << 8) | *dir as u64, 1),
        MachineEvent::Timer => pack(4, 0, 0),
        MachineEvent::CoreDone { chip, core } => pack(5, ((*chip as u64) << 8) | *core as u64, 0),
        MachineEvent::DmaDone { chip, core, key } => {
            pack(6, ((*chip as u64) << 8) | *core as u64, *key as u64)
        }
        MachineEvent::InjectSpike { chip, key } => pack(7, *chip as u64, *key as u64),
        MachineEvent::ReissueSpike {
            chip,
            key,
            timestamp,
        } => pack(8, ((*chip as u64) << 8) | *timestamp as u64, *key as u64),
    }
}
