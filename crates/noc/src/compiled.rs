//! The lookup index a multicast routing table keeps for the per-packet
//! hot path.
//!
//! [`McTable::lookup`](crate::table::McTable::lookup) models the ternary
//! CAM as a linear scan — faithful to the hardware's parallel compare,
//! but O(entries) per packet in software. [`CompiledTable`] holds the
//! same entries as a set of **mask groups**: entries sharing a ternary
//! mask land in one hash table keyed by `key & mask`, so a lookup costs
//! one hash probe per *distinct mask* instead of one compare per entry.
//! Routing plans use a handful of masks (a core-block mask plus the
//! widened masks minimization produces), so the probe count stays tiny
//! even at full 1024-entry occupancy. Every [`McTable`] keeps its index
//! current on each insert and clear, and the router looks keys up in it.
//!
//! The per-group table is a small open-addressing map with a
//! multiply-shift hash rather than `std::collections::HashMap`: the
//! router probes it for every packet hop, and SipHash plus the
//! `HashMap` miss path cost more than the rest of the routing decision
//! combined. The map is an internal acceleration structure — lookups
//! return exactly the linear scan's result either way — and the
//! Fibonacci hash is deterministic, so routers behave identically
//! across runs and hosts.
//!
//! First-match priority is preserved exactly: every entry carries its
//! CAM index, each bucket keeps the lowest index for its masked key, and
//! a lookup that matches in several groups returns the match with the
//! lowest index — precisely the entry the linear scan would have found
//! first.

use crate::table::{McTable, McTableEntry, RouteSet};

/// One slot of the open-addressing map: a masked key, the CAM index of
/// the first entry with that masked key, and its route. `index ==
/// EMPTY_SLOT` marks a free slot (CAM indices are bounded by the
/// table's capacity, far below the sentinel).
#[derive(Clone, Copy, Debug)]
struct Slot {
    masked_key: u32,
    index: u32,
    route: RouteSet,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// One group of entries sharing a ternary mask: an open-addressing
/// table over `key & mask` with linear probing. Capacity is a power of
/// two at least twice the occupied slot count, so probe chains stay
/// short.
#[derive(Clone, Debug)]
struct MaskGroup {
    /// The shared ternary mask.
    mask: u32,
    /// Power-of-two slot array.
    slots: Vec<Slot>,
    /// `slots.len() - 1`, for masking the hash.
    cap_mask: usize,
    /// Slots in use (distinct masked keys).
    occupied: usize,
}

impl MaskGroup {
    fn new(mask: u32) -> Self {
        let mut g = MaskGroup {
            mask,
            slots: Vec::new(),
            cap_mask: 0,
            occupied: 0,
        };
        g.rebuild(8);
        g
    }

    /// Fibonacci (multiply-shift) hash of a masked key.
    #[inline]
    fn hash(&self, masked_key: u32) -> usize {
        (masked_key.wrapping_mul(0x9E37_79B1) >> 16) as usize & self.cap_mask
    }

    fn rebuild(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    masked_key: 0,
                    index: EMPTY_SLOT,
                    route: RouteSet::EMPTY,
                };
                capacity
            ],
        );
        self.cap_mask = capacity - 1;
        self.occupied = 0;
        for s in old {
            if s.index != EMPTY_SLOT {
                self.insert(s.masked_key, s.index, s.route);
            }
        }
    }

    /// Inserts keeping the lowest CAM index per masked key.
    fn insert(&mut self, masked_key: u32, index: u32, route: RouteSet) {
        let mut i = self.hash(masked_key);
        loop {
            let s = &mut self.slots[i];
            if s.index == EMPTY_SLOT {
                *s = Slot {
                    masked_key,
                    index,
                    route,
                };
                self.occupied += 1;
                return;
            }
            if s.masked_key == masked_key {
                // First match wins: keep the lowest CAM index.
                if index < s.index {
                    s.index = index;
                    s.route = route;
                }
                return;
            }
            i = (i + 1) & self.cap_mask;
        }
    }

    #[inline]
    fn get(&self, masked_key: u32) -> Option<(u32, RouteSet)> {
        let mut i = self.hash(masked_key);
        loop {
            let s = &self.slots[i];
            if s.index == EMPTY_SLOT {
                return None;
            }
            if s.masked_key == masked_key {
                return Some((s.index, s.route));
            }
            i = (i + 1) & self.cap_mask;
        }
    }
}

/// The key-indexed lookup structure of an [`McTable`], with identical
/// first-match semantics.
///
/// # Example
///
/// ```
/// use spinn_noc::compiled::CompiledTable;
/// use spinn_noc::table::{McTable, McTableEntry, RouteSet};
/// use spinn_noc::direction::Direction;
///
/// let mut t = McTable::new(1024);
/// t.insert(McTableEntry {
///     key: 0x100,
///     mask: 0xFF00,
///     route: RouteSet::EMPTY.with_link(Direction::East),
/// }).unwrap();
/// let c = CompiledTable::compile(&t);
/// assert_eq!(c.lookup(0x0142), t.lookup(0x0142));
/// assert_eq!(c.lookup(0x0242), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CompiledTable {
    groups: Vec<MaskGroup>,
    entries: usize,
}

impl CompiledTable {
    /// A copy of the index `table` keeps.
    pub fn compile(table: &McTable) -> Self {
        table.compiled().clone()
    }

    /// Indexes `e` as the entry at CAM index [`CompiledTable::len`].
    pub(crate) fn insert(&mut self, e: McTableEntry) {
        let group = match self.groups.iter().position(|g| g.mask == e.mask) {
            Some(i) => &mut self.groups[i],
            None => {
                self.groups.push(MaskGroup::new(e.mask));
                self.groups.last_mut().expect("just pushed")
            }
        };
        group.insert(e.key & e.mask, self.entries as u32, e.route);
        // Keep occupancy at or below half so probe chains stay short.
        if group.occupied * 2 > group.slots.len() {
            let capacity = group.slots.len() * 2;
            group.rebuild(capacity);
        }
        self.entries += 1;
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.entries = 0;
    }

    /// Number of distinct ternary masks (hash probes per lookup).
    pub fn mask_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of entries indexed.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Looks a packet key up; `None` means default-route. Returns exactly
    /// what the linear first-match scan over the source table returns.
    #[inline]
    pub fn lookup(&self, packet_key: u32) -> Option<RouteSet> {
        let mut best: Option<(u32, RouteSet)> = None;
        for g in &self.groups {
            if let Some((index, route)) = g.get(packet_key & g.mask) {
                if best.is_none_or(|(b, _)| index < b) {
                    best = Some((index, route));
                }
            }
        }
        best.map(|(_, route)| route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::table::McTableEntry;

    fn entry(key: u32, mask: u32, core: usize) -> McTableEntry {
        McTableEntry {
            key,
            mask,
            route: RouteSet::EMPTY.with_core(core),
        }
    }

    #[test]
    fn matches_linear_scan_on_random_tables() {
        // A deterministic pseudo-random sweep: many entries, overlapping
        // masks, lookups compared against the linear scan bit-for-bit.
        // Each table is refilled in batches, cleared before some of them,
        // with batches large enough to grow the mask groups past their
        // first rebuild (more than half of 8 slots) and small enough to
        // stay below it: the index must track every insert and clear.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let mut t = McTable::new(512);
            // Every key ever inserted, so cleared entries are probed too.
            let mut keys = Vec::new();
            for (batch, size) in [200, 3, 60, 120, 9].into_iter().enumerate() {
                if batch > 0 && next() % 2 == 0 {
                    t.clear();
                    assert!(t.compiled().is_empty());
                }
                for _ in 0..size {
                    let key = next() as u32;
                    let mask = match next() % 4 {
                        0 => 0xFFFF_F800,
                        1 => 0xFFFF_F000,
                        2 => 0xFFFF_8000,
                        _ => u32::MAX,
                    };
                    t.insert(entry(key, mask, (next() % 26) as usize)).unwrap();
                    keys.push(key);
                }
                let c = t.compiled();
                assert_eq!(c.len(), t.len());
                for _ in 0..500 {
                    let probe = next() as u32;
                    assert_eq!(c.lookup(probe), t.lookup(probe));
                }
                for &key in &keys {
                    assert_eq!(c.lookup(key), t.lookup(key));
                }
            }
        }
    }

    #[test]
    fn first_match_priority_across_mask_groups() {
        let mut t = McTable::new(8);
        t.insert(McTableEntry {
            key: 0b1000,
            mask: 0b1000,
            route: RouteSet::EMPTY.with_link(Direction::East),
        })
        .unwrap();
        t.insert(McTableEntry {
            key: 0b1100,
            mask: 0b1100,
            route: RouteSet::EMPTY.with_link(Direction::West),
        })
        .unwrap();
        let c = CompiledTable::compile(&t);
        // 0b1100 matches both groups; the earlier entry must win.
        let r = c.lookup(0b1100).unwrap();
        assert!(r.has_link(Direction::East));
        assert!(!r.has_link(Direction::West));
        assert_eq!(c.mask_groups(), 2);
    }

    #[test]
    fn duplicate_masked_keys_keep_first() {
        let mut t = McTable::new(8);
        t.insert(entry(0x800, 0xFFFF_F800, 1)).unwrap();
        t.insert(entry(0x801, 0xFFFF_F800, 2)).unwrap(); // same masked key
        let c = CompiledTable::compile(&t);
        assert!(c.lookup(0x805).unwrap().has_core(1));
    }

    #[test]
    fn empty_table_compiles_to_miss() {
        let t = McTable::new(4);
        let c = CompiledTable::compile(&t);
        assert!(c.is_empty());
        assert_eq!(c.lookup(123), None);
    }
}
