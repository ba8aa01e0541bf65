//! The multicast routing table: a ternary CAM of `(key, mask) → route`
//! entries, as held by each node's packet router (§4).
//!
//! A multicast packet's 32-bit AER key is compared against every entry;
//! the **first** entry whose `key & mask == packet_key & mask` wins and
//! its route set (any subset of the 6 links and the local cores) is used.
//! If no entry matches, the packet is *default routed*: it continues
//! straight through, out of the link opposite its arrival port — which is
//! what lets the mapper omit entries along straight path segments.

use crate::compiled::CompiledTable;
use crate::direction::Direction;

/// A set of router outputs: up to 6 inter-chip links and up to 26 local
/// processor cores, packed in a `u32` (bits 0–5 links, 6–31 cores).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct RouteSet(u32);

/// Highest local-core index representable in a route word.
pub const MAX_CORES_PER_ROUTE: usize = 26;

impl RouteSet {
    /// The empty route.
    pub const EMPTY: RouteSet = RouteSet(0);

    /// Creates a route set from a raw route word.
    #[inline]
    pub const fn from_bits(bits: u32) -> Self {
        RouteSet(bits)
    }

    /// The raw route word.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Adds an inter-chip link output.
    #[inline]
    pub fn with_link(mut self, d: Direction) -> Self {
        self.0 |= 1 << d.index();
        self
    }

    /// Adds a local core output.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 26`.
    #[inline]
    pub fn with_core(mut self, core: usize) -> Self {
        assert!(core < MAX_CORES_PER_ROUTE, "core index {core} out of range");
        self.0 |= 1 << (6 + core);
        self
    }

    /// Whether link `d` is in the set.
    #[inline]
    pub fn has_link(self, d: Direction) -> bool {
        self.0 & (1 << d.index()) != 0
    }

    /// Whether local core `core` is in the set.
    #[inline]
    pub fn has_core(self, core: usize) -> bool {
        core < MAX_CORES_PER_ROUTE && self.0 & (1 << (6 + core)) != 0
    }

    /// Iterates the link outputs.
    pub fn links(self) -> impl Iterator<Item = Direction> {
        (0..6)
            .filter(move |i| self.0 & (1 << i) != 0)
            .map(Direction::from_index)
    }

    /// Iterates the local core outputs.
    pub fn cores(self) -> impl Iterator<Item = usize> {
        (0..MAX_CORES_PER_ROUTE).filter(move |c| self.0 & (1 << (6 + c)) != 0)
    }

    /// The local-core subset as a bitmask (bit `c` = core `c`).
    #[inline]
    pub fn core_mask(self) -> u32 {
        self.0 >> 6
    }

    /// Whether the route has no outputs at all.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two route sets.
    #[inline]
    pub fn union(self, other: RouteSet) -> RouteSet {
        RouteSet(self.0 | other.0)
    }
}

/// One ternary-CAM entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct McTableEntry {
    /// Key bits compared where `mask` is 1.
    pub key: u32,
    /// Ternary mask: 1 = compare, 0 = don't care.
    pub mask: u32,
    /// Outputs for matching packets.
    pub route: RouteSet,
}

impl McTableEntry {
    /// Whether a packet key matches this entry.
    #[inline]
    pub fn matches(&self, packet_key: u32) -> bool {
        packet_key & self.mask == self.key & self.mask
    }
}

/// A node's multicast routing table (ordered: first match wins), with
/// the key-indexed lookup structure ([`CompiledTable`]) it keeps current
/// on every insert and clear.
///
/// # Example
///
/// ```
/// use spinn_noc::table::{McTable, McTableEntry, RouteSet};
/// use spinn_noc::direction::Direction;
///
/// let mut t = McTable::new(1024);
/// t.insert(McTableEntry {
///     key: 0x100,
///     mask: 0xFF00,
///     route: RouteSet::EMPTY.with_link(Direction::East),
/// }).unwrap();
/// assert!(t.lookup(0x0142).unwrap().has_link(Direction::East));
/// assert!(t.lookup(0x0242).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct McTable {
    entries: Vec<McTableEntry>,
    capacity: usize,
    peak_len: usize,
    index: CompiledTable,
}

/// Error returned when a routing table's CAM capacity is exhausted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TableFull {
    /// The table's capacity.
    pub capacity: usize,
}

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "multicast routing table full ({} entries)",
            self.capacity
        )
    }
}

impl std::error::Error for TableFull {}

impl McTable {
    /// Creates an empty table with the given CAM capacity (the SpiNNaker
    /// router has 1024 entries).
    pub fn new(capacity: usize) -> Self {
        McTable {
            entries: Vec::new(),
            capacity,
            peak_len: 0,
            index: CompiledTable::default(),
        }
    }

    /// Appends an entry (lowest priority so far).
    ///
    /// # Errors
    ///
    /// Returns [`TableFull`] if the CAM capacity would be exceeded.
    pub fn insert(&mut self, entry: McTableEntry) -> Result<(), TableFull> {
        if self.entries.len() >= self.capacity {
            return Err(TableFull {
                capacity: self.capacity,
            });
        }
        self.index.insert(entry);
        self.entries.push(entry);
        self.peak_len = self.peak_len.max(self.entries.len());
        Ok(())
    }

    /// Removes every entry (reprogramming the CAM from scratch, e.g.
    /// after a monitor-driven migration). The occupancy high-water mark
    /// ([`McTable::peak_len`]) survives.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// The key-indexed lookup structure over the current entries.
    pub(crate) fn compiled(&self) -> &CompiledTable {
        &self.index
    }

    /// Most entries ever simultaneously installed (CAM occupancy
    /// high-water mark; survives [`McTable::clear`]).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Looks a packet key up by scanning the entries in priority order,
    /// as the CAM compares them; `None` means default-route.
    pub fn lookup(&self, packet_key: u32) -> Option<RouteSet> {
        self.entries
            .iter()
            .find(|e| e.matches(packet_key))
            .map(|e| e.route)
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// CAM capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the entries in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &McTableEntry> {
        self.entries.iter()
    }

    /// Restores the occupancy high-water mark from a checkpoint
    /// (clamped up by the current length, so a restored table never
    /// reports a peak below what is installed).
    pub(crate) fn restore_peak(&mut self, peak: usize) {
        self.peak_len = peak.max(self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_set_links_and_cores() {
        let r = RouteSet::EMPTY
            .with_link(Direction::East)
            .with_link(Direction::South)
            .with_core(0)
            .with_core(17);
        assert!(r.has_link(Direction::East));
        assert!(!r.has_link(Direction::West));
        assert!(r.has_core(17));
        assert!(!r.has_core(3));
        assert_eq!(r.links().count(), 2);
        assert_eq!(r.cores().collect::<Vec<_>>(), vec![0, 17]);
        assert_eq!(r.core_mask(), 1 | (1 << 17));
        assert!(!r.is_empty());
        assert!(RouteSet::EMPTY.is_empty());
    }

    #[test]
    fn route_set_union() {
        let a = RouteSet::EMPTY.with_link(Direction::East);
        let b = RouteSet::EMPTY.with_core(2);
        let u = a.union(b);
        assert!(u.has_link(Direction::East) && u.has_core(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_out_of_range_panics() {
        let _ = RouteSet::EMPTY.with_core(26);
    }

    #[test]
    fn first_match_priority() {
        let mut t = McTable::new(16);
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
        // 0b1100 matches both; the first entry must win.
        let r = t.lookup(0b1100).unwrap();
        assert!(r.has_link(Direction::East));
        assert!(!r.has_link(Direction::West));
    }

    #[test]
    fn dont_care_bits() {
        let mut t = McTable::new(4);
        t.insert(McTableEntry {
            key: 0xAB00_0000,
            mask: 0xFF00_0000,
            route: RouteSet::EMPTY.with_core(1),
        })
        .unwrap();
        assert!(t.lookup(0xAB12_3456).is_some());
        assert!(t.lookup(0xAC12_3456).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut t = McTable::new(1);
        let e = McTableEntry {
            key: 0,
            mask: 0,
            route: RouteSet::EMPTY,
        };
        t.insert(e).unwrap();
        let err = t.insert(e).unwrap_err();
        assert_eq!(err.capacity, 1);
        assert_eq!(err.to_string(), "multicast routing table full (1 entries)");
    }

    #[test]
    fn zero_mask_matches_everything() {
        let mut t = McTable::new(4);
        t.insert(McTableEntry {
            key: 123,
            mask: 0,
            route: RouteSet::EMPTY.with_core(5),
        })
        .unwrap();
        assert!(t.lookup(0).is_some());
        assert!(t.lookup(u32::MAX).is_some());
    }
}
