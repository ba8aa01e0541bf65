//! Multicast-tree construction and routing-table generation.
//!
//! For every placed source core a **shortest-path tree** is grown over
//! the hex torus from the source chip to every chip holding target
//! neurons: destinations are attached in order of increasing distance,
//! grafting the shortest-path suffix onto the existing tree, so every
//! tree chip has exactly one parent (packets are never duplicated).
//!
//! Table emission then exploits the router's **default routing** (§5.2):
//! a chip where the packet simply continues straight (single output
//! link opposite the arrival port, no local deliveries) needs *no* CAM
//! entry at all — the mapper only spends entries on bends, branches and
//! endpoints, which is what makes the 1024-entry CAM sufficient.
//!
//! [`RoutingPlan::minimized`] compresses the emitted tables further by
//! merging same-chip entries whose routes agree into wider masked
//! entries (see [`crate::minimize`]), and
//! [`RoutingPlan::verify_against`] replays every source through two
//! plans to prove they deliver identically.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use spinn_noc::direction::Direction;
use spinn_noc::fabric::Fabric;
use spinn_noc::mesh::{NodeCoord, Torus};
use spinn_noc::table::{McTableEntry, RouteSet, TableFull};

use crate::graph::{NetworkGraph, PopulationId};
use crate::keys::{core_key_mask, NEURON_BITS};
use crate::minimize::{minimize_chip, ChipContext};
use crate::place::Placement;

/// Per-plan statistics.
#[derive(Clone, Debug, Default)]
pub struct RouteStats {
    /// Multicast trees built (one per source core with targets).
    pub trees: usize,
    /// CAM entries emitted over all chips.
    pub total_entries: usize,
    /// Entries saved by default-route elision.
    pub elided_entries: usize,
    /// Total tree edges (inter-chip link traversals per one spike from
    /// every source core — the traffic cost metric of E8/E10).
    pub total_edges: u64,
    /// Largest table on any single chip.
    pub max_entries_per_chip: usize,
    /// Sum over (tree, destination) of the tree-path length, for mean
    /// path computations.
    pub total_path_len: u64,
    /// Number of (tree, destination chip) pairs.
    pub total_dests: u64,
    /// CAM entries before minimization (0 for an unminimized plan; set
    /// by [`RoutingPlan::minimized`], whose `total_entries` then counts
    /// the compressed tables).
    pub pre_minimize_entries: usize,
}

impl RouteStats {
    /// Mean source→destination path length over all trees.
    pub fn mean_path_len(&self) -> f64 {
        if self.total_dests == 0 {
            0.0
        } else {
            self.total_path_len as f64 / self.total_dests as f64
        }
    }
}

/// The routing tables for every chip, plus statistics.
#[derive(Clone, Debug)]
pub struct RoutingPlan {
    tables: Vec<Vec<McTableEntry>>,
    stats: RouteStats,
    width: u32,
    height: u32,
    /// Per chip: key blocks whose trees traverse it (sorted) — the
    /// blocks minimization must not capture with a foreign route.
    traversals: Vec<Vec<u32>>,
    /// Allocated population key spans (the live key universe).
    spans: Vec<(u32, u32)>,
    /// One `(source chip id, key block)` per tree, for replay checks.
    sources: Vec<(usize, u32)>,
}

impl RoutingPlan {
    /// Builds the plan for a placed network (with default-route elision).
    pub fn build(net: &NetworkGraph, placement: &Placement, width: u32, height: u32) -> Self {
        Self::build_with_options(net, placement, width, height, true)
    }

    /// Builds the plan, optionally disabling default-route elision (the
    /// ablation knob: how many CAM entries does the default-routing trick
    /// actually save?).
    pub fn build_with_options(
        net: &NetworkGraph,
        placement: &Placement,
        width: u32,
        height: u32,
        elide: bool,
    ) -> Self {
        Self::build_inner(net, placement, width, height, elide, &HashSet::new())
    }

    /// Builds the plan for the same placed network while routing every
    /// multicast tree around `avoid` — the currently failed links as
    /// `(dense chip id, outgoing direction)` pairs, both cable ends, as
    /// returned by `Fabric::failed_links`. Tree paths that never touch
    /// an avoided link are grown exactly as [`RoutingPlan::build`]
    /// grows them, so the repair is regional: unaffected trees keep
    /// their original tables entry-for-entry. Paths that do cross a
    /// failed link are replaced by deterministic breadth-first detours;
    /// a destination the avoided links disconnect entirely falls back
    /// to the direct path (that route stays broken until the cable is
    /// repaired — emergency routing still gets a shot at it).
    pub fn build_avoiding(
        net: &NetworkGraph,
        placement: &Placement,
        width: u32,
        height: u32,
        avoid: &[(u32, Direction)],
    ) -> Self {
        let avoid: HashSet<(usize, Direction)> =
            avoid.iter().map(|&(c, d)| (c as usize, d)).collect();
        Self::build_inner(net, placement, width, height, true, &avoid)
    }

    fn build_inner(
        net: &NetworkGraph,
        placement: &Placement,
        width: u32,
        height: u32,
        elide: bool,
        avoid: &HashSet<(usize, Direction)>,
    ) -> Self {
        let torus = Torus::new(width, height);
        let mut tables: Vec<Vec<McTableEntry>> = vec![Vec::new(); torus.len()];
        let mut stats = RouteStats::default();
        let mut traversals: Vec<Vec<u32>> = vec![Vec::new(); torus.len()];
        let mut sources: Vec<(usize, u32)> = Vec::new();
        // Each population's targets, sorted and deduplicated as
        // `NetworkGraph::targets_of` gives them: one pass over the
        // projections, not one per slice.
        let mut targets: Vec<Vec<PopulationId>> = vec![Vec::new(); net.populations().len()];
        for p in net.projections() {
            targets[p.src.0].push(p.dst);
        }
        for t in &mut targets {
            t.sort_unstable();
            t.dedup();
        }

        for slice in placement.slices() {
            // Destination cores: every slice of every population this
            // population projects to.
            let mut dest_cores: HashMap<usize, u32> = HashMap::new(); // chip id -> core mask
            for &dst_pop in &targets[slice.pop.0] {
                for d in placement.slices_of(dst_pop) {
                    let chip = torus.id_of(d.chip);
                    *dest_cores.entry(chip).or_insert(0) |= 1 << d.core;
                }
            }
            if dest_cores.is_empty() {
                continue;
            }
            stats.trees += 1;
            let src_chip = torus.id_of(slice.chip);
            let tree = grow_tree_avoiding(
                &torus,
                src_chip,
                dest_cores.keys().copied(),
                &mut stats,
                avoid,
            );
            sources.push((src_chip, slice.global_core));
            for &chip in tree.keys() {
                traversals[chip].push(slice.global_core);
            }
            emit_tables(
                src_chip,
                &tree,
                &dest_cores,
                slice.global_core,
                &mut tables,
                &mut stats,
                elide,
            );
        }
        for t in &tables {
            stats.max_entries_per_chip = stats.max_entries_per_chip.max(t.len());
        }
        stats.total_entries = tables.iter().map(|t| t.len()).sum();
        for t in &mut traversals {
            t.sort_unstable();
        }
        RoutingPlan {
            tables,
            stats,
            width,
            height,
            traversals,
            spans: placement.key_spans().to_vec(),
            sources,
        }
    }

    /// The table for one chip (by dense chip id).
    pub fn chip_table(&self, chip_id: usize) -> &[McTableEntry] {
        &self.tables[chip_id]
    }

    /// Tables for all chips.
    pub fn tables(&self) -> &[Vec<McTableEntry>] {
        &self.tables
    }

    /// Plan statistics.
    pub fn stats(&self) -> &RouteStats {
        &self.stats
    }

    /// Total CAM entries emitted.
    pub fn total_entries(&self) -> usize {
        self.stats.total_entries
    }

    /// Total tree edges (per-spike link traversals).
    pub fn total_edges(&self) -> u64 {
        self.stats.total_edges
    }

    /// A compressed copy of the plan: each chip's entries merged into
    /// wider masked entries wherever their routes agree (see
    /// [`crate::minimize`]). Route behaviour is preserved exactly for
    /// every key that can traverse each chip; before/after entry counts
    /// land in [`RouteStats::pre_minimize_entries`] / `total_entries`.
    pub fn minimized(&self) -> RoutingPlan {
        let tables: Vec<Vec<McTableEntry>> = self
            .tables
            .iter()
            .enumerate()
            .map(|(chip, entries)| {
                minimize_chip(
                    entries,
                    &ChipContext {
                        barred: &self.traversals[chip],
                        spans: &self.spans,
                    },
                )
            })
            .collect();
        let mut stats = self.stats.clone();
        if stats.pre_minimize_entries == 0 {
            stats.pre_minimize_entries = self.stats.total_entries;
        }
        stats.total_entries = tables.iter().map(|t| t.len()).sum();
        stats.max_entries_per_chip = tables.iter().map(|t| t.len()).max().unwrap_or(0);
        RoutingPlan {
            tables,
            stats,
            width: self.width,
            height: self.height,
            traversals: self.traversals.clone(),
            spans: self.spans.clone(),
            sources: self.sources.clone(),
        }
    }

    /// Replays one packet from every source core through this plan's
    /// tables and `other`'s, and counts the sources whose delivered
    /// `(chip, core)` sets differ (or that loop / come up unroutable in
    /// either plan). 0 means the two plans are route-equivalent.
    pub fn verify_against(&self, other: &RoutingPlan) -> usize {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "plans cover different meshes"
        );
        let torus = Torus::new(self.width, self.height);
        let mut violations = 0;
        for &(chip, block) in &self.sources {
            let key = block << NEURON_BITS;
            let a = walk_key(&self.tables, &torus, chip, key);
            let b = walk_key(&other.tables, &torus, chip, key);
            if a.is_none() || a != b {
                violations += 1;
            }
        }
        violations
    }

    /// Loads every chip's table into a fabric's routers through the
    /// fallible CAM path — the one table-install loop the examples,
    /// tests, the simulation builder and live repair all share. Each
    /// router's CAM is cleared before it is filled, so installing into
    /// a running machine swaps its tables: that is safe between events
    /// because in-flight packets re-resolve their route at every chip.
    ///
    /// # Errors
    ///
    /// Returns [`TableFull`] as soon as any router's CAM capacity is
    /// exceeded (chips already processed keep the new tables, so treat
    /// an error on a running machine as fatal for it).
    ///
    /// # Panics
    ///
    /// Panics if the fabric's mesh does not match the plan's.
    pub fn install_into(&self, fabric: &mut Fabric) -> Result<usize, TableFull> {
        assert_eq!(
            (fabric.config().width, fabric.config().height),
            (self.width, self.height),
            "plan does not match the fabric's mesh"
        );
        let mut installed = 0;
        for (chip_id, entries) in self.tables.iter().enumerate() {
            let coord = fabric.torus().coord_of(chip_id);
            let table = &mut fabric.router_mut(coord).table;
            table.clear();
            for &e in entries {
                table.insert(e)?;
                installed += 1;
            }
        }
        Ok(installed)
    }
}

/// First-match lookup over a raw entry list.
fn entries_lookup(entries: &[McTableEntry], key: u32) -> Option<RouteSet> {
    entries.iter().find(|e| e.matches(key)).map(|e| e.route)
}

/// Walks one key from its source chip through per-chip tables, applying
/// default routing where no entry matches, and returns the delivered
/// core mask per chip — or `None` if the key loops or is unroutable at
/// its source.
fn walk_key(
    tables: &[Vec<McTableEntry>],
    torus: &Torus,
    src: usize,
    key: u32,
) -> Option<BTreeMap<usize, u32>> {
    let mut deliveries: BTreeMap<usize, u32> = BTreeMap::new();
    // (chip, direction of travel; None when locally injected).
    let mut stack: Vec<(usize, Option<Direction>)> = vec![(src, None)];
    let budget = tables.len() * 8 + 16;
    let mut steps = 0;
    while let Some((chip, travel)) = stack.pop() {
        steps += 1;
        if steps > budget {
            return None; // routing loop
        }
        let onward = |d: Direction| {
            (
                torus.id_of(torus.neighbour(torus.coord_of(chip), d)),
                Some(d),
            )
        };
        match entries_lookup(&tables[chip], key) {
            Some(route) => {
                if route.core_mask() != 0 {
                    *deliveries.entry(chip).or_default() |= route.core_mask();
                }
                stack.extend(route.links().map(onward));
            }
            // Default routing continues straight; a locally injected
            // packet with no entry is unroutable.
            None => match travel {
                Some(d) => stack.push(onward(d)),
                None => return None,
            },
        }
    }
    Some(deliveries)
}

/// Cost of reaching a destination set from one source, three ways: the
/// multicast tree, per-destination unicast, and whole-machine broadcast
/// (the E8 comparison — "we employ a packet-switched multicast mechanism
/// to reduce total communication loading").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TreeCost {
    /// Link traversals per spike using the multicast tree.
    pub multicast_edges: u64,
    /// Link traversals per spike sending one copy per destination.
    pub unicast_edges: u64,
    /// Link traversals per spike broadcasting to every chip (bus-style
    /// AER emulated on the mesh: a spanning tree of the whole machine).
    pub broadcast_edges: u64,
}

/// Computes the E8 cost comparison for one source and destination set.
pub fn tree_cost(
    torus: &Torus,
    src: NodeCoord,
    dests: impl IntoIterator<Item = NodeCoord>,
) -> TreeCost {
    let mut stats = RouteStats::default();
    let src_id = torus.id_of(src);
    let dests: Vec<usize> = dests.into_iter().map(|d| torus.id_of(d)).collect();
    let unicast_edges: u64 = dests
        .iter()
        .map(|&d| torus.hex_distance(src, torus.coord_of(d)))
        .sum();
    grow_tree(torus, src_id, dests.into_iter(), &mut stats);
    TreeCost {
        multicast_edges: stats.total_edges,
        unicast_edges,
        broadcast_edges: torus.len() as u64 - 1,
    }
}

/// A tree node's record: parent direction (how packets *arrive*) and the
/// set of outgoing links.
#[derive(Clone, Debug, Default)]
struct TreeNode {
    /// Direction of the edge from the parent into this chip, as seen
    /// from the parent (i.e. the hop direction). None for the root.
    in_hop: Option<Direction>,
    out: Vec<Direction>,
    depth: u64,
}

/// Grows the multicast tree: destinations attached in **canonical**
/// (chip-id) order, the first via the shortest path from the source and
/// every later one grafted from the nearest chip of the destination
/// *suffix structure* grown so far (never from the source path).
///
/// The suffix structure — first destination, later destinations and the
/// paths connecting them — therefore depends only on the destination
/// set, not on the source. Sibling slices of one population share their
/// destination set, so their trees agree chip-for-chip everywhere past
/// the first destination: identical routes that
/// [`RoutingPlan::minimized`] collapses into one shared entry per chip.
fn grow_tree(
    torus: &Torus,
    src: usize,
    dests: impl Iterator<Item = usize>,
    stats: &mut RouteStats,
) -> HashMap<usize, TreeNode> {
    grow_tree_avoiding(torus, src, dests, stats, &HashSet::new())
}

/// [`grow_tree`] with an avoid set: graft paths that would cross an
/// avoided link are re-planned as breadth-first detours (see
/// [`plan_path`]); with an empty set the two are identical.
fn grow_tree_avoiding(
    torus: &Torus,
    src: usize,
    dests: impl Iterator<Item = usize>,
    stats: &mut RouteStats,
    avoid: &HashSet<(usize, Direction)>,
) -> HashMap<usize, TreeNode> {
    let mut tree: HashMap<usize, TreeNode> = HashMap::new();
    tree.insert(src, TreeNode::default());
    let mut dests: Vec<usize> = dests.collect();
    dests.sort_unstable();
    // Chips of the source-independent suffix structure.
    let mut suffix: Vec<usize> = Vec::new();
    for dest in dests {
        if tree.contains_key(&dest) {
            stats.total_dests += 1;
            stats.total_path_len += tree[&dest].depth;
            if !suffix.contains(&dest) {
                suffix.push(dest);
            }
            continue;
        }
        // Graft from the nearest suffix chip (the source itself for the
        // first destination), then walk the greedy path towards `dest`.
        let dc = torus.coord_of(dest);
        let attach = suffix
            .iter()
            .copied()
            .min_by_key(|&c| (torus.hex_distance(torus.coord_of(c), dc), tree[&c].depth, c))
            .unwrap_or(src);
        // The path from the graft point; it may cross chips that are
        // already on the tree (the source path, say), in which case
        // only the segment after the last crossing is added — every
        // chip keeps exactly one parent.
        let path = plan_path(torus, attach, dest, avoid);
        let start = (0..path.len())
            .rev()
            .find(|&i| tree.contains_key(&path[i].0))
            .expect("graft point is on the tree");
        for w in path[start..].windows(2) {
            let ((cur, hop), (next, _)) = (w[0], w[1]);
            let hop = hop.expect("interior path chip has a hop");
            let depth = tree[&cur].depth + 1;
            let cur_node = tree.get_mut(&cur).expect("on tree");
            if !cur_node.out.contains(&hop) {
                cur_node.out.push(hop);
            }
            stats.total_edges += 1;
            tree.entry(next).or_insert(TreeNode {
                in_hop: Some(hop),
                out: Vec::new(),
                depth,
            });
        }
        // The graft path joins the suffix structure; the first
        // destination's source path does not (it is source-specific —
        // only the destination itself is shared).
        let joins = if suffix.is_empty() {
            path.len() - 1
        } else {
            start
        };
        for &(c, _) in &path[joins..] {
            if !suffix.contains(&c) {
                suffix.push(c);
            }
        }
        stats.total_dests += 1;
        stats.total_path_len += tree[&dest].depth;
    }
    tree
}

/// Plans the path from `from` to `to` as `[(chip, Some(hop)), ...,
/// (to, None)]`. The greedy torus path is used verbatim whenever it
/// crosses no avoided link — keeping avoid-aware plans bit-identical to
/// [`RoutingPlan::build`] everywhere the failures don't reach — and is
/// otherwise replaced by a breadth-first detour. If the avoided links
/// disconnect the pair the greedy path is returned anyway (the broken
/// hop stays; emergency routing is the last line of defence).
fn plan_path(
    torus: &Torus,
    from: usize,
    to: usize,
    avoid: &HashSet<(usize, Direction)>,
) -> Vec<(usize, Option<Direction>)> {
    let tc = torus.coord_of(to);
    let mut path = vec![(from, None)];
    let mut cur = from;
    while cur != to {
        let hop = torus
            .p2p_next_hop(torus.coord_of(cur), tc)
            .expect("cur != to");
        path.last_mut().expect("non-empty").1 = Some(hop);
        cur = torus.id_of(torus.neighbour(torus.coord_of(cur), hop));
        path.push((cur, None));
    }
    let clean = avoid.is_empty()
        || path
            .windows(2)
            .all(|w| !avoid.contains(&(w[0].0, w[0].1.expect("interior hop"))));
    if clean {
        return path;
    }
    bfs_path(torus, from, to, avoid).unwrap_or(path)
}

/// Deterministic breadth-first shortest path that never takes an
/// avoided outgoing link. Directions are explored in index order and
/// the queue is FIFO, so ties break identically on every run and every
/// thread count. Returns `None` when `to` is unreachable.
fn bfs_path(
    torus: &Torus,
    from: usize,
    to: usize,
    avoid: &HashSet<(usize, Direction)>,
) -> Option<Vec<(usize, Option<Direction>)>> {
    let mut prev: Vec<Option<(usize, Direction)>> = vec![None; torus.len()];
    let mut seen = vec![false; torus.len()];
    seen[from] = true;
    let mut queue = VecDeque::new();
    queue.push_back(from);
    'search: while let Some(cur) = queue.pop_front() {
        let cc = torus.coord_of(cur);
        for d in 0..6 {
            let dir = Direction::from_index(d);
            if avoid.contains(&(cur, dir)) {
                continue;
            }
            let next = torus.id_of(torus.neighbour(cc, dir));
            if !seen[next] {
                seen[next] = true;
                prev[next] = Some((cur, dir));
                if next == to {
                    break 'search;
                }
                queue.push_back(next);
            }
        }
    }
    if !seen[to] {
        return None;
    }
    let mut rev: Vec<(usize, Option<Direction>)> = vec![(to, None)];
    let mut cur = to;
    while cur != from {
        let (p, d) = prev[cur].expect("walked from `from`");
        rev.push((p, Some(d)));
        cur = p;
    }
    rev.reverse();
    Some(rev)
}

/// Emits CAM entries for one tree, eliding pure straight-through chips
/// when `elide` is set.
fn emit_tables(
    src: usize,
    tree: &HashMap<usize, TreeNode>,
    dest_cores: &HashMap<usize, u32>,
    global_core: u32,
    tables: &mut [Vec<McTableEntry>],
    stats: &mut RouteStats,
    elide: bool,
) {
    let (key, mask) = core_key_mask(global_core);
    for (&chip, node) in tree {
        let core_mask = dest_cores.get(&chip).copied().unwrap_or(0);
        let is_root = chip == src;
        // Default-route elision: one output continuing straight, no
        // local deliveries, not the root (locally injected packets have
        // no arrival port and always need an entry).
        if elide && !is_root && core_mask == 0 && node.out.len() == 1 {
            // The packet arrived travelling in direction `in_hop`; it
            // default-routes out of the port opposite the arrival port,
            // i.e. it keeps travelling in the same direction.
            if node.in_hop == Some(node.out[0]) {
                stats.elided_entries += 1;
                continue;
            }
        }
        // Terminal chips with no outputs and no cores should not occur,
        // but guard anyway.
        if node.out.is_empty() && core_mask == 0 {
            continue;
        }
        let mut route = RouteSet::from_bits(core_mask << 6);
        for &d in &node.out {
            route = route.with_link(d);
        }
        tables[chip].push(McTableEntry { key, mask, route });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Connector, NetworkGraph, NeuronKind, Synapses};
    use crate::place::{Placement, Placer};
    use spinn_neuron::izhikevich::IzhikevichParams;

    fn kind() -> NeuronKind {
        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
    }

    fn line_net(n_pops: u32, pop_size: u32) -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let pops: Vec<_> = (0..n_pops)
            .map(|i| net.population(&format!("p{i}"), pop_size, kind(), 0.0))
            .collect();
        for w in pops.windows(2) {
            net.project(
                w[0],
                w[1],
                Connector::OneToOne,
                Synapses::constant(10, 1),
                0,
            );
        }
        net
    }

    #[test]
    fn plan_covers_all_source_cores() {
        let net = line_net(4, 100);
        let placement = Placement::compute(&net, 6, 6, 17, 100, Placer::RoundRobin).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 6, 6);
        // Three of the four pops have targets.
        assert_eq!(plan.stats().trees, 3);
        assert!(plan.total_entries() >= 3, "at least root entries");
    }

    #[test]
    fn install_into_replaces_every_table() {
        use spinn_noc::compiled::CompiledTable;
        use spinn_noc::fabric::FabricConfig;

        let net = line_net(4, 100);
        let placement = Placement::compute(&net, 6, 6, 17, 100, Placer::RoundRobin).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 6, 6).minimized();
        let mut fabric = Fabric::new(FabricConfig::new(6, 6));
        // An entry no plan installs: the first install must remove it.
        let stale = McTableEntry {
            key: 0xFFFF_0000,
            mask: u32::MAX,
            route: RouteSet::EMPTY.with_core(1),
        };
        fabric
            .router_mut(NodeCoord::new(0, 0))
            .table
            .insert(stale)
            .unwrap();
        // Installing twice leaves the plan's tables, not two copies.
        for _ in 0..2 {
            assert_eq!(
                plan.install_into(&mut fabric).unwrap(),
                plan.total_entries()
            );
            for (chip_id, entries) in plan.tables().iter().enumerate() {
                let table = &fabric.router(fabric.torus().coord_of(chip_id)).table;
                assert!(table.iter().eq(entries.iter()));
                let index = CompiledTable::compile(table);
                assert_eq!(index.len(), entries.len());
                assert_eq!(index.lookup(stale.key), table.lookup(stale.key));
            }
        }
    }

    #[test]
    fn tree_is_a_tree_no_duplicate_parents() {
        // Grow a tree to many destinations and verify single-parenthood
        // by construction: every chip reachable once.
        let torus = Torus::new(10, 10);
        let mut stats = RouteStats::default();
        let dests: Vec<usize> = vec![5, 17, 44, 99, 63, 12, 80];
        let tree = grow_tree(&torus, 0, dests.iter().copied(), &mut stats);
        // Edges = nodes - 1 for a tree.
        let edge_count: usize = tree.values().map(|n| n.out.len()).sum();
        assert_eq!(edge_count as u64, stats.total_edges);
        assert_eq!(edge_count, tree.len() - 1, "not a tree");
        // All destinations are in the tree.
        for d in dests {
            assert!(tree.contains_key(&d));
        }
        // Non-root nodes have a parent hop.
        for (&c, node) in &tree {
            assert_eq!(node.in_hop.is_none(), c == 0);
        }
    }

    #[test]
    fn default_route_elision_on_straight_paths() {
        // Source at (0,0), single dest far east: the intermediate chips
        // lie on a straight line and need no entries.
        let mut net = NetworkGraph::new();
        let a = net.population("a", 10, kind(), 0.0);
        let b = net.population("b", 10, kind(), 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(1, 1), 0);
        // Force placement: round robin on a 8x1 strip puts a at chip 0
        // and b at chip 1... instead use one core per chip so they are
        // distinct, then check elision count from stats on a long line.
        let placement = Placement::compute(&net, 8, 1, 2, 10, Placer::RoundRobin).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 8, 1);
        let s = plan.stats();
        assert_eq!(s.trees, 1);
        // a at chip 0, b at chip 1: adjacent, nothing to elide; just
        // validate the structural invariant: entries = root + dest.
        assert_eq!(plan.total_entries(), 2);

        // Longer line: place b four chips east by padding populations
        // (chip 4 on an 8-wide ring is 4 hops in either direction; the
        // planner picks east deterministically).
        let mut net = NetworkGraph::new();
        let a = net.population("a", 10, kind(), 0.0);
        for i in 0..3 {
            net.population(&format!("pad{i}"), 10, kind(), 0.0);
        }
        let b = net.population("b", 10, kind(), 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(1, 1), 0);
        let placement = Placement::compute(&net, 8, 1, 2, 10, Placer::RoundRobin).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 8, 1);
        let s = plan.stats();
        // Source chip 0 -> dest chip 4: chips 1-3 are straight-through.
        assert_eq!(s.elided_entries, 3, "{s:?}");
        assert_eq!(plan.total_entries(), 2);
    }

    #[test]
    fn local_delivery_gets_core_bits() {
        // Source and target on the same chip, different cores.
        let mut net = NetworkGraph::new();
        let a = net.population("a", 10, kind(), 0.0);
        let b = net.population("b", 10, kind(), 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(1, 1), 0);
        let placement = Placement::compute(&net, 2, 2, 17, 10, Placer::RoundRobin).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 2, 2);
        // Both cores on chip 0: one entry, no links, one core bit.
        assert_eq!(plan.total_entries(), 1);
        let entry = &plan.chip_table(0)[0];
        assert_eq!(entry.route.links().count(), 0);
        let b_slice = placement.slices_of(b).next().unwrap();
        assert!(entry.route.has_core(b_slice.core as usize));
        assert_eq!(plan.total_edges(), 0);
    }

    #[test]
    fn random_placement_costs_more_traffic_than_locality() {
        // The E10 shape at unit-test scale.
        let net = line_net(8, 100);
        let build = |placer| {
            let placement = Placement::compute(&net, 8, 8, 3, 100, placer).unwrap();
            RoutingPlan::build(&net, &placement, 8, 8).total_edges()
        };
        let local = build(Placer::Locality);
        let random = build(Placer::Random { seed: 5 });
        assert!(
            random > local,
            "random placement should use more link-hops: {random} vs {local}"
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let net = line_net(5, 80);
        let placement = Placement::compute(&net, 6, 6, 9, 80, Placer::Locality).unwrap();
        let a = RoutingPlan::build(&net, &placement, 6, 6);
        let b = RoutingPlan::build(&net, &placement, 6, 6);
        assert_eq!(a.total_entries(), b.total_entries());
        assert_eq!(a.total_edges(), b.total_edges());
        for (ta, tb) in a.tables().iter().zip(b.tables()) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn elision_ablation_saves_entries() {
        let net = line_net(6, 50);
        let placement = Placement::compute(&net, 8, 8, 2, 50, Placer::Random { seed: 2 }).unwrap();
        let with = RoutingPlan::build_with_options(&net, &placement, 8, 8, true);
        let without = RoutingPlan::build_with_options(&net, &placement, 8, 8, false);
        assert!(with.total_entries() <= without.total_entries());
        assert_eq!(
            without.total_entries(),
            with.total_entries() + with.stats().elided_entries
        );
        // Same trees either way.
        assert_eq!(with.total_edges(), without.total_edges());
    }

    #[test]
    fn mean_path_len_reported() {
        let net = line_net(4, 50);
        let placement = Placement::compute(&net, 8, 8, 2, 50, Placer::Locality).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 8, 8);
        assert!(plan.stats().mean_path_len() >= 1.0);
        assert_eq!(plan.stats().total_dests, 3);
    }

    /// The dense random-placement workload of
    /// `tests/parallel_equivalence.rs`: 8 populations of 256 neurons in
    /// a synfire ring, 128 neurons per core, scattered over a 4x4 torus.
    fn dense_random_ring() -> (NetworkGraph, Placement) {
        let mut net = NetworkGraph::new();
        let pops: Vec<_> = (0..8u32)
            .map(|i| net.population(&format!("s{i}"), 256, kind(), 0.0))
            .collect();
        for (i, &src) in pops.iter().enumerate() {
            let dst = pops[(i + 1) % pops.len()];
            net.project(
                src,
                dst,
                Connector::FixedFanOut(12),
                Synapses::constant(600, 2),
                i as u64,
            );
        }
        let placement =
            Placement::compute(&net, 4, 4, 20, 128, Placer::Random { seed: 0xD15E }).unwrap();
        (net, placement)
    }

    #[test]
    fn dense_random_placement_minimizes_by_thirty_percent() {
        // The PR's acceptance bar: ≥ 30% fewer CAM entries with zero
        // route-equivalence violations on the dense random workload.
        let (net, placement) = dense_random_ring();
        let plan = RoutingPlan::build(&net, &placement, 4, 4);
        let min = plan.minimized();
        assert_eq!(plan.verify_against(&min), 0, "routes must be preserved");
        assert_eq!(min.stats().pre_minimize_entries, plan.total_entries());
        assert!(
            min.total_entries() * 10 <= plan.total_entries() * 7,
            "minimization saved too little: {} -> {}",
            plan.total_entries(),
            min.total_entries()
        );
        assert!(min.stats().max_entries_per_chip <= plan.stats().max_entries_per_chip);
    }

    #[test]
    fn minimization_is_route_exact_across_placers() {
        let net = line_net(6, 120);
        for placer in [
            Placer::Locality,
            Placer::RoundRobin,
            Placer::Random { seed: 99 },
        ] {
            let placement = Placement::compute(&net, 6, 6, 17, 64, placer).unwrap();
            let plan = RoutingPlan::build(&net, &placement, 6, 6);
            let min = plan.minimized();
            assert_eq!(plan.verify_against(&min), 0);
            assert!(min.total_entries() <= plan.total_entries());
            // Minimizing twice changes nothing further.
            let twice = min.minimized();
            assert_eq!(twice.total_entries(), min.total_entries());
            assert_eq!(twice.stats().pre_minimize_entries, plan.total_entries());
        }
    }

    #[test]
    fn sibling_slices_on_one_chip_collapse_to_one_entry() {
        // Two pops, 4 slices each, all on chip 0 (locality, plenty of
        // cores): each pop's 4 source entries share a route and aligned
        // keys, so the minimized chip-0 table is one entry per pop.
        let mut net = NetworkGraph::new();
        let a = net.population("a", 200, kind(), 0.0);
        let b = net.population("b", 200, kind(), 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(10, 1), 0);
        net.project(b, a, Connector::OneToOne, Synapses::constant(10, 1), 1);
        let placement = Placement::compute(&net, 4, 4, 17, 50, Placer::Locality).unwrap();
        let plan = RoutingPlan::build(&net, &placement, 4, 4);
        assert_eq!(plan.total_entries(), 8, "4 entries per pop before");
        let min = plan.minimized();
        assert_eq!(min.total_entries(), 2, "one widened entry per pop");
        assert_eq!(plan.verify_against(&min), 0);
    }

    #[test]
    fn verify_against_detects_a_broken_plan() {
        let (net, placement) = dense_random_ring();
        let plan = RoutingPlan::build(&net, &placement, 4, 4);
        let mut broken = plan.clone();
        // Corrupt one chip: drop the entries of the busiest table.
        let busiest = (0..broken.tables.len())
            .max_by_key(|&c| broken.tables[c].len())
            .unwrap();
        broken.tables[busiest].clear();
        assert!(plan.verify_against(&broken) > 0);
    }

    #[test]
    fn build_avoiding_nothing_matches_build() {
        let net = line_net(4, 100);
        let placement = Placement::compute(&net, 6, 6, 17, 100, Placer::RoundRobin).unwrap();
        let base = RoutingPlan::build(&net, &placement, 6, 6);
        let avoided = RoutingPlan::build_avoiding(&net, &placement, 6, 6, &[]);
        assert_eq!(base.total_entries(), avoided.total_entries());
        assert_eq!(base.verify_against(&avoided), 0);
    }

    #[test]
    fn bfs_path_detours_around_avoided_link() {
        let torus = Torus::new(8, 8);
        let from = torus.id_of(NodeCoord::new(0, 0));
        let to = torus.id_of(NodeCoord::new(3, 0));
        let greedy = plan_path(&torus, from, to, &HashSet::new());
        assert_eq!(greedy.len(), 4, "three East hops");
        // Kill the first East hop (both cable ends, as failed_links
        // reports them).
        let peer = torus.id_of(torus.neighbour(NodeCoord::new(0, 0), Direction::East));
        let avoid: HashSet<(usize, Direction)> =
            [(from, Direction::East), (peer, Direction::East.opposite())]
                .into_iter()
                .collect();
        let detour = plan_path(&torus, from, to, &avoid);
        assert_ne!(detour[0].1, Some(Direction::East), "must leave another way");
        assert_eq!(detour.last().unwrap().0, to);
        // Shortest detour on the hex torus is one hop longer than the
        // straight line at most (NE then SE-ish composite): just check
        // it is a valid connected path that skips the avoided links.
        for w in detour.windows(2) {
            let (cur, hop) = (w[0].0, w[0].1.expect("interior hop"));
            assert!(!avoid.contains(&(cur, hop)), "took an avoided link");
            assert_eq!(
                torus.id_of(torus.neighbour(torus.coord_of(cur), hop)),
                w[1].0,
                "hops must chain"
            );
        }
    }

    #[test]
    fn build_avoiding_still_delivers_everywhere() {
        let (net, placement) = dense_random_ring();
        let base = RoutingPlan::build(&net, &placement, 4, 4);
        // Avoid every outgoing link of chip 0 except two, from both
        // cable ends — a harsh regional failure.
        let torus = Torus::new(4, 4);
        let mut avoid: Vec<(u32, Direction)> = Vec::new();
        for d in [Direction::East, Direction::NorthEast, Direction::North] {
            let peer = torus.id_of(torus.neighbour(torus.coord_of(0), d));
            avoid.push((0, d));
            avoid.push((peer as u32, d.opposite()));
        }
        let repaired = RoutingPlan::build_avoiding(&net, &placement, 4, 4, &avoid);
        // Same delivered (chip, core) sets for every source.
        assert_eq!(base.verify_against(&repaired), 0);
        // And chip 0's tables genuinely changed course: no entry routes
        // out an avoided direction.
        for e in repaired.chip_table(0) {
            for d in [Direction::East, Direction::NorthEast, Direction::North] {
                assert!(!e.route.has_link(d), "entry still uses avoided link {d:?}");
            }
        }
    }

    #[test]
    fn bfs_path_reports_disconnection() {
        let torus = Torus::new(4, 4);
        // Seal chip 5 in completely.
        let mut avoid = HashSet::new();
        for d in 0..6 {
            let dir = Direction::from_index(d);
            let peer = torus.id_of(torus.neighbour(torus.coord_of(5), dir));
            avoid.insert((5usize, dir));
            avoid.insert((peer, dir.opposite()));
        }
        assert!(bfs_path(&torus, 0, 5, &avoid).is_none());
        // plan_path falls back to the greedy path rather than panicking.
        let fallback = plan_path(&torus, 0, 5, &avoid);
        assert_eq!(fallback.last().unwrap().0, 5);
    }
}
