//! Streams projections into per-core synaptic matrices — the
//! "connectivity data constructed" step of §5.3, producing the SDRAM
//! images the DMA engine fetches at run time.
//!
//! The build is a **streaming pipeline**: each projection is expanded
//! through [`Projection::iter`](crate::graph::Projection::iter) one
//! pair at a time and scattered straight into the destination cores'
//! [`SynapticMatrixBuilder`]s; no global edge list is ever
//! materialized, and the finished per-core state is one contiguous
//! master-population-table + arena
//! ([`spinn_neuron::synmatrix::SynapticMatrix`]) per core — the §5.2/§6
//! memory model.
//!
//! Two levers make a full SpiNNaker-scale build (2^16 chips, 10^8+
//! synapses) fit host RAM and wall-clock ([`BuildOptions`]):
//!
//! * **Lazy arenas** — populations whose incoming projections all use
//!   replayable connectors (`OneToOne`, `AllToAll`,
//!   `FixedProbability`) store generator recipes + per-source RNG
//!   positions instead of expanded words; rows materialize bit-exactly
//!   on first DMA touch. Deterministic connectors with constant
//!   synapses skip the expansion stream entirely (row lengths are
//!   analytic), so build time drops from `O(synapses)` to `O(rows)`.
//! * **Parallel expansion** — projections are independent until their
//!   words meet a destination core's builder, so worker threads expand
//!   them concurrently and the results merge *in projection order*,
//!   which reproduces the serial build's push order bit-for-bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use spinn_neuron::gen::{next_success, GenConnector, GenSpec, GenState};
use spinn_neuron::izhikevich::IzhikevichNeuron;
use spinn_neuron::lif::LifNeuron;
use spinn_neuron::model::AnyNeuron;
use spinn_neuron::synapse::SynapticWord;
use spinn_neuron::synmatrix::{SynapticMatrix, SynapticMatrixBuilder};
use spinn_noc::mesh::NodeCoord;

use crate::graph::{NetworkGraph, NeuronKind, Projection};
use crate::keys::{core_base_key, neuron_key, CORE_MASK};
use crate::place::{Placement, Slice};

/// When the loader may store generator recipes instead of expanded
/// synaptic words (laziness is decided per *destination population*: a
/// core's matrix is entirely lazy or entirely eager, never mixed).
/// `Auto` is the one public policy; this crate's unit tests pin the
/// choice either way.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum LazyMode {
    /// Always expand eagerly.
    #[cfg(test)]
    Off,
    /// Go lazy where every incoming projection is replayable **and**
    /// the recipe (per-source RNG states for stochastic connectors) is
    /// estimated to cost less host memory than the expanded words.
    /// Analytic connectivity (deterministic connector + constant
    /// synapses) always qualifies — its recipe is a handful of bytes.
    #[default]
    Auto,
    /// Go lazy wherever replay is possible, even when the recipe is
    /// bigger than the words (forces the stateful replay paths).
    #[cfg(test)]
    Force,
}

/// Knobs of the loader build.
#[derive(Copy, Clone, Debug, Default)]
pub struct BuildOptions {
    /// Worker threads expanding projections concurrently (results are
    /// identical at every thread count; 0 and 1 both mean inline).
    pub threads: usize,
    /// Compressed lazily-materialized arena policy.
    pub lazy: LazyMode,
}

/// Everything one application core needs loading.
#[derive(Clone, Debug)]
pub struct CoreImage {
    /// Chip holding the core.
    pub chip: NodeCoord,
    /// Core index (1-based).
    pub core: u8,
    /// AER base key of the core's neurons.
    pub base_key: u32,
    /// The neuron state vector.
    pub neurons: Vec<AnyNeuron>,
    /// Bias currents, nA.
    pub bias_na: Vec<f32>,
    /// The core's synaptic state: master population table + contiguous
    /// row arena, indexed by source-neuron AER key.
    pub matrix: SynapticMatrix,
}

impl CoreImage {
    /// SDRAM footprint of this core's synaptic data, bytes.
    pub fn sdram_bytes(&self) -> u64 {
        self.matrix.sdram_bytes()
    }

    /// Total synapse count.
    pub fn synapses(&self) -> u64 {
        self.matrix.total_synapses()
    }
}

/// The fully expanded application: one image per placed core.
#[derive(Clone, Debug)]
pub struct LoadedApp {
    /// Per-core images.
    pub images: Vec<CoreImage>,
}

impl LoadedApp {
    /// Expands a placed network into core images by streaming each
    /// projection directly into the destination cores' matrices
    /// ([`LoadedApp::build_with`] with default options: inline, lazy
    /// arenas where the connectivity supports them).
    pub fn build(net: &NetworkGraph, placement: &Placement) -> LoadedApp {
        Self::build_with(net, placement, BuildOptions::default())
    }

    /// [`LoadedApp::build`] with explicit [`BuildOptions`]. The result
    /// is bit-identical across thread counts and — once rows are
    /// materialized — across the lazy/eager choice.
    pub fn build_with(net: &NetworkGraph, placement: &Placement, opts: BuildOptions) -> LoadedApp {
        // One matrix builder per slice; images and slices share indices
        // (image `i` is slice `i`).
        let slices = placement.slices();
        let mut builders: Vec<SynapticMatrixBuilder> = (0..slices.len())
            .map(|_| SynapticMatrixBuilder::new())
            .collect();

        // A population's cores go lazy only when *every* projection
        // feeding it is replayable — a core's builder is entirely lazy
        // or entirely eager, never mixed. Under `Auto`, additionally
        // require the recipes to be estimated cheaper than the words:
        // stochastic connectors pay one RNG state per (source, dst
        // slice), which loses to eager words on sparse fan-in.
        let n_pops = net.populations().len();
        let mut lazy_pop = vec![true; n_pops];
        #[cfg(test)]
        lazy_pop.fill(opts.lazy != LazyMode::Off);
        let mut state_est = vec![0u64; n_pops];
        let mut word_est = vec![0u64; n_pops];
        for proj in net.projections() {
            let d = proj.dst.index();
            let Ok(conn) = proj.gen_connector() else {
                lazy_pop[d] = false;
                continue;
            };
            let n_src = net.pop(proj.src).size as u64;
            let n_dst = net.pop(proj.dst).size as u64;
            let dst_slices = placement.slice_indices_of(proj.dst).len() as u64;
            let needs_state = match conn {
                GenConnector::Bernoulli { .. } => true,
                _ => !proj.synapses.gen().is_constant(),
            };
            if needs_state {
                state_est[d] += n_src * dst_slices * std::mem::size_of::<GenState>() as u64;
            }
            word_est[d] += 4 * match conn {
                GenConnector::OneToOne => n_src.min(n_dst),
                GenConnector::AllToAll { .. } => n_src * n_dst,
                GenConnector::Bernoulli { p } => (p * (n_src * n_dst) as f64) as u64,
            };
        }
        if opts.lazy == LazyMode::Auto {
            for d in 0..n_pops {
                lazy_pop[d] = lazy_pop[d] && state_est[d] < word_est[d];
            }
        }

        // Phase 1 (serial): declare every projection's key blocks.
        // The multicast tree delivers every source-core spike to
        // every core holding target neurons, whether or not that
        // particular neuron connects there — as on hardware, each
        // destination core's master population table covers the
        // *whole* source key block (missing synapses are empty
        // rows, not misses). Declare those blocks up front and
        // remember each (src slice, dst slice) block's first row.
        let plans: Vec<ProjPlan> = net
            .projections()
            .iter()
            .map(|proj| {
                let src_idxs = placement.slice_indices_of(proj.src);
                let dst_idxs = placement.slice_indices_of(proj.dst);
                let mut first_rows = vec![vec![0u32; dst_idxs.len()]; src_idxs.len()];
                for (sp, &si) in src_idxs.iter().enumerate() {
                    let src = &slices[si];
                    for (dp, &di) in dst_idxs.iter().enumerate() {
                        first_rows[sp][dp] = builders[di].block(
                            core_base_key(src.global_core),
                            CORE_MASK,
                            src.len(),
                        );
                    }
                }
                ProjPlan {
                    first_rows,
                    src_idxs: src_idxs.to_vec(),
                    dst_idxs: dst_idxs.to_vec(),
                    lazy: lazy_pop[proj.dst.index()] && proj.gen_connector().is_ok(),
                }
            })
            .collect();

        // Phase 2 (parallel): expand projections into staged outputs.
        // Projections are independent until their words reach a
        // destination builder, so this is a plain work queue.
        let n_proj = plans.len();
        let workers = opts.threads.clamp(1, n_proj.max(1));
        let slots: Vec<OnceLock<ProjOutput>> = (0..n_proj).map(|_| OnceLock::new()).collect();
        let expand = |i: usize| expand_projection(net, &net.projections()[i], slices, &plans[i]);
        if workers <= 1 {
            for (i, slot) in slots.iter().enumerate() {
                let _ = slot.set(expand(i));
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_proj {
                            break;
                        }
                        let _ = slots[i].set(expand(i));
                    });
                }
            });
        }

        // Phase 3 (serial, projection order): merge staged outputs into
        // the builders. Replaying in projection order reproduces the
        // serial build's per-row push order exactly.
        for (i, slot) in slots.into_iter().enumerate() {
            let out = slot.into_inner().expect("projection expanded");
            let proj = &net.projections()[i];
            let plan = &plans[i];
            match out {
                ProjOutput::Eager(pushes) => {
                    for (di, row, word) in pushes {
                        builders[di as usize].push(row, word);
                    }
                }
                ProjOutput::Lazy { states, lens } => {
                    let conn = proj.gen_connector().expect("lazy plan implies replayable");
                    let n_src = net.pop(proj.src).size;
                    let n_dst = net.pop(proj.dst).size;
                    for (sp, &si) in plan.src_idxs.iter().enumerate() {
                        let src = &slices[si];
                        for (dp, &di) in plan.dst_idxs.iter().enumerate() {
                            let dst = &slices[di];
                            let spec = GenSpec {
                                conn,
                                syn: proj.synapses.gen(),
                                n_src,
                                n_dst,
                                dst_lo: dst.lo,
                                dst_hi: dst.hi,
                            };
                            let first_row = plan.first_rows[sp][dp];
                            let needs = spec.needs_state();
                            let lens_dp = lens.as_ref().map(|l| &l[dp]);
                            let c = builders[di].lazy_contribution(
                                first_row,
                                src.len(),
                                src.lo,
                                spec.clone(),
                            );
                            for i in 0..src.len() {
                                let s = src.lo + i;
                                if needs {
                                    builders[di].lazy_state(c, states[s as usize]);
                                }
                                let len = match lens_dp {
                                    Some(l) => l[s as usize],
                                    None => spec.row_len(s).expect("analytic lens"),
                                };
                                builders[di].lazy_len(first_row + i, len);
                            }
                        }
                    }
                }
            }
        }

        // Phase 4 (parallel): pack the arenas and build the images.
        let images = if workers <= 1 || slices.len() < 2 {
            slices
                .iter()
                .zip(builders)
                .map(|(s, b)| build_image(net, s, b))
                .collect()
        } else {
            let chunk = slices.len().div_ceil(workers);
            let mut chunks: Vec<Vec<SynapticMatrixBuilder>> = Vec::new();
            let mut rest = builders;
            while rest.len() > chunk {
                let tail = rest.split_off(chunk);
                chunks.push(rest);
                rest = tail;
            }
            chunks.push(rest);
            let mut images: Vec<CoreImage> = Vec::with_capacity(slices.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .enumerate()
                    .map(|(ci, bs)| {
                        scope.spawn(move || {
                            bs.into_iter()
                                .enumerate()
                                .map(|(j, b)| build_image(net, &slices[ci * chunk + j], b))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    images.extend(h.join().expect("image worker"));
                }
            });
            images
        };
        LoadedApp { images }
    }

    /// Total SDRAM across the machine, bytes.
    pub fn total_sdram_bytes(&self) -> u64 {
        self.images.iter().map(|i| i.sdram_bytes()).sum()
    }

    /// Total synapse count.
    pub fn total_synapses(&self) -> u64 {
        self.images.iter().map(|i| i.synapses()).sum()
    }
}

/// Per-projection build geometry captured during the serial block
/// declaration (phase 1): block first rows plus the projection's source
/// and destination slice index lists.
struct ProjPlan {
    /// `first_rows[sp][dp]`: first row of the (src slice, dst slice)
    /// block in the destination core's builder.
    first_rows: Vec<Vec<u32>>,
    src_idxs: Vec<usize>,
    dst_idxs: Vec<usize>,
    /// Whether this projection merges as a lazy recipe (replayable
    /// connector *and* every projection into the same destination
    /// population is replayable too).
    lazy: bool,
}

/// What one projection's (possibly parallel) expansion stages for the
/// serial merge.
enum ProjOutput {
    /// Fully expanded words: `(dst slice index, row, word)` in the exact
    /// order the serial streaming build would have pushed them.
    Eager(Vec<(u32, u32, SynapticWord)>),
    /// Lazy recipe inputs: per-source RNG stream positions (empty when
    /// the spec is analytic) and, for Bernoulli, the counted row lengths
    /// per `[dst slice][source]` (`None` when lengths are analytic).
    Lazy {
        states: Vec<GenState>,
        lens: Option<Vec<Vec<u32>>>,
    },
}

/// Expands one projection into its staged [`ProjOutput`] — the
/// thread-safe part of the build (reads the graph and placement, writes
/// nothing shared).
fn expand_projection(
    net: &NetworkGraph,
    proj: &Projection,
    slices: &[Slice],
    plan: &ProjPlan,
) -> ProjOutput {
    let n_src = net.pop(proj.src).size;
    let n_dst = net.pop(proj.dst).size;
    if !plan.lazy {
        // Eager: the original streaming expansion, staged instead of
        // pushed (pairs ascend by source; the source slice advances
        // monotonically, the destination slice is binary-searched).
        let mut pushes = Vec::new();
        let mut rng = proj.syn_rng();
        let mut sp = 0usize;
        for (s, d) in proj.iter(n_src, n_dst) {
            let (w, delay) = proj.synapses.sample(&mut rng);
            while slices[plan.src_idxs[sp]].hi <= s {
                sp += 1;
            }
            let src_slice = &slices[plan.src_idxs[sp]];
            debug_assert!(src_slice.lo <= s && s < src_slice.hi);
            let dp = plan.dst_idxs.partition_point(|&i| slices[i].hi <= d);
            let di = plan.dst_idxs[dp];
            let dst_slice = &slices[di];
            let local_target = (d - dst_slice.lo) as u16;
            let row = plan.first_rows[sp][dp] + (s - src_slice.lo);
            pushes.push((di as u32, row, SynapticWord::new(w, delay, local_target)));
        }
        return ProjOutput::Eager(pushes);
    }

    let conn = proj
        .gen_connector()
        .expect("lazy plan implies a replayable connector");
    let syn = proj.synapses.gen();
    match conn {
        GenConnector::Bernoulli { p } => {
            // One counting pass over the success stream. For every
            // source we capture the RNG/cursor position *pending* just
            // before the draw that yields its first success — replaying
            // from there reproduces exactly that source's run (earlier
            // sources' successes are already behind the cursor).
            let mut lens = vec![vec![0u32; n_src as usize]; plan.dst_idxs.len()];
            let mut conn_rng = proj.conn_rng();
            let mut syn_rng = proj.syn_rng();
            let total = n_src as u64 * n_dst as u64;
            let mut states: Vec<GenState> = Vec::with_capacity(n_src as usize);
            let mut cursor = 0u64;
            loop {
                let pending = GenState {
                    syn_rng: syn_rng.state(),
                    conn_rng: conn_rng.state(),
                    cursor,
                };
                let Some(idx) = next_success(&mut conn_rng, p, cursor, total) else {
                    // Sources past the last success replay to empty
                    // rows immediately.
                    let fin = GenState {
                        syn_rng: syn_rng.state(),
                        conn_rng: conn_rng.state(),
                        cursor: total,
                    };
                    states.resize(n_src as usize, fin);
                    break;
                };
                cursor = idx + 1;
                let s = (idx / n_dst as u64) as usize;
                let d = (idx % n_dst as u64) as u32;
                // This is the first success of every source in
                // (last assigned, s]; all of them replay from `pending`
                // (the intermediates stop at their row end and stay
                // empty).
                while states.len() <= s {
                    states.push(pending);
                }
                let _ = syn.sample(&mut syn_rng);
                let dp = plan.dst_idxs.partition_point(|&i| slices[i].hi <= d);
                lens[dp][s] += 1;
            }
            ProjOutput::Lazy {
                states,
                lens: Some(lens),
            }
        }
        // Deterministic connector + constant synapses: fully analytic,
        // no stream at all — this is what makes a 10^9-synapse build
        // `O(rows)` instead of `O(synapses)`.
        GenConnector::OneToOne | GenConnector::AllToAll { .. } if syn.is_constant() => {
            ProjOutput::Lazy {
                states: Vec::new(),
                lens: None,
            }
        }
        GenConnector::OneToOne => {
            // One weight/delay draw per connected pair, ascending
            // source: the state for source `s` is the synapse RNG after
            // `min(s, n)` draws.
            let mut syn_rng = proj.syn_rng();
            let conn_zero = proj.conn_rng().state();
            let n = n_src.min(n_dst);
            let mut states = Vec::with_capacity(n_src as usize);
            for s in 0..n_src {
                states.push(GenState {
                    syn_rng: syn_rng.state(),
                    conn_rng: conn_zero,
                    cursor: 0,
                });
                if s < n {
                    let _ = syn.sample(&mut syn_rng);
                }
            }
            ProjOutput::Lazy { states, lens: None }
        }
        GenConnector::AllToAll { skip_self } => {
            // Dense scan, one draw per (kept) pair; only the per-source
            // RNG positions are retained.
            let mut syn_rng = proj.syn_rng();
            let conn_zero = proj.conn_rng().state();
            let mut states = Vec::with_capacity(n_src as usize);
            for s in 0..n_src {
                states.push(GenState {
                    syn_rng: syn_rng.state(),
                    conn_rng: conn_zero,
                    cursor: 0,
                });
                for d in 0..n_dst {
                    if skip_self && d == s {
                        continue;
                    }
                    let _ = syn.sample(&mut syn_rng);
                }
            }
            ProjOutput::Lazy { states, lens: None }
        }
    }
}

/// Packs one core's builder into its image (phase 4; independent per
/// core, so parallelizable).
fn build_image(net: &NetworkGraph, s: &Slice, builder: SynapticMatrixBuilder) -> CoreImage {
    let n = s.len() as usize;
    let pop = net.pop(s.pop);
    let neurons = (0..n)
        .map(|_| match pop.kind {
            NeuronKind::Izhikevich(p) => AnyNeuron::Izhikevich(IzhikevichNeuron::new(p)),
            NeuronKind::Lif(p) => AnyNeuron::Lif(LifNeuron::new(p)),
        })
        .collect();
    CoreImage {
        chip: s.chip,
        core: s.core,
        base_key: neuron_key(s.global_core, 0),
        neurons,
        bias_na: vec![pop.bias_na; n],
        matrix: builder.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Connector, NeuronKind, PopulationId, Synapses};
    use crate::place::Placer;
    use spinn_neuron::izhikevich::IzhikevichParams;

    fn kind() -> NeuronKind {
        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
    }

    fn build_app(connector: Connector, sizes: (u32, u32)) -> (NetworkGraph, Placement, LoadedApp) {
        let mut net = NetworkGraph::new();
        let a = net.population("a", sizes.0, kind(), 5.0);
        let b = net.population("b", sizes.1, kind(), 0.0);
        net.project(a, b, connector, Synapses::constant(300, 2), 11);
        let placement = Placement::compute(&net, 4, 4, 17, 50, Placer::RoundRobin).unwrap();
        let app = LoadedApp::build(&net, &placement);
        (net, placement, app)
    }

    #[test]
    fn images_cover_all_neurons() {
        let (net, _, app) = build_app(Connector::OneToOne, (120, 120));
        let total: usize = app.images.iter().map(|i| i.neurons.len()).sum();
        assert_eq!(total as u64, net.total_neurons());
        for img in &app.images {
            assert_eq!(img.neurons.len(), img.bias_na.len());
            assert!(img.core >= 1);
        }
    }

    #[test]
    fn one_to_one_synapse_count_and_targets() {
        let (_, placement, app) = build_app(Connector::OneToOne, (120, 120));
        assert_eq!(app.total_synapses(), 120);
        // Every non-empty row has exactly one synapse; empty rows exist
        // for source neurons whose targets live on other cores.
        for img in &app.images {
            for (key, row_idx) in img.matrix.iter_rows() {
                let row = img.matrix.row_words(row_idx);
                assert!(row.len() <= 1, "one-to-one row for key {key:#x}");
                if let Some(w) = row.first() {
                    assert_eq!(w.weight_raw(), 300);
                    assert_eq!(w.delay_ms(), 2);
                }
            }
        }
        // Every destination core holds a row (possibly empty) for every
        // source neuron: 3 dest cores x 120 sources.
        let rows: usize = app.images.iter().map(|i| i.matrix.n_rows()).sum();
        assert_eq!(rows, 3 * 120);
        let non_empty: usize = app
            .images
            .iter()
            .flat_map(|i| {
                let m = &i.matrix;
                m.iter_rows()
                    .map(move |(_, r)| m.row_len(r))
                    .collect::<Vec<_>>()
            })
            .filter(|&len| len > 0)
            .count();
        assert_eq!(non_empty, 120);
        let _ = placement;
    }

    #[test]
    fn all_to_all_row_shapes() {
        let (_, _, app) = build_app(Connector::AllToAll { allow_self: true }, (30, 40));
        assert_eq!(app.total_synapses(), 30 * 40);
        // Each source key's rows, summed over destination cores, must
        // cover all 40 targets: 40 targets over ceil(40/50)=1 core.
        let img_b = app.images.iter().find(|i| !i.matrix.is_empty()).unwrap();
        for (_, row) in img_b.matrix.iter_rows() {
            assert_eq!(img_b.matrix.row_len(row), 40);
        }
    }

    #[test]
    fn sdram_accounting() {
        let (_, _, app) = build_app(Connector::AllToAll { allow_self: true }, (30, 40));
        // 30 rows x (4 + 40*4) bytes (all rows non-empty: all-to-all).
        assert_eq!(app.total_sdram_bytes(), 30 * (4 + 160));
    }

    /// The loader's byte totals must equal the summed arena sizes —
    /// the invariant the machine's SDRAM capacity check builds on —
    /// whether or not the rows are materialized yet (simulated SDRAM is
    /// a property of the network, host residency of the build mode).
    #[test]
    fn loader_totals_equal_summed_arena_sizes() {
        let (_, _, app) = build_app(Connector::FixedProbability(0.2), (90, 110));
        let summed: u64 = app.images.iter().map(|i| i.matrix.sdram_bytes()).sum();
        assert_eq!(app.total_sdram_bytes(), summed);
        let by_rows: u64 = app
            .images
            .iter()
            .flat_map(|i| {
                let m = &i.matrix;
                m.iter_rows()
                    .map(move |(_, r)| m.row_bytes(r) as u64)
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(summed, by_rows);
        // Sparse Bernoulli fan-in is exactly where per-source RNG
        // states lose to plain words, so `Auto` must have kept this
        // build eager (resident holds every expanded word)...
        let resident: u64 = app.images.iter().map(|i| i.matrix.resident_bytes()).sum();
        assert!(resident >= app.total_synapses() * 4);
        assert_eq!(
            app.images.iter().map(|i| i.matrix.lazy_rows()).sum::<u64>(),
            0
        );
        // ...while dense analytic connectivity goes lazy and undercuts
        // its eager twin by a wide margin.
        let (net, placement, lazy_app) =
            build_app(Connector::AllToAll { allow_self: true }, (90, 110));
        assert!(
            lazy_app
                .images
                .iter()
                .map(|i| i.matrix.lazy_rows())
                .sum::<u64>()
                > 0
        );
        let eager = LoadedApp::build_with(
            &net,
            &placement,
            BuildOptions {
                threads: 1,
                lazy: LazyMode::Off,
            },
        );
        let lazy_resident: u64 = lazy_app
            .images
            .iter()
            .map(|i| i.matrix.resident_bytes())
            .sum();
        let eager_resident: u64 = eager.images.iter().map(|i| i.matrix.resident_bytes()).sum();
        assert!(eager_resident >= eager.total_synapses() * 4);
        assert!(
            lazy_resident * 4 < eager_resident,
            "lazy {lazy_resident} must undercut eager {eager_resident}"
        );
    }

    #[test]
    fn deterministic_expansion() {
        let (_, _, a) = build_app(Connector::FixedProbability(0.3), (50, 50));
        let (_, _, b) = build_app(Connector::FixedProbability(0.3), (50, 50));
        assert_eq!(a.total_synapses(), b.total_synapses());
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(x.matrix, y.matrix);
        }
    }

    #[test]
    fn keys_are_consistent_with_placement() {
        let (_, placement, app) = build_app(Connector::OneToOne, (120, 120));
        for img in &app.images {
            let slice = placement
                .slices()
                .iter()
                .find(|s| s.chip == img.chip && s.core == img.core)
                .unwrap();
            assert_eq!(img.base_key, crate::keys::neuron_key(slice.global_core, 0));
        }
    }

    /// Two projections between the same populations must merge into the
    /// same per-core rows (words appended in projection order).
    #[test]
    fn overlapping_projections_share_rows() {
        let mut net = NetworkGraph::new();
        let a = net.population("a", 10, kind(), 0.0);
        let b = net.population("b", 10, kind(), 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(100, 1), 1);
        net.project(a, b, Connector::OneToOne, Synapses::constant(-50, 2), 2);
        let placement = Placement::compute(&net, 2, 2, 17, 50, Placer::RoundRobin).unwrap();
        let app = LoadedApp::build(&net, &placement);
        assert_eq!(app.total_synapses(), 20);
        let img = &app.images[1];
        for (_, row_idx) in img.matrix.iter_rows() {
            let row = img.matrix.row_words(row_idx);
            assert_eq!(row.len(), 2);
            assert_eq!(row[0].weight_raw(), 100);
            assert_eq!(row[1].weight_raw(), -50);
        }
    }

    /// Row-by-row comparison that works across the lazy/eager divide
    /// (lazy rows are generated on the fly; `PartialEq` on the matrix
    /// itself would compare arenas and recipes instead of content).
    fn assert_same_content(a: &LoadedApp, b: &LoadedApp) {
        assert_eq!(a.images.len(), b.images.len());
        assert_eq!(a.total_synapses(), b.total_synapses());
        assert_eq!(a.total_sdram_bytes(), b.total_sdram_bytes());
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(x.matrix.n_rows(), y.matrix.n_rows());
            let rows = x.matrix.iter_rows().collect::<Vec<_>>();
            assert_eq!(rows, y.matrix.iter_rows().collect::<Vec<_>>());
            for (_, r) in rows {
                assert_eq!(
                    x.matrix.row_words(r),
                    y.matrix.row_words(r),
                    "row {r} on core {}/{:?}",
                    x.core,
                    x.chip
                );
            }
        }
    }

    /// Every replayable connector (and both constant and uniform
    /// synapse distributions) must regenerate rows bit-identically to
    /// the fully expanded eager build; `FixedFanOut` must fall back to
    /// eager even when laziness is requested.
    #[test]
    fn lazy_build_matches_eager_for_every_connector() {
        let cases = [
            Connector::OneToOne,
            Connector::AllToAll { allow_self: true },
            Connector::FixedProbability(0.2),
            Connector::FixedProbability(1.5), // degenerate: dense
            Connector::FixedProbability(0.0), // degenerate: empty
            Connector::FixedFanOut(17),
        ];
        let syns = [
            Synapses::constant(300, 2),
            Synapses::uniform((-80, 120), (1, 9)),
        ];
        for connector in cases {
            for syn in syns {
                let mut net = NetworkGraph::new();
                let a = net.population("a", 110, kind(), 5.0);
                let b = net.population("b", 110, kind(), 0.0);
                net.project(a, b, connector, syn, 11);
                let placement = Placement::compute(&net, 4, 4, 17, 50, Placer::RoundRobin).unwrap();
                let lazy = LoadedApp::build_with(
                    &net,
                    &placement,
                    BuildOptions {
                        threads: 1,
                        lazy: LazyMode::Force,
                    },
                );
                let eager = LoadedApp::build_with(
                    &net,
                    &placement,
                    BuildOptions {
                        threads: 1,
                        lazy: LazyMode::Off,
                    },
                );
                for img in &eager.images {
                    assert_eq!(img.matrix.lazy_rows(), 0);
                }
                assert_same_content(&lazy, &eager);
                // And materialization must not change anything either.
                let mut materialized = lazy.clone();
                for img in &mut materialized.images {
                    img.matrix.materialize_all();
                    assert_eq!(img.matrix.lazy_rows(), 0);
                }
                assert_same_content(&materialized, &eager);
            }
        }
    }

    /// A projection from a population split over several source cores
    /// keeps one recipe per destination core, whatever the split, and
    /// its rows still replay the eager words. Recipes stay apart where
    /// the rows continue but the sources do not (two populations of one
    /// size under one spec), and where a second projection re-declares
    /// the same blocks.
    #[test]
    fn lazy_recipes_merge_only_where_rows_and_sources_continue() {
        let specs = [
            (Connector::FixedProbability(0.3), Synapses::constant(300, 2)),
            (
                Connector::AllToAll { allow_self: true },
                Synapses::uniform((-80, 120), (1, 9)),
            ),
        ];
        // (shape, neurons per core, recipes per destination core)
        type Shape = fn(&mut NetworkGraph, Connector, Synapses) -> PopulationId;
        let shapes: [(&str, Shape, u32, usize); 4] = [
            (
                "one source over 6 cores",
                |net, c, s| {
                    let a = net.population("a", 110, kind(), 5.0);
                    let b = net.population("b", 40, kind(), 0.0);
                    net.project(a, b, c, s, 11);
                    b
                },
                20,
                1,
            ),
            (
                "one source over 110 cores",
                |net, c, s| {
                    let a = net.population("a", 110, kind(), 5.0);
                    let b = net.population("b", 30, kind(), 0.0);
                    net.project(a, b, c, s, 11);
                    b
                },
                1,
                1,
            ),
            (
                "two sources of one size",
                |net, c, s| {
                    let a1 = net.population("a1", 60, kind(), 5.0);
                    let a2 = net.population("a2", 60, kind(), 5.0);
                    let b = net.population("b", 40, kind(), 0.0);
                    net.project(a1, b, c, s, 11);
                    net.project(a2, b, c, s, 12);
                    b
                },
                20,
                2,
            ),
            (
                "one source projected twice",
                |net, c, s| {
                    let a = net.population("a", 60, kind(), 5.0);
                    let b = net.population("b", 40, kind(), 0.0);
                    net.project(a, b, c, s, 11);
                    net.project(a, b, c, s, 12);
                    b
                },
                20,
                2,
            ),
        ];
        for ((name, shape, npc, recipes), (conn, syn)) in shapes
            .into_iter()
            .flat_map(|shape| specs.map(|spec| (shape, spec)))
        {
            let mut net = NetworkGraph::new();
            let dst = shape(&mut net, conn, syn);
            let placement = Placement::compute(&net, 4, 4, 17, npc, Placer::RoundRobin).unwrap();
            let build =
                |lazy| LoadedApp::build_with(&net, &placement, BuildOptions { threads: 1, lazy });
            let (lazy, eager) = (build(LazyMode::Force), build(LazyMode::Off));
            assert_same_content(&lazy, &eager);
            let dst_cores = placement.slice_indices_of(dst);
            assert!(
                dst_cores.len() > 1,
                "{name}: the destination must span cores"
            );
            for (i, img) in lazy.images.iter().enumerate() {
                let want = if dst_cores.contains(&i) { recipes } else { 0 };
                assert_eq!(
                    img.matrix.lazy_recipes(),
                    want,
                    "{name}, {conn:?}: core {i}"
                );
                assert_eq!(eager.images[i].matrix.lazy_recipes(), 0);
            }
        }
    }

    /// Thread counts must not change a single bit of the result — the
    /// merge replays staged outputs in projection order.
    #[test]
    fn parallel_build_is_bit_identical() {
        let mut net = NetworkGraph::new();
        let a = net.population("a", 90, kind(), 5.0);
        let b = net.population("b", 70, kind(), 0.0);
        let c = net.population("c", 90, kind(), 0.0);
        // `b` mixes a replayable and a non-replayable feed (stays
        // eager); `c` is purely replayable (goes lazy).
        net.project(
            a,
            b,
            Connector::FixedFanOut(9),
            Synapses::uniform((10, 90), (1, 4)),
            3,
        );
        net.project(
            a,
            b,
            Connector::FixedProbability(0.3),
            Synapses::constant(120, 2),
            4,
        );
        net.project(
            b,
            c,
            Connector::AllToAll { allow_self: false },
            Synapses::uniform((-40, 40), (2, 7)),
            5,
        );
        net.project(
            a,
            c,
            Connector::OneToOne,
            Synapses::uniform((1, 300), (1, 16)),
            6,
        );
        let placement = Placement::compute(&net, 4, 4, 17, 30, Placer::RoundRobin).unwrap();
        for lazy in [LazyMode::Off, LazyMode::Force] {
            let serial = LoadedApp::build_with(&net, &placement, BuildOptions { threads: 1, lazy });
            for threads in [2, 4, 16] {
                let par = LoadedApp::build_with(&net, &placement, BuildOptions { threads, lazy });
                for (x, y) in serial.images.iter().zip(&par.images) {
                    assert_eq!(x.matrix, y.matrix, "threads={threads} lazy={lazy:?}");
                }
            }
        }
        // The mixed destination really did stay eager and the pure one
        // really did go lazy (otherwise this test proves nothing).
        let app = LoadedApp::build_with(
            &net,
            &placement,
            BuildOptions {
                threads: 1,
                lazy: LazyMode::Force,
            },
        );
        let lazy_rows: u64 = app.images.iter().map(|i| i.matrix.lazy_rows()).sum();
        assert!(lazy_rows > 0, "population c should hold lazy rows");
        let b_imgs: Vec<_> = app
            .images
            .iter()
            .filter(|i| i.matrix.n_rows() > 0 && i.matrix.lazy_rows() == 0)
            .collect();
        assert!(!b_imgs.is_empty(), "population b should stay eager");
    }
}
