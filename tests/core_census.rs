//! Heap allocations per loaded core: the census of what
//! `NeuralMachine::load_core` and `install_matrix` cost on an
//! `idle_mesh`-shaped net (8 × 8 chips, 16 application cores of 8
//! regular-spiking neurons each, 64 populations of 128 in an all-to-all
//! ring, so every core holds 128 lazy rows).
//!
//! A counting `#[global_allocator]` counts every `alloc`,
//! `alloc_zeroed` and `realloc`. The counters are process-global, so
//! this file holds one `#[test]`, and the run it measures is a
//! one-shard run on the test's own thread.
//!
//! What a loaded core owns, one allocation each: the `Box` around it,
//! its input ring (16 delay slots and the drained slot in one slice),
//! the 7 state arrays of its Izhikevich pool and its post-spike times.
//! Its per-row pre-spike times exist only under STDP, sized on the
//! core's first plastic row fetch. A change that moves a count on
//! purpose updates the literal and says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

use spinnaker::machine::machine::NeuralMachine;
use spinnaker::map::loader::LoadedApp;
use spinnaker::map::place::Placement;
use spinnaker::map::route::RoutingPlan;
use spinnaker::neuron::ring::RING_SLOTS;
use spinnaker::neuron::stdp::StdpParams;
use spinnaker::prelude::*;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly `WATCH` bytes.
static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
static WATCHED: AtomicU64 = AtomicU64::new(0);
/// Sizes of the allocations made while `LOGGING` is set, in order.
static LOGGING: AtomicBool = AtomicBool::new(false);
static LOG: [AtomicUsize; 32] = [const { AtomicUsize::new(0) }; 32];
static LOG_LEN: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    if size == WATCH.load(Relaxed) {
        WATCHED.fetch_add(1, Relaxed);
    }
    if LOGGING.load(Relaxed) {
        let i = LOG_LEN.fetch_add(1, Relaxed);
        if let Some(slot) = LOG.get(i) {
            slot.store(size, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees are exactly the ones `System` needs;
// `note` touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NEURONS_PER_CORE: usize = 8;
/// One row per neuron of the 128-neuron source population.
const ROWS_PER_CORE: usize = 128;

/// What loading and running the net cost.
struct Census {
    cores: u64,
    /// Allocations of each `load_core` / `install_matrix` call.
    load: Vec<u64>,
    install: Vec<u64>,
    /// The first core's `load_core` allocation sizes, in order.
    first_core: Vec<usize>,
    /// Allocations of one row-time vector's size during the run.
    row_time_sized: u64,
}

fn census(stdp: bool) -> Census {
    let rs = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..64)
        .map(|i| net.population(&format!("c{i}"), 128, rs, 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::AllToAll { allow_self: false },
            Synapses::constant(40, 1),
            0x1D + i as u64,
        );
    }
    let mut cfg = SimConfig::new(8, 8).with_neurons_per_core(NEURONS_PER_CORE as u32);
    cfg.machine.cores_per_chip = 17;
    let m = cfg.machine;
    let placement = Placement::compute(
        &net,
        m.width,
        m.height,
        m.cores_per_chip,
        cfg.neurons_per_core,
        cfg.placer,
    )
    .expect("the net fits the mesh");
    let plan = RoutingPlan::build(&net, &placement, m.width, m.height).minimized();
    let app = LoadedApp::build(&net, &placement);

    let mut machine = NeuralMachine::new(m);
    if stdp {
        machine.enable_stdp(StdpParams::default());
    }
    machine.install_routing_plan(&plan).expect("tables fit");
    // Every core's neuron 0 spikes twice, 3 ms apart: every core of
    // the next population fetches 32 rows.
    let sources: Vec<_> = app.images.iter().map(|i| (i.chip, i.base_key)).collect();
    let mut census = Census {
        cores: app.images.len() as u64,
        load: Vec::new(),
        install: Vec::new(),
        first_core: Vec::new(),
        row_time_sized: 0,
    };
    for (k, img) in app.images.into_iter().enumerate() {
        assert_eq!(img.neurons.len(), NEURONS_PER_CORE);
        assert_eq!(img.matrix.n_rows(), ROWS_PER_CORE);
        LOG_LEN.store(0, Relaxed);
        LOGGING.store(k == 0, Relaxed);
        let before = ALLOCS.load(Relaxed);
        machine
            .load_core(img.chip, img.core, img.neurons, img.bias_na, img.base_key)
            .expect("core fits its data memory");
        let loaded = ALLOCS.load(Relaxed);
        LOGGING.store(false, Relaxed);
        machine.install_matrix(img.chip, img.core, img.matrix);
        let installed = ALLOCS.load(Relaxed);
        census.load.push(loaded - before);
        census.install.push(installed - loaded);
        if k == 0 {
            let n = LOG_LEN.load(Relaxed).min(LOG.len());
            census.first_core = LOG[..n].iter().map(|s| s.load(Relaxed)).collect();
        }
    }
    for (chip, key) in sources {
        machine.queue_stimulus(100_000, chip, key);
        machine.queue_stimulus(3_100_000, chip, key);
    }
    WATCH.store(ROWS_PER_CORE * 8, Relaxed);
    WATCHED.store(0, Relaxed);
    let done = machine.run(6);
    census.row_time_sized = WATCHED.load(Relaxed);
    WATCH.store(usize::MAX, Relaxed);
    assert_eq!(done.row_misses(), 0);
    census
}

#[test]
fn allocations_per_loaded_core() {
    let off = census(false);
    let on = census(true);
    let cores = off.cores;
    assert_eq!(cores, 64 * 16);

    // Box, ring, 7 pool arrays, post-spike times.
    for c in [&off, &on] {
        assert!(
            c.load.iter().all(|&n| n == 10),
            "load_core: {:?}",
            &c.load[..4]
        );
        assert!(
            c.install.iter().all(|&n| n == 0),
            "install_matrix: {:?}",
            &c.install[..4]
        );
    }
    // The first core's allocations in construction order: ring, pool,
    // post-spike times, then the box that holds them.
    let sizes = &off.first_core;
    assert_eq!(sizes.len(), 10, "{sizes:?}");
    let ring = sizes[0];
    let pool: usize = sizes[1..8].iter().sum();
    let post_times = sizes[8];
    let boxed = sizes[9];
    assert_eq!(ring, (RING_SLOTS + 1) * NEURONS_PER_CORE * 4);
    assert_eq!(post_times, NEURONS_PER_CORE * 8);

    // Under STDP, each core sizes its row times once, on its first
    // plastic fetch of the 32 its stimuli cause; without, never.
    assert_eq!(on.row_time_sized - off.row_time_sized, cores);
    let pre_times = ROWS_PER_CORE * 8;

    println!(
        "per loaded core ({NEURONS_PER_CORE} neurons, {ROWS_PER_CORE} rows), heap bytes by owner:"
    );
    println!("  ring        {ring:5} B  (1 allocation)");
    println!("  pool        {pool:5} B  (7 allocations)");
    println!("  STDP times  {post_times:5} B  post-spike (1 allocation)");
    println!("              {pre_times:5} B  pre-spike per row, under STDP only (1 allocation)");
    println!("  box         {boxed:5} B  (1 allocation)");
    println!(
        "  load_core: 10 allocations, {} B; install_matrix: 0",
        ring + pool + post_times + boxed
    );
}
