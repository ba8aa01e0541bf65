//! Settled cores are invisible in the results: a core whose last tick
//! changed nothing, with nothing queued, leaves the 1 ms timer walk and
//! is charged in closed form when work wakes it and at segment end. This
//! suite runs one hand-built machine three ways and demands the same
//! spikes, energy meter and checkpoint bytes at every cut:
//!
//! * (A) one segment up to the cut (two when the cut is past the
//!   mid-run STDP switch), cores settling freely;
//! * (B) 7 ms segments at 2 forced shards, the settled set crossing
//!   every split and merge;
//! * (C) 1 ms segments, each restored from the previous one's snapshot
//!   onto a freshly built machine — a restored core starts in the walk,
//!   so (C) ticks every core every millisecond and settles nothing.
//!
//! Every core holds regular-spiking neurons pre-stepped to their
//! zero-drive fixed point, so it settles on its first tick. Stimuli then
//! wake settled cores at the instants where the catch-up must be exact:
//! on a tick instant, inside the tick's handler interval, at its last
//! nanosecond, one nanosecond after it, and through a row transfer that
//! lands after the core settled with it in flight. A core on the far
//! chip is woken by fabric traffic, and one is first woken after STDP
//! is switched on mid-run.

use spinnaker::machine::config::MachineConfig;
use spinnaker::machine::machine::{NeuralMachine, PendingEvent};
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::{AnyNeuron, NeuronModel};
use spinnaker::neuron::stdp::StdpParams;
use spinnaker::neuron::synapse::SynapticWord;
use spinnaker::neuron::synmatrix::SynapticMatrixBuilder;
use spinnaker::noc::direction::Direction;
use spinnaker::noc::mesh::NodeCoord;
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::obs::{Counter, ObsMode};

const MS: u64 = 1_000_000;
const NEURONS: usize = 8;
/// The run's cuts, ms.
const CUTS: [u32; 5] = [9, 17, 30, 44, 60];
/// STDP is switched on at this instant, ms.
const STDP_AT: u32 = 30;
const NEAR: NodeCoord = NodeCoord { x: 0, y: 0 };
/// Dense id 3: any two-shard cut of the 2 × 2 mesh separates it from
/// `NEAR`.
const FAR: NodeCoord = NodeCoord { x: 1, y: 1 };

/// The cores, as `(chip, core)`; core `g` of this list answers
/// stimulus key `0x40 + g` and fires keys `0x1000 * (g + 1) + i`.
const CORES: [(NodeCoord, u8); 7] = [
    (NEAR, 1),
    (NEAR, 2),
    (NEAR, 3),
    (NEAR, 4),
    (NEAR, 5),
    (FAR, 1),
    (FAR, 2),
];

fn cfg() -> MachineConfig {
    let mut cfg = MachineConfig::new(2, 2);
    cfg.force_shards = true;
    cfg.obs = ObsMode::Counters;
    cfg
}

/// A regular-spiking neuron stepped at zero drive until a tick leaves
/// it where it was.
fn at_rest() -> AnyNeuron {
    let mut n: AnyNeuron = IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into();
    for _ in 0..2000 {
        let before = format!("{n:?}");
        assert!(!n.step_1ms(0.0));
        if format!("{n:?}") == before {
            return n;
        }
    }
    panic!("no fixed point within 2000 ticks");
}

/// `(instant ns, chip, key)` of every stimulus.
fn stimuli() -> Vec<(u64, NodeCoord, u32)> {
    let c = cfg();
    let handler = c.instr_ns(c.costs.timer_fixed_instr + c.costs.per_neuron_instr * NEURONS as u64);
    let isr = c.instr_ns(c.costs.packet_isr_instr);
    let key = |g: u32| 0x40 + g;
    vec![
        // Exactly on tick 10.
        (10 * MS, NEAR, key(0)),
        // Inside tick 12's handler interval.
        (12 * MS + handler / 2, NEAR, key(1)),
        // At its last nanosecond.
        (15 * MS + handler - 1, NEAR, key(2)),
        // The first nanosecond after it.
        (19 * MS + handler, NEAR, key(3)),
        // The ISR ends just before tick 22, where the core settles
        // again; its row transfer lands after the tick.
        (22 * MS - isr - 1, NEAR, key(4)),
        // After the STDP switch: a core never woken before, twice.
        (36 * MS + handler / 3, FAR, key(6)),
        (45 * MS + 700, FAR, key(6)),
        // And an awake one.
        (33 * MS + handler / 2, NEAR, key(0)),
    ]
}

fn build() -> NeuralMachine {
    let mut m = NeuralMachine::new(cfg());
    let rest = at_rest();
    for (g, &(chip, core)) in CORES.iter().enumerate() {
        let g = g as u32;
        let base = 0x1000 * (g + 1);
        m.load_core(
            chip,
            core,
            vec![rest.clone(); NEURONS],
            vec![0.0; NEURONS],
            base,
        )
        .unwrap();
        m.router_mut(chip)
            .table
            .insert(McTableEntry {
                key: 0x40 + g,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(core as usize),
            })
            .unwrap();
        // Strong enough that one stimulus fires the core.
        let mut b = SynapticMatrixBuilder::new();
        let row = b.block(0x40 + g, u32::MAX, 1);
        for t in 0..NEURONS as u16 {
            for delay in 1..=3 {
                b.push(row, SynapticWord::new(3000, delay, t));
            }
        }
        if g == 5 {
            // The far core 1 also hears near core 1, over two links.
            let first = b.block(0x1000, !0xFFF, NEURONS as u32);
            for src in 0..NEURONS as u32 {
                for t in 0..NEURONS as u16 {
                    b.push(first + src, SynapticWord::new(600, 2, t));
                }
            }
        }
        m.install_matrix(chip, core, b.finish());
    }
    for (chip, route) in [
        (NEAR, RouteSet::EMPTY.with_link(Direction::East)),
        (
            NodeCoord::new(1, 0),
            RouteSet::EMPTY.with_link(Direction::North),
        ),
        (FAR, RouteSet::EMPTY.with_core(1)),
    ] {
        m.router_mut(chip)
            .table
            .insert(McTableEntry {
                key: 0x1000,
                mask: !0xFFF,
                route,
            })
            .unwrap();
    }
    for (at, chip, key) in stimuli() {
        m.queue_stimulus(at, chip, key);
    }
    m
}

/// What a run leaves behind at a cut.
#[derive(Debug, PartialEq)]
struct Cut {
    spikes: Vec<(u32, u32)>,
    meter: String,
    snapshot: Vec<u8>,
}

impl Cut {
    fn of(m: &NeuralMachine, pending: &[PendingEvent]) -> Cut {
        Cut {
            spikes: m.spikes().iter().map(|s| (s.time_ms, s.key)).collect(),
            meter: format!("{:?}", m.meter()),
            snapshot: m.snapshot(pending),
        }
    }
}

/// Runs `build()` to `cut` in segments of at most `seg_ms`, also cut at
/// the STDP switch, on `threads` shards; with `restore`, each segment
/// runs on a fresh build restored from the previous one's snapshot.
/// Returns the cut and the pool updates run.
fn run(cut: u32, seg_ms: u32, threads: usize, restore: bool) -> (Cut, u64) {
    let mut m = build();
    let mut pending = Vec::new();
    let mut done = 0;
    let mut ticked = 0;
    while done < cut {
        let end = if done < STDP_AT {
            cut.min(STDP_AT)
        } else {
            cut
        };
        let ms = seg_ms.min(end - done);
        if restore && done > 0 {
            let bytes = m.snapshot(&pending);
            m = build();
            pending = m.install_snapshot(&bytes).expect("restores").pending;
        }
        if done == STDP_AT {
            m.set_stdp(Some(StdpParams::default()));
        }
        let before = m.telemetry().total(Counter::NeuronsTicked);
        let (next, p) = m.run_segment(pending, done, ms, threads);
        ticked += next.telemetry().total(Counter::NeuronsTicked) - before;
        m = next;
        pending = p;
        done += ms;
    }
    (Cut::of(&m, &pending), ticked)
}

#[test]
fn settled_cores_change_no_spike_meter_or_snapshot_byte() {
    let mut fired = 0;
    for cut in CUTS {
        let (a, a_ticked) = run(cut, u32::MAX, 1, false);
        let (b, _) = run(cut, 7, 2, false);
        let (c, c_ticked) = run(cut, 1, 1, true);
        assert_eq!(
            a, c,
            "one segment vs restored 1 ms segments, cut at {cut} ms"
        );
        assert_eq!(
            b, c,
            "7 ms segments on 2 shards vs restored, cut at {cut} ms"
        );
        assert_eq!(
            c_ticked,
            (CORES.len() * NEURONS) as u64 * u64::from(cut),
            "a restored core ticks every millisecond"
        );
        assert!(
            a_ticked < c_ticked,
            "cut at {cut} ms: settled cores must skip pool updates ({a_ticked} vs {c_ticked})"
        );
        fired = a.spikes.len();
    }
    assert!(fired > 0, "the stimuli must make cores fire");
}
