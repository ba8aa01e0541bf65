//! Microbench for the chunked neuron tick (dev aid).
//!
//! Times `NeuronPool::step_tick` (the chunked wide path) on one core's
//! worth of neurons and prints ns/neuron per model.
//!
//! Usage: `tick_micro [NEURONS] [TICKS]`

use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinn_neuron::lif::{LifNeuron, LifParams};
use spinn_neuron::pool::NeuronPool;
use std::time::Instant;

fn bench(label: &str, mut pool: NeuronPool, ticks: usize) {
    let n = pool.len();
    let drives: Vec<f32> = (0..n).map(|i| [14.0, 6.5, 0.0, 9.0][i % 4]).collect();
    let mut spikes = 0u64;
    let t0 = Instant::now();
    for _ in 0..ticks {
        pool.step_tick(|i| drives[i], |_| spikes += 1);
    }
    let per = t0.elapsed().as_nanos() as f64 / (ticks * n) as f64;
    println!("{label}: {per:.2} ns/neuron ({spikes} spikes)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let ticks: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let presets = [
        IzhikevichParams::regular_spiking(),
        IzhikevichParams::fast_spiking(),
        IzhikevichParams::chattering(),
    ];
    bench(
        "izhikevich",
        NeuronPool::from_neurons(
            (0..n)
                .map(|i| IzhikevichNeuron::new(presets[i % 3]).into())
                .collect(),
        ),
        ticks,
    );
    bench(
        "lif",
        NeuronPool::from_neurons(
            (0..n)
                .map(|_| LifNeuron::new(LifParams::default()).into())
                .collect(),
        ),
        ticks,
    );
}
