//! Machine geometry, the core cost model and the energy model.
//!
//! The ARM968 application cores are modelled by *costs*, not by
//! instruction-set emulation: the paper's application-level claims are
//! about event rates and millisecond budgets (§3.1, Fig. 7), so each
//! handler charges a calibrated instruction count at the core's clock
//! rate. Constants follow the paper's era: 200 MHz ARM968, ~200 MIPS per
//! core, 20 cores per chip, a node under 1 W.

use spinn_noc::fabric::FabricConfig;
use spinn_obs::ObsMode;

/// Whole-machine configuration.
#[derive(Copy, Clone, Debug)]
pub struct MachineConfig {
    /// Mesh width, chips.
    pub width: u32,
    /// Mesh height, chips.
    pub height: u32,
    /// Processor cores per chip (up to 20; one becomes Monitor).
    pub cores_per_chip: u8,
    /// Core clock, MHz (instruction rate).
    pub cpu_mhz: u32,
    /// Instruction-memory size per core, bytes (32 KB ITCM).
    pub itcm_bytes: u32,
    /// Data-memory size per core, bytes (64 KB DTCM).
    pub dtcm_bytes: u32,
    /// Shared SDRAM per chip, bytes (1 Gbit mobile DDR).
    pub sdram_bytes: u64,
    /// SDRAM/DMA bandwidth, bytes per microsecond (shared per chip).
    pub dma_bytes_per_us: u32,
    /// Fixed DMA setup latency, ns.
    pub dma_setup_ns: u64,
    /// The communications fabric parameters.
    pub fabric: FabricConfig,
    /// Handler instruction costs.
    pub costs: CostModel,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Telemetry level for runs on this machine. [`ObsMode::Disabled`]
    /// (the default) makes every instrumentation point a `None`-check;
    /// no mode changes simulation results (golden-trace conformance
    /// suite), only what is observed about them.
    pub obs: ObsMode,
    /// Lets sharded runs cut more shards than the host has cores.
    /// Sharding exists to occupy cores — by default the shard count is
    /// clamped to the host's parallelism, because extra shards buy no
    /// parallelism yet still pay the window/exchange machinery (the
    /// collapse is invisible in results: shard count never changes
    /// them). Conformance suites set this to exercise the sharded
    /// engine regardless of the host.
    pub force_shards: bool,
}

impl MachineConfig {
    /// A machine of the given mesh size with paper-era defaults.
    ///
    /// The router waits (`wait1`/`wait2`) are set to the values SpiNNaker
    /// system software programs for neural operation (microseconds —
    /// tolerant of transient bursts), not the small hardware-reset
    /// defaults of [`spinn_noc::router::RouterConfig`].
    pub fn new(width: u32, height: u32) -> Self {
        let mut fabric = FabricConfig::new(width, height);
        fabric.router.wait1_ns = 2_000;
        fabric.router.wait2_ns = 10_000;
        MachineConfig {
            width,
            height,
            cores_per_chip: 20,
            cpu_mhz: 200,
            itcm_bytes: 32 * 1024,
            dtcm_bytes: 64 * 1024,
            sdram_bytes: 128 * 1024 * 1024,
            dma_bytes_per_us: 600,
            dma_setup_ns: 200,
            fabric,
            costs: CostModel::default(),
            energy: EnergyModel::default(),
            obs: ObsMode::default(),
            force_shards: false,
        }
    }

    /// Selects the telemetry level for runs on this machine.
    pub fn with_observability(mut self, obs: ObsMode) -> Self {
        self.obs = obs;
        self
    }

    /// Allows sharded runs to cut more shards than the host has cores
    /// (see [`MachineConfig::force_shards`]).
    pub fn with_force_shards(mut self, force: bool) -> Self {
        self.force_shards = force;
        self
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Number of application cores (one core per chip is the Monitor).
    pub fn app_cores(&self) -> usize {
        self.chips() * (self.cores_per_chip.saturating_sub(1)) as usize
    }

    /// Nanoseconds to execute `instructions` at the configured clock.
    pub fn instr_ns(&self, instructions: u64) -> u64 {
        // cpu_mhz MIPS => instructions per ns = mhz / 1000.
        (instructions * 1000).div_ceil(self.cpu_mhz as u64)
    }

    /// DMA transfer time for `bytes`, ns (setup + bandwidth share).
    pub fn dma_ns(&self, bytes: u64) -> u64 {
        self.dma_setup_ns + (bytes * 1000).div_ceil(self.dma_bytes_per_us as u64)
    }

    /// The full-size SpiNNaker machine of the paper: 256 x 256 chips
    /// ≈ "more than a million ARM processor cores".
    pub fn million_core() -> Self {
        MachineConfig::new(256, 256)
    }
}

/// Instruction budgets for the three Fig. 7 handlers plus spike emission.
#[derive(Copy, Clone, Debug)]
pub struct CostModel {
    /// Packet-received ISR: identify source neuron, look up the row
    /// address, schedule the DMA.
    pub packet_isr_instr: u64,
    /// DMA-complete handler fixed part.
    pub dma_isr_instr: u64,
    /// Per-synapse row processing (deposit into the input ring).
    pub per_synapse_instr: u64,
    /// Timer handler fixed part (context, stimulus update).
    pub timer_fixed_instr: u64,
    /// Per-neuron state update (Izhikevich in fixed point ≈ tens of
    /// instructions \[17\]).
    pub per_neuron_instr: u64,
    /// Spike emission (form AER key, write to comms controller).
    pub spike_emit_instr: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            packet_isr_instr: 40,
            dma_isr_instr: 30,
            per_synapse_instr: 12,
            timer_fixed_instr: 100,
            per_neuron_instr: 45,
            spike_emit_instr: 30,
        }
    }
}

/// Energy constants (paper-era, order-of-magnitude; §2 and §3.3 reason in
/// ratios).
#[derive(Copy, Clone, Debug)]
pub struct EnergyModel {
    /// Active core power, mW (ARM968 @ 200 MHz in 130 nm).
    pub core_active_mw: f64,
    /// Core power in wait-for-interrupt sleep, mW.
    pub core_sleep_mw: f64,
    /// Router + NoC energy per routed packet, pJ.
    pub router_pj_per_packet: f64,
    /// Inter-chip link energy per packet-hop, pJ (a 40-bit packet needs
    /// 30 2-of-7 NRZ transitions; see `spinn-link`).
    pub link_pj_per_hop: f64,
    /// SDRAM energy per byte transferred, pJ.
    pub sdram_pj_per_byte: f64,
    /// Chip overhead power (SDRAM refresh, clocks, pads), mW.
    pub chip_overhead_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            core_active_mw: 35.0,
            core_sleep_mw: 8.0,
            router_pj_per_packet: 100.0,
            link_pj_per_hop: 150.0, // 30 transitions x 5 pJ
            sdram_pj_per_byte: 50.0,
            chip_overhead_mw: 120.0,
        }
    }
}

impl EnergyModel {
    /// Peak chip power with all cores active, mW — the paper's "power
    /// consumption under 1 Watt" node check.
    pub fn chip_peak_mw(&self, cores: u8) -> f64 {
        self.chip_overhead_mw + cores as f64 * self.core_active_mw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_figures() {
        let c = MachineConfig::new(8, 8);
        assert_eq!(c.cores_per_chip, 20);
        assert_eq!(c.itcm_bytes, 32 * 1024); // "32 Kbytes of instruction memory"
        assert_eq!(c.dtcm_bytes, 64 * 1024); // "64 Kbytes of data memory"
        assert_eq!(c.sdram_bytes, 128 * 1024 * 1024); // 1 Gbit SDRAM
        assert_eq!(c.chips(), 64);
        assert_eq!(c.app_cores(), 64 * 19);
    }

    #[test]
    fn million_core_machine() {
        let c = MachineConfig::million_core();
        let cores = c.chips() * c.cores_per_chip as usize;
        assert!(
            cores > 1_000_000,
            "paper: 'more than a million ARM processor cores', got {cores}"
        );
        // ~200 MIPS x >1M cores ≈ the paper's "around 200 teraIPS".
        let teraips = cores as f64 * c.cpu_mhz as f64 / 1e6;
        assert!((200.0..300.0).contains(&teraips), "{teraips} teraIPS");
    }

    #[test]
    fn instruction_timing() {
        let c = MachineConfig::new(2, 2);
        assert_eq!(c.instr_ns(200), 1000); // 200 instr @ 200 MHz = 1 us
        assert_eq!(c.instr_ns(1), 5);
        assert_eq!(c.instr_ns(0), 0);
    }

    #[test]
    fn dma_timing_scales_with_bytes() {
        let c = MachineConfig::new(2, 2);
        let small = c.dma_ns(64);
        let large = c.dma_ns(4096);
        assert!(large > small);
        assert!(small >= c.dma_setup_ns);
        // 600 bytes/us: 600 bytes take 1 us + setup.
        assert_eq!(c.dma_ns(600), c.dma_setup_ns + 1000);
    }

    #[test]
    fn node_power_under_one_watt() {
        // §3.3: "a component cost of around $20 and a power consumption
        // under 1 Watt" per 20-processor node.
        let e = EnergyModel::default();
        let node_mw = e.chip_peak_mw(20);
        assert!(node_mw < 1000.0, "node peak power {node_mw} mW exceeds 1 W");
        assert!(node_mw > 300.0, "implausibly low node power {node_mw} mW");
    }

    #[test]
    fn sleep_saves_energy() {
        let e = EnergyModel::default();
        assert!(e.core_sleep_mw < e.core_active_mw / 2.0);
    }
}
