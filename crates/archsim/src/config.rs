//! Machine configuration: the paper's Section 8.1 parameters.

use serde::{Deserialize, Serialize};

use crate::energy::EnergyModel;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access (hit) latency in core cycles.
    pub hit_latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// The paper's private L1: 32 KB, 8-way (hit latency folded into the
    /// CPI-1 pipeline, so 0 extra cycles).
    pub fn hpca_l1() -> Self {
        Self {
            capacity_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency_cycles: 0,
        }
    }

    /// The paper's shared last-level cache: 4 MB, 16-way, 20-cycle hits.
    pub fn hpca_llc() -> Self {
        Self {
            capacity_bytes: 4 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
            hit_latency_cycles: 20,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate (non-power-of-two line size,
    /// zero ways, or capacity not divisible into sets).
    pub fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0, "cache needs at least one way");
        assert!(
            self.capacity_bytes
                .is_multiple_of(self.ways * self.line_bytes),
            "capacity must divide into sets"
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }
}

/// Memory system parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of independent channels (lines interleave across channels).
    pub channels: usize,
    /// Per-channel bandwidth in bytes per nanosecond (4.0 = 4 GB/s).
    pub bytes_per_ns: f64,
    /// Uncontended round-trip latency in nanoseconds.
    pub latency_ns: f64,
}

impl MemoryConfig {
    /// The paper's dual-channel interface: 4 GB/s per channel, 60 ns
    /// uncontended round trip.
    pub fn hpca() -> Self {
        Self {
            channels: 2,
            bytes_per_ns: 4.0,
            latency_ns: 60.0,
        }
    }

    /// Doubles per-channel bandwidth (the Section 8.5 what-if that lifts
    /// feature/disparity to 12x on 64 cores).
    pub fn with_doubled_bandwidth(mut self) -> Self {
        self.bytes_per_ns *= 2.0;
        self
    }

    /// Time to transfer one cache line on a channel, picoseconds.
    pub fn line_transfer_ps(&self, line_bytes: usize) -> u64 {
        ((line_bytes as f64 / self.bytes_per_ns) * 1000.0) as u64
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of physical cores on the die (including dark ones).
    pub cores: usize,
    /// Nominal clock frequency, GHz.
    pub freq_ghz: f64,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Shared last-level cache (directory co-located).
    pub llc: CacheConfig,
    /// Memory interface.
    pub memory: MemoryConfig,
    /// Per-instruction-class energy table.
    pub energy: EnergyModel,
    /// PAUSE nap length in cycles (1000 in the paper).
    pub pause_cycles: u64,
    /// Dynamic power of a sleeping core relative to active (0.10).
    pub sleep_power_fraction: f64,
    /// Scheduler timeslice when multiplexing threads on a core, cycles.
    pub timeslice_cycles: u64,
    /// One-time cost of migrating a thread between cores, cycles.
    pub migration_cost_cycles: u64,
    /// When true, memory latency and bandwidth scale with the frequency
    /// multiplier — the *idealized* DVFS assumption of the paper's Section
    /// 8.4 (a linear voltage increase buys a linear whole-system speedup).
    pub idealized_dvfs_memory: bool,
    /// Dynamic power of a memory-stalled core relative to active (partial
    /// clock gating while the pipeline waits on a miss).
    pub stall_power_fraction: f64,
}

impl MachineConfig {
    /// The paper's 16-core smart-phone chip at 1 GHz.
    pub fn hpca() -> Self {
        Self {
            cores: 16,
            freq_ghz: 1.0,
            l1: CacheConfig::hpca_l1(),
            llc: CacheConfig::hpca_llc(),
            memory: MemoryConfig::hpca(),
            energy: EnergyModel::mcpat_22nm_lop(),
            pause_cycles: 1000,
            sleep_power_fraction: 0.10,
            timeslice_cycles: 50_000,
            migration_cost_cycles: 2_000,
            idealized_dvfs_memory: false,
            stall_power_fraction: 0.4,
        }
    }

    /// Same configuration with a different core count (Section 8.5 sweeps
    /// 1 to 64 cores).
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        self.cores = cores;
        self
    }

    /// Duration of one core cycle at nominal frequency, picoseconds.
    pub fn cycle_ps(&self) -> u64 {
        (1000.0 / self.freq_ghz).round() as u64
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate cache geometry, non-positive frequency, or
    /// more than 64 cores (the directory's sharer mask has one bit per
    /// core in a `u64`).
    pub fn validate(&self) {
        assert!(self.cores > 0, "at least one core required");
        assert!(
            self.cores <= 64,
            "at most 64 cores: the directory's sharer mask is a u64, one bit per core"
        );
        assert!(self.freq_ghz > 0.0, "frequency must be positive");
        assert!(self.memory.channels > 0, "at least one memory channel");
        assert!(
            (0.0..=1.0).contains(&self.sleep_power_fraction),
            "sleep power fraction must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.stall_power_fraction),
            "stall power fraction must be in [0,1]"
        );
        self.l1.validate();
        self.llc.validate();
        assert_eq!(
            self.l1.line_bytes, self.llc.line_bytes,
            "uniform line size assumed"
        );
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::hpca()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpca_l1_geometry() {
        let l1 = CacheConfig::hpca_l1();
        l1.validate();
        assert_eq!(l1.sets(), 64);
    }

    #[test]
    fn hpca_llc_geometry() {
        let llc = CacheConfig::hpca_llc();
        llc.validate();
        assert_eq!(llc.sets(), 4096);
    }

    #[test]
    fn line_transfer_time_matches_bandwidth() {
        let mem = MemoryConfig::hpca();
        // 64 B at 4 GB/s = 16 ns = 16000 ps.
        assert_eq!(mem.line_transfer_ps(64), 16_000);
        let doubled = mem.with_doubled_bandwidth();
        assert_eq!(doubled.line_transfer_ps(64), 8_000);
    }

    #[test]
    fn cycle_time_at_nominal_frequency() {
        assert_eq!(MachineConfig::hpca().cycle_ps(), 1000);
    }

    #[test]
    fn config_validates() {
        MachineConfig::hpca().validate();
        MachineConfig::hpca().with_cores(64).validate();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = MachineConfig::hpca().with_cores(0);
    }

    #[test]
    #[should_panic(expected = "sharer mask is a u64")]
    fn more_cores_than_sharer_bits_rejected() {
        // Core 64 would alias core 0's sharer bit (or overflow the shift
        // in a debug build) and corrupt coherence.
        MachineConfig::hpca().with_cores(65).validate();
    }
}
