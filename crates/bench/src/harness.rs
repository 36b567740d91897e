//! The experiment harness behind the `repro` figures: standard
//! machine/thermal instantiations and run drivers.
//!
//! # Time scaling
//!
//! The paper simulates up to 16 billion instructions per run; to keep
//! whole-figure reproduction in minutes, our workload inputs are sized so
//! runs take 10⁷–10⁸ cycles, and the thermal model is compressed by
//! [`TIME_COMPRESS`] so the ratio of sprint capacity to task length
//! matches the paper's two design points (the paper itself applies the
//! same trick by shrinking the PCM 100× for its limited configuration).

use sprint_archsim::config::MachineConfig;
use sprint_core::config::SprintConfig;
use sprint_core::session::{RunReport, ScenarioBuilder};
use sprint_thermal::phone::{PhoneThermal, PhoneThermalParams};
use sprint_workloads::suite::{loaded_machine, suite_loader, InputSize, WorkloadKind};

/// Thermal time compression applied to workload experiments, chosen so the
/// limited ("1.5 mg") design's sprint covers a substantial fraction of a
/// 16-core run — the same capacity-to-task ratio regime as the paper's
/// Figure 7.
pub const TIME_COMPRESS: f64 = 15.0;

/// The two PCM provisioning points of Section 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalDesign {
    /// Fully-provisioned PCM ("150 mg"): sprints outlast the tasks.
    FullPcm,
    /// 100x-reduced PCM ("1.5 mg"): sprints exhaust mid-task.
    LimitedPcm,
}

impl ThermalDesign {
    /// Figure label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ThermalDesign::FullPcm => "150mg",
            ThermalDesign::LimitedPcm => "1.5mg",
        }
    }

    /// Builds the (time-compressed) thermal model.
    pub fn build(&self) -> PhoneThermal {
        let params = match self {
            ThermalDesign::FullPcm => PhoneThermalParams::hpca(),
            ThermalDesign::LimitedPcm => PhoneThermalParams::limited(),
        };
        params.time_scaled(TIME_COMPRESS).build()
    }
}

/// Outcome of one coupled run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Completion time, seconds (simulated).
    pub time_s: f64,
    /// Dynamic energy, joules.
    pub energy_j: f64,
    /// When the sprint ended, if it did.
    pub sprint_end_s: Option<f64>,
    /// Peak junction temperature, Celsius.
    pub max_junction_c: f64,
    /// Whether the run completed.
    pub finished: bool,
}

impl From<RunReport> for Outcome {
    fn from(r: RunReport) -> Self {
        Self {
            time_s: r.completion_s,
            energy_j: r.energy_j,
            sprint_end_s: r.sprint_end_s,
            max_junction_c: r.max_junction_c,
            finished: r.finished,
        }
    }
}

/// Runs a suite workload under a sprint configuration and thermal design,
/// with `threads` kernel threads on a 16-core (or larger) chip.
pub fn run_coupled(
    kind: WorkloadKind,
    size: InputSize,
    threads: usize,
    config: SprintConfig,
    design: ThermalDesign,
) -> Outcome {
    let cores = threads.max(16);
    let mut machine_cfg = MachineConfig::hpca().with_cores(cores);
    // The paper's DVFS comparison is *idealized*: performance scales with
    // frequency across the whole system, not just the core clock.
    if matches!(
        config.mode,
        sprint_core::config::ExecutionMode::DvfsSprint { .. }
    ) {
        machine_cfg.idealized_dvfs_memory = true;
    }
    let mut session = ScenarioBuilder::new()
        .machine(machine_cfg)
        .load(suite_loader(kind, size, threads))
        .thermal(design.build())
        .config(config)
        .trace_capacity(0)
        .build();
    session.run_to_completion();
    session.report().into()
}

/// Runs a workload at fixed voltage/frequency on `cores` cores with one
/// thread per core and *no* thermal termination — the Figure 10/11 setup
/// ("parallel speedup with varying core counts at fixed voltage and
/// frequency").
pub fn run_fixed_cores(kind: WorkloadKind, size: InputSize, cores: usize) -> Outcome {
    run_fixed_cores_with(kind, size, cores, false)
}

/// [`run_fixed_cores`] with optionally doubled memory bandwidth (the
/// Section 8.5 what-if).
pub fn run_fixed_cores_with(
    kind: WorkloadKind,
    size: InputSize,
    cores: usize,
    doubled_bandwidth: bool,
) -> Outcome {
    let mut cfg = MachineConfig::hpca().with_cores(cores);
    if doubled_bandwidth {
        cfg.memory = cfg.memory.with_doubled_bandwidth();
    }
    let mut machine = loaded_machine(kind, size, cfg, cores);
    let mut windows: u64 = 0;
    while !machine.all_done() {
        machine.run_window(1_000_000);
        windows += 1;
        assert!(windows < 100_000_000, "workload run never finished");
    }
    Outcome {
        time_s: machine.time_s(),
        energy_j: machine.stats().dynamic_energy_j,
        sprint_end_s: None,
        max_junction_c: f64::NAN,
        finished: true,
    }
}

/// The single-core non-sprinting baseline every figure normalizes to.
pub fn run_baseline(kind: WorkloadKind, size: InputSize) -> Outcome {
    run_coupled(
        kind,
        size,
        16,
        SprintConfig::hpca_sustained(),
        ThermalDesign::FullPcm,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_sprint_beats_baseline_on_sobel() {
        let base = run_baseline(WorkloadKind::Sobel, InputSize::A);
        let sprint = run_coupled(
            WorkloadKind::Sobel,
            InputSize::A,
            16,
            SprintConfig::hpca_parallel(),
            ThermalDesign::FullPcm,
        );
        assert!(base.finished && sprint.finished);
        let speedup = base.time_s / sprint.time_s;
        assert!(speedup > 6.0, "sobel sprint speedup {speedup:.1}");
    }

    #[test]
    fn limited_design_is_slower_than_full() {
        let full = run_coupled(
            WorkloadKind::Kmeans,
            InputSize::A,
            16,
            SprintConfig::hpca_parallel(),
            ThermalDesign::FullPcm,
        );
        let limited = run_coupled(
            WorkloadKind::Kmeans,
            InputSize::A,
            16,
            SprintConfig::hpca_parallel(),
            ThermalDesign::LimitedPcm,
        );
        assert!(
            limited.time_s >= full.time_s,
            "limited PCM cannot be faster: {:.4} vs {:.4}",
            limited.time_s,
            full.time_s
        );
    }

    #[test]
    fn fixed_core_run_reports_energy() {
        let o = run_fixed_cores(WorkloadKind::Segment, InputSize::A, 4);
        assert!(o.finished);
        assert!(o.energy_j > 0.0);
    }
}
