//! The coupled sprint system — the one-shot compatibility facade over
//! [`SprintSession`].
//!
//! Mirrors the paper's methodology (Section 8.1): the machine runs in
//! energy-sampling windows (1000 cycles); each window's dissipated energy
//! drives the thermal RC network; the sprint controller watches the
//! budget/temperature and reconfigures the machine as the sprint
//! progresses. `SprintSystem::new(machine, thermal, config).run()` is the
//! original consuming API and is kept verbatim; it now drives a
//! [`SprintSession`] internally, so everything the steppable API supports
//! (generic thermal backends, electrical supplies) is available here too.

use sprint_archsim::machine::Machine;
use sprint_thermal::phone::PhoneThermal;

pub use crate::session::{RunReport, RunSample};

use crate::config::SprintConfig;
use crate::session::SprintSession;
use crate::supply::{IdealSupply, PowerSupply};
use crate::thermal_model::ThermalModel;

/// The coupled system: a one-shot wrapper that builds a session and runs
/// it to completion.
#[derive(Debug)]
pub struct SprintSystem<T: ThermalModel = PhoneThermal, S: PowerSupply = IdealSupply> {
    machine: Machine,
    thermal: T,
    supply: S,
    config: SprintConfig,
    trace_capacity: usize,
}

impl<T: ThermalModel> SprintSystem<T, IdealSupply> {
    /// Couples a loaded machine (threads already spawned) with a thermal
    /// model under a sprint configuration.
    pub fn new(machine: Machine, thermal: T, config: SprintConfig) -> Self {
        config.validate();
        Self {
            machine,
            thermal,
            supply: IdealSupply,
            config,
            trace_capacity: 2048,
        }
    }
}

impl<T: ThermalModel, S: PowerSupply> SprintSystem<T, S> {
    /// Adds an electrical supply consulted every sampling window
    /// (Section 6): current limits or depletion end the sprint.
    pub fn with_supply<S2: PowerSupply>(self, supply: S2) -> SprintSystem<T, S2> {
        SprintSystem {
            machine: self.machine,
            thermal: self.thermal,
            supply,
            config: self.config,
            trace_capacity: self.trace_capacity,
        }
    }

    /// Limits the retained trace length (0 disables tracing).
    pub fn with_trace_capacity(mut self, samples: usize) -> Self {
        self.trace_capacity = samples;
        self
    }

    /// Read access to the machine (e.g. for stats after a run).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Read access to the thermal model.
    pub fn thermal(&self) -> &T {
        &self.thermal
    }

    /// Converts into the equivalent steppable session without running it.
    pub fn into_session(self) -> SprintSession<T, S> {
        SprintSession::new(
            self.machine,
            self.thermal,
            self.supply,
            self.config,
            self.trace_capacity,
            Vec::new(),
        )
    }

    /// Runs the computation to completion (or the configured time limit),
    /// returning the coupled report.
    pub fn run(self) -> RunReport {
        let mut session = self.into_session();
        session.run_to_completion();
        session.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;
    use crate::controller::ControllerEvent;
    use sprint_archsim::config::MachineConfig;
    use sprint_archsim::program::SyntheticKernel;
    use sprint_thermal::phone::PhoneThermalParams;

    /// A compute-heavy load: `threads` kernels with `accesses` L1-resident
    /// accesses each.
    fn loaded_machine(cores: usize, threads: usize, accesses: u64) -> Machine {
        let mut m = Machine::new(MachineConfig::hpca().with_cores(cores));
        for t in 0..threads as u64 {
            m.spawn(Box::new(SyntheticKernel::new(
                32,
                accesses,
                (t + 1) << 26,
                0,
            )));
        }
        m
    }

    /// Thermal model compressed 1000x so tests run in milliseconds of
    /// simulated time.
    fn fast_thermal() -> PhoneThermal {
        PhoneThermalParams::hpca().time_scaled(1000.0).build()
    }

    fn fast_limited_thermal() -> PhoneThermal {
        PhoneThermalParams::limited().time_scaled(1000.0).build()
    }

    #[test]
    fn parallel_sprint_beats_sustained() {
        let work = 20_000;
        let sustained = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_sustained(),
        )
        .run();
        let sprint = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_parallel(),
        )
        .run();
        assert!(sustained.finished && sprint.finished);
        let speedup = sprint.speedup_over(sustained.completion_s);
        assert!(
            speedup > 8.0,
            "16-core sprint of independent work should approach 16x: {speedup:.2}"
        );
    }

    #[test]
    fn limited_budget_forces_migration_midway() {
        // Large work against the 100x-smaller PCM: the sprint must end
        // early and finish on one core.
        let report = SprintSystem::new(
            loaded_machine(16, 16, 120_000),
            fast_limited_thermal(),
            SprintConfig::hpca_parallel(),
        )
        .run();
        assert!(report.finished, "run must complete post-sprint");
        let end = report.sprint_end_s.expect("sprint should have ended");
        assert!(
            end < report.completion_s * 0.8,
            "sprint end {end} should precede completion {}",
            report.completion_s
        );
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::SprintEnded { .. })));
    }

    #[test]
    fn junction_never_exceeds_tmax_materially() {
        let report = SprintSystem::new(
            loaded_machine(16, 16, 80_000),
            fast_limited_thermal(),
            SprintConfig::hpca_parallel(),
        )
        .run();
        assert!(
            report.max_junction_c < 70.0 + 2.0,
            "thermal limit respected: {:.1} C",
            report.max_junction_c
        );
    }

    #[test]
    fn dvfs_sprint_is_slower_than_parallel_but_faster_than_sustained() {
        // Sized so even the boosted single-core run fits inside the
        // (compressed) sprint budget — the "sufficient thermal
        // capacitance" regime of Figure 7's full-PCM bars.
        let work = 4_000;
        let base = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_sustained(),
        )
        .run();
        let dvfs = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_dvfs(),
        )
        .run();
        let parallel = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_parallel(),
        )
        .run();
        let s_dvfs = dvfs.speedup_over(base.completion_s);
        let s_par = parallel.speedup_over(base.completion_s);
        assert!(
            s_dvfs > 1.5 && s_dvfs < 3.2,
            "DVFS sprint ≈ 2.5x on compute-bound work: {s_dvfs:.2}"
        );
        assert!(
            s_par > s_dvfs,
            "parallel {s_par:.2} must beat DVFS {s_dvfs:.2}"
        );
    }

    #[test]
    fn dvfs_costs_much_more_energy() {
        let work = 4_000;
        let base = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_sustained(),
        )
        .run();
        let dvfs = SprintSystem::new(
            loaded_machine(16, 16, work),
            fast_thermal(),
            SprintConfig::hpca_dvfs(),
        )
        .run();
        let ratio = dvfs.energy_j / base.energy_j;
        assert!(
            ratio > 3.0,
            "quadratic voltage cost should show up: {ratio:.2}"
        );
    }

    #[test]
    fn trace_is_bounded_and_ordered() {
        let report = SprintSystem::new(
            loaded_machine(4, 4, 30_000),
            fast_thermal(),
            SprintConfig::hpca_parallel().with_mode(ExecutionMode::ParallelSprint { cores: 4 }),
        )
        .with_trace_capacity(128)
        .run();
        assert!(report.trace.len() <= 128);
        for w in report.trace.windows(2) {
            assert!(w[1].time_s > w[0].time_s);
            assert!(w[1].instructions >= w[0].instructions);
        }
    }

    #[test]
    fn speedup_over_guards_degenerate_baselines() {
        let report = SprintSystem::new(
            loaded_machine(4, 4, 1_000),
            fast_thermal(),
            SprintConfig::hpca_parallel().with_mode(ExecutionMode::ParallelSprint { cores: 4 }),
        )
        .with_trace_capacity(0)
        .run();
        assert!(report.speedup_over(0.0).is_nan());
        assert!(report.speedup_over(-1.0).is_nan());
        assert!(report.speedup_over(f64::NAN).is_nan());
        let mut degenerate = report.clone();
        degenerate.completion_s = 0.0;
        assert!(degenerate.speedup_over(1.0).is_nan());
    }
}
