//! The steppable sprint session: architecture ⇄ thermal ⇄ power-delivery
//! co-simulation under incremental control.
//!
//! [`SprintSession`] is the non-consuming core of the co-simulation loop
//! (Section 8.1): each [`step`](SprintSession::step) runs one
//! energy-sampling window (1000 cycles), feeds the dissipated energy to
//! the electrical supply and the thermal backend, and lets the
//! [`SprintController`] reconfigure the machine. Because the session
//! survives between steps, scenarios the one-shot
//! [`SprintSystem::run`](crate::system::SprintSystem::run) could never
//! express become library-level compositions:
//!
//! * **pause–inspect–reconfigure** — step, read temperatures/budget, swap
//!   pacing, continue;
//! * **repeated bursts** — [`rest`](SprintSession::rest) cools the package
//!   and recharges the supply between bursts, and
//!   [`begin_burst`](SprintSession::begin_burst) re-arms the controller
//!   against the *current* thermal state;
//! * **electrically-limited sprints** — a [`PowerSupply`] that cannot
//!   deliver a window's power ends the sprint through
//!   [`SprintController::supply_limited`], wiring Section 6 into the
//!   simulation for the first time.
//!
//! [`ScenarioBuilder`] composes machine + workload + thermal backend +
//! supply + [`SprintConfig`] into a session.
//!
//! # Example
//!
//! ```
//! use sprint_archsim::{MachineConfig, SyntheticKernel};
//! use sprint_core::session::{ScenarioBuilder, StepOutcome};
//! use sprint_core::SprintConfig;
//! use sprint_thermal::phone::PhoneThermalParams;
//!
//! let mut session = ScenarioBuilder::new()
//!     .machine(MachineConfig::hpca())
//!     .load(|m| {
//!         for t in 0..16u64 {
//!             m.spawn(Box::new(SyntheticKernel::new(32, 5_000, (t + 1) << 26, 0)));
//!         }
//!     })
//!     .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
//!     .config(SprintConfig::hpca_parallel())
//!     .build();
//! while session.step() == StepOutcome::Running {}
//! let report = session.report();
//! assert!(report.finished);
//! ```

use serde::{Deserialize, Serialize};
use sprint_archsim::config::MachineConfig;
use sprint_archsim::machine::Machine;
use sprint_thermal::phone::{PhoneThermal, PhoneThermalParams};

use crate::config::{SprintConfig, SupplyPolicy};
use crate::controller::{ControllerEvent, SprintController, SprintState};
use crate::supply::{IdealSupply, PowerSupply};
use crate::thermal_model::ThermalModel;

/// One sampled point of a coupled run (for Figure 2-style traces).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSample {
    /// Time, seconds.
    pub time_s: f64,
    /// Active cores.
    pub active_cores: usize,
    /// Cumulative instructions retired.
    pub instructions: u64,
    /// Chip power over the last window, watts.
    pub power_w: f64,
    /// Junction temperature, Celsius.
    pub junction_c: f64,
    /// PCM melt fraction.
    pub melt_fraction: f64,
}

/// Result of a coupled run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Wall-clock completion time of the computation, seconds.
    pub completion_s: f64,
    /// Total dynamic energy, joules.
    pub energy_j: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Time the sprint ended (migration or completion), if it was a sprint.
    pub sprint_end_s: Option<f64>,
    /// Maximum junction temperature observed, Celsius.
    pub max_junction_c: f64,
    /// Controller events.
    pub events: Vec<ControllerEvent>,
    /// Whether the run finished within the configured time limit.
    pub finished: bool,
    /// Sampled trace (decimated).
    pub trace: Vec<RunSample>,
}

impl RunReport {
    /// Responsiveness gain over a baseline completion time. Degenerate
    /// comparisons (a non-finite or non-positive completion or baseline)
    /// return NaN rather than an infinite or negative "speedup".
    pub fn speedup_over(&self, baseline_s: f64) -> f64 {
        let comparable = self.completion_s.is_finite()
            && self.completion_s > 0.0
            && baseline_s.is_finite()
            && baseline_s > 0.0;
        if !comparable {
            return f64::NAN;
        }
        baseline_s / self.completion_s
    }
}

/// What one [`SprintSession::step`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A window ran and work remains.
    Running,
    /// Every thread has finished; further steps are no-ops.
    Finished,
    /// The configured `max_time_s` elapsed with work remaining; further
    /// steps are no-ops until the limit or workload changes.
    TimeLimit,
}

impl StepOutcome {
    /// True once stepping can make no further progress.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, StepOutcome::Running)
    }
}

/// A steppable coupled simulation, generic over the thermal backend and
/// the electrical supply.
pub struct SprintSession<T: ThermalModel = PhoneThermal, S: PowerSupply = IdealSupply> {
    machine: Machine,
    thermal: T,
    supply: S,
    config: SprintConfig,
    controller: SprintController,
    window_ps: u64,
    window_s: f64,
    max_windows: u64,
    windows: u64,
    /// Time spent resting between bursts (not advanced by the machine).
    idle_s: f64,
    max_junction_c: f64,
    finished: bool,
    /// First sprint end observed across the whole session.
    sprint_end_s: Option<f64>,
    /// Events accumulated across bursts (drained from each controller).
    events: Vec<ControllerEvent>,
    events_drained: usize,
    trace: Vec<RunSample>,
    trace_capacity: usize,
    trace_stride: u64,
}

impl<T: ThermalModel + std::fmt::Debug, S: PowerSupply + std::fmt::Debug> std::fmt::Debug
    for SprintSession<T, S>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SprintSession")
            .field("thermal", &self.thermal)
            .field("supply", &self.supply)
            .field("config", &self.config)
            .field("windows", &self.windows)
            .field("idle_s", &self.idle_s)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl<T: ThermalModel, S: PowerSupply> SprintSession<T, S> {
    /// Couples a loaded machine, thermal backend and supply under a sprint
    /// configuration. Most callers should use [`ScenarioBuilder`].
    pub fn new(
        machine: Machine,
        thermal: T,
        supply: S,
        config: SprintConfig,
        trace_capacity: usize,
    ) -> Self {
        config.validate();
        let mut machine = machine;
        let controller = SprintController::new(config.clone(), &thermal, &mut machine);
        let window_ps = config.sample_window_ps;
        let window_s = window_ps as f64 * 1e-12;
        let max_windows = (config.max_time_s / window_s).ceil() as u64;
        let max_junction_c = thermal.junction_temp_c();
        Self {
            machine,
            thermal,
            supply,
            config,
            controller,
            window_ps,
            window_s,
            max_windows,
            windows: 0,
            idle_s: 0.0,
            max_junction_c,
            finished: false,
            sprint_end_s: None,
            events: Vec::new(),
            events_drained: 0,
            trace: Vec::new(),
            trace_capacity,
            trace_stride: 1,
        }
    }

    /// Advances the coupled simulation by one sampling window.
    pub fn step(&mut self) -> StepOutcome {
        if self.machine.all_done() {
            self.finished = true;
            return StepOutcome::Finished;
        }
        if self.windows >= self.max_windows {
            return StepOutcome::TimeLimit;
        }
        // The cores that dissipated this window's power — captured before
        // any controller reaction can migrate threads, so spatial
        // backends heat the footprint that actually ran.
        let window_cores = self.machine.active_cores();
        let report = self.machine.run_window(self.window_ps);
        self.windows += 1;
        let now_s = self.now_s();
        let power_w = report.energy_j / self.window_s;
        // Electrical side (Section 6): a supply that cannot deliver the
        // window's power ends the sprint. The window that tripped the
        // limit has already executed — the same one-window reaction lag
        // the thermal failsafe has.
        if self.config.supply_policy == SupplyPolicy::EndSprint {
            if let Err(e) = self.supply.draw(power_w, self.window_s) {
                use sprint_powersource::battery::SupplyError;
                let available_w = match e {
                    SupplyError::CurrentLimit { available_w, .. } => available_w,
                    SupplyError::Depleted => 0.0,
                };
                self.controller
                    .supply_limited(now_s, power_w, available_w, &mut self.machine);
            }
        }
        self.thermal.set_active_core_count(window_cores);
        self.thermal.set_chip_power_w(power_w);
        self.thermal.advance(self.window_s);
        self.max_junction_c = self.max_junction_c.max(self.thermal.junction_temp_c());
        self.controller.step(
            &self.thermal,
            report.energy_j,
            self.window_s,
            now_s,
            &mut self.machine,
        );
        self.drain_events();
        if self.trace_capacity > 0 && self.windows.is_multiple_of(self.trace_stride) {
            self.trace.push(RunSample {
                time_s: now_s,
                active_cores: self.machine.active_cores(),
                instructions: self.machine.stats().instructions,
                power_w,
                junction_c: self.thermal.junction_temp_c(),
                melt_fraction: self.thermal.melt_fraction(),
            });
            if self.trace.len() >= self.trace_capacity {
                // Halve resolution: keep every other sample.
                let kept: Vec<RunSample> = self.trace.iter().copied().step_by(2).collect();
                self.trace = kept;
                self.trace_stride *= 2;
            }
        }
        if report.all_done {
            self.finished = true;
            if self.controller.state() == SprintState::Sprinting {
                self.sprint_end_s.get_or_insert(now_s);
            }
            StepOutcome::Finished
        } else {
            StepOutcome::Running
        }
    }

    /// Steps until the workload finishes or the time limit is reached,
    /// returning the final outcome.
    pub fn run_to_completion(&mut self) -> StepOutcome {
        loop {
            let outcome = self.step();
            if outcome.is_terminal() {
                return outcome;
            }
        }
    }

    /// Rests the package for `dt_s` seconds with the chip idle: the
    /// thermal backend cools (the PCM refreezes) and the supply recharges.
    /// Returns the energy transferred into the supply's sprint store,
    /// joules. Simulated time advances; the machine does not run.
    pub fn rest(&mut self, dt_s: f64) -> f64 {
        assert!(
            dt_s >= 0.0 && dt_s.is_finite(),
            "rest needs a non-negative time"
        );
        self.thermal.set_chip_power_w(0.0);
        self.thermal.advance(dt_s);
        self.idle_s += dt_s;
        self.supply.idle_recharge(dt_s)
    }

    /// Rests the package through `count` consecutive intervals of `dt_s`
    /// seconds each — bit-for-bit the state `count` successive
    /// [`rest`](Self::rest)`(dt_s)` calls would leave, returning the
    /// same total recharge, but batched so shared-backend view types
    /// can amortize their per-call overhead.
    ///
    /// The batching leans on two facts: repeating `set_chip_power_w(0.0)`
    /// is state-idempotent on every backend (the power is already zero
    /// after the first call), and the thermal and supply sides touch
    /// disjoint state, so `count` thermal advances followed by `count`
    /// recharge intervals reproduce the interleaved per-call sequence
    /// exactly. `idle_s` accumulates by repeated `+= dt_s` in the same
    /// order the looped path would, not by a single `count * dt_s` add
    /// (which rounds differently).
    pub fn rest_many(&mut self, dt_s: f64, count: u64) -> f64 {
        assert!(
            dt_s >= 0.0 && dt_s.is_finite(),
            "rest needs a non-negative time"
        );
        self.thermal.set_chip_power_w(0.0);
        self.thermal.advance_many(dt_s, count);
        for _ in 0..count {
            self.idle_s += dt_s;
        }
        self.supply.idle_recharge_many(dt_s, count)
    }

    /// Re-arms the sprint controller against the *current* thermal state:
    /// the next burst's budget is whatever capacity the package has
    /// recovered, and the burst gets a fresh `max_time_s` allowance (the
    /// limit guards each run, not the session's lifetime). Spawn new work
    /// on [`machine_mut`](Self::machine_mut) before or after; previously
    /// accumulated events and trace persist.
    pub fn begin_burst(&mut self) {
        self.drain_events();
        self.controller =
            SprintController::new(self.config.clone(), &self.thermal, &mut self.machine);
        self.events_drained = 0;
        self.finished = false;
        self.windows = 0;
    }

    /// Ends an in-flight sprint on an external decision (see
    /// [`SprintController::preempt`]): the threads migrate to one core
    /// and the session continues at sustained pace. A cluster scheduler
    /// uses this to revoke a node's sprint admission when shared
    /// thermal headroom runs out; outside a sprint it is a no-op.
    pub fn preempt_sprint(&mut self) {
        let now = self.now_s();
        self.controller.preempt(now, &mut self.machine);
        self.drain_events();
    }

    /// Cancels the in-flight workload: every unfinished machine thread is
    /// killed immediately (`Machine::cancel_all`) and any in-flight sprint
    /// is preempted, returning how many threads were killed. The work
    /// already executed — retired instructions, dissipated energy, the
    /// heat in the package — stays on the books; only the *future* of the
    /// workload is reclaimed. This is the session-level half of the
    /// competitive-duplicate cancel API: a cluster scheduler calls it on
    /// the losing replica's node the window the winner commits, so the
    /// loser's nameplate power and thermal headroom return to the shared
    /// pool one window later instead of after the replica limps to its
    /// own finish. After cancellation the session is idle (step reports
    /// `Finished`); spawn fresh work and [`begin_burst`](Self::begin_burst)
    /// to reuse the node.
    pub fn cancel_workload(&mut self) -> usize {
        let killed = self.machine.cancel_all();
        self.preempt_sprint();
        killed
    }

    /// Replaces the sprint configuration. The sampling window and time
    /// limit take effect immediately; the *controller* keeps running
    /// its current burst under the old configuration until
    /// [`begin_burst`](Self::begin_burst) re-arms it — swap config,
    /// then begin the burst. This is how a cluster scheduler flips a
    /// node between sprint-admitted and sustained duty per task.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn set_config(&mut self, config: SprintConfig) {
        config.validate();
        self.window_ps = config.sample_window_ps;
        self.window_s = self.window_ps as f64 * 1e-12;
        self.max_windows = (config.max_time_s / self.window_s).ceil() as u64;
        self.config = config;
    }

    /// Current simulated time: machine time plus rested intervals, seconds.
    pub fn now_s(&self) -> f64 {
        self.machine.time_s() + self.idle_s
    }

    /// Sampling windows executed in the current burst (reset by
    /// [`begin_burst`](Self::begin_burst)).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access — spawn follow-up work, inspect stats.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The thermal backend.
    pub fn thermal(&self) -> &T {
        &self.thermal
    }

    /// Mutable thermal access.
    pub fn thermal_mut(&mut self) -> &mut T {
        &mut self.thermal
    }

    /// The electrical supply.
    pub fn supply(&self) -> &S {
        &self.supply
    }

    /// Mutable supply access.
    pub fn supply_mut(&mut self) -> &mut S {
        &mut self.supply
    }

    /// The sprint configuration.
    pub fn config(&self) -> &SprintConfig {
        &self.config
    }

    /// Controller state right now.
    pub fn state(&self) -> SprintState {
        self.controller.state()
    }

    /// Remaining budget fraction of the current burst's controller.
    pub fn budget_remaining_fraction(&self) -> f64 {
        self.controller.budget_remaining_fraction()
    }

    /// All controller events so far, across bursts.
    pub fn events(&self) -> &[ControllerEvent] {
        &self.events
    }

    /// Builds the coupled report for the session so far. Callable at any
    /// point — mid-run reports simply describe an unfinished run.
    pub fn report(&self) -> RunReport {
        let sprint_end = self.sprint_end_s.or_else(|| self.controller.sprint_end_s());
        RunReport {
            completion_s: self.now_s(),
            energy_j: self.machine.stats().dynamic_energy_j,
            instructions: self.machine.stats().instructions,
            sprint_end_s: sprint_end,
            max_junction_c: self.max_junction_c,
            events: self.events.clone(),
            finished: self.finished,
            trace: self.trace.clone(),
        }
    }

    fn drain_events(&mut self) {
        let fresh = &self.controller.events()[self.events_drained..];
        for e in fresh {
            if self.sprint_end_s.is_none() {
                if let ControllerEvent::SprintEnded { at_s, .. } = e {
                    self.sprint_end_s = Some(*at_s);
                }
            }
            self.events.push(*e);
        }
        self.events_drained = self.controller.events().len();
    }
}

/// Composes workload + machine + thermal backend + supply +
/// [`SprintConfig`] into a [`SprintSession`].
///
/// A queued workload loader, applied to the machine at build time.
type Loader = Box<dyn FnOnce(&mut Machine)>;

/// Defaults reproduce the paper's flagship setup: an HPCA 16-core
/// machine, the 150 mg-PCM phone package, an unconstrained supply and
/// [`SprintConfig::hpca_parallel`].
pub struct ScenarioBuilder<T: ThermalModel = PhoneThermal, S: PowerSupply = IdealSupply> {
    machine_config: MachineConfig,
    loaders: Vec<Loader>,
    thermal: T,
    supply: S,
    config: SprintConfig,
    trace_capacity: usize,
}

impl<T: ThermalModel + std::fmt::Debug, S: PowerSupply + std::fmt::Debug> std::fmt::Debug
    for ScenarioBuilder<T, S>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("machine_config", &self.machine_config)
            .field("thermal", &self.thermal)
            .field("supply", &self.supply)
            .field("config", &self.config)
            .field("loaders", &self.loaders.len())
            .finish_non_exhaustive()
    }
}

impl ScenarioBuilder<PhoneThermal, IdealSupply> {
    /// Starts from the paper's flagship defaults.
    pub fn new() -> Self {
        Self {
            machine_config: MachineConfig::hpca(),
            loaders: Vec::new(),
            thermal: PhoneThermalParams::hpca().build(),
            supply: IdealSupply,
            config: SprintConfig::hpca_parallel(),
            trace_capacity: 2048,
        }
    }
}

impl Default for ScenarioBuilder<PhoneThermal, IdealSupply> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ThermalModel, S: PowerSupply> ScenarioBuilder<T, S> {
    /// Sets the machine configuration.
    pub fn machine(mut self, config: MachineConfig) -> Self {
        self.machine_config = config;
        self
    }

    /// Queues a workload loader, run against the machine at build time.
    /// Multiple loaders compose (e.g. a kernel suite plus a synthetic
    /// background thread).
    pub fn load(mut self, loader: impl FnOnce(&mut Machine) + 'static) -> Self {
        self.loaders.push(Box::new(loader));
        self
    }

    /// Swaps in a thermal backend (any [`ThermalModel`]).
    pub fn thermal<T2: ThermalModel>(self, thermal: T2) -> ScenarioBuilder<T2, S> {
        ScenarioBuilder {
            machine_config: self.machine_config,
            loaders: self.loaders,
            thermal,
            supply: self.supply,
            config: self.config,
            trace_capacity: self.trace_capacity,
        }
    }

    /// Swaps in an electrical supply (any [`PowerSupply`]).
    pub fn supply<S2: PowerSupply>(self, supply: S2) -> ScenarioBuilder<T, S2> {
        ScenarioBuilder {
            machine_config: self.machine_config,
            loaders: self.loaders,
            thermal: self.thermal,
            supply,
            config: self.config,
            trace_capacity: self.trace_capacity,
        }
    }

    /// Sets the sprint configuration.
    pub fn config(mut self, config: SprintConfig) -> Self {
        self.config = config;
        self
    }

    /// Limits the retained trace length (0 disables tracing).
    pub fn trace_capacity(mut self, samples: usize) -> Self {
        self.trace_capacity = samples;
        self
    }

    /// Builds the session: constructs the machine, runs the queued
    /// loaders, and couples everything under the configuration.
    pub fn build(self) -> SprintSession<T, S> {
        let mut machine = Machine::new(self.machine_config);
        for loader in self.loaders {
            loader(&mut machine);
        }
        SprintSession::new(
            machine,
            self.thermal,
            self.supply,
            self.config,
            self.trace_capacity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;
    use crate::thermal_model::LumpedThermal;
    use sprint_archsim::program::SyntheticKernel;
    use sprint_powersource::battery::Battery;

    fn spawn_threads(machine: &mut Machine, threads: u64, accesses: u64) {
        for t in 0..threads {
            machine.spawn(Box::new(SyntheticKernel::new(
                32,
                accesses,
                (t + 1) << 26,
                0,
            )));
        }
    }

    fn fast_session() -> SprintSession {
        ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 20_000))
            .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
            .build()
    }

    #[test]
    fn stepping_finishes_and_reports() {
        let mut s = fast_session();
        let mut steps = 0u64;
        while s.step() == StepOutcome::Running {
            steps += 1;
        }
        assert!(steps > 10);
        let report = s.report();
        assert!(report.finished);
        assert!(report.energy_j > 0.0);
        assert_eq!(report.instructions, s.machine().stats().instructions);
        // Further steps are no-ops.
        assert_eq!(s.step(), StepOutcome::Finished);
    }

    #[test]
    fn mid_run_inspection_sees_the_sprint() {
        let mut s = fast_session();
        for _ in 0..200 {
            if s.step() != StepOutcome::Running {
                break;
            }
        }
        // After the 128-window ramp the session must be sprinting wide.
        assert_eq!(s.state(), SprintState::Sprinting);
        assert_eq!(s.machine().active_cores(), 16);
        assert!(s.budget_remaining_fraction() > 0.0);
        let mid = s.report();
        assert!(!mid.finished, "mid-run report describes an unfinished run");
        s.run_to_completion();
        assert!(s.report().finished);
    }

    #[test]
    fn time_limit_is_reported() {
        let mut cfg = SprintConfig::hpca_parallel();
        cfg.max_time_s = 20e-6; // 20 windows
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 1_000_000))
            .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
            .config(cfg)
            .build();
        assert_eq!(s.run_to_completion(), StepOutcome::TimeLimit);
        assert!(!s.report().finished);
    }

    #[test]
    fn begin_burst_grants_a_fresh_time_allowance() {
        let mut cfg = SprintConfig::hpca_parallel();
        cfg.max_time_s = 30e-6; // 30 windows per burst
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 1_000_000))
            .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
            .config(cfg)
            .build();
        assert_eq!(s.run_to_completion(), StepOutcome::TimeLimit);
        // Re-arming must reset the per-burst limit, not starve the session.
        s.begin_burst();
        assert_eq!(s.step(), StepOutcome::Running);
    }

    #[test]
    fn generic_over_a_non_phone_backend() {
        let mut cfg = SprintConfig::hpca_parallel();
        cfg.mode = ExecutionMode::ParallelSprint { cores: 16 };
        cfg.tdp_w = 100.0; // server-class sustainable power
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 10_000))
            .thermal(LumpedThermal::server_heatsink())
            .config(cfg)
            .build();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        let report = s.report();
        assert!(report.finished);
        assert!(report.max_junction_c < 85.0);
    }

    #[test]
    fn current_limited_battery_ends_the_sprint_early() {
        // A phone Li-ion cell (~10 W ceiling) cannot feed the 16-core
        // sprint: the first full-width window trips the limit and the
        // controller migrates to one core.
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 20_000))
            .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
            .supply(Battery::phone_li_ion())
            .build();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        let report = s.report();
        assert!(report.finished);
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, ControllerEvent::SupplyLimited { .. })),
            "events: {:?}",
            report.events
        );
        let end = report.sprint_end_s.expect("sprint must have ended");
        assert!(
            end < report.completion_s * 0.5,
            "supply abort {end} must come well before completion {}",
            report.completion_s
        );
    }

    #[test]
    fn ignore_policy_keeps_the_seed_behaviour() {
        let mut cfg = SprintConfig::hpca_parallel();
        cfg.supply_policy = SupplyPolicy::Ignore;
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 20_000))
            .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
            .supply(Battery::phone_li_ion())
            .config(cfg)
            .build();
        s.run_to_completion();
        assert!(s
            .report()
            .events
            .iter()
            .all(|e| !matches!(e, ControllerEvent::SupplyLimited { .. })));
    }

    #[test]
    fn rest_cools_and_rearms_the_budget() {
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 60_000))
            .thermal(PhoneThermalParams::limited().time_scaled(1000.0).build())
            .build();
        s.run_to_completion();
        let hot_budget = s.thermal().sprint_energy_budget_j();
        let t_hot = s.thermal().junction_temp_c();
        s.rest(0.5); // generous cooldown at 1000x compression
        assert!(s.thermal().junction_temp_c() < t_hot);
        assert!(s.thermal().sprint_energy_budget_j() > hot_budget);
        // A new burst against the recovered state.
        spawn_threads(s.machine_mut(), 16, 10_000);
        s.begin_burst();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        assert!(s.report().finished);
        assert!(
            s.now_s() > s.machine().time_s(),
            "rest advanced session time"
        );
    }

    #[test]
    fn preempt_migrates_like_budget_exhaustion() {
        let mut s = fast_session();
        for _ in 0..200 {
            if s.step() != StepOutcome::Running {
                break;
            }
        }
        assert_eq!(s.state(), SprintState::Sprinting);
        s.preempt_sprint();
        assert_eq!(s.state(), SprintState::Sustained);
        assert_eq!(s.machine().active_cores(), 1);
        assert!(s
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::SprintEnded { .. })));
        // Preempting again is a no-op; the run still completes.
        let events = s.events().len();
        s.preempt_sprint();
        assert_eq!(s.events().len(), events);
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
    }

    #[test]
    fn cancel_workload_reclaims_the_node_mid_sprint() {
        let mut s = fast_session();
        for _ in 0..200 {
            if s.step() != StepOutcome::Running {
                break;
            }
        }
        assert_eq!(s.state(), SprintState::Sprinting);
        let retired = s.machine().stats().instructions;
        assert_eq!(s.cancel_workload(), 16);
        // The sprint ended with the workload; executed work stays on the
        // books and the session is immediately idle.
        assert_eq!(s.state(), SprintState::Sustained);
        assert_eq!(s.machine().stats().instructions, retired);
        assert_eq!(s.step(), StepOutcome::Finished);
        // Cancelling an idle session is a no-op.
        assert_eq!(s.cancel_workload(), 0);
        // The node is reusable: fresh work, fresh burst.
        spawn_threads(s.machine_mut(), 4, 2_000);
        s.begin_burst();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        assert!(s.report().finished);
    }

    #[test]
    fn set_config_governs_the_next_burst() {
        let mut s = fast_session();
        s.run_to_completion();
        let sprints_before = s
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::SprintStarted { .. }))
            .count();
        assert_eq!(sprints_before, 1);
        // Flip the session to sustained duty for the next task.
        s.set_config(SprintConfig::hpca_sustained());
        spawn_threads(s.machine_mut(), 4, 5_000);
        s.begin_burst();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        assert_eq!(s.machine().active_cores(), 1, "sustained runs one core");
        let sprints_after = s
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::SprintStarted { .. }))
            .count();
        assert_eq!(sprints_after, 1, "no new sprint under sustained config");
    }

    #[test]
    fn session_runs_on_a_borrowed_backend() {
        // The thermal port: the session borrows the backend, and the
        // caller still holds it (with all accumulated state) afterwards.
        let mut thermal = PhoneThermalParams::hpca().time_scaled(1000.0).build();
        let ambient = thermal.junction_temp_c();
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 10_000))
            .thermal(&mut thermal)
            .build();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        assert!(s.report().finished);
        drop(s);
        assert!(
            thermal.junction_temp_c() > ambient + 1.0,
            "the borrowed backend keeps the run's heat"
        );
    }

    #[test]
    fn session_runs_on_a_boxed_backend() {
        let boxed: Box<dyn crate::thermal_model::ThermalModel> =
            Box::new(PhoneThermalParams::hpca().time_scaled(1000.0).build());
        let mut s = ScenarioBuilder::new()
            .load(|m| spawn_threads(m, 16, 10_000))
            .thermal(boxed)
            .build();
        assert_eq!(s.run_to_completion(), StepOutcome::Finished);
        assert!(s.report().finished);
        assert!(s.report().max_junction_c > s.thermal().ambient_c());
    }
}
