//! Computational sprinting: the paper's primary contribution.
//!
//! This crate implements the sprint *mechanism* of Raghavan et al.'s
//! *Computational Sprinting* (HPCA 2012): briefly exceeding a mobile
//! chip's sustainable thermal budget by an order of magnitude — activating
//! up to 16 otherwise-dark cores — to compress a burst of computation,
//! then migrating back to a single core to cool down.
//!
//! The pieces map onto the paper's design, now behind a backend-generic
//! session API:
//!
//! * [`thermal_model::ThermalModel`] — the thermal-backend *port*; the
//!   paper's phone package ([`sprint_thermal::phone::PhoneThermal`])
//!   implements it, as does the single-node
//!   [`thermal_model::LumpedThermal`] reference backend. Blanket impls
//!   for `&mut T` and `Box<T>` mean a session need not own its backend:
//!   it can borrow one, erase one, or (via a view type like
//!   `sprint-cluster`'s per-node rack views) share one with many other
//!   sessions.
//! * [`supply::PowerSupply`] — the electrical side (Section 6)
//!   consulted every sampling window; batteries, ultracapacitors,
//!   hybrids, pin-count ceilings and lossy [`supply::Regulator`]
//!   conversion stages can clamp or abort a sprint. Like the thermal
//!   port, it carries blanket `&mut S`/`Box<S>` impls, so a session can
//!   borrow, erase, or (via `sprint-cluster`'s per-node rack supply
//!   views) share its supply.
//! * [`fault::FaultPlan`] and the fault ports [`fault::FaultSensor`] /
//!   [`fault::FaultSupply`] — seeded, deterministic fault injection
//!   composed over the thermal and supply ports: sensor stuck-at /
//!   bias / dropout, supply collapse / brownout / death, node
//!   crash/recovery. Healthy wrappers are bit-identical passthroughs,
//!   so fault tolerance never costs the determinism contract.
//! * [`budget::ThermalBudget`] — the activity-based estimator that
//!   integrates dissipated energy against the package's joule capacity.
//! * [`controller::SprintController`] — activation ramp, sprint
//!   termination (thread migration to one core) and the hardware
//!   frequency-throttle failsafe.
//! * [`session::SprintSession`] — the steppable architecture ⇄ thermal ⇄
//!   power-delivery co-simulation (energy sampled every 1000 cycles,
//!   exactly as in Section 8.1), composed via
//!   [`session::ScenarioBuilder`].
//! * [`system::SprintSystem`] — the original one-shot facade, kept as a
//!   thin wrapper over the session.
//! * [`config::SprintConfig`] — the paper's three configurations:
//!   sustained, 16-core parallel sprint, and idealized DVFS sprint.
//!
//! # Quick start
//!
//! ```
//! use sprint_archsim::{MachineConfig, SyntheticKernel};
//! use sprint_core::config::SprintConfig;
//! use sprint_core::session::ScenarioBuilder;
//! use sprint_thermal::phone::PhoneThermalParams;
//!
//! // 16 threads of bursty work on a 16-core chip, under the paper's
//! // flagship sprint configuration. The thermal model is compressed
//! // 1000x so this doc-test runs instantly.
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
//! session.run_to_completion();
//! let report = session.report();
//! assert!(report.finished);
//! ```
//!
//! Electrically-limited scenarios plug a supply into the same builder:
//!
//! ```
//! use sprint_archsim::{MachineConfig, SyntheticKernel};
//! use sprint_core::session::ScenarioBuilder;
//! use sprint_core::ControllerEvent;
//! use sprint_powersource::Battery;
//! use sprint_thermal::phone::PhoneThermalParams;
//!
//! // A phone Li-ion cell cannot feed a 16 W sprint (Section 6): the
//! // sprint aborts on the first full-width window and the work finishes
//! // on one core.
//! let mut session = ScenarioBuilder::new()
//!     .load(|m| {
//!         for t in 0..16u64 {
//!             m.spawn(Box::new(SyntheticKernel::new(32, 5_000, (t + 1) << 26, 0)));
//!         }
//!     })
//!     .thermal(PhoneThermalParams::hpca().time_scaled(1000.0).build())
//!     .supply(Battery::phone_li_ion())
//!     .build();
//! session.run_to_completion();
//! assert!(session
//!     .events()
//!     .iter()
//!     .any(|e| matches!(e, ControllerEvent::SupplyLimited { .. })));
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod conceptual;
pub mod config;
pub mod controller;
pub mod fault;
pub mod metrics;
pub mod session;
pub mod supply;
pub mod system;
pub mod thermal_model;

pub use budget::ThermalBudget;
pub use config::{
    AbortPolicy, BudgetEstimator, ExecutionMode, HotspotPolicy, PacingPolicy, SprintConfig,
    SupplyPolicy,
};
pub use controller::{ControllerEvent, SprintController, SprintState};
pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultRates, FaultResponse, FaultSensor, FaultState,
    FaultSupply, SensorFault, SupplyFault,
};
pub use metrics::{arithmetic_mean, geometric_mean, Comparison};
pub use session::{RunReport, RunSample, ScenarioBuilder, SprintSession, StepOutcome};
pub use supply::{EfficiencyCurve, IdealSupply, PinLimited, PowerSupply, Regulator};
pub use system::SprintSystem;
pub use thermal_model::{LumpedThermal, ThermalModel};
