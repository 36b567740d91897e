//! # Computational Sprinting — a full-system reproduction
//!
//! This workspace reproduces *Computational Sprinting* (Raghavan, Luo,
//! Chandawalla, Papaefthymiou, Pipe, Wenisch, Martin — HPCA 2012): briefly
//! activating up to 16 otherwise-dark cores on a mobile chip, exceeding its
//! sustainable thermal budget by an order of magnitude for sub-second
//! bursts, buffered by the latent heat of a phase-change material.
//!
//! This crate re-exports the workspace's building blocks:
//!
//! * [`thermal`] — thermal RC networks with PCM nodes (paper Figures 3-4).
//! * [`powergrid`] — MNA transient simulation of the sprint PDN (Figures 5-6).
//! * [`archsim`] — the many-core simulator (Section 8.1 methodology).
//! * [`workloads`] — the six Table 1 vision kernels.
//! * [`powersource`] — batteries, ultracapacitors and pin budgets (Section 6).
//! * [`scaling`] — dark-silicon trend models (Figure 1).
//! * [`core`] — the sprint controller, budget estimator, and the
//!   steppable architecture ⇄ thermal ⇄ power-delivery co-simulation.
//! * [`cluster`] — rack-level sprinting: many sessions against one
//!   shared rack grid *and* one shared power-delivery pool (PDU cap,
//!   ride-through reserve, per-node regulators) under jointly
//!   thermal- and power-aware sprint admission (Porto et al.'s
//!   data-center regime). Fleets may be heterogeneous — per-node
//!   machine configs and share weights via [`cluster::NodeSpec`],
//!   cost-aware placement via [`cluster::Placement`], and competitive
//!   task duplication with loser cancellation
//!   (`examples/hetero_fleet.rs`, `repro hetero`).
//! * [`facility`] — datacenter scale: rows of racks coupled through
//!   shared CRAC airflow and a facility feed, with a global
//!   sprint-admission tier rationing facility headroom across racks,
//!   sharded deterministically over worker threads
//!   (`examples/facility.rs`, `repro facility`), with seeded
//!   deterministic fault injection — sensor lies, supply sags, node
//!   crashes — and graceful degradation spanning every tier
//!   (`examples/faults.rs`, `repro faults`).
//!
//! # Quick start
//!
//! Scenarios compose through [`core::session::ScenarioBuilder`]: a
//! machine, a workload, a thermal backend (any
//! [`core::thermal_model::ThermalModel`]), an electrical supply (any
//! [`core::supply::PowerSupply`]) and a [`core::config::SprintConfig`].
//!
//! ```
//! use computational_sprinting::prelude::*;
//!
//! // A 16-thread burst of the sobel kernel on a 16-core chip, coupled to
//! // the phone thermal model (time-compressed for the test).
//! let mut session = ScenarioBuilder::new()
//!     .machine(MachineConfig::hpca())
//!     .load(suite_loader(WorkloadKind::Sobel, InputSize::A, 16))
//!     .thermal(PhoneThermalParams::hpca().time_scaled(100.0).build())
//!     .config(SprintConfig::hpca_parallel())
//!     .build();
//! session.run_to_completion();
//! let report = session.report();
//! assert!(report.finished);
//!
//! // The one-shot facade is equivalent for run-to-completion scenarios:
//! let machine = loaded_machine(WorkloadKind::Sobel, InputSize::A, MachineConfig::hpca(), 16);
//! let thermal = PhoneThermalParams::hpca().time_scaled(100.0).build();
//! let oneshot = SprintSystem::new(machine, thermal, SprintConfig::hpca_parallel()).run();
//! assert_eq!(oneshot.instructions, report.instructions);
//! ```
//!
//! The session API unlocks scenarios the one-shot runner cannot express:
//! repeated bursts with [`core::session::SprintSession::rest`] pacing
//! between them, supplies that abort a sprint on a current limit (wire in
//! a [`powersource::Battery`] via `ScenarioBuilder::supply`), and
//! pause-inspect-reconfigure loops around
//! [`core::session::SprintSession::step`]. See `examples/` for all three.
//!
//! The thermal backend and the electrical supply are both *ports*:
//! sessions accept owned backends, `&mut` borrows, boxed trait objects,
//! or shared views — which is how [`cluster::ClusterSession`] drives a
//! whole rack of sessions against one `GridThermal` and one
//! `RackSupply` (`examples/rack_sprint.rs` and `examples/rack_power.rs`,
//! `repro rack` and `repro rack_power`).

pub use sprint_archsim as archsim;
pub use sprint_cluster as cluster;
pub use sprint_core as core;
pub use sprint_facility as facility;
pub use sprint_powergrid as powergrid;
pub use sprint_powersource as powersource;
pub use sprint_scaling as scaling;
pub use sprint_thermal as thermal;
pub use sprint_workloads as workloads;

/// Commonly-used items in one import.
pub mod prelude {
    pub use sprint_archsim::{Machine, MachineConfig};
    pub use sprint_cluster::{
        ClusterBuildError, ClusterBuilder, ClusterEvent, ClusterOutcome, ClusterPolicy,
        ClusterReport, ClusterSession, ClusterTask, EventDrivenCluster, NodeSpec, NodeSupplyView,
        NodeThermalView, Placement, PowerPolicy, RackSupply, RackSupplyParams, RackThermal,
        TaskOutcome,
    };
    pub use sprint_core::{
        ControllerEvent, EfficiencyCurve, ExecutionMode, FaultEvent, FaultKind, FaultPlan,
        FaultRates, FaultResponse, HotspotPolicy, IdealSupply, LumpedThermal, PinLimited,
        PowerSupply, Regulator, RunReport, ScenarioBuilder, SprintConfig, SprintSession,
        SprintSystem, StepOutcome, SupplyPolicy, ThermalModel,
    };
    pub use sprint_facility::{
        Facility, FacilityBuildError, FacilityBuilder, FacilityPolicy, FacilityReport, RackSpec,
        RowParams,
    };
    pub use sprint_powersource::{Battery, HybridSupply, PackagePins, Ultracapacitor};
    pub use sprint_thermal::{
        Floorplan, GridSolver, GridThermal, GridThermalParams, PhoneThermal, PhoneThermalParams,
    };
    pub use sprint_workloads::traffic::TrafficParams;
    pub use sprint_workloads::{
        build_workload, loaded_machine, suite_loader, InputSize, Workload, WorkloadKind,
    };
}
