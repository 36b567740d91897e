//! Facility-scale computational sprinting: rows of sprinting racks
//! under one shared power feed and shared cooling.
//!
//! The paper sprints a single chip against its thermal capacitor; the
//! rack layer (`sprint-cluster`) lifts the idea to a 16-node rack
//! against shared heat-sink and power-delivery pools. This crate takes
//! the next rung: a [`Facility`] composes N racks into rows and couples
//! them through the two resources a datacenter actually shares —
//! airflow and the utility feed — then rations *facility* sprint
//! headroom across racks with a global admission tier layered above
//! each rack's local thermal/power admission.
//!
//! # Coupling model
//!
//! Racks stay fully independent *within* a settlement epoch (their own
//! [`RackThermal`](sprint_cluster::RackThermal) grid, their own
//! [`RackSupply`](sprint_cluster::RackSupply) pool); the facility talks
//! to them only through two slow boundary knobs, re-settled every
//! [`epoch_windows`](FacilityBuilder::epoch_windows) sampling windows:
//!
//! * **Row airflow** ([`RowParams`]): racks in a row share a CRAC unit.
//!   When the row's total heat exceeds the CRAC capacity, the excess
//!   recirculates and lifts every rack inlet in the row by
//!   `recirc_k_per_w` Kelvin per excess watt (clamped at
//!   `max_inlet_c`). A hot row therefore erodes its own racks' thermal
//!   sprint headroom — the facility-scale analogue of the die heating
//!   its heat sink.
//! * **Facility feed** ([`FacilityPolicy`]): the building's feed caps
//!   total rack power below the sum of the rack PDU nameplates
//!   (facilities are provisioned for average, not peak — the premise
//!   sprinting exploits). [`FacilityPolicy::GlobalRationed`] re-divides
//!   the facility cap across racks every epoch, demand-weighted by each
//!   rack's queue backlog and sprinting population and dealt in
//!   sprint-slot quanta above a per-rack floor, by moving each rack's
//!   live [`RackSupply`](sprint_cluster::RackSupply) cap; the rack's
//!   own [`PowerPolicy`](sprint_cluster::PowerPolicy) admission then
//!   enforces whatever share it was dealt.
//!   [`FacilityPolicy::PerRack`] is the facility-oblivious baseline:
//!   each rack keeps a fixed share forever — its commissioned nameplate
//!   when the feed is uncapped, or the static equal split
//!   `facility_cap / N` under the same facility cap the global tier
//!   rations (the apples-to-apples comparison the facility study runs).
//!
//! # The settlement barrier (and determinism)
//!
//! Rack advancement is sharded across workers (plain
//! `std::thread::scope`, no dependencies): rack *r* lives on worker
//! `r % workers`, which builds its non-`Send` session and owns it for
//! the whole run. The thread that calls [`Facility::run`] is worker 0;
//! each further worker is a scoped thread behind its own input and
//! telemetry channel, so a 1-worker run is the same loop with no thread
//! and no channel. Each epoch the calling thread asks the crate's
//! `Settlement` state machine for per-rack inputs (inlet, cap, routed
//! tasks), every worker steps its racks `epoch_windows` windows and
//! returns plain-data telemetry, and the settlement records it and
//! decides — row inlets, facility cap shares and requeue routing, all
//! computed **in rack index order** before the next epoch begins.
//! Because racks share no mutable state inside an epoch and every
//! cross-rack term is computed single-threaded from index-ordered
//! telemetry, the same seed and rack count produce a byte-identical
//! [`FacilityReport`] at *any* worker count — pinned by this crate's
//! determinism tests. A one-rack facility with coupling left at
//! defaults reproduces a standalone
//! [`ClusterSession`](sprint_cluster::ClusterSession) run byte for
//! byte: the facility layer's observer effect is zero.
//!
//! A rack that panics mid-run ends the run with its own panic: on the
//! calling thread it unwinds directly; on a worker thread it closes
//! that worker's channels, the epoch loop stops, and `run` re-raises
//! the payload from the worker's `join` instead of waiting on racks
//! that will never report.
//!
//! # Where a rack knob lives
//!
//! Every rack knob lives on [`RackSpec`], the plain-data rack
//! description `sprint-cluster` builds standalone clusters from.
//! [`FacilityBuilder`]'s rack setters write one template spec, and each
//! rack's spec is that template with the rack's own tasks and fault
//! plan.
//!
//! # Heterogeneous racks
//!
//! Fleets need not be uniform. [`FacilityBuilder::node_specs`] (the
//! template's [`RackSpec::node_specs`]) gives every node its
//! own [`NodeSpec`](sprint_cluster::NodeSpec) — machine config,
//! nameplate share weight, thermal-footprint weight — and
//! [`FacilityBuilder::placement`] selects the idle-node ranking
//! ([`Placement::CheapestHeadroom`](sprint_cluster::Placement) is the
//! cost-aware pass a mixed fleet wants). The refactor is
//! observer-free by construction: a homogeneous spec list reproduces
//! the pre-heterogeneity clone path byte for byte, pinned by the
//! hetero test suites at both the rack and facility tiers. Racks
//! running [`ClusterPolicy::CompetitiveDuplicate`](sprint_cluster::ClusterPolicy)
//! report their duplication economics upward —
//! [`FacilityReport::cancelled_copies`] sums every losing replica
//! preempted the window its winner committed.
//!
//! # Cross-rack requeue routing
//!
//! [`FacilityBuilder::route_requeues`] turns the settlement barrier
//! into a migration fabric for crash victims: each epoch the barrier
//! drains every rack's crash-requeued tasks, routes each to the live
//! rack with the most surviving capacity per queued task (rack index
//! breaks ties), and injects them at the next epoch start. That fixes
//! retry-in-place head-of-line blocking when a task's origin rack has
//! quarantined the only nodes that could rerun it.
//! [`FacilityReport::migrated_tasks`] counts the moves, facility-wide
//! task conservation still holds, and — because routing is computed
//! single-threaded at the barrier from index-ordered telemetry — the
//! any-worker-count digest guarantee survives. Off, or on with no
//! crashes, the run is byte-identical to the unrouted facility.
//!
//! # Faults at facility scale
//!
//! [`FacilityBuilder::fault_rates`] derives one seeded
//! `sprint_core::fault::FaultPlan` per rack (distinct per-rack
//! streams, the same seed mixing as rack traffic), and
//! [`FacilityBuilder::fault_on`] installs explicit plans. Each rack
//! degrades locally — failsafe throttles, crash re-enqueue with
//! bounded retries, quarantine — and under
//! `sprint_core::fault::FaultResponse::Aware` reports its surviving
//! node fraction at the settlement barrier, where the feed tier
//! re-deals a degraded rack's ceded nameplate share to healthy racks.
//! [`FacilityReport`] sums every rack's fault/retry/quarantine
//! counters and pins facility-wide task conservation
//! ([`FacilityReport::task_conservation_holds`]): arrivals are never
//! lost, only finished, failed after retries, or left outstanding at
//! the time limit. A rack's event core wakes on every window its plan
//! stamps, so faulted facilities keep the any-worker-count digest
//! guarantee.
//!
//! # Quick start
//!
//! ```
//! use sprint_facility::prelude::*;
//! use sprint_thermal::grid::GridThermalParams;
//! use sprint_cluster::RackSupplyParams;
//! use sprint_workloads::traffic::TrafficParams;
//!
//! let facility = FacilityBuilder::new(2)
//!     .rack_thermal(GridThermalParams::rack(2, 1).time_scaled(3000.0))
//!     .rack_supply(RackSupplyParams::rack(2).time_scaled(3000.0))
//!     .facility_policy(FacilityPolicy::GlobalRationed { floor_w: 10.0, slot_w: 14.0 })
//!     .facility_cap_w(60.0)
//!     .traffic(TrafficParams::frontend(7, 8, 30_000.0))
//!     .build();
//! let report = facility.run(2);
//! assert_eq!(report.completed, 8);
//! ```

#![warn(missing_docs)]

pub mod facility;
pub mod policy;
mod settlement;
mod shard;

pub use facility::{
    Facility, FacilityBuildError, FacilityBuilder, FacilityReport, RackSpec, RowParams,
};
pub use policy::FacilityPolicy;

/// Commonly-used items in one import.
pub mod prelude {
    pub use crate::facility::{
        Facility, FacilityBuildError, FacilityBuilder, FacilityReport, RackSpec, RowParams,
    };
    pub use crate::policy::FacilityPolicy;
}
