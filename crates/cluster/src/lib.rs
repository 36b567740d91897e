//! Rack-level computational sprinting: many servers, one thermal pool.
//!
//! The paper sprints one die against its own package. This crate lifts
//! the same regime to a data-center rack, following Porto et al.
//! ("Making data center computations fast, but not so furious"): whole
//! *servers* sprint against shared thermal headroom, and a cluster-level
//! scheduler decides **which** nodes may sprint and in what order they
//! are shed when the shared pool runs low — the generalization of the
//! per-die `HotspotPolicy::ShedCores` throttle from shed *count* to
//! shed *order*.
//!
//! # Architecture: the rack as a floorplan
//!
//! The rack thermal model *is* the die model, re-provisioned
//! (`GridThermalParams::rack` in `sprint-thermal`): a floorplan with
//! one "core" rectangle per **server** over a shared-airflow plenum
//! layer, integrated by the ADI solver (whose sub-step is independent
//! of the grid resolution — rack grids are exactly why that solver
//! exists, and with no PCM in the stack every ADI line factorization is
//! cached). No new physics was written for racks; one grid, one solver,
//! one floorplan abstraction serve both scales.
//!
//! Sessions plug into the shared grid through the `ThermalModel` *port*
//! (`sprint-core`): each node's [`rack::NodeThermalView`] maps its
//! session's power onto its own floorplan rectangle and reports its own
//! hottest cell — not the rack-global one — as the junction, with the
//! node's *regional* energy budget feeding that session's controller.
//! A node therefore sprints against its own silicon while the shared
//! plenum silently couples everyone's headroom: rack contention reaches
//! each node through physics, not through scheduler bookkeeping.
//!
//! # The electrical pool: the same pattern, through the supply port
//!
//! Power delivery (paper Section 6) gets the *exact same treatment*
//! through the `PowerSupply` port: one [`supply::RackSupply`] pool
//! (PDU/busbar cap plus a stored-energy ride-through reserve) hands out
//! per-node [`supply::NodeSupplyView`]s, each behind a
//! `sprint_core::supply::Regulator` whose load-dependent efficiency
//! curve makes the pool pay `demand / η(load)`. The
//! nameplate-vs-telemetry split mirrors the thermal one symmetrically:
//!
//! * a view advertises only the node's **nameplate share** of the feed
//!   (`cap / nodes`, captured at commissioning) — node governors carry
//!   no bus telemetry, so an unmanaged rack sprints into the drained
//!   reserve and browns out, exactly as nameplate thermal budgets
//!   sprint into exhausted shared headroom;
//! * the **live** pool state (total upstream draw, feed headroom,
//!   reserve level) belongs to the cluster scheduler, which rations it
//!   through [`policy::PowerPolicy`]: admission books each sprint
//!   against the feed, denial defers the task under the same
//!   sprint-or-defer machinery as thermal denial, and a power
//!   emergency sheds the biggest drawers first through the same
//!   shed-order mechanism.
//!
//! On top sit the scheduler pieces:
//!
//! * [`policy::ClusterPolicy`] — admission (may this task sprint
//!   here?), allowance (how many nodes may sprint at this rack
//!   headroom?) and shed order (who is preempted first?): greedy
//!   headroom, round-robin, competitive duplication, plus the
//!   all-sprint / no-sprint baselines.
//! * [`policy::PowerPolicy`] — the power axis of admission: oblivious
//!   (thermal-only, the brownout baseline) or rationed against the
//!   shared feed.
//! * [`queue::ClusterTask`] / [`queue::TaskOutcome`] — the arrival
//!   queue over the `sprint-workloads` suite (open arrivals included;
//!   `ClusterReport` carries mean/p95/max latency for them).
//! * [`cluster::RackSpec`] — a rack described once, as plain data
//!   (`Clone`, `Debug`, `Send`, `Sync`): its grid, nodes, policies, pool, task
//!   queue and fault plan. Its setters make it the cluster builder
//!   ([`cluster::ClusterBuilder`] is the same type), `build` borrows it,
//!   and a facility stamps each of its racks from one template spec.
//! * [`cluster::ClusterSession`] — the lockstep stepper: one
//!   `SprintSession` per node, one shared rack, one shared feed, one
//!   scheduler pass per sampling window. A one-node cluster reproduces
//!   a standalone session byte-for-byte.
//!
//! # Two steppers, one semantics
//!
//! The crate ships two executions of the same simulation.
//!
//! The **lockstep stepper** ([`cluster::ClusterSession`]) advances
//! every node every window — simple, obviously correct, and `O(fleet)`
//! per window regardless of how many nodes are actually doing
//! anything. It is the **golden oracle**: the definition of what a
//! configuration computes.
//!
//! The **event-driven core** ([`event::EventDrivenCluster`]) wraps a
//! fresh lockstep session and runs the same windows in the same phase
//! order, each phase only where it can act. Faults run on windows the
//! plan stamps, arrivals when the next task or crash-retry is due, the
//! scheduler passes when one of those fired or when a ready task or a
//! sprint grant gives them something to do (every sprinting node holds
//! a grant, and the passes open by sweeping the grants whose sprints
//! ended) — each read from state the session already keeps, with no
//! event queue. The node phase is one ascending loop over node 0 (the
//! settlement leader, whose per-window ADI grid integration is bitwise
//! irreducible), the busy nodes and the *owed* ones: a node that just
//! lost its task owes one real rest, which takes its core power off
//! the grid and records its idle draw before the next settlement.
//! After that an idle node sleeps, and its private rest effects are
//! replayed verbatim (same calls, same order, same floating-point
//! sequence) when it takes work and at terminal and report time.
//!
//! The contract between the two is not "close enough": an event-driven
//! run must reproduce the lockstep [`cluster::ClusterReport`] digest
//! **byte for byte** on the same configuration. The equivalence tests
//! (`tests/event_core.rs` here, the sharded-facility digests in
//! `sprint-facility`) and the `perfbench --check` perf gate pin that
//! invariant; see the [`event`] module docs for what runs each window.
//!
//! # Fault injection and graceful degradation
//!
//! Every node's thermal and supply ports are wrapped in
//! `sprint-core`'s fault ports (`FaultSensor` / `FaultSupply`) —
//! bit-identical passthroughs until a window-stamped
//! `sprint_core::fault::FaultPlan` (installed via
//! [`cluster::RackSpec::fault_plan`]) flips them. The scheduler
//! reads each node's temperature through that node's `FaultSensor`, so
//! what a stuck, biased or dropped-out sensor reports is defined there
//! alone, and oblivious scheduling believes it. The scheduler
//! *degrades instead of corrupting* under `FaultResponse::Aware`: a
//! faulted sensor reads as already-at-the-limit (conservative
//! treat-as-hot failsafe, mid-sprint preemption included) — the one
//! rule it adds on top of the port, in `ClusterSession`'s private
//! sensed-reading accessor and admission veto. A crashed
//! node's in-flight task re-enters the queue with a bounded retry
//! budget and exponential window backoff, a mid-task crash quarantines
//! the node for the rest of the run (Aware scheduling also returns its
//! nameplate share to the rack pool,
//! [`supply::RackSupply::decommission_node`]), and
//! [`cluster::ClusterReport`] accounts every submitted task as
//! completed, failed-after-retries, or outstanding — never lost
//! ([`cluster::ClusterReport::task_conservation_holds`]). The event
//! core wakes on every window the plan stamps, so faulted event-driven
//! runs stay byte-identical to the lockstep oracle.
//!
//! # Heterogeneous fleets: per-node specs, task classes, placement
//!
//! Nothing above assumes the rack is a clone-farm. A fleet is described
//! by one [`cluster::NodeSpec`] per node — its machine config (big or
//! little core counts, frequencies), its **nameplate share weight**
//! (commissioning-time fraction of the feed: the supply pool cuts
//! `cap · wᵢ / Σw_alive` per node and re-cuts on decommission), and its
//! **thermal-footprint weight** (the floorplan scales that node's rect
//! area about its center, so a big node occupies more die and couples
//! more heat into the plenum). A homogeneous `NodeSpec` fleet is
//! **byte-for-byte identical** to the legacy single-config clone path:
//! unit weights cut the feed with the exact same arithmetic and a
//! footprint factor of 1.0 never touches the floorplan.
//!
//! Tasks carry classes ([`queue::ClusterTask::with_min_cores`] affinity
//! and a [`queue::ClusterTask::not_duplicable`] flag), and admission
//! gains a cost-aware pass ([`cluster::Placement::CheapestHeadroom`])
//! that ranks idle nodes by affinity fit, then thermal + electrical
//! headroom cost; the default [`cluster::Placement::PolicyDefault`]
//! keeps the coolest-first order. Both rank a NaN reading hottest.
//!
//! Competitive duplication closes the loop: with
//! `CompetitiveDuplicate { cancel_losers: true, .. }` the first replica
//! to finish wins and the losers are **preempted in the same window**
//! the winner commits (`SprintSession::cancel_workload` →
//! `Machine::cancel_all`), returning their nodes to the idle pool
//! instead of burning the duplicate to completion. Cancelled copies are
//! reported in [`cluster::ClusterReport::cancelled_copies`], and the
//! event core stays digest-identical to the lockstep oracle under
//! duplication *and* cancellation.
//!
//! # Quick start
//!
//! ```
//! use sprint_cluster::prelude::*;
//! use sprint_thermal::grid::GridThermalParams;
//! use sprint_workloads::suite::{InputSize, WorkloadKind};
//!
//! // A 2x2 rack (compressed 3000x so the doc-test is instant) under
//! // greedy-headroom admission, fed four sobel bursts.
//! let mut cluster = ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
//!     .policy(ClusterPolicy::greedy_default())
//!     .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 8, 4))
//!     .build();
//! assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
//! let report = cluster.report();
//! assert_eq!(report.completed, 4);
//! assert!(report.makespan_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod event;
pub mod policy;
pub mod queue;
pub mod rack;
pub mod supply;

pub use cluster::{
    check_fault_plan, check_tasks, nearest_rank, ClusterBuildError, ClusterBuilder, ClusterEvent,
    ClusterOutcome, ClusterReport, ClusterSession, NodeSpec, Placement, RackSpec,
};
pub use event::EventDrivenCluster;
pub use policy::{ClusterPolicy, PowerPolicy};
pub use queue::{ClusterTask, TaskOutcome};
pub use rack::{NodeThermalView, RackThermal};
pub use supply::{NodeSupplyView, RackSupply, RackSupplyParams};

/// Commonly-used items in one import.
pub mod prelude {
    pub use crate::cluster::{
        ClusterBuildError, ClusterBuilder, ClusterEvent, ClusterOutcome, ClusterReport,
        ClusterSession, NodeSpec, Placement, RackSpec,
    };
    pub use crate::event::EventDrivenCluster;
    pub use crate::policy::{ClusterPolicy, PowerPolicy};
    pub use crate::queue::{ClusterTask, TaskOutcome};
    pub use crate::rack::{NodeThermalView, RackThermal};
    pub use crate::supply::{NodeSupplyView, RackSupply, RackSupplyParams};
}
