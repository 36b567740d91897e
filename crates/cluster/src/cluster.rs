//! The lockstep cluster stepper: many node sessions, one rack, one
//! admission scheduler.
//!
//! [`ClusterSession`] drives one [`SprintSession`] per server node
//! against a shared [`RackThermal`] grid, in lockstep sampling windows.
//! Each window the scheduler:
//!
//! 1. moves newly-arrived tasks into the ready queue;
//! 2. assigns ready tasks to idle nodes, asking the [`ClusterPolicy`]
//!    whether each task may *sprint* (the node's session is re-armed
//!    under the sprint or the sustained configuration accordingly, via
//!    `SprintSession::set_config` + `begin_burst`);
//! 3. runs the shed passes: if the rack-global *thermal* headroom has
//!    shrunk below the policy's allowance for the current sprinting
//!    population, nodes are preempted (`SprintSession::preempt_sprint`)
//!    in the policy's shed *order* — hottest-first, rotation order, … —
//!    the cluster generalization of `HotspotPolicy::ShedCores`'s count
//!    ramp; then, under power rationing, the *power emergency* pass
//!    preempts the biggest drawers while the bus is overdrawn with a
//!    depleted reserve;
//! 4. steps every busy node by one window and rests every idle node
//!    (idle nodes cool, recharge their supply through the session's
//!    rest path, and keep the lockstep clock), in node-index order, so
//!    the whole simulation is deterministic.
//!
//! Admission is *jointly* thermal- and power-aware: with a shared
//! [`RackSupply`] pool and a rationing [`PowerPolicy`], a sprint must
//! clear the thermal gate **and** fit the rack feed, and a task denied
//! on either axis defers under the same sprint-or-defer machinery.
//!
//! A one-node cluster under [`ClusterPolicy::AllSprint`] performs
//! exactly the calls a standalone session makes, in the same order, so
//! it reproduces the standalone run byte-for-byte — the equivalence
//! test in `tests/cluster_api.rs` pins this.

use std::collections::VecDeque;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use sprint_archsim::config::MachineConfig;
use sprint_archsim::machine::Machine;
use sprint_core::config::{ExecutionMode, SprintConfig, SupplyPolicy};
use sprint_core::controller::{ControllerEvent, SprintState};
use sprint_core::fault::{
    FaultEvent, FaultKind, FaultPlan, FaultResponse, FaultSensor, FaultState, FaultSupply,
    SensorFault, SupplyFault,
};
use sprint_core::session::{RunReport, SprintSession, StepOutcome};
use sprint_core::supply::{IdealSupply, PowerSupply};
use sprint_core::thermal_model::ThermalModel;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::suite_loader;

use crate::policy::{rank_nodes, ClusterPolicy, PowerPolicy};
use crate::queue::{ClusterTask, TaskOutcome};
use crate::rack::{NodeThermalView, RackThermal};
use crate::supply::{RackSupply, RackSupplyParams};

/// What one [`ClusterSession::step`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterOutcome {
    /// A window ran; tasks remain in flight or in the queue.
    Running,
    /// Every task has completed; further steps are no-ops.
    Drained,
    /// The cluster time limit elapsed with tasks outstanding.
    TimeLimit,
}

impl ClusterOutcome {
    /// True once stepping can make no further progress.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, ClusterOutcome::Running)
    }
}

/// Scheduler decisions, recorded for traces and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusterEvent {
    /// A task started on a node with sprint admission.
    SprintAdmitted {
        /// Node index.
        node: usize,
        /// Task index.
        task: usize,
        /// Decision time, seconds.
        at_s: f64,
    },
    /// A task started on a node in sustained mode (admission denied).
    SprintDenied {
        /// Node index.
        node: usize,
        /// Task index.
        task: usize,
        /// Decision time, seconds.
        at_s: f64,
    },
    /// The shed pass preempted a sprinting node.
    NodeShed {
        /// Node index.
        node: usize,
        /// Decision time, seconds.
        at_s: f64,
        /// Rack-global headroom at the decision, Kelvin.
        rack_headroom_k: f64,
    },
    /// The power-emergency shed pass preempted a sprinting node: the
    /// bus was overdrawn with the reserve below the policy's floor.
    PowerShed {
        /// Node index.
        node: usize,
        /// Decision time, seconds.
        at_s: f64,
        /// Reserve fill fraction at the decision.
        reserve_fraction: f64,
    },
}

/// Per-node provisioning for a heterogeneous fleet: the node's machine
/// configuration plus its commissioning-time weights in the rack's two
/// shared pools.
///
/// The weights keep Porto et al.'s nameplate-vs-telemetry split intact
/// under heterogeneity: they are *commissioning-time* figures fixed
/// when the rack is racked, not live telemetry —
///
/// * `share_weight` scales the node's nameplate share of the rack feed
///   (a weight-2 node is promised twice the even `cap / nodes` cut,
///   and the total always re-normalizes to the cap);
/// * `thermal_weight` scales the node's floorplan rectangle *area*
///   about its center, which is exactly what sizes its nameplate
///   thermal sprint budget (`RackThermal` derives each node's budget
///   from its own rect).
///
/// A fleet of [`NodeSpec::standard`] specs — every weight 1.0, one
/// shared machine config — is **byte-for-byte identical** to the
/// legacy clone-one-config path; the property tests pin this on the
/// cluster and facility digests.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The node's machine configuration (core count, clocks, caches,
    /// energy model) — big and little servers differ here.
    pub machine: MachineConfig,
    /// Relative nameplate share of the rack feed (1.0 = the even
    /// `cap / nodes` cut). Must be finite and positive.
    pub share_weight: f64,
    /// Relative thermal-footprint area scale of the node's floorplan
    /// rectangle (1.0 = the rack preset's rect). Must be finite and
    /// positive.
    pub thermal_weight: f64,
}

impl NodeSpec {
    /// A standard node: the given machine at even weights — the spec
    /// that reproduces the clone path exactly.
    pub fn standard(machine: MachineConfig) -> Self {
        Self {
            machine,
            share_weight: 1.0,
            thermal_weight: 1.0,
        }
    }

    /// Sets the nameplate share weight.
    pub fn with_share_weight(mut self, weight: f64) -> Self {
        self.share_weight = weight;
        self
    }

    /// Sets the thermal-footprint weight.
    pub fn with_thermal_weight(mut self, weight: f64) -> Self {
        self.thermal_weight = weight;
        self
    }
}

/// How ready tasks are placed onto idle nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// The policy's own ordering: coolest-node-first for headroom-aware
    /// policies (a NaN reading ranks hottest, so its node goes last),
    /// node-index order otherwise.
    PolicyDefault,
    /// Cost-aware placement for heterogeneous fleets: idle nodes are
    /// ranked by (task affinity, joint headroom cost, index). A node
    /// too narrow for the task's `min_cores` class sorts behind every
    /// wide-enough node; among equals the task books where the joint
    /// thermal + electrical headroom is cheapest — thermal cost is the
    /// node's fraction of its own temperature range consumed,
    /// electrical cost its live draw over its nameplate share. Fully
    /// deterministic: ties break toward the lower node index, and a NaN
    /// cost ranks behind every number.
    CheapestHeadroom,
}

/// Whether a node can take work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// Serving.
    Up,
    /// Crashed while idle; `NodeRecover` brings it back up.
    Down,
    /// Crashed mid-task: its stranded threads retire it for the rest of
    /// the run, whatever the plan says later.
    Quarantined,
}

/// One server node's scheduling state.
pub(crate) struct Node {
    pub(crate) session: SprintSession<FaultSensor<NodeThermalView>, Box<dyn PowerSupply>>,
    /// Task currently running, if any.
    pub(crate) task: Option<usize>,
    /// When the current task started, seconds.
    pub(crate) assigned_s: f64,
    /// Whether the current task was admitted to sprint (sticky for the
    /// task's outcome even if the shed pass later preempts the node).
    pub(crate) sprinted: bool,
    health: Health,
}

impl Node {
    /// Whether the node holds a sprint slot: it runs a task and is
    /// ramping or sprinting (the slot is taken the moment the burst
    /// starts).
    fn is_sprinting(&self) -> bool {
        let state = self.session.state();
        self.task.is_some() && matches!(state, SprintState::Ramping | SprintState::Sprinting)
    }
}

/// Where a submitted task stands on this rack. The three end states
/// are mutually exclusive and final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskStatus {
    /// Not yet arrived, queued, waiting out a retry backoff, or
    /// running.
    Open,
    /// Completed by its first finishing copy.
    Done,
    /// Exhausted its crash-retry budget.
    Failed,
    /// Handed off to a facility requeue router — resolved elsewhere,
    /// terminal for this rack.
    Migrated,
}

/// Summary of a cluster run. Callable mid-run; an unfinished run simply
/// reports the completions so far.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Completion time of the last finished task, seconds (0 if none).
    pub makespan_s: f64,
    /// Tasks completed.
    pub completed: usize,
    /// Tasks submitted.
    pub total_tasks: usize,
    /// Mean task latency (arrival to completion), seconds (NaN if no
    /// task completed).
    pub mean_latency_s: f64,
    /// 95th-percentile task latency (nearest rank), seconds (NaN if no
    /// task completed) — the tail open-arrival studies ration for.
    pub p95_latency_s: f64,
    /// 99th-percentile task latency (nearest rank, NaN if no task
    /// completed) — the facility studies' headline tail: under bursty
    /// open arrivals the p99 is where a starved rack shows first.
    pub p99_latency_s: f64,
    /// Worst task latency, seconds (NaN if no task completed, like
    /// every other latency statistic — an empty run has no latencies,
    /// not zero-latency tasks).
    pub max_latency_s: f64,
    /// Hottest rack cell observed over the run, Celsius.
    pub peak_junction_c: f64,
    /// Tasks at least one of whose copies started with sprint
    /// admission (each task counts once, however many copies ran; the
    /// per-copy decisions are in the event log).
    pub admitted_sprints: usize,
    /// Tasks started none of whose copies was admitted (sustained).
    pub denied_sprints: usize,
    /// Thermal shed-pass preemptions.
    pub sheds: usize,
    /// Power-emergency shed-pass preemptions.
    pub power_sheds: usize,
    /// Sprints ended by the electrical supply (`SupplyLimited`
    /// controller events across all nodes) — brownout casualties the
    /// power-aware scheduler exists to prevent.
    pub supply_aborts: usize,
    /// Fault-plan events applied so far, all kinds (zero on a
    /// fault-free run — the perf gate pins that).
    pub fault_events: usize,
    /// Sensor fault onsets applied (stuck-at, bias, dropout).
    pub sensor_faults: usize,
    /// Supply fault onsets applied (collapse, brownout, death).
    pub supply_faults: usize,
    /// Node crashes applied (a crash of an already-down node is a
    /// no-op and does not count).
    pub node_crashes: usize,
    /// Sprints preempted by the sensor-fault failsafe: under
    /// [`FaultResponse::Aware`] a node whose telemetry goes bad
    /// mid-sprint is treated as already at the limit and throttled.
    pub failsafe_preemptions: usize,
    /// Tasks re-enqueued after a crash took their last running copy.
    pub requeues: usize,
    /// Losing competitive-duplicate replicas preempted through the
    /// machine-level cancel API the window their task's winner
    /// committed (zero under `cancel_losers: false`, where losers run
    /// to completion and are discarded).
    pub cancelled_copies: usize,
    /// Crash-retry tasks handed off to a facility tier for cross-rack
    /// re-placement ([`ClusterSession::drain_stranded_requeues`]) —
    /// resolved elsewhere, no longer this rack's to account. Zero
    /// unless a facility routes requeues.
    pub migrated_tasks: usize,
    /// Tasks that exhausted their crash-retry budget.
    pub failed_tasks: usize,
    /// Nodes quarantined after crashing mid-task (their stranded
    /// threads make the node untrustworthy for the rest of the run).
    pub quarantined_nodes: usize,
    /// Tasks neither completed nor failed: queued, in flight, waiting
    /// out a retry backoff, or not yet arrived. Nonzero only mid-run
    /// or at the time limit.
    pub outstanding_tasks: usize,
    /// Per-task outcomes, in completion order.
    pub outcomes: Vec<TaskOutcome>,
    /// Per-node coupled reports.
    pub node_reports: Vec<RunReport>,
}

impl ClusterReport {
    /// FNV-1a fingerprint of the report: every scalar field, every task
    /// outcome, and every node report's scalars, all at exact `f64`
    /// bits. Two reports agree on this digest exactly when they are
    /// byte-identical in every figure a study could quote — the
    /// facility determinism tests pin it across worker-thread counts,
    /// and the event-driven core's golden-equivalence tests pin it
    /// against the lockstep oracle.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            hash ^= bits;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        };
        for bits in [
            self.makespan_s.to_bits(),
            self.completed as u64,
            self.total_tasks as u64,
            self.mean_latency_s.to_bits(),
            self.p95_latency_s.to_bits(),
            self.p99_latency_s.to_bits(),
            self.max_latency_s.to_bits(),
            self.peak_junction_c.to_bits(),
            self.admitted_sprints as u64,
            self.denied_sprints as u64,
            self.sheds as u64,
            self.power_sheds as u64,
            self.supply_aborts as u64,
            self.fault_events as u64,
            self.sensor_faults as u64,
            self.supply_faults as u64,
            self.node_crashes as u64,
            self.failsafe_preemptions as u64,
            self.requeues as u64,
            self.cancelled_copies as u64,
            self.migrated_tasks as u64,
            self.failed_tasks as u64,
            self.quarantined_nodes as u64,
            self.outstanding_tasks as u64,
        ] {
            eat(bits);
        }
        for o in &self.outcomes {
            for bits in [
                o.task as u64,
                o.node as u64,
                o.arrival_s.to_bits(),
                o.assigned_s.to_bits(),
                o.completed_s.to_bits(),
                o.sprinted as u64,
                o.copies as u64,
            ] {
                eat(bits);
            }
        }
        for node in &self.node_reports {
            for bits in [
                node.completion_s.to_bits(),
                node.energy_j.to_bits(),
                node.instructions,
                node.max_junction_c.to_bits(),
                node.sprint_end_s.map_or(u64::MAX, f64::to_bits),
                node.finished as u64,
                node.events.len() as u64,
            ] {
                eat(bits);
            }
        }
        hash
    }

    /// The task-conservation invariant: every submitted task is
    /// accounted for — completed, failed after exhausting its crash
    /// retries, migrated to another rack by a facility requeue router,
    /// or still outstanding — never lost. Holds at every window of
    /// every run, faulted or not; once a run drains,
    /// `outstanding_tasks` is zero and arrivals = finished + failed +
    /// migrated exactly.
    pub fn task_conservation_holds(&self) -> bool {
        self.completed + self.failed_tasks + self.migrated_tasks + self.outstanding_tasks
            == self.total_tasks
    }
}

/// Nearest-rank percentile of ascending `sorted` values (`q` in
/// `(0, 1]`; NaN when empty): the p95 and p99 latencies of the rack
/// and facility reports.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A [`RackSpec`] provisioning error: the requested cluster is
/// contradictory or unsatisfiable (a sprint draw no feed can carry, an
/// admission threshold no cold node can meet, a fault plan naming
/// nodes the rack does not have, …). [`RackSpec::try_build`]
/// returns these as values; [`RackSpec::build`] panics with the
/// same `Display` message, so existing panic-message expectations keep
/// holding either way.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterBuildError {
    /// `max_time_s` was zero, negative, NaN or infinite.
    NonPositiveTimeLimit,
    /// A shared rack supply under `SupplyPolicy::Ignore` would never
    /// see a watt of telemetry.
    InertRackSupply,
    /// Power rationing was requested without a shared rack supply.
    RationingWithoutPool,
    /// The provisioned sprint draw exceeds the rack feed cap.
    UnsatisfiableSprintDraw {
        /// Provisioned per-sprint draw, watts.
        sprint_draw_w: f64,
        /// Rack feed cap, watts.
        cap_w: f64,
    },
    /// The admission headroom threshold exceeds a cold node's headroom.
    UnsatisfiableAdmission {
        /// Required admission headroom, Kelvin.
        admit_headroom_k: f64,
        /// A cold node's headroom (`t_max - ambient`), Kelvin.
        max_headroom_k: f64,
    },
    /// A task arrival was negative, NaN or infinite.
    BadTaskArrival,
    /// A task demanded zero threads.
    ZeroThreadTask,
    /// The fault plan names a node the rack does not have.
    FaultNodeOutOfRange {
        /// Offending node index.
        node: u32,
        /// Nodes in the rack.
        nodes: usize,
    },
    /// The fault plan's retry backoff is zero windows.
    ZeroFaultBackoff,
    /// The fault plan's events are not sorted by `(window, node)`.
    UnsortedFaultPlan,
    /// A supply collapse scale is not finite and above 1.
    BadCollapseScale {
        /// The offending scale.
        scale: f64,
    },
    /// The per-node spec list does not match the rack's node count.
    NodeSpecCountMismatch {
        /// Specs supplied.
        specs: usize,
        /// Nodes in the rack.
        nodes: usize,
    },
    /// A node spec's share or thermal weight is non-finite or
    /// non-positive.
    BadNodeSpecWeight,
}

impl std::fmt::Display for ClusterBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositiveTimeLimit => {
                f.write_str("cluster time limit must be positive and finite")
            }
            Self::InertRackSupply => f.write_str(
                "a shared rack supply requires SupplyPolicy::EndSprint: \
                 under SupplyPolicy::Ignore sessions never report draws, \
                 so the pool's telemetry, reserve and brownout model are \
                 all inert",
            ),
            Self::RationingWithoutPool => {
                f.write_str("power rationing needs a shared rack supply to read telemetry from")
            }
            Self::UnsatisfiableSprintDraw {
                sprint_draw_w,
                cap_w,
            } => write!(
                f,
                "provisioned sprint draw {sprint_draw_w} W is unsatisfiable: \
                 the rack feed caps at {cap_w} W"
            ),
            Self::UnsatisfiableAdmission {
                admit_headroom_k,
                max_headroom_k,
            } => write!(
                f,
                "admission threshold {admit_headroom_k} K is unsatisfiable: a cold node's \
                 headroom tops out at t_max - ambient = {max_headroom_k} K"
            ),
            Self::BadTaskArrival => f.write_str("task arrivals must be finite and non-negative"),
            Self::ZeroThreadTask => f.write_str("a task needs at least one thread"),
            Self::FaultNodeOutOfRange { node, nodes } => write!(
                f,
                "fault plan targets node {node} but the cluster has {nodes}"
            ),
            Self::ZeroFaultBackoff => f.write_str("retry backoff must be at least one window"),
            Self::UnsortedFaultPlan => f.write_str("fault plan must be sorted by (window, node)"),
            Self::BadCollapseScale { scale } => write!(
                f,
                "a supply collapse must scale draws above unity, got {scale}"
            ),
            Self::NodeSpecCountMismatch { specs, nodes } => write!(
                f,
                "node spec list has {specs} entries but the rack has {nodes} nodes"
            ),
            Self::BadNodeSpecWeight => f.write_str("node spec weights must be finite and positive"),
        }
    }
}

impl std::error::Error for ClusterBuildError {}

/// The fault-plan checks [`RackSpec::try_build`] runs, in its
/// order: a positive retry backoff, events sorted by `(window, node)`,
/// every event on one of the rack's `nodes` nodes, and every supply
/// collapse scale finite and above 1. Public so a tier that composes
/// racks can vet every rack's plan before building any.
pub fn check_fault_plan(plan: &FaultPlan, nodes: usize) -> Result<(), ClusterBuildError> {
    if plan.backoff_windows == 0 {
        return Err(ClusterBuildError::ZeroFaultBackoff);
    }
    if !plan
        .events
        .windows(2)
        .all(|p| (p[0].window, p[0].node) <= (p[1].window, p[1].node))
    {
        return Err(ClusterBuildError::UnsortedFaultPlan);
    }
    if let Some(ev) = plan.events.iter().find(|e| e.node as usize >= nodes) {
        return Err(ClusterBuildError::FaultNodeOutOfRange {
            node: ev.node,
            nodes,
        });
    }
    for ev in &plan.events {
        if let FaultKind::SupplyCollapse(scale) = ev.kind {
            if !(scale.is_finite() && scale > 1.0) {
                return Err(ClusterBuildError::BadCollapseScale { scale });
            }
        }
    }
    Ok(())
}

/// The task checks [`RackSpec::try_build`] runs, in its order:
/// every arrival finite and non-negative, every task at least one
/// thread. Public so a tier that composes racks can vet every rack's
/// queue before building any.
pub fn check_tasks(tasks: &[ClusterTask]) -> Result<(), ClusterBuildError> {
    for t in tasks {
        if !(t.arrival_s.is_finite() && t.arrival_s >= 0.0) {
            return Err(ClusterBuildError::BadTaskArrival);
        }
        if t.threads < 1 {
            return Err(ClusterBuildError::ZeroThreadTask);
        }
    }
    Ok(())
}

/// A rack, described once as plain data: its thermal grid, its nodes,
/// its scheduler policies, its power pool, its task queue and its fault
/// plan. The same description is the cluster builder (the setters chain
/// from [`RackSpec::new`], and [`ClusterBuilder`] is its other name),
/// the facility's per-rack recipe that a worker thread builds its
/// non-`Send` [`ClusterSession`] from, and the template a
/// `FacilityBuilder` stamps every rack from. [`build`](Self::build)
/// borrows, so one description builds any number of identical
/// sessions.
#[derive(Debug, Clone)]
pub struct RackSpec {
    /// The rack's thermal grid parameters (one node per floorplan core).
    pub thermal: GridThermalParams,
    /// Every node's machine configuration, unless
    /// [`node_specs`](Self::node_specs) is set.
    pub machine: MachineConfig,
    /// One [`NodeSpec`] per node, in node-index order, for a
    /// heterogeneous rack. `None` puts [`machine`](Self::machine) on
    /// every node at unit weights.
    pub node_specs: Option<Vec<NodeSpec>>,
    /// How ready tasks are placed onto idle nodes.
    pub placement: Placement,
    /// Sprint configuration admitted tasks run under (denied tasks run
    /// it with `ExecutionMode::Sustained`).
    pub config: SprintConfig,
    /// The rack's thermal admission policy.
    pub policy: ClusterPolicy,
    /// The rack's power admission policy.
    pub power: PowerPolicy,
    /// The shared rack power-delivery pool, if the rack runs on one.
    /// Its commissioned `cap_w` is the rack's PDU nameplate: the ceiling
    /// no facility settlement will raise a live cap above.
    pub supply: Option<RackSupplyParams>,
    /// The rack's arrival queue.
    pub tasks: Vec<ClusterTask>,
    /// The window-stamped fault plan injected into the rack, if any.
    pub fault: Option<FaultPlan>,
    /// Per-node retained trace samples (0 disables tracing).
    pub trace_capacity: usize,
    /// Hard wall on the rack's simulated time, seconds.
    pub max_time_s: f64,
}

/// [`RackSpec`]'s name as a builder: `ClusterBuilder::new(..)` chains
/// setters and ends in `build()`.
pub type ClusterBuilder = RackSpec;

impl RackSpec {
    /// Starts from a rack parameter set (typically
    /// `GridThermalParams::rack(cols, rows)`, time-scaled to taste);
    /// one node per floorplan core. Defaults: the paper's 16-core
    /// machine per node, `SprintConfig::hpca_parallel` for admitted
    /// sprints, greedy-headroom and power-oblivious admission, no pool,
    /// no tasks, no fault plan, 2048 trace samples per node and a 10 s
    /// time limit.
    pub fn new(thermal: GridThermalParams) -> Self {
        Self {
            thermal,
            machine: MachineConfig::hpca(),
            node_specs: None,
            placement: Placement::PolicyDefault,
            config: SprintConfig::hpca_parallel(),
            policy: ClusterPolicy::greedy_default(),
            power: PowerPolicy::Oblivious,
            supply: None,
            tasks: Vec::new(),
            fault: None,
            trace_capacity: 2048,
            max_time_s: 10.0,
        }
    }

    /// Sets the per-node machine configuration (every node identical —
    /// the homogeneous-fleet shorthand; [`Self::node_specs`] overrides
    /// it per node).
    pub fn machine(mut self, config: MachineConfig) -> Self {
        self.machine = config;
        self
    }

    /// Provisions the fleet heterogeneously: one [`NodeSpec`] per rack
    /// node, in node-index order — each node gets its own machine
    /// config, nameplate share weight and thermal-footprint weight.
    /// Overrides [`Self::machine`]. A list of [`NodeSpec::standard`]
    /// specs reproduces the homogeneous path byte-for-byte.
    pub fn node_specs(mut self, specs: impl IntoIterator<Item = NodeSpec>) -> Self {
        self.node_specs = Some(specs.into_iter().collect());
        self
    }

    /// Sets the placement strategy (default
    /// [`Placement::PolicyDefault`], the pre-refactor ordering).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the sprint configuration admitted tasks run under (denied
    /// tasks run the same configuration with `ExecutionMode::Sustained`).
    pub fn config(mut self, config: SprintConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the admission policy.
    pub fn policy(mut self, policy: ClusterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the power-admission policy (default
    /// [`PowerPolicy::Oblivious`]). Rationing requires a shared rack
    /// supply ([`Self::rack_supply`]) to read telemetry from.
    pub fn power_policy(mut self, power: PowerPolicy) -> Self {
        self.power = power;
        self
    }

    /// Puts every node on a shared rack power-delivery pool: each node
    /// receives a [`Regulator`](sprint_core::supply::Regulator) over
    /// its [`NodeSupplyView`](crate::supply::NodeSupplyView), carrying
    /// `params`' loss curve. Without a pool every node draws from an
    /// ideal supply.
    pub fn rack_supply(mut self, params: RackSupplyParams) -> Self {
        self.supply = Some(params);
        self
    }

    /// Installs a window-stamped fault plan (see [`FaultPlan`]):
    /// sensor faults, supply faults and node crashes fire at their
    /// stamped windows and the scheduler degrades instead of
    /// corrupting. Every node's thermal and supply ports are wrapped
    /// in the fault ports whether or not a plan is installed — the
    /// healthy wrappers are bit-identical passthroughs, so a cluster
    /// without a plan reproduces its pre-fault digests exactly.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Appends tasks to the arrival queue.
    pub fn tasks(mut self, tasks: impl IntoIterator<Item = ClusterTask>) -> Self {
        self.tasks.extend(tasks);
        self
    }

    /// Limits each node's retained trace (0 disables tracing).
    pub fn trace_capacity(mut self, samples: usize) -> Self {
        self.trace_capacity = samples;
        self
    }

    /// Hard wall on cluster simulated time, seconds.
    pub fn max_time_s(mut self, limit_s: f64) -> Self {
        self.max_time_s = limit_s;
        self
    }

    /// The time limit in sampling windows, rounded up: the wall a built
    /// session stops at, and the horizon a facility draws each rack's
    /// seeded fault plan over.
    ///
    /// # Errors
    ///
    /// [`ClusterBuildError::NonPositiveTimeLimit`] unless `max_time_s`
    /// is positive and finite: an infinite limit is no wall at all, and
    /// a seeded plan over it never ends.
    pub fn max_windows(&self) -> Result<u64, ClusterBuildError> {
        if !(self.max_time_s.is_finite() && self.max_time_s > 0.0) {
            return Err(ClusterBuildError::NonPositiveTimeLimit);
        }
        Ok((self.max_time_s / self.window_s()).ceil() as u64)
    }

    /// The sampling window, seconds.
    fn window_s(&self) -> f64 {
        self.config.sample_window_ps as f64 * 1e-12
    }

    /// Builds the cluster: the shared rack grid, one sustained-armed
    /// session per node, and the arrival order.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration/policy (their own
    /// `validate`), and on any provisioning edge [`Self::try_build`]
    /// rejects — with that [`ClusterBuildError`]'s `Display` message.
    pub fn build(&self) -> ClusterSession {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build`], returning unsatisfiable provisioning edges as
    /// typed [`ClusterBuildError`] values instead of panicking.
    /// Config, policy and supply-parameter invariants still panic via
    /// their own `validate` — those are malformed *inputs*, not
    /// unsatisfiable *combinations*.
    pub fn try_build(&self) -> Result<ClusterSession, ClusterBuildError> {
        self.config.validate();
        self.policy.validate();
        self.power.validate();
        let max_windows = self.max_windows()?;
        // `SupplyPolicy::Ignore` makes sessions skip `supply.draw`
        // entirely, so a shared pool would never see a watt of
        // telemetry: no reserve drain, no brownouts, no power
        // admission signal. A study that configures a rack feed but
        // silently disconnects it reports vacuous zero-abort results —
        // reject the contradiction up front.
        if self.supply.is_some() && self.config.supply_policy != SupplyPolicy::EndSprint {
            return Err(ClusterBuildError::InertRackSupply);
        }
        if let PowerPolicy::Rationed { sprint_draw_w, .. } = self.power {
            let Some(params) = self.supply else {
                return Err(ClusterBuildError::RationingWithoutPool);
            };
            // A provisioned sprint draw the empty feed cannot carry
            // would livelock a deferring queue, exactly like an
            // unsatisfiable thermal admission threshold.
            if sprint_draw_w > params.cap_w {
                return Err(ClusterBuildError::UnsatisfiableSprintDraw {
                    sprint_draw_w,
                    cap_w: params.cap_w,
                });
            }
        }
        // An admission threshold no cold node can meet would livelock
        // a deferring queue (head-of-line tasks wait forever for
        // headroom the rack cannot physically offer).
        if let Some(admit) = self.policy.admit_headroom_k() {
            let max_headroom = self.thermal.t_max_c - self.thermal.ambient_c;
            if admit >= max_headroom {
                return Err(ClusterBuildError::UnsatisfiableAdmission {
                    admit_headroom_k: admit,
                    max_headroom_k: max_headroom,
                });
            }
        }
        check_tasks(&self.tasks)?;
        let nodes_n = self.thermal.floorplan.core_count();
        if let Some(plan) = &self.fault {
            check_fault_plan(plan, nodes_n)?;
        }
        if let Some(specs) = &self.node_specs {
            if specs.len() != nodes_n {
                return Err(ClusterBuildError::NodeSpecCountMismatch {
                    specs: specs.len(),
                    nodes: nodes_n,
                });
            }
        }
        // Every node goes through one path: its own spec, or the
        // `machine` shorthand at unit weights. A unit weight changes
        // nothing on either pool, so a homogeneous spec list and the
        // shorthand build the identical rack.
        let standard = NodeSpec::standard(self.machine.clone());
        let spec = |n: usize| self.node_specs.as_ref().map_or(&standard, |s| &s[n]);
        if !(0..nodes_n).map(spec).all(|s| {
            s.share_weight.is_finite()
                && s.share_weight > 0.0
                && s.thermal_weight.is_finite()
                && s.thermal_weight > 0.0
        }) {
            return Err(ClusterBuildError::BadNodeSpecWeight);
        }
        // Heterogeneous thermal footprints: scale each node's rack-plane
        // rectangle by its weight before the grid is built —
        // `RackThermal` derives every node's nameplate sprint budget
        // from its own rect, so the budget follows the footprint. A
        // weight of exactly 1.0 returns at once from `scale_core`.
        let mut thermal = self.thermal.clone();
        for n in 0..nodes_n {
            thermal.floorplan.scale_core(n, spec(n).thermal_weight);
        }
        let rack = RackThermal::new(thermal.build());
        // Weighted nameplate cuts: the unit-weight cut is bitwise
        // `cap / nodes`.
        let supply_pool = self.supply.map(|p| {
            let weights: Vec<f64> = (0..nodes_n).map(|n| spec(n).share_weight).collect();
            RackSupply::new_weighted(p, &weights)
        });
        let mut sustained = self.config.clone();
        sustained.mode = ExecutionMode::Sustained;
        let nodes = (0..nodes_n)
            .map(|n| {
                // Both ports wear the fault wrappers unconditionally:
                // a healthy wrapper is a bit-identical passthrough, so
                // plan-free clusters keep their pre-fault digests.
                let fault = Rc::new(FaultState::default());
                let supply: Box<dyn PowerSupply> = match (self.supply, &supply_pool) {
                    (Some(params), Some(pool)) => Box::new(FaultSupply::new(
                        params.node_supply(pool, n),
                        Rc::clone(&fault),
                    )),
                    _ => Box::new(FaultSupply::new(IdealSupply, Rc::clone(&fault))),
                };
                Node {
                    session: SprintSession::new(
                        Machine::new(spec(n).machine.clone()),
                        FaultSensor::new(rack.node_view(n), fault),
                        supply,
                        sustained.clone(),
                        self.trace_capacity,
                    ),
                    task: None,
                    assigned_s: 0.0,
                    sprinted: false,
                    health: Health::Up,
                }
            })
            .collect();
        let mut arrival_order: Vec<usize> = (0..self.tasks.len()).collect();
        arrival_order.sort_by(|&a, &b| {
            self.tasks[a]
                .arrival_s
                .partial_cmp(&self.tasks[b].arrival_s)
                .expect("check_tasks admits finite arrivals only")
                .then(a.cmp(&b))
        });
        let task_count = self.tasks.len();
        Ok(ClusterSession {
            rack,
            supply: supply_pool,
            power: self.power,
            nodes,
            tasks: self.tasks.clone(),
            arrival_order,
            next_arrival: 0,
            ready: VecDeque::new(),
            policy: self.policy.clone(),
            placement: self.placement,
            sprint_config: self.config.clone(),
            sustained_config: sustained,
            window_s: self.window_s(),
            windows: 0,
            max_windows,
            outcomes: Vec::new(),
            task_status: vec![TaskStatus::Open; task_count],
            task_copies: vec![0; task_count],
            task_sprinted: vec![false; task_count],
            task_retries: vec![0; task_count],
            events: Vec::new(),
            grant_order: Vec::new(),
            peak_junction_c: f64::NEG_INFINITY,
            fault_plan: self.fault.clone(),
            next_fault: 0,
            requeue: Vec::new(),
            next_requeue: 0,
            requeue_seq: 0,
            duplicates_cancelled: 0,
            fault_events_applied: 0,
            sensor_fault_count: 0,
            supply_fault_count: 0,
            node_crash_count: 0,
            failsafe_preemptions: 0,
            requeue_count: 0,
            migrated_count: 0,
            failed_count: 0,
        })
    }
}

/// Many sprint sessions, one shared rack, one admission scheduler. See
/// the module docs for the per-window protocol.
pub struct ClusterSession {
    rack: RackThermal,
    /// The shared electrical pool, when the cluster runs on one.
    supply: Option<RackSupply>,
    power: PowerPolicy,
    pub(crate) nodes: Vec<Node>,
    tasks: Vec<ClusterTask>,
    /// Task indices sorted by (arrival, index).
    arrival_order: Vec<usize>,
    next_arrival: usize,
    pub(crate) ready: VecDeque<usize>,
    policy: ClusterPolicy,
    placement: Placement,
    sprint_config: SprintConfig,
    sustained_config: SprintConfig,
    pub(crate) window_s: f64,
    pub(crate) windows: u64,
    pub(crate) max_windows: u64,
    outcomes: Vec<TaskOutcome>,
    task_status: Vec<TaskStatus>,
    task_copies: Vec<usize>,
    /// Whether any copy of the task was admitted to sprint.
    task_sprinted: Vec<bool>,
    /// Crash-retry attempts consumed per task.
    task_retries: Vec<u32>,
    events: Vec<ClusterEvent>,
    /// Sprint grants, oldest admission first (round-robin shed order):
    /// every sprinting node holds one, and the scheduler passes open by
    /// sweeping the grants whose sprints ended.
    pub(crate) grant_order: Vec<usize>,
    peak_junction_c: f64,
    /// The installed fault plan, if any (window-stamped, sorted).
    fault_plan: Option<FaultPlan>,
    /// Cursor into the plan's event list.
    next_fault: usize,
    /// Crash-retry queue: `(due window, insertion seq, task)`, sorted;
    /// `next_requeue` is the drain cursor (mirroring `next_arrival`).
    requeue: Vec<(u64, u64, usize)>,
    next_requeue: usize,
    requeue_seq: u64,
    /// Losing replicas preempted through the machine-level cancel API
    /// the window their task's winner committed.
    duplicates_cancelled: usize,
    fault_events_applied: usize,
    sensor_fault_count: usize,
    supply_fault_count: usize,
    node_crash_count: usize,
    failsafe_preemptions: usize,
    requeue_count: usize,
    migrated_count: usize,
    failed_count: usize,
}

impl std::fmt::Debug for ClusterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSession")
            .field("nodes", &self.nodes.len())
            .field("policy", &self.policy)
            .field("windows", &self.windows)
            .field("completed", &self.outcomes.len())
            .field("total_tasks", &self.tasks.len())
            .finish_non_exhaustive()
    }
}

impl ClusterSession {
    /// Cluster simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.windows as f64 * self.window_s
    }

    /// Sampling windows stepped so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The shared rack.
    pub fn rack(&self) -> &RackThermal {
        &self.rack
    }

    /// The shared electrical pool, when the cluster runs on one.
    pub fn supply(&self) -> Option<&RackSupply> {
        self.supply.as_ref()
    }

    /// The power-admission policy.
    pub fn power_policy(&self) -> PowerPolicy {
        self.power
    }

    /// Scheduler events so far.
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Task outcomes so far, in completion order.
    pub fn outcomes(&self) -> &[TaskOutcome] {
        &self.outcomes
    }

    /// One node's coupled report so far.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_report(&self, node: usize) -> RunReport {
        self.nodes[node].session.report()
    }

    /// One node's controller state.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_state(&self, node: usize) -> SprintState {
        self.nodes[node].session.state()
    }

    /// True once every submitted task has been resolved: completed,
    /// failed after exhausting its crash-retry budget, or migrated to
    /// another rack by a facility requeue router. Losing
    /// competitive-duplicate copies do not count as outstanding work —
    /// their result is discarded by definition, so the queue is
    /// drained the moment every task has a winner (a loser may still
    /// be mid-run on its node when stepping stops).
    pub fn drained(&self) -> bool {
        self.outcomes.len() + self.failed_count + self.migrated_count == self.tasks.len()
    }

    /// Tasks that have arrived but not yet been assigned to a node —
    /// the ready-queue depth a facility-level admission tier rations
    /// headroom by (`sprint-facility`).
    pub fn ready_backlog(&self) -> usize {
        self.ready.len()
    }

    /// Sprint grants held: the nodes sprinting when the last scheduler
    /// pass ended, less duplicate copies cancelled since. A sprint that
    /// has since ended on its own still counts until the next pass.
    pub fn sprinting_count(&self) -> usize {
        self.grant_order.len()
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Total heat the rack currently injects into its thermal grid,
    /// watts — the row-coupling input a facility sums to model warm
    /// recirculated air raising downstream rack inlets.
    pub fn rack_heat_w(&self) -> f64 {
        self.rack.with_grid(|g| g.chip_power_w())
    }

    /// Advances the whole cluster by one sampling window.
    pub fn step(&mut self) -> ClusterOutcome {
        if self.drained() {
            return ClusterOutcome::Drained;
        }
        if self.windows >= self.max_windows {
            return ClusterOutcome::TimeLimit;
        }
        // 0. Faults stamped for this window fire before anything reads
        // a sensor or places work.
        self.apply_faults();
        let now = self.now_s();
        // 1. Arrivals, then crash-retry requeues whose backoff expired.
        self.pop_arrivals(now);
        self.pop_requeues();
        // 2. Assignment (and 3., the shed passes: thermal, then the
        // power emergency).
        self.assign_ready(now);
        self.shed_pass(now);
        self.power_shed_pass(now);
        // 4. Step busy nodes, rest idle ones, in index order (node 0
        // goes first: its views alone move the shared grid and pool).
        for i in 0..self.nodes.len() {
            self.run_node_window(i);
        }
        self.close_window();
        if self.drained() {
            ClusterOutcome::Drained
        } else {
            ClusterOutcome::Running
        }
    }

    /// Ends the current window: advances the clock and samples the
    /// rack's peak junction temperature.
    pub(crate) fn close_window(&mut self) {
        self.windows += 1;
        let junction = self.rack.junction_temp_c();
        if junction > self.peak_junction_c {
            self.peak_junction_c = junction;
        }
    }

    /// Whether the next pending task has arrived (`arrival_s <= now`).
    pub(crate) fn arrival_due(&self, now: f64) -> bool {
        self.arrival_order
            .get(self.next_arrival)
            .is_some_and(|&task| self.tasks[task].arrival_s <= now)
    }

    /// Whether the next crash-retry's backoff has expired.
    pub(crate) fn requeue_due(&self) -> bool {
        self.requeue
            .get(self.next_requeue)
            .is_some_and(|&(due, _, _)| due <= self.windows)
    }

    /// The next unapplied fault-plan event, if it is stamped for the
    /// current window.
    pub(crate) fn due_fault(&self) -> Option<FaultEvent> {
        let ev = *self.fault_plan.as_ref()?.events.get(self.next_fault)?;
        debug_assert!(
            ev.window >= self.windows,
            "a fault event was scheduled in the past"
        );
        (ev.window == self.windows).then_some(ev)
    }

    /// Moves every task whose arrival time has come from the arrival
    /// order into the ready queue.
    pub(crate) fn pop_arrivals(&mut self, now: f64) {
        while self.arrival_due(now) {
            self.ready.push_back(self.arrival_order[self.next_arrival]);
            self.next_arrival += 1;
        }
    }

    /// Drains crash-retry requeues whose backoff window has come into
    /// the ready queue (after `pop_arrivals`, so a same-window arrival
    /// always queues ahead of a same-window retry).
    pub(crate) fn pop_requeues(&mut self) {
        while self.requeue_due() {
            let (_, _, task) = self.requeue[self.next_requeue];
            self.next_requeue += 1;
            if self.task_status[task] == TaskStatus::Open {
                self.ready.push_back(task);
            }
        }
    }

    /// Removes every crash-retry task still waiting out its backoff and
    /// hands it back (original arrival time and class intact) for a
    /// facility tier to re-place — possibly on another rack, which is
    /// the fix for retry-in-place head-of-line blocking on a degraded
    /// rack. Each drained task is marked migrated: terminal for this
    /// rack's accounting ([`ClusterReport::migrated_tasks`]), resolved
    /// wherever [`Self::inject_task`] lands it. Tasks already resolved
    /// (a duplicate copy won after the requeue was booked) are simply
    /// dropped from the backoff list. Empty — and completely free —
    /// when nothing is waiting, so a facility that never routes
    /// requeues is byte-identical to one that polls this every epoch.
    pub fn drain_stranded_requeues(&mut self) -> Vec<ClusterTask> {
        let mut stranded = Vec::new();
        for idx in self.next_requeue..self.requeue.len() {
            let (_, _, task) = self.requeue[idx];
            if self.task_status[task] == TaskStatus::Open {
                self.task_status[task] = TaskStatus::Migrated;
                self.migrated_count += 1;
                stranded.push(self.tasks[task]);
            }
        }
        self.requeue.truncate(self.next_requeue);
        stranded
    }

    /// Admits a task mid-run as if it had just arrived: it joins the
    /// back of the ready queue this window and counts toward this
    /// rack's submitted total. The facility requeue router uses this to
    /// land a stranded crash-retry on a healthier rack; the task keeps
    /// its original `arrival_s`, so its eventual latency spans the
    /// crash and the migration, not just the new rack's service time.
    /// Returns the task's index on this rack.
    pub fn inject_task(&mut self, task: ClusterTask) -> usize {
        let id = self.tasks.len();
        self.tasks.push(task);
        self.task_status.push(TaskStatus::Open);
        self.task_copies.push(0);
        self.task_sprinted.push(false);
        self.task_retries.push(0);
        self.ready.push_back(id);
        id
    }

    /// Applies every fault-plan event stamped for the current window,
    /// in `(window, node)` order.
    pub(crate) fn apply_faults(&mut self) {
        let Some(plan) = self.fault_plan.as_ref() else {
            return;
        };
        let (response, max_retries, backoff) =
            (plan.response, plan.max_retries, plan.backoff_windows);
        while let Some(ev) = self.due_fault() {
            self.next_fault += 1;
            self.fault_events_applied += 1;
            let node = ev.node as usize;
            let fault = self.nodes[node].session.thermal().state();
            match ev.kind {
                FaultKind::SensorStuck(v) => {
                    self.sensor_fault_on(node, SensorFault::StuckAt(v), response)
                }
                FaultKind::SensorBias(d) => {
                    self.sensor_fault_on(node, SensorFault::Bias(d), response)
                }
                FaultKind::SensorDropout => {
                    self.sensor_fault_on(node, SensorFault::Dropout, response)
                }
                FaultKind::SensorClear => fault.set_sensor(None),
                FaultKind::SupplyCollapse(scale) => {
                    fault.set_supply(Some(SupplyFault::Collapsed(scale)));
                    self.supply_fault_count += 1;
                }
                FaultKind::SupplyBrownout => {
                    fault.set_supply(Some(SupplyFault::Brownout));
                    self.supply_fault_count += 1;
                }
                FaultKind::SupplyDead => {
                    fault.set_supply(Some(SupplyFault::Dead));
                    self.supply_fault_count += 1;
                }
                // Dead-sticky: `FaultState::set_supply` ignores the
                // clear when the regulator died outright.
                FaultKind::SupplyClear => fault.set_supply(None),
                FaultKind::NodeCrash => self.crash_node(node, response, max_retries, backoff),
                // A quarantined node stays retired.
                FaultKind::NodeRecover => {
                    let health = &mut self.nodes[node].health;
                    if *health == Health::Down {
                        *health = Health::Up;
                    }
                }
            }
        }
    }

    /// A sensor fault onset: corrupt the node's reported telemetry
    /// and, under [`FaultResponse::Aware`], fire the conservative
    /// failsafe — a node mid-sprint on telemetry that just went bad is
    /// treated as already at the limit and preempted on the spot
    /// (the throttle analogue of `HotspotPolicy`'s hardware failsafe).
    fn sensor_fault_on(&mut self, node: usize, fault: SensorFault, response: FaultResponse) {
        self.sensor_fault_count += 1;
        let state = self.nodes[node].session.thermal().state();
        state.set_sensor(Some(fault));
        if response == FaultResponse::Aware && self.nodes[node].is_sprinting() {
            self.nodes[node].session.preempt_sprint();
            self.failsafe_preemptions += 1;
            // The stale grant leaves the rotation at the sweep that
            // opens this window's scheduler passes.
        }
    }

    /// A node crash. An idle node just goes down (recoverable); a busy
    /// node's stranded threads make it untrustworthy for the rest of
    /// the run (there is no thread-kill API), so it is quarantined
    /// permanently and — under [`FaultResponse::Aware`] — its
    /// nameplate share is returned to the rack pool. The in-flight
    /// task, if no duplicate copy survives elsewhere, re-enters the
    /// queue after an exponential window backoff, up to the plan's
    /// retry budget; past that it is recorded failed.
    fn crash_node(&mut self, node: usize, response: FaultResponse, max_retries: u32, backoff: u64) {
        if self.nodes[node].health != Health::Up {
            return;
        }
        self.node_crash_count += 1;
        self.nodes[node].health = Health::Down;
        let Some(task) = self.nodes[node].task.take() else {
            return;
        };
        self.nodes[node].health = Health::Quarantined;
        if response == FaultResponse::Aware {
            if let Some(pool) = &self.supply {
                pool.decommission_node(node);
            }
        }
        if self.task_status[task] != TaskStatus::Open {
            return;
        }
        if self.nodes.iter().any(|n| n.task == Some(task)) {
            return; // a duplicate copy is still racing elsewhere
        }
        if self.task_retries[task] < max_retries {
            self.task_retries[task] += 1;
            let shift = (self.task_retries[task] - 1).min(32);
            let delay = backoff.saturating_mul(1u64 << shift).max(1);
            self.requeue_count += 1;
            let due = self.windows.saturating_add(delay);
            let seq = self.requeue_seq;
            self.requeue_seq += 1;
            let entry = (due, seq, task);
            let tail = &self.requeue[self.next_requeue..];
            let pos = self.next_requeue + tail.partition_point(|&e| e <= entry);
            self.requeue.insert(pos, entry);
        } else {
            self.task_status[task] = TaskStatus::Failed;
            self.failed_count += 1;
        }
    }

    /// The temperature the scheduler passes read for `node`, Celsius:
    /// what the node's `FaultSensor` reports — oblivious scheduling
    /// believes a broken sensor, even a stuck-cold one that makes a hot
    /// node look like the best sprint candidate in the rack — except
    /// that aware scheduling reads a faulted sensor as `t_max`
    /// (treat-as-hot: zero admission headroom).
    fn sensed_temp_c(&self, node: usize) -> f64 {
        let sensor = self.nodes[node].session.thermal();
        if self.distrusts_sensor(node) {
            sensor.t_max_c()
        } else {
            sensor.junction_temp_c()
        }
    }

    /// Whether aware scheduling distrusts `node`'s telemetry: the plan
    /// is [`FaultResponse::Aware`] and the node's sensor is faulted.
    fn distrusts_sensor(&self, node: usize) -> bool {
        let aware = self.fault_plan.as_ref().map(|p| p.response) == Some(FaultResponse::Aware);
        let sensor = self.nodes[node].session.thermal();
        aware && sensor.state().sensor().is_some()
    }

    /// Nodes retired after crashing mid-task.
    fn quarantined_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.health == Health::Quarantined)
            .count()
    }

    /// Fraction of the fleet not quarantined, in `(0, 1]` — the
    /// degradation signal a facility tier re-deals the feed by.
    pub fn alive_fraction(&self) -> f64 {
        (self.nodes.len() - self.quarantined_nodes()) as f64 / self.nodes.len() as f64
    }

    /// Executes node `i`'s share of the current window: one session
    /// step when busy, one rest when idle.
    pub(crate) fn run_node_window(&mut self, i: usize) {
        if self.nodes[i].task.is_some() {
            match self.nodes[i].session.step() {
                StepOutcome::Running => {}
                StepOutcome::Finished => self.complete(i),
                StepOutcome::TimeLimit => {
                    // The per-burst wall tripped with work left.
                    // Abandoning would strand the task's live
                    // threads on the machine (there is no
                    // thread-kill API), corrupting every later
                    // task on this node — so re-arm and keep
                    // draining, but *sustained*: the task already
                    // spent its sprint grant, and a fresh sprint
                    // here would bypass policy admission (and the
                    // grant bookkeeping the shed order works
                    // from). The step below keeps the node on the
                    // lockstep clock; truly runaway tasks are
                    // bounded by the cluster-level time limit.
                    self.nodes[i]
                        .session
                        .set_config(self.sustained_config.clone());
                    self.nodes[i].session.begin_burst();
                    if self.nodes[i].session.step() == StepOutcome::Finished {
                        self.complete(i);
                    }
                }
            }
        } else {
            self.nodes[i].session.rest(self.window_s);
        }
    }

    /// Steps until the queue drains or the time limit trips.
    pub fn run_to_completion(&mut self) -> ClusterOutcome {
        loop {
            let outcome = self.step();
            if outcome.is_terminal() {
                return outcome;
            }
        }
    }

    /// Builds the cluster summary for the run so far.
    pub fn report(&self) -> ClusterReport {
        let makespan_s = self
            .outcomes
            .iter()
            .map(|o| o.completed_s)
            .fold(0.0f64, f64::max);
        // The mean sums in completion order. Every latency statistic is
        // NaN when empty: an empty run has no latencies, and a 0 would
        // read as "some task finished instantly" to anything ranking
        // policies by tail. The tail sorts with `f64::total_cmp`:
        // completed outcomes are debug-asserted finite, so a NaN here is
        // already a bug, and total order keeps it deterministic (NaN
        // sorts above every number) instead of stranding it mid-slice.
        let mut latencies: Vec<f64> = self.outcomes.iter().map(|o| o.latency_s()).collect();
        let mean_latency_s = if latencies.is_empty() {
            f64::NAN
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        latencies.sort_by(f64::total_cmp);
        ClusterReport {
            makespan_s,
            completed: self.outcomes.len(),
            total_tasks: self.tasks.len(),
            mean_latency_s,
            p95_latency_s: nearest_rank(&latencies, 0.95),
            p99_latency_s: nearest_rank(&latencies, 0.99),
            max_latency_s: latencies.last().copied().unwrap_or(f64::NAN),
            peak_junction_c: if self.peak_junction_c.is_finite() {
                self.peak_junction_c
            } else {
                self.rack.junction_temp_c()
            },
            // Per *task*, not per copy: a competitively duplicated
            // task counts once however many copies raced (the per-copy
            // decisions remain in the event log).
            admitted_sprints: self
                .task_copies
                .iter()
                .zip(&self.task_sprinted)
                .filter(|&(&copies, &sprinted)| copies > 0 && sprinted)
                .count(),
            denied_sprints: self
                .task_copies
                .iter()
                .zip(&self.task_sprinted)
                .filter(|&(&copies, &sprinted)| copies > 0 && !sprinted)
                .count(),
            sheds: self
                .events
                .iter()
                .filter(|e| matches!(e, ClusterEvent::NodeShed { .. }))
                .count(),
            power_sheds: self
                .events
                .iter()
                .filter(|e| matches!(e, ClusterEvent::PowerShed { .. }))
                .count(),
            supply_aborts: self
                .nodes
                .iter()
                .flat_map(|n| n.session.events().iter())
                .filter(|e| matches!(e, ControllerEvent::SupplyLimited { .. }))
                .count(),
            fault_events: self.fault_events_applied,
            sensor_faults: self.sensor_fault_count,
            supply_faults: self.supply_fault_count,
            node_crashes: self.node_crash_count,
            failsafe_preemptions: self.failsafe_preemptions,
            requeues: self.requeue_count,
            cancelled_copies: self.duplicates_cancelled,
            migrated_tasks: self.migrated_count,
            failed_tasks: self.failed_count,
            quarantined_nodes: self.quarantined_nodes(),
            outstanding_tasks: self.outstanding_tasks(),
            outcomes: self.outcomes.clone(),
            node_reports: self.nodes.iter().map(|n| n.session.report()).collect(),
        }
    }

    /// Tasks neither completed nor failed, counted *structurally* —
    /// every place an unresolved task can live (not yet arrived, the
    /// ready queue, a pending crash-retry, a node) is scanned, so a
    /// task the bookkeeping lost would make the conservation invariant
    /// fail rather than silently balance.
    fn outstanding_tasks(&self) -> usize {
        let mut seen = vec![false; self.tasks.len()];
        for &t in &self.arrival_order[self.next_arrival..] {
            seen[t] = true;
        }
        for &t in &self.ready {
            seen[t] = true;
        }
        for &(_, _, t) in &self.requeue[self.next_requeue..] {
            seen[t] = true;
        }
        for n in &self.nodes {
            if let Some(t) = n.task {
                seen[t] = true;
            }
        }
        seen.iter()
            .zip(&self.task_status)
            .filter(|&(&held, &status)| held && status == TaskStatus::Open)
            .count()
    }

    /// Assigns ready tasks to idle nodes (coolest-first for headroom-
    /// aware policies), duplicating onto spare nodes under competitive
    /// policies, and returns the nodes it started. Under a deferring
    /// policy, a head-of-line task that cannot be admitted *waits for
    /// headroom* (until its defer window expires) instead of burning an
    /// order of magnitude longer in sustained mode — the sprint-or-defer
    /// trade that makes rationed sprinting beat the unmanaged rack. The
    /// idle set is ranked once: a start moves no reading it took. It
    /// opens the scheduler passes by sweeping the grants whose sprints
    /// ended, so every pass reads who sprints from the rotation alone.
    pub(crate) fn assign_ready(&mut self, now: f64) -> Vec<usize> {
        let nodes = &self.nodes;
        self.grant_order.retain(|&n| nodes[n].is_sprinting());
        let mut started = Vec::new();
        if self.ready.is_empty() {
            return started;
        }
        // Down and quarantined nodes cannot take work in either
        // response mode — a crashed server is gone, not slow.
        let free = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].task.is_none() && self.nodes[i].health == Health::Up);
        let mut idle = match self.placement {
            Placement::PolicyDefault if self.policy.places_coolest_first() => {
                rank_nodes(free.map(|n| (self.sensed_temp_c(n), n)), false)
            }
            Placement::PolicyDefault => free.collect(),
            Placement::CheapestHeadroom => {
                rank_nodes(free.map(|n| (self.placement_cost(n), n)), false)
            }
        };
        while let Some(&task) = self.ready.front().filter(|_| !idle.is_empty()) {
            // A node too narrow for the task's class goes behind every
            // wide-enough one; the stable sort keeps the ranking within
            // each side.
            let mut order = idle.clone();
            if self.placement == Placement::CheapestHeadroom {
                let min_cores = self.tasks[task].min_cores;
                order.sort_by_key(|&n| self.nodes[n].session.machine().config().cores < min_cores);
            }
            // Admission is judged on the best (first-placed) candidate:
            // if even the coolest idle node cannot sprint, the task
            // defers rather than degrade — unless its window expired.
            let admit = self.admits_on(order[0]);
            let mut force_sustained = false;
            if !admit {
                if let Some(defer_s) = self.policy.defer_window_s() {
                    if now - self.tasks[task].arrival_s < defer_s {
                        break; // hold the queue; retry next window
                    }
                    force_sustained = true; // waited long enough
                }
            }
            self.ready.pop_front();
            // Duplicate only onto nodes no waiting task needs
            // (Yonezawa's spare-capacity condition); a deferred task
            // falling back to sustained never duplicates, and a task
            // whose class forbids replication always runs one copy.
            let copies = if force_sustained || !self.tasks[task].duplicable {
                1
            } else {
                let spare = idle.len().saturating_sub(self.ready.len());
                self.policy.duplicates().min(spare.max(1)).min(idle.len())
            };
            self.task_copies[task] = copies;
            let chosen = &order[..copies];
            // Copy 0 takes the head check's verdict; a further copy is
            // judged on its own node, after the earlier copies' grants.
            for (k, &node) in chosen.iter().enumerate() {
                let admit = if k == 0 { admit } else { self.admits_on(node) };
                self.start_task_on(node, task, now, admit);
            }
            idle.retain(|n| !chosen.contains(n));
            started.extend_from_slice(chosen);
        }
        started
    }

    /// The joint headroom cost [`Placement::CheapestHeadroom`] ranks
    /// idle nodes by: the fraction of the node's own temperature range
    /// already consumed, plus (on a shared feed) its live upstream
    /// draw over its *nameplate* share — both dimensionless, so a node
    /// that is thermally cool but electrically over-share ranks behind
    /// one comfortable on both axes. A dropped-out sensor (NaN reading)
    /// costs the most thermal headroom, and a NaN cost ranks last.
    fn placement_cost(&self, node: usize) -> f64 {
        let thermal_port = self.nodes[node].session.thermal();
        let ambient = thermal_port.ambient_c();
        let range = thermal_port.t_max_c() - ambient;
        let mut thermal = if range > 0.0 {
            ((self.sensed_temp_c(node) - ambient) / range).clamp(0.0, 1.0)
        } else {
            1.0
        };
        if thermal.is_nan() {
            thermal = 1.0;
        }
        let electrical = match &self.supply {
            Some(pool) => {
                let share = pool.nameplate_share_w(node);
                if share.is_finite() && share > 0.0 {
                    (pool.node_draw_w(node) / share).clamp(0.0, 4.0)
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        thermal + electrical
    }

    /// Whether the policy would admit a sprint on `node` right now: the
    /// thermal gate (local headroom + rack allowance) *and* the power
    /// gate must both clear — a task denied on either axis defers under
    /// the same sprint-or-defer machinery.
    fn admits_on(&self, node: usize) -> bool {
        if self.nodes[node].health != Health::Up {
            return false;
        }
        // Aware scheduling never grants a sprint on a node whose
        // telemetry is known-bad: its sensed reading is already t_max
        // (zero headroom), but headroom-blind policies like
        // `AllSprint` need the explicit veto too.
        if self.distrusts_sensor(node) {
            return false;
        }
        let allowance = self
            .policy
            .max_sprinting_at(self.nodes.len(), self.rack.headroom_k());
        let sprinting = self.grant_order.len();
        let node_headroom = self.nodes[node].session.thermal().t_max_c() - self.sensed_temp_c(node);
        self.policy.admits(node_headroom, sprinting, allowance) && self.power_admits()
    }

    /// The power gate: under rationing, one more provisioned sprint
    /// must fit the rack feed. Sprinting nodes are booked at the
    /// policy's provisioned draw (their telemetry lags admission by the
    /// ramp — booking, not measuring, is what keeps the scheduler ahead
    /// of the physics); everyone else is carried at live telemetry.
    fn power_admits(&self) -> bool {
        let PowerPolicy::Rationed { sprint_draw_w, .. } = self.power else {
            return true;
        };
        let pool = self
            .supply
            .as_ref()
            .expect("rationing requires a pool (enforced at build)");
        let provisioned: f64 = (0..self.nodes.len())
            .map(|n| {
                if self.nodes[n].is_sprinting() {
                    sprint_draw_w
                } else {
                    pool.node_draw_w(n)
                }
            })
            .sum();
        provisioned + sprint_draw_w <= pool.cap_w()
    }

    /// Starts `task` on `node` under the sprint configuration if `admit`
    /// (the caller's admission verdict), sustained otherwise.
    fn start_task_on(&mut self, node: usize, task: usize, now: f64, admit: bool) {
        let spec = self.tasks[task];
        let config = if admit {
            self.sprint_config.clone()
        } else {
            self.sustained_config.clone()
        };
        let n = &mut self.nodes[node];
        n.session.set_config(config);
        suite_loader(spec.kind, spec.size, spec.threads)(n.session.machine_mut());
        n.session.begin_burst();
        n.task = Some(task);
        n.assigned_s = now;
        n.sprinted = admit;
        if admit {
            self.task_sprinted[task] = true;
            // A sprint configuration in sustained mode admits a task
            // that never sprints: it takes no grant.
            if n.is_sprinting() {
                self.grant_order.push(node);
            }
            self.events.push(ClusterEvent::SprintAdmitted {
                node,
                task,
                at_s: now,
            });
        } else {
            self.events.push(ClusterEvent::SprintDenied {
                node,
                task,
                at_s: now,
            });
        }
    }

    /// Preempts sprinting nodes beyond the policy's allowance, in the
    /// policy's shed order.
    pub(crate) fn shed_pass(&mut self, now: f64) {
        if cfg!(debug_assertions) {
            let mut grants = self.grant_order.clone();
            grants.sort_unstable();
            let live = (0..self.nodes.len()).filter(|&n| self.nodes[n].is_sprinting());
            assert_eq!(
                grants,
                live.collect::<Vec<_>>(),
                "one grant per sprinting node"
            );
        }
        let rack_headroom = self.rack.headroom_k();
        let allowance = self
            .policy
            .max_sprinting_at(self.nodes.len(), rack_headroom);
        let sprinting = self.grant_order.len();
        if sprinting <= allowance {
            return;
        }
        let order = self
            .policy
            .shed_order(&self.grant_order, |n| self.sensed_temp_c(n));
        for &node in order.iter().take(sprinting - allowance) {
            self.nodes[node].session.preempt_sprint();
            self.grant_order.retain(|&n| n != node);
            self.events.push(ClusterEvent::NodeShed {
                node,
                at_s: now,
                rack_headroom_k: rack_headroom,
            });
        }
    }

    /// The power-emergency shed pass: when the bus is overdrawn and
    /// the reserve has fallen below the policy's floor, preempt
    /// sprinting nodes until demand fits the feed again. The shed
    /// *order* is the cluster policy's, fed per-node upstream draws in
    /// place of temperatures — greedy policies shed the biggest
    /// drawers first, round-robin walks its rotation — so one ordering
    /// mechanism serves both emergencies. Admission should keep this
    /// pass idle; it is the backstop against provisioning error.
    pub(crate) fn power_shed_pass(&mut self, now: f64) {
        let PowerPolicy::Rationed {
            shed_reserve_fraction,
            ..
        } = self.power
        else {
            return;
        };
        let Some(pool) = self.supply.clone() else {
            return;
        };
        let reserve_fraction = pool.reserve_fraction();
        if pool.headroom_w() >= 0.0 || reserve_fraction >= shed_reserve_fraction {
            return;
        }
        let order = self
            .policy
            .shed_order(&self.grant_order, |n| pool.node_draw_w(n));
        let mut total = pool.total_draw_w();
        for &node in &order {
            if total <= pool.cap_w() {
                break;
            }
            self.nodes[node].session.preempt_sprint();
            self.grant_order.retain(|&n| n != node);
            // A preempted node keeps drawing sustained power, so
            // crediting its full draw as relief would under-shed and
            // prolong the brownout. The exact post-preemption draw is
            // the node's business, but it stays within the nameplate
            // share (in-share draws ride out brownouts by design), so
            // credit only the over-share excess — an emergency pass
            // should err toward shedding one node too many, never one
            // too few.
            total -= (pool.node_draw_w(node) - pool.nameplate_share_w(node)).max(0.0);
            self.events.push(ClusterEvent::PowerShed {
                node,
                at_s: now,
                reserve_fraction,
            });
        }
    }

    /// Records a finished node's task (first finisher wins under
    /// duplication) and frees the node.
    fn complete(&mut self, node: usize) {
        let task = self.nodes[node]
            .task
            .take()
            .expect("complete() requires a running task");
        if self.task_status[task] != TaskStatus::Open {
            return; // a duplicate copy lost the race
        }
        self.task_status[task] = TaskStatus::Done;
        let outcome = TaskOutcome {
            task,
            node,
            arrival_s: self.tasks[task].arrival_s,
            assigned_s: self.nodes[node].assigned_s,
            completed_s: self.nodes[node].session.now_s(),
            sprinted: self.nodes[node].sprinted,
            copies: self.task_copies[task],
        };
        // The percentile machinery assumes finite latencies; a NaN or
        // infinite one here means a session clock went bad, not a tail.
        debug_assert!(
            outcome.latency_s().is_finite(),
            "completed task {task} on node {node} has non-finite latency \
             (arrival {} s, completed {} s)",
            outcome.arrival_s,
            outcome.completed_s,
        );
        self.outcomes.push(outcome);
        // Competitive-duplicate cancellation: the window the winner
        // commits, every losing replica is preempted through the
        // machine-level cancel API and its node reclaimed — the loser
        // stops burning feed watts *now*, not when it happens to
        // finish. Off (`cancel_losers: false`), losers run to
        // completion and are discarded on arrival here — the
        // pre-cancel baseline the duplication studies compare against.
        if self.task_copies[task] > 1 && self.policy.cancels_losers() {
            for j in 0..self.nodes.len() {
                if self.nodes[j].task == Some(task) {
                    self.nodes[j].task = None;
                    self.nodes[j].session.cancel_workload();
                    self.grant_order.retain(|&g| g != j);
                    self.duplicates_cancelled += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_workloads::suite::{InputSize, WorkloadKind};

    fn outcome_with_latency(task: usize, latency_s: f64) -> TaskOutcome {
        TaskOutcome {
            task,
            node: 0,
            arrival_s: 0.0,
            assigned_s: 0.0,
            completed_s: latency_s,
            sprinted: false,
            copies: 1,
        }
    }

    /// Regression for the NaN-ordering bug: under the old
    /// `partial_cmp(..).unwrap_or(Equal)` sort a NaN latency was left
    /// wherever the comparison happened to strand it, corrupting the
    /// order of the *finite* latencies around it. `total_cmp` pins NaN
    /// above every number, so the report's finite ranks stay correct
    /// and deterministic even in the presence of a poisoned outcome.
    #[test]
    fn latency_percentile_is_nan_robust() {
        let report_of = |latencies: &[f64]| {
            let mut session = RackSpec::new(GridThermalParams::rack(1, 1)).build();
            session.outcomes = latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| outcome_with_latency(i, l))
                .collect();
            session.report()
        };
        // 99 finite latencies, shuffled, with a NaN among them: sorted
        // under total order they read [1, 2, ..., 99, NaN].
        let mut poisoned: Vec<f64> = (1..=99).map(|i| ((i * 37) % 99 + 1) as f64).collect();
        poisoned.insert(40, f64::NAN);
        let report = report_of(&poisoned);
        assert_eq!(report.p95_latency_s, 95.0);
        assert_eq!(report.p99_latency_s, 99.0);
        assert!(report.max_latency_s.is_nan());
        // All-finite ranks are unaffected.
        let report = report_of(&[5.0, 4.0, 6.0]);
        assert_eq!(report.p95_latency_s, 6.0);
        assert_eq!(report.max_latency_s, 6.0);
        assert_eq!(report.mean_latency_s, 5.0);
        assert_eq!(nearest_rank(&[4.0, 5.0, 6.0], 0.34), 5.0);
    }

    /// The whole empty-run report contract in one place: every latency
    /// statistic — mean, p95, p99 *and* max — is NaN when no task
    /// completed (an empty run has no latencies, not zero-latency
    /// tasks), while the counters and times report their natural
    /// zeros.
    #[test]
    fn empty_report_contract() {
        let report = ClusterBuilder::new(
            sprint_thermal::grid::GridThermalParams::rack(2, 2).time_scaled(3000.0),
        )
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 8, 2))
        .build()
        .report();
        assert_eq!(report.completed, 0);
        assert_eq!(report.total_tasks, 2);
        assert!(report.mean_latency_s.is_nan());
        assert!(report.p95_latency_s.is_nan());
        assert!(report.p99_latency_s.is_nan());
        assert!(report.max_latency_s.is_nan());
        assert_eq!(report.makespan_s, 0.0);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.admitted_sprints, 0);
        assert_eq!(report.denied_sprints, 0);
        assert_eq!(report.sheds + report.power_sheds + report.supply_aborts, 0);
        // A plan-free run must report all-zero fault counters, and the
        // conservation invariant must hold with every task outstanding.
        assert_eq!(
            report.fault_events
                + report.sensor_faults
                + report.supply_faults
                + report.node_crashes
                + report.failsafe_preemptions
                + report.requeues
                + report.cancelled_copies
                + report.migrated_tasks
                + report.failed_tasks
                + report.quarantined_nodes,
            0
        );
        assert_eq!(report.outstanding_tasks, report.total_tasks);
        assert!(report.task_conservation_holds());
    }
}
