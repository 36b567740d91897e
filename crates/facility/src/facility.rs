//! The facility: rack composition, row airflow coupling, the epoch
//! loop that carries settlement inputs and telemetry between worker
//! shards, and the facility-wide report.

use std::sync::mpsc;
use std::{panic, thread};

use serde::{Deserialize, Serialize};
use sprint_archsim::config::MachineConfig;
pub use sprint_cluster::RackSpec;
use sprint_cluster::{
    check_fault_plan, check_tasks, nearest_rank, ClusterBuildError, ClusterOutcome, ClusterPolicy,
    ClusterReport, ClusterTask, NodeSpec, Placement, PowerPolicy, RackSupplyParams,
};
use sprint_core::config::SprintConfig;
use sprint_core::fault::{FaultPlan, FaultRates, FaultResponse};
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::traffic::TrafficParams;

use crate::policy::FacilityPolicy;
use crate::settlement::Settlement;
use crate::shard::{RackInputs, Shard};

/// Row-level shared-airflow coupling: racks in a row share one CRAC
/// unit; heat the CRAC cannot extract recirculates and lifts every
/// inlet in the row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowParams {
    /// Consecutive racks per row (the last row may be short).
    pub racks_per_row: usize,
    /// Inlet rise per watt of row heat beyond the CRAC capacity, K/W.
    /// Zero disables the coupling entirely (inlets are never touched).
    pub recirc_k_per_w: f64,
    /// Heat one row's CRAC extracts before recirculation begins, watts.
    pub crac_capacity_w: f64,
    /// Ceiling on any rack inlet, Celsius — containment louvres dump
    /// excess heat past this point. Must stay below every rack's
    /// thermal limit (and any PCM melting point).
    pub max_inlet_c: f64,
}

/// Summary of a facility run: the union tail statistics every facility
/// study ranks policies by, facility-wide counters, and each rack's
/// full [`ClusterReport`]. Byte-identical for a given facility at any
/// worker-thread count (see [`digest`](Self::digest)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FacilityReport {
    /// Racks simulated.
    pub racks: usize,
    /// Settlement epochs run.
    pub epochs: u64,
    /// Tasks completed across the facility.
    pub completed: usize,
    /// Tasks submitted across the facility.
    pub total_tasks: usize,
    /// Mean task latency over all racks, seconds (NaN if none).
    pub mean_latency_s: f64,
    /// Facility-wide 95th-percentile latency (nearest rank), seconds
    /// (NaN if none).
    pub p95_latency_s: f64,
    /// Facility-wide 99th-percentile latency (nearest rank), seconds
    /// (NaN if none) — the headline figure of merit.
    pub p99_latency_s: f64,
    /// Worst task latency anywhere, seconds (NaN if none — an empty
    /// facility has no latencies, not zero-latency tasks, matching
    /// every other latency statistic here and in [`ClusterReport`]).
    pub max_latency_s: f64,
    /// Completion time of the last task anywhere, seconds (0 if none).
    pub makespan_s: f64,
    /// Hottest cell in any rack over the run, Celsius.
    pub peak_junction_c: f64,
    /// Hottest inlet the row coupling ever applied, Celsius (the base
    /// inlet when the coupling never fired).
    pub peak_inlet_c: f64,
    /// Thermal shed-pass preemptions, summed over racks.
    pub sheds: usize,
    /// Power-emergency shed-pass preemptions, summed over racks.
    pub power_sheds: usize,
    /// Supply-ended sprints (brownout casualties), summed over racks.
    pub supply_aborts: usize,
    /// Fault-plan events applied, summed over racks.
    pub fault_events: usize,
    /// Sensor faults injected, summed over racks.
    pub sensor_faults: usize,
    /// Supply faults injected, summed over racks.
    pub supply_faults: usize,
    /// Node crashes applied, summed over racks.
    pub node_crashes: usize,
    /// Treat-as-hot failsafe sprint preemptions, summed over racks.
    pub failsafe_preemptions: usize,
    /// Crash-lost tasks re-enqueued, summed over racks.
    pub requeues: usize,
    /// Losing competitive-duplicate replicas preempted when their
    /// task's winner committed, summed over racks.
    pub cancelled_copies: usize,
    /// Stranded crash-retries the requeue router moved between racks
    /// (zero unless [`FacilityBuilder::route_requeues`] is on). Each
    /// migration appears in both the origin's and destination's
    /// per-rack totals; [`total_tasks`](Self::total_tasks) is already
    /// net of the double count.
    pub migrated_tasks: usize,
    /// Tasks that exhausted their crash-retry budget, summed over racks.
    pub failed_tasks: usize,
    /// Nodes quarantined by a mid-task crash, summed over racks.
    pub quarantined_nodes: usize,
    /// Tasks neither completed nor failed at the end of the run,
    /// summed over racks.
    pub outstanding_tasks: usize,
    /// True when every rack drained its queue (false if any hit its
    /// time limit with tasks outstanding).
    pub all_drained: bool,
    /// Per-rack reports, in rack index order.
    pub rack_reports: Vec<ClusterReport>,
}

impl FacilityReport {
    /// FNV-1a fingerprint over every scalar field and every per-task
    /// outcome (exact `f64` bits). Two runs of the same facility agree
    /// on this digest if and only if they are byte-identical in every
    /// figure a study could quote — the determinism tests pin it across
    /// worker-thread counts.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            hash ^= bits;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        };
        for bits in [
            self.racks as u64,
            self.epochs,
            self.completed as u64,
            self.total_tasks as u64,
            self.mean_latency_s.to_bits(),
            self.p95_latency_s.to_bits(),
            self.p99_latency_s.to_bits(),
            self.max_latency_s.to_bits(),
            self.makespan_s.to_bits(),
            self.peak_junction_c.to_bits(),
            self.peak_inlet_c.to_bits(),
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
            self.all_drained as u64,
        ] {
            eat(bits);
        }
        for report in &self.rack_reports {
            eat(report.digest());
        }
        hash
    }

    /// The facility-wide task-conservation invariant: every submitted
    /// task is accounted for as completed, failed-after-retries, or
    /// outstanding at the end of the run — faults may degrade service,
    /// never lose work.
    pub fn task_conservation_holds(&self) -> bool {
        self.completed + self.failed_tasks + self.outstanding_tasks == self.total_tasks
            && self
                .rack_reports
                .iter()
                .all(|r| r.task_conservation_holds())
    }
}

/// A facility configuration [`FacilityBuilder::try_build`] rejects.
/// [`FacilityBuilder::build`] panics with the identical [`Display`]
/// message, so callers migrating from the panicking path keep their
/// diagnostics byte-for-byte.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FacilityBuildError {
    /// The settlement epoch is zero windows long.
    ZeroEpochWindows,
    /// [`FacilityPolicy::GlobalRationed`] without a facility cap.
    MissingFacilityCap,
    /// The facility feed policy rejected the cap/floor/slot shape
    /// (message from [`FacilityPolicy::validate`]).
    Policy(String),
    /// A non-positive or non-finite facility cap.
    BadFacilityCap,
    /// A facility cap with no rack supplies to enforce it through.
    CapWithoutRackSupply,
    /// A starved rack would head-of-line block forever: the minimum
    /// dealt share cannot carry a sprint and the defer window is
    /// infinite.
    StarvedRackInfiniteDefer {
        /// The smallest share the facility tier can pin a rack at, W.
        min_share_w: f64,
        /// The per-sprint booking local admission demands, W.
        sprint_draw_w: f64,
    },
    /// An invalid row-coupling shape (message text matches the old
    /// panic).
    Row(&'static str),
    /// Traffic routing with fewer tasks than racks.
    SparseTraffic,
    /// A rack spec or fault plan any [`RackSpec`] check rejects.
    Rack(ClusterBuildError),
}

impl std::fmt::Display for FacilityBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroEpochWindows => write!(f, "an epoch needs at least one window"),
            Self::MissingFacilityCap => {
                write!(f, "global rationing needs a facility_cap_w to divide")
            }
            Self::Policy(msg) => write!(f, "{msg}"),
            Self::BadFacilityCap => write!(f, "a facility cap must be positive and finite"),
            Self::CapWithoutRackSupply => write!(
                f,
                "a facility cap moves each rack's live supply cap: give racks a rack_supply"
            ),
            Self::StarvedRackInfiniteDefer {
                min_share_w,
                sprint_draw_w,
            } => write!(
                f,
                "a {min_share_w} W share cannot carry a {sprint_draw_w} W sprint: \
                 an infinite defer window would head-of-line block a starved \
                 rack until its time limit — use a finite defer_s"
            ),
            Self::Row(msg) => write!(f, "{msg}"),
            Self::SparseTraffic => write!(f, "traffic must carry at least one task per rack"),
            Self::Rack(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FacilityBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Rack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterBuildError> for FacilityBuildError {
    fn from(e: ClusterBuildError) -> Self {
        Self::Rack(e)
    }
}

/// Composes racks, row coupling and the facility feed into a
/// [`Facility`]. Every rack knob lives on one [`RackSpec`] template,
/// which the rack setters here write: `rack_thermal` sets its
/// `thermal`, and the rest call the [`RackSpec`] setter of the same
/// name. Rack *r*'s spec ([`Facility::spec`]) is the template with rack
/// *r*'s own tasks and fault plan. The template starts from
/// [`RackSpec::new`]'s defaults on a 4x4 rack, with tracing off. Every
/// rack steps on the event-driven core.
#[derive(Debug)]
pub struct FacilityBuilder {
    racks: usize,
    /// Every rack's knobs but its tasks and fault plan.
    template: RackSpec,
    row: Option<RowParams>,
    facility_policy: FacilityPolicy,
    facility_cap_w: Option<f64>,
    epoch_windows: u64,
    traffic: Option<TrafficParams>,
    rack_tasks: Vec<Vec<ClusterTask>>,
    rack_faults: Vec<Option<FaultPlan>>,
    fault_rates: Option<FaultRates>,
    fault_seed: u64,
    fault_response: FaultResponse,
    event_driven: bool,
    route_requeues: bool,
}

impl FacilityBuilder {
    /// Starts a facility of `racks` identical racks (specialise per
    /// rack afterwards via [`tasks_on`](Self::tasks_on)).
    ///
    /// # Panics
    ///
    /// Panics on zero racks.
    pub fn new(racks: usize) -> Self {
        assert!(racks >= 1, "a facility needs at least one rack");
        Self {
            racks,
            template: RackSpec::new(GridThermalParams::rack(4, 4)).trace_capacity(0),
            row: None,
            facility_policy: FacilityPolicy::PerRack,
            facility_cap_w: None,
            epoch_windows: 200,
            traffic: None,
            rack_tasks: vec![Vec::new(); racks],
            rack_faults: vec![None; racks],
            fault_rates: None,
            fault_seed: 2012,
            fault_response: FaultResponse::Aware,
            event_driven: true,
            route_requeues: false,
        }
    }

    /// Selects each rack's stepping core (default on: the event-driven
    /// core, where idle nodes cost nothing while nothing reads their
    /// state). `false` selects the lockstep
    /// [`ClusterSession`](sprint_cluster::ClusterSession) stepper, which
    /// steps every node every window: the reference the equivalence
    /// tests and `repro facility --oracle` compare the event core
    /// against. By the cluster crate's golden-equivalence invariant the
    /// facility report digest is byte-identical either way, so this is
    /// purely a wall-clock knob.
    pub fn event_driven(mut self, event_driven: bool) -> Self {
        self.event_driven = event_driven;
        self
    }

    /// Sets every rack's thermal grid parameters.
    pub fn rack_thermal(mut self, params: GridThermalParams) -> Self {
        self.template.thermal = params;
        self
    }

    /// Sets every rack's per-node machine configuration.
    pub fn machine(mut self, config: MachineConfig) -> Self {
        self.template = self.template.machine(config);
        self
    }

    /// Makes every rack heterogeneous: one [`NodeSpec`] per node
    /// (machine config, nameplate share weight, thermal-footprint
    /// weight), in node index order. A homogeneous spec list is
    /// byte-identical to the [`machine`](Self::machine) clone path.
    pub fn node_specs(mut self, specs: impl IntoIterator<Item = NodeSpec>) -> Self {
        self.template = self.template.node_specs(specs);
        self
    }

    /// Sets every rack's idle-node placement ranking (default
    /// [`Placement::PolicyDefault`], the pre-refactor coolest-first
    /// order; [`Placement::CheapestHeadroom`] is the cost-aware pass
    /// a heterogeneous fleet wants).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.template = self.template.placement(placement);
        self
    }

    /// Routes crash-retry requeues through facility placement (default
    /// off): a task waiting out its retry backoff at a settlement
    /// barrier is drained off its rack and re-placed on the
    /// least-loaded live rack — possibly a different one, which is the
    /// fix for retry-in-place head-of-line blocking when the origin
    /// rack's nodes are quarantined. Off, or on with no crashes, the
    /// run is byte-identical to the unrouted facility.
    pub fn route_requeues(mut self, route: bool) -> Self {
        self.route_requeues = route;
        self
    }

    /// Sets the sprint configuration admitted tasks run under.
    pub fn config(mut self, config: SprintConfig) -> Self {
        self.template = self.template.config(config);
        self
    }

    /// Sets every rack's local thermal admission policy.
    pub fn policy(mut self, policy: ClusterPolicy) -> Self {
        self.template = self.template.policy(policy);
        self
    }

    /// Sets every rack's local power admission policy.
    pub fn power_policy(mut self, power: PowerPolicy) -> Self {
        self.template = self.template.power_policy(power);
        self
    }

    /// Puts every rack on its own shared power-delivery pool; the
    /// commissioned cap is the rack's PDU nameplate. Required for
    /// [`FacilityPolicy::GlobalRationed`] (the global tier moves the
    /// pool's live cap).
    pub fn rack_supply(mut self, params: RackSupplyParams) -> Self {
        self.template = self.template.rack_supply(params);
        self
    }

    /// Limits each node's retained trace (0, the default, disables it).
    pub fn trace_capacity(mut self, samples: usize) -> Self {
        self.template = self.template.trace_capacity(samples);
        self
    }

    /// Hard wall on each rack's simulated time, seconds.
    pub fn max_time_s(mut self, limit_s: f64) -> Self {
        self.template = self.template.max_time_s(limit_s);
        self
    }

    /// Enables row-level shared-airflow coupling (disabled by default:
    /// inlets are never touched).
    pub fn row(mut self, row: RowParams) -> Self {
        self.row = Some(row);
        self
    }

    /// Sets the facility-level admission tier (default
    /// [`FacilityPolicy::PerRack`], which never intervenes).
    pub fn facility_policy(mut self, policy: FacilityPolicy) -> Self {
        self.facility_policy = policy;
        self
    }

    /// Sets the facility feed cap, watts: rationed dynamically by
    /// [`FacilityPolicy::GlobalRationed`], or pinned as a static equal
    /// split under [`FacilityPolicy::PerRack`] (the facility-oblivious
    /// baseline at the same total budget). Unset means an uncapped
    /// feed: racks keep their commissioned nameplates.
    pub fn facility_cap_w(mut self, cap_w: f64) -> Self {
        self.facility_cap_w = Some(cap_w);
        self
    }

    /// Sampling windows per settlement epoch (default 200 — with the
    /// 1 µs window that is a 0.2 ms settlement cadence, comfortably
    /// faster than the compressed thermal constants it steers).
    pub fn epoch_windows(mut self, windows: u64) -> Self {
        self.epoch_windows = windows;
        self
    }

    /// Feeds the facility from the seeded traffic generator: each rack
    /// derives its own stream from `base` — a distinct seed, a diurnal
    /// phase rotated by `rack / racks` of a period (rack peaks do not
    /// coincide, which is precisely the headroom a global tier can
    /// harvest), and an equal share of `base.tasks` (earlier racks take
    /// the remainder).
    pub fn traffic(mut self, base: TrafficParams) -> Self {
        self.traffic = Some(base);
        self
    }

    /// Replaces one rack's arrival queue with an explicit task list
    /// (overrides [`traffic`](Self::traffic) for that rack).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range rack index.
    pub fn tasks_on(mut self, rack: usize, tasks: impl IntoIterator<Item = ClusterTask>) -> Self {
        self.rack_tasks[rack].extend(tasks);
        self
    }

    /// Injects seeded faults into every rack: each derives its own
    /// [`FaultPlan::seeded`] schedule from
    /// [`fault_seed`](Self::fault_seed) (distinct per-rack streams, the
    /// same mixing as rack traffic) over a horizon covering the rack's
    /// time limit. All-zero rates leave every rack fault-free.
    pub fn fault_rates(mut self, rates: FaultRates) -> Self {
        self.fault_rates = Some(rates);
        self
    }

    /// Seeds the per-rack fault streams (default 2012).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Sets every derived fault plan's scheduler reaction (default
    /// [`FaultResponse::Aware`]: failsafe throttles, quarantine,
    /// retry). [`FaultResponse::Oblivious`] is the comparison baseline
    /// that believes faulted telemetry.
    pub fn fault_response(mut self, response: FaultResponse) -> Self {
        self.fault_response = response;
        self
    }

    /// Installs an explicit fault plan on one rack (overrides
    /// [`fault_rates`](Self::fault_rates) for that rack).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range rack index.
    pub fn fault_on(mut self, rack: usize, plan: FaultPlan) -> Self {
        self.rack_faults[rack] = Some(plan);
        self
    }

    /// Builds the facility: per-rack specs (tasks routed from traffic
    /// or the explicit lists) plus the settlement configuration.
    ///
    /// # Panics
    ///
    /// Panics where [`try_build`](Self::try_build) would err, with the
    /// identical message.
    pub fn build(self) -> Facility {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the facility, reporting an invalid settlement
    /// configuration as a typed [`FacilityBuildError`] instead of
    /// panicking: zero epoch windows; a facility cap that is not finite
    /// and positive; global rationing without rack supplies or a
    /// facility cap, or with a cap/floor the racks cannot satisfy; a row
    /// coupling with a NaN or negative CRAC capacity, or whose inlet
    /// ceiling is NaN or violates a rack's thermal limit or PCM melting
    /// point; traffic with fewer tasks than racks; a fault plan
    /// targeting nodes a rack does not have or with a supply collapse
    /// scale not above 1; a task on any rack with a bad arrival or no
    /// threads; a time limit that is not finite and positive; or a rack
    /// config any [`RackSpec`] check rejects.
    pub fn try_build(self) -> Result<Facility, FacilityBuildError> {
        if self.epoch_windows < 1 {
            return Err(FacilityBuildError::ZeroEpochWindows);
        }
        let template = &self.template;
        let nameplate: Vec<f64> = (0..self.racks)
            .map(|_| template.supply.map_or(f64::INFINITY, |s| s.cap_w))
            .collect();
        if let Some(cap) = self.facility_cap_w {
            if !(cap.is_finite() && cap > 0.0) {
                return Err(FacilityBuildError::BadFacilityCap);
            }
        }
        // The smallest share the facility tier can pin a rack at: the
        // rationing floor, or the static equal split of a capped
        // oblivious facility. `None` when the tier never moves caps.
        let min_share_w = match self.facility_policy {
            FacilityPolicy::GlobalRationed { floor_w, .. } => {
                let cap = self
                    .facility_cap_w
                    .ok_or(FacilityBuildError::MissingFacilityCap)?;
                self.facility_policy
                    .check(cap, &nameplate)
                    .map_err(FacilityBuildError::Policy)?;
                Some(floor_w)
            }
            FacilityPolicy::PerRack => self.facility_cap_w.map(|cap| cap / self.racks as f64),
        };
        if let Some(min_share_w) = min_share_w {
            if template.supply.is_none() {
                return Err(FacilityBuildError::CapWithoutRackSupply);
            }
            // A rack parked at the minimum share with power-rationed
            // local admission can never admit a sprint if that share
            // cannot carry one; with an infinite defer window its queue
            // would head-of-line block until the time limit. Demand a
            // finite defer so starved racks degrade to sustained runs.
            if let PowerPolicy::Rationed { sprint_draw_w, .. } = template.power {
                if min_share_w < sprint_draw_w
                    && template.policy.defer_window_s() == Some(f64::INFINITY)
                {
                    return Err(FacilityBuildError::StarvedRackInfiniteDefer {
                        min_share_w,
                        sprint_draw_w,
                    });
                }
            }
        }
        if let Some(row) = self.row {
            if row.racks_per_row < 1 {
                return Err(FacilityBuildError::Row("a row needs at least one rack"));
            }
            if !(row.recirc_k_per_w >= 0.0 && row.recirc_k_per_w.is_finite()) {
                return Err(FacilityBuildError::Row(
                    "recirculation coefficient must be finite and non-negative",
                ));
            }
            if row.crac_capacity_w.is_nan() || row.crac_capacity_w < 0.0 {
                return Err(FacilityBuildError::Row(
                    "crac_capacity_w must be a non-negative number",
                ));
            }
            if row.recirc_k_per_w > 0.0 {
                if row.max_inlet_c.is_nan() {
                    return Err(FacilityBuildError::Row("max_inlet_c must be a number"));
                }
                if row.max_inlet_c < template.thermal.ambient_c {
                    return Err(FacilityBuildError::Row(
                        "the inlet ceiling sits below the commissioned ambient",
                    ));
                }
                if row.max_inlet_c >= template.thermal.t_max_c {
                    return Err(FacilityBuildError::Row(
                        "the inlet ceiling must stay below the racks' thermal limit",
                    ));
                }
                for layer in &template.thermal.layers {
                    if let Some(pc) = &layer.phase_change {
                        if row.max_inlet_c >= pc.melt_temp_c {
                            return Err(FacilityBuildError::Row(
                                "the inlet ceiling must stay below the PCM melting point",
                            ));
                        }
                    }
                }
            }
        }
        // Derive per-rack fault plans: an explicit plan wins, otherwise
        // the seeded rates (each rack on its own stream, mixed exactly
        // as rack traffic seeds are) over a horizon covering the rack's
        // whole time limit. A seeded plan ends only at its horizon, so
        // the window and the limit are checked before any plan is drawn.
        let nodes = template.thermal.floorplan.core_count();
        template.config.validate();
        let horizon_windows = template.max_windows()?;
        let mut faults = Vec::with_capacity(self.racks);
        for rack in 0..self.racks {
            let plan = match (&self.rack_faults[rack], self.fault_rates) {
                (Some(plan), _) => Some(plan.clone()),
                (None, Some(rates)) => Some(
                    FaultPlan::seeded(
                        rack_seed(self.fault_seed, rack),
                        nodes,
                        horizon_windows,
                        rates,
                    )
                    .with_response(self.fault_response),
                ),
                (None, None) => None,
            };
            // Every rack's plan (and, below, its task list) is vetted
            // here: the rack-config check at the end builds rack 0 only.
            if let Some(plan) = &plan {
                check_fault_plan(plan, nodes)?;
            }
            faults.push(plan);
        }
        let mut specs = Vec::with_capacity(self.racks);
        for (rack, fault) in faults.into_iter().enumerate() {
            let tasks = if !self.rack_tasks[rack].is_empty() {
                self.rack_tasks[rack].clone()
            } else if let Some(base) = &self.traffic {
                if base.tasks < self.racks {
                    return Err(FacilityBuildError::SparseTraffic);
                }
                rack_traffic(base, rack, self.racks)
                    .generate()
                    .into_iter()
                    .map(|a| ClusterTask::new(a.kind, a.size, a.threads, a.arrival_s))
                    .collect()
            } else {
                Vec::new()
            };
            check_tasks(&tasks)?;
            specs.push(RackSpec {
                tasks,
                fault,
                ..template.clone()
            });
        }
        // Fail fast on rack configs `RackSpec` would reject — at build
        // time on the caller's thread, not inside a worker.
        drop(specs[0].try_build()?);
        Ok(Facility {
            specs,
            row: self.row,
            policy: self.facility_policy,
            facility_cap_w: self.facility_cap_w.unwrap_or(f64::INFINITY),
            epoch_windows: self.epoch_windows,
            event_driven: self.event_driven,
            route_requeues: self.route_requeues,
        })
    }
}

/// Rack `rack`'s own stream seed, mixed from a facility-wide `seed`:
/// each rack steps a golden-ratio increment further along.
fn rack_seed(seed: u64, rack: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rack as u64 + 1))
}

/// Derives rack `rack`'s traffic stream from the facility-wide base:
/// distinct seed, rotated diurnal phase, an equal task share.
fn rack_traffic(base: &TrafficParams, rack: usize, racks: usize) -> TrafficParams {
    let mut params = base.clone();
    params.seed = rack_seed(base.seed, rack);
    params.diurnal_phase = base.diurnal_phase + rack as f64 / racks as f64;
    params.tasks = base.tasks / racks + usize::from(rack < base.tasks % racks);
    params
}

/// N racks, their row coupling, and the facility admission tier. Built
/// by [`FacilityBuilder`]; [`run`](Self::run) executes the settlement
/// loop on a worker pool.
#[derive(Debug)]
pub struct Facility {
    pub(crate) specs: Vec<RackSpec>,
    pub(crate) row: Option<RowParams>,
    pub(crate) policy: FacilityPolicy,
    pub(crate) facility_cap_w: f64,
    pub(crate) epoch_windows: u64,
    pub(crate) event_driven: bool,
    pub(crate) route_requeues: bool,
}

impl Facility {
    /// Racks in the facility.
    pub fn racks(&self) -> usize {
        self.specs.len()
    }

    /// Tasks submitted across all racks.
    pub fn total_tasks(&self) -> usize {
        self.specs.iter().map(|s| s.tasks.len()).sum()
    }

    /// One rack's spec: the builder's template with this rack's tasks
    /// and fault plan (e.g. to build a standalone comparator session).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range rack index.
    pub fn spec(&self, rack: usize) -> &RackSpec {
        &self.specs[rack]
    }

    /// Runs the facility to completion on `threads` workers (clamped to
    /// the rack count) and reports. Rack *r* lives on worker
    /// `r % workers`; worker 0 is the calling thread, and each further
    /// worker is a scoped thread with its own input and telemetry
    /// channel, so a 1-worker run spawns no thread and opens no
    /// channel. The report is byte-identical at any worker count: racks
    /// interact only through the settlement barrier, which settles on
    /// the calling thread in rack index order.
    ///
    /// # Panics
    ///
    /// Panics on zero threads, or when a rack panics mid-run (a rack
    /// config error, or a cap input for a rack without a supply). A
    /// worker thread's panic ends its channels, which stops the epoch
    /// loop, and is re-raised from its `join` with its own payload.
    pub fn run(&self, threads: usize) -> FacilityReport {
        assert!(threads >= 1, "the facility needs at least one worker");
        let workers = threads.min(self.specs.len());
        thread::scope(|scope| {
            let links: Vec<_> = (1..workers)
                .map(|w| {
                    let (input_tx, input_rx) = mpsc::channel::<Vec<RackInputs>>();
                    let (telemetry_tx, telemetry_rx) = mpsc::channel();
                    let worker = scope.spawn(move || {
                        let mut shard = Shard::new(self, w, workers);
                        for inputs in input_rx {
                            if telemetry_tx.send(shard.advance(inputs)).is_err() {
                                break;
                            }
                        }
                        shard.finish()
                    });
                    (input_tx, telemetry_rx, worker)
                })
                .collect();
            let mut local = Shard::new(self, 0, workers);
            let mut settlement = Settlement::new(self);
            'epochs: loop {
                let mut dealt = vec![Vec::new(); workers];
                for (rack, inputs) in settlement.inputs().into_iter().enumerate() {
                    dealt[rack % workers].push(inputs);
                }
                let mut dealt = dealt.into_iter();
                let own = dealt.next().expect("worker 0 is the calling thread");
                for ((input_tx, ..), inputs) in links.iter().zip(dealt) {
                    if input_tx.send(inputs).is_err() {
                        break 'epochs;
                    }
                }
                let mut replies = vec![local.advance(own)];
                for (_, telemetry_rx, _) in &links {
                    let Ok(telemetry) = telemetry_rx.recv() else {
                        break 'epochs;
                    };
                    replies.push(telemetry);
                }
                for (w, telemetry) in replies.into_iter().enumerate() {
                    for (slot, t) in telemetry.into_iter().enumerate() {
                        settlement.record(w + slot * workers, t);
                    }
                }
                if settlement.close_epoch() {
                    break;
                }
            }
            // Dropping the input channels ends every worker's loop; a
            // worker that died mid-run re-raises its panic here.
            let handles: Vec<_> = links.into_iter().map(|(.., worker)| worker).collect();
            let mut finals = vec![local.finish().into_iter()];
            for worker in handles {
                let reports = worker.join().unwrap_or_else(|p| panic::resume_unwind(p));
                finals.push(reports.into_iter());
            }
            let mut all_drained = true;
            let rack_reports = (0..self.specs.len())
                .map(|rack| {
                    let (report, outcome) = finals[rack % workers]
                        .next()
                        .expect("every rack reports exactly once");
                    all_drained &= outcome == ClusterOutcome::Drained;
                    report
                })
                .collect();
            self.summarise(
                rack_reports,
                settlement.epochs,
                settlement.peak_inlet_c,
                all_drained,
            )
        })
    }

    /// Folds the per-rack reports (rack index order throughout) into
    /// the facility report.
    fn summarise(
        &self,
        rack_reports: Vec<ClusterReport>,
        epochs: u64,
        peak_inlet_c: f64,
        all_drained: bool,
    ) -> FacilityReport {
        let mut latencies: Vec<f64> = rack_reports
            .iter()
            .flat_map(|r| r.outcomes.iter().map(|o| o.latency_s()))
            .collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let completed = latencies.len();
        let mean_latency_s = if completed == 0 {
            f64::NAN
        } else {
            latencies.iter().sum::<f64>() / completed as f64
        };
        // A routed task is counted by its origin (submitted there,
        // resolved as migrated) *and* its destination (injected as a
        // fresh submission): net the double count out so the facility
        // total is the number of distinct tasks submitted.
        let migrated: usize = rack_reports.iter().map(|r| r.migrated_tasks).sum();
        FacilityReport {
            racks: rack_reports.len(),
            epochs,
            completed,
            total_tasks: rack_reports.iter().map(|r| r.total_tasks).sum::<usize>() - migrated,
            mean_latency_s,
            p95_latency_s: nearest_rank(&latencies, 0.95),
            p99_latency_s: nearest_rank(&latencies, 0.99),
            max_latency_s: latencies.last().copied().unwrap_or(f64::NAN),
            makespan_s: rack_reports
                .iter()
                .map(|r| r.makespan_s)
                .fold(0.0, f64::max),
            peak_junction_c: rack_reports
                .iter()
                .map(|r| r.peak_junction_c)
                .fold(f64::MIN, f64::max),
            peak_inlet_c,
            sheds: rack_reports.iter().map(|r| r.sheds).sum(),
            power_sheds: rack_reports.iter().map(|r| r.power_sheds).sum(),
            supply_aborts: rack_reports.iter().map(|r| r.supply_aborts).sum(),
            fault_events: rack_reports.iter().map(|r| r.fault_events).sum(),
            sensor_faults: rack_reports.iter().map(|r| r.sensor_faults).sum(),
            supply_faults: rack_reports.iter().map(|r| r.supply_faults).sum(),
            node_crashes: rack_reports.iter().map(|r| r.node_crashes).sum(),
            failsafe_preemptions: rack_reports.iter().map(|r| r.failsafe_preemptions).sum(),
            requeues: rack_reports.iter().map(|r| r.requeues).sum(),
            cancelled_copies: rack_reports.iter().map(|r| r.cancelled_copies).sum(),
            migrated_tasks: migrated,
            failed_tasks: rack_reports.iter().map(|r| r.failed_tasks).sum(),
            quarantined_nodes: rack_reports.iter().map(|r| r.quarantined_nodes).sum(),
            outstanding_tasks: rack_reports.iter().map(|r| r.outstanding_tasks).sum(),
            all_drained,
            rack_reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_cluster::TaskOutcome;

    /// A synthetic rack report whose outcomes carry exactly the given
    /// latencies (arrival 0, completion = latency), with the summary
    /// scalars the facility fold actually reads filled in consistently.
    fn rack_report_with_latencies(latencies: &[f64]) -> ClusterReport {
        let outcomes: Vec<TaskOutcome> = latencies
            .iter()
            .enumerate()
            .map(|(task, &latency_s)| TaskOutcome {
                task,
                node: 0,
                arrival_s: 0.0,
                assigned_s: 0.0,
                completed_s: latency_s,
                sprinted: false,
                copies: 1,
            })
            .collect();
        let mut sorted: Vec<f64> = latencies.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        ClusterReport {
            makespan_s: sorted.last().copied().unwrap_or(0.0),
            completed: outcomes.len(),
            total_tasks: outcomes.len(),
            mean_latency_s: sorted.iter().sum::<f64>() / sorted.len().max(1) as f64,
            p95_latency_s: nearest_rank(&sorted, 0.95),
            p99_latency_s: nearest_rank(&sorted, 0.99),
            max_latency_s: sorted.last().copied().unwrap_or(f64::NAN),
            peak_junction_c: 25.0,
            admitted_sprints: 0,
            denied_sprints: 0,
            sheds: 0,
            power_sheds: 0,
            supply_aborts: 0,
            fault_events: 0,
            sensor_faults: 0,
            supply_faults: 0,
            node_crashes: 0,
            failsafe_preemptions: 0,
            requeues: 0,
            cancelled_copies: 0,
            migrated_tasks: 0,
            failed_tasks: 0,
            quarantined_nodes: 0,
            outstanding_tasks: 0,
            outcomes,
            node_reports: Vec::new(),
        }
    }

    /// The facility p99 must be the nearest-rank percentile over the
    /// *merged* outcome population — not any aggregate of per-rack
    /// percentiles. This case is constructed so the merged p99 differs
    /// from every per-rack p99: rack A's 99 tasks have latencies
    /// 1..=99 s (per-rack p99 = 99), rack B's single task takes 0.5 s
    /// (per-rack p99 = 0.5); the union of 100 latencies puts rank 99 at
    /// 98 s, which matches neither.
    #[test]
    fn facility_p99_is_nearest_rank_over_merged_outcomes() {
        let a_latencies: Vec<f64> = (1..=99).map(|i| i as f64).collect();
        let rack_a = rack_report_with_latencies(&a_latencies);
        let rack_b = rack_report_with_latencies(&[0.5]);
        assert_eq!(rack_a.p99_latency_s, 99.0);
        assert_eq!(rack_b.p99_latency_s, 0.5);

        let facility = FacilityBuilder::new(2).build();
        let report = facility.summarise(vec![rack_a, rack_b], 1, 25.0, true);

        assert_eq!(report.completed, 100);
        assert_eq!(
            report.p99_latency_s, 98.0,
            "merged p99 is rank 99 of the union, not a per-rack figure"
        );
        assert_ne!(report.p99_latency_s, report.rack_reports[0].p99_latency_s);
        assert_ne!(report.p99_latency_s, report.rack_reports[1].p99_latency_s);
        // And the rest of the union tail: p95 at rank 95, max at the top.
        assert_eq!(report.p95_latency_s, 94.0);
        assert_eq!(report.max_latency_s, 99.0);
        assert_eq!(report.mean_latency_s, (4950.0 + 0.5) / 100.0);
    }

    /// A rack that panics mid-run fails the run with its own message at
    /// any worker count, without hanging the barrier on the dead rack:
    /// rack 1 panics on the calling thread at 1 worker and on a worker
    /// thread at 2 and 8; rack 0 always panics on the calling thread,
    /// with live worker threads still waiting at 2 and 8.
    #[test]
    fn a_rack_panic_surfaces_with_its_message_at_any_worker_count() {
        for broken in [1, 0] {
            let mut facility = FacilityBuilder::new(4)
                .rack_thermal(GridThermalParams::rack(2, 1))
                .rack_supply(RackSupplyParams::rack(2))
                .facility_policy(FacilityPolicy::GlobalRationed {
                    floor_w: 5.0,
                    slot_w: 5.0,
                })
                .facility_cap_w(40.0)
                .build();
            // No supply for the rack's first dealt cap to move.
            facility.specs[broken].supply = None;
            for threads in [1, 2, 8] {
                let payload = std::panic::catch_unwind(|| facility.run(threads))
                    .expect_err("the broken rack cannot take a cap");
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(
                    msg.contains("facility cap settlement requires a rack supply"),
                    "rack {broken}, {threads} workers: {msg:?}"
                );
            }
        }
    }

    /// Every rack's spec is the builder's template with the rack's own
    /// tasks and fault plan, and each facility rack setter sets what
    /// the `RackSpec` setter of the same name sets.
    #[test]
    fn each_rack_spec_is_the_template_with_its_own_tasks_and_faults() {
        use sprint_core::fault::FaultRates;
        use sprint_workloads::suite::{InputSize, WorkloadKind};

        let thermal = GridThermalParams::rack(2, 1).time_scaled(3000.0);
        let little = MachineConfig::hpca().with_cores(8);
        let specs = [
            NodeSpec::standard(MachineConfig::hpca()).with_share_weight(1.5),
            NodeSpec::standard(little.clone()).with_thermal_weight(0.8),
        ];
        let mut config = SprintConfig::hpca_parallel();
        config.tdp_w = 8.0;
        let policy = ClusterPolicy::RoundRobin { max_sprinting: 1 };
        let power = PowerPolicy::Rationed {
            sprint_draw_w: 12.0,
            shed_reserve_fraction: 0.25,
        };
        let supply = RackSupplyParams::rack(2).time_scaled(3000.0);
        let builder = FacilityBuilder::new(3)
            .rack_thermal(thermal.clone())
            .machine(little.clone())
            .node_specs(specs.clone())
            .placement(Placement::CheapestHeadroom)
            .config(config.clone())
            .policy(policy.clone())
            .power_policy(power)
            .rack_supply(supply)
            .trace_capacity(7)
            .max_time_s(0.5)
            .tasks_on(
                1,
                ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 8, 2),
            )
            .fault_rates(FaultRates {
                mean_sensor_gap_windows: 0,
                sensor_hold_windows: 0,
                mean_crash_gap_windows: 4000,
                crash_hold_windows: 100,
                mean_supply_gap_windows: 0,
                supply_hold_windows: 0,
            })
            .fault_on(2, FaultPlan::none());
        let expected = RackSpec::new(thermal)
            .machine(little)
            .node_specs(specs)
            .placement(Placement::CheapestHeadroom)
            .config(config)
            .policy(policy)
            .power_policy(power)
            .rack_supply(supply)
            .trace_capacity(7)
            .max_time_s(0.5);
        assert_eq!(format!("{:?}", builder.template), format!("{expected:?}"));

        let facility = builder.build();
        for rack in 0..3 {
            let spec = facility.spec(rack);
            let knobs = RackSpec {
                tasks: Vec::new(),
                fault: None,
                ..spec.clone()
            };
            assert_eq!(format!("{knobs:?}"), format!("{expected:?}"), "rack {rack}");
        }
        let tasks: Vec<usize> = (0..3).map(|r| facility.spec(r).tasks.len()).collect();
        assert_eq!(tasks, [0, 2, 0]);
        assert!(facility
            .spec(0)
            .fault
            .as_ref()
            .is_some_and(|p| !p.events.is_empty()));
        assert_eq!(facility.spec(2).fault, Some(FaultPlan::none()));
    }

    /// A facility whose racks completed nothing has NaN latency
    /// statistics across the board — max included, matching the
    /// cluster-level empty-report contract.
    #[test]
    fn empty_facility_latency_stats_are_all_nan() {
        let facility = FacilityBuilder::new(2).build();
        let empty = vec![
            rack_report_with_latencies(&[]),
            rack_report_with_latencies(&[]),
        ];
        let report = facility.summarise(empty, 1, 25.0, true);
        assert_eq!(report.completed, 0);
        assert!(report.mean_latency_s.is_nan());
        assert!(report.p95_latency_s.is_nan());
        assert!(report.p99_latency_s.is_nan());
        assert!(
            report.max_latency_s.is_nan(),
            "max of nothing is NaN, not a zero-latency task"
        );
        assert_eq!(report.makespan_s, 0.0);
    }
}
