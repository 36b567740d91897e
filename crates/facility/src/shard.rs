//! Rack advancement for one worker.
//!
//! A [`ClusterSession`] holds `Rc<RefCell<...>>` shared rack state and
//! is not `Send`, so sessions cannot migrate between threads. Instead a
//! [`Shard`] *builds* its racks from the facility's [`RackSpec`]s on the
//! thread that steps them and owns them for the whole run, exchanging
//! only plain data with the settlement barrier: [`RackInputs`] in,
//! [`RackTelemetry`] out. A shard steps its racks in ascending rack
//! index, but rack order inside an epoch is immaterial: racks share no
//! mutable state between settlement barriers, which is what makes the
//! report independent of the worker count.

use sprint_cluster::{
    ClusterOutcome, ClusterReport, ClusterSession, ClusterTask, EventDrivenCluster,
};

use crate::facility::{Facility, RackSpec};

/// One rack's stepping core: the event-driven core that lets idle
/// nodes sleep while nothing reads their state, or the lockstep
/// reference stepper. Both expose the identical window-granular
/// protocol the settlement barrier needs, and by the cluster crate's
/// golden-equivalence invariant they produce byte-identical reports —
/// so the facility digest is independent of which driver ran, not just
/// of the worker count.
enum RackDriver {
    /// The lockstep [`ClusterSession`] stepper (the reference).
    Lockstep(ClusterSession),
    /// The event-driven core over the same session.
    Event(EventDrivenCluster),
}

impl RackDriver {
    fn build(spec: &RackSpec, event_driven: bool) -> Self {
        if event_driven {
            RackDriver::Event(EventDrivenCluster::new(spec.build()))
        } else {
            RackDriver::Lockstep(spec.build())
        }
    }

    fn step(&mut self) -> ClusterOutcome {
        match self {
            RackDriver::Lockstep(s) => s.step(),
            RackDriver::Event(e) => e.step(),
        }
    }

    fn session(&self) -> &ClusterSession {
        match self {
            RackDriver::Lockstep(s) => s,
            RackDriver::Event(e) => e.session(),
        }
    }

    /// Final report. `&mut` because the event core must first settle
    /// its lazy idle-rest ledgers up to the current window.
    fn report(&mut self) -> ClusterReport {
        match self {
            RackDriver::Lockstep(s) => s.report(),
            RackDriver::Event(e) => e.report(),
        }
    }

    /// Pulls every crash-retry task still waiting out its backoff off
    /// this rack, marked migrated, for the facility to re-place.
    fn drain_stranded(&mut self) -> Vec<ClusterTask> {
        match self {
            RackDriver::Lockstep(s) => s.drain_stranded_requeues(),
            RackDriver::Event(e) => e.drain_stranded_requeues(),
        }
    }

    /// Admits a routed task onto this rack as a fresh ready-queue
    /// entry, which wakes the rack's scheduler next window.
    fn inject(&mut self, task: ClusterTask) {
        match self {
            RackDriver::Lockstep(s) => s.inject_task(task),
            RackDriver::Event(e) => e.inject_task(task),
        };
    }
}

/// Boundary inputs applied to one rack at the start of an epoch.
/// `None` (and an empty injection list) means "leave the knob where it
/// is" — the facility only touches a rack when a settlement actually
/// moved its value, so an uncoupled facility is bit-for-bit a set of
/// standalone racks.
#[derive(Debug, Clone, Default)]
pub(crate) struct RackInputs {
    /// New inlet-air temperature from the row airflow model, Celsius.
    pub inlet_c: Option<f64>,
    /// New live supply cap from the facility feed tier, watts.
    pub cap_w: Option<f64>,
    /// Stranded crash-retries the requeue router re-placed here,
    /// admitted before the epoch's first window.
    pub inject: Vec<ClusterTask>,
}

/// Plain-data telemetry one rack reports at the settlement barrier.
#[derive(Debug, Clone, Default)]
pub(crate) struct RackTelemetry {
    /// Heat the rack currently injects into its grid, watts.
    pub heat_w: f64,
    /// The rack's demand weight for the feed tier: tasks arrived but
    /// not yet placed on a node, plus nodes holding a sprint grant.
    pub demand: usize,
    /// Fraction of the rack's nodes not quarantined by crashes (1.0
    /// for a healthy rack).
    pub alive_frac: f64,
    /// Whether the rack can make no further progress.
    pub terminal: bool,
    /// Crash-retries drained off the rack for cross-rack re-placement
    /// (always empty unless the facility routes requeues).
    pub stranded: Vec<ClusterTask>,
}

/// The racks one worker owns: rack `worker`, `worker + workers`, … on
/// the driver the facility selected, each with its latest outcome.
pub(crate) struct Shard {
    racks: Vec<(RackDriver, ClusterOutcome)>,
    windows: u64,
    route_requeues: bool,
}

impl Shard {
    /// Builds worker `worker`'s racks on the calling thread.
    pub(crate) fn new(facility: &Facility, worker: usize, workers: usize) -> Self {
        Self {
            racks: facility
                .specs
                .iter()
                .skip(worker)
                .step_by(workers)
                .map(|spec| {
                    let driver = RackDriver::build(spec, facility.event_driven);
                    (driver, ClusterOutcome::Running)
                })
                .collect(),
            windows: facility.epoch_windows,
            route_requeues: facility.route_requeues,
        }
    }

    /// Applies each owned rack's inputs (ascending rack index), steps
    /// it up to one epoch, and returns its telemetry in the same order.
    pub(crate) fn advance(&mut self, inputs: Vec<RackInputs>) -> Vec<RackTelemetry> {
        self.racks
            .iter_mut()
            .zip(inputs)
            .map(|((driver, outcome), input)| {
                if let Some(inlet_c) = input.inlet_c {
                    driver.session().rack().set_inlet_c(inlet_c);
                }
                if let Some(cap_w) = input.cap_w {
                    driver
                        .session()
                        .supply()
                        .expect("facility cap settlement requires a rack supply")
                        .set_cap_w(cap_w);
                }
                for task in input.inject {
                    driver.inject(task);
                }
                for _ in 0..self.windows {
                    *outcome = driver.step();
                    if outcome.is_terminal() {
                        break;
                    }
                }
                // Requeue routing drains *after* the epoch's windows:
                // anything still waiting out a crash-retry backoff at
                // the barrier is re-placed by the settlement instead of
                // retrying in place. Free (and empty) when nothing is
                // stranded.
                let stranded = if self.route_requeues {
                    driver.drain_stranded()
                } else {
                    Vec::new()
                };
                let session = driver.session();
                RackTelemetry {
                    heat_w: session.rack_heat_w(),
                    demand: session.ready_backlog() + session.sprinting_count(),
                    alive_frac: session.alive_fraction(),
                    terminal: outcome.is_terminal(),
                    stranded,
                }
            })
            .collect()
    }

    /// Every owned rack's final report and outcome, ascending rack
    /// index.
    pub(crate) fn finish(self) -> Vec<(ClusterReport, ClusterOutcome)> {
        self.racks
            .into_iter()
            .map(|(mut driver, outcome)| (driver.report(), outcome))
            .collect()
    }
}
