//! Worker-thread sharding for rack advancement.
//!
//! A [`ClusterSession`] holds `Rc<RefCell<...>>` shared rack state and
//! is not `Send`, so sessions cannot migrate between threads. Instead,
//! each worker thread *builds* its racks from plain-data [`RackSpec`]s
//! and owns them for the whole run; the main thread drives epochs over
//! `mpsc` channels carrying only plain data (inputs in, telemetry out).
//! Workers step their racks in ascending rack index, but rack order
//! inside an epoch is immaterial: racks share no mutable state between
//! settlement barriers, which is what makes the report independent of
//! the worker count.

use std::sync::mpsc::{Receiver, Sender};

use sprint_cluster::{
    ClusterOutcome, ClusterReport, ClusterSession, ClusterTask, EventDrivenCluster,
};

use crate::facility::RackSpec;

/// One rack's stepping core: the lockstep oracle, or the event-driven
/// core that skips idle nodes between their thermally-relevant ticks.
/// Both expose the identical window-granular protocol the settlement
/// barrier needs, and by the cluster crate's golden-equivalence
/// invariant they produce byte-identical reports — so the facility
/// digest is independent of which driver ran, not just of the worker
/// count.
pub(crate) enum RackDriver {
    /// The lockstep [`ClusterSession`] stepper (the oracle).
    Lockstep(ClusterSession),
    /// The event-heap core over the same session.
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
    /// entry (the event core also arms the wake-up tick).
    fn inject(&mut self, task: ClusterTask) {
        match self {
            RackDriver::Lockstep(s) => {
                s.inject_task(task);
            }
            RackDriver::Event(e) => {
                e.inject_task(task);
            }
        }
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct RackEpochStats {
    /// Heat the rack currently injects into its grid, watts.
    pub heat_w: f64,
    /// Tasks arrived but not yet placed on a node.
    pub backlog: usize,
    /// Nodes currently holding a sprint grant.
    pub sprinting: usize,
    /// Fraction of the rack's nodes not quarantined by crashes (1.0
    /// for a healthy rack).
    pub alive_frac: f64,
    /// Whether the rack can make no further progress.
    pub terminal: bool,
}

/// Main-to-worker commands.
pub(crate) enum Command {
    /// Advance every owned rack by up to `windows` sampling windows,
    /// applying each rack's inputs first. `inputs[i]` pairs with the
    /// worker's i-th owned rack (ascending rack index).
    Advance {
        /// Windows to step this epoch.
        windows: u64,
        /// Per-owned-rack boundary inputs.
        inputs: Vec<RackInputs>,
    },
    /// Tear down: reply with every owned rack's final report.
    Finish,
}

/// Worker-to-main replies, tagged with the global rack index.
pub(crate) enum Reply {
    /// End-of-epoch telemetry for one rack, plus any stranded
    /// crash-retries drained off it for cross-rack re-placement
    /// (always empty unless the facility routes requeues).
    Epoch(usize, RackEpochStats, Vec<ClusterTask>),
    /// Final per-rack report and outcome after `Finish`.
    Final(usize, Box<ClusterReport>, ClusterOutcome),
    /// A worker died mid-run: its panic message, re-raised by the
    /// driver. Without this a surviving worker's open channel would
    /// park the settlement barrier's `recv` forever — the run must
    /// fail with the worker's diagnostic, not hang.
    Panic(String),
}

/// The worker loop: builds the owned racks (on the driver the facility
/// selected), then serves epochs until `Finish` (or the command channel
/// closes).
pub(crate) fn worker(
    specs: Vec<(usize, RackSpec)>,
    event_driven: bool,
    route_requeues: bool,
    rx: Receiver<Command>,
    tx: Sender<Reply>,
) {
    let mut racks: Vec<(usize, RackDriver, ClusterOutcome)> = specs
        .into_iter()
        .map(|(rack, spec)| {
            (
                rack,
                RackDriver::build(&spec, event_driven),
                ClusterOutcome::Running,
            )
        })
        .collect();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Advance { windows, inputs } => {
                for ((rack, driver, outcome), input) in racks.iter_mut().zip(inputs) {
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
                    for _ in 0..windows {
                        *outcome = driver.step();
                        if outcome.is_terminal() {
                            break;
                        }
                    }
                    // Requeue routing drains *after* the epoch's
                    // windows: anything still waiting out a crash-retry
                    // backoff at the barrier is re-placed by the
                    // settlement instead of retrying in place. Free
                    // (and empty) when nothing is stranded.
                    let stranded = if route_requeues {
                        driver.drain_stranded()
                    } else {
                        Vec::new()
                    };
                    let session = driver.session();
                    let stats = RackEpochStats {
                        heat_w: session.rack_heat_w(),
                        backlog: session.ready_backlog(),
                        sprinting: session.sprinting_count(),
                        alive_frac: session.alive_fraction(),
                        terminal: outcome.is_terminal(),
                    };
                    if tx.send(Reply::Epoch(*rack, stats, stranded)).is_err() {
                        return;
                    }
                }
            }
            Command::Finish => {
                for (rack, driver, outcome) in racks.iter_mut() {
                    let _ = tx.send(Reply::Final(*rack, Box::new(driver.report()), *outcome));
                }
                return;
            }
        }
    }
}
