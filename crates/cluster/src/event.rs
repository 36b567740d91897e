//! The event-driven cluster core: the lockstep semantics, paid only
//! where something happens.
//!
//! The paper's sprint-and-rest regime means most nodes are idle or
//! resting most of the time, yet the lockstep [`ClusterSession::step`]
//! loop touches *every* node *every* sampling window — cost scales
//! with fleet size instead of activity. [`EventDrivenCluster`] runs the
//! same windows in the same phase order, but runs each phase only on
//! windows where it can act, and each node only on windows where it
//! has something the shared state will read. Every wake-up is read
//! from state the session already keeps; there is no event queue.
//!
//! # What runs each window
//!
//! * **Faults** run when the plan's next unapplied event is stamped
//!   for this window (the session's fault cursor).
//! * **Arrivals** run when the next pending task's arrival time has
//!   come or the next crash-retry's backoff has expired — the very
//!   predicates the arrival and requeue pops stop on.
//! * **The scheduler passes** (assignment, the thermal and power shed
//!   passes) run when faults or arrivals fired, or when the passes
//!   could observe or mutate anything: the ready queue or the grant
//!   rotation is non-empty. Every sprinting node holds a grant, and
//!   assignment opens the passes by sweeping the grants whose sprints
//!   ended, so on any other window they are provably side-effect-free.
//!   They read each node's sensor on demand, and nothing advances the
//!   grid or a fault state between the fault phase and the node phase,
//!   so they read what the lockstep passes read. Assignment ranks the
//!   idle set once and hands back the nodes it started, which join the
//!   busy list. Only
//!   [`EventDrivenCluster::inject_task`] (which grows the ready queue)
//!   and [`EventDrivenCluster::drain_stranded_requeues`] reach the
//!   session between windows, so checking at the start of a window
//!   sees what the end of the previous one left.
//! * **The node phase** is one ascending loop over node 0, the busy
//!   list and the owed list. Node 0 is the settlement leader: its
//!   advance integrates the shared grid and settles the supply pool,
//!   which is bitwise irreducible (the ADI sweeps have no fixed point,
//!   and the peak-junction sample reads every window), so it runs
//!   every window. Busy nodes step their task.
//!
//! # The owed-rest rule
//!
//! A node's first rest after it goes idle has shared-state effects the
//! next settlement reads: it zeroes the core power its task was
//! injecting into the grid and records its idle draw on the pool. It
//! cannot be deferred. So a node that loses its task outside a rest —
//! it finishes the task, crashes before the node phase, or is a
//! duplicate loser its winner cancelled — goes on the owed list and
//! rests for real in the next node phase: this window for a crash,
//! the next one otherwise. Every rest after that writes the same two
//! values again, so the node can sleep. The owed list is carried
//! across a `Drained` return, so a drained rack later handed a task
//! still takes a finished node's power off the grid. It starts as
//! nodes `1..`, whose first rest records their idle draw.
//!
//! # The lazy rest replay
//!
//! Only node 0's thermal and supply views move shared time; every
//! other node's `advance` is a no-op and its `idle_recharge` records its
//! draw and settles nothing (`rack` and `supply` module docs). So a
//! sleeping node's remaining rest effects are private: its idle clock
//! and the idle draw it records again each window. They are replayed
//! verbatim — `rest_many`, whose contract is bit-identical to the
//! looped `rest` calls — when the node takes work (before the shed
//! passes stamp a preemption with its clock; the scheduler reads none
//! of these effects), and at terminal and report time. Node 0 never
//! sleeps, so a sleeping fleet costs a fraction of the lockstep loop.
//!
//! # The lockstep path is the golden oracle
//!
//! The lockstep stepper remains intact and authoritative: for any
//! configuration, the event-driven run must reproduce the lockstep
//! [`ClusterReport`] **digest byte-for-byte**
//! ([`ClusterReport::digest`]). The equivalence tests in
//! `tests/event_core.rs` (and the facility-level digests across worker
//! thread counts) pin this invariant.

use crate::cluster::{ClusterOutcome, ClusterReport, ClusterSession};
use crate::queue::ClusterTask;

/// The event-driven cluster core. Wraps a [`ClusterSession`] and
/// drives it window-accurate but activity-proportional; see the module
/// docs for what runs each window and the golden-oracle invariant.
pub struct EventDrivenCluster {
    inner: ClusterSession,
    /// Windows fully executed per node. Node 0 is always current; a
    /// sleeping node's deficit is replayed by [`Self::catch_up`].
    done: Vec<u64>,
    /// Nodes currently holding a task, ascending. A task appears only
    /// via `assign_ready` (which names the nodes it started) and leaves
    /// through a crash, a completion or a cancellation (after which
    /// [`Self::retire_idle`] moves the node to `owed`). This is what
    /// lets a quiet window cost O(active) instead of O(fleet).
    busy: Vec<u32>,
    /// Idle nodes that owe their first rest, ascending (the owed-rest
    /// rule in the module docs).
    owed: Vec<u32>,
}

impl std::fmt::Debug for EventDrivenCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventDrivenCluster")
            .field("windows", &self.inner.windows)
            .field("busy", &self.busy.len())
            .field("owed", &self.owed.len())
            .field("session", &self.inner)
            .finish()
    }
}

impl EventDrivenCluster {
    /// Wraps a (freshly built) lockstep session in the event-driven
    /// core.
    ///
    /// # Panics
    ///
    /// Panics if the session has already been stepped: the event core
    /// must own the run from window 0 to know every node's rest ledger.
    pub fn new(inner: ClusterSession) -> Self {
        assert_eq!(
            inner.windows, 0,
            "the event-driven core must own the run from window 0"
        );
        let nodes = inner.nodes.len();
        Self {
            inner,
            done: vec![0; nodes],
            busy: Vec::new(),
            owed: (1..nodes as u32).collect(),
        }
    }

    /// Whether the lockstep scheduler passes could observe or mutate
    /// anything this window. Assignment places only from a non-empty
    /// ready queue, and its opening sweep and the shed passes act only
    /// on grant-rotation entries. A sprint starts only through an
    /// admission that grants it, and a grant leaves the rotation only
    /// once its node stops sprinting, so an empty rotation means no
    /// node sprints.
    fn scheduler_armed(&self) -> bool {
        !self.inner.ready.is_empty() || !self.inner.grant_order.is_empty()
    }

    /// Moves every busy-list entry that no longer holds a task onto
    /// the owed list, which stays ascending (after a fault phase it
    /// already holds the nodes retired last window).
    fn retire_idle(&mut self) {
        let fleet = &self.inner.nodes;
        let owed = &mut self.owed;
        self.busy.retain(|&i| {
            let busy = fleet[i as usize].task.is_some();
            if !busy {
                owed.push(i);
            }
            busy
        });
        owed.sort_unstable();
    }

    /// Replays every sleeping node's outstanding rest windows so all
    /// nodes have executed windows `0..target`. Only nodes `1..` can
    /// sleep, and their views never move shared time, so the replay
    /// touches nothing but each node's own ledger: it reproduces the
    /// *same* per-window `rest` sequence the lockstep loop would have
    /// made — batched through `rest_many`, whose contract is
    /// bit-identical to the loop — and the bit pattern of every touched
    /// float is identical to the lockstep run's. The batching is what
    /// makes sleeping cheap: a replayed window costs an add to the idle
    /// clock, and the supply side records the idle draw once.
    fn catch_up_all(&mut self, target: u64) {
        for i in 1..self.inner.nodes.len() {
            debug_assert!(
                self.done[i] == target || self.inner.nodes[i].task.is_none(),
                "a busy node can never sleep"
            );
            self.catch_up(i, target);
        }
    }

    /// Replays node `i`'s rest windows up to `target`. A current node
    /// replays nothing: it may still owe the rest that zeroes its power.
    fn catch_up(&mut self, i: usize, target: u64) {
        let deficit = target - self.done[i];
        if deficit > 0 {
            self.inner.nodes[i]
                .session
                .rest_many(self.inner.window_s, deficit);
            self.done[i] = target;
        }
    }

    /// Advances the cluster by one sampling window — same contract and
    /// same outcome sequence as the lockstep [`ClusterSession::step`],
    /// with sleeping nodes' ledgers settled lazily. On a terminal
    /// outcome every node is caught up, so the session state (and its
    /// report) is byte-identical to the lockstep run's.
    pub fn step(&mut self) -> ClusterOutcome {
        if self.inner.drained() {
            self.catch_up_all(self.inner.windows);
            return ClusterOutcome::Drained;
        }
        if self.inner.windows >= self.inner.max_windows {
            self.catch_up_all(self.inner.windows);
            return ClusterOutcome::TimeLimit;
        }
        let w = self.inner.windows;
        // Faults fire before anything reads a sensor — the lockstep
        // order. A crash strips a busy node's task before its turn, so
        // it owes its first rest this window.
        let faults = self.inner.due_fault().is_some();
        if faults {
            self.inner.apply_faults();
            self.retire_idle();
        }
        let now = self.inner.now_s();
        let arrivals = self.inner.arrival_due(now) || self.inner.requeue_due();
        // The failsafe may preempt a sprint and a crash may free a
        // node, so a fault window always runs the scheduler passes.
        if faults || arrivals || self.scheduler_armed() {
            if arrivals {
                self.inner.pop_arrivals(now);
                self.inner.pop_requeues();
            }
            // Only the nodes assignment started are brought current
            // (the lazy rest replay in the module docs).
            for i in self.inner.assign_ready(now) {
                self.catch_up(i, w);
                self.busy.push(i as u32);
            }
            self.busy.sort_unstable();
            self.inner.shed_pass(now);
            self.inner.power_shed_pass(now);
        }
        // Node phase: node 0 ∪ busy ∪ owed, ascending, each once. A
        // busy node a lower-indexed winner cancelled this window is
        // reached task-less and rests, exactly as in the lockstep loop;
        // the owed rest it then gets next window writes the same values
        // again, so it is redundant but harmless.
        let (mut b, mut o, mut i) = (0, 0, 0);
        loop {
            debug_assert_eq!(self.done[i], w, "an executing node must be current");
            self.inner.run_node_window(i);
            self.done[i] = w + 1;
            while self.busy.get(b).is_some_and(|&n| n as usize <= i) {
                b += 1;
            }
            while self.owed.get(o).is_some_and(|&n| n as usize <= i) {
                o += 1;
            }
            match self.busy.get(b).into_iter().chain(self.owed.get(o)).min() {
                Some(&next) => i = next as usize,
                None => break,
            }
        }
        self.owed.clear();
        self.retire_idle();
        self.inner.close_window();
        if self.inner.drained() {
            self.catch_up_all(self.inner.windows);
            return ClusterOutcome::Drained;
        }
        ClusterOutcome::Running
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

    /// Builds the cluster summary for the run so far. Takes `&mut
    /// self` because sleeping nodes' rest ledgers are settled first —
    /// the report is byte-identical to the lockstep run's at the same
    /// window count.
    pub fn report(&mut self) -> ClusterReport {
        self.catch_up_all(self.inner.windows);
        self.inner.report()
    }

    /// Settles every sleeping node and hands back the inner session,
    /// indistinguishable from a lockstep session stepped to the same
    /// window.
    pub fn into_session(mut self) -> ClusterSession {
        self.catch_up_all(self.inner.windows);
        self.inner
    }

    /// The wrapped session (read-only; sleeping nodes may be behind on
    /// their private rest ledgers until the next catch-up point).
    pub fn session(&self) -> &ClusterSession {
        &self.inner
    }

    /// [`ClusterSession::drain_stranded_requeues`]. A drained entry
    /// simply stops being due, so the arrivals phase it would have
    /// woken never runs.
    pub fn drain_stranded_requeues(&mut self) -> Vec<ClusterTask> {
        self.inner.drain_stranded_requeues()
    }

    /// [`ClusterSession::inject_task`]. The new ready entry arms the
    /// scheduler passes for the next window, so even a fully-sleeping
    /// fleet (a rack that drained before the facility routed a task
    /// here) wakes to run it.
    pub fn inject_task(&mut self, task: ClusterTask) -> usize {
        self.inner.inject_task(task)
    }

    /// Sampling windows stepped so far.
    pub fn windows(&self) -> u64 {
        self.inner.windows
    }
}
