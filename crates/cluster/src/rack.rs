//! The shared rack thermal model and its per-node views.
//!
//! A rack is one [`GridThermal`] whose floorplan has one "core"
//! rectangle per *server* (see `GridThermalParams::rack` in
//! `sprint-thermal`). [`RackThermal`] wraps that grid in shared
//! ownership and hands out [`NodeThermalView`]s — one per server — each
//! of which implements the sprint loop's `ThermalModel` port:
//!
//! * a view's `set_chip_power_w` writes *its node's* power onto its
//!   floorplan rectangle (`GridThermal::set_core_power_w`), leaving
//!   every other node's injection alone;
//! * a view's `junction_temp_c` is the hottest cell under *its own*
//!   footprint (`GridThermal::core_temp_c`), not the rack-global
//!   hotspot — a node gates its sprint on its own silicon, while the
//!   cluster scheduler watches the rack-global reading;
//! * a view's `sprint_energy_budget_j` is the node's **nameplate**
//!   regional budget: the storage under its own footprint *at the
//!   rack's design (ambient-inlet) conditions*, captured once at
//!   commissioning. Server-local sprint governors are calibrated
//!   against nameplate inlet temperature — they carry no rack
//!   telemetry, which is Porto et al.'s premise: a node on a hot rack
//!   still *believes* it has its full budget, sprints into exhausted
//!   shared headroom, and trips the hardware failsafe. Live rack state
//!   belongs to the cluster scheduler (admission, deferral, shedding),
//!   not to the nodes: [`RackThermal::node_region_budget_j`] exposes
//!   the true, temperature-aware regional budget for exactly that use.
//!   On a cold rack the nameplate and live figures coincide bit-for-bit
//!   (the nameplate *is* the ambient-state reading), which is why the
//!   1-node equivalence against a standalone session still holds.
//!
//! # Time: the leader-advance rule
//!
//! Many sessions advance one grid, so `advance` cannot simply integrate
//! per call — N lockstep nodes would advance the rack N times per
//! window. Each view instead keeps its node's clock, and the *shared*
//! grid advances only when a view's clock moves past the furthest point
//! already integrated: in a lockstep round the first node to step (the
//! leader) advances the rack by exactly one window, and every other
//! node's `advance` lands on the already-integrated instant and does
//! nothing. Follower nodes' power updates therefore take effect with at
//! most one window of skew — the same reaction lag every other part of
//! the co-simulation loop already has. With a single node the leader
//! path runs every time and the view is *bit-for-bit* the standalone
//! backend (the cluster equivalence test pins this).

use std::cell::RefCell;
use std::rc::Rc;

use sprint_core::thermal_model::ThermalModel;
use sprint_thermal::grid::GridThermal;

/// Cross-node memo for batched follower catch-up: one node's replay of
/// `count` repeated `from + dt + dt + ...` clock additions, keyed
/// bitwise. Sleeping nodes in a fleet share bit-identical clocks (all
/// accumulate the same window length from zero by the same adds), so
/// the first node to replay a gap answers for every other node with
/// the same starting clock — an O(windows) loop becomes O(1) per
/// node. Purely a memo: the cached `to` is the exact value the loop
/// produced, and a lookup only applies when the keys match bitwise
/// and the result provably stays inside the follower regime.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FollowerReplayCache {
    /// Starting clock, bits (bitwise key).
    pub from: u64,
    /// Per-step interval, bits (bitwise key).
    pub dt: u64,
    /// Steps replayed.
    pub count: u64,
    /// Resulting clock after `count` repeated adds.
    pub to: f64,
}

/// The shared state behind every view of one rack.
#[derive(Debug)]
struct RackShared {
    grid: GridThermal,
    /// Per-node simulated clocks, seconds.
    node_time_s: Vec<f64>,
    /// Memoized follower replay (see [`FollowerReplayCache`]).
    replay_cache: Option<FollowerReplayCache>,
    /// How far the grid has been integrated, seconds. Kept separately
    /// from the grid's own clock so lockstep leaders advance by their
    /// exact window length (re-deriving the lead from the grid clock
    /// would pick up sub-stepping round-off and break bit equality
    /// with a standalone backend).
    advanced_to_s: f64,
    /// Per-node regional sprint budgets at commissioning (the rack at
    /// ambient), joules — the *nameplate* figure node-local governors
    /// are calibrated against (see the module docs).
    nameplate_budget_j: Vec<f64>,
}

/// A rack thermal model shared by many node sessions.
///
/// Cloning is shallow: clones view the same underlying grid.
#[derive(Debug, Clone)]
pub struct RackThermal {
    shared: Rc<RefCell<RackShared>>,
}

impl RackThermal {
    /// Wraps a grid whose floorplan carries one core rectangle per
    /// server node.
    ///
    /// # Panics
    ///
    /// Panics if the grid's floorplan is empty.
    /// Panics if the grid has already been advanced: commissioning
    /// captures the nameplate budgets, which must be the ambient-state
    /// readings (pass a freshly built grid).
    pub fn new(grid: GridThermal) -> Self {
        let nodes = grid.params().floorplan.core_count();
        assert!(nodes >= 1, "a rack needs at least one node");
        assert!(
            grid.time_s() == 0.0,
            "racks are commissioned from a freshly built (ambient) grid: \
             the nameplate budgets must be the ambient-state readings"
        );
        // Nameplate calibration: the regional budgets as commissioned,
        // i.e. with the whole rack at ambient — the reading a
        // standalone cold backend would report bit-for-bit.
        let nameplate_budget_j = (0..nodes).map(|n| grid.region_sprint_budget_j(n)).collect();
        Self {
            shared: Rc::new(RefCell::new(RackShared {
                grid,
                node_time_s: vec![0.0; nodes],
                replay_cache: None,
                advanced_to_s: 0.0,
                nameplate_budget_j,
            })),
        }
    }

    /// Number of server nodes (floorplan cores).
    pub fn nodes(&self) -> usize {
        self.shared.borrow().node_time_s.len()
    }

    /// The `ThermalModel` view for node `node`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_view(&self, node: usize) -> NodeThermalView {
        assert!(node < self.nodes(), "node index out of range");
        NodeThermalView {
            shared: Rc::clone(&self.shared),
            node,
        }
    }

    /// Runs `f` against the underlying grid (read-only inspection:
    /// temperatures, gradients, stored energy).
    pub fn with_grid<R>(&self, f: impl FnOnce(&GridThermal) -> R) -> R {
        f(&self.shared.borrow().grid)
    }

    /// Rack-global hottest server cell, Celsius — what the cluster
    /// scheduler (not any single node) reacts to.
    pub fn junction_temp_c(&self) -> f64 {
        self.shared.borrow().grid.junction_temp_c()
    }

    /// Rack-global headroom below the limit, Kelvin.
    pub fn headroom_k(&self) -> f64 {
        let s = self.shared.borrow();
        s.grid.t_max_c() - s.grid.junction_temp_c()
    }

    /// Writes each node's current hotspot temperature into `out`
    /// (non-allocating; the scheduler polls this every window).
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals the node count.
    pub fn node_temps_c_into(&self, out: &mut [f64]) {
        self.shared.borrow().grid.core_temps_c_into(out);
    }

    /// One node's *live*, temperature-aware regional sprint budget,
    /// joules — the rack-telemetry reading the cluster scheduler may
    /// act on (node-local governors only ever see the nameplate figure;
    /// see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_region_budget_j(&self, node: usize) -> f64 {
        self.shared.borrow().grid.region_sprint_budget_j(node)
    }

    /// One node's nameplate regional budget, joules (constant after
    /// commissioning).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_nameplate_budget_j(&self, node: usize) -> f64 {
        self.shared.borrow().nameplate_budget_j[node]
    }

    /// How far the rack has been integrated, seconds.
    pub fn time_s(&self) -> f64 {
        self.shared.borrow().advanced_to_s
    }

    /// The rack's current inlet-air (ambient) temperature, Celsius.
    pub fn inlet_c(&self) -> f64 {
        self.shared.borrow().grid.ambient_c()
    }

    /// Sets the rack's inlet-air temperature — the facility settlement
    /// hook (`sprint-facility`): row-level airflow recirculation raises
    /// a rack's inlet air as its row's exhaust heat exceeds the CRAC
    /// capacity, coupling racks that share nothing else. Takes effect
    /// on the next `advance`; the nameplate budgets are untouched (they
    /// are commissioning-time constants by design — a hot row is
    /// precisely the telemetry node-local governors cannot see).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite inlet or one at/above the thermal limit.
    pub fn set_inlet_c(&self, inlet_c: f64) {
        self.shared.borrow_mut().grid.set_ambient_c(inlet_c);
    }
}

/// One node's `ThermalModel` view of the shared rack (see the module
/// docs for the mapping and the leader-advance rule).
#[derive(Debug, Clone)]
pub struct NodeThermalView {
    shared: Rc<RefCell<RackShared>>,
    node: usize,
}

impl NodeThermalView {
    /// The node index this view maps onto.
    pub fn node(&self) -> usize {
        self.node
    }
}

impl ThermalModel for NodeThermalView {
    fn set_chip_power_w(&mut self, watts: f64) {
        self.shared
            .borrow_mut()
            .grid
            .set_core_power_w(self.node, watts);
    }

    fn set_active_core_count(&mut self, cores: usize) {
        // A server sprints as a unit: its whole floorplan rectangle
        // carries whatever power it dissipates. Within-node core
        // placement is below this model's resolution.
        let _ = cores;
    }

    fn advance(&mut self, dt_s: f64) {
        let mut s = self.shared.borrow_mut();
        let t = s.node_time_s[self.node];
        let target = t + dt_s;
        if t >= s.advanced_to_s {
            // Leader: this node's clock is at (or past) the integration
            // frontier, so the rack advances by exactly `dt_s`.
            if dt_s > 0.0 {
                s.grid.advance(dt_s);
            }
            s.advanced_to_s = target;
        } else if target > s.advanced_to_s {
            // Straggler overtaking the frontier (a node stepped with a
            // larger window): integrate only the uncovered remainder.
            let lead = target - s.advanced_to_s;
            s.grid.advance(lead);
            s.advanced_to_s = target;
        }
        // Follower inside the frontier: the interval is already
        // integrated (with this node's power as of the leader's pass).
        s.node_time_s[self.node] = target;
    }

    fn advance_many(&mut self, dt_s: f64, count: u64) {
        // Batched follower catch-up: one borrow for the whole run, with
        // per-iteration arithmetic identical to the looped `advance`
        // path (`t + dt_s` per step, never `count * dt_s` — the event
        // core's digests are pinned bit-for-bit against lockstep). The
        // moment an iteration would lead or overtake the frontier, the
        // grid must integrate, so bail to the per-call path for the
        // remainder.
        let mut remaining = count;
        {
            let mut s = self.shared.borrow_mut();
            let s = &mut *s;
            let node = self.node;
            let frontier = s.advanced_to_s;
            let t0 = s.node_time_s[node];
            // Cross-node memo (see `FollowerReplayCache`). Validity:
            // for `dt_s > 0` the clock is strictly increasing, so a
            // cached final clock at or inside the frontier proves
            // every intermediate step satisfied the follower
            // condition (`t < frontier` and `target <= frontier`) —
            // the loop below would have taken exactly these steps.
            if dt_s > 0.0 {
                if let Some(c) = s.replay_cache {
                    if c.from == t0.to_bits()
                        && c.dt == dt_s.to_bits()
                        && c.count == count
                        && c.to <= frontier
                    {
                        s.node_time_s[node] = c.to;
                        return;
                    }
                }
            }
            let mut t = t0;
            while remaining > 0 {
                let target = t + dt_s;
                if t >= frontier || target > frontier {
                    break;
                }
                t = target;
                remaining -= 1;
            }
            s.node_time_s[node] = t;
            if remaining == 0 && count > 0 && dt_s > 0.0 {
                s.replay_cache = Some(FollowerReplayCache {
                    from: t0.to_bits(),
                    dt: dt_s.to_bits(),
                    count,
                    to: t,
                });
            }
        }
        for _ in 0..remaining {
            self.advance(dt_s);
        }
    }

    fn junction_temp_c(&self) -> f64 {
        let s = self.shared.borrow();
        s.grid.core_temp_c(self.node)
    }

    fn headroom_k(&self) -> f64 {
        let s = self.shared.borrow();
        s.grid.t_max_c() - s.grid.core_temp_c(self.node)
    }

    fn melt_fraction(&self) -> f64 {
        // Phase state is a rack-wide property (a rack stack usually has
        // no PCM at all; one that does shares it).
        self.shared.borrow().grid.melt_fraction()
    }

    fn at_thermal_limit(&self) -> bool {
        let s = self.shared.borrow();
        s.grid.core_temp_c(self.node) >= s.grid.t_max_c() - 1e-9
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        // The *nameplate* budget, deliberately blind to the live rack
        // state: a server's governor is calibrated at commissioning
        // and has no rack telemetry (module docs). On a hot rack this
        // over-credits the node — it sprints into exhausted shared
        // headroom and the hardware failsafe catches it, which is the
        // unmanaged-rack failure mode admission control exists to
        // prevent.
        self.shared.borrow().nameplate_budget_j[self.node]
    }

    fn t_max_c(&self) -> f64 {
        self.shared.borrow().grid.t_max_c()
    }

    fn ambient_c(&self) -> f64 {
        self.shared.borrow().grid.ambient_c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_thermal::grid::GridThermalParams;

    fn rack2x2() -> RackThermal {
        RackThermal::new(GridThermalParams::rack(2, 2).build())
    }

    #[test]
    fn views_write_their_own_node_power() {
        let rack = rack2x2();
        let mut v0 = rack.node_view(0);
        let mut v3 = rack.node_view(3);
        v0.set_chip_power_w(16.0);
        v3.set_chip_power_w(1.0);
        rack.with_grid(|g| {
            assert_eq!(g.core_power_w(0), 16.0);
            assert_eq!(g.core_power_w(3), 1.0);
            assert_eq!(g.core_power_w(1), 0.0);
            assert_eq!(g.chip_power_w(), 17.0);
        });
    }

    #[test]
    fn lockstep_advances_the_rack_once_per_round() {
        let rack = rack2x2();
        let mut views: Vec<NodeThermalView> = (0..4).map(|n| rack.node_view(n)).collect();
        views[0].set_chip_power_w(8.0);
        for round in 1..=10 {
            for v in views.iter_mut() {
                v.advance(0.01);
            }
            let expected = 0.01 * round as f64;
            assert!(
                (rack.time_s() - expected).abs() < 1e-12,
                "round {round}: rack at {} not {expected}",
                rack.time_s()
            );
        }
        // The heated node's view is hotter than a far corner's.
        assert!(views[0].junction_temp_c() > views[3].junction_temp_c() + 0.1);
    }

    #[test]
    fn node_views_report_their_own_hotspot_not_the_rack_global() {
        let rack = rack2x2();
        let mut v0 = rack.node_view(0);
        let v3 = rack.node_view(3);
        v0.set_chip_power_w(16.0);
        v0.advance(5.0);
        let global = rack.junction_temp_c();
        assert!(
            (v0.junction_temp_c() - global).abs() < 1e-12,
            "the hot node is the global hotspot"
        );
        assert!(
            v3.junction_temp_c() < global - 0.5,
            "a cool node must not inherit the rack-global hotspot: {} vs {global}",
            v3.junction_temp_c()
        );
        assert!(v3.headroom_k() > v0.headroom_k() + 0.5);
    }

    #[test]
    fn scheduler_telemetry_sees_neighbour_heat_but_nameplate_does_not() {
        let rack = rack2x2();
        let mut v0 = rack.node_view(0);
        let v1 = rack.node_view(1);
        let cold_live = rack.node_region_budget_j(1);
        let nameplate = v1.sprint_energy_budget_j();
        assert_eq!(
            nameplate.to_bits(),
            cold_live.to_bits(),
            "at commissioning the nameplate is the live reading"
        );
        v0.set_chip_power_w(16.0);
        v0.advance(20.0);
        // The scheduler's live telemetry shrinks with shared heat…
        assert!(
            rack.node_region_budget_j(1) < cold_live,
            "shared heat must reach the live regional budget: {} vs {cold_live}",
            rack.node_region_budget_j(1)
        );
        // …while the node's own governor still sees its nameplate.
        assert_eq!(v1.sprint_energy_budget_j().to_bits(), nameplate.to_bits());
        assert_eq!(
            rack.node_nameplate_budget_j(1).to_bits(),
            nameplate.to_bits()
        );
    }
}
