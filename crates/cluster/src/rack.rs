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
//! # Time: node 0 leads
//!
//! Many sessions advance one grid, so `advance` cannot simply integrate
//! per call — N lockstep nodes would advance the rack N times per
//! window. Only node 0's view moves shared time: its `advance`
//! integrates the grid by exactly its `dt_s`, and every other view's
//! `advance` does nothing. Both cluster steppers advance every node
//! once per window, by the same window, with node 0 first, so node 0's
//! pass carries the whole rack across each window. Other nodes' power
//! updates therefore take effect with at most one window of skew — the
//! same reaction lag every other part of the co-simulation loop already
//! has. With a single node, node 0 is the
//! whole rack and the view is *bit-for-bit* the standalone backend (the
//! cluster equivalence test pins this).

use std::cell::RefCell;
use std::rc::Rc;

use sprint_core::thermal_model::ThermalModel;
use sprint_thermal::grid::GridThermal;

/// The shared state behind every view of one rack.
#[derive(Debug)]
struct RackShared {
    grid: GridThermal,
    /// How far node 0 has integrated the grid, seconds: the sum of its
    /// window lengths. Kept separately from the grid's own clock, which
    /// accumulates sub-steps and so picks up round-off.
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
                advanced_to_s: 0.0,
                nameplate_budget_j,
            })),
        }
    }

    /// Number of server nodes (floorplan cores).
    pub fn nodes(&self) -> usize {
        self.shared.borrow().nameplate_budget_j.len()
    }

    /// The `ThermalModel` view for node `node`. Only view 0 moves
    /// shared time: every other view's `advance` is a no-op (see the
    /// module docs), so node 0 must step first in every window.
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
/// docs for the mapping and the node-0 time rule).
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
        // Node 0 carries the whole rack across the window; by the time
        // any other node steps, its interval is already integrated
        // (with its power as of node 0's pass).
        if self.node != 0 {
            return;
        }
        let mut s = self.shared.borrow_mut();
        if dt_s > 0.0 {
            s.grid.advance(dt_s);
        }
        s.advanced_to_s += dt_s;
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

    /// Every cell temperature's bits, plus the rack clock's.
    fn rack_bits(rack: &RackThermal) -> Vec<u64> {
        let mut bits = vec![rack.time_s().to_bits()];
        rack.with_grid(|g| {
            let p = g.params();
            for layer in 0..g.layer_count() {
                for y in 0..p.ny {
                    for x in 0..p.nx {
                        bits.push(g.cell_temp_c(layer, x, y).to_bits());
                    }
                }
            }
        });
        bits
    }

    #[test]
    fn views_other_than_zero_never_move_the_rack() {
        let rack = rack2x2();
        let mut v0 = rack.node_view(0);
        v0.set_chip_power_w(8.0);
        v0.advance(0.1);
        for n in 1..4 {
            // Heated and stepped well past node 0's clock, alone.
            let mut v = rack.node_view(n);
            v.set_chip_power_w(16.0);
            let before = rack_bits(&rack);
            v.advance(0.5);
            v.advance_many(0.5, 3);
            assert_eq!(rack_bits(&rack), before, "view {n} moved the rack");
        }
    }

    #[test]
    fn view_zero_moves_the_rack_by_exactly_its_dt() {
        let rack = rack2x2();
        let mut v0 = rack.node_view(0);
        let mut v2 = rack.node_view(2);
        v2.set_chip_power_w(16.0);
        v2.advance(1.0);
        for _ in 0..3 {
            let t = rack.time_s();
            v0.advance(0.1);
            assert_eq!(rack.time_s().to_bits(), (t + 0.1).to_bits());
        }
        // Node 0's pass integrates the power node 2 recorded.
        assert!(v2.junction_temp_c() > rack.node_view(1).junction_temp_c() + 0.1);
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
