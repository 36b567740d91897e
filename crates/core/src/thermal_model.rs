//! The thermal-backend abstraction of the co-simulation loop.
//!
//! The coupled loop (Section 8.1) only ever asks a thermal model six
//! questions: take this power, advance this far, and report junction
//! temperature, headroom, melt state and remaining sprint capacity.
//! [`ThermalModel`] captures exactly that contract, making
//! [`SprintSession`](crate::session::SprintSession) and
//! [`SprintController`](crate::controller::SprintController) generic over
//! the backend: the paper's phone package
//! ([`sprint_thermal::phone::PhoneThermal`]) is one implementation, the
//! single-node [`LumpedThermal`] reference backend another, and
//! finer-grained models (HotSpot-style grids, data-center racks à la
//! Porto et al.'s "fast, but not so furious" sprinting) slot in without
//! touching the loop.
//!
//! # The thermal *port*
//!
//! `ThermalModel` is a port, not just a trait over owned backends: the
//! blanket implementations for `&mut T` and `Box<T>` (including
//! `Box<dyn ThermalModel>`) mean a session does not have to *own* its
//! thermal state. A caller can keep the backend, lend
//! `SprintSession::<&mut GridThermal, _>` a borrow for one burst and
//! inspect the grid between bursts; heterogeneous collections of
//! sessions can erase the backend behind `Box<dyn ThermalModel>`; and a
//! *shared* backend can stand behind several sessions at once through a
//! view type — `sprint_cluster`'s per-node rack views drive many
//! sessions against one rack-wide grid, each view mapping its session's
//! power onto its node's floorplan rectangle and reporting its node's
//! own hottest cell (not the rack-global one) as the junction.

use sprint_thermal::grid::GridThermal;
use sprint_thermal::phone::PhoneThermal;

/// A thermal backend the sprint loop can drive.
///
/// Implementations must be *causal* accumulators: [`set_chip_power_w`]
/// fixes the heat injected at the junction until the next call, and
/// [`advance`] integrates the network forward. All temperature queries
/// refer to the state after the last `advance`.
///
/// [`set_chip_power_w`]: ThermalModel::set_chip_power_w
/// [`advance`]: ThermalModel::advance
pub trait ThermalModel {
    /// Sets the instantaneous chip power dissipation in watts.
    fn set_chip_power_w(&mut self, watts: f64);

    /// Tells the backend how many cores dissipated the power of the last
    /// window. Spatial backends (grids) map the power onto the active
    /// cores' floorplan footprints; lumped backends ignore it (the
    /// default no-op).
    fn set_active_core_count(&mut self, cores: usize) {
        let _ = cores;
    }

    /// Advances the model by `dt_s` seconds.
    fn advance(&mut self, dt_s: f64);

    /// Advances the model by `count` consecutive intervals of `dt_s`
    /// seconds each. The default is literally a loop of [`advance`]
    /// calls, so every backend satisfies the bit-for-bit contract by
    /// construction: `advance_many(dt, n)` must leave the model in
    /// exactly the state `n` successive `advance(dt)` calls would. The
    /// event-driven cluster core replays sleeping nodes' rests through
    /// it, and its digests are pinned byte-for-byte against the
    /// lockstep oracle. A rack's per-node views keep the default: only
    /// node 0, which never sleeps, moves the shared grid, so a sleeping
    /// node's `advance` is a no-op.
    ///
    /// [`advance`]: ThermalModel::advance
    fn advance_many(&mut self, dt_s: f64, count: u64) {
        for _ in 0..count {
            self.advance(dt_s);
        }
    }

    /// Junction temperature, Celsius.
    fn junction_temp_c(&self) -> f64;

    /// Remaining headroom before the junction hits the safe limit, Kelvin.
    fn headroom_k(&self) -> f64;

    /// Phase-change melt fraction in `[0, 1]` (zero for backends without
    /// latent storage).
    fn melt_fraction(&self) -> f64;

    /// True once the junction has reached the maximum safe temperature.
    fn at_thermal_limit(&self) -> bool;

    /// Sprint energy budget from the *current* state, joules: how much
    /// above-sustainable energy the package can still absorb before the
    /// junction reaches the limit (Section 4's "16 joules").
    fn sprint_energy_budget_j(&self) -> f64;

    /// Maximum safe junction temperature, Celsius.
    fn t_max_c(&self) -> f64;

    /// Ambient temperature, Celsius.
    fn ambient_c(&self) -> f64;
}

/// The port in action: a session may borrow its backend instead of
/// owning it. Every method forwards; `set_active_core_count` and
/// `advance_many` forward explicitly so spatial backends keep their
/// power maps and an overriding backend keeps its batched path (the
/// trait defaults would silently drop both).
impl<T: ThermalModel + ?Sized> ThermalModel for &mut T {
    fn set_chip_power_w(&mut self, watts: f64) {
        (**self).set_chip_power_w(watts);
    }

    fn set_active_core_count(&mut self, cores: usize) {
        (**self).set_active_core_count(cores);
    }

    fn advance(&mut self, dt_s: f64) {
        (**self).advance(dt_s);
    }

    fn advance_many(&mut self, dt_s: f64, count: u64) {
        (**self).advance_many(dt_s, count);
    }

    fn junction_temp_c(&self) -> f64 {
        (**self).junction_temp_c()
    }

    fn headroom_k(&self) -> f64 {
        (**self).headroom_k()
    }

    fn melt_fraction(&self) -> f64 {
        (**self).melt_fraction()
    }

    fn at_thermal_limit(&self) -> bool {
        (**self).at_thermal_limit()
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        (**self).sprint_energy_budget_j()
    }

    fn t_max_c(&self) -> f64 {
        (**self).t_max_c()
    }

    fn ambient_c(&self) -> f64 {
        (**self).ambient_c()
    }
}

/// Boxed backends (including `Box<dyn ThermalModel>`) satisfy the port,
/// so heterogeneous session collections can erase the backend type.
impl<T: ThermalModel + ?Sized> ThermalModel for Box<T> {
    fn set_chip_power_w(&mut self, watts: f64) {
        (**self).set_chip_power_w(watts);
    }

    fn set_active_core_count(&mut self, cores: usize) {
        (**self).set_active_core_count(cores);
    }

    fn advance(&mut self, dt_s: f64) {
        (**self).advance(dt_s);
    }

    fn advance_many(&mut self, dt_s: f64, count: u64) {
        (**self).advance_many(dt_s, count);
    }

    fn junction_temp_c(&self) -> f64 {
        (**self).junction_temp_c()
    }

    fn headroom_k(&self) -> f64 {
        (**self).headroom_k()
    }

    fn melt_fraction(&self) -> f64 {
        (**self).melt_fraction()
    }

    fn at_thermal_limit(&self) -> bool {
        (**self).at_thermal_limit()
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        (**self).sprint_energy_budget_j()
    }

    fn t_max_c(&self) -> f64 {
        (**self).t_max_c()
    }

    fn ambient_c(&self) -> f64 {
        (**self).ambient_c()
    }
}

impl ThermalModel for PhoneThermal {
    fn set_chip_power_w(&mut self, watts: f64) {
        PhoneThermal::set_chip_power_w(self, watts);
    }

    fn advance(&mut self, dt_s: f64) {
        PhoneThermal::advance(self, dt_s);
    }

    fn junction_temp_c(&self) -> f64 {
        PhoneThermal::junction_temp_c(self)
    }

    fn headroom_k(&self) -> f64 {
        PhoneThermal::headroom_k(self)
    }

    fn melt_fraction(&self) -> f64 {
        PhoneThermal::melt_fraction(self)
    }

    fn at_thermal_limit(&self) -> bool {
        PhoneThermal::at_thermal_limit(self)
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        PhoneThermal::sprint_energy_budget_j(self)
    }

    fn t_max_c(&self) -> f64 {
        PhoneThermal::t_max_c(self)
    }

    fn ambient_c(&self) -> f64 {
        PhoneThermal::ambient_c(self)
    }
}

/// The HotSpot-style grid backend: the junction the loop sees is the
/// *hottest die cell*, so headroom, the thermal limit and the sprint
/// budget are all hotspot-aware — a sprint on this backend aborts (or,
/// with [`HotspotPolicy::ShedCores`](crate::config::HotspotPolicy),
/// sheds cores) on local heating that a lumped backend averages away.
///
/// The backend's integration scheme is chosen at build time via
/// `GridThermalParams::solver`: the bit-stable explicit default, or the
/// semi-implicit ADI solver whose sub-step is independent of the grid
/// resolution — the right pick for fine (16x16+) grids and rack-scale
/// floorplans, where the explicit sub-step makes the co-simulation loop
/// spend virtually all of its wall-clock inside `advance`.
impl ThermalModel for GridThermal {
    fn set_chip_power_w(&mut self, watts: f64) {
        GridThermal::set_chip_power_w(self, watts);
    }

    fn set_active_core_count(&mut self, cores: usize) {
        GridThermal::set_active_cores(self, cores);
    }

    fn advance(&mut self, dt_s: f64) {
        GridThermal::advance(self, dt_s);
    }

    fn junction_temp_c(&self) -> f64 {
        GridThermal::junction_temp_c(self)
    }

    fn headroom_k(&self) -> f64 {
        GridThermal::headroom_k(self)
    }

    fn melt_fraction(&self) -> f64 {
        GridThermal::melt_fraction(self)
    }

    fn at_thermal_limit(&self) -> bool {
        GridThermal::at_thermal_limit(self)
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        GridThermal::sprint_energy_budget_j(self)
    }

    fn t_max_c(&self) -> f64 {
        GridThermal::t_max_c(self)
    }

    fn ambient_c(&self) -> f64 {
        GridThermal::ambient_c(self)
    }
}

/// A single-node RC thermal backend: one lumped heat capacity behind one
/// resistance to ambient, integrated exactly (exponential update).
///
/// This is the minimal non-phone backend — useful for tests, for
/// first-order design sweeps, and as the template for richer backends
/// (server heatsinks, rack-level models). Without latent storage its
/// sprint budget is purely sensible headroom, so sprints on it are short
/// and junction-capacitance-bound, like the paper's PCM-free package.
#[derive(Debug, Clone, PartialEq)]
pub struct LumpedThermal {
    capacity_j_per_k: f64,
    r_k_per_w: f64,
    ambient_c: f64,
    t_max_c: f64,
    temp_c: f64,
    power_w: f64,
}

impl LumpedThermal {
    /// Creates the node at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacity/resistance or `t_max <= ambient`.
    pub fn new(capacity_j_per_k: f64, r_k_per_w: f64, ambient_c: f64, t_max_c: f64) -> Self {
        assert!(
            capacity_j_per_k > 0.0 && r_k_per_w > 0.0,
            "capacity and resistance must be positive"
        );
        assert!(t_max_c > ambient_c, "limit must exceed ambient");
        Self {
            capacity_j_per_k,
            r_k_per_w,
            ambient_c,
            t_max_c,
            temp_c: ambient_c,
            power_w: 0.0,
        }
    }

    /// A server-class node: large finned heatsink (≈ 2 kJ/K behind
    /// 0.3 K/W) in a 35 C hot aisle with a 85 C junction limit —
    /// a data-center sprinting design point rather than a phone.
    pub fn server_heatsink() -> Self {
        Self::new(2_000.0, 0.3, 35.0, 85.0)
    }

    /// Sustainable power: steady state that holds the node at the limit.
    pub fn tdp_w(&self) -> f64 {
        (self.t_max_c - self.ambient_c) / self.r_k_per_w
    }
}

impl ThermalModel for LumpedThermal {
    fn set_chip_power_w(&mut self, watts: f64) {
        self.power_w = watts;
    }

    fn advance(&mut self, dt_s: f64) {
        // Exact solution of C dT/dt = P - (T - Tamb)/R over the interval.
        let t_inf = self.ambient_c + self.power_w * self.r_k_per_w;
        let tau = self.r_k_per_w * self.capacity_j_per_k;
        self.temp_c = t_inf + (self.temp_c - t_inf) * (-dt_s / tau).exp();
    }

    fn junction_temp_c(&self) -> f64 {
        self.temp_c
    }

    fn headroom_k(&self) -> f64 {
        self.t_max_c - self.temp_c
    }

    fn melt_fraction(&self) -> f64 {
        0.0
    }

    fn at_thermal_limit(&self) -> bool {
        self.temp_c >= self.t_max_c - 1e-9
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        self.headroom_k().max(0.0) * self.capacity_j_per_k
    }

    fn t_max_c(&self) -> f64 {
        self.t_max_c
    }

    fn ambient_c(&self) -> f64 {
        self.ambient_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_thermal::phone::PhoneThermalParams;

    #[test]
    fn phone_thermal_satisfies_the_contract() {
        fn exercise(m: &mut dyn ThermalModel) {
            m.set_chip_power_w(16.0);
            m.advance(0.01);
            assert!(m.junction_temp_c() > m.ambient_c());
            assert!(m.headroom_k() < m.t_max_c() - m.ambient_c());
            assert!(m.sprint_energy_budget_j() >= 0.0);
        }
        exercise(&mut PhoneThermalParams::hpca().build());
        exercise(&mut LumpedThermal::server_heatsink());
        exercise(&mut sprint_thermal::grid::GridThermalParams::hpca_like().build());
    }

    #[test]
    fn grid_backend_reports_the_hotspot_through_the_trait() {
        let mut g = sprint_thermal::grid::GridThermalParams::hpca_like().build();
        // Concentrate the same power on fewer cores: the trait-visible
        // junction (hottest cell) must rise, unlike any lumped backend.
        let hot_of = |m: &mut dyn ThermalModel, cores: usize| {
            m.set_active_core_count(cores);
            m.set_chip_power_w(4.0);
            m.advance(1.0);
            m.junction_temp_c()
        };
        let spread = hot_of(&mut g, 16);
        let mut g2 = sprint_thermal::grid::GridThermalParams::hpca_like().build();
        let focused = hot_of(&mut g2, 2);
        assert!(
            focused > spread + 1.0,
            "2-core hotspot {focused:.2} must beat 16-core {spread:.2}"
        );
    }

    #[test]
    fn borrowed_and_boxed_backends_satisfy_the_port() {
        use sprint_thermal::grid::GridThermalParams;

        // A borrowed grid driven through a *generic* session-shaped
        // caller, so the `&mut T` blanket impl itself is what runs: it
        // must pass `set_active_core_count` through (the trait default
        // would silently drop it and the power map would stay 16-wide).
        fn drive<T: ThermalModel>(mut port: T) {
            port.set_active_core_count(2);
            port.set_chip_power_w(4.0);
            port.advance(1.0);
        }
        let mut grid = GridThermalParams::hpca_like().build();
        drive(&mut grid);
        assert_eq!(grid.active_cores(), 2);
        assert!(grid.junction_temp_c() > grid.ambient_c());

        // A boxed, type-erased backend drives the same contract.
        let mut boxed: Box<dyn ThermalModel> = Box::new(LumpedThermal::server_heatsink());
        boxed.set_chip_power_w(100.0);
        boxed.advance(50.0);
        assert!(boxed.junction_temp_c() > boxed.ambient_c());
        assert!(boxed.sprint_energy_budget_j() >= 0.0);
    }

    #[test]
    fn lumped_settles_at_steady_state() {
        let mut m = LumpedThermal::new(10.0, 2.0, 25.0, 70.0);
        m.set_chip_power_w(10.0);
        m.advance(1_000.0);
        assert!(
            (m.junction_temp_c() - 45.0).abs() < 1e-6,
            "25 + 10*2 = 45 C"
        );
        assert!(!m.at_thermal_limit());
        assert_eq!(m.melt_fraction(), 0.0);
    }

    #[test]
    fn lumped_budget_shrinks_as_it_heats() {
        let mut m = LumpedThermal::server_heatsink();
        let cold = m.sprint_energy_budget_j();
        m.set_chip_power_w(500.0);
        m.advance(10.0);
        assert!(m.sprint_energy_budget_j() < cold);
    }

    #[test]
    fn lumped_tdp_matches_limit_over_resistance() {
        let m = LumpedThermal::new(5.0, 0.5, 25.0, 75.0);
        assert!((m.tdp_w() - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "limit must exceed ambient")]
    fn lumped_rejects_inverted_limits() {
        let _ = LumpedThermal::new(1.0, 1.0, 70.0, 25.0);
    }
}
