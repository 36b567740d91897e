//! The power-delivery side of the co-simulation loop (Section 6, wired
//! into the simulation).
//!
//! The paper's Section 6 analyzes whether a phone's electrical supply can
//! feed a 16 W sprint at all — conventional Li-ion cells cannot; hybrids
//! with an ultracapacitor can. [`PowerSupply`] brings that analysis into
//! the loop: every sampling window the
//! [`SprintSession`](crate::session::SprintSession) offers the window's
//! power draw to the supply, and a current limit or depleted store ends
//! the sprint exactly like an exhausted thermal budget (the controller
//! migrates threads to one core).
//!
//! Implementations are provided for [`sprint_powersource`]'s
//! [`Battery`], [`Ultracapacitor`] and [`HybridSupply`], for the
//! unconstrained [`IdealSupply`] (the seed behaviour), and for two
//! wrappers that compose over any inner supply: [`PinLimited`] (a
//! package pin-count ceiling) and [`Regulator`] (a voltage converter
//! with a load-dependent efficiency curve, so the upstream source sees
//! `demand / η(load)`).
//!
//! Like the thermal port, `PowerSupply` is a *port*: blanket
//! implementations for `&mut S` and `Box<S>` (including
//! `Box<dyn PowerSupply>`) mean a session need not own its supply — it
//! can borrow one, erase one, or (via a view type like
//! `sprint-cluster`'s per-node rack supply views) share one with many
//! other sessions.

use sprint_powersource::battery::{Battery, SupplyError};
use sprint_powersource::hybrid::HybridSupply;
use sprint_powersource::pins::PackagePins;
use sprint_powersource::ultracap::Ultracapacitor;

/// Relative tolerance for limit comparisons at a supply's advertised
/// boundary: a demand equal to `available_power_w()` must be accepted
/// even after floating-point round-trips through conversion math (the
/// [`Regulator`] divides by η and multiplies back).
pub const BOUNDARY_REL_TOL: f64 = 1e-9;

/// An electrical supply the sprint loop consults each sampling window.
pub trait PowerSupply {
    /// Draws `power_w` for `dt_s` seconds.
    ///
    /// # Errors
    ///
    /// Returns the limiting condition *without drawing* when the demand
    /// exceeds a current limit or the remaining stored energy.
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError>;

    /// Peak power deliverable right now, watts.
    fn available_power_w(&self) -> f64;

    /// Stored energy remaining, joules (`f64::INFINITY` for unlimited
    /// sources).
    fn remaining_energy_j(&self) -> f64;

    /// Recharges during an idle interval of `dt_s` seconds, returning the
    /// energy transferred into the sprint store (joules). Sources without
    /// an inter-sprint recharge path return zero.
    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        let _ = dt_s;
        0.0
    }

    /// Recharges through `count` consecutive idle intervals of `dt_s`
    /// seconds each, returning the total energy gained (joules). The
    /// default is literally a loop of [`idle_recharge`] calls summed
    /// with `+=` in call order, so every supply satisfies the
    /// bit-for-bit contract by construction. An override must return
    /// the same bits and leave the same state: the rack pool's per-node
    /// views answer for any node but 0, which never settles the pool,
    /// with one record of its idle draw and 0.0. The event-driven
    /// cluster core's idle catch-up rides on this, and its digests are
    /// pinned byte-for-byte against the lockstep oracle.
    ///
    /// [`idle_recharge`]: PowerSupply::idle_recharge
    fn idle_recharge_many(&mut self, dt_s: f64, count: u64) -> f64 {
        let mut gained = 0.0;
        for _ in 0..count {
            gained += self.idle_recharge(dt_s);
        }
        gained
    }
}

impl<S: PowerSupply + ?Sized> PowerSupply for &mut S {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        (**self).draw(power_w, dt_s)
    }

    fn available_power_w(&self) -> f64 {
        (**self).available_power_w()
    }

    fn remaining_energy_j(&self) -> f64 {
        (**self).remaining_energy_j()
    }

    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        (**self).idle_recharge(dt_s)
    }

    fn idle_recharge_many(&mut self, dt_s: f64, count: u64) -> f64 {
        (**self).idle_recharge_many(dt_s, count)
    }
}

impl<S: PowerSupply + ?Sized> PowerSupply for Box<S> {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        (**self).draw(power_w, dt_s)
    }

    fn available_power_w(&self) -> f64 {
        (**self).available_power_w()
    }

    fn remaining_energy_j(&self) -> f64 {
        (**self).remaining_energy_j()
    }

    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        (**self).idle_recharge(dt_s)
    }

    fn idle_recharge_many(&mut self, dt_s: f64, count: u64) -> f64 {
        (**self).idle_recharge_many(dt_s, count)
    }
}

/// The unconstrained supply: every draw succeeds. This reproduces the
/// seed's behaviour (no electrical model in the loop) and is the default
/// for [`ScenarioBuilder`](crate::session::ScenarioBuilder).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealSupply;

impl PowerSupply for IdealSupply {
    fn draw(&mut self, _power_w: f64, _dt_s: f64) -> Result<(), SupplyError> {
        Ok(())
    }

    fn available_power_w(&self) -> f64 {
        f64::INFINITY
    }

    fn remaining_energy_j(&self) -> f64 {
        f64::INFINITY
    }
}

impl PowerSupply for Battery {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        Battery::draw(self, power_w, dt_s)
    }

    fn available_power_w(&self) -> f64 {
        self.max_power_w()
    }

    fn remaining_energy_j(&self) -> f64 {
        self.charge_j()
    }
}

impl PowerSupply for Ultracapacitor {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        Ultracapacitor::draw(self, power_w, dt_s)
    }

    fn available_power_w(&self) -> f64 {
        self.max_power_w()
    }

    fn remaining_energy_j(&self) -> f64 {
        self.stored_j()
    }
}

impl PowerSupply for HybridSupply {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        HybridSupply::draw(self, power_w, dt_s)
    }

    fn available_power_w(&self) -> f64 {
        self.max_power_w()
    }

    fn remaining_energy_j(&self) -> f64 {
        // The store's *current stored* energy, not `sprint_capacity_j()`
        // (which reports the usable sprint capacity above the regulator
        // dropout, a different quantity): remaining energy must track
        // every joule the hybrid still holds, and must drop by exactly
        // what a draw removed.
        self.battery.charge_j() + self.cap.stored_j()
    }

    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        self.recharge_between_sprints(dt_s)
    }
}

/// Layers a package pin-count ceiling (Section 6's 16 A / ~320-pin
/// analysis) over an inner supply: a draw must fit through the allocated
/// pins *and* be deliverable by the source behind them.
#[derive(Debug, Clone)]
pub struct PinLimited<S> {
    inner: S,
    pins: PackagePins,
    supply_v: f64,
    budget_fraction: f64,
}

impl<S: PowerSupply> PinLimited<S> {
    /// Wraps `inner` behind `pins`, delivering at `supply_v` volts with
    /// `budget_fraction` of the package's pins allocated to power.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive voltage or a fraction outside `(0, 1]`.
    pub fn new(inner: S, pins: PackagePins, supply_v: f64, budget_fraction: f64) -> Self {
        assert!(supply_v > 0.0, "supply voltage must be positive");
        assert!(
            budget_fraction > 0.0 && budget_fraction <= 1.0,
            "pin budget fraction must be in (0, 1]"
        );
        Self {
            inner,
            pins,
            supply_v,
            budget_fraction,
        }
    }

    /// The pin-side power ceiling, watts.
    pub fn pin_ceiling_w(&self) -> f64 {
        self.pins.max_power_w(self.supply_v, self.budget_fraction)
    }

    /// The wrapped supply.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: PowerSupply> PowerSupply for PinLimited<S> {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        let ceiling = self.pin_ceiling_w();
        // Tolerance-consistent with `available_power_w`, which reports
        // exactly `ceiling`: drawing precisely the advertised available
        // power must succeed even after the request round-trips through
        // regulator conversion math (an up-and-back-down η division can
        // perturb the last few bits).
        if power_w > ceiling * (1.0 + BOUNDARY_REL_TOL) {
            return Err(SupplyError::CurrentLimit {
                requested_w: power_w,
                available_w: ceiling,
            });
        }
        self.inner.draw(power_w.min(ceiling), dt_s)
    }

    fn available_power_w(&self) -> f64 {
        self.inner.available_power_w().min(self.pin_ceiling_w())
    }

    fn remaining_energy_j(&self) -> f64 {
        self.inner.remaining_energy_j()
    }

    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        self.inner.idle_recharge(dt_s)
    }

    fn idle_recharge_many(&mut self, dt_s: f64, count: u64) -> f64 {
        self.inner.idle_recharge_many(dt_s, count)
    }
}

/// A voltage regulator's load-dependent loss model (Section 6's
/// conversion-efficiency concern, made explicit).
///
/// Losses are the classic three-term switching-converter model:
///
/// ```text
/// loss(P) = fixed_loss_w  +  proportional_loss · P  +  resistive_loss · P² / rated_w
/// ```
///
/// * `fixed_loss_w` — gate drive and control overhead, paid even at
///   light load (this is what makes light-load efficiency poor);
/// * `proportional_loss` — switching losses that scale with the power
///   delivered;
/// * `resistive_loss` — conduction (I²R) losses, quadratic in load, so
///   efficiency droops again as the converter approaches its rating.
///
/// Upstream draw is `P + loss(P)`, so the efficiency
/// `η(P) = P / (P + loss(P))` has the familiar bathtub-inverted shape:
/// low at light load, peaking mid-range, sagging toward the rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyCurve {
    /// Fixed conversion overhead, watts.
    pub fixed_loss_w: f64,
    /// Loss fraction proportional to delivered power.
    pub proportional_loss: f64,
    /// Quadratic (conduction) loss coefficient at rated load.
    pub resistive_loss: f64,
    /// Rated output power the quadratic term is normalized to, watts.
    pub rated_w: f64,
}

impl EfficiencyCurve {
    /// A lossless pass-through (η = 1 at every load): composing a
    /// regulator with this curve is behaviour-identical to the bare
    /// inner supply.
    pub fn ideal() -> Self {
        Self {
            fixed_loss_w: 0.0,
            proportional_loss: 0.0,
            resistive_loss: 0.0,
            rated_w: 1.0,
        }
    }

    /// A server-class point-of-load VRM sized for one sprinting node
    /// (rated at `rated_w`): ~75% efficient at a 1 W sustained trickle,
    /// ~90% at a 16 W sprint — light-load overhead dominates idle
    /// nodes, conduction losses dominate sprinting ones.
    pub fn server_vrm(rated_w: f64) -> Self {
        Self {
            fixed_loss_w: 0.3,
            proportional_loss: 0.03,
            resistive_loss: 0.07,
            rated_w,
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on negative loss terms or a non-positive rating.
    pub fn validate(&self) {
        assert!(
            self.fixed_loss_w >= 0.0 && self.proportional_loss >= 0.0 && self.resistive_loss >= 0.0,
            "loss terms must be non-negative"
        );
        assert!(
            self.proportional_loss < 1.0,
            "proportional loss must stay below unity"
        );
        assert!(
            self.rated_w.is_finite() && self.rated_w > 0.0,
            "rated power must be positive and finite"
        );
        assert!(
            self.fixed_loss_w.is_finite()
                && self.proportional_loss.is_finite()
                && self.resistive_loss.is_finite(),
            "loss terms must be finite"
        );
    }

    /// Upstream power drawn from the source when delivering `power_w`
    /// downstream, watts.
    pub fn upstream_w(&self, power_w: f64) -> f64 {
        if power_w <= 0.0 {
            // An idle output still pays the fixed overhead.
            return self.fixed_loss_w;
        }
        power_w
            + self.fixed_loss_w
            + self.proportional_loss * power_w
            + self.resistive_loss * power_w * power_w / self.rated_w
    }

    /// Conversion efficiency delivering `power_w` downstream.
    pub fn efficiency_at(&self, power_w: f64) -> f64 {
        if power_w <= 0.0 {
            return 0.0;
        }
        power_w / self.upstream_w(power_w)
    }

    /// Largest downstream power deliverable from `upstream_w` of input,
    /// watts — the inverse of [`upstream_w`](Self::upstream_w), used to
    /// convert an upstream limit back into chip-side terms.
    pub fn downstream_w(&self, upstream_w: f64) -> f64 {
        if !upstream_w.is_finite() {
            return upstream_w;
        }
        let budget = upstream_w - self.fixed_loss_w;
        if budget <= 0.0 {
            return 0.0;
        }
        let linear = 1.0 + self.proportional_loss;
        if self.resistive_loss == 0.0 {
            return budget / linear;
        }
        // Solve r/rated · P² + (1 + k) · P − budget = 0 for P ≥ 0.
        let a = self.resistive_loss / self.rated_w;
        let disc = linear * linear + 4.0 * a * budget;
        (disc.sqrt() - linear) / (2.0 * a)
    }
}

/// Layers a conversion stage with a load-dependent [`EfficiencyCurve`]
/// over an inner supply: a downstream demand of `P` draws
/// `P / η(P) = P + loss(P)` from the source behind it. This is how a
/// node hangs off a shared rack bus (`sprint-cluster`'s `RackSupply`)
/// — the pool sees regulated, lossy draws, not raw chip power.
#[derive(Debug, Clone)]
pub struct Regulator<S> {
    inner: S,
    curve: EfficiencyCurve,
}

impl<S: PowerSupply> Regulator<S> {
    /// Wraps `inner` behind a conversion stage with `curve`.
    ///
    /// # Panics
    ///
    /// Panics if the curve fails validation.
    pub fn new(inner: S, curve: EfficiencyCurve) -> Self {
        curve.validate();
        Self { inner, curve }
    }

    /// The loss model.
    pub fn curve(&self) -> &EfficiencyCurve {
        &self.curve
    }

    /// The wrapped supply.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped supply.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: PowerSupply> PowerSupply for Regulator<S> {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        match self.inner.draw(self.curve.upstream_w(power_w), dt_s) {
            Ok(()) => Ok(()),
            // Report limits in chip-side (downstream) terms: the
            // controller compares them against chip power.
            Err(SupplyError::CurrentLimit { available_w, .. }) => Err(SupplyError::CurrentLimit {
                requested_w: power_w,
                available_w: self.curve.downstream_w(available_w),
            }),
            Err(e) => Err(e),
        }
    }

    fn available_power_w(&self) -> f64 {
        self.curve.downstream_w(self.inner.available_power_w())
    }

    fn remaining_energy_j(&self) -> f64 {
        // Upstream joules: what the source still holds. Converting to
        // deliverable joules would need the future load profile (η is
        // load-dependent), so the honest figure is the stored one.
        self.inner.remaining_energy_j()
    }

    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        self.inner.idle_recharge(dt_s)
    }

    fn idle_recharge_many(&mut self, dt_s: f64, count: u64) -> f64 {
        self.inner.idle_recharge_many(dt_s, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_supply_never_limits() {
        let mut s = IdealSupply;
        assert!(s.draw(1e9, 1e3).is_ok());
        assert_eq!(s.remaining_energy_j(), f64::INFINITY);
    }

    #[test]
    fn phone_battery_rejects_a_sprint_window() {
        let mut b = Battery::phone_li_ion();
        assert!(matches!(
            PowerSupply::draw(&mut b, 16.0, 1e-6),
            Err(SupplyError::CurrentLimit { .. })
        ));
        assert!(PowerSupply::draw(&mut b, 1.0, 1e-6).is_ok());
    }

    #[test]
    fn hybrid_sustains_windows_and_recharges() {
        let mut h = HybridSupply::phone();
        let e0 = h.remaining_energy_j();
        for _ in 0..1000 {
            PowerSupply::draw(&mut h, 16.0, 1e-3).expect("hybrid covers 16 W windows");
        }
        assert!(h.remaining_energy_j() < e0);
        assert!(h.idle_recharge(30.0) > 0.0, "battery refills the cap");
    }

    #[test]
    fn hybrid_window_draws_do_not_count_sprints() {
        let mut h = HybridSupply::phone();
        PowerSupply::draw(&mut h, 16.0, 1e-3).unwrap();
        assert_eq!(h.sprints_served(), 0);
        h.sprint(16.0, 0.1).unwrap();
        assert_eq!(h.sprints_served(), 1);
    }

    #[test]
    fn pin_limit_caps_an_otherwise_strong_source() {
        // A 1 V rail through 30% of an A4-class package: ~79 pairs -> 7.9 W.
        let mut s = PinLimited::new(IdealSupply, PackagePins::apple_a4(), 1.0, 0.3);
        assert!(s.pin_ceiling_w() < 16.0);
        assert!(matches!(
            s.draw(16.0, 1e-6),
            Err(SupplyError::CurrentLimit { .. })
        ));
        assert!(s.draw(s.pin_ceiling_w() * 0.9, 1e-6).is_ok());
    }

    #[test]
    fn hybrid_remaining_energy_tracks_draws_exactly() {
        // Regression: `remaining_energy_j` once summed the battery
        // charge with the cap's *usable sprint capacity* (the energy
        // above the regulator dropout) instead of its stored energy,
        // so the reported total did not drop by what a draw removed.
        let mut h = HybridSupply::phone();
        let e0 = h.remaining_energy_j();
        assert_eq!(
            e0.to_bits(),
            (h.battery.charge_j() + h.cap.stored_j()).to_bits(),
            "remaining energy is battery charge plus the store's stored energy"
        );
        // Drain well into the cap's share (16 W forces a cap draw).
        PowerSupply::draw(&mut h, 16.0, 1.0).expect("hybrid covers a 16 W second");
        let e1 = h.remaining_energy_j();
        assert!(
            e1 < e0 - 15.9,
            "the sum must drop by (at least) the energy drawn: {e0} -> {e1}"
        );
        // The drop equals the draw plus the cap's leakage — never less.
        assert!(e0 - e1 < 16.1, "but not by much more: {e0} -> {e1}");
        // Drain the sprint store to the dropout: remaining energy still
        // counts the below-dropout joules the cap physically holds.
        while h.sprint_capacity_j() > 0.5 {
            h.cap.draw(20.0, 0.1).unwrap();
        }
        assert!(
            h.remaining_energy_j() > h.battery.charge_j(),
            "a drained-to-dropout cap still stores energy"
        );
    }

    #[test]
    fn pin_limit_boundary_draw_is_tolerance_consistent() {
        // Regression: `draw` rejected with a strict `>` against the
        // exact ceiling `available_power_w` advertises, so drawing
        // precisely the advertised power could fail after FP round-trip
        // through regulator math.
        let mut s = PinLimited::new(IdealSupply, PackagePins::apple_a4(), 1.0, 0.3);
        let advertised = s.available_power_w();
        assert_eq!(advertised.to_bits(), s.pin_ceiling_w().to_bits());
        s.draw(advertised, 1e-6)
            .expect("drawing exactly the advertised available power must succeed");
        // A round-trip through a conversion curve and back perturbs the
        // last bits; the boundary must absorb that.
        let curve = EfficiencyCurve::server_vrm(20.0);
        let round_trip = curve.downstream_w(curve.upstream_w(advertised));
        s.draw(round_trip, 1e-6)
            .expect("an η round-trip of the boundary draw must succeed");
        // A draw clearly above the ceiling still fails.
        assert!(matches!(
            s.draw(advertised * 1.001, 1e-6),
            Err(SupplyError::CurrentLimit { .. })
        ));
    }

    #[test]
    fn efficiency_curve_has_the_bathtub_shape() {
        let c = EfficiencyCurve::server_vrm(20.0);
        c.validate();
        let light = c.efficiency_at(1.0);
        let mid = c.efficiency_at(8.0);
        let sprint = c.efficiency_at(16.0);
        assert!((0.70..0.80).contains(&light), "light load ~75%: {light}");
        assert!(mid > light && mid > 0.9, "mid load peaks: {mid}");
        assert!(sprint > 0.88 && sprint < mid, "rating droop: {sprint}");
        // Upstream is always demand plus a positive loss.
        assert!(c.upstream_w(16.0) > 16.0);
        assert_eq!(c.upstream_w(0.0), c.fixed_loss_w);
    }

    #[test]
    fn efficiency_curve_inverts_exactly() {
        let c = EfficiencyCurve::server_vrm(20.0);
        for p in [0.25, 1.0, 7.3, 16.0, 20.0] {
            let back = c.downstream_w(c.upstream_w(p));
            assert!(
                (back - p).abs() < 1e-9,
                "downstream(upstream({p})) = {back}"
            );
        }
        assert_eq!(c.downstream_w(f64::INFINITY), f64::INFINITY);
        assert_eq!(c.downstream_w(0.1), 0.0, "below the fixed overhead");
        let ideal = EfficiencyCurve::ideal();
        assert_eq!(ideal.upstream_w(5.0), 5.0);
        assert_eq!(ideal.downstream_w(5.0), 5.0);
        assert_eq!(ideal.efficiency_at(5.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_rated_power_rejected() {
        // Regression: an infinite rating passed validation but made
        // `downstream_w` divide 0 by 0 (NaN) on the resistive branch,
        // and NaN availability poisons every limit comparison.
        Regulator::new(
            IdealSupply,
            EfficiencyCurve {
                fixed_loss_w: 0.0,
                proportional_loss: 0.0,
                resistive_loss: 0.1,
                rated_w: f64::INFINITY,
            },
        );
    }

    #[test]
    fn regulator_draws_lossy_upstream_power() {
        let mut r = Regulator::new(
            Battery::high_discharge_li_po(),
            EfficiencyCurve::server_vrm(20.0),
        );
        let e0 = r.remaining_energy_j();
        r.draw(16.0, 1.0).expect("li-po covers a regulated sprint");
        let drawn = e0 - r.remaining_energy_j();
        let expected = r.curve().upstream_w(16.0);
        assert!(
            (drawn - expected).abs() < 1e-9,
            "upstream drew {drawn}, expected {expected}"
        );
        assert!(drawn > 17.0, "losses add to the 16 J demand: {drawn}");
    }

    #[test]
    fn regulator_reports_limits_in_chip_terms() {
        // The phone cell tops out near 10 W; behind a lossy regulator
        // the chip-side figure must be *lower* than the cell's.
        let mut r = Regulator::new(Battery::phone_li_ion(), EfficiencyCurve::server_vrm(20.0));
        let cell_w = Battery::phone_li_ion().max_power_w();
        assert!(r.available_power_w() < cell_w);
        match r.draw(16.0, 1e-3) {
            Err(SupplyError::CurrentLimit {
                requested_w,
                available_w,
            }) => {
                assert_eq!(requested_w, 16.0, "chip-side request");
                assert!(available_w < cell_w, "chip-side availability");
            }
            other => panic!("expected a current limit, got {other:?}"),
        }
        // An ideal curve is behaviour-identical to the bare supply.
        let mut ideal = Regulator::new(IdealSupply, EfficiencyCurve::ideal());
        assert!(ideal.draw(1e9, 1.0).is_ok());
        assert_eq!(ideal.available_power_w(), f64::INFINITY);
    }

    #[test]
    fn supply_port_blanket_impls_forward() {
        fn takes_port<S: PowerSupply>(s: &mut S) -> f64 {
            s.draw(1.0, 1.0).unwrap();
            s.remaining_energy_j()
        }
        let mut owned = Battery::high_discharge_li_po();
        let full = owned.charge_j();
        // &mut: the caller keeps the drained battery.
        takes_port(&mut &mut owned);
        assert!(owned.charge_j() < full);
        // Box<dyn>: object-safe erasure.
        let mut boxed: Box<dyn PowerSupply> = Box::new(Battery::high_discharge_li_po());
        let left = takes_port(&mut boxed);
        assert!((full - left - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pin_limit_passes_inner_errors_through() {
        let mut s = PinLimited::new(
            Battery::phone_li_ion(),
            PackagePins::qualcomm_msm8660(),
            3.7,
            0.5,
        );
        // Pins allow it (plenty at 3.7 V), but the cell's discharge limit
        // does not.
        assert!(matches!(
            s.draw(16.0, 1e-6),
            Err(SupplyError::CurrentLimit { available_w, .. }) if available_w < 11.0
        ));
    }
}
