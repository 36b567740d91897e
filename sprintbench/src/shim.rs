//! Port shims for the traced phone run: a `ThermalModel` and a
//! `PowerSupply` that forward every call to the real backend and record
//! a span around the calls that do work. Forwarding is exact, so a
//! shimmed session must reproduce the unshimmed digest bit for bit.

use computational_sprinting::powersource::SupplyError;
use computational_sprinting::prelude::{PowerSupply, ThermalModel};

use crate::span::{traced, SharedRecorder};

/// Span name of a thermal `advance` / `advance_many` call.
pub const THERMAL_ADVANCE: &str = "thermal.advance";
/// Span name of a supply `draw` call.
pub const SUPPLY_DRAW: &str = "powersource.draw";

/// Records `thermal.advance` spans around the wrapped backend.
#[derive(Debug)]
pub struct ThermalShim<T> {
    inner: T,
    rec: SharedRecorder,
}

impl<T> ThermalShim<T> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: T, rec: SharedRecorder) -> Self {
        Self { inner, rec }
    }
}

impl<T: ThermalModel> ThermalModel for ThermalShim<T> {
    fn set_chip_power_w(&mut self, watts: f64) {
        self.inner.set_chip_power_w(watts);
    }

    fn set_active_core_count(&mut self, cores: usize) {
        self.inner.set_active_core_count(cores);
    }

    fn advance(&mut self, dt_s: f64) {
        traced(&self.rec, THERMAL_ADVANCE, || self.inner.advance(dt_s));
    }

    fn advance_many(&mut self, dt_s: f64, count: u64) {
        traced(&self.rec, THERMAL_ADVANCE, || {
            self.inner.advance_many(dt_s, count)
        });
    }

    fn junction_temp_c(&self) -> f64 {
        self.inner.junction_temp_c()
    }

    fn headroom_k(&self) -> f64 {
        self.inner.headroom_k()
    }

    fn melt_fraction(&self) -> f64 {
        self.inner.melt_fraction()
    }

    fn at_thermal_limit(&self) -> bool {
        self.inner.at_thermal_limit()
    }

    fn sprint_energy_budget_j(&self) -> f64 {
        self.inner.sprint_energy_budget_j()
    }

    fn t_max_c(&self) -> f64 {
        self.inner.t_max_c()
    }

    fn ambient_c(&self) -> f64 {
        self.inner.ambient_c()
    }
}

/// Records `powersource.draw` spans and counts refused draws.
#[derive(Debug)]
pub struct SupplyShim<S> {
    inner: S,
    rec: SharedRecorder,
    errors: u64,
}

impl<S> SupplyShim<S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: S, rec: SharedRecorder) -> Self {
        Self {
            inner,
            rec,
            errors: 0,
        }
    }

    /// Draws the supply refused so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

impl<S: PowerSupply> PowerSupply for SupplyShim<S> {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        let out = traced(&self.rec, SUPPLY_DRAW, || self.inner.draw(power_w, dt_s));
        if out.is_err() {
            self.errors += 1;
        }
        out
    }

    fn available_power_w(&self) -> f64 {
        self.inner.available_power_w()
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
