//! Deterministic fault injection for the sprint stack.
//!
//! The paper's whole premise is operating silicon past sustainable
//! limits on the faith that thermal and electrical telemetry always
//! work. This module makes that faith testable: a [`FaultPlan`] is a
//! seeded, window-stamped schedule of sensor faults (stuck-at, bias,
//! dropout), supply faults (efficiency collapse, transient brownout,
//! hard regulator death) and node crash/recovery, and two wrapper
//! *ports* — [`FaultSensor`] over any [`ThermalModel`] and
//! [`FaultSupply`] over any [`PowerSupply`] — inject the live fault
//! state into the co-simulation loop without the loop knowing.
//!
//! # The fault ports
//!
//! Like the thermal and supply ports they compose over, the wrappers
//! are transparent when healthy: with no fault active every method
//! delegates to the inner backend bit-for-bit, so wrapping a node
//! unconditionally is digest-neutral — a fault-free wrapped run is
//! byte-identical to an unwrapped one. Fault state lives in a shared
//! [`FaultState`] cell (one per node, `Rc`-shared between the node's
//! sensor wrapper, supply wrapper and the scheduler that flips it), so
//! injecting a fault is a data write, never a structural change.
//!
//! Two contracts keep the event-driven cluster core's byte-for-byte
//! equivalence with the lockstep oracle intact under any plan:
//!
//! * **Idle paths are fault-transparent.** `idle_recharge` /
//!   `idle_recharge_many` and `advance` / `advance_many` always
//!   delegate — a faulted *sensor* lies about readings, it does not
//!   change the physics, and a faulted *supply* still records its idle
//!   draw on a shared pool (and, on node 0, settles it). Batched idle
//!   replay therefore stays bit-identical to the looped path whatever
//!   the fault state.
//! * **Fault values are integer-derived.** [`FaultPlan::seeded`] draws
//!   every stuck-at temperature, bias and collapse factor from integer
//!   arithmetic mapped onto exactly-representable `f64`s, so a plan is
//!   reproducible across platforms from its seed alone.
//!
//! The cluster layer decides the *response* ([`FaultResponse`]):
//! degradation-aware scheduling treats a lying sensor as hot (failsafe
//! throttle), re-enqueues a crashed node's task under the plan's retry
//! budget with exponential window backoff, quarantines the node and
//! returns its nameplate share to the rack pool; an oblivious
//! scheduler consumes the corrupted readings as-is — the comparison
//! `repro faults` quantifies.

use std::cell::Cell;
use std::rc::Rc;

use sprint_powersource::battery::SupplyError;

use crate::supply::PowerSupply;
use crate::thermal_model::ThermalModel;

/// A sensor fault mode currently active on a node's thermal telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// The sensor reports this fixed temperature, Celsius, regardless
    /// of the true junction state.
    StuckAt(f64),
    /// The sensor reports the true junction temperature plus this
    /// offset, Kelvin.
    Bias(f64),
    /// The sensor returns no reading (`NaN`).
    Dropout,
}

/// A supply fault mode currently active on a node's power delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SupplyFault {
    /// Conversion efficiency has collapsed: delivering `P` downstream
    /// draws `scale * P` through the stack (`scale > 1`).
    Collapsed(f64),
    /// Transient brownout: the regulator delivers nothing, but the
    /// stage is expected back (a matching clear follows in the plan).
    Brownout,
    /// Hard regulator death: permanently delivers nothing.
    Dead,
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Sensor sticks at a fixed reading, Celsius.
    SensorStuck(f64),
    /// Sensor gains a constant bias, Kelvin.
    SensorBias(f64),
    /// Sensor drops out (reads `NaN`).
    SensorDropout,
    /// Sensor telemetry recovers.
    SensorClear,
    /// Supply efficiency collapses by this factor (`> 1`).
    SupplyCollapse(f64),
    /// Supply browns out (delivers nothing, transiently).
    SupplyBrownout,
    /// Supply dies (delivers nothing, permanently).
    SupplyDead,
    /// Supply recovers from a collapse or brownout.
    SupplyClear,
    /// The node crashes. A busy node loses its in-flight task (the
    /// cluster re-enqueues it under the retry budget) and is
    /// quarantined; an idle node merely goes down until recovery.
    NodeCrash,
    /// The node comes back, unless it was quarantined.
    NodeRecover,
}

/// A window-stamped fault transition on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Sampling window (cluster window count) at which the transition
    /// fires, before that window's scheduling pass.
    pub window: u64,
    /// Target node index.
    pub node: u32,
    /// The transition.
    pub kind: FaultKind,
}

/// How the cluster scheduler reacts to injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultResponse {
    /// Graceful degradation: a faulted sensor triggers the
    /// treat-as-hot failsafe (the node is throttled and denied
    /// admission), crashed nodes are quarantined and their nameplate
    /// share returned to the rack pool, and lost tasks are re-enqueued
    /// with bounded retries.
    #[default]
    Aware,
    /// The scheduler consumes corrupted telemetry as-is: a stuck-cold
    /// sensor keeps winning admission, a dead node's share stays
    /// booked. Tasks are still re-enqueued (losing work silently would
    /// break the conservation invariant, not prove a point), but
    /// nothing else adapts. The baseline `repro faults` degrades
    /// against.
    Oblivious,
}

/// Mean-gap / hold-time knobs for [`FaultPlan::seeded`], all in
/// sampling windows. A zero mean gap disables that fault family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRates {
    /// Mean windows between sensor-fault onsets per node (0 = never).
    pub mean_sensor_gap_windows: u64,
    /// Windows a sensor fault holds before clearing.
    pub sensor_hold_windows: u64,
    /// Mean windows between crashes per node (0 = never).
    pub mean_crash_gap_windows: u64,
    /// Windows a crash holds before the recovery attempt.
    pub crash_hold_windows: u64,
    /// Mean windows between supply-fault onsets per node (0 = never).
    pub mean_supply_gap_windows: u64,
    /// Windows a collapse/brownout holds before clearing (a dead
    /// regulator never clears).
    pub supply_hold_windows: u64,
}

/// A seeded, deterministic schedule of fault transitions plus the
/// recovery budget the cluster applies when they cost a task.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The schedule, sorted by `(window, node)` with generation order
    /// breaking ties.
    pub events: Vec<FaultEvent>,
    /// How many times a task lost to a crash is re-enqueued before it
    /// is declared failed.
    pub max_retries: u32,
    /// Base re-enqueue delay, windows; retry `k` waits
    /// `backoff_windows << (k - 1)` windows (exponential backoff).
    pub backoff_windows: u64,
    /// The scheduler's reaction to injected faults.
    pub response: FaultResponse,
}

/// The splitmix64 step: one 64-bit draw, advancing the stream state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An explicit schedule under the default retry budget (3 retries,
    /// 8-window base backoff, degradation-aware response). Events are
    /// stably sorted into `(window, node)` order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.window, e.node));
        Self {
            events,
            max_retries: 3,
            backoff_windows: 8,
            response: FaultResponse::Aware,
        }
    }

    /// An empty plan: no faults, default budget. Running under it is
    /// byte-identical to running without a plan at all.
    pub fn none() -> Self {
        Self::new(Vec::new())
    }

    /// Generates a seeded schedule over `nodes` nodes and
    /// `horizon_windows` windows. Each `(node, fault family)` pair
    /// gets its own splitmix64 stream, so changing one rate never
    /// perturbs another family's schedule. Onset gaps are uniform on
    /// `[1, 2 * mean_gap]`; every fault value is drawn from integer
    /// arithmetic mapped onto exactly-representable `f64`s
    /// (stuck-at 20–119 °C, bias −10..=+10 K, collapse 1.25–3.0 in
    /// quarter steps), so the plan is bit-reproducible from its seed.
    pub fn seeded(seed: u64, nodes: usize, horizon_windows: u64, rates: FaultRates) -> Self {
        let mut events = Vec::new();
        for node in 0..nodes as u32 {
            for family in 0u64..3 {
                let (mean_gap, hold) = match family {
                    0 => (rates.mean_sensor_gap_windows, rates.sensor_hold_windows),
                    1 => (rates.mean_crash_gap_windows, rates.crash_hold_windows),
                    _ => (rates.mean_supply_gap_windows, rates.supply_hold_windows),
                };
                if mean_gap == 0 {
                    continue;
                }
                let mut s = seed
                    ^ (node as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
                    ^ (family + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB);
                let mut w = 0u64;
                loop {
                    let gap = 1 + splitmix64(&mut s) % (2 * mean_gap);
                    w = w.saturating_add(gap);
                    if w >= horizon_windows {
                        break;
                    }
                    let (onset, clear) = match family {
                        0 => {
                            let pick = splitmix64(&mut s);
                            let kind = match pick % 3 {
                                0 => {
                                    FaultKind::SensorStuck(20.0 + (splitmix64(&mut s) % 100) as f64)
                                }
                                1 => {
                                    FaultKind::SensorBias(-10.0 + (splitmix64(&mut s) % 21) as f64)
                                }
                                _ => FaultKind::SensorDropout,
                            };
                            (kind, Some(FaultKind::SensorClear))
                        }
                        1 => (FaultKind::NodeCrash, Some(FaultKind::NodeRecover)),
                        _ => {
                            let pick = splitmix64(&mut s);
                            match pick % 3 {
                                0 => {
                                    let scale = 1.25 + (splitmix64(&mut s) % 8) as f64 * 0.25;
                                    (
                                        FaultKind::SupplyCollapse(scale),
                                        Some(FaultKind::SupplyClear),
                                    )
                                }
                                1 => (FaultKind::SupplyBrownout, Some(FaultKind::SupplyClear)),
                                _ => (FaultKind::SupplyDead, None),
                            }
                        }
                    };
                    events.push(FaultEvent {
                        window: w,
                        node,
                        kind: onset,
                    });
                    let Some(clear_kind) = clear else { break };
                    let clear_w = w.saturating_add(hold.max(1));
                    if clear_w < horizon_windows {
                        events.push(FaultEvent {
                            window: clear_w,
                            node,
                            kind: clear_kind,
                        });
                    }
                    w = clear_w;
                }
            }
        }
        Self::new(events)
    }

    /// Sets the scheduler's fault response.
    pub fn with_response(mut self, response: FaultResponse) -> Self {
        self.response = response;
        self
    }

    /// Sets the retry budget: `max_retries` re-enqueues with a
    /// `backoff_windows` base delay (doubling per retry).
    ///
    /// # Panics
    ///
    /// Panics on a zero backoff — a zero delay would re-enqueue into
    /// the same window the crash fired in.
    pub fn with_retries(mut self, max_retries: u32, backoff_windows: u64) -> Self {
        assert!(
            backoff_windows >= 1,
            "retry backoff must be at least one window"
        );
        self.max_retries = max_retries;
        self.backoff_windows = backoff_windows;
        self
    }

    /// Validates the plan against a cluster shape.
    ///
    /// # Panics
    ///
    /// Panics when an event targets a node the cluster does not have,
    /// when the backoff is zero, or when the schedule is unsorted.
    pub fn validate(&self, nodes: usize) {
        assert!(
            self.backoff_windows >= 1,
            "retry backoff must be at least one window"
        );
        let mut prev = (0u64, 0u32);
        for e in &self.events {
            assert!(
                (e.node as usize) < nodes,
                "fault plan targets node {} but the cluster has {nodes}",
                e.node
            );
            assert!(
                (e.window, e.node) >= prev,
                "fault plan must be sorted by (window, node)"
            );
            if let FaultKind::SupplyCollapse(scale) = e.kind {
                assert!(
                    scale.is_finite() && scale > 1.0,
                    "a supply collapse must scale draws above unity, got {scale}"
                );
            }
            prev = (e.window, e.node);
        }
    }
}

/// The live fault state of one node, shared (`Rc`) between the node's
/// [`FaultSensor`], its [`FaultSupply`] and the scheduler applying the
/// plan. Interior mutability keeps injection a plain data write.
#[derive(Debug, Default)]
pub struct FaultState {
    sensor: Cell<Option<SensorFault>>,
    supply: Cell<Option<SupplyFault>>,
}

impl FaultState {
    /// The active sensor fault, if any.
    pub fn sensor(&self) -> Option<SensorFault> {
        self.sensor.get()
    }

    /// Sets (or clears) the sensor fault.
    pub fn set_sensor(&self, fault: Option<SensorFault>) {
        self.sensor.set(fault);
    }

    /// The active supply fault, if any.
    pub fn supply(&self) -> Option<SupplyFault> {
        self.supply.get()
    }

    /// Sets (or clears) the supply fault. Clearing never resurrects a
    /// dead regulator: `Dead` is sticky against `None`.
    pub fn set_supply(&self, fault: Option<SupplyFault>) {
        if fault.is_none() && self.supply.get() == Some(SupplyFault::Dead) {
            return;
        }
        self.supply.set(fault);
    }
}

/// A thermal port whose *readings* can fault while the physics stays
/// honest: `advance`, `advance_many` and the power setters always
/// delegate (heat flows whatever the sensor claims), but the
/// temperature queries — `junction_temp_c`, `headroom_k`,
/// `at_thermal_limit` — report through the active [`SensorFault`].
/// With no fault active every method is a bit-identical passthrough.
#[derive(Debug)]
pub struct FaultSensor<T> {
    inner: T,
    state: Rc<FaultState>,
}

impl<T: ThermalModel> FaultSensor<T> {
    /// Wraps `inner` behind the shared fault state.
    pub fn new(inner: T, state: Rc<FaultState>) -> Self {
        Self { inner, state }
    }

    /// The wrapped backend (true physics, fault-free readings).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped backend.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// The shared fault state.
    pub fn state(&self) -> &Rc<FaultState> {
        &self.state
    }
}

impl<T: ThermalModel> ThermalModel for FaultSensor<T> {
    fn set_chip_power_w(&mut self, watts: f64) {
        self.inner.set_chip_power_w(watts);
    }

    fn set_active_core_count(&mut self, cores: usize) {
        self.inner.set_active_core_count(cores);
    }

    fn advance(&mut self, dt_s: f64) {
        self.inner.advance(dt_s);
    }

    fn advance_many(&mut self, dt_s: f64, count: u64) {
        self.inner.advance_many(dt_s, count);
    }

    fn junction_temp_c(&self) -> f64 {
        match self.state.sensor() {
            None => self.inner.junction_temp_c(),
            Some(SensorFault::StuckAt(v)) => v,
            Some(SensorFault::Bias(d)) => self.inner.junction_temp_c() + d,
            Some(SensorFault::Dropout) => f64::NAN,
        }
    }

    fn headroom_k(&self) -> f64 {
        match self.state.sensor() {
            None => self.inner.headroom_k(),
            // Derived from the corrupted reading, exactly as a governor
            // computing headroom from its telemetry would (a dropout
            // yields NaN headroom — the consumer decides what that
            // means).
            Some(_) => self.inner.t_max_c() - self.junction_temp_c(),
        }
    }

    fn melt_fraction(&self) -> f64 {
        self.inner.melt_fraction()
    }

    fn at_thermal_limit(&self) -> bool {
        match self.state.sensor() {
            None => self.inner.at_thermal_limit(),
            // NaN compares false: a dropped-out sensor never trips the
            // limit check — which is exactly why the cluster's Aware
            // response refuses to sprint on one.
            Some(_) => self.junction_temp_c() >= self.inner.t_max_c() - 1e-9,
        }
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

/// A supply port whose delivery can fault: a collapse inflates every
/// draw, a brownout or death refuses delivery (while still passing a
/// zero-power draw through, so a shared pool records the node as
/// drawing nothing and node 0 still settles the window). Idle recharge
/// always delegates — idle paths are fault-transparent, which is what
/// keeps batched idle replay bit-identical under any fault state.
#[derive(Debug)]
pub struct FaultSupply<S> {
    inner: S,
    state: Rc<FaultState>,
}

impl<S: PowerSupply> FaultSupply<S> {
    /// Wraps `inner` behind the shared fault state.
    pub fn new(inner: S, state: Rc<FaultState>) -> Self {
        Self { inner, state }
    }

    /// The wrapped supply.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shared fault state.
    pub fn state(&self) -> &Rc<FaultState> {
        &self.state
    }
}

impl<S: PowerSupply> PowerSupply for FaultSupply<S> {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        match self.state.supply() {
            None => self.inner.draw(power_w, dt_s),
            Some(SupplyFault::Collapsed(scale)) => {
                // Report limits in the chip's (unscaled) terms.
                match self.inner.draw(power_w * scale, dt_s) {
                    Ok(()) => Ok(()),
                    Err(SupplyError::CurrentLimit { available_w, .. }) => {
                        Err(SupplyError::CurrentLimit {
                            requested_w: power_w,
                            available_w: available_w / scale,
                        })
                    }
                    Err(e) => Err(e),
                }
            }
            Some(SupplyFault::Brownout) | Some(SupplyFault::Dead) => {
                // Deliver nothing, but pass the window through at zero
                // draw: a shared-pool view must record that this node
                // draws nothing, and node 0's view settles the pool on
                // this very call.
                let _ = self.inner.draw(0.0, dt_s);
                Err(SupplyError::CurrentLimit {
                    requested_w: power_w,
                    available_w: 0.0,
                })
            }
        }
    }

    fn available_power_w(&self) -> f64 {
        match self.state.supply() {
            None => self.inner.available_power_w(),
            Some(SupplyFault::Collapsed(scale)) => self.inner.available_power_w() / scale,
            Some(SupplyFault::Brownout) | Some(SupplyFault::Dead) => 0.0,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::IdealSupply;
    use crate::thermal_model::LumpedThermal;

    fn lumped() -> LumpedThermal {
        LumpedThermal::server_heatsink()
    }

    #[test]
    fn healthy_wrappers_are_bit_identical_passthrough() {
        let state = Rc::new(FaultState::default());
        let mut bare = lumped();
        let mut wrapped = FaultSensor::new(lumped(), state.clone());
        for _ in 0..50 {
            bare.set_chip_power_w(16.0);
            wrapped.set_chip_power_w(16.0);
            bare.advance(1e-3);
            wrapped.advance(1e-3);
            assert_eq!(
                bare.junction_temp_c().to_bits(),
                wrapped.junction_temp_c().to_bits()
            );
            assert_eq!(bare.headroom_k().to_bits(), wrapped.headroom_k().to_bits());
            assert_eq!(bare.at_thermal_limit(), wrapped.at_thermal_limit());
        }
        let mut supply = FaultSupply::new(IdealSupply, state);
        assert!(supply.draw(16.0, 1e-3).is_ok());
        assert_eq!(supply.available_power_w(), f64::INFINITY);
    }

    #[test]
    fn sensor_faults_corrupt_readings_not_physics() {
        let state = Rc::new(FaultState::default());
        let mut s = FaultSensor::new(lumped(), state.clone());
        s.set_chip_power_w(16.0);
        s.advance(0.5);
        let truth = s.inner().junction_temp_c();

        state.set_sensor(Some(SensorFault::StuckAt(30.0)));
        assert_eq!(s.junction_temp_c(), 30.0);
        state.set_sensor(Some(SensorFault::Bias(5.0)));
        assert_eq!(s.junction_temp_c().to_bits(), (truth + 5.0).to_bits());
        state.set_sensor(Some(SensorFault::Dropout));
        assert!(s.junction_temp_c().is_nan());
        assert!(s.headroom_k().is_nan());
        assert!(!s.at_thermal_limit(), "NaN never trips the limit");
        // The physics underneath never lied.
        assert_eq!(s.inner().junction_temp_c().to_bits(), truth.to_bits());
        state.set_sensor(None);
        assert_eq!(s.junction_temp_c().to_bits(), truth.to_bits());
    }

    #[test]
    fn stuck_hot_sensor_trips_the_limit() {
        let state = Rc::new(FaultState::default());
        let s = FaultSensor::new(lumped(), state.clone());
        state.set_sensor(Some(SensorFault::StuckAt(200.0)));
        assert!(s.at_thermal_limit());
        assert!(s.headroom_k() < 0.0);
    }

    #[test]
    fn supply_faults_refuse_delivery_and_dead_is_sticky() {
        let state = Rc::new(FaultState::default());
        let mut s = FaultSupply::new(IdealSupply, state.clone());
        state.set_supply(Some(SupplyFault::Brownout));
        assert_eq!(s.available_power_w(), 0.0);
        assert!(matches!(
            s.draw(16.0, 1e-3),
            Err(SupplyError::CurrentLimit { available_w, .. }) if available_w == 0.0
        ));
        state.set_supply(None);
        assert!(s.draw(16.0, 1e-3).is_ok(), "brownout clears");
        state.set_supply(Some(SupplyFault::Dead));
        state.set_supply(None);
        assert!(s.draw(16.0, 1e-3).is_err(), "a dead regulator never clears");
        // Idle recharge stays fault-transparent.
        assert_eq!(s.idle_recharge(1.0), 0.0);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_sorted() {
        let rates = FaultRates {
            mean_sensor_gap_windows: 40,
            sensor_hold_windows: 25,
            mean_crash_gap_windows: 90,
            crash_hold_windows: 60,
            mean_supply_gap_windows: 70,
            supply_hold_windows: 30,
        };
        let a = FaultPlan::seeded(2012, 9, 4000, rates);
        let b = FaultPlan::seeded(2012, 9, 4000, rates);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.events.is_empty());
        a.validate(9);
        let c = FaultPlan::seeded(2013, 9, 4000, rates);
        assert_ne!(a.events, c.events, "a different seed moves the schedule");
        // Every drawn value is exactly representable (integer-derived).
        for e in &a.events {
            match e.kind {
                FaultKind::SensorStuck(v) => assert_eq!(v.fract(), 0.0),
                FaultKind::SensorBias(d) => assert_eq!(d.fract(), 0.0),
                FaultKind::SupplyCollapse(s) => {
                    assert!(s > 1.0 && (s * 4.0).fract() == 0.0)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn zero_rates_yield_an_empty_plan() {
        let plan = FaultPlan::seeded(7, 4, 10_000, FaultRates::default());
        assert!(plan.events.is_empty());
        plan.validate(4);
    }

    #[test]
    #[should_panic(expected = "targets node")]
    fn plan_validation_rejects_out_of_range_nodes() {
        FaultPlan::new(vec![FaultEvent {
            window: 1,
            node: 9,
            kind: FaultKind::NodeCrash,
        }])
        .validate(4);
    }
}
