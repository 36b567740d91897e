//! The shared rack power-delivery pool and its per-node views — the
//! electrical analogue of [`crate::rack`].
//!
//! A rack's servers do not each own a wall outlet: they hang off one
//! PDU/busbar whose provisioned feed (the *rack power cap*) was sized
//! for sustained load, with a stored-energy reserve (UPS/ultracapacitor
//! bank) riding through transients. Sprinting electrifies the same
//! tragedy of the commons the thermal pool has: every node sprinting at
//! once demands several times the provisioned feed, the reserve drains,
//! and the bus browns out.
//!
//! [`RackSupply`] wraps that pool in shared ownership and hands out
//! [`NodeSupplyView`]s — one per server — each of which implements the
//! sprint loop's `PowerSupply` port, mirroring the thermal port's
//! nameplate-vs-telemetry split exactly:
//!
//! * a view's `draw` records *its node's* upstream draw in the pool's
//!   telemetry and fails only when the bus is browned out **and** the
//!   node is drawing beyond its nameplate share — during a brownout the
//!   PDU sheds over-share loads, while in-share (sustained) draws ride
//!   through;
//! * a view's `available_power_w` is the node's **nameplate share** of
//!   the rack cap (`cap / nodes`), captured at commissioning: a server's
//!   local governor is provisioned against its share of the feed and
//!   carries no live bus telemetry — a node on a loaded bus still
//!   *believes* its share is available, sprints into the drained
//!   reserve, and trips the brownout. Live pool state (total draw,
//!   headroom, reserve level) belongs to the cluster scheduler:
//!   [`RackSupply::headroom_w`] / [`RackSupply::reserve_fraction`]
//!   expose it for exactly that use (power-aware admission, deferral
//!   and shedding — `ClusterPolicy` + `PowerPolicy`).
//!
//! Nodes attach through a [`Regulator`] (built by
//! [`RackSupplyParams::node_supply`]), so the pool accounts *upstream*
//! watts — chip demand divided by the regulator's load-dependent
//! efficiency — not raw chip power.
//!
//! # Time: node 0 settles
//!
//! Many views draw from one pool, so energy cannot simply be settled
//! per call — N lockstep nodes would drain the reserve N times per
//! window. Every view's `draw` and `idle_recharge` record its node's
//! upstream draw, but only node 0's view settles the pool, across its
//! own interval — the thermal rack's node-0 rule, which covers every
//! window for the same reason: both cluster steppers run every node
//! once per window, by the same window, with node 0 first. A settled
//! interval integrates the *currently recorded* per-node draws: other
//! nodes' updates take effect with at most one window of skew, the
//! same reaction lag every other part of the co-simulation loop
//! already has. Settlement drains the reserve by the over-cap deficit
//! (or recharges it from spare busbar headroom when under cap) and
//! latches the brownout flag the views' draws consult.
//!
//! The total a settlement charges is the recorded draws summed in node
//! order. The pool caches that sum and re-sums only after some recorded
//! draw changed bitwise, so a window in which every node re-records the
//! draw it already had costs node 0 one load, not a walk over the
//! fleet. The scheduler's [`RackSupply::total_draw_w`] and
//! [`RackSupply::headroom_w`] read the same cached sum, which is
//! bit-identical to summing afresh.

use std::cell::RefCell;
use std::rc::Rc;

use sprint_core::supply::{EfficiencyCurve, PowerSupply, Regulator, BOUNDARY_REL_TOL};
use sprint_powersource::battery::SupplyError;

/// Parameters of a rack power-delivery pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackSupplyParams {
    /// Provisioned rack feed (PDU/busbar cap), watts. Demand above this
    /// is served from the reserve; with the reserve empty it browns the
    /// bus out.
    pub cap_w: f64,
    /// Stored-energy ride-through reserve (UPS/ultracap bank), joules.
    pub reserve_capacity_j: f64,
    /// Fastest the reserve recharges from spare busbar headroom, watts.
    pub reserve_recharge_w: f64,
    /// Per-node regulator loss model (each node's view is wrapped in a
    /// [`Regulator`] with this curve by
    /// [`RackSupplyParams::node_supply`]).
    pub regulator: EfficiencyCurve,
}

impl RackSupplyParams {
    /// An unconstrained pool: infinite feed, lossless regulators. A
    /// cluster on this supply is behaviour-identical to one with no
    /// electrical model at all (every draw succeeds, nothing is
    /// recorded against a cap).
    pub fn unlimited() -> Self {
        Self {
            cap_w: f64::INFINITY,
            reserve_capacity_j: f64::INFINITY,
            reserve_recharge_w: f64::INFINITY,
            regulator: EfficiencyCurve::ideal(),
        }
    }

    /// The demo rack's electrical design point for `nodes` servers,
    /// sized against the thermal `rack` preset's ~1 W sustained / 16 W
    /// sprint nodes: the feed carries every node sustained with room
    /// for roughly a third of the rack sprinting (7.5 W/node of
    /// provisioned cap against ~17.7 W of regulated sprint draw), and
    /// the reserve rides through about a second of one extra node's
    /// worth of overdraw — brief admission transients, not scheduled
    /// all-out sprinting, which drains it an order of magnitude
    /// faster.
    pub fn rack(nodes: usize) -> Self {
        assert!(nodes >= 1, "a rack feed needs at least one node");
        Self {
            cap_w: 7.5 * nodes as f64,
            reserve_capacity_j: 10.0 * nodes as f64,
            reserve_recharge_w: 2.0 * nodes as f64,
            regulator: EfficiencyCurve::server_vrm(20.0),
        }
    }

    /// Compresses the electrical time scale by `factor` to match a
    /// time-scaled thermal rack: stored energy shrinks (the reserve
    /// rides through `factor`-times-shorter transients) while power
    /// levels stay physical — the same convention as
    /// `GridThermalParams::time_scaled`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive factor.
    pub fn time_scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "time scale must be positive");
        self.reserve_capacity_j /= factor;
        self
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive cap, negative reserve terms, or an
    /// invalid regulator curve.
    pub fn validate(&self) {
        assert!(self.cap_w > 0.0, "rack cap must be positive");
        assert!(
            self.reserve_capacity_j >= 0.0 && self.reserve_recharge_w >= 0.0,
            "reserve terms must be non-negative"
        );
        self.regulator.validate();
    }
}

/// The shared state behind every view of one rack feed.
#[derive(Debug)]
struct SupplyShared {
    cap_w: f64,
    reserve_j: f64,
    reserve_capacity_j: f64,
    recharge_w: f64,
    /// Per-node upstream draw telemetry, watts (last reported).
    node_draw_w: Vec<f64>,
    /// `node_draw_w` summed in node order, watts; `None` from a bitwise
    /// change of a recorded draw until the next read re-sums it.
    total_draw_w: Option<f64>,
    /// How far node 0 has settled pool energy, seconds.
    settled_to_s: f64,
    /// Latched by settlement: the bus cannot serve the recorded
    /// over-cap demand (reserve empty). Views' draws consult it.
    brownout: bool,
    /// Settled intervals spent browned out (diagnostic).
    brownout_intervals: u64,
    /// Each node's commissioning-time share of the feed, watts. Even
    /// (`cap / nodes`) on a homogeneous rack; a heterogeneous fleet
    /// commissions weighted cuts ([`RackSupply::new_weighted`]).
    nameplate_share_w: Vec<f64>,
    /// The commissioning share weights the cuts were made from
    /// (re-cuts after a decommission reuse them).
    share_weights: Vec<f64>,
    /// The feed the nameplate shares were cut from, watts — frozen at
    /// commissioning (facility re-provisioning moves `cap_w`, never
    /// this).
    commissioned_cap_w: f64,
    /// Which nodes are still commissioned on the feed;
    /// [`RackSupply::decommission_node`] retires one and re-cuts the
    /// nameplate shares among the survivors.
    node_alive: Vec<bool>,
    /// Nodes still commissioned (cached count of `node_alive`).
    alive_nodes: usize,
}

impl SupplyShared {
    /// Re-cuts every node's nameplate share: the commissioned feed
    /// split by commissioning weight across the still-alive nodes.
    /// With unit weights this is bitwise `cap / alive` — summing 1.0
    /// per alive node is exact integer arithmetic in `f64`, and
    /// multiplying by a weight of exactly 1.0 is the identity — so the
    /// homogeneous path reproduces the legacy even cut byte-for-byte.
    fn recut_shares(&mut self) {
        let alive_weight: f64 = self
            .node_alive
            .iter()
            .zip(&self.share_weights)
            .filter(|&(&alive, _)| alive)
            .map(|(_, &w)| w)
            .sum();
        for n in 0..self.nameplate_share_w.len() {
            self.nameplate_share_w[n] =
                self.commissioned_cap_w * self.share_weights[n] / alive_weight;
        }
    }
}

impl SupplyShared {
    /// Records node `node`'s upstream draw. Only a bitwise change
    /// drops the cached total.
    fn record_draw(&mut self, node: usize, watts: f64) {
        if self.node_draw_w[node].to_bits() != watts.to_bits() {
            self.node_draw_w[node] = watts;
            self.total_draw_w = None;
        }
    }

    /// The recorded draws summed in node order, watts.
    fn total_draw_w(&mut self) -> f64 {
        *self
            .total_draw_w
            .get_or_insert_with(|| self.node_draw_w.iter().sum())
    }

    /// Settles node 0's next `dt_s` (see the module docs). The pool is
    /// charged for the interval the settled clock actually moves,
    /// `(settled_to_s + dt_s) - settled_to_s`, which can differ from
    /// `dt_s` in the last bit.
    fn advance(&mut self, dt_s: f64) {
        let target = self.settled_to_s + dt_s;
        if target > self.settled_to_s {
            self.settle(target - self.settled_to_s);
            self.settled_to_s = target;
        }
    }

    /// Settles `dt_s` of pool energy against the recorded draws.
    fn settle(&mut self, dt_s: f64) {
        let total = self.total_draw_w();
        if total > self.cap_w {
            let deficit_j = (total - self.cap_w) * dt_s;
            if deficit_j <= self.reserve_j {
                self.reserve_j -= deficit_j;
                self.brownout = false;
            } else {
                self.reserve_j = 0.0;
                self.brownout = true;
                self.brownout_intervals += 1;
            }
        } else {
            self.brownout = false;
            if self.reserve_j < self.reserve_capacity_j {
                let spare = (self.cap_w - total).min(self.recharge_w);
                self.reserve_j = (self.reserve_j + spare * dt_s).min(self.reserve_capacity_j);
            }
        }
    }
}

/// A rack power-delivery pool shared by many node sessions.
///
/// Cloning is shallow: clones view the same underlying pool.
#[derive(Debug, Clone)]
pub struct RackSupply {
    shared: Rc<RefCell<SupplyShared>>,
}

impl RackSupply {
    /// Commissions a pool for `nodes` servers with even nameplate
    /// shares (`cap / nodes` each).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or zero nodes.
    pub fn new(params: RackSupplyParams, nodes: usize) -> Self {
        Self::new_weighted(params, &vec![1.0; nodes])
    }

    /// Commissions a pool with *weighted* nameplate shares — the
    /// heterogeneous-fleet cut: node `n` is promised
    /// `cap * weights[n] / sum(weights)` of the feed. Unit weights
    /// reproduce [`RackSupply::new`]'s even cut bitwise.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters, zero nodes, or a non-finite or
    /// non-positive weight.
    pub fn new_weighted(params: RackSupplyParams, weights: &[f64]) -> Self {
        params.validate();
        let nodes = weights.len();
        assert!(nodes >= 1, "a rack feed needs at least one node");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "nameplate share weights must be finite and positive"
        );
        let mut shared = SupplyShared {
            cap_w: params.cap_w,
            reserve_j: params.reserve_capacity_j,
            reserve_capacity_j: params.reserve_capacity_j,
            recharge_w: params.reserve_recharge_w,
            node_draw_w: vec![0.0; nodes],
            total_draw_w: Some(0.0),
            settled_to_s: 0.0,
            brownout: false,
            brownout_intervals: 0,
            nameplate_share_w: vec![0.0; nodes],
            share_weights: weights.to_vec(),
            commissioned_cap_w: params.cap_w,
            node_alive: vec![true; nodes],
            alive_nodes: nodes,
        };
        shared.recut_shares();
        Self {
            shared: Rc::new(RefCell::new(shared)),
        }
    }

    /// Number of server nodes on this feed.
    pub fn nodes(&self) -> usize {
        self.shared.borrow().node_draw_w.len()
    }

    /// The `PowerSupply` view for node `node`. Every view records its
    /// node's draw, but only view 0 moves shared time: it alone settles
    /// the pool (see the module docs), so node 0 must step first in
    /// every window.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_view(&self, node: usize) -> NodeSupplyView {
        assert!(node < self.nodes(), "node index out of range");
        NodeSupplyView {
            shared: Rc::clone(&self.shared),
            node,
            idle_draw_w: 0.0,
        }
    }

    /// The provisioned rack feed, watts.
    pub fn cap_w(&self) -> f64 {
        self.shared.borrow().cap_w
    }

    /// Node `node`'s nameplate share of the feed, watts (fixed at
    /// commissioning — the figure that node's local governor sees;
    /// even `cap / nodes` unless the pool was commissioned weighted).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn nameplate_share_w(&self, node: usize) -> f64 {
        self.shared.borrow().nameplate_share_w[node]
    }

    /// Re-provisions the live feed cap — the facility settlement hook
    /// (`sprint-facility`): a global admission tier rations facility
    /// headroom by moving each rack's cap every settlement epoch, and
    /// the rack's local `PowerPolicy::Rationed` admission then books
    /// sprints against whatever cap it currently holds. The nameplate
    /// share is untouched (it is a commissioning-time constant by
    /// design — node governors never learn the feed moved), and so is
    /// the reserve: re-provisioning reroutes busbar watts, it does not
    /// add stored energy.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or NaN cap.
    pub fn set_cap_w(&self, cap_w: f64) {
        assert!(cap_w > 0.0 && !cap_w.is_nan(), "rack cap must be positive");
        self.shared.borrow_mut().cap_w = cap_w;
    }

    /// Retires node `node`'s nameplate booking after a permanent
    /// failure: the commissioned feed is re-cut (by commissioning
    /// weight) among the surviving nodes, so each survivor's nameplate
    /// share — its local governor's provisioning figure and its
    /// brownout ride-through boundary — grows. The live cap, reserve
    /// and telemetry are untouched (decommissioning reroutes busbar
    /// watts, it does not add any), the last commissioned node always
    /// keeps the full feed, and retiring an already-retired node is a
    /// no-op.
    pub fn decommission_node(&self, node: usize) {
        let mut s = self.shared.borrow_mut();
        if s.alive_nodes > 1 && s.node_alive[node] {
            s.node_alive[node] = false;
            s.alive_nodes -= 1;
            s.recut_shares();
        }
    }

    /// Nodes still commissioned on the feed (total minus decommissioned).
    pub fn alive_nodes(&self) -> usize {
        self.shared.borrow().alive_nodes
    }

    /// Live total upstream draw across all nodes, watts (telemetry the
    /// cluster scheduler may act on; node governors never see it).
    pub fn total_draw_w(&self) -> f64 {
        self.shared.borrow_mut().total_draw_w()
    }

    /// Live feed headroom below the cap, watts (negative while the
    /// reserve covers an overdraw).
    pub fn headroom_w(&self) -> f64 {
        let mut s = self.shared.borrow_mut();
        s.cap_w - s.total_draw_w()
    }

    /// One node's live upstream draw, watts.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    pub fn node_draw_w(&self, node: usize) -> f64 {
        self.shared.borrow().node_draw_w[node]
    }

    /// Stored energy left in the ride-through reserve, joules.
    pub fn reserve_j(&self) -> f64 {
        self.shared.borrow().reserve_j
    }

    /// Reserve fill fraction in `[0, 1]`: 1.0 for an infinite reserve
    /// (it can never deplete), 0.0 for a zero-capacity one (there is no
    /// ride-through at all, so a reserve-gated backstop like the
    /// power-emergency shed must treat the pool as already empty).
    pub fn reserve_fraction(&self) -> f64 {
        let s = self.shared.borrow();
        if s.reserve_capacity_j.is_infinite() {
            1.0
        } else if s.reserve_capacity_j == 0.0 {
            0.0
        } else {
            s.reserve_j / s.reserve_capacity_j
        }
    }

    /// True while the bus cannot serve the recorded demand (over-cap
    /// draw with an empty reserve).
    pub fn browned_out(&self) -> bool {
        self.shared.borrow().brownout
    }

    /// Settled intervals spent browned out so far (diagnostic).
    pub fn brownout_intervals(&self) -> u64 {
        self.shared.borrow().brownout_intervals
    }

    /// How far pool energy has been settled, seconds.
    pub fn time_s(&self) -> f64 {
        self.shared.borrow().settled_to_s
    }
}

impl RackSupplyParams {
    /// Builds node `node`'s complete supply stack against `pool`: its
    /// pool view behind a [`Regulator`] carrying this parameter set's
    /// loss curve. The view's idle draw is the regulator's fixed
    /// overhead (`upstream_w(0)`), so an idle rack's baseline load
    /// stays visible to admission and settlement. This is what
    /// `ClusterBuilder::rack_supply` installs per node.
    pub fn node_supply(&self, pool: &RackSupply, node: usize) -> Regulator<NodeSupplyView> {
        let view = pool
            .node_view(node)
            .with_idle_draw_w(self.regulator.upstream_w(0.0));
        Regulator::new(view, self.regulator)
    }
}

/// One node's `PowerSupply` view of the shared rack feed (see the
/// module docs for the nameplate-vs-telemetry split and the node-0
/// settlement rule).
#[derive(Debug, Clone)]
pub struct NodeSupplyView {
    shared: Rc<RefCell<SupplyShared>>,
    node: usize,
    /// Upstream draw recorded while the node idles, watts — the
    /// conversion stage's fixed overhead keeps flowing even with the
    /// chip at rest (`EfficiencyCurve::upstream_w(0)`).
    idle_draw_w: f64,
}

impl NodeSupplyView {
    /// The node index this view maps onto.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Sets the upstream draw the pool accounts while this node idles
    /// (default 0; [`RackSupplyParams::node_supply`] sets it to the
    /// regulator's fixed overhead so an idle rack's baseline load is
    /// not hidden from admission and settlement).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite draw.
    pub fn with_idle_draw_w(mut self, watts: f64) -> Self {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "idle draw must be non-negative and finite"
        );
        self.idle_draw_w = watts;
        self
    }
}

impl PowerSupply for NodeSupplyView {
    fn draw(&mut self, power_w: f64, dt_s: f64) -> Result<(), SupplyError> {
        let mut s = self.shared.borrow_mut();
        s.record_draw(self.node, power_w.max(0.0));
        if self.node == 0 {
            s.advance(dt_s);
        }
        // During a brownout the PDU sheds loads drawing beyond their
        // nameplate share; in-share (sustained) draws ride through.
        // The boundary is tolerance-consistent with the advertised
        // share, like `PinLimited`.
        if s.brownout && power_w > s.nameplate_share_w[self.node] * (1.0 + BOUNDARY_REL_TOL) {
            return Err(SupplyError::CurrentLimit {
                requested_w: power_w,
                available_w: s.nameplate_share_w[self.node],
            });
        }
        Ok(())
    }

    fn available_power_w(&self) -> f64 {
        // The *nameplate* share, deliberately blind to the live bus
        // state — a node's governor was provisioned at commissioning
        // and has no rack telemetry (module docs). The scheduler reads
        // the live pool through `RackSupply` instead.
        self.shared.borrow().nameplate_share_w[self.node]
    }

    fn remaining_energy_j(&self) -> f64 {
        // Nameplate symmetry again: the node is promised its share of
        // the ride-through reserve, not a live reading of it.
        let s = self.shared.borrow();
        s.reserve_capacity_j / s.node_draw_w.len() as f64
    }

    fn idle_recharge(&mut self, dt_s: f64) -> f64 {
        let mut s = self.shared.borrow_mut();
        s.record_draw(self.node, self.idle_draw_w);
        if self.node != 0 {
            // Node 0 already settled this interval and accounted the
            // energy that flowed back.
            return 0.0;
        }
        let before = s.reserve_j;
        s.advance(dt_s);
        let gained = s.reserve_j - before;
        if gained.is_finite() {
            gained.max(0.0)
        } else {
            0.0
        }
    }

    fn idle_recharge_many(&mut self, dt_s: f64, count: u64) -> f64 {
        if self.node != 0 {
            // Every looped call would store the same idle draw and gain
            // nothing, so one store is the whole replay.
            self.shared
                .borrow_mut()
                .record_draw(self.node, self.idle_draw_w);
            return 0.0;
        }
        let mut gained = 0.0;
        for _ in 0..count {
            gained += self.idle_recharge(dt_s);
        }
        gained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool4(cap_w: f64, reserve_j: f64) -> RackSupply {
        RackSupply::new(
            RackSupplyParams {
                cap_w,
                reserve_capacity_j: reserve_j,
                reserve_recharge_w: 4.0,
                regulator: EfficiencyCurve::ideal(),
            },
            4,
        )
    }

    #[test]
    fn lockstep_settles_the_pool_once_per_round() {
        let pool = pool4(40.0, 100.0);
        let mut views: Vec<NodeSupplyView> = (0..4).map(|n| pool.node_view(n)).collect();
        // All four nodes draw 20 W: 80 W demand on a 40 W feed drains
        // the reserve at 40 J/s — if every call settled, it would
        // drain 4x too fast. The first round settles with only node
        // 0's draw recorded (the others land with one window of skew,
        // like the thermal rack), so full-demand drain starts at round
        // 2.
        for round in 1..=10 {
            for v in views.iter_mut() {
                v.draw(20.0, 0.1).unwrap();
            }
            let expected = 100.0 - 40.0 * 0.1 * (round - 1) as f64;
            assert!(
                (pool.reserve_j() - expected).abs() < 1e-9,
                "round {round}: reserve {} not {expected}",
                pool.reserve_j()
            );
            assert!((pool.time_s() - 0.1 * round as f64).abs() < 1e-12);
        }
        assert_eq!(pool.total_draw_w(), 80.0);
        assert_eq!(pool.headroom_w(), -40.0);
    }

    #[test]
    fn the_cached_settlement_sum_reproduces_the_eager_sum() {
        // Draws whose sums round. Every settlement must charge the
        // reserve exactly what summing the recorded draws afresh would,
        // including after a follower's draw changed and changed back
        // between two settlements, and after one that changed for good.
        let cap = 7.0;
        let dt = 0.5;
        let pool = pool4(cap, 1e6);
        let mut views: Vec<NodeSupplyView> = (0..4).map(|n| pool.node_view(n)).collect();
        let mut draws = [0.1, 0.7, 2.3, 5.9];
        let mut recorded = [0.0; 4];
        let mut reserve = 1e6_f64;
        for window in 0..12 {
            views[0].draw(draws[0], dt).unwrap();
            recorded[0] = draws[0];
            let total: f64 = recorded.iter().sum();
            if window > 0 {
                assert!(total > cap, "the model covers over-cap windows only");
                reserve -= (total - cap) * dt;
            }
            assert_eq!(
                pool.reserve_j().to_bits(),
                reserve.to_bits(),
                "window {window}"
            );
            if window % 3 == 1 {
                views[2].draw(40.0, dt).unwrap();
            }
            if window % 3 == 2 {
                draws[3] += 0.3;
            }
            for n in 1..4 {
                views[n].draw(draws[n], dt).unwrap();
                recorded[n] = draws[n];
            }
            let total: f64 = recorded.iter().sum();
            assert_eq!(pool.total_draw_w().to_bits(), total.to_bits());
            assert_eq!(pool.headroom_w().to_bits(), (cap - total).to_bits());
        }
    }

    #[test]
    fn follower_draw_updates_take_effect_next_window() {
        let pool = pool4(40.0, 100.0);
        let mut v0 = pool.node_view(0);
        let mut v1 = pool.node_view(1);
        // Node 0 settles the window with node 1's draw still at zero.
        v0.draw(30.0, 1.0).unwrap();
        v1.draw(30.0, 1.0).unwrap();
        assert_eq!(pool.reserve_j(), 100.0, "first window: 30 W under cap");
        // Next window both recorded draws are live: 60 W on 40 W.
        v0.draw(30.0, 1.0).unwrap();
        v1.draw(30.0, 1.0).unwrap();
        assert!((pool.reserve_j() - 80.0).abs() < 1e-9, "20 J deficit");
    }

    #[test]
    fn brownout_sheds_over_share_draws_but_not_in_share_ones() {
        let pool = pool4(40.0, 5.0);
        let mut views: Vec<NodeSupplyView> = (0..4).map(|n| pool.node_view(n)).collect();
        assert_eq!(pool.nameplate_share_w(0), 10.0);
        // 80 W on a 40 W feed: the 5 J reserve covers 0.125 s.
        let mut failed_at = None;
        for round in 0..10 {
            let mut any_err = false;
            for v in views.iter_mut() {
                if v.draw(20.0, 0.05).is_err() {
                    any_err = true;
                }
            }
            if any_err {
                failed_at = Some(round);
                break;
            }
        }
        let failed_at = failed_at.expect("the reserve must run out");
        assert!(failed_at >= 2, "the reserve rides through ~3 rounds");
        assert!(pool.browned_out());
        assert_eq!(pool.reserve_j(), 0.0);
        // During the brownout an in-share draw still succeeds…
        views[0]
            .draw(9.0, 0.05)
            .expect("in-share draw rides through");
        // …drawing exactly the advertised nameplate share does too…
        let share = views[1].available_power_w();
        views[1].draw(share, 0.05).expect("boundary draw succeeds");
        // …while an over-share draw is shed with chip-relevant figures.
        match views[2].draw(20.0, 0.05) {
            Err(SupplyError::CurrentLimit {
                requested_w,
                available_w,
            }) => {
                assert_eq!(requested_w, 20.0);
                assert_eq!(available_w, 10.0);
            }
            other => panic!("expected a shed, got {other:?}"),
        }
    }

    #[test]
    fn reserve_recharges_from_spare_headroom() {
        let pool = pool4(40.0, 10.0);
        let mut views: Vec<NodeSupplyView> = (0..4).map(|n| pool.node_view(n)).collect();
        // 60 W on a 40 W feed: rounds 2-5 settle the full demand (the
        // first round sees only node 0's draw — one window of skew), so
        // 4 rounds drain 20 W x 0.05 s = 1 J each.
        for _ in 0..5 {
            for v in views.iter_mut() {
                v.draw(15.0, 0.05).unwrap();
            }
        }
        assert!((pool.reserve_j() - 6.0).abs() < 1e-9);
        // Idle rack: recharge is capped by the 4 W limit, not the 40 W
        // of spare headroom. The first idle round still settles the
        // other nodes' stale 15 W draws (45 W total: 0.25 J more out);
        // the remaining nine recharge 4 W x 0.05 s = 0.2 J each.
        let mut gained = 0.0;
        for _ in 0..10 {
            for v in views.iter_mut() {
                gained += v.idle_recharge(0.05);
            }
        }
        assert!((gained - 1.8).abs() < 1e-9, "4 W for 0.45 s: {gained}");
        assert!((pool.reserve_j() - 7.55).abs() < 1e-9);
        assert!(pool.reserve_fraction() > 0.75 && pool.reserve_fraction() < 0.76);
        assert!(!pool.browned_out(), "recharge clears the brownout state");
    }

    #[test]
    fn a_follower_records_its_draw_but_never_settles() {
        let pool = pool4(40.0, 100.0);
        let mut v0 = pool.node_view(0);
        let mut v1 = pool.node_view(1).with_idle_draw_w(0.5);
        // Node 0 drains 20 J: 60 W on the 40 W feed for 1 s.
        v0.draw(60.0, 1.0).unwrap();
        assert_eq!((pool.reserve_j(), pool.time_s()), (80.0, 1.0));
        // Alone, and stepped past node 0's clock, a follower records
        // its draw and settles nothing.
        v1.draw(30.0, 2.0).unwrap();
        assert_eq!(pool.node_draw_w(1), 30.0);
        assert_eq!((pool.reserve_j(), pool.time_s()), (80.0, 1.0));
        assert_eq!(v1.idle_recharge(2.0), 0.0);
        assert_eq!(pool.node_draw_w(1), 0.5);
        assert_eq!((pool.reserve_j(), pool.time_s()), (80.0, 1.0));
        // Node 0's next window charges what was recorded: 0.5 W
        // leaves the full 4 W recharge.
        assert_eq!(v0.idle_recharge(1.0), 4.0);
        assert_eq!((pool.reserve_j(), pool.time_s()), (84.0, 2.0));
    }

    #[test]
    fn idle_recharge_many_replays_a_follower_as_one_record() {
        let pool = pool4(40.0, 100.0);
        let mut v0 = pool.node_view(0);
        let mut v1 = pool.node_view(1).with_idle_draw_w(0.5);
        v0.draw(60.0, 1.0).unwrap();
        v0.idle_recharge(1.0);
        assert_eq!((pool.reserve_j(), pool.time_s()), (84.0, 2.0));
        // A follower's windows gain nothing and move nothing, however
        // many there are; only its idle draw lands.
        assert_eq!(v1.idle_recharge_many(1.0, 5), 0.0);
        assert_eq!(pool.node_draw_w(1), 0.5);
        assert_eq!((pool.reserve_j(), pool.time_s()), (84.0, 2.0));
        // Node 0 settles each window in turn: 3 x 4 W x 1 s.
        assert_eq!(v0.idle_recharge_many(1.0, 3), 12.0);
        assert_eq!((pool.reserve_j(), pool.time_s()), (96.0, 5.0));
    }

    #[test]
    fn unlimited_pool_never_limits_and_never_browns_out() {
        let pool = RackSupply::new(RackSupplyParams::unlimited(), 2);
        let mut v0 = pool.node_view(0);
        let mut v1 = pool.node_view(1);
        for _ in 0..100 {
            v0.draw(1e6, 1.0).unwrap();
            v1.draw(1e6, 1.0).unwrap();
        }
        assert!(!pool.browned_out());
        assert_eq!(pool.reserve_fraction(), 1.0);
        assert_eq!(v0.available_power_w(), f64::INFINITY);
        assert_eq!(v0.idle_recharge(1.0), 0.0, "infinite reserve gains nothing");
    }

    #[test]
    fn node_supply_stacks_a_regulator_over_the_view() {
        let params = RackSupplyParams::rack(4);
        let pool = RackSupply::new(params, 4);
        let mut node0 = params.node_supply(&pool, 0);
        node0.draw(16.0, 1.0).unwrap();
        let upstream = pool.node_draw_w(0);
        assert!(
            (upstream - params.regulator.upstream_w(16.0)).abs() < 1e-12,
            "the pool sees regulated draw: {upstream}"
        );
        assert!(upstream > 17.0, "losses on top of 16 W: {upstream}");
    }

    #[test]
    fn idle_nodes_pay_the_regulator_fixed_overhead() {
        // Regression: idle telemetry was recorded as 0 W, hiding the
        // converters' fixed overhead (16 x 0.3 W on the demo rack)
        // from admission and settlement.
        let params = RackSupplyParams::rack(4);
        let pool = RackSupply::new(params, 4);
        let mut stacks: Vec<_> = (0..4).map(|n| params.node_supply(&pool, n)).collect();
        for s in stacks.iter_mut() {
            s.idle_recharge(0.01);
        }
        let expected = 4.0 * params.regulator.upstream_w(0.0);
        assert!(
            (pool.total_draw_w() - expected).abs() < 1e-12,
            "an idle rack still draws its fixed overhead: {} vs {expected}",
            pool.total_draw_w()
        );
        // A bare view (no regulator) keeps the zero-draw default.
        let bare_pool = pool4(40.0, 10.0);
        let mut bare = bare_pool.node_view(0);
        bare.idle_recharge(0.01);
        assert_eq!(bare_pool.node_draw_w(0), 0.0);
    }

    #[test]
    fn time_scaling_shrinks_the_reserve_only() {
        let p = RackSupplyParams::rack(16);
        let scaled = p.time_scaled(6000.0);
        assert_eq!(scaled.cap_w, p.cap_w);
        assert_eq!(scaled.reserve_recharge_w, p.reserve_recharge_w);
        assert!((scaled.reserve_capacity_j - p.reserve_capacity_j / 6000.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_reserve_reads_empty() {
        // Regression: a zero-capacity reserve once reported a 1.0 fill
        // fraction, which permanently disarmed reserve-gated backstops
        // (the power-emergency shed never saw it as depleted).
        let pool = pool4(40.0, 0.0);
        assert_eq!(pool.reserve_fraction(), 0.0);
        let mut views: Vec<NodeSupplyView> = (0..4).map(|n| pool.node_view(n)).collect();
        // With no ride-through at all, over-cap demand browns out on
        // the first settled overdraw window.
        for _ in 0..2 {
            for v in views.iter_mut() {
                let _ = v.draw(20.0, 0.05);
            }
        }
        assert!(pool.browned_out());
        assert_eq!(pool.reserve_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "node index")]
    fn out_of_range_view_rejected() {
        let _ = pool4(10.0, 1.0).node_view(4);
    }

    /// The heterogeneous commissioning cut: weighted shares
    /// re-normalize to the cap, unit weights reproduce the even cut
    /// bitwise, and a decommission re-cuts by weight among survivors.
    #[test]
    fn weighted_shares_cut_and_recut_by_weight() {
        let params = RackSupplyParams {
            cap_w: 40.0,
            reserve_capacity_j: 10.0,
            reserve_recharge_w: 4.0,
            regulator: EfficiencyCurve::ideal(),
        };
        // A big node weighted 2.0 against three weight-1 littles.
        let pool = RackSupply::new_weighted(params, &[2.0, 1.0, 1.0, 1.0]);
        assert_eq!(pool.nameplate_share_w(0), 16.0);
        assert_eq!(pool.nameplate_share_w(1), 8.0);
        let total: f64 = (0..4).map(|n| pool.nameplate_share_w(n)).sum();
        assert!(
            (total - 40.0).abs() < 1e-12,
            "shares re-normalize to the cap"
        );
        // The big node's view advertises its weighted share.
        assert_eq!(pool.node_view(0).available_power_w(), 16.0);
        // Retiring a little re-cuts 40 W over weight 4: big gets 20 W.
        pool.decommission_node(3);
        assert_eq!(pool.alive_nodes(), 3);
        assert_eq!(pool.nameplate_share_w(0), 20.0);
        assert_eq!(pool.nameplate_share_w(1), 10.0);
        // Retiring the same node again is a no-op.
        pool.decommission_node(3);
        assert_eq!(pool.alive_nodes(), 3);
        assert_eq!(pool.nameplate_share_w(0), 20.0);
        // Unit weights are bitwise the even cut, before and after a
        // decommission (the homogeneous byte-identity contract).
        let even = RackSupply::new(params, 4);
        let weighted = RackSupply::new_weighted(params, &[1.0; 4]);
        for n in 0..4 {
            assert_eq!(
                even.nameplate_share_w(n).to_bits(),
                weighted.nameplate_share_w(n).to_bits()
            );
        }
        even.decommission_node(1);
        weighted.decommission_node(1);
        for n in 0..4 {
            assert_eq!(
                even.nameplate_share_w(n).to_bits(),
                weighted.nameplate_share_w(n).to_bits()
            );
        }
    }
}
