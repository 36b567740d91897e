//! The settlement barrier's decisions, free of threads and channels.
//!
//! Between two epochs the facility re-deals its feed, re-computes row
//! inlets and re-places stranded crash-retries. [`Settlement`] holds
//! exactly the state those decisions carry from one barrier to the
//! next, and is driven in three steps per epoch: [`inputs`] deals the
//! next epoch's per-rack [`RackInputs`], [`record`] takes each rack's
//! [`RackTelemetry`] back (in any order), and [`close_epoch`] routes
//! the stranded tasks and reports whether the run is over. Every
//! cross-rack term is computed here in rack index order, which is what
//! makes the facility report independent of the worker count.
//!
//! [`inputs`]: Settlement::inputs
//! [`record`]: Settlement::record
//! [`close_epoch`]: Settlement::close_epoch

use std::mem;

use sprint_cluster::ClusterTask;
use sprint_core::fault::FaultResponse;

use crate::facility::{Facility, RackSpec};
use crate::shard::{RackInputs, RackTelemetry};

/// The barrier's state between epochs.
pub(crate) struct Settlement<'f> {
    facility: &'f Facility,
    /// Inlet each rack was last sent (its ambient until row coupling
    /// first moves it), Celsius.
    last_inlet: Vec<f64>,
    /// Cap each rack was last sent (its nameplate until first dealt), W.
    last_cap: Vec<f64>,
    /// Each rack's latest telemetry, stranded tasks included until
    /// [`close_epoch`](Self::close_epoch) routes them.
    telemetry: Vec<RackTelemetry>,
    /// Routed tasks waiting for the next epoch's injection, by rack.
    pending: Vec<Vec<ClusterTask>>,
    /// Epochs closed so far.
    pub(crate) epochs: u64,
    /// Hottest inlet ever sent (the hottest ambient before that), C.
    pub(crate) peak_inlet_c: f64,
}

impl<'f> Settlement<'f> {
    /// The state before the first epoch: every rack at its ambient and
    /// nameplate, idle and fully alive.
    pub(crate) fn new(facility: &'f Facility) -> Self {
        let specs = &facility.specs;
        let last_inlet: Vec<f64> = specs.iter().map(|s| s.thermal.ambient_c).collect();
        Self {
            facility,
            peak_inlet_c: last_inlet.iter().copied().fold(f64::MIN, f64::max),
            last_inlet,
            last_cap: specs.iter().map(nameplate_w).collect(),
            // Before its first epoch a rack counts as cold, idle and
            // fully alive.
            telemetry: vec![
                RackTelemetry {
                    alive_frac: 1.0,
                    ..RackTelemetry::default()
                };
                specs.len()
            ],
            pending: vec![Vec::new(); specs.len()],
            epochs: 0,
        }
    }

    /// Deals the next epoch's inputs from the latest telemetry: the
    /// facility cap shares, the row inlets and the routed injections.
    /// A cap or inlet is sent only when it moved, so an uncoupled
    /// facility sends nothing and its racks run as standalone clusters.
    pub(crate) fn inputs(&mut self) -> Vec<RackInputs> {
        let f = self.facility;
        let effective: Vec<f64> = f
            .specs
            .iter()
            .zip(&self.telemetry)
            .map(|(spec, t)| effective_nameplate_w(spec, t.alive_frac))
            .collect();
        let demand: Vec<usize> = self.telemetry.iter().map(|t| t.demand).collect();
        let caps = f.policy.settle(f.facility_cap_w, &effective, &demand);
        let mut inputs: Vec<RackInputs> = self
            .pending
            .iter_mut()
            .map(|pending| RackInputs {
                inject: mem::take(pending),
                ..RackInputs::default()
            })
            .collect();
        if let Some(row) = f.row.filter(|r| r.recirc_k_per_w > 0.0) {
            let mut row_heat = vec![0.0f64; f.specs.len().div_ceil(row.racks_per_row)];
            for (r, t) in self.telemetry.iter().enumerate() {
                row_heat[r / row.racks_per_row] += t.heat_w;
            }
            for (r, spec) in f.specs.iter().enumerate() {
                let excess = (row_heat[r / row.racks_per_row] - row.crac_capacity_w).max(0.0);
                let inlet =
                    (spec.thermal.ambient_c + row.recirc_k_per_w * excess).min(row.max_inlet_c);
                if inlet.to_bits() != self.last_inlet[r].to_bits() {
                    inputs[r].inlet_c = Some(inlet);
                    self.last_inlet[r] = inlet;
                    self.peak_inlet_c = self.peak_inlet_c.max(inlet);
                }
            }
        }
        for (r, cap) in caps.into_iter().flatten().enumerate() {
            if cap.to_bits() != self.last_cap[r].to_bits() {
                inputs[r].cap_w = Some(cap);
                self.last_cap[r] = cap;
            }
        }
        inputs
    }

    /// Takes rack `rack`'s end-of-epoch telemetry.
    pub(crate) fn record(&mut self, rack: usize, telemetry: RackTelemetry) {
        self.telemetry[rack] = telemetry;
    }

    /// Routes every stranded task to a rack for the next epoch, counts
    /// the epoch, and reports whether the run is over: every rack
    /// terminal and nothing left to inject.
    pub(crate) fn close_epoch(&mut self) -> bool {
        // Origin-rack order, then drain order, keeps the routing
        // deterministic at any worker count.
        for origin in 0..self.telemetry.len() {
            for task in mem::take(&mut self.telemetry[origin].stranded) {
                let dest = self.destination();
                self.pending[dest].push(task);
            }
        }
        self.epochs += 1;
        self.telemetry.iter().all(|t| t.terminal) && self.pending.iter().all(Vec::is_empty)
    }

    /// The cheapest live rack for one routed task: non-terminal first,
    /// then the lowest load per *alive* node (a rack that quarantined
    /// half its fleet looks twice as loaded), ties to the lowest index.
    fn destination(&self) -> usize {
        let load = |d: usize| {
            // A rack with no alive nodes can serve nothing, whatever
            // its (empty) backlog says: rank it behind every live rack.
            let t = &self.telemetry[d];
            let alive_nodes = t.alive_frac * nodes(&self.facility.specs[d]);
            if alive_nodes < 0.5 {
                f64::INFINITY
            } else {
                (t.demand + self.pending[d].len()) as f64 / alive_nodes
            }
        };
        (0..self.telemetry.len())
            .min_by(|&a, &b| {
                let (ta, tb) = (&self.telemetry[a], &self.telemetry[b]);
                ta.terminal
                    .cmp(&tb.terminal)
                    .then(load(a).total_cmp(&load(b)))
                    .then(a.cmp(&b))
            })
            .expect("a facility has at least one rack")
    }
}

/// A rack's PDU nameplate, W (unbounded without a rack supply).
fn nameplate_w(spec: &RackSpec) -> f64 {
    spec.supply.map_or(f64::INFINITY, |p| p.cap_w)
}

/// Nodes on the rack.
fn nodes(spec: &RackSpec) -> f64 {
    spec.thermal.floorplan.core_count() as f64
}

/// The nameplate the feed tier deals a rack's cap against. A
/// degradation-aware rack that quarantined nodes cedes their share to
/// the pool, but never below one node's share: like the supply tier,
/// whose last commissioned node keeps the full feed, the settlement
/// never provisions a busbar to the zero watts `RackSupply::set_cap_w`
/// rejects. An oblivious rack keeps claiming its full nameplate.
fn effective_nameplate_w(spec: &RackSpec, alive_frac: f64) -> f64 {
    let aware = spec
        .fault
        .as_ref()
        .is_some_and(|p| p.response == FaultResponse::Aware);
    if aware {
        nameplate_w(spec) * alive_frac.max(1.0 / nodes(spec))
    } else {
        nameplate_w(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_cluster::RackSupplyParams;
    use sprint_core::fault::FaultPlan;
    use sprint_thermal::grid::GridThermalParams;
    use sprint_workloads::suite::{InputSize, WorkloadKind};

    use crate::{FacilityBuilder, FacilityPolicy, RowParams};

    const RACKS: usize = 5;
    const NAMEPLATE_W: f64 = 40.0;
    const FEED_W: f64 = 70.0;
    const EPOCHS: usize = 200;

    /// SplitMix64: the seeded stream every synthetic telemetry draw
    /// comes from.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// One rack's telemetry; stranded tasks take fresh ids (their
        /// arrival time) from `next_id`.
        fn telemetry(&mut self, next_id: &mut u32) -> RackTelemetry {
            let stranded = (0..self.below(3))
                .map(|_| {
                    *next_id += 1;
                    ClusterTask::new(WorkloadKind::Sobel, InputSize::A, 16, *next_id as f64)
                })
                .collect();
            RackTelemetry {
                heat_w: self.below(4000) as f64 / 100.0,
                demand: self.below(8) as usize,
                // 0, 1 or 2 of the rack's 2 nodes alive.
                alive_frac: self.below(3) as f64 / 2.0,
                terminal: self.below(4) == 0,
                stranded,
            }
        }
    }

    /// Five 2-node racks on 40 W PDUs in rows of two (the last row
    /// short), under `policy`. Racks 1 and 3 run fault-aware plans and
    /// rack 4 an oblivious one, so the feed tier re-deals the nameplate
    /// share a rack reports dead.
    fn facility(policy: FacilityPolicy, feed_w: Option<f64>, row: bool) -> Facility {
        let mut builder = FacilityBuilder::new(RACKS)
            .rack_thermal(GridThermalParams::rack(2, 1))
            .rack_supply(RackSupplyParams {
                cap_w: NAMEPLATE_W,
                ..RackSupplyParams::rack(2)
            })
            .facility_policy(policy)
            .fault_on(1, FaultPlan::none())
            .fault_on(3, FaultPlan::none())
            .fault_on(4, FaultPlan::none().with_response(FaultResponse::Oblivious));
        if let Some(feed_w) = feed_w {
            builder = builder.facility_cap_w(feed_w);
        }
        if row {
            builder = builder.row(RowParams {
                racks_per_row: 2,
                recirc_k_per_w: 0.5,
                crac_capacity_w: 30.0,
                max_inlet_c: 40.0,
            });
        }
        builder.build()
    }

    fn rationed() -> Facility {
        let policy = FacilityPolicy::GlobalRationed {
            floor_w: 5.0,
            slot_w: 8.0,
        };
        facility(policy, Some(FEED_W), true)
    }

    /// Every figure of one epoch's inputs at exact bits, routed tasks
    /// by id.
    fn bits(inputs: &[RackInputs]) -> Vec<(Option<u64>, Option<u64>, Vec<u64>)> {
        inputs
            .iter()
            .map(|i| {
                (
                    i.inlet_c.map(f64::to_bits),
                    i.cap_w.map(f64::to_bits),
                    i.inject.iter().map(|t| t.arrival_s.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn dealt_caps_stay_within_the_feed_and_every_nameplate() {
        let tiers = [
            rationed(),
            facility(FacilityPolicy::PerRack, Some(FEED_W), true),
        ];
        for (seed, f) in tiers.iter().enumerate() {
            let mut draws = Stream(seed as u64);
            let mut next_id = 0;
            let mut settlement = Settlement::new(f);
            // The caps the racks hold: nameplates until first dealt.
            let mut caps = [NAMEPLATE_W; RACKS];
            for epoch in 0..EPOCHS {
                for (r, input) in settlement.inputs().into_iter().enumerate() {
                    if let Some(cap_w) = input.cap_w {
                        caps[r] = cap_w;
                    }
                }
                let dealt: f64 = caps.iter().sum();
                assert!(dealt <= FEED_W + 1e-9, "epoch {epoch}: {dealt} W dealt");
                for (r, &cap_w) in caps.iter().enumerate() {
                    assert!(
                        cap_w <= NAMEPLATE_W + 1e-9,
                        "epoch {epoch}: rack {r} {cap_w} W"
                    );
                }
                for r in 0..RACKS {
                    settlement.record(r, draws.telemetry(&mut next_id));
                }
                settlement.close_epoch();
            }
        }
    }

    #[test]
    fn telemetry_order_does_not_change_the_next_inputs() {
        let f = rationed();
        let (mut in_order, mut shuffled) = (Settlement::new(&f), Settlement::new(&f));
        let mut draws = Stream(7);
        let mut next_id = 0;
        for epoch in 0..EPOCHS {
            assert_eq!(
                bits(&in_order.inputs()),
                bits(&shuffled.inputs()),
                "epoch {epoch}"
            );
            let telemetry: Vec<RackTelemetry> =
                (0..RACKS).map(|_| draws.telemetry(&mut next_id)).collect();
            let mut order: Vec<usize> = (0..RACKS).collect();
            for i in (1..RACKS).rev() {
                order.swap(i, draws.below(i as u64 + 1) as usize);
            }
            for (r, t) in telemetry.iter().enumerate() {
                in_order.record(r, t.clone());
            }
            for &r in &order {
                shuffled.record(r, telemetry[r].clone());
            }
            assert_eq!(in_order.close_epoch(), shuffled.close_epoch());
        }
        assert_eq!(in_order.epochs, shuffled.epochs);
        assert_eq!(
            in_order.peak_inlet_c.to_bits(),
            shuffled.peak_inlet_c.to_bits()
        );
        assert!(in_order.peak_inlet_c > 25.0, "the row coupling never fired");
    }

    #[test]
    fn every_stranded_task_is_injected_once_on_a_live_rack() {
        let f = rationed();
        let mut settlement = Settlement::new(&f);
        let mut draws = Stream(11);
        let mut next_id = 0;
        settlement.inputs();
        let mut routed = 0;
        for epoch in 0..EPOCHS {
            let telemetry: Vec<RackTelemetry> =
                (0..RACKS).map(|_| draws.telemetry(&mut next_id)).collect();
            let mut stranded: Vec<u64> = telemetry
                .iter()
                .flat_map(|t| t.stranded.iter().map(|task| task.arrival_s.to_bits()))
                .collect();
            let live = |r: usize| !telemetry[r].terminal && telemetry[r].alive_frac > 0.0;
            let any_live = (0..RACKS).any(live);
            for (r, t) in telemetry.iter().enumerate() {
                settlement.record(r, t.clone());
            }
            let over = settlement.close_epoch();
            assert_eq!(
                over,
                stranded.is_empty() && telemetry.iter().all(|t| t.terminal),
                "epoch {epoch}: the run ends when every rack is terminal and nothing is pending"
            );
            let mut injected = Vec::new();
            for (r, input) in settlement.inputs().iter().enumerate() {
                for task in &input.inject {
                    assert!(
                        live(r) || !any_live,
                        "epoch {epoch}: routed to rack {r}, which cannot serve, over a live rack"
                    );
                    injected.push(task.arrival_s.to_bits());
                }
            }
            stranded.sort_unstable();
            injected.sort_unstable();
            assert_eq!(injected, stranded, "epoch {epoch}");
            routed += stranded.len();
        }
        assert!(routed > EPOCHS, "the draws strand too little to test");
    }

    #[test]
    fn an_uncoupled_facility_sends_only_empty_inputs() {
        let f = facility(FacilityPolicy::PerRack, None, false);
        let mut settlement = Settlement::new(&f);
        let mut draws = Stream(3);
        let mut next_id = 0;
        for epoch in 0..EPOCHS {
            for (r, input) in settlement.inputs().iter().enumerate() {
                assert!(
                    input.inlet_c.is_none() && input.cap_w.is_none() && input.inject.is_empty(),
                    "epoch {epoch}: rack {r} got {input:?}"
                );
            }
            for r in 0..RACKS {
                // Without requeue routing a rack never strands a task.
                let mut t = draws.telemetry(&mut next_id);
                t.stranded.clear();
                settlement.record(r, t);
            }
            settlement.close_epoch();
        }
    }
}
