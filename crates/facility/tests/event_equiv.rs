//! Facility-level golden equivalence: running every rack on the
//! event-driven core must reproduce the lockstep facility report
//! digest byte-for-byte, at any worker-thread count, with every
//! coupling engaged (row airflow, rationed facility feed,
//! power-rationed local admission, bursty diurnal traffic). The
//! lockstep path stays in the tree exactly so this oracle can keep
//! running.

use sprint_cluster::{ClusterPolicy, PowerPolicy, RackSupplyParams};
use sprint_core::config::SprintConfig;
use sprint_facility::prelude::*;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::traffic::TrafficParams;

/// The determinism suite's fully-coupled facility, with the stepping
/// core selectable.
fn coupled_facility(racks: usize, seed: u64, tasks: usize, event_driven: bool) -> Facility {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    FacilityBuilder::new(racks)
        .rack_thermal(GridThermalParams::rack(2, 1).time_scaled(3000.0))
        .rack_supply(RackSupplyParams::rack(2).time_scaled(3000.0))
        .config(cfg)
        .policy(ClusterPolicy::GreedyHeadroom {
            admit_headroom_k: 15.0,
            shed_headroom_k: 4.0,
            min_sprinting: 1,
            defer_s: 2e-4,
        })
        .power_policy(PowerPolicy::Rationed {
            sprint_draw_w: 14.0,
            shed_reserve_fraction: 0.5,
        })
        .row(RowParams {
            racks_per_row: 4,
            recirc_k_per_w: 0.05,
            crac_capacity_w: 8.0,
            max_inlet_c: 40.0,
        })
        .facility_policy(FacilityPolicy::GlobalRationed {
            floor_w: 7.5,
            slot_w: 14.0,
        })
        .facility_cap_w(14.5 * racks as f64)
        .epoch_windows(32)
        .traffic({
            let mut traffic = TrafficParams::frontend(seed, tasks, 60_000.0);
            traffic.size_weights = [1.0, 0.0, 0.0, 0.0];
            traffic
        })
        .event_driven(event_driven)
        .build()
}

#[test]
fn event_driven_facility_matches_lockstep_at_1_2_and_8_workers() {
    let lockstep = coupled_facility(8, 5, 16, false);
    let event = coupled_facility(8, 5, 16, true);

    let oracle = lockstep.run(1);
    assert_eq!(oracle.completed, 16, "every task completes");
    // Both engines share every scheduler pass, so a change that moves
    // them together would pass the equivalence check below: the
    // lockstep digest is pinned too.
    assert_eq!(
        oracle.digest(),
        0x0fc9_b4ce_f35b_dc36,
        "the lockstep facility report moved off its pinned digest"
    );
    assert!(oracle.all_drained);

    for threads in [1usize, 2, 8] {
        let report = event.run(threads);
        assert_eq!(
            oracle.digest(),
            report.digest(),
            "event-driven at {threads} workers diverged from the \
             lockstep oracle: p99 {} vs {}, epochs {} vs {}",
            oracle.p99_latency_s,
            report.p99_latency_s,
            oracle.epochs,
            report.epochs,
        );
    }

    // The equivalence claim is not vacuous: the couplings fired.
    assert!(
        oracle.peak_inlet_c > 25.0,
        "row recirculation never lifted an inlet (peak {})",
        oracle.peak_inlet_c
    );
    assert!(
        oracle.epochs > 1,
        "the settlement barrier ran more than once"
    );
}
