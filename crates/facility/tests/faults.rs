//! Facility-scale fault injection: seeded per-rack fault plans must
//! not cost a single bit of determinism — the faulted facility report
//! is byte-identical at any worker count and on either stepping core —
//! and must never lose work: every arrival ends completed, failed
//! after retries, or outstanding at the time limit, on the cluster
//! *and* the facility merge path.

use sprint_cluster::{
    ClusterBuildError, ClusterPolicy, ClusterTask, PowerPolicy, RackSupplyParams,
};
use sprint_core::config::SprintConfig;
use sprint_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultRates, FaultResponse};
use sprint_facility::prelude::*;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};
use sprint_workloads::traffic::TrafficParams;

/// Fault rates sized to the fixture's ~10k-window horizon: enough
/// onsets that every family provably fires, few enough that the run
/// still makes progress.
fn biting_rates() -> FaultRates {
    FaultRates {
        mean_sensor_gap_windows: 400,
        sensor_hold_windows: 200,
        mean_crash_gap_windows: 1500,
        crash_hold_windows: 300,
        mean_supply_gap_windows: 800,
        supply_hold_windows: 250,
    }
}

/// The determinism suite's fully-coupled facility, plus seeded faults
/// on every rack. The finite time limit bounds racks whose quarantined
/// nodes strand part of the queue.
fn faulted_facility(
    racks: usize,
    seed: u64,
    tasks: usize,
    event_driven: bool,
    response: FaultResponse,
) -> Facility {
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
        .max_time_s(0.01)
        .traffic({
            let mut traffic = TrafficParams::frontend(seed, tasks, 60_000.0);
            traffic.size_weights = [1.0, 0.0, 0.0, 0.0];
            traffic
        })
        .fault_rates(biting_rates())
        .fault_seed(seed ^ 0xFA17)
        .fault_response(response)
        .event_driven(event_driven)
        .build()
}

/// The headline acceptance invariant: under seeded faults the
/// event-driven facility reproduces the lockstep oracle's digest at
/// 1, 2 and 8 workers — and the plans provably bite.
#[test]
fn faulted_facility_is_byte_identical_across_cores_and_worker_counts() {
    let response = FaultResponse::Aware;
    let oracle = faulted_facility(8, 5, 16, false, response).run(1);
    assert!(oracle.fault_events > 0, "the fault plans never fired");
    assert!(oracle.node_crashes > 0, "no node ever crashed");
    assert!(oracle.sensor_faults > 0, "no sensor ever faulted");
    assert!(oracle.supply_faults > 0, "no supply ever faulted");
    assert!(
        oracle.task_conservation_holds(),
        "a task was lost: {} completed + {} failed + {} outstanding != {}",
        oracle.completed,
        oracle.failed_tasks,
        oracle.outstanding_tasks,
        oracle.total_tasks,
    );

    for threads in [1usize, 2, 8] {
        let report = faulted_facility(8, 5, 16, true, response).run(threads);
        assert_eq!(
            oracle.digest(),
            report.digest(),
            "faulted event-driven facility at {threads} workers diverged \
             from the lockstep oracle: p99 {} vs {}, crashes {} vs {}",
            oracle.p99_latency_s,
            report.p99_latency_s,
            oracle.node_crashes,
            report.node_crashes,
        );
    }
}

/// Task conservation on the facility merge path, in both response
/// modes and across seeds: the facility totals are exactly the sum of
/// the rack reports, and nothing is ever lost.
#[test]
fn facility_merge_conserves_tasks_under_faults() {
    for seed in [5u64, 11] {
        for response in [FaultResponse::Aware, FaultResponse::Oblivious] {
            let report = faulted_facility(4, seed, 8, true, response).run(2);
            assert!(
                report.task_conservation_holds(),
                "seed {seed} ({response:?}): {} completed + {} failed + {} \
                 outstanding != {}",
                report.completed,
                report.failed_tasks,
                report.outstanding_tasks,
                report.total_tasks,
            );
            for field in [
                (
                    report.fault_events,
                    report.rack_reports.iter().map(|r| r.fault_events).sum(),
                ),
                (
                    report.failed_tasks,
                    report.rack_reports.iter().map(|r| r.failed_tasks).sum(),
                ),
                (
                    report.requeues,
                    report.rack_reports.iter().map(|r| r.requeues).sum(),
                ),
                (
                    report.outstanding_tasks,
                    report
                        .rack_reports
                        .iter()
                        .map(|r| r.outstanding_tasks)
                        .sum(),
                ),
            ] {
                let (facility, racks): (usize, usize) = field;
                assert_eq!(facility, racks, "facility counter is not the rack sum");
            }
        }
    }
}

/// The two response modes are genuinely different policies under the
/// same fault plans — the degradation study compares real alternatives.
#[test]
fn aware_and_oblivious_runs_differ_under_the_same_plans() {
    let aware = faulted_facility(4, 5, 8, true, FaultResponse::Aware).run(2);
    let oblivious = faulted_facility(4, 5, 8, true, FaultResponse::Oblivious).run(2);
    assert!(aware.fault_events > 0 && oblivious.fault_events > 0);
    assert_ne!(
        aware.digest(),
        oblivious.digest(),
        "Aware and Oblivious produced identical runs — the faults never \
         touched a scheduling decision"
    );
}

/// Unsatisfiable facility provisioning comes back as a typed error
/// from `try_build`, with `build` panicking on the identical message.
#[test]
fn facility_build_errors_are_typed_and_display_cleanly() {
    let err = FacilityBuilder::new(2)
        .epoch_windows(0)
        .try_build()
        .unwrap_err();
    assert_eq!(err, FacilityBuildError::ZeroEpochWindows);
    assert_eq!(err.to_string(), "an epoch needs at least one window");

    let err = FacilityBuilder::new(2)
        .facility_policy(FacilityPolicy::GlobalRationed {
            floor_w: 10.0,
            slot_w: 14.0,
        })
        .try_build()
        .unwrap_err();
    assert_eq!(err, FacilityBuildError::MissingFacilityCap);

    let err = FacilityBuilder::new(2)
        .rack_supply(RackSupplyParams::rack(2))
        .facility_policy(FacilityPolicy::GlobalRationed {
            floor_w: 10.0,
            slot_w: 0.0,
        })
        .facility_cap_w(40.0)
        .try_build()
        .unwrap_err();
    assert!(
        err.to_string().contains("slot must be positive"),
        "policy diagnostics must survive the typed path: {err}"
    );
    assert!(std::error::Error::source(&err).is_none());

    // Every rack's fault plan is vetted, not only rack 0's.
    let err = FacilityBuilder::new(2)
        .fault_on(
            1,
            FaultPlan::new(vec![FaultEvent {
                window: 0,
                node: 99,
                kind: FaultKind::NodeCrash,
            }]),
        )
        .try_build()
        .unwrap_err();
    assert_eq!(
        err,
        FacilityBuildError::Rack(ClusterBuildError::FaultNodeOutOfRange {
            node: 99,
            nodes: 16
        })
    );
    assert_eq!(
        err.to_string(),
        "fault plan targets node 99 but the cluster has 16"
    );

    // A supply "collapse" must raise the node's draw: a 0.5 scale on
    // rack 1 would halve its pool draw instead.
    let err = FacilityBuilder::new(2)
        .fault_on(
            1,
            FaultPlan::new(vec![FaultEvent {
                window: 0,
                node: 0,
                kind: FaultKind::SupplyCollapse(0.5),
            }]),
        )
        .try_build()
        .unwrap_err();
    assert_eq!(
        err,
        FacilityBuildError::Rack(ClusterBuildError::BadCollapseScale { scale: 0.5 })
    );
    assert_eq!(
        err.to_string(),
        "a supply collapse must scale draws above unity, got 0.5"
    );

    // NaN row and feed inputs are errors, not a silently disabled
    // recirculation, a panic inside `Facility::run` or racks pinned at
    // the floor.
    let row = RowParams {
        racks_per_row: 2,
        recirc_k_per_w: 0.5,
        crac_capacity_w: 30.0,
        max_inlet_c: 40.0,
    };
    for (row, message) in [
        (
            RowParams {
                crac_capacity_w: f64::NAN,
                ..row
            },
            "crac_capacity_w must be a non-negative number",
        ),
        (
            RowParams {
                max_inlet_c: f64::NAN,
                ..row
            },
            "max_inlet_c must be a number",
        ),
    ] {
        let err = FacilityBuilder::new(2).row(row).try_build().unwrap_err();
        assert_eq!(err, FacilityBuildError::Row(message));
        assert_eq!(err.to_string(), message);
    }
    let err = FacilityBuilder::new(2)
        .rack_supply(RackSupplyParams::rack(16))
        .facility_policy(FacilityPolicy::GlobalRationed {
            floor_w: 10.0,
            slot_w: 14.0,
        })
        .facility_cap_w(f64::NAN)
        .try_build()
        .unwrap_err();
    assert_eq!(err, FacilityBuildError::BadFacilityCap);

    // So is every rack's task list: a bad task given to rack 1 is an
    // error here, not a panic inside `Facility::run`.
    let sobel = |threads, arrival_s| {
        ClusterTask::new(WorkloadKind::Sobel, InputSize::A, threads, arrival_s)
    };
    for (task, expected, message) in [
        (
            sobel(16, f64::NAN),
            ClusterBuildError::BadTaskArrival,
            "task arrivals must be finite and non-negative",
        ),
        (
            sobel(0, 0.0),
            ClusterBuildError::ZeroThreadTask,
            "a task needs at least one thread",
        ),
    ] {
        let err = FacilityBuilder::new(2)
            .tasks_on(1, [task])
            .try_build()
            .unwrap_err();
        assert_eq!(err, FacilityBuildError::Rack(expected));
        assert_eq!(err.to_string(), message);
    }
}
