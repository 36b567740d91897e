//! A rack is described once: [`RackSpec`] is plain data that builds
//! any number of identical sessions, and `ClusterBuilder` is the same
//! type under its builder name.

use sprint_archsim::config::MachineConfig;
use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultResponse};
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

/// A generator can draw a rack description, print it on failure, hand
/// it to another thread and build it twice.
const _: () = {
    const fn plain_data<T: Clone + std::fmt::Debug + Send + Sync>() {}
    plain_data::<RackSpec>();
    plain_data::<ClusterBuilder>();
};

/// A homogeneous 3x3 rack under joint thermal and power rationing,
/// with a crash plan: the plan must be applied by every build, not
/// consumed by the first.
fn rationed_rack() -> RackSpec {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    RackSpec::new(GridThermalParams::rack(3, 3).time_scaled(6000.0))
        .power_policy(PowerPolicy::rationed_default())
        .rack_supply(RackSupplyParams::rack(9).time_scaled(6000.0))
        .config(cfg)
        .tasks(ClusterTask::arrivals(
            WorkloadKind::Sobel,
            InputSize::A,
            16,
            9,
            0.0,
            60e-6,
        ))
        .fault_plan(
            FaultPlan::new(vec![FaultEvent {
                window: 12,
                node: 1,
                kind: FaultKind::NodeCrash,
            }])
            .with_retries(3, 8)
            .with_response(FaultResponse::Aware),
        )
        .trace_capacity(0)
}

/// A big/little 2x2 rack under cost-aware placement: unequal share and
/// thermal weights, and every other task wants a 16-core node.
fn hetero_rack() -> RackSpec {
    let big = NodeSpec::standard(MachineConfig::hpca())
        .with_share_weight(1.5)
        .with_thermal_weight(1.25);
    let little = NodeSpec::standard(MachineConfig::hpca().with_cores(8))
        .with_share_weight(0.75)
        .with_thermal_weight(0.8);
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    let mut tasks = ClusterTask::arrivals(WorkloadKind::Sobel, InputSize::A, 16, 6, 0.0, 60e-6);
    for t in tasks.iter_mut().step_by(2) {
        *t = t.with_min_cores(16);
    }
    RackSpec::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .rack_supply(RackSupplyParams::rack(4).time_scaled(3000.0))
        .config(cfg)
        .node_specs([big.clone(), little.clone(), big, little])
        .placement(Placement::CheapestHeadroom)
        .tasks(tasks)
        .max_time_s(0.01)
}

/// Builds `spec` twice for each stepper and drains every build: all
/// four runs must reach the same report digest. Returns the report.
fn drain_four_builds(spec: &RackSpec) -> ClusterReport {
    let lockstep = || {
        let mut session = spec.build();
        assert_eq!(session.run_to_completion(), ClusterOutcome::Drained);
        session.report()
    };
    let event = || {
        let mut event = EventDrivenCluster::new(spec.build());
        assert_eq!(event.run_to_completion(), ClusterOutcome::Drained);
        event.report()
    };
    let first = lockstep();
    for (label, report) in [
        ("second lockstep build", lockstep()),
        ("first event-core build", event()),
        ("second event-core build", event()),
    ] {
        assert_eq!(report.digest(), first.digest(), "{label}");
    }
    first
}

#[test]
fn two_builds_of_a_rationed_rack_drain_to_one_digest() {
    let report = drain_four_builds(&rationed_rack());
    assert_eq!(report.completed, 9);
    assert_eq!(report.node_crashes, 1, "every build applies the crash plan");
}

#[test]
fn two_builds_of_a_heterogeneous_rack_drain_to_one_digest() {
    let report = drain_four_builds(&hetero_rack());
    assert_eq!(report.completed, 6);
}

/// The `machine` shorthand cannot hide a node-spec list of the wrong
/// length.
#[test]
fn a_node_spec_list_of_the_wrong_length_is_an_error() {
    let err = RackSpec::new(GridThermalParams::rack(2, 2))
        .node_specs((0..3).map(|_| NodeSpec::standard(MachineConfig::hpca())))
        .try_build()
        .unwrap_err();
    assert_eq!(
        err,
        ClusterBuildError::NodeSpecCountMismatch { specs: 3, nodes: 4 }
    );
}

/// A time limit is a wall only if it is finite: an infinite one would
/// build a session with no wall at all.
#[test]
fn a_time_limit_must_be_positive_and_finite() {
    for limit_s in [f64::INFINITY, 0.0, -1.0, f64::NAN] {
        let spec = RackSpec::new(GridThermalParams::rack(2, 1)).max_time_s(limit_s);
        assert_eq!(
            spec.max_windows(),
            Err(ClusterBuildError::NonPositiveTimeLimit),
            "{limit_s}"
        );
        let err = spec.try_build().unwrap_err();
        assert_eq!(
            err.to_string(),
            "cluster time limit must be positive and finite"
        );
    }
    // The default 10 s limit over the default 1 us window.
    assert_eq!(
        RackSpec::new(GridThermalParams::rack(2, 1)).max_windows(),
        Ok(10_000_000)
    );
}
