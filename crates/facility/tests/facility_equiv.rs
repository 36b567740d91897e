//! The facility layer's observer-effect contract: a one-rack facility
//! with coupling left at defaults reproduces a standalone
//! [`ClusterSession`] run byte for byte.

use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_facility::prelude::*;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

#[test]
fn one_rack_facility_reproduces_standalone_cluster() {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    let tasks = ClusterTask::arrivals(WorkloadKind::Sobel, InputSize::A, 16, 8, 0.0, 5e-5);

    let facility = FacilityBuilder::new(1)
        .rack_thermal(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .rack_supply(RackSupplyParams::rack(4).time_scaled(3000.0))
        .config(cfg)
        .policy(ClusterPolicy::greedy_default())
        .tasks_on(0, tasks)
        .build();

    // The standalone comparator is built from the very same spec — the
    // ClusterBuilder call a hand-written study would make.
    let mut standalone = facility.spec(0).build();
    assert_eq!(standalone.run_to_completion(), ClusterOutcome::Drained);
    let expected = standalone.report();

    let report = facility.run(1);
    assert!(report.all_drained);
    assert_eq!(report.racks, 1);
    let rack = &report.rack_reports[0];

    // Spot-check the headline figures at exact bits...
    assert_eq!(rack.makespan_s.to_bits(), expected.makespan_s.to_bits());
    assert_eq!(
        rack.p99_latency_s.to_bits(),
        expected.p99_latency_s.to_bits()
    );
    assert_eq!(
        rack.peak_junction_c.to_bits(),
        expected.peak_junction_c.to_bits()
    );
    // ...then everything at once: scalars, outcomes, node reports.
    assert_eq!(
        rack.digest(),
        expected.digest(),
        "a one-rack facility must be bit-for-bit a standalone cluster"
    );

    // The facility rollup of a single rack is that rack's own tail.
    assert_eq!(
        report.p95_latency_s.to_bits(),
        expected.p95_latency_s.to_bits()
    );
    assert_eq!(
        report.p99_latency_s.to_bits(),
        expected.p99_latency_s.to_bits()
    );
    assert_eq!(report.completed, expected.completed);
    assert_eq!(report.supply_aborts, expected.supply_aborts);
}

/// The same contract holds with more worker threads than racks (the
/// pool clamps) and regardless of epoch length: chunked stepping is
/// still the same step sequence.
#[test]
fn epoch_length_and_thread_clamp_do_not_perturb_one_rack() {
    let build = |epoch_windows: u64| {
        FacilityBuilder::new(1)
            .rack_thermal(GridThermalParams::rack(2, 1).time_scaled(3000.0))
            .policy(ClusterPolicy::AllSprint)
            .tasks_on(
                0,
                ClusterTask::arrivals(WorkloadKind::Sobel, InputSize::A, 16, 4, 0.0, 5e-5),
            )
            .epoch_windows(epoch_windows)
            .build()
    };
    let short = build(7).run(4);
    let long = build(512).run(1);
    assert_eq!(
        short.rack_reports[0].digest(),
        long.rack_reports[0].digest(),
        "epoch chunking must not change the step sequence"
    );
    assert!(short.epochs > long.epochs, "sanity: epochs actually differ");
}
