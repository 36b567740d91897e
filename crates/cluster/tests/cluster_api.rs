//! Integration tests for the rack-level cluster: the 1-node
//! byte-for-byte equivalence the refactor promises, and the policy
//! comparisons the subsystem exists for.

use sprint_archsim::config::MachineConfig;
use sprint_archsim::machine::Machine;
use sprint_cluster::prelude::*;
use sprint_core::config::{ExecutionMode, SprintConfig};
use sprint_core::controller::ControllerEvent;
use sprint_core::session::{RunReport, ScenarioBuilder, SprintSession, StepOutcome};
use sprint_powersource::hybrid::HybridSupply;
use sprint_thermal::floorplan::Floorplan;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{suite_loader, InputSize, WorkloadKind};

/// A 1-node cluster is the same co-simulation as a standalone session:
/// same machine, same grid, same controller decisions — byte for byte.
/// This pins the whole port stack (node view power mapping, regional
/// budget, node-0 clock) against the code path every existing test
/// already trusts.
#[test]
fn one_node_cluster_reproduces_a_standalone_session_byte_for_byte() {
    // One server whose footprint covers the full rack floor, so the
    // node's regional readouts coincide with the grid-global ones.
    let params = || {
        GridThermalParams::rack(1, 1)
            .with_floorplan(Floorplan::full_die())
            .time_scaled(2000.0)
    };

    let mut standalone = ScenarioBuilder::new()
        .load(suite_loader(WorkloadKind::Sobel, InputSize::A, 16))
        .thermal(params().build())
        .config(SprintConfig::hpca_parallel())
        .build();
    assert_eq!(standalone.run_to_completion(), StepOutcome::Finished);
    let expected = standalone.report();

    let mut cluster = ClusterBuilder::new(params())
        .policy(ClusterPolicy::AllSprint)
        .config(SprintConfig::hpca_parallel())
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 16, 1))
        .build();
    assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
    assert_reports_byte_equal(&cluster.node_report(0), &expected);

    let outcome = cluster.outcomes()[0];
    assert!(outcome.sprinted);
    assert_eq!(outcome.copies, 1);
    assert_eq!(
        outcome.completed_s.to_bits(),
        expected.completion_s.to_bits()
    );
}

/// Asserts two coupled reports are byte-for-byte identical.
fn assert_reports_byte_equal(got: &RunReport, expected: &RunReport) {
    assert_eq!(got.completion_s.to_bits(), expected.completion_s.to_bits());
    assert_eq!(got.energy_j.to_bits(), expected.energy_j.to_bits());
    assert_eq!(got.instructions, expected.instructions);
    assert_eq!(
        got.sprint_end_s.map(f64::to_bits),
        expected.sprint_end_s.map(f64::to_bits)
    );
    assert_eq!(
        got.max_junction_c.to_bits(),
        expected.max_junction_c.to_bits()
    );
    assert_eq!(got.finished, expected.finished);
    assert_eq!(got.events, expected.events);
    assert_eq!(got.trace.len(), expected.trace.len());
    for (g, e) in got.trace.iter().zip(&expected.trace) {
        assert_eq!(g.time_s.to_bits(), e.time_s.to_bits());
        assert_eq!(g.power_w.to_bits(), e.power_w.to_bits());
        assert_eq!(g.junction_c.to_bits(), e.junction_c.to_bits());
        assert_eq!(g.melt_fraction.to_bits(), e.melt_fraction.to_bits());
        assert_eq!(g.active_cores, e.active_cores);
        assert_eq!(g.instructions, e.instructions);
    }
}

/// A 1-node cluster on an independent rechargeable supply (the phone
/// hybrid) is still the same co-simulation as a standalone session —
/// including the *idle* windows between two staggered tasks, where the
/// cluster's lockstep rest path must recharge the supply exactly as a
/// standalone session's `rest` does. This pins the supply port through
/// the cluster (`Box<dyn PowerSupply>` erasure, per-window draws,
/// idle-recharge wiring) byte for byte.
#[test]
fn one_node_cluster_on_a_hybrid_supply_matches_a_standalone_session() {
    let params = || {
        GridThermalParams::rack(1, 1)
            .with_floorplan(Floorplan::full_die())
            .time_scaled(2000.0)
    };
    let sprint_cfg = SprintConfig::hpca_parallel();
    let window_s = sprint_cfg.sample_window_ps as f64 * 1e-12;
    // Two tasks with an idle gap between them: the first ends well
    // before the second arrives, so the node rests (and the hybrid
    // recharges) for the windows in between.
    let gap_arrival_s = 2e-3;
    let task = |arrival_s| ClusterTask::new(WorkloadKind::Sobel, InputSize::A, 16, arrival_s);

    // The standalone mirror replays the cluster scheduler's exact
    // per-window protocol: sustained-armed build, then per task
    // set_config + load + begin_burst, with one rest per idle window.
    let mut sustained = sprint_cfg.clone();
    sustained.mode = ExecutionMode::Sustained;
    let mut standalone = SprintSession::new(
        Machine::new(MachineConfig::hpca()),
        params().build(),
        HybridSupply::phone(),
        sustained,
        2048,
    );
    let mut windows: u64 = 0;
    for spec in [task(0.0), task(gap_arrival_s)] {
        while spec.arrival_s > windows as f64 * window_s {
            standalone.rest(window_s);
            windows += 1;
        }
        standalone.set_config(sprint_cfg.clone());
        suite_loader(spec.kind, spec.size, spec.threads)(standalone.machine_mut());
        standalone.begin_burst();
        loop {
            let outcome = standalone.step();
            windows += 1;
            if outcome != StepOutcome::Running {
                assert_eq!(outcome, StepOutcome::Finished);
                break;
            }
        }
    }
    let expected = standalone.report();
    let cap_after = standalone.supply().sprint_capacity_j();

    let mut cluster = ClusterBuilder::new(params())
        .policy(ClusterPolicy::AllSprint)
        .config(sprint_cfg.clone())
        .node_supply(|_| Box::new(HybridSupply::phone()))
        .tasks([task(0.0), task(gap_arrival_s)])
        .build();
    assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
    assert_reports_byte_equal(&cluster.node_report(0), &expected);

    // The idle gap must actually have recharged the store: a no-rest
    // replay of the same two bursts ends with a lower sprint capacity.
    let mut no_rest = SprintSession::new(
        Machine::new(MachineConfig::hpca()),
        params().build(),
        HybridSupply::phone(),
        sprint_cfg.clone(),
        2048,
    );
    for _ in 0..2 {
        suite_loader(WorkloadKind::Sobel, InputSize::A, 16)(no_rest.machine_mut());
        no_rest.begin_burst();
        while no_rest.step() == StepOutcome::Running {}
    }
    assert!(
        cap_after > no_rest.supply().sprint_capacity_j(),
        "the lockstep idle path must recharge the hybrid: {} vs {}",
        cap_after,
        no_rest.supply().sprint_capacity_j()
    );
}

/// The figure's claim at test scale: on a shared rack, greedy-headroom
/// admission completes the queue measurably sooner than both baselines.
/// The unmanaged all-sprint rack shows thermal collapse — nameplate-
/// calibrated node governors sprint into exhausted shared headroom,
/// the rack pins at the limit and hardware failsafes fire — while the
/// admission-controlled rack rides just below the limit with zero
/// failsafes (deferral and the shed backstop absorb the contention).
#[test]
fn admission_beats_both_all_sprint_and_no_sprint() {
    let run = |policy: ClusterPolicy| {
        let mut cfg = SprintConfig::hpca_parallel();
        // Each node's governor credits itself the rack's nameplate
        // per-node cooling share (the rack preset sustains ~8 W/node);
        // the credit is honored only when few nodes sprint.
        cfg.tdp_w = 8.0;
        let mut cluster = ClusterBuilder::new(GridThermalParams::rack(3, 3).time_scaled(6000.0))
            .policy(policy)
            .config(cfg)
            .tasks(ClusterTask::batch(
                WorkloadKind::Sobel,
                InputSize::A,
                16,
                36,
            ))
            .trace_capacity(0)
            .build();
        assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
        cluster.report()
    };
    let failsafes = |r: &ClusterReport| -> usize {
        r.node_reports
            .iter()
            .flat_map(|n| n.events.iter())
            .filter(|e| matches!(e, ControllerEvent::FailsafeThrottled { .. }))
            .count()
    };

    let no_sprint = run(ClusterPolicy::NoSprint);
    let all_sprint = run(ClusterPolicy::AllSprint);
    let admission = run(ClusterPolicy::greedy_default());

    assert_eq!(no_sprint.completed, 36);
    assert_eq!(all_sprint.completed, 36);
    assert_eq!(admission.completed, 36);

    // The unmanaged rack collapses: pinned at the limit, failsafes fire.
    assert!(
        all_sprint.peak_junction_c > 69.5,
        "all-sprint must drive the rack to the limit, peaked at {:.1} C",
        all_sprint.peak_junction_c
    );
    assert!(
        failsafes(&all_sprint) >= 5,
        "collapse must trip hardware failsafes, saw {}",
        failsafes(&all_sprint)
    );
    // Admission rides below the limit without ever needing the
    // hardware failsafe; its shed backstop absorbs the excursions.
    assert_eq!(
        failsafes(&admission),
        0,
        "admission control must keep every node out of the failsafe"
    );
    assert!(admission.peak_junction_c < 70.0);
    assert!(admission.peak_junction_c < all_sprint.peak_junction_c);
    assert!(admission.sheds >= 1, "the shed backstop should engage");
    // No-sprint never sprints; admission sprints essentially everything
    // (deferral means tasks wait for headroom instead of degrading).
    assert_eq!(no_sprint.admitted_sprints, 0);
    assert!(admission.admitted_sprints >= 30);

    // The makespan ordering the rack figure reports.
    assert!(
        admission.makespan_s < no_sprint.makespan_s * 0.4,
        "admission {:.5} s must clearly beat no-sprint {:.5} s",
        admission.makespan_s,
        no_sprint.makespan_s
    );
    assert!(
        admission.makespan_s < all_sprint.makespan_s * 0.85,
        "admission {:.5} s must clearly beat all-sprint {:.5} s",
        admission.makespan_s,
        all_sprint.makespan_s
    );
    assert!(
        admission.mean_latency_s < all_sprint.mean_latency_s,
        "rationing must also win on mean latency: {:.5} vs {:.5}",
        admission.mean_latency_s,
        all_sprint.mean_latency_s
    );
}

/// Round-robin admission respects its fixed concurrency cap.
#[test]
fn round_robin_caps_concurrent_sprints() {
    let mut cluster = ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::RoundRobin { max_sprinting: 2 })
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 16, 8))
        .trace_capacity(0)
        .build();
    let mut max_sprinting = 0usize;
    loop {
        let outcome = cluster.step();
        let sprinting = (0..cluster.nodes())
            .filter(|&n| {
                use sprint_core::controller::SprintState;
                matches!(
                    cluster.node_state(n),
                    SprintState::Ramping | SprintState::Sprinting
                )
            })
            .count();
        max_sprinting = max_sprinting.max(sprinting);
        if outcome.is_terminal() {
            break;
        }
    }
    assert_eq!(cluster.report().completed, 8);
    assert!(
        max_sprinting <= 2,
        "cap of 2 exceeded: saw {max_sprinting} concurrent sprints"
    );
    assert!(cluster.report().admitted_sprints >= 2);
    assert!(cluster.report().denied_sprints >= 1);
}

/// Competitive duplication: with spare nodes, a task is replicated and
/// exactly one outcome is recorded, tagged with the copy count, won by
/// the cooler (faster-sprinting) node.
#[test]
fn competitive_duplication_keeps_the_fastest_copy() {
    // Pre-heat node 0's corner so the copies race from unequal states.
    let rack_params = GridThermalParams::rack(2, 2).time_scaled(3000.0);
    let mut cluster = ClusterBuilder::new(rack_params)
        .policy(ClusterPolicy::CompetitiveDuplicate {
            copies: 2,
            admit_headroom_k: 2.0,
            cancel_losers: false,
        })
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 16, 1))
        .trace_capacity(0)
        .build();
    assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
    let report = cluster.report();
    assert_eq!(report.completed, 1, "one outcome despite two copies");
    assert_eq!(report.outcomes[0].copies, 2);
    assert_eq!(
        report.admitted_sprints, 1,
        "sprint counts are per task, not per copy"
    );
    assert_eq!(
        cluster
            .events()
            .iter()
            .filter(|e| matches!(e, ClusterEvent::SprintAdmitted { .. }))
            .count(),
        2,
        "the event log still records both copies' admissions"
    );

    // With a waiting queue as long as the idle pool, no duplication.
    let mut busy = ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::CompetitiveDuplicate {
            copies: 2,
            admit_headroom_k: 2.0,
            cancel_losers: false,
        })
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 16, 8))
        .trace_capacity(0)
        .build();
    assert_eq!(busy.run_to_completion(), ClusterOutcome::Drained);
    let report = busy.report();
    assert_eq!(report.completed, 8);
    assert!(
        report.outcomes.iter().filter(|o| o.copies > 1).count() <= 2,
        "duplication must stay within spare capacity"
    );
}

/// An admission threshold no cold node could ever satisfy would
/// head-of-line block a deferring queue forever; the builder rejects
/// it up front.
#[test]
#[should_panic(expected = "unsatisfiable")]
fn unsatisfiable_admission_threshold_is_rejected_at_build() {
    // The rack preset has t_max - ambient = 45 K of maximum headroom.
    let _ = ClusterBuilder::new(GridThermalParams::rack(2, 2))
        .policy(ClusterPolicy::GreedyHeadroom {
            admit_headroom_k: 50.0,
            shed_headroom_k: 4.0,
            min_sprinting: 1,
            defer_s: f64::INFINITY,
        })
        .build();
}

/// Tasks arriving over time queue up and keep their arrival-to-
/// completion latency accounting.
#[test]
fn arrivals_queue_and_latency_accounts_for_waiting() {
    let mut cluster = ClusterBuilder::new(GridThermalParams::rack(2, 1).time_scaled(3000.0))
        .policy(ClusterPolicy::AllSprint)
        .tasks(ClusterTask::arrivals(
            WorkloadKind::Sobel,
            InputSize::A,
            16,
            6,
            0.0,
            1e-4,
        ))
        .trace_capacity(0)
        .build();
    assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
    let report = cluster.report();
    assert_eq!(report.completed, 6);
    for o in &report.outcomes {
        assert!(o.assigned_s >= o.arrival_s - 1e-12);
        assert!(o.completed_s > o.assigned_s);
        assert!(o.latency_s() > 0.0);
    }
    assert!(report.makespan_s >= 5.0 * 1e-4, "last arrival is at 0.5 ms");
}
