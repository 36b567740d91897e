//! Golden-equivalence tests for the event-driven cluster core: for
//! every configuration the lockstep stepper is the oracle, and the
//! event-driven run must reproduce its [`ClusterReport`] FNV digest
//! byte-for-byte — same outcomes, same latencies at exact `f64` bits,
//! same scheduler event counts, same per-node coupled reports.

use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultRates, FaultResponse};
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

/// The open-arrival power-rationed rack — the `rack_power_case` shape
/// at test scale: shared feed, joint thermal+power admission, staggered
/// arrivals that leave idle stretches between bursts.
fn rationed_rack() -> ClusterSession {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    ClusterBuilder::new(GridThermalParams::rack(3, 3).time_scaled(6000.0))
        .policy(ClusterPolicy::greedy_default())
        .power_policy(PowerPolicy::rationed_default())
        .rack_supply(RackSupplyParams::rack(9).time_scaled(6000.0))
        .config(cfg)
        .tasks(ClusterTask::arrivals(
            WorkloadKind::Sobel,
            InputSize::A,
            16,
            12,
            0.0,
            60e-6,
        ))
        .trace_capacity(0)
        .build()
}

/// A round-robin rack on a short feed: the rotation admits every node,
/// and a reserve floor of 90% trips the power emergency again and
/// again, so sheds walk the grant rotation oldest grant first (five
/// power sheds, nodes 0, 3, 1, 2, 3). Round-robin admission never
/// exceeds its fixed allowance, so only a power emergency sheds under
/// it.
fn round_robin_rack() -> ClusterSession {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(6000.0))
        .policy(ClusterPolicy::RoundRobin { max_sprinting: 4 })
        .placement(Placement::CheapestHeadroom)
        .power_policy(PowerPolicy::Rationed {
            sprint_draw_w: 2.0,
            shed_reserve_fraction: 0.9,
        })
        .rack_supply(RackSupplyParams::rack(4).time_scaled(6000.0))
        .config(cfg)
        .tasks((0..6).map(|k| {
            let size = if k % 3 == 0 {
                InputSize::B
            } else {
                InputSize::A
            };
            ClusterTask::new(WorkloadKind::Sobel, size, 16, k as f64 * 20e-6)
        }))
        .trace_capacity(0)
        .build()
}

/// Competitive duplication: copies race, losers are discarded — the
/// completion bookkeeping (first-finisher-wins) must survive the
/// event-driven retirement path.
fn duplicating_rack() -> ClusterSession {
    ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::CompetitiveDuplicate {
            admit_headroom_k: 10.0,
            copies: 2,
            cancel_losers: false,
        })
        .tasks(ClusterTask::arrivals(
            WorkloadKind::Sobel,
            InputSize::A,
            8,
            6,
            0.0,
            150e-6,
        ))
        .trace_capacity(0)
        .build()
}

/// Duplication with same-window loser cancellation: the winner's
/// commit preempts every losing replica through the machine-level
/// cancel API, mid-window — the event core's owed rests (losers above
/// the winner rest *this* window, losers below it owe a rest next
/// window) are exactly what this config hammers.
fn cancelling_rack() -> ClusterSession {
    ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::CompetitiveDuplicate {
            admit_headroom_k: 10.0,
            copies: 2,
            cancel_losers: true,
        })
        .tasks(ClusterTask::arrivals(
            WorkloadKind::Sobel,
            InputSize::A,
            8,
            6,
            0.0,
            150e-6,
        ))
        .trace_capacity(0)
        .build()
}

/// A rack that trips its time limit with tasks outstanding, so the
/// terminal catch-up path is pinned on the `TimeLimit` outcome too.
fn time_limited_rack() -> ClusterSession {
    ClusterBuilder::new(GridThermalParams::rack(2, 1).time_scaled(3000.0))
        .policy(ClusterPolicy::NoSprint)
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::B, 8, 12))
        .max_time_s(0.002)
        .trace_capacity(0)
        .build()
}

/// Runs `build()` both ways and asserts byte-identical reports (via
/// the FNV digest) and identical terminal outcomes and window counts,
/// and that the lockstep digest is `pinned`. The two steppers share
/// every scheduler pass, so a change that moves both together passes
/// the equivalence check; the pinned digest catches it.
fn assert_equivalent(build: impl Fn() -> ClusterSession, label: &str, pinned: u64) {
    let mut lockstep = build();
    let lockstep_outcome = lockstep.run_to_completion();
    let lockstep_report = lockstep.report();

    let mut event = EventDrivenCluster::new(build());
    let event_outcome = event.run_to_completion();
    let event_report = event.report();

    assert_eq!(lockstep_outcome, event_outcome, "{label}: outcome");
    assert_eq!(lockstep.windows(), event.windows(), "{label}: window count");
    assert_eq!(
        lockstep_report.digest(),
        event_report.digest(),
        "{label}: the event-driven run must reproduce the lockstep \
         report digest byte-for-byte \
         (lockstep completed {} / event {}, lockstep sheds {}+{} / \
         event {}+{})",
        lockstep_report.completed,
        event_report.completed,
        lockstep_report.sheds,
        lockstep_report.power_sheds,
        event_report.sheds,
        event_report.power_sheds,
    );
    assert_eq!(
        lockstep_report.digest(),
        pinned,
        "{label}: the lockstep report moved off its pinned digest"
    );
}

#[test]
fn event_core_matches_lockstep_on_the_rationed_rack() {
    assert_equivalent(
        rationed_rack,
        "rationed open arrivals",
        0xdb54_7d9a_e635_839e,
    );
}

/// The round-robin rack drained window by window on both engines: its
/// power sheds walk the grant rotation, and the digest pins their
/// order.
#[test]
fn event_core_matches_lockstep_on_round_robin_shedding() {
    let (report, _) = drain_both(round_robin_rack);
    assert_eq!(
        report.digest(),
        0xc671_47f2_0ec6_5162,
        "round-robin shed rotation: the lockstep report moved off its pinned digest"
    );
    assert!(report.power_sheds > 0, "the rotation never shed");
    assert_eq!(report.supply_aborts, 0);
}

#[test]
fn event_core_matches_lockstep_on_competitive_duplication() {
    assert_equivalent(
        duplicating_rack,
        "competitive duplication",
        0xd3c3_dffd_a004_7733,
    );
}

/// Tentpole invariant for the cancellation refactor: with losers
/// cancelled the window their winner commits, the event-driven run
/// still reproduces the lockstep digest byte-for-byte — and the
/// cancellation actually bites (a nonzero cancelled-copies counter;
/// the discard baseline reports zero by construction).
#[test]
fn event_core_matches_lockstep_under_loser_cancellation() {
    assert_equivalent(
        cancelling_rack,
        "competitive duplication + cancel",
        0xa4e9_21c2_d1f0_9fee,
    );
    let mut run = cancelling_rack();
    run.run_to_completion();
    let report = run.report();
    assert!(
        report.cancelled_copies > 0,
        "no losing replica was ever cancelled — the config never raced copies"
    );
    assert_eq!(report.completed, report.total_tasks);
    assert!(report.task_conservation_holds());
    // The discard baseline reports zero cancellations by construction.
    let mut baseline = duplicating_rack();
    baseline.run_to_completion();
    assert_eq!(baseline.report().cancelled_copies, 0);
}

#[test]
fn event_core_matches_lockstep_at_the_time_limit() {
    assert_equivalent(
        time_limited_rack,
        "time-limited drain",
        0xafd5_8360_84d4_858b,
    );
}

/// Mid-run parity: a report taken *before* the queue drains must also
/// match the oracle at the same window count — the lazy rest ledgers
/// settle at any observation point, not just at terminal.
#[test]
fn event_core_matches_lockstep_mid_run() {
    let mut lockstep = rationed_rack();
    let mut event = EventDrivenCluster::new(rationed_rack());
    for _ in 0..257 {
        let a = lockstep.step();
        let b = event.step();
        assert_eq!(a, b);
    }
    assert_eq!(lockstep.windows(), event.windows());
    assert_eq!(
        lockstep.report().digest(),
        event.report().digest(),
        "mid-run reports must agree byte-for-byte"
    );
    // And the runs still agree after resuming to terminal.
    assert_eq!(lockstep.run_to_completion(), event.run_to_completion());
    assert_eq!(lockstep.report().digest(), event.report().digest());
}

/// A handcrafted plan that exercises every fault kind — stuck-cold
/// and biased sensors (with clears), every supply fault including a
/// sticky regulator death, and node crash/recover on both busy and
/// idle nodes — stamped across the rationed rack's active phase.
fn dense_fault_plan(response: FaultResponse) -> FaultPlan {
    let ev = |window: u64, node: u32, kind: FaultKind| FaultEvent { window, node, kind };
    FaultPlan::new(vec![
        ev(3, 2, FaultKind::SensorStuck(20.0)),
        ev(5, 0, FaultKind::SupplyCollapse(2.0)),
        ev(8, 4, FaultKind::NodeCrash),
        ev(12, 2, FaultKind::SensorClear),
        ev(15, 1, FaultKind::SensorBias(30.0)),
        ev(30, 4, FaultKind::NodeRecover),
        ev(40, 3, FaultKind::SupplyBrownout),
        ev(60, 3, FaultKind::SupplyClear),
        ev(80, 5, FaultKind::NodeCrash),
        ev(90, 1, FaultKind::SensorClear),
        ev(110, 0, FaultKind::SupplyClear),
        ev(120, 6, FaultKind::SupplyDead),
        ev(150, 6, FaultKind::SupplyClear), // sticky: death ignores it
        ev(200, 7, FaultKind::NodeCrash),
        ev(210, 7, FaultKind::NodeRecover),
        ev(260, 8, FaultKind::SensorDropout),
        ev(320, 8, FaultKind::SensorClear),
        ev(400, 2, FaultKind::NodeCrash),
    ])
    .with_retries(2, 16)
    .with_response(response)
}

/// The rationed rack under the dense handcrafted plan. A finite time
/// limit bounds runs where quarantine leaves tasks unservable.
fn faulted_rationed_rack(response: FaultResponse) -> ClusterSession {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    ClusterBuilder::new(GridThermalParams::rack(3, 3).time_scaled(6000.0))
        .policy(ClusterPolicy::greedy_default())
        .power_policy(PowerPolicy::rationed_default())
        .rack_supply(RackSupplyParams::rack(9).time_scaled(6000.0))
        .config(cfg)
        .tasks(ClusterTask::arrivals(
            WorkloadKind::Sobel,
            InputSize::A,
            16,
            12,
            0.0,
            60e-6,
        ))
        .fault_plan(dense_fault_plan(response))
        .max_time_s(0.004)
        .trace_capacity(0)
        .build()
}

/// A small rack under a seeded random plan — the conservation-sweep
/// fixture (4 nodes, batch arrivals, bounded run).
fn seeded_faulted_rack(seed: u64, response: FaultResponse) -> ClusterSession {
    let rates = FaultRates {
        mean_sensor_gap_windows: 60,
        sensor_hold_windows: 40,
        mean_crash_gap_windows: 300,
        crash_hold_windows: 50,
        mean_supply_gap_windows: 120,
        supply_hold_windows: 40,
    };
    ClusterBuilder::new(GridThermalParams::rack(2, 2).time_scaled(3000.0))
        .policy(ClusterPolicy::greedy_default())
        .tasks(ClusterTask::batch(WorkloadKind::Sobel, InputSize::A, 8, 10))
        .fault_plan(FaultPlan::seeded(seed, 4, 4000, rates).with_response(response))
        .max_time_s(0.004)
        .trace_capacity(0)
        .build()
}

/// Tentpole invariant: under a plan that exercises every fault kind,
/// the event-driven run still reproduces the lockstep digest
/// byte-for-byte — in both response modes — and the plan actually
/// bites (nonzero fault counters).
#[test]
fn event_core_matches_lockstep_under_dense_faults() {
    for (response, pinned) in [
        (FaultResponse::Aware, 0xb0b7_cce9_a750_b26c),
        (FaultResponse::Oblivious, 0x4439_6ac2_c875_5b23),
    ] {
        assert_equivalent(
            || faulted_rationed_rack(response),
            &format!("dense faults ({response:?})"),
            pinned,
        );
    }
    let mut run = faulted_rationed_rack(FaultResponse::Aware);
    run.run_to_completion();
    let report = run.report();
    assert!(report.fault_events > 0, "the plan never fired");
    assert!(report.node_crashes > 0, "no crash was applied");
    assert!(report.sensor_faults > 0, "no sensor fault was applied");
    assert!(report.supply_faults > 0, "no supply fault was applied");
    assert!(report.quarantined_nodes > 0, "no busy node was quarantined");
    assert!(report.task_conservation_holds(), "a task was lost");
}

/// Satellite: task conservation over random fault plans, on both
/// engines — every submitted task ends completed, failed, or
/// outstanding; drained runs leave nothing outstanding.
#[test]
fn task_conservation_holds_under_random_fault_plans() {
    for seed in [2012u64, 7, 0x0BAD_5EED] {
        for response in [FaultResponse::Aware, FaultResponse::Oblivious] {
            let mut lockstep = seeded_faulted_rack(seed, response);
            let outcome = lockstep.run_to_completion();
            let report = lockstep.report();
            assert!(
                report.task_conservation_holds(),
                "seed {seed:#x} ({response:?}): conservation broke: \
                 {} completed + {} failed + {} outstanding != {}",
                report.completed,
                report.failed_tasks,
                report.outstanding_tasks,
                report.total_tasks,
            );
            if outcome == ClusterOutcome::Drained {
                assert_eq!(
                    report.outstanding_tasks, 0,
                    "drained with tasks outstanding"
                );
            }
            let mut event = EventDrivenCluster::new(seeded_faulted_rack(seed, response));
            event.run_to_completion();
            let event_report = event.report();
            assert!(event_report.task_conservation_holds());
            assert_eq!(
                report.digest(),
                event_report.digest(),
                "seed {seed:#x} ({response:?}): faulted event run diverged"
            );
        }
    }
}

/// Steps both engines to a terminal outcome, asserting after every
/// window that they agree on the outcome, on what a facility reads
/// from a rack at each settlement barrier — its heat (bit for bit), its
/// ready backlog and its sprint grants — and on shared time: the rack's
/// clock and, with a pool, the pool's clock and reserve (bit for bit).
fn step_both_to_terminal(
    lockstep: &mut ClusterSession,
    event: &mut EventDrivenCluster,
) -> ClusterOutcome {
    loop {
        let outcome = lockstep.step();
        let w = lockstep.windows();
        assert_eq!(outcome, event.step(), "outcome at window {w}");
        let e = event.session();
        assert_eq!(
            lockstep.rack_heat_w().to_bits(),
            e.rack_heat_w().to_bits(),
            "rack heat at window {w}: lockstep {} W, event {} W",
            lockstep.rack_heat_w(),
            e.rack_heat_w(),
        );
        assert_eq!(
            lockstep.ready_backlog(),
            e.ready_backlog(),
            "ready backlog at window {w}"
        );
        assert_eq!(
            lockstep.sprinting_count(),
            e.sprinting_count(),
            "sprint grants at window {w}"
        );
        assert_eq!(
            lockstep.rack().time_s().to_bits(),
            e.rack().time_s().to_bits(),
            "rack clock at window {w}"
        );
        match (lockstep.supply(), e.supply()) {
            (Some(l), Some(p)) => {
                assert_eq!(
                    l.time_s().to_bits(),
                    p.time_s().to_bits(),
                    "pool clock at window {w}"
                );
                assert_eq!(
                    l.reserve_j().to_bits(),
                    p.reserve_j().to_bits(),
                    "pool reserve at window {w}: lockstep {} J, event {} J",
                    l.reserve_j(),
                    p.reserve_j(),
                );
            }
            (None, None) => {}
            _ => panic!("only one engine has a pool"),
        }
        if outcome.is_terminal() {
            return outcome;
        }
    }
}

/// A drained rack that is later handed a task — what the facility's
/// requeue router does — must match the oracle window by window, not
/// just in its final digest: the node that finished the last task
/// still owes the rest that takes its core power off the grid, and
/// draining must not forget it.
#[test]
fn drained_rack_handed_a_task_matches_lockstep_every_window() {
    let mut lockstep = rationed_rack();
    let mut event = EventDrivenCluster::new(rationed_rack());
    assert_eq!(
        step_both_to_terminal(&mut lockstep, &mut event),
        ClusterOutcome::Drained
    );
    let task = ClusterTask::new(WorkloadKind::Sobel, InputSize::A, 16, 0.0);
    lockstep.inject_task(task);
    event.inject_task(task);
    assert_eq!(
        step_both_to_terminal(&mut lockstep, &mut event),
        ClusterOutcome::Drained
    );
    assert_eq!(lockstep.windows(), event.windows());
    assert_eq!(lockstep.report().digest(), event.report().digest());
}

/// The per-window telemetry check on the faulted rack, where crashes,
/// failsafe preemptions and lapsed sprint grants leave windows whose
/// only scheduler work is dropping a stale grant from the rotation.
#[test]
fn faulted_rack_matches_lockstep_every_window() {
    let mut lockstep = faulted_rationed_rack(FaultResponse::Aware);
    let mut event = EventDrivenCluster::new(faulted_rationed_rack(FaultResponse::Aware));
    step_both_to_terminal(&mut lockstep, &mut event);
    assert_eq!(lockstep.report().digest(), event.report().digest());
}

/// The per-window telemetry check under loser cancellation: a loser
/// below its winner has already run this window and owes its first
/// rest next window; a loser above it is reached task-less and rests
/// this window. Either way its core power leaves the grid on the
/// window the lockstep loop takes it off.
#[test]
fn cancelling_rack_matches_lockstep_every_window() {
    let mut lockstep = cancelling_rack();
    let mut event = EventDrivenCluster::new(cancelling_rack());
    assert_eq!(
        step_both_to_terminal(&mut lockstep, &mut event),
        ClusterOutcome::Drained
    );
    assert!(lockstep.report().cancelled_copies > 0);
    assert_eq!(lockstep.report().digest(), event.report().digest());
}

/// `into_session` hands back a session indistinguishable from a
/// lockstep one at the same window: further lockstep stepping stays
/// equivalent.
#[test]
fn into_session_resumes_lockstep_exactly() {
    let mut lockstep = rationed_rack();
    let mut event = EventDrivenCluster::new(rationed_rack());
    for _ in 0..300 {
        lockstep.step();
        event.step();
    }
    let mut handed_back = event.into_session();
    let a = lockstep.run_to_completion();
    let b = handed_back.run_to_completion();
    assert_eq!(a, b);
    assert_eq!(lockstep.report().digest(), handed_back.report().digest());
}

/// Runs `build()` on both steppers, window by window, to a drained
/// queue and returns the lockstep report and alive fraction after
/// checking that the event core reproduced both.
fn drain_both(build: impl Fn() -> ClusterSession) -> (ClusterReport, f64) {
    let mut lockstep = build();
    let mut event = EventDrivenCluster::new(build());
    assert_eq!(
        step_both_to_terminal(&mut lockstep, &mut event),
        ClusterOutcome::Drained
    );
    let report = lockstep.report();
    assert_eq!(report.digest(), event.report().digest());
    assert_eq!(
        lockstep.alive_fraction().to_bits(),
        event.session().alive_fraction().to_bits()
    );
    (report, lockstep.alive_fraction())
}

/// One 16-thread task arriving at 2 µs on a cold two-node rack, with
/// `faults` applied at window 0: the node the task ran on and whether
/// it sprinted.
fn sensed_placement(faults: &[(u32, FaultKind)], response: FaultResponse) -> (usize, bool) {
    let events: Vec<FaultEvent> = faults
        .iter()
        .map(|&(node, kind)| FaultEvent {
            window: 0,
            node,
            kind,
        })
        .collect();
    let (report, _) = drain_both(|| {
        ClusterBuilder::new(GridThermalParams::rack(2, 1).time_scaled(3000.0))
            .policy(ClusterPolicy::GreedyHeadroom {
                admit_headroom_k: 15.0,
                shed_headroom_k: 4.0,
                min_sprinting: 1,
                defer_s: 0.0,
            })
            .tasks([ClusterTask::new(
                WorkloadKind::Sobel,
                InputSize::A,
                16,
                2e-6,
            )])
            .fault_plan(FaultPlan::new(events.clone()).with_response(response))
            .trace_capacity(0)
            .build()
    });
    assert_eq!(report.completed, 1);
    (report.outcomes[0].node, report.outcomes[0].sprinted)
}

/// The scheduler reads each node's sensor through its fault port.
/// Oblivious scheduling believes the sensor: a stuck-cold node looks
/// coolest, a biased one looks hot, and a dropped-out one (NaN) ranks
/// hottest, so the task sprints on the healthy node. With both sensors
/// dropped out the task places by index, and a NaN reading clears no
/// admission gate, so it runs sustained. Aware scheduling reads every
/// faulted sensor as at the limit, so the task sprints on a healthy
/// node if there is one.
#[test]
fn scheduler_reads_each_sensor_through_its_fault_port() {
    use FaultKind::{SensorBias, SensorDropout, SensorStuck};
    use FaultResponse::{Aware, Oblivious};
    let table: [(&[(u32, FaultKind)], _, _); 5] = [
        (&[], (0, true), (0, true)),
        (&[(1, SensorStuck(10.0))], (1, true), (0, true)),
        (&[(0, SensorBias(30.0))], (1, true), (1, true)),
        (&[(0, SensorDropout)], (1, true), (1, true)),
        (
            &[(0, SensorDropout), (1, SensorDropout)],
            (0, false),
            (0, false),
        ),
    ];
    for (faults, oblivious, aware) in table {
        assert_eq!(
            sensed_placement(faults, Oblivious),
            oblivious,
            "{faults:?} under Oblivious: (node, sprinted)"
        );
        assert_eq!(
            sensed_placement(faults, Aware),
            aware,
            "{faults:?} under Aware: (node, sprinted)"
        );
    }
}

/// A 64-node rack whose node 3 sensor drops out at window 0 under
/// oblivious scheduling, with eight tasks ready in that window and eight
/// more once the first wave has warmed the rack unevenly. The NaN
/// reading ranks hottest, so with 63 healthy nodes no task may land on
/// node 3. Drained on both engines, window by window.
#[test]
fn dropped_out_sensor_ranks_last_on_a_large_rack() {
    let (report, _) = drain_both(|| {
        let wave =
            |start_s| ClusterTask::arrivals(WorkloadKind::Sobel, InputSize::A, 4, 8, start_s, 0.0);
        ClusterBuilder::new(
            GridThermalParams::rack(8, 8)
                .with_grid(16, 16)
                .time_scaled(3000.0),
        )
        .policy(ClusterPolicy::greedy_default())
        .tasks(wave(0.0).into_iter().chain(wave(40e-6)))
        .fault_plan(
            FaultPlan::new(vec![FaultEvent {
                window: 0,
                node: 3,
                kind: FaultKind::SensorDropout,
            }])
            .with_response(FaultResponse::Oblivious),
        )
        .trace_capacity(0)
        .build()
    });
    assert_eq!(report.completed, 16);
    for o in &report.outcomes {
        assert_ne!(o.node, 3, "task {} ran on the dropped-out node", o.task);
    }
}

/// A node quarantined by a mid-task crash stays retired when the plan
/// later recovers it: its stranded threads still hold the machine. Node
/// 0 crashes busy (quarantined, its task requeued), node 1 crashes idle
/// and recovers, and node 0's own recover event changes nothing, so
/// every task runs on node 1.
#[test]
fn quarantine_survives_node_recover() {
    let ev = |window: u64, node: u32, kind: FaultKind| FaultEvent { window, node, kind };
    for response in [FaultResponse::Aware, FaultResponse::Oblivious] {
        let (report, alive) = drain_both(|| {
            ClusterBuilder::new(GridThermalParams::rack(2, 1).time_scaled(3000.0))
                .policy(ClusterPolicy::greedy_default())
                .tasks(ClusterTask::arrivals(
                    WorkloadKind::Sobel,
                    InputSize::A,
                    16,
                    4,
                    0.0,
                    20e-6,
                ))
                .fault_plan(
                    FaultPlan::new(vec![
                        ev(5, 0, FaultKind::NodeCrash),
                        ev(6, 1, FaultKind::NodeCrash),
                        ev(7, 1, FaultKind::NodeRecover),
                        ev(8, 0, FaultKind::NodeRecover),
                    ])
                    .with_retries(3, 4)
                    .with_response(response),
                )
                .trace_capacity(0)
                .build()
        });
        assert_eq!(report.completed, 4, "{response:?}");
        for o in &report.outcomes {
            assert_eq!(
                o.node, 1,
                "{response:?}: task {} ran on a retired node",
                o.task
            );
        }
        assert_eq!(report.quarantined_nodes, 1, "{response:?}");
        assert_eq!(report.node_crashes, 2, "{response:?}");
        assert_eq!(report.requeues, 1, "{response:?}");
        assert_eq!(alive, 0.5, "{response:?}");
    }
}
