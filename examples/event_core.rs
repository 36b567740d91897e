//! Event-driven cluster core vs the lockstep golden oracle.
//!
//! The lockstep scheduler advances every node every window — correct by
//! construction, and the reference the rest of the stack is pinned to,
//! but on a mostly-idle rack almost all of that work is bookkeeping for
//! nodes whose next thermally-relevant instant is far away. The
//! event-driven core only touches the nodes a window actually
//! concerns, catching sleepers up in bulk when a scheduling decision
//! needs their state.
//!
//! The contract is not "close": the event core must reproduce the
//! lockstep [`ClusterReport`] digest **byte for byte** on the same
//! configuration. This example drains the same sparse open-arrival
//! trickle through both cores on a 4096-server rack, asserts the
//! digests match, and prints the wall-clock ratio (the `perfbench
//! --check` perf-smoke job gates the same configuration at >= 5x).
//!
//! Run with: `cargo run --release --example event_core`

use std::time::Instant;

use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

/// Rack edge in servers (64x64 = 4096 nodes: big enough that idle
/// fleet bookkeeping, not thermal physics, dominates the lockstep
/// bill).
const EDGE: usize = 64;
/// Open-arrival tasks to drain.
const TASKS: usize = 2;
/// Arrival spacing, seconds — sparse, so all-idle windows dominate.
const SPACING_S: f64 = 8_000e-6;
/// Thermal/supply time compression (the rack figure's standard knob).
const COMPRESS: f64 = 6000.0;

/// One cluster, fully configured. Both cores get an identical copy —
/// byte-for-byte digest equality is only meaningful on identical
/// inputs.
fn build() -> ClusterSession {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    let nodes = EDGE * EDGE;
    ClusterBuilder::new(
        GridThermalParams::rack(EDGE, EDGE)
            .with_grid(8, 8)
            .time_scaled(COMPRESS),
    )
    .policy(ClusterPolicy::greedy_default())
    .power_policy(PowerPolicy::rationed_default())
    .rack_supply(RackSupplyParams::rack(nodes).time_scaled(COMPRESS))
    .config(cfg)
    .tasks(ClusterTask::arrivals(
        WorkloadKind::Sobel,
        InputSize::A,
        16,
        TASKS,
        0.0,
        SPACING_S,
    ))
    .trace_capacity(0)
    .build()
}

fn main() {
    println!(
        "event core vs lockstep oracle: {} servers, {TASKS} sobel bursts {} ms apart",
        EDGE * EDGE,
        SPACING_S * 1e3,
    );

    let mut lockstep = build();
    let start = Instant::now();
    let outcome = lockstep.run_to_completion();
    let lockstep_s = start.elapsed().as_secs_f64();
    assert_eq!(outcome, ClusterOutcome::Drained, "oracle run must drain");
    let lockstep_report = lockstep.report();

    let mut event = EventDrivenCluster::new(build());
    let start = Instant::now();
    let outcome = event.run_to_completion();
    let event_s = start.elapsed().as_secs_f64();
    assert_eq!(outcome, ClusterOutcome::Drained, "event run must drain");
    let event_report = event.report();

    println!(
        "  lockstep: {:7.0} ms over {} windows ({:.1} us/window)",
        lockstep_s * 1e3,
        lockstep.windows(),
        lockstep_s * 1e6 / lockstep.windows() as f64,
    );
    println!(
        "  event:    {:7.0} ms over {} windows ({:.1} us/window)",
        event_s * 1e3,
        event.windows(),
        event_s * 1e6 / event.windows() as f64,
    );

    // The headline claim of the example: same digest, same windows,
    // same completed work — the event core is an optimization of the
    // schedule's *execution*, never of its *outcome*.
    assert_eq!(lockstep.windows(), event.windows(), "window counts differ");
    assert_eq!(
        lockstep_report.completed, event_report.completed,
        "completed-task counts differ"
    );
    assert_eq!(
        lockstep_report.digest(),
        event_report.digest(),
        "event core diverged from the lockstep oracle"
    );
    println!(
        "  report digests byte-identical ({:016x}), {} tasks completed by both",
        lockstep_report.digest(),
        lockstep_report.completed,
    );
    println!("  speedup: {:.1}x", lockstep_s / event_s);
}
