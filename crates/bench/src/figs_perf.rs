//! Solver performance figure: explicit vs ADI wall-clock across grid
//! resolutions on the `hpca_like` three-layer stack, driven through one
//! sprint-and-rest cycle.
//!
//! The explicit solver's stability sub-step shrinks with the cell time
//! constant, so its cost grows `O(n^4)` with an `n x n` die grid; the
//! ADI solver's sub-step is pinned by the (resolution-independent)
//! vertical time constant, so its cost grows only `O(n^2)`. This module
//! measures both on the same power schedule, records the junction-
//! temperature disagreement as the matched-accuracy check, and writes
//! the trajectory to `BENCH_grid.json` at the repository root so the
//! perf history is versioned alongside the code.

use std::path::PathBuf;
use std::time::Instant;

use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_thermal::grid::{GridSolver, GridThermal, GridThermalParams};
use sprint_workloads::suite::{InputSize, WorkloadKind};

use crate::output::{Csv, TextTable};

/// Sprint power of the perf cycle, watts (the paper's 16x TDP burst).
pub const SPRINT_W: f64 = 16.0;
/// Sprint phase duration, seconds.
pub const SPRINT_S: f64 = 0.35;
/// Rest phase duration, seconds.
pub const REST_S: f64 = 0.65;
/// Junction sampling cadence, seconds (also the `advance` call size,
/// i.e. the co-simulation window a session would use).
pub const SAMPLE_DT_S: f64 = 0.005;

/// One resolution's explicit-vs-ADI measurement.
#[derive(Debug, Clone)]
pub struct PerfCase {
    /// Grid edge (the die is `n x n`).
    pub n: usize,
    /// Total cell count (`n * n * layers`).
    pub cells: usize,
    /// Explicit wall-clock for the cycle, milliseconds.
    pub explicit_ms: f64,
    /// ADI wall-clock for the cycle, milliseconds.
    pub adi_ms: f64,
    /// `explicit_ms / adi_ms`.
    pub speedup: f64,
    /// Largest junction-temperature disagreement over the cycle, K.
    pub max_dev_k: f64,
    /// Explicit stability sub-step, seconds.
    pub explicit_sub_step_s: f64,
    /// ADI accuracy sub-step, seconds.
    pub adi_sub_step_s: f64,
}

/// Drives one sprint-and-rest cycle, returning wall-clock milliseconds
/// and the junction samples.
fn drive(g: &mut GridThermal) -> (f64, Vec<f64>) {
    let steps = ((SPRINT_S + REST_S) / SAMPLE_DT_S).round() as usize;
    let mut samples = Vec::with_capacity(steps);
    let start = Instant::now();
    for k in 0..steps {
        let t = k as f64 * SAMPLE_DT_S;
        g.set_chip_power_w(if t < SPRINT_S { SPRINT_W } else { 0.0 });
        g.advance(SAMPLE_DT_S);
        samples.push(g.junction_temp_c());
    }
    (start.elapsed().as_secs_f64() * 1e3, samples)
}

/// Measures one resolution (both solvers, same schedule).
pub fn run_case(n: usize) -> PerfCase {
    let params = GridThermalParams::hpca_like().with_grid(n, n);
    let mut explicit = params.clone().with_solver(GridSolver::Explicit).build();
    let mut adi = params.with_solver(GridSolver::Adi).build();
    let cells = explicit.cells_per_layer() * explicit.layer_count();
    let (explicit_ms, reference) = drive(&mut explicit);
    let (adi_ms, candidate) = drive(&mut adi);
    let max_dev_k = reference
        .iter()
        .zip(&candidate)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    PerfCase {
        n,
        cells,
        explicit_ms,
        adi_ms,
        speedup: explicit_ms / adi_ms,
        max_dev_k,
        explicit_sub_step_s: explicit.sub_step_s(),
        adi_sub_step_s: adi.adi_sub_step_s(),
    }
}

/// Measures every resolution in `resolutions`.
pub fn run_cases(resolutions: &[usize]) -> Vec<PerfCase> {
    resolutions.iter().map(|&n| run_case(n)).collect()
}

/// The rack-scale point: a 4x4-server rack (32x32 grid, two PCM-free
/// layers — every ADI line factorization is cached) through the same
/// sprint-and-rest cycle shape, with a quarter of the nodes sprinting
/// at 16 W over a 1 W sustained floor. ADI is always measured (it is
/// what makes this scale practical); the explicit reference is
/// optional because at rack resolution it costs seconds per cycle —
/// which is the point the comparison makes.
#[derive(Debug, Clone)]
pub struct RackPerfCase {
    /// Servers on the rack floorplan.
    pub nodes: usize,
    /// Grid edge (the rack floor is `n x n`).
    pub n: usize,
    /// Total cell count.
    pub cells: usize,
    /// ADI wall-clock for the cycle, milliseconds.
    pub adi_ms: f64,
    /// ADI accuracy sub-step, seconds.
    pub adi_sub_step_s: f64,
    /// Explicit wall-clock, milliseconds (measured with `--full` only).
    pub explicit_ms: Option<f64>,
    /// `explicit_ms / adi_ms` when the reference was measured.
    pub speedup: Option<f64>,
}

/// Drives the rack power pattern for one cycle: nodes 0..nodes/4
/// sprint at 16 W during the sprint phase, everyone else holds a 1 W
/// sustained floor throughout.
fn drive_rack(g: &mut GridThermal, nodes: usize) -> f64 {
    let steps = ((SPRINT_S + REST_S) / SAMPLE_DT_S).round() as usize;
    let sprinters = (nodes / 4).max(1);
    let start = Instant::now();
    for k in 0..steps {
        let t = k as f64 * SAMPLE_DT_S;
        let sprinting = t < SPRINT_S;
        for node in 0..nodes {
            let w = if sprinting && node < sprinters {
                SPRINT_W
            } else {
                1.0
            };
            g.set_core_power_w(node, w);
        }
        g.advance(SAMPLE_DT_S);
        std::hint::black_box(g.junction_temp_c());
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Measures the rack-scale point (see [`RackPerfCase`]).
pub fn run_rack_case(measure_explicit: bool) -> RackPerfCase {
    let params = GridThermalParams::rack(4, 4);
    let nodes = params.floorplan.core_count();
    let n = params.nx;
    let mut adi = params.clone().with_solver(GridSolver::Adi).build();
    let cells = adi.cells_per_layer() * adi.layer_count();
    let adi_ms = drive_rack(&mut adi, nodes);
    let (explicit_ms, speedup) = if measure_explicit {
        let mut explicit = params.with_solver(GridSolver::Explicit).build();
        let ms = drive_rack(&mut explicit, nodes);
        (Some(ms), Some(ms / adi_ms))
    } else {
        (None, None)
    };
    RackPerfCase {
        nodes,
        n,
        cells,
        adi_ms,
        adi_sub_step_s: adi.adi_sub_step_s(),
        explicit_ms,
        speedup,
    }
}

/// The power-aware rack point: the full scheduler loop — per-window
/// machine simulation, ADI rack thermals, shared-supply settlement,
/// regulator math and joint thermal+power admission — on the 16-node
/// rack, measured end to end. This is the configuration the
/// `rack_power` figure runs at scale; the perf point keeps the
/// supply-accounting overhead honest (it must stay a rounding error
/// next to the thermal solve).
#[derive(Debug, Clone)]
pub struct RackPowerPerfCase {
    /// Human-readable configuration label, derived from the measured
    /// cluster (rack size, feed cap) so the perf history can never
    /// mislabel what was benchmarked.
    pub stack: String,
    /// Servers on the rack.
    pub nodes: usize,
    /// Open-arrival tasks drained.
    pub tasks: usize,
    /// Lockstep windows stepped.
    pub windows: u64,
    /// Wall-clock for the drain, milliseconds.
    pub wall_ms: f64,
    /// Wall-clock per lockstep window, microseconds.
    pub us_per_window: f64,
    /// Tasks drained per wall-clock second — the scheduler loop's
    /// end-to-end throughput, gated by `perfbench --check`.
    pub tasks_per_s: f64,
    /// Electrical sprint casualties (must be zero under rationing).
    pub supply_aborts: usize,
    /// Fault events applied (must be zero: no perf point runs a fault
    /// plan, and the always-on fault ports must stay inert).
    pub fault_events: usize,
    /// Tasks failed to crashes (must be zero, same reason).
    pub failed_tasks: usize,
}

/// Measures the power-aware rack point (see [`RackPowerPerfCase`]).
/// The cluster is the figure's own configuration
/// ([`crate::figs_rack::power_study_cluster`]) at a reduced task
/// count, so retuning the figure retunes this point with it.
pub fn run_rack_power_case() -> RackPowerPerfCase {
    const TASKS: usize = 12;
    let mut cluster = crate::figs_rack::power_study_cluster(PowerPolicy::rationed_default(), TASKS);
    let start = Instant::now();
    let outcome = cluster.run_to_completion();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        outcome,
        ClusterOutcome::Drained,
        "the perf point must drain its queue"
    );
    let report = cluster.report();
    let cap_w = cluster
        .supply()
        .expect("the power study runs on a shared feed")
        .cap_w();
    RackPowerPerfCase {
        stack: format!(
            "rack {} servers, shared {cap_w:.0} W feed, power-aware admission",
            cluster.nodes()
        ),
        nodes: cluster.nodes(),
        tasks: TASKS,
        windows: cluster.windows(),
        wall_ms,
        us_per_window: wall_ms * 1e3 / cluster.windows() as f64,
        tasks_per_s: TASKS as f64 * 1e3 / wall_ms,
        supply_aborts: report.supply_aborts,
        fault_events: report.fault_events,
        failed_tasks: report.failed_tasks,
    }
}

/// The facility-scale point: a 4-rack facility (64 servers, shared CRAC
/// rows, a globally rationed feed) through the full settlement loop —
/// sharded rack advancement, row-inlet coupling and cross-rack cap
/// settlement on top of everything the rack-power point measures. The
/// configuration is the facility figure's own
/// ([`crate::figs_facility::study_facility`]) at a reduced rack and
/// task count, so retuning the figure retunes this point with it.
#[derive(Debug, Clone)]
pub struct FacilityPerfCase {
    /// Human-readable configuration label, derived from the measured
    /// facility so the perf history can never mislabel what ran.
    pub stack: String,
    /// Racks in the facility.
    pub racks: usize,
    /// Servers per rack.
    pub nodes_per_rack: usize,
    /// Open-arrival tasks drained across the facility.
    pub tasks: usize,
    /// Settlement epochs run.
    pub epochs: u64,
    /// Wall-clock for the drain, milliseconds.
    pub wall_ms: f64,
    /// Tasks drained per wall-clock second — the headline facility
    /// throughput, gated by `perfbench --check`.
    pub tasks_per_s: f64,
    /// Electrical sprint casualties (must stay zero: the global tier
    /// only ever re-divides what the feed can carry).
    pub supply_aborts: usize,
    /// Fault events applied (must be zero on the fault-free perf
    /// point — the inert-wrapper guarantee, gated by `--check`).
    pub fault_events: usize,
    /// Tasks failed to crashes (must be zero, same reason).
    pub failed_tasks: usize,
}

/// Measures the facility-scale point (see [`FacilityPerfCase`]).
pub fn run_facility_case() -> FacilityPerfCase {
    const RACKS: usize = 4;
    const TASKS: usize = 120;
    const SHARE_W: f64 = 40.0;
    let facility = crate::figs_facility::study_facility(
        sprint_facility::FacilityPolicy::GlobalRationed {
            floor_w: crate::figs_facility::FACILITY_FLOOR_W,
            slot_w: crate::figs_facility::FACILITY_SLOT_W,
        },
        SHARE_W,
        RACKS,
        TASKS,
    );
    let threads = crate::figs_facility::facility_threads();
    let start = Instant::now();
    let report = facility.run(threads);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(report.all_drained, "the facility perf point must drain");
    assert_eq!(report.completed, TASKS);
    let nodes_per_rack = report.rack_reports[0].node_reports.len();
    FacilityPerfCase {
        stack: format!(
            "facility {RACKS} racks x {nodes_per_rack} servers, globally rationed \
             {:.0} W feed, row CRAC coupling",
            SHARE_W * RACKS as f64
        ),
        racks: report.racks,
        nodes_per_rack,
        tasks: TASKS,
        epochs: report.epochs,
        wall_ms,
        tasks_per_s: TASKS as f64 * 1e3 / wall_ms,
        supply_aborts: report.supply_aborts,
        fault_events: report.fault_events,
        failed_tasks: report.failed_tasks,
    }
}

/// The event-core point: the same sparse open-arrival drain stepped
/// through the lockstep golden oracle and through the event-driven core
/// in [`EVENT_PAIRS`] alternating pairs, on a rack big enough (4096
/// servers) that idle nodes dominate the lockstep bill. Every run must
/// reproduce the oracle's [`ClusterReport`] digest byte for byte; the
/// median wall-clock ratio is the claim `perfbench --check` gates at 5x.
#[derive(Debug, Clone)]
pub struct EventCorePerfCase {
    /// Human-readable configuration label, derived from the measured
    /// cluster so the perf history can never mislabel what ran.
    pub stack: String,
    /// Servers on the rack.
    pub nodes: usize,
    /// Open-arrival tasks drained.
    pub tasks: usize,
    /// Windows stepped (identical for both cores by construction).
    pub windows: u64,
    /// Median lockstep (oracle) wall-clock for the drain, milliseconds.
    pub lockstep_ms: f64,
    /// Median event-driven wall-clock for the same drain, milliseconds.
    pub event_ms: f64,
    /// Median over the pairs of `lockstep / event` wall-clock — the
    /// gated speedup.
    pub speedup: f64,
    /// The shared report digest (every run of both cores produced this
    /// value; the measurement asserts equality before recording it).
    pub digest: u64,
}

/// Rack edge (servers per side) for the event-core point.
const EVENT_EDGE: usize = 64;
/// Open-arrival tasks for the event-core point.
const EVENT_TASKS: usize = 2;
/// Arrival spacing, seconds — sparse enough that all-idle windows
/// dominate, which is the regime the event core exists for.
const EVENT_SPACING_S: f64 = 8_000e-6;
/// Thermal/supply time compression for the event-core point.
const EVENT_COMPRESS: f64 = 6000.0;
/// Alternating lockstep/event runs timed for the event-core point. The
/// recorded figures are medians, so one run slowed by a noisy host
/// neither fails the gate nor skews the history.
pub const EVENT_PAIRS: usize = 3;

/// Builds the event-core cluster: a 64x64-server rack on a coarse 8x8
/// ADI grid (the per-window solve must stay cheap enough that the
/// *fleet bookkeeping*, not the physics, is what lockstep wastes time
/// on), rationed power-aware admission over a shared feed, and two
/// sobel bursts 8 ms apart.
fn event_core_cluster() -> ClusterSession {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    let nodes = EVENT_EDGE * EVENT_EDGE;
    ClusterBuilder::new(
        GridThermalParams::rack(EVENT_EDGE, EVENT_EDGE)
            .with_grid(8, 8)
            .time_scaled(EVENT_COMPRESS),
    )
    .policy(ClusterPolicy::greedy_default())
    .power_policy(PowerPolicy::rationed_default())
    .rack_supply(RackSupplyParams::rack(nodes).time_scaled(EVENT_COMPRESS))
    .config(cfg)
    .tasks(ClusterTask::arrivals(
        WorkloadKind::Sobel,
        InputSize::A,
        16,
        EVENT_TASKS,
        0.0,
        EVENT_SPACING_S,
    ))
    .trace_capacity(0)
    .build()
}

/// Measures the event-core point (see [`EventCorePerfCase`]): each pair
/// drains identical clusters on the lockstep oracle, then on the event
/// core; every digest must match byte for byte, and the medians are
/// recorded.
pub fn run_event_core_case() -> EventCorePerfCase {
    let mut lockstep_ms = Vec::with_capacity(EVENT_PAIRS);
    let mut event_ms = Vec::with_capacity(EVENT_PAIRS);
    let mut speedups = Vec::with_capacity(EVENT_PAIRS);
    let mut first_run: Option<(u64, u64, usize)> = None;
    for _ in 0..EVENT_PAIRS {
        let mut lockstep = event_core_cluster();
        let start = Instant::now();
        let outcome = lockstep.run_to_completion();
        let lock_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            outcome,
            ClusterOutcome::Drained,
            "the event-core oracle run must drain its queue"
        );
        let mut event = EventDrivenCluster::new(event_core_cluster());
        let start = Instant::now();
        let outcome = event.run_to_completion();
        let ev_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            outcome,
            ClusterOutcome::Drained,
            "the event-core run must drain its queue"
        );
        // The equivalence contract is byte-for-byte, so a mismatch is a
        // correctness bug — fail the whole bench rather than record a
        // speedup for a core that computed something else.
        assert_eq!(lockstep.windows(), event.windows(), "window counts differ");
        let digest = lockstep.report().digest();
        assert_eq!(
            digest,
            event.report().digest(),
            "event core diverged from the lockstep oracle"
        );
        let run = (digest, lockstep.windows(), lockstep.nodes());
        assert_eq!(
            *first_run.get_or_insert(run),
            run,
            "the drain is not repeatable"
        );
        lockstep_ms.push(lock_ms);
        event_ms.push(ev_ms);
        speedups.push(lock_ms / ev_ms);
    }
    let (digest, windows, nodes) = first_run.expect("at least one pair runs");
    EventCorePerfCase {
        stack: format!("rack {nodes} servers, sparse arrivals, event core vs lockstep oracle"),
        nodes,
        tasks: EVENT_TASKS,
        windows,
        lockstep_ms: median(lockstep_ms),
        event_ms: median(event_ms),
        speedup: median(speedups),
        digest,
    }
}

/// The middle sample (the upper middle of an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The heterogeneous-fleet point: the `repro hetero` study's degraded
/// big/little rack (per-node [`sprint_cluster::NodeSpec`]s,
/// cheapest-headroom placement, a seeded two-node crash plan) drained
/// twice on the event core — once under bounded retry-in-place, once
/// under competitive duplication with same-window loser cancellation.
/// The tail claim (`duplication beats retry-in-place on the p99 of a
/// degraded rack`) and its price (the extra feed draw) are both
/// recorded; `perfbench --check` gates the former.
#[derive(Debug, Clone)]
pub struct HeteroRackPerfCase {
    /// Human-readable configuration label.
    pub stack: String,
    /// Servers on the rack (2 big + 2 little).
    pub nodes: usize,
    /// Open-arrival tasks per policy run.
    pub tasks: usize,
    /// p99 latency under bounded retry-in-place, milliseconds.
    pub retry_p99_ms: f64,
    /// p99 latency under duplication + cancellation, milliseconds.
    pub dup_p99_ms: f64,
    /// `retry_p99_ms / dup_p99_ms` — the gated tail win.
    pub p99_gain: f64,
    /// Rack feed draw under retry-in-place, joules.
    pub retry_energy_j: f64,
    /// Rack feed draw under duplication + cancellation, joules.
    pub dup_energy_j: f64,
    /// `dup_energy_j / retry_energy_j - 1` — the quantified price of
    /// the duplication hedge after cancellation reclaims dead work.
    pub extra_draw_frac: f64,
    /// Losing replicas preempted the window their winner committed.
    pub cancelled_copies: usize,
    /// Crash retries paid by the retry-in-place run (must be nonzero —
    /// otherwise the fixture degraded nothing and the claim is empty).
    pub requeues: usize,
    /// Wall-clock for both runs, milliseconds.
    pub wall_ms: f64,
}

/// Measures the heterogeneous-fleet point (see [`HeteroRackPerfCase`]).
/// The fixture is the hetero figure's own
/// ([`crate::figs_hetero::degraded_cluster`]), so retuning the figure
/// retunes this point with it; the study-level invariants (drain,
/// conservation, crashes bite) are asserted inside `run_hetero_point`.
pub fn run_hetero_rack_case() -> HeteroRackPerfCase {
    use crate::figs_hetero::{run_hetero_point, HETERO_TASKS};
    let start = Instant::now();
    let retry = run_hetero_point(
        "retry-in-place",
        ClusterPolicy::greedy_default(),
        HETERO_TASKS,
    );
    let dup = run_hetero_point(
        "duplicate+cancel",
        ClusterPolicy::competitive_default(),
        HETERO_TASKS,
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let retry_p99_ms = retry.report.p99_latency_s * 1e3;
    let dup_p99_ms = dup.report.p99_latency_s * 1e3;
    HeteroRackPerfCase {
        stack: "degraded hetero rack, 2 big + 2 little servers, duplication \
                + cancel vs retry-in-place"
            .to_string(),
        nodes: retry.report.node_reports.len(),
        tasks: HETERO_TASKS,
        retry_p99_ms,
        dup_p99_ms,
        p99_gain: retry_p99_ms / dup_p99_ms,
        retry_energy_j: retry.energy_j,
        dup_energy_j: dup.energy_j,
        extra_draw_frac: dup.energy_j / retry.energy_j - 1.0,
        cancelled_copies: dup.report.cancelled_copies,
        requeues: retry.report.requeues,
        wall_ms,
    }
}

/// Grid resolutions for a run: `--quick` trims to the CI pair, `--full`
/// adds the 64x64 rack-scale preview (explicit there is minutes of
/// wall-clock — the point the figure makes).
pub fn resolutions(quick: bool, full: bool) -> Vec<usize> {
    if quick {
        vec![8, 32]
    } else if full {
        vec![8, 16, 32, 64]
    } else {
        vec![8, 16, 32]
    }
}

/// Where the benchmark JSON lands. Full and default sweeps refresh the
/// versioned `BENCH_grid.json` baseline at the repository root (the
/// workspace directory two levels above this crate); `--quick` runs are
/// partial and machine-specific, so they go to scratch under `target/`
/// instead of clobbering the committed trajectory. `SPRINT_BENCH_OUT`
/// overrides either (the perf-smoke CI job pins its artifact path with
/// it).
pub fn bench_json_path(quick: bool) -> PathBuf {
    match std::env::var("SPRINT_BENCH_OUT") {
        Ok(p) => PathBuf::from(p),
        Err(_) if quick => PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_grid.quick.json"
        )),
        Err(_) => PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_grid.json"
        )),
    }
}

/// Serializes the cases to the `BENCH_grid.json` schema (hand-rolled:
/// the vendored serde is a no-op stand-in).
pub fn bench_json(
    cases: &[PerfCase],
    rack: Option<&RackPerfCase>,
    rack_power: Option<&RackPowerPerfCase>,
    facility: Option<&FacilityPerfCase>,
    event_core: Option<&EventCorePerfCase>,
    hetero: Option<&HeteroRackPerfCase>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"grid_solver_perf\",\n");
    out.push_str("  \"stack\": \"hpca_like (die/pcm/spreader, 4x4 core floorplan)\",\n");
    out.push_str(&format!(
        "  \"cycle\": {{\"sprint_w\": {SPRINT_W}, \"sprint_s\": {SPRINT_S}, \"rest_s\": {REST_S}, \"sample_dt_s\": {SAMPLE_DT_S}}},\n"
    ));
    out.push_str("  \"cases\": [\n");
    for (k, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"grid\": \"{n}x{n}x3\", \"n\": {n}, \"cells\": {cells}, \"threads\": 1, \
             \"explicit_ms\": {explicit_ms:.3}, \"adi_ms\": {adi_ms:.3}, \
             \"speedup\": {speedup:.2}, \"max_dev_k\": {max_dev_k:.4}, \
             \"explicit_sub_step_s\": {ex_sub:.3e}, \"adi_sub_step_s\": {adi_sub:.3e}}}{comma}\n",
            n = c.n,
            cells = c.cells,
            explicit_ms = c.explicit_ms,
            adi_ms = c.adi_ms,
            speedup = c.speedup,
            max_dev_k = c.max_dev_k,
            ex_sub = c.explicit_sub_step_s,
            adi_sub = c.adi_sub_step_s,
            comma = if k + 1 < cases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    // Optional sections, joined with ",\n" so the JSON stays valid for
    // any subset (the brace/comma discipline is pinned by tests).
    let mut sections: Vec<String> = Vec::new();
    if let Some(r) = rack {
        let explicit = match r.explicit_ms {
            Some(ms) => format!(", \"explicit_ms\": {ms:.3}"),
            None => String::new(),
        };
        let speedup = match r.speedup {
            Some(s) => format!(", \"speedup\": {s:.2}"),
            None => String::new(),
        };
        sections.push(format!(
            "  \"rack_case\": {{\"stack\": \"rack 4x4 servers (servers/plenum, PCM-free)\", \
             \"nodes\": {nodes}, \"grid\": \"{n}x{n}x2\", \"cells\": {cells}, \"threads\": 1, \
             \"adi_ms\": {adi_ms:.3}, \"adi_sub_step_s\": {adi_sub:.3e}{explicit}{speedup}}}",
            nodes = r.nodes,
            n = r.n,
            cells = r.cells,
            adi_ms = r.adi_ms,
            adi_sub = r.adi_sub_step_s,
        ));
    }
    if let Some(p) = rack_power {
        sections.push(format!(
            "  \"rack_power_case\": {{\"stack\": \"{stack}\", \"nodes\": {nodes}, \
             \"tasks\": {tasks}, \"windows\": {windows}, \"wall_ms\": {wall_ms:.3}, \
             \"us_per_window\": {uspw:.3}, \"tasks_per_s\": {tps:.2}, \
             \"supply_aborts\": {aborts}, \"fault_events\": {faults}, \
             \"failed_tasks\": {failed}}}",
            stack = p.stack,
            nodes = p.nodes,
            tasks = p.tasks,
            windows = p.windows,
            wall_ms = p.wall_ms,
            uspw = p.us_per_window,
            tps = p.tasks_per_s,
            aborts = p.supply_aborts,
            faults = p.fault_events,
            failed = p.failed_tasks,
        ));
    }
    if let Some(f) = facility {
        sections.push(format!(
            "  \"facility_case\": {{\"stack\": \"{stack}\", \"racks\": {racks}, \
             \"nodes_per_rack\": {npr}, \"tasks\": {tasks}, \"epochs\": {epochs}, \
             \"wall_ms\": {wall_ms:.3}, \"tasks_per_s\": {tps:.2}, \
             \"supply_aborts\": {aborts}, \"fault_events\": {faults}, \
             \"failed_tasks\": {failed}}}",
            stack = f.stack,
            racks = f.racks,
            npr = f.nodes_per_rack,
            tasks = f.tasks,
            epochs = f.epochs,
            wall_ms = f.wall_ms,
            tps = f.tasks_per_s,
            aborts = f.supply_aborts,
            faults = f.fault_events,
            failed = f.failed_tasks,
        ));
    }
    if let Some(e) = event_core {
        sections.push(format!(
            "  \"event_core_case\": {{\"stack\": \"{stack}\", \"nodes\": {nodes}, \
             \"tasks\": {tasks}, \"windows\": {windows}, \
             \"lockstep_ms\": {lockstep_ms:.3}, \"event_ms\": {event_ms:.3}, \
             \"speedup\": {speedup:.2}, \"digest\": \"{digest:016x}\"}}",
            stack = e.stack,
            nodes = e.nodes,
            tasks = e.tasks,
            windows = e.windows,
            lockstep_ms = e.lockstep_ms,
            event_ms = e.event_ms,
            speedup = e.speedup,
            digest = e.digest,
        ));
    }
    if let Some(h) = hetero {
        sections.push(format!(
            "  \"hetero_rack_case\": {{\"stack\": \"{stack}\", \"nodes\": {nodes}, \
             \"tasks\": {tasks}, \"retry_p99_ms\": {retry_p99:.3}, \
             \"dup_p99_ms\": {dup_p99:.3}, \"p99_gain\": {gain:.2}, \
             \"retry_energy_j\": {retry_j:.4}, \"dup_energy_j\": {dup_j:.4}, \
             \"extra_draw_frac\": {extra:.3}, \"cancelled_copies\": {cancelled}, \
             \"requeues\": {requeues}, \"wall_ms\": {wall_ms:.3}}}",
            stack = h.stack,
            nodes = h.nodes,
            tasks = h.tasks,
            retry_p99 = h.retry_p99_ms,
            dup_p99 = h.dup_p99_ms,
            gain = h.p99_gain,
            retry_j = h.retry_energy_j,
            dup_j = h.dup_energy_j,
            extra = h.extra_draw_frac,
            cancelled = h.cancelled_copies,
            requeues = h.requeues,
            wall_ms = h.wall_ms,
        ));
    }
    for s in &sections {
        out.push_str(",\n");
        out.push_str(s);
    }
    out.push_str("\n}\n");
    out
}

/// Everything one perf sweep measured, so a caller (the `perfbench
/// --check` gate) can judge *this run's* numbers rather than whatever
/// `BENCH_grid.json` happened to be on disk.
pub struct PerfRun {
    /// The explicit-vs-ADI resolution sweep.
    pub cases: Vec<PerfCase>,
    /// The power-aware rack scheduler point.
    pub rack_power: RackPowerPerfCase,
    /// The facility settlement-loop point.
    pub facility: FacilityPerfCase,
    /// The event-core vs lockstep-oracle point.
    pub event_core: EventCorePerfCase,
    /// The heterogeneous duplication-under-faults point.
    pub hetero: HeteroRackPerfCase,
    /// The rendered stdout report.
    pub report: String,
}

/// The perf figure: runs the sweep, writes `BENCH_grid.json` and
/// `results/fig_perf.csv`, and renders the stdout table.
pub fn fig_perf(quick: bool, full: bool) -> String {
    fig_perf_cases(quick, full).report
}

/// [`fig_perf`], handing back every measurement (see [`PerfRun`]).
pub fn fig_perf_cases(quick: bool, full: bool) -> PerfRun {
    let cases = run_cases(&resolutions(quick, full));
    let mut out =
        String::from("Grid solver performance — explicit vs ADI, one 16 W sprint-and-rest cycle\n");
    let mut table = TextTable::new();
    table.row(&[
        &"grid",
        &"cells",
        &"threads",
        &"explicit ms",
        &"adi ms",
        &"speedup",
        &"max |dT| K",
    ]);
    let mut csv = Csv::new(
        "fig_perf",
        &[
            "grid",
            "cells",
            "threads",
            "explicit_ms",
            "adi_ms",
            "speedup",
            "max_dev_k",
        ],
    );
    for c in &cases {
        let grid = format!("{n}x{n}x3", n = c.n);
        table.row(&[
            &grid,
            &c.cells,
            &1,
            &format!("{:.1}", c.explicit_ms),
            &format!("{:.1}", c.adi_ms),
            &format!("{:.1}x", c.speedup),
            &format!("{:.4}", c.max_dev_k),
        ]);
        csv.row(&[
            &grid,
            &c.cells,
            &1,
            &format!("{:.3}", c.explicit_ms),
            &format!("{:.3}", c.adi_ms),
            &format!("{:.2}", c.speedup),
            &format!("{:.4}", c.max_dev_k),
        ]);
    }
    out.push_str(&table.render());
    if let (Some(first), Some(last)) = (cases.first(), cases.last()) {
        out.push_str(&format!(
            "the explicit sub-step shrinks {:.0}x from {f}x{f} to {l}x{l} while the ADI\n\
             sub-step stays put — implicit sweeps decouple the step from the cell time\n\
             constant, so the speedup grows with resolution at sub-0.1 K accuracy.\n",
            first.explicit_sub_step_s / last.explicit_sub_step_s,
            f = first.n,
            l = last.n,
        ));
    }
    // The rack-scale point: PCM-free stack, so the cached tridiagonal
    // factorizations cover every ADI line (rows, columns and the
    // shared vertical stack). The explicit reference only runs under
    // --full — at this resolution it is seconds per cycle, which is
    // the cost the ADI solver removed.
    let rack = run_rack_case(full);
    match (rack.explicit_ms, rack.speedup) {
        (Some(ex), Some(s)) => out.push_str(&format!(
            "rack 4x4 ({nodes} servers, {n}x{n}x2, fully cached ADI): {adi:.1} ms vs \
             explicit {ex:.1} ms — {s:.1}x\n",
            nodes = rack.nodes,
            n = rack.n,
            adi = rack.adi_ms,
        )),
        _ => out.push_str(&format!(
            "rack 4x4 ({nodes} servers, {n}x{n}x2, fully cached ADI): {adi:.1} ms per \
             sprint-and-rest cycle\n",
            nodes = rack.nodes,
            n = rack.n,
            adi = rack.adi_ms,
        )),
    }
    // The power-aware rack point: the whole scheduler loop (machines +
    // ADI thermals + shared-supply settlement + joint admission), to
    // keep the supply accounting's overhead visible in the history.
    let rack_power = run_rack_power_case();
    out.push_str(&format!(
        "rack power ({nodes} servers, shared feed, power-aware): {tasks} tasks drained \
         in {wall:.0} ms wall ({uspw:.1} us/window, {tps:.1} tasks/s, {aborts} \
         electrical aborts)\n",
        nodes = rack_power.nodes,
        tasks = rack_power.tasks,
        wall = rack_power.wall_ms,
        uspw = rack_power.us_per_window,
        tps = rack_power.tasks_per_s,
        aborts = rack_power.supply_aborts,
    ));
    // The facility point: the whole settlement loop (sharded racks, row
    // coupling, cross-rack cap rationing) end to end.
    let facility = run_facility_case();
    out.push_str(&format!(
        "facility ({racks} racks x {npr} servers, global rationing): {tasks} tasks \
         drained in {wall:.0} ms wall ({tps:.1} tasks/s over {epochs} epochs, \
         {aborts} electrical aborts)\n",
        racks = facility.racks,
        npr = facility.nodes_per_rack,
        tasks = facility.tasks,
        wall = facility.wall_ms,
        tps = facility.tasks_per_s,
        epochs = facility.epochs,
        aborts = facility.supply_aborts,
    ));
    // The event-core point: the event core's speedup claim, measured
    // against the lockstep golden oracle on every sweep (the digest
    // equality assert inside is what keeps the claim honest).
    let event_core = run_event_core_case();
    out.push_str(&format!(
        "event core ({nodes} servers, sparse arrivals): median of {EVENT_PAIRS} pairs, \
         lockstep {lock:.0} ms vs event {ev:.0} ms over {windows} windows — \
         {speedup:.1}x, digests identical\n",
        nodes = event_core.nodes,
        lock = event_core.lockstep_ms,
        ev = event_core.event_ms,
        windows = event_core.windows,
        speedup = event_core.speedup,
    ));
    // The heterogeneous point: the duplication-economics claim on the
    // degraded big/little rack — competitive duplicates with loser
    // cancellation must beat bounded retry-in-place at the p99 (the
    // figure's fixture, so retuning `figs_hetero` retunes this point).
    let hetero = run_hetero_rack_case();
    out.push_str(&format!(
        "hetero rack ({nodes} servers, big/little, crash plan): retry p99 \
         {retry:.2} ms vs dup+cancel {dup:.2} ms — {gain:.1}x at +{extra:.0}% feed \
         draw ({cancelled} losers cancelled)\n",
        nodes = hetero.nodes,
        retry = hetero.retry_p99_ms,
        dup = hetero.dup_p99_ms,
        gain = hetero.p99_gain,
        extra = hetero.extra_draw_frac * 100.0,
        cancelled = hetero.cancelled_copies,
    ));
    let path = bench_json_path(quick);
    match std::fs::write(
        &path,
        bench_json(
            &cases,
            Some(&rack),
            Some(&rack_power),
            Some(&facility),
            Some(&event_core),
            Some(&hetero),
        ),
    ) {
        Ok(()) => out.push_str(&format!("wrote {}\n", path.display())),
        Err(e) => out.push_str(&format!("could not write {}: {e}\n", path.display())),
    }
    out.push_str(&format!("wrote {}\n", csv.finish().display()));
    PerfRun {
        cases,
        rack_power,
        facility,
        event_core,
        hetero,
        report: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole claim in miniature: on a small grid the ADI run
    /// must agree with explicit to the matched-accuracy bar. (The
    /// 32x32 10x-speedup claim itself is pinned by `perfbench --check`
    /// in the perf-smoke CI job — wall-clock assertions don't belong
    /// in `cargo test`.)
    #[test]
    fn adi_matches_explicit_on_the_perf_cycle() {
        let case = run_case(8);
        assert!(
            case.max_dev_k < 0.1,
            "8x8 dev {:.4} K exceeds the matched-accuracy bar",
            case.max_dev_k
        );
        assert!(case.explicit_ms > 0.0 && case.adi_ms > 0.0);
    }

    #[test]
    fn bench_json_is_wellformed_enough() {
        let cases = vec![run_case(8)];
        let json = bench_json(&cases, None, None, None, None, None);
        assert!(json.contains("\"grid\": \"8x8x3\""));
        assert!(json.contains("\"threads\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn rack_case_lands_in_the_json() {
        let cases = vec![run_case(8)];
        let rack = run_rack_case(false);
        assert_eq!(rack.nodes, 16);
        assert_eq!(rack.n, 32);
        assert!(rack.adi_ms > 0.0);
        assert!(rack.explicit_ms.is_none(), "explicit is a --full extra");
        let json = bench_json(&cases, Some(&rack), None, None, None, None);
        assert!(json.contains("\"rack_case\""));
        assert!(json.contains("\"grid\": \"32x32x2\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn rack_power_and_facility_cases_land_in_the_json() {
        // Synthetic points keep this a serialization test (the live
        // measurements run in `perfbench`/CI, not `cargo test`).
        let power = RackPowerPerfCase {
            stack: "rack 16 servers, shared 120 W feed, power-aware admission".to_string(),
            nodes: 16,
            tasks: 12,
            windows: 4321,
            wall_ms: 1234.5,
            us_per_window: 285.7,
            tasks_per_s: 9.7,
            supply_aborts: 0,
            fault_events: 0,
            failed_tasks: 0,
        };
        let facility = FacilityPerfCase {
            stack: "facility 4 racks x 16 servers, globally rationed 160 W feed, \
                    row CRAC coupling"
                .to_string(),
            racks: 4,
            nodes_per_rack: 16,
            tasks: 120,
            epochs: 700,
            wall_ms: 2500.0,
            tasks_per_s: 48.0,
            supply_aborts: 0,
            fault_events: 0,
            failed_tasks: 0,
        };
        let event_core = EventCorePerfCase {
            stack: "rack 4096 servers, sparse arrivals, event core vs lockstep oracle".to_string(),
            nodes: 4096,
            tasks: 2,
            windows: 8730,
            lockstep_ms: 3100.0,
            event_ms: 260.0,
            speedup: 11.9,
            digest: 0x00ab_cdef_0123_4567,
        };
        let hetero = HeteroRackPerfCase {
            stack: "degraded hetero rack, 2 big + 2 little servers, duplication + cancel \
                    vs retry-in-place"
                .to_string(),
            nodes: 4,
            tasks: 16,
            retry_p99_ms: 2.522,
            dup_p99_ms: 1.310,
            p99_gain: 2.522 / 1.310,
            retry_energy_j: 0.0412,
            dup_energy_j: 0.0595,
            extra_draw_frac: 0.445,
            cancelled_copies: 15,
            requeues: 2,
            wall_ms: 1300.0,
        };
        let cases = vec![run_case(8)];
        let rack = run_rack_case(false);
        let json = bench_json(
            &cases,
            Some(&rack),
            Some(&power),
            Some(&facility),
            Some(&event_core),
            Some(&hetero),
        );
        assert!(json.contains("\"rack_power_case\""));
        assert!(json.contains("\"facility_case\""));
        assert!(json.contains("\"event_core_case\""));
        assert!(json.contains("\"hetero_rack_case\""));
        assert!(json.contains("\"tasks_per_s\": 9.70"));
        assert!(json.contains("\"tasks_per_s\": 48.00"));
        assert!(json.contains("\"speedup\": 11.90"));
        assert!(json.contains("\"retry_p99_ms\": 2.522"));
        assert!(json.contains("\"p99_gain\": 1.93"));
        assert!(json.contains("\"cancelled_copies\": 15"));
        // The digest serializes as fixed-width hex, leading zeros kept
        // (a truncated digest could alias two different reports).
        assert!(json.contains("\"digest\": \"00abcdef01234567\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Every section also serializes independently.
        for (r, p, f, e, h) in [
            (None, Some(&power), None, None, None),
            (None, None, Some(&facility), None, None),
            (Some(&rack), None, Some(&facility), None, None),
            (None, None, None, Some(&event_core), None),
            (Some(&rack), None, None, Some(&event_core), None),
            (None, None, None, None, Some(&hetero)),
            (None, Some(&power), None, None, Some(&hetero)),
            (
                None,
                Some(&power),
                Some(&facility),
                Some(&event_core),
                Some(&hetero),
            ),
        ] {
            let alone = bench_json(&cases, r, p, f, e, h);
            assert_eq!(alone.matches('{').count(), alone.matches('}').count());
            assert_eq!(alone.matches('[').count(), alone.matches(']').count());
        }
    }
}
