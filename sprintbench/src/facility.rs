//! `facility_diurnal`: the `repro facility` configuration at reduced
//! scale. Four 16-server racks in one CRAC row behind a globally
//! rationed 60 W-per-rack feed, event-driven racks, two worker threads,
//! seeded diurnal front-end traffic. It runs the whole stack under load:
//! busy-node archsim windows, the PCM-free rack ADI, the rack supply,
//! scheduler passes at diurnal peaks, the settlement barrier and
//! 2-thread sharding.

use std::time::Instant;

use computational_sprinting::prelude::*;

use crate::repeat::{repeat_sets, set_seed, setup_samples, SetRun};
use crate::report::Outcome;
use crate::span::SpanRecorder;
use crate::stats::{median, nearest_rank};
use crate::{mem, Args, RunOutput};

/// Worker threads for `Facility::run`.
pub const WORKERS: usize = 2;
/// Racks in the facility.
const RACKS: usize = 4;
/// Rack edge in servers (16 per rack).
const EDGE: usize = 4;
/// Arrivals per input set, across the facility.
const TASKS: usize = 320;
/// Distinct input sets per seed.
const SETS: usize = 4;
/// Extra facility builds timed for `setup_s` (one costs ~5 ms).
const SETUP_SAMPLES: u32 = 20;
/// Thermal and electrical time compression.
const COMPRESS: f64 = 6000.0;
/// Mean facility arrival rate, Hz of simulated time.
const RATE_HZ: f64 = 1800.0;
/// Co-simulation window, picoseconds (20 us).
const WINDOW_PS: u64 = 20_000_000;
/// Sampling windows per settlement epoch.
const EPOCH_WINDOWS: u64 = 16;
/// Per-rack share of the facility feed, watts.
const SHARE_W: f64 = 60.0;
/// Guaranteed per-rack floor under global rationing, watts.
const FLOOR_W: f64 = 20.0;
/// Flex-pool quantum under global rationing, watts.
const SLOT_W: f64 = 18.0;

/// The base traffic of input set `set`: the front-end stream trimmed to
/// sizes A and B.
fn traffic(seed: u64, set: u32) -> TrafficParams {
    let mut t = TrafficParams::frontend(set_seed(seed, set), TASKS, RATE_HZ);
    t.size_weights = [0.95, 0.05, 0.0, 0.0];
    t
}

/// Rack `rack`'s share of `base`, derived as `FacilityBuilder::traffic`
/// documents it: a distinct seed, a diurnal phase rotated by
/// `rack / racks` of a period and an equal share of the tasks.
fn rack_traffic(base: &TrafficParams, rack: usize) -> TrafficParams {
    let mut t = base.clone();
    t.seed = base
        .seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rack as u64 + 1));
    t.diurnal_phase = base.diurnal_phase + rack as f64 / RACKS as f64;
    t.tasks = base.tasks / RACKS + usize::from(rack < base.tasks % RACKS);
    t
}

fn facility(traffic: TrafficParams) -> Facility {
    let nodes = EDGE * EDGE;
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    cfg.sample_window_ps = WINDOW_PS;
    FacilityBuilder::new(RACKS)
        .rack_thermal(GridThermalParams::rack(EDGE, EDGE).time_scaled(COMPRESS))
        .rack_supply(RackSupplyParams::rack(nodes).time_scaled(COMPRESS))
        .config(cfg)
        .policy(ClusterPolicy::GreedyHeadroom {
            admit_headroom_k: 15.0,
            shed_headroom_k: 4.0,
            min_sprinting: 1,
            defer_s: 2e-3,
        })
        .power_policy(PowerPolicy::rationed_default())
        .row(RowParams {
            racks_per_row: 4,
            recirc_k_per_w: 0.02,
            crac_capacity_w: 240.0,
            max_inlet_c: 45.0,
        })
        .facility_policy(FacilityPolicy::GlobalRationed {
            floor_w: FLOOR_W,
            slot_w: SLOT_W,
        })
        .facility_cap_w(SHARE_W * RACKS as f64)
        .epoch_windows(EPOCH_WINDOWS)
        .max_time_s(60.0)
        .event_driven(true)
        .traffic(traffic)
        .build()
}

/// Tasks of `report` that count as failed: all of them if the run
/// breaks an output check, otherwise the ones that did not complete.
fn failed_tasks(report: &FacilityReport) -> u64 {
    let sound = report.all_drained
        && report.task_conservation_holds()
        && report.total_tasks == TASKS
        && report.supply_aborts == 0
        && report.fault_events == 0;
    if sound {
        (TASKS - report.completed.min(TASKS)) as u64
    } else {
        TASKS as u64
    }
}

fn latencies_s(report: &FacilityReport) -> impl Iterator<Item = f64> + '_ {
    report
        .rack_reports
        .iter()
        .flat_map(|r| r.outcomes.iter().map(TaskOutcome::latency_s))
}

fn energy_j(report: &FacilityReport) -> f64 {
    report
        .rack_reports
        .iter()
        .flat_map(|r| &r.node_reports)
        .map(|n| n.energy_j)
        .sum()
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> RunOutput {
    if args.trace {
        return run_traced(args);
    }
    let mut o = Outcome::default();
    let mut setups = setup_samples(SETUP_SAMPLES, |i| {
        facility(traffic(args.seed, i % SETS as u32))
    });
    let r = repeat_sets(&mut o, args, SETS, |set| {
        let t = Instant::now();
        let f = facility(traffic(args.seed, set));
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = f.run(WORKERS);
        let run_s = t.elapsed().as_secs_f64();
        SetRun {
            setup_s,
            run_s,
            tasks: TASKS as u64,
            failed: failed_tasks(&report),
            digest: report.digest(),
            detail: report,
        }
    });
    setups.extend(&r.setups);
    // Host time per settlement epoch of each set (its fastest repetition).
    let mut epoch_us: Vec<f64> = r
        .first_pass
        .iter()
        .zip(&r.set_run_s)
        .map(|(report, run_s)| run_s * 1e6 / report.epochs.max(1) as f64)
        .collect();
    let mut lat: Vec<f64> = r.first_pass.iter().flat_map(latencies_s).collect();
    let energy: f64 = r.first_pass.iter().map(energy_j).sum();
    o.metric("tasks_per_s", r.tasks_per_s);
    o.metric("setup_s", median(&mut setups).unwrap_or(f64::NAN));
    o.metric("peak_rss_mb", r.peak_rss_mb);
    o.metric(
        "step_p50_us",
        median(&mut epoch_us.clone()).unwrap_or(f64::NAN),
    );
    o.metric(
        "step_p999_us",
        nearest_rank(&mut epoch_us, 0.999).unwrap_or(f64::NAN),
    );
    o.metric(
        "sim_p99_ms",
        nearest_rank(&mut lat, 0.99).unwrap_or(f64::NAN) * 1e3,
    );
    o.metric("sim_mj_per_task", energy * 1e3 / lat.len().max(1) as f64);
    o.note(format!(
        "steps: the public API runs a facility in one Facility::run call, so a \
         step sample is one input set's host time per settlement epoch (fastest \
         repetition) and p99.9 is the slowest set; {} samples; \
         setups: {}; sim stats over {} tasks",
        epoch_us.len(),
        setups.len(),
        lat.len()
    ));
    (o, None)
}

/// The traced run: input set 0 at 2 workers (traced, then untraced), at
/// 1 worker, and each layer replayed alone on the same inputs.
fn run_traced(args: &Args) -> RunOutput {
    let mut o = Outcome::default();
    let mut rec = SpanRecorder::new();
    let base = traffic(args.seed, 0);

    let rss0 = mem::rss_mb();
    let id = rec.begin("workloads.generate");
    let streams: Vec<Vec<_>> = (0..RACKS)
        .map(|r| rack_traffic(&base, r).generate())
        .collect();
    rec.end(id);
    let id = rec.begin("facility.build");
    let f = facility(base);
    rec.end(id);
    let rss_built = mem::rss_mb();
    let same_streams = (0..RACKS).all(|r| {
        let spec = &f.spec(r).tasks;
        spec.len() == streams[r].len()
            && spec
                .iter()
                .zip(&streams[r])
                .all(|(t, a)| t.arrival_s.to_bits() == a.arrival_s.to_bits())
    });
    o.check(
        "the timed generate calls reproduce the builder's rack streams",
        same_streams,
    );

    let id = rec.begin("facility.run");
    let traced = f.run(WORKERS);
    rec.end(id);
    let growth_mb = mem::peak_rss_mb() - rss_built;
    let t = Instant::now();
    let untraced = f.run(WORKERS);
    let untraced_s = t.elapsed().as_secs_f64();
    rec.set_run(1);
    let id = rec.begin("facility.run_1w");
    let one = f.run(1);
    rec.end(id);

    let mut windows = Vec::with_capacity(RACKS);
    let mut replay_ok = true;
    rec.set_run(2);
    for r in 0..RACKS {
        let id = rec.begin("cluster.rack_replay");
        let mut rack = EventDrivenCluster::new(f.spec(r).build());
        replay_ok &= rack.run_to_completion() == ClusterOutcome::Drained;
        rec.end(id);
        windows.push(rack.windows());
    }
    rec.set_run(3);
    let window_s = WINDOW_PS as f64 * 1e-12;
    for (r, &count) in windows.iter().enumerate() {
        let mut grid = f.spec(r).thermal.clone().build();
        for node in 0..grid.params().floorplan.core_count() {
            grid.set_core_power_w(node, 1.0);
        }
        let id = rec.begin("thermal.rack_replay");
        for _ in 0..count {
            grid.advance(window_s);
        }
        rec.end(id);
    }
    let mut instructions = 0u64;
    let mut archsim_ok = true;
    rec.set_run(4);
    let id = rec.begin("archsim.replay");
    for r in 0..RACKS {
        let spec = f.spec(r);
        for task in &spec.tasks {
            let (n, ok) = replay_task(task, &spec.machine);
            instructions += n;
            archsim_ok &= ok;
        }
    }
    rec.end(id);

    o.attempted = 3 * TASKS as u64;
    o.failed = failed_tasks(&traced) + failed_tasks(&untraced) + failed_tasks(&one);
    let d = traced.digest();
    o.note(format!(
        "set 0: digest {d:016x} at {WORKERS} workers (traced), {:016x} untraced, \
         {:016x} at 1 worker",
        untraced.digest(),
        one.digest()
    ));
    o.check(
        format!("digest is equal at 1 and {WORKERS} workers"),
        d == one.digest() && d == untraced.digest(),
    );
    o.check("every rack replay drains", replay_ok);
    o.check("every archsim replay finishes", archsim_ok);

    let run_s = rec.total_s("facility.run");
    let run_1w_s = rec.total_s("facility.run_1w");
    let rack_replay_s = rec.total_s("cluster.rack_replay");
    let archsim_s = rec.total_s("archsim.replay");
    let sum = |f: fn(&ClusterReport) -> usize| traced.rack_reports.iter().map(f).sum::<usize>();
    o.metric("workloads.generate_s", rec.total_s("workloads.generate"));
    o.metric("facility.build_s", rec.total_s("facility.build"));
    o.metric("facility.run_s", run_s);
    o.metric("facility.epochs", traced.epochs as f64);
    o.metric(
        "facility.epoch_us",
        run_s * 1e6 / traced.epochs.max(1) as f64,
    );
    o.metric("facility.run_1w_s", run_1w_s);
    o.metric("facility.parallel_speedup", run_1w_s / run_s);
    o.metric("cluster.rack_replay_s", rack_replay_s);
    o.metric("facility.settle_overhead_s", run_1w_s - rack_replay_s);
    o.metric("thermal.rack_replay_s", rec.total_s("thermal.rack_replay"));
    o.metric("archsim.replay_s", archsim_s);
    o.metric("archsim.sim_minst", instructions as f64 * 1e-6);
    o.metric(
        "archsim.minst_per_s",
        instructions as f64 * 1e-6 / archsim_s,
    );
    o.metric(
        "cluster.admitted_sprints",
        sum(|r| r.admitted_sprints) as f64,
    );
    o.metric("cluster.denied_sprints", sum(|r| r.denied_sprints) as f64);
    o.metric("cluster.sheds", traced.sheds as f64);
    o.metric("cluster.power_sheds", traced.power_sheds as f64);
    o.metric("cluster.supply_aborts", traced.supply_aborts as f64);
    o.metric("mem.setup_mb", rss_built - rss0);
    o.metric("mem.growth_mb", growth_mb);
    o.metric(
        "mem.growth_kb_per_task",
        growth_mb * 1024.0 / traced.completed.max(1) as f64,
    );
    o.metric("trace.tasks_per_s", traced.completed as f64 / run_s);
    o.metric("trace.overhead", run_s / untraced_s - 1.0);
    o.note(
        "approximate: cluster.rack_replay_s drains each rack alone at its nameplate \
         cap, so facility.settle_overhead_s = facility.run_1w_s - cluster.rack_replay_s \
         is the settlement barrier's cost only to first order; archsim.replay_s runs \
         every task alone on all 16 cores",
    );
    (o, Some(rec))
}

/// Runs one task's kernel alone on a fresh machine, window by window at
/// the facility's window size. Returns the instructions retired and
/// whether it finished within a generous window limit.
fn replay_task(task: &ClusterTask, machine: &MachineConfig) -> (u64, bool) {
    const MAX_WINDOWS: u32 = 1_000_000;
    let mut m = loaded_machine(task.kind, task.size, machine.clone(), task.threads);
    for _ in 0..MAX_WINDOWS {
        if m.run_window(WINDOW_PS).all_done {
            return (m.stats().instructions, true);
        }
    }
    (m.stats().instructions, false)
}
