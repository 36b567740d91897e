//! `sparse_fleet`: one rack of 1024 servers (32x32) on a coarse 8x8 rack
//! grid, default 1 us windows, sparse seeded arrivals, stepped on
//! `EventDrivenCluster`. Idle-fleet bookkeeping dominates; archsim and
//! the thermal solve nearly vanish. It also exposes the per-server
//! set-up cost.

use std::time::Instant;

use computational_sprinting::prelude::*;

use crate::repeat::{repeat_sets, set_seed, shuffle, SetRun};
use crate::report::Outcome;
use crate::span::SpanRecorder;
use crate::stats::{median, nearest_rank, StepTimes};
use crate::{mem, Args, RunOutput};

/// Rack edge in servers.
const EDGE: usize = 32;
/// Rack thermal grid edge, cells.
const GRID: usize = 8;
/// Arrivals per input set.
const TASKS: usize = 96;
/// Size-B arrivals per set (5%).
const B_TASKS: usize = 5;
/// Distinct input sets per seed.
const SETS: usize = 6;
/// Mean arrival rate, Hz of simulated time.
const RATE_HZ: f64 = 2000.0;
/// Thermal and electrical time compression.
const COMPRESS: f64 = 6000.0;

fn config() -> SprintConfig {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    cfg
}

fn window_s() -> f64 {
    config().sample_window_ps as f64 * 1e-12
}

/// Input set `set` of `seed`: front-end arrivals (diurnal, without
/// fan-in clumps, whose count per set would swing the fleet's
/// concurrency from seed to seed) rescaled to span
/// `TASKS / RATE_HZ` of simulated time, with exactly `B_TASKS` of them
/// at size B (seeded positions) and the rest at A — seeds move tasks,
/// not the amount of work or idle time in a set.
fn tasks(seed: u64, set: u32) -> Vec<ClusterTask> {
    let s = set_seed(seed, set);
    let mut traffic = TrafficParams::frontend(s, TASKS, RATE_HZ);
    traffic.burst_rate_hz = 0.0;
    let arrivals = traffic.generate();
    let span_s = arrivals.last().map_or(1.0, |a| a.arrival_s);
    let scale = TASKS as f64 / RATE_HZ / span_s;
    let mut sizes = vec![InputSize::A; TASKS];
    sizes[..B_TASKS].fill(InputSize::B);
    shuffle(&mut sizes, s);
    arrivals
        .iter()
        .zip(sizes)
        .map(|(a, size)| ClusterTask::new(a.kind, size, a.threads, a.arrival_s * scale))
        .collect()
}

fn rack_thermal() -> GridThermalParams {
    GridThermalParams::rack(EDGE, EDGE)
        .with_grid(GRID, GRID)
        .time_scaled(COMPRESS)
}

fn cluster(tasks: &[ClusterTask]) -> ClusterSession {
    ClusterBuilder::new(rack_thermal())
        .policy(ClusterPolicy::greedy_default())
        .power_policy(PowerPolicy::rationed_default())
        .rack_supply(RackSupplyParams::rack(EDGE * EDGE).time_scaled(COMPRESS))
        .config(config())
        .tasks(tasks.iter().copied())
        .trace_capacity(0)
        .build()
}

/// Windows in which an arrival is due: the first window `w` with
/// `w * window_s >= arrival_s`, the clock test the cluster's arrival pass
/// applies. Sorted, one entry per distinct window.
fn due_windows(tasks: &[ClusterTask]) -> Vec<u64> {
    let w = window_s();
    let mut due: Vec<u64> = tasks
        .iter()
        .map(|t| {
            let mut k = (t.arrival_s / w).ceil().max(0.0) as u64;
            while (k as f64) * w < t.arrival_s {
                k += 1;
            }
            while k > 0 && ((k - 1) as f64) * w >= t.arrival_s {
                k -= 1;
            }
            k
        })
        .collect();
    due.sort_unstable();
    due.dedup();
    due
}

/// What one drain produced.
#[derive(Debug)]
struct Drain {
    run_s: f64,
    windows: u64,
    report: ClusterReport,
    drained: bool,
}

/// The traced run's view of a drain: step times split by whether an
/// arrival was due in the window, and a `cluster.step` span per call.
struct Split<'a> {
    due: &'a [u64],
    quiet: StepTimes,
    sched: StepTimes,
    rec: &'a mut SpanRecorder,
}

/// Steps `ev` to a terminal outcome, timing every `step` call into
/// `steps` (and into `split`, when tracing).
fn drain(
    mut ev: EventDrivenCluster,
    steps: &mut StepTimes,
    mut split: Option<&mut Split>,
) -> Drain {
    let mut next = 0;
    let start = Instant::now();
    let outcome = loop {
        let w = ev.windows();
        let id = split.as_deref_mut().map(|s| s.rec.begin("cluster.step"));
        let t = Instant::now();
        let outcome = ev.step();
        let dt = t.elapsed();
        steps.push(dt);
        if let (Some(s), Some(id)) = (split.as_deref_mut(), id) {
            s.rec.end(id);
            while next < s.due.len() && s.due[next] < w {
                next += 1;
            }
            if s.due.get(next) == Some(&w) {
                s.sched.push(dt);
            } else {
                s.quiet.push(dt);
            }
        }
        if outcome.is_terminal() {
            break outcome;
        }
    };
    Drain {
        run_s: start.elapsed().as_secs_f64(),
        windows: ev.windows(),
        drained: outcome == ClusterOutcome::Drained,
        report: ev.report(),
    }
}

/// Failed tasks of a drain: all of them if it breaks an output check,
/// otherwise the ones that did not complete.
fn failed_tasks(drained: bool, report: &ClusterReport) -> u64 {
    let sound = drained
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

fn energy_j(report: &ClusterReport) -> f64 {
    report.node_reports.iter().map(|n| n.energy_j).sum()
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> RunOutput {
    if args.trace {
        return run_traced(args);
    }
    let mut o = Outcome::default();
    let mut steps = StepTimes::default();
    let r = repeat_sets(&mut o, args, SETS, |set| {
        let t = Instant::now();
        let input = tasks(args.seed, set);
        let ev = EventDrivenCluster::new(cluster(&input));
        let setup_s = t.elapsed().as_secs_f64();
        let d = drain(ev, &mut steps, None);
        SetRun {
            setup_s,
            run_s: d.run_s,
            tasks: TASKS as u64,
            failed: failed_tasks(d.drained, &d.report),
            digest: d.report.digest(),
            detail: d.report,
        }
    });
    let mut setups = r.setups;
    let mut lat: Vec<f64> = r
        .first_pass
        .iter()
        .flat_map(|c| c.outcomes.iter().map(TaskOutcome::latency_s))
        .collect();
    let energy: f64 = r.first_pass.iter().map(energy_j).sum();
    o.metric("tasks_per_s", r.tasks_per_s);
    o.metric("setup_s", median(&mut setups).unwrap_or(f64::NAN));
    o.metric("peak_rss_mb", r.peak_rss_mb);
    o.metric("step_p50_us", steps.p50_us());
    o.metric("step_p999_us", steps.p999_us());
    o.metric(
        "sim_p99_ms",
        nearest_rank(&mut lat, 0.99).unwrap_or(f64::NAN) * 1e3,
    );
    o.metric("sim_mj_per_task", energy * 1e3 / lat.len().max(1) as f64);
    o.note(format!(
        "steps: EventDrivenCluster::step, {}; setups: {}; sim stats over {} tasks",
        steps.describe(),
        setups.len(),
        lat.len()
    ));
    (o, None)
}

/// The traced run: input set 0 drained on the event core with a span
/// per step, again without spans, then on the lockstep oracle.
fn run_traced(args: &Args) -> RunOutput {
    let mut o = Outcome::default();
    let mut rec = SpanRecorder::new();
    let id = rec.begin("workloads.generate");
    let input = tasks(args.seed, 0);
    rec.end(id);
    let due = due_windows(&input);

    let rss0 = mem::rss_mb();
    let id = rec.begin("cluster.build");
    let session = cluster(&input);
    rec.end(id);
    let setup_mb = mem::rss_mb() - rss0;
    let nodes = session.nodes();
    let mut split = Split {
        due: &due,
        quiet: StepTimes::default(),
        sched: StepTimes::default(),
        rec: &mut rec,
    };
    let traced = drain(
        EventDrivenCluster::new(session),
        &mut StepTimes::default(),
        Some(&mut split),
    );
    let Split {
        mut quiet,
        mut sched,
        ..
    } = split;
    let plain = drain(
        EventDrivenCluster::new(cluster(&input)),
        &mut StepTimes::default(),
        None,
    );

    let mut lockstep = cluster(&input);
    let mut lock_steps = StepTimes::default();
    let start = Instant::now();
    let lock_outcome = loop {
        let t = Instant::now();
        let outcome = lockstep.step();
        lock_steps.push(t.elapsed());
        if outcome.is_terminal() {
            break outcome;
        }
    };
    let lock_s = start.elapsed().as_secs_f64();
    let lock_report = lockstep.report();
    drop(lockstep);

    rec.set_run(1);
    let mut grid = rack_thermal().build();
    let id = rec.begin("thermal.rack_replay");
    for _ in 0..traced.windows {
        grid.advance(window_s());
    }
    rec.end(id);

    let (report, plain_report) = (&traced.report, &plain.report);
    o.attempted = 3 * TASKS as u64;
    o.failed = failed_tasks(traced.drained, report)
        + failed_tasks(plain.drained, plain_report)
        + failed_tasks(lock_outcome == ClusterOutcome::Drained, &lock_report);
    o.note(format!(
        "set 0: digest {:016x} event core (traced), {:016x} untraced, {:016x} lockstep",
        report.digest(),
        plain_report.digest(),
        lock_report.digest()
    ));
    o.check(
        "event-core digest equals the lockstep oracle's",
        report.digest() == lock_report.digest() && report.digest() == plain_report.digest(),
    );

    o.metric("workloads.generate_s", rec.total_s("workloads.generate"));
    o.metric("cluster.build_s", rec.total_s("cluster.build"));
    o.metric("mem.setup_mb", setup_mb);
    o.metric("mem.setup_kb_per_node", setup_mb * 1024.0 / nodes as f64);
    o.metric("cluster.step_calls", rec.count("cluster.step") as f64);
    o.metric("cluster.quiet_step_p50_us", quiet.p50_us());
    o.metric("cluster.sched_windows", sched.calls() as f64);
    o.metric("cluster.sched_step_p50_us", sched.p50_us());
    o.metric("cluster.sched_step_s", sched.total_s());
    o.metric("cluster.lockstep_run_s", lock_s);
    o.metric("cluster.lockstep_step_p50_us", lock_steps.p50_us());
    o.metric("cluster.event_speedup", lock_s / plain.run_s);
    o.metric("thermal.rack_replay_s", rec.total_s("thermal.rack_replay"));
    o.metric("cluster.admitted_sprints", report.admitted_sprints as f64);
    o.metric("cluster.denied_sprints", report.denied_sprints as f64);
    o.metric("cluster.sheds", report.sheds as f64);
    o.metric("cluster.power_sheds", report.power_sheds as f64);
    o.metric("cluster.supply_aborts", report.supply_aborts as f64);
    o.metric("trace.tasks_per_s", report.completed as f64 / traced.run_s);
    o.metric("trace.overhead", traced.run_s / plain.run_s - 1.0);
    o.note(format!(
        "event core {:.3} s traced, {:.3} s untraced; lockstep oracle {lock_s:.3} s \
         over {} windows",
        traced.run_s,
        plain.run_s,
        lock_steps.calls()
    ));
    (o, Some(rec))
}
