//! `phone_bursts`: the paper's own scenario. One persistent
//! `SprintSession` per input set — a 16-core `MachineConfig::hpca`, the
//! `hpca_like` PCM die grid at 32x32 under ADI, and `HybridSupply::phone`
//! — serves a seeded stream of Table-1 kernel bursts, resting between
//! them. The thermal layer's PCM path does most of the work; no cluster
//! or facility code runs.

use std::time::Instant;

use computational_sprinting::core::controller::ControllerEvent;
use computational_sprinting::core::session::StepOutcome;
use computational_sprinting::prelude::*;

use crate::repeat::{repeat_sets, set_seed, setup_samples, SetRun};
use crate::report::Outcome;
use crate::shim::{SupplyShim, ThermalShim, SUPPLY_DRAW, THERMAL_ADVANCE};
use crate::span::{traced, SharedRecorder, SpanRecorder};
use crate::stats::{median, nearest_rank, Fnv, StepTimes};
use crate::{Args, RunOutput};

/// The burst mix: every Table-1 kernel at size A, and the two whose
/// size-B input still finishes inside one sprint at size B. (The others
/// at B outlast the sprint or supply budget and run most of their
/// windows single-core: one such burst costs as much host time as half
/// a set.)
const MIX: [(WorkloadKind, InputSize); 8] = [
    (WorkloadKind::Sobel, InputSize::A),
    (WorkloadKind::Feature, InputSize::A),
    (WorkloadKind::Kmeans, InputSize::A),
    (WorkloadKind::Disparity, InputSize::A),
    (WorkloadKind::Texture, InputSize::A),
    (WorkloadKind::Segment, InputSize::A),
    (WorkloadKind::Sobel, InputSize::B),
    (WorkloadKind::Kmeans, InputSize::B),
];
/// Bursts per input set: the mix, three times.
const BURSTS: usize = 3 * MIX.len();
/// Distinct input sets per seed.
const SETS: usize = 4;
/// Mean burst arrival rate, Hz of simulated time.
const RATE_HZ: f64 = 60.0;
/// Thermal time compression (the `grid_hotspot` example's).
const COMPRESS: f64 = 60.0;
/// Threads per burst (one per core).
const THREADS: usize = 16;
/// Extra session builds timed for `setup_s` (one costs ~0.2 ms).
const SETUP_SAMPLES: u32 = 25;

/// One user event: a kernel burst arriving at `arrival_s`.
#[derive(Debug, Clone, Copy)]
struct Burst {
    arrival_s: f64,
    kind: WorkloadKind,
    size: InputSize,
}

/// The input set `set` of `seed`. Arrival times come from the seeded
/// front-end traffic generator (diurnal, without fan-in clumps: a phone
/// has one user), rescaled so every set spans `BURSTS / RATE_HZ` of
/// simulated time: seeds move bursts, not the total rest time. Kernels
/// and sizes are a seeded shuffle of the mix, so each set carries the
/// same work.
fn bursts(seed: u64, set: u32) -> Vec<Burst> {
    let s = set_seed(seed, set);
    let mut traffic = TrafficParams::frontend(s, BURSTS, RATE_HZ);
    traffic.burst_rate_hz = 0.0;
    let arrivals = traffic.generate();
    let span_s = arrivals.last().map_or(1.0, |a| a.arrival_s);
    let scale = BURSTS as f64 / RATE_HZ / span_s;
    let mut mix: Vec<(WorkloadKind, InputSize)> =
        MIX.iter().cycle().take(BURSTS).copied().collect();
    crate::repeat::shuffle(&mut mix, s);
    arrivals
        .iter()
        .zip(mix)
        .map(|(a, (kind, size))| Burst {
            arrival_s: a.arrival_s * scale,
            kind,
            size,
        })
        .collect()
}

fn thermal() -> GridThermal {
    GridThermalParams::hpca_like()
        .with_grid(32, 32)
        .with_solver(GridSolver::Adi)
        .time_scaled(COMPRESS)
        .build()
}

fn session<T: ThermalModel, S: PowerSupply>(thermal: T, supply: S) -> SprintSession<T, S> {
    let mut config = SprintConfig::hpca_parallel();
    config.hotspot = HotspotPolicy::ShedCores {
        start_headroom_k: 3.0,
        min_cores: 4,
    };
    ScenarioBuilder::new()
        .machine(MachineConfig::hpca())
        .thermal(thermal)
        .supply(supply)
        .config(config)
        .trace_capacity(0)
        .build()
}

/// What one input set's session produced.
#[derive(Debug, Default)]
struct Served {
    latencies_s: Vec<f64>,
    energy_j: f64,
    instructions: u64,
    unfinished: u64,
    digest: u64,
    supply_limited: u64,
    hotspot_sheds: u64,
    peak_melt: f64,
    run_s: f64,
}

/// Serves `bursts` on `s`, timing every step into `steps`. With a
/// recorder, spans wrap each step, rest and load call.
fn serve<T: ThermalModel, S: PowerSupply>(
    s: &mut SprintSession<T, S>,
    bursts: &[Burst],
    steps: &mut StepTimes,
    rec: Option<&SharedRecorder>,
) -> Served {
    let mut out = Served::default();
    let mut digest = Fnv::default();
    let start = Instant::now();
    for b in bursts {
        let gap = b.arrival_s - s.now_s();
        if gap > 0.0 {
            match rec {
                Some(r) => traced(r, "core.rest", || s.rest(gap)),
                None => s.rest(gap),
            };
            // The session rests at the thermal model's compressed time;
            // top the supply up at real scale, as `repeated_bursts` does.
            s.supply_mut().idle_recharge(gap * COMPRESS);
        }
        let loader = suite_loader(b.kind, b.size, THREADS);
        match rec {
            Some(r) => traced(r, "workloads.load", || loader(s.machine_mut())),
            None => loader(s.machine_mut()),
        }
        s.begin_burst();
        let started_s = s.now_s();
        let outcome = loop {
            let id = rec.map(|r| r.borrow_mut().begin("core.step"));
            let t = Instant::now();
            let outcome = s.step();
            steps.push(t.elapsed());
            if let (Some(r), Some(id)) = (rec, id) {
                r.borrow_mut().end(id);
                out.peak_melt = out.peak_melt.max(s.thermal().melt_fraction());
            }
            if outcome.is_terminal() {
                break outcome;
            }
        };
        let done_s = s.now_s();
        if outcome != StepOutcome::Finished {
            out.unfinished += 1;
        }
        out.latencies_s.push(done_s - started_s);
        for bits in [b.arrival_s.to_bits(), started_s.to_bits(), done_s.to_bits()] {
            digest.eat(bits);
        }
    }
    out.run_s = start.elapsed().as_secs_f64();
    let report = s.report();
    for bits in [
        report.completion_s.to_bits(),
        report.energy_j.to_bits(),
        report.instructions,
        report.max_junction_c.to_bits(),
        report.events.len() as u64,
        s.thermal().junction_temp_c().to_bits(),
        s.thermal().melt_fraction().to_bits(),
    ] {
        digest.eat(bits);
    }
    out.energy_j = report.energy_j;
    out.instructions = report.instructions;
    out.digest = digest.finish();
    for e in &report.events {
        match e {
            ControllerEvent::SupplyLimited { .. } => out.supply_limited += 1,
            ControllerEvent::HotspotShed { .. } => out.hotspot_sheds += 1,
            _ => {}
        }
    }
    if !(report.energy_j.is_finite() && report.energy_j > 0.0) {
        out.unfinished = bursts.len() as u64;
    }
    out
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> RunOutput {
    if args.trace {
        return run_traced(args);
    }
    let mut o = Outcome::default();
    let mut setups = setup_samples(SETUP_SAMPLES, |i| {
        let input = bursts(args.seed, i % SETS as u32);
        (input, session(thermal(), HybridSupply::phone()))
    });
    let mut steps = StepTimes::default();
    let r = repeat_sets(&mut o, args, SETS, |set| {
        let t = Instant::now();
        let input = bursts(args.seed, set);
        let mut s = session(thermal(), HybridSupply::phone());
        let setup_s = t.elapsed().as_secs_f64();
        let run = serve(&mut s, &input, &mut steps, None);
        SetRun {
            setup_s,
            run_s: run.run_s,
            tasks: input.len() as u64,
            failed: run.unfinished,
            digest: run.digest,
            detail: run,
        }
    });
    setups.extend(&r.setups);
    let first_pass = r.first_pass;
    let mut lat: Vec<f64> = first_pass
        .iter()
        .flat_map(|r| r.latencies_s.clone())
        .collect();
    let energy: f64 = first_pass.iter().map(|r| r.energy_j).sum();
    o.metric("tasks_per_s", r.tasks_per_s);
    o.metric("setup_s", median(&mut setups).unwrap_or(f64::NAN));
    o.metric("peak_rss_mb", r.peak_rss_mb);
    o.metric("step_p50_us", steps.p50_us());
    o.metric("step_p999_us", steps.p999_us());
    o.metric(
        "sim_p99_ms",
        nearest_rank(&mut lat, 0.99).unwrap_or(f64::NAN) * 1e3,
    );
    o.metric("sim_mj_per_task", energy * 1e3 / lat.len() as f64);
    o.note(format!(
        "steps: SprintSession::step, {}; setups: {}; sim stats over {} bursts \
         (latency is a burst's completion time from its start)",
        steps.describe(),
        setups.len(),
        lat.len()
    ));
    (o, None)
}

/// The traced run: input set 0 served once on the bare backends and
/// once through the span shims. The digests must agree; the shimmed
/// pass supplies the per-layer metrics.
fn run_traced(args: &Args) -> RunOutput {
    let mut o = Outcome::default();
    let input = bursts(args.seed, 0);

    let mut plain_steps = StepTimes::default();
    let mut plain = session(thermal(), HybridSupply::phone());
    let bare = serve(&mut plain, &input, &mut plain_steps, None);
    drop(plain);

    let rec = SpanRecorder::shared();
    let mut steps = StepTimes::default();
    let mut s = session(
        ThermalShim::new(thermal(), rec.clone()),
        SupplyShim::new(HybridSupply::phone(), rec.clone()),
    );
    let shimmed = serve(&mut s, &input, &mut steps, Some(&rec));
    let draw_errors = s.supply().errors();
    drop(s);

    o.attempted = 2 * input.len() as u64;
    o.failed = bare.unfinished + shimmed.unfinished;
    o.note(format!(
        "set 0: digest {:016x} bare, {:016x} shimmed",
        bare.digest, shimmed.digest
    ));
    o.check(
        "shimmed digest equals the bare digest",
        bare.digest == shimmed.digest,
    );

    let r = rec.borrow();
    let step_s = r.total_s("core.step");
    let step_self_s = r.self_s("core.step");
    let rest_s = r.total_s("core.rest");
    let load_s = r.total_s("workloads.load");
    let advance_s = r.total_s(THERMAL_ADVANCE);
    let tasks = input.len() as f64;
    o.metric("core.step_calls", r.count("core.step") as f64);
    o.metric("core.step_s", step_s);
    o.metric("core.step_self_s", step_self_s);
    o.metric("core.rest_calls", r.count("core.rest") as f64);
    o.metric("core.rest_s", rest_s);
    o.metric("core.supply_limited", shimmed.supply_limited as f64);
    o.metric("core.hotspot_sheds", shimmed.hotspot_sheds as f64);
    o.metric("thermal.advance_calls", r.count(THERMAL_ADVANCE) as f64);
    o.metric("thermal.advance_s", advance_s);
    o.metric("thermal.share", advance_s / (step_s + rest_s + load_s));
    o.metric("thermal.peak_melt_frac", shimmed.peak_melt);
    o.metric("powersource.draw_calls", r.count(SUPPLY_DRAW) as f64);
    o.metric("powersource.draw_s", r.total_s(SUPPLY_DRAW));
    o.metric("powersource.draw_errors", draw_errors as f64);
    o.metric("archsim.sim_minst", shimmed.instructions as f64 * 1e-6);
    o.metric(
        "archsim.minst_per_s",
        shimmed.instructions as f64 * 1e-6 / step_self_s,
    );
    o.metric("workloads.load_s", load_s);
    o.metric("trace.tasks_per_s", tasks / shimmed.run_s);
    o.metric("trace.overhead", shimmed.run_s / bare.run_s - 1.0);
    o.note(format!(
        "core.step_self_s is SprintSession::step minus the thermal and supply \
         shim spans inside it: Machine::run_window plus the controller; \
         untraced pass {:.3} s, traced pass {:.3} s",
        bare.run_s, shimmed.run_s
    ));
    drop(r);
    let spans = std::rc::Rc::try_unwrap(rec)
        .expect("every session holding the recorder has been dropped")
        .into_inner();
    (o, Some(spans))
}
