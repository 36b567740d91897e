//! Per-core hotspots on the HotSpot-style grid backend, and the
//! hotspot-aware core-count throttle.
//!
//! A lumped RC model reports one junction temperature, so all 16
//! sprinting cores look equally hot. The grid backend maps each core's
//! power onto the die cells it occupies: center cores, surrounded by
//! other hot cores, run several degrees hotter than edge cores, and the
//! *hottest cell* — not the die average — is what first reaches the
//! 70 C limit. This example sprints the same 16-thread sobel burst
//! twice on the grid:
//!
//! * **hard abort** (the paper's controller): the sprint runs full
//!   width until the hotspot trips the thermal failsafe;
//! * **shed-cores** (`HotspotPolicy::ShedCores`): the controller sheds
//!   sprinting cores as hotspot headroom shrinks, trading width for a
//!   longer sprint and an earlier finish.
//!
//! A third run repeats the shed-cores sprint on a 32x32 grid with the
//! semi-implicit ADI solver — a resolution where the explicit solver
//! would spend minutes sub-stepping — to show the per-core temperature
//! map sharpening as cells stop averaging over quarter-core areas.
//!
//! Run with: `cargo run --release --example grid_hotspot`

use computational_sprinting::prelude::*;

/// Thermal time compression (the same trick as the paper's 1.5 mg
/// configuration) so the run takes milliseconds of simulated time.
const COMPRESS: f64 = 600.0;

fn run(policy: HotspotPolicy) -> (RunReport, GridThermal) {
    run_on(policy, GridThermalParams::hpca_like())
}

fn run_on(policy: HotspotPolicy, thermal: GridThermalParams) -> (RunReport, GridThermal) {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.hotspot = policy;
    let mut session = ScenarioBuilder::new()
        .machine(MachineConfig::hpca())
        .load(suite_loader(WorkloadKind::Sobel, InputSize::C, 16))
        .thermal(thermal.time_scaled(COMPRESS).build())
        .config(cfg)
        .trace_capacity(0)
        .build();
    session.run_to_completion();
    (session.report(), session.thermal().clone())
}

fn main() {
    let (abort, grid) = run(HotspotPolicy::HardAbort);

    println!("peak per-core temperature map (hard abort, 4x4 floorplan):");
    let temps = grid.peak_core_temps_c();
    for row in (0..4).rev() {
        let cells: Vec<String> = (0..4)
            .map(|col| format!("{:6.1}", temps[row * 4 + col]))
            .collect();
        println!("    {}", cells.join(" "));
    }
    let hottest = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let coolest = temps.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "    hottest core {hottest:.1} C, coolest {coolest:.1} C -> per-core spread {:.1} K",
        hottest - coolest
    );
    println!(
        "    peak die gradient {:.1} K (a lumped model reports exactly one temperature)",
        grid.peak_hotspot_gradient_k()
    );
    println!();

    let (shed, _) = run(HotspotPolicy::ShedCores {
        start_headroom_k: 3.0,
        min_cores: 4,
    });
    let end_of = |r: &RunReport| r.sprint_end_s.unwrap_or(r.completion_s) * 1e3;
    let sheds = shed
        .events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::HotspotShed { .. }))
        .count();
    println!("policy       sprint-end    completion    max junction");
    println!(
        "hard abort  {:>8.2} ms  {:>9.2} ms  {:>11.1} C",
        end_of(&abort),
        abort.completion_s * 1e3,
        abort.max_junction_c
    );
    println!(
        "shed cores  {:>8.2} ms  {:>9.2} ms  {:>11.1} C   ({sheds} shed events)",
        end_of(&shed),
        shed.completion_s * 1e3,
        shed.max_junction_c
    );
    println!();
    println!(
        "the hotspot ends the full-width sprint at {:.2} ms; shedding cores as the",
        end_of(&abort)
    );
    println!(
        "hottest cell nears Tmax stretches the sprint {:.1}x and finishes {:.1}x sooner.",
        end_of(&shed) / end_of(&abort),
        abort.completion_s / shed.completion_s
    );

    // The same shed-cores sprint at 32x32 with the semi-implicit ADI
    // solver: 16x the cells of the 8x8 default, yet the sub-step stays
    // pinned to the (resolution-independent) vertical time constant.
    let (fine, fine_grid) = run_on(
        HotspotPolicy::ShedCores {
            start_headroom_k: 3.0,
            min_cores: 4,
        },
        GridThermalParams::hpca_like()
            .with_grid(32, 32)
            .with_solver(GridSolver::Adi),
    );
    println!();
    println!("fine grid (32x32, ADI solver) peak per-core map, shed-cores policy:");
    let temps = fine_grid.peak_core_temps_c();
    for row in (0..4).rev() {
        let cells: Vec<String> = (0..4)
            .map(|col| format!("{:6.1}", temps[row * 4 + col]))
            .collect();
        println!("    {}", cells.join(" "));
    }
    println!(
        "    sprint end {:.2} ms, completion {:.2} ms, peak die gradient {:.1} K",
        end_of(&fine),
        fine.completion_s * 1e3,
        fine_grid.peak_hotspot_gradient_k()
    );
    println!(
        "    (8x8 cells average ~quarter-core areas; at 32x32 the gradient sharpens\n     from {:.1} K to {:.1} K while the ADI sub-step stays {:.0}x the explicit bound)",
        grid.peak_hotspot_gradient_k(),
        fine_grid.peak_hotspot_gradient_k(),
        fine_grid.adi_sub_step_s() / fine_grid.sub_step_s()
    );
}
