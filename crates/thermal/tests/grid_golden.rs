//! Golden-trace regression test for the grid solver, mirroring the
//! workloads golden table: a small fixed grid driven by a fixed power
//! schedule must reproduce its checkpoint values exactly. The solver
//! uses only `f64` add/mul/div (no transcendentals), so the trace is
//! bit-stable across platforms; any diff here means the integration
//! scheme changed and intentional changes must update the table.

use sprint_thermal::floorplan::Floorplan;
use sprint_thermal::grid::{GridLayer, GridSolver, GridThermalParams, LayerPhase};

/// A 2x2, three-layer stack with one off-center core: small enough to
/// eyeball, asymmetric enough to exercise lateral conduction, melting
/// and the ambient sink.
fn golden_params() -> GridThermalParams {
    GridThermalParams {
        ambient_c: 25.0,
        t_max_c: 70.0,
        nx: 2,
        ny: 2,
        floorplan: Floorplan::new(1.0, 1.0).with_core("hot", 0.0, 0.0, 0.5, 0.5),
        layers: vec![
            GridLayer::sensible("die", 0.02, 10.0, 0.5),
            GridLayer::pcm(
                "pcm",
                0.08,
                50.0,
                20.0,
                LayerPhase {
                    melt_temp_c: 60.0,
                    latent_heat_j: 4.0,
                    liquid_capacity_j_per_k: 0.08,
                },
            ),
            GridLayer::sensible("spreader", 2.0, 5.0, 1.0),
        ],
        r_sink_ambient_k_per_w: 2.0,
        stability_fraction: 0.2,
        // The golden table pins the explicit scheme's bit pattern.
        solver: GridSolver::Explicit,
        adi_explicit_fallback: true,
    }
}

/// `(time_s, junction_c, mean_die_c, melt_fraction, absorbed_j)` after
/// each 0.25 s checkpoint of the schedule below.
const GOLDEN: [(f64, f64, f64, f64, f64); 6] = [
    (
        0.25,
        73.582292729242,
        52.403659639694,
        0.135994386714,
        0.003208818470,
    ),
    (
        0.50,
        101.127537524705,
        72.165086200404,
        0.295950942629,
        0.022746082938,
    ),
    (
        0.75,
        62.231253900441,
        60.304675020799,
        0.367293651013,
        0.068869680107,
    ),
    (
        1.00,
        59.926992104468,
        59.422650382400,
        0.280824801363,
        0.138856305012,
    ),
    (
        1.25,
        70.180148792125,
        63.014961319433,
        0.298866732067,
        0.230442375889,
    ),
    (
        1.50,
        71.652680686534,
        63.633961896890,
        0.359154952242,
        0.343413194087,
    ),
];

/// The fixed schedule: a 12 W burst, a rest, then a 3 W sustained tail.
fn power_at(t: f64) -> f64 {
    if t < 0.5 {
        12.0
    } else if t < 1.0 {
        0.0
    } else {
        3.0
    }
}

fn run_checkpoints() -> Vec<(f64, f64, f64, f64, f64)> {
    let mut g = golden_params().build();
    let mut out = Vec::new();
    for step in 0..6 {
        let t0 = step as f64 * 0.25;
        g.set_chip_power_w(power_at(t0));
        g.advance(0.25);
        out.push((
            g.time_s(),
            g.junction_temp_c(),
            g.mean_die_temp_c(),
            g.melt_fraction(),
            g.boundary_absorbed_j(),
        ));
    }
    out
}

#[test]
fn grid_golden_trace_is_stable() {
    for (got, want) in run_checkpoints().iter().zip(GOLDEN.iter()) {
        assert!(
            (got.0 - want.0).abs() < 1e-12
                && (got.1 - want.1).abs() < 1e-9
                && (got.2 - want.2).abs() < 1e-9
                && (got.3 - want.3).abs() < 1e-9
                && (got.4 - want.4).abs() < 1e-9,
            "checkpoint drifted:\n got {got:?}\nwant {want:?}"
        );
    }
}

/// Prints the table in source form — run with
/// `cargo test -p sprint-thermal --test grid_golden -- --ignored --nocapture`
/// after an intentional solver change, and paste the output over
/// `GOLDEN`.
#[test]
#[ignore]
fn regenerate_golden_table() {
    for c in run_checkpoints() {
        println!(
            "    ({:.2}, {:.12}, {:.12}, {:.12}, {:.12}),",
            c.0, c.1, c.2, c.3, c.4
        );
    }
}
