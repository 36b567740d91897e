//! Property-based tests for the grid solver's core invariants: exact
//! energy conservation, monotone relaxation toward ambient, and
//! agreement with the analytic lumped chain for uniform grids.

use proptest::prelude::*;
use sprint_thermal::floorplan::Floorplan;
use sprint_thermal::grid::{GridLayer, GridSolver, GridThermalParams};

/// A randomly-sized sensible three-layer stack with a full-die core:
/// uniform power, so the grid must behave exactly like the series chain.
fn uniform_stack(
    caps: &[f64; 3],
    res: &[f64; 3],
    sink_r: f64,
    lateral_r_sq: f64,
    nx: usize,
    ny: usize,
) -> GridThermalParams {
    GridThermalParams {
        ambient_c: 25.0,
        t_max_c: 200.0,
        nx,
        ny,
        floorplan: Floorplan::full_die(),
        layers: vec![
            GridLayer::sensible("die", caps[0], lateral_r_sq, res[0]),
            GridLayer::sensible("mid", caps[1], lateral_r_sq, res[1]),
            GridLayer::sensible("sink", caps[2], lateral_r_sq, res[2]),
        ],
        r_sink_ambient_k_per_w: sink_r,
        stability_fraction: 0.2,
        solver: GridSolver::Explicit,
        adi_explicit_fallback: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: injected energy equals the change in stored
    /// enthalpy plus what the ambient absorbed, for arbitrary powers,
    /// durations, grid resolutions and active-core counts on the
    /// full hpca-like stack (PCM included).
    #[test]
    fn grid_conserves_energy(
        power in 0.0f64..24.0,
        duration in 0.05f64..0.3,
        nx in 2usize..7,
        ny in 2usize..7,
        active in 1usize..17,
    ) {
        let mut g = GridThermalParams::hpca_like().with_grid(nx, ny).build();
        let e0 = g.total_stored_enthalpy_j();
        g.set_active_cores(active);
        g.set_chip_power_w(power);
        g.advance(duration);
        let injected = power * duration;
        let stored = g.total_stored_enthalpy_j() - e0;
        let absorbed = g.boundary_absorbed_j();
        prop_assert!(
            (stored + absorbed - injected).abs() <= 1e-8 * injected.max(1.0),
            "stored {stored} + absorbed {absorbed} != injected {injected}"
        );
    }

    /// With zero power, the hottest deviation from ambient decays
    /// monotonically — sub-stepped explicit integration must never
    /// overshoot or oscillate, even through a PCM refreeze plateau.
    #[test]
    fn grid_relaxes_monotonically_to_ambient(
        heat_power in 4.0f64..20.0,
        heat_time in 0.1f64..0.8,
    ) {
        let mut g = GridThermalParams::hpca_like().with_grid(4, 4).build();
        g.set_chip_power_w(heat_power);
        g.advance(heat_time);
        g.set_chip_power_w(0.0);
        let deviation = |g: &sprint_thermal::grid::GridThermal| {
            let mut worst = 0.0f64;
            for layer in 0..g.layer_count() {
                for y in 0..g.params().ny {
                    for x in 0..g.params().nx {
                        worst = worst.max((g.cell_temp_c(layer, x, y) - 25.0).abs());
                    }
                }
            }
            worst
        };
        let mut prev = deviation(&g);
        for _ in 0..15 {
            g.advance(0.2);
            let now = deviation(&g);
            prop_assert!(
                now <= prev + 1e-9,
                "deviation must not grow with zero power: {now} after {prev}"
            );
            prev = now;
        }
    }

    /// The ADI solver shares the explicit scheme's conservation
    /// invariant bit-for-bit in spirit: its enthalpy updates are
    /// antisymmetric post-sweep fluxes, so injected == stored +
    /// absorbed to roundoff for arbitrary powers, durations, grids and
    /// active-core counts — even mid-melt.
    #[test]
    fn adi_grid_conserves_energy(
        power in 0.0f64..24.0,
        duration in 0.05f64..0.3,
        nx in 2usize..7,
        ny in 2usize..7,
        active in 1usize..17,
    ) {
        let mut g = GridThermalParams::hpca_like()
            .with_grid(nx, ny)
            .with_solver(GridSolver::Adi)
            .build();
        let e0 = g.total_stored_enthalpy_j();
        g.set_active_cores(active);
        g.set_chip_power_w(power);
        g.advance(duration);
        let injected = power * duration;
        let stored = g.total_stored_enthalpy_j() - e0;
        let absorbed = g.boundary_absorbed_j();
        prop_assert!(
            (stored + absorbed - injected).abs() <= 1e-8 * injected.max(1.0),
            "stored {stored} + absorbed {absorbed} != injected {injected}"
        );
    }

    /// Backward-Euler factors are L-stable: with zero power the ADI
    /// solver must relax monotonically too, plateau refreeze included,
    /// despite taking sub-steps far beyond the explicit bound.
    #[test]
    fn adi_grid_relaxes_monotonically_to_ambient(
        heat_power in 4.0f64..20.0,
        heat_time in 0.1f64..0.8,
    ) {
        let mut g = GridThermalParams::hpca_like()
            .with_grid(4, 4)
            .with_solver(GridSolver::Adi)
            .build();
        g.set_chip_power_w(heat_power);
        g.advance(heat_time);
        g.set_chip_power_w(0.0);
        let deviation = |g: &sprint_thermal::grid::GridThermal| {
            let mut worst = 0.0f64;
            for layer in 0..g.layer_count() {
                for y in 0..g.params().ny {
                    for x in 0..g.params().nx {
                        worst = worst.max((g.cell_temp_c(layer, x, y) - 25.0).abs());
                    }
                }
            }
            worst
        };
        let mut prev = deviation(&g);
        for _ in 0..15 {
            g.advance(0.2);
            let now = deviation(&g);
            prop_assert!(
                now <= prev + 1e-9,
                "deviation must not grow with zero power: {now} after {prev}"
            );
            prev = now;
        }
    }

    /// A uniformly-powered grid settles at the analytic lumped steady
    /// state `ambient + P * (R1 + R2 + R3 + Rsink)` within 1%, at any
    /// resolution and lateral conductivity.
    #[test]
    fn uniform_grid_matches_lumped_steady_state(
        power in 0.5f64..4.0,
        c1 in 0.05f64..0.3,
        c2 in 0.05f64..0.3,
        c3 in 0.05f64..0.3,
        r1 in 0.5f64..2.0,
        r2 in 0.5f64..2.0,
        r3 in 0.5f64..2.0,
        lateral in 1.0f64..50.0,
        nx in 1usize..4,
        ny in 1usize..4,
    ) {
        let caps = [c1, c2, c3];
        let res = [r1, r2, 1.0]; // last layer's r_to_next is unused
        let params = uniform_stack(&caps, &res, r3, lateral, nx, ny);
        let series = params.series_resistance_k_per_w();
        prop_assert!((series - (r1 + r2 + r3)).abs() < 1e-12);
        let mut g = params.build();
        g.set_chip_power_w(power);
        // ~12x the slowest possible time constant: fully settled.
        let tau_bound: f64 = (c1 + c2 + c3) * (r1 + r2 + r3);
        g.advance(12.0 * tau_bound);
        let expected = 25.0 + power * series;
        let got = g.junction_temp_c();
        prop_assert!(
            (got - expected).abs() <= 0.01 * (expected - 25.0),
            "steady state {got:.4} vs analytic {expected:.4}"
        );
        // Uniform power leaves no gradient at all.
        prop_assert!(g.hotspot_gradient_k() < 1e-6);
    }
}
