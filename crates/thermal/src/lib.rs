//! Thermal modelling for computational sprinting.
//!
//! This crate implements the thermal side of *Computational Sprinting*
//! (Raghavan et al., HPCA 2012): lumped thermal RC networks with
//! phase-change-material (PCM) nodes, the paper's smart-phone package model
//! (Figure 3), and the transient analyses behind Figure 4.
//!
//! Heat storage uses the *enthalpy method*: nodes store joules, and
//! temperature is a piecewise function of enthalpy. A PCM node therefore
//! exhibits an exact temperature plateau at its melting point while latent
//! heat is absorbed — precisely the behaviour sprinting exploits to buffer
//! an order-of-magnitude power overshoot for sub-second bursts.
//!
//! # Quick start
//!
//! ```
//! use sprint_thermal::phone::PhoneThermalParams;
//! use sprint_thermal::analysis::simulate_sprint;
//!
//! // The paper's design point: 150 mg PCM, 60 C melting point, 70 C limit.
//! let mut phone = PhoneThermalParams::hpca().build();
//! assert!(phone.max_sprint_power_w() >= 16.0);
//!
//! // Sprint at 16x the ~1 W TDP: lasts a little over one second.
//! let transient = simulate_sprint(&mut phone, 16.0, 0.002, 5.0);
//! let duration = transient.duration_s.unwrap();
//! assert!(duration > 1.0 && duration < 2.0);
//! ```
//!
//! # Lumped vs grid backends
//!
//! Two families of thermal backend live here, and both implement the
//! sprint loop's `ThermalModel` contract (in `sprint-core`):
//!
//! * **Lumped** ([`phone::PhoneThermal`], and `sprint-core`'s
//!   single-node `LumpedThermal`): a handful of RC nodes. Cheap, exactly
//!   integrable, and faithful to the paper's Figure 3 — but it reports a
//!   single junction temperature, so every core looks equally hot.
//!   Pick it for figure reproduction, design sweeps, and any scenario
//!   where package-level capacity is the question.
//! * **Grid** ([`grid::GridThermal`]): a HotSpot-style `nx x ny` cell
//!   grid per package layer (die / PCM / spreader), with per-core power
//!   mapped through a [`floorplan::Floorplan`]. Active cores form
//!   hotspots several degrees above the die mean, and the backend
//!   reports the *hottest cell* as the junction — so sprints abort (or
//!   shed cores, with the hotspot-aware controller policy) on local
//!   heating the lumped models cannot represent. Pick it when spatial
//!   questions matter: how many cores may sprint, which ones, and what
//!   the die gradient looks like. Two integration schemes are
//!   available ([`grid::GridSolver`]): the bit-stable explicit default,
//!   and a semi-implicit ADI solver whose sub-step does not shrink with
//!   the grid resolution — at 32x32 it is >10x faster at matched
//!   (<0.1 K) accuracy, which is what makes fine grids and rack-scale
//!   floorplans practical (PCM-free layers additionally reuse cached
//!   tridiagonal factorizations across sub-steps). See the "Choosing a
//!   solver" section of the [`grid`] module docs.
//!
//! The floorplan abstraction scales past a die: a *rack* is a floorplan
//! whose "cores" are servers over a shared-airflow plenum layer
//! ([`grid::GridThermalParams::rack`]), with per-region readouts
//! (`core_temp_c`, `region_sprint_budget_j`) so each server sees its
//! own silicon — the substrate `sprint-cluster` schedules against.
//!
//! The two agree by construction where they overlap: a 1x1-cell-per-layer
//! grid reproduces the lumped chain (see
//! [`grid::GridThermalParams::phone_equivalent`]).
//!
//! # Modules
//!
//! * [`material`] — thermophysical property database (Cu, Al, icosane, the
//!   paper's reference PCM) and block-sizing helpers.
//! * [`node`] — enthalpy-method storage nodes with optional phase change.
//! * [`circuit`] — thermal RC networks with steady-state solving.
//! * [`solver`] — stable explicit transient integration.
//! * [`phone`] — the Figure 3 smart-phone model with PCM.
//! * [`floorplan`] — core rectangles rasterized onto cell grids.
//! * [`grid`] — the HotSpot-style multi-layer grid backend.
//! * [`analysis`] — sprint and cooldown transients (Figure 4).
//! * [`trace`] — time-series recording.
//! * [`tridiag`] — the O(n) Thomas solver behind the ADI sweeps,
//!   including the cached shared and per-line factorizations they
//!   replay.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod circuit;
pub mod floorplan;
pub mod grid;
pub mod material;
pub mod node;
pub mod phone;
pub mod solver;
pub mod trace;
pub mod tridiag;

pub use analysis::{
    cooldown_rule_of_thumb_s, pcm_mass_for_sprint_g, simulate_cooldown, simulate_sprint,
    CooldownTransient, SprintTransient,
};
pub use circuit::{NodeId, ThermalNetwork};
pub use floorplan::{CoreRect, Floorplan};
pub use grid::{GridLayer, GridSolver, GridThermal, GridThermalParams, LayerPhase};
pub use material::Material;
pub use node::{PhaseChange, StorageNode};
pub use phone::{BoardPath, PhoneThermal, PhoneThermalParams};
pub use solver::TransientSolver;
pub use trace::{Trace, TracePoint};
pub use tridiag::Tridiag;
