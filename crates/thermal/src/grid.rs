//! HotSpot-style multi-layer grid thermal backend.
//!
//! Where [`crate::phone`] lumps the whole package into a handful of RC
//! nodes, [`GridThermal`] discretizes each package layer (die, PCM,
//! spreader, ...) into an `nx x ny` cell grid. Per-core power from a
//! [`Floorplan`] is injected into the die
//! cells it overlaps, conducts laterally within layers and vertically
//! between them, and finally convects from the last layer to the
//! ambient. The payoff is *where* heat accumulates: active cores form
//! hotspots several degrees above the die average, so the hottest cell —
//! not the mean — is what gates a sprint.
//!
//! Cells store enthalpy (the same enthalpy method as [`crate::node`]),
//! so a PCM layer exhibits an exact per-cell melting plateau and energy
//! conservation holds to floating-point roundoff.
//!
//! # Choosing a solver
//!
//! Two integration schemes share the same state, power map, heat
//! operator and invariants; pick one with [`GridThermalParams::solver`]:
//!
//! * [`GridSolver::Explicit`] (the default) — forward Euler with
//!   automatic sub-stepping: the step size is bounded by a fraction of
//!   the smallest cell RC constant, computed once at build time (layer
//!   structure cannot change afterwards). Every arithmetic operation is
//!   plain `f64` add/mul — no transcendentals — so traces are
//!   bit-reproducible across platforms, which the golden-trace test
//!   relies on. **Explicit is required whenever bit-stable traces
//!   matter** (golden tables, cross-platform regression baselines).
//!   Its cost is the catch: the stability sub-step shrinks with the
//!   *cell* time constant, so refining an `n x n` die grid multiplies
//!   both the cell count (`n^2`) and the sub-step count (`~n^2`) —
//!   `O(n^4)` work overall. Fine at 8x8; painful at 32x32; hopeless for
//!   a rack-as-floorplan grid.
//!
//! * [`GridSolver::Adi`] — a semi-implicit operator-split scheme
//!   (alternating-direction implicit): each sub-step sweeps die rows,
//!   then columns, then the vertical layer stacks, solving one
//!   tridiagonal system per line with the O(n) Thomas solver
//!   ([`crate::tridiag`]). Implicit sweeps are unconditionally stable,
//!   so the sub-step is bounded by the fastest *layer-to-layer*
//!   (vertical) time constant — which is independent of the grid
//!   resolution — instead of the lateral cell constant. The PCM
//!   nonlinearity is handled by a per-step phase-state linearization:
//!   each cell's phase branch (solid / melting plateau / liquid) is
//!   frozen at sub-step entry — plateau cells become fixed-temperature
//!   rows, the others use their branch capacity — and enthalpy is then
//!   corrected from the post-sweep edge fluxes, which are antisymmetric
//!   by construction, so *exact* energy conservation survives (the same
//!   invariant the explicit property tests pin). Accuracy tracks the
//!   explicit solver to well under 0.1 K on sprint-and-rest cycles
//!   (see `tests/grid_adi.rs`) while taking sub-steps 10-200x larger,
//!   which is a >10x wall-clock win at 32x32 and grows with resolution
//!   (`perfbench` records the trajectory in `BENCH_grid.json`).
//!   Prefer it for fine grids (16x16 and up), long scenarios, and
//!   rack-scale floorplans; its traces are deterministic but *not*
//!   bit-identical to the explicit solver's.
//!
//! ## The operator
//!
//! Both schemes evaluate the full heat operator the same way: each cell
//! *gathers* its power, the vertical inflow from the layer above, its
//! lateral exchanges (y-in, x-in, x-out, y-out), the vertical outflow
//! and, on the last layer, the sink to ambient. A layer plane takes
//! three unit-stride passes of plain indexed loops: the inflows, the x
//! exchanges row by row, and the outflows fused with the enthalpy
//! update.
//! Every exchange is the antisymmetric flux of one neighbour pair, so
//! energy is conserved exactly, and the fixed term order makes the
//! sums round identically to an edge list scattered in row-major order
//! (the in-module tests keep that scatter as the reference).
//!
//! ## The ADI engine
//!
//! One serial sub-step serves every grid. Each sweep is hundreds of
//! independent lines (rows, columns, vertical stacks) solved side by
//! side, every lane performing the per-line Thomas arithmetic in the
//! per-line order, so a sweep is bit-identical to solving its lines one
//! at a time. Nothing is eliminated from scratch per sub-step: the
//! Thomas factors are cached across sub-steps, keyed on the sub-step
//! size (a new size refactors everything).
//!
//! * A PCM-free layer's rows (or columns) all solve the same system, so
//!   one shared [`TridiagFactor`] serves the layer; on a PCM-free grid
//!   the same holds for every vertical stack.
//! * The rows and columns of a PCM layer, and every stack of a grid
//!   with PCM, keep one factorization per line (`TridiagLanes`). A
//!   line is refactored only when a cell on it changed phase branch
//!   since the line was factored, so a sub-step in which no cell
//!   crosses a branch boundary assembles and divides nothing.
//!
//! A grid without PCM therefore carries no per-line factors at all.
//!
//! ## Automatic explicit fallback
//!
//! An ADI sub-step costs several explicit sub-steps' worth of work
//! (operator evaluation plus three sweeps). On coarse or strongly
//! time-compressed grids the explicit stability bound can be so close
//! to the ADI accuracy bound that implicit sweeps are pure overhead, so
//! when [`GridThermalParams::adi_explicit_fallback`] is on (the
//! default), a window whose explicit sub-step count is within
//! [`ADI_FALLBACK_COST_RATIO`]x of its ADI sub-step count integrates
//! explicitly instead — per `advance` call, from the same state, with
//! the same invariants. Disable it to pin the ADI path itself (as the
//! solver-equivalence tests do).

use serde::{Deserialize, Serialize};

use crate::floorplan::Floorplan;
use crate::phone::PhoneThermalParams;
use crate::tridiag::{LineLayout, TridiagFactor, TridiagLanes};

/// Integration scheme for a [`GridThermal`] backend. See the
/// [module docs](self) for the accuracy/cost trade-off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridSolver {
    /// Forward Euler, sub-stepped to the smallest cell RC constant.
    /// Bit-stable traces; `O(cells x substeps)` cost that grows as
    /// `n^4` with grid refinement. The default.
    #[default]
    Explicit,
    /// Semi-implicit ADI: row/column/stack Thomas sweeps with per-step
    /// phase-state linearization. Unconditionally stable, sub-step set
    /// by the resolution-independent vertical time constant; exactly
    /// energy-conserving but not bit-identical to `Explicit`.
    Adi,
}

/// Phase-change parameters of a grid layer (totals for the whole layer;
/// distributed over cells by area).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerPhase {
    /// Melting temperature, Celsius.
    pub melt_temp_c: f64,
    /// Total latent heat of the layer, joules.
    pub latent_heat_j: f64,
    /// Total sensible capacity of the liquid phase, J/K.
    pub liquid_capacity_j_per_k: f64,
}

/// One package layer of the grid stack, top (die) downwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridLayer {
    /// Layer name (used in accessors and error messages).
    pub name: String,
    /// Total (solid-phase) sensible heat capacity of the layer, J/K.
    pub capacity_j_per_k: f64,
    /// Lateral sheet resistance, K/W per square (`1 / (k * thickness)`).
    /// `f64::INFINITY` disables lateral conduction in this layer.
    pub lateral_r_square_k_per_w: f64,
    /// Interface resistance from this layer to the next, K/W across the
    /// whole die area (ignored for the last layer, which couples to the
    /// ambient through the sink resistance instead).
    pub r_to_next_k_per_w: f64,
    /// Optional phase change (a PCM layer).
    pub phase_change: Option<LayerPhase>,
}

impl GridLayer {
    /// A sensible-only layer.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacity or resistances.
    pub fn sensible(
        name: impl Into<String>,
        capacity_j_per_k: f64,
        lateral_r_square_k_per_w: f64,
        r_to_next_k_per_w: f64,
    ) -> Self {
        let layer = Self {
            name: name.into(),
            capacity_j_per_k,
            lateral_r_square_k_per_w,
            r_to_next_k_per_w,
            phase_change: None,
        };
        layer.validate();
        layer
    }

    /// A phase-change layer.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacities, latent heat or resistances.
    pub fn pcm(
        name: impl Into<String>,
        capacity_j_per_k: f64,
        lateral_r_square_k_per_w: f64,
        r_to_next_k_per_w: f64,
        phase: LayerPhase,
    ) -> Self {
        let layer = Self {
            name: name.into(),
            capacity_j_per_k,
            lateral_r_square_k_per_w,
            r_to_next_k_per_w,
            phase_change: Some(phase),
        };
        layer.validate();
        layer
    }

    fn validate(&self) {
        assert!(
            self.capacity_j_per_k.is_finite() && self.capacity_j_per_k > 0.0,
            "layer capacity must be positive"
        );
        assert!(
            self.lateral_r_square_k_per_w > 0.0,
            "lateral resistance must be positive (INFINITY to disable)"
        );
        assert!(
            self.r_to_next_k_per_w.is_finite() && self.r_to_next_k_per_w > 0.0,
            "interface resistance must be positive"
        );
        if let Some(pc) = &self.phase_change {
            assert!(pc.latent_heat_j > 0.0, "latent heat must be positive");
            assert!(
                pc.liquid_capacity_j_per_k > 0.0,
                "liquid capacity must be positive"
            );
        }
    }
}

/// Full parameter set for a [`GridThermal`] backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridThermalParams {
    /// Ambient temperature, Celsius.
    pub ambient_c: f64,
    /// Maximum safe cell temperature, Celsius.
    pub t_max_c: f64,
    /// Grid cells along the die width.
    pub nx: usize,
    /// Grid cells along the die height.
    pub ny: usize,
    /// Core placement (power injection map for the die layer).
    pub floorplan: Floorplan,
    /// Package layers, die first. The die layer (index 0) receives the
    /// chip power; the last layer couples to ambient.
    pub layers: Vec<GridLayer>,
    /// Convection resistance from the last layer to ambient, K/W across
    /// the whole area.
    pub r_sink_ambient_k_per_w: f64,
    /// Sub-step bound as a fraction of the smallest cell RC constant.
    /// The ADI solver applies the same fraction to its (much larger)
    /// vertical time constant, so it doubles as the accuracy knob.
    pub stability_fraction: f64,
    /// Integration scheme (see the module docs' "Choosing a solver").
    pub solver: GridSolver,
    /// Let a window whose explicit sub-step count is within
    /// [`ADI_FALLBACK_COST_RATIO`]x of its ADI sub-step count integrate
    /// explicitly even under [`GridSolver::Adi`] (on by default; see
    /// the module docs' "Automatic explicit fallback"). Disable to pin
    /// the ADI path itself regardless of cost.
    pub adi_explicit_fallback: bool,
}

impl GridThermalParams {
    /// A grid re-provisioning of the paper's phone package: the same
    /// junction/PCM/case capacities and series resistances as
    /// [`PhoneThermalParams::hpca`] (without the secondary board path),
    /// but with the die split into cells over a 4x4 core floorplan. TDP
    /// and sprint budget are near the lumped design's; what changes is
    /// that active cores form hotspots ~5-10 C above the die mean, so
    /// the hottest cell hits the 70 C limit during a 16 W sprint even
    /// though the *average* junction stays comfortably below it.
    ///
    /// Hotspot timescales at 1 W/core (uncompressed): 16 active cores
    /// reach the limit in ~0.75 s — well before the lumped package's
    /// ~1.1 s budget — while 8 cores last ~1.3 s and 4 cores ~3 s, so a
    /// core-count throttle genuinely stretches the sprint.
    pub fn hpca_like() -> Self {
        Self {
            ambient_c: 25.0,
            t_max_c: 70.0,
            nx: 8,
            ny: 8,
            floorplan: Floorplan::regular_array(4, 4, 0.72, 0.8),
            layers: vec![
                // Die: the junction lump of the phone model, now spatial.
                // Lateral sheet resistance ~= 1/(k_si * t_die).
                GridLayer::sensible("die", 0.01, 8.0, 0.35),
                // PCM: metal-foam-infiltrated composite (the paper's
                // Section 4.4 encapsulation), so lateral conduction
                // redistributes a hot core's heat into neighbouring
                // still-frozen PCM; the interface to the case remains
                // the dominant cooling resistance.
                GridLayer::pcm(
                    "pcm",
                    0.042,
                    300.0,
                    38.0,
                    LayerPhase {
                        melt_temp_c: 60.0,
                        latent_heat_j: 14.0,
                        liquid_capacity_j_per_k: 0.042,
                    },
                ),
                // Spreader/case: copper-class lateral spreading.
                GridLayer::sensible("spreader", 50.0, 2.0, 1.0),
            ],
            r_sink_ambient_k_per_w: 1.0,
            stability_fraction: 0.2,
            solver: GridSolver::Explicit,
            adi_explicit_fallback: true,
        }
    }

    /// A 1x1-cell-per-layer grid equivalent of a (board-less) phone
    /// package: die = junction lump, PCM block, spreader = case, with
    /// the same capacities and series resistances. Used to validate the
    /// grid solver against the lumped reference — both must track the
    /// same junction trajectory. The secondary board path (if present in
    /// `phone`) is not modelled; compare against a `board_path: None`
    /// build.
    ///
    /// # Panics
    ///
    /// Panics if `phone` has no PCM (the grid stack expects the
    /// three-layer chain) or a PCM material without a melting point.
    pub fn phone_equivalent(phone: &PhoneThermalParams) -> Self {
        assert!(
            phone.pcm_mass_g > 0.0,
            "phone_equivalent needs the PCM layer"
        );
        let melt = phone
            .pcm_material
            .melting_point_c()
            .expect("PCM material must have a melting point");
        let sensible = phone
            .pcm_material
            .block_heat_capacity_j_per_k(phone.pcm_mass_g);
        let latent = phone.pcm_material.block_latent_heat_j(phone.pcm_mass_g);
        Self {
            ambient_c: phone.ambient_c,
            t_max_c: phone.t_max_c,
            nx: 1,
            ny: 1,
            floorplan: Floorplan::full_die(),
            layers: vec![
                GridLayer::sensible(
                    "die",
                    phone.junction_capacity_j_per_k,
                    f64::INFINITY,
                    phone.r_junction_pcm_k_per_w,
                ),
                GridLayer::pcm(
                    "pcm",
                    sensible,
                    f64::INFINITY,
                    phone.r_pcm_case_k_per_w,
                    LayerPhase {
                        melt_temp_c: melt,
                        latent_heat_j: latent,
                        liquid_capacity_j_per_k: sensible,
                    },
                ),
                GridLayer::sensible("spreader", phone.case_capacity_j_per_k, f64::INFINITY, 1.0),
            ],
            r_sink_ambient_k_per_w: phone.r_case_ambient_k_per_w,
            // Tight sub-steps: this configuration exists to be compared
            // against the exactly-integrated lumped reference.
            stability_fraction: 0.05,
            solver: GridSolver::Explicit,
            adi_explicit_fallback: true,
        }
    }

    /// A rack-as-floorplan grid: `cols x rows` *servers* (one floorplan
    /// "core" rectangle per node) over a shared-airflow plenum layer —
    /// the data-center generalization of the die model (Porto et al.'s
    /// "fast, but not so furious" sprinting regime). Heat leaves each
    /// node vertically into the plenum, mixes laterally there (strong
    /// lateral conduction stands in for airflow recirculation), and
    /// convects to the CRAC ambient through the sink resistance.
    ///
    /// The design point assumes paper-like nodes: ~1 W sustained and
    /// ~16 W sprinting per server. Capacities are deliberately small
    /// (a behavioural rack, not a physical one) so node sprints exhaust
    /// on the paper's timescales: per-node sprint budget ≈ 30 J, node
    /// time constant ≈ 0.4 s, rack (plenum) time constant ≈ 10 s. The
    /// sizing scales with the node count — a lone sprinter barely
    /// registers (junction ≈ 45 C), a third of the rack sprinting
    /// approaches the 70 C limit, and the whole rack sprinting drives
    /// the steady state far past it (thermal collapse) — which is
    /// exactly the contention a cluster-level admission policy manages.
    ///
    /// Defaults: 8x8 cells per node (so a 4x4 rack is a 32x32 grid) and
    /// the ADI solver — the stack has no PCM, so every ADI line factor
    /// is cached and the sub-step is resolution-independent; explicit
    /// sub-stepping at rack resolutions is exactly the cost the solver
    /// work removed. Override with [`Self::with_grid`] /
    /// [`Self::with_solver`] where a scenario needs to.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` and `rows` are at least 1.
    pub fn rack(cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "rack needs at least one server");
        let nodes = (cols * rows) as f64;
        // Server rectangles nearly tile the rack footprint.
        let (span, fill) = (0.96, 0.82);
        let coverage = (span * fill) * (span * fill);
        // Per-node constants of the design point (see the doc comment).
        // The plenum is deliberately light: airflow carries little
        // thermal mass, so the shared layer *reacts* on sprint
        // timescales — load up the rack and every node's inlet warms
        // within a burst, which is what makes unmanaged all-node
        // sprinting overshoot into the failsafe instead of being
        // quietly absorbed.
        let server_c_j_per_k = 1.0 * nodes;
        let plenum_c_j_per_k = 0.5 * nodes;
        // Whole-area server->plenum resistance giving each node a local
        // vertical resistance of ~0.6 K/W through its own footprint.
        let r_server_plenum = 0.6 * coverage / nodes;
        // Sink sized so the rack sustains ~8 W per node at the limit:
        // all-sustained (1 W/node) idles ~30 C, a quarter of the rack
        // sprinting runs warm, the whole rack sprinting collapses.
        let r_sink = 45.0 / (8.0 * nodes);
        Self {
            ambient_c: 25.0,
            t_max_c: 70.0,
            nx: 8 * cols,
            ny: 8 * rows,
            floorplan: Floorplan::regular_array(cols, rows, span, fill),
            layers: vec![
                // Servers: chassis + heatsink mass, nearly isolated
                // laterally (conduction between neighbouring chassis
                // is negligible next to the airflow path).
                GridLayer::sensible("servers", server_c_j_per_k, 50.0, r_server_plenum),
                // Plenum: shared airflow; strong lateral mixing.
                GridLayer::sensible("plenum", plenum_c_j_per_k, 0.1, 1.0),
            ],
            r_sink_ambient_k_per_w: r_sink,
            stability_fraction: 0.2,
            solver: GridSolver::Adi,
            adi_explicit_fallback: true,
        }
    }

    /// Sets the grid resolution (builder style).
    pub fn with_grid(mut self, nx: usize, ny: usize) -> Self {
        self.nx = nx;
        self.ny = ny;
        self
    }

    /// Swaps the floorplan (builder style).
    pub fn with_floorplan(mut self, floorplan: Floorplan) -> Self {
        self.floorplan = floorplan;
        self
    }

    /// Selects the integration scheme (builder style).
    pub fn with_solver(mut self, solver: GridSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Enables or disables the automatic explicit fallback for cheap
    /// windows (builder style); see [`Self::adi_explicit_fallback`].
    pub fn with_adi_fallback(mut self, enabled: bool) -> Self {
        self.adi_explicit_fallback = enabled;
        self
    }

    /// Compresses every thermal time constant by `factor` by dividing
    /// all heat capacities and latent heats by it — the same simulation
    /// trick as [`PhoneThermalParams::time_scaled`]. Steady-state
    /// temperatures and TDP are unchanged; transients shrink by exactly
    /// `factor`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is strictly positive and finite.
    pub fn time_scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        for layer in &mut self.layers {
            layer.capacity_j_per_k /= factor;
            if let Some(pc) = &mut layer.phase_change {
                pc.latent_heat_j /= factor;
                pc.liquid_capacity_j_per_k /= factor;
            }
        }
        self
    }

    /// Validates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid/stack/floorplan, a limit at or below
    /// ambient, an ambient at or above a PCM melting point, or a
    /// stability fraction outside `(0, 0.5]`.
    pub fn validate(&self) {
        assert!(self.nx >= 1 && self.ny >= 1, "grid needs at least one cell");
        assert!(!self.layers.is_empty(), "stack needs at least one layer");
        assert!(
            self.floorplan.core_count() >= 1,
            "floorplan needs at least one core"
        );
        assert!(self.t_max_c > self.ambient_c, "limit must exceed ambient");
        assert!(
            self.r_sink_ambient_k_per_w.is_finite() && self.r_sink_ambient_k_per_w > 0.0,
            "sink resistance must be positive"
        );
        assert!(
            self.stability_fraction > 0.0 && self.stability_fraction <= 0.5,
            "stability fraction must be in (0, 0.5]"
        );
        for layer in &self.layers {
            layer.validate();
            if let Some(pc) = &layer.phase_change {
                assert!(
                    self.ambient_c < pc.melt_temp_c,
                    "ambient must be below the PCM melting point"
                );
            }
        }
    }

    /// Equivalent junction-to-ambient series resistance of the stack
    /// (valid for uniform power: interface resistances plus sink), K/W.
    pub fn series_resistance_k_per_w(&self) -> f64 {
        let interfaces: f64 = self.layers[..self.layers.len() - 1]
            .iter()
            .map(|l| l.r_to_next_k_per_w)
            .sum();
        interfaces + self.r_sink_ambient_k_per_w
    }

    /// Builds the backend with every cell at ambient temperature.
    pub fn build(self) -> GridThermal {
        GridThermal::new(self)
    }
}

/// Implicitness weight of the ADI theta scheme. `1/2` is the
/// trapezoidal (Crank-Nicolson) limit — second-order accurate but with
/// zero damping of unresolved stiff modes; backing off slightly buys
/// L-stable-like damping (amplification `-(1-θ)/θ` as `dt/τ -> ∞`)
/// while keeping the first-order error term `(θ - 1/2) dt` an order of
/// magnitude below backward Euler's. The sprint-cycle equivalence tests
/// pin the resulting accuracy.
const ADI_THETA: f64 = 0.55;

/// Cost of one ADI sub-step in explicit sub-steps: a full operator
/// evaluation (= one explicit step) plus three batched sweeps, each a
/// few passes over the grid. With [`GridThermalParams::
/// adi_explicit_fallback`] on, an `advance` window integrates
/// explicitly whenever its explicit sub-step count is within this
/// ratio of its ADI count — i.e. whenever implicit sweeps cannot pay
/// for themselves. Coarse, heavily time-compressed racks (the
/// event-core perf case: explicit/ADI step ratio ≈ 1.2) and lumped 1x1
/// chains (ratio 1) fall back; every die-scale case stays ADI (8x8 at
/// the perfbench window is ratio 11, a 16x16 is ratio 41). The
/// crossover is pinned by `tests/grid_adi.rs`.
pub const ADI_FALLBACK_COST_RATIO: f64 = 5.0;

/// Per-cell phase-change bookkeeping (copied from the owning layer with
/// per-cell totals).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CellPhase {
    melt_temp_c: f64,
    latent_heat_j: f64,
    liquid_capacity_j_per_k: f64,
}

/// What every cell of one layer shares (per-cell totals of the layer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CellLayer {
    /// Solid-phase sensible capacity per cell, J/K.
    capacity_j_per_k: f64,
    /// Phase change per cell (PCM layers only).
    phase: Option<CellPhase>,
}

/// The cached Thomas factors of one ADI sweep (a layer's rows or
/// columns, or the grid's vertical stacks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Sweep {
    /// No conduction along this axis: the implicit factor is the
    /// identity (`C w = rhs`, no exchange), so the sweep is skipped.
    Off,
    /// Every lane solves the same system (a PCM-free layer, or the
    /// stacks of a PCM-free grid): one factorization, replayed per lane
    /// in the given layout.
    Shared(TridiagFactor, LineLayout),
    /// Lanes differ because they cross PCM cells: one factorization per
    /// lane, and the lanes marked dirty since they were last factored.
    PerLane(TridiagLanes, Vec<bool>),
}

impl Sweep {
    /// The factors for `lanes` lines of `len` cells: none without
    /// conduction, per-lane ones when the lines cross PCM cells.
    fn new(conducts: bool, pcm: bool, len: usize, lanes: usize, layout: LineLayout) -> Self {
        if !conducts {
            Sweep::Off
        } else if pcm {
            Sweep::PerLane(TridiagLanes::new(len, lanes, layout), vec![false; lanes])
        } else {
            Sweep::Shared(TridiagFactor::default(), layout)
        }
    }

    /// Solves every lane of the sweep (`rhs` and `x` in its layout).
    fn solve(&self, rhs: &[f64], x: &mut [f64]) {
        match self {
            Sweep::Off => {}
            Sweep::Shared(f, LineLayout::Contiguous) => f.solve_batch(rhs, x),
            Sweep::Shared(f, LineLayout::Interleaved) => {
                f.solve_planar(rhs, x, rhs.len() / f.len())
            }
            Sweep::PerLane(f, _) => f.solve(rhs, x),
        }
    }

    /// Marks per-lane factors of `lane` for refactoring.
    fn mark(&mut self, lane: usize) {
        if let Sweep::PerLane(_, dirty) = self {
            dirty[lane] = true;
        }
    }

    /// Refactors the sweep for a new sub-step size (`all`: every lane,
    /// the shared factor included) or just its dirty lanes.
    /// `coeffs(lane, k)` is row `k` of `lane`'s system.
    fn refactor(
        &mut self,
        all: bool,
        len: usize,
        coeffs: impl Fn(usize, usize) -> (f64, f64, f64),
    ) {
        match self {
            Sweep::Off => {}
            Sweep::Shared(f, _) => {
                if all {
                    let (mut sub, mut diag, mut sup) =
                        (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
                    for k in 0..len {
                        (sub[k], diag[k], sup[k]) = coeffs(0, k);
                    }
                    *f = TridiagFactor::new(&sub, &diag, &sup);
                }
            }
            Sweep::PerLane(f, dirty) => {
                for (lane, d) in dirty.iter_mut().enumerate() {
                    if all || *d {
                        f.factor_lane(lane, |k| coeffs(lane, k));
                        *d = false;
                    }
                }
            }
        }
    }
}

/// The ADI engine's factor cache (see the module docs' "The ADI
/// engine"). Keyed on the theta-weighted sub-step `wdt`: an `advance`
/// with a different window size refactors everything (a session's
/// window is constant, so in practice this happens once); otherwise
/// only lanes a phase-branch change dirtied are refactored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AdiFactors {
    /// The theta-weighted sub-step the factors were built for
    /// (0 = never built; `wdt` is always positive in use).
    wdt: f64,
    /// Per-layer row (x-direction) sweeps.
    rows: Vec<Sweep>,
    /// Per-layer column (y-direction) sweeps.
    cols: Vec<Sweep>,
    /// The vertical-stack sweep (it owns the ambient sink, so it always
    /// conducts).
    stack: Sweep,
    /// Some lane is marked dirty.
    dirty: bool,
}

/// The grid thermal backend. See the module docs for the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridThermal {
    params: GridThermalParams,
    cells_per_layer: usize,
    /// Enthalpy per cell (J, relative to 0 C), layer-major.
    enthalpy_j: Vec<f64>,
    /// Cell properties per layer.
    cell_layers: Vec<CellLayer>,
    /// Power injected per cell, W (die layer only).
    power_w: Vec<f64>,
    /// Per-core (cell, weight) lists on the die layer.
    core_cells: Vec<Vec<(usize, f64)>>,
    /// Per-layer x-neighbour conductance, W/K (0 = lateral disabled).
    lat_gx: Vec<f64>,
    /// Per-layer y-neighbour conductance, W/K (0 = lateral disabled).
    lat_gy: Vec<f64>,
    /// Per-cell vertical conductance across each layer interface, W/K.
    g_vert: Vec<f64>,
    /// Per-cell last-layer-to-ambient conductance, W/K.
    g_sink_cell: f64,
    /// Total chip power of a uniform split (`set_chip_power_w`, or an
    /// active-core change), watts. `None` once a per-core write changed
    /// the map: the total is then the sum of `core_power_w`, taken when
    /// read, so a rack's many per-node writes never re-sum the fleet.
    chip_power_w: Option<f64>,
    /// Per-core power, watts — the source of truth behind `power_w`.
    /// Written either uniformly (the `set_chip_power_w` split over
    /// `active_cores`) or individually (`set_core_power_w`, the rack
    /// path where every node carries its own load).
    core_power_w: Vec<f64>,
    /// `core_power_w` changed since `power_w` was last rebuilt; the
    /// rebuild happens once at the next `advance` (many rack nodes
    /// update their powers between two integrations — one rebuild
    /// serves them all).
    core_power_dirty: bool,
    active_cores: usize,
    sub_step_s: f64,
    adi_sub_step_s: f64,
    time_s: f64,
    boundary_absorbed_j: f64,
    peak_hotspot_gradient_k: f64,
    /// Hottest die cell after the last `advance` (or reset), Celsius.
    /// Enthalpy only changes inside `advance`/`reset_to_ambient`, so
    /// the cache is always current; it turns the per-window
    /// junction/headroom/limit queries of the sprint controller from
    /// O(cells) scans into loads.
    junction_cache_c: f64,
    /// Peak temperature seen per die cell, Celsius. A core's peak is
    /// the hottest of its footprint's cell peaks, folded on demand by
    /// [`Self::peak_core_temps_c`] (max commutes with max), so tracking
    /// costs one pass over the die cells however many cores share them.
    peak_cell_temps_c: Vec<f64>,
    scratch_temps: Vec<f64>,
    /// One layer plane of gathered operator terms, W.
    scratch_flows: Vec<f64>,
    /// Per-cell effective capacity of the phase branch the ADI factors
    /// were built for: the solid capacity off PCM layers, the branch
    /// capacity on them, 0 on the melting plateau (a fixed-temperature
    /// row). Also the multiplier that turns a sweep's increment `w`
    /// into the next sweep's right-hand side `C * w`.
    adi_ceff: Vec<f64>,
    /// ADI scratch: the Douglas-Gunn right-hand side carried between
    /// implicit factors (energy units, `C * w`).
    adi_rhs: Vec<f64>,
    /// ADI scratch: a whole plane (row/column sweep) or the whole grid
    /// (stack sweep) of increments from one batched solve.
    adi_plane: Vec<f64>,
    adi: AdiFactors,
}

impl GridThermal {
    /// Builds the grid from validated parameters, all cells at ambient.
    pub fn new(params: GridThermalParams) -> Self {
        params.validate();
        let (nx, ny) = (params.nx, params.ny);
        let cells = nx * ny;
        let n = cells * params.layers.len();
        let cell_layers: Vec<CellLayer> = params
            .layers
            .iter()
            .map(|layer| CellLayer {
                capacity_j_per_k: layer.capacity_j_per_k / cells as f64,
                phase: layer.phase_change.map(|pc| CellPhase {
                    melt_temp_c: pc.melt_temp_c,
                    latent_heat_j: pc.latent_heat_j / cells as f64,
                    liquid_capacity_j_per_k: pc.liquid_capacity_j_per_k / cells as f64,
                }),
            })
            .collect();
        // Per-axis conductances, the single source of the operator.
        // Sheet resistance per square: an x-neighbour pair spans dx of
        // length over dy of width, so R = r_sq * dx / dy. Zero means
        // "no such exchange" (lateral disabled, or a 1-cell axis).
        let dx = params.floorplan.die_w() / nx as f64;
        let dy = params.floorplan.die_h() / ny as f64;
        let lateral = |r_sq: f64, num: f64, den: f64, axis_cells: usize| {
            if r_sq.is_finite() && axis_cells > 1 {
                num / (r_sq * den)
            } else {
                0.0
            }
        };
        let lat_gx: Vec<f64> = params
            .layers
            .iter()
            .map(|l| lateral(l.lateral_r_square_k_per_w, dy, dx, nx))
            .collect();
        let lat_gy: Vec<f64> = params
            .layers
            .iter()
            .map(|l| lateral(l.lateral_r_square_k_per_w, dx, dy, ny))
            .collect();
        let g_vert: Vec<f64> = params.layers[..params.layers.len() - 1]
            .iter()
            .map(|l| 1.0 / (l.r_to_next_k_per_w * cells as f64))
            .collect();
        let g_sink = 1.0 / (params.r_sink_ambient_k_per_w * cells as f64);

        // Stability bound: smallest C / G_total over cells, computed once
        // (the structure is fixed; the solid capacity is the conservative
        // choice for PCM cells, whose effective capacity only grows
        // during melt). Each cell sums its conductances in the
        // operator's term order.
        let layer_count = params.layers.len();
        let mut min_tau = f64::INFINITY;
        for (li, cl) in cell_layers.iter().enumerate() {
            let (gx, gy) = (lat_gx[li], lat_gy[li]);
            let c = match &cl.phase {
                Some(pc) => cl.capacity_j_per_k.min(pc.liquid_capacity_j_per_k),
                None => cl.capacity_j_per_k,
            };
            for y in 0..ny {
                for x in 0..nx {
                    let mut g_total = 0.0;
                    if li > 0 {
                        g_total += g_vert[li - 1];
                    }
                    if gx > 0.0 || gy > 0.0 {
                        for (has, g) in
                            [(y > 0, gy), (x > 0, gx), (x + 1 < nx, gx), (y + 1 < ny, gy)]
                        {
                            if has {
                                g_total += g;
                            }
                        }
                    }
                    g_total += if li + 1 < layer_count {
                        g_vert[li]
                    } else {
                        g_sink
                    };
                    if g_total > 0.0 {
                        min_tau = min_tau.min(c / g_total);
                    }
                }
            }
        }
        let sub_step_s = if min_tau.is_finite() {
            params.stability_fraction * min_tau
        } else {
            f64::MAX
        };

        // ADI sub-step bound: implicit sweeps are unconditionally
        // stable, so this is an *accuracy* bound — the stability
        // fraction of the fastest vertical (layer-to-layer) time
        // constant, which with the theta-weighted factors keeps
        // sprint-cycle junction traces within 0.1 K of the explicit
        // reference (tests/grid_adi.rs pins it). Per-cell capacity over
        // per-cell vertical conductance equals the layer-level ratio,
        // so the bound is independent of the grid resolution: exactly
        // the decoupling the explicit solver lacks.
        let mut min_tau_vert = f64::INFINITY;
        for (li, layer) in params.layers.iter().enumerate() {
            let g_up = if li > 0 { g_vert[li - 1] } else { 0.0 };
            let g_dn = if li + 1 < layer_count {
                g_vert[li]
            } else {
                g_sink
            };
            let c_cell = match &layer.phase_change {
                Some(pc) => (layer.capacity_j_per_k / cells as f64)
                    .min(pc.liquid_capacity_j_per_k / cells as f64),
                None => layer.capacity_j_per_k / cells as f64,
            };
            min_tau_vert = min_tau_vert.min(c_cell / (g_up + g_dn));
        }
        let adi_sub_step_s = params.stability_fraction * min_tau_vert;

        let any_pcm = cell_layers.iter().any(|l| l.phase.is_some());
        let adi = AdiFactors {
            wdt: 0.0,
            rows: params
                .layers
                .iter()
                .zip(&lat_gx)
                .map(|(l, &g)| {
                    let pcm = l.phase_change.is_some();
                    Sweep::new(g > 0.0, pcm, nx, ny, LineLayout::Contiguous)
                })
                .collect(),
            cols: params
                .layers
                .iter()
                .zip(&lat_gy)
                .map(|(l, &g)| {
                    let pcm = l.phase_change.is_some();
                    Sweep::new(g > 0.0, pcm, ny, nx, LineLayout::Interleaved)
                })
                .collect(),
            stack: Sweep::new(true, any_pcm, layer_count, cells, LineLayout::Interleaved),
            dirty: false,
        };
        let core_cells: Vec<Vec<(usize, f64)>> = (0..params.floorplan.core_count())
            .map(|c| params.floorplan.cell_weights(c, nx, ny))
            .collect();
        let cores = core_cells.len();
        let ambient = params.ambient_c;
        let mut grid = Self {
            cells_per_layer: cells,
            enthalpy_j: vec![0.0; n],
            adi_ceff: cell_layers
                .iter()
                .flat_map(|l| std::iter::repeat_n(l.capacity_j_per_k, cells))
                .collect(),
            cell_layers,
            power_w: vec![0.0; n],
            core_cells,
            lat_gx,
            lat_gy,
            g_vert,
            g_sink_cell: g_sink,
            chip_power_w: Some(0.0),
            core_power_w: vec![0.0; cores],
            core_power_dirty: false,
            active_cores: cores,
            sub_step_s,
            adi_sub_step_s,
            time_s: 0.0,
            boundary_absorbed_j: 0.0,
            peak_hotspot_gradient_k: 0.0,
            junction_cache_c: ambient,
            peak_cell_temps_c: vec![ambient; cells],
            scratch_temps: vec![0.0; n],
            scratch_flows: vec![0.0; cells],
            adi_rhs: vec![0.0; n],
            adi_plane: vec![0.0; n],
            adi,
            params,
        };
        grid.reset_to_ambient();
        grid
    }

    /// The parameters this backend was built from.
    pub fn params(&self) -> &GridThermalParams {
        &self.params
    }

    /// Cells per layer (`nx * ny`).
    pub fn cells_per_layer(&self) -> usize {
        self.cells_per_layer
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.params.layers.len()
    }

    /// The explicit solver's automatic stability sub-step bound,
    /// seconds (a fraction of the smallest cell RC constant).
    pub fn sub_step_s(&self) -> f64 {
        self.sub_step_s
    }

    /// The ADI solver's accuracy sub-step bound, seconds (a fraction of
    /// the fastest vertical time constant; resolution-independent).
    pub fn adi_sub_step_s(&self) -> f64 {
        self.adi_sub_step_s
    }

    /// The integration scheme this backend steps with.
    pub fn solver(&self) -> GridSolver {
        self.params.solver
    }

    /// The scheme a window of `dt_s` seconds actually integrates with:
    /// the configured solver, except that a cheap-window ADI `advance`
    /// falls back to explicit when implicit sweeps cannot pay for
    /// themselves (see [`ADI_FALLBACK_COST_RATIO`]; disabled via
    /// [`GridThermalParams::adi_explicit_fallback`]).
    pub fn effective_solver(&self, dt_s: f64) -> GridSolver {
        match self.params.solver {
            GridSolver::Explicit => GridSolver::Explicit,
            GridSolver::Adi => {
                if self.params.adi_explicit_fallback && dt_s > 0.0 {
                    let steps_e = (dt_s / self.sub_step_s).ceil().max(1.0);
                    let steps_a = (dt_s / self.adi_sub_step_s).ceil().max(1.0);
                    if steps_e <= ADI_FALLBACK_COST_RATIO * steps_a {
                        return GridSolver::Explicit;
                    }
                }
                GridSolver::Adi
            }
        }
    }

    /// Current simulation time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Sets the total chip power; it is split evenly across the active
    /// cores and rasterized onto the die cells each core overlaps.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite power.
    pub fn set_chip_power_w(&mut self, watts: f64) {
        assert!(watts.is_finite(), "power must be finite");
        self.apply_power_map(watts);
    }

    /// Sets how many cores the chip power is spread over (clamped to
    /// `[1, core_count]`); the first `n` floorplan cores are active.
    pub fn set_active_cores(&mut self, n: usize) {
        let n = n.clamp(1, self.core_cells.len());
        if n != self.active_cores {
            self.active_cores = n;
            self.apply_power_map(self.chip_power_w());
        }
    }

    /// Active core count the power map assumes.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Total chip power currently injected, watts. After per-core
    /// writes this sums the per-core powers in core order on each call.
    pub fn chip_power_w(&self) -> f64 {
        self.chip_power_w
            .unwrap_or_else(|| self.core_power_w.iter().sum())
    }

    /// Sets one core's power individually, leaving every other core's
    /// untouched — the rack path, where each floorplan "core" is a
    /// server carrying its own load. The total chip power becomes the
    /// sum of the per-core powers, taken when read; a later
    /// [`set_chip_power_w`]
    /// (uniform split over the active cores) overwrites the whole map
    /// again, so the two interfaces compose without hidden state.
    ///
    /// [`set_chip_power_w`]: Self::set_chip_power_w
    ///
    /// # Panics
    ///
    /// Panics on a non-finite power or an out-of-range core index.
    pub fn set_core_power_w(&mut self, core: usize, watts: f64) {
        assert!(watts.is_finite(), "power must be finite");
        assert!(core < self.core_cells.len(), "core index out of range");
        // Unchanged writes are free: idle rack nodes re-assert 0 W
        // every sampling window, and a skipped rewrite is trivially
        // bit-identical to a repeated one.
        if self.core_power_w[core] == watts {
            return;
        }
        self.core_power_w[core] = watts;
        self.chip_power_w = None;
        // The cell map rebuild is deferred to the next `advance`: the
        // rebuild is always from zero (bit-stable, unlike a running
        // +=/-= delta), and deferring coalesces the many per-node
        // writes a rack makes between two integrations into one pass.
        self.core_power_dirty = true;
    }

    /// Power currently injected by core `core`, watts.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range core index.
    pub fn core_power_w(&self, core: usize) -> f64 {
        self.core_power_w[core]
    }

    /// Splits `watts` evenly over the active cores.
    fn apply_power_map(&mut self, watts: f64) {
        self.chip_power_w = Some(watts);
        let per_core = watts / self.active_cores as f64;
        for (c, p) in self.core_power_w.iter_mut().enumerate() {
            *p = if c < self.active_cores { per_core } else { 0.0 };
        }
        // One rebuild path for both interfaces: with `core_power_w`
        // just filled, the per-core rebuild performs the identical
        // zero-and-accumulate arithmetic the uniform split always did
        // (0 W cores contribute exactly nothing either way).
        self.apply_core_power_map();
    }

    /// Rebuilds the die power map from the per-core powers (the
    /// `set_core_power_w` path; rewrites from zero with the same
    /// arithmetic as [`Self::apply_power_map`]).
    fn apply_core_power_map(&mut self) {
        self.core_power_dirty = false;
        for p in self.power_w[..self.cells_per_layer].iter_mut() {
            *p = 0.0;
        }
        for (core, cells) in self.core_cells.iter().enumerate() {
            let w = self.core_power_w[core];
            if w != 0.0 {
                for &(cell, weight) in cells {
                    self.power_w[cell] += w * weight;
                }
            }
        }
    }

    /// The properties of cell `i`'s layer.
    fn cell(&self, i: usize) -> &CellLayer {
        &self.cell_layers[i / self.cells_per_layer]
    }

    fn cell_temp(&self, i: usize) -> f64 {
        let cl = self.cell(i);
        cell_temp_of(self.enthalpy_j[i], cl.capacity_j_per_k, &cl.phase)
    }

    /// Temperature of cell `(x, y)` in layer `layer`, Celsius.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn cell_temp_c(&self, layer: usize, x: usize, y: usize) -> f64 {
        assert!(layer < self.layer_count() && x < self.params.nx && y < self.params.ny);
        self.cell_temp(layer * self.cells_per_layer + y * self.params.nx + x)
    }

    /// Hottest die-layer cell, Celsius — the hotspot the sprint
    /// controller must respect. Served from a cache refreshed on every
    /// `advance` (enthalpy cannot change between advances), so the
    /// controller's repeated junction/headroom/limit queries cost a
    /// load instead of an O(cells) scan.
    pub fn junction_temp_c(&self) -> f64 {
        self.junction_cache_c
    }

    /// Mean die-layer temperature, Celsius — what a lumped model would
    /// report.
    pub fn mean_die_temp_c(&self) -> f64 {
        let sum: f64 = (0..self.cells_per_layer).map(|i| self.cell_temp(i)).sum();
        sum / self.cells_per_layer as f64
    }

    /// Spread between the hottest and coolest die cell right now, Kelvin.
    pub fn hotspot_gradient_k(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.cells_per_layer {
            let t = self.cell_temp(i);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        hi - lo
    }

    /// Largest die-cell spread observed over the whole run, Kelvin.
    pub fn peak_hotspot_gradient_k(&self) -> f64 {
        self.peak_hotspot_gradient_k
    }

    /// Hottest cell under core `core`'s footprint, Celsius.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range core index.
    pub fn core_temp_c(&self, core: usize) -> f64 {
        self.core_cells[core]
            .iter()
            .map(|&(cell, _)| self.cell_temp(cell))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Peak per-core hotspot temperatures over the whole run, Celsius:
    /// each core's hottest die cell at any `advance` since the last
    /// reset. Computed on demand from the per-cell peaks, in core order.
    pub fn peak_core_temps_c(&self) -> Vec<f64> {
        self.core_cells
            .iter()
            .map(|footprint| {
                footprint
                    .iter()
                    .map(|&(cell, _)| self.peak_cell_temps_c[cell])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// Overall melt fraction: melted latent heat over total latent heat
    /// across all PCM cells (zero without a PCM layer).
    pub fn melt_fraction(&self) -> f64 {
        let mut melted = 0.0;
        let mut total = 0.0;
        for (h, cl) in self
            .enthalpy_j
            .chunks_exact(self.cells_per_layer)
            .zip(&self.cell_layers)
        {
            if let Some(pc) = &cl.phase {
                let h0 = pc.melt_temp_c * cl.capacity_j_per_k;
                for &h in h {
                    melted += (h - h0).clamp(0.0, pc.latent_heat_j);
                    total += pc.latent_heat_j;
                }
            }
        }
        if total > 0.0 {
            melted / total
        } else {
            0.0
        }
    }

    /// Ambient temperature, Celsius.
    pub fn ambient_c(&self) -> f64 {
        self.params.ambient_c
    }

    /// Changes the ambient (sink/inlet-air) temperature mid-run — the
    /// facility settlement hook: row-level airflow recirculation raises
    /// a rack's inlet air as its row's exhaust heat exceeds the CRAC
    /// capacity. Safe between `advance` calls with either solver: the
    /// ambient enters only the right-hand side of the heat operator
    /// (the `T - ambient` sink term), never the cached ADI line
    /// factorizations, so no factorization is invalidated. Cell state
    /// is untouched — only future sink flows change.
    ///
    /// # Panics
    ///
    /// Panics unless `ambient_c` is finite and below the thermal limit
    /// (and below any PCM melting point, mirroring `validate`).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        assert!(
            ambient_c.is_finite() && ambient_c < self.params.t_max_c,
            "ambient must be finite and below the thermal limit"
        );
        for layer in &self.params.layers {
            if let Some(pc) = &layer.phase_change {
                assert!(
                    ambient_c < pc.melt_temp_c,
                    "ambient must be below the PCM melting point"
                );
            }
        }
        self.params.ambient_c = ambient_c;
    }

    /// Maximum safe cell temperature, Celsius.
    pub fn t_max_c(&self) -> f64 {
        self.params.t_max_c
    }

    /// Headroom of the hottest cell below the limit, Kelvin.
    pub fn headroom_k(&self) -> f64 {
        self.params.t_max_c - self.junction_temp_c()
    }

    /// True once the hottest cell has reached the limit.
    pub fn at_thermal_limit(&self) -> bool {
        self.junction_temp_c() >= self.params.t_max_c - 1e-9
    }

    /// Sprint energy budget from the current state, joules: remaining
    /// latent heat plus the sensible headroom of the die and PCM layers
    /// up to the limit (the grid analogue of the phone model's
    /// "16 joules"). Die and phase-change cells only: the bulk of
    /// sensible layers further down (spreaders, heatsinks) would dwarf
    /// the fast storage that actually buffers a sprint.
    pub fn sprint_energy_budget_j(&self) -> f64 {
        let mut budget = 0.0;
        for i in 0..self.enthalpy_j.len() {
            if i >= self.cells_per_layer && self.cell(i).phase.is_none() {
                continue;
            }
            budget += self.cell_sprint_budget_j(i);
        }
        budget
    }

    /// Sprint energy budget of one core's region, joules: the same
    /// accounting as [`Self::sprint_energy_budget_j`] restricted to the
    /// cell columns under core `core`'s floorplan footprint. This is
    /// the budget a *node* of a rack floorplan can spend — its own die
    /// cells and the storage directly beneath them — rather than the
    /// rack-global figure. For a core whose footprint covers the whole
    /// die the two are identical (bit-for-bit: same cells, visited in
    /// the same layer-major ascending order, so the sums accumulate
    /// identically). Touches only the footprint's columns — no
    /// allocation, no full-grid scan — so it is cheap enough for
    /// per-window scheduler telemetry.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range core index.
    pub fn region_sprint_budget_j(&self, core: usize) -> f64 {
        let mut budget = 0.0;
        for li in 0..self.params.layers.len() {
            let base = li * self.cells_per_layer;
            for &(cell, _) in &self.core_cells[core] {
                let i = base + cell;
                if li > 0 && self.cell(i).phase.is_none() {
                    continue;
                }
                budget += self.cell_sprint_budget_j(i);
            }
        }
        budget
    }

    /// One cell's contribution to the sprint budget: remaining latent
    /// heat plus sensible headroom up to the limit.
    fn cell_sprint_budget_j(&self, i: usize) -> f64 {
        let t_max = self.params.t_max_c;
        let t = self.cell_temp(i);
        let c = self.cell(i).capacity_j_per_k;
        match &self.cell(i).phase {
            Some(pc) => {
                let h0 = pc.melt_temp_c * c;
                let mut budget =
                    (pc.latent_heat_j - (self.enthalpy_j[i] - h0)).clamp(0.0, pc.latent_heat_j);
                if t < pc.melt_temp_c {
                    budget += (pc.melt_temp_c - t) * c;
                    budget += (t_max - pc.melt_temp_c) * pc.liquid_capacity_j_per_k;
                } else {
                    budget += (t_max - t).max(0.0) * pc.liquid_capacity_j_per_k;
                }
                budget
            }
            None => (t_max - t).max(0.0) * c,
        }
    }

    /// Total enthalpy stored in all cells, joules (for conservation
    /// checks together with [`Self::boundary_absorbed_j`]).
    pub fn total_stored_enthalpy_j(&self) -> f64 {
        self.enthalpy_j.iter().sum()
    }

    /// Cumulative energy absorbed by the ambient since construction,
    /// joules.
    pub fn boundary_absorbed_j(&self) -> f64 {
        self.boundary_absorbed_j
    }

    /// Resets every cell to ambient (PCM fully frozen) and clears the
    /// peak trackers.
    pub fn reset_to_ambient(&mut self) {
        let ambient = self.params.ambient_c;
        for (h, cl) in self
            .enthalpy_j
            .chunks_exact_mut(self.cells_per_layer)
            .zip(&self.cell_layers)
        {
            // Ambient is below any melting point (validated), so the
            // solid branch applies.
            h.fill(ambient * cl.capacity_j_per_k);
        }
        self.peak_hotspot_gradient_k = 0.0;
        self.peak_cell_temps_c.fill(ambient);
        // The same fold the old on-demand query ran, so the cached
        // junction is bit-identical to it (the round-trip through
        // enthalpy can land an ulp off `ambient`).
        self.junction_cache_c = (0..self.cells_per_layer)
            .map(|i| self.cell_temp(i))
            .fold(f64::NEG_INFINITY, f64::max);
    }

    /// Advances the grid by `dt_s` seconds, sub-stepping to the active
    /// solver's bound. Simulation time accumulates from the actual
    /// sub-steps taken, so the reported clock and the integrated state
    /// cannot drift apart over long runs.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or not finite.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "dt must be finite and non-negative"
        );
        if self.core_power_dirty {
            self.apply_core_power_map();
        }
        if dt_s > 0.0 {
            let solver = self.effective_solver(dt_s);
            let bound = match solver {
                GridSolver::Explicit => self.sub_step_s,
                GridSolver::Adi => self.adi_sub_step_s,
            };
            let steps = (dt_s / bound).ceil().max(1.0) as u64;
            let sub = dt_s / steps as f64;
            for _ in 0..steps {
                match solver {
                    GridSolver::Explicit => self.step_once(sub),
                    GridSolver::Adi => self.adi_step(sub),
                }
                self.time_s += sub;
            }
        }
        self.track_peaks();
    }

    /// Refreshes `scratch_temps` from the enthalpy state, one layer
    /// plane at a time. Bit-identical to evaluating [`cell_temp_of`] per
    /// cell, but every branch is a select on plane-constant thresholds,
    /// so the passes run without per-cell `Option` tests.
    fn fill_temps(&mut self) {
        let cells = self.cells_per_layer;
        for (li, cl) in self.cell_layers.iter().enumerate() {
            let t = &mut self.scratch_temps[li * cells..][..cells];
            let h = &self.enthalpy_j[li * cells..][..cells];
            let c = cl.capacity_j_per_k;
            match &cl.phase {
                None => {
                    for k in 0..cells {
                        t[k] = h[k] / c;
                    }
                }
                Some(pc) => {
                    let h0 = pc.melt_temp_c * c;
                    let h1 = h0 + pc.latent_heat_j;
                    for k in 0..cells {
                        let h = h[k];
                        let solid = h / c;
                        let liquid = pc.melt_temp_c
                            + (h - h0 - pc.latent_heat_j) / pc.liquid_capacity_j_per_k;
                        t[k] = if h <= h0 {
                            solid
                        } else if h <= h1 {
                            pc.melt_temp_c
                        } else {
                            liquid
                        };
                    }
                }
            }
        }
    }

    /// Applies one `dt` step of the full heat operator evaluated at
    /// `scratch_temps` (see the module docs' "The operator"): every
    /// cell's enthalpy gains `F(T) dt`, the same increment becomes the
    /// ADI right-hand side `adi_rhs` (zero on melting-plateau rows,
    /// whose increment is pinned), and the sink's share is booked into
    /// `boundary_absorbed_j` in ascending cell order. Shared by the
    /// explicit step and the ADI sub-step; the explicit step never reads
    /// `adi_rhs`, but writing it anyway keeps one code path (skipping
    /// the write made no measurable difference on the rack grid).
    fn kick(&mut self, dt: f64) {
        let nx = self.params.nx;
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        let ambient = self.params.ambient_c;
        let g_sink = self.g_sink_cell;
        let t = &self.scratch_temps[..];
        let f = &mut self.scratch_flows[..cells];
        for li in 0..layers {
            let at = li * cells;
            let tp = &t[at..][..cells];
            let power = &self.power_w[at..][..cells];
            // A conducting layer exchanges along both axes, even one
            // whose conductance is zero: the edge list carried those
            // ±0.0 terms too. Its y-inflow reaches every row but the
            // first, its y-outflow leaves every row but the last.
            let (gx, gy) = (self.lat_gx[li], self.lat_gy[li]);
            let lateral = gx > 0.0 || gy > 0.0;
            let (y_in, y_out) = if lateral {
                (nx, cells - nx)
            } else {
                (cells, 0)
            };
            // Inflows: power, from the layer above, from the row before.
            if li > 0 {
                let (up, g) = (&t[at - cells..][..cells], self.g_vert[li - 1]);
                for k in 0..y_in {
                    f[k] = power[k] + (up[k] - tp[k]) * g;
                }
                for k in y_in..cells {
                    f[k] = power[k] + (up[k] - tp[k]) * g + (tp[k - nx] - tp[k]) * gy;
                }
            } else {
                f[..y_in].copy_from_slice(&power[..y_in]);
                for k in y_in..cells {
                    f[k] = power[k] + (tp[k - nx] - tp[k]) * gy;
                }
            }
            if lateral {
                for (fr, tr) in f.chunks_exact_mut(nx).zip(tp.chunks_exact(nx)) {
                    exchange(fr, tr, 1, gx);
                }
            }
            // Outflows (to the next row, then to the layer below or the
            // sink), fused with the step itself.
            let h = &mut self.enthalpy_j[at..][..cells];
            let rhs = &mut self.adi_rhs[at..][..cells];
            let ceff = &self.adi_ceff[at..][..cells];
            if li + 1 < layers {
                let (down, g) = (&t[at + cells..][..cells], self.g_vert[li]);
                for k in 0..y_out {
                    let e = (f[k] - (tp[k] - tp[k + nx]) * gy - (tp[k] - down[k]) * g) * dt;
                    h[k] += e;
                    rhs[k] = if ceff[k] == 0.0 { 0.0 } else { e };
                }
                for k in y_out..cells {
                    let e = (f[k] - (tp[k] - down[k]) * g) * dt;
                    h[k] += e;
                    rhs[k] = if ceff[k] == 0.0 { 0.0 } else { e };
                }
            } else {
                for k in 0..cells {
                    let fk = if k < y_out {
                        f[k] - (tp[k] - tp[k + nx]) * gy
                    } else {
                        f[k]
                    };
                    let q = (tp[k] - ambient) * g_sink;
                    self.boundary_absorbed_j += q * dt;
                    let e = (fk - q) * dt;
                    h[k] += e;
                    rhs[k] = if ceff[k] == 0.0 { 0.0 } else { e };
                }
            }
        }
    }

    /// One explicit sub-step: every exchange is antisymmetric, so total
    /// enthalpy (cells + ambient bookkeeping) is conserved exactly.
    fn step_once(&mut self, dt: f64) {
        self.fill_temps();
        self.kick(dt);
    }

    /// One semi-implicit ADI sub-step (theta-weighted Douglas-Gunn
    /// factorization): evaluate the *full* operator explicitly at step
    /// entry as the right-hand side, then pass the resulting increment
    /// through three implicit factors — row, column, and vertical-stack
    /// Thomas solves. The factored system
    /// `(C - θdt Lx)(C^-1)(C - θdt Ly)(C^-1)(C - θdt (Lz + Lsink)) dT =
    /// dt F(T^n)` differs from the unfactored theta scheme only by
    /// `O(dt^2)` cross terms in the increment, so there is none of the
    /// directional ping-pong a sequential split suffers, and every
    /// factor is an M-matrix, so the step is unconditionally stable for
    /// `θ >= 1/2`.
    ///
    /// The PCM nonlinearity is a per-step phase-state linearization:
    /// each cell's branch is frozen at step entry; melting-plateau
    /// cells become zero-increment (fixed-temperature) rows and absorb
    /// their net inflow as latent enthalpy. All enthalpy updates are
    /// antisymmetric edge fluxes (or booked sink flux), so conservation
    /// is exact regardless of how the linearization approximated the
    /// temperatures.
    ///
    /// Every lane replays cached factors with the per-line Thomas
    /// arithmetic, and every cell receives its corrections in the order
    /// a line-at-a-time sweep applies them, so the sub-step is
    /// bit-identical to the uncached per-line reference sweep the test
    /// module pins it against.
    fn adi_step(&mut self, dt: f64) {
        self.fill_temps();
        self.freeze_phase_branches();
        self.kick(dt);
        // The implicit factors weight their operator by θdt; the
        // explicit evaluation above carries the matching (1-θ) share,
        // so the unfactored limit is the trapezoidal theta scheme.
        let wdt = ADI_THETA * dt;
        self.refactor(wdt);
        let nx = self.params.nx;
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        let plane = &mut self.adi_plane[..cells];
        for li in 0..layers {
            let layer = li * cells..(li + 1) * cells;
            let gdt = self.lat_gx[li] * wdt;
            if !matches!(self.adi.rows[li], Sweep::Off) {
                self.adi.rows[li].solve(&self.adi_rhs[layer.clone()], plane);
                let h = &mut self.enthalpy_j[layer.clone()];
                for (hr, wr) in h.chunks_exact_mut(nx).zip(plane.chunks_exact(nx)) {
                    exchange(hr, wr, 1, gdt);
                }
                next_rhs(
                    &mut self.adi_rhs[layer],
                    &self.adi_ceff[li * cells..],
                    plane,
                );
            }
        }
        for li in 0..layers {
            let layer = li * cells..(li + 1) * cells;
            let gdt = self.lat_gy[li] * wdt;
            if !matches!(self.adi.cols[li], Sweep::Off) {
                self.adi.cols[li].solve(&self.adi_rhs[layer.clone()], plane);
                exchange(&mut self.enthalpy_j[layer.clone()], plane, nx, gdt);
                next_rhs(
                    &mut self.adi_rhs[layer],
                    &self.adi_ceff[li * cells..],
                    plane,
                );
            }
        }
        // The vertical factor always runs: it owns the ambient sink, so
        // even a 1x1 grid (the lumped-equivalent chain) reduces to the
        // plain unfactored theta scheme through here.
        let plane = &mut self.adi_plane[..];
        self.adi.stack.solve(&self.adi_rhs, plane);
        let g_sink = self.g_sink_cell;
        for (l, h) in self.enthalpy_j.chunks_exact_mut(cells).enumerate() {
            let w = &plane[l * cells..][..cells];
            if l > 0 {
                let (up, gv) = (&plane[(l - 1) * cells..][..cells], self.g_vert[l - 1]);
                for k in 0..cells {
                    h[k] += (up[k] - w[k]) * gv * wdt;
                }
            }
            if l + 1 < layers {
                let (down, gv) = (&plane[(l + 1) * cells..][..cells], self.g_vert[l]);
                for k in 0..cells {
                    h[k] -= (w[k] - down[k]) * gv * wdt;
                }
            } else {
                // The sink sees only the *increment* here; the
                // `T^n - ambient` part was booked by the kick.
                for k in 0..cells {
                    let q = w[k] * g_sink * wdt;
                    h[k] -= q;
                    self.boundary_absorbed_j += q;
                }
            }
        }
    }

    /// Freezes every PCM cell's phase branch for this sub-step into
    /// `adi_ceff` (see [`branch_capacity`]) and marks the row, column
    /// and stack lanes through every cell whose value changed. Most
    /// sub-steps change nothing, and a plane-wide comparison finds that
    /// out before any cell is touched.
    fn freeze_phase_branches(&mut self) {
        let (nx, cells) = (self.params.nx, self.cells_per_layer);
        for (li, cl) in self.cell_layers.iter().enumerate() {
            let Some(pc) = &cl.phase else { continue };
            let h = &self.enthalpy_j[li * cells..][..cells];
            let ceff = &mut self.adi_ceff[li * cells..][..cells];
            let branch = |h: f64| branch_capacity(h, cl.capacity_j_per_k, pc);
            let mut stale = false;
            for k in 0..cells {
                stale |= branch(h[k]) != ceff[k];
            }
            if !stale {
                continue;
            }
            for cell in 0..cells {
                let new = branch(h[cell]);
                if new != ceff[cell] {
                    ceff[cell] = new;
                    self.adi.rows[li].mark(cell / nx);
                    self.adi.cols[li].mark(cell % nx);
                    self.adi.stack.mark(cell);
                    self.adi.dirty = true;
                }
            }
        }
    }

    /// Brings the factor cache up to date for the theta-weighted
    /// sub-step `wdt`: everything when `wdt` changed, else only the
    /// dirty lanes. The coefficients are the per-line assembly's
    /// ([`lateral_coeffs`], [`stack_coeffs`]), so every cached factor
    /// reproduces the uncached elimination bit for bit.
    fn refactor(&mut self, wdt: f64) {
        let all = self.adi.wdt != wdt;
        if !all && !self.adi.dirty {
            return;
        }
        self.adi.wdt = wdt;
        self.adi.dirty = false;
        let (nx, ny) = (self.params.nx, self.params.ny);
        let cells = self.cells_per_layer;
        let layers = self.params.layers.len();
        let ceff = &self.adi_ceff[..];
        for li in 0..layers {
            let c = &ceff[li * cells..];
            let gdt = self.lat_gx[li] * wdt;
            self.adi.rows[li].refactor(all, nx, |y, k| lateral_coeffs(c[y * nx + k], gdt, k, nx));
            let gdt = self.lat_gy[li] * wdt;
            self.adi.cols[li].refactor(all, ny, |x, k| lateral_coeffs(c[k * nx + x], gdt, k, ny));
        }
        let (g_vert, g_sink) = (&self.g_vert[..], self.g_sink_cell);
        self.adi.stack.refactor(all, layers, |c, l| {
            stack_coeffs(ceff[l * cells + c], l, g_vert, g_sink, wdt)
        });
    }

    fn track_peaks(&mut self) {
        // One conversion of the die layer serves the gradient tracker,
        // the junction cache (the hottest die cell) and the per-cell
        // peaks. Its cost follows the cells, not the cores: a rack of
        // many servers per cell pays nothing per server.
        let cells = self.cells_per_layer;
        let h = &self.enthalpy_j[..cells];
        let peaks = &mut self.peak_cell_temps_c[..cells];
        let cl = &self.cell_layers[0];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in 0..cells {
            let t = cell_temp_of(h[k], cl.capacity_j_per_k, &cl.phase);
            lo = lo.min(t);
            hi = hi.max(t);
            peaks[k] = peaks[k].max(t);
        }
        self.junction_cache_c = hi;
        self.peak_hotspot_gradient_k = self.peak_hotspot_gradient_k.max(hi - lo);
    }
}

/// `f[k] += (from[k] - to[k]) * g` for every `k` of `f`: the flux an
/// exchange delivers to its receiving cell.
fn inflow(f: &mut [f64], from: &[f64], to: &[f64], g: f64) {
    let n = f.len();
    let (from, to) = (&from[..n], &to[..n]);
    for k in 0..n {
        f[k] += (from[k] - to[k]) * g;
    }
}

/// `f[k] -= (from[k] - to[k]) * g` for every `k` of `f`: the same flux
/// leaving its sending cell.
fn outflow(f: &mut [f64], from: &[f64], to: &[f64], g: f64) {
    let n = f.len();
    let (from, to) = (&from[..n], &to[..n]);
    for k in 0..n {
        f[k] -= (from[k] - to[k]) * g;
    }
}

/// The exchange `(w[i - s] - w[i]) * g` between every cell of a line
/// and the cell `s` places before it: each cell first gains the flux
/// from its predecessor, then loses the flux to its successor — the
/// order a sequential scan along the line applies them in.
fn exchange(h: &mut [f64], w: &[f64], s: usize, g: f64) {
    let n = h.len();
    if n <= s {
        return;
    }
    let w = &w[..n];
    outflow(&mut h[..s], w, &w[s..], g);
    for i in s..n - s {
        h[i] = h[i] + (w[i - s] - w[i]) * g - (w[i] - w[i + s]) * g;
    }
    inflow(&mut h[n - s..], &w[n - 2 * s..], &w[n - s..], g);
}

/// The next implicit factor's right-hand side `C * w` over one plane;
/// plateau rows (`C = 0`) keep a zero increment.
fn next_rhs(rhs: &mut [f64], ceff: &[f64], w: &[f64]) {
    let n = rhs.len();
    let (ceff, w) = (&ceff[..n], &w[..n]);
    for k in 0..n {
        rhs[k] = ceff[k] * w[k];
    }
}

/// The effective capacity of a PCM cell's phase branch for one ADI
/// sub-step: the solid capacity below the melting plateau, the liquid
/// capacity above it, and 0 on it (the row becomes fixed-temperature).
fn branch_capacity(enthalpy_j: f64, solid_capacity_j_per_k: f64, pc: &CellPhase) -> f64 {
    let h0 = pc.melt_temp_c * solid_capacity_j_per_k;
    if enthalpy_j <= h0 {
        solid_capacity_j_per_k
    } else if enthalpy_j <= h0 + pc.latent_heat_j {
        0.0
    } else {
        pc.liquid_capacity_j_per_k
    }
}

/// Row `k` `(sub, diag, sup)` of an implicit lateral line of `len`
/// cells with neighbour coupling `gdt` (`g * θdt`): `C - θdt Lx`, or a
/// Dirichlet row (`diag 1`, no coupling) on the melting plateau.
fn lateral_coeffs(ceff: f64, gdt: f64, k: usize, len: usize) -> (f64, f64, f64) {
    if ceff == 0.0 {
        return (0.0, 1.0, 0.0);
    }
    let (mut sub, mut diag, mut sup) = (0.0, ceff, 0.0);
    if k > 0 {
        diag += gdt;
        sub = -gdt;
    }
    if k + 1 < len {
        diag += gdt;
        sup = -gdt;
    }
    (sub, diag, sup)
}

/// Row `l` `(sub, diag, sup)` of an implicit vertical stack (interface
/// conduction plus the ambient sink on the last layer) at the
/// theta-weighted step `wdt`, or a Dirichlet row on the plateau.
fn stack_coeffs(ceff: f64, l: usize, g_vert: &[f64], g_sink: f64, wdt: f64) -> (f64, f64, f64) {
    if ceff == 0.0 {
        return (0.0, 1.0, 0.0);
    }
    let layers = g_vert.len() + 1;
    let g_up = if l > 0 { g_vert[l - 1] } else { 0.0 };
    let g_dn = if l + 1 < layers { g_vert[l] } else { 0.0 };
    let mut diag = ceff + wdt * (g_up + g_dn);
    if l + 1 == layers {
        diag += wdt * g_sink;
    }
    (-wdt * g_up, diag, -wdt * g_dn)
}

/// Piecewise temperature-of-enthalpy (the enthalpy method), matching
/// [`crate::node::StorageNode`] with a 0 C reference.
fn cell_temp_of(enthalpy_j: f64, solid_capacity_j_per_k: f64, phase: &Option<CellPhase>) -> f64 {
    match phase {
        None => enthalpy_j / solid_capacity_j_per_k,
        Some(pc) => {
            let h0 = pc.melt_temp_c * solid_capacity_j_per_k;
            if enthalpy_j <= h0 {
                enthalpy_j / solid_capacity_j_per_k
            } else if enthalpy_j <= h0 + pc.latent_heat_j {
                pc.melt_temp_c
            } else {
                pc.melt_temp_c + (enthalpy_j - h0 - pc.latent_heat_j) / pc.liquid_capacity_j_per_k
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiag::Tridiag;

    #[test]
    fn starts_at_ambient_everywhere() {
        let g = GridThermalParams::hpca_like().build();
        for layer in 0..g.layer_count() {
            for y in 0..g.params().ny {
                for x in 0..g.params().nx {
                    assert!((g.cell_temp_c(layer, x, y) - 25.0).abs() < 1e-9);
                }
            }
        }
        assert_eq!(g.melt_fraction(), 0.0);
        assert_eq!(g.hotspot_gradient_k(), 0.0);
    }

    #[test]
    fn uniform_power_reaches_the_series_steady_state() {
        // Full-die core, lateral disabled by symmetry anyway: the grid
        // must settle at ambient + P * (sum of series resistances).
        let mut params = GridThermalParams::hpca_like().with_floorplan(Floorplan::full_die());
        params.layers = vec![
            GridLayer::sensible("die", 0.2, 10.0, 1.0),
            GridLayer::sensible("mid", 0.5, 10.0, 2.0),
            GridLayer::sensible("sink", 1.0, 10.0, 1.0),
        ];
        params.r_sink_ambient_k_per_w = 3.0;
        params.nx = 3;
        params.ny = 3;
        let mut g = params.build();
        g.set_chip_power_w(2.0);
        g.advance(200.0);
        let expected = 25.0 + 2.0 * (1.0 + 2.0 + 3.0);
        let got = g.junction_temp_c();
        assert!(
            (got - expected).abs() < 0.05,
            "expected {expected}, got {got}"
        );
        // Uniform power: no gradient.
        assert!(g.hotspot_gradient_k() < 1e-6);
    }

    #[test]
    fn concentrated_cores_form_a_hotspot() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_chip_power_w(16.0);
        g.advance(2.0);
        let gradient = g.hotspot_gradient_k();
        assert!(
            gradient > 3.0,
            "4x4 core array must produce a multi-degree gradient, got {gradient:.2} K"
        );
        assert!(g.junction_temp_c() > g.mean_die_temp_c() + 1.0);
    }

    #[test]
    fn fewer_active_cores_concentrate_the_same_power() {
        let mut all = GridThermalParams::hpca_like().build();
        let mut one = GridThermalParams::hpca_like().build();
        all.set_chip_power_w(4.0);
        one.set_active_cores(1);
        one.set_chip_power_w(4.0);
        all.advance(1.0);
        one.advance(1.0);
        assert!(
            one.junction_temp_c() > all.junction_temp_c() + 1.0,
            "4 W on one core must run hotter than on sixteen: {:.2} vs {:.2}",
            one.junction_temp_c(),
            all.junction_temp_c()
        );
    }

    #[test]
    fn energy_is_conserved() {
        let mut g = GridThermalParams::hpca_like().build();
        let e0 = g.total_stored_enthalpy_j();
        g.set_chip_power_w(16.0);
        g.advance(0.7);
        let injected = 16.0 * 0.7;
        let stored = g.total_stored_enthalpy_j() - e0;
        let absorbed = g.boundary_absorbed_j();
        assert!(
            (stored + absorbed - injected).abs() < 1e-9 * injected,
            "stored {stored} + absorbed {absorbed} != {injected}"
        );
    }

    #[test]
    fn pcm_layer_melts_and_budget_shrinks() {
        let mut g = GridThermalParams::hpca_like().build();
        let b0 = g.sprint_energy_budget_j();
        assert!(
            (13.0..20.0).contains(&b0),
            "cold budget {b0:.1} J should be near the paper's 16 J"
        );
        g.set_chip_power_w(16.0);
        g.advance(0.8);
        assert!(g.melt_fraction() > 0.0, "sprint heat must start the melt");
        assert!(g.sprint_energy_budget_j() < b0);
    }

    #[test]
    fn time_scaling_compresses_transients_only() {
        let mut base = GridThermalParams::hpca_like().build();
        let mut scaled = GridThermalParams::hpca_like().time_scaled(10.0).build();
        base.set_chip_power_w(8.0);
        scaled.set_chip_power_w(8.0);
        base.advance(1.0);
        scaled.advance(0.1);
        assert!(
            (base.junction_temp_c() - scaled.junction_temp_c()).abs() < 0.2,
            "10x compressed run at t/10 must match: {:.2} vs {:.2}",
            base.junction_temp_c(),
            scaled.junction_temp_c()
        );
    }

    #[test]
    fn reset_clears_state_and_peaks() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_chip_power_w(16.0);
        g.advance(1.0);
        assert!(g.peak_hotspot_gradient_k() > 0.0);
        g.reset_to_ambient();
        assert!((g.junction_temp_c() - 25.0).abs() < 1e-9);
        assert_eq!(g.peak_hotspot_gradient_k(), 0.0);
        assert_eq!(g.melt_fraction(), 0.0);
        assert!(g.peak_core_temps_c().iter().all(|&t| t == 25.0));
    }

    /// Drives `params` through `windows` seeded windows of random
    /// per-core power and checks [`GridThermal::peak_core_temps_c`]
    /// bit for bit against a running max of every core's
    /// [`GridThermal::core_temp_c`], taken after each `advance`.
    fn peaks_match_a_running_core_max(params: GridThermalParams, windows: usize) {
        let mut g = params.build();
        let cores = g.params().floorplan.core_count();
        let mut running = vec![g.ambient_c(); cores];
        let mut state = 0x0dd_ba11_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for window in 0..windows {
            // Every fourth window idles the whole rack, so temperatures
            // fall as well as rise and the peaks lag the readings.
            for core in 0..cores {
                let u = next();
                let hot = window % 4 != 3 && u > 0.5;
                g.set_core_power_w(core, if hot { 32.0 * u } else { 0.0 });
            }
            g.advance(0.05);
            for (core, peak) in running.iter_mut().enumerate() {
                *peak = peak.max(g.core_temp_c(core));
            }
            let peaks = g.peak_core_temps_c();
            assert_eq!(peaks.len(), cores);
            for (core, (a, b)) in peaks.iter().zip(&running).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "core {core}, window {window}");
            }
        }
        assert!(
            running.iter().any(|&t| t > g.ambient_c() + 1.0),
            "the fixture must heat some core"
        );
    }

    #[test]
    fn core_peaks_fold_cell_peaks_when_servers_share_cells() {
        // `sparse_fleet`'s shape: 1024 servers on 64 cells.
        peaks_match_a_running_core_max(GridThermalParams::rack(32, 32).with_grid(8, 8), 24);
    }

    #[test]
    fn core_peaks_fold_cell_peaks_when_servers_span_many_cells() {
        // Four servers, each over dozens of the 16x16 grid's cells.
        let params = GridThermalParams::rack(2, 2);
        let g = params.clone().build();
        assert!(g.core_cells.iter().all(|f| f.len() >= 16));
        peaks_match_a_running_core_max(params, 24);
    }

    #[test]
    #[should_panic(expected = "limit must exceed ambient")]
    fn inverted_limits_rejected() {
        let mut p = GridThermalParams::hpca_like();
        p.t_max_c = 20.0;
        p.validate();
    }

    #[test]
    fn solver_selection_plumbs_through() {
        let explicit = GridThermalParams::hpca_like().build();
        assert_eq!(explicit.solver(), GridSolver::Explicit);
        let adi = GridThermalParams::hpca_like()
            .with_solver(GridSolver::Adi)
            .build();
        assert_eq!(adi.solver(), GridSolver::Adi);
        // The decoupling in one line: the ADI bound dwarfs the explicit
        // one, and refining the grid widens the gap (the explicit bound
        // shrinks, the ADI bound holds still).
        assert!(adi.adi_sub_step_s() > 5.0 * adi.sub_step_s());
        let fine = GridThermalParams::hpca_like().with_grid(32, 32).build();
        assert!(fine.sub_step_s() < explicit.sub_step_s() / 4.0);
        assert!((fine.adi_sub_step_s() - explicit.adi_sub_step_s()).abs() < 1e-12);
    }

    #[test]
    fn per_core_power_matches_the_uniform_split() {
        // Writing chip/N to every core individually must reproduce the
        // uniform `set_chip_power_w` split bit-for-bit.
        let mut uniform = GridThermalParams::hpca_like().build();
        let mut per_core = GridThermalParams::hpca_like().build();
        uniform.set_chip_power_w(16.0);
        let cores = per_core.params().floorplan.core_count();
        for c in 0..cores {
            per_core.set_core_power_w(c, 16.0 / cores as f64);
        }
        assert_eq!(uniform.chip_power_w(), per_core.chip_power_w());
        uniform.advance(0.5);
        per_core.advance(0.5);
        assert_eq!(
            uniform.junction_temp_c().to_bits(),
            per_core.junction_temp_c().to_bits()
        );
    }

    #[test]
    fn one_hot_core_power_heats_only_its_region() {
        let mut g = GridThermalParams::hpca_like().build();
        g.set_core_power_w(0, 4.0);
        assert_eq!(g.chip_power_w(), 4.0);
        assert_eq!(g.core_power_w(0), 4.0);
        assert_eq!(g.core_power_w(7), 0.0);
        g.advance(1.0);
        // Core 0 (a corner of the array) must run hotter than the
        // diagonally opposite core 15.
        assert!(g.core_temp_c(0) > g.core_temp_c(15) + 1.0);
    }

    #[test]
    fn region_budget_of_a_full_die_core_equals_the_global_budget() {
        let mut p = GridThermalParams::hpca_like();
        p.floorplan = Floorplan::full_die();
        let mut g = p.build();
        g.set_chip_power_w(8.0);
        g.advance(0.4);
        assert_eq!(
            g.sprint_energy_budget_j().to_bits(),
            g.region_sprint_budget_j(0).to_bits(),
            "a footprint covering every cell must see the global budget"
        );
    }

    #[test]
    fn region_budgets_track_their_own_heat() {
        let mut g = GridThermalParams::hpca_like().build();
        let cold0 = g.region_sprint_budget_j(0);
        let cold15 = g.region_sprint_budget_j(15);
        assert!((cold0 - cold15).abs() < 1e-9, "symmetric corners at rest");
        g.set_core_power_w(0, 6.0);
        g.advance(1.0);
        assert!(
            g.region_sprint_budget_j(0) < g.region_sprint_budget_j(15),
            "the heated region must have less budget left"
        );
    }

    #[test]
    fn rack_preset_steady_states_bracket_the_limit() {
        // All-sustained idles far below the limit; the whole rack
        // sprinting drives the steady state past it (thermal collapse):
        // exactly the contention an admission policy has to manage.
        let nodes = 16;
        let mut idle = GridThermalParams::rack(4, 4).build();
        assert_eq!(idle.params().nx, 32);
        assert_eq!(idle.params().floorplan.core_count(), nodes);
        assert_eq!(idle.solver(), GridSolver::Adi);
        for n in 0..nodes {
            idle.set_core_power_w(n, 1.0);
        }
        idle.advance(200.0);
        assert!(
            idle.junction_temp_c() < 40.0,
            "sustained rack must idle cool, got {:.1} C",
            idle.junction_temp_c()
        );

        let mut one = GridThermalParams::rack(4, 4).build();
        for n in 0..nodes {
            one.set_core_power_w(n, if n == 5 { 16.0 } else { 1.0 });
        }
        one.advance(200.0);
        assert!(
            one.junction_temp_c() < 55.0,
            "a lone sprinter must stay well below the limit, got {:.1} C",
            one.junction_temp_c()
        );

        let mut all = GridThermalParams::rack(4, 4).build();
        for n in 0..nodes {
            all.set_core_power_w(n, 16.0);
        }
        all.advance(200.0);
        assert!(
            all.junction_temp_c() > all.t_max_c() + 10.0,
            "an unmanaged all-node sprint must collapse thermally, got {:.1} C",
            all.junction_temp_c()
        );
    }

    #[test]
    fn adi_cache_rebuilds_on_a_new_step_size_without_changing_results() {
        // Two identical ADI racks, one advanced with a uniform window
        // and one with a mixed schedule covering the same span, must
        // agree closely (the cache is keyed on the sub-step and must
        // rebuild transparently).
        let mut a = GridThermalParams::rack(2, 2).build();
        let mut b = GridThermalParams::rack(2, 2).build();
        for n in 0..4 {
            a.set_core_power_w(n, 8.0);
            b.set_core_power_w(n, 8.0);
        }
        for _ in 0..40 {
            a.advance(0.05);
        }
        for _ in 0..10 {
            b.advance(0.13);
        }
        b.advance(0.7);
        assert!(
            (a.junction_temp_c() - b.junction_temp_c()).abs() < 0.2,
            "{} vs {}",
            a.junction_temp_c(),
            b.junction_temp_c()
        );
    }

    #[test]
    fn adi_reaches_the_same_series_steady_state() {
        let mut params = GridThermalParams::hpca_like().with_floorplan(Floorplan::full_die());
        params.layers = vec![
            GridLayer::sensible("die", 0.2, 10.0, 1.0),
            GridLayer::sensible("mid", 0.5, 10.0, 2.0),
            GridLayer::sensible("sink", 1.0, 10.0, 1.0),
        ];
        params.r_sink_ambient_k_per_w = 3.0;
        params.nx = 3;
        params.ny = 3;
        params.solver = GridSolver::Adi;
        let mut g = params.build();
        g.set_chip_power_w(2.0);
        g.advance(200.0);
        let expected = 25.0 + 2.0 * (1.0 + 2.0 + 3.0);
        let got = g.junction_temp_c();
        assert!(
            (got - expected).abs() < 0.05,
            "expected {expected}, got {got}"
        );
        assert!(g.hotspot_gradient_k() < 1e-6);
    }

    /// The explicit step the engine is pinned against bit for bit: the
    /// operator scattered from an explicit edge list (lateral edges
    /// row-major per layer, then that layer's vertical edges, the sink
    /// last) and applied to every cell. Returns the per-cell increments
    /// (the ADI right-hand side).
    fn explicit_step_reference(g: &mut GridThermal, dt: f64) -> Vec<f64> {
        let (nx, ny) = (g.params.nx, g.params.ny);
        let cells = g.cells_per_layer;
        let layers = g.params.layers.len();
        let n = cells * layers;
        g.fill_temps();
        let t = g.scratch_temps.clone();
        let mut flow = g.power_w.clone();
        for li in 0..layers {
            let base = li * cells;
            let (gx, gy) = (g.lat_gx[li], g.lat_gy[li]);
            let mut edges = Vec::new();
            if gx > 0.0 || gy > 0.0 {
                for y in 0..ny {
                    for x in 0..nx {
                        let i = base + y * nx + x;
                        if x + 1 < nx {
                            edges.push((i, i + 1, gx));
                        }
                        if y + 1 < ny {
                            edges.push((i, i + nx, gy));
                        }
                    }
                }
            }
            if li + 1 < layers {
                edges.extend((base..base + cells).map(|i| (i, i + cells, g.g_vert[li])));
            }
            for (a, b, gab) in edges {
                let q = (t[a] - t[b]) * gab;
                flow[a] -= q;
                flow[b] += q;
            }
        }
        for i in (layers - 1) * cells..n {
            let q = (t[i] - g.params.ambient_c) * g.g_sink_cell;
            flow[i] -= q;
            g.boundary_absorbed_j += q * dt;
        }
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let e = flow[i] * dt;
            g.enthalpy_j[i] += e;
            rhs[i] = e;
        }
        rhs
    }

    /// The line-at-a-time ADI sub-step the engine is pinned against bit
    /// for bit: [`explicit_step_reference`]'s operator, then every row,
    /// column and stack assembled here, independently of the engine's
    /// coefficient helpers, and eliminated from scratch with
    /// [`Tridiag::solve`] — no cached factor anywhere.
    fn adi_step_reference(g: &mut GridThermal, dt: f64) {
        let (nx, ny) = (g.params.nx, g.params.ny);
        let cells = g.cells_per_layer;
        let layers = g.params.layers.len();
        // Freeze each cell's phase branch (0 = the melting plateau: a
        // Dirichlet, zero-increment row).
        let ceff: Vec<f64> = (0..cells * layers)
            .map(|i| {
                let (cl, h) = (g.cell(i), g.enthalpy_j[i]);
                let solid = cl.capacity_j_per_k;
                match &cl.phase {
                    None => solid,
                    Some(pc) => {
                        let h0 = pc.melt_temp_c * solid;
                        if h <= h0 {
                            solid
                        } else if h <= h0 + pc.latent_heat_j {
                            0.0
                        } else {
                            pc.liquid_capacity_j_per_k
                        }
                    }
                }
            })
            .collect();
        let mut rhs = explicit_step_reference(g, dt);
        let wdt = ADI_THETA * dt;
        // One line: `line` lists its cells, `rows[k]` is row `k`'s
        // `(sub, diag, sup)` off the plateau, `flux(k, dw)` the exchange
        // between cells `k` and `k + 1`. Applies the exchanges and the
        // next right-hand side `C * w`, and returns `w`.
        let mut solver = Tridiag::new();
        let mut sweep = |g: &mut GridThermal,
                         rhs: &mut [f64],
                         line: &[usize],
                         rows: &[(f64, f64, f64)],
                         flux: &dyn Fn(usize, f64) -> f64| {
            let len = line.len();
            let (mut sub, mut diag, mut sup) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
            let mut r = vec![0.0; len];
            for (k, &i) in line.iter().enumerate() {
                if ceff[i] == 0.0 {
                    (sub[k], diag[k], sup[k]) = (0.0, 1.0, 0.0);
                } else {
                    (sub[k], diag[k], sup[k]) = rows[k];
                    r[k] = rhs[i];
                }
            }
            let mut w = vec![0.0; len];
            solver.solve(&sub, &diag, &sup, &r, &mut w);
            for k in 0..len - 1 {
                let q = flux(k, w[k] - w[k + 1]);
                g.enthalpy_j[line[k]] -= q;
                g.enthalpy_j[line[k + 1]] += q;
            }
            for (k, &i) in line.iter().enumerate() {
                if ceff[i] != 0.0 {
                    rhs[i] = ceff[i] * w[k];
                }
            }
            w
        };
        for (axis, len, lanes, stride, lane_step) in [(0, nx, ny, 1, nx), (1, ny, nx, nx, 1)] {
            for li in 0..layers {
                let gdt = if axis == 0 {
                    g.lat_gx[li]
                } else {
                    g.lat_gy[li]
                } * wdt;
                if gdt <= 0.0 {
                    continue;
                }
                for lane in 0..lanes {
                    let line: Vec<usize> = (0..len)
                        .map(|k| li * cells + lane * lane_step + k * stride)
                        .collect();
                    let rows: Vec<(f64, f64, f64)> = line
                        .iter()
                        .enumerate()
                        .map(|(k, &i)| {
                            let (mut sub, mut diag, mut sup) = (0.0, ceff[i], 0.0);
                            if k > 0 {
                                diag += gdt;
                                sub = -gdt;
                            }
                            if k + 1 < len {
                                diag += gdt;
                                sup = -gdt;
                            }
                            (sub, diag, sup)
                        })
                        .collect();
                    sweep(g, &mut rhs, &line, &rows, &|_, dw| dw * gdt);
                }
            }
        }
        let (g_vert, g_sink) = (g.g_vert.clone(), g.g_sink_cell);
        for c in 0..cells {
            let line: Vec<usize> = (0..layers).map(|l| l * cells + c).collect();
            let rows: Vec<(f64, f64, f64)> = line
                .iter()
                .enumerate()
                .map(|(l, &i)| {
                    let g_up = if l > 0 { g_vert[l - 1] } else { 0.0 };
                    let g_dn = if l + 1 < layers { g_vert[l] } else { 0.0 };
                    let mut diag = ceff[i] + wdt * (g_up + g_dn);
                    if l + 1 == layers {
                        diag += wdt * g_sink;
                    }
                    (-wdt * g_up, diag, -wdt * g_dn)
                })
                .collect();
            let w = sweep(g, &mut rhs, &line, &rows, &|l, dw| dw * g_vert[l] * wdt);
            // The sink sees only the increment; the `T^n - ambient`
            // part was booked with the operator.
            let q_sink = w[layers - 1] * g_sink * wdt;
            g.enthalpy_j[line[layers - 1]] -= q_sink;
            g.boundary_absorbed_j += q_sink;
        }
    }

    /// Drives the reference step of `solver` with the sub-stepping and
    /// peak tracking of [`GridThermal::advance`].
    fn advance_reference(g: &mut GridThermal, dt_s: f64, solver: GridSolver) {
        if g.core_power_dirty {
            g.apply_core_power_map();
        }
        if dt_s > 0.0 {
            let bound = match solver {
                GridSolver::Explicit => g.sub_step_s,
                GridSolver::Adi => g.adi_sub_step_s,
            };
            let steps = (dt_s / bound).ceil().max(1.0) as u64;
            let sub = dt_s / steps as f64;
            for _ in 0..steps {
                match solver {
                    GridSolver::Explicit => {
                        explicit_step_reference(g, sub);
                    }
                    GridSolver::Adi => adi_step_reference(g, sub),
                }
                g.time_s += sub;
            }
        }
        g.track_peaks();
    }

    /// Every bit of state an `advance` leaves behind must agree.
    fn assert_same_state(engine: &GridThermal, reference: &GridThermal, at: &str) {
        for (i, (a, b)) in engine
            .enthalpy_j
            .iter()
            .zip(&reference.enthalpy_j)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {i} diverged {at}");
        }
        let scalars = [
            (engine.boundary_absorbed_j, reference.boundary_absorbed_j),
            (engine.junction_cache_c, reference.junction_cache_c),
            (
                engine.peak_hotspot_gradient_k,
                reference.peak_hotspot_gradient_k,
            ),
            (engine.time_s, reference.time_s),
        ];
        for (a, b) in scalars {
            assert_eq!(a.to_bits(), b.to_bits(), "ledger diverged {at}");
        }
        for (a, b) in engine
            .peak_cell_temps_c
            .iter()
            .zip(&reference.peak_cell_temps_c)
        {
            assert_eq!(a.to_bits(), b.to_bits(), "cell peak diverged {at}");
        }
    }

    /// Drives the engine (fallback off) and the reference side by side
    /// through `windows` seeded windows of random per-core power, every
    /// seventh `long_s` and the rest `short_s` long, comparing every bit
    /// after each.
    fn engine_matches_the_reference(
        params: GridThermalParams,
        windows: usize,
        (long_s, short_s): (f64, f64),
    ) {
        let params = params.with_adi_fallback(false);
        let solver = params.solver;
        let mut engine = params.clone().build();
        let mut reference = params.build();
        let cores = engine.params().floorplan.cores().len();
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for window in 0..windows {
            for core in 0..cores {
                // Mix busy, idle, and repeated-value windows so the
                // dirty-map early-out is exercised on both sides.
                let u = next();
                let watts = if u < 0.4 { 0.0 } else { 40.0 * u };
                engine.set_core_power_w(core, watts);
                reference.set_core_power_w(core, watts);
            }
            let dt = if window % 7 == 0 { long_s } else { short_s };
            engine.advance(dt);
            advance_reference(&mut reference, dt, solver);
            assert_same_state(
                &engine,
                &reference,
                &format!("{solver:?}, after window {window}"),
            );
        }
    }

    /// The rack preset with its plenum made laterally insulating: a
    /// layer that exchanges along neither axis.
    fn insulated_plenum_rack() -> GridThermalParams {
        let mut params = GridThermalParams::rack(2, 2);
        params.layers[1].lateral_r_square_k_per_w = f64::INFINITY;
        params
    }

    #[test]
    fn linear_fast_path_matches_general_adi_bit_for_bit() {
        // A PCM-free grid takes the engine's shared-factor path (no
        // per-lane factors); it must reproduce the uncached per-line
        // reference to the last bit, or every digest pinned downstream
        // (cluster, facility) would shift.
        let params = GridThermalParams::rack(2, 2);
        assert!(
            params.layers.iter().all(|l| l.phase_change.is_none()),
            "rack preset must be PCM-free for this test"
        );
        engine_matches_the_reference(params, 120, (0.05, 0.002));
    }

    #[test]
    fn line_and_insulated_grids_match_the_reference() {
        // Single-row and single-column grids (no y or no x exchange at
        // all) and a layer that exchanges along neither axis take the
        // edge cases of the gather and of the sweeps.
        for params in [
            GridThermalParams::rack(2, 2).with_grid(16, 1),
            GridThermalParams::rack(2, 2).with_grid(1, 16),
            insulated_plenum_rack(),
        ] {
            engine_matches_the_reference(params, 30, (0.05, 0.002));
        }
    }

    #[test]
    fn explicit_step_matches_the_edge_list_scatter() {
        // The explicit step is the gather alone: its term order must
        // round exactly like the edge list, on PCM and PCM-free stacks
        // and on every degenerate shape.
        for params in [
            GridThermalParams::rack(2, 2),
            GridThermalParams::rack(2, 2).with_grid(16, 1),
            GridThermalParams::rack(2, 2).with_grid(1, 16),
            insulated_plenum_rack(),
            GridThermalParams::hpca_like().with_grid(8, 6),
        ] {
            let params = params.with_solver(GridSolver::Explicit);
            let sub = params.clone().build().sub_step_s();
            engine_matches_the_reference(params, 24, (40.0 * sub, 3.5 * sub));
        }
    }

    /// Drives the PCM engine and the per-line reference side by side on
    /// an `nx x ny` paper stack through solid heating, the melting
    /// plateau (Dirichlet rows), full melt, refreeze and a reset, with
    /// window sizes that change the sub-step (a full refactor) now and
    /// then, comparing every cell after every window.
    fn pcm_engine_matches_the_reference(nx: usize, ny: usize) {
        let params = GridThermalParams::hpca_like()
            .with_grid(nx, ny)
            .with_solver(GridSolver::Adi)
            .with_adi_fallback(false);
        let mut engine = params.clone().build();
        let mut reference = params.build();
        assert!(
            engine.cell_layers.iter().any(|l| l.phase.is_some()),
            "the hpca preset must carry PCM for this test"
        );
        let sub = engine.adi_sub_step_s();
        // (chip watts, windows, sub-steps per window)
        let schedule = [
            (40.0, 90, 4.0),
            (24.0, 60, 4.0),
            (60.0, 40, 2.5),
            (0.0, 30, 9.0),
            (60.0, 60, 4.0),
            (0.0, 0, 0.0),
            (50.0, 20, 3.0),
            (0.0, 40, 12.0),
        ];
        let (mut melted, mut refroze) = (false, false);
        for (phase, &(watts, windows, steps)) in schedule.iter().enumerate() {
            if windows == 0 {
                engine.reset_to_ambient();
                reference.reset_to_ambient();
                assert_same_state(&engine, &reference, "after the reset");
                continue;
            }
            engine.set_chip_power_w(watts);
            reference.set_chip_power_w(watts);
            for window in 0..windows {
                engine.advance(steps * sub);
                advance_reference(&mut reference, steps * sub, GridSolver::Adi);
                assert_same_state(
                    &engine,
                    &reference,
                    &format!("in phase {phase}, window {window}"),
                );
            }
            let melt = engine.melt_fraction();
            melted |= melt > 0.05;
            refroze |= melted && watts == 0.0 && melt < 0.05;
        }
        assert!(
            melted && refroze,
            "the schedule must melt the PCM and refreeze it ({nx}x{ny})"
        );
    }

    #[test]
    fn batched_general_sweeps_match_the_per_line_reference_bit_for_bit() {
        pcm_engine_matches_the_reference(6, 5);
        pcm_engine_matches_the_reference(32, 32);
    }
}
