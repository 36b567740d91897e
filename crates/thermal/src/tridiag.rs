//! Thomas-algorithm solver for tridiagonal linear systems.
//!
//! The ADI grid solver ([`crate::grid`]) reduces each implicit sweep to
//! one tridiagonal system per grid line (a row, a column, or a vertical
//! layer stack), solved in O(n) time and O(n) scratch. A dense
//! factorization such as `powergrid::linalg::LuFactor` is the wrong tool
//! here on every axis: it stores the full `n x n` matrix (the ADI
//! systems are three-diagonal, everything else is structurally zero) and
//! factors in O(n^3). Thomas is the textbook O(n) elimination
//! specialized to this band structure; [`Tridiag`] is its per-line form
//! and keeps its two scratch vectors alive across calls, so the per-line
//! solve allocates nothing.
//!
//! No pivoting is performed; the caller must supply a system with
//! non-vanishing pivots. Diagonally dominant systems (every implicit
//! heat-conduction step produces one: `diag = C + dt * sum(G)` against
//! off-diagonals `-dt * G`) are always safe.
//!
//! The ADI sweeps reuse each *matrix* across many right-hand sides, so
//! the hot path never eliminates from scratch:
//!
//! * [`TridiagFactor`] — one factorization shared by every line of a
//!   sweep (a PCM-free layer: every row solves the identical system).
//! * `TridiagLanes` — one factorization *per line*, stored side by
//!   side in one plane (a PCM layer, whose melting-plateau cells turn
//!   their rows into fixed-temperature rows). A line is refactored only
//!   when one of its coefficients changes.
//!
//! Both capture the forward-elimination state (the `1/pivot`
//! reciprocals and the modified super-diagonal) and replay it per solve,
//! with the same operations in the same order as [`Tridiag::solve`], so
//! their solutions are bit-identical to it: switching between the paths
//! cannot perturb a trace.

/// A reusable Thomas solver. Holds the forward-elimination scratch so
/// repeated solves (one per grid line per sweep) allocate nothing after
/// the first call at a given size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tridiag {
    /// Modified super-diagonal coefficients.
    cp: Vec<f64>,
    /// Modified right-hand side.
    dp: Vec<f64>,
}

impl Tridiag {
    /// Creates a solver with no pre-reserved scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with scratch pre-reserved for systems up to
    /// `n` unknowns.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            cp: Vec::with_capacity(n),
            dp: Vec::with_capacity(n),
        }
    }

    /// Solves the tridiagonal system `A x = rhs` into `x`.
    ///
    /// Row `i` of `A` is `sub[i] * x[i-1] + diag[i] * x[i] + sup[i] *
    /// x[i+1] = rhs[i]`; `sub[0]` and `sup[n-1]` are ignored. All slices
    /// must have the same non-zero length. The inputs are not modified,
    /// so a caller may keep constant coefficient arrays across lines.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ or the system is empty.
    /// Numerical validity (non-vanishing pivots) is the caller's
    /// contract; a zero pivot yields non-finite output rather than a
    /// panic.
    pub fn solve(&mut self, sub: &[f64], diag: &[f64], sup: &[f64], rhs: &[f64], x: &mut [f64]) {
        let n = diag.len();
        assert!(n > 0, "empty tridiagonal system");
        assert!(
            sub.len() == n && sup.len() == n && rhs.len() == n && x.len() == n,
            "tridiagonal slice lengths must match"
        );
        self.cp.clear();
        self.cp.resize(n, 0.0);
        self.dp.clear();
        self.dp.resize(n, 0.0);
        let m0 = 1.0 / diag[0];
        self.cp[0] = sup[0] * m0;
        self.dp[0] = rhs[0] * m0;
        for i in 1..n {
            // One reciprocal per row: the two eliminations share it.
            let m = 1.0 / (diag[i] - sub[i] * self.cp[i - 1]);
            self.cp[i] = sup[i] * m;
            self.dp[i] = (rhs[i] - sub[i] * self.dp[i - 1]) * m;
        }
        x[n - 1] = self.dp[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = self.dp[i] - self.cp[i] * x[i + 1];
        }
    }
}

/// A prefactored tridiagonal matrix: the Thomas forward-elimination
/// state (`1/pivot` reciprocals and modified super-diagonal) captured
/// once, replayed against any number of right-hand sides.
///
/// Solutions are bit-identical to [`Tridiag::solve`] on the same
/// coefficients — same operations, same order — with the per-row
/// division amortized into construction.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TridiagFactor {
    /// Sub-diagonal (needed to eliminate each rhs).
    sub: Vec<f64>,
    /// Modified super-diagonal coefficients (`cp` of the Thomas pass).
    cp: Vec<f64>,
    /// Pivot reciprocals, one per row.
    m: Vec<f64>,
}

impl TridiagFactor {
    /// Factors the system once. Slice conventions (and the pivot
    /// contract) match [`Tridiag::solve`].
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ or the system is empty.
    pub fn new(sub: &[f64], diag: &[f64], sup: &[f64]) -> Self {
        let n = diag.len();
        assert!(n > 0, "empty tridiagonal system");
        assert!(
            sub.len() == n && sup.len() == n,
            "tridiagonal slice lengths must match"
        );
        let mut cp = vec![0.0; n];
        let mut m = vec![0.0; n];
        m[0] = 1.0 / diag[0];
        cp[0] = sup[0] * m[0];
        for i in 1..n {
            m[i] = 1.0 / (diag[i] - sub[i] * cp[i - 1]);
            cp[i] = sup[i] * m[i];
        }
        Self {
            sub: sub.to_vec(),
            cp,
            m,
        }
    }

    /// Number of unknowns the factorization was built for.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// True for a zero-unknown factorization (never constructible via
    /// [`Self::new`], which rejects empty systems).
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Solves `A x = rhs` for the prefactored `A`. The forward pass
    /// runs in `x` itself, so no scratch is needed.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` or `x` disagree with the factored size.
    pub fn solve(&self, rhs: &[f64], x: &mut [f64]) {
        let n = self.m.len();
        assert!(
            rhs.len() == n && x.len() == n,
            "tridiagonal slice lengths must match"
        );
        x[0] = rhs[0] * self.m[0];
        for i in 1..n {
            x[i] = (rhs[i] - self.sub[i] * x[i - 1]) * self.m[i];
        }
        for i in (0..n - 1).rev() {
            x[i] -= self.cp[i] * x[i + 1];
        }
    }

    /// Solves `width` independent systems sharing this factorization in
    /// one interleaved pass: lane `j` of system row `i` lives at
    /// `rhs[i * width + j]` (and likewise in `x`). Each lane performs
    /// exactly the operations of [`Self::solve`] in the same order, so
    /// lane `j`'s solution is bit-identical to a per-lane `solve` on the
    /// strided gather — the batching only changes which *lane* runs
    /// next, never the arithmetic within a lane. The ADI grid sweeps use
    /// this to walk column and stack systems plane-by-plane with unit
    /// stride instead of line-by-line with grid stride.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the slices are not `len() * width`.
    pub fn solve_planar(&self, rhs: &[f64], x: &mut [f64], width: usize) {
        let n = self.m.len();
        assert!(width > 0, "planar solve needs at least one lane");
        assert!(
            rhs.len() == n * width && x.len() == n * width,
            "tridiagonal slice lengths must match"
        );
        interleaved_solve(
            n,
            width,
            rhs,
            x,
            |i| (self.sub[i], self.m[i]),
            |i| self.cp[i],
        );
    }

    /// Solves a bundle of *contiguous* lines sharing this factorization:
    /// `rhs` holds `count = rhs.len() / len()` whole lines back to back
    /// (line `j` at `rhs[j * len() ..][.. len()]`), the layout ADI row
    /// sweeps produce naturally. The lines advance in lockstep — step
    /// `i` of every line before step `i + 1` of any — so their
    /// independent recurrences overlap instead of each line waiting out
    /// its own dependency chain. Line `j`'s arithmetic is exactly
    /// [`Self::solve`]'s, so its solution matches a per-line `solve` bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` and `x` differ in length, or their length is not
    /// a non-zero multiple of the factored size.
    pub fn solve_batch(&self, rhs: &[f64], x: &mut [f64]) {
        let n = self.m.len();
        assert!(
            rhs.len() == x.len() && !rhs.is_empty() && rhs.len().is_multiple_of(n),
            "batched slice lengths must be a non-zero multiple of the factored size"
        );
        contiguous_solve(n, rhs, x, |i| (self.sub[i], self.m[i]), |i| self.cp[i]);
    }
}

/// How the lines of a [`TridiagLanes`] plane are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) enum LineLayout {
    /// Line `j` occupies `[j * len, (j + 1) * len)`: the rows of an ADI
    /// layer plane.
    Contiguous,
    /// Row `i` of line `j` sits at `i * lanes + j`: the columns of an ADI
    /// layer plane, or the vertical stacks of the whole grid.
    Interleaved,
}

/// Per-line factorizations of `lanes` independent tridiagonal systems
/// of `len` unknowns each, stored side by side (row `i` of every line,
/// then row `i + 1`), solving right-hand sides in either
/// [`LineLayout`].
///
/// Where [`TridiagFactor`] shares one factorization across every line,
/// this keeps one per line, so lines with different coefficients (the
/// ADI rows of a PCM layer, where melting-plateau cells are
/// fixed-temperature rows) still replay a cached elimination; a caller
/// refactors only the lines whose coefficients changed. Every line
/// performs exactly [`Tridiag::solve`]'s operations in the same order,
/// so its solution is bit-identical to the per-line solve.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct TridiagLanes {
    len: usize,
    lanes: usize,
    layout: LineLayout,
    /// Sub-diagonal per line row.
    sub: Vec<f64>,
    /// Modified super-diagonal per line row.
    cp: Vec<f64>,
    /// Pivot reciprocal per line row.
    m: Vec<f64>,
}

impl TridiagLanes {
    /// Zeroed planes for `lanes` systems of `len` unknowns. Every line
    /// must be factored ([`Self::factor_lane`]) before the first solve.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `lanes` is zero.
    pub fn new(len: usize, lanes: usize, layout: LineLayout) -> Self {
        assert!(len > 0 && lanes > 0, "empty tridiagonal system");
        let plane = vec![0.0; len * lanes];
        Self {
            len,
            lanes,
            layout,
            sub: plane.clone(),
            cp: plane.clone(),
            m: plane,
        }
    }

    /// (Re)factors line `lane` from its coefficients: `coeffs(i)`
    /// returns row `i`'s `(sub, diag, sup)` (conventions and pivot
    /// contract as in [`Tridiag::solve`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn factor_lane(&mut self, lane: usize, mut coeffs: impl FnMut(usize) -> (f64, f64, f64)) {
        assert!(lane < self.lanes, "lane out of range");
        let mut cp_prev = 0.0;
        for i in 0..self.len {
            let (sub, diag, sup) = coeffs(i);
            let m = if i == 0 {
                1.0 / diag
            } else {
                1.0 / (diag - sub * cp_prev)
            };
            cp_prev = sup * m;
            let p = i * self.lanes + lane;
            self.sub[p] = sub;
            self.cp[p] = cp_prev;
            self.m[p] = m;
        }
    }

    /// Solves every line against its own factorization; `rhs` and `x`
    /// use the plane's layout.
    ///
    /// # Panics
    ///
    /// Panics unless `rhs` and `x` hold exactly `len * lanes` values.
    pub fn solve(&self, rhs: &[f64], x: &mut [f64]) {
        let (n, w) = (self.len, self.lanes);
        assert!(
            rhs.len() == n * w && x.len() == n * w,
            "tridiagonal slice lengths must match"
        );
        let fwd = |i: usize| (&self.sub[i * w..][..w], &self.m[i * w..][..w]);
        let back = |i: usize| &self.cp[i * w..][..w];
        match self.layout {
            LineLayout::Contiguous => contiguous_solve(n, rhs, x, fwd, back),
            LineLayout::Interleaved => interleaved_solve(n, w, rhs, x, fwd, back),
        }
    }
}

/// One row's replay coefficients across the lines of a batch: a single
/// value every line shares ([`TridiagFactor`]), or one value per line
/// ([`TridiagLanes`]).
trait RowCoef: Copy {
    /// Line `j`'s value.
    fn lane(self, j: usize) -> f64;
}

impl RowCoef for f64 {
    #[inline(always)]
    fn lane(self, _: usize) -> f64 {
        self
    }
}

impl RowCoef for &[f64] {
    #[inline(always)]
    fn lane(self, j: usize) -> f64 {
        self[j]
    }
}

/// The replayed Thomas passes over `width` interleaved lines of `n`
/// rows, one unit-stride plane row at a time: `fwd(i)` yields row `i`'s
/// `(sub, 1/pivot)` and `back(i)` its modified super-diagonal.
#[inline(always)]
fn interleaved_solve<C: RowCoef>(
    n: usize,
    width: usize,
    rhs: &[f64],
    x: &mut [f64],
    fwd: impl Fn(usize) -> (C, C),
    back: impl Fn(usize) -> C,
) {
    let (x0, r0, m) = (&mut x[..width], &rhs[..width], fwd(0).1);
    for j in 0..width {
        x0[j] = r0[j] * m.lane(j);
    }
    for i in 1..n {
        let (s, m) = fwd(i);
        let (done, rest) = x.split_at_mut(i * width);
        let prev = &done[(i - 1) * width..][..width];
        let row = &rhs[i * width..][..width];
        let xi = &mut rest[..width];
        for j in 0..width {
            xi[j] = (row[j] - s.lane(j) * prev[j]) * m.lane(j);
        }
    }
    for i in (0..n - 1).rev() {
        let c = back(i);
        let (head, next) = x.split_at_mut((i + 1) * width);
        let (xi, next) = (&mut head[i * width..][..width], &next[..width]);
        for j in 0..width {
            xi[j] -= c.lane(j) * next[j];
        }
    }
}

/// The replayed Thomas passes over contiguous lines of `n` rows, in
/// lockstep across lines. Coefficients as in [`interleaved_solve`].
#[inline(always)]
fn contiguous_solve<C: RowCoef>(
    n: usize,
    rhs: &[f64],
    x: &mut [f64],
    fwd: impl Fn(usize) -> (C, C),
    back: impl Fn(usize) -> C,
) {
    let lines = x.len() / n;
    let m = fwd(0).1;
    for j in 0..lines {
        x[j * n] = rhs[j * n] * m.lane(j);
    }
    for i in 1..n {
        let (s, m) = fwd(i);
        for j in 0..lines {
            let p = j * n + i;
            x[p] = (rhs[p] - s.lane(j) * x[p - 1]) * m.lane(j);
        }
    }
    for i in (0..n - 1).rev() {
        let c = back(i);
        for j in 0..lines {
            let p = j * n + i;
            x[p] -= c.lane(j) * x[p + 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `A x` for a tridiagonal `A` given as (sub, diag, sup).
    fn apply(sub: &[f64], diag: &[f64], sup: &[f64], x: &[f64]) -> Vec<f64> {
        let n = diag.len();
        (0..n)
            .map(|i| {
                let mut v = diag[i] * x[i];
                if i > 0 {
                    v += sub[i] * x[i - 1];
                }
                if i + 1 < n {
                    v += sup[i] * x[i + 1];
                }
                v
            })
            .collect()
    }

    #[test]
    fn solves_a_scalar_system() {
        let mut t = Tridiag::new();
        let mut x = [0.0];
        t.solve(&[0.0], &[4.0], &[0.0], &[8.0], &mut x);
        assert!((x[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn solves_a_known_3x3_system() {
        // [ 2 -1  0 ] [x0]   [1]
        // [-1  2 -1 ] [x1] = [0]   => x = [3/4, 1/2, 1/4]
        // [ 0 -1  2 ] [x2]   [0]
        let mut t = Tridiag::new();
        let mut x = [0.0; 3];
        t.solve(
            &[0.0, -1.0, -1.0],
            &[2.0, 2.0, 2.0],
            &[-1.0, -1.0, 0.0],
            &[1.0, 0.0, 0.0],
            &mut x,
        );
        for (got, want) in x.iter().zip([0.75, 0.5, 0.25]) {
            assert!((got - want).abs() < 1e-14, "got {x:?}");
        }
    }

    #[test]
    fn dirichlet_rows_pass_through() {
        // A "plateau" row (diag 1, zero couplings) must return its rhs
        // exactly, while neighbours still feel its fixed value.
        let n = 5;
        let sub = vec![-0.3; n];
        let mut diag = vec![2.0; n];
        let mut sup = vec![-0.3; n];
        let mut rhs = vec![1.0; n];
        diag[2] = 1.0;
        sup[2] = 0.0;
        rhs[2] = 42.0;
        let mut sub2 = sub.clone();
        sub2[2] = 0.0;
        let mut x = vec![0.0; n];
        Tridiag::new().solve(&sub2, &diag, &sup, &rhs, &mut x);
        assert!((x[2] - 42.0).abs() < 1e-12);
        let back = apply(&sub2, &diag, &sup, &x);
        for (got, want) in back.iter().zip(rhs.iter()) {
            assert!((got - want).abs() < 1e-10, "residual too large: {back:?}");
        }
    }

    #[test]
    fn random_diagonally_dominant_systems_round_trip() {
        // Deterministic LCG coefficients: no external PRNG needed, and
        // the residual check catches any indexing slip.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let mut solver = Tridiag::with_capacity(33);
        for n in 1..=33usize {
            let mut sub = vec![0.0; n];
            let mut diag = vec![0.0; n];
            let mut sup = vec![0.0; n];
            let mut rhs = vec![0.0; n];
            for i in 0..n {
                if i > 0 {
                    sub[i] = next();
                }
                if i + 1 < n {
                    sup[i] = next();
                }
                // Strict dominance keeps the pivots healthy.
                diag[i] = 2.5 + next().abs() + sub[i].abs() + sup[i].abs();
                rhs[i] = 10.0 * next();
            }
            let mut x = vec![0.0; n];
            solver.solve(&sub, &diag, &sup, &rhs, &mut x);
            let back = apply(&sub, &diag, &sup, &x);
            for i in 0..n {
                assert!(
                    (back[i] - rhs[i]).abs() < 1e-9,
                    "n={n} row {i}: residual {}",
                    back[i] - rhs[i]
                );
            }
        }
    }

    #[test]
    fn factored_solve_is_bit_identical_to_direct() {
        // The ADI cache swaps `Tridiag::solve` for a prefactored replay;
        // the swap must not move a single bit, or cached and uncached
        // sweeps would diverge.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let mut solver = Tridiag::new();
        for n in [1usize, 2, 3, 8, 33] {
            let mut sub = vec![0.0; n];
            let mut diag = vec![0.0; n];
            let mut sup = vec![0.0; n];
            for i in 0..n {
                if i > 0 {
                    sub[i] = next();
                }
                if i + 1 < n {
                    sup[i] = next();
                }
                diag[i] = 2.5 + next().abs() + sub[i].abs() + sup[i].abs();
            }
            let factor = TridiagFactor::new(&sub, &diag, &sup);
            assert_eq!(factor.len(), n);
            for _ in 0..3 {
                let rhs: Vec<f64> = (0..n).map(|_| 10.0 * next()).collect();
                let mut x_direct = vec![0.0; n];
                let mut x_factored = vec![0.0; n];
                solver.solve(&sub, &diag, &sup, &rhs, &mut x_direct);
                factor.solve(&rhs, &mut x_factored);
                for i in 0..n {
                    assert_eq!(
                        x_direct[i].to_bits(),
                        x_factored[i].to_bits(),
                        "n={n} row {i}: {} vs {}",
                        x_direct[i],
                        x_factored[i]
                    );
                }
            }
        }
    }

    #[test]
    fn planar_solve_is_bit_identical_per_lane() {
        // The batched ADI sweeps rely on every lane of `solve_planar`
        // matching a strided per-line `solve` bit-for-bit.
        let mut state = 0x853c_49e6_748f_ea9b_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        for (n, width) in [(1usize, 3usize), (2, 1), (5, 4), (16, 16)] {
            let mut sub = vec![0.0; n];
            let mut diag = vec![0.0; n];
            let mut sup = vec![0.0; n];
            for i in 0..n {
                if i > 0 {
                    sub[i] = next();
                }
                if i + 1 < n {
                    sup[i] = next();
                }
                diag[i] = 2.5 + next().abs() + sub[i].abs() + sup[i].abs();
            }
            let factor = TridiagFactor::new(&sub, &diag, &sup);
            let rhs: Vec<f64> = (0..n * width).map(|_| 10.0 * next()).collect();
            let mut x_planar = vec![0.0; n * width];
            factor.solve_planar(&rhs, &mut x_planar, width);
            for lane in 0..width {
                let lane_rhs: Vec<f64> = (0..n).map(|i| rhs[i * width + lane]).collect();
                let mut lane_x = vec![0.0; n];
                factor.solve(&lane_rhs, &mut lane_x);
                for i in 0..n {
                    assert_eq!(
                        lane_x[i].to_bits(),
                        x_planar[i * width + lane].to_bits(),
                        "n={n} width={width} lane={lane} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_factor_solve_is_bit_identical_per_line() {
        // `solve_batch` advances contiguous lines in lockstep; every line
        // must come back bit-identical to a per-line `solve`, or the
        // batched ADI row sweeps would perturb traces.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        for (n, count) in [(1usize, 4usize), (3, 1), (8, 5), (16, 16), (33, 7)] {
            let mut sub = vec![0.0; n];
            let mut diag = vec![0.0; n];
            let mut sup = vec![0.0; n];
            for i in 0..n {
                if i > 0 {
                    sub[i] = next();
                }
                if i + 1 < n {
                    sup[i] = next();
                }
                diag[i] = 2.5 + next().abs() + sub[i].abs() + sup[i].abs();
            }
            let factor = TridiagFactor::new(&sub, &diag, &sup);
            let rhs: Vec<f64> = (0..n * count).map(|_| 10.0 * next()).collect();
            let mut x_batch = vec![0.0; n * count];
            factor.solve_batch(&rhs, &mut x_batch);
            for line in 0..count {
                let mut x_line = vec![0.0; n];
                factor.solve(&rhs[line * n..(line + 1) * n], &mut x_line);
                for i in 0..n {
                    assert_eq!(
                        x_line[i].to_bits(),
                        x_batch[line * n + i].to_bits(),
                        "n={n} count={count} line={line} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_general_solve_is_bit_identical_per_lane() {
        // Per-line factors carry per-lane coefficients (the PCM path:
        // melting-plateau cells become Dirichlet rows in *some* lanes);
        // in either plane layout, every lane must match a per-line
        // `solve` bit for bit, also after a lane is refactored.
        let mut state = 0xfeed_face_cafe_beef_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let mut solver = Tridiag::new();
        for layout in [LineLayout::Contiguous, LineLayout::Interleaved] {
            for (n, lanes) in [(1usize, 3usize), (4, 1), (8, 8), (16, 5)] {
                let at = |i: usize, j: usize| match layout {
                    LineLayout::Contiguous => j * n + i,
                    LineLayout::Interleaved => i * lanes + j,
                };
                let total = n * lanes;
                let mut sub = vec![0.0; total];
                let mut diag = vec![0.0; total];
                let mut sup = vec![0.0; total];
                let mut factors = TridiagLanes::new(n, lanes, layout);
                for round in 0..2 {
                    for j in 0..lanes {
                        // Round 1 refactors every other lane only.
                        if round == 1 && j % 2 == 0 {
                            continue;
                        }
                        for i in 0..n {
                            let k = at(i, j);
                            sub[k] = if i > 0 { next() } else { 0.0 };
                            sup[k] = if i + 1 < n { next() } else { 0.0 };
                            diag[k] = 2.5 + next().abs() + sub[k].abs() + sup[k].abs();
                        }
                        // Sprinkle Dirichlet (plateau) rows into odd
                        // lanes, the pattern the linearized PCM sweeps
                        // produce.
                        if j % 2 == 1 && n > 2 {
                            let k = at(n / 2, j);
                            sub[k] = 0.0;
                            diag[k] = 1.0;
                            sup[k] = 0.0;
                        }
                        factors.factor_lane(j, |i| (sub[at(i, j)], diag[at(i, j)], sup[at(i, j)]));
                    }
                    let rhs: Vec<f64> = (0..total).map(|_| 10.0 * next()).collect();
                    let mut x_batch = vec![0.0; total];
                    factors.solve(&rhs, &mut x_batch);
                    for j in 0..lanes {
                        let gather = |plane: &[f64]| -> Vec<f64> {
                            (0..n).map(|i| plane[at(i, j)]).collect()
                        };
                        let (s, d, u, r) =
                            (gather(&sub), gather(&diag), gather(&sup), gather(&rhs));
                        let mut x_line = vec![0.0; n];
                        solver.solve(&s, &d, &u, &r, &mut x_line);
                        for i in 0..n {
                            assert_eq!(
                                x_line[i].to_bits(),
                                x_batch[at(i, j)].to_bits(),
                                "{layout:?} n={n} lanes={lanes} lane={j} row {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero multiple")]
    fn a_batch_must_hold_whole_lines() {
        let factor = TridiagFactor::new(&[0.0, -1.0], &[2.0, 2.0], &[-1.0, 0.0]);
        let mut x = [0.0; 3];
        factor.solve_batch(&[1.0; 3], &mut x);
    }

    #[test]
    #[should_panic(expected = "slice lengths must match")]
    fn a_lanes_plane_must_match_its_shape() {
        let lanes = TridiagLanes::new(2, 3, LineLayout::Interleaved);
        let mut x = [0.0; 5];
        lanes.solve(&[1.0; 5], &mut x);
    }

    #[test]
    #[should_panic(expected = "empty tridiagonal system")]
    fn empty_system_rejected() {
        Tridiag::new().solve(&[], &[], &[], &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "slice lengths must match")]
    fn mismatched_lengths_rejected() {
        let mut x = [0.0; 2];
        Tridiag::new().solve(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &[1.0, 1.0], &mut x);
    }
}
