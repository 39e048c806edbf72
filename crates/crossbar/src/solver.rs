//! Resistive-mesh solvers: from programmed conductances to the effective
//! `G_nonideal` of Fig. 3(b).
//!
//! Topology (one tile, `rows` inputs × `cols` outputs):
//!
//! ```text
//! V_i ─[Rdriver]─ a_i0 ─[Rwire_row]─ a_i1 ─ … ─ a_i,cols-1      (row wires)
//!                  │G_i0              │G_i1
//!                 b_00 ─[Rwire_col]─ b_10 ─ … ─ b_rows-1,0      (column wires)
//!                                                │
//!                                         [Rwire_col + Rsense]
//!                                                ⏚  (virtual ground)
//! ```
//!
//! Every cell couples its row node `a_ij` to its column node `b_ij` through
//! the programmed conductance `G_ij`. The *effective* conductance is
//! extracted under unit drive on every row (the RxNN-style calibration
//! condition): `G'_ij = I_ij` with all `V_i = 1`, which bakes both the
//! series IR drops and the shared-wire loading into a linear operator.

use crate::{CrossbarError, NonIdealities, SolverKind};
use ahw_telemetry as telemetry;

/// Resistive-mesh solves performed (one per programmed tile) — counts how
/// often non-idealities were applied to a conductance matrix.
static SOLVES: telemetry::LazyCounter = telemetry::LazyCounter::new("crossbar.solver.solves");

/// Floor applied to parasitic resistances so ideal (zero) values stay
/// numerically regular in the exact solver.
const R_FLOOR: f64 = 1e-9;

/// Extracts the effective conductance matrix `G'` (row-major
/// `rows × cols`) from programmed conductances `g` under the given
/// non-idealities, using the configured solver.
///
/// # Errors
///
/// Returns [`CrossbarError::BadParams`] for shape mismatches and
/// [`CrossbarError::SolverDiverged`] if the relaxation fails to settle or
/// yields a non-finite cell current.
pub fn extract_effective_conductance(
    g: &[f32],
    rows: usize,
    cols: usize,
    ni: &NonIdealities,
    solver: SolverKind,
) -> Result<Vec<f32>, CrossbarError> {
    if g.len() != rows * cols || rows == 0 || cols == 0 {
        return Err(CrossbarError::BadParams(format!(
            "conductance buffer {} does not match {rows}x{cols}",
            g.len()
        )));
    }
    SOLVES.incr();
    match solver {
        SolverKind::Relaxation { sweeps } => relax(g, rows, cols, ni, sweeps.max(1)),
        SolverKind::Exact => solve_mesh_exact(g, rows, cols, ni),
    }
}

/// `lanes` independent symmetric tridiagonal ladders of equal length with a
/// constant off-diagonal `off`, factored once (Thomas forward elimination)
/// and stored position-major — unknown `k` of ladder `l` at `k·lanes + l` —
/// so every elimination and substitution step is one contiguous loop across
/// all ladders. Each unknown sees exactly the IEEE operations, in the same
/// order, of a one-ladder-at-a-time Thomas solve.
///
/// Only the reduced diagonal is kept: a substitution re-derives the
/// multiplier `off / diag[k-1]` from it, the same division the elimination
/// made. Keeping the multipliers too would hold two more arrays per solve on
/// every pool worker, which raised the benchmark's peak memory by about 3 %.
struct Ladders<'a> {
    lanes: usize,
    off: f64,
    /// Diagonal after forward elimination.
    diag: &'a [f64],
}

impl<'a> Ladders<'a> {
    /// Forward-eliminates, in place, the ladders whose unreduced diagonal
    /// is `diag`.
    fn factor(diag: &'a mut [f64], lanes: usize, off: f64) -> Self {
        for k in 1..diag.len() / lanes {
            let (done, rest) = diag.split_at_mut(k * lanes);
            for (d, &p) in rest[..lanes].iter_mut().zip(&done[(k - 1) * lanes..]) {
                let m = off / p;
                *d -= m * off;
            }
        }
        Ladders { lanes, off, diag }
    }

    /// Solves every ladder in place: `x` holds the right-hand sides on entry
    /// and the solutions on return.
    fn solve(&self, x: &mut [f64]) {
        let (lanes, off) = (self.lanes, self.off);
        let len = self.diag.len() / lanes;
        for k in 1..len {
            let (done, rest) = x.split_at_mut(k * lanes);
            let prev = &done[(k - 1) * lanes..];
            let diag = &self.diag[(k - 1) * lanes..k * lanes];
            for ((r, &p), &d) in rest[..lanes].iter_mut().zip(prev).zip(diag) {
                *r -= off / d * p;
            }
        }
        let last = (len - 1) * lanes;
        for (r, &d) in x[last..].iter_mut().zip(&self.diag[last..]) {
            *r /= d;
        }
        for k in (0..len - 1).rev() {
            let (head, tail) = x.split_at_mut((k + 1) * lanes);
            let diag = &self.diag[k * lanes..(k + 1) * lanes];
            for ((r, &n), &d) in head[k * lanes..].iter_mut().zip(&tail[..lanes]).zip(diag) {
                *r = (*r - off * n) / d;
            }
        }
    }
}

/// Alternating block Gauss–Seidel over the two wire systems: each sweep
/// solves every row ladder exactly (tridiagonal, with the cell devices as
/// loads towards the column-node potentials of the previous half-sweep) and
/// then every column ladder exactly. The only approximation left between
/// sweeps is the row↔column coupling through the (comparatively tiny)
/// device conductances, so convergence is fast even at operating points
/// where the wires drop a large fraction of the supply.
///
/// A ladder's matrix depends only on `g`, so every ladder is factored once
/// before the first sweep and a sweep only substitutes. The ladders of one
/// direction are independent and run in lockstep ([`Ladders`]): row-node
/// voltages are kept `j`-major and column-node voltages `i`-major, so the
/// inner loops run across ladders. Every unknown still sees the operations
/// of a one-ladder Thomas solve in the same order, and Rust never contracts
/// `a·b + c` into an FMA, so the result does not depend on the batching.
///
/// The solve has not settled — [`CrossbarError::SolverDiverged`] — when the
/// last sweep moved a cell current by more than 0.1 % of the largest one,
/// or when any cell current is not finite.
fn relax(
    g: &[f32],
    rows: usize,
    cols: usize,
    ni: &NonIdealities,
    sweeps: usize,
) -> Result<Vec<f32>, CrossbarError> {
    let g_d = 1.0 / (ni.r_driver as f64).max(R_FLOOR);
    let g_r = 1.0 / (ni.r_wire_row as f64).max(R_FLOOR);
    let g_c = 1.0 / (ni.r_wire_col as f64).max(R_FLOOR);
    let g_s = 1.0 / ((ni.r_wire_col as f64) + (ni.r_sense as f64)).max(R_FLOOR);
    let n = rows * cols;
    let mut scratch = vec![0.0f64; 5 * n];
    let mut arrays = scratch.chunks_exact_mut(n);
    let mut next = || arrays.next().expect("five scratch arrays");
    let (row_diag, col_diag) = (next(), next());
    let v = next(); // row-node voltages, j-major
    let u = next(); // column-node voltages, i-major
    let current = next();

    // row ladders: unknown v_ij along j, loads G_ij towards fixed u_ij
    for (i, g_row) in g.chunks_exact(cols).enumerate() {
        for (j, &gij) in g_row.iter().enumerate() {
            let left = if j == 0 { g_d } else { g_r };
            let right = if j + 1 < cols { g_r } else { 0.0 };
            row_diag[j * rows + i] = gij as f64 + left + right;
        }
    }
    let row_ladders = Ladders::factor(row_diag, rows, -g_r);
    // column ladders: unknown u_ij along i, loads G_ij towards fixed
    // v_ij, bottom node grounded through Rwire_col + Rsense
    for (i, (g_row, d_row)) in g
        .chunks_exact(cols)
        .zip(col_diag.chunks_exact_mut(cols))
        .enumerate()
    {
        let above = if i == 0 { 0.0 } else { g_c };
        let below = if i + 1 < rows { g_c } else { g_s };
        for (d, &gij) in d_row.iter_mut().zip(g_row) {
            *d = gij as f64 + above + below;
        }
    }
    let col_ladders = Ladders::factor(col_diag, cols, -g_c);

    let mut residual = f64::INFINITY;
    for _ in 0..sweeps {
        for (i, (g_row, u_row)) in g.chunks_exact(cols).zip(u.chunks_exact(cols)).enumerate() {
            for (j, (&gij, &uij)) in g_row.iter().zip(u_row).enumerate() {
                v[j * rows + i] = gij as f64 * uij + if j == 0 { g_d } else { 0.0 };
            }
        }
        row_ladders.solve(v);
        for (i, (g_row, u_row)) in g
            .chunks_exact(cols)
            .zip(u.chunks_exact_mut(cols))
            .enumerate()
        {
            for (j, (&gij, uij)) in g_row.iter().zip(u_row).enumerate() {
                *uij = gij as f64 * v[j * rows + i];
            }
        }
        col_ladders.solve(u);
        // cell currents and convergence measure
        residual = 0.0;
        let cells = g.chunks_exact(cols).zip(u.chunks_exact(cols));
        for (i, ((g_row, u_row), c_row)) in cells.zip(current.chunks_exact_mut(cols)).enumerate() {
            for (j, ((&gij, &uij), c)) in g_row.iter().zip(u_row).zip(c_row).enumerate() {
                let new = gij as f64 * (v[j * rows + i] - uij);
                residual = residual.max((new - *c).abs());
                *c = new;
            }
        }
        if !residual.is_finite() {
            break;
        }
    }
    let worst = current.iter().cloned().fold(0.0f64, f64::max).max(1e-30);
    if !residual.is_finite() || residual > worst * 1e-3 || current.iter().any(|c| !c.is_finite()) {
        return Err(CrossbarError::SolverDiverged {
            residual: residual as f32,
            iterations: sweeps,
        });
    }
    Ok(current.iter().map(|&c| c as f32).collect())
}

/// Exact dense nodal analysis of the full `2·rows·cols` resistive mesh
/// (Gaussian elimination with partial pivoting, `f64`). Cubic cost — use for
/// arrays up to ~32×32 and for validating the relaxation solver.
///
/// # Errors
///
/// Returns [`CrossbarError::BadParams`] for shape mismatches or an array too
/// large to factor densely (more than 4096 unknowns).
pub fn solve_mesh_exact(
    g: &[f32],
    rows: usize,
    cols: usize,
    ni: &NonIdealities,
) -> Result<Vec<f32>, CrossbarError> {
    if g.len() != rows * cols || rows == 0 || cols == 0 {
        return Err(CrossbarError::BadParams(format!(
            "conductance buffer {} does not match {rows}x{cols}",
            g.len()
        )));
    }
    let n = 2 * rows * cols;
    if n > 4096 {
        return Err(CrossbarError::BadParams(format!(
            "{rows}x{cols} mesh has {n} unknowns; exact solver caps at 4096"
        )));
    }
    let a_idx = |i: usize, j: usize| i * cols + j;
    let b_idx = |i: usize, j: usize| rows * cols + i * cols + j;
    let g_d = 1.0 / (ni.r_driver as f64).max(R_FLOOR);
    let g_r = 1.0 / (ni.r_wire_row as f64).max(R_FLOOR);
    let g_c = 1.0 / (ni.r_wire_col as f64).max(R_FLOOR);
    let g_s = 1.0 / ((ni.r_wire_col as f64) + (ni.r_sense as f64)).max(R_FLOOR);

    let mut mat = vec![0.0f64; n * n];
    let mut rhs = vec![0.0f64; n];
    fn stamp(mat: &mut [f64], n: usize, p: usize, q: usize, cond: f64) {
        mat[p * n + p] += cond;
        mat[q * n + q] += cond;
        mat[p * n + q] -= cond;
        mat[q * n + p] -= cond;
    }
    for i in 0..rows {
        for j in 0..cols {
            // device
            stamp(
                &mut mat,
                n,
                a_idx(i, j),
                b_idx(i, j),
                g[i * cols + j] as f64,
            );
            // row wire to the next node
            if j + 1 < cols {
                stamp(&mut mat, n, a_idx(i, j), a_idx(i, j + 1), g_r);
            }
            // column wire to the next node
            if i + 1 < rows {
                stamp(&mut mat, n, b_idx(i, j), b_idx(i + 1, j), g_c);
            }
        }
        // driver: a_i0 to the unit source through Rdriver
        let p = a_idx(i, 0);
        mat[p * n + p] += g_d;
        rhs[p] += g_d; // V_i = 1
    }
    for j in 0..cols {
        // sense path to ground from the bottom node
        let p = b_idx(rows - 1, j);
        mat[p * n + p] += g_s;
    }

    let x = gaussian_solve(&mut mat, &mut rhs, n)?;
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            let va = x[a_idx(i, j)];
            let vb = x[b_idx(i, j)];
            out[i * cols + j] = (g[i * cols + j] as f64 * (va - vb)) as f32;
        }
    }
    Ok(out)
}

/// In-place Gaussian elimination with partial pivoting.
fn gaussian_solve(mat: &mut [f64], rhs: &mut [f64], n: usize) -> Result<Vec<f64>, CrossbarError> {
    for k in 0..n {
        // pivot
        let mut piv = k;
        let mut best = mat[k * n + k].abs();
        for r in (k + 1)..n {
            let v = mat[r * n + k].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-30 {
            return Err(CrossbarError::BadParams(
                "singular mesh matrix (disconnected node?)".into(),
            ));
        }
        if piv != k {
            for c in 0..n {
                mat.swap(k * n + c, piv * n + c);
            }
            rhs.swap(k, piv);
        }
        let pivot = mat[k * n + k];
        for r in (k + 1)..n {
            let factor = mat[r * n + k] / pivot;
            if factor == 0.0 {
                continue;
            }
            mat[r * n + k] = 0.0;
            for c in (k + 1)..n {
                mat[r * n + c] -= factor * mat[k * n + c];
            }
            rhs[r] -= factor * rhs[k];
        }
    }
    let mut x = vec![0.0f64; n];
    for k in (0..n).rev() {
        let mut acc = rhs[k];
        for c in (k + 1)..n {
            acc -= mat[k * n + c] * x[c];
        }
        x[k] = acc / mat[k * n + k];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceParams;

    fn uniform_g(rows: usize, cols: usize, r_ohm: f32) -> Vec<f32> {
        vec![1.0 / r_ohm; rows * cols]
    }

    fn random_g(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let d = DeviceParams::paper_default();
        ahw_tensor::rng::uniform(
            &[rows * cols],
            d.g_min(),
            d.g_max(),
            &mut ahw_tensor::rng::seeded(seed),
        )
        .into_vec()
    }

    #[test]
    fn ideal_circuit_returns_programmed_conductance() {
        let g = random_g(4, 4, 1);
        let ni = NonIdealities::ideal();
        for solver in [SolverKind::Relaxation { sweeps: 10 }, SolverKind::Exact] {
            let eff = extract_effective_conductance(&g, 4, 4, &ni, solver).unwrap();
            for (a, b) in g.iter().zip(&eff) {
                assert!((a - b).abs() < a * 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn single_cell_matches_series_formula() {
        // one cell: I = V / (Rdriver + Rdevice + Rwire_col + Rsense)
        let ni = NonIdealities {
            r_driver: 1e3,
            r_wire_row: 5.0,
            r_wire_col: 10.0,
            r_sense: 1e3,
            variation_sigma: 0.0,
        };
        let r_dev = 20e3f32;
        let g = [1.0 / r_dev];
        let expect = 1.0 / (1e3 + r_dev + 10.0 + 1e3);
        for solver in [SolverKind::Relaxation { sweeps: 20 }, SolverKind::Exact] {
            let eff = extract_effective_conductance(&g, 1, 1, &ni, solver).unwrap();
            assert!(
                (eff[0] - expect).abs() < expect * 1e-3,
                "{} vs {expect}",
                eff[0]
            );
        }
    }

    #[test]
    fn relaxation_matches_exact_on_small_arrays() {
        let ni = NonIdealities::paper_default();
        for (rows, cols, seed) in [(4, 4, 2), (8, 8, 3), (16, 16, 4)] {
            let g = random_g(rows, cols, seed);
            let exact = solve_mesh_exact(&g, rows, cols, &ni).unwrap();
            let approx =
                extract_effective_conductance(&g, rows, cols, &ni, SolverKind::default()).unwrap();
            for (e, a) in exact.iter().zip(&approx) {
                assert!(
                    (e - a).abs() <= e.abs() * 0.02 + 1e-9,
                    "{rows}x{cols}: exact {e} vs approx {a}"
                );
            }
        }
    }

    #[test]
    fn effective_conductance_never_exceeds_programmed() {
        let g = random_g(16, 16, 5);
        let eff = extract_effective_conductance(
            &g,
            16,
            16,
            &NonIdealities::paper_default(),
            SolverKind::default(),
        )
        .unwrap();
        for (p, e) in g.iter().zip(&eff) {
            assert!(*e <= *p, "effective {e} above programmed {p}");
            assert!(*e > 0.0);
        }
    }

    #[test]
    fn larger_arrays_lose_more() {
        // the paper's size trend: more cells sharing wires → larger relative
        // degradation of the effective conductance
        let ni = NonIdealities::paper_default();
        let rel_loss = |k: usize| {
            let g = uniform_g(k, k, 20e3);
            let eff = extract_effective_conductance(&g, k, k, &ni, SolverKind::default()).unwrap();
            let mean_eff: f32 = eff.iter().sum::<f32>() / eff.len() as f32;
            1.0 - mean_eff / g[0]
        };
        let l16 = rel_loss(16);
        let l32 = rel_loss(32);
        let l64 = rel_loss(64);
        assert!(l32 > l16, "loss 32 {l32} vs 16 {l16}");
        assert!(l64 > l32, "loss 64 {l64} vs 32 {l32}");
    }

    #[test]
    fn smaller_r_min_loses_more() {
        // Fig 8(a) trend: lower R_MIN (higher conductances) → stronger IR
        // drop → more non-ideality
        let ni = NonIdealities::paper_default();
        let rel_loss = |r_min: f32| {
            let g = uniform_g(32, 32, r_min);
            let eff =
                extract_effective_conductance(&g, 32, 32, &ni, SolverKind::default()).unwrap();
            let mean_eff: f32 = eff.iter().sum::<f32>() / eff.len() as f32;
            1.0 - mean_eff / g[0]
        };
        assert!(rel_loss(10e3) > rel_loss(20e3));
    }

    #[test]
    fn far_corner_degrades_most() {
        // cell (0, cols-1): longest row path AND longest column path
        let ni = NonIdealities::paper_default();
        let g = uniform_g(16, 16, 20e3);
        let eff = extract_effective_conductance(&g, 16, 16, &ni, SolverKind::default()).unwrap();
        let near = eff[(16 - 1) * 16]; // row 15, col 0: short row path, short col path
        let far = eff[16 - 1]; // row 0, col 15: long row path, long col path
        assert!(far < near, "far {far} vs near {near}");
    }

    #[test]
    fn non_finite_current_reports_divergence() {
        // a NaN conductance poisons its ladders' currents, which the NaN-
        // skipping residual and worst-current folds used to report as Ok
        for bad in [f32::NAN, f32::INFINITY] {
            let mut g = random_g(4, 4, 6);
            g[5] = bad;
            let got = extract_effective_conductance(
                &g,
                4,
                4,
                &NonIdealities::paper_default(),
                SolverKind::default(),
            );
            assert!(
                matches!(got, Err(CrossbarError::SolverDiverged { .. })),
                "{bad}: {got:?}"
            );
        }
    }

    #[test]
    fn shape_validation() {
        let ni = NonIdealities::paper_default();
        assert!(
            extract_effective_conductance(&[1.0; 5], 2, 2, &ni, SolverKind::default()).is_err()
        );
        assert!(solve_mesh_exact(&[1.0; 4], 0, 4, &ni).is_err());
    }

    #[test]
    fn exact_solver_caps_size() {
        let ni = NonIdealities::paper_default();
        let g = vec![5e-5f32; 64 * 64];
        assert!(matches!(
            solve_mesh_exact(&g, 64, 64, &ni),
            Err(CrossbarError::BadParams(_))
        ));
    }
}
