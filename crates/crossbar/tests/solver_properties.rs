//! Property-based validation of the crossbar solvers and calibration modes,
//! running on the in-house deterministic harness ([`ahw_tensor::check`]).

use ahw_crossbar::{
    extract_effective_conductance, map_matrix, solve_mesh_exact, Calibration, CrossbarConfig,
    DeviceParams, NonIdealities, SolverKind,
};
use ahw_tensor::check::{self, ensure, Gen};
use ahw_tensor::rng;

/// Draws a randomized parasitic characterization (zero device variation so
/// the circuit part stays deterministic).
fn arbitrary_nonideal(g: &mut Gen) -> NonIdealities {
    NonIdealities {
        r_driver: g.f32_in("r_driver", 0.0, 2e3),
        r_wire_row: g.f32_in("r_wire_row", 0.0, 20.0),
        r_wire_col: g.f32_in("r_wire_col", 0.0, 20.0),
        r_sense: g.f32_in("r_sense", 0.0, 2e3),
        variation_sigma: 0.0,
    }
}

/// The relaxation solver tracks the exact nodal solution within 3 % for
/// arbitrary circuit parameters on small arrays.
#[test]
fn relaxation_tracks_exact() {
    check::cases(32).run("relaxation_tracks_exact", |g| {
        let ni = arbitrary_nonideal(g);
        let seed = g.u64_in("seed", 0, 500);
        let d = DeviceParams::paper_default();
        let cond = rng::uniform(&[8 * 8], d.g_min(), d.g_max(), &mut rng::seeded(seed)).into_vec();
        let exact = solve_mesh_exact(&cond, 8, 8, &ni).unwrap();
        let approx =
            extract_effective_conductance(&cond, 8, 8, &ni, SolverKind::Relaxation { sweeps: 25 })
                .unwrap();
        for (e, a) in exact.iter().zip(&approx) {
            ensure(
                (e - a).abs() <= e.abs() * 0.03 + 1e-9,
                format!("exact {e} vs approx {a}"),
            )?;
        }
        Ok(())
    });
}

/// Effective conductance is monotone in the parasitics: more wire
/// resistance never increases any cell's effective conductance.
#[test]
fn more_parasitics_less_conductance() {
    check::cases(32).run("more_parasitics_less_conductance", |g| {
        let seed = g.u64_in("seed", 0, 500);
        let factor = g.f32_in("factor", 1.5, 4.0);
        let d = DeviceParams::paper_default();
        let cond =
            rng::uniform(&[12 * 12], d.g_min(), d.g_max(), &mut rng::seeded(seed)).into_vec();
        let base = NonIdealities::paper_default();
        let worse = NonIdealities {
            r_driver: base.r_driver * factor,
            r_wire_row: base.r_wire_row * factor,
            r_wire_col: base.r_wire_col * factor,
            r_sense: base.r_sense * factor,
            variation_sigma: 0.0,
        };
        let eff_base =
            extract_effective_conductance(&cond, 12, 12, &base, SolverKind::default()).unwrap();
        let eff_worse =
            extract_effective_conductance(&cond, 12, 12, &worse, SolverKind::default()).unwrap();
        let sum_base: f32 = eff_base.iter().sum();
        let sum_worse: f32 = eff_worse.iter().sum();
        ensure(
            sum_worse < sum_base,
            format!("worse parasitics raised total conductance: {sum_worse} vs {sum_base}"),
        )
    });
}

/// Calibration ordering: the residual ‖W_eff − W‖ shrinks (weakly) from
/// no calibration → per-layer → per-column.
#[test]
fn calibration_reduces_residual() {
    check::cases(32).run("calibration_reduces_residual", |g| {
        let seed = g.u64_in("seed", 0, 200);
        let w = rng::uniform(&[12, 20], -1.0, 1.0, &mut rng::seeded(seed));
        let residual = |calibration: Calibration| {
            let mut cfg = CrossbarConfig::paper_default(16);
            cfg.calibration = calibration;
            cfg.nonideal.variation_sigma = 0.0;
            let eff = map_matrix(&w, &cfg).unwrap();
            eff.sub(&w).unwrap().norm()
        };
        let none = residual(Calibration::None);
        let layer = residual(Calibration::PerLayer);
        let column = residual(Calibration::PerColumn);
        ensure(
            layer <= none + 1e-5,
            format!("per-layer {layer} vs none {none}"),
        )?;
        ensure(
            column <= layer + 1e-5,
            format!("per-column {column} vs per-layer {layer}"),
        )
    });
}
