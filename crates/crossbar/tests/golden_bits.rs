//! Golden-bits pins for the mesh solver and whole-model mapping.
//!
//! The relaxation solver's effective conductances and the effective weights
//! of a mapped VGG8 are reduced to FNV-1a digests of their `f32::to_bits`
//! patterns and compared with digests recorded from the one-ladder-at-a-time
//! Thomas solver and serial tile programming that preceded the factor-once,
//! batched ladders and the parallel tile solves. Any change in the
//! arithmetic (operation order, a fused or reassociated update, a tile
//! solved with another tile's draw) shows up as a bit-level mismatch.

use ahw_crossbar::{
    extract_effective_conductance, map_model, CrossbarConfig, DeviceParams, MappingReport,
    NonIdealities, SolverKind,
};
use ahw_nn::archs;
use ahw_tensor::rng;

/// FNV-1a over the bit patterns of `values`.
fn digest(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const SHAPES: [(usize, usize); 6] = [(1, 1), (1, 7), (9, 1), (16, 16), (37, 23), (64, 64)];

/// One solver case: shape, circuit, `R_MIN` in ohms, and the digest of the
/// effective conductances.
type SolverCase = (usize, usize, &'static str, u32, u64);

fn solver_cases() -> Vec<SolverCase> {
    let mut out = Vec::new();
    for (s, &(rows, cols)) in SHAPES.iter().enumerate() {
        for (name, ni) in [
            ("paper", NonIdealities::paper_default()),
            ("ideal", NonIdealities::ideal()),
        ] {
            for r_min in [20e3f32, 10e3] {
                let d = DeviceParams::with_r_min(r_min);
                let seed = 0x5017 + s as u64;
                let g = rng::uniform(&[rows * cols], d.g_min(), d.g_max(), &mut rng::seeded(seed))
                    .into_vec();
                let eff = extract_effective_conductance(
                    &g,
                    rows,
                    cols,
                    &ni,
                    SolverKind::Relaxation { sweeps: 15 },
                )
                .unwrap();
                out.push((rows, cols, name, r_min as u32, digest(&eff)));
            }
        }
    }
    out
}

#[test]
fn relaxation_matches_golden_bits() {
    let want: Vec<SolverCase> = vec![
        (1, 1, "paper", 20000, 0xec57536e81490b4f),
        (1, 1, "paper", 10000, 0x7e472b658281402d),
        (1, 1, "ideal", 20000, 0xe4a25918101f7cc4),
        (1, 1, "ideal", 10000, 0xe2ef59180eade844),
        (1, 7, "paper", 20000, 0x67bfc0fbe0e004e8),
        (1, 7, "paper", 10000, 0xf535b720ea9b2748),
        (1, 7, "ideal", 20000, 0x20404abfdb0c426d),
        (1, 7, "ideal", 10000, 0x36e5a72d4415ba90),
        (9, 1, "paper", 20000, 0xa93853aa971b25c9),
        (9, 1, "paper", 10000, 0xeab90f2de138e569),
        (9, 1, "ideal", 20000, 0x5e9227d6f23648ab),
        (9, 1, "ideal", 10000, 0xb867374f1dec201d),
        (16, 16, "paper", 20000, 0x44062e8fa6d77028),
        (16, 16, "paper", 10000, 0x462d678006a38513),
        (16, 16, "ideal", 20000, 0xd8eda397d02936ea),
        (16, 16, "ideal", 10000, 0x56736715f3ecfd11),
        (37, 23, "paper", 20000, 0x880ea3f550065605),
        (37, 23, "paper", 10000, 0x346aa66d9bb5abb6),
        (37, 23, "ideal", 20000, 0xe2f6c7aceb7af2b4),
        (37, 23, "ideal", 10000, 0xe649bb1c8e7f92ea),
        (64, 64, "paper", 20000, 0x2d9cd26b8475e70d),
        (64, 64, "paper", 10000, 0x5abe00bf47617918),
        (64, 64, "ideal", 20000, 0x0c8b0163519b70e8),
        (64, 64, "ideal", 10000, 0xe3868dc7d474c04a),
    ];
    assert_eq!(solver_cases(), want);
}

/// Maps a small VGG8 at one tile size and digests every effective weight
/// matrix (in `visit_state` order), returned with the mapping report.
fn mapped_vgg8(size: usize) -> (u64, MappingReport) {
    let mut model = archs::vgg8(10, 0.0625, &mut rng::seeded(0x7668))
        .unwrap()
        .model;
    let report = map_model(&mut model, &CrossbarConfig::paper_default(size)).unwrap();
    let mut weights = Vec::new();
    model.visit_state(&mut |name, t| {
        if name.ends_with(".weight") && t.rank() == 2 {
            weights.extend_from_slice(t.as_slice());
        }
    });
    (digest(&weights), report)
}

#[test]
fn mapped_vgg8_matches_golden_bits() {
    let got: Vec<(usize, u64, MappingReport)> = [16, 32, 64]
        .into_iter()
        .map(|size| {
            let (d, report) = mapped_vgg8(size);
            (size, d, report)
        })
        .collect();
    let report = |tiles| MappingReport {
        matrices: 8,
        tiles,
        cells: 13_084,
    };
    let want = vec![
        (16, 0xeda2feb15edf1519, report(61)),
        (32, 0x847a4b7f9d5477f4, report(25)),
        (64, 0x65e57a27534afcf0, report(15)),
    ];
    assert_eq!(got, want);
}
