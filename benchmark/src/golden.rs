//! Golden digests of the first pass, recorded at
//! [`crate::workloads::Size::standard`]
//! for seeds 0 and 1. Seed 1 is held out: a change claiming a gain must
//! also hold there.
//!
//! The kernels build with `target-cpu=native`, so result bits are pinned
//! per instruction set: a host whose [`crate::host::isa`] has no entry is
//! checked by determinism across passes only.

/// x86-64 with AVX-512F, AVX2 and FMA.
const AVX512: &str = "x86_64+avx512f+avx2+fma";

/// `(workload, seed, isa, digest)`.
const GOLDEN: &[(&str, u64, &str, u64)] = &[
    ("fig4_search", 0, AVX512, 0x13aa_9f8c_4386_1a2e),
    ("fig4_search", 1, AVX512, 0x1c0b_4b9d_7fca_c8c3),
    ("sram_pgd", 0, AVX512, 0x9b98_b5d1_47e2_6fdc),
    ("sram_pgd", 1, AVX512, 0x1bf5_368b_4aa4_390f),
    ("xbar_pgd", 0, AVX512, 0x518a_e83a_d41a_bd4d),
    ("xbar_pgd", 1, AVX512, 0x5d7c_53e8_9b03_8661),
    ("xbar_map", 0, AVX512, 0x4104_5047_4c89_f0cd),
    ("xbar_map", 1, AVX512, 0x2d51_1b5d_efde_ab55),
];

/// The golden digest for a run, if one was recorded.
pub(crate) fn golden(workload: &str, seed: u64, isa: &str) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|&&(w, s, i, _)| w == workload && s == seed && i == isa)
        .map(|&(_, _, _, digest)| digest)
}
