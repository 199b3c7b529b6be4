//! Hand-vectorized x86-64 kernels (Figures 3 and 5 of the paper).
//!
//! One module per vector width, each containing both memory layouts:
//!
//! * `mm2` kernels vectorize Equation (3). The `t-1` accesses to `X`/`V`
//!   force a byte-shift of the previous iteration's vector — one `palignr`
//!   on SSE, a `vperm2i128 + vpalignr` pair on AVX2 (the cross-lane shift
//!   AVX2 lacks, which is why the paper sees the largest gain there), and a
//!   `vpermt2b` on AVX-512 (VBMI).
//! * `manymap` kernels vectorize Equation (4): every operand is a plain
//!   unaligned load and every result a plain store to the same offset — the
//!   single-instruction load of Figure 3b.
//!
//! The Eq. 4 kernels run every anti-diagonal entirely in vector code. The
//! last, partial chunk of a diagonal is a masked iteration on AVX-512
//! (fault-suppressed loads and stores); on AVX2/SSE, which have no
//! byte-masked stores, it is a full-width iteration over padded buffers
//! whose lanes past the diagonal's end are blended back to the values they
//! were loaded with (ksw2's approach). Gap fills are mostly narrower than
//! one vector, so this partial chunk carries most of the mapper's cells
//! (DESIGN.md §4.1b). The Eq. 3 kernels, the paper's minimap2 baseline,
//! keep their scalar tail that reuses [`crate::diff::cell_update`]. Every
//! kernel is bit-identical to the scalar kernels (and therefore to the
//! full-matrix reference).
//!
//! Naming note: the paper's baseline tier is "SSE2"; our 128-bit kernels use
//! SSE4.1 (`pblendvb`/`pmaxsb`), universally available on x86-64 since 2008.
//! We keep the paper's tier labels in the harnesses.

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "x86_64")]
pub mod sse;
