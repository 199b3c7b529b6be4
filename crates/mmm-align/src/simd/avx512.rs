//! 512-bit (AVX-512BW + VBMI) kernels — 64 cells per instruction.
//!
//! Comparisons produce `__mmask64` k-registers rather than byte vectors, so
//! the select/blend structure differs slightly from the narrower widths. The
//! Eq. 3 kernel ports ksw2's byte-shift idiom directly: AVX-512BW still only
//! shifts bytes within 128-bit lanes, so each shifted operand costs a
//! `vpslldq` + `vpsrldq` + qword permute + two ORs. The Eq. 4 kernel needs
//! no shuffle at all.

use core::arch::x86_64::*;

use crate::diff::{backtrack_into, cell_update, degenerate, Tracker, E_CONT, F_CONT, SRC_E, SRC_F};
use crate::score::Scoring;
use crate::scratch::{reset_fill, reverse_query_into, AlignScratch};
use crate::types::{AlignMode, AlignResult};

const L: usize = 64;

/// Runtime support check for this module's kernels.
pub fn available() -> bool {
    is_x86_feature_detected!("avx512bw")
}

/// Shift a 512-bit register left by one byte with zero fill. Bytes crossing
/// the four 128-bit lane boundaries need an extra qword permute — the cost a
/// direct port of ksw2's `pslldq` pays at this width.
///
/// # Safety
/// Requires AVX-512F/BW; only called from `#[target_feature]`-gated fns.
#[inline(always)]
unsafe fn shl1_zero(v: __m512i) -> __m512i {
    let within = _mm512_bslli_epi128(v, 1);
    let crossers = _mm512_bsrli_epi128(v, 15); // byte 0 of lane k = v[16k+15]
    let idx = _mm512_set_epi64(5, 4, 3, 2, 1, 0, 0, 0);
    let up = _mm512_maskz_permutexvar_epi64(0b1111_1100, idx, crossers);
    _mm512_or_si512(within, up)
}

/// `[v[63]]` in byte 0, zeros elsewhere — the next iteration's carry.
///
/// # Safety
/// Requires AVX-512F/BW; only called from `#[target_feature]`-gated fns.
#[inline(always)]
unsafe fn shr63_carry(v: __m512i) -> __m512i {
    let crossers = _mm512_bsrli_epi128(v, 15);
    let idx = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, 6);
    _mm512_maskz_permutexvar_epi64(0b0000_0001, idx, crossers)
}

/// Equation (3) layout; the byte shift is one `vpermt2b`.
pub fn align_mm2(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    align_mm2_with_scratch(target, query, sc, mode, with_path, &mut AlignScratch::new())
}

/// [`align_mm2`] with caller-provided buffers.
pub fn align_mm2_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    assert!(available(), "AVX-512BW not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: features checked above.
    unsafe { mm2_inner(target, query, sc, mode, with_path, scratch) }
}

/// Equation (4) layout — plain loads and stores only.
pub fn align_manymap(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    align_manymap_with_scratch(target, query, sc, mode, with_path, &mut AlignScratch::new())
}

/// [`align_manymap`] with caller-provided buffers.
pub fn align_manymap_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    assert!(available(), "AVX-512BW not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: features checked above.
    unsafe { manymap_inner(target, query, sc, mode, with_path, scratch) }
}

/// Mask of the low `min(rem, 64)` lanes (`rem >= 1`).
#[inline(always)]
fn lane_mask(rem: usize) -> __mmask64 {
    u64::MAX >> (L - rem.min(L))
}

/// # Safety
/// Requires AVX-512F; only called from `#[target_feature]`-gated fns.
#[inline(always)]
unsafe fn extract_last(v: __m512i) -> i32 {
    let lane = _mm512_extracti32x4_epi32(v, 3);
    _mm_extract_epi8(lane, 15) as i8 as i32
}

/// # Safety
/// Caller must ensure AVX-512F/BW are available — the public wrappers above
/// assert `available()` before dispatching here.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn mm2_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    let (tlen, qlen) = (target.len(), query.len());
    let (q, e) = (sc.q, sc.e);
    let qe = q + e;

    let AlignScratch {
        u,
        v,
        x,
        y,
        qr,
        dir,
        cigars,
        ..
    } = scratch;
    reverse_query_into(query, qr);
    reset_fill(u, tlen, -e as i8);
    reset_fill(v, tlen, 0i8);
    reset_fill(x, tlen, 0i8);
    reset_fill(y, tlen, -qe as i8);
    u[0] = -qe as i8;

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut tracker = Tracker::new(tlen, qlen);

    let vmatch = _mm512_set1_epi8(sc.a as i8);
    let vmis = _mm512_set1_epi8(-sc.b as i8);
    let vambi = _mm512_set1_epi8(-sc.ambi as i8);
    let vfour = _mm512_set1_epi8(4);
    let vq = _mm512_set1_epi8(q as i8);
    let vqe = _mm512_set1_epi8(qe as i8);
    let zero = _mm512_setzero_si512();
    let d1 = _mm512_set1_epi8(SRC_E as i8);
    let d2 = _mm512_set1_epi8(SRC_F as i8);
    let d4 = _mm512_set1_epi8(E_CONT as i8);
    let d8 = _mm512_set1_epi8(F_CONT as i8);

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let (mut xlast, mut vlast) = if st == 0 {
            (-qe, if r == 0 { -qe } else { -e })
        } else {
            (x[st - 1] as i32, v[st - 1] as i32)
        };
        let qbase = st + qlen - 1 - r;
        let mut dir_row = dir.as_mut().map(|d| d.row_mut(r));
        let n = en - st + 1;
        let mut t = st;

        let mut xcarry = _mm512_maskz_set1_epi8(1, xlast as i8);
        let mut vcarry = _mm512_maskz_set1_epi8(1, vlast as i8);
        let mut xtop = xlast;
        let mut vtop = vlast;
        for _ in 0..n / L {
            let tv = _mm512_loadu_si512(target.as_ptr().add(t) as *const __m512i);
            let qv = _mm512_loadu_si512(qr.as_ptr().add(t - st + qbase) as *const __m512i);
            let eqm = _mm512_cmpeq_epi8_mask(tv, qv);
            let amb = _mm512_cmpeq_epi8_mask(tv, vfour) | _mm512_cmpeq_epi8_mask(qv, vfour);
            let mut s = _mm512_mask_blend_epi8(eqm, vmis, vmatch);
            s = _mm512_mask_blend_epi8(amb, s, vambi);

            let xcur = _mm512_loadu_si512(x.as_ptr().add(t) as *const __m512i);
            let vcur = _mm512_loadu_si512(v.as_ptr().add(t) as *const __m512i);
            let ut = _mm512_loadu_si512(u.as_ptr().add(t) as *const __m512i);
            let yt = _mm512_loadu_si512(y.as_ptr().add(t) as *const __m512i);
            // ksw2's shift idiom at 512 bits: within-lane shift, lane-cross
            // permute, carry OR — per operand, per iteration.
            let xsh = _mm512_or_si512(shl1_zero(xcur), xcarry);
            let vsh = _mm512_or_si512(shl1_zero(vcur), vcarry);
            xcarry = shr63_carry(xcur);
            vcarry = shr63_carry(vcur);
            xtop = extract_last(xcur);
            vtop = extract_last(vcur);

            let a = _mm512_adds_epi8(xsh, vsh);
            let b = _mm512_adds_epi8(yt, ut);
            let za = _mm512_max_epi8(s, a);
            let z = _mm512_max_epi8(za, b);
            let un = _mm512_subs_epi8(z, vsh);
            let vn = _mm512_subs_epi8(z, ut);
            let xt = _mm512_adds_epi8(_mm512_subs_epi8(a, z), vq);
            let yt2 = _mm512_adds_epi8(_mm512_subs_epi8(b, z), vq);
            let xn = _mm512_subs_epi8(_mm512_max_epi8(xt, zero), vqe);
            let yn = _mm512_subs_epi8(_mm512_max_epi8(yt2, zero), vqe);

            _mm512_storeu_si512(u.as_mut_ptr().add(t) as *mut __m512i, un);
            _mm512_storeu_si512(v.as_mut_ptr().add(t) as *mut __m512i, vn);
            _mm512_storeu_si512(x.as_mut_ptr().add(t) as *mut __m512i, xn);
            _mm512_storeu_si512(y.as_mut_ptr().add(t) as *mut __m512i, yn);

            if let Some(row) = dir_row.as_deref_mut() {
                let mut d = _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(a, s), d1);
                d = _mm512_mask_blend_epi8(_mm512_cmpgt_epi8_mask(b, za), d, d2);
                d = _mm512_or_si512(
                    d,
                    _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(xt, zero), d4),
                );
                d = _mm512_or_si512(
                    d,
                    _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(yt2, zero), d8),
                );
                _mm512_storeu_si512(row.as_mut_ptr().add(t - st) as *mut __m512i, d);
            }
            t += L;
        }
        if t > st {
            xlast = xtop;
            vlast = vtop;
        }
        while t <= en {
            let s = sc.subst(target[t], query[r - t]);
            let (unw, vnw, xnw, ynw, d) =
                cell_update(s, xlast, vlast, y[t] as i32, u[t] as i32, q, qe);
            xlast = x[t] as i32;
            vlast = v[t] as i32;
            u[t] = unw;
            v[t] = vnw;
            x[t] = xnw;
            y[t] = ynw;
            if let Some(row) = dir_row.as_deref_mut() {
                row[t - st] = d;
            }
            t += 1;
        }
        tracker.diag(
            r,
            st,
            en,
            u[st] as i32,
            u[en] as i32,
            v[0] as i32,
            v[en] as i32,
            qe,
        );
    }

    let (score, end_i, end_j) = tracker.finalize(mode);
    let cigar = dir.map(|d| {
        let mut c = AlignScratch::take_cigar(cigars);
        backtrack_into(d, end_i, end_j, &mut c);
        c
    });
    AlignResult {
        score,
        end_i,
        end_j,
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

/// # Safety
/// Caller must ensure AVX-512F/BW are available — the public wrappers above
/// assert `available()` before dispatching here.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn manymap_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    let (tlen, qlen) = (target.len(), query.len());
    let (q, e) = (sc.q, sc.e);
    let qe = q + e;

    let AlignScratch {
        u,
        v,
        x,
        y,
        qr,
        dir,
        cigars,
        ..
    } = scratch;
    reverse_query_into(query, qr);
    reset_fill(u, tlen, -e as i8);
    reset_fill(y, tlen, -qe as i8);
    u[0] = -qe as i8;
    reset_fill(v, qlen + 1, -e as i8);
    reset_fill(x, qlen + 1, -qe as i8);
    v[qlen] = -qe as i8;

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut tracker = Tracker::new(tlen, qlen);

    let vmatch = _mm512_set1_epi8(sc.a as i8);
    let vmis = _mm512_set1_epi8(-sc.b as i8);
    let vambi = _mm512_set1_epi8(-sc.ambi as i8);
    let vfour = _mm512_set1_epi8(4);
    let vq = _mm512_set1_epi8(q as i8);
    let vqe = _mm512_set1_epi8(qe as i8);
    let zero = _mm512_setzero_si512();
    let d1 = _mm512_set1_epi8(SRC_E as i8);
    let d2 = _mm512_set1_epi8(SRC_F as i8);
    let d4 = _mm512_set1_epi8(E_CONT as i8);
    let d8 = _mm512_set1_epi8(F_CONT as i8);

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let off = st + qlen - r;
        let qbase = st + qlen - 1 - r;
        let mut dir_row = dir.as_mut().map(|d| d.row_mut(r));
        let mut t = st;

        // The whole diagonal runs in vector code: full chunks with every
        // lane set, the last partial chunk with only its low `en + 1 - t`
        // lanes. Masked-off lanes are fault-suppressed — neither read nor
        // written — so no buffer needs slack.
        while t <= en {
            let k = lane_mask(en + 1 - t);
            let tp = t - st + off;
            let tv = _mm512_maskz_loadu_epi8(k, target.as_ptr().add(t) as *const i8);
            let qv = _mm512_maskz_loadu_epi8(k, qr.as_ptr().add(t - st + qbase) as *const i8);
            let eqm = _mm512_cmpeq_epi8_mask(tv, qv);
            let amb = _mm512_cmpeq_epi8_mask(tv, vfour) | _mm512_cmpeq_epi8_mask(qv, vfour);
            let mut s = _mm512_mask_blend_epi8(eqm, vmis, vmatch);
            s = _mm512_mask_blend_epi8(amb, s, vambi);

            let xt0 = _mm512_maskz_loadu_epi8(k, x.as_ptr().add(tp));
            let vt0 = _mm512_maskz_loadu_epi8(k, v.as_ptr().add(tp));
            let ut = _mm512_maskz_loadu_epi8(k, u.as_ptr().add(t));
            let yt = _mm512_maskz_loadu_epi8(k, y.as_ptr().add(t));

            let a = _mm512_adds_epi8(xt0, vt0);
            let b = _mm512_adds_epi8(yt, ut);
            let za = _mm512_max_epi8(s, a);
            let z = _mm512_max_epi8(za, b);
            let un = _mm512_subs_epi8(z, vt0);
            let vn = _mm512_subs_epi8(z, ut);
            let xt = _mm512_adds_epi8(_mm512_subs_epi8(a, z), vq);
            let yt2 = _mm512_adds_epi8(_mm512_subs_epi8(b, z), vq);
            let xn = _mm512_subs_epi8(_mm512_max_epi8(xt, zero), vqe);
            let yn = _mm512_subs_epi8(_mm512_max_epi8(yt2, zero), vqe);

            _mm512_mask_storeu_epi8(u.as_mut_ptr().add(t), k, un);
            _mm512_mask_storeu_epi8(v.as_mut_ptr().add(tp), k, vn);
            _mm512_mask_storeu_epi8(x.as_mut_ptr().add(tp), k, xn);
            _mm512_mask_storeu_epi8(y.as_mut_ptr().add(t), k, yn);

            if let Some(row) = dir_row.as_deref_mut() {
                let mut d = _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(a, s), d1);
                d = _mm512_mask_blend_epi8(_mm512_cmpgt_epi8_mask(b, za), d, d2);
                d = _mm512_or_si512(
                    d,
                    _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(xt, zero), d4),
                );
                d = _mm512_or_si512(
                    d,
                    _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(yt2, zero), d8),
                );
                _mm512_mask_storeu_epi8(row.as_mut_ptr().add(t - st) as *mut i8, k, d);
            }
            t += L;
        }
        let v_st0 = v[qlen - r.min(qlen)] as i32;
        let v_en = v[en + qlen - r] as i32;
        tracker.diag(r, st, en, u[st] as i32, u[en] as i32, v_st0, v_en, qe);
    }

    let (score, end_i, end_j) = tracker.finalize(mode);
    let cigar = dir.map(|d| {
        let mut c = AlignScratch::take_cigar(cigars);
        backtrack_into(d, end_i, end_j, &mut c);
        c
    });
    AlignResult {
        score,
        end_i,
        end_j,
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

// Miri cannot execute vendor intrinsics; the simd tests are host-only.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::scalar;
    use proptest::prelude::*;

    const SC: Scoring = Scoring::MAP_ONT;

    const MODES: [AlignMode; 4] = [
        AlignMode::Global,
        AlignMode::SemiGlobal,
        AlignMode::TargetSuffixFree,
        AlignMode::QuerySuffixFree,
    ];

    #[test]
    fn handles_vector_boundary_lengths() {
        if !available() {
            return;
        }
        // Square and rectangular shapes around the lane edges. Skinny
        // shapes keep every diagonal shorter than one vector, so the whole
        // matrix runs through the partial-chunk path.
        let shapes: [(usize, usize); 12] = [
            (63, 63),
            (64, 64),
            (65, 65),
            (127, 128),
            (129, 128),
            (192, 192),
            (65, 129),
            (129, 65),
            (200, 7),
            (7, 200),
            (1, 129),
            (129, 1),
        ];
        for (tlen, qlen) in shapes {
            let t: Vec<u8> = (0..tlen).map(|i| ((i * 7 + 3) % 4) as u8).collect();
            let q: Vec<u8> = (0..qlen).map(|i| ((i * 5 + 1) % 4) as u8).collect();
            for mode in MODES {
                for with_path in [true, false] {
                    let gold = scalar::align_manymap(&t, &q, &SC, mode, with_path);
                    let what = format!("{tlen}x{qlen} {mode:?} path={with_path}");
                    assert_eq!(align_mm2(&t, &q, &SC, mode, with_path), gold, "{what}");
                    assert_eq!(align_manymap(&t, &q, &SC, mode, with_path), gold, "{what}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn avx512_kernels_match_scalar(
            t in proptest::collection::vec(0u8..5, 1..300),
            q in proptest::collection::vec(0u8..5, 1..300),
            mode_idx in 0usize..4,
            with_path in proptest::bool::ANY,
        ) {
            prop_assume!(available());
            let mode = MODES[mode_idx];
            let gold = scalar::align_manymap(&t, &q, &SC, mode, with_path);
            prop_assert_eq!(align_mm2(&t, &q, &SC, mode, with_path), gold.clone());
            prop_assert_eq!(align_manymap(&t, &q, &SC, mode, with_path), gold);
        }
    }
}
