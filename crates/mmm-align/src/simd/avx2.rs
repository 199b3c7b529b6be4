//! 256-bit (AVX2) kernels — 32 cells per instruction.
//!
//! AVX2 has no single cross-lane byte shift, so the Eq. 3 kernel's
//! `X[t-1]` access costs a `vperm2i128` + `vpalignr` pair per operand —
//! the extra shift work the paper identifies as the reason manymap's gain
//! is largest at this width (§5.2.1).

use core::arch::x86_64::*;

use crate::diff::{
    backtrack_into, cell_update, degenerate, DirMatrix, Tracker, E_CONT, F_CONT, SRC_E, SRC_F,
};
use crate::score::Scoring;
use crate::scratch::{copy_padded, reset_fill, reverse_query_into, AlignScratch};
use crate::types::{AlignMode, AlignResult};

const L: usize = 32;
// The Eq. 4 kernel stores a full vector at the tail of each direction row.
const _: () = assert!(L <= DirMatrix::SLACK);

/// Runtime support check for this module's kernels.
pub fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Equation (3) layout with the two-instruction cross-lane byte shift.
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
    assert!(available(), "AVX2 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
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
    assert!(available(), "AVX2 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { manymap_inner(target, query, sc, mode, with_path, scratch) }
}

/// Shift a 256-bit register left by one byte, filling byte 0 with zero.
/// AVX2 has no cross-lane byte shift, so this costs a `vperm2i128` plus a
/// `vpalignr` — a direct port of ksw2's `pslldq` pays this on every operand.
///
/// # Safety
/// Requires AVX2; only called from `#[target_feature(enable = "avx2")]` fns.
#[inline(always)]
unsafe fn shl1_zero(v: __m256i) -> __m256i {
    let lo_to_hi = _mm256_permute2x128_si256(v, v, 0x08); // [0, v_lo]
    _mm256_alignr_epi8(v, lo_to_hi, 15)
}

/// `[v[31]]` in byte 0, zeros elsewhere — the carry produced by ksw2's
/// `psrldq(v, 15)`, again needing a lane fix-up on AVX2.
///
/// # Safety
/// Requires AVX2; only called from `#[target_feature(enable = "avx2")]` fns.
#[inline(always)]
unsafe fn shr15_carry(v: __m256i) -> __m256i {
    let hi_to_lo = _mm256_permute2x128_si256(v, v, 0x81); // [v_hi, 0]
    _mm256_bsrli_epi128(hi_to_lo, 15)
}

/// # Safety
/// Caller must ensure AVX2 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "avx2")]
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

    let vmatch = _mm256_set1_epi8(sc.a as i8);
    let vmis = _mm256_set1_epi8(-sc.b as i8);
    let vambi = _mm256_set1_epi8(-sc.ambi as i8);
    let vfour = _mm256_set1_epi8(4);
    let vq = _mm256_set1_epi8(q as i8);
    let vqe = _mm256_set1_epi8(qe as i8);
    let zero = _mm256_setzero_si256();
    let d1 = _mm256_set1_epi8(SRC_E as i8);
    let d2 = _mm256_set1_epi8(SRC_F as i8);
    let d4 = _mm256_set1_epi8(E_CONT as i8);
    let d8 = _mm256_set1_epi8(F_CONT as i8);

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

        // ksw2's shift idiom extended to 256 bits: carry vector + lane-crossing
        // emulation, five shuffle/logic ops per operand per iteration.
        let mut xcarry = _mm256_insert_epi8(_mm256_setzero_si256(), xlast as i8, 0);
        let mut vcarry = _mm256_insert_epi8(_mm256_setzero_si256(), vlast as i8, 0);
        let mut xtop = xlast;
        let mut vtop = vlast;
        for _ in 0..n / L {
            let tv = _mm256_loadu_si256(target.as_ptr().add(t) as *const __m256i);
            let qv = _mm256_loadu_si256(qr.as_ptr().add(t - st + qbase) as *const __m256i);
            let eqm = _mm256_cmpeq_epi8(tv, qv);
            let amb = _mm256_or_si256(_mm256_cmpeq_epi8(tv, vfour), _mm256_cmpeq_epi8(qv, vfour));
            let mut s = _mm256_blendv_epi8(vmis, vmatch, eqm);
            s = _mm256_blendv_epi8(s, vambi, amb);

            let xcur = _mm256_loadu_si256(x.as_ptr().add(t) as *const __m256i);
            let vcur = _mm256_loadu_si256(v.as_ptr().add(t) as *const __m256i);
            let ut = _mm256_loadu_si256(u.as_ptr().add(t) as *const __m256i);
            let yt = _mm256_loadu_si256(y.as_ptr().add(t) as *const __m256i);
            let xsh = _mm256_or_si256(shl1_zero(xcur), xcarry);
            let vsh = _mm256_or_si256(shl1_zero(vcur), vcarry);
            xcarry = shr15_carry(xcur);
            vcarry = shr15_carry(vcur);
            xtop = _mm256_extract_epi8(xcur, 31) as i8 as i32;
            vtop = _mm256_extract_epi8(vcur, 31) as i8 as i32;

            let a = _mm256_adds_epi8(xsh, vsh);
            let b = _mm256_adds_epi8(yt, ut);
            let za = _mm256_max_epi8(s, a);
            let z = _mm256_max_epi8(za, b);
            let un = _mm256_subs_epi8(z, vsh);
            let vn = _mm256_subs_epi8(z, ut);
            let xt = _mm256_adds_epi8(_mm256_subs_epi8(a, z), vq);
            let yt2 = _mm256_adds_epi8(_mm256_subs_epi8(b, z), vq);
            let xn = _mm256_subs_epi8(_mm256_max_epi8(xt, zero), vqe);
            let yn = _mm256_subs_epi8(_mm256_max_epi8(yt2, zero), vqe);

            _mm256_storeu_si256(u.as_mut_ptr().add(t) as *mut __m256i, un);
            _mm256_storeu_si256(v.as_mut_ptr().add(t) as *mut __m256i, vn);
            _mm256_storeu_si256(x.as_mut_ptr().add(t) as *mut __m256i, xn);
            _mm256_storeu_si256(y.as_mut_ptr().add(t) as *mut __m256i, yn);

            if let Some(row) = dir_row.as_deref_mut() {
                let mut d = _mm256_and_si256(_mm256_cmpgt_epi8(a, s), d1);
                d = _mm256_blendv_epi8(d, d2, _mm256_cmpgt_epi8(b, za));
                d = _mm256_or_si256(d, _mm256_and_si256(_mm256_cmpgt_epi8(xt, zero), d4));
                d = _mm256_or_si256(d, _mm256_and_si256(_mm256_cmpgt_epi8(yt2, zero), d8));
                _mm256_storeu_si256(row.as_mut_ptr().add(t - st) as *mut __m256i, d);
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
/// Caller must ensure AVX2 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "avx2")]
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
        tpad,
        dir,
        cigars,
        ..
    } = scratch;
    // Every buffer gets `L` bytes of slack, so the last chunk of any
    // diagonal can load a full vector; the lanes past its end are written
    // back with the values they were loaded with.
    copy_padded(target, tpad, L);
    reverse_query_into(query, qr);
    qr.resize(qlen + L, 0);
    reset_fill(u, tlen + L, -e as i8);
    reset_fill(y, tlen + L, -qe as i8);
    u[0] = -qe as i8;
    reset_fill(v, qlen + L, -e as i8);
    reset_fill(x, qlen + L, -qe as i8);
    v[qlen] = -qe as i8;

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut tracker = Tracker::new(tlen, qlen);

    let vmatch = _mm256_set1_epi8(sc.a as i8);
    let vmis = _mm256_set1_epi8(-sc.b as i8);
    let vambi = _mm256_set1_epi8(-sc.ambi as i8);
    let vfour = _mm256_set1_epi8(4);
    let vq = _mm256_set1_epi8(q as i8);
    let vqe = _mm256_set1_epi8(qe as i8);
    let zero = _mm256_setzero_si256();
    let d1 = _mm256_set1_epi8(SRC_E as i8);
    let d2 = _mm256_set1_epi8(SRC_F as i8);
    let d4 = _mm256_set1_epi8(E_CONT as i8);
    let d8 = _mm256_set1_epi8(F_CONT as i8);
    let lane = _mm256_setr_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        25, 26, 27, 28, 29, 30, 31,
    );

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let off = st + qlen - r;
        let qbase = st + qlen - 1 - r;
        let mut dir_row = dir.as_mut().map(|d| d.row_padded_mut(r));
        let mut t = st;

        while t <= en {
            let tp = t - st + off;
            let tv = _mm256_loadu_si256(tpad.as_ptr().add(t) as *const __m256i);
            let qv = _mm256_loadu_si256(qr.as_ptr().add(t - st + qbase) as *const __m256i);
            let eqm = _mm256_cmpeq_epi8(tv, qv);
            let amb = _mm256_or_si256(_mm256_cmpeq_epi8(tv, vfour), _mm256_cmpeq_epi8(qv, vfour));
            let mut s = _mm256_blendv_epi8(vmis, vmatch, eqm);
            s = _mm256_blendv_epi8(s, vambi, amb);

            let xt0 = _mm256_loadu_si256(x.as_ptr().add(tp) as *const __m256i);
            let vt0 = _mm256_loadu_si256(v.as_ptr().add(tp) as *const __m256i);
            let ut = _mm256_loadu_si256(u.as_ptr().add(t) as *const __m256i);
            let yt = _mm256_loadu_si256(y.as_ptr().add(t) as *const __m256i);

            let a = _mm256_adds_epi8(xt0, vt0);
            let b = _mm256_adds_epi8(yt, ut);
            let za = _mm256_max_epi8(s, a);
            let z = _mm256_max_epi8(za, b);
            let mut un = _mm256_subs_epi8(z, vt0);
            let mut vn = _mm256_subs_epi8(z, ut);
            let xt = _mm256_adds_epi8(_mm256_subs_epi8(a, z), vq);
            let yt2 = _mm256_adds_epi8(_mm256_subs_epi8(b, z), vq);
            let mut xn = _mm256_subs_epi8(_mm256_max_epi8(xt, zero), vqe);
            let mut yn = _mm256_subs_epi8(_mm256_max_epi8(yt2, zero), vqe);

            // In a diagonal's last chunk, lanes past `en` keep the values
            // they were loaded with.
            let rem = en + 1 - t;
            let keep = if rem < L {
                Some(_mm256_cmpgt_epi8(_mm256_set1_epi8(rem as i8), lane))
            } else {
                None
            };
            if let Some(k) = keep {
                un = _mm256_blendv_epi8(ut, un, k);
                vn = _mm256_blendv_epi8(vt0, vn, k);
                xn = _mm256_blendv_epi8(xt0, xn, k);
                yn = _mm256_blendv_epi8(yt, yn, k);
            }
            _mm256_storeu_si256(u.as_mut_ptr().add(t) as *mut __m256i, un);
            _mm256_storeu_si256(v.as_mut_ptr().add(tp) as *mut __m256i, vn);
            _mm256_storeu_si256(x.as_mut_ptr().add(tp) as *mut __m256i, xn);
            _mm256_storeu_si256(y.as_mut_ptr().add(t) as *mut __m256i, yn);

            if let Some(row) = dir_row.as_deref_mut() {
                let mut d = _mm256_and_si256(_mm256_cmpgt_epi8(a, s), d1);
                d = _mm256_blendv_epi8(d, d2, _mm256_cmpgt_epi8(b, za));
                d = _mm256_or_si256(d, _mm256_and_si256(_mm256_cmpgt_epi8(xt, zero), d4));
                d = _mm256_or_si256(d, _mm256_and_si256(_mm256_cmpgt_epi8(yt2, zero), d8));
                let at = row.as_mut_ptr().add(t - st) as *mut __m256i;
                if let Some(k) = keep {
                    d = _mm256_blendv_epi8(_mm256_loadu_si256(at), d, k);
                }
                _mm256_storeu_si256(at, d);
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
            (31, 31),
            (32, 32),
            (33, 33),
            (63, 65),
            (65, 63),
            (96, 96),
            (33, 65),
            (65, 33),
            (200, 7),
            (7, 200),
            (1, 65),
            (65, 1),
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
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn avx2_kernels_match_scalar(
            t in proptest::collection::vec(0u8..5, 1..200),
            q in proptest::collection::vec(0u8..5, 1..200),
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
