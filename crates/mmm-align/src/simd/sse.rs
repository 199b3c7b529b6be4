//! 128-bit (SSE4.1) kernels — 16 cells per instruction.

use core::arch::x86_64::*;

use crate::diff::{
    backtrack_into, cell_update, degenerate, DirMatrix, Tracker, E_CONT, F_CONT, SRC_E, SRC_F,
};
use crate::score::Scoring;
use crate::scratch::{copy_padded, reset_fill, reverse_query_into, AlignScratch};
use crate::types::{AlignMode, AlignResult};

const L: usize = 16;
// The Eq. 4 kernel stores a full vector at the tail of each direction row.
const _: () = assert!(L <= DirMatrix::SLACK);

/// Runtime support check for this module's kernels.
pub fn available() -> bool {
    is_x86_feature_detected!("sse4.1")
}

/// Equation (3) layout, vectorized with the `palignr` byte-shift
/// (Figure 3a's access pattern).
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
    assert!(available(), "SSE4.1 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { mm2_inner(target, query, sc, mode, with_path, scratch) }
}

/// Equation (4) layout, vectorized with plain loads/stores (Figure 3b).
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
    assert!(available(), "SSE4.1 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { manymap_inner(target, query, sc, mode, with_path, scratch) }
}

/// # Safety
/// Caller must ensure SSE4.1 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "sse4.1")]
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

    let vmatch = _mm_set1_epi8(sc.a as i8);
    let vmis = _mm_set1_epi8(-sc.b as i8);
    let vambi = _mm_set1_epi8(-sc.ambi as i8);
    let vfour = _mm_set1_epi8(4);
    let vq = _mm_set1_epi8(q as i8);
    let vqe = _mm_set1_epi8(qe as i8);
    let zero = _mm_setzero_si128();
    let d1 = _mm_set1_epi8(SRC_E as i8);
    let d2 = _mm_set1_epi8(SRC_F as i8);
    let d4 = _mm_set1_epi8(E_CONT as i8);
    let d8 = _mm_set1_epi8(F_CONT as i8);

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let (mut xlast, mut vlast) = if st == 0 {
            (-qe, if r == 0 { -qe } else { -e })
        } else {
            (x[st - 1] as i32, v[st - 1] as i32)
        };
        let qbase = st + qlen - 1 - r; // qr index of the first cell
        let mut dir_row = dir.as_mut().map(|d| d.row_mut(r));
        let n = en - st + 1;
        let mut t = st;

        // ksw2's shift idiom: the byte entering lane 0 is carried in a
        // separate vector; each operand costs a pslldq + por (plus a psrldq
        // to produce the next carry) — the extra shift instructions of
        // Figure 3a.
        let mut xcarry = _mm_insert_epi8(_mm_setzero_si128(), xlast, 0);
        let mut vcarry = _mm_insert_epi8(_mm_setzero_si128(), vlast, 0);
        let mut xtop = xlast; // old X[t-1] for the scalar tail
        let mut vtop = vlast;
        for _ in 0..n / L {
            let tv = _mm_loadu_si128(target.as_ptr().add(t) as *const __m128i);
            let qv = _mm_loadu_si128(qr.as_ptr().add(t - st + qbase) as *const __m128i);
            let eqm = _mm_cmpeq_epi8(tv, qv);
            let amb = _mm_or_si128(_mm_cmpeq_epi8(tv, vfour), _mm_cmpeq_epi8(qv, vfour));
            let mut s = _mm_blendv_epi8(vmis, vmatch, eqm);
            s = _mm_blendv_epi8(s, vambi, amb);

            let xcur = _mm_loadu_si128(x.as_ptr().add(t) as *const __m128i);
            let vcur = _mm_loadu_si128(v.as_ptr().add(t) as *const __m128i);
            let ut = _mm_loadu_si128(u.as_ptr().add(t) as *const __m128i);
            let yt = _mm_loadu_si128(y.as_ptr().add(t) as *const __m128i);
            // Figure 3a: the shifted load of the previous diagonal's X/V.
            let xsh = _mm_or_si128(_mm_bslli_si128(xcur, 1), xcarry);
            let vsh = _mm_or_si128(_mm_bslli_si128(vcur, 1), vcarry);
            xcarry = _mm_bsrli_si128(xcur, 15);
            vcarry = _mm_bsrli_si128(vcur, 15);
            xtop = _mm_extract_epi8(xcur, 15) as i8 as i32;
            vtop = _mm_extract_epi8(vcur, 15) as i8 as i32;

            let a = _mm_adds_epi8(xsh, vsh);
            let b = _mm_adds_epi8(yt, ut);
            let za = _mm_max_epi8(s, a);
            let z = _mm_max_epi8(za, b);
            let un = _mm_subs_epi8(z, vsh);
            let vn = _mm_subs_epi8(z, ut);
            let xt = _mm_adds_epi8(_mm_subs_epi8(a, z), vq);
            let yt2 = _mm_adds_epi8(_mm_subs_epi8(b, z), vq);
            let xn = _mm_subs_epi8(_mm_max_epi8(xt, zero), vqe);
            let yn = _mm_subs_epi8(_mm_max_epi8(yt2, zero), vqe);

            _mm_storeu_si128(u.as_mut_ptr().add(t) as *mut __m128i, un);
            _mm_storeu_si128(v.as_mut_ptr().add(t) as *mut __m128i, vn);
            _mm_storeu_si128(x.as_mut_ptr().add(t) as *mut __m128i, xn);
            _mm_storeu_si128(y.as_mut_ptr().add(t) as *mut __m128i, yn);

            if let Some(row) = dir_row.as_deref_mut() {
                let mut d = _mm_and_si128(_mm_cmpgt_epi8(a, s), d1);
                d = _mm_blendv_epi8(d, d2, _mm_cmpgt_epi8(b, za));
                d = _mm_or_si128(d, _mm_and_si128(_mm_cmpgt_epi8(xt, zero), d4));
                d = _mm_or_si128(d, _mm_and_si128(_mm_cmpgt_epi8(yt2, zero), d8));
                _mm_storeu_si128(row.as_mut_ptr().add(t - st) as *mut __m128i, d);
            }
            t += L;
        }
        if t > st {
            // Hand the last old X/V lane to the scalar tail.
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
/// Caller must ensure SSE4.1 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "sse4.1")]
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

    let vmatch = _mm_set1_epi8(sc.a as i8);
    let vmis = _mm_set1_epi8(-sc.b as i8);
    let vambi = _mm_set1_epi8(-sc.ambi as i8);
    let vfour = _mm_set1_epi8(4);
    let vq = _mm_set1_epi8(q as i8);
    let vqe = _mm_set1_epi8(qe as i8);
    let zero = _mm_setzero_si128();
    let d1 = _mm_set1_epi8(SRC_E as i8);
    let d2 = _mm_set1_epi8(SRC_F as i8);
    let d4 = _mm_set1_epi8(E_CONT as i8);
    let d8 = _mm_set1_epi8(F_CONT as i8);
    let lane = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let off = st + qlen - r; // t' of the first cell
        let qbase = st + qlen - 1 - r;
        let mut dir_row = dir.as_mut().map(|d| d.row_padded_mut(r));
        let mut t = st;

        while t <= en {
            let tp = t - st + off;
            let tv = _mm_loadu_si128(tpad.as_ptr().add(t) as *const __m128i);
            let qv = _mm_loadu_si128(qr.as_ptr().add(t - st + qbase) as *const __m128i);
            let eqm = _mm_cmpeq_epi8(tv, qv);
            let amb = _mm_or_si128(_mm_cmpeq_epi8(tv, vfour), _mm_cmpeq_epi8(qv, vfour));
            let mut s = _mm_blendv_epi8(vmis, vmatch, eqm);
            s = _mm_blendv_epi8(s, vambi, amb);

            // Figure 3b: one plain load per operand, no shifts.
            let xt0 = _mm_loadu_si128(x.as_ptr().add(tp) as *const __m128i);
            let vt0 = _mm_loadu_si128(v.as_ptr().add(tp) as *const __m128i);
            let ut = _mm_loadu_si128(u.as_ptr().add(t) as *const __m128i);
            let yt = _mm_loadu_si128(y.as_ptr().add(t) as *const __m128i);

            let a = _mm_adds_epi8(xt0, vt0);
            let b = _mm_adds_epi8(yt, ut);
            let za = _mm_max_epi8(s, a);
            let z = _mm_max_epi8(za, b);
            let mut un = _mm_subs_epi8(z, vt0);
            let mut vn = _mm_subs_epi8(z, ut);
            let xt = _mm_adds_epi8(_mm_subs_epi8(a, z), vq);
            let yt2 = _mm_adds_epi8(_mm_subs_epi8(b, z), vq);
            let mut xn = _mm_subs_epi8(_mm_max_epi8(xt, zero), vqe);
            let mut yn = _mm_subs_epi8(_mm_max_epi8(yt2, zero), vqe);

            // In a diagonal's last chunk, lanes past `en` keep the values
            // they were loaded with.
            let rem = en + 1 - t;
            let keep = if rem < L {
                Some(_mm_cmpgt_epi8(_mm_set1_epi8(rem as i8), lane))
            } else {
                None
            };
            if let Some(k) = keep {
                un = _mm_blendv_epi8(ut, un, k);
                vn = _mm_blendv_epi8(vt0, vn, k);
                xn = _mm_blendv_epi8(xt0, xn, k);
                yn = _mm_blendv_epi8(yt, yn, k);
            }
            _mm_storeu_si128(u.as_mut_ptr().add(t) as *mut __m128i, un);
            _mm_storeu_si128(v.as_mut_ptr().add(tp) as *mut __m128i, vn);
            _mm_storeu_si128(x.as_mut_ptr().add(tp) as *mut __m128i, xn);
            _mm_storeu_si128(y.as_mut_ptr().add(t) as *mut __m128i, yn);

            if let Some(row) = dir_row.as_deref_mut() {
                let mut d = _mm_and_si128(_mm_cmpgt_epi8(a, s), d1);
                d = _mm_blendv_epi8(d, d2, _mm_cmpgt_epi8(b, za));
                d = _mm_or_si128(d, _mm_and_si128(_mm_cmpgt_epi8(xt, zero), d4));
                d = _mm_or_si128(d, _mm_and_si128(_mm_cmpgt_epi8(yt2, zero), d8));
                let at = row.as_mut_ptr().add(t - st) as *mut __m128i;
                if let Some(k) = keep {
                    d = _mm_blendv_epi8(_mm_loadu_si128(at), d, k);
                }
                _mm_storeu_si128(at, d);
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

    fn random_pair(seed: u64, tlen: usize, edits: usize) -> (Vec<u8>, Vec<u8>) {
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let t: Vec<u8> = (0..tlen).map(|_| (rnd() % 4) as u8).collect();
        let mut q = t.clone();
        for _ in 0..edits {
            let pos = rnd() % q.len();
            match rnd() % 3 {
                0 => q[pos] = (rnd() % 4) as u8,
                1 => q.insert(pos, (rnd() % 4) as u8),
                _ => {
                    q.remove(pos);
                }
            }
        }
        (t, q)
    }

    #[test]
    fn matches_scalar_on_long_noisy_pairs() {
        if !available() {
            return;
        }
        for (seed, len) in [(1u64, 64usize), (2, 100), (3, 257), (4, 500)] {
            let (t, q) = random_pair(seed, len, len / 8);
            for mode in MODES {
                let gold = scalar::align_manymap(&t, &q, &SC, mode, true);
                let a = align_mm2(&t, &q, &SC, mode, true);
                let b = align_manymap(&t, &q, &SC, mode, true);
                assert_eq!(a, gold, "sse mm2 len={len} mode={mode:?}");
                assert_eq!(b, gold, "sse manymap len={len} mode={mode:?}");
            }
        }
    }

    #[test]
    fn handles_vector_boundary_lengths() {
        if !available() {
            return;
        }
        // Square and rectangular shapes around the lane edges. Skinny
        // shapes keep every diagonal shorter than one vector, so the whole
        // matrix runs through the partial-chunk path.
        let shapes: [(usize, usize); 12] = [
            (15, 15),
            (16, 16),
            (17, 17),
            (31, 33),
            (33, 31),
            (48, 48),
            (17, 33),
            (33, 17),
            (200, 7),
            (7, 200),
            (1, 33),
            (33, 1),
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
        fn sse_kernels_match_scalar(
            t in proptest::collection::vec(0u8..5, 1..128),
            q in proptest::collection::vec(0u8..5, 1..128),
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
