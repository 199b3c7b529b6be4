//! Shared scaffolding for the difference-recurrence kernels.
//!
//! Both memory layouts (minimap2's Eq. 3 and manymap's Eq. 4) iterate the DP
//! matrix by anti-diagonal `r = i + j` with `t = i` inside the diagonal, and
//! both need the same three pieces implemented here:
//!
//! * [`DirMatrix`] — the quadratic backtracking matrix for with-path
//!   alignment, stored diagonal-major so SIMD kernels can write direction
//!   bytes with contiguous stores;
//! * [`Tracker`] — 32-bit score recovery along the diagonal boundary cells
//!   (the difference recurrence only keeps 8-bit deltas; absolute scores are
//!   rebuilt incrementally at the `st`/`en` edges of each diagonal);
//! * [`backtrack`] — the state-machine CIGAR reconstruction shared by every
//!   with-path kernel.
//!
//! Direction byte layout (one byte per cell): bits 0–1 hold the source of
//! `z` (0 = diagonal/substitution, 1 = E-term ⇒ `D`, 2 = F-term ⇒ `I`);
//! bit 2 is set when the E gap *continues* into the next row (the
//! `max(0, ·)` in Eq. 3 selected the non-zero branch); bit 3 likewise for F.

use crate::cigar::{Cigar, CigarOp};
use crate::score::Scoring;
use crate::types::{AlignMode, AlignResult};

/// `z` came from the substitution term.
pub const SRC_DIAG: u8 = 0;
/// `z` came from the E term (gap in query, CIGAR `D`).
pub const SRC_E: u8 = 1;
/// `z` came from the F term (gap in target, CIGAR `I`).
pub const SRC_F: u8 = 2;
/// Mask for the source bits.
pub const SRC_MASK: u8 = 3;
/// E gap continues (x chose the non-zero branch).
pub const E_CONT: u8 = 4;
/// F gap continues (y chose the non-zero branch).
pub const F_CONT: u8 = 8;

/// Quadratic direction matrix in diagonal-major layout.
///
/// Row `r` holds the cells of anti-diagonal `r` (indices `t - st(r)`), so a
/// kernel sweeping `t` writes one contiguous byte run per diagonal. Total
/// size is `|T|·|Q|` bytes, the same quadratic footprint the paper charges
/// for with-path alignment, plus [`DirMatrix::SLACK`] spare bytes at the end
/// so a full-width vector at the tail of the last row stays in bounds.
pub struct DirMatrix {
    data: Vec<u8>,
    offsets: Vec<usize>,
    tlen: usize,
    qlen: usize,
}

impl Default for DirMatrix {
    fn default() -> Self {
        DirMatrix::empty()
    }
}

impl DirMatrix {
    /// Spare bytes after the last row: the widest vector (32 bytes) that
    /// the Eq. 4 SSE/AVX2 kernels store past a row's end.
    pub const SLACK: usize = 32;

    /// An unsized matrix holding no storage; size it with
    /// [`reset`](Self::reset) before use. This is what [`crate::AlignScratch`]
    /// embeds so the backing store can be recycled across align calls.
    pub fn empty() -> Self {
        DirMatrix {
            data: Vec::new(),
            offsets: Vec::new(),
            tlen: 0,
            qlen: 0,
        }
    }

    /// Allocate for a `|T| × |Q|` problem.
    ///
    /// # Panics
    /// If either dimension is zero (the diagonal layout is undefined for an
    /// empty matrix; every kernel routes empty inputs through its
    /// `degenerate()` gate before building a `DirMatrix`).
    pub fn new(tlen: usize, qlen: usize) -> Self {
        let mut m = DirMatrix::empty();
        m.reset(tlen, qlen);
        m
    }

    /// Re-size for a `|T| × |Q|` problem, reusing the existing backing store
    /// (grow-only: no allocation when the new problem fits the old
    /// capacity). All direction bytes are cleared to zero.
    ///
    /// # Panics
    /// If either dimension is zero — see [`new`](Self::new).
    pub fn reset(&mut self, tlen: usize, qlen: usize) {
        assert!(
            tlen > 0 && qlen > 0,
            "DirMatrix is undefined for empty inputs ({tlen}x{qlen}); \
             kernels must take their degenerate() path first"
        );
        let diags = tlen + qlen - 1;
        self.offsets.clear();
        self.offsets.reserve(diags + 1);
        let mut acc = 0usize;
        self.offsets.push(0);
        for r in 0..diags {
            let st = r.saturating_sub(qlen - 1);
            let en = r.min(tlen - 1);
            acc += en - st + 1;
            self.offsets.push(acc);
        }
        debug_assert_eq!(acc, tlen * qlen);
        self.data.clear();
        self.data.resize(acc + Self::SLACK, 0);
        self.tlen = tlen;
        self.qlen = qlen;
    }

    /// Mutable slice of diagonal `r` (length `en - st + 1`).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u8] {
        let (s, e) = (self.offsets[r], self.offsets[r + 1]);
        &mut self.data[s..e]
    }

    /// Diagonal `r` followed by [`SLACK`](Self::SLACK) more bytes (the start
    /// of the next rows, or the spare tail). A kernel may load and store a
    /// full vector at the row's last chunk as long as it writes back the
    /// bytes past the row's end unchanged.
    #[inline]
    pub(crate) fn row_padded_mut(&mut self, r: usize) -> &mut [u8] {
        let (s, e) = (self.offsets[r], self.offsets[r + 1]);
        &mut self.data[s..e + Self::SLACK]
    }

    /// Direction byte of cell `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u8 {
        let r = i + j;
        let st = r.saturating_sub(self.qlen - 1);
        self.data[self.offsets[r] + (i - st)]
    }

    /// Bytes held (the quadratic-space term of the paper's memory model).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Target length this matrix was sized for.
    pub fn tlen(&self) -> usize {
        self.tlen
    }

    /// Query length this matrix was sized for.
    pub fn qlen(&self) -> usize {
        self.qlen
    }
}

/// Rebuilds absolute 32-bit scores along each diagonal's first (`st`) and
/// last (`en`) cells and tracks the best last-row / last-column cell for the
/// free-end modes.
///
/// Identities used (derived from the definitions of `u`, `v`):
/// `H(r,en) = H(r-1,en) + u(r,en)` while the `en` cell walks down column 0,
/// and `H(r,en) = H(r-1,en) + v(r,en)` once it walks along the last row;
/// symmetrically for the `st` cell with `v` (first row) and `u` (last
/// column).
pub struct Tracker {
    hen: i32,
    hst: i32,
    row_best: (i32, usize, usize),
    col_best: (i32, usize, usize),
    tlen: usize,
    qlen: usize,
}

impl Tracker {
    /// Tracker for a `|T| × |Q|` problem.
    ///
    /// # Panics
    /// If either dimension is zero: `diag`'s boundary identities divide the
    /// walk at `tlen - 1` / `qlen - 1`, which underflow for empty inputs.
    /// Kernels route empty inputs through `degenerate()` before building a
    /// `Tracker`.
    pub fn new(tlen: usize, qlen: usize) -> Self {
        assert!(
            tlen > 0 && qlen > 0,
            "Tracker is undefined for empty inputs ({tlen}x{qlen}); \
             kernels must take their degenerate() path first"
        );
        Tracker {
            hen: 0,
            hst: 0,
            row_best: (i32::MIN / 4, 0, 0),
            col_best: (i32::MIN / 4, 0, 0),
            tlen,
            qlen,
        }
    }

    /// Account diagonal `r` after its cells are written. `u_st`, `u_en` are
    /// the freshly written `u` values at `t = st`/`t = en`; `v_st` / `v_en`
    /// the freshly written `v` values (callers pass the layout-appropriate
    /// slots). `qe = q + e`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn diag(
        &mut self,
        r: usize,
        st: usize,
        en: usize,
        u_st: i32,
        u_en: i32,
        v_st: i32,
        v_en: i32,
        qe: i32,
    ) {
        if r == 0 {
            // H(0,0) = u(0,0) + H(-1,0) = u(0,0) - (q+e).
            self.hen = u_en - qe;
            self.hst = self.hen;
        } else {
            if en == r {
                self.hen += u_en; // walking down column j = 0
            } else {
                self.hen += v_en; // walking along the last row
            }
            if st == 0 {
                self.hst += v_st; // walking along the first row
            } else {
                self.hst += u_st; // walking down the last column
            }
        }
        if en == self.tlen - 1 && self.hen > self.row_best.0 {
            self.row_best = (self.hen, en, r - en);
        }
        if r - st == self.qlen - 1 && self.hst > self.col_best.0 {
            self.col_best = (self.hst, st, r - st);
        }
    }

    /// Resolve the score and end cell for `mode`.
    pub fn finalize(&self, mode: AlignMode) -> (i32, usize, usize) {
        match mode {
            AlignMode::Global => {
                debug_assert_eq!(self.hen, self.hst, "both walks must meet at the corner");
                (self.hen, self.tlen - 1, self.qlen - 1)
            }
            AlignMode::QuerySuffixFree => self.row_best,
            AlignMode::TargetSuffixFree => self.col_best,
            // Prefer the last-row cell on ties, matching the reference
            // implementation's scan order.
            AlignMode::SemiGlobal => {
                if self.col_best.0 > self.row_best.0 {
                    self.col_best
                } else {
                    self.row_best
                }
            }
        }
    }
}

/// Reconstruct the CIGAR from a direction matrix, starting at cell
/// `(end_i, end_j)` and walking back to the `(0,0)` boundary.
pub fn backtrack(dir: &DirMatrix, end_i: usize, end_j: usize) -> Cigar {
    let mut cig = Cigar::new();
    backtrack_into(dir, end_i, end_j, &mut cig);
    cig
}

/// [`backtrack`] writing into caller-provided (recyclable) CIGAR storage.
pub fn backtrack_into(dir: &DirMatrix, end_i: usize, end_j: usize, cig: &mut Cigar) {
    cig.clear();
    let mut i = end_i as isize;
    let mut j = end_j as isize;
    #[derive(PartialEq)]
    enum State {
        M,
        E,
        F,
    }
    let mut state = State::M;
    while i >= 0 && j >= 0 {
        match state {
            State::M => match dir.get(i as usize, j as usize) & SRC_MASK {
                SRC_DIAG => {
                    cig.push(CigarOp::Match, 1);
                    i -= 1;
                    j -= 1;
                }
                SRC_E => state = State::E,
                _ => state = State::F,
            },
            State::E => {
                // We arrived via E(i,j); the open/continue decision for this
                // gap step is the E_CONT bit of cell (i-1, j). (`j >= 0`
                // holds throughout the loop, so only `i` needs guarding.)
                cig.push(CigarOp::Del, 1);
                let cont = i > 0 && dir.get(i as usize - 1, j as usize) & E_CONT != 0;
                i -= 1;
                if !cont {
                    state = State::M;
                }
            }
            State::F => {
                cig.push(CigarOp::Ins, 1);
                let cont = j > 0 && dir.get(i as usize, j as usize - 1) & F_CONT != 0;
                j -= 1;
                if !cont {
                    state = State::M;
                }
            }
        }
    }
    if i >= 0 {
        cig.push(CigarOp::Del, i as u32 + 1);
    }
    if j >= 0 {
        cig.push(CigarOp::Ins, j as u32 + 1);
    }
    cig.reverse();
}

/// Reconstruct a CIGAR from a two-piece direction matrix (see
/// [`crate::twopiece`]): bits 0–2 select the source of `z` (0 diag, 1 E,
/// 2 F, 3 E2, 4 F2); bits 3–6 are the continuation flags of E/F/E2/F2.
pub fn backtrack2(dir: &DirMatrix, end_i: usize, end_j: usize) -> Cigar {
    let mut cig = Cigar::new();
    backtrack2_into(dir, end_i, end_j, &mut cig);
    cig
}

/// [`backtrack2`] writing into caller-provided (recyclable) CIGAR storage.
pub fn backtrack2_into(dir: &DirMatrix, end_i: usize, end_j: usize, cig: &mut Cigar) {
    cig.clear();
    let mut i = end_i as isize;
    let mut j = end_j as isize;
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        M,
        Gap { del: bool, cont_bit: u8 },
    }
    let mut st = St::M;
    while i >= 0 && j >= 0 {
        match st {
            St::M => match dir.get(i as usize, j as usize) & 0b111 {
                0 => {
                    cig.push(CigarOp::Match, 1);
                    i -= 1;
                    j -= 1;
                }
                1 => {
                    st = St::Gap {
                        del: true,
                        cont_bit: 8,
                    }
                }
                2 => {
                    st = St::Gap {
                        del: false,
                        cont_bit: 16,
                    }
                }
                3 => {
                    st = St::Gap {
                        del: true,
                        cont_bit: 32,
                    }
                }
                _ => {
                    st = St::Gap {
                        del: false,
                        cont_bit: 64,
                    }
                }
            },
            St::Gap { del, cont_bit } => {
                if del {
                    cig.push(CigarOp::Del, 1);
                    let cont = i > 0 && dir.get(i as usize - 1, j as usize) & cont_bit != 0;
                    i -= 1;
                    if !cont {
                        st = St::M;
                    }
                } else {
                    cig.push(CigarOp::Ins, 1);
                    let cont = j > 0 && dir.get(i as usize, j as usize - 1) & cont_bit != 0;
                    j -= 1;
                    if !cont {
                        st = St::M;
                    }
                }
            }
        }
    }
    if i >= 0 {
        cig.push(CigarOp::Del, i as u32 + 1);
    }
    if j >= 0 {
        cig.push(CigarOp::Ins, j as u32 + 1);
    }
    cig.reverse();
}

/// One difference-recurrence cell update (Eq. 3/4 right-hand sides), shared
/// by the scalar kernels and the scalar tails of the SIMD kernels so every
/// code path computes bit-identical values.
///
/// Inputs are the 8-bit state values promoted to i32; returns
/// `(u, v, x, y, dir)` for the cell.
#[inline(always)]
pub fn cell_update(
    s: i32,
    x_in: i32,
    v_in: i32,
    y_in: i32,
    u_in: i32,
    q: i32,
    qe: i32,
) -> (i8, i8, i8, i8, u8) {
    let a = x_in + v_in;
    let b = y_in + u_in;
    let mut z = s;
    let mut dir = SRC_DIAG;
    if a > z {
        z = a;
        dir = SRC_E;
    }
    if b > z {
        z = b;
        dir = SRC_F;
    }
    let xt = a - z + q;
    let yt = b - z + q;
    if xt > 0 {
        dir |= E_CONT;
    }
    if yt > 0 {
        dir |= F_CONT;
    }
    (
        clamp_i8(z - v_in),
        clamp_i8(z - u_in),
        clamp_i8(xt.max(0) - qe),
        clamp_i8(yt.max(0) - qe),
        dir,
    )
}

#[inline(always)]
pub(crate) fn clamp_i8(v: i32) -> i8 {
    debug_assert!(
        (i8::MIN as i32..=i8::MAX as i32).contains(&v),
        "difference value {v} escapes i8; scoring violates fits_i8"
    );
    // Saturate rather than truncate: a release build fed a scoring that
    // violates fits_i8 (callers are expected to reject those via
    // `Engine::try_align`) degrades like the SIMD kernels' saturating
    // arithmetic instead of silently wrapping to a garbage score.
    v.clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

/// Shared empty-input handling for all kernels (delegates to the reference
/// implementation's conventions).
pub(crate) fn degenerate(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
) -> Option<AlignResult> {
    if target.is_empty() || query.is_empty() {
        Some(crate::fullmatrix::align(target, query, sc, mode, with_path))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_matrix_layout_covers_all_cells() {
        let m = DirMatrix::new(4, 3);
        assert!(m.heap_bytes() >= 12);
        // Mark every cell via row_mut and read back via get.
        let mut m = DirMatrix::new(4, 3);
        for r in 0usize..(4 + 3 - 1) {
            let st = r.saturating_sub(2);
            for (k, b) in m.row_mut(r).iter_mut().enumerate() {
                *b = (r * 10 + k) as u8;
            }
            let en = r.min(3);
            assert_eq!(m.row_mut(r).len(), en - st + 1, "diag {r}");
        }
        for i in 0usize..4 {
            for j in 0..3 {
                let r = i + j;
                let st = r.saturating_sub(2);
                assert_eq!(m.get(i, j), (r * 10 + (i - st)) as u8);
            }
        }
    }

    #[test]
    fn tracker_pure_match_path() {
        // 2x2 all-match with a=2, q=4, e=2 (qe=6): H(0,0)=2 so u(0,0)=8.
        let mut t = Tracker::new(2, 2);
        t.diag(0, 0, 0, 8, 8, 0, 0, 6);
        // r=1: en==r ⇒ hen += u_en; st==0 ⇒ hst += v_st.
        t.diag(1, 0, 1, 0, -6, -6, 0, 6);
        // r=2: single cell (1,1), en=1<r ⇒ hen += v_en; st=1>0 ⇒ hst += u_st.
        t.diag(2, 1, 1, 8, 0, 0, 8, 6);
        let (score, i, j) = t.finalize(AlignMode::Global);
        assert_eq!((score, i, j), (4, 1, 1));
    }
}
