//! Minimizer sketching (Roberts et al. 2004, as used by minimap2).
//!
//! A `(w, k)` minimizer is the k-mer with the smallest hash among the `w`
//! consecutive k-mers of a window. Hashing uses minimap2's invertible
//! 64-bit mix so that low-complexity k-mers (poly-A etc.) do not dominate;
//! each k-mer is taken on its canonical strand (the lexicographically
//! smaller of forward/reverse-complement encodings); strand-symmetric
//! k-mers are skipped, and windows containing ambiguous bases produce no
//! minimizers.

/// One minimizer: hash value, position of the k-mer's *last* base, the
/// strand whose encoding was canonical, and the number of original bases
/// the k-mer covers (= k, or more under homopolymer compression).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Minimizer {
    pub hash: u64,
    /// 0-based position of the last base of the k-mer (original
    /// coordinates).
    pub pos: u32,
    /// True when the reverse-complement encoding was canonical.
    pub rev: bool,
    /// Original bases spanned (saturated at 255).
    pub span: u8,
}

/// minimap2's invertible integer hash (Thomas Wang's 64-bit mix), masked to
/// `2k` bits.
#[inline]
pub fn hash64(key: u64, mask: u64) -> u64 {
    let mut k = key;
    k = (!k).wrapping_add(k << 21) & mask;
    k ^= k >> 24;
    k = (k.wrapping_add(k << 3)).wrapping_add(k << 8) & mask;
    k ^= k >> 14;
    k = (k.wrapping_add(k << 2)).wrapping_add(k << 4) & mask;
    k ^= k >> 28;
    k = k.wrapping_add(k << 31) & mask;
    k
}

/// Sketch `seq` (nt4 codes) with `(k, w)` minimizers.
///
/// Consecutive windows sharing the same minimizer emit it once, matching
/// minimap2's output density (~`2/(w+1)` of positions).
///
/// ```
/// use mmm_index::minimizers;
/// let seq = mmm_seq::to_nt4(b"ACGTTGCAACGGTCATACGTTGCA");
/// let ms = minimizers(&seq, 11, 5);
/// assert!(!ms.is_empty());
/// // positions are the k-mer end coordinates, strictly increasing
/// assert!(ms.windows(2).all(|p| p[0].pos < p[1].pos));
/// ```
pub fn minimizers(seq: &[u8], k: usize, w: usize) -> Vec<Minimizer> {
    minimizers_impl(seq, k, w, false)
}

/// Sketch with homopolymer compression (minimap2's `-H`, the `map-pb`
/// default): runs of identical bases collapse to one before k-mer
/// extraction, which suits PacBio CLR's indel-dominant error profile.
/// Positions and spans are reported in *original* coordinates.
pub fn minimizers_hpc(seq: &[u8], k: usize, w: usize) -> Vec<Minimizer> {
    minimizers_impl(seq, k, w, true)
}

/// Placeholder for "no k-mer here" (too close to the start or to an
/// ambiguous base, or strand-symmetric). Real hashes are masked to `2k`
/// bits, so `u64::MAX` never collides with one and is never emitted.
const NO_KMER: Minimizer = Minimizer {
    hash: u64::MAX,
    pos: 0,
    rev: false,
    span: 0,
};

/// One pass over the sequence (minimap2's `mm_sketch`): each (compressed)
/// symbol yields one candidate k-mer, which goes into a `w`-slot ring
/// holding the current window. The window minimum is kept incrementally
/// and the ring is rescanned only when the minimum slides out. Ties keep
/// the leftmost k-mer, and consecutive windows sharing a minimum emit it
/// once.
fn minimizers_impl(seq: &[u8], k: usize, w: usize, hpc: bool) -> Vec<Minimizer> {
    assert!((4..=28).contains(&k), "k must be in [4, 28]");
    assert!((1..256).contains(&w), "w must be in [1, 255]");
    let mut out = Vec::with_capacity(seq.len() / (w + 1) * 2 + 16);
    if seq.len() < k {
        return out;
    }
    let mask: u64 = (1 << (2 * k)) - 1;
    let shift = 2 * (k - 1);
    let (mut fwd, mut rc) = (0u64, 0u64);
    // (Compressed) symbols since the last ambiguous base; `starts[j & 31]`
    // is the original start of the j-th of them. k ≤ 28 < 32, so the
    // starts of the current k-mer are never overwritten.
    let mut l = 0usize;
    let mut starts = [0u32; 32];
    let mut ring = vec![NO_KMER; w];
    let mut slot = 0usize;
    // Candidate index of the window minimum `min`.
    let (mut min, mut min_at) = (NO_KMER, 0usize);
    let mut last_emitted: Option<(u64, u32)> = None;
    // The first full window ends at candidate k-1+w-1; emit from there on.
    let first_window = k + w - 2;
    let mut n = 0usize;
    let mut i = 0usize;
    while i < seq.len() {
        let c = seq[i];
        // With HPC, consume the whole run of identical bases.
        let run_start = i;
        let mut run_end = i + 1;
        if hpc && c < 4 {
            while run_end < seq.len() && seq[run_end] == c {
                run_end += 1;
            }
        }
        let end = run_end - 1;
        let mut cand = NO_KMER;
        if c < 4 {
            fwd = ((fwd << 2) | c as u64) & mask;
            rc = (rc >> 2) | ((3 - c as u64) << shift);
            starts[l & 31] = run_start as u32;
            l += 1;
            if l >= k && fwd != rc {
                let (key, rev) = if fwd < rc { (fwd, false) } else { (rc, true) };
                let start = starts[(l - k) & 31] as usize;
                cand = Minimizer {
                    hash: hash64(key, mask),
                    pos: end as u32,
                    rev,
                    span: (end - start + 1).min(255) as u8,
                };
            }
        } else {
            l = 0;
        }
        ring[slot] = cand;
        if cand.hash < min.hash {
            (min, min_at) = (cand, n);
        } else if min_at + w <= n {
            // The minimum left the window: rescan oldest-first so that a
            // tie keeps the leftmost k-mer. An all-empty window parks the
            // minimum on the newest slot, so runs of N rescan once per `w`.
            (min, min_at) = (NO_KMER, n);
            let (newer, older) = ring.split_at(slot + 1);
            for (j, r) in older.iter().chain(newer).enumerate() {
                if r.hash < min.hash {
                    (min, min_at) = (*r, n + 1 - w + j);
                }
            }
        }
        if n >= first_window && min.hash != u64::MAX && last_emitted != Some((min.hash, min.pos)) {
            out.push(min);
            last_emitted = Some((min.hash, min.pos));
        }
        slot = if slot + 1 == w { 0 } else { slot + 1 };
        n += 1;
        i = run_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::{revcomp4, to_nt4};

    /// The two-pass sketch the single-pass one replaced, kept as the
    /// reference it is tested against.
    fn minimizers_reference(seq: &[u8], k: usize, w: usize, hpc: bool) -> Vec<Minimizer> {
        assert!((4..=28).contains(&k), "k must be in [4, 28]");
        assert!((1..256).contains(&w), "w must be in [1, 255]");
        let mut out = Vec::with_capacity(seq.len() / (w + 1) * 2 + 16);
        if seq.len() < k {
            return out;
        }
        let mask: u64 = (1 << (2 * k)) - 1;
        let shift = 2 * (k - 1);
        let (mut fwd, mut rc) = (0u64, 0u64);
        let mut l = 0usize; // (compressed) bases since the last ambiguous base

        // Per-candidate (hash, original end pos, rev, original span);
        // u64::MAX marks "no k-mer". Under HPC one candidate is produced per
        // *compressed* position (the last original base of its run).
        let mut cands: Vec<Minimizer> = Vec::with_capacity(seq.len());
        // Original start positions of the last k compressed symbols.
        let mut starts: std::collections::VecDeque<u32> =
            std::collections::VecDeque::with_capacity(k + 1);
        let mut i = 0usize;
        while i < seq.len() {
            let c = seq[i];
            // With HPC, consume the whole run of identical bases.
            let run_start = i;
            let mut run_end = i + 1;
            if hpc && c < 4 {
                while run_end < seq.len() && seq[run_end] == c {
                    run_end += 1;
                }
            }
            if c < 4 {
                fwd = ((fwd << 2) | c as u64) & mask;
                rc = (rc >> 2) | ((3 - c as u64) << shift);
                l += 1;
                starts.push_back(run_start as u32);
                if starts.len() > k {
                    starts.pop_front();
                }
            } else {
                l = 0;
                starts.clear();
            }
            let end = run_end - 1;
            // `l >= k` guarantees `starts` holds k tracked symbol starts; the
            // match keeps that invariant panic-free even if it ever broke.
            let m = match starts.front() {
                Some(&start) if l >= k && fwd != rc => {
                    let (key, rev) = if fwd < rc { (fwd, false) } else { (rc, true) };
                    Minimizer {
                        hash: hash64(key, mask),
                        pos: end as u32,
                        rev,
                        span: (end - start as usize + 1).min(255) as u8,
                    }
                }
                _ => Minimizer {
                    hash: u64::MAX,
                    pos: end as u32,
                    rev: false,
                    span: 0,
                },
            };
            cands.push(m);
            i = run_end;
        }

        // Sliding-window minimum with a monotonic deque over candidate hashes.
        // The deque keeps indices with non-decreasing hash; ties keep the
        // earliest (leftmost) k-mer, like minimap2's default.
        let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut last_emitted: Option<(u64, u32)> = None;
        for i in 0..cands.len() {
            while let Some(&b) = deque.back() {
                if cands[b].hash > cands[i].hash {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back(i);
            while let Some(&f) = deque.front() {
                if f + w <= i {
                    deque.pop_front();
                } else {
                    break;
                }
            }
            // First full window ends at index k-1+w-1; emit from there on. The
            // deque is never empty here (index i was just pushed).
            if i + 1 >= k + w - 1 {
                if let Some(&front) = deque.front() {
                    let best = cands[front];
                    if best.hash != u64::MAX && last_emitted != Some((best.hash, best.pos)) {
                        out.push(best);
                        last_emitted = Some((best.hash, best.pos));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn hash_is_invertible_shaped() {
        // Different keys must give different hashes (invertibility implies
        // injectivity within the mask).
        let mask = (1u64 << 30) - 1;
        let a = hash64(12345, mask);
        let b = hash64(12346, mask);
        assert_ne!(a, b);
        assert!(a <= mask && b <= mask);
    }

    #[test]
    fn short_sequence_has_no_minimizers() {
        assert!(minimizers(&to_nt4(b"ACGTACGT"), 15, 5).is_empty());
    }

    #[test]
    fn w1_emits_every_distinct_kmer_position() {
        let seq = to_nt4(b"ACGTTGCAACGGTCAT");
        let ms = minimizers(&seq, 5, 1);
        // Every position from k-1 on yields a k-mer (none are palindromic
        // here); all must be emitted with w = 1.
        assert_eq!(ms.len(), seq.len() - 5 + 1);
        assert!(ms.windows(2).all(|p| p[0].pos < p[1].pos));
        assert!(ms.iter().all(|m| m.span == 5));
    }

    #[test]
    fn hpc_collapses_homopolymers() {
        // AAACCCGGGAATT compresses to ACGAT; with k=4, w=1 the compressed
        // k-mers are ACGA (original span 0..=10) and CGAT (3..=12).
        // (ACGT-style palindromic k-mers would be strand-ambiguous and
        // skipped, so the example avoids them.)
        let seq = to_nt4(b"AAACCCGGGAATT");
        let ms = minimizers_hpc(&seq, 4, 1);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].pos, 10); // last A of the AA run
        assert_eq!(ms[0].span, 11);
        assert_eq!(ms[1].pos, 12); // last T
        assert_eq!(ms[1].span, 10);
    }

    #[test]
    fn hpc_is_insensitive_to_homopolymer_length_errors() {
        // The hallmark property: expanding a homopolymer run does not
        // change the compressed k-mer stream (hash sequence).
        let a = to_nt4(b"ACGGTCATTACGGACTTACGGTACGATCAG");
        let mut b = a.clone();
        b.insert(3, 2); // extend the GG run
        b.insert(9, 3); // extend a T run
        let ha: Vec<u64> = minimizers_hpc(&a, 7, 3).iter().map(|m| m.hash).collect();
        let hb: Vec<u64> = minimizers_hpc(&b, 7, 3).iter().map(|m| m.hash).collect();
        assert_eq!(ha, hb);
        // Plain sketching *is* disturbed by the same edits.
        let pa: Vec<u64> = minimizers(&a, 7, 3).iter().map(|m| m.hash).collect();
        let pb: Vec<u64> = minimizers(&b, 7, 3).iter().map(|m| m.hash).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn density_is_roughly_two_over_w_plus_one() {
        // Pseudo-random 20 kb sequence.
        let mut state = 7u64;
        let seq: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect();
        let (k, w) = (15, 10);
        let ms = minimizers(&seq, k, w);
        let density = ms.len() as f64 / seq.len() as f64;
        let expect = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expect).abs() < expect * 0.25,
            "density {density:.4} vs expected {expect:.4}"
        );
    }

    #[test]
    fn strand_symmetry() {
        // The sketch of the reverse complement contains the same hash set.
        let mut state = 99u64;
        let seq: Vec<u8> = (0..2_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect();
        let fwd: std::collections::HashSet<u64> = minimizers(&seq, 15, 10)
            .into_iter()
            .map(|m| m.hash)
            .collect();
        let rev: std::collections::HashSet<u64> = minimizers(&revcomp4(&seq), 15, 10)
            .into_iter()
            .map(|m| m.hash)
            .collect();
        let inter = fwd.intersection(&rev).count();
        // Windows shift slightly between strands; most hashes must survive.
        assert!(
            inter as f64 >= 0.8 * fwd.len() as f64,
            "{inter} of {}",
            fwd.len()
        );
    }

    #[test]
    fn ambiguous_bases_suppress_spanning_kmers() {
        let clean = to_nt4(b"ACGTTGCAACGGTCATACGTTGCAACGGTCAT");
        let mut dirty = clean.clone();
        dirty[16] = 4; // N in the middle
        let mc = minimizers(&clean, 9, 3);
        let md = minimizers(&dirty, 9, 3);
        // No minimizer in the dirty sketch spans position 16.
        assert!(md.iter().all(|m| {
            let start = m.pos as usize + 1 - 9;
            !(start..=m.pos as usize).contains(&16)
        }));
        assert!(md.len() < mc.len());
    }

    /// nt4 sequence from `seed`: random bases broken by runs of N (code 4)
    /// and homopolymer runs, the two inputs that reset or stretch k-mers.
    fn run_heavy_seq(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m) as usize
        };
        let mut seq = Vec::with_capacity(len + 64);
        while seq.len() < len {
            match next(40) {
                0 => seq.extend(std::iter::repeat_n(4u8, 1 + next(40))),
                1..=3 => seq.extend(std::iter::repeat_n(next(4) as u8, 2 + next(30))),
                _ => seq.push(next(4) as u8),
            }
        }
        seq.truncate(len);
        seq
    }

    #[test]
    fn single_pass_matches_reference_on_edge_windows() {
        // All-N, all-one-base, w = 1 and w = 255, and lengths around k.
        let cases: Vec<Vec<u8>> = vec![
            vec![4; 600],
            vec![2; 600],
            run_heavy_seq(3, 27),
            run_heavy_seq(4, 29),
            run_heavy_seq(5, 5_000),
        ];
        for seq in &cases {
            for (k, w) in [(4, 1), (15, 10), (19, 10), (28, 255), (4, 255)] {
                for hpc in [false, true] {
                    assert_eq!(
                        minimizers_impl(seq, k, w, hpc),
                        minimizers_reference(seq, k, w, hpc),
                        "k={k} w={w} hpc={hpc} len={}",
                        seq.len()
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn single_pass_matches_reference(
            seed in 0u64..u64::MAX,
            len in 0usize..3_000,
            k in 4usize..29,
            w in 1usize..256,
            hpc in proptest::bool::ANY
        ) {
            let seq = run_heavy_seq(seed, len);
            proptest::prop_assert_eq!(
                minimizers_impl(&seq, k, w, hpc),
                minimizers_reference(&seq, k, w, hpc)
            );
        }
    }

    #[test]
    fn deterministic() {
        let seq = to_nt4(b"ACGTTGCAACGGTCATACGTTGCAACGGTCATGGCCTTAA");
        assert_eq!(minimizers(&seq, 11, 5), minimizers(&seq, 11, 5));
    }
}
