//! Posting-list storage: flat (legacy) and bit-packed FOR/delta (v2).
//!
//! Both layouts index their buckets through one [`KeyTable`]: the distinct
//! minimizer hashes sorted in one array, the per-key values in a parallel
//! array, and a radix directory over the keys' top bits. The image stores
//! the keys in exactly this order, so opening an index fills the table in
//! one pass with no rehashing, and a lookup is one directory read plus a
//! binary search of a few keys.
//!
//! The legacy layout stores every hit as a full `u64` in one `positions`
//! array with `(offset, count)` values. The packed layout (DESIGN.md §14)
//! stores each bucket as **base + bit-packed deltas**: hits within a
//! bucket are strictly increasing, so the bucket is encoded as its first
//! hit (FOR base) followed by `count − 1` successive differences packed at
//! the bucket's minimum sufficient bit width. Values become [`BucketRef`]
//! — the same 16 bytes the legacy `(u64, u32)` value pads to, so the
//! whole saving lands in the hit array. Singleton buckets (the common case
//! under minimizer sketching) need zero block words: their one hit *is*
//! the base.
//!
//! Decoding goes through [`unpack`]'s tiered kernels
//! (scalar / AVX2 / AVX-512 VBMI) into caller-reused buffers, or
//! streaming through a [`PostingCursor`] without materializing anything.

use crate::error::IndexError;
use crate::unpack;

/// Block-word offsets carry 37 bits: a packed index may hold up to 2^37
/// words (1 TiB) of delta blocks.
pub const MAX_BLOCK_WORDS: u64 = 1 << 37;

/// A single bucket may hold up to 2^20 − 1 hits. The occurrence cutoff
/// drops buckets this repetitive during mapping anyway; the builder
/// refuses (typed [`IndexError::PostingBudget`]) rather than truncate.
pub const MAX_BUCKET_HITS: u64 = (1 << 20) - 1;

/// Sorted minimizer-key table: strictly increasing keys, a parallel value
/// array, and a radix directory over the keys' top bits.
///
/// `dir[b]` is the index of the first key whose top bits (`key >> shift`)
/// are at least `b`, so bucket `b`'s keys are `keys[dir[b]..dir[b + 1]]`.
/// The directory has about one entry per two keys; minimizer hashes are
/// uniform, so a lookup binary-searches two or three keys. Directory
/// entries are `u32`: a table holds at most `u32::MAX` keys.
#[derive(Debug)]
pub struct KeyTable<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    dir: Vec<u32>,
    shift: u32,
}

impl<V> Default for KeyTable<V> {
    fn default() -> Self {
        KeyTable {
            keys: Vec::new(),
            vals: Vec::new(),
            dir: vec![0],
            shift: 63,
        }
    }
}

impl<V: Copy> KeyTable<V> {
    /// Build over `keys` (strictly increasing) and their `vals`, in one
    /// pass. Out-of-order or duplicate keys are refused with a message
    /// naming the first offender — a builder never produces them, so from
    /// an image they mean corruption.
    pub fn new(keys: Vec<u64>, vals: Vec<V>) -> Result<Self, String> {
        debug_assert_eq!(keys.len(), vals.len());
        let n = keys.len();
        let Some(&max) = keys.last() else {
            return Ok(KeyTable::default());
        };
        if n > u32::MAX as usize {
            return Err(format!(
                "{n} minimizer keys exceed the table's u32 directory"
            ));
        }
        // About n/2 directory entries over the bits the keys actually use
        // (hashes are masked to 2k bits, so the top of the u64 is empty).
        let dir_bits = n.ilog2().saturating_sub(1).max(1);
        let shift = (u64::BITS - max.leading_zeros()).saturating_sub(dir_bits);
        let buckets = (max >> shift) as usize + 1;
        let mut dir = Vec::with_capacity(buckets + 1);
        let mut prev: Option<u64> = None;
        for (i, &key) in keys.iter().enumerate() {
            // `key > max` is out of order too (the last key must be the
            // largest), and would grow the directory past its size.
            if prev.is_some_and(|p| p >= key) || key > max {
                return Err(format!(
                    "minimizer key #{i} ({key:#x}) is out of order: keys must be \
                     strictly increasing"
                ));
            }
            prev = Some(key);
            let b = (key >> shift) as usize;
            while dir.len() <= b {
                dir.push(i as u32);
            }
        }
        dir.resize(buckets + 1, n as u32);
        Ok(KeyTable {
            keys,
            vals,
            dir,
            shift,
        })
    }

    /// The value stored for `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        let b = (key >> self.shift) as usize;
        let (&lo, &hi) = (self.dir.get(b)?, self.dir.get(b + 1)?);
        let (lo, hi) = (lo as usize, hi as usize);
        let i = lo + self.keys[lo..hi].partition_point(|&k| k < key);
        (i < hi && self.keys[i] == key).then(|| self.vals[i])
    }

    /// All keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// All values, in key order.
    pub fn values(&self) -> &[V] {
        &self.vals
    }

    /// Resident heap bytes: keys, values and directory.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * 8
            + self.vals.capacity() * std::mem::size_of::<V>()
            + self.dir.capacity() * 4
    }
}

/// Which posting-list representation an index is built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndexFormat {
    /// FOR/delta bit-packed blocks (the v2 on-disk format, the default).
    #[default]
    Packed,
    /// One `u64` per hit (the v1 on-disk format).
    Legacy,
}

impl IndexFormat {
    /// Parse a CLI/profile spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "packed" => Some(IndexFormat::Packed),
            "legacy" | "flat" => Some(IndexFormat::Legacy),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            IndexFormat::Packed => "packed",
            IndexFormat::Legacy => "legacy",
        }
    }
}

/// Packed map value: the bucket's FOR base (its first hit) plus a bit
/// field `ocw` packing the block-word offset (37 bits, `[63:27]`), hit
/// count (20 bits, `[26:7]`), and delta bit width (7 bits, `[6:0]`).
/// 16 bytes total — identical to what the legacy `(u64, u32)` map value
/// pads to, so swapping it in is free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketRef {
    /// First (smallest) hit of the bucket.
    pub base: u64,
    /// `off << 27 | count << 7 | width`.
    pub ocw: u64,
}

impl BucketRef {
    /// Assemble from parts; callers must respect the field budgets.
    #[inline]
    pub fn new(off: u64, count: u64, width: u32) -> Self {
        debug_assert!(off < MAX_BLOCK_WORDS);
        debug_assert!((1..=MAX_BUCKET_HITS).contains(&count));
        debug_assert!(width <= 64);
        BucketRef {
            base: 0,
            ocw: (off << 27) | (count << 7) | width as u64,
        }
    }

    /// Block-word offset of the bucket's delta block.
    #[inline(always)]
    pub fn off(self) -> u64 {
        self.ocw >> 27
    }

    /// Number of hits in the bucket (≥ 1).
    #[inline(always)]
    pub fn count(self) -> u64 {
        (self.ocw >> 7) & MAX_BUCKET_HITS
    }

    /// Delta bit width (0 for singleton buckets, which own no block words).
    #[inline(always)]
    pub fn width(self) -> u32 {
        (self.ocw & 0x7f) as u32
    }

    /// Block words the bucket's deltas occupy.
    #[inline]
    pub fn block_words(self) -> u64 {
        unpack::words_for(self.count() - 1, self.width().max(1)) * u64::from(self.width() > 0)
    }
}

/// The packed posting store: one [`BucketRef`] per distinct minimizer
/// hash plus a shared pool of bit-packed delta blocks.
#[derive(Debug, Default)]
pub struct PackedPostings {
    pub(crate) table: KeyTable<BucketRef>,
    pub(crate) blocks: Vec<u64>,
    pub(crate) n_hits: u64,
}

/// Minimum bits that represent `v` (0 → 1: widths are 1..=64 so packed
/// fields always advance).
#[inline]
fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

impl PackedPostings {
    /// Build from `(hash, hit)` pairs sorted by hash then hit — exactly
    /// the builder's post-sort stream. Hits within a bucket must be
    /// non-decreasing (strictly increasing in practice).
    pub fn from_sorted_pairs(pairs: &[(u64, u64)]) -> Result<Self, IndexError> {
        let mut keys = Vec::new();
        let mut refs = Vec::new();
        let mut blocks: Vec<u64> = Vec::new();
        let mut start = 0usize;
        while start < pairs.len() {
            let hash = pairs[start].0;
            let mut end = start + 1;
            while end < pairs.len() && pairs[end].0 == hash {
                end += 1;
            }
            let bucket = &pairs[start..end];
            let count = bucket.len() as u64;
            if count > MAX_BUCKET_HITS {
                return Err(IndexError::PostingBudget {
                    what: format!(
                        "minimizer bucket holds {count} hits, budget is {MAX_BUCKET_HITS}"
                    ),
                });
            }
            let base = bucket[0].1;
            let mut r = if count == 1 {
                BucketRef::new(0, 1, 0)
            } else {
                let mut width = 1u32;
                let mut prev = base;
                for &(_, hit) in &bucket[1..] {
                    debug_assert!(hit >= prev, "bucket hits must be sorted");
                    width = width.max(bits_for(hit - prev));
                    prev = hit;
                }
                let off = blocks.len() as u64;
                let words = unpack::words_for(count - 1, width);
                if off + words > MAX_BLOCK_WORDS {
                    return Err(IndexError::PostingBudget {
                        what: format!(
                            "delta blocks need {} words, budget is {MAX_BLOCK_WORDS}",
                            off + words
                        ),
                    });
                }
                blocks.resize(blocks.len() + words as usize, 0);
                let block = &mut blocks[off as usize..];
                let mut bit = 0usize;
                let mut prev = base;
                for &(_, hit) in &bucket[1..] {
                    unpack::write_fields(block, bit, width, &[hit - prev]);
                    bit += width as usize;
                    prev = hit;
                }
                BucketRef::new(off, count, width)
            };
            r.base = base;
            keys.push(hash);
            refs.push(r);
            start = end;
        }
        keys.shrink_to_fit();
        refs.shrink_to_fit();
        blocks.shrink_to_fit();
        Ok(PackedPostings {
            table: KeyTable::new(keys, refs).map_err(|what| IndexError::PostingBudget { what })?,
            blocks,
            n_hits: pairs.len() as u64,
        })
    }

    /// Decode one bucket into `out` (cleared and refilled). Infallible on
    /// refs produced by this store — load-time validation has already
    /// walked every bucket.
    pub fn decode_ref_into(&self, r: BucketRef, out: &mut Vec<u64>) {
        let count = r.count() as usize;
        out.clear();
        out.resize(count, 0);
        out[0] = r.base;
        if count > 1 {
            let block = &self.blocks[r.off() as usize..];
            unpack::unpack_fields(block, r.width(), &mut out[1..]);
            for i in 1..count {
                out[i] = out[i - 1].wrapping_add(out[i]);
            }
        }
    }

    /// Walk one bucket with checked arithmetic, feeding each decoded hit
    /// to `visit`. Used by load-time validation, where a hostile file
    /// could otherwise wrap deltas past `u64::MAX`.
    pub fn walk_checked(
        &self,
        r: BucketRef,
        mut visit: impl FnMut(u64) -> Result<(), String>,
    ) -> Result<(), String> {
        visit(r.base)?;
        if r.count() > 1 {
            let block = self
                .blocks
                .get(r.off() as usize..)
                .ok_or("bucket offset past delta blocks")?;
            let mut prev = r.base;
            let mut bit = 0usize;
            for _ in 1..r.count() {
                let d = unpack::read_field(block, bit, r.width());
                bit += r.width() as usize;
                prev = prev.checked_add(d).ok_or("delta sum overflows u64")?;
                visit(prev)?;
            }
        }
        Ok(())
    }

    /// Bytes of the hit-carrying section (map excluded): the delta block
    /// pool. The legacy equivalent is `n_hits * 8`.
    pub fn posting_bytes(&self) -> usize {
        self.blocks.len() * 8
    }
}

/// Either posting-list representation behind one query API. The mapper
/// only sees [`Postings::cursor`] / [`Postings::decode_into`], so flipping
/// `--index-format` changes storage, never behavior.
#[derive(Debug)]
pub enum Postings {
    /// Legacy flat layout: `(offset, count)` into one `u64` hit array.
    Flat {
        table: KeyTable<(u64, u32)>,
        positions: Vec<u64>,
    },
    /// FOR/delta bit-packed blocks.
    Packed(PackedPostings),
}

impl Default for Postings {
    fn default() -> Self {
        Postings::Packed(PackedPostings::default())
    }
}

impl Postings {
    /// Which format this store holds.
    pub fn format(&self) -> IndexFormat {
        match self {
            Postings::Flat { .. } => IndexFormat::Legacy,
            Postings::Packed(_) => IndexFormat::Packed,
        }
    }

    /// All minimizer hashes, ascending.
    pub fn keys(&self) -> &[u64] {
        match self {
            Postings::Flat { table, .. } => table.keys(),
            Postings::Packed(p) => p.table.keys(),
        }
    }

    /// Number of distinct minimizer hashes.
    pub fn num_keys(&self) -> usize {
        self.keys().len()
    }

    /// Total number of stored hits.
    pub fn num_hits(&self) -> u64 {
        match self {
            Postings::Flat { positions, .. } => positions.len() as u64,
            Postings::Packed(p) => p.n_hits,
        }
    }

    /// Decode the bucket for `hash` into `out` (cleared and refilled;
    /// empty when the hash is absent). With a reused `out` this is the
    /// allocation-free bulk query path.
    pub fn decode_into(&self, hash: u64, out: &mut Vec<u64>) {
        match self {
            Postings::Flat { table, positions } => {
                out.clear();
                if let Some((off, cnt)) = table.get(hash) {
                    out.extend_from_slice(&positions[off as usize..off as usize + cnt as usize]);
                }
            }
            Postings::Packed(p) => match p.table.get(hash) {
                Some(r) => p.decode_ref_into(r, out),
                None => out.clear(),
            },
        }
    }

    /// Stream the bucket for `hash` without materializing it. One table
    /// probe: the cursor's `len()` is the bucket's hit count (0 when the
    /// hash is absent), so seeding reads the count and the hits together.
    #[inline]
    pub fn cursor(&self, hash: u64) -> PostingCursor<'_> {
        match self {
            Postings::Flat { table, positions } => {
                let hits = match table.get(hash) {
                    Some((off, cnt)) => &positions[off as usize..off as usize + cnt as usize],
                    None => &[],
                };
                PostingCursor::Flat(hits.iter())
            }
            Postings::Packed(p) => match p.table.get(hash) {
                Some(r) => PostingCursor::Packed {
                    blocks: &p.blocks[r.off() as usize..],
                    width: r.width(),
                    bit: 0,
                    prev: r.base,
                    remaining: r.count(),
                    first: true,
                },
                None => PostingCursor::Flat([].iter()),
            },
        }
    }

    /// Bytes of the hit-carrying section (the part the packed layout
    /// shrinks); the key table is excluded because both formats pay the
    /// same 16-byte value per key.
    pub fn posting_bytes(&self) -> usize {
        match self {
            Postings::Flat { positions, .. } => positions.len() * 8,
            Postings::Packed(p) => p.posting_bytes(),
        }
    }

    /// Resident heap bytes: the key table (keys, values, directory) plus
    /// the hit storage.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Postings::Flat { table, positions } => table.heap_bytes() + positions.capacity() * 8,
            Postings::Packed(p) => p.table.heap_bytes() + p.blocks.capacity() * 8,
        }
    }
}

/// Streaming decoder over one posting bucket, yielding packed hits in
/// increasing order. The packed variant holds a bit cursor into the
/// bucket's delta block and the running prefix sum — no buffer, no
/// allocation.
pub enum PostingCursor<'a> {
    /// Legacy: iterate the flat hit slice.
    Flat(std::slice::Iter<'a, u64>),
    /// Packed: FOR base + running delta decode.
    Packed {
        blocks: &'a [u64],
        width: u32,
        bit: usize,
        prev: u64,
        remaining: u64,
        first: bool,
    },
}

impl Iterator for PostingCursor<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self {
            PostingCursor::Flat(it) => it.next().copied(),
            PostingCursor::Packed {
                blocks,
                width,
                bit,
                prev,
                remaining,
                first,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                if *first {
                    *first = false;
                    return Some(*prev);
                }
                let d = unpack::read_field(blocks, *bit, *width);
                *bit += *width as usize;
                *prev = prev.wrapping_add(d);
                Some(*prev)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            PostingCursor::Flat(it) => it.len(),
            PostingCursor::Packed { remaining, .. } => *remaining as usize,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for PostingCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flat_from_pairs(pairs: &[(u64, u64)]) -> Postings {
        let (mut keys, mut vals) = (Vec::new(), Vec::new());
        let mut positions = Vec::new();
        let mut start = 0usize;
        while start < pairs.len() {
            let hash = pairs[start].0;
            let mut end = start + 1;
            while end < pairs.len() && pairs[end].0 == hash {
                end += 1;
            }
            keys.push(hash);
            vals.push((positions.len() as u64, (end - start) as u32));
            positions.extend(pairs[start..end].iter().map(|&(_, h)| h));
            start = end;
        }
        Postings::Flat {
            table: KeyTable::new(keys, vals).unwrap(),
            positions,
        }
    }

    fn assert_equivalent(pairs: &[(u64, u64)]) {
        let flat = flat_from_pairs(pairs);
        let packed = Postings::Packed(PackedPostings::from_sorted_pairs(pairs).unwrap());
        assert_eq!(flat.num_keys(), packed.num_keys());
        assert_eq!(flat.num_hits(), packed.num_hits());
        assert_eq!(flat.keys(), packed.keys());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &h in flat.keys() {
            assert_eq!(
                flat.cursor(h).len(),
                packed.cursor(h).len(),
                "count for {h}"
            );
            flat.decode_into(h, &mut a);
            packed.decode_into(h, &mut b);
            assert_eq!(a, b, "decode for {h}");
            let via_cursor: Vec<u64> = packed.cursor(h).collect();
            assert_eq!(via_cursor, a, "cursor for {h}");
            assert_eq!(packed.cursor(h).len(), a.len());
        }
        // Absent hashes behave identically too.
        let absent = 0xDEAD_BEEF_0BAD_F00Du64;
        for p in [&flat, &packed] {
            assert_eq!(p.cursor(absent).len(), 0);
            p.decode_into(absent, &mut b);
            assert!(b.is_empty());
        }
    }

    #[test]
    fn empty_store() {
        let p = Postings::Packed(PackedPostings::from_sorted_pairs(&[]).unwrap());
        assert_eq!(p.num_keys(), 0);
        assert_eq!(p.num_hits(), 0);
        assert_eq!(p.posting_bytes(), 0);
        assert_equivalent(&[]);
    }

    #[test]
    fn singleton_buckets_use_no_block_words() {
        let pairs = [(1u64, 100u64), (2, 7), (9, u64::MAX)];
        let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
        assert_eq!(packed.blocks.len(), 0);
        assert_eq!(packed.posting_bytes(), 0);
        assert_equivalent(&pairs);
    }

    #[test]
    fn mixed_buckets_round_trip() {
        let pairs = [
            (5u64, 10u64),
            (5, 11),
            (5, 139),
            (5, 1 << 39),
            (8, 42),
            (13, 0),
            (13, u64::MAX), // 64-bit delta in one bucket
        ];
        assert_equivalent(&pairs);
    }

    #[test]
    fn adversarial_widths_round_trip() {
        // Deltas forced to exactly 1, 7, 8, and 39 significant bits, plus
        // empty-adjacent and singleton buckets (satellite requirement).
        for width in [1u32, 7, 8, 39] {
            let delta = if width == 1 { 1 } else { 1u64 << (width - 1) };
            let mut pairs = Vec::new();
            let mut hit = 3u64;
            for _ in 0..123 {
                pairs.push((77u64, hit));
                hit += delta;
            }
            pairs.push((78, 5)); // trailing singleton
            let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
            let r = packed.table.get(77).unwrap();
            assert_eq!(r.width(), width, "width {width}");
            assert_equivalent(&pairs);
        }
    }

    #[test]
    fn key_table_finds_every_key_and_no_other() {
        let mut state = 17u64;
        for n in [0usize, 1, 2, 3, 100, 5_000] {
            // Hashes masked to 2k bits, as the sketch produces them.
            let mut keys: Vec<u64> = (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 7) & ((1 << 30) - 1)
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let vals: Vec<u32> = (0..keys.len() as u32).collect();
            let t = KeyTable::new(keys.clone(), vals).unwrap();
            assert_eq!(t.keys(), &keys[..]);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(t.get(k), Some(i as u32), "n={n} key {k:#x}");
                for probe in [k.wrapping_sub(1), k + 1] {
                    if keys.binary_search(&probe).is_err() {
                        assert_eq!(t.get(probe), None, "n={n} absent {probe:#x}");
                    }
                }
            }
            for absent in [u64::MAX, 1 << 30, 1 << 63] {
                assert_eq!(t.get(absent), None);
            }
        }
    }

    #[test]
    fn key_table_refuses_unsorted_and_duplicate_keys() {
        for keys in [vec![1u64, 5, 3, 9], vec![1, 5, 5, 9], vec![9, 1, 2, 3]] {
            let e = KeyTable::new(keys.clone(), vec![0u8; keys.len()]).unwrap_err();
            assert!(e.contains("strictly increasing"), "{keys:?}: {e}");
        }
    }

    #[test]
    fn packed_heap_bytes_are_keys_values_directory_and_blocks() {
        let mut pairs = Vec::new();
        for h in 0..3_000u64 {
            for i in 0..(1 + h % 3) {
                pairs.push((h.wrapping_mul(0x9E37_79B9) & ((1 << 30) - 1), h * 1_000 + i));
            }
        }
        pairs.sort_unstable();
        let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
        let dir = packed.table.dir.len();
        let keys = packed.table.keys().len();
        // A small directory: about one entry per two keys.
        assert!(dir <= keys / 2 + 2, "{dir} entries for {keys} keys");
        let expect_packed = keys * 8 + keys * 16 + dir * 4 + packed.blocks.len() * 8;
        assert_eq!(Postings::Packed(packed).heap_bytes(), expect_packed);
    }

    #[test]
    fn bucket_ref_field_round_trip() {
        let r = BucketRef::new(MAX_BLOCK_WORDS - 1, MAX_BUCKET_HITS, 64);
        assert_eq!(r.off(), MAX_BLOCK_WORDS - 1);
        assert_eq!(r.count(), MAX_BUCKET_HITS);
        assert_eq!(r.width(), 64);
        let s = BucketRef::new(0, 1, 0);
        assert_eq!(s.block_words(), 0);
        assert_eq!(std::mem::size_of::<BucketRef>(), 16);
    }

    #[test]
    fn format_parse_and_label() {
        assert_eq!(IndexFormat::parse("packed"), Some(IndexFormat::Packed));
        assert_eq!(IndexFormat::parse("legacy"), Some(IndexFormat::Legacy));
        assert_eq!(IndexFormat::parse("flat"), Some(IndexFormat::Legacy));
        assert_eq!(IndexFormat::parse("zip"), None);
        assert_eq!(IndexFormat::default().label(), "packed");
    }

    #[test]
    fn posting_bytes_shrink_on_clustered_hits() {
        // Clustered hits (small deltas) — the realistic minimizer case —
        // must shrink well below the flat 8-bytes-per-hit floor.
        let mut pairs = Vec::new();
        for h in 0..64u64 {
            for i in 0..32u64 {
                pairs.push((h, (h << 20) + i * 97));
            }
        }
        let flat = flat_from_pairs(&pairs);
        let packed = Postings::Packed(PackedPostings::from_sorted_pairs(&pairs).unwrap());
        assert!(
            packed.posting_bytes() * 2 <= flat.posting_bytes(),
            "packed {} vs flat {}",
            packed.posting_bytes(),
            flat.posting_bytes()
        );
        assert_equivalent(&pairs);
    }

    #[test]
    fn oversized_bucket_is_refused() {
        let pairs: Vec<(u64, u64)> = (0..=MAX_BUCKET_HITS).map(|i| (1u64, i * 2)).collect();
        let err = PackedPostings::from_sorted_pairs(&pairs).unwrap_err();
        assert!(matches!(err, IndexError::PostingBudget { .. }), "{err}");
        assert!(err.to_string().contains("packed-block budget"), "{err}");
    }

    #[test]
    fn walk_checked_matches_decode() {
        let pairs = [(3u64, 9u64), (3, 9 + 300), (3, 9 + 300 + 5)];
        let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
        let r = packed.table.get(3).unwrap();
        let mut walked = Vec::new();
        packed
            .walk_checked(r, |h| {
                walked.push(h);
                Ok(())
            })
            .unwrap();
        let mut decoded = Vec::new();
        packed.decode_ref_into(r, &mut decoded);
        assert_eq!(walked, decoded);
    }

    #[test]
    fn walk_checked_catches_overflow() {
        // Hand-forge a bucket whose delta wraps past u64::MAX.
        let mut blocks = vec![0u64; 1];
        unpack::write_fields(&mut blocks, 0, 64, &[u64::MAX]);
        let p = PackedPostings {
            table: KeyTable::default(),
            blocks,
            n_hits: 2,
        };
        let mut r = BucketRef::new(0, 2, 64);
        r.base = 5;
        assert!(p
            .walk_checked(r, |_| Ok(()))
            .unwrap_err()
            .contains("overflow"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_sorted_pairs_round_trip(
            hashes in proptest::collection::vec(0u64..16, 0..400),
            hits in proptest::collection::vec(0u64..1_000_000_000_000, 0..400)
        ) {
            let n = hashes.len().min(hits.len());
            let mut pairs: Vec<(u64, u64)> = hashes[..n]
                .iter()
                .zip(&hits[..n])
                .map(|(&h, &p)| (h, p))
                .collect();
            pairs.sort_unstable();
            assert_equivalent(&pairs);
        }
    }
}
