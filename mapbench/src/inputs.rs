//! Workload definitions and seeded input generation.
//!
//! Every input is generated from the run's seed with the `mmm-simreads`
//! library, written as FASTA, and indexed with `manymap index` before any
//! timing starts. The programs under test only ever see these files.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{
    generate_chromosomes, simulate_reads, GenomeOpts, Platform, SimOpts, SimulatedRead,
};

/// One workload's fixed shape. Only the seed varies between runs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Listed in `BENCHMARK.json`. The others are heavy-tailed (a few reads
    /// take seconds each) and are run on request only.
    pub gated: bool,
    pub platform: Platform,
    pub preset: &'static str,
    pub genome_len: usize,
    pub chroms: usize,
    pub repeat_frac: f64,
    /// Share of the CLI read set that hits planted repeats (repeat-bearing
    /// genomes only).
    pub repeat_read_share: f64,
    /// Index shards (1 = a flat index).
    pub shards: usize,
    /// Reads in the CLI read set.
    pub reads: usize,
    /// Share of `--seconds` given to the serve session; the CLI runs get
    /// the rest.
    pub serve_share: f64,
    /// The interactive tenant's mean arrival rate (reads/s).
    pub interactive_rate: f64,
    /// Fewest interactive reads per session.
    pub min_interactive: usize,
    /// Bulk pool size, in multiples of the interactive read count.
    pub bulk_pool_factor: usize,
    /// Reads the bulk tenant keeps in flight.
    pub bulk_window: usize,
    /// Accuracy floors for the correctness check. They guard against a
    /// broken mapper reading as a fast one; they are not accuracy targets.
    pub min_mapped_frac: f64,
    pub max_error_pct: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ont-sharded",
        gated: true,
        platform: Platform::Nanopore,
        preset: "map-ont",
        genome_len: 4_000_000,
        chroms: 4,
        repeat_frac: 0.0,
        repeat_read_share: 0.0,
        shards: 4,
        reads: 1500,
        serve_share: 0.2,
        interactive_rate: 150.0,
        min_interactive: 200,
        bulk_pool_factor: 4,
        bulk_window: 32,
        min_mapped_frac: 0.9,
        max_error_pct: 5.0,
    },
    Spec {
        name: "serve-ont-mixed",
        gated: true,
        platform: Platform::Nanopore,
        preset: "map-ont",
        genome_len: 2_000_000,
        chroms: 1,
        repeat_frac: 0.0,
        repeat_read_share: 0.0,
        shards: 1,
        reads: 1200,
        serve_share: 0.3,
        interactive_rate: 150.0,
        min_interactive: 200,
        bulk_pool_factor: 4,
        bulk_window: 32,
        min_mapped_frac: 0.9,
        max_error_pct: 5.0,
    },
    Spec {
        name: "pb-hpc-unique",
        gated: false,
        platform: Platform::PacBio,
        preset: "map-pb",
        genome_len: 2_000_000,
        chroms: 1,
        repeat_frac: 0.0,
        repeat_read_share: 0.0,
        shards: 1,
        reads: 96,
        serve_share: 0.3,
        interactive_rate: 2.0,
        min_interactive: 8,
        bulk_pool_factor: 64,
        bulk_window: 4,
        min_mapped_frac: 0.9,
        max_error_pct: 5.0,
    },
    Spec {
        name: "ont-repeats-sharded",
        gated: false,
        platform: Platform::Nanopore,
        preset: "map-ont",
        genome_len: 4_000_000,
        chroms: 4,
        repeat_frac: 0.1,
        repeat_read_share: 0.3,
        shards: 4,
        reads: 32,
        serve_share: 0.3,
        interactive_rate: 1.0,
        min_interactive: 6,
        bulk_pool_factor: 64,
        bulk_window: 4,
        min_mapped_frac: 0.9,
        max_error_pct: 60.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated files and reads of one run.
pub struct Inputs {
    pub ref_fa: PathBuf,
    pub tnames: Vec<String>,
    /// The CLI read set.
    pub reads: Vec<SeqRecord>,
    /// The serve tenants' reads.
    pub interactive: Vec<SeqRecord>,
    pub bulk: Vec<SeqRecord>,
}

/// Generate the reference and the three read sets: the CLI set, the
/// interactive tenant's `interactive` reads, and a bulk pool sized so the
/// closed-loop tenant cannot run dry while they stream.
pub fn generate(
    spec: &Spec,
    seed: u64,
    n_interactive: usize,
    dir: &Path,
) -> Result<Inputs, String> {
    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: spec.genome_len,
            repeat_frac: spec.repeat_frac,
            seed: mix(seed, 1),
            ..Default::default()
        },
        spec.chroms,
    );
    let tnames: Vec<String> = (1..=chroms.len()).map(|i| format!("chr{i}")).collect();
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .zip(&tnames)
        .map(|(g, n)| SeqRecord::new(n.clone(), nt4_decode(g)))
        .collect();
    let ref_fa = dir.join("ref.fa");
    write_fa(&ref_fa, &refs)?;
    let reads = sample_reads(&chroms, &tnames, spec, spec.reads, 4, mix(seed, 2), "read");
    let interactive = sample_reads(
        &chroms,
        &tnames,
        spec,
        n_interactive,
        2,
        mix(seed, 3),
        "int",
    );
    let n_bulk = n_interactive * spec.bulk_pool_factor;
    let bulk = sample_reads(&chroms, &tnames, spec, n_bulk, 2, mix(seed, 4), "bulk");
    Ok(Inputs {
        ref_fa,
        tnames,
        reads,
        interactive,
        bulk,
    })
}

/// A read "hits a repeat" when at least this many bases of its true
/// interval lie in planted repeat copies.
const REPEAT_HIT_BASES: usize = 500;
/// k-mer length used to find planted repeat copies.
const REPEAT_K: usize = 16;

/// `n` reads spread over the chromosomes in proportion to their length,
/// named `{prefix}{i}!{chrom}!{start}!{end}!{strand}` so the truth travels
/// with the read.
///
/// The reads are a stratified sample of a pool `pool_factor` times larger
/// simulated by `simulate_reads`: a fixed share of them hits planted repeats
/// (`spec.repeat_read_share`, repeat-bearing genomes only), and within each
/// class the kept reads sit at evenly spaced length ranks. Per-read cost
/// depends mostly on length and on how many repeat copies a read hits, so
/// fixing both makes throughput comparable from seed to seed; the pool
/// itself follows the platform's length and error model unchanged.
fn sample_reads(
    chroms: &[Vec<u8>],
    tnames: &[String],
    spec: &Spec,
    n: usize,
    pool_factor: usize,
    seed: u64,
    prefix: &str,
) -> Vec<SeqRecord> {
    let total: usize = chroms.iter().map(|c| c.len()).sum();
    // (chromosome, read, hits a repeat) for every pooled read.
    let mut pool: Vec<(usize, SimulatedRead, bool)> = Vec::new();
    let mut assigned = 0;
    for (ci, g) in chroms.iter().enumerate() {
        let quota = if ci + 1 == chroms.len() {
            n * pool_factor - assigned
        } else {
            n * pool_factor * g.len() / total.max(1)
        };
        assigned += quota;
        let repeats = RepeatMask::new(g, spec);
        let sim = simulate_reads(
            g,
            &SimOpts {
                platform: spec.platform,
                num_reads: quota,
                seed: mix(seed, ci as u64),
            },
        );
        pool.extend(sim.into_iter().map(|r| {
            let hit = repeats.hits(r.origin.start as usize, r.origin.end as usize);
            (ci, r, hit)
        }));
    }
    let (hit, unique): (Vec<usize>, Vec<usize>) = (0..pool.len()).partition(|&i| pool[i].2);
    let want_hit = if spec.repeat_frac > 0.0 {
        ((n as f64 * spec.repeat_read_share).round() as usize).min(hit.len())
    } else {
        0
    };
    let len = |i: usize| pool[i].1.seq.len();
    let mut keep = by_length_ranks(&hit, want_hit, len);
    keep.extend(by_length_ranks(&unique, n - want_hit, len));
    keep.sort_unstable(); // back to simulation order
    keep.iter()
        .enumerate()
        .map(|(k, &i)| {
            let (ci, r, _) = &pool[i];
            let name = format!(
                "{prefix}{k}!{}!{}!{}!{}",
                tnames[*ci],
                r.origin.start,
                r.origin.end,
                if r.origin.rev { '-' } else { '+' }
            );
            SeqRecord::new(name, nt4_decode(&r.seq))
        })
        .collect()
}

/// `k` of the reads `idx`, at evenly spaced ranks of their length order.
fn by_length_ranks(idx: &[usize], k: usize, len: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut by_len = idx.to_vec();
    by_len.sort_by_key(|&i| (len(i), i));
    let m = by_len.len();
    let k = k.min(m);
    (0..k)
        .map(|j| by_len[((2 * j + 1) * m) / (2 * k)])
        .collect()
}

/// Which bases of a chromosome lie in planted repeat copies. The generator
/// copies the chromosome's first `repeat_unit` bases to random places, so
/// a base is marked when a k-mer covering it occurs in that unit.
struct RepeatMask {
    /// Prefix sums of marked bases.
    marked: Vec<u32>,
}

impl RepeatMask {
    fn new(g: &[u8], spec: &Spec) -> Self {
        let unit = GenomeOpts::default().repeat_unit;
        let mut is_rep = vec![false; g.len()];
        if spec.repeat_frac > 0.0 && g.len() > unit {
            let kmer = |w: &[u8]| w.iter().fold(0u64, |h, &b| (h << 2) | (b & 3) as u64);
            let unit_kmers: std::collections::HashSet<u64> =
                g[..unit].windows(REPEAT_K).map(kmer).collect();
            for (i, w) in g.windows(REPEAT_K).enumerate() {
                if unit_kmers.contains(&kmer(w)) {
                    is_rep[i..i + REPEAT_K].iter_mut().for_each(|b| *b = true);
                }
            }
        }
        let mut marked = Vec::with_capacity(g.len() + 1);
        marked.push(0u32);
        for &r in &is_rep {
            marked.push(marked.last().copied().unwrap_or(0) + r as u32);
        }
        RepeatMask { marked }
    }

    fn hits(&self, start: usize, end: usize) -> bool {
        (self.marked[end] - self.marked[start]) as usize >= REPEAT_HIT_BASES
    }
}

pub fn write_fa(path: &Path, recs: &[SeqRecord]) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(f);
    write_fasta(&mut w, recs, 80)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_reads() {
        let spec = Spec {
            genome_len: 50_000,
            reads: 6,
            ..WORKLOADS[1]
        };
        let chroms = generate_chromosomes(
            &GenomeOpts {
                len: spec.genome_len,
                repeat_frac: 0.0,
                seed: 5,
                ..Default::default()
            },
            2,
        );
        let t = vec!["chr1".to_string(), "chr2".to_string()];
        let a = sample_reads(&chroms, &t, &spec, 6, 4, 9, "read");
        let b = sample_reads(&chroms, &t, &spec, 6, 4, 9, "read");
        let c = sample_reads(&chroms, &t, &spec, 6, 4, 10, "read");
        assert_eq!(a.len(), 6);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.name == y.name && x.seq == y.seq));
        assert!(a.iter().zip(&c).any(|(x, y)| x.seq != y.seq));
        assert!(a.iter().any(|r| r.name.contains("!chr2!")));
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
            assert_eq!(spec(a.name).map(|s| s.name), Some(a.name));
        }
    }
}
