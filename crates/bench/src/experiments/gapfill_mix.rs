//! Kernel throughput on gap-fill shapes (DESIGN.md §4.1b).
//!
//! Figure 5 measures the kernels on 4 kb pairs, where every anti-diagonal
//! is many vectors long. The mapper's gap fills look nothing like that:
//! on a Nanopore run most jobs have a shorter side under 64, so a diagonal
//! is at most one or two vectors and the last, partial chunk carries a
//! large share of the cells. This harness replays a seeded pair set whose
//! shorter-side distribution follows the planner's gap fills and reports
//! each engine's GCUPS over the whole set, score-only and with path — the
//! kernel-layer number behind `exec.mcells_per_s` in the map benchmark.

use std::time::Instant;

use mmm_align::{AlignMode, AlignScratch, Engine, Layout, Scoring, Width};

use crate::format_table;

/// Shorter-side bins `[lo, hi)` and their share of jobs in per-mille, as
/// measured on the planner's gap fills for a seeded 1500-read Nanopore
/// set (map-ont, 4-chromosome 4 Mbp genome).
const SHORT_SIDE_BINS: [(usize, usize, u32); 5] = [
    (1, 32, 340),
    (32, 64, 370),
    (64, 128, 240),
    (128, 256, 48),
    (256, 512, 2),
];

/// A small deterministic generator (the bench crate takes no RNG
/// dependency for its workloads).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn base(&mut self) -> u8 {
        (self.next() & 3) as u8
    }
}

/// One gap-fill-shaped pair: a shorter side drawn from
/// [`SHORT_SIDE_BINS`], a longer side up to 25% longer, and a query that
/// is the target with ~10% point edits, cut or extended to its length.
fn gapfill_pair(rng: &mut SplitMix) -> (Vec<u8>, Vec<u8>) {
    let total: u32 = SHORT_SIDE_BINS.iter().map(|b| b.2).sum();
    let mut pick = (rng.next() % total as u64) as u32;
    let (mut lo, mut hi) = (1, 32);
    for (blo, bhi, share) in SHORT_SIDE_BINS {
        if pick < share {
            (lo, hi) = (blo, bhi);
            break;
        }
        pick -= share;
    }
    let short = rng.range(lo, hi);
    let long = short + rng.range(0, short / 4 + 2);
    let (tlen, qlen) = if rng.next() & 1 == 0 {
        (long, short)
    } else {
        (short, long)
    };
    let target: Vec<u8> = (0..tlen).map(|_| rng.base()).collect();
    let mut query = Vec::with_capacity(qlen);
    for &b in &target {
        match rng.next() % 100 {
            0..=4 => query.push(rng.base()),
            5..=7 => {}
            8..=10 => {
                query.push(b);
                query.push(rng.base());
            }
            _ => query.push(b),
        }
    }
    query.resize_with(qlen, || rng.base());
    (target, query)
}

/// The seeded pair set.
pub fn pairs(n: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = SplitMix(seed);
    (0..n).map(|_| gapfill_pair(&mut rng)).collect()
}

struct Row {
    engine: Engine,
    score_gcups: f64,
    path_gcups: f64,
}

/// Median-of-`samples` GCUPS of `engine` over the whole set, one warmed
/// scratch across every call (the mapper's per-worker usage).
fn set_gcups(
    engine: Engine,
    set: &[(Vec<u8>, Vec<u8>)],
    cells: u64,
    with_path: bool,
    samples: usize,
) -> f64 {
    let sc = Scoring::MAP_ONT;
    let mut scratch = AlignScratch::new();
    let pass = |scratch: &mut AlignScratch| {
        for (t, q) in set {
            let r = engine.align_with_scratch(t, q, &sc, AlignMode::Global, with_path, scratch);
            if let Some(c) = std::hint::black_box(r).cigar {
                scratch.recycle(c);
            }
        }
    };
    pass(&mut scratch);
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            pass(&mut scratch);
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    cells as f64 / times[times.len() / 2] / 1e9
}

/// The first engine, pair and path setting whose result differs from the
/// scalar manymap gold, if any.
fn first_disagreement(engines: &[Engine], set: &[(Vec<u8>, Vec<u8>)]) -> Option<String> {
    let sc = Scoring::MAP_ONT;
    let gold = Engine::new(Layout::Manymap, Width::Scalar);
    for (i, (t, q)) in set.iter().enumerate() {
        for with_path in [true, false] {
            let want = gold.align(t, q, &sc, AlignMode::Global, with_path);
            for e in engines {
                if e.align(t, q, &sc, AlignMode::Global, with_path) != want {
                    return Some(format!(
                        "{} on pair {i} ({}x{}, path={with_path})",
                        e.label(),
                        t.len(),
                        q.len()
                    ));
                }
            }
        }
    }
    None
}

pub fn run(quick: bool) -> String {
    run_with_json(quick).0
}

/// Run the harness; returns the human table and the JSON document the
/// `gapfill_mix` binary writes to `BENCH_gapfill_mix.json`.
pub fn run_with_json(quick: bool) -> (String, String) {
    let (n, samples) = if quick { (2_000, 1) } else { (20_000, 3) };
    let set = pairs(n, 5);
    let cells: u64 = set
        .iter()
        .map(|(t, q)| t.len() as u64 * q.len() as u64)
        .sum();
    let bin_counts: Vec<usize> = SHORT_SIDE_BINS
        .iter()
        .map(|&(lo, hi, _)| {
            set.iter()
                .filter(|(t, q)| (lo..hi).contains(&t.len().min(q.len())))
                .count()
        })
        .collect();
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(Engine::is_available)
        .collect();
    // A wrong kernel makes its GCUPS meaningless: fail the run.
    let checked = set.len().min(500);
    if let Some(what) = first_disagreement(&engines, &set[..checked]) {
        panic!("gapfill_mix: {what} differs from the scalar manymap gold");
    }
    let rows: Vec<Row> = engines
        .iter()
        .map(|&engine| Row {
            engine,
            score_gcups: set_gcups(engine, &set, cells, false, samples),
            path_gcups: set_gcups(engine, &set, cells, true, samples),
        })
        .collect();

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.label(),
                format!("{:.3}", r.score_gcups),
                format!("{:.3}", r.path_gcups),
            ]
        })
        .collect();
    let mut out = format_table(
        &format!(
            "Gap-fill mix — {n} pairs, {:.1} Mcells, mean {:.0} cells/pair",
            cells as f64 / 1e6,
            cells as f64 / n as f64
        ),
        &["engine", "score-only GCUPS", "with-path GCUPS"],
        &table_rows,
    );
    let bins: Vec<String> = SHORT_SIDE_BINS
        .iter()
        .zip(&bin_counts)
        .map(|(&(lo, hi, _), c)| format!("[{lo},{hi}): {c}"))
        .collect();
    out.push_str(&format!("shorter side: {}\n", bins.join(", ")));
    out.push_str(&format!(
        "every engine matches the scalar gold on the first {checked} pairs\n"
    ));

    let mut j = String::from("{\n");
    j.push_str("  \"experiment\": \"gapfill_mix\",\n");
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!("  \"pairs\": {n},\n"));
    j.push_str(&format!("  \"cells\": {cells},\n"));
    j.push_str("  \"shorter_side_bins\": [\n");
    let bin_json: Vec<String> = SHORT_SIDE_BINS
        .iter()
        .zip(&bin_counts)
        .map(|(&(lo, hi, _), c)| format!("    {{\"lo\": {lo}, \"hi\": {hi}, \"pairs\": {c}}}"))
        .collect();
    j.push_str(&bin_json.join(",\n"));
    j.push_str("\n  ],\n");
    j.push_str("  \"engines\": [\n");
    let eng_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"engine\": \"{}\", \"score_gcups\": {:.4}, \"path_gcups\": {:.4}}}",
                r.engine.label(),
                r.score_gcups,
                r.path_gcups
            )
        })
        .collect();
    j.push_str(&eng_json.join(",\n"));
    j.push_str("\n  ]\n}\n");
    (out, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_set_is_seeded_and_follows_the_bins() {
        let a = pairs(4_000, 5);
        assert_eq!(a, pairs(4_000, 5));
        let short = |lo: usize, hi: usize| {
            a.iter()
                .filter(|(t, q)| (lo..hi).contains(&t.len().min(q.len())))
                .count() as f64
                / a.len() as f64
        };
        assert!((short(1, 32) - 0.34).abs() < 0.03);
        assert!((short(32, 64) - 0.37).abs() < 0.03);
        assert!((short(64, 128) - 0.24).abs() < 0.03);
        assert!(a.iter().all(|(t, q)| !t.is_empty() && !q.is_empty()));
    }
}
