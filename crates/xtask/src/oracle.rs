//! The differential kernel oracle.
//!
//! Runs every kernel variant the CPU supports — {minimap2, manymap} layout ×
//! {scalar, SSE, AVX2, AVX-512} — over a seeded stream of random sequence
//! pairs and diffs them against the scalar manymap gold: scores, end cells,
//! CIGARs, and cell counts must agree *exactly* (the Eq. 3 ↔ Eq. 4 layouts
//! compute the same recurrence, and every SIMD width must be bit-compatible
//! with scalar). Layout/dependency bugs in these kernels are silent
//! wrong-answer bugs, not crashes — this is the harness that makes them
//! loud.
//!
//! The oracle also audits the PR-1 zero-allocation contract: each engine
//! keeps one scratch arena across the whole stream, and replaying the
//! stream against the warmed arena must leave its high-water mark
//! (`AlignScratch::heap_bytes`) exactly unchanged — any growth on the second
//! pass means some input shape still allocates in the hot path.
//!
//! A third pass replays the stream through the batched `AlignBackend` seam
//! (mmm-exec): the CPU SIMD session, the simulated GPU/SIMT session, and a
//! gpu-sim session on a shrunken device that forces part of the stream
//! across the oversized-pair fallback boundary — all must return the scalar
//! gold bit-for-bit, in job order.
//!
//! A fourth pass (`packed_crosscheck`) audits the bit-packed resident
//! storage: packed vs. flat posting-list decode, every SIMD unpack tier
//! vs. the scalar gold at every bit width, packed-reference slices vs.
//! per-base reads, and end-to-end PAF output of a packed-index mapper vs.
//! a legacy-index mapper across every available engine — all bit-exact.

use mmm_align::{AlignMode, AlignResult, AlignScratch, Engine, Layout, Scoring, Width};
use mmm_exec::{prepare, AlignJob, BackendKind, BackendOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lane-boundary lengths every run must cover (the off-by-one surface of
/// the 16/32/64-lane kernels), before the random sizes start. The query is
/// the target with point edits, so a length `n` case has diagonals of every
/// length up to about `n`: 129 reaches every remainder of every width.
const EDGE_LENS: [usize; 14] = [1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129];

/// Skinny `(|T|, |Q|)` shapes: every diagonal is shorter than one vector,
/// the shape of most of the mapper's gap fills.
const SKINNY: [(usize, usize); 4] = [(200, 7), (7, 200), (100, 40), (40, 100)];

struct Case {
    target: Vec<u8>,
    query: Vec<u8>,
    mode: AlignMode,
}

fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0u32..4) as u8).collect()
}

/// A query derived from the target by point edits — realistic long-read
/// noise, which exercises match/mismatch/gap paths far more evenly than an
/// unrelated random pair.
fn mutate(rng: &mut StdRng, target: &[u8]) -> Vec<u8> {
    let mut q = Vec::with_capacity(target.len() + 8);
    for &b in target {
        let roll: f64 = rng.random();
        if roll < 0.05 {
            q.push(rng.random_range(0u32..4) as u8); // substitution
        } else if roll < 0.08 {
            continue; // deletion
        } else if roll < 0.11 {
            q.push(b);
            q.push(rng.random_range(0u32..4) as u8); // insertion
        } else {
            q.push(b);
        }
    }
    if q.is_empty() {
        q.push(rng.random_range(0u32..4) as u8);
    }
    q
}

fn make_cases(cases: usize, seed: u64) -> Vec<Case> {
    const MODES: [AlignMode; 4] = [
        AlignMode::Global,
        AlignMode::SemiGlobal,
        AlignMode::TargetSuffixFree,
        AlignMode::QuerySuffixFree,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(cases + 4 * (EDGE_LENS.len() + SKINNY.len()));
    // Every edge and skinny shape runs in all four modes.
    let mut fixed: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for &tlen in &EDGE_LENS {
        let target = random_seq(&mut rng, tlen);
        let query = mutate(&mut rng, &target);
        fixed.push((target, query));
    }
    for (tlen, qlen) in SKINNY {
        fixed.push((random_seq(&mut rng, tlen), random_seq(&mut rng, qlen)));
    }
    for (target, query) in fixed {
        for mode in MODES {
            out.push(Case {
                target: target.clone(),
                query: query.clone(),
                mode,
            });
        }
    }
    for i in 0..cases {
        let tlen = rng.random_range(1usize..160);
        let target = random_seq(&mut rng, tlen);
        let query = if rng.random_bool(0.75) {
            mutate(&mut rng, &target)
        } else {
            let qlen = rng.random_range(1usize..160);
            random_seq(&mut rng, qlen)
        };
        out.push(Case {
            target,
            query,
            mode: MODES[i % MODES.len()],
        });
    }
    out
}

fn describe(i: usize, case: &Case, engine: Engine) -> String {
    format!(
        "case {i} ({:?}, |T|={}, |Q|={}) on {}",
        case.mode,
        case.target.len(),
        case.query.len(),
        engine.label()
    )
}

fn diff(i: usize, case: &Case, engine: Engine, got: &AlignResult, want: &AlignResult) -> String {
    format!(
        "{}: differs from scalar manymap gold\n  gold: score={} end=({},{}) cigar={:?}\n  got:  score={} end=({},{}) cigar={:?}",
        describe(i, case, engine),
        want.score,
        want.end_i,
        want.end_j,
        want.cigar.as_ref().map(|c| c.to_string()),
        got.score,
        got.end_i,
        got.end_j,
        got.cigar.as_ref().map(|c| c.to_string()),
    )
}

/// Run the oracle. Returns a one-line summary on success and a full
/// reproduction recipe (case index, seed, engine) on the first divergence.
pub fn run(cases: usize, seed: u64) -> Result<String, String> {
    let stream = make_cases(cases, seed);
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(Engine::is_available)
        .collect();
    let gold_engine = Engine::new(Layout::Manymap, Width::Scalar);
    let sc = Scoring::MAP_ONT;

    // Pass 1: differential check, one persistent scratch per engine.
    let mut scratches: Vec<AlignScratch> = engines.iter().map(|_| AlignScratch::new()).collect();
    let mut golds: Vec<AlignResult> = Vec::with_capacity(stream.len());
    for (i, case) in stream.iter().enumerate() {
        let gold = gold_engine.align(&case.target, &case.query, &sc, case.mode, true);
        // Score-only kernels take a different code path; their result must
        // match the scalar score-only gold, and its score the with-path one.
        let gold_score_only = gold_engine.align(&case.target, &case.query, &sc, case.mode, false);
        if gold_score_only.score != gold.score {
            return Err(format!(
                "{}: scalar score-only gold disagrees with its with-path run",
                describe(i, case, gold_engine)
            ));
        }
        for (engine, scratch) in engines.iter().zip(scratches.iter_mut()) {
            let got =
                engine.align_with_scratch(&case.target, &case.query, &sc, case.mode, true, scratch);
            if got != gold {
                return Err(diff(i, case, *engine, &got, &gold));
            }
            let score_only = engine.align_with_scratch(
                &case.target,
                &case.query,
                &sc,
                case.mode,
                false,
                scratch,
            );
            if score_only != gold_score_only {
                return Err(format!(
                    "score-only path: {}",
                    diff(i, case, *engine, &score_only, &gold_score_only)
                ));
            }
        }
        golds.push(gold);
    }

    // Pass 2: replay against the warmed arenas — results must be identical
    // (scratch reuse is observationally pure), and replaying the identical
    // stream must leave `heap_bytes` exactly where pass 1 left it. The
    // comparison is end-of-stream to end-of-stream, not per-case: the
    // direction matrix reports its *current* size (it is re-sized per case),
    // so only the stream-end snapshots are comparable — and the linear
    // buffers report capacity, which is grow-only, so any hot-path
    // allocation during the replay shows up as end-state growth.
    let high_water: Vec<usize> = scratches.iter().map(AlignScratch::heap_bytes).collect();
    for (i, case) in stream.iter().enumerate() {
        for (engine, scratch) in engines.iter().zip(scratches.iter_mut()) {
            let got =
                engine.align_with_scratch(&case.target, &case.query, &sc, case.mode, true, scratch);
            if got != golds[i] {
                return Err(format!(
                    "{}: replay with a warmed scratch changed the result",
                    describe(i, case, *engine)
                ));
            }
        }
    }
    for ((engine, scratch), hw) in engines.iter().zip(&scratches).zip(&high_water) {
        let now = scratch.heap_bytes();
        if now != *hw {
            return Err(format!(
                "{}: scratch footprint moved across a full replay ({hw} -> {now} bytes) — \
                 the zero-allocation steady state is broken",
                engine.label()
            ));
        }
    }

    // Pass 4: bit-packed resident storage vs. the flat/allocating gold.
    let packed_note = packed_crosscheck(seed)?;

    // Pass 3: the same stream through the batched `AlignBackend` seam.
    // Every backend session must hand back results bit-identical to the
    // scalar gold, per job, in job order — including the gpu-sim session on
    // a shrunken device, where part of the stream crosses the
    // oversized-pair boundary and is routed through the CPU fallback while
    // the rest stays on-device.
    let backend_note = backend_crosscheck(&stream, &golds, &sc)?;

    let labels: Vec<String> = engines
        .iter()
        .zip(&high_water)
        .map(|(e, hw)| format!("{} ({hw} B)", e.label()))
        .collect();
    Ok(format!(
        "{} cases x {} engines agree with scalar manymap gold; steady-state scratch: {}; backends: {}; {}",
        stream.len(),
        engines.len(),
        labels.join(", "),
        backend_note,
        packed_note
    ))
}

/// The packed-storage differential pass: every layer that decodes packed
/// bits must agree bit-exactly with its scalar / flat / allocating gold.
///
/// (a) `unpack_fields` on every SIMD tier vs. the scalar decoder, at every
///     bit width 1..=64 and assorted field counts (including the 8-lane
///     boundary). (b) A packed-format index vs. a legacy flat index built
///     from the same multi-chromosome reference: identical hash sets, hit
///     lists (bulk decode and cursor), and occurrence counts. (c) Packed
///     reference windows vs. per-base reads, with `unpack_nt4` checked on
///     every tier. (d) End-to-end: mapping the same reads over both index
///     formats with every available engine must produce byte-identical PAF.
fn packed_crosscheck(seed: u64) -> Result<String, String> {
    use manymap::index::{unpack, IdxOpts, IndexFormat, MinimizerIndex};
    use manymap::seq::nt4_decode;
    use manymap::seq::SeqRecord;
    use manymap::{paf_line, MapOpts, Mapper};
    use mmm_align::DisabledTiers;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let tiers: [(&str, DisabledTiers); 3] = [
        ("scalar", DisabledTiers::ALL_SIMD),
        (
            "avx2",
            DisabledTiers {
                avx512: true,
                ..DisabledTiers::NONE
            },
        ),
        ("best", DisabledTiers::NONE),
    ];

    // (a) Field unpack: every width, every tier, bit-exact vs. scalar.
    for width in 1..=64u32 {
        for n in [1usize, 4, 7, 8, 9, 64, 131] {
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let vals: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & mask).collect();
            let mut words = vec![0u64; unpack::words_for(n as u64, width) as usize];
            unpack::write_fields(&mut words, 0, width, &vals);
            let mut gold = vec![0u64; n];
            unpack::unpack_fields_scalar(&words, width, &mut gold);
            if gold != vals {
                return Err(format!(
                    "packed_crosscheck: scalar unpack at width {width}, n={n} \
                     does not invert write_fields"
                ));
            }
            for (label, disabled) in tiers {
                let mut got = vec![0u64; n];
                unpack::unpack_fields_unless(disabled, &words, width, &mut got);
                if got != gold {
                    return Err(format!(
                        "packed_crosscheck: tier {label} diverges from scalar \
                         at width {width}, n={n}"
                    ));
                }
            }
        }
    }

    // (b) Packed vs. flat postings over a multi-chromosome reference.
    let genomes: Vec<Vec<u8>> = (0..3).map(|_| random_seq(&mut rng, 30_000)).collect();
    let refs: Vec<SeqRecord> = genomes
        .iter()
        .enumerate()
        .map(|(c, g)| SeqRecord::new(format!("chr{c}"), nt4_decode(g)))
        .collect();
    let build = |fmt| {
        MinimizerIndex::build_with_format(&refs, &IdxOpts::MAP_ONT, fmt)
            .map_err(|e| format!("packed_crosscheck: index build failed: {e}"))
    };
    let packed = build(IndexFormat::Packed)?;
    let legacy = build(IndexFormat::Legacy)?;
    let hashes = packed.sorted_hashes();
    if hashes != legacy.sorted_hashes() {
        return Err(
            "packed_crosscheck: packed and legacy indexes sketch different hash sets".into(),
        );
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for &h in &hashes {
        packed.decode_hits_into(h, &mut a);
        legacy.decode_hits_into(h, &mut b);
        if a != b {
            return Err(format!(
                "packed_crosscheck: hit lists differ for hash {h:#x} \
                 (packed {} vs legacy {} hits)",
                a.len(),
                b.len()
            ));
        }
        let streamed: Vec<u64> = packed.hit_cursor(h).collect();
        if streamed != a {
            return Err(format!(
                "packed_crosscheck: cursor decode differs from bulk decode for hash {h:#x}"
            ));
        }
        if packed.hit_count(h) != a.len() {
            return Err(format!(
                "packed_crosscheck: hit_count disagrees with decode for hash {h:#x}"
            ));
        }
    }
    if packed.posting_bytes() >= legacy.posting_bytes() {
        return Err(format!(
            "packed_crosscheck: packed postings ({} B) are no smaller than flat ({} B)",
            packed.posting_bytes(),
            legacy.posting_bytes()
        ));
    }

    // (c) Packed reference slices vs. per-base reads, every nt4 tier.
    let mut win = Vec::new();
    for (rid, g) in genomes.iter().enumerate() {
        let words = packed.seqs[rid].seq.words();
        for _ in 0..16 {
            let start = rng.random_range(0usize..g.len());
            let end = (start + rng.random_range(1usize..300)).min(g.len());
            packed.ref_window_into(rid as u32, start, end, &mut win);
            if win != g[start..end] {
                return Err(format!(
                    "packed_crosscheck: ref_window_into(chr{rid}, {start}, {end}) \
                     diverges from the source bases"
                ));
            }
            for (label, disabled) in tiers {
                let mut got = vec![0u8; end - start];
                unpack::unpack_nt4_unless(disabled, words, start, end, &mut got);
                if got != win {
                    return Err(format!(
                        "packed_crosscheck: nt4 tier {label} diverges on \
                         chr{rid} [{start}, {end})"
                    ));
                }
            }
        }
    }

    // (d) End-to-end: same reads, both index formats, every engine —
    // byte-identical PAF.
    let reads: Vec<(String, Vec<u8>)> = (0..10)
        .map(|i| {
            let g = &genomes[i % genomes.len()];
            let start = rng.random_range(0usize..g.len() - 2_500);
            let read = mutate(&mut rng, &g[start..start + 2_000]);
            (format!("read{i}"), read)
        })
        .collect();
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(Engine::is_available)
        .collect();
    let tnames: Vec<String> = packed.seqs.iter().map(|s| s.name.clone()).collect();
    let tlens: Vec<usize> = packed.seqs.iter().map(|s| s.seq.len()).collect();
    let mut mapped = 0usize;
    for &engine in &engines {
        let opts = MapOpts::map_ont().with_engine(engine);
        let map_all = |idx: &MinimizerIndex| -> String {
            let mapper = Mapper::new(idx, opts);
            let mut out = String::new();
            for (name, read) in &reads {
                let chained = mapper.seed_chain(read);
                for m in mapper.extend(read, &chained) {
                    out.push_str(&paf_line(
                        name,
                        read.len(),
                        &tnames[m.rid as usize],
                        tlens[m.rid as usize],
                        &m,
                    ));
                    out.push('\n');
                }
            }
            out
        };
        let from_packed = map_all(&packed);
        let from_legacy = map_all(&legacy);
        if from_packed != from_legacy {
            return Err(format!(
                "packed_crosscheck: PAF output diverges between index formats \
                 on {}:\npacked:\n{from_packed}\nlegacy:\n{from_legacy}",
                engine.label()
            ));
        }
        mapped = from_packed.lines().count();
        if mapped == 0 {
            return Err(format!(
                "packed_crosscheck: no read mapped on {} — the end-to-end \
                 comparison checked nothing",
                engine.label()
            ));
        }
    }
    Ok(format!(
        "packed ok ({} hashes, {} mapping(s) x {} engines, postings {} -> {} B)",
        hashes.len(),
        mapped,
        engines.len(),
        legacy.posting_bytes(),
        packed.posting_bytes()
    ))
}

/// Device memory for the shrunken gpu-sim session: small enough that the
/// larger with-path pairs in the stream overflow it (routing them to the
/// CPU fallback), large enough that the lane-edge cases still fit
/// on-device — so one batch exercises both sides of the boundary.
const TINY_DEVICE_MEM: u64 = 16_384;

fn backend_crosscheck(
    stream: &[Case],
    golds: &[AlignResult],
    sc: &Scoring,
) -> Result<String, String> {
    let jobs = || -> Vec<AlignJob> {
        stream
            .iter()
            .map(|c| AlignJob {
                target: c.target.clone(),
                query: c.query.clone(),
                mode: c.mode,
                with_path: true,
            })
            .collect()
    };
    let mut opts = BackendOptions::new(*sc);
    opts.threads = 2;
    let sessions: [(&str, BackendKind, Option<u64>); 3] = [
        ("cpu", BackendKind::Cpu, None),
        ("gpu-sim", BackendKind::GpuSim, None),
        ("gpu-sim/tiny", BackendKind::GpuSim, Some(TINY_DEVICE_MEM)),
    ];
    let mut notes = Vec::new();
    for (label, kind, device_mem) in sessions {
        let mut opts = opts.clone();
        opts.device_mem = device_mem;
        let backend =
            prepare(kind, &opts).map_err(|e| format!("backend {label}: prepare failed: {e}"))?;
        let (results, stats) = backend
            .submit(jobs())
            .map_err(|e| format!("backend {label}: submit failed: {e}"))?;
        if results.len() != stream.len() {
            return Err(format!(
                "backend {label}: {} results for {} jobs",
                results.len(),
                stream.len()
            ));
        }
        for (i, (got, want)) in results.iter().zip(golds).enumerate() {
            if got != want {
                return Err(format!(
                    "backend {label}, case {i} ({:?}, |T|={}, |Q|={}): diverges from scalar gold\n  \
                     gold: score={} end=({},{})\n  got:  score={} end=({},{})",
                    stream[i].mode,
                    stream[i].target.len(),
                    stream[i].query.len(),
                    want.score,
                    want.end_i,
                    want.end_j,
                    got.score,
                    got.end_i,
                    got.end_j,
                ));
            }
        }
        if device_mem.is_some() {
            // The shrunken device must actually straddle the boundary:
            // some jobs routed to the CPU fallback, some still on-device.
            if stats.fallbacks == 0 {
                return Err(format!(
                    "backend {label}: shrunken device produced no CPU fallbacks — \
                     the oversized-pair boundary was not exercised"
                ));
            }
            if stats.fallbacks >= stats.jobs {
                return Err(format!(
                    "backend {label}: every job fell back ({} of {}) — \
                     nothing ran on-device",
                    stats.fallbacks, stats.jobs
                ));
            }
        }
        notes.push(format!("{label} ok ({} fallbacks)", stats.fallbacks));
    }
    notes.push(scheduled_crosscheck(&jobs(), golds, sc)?);
    Ok(notes.join(", "))
}

/// The same stream through the length-binned scheduler (DESIGN.md §11):
/// a supervised gpu-sim session on the shrunken device, dispatched in
/// binned batches — including a seeded adversarial permutation of the
/// batch order — must scatter outcomes back bit-identical to the scalar
/// gold. This is the scheduler's ordering guarantee, enforced on the same
/// oracle stream the engines answer for.
fn scheduled_crosscheck(
    jobs: &[AlignJob],
    golds: &[AlignResult],
    sc: &Scoring,
) -> Result<String, String> {
    use mmm_exec::{prepare_supervised, JobOutcome, SchedConfig, SchedMode, SupervisorConfig};
    let mut opts = BackendOptions::new(*sc);
    opts.threads = 2;
    opts.device_mem = Some(TINY_DEVICE_MEM);
    let sup = prepare_supervised(BackendKind::GpuSim, &opts, SupervisorConfig::default())
        .map_err(|e| format!("scheduled crosscheck: prepare failed: {e}"))?;
    let mut host_routed = 0u64;
    for permute_seed in [None, Some(0xAC1E), Some(7)] {
        let cfg = SchedConfig {
            mode: SchedMode::Bins,
            max_batch_jobs: 8,
            permute_seed,
            ..SchedConfig::default()
        };
        let (outcomes, stats) = sup
            .submit_scheduled(jobs.to_vec(), &cfg)
            .map_err(|e| format!("scheduled crosscheck (seed {permute_seed:?}): {e}"))?;
        if outcomes.len() != golds.len() {
            return Err(format!(
                "scheduled crosscheck (seed {permute_seed:?}): {} outcomes for {} jobs",
                outcomes.len(),
                golds.len()
            ));
        }
        for (i, (o, want)) in outcomes.iter().zip(golds).enumerate() {
            match o {
                JobOutcome::Done(got) if got == want => {}
                JobOutcome::Done(got) => {
                    return Err(format!(
                        "scheduled crosscheck (seed {permute_seed:?}), case {i}: diverges \
                         from scalar gold (score {} vs {})",
                        got.score, want.score
                    ));
                }
                JobOutcome::Quarantined { reason } => {
                    return Err(format!(
                        "scheduled crosscheck (seed {permute_seed:?}), case {i}: \
                         quarantined on a clean run: {reason}"
                    ));
                }
            }
        }
        if stats.sched_batches == 0 {
            return Err("scheduled crosscheck: bins mode produced no binned batches".into());
        }
        host_routed = stats.sched_host_jobs;
    }
    if host_routed == 0 {
        return Err(
            "scheduled crosscheck: shrunken device routed nothing to the host — \
             the pre-batch routing path was not exercised"
                .into(),
        );
    }
    Ok(format!("scheduled ok ({host_routed} host-routed)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_passes_on_this_machine() {
        if let Err(e) = run(24, 0x5EED) {
            panic!("oracle failed: {e}");
        }
    }

    #[test]
    fn case_stream_is_deterministic() {
        let a = make_cases(12, 7);
        let b = make_cases(12, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.query, y.query);
        }
    }
}
