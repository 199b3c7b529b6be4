//! The traced, single-threaded runner.
//!
//! It maps a read file the way `manymap map` does — read a 4 Mbase batch,
//! plan every read, submit the batch's gap-fill jobs through per-shard
//! supervised CPU sessions, finalize and format — but calls each layer's
//! public function itself and records a span around it. Its PAF must be
//! byte-identical to the CLI's; the caller checks that, which shows the
//! spans time the same work the production binary does.
//!
//! The seed and chain layers are timed by calling `collect_anchors`,
//! `chain_anchors` and `select_chains` directly. `plan_read` repeats that
//! work internally, so the plan layer's own time is `plan_read` minus a
//! separately timed `try_seed_chain` on the same read.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use manymap::{paf_line, paf_unmapped, MapOpts, Mapper};
use mmm_align::{AlignResult, AlignScratch};
use mmm_chain::{chain_anchors, select_chains};
use mmm_exec::{
    prepare_supervised, AlignJob, BackendKind, BackendOptions, BackendStats, JobOutcome,
    SchedConfig, SessionFactory, ShardSessions, SupervisorConfig,
};
use mmm_index::{AnyIndex, ShardOpenOpts};
use mmm_seq::FastxReader;

use crate::stats::median;
use crate::trace::Recorder;

/// Bases per batch, as in `manymap map`.
const BATCH_BASES: usize = 4_000_000;
/// Gap-fill jobs timed for the kernel throughput figure: the workload's
/// first jobs in plan order, up to this many DP cells.
const ALIGN_SAMPLE_CELLS: u64 = 200_000_000;
/// Minimum time spent re-running the kernel sample.
const ALIGN_MIN_SECONDS: f64 = 0.2;

/// Deterministic counts and layer facts from one traced run.
#[derive(Default)]
pub struct Traced {
    pub paf: String,
    pub reads: u64,
    pub anchors: u64,
    pub primaries: u64,
    pub selected: u64,
    pub jobs: u64,
    pub cells: u64,
    pub mappings: u64,
    pub paf_bytes: u64,
    pub degraded: u64,
    pub backend: BackendStats,
    pub open_s: f64,
    pub shard_loads: u64,
    pub resident_bytes: u64,
    pub align_gcups: f64,
    /// Set when a sampled kernel result differs from the backend's.
    pub kernel_mismatch: Option<String>,
}

pub fn run(
    index_path: &Path,
    reads_path: &Path,
    opts: MapOpts,
    rec: &mut Recorder,
) -> Result<Traced, String> {
    let mut t = Traced::default();

    // index: open three times, keep the last, report the median.
    let mut opens = Vec::new();
    let mut index: Option<AnyIndex> = None;
    for _ in 0..3 {
        drop(index.take()); // unmap the previous copy before re-opening
        let s = rec.begin("index.open", None);
        let opened = AnyIndex::open_mmap(index_path, ShardOpenOpts::default());
        rec.end(s);
        opens.push(rec.spans()[s].dur_ns() as f64 / 1e9);
        index = Some(opened.map_err(|e| format!("{}: {e}", index_path.display()))?);
    }
    t.open_s = median(&opens);
    let index = index.ok_or("index never opened")?;
    let iref = index.as_index_ref();
    let mapper = Mapper::new(iref, opts);
    let tnames: Vec<String> = (0..iref.num_seqs())
        .map(|r| iref.seq_name(r as u32).to_string())
        .collect();
    let tlens: Vec<usize> = (0..iref.num_seqs())
        .map(|r| iref.seq_len(r as u32))
        .collect();

    let mut bopts = BackendOptions::new(opts.scoring);
    bopts.engine = opts.engine;
    bopts.threads = 1;
    let factory: SessionFactory = Box::new(move |_shard| {
        prepare_supervised(BackendKind::Cpu, &bopts, SupervisorConfig::default())
    });
    let sessions = ShardSessions::new(iref.num_shards(), factory).map_err(|e| e.to_string())?;
    let sched = SchedConfig::default();

    let f = File::open(reads_path).map_err(|e| format!("{}: {e}", reads_path.display()))?;
    let mut reader = FastxReader::new(BufReader::new(f));
    let mut scratch = AlignScratch::new();
    let mut sample: Vec<(AlignJob, usize)> = Vec::new();
    let mut sample_cells = 0u64;
    let mut sample_results: Vec<Option<AlignResult>> = Vec::new();

    for batch_no in 0u64.. {
        let s = rec.begin("seq.parse", Some(batch_no));
        let batch = reader.next_batch(BATCH_BASES);
        rec.end(s);
        let batch = batch.map_err(|e| format!("{}: {e}", reads_path.display()))?;
        if batch.is_empty() {
            break;
        }
        let bs = rec.begin("batch", Some(batch_no));

        // Plan every read of the batch.
        let mut planned = Vec::with_capacity(batch.len());
        for r in &batch {
            let id = Some(t.reads);
            t.reads += 1;
            let rs = rec.begin("read.plan", id);
            let nt4 = r.nt4();
            // The layer calls go first, so they pay the cold-start costs
            // (index page faults) that production pays once per read; the
            // two calls compared for the plan layer then both run warm.
            if let Ok(anchors) = rec.time("index.seed", id, || iref.collect_anchors(&nt4)) {
                t.anchors += anchors.len() as u64;
                if !anchors.is_empty() {
                    let chains =
                        rec.time("chain.chain", id, || chain_anchors(anchors, &opts.chain));
                    let sel = rec.time("chain.select", id, || select_chains(chains, &opts.select));
                    t.primaries += sel.iter().filter(|c| c.primary).count() as u64;
                    t.selected += sel.len() as u64;
                }
            }
            drop(rec.time("plan.seed_chain", id, || mapper.try_seed_chain(&nt4)));
            let plan = rec.time("plan.plan_read", id, || mapper.plan_read(&nt4));
            rec.end(rs);
            planned.push((nt4, plan));
        }

        // Dispatch the batch's jobs in one submission, as the CLI does.
        let mut counts = Vec::with_capacity(planned.len());
        let mut all_jobs = Vec::new();
        let mut all_shards = Vec::new();
        for (_, plan) in &mut planned {
            let n = match plan.as_mut() {
                Ok(p) => {
                    let jobs = std::mem::take(&mut p.jobs);
                    all_shards.extend(std::mem::take(&mut p.job_shards));
                    let n = jobs.len();
                    all_jobs.extend(jobs);
                    n
                }
                Err(_) => 0,
            };
            counts.push(n);
        }
        let first_job = t.jobs as usize;
        t.jobs += all_jobs.len() as u64;
        for (i, j) in all_jobs.iter().enumerate() {
            t.cells += j.cells();
            if sample_cells < ALIGN_SAMPLE_CELLS {
                sample_cells += j.cells();
                sample.push((j.clone(), first_job + i));
            }
        }
        let mut outcomes = Vec::new();
        if !all_jobs.is_empty() {
            let (os, bstats) = rec
                .time("exec.submit", Some(batch_no), || {
                    sessions.submit_sharded(all_jobs, &all_shards, &sched)
                })
                .map_err(|e| e.to_string())?;
            t.backend.merge(&bstats);
            outcomes = os;
        }
        for (_, idx) in sample.iter().filter(|(_, idx)| *idx >= first_job) {
            sample_results.push(match outcomes.get(idx - first_job) {
                Some(JobOutcome::Done(r)) => Some(r.clone()),
                _ => None,
            });
        }

        // Finalize and format each read.
        let mut it = outcomes.into_iter();
        let first_read = t.reads - batch.len() as u64;
        for (i, ((r, (nt4, plan)), n)) in batch.iter().zip(&planned).zip(counts).enumerate() {
            let id = Some(first_read + i as u64);
            let rs = rec.begin("read.finalize", id);
            let mut results = Vec::with_capacity(n);
            let mut quarantined = false;
            for o in it.by_ref().take(n) {
                match o {
                    JobOutcome::Done(res) => results.push(res),
                    JobOutcome::Quarantined { .. } => quarantined = true,
                }
            }
            let lines = match plan {
                Ok(p) if !quarantined => {
                    let ms = rec.time("finalize", id, || {
                        mapper.finalize_read_with_scratch(nt4, p, &results, &mut scratch)
                    });
                    t.mappings += ms.len() as u64;
                    rec.time("format", id, || {
                        let mut lines = String::new();
                        for m in &ms {
                            let rid = m.rid as usize;
                            lines.push_str(&paf_line(
                                &r.name,
                                nt4.len(),
                                &tnames[rid],
                                tlens[rid],
                                m,
                            ));
                            lines.push('\n');
                        }
                        lines
                    })
                }
                _ => {
                    t.degraded += 1;
                    format!("{}\n", paf_unmapped(&r.name, r.len()))
                }
            };
            rec.end(rs);
            t.paf_bytes += lines.len() as u64;
            t.paf.push_str(&lines);
        }
        rec.end(bs);
    }

    if let AnyIndex::Sharded(s) = &index {
        t.shard_loads = s.health().iter().map(|h| h.loads).sum();
        t.resident_bytes = s.resident_bytes() as u64;
    } else {
        t.resident_bytes = std::fs::metadata(index_path).map(|m| m.len()).unwrap_or(0);
    }
    (t.align_gcups, t.kernel_mismatch) = time_kernel(&sample, &sample_results, &opts);
    Ok(t)
}

/// GCUPS of the mapper's engine on the sampled gap-fill jobs, one thread,
/// and the first job whose result differs from what the backend returned.
fn time_kernel(
    sample: &[(AlignJob, usize)],
    expected: &[Option<AlignResult>],
    opts: &MapOpts,
) -> (f64, Option<String>) {
    if sample.is_empty() {
        return (0.0, None);
    }
    let mut mismatch = None;
    let mut scratch = AlignScratch::new();
    let cells: u64 = sample.iter().map(|(j, _)| j.cells()).sum();
    let start = std::time::Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < ALIGN_MIN_SECONDS {
        for ((j, idx), want) in sample.iter().zip(expected) {
            let got = opts.engine.align_with_scratch(
                &j.target,
                &j.query,
                &opts.scoring,
                j.mode,
                j.with_path,
                &mut scratch,
            );
            if passes == 0 && mismatch.is_none() && want.as_ref() != Some(&got) {
                mismatch = Some(format!(
                    "kernel result for job {idx} differs from the backend's"
                ));
            }
        }
        passes += 1;
    }
    let gcups = (cells * passes) as f64 / start.elapsed().as_secs_f64() / 1e9;
    (gcups, mismatch)
}
