//! The `manymap` command-line aligner.
//!
//! A minimap2-style interface over the library:
//!
//! ```sh
//! manymap index  ref.fa ref.mmx [--preset map-pb|map-ont]
//!                [--index-format packed|legacy] [--shards N]
//! manymap map    ref.mmx reads.fq [--preset ...] [--engine mm2|manymap]
//!                [--backend cpu|gpu-sim] [--threads N] [--sam]
//!                [--no-cigar] [--no-mmap] [--max-read-len N]
//!                [--sched fifo|bins] [--prefilter off|safe|aggressive]
//!                [--mem-budget BYTES[K|M|G]]
//! manymap map    ref.fa  reads.fq   # index built on the fly
//! ```
//!
//! Sharded indexes (DESIGN.md §15): `index --shards N` splits the
//! reference into `N` contiguous target ranges, one checksummed `MMXS`
//! container each, published atomically behind a v3 manifest. `map` opens
//! either shape transparently; over a manifest, shards mmap on first touch,
//! `--mem-budget` bounds resident shard bytes with LRU eviction, and each
//! shard is its own fault domain — a corrupt or missing shard quarantines
//! with a typed reason and only the reads whose seeds touch it degrade to
//! unmapped records. Shard chaos runs through the same
//! `--inject-backend-fault` plan string using the shard rule classes
//! (`corrupt-section`/`missing-shard`/`torn-tail`/`slow-io`, keyed by
//! `shards=`), bridged into the shard loader.
//!
//! Output (PAF by default, SAM with `--sam`) goes to stdout; stage timings
//! and a per-backend execution summary to stderr.
//!
//! `map` runs the map session (`manymap::session`) that `mmm-serve` runs
//! too: the flags both binaries share are parsed by
//! `SessionConfig::from_args` (a malformed number is a usage error in
//! either), and the index is opened by the same `open_index`. Only
//! `--sam`, `--fail-fast`, `--inject-panic`, `--index-format`, `--no-mmap`
//! and `--shards` are this binary's own.
//!
//! Backend selection: `--backend` (or the `MMM_BACKEND` environment
//! variable) routes the batched gap-fill alignment work to the CPU SIMD
//! executor or the simulated GPU/SIMT runner. All backends are
//! bit-identical, so the choice never changes stdout. `MMM_GPU_MEM` (bytes)
//! and `MMM_GPU_STREAMS` shrink the simulated device — useful to force the
//! oversized-pair CPU fallback path.
//!
//! Scheduling (DESIGN.md §11): `--sched bins` (or `MMM_SCHED=bins`) bins
//! each dispatch's jobs by DP-matrix size before submission — similarly
//! sized jobs batch together for even stream occupancy, and jobs the device
//! statically cannot take are routed to the host executor pre-batch instead
//! of stalling a device batch. Batch budgets: `MMM_SCHED_BATCH_CELLS`,
//! `MMM_SCHED_BATCH_JOBS`. Scheduling is pure reordering, so stdout is
//! byte-identical to the default fifo dispatch.
//!
//! Pre-alignment filtering: `--prefilter safe|aggressive` (or
//! `MMM_PREFILTER`) rejects candidate chains whose anchored sample windows
//! show no real-mapping evidence, before their DP jobs are planned.
//! Rejections are counted and reported on stderr. Default `off`.
//!
//! Fault behavior: fatal input problems (unreadable files, corrupt index,
//! a byte stream dying mid-file) abort with a nonzero exit and a message
//! naming the file and byte offset. Per-read problems (an oversized read, a
//! worker panic) degrade that read to an unmapped record, are counted, and
//! reported on stderr; the run still exits 0. `--inject-panic <read-name>`
//! triggers a deliberate worker panic on the named read, for exercising the
//! degradation path end-to-end.
//!
//! Supervised execution (DESIGN.md §10): every backend session runs under
//! the `mmm-exec` supervisor — failed batches are split and retried with
//! backoff (`--backend-retries N`, `MMM_BACKEND_RETRIES`), hung submissions
//! are killed by a watchdog (`--batch-deadline-ms N`), and a repeatedly
//! failing device backend is demoted to the CPU by a circuit breaker. Jobs
//! that fail everywhere quarantine their read to an unmapped record.
//! `--fail-fast` restores the old fatal behaviour.
//! `--inject-backend-fault <plan>` (or `MMM_FAULT_PLAN`) installs a
//! deterministic fault schedule, e.g. `launch-fail:batches=0..2` or
//! `hang:ms=500:every=3` — see `mmm_exec::FaultPlan` for the grammar.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;

use manymap::sam::write_sam_header;
use manymap::session::{map_opts, read_refs};
use manymap::{
    open_index, Args, Degradation, Format, Generation, Ledger, MapError, MapOpts, MapSession,
    SessionConfig, Settled,
};
use mmm_exec::{StatsReport, StderrSink};
use mmm_index::{build_sharded, save_index, AnyIndex, IndexError, IndexFormat, MinimizerIndex};
use mmm_io::{Stage, StageTimer};
use mmm_pipeline::{lock_unpoisoned, DynError};
use mmm_seq::{FastxReader, SeqRecord};

/// Value-taking flags only `manymap` accepts (the session's shared ones are
/// parsed by [`SessionConfig::from_args`]).
const CLI_VALUED_FLAGS: &[&str] = &["inject-panic", "index-format", "shards"];

/// Apply `--index-format` to in-process index builds.
fn apply_index_format(args: &Args, opts: &mut MapOpts) -> Result<(), MapError> {
    if let Some(v) = args.get("index-format") {
        opts.index_format = IndexFormat::parse(v).ok_or_else(|| {
            MapError::Usage(format!("--index-format {v:?}: expected packed or legacy"))
        })?;
    }
    Ok(())
}

/// Progress notes from the index opener, on stderr.
fn log(note: String) {
    eprintln!("[manymap] {note}");
}

/// The `index` summary line. The compaction ratio is only meaningful when
/// both sides are nonzero: an empty reference (no minimizers) has no flat
/// baseline, and an all-singleton reference stores every hit inline in the
/// bucket map (zero posting-pool bytes) — both print `n/a` instead of a
/// divide-by-zero artifact.
fn index_report(output: &str, idx: &MinimizerIndex) -> String {
    let posting_bytes = idx.posting_bytes();
    let flat_bytes = idx.num_positions() * 8;
    let shrink = if posting_bytes > 0 && flat_bytes > 0 {
        format!("{:.2}x vs flat", flat_bytes as f64 / posting_bytes as f64)
    } else {
        "n/a vs flat".to_string()
    };
    format!(
        "[manymap] wrote {output}: {} minimizers over {} sequence(s); \
         {} postings, {posting_bytes} posting byte(s) ({shrink}), \
         decode tier {}",
        idx.num_minimizers(),
        idx.seqs.len(),
        idx.format().label(),
        mmm_index::unpack::best_tier_label(),
    )
}

fn cmd_index(args: &Args) -> Result<(), MapError> {
    let [input, output] = &args.positional[1..] else {
        return Err(MapError::Usage(
            "usage: manymap index <ref.fa> <out.mmx> [--shards N]".into(),
        ));
    };
    let mut opts = map_opts(args)?;
    apply_index_format(args, &mut opts)?;
    let n_shards: usize =
        match args.get("shards") {
            None => 1,
            Some(v) => v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                MapError::Usage(format!("--shards {v:?}: expected an integer >= 1"))
            })?,
        };
    if n_shards > 1 {
        if input.ends_with(".mmx") {
            return Err(MapError::Usage(
                "--shards needs a FASTA reference to split, not an existing .mmx".into(),
            ));
        }
        let refs = read_refs(input)?;
        eprintln!(
            "[manymap] indexing {} reference sequence(s) into {n_shards} shard(s)...",
            refs.len()
        );
        let report = build_sharded(
            &refs,
            &opts.idx,
            opts.index_format,
            n_shards,
            Path::new(output),
        )
        .map_err(|e| MapError::Index {
            path: output.to_string(),
            source: e,
        })?;
        let shard_bytes: u64 = report.shard_bytes.iter().sum();
        eprintln!(
            "[manymap] wrote {output}: {} shard(s) over {} sequence(s), \
             global occurrence cutoff {}, {shard_bytes} shard byte(s) + \
             {} manifest byte(s)",
            report.n_shards, report.n_seqs, report.max_occ, report.manifest_bytes,
        );
        return Ok(());
    }
    let cfg = SessionConfig::new(opts);
    let idx = match open_index(input, &cfg, args.has("no-mmap"), &log)? {
        AnyIndex::Flat(idx) => idx,
        AnyIndex::Sharded(_) => {
            return Err(MapError::Index {
                path: input.to_string(),
                source: IndexError::ShardedManifest { path: input.into() },
            })
        }
    };
    save_index(&idx, Path::new(output)).map_err(|e| MapError::Io {
        path: output.to_string(),
        source: e,
    })?;
    eprintln!("{}", index_report(output, &idx));
    Ok(())
}

fn cmd_map(args: &Args) -> Result<(), MapError> {
    let [ref_path, reads_path] = &args.positional[1..] else {
        return Err(MapError::Usage(
            "usage: manymap map <ref.mmx|ref.fa> <reads.fq>".into(),
        ));
    };
    let mut cfg = SessionConfig::from_args(args)?;
    apply_index_format(args, &mut cfg.map)?;
    cfg.supervisor.fail_fast = args.has("fail-fast");
    let format = if args.has("sam") {
        Format::Sam
    } else {
        Format::Paf
    };
    let inject_panic = args.get("inject-panic");

    let mut timer = StageTimer::new();
    let index = timer.time(Stage::LoadIndex, || {
        open_index(ref_path, &cfg, args.has("no-mmap"), &log)
    })?;
    let gen = Generation::new(0, index, &cfg)?;
    let session = MapSession::new(cfg, gen, format)?;
    let gen = session.generation();

    let f = File::open(reads_path).map_err(|e| MapError::Io {
        path: reads_path.to_string(),
        source: e,
    })?;
    let reader = Mutex::new(FastxReader::new(BufReader::new(f)));
    let mut out = BufWriter::new(std::io::stdout());
    if format == Format::Sam {
        write_sam_header(&mut out, &gen.tnames, &gen.tlens).map_err(|e| MapError::Io {
            path: "stdout".into(),
            source: e,
        })?;
    }
    let out = Mutex::new(out);
    let ledger = Ledger::default();

    let stats = session
        .run(
            // A mid-file read error (device fault, malformed record) aborts
            // the run with the file name and position — it is never EOF.
            || {
                let batch = lock_unpoisoned(&reader)
                    .next_batch(4_000_000)
                    .map_err(|e| -> DynError { format!("{reads_path}: {e}").into() })?;
                Ok((!batch.is_empty()).then_some(batch))
            },
            // --inject-panic: a deliberate worker panic that degrades
            // exactly the one read it hits.
            |rec: &SeqRecord| {
                if inject_panic == Some(rec.name.as_str()) {
                    panic!("injected panic for read '{}'", rec.name);
                }
            },
            // Each degraded read is reported once and counted by kind.
            |rec: &SeqRecord, read: Settled| {
                ledger.record(&read);
                match &read.degraded {
                    None => {}
                    Some(Degradation::WorkerPanic(msg)) => eprintln!(
                        "manymap: worker panicked on read '{}' ({msg}); emitting unmapped record",
                        rec.name
                    ),
                    Some(why) => {
                        eprintln!("manymap: read '{}' degraded to unmapped: {why}", rec.name)
                    }
                }
                read.text
            },
            // A write error (e.g. a closed pipe, a full disk) aborts the run.
            |results: Vec<String>| {
                let mut w = lock_unpoisoned(&out);
                for lines in results {
                    w.write_all(lines.as_bytes())
                        .map_err(|e| -> DynError { format!("writing output: {e}").into() })?;
                }
                Ok(())
            },
        )
        .map_err(MapError::Pipeline)?;

    lock_unpoisoned(&out).flush().map_err(|e| MapError::Io {
        path: "stdout".into(),
        source: e,
    })?;

    // The run summary is assembled into one report and delivered as a
    // single stderr write (DESIGN.md §12): concurrent sessions sharing a
    // stderr serialize at report granularity instead of interleaving lines.
    let mut report = StatsReport::new("[manymap] ");
    report.line(format!(
        "mapped {} reads in {:.2}s wall ({} threads; compute {:.2}s, I/O {:.2}s)",
        stats.items,
        stats.wall_seconds,
        session.config().backend.threads,
        stats.compute_seconds,
        stats.in_seconds + stats.out_seconds
    ));
    session.backend_block(&mut report);
    // Shard fault-domain report: only lines for shards that did anything
    // interesting, plus one summary line, so a clean run stays compact.
    if let AnyIndex::Sharded(sharded) = &gen.index {
        let health = sharded.health();
        let quarantined = health.iter().filter(|h| h.state == "quarantined").count();
        report.line(format!(
            "shards: {} total, {} quarantined, {} resident byte(s)",
            health.len(),
            quarantined,
            sharded.resident_bytes()
        ));
        for h in &health {
            if h.state == "quarantined" || h.retries > 0 || h.evictions > 0 {
                report.line(format!(
                    "shard {}: {}{}; loads={}, retries={}, io_faults={}, evictions={}",
                    h.shard,
                    h.state,
                    h.reason
                        .as_deref()
                        .map(|r| format!(" ({r})"))
                        .unwrap_or_default(),
                    h.loads,
                    h.retries,
                    h.io_faults,
                    h.evictions
                ));
            }
        }
        let sess = gen.sessions.health();
        let routed: u64 = sess.iter().map(|s| s.jobs).sum();
        let sess_quarantined: u64 = sess.iter().map(|s| s.quarantined).sum();
        report.line(format!(
            "shard sessions: {} created, {routed} job(s) routed, \
             {sess_quarantined} job(s) quarantined",
            sess.iter().filter(|s| s.created).count()
        ));
    }
    let pf = ledger.prefilter_rejected();
    if pf > 0 {
        report.line(format!(
            "prefilter ({}): {pf} candidate chain(s) rejected before planning",
            session.config().map.prefilter.label()
        ));
    }
    report.maybe_line(ledger.degraded_line());
    report.emit(&StderrSink);
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1), CLI_VALUED_FLAGS);
    let result = match args.positional.first().map(|s| s.as_str()) {
        Some("index") => cmd_index(&args),
        Some("map") => cmd_map(&args),
        _ => Err(MapError::Usage(
            "usage: manymap <index|map> ... (see crate docs)".into(),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("manymap: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::nt4_decode;
    use mmm_simreads::{generate_genome, GenomeOpts};

    /// Regression: the shrink-vs-flat fragment used to print a meaningless
    /// ratio (or divide by zero) on an empty or all-singleton reference.
    #[test]
    fn index_report_guards_zero_denominators() {
        // Empty: a reference shorter than k yields zero minimizers, so the
        // flat baseline is zero bytes.
        let empty = MinimizerIndex::build(
            &[SeqRecord::new("tiny", nt4_decode(b"ACGTACGT"))],
            &mmm_index::IdxOpts::MAP_ONT,
        )
        .unwrap();
        assert_eq!(empty.num_positions(), 0);
        let line = index_report("out.mmx", &empty);
        assert!(line.contains("n/a vs flat"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");

        // All-singleton: every minimizer occurs once, so the packed format
        // stores every hit inline and the posting pool is empty.
        let g = generate_genome(&GenomeOpts {
            len: 5_000,
            repeat_frac: 0.0,
            seed: 41,
            ..Default::default()
        });
        let single = MinimizerIndex::build_with_format(
            &[SeqRecord::new("chr1", g)],
            &mmm_index::IdxOpts::MAP_ONT,
            IndexFormat::Packed,
        )
        .unwrap();
        let line = index_report("out.mmx", &single);
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        if single.posting_bytes() == 0 {
            assert!(line.contains("n/a vs flat"), "{line}");
        }

        // A healthy reference still reports a real ratio.
        let g = generate_genome(&GenomeOpts {
            len: 200_000,
            repeat_frac: 0.3,
            seed: 42,
            ..Default::default()
        });
        let normal = MinimizerIndex::build_with_format(
            &[SeqRecord::new("chr1", g)],
            &mmm_index::IdxOpts::MAP_ONT,
            IndexFormat::Packed,
        )
        .unwrap();
        if normal.posting_bytes() > 0 {
            let line = index_report("out.mmx", &normal);
            assert!(line.contains("x vs flat"), "{line}");
        }
    }
}
