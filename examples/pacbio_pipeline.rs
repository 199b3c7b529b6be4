//! The paper's macro workload in miniature: map a simulated PacBio dataset
//! through manymap's map session (the 3-thread pipeline) and report
//! accuracy plus the stage overlap statistics.
//!
//! ```sh
//! cargo run --release --example pacbio_pipeline
//! ```

use std::sync::Mutex;

use manymap::{Format, Generation, MapOpts, MapSession, SessionConfig};
use mmm_index::{AnyIndex, IdxOpts, MinimizerIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{
    evaluate, generate_genome, simulate_reads, GenomeOpts, MappingCall, Platform, SimOpts,
};

/// The primary mapping of one read's PAF records, if any.
fn primary_call(read_id: usize, paf: &str) -> Option<MappingCall> {
    let f: Vec<&str> = paf
        .lines()
        .find(|l| l.contains("\ttp:A:P"))?
        .split('\t')
        .collect();
    Some(MappingCall {
        read_id,
        rid: 0, // one reference sequence
        ref_start: f[7].parse().ok()?,
        ref_end: f[8].parse().ok()?,
        rev: f[4] == "-",
        mapq: f[11].parse().ok()?,
    })
}

fn main() {
    let genome = generate_genome(&GenomeOpts {
        len: 1_000_000,
        seed: 11,
        ..Default::default()
    });
    let index = MinimizerIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&genome))],
        &IdxOpts::MAP_PB,
    )
    .unwrap();
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::PacBio,
            num_reads: 300,
            seed: 3,
        },
    );
    println!(
        "dataset: {} reads, {} bases",
        reads.len(),
        reads.iter().map(|r| r.seq.len()).sum::<usize>()
    );

    // Every available core; the session sorts each batch longest-first.
    let cfg = SessionConfig::new(MapOpts::map_pb());
    let gen = Generation::new(0, AnyIndex::Flat(index), &cfg).unwrap();
    let session = MapSession::new(cfg, gen, Format::Paf).unwrap();

    // Feed the pipeline in batches of ~64 reads, named by read id.
    let records: Vec<SeqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| SeqRecord::new(i.to_string(), nt4_decode(&r.seq)))
        .collect();
    let mut batches: Vec<Vec<SeqRecord>> = records.chunks(64).map(|c| c.to_vec()).collect();
    batches.reverse();

    let calls = Mutex::new(Vec::new());
    let stats = session
        .run(
            move || Ok(batches.pop()),
            |_| {},
            |rec: &SeqRecord, read| primary_call(rec.name.parse().unwrap(), &read.text),
            |results| {
                calls.lock().unwrap().extend(results.into_iter().flatten());
                Ok(())
            },
        )
        .unwrap();

    let truths: Vec<_> = reads.iter().map(|r| r.origin).collect();
    let summary = evaluate(&calls.into_inner().unwrap(), &truths);
    println!(
        "pipeline: {} batches, {:.2}s wall ({:.2}s compute, {:.2}s I/O overlap)",
        stats.batches,
        stats.wall_seconds,
        stats.compute_seconds,
        stats.in_seconds + stats.out_seconds
    );
    println!(
        "accuracy: {}/{} mapped, error rate {:.3}%",
        summary.mapped,
        summary.total_reads,
        summary.error_rate_pct()
    );
}
