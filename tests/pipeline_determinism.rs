//! The map session's pipeline must produce byte-identical output to a
//! serial run, regardless of worker count, batch size or index shape.

use std::sync::Mutex;

use manymap::{
    open_index, paf_line, Format, Generation, MapOpts, MapSession, Mapper, SessionConfig,
};
use mmm_index::{build_sharded, AnyIndex, MinimizerIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_chromosomes, simulate_reads, GenomeOpts, Platform, SimOpts};

/// Four chromosomes and nanopore reads simulated from each.
fn workload() -> (Vec<SeqRecord>, Vec<SeqRecord>, MapOpts) {
    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: 200_000,
            repeat_frac: 0.0,
            seed: 31,
            ..Default::default()
        },
        4,
    );
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect();
    let mut reads = Vec::new();
    for (ci, g) in chroms.iter().enumerate() {
        let sims = simulate_reads(
            g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 10,
                seed: 13 + ci as u64,
            },
        );
        reads.extend(
            sims.iter()
                .map(|r| SeqRecord::new(format!("c{}{}", ci + 1, r.name), nt4_decode(&r.seq))),
        );
    }
    (refs, reads, MapOpts::map_ont())
}

/// The reference output: `Mapper::map_read` on each read in turn, as PAF.
fn serial_paf(refs: &[SeqRecord], reads: &[SeqRecord], opts: MapOpts) -> Vec<String> {
    let index = MinimizerIndex::build(refs, &opts.idx).unwrap();
    let mapper = Mapper::new(&index, opts);
    reads
        .iter()
        .map(|r| {
            let nt4 = r.nt4();
            let mut text = String::new();
            for m in mapper.map_read(&nt4) {
                let t = &refs[m.rid as usize];
                text.push_str(&paf_line(&r.name, nt4.len(), &t.name, t.len(), &m));
                text.push('\n');
            }
            text
        })
        .collect()
}

/// One session run over `index`, fed in batches of `batch` reads.
fn session_paf(
    index: AnyIndex,
    cfg: SessionConfig,
    reads: &[SeqRecord],
    batch: usize,
) -> Vec<String> {
    let gen = Generation::new(0, index, &cfg).unwrap();
    let session = MapSession::new(cfg, gen, Format::Paf).unwrap();
    let mut chunks: Vec<Vec<SeqRecord>> = reads.chunks(batch).map(|c| c.to_vec()).collect();
    chunks.reverse();
    let out = Mutex::new(Vec::new());
    session
        .run(
            move || Ok(chunks.pop()),
            |_| {},
            |rec: &SeqRecord, read| {
                assert!(read.degraded.is_none(), "{} degraded", rec.name);
                read.text
            },
            |texts| {
                out.lock().unwrap().extend(texts);
                Ok(())
            },
        )
        .unwrap();
    out.into_inner().unwrap()
}

fn config(opts: MapOpts, threads: usize) -> SessionConfig {
    let mut cfg = SessionConfig::new(opts);
    cfg.backend.threads = threads;
    cfg
}

#[test]
fn three_thread_pipeline_matches_serial() {
    let (refs, reads, opts) = workload();
    let expect = serial_paf(&refs, &reads, opts);
    assert!(expect.iter().filter(|t| !t.is_empty()).count() > 30);

    for threads in [1, 2, 4] {
        for batch in [1, 7, 40] {
            let index = AnyIndex::Flat(MinimizerIndex::build(&refs, &opts.idx).unwrap());
            let got = session_paf(index, config(opts, threads), &reads, batch);
            assert_eq!(got, expect, "threads={threads} batch={batch}");
        }
    }
}

#[test]
fn sharded_session_matches_serial() {
    let (refs, reads, opts) = workload();
    let expect = serial_paf(&refs, &reads, opts);

    let dir = std::env::temp_dir().join(format!("manymap-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("ref.mmx");
    build_sharded(&refs, &opts.idx, opts.index_format, 4, &manifest).unwrap();
    let manifest = manifest.display().to_string();

    for threads in [1, 2, 4] {
        for batch in [3, 40] {
            let cfg = config(opts, threads);
            let index = open_index(&manifest, &cfg, false, &|_| {}).unwrap();
            assert_eq!(index.as_index_ref().num_shards(), 4);
            let got = session_paf(index, cfg, &reads, batch);
            assert_eq!(got, expect, "threads={threads} batch={batch}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
