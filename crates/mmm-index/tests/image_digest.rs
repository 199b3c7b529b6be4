//! Pins the on-disk bytes of the index formats.
//!
//! Each case builds an index over the same seeded reference set and
//! asserts the `xxh64` of every file it writes. A change to any digest
//! means the image format (or the minimizers it stores) changed, which
//! needs a format version bump, not a new digest.

use std::path::PathBuf;

use mmm_index::{build_sharded, save_index, xxh64, IdxOpts, IndexFormat, MinimizerIndex};
use mmm_seq::{nt4_decode, SeqRecord};

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmm-digest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Three chromosomes of seeded random bases with N runs, homopolymer runs
/// and one repeated unit, so the sketch's ambiguous-base, HPC and
/// multi-hit bucket paths all reach the image.
fn refs() -> Vec<SeqRecord> {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let unit: Vec<u8> = (0..700).map(|_| (next() % 4) as u8).collect();
    (0..3)
        .map(|c| {
            let mut g = Vec::new();
            while g.len() < 30_000 + 7_000 * c {
                match next() % 50 {
                    0 => g.extend(std::iter::repeat_n(4u8, 1 + next() % 30)),
                    1 => g.extend(std::iter::repeat_n((next() % 4) as u8, 2 + next() % 12)),
                    2 => g.extend_from_slice(&unit),
                    _ => g.push((next() % 4) as u8),
                }
            }
            SeqRecord::new(format!("chr{}", c + 1), nt4_decode(&g))
        })
        .collect()
}

fn flat_digest(opts: &IdxOpts, format: IndexFormat) -> u64 {
    let idx = MinimizerIndex::build_with_format(&refs(), opts, format).unwrap();
    let d = tmp_dir(&format!("flat-{}-{}", format.label(), opts.hpc));
    let path = d.join("ref.mmx");
    save_index(&idx, &path).unwrap();
    let digest = xxh64(&std::fs::read(&path).unwrap(), 0);
    std::fs::remove_dir_all(&d).unwrap();
    digest
}

#[test]
fn flat_images_are_byte_stable() {
    let got = [
        flat_digest(&IdxOpts::MAP_ONT, IndexFormat::Packed),
        flat_digest(&IdxOpts::MAP_ONT, IndexFormat::Legacy),
        flat_digest(&IdxOpts::MAP_PB, IndexFormat::Packed),
    ];
    assert_eq!(
        got,
        [
            0xab42_e878_7b29_3cf3,
            0xfa9d_ab2e_6106_2bea,
            0xcf39_eab5_f30c_c02d,
        ],
        "ont packed / ont legacy / pb (HPC) packed image digests"
    );
}

#[test]
fn two_shard_images_are_byte_stable() {
    let d = tmp_dir("sharded");
    let manifest = d.join("ref.mmx");
    build_sharded(
        &refs(),
        &IdxOpts::MAP_ONT,
        IndexFormat::Packed,
        2,
        &manifest,
    )
    .unwrap();
    let got: Vec<u64> = ["ref.mmx", "ref.mmx.s000", "ref.mmx.s001"]
        .iter()
        .map(|f| xxh64(&std::fs::read(d.join(f)).unwrap(), 0))
        .collect();
    std::fs::remove_dir_all(&d).unwrap();
    assert_eq!(
        got,
        [
            0x03db_f367_6f7f_89db,
            0xd75c_17b9_f9d0_157e,
            0x0b0d_0f3d_17bb_538f
        ],
        "manifest / shard 0 / shard 1 digests"
    );
}
