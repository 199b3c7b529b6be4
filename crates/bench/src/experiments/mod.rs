//! One module per table/figure of the paper (DESIGN.md §5 maps them).
//!
//! Every module exposes `run(quick: bool) -> String`: `quick` shrinks the
//! workload for smoke tests and CI; the binaries run the full version. The
//! `repro_all` binary concatenates all of them into a results report.

pub mod ablation;
pub mod backend_exec;
pub mod fig10_affinity;
pub mod fig11_breakdown;
pub mod fig5_simd;
pub mod fig6_memmode;
pub mod fig7_streams;
pub mod fig8_length;
pub mod fig9_scaling;
pub mod gapfill_mix;
pub mod index_decode;
pub mod shard_load;
pub mod table2_profile;
pub mod table3_hw;
pub mod table4_datasets;
pub mod table5_aligners;

/// One experiment entry point: `quick` shrinks the workload.
pub type Experiment = fn(bool) -> String;

/// All experiments in paper order, with their ids.
pub fn all() -> Vec<(&'static str, Experiment)> {
    vec![
        ("Table 2", table2_profile::run as Experiment),
        ("Table 3", table3_hw::run),
        ("Table 4", table4_datasets::run),
        ("Figure 5", fig5_simd::run),
        ("Gap-fill mix", gapfill_mix::run),
        ("Figure 6", fig6_memmode::run),
        ("Figure 7", fig7_streams::run),
        ("Figure 8", fig8_length::run),
        ("Figure 9", fig9_scaling::run),
        ("Figure 10", fig10_affinity::run),
        ("Figure 11", fig11_breakdown::run),
        ("Table 5", table5_aligners::run),
        ("Backend exec", backend_exec::run),
        ("Index decode", index_decode::run),
        ("Shard load", shard_load::run),
        ("Ablations", ablation::run),
    ]
}
