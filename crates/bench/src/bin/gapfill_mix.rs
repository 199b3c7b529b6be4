//! Kernel GCUPS on gap-fill-shaped pairs (see DESIGN.md §4.1b) and the
//! machine-readable baseline in `BENCH_gapfill_mix.json` (override the path
//! with `BENCH_JSON_OUT`; set it empty to skip).
//! Set BENCH_QUICK=1 for a fast smoke run.

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let (table, json) = bench::experiments::gapfill_mix::run_with_json(quick);
    print!("{table}");
    let out = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_gapfill_mix.json".into());
    if out.is_empty() {
        return;
    }
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("[gapfill_mix] wrote {out}"),
        Err(e) => eprintln!("[gapfill_mix] could not write {out}: {e}"),
    }
}
