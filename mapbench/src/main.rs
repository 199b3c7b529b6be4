//! `mapbench` — end-to-end and per-layer benchmark for `manymap map` and
//! `mmm-serve`.
//!
//! ```sh
//! bash mapbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the production binaries
//! with tracing off. `--trace 1` runs the traced single-threaded runner for
//! the per-layer metrics, plus the CLI at one and two threads and a short
//! serve session, and cross-checks all of their outputs. The last line of
//! stdout is the JSON result; a human-readable report goes to stderr and
//! the trace (Chrome trace-event JSON) to `.bench_out/`.

mod eval;
mod inputs;
mod load;
mod proc;
mod stats;
mod trace;
mod traced;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use manymap::serve::Op;
use manymap::MapOpts;
use mmm_seq::SeqRecord;

use inputs::{Inputs, Spec};
use stats::{describe_timing, median, percentile, tail_percentile, Outcome};

/// End-to-end metrics and their units, reported by every workload with
/// `--trace 0`. `BENCHMARK.json` lists the same names and units.
const END_TO_END: [(&str, &str); 8] = [
    ("reads_per_s", "reads/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("correct_frac", "fraction"),
    ("mapped_frac", "fraction"),
    ("ok_frac", "fraction"),
    ("serve_setup_s", "s"),
    ("serve_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, reported by every workload with
/// `--trace 1`. The serve latency and bulk throughput belong with the
/// end-to-end metrics in spirit, but their seed-to-seed spread on a shared
/// 2-vCPU machine (0.1–0.57 of the median) is wider than any bound, so they
/// are reported here, unbounded.
const PER_LAYER: [(&str, &str); 39] = [
    ("seq.parse_s", "s"),
    ("index.open_s", "s"),
    ("index.seed_s", "s"),
    ("index.anchors_per_read", "count"),
    ("index.shard_loads", "count"),
    ("index.resident_mb", "MiB"),
    ("chain.chain_s", "s"),
    ("chain.select_s", "s"),
    ("chain.primaries_per_read", "count"),
    ("chain.mappings_per_read", "count"),
    ("plan.plan_s", "s"),
    ("plan.jobs", "count"),
    ("plan.cells", "count"),
    ("exec.submit_s", "s"),
    ("exec.mcells_per_s", "Mcell/s"),
    ("exec.batches", "count"),
    ("exec.retries", "count"),
    ("exec.fallbacks", "count"),
    ("exec.quarantined", "count"),
    ("align.gcups", "Gcell/s"),
    ("finalize.finalize_s", "s"),
    ("finalize.read_p99_ms", "ms"),
    ("finalize.mappings", "count"),
    ("format.format_s", "s"),
    ("format.paf_bytes", "count"),
    ("pipeline.t1_wall_s", "s"),
    ("pipeline.scaling_eff", "fraction"),
    ("pipeline.unattributed_frac", "fraction"),
    ("serve.admit_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.p95_ms", "ms"),
    ("serve.bulk_reads_per_s", "reads/s"),
    ("eval.error_rate", "%"),
    ("eval.failed_frac", "fraction"),
    ("eval.paf_lines_per_read", "count"),
];

/// `manymap map` runs on an empty read file per setup measurement.
const SETUP_RUNS: usize = 7;
/// Daemon start-ups per setup measurement.
const SERVE_SETUP_RUNS: usize = 9;
/// Fewest timed CLI runs behind a throughput median.
const MIN_REPS: usize = 3;
const THREADS: &str = "2";

struct Ctx {
    bin_dir: PathBuf,
    work: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    seconds: f64,
    spec: Spec,
}

impl Ctx {
    fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.work.join(file)
    }

    fn map_opts(&self) -> MapOpts {
        match self.spec.preset {
            "map-pb" => MapOpts::map_pb(),
            _ => MapOpts::map_ont(),
        }
    }

    /// `manymap map <index> <reads> --threads N`; stdout lands in `out`.
    fn cli_map(&self, reads: &Path, threads: &str, out: &str) -> Result<proc::Finished, String> {
        proc::run(
            Command::new(self.bin("manymap"))
                .arg("map")
                .arg(self.path("ref.mmx"))
                .arg(reads)
                .args(["--preset", self.spec.preset, "--threads", threads]),
            &self.path(out),
        )
    }

    fn read_out(&self, file: &str) -> Result<String, String> {
        std::fs::read_to_string(self.path(file)).map_err(|e| format!("{file}: {e}"))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), v);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse().map_err(|_| format!("--{k}: not a number"))
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "--seed: not an integer")?,
        seconds: num("seconds")?.max(1.0),
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t:?}: expected 0 or 1")),
        },
        bin_dir: PathBuf::from(get("bin-dir")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mapbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<Spec> = if args.workload == "all" {
        inputs::WORKLOADS.to_vec()
    } else {
        match inputs::spec(&args.workload) {
            Some(s) => vec![s],
            None => {
                eprintln!("mapbench: unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let mut results = Vec::new();
    for spec in specs {
        match run_workload(&args, spec) {
            Ok(o) => results.push((spec.name, o)),
            Err(e) => {
                eprintln!("mapbench: {}: {e}", spec.name);
                return ExitCode::from(2);
            }
        }
    }
    let line = if let [(_, one)] = results.as_slice() {
        one.json()
    } else {
        // `all`: one table on stderr, one combined line on stdout.
        let mut all = Outcome::default();
        for (name, o) in &results {
            eprintln!("== {name}");
            for m in &o.metrics {
                eprintln!("   {:<28} {:>14.6} {}", m.name, m.value, m.unit);
                all.put(format!("{name}.{}", m.name), m.value, m.unit);
            }
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.problems.extend(o.problems.iter().cloned());
        }
        all.json()
    };
    println!("{line}");
    if results.iter().all(|(_, o)| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(args: &Args, spec: Spec) -> Result<Outcome, String> {
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-s{}-p{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        bin_dir: args.bin_dir.clone(),
        work,
        out_dir,
        seed: args.seed,
        seconds: args.seconds,
        spec,
    };
    let result = prepare(&ctx).and_then(|inputs| {
        if args.trace {
            per_layer(&ctx, &inputs)
        } else {
            end_to_end(&ctx, &inputs)
        }
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut o = result?;
    o.select(if args.trace { &PER_LAYER } else { &END_TO_END });
    Ok(o)
}

/// Generate the inputs and build the index; none of this is timed.
fn prepare(ctx: &Ctx) -> Result<Inputs, String> {
    let spec = &ctx.spec;
    let t0 = Instant::now();
    // The interactive stream lasts the serve share of the measurement.
    let interactive = (spec.interactive_rate * ctx.seconds * spec.serve_share).round() as usize;
    let inputs = inputs::generate(
        spec,
        ctx.seed,
        interactive.max(spec.min_interactive),
        &ctx.work,
    )?;
    inputs::write_fa(&ctx.path("reads.fa"), &inputs.reads)?;
    inputs::write_fa(&ctx.path("empty.fa"), &[])?;
    let mut cmd = Command::new(ctx.bin("manymap"));
    cmd.arg("index")
        .arg(&inputs.ref_fa)
        .arg(ctx.path("ref.mmx"))
        .args(["--preset", spec.preset]);
    if spec.shards > 1 {
        cmd.args(["--shards", &spec.shards.to_string()]);
    }
    proc::run(&mut cmd, &ctx.path("index.out"))?;
    eprintln!(
        "[mapbench] inputs generated and indexed in {:.2}s",
        t0.elapsed().as_secs_f64()
    );
    if !spec.gated {
        eprintln!(
            "[mapbench] {} is not in BENCHMARK.json: a few of its reads take seconds each, \
             so its figures swing from seed to seed",
            spec.name
        );
    }
    eprintln!(
        "[mapbench] {} seed {}: {} CLI reads ({} bases), {} interactive and up to {} bulk reads, {} bp reference in {} sequence(s), {} shard(s)",
        spec.name,
        ctx.seed,
        inputs.reads.len(),
        inputs.reads.iter().map(|r| r.len()).sum::<usize>(),
        inputs.interactive.len(),
        inputs.bulk.len(),
        spec.genome_len,
        inputs.tnames.len(),
        spec.shards,
    );
    Ok(inputs)
}

fn names(reads: &[SeqRecord]) -> Vec<String> {
    reads.iter().map(|r| r.name.clone()).collect()
}

/// Score one PAF against the truth, count its reads as attempted and its
/// failures as failed, and check the accuracy floors.
fn score_paf(
    o: &mut Outcome,
    spec: &Spec,
    reads: &[String],
    by_read: &HashMap<String, String>,
    tnames: &[String],
    answered: impl Fn(&str) -> bool,
    refused: usize,
) -> Result<eval::Score, String> {
    let s = eval::score(reads, by_read, tnames, answered, refused)?;
    o.attempted += s.reads_in as u64;
    o.failed += s.failed() as u64;
    o.check(s.mapped_frac() >= spec.min_mapped_frac, || {
        format!(
            "mapped fraction {:.3} is below the {} floor",
            s.mapped_frac(),
            spec.min_mapped_frac
        )
    });
    o.check(s.error_rate_pct() <= spec.max_error_pct, || {
        format!(
            "error rate {:.2}% is above the {}% ceiling",
            s.error_rate_pct(),
            spec.max_error_pct
        )
    });
    eprintln!(
        "[mapbench] accuracy: {} reads, {} mapped, {} correct, {} wrong ({:.2}% error; {:.2}% scoring the last primary line, as mapeval does), {} failed, {} PAF lines ({:.2} per read)",
        s.reads_in,
        s.mapped,
        s.correct,
        s.wrong,
        s.error_rate_pct(),
        100.0 * s.wrong_last_primary as f64 / s.mapped.max(1) as f64,
        s.failed(),
        s.paf_lines,
        s.lines_per_read()
    );
    Ok(s)
}

fn put_accuracy(o: &mut Outcome, s: &eval::Score) {
    o.put("correct_frac", s.correct_frac(), "fraction");
    o.put("mapped_frac", s.mapped_frac(), "fraction");
    o.put("eval.error_rate", s.error_rate_pct(), "%");
    o.put("eval.failed_frac", s.failed_frac(), "fraction");
    o.put("eval.paf_lines_per_read", s.lines_per_read(), "count");
}

/// The CLI's own count of mapped reads must match the input.
fn check_cli_count(o: &mut Outcome, stderr: &str, want: usize) {
    let got = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[manymap] mapped "))
        .and_then(|r| r.split(' ').next())
        .and_then(|n| n.parse::<usize>().ok());
    o.check(got == Some(want), || {
        format!("manymap reported {got:?} reads mapped, expected {want}")
    });
}

/// Setup time and throughput of `manymap map` on the CLI read set.
fn cli_runs(ctx: &Ctx, o: &mut Outcome, inputs: &Inputs, seconds: f64) -> Result<(), String> {
    let reads = ctx.path("reads.fa");
    let n = inputs.reads.len();
    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        let r = ctx.cli_map(&ctx.path("empty.fa"), THREADS, "empty.paf")?;
        check_cli_count(o, &r.stderr, 0);
        setup.push(r.wall_s);
    }
    let start = Instant::now();
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let r = ctx.cli_map(&reads, THREADS, "map.paf")?;
        check_cli_count(o, &r.stderr, n);
        walls.push(r.wall_s);
        rss.push(r.peak_rss_mb);
        let paf = ctx.read_out("map.paf")?;
        match &first {
            None => first = Some(paf),
            Some(f) => o.check(*f == paf, || "repeated CLI runs differ in output".into()),
        }
    }
    let by_read = eval::group_by_read(&first.unwrap_or_default())?;
    let names = names(&inputs.reads);
    let s = score_paf(o, &ctx.spec, &names, &by_read, &inputs.tnames, |_| true, 0)?;
    put_accuracy(o, &s);
    // Every timed run mapped the whole set: count them all as attempted.
    o.attempted += (walls.len() as u64 - 1) * s.reads_in as u64;
    o.failed += (walls.len() as u64 - 1) * s.failed() as u64;
    let rates: Vec<f64> = walls.iter().map(|w| n as f64 / w).collect();
    o.put("reads_per_s", median(&rates), "reads/s");
    o.put("setup_s", median(&setup), "s");
    o.put("peak_rss_mb", median(&rss), "MiB");
    eprintln!(
        "[mapbench] map --threads {THREADS}: wall {}; reads/s {}",
        describe_timing(&walls, "s"),
        describe_timing(&rates, "reads/s")
    );
    eprintln!(
        "[mapbench] setup (empty read file): {}",
        describe_timing(&setup, "s")
    );
    Ok(())
}

/// Self time per span name, in seconds.
fn self_s(totals: &std::collections::BTreeMap<&'static str, trace::NameTotals>, name: &str) -> f64 {
    totals.get(name).map(|t| t.self_s()).unwrap_or(0.0)
}

/// The traced runner plus the CLI at one and two threads over `reads`,
/// with every output cross-checked. Records the layer metrics.
fn layers(ctx: &Ctx, o: &mut Outcome, reads_file: &str) -> Result<String, String> {
    let reads = ctx.path(reads_file);
    let mut rec = trace::Recorder::new();
    let t = traced::run(&ctx.path("ref.mmx"), &reads, ctx.map_opts(), &mut rec)?;
    let trace_path = ctx
        .out_dir
        .join(format!("{}-seed{}.trace.json", ctx.spec.name, ctx.seed));
    std::fs::write(&trace_path, rec.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let t2 = ctx.cli_map(&reads, "2", "t2.paf")?;
    let t1 = ctx.cli_map(&reads, "1", "t1.paf")?;
    check_cli_count(o, &t2.stderr, t.reads as usize);
    check_cli_count(o, &t1.stderr, t.reads as usize);
    let (paf2, paf1) = (ctx.read_out("t2.paf")?, ctx.read_out("t1.paf")?);
    o.check(t.paf == paf2, || {
        first_difference("traced runner", &t.paf, "manymap map --threads 2", &paf2)
    });
    o.check(paf1 == paf2, || {
        first_difference(
            "manymap map --threads 1",
            &paf1,
            "manymap map --threads 2",
            &paf2,
        )
    });
    if let Some(why) = &t.kernel_mismatch {
        o.problem(why.clone());
    }

    let totals = rec.totals();
    let reads_n = t.reads.max(1) as f64;
    let plan_s = self_s(&totals, "plan.plan_read") - self_s(&totals, "plan.seed_chain");
    let layer_s = [
        ("seq", self_s(&totals, "seq.parse")),
        ("index", t.open_s + self_s(&totals, "index.seed")),
        (
            "chain",
            self_s(&totals, "chain.chain") + self_s(&totals, "chain.select"),
        ),
        ("plan", plan_s),
        ("exec", self_s(&totals, "exec.submit")),
        ("finalize", self_s(&totals, "finalize")),
        ("format", self_s(&totals, "format")),
    ];
    let attributed: f64 = layer_s.iter().map(|(_, s)| s).sum();
    let submit_s = self_s(&totals, "exec.submit");
    let finalize_ms: Vec<f64> = rec
        .durations_s("finalize")
        .iter()
        .map(|s| s * 1e3)
        .collect();

    o.put("seq.parse_s", self_s(&totals, "seq.parse"), "s");
    o.put("index.open_s", t.open_s, "s");
    o.put("index.seed_s", self_s(&totals, "index.seed"), "s");
    o.put(
        "index.anchors_per_read",
        t.anchors as f64 / reads_n,
        "count",
    );
    o.put("index.shard_loads", t.shard_loads as f64, "count");
    o.put(
        "index.resident_mb",
        t.resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    o.put("chain.chain_s", self_s(&totals, "chain.chain"), "s");
    o.put("chain.select_s", self_s(&totals, "chain.select"), "s");
    o.put(
        "chain.primaries_per_read",
        t.primaries as f64 / reads_n,
        "count",
    );
    o.put(
        "chain.mappings_per_read",
        t.selected as f64 / reads_n,
        "count",
    );
    o.put("plan.plan_s", plan_s, "s");
    o.put("plan.jobs", t.jobs as f64, "count");
    o.put("plan.cells", t.cells as f64, "count");
    o.put("exec.submit_s", submit_s, "s");
    o.put(
        "exec.mcells_per_s",
        if submit_s > 0.0 {
            t.cells as f64 / submit_s / 1e6
        } else {
            0.0
        },
        "Mcell/s",
    );
    o.put("exec.batches", t.backend.batches as f64, "count");
    o.put("exec.retries", t.backend.retries as f64, "count");
    o.put("exec.fallbacks", t.backend.fallbacks as f64, "count");
    o.put("exec.quarantined", t.backend.quarantined as f64, "count");
    o.put("align.gcups", t.align_gcups, "Gcell/s");
    o.put("finalize.finalize_s", self_s(&totals, "finalize"), "s");
    o.put(
        "finalize.read_p99_ms",
        if finalize_ms.is_empty() {
            0.0
        } else {
            percentile(&finalize_ms, 99.0)
        },
        "ms",
    );
    o.put("finalize.mappings", t.mappings as f64, "count");
    o.put("format.format_s", self_s(&totals, "format"), "s");
    o.put("format.paf_bytes", t.paf_bytes as f64, "count");
    o.put("pipeline.t1_wall_s", t1.wall_s, "s");
    o.put(
        "pipeline.scaling_eff",
        t1.wall_s / (2.0 * t2.wall_s),
        "fraction",
    );
    o.put(
        "pipeline.unattributed_frac",
        1.0 - attributed / t1.wall_s,
        "fraction",
    );

    eprintln!(
        "[mapbench] deterministic counts: reads={} anchors={} primaries={} selected={} jobs={} cells={} mappings={} paf_bytes={} degraded={}",
        t.reads, t.anchors, t.primaries, t.selected, t.jobs, t.cells, t.mappings, t.paf_bytes, t.degraded
    );
    eprintln!(
        "[mapbench] wall: traced runner {:.3}s, manymap map --threads 1 {:.3}s, --threads 2 {:.3}s",
        rec.spans().iter().map(|s| s.end_ns).max().unwrap_or(0) as f64 / 1e9,
        t1.wall_s,
        t2.wall_s
    );
    for (layer, s) in layer_s {
        eprintln!(
            "[mapbench] layer {layer:<9} {s:>9.4}s self  {:>6.2}% of t1 wall",
            100.0 * s / t1.wall_s
        );
    }
    eprintln!(
        "[mapbench] per-read finalize: {}",
        describe_timing(&finalize_ms, "ms")
    );
    eprintln!("[mapbench] trace written to {}", trace_path.display());
    Ok(paf2)
}

/// What a daemon session measured.
struct Session {
    load: load::LoadResult,
    stats: load::ServerStats,
    peak_rss_mb: f64,
}

fn spawn_daemon(ctx: &Ctx, socket: &Path) -> Result<proc::Guard, String> {
    let log = std::fs::File::create(ctx.path("daemon.stderr")).map_err(|e| e.to_string())?;
    let child = Command::new(ctx.bin("mmm-serve"))
        .arg("daemon")
        .arg(ctx.path("ref.mmx"))
        .arg("--socket")
        .arg(socket)
        .args(["--threads", THREADS, "--preset", ctx.spec.preset])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawning mmm-serve: {e}"))?;
    Ok(proc::Guard(Some(child)))
}

/// Drain the daemon and wait for a clean exit.
fn drain(socket: &Path, daemon: proc::Guard) -> Result<(), String> {
    load::admin(socket, Op::Drain)?;
    let st = daemon.wait_for(Duration::from_secs(30))?;
    if st.success() {
        Ok(())
    } else {
        Err(format!("mmm-serve exited with {st}"))
    }
}

/// Daemon start-up time: spawn until a tenant's HELLO is acknowledged.
fn serve_setup(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let socket = ctx.path("setup.sock");
    let mut times = Vec::new();
    for _ in 0..SERVE_SETUP_RUNS {
        let t0 = Instant::now();
        let daemon = spawn_daemon(ctx, &socket)?;
        let mut s = load::connect(&socket, Duration::from_secs(20))?;
        load::hello(&mut s, "setup")?.ok_or("daemon refused the setup tenant")?;
        times.push(t0.elapsed().as_secs_f64());
        manymap::serve::write_frame(&mut s, Op::End, b"").map_err(|e| e.to_string())?;
        while let Some(f) = manymap::serve::read_frame(&mut s).map_err(|e| e.to_string())? {
            if f.op == Op::Done {
                break;
            }
        }
        drain(&socket, daemon)?;
    }
    Ok(times)
}

fn serve_session(
    ctx: &Ctx,
    interactive: &[SeqRecord],
    bulk: &[SeqRecord],
) -> Result<Session, String> {
    let socket = ctx.path("serve.sock");
    let daemon = spawn_daemon(ctx, &socket)?;
    let watch = proc::RssWatch::start(daemon.id());
    let load = load::run(
        &socket,
        interactive,
        ctx.spec.interactive_rate,
        bulk,
        ctx.spec.bulk_window,
        inputs::mix(ctx.seed, 4),
    )?;
    let text = load::admin(&socket, Op::Stats)?;
    let stats = load::parse_stats(&text, "interactive")?;
    drain(&socket, daemon)?;
    Ok(Session {
        load,
        stats,
        peak_rss_mb: watch.finish(),
    })
}

/// Check each tenant's `REC` stream against a CLI run over the same reads,
/// score it, and record the serve metrics.
fn check_session(
    ctx: &Ctx,
    o: &mut Outcome,
    inputs: &Inputs,
    sess: &Session,
    interactive: &[SeqRecord],
    bulk: &[SeqRecord],
) -> Result<(), String> {
    let (il, bl) = (&sess.load.interactive, &sess.load.bulk);
    let mut served: Vec<SeqRecord> = interactive[..il.sent].to_vec();
    served.extend_from_slice(&bulk[..bl.sent]);
    inputs::write_fa(&ctx.path("served.fa"), &served)?;
    let cli = ctx.cli_map(&ctx.path("served.fa"), THREADS, "served.paf")?;
    check_cli_count(o, &cli.stderr, served.len());
    let by_read = eval::group_by_read(&ctx.read_out("served.paf")?)?;
    let mut answered: HashMap<String, String> = HashMap::new();
    for (tenant, reads, log) in [("interactive", interactive, il), ("bulk", bulk, bl)] {
        let mut mismatches = Vec::new();
        for (r, rec) in reads.iter().zip(&log.recs) {
            let want = by_read.get(&r.name).map(String::as_str).unwrap_or("");
            if rec != want {
                mismatches.push(first_difference(&r.name, rec, "manymap map", want));
            }
            answered.insert(r.name.clone(), rec.clone());
        }
        o.check(mismatches.is_empty(), || {
            format!(
                "serve tenant {tenant}: {} REC frame(s) differ from manymap map; first: {}",
                mismatches.len(),
                mismatches[0]
            )
        });
    }
    let refused = [(il, interactive.len()), (bl, bulk.len())]
        .iter()
        .filter(|(l, _)| l.refused)
        .map(|(_, n)| *n)
        .sum();
    score_paf(
        o,
        &ctx.spec,
        &names(&served),
        &answered,
        &inputs.tnames,
        |n| answered.contains_key(n),
        refused,
    )?;

    let w = load::windowed(&sess.load);
    let lat = &il.latency_ms;
    o.check(!lat.is_empty(), || {
        "interactive tenant got no answers".into()
    });
    let lag_tail = tail_percentile(il.lag_ms.len()).unwrap_or(100.0);
    o.put("serve.bulk_reads_per_s", w.bulk_reads_per_s, "reads/s");
    o.put("serve.p50_ms", w.p50_ms, "ms");
    o.put("serve.p95_ms", w.p95_ms, "ms");
    o.put("serve_rss_mb", sess.peak_rss_mb, "MiB");
    o.put("serve.admit_ms", median(&[il.admit_ms, bl.admit_ms]), "ms");
    o.put("serve.server_p50_ms", sess.stats.p50_ms, "ms");
    o.put("serve.server_p99_ms", sess.stats.p99_ms, "ms");
    o.put("serve.batches", sess.stats.batches as f64, "count");
    o.put(
        "serve.gen_lag_ms",
        if il.lag_ms.is_empty() {
            0.0
        } else {
            percentile(&il.lag_ms, lag_tail)
        },
        "ms",
    );
    eprintln!(
        "[mapbench] serve: interactive {} reads at {}/s, latency {}; generator lag {}",
        il.sent,
        ctx.spec.interactive_rate,
        describe_timing(lat, "ms"),
        describe_timing(&il.lag_ms, "ms")
    );
    eprintln!(
        "[mapbench] serve: bulk {} reads in {:.3}s (window {}); median of {} windows: p50 {:.3} ms, p95 {:.3} ms, bulk {:.2} reads/s; server-side p50 <={}ms p99 <={}ms over {} batches; daemon peak RSS {:.1} MiB",
        bl.recs.len(),
        bl.span_s,
        ctx.spec.bulk_window,
        w.windows,
        w.p50_ms,
        w.p95_ms,
        w.bulk_reads_per_s,
        sess.stats.p50_ms,
        sess.stats.p99_ms,
        sess.stats.batches,
        sess.peak_rss_mb
    );
    if bl.sent == bulk.len() {
        // Not an output error, but the last interactive reads ran without
        // bulk contention; only the heavy-tailed on-request workloads get
        // here, when one slow read stretches the interactive stream.
        eprintln!("[mapbench] warning: the bulk pool ran dry before the interactive stream ended");
    }
    Ok(())
}

fn end_to_end(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    cli_runs(
        ctx,
        &mut o,
        inputs,
        ctx.seconds * (1.0 - ctx.spec.serve_share),
    )?;
    let setup = serve_setup(ctx)?;
    o.put("serve_setup_s", median(&setup), "s");
    eprintln!(
        "[mapbench] serve setup (spawn to HELLO ack): {}",
        describe_timing(&setup, "s")
    );
    let sess = serve_session(ctx, &inputs.interactive, &inputs.bulk)?;
    check_session(
        ctx,
        &mut o,
        inputs,
        &sess,
        &inputs.interactive,
        &inputs.bulk,
    )?;
    o.put(
        "ok_frac",
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
        "fraction",
    );
    for (m, _) in END_TO_END {
        if let Some(x) = o.metrics.iter().find(|x| x.name == m) {
            eprintln!("[mapbench] {m:<24} {:>14.6} {}", x.value, x.unit);
        }
    }
    Ok(o)
}

fn per_layer(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let paf = layers(ctx, &mut o, "reads.fa")?;
    let by_read = eval::group_by_read(&paf)?;
    let names = names(&inputs.reads);
    let s = score_paf(
        &mut o,
        &ctx.spec,
        &names,
        &by_read,
        &inputs.tnames,
        |_| true,
        0,
    )?;
    put_accuracy(&mut o, &s);
    let sess = serve_session(ctx, &inputs.interactive, &inputs.bulk)?;
    check_session(
        ctx,
        &mut o,
        inputs,
        &sess,
        &inputs.interactive,
        &inputs.bulk,
    )?;
    Ok(o)
}

/// Describe where two outputs first differ.
fn first_difference(a_name: &str, a: &str, b_name: &str, b: &str) -> String {
    let (al, bl): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let i = al.iter().zip(&bl).take_while(|(x, y)| x == y).count();
    format!(
        "{a_name} and {b_name} differ at line {} ({} vs {} lines): {:?} vs {:?}",
        i + 1,
        al.len(),
        bl.len(),
        al.get(i).unwrap_or(&"<end>"),
        bl.get(i).unwrap_or(&"<end>")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list every metric this
    /// program reports, with the same unit.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\": ").count();
        let gated = inputs::WORKLOADS.iter().filter(|w| w.gated).count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + gated);
        for w in inputs::WORKLOADS.iter().filter(|w| w.gated) {
            assert!(json.contains(&format!("\"name\": \"{}\", \"why\"", w.name)));
        }
    }
}
