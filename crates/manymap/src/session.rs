//! One map session: what `manymap map` and `mmm-serve` both run.
//!
//! A session owns everything between the command line and the output
//! records:
//!
//! * [`SessionConfig`] — the settings both binaries share, parsed once by
//!   [`SessionConfig::from_args`] from the same flags and environment
//!   variables (preset, engine, CIGARs, read-length limit, prefilter,
//!   backend, threads, `MMM_GPU_*`, fault plan, retries, deadline,
//!   scheduler, shard memory budget);
//! * [`open_index`] — the one index opener: flat `.mmx` (mmap'd or read),
//!   shard manifest (with the fault plan's shard rules bridged into the
//!   loader), or FASTA indexed on the fly;
//! * [`Generation`] — an opened index, its target tables and one
//!   supervised backend session per index shard. `mmm-serve` swaps
//!   generations on `RELOAD`; `manymap map` is the one-generation case;
//! * [`MapSession::run`] — plan → dispatch → finalize on the
//!   [`mmm_pipeline::run_pipeline`] runner. Dispatch groups a batch's jobs
//!   by the generation each read was planned against; every read comes back
//!   [`Settled`]: its formatted records, or an unmapped placeholder and a
//!   typed [`Degradation`].
//!
//! Callers supply only a reader, a writer, what to do with each settled
//! read, and their own report rendering ([`Ledger`] keeps the per-kind
//! degradation counts both reports are built from).

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mmm_align::{best_mm2_engine, AlignError, AlignResult, AlignScratch};
use mmm_exec::{
    prepare_supervised, AlignBackend, AlignJob, BackendKind, BackendOptions, BackendStats,
    FaultPlan, JobOutcome, PrefilterMode, SchedConfig, SchedMode, SessionFactory, ShardSessions,
    StatsReport, SupervisorConfig,
};
use mmm_index::{
    load_index, AnyIndex, IndexError, MinimizerIndex, ShardOpenOpts, ShardUnavailable,
};
use mmm_pipeline::{lock_unpoisoned, run_pipeline, DynError, PipelineError, PipelineStats};
use mmm_seq::{FastxReader, SeqRecord};

use crate::mapper::{MapReadError, ReadPlan};
use crate::sam::{sam_line, sam_unmapped};
use crate::{paf_line, paf_unmapped, parse_byte_size, MapError, MapOpts, Mapper, PlanShardFaults};

/// Value-taking flags every session-running binary accepts.
const SESSION_VALUED_FLAGS: &[&str] = &[
    "preset",
    "engine",
    "backend",
    "threads",
    "max-read-len",
    "backend-retries",
    "batch-deadline-ms",
    "inject-backend-fault",
    "sched",
    "prefilter",
    "mem-budget",
];

/// A parsed command line: positionals, `--name value` flags and bare
/// `--switch`es (recorded as `"true"`).
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `args` (without the program name). The session flags take a
    /// value; so do the binary's own `valued` flags. Any other `--name` is
    /// a switch.
    pub fn parse(args: impl IntoIterator<Item = String>, valued: &[&str]) -> Args {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let val = if SESSION_VALUED_FLAGS.contains(&name) || valued.contains(&name) {
                    it.next().unwrap_or_default()
                } else {
                    "true".to_string()
                };
                flags.insert(name.to_string(), val);
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    /// A flag's value, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a flag (or switch) was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A numeric flag: `None` when absent, a usage error when malformed.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, MapError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| MapError::Usage(format!("--{name} {v:?}: not a number")))
            })
            .transpose()
    }
}

/// The mapping parameters of a command line: `--preset`, `--engine`,
/// `--no-cigar`, `--max-read-len`, `--prefilter` (else `MMM_PREFILTER`).
pub fn map_opts(args: &Args) -> Result<MapOpts, MapError> {
    let mut opts = match args.get("preset") {
        Some("map-pb") => MapOpts::map_pb(),
        _ => MapOpts::map_ont(),
    };
    if args.get("engine") == Some("mm2") {
        opts = opts.with_engine(best_mm2_engine());
    }
    if args.has("no-cigar") {
        opts = opts.cigar(false);
    }
    if let Some(n) = args.num("max-read-len")? {
        opts.max_read_len = n;
    }
    opts.prefilter = match args.get("prefilter") {
        Some(v) => PrefilterMode::parse(v),
        None => PrefilterMode::from_env().unwrap_or(Ok(PrefilterMode::Off)),
    }
    .map_err(MapError::Usage)?;
    Ok(opts)
}

/// Everything a session is configured with.
#[derive(Clone)]
pub struct SessionConfig {
    /// Mapping parameters.
    pub map: MapOpts,
    /// Which backend runs the gap-fill jobs.
    pub backend_kind: BackendKind,
    /// Backend session parameters. `backend.threads` is also the
    /// pipeline's worker count.
    pub backend: BackendOptions,
    pub supervisor: SupervisorConfig,
    pub sched: SchedConfig,
    /// Shard residency budget for a sharded manifest (DESIGN.md §15).
    pub mem_budget: Option<usize>,
}

impl SessionConfig {
    /// Defaults around `map`: the CPU backend on every available core, no
    /// fault plan, default supervisor and scheduler, no memory budget.
    pub fn new(map: MapOpts) -> Self {
        let mut backend = BackendOptions::new(map.scoring);
        backend.engine = map.engine;
        backend.threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SessionConfig {
            map,
            backend_kind: BackendKind::Cpu,
            backend,
            supervisor: SupervisorConfig::default(),
            sched: SchedConfig::default(),
            mem_budget: None,
        }
    }

    /// Parse the shared flags. Each flag wins over its environment
    /// variable: `--backend`/`MMM_BACKEND`,
    /// `--inject-backend-fault`/`MMM_FAULT_PLAN`,
    /// `--backend-retries`/`MMM_BACKEND_RETRIES`, `--sched`/`MMM_SCHED`
    /// (plus `MMM_SCHED_BATCH_CELLS`/`MMM_SCHED_BATCH_JOBS`),
    /// `--prefilter`/`MMM_PREFILTER`; `MMM_GPU_MEM` and `MMM_GPU_STREAMS`
    /// shrink the simulated device.
    pub fn from_args(args: &Args) -> Result<Self, MapError> {
        let mut cfg = SessionConfig::new(map_opts(args)?);
        cfg.backend_kind = match args.get("backend") {
            Some(v) => BackendKind::parse(v),
            None => BackendKind::from_env().unwrap_or(Ok(BackendKind::Cpu)),
        }
        .map_err(|e| MapError::Usage(e.to_string()))?;
        if let Some(n) = args.num("threads")? {
            cfg.backend.threads = n;
        }
        let env_num = |name| std::env::var(name).ok().and_then(|v| v.parse().ok());
        cfg.backend.device_mem = env_num("MMM_GPU_MEM");
        cfg.backend.streams = env_num("MMM_GPU_STREAMS").map(|n: u64| n as usize);
        cfg.backend.fault = match args.get("inject-backend-fault") {
            Some(text) => Some(FaultPlan::parse(text).map_err(MapError::Usage)?),
            None => FaultPlan::from_env().transpose().map_err(MapError::Usage)?,
        };
        cfg.supervisor = SupervisorConfig::from_env().map_err(MapError::Usage)?;
        if let Some(n) = args.num("backend-retries")? {
            cfg.supervisor.max_retries = n;
        }
        if let Some(ms) = args.num("batch-deadline-ms")? {
            cfg.supervisor.batch_deadline = Some(std::time::Duration::from_millis(ms));
        }
        cfg.sched = SchedConfig::from_env().map_err(MapError::Usage)?;
        if let Some(v) = args.get("sched") {
            cfg.sched.mode = SchedMode::parse(v).map_err(MapError::Usage)?;
        }
        cfg.mem_budget = args
            .get("mem-budget")
            .map(|v| parse_byte_size("--mem-budget", v).map_err(MapError::Usage))
            .transpose()?;
        Ok(cfg)
    }
}

/// Read and validate a FASTA/FASTQ reference file.
pub fn read_refs(path: &str) -> Result<Vec<SeqRecord>, MapError> {
    let f = File::open(path).map_err(|e| MapError::Io {
        path: path.to_string(),
        source: e,
    })?;
    let refs = FastxReader::new(BufReader::new(f))
        .read_all()
        .map_err(|e| MapError::Seq {
            path: path.to_string(),
            source: e,
        })?;
    if refs.is_empty() {
        return Err(MapError::Usage(format!("{path}: no sequences")));
    }
    Ok(refs)
}

/// Open a reference for mapping, whatever its shape: a `.mmx` is a flat
/// index image or a v3 shard manifest (opened lazily under the config's
/// memory budget, with the fault plan's shard rules bridged into the shard
/// loader); anything else is FASTA, indexed in memory. `no_mmap` reads a
/// flat image instead of mapping it; a manifest is always mmap-backed.
/// Progress notes go to `log`.
pub fn open_index(
    path: &str,
    cfg: &SessionConfig,
    no_mmap: bool,
    log: &dyn Fn(String),
) -> Result<AnyIndex, MapError> {
    let index_err = |source| MapError::Index {
        path: path.to_string(),
        source,
    };
    if !path.ends_with(".mmx") {
        let refs = read_refs(path)?;
        log(format!("indexing {} reference sequence(s)...", refs.len()));
        return MinimizerIndex::build_with_format(&refs, &cfg.map.idx, cfg.map.index_format)
            .map(AnyIndex::Flat)
            .map_err(index_err);
    }
    if no_mmap {
        match load_index(Path::new(path)) {
            Ok((idx, stats)) => {
                log(format!(
                    "loaded index: {:.3}s, {} read call(s)",
                    stats.seconds, stats.read_calls
                ));
                return Ok(AnyIndex::Flat(idx));
            }
            Err(IndexError::ShardedManifest { .. }) => {} // open it below
            Err(e) => return Err(index_err(e)),
        }
    }
    let shard_opts = ShardOpenOpts {
        mem_budget: cfg.mem_budget,
        hook: cfg
            .backend
            .fault
            .as_ref()
            .and_then(PlanShardFaults::from_plan),
    };
    let index = AnyIndex::open_mmap(Path::new(path), shard_opts).map_err(index_err)?;
    if let AnyIndex::Sharded(s) = &index {
        log(format!(
            "opened shard manifest: {} shard(s) over {} sequence(s)",
            s.num_shards(),
            s.num_seqs()
        ));
    }
    Ok(index)
}

/// One immutable index generation: the index, its target tables, and one
/// supervised backend session per index shard, so each shard's compute
/// fault domain is independent, mirroring the index-side quarantine. Every
/// read carries an `Arc` to the generation it was planned against through
/// dispatch and finalize, so a swap ([`MapSession::install`]) moves new
/// reads onto the new generation while in-flight reads finish — byte-exact
/// — against the old one.
pub struct Generation {
    pub id: u64,
    pub index: AnyIndex,
    pub tnames: Vec<String>,
    pub tlens: Vec<usize>,
    pub sessions: ShardSessions,
}

impl Generation {
    /// Wrap an opened index. Session 0 is created eagerly, so a bad backend
    /// choice fails here, before any mapping starts.
    pub fn new(id: u64, index: AnyIndex, cfg: &SessionConfig) -> Result<Generation, MapError> {
        let iref = index.as_index_ref();
        let tnames = (0..iref.num_seqs())
            .map(|r| iref.seq_name(r as u32).to_string())
            .collect();
        let tlens = (0..iref.num_seqs())
            .map(|r| iref.seq_len(r as u32))
            .collect();
        let (kind, bopts, sup) = (
            cfg.backend_kind,
            cfg.backend.clone(),
            cfg.supervisor.clone(),
        );
        let factory: SessionFactory =
            Box::new(move |_shard| prepare_supervised(kind, &bopts, sup.clone()));
        let sessions = ShardSessions::new(iref.num_shards(), factory)
            .map_err(|e| MapError::Usage(e.to_string()))?;
        Ok(Generation {
            id,
            index,
            tnames,
            tlens,
            sessions,
        })
    }

    /// `generation N: S sequence(s), K shard(s)`.
    pub fn describe(&self) -> String {
        let iref = self.index.as_index_ref();
        format!(
            "generation {}: {} sequence(s), {} shard(s)",
            self.id,
            iref.num_seqs(),
            iref.num_shards()
        )
    }
}

/// Why a read degraded to an unmapped record instead of mapping. Every kind
/// is per-read: the run goes on, and the read is counted by kind.
#[derive(Clone, Debug)]
pub enum Degradation {
    /// The read exceeds [`MapOpts::max_read_len`].
    TooLong { len: usize, max: usize },
    /// The configured scoring cannot run on the 8-bit kernels.
    AlignRejected(AlignError),
    /// A quarantined index shard left the read without seeds.
    ShardUnavailable(ShardUnavailable),
    /// The backend quarantined one of the read's jobs; the first job's
    /// reason.
    BackendQuarantined(String),
    /// A worker panicked on the read; the panic message.
    WorkerPanic(String),
}

impl From<MapReadError> for Degradation {
    fn from(e: MapReadError) -> Self {
        match e {
            MapReadError::ReadTooLong { len, max } => Degradation::TooLong { len, max },
            MapReadError::Align(e) => Degradation::AlignRejected(e),
            MapReadError::ShardUnavailable(e) => Degradation::ShardUnavailable(e),
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::TooLong { len, max } => {
                write!(f, "read length {len} exceeds the {max} bp limit")
            }
            Degradation::AlignRejected(e) => write!(f, "alignment rejected: {e}"),
            Degradation::ShardUnavailable(e) => write!(f, "index shard unavailable: {e}"),
            Degradation::BackendQuarantined(reason) => {
                write!(f, "backend quarantined its jobs ({reason})")
            }
            Degradation::WorkerPanic(msg) => write!(f, "worker panicked ({msg})"),
        }
    }
}

/// One read as the session hands it back.
pub struct Settled {
    /// The read's records, each newline-terminated: its mappings, or the
    /// unmapped placeholder when it degraded.
    pub text: String,
    /// Why the read degraded, if it did.
    pub degraded: Option<Degradation>,
    /// Candidate chains the pre-alignment filter rejected for this read.
    pub prefilter_rejected: usize,
}

/// Per-kind degradation counts (and prefilter rejections) over a set of
/// settled reads: a whole `manymap map` run, or one `mmm-serve` tenant.
#[derive(Default)]
pub struct Ledger {
    too_long: AtomicU64,
    align_rejected: AtomicU64,
    shard_unavailable: AtomicU64,
    backend_quarantined: AtomicU64,
    worker_panics: AtomicU64,
    prefilter_rejected: AtomicU64,
}

impl Ledger {
    /// Count one settled read.
    pub fn record(&self, read: &Settled) {
        if read.prefilter_rejected > 0 {
            self.prefilter_rejected
                .fetch_add(read.prefilter_rejected as u64, Ordering::Relaxed);
        }
        if let Some(why) = &read.degraded {
            let counter = match why {
                Degradation::TooLong { .. } => &self.too_long,
                Degradation::AlignRejected(_) => &self.align_rejected,
                Degradation::ShardUnavailable(_) => &self.shard_unavailable,
                Degradation::BackendQuarantined(_) => &self.backend_quarantined,
                Degradation::WorkerPanic(_) => &self.worker_panics,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads degraded because the backend quarantined their jobs.
    pub fn quarantined(&self) -> u64 {
        self.backend_quarantined.load(Ordering::Relaxed)
    }

    /// Reads degraded for any other reason.
    pub fn degraded(&self) -> u64 {
        [
            &self.too_long,
            &self.align_rejected,
            &self.shard_unavailable,
            &self.worker_panics,
        ]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
    }

    /// Candidate chains the pre-alignment filter rejected.
    pub fn prefilter_rejected(&self) -> u64 {
        self.prefilter_rejected.load(Ordering::Relaxed)
    }

    /// The `N read(s) degraded to unmapped: …` report line, split by kind;
    /// `None` when nothing degraded.
    pub fn degraded_line(&self) -> Option<String> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let total = self.quarantined() + self.degraded();
        (total > 0).then(|| {
            format!(
                "{total} read(s) degraded to unmapped: {} over the length limit, \
                 {} alignment-rejected, {} worker panic(s), {} backend-quarantined, \
                 {} on quarantined shard(s)",
                load(&self.too_long),
                load(&self.align_rejected),
                load(&self.worker_panics),
                load(&self.backend_quarantined),
                load(&self.shard_unavailable),
            )
        })
    }
}

/// Output record format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Paf,
    Sam,
}

/// A pipeline item carrying one read: a bare record (`manymap map`) or a
/// tenant-tagged one (`mmm-serve`).
pub trait SessionRead: Send + Sync {
    fn record(&self) -> &SeqRecord;
}

impl SessionRead for SeqRecord {
    fn record(&self) -> &SeqRecord {
        self
    }
}

/// One read between plan and finalize: its encoded sequence, the
/// generation it was planned against (finalize must splice reference
/// windows and target names from the *same* index the plan used), and the
/// plan — or why planning rejected the read.
struct Planned {
    nt4: Vec<u8>,
    gen: Arc<Generation>,
    plan: Result<ReadPlan, Degradation>,
}

/// A read's dispatch outcome: one result per planned job, in job order, or
/// the quarantine that degraded it.
type Dispatched = Result<Vec<AlignResult>, Degradation>;

/// The map session: a config, the current generation, and the backend
/// counters merged across every dispatch.
pub struct MapSession {
    cfg: SessionConfig,
    format: Format,
    current: Mutex<Arc<Generation>>,
    backend_stats: Mutex<BackendStats>,
    backend_label: &'static str,
}

impl MapSession {
    pub fn new(cfg: SessionConfig, gen: Generation, format: Format) -> Result<Self, MapError> {
        let backend_label = gen
            .sessions
            .primary()
            .map_err(|e| MapError::Usage(e.to_string()))?
            .label();
        Ok(MapSession {
            cfg,
            format,
            current: Mutex::new(Arc::new(gen)),
            backend_stats: Mutex::new(BackendStats::default()),
            backend_label,
        })
    }

    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The generation new reads plan against.
    pub fn generation(&self) -> Arc<Generation> {
        lock_unpoisoned(&self.current).clone()
    }

    /// Swap in a new generation for reads planned from now on; reads
    /// already planned finish against the generation they hold.
    pub fn install(&self, gen: Generation) {
        *lock_unpoisoned(&self.current) = Arc::new(gen);
    }

    /// Append the per-backend execution summary to `report`.
    pub fn backend_block(&self, report: &mut StatsReport) {
        report.backend_block(&lock_unpoisoned(&self.backend_stats), self.backend_label);
    }

    /// Map every read `read_batch` yields: plan (seed, chain, describe DP
    /// jobs) and finalize (splice results, extend, format) on the worker
    /// pool, dispatch once per batch. `before_plan` runs on the worker just
    /// before a read is planned — a panic there degrades that read before
    /// any of its jobs reach a backend. Each read, mapped or degraded, goes
    /// through `settle` exactly once, and `write_batch` receives the
    /// results in input order. Only a reader, writer or whole-batch
    /// dispatch failure (`--fail-fast`) is fatal.
    pub fn run<I, R>(
        &self,
        read_batch: impl FnMut() -> Result<Option<Vec<I>>, DynError> + Send,
        before_plan: impl Fn(&I) + Sync,
        settle: impl Fn(&I, Settled) -> R + Sync,
        write_batch: impl FnMut(Vec<R>) -> Result<(), DynError> + Send,
    ) -> Result<PipelineStats, PipelineError>
    where
        I: SessionRead,
        R: Send,
    {
        let on_panic = |item: &I, msg: &str| {
            let why = Degradation::WorkerPanic(msg.to_string());
            settle(item, self.unmapped(item.record(), why))
        };
        run_pipeline(
            read_batch,
            |_worker| AlignScratch::new(),
            |_scratch: &mut AlignScratch, item: &I| {
                before_plan(item);
                self.plan(item.record())
            },
            |plans: &mut [Planned]| self.dispatch(plans),
            |scratch: &mut AlignScratch, item: &I, planned: &Planned, done: &Dispatched| {
                settle(item, self.finalize(scratch, item.record(), planned, done))
            },
            |item: &I| item.record().len(),
            write_batch,
            &on_panic,
            self.cfg.backend.threads,
        )
    }

    fn plan(&self, rec: &SeqRecord) -> Planned {
        let gen = self.generation();
        let nt4 = rec.nt4();
        let plan = Mapper::new(gen.index.as_index_ref(), self.cfg.map)
            .plan_read(&nt4)
            .map_err(Degradation::from);
        Planned { nt4, gen, plan }
    }

    /// Flatten the batch's jobs into one submission per generation (a swap
    /// can land mid-batch, and each job must run through the shard sessions
    /// of the generation whose reference windows it carries), route each
    /// shard's jobs through that shard's session, then deal the outcomes
    /// back out per read, in job order. A read with any quarantined job
    /// degrades; a `--fail-fast` run surfaces the first unrecovered error
    /// as a fatal dispatch error.
    fn dispatch(&self, plans: &mut [Planned]) -> Result<Vec<Dispatched>, DynError> {
        struct Group {
            gen: Arc<Generation>,
            jobs: Vec<AlignJob>,
            shards: Vec<u32>,
        }
        let mut groups: Vec<Group> = Vec::new();
        // Per plan: which group its jobs went to, and how many.
        let mut counts: Vec<(usize, usize)> = Vec::with_capacity(plans.len());
        for p in plans.iter_mut() {
            let plan = match p.plan.as_mut() {
                Ok(plan) if !plan.jobs.is_empty() => plan,
                _ => {
                    counts.push((0, 0));
                    continue;
                }
            };
            let gi = match groups.iter().position(|g| Arc::ptr_eq(&g.gen, &p.gen)) {
                Some(gi) => gi,
                None => {
                    groups.push(Group {
                        gen: p.gen.clone(),
                        jobs: Vec::new(),
                        shards: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            counts.push((gi, plan.jobs.len()));
            groups[gi].jobs.append(&mut plan.jobs);
            groups[gi].shards.append(&mut plan.job_shards);
        }
        let mut outcomes: Vec<std::vec::IntoIter<JobOutcome>> = Vec::with_capacity(groups.len());
        for g in groups {
            let (os, bstats) = g
                .gen
                .sessions
                .submit_sharded(g.jobs, &g.shards, &self.cfg.sched)
                .map_err(|e| -> DynError { Box::new(e) })?;
            lock_unpoisoned(&self.backend_stats).merge(&bstats);
            outcomes.push(os.into_iter());
        }
        Ok(counts
            .into_iter()
            .map(|(gi, n)| {
                let mut results = Vec::with_capacity(n);
                let mut quarantine = None;
                if n > 0 {
                    for o in outcomes[gi].by_ref().take(n) {
                        match o {
                            JobOutcome::Done(r) => results.push(r),
                            JobOutcome::Quarantined { reason } => {
                                quarantine.get_or_insert(reason);
                            }
                        }
                    }
                }
                match quarantine {
                    None => Ok(results),
                    Some(reason) => Err(Degradation::BackendQuarantined(reason)),
                }
            })
            .collect())
    }

    /// Splice the backend results into the chain walks and format.
    fn finalize(
        &self,
        scratch: &mut AlignScratch,
        rec: &SeqRecord,
        planned: &Planned,
        done: &Dispatched,
    ) -> Settled {
        let (plan, results) = match (&planned.plan, done) {
            (Ok(plan), Ok(results)) => (plan, results),
            (Err(why), _) | (_, Err(why)) => return self.unmapped(rec, why.clone()),
        };
        let (gen, nt4) = (&planned.gen, &planned.nt4);
        let ms = Mapper::new(gen.index.as_index_ref(), self.cfg.map)
            .finalize_read_with_scratch(nt4, plan, results, scratch);
        let mut text = String::new();
        for m in &ms {
            let rid = m.rid as usize;
            text.push_str(&match self.format {
                Format::Paf => paf_line(&rec.name, nt4.len(), &gen.tnames[rid], gen.tlens[rid], m),
                Format::Sam => sam_line(&rec.name, nt4, &gen.tnames, m),
            });
            text.push('\n');
        }
        Settled {
            text,
            degraded: None,
            prefilter_rejected: plan.chained().prefilter_rejected(),
        }
    }

    /// The unmapped placeholder for a degraded read, so output still
    /// accounts for every input read.
    fn unmapped(&self, rec: &SeqRecord, why: Degradation) -> Settled {
        let mut text = match self.format {
            Format::Paf => paf_unmapped(&rec.name, rec.len()),
            Format::Sam => sam_unmapped(&rec.name, &rec.nt4()),
        };
        text.push('\n');
        Settled {
            text,
            degraded: Some(why),
            prefilter_rejected: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_index::build_sharded;
    use mmm_seq::nt4_decode;
    use mmm_simreads::{generate_chromosomes, simulate_reads, GenomeOpts, Platform, SimOpts};

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from), &["socket"])
    }

    #[test]
    fn args_split_valued_flags_switches_and_positionals() {
        let a = args("map ref.mmx reads.fq --threads 3 --sam --socket s --no-cigar");
        assert_eq!(a.positional, ["map", "ref.mmx", "reads.fq"]);
        assert_eq!(a.get("threads"), Some("3"));
        assert_eq!(a.get("socket"), Some("s"));
        assert!(a.has("sam") && a.has("no-cigar") && !a.has("preset"));
        assert_eq!(a.num::<usize>("threads").unwrap(), Some(3));
        assert_eq!(a.num::<usize>("max-read-len").unwrap(), None);
    }

    #[test]
    fn malformed_numbers_are_usage_errors() {
        for flag in [
            "threads",
            "max-read-len",
            "backend-retries",
            "batch-deadline-ms",
        ] {
            let e = match SessionConfig::from_args(&args(&format!("map --{flag} abc"))) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("--{flag} abc was accepted"),
            };
            assert_eq!(e, format!("--{flag} \"abc\": not a number"));
        }
    }

    #[test]
    fn config_applies_shared_flags() {
        let cfg = SessionConfig::from_args(&args(
            "map --preset map-pb --threads 3 --max-read-len 900 --backend gpu-sim \
             --backend-retries 4 --batch-deadline-ms 25 --mem-budget 64K --no-cigar",
        ))
        .unwrap();
        assert_eq!(cfg.map.idx.k, 19);
        assert!(!cfg.map.with_cigar);
        assert_eq!(cfg.map.max_read_len, 900);
        assert_eq!(cfg.backend.threads, 3);
        assert_eq!(cfg.backend_kind, BackendKind::GpuSim);
        assert_eq!(cfg.supervisor.max_retries, 4);
        assert_eq!(
            cfg.supervisor.batch_deadline,
            Some(std::time::Duration::from_millis(25))
        );
        assert_eq!(cfg.mem_budget, Some(64 << 10));
    }

    /// A two-chromosome reference behind a 2-shard manifest (one chromosome
    /// per shard) in a scratch directory, plus noisy reads per chromosome.
    struct Fixture {
        dir: std::path::PathBuf,
        manifest: String,
        reads: [Vec<SeqRecord>; 2],
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn fixture() -> Fixture {
        let dir = std::env::temp_dir().join(format!("manymap-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chroms = generate_chromosomes(
            &GenomeOpts {
                len: 120_000,
                repeat_frac: 0.0,
                seed: 29,
                ..Default::default()
            },
            2,
        );
        let refs: Vec<SeqRecord> = chroms
            .iter()
            .enumerate()
            .map(|(i, g)| SeqRecord::new(format!("chr{i}"), nt4_decode(g)))
            .collect();
        let manifest = dir.join("ref.mmx");
        let opts = MapOpts::map_ont();
        build_sharded(&refs, &opts.idx, opts.index_format, 2, &manifest).unwrap();
        let reads = [0, 1].map(|c| {
            simulate_reads(
                &chroms[c],
                &SimOpts {
                    platform: Platform::Nanopore,
                    num_reads: 3,
                    seed: 5 + c as u64,
                },
            )
            .into_iter()
            .map(|r| SeqRecord::new(format!("chr{c}_{}", r.name), nt4_decode(&r.seq)))
            .collect()
        });
        Fixture {
            dir,
            manifest: manifest.display().to_string(),
            reads,
        }
    }

    /// Run `reads` through a fresh session over the fixture, recording
    /// every settled read in `ledger`; panics on the read named `victim`.
    fn run_session(
        fx: &Fixture,
        cfg: SessionConfig,
        reads: Vec<SeqRecord>,
        victim: &str,
        ledger: &Ledger,
    ) -> Vec<(String, Option<Degradation>)> {
        let index = open_index(&fx.manifest, &cfg, false, &|_| {}).unwrap();
        let gen = Generation::new(0, index, &cfg).unwrap();
        let session = MapSession::new(cfg, gen, Format::Paf).unwrap();
        let mut input = Some(reads);
        let out = Mutex::new(Vec::new());
        session
            .run(
                || Ok(input.take()),
                |rec: &SeqRecord| {
                    if rec.name == victim {
                        panic!("injected panic");
                    }
                },
                |rec: &SeqRecord, read: Settled| {
                    ledger.record(&read);
                    if read.degraded.is_some() {
                        assert_eq!(
                            read.text,
                            format!("{}\n", paf_unmapped(&rec.name, rec.len()))
                        );
                    }
                    (read.text, read.degraded)
                },
                |batch| {
                    out.lock().unwrap().extend(batch);
                    Ok(())
                },
            )
            .unwrap();
        out.into_inner().unwrap()
    }

    /// One read per degradation kind goes through the session; the ledger
    /// renders the CLI's summary line and serve's quarantined/degraded
    /// split from the typed outcomes.
    #[test]
    fn every_degradation_kind_is_counted_once() {
        let fx = fixture();
        let ledger = Ledger::default();
        let base = || {
            let mut cfg = SessionConfig::new(MapOpts::map_ont());
            cfg.backend.threads = 2;
            cfg
        };
        let [chr0, chr1] = &fx.reads;

        // Too long, on a quarantined shard, worker panic — and one clean
        // read that still maps.
        let mut cfg = base();
        cfg.backend.fault = Some(FaultPlan::parse("missing-shard:shards=1").unwrap());
        cfg.map.max_read_len = 100_000;
        let long = SeqRecord::new("long", b"ACGT".repeat(25_001));
        let reads = vec![chr0[0].clone(), long, chr1[0].clone(), chr0[1].clone()];
        let out = run_session(&fx, cfg, reads, &chr0[1].name, &ledger);
        assert!(
            out[0].1.is_none() && out[0].0.contains("\tchr0\t"),
            "{:?}",
            out[0]
        );
        assert!(matches!(
            out[1].1,
            Some(Degradation::TooLong {
                len: 100_004,
                max: 100_000
            })
        ));
        assert!(matches!(out[2].1, Some(Degradation::ShardUnavailable(_))));
        assert!(matches!(&out[3].1, Some(Degradation::WorkerPanic(m)) if m == "injected panic"));

        // Every backend submit fails: the read's jobs quarantine.
        let mut cfg = base();
        cfg.backend.fault = Some(FaultPlan::parse("launch-fail").unwrap());
        cfg.supervisor.max_retries = 0;
        let out = run_session(&fx, cfg, vec![chr0[2].clone()], "", &ledger);
        assert!(matches!(out[0].1, Some(Degradation::BackendQuarantined(_))));

        // Mapping scoring the 8-bit kernels cannot hold (the backend keeps
        // its own valid scoring): planning rejects the read.
        let mut cfg = base();
        cfg.map.scoring.a = 127;
        let out = run_session(&fx, cfg, vec![chr0[2].clone()], "", &ledger);
        assert!(matches!(out[0].1, Some(Degradation::AlignRejected(_))));

        assert_eq!(
            ledger.degraded_line().unwrap(),
            "5 read(s) degraded to unmapped: 1 over the length limit, 1 alignment-rejected, \
             1 worker panic(s), 1 backend-quarantined, 1 on quarantined shard(s)"
        );
        assert_eq!((ledger.quarantined(), ledger.degraded()), (1, 4));
        assert_eq!(Ledger::default().degraded_line(), None);
    }
}
