//! `mmm-pipeline` — manymap's multi-threaded batch pipeline (§4.4.4).
//!
//! minimap2 overlaps I/O with computation through a 2-thread pipeline: two
//! pipeline threads alternate batches, each performing load → multi-thread
//! align → output, so one batch's computation hides the other's I/O.
//! manymap adds a dedicated I/O thread so input and output *also* overlap
//! each other, and sorts each batch by read length so long reads start
//! first (better load balance). The 2-vs-3-thread comparison is modelled
//! in `mmm-knl`'s discrete-event simulator; this crate runs only manymap's
//! design.
//!
//! [`run_pipeline`] is that design, generic over any item/result types,
//! using bounded std channels and a persistent worker pool
//! ([`pool::WorkerPool`]): compute threads are spawned once per run, each
//! owning a private per-worker state built by a caller-supplied factory
//! (the mapper passes an alignment scratch arena). Its compute stage is
//! split into plan → dispatch → finalize so a backend executes each
//! batch's alignment work in one submission. Output order is always the
//! input order, regardless of scheduling (tested).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod fault;
pub mod pipeline;
pub mod pool;
pub mod queue;
pub mod sort;
pub mod sync;

pub use error::{DynError, PipelineError};
pub use fault::{failing_every, panicking_map};
pub use pipeline::{run_pipeline, PanicHandler, PipelineStats};
pub use pool::{par_map_indexed, with_worker_pool, BatchOutcome, ItemPanic, WorkerPool};
pub use queue::{BoundedQueue, PopError, PushError};
pub use sort::sort_indices_by_len_desc;
pub use sync::{lock_unpoisoned, wait_unpoisoned};
