//! manymap's 3-thread pipeline (§4.4.4), batched: a reader thread, the
//! compute stage, and a writer thread, connected by bounded channels so
//! input and output overlap computation *and* each other.
//!
//! The compute stage runs each batch through three phases, so the whole
//! batch's base-level alignment can be executed by a *backend* (CPU SIMD
//! lanes, the simulated GPU) in one submission:
//!
//! 1. **plan** — per item, on the worker pool, longest item first (long
//!    reads carry the most alignment work, so they anchor the schedule):
//!    seed, chain, and describe the DP problems the item needs (returns
//!    `M`, e.g. a set of `AlignJob`s plus everything needed to resume);
//! 2. **dispatch** — once per batch, on the compute thread: ship every
//!    item's jobs to the backend and return one `D` per plan, in plan
//!    order. The dispatch closure may interpose the length-binned scheduler
//!    (`mmm_exec::sched`) — any reordering inside it is invisible here.
//!    Per-item outcomes (a quarantined job, say) are the caller's to type
//!    inside `D`; a whole-batch `Err` is fatal ([`PipelineError::Dispatch`])
//!    — the `--fail-fast` escape hatch and the contract-violation path
//!    (wrong result count);
//! 3. **finalize** — per item, on the worker pool again: splice the
//!    backend's results into the item's output (returns `R`).
//!
//! Both per-item phases run on the *same* persistent pool (one worker-state
//! build per run, zero per-batch spawns). A panic in `plan` or `finalize`
//! degrades that one item through the [`PanicHandler`]; items that panic
//! in `plan` are excluded from dispatch.
//!
//! Output is always in input order regardless of scheduling. On a reader,
//! writer or dispatch error the pipeline shuts down promptly — no deadlock,
//! no poisoned stats — and the first failure is the one reported.

use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::error::{DynError, PipelineError};
use crate::pool::{with_worker_pool, BatchOutcome, WorkerPool};
use crate::sort::sort_indices_by_len_desc;
use crate::sync::lock_unpoisoned;

/// Aggregate timings of a pipeline run. Stage seconds are summed across
/// batches (stages overlap, so they may exceed `wall_seconds`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub batches: usize,
    pub items: usize,
    /// Items whose worker panicked and that were degraded through the
    /// panic handler instead of producing a real result.
    pub failed_items: usize,
    pub in_seconds: f64,
    pub compute_seconds: f64,
    pub out_seconds: f64,
    pub wall_seconds: f64,
}

/// Handler invoked for an item whose worker panicked: receives the item and
/// the panic message, returns the substitute result (e.g. an "unmapped"
/// record), so a panic degrades one item instead of killing the run.
pub type PanicHandler<'a, I, R> = &'a (dyn Fn(&I, &str) -> R + Sync);

/// Internal pool item: the two per-item phases share one worker pool, so
/// the pool's item type is this enum.
enum Step<I, M, D> {
    Plan(I),
    Fin(I, M, D),
}

impl<I, M, D> Step<I, M, D> {
    fn item(&self) -> &I {
        match self {
            Step::Plan(i) | Step::Fin(i, _, _) => i,
        }
    }
}

/// Internal pool result matching [`Step`].
enum StepOut<M, R> {
    Planned(M),
    Final(R),
}

fn record_error(slot: &Mutex<Option<PipelineError>>, e: PipelineError) {
    let mut g = lock_unpoisoned(slot);
    if g.is_none() {
        *g = Some(e);
    }
}

/// Pair each step with its pool result, or with the message of the panic
/// that replaced it.
fn settle<T, U>(steps: Vec<T>, outcome: BatchOutcome<U>) -> Vec<(T, Result<U, String>)> {
    let mut msgs: Vec<Option<String>> = (0..steps.len()).map(|_| None).collect();
    for p in outcome.panics {
        msgs[p.index] = Some(p.message);
    }
    steps
        .into_iter()
        .zip(outcome.results)
        .zip(msgs)
        .map(|((step, res), msg)| {
            let res = res.ok_or_else(|| {
                msg.unwrap_or_else(|| "item abandoned by the worker pool".to_string())
            });
            (step, res)
        })
        .collect()
}

/// Run one batch through plan → dispatch → finalize. Returns results in
/// original item order plus the number of degraded items.
#[allow(clippy::type_complexity)]
fn run_batch<I, M, D, R>(
    pool: &WorkerPool<'_, Step<I, M, D>, StepOut<M, R>>,
    batch: Vec<I>,
    dispatch: &mut (dyn FnMut(&mut [M]) -> Result<Vec<D>, DynError> + Send),
    len_of: &(dyn Fn(&I) -> usize + Sync),
    on_item_panic: PanicHandler<'_, I, R>,
) -> Result<(Vec<R>, usize), PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
{
    let n = batch.len();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut failed = 0usize;

    // Phase 1: plan every item, longest first.
    let plan_steps: Vec<Step<I, M, D>> = batch.into_iter().map(Step::Plan).collect();
    let order = sort_indices_by_len_desc(&plan_steps, |s| len_of(s.item()));
    let outcome = pool.run_batch_catching(&plan_steps, &order);

    // Survivors go on to dispatch; plan-phase panics degrade now.
    let mut fin_idx: Vec<usize> = Vec::with_capacity(n);
    let mut fin_items: Vec<I> = Vec::with_capacity(n);
    let mut plans: Vec<M> = Vec::with_capacity(n);
    for (idx, (step, res)) in settle(plan_steps, outcome).into_iter().enumerate() {
        let Step::Plan(item) = step else {
            continue; // phase-1 items are always Plan
        };
        match res {
            Ok(StepOut::Planned(m)) => {
                fin_idx.push(idx);
                fin_items.push(item);
                plans.push(m);
            }
            Ok(StepOut::Final(_)) => {} // plan steps never finalize
            Err(msg) => {
                out[idx] = Some(on_item_panic(&item, &msg));
                failed += 1;
            }
        }
    }

    // Phase 2: one backend submission for the whole batch, serial on the
    // compute thread.
    let dispatched = dispatch(&mut plans).map_err(PipelineError::Dispatch)?;
    if dispatched.len() != plans.len() {
        return Err(PipelineError::Dispatch(
            format!(
                "dispatch returned {} results for {} plans",
                dispatched.len(),
                plans.len()
            )
            .into(),
        ));
    }

    // Phase 3: finalize survivors on the pool. `fin_idx[k]` is the original
    // index of finalize step `k`.
    let fin_steps: Vec<Step<I, M, D>> = fin_items
        .into_iter()
        .zip(plans)
        .zip(dispatched)
        .map(|((item, m), d)| Step::Fin(item, m, d))
        .collect();
    let fin_order: Vec<usize> = (0..fin_steps.len()).collect();
    let outcome = pool.run_batch_catching(&fin_steps, &fin_order);
    for (k, (step, res)) in settle(fin_steps, outcome).into_iter().enumerate() {
        let idx = fin_idx[k];
        match res {
            Ok(StepOut::Final(r)) => out[idx] = Some(r),
            Ok(StepOut::Planned(_)) => {} // finalize steps never plan
            Err(msg) => {
                out[idx] = Some(on_item_panic(step.item(), &msg));
                failed += 1;
            }
        }
    }

    // Every slot is filled: survivors by phase 3, failures by the handler.
    Ok((out.into_iter().flatten().collect(), failed))
}

/// The pipeline: reader thread → {plan on the pool → dispatch on the
/// compute thread → finalize on the pool} → writer thread.
///
/// See the module docs for phase semantics. Generic over:
/// * `I` — input item (a read), `M` — per-item plan, `D` — per-item
///   dispatch result, `R` — output record, `S` — per-worker state;
/// * `read_batch` returns the next batch, `Ok(None)` at end of input, or an
///   error that stops the run with [`PipelineError::Read`] (a queue-fed
///   caller passes `|| Ok(queue.pop())`, so closing the queue drains and
///   ends the run);
/// * each of the `threads` workers builds one private state with
///   `make_state(worker_idx)` when the pool starts (e.g. an alignment
///   scratch arena) and keeps it for the whole run;
/// * `plan(&mut S, &I) -> M` and `finalize(&mut S, &I, &M, &D) -> R` run on
///   the worker pool; a panic in either is handled by `on_item_panic`;
/// * `dispatch(&mut [M]) -> Result<Vec<D>, DynError>` runs serially per
///   batch and must return exactly one `D` per plan, in order. It may take
///   what it ships out of the plans (e.g. `std::mem::take` their jobs);
/// * `len_of` orders the plan phase, longest first;
/// * `write_batch` consumes results in batch order; an error stops the run
///   with [`PipelineError::Write`].
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline<I, M, D, R, S, FIn, FState, FPlan, FDispatch, FFin, FLen, FOut>(
    mut read_batch: FIn,
    make_state: FState,
    plan: FPlan,
    mut dispatch: FDispatch,
    finalize: FFin,
    len_of: FLen,
    mut write_batch: FOut,
    on_item_panic: PanicHandler<'_, I, R>,
    threads: usize,
) -> Result<PipelineStats, PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
    FIn: FnMut() -> Result<Option<Vec<I>>, DynError> + Send,
    FState: Fn(usize) -> S + Sync,
    FPlan: Fn(&mut S, &I) -> M + Sync,
    FDispatch: FnMut(&mut [M]) -> Result<Vec<D>, DynError> + Send,
    FFin: Fn(&mut S, &I, &M, &D) -> R + Sync,
    FLen: Fn(&I) -> usize + Sync,
    FOut: FnMut(Vec<R>) -> Result<(), DynError> + Send,
{
    let stats = Mutex::new(PipelineStats::default());
    let failure = Mutex::new(None::<PipelineError>);
    let wall = Instant::now();

    let step = |st: &mut S, item: &Step<I, M, D>| match item {
        Step::Plan(i) => StepOut::Planned(plan(st, i)),
        Step::Fin(i, m, d) => StepOut::Final(finalize(st, i, m, d)),
    };

    with_worker_pool(threads, make_state, step, |pool| {
        let (in_tx, in_rx) = sync_channel::<Vec<I>>(2);
        let (out_tx, out_rx) = sync_channel::<Vec<R>>(2);

        std::thread::scope(|scope| {
            let stats_ref = &stats;
            let failure_ref = &failure;
            // Reader.
            scope.spawn(move || loop {
                let t0 = Instant::now();
                let batch = read_batch();
                lock_unpoisoned(stats_ref).in_seconds += t0.elapsed().as_secs_f64();
                match batch {
                    Ok(Some(b)) => {
                        if in_tx.send(b).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break, // dropping in_tx closes the channel
                    Err(e) => {
                        record_error(failure_ref, PipelineError::Read(e));
                        break;
                    }
                }
            });

            // Writer.
            let writer = scope.spawn(move || {
                while let Ok(out) = out_rx.recv() {
                    let t0 = Instant::now();
                    let r = write_batch(out);
                    lock_unpoisoned(stats_ref).out_seconds += t0.elapsed().as_secs_f64();
                    if let Err(e) = r {
                        record_error(failure_ref, PipelineError::Write(e));
                        break; // dropping out_rx fails the compute send
                    }
                }
            });

            // Compute stage on this thread: plan/finalize on the pool,
            // dispatch here.
            let in_rx = in_rx; // owned here so it can be dropped early below
            while let Ok(batch) = in_rx.recv() {
                let t0 = Instant::now();
                let n = batch.len();
                let results = match run_batch(pool, batch, &mut dispatch, &len_of, on_item_panic) {
                    Ok((results, failed)) => {
                        let mut s = lock_unpoisoned(&stats);
                        s.compute_seconds += t0.elapsed().as_secs_f64();
                        s.batches += 1;
                        s.items += n;
                        s.failed_items += failed;
                        results
                    }
                    Err(fatal) => {
                        record_error(&failure, fatal);
                        break;
                    }
                };
                if out_tx.send(results).is_err() {
                    break;
                }
            }
            // Unblock the reader (its send fails once the channel is gone)
            // and close the writer's input, then surface writer panics.
            drop(in_rx);
            drop(out_tx);
            if let Err(payload) = writer.join() {
                std::panic::resume_unwind(payload);
            }
        });
    });

    if let Some(e) = lock_unpoisoned(&failure).take() {
        return Err(e);
    }
    let mut s = stats.into_inner().unwrap_or_else(PoisonError::into_inner);
    s.wall_seconds = wall.elapsed().as_secs_f64();
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BoundedQueue;

    fn feeder(
        mut data: Vec<Vec<u64>>,
    ) -> impl FnMut() -> Result<Option<Vec<u64>>, DynError> + Send {
        data.reverse();
        move || Ok(data.pop())
    }

    /// A handler that makes degraded items visible in the output.
    fn mark(item: &u64, _msg: &str) -> u64 {
        item * 1000
    }

    /// A dispatch that answers every plan with `()`.
    fn unit_dispatch(plans: &mut [u64]) -> Result<Vec<()>, DynError> {
        Ok(vec![(); plans.len()])
    }

    /// plan doubles, dispatch adds 1 to every plan, finalize multiplies the
    /// dispatched value by 10 — so every stage's contribution is visible.
    fn run_simple(input: Vec<Vec<u64>>, threads: usize) -> (Vec<u64>, PipelineStats) {
        let out = Mutex::new(Vec::new());
        let stats = run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| x * 2,
            |plans: &mut [u64]| Ok(plans.iter().map(|m| m + 1).collect()),
            |(), _item: &u64, _m: &u64, d: &u64| d * 10,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &mark,
            threads,
        )
        .unwrap();
        (out.into_inner().unwrap(), stats)
    }

    #[test]
    fn phases_compose_in_order() {
        let input = vec![vec![1u64, 2, 3], vec![4, 5]];
        let (got, stats) = run_simple(input, 3);
        // x -> plan 2x -> dispatch 2x+1 -> finalize (2x+1)*10
        assert_eq!(got, vec![30, 50, 70, 90, 110]);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 5);
        assert_eq!(stats.failed_items, 0);
    }

    #[test]
    fn sorted_compute_keeps_output_order() {
        let input = vec![vec![5u64, 1, 9, 3]];
        let out = Mutex::new(Vec::new());
        run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            unit_dispatch,
            |(), _item, m: &u64, _d: &()| *m,
            |&x| x as usize, // "length" = value: compute order differs
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &mark,
            4,
        )
        .unwrap();
        assert_eq!(out.into_inner().unwrap(), vec![5, 1, 9, 3]);
    }

    #[test]
    fn plan_panic_degrades_one_item_and_skips_its_dispatch() {
        let input = vec![vec![1u64, 7, 3]];
        let out = Mutex::new(Vec::new());
        let seen_by_dispatch = Mutex::new(Vec::new());
        let stats = run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| {
                if x == 7 {
                    panic!("bad read");
                }
                x
            },
            |plans: &mut [u64]| {
                seen_by_dispatch
                    .lock()
                    .unwrap()
                    .extend(plans.iter().copied());
                unit_dispatch(plans)
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &mark,
            2,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 7000, 3]);
        // The panicked item's plan never reached the backend.
        assert_eq!(seen_by_dispatch.into_inner().unwrap(), vec![1, 3]);
    }

    #[test]
    fn finalize_panic_degrades_one_item() {
        let input = vec![vec![1u64, 2, 3, 4]];
        let out = Mutex::new(Vec::new());
        let handler = |item: &u64, msg: &str| {
            assert!(msg.contains("bad finalize"), "handler saw {msg:?}");
            item + 900
        };
        let stats = run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            unit_dispatch,
            |(), _item, m: &u64, _d: &()| {
                if *m == 3 {
                    panic!("bad finalize");
                }
                *m
            },
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &handler,
            2,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 2, 903, 4]);
    }

    /// Dispatch may take what it ships out of each plan; finalize sees the
    /// plan as dispatch left it, paired with that plan's own result.
    #[test]
    fn dispatch_edits_plans_and_answers_each_in_order() {
        let input = vec![vec![1u64, 2, 3]];
        let out = Mutex::new(Vec::new());
        run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| vec![x; x as usize],
            |plans: &mut [Vec<u64>]| Ok(plans.iter_mut().map(std::mem::take).collect()),
            |(), _item, m: &Vec<u64>, d: &Vec<u64>| (m.len(), d.len()),
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &|_: &u64, _: &str| (usize::MAX, usize::MAX),
            2,
        )
        .unwrap();
        assert_eq!(out.into_inner().unwrap(), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn dispatch_error_is_fatal() {
        let input = vec![vec![1u64, 2], vec![3, 4]];
        let err = run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            |_plans: &mut [u64]| Err::<Vec<()>, DynError>("device on fire".into()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &mark,
            2,
        )
        .unwrap_err();
        match err {
            PipelineError::Dispatch(e) => assert!(e.to_string().contains("device on fire")),
            other => panic!("expected Dispatch, got {other}"),
        }
    }

    #[test]
    fn short_dispatch_result_is_fatal_not_silent() {
        let input = vec![vec![1u64, 2, 3]];
        let err = run_pipeline(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            |plans: &mut [u64]| Ok(vec![(); plans.len() - 1]),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &mark,
            2,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Dispatch(_)));
    }

    #[test]
    fn empty_stream_and_empty_batches() {
        let (got, stats) = run_simple(vec![], 2);
        assert!(got.is_empty());
        assert_eq!(stats.batches, 0);
        let (got, stats) = run_simple(vec![vec![], vec![8]], 2);
        assert_eq!(got, vec![170]);
        assert_eq!(stats.batches, 2);
    }

    /// Queue-fed: a live producer pushes batches while the pipeline runs;
    /// `close()` drains and terminates it. Results preserve push order.
    #[test]
    fn queue_fed_pipeline_drains_on_close() {
        let input: BoundedQueue<Vec<u64>> = BoundedQueue::new(2);
        let out = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let input = &input;
            scope.spawn(move || {
                for b in [vec![1u64, 2, 3], vec![4, 5], vec![6]] {
                    input.push(b).unwrap();
                }
                input.close();
            });
            let stats = run_pipeline(
                || Ok(input.pop()),
                |_| (),
                |(), &x: &u64| x * 2,
                |plans: &mut [u64]| Ok(plans.iter().map(|m| m + 1).collect()),
                |(), _item: &u64, _m: &u64, d: &u64| d * 10,
                |_| 1,
                |r| {
                    out.lock().unwrap().extend(r);
                    Ok(())
                },
                &mark,
                3,
            )
            .unwrap();
            assert_eq!(stats.batches, 3);
            assert_eq!(stats.items, 6);
        });
        assert_eq!(
            out.into_inner().unwrap(),
            vec![30, 50, 70, 90, 110, 130] // (2x+1)*10
        );
    }

    /// Closing an already-empty queue ends the run immediately with zero
    /// batches — the idle-daemon shutdown path.
    #[test]
    fn queue_fed_pipeline_handles_immediate_close() {
        let input: BoundedQueue<Vec<u64>> = BoundedQueue::new(1);
        input.close();
        let stats = run_pipeline(
            || Ok(input.pop()),
            |_| (),
            |(), &x: &u64| x,
            unit_dispatch,
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &mark,
            2,
        )
        .unwrap();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.items, 0);
    }

    #[test]
    fn read_error_stops_run() {
        let mut calls = 0;
        let err = run_pipeline(
            move || {
                calls += 1;
                if calls > 2 {
                    Err::<Option<Vec<u64>>, DynError>("disk gone".into())
                } else {
                    Ok(Some(vec![calls as u64]))
                }
            },
            |_| (),
            |(), &x: &u64| x,
            unit_dispatch,
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &mark,
            2,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Read(_)));
    }

    #[test]
    fn stateful_workers_keep_their_state_across_batches() {
        let input: Vec<Vec<u64>> = (0..8)
            .map(|b| (0..25).map(|i| b * 1000 + i).collect())
            .collect();
        let flat: Vec<u64> = input.iter().flatten().copied().collect();
        let out = Mutex::new(Vec::new());
        let stats = run_pipeline(
            feeder(input),
            |widx| (widx, 0u64), // per-worker scratch: (id, items served)
            |st: &mut (usize, u64), &x: &u64| {
                st.1 += 1;
                x * 2
            },
            unit_dispatch,
            |_st, _item, m: &u64, _d: &()| *m,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &mark,
            3,
        )
        .unwrap();
        assert_eq!(stats.items, 200);
        assert_eq!(
            out.into_inner().unwrap(),
            flat.iter().map(|x| x * 2).collect::<Vec<u64>>()
        );
    }
}
