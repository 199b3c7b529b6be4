//! Fault-injection suite for the batch pipeline.
//!
//! Drives every degradation path of [`run_pipeline`] with the adapters from
//! `mmm_pipeline::fault`: a reader erroring mid-run, a worker panicking
//! mid-batch (in plan or in finalize), a writer failing. The invariants: a
//! typed error comes back (never a deadlock, never a poisoned mutex), and a
//! panicking item is degraded through the handler while the run completes
//! with the failure counted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mmm_pipeline::{
    failing_every, panicking_map, run_pipeline, DynError, PanicHandler, PipelineError,
    PipelineStats,
};

/// A reader producing `n_batches` batches of `batch` consecutive u32s.
fn counting_reader(
    n_batches: usize,
    batch: usize,
) -> impl FnMut() -> Result<Option<Vec<u32>>, DynError> + Send {
    let mut produced = 0usize;
    move || {
        if produced == n_batches {
            return Ok(None);
        }
        let start = (produced * batch) as u32;
        produced += 1;
        Ok(Some((start..start + batch as u32).collect()))
    }
}

fn double(_: &mut (), x: &u32) -> u64 {
    *x as u64 * 2
}

fn never_panics(_: &u32, msg: &str) -> u64 {
    panic!("no item should degrade here: {msg}")
}

/// The pipeline with `plan` doing the work, a dispatch that answers every
/// plan, and a finalize that passes the plan through.
fn run(
    read: impl FnMut() -> Result<Option<Vec<u32>>, DynError> + Send,
    plan: impl Fn(&mut (), &u32) -> u64 + Sync,
    write: impl FnMut(Vec<u64>) -> Result<(), DynError> + Send,
    on_panic: PanicHandler<'_, u32, u64>,
    threads: usize,
) -> Result<PipelineStats, PipelineError> {
    run_pipeline(
        read,
        |_| (),
        plan,
        |plans: &mut [u64]| Ok(vec![(); plans.len()]),
        |(), _item, m: &u64, _d: &()| *m,
        |_| 1,
        write,
        on_panic,
        threads,
    )
}

#[test]
fn three_thread_reader_error_aborts_with_typed_error() {
    let written = AtomicUsize::new(0);
    let err = run(
        failing_every(counting_reader(100, 8), 3),
        double,
        |rs| {
            written.fetch_add(rs.len(), Ordering::Relaxed);
            Ok(())
        },
        &never_panics,
        4,
    )
    .unwrap_err();
    let PipelineError::Read(e) = err else {
        panic!("wrong variant: {err}");
    };
    assert!(e.to_string().contains("injected reader fault"), "{e}");
    // The two batches read before the fault may or may not have been
    // written; all that matters is the run terminated.
    assert!(written.load(Ordering::Relaxed) <= 16);
}

/// A panic in the finalize phase degrades its item through the same
/// handler as a plan-phase panic, after the item went through dispatch.
#[test]
fn three_thread_finalize_panic_degrades_through_the_handler() {
    let on_panic = |item: &u32, msg: &str| -> u64 {
        assert!(msg.contains("injected worker panic"), "{msg}");
        assert_eq!(*item, 37);
        u64::MAX
    };
    let out = Mutex::new(Vec::new());
    let finalize = panicking_map(|_: &mut (), &m: &u64| m, |&m| m == 74);
    let stats = run_pipeline(
        counting_reader(4, 16),
        |_| (),
        double,
        |plans: &mut [u64]| Ok(vec![(); plans.len()]),
        |st: &mut (), _item: &u32, m: &u64, _d: &()| finalize(st, m),
        |_| 1,
        |rs| {
            out.lock().unwrap().extend(rs);
            Ok(())
        },
        &on_panic,
        4,
    )
    .unwrap();
    assert_eq!(stats.failed_items, 1);
    let out = out.into_inner().unwrap();
    assert_eq!(out.len(), 64, "every input accounted for");
    assert_eq!(out[37], u64::MAX);
}

#[test]
fn three_thread_worker_panic_with_handler_degrades_and_counts() {
    let substituted = AtomicUsize::new(0);
    let on_panic = |item: &u32, msg: &str| -> u64 {
        substituted.fetch_add(1, Ordering::Relaxed);
        assert!(msg.contains("injected worker panic"), "{msg}");
        assert_eq!(*item, 37);
        u64::MAX
    };
    let out = Mutex::new(Vec::new());
    let stats = run(
        counting_reader(4, 16),
        panicking_map(double, |&x| x == 37),
        |rs| {
            out.lock().unwrap().extend(rs);
            Ok(())
        },
        &on_panic,
        4,
    )
    .unwrap();
    assert_eq!(stats.items, 64);
    assert_eq!(stats.failed_items, 1);
    assert_eq!(substituted.load(Ordering::Relaxed), 1);
    let out = out.lock().unwrap();
    assert_eq!(out.len(), 64, "every input accounted for");
    assert_eq!(out.iter().filter(|&&r| r == u64::MAX).count(), 1);
    let real_sum: u64 = out.iter().copied().filter(|&r| r != u64::MAX).sum();
    assert_eq!(real_sum, (0..64u64).map(|x| x * 2).sum::<u64>() - 74);
}

#[test]
fn three_thread_writer_error_aborts_with_typed_error() {
    let mut calls = 0usize;
    let err = run(
        counting_reader(100, 8),
        double,
        move |_| {
            calls += 1;
            if calls == 2 {
                return Err("disk full".into());
            }
            Ok(())
        },
        &never_panics,
        4,
    )
    .unwrap_err();
    let PipelineError::Write(e) = err else {
        panic!("wrong variant: {err}");
    };
    assert!(e.to_string().contains("disk full"), "{e}");
}

/// Stress: repeat the fault scenarios many times to flush out rare
/// interleavings (a deadlock here would hang the suite, not just fail it).
#[test]
fn fault_paths_are_stable_across_repeats() {
    for round in 0..50 {
        let every = 1 + round % 5;
        let r = run(
            failing_every(counting_reader(20, 4), every),
            double,
            |_| Ok(()),
            &never_panics,
            3,
        );
        assert!(matches!(r, Err(PipelineError::Read(_))));
    }
}
