//! The deterministic parallel sweep engine.
//!
//! Design-space exploration sweeps (Figure 5's iteration × P grid,
//! Figure 7's N × NB grid) and fault-campaign trials evaluate many
//! independent points, each on its own co-simulator. [`parallel_map`]
//! spreads those points over scoped worker threads and returns results
//! **in input order**, so any text or table rendered from them is
//! byte-identical to a serial evaluation — the property the committed
//! `tables_output.txt` record and its CI gate rely on. No work items
//! are shared between threads; determinism follows from each point
//! being a pure function of its input plus the merge order being the
//! input order, independent of thread scheduling.
//!
//! Panics are isolated per item: a point whose evaluation panics does
//! not tear down its worker or discard the rest of the plan.
//! [`parallel_try_map`] surfaces each panic as a typed `Err` alongside
//! every other item's result; [`parallel_map`] finishes the whole sweep
//! first and only then re-raises the first panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Best-effort string rendering of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates `f` over `items` on up to `workers` scoped threads and
/// returns the results in input order.
///
/// Items are dealt to workers in contiguous chunks; each worker writes
/// its results straight into the matching output slots, so the merge is
/// position-preserving by construction. `workers` is clamped to
/// `1..=items.len()`; with one worker (or one item) this degenerates to
/// a plain serial map on the calling thread.
///
/// # Panics
/// If `f` panics on any item, every *other* item still completes (each
/// evaluation is isolated with `catch_unwind`), and the first panic is
/// re-raised on the calling thread once the sweep has drained — not
/// mid-plan, and never as a worker-thread abort that silently drops the
/// remaining slice. Callers that want the surviving results instead use
/// [`parallel_try_map`].
pub fn parallel_map<T, R>(items: Vec<T>, workers: usize, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let results = parallel_try_map(items, workers, f);
    let mut out = Vec::with_capacity(results.len());
    let mut first_panic = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(msg) => {
                first_panic.get_or_insert(msg);
            }
        }
    }
    if let Some(msg) = first_panic {
        panic!("sweep item panicked: {msg}");
    }
    out
}

/// [`parallel_map`] with per-item panic isolation surfaced to the
/// caller: each result is `Ok(f(item))`, or `Err(panic_message)` when
/// evaluating that item panicked. All items are always evaluated, in
/// input order, whatever any of them does.
pub fn parallel_try_map<T, R>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
{
    let guarded = |item: T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return items.into_iter().map(guarded).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<Result<R, String>>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut items = items;
    std::thread::scope(|scope| {
        let guarded = &guarded;
        let mut slots = out.as_mut_slice();
        while !slots.is_empty() {
            let take = chunk.min(slots.len());
            let (slot_chunk, slot_rest) = slots.split_at_mut(take);
            slots = slot_rest;
            let chunk_items: Vec<T> = items.drain(..take).collect();
            scope.spawn(move || {
                for (slot, item) in slot_chunk.iter_mut().zip(chunk_items) {
                    *slot = Some(guarded(item));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

/// The environment variable overriding the sweep worker count.
pub const SWEEP_WORKERS_ENV: &str = "SOFTSIM_SWEEP_WORKERS";

/// A malformed [`SWEEP_WORKERS_ENV`] value. An unparseable worker
/// count used to fall back silently to the machine default — which
/// turned a CI typo into a wrong-but-green byte-diff. Now it is a
/// typed configuration error surfaced before any work runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkersEnvError {
    /// The rejected value, verbatim.
    pub value: String,
}

impl std::fmt::Display for WorkersEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {SWEEP_WORKERS_ENV}={:?}: expected a positive integer \
             (unset the variable for the machine default)",
            self.value
        )
    }
}

impl std::error::Error for WorkersEnvError {}

/// Reads [`SWEEP_WORKERS_ENV`]: `Ok(None)` when unset, `Ok(Some(n))`
/// for a positive integer, and a typed error for anything else
/// (including `0`).
pub fn sweep_workers_from_env() -> Result<Option<usize>, WorkersEnvError> {
    match std::env::var(SWEEP_WORKERS_ENV) {
        Err(_) => Ok(None),
        Ok(value) => parse_workers(&value).map(Some),
    }
}

/// Parses one [`SWEEP_WORKERS_ENV`] value: a positive integer, with
/// surrounding whitespace tolerated.
pub fn parse_workers(value: &str) -> Result<usize, WorkersEnvError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(WorkersEnvError { value: value.to_string() }),
    }
}

/// Worker-thread count for the parallel runners: the machine's
/// available parallelism, capped so small CI runners are not
/// oversubscribed. The `SOFTSIM_SWEEP_WORKERS` environment variable
/// overrides it (CI sets it to 1 to produce the serial record it diffs
/// the parallel one against).
///
/// # Panics
/// Panics on a malformed override; entry points that want an orderly
/// exit validate [`sweep_workers_from_env`] eagerly instead.
pub fn default_workers() -> usize {
    match sweep_workers_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
        Err(e) => panic!("configuration error: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_env_parsing_is_strict() {
        assert_eq!(parse_workers(" 3 "), Ok(3));
        assert_eq!(parse_workers("1"), Ok(1));
        for bad in ["0", "banana", "-2", "2.5", ""] {
            let err = parse_workers(bad).expect_err(bad);
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains(SWEEP_WORKERS_ENV), "{msg}");
            assert!(msg.contains("positive integer"), "{msg}");
        }
    }

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 5, 64] {
            let squares = parallel_map(items.clone(), workers, |x| x * x);
            assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_sweeps_work() {
        assert_eq!(parallel_map(Vec::<u32>::new(), 8, |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![9], 8, |x| x + 1), vec![10]);
    }

    #[test]
    fn mid_plan_panic_still_yields_every_other_item() {
        let items: Vec<u64> = (0..23).collect();
        for workers in [1, 3, 8] {
            let results = parallel_try_map(items.clone(), workers, |x| {
                assert!(x != 11, "poison item");
                x * 2
            });
            assert_eq!(results.len(), items.len(), "no item was dropped");
            for (i, r) in results.iter().enumerate() {
                if i == 11 {
                    let msg = r.as_ref().expect_err("poison item surfaces its panic");
                    assert!(msg.contains("poison item"), "panic message preserved: {msg}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2));
                }
            }
        }
    }

    #[test]
    fn parallel_map_reraises_after_draining() {
        let evaluated = std::sync::atomic::AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..16u32).collect(), 4, |x| {
                evaluated.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert!(x != 3, "boom");
                x
            })
        }));
        assert!(result.is_err(), "the panic still propagates");
        assert_eq!(
            evaluated.load(std::sync::atomic::Ordering::SeqCst),
            16,
            "every item was evaluated before the re-raise"
        );
    }
}
