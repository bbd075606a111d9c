//! The service benchmark (`BENCH_0010.json`, `tables --serve-json`).
//!
//! Drives the in-process [`softsim_serve::Server`] through a synthetic
//! overload burst with the pool held, so admission is deterministic:
//! the queue fills to capacity, the jobs past the degrade watermark are
//! admitted reduced-fidelity, and the overflow is shed with typed
//! rejections. The pool is then released and every admitted campaign
//! runs to completion (jobs/sec is the one machine-dependent number);
//! finally the identical burst is resubmitted and must be served
//! entirely from the memoization cache — byte-identical reports, zero
//! re-simulated trials — before anything is written. The admission
//! counts, hit rate and shed rate are machine-independent; the
//! trajectory record floors jobs/sec and the cache hit rate.

use crate::record::{obj, Gate, Record};
use softsim_serve::{
    CacheStatus, JobKind, JobSpec, JobState, QueueConfig, ServeConfig, Server, Workload,
};
use std::time::Instant;

/// Jobs in the synthetic overload burst.
pub const BURST_JOBS: usize = 12;
/// Admission queue capacity during the burst.
pub const BURST_CAPACITY: usize = 8;
/// Degrade watermark during the burst.
pub const BURST_WATERMARK: usize = 6;
/// Trials per burst campaign.
pub const BURST_TRIALS: u32 = 16;

/// The measured burst, with its deterministic admission counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Jobs submitted in the burst.
    pub burst_jobs: usize,
    /// Jobs admitted (== queue capacity).
    pub admitted: usize,
    /// Jobs shed with a typed rejection.
    pub shed: usize,
    /// Admitted jobs flagged reduced-fidelity by the watermark.
    pub degraded: usize,
    /// Completed jobs per wall-clock second (machine-dependent).
    pub jobs_per_sec: f64,
    /// Cache hits / (hits + misses) across both rounds.
    pub cache_hit_rate: f64,
    /// Shed jobs / submitted jobs in the burst.
    pub shed_rate: f64,
}

fn burst_spec(i: usize) -> JobSpec {
    JobSpec {
        kind: JobKind::Campaign,
        workload: Workload::Cordic { iterations: 8, p: 2 },
        seed: 0x5E54_0000 + i as u64,
        trials: BURST_TRIALS,
        durable: false,
        ..JobSpec::default()
    }
}

/// Runs the burst.
///
/// # Panics
/// Panics if admission deviates from the deterministic counts, if any
/// admitted job fails, or if the resubmitted round is not served
/// byte-identically from the cache — rates without equivalence are
/// meaningless here.
pub fn serve_run() -> ServeRun {
    let spool = std::env::temp_dir().join(format!("softsim-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let server = Server::start(ServeConfig {
        workers: 2,
        hold: true,
        queue: QueueConfig { capacity: BURST_CAPACITY, degrade_watermark: BURST_WATERMARK },
        spool,
        ..ServeConfig::default()
    })
    .expect("server starts");

    // Burst while the pool is held: admission is purely queue-driven.
    let mut admitted_ids = Vec::new();
    let mut shed = 0usize;
    for i in 0..BURST_JOBS {
        match server.submit(burst_spec(i)) {
            Ok(id) => admitted_ids.push((i, id)),
            Err(_) => shed += 1,
        }
    }
    assert_eq!(admitted_ids.len(), BURST_CAPACITY, "burst admits exactly the queue capacity");
    assert_eq!(shed, BURST_JOBS - BURST_CAPACITY, "the overflow is shed");

    let start = Instant::now();
    server.release();
    let mut first_reports = Vec::new();
    let mut degraded = 0usize;
    for &(i, id) in &admitted_ids {
        let r = server.wait(id, std::time::Duration::from_secs(600)).expect("job finishes");
        assert_eq!(r.state, JobState::Done, "burst job {i}: {r:?}");
        assert_eq!(r.cache, CacheStatus::Miss, "first round populates the cache");
        if r.degraded {
            degraded += 1;
        }
        first_reports.push((i, r.report));
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let jobs_per_sec = admitted_ids.len() as f64 / elapsed;
    assert_eq!(
        degraded,
        BURST_CAPACITY - BURST_WATERMARK,
        "jobs admitted past the watermark run degraded"
    );

    // Identical resubmission: everything must come from the cache,
    // byte-identical, with nothing re-simulated.
    for (i, first_report) in &first_reports {
        let r = server.run(burst_spec(*i)).expect("resubmission admitted");
        assert_eq!(r.cache, CacheStatus::Hit, "resubmitted job {i} must hit the cache");
        assert_eq!(r.executed_trials, 0, "cache hit re-simulated trials");
        assert_eq!(&r.report, first_report, "cached report diverged for job {i}");
    }
    let counters = server.telemetry().serve_counters();
    let probes = counters.cache_hits + counters.cache_misses;
    let cache_hit_rate = counters.cache_hits as f64 / probes.max(1) as f64;
    let shed_rate = shed as f64 / BURST_JOBS as f64;

    ServeRun {
        burst_jobs: BURST_JOBS,
        admitted: admitted_ids.len(),
        shed,
        degraded,
        jobs_per_sec,
        cache_hit_rate,
        shed_rate,
    }
}

/// The machine-readable `BENCH_0010` record.
pub fn serve_json() -> Record {
    let run = serve_run();
    let fields = obj! {
        "burst_jobs" => run.burst_jobs, "queue_capacity" => BURST_CAPACITY,
        "degrade_watermark" => BURST_WATERMARK, "trials_per_job" => BURST_TRIALS,
        "admitted" => run.admitted, "shed" => run.shed, "degraded" => run.degraded,
        "jobs_per_sec" => run.jobs_per_sec, "cache_hit_rate" => run.cache_hit_rate,
        "shed_rate" => run.shed_rate,
    };
    let description = "simulation service under a synthetic overload burst: admission, \
                       shedding, watermark degradation, memoization";
    Record::new("BENCH_0010", description, fields)
        .series("serve_jobs_per_sec", run.jobs_per_sec, Gate::Floor(0.8))
        .series("serve_cache_hit_rate", run.cache_hit_rate, Gate::Floor(0.8))
        .series("serve_shed_rate", run.shed_rate, Gate::Info)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_counts_and_rates_are_deterministic() {
        let run = serve_run();
        assert_eq!(run.admitted, BURST_CAPACITY);
        assert_eq!(run.shed, BURST_JOBS - BURST_CAPACITY);
        assert_eq!(run.degraded, BURST_CAPACITY - BURST_WATERMARK);
        assert!((run.cache_hit_rate - 0.5).abs() < 1e-12, "{}", run.cache_hit_rate);
        assert!((run.shed_rate - 4.0 / 12.0).abs() < 1e-12, "{}", run.shed_rate);
        assert!(run.jobs_per_sec > 0.0);
    }
}
