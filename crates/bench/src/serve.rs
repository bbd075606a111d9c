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
//! re-simulated trials — before anything is written. Each burst runs on
//! a fresh server and is one sample of [`crate::measure::sample`]; the
//! record reports the median. The admission counts (asserted on every
//! burst), hit rate and shed rate are machine-independent; the
//! trajectory record floors jobs/sec and the cache hit rate.

use crate::measure::{sample, time_run, Stats};
use crate::record::{obj, Gate, Record};
use softsim_serve::{
    CacheStatus, JobKind, JobSpec, JobState, QueueConfig, ServeConfig, Server, Workload,
};
use std::path::PathBuf;

/// Jobs in the synthetic overload burst.
pub const BURST_JOBS: usize = 12;
/// Admission queue capacity during the burst.
pub const BURST_CAPACITY: usize = 8;
/// Degrade watermark during the burst.
pub const BURST_WATERMARK: usize = 6;
/// Trials per burst campaign.
pub const BURST_TRIALS: u32 = 16;
/// Timed bursts (after one untimed warm-up burst).
const BURSTS: u32 = 5;

/// The measured bursts, with their deterministic admission counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Jobs submitted in each burst.
    pub burst_jobs: usize,
    /// Jobs admitted (== queue capacity).
    pub admitted: usize,
    /// Jobs shed with a typed rejection.
    pub shed: usize,
    /// Admitted jobs flagged reduced-fidelity by the watermark.
    pub degraded: usize,
    /// Completed jobs per wall-clock second over the median burst
    /// (machine-dependent).
    pub jobs_per_sec: f64,
    /// Wall time from release until every admitted job finished, per
    /// burst.
    pub bursts: Stats,
    /// Cache hits / (hits + misses) across both rounds of a burst.
    pub cache_hit_rate: f64,
    /// Shed jobs / submitted jobs in a burst.
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

/// One burst: a fresh server, held, with the burst submitted.
struct Burst {
    server: Server,
    /// `(burst index, job id)` of each admitted job.
    admitted: Vec<(usize, u64)>,
    /// `(burst index, report)` of each finished job.
    reports: Vec<(usize, String)>,
}

impl Burst {
    /// Starts a held server on `spool` and submits the burst: admission
    /// is purely queue-driven.
    fn submit(spool: PathBuf) -> Burst {
        let server = Server::start(ServeConfig {
            workers: 2,
            hold: true,
            queue: QueueConfig { capacity: BURST_CAPACITY, degrade_watermark: BURST_WATERMARK },
            spool,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let mut admitted = Vec::new();
        for i in 0..BURST_JOBS {
            if let Ok(id) = server.submit(burst_spec(i)) {
                admitted.push((i, id));
            }
        }
        assert_eq!(admitted.len(), BURST_CAPACITY, "burst admits exactly the queue capacity");
        Burst { server, admitted, reports: Vec::new() }
    }

    /// Releases the pool and waits for every admitted job; returns the
    /// number of jobs run.
    fn drain(&mut self) -> u64 {
        self.server.release();
        let mut degraded = 0usize;
        for &(i, id) in &self.admitted {
            let r =
                self.server.wait(id, std::time::Duration::from_secs(600)).expect("job finishes");
            assert_eq!(r.state, JobState::Done, "burst job {i}: {r:?}");
            assert_eq!(r.cache, CacheStatus::Miss, "first round populates the cache");
            degraded += usize::from(r.degraded);
            self.reports.push((i, r.report));
        }
        assert_eq!(
            degraded,
            BURST_CAPACITY - BURST_WATERMARK,
            "jobs admitted past the watermark run degraded"
        );
        self.admitted.len() as u64
    }

    /// Resubmits the burst, which must come entirely from the cache,
    /// byte-identical, with nothing re-simulated; returns the cache hit
    /// rate over both rounds.
    fn resubmit(&self) -> f64 {
        for (i, first_report) in &self.reports {
            let r = self.server.run(burst_spec(*i)).expect("resubmission admitted");
            assert_eq!(r.cache, CacheStatus::Hit, "resubmitted job {i} must hit the cache");
            assert_eq!(r.executed_trials, 0, "cache hit re-simulated trials");
            assert_eq!(&r.report, first_report, "cached report diverged for job {i}");
        }
        let counters = self.server.telemetry().serve_counters();
        let probes = counters.cache_hits + counters.cache_misses;
        counters.cache_hits as f64 / probes.max(1) as f64
    }
}

/// Runs the bursts.
///
/// # Panics
/// Panics if admission deviates from the deterministic counts in any
/// burst, if any admitted job fails, or if a resubmitted round is not
/// served byte-identically from the cache — rates without equivalence
/// are meaningless here.
pub fn serve_run() -> ServeRun {
    let (mut burst_no, mut cache_hit_rate) = (0, 0.0);
    let mut arm = || {
        burst_no += 1;
        let spool = std::env::temp_dir()
            .join(format!("softsim-serve-bench-{}-{burst_no}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let mut burst = Burst::submit(spool.clone());
        let timing = time_run(|| &mut burst, |b| b.drain());
        cache_hit_rate = burst.resubmit();
        drop(burst);
        let _ = std::fs::remove_dir_all(&spool);
        timing
    };
    let [bursts] = sample(BURSTS, [&mut arm]);
    let shed = BURST_JOBS - BURST_CAPACITY;
    ServeRun {
        burst_jobs: BURST_JOBS,
        admitted: BURST_CAPACITY,
        shed,
        degraded: BURST_CAPACITY - BURST_WATERMARK,
        jobs_per_sec: bursts.cycles_per_sec(),
        bursts,
        cache_hit_rate,
        shed_rate: shed as f64 / BURST_JOBS as f64,
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
    Record::new("BENCH_0010", description, run.bursts.spread(fields))
        .series("serve_jobs_per_sec", run.jobs_per_sec, Gate::Floor(0.8))
        .series("serve_cache_hit_rate", run.cache_hit_rate, Gate::Floor(0.8))
        .series("serve_shed_rate", run.shed_rate, Gate::Info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsim_trace::json::Value;

    #[test]
    fn burst_counts_and_rates_are_deterministic() {
        let record = serve_json();
        crate::record::tests::assert_covers_committed(&record, "BENCH_0010.json");
        let doc = record.doc();
        let num = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(crate::record::SCHEMA));
        assert_eq!(doc.get("bench_id").and_then(Value::as_str), Some("BENCH_0010"));
        assert_eq!((num("burst_jobs"), num("queue_capacity")), (12.0, 8.0));
        assert_eq!((num("admitted"), num("shed"), num("degraded")), (8.0, 4.0, 2.0));
        assert_eq!(num("cache_hit_rate"), 0.5);
        assert!((num("shed_rate") - 1.0 / 3.0).abs() < 1e-12, "{}", num("shed_rate"));
        assert!(num("jobs_per_sec") > 0.0);
        assert_eq!(num("samples"), BURSTS as f64);
    }
}
