//! Integration tests for the durable (fault-tolerant) execution layer:
//! trial isolation, per-trial budgets, crash-resumable journals, and
//! the never-panic contract of both byte readers (`snapshot::from_bytes`
//! and the `SSJL` journal scan) under truncation, bit flips, and
//! arbitrary bytes.

mod common;

use common::{fsl_sim, mixed_plan, mixed_plan_with_panic, observe, quick_config};
use softsim_cosim::CoSimStop;
use softsim_resilience::{
    from_bytes, resume_from_journal, run_campaign, to_bytes, AppendFault, AppendFaultPlan,
    CampaignConfig, CampaignReport, CampaignRun, DurabilityStatus, FaultKind, Injection,
    JournalError, JournalOptions, Outcome,
};
use softsim_testkit::Rng;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    common::scratch("it", tag)
}

/// `plan` on `workers` threads, journaled to `path`.
fn journaled(
    plan: &[Injection],
    path: &Path,
    resume: bool,
    workers: usize,
    append_fault: Option<AppendFaultPlan>,
) -> Result<(CampaignReport, DurabilityStatus), JournalError> {
    let journal = Some(JournalOptions { path, resume, append_fault });
    let run = CampaignRun { workers, telemetry: None, journal };
    run.run(quick_config(), fsl_sim, plan, observe)
}

#[test]
fn harness_panic_is_isolated_and_siblings_complete() {
    let plan = mixed_plan_with_panic();
    for workers in [1, 3] {
        let journal = scratch(&format!("isolation_{workers}"));
        let (report, _) = journaled(&plan, &journal, false, workers, None).expect("journal I/O");
        assert_eq!(report.trials.len(), plan.len(), "no trial dropped, workers={workers}");
        let cov = report.coverage();
        assert_eq!(cov.abandoned, 1, "exactly the deliberate panic is abandoned");
        assert_eq!(cov.completed + cov.budget + cov.abandoned, plan.len());
        let panicked = &report.trials[2];
        match &panicked.outcome {
            Outcome::HarnessError { panic_msg } => {
                assert!(panic_msg.contains("deliberate harness panic"), "{panic_msg}");
            }
            other => panic!("expected HarnessError, got {other:?}"),
        }
        assert!(panicked.retries >= 1, "a panicking trial is retried before abandonment");
        for (i, t) in report.trials.iter().enumerate() {
            if i != 2 {
                assert!(
                    !matches!(t.outcome, Outcome::HarnessError { .. }),
                    "sibling {i} classified normally"
                );
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn cycle_budget_cancels_runaway_trials() {
    let plan = mixed_plan();
    let config = CampaignConfig { trial_cycle_budget: Some(8), ..quick_config() };
    let mut sim = fsl_sim();
    let report = run_campaign(&mut sim, &plan, observe, config);
    // The stuck-flag trial would burn the whole watchdog threshold; the
    // 8-cycle budget cancels it (and every other trial, none of which
    // can halt within 8 post-injection cycles) as Budget, not Deadlock.
    let cov = report.coverage();
    assert_eq!(cov.budget, plan.len(), "every trial hit the 8-cycle budget");
    for t in &report.trials {
        assert_eq!(t.outcome, Outcome::Budget, "{:?}", t.injection);
    }
}

#[test]
fn wall_budget_hit_while_fast_forwarding_classifies_budget_not_deadlock() {
    let stuck = vec![Injection { cycle: 8, kind: FaultKind::StuckEmpty { channel: 0 } }];
    // Reference: with no wall budget the stuck trial is a diagnosed
    // deadlock (the watchdog fires while fast-forwarding the stall).
    let mut sim = fsl_sim();
    let reference = run_campaign(&mut sim, &stuck, observe, quick_config());
    assert_eq!(reference.trials[0].outcome, Outcome::Deadlock, "{:?}", reference.trials[0].stop);

    // With an already-expired wall budget the same trial is cancelled
    // mid-fast-forward and must classify Budget, not Deadlock.
    let config = CampaignConfig {
        trial_wall_budget: Some(Duration::ZERO),
        fast_forward: true,
        ..quick_config()
    };
    let mut sim = fsl_sim();
    let capped = run_campaign(&mut sim, &stuck, observe, config);
    assert_eq!(capped.trials[0].outcome, Outcome::Budget, "{:?}", capped.trials[0].stop);

    // The cancelled-while-fast-forwarding trial must leave the co-sim
    // consistent: the same instance immediately runs another campaign
    // and agrees bit for bit with a fresh simulator's.
    let benign = vec![Injection { cycle: 3, kind: FaultKind::RegBitFlip { reg: 3, bit: 0 } }];
    let after = run_campaign(&mut sim, &benign, observe, quick_config());
    let mut fresh = fsl_sim();
    let expected = run_campaign(&mut fresh, &benign, observe, quick_config());
    assert_eq!(after, expected, "co-sim state survives a mid-fast-forward cancellation");
}

#[test]
fn append_fault_degrades_to_non_durable_with_a_clean_tail() {
    let plan = mixed_plan();
    let mut sim = fsl_sim();
    let reference = run_campaign(&mut sim, &plan, observe, quick_config());
    for fault in [AppendFault::ShortWrite, AppendFault::DiskFull, AppendFault::FlushError] {
        let journal = scratch(&format!("fault_{fault:?}"));
        let _ = std::fs::remove_file(&journal);
        // The 4th append fails: the run must finish with the same
        // report, flagged non-durable with a warning — never a panic.
        let fault_plan = AppendFaultPlan { kind: fault, after_appends: 3 };
        let (report, status) = journaled(&plan, &journal, false, 1, Some(fault_plan))
            .expect("an append failure must not fail the campaign");
        assert_eq!(report, reference, "report unaffected by {fault}");
        assert!(!status.durable, "{fault} must degrade the run");
        assert_eq!(status.appended, 3, "{fault}");
        let warning = status.warning.expect("degraded run carries a warning");
        assert!(warning.contains("non-durable"), "{warning}");

        // The journal tail is clean: exactly the three good records,
        // nothing torn (the partial frame of a short write is dropped).
        let scan =
            resume_from_journal::<CampaignConfig>(&journal).expect("degraded journal still scans");
        assert_eq!(scan.records, 3, "{fault}");
        assert_eq!(scan.torn_bytes, 0, "no torn tail left behind by {fault}");
        assert_eq!(std::fs::metadata(&journal).expect("journal stat").len(), scan.good_bytes);

        // And it resumes: only the five missing trials re-run, to the
        // byte-identical report.
        let (resumed, status) = journaled(&plan, &journal, true, 2, None).expect("journal I/O");
        assert_eq!(resumed, reference, "resume after {fault} degrade");
        assert!(status.durable);
        assert_eq!(status.appended as usize, plan.len() - 3);
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn resume_with_a_different_plan_is_a_typed_error() {
    let journal = scratch("mismatch");
    let _ = std::fs::remove_file(&journal);
    let plan = mixed_plan();
    journaled(&plan, &journal, false, 1, None).expect("journal I/O");
    let mut other = plan.clone();
    other.push(Injection { cycle: 20, kind: FaultKind::RegBitFlip { reg: 7, bit: 1 } });
    let err =
        journaled(&other, &journal, true, 1, None).expect_err("a different plan must be rejected");
    assert!(
        matches!(err, JournalError::PlanMismatch { .. } | JournalError::TrialCountMismatch { .. }),
        "typed mismatch, got {err}"
    );
    let _ = std::fs::remove_file(&journal);
}

/// Builds a valid completed journal once, for the fuzz tests below.
fn valid_journal_bytes() -> Vec<u8> {
    let journal = scratch("fuzz_seed");
    let _ = std::fs::remove_file(&journal);
    journaled(&mixed_plan(), &journal, false, 1, None).expect("journal I/O");
    let bytes = std::fs::read(&journal).expect("journal readable");
    let _ = std::fs::remove_file(&journal);
    bytes
}

#[test]
fn journal_scan_never_panics_and_clamps_under_any_damage() {
    let full = valid_journal_bytes();
    let journal = scratch("fuzz");
    let header_trials = mixed_plan().len();

    // Every truncation length: the scan returns a typed error or a
    // valid prefix — never panics, never reads past the buffer.
    for cut in 0..=full.len() {
        std::fs::write(&journal, &full[..cut]).expect("journal writable");
        // A typed error is fine (pre-header truncations); an Ok scan
        // must stay within bounds.
        if let Ok(scan) = resume_from_journal::<CampaignConfig>(&journal) {
            assert_eq!(scan.completed.len(), header_trials);
            assert!(scan.good_bytes as usize <= cut);
            assert!(scan.done() <= header_trials);
        }
    }

    // Seeded bit flips anywhere in the journal.
    let mut rng = Rng::new(0xD1CE_F00D);
    for _ in 0..250 {
        let mut bytes = full.clone();
        for _ in 0..rng.range_usize(1, 8) {
            let i = rng.range_usize(0, bytes.len() - 1);
            bytes[i] ^= 1 << rng.range_usize(0, 7);
        }
        std::fs::write(&journal, &bytes).expect("journal writable");
        if let Ok(scan) = resume_from_journal::<CampaignConfig>(&journal) {
            assert!(scan.good_bytes as usize <= bytes.len());
        }
    }

    // Arbitrary byte soup, half of it wearing a valid magic + version.
    for case in 0..250 {
        let n = rng.range_usize(0, 600);
        let mut bytes: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        if case % 2 == 0 && bytes.len() >= 8 {
            bytes[..4].copy_from_slice(b"SSJL");
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        }
        std::fs::write(&journal, &bytes).expect("journal writable");
        let _ = resume_from_journal::<CampaignConfig>(&journal);
    }

    // Clamping guarantee: a CRC-valid header declaring an implausible
    // trial count must fail typed instead of allocating gigabytes of
    // slot table.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(b"SSJL");
    hostile.extend_from_slice(&1u32.to_le_bytes());
    hostile.push(0); // campaign kind
    hostile.extend_from_slice(&0u64.to_le_bytes()); // plan hash
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // 4G trials
    let crc = softsim_resilience::crc32(&hostile);
    hostile.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&journal, &hostile).expect("journal writable");
    match resume_from_journal::<CampaignConfig>(&journal) {
        Err(JournalError::Corrupt(_)) => {}
        other => panic!("implausible trial count must be Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn snapshot_from_bytes_never_panics_under_any_damage() {
    let mut sim = fsl_sim();
    assert_eq!(sim.run(20), CoSimStop::CycleLimit { blocked: None });
    let full = to_bytes(&sim.save_state());

    // Every truncation length fails typed (a shorter buffer can never
    // checksum-match the trailer).
    for cut in 0..full.len() {
        assert!(from_bytes(&full[..cut]).is_err(), "truncation at {cut} must fail");
    }

    // Seeded bit flips: decode returns Ok only for flips the checksum
    // cannot see (there are none — CRC32 detects all 1-8 bit burbles in
    // these sizes), so every case must fail typed; none may panic.
    let mut rng = Rng::new(0x5EED_5AFE);
    for _ in 0..300 {
        let mut bytes = full.clone();
        for _ in 0..rng.range_usize(1, 8) {
            let i = rng.range_usize(0, bytes.len() - 1);
            bytes[i] ^= 1 << rng.range_usize(0, 7);
        }
        let _ = from_bytes(&bytes);
    }

    // Arbitrary byte soup, half of it wearing the snapshot magic.
    for case in 0..300 {
        let n = rng.range_usize(0, 400);
        let mut bytes: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        if case % 2 == 0 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"SSCK");
        }
        let _ = from_bytes(&bytes);
    }

    // The undamaged bytes still round-trip.
    let state = from_bytes(&full).expect("valid snapshot decodes");
    assert_eq!(to_bytes(&state), full);
}
