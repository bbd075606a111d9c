//! The committed deterministic records must match fresh output and
//! hold their invariants.
//!
//! `tables_output.txt` holds every cycle-exact section of the
//! evaluation (figures, claims, profile, fault campaigns, ablations,
//! metrics) and no wall-clock numbers, so it is reproducible on any
//! machine. The first test regenerates it in-process and compares byte
//! for byte — the record can never silently go stale again. The
//! cycle-exact BENCH records (0005, 0006, 0007) are checked here too:
//! CI byte-compares each against a fresh run, and these tests assert
//! what the committed numbers must satisfy.

use softsim_trace::json::{parse, Value};

#[test]
fn committed_record_matches_fresh_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tables_output.txt");
    let committed = std::fs::read_to_string(path).expect("tables_output.txt must be committed");
    let fresh = softsim_bench::tables::record_text();
    if committed != fresh {
        let mismatch = committed
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: {a:?} vs fresh {b:?}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: committed {} vs fresh {}",
                    committed.lines().count(),
                    fresh.lines().count()
                )
            });
        panic!(
            "tables_output.txt is stale — regenerate with \
             `cargo run --release -p softsim-bench --bin tables -- --record`\n{mismatch}"
        );
    }
}

/// `BENCH_0006.json` is the one committed benchmark record whose every
/// number is cycle-exact (no wall clock anywhere), so — unlike
/// `BENCH_0003`/`BENCH_0004` — it must match a fresh derivation byte
/// for byte on any machine.
#[test]
fn committed_hotspot_record_matches_fresh_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0006.json");
    let committed = std::fs::read_to_string(path).expect("BENCH_0006.json must be committed");
    assert_eq!(
        committed,
        softsim_bench::hotspots::hotspots_json().render(),
        "BENCH_0006.json is stale — regenerate with \
         `cargo run --release -p softsim-bench --bin tables -- --hotspots`"
    );
}

/// `BENCH_0007.json` records the durable-campaign invariants
/// (interrupt-and-resume identity, worker invariance, trial isolation)
/// with cycle-exact numbers only, so it too must match a fresh
/// derivation byte for byte on any machine and at any
/// `SOFTSIM_SWEEP_WORKERS` value.
#[test]
fn committed_durable_record_matches_fresh_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0007.json");
    let committed = std::fs::read_to_string(path).expect("BENCH_0007.json must be committed");
    assert_eq!(
        committed,
        softsim_bench::durable::durable_json().render(),
        "BENCH_0007.json is stale — regenerate with \
         `cargo run --release -p softsim-bench --bin tables -- --durable-json`"
    );
}

/// The committed BENCH record `file`, parsed.
fn committed(file: &str) -> Value {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// Member `key` of `v`.
fn at<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

/// Numeric member `key` of `v`.
fn num(v: &Value, key: &str) -> f64 {
    at(v, key).as_f64().unwrap_or_else(|| panic!("`{key}` is not a number"))
}

/// Array member `key` of `v`.
fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    at(v, key).as_array().unwrap_or_else(|| panic!("`{key}` is not an array"))
}

/// String member `key` of `v`.
fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    at(v, key).as_str().unwrap_or_else(|| panic!("`{key}` is not a string"))
}

/// The fixed record header.
fn header(doc: &Value, bench_id: &str) {
    assert_eq!(text(doc, "schema"), "softsim-bench/1");
    assert_eq!(text(doc, "bench_id"), bench_id);
}

/// `BENCH_0005.json`: the hardening matrix is complete, every trial is
/// classified on both sides, and the fully-hardened rows hold the 70%
/// recovery-rate acceptance floor.
#[test]
fn committed_recovery_record_holds_the_matrix_invariants() {
    let doc = committed("BENCH_0005.json");
    header(&doc, "BENCH_0005");
    assert_eq!(at(&doc, "reports_identical"), &Value::Bool(true));
    assert!(num(&doc, "trials_per_row") >= 200.0);
    let rows = list(&doc, "rows");
    assert_eq!(rows.len(), 8, "expected 8 matrix rows");
    assert_eq!(text(&rows[0], "workload"), "cordic");
    assert_eq!(text(&rows[0], "hardening"), "unhardened");
    for r in rows {
        let (b, s) = (at(r, "baseline"), at(r, "supervised"));
        let total = num(b, "masked") + num(b, "sdc") + num(b, "deadlock") + num(b, "fault");
        assert_eq!(total, num(r, "trials"));
        assert_eq!(total, num(s, "clean") + num(s, "recovered") + num(s, "unrecoverable"));
        assert!((0.0..=1.0).contains(&num(r, "recovery_rate")));
        assert!(num(r, "converted") <= num(r, "damaging"));
    }
    let full: Vec<&Value> = rows.iter().filter(|r| text(r, "hardening") == "ecc+tmr").collect();
    assert_eq!(full.len(), 2);
    for r in full {
        let rate = num(r, "recovery_rate");
        assert!(rate >= 0.7, "{} ecc+tmr recovery rate {rate:.3} below 0.7", text(r, "workload"));
    }
}

/// `BENCH_0006.json`: four profiled workloads, well-ordered hot blocks,
/// advisor scores that follow their documented formula, and the known
/// hottest blocks of the two software kernels.
#[test]
fn committed_hotspot_record_holds_the_profile_invariants() {
    let doc = committed("BENCH_0006.json");
    header(&doc, "BENCH_0006");
    assert!(num(&doc, "clock_hz") > 0.0 && num(&doc, "hot_blocks_per_workload") >= 1.0);
    let workloads = list(&doc, "workloads");
    assert_eq!(workloads.len(), 4, "expected 4 workloads");
    for w in workloads {
        assert!(num(w, "cycles") > 0.0 && num(w, "instructions") > 0.0 && num(w, "blocks") > 0.0);
        assert!(!list(w, "hot_blocks").is_empty() && !list(w, "advice").is_empty());
        for b in list(w, "hot_blocks") {
            assert!(num(b, "start") < num(b, "end"));
            assert!(num(b, "cycles") > 0.0 && num(b, "visits") > 0.0);
        }
        for c in list(w, "advice") {
            assert_eq!(num(c, "est_comm_cycles"), 2.0 * num(c, "comm_words"));
            assert_eq!(num(c, "score"), num(c, "cycles") - num(c, "est_comm_cycles"));
        }
    }
    let hottest = |name: &str| {
        let w = workloads.iter().find(|w| text(w, "name") == name).expect(name);
        text(&list(w, "hot_blocks")[0], "region").to_string()
    };
    // The compiled CORDIC kernel's hottest block is its inner loop.
    assert_eq!(hottest("cordic_24iter_sw"), "join");
    assert_eq!(hottest("matmul_16x16_sw"), "kloop");
}

/// `BENCH_0007.json`: every trial is journaled and accounted for, the
/// interrupt really tore the journal, and resume, worker invariance and
/// trial isolation all held.
#[test]
fn committed_durable_record_holds_the_durability_invariants() {
    let doc = committed("BENCH_0007.json");
    header(&doc, "BENCH_0007");
    let trials = num(&doc, "trials");
    let c = at(&doc, "campaign");
    let total = num(c, "masked") + num(c, "sdc") + num(c, "deadlock") + num(c, "fault");
    assert_eq!(total, trials);
    assert_eq!(num(c, "journal_records"), trials);
    let cov = at(c, "coverage");
    assert_eq!(num(cov, "completed") + num(cov, "budget") + num(cov, "abandoned"), trials);
    assert!(num(c, "journal_bytes") > 25.0 && text(c, "plan_hash").starts_with("0x"));
    let r = at(&doc, "resume");
    assert!(0.0 < num(r, "interrupted_at_records") && num(r, "interrupted_at_records") < trials);
    assert!(num(r, "torn_bytes") > 0.0);
    assert_eq!(at(r, "report_identical"), &Value::Bool(true));
    assert_eq!(at(&doc, "workers_invariant"), &Value::Bool(true));
    let iso = at(&doc, "isolation");
    assert_eq!(num(iso, "harness_abandoned"), 1.0);
    assert_eq!(
        num(iso, "budget_cancelled") + num(iso, "harness_abandoned") + num(iso, "completed"),
        num(iso, "trials")
    );
    let rec = at(&doc, "recovery");
    assert_eq!(
        num(rec, "clean") + num(rec, "recovered") + num(rec, "unrecoverable"),
        num(rec, "trials")
    );
    assert_eq!(num(rec, "journal_records"), num(rec, "trials"));
    assert_eq!(at(rec, "resumed_identical"), &Value::Bool(true));
}
