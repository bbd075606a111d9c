//! The committed performance-trajectory record
//! (`BENCH_TRAJECTORY.json`) and its regression gate.
//!
//! The per-PR BENCH records each answer one question about one
//! subsystem; the trajectory record aggregates their headline numbers
//! into a single committed series — interpreter cycles/sec, co-sim
//! throughput, fast-forward speedup, recovery rate, durable journal
//! overhead, translated-execution throughput, service throughput under
//! overload — so any change has one
//! file to beat and CI has one gate to hold. `tables --trajectory`
//! regenerates the record from the BENCH_0003–0010 files in the
//! current directory; `tables --trajectory-gate` re-extracts the same
//! series from (possibly freshly regenerated) BENCH files and fails if
//! a gated series regresses past its factor against the committed
//! record: floors (`fresh >= factor x committed`) for throughput and
//! rates, a ceiling (`fresh <= factor x committed`) for journal bytes
//! per trial. A gated series missing from either side — committed but
//! no longer extracted, or freshly extracted but absent from the
//! committed record — fails the gate loudly instead of being skipped.
//!
//! Extraction is generic: each BENCH record declares its own headline
//! series (name, value, gate) in a `series` array when it is written
//! ([`crate::record::Record::series`]), and this module only collects
//! those arrays in [`TRAJECTORY_SOURCES`] order. Given the same BENCH
//! files the record is byte-identical, which is what the staleness test
//! in this module asserts against the committed file.

use crate::record::{obj, Gate, Json, Obj, Series, SCHEMA};
use softsim_trace::json::{parse, Value};
use std::path::Path;

/// The committed trajectory record's file name.
pub const TRAJECTORY_FILE: &str = "BENCH_TRAJECTORY.json";

/// The BENCH records the trajectory aggregates, in extraction order.
pub const TRAJECTORY_SOURCES: [&str; 7] = [
    "BENCH_0003.json",
    "BENCH_0004.json",
    "BENCH_0005.json",
    "BENCH_0006.json",
    "BENCH_0007.json",
    "BENCH_0009.json",
    "BENCH_0010.json",
];

/// One headline series entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Stable series name (the gate keys on it).
    pub name: String,
    /// Which BENCH record it was extracted from.
    pub source: &'static str,
    /// The extracted value.
    pub value: f64,
    /// How the series is gated.
    pub gate: Gate,
}

/// The parsed `series` array of the JSON file at `path`.
fn read_series(path: &Path) -> Result<Vec<Series>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("series")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing `series`", path.display()))?;
    entries
        .iter()
        .map(|e| Series::parse(e).map_err(|err| format!("{}: {err}", path.display())))
        .collect()
}

/// Collects the series every BENCH record in `dir` declares, in
/// [`TRAJECTORY_SOURCES`] order and each record's declaration order.
pub fn extract(dir: &Path) -> Result<Vec<SeriesPoint>, String> {
    let mut out = Vec::new();
    for source in TRAJECTORY_SOURCES {
        for s in read_series(&dir.join(source))? {
            out.push(SeriesPoint { name: s.name, source, value: s.value, gate: s.gate });
        }
    }
    Ok(out)
}

/// Renders a series list as the `BENCH_TRAJECTORY.json` document.
pub fn trajectory_json(series: &[SeriesPoint]) -> String {
    let entries: Vec<Obj> = series
        .iter()
        .map(|p| {
            obj! {
                "name" => &p.name, "source" => p.source, "value" => p.value,
                "gate" => p.gate.kind(), "factor" => p.gate.factor(),
            }
        })
        .collect();
    let doc = obj! {
        "schema" => SCHEMA, "bench_id" => "BENCH_TRAJECTORY",
        "description" => "headline performance-trajectory series aggregated from the committed \
                          BENCH records; floors/ceilings gate regressions in CI",
        "sources" => TRAJECTORY_SOURCES.as_slice(), "series" => entries,
    };
    doc.to_json() + "\n"
}

/// Extracts from `dir` and writes `BENCH_TRAJECTORY.json` (or `out`).
pub fn write_trajectory(dir: &Path, out: &Path) -> Result<(), String> {
    let series = extract(dir)?;
    std::fs::write(out, trajectory_json(&series)).map_err(|e| format!("{}: {e}", out.display()))
}

/// Gates freshly extracted series (from the BENCH files in `dir`)
/// against the committed trajectory record. Returns the per-series
/// report text on success; on any gate violation (or missing series)
/// returns it as the error. Ungated (`info`) series are reported but
/// never fail.
pub fn gate(dir: &Path, committed: &Path) -> Result<String, String> {
    let fresh = extract(dir)?;
    let series = read_series(committed)?;
    let mut report = String::from("trajectory gate (fresh vs committed):\n");
    let mut failures = 0usize;
    for entry in &series {
        let (name, committed_value) = (&entry.name, entry.value);
        let Some(point) = fresh.iter().find(|p| &p.name == name) else {
            report.push_str(&format!("  FAIL {name}: missing from fresh extraction\n"));
            failures += 1;
            continue;
        };
        let (ok, bound) = match entry.gate {
            Gate::Floor(f) => (point.value >= f * committed_value, f * committed_value),
            Gate::Ceiling(f) => (point.value <= f * committed_value, f * committed_value),
            Gate::Info => (true, committed_value),
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        if !ok {
            failures += 1;
        }
        report.push_str(&format!(
            "  {verdict} {name}: fresh {:.6e} vs committed {:.6e} ({} {:.6e})\n",
            point.value,
            committed_value,
            entry.gate.kind(),
            bound,
        ));
    }
    // The reverse direction: a freshly extracted gated series that the
    // committed record does not know about means the record is stale —
    // a new floor/ceiling would silently go ungated until regenerated.
    for point in &fresh {
        if matches!(point.gate, Gate::Info) || series.iter().any(|e| e.name == point.name) {
            continue;
        }
        report.push_str(&format!(
            "  FAIL {}: gated series missing from the committed record — regenerate \
             {TRAJECTORY_FILE}\n",
            point.name,
        ));
        failures += 1;
    }
    if failures > 0 {
        report.push_str(&format!("  {failures} series regressed\n"));
        Err(report)
    } else {
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }

    #[test]
    fn committed_trajectory_is_fresh() {
        let series = extract(&repo_root()).expect("extraction from committed BENCH files");
        let fresh = trajectory_json(&series);
        let committed = std::fs::read_to_string(repo_root().join(TRAJECTORY_FILE))
            .expect("BENCH_TRAJECTORY.json must be committed");
        assert_eq!(
            fresh, committed,
            "BENCH_TRAJECTORY.json is stale — regenerate with \
             `cargo run --release -p softsim-bench --bin tables -- --trajectory`"
        );
    }

    #[test]
    fn committed_record_passes_its_own_gate() {
        let report = gate(&repo_root(), &repo_root().join(TRAJECTORY_FILE))
            .expect("committed record must pass against itself");
        assert!(report.contains("iss_cycles_per_sec"));
        assert!(!report.contains("FAIL"));
    }

    #[test]
    fn gate_fails_on_regression() {
        // Committed trajectory with an inflated floor value: the real
        // BENCH files can't reach 10x the committed iss throughput.
        let series = extract(&repo_root()).unwrap();
        let mut inflated = series.clone();
        for p in &mut inflated {
            if p.name == "iss_cycles_per_sec" {
                p.value *= 10.0;
            }
        }
        let dir =
            std::env::temp_dir().join(format!("softsim_trajectory_gate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join(TRAJECTORY_FILE);
        std::fs::write(&committed, trajectory_json(&inflated)).unwrap();
        let err = gate(&repo_root(), &committed).expect_err("10x floor must fail");
        assert!(err.contains("FAIL iss_cycles_per_sec"), "unexpected report: {err}");
        assert!(err.contains("series regressed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn extraction_is_deterministic_and_gated_series_present() {
        let a = extract(&repo_root()).unwrap();
        let b = extract(&repo_root()).unwrap();
        assert_eq!(a, b);
        for name in [
            "iss_cycles_per_sec",
            "fast_forward_speedup_stall",
            "recovery_rate_full_hardening",
            "translated_cycles_per_sec",
            "serve_jobs_per_sec",
            "serve_cache_hit_rate",
        ] {
            let p = a.iter().find(|p| p.name == name).expect(name);
            assert!(matches!(p.gate, Gate::Floor(f) if f > 0.0), "{name} must be floor-gated");
        }
        let j = a.iter().find(|p| p.name == "durable_journal_bytes_per_trial").unwrap();
        assert!(matches!(j.gate, Gate::Ceiling(f) if f > 1.0));
    }

    /// Writes `text` as a committed trajectory file in a fresh temp dir
    /// and runs the gate against it, cleaning up afterwards.
    fn gate_against(text: &str, tag: &str) -> Result<String, String> {
        let dir =
            std::env::temp_dir().join(format!("softsim_trajectory_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join(TRAJECTORY_FILE);
        std::fs::write(&committed, text).unwrap();
        let result = gate(&repo_root(), &committed);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    #[test]
    fn gate_fails_when_committed_series_vanishes_from_fresh_extraction() {
        // A committed record naming a gated series the extractor no
        // longer produces must fail, not silently shrink coverage.
        let mut series = extract(&repo_root()).unwrap();
        for p in &mut series {
            if p.name == "iss_cycles_per_sec" {
                p.name = "renamed_out_from_under_the_gate".into();
            }
        }
        let err = gate_against(&trajectory_json(&series), "vanished")
            .expect_err("unknown committed series");
        assert!(
            err.contains("FAIL renamed_out_from_under_the_gate: missing from fresh extraction"),
            "unexpected report: {err}"
        );
    }

    #[test]
    fn gate_fails_when_fresh_gated_series_missing_from_committed_record() {
        // The reverse direction: the committed record predates a newly
        // added floor-gated series (exactly how BENCH_0009 lands) — the
        // gate must demand regeneration instead of skipping the floor.
        let series: Vec<SeriesPoint> = extract(&repo_root())
            .unwrap()
            .into_iter()
            .filter(|p| p.name != "translated_cycles_per_sec")
            .collect();
        let err =
            gate_against(&trajectory_json(&series), "stale").expect_err("stale committed record");
        assert!(
            err.contains("FAIL translated_cycles_per_sec: gated series missing"),
            "unexpected report: {err}"
        );
        // Info series are exempt: dropping one must not fail the gate.
        let without_info: Vec<SeriesPoint> = extract(&repo_root())
            .unwrap()
            .into_iter()
            .filter(|p| p.name != "translate_speedup")
            .collect();
        gate_against(&trajectory_json(&without_info), "info")
            .expect("info series are never demanded");
    }

    #[test]
    fn gate_rejects_a_committed_entry_whose_gate_or_factor_is_malformed() {
        // A typo in the committed gate kind, or a dropped factor, used
        // to fall back to `info` / a floor of 0 — a gate that can never
        // fail. Both must be an error naming the series.
        let committed = trajectory_json(&extract(&repo_root()).unwrap());
        let typo = committed.replacen(r#""gate":"floor""#, r#""gate":"flor""#, 1);
        let err = gate_against(&typo, "typo").expect_err("unknown gate kind");
        assert!(err.contains("iss_cycles_per_sec") && err.contains("flor"), "{err}");
        let unfactored = committed.replacen(r#","factor":0.8"#, "", 1);
        let err = gate_against(&unfactored, "factorless").expect_err("missing factor");
        assert!(err.contains("iss_cycles_per_sec") && err.contains("factor"), "{err}");
    }
}
