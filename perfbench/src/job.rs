//! One job of the closed loop — `Scenario::from_json` → `Scenario::run` →
//! `Report::to_json` — and the correctness checks behind `ok_frac`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use vi_noc_api::{Report, Scenario};
use vi_noc_dynsweep::parse_table;
use vi_noc_sweep::parse_frontier_file;

/// What one untraced job produced.
pub struct JobOutput {
    /// The in-memory report.
    pub report: Report,
    /// `report.to_json()`, the bytes a user would see.
    pub bytes: String,
}

/// Runs `f`, turning a panic into an `Err` so one broken job counts as a
/// failure instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// The untraced job, exactly as a user of the scenario API runs one.
pub fn run_job(doc: &str) -> Result<JobOutput, String> {
    guarded(|| {
        let scenario = Scenario::from_json(doc).map_err(|e| format!("ingest: {e}"))?;
        let report = scenario.run().map_err(|e| format!("run: {e}"))?;
        let bytes = report.to_json();
        Ok(JobOutput { report, bytes })
    })
}

/// The model outputs of one document's chosen design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOutputs {
    /// Realized NoC dynamic power, mW.
    pub noc_power_mw: f64,
    /// Realized average zero-load latency, cycles.
    pub zero_load_latency_cyc: f64,
    /// Mean simulated packet latency, ns (`None` without a sim stage).
    pub sim_latency_ns: Option<f64>,
}

impl ModelOutputs {
    /// Reads the model outputs off a report.
    pub fn of(report: &Report) -> ModelOutputs {
        ModelOutputs {
            noc_power_mw: report.realized_metrics.noc_dynamic_power().mw(),
            zero_load_latency_cyc: report.realized_metrics.avg_latency_cycles,
            sim_latency_ns: report
                .sim
                .as_ref()
                .and_then(|s| s.stats.avg_latency_ps())
                .map(|ps| ps / 1e3),
        }
    }
}

/// Full validation of a document's first report:
/// * every shutdown drained cleanly;
/// * an embedded frontier re-parses;
/// * an embedded dynamic-sweep table re-parses and holds
///   loads × traffic × schedules cells per frontier point;
/// * with `reference`, the frontier is byte-identical to it (the
///   in-process frontier of the same grid).
///
/// Later repeats of the document are checked by byte equality with the
/// validated report.
pub fn validate(doc: &str, out: &JobOutput, reference: Option<&str>) -> Result<(), String> {
    let scenario = Scenario::from_json(doc).map_err(|e| format!("ingest: {e}"))?;
    let report = &out.report;
    if let Some(sd) = &report.shutdown {
        if !sd.outcome.drained_cleanly {
            return Err(format!("island {} did not drain cleanly", sd.island));
        }
    }
    if scenario.shutdown.is_some() != report.shutdown.is_some() {
        return Err("shutdown section missing".to_string());
    }
    let frontier_points = match &report.frontier {
        Some(text) => parse_frontier_file(text)
            .map_err(|e| format!("frontier does not re-parse: {e}"))?
            .entries
            .len(),
        None if scenario.sweep.is_some() => return Err("frontier missing".to_string()),
        None => 0,
    };
    match (&report.dyn_sweep, &scenario.dyn_sweep) {
        (Some(text), Some(plan)) => {
            let table = parse_table(text).map_err(|e| format!("table does not re-parse: {e}"))?;
            let per_point = plan.loads.len() * plan.traffic.len() * plan.schedules.len();
            if table.points.len() != frontier_points
                || table.cells.len() != per_point * frontier_points
            {
                return Err(format!(
                    "table has {} cells over {} points; expected {per_point} per each of \
                     {frontier_points} frontier points",
                    table.cells.len(),
                    table.points.len()
                ));
            }
        }
        (None, None) => {}
        _ => return Err("dynamic-sweep table missing or unexpected".to_string()),
    }
    if let Some(reference) = reference {
        if report.frontier.as_deref() != Some(reference) {
            return Err("fleet frontier differs from the in-process frontier".to_string());
        }
    }
    Ok(())
}

/// The in-process frontier of a fleet document's grid: the same scenario
/// with `sweep_workers` unset, run through the classic sweep path.
pub fn inprocess_frontier(doc: &str) -> Result<String, String> {
    guarded(|| {
        let mut scenario = Scenario::from_json(doc).map_err(|e| format!("ingest: {e}"))?;
        scenario.sweep_workers = None;
        let report = scenario.run().map_err(|e| format!("run: {e}"))?;
        report
            .frontier
            .ok_or_else(|| "scenario has no sweep".to_string())
    })
}

/// Runs the committed scenarios that have golden reports through the same
/// job path and compares the bytes.
pub fn golden_self_check() -> Result<(), String> {
    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios");
    for name in ["d26_baseline", "d26_dynamic_grid"] {
        let read = |path: String| {
            std::fs::read_to_string(&path).map_err(|e| format!("golden self-check: {path}: {e}"))
        };
        let doc = read(format!("{ROOT}/{name}.json"))?;
        let golden = read(format!("{ROOT}/golden/{name}.report.json"))?;
        let out = run_job(&doc).map_err(|e| format!("golden self-check: {name}: {e}"))?;
        if out.bytes != golden {
            return Err(format!(
                "golden self-check: {name}: report differs from golden"
            ));
        }
    }
    Ok(())
}
