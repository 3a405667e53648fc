//! The traced run: each job re-executed as the hand-chained public calls
//! `Scenario::run` makes, with a span around every call into a crate.
//!
//! Spans live in the benchmark only — nothing inside the program is
//! instrumented. Every span is a direct child of its job's root span, so a
//! span's wall time is its self time.

use crate::job::guarded;
use std::sync::Arc;
use std::time::Instant;
use vi_noc_api::fleet::{job_payload, ScenarioJobResolver};
use vi_noc_api::{Report, Scenario, ShutdownReport, SimReport};
use vi_noc_core::{realize_on_floorplan, synthesize, SynthesisConfig};
use vi_noc_dynsweep::{run_dynsweep, DynSweepInput, SimAxes};
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, JobResolver, WorkerOpts, WorkerStats,
};
use vi_noc_sim::{measured_power, run_shutdown_scenario, ShutdownScenario, Simulator};
use vi_noc_soc::{SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, frontier_seeds, parse_frontier_file, run_shard, run_shard_pruned,
    windows_from_frontier, GridConfig, GridDescriptor, RefineWindow, Shard, SweepGrid, SweepStats,
};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Wall time of the span, ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}\n",
                span.name, span.start_ns, span.end_ns, span.job
            ));
        }
        s
    }
}

/// Deterministic work counts of one traced job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Bytes of the emitted report.
    pub report_bytes: u64,
    /// Feasible design points explored by synthesis.
    pub design_points: u64,
    /// Annealer moves: iterations × restarts.
    pub moves: u64,
    /// Simulator ticks processed by the sim stage.
    pub ticks: u64,
    /// Flits forwarded by switches in the sim stage.
    pub flits: u64,
    /// Mean simulated packet latency, ns (0 without a sim stage).
    pub sim_latency_ns: f64,
    /// Sweep counters summed over the coarse and the refined grid.
    pub sweep: SweepStats,
    /// Bytes of the final frontier file.
    pub frontier_bytes: u64,
    /// Dynamic-sweep cells.
    pub cells: u64,
    /// Dynamic-sweep cells actually simulated.
    pub simulated: u64,
    /// Fleet leases evaluated, deltas acked, leases abandoned.
    pub leases: u64,
    /// See `leases`.
    pub deltas: u64,
    /// See `leases`.
    pub abandoned: u64,
}

/// What a traced job produced: the report bytes (to compare with the
/// untraced job) and its work counts.
pub struct Traced {
    /// `Report::to_json` of the hand-assembled report.
    pub bytes: String,
    /// Work counts.
    pub counts: Counts,
}

/// Every call a traced job can make, as span names.
pub const CALLS: [&str; 16] = [
    "api.ingest",
    "soc.resolve",
    "core.synthesize",
    "floorplan.realize",
    "sim.run",
    "sim.power",
    "sim.shutdown",
    "sweep.grid",
    "sweep.run",
    "sweep.emit",
    "sweep.refine",
    "dynsweep.run",
    "fleet.start",
    "fleet.submit",
    "fleet.teardown",
    "api.emit",
];

/// Runs `doc` as hand-chained public calls under `t`, as job `job`.
///
/// A call the job does not make still gets an empty span (the tracer's
/// own cost, tens of nanoseconds), so a skipped layer reads as measured
/// near-zero time, never as an exact constant.
pub fn run_traced(t: &mut Tracer, job: u64, doc: &str) -> Result<Traced, String> {
    t.job = job;
    let first = t.spans.len();
    let out = guarded(|| t.span("job", |t| chained(t, doc)));
    t.stack.clear();
    for name in CALLS {
        if !t.spans[first..].iter().any(|s| s.name == name) {
            t.span(name, |_| ());
        }
    }
    out
}

fn chained(t: &mut Tracer, doc: &str) -> Result<Traced, String> {
    let mut counts = Counts::default();
    let s = t
        .span("api.ingest", |_| Scenario::from_json(doc))
        .map_err(|e| e.to_string())?;
    let (spec, vi) = t
        .span("soc.resolve", |_| {
            let spec = s.resolve_spec()?;
            let vi = s.resolve_partition(&spec)?;
            Ok::<_, vi_noc_api::Error>((spec, vi))
        })
        .map_err(|e| e.to_string())?;
    let space = t
        .span("core.synthesize", |_| synthesize(&spec, &vi, &s.synthesis))
        .map_err(|e| e.to_string())?;
    counts.design_points = space.points.len() as u64;
    let point = space.min_power_point().ok_or("empty design space")?;
    let design = t.span("floorplan.realize", |_| {
        realize_on_floorplan(&spec, &vi, point, &s.floorplan, &s.synthesis)
    });
    counts.moves = (s.floorplan.iterations * s.floorplan.restarts) as u64;

    let sim_cfg = s.sim.as_ref().map(|p| p.config.clone()).unwrap_or_default();
    let sim = t.span("sim.run", |_| {
        s.sim.as_ref().map(|plan| {
            let mut sim = Simulator::new(&spec, &design.topology, &plan.config);
            let stats = sim.run_for_ns(plan.horizon_ns);
            (plan, stats, sim.ticks_processed())
        })
    });
    let sim = t.span("sim.power", |_| {
        sim.map(|(plan, stats, ticks)| {
            let measured = (stats.elapsed_ps > 0).then(|| {
                measured_power(
                    &spec,
                    &design.topology,
                    &s.synthesis,
                    &stats,
                    plan.config.packet_bytes as f64,
                )
            });
            let report = SimReport {
                horizon_ns: plan.horizon_ns,
                stats,
                measured,
            };
            (report, ticks)
        })
    });
    let shutdown = t
        .span("sim.shutdown", |_| {
            s.shutdown
                .as_ref()
                .map(|plan| {
                    let island = Scenario::resolve_shutdown_island(plan, &vi)?;
                    let outcome = run_shutdown_scenario(
                        &spec,
                        &vi,
                        &design.topology,
                        &sim_cfg,
                        &ShutdownScenario {
                            island,
                            stop_at_ns: plan.stop_at_ns,
                            drain_ns: plan.drain_ns,
                            post_gate_ns: plan.post_gate_ns,
                        },
                    );
                    Ok::<_, vi_noc_api::Error>(ShutdownReport { island, outcome })
                })
                .transpose()
        })
        .map_err(|e| e.to_string())?;
    let sim = sim.map(|(report, ticks)| {
        counts.ticks = ticks;
        counts.flits = report.stats.switch_flits.iter().sum();
        counts.sim_latency_ns = report.stats.avg_latency_ps().unwrap_or(0.0) / 1e3;
        report
    });

    let frontier = sweep(t, &s, &spec, &vi, &mut counts)?;
    let dyn_sweep = t.span("dynsweep.run", |_| match (&s.dyn_sweep, &frontier) {
        (Some(_), Some(f)) => dyn_sweep(&s, &spec, &vi, f).map(Some),
        (Some(_), None) => Err("a dynamic sweep needs a 'sweep' grid".to_string()),
        _ => Ok(None),
    })?;
    if let Some(run) = &dyn_sweep {
        counts.cells = run.cells as u64;
        counts.simulated = run.simulated as u64;
    }
    counts.frontier_bytes = frontier.as_ref().map_or(0, |f| f.len() as u64);

    let report = Report {
        scenario: s.name.clone(),
        spec_name: space.spec_name.clone(),
        island_count: vi.island_count(),
        explored_points: space.points.len(),
        point: point.clone(),
        realized_metrics: design.metrics.clone(),
        infeasible_links: design.infeasible_links.len(),
        sim,
        shutdown,
        frontier,
        dyn_sweep: dyn_sweep.map(|run| run.table),
    };
    let bytes = t.span("api.emit", |_| report.to_json());
    counts.report_bytes = bytes.len() as u64;
    Ok(Traced { bytes, counts })
}

/// The sweep stage, in process or through a fleet, with its refinement.
fn sweep(
    t: &mut Tracer,
    s: &Scenario,
    spec: &SocSpec,
    vi: &ViAssignment,
    counts: &mut Counts,
) -> Result<Option<String>, String> {
    let Some(grid_cfg) = &s.sweep else {
        if s.refine.is_some() || s.dyn_sweep.is_some() {
            return Err("refine/dyn_sweep need a 'sweep' grid".to_string());
        }
        return Ok(None);
    };
    let coarse = match s.sweep_workers {
        Some(workers) => via_fleet(t, s, None, workers, counts)?,
        None => {
            let grid = t.span("sweep.grid", |_| {
                SweepGrid::build(spec, vi, &s.synthesis, grid_cfg)
            });
            in_process(t, s, spec, vi, &grid, counts)
        }
    };
    let Some(plan) = &s.refine else {
        return Ok(Some(coarse));
    };
    let windows = t.span("sweep.refine", |_| {
        let parsed = parse_frontier_file(&coarse)?;
        let seeds = frontier_seeds(&parsed)?;
        Ok::<_, String>(windows_from_frontier(&seeds, &plan.grid, &plan.params))
    })?;
    if windows.is_empty() {
        return Err("no refinement window covers the fine grid".to_string());
    }
    let fine = match s.sweep_workers {
        Some(workers) => via_fleet(t, s, Some(&windows), workers, counts)?,
        None => {
            let grid = t.span("sweep.grid", |_| {
                SweepGrid::build_windowed(spec, vi, &s.synthesis, &plan.grid, windows)
            });
            in_process(t, s, spec, vi, &grid, counts)
        }
    };
    Ok(Some(fine))
}

fn in_process(
    t: &mut Tracer,
    s: &Scenario,
    spec: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    counts: &mut Counts,
) -> String {
    let runner = if s.sweep_prune {
        run_shard_pruned
    } else {
        run_shard
    };
    let run = t.span("sweep.run", |_| {
        runner(spec, vi, grid, Shard::full(), &s.synthesis)
    });
    counts.sweep.add(&run.stats);
    t.span("sweep.emit", |_| {
        let desc =
            GridDescriptor::for_grid(grid, spec.name(), &s.partition.tag(), s.synthesis.seed);
        frontier_json(&desc, &run)
    })
}

/// One grid through an ephemeral loopback fleet: coordinator plus
/// `workers` local worker threads.
fn via_fleet(
    t: &mut Tracer,
    s: &Scenario,
    windows: Option<&[RefineWindow]>,
    workers: usize,
    counts: &mut Counts,
) -> Result<String, String> {
    let payload = job_payload(s, windows);
    let (handle, pool) = t.span("fleet.start", |_| {
        let resolver: Arc<dyn JobResolver> = Arc::new(ScenarioJobResolver);
        let handle =
            start_coordinator("127.0.0.1:0", Arc::clone(&resolver), FleetConfig::default())?;
        let pool = spawn_local_workers(handle.addr(), resolver, workers, WorkerOpts::default());
        Ok::<_, String>((handle, pool))
    })?;
    let result = t.span("fleet.submit", |_| handle.submit(&payload));
    let stats = t.span("fleet.teardown", |_| {
        handle.shutdown();
        let mut total = WorkerStats::default();
        for worker in pool {
            match worker.join() {
                Ok(Ok(w)) => {
                    total.leases += w.leases;
                    total.deltas += w.deltas;
                    total.abandoned += w.abandoned;
                }
                Ok(Err(e)) => return Err(format!("worker failed: {e}")),
                Err(_) => return Err("worker thread panicked".to_string()),
            }
        }
        Ok(total)
    })?;
    counts.leases += stats.leases;
    counts.deltas += stats.deltas;
    counts.abandoned += stats.abandoned;
    let frontier = result?;
    let parsed = parse_frontier_file(&frontier)?;
    counts.sweep.add(&parsed.stats);
    Ok(frontier)
}

fn dyn_sweep(
    s: &Scenario,
    spec: &SocSpec,
    vi: &ViAssignment,
    frontier: &str,
) -> Result<vi_noc_dynsweep::DynSweepRun, String> {
    let plan = s.dyn_sweep.as_ref().expect("checked by the caller");
    let grid_cfg: &GridConfig = match (&s.refine, &s.sweep) {
        (Some(refine), _) => &refine.grid,
        (None, Some(coarse)) => coarse,
        (None, None) => return Err("a dynamic sweep needs a 'sweep' grid".to_string()),
    };
    let parsed = parse_frontier_file(frontier)?;
    let grid = SweepGrid::build(spec, vi, &s.synthesis, grid_cfg);
    let schedules = plan
        .schedules
        .iter()
        .map(|sched| {
            sched
                .as_ref()
                .map(|p| {
                    Ok(ShutdownScenario {
                        island: Scenario::resolve_shutdown_island(p, vi)?,
                        stop_at_ns: p.stop_at_ns,
                        drain_ns: p.drain_ns,
                        post_gate_ns: p.post_gate_ns,
                    })
                })
                .transpose()
        })
        .collect::<Result<Vec<_>, vi_noc_api::Error>>()
        .map_err(|e| e.to_string())?;
    let axes = SimAxes {
        loads: plan.loads.clone(),
        traffic: plan.traffic.clone(),
        schedules,
        horizon_ns: plan.horizon_ns,
    };
    let sim = s.sim.as_ref().map(|p| p.config.clone()).unwrap_or_default();
    let tag = s.partition.tag();
    let cfg: &SynthesisConfig = &s.synthesis;
    let input = DynSweepInput {
        spec,
        vi,
        cfg,
        sim: &sim,
        grid: &grid,
        partition: &tag,
        frontier: &parsed,
    };
    run_dynsweep(&input, &axes, plan.mode)
}
