//! Layer-isolating scenario benchmark for the vi-noc flow.
//!
//! ```text
//! perfbench --workload <place_synth|gating_sim|dse_sweep|fleet_sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--double floorplan|sim|grid]
//! ```
//!
//! One process, one closed-loop client thread. The seed generates a pool
//! of scenario documents (`gen`); every job sends one document through
//! `Scenario::from_json` → `Scenario::run` → `Report::to_json`, cycling
//! through the pool for `--seconds`. With `--trace 1` every job is also
//! re-run as the hand-chained public calls `Scenario::run` makes, with a
//! span around each call (`trace`), and per-layer metrics are reported
//! instead of end-to-end ones. The last stdout line is the JSON result.

mod gen;
mod job;
mod stats;
mod trace;

use gen::{Doc, Doubling, Workload};
use job::{golden_self_check, inprocess_frontier, run_job, validate, JobOutput, ModelOutputs};
use stats::{hd_median, mean, median, result_line, tail, usage, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{run_traced, Counts, Tracer, CALLS};

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    double: Doubling,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut double = Doubling::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "bad --seconds".to_string())?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--double" => {
                double = Doubling::parse(&value).ok_or(format!("unknown --double '{value}'"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace,
        double,
    })
}

/// A workload's inputs, ready to run.
struct Setup {
    pool: Vec<Doc>,
    /// `fleet_sweep` only: each document's in-process frontier.
    references: Vec<Option<String>>,
}

/// Generates the pool, computes the fleet reference frontiers and runs one
/// discarded warm-up job (the pool's warm-up document).
fn set_up(args: &Args) -> Result<Setup, String> {
    let pool = gen::pool(args.workload, args.seed, args.double);
    let references = pool
        .iter()
        .map(|doc| match args.workload {
            Workload::FleetSweep => inprocess_frontier(&doc.json).map(Some),
            _ => Ok(None),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warm = pool.iter().find(|d| d.warm_up).expect("a warm-up document");
    run_job(&warm.json).map_err(|e| format!("warm-up '{}': {e}", warm.label))?;
    Ok(Setup { pool, references })
}

/// The correctness bookkeeping behind `ok_frac`: a document's first report
/// is fully validated; every repeat must be byte-identical to it.
struct Checker {
    first: Vec<Option<String>>,
    models: Vec<Option<ModelOutputs>>,
    failures: Vec<String>,
}

impl Checker {
    fn new(n: usize) -> Checker {
        Checker {
            first: vec![None; n],
            models: vec![None; n],
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, doc: &Doc, why: String) -> bool {
        self.failures.push(format!("{}: {why}", doc.label));
        false
    }

    /// Checks job output `out` of document `i`; `true` when it passes.
    fn check(&mut self, setup: &Setup, i: usize, out: Result<JobOutput, String>) -> bool {
        let doc = &setup.pool[i];
        let out = match out {
            Ok(out) => out,
            Err(e) => return self.fail(doc, e),
        };
        if let Some(first) = &self.first[i] {
            if *first != out.bytes {
                return self.fail(doc, "report bytes differ between repeats".to_string());
            }
            return true;
        }
        if let Err(e) = validate(&doc.json, &out, setup.references[i].as_deref()) {
            return self.fail(doc, e);
        }
        self.models[i] = Some(ModelOutputs::of(&out.report));
        self.first[i] = Some(out.bytes);
        true
    }

    fn mean_model(&self, f: impl Fn(&ModelOutputs) -> Option<f64>) -> f64 {
        let xs: Vec<f64> = self.models.iter().flatten().filter_map(f).collect();
        mean(&xs)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for r in 0..SETUP_REPEATS {
        let t = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        let next = set_up(args)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup.as_ref().is_some_and(|prev| prev.pool != next.pool) {
            return Err("the same seed generated different documents".to_string());
        }
        setup = Some(next);
    }
    let setup = setup.expect("at least one set-up");
    println!(
        "workload {} seed {}: {} documents, set-up {:.3} s (median of {SETUP_REPEATS}), \
         available parallelism {}",
        args.workload.name(),
        args.seed,
        setup.pool.len(),
        median(&setup_s),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if args.trace {
        traced_run(args, &setup)
    } else {
        timed_run(args, &setup, median(&setup_s))
    }
}

/// Whether the loop may stop before job `done`: only at the end of a whole
/// pass over the `n` documents, so every document weighs the same, once
/// the time is up and the tail has its samples.
fn loop_done(t0: Instant, args: &Args, done: usize, n: usize) -> bool {
    done.is_multiple_of(n)
        && done > stats::TAIL_BEYOND
        && t0.elapsed().as_secs_f64() >= args.seconds
}

fn report_failures(checker: &Checker, golden: &Result<(), String>) -> bool {
    for f in checker.failures.iter().take(5) {
        eprintln!("perfbench: check failed: {f}");
    }
    if let Err(e) = golden {
        eprintln!("perfbench: {e}");
    }
    checker.failures.is_empty() && golden.is_ok()
}

fn timed_run(args: &Args, setup: &Setup, setup_s: f64) -> Result<String, String> {
    let n = setup.pool.len();
    let mut checker = Checker::new(n);
    let mut walls = Vec::new();
    let mut ok = 0u64;
    let cpu0 = usage().cpu_ms;
    let t0 = Instant::now();
    while !loop_done(t0, args, walls.len(), n) {
        let i = walls.len() % n;
        let start = Instant::now();
        let out = run_job(&setup.pool[i].json);
        walls.push(ms(start.elapsed()));
        ok += u64::from(checker.check(setup, i, out));
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let used = usage();
    let golden = golden_self_check();
    let correct = report_failures(&checker, &golden);

    for (i, doc) in setup.pool.iter().enumerate() {
        let own: Vec<f64> = walls.iter().skip(i).step_by(n).copied().collect();
        let (lo, hi) = own
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        println!(
            "{:10.2} ms  ({lo:.2}..{hi:.2})  {}",
            median(&own),
            doc.label
        );
    }
    let attempted = walls.len() as u64;
    let (pct, tail_ms) = tail(&walls).expect("loop runs past the tail's sample count");
    println!(
        "job_tail_ms is p{pct:.2} of {attempted} jobs ({} beyond); loop {loop_s:.2} s",
        stats::TAIL_BEYOND
    );
    let values = [
        ("setup_s", setup_s),
        ("job_p50_ms", hd_median(&walls)),
        ("job_tail_ms", tail_ms),
        ("jobs_per_s", ok as f64 / loop_s),
        ("cpu_ms_per_job", (used.cpu_ms - cpu0) / attempted as f64),
        ("ok_frac", ok as f64 / attempted as f64),
        ("peak_rss_mb", used.peak_rss_mb),
        ("noc_power_mw", checker.mean_model(|m| Some(m.noc_power_mw))),
        (
            "zero_load_latency_cyc",
            checker.mean_model(|m| Some(m.zero_load_latency_cyc)),
        ),
    ];
    Ok(result_line(
        correct,
        attempted,
        attempted - ok,
        &END_TO_END,
        &values,
    ))
}

/// Per-document samples of the traced run.
#[derive(Default)]
struct DocTrace {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Per traced job: wall time of each call in [`CALLS`] order, ms.
    calls_ms: Vec<[f64; CALLS.len()]>,
    /// `fleet_sweep`: in-process `sweep.run` time of the same grids, ms.
    inprocess_run_ms: Vec<f64>,
    counts: Option<Counts>,
}

impl DocTrace {
    fn call_ms(&self, name: &str) -> f64 {
        let k = call_index(name);
        median(&self.calls_ms.iter().map(|c| c[k]).collect::<Vec<_>>())
    }
}

/// Index of call `name` in [`CALLS`].
fn call_index(name: &str) -> usize {
    CALLS.iter().position(|c| *c == name).expect("a known call")
}

/// Wall time of each call in [`CALLS`] order over the spans from `from` on.
fn calls_of(tracer: &Tracer, from: usize) -> [f64; CALLS.len()] {
    let mut out = [0.0; CALLS.len()];
    for span in &tracer.spans()[from..] {
        if let Some(k) = CALLS.iter().position(|c| *c == span.name) {
            out[k] += span.ms();
        }
    }
    out
}

/// The in-process `sweep.run` time of a fleet document's grids: the same
/// document with `sweep_workers` unset, traced under a scratch tracer.
fn inprocess_run_ms(doc: &str) -> Result<f64, String> {
    let mut scenario = vi_noc_api::Scenario::from_json(doc).map_err(|e| e.to_string())?;
    scenario.sweep_workers = None;
    let mut scratch = Tracer::new();
    run_traced(&mut scratch, 0, &scenario.to_json())?;
    Ok(calls_of(&scratch, 0)[call_index("sweep.run")])
}

fn traced_run(args: &Args, setup: &Setup) -> Result<String, String> {
    let n = setup.pool.len();
    let fleet = args.workload == Workload::FleetSweep;
    let mut checker = Checker::new(n);
    let mut docs: Vec<DocTrace> = (0..n).map(|_| DocTrace::default()).collect();
    let mut tracer = Tracer::new();
    let mut attempted = 0u64;
    let mut ok = 0u64;
    let t0 = Instant::now();
    let mut job = 0usize;
    while !loop_done(t0, args, job, n) {
        let i = job % n;
        let doc = &setup.pool[i];
        let start = Instant::now();
        let out = run_job(&doc.json);
        docs[i].untraced_ms.push(ms(start.elapsed()));
        attempted += 1;
        let passed = checker.check(setup, i, out);
        ok += u64::from(passed);

        let from = tracer.spans().len();
        let start = Instant::now();
        let traced = run_traced(&mut tracer, job as u64, &doc.json);
        docs[i].traced_ms.push(ms(start.elapsed()));
        docs[i].calls_ms.push(calls_of(&tracer, from));
        attempted += 1;
        let traced_ok = match traced {
            Err(e) => checker.fail(doc, format!("traced: {e}")),
            Ok(_) if !passed => false,
            Ok(t) if checker.first[i].as_deref() != Some(t.bytes.as_str()) => checker.fail(
                doc,
                "hand-chained outputs differ from Scenario::run".to_string(),
            ),
            Ok(t) if docs[i].counts.is_some_and(|c| c != t.counts) => {
                checker.fail(doc, "work counts differ between repeats".to_string())
            }
            Ok(t) => {
                docs[i].counts = Some(t.counts);
                true
            }
        };
        ok += u64::from(traced_ok);
        if fleet {
            docs[i].inprocess_run_ms.push(inprocess_run_ms(&doc.json)?);
        }
        job += 1;
    }
    let golden = golden_self_check();
    let correct = report_failures(&checker, &golden);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-{}.jsonl", args.workload.name(), args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
        .map_err(|e| format!("{path}: {e}"))?;

    let values = layer_metrics(&docs);
    print_isolation_table(args.workload, &values);
    println!("spans: {} written to {path}", tracer.spans().len());
    Ok(result_line(
        correct,
        attempted,
        attempted - ok,
        &PER_LAYER,
        &values,
    ))
}

/// Per-layer metrics: times are the mean over documents of each
/// document's median per-job time; counts are per-job means over the pool
/// (deterministic for a seed); shares are of the traced job wall.
fn layer_metrics(docs: &[DocTrace]) -> Vec<(&'static str, f64)> {
    let over_docs = |f: &dyn Fn(&DocTrace) -> f64| mean(&docs.iter().map(f).collect::<Vec<_>>());
    let t = |name: &str| over_docs(&|d| d.call_ms(name));
    let c = |f: &dyn Fn(&Counts) -> f64| {
        mean(
            &docs
                .iter()
                .filter_map(|d| d.counts.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    // A per-unit cost is 0 on a workload that does none of that work.
    let per = |x: f64, count: f64| if count > 0.0 { x / count } else { 0.0 };
    let job_ms = over_docs(&|d| median(&d.traced_ms));
    let untraced_ms = over_docs(&|d| median(&d.untraced_ms));
    let inprocess = over_docs(&|d| median(&d.inprocess_run_ms));
    let share = |x: f64| x / job_ms;

    let api = t("api.ingest") + t("api.emit");
    let sim = t("sim.run") + t("sim.shutdown") + t("sim.power");
    let sweep = t("sweep.grid") + t("sweep.run") + t("sweep.emit") + t("sweep.refine");
    let fleet = t("fleet.start") + t("fleet.submit") + t("fleet.teardown");
    let chains = c(&|k| k.sweep.chains as f64);
    let evaluated = c(&|k| (k.sweep.feasible + k.sweep.duplicates + k.sweep.infeasible) as f64);
    let cells = c(&|k| k.cells as f64);
    vec![
        ("api.ingest_ms", t("api.ingest")),
        ("api.report_emit_ms", t("api.emit")),
        ("api.report_bytes", c(&|k| k.report_bytes as f64)),
        ("api.share", share(api)),
        ("soc.resolve_ms", t("soc.resolve")),
        ("soc.share", share(t("soc.resolve"))),
        ("core.synthesize_ms", t("core.synthesize")),
        ("core.design_points", c(&|k| k.design_points as f64)),
        ("core.share", share(t("core.synthesize"))),
        ("floorplan.realize_ms", t("floorplan.realize")),
        ("floorplan.moves", c(&|k| k.moves as f64)),
        (
            "floorplan.ns_per_move",
            per(t("floorplan.realize") * 1e6, c(&|k| k.moves as f64)),
        ),
        ("floorplan.share", share(t("floorplan.realize"))),
        ("sim.run_ms", t("sim.run")),
        ("sim.shutdown_ms", t("sim.shutdown")),
        ("sim.power_ms", t("sim.power")),
        ("sim.ticks", c(&|k| k.ticks as f64)),
        ("sim.flits", c(&|k| k.flits as f64)),
        (
            "sim.ns_per_tick",
            per(t("sim.run") * 1e6, c(&|k| k.ticks as f64)),
        ),
        ("sim.latency_ns", c(&|k| k.sim_latency_ns)),
        ("sim.share", share(sim)),
        ("sweep.grid_ms", t("sweep.grid")),
        ("sweep.run_ms", t("sweep.run")),
        ("sweep.chains", chains),
        (
            "sweep.inactive_chains",
            c(&|k| k.sweep.inactive_chains as f64),
        ),
        ("sweep.feasible", c(&|k| k.sweep.feasible as f64)),
        ("sweep.duplicates", c(&|k| k.sweep.duplicates as f64)),
        ("sweep.infeasible", c(&|k| k.sweep.infeasible as f64)),
        (
            "sweep.feasible_frac",
            per(c(&|k| k.sweep.feasible as f64), evaluated),
        ),
        // In-process chain time per chain; on fleet_sweep the chains run
        // in the fleet, so the in-process run of the same grids stands in.
        (
            "sweep.us_per_chain",
            per((t("sweep.run") + inprocess) * 1e3, chains),
        ),
        ("sweep.emit_ms", t("sweep.emit")),
        ("sweep.refine_ms", t("sweep.refine")),
        ("sweep.frontier_bytes", c(&|k| k.frontier_bytes as f64)),
        ("sweep.share", share(sweep)),
        ("dynsweep.run_ms", t("dynsweep.run")),
        ("dynsweep.cells", cells),
        ("dynsweep.simulated", c(&|k| k.simulated as f64)),
        ("dynsweep.sim_frac", per(c(&|k| k.simulated as f64), cells)),
        ("dynsweep.ms_per_cell", per(t("dynsweep.run"), cells)),
        ("dynsweep.share", share(t("dynsweep.run"))),
        ("fleet.start_ms", t("fleet.start")),
        ("fleet.submit_ms", t("fleet.submit")),
        ("fleet.teardown_ms", t("fleet.teardown")),
        ("fleet.leases", c(&|k| k.leases as f64)),
        ("fleet.deltas", c(&|k| k.deltas as f64)),
        ("fleet.abandoned", c(&|k| k.abandoned as f64)),
        ("fleet.overhead_x", per(t("fleet.submit"), inprocess)),
        ("fleet.share", share(fleet - inprocess)),
        ("trace.job_ms", job_ms),
        ("trace.untraced_job_ms", untraced_ms),
        ("trace.overhead_frac", job_ms / untraced_ms - 1.0),
    ]
}

/// Prints each layer's share of the traced job wall.
fn print_isolation_table(workload: Workload, values: &[(&str, f64)]) {
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let job_ms = get("trace.job_ms");
    println!(
        "layer isolation, {} (traced job {job_ms:.2} ms):",
        workload.name()
    );
    println!("| layer | ms/job | share |");
    println!("|---|---:|---:|");
    let mut accounted = 0.0;
    for layer in [
        "api",
        "soc",
        "core",
        "floorplan",
        "sim",
        "sweep",
        "dynsweep",
        "fleet",
    ] {
        let share = get(&format!("{layer}.share"));
        accounted += share;
        let label = if layer == "fleet" {
            "fleet (overhead over in-process)"
        } else {
            layer
        };
        println!(
            "| {label} | {:.3} | {:.1}% |",
            share * job_ms,
            100.0 * share
        );
    }
    let fleet_chains = get("fleet.submit_ms") + get("fleet.start_ms") + get("fleet.teardown_ms")
        - get("fleet.share") * job_ms;
    if get("fleet.overhead_x") > 0.0 {
        accounted += fleet_chains / job_ms;
        println!(
            "| fleet chain work (in-process equivalent) | {fleet_chains:.3} | {:.1}% |",
            100.0 * fleet_chains / job_ms
        );
    }
    println!(
        "| other | {:.3} | {:.1}% |",
        (1.0 - accounted) * job_ms,
        100.0 * (1.0 - accounted)
    );
}
