//! Seeded scenario-document generator: one pool of `vi-noc-scenario-v1`
//! documents per workload.
//!
//! Every pool is a fixed design: each slot's spec class, partition kind,
//! island-count target, load level, horizon stratum and grid shape are set
//! by the slot, and the seed draws the details inside it — synthetic SoCs
//! (and their size within a narrow band), partitioner seeds, exact loads,
//! horizons and frequency scales, annealer move budgets, sim seeds and the
//! job order. Island counts are always ones the spec accepts. So pools of
//! different seeds cost about the same and a run's statistics are stable
//! across seeds. Documents are produced with `Scenario::to_json`, so the
//! program under test only ever sees the documents.

use vi_noc_api::{
    DynSweepPlan, IslandChoice, PartitionPlan, RefinePlan, Scenario, ShutdownPlan, SimPlan,
    SpecSource,
};
use vi_noc_dynsweep::Mode;
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_sim::{SimConfig, TrafficKind};
use vi_noc_soc::{generate_synthetic, partition, SocSpec, SyntheticConfig};
use vi_noc_sweep::{GridConfig, RefineParams};

/// The benchmark's workloads. Each one gives one optimisable layer most of
/// its job wall time and keeps others at little or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synthesis + floorplan annealer at the default floorplan config.
    PlaceSynth,
    /// Flit-level simulation + island gating on a lightened floorplan.
    GatingSim,
    /// In-process design-space sweeps (prune/refine, some dynamic sweeps).
    DseSweep,
    /// The `dse_sweep` grid mix routed through a two-worker fleet.
    FleetSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PlaceSynth,
        Workload::GatingSim,
        Workload::DseSweep,
        Workload::FleetSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlaceSynth => "place_synth",
            Workload::GatingSim => "gating_sim",
            Workload::DseSweep => "dse_sweep",
            Workload::FleetSweep => "fleet_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input-only work multipliers for the sensitivity calibration
/// (`--double floorplan|sim|grid`). All `false` in measured runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Doubling {
    /// Double the annealer's `iterations`.
    pub floorplan: bool,
    /// Double the sim stage's horizon and shutdown timeline (dynamic
    /// sweeps, a layer of their own, keep theirs).
    pub sim: bool,
    /// Double the number of frequency scales of every sweep grid.
    pub grid: bool,
}

impl Doubling {
    /// Parses the `--double` argument.
    pub fn parse(layer: &str) -> Option<Doubling> {
        let mut d = Doubling::default();
        match layer {
            "floorplan" => d.floorplan = true,
            "sim" => d.sim = true,
            "grid" => d.grid = true,
            _ => return None,
        }
        Some(d)
    }
}

/// One generated scenario document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// Short human label (spec, partition, stage mix).
    pub label: String,
    /// The scenario document, exactly as the program receives it.
    pub json: String,
    /// Whether this is the pool's warm-up document: a d26 document in the
    /// same design slot for every seed, so set-up costs the same.
    pub warm_up: bool,
}

/// splitmix64: a tiny, dependency-free, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Rounds to two decimals so generated numbers stay short in documents.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// A seeded synthetic SoC whose core count lies in `lo..=hi`.
fn synthetic(rng: &mut Rng, lo: u64, hi: u64) -> SocSpec {
    generate_synthetic(&SyntheticConfig {
        n_cores: rng.range(lo, hi) as usize,
        seed: rng.range(1, 1 << 30),
        ..SyntheticConfig::default()
    })
}

fn bundled(name: &str) -> SocSpec {
    vi_noc_api::benchmark_by_name(name).expect("bundled benchmark")
}

/// The plans among `plans` that `spec` realizes — only those are ever
/// drawn, so no generated document fails partitioning. With `gateable`,
/// the partition must also have an island that can shut down.
fn accepted(
    spec: &SocSpec,
    plans: impl Iterator<Item = PartitionPlan>,
    gateable: bool,
) -> Vec<PartitionPlan> {
    plans
        .filter(|plan| {
            let vi = match *plan {
                PartitionPlan::Logical { islands } => partition::logical_partition(spec, islands),
                PartitionPlan::Communication { islands, seed } => {
                    partition::communication_partition(spec, islands, seed)
                }
            };
            vi.is_ok_and(|vi| !gateable || (0..vi.island_count()).any(|j| vi.can_shutdown(j)))
        })
        .collect()
}

/// A partition plan for `spec`, logical or communication (seeded
/// partitioner), whose island count is the accepted count in `counts`
/// nearest to `target`.
fn partition_plan(
    rng: &mut Rng,
    spec: &SocSpec,
    comm: bool,
    counts: std::ops::RangeInclusive<usize>,
    target: usize,
    gateable: bool,
) -> PartitionPlan {
    let seed = rng.range(1, 1000);
    let plans = counts.map(|islands| match comm {
        true => PartitionPlan::Communication { islands, seed },
        false => PartitionPlan::Logical { islands },
    });
    let islands = |p: &PartitionPlan| match *p {
        PartitionPlan::Logical { islands } | PartitionPlan::Communication { islands, .. } => {
            islands
        }
    };
    accepted(spec, plans, gateable)
        .into_iter()
        .min_by_key(|p| islands(p).abs_diff(target))
        .expect("some island count in range is accepted")
}

fn spec_source(name: Option<&str>, spec: &SocSpec) -> SpecSource {
    match name {
        Some(n) => SpecSource::Benchmark(n.to_string()),
        None => SpecSource::Inline(spec.clone()),
    }
}

/// The floorplan of every workload but `place_synth`: one restart of
/// about `moves` moves, so the annealer stays a few percent of job wall.
fn light_floorplan(rng: &mut Rng, d: Doubling, moves: u64) -> FloorplanConfig {
    let iterations = rng.range(moves * 9 / 10, moves * 11 / 10) as usize;
    FloorplanConfig {
        iterations: if d.floorplan {
            2 * iterations
        } else {
            iterations
        },
        restarts: 1,
        ..FloorplanConfig::default()
    }
}

fn default_floorplan(d: Doubling) -> FloorplanConfig {
    let fp = FloorplanConfig::default();
    FloorplanConfig {
        iterations: if d.floorplan {
            2 * fp.iterations
        } else {
            fp.iterations
        },
        ..fp
    }
}

/// Emits the documents in seeded order; design slot `warm_up` becomes the
/// warm-up document.
fn finish(docs: Vec<Scenario>, rng: &mut Rng, warm_up: usize) -> Vec<Doc> {
    let mut docs: Vec<Doc> = docs
        .into_iter()
        .enumerate()
        .map(|(i, s)| Doc {
            label: s.name.clone(),
            json: s.to_json(),
            warm_up: i == warm_up,
        })
        .collect();
    rng.shuffle(&mut docs);
    docs
}

fn label_of(spec: &SocSpec, plan: &PartitionPlan) -> String {
    format!("{}/{}", spec.name(), plan.tag())
}

/// `place_synth`: the five bundled specs plus twenty synthetic SoCs, one in
/// each 2.5-core step from 17 to 64 cores, logical and communication
/// partitions, the default floorplan config, no sim and no sweep.
fn place_synth(rng: &mut Rng, d: Doubling) -> Vec<Doc> {
    let mut docs = Vec::new();
    let mut specs: Vec<(Option<&str>, SocSpec)> = ["d12", "d16", "d20", "d26", "d36"]
        .into_iter()
        .map(|n| (Some(n), bundled(n)))
        .collect();
    for step in 0..20u64 {
        let center = 17 + 47 * step / 19;
        specs.push((None, synthetic(rng, center - 1, center + 1)));
    }
    for (i, (name, spec)) in specs.iter().enumerate() {
        // Alternate partition kinds so every pool has both in equal measure.
        let plan = partition_plan(rng, spec, i % 2 == 1, 3..=6, 3 + i % 4, false);
        let mut s = Scenario::new(label_of(spec, &plan), spec_source(*name, spec), plan);
        s.floorplan = default_floorplan(d);
        docs.push(s);
    }
    finish(docs, rng, 3)
}

/// `gating_sim`: d26, d36 and synthetic SoCs of about 30 and 42 cores, each
/// twice at a light, a near-saturated and an overload level, every job
/// with a shutdown schedule, on a lightened floorplan. The design is a
/// fixed factorial — spec × load level × replicate, with horizon stratum,
/// traffic kind, partition kind and island count set by the cell — and the
/// seed draws the details: the near-saturated load, horizon jitter,
/// synthetic SoCs, partitioner and sim seeds.
fn gating_sim(rng: &mut Rng, d: Doubling) -> Vec<Doc> {
    let mut docs = Vec::new();
    for j in 0..24 {
        let (rep, si, level) = (j / 12, j / 3 % 4, j % 3);
        let (name, spec) = match si {
            0 => (Some("d26"), bundled("d26")),
            1 => (Some("d36"), bundled("d36")),
            2 => (None, synthetic(rng, 29, 31)),
            _ => (None, synthetic(rng, 41, 43)),
        };
        let load = match level {
            0 => 0.3,
            1 => round2(0.8 + 0.1 * (rep as f64 + rng.unit())),
            _ => 1.2,
        };
        let traffic = if (si + level + rep) % 2 == 0 {
            TrafficKind::Cbr
        } else {
            TrafficKind::Poisson
        };
        let plan = partition_plan(
            rng,
            &spec,
            level == 1,
            4..=6,
            [4, 5, 6][(si + level + rep) % 3],
            true,
        );
        // One horizon stratum of 100–300 µs per cell, spread over the
        // cells by a fixed permutation (7 is coprime to 24).
        let stratum = (7 * j as u64) % 24;
        let horizon = (100_000 + 200_000 * stratum / 24 + rng.range(0, 200_000 / 24)) / 1000 * 1000;
        let horizon_ns = if d.sim { 2 * horizon } else { horizon };
        let mut s = Scenario::new(
            format!("{} {traffic}@{load}", label_of(&spec, &plan)),
            spec_source(name, &spec),
            plan,
        );
        s.floorplan = light_floorplan(rng, d, 2000);
        s.sim = Some(SimPlan {
            config: SimConfig {
                traffic,
                load_factor: load,
                seed: rng.range(1, 1 << 20),
                ..SimConfig::default()
            },
            horizon_ns,
        });
        // The shutdown experiment runs a timeline about as long as the
        // free-running horizon: stop flows halfway, drain, run on. Under
        // overload the staged backlog grows with the time before the stop
        // and drains slowly against surviving overload traffic, so overload
        // jobs stop early (like `scenarios/d26_saturated.json`) and drain
        // in 100 µs chunks: the runner gives up after 20 chunks, and some
        // overloaded islands need more than 20 × 25 µs.
        let scale = if d.sim { 2 } else { 1 };
        let (stop_at_ns, drain_ns) = match level {
            2 => (scale * rng.range(6, 10) * 1000, scale * 100_000),
            _ => (horizon_ns / 2, scale * 10_000),
        };
        s.shutdown = Some(ShutdownPlan {
            island: IslandChoice::Auto,
            stop_at_ns,
            drain_ns,
            post_gate_ns: horizon_ns - stop_at_ns,
        });
        docs.push(s);
    }
    finish(docs, rng, 0)
}

/// A coarse grid of `n_scales` frequency scales (seeded values) and
/// `max_intermediate` intermediate switches, with boost 1.
fn coarse_grid(rng: &mut Rng, d: Doubling, n_scales: usize, max_intermediate: usize) -> GridConfig {
    let mut freq_scales = vec![1.0];
    for i in 1..n_scales {
        freq_scales.push(round2(1.0 + 0.08 * i as f64 + 0.02 * rng.unit()));
    }
    GridConfig {
        max_boost: 1,
        freq_scales: double_scales(freq_scales, d),
        max_intermediate,
    }
}

/// With `d.grid`, inserts one extra scale after every scale, doubling
/// the grid's chain count.
fn double_scales(scales: Vec<f64>, d: Doubling) -> Vec<f64> {
    if !d.grid {
        return scales;
    }
    scales.iter().flat_map(|&s| [s, round2(s + 0.03)]).collect()
}

/// The fine grid of a refinement: the coarse scales plus midpoints, one
/// more intermediate switch.
fn refine_plan(coarse: &GridConfig) -> RefinePlan {
    let mut freq_scales = Vec::new();
    for &s in &coarse.freq_scales {
        freq_scales.push(s);
        freq_scales.push(round2(s + 0.02));
    }
    RefinePlan {
        grid: GridConfig {
            max_boost: coarse.max_boost,
            freq_scales,
            max_intermediate: coarse.max_intermediate + 1,
        },
        params: RefineParams {
            boost_radius: 1,
            base_radius: 1,
            scale_window: 0.05,
        },
    }
}

/// A small exact dynamic sweep: two loads, one or two traffic kinds, a
/// free-running and a gated schedule, a horizon of about 4 µs.
fn dyn_plan(rng: &mut Rng, both_traffic: bool) -> DynSweepPlan {
    let horizon = rng.range(36, 44) * 100;
    DynSweepPlan {
        loads: vec![0.5, round2(0.9 + 0.2 * rng.unit())],
        traffic: if both_traffic {
            vec![TrafficKind::Cbr, TrafficKind::Poisson]
        } else {
            vec![TrafficKind::Cbr]
        },
        schedules: vec![
            None,
            Some(ShutdownPlan {
                island: IslandChoice::Auto,
                stop_at_ns: horizon / 4,
                drain_ns: horizon / 4,
                post_gate_ns: horizon / 2,
            }),
        ],
        horizon_ns: horizon,
        mode: Mode::Exact,
    }
}

/// The sweep pool shared by `dse_sweep` and `fleet_sweep`: d16, d20, d26,
/// d36 and a synthetic SoC of 27–29 cores in turn, each with a coarse
/// grid; half the jobs prune and refine. Job `i`'s grid shape (2 or 3
/// scales, 2–4 intermediates, refinement) and island count are fixed by
/// its slot, so every pool holds the same mix; the seed draws scale values
/// and the synthetic SoCs. `dyn_every` adds a dynamic sweep to every n-th job;
/// `workers` routes the sweep through a fleet.
fn sweep_pool(
    rng: &mut Rng,
    d: Doubling,
    n: usize,
    dyn_every: Option<usize>,
    workers: Option<usize>,
) -> Vec<Doc> {
    let mut docs = Vec::new();
    for i in 0..n {
        let (slot, block) = (i % 5, i / 5);
        let (name, spec) = match ["d16", "d20", "d26", "d36"].get(slot) {
            Some(&n) => (Some(n), bundled(n)),
            None => (None, synthetic(rng, 27, 29)),
        };
        let plan = partition_plan(rng, &spec, false, 5..=6, 5 + block / 2 % 2, true);
        let grid = coarse_grid(rng, d, 2 + block % 2, 2 + i % 3);
        let refine = (slot + block) % 2 == 1;
        let mut s = Scenario::new(
            format!(
                "{} b{}s{}k{}{}",
                label_of(&spec, &plan),
                grid.max_boost,
                grid.freq_scales.len(),
                grid.max_intermediate,
                if refine { " refine" } else { "" }
            ),
            spec_source(name, &spec),
            plan,
        );
        s.floorplan = light_floorplan(rng, d, 300);
        if refine {
            s.sweep_prune = true;
            s.refine = Some(refine_plan(&grid));
        }
        if let Some(k) = dyn_every.filter(|k| i % k == 0) {
            s.dyn_sweep = Some(dyn_plan(rng, (i / k) % 2 == 1));
            s.name.push_str(" dyn");
        }
        s.sweep = Some(grid);
        s.sweep_workers = workers;
        docs.push(s);
    }
    finish(docs, rng, 2)
}

/// The seeded document pool of `workload`. Equal seeds give byte-identical
/// pools.
pub fn pool(workload: Workload, seed: u64, d: Doubling) -> Vec<Doc> {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    match workload {
        Workload::PlaceSynth => place_synth(&mut rng, d),
        Workload::GatingSim => gating_sim(&mut rng, d),
        Workload::DseSweep => sweep_pool(&mut rng, d, 60, Some(3), None),
        Workload::FleetSweep => sweep_pool(&mut rng, d, 15, None, Some(2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_documents() {
        for w in Workload::ALL {
            assert_eq!(
                pool(w, 7, Doubling::default()),
                pool(w, 7, Doubling::default())
            );
            assert_ne!(
                pool(w, 7, Doubling::default()),
                pool(w, 8, Doubling::default())
            );
        }
    }

    #[test]
    fn every_pool_has_one_d26_warm_up_document() {
        for w in Workload::ALL {
            let warm: Vec<Doc> = pool(w, 5, Doubling::default())
                .into_iter()
                .filter(|d| d.warm_up)
                .collect();
            assert_eq!(warm.len(), 1, "{}", w.name());
            assert!(warm[0].label.starts_with("d26"), "{}", warm[0].label);
        }
    }

    #[test]
    fn every_document_parses_and_partitions() {
        for w in Workload::ALL {
            for seed in 1..4 {
                for doc in pool(w, seed, Doubling::default()) {
                    let s = Scenario::from_json(&doc.json).expect("document parses");
                    assert_eq!(s.to_json(), doc.json, "round trip");
                    let spec = s.resolve_spec().unwrap();
                    s.resolve_partition(&spec).expect("accepted island count");
                }
            }
        }
    }

    #[test]
    fn doubling_only_touches_its_knob() {
        let base = pool(Workload::PlaceSynth, 3, Doubling::default());
        let twice = pool(
            Workload::PlaceSynth,
            3,
            Doubling::parse("floorplan").unwrap(),
        );
        for (a, b) in base.iter().zip(&twice) {
            let (a, b) = (
                Scenario::from_json(&a.json).unwrap(),
                Scenario::from_json(&b.json).unwrap(),
            );
            assert_eq!(2 * a.floorplan.iterations, b.floorplan.iterations);
            assert_eq!(a.spec, b.spec);
        }
        assert!(Doubling::parse("cache").is_none());
    }
}
