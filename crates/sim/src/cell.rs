//! One dynamic-sweep cell: a full simulation of a design point under one
//! sim config, optionally with a mid-run island shutdown.
//!
//! This is the measurement primitive of the `vi-noc-dynsweep` crate, and
//! its gated branch is [`crate::run_shutdown_scenario`] (run → stop flows →
//! drain → gate → post-gate run). Load factors past saturation can leave
//! an island's own backlog unflushed within the drain budget. Such a cell
//! records `drained_cleanly: false` and skips the gate (the island keeps
//! running), instead of tearing down a whole sweep or job — the result is
//! still a deterministic, comparable measurement.

use crate::engine::{SimConfig, Simulator};
use crate::shutdown::ShutdownScenario;
use crate::stats::SimStats;
use vi_noc_core::Topology;
use vi_noc_soc::{SocSpec, ViAssignment};

/// Shutdown-phase measurements of a gated cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellShutdown {
    /// `true` iff the island drained within the budget and was gated.
    pub drained_cleanly: bool,
    /// Packets delivered by surviving flows before the gate point.
    pub survivors_before: u64,
    /// Packets delivered by surviving flows after the gate point.
    pub survivors_after: u64,
}

/// Final cumulative statistics of one cell run, plus the shutdown-phase
/// measurements when the cell carried a gate schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Cumulative stats at the end of the run.
    pub stats: SimStats,
    /// Shutdown measurements; `None` for free-running cells.
    pub shutdown: Option<CellShutdown>,
}

/// Runs one cell: `horizon_ns` of free-running traffic when `schedule` is
/// `None`, otherwise the schedule's own timeline (run to `stop_at_ns`,
/// deactivate flows touching the island, drain adaptively, gate if — and
/// only if — the island drained, then run `post_gate_ns` more).
///
/// A drain failure is not a panic; saturated cells simply report
/// `drained_cleanly: false`.
///
/// # Panics
///
/// Panics if `schedule` names an always-on island — the caller is expected
/// to validate schedules against `vi` up front (the dynsweep engine does).
pub fn run_dynamic_cell(
    spec: &SocSpec,
    vi: &ViAssignment,
    topo: &Topology,
    cfg: &SimConfig,
    horizon_ns: u64,
    schedule: Option<&ShutdownScenario>,
) -> CellOutcome {
    let mut sim = Simulator::new(spec, topo, cfg);
    let Some(sched) = schedule else {
        let stats = sim.run_for_ns(horizon_ns);
        return CellOutcome {
            stats,
            shutdown: None,
        };
    };
    assert!(
        vi.can_shutdown(sched.island),
        "island {} is always-on",
        sched.island
    );

    // Phase 1: everything runs.
    let s1 = sim.run_for_ns(sched.stop_at_ns);
    let survivor = |fid: vi_noc_soc::FlowId| {
        let f = spec.flow(fid);
        vi.island_of(f.src) != sched.island && vi.island_of(f.dst) != sched.island
    };
    let survivors_before: u64 = spec
        .flow_ids()
        .filter(|&fid| survivor(fid))
        .map(|fid| s1.flow(fid).delivered_packets)
        .sum();

    // Phase 2: stop flows terminating in the island, then drain
    // adaptively in chunks; a saturated island that misses the budget is
    // tolerated, not fatal. When the island was congested, upstream
    // domains may sit parked on its full queues — every drain pop runs
    // through the engine's wake lists (`fire_wakes`), so the stalled
    // senders re-arm at exactly the right ticks and a parked element can
    // never survive into the gate: parked implies a non-empty (full)
    // queue, which `gate_island` rejects.
    for fid in spec.flow_ids() {
        if !survivor(fid) {
            sim.deactivate_flow(fid);
        }
    }
    let mut waited = 0;
    while !sim.island_drained(sched.island) && waited < 20 {
        sim.run_for_ns(sched.drain_ns);
        waited += 1;
    }
    let drained_cleanly = sim.island_drained(sched.island);

    // Phase 3: gate only when provably empty (`gate_island` would assert).
    if drained_cleanly {
        sim.gate_island(sched.island);
    }

    // Phase 4: survivors continue.
    let stats = sim.run_for_ns(sched.post_gate_ns);
    let survivors_total: u64 = spec
        .flow_ids()
        .filter(|&fid| survivor(fid))
        .map(|fid| stats.flow(fid).delivered_packets)
        .sum();

    CellOutcome {
        shutdown: Some(CellShutdown {
            drained_cleanly,
            survivors_before,
            survivors_after: survivors_total - survivors_before,
        }),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_shutdown_scenario;
    use vi_noc_core::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    fn design() -> (SocSpec, ViAssignment, Topology) {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = space.min_power_point().unwrap().topology.clone();
        (soc, vi, topo)
    }

    #[test]
    fn free_running_cell_equals_a_plain_run() {
        let (soc, vi, topo) = design();
        let cfg = SimConfig::default();
        let cell = run_dynamic_cell(&soc, &vi, &topo, &cfg, 20_000, None);
        let mut sim = Simulator::new(&soc, &topo, &cfg);
        let reference = sim.run_for_ns(20_000);
        assert_eq!(cell.stats, reference);
        assert!(cell.shutdown.is_none());
    }

    #[test]
    fn gated_cell_agrees_with_the_shutdown_scenario_runner() {
        let (soc, vi, topo) = design();
        let island = (0..vi.island_count())
            .find(|&j| vi.can_shutdown(j))
            .expect("some island can shut down");
        let sched = ShutdownScenario {
            island,
            stop_at_ns: 5_000,
            drain_ns: 3_000,
            post_gate_ns: 8_000,
        };
        let cfg = SimConfig::default();
        let cell = run_dynamic_cell(&soc, &vi, &topo, &cfg, 0, Some(&sched));
        let reference = run_shutdown_scenario(&soc, &vi, &topo, &cfg, &sched);
        let shut = cell.shutdown.expect("gated cell records shutdown");
        assert!(shut.drained_cleanly);
        assert_eq!(shut.survivors_before, reference.survivors_before);
        assert_eq!(shut.survivors_after, reference.survivors_after);
        assert_eq!(
            cell.stats.total_delivered_packets(),
            reference.total_delivered
        );
    }
}
