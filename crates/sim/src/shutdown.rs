//! Island shutdown scenarios: drain, gate, and verify surviving traffic.

use crate::cell::run_dynamic_cell;
use crate::engine::SimConfig;
use vi_noc_core::Topology;
use vi_noc_soc::{SocSpec, ViAssignment};

/// A shutdown experiment: gate `island` partway through a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownScenario {
    /// The (real) island to power-gate.
    pub island: usize,
    /// Time to stop flows touching the island, ns.
    pub stop_at_ns: u64,
    /// Extra drain time before gating, ns.
    pub drain_ns: u64,
    /// Additional runtime after gating, ns.
    pub post_gate_ns: u64,
}

impl Default for ShutdownScenario {
    fn default() -> Self {
        ShutdownScenario {
            island: 0,
            stop_at_ns: 30_000,
            drain_ns: 10_000,
            post_gate_ns: 60_000,
        }
    }
}

/// Outcome of a shutdown scenario run.
///
/// Compares exactly (`PartialEq`), so the batching equivalence suite can
/// assert that event-batched and cycle-stepped scenario runs agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownOutcome {
    /// Packets delivered by surviving flows before the gate.
    pub survivors_before: u64,
    /// Packets delivered by surviving flows after the gate.
    pub survivors_after: u64,
    /// Packets delivered in total.
    pub total_delivered: u64,
    /// `true` if the gated island's switches were empty at gating time.
    pub drained_cleanly: bool,
}

/// Runs the scenario: all flows run normally until `stop_at_ns`; flows
/// terminating in the gated island are then deactivated; the island drains
/// in chunks of `drain_ns` and is power-gated once empty; surviving flows
/// keep running to the end.
///
/// For a correctly synthesized topology, the gated island's switches hold
/// no through-traffic from other islands — that is the paper's invariant —
/// so draining only needs the island's own flows to finish. An overloaded
/// island's backlog may still outlast the drain budget (20 chunks); the
/// run then skips the gate, keeps the island powered for the post-gate
/// phase, and reports `drained_cleanly: false`.
///
/// # Panics
///
/// Panics if `scenario.island` cannot be shut down under `vi` (always-on).
pub fn run_shutdown_scenario(
    spec: &SocSpec,
    vi: &ViAssignment,
    topo: &Topology,
    cfg: &SimConfig,
    scenario: &ShutdownScenario,
) -> ShutdownOutcome {
    let cell = run_dynamic_cell(spec, vi, topo, cfg, 0, Some(scenario));
    let shut = cell
        .shutdown
        .expect("a scheduled cell records its shutdown");
    ShutdownOutcome {
        survivors_before: shut.survivors_before,
        survivors_after: shut.survivors_after,
        total_delivered: cell.stats.total_delivered_packets(),
        drained_cleanly: shut.drained_cleanly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_core::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    fn design(k: usize) -> (SocSpec, ViAssignment, Topology) {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, k).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = space.min_power_point().unwrap().topology.clone();
        (soc, vi, topo)
    }

    #[test]
    fn surviving_traffic_continues_after_gating() {
        let (soc, vi, topo) = design(6);
        // Gate a shutdown-capable island that is not the memory island.
        let island = (0..vi.island_count())
            .find(|&j| vi.can_shutdown(j))
            .expect("some island can shut down");
        let outcome = run_shutdown_scenario(
            &soc,
            &vi,
            &topo,
            &SimConfig::default(),
            &ShutdownScenario {
                island,
                ..ShutdownScenario::default()
            },
        );
        assert!(outcome.drained_cleanly);
        assert!(
            outcome.survivors_after > 0,
            "surviving flows must keep delivering after the gate"
        );
        // Post-gate phase is 2x the pre-gate phase: survivors should deliver
        // at least as many packets after as before.
        assert!(
            outcome.survivors_after >= outcome.survivors_before,
            "throughput collapsed after gating: {} then {}",
            outcome.survivors_before,
            outcome.survivors_after
        );
    }

    #[test]
    fn every_gateable_island_can_be_gated() {
        let (soc, vi, topo) = design(6);
        for island in 0..vi.island_count() {
            if !vi.can_shutdown(island) {
                continue;
            }
            let outcome = run_shutdown_scenario(
                &soc,
                &vi,
                &topo,
                &SimConfig::default(),
                &ShutdownScenario {
                    island,
                    stop_at_ns: 15_000,
                    drain_ns: 8_000,
                    post_gate_ns: 20_000,
                },
            );
            assert!(outcome.drained_cleanly, "island {island}");
        }
    }

    #[test]
    fn drain_timeout_skips_the_gate_instead_of_panicking() {
        let (soc, vi, topo) = design(6);
        let island = (0..vi.island_count())
            .find(|&j| vi.can_shutdown(j))
            .expect("some island can shut down");
        let cfg = SimConfig {
            load_factor: 1.2,
            ..SimConfig::default()
        };
        // 20 chunks of 1 ns cannot flush a loaded island's in-flight packets.
        let scenario = ShutdownScenario {
            island,
            stop_at_ns: 15_000,
            drain_ns: 1,
            post_gate_ns: 20_000,
        };
        let outcome = run_shutdown_scenario(&soc, &vi, &topo, &cfg, &scenario);
        assert!(!outcome.drained_cleanly);
        assert!(outcome.survivors_after > 0, "survivors keep running");
        assert_eq!(
            outcome,
            run_shutdown_scenario(&soc, &vi, &topo, &cfg, &scenario),
            "a timed-out drain is still a deterministic measurement"
        );
    }

    #[test]
    #[should_panic(expected = "always-on")]
    fn gating_always_on_island_is_rejected() {
        let (soc, vi, topo) = design(6);
        let always_on = (0..vi.island_count())
            .find(|&j| !vi.can_shutdown(j))
            .expect("memory island is always-on");
        run_shutdown_scenario(
            &soc,
            &vi,
            &topo,
            &SimConfig::default(),
            &ShutdownScenario {
                island: always_on,
                ..ShutdownScenario::default()
            },
        );
    }
}
