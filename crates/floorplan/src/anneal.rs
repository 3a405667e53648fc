//! Simulated-annealing floorplan optimization (Wong–Liu moves), with
//! independently seeded restarts fanned out across threads.

use crate::placement::{evaluate, Placement, Rect, Slicer};
use crate::slicing::{Module, Net, PolishElem, PolishExpr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

/// Parameters for [`floorplan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanConfig {
    /// RNG seed; equal seeds give identical floorplans.
    pub seed: u64,
    /// Number of proposed moves per restart.
    pub iterations: usize,
    /// Initial acceptance temperature (relative to typical cost deltas).
    pub initial_temp: f64,
    /// Geometric cooling factor applied every `iterations / 50` moves.
    pub cooling: f64,
    /// Weight of traffic-weighted wirelength in the cost.
    pub lambda_wire: f64,
    /// Weight of voltage-island cohesion (islands should be contiguous so
    /// each can have its own power rails).
    pub lambda_island: f64,
    /// Weight of the aspect-ratio penalty (`|ln(W/H)|`).
    pub lambda_aspect: f64,
    /// Number of independent annealing chains; the best result wins.
    /// Restart `r` is seeded with `seed + r`, so restart 0 reproduces the
    /// single-chain result and adding restarts can only improve the cost.
    pub restarts: usize,
    /// Run the restarts across threads (the same order-preserving rayon
    /// fan-out the synthesis sweep uses). Parallel and sequential execution
    /// select the identical placement.
    pub parallel: bool,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        FloorplanConfig {
            seed: 0xF100,
            iterations: 20_000,
            initial_temp: 2.0,
            cooling: 0.92,
            lambda_wire: 0.02,
            lambda_island: 0.3,
            lambda_aspect: 2.0,
            restarts: 2,
            parallel: true,
        }
    }
}

/// The cost function of one annealing problem, with everything that does
/// not depend on the placement computed once: the net-weight total, the
/// island count, and scratch for the island bounding boxes.
struct CostModel<'a> {
    modules: &'a [Module],
    nets: &'a [Net],
    cfg: &'a FloorplanConfig,
    total_weight: f64,
    /// Per island: `[lo_x, hi_x, lo_y, hi_y]` of its module centers.
    island_boxes: Vec<[f64; 4]>,
}

impl<'a> CostModel<'a> {
    fn new(modules: &'a [Module], nets: &'a [Net], cfg: &'a FloorplanConfig) -> Self {
        let n_islands = modules.iter().map(|m| m.island).max().unwrap_or(0) + 1;
        CostModel {
            modules,
            nets,
            cfg,
            total_weight: nets.iter().map(|n| n.weight).sum::<f64>().max(1e-12),
            island_boxes: vec![[0.0; 4]; n_islands],
        }
    }

    /// Cost of a placement: die area + weighted wirelength + island
    /// spread + aspect penalty. Lower is better.
    fn cost(&mut self, rects: &[Rect], (w, h): (f64, f64)) -> f64 {
        let area = w * h;
        let aspect = if w > 0.0 && h > 0.0 {
            (w / h).ln().abs()
        } else {
            10.0
        };

        // Traffic-weighted half-perimeter wirelength.
        let mut wl = 0.0;
        for net in self.nets {
            let (mut lo_x, mut hi_x) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut lo_y, mut hi_y) = (f64::INFINITY, f64::NEG_INFINITY);
            for &p in &net.pins {
                let (cx, cy) = rects[p].center();
                lo_x = lo_x.min(cx);
                hi_x = hi_x.max(cx);
                lo_y = lo_y.min(cy);
                hi_y = hi_y.max(cy);
            }
            wl += net.weight / self.total_weight * ((hi_x - lo_x) + (hi_y - lo_y));
        }

        // Island cohesion: half-perimeter of each island's bounding box,
        // summed in island order. Empty islands keep their inverted box.
        self.island_boxes.fill([
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        for (m, r) in self.modules.iter().zip(rects) {
            let (cx, cy) = r.center();
            let b = &mut self.island_boxes[m.island];
            b[0] = b[0].min(cx);
            b[1] = b[1].max(cx);
            b[2] = b[2].min(cy);
            b[3] = b[3].max(cy);
        }
        let mut spread = 0.0;
        for &[lo_x, hi_x, lo_y, hi_y] in &self.island_boxes {
            if lo_x <= hi_x {
                spread += (hi_x - lo_x) + (hi_y - lo_y);
            }
        }

        let cfg = self.cfg;
        area + cfg.lambda_aspect * area * aspect.min(2.0) / 2.0
            + cfg.lambda_wire * area * wl
            + cfg.lambda_island * spread
    }
}

/// How to take back a proposed move.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// Swap these two elements back.
    Swap(usize, usize),
    /// Complement the operators of `elems[start..end]` again.
    Complement(usize, usize),
    /// Toggle this module's rotation again.
    Rotate(usize),
}

/// Flips every operator of `elems[start..end]` (H<->V).
fn complement(elems: &mut [PolishElem], start: usize, end: usize) {
    for e in &mut elems[start..end] {
        *e = match *e {
            PolishElem::H => PolishElem::V,
            PolishElem::V => PolishElem::H,
            PolishElem::Operand(_) => unreachable!("operator chains hold no operands"),
        };
    }
}

/// Applies one random Wong–Liu move to `expr` in place and returns how to
/// undo it, or `None` if the proposal was structurally invalid (`expr` is
/// then unchanged and the caller retries).
fn propose(expr: &mut PolishExpr, n: usize, rng: &mut StdRng) -> Option<Undo> {
    let is_operand = |e: &PolishElem| matches!(e, PolishElem::Operand(_));
    match rng.random_range(0..4u8) {
        // M1: swap two adjacent operands (of the n operands).
        0 => {
            if n < 2 {
                return None;
            }
            let k = rng.random_range(0..n - 1);
            let mut operands = expr.elems.iter().enumerate().filter(|(_, e)| is_operand(e));
            let a = operands.nth(k).expect("k < n - 1").0;
            let b = operands.next().expect("k + 1 < n").0;
            expr.elems.swap(a, b);
            Some(Undo::Swap(a, b))
        }
        // M2: complement a chain of operators (of the n - 1 operators),
        // from a random one up to the next operand.
        1 => {
            if n < 2 {
                return None;
            }
            let r = rng.random_range(0..n - 1);
            let start = expr
                .elems
                .iter()
                .enumerate()
                .filter(|(_, e)| !is_operand(e))
                .nth(r)
                .expect("r < n - 1")
                .0;
            let end = expr.elems[start..]
                .iter()
                .position(is_operand)
                .map_or(expr.elems.len(), |len| start + len);
            complement(&mut expr.elems, start, end);
            Some(Undo::Complement(start, end))
        }
        // M3: swap an adjacent operand/operator pair, if validity holds.
        2 => {
            if expr.elems.len() < 2 {
                return None;
            }
            let k = rng.random_range(0..expr.elems.len() - 1);
            if is_operand(&expr.elems[k]) == is_operand(&expr.elems[k + 1]) {
                return None;
            }
            expr.elems.swap(k, k + 1);
            if expr.is_valid(n) {
                Some(Undo::Swap(k, k + 1))
            } else {
                expr.elems.swap(k, k + 1);
                None
            }
        }
        // M4: rotate a random module.
        _ => {
            let i = rng.random_range(0..n);
            expr.rotated[i] = !expr.rotated[i];
            Some(Undo::Rotate(i))
        }
    }
}

/// Takes back the move `propose` applied.
fn undo(expr: &mut PolishExpr, u: Undo) {
    match u {
        Undo::Swap(a, b) => expr.elems.swap(a, b),
        Undo::Complement(start, end) => complement(&mut expr.elems, start, end),
        Undo::Rotate(i) => expr.rotated[i] = !expr.rotated[i],
    }
}

/// One annealing chain from `seed`; returns the best cost seen and the
/// expression achieving it.
///
/// Moves are applied in place and undone on rejection; every evaluation
/// reuses one [`Slicer`] and one [`CostModel`], so the loop allocates
/// nothing after set-up.
fn anneal_chain(
    modules: &[Module],
    nets: &[Net],
    cfg: &FloorplanConfig,
    seed: u64,
) -> (f64, PolishExpr) {
    let n = modules.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slicer = Slicer::new(n);
    let mut model = CostModel::new(modules, nets, cfg);
    let mut expr = PolishExpr::initial(n);
    let die = slicer.evaluate(&expr, modules);
    let mut current_cost = model.cost(slicer.rects(), die);
    let mut best_expr = expr.clone();
    let mut best_cost = current_cost;

    let mut temp = cfg.initial_temp * current_cost.max(1e-9);
    let chunk = (cfg.iterations / 50).max(1);

    for it in 0..cfg.iterations {
        // An invalid proposal uses up the iteration and also skips its
        // cooling check; the pinned placements depend on that schedule.
        let Some(mv) = propose(&mut expr, n, &mut rng) else {
            continue;
        };
        debug_assert!(expr.is_valid(n));
        let die = slicer.evaluate(&expr, modules);
        let c = model.cost(slicer.rects(), die);
        let delta = c - current_cost;
        let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temp.max(1e-12)).exp();
        if accept {
            current_cost = c;
            if c < best_cost {
                best_cost = c;
                best_expr.clone_from(&expr);
            }
        } else {
            undo(&mut expr, mv);
        }
        if (it + 1) % chunk == 0 {
            temp *= cfg.cooling;
        }
    }

    (best_cost, best_expr)
}

/// Floorplans `modules` by simulated annealing, minimizing die area,
/// traffic-weighted wirelength, island spread and aspect-ratio penalty.
///
/// Runs [`FloorplanConfig::restarts`] independent chains (seeded
/// `seed + r`, fanned out across threads when
/// [`FloorplanConfig::parallel`] is set) and returns the best placement
/// encountered; cost ties go to the lowest restart index, so the result is
/// deterministic for a fixed [`FloorplanConfig`] in both execution modes.
///
/// # Panics
///
/// Panics if `modules` is empty or a net references a missing module.
pub fn floorplan(modules: &[Module], nets: &[Net], cfg: &FloorplanConfig) -> Placement {
    assert!(!modules.is_empty(), "cannot floorplan zero modules");
    for net in nets {
        for &p in &net.pins {
            assert!(p < modules.len(), "net references missing module {p}");
        }
    }
    let restarts: Vec<u64> = (0..cfg.restarts.max(1) as u64).collect();
    let chains: Vec<(f64, PolishExpr)> = if cfg.parallel && restarts.len() > 1 {
        restarts
            .par_iter()
            .map(|&r| anneal_chain(modules, nets, cfg, cfg.seed.wrapping_add(r)))
            .collect()
    } else {
        restarts
            .iter()
            .map(|&r| anneal_chain(modules, nets, cfg, cfg.seed.wrapping_add(r)))
            .collect()
    };
    let best = chains
        .into_iter()
        .reduce(|best, next| if next.0 < best.0 { next } else { best })
        .expect("at least one restart");
    evaluate(&best.1, modules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(placement: &Placement, modules: &[Module], nets: &[Net], cfg: &FloorplanConfig) -> f64 {
        CostModel::new(modules, nets, cfg).cost(placement.rects(), placement.die())
    }

    fn quick_cfg() -> FloorplanConfig {
        FloorplanConfig {
            iterations: 3_000,
            ..FloorplanConfig::default()
        }
    }

    fn modules_two_islands() -> Vec<Module> {
        (0..8)
            .map(|i| Module::new(format!("m{i}"), 1.0 + (i % 3) as f64 * 0.5, i / 4))
            .collect()
    }

    #[test]
    fn result_is_overlap_free_and_reasonably_packed() {
        let modules = modules_two_islands();
        let plan = floorplan(&modules, &[], &quick_cfg());
        assert!(plan.is_overlap_free());
        assert!(
            plan.utilization() > 0.5,
            "utilization {} too low",
            plan.utilization()
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let modules = modules_two_islands();
        let a = floorplan(&modules, &[], &quick_cfg());
        let b = floorplan(&modules, &[], &quick_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_beats_initial_expression() {
        // Mixed-size modules: the initial strip layout is bad.
        let modules: Vec<Module> = (0..12)
            .map(|i| Module::new(format!("m{i}"), 0.5 + (i as f64) * 0.3, 0))
            .collect();
        let initial = evaluate(&PolishExpr::initial(12), &modules);
        let annealed = floorplan(&modules, &[], &quick_cfg());
        assert!(
            annealed.die_area_mm2() < initial.die_area_mm2(),
            "SA {} should beat initial {}",
            annealed.die_area_mm2(),
            initial.die_area_mm2()
        );
    }

    #[test]
    fn heavy_net_pulls_modules_together() {
        // Modules 0 and 7 heavily connected: after annealing they should be
        // closer than the die diagonal would suggest at random.
        let modules: Vec<Module> = (0..8)
            .map(|i| Module::new(format!("m{i}"), 1.0, 0))
            .collect();
        let nets = vec![Net::two_pin(0, 7, 100.0)];
        let cfg = FloorplanConfig {
            iterations: 12_000,
            lambda_wire: 1.0,
            ..FloorplanConfig::default()
        };
        let plan = floorplan(&modules, &nets, &cfg);
        let (ax, ay) = plan.center(0);
        let (bx, by) = plan.center(7);
        let dist = (ax - bx).abs() + (ay - by).abs();
        let (dw, dh) = plan.die();
        assert!(
            dist < (dw + dh) * 0.55,
            "hot pair distance {dist} vs die {dw}x{dh}"
        );
    }

    #[test]
    fn island_cohesion_groups_islands() {
        // Two islands of 4; cohesion weight high. Island bounding boxes
        // should not both span the whole die.
        let modules = modules_two_islands();
        let cfg = FloorplanConfig {
            iterations: 15_000,
            lambda_island: 3.0,
            ..FloorplanConfig::default()
        };
        let plan = floorplan(&modules, &[], &cfg);
        let bbox = |isl: usize| {
            let mut lo = (f64::INFINITY, f64::INFINITY);
            let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (i, m) in modules.iter().enumerate() {
                if m.island == isl {
                    let (x, y) = plan.center(i);
                    lo = (lo.0.min(x), lo.1.min(y));
                    hi = (hi.0.max(x), hi.1.max(y));
                }
            }
            (hi.0 - lo.0) + (hi.1 - lo.1)
        };
        let (dw, dh) = plan.die();
        let die_hp = dw + dh;
        assert!(
            bbox(0) + bbox(1) < 1.6 * die_hp,
            "island spread {} + {} vs die half-perimeter {}",
            bbox(0),
            bbox(1),
            die_hp
        );
    }

    #[test]
    fn restart_modes_select_the_same_placement() {
        let modules = modules_two_islands();
        let nets = vec![Net::two_pin(0, 7, 10.0)];
        let base = FloorplanConfig {
            restarts: 4,
            ..quick_cfg()
        };
        let seq = floorplan(
            &modules,
            &nets,
            &FloorplanConfig {
                parallel: false,
                ..base.clone()
            },
        );
        let par = floorplan(
            &modules,
            &nets,
            &FloorplanConfig {
                parallel: true,
                ..base
            },
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn extra_restarts_never_worsen_the_cost() {
        let modules = modules_two_islands();
        let nets = vec![Net::two_pin(1, 6, 25.0)];
        let single = FloorplanConfig {
            restarts: 1,
            ..quick_cfg()
        };
        let multi = FloorplanConfig {
            restarts: 4,
            ..quick_cfg()
        };
        let p1 = floorplan(&modules, &nets, &single);
        let p4 = floorplan(&modules, &nets, &multi);
        // Restart 0 of the multi run *is* the single run, so best-of-4 can
        // only match or beat it.
        assert!(
            cost(&p4, &modules, &nets, &multi) <= cost(&p1, &modules, &nets, &single) + 1e-12,
            "best-of-4 cost {} worse than single-chain {}",
            cost(&p4, &modules, &nets, &multi),
            cost(&p1, &modules, &nets, &single)
        );
    }

    #[test]
    fn zero_restarts_clamps_to_one_chain() {
        let modules = modules_two_islands();
        let zero = FloorplanConfig {
            restarts: 0,
            ..quick_cfg()
        };
        let one = FloorplanConfig {
            restarts: 1,
            ..quick_cfg()
        };
        assert_eq!(
            floorplan(&modules, &[], &zero),
            floorplan(&modules, &[], &one)
        );
    }

    #[test]
    fn single_module_floorplan() {
        let modules = vec![Module::new("only", 2.25, 0)];
        let plan = floorplan(&modules, &[], &quick_cfg());
        assert_eq!(plan.rect_count(), 1);
        assert!((plan.die_area_mm2() - 2.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "missing module")]
    fn net_validation() {
        floorplan(
            &[Module::new("a", 1.0, 0)],
            &[Net::two_pin(0, 3, 1.0)],
            &quick_cfg(),
        );
    }
}
