//! Placement bit-identity pin: the annealer's output for a fixed
//! `FloorplanConfig` is a pure function of the modules and nets, down to
//! the last bit of every coordinate. Each case hashes every rectangle's and
//! the die's `f64::to_bits` with FNV-1a and compares against a constant, so
//! any change to the move set, the RNG draw order, the cost arithmetic or
//! the slicing evaluation shows up here as a changed fingerprint.

use vi_noc_core::fnv1a64;
use vi_noc_floorplan::{floorplan, FloorplanConfig, Module, Net, Placement};
use vi_noc_soc::{
    benchmarks, generate_synthetic, partition, CoreId, SocSpec, SyntheticConfig, ViAssignment,
};

/// Modules and nets exactly as `realize_on_floorplan` builds them.
fn floorplan_inputs(spec: &SocSpec, vi: &ViAssignment) -> (Vec<Module>, Vec<Net>) {
    let modules = spec
        .cores()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Module::new(
                c.name.clone(),
                c.area.mm2(),
                vi.island_of(CoreId::from_index(i)),
            )
        })
        .collect();
    let nets = spec
        .flows()
        .iter()
        .map(|f| Net::two_pin(f.src.index(), f.dst.index(), f.bandwidth.mbps()))
        .collect();
    (modules, nets)
}

fn fingerprint(p: &Placement) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (4 * p.rect_count() + 2));
    for r in p.rects() {
        for v in [r.x, r.y, r.w, r.h] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let (w, h) = p.die();
    bytes.extend_from_slice(&w.to_bits().to_le_bytes());
    bytes.extend_from_slice(&h.to_bits().to_le_bytes());
    fnv1a64(&bytes)
}

/// The bundled suite at its natural logical island count, plus three
/// synthetic SoCs communication-partitioned into 2, 4 and 6 islands.
fn cases() -> Vec<(String, SocSpec, ViAssignment)> {
    let mut out: Vec<(String, SocSpec, ViAssignment)> = benchmarks::suite()
        .into_iter()
        .map(|(spec, k)| {
            let vi = partition::logical_partition(&spec, k).unwrap();
            (format!("{}/{k}vi", spec.name()), spec, vi)
        })
        .collect();
    for (n_cores, seed, k) in [(18, 3u64, 2usize), (30, 5, 4), (44, 9, 6)] {
        let spec = generate_synthetic(&SyntheticConfig {
            n_cores,
            seed,
            ..SyntheticConfig::default()
        });
        let vi = partition::communication_partition(&spec, k, seed).unwrap();
        out.push((format!("{}/{k}vi", spec.name()), spec, vi));
    }
    out
}

fn check(cfg: &FloorplanConfig, expected: &[(&str, u64)]) {
    let got: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(label, spec, vi)| {
            let (modules, nets) = floorplan_inputs(&spec, &vi);
            (label, fingerprint(&floorplan(&modules, &nets, cfg)))
        })
        .collect();
    let listing: Vec<String> = got
        .iter()
        .map(|(l, h)| format!("(\"{l}\", {h:#018x}),"))
        .collect();
    let want: Vec<(String, u64)> = expected.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert_eq!(
        got,
        want,
        "placement fingerprints changed; now:\n{}",
        listing.join("\n")
    );
}

#[test]
fn default_config_placements_are_pinned() {
    check(
        &FloorplanConfig::default(),
        &[
            ("d12_auto/4vi", 0xa433c4a5e16323cd),
            ("d16_settop/5vi", 0xfbf2929be846310e),
            ("d20_baseband/5vi", 0x06ee41b4b0a7848c),
            ("d26_mobile/6vi", 0xd60da75c014750eb),
            ("d36_tablet/7vi", 0x7c78e05751b46189),
            ("synthetic_18c_3/2vi", 0x213987c5fbcb8503),
            ("synthetic_30c_5/4vi", 0x0a3eb668efb5e6b1),
            ("synthetic_44c_9/6vi", 0x4480c9280bb5c24a),
        ],
    );
}

#[test]
fn short_single_restart_placements_are_pinned() {
    let cfg = FloorplanConfig {
        iterations: 2_000,
        restarts: 1,
        ..FloorplanConfig::default()
    };
    check(
        &cfg,
        &[
            ("d12_auto/4vi", 0x65994a6caeaab988),
            ("d16_settop/5vi", 0x3f833d3d9b5fc523),
            ("d20_baseband/5vi", 0x3bdd2b635360c017),
            ("d26_mobile/6vi", 0xefe54b93547a6840),
            ("d36_tablet/7vi", 0x25fe8679fd30ae90),
            ("synthetic_18c_3/2vi", 0x5c1eaafc7bc73951),
            ("synthetic_30c_5/4vi", 0x34aeffc49dc9abb7),
            ("synthetic_44c_9/6vi", 0x62762f808ff0fb14),
        ],
    );
}
