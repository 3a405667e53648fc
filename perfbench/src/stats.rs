//! Order statistics, process resource usage, the metric catalogue and the
//! result line.

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of the median of `xs`: the average of all order
/// statistics weighted by the Beta((n+1)/2, (n+1)/2) density (integrated
/// by the midpoint rule). Every pool document repeats, so job times form
/// clusters; a single middle order statistic jumps between clusters from
/// run to run, this weighted one moves little. 0 if empty.
pub fn hd_median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let a = (n + 1.0) / 2.0 - 1.0;
    let log_w: Vec<f64> = (0..v.len())
        .map(|i| {
            let m = (i as f64 + 0.5) / n;
            a * (m.ln() + (1.0 - m).ln())
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::MIN, f64::max);
    let w: Vec<f64> = log_w.iter().map(|l| (l - top).exp()).collect();
    let total: f64 = w.iter().sum();
    v.iter().zip(&w).map(|(x, w)| x * w).sum::<f64>() / total
}

/// Mean of `xs`; 0 if empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the highest nearest-rank percentile with at least
/// [`TAIL_BEYOND`] samples ranked beyond it. Returns
/// `(percentile, value)`; needs more than `TAIL_BEYOND` samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank r = n - TAIL_BEYOND leaves exactly TAIL_BEYOND ranks above.
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Process CPU time (user + system) and peak resident set size.
pub struct Usage {
    /// User + system CPU, ms.
    pub cpu_ms: f64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Resource usage of the whole process so far (`getrusage(RUSAGE_SELF)`).
pub fn usage() -> Usage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux, and RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Usage {
        cpu_ms: ms(&r.utime) + ms(&r.stime),
        peak_rss_mb: r.maxrss as f64 / 1024.0,
    }
}

/// A metric's name and unit, as declared in `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics (`--trace 0`).
pub const END_TO_END: [MetricDef; 9] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("cpu_ms_per_job", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("noc_power_mw", "mW"),
    ("zero_load_latency_cyc", "cycles"),
];

/// The per-layer metrics (`--trace 1`).
pub const PER_LAYER: [MetricDef; 51] = [
    ("api.ingest_ms", "ms"),
    ("api.report_emit_ms", "ms"),
    ("api.report_bytes", "bytes"),
    ("api.share", "frac"),
    ("soc.resolve_ms", "ms"),
    ("soc.share", "frac"),
    ("core.synthesize_ms", "ms"),
    ("core.design_points", "count"),
    ("core.share", "frac"),
    ("floorplan.realize_ms", "ms"),
    ("floorplan.moves", "count"),
    ("floorplan.ns_per_move", "ns/move"),
    ("floorplan.share", "frac"),
    ("sim.run_ms", "ms"),
    ("sim.shutdown_ms", "ms"),
    ("sim.power_ms", "ms"),
    ("sim.ticks", "count"),
    ("sim.flits", "count"),
    ("sim.ns_per_tick", "ns/tick"),
    ("sim.latency_ns", "ns"),
    ("sim.share", "frac"),
    ("sweep.grid_ms", "ms"),
    ("sweep.run_ms", "ms"),
    ("sweep.chains", "count"),
    ("sweep.inactive_chains", "count"),
    ("sweep.feasible", "count"),
    ("sweep.duplicates", "count"),
    ("sweep.infeasible", "count"),
    ("sweep.feasible_frac", "frac"),
    ("sweep.us_per_chain", "us/chain"),
    ("sweep.emit_ms", "ms"),
    ("sweep.refine_ms", "ms"),
    ("sweep.frontier_bytes", "bytes"),
    ("sweep.share", "frac"),
    ("dynsweep.run_ms", "ms"),
    ("dynsweep.cells", "count"),
    ("dynsweep.simulated", "count"),
    ("dynsweep.sim_frac", "frac"),
    ("dynsweep.ms_per_cell", "ms/cell"),
    ("dynsweep.share", "frac"),
    ("fleet.start_ms", "ms"),
    ("fleet.submit_ms", "ms"),
    ("fleet.teardown_ms", "ms"),
    ("fleet.leases", "count"),
    ("fleet.deltas", "count"),
    ("fleet.abandoned", "count"),
    ("fleet.overhead_x", "x"),
    ("fleet.share", "frac"),
    ("trace.job_ms", "ms"),
    ("trace.untraced_job_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// The final result line: `{"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..},..}}`, metrics in `defs` order.
///
/// # Panics
///
/// If `values` does not hold exactly one finite value per definition.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> String {
    assert_eq!(defs.len(), values.len(), "one value per metric");
    let metrics: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(vname, value))| {
            assert_eq!(name, vname, "metric order");
            assert!(value.is_finite(), "{name} is not finite");
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names unique"
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.0, 1.5)).collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}")));
        }
    }

    #[test]
    fn tail_always_has_ten_samples_beyond_it() {
        let mut rng = Rng::new(1, 1);
        assert_eq!(tail(&[1.0; TAIL_BEYOND]), None);
        for n in TAIL_BEYOND + 1..400 {
            let xs: Vec<f64> = (0..n).map(|_| (rng.range(0, 50)) as f64).collect();
            let (pct, value) = tail(&xs).unwrap();
            let rank = (pct / 100.0 * n as f64).round() as usize;
            assert_eq!(n - rank, TAIL_BEYOND, "n={n}");
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(sorted[rank - 1], value);
            assert!(xs.iter().filter(|&&x| x >= value).count() > TAIL_BEYOND);
        }
    }

    #[test]
    fn hd_median_is_a_median() {
        assert_eq!(hd_median(&[]), 0.0);
        assert!((hd_median(&[4.0; 7]) - 4.0).abs() < 1e-12);
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        assert!((hd_median(&xs) - 50.0).abs() < 1e-9, "symmetric");
        let skewed: Vec<f64> = (0..100).map(|i| f64::from(i * i)).collect();
        let hd = hd_median(&skewed);
        assert!(hd > skewed[45] && hd < skewed[55], "{hd}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
