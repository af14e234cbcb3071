//! `des_scaling`: pinned discrete-event points, each simulated under
//! baseline and offload — Fig 9(a) `qcd::run_dslash` (32³×256, Xeon,
//! 64 nodes) and Fig 13 `fft1d::run_fft` (`FftConfig::xeon_weak`, 2
//! nodes). The simulated TF/GF must equal the committed panel medians
//! exactly. The points are fixed, so the seed is unused.

use std::time::{Duration, Instant};

use fft1d::{run_fft, FftConfig};
use qcd::{lattice_32x256, run_dslash, DslashConfig};
use simnet::MachineProfile;

use crate::common::{schedule, Approach, Tally};
use crate::layers;
use crate::measure::{ns_since, ratio, Calibrator, Gated, Metrics, Samples};
use crate::trace::{Layer, Tracer};

const FIG09: &str = include_str!("../../BENCH_fig09_qcd_scaling.json");
const FIG13: &str = include_str!("../../BENCH_fig13_fft_scaling.json");
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fig {
    Fig09,
    Fig13,
}

/// One pinned point: figure, node count, approach, the committed series
/// it must reproduce and the per-point wall-time metric.
struct Point {
    fig: Fig,
    nodes: usize,
    approach: Approach,
    series: &'static str,
    metric: &'static str,
}

const POINTS: [Point; 4] = [
    Point {
        fig: Fig::Fig09,
        nodes: 64,
        approach: Approach::Baseline,
        series: "tflops.baseline.n64",
        metric: "des.point_s.fig09.baseline.n64",
    },
    Point {
        fig: Fig::Fig09,
        nodes: 64,
        approach: Approach::Offload,
        series: "tflops.offload.n64",
        metric: "des.point_s.fig09.offload.n64",
    },
    Point {
        fig: Fig::Fig13,
        nodes: 2,
        approach: Approach::Baseline,
        series: "gflops.baseline.n2",
        metric: "des.point_s.fig13.baseline.n2",
    },
    Point {
        fig: Fig::Fig13,
        nodes: 2,
        approach: Approach::Offload,
        series: "gflops.offload.n2",
        metric: "des.point_s.fig13.offload.n2",
    },
];

/// The median of series `name` in a committed `BENCH_*.json` panel.
fn committed(panel: &str, name: &str) -> Result<f64, String> {
    let key = format!("\"name\": \"{name}\"");
    let at = panel
        .find(&key)
        .ok_or_else(|| format!("series {name} not in panel"))?;
    let rest = &panel[at..];
    let m = rest
        .find("\"median\": ")
        .ok_or_else(|| format!("series {name} has no median"))?;
    let num = &rest[m + "\"median\": ".len()..];
    let end = num.find([',', '}']).ok_or("unterminated median")?;
    num[..end]
        .trim()
        .parse()
        .map_err(|e| format!("series {name} median: {e}"))
}

fn sim_approach(a: Approach) -> approaches::Approach {
    match a {
        Approach::Offload => approaches::Approach::Offload,
        Approach::Baseline => approaches::Approach::Baseline,
    }
}

/// Simulate one point: (TF or GF, simulated ns).
fn simulate(fig: Fig, nodes: usize, a: Approach) -> (f64, f64) {
    let approach = sim_approach(a);
    match fig {
        Fig::Fig09 => {
            let cfg = DslashConfig {
                lattice: lattice_32x256(),
                nodes,
                iterations: 3,
                progress_hints: 4,
            };
            let r = run_dslash(MachineProfile::xeon(), approach, &cfg);
            (r.tflops, r.phases.total as f64 * cfg.iterations as f64)
        }
        Fig::Fig13 => {
            let cfg = FftConfig::xeon_weak(nodes);
            let r = run_fft(MachineProfile::xeon(), approach, &cfg);
            (r.gflops, r.phases.total as f64 * cfg.iterations as f64)
        }
    }
}

/// The committed value each point must reproduce, in `POINTS` order.
fn expected_values() -> Result<[f64; 4], String> {
    let mut out = [0.0; 4];
    for (o, p) in out.iter_mut().zip(&POINTS) {
        let panel = match p.fig {
            Fig::Fig09 => FIG09,
            Fig::Fig13 => FIG13,
        };
        *o = committed(panel, p.series)?;
    }
    Ok(out)
}

#[derive(Default)]
struct Stats {
    solve_ns: [Gated; 2],
    /// The current round's host-speed scale (see `common::schedule`).
    scale: f64,
    point_ns: [Samples; 4],
    vtime_ns: f64,
    wall_ns: f64,
}

/// Simulate every point of approach `a` once, checking each value.
fn solve(a: Approach, expected: &[f64; 4], tr: &mut Tracer, st: &mut Stats, tally: &mut Tally) {
    let t = Instant::now();
    for (i, p) in POINTS.iter().enumerate().filter(|(_, p)| p.approach == a) {
        let t0 = Instant::now();
        let (value, vtime) = tr.leaf(Layer::Des, p.series, i as u64, || {
            simulate(p.fig, p.nodes, a)
        });
        let wall = ns_since(t0);
        st.point_ns[i].push(wall);
        st.vtime_ns += vtime;
        st.wall_ns += wall as f64;
        let res = tr.leaf(Layer::Check, "value", i as u64, || {
            if value == expected[i] {
                Ok(())
            } else {
                Err(format!(
                    "{}: simulated {value} != committed {}",
                    p.series, expected[i]
                ))
            }
        });
        tally.check(res);
        tr.end_step(false);
    }
    st.solve_ns[a.index()].push(ns_since(t), st.scale);
}

/// Run the workload: set-up, then alternating solves for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<crate::Outcome, String> {
    let mut tally = Tally::default();
    let mut cal = Calibrator::new()?;
    let mut setup = Gated::default();
    let mut expected = [0.0; 4];
    for _ in 0..SETUPS {
        let scale = cal.scale(Duration::ZERO, &mut Samples::default())?;
        let t = Instant::now();
        expected = expected_values()?;
        // Warm-up: the cheapest point of each figure.
        std::hint::black_box(simulate(Fig::Fig09, 8, Approach::Offload));
        std::hint::black_box(simulate(Fig::Fig13, 2, Approach::Offload));
        setup.push(ns_since(t), scale);
    }
    let mut stats = [Stats::default(), Stats::default()];
    let mut tr = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut traced_wall = 0u64;
    // A baseline pass costs about 40 offload passes; sample offload more.
    let ran = schedule(seconds, trace, 3, [4, 1], |a, traced, scale| {
        let t0 = Instant::now();
        stats[usize::from(traced)].scale = scale;
        if traced {
            solve(a, &expected, &mut tr, &mut stats[1], &mut tally);
            traced_wall += ns_since(t0);
        } else {
            solve(a, &expected, &mut quiet, &mut stats[0], &mut tally);
        }
        Ok(())
    })?;
    let [u, t] = &stats;
    let mut e2e = Metrics::new();
    let mut layer = Metrics::new();
    e2e.insert("setup_s", setup.at_ref.median() / 1e9);
    e2e.insert("peak_rss_mb", ran.peak_rss_mb);
    // The DES has no application compute to hide behind: all of a pass's
    // wall time is exposed.
    let cal_lines = layers::e2e_times(&mut e2e, &mut layer, &u.solve_ns, &u.solve_ns, &ran.cal_ns);
    for (i, p) in POINTS.iter().enumerate() {
        layer.insert(p.metric, u.point_ns[i].median() / 1e9);
    }
    layer.insert("des.vtime_per_wall", ratio(u.vtime_ns, u.wall_ns));
    layers::trace_metrics(
        &mut layer,
        &tr,
        &u.solve_ns,
        &t.solve_ns,
        traced_wall,
        crate::measure::threads()?,
    );
    layers::idle(
        &mut layer,
        &[
            "offload.", "pool.", "lanes.", "wire.", "coll.", "qcd.", "obs.",
        ],
    );
    if trace {
        layers::write_trace(&tr, "des_scaling")?;
    }
    let mut lines = vec![
        format!("seed {seed} is unused: the DES points are pinned"),
        format!(
            "des.wall_s = {:.6} s (median baseline pass + median offload pass)",
            (u.solve_ns[0].raw.median() + u.solve_ns[1].raw.median()) / 1e9
        ),
        crate::line_timing("des.pass_ms.baseline", "ms", &u.solve_ns[1].raw, 1e6),
        crate::line_timing("des.pass_ms.offload", "ms", &u.solve_ns[0].raw, 1e6),
    ];
    lines.extend(cal_lines);
    lines.push(layers::setup_line(&setup));
    Ok(crate::Outcome {
        e2e,
        layer,
        lines,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_values_parse() {
        let v = expected_values().unwrap();
        assert_eq!(v[1], 32.091667846878394);
        assert!(committed(FIG09, "tflops.offload.n65").is_err());
    }

    #[test]
    fn perturbed_des_expectation_raises_failures() {
        let mut expected = expected_values().unwrap();
        let mut tally = Tally::default();
        let mut st = Stats::default();
        let mut tr = Tracer::new(false);
        solve(Approach::Offload, &expected, &mut tr, &mut st, &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 0),
            "{:?}",
            tally.reasons
        );
        expected[3] = f64::from_bits(expected[3].to_bits() + 1);
        solve(Approach::Offload, &expected, &mut tr, &mut st, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (4, 1));
    }
}
