//! The repository benchmark: offload message rate, QCD halo+allreduce
//! overlap and DES sweep time, with a traced per-layer pass.
//!
//! ```text
//! perfbench --workload <eager_msgrate|qcd_halo_cg|des_scaling>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process on at most two threads (main
//! and, during offload solves, the offload thread) over one in-process
//! 2-rank wire world. Human-readable lines go to stdout first; the last
//! line is the JSON result. See `perfbench/README.md`.

mod common;
mod des;
mod eager;
mod halo;
mod layers;
mod measure;
mod trace;

use std::process::ExitCode;
use std::sync::OnceLock;

use common::Tally;
use measure::{Metrics, Samples};

/// Where the traced pass writes its spans (relative to the checkout).
pub const TRACE_DIR: &str = "perfbench/out";

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s.offload", "s"),
    ("solve_s.baseline", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("exposed_us.offload", "us"),
    ("exposed_us.baseline", "us"),
    ("host.calibration_us", "us"),
    ("offload.isend_ns.p50", "ns"),
    ("offload.irecv_ns.p50", "ns"),
    ("offload.coll_start_ns.p50", "ns"),
    ("offload.issue_ns.p99", "ns"),
    ("offload.op_latency_us.p50", "us"),
    ("offload.op_latency_us.p99", "us"),
    ("offload.test_calls_per_op", "count"),
    ("offload.service_iters_per_op", "count"),
    ("offload.progress_polls_per_op", "count"),
    ("offload.parks_per_kop", "count"),
    ("offload.wakes_per_kop", "count"),
    ("offload.drained_per_wakeup.p50", "count"),
    ("pool.occupancy_hwm", "count"),
    ("lanes.push_full", "count"),
    ("wire.isend_ns.p50", "ns"),
    ("wire.irecv_ns.p50", "ns"),
    ("wire.progress_ns.p50", "ns"),
    ("wire.progress_ns.p99", "ns"),
    ("wire.useful_progress_ratio", "ratio"),
    ("wire.frames_per_msg", "count"),
    ("wire.bytes_per_payload_byte", "ratio"),
    ("wire.frames_per_writev", "count"),
    ("wire.eager_alloc_per_msg", "count"),
    ("wire.rndv_async_ratio", "ratio"),
    ("wire.regpool.heap_alloc_per_rndv", "count"),
    ("wire.protocol_errors", "count"),
    ("wire.peer_lost", "count"),
    ("wire.shm_frames_per_msg", "count"),
    ("wire.shm_doorbell_per_msg", "count"),
    ("wire.shm_fallback", "count"),
    ("wire.coll_tx_per_coll", "count"),
    ("coll.allreduce_us.p50.offload", "us"),
    ("coll.allreduce_us.p50.baseline", "us"),
    ("qcd.dslash_us.p50", "us"),
    ("qcd.dslash_gflops", "GF/s"),
    ("qcd.compute_inflation.offload", "ratio"),
    ("qcd.compute_inflation.baseline", "ratio"),
    ("obs.snapshot_us", "us"),
    ("obs.snapshot_bytes", "bytes"),
    ("obs.merge_us", "us"),
    ("des.point_s.fig09.baseline.n64", "s"),
    ("des.point_s.fig09.offload.n64", "s"),
    ("des.point_s.fig13.baseline.n2", "s"),
    ("des.point_s.fig13.offload.n2", "s"),
    ("des.vtime_per_wall", "ratio"),
    ("clock_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.span_cover_pct", "%"),
    ("self_pct.bench", "%"),
    ("self_pct.offload", "%"),
    ("self_pct.wire", "%"),
    ("self_pct.nbc", "%"),
    ("self_pct.qcd", "%"),
    ("self_pct.des", "%"),
    ("self_pct.check", "%"),
    ("threads.max", "count"),
];

/// What a workload hands back: both metric sets (the flag picks which is
/// printed), extra report lines, and the operation tally.
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub lines: Vec<String>,
    pub tally: Tally,
}

static CLOCK_NS: OnceLock<f64> = OnceLock::new();

fn clock() -> f64 {
    *CLOCK_NS.get_or_init(measure::clock_ns)
}

/// A report line for a timing: median, highest supported percentile,
/// sample count and the timer floor beside it.
pub fn line_timing(name: &str, unit: &str, s: &Samples, div: f64) -> String {
    let tail = match s.tail() {
        ("p50", _) => String::new(),
        (label, v) => format!(" {label}={:.3}", v / div),
    };
    format!(
        "{name} p50={:.3}{tail} {unit} n={} (clock_ns={:.1})",
        s.median() / div,
        s.len(),
        clock()
    )
}

/// A report line for a rate: `per_solve` items over the median solve.
pub fn line_rate(name: &str, per_solve: f64, solves: &Samples) -> String {
    format!(
        "{name} = {:.1} msg/s (median of n={} solves)",
        measure::ratio(per_solve, solves.median() / 1e9),
        solves.len()
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(val.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of a command's stdout, or `none`.
fn tool_line(cmd: &str, args: &[&str]) -> String {
    let mut c = std::process::Command::new(cmd);
    c.args(args);
    // Keep git from searching directories above the checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    c.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "none".to_owned())
}

fn stamp(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let reg = obs::Registry::default();
    reg.counter("stamp.probe").inc();
    let features = if reg.snapshot().counters.contains_key("stamp.probe") {
        "obs-enabled"
    } else {
        "obs-off"
    };
    format!(
        "# stamp workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" features={features} git_sha={} clock_ns={:.1}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short=12", "HEAD"]),
        clock()
    )
}

/// The `metrics` JSON object for `catalog`, in catalog order. Fails when
/// a catalogued metric is missing, a value is not finite, or the set
/// holds a name the catalog does not know.
fn render(set: &Metrics, catalog: &[(&str, &str)]) -> Result<String, String> {
    if let Some(extra) = set.keys().find(|k| !catalog.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric `{extra}` is not in the catalog"));
    }
    let mut parts = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        let v = *set
            .get(name)
            .ok_or_else(|| format!("metric `{name}` is missing"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(a: &Args) -> Result<(String, bool), String> {
    println!("{}", stamp(a));
    let mut out = match a.workload.as_str() {
        "eager_msgrate" => eager::run(a.seed, a.seconds, a.trace)?,
        "qcd_halo_cg" => halo::run(a.seed, a.seconds, a.trace)?,
        "des_scaling" => des::run(a.seed, a.seconds, a.trace)?,
        w => return Err(format!("unknown workload `{w}`")),
    };
    out.layer.insert("clock_ns", clock());
    let threads = out.layer.get("threads.max").copied().unwrap_or(0.0);
    if threads > 2.0 {
        out.tally
            .fail(format!("{threads} threads; a workload may use at most 2"));
    }
    let (set, catalog): (&Metrics, &[(&str, &str)]) = if a.trace {
        (&out.layer, &PER_LAYER)
    } else {
        (&out.e2e, &END_TO_END)
    };
    let metrics = render(set, catalog)?;
    for (name, unit) in catalog {
        println!("{} {name} = {} {unit}", a.workload, set[name]);
    }
    for l in &out.lines {
        println!("{} {l}", a.workload);
    }
    let t = &out.tally;
    println!(
        "{} fail_ratio = {} ({} of {} operations failed)",
        a.workload,
        measure::ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    for r in &t.reasons {
        eprintln!("perfbench: failed: {r}");
    }
    let correct = t.failed == 0 && t.attempted > 0;
    Ok((
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            t.attempted.max(1),
            t.failed
        ),
        correct,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((json, correct)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut m: Metrics = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        assert!(render(&m, &END_TO_END).is_ok());
        m.remove("solve_s.offload");
        assert!(render(&m, &END_TO_END).unwrap_err().contains("missing"));
        m.insert("solve_s.offload", f64::NAN);
        assert!(render(&m, &END_TO_END).is_err());
        m.insert("solve_s.offload", 1.0);
        m.insert("not_catalogued", 1.0);
        assert!(render(&m, &END_TO_END).is_err());
    }

    #[test]
    fn idle_fill_covers_only_declared_layers() {
        let mut m = Metrics::new();
        layers::idle(&mut m, &["des."]);
        assert!(m.keys().all(|k| k.starts_with("des.")));
        assert!(render(&m, &PER_LAYER).is_err(), "other layers stay missing");
    }

    /// The catalogs here and `BENCHMARK.json` must name the same metrics
    /// with the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_are_strict() {
        let ok: Vec<String> = [
            "--workload",
            "des_scaling",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 5);
        let mut bad = ok.clone();
        bad[7] = "2".into();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
    }
}
