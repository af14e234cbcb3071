//! Measurement primitives: sample sets with exact percentiles, the timer
//! floor, process probes from `/proc/self`, and strict obs-registry reads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use obs::Snapshot;

/// Most samples a [`Samples`] keeps; beyond this it keeps a uniform
/// random subset (reservoir sampling), so memory stays bounded however
/// long a run measures.
const SAMPLE_CAP: usize = 1 << 20;

/// Nanosecond samples with nearest-rank percentiles over all samples, or
/// over a uniform reservoir of `SAMPLE_CAP` of them in long runs.
#[derive(Default, Clone)]
pub struct Samples {
    kept: Vec<u64>,
    seen: usize,
    rng: u64,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.kept.len() < SAMPLE_CAP {
            self.kept.push(ns);
            return;
        }
        // SplitMix64 step: a fixed sequence, so the subset is reproducible.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = ((z ^ (z >> 31)) % self.seen as u64) as usize;
        if j < SAMPLE_CAP {
            self.kept[j] = ns;
        }
    }

    /// How many samples were pushed (kept or not).
    pub fn len(&self) -> usize {
        self.seen
    }

    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Push every kept sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        for &v in &other.kept {
            self.push(v);
        }
    }

    /// Nearest-rank `q`-quantile in ns; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.kept.is_empty() {
            return 0.0;
        }
        let mut v = self.kept.clone();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        let (_, x, _) = v.select_nth_unstable(rank - 1);
        *x as f64
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p99.9/p99/p90 that has at least ten samples beyond
    /// it, as `(label, ns)`; the median when even p90 is unsupported.
    pub fn tail(&self) -> (&'static str, f64) {
        let n = self.seen;
        for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
            let rank = (q * n as f64).ceil() as usize;
            if n.saturating_sub(rank) >= 10 {
                return (label, self.quantile(q));
            }
        }
        ("p50", self.median())
    }
}

/// Nanoseconds since `t0`, saturating.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The timer floor: the mean of back-to-back `Instant::now()` pairs,
/// excluding the slowest 1 % (pairs split by an interrupt). Any timing
/// within a few multiples of this is at the resolution limit.
pub fn clock_ns() -> f64 {
    let mut pairs: Vec<u64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    pairs.sort_unstable();
    let kept = &pairs[..pairs.len() * 99 / 100];
    kept.iter().sum::<u64>() as f64 / kept.len() as f64
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    proc_field("/proc/self/status", "VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Live OS threads of this process.
pub fn threads() -> Result<u64, String> {
    proc_field("/proc/self/status", "Threads:")
        .ok_or_else(|| "Threads missing from /proc/self/status".to_string())
}

/// Write-family syscalls this process has made (`syscw`, counting
/// `writev` too); `None` where `/proc/self/io` is unreadable.
pub fn write_syscalls() -> Option<u64> {
    proc_field("/proc/self/io", "syscw:")
}

/// A counter that must exist. `Snapshot::counter` returns 0 for a
/// missing name, which would let a renamed metric pass silently; here an
/// absent name fails the run.
pub fn counter(s: &Snapshot, name: &str) -> Result<u64, String> {
    s.counters
        .get(name)
        .copied()
        .ok_or_else(|| format!("obs counter `{name}` is absent"))
}

/// A gauge's high-water mark; the gauge must exist.
pub fn gauge_hwm(s: &Snapshot, name: &str) -> Result<u64, String> {
    s.gauges
        .get(name)
        .map(|g| g.high_water)
        .ok_or_else(|| format!("obs gauge `{name}` is absent"))
}

/// A histogram's median estimate; the histogram must exist.
pub fn hist_p50(s: &Snapshot, name: &str) -> Result<f64, String> {
    s.histograms
        .get(name)
        .map(|h| h.p50() as f64)
        .ok_or_else(|| format!("obs histogram `{name}` is absent"))
}

/// `a / b`, or 0 when nothing happened (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-registry accumulation of snapshot diffs across passes, plus the
/// cost of observing them (`obs.*` metrics).
#[derive(Default)]
pub struct ObsTally {
    pub sum: Snapshot,
    pub snapshot_ns: Samples,
    pub merge_ns: Samples,
    pub snapshot_bytes: Samples,
}

impl ObsTally {
    /// Snapshot `reg`, timing the call.
    pub fn snap(&mut self, reg: &obs::Registry) -> Snapshot {
        let t = Instant::now();
        let s = reg.snapshot();
        self.snapshot_ns.push(ns_since(t));
        s
    }

    /// Fold the change between two snapshots into the running sum,
    /// timing the merge and recording the encoded snapshot size.
    pub fn fold(&mut self, before: &Snapshot, after: &Snapshot) {
        let d = after.diff(before);
        self.snapshot_bytes.push(after.to_bytes().len() as u64);
        let t = Instant::now();
        self.sum.merge(&d);
        self.merge_ns.push(ns_since(t));
    }
}

/// Complex values in the calibration kernel's field: 16 Ki × 16 B =
/// 256 KiB, past L1 and inside L2, like the live workloads' lattices,
/// faces and payload pools.
const CAL_SITES: usize = 1 << 14;
/// Sweeps over the field per call (about 0.1 ms).
const CAL_SWEEPS: usize = 2;
/// The streamed buffer: 1 MiB, past L2, filled once per call (about
/// 0.1 ms).
const CAL_STREAM: usize = 1 << 20;
/// 4 KiB round trips through the pipe per call (about 0.1 ms).
const CAL_PIPE_TRIPS: usize = 128;
const CAL_PIPE_BYTES: usize = 4096;

/// A fixed kernel owned by the benchmark, timed between solves to track
/// the host's speed. It has three parts of about equal time, one per
/// kind of work the workloads do: complex multiply-adds over an
/// L2-sized field (the Dslash compute), a fill of a buffer past L2
/// (memory bandwidth: payload copies, the DES's heaps), and 4 KiB round
/// trips through an anonymous pipe (kernel entry and copies: socket
/// writes and wake-ups). The program under test never runs it, so no
/// change to the program moves it; only the machine does.
pub struct Calibrator {
    field: Vec<(f64, f64)>,
    stream: Vec<u64>,
    pipe: (std::io::PipeReader, std::io::PipeWriter),
    calls: u64,
}

impl Calibrator {
    pub fn new() -> Result<Self, String> {
        let field = (0..CAL_SITES)
            .map(|i| {
                let x = i as f64 / CAL_SITES as f64;
                (0.5 + 0.25 * x, 0.75 - 0.5 * x)
            })
            .collect();
        Ok(Calibrator {
            field,
            stream: vec![0; CAL_STREAM / 8],
            pipe: std::io::pipe().map_err(|e| format!("calibration pipe: {e}"))?,
            calls: 0,
        })
    }

    /// Run the kernel once; returns its wall time in ns.
    pub fn time(&mut self) -> Result<u64, String> {
        use std::io::{Read, Write};
        let t = Instant::now();
        let n = self.field.len();
        debug_assert!(n.is_power_of_two());
        let mut acc = (0.0f64, 0.0f64);
        for sweep in 0..CAL_SWEEPS {
            let stride = 3 + 2 * sweep;
            for i in 0..n {
                let (a, b) = self.field[i];
                let (c, d) = self.field[(i * stride) & (n - 1)];
                // (a+bi)(c+di), scaled and shifted: a contraction onto a
                // nonzero fixed point, so values stay normal and bounded.
                let re = 0.25 * (a * c - b * d) + 0.5;
                let im = 0.25 * (a * d + b * c) + 0.25;
                acc.0 += re;
                acc.1 += im;
                self.field[i] = (re, im);
            }
        }
        self.calls += 1;
        self.stream.fill(self.calls);
        let mut out = [0u8; CAL_PIPE_BYTES];
        let mut back = [0u8; CAL_PIPE_BYTES];
        out[0] = self.calls as u8;
        let (rd, wr) = &mut self.pipe;
        for _ in 0..CAL_PIPE_TRIPS {
            wr.write_all(&out)
                .and_then(|()| rd.read_exact(&mut back))
                .map_err(|e| format!("calibration pipe: {e}"))?;
        }
        std::hint::black_box((acc, &self.stream, back));
        Ok(ns_since(t))
    }

    /// Call the kernel at least `CAL_MIN_CALLS` times and for at least
    /// `budget`, logging each time in `log`; returns the scale that puts
    /// a time measured now at the reference speed: `CAL_REF_NS` ÷ the
    /// median of these calls.
    pub fn scale(&mut self, budget: Duration, log: &mut Samples) -> Result<f64, String> {
        let t = Instant::now();
        let mut now = Samples::default();
        while now.len() < CAL_MIN_CALLS || t.elapsed() < budget {
            let ns = self.time()?;
            log.push(ns);
            now.push(ns);
        }
        Ok(ratio(CAL_REF_NS, now.median()))
    }
}

/// The calibration kernel's time, in ns, that defines the reference
/// host speed the gated timings are put at.
pub const CAL_REF_NS: f64 = 300_000.0;
/// Fewest calibration-kernel calls behind one scale.
const CAL_MIN_CALLS: usize = 3;

/// A timing kept twice: each sample as measured, and scaled to the
/// reference host speed by the calibration of the round it ran in
/// (`CAL_REF_NS` ÷ that round's calibration time). The gated metrics
/// read the scaled samples; report lines show the measured ones.
#[derive(Default)]
pub struct Gated {
    pub raw: Samples,
    pub at_ref: Samples,
}

impl Gated {
    pub fn push(&mut self, ns: u64, scale: f64) {
        self.raw.push(ns);
        self.at_ref.push((ns as f64 * scale).round() as u64);
    }
}

/// Named metric values; units come from the catalog in `main.rs`.
pub type Metrics = BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.tail(), ("p90", 90.0));
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn long_runs_keep_a_bounded_uniform_subset() {
        let mut s = Samples::default();
        let n = 3 * SAMPLE_CAP as u64;
        for v in 0..n {
            s.push(v);
        }
        assert_eq!(s.len(), n as usize);
        assert_eq!(s.kept.len(), SAMPLE_CAP);
        let mid = s.median() / n as f64;
        assert!((mid - 0.5).abs() < 0.01, "median at {mid} of the range");
    }

    #[test]
    fn gated_times_keep_the_measured_and_the_scaled_sample() {
        let mut g = Gated::default();
        g.push(1_000, 0.5);
        g.push(3_000, 2.0);
        assert_eq!((g.raw.median(), g.raw.len()), (1_000.0, 2));
        assert_eq!(g.at_ref.quantile(1.0), 6_000.0);
        assert_eq!(g.at_ref.median(), 500.0);
    }

    #[test]
    fn calibration_scales_to_the_reference_speed() {
        let mut cal = Calibrator::new().unwrap();
        let mut log = Samples::default();
        let scale = cal.scale(Duration::ZERO, &mut log).unwrap();
        assert_eq!(log.len(), CAL_MIN_CALLS);
        assert!(scale > 0.0 && scale.is_finite());
        assert_eq!(scale, CAL_REF_NS / log.median());
        // A budget keeps it calling past the minimum.
        let mut log = Samples::default();
        cal.scale(Duration::from_millis(20), &mut log).unwrap();
        assert!(log.len() > CAL_MIN_CALLS);
    }

    #[test]
    fn missing_counter_fails_instead_of_reading_zero() {
        let reg = obs::Registry::default();
        reg.counter("wire.frames_tx").add(3);
        let s = reg.snapshot();
        assert_eq!(counter(&s, "wire.frames_tx"), Ok(3));
        assert!(counter(&s, "wire.frames_txx").is_err());
        assert_eq!(s.counter("wire.frames_txx"), 0, "the lenient read hides it");
    }
}
