//! Benchmark-side span tracer for the traced pass.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the program itself is not instrumented). A span holds its name,
//! layer, start, end, parent and the request id it serves; spans of one
//! step live in a per-step buffer, and at the end of each step every
//! span's self time (duration minus the part its children cover) is
//! added to its layer's total. The first `KEEP_SPANS` spans are retained
//! in memory and written as a Chrome trace when the pass ends.

use std::io::Write;
use std::time::Instant;

/// The layers spans are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop: stage bookkeeping, peer request sweeps.
    Bench,
    /// `offload::OffloadHandle` calls (command path, pool).
    Offload,
    /// `wire::WireComm` calls (engine, fabric, shm ring).
    Wire,
    /// `wire::nbcrun::NbcRun` steps.
    Nbc,
    /// `qcd::dslash`.
    Qcd,
    /// The discrete-event drivers (`qcd::run_dslash`, `fft1d::run_fft`).
    Des,
    /// Output verification: payload hashes, allreduce sums, DES values.
    Check,
}

/// Each layer with its trace category and its self-time metric.
pub const LAYERS: [(Layer, &str, &str); 7] = [
    (Layer::Bench, "bench", "self_pct.bench"),
    (Layer::Offload, "offload", "self_pct.offload"),
    (Layer::Wire, "wire", "self_pct.wire"),
    (Layer::Nbc, "nbc", "self_pct.nbc"),
    (Layer::Qcd, "qcd", "self_pct.qcd"),
    (Layer::Des, "des", "self_pct.des"),
    (Layer::Check, "check", "self_pct.check"),
];

const NO_PARENT: usize = usize::MAX;
const KEEP_SPANS: usize = 50_000;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    layer: Layer,
    start: u64,
    end: u64,
    parent: usize,
    req: u64,
}

/// Records spans when `on`; every method is a branch and nothing else
/// when off, so one loop body serves the traced and untraced passes.
pub struct Tracer {
    on: bool,
    base: Instant,
    stack: Vec<usize>,
    step: Vec<Span>,
    kept: Vec<Span>,
    self_ns: [u64; LAYERS.len()],
    /// Summed duration of step roots.
    covered_ns: u64,
    /// Largest root self time among steps whose children are stages.
    max_residual_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            base: Instant::now(),
            stack: Vec::new(),
            step: Vec::new(),
            kept: Vec::new(),
            self_ns: [0; LAYERS.len()],
            covered_ns: 0,
            max_residual_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, layer: Layer, name: &'static str, req: u64, start: u64) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.step.len());
        self.step.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            req,
        });
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, layer: Layer, name: &'static str, req: u64) {
        if self.on {
            let t = self.now();
            self.push(layer, name, req, t);
        }
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let t = self.now();
            let i = self.stack.pop().expect("close without open span");
            self.step[i].end = t;
        }
    }

    /// Open a step root and its first stage with one clock read.
    pub fn begin_stages(&mut self, root: &'static str, first: &'static str, req: u64) {
        if self.on {
            let t = self.now();
            self.push(Layer::Bench, root, req, t);
            self.push(Layer::Bench, first, req, t);
        }
    }

    /// Close the last stage and its step root with one clock read.
    pub fn end_stages(&mut self) {
        if self.on {
            let t = self.now();
            for _ in 0..2 {
                let i = self.stack.pop().expect("end_stages without open stage");
                self.step[i].end = t;
            }
        }
    }

    /// Close the innermost span and open its successor at the same
    /// instant: consecutive stages of a step share one clock read, so the
    /// stages tile the step and any uncovered time is real.
    pub fn stage(&mut self, name: &'static str, req: u64) {
        if self.on {
            let t = self.now();
            let i = self.stack.pop().expect("stage without open span");
            self.step[i].end = t;
            self.push(Layer::Bench, name, req, t);
        }
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        self.open(layer, name, req);
        let r = f();
        self.close();
        r
    }

    /// Close out a step: attribute self times, account root coverage,
    /// and check that staged roots are tiled by their stages.
    pub fn end_step(&mut self, staged: bool) {
        if !self.on {
            return;
        }
        assert!(self.stack.is_empty(), "step ended with open spans");
        let mut child_ns = vec![0u64; self.step.len()];
        for s in &self.step {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.end - s.start;
            }
        }
        for (i, s) in self.step.iter().enumerate() {
            let own = (s.end - s.start).saturating_sub(child_ns[i]);
            let slot = LAYERS
                .iter()
                .position(|(l, _, _)| *l == s.layer)
                .expect("layer in LAYERS");
            self.self_ns[slot] += own;
            if s.parent == NO_PARENT {
                self.covered_ns += s.end - s.start;
                if staged {
                    self.max_residual_ns = self.max_residual_ns.max(own);
                }
            }
        }
        let room = KEEP_SPANS.saturating_sub(self.kept.len());
        let base = self.kept.len();
        self.kept.extend(self.step.iter().take(room).map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..*s
        }));
        self.step.clear();
    }

    /// Self time per layer, in ns, in [`LAYERS`] order.
    pub fn self_ns(&self) -> [u64; LAYERS.len()] {
        self.self_ns
    }

    pub fn covered_ns(&self) -> u64 {
        self.covered_ns
    }

    pub fn max_residual_ns(&self) -> u64 {
        self.max_residual_ns
    }

    /// Write the retained spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.kept.iter().enumerate() {
            let layer = LAYERS
                .iter()
                .find(|(l, _, _)| *l == s.layer)
                .map_or("?", |(_, n, _)| n);
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                i,
                parent,
                s.req
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new(true);
        t.begin_stages("step", "post", 0);
        t.leaf(Layer::Wire, "isend", 1, || std::hint::black_box(0));
        t.stage("wait", 0);
        t.leaf(Layer::Wire, "progress", 1, || std::hint::black_box(0));
        t.end_stages();
        t.end_step(true);
        let total: u64 = t.self_ns().iter().sum();
        assert_eq!(total, t.covered_ns(), "self times partition the root");
        assert_eq!(t.max_residual_ns(), 0, "stages tile the step exactly");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.open(Layer::Bench, "step", 0);
        t.close();
        t.end_step(true);
        assert_eq!(t.covered_ns(), 0);
    }
}
