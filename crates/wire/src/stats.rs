//! The launcher side of the cluster observability plane.
//!
//! Each rank's engine ships `Stats` frames (a serialized
//! [`obs::Snapshot`]) and `Stall` watchdog events over a dedicated Unix
//! socket the launcher binds in the bootstrap directory (`stats.sock`,
//! advertised as `WIRE_STATS_SOCK`). The [`Collector`] accepts one
//! connection per rank and folds every frame into shared per-rank state;
//! the launcher renders that state as a live min/median/max cluster table
//! while the job runs and as a JSON report (`--stats-out`) when it ends.
//!
//! The plane is strictly best-effort and one-directional: ranks never
//! block on the launcher (writes are small; a failed write disables the
//! rank's link), and a missing or dead collector never affects the data
//! path. Frames ride the same 24-byte header as the mesh
//! ([`crate::proto`]); a `Stall` frame carries its evidence in the header
//! (`xid` = stalled milliseconds, `tag` = pending operations) with the
//! rank's last snapshot as the body, so a straggler is reported with the
//! state it stalled in rather than dying silently at the job timeout.
//!
//! At scale the star topology gives way to the relay tree
//! ([`crate::relay`]): the collector then accepts O(k) connections
//! carrying `Relay` frames — subtree-merged snapshots whose header
//! announces coverage (`tag`) and height (`xid`) — folded into a bounded
//! [`RelayAgg`] instead of per-rank state, while forwarded `Stall`
//! frames still land on their original rank's row. The final report also
//! carries each dead rank's black-box flight-recorder dump
//! ([`obs::BlackBoxDump`], harvested by the launcher from
//! `blackbox-<rank>.obb`), rendered with the [`bbcode`] event names so a
//! SIGKILLed rank leaves a replayable timeline instead of just
//! `"dead": true`.

use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{FrameKind, Header, HEADER_LEN};

/// The black-box flight recorder's event-code table. The recorder itself
/// ([`obs::BlackBox`]) stores opaque `(code, a, b, c, d)` tuples; the
/// wire layer owns what the codes mean. Frame events use
/// `(peer, tag, xid, len)` as operands.
pub mod bbcode {
    use crate::proto::FrameKind;

    pub const TX_EAGER: u16 = 1;
    pub const TX_RTS: u16 = 2;
    pub const TX_CTS: u16 = 3;
    pub const TX_DATA: u16 = 4;
    pub const RX_EAGER: u16 = 5;
    pub const RX_RTS: u16 = 6;
    pub const RX_CTS: u16 = 7;
    pub const RX_DATA: u16 = 8;
    pub const PEER_LOST: u16 = 9;
    /// Watchdog trip: `a` = pending ops, `d` = stalled milliseconds.
    pub const STALL: u16 = 10;
    pub const PROTO_ERR: u16 = 11;
    /// Upward relay emission.
    pub const RELAY_TX: u16 = 12;
    /// Direct (star-mode) stats emission.
    pub const STATS_TX: u16 = 13;
    /// Any other delivered frame kind (Hello, Doorbell, …).
    pub const RX_OTHER: u16 = 14;

    /// Human-readable name for a code (report rendering).
    pub fn name(code: u16) -> &'static str {
        match code {
            TX_EAGER => "tx_eager",
            TX_RTS => "tx_rts",
            TX_CTS => "tx_cts",
            TX_DATA => "tx_data",
            RX_EAGER => "rx_eager",
            RX_RTS => "rx_rts",
            RX_CTS => "rx_cts",
            RX_DATA => "rx_data",
            PEER_LOST => "peer_lost",
            STALL => "stall",
            PROTO_ERR => "proto_err",
            RELAY_TX => "relay_tx",
            STATS_TX => "stats_tx",
            RX_OTHER => "rx_other",
            _ => "unknown",
        }
    }

    /// The receive-side code for a delivered frame kind.
    pub fn rx_code(kind: FrameKind) -> u16 {
        match kind {
            FrameKind::Eager => RX_EAGER,
            FrameKind::Rts => RX_RTS,
            FrameKind::Cts => RX_CTS,
            FrameKind::Data => RX_DATA,
            _ => RX_OTHER,
        }
    }
}

/// Watchdog evidence carried by a `Stall` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallInfo {
    pub stalled_ms: u32,
    pub pending_ops: u32,
}

/// How many recent snapshots [`SnapshotHistory`] retains besides the
/// first. Long runs at many ranks ship thousands of periodic frames; the
/// collector must stay O(ranks), not O(frames).
pub const HISTORY_CAP: usize = 8;

/// Bounded per-rank snapshot trajectory: the first snapshot ever received
/// (the rank's starting state) plus the `HISTORY_CAP` most recent ones.
/// Everything in between is dropped and counted, so collector memory is
/// constant per rank no matter how long the job runs or how fast the rank
/// ships frames.
#[derive(Clone, Debug, Default)]
pub struct SnapshotHistory {
    first: Option<obs::Snapshot>,
    recent: std::collections::VecDeque<obs::Snapshot>,
    dropped: u64,
}

impl SnapshotHistory {
    pub fn push(&mut self, snap: obs::Snapshot) {
        if self.first.is_none() {
            self.first = Some(snap.clone());
        }
        if self.recent.len() == HISTORY_CAP {
            self.recent.pop_front();
            self.dropped += 1;
        }
        self.recent.push_back(snap);
    }

    /// The rank's first-ever snapshot (kept even once the ring wraps).
    pub fn first(&self) -> Option<&obs::Snapshot> {
        self.first.as_ref()
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&obs::Snapshot> {
        self.recent.back()
    }

    /// Recent snapshots, oldest first (≤ [`HISTORY_CAP`]).
    pub fn recent(&self) -> impl Iterator<Item = &obs::Snapshot> {
        self.recent.iter()
    }

    /// Snapshots retained right now (first + recent, no double count).
    pub fn retained(&self) -> usize {
        let first_separate = self.dropped > 0 && self.first.is_some();
        self.recent.len() + usize::from(first_separate)
    }

    /// Snapshots evicted from the ring to stay within the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Everything the collector has heard from one rank.
#[derive(Clone, Debug, Default)]
pub struct RankStats {
    /// `Stats` frames received (the initial frame arrives on the rank's
    /// first `progress` call, so a rank that bootstrapped at all has ≥ 1).
    pub snapshots: u64,
    /// Most recent snapshot, whichever frame kind carried it.
    pub last: Option<obs::Snapshot>,
    /// Bounded trajectory: first snapshot + the most recent few.
    pub history: SnapshotHistory,
    /// Latest stall event, if the rank's watchdog ever tripped.
    pub stall: Option<StallInfo>,
}

/// What the collector heard from one directly-connected relay subtree
/// (keyed by the subtree root's rank — usually just rank 0).
#[derive(Clone, Debug, Default)]
pub struct RelaySubtree {
    /// Ranks the latest merged snapshot covers (`Relay` header `tag`).
    pub coverage: u32,
    /// Subtree height, 1 for a lone leaf (`Relay` header `xid`).
    pub height: u32,
    /// Relay frames received from this subtree root.
    pub frames: u64,
    /// Latest merged snapshot.
    pub last: Option<obs::Snapshot>,
}

/// Bounded relay-tree state: one [`RelaySubtree`] per direct child of
/// the collector — O(k) memory however many ranks the tree covers.
#[derive(Clone, Debug, Default)]
pub struct RelayAgg {
    pub subtrees: BTreeMap<u32, RelaySubtree>,
}

impl RelayAgg {
    /// Did any relay frame ever arrive?
    pub fn active(&self) -> bool {
        !self.subtrees.is_empty()
    }

    /// Ranks covered across every subtree.
    pub fn coverage(&self) -> u64 {
        self.subtrees.values().map(|s| s.coverage as u64).sum()
    }

    /// Realized tree depth below the collector: the tallest subtree's
    /// height minus one (a lone leaf is depth 0).
    pub fn depth(&self) -> u32 {
        self.subtrees
            .values()
            .map(|s| s.height.saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Relay frames received in total.
    pub fn frames(&self) -> u64 {
        self.subtrees.values().map(|s| s.frames).sum()
    }

    /// All subtrees' latest snapshots merged into the whole-world view.
    pub fn merged(&self) -> obs::Snapshot {
        let mut out = obs::Snapshot::default();
        for sub in self.subtrees.values() {
            if let Some(s) = &sub.last {
                out.merge(s);
            }
        }
        out
    }
}

/// Everything the collector accumulates: per-rank rows (star mode and
/// forwarded stall evidence) plus the relay-tree aggregate.
#[derive(Clone, Debug, Default)]
pub struct CollectorShared {
    pub ranks: Vec<RankStats>,
    pub relay: RelayAgg,
}

impl CollectorShared {
    /// Rank-stats rows for table rendering: the per-rank rows when any
    /// rank reported directly, otherwise one merged pseudo-row per relay
    /// subtree (so the live table shows the cluster-wide totals, whose
    /// `obs.relay_merged.d<depth>` counters break activity out by tree
    /// depth).
    pub fn table_stats(&self) -> Vec<RankStats> {
        if self.ranks.iter().any(|r| r.snapshots > 0) || !self.relay.active() {
            return self.ranks.clone();
        }
        self.relay
            .subtrees
            .values()
            .map(|sub| RankStats {
                snapshots: sub.frames,
                last: sub.last.clone(),
                history: SnapshotHistory::default(),
                stall: None,
            })
            .collect()
    }
}

/// Accepts rank connections on the stats socket and folds their frames
/// into per-rank state. One acceptor thread, one reader thread per rank.
pub struct Collector {
    shared: Arc<Mutex<CollectorShared>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Collector {
    /// Bind `sock` and start collecting for an `n`-rank job.
    pub fn start(sock: &Path, n: usize) -> std::io::Result<Collector> {
        let listener = UnixListener::bind(sock)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Mutex::new(CollectorShared {
            ranks: vec![RankStats::default(); n],
            relay: RelayAgg::default(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut readers = Vec::new();
                // ORDERING: Relaxed — quit flag; no data rides on it (the
                // reader threads are joined before state is consumed).
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let shared = Arc::clone(&shared);
                            let stop = Arc::clone(&stop);
                            readers.push(std::thread::spawn(move || {
                                read_frames(stream, &shared, &stop)
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
                for r in readers {
                    let _ = r.join();
                }
            })
        };
        Ok(Collector {
            shared,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// Clone the current state (live table rendering).
    pub fn peek(&self) -> CollectorShared {
        self.shared.lock().expect("collector mutex").clone()
    }

    /// Stop accepting, join the reader threads, return the final state.
    pub fn finish(mut self) -> CollectorShared {
        // ORDERING: Relaxed — quit flag; the join() below is the real
        // synchronization point for everything the threads wrote.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shared.lock().expect("collector mutex").clone()
    }
}

/// Read every frame a rank ships until EOF or shutdown.
fn read_frames(mut stream: UnixStream, shared: &Mutex<CollectorShared>, stop: &AtomicBool) {
    // A short read timeout keeps the thread responsive to `stop` even
    // when the rank is alive but quiet (e.g. SIGSTOPed).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        let mut hdr_buf = [0u8; HEADER_LEN];
        if !read_full(&mut stream, &mut hdr_buf, stop) {
            return;
        }
        let Ok(hdr) = Header::decode(&hdr_buf) else {
            return; // corrupt stream: drop the link
        };
        let mut body = vec![0u8; hdr.body_len()];
        if !read_full(&mut stream, &mut body, stop) {
            return;
        }
        let snap = obs::Snapshot::from_bytes(&body).ok();
        let mut shared = shared.lock().expect("collector mutex");
        if hdr.kind == FrameKind::Relay {
            // Subtree-merged snapshot from a direct child of the
            // collector (the relay tree's root, or several roots if the
            // operator points disjoint trees at one socket). Bounded:
            // one retained snapshot per direct connection.
            let sub = shared.relay.subtrees.entry(hdr.src).or_default();
            sub.frames += 1;
            sub.coverage = hdr.tag.max(1);
            sub.height = hdr.xid.max(1);
            if let Some(s) = snap {
                sub.last = Some(s);
            }
            continue;
        }
        let Some(slot) = shared.ranks.get_mut(hdr.src as usize) else {
            continue; // bogus rank id; keep the stream, drop the frame
        };
        match hdr.kind {
            FrameKind::Stats => {
                slot.snapshots += 1;
                if let Some(s) = snap {
                    slot.history.push(s.clone());
                    slot.last = Some(s);
                }
            }
            FrameKind::Stall => {
                slot.stall = Some(StallInfo {
                    stalled_ms: hdr.xid,
                    pending_ops: hdr.tag,
                });
                if let Some(s) = snap {
                    slot.history.push(s.clone());
                    slot.last = Some(s);
                }
            }
            _ => {} // only stats-plane frames belong on this socket
        }
    }
}

/// Fill `buf` completely; false on EOF, error, or shutdown.
fn read_full(stream: &mut UnixStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return false,
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // ORDERING: Relaxed — quit flag, as above.
                if stop.load(Ordering::Relaxed) {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Aggregation and rendering
// ---------------------------------------------------------------------------

/// One snapshot flattened to `name → value` scalars: counters as-is,
/// gauges as `name` (value) and `name.hwm`, histograms as `name.count`,
/// `name.sum` and the `name.p50`/`.p95`/`.p99` tail estimates. This is
/// the shape min/median/max aggregates over.
pub fn scalar_metrics(snap: &obs::Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (k, v) in &snap.counters {
        out.insert(k.clone(), *v);
    }
    for (k, g) in &snap.gauges {
        out.insert(k.clone(), g.value);
        out.insert(format!("{k}.hwm"), g.high_water);
    }
    for (k, h) in &snap.histograms {
        out.insert(format!("{k}.count"), h.count);
        out.insert(format!("{k}.sum"), h.sum);
        if h.count > 0 {
            out.insert(format!("{k}.p50"), h.p50());
            out.insert(format!("{k}.p95"), h.p95());
            out.insert(format!("{k}.p99"), h.p99());
        }
    }
    out
}

/// Min/median/max of one metric across the ranks that reported it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aggregate {
    pub min: u64,
    pub median: u64,
    pub max: u64,
}

/// Aggregate every metric any rank reported, keyed by metric name
/// (BTreeMap: deterministic order for table and report stability).
pub fn aggregate(stats: &[RankStats]) -> BTreeMap<String, Aggregate> {
    let mut per: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for rs in stats {
        if let Some(snap) = &rs.last {
            for (k, v) in scalar_metrics(snap) {
                per.entry(k).or_default().push(v);
            }
        }
    }
    per.into_iter()
        .map(|(k, mut vs)| {
            vs.sort_unstable();
            let agg = Aggregate {
                min: vs[0],
                median: vs[vs.len() / 2],
                max: *vs.last().expect("non-empty"),
            };
            (k, agg)
        })
        .collect()
}

/// The live cluster table: one header line, then min/median/max per
/// metric (all-zero rows elided for signal), then a per-rank status line.
pub fn cluster_table(stats: &[RankStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>12} {:>12} {:>12}\n",
        "metric", "min", "median", "max"
    ));
    for (k, a) in aggregate(stats) {
        if a.max == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<36} {:>12} {:>12} {:>12}\n",
            k, a.min, a.median, a.max
        ));
    }
    for (rank, rs) in stats.iter().enumerate() {
        out.push_str(&format!("rank {rank}: {} snapshot(s)", rs.snapshots));
        if let Some(st) = rs.stall {
            out.push_str(&format!(
                "  STALLED {}ms with {} pending op(s)",
                st.stalled_ms, st.pending_ops
            ));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

/// One rank's row in the final report: collector state joined with the
/// launcher's verdict on the process itself.
#[derive(Clone, Debug)]
pub struct RankRow {
    pub rank: usize,
    /// The launcher's `RankOutcome`, displayed ("ok", "killed by signal 9", …).
    pub outcome: String,
    /// Did the process die without a clean exit (signal or timeout kill)?
    pub dead: bool,
    pub stats: RankStats,
    /// The rank's last persisted flight-recorder dump, when the launcher
    /// found one (`blackbox-<rank>.obb` in the bootstrap directory).
    pub blackbox: Option<obs::BlackBoxDump>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_metrics_obj(out: &mut String, snap: &obs::Snapshot) {
    let mut first = true;
    for (k, v) in scalar_metrics(snap) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{}\": {}", json_escape(&k), v));
    }
}

/// The final JSON report: per-rank rows (outcome, liveness, stall
/// evidence, last snapshot flattened to scalars, black-box timeline)
/// plus the cluster aggregate. Hand-rolled; parseable by
/// `obs::chrome::parse_json`.
pub fn render_report(rows: &[RankRow]) -> String {
    render_report_with(rows, None)
}

/// As [`render_report`], with the relay-tree aggregate when the plane
/// ran in tree mode: a top-level `"relay"` object carrying coverage,
/// realized depth, frame count, and the whole-world merged metrics.
pub fn render_report_with(rows: &[RankRow], relay: Option<&RelayAgg>) -> String {
    let mut out = String::from("{\n  \"ranks\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"rank\": {}, ", row.rank));
        out.push_str(&format!("\"outcome\": \"{}\", ", json_escape(&row.outcome)));
        out.push_str(&format!("\"dead\": {}, ", row.dead));
        out.push_str(&format!("\"snapshots\": {}, ", row.stats.snapshots));
        out.push_str(&format!(
            "\"history\": {{\"retained\": {}, \"dropped\": {}}}, ",
            row.stats.history.retained(),
            row.stats.history.dropped()
        ));
        match row.stats.stall {
            Some(st) => out.push_str(&format!(
                "\"stall\": {{\"stalled_ms\": {}, \"pending_ops\": {}}}, ",
                st.stalled_ms, st.pending_ops
            )),
            None => out.push_str("\"stall\": null, "),
        }
        match &row.blackbox {
            Some(bb) => {
                out.push_str(&format!(
                    "\"blackbox\": {{\"capacity\": {}, \"recorded\": {}, \"events\": [",
                    bb.capacity, bb.recorded
                ));
                for (j, e) in bb.events.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"seq\": {}, \"t_us\": {}, \"code\": \"{}\", \"a\": {}, \"b\": {}, \"c\": {}, \"d\": {}}}",
                        e.seq,
                        e.t_us,
                        bbcode::name(e.code),
                        e.a,
                        e.b,
                        e.c,
                        e.d
                    ));
                }
                out.push_str("]}, ");
            }
            None => out.push_str("\"blackbox\": null, "),
        }
        out.push_str("\"metrics\": {");
        if let Some(snap) = &row.stats.last {
            push_metrics_obj(&mut out, snap);
        }
        out.push_str("}}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    match relay.filter(|r| r.active()) {
        Some(r) => {
            out.push_str(&format!(
                "  \"relay\": {{\"coverage\": {}, \"depth\": {}, \"frames\": {}, \"merged\": {{",
                r.coverage(),
                r.depth(),
                r.frames()
            ));
            push_metrics_obj(&mut out, &r.merged());
            out.push_str("}},\n");
        }
        None => out.push_str("  \"relay\": null,\n"),
    }
    out.push_str("  \"aggregate\": {\n");
    let stats: Vec<RankStats> = rows.iter().map(|r| r.stats.clone()).collect();
    let agg = aggregate(&stats);
    let n = agg.len();
    for (i, (k, a)) in agg.into_iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"min\": {}, \"median\": {}, \"max\": {}}}",
            json_escape(&k),
            a.min,
            a.median,
            a.max
        ));
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Durably write the report: create a pid-suffixed temp sibling, fsync,
/// then rename over `path` — a reader (or a launcher killed mid-write)
/// sees either the previous complete report or the new one, never a
/// truncated file. The pid suffix also keeps two launchers sharing an
/// output directory from trampling each other's in-flight temp file.
pub fn write_report_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let file_name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "report.json".into());
    let tmp = path.with_file_name(format!("{file_name}.{}.tmp", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Everything the `stats-check` CI gate can assert about a report.
#[derive(Clone, Debug, Default)]
pub struct ReportChecks {
    /// Exact number of rank rows, covering ranks `0..ranks`.
    pub ranks: usize,
    /// Metrics that must be `> 0` on every clean rank (or, when ranks
    /// reported only through the relay tree, in the relay merge).
    pub positive: Vec<String>,
    /// Metrics that must be present and `0` on every clean rank (or in
    /// the relay merge, as for `positive`).
    pub zero: Vec<String>,
    /// Require a `relay` section whose realized tree depth is at least
    /// this, and (when every rank exited cleanly) whose coverage equals
    /// the rank count — proof the tree actually carried the world.
    pub relay_depth_min: Option<u64>,
    /// Require at least one dead rank whose black-box timeline carries at
    /// least this many events with monotone timestamps and strictly
    /// increasing sequence numbers — the postmortem-dump gate.
    pub blackbox_dead_min: Option<usize>,
}

/// Validate a rendered report: parses, has exactly `checks.ranks` rows
/// covering ranks `0..ranks`, every metric named in `positive` is `> 0`,
/// and every metric named in `zero` is present and `0`, on every rank
/// that exited cleanly (dead ranks are exempt — their last snapshot
/// legitimately predates the work). `zero` is how the shm smoke lane
/// pins `wire.eager_alloc` to nothing: any value would mean an eager send
/// staged a heap copy, and an absent counter would mean the gate checks
/// a name the engine no longer records (a rename must fail it, not
/// silently pass). In relay-tree
/// worlds ranks may never dial the launcher directly; when a clean
/// rank's metrics are empty and the report carries a `relay` section,
/// the positive/zero checks fall back to the relay merge. Returns the
/// parsed rank count on success.
pub fn validate_report_checks(text: &str, checks: &ReportChecks) -> Result<usize, String> {
    use obs::chrome::Json;
    let ranks = checks.ranks;
    let doc = obs::chrome::parse_json(text)?;
    let rows = match doc.get("ranks") {
        Some(Json::Arr(a)) => a,
        _ => return Err("report has no \"ranks\" array".into()),
    };
    if rows.len() != ranks {
        return Err(format!("expected {ranks} rank rows, found {}", rows.len()));
    }
    let relay = doc.get("relay").filter(|r| !matches!(r, Json::Null));
    let relay_metrics = relay.and_then(|r| r.get("merged"));
    let mut seen = vec![false; ranks];
    let mut dead_rows = 0usize;
    let mut blackbox_ok = false;
    for row in rows {
        let rank = row
            .get("rank")
            .and_then(Json::as_num)
            .ok_or("rank row missing \"rank\"")? as usize;
        if rank >= ranks || seen[rank] {
            return Err(format!("bogus or duplicate rank {rank}"));
        }
        seen[rank] = true;
        let dead = matches!(row.get("dead"), Some(Json::Bool(true)));
        let metrics = row.get("metrics").ok_or("rank row missing \"metrics\"")?;
        if dead {
            dead_rows += 1;
            if let Some(min) = checks.blackbox_dead_min {
                if let Some(bb) = row.get("blackbox").filter(|b| !matches!(b, Json::Null)) {
                    blackbox_ok |= check_blackbox_timeline(bb, min)
                        .map_err(|e| format!("rank {rank}: {e}"))?;
                }
            }
            continue;
        }
        // A clean rank with no metrics of its own is fine in a relay
        // world — its counters arrived merged. Point the metric checks
        // at the relay merge instead.
        let empty = matches!(metrics, Json::Obj(m) if m.is_empty());
        let target = if empty && relay_metrics.is_some() {
            relay_metrics.ok_or("unreachable")?
        } else {
            metrics
        };
        for name in &checks.positive {
            let v = target.get(name).and_then(Json::as_num).unwrap_or(0.0);
            if v <= 0.0 {
                return Err(format!("rank {rank}: metric {name:?} not positive ({v})"));
            }
        }
        for name in &checks.zero {
            match target.get(name).and_then(Json::as_num) {
                None => return Err(format!("rank {rank}: metric {name:?} absent")),
                Some(v) if v != 0.0 => {
                    return Err(format!("rank {rank}: metric {name:?} not zero ({v})"));
                }
                Some(_) => {}
            }
        }
    }
    if let Some(min_depth) = checks.relay_depth_min {
        let r = relay.ok_or("report has no \"relay\" section but --relay-depth was asked")?;
        let depth = r.get("depth").and_then(Json::as_num).unwrap_or(-1.0);
        if depth < min_depth as f64 {
            return Err(format!("relay depth {depth} < required {min_depth}"));
        }
        let coverage = r.get("coverage").and_then(Json::as_num).unwrap_or(0.0);
        if dead_rows == 0 && coverage != ranks as f64 {
            return Err(format!(
                "relay coverage {coverage} != world size {ranks} with no dead ranks"
            ));
        }
    }
    if checks.blackbox_dead_min.is_some() {
        if dead_rows == 0 {
            return Err("--blackbox-dead requires at least one dead rank row".into());
        }
        if !blackbox_ok {
            return Err("no dead rank carried a valid black-box timeline".into());
        }
    }
    if doc.get("aggregate").is_none() {
        return Err("report has no \"aggregate\" object".into());
    }
    Ok(ranks)
}

/// One dead rank's black-box object: enough events, monotone time,
/// strictly increasing sequence numbers. `Ok(false)` means present but
/// too short (another dead rank may still satisfy the gate).
fn check_blackbox_timeline(bb: &obs::chrome::Json, min: usize) -> Result<bool, String> {
    use obs::chrome::Json;
    let events = match bb.get("events") {
        Some(Json::Arr(a)) => a,
        _ => return Err("blackbox object has no \"events\" array".into()),
    };
    if events.len() < min {
        return Ok(false);
    }
    let mut prev_seq = -1.0f64;
    let mut prev_t = -1.0f64;
    for e in events {
        let seq = e
            .get("seq")
            .and_then(Json::as_num)
            .ok_or("event missing seq")?;
        let t = e
            .get("t_us")
            .and_then(Json::as_num)
            .ok_or("event missing t_us")?;
        if seq <= prev_seq {
            return Err(format!("blackbox seq not strictly increasing at {seq}"));
        }
        if t < prev_t {
            return Err(format!("blackbox t_us went backwards at {t}"));
        }
        prev_seq = seq;
        prev_t = t;
    }
    Ok(true)
}

/// The classic four-argument gate, kept for the smoke lanes that only
/// pin rank count and counters. See [`validate_report_checks`].
pub fn validate_report(
    text: &str,
    ranks: usize,
    positive: &[String],
    zero: &[String],
) -> Result<usize, String> {
    validate_report_checks(
        text,
        &ReportChecks {
            ranks,
            positive: positive.to_vec(),
            zero: zero.to_vec(),
            ..ReportChecks::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(counters: &[(&str, u64)]) -> obs::Snapshot {
        let mut s = obs::Snapshot::default();
        for (k, v) in counters {
            s.counters.insert((*k).into(), *v);
        }
        s
    }

    fn stats_with(counters: &[(&str, u64)]) -> RankStats {
        RankStats {
            snapshots: 1,
            last: Some(snap_with(counters)),
            history: SnapshotHistory::default(),
            stall: None,
        }
    }

    #[test]
    fn history_keeps_first_and_recent_within_cap() {
        let mut h = SnapshotHistory::default();
        let total = HISTORY_CAP * 10 + 3;
        for i in 0..total {
            h.push(snap_with(&[("tick", i as u64)]));
        }
        // Bounded: first + at most HISTORY_CAP recent, the rest counted.
        assert_eq!(h.recent().count(), HISTORY_CAP);
        assert_eq!(h.retained(), HISTORY_CAP + 1);
        assert_eq!(h.dropped() as usize, total - HISTORY_CAP);
        // The first snapshot survives the wrap; the last is the newest.
        assert_eq!(h.first().expect("first").counter("tick"), 0);
        assert_eq!(h.last().expect("last").counter("tick"), (total - 1) as u64);
        // Recent window is contiguous and oldest-first.
        let ticks: Vec<u64> = h.recent().map(|s| s.counter("tick")).collect();
        let want: Vec<u64> = ((total - HISTORY_CAP)..total).map(|i| i as u64).collect();
        assert_eq!(ticks, want);
    }

    #[test]
    fn history_under_cap_retains_everything() {
        let mut h = SnapshotHistory::default();
        for i in 0..3u64 {
            h.push(snap_with(&[("tick", i)]));
        }
        assert_eq!(h.retained(), 3, "first is still inside the ring");
        assert_eq!(h.dropped(), 0);
        assert_eq!(h.first().expect("first").counter("tick"), 0);
    }

    #[test]
    fn collector_history_is_bounded_end_to_end() {
        let dir = std::env::temp_dir().join(format!("wire-hist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let sock = dir.join("stats.sock");
        let col = Collector::start(&sock, 1).expect("collector binds");
        let mut stream = UnixStream::connect(&sock).expect("connect");
        let frames = (HISTORY_CAP * 3) as u64;
        for i in 0..frames {
            let body = snap_with(&[("tick", i)]).to_bytes();
            let hdr = Header {
                kind: FrameKind::Stats,
                src: 0,
                tag: 0,
                xid: 0,
                len: body.len() as u64,
            };
            use std::io::Write;
            stream.write_all(&hdr.encode()).expect("header");
            stream.write_all(&body).expect("body");
        }
        drop(stream);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if col.peek().ranks[0].snapshots == frames {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "collector saw frames");
            std::thread::sleep(Duration::from_millis(5));
        }
        let state = col.finish().ranks;
        assert_eq!(state[0].snapshots, frames);
        assert!(state[0].history.retained() <= HISTORY_CAP + 1);
        assert_eq!(state[0].history.first().expect("first").counter("tick"), 0);
        assert_eq!(
            state[0].history.last().expect("last").counter("tick"),
            frames - 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scalar_metrics_include_histogram_percentiles() {
        let mut s = obs::Snapshot::default();
        s.histograms.insert(
            "lat".into(),
            obs::HistogramReading {
                count: 1,
                sum: 777,
                buckets: vec![(1023, 1)],
            },
        );
        let m = scalar_metrics(&s);
        assert_eq!(m.get("lat.count"), Some(&1));
        let p50 = *m.get("lat.p50").expect("p50 present");
        assert!((512..=1023).contains(&p50), "p50={p50}");
        assert!(m.contains_key("lat.p95") && m.contains_key("lat.p99"));
    }

    #[test]
    fn aggregate_is_min_median_max_over_ranks() {
        let stats = [
            stats_with(&[("wire.bytes_tx", 30)]),
            stats_with(&[("wire.bytes_tx", 10)]),
            stats_with(&[("wire.bytes_tx", 20)]),
        ];
        let agg = aggregate(&stats);
        let a = agg.get("wire.bytes_tx").expect("aggregated");
        assert_eq!((a.min, a.median, a.max), (10, 20, 30));
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let rows: Vec<RankRow> = (0..3)
            .map(|rank| RankRow {
                rank,
                outcome: "ok".into(),
                dead: false,
                stats: stats_with(&[("wire.rndv_handshake_async", 2 + rank as u64)]),
                blackbox: None,
            })
            .collect();
        let text = render_report(&rows);
        let n = validate_report(&text, 3, &["wire.rndv_handshake_async".into()], &[])
            .expect("report validates");
        assert_eq!(n, 3);
        // Wrong rank count and a zero metric both fail.
        assert!(validate_report(&text, 4, &[], &[]).is_err());
        assert!(validate_report(&text, 3, &["wire.peer_lost".into()], &[]).is_err());
        // --zero: a live metric fails, and so does an absent one — a
        // renamed counter must not pass as zero.
        assert!(validate_report(&text, 3, &[], &["wire.rndv_handshake_async".into()]).is_err());
        let absent = validate_report(&text, 3, &[], &["wire.peer_lost".into()]);
        assert!(
            absent.is_err_and(|e| e.contains("absent")),
            "absent metric passed --zero"
        );
    }

    #[test]
    fn dead_rank_is_exempt_from_positive_checks_but_counted() {
        let rows = vec![
            RankRow {
                rank: 0,
                outcome: "ok".into(),
                dead: false,
                stats: stats_with(&[("wire.frames_tx", 5), ("wire.peer_lost", 0)]),
                blackbox: None,
            },
            RankRow {
                rank: 1,
                outcome: "killed by signal 9".into(),
                dead: true,
                stats: RankStats {
                    snapshots: 1,
                    last: Some(snap_with(&[("wire.frames_tx", 0), ("wire.peer_lost", 7)])),
                    history: SnapshotHistory::default(),
                    stall: None,
                },
                blackbox: None,
            },
        ];
        let text = render_report(&rows);
        validate_report(&text, 2, &["wire.frames_tx".into()], &[]).expect("dead rank exempt");
        // The dead rank's nonzero wire.peer_lost is exempt from --zero;
        // the live rank's nonzero wire.frames_tx is not.
        validate_report(&text, 2, &[], &["wire.peer_lost".into()])
            .expect("dead rank exempt from zero checks too");
        assert!(validate_report(&text, 2, &[], &["wire.frames_tx".into()]).is_err());
        // The dead rank's row still carries its evidence.
        assert!(text.contains("\"dead\": true"));
        assert!(text.contains("killed by signal 9"));
    }

    #[test]
    fn stall_rows_render_evidence() {
        let rows = vec![RankRow {
            rank: 0,
            outcome: "ok".into(),
            dead: false,
            stats: RankStats {
                snapshots: 3,
                last: Some(snap_with(&[("wire.stalls", 1)])),
                history: SnapshotHistory::default(),
                stall: Some(StallInfo {
                    stalled_ms: 312,
                    pending_ops: 2,
                }),
            },
            blackbox: None,
        }];
        let text = render_report(&rows);
        assert!(text.contains("\"stalled_ms\": 312"));
        assert!(text.contains("\"pending_ops\": 2"));
        let table = cluster_table(&[rows[0].stats.clone()]);
        assert!(table.contains("STALLED 312ms"));
    }

    type SubtreeSpec<'a> = (u32, u32, u32, &'a [(&'a str, u64)]);

    fn relay_agg_with(subtrees: &[SubtreeSpec]) -> RelayAgg {
        let mut agg = RelayAgg::default();
        for (src, coverage, height, counters) in subtrees {
            agg.subtrees.insert(
                *src,
                RelaySubtree {
                    coverage: *coverage,
                    height: *height,
                    frames: 1,
                    last: Some(snap_with(counters)),
                },
            );
        }
        agg
    }

    #[test]
    fn relay_agg_folds_subtrees_by_merge() {
        let agg = relay_agg_with(&[
            (0, 5, 3, &[("wire.frames_tx", 10), ("obs.relay_merged", 4)]),
            (7, 3, 2, &[("wire.frames_tx", 6)]),
        ]);
        assert!(agg.active());
        assert_eq!(agg.coverage(), 8);
        assert_eq!(agg.depth(), 2, "max height 3 minus one");
        assert_eq!(agg.frames(), 2);
        let merged = agg.merged();
        assert_eq!(merged.counter("wire.frames_tx"), 16);
        assert_eq!(merged.counter("obs.relay_merged"), 4);
        assert!(!RelayAgg::default().active());
    }

    #[test]
    fn relay_report_section_and_depth_gate() {
        // A relay world: ranks never dialed the launcher directly, so
        // their rows carry no metrics — the relay merge vouches for them.
        let rows: Vec<RankRow> = (0..4)
            .map(|rank| RankRow {
                rank,
                outcome: "ok".into(),
                dead: false,
                stats: RankStats::default(),
                blackbox: None,
            })
            .collect();
        let agg = relay_agg_with(&[(0, 4, 3, &[("obs.relay_merged", 3)])]);
        let text = render_report_with(&rows, Some(&agg));
        assert!(text.contains("\"relay\": {\"coverage\": 4, \"depth\": 2"));
        let checks = ReportChecks {
            ranks: 4,
            positive: vec!["obs.relay_merged".into()],
            relay_depth_min: Some(2),
            ..ReportChecks::default()
        };
        validate_report_checks(&text, &checks).expect("relay fallback satisfies positives");
        // Depth demanded higher than realized fails.
        let deeper = ReportChecks {
            relay_depth_min: Some(3),
            ..checks.clone()
        };
        assert!(validate_report_checks(&text, &deeper).is_err());
        // Coverage short of the world size fails when nobody died.
        let short = relay_agg_with(&[(0, 3, 3, &[("obs.relay_merged", 3)])]);
        let text = render_report_with(&rows, Some(&short));
        assert!(validate_report_checks(&text, &checks).is_err());
        // No relay section at all fails the depth gate.
        let text = render_report(&rows);
        assert!(text.contains("\"relay\": null"));
        assert!(validate_report_checks(&text, &checks).is_err());
        // --zero reads the relay merge too: a zero counter passes there,
        // an absent one fails.
        let agg = relay_agg_with(&[(0, 4, 3, &[("wire.eager_alloc", 0)])]);
        let text = render_report_with(&rows, Some(&agg));
        let zero = |name: &str| ReportChecks {
            ranks: 4,
            zero: vec![name.into()],
            ..ReportChecks::default()
        };
        validate_report_checks(&text, &zero("wire.eager_alloc")).expect("zero in the merge");
        assert!(validate_report_checks(&text, &zero("wire.shm_fallback")).is_err());
    }

    fn bb_dump(n: u64) -> obs::BlackBoxDump {
        obs::BlackBoxDump {
            capacity: 64,
            recorded: n,
            events: (0..n)
                .map(|i| obs::BbEvent {
                    seq: i,
                    t_us: i * 10,
                    code: bbcode::TX_EAGER,
                    a: 1,
                    b: 2,
                    c: 3,
                    d: i,
                })
                .collect(),
        }
    }

    #[test]
    fn blackbox_timeline_gates_dead_ranks() {
        let rows = vec![
            RankRow {
                rank: 0,
                outcome: "ok".into(),
                dead: false,
                stats: stats_with(&[("wire.frames_tx", 5)]),
                blackbox: None,
            },
            RankRow {
                rank: 1,
                outcome: "killed by signal 9".into(),
                dead: true,
                stats: RankStats::default(),
                blackbox: Some(bb_dump(40)),
            },
        ];
        let text = render_report(&rows);
        assert!(text.contains("\"code\": \"tx_eager\""));
        let checks = ReportChecks {
            ranks: 2,
            blackbox_dead_min: Some(32),
            ..ReportChecks::default()
        };
        validate_report_checks(&text, &checks).expect("dead rank's timeline validates");
        // Too few events fails.
        let deeper = ReportChecks {
            blackbox_dead_min: Some(64),
            ..checks.clone()
        };
        assert!(validate_report_checks(&text, &deeper).is_err());
        // No dead rank at all fails the gate.
        let live_only = render_report(&rows[..1]);
        assert!(validate_report_checks(
            &live_only,
            &ReportChecks {
                ranks: 1,
                blackbox_dead_min: Some(1),
                ..ReportChecks::default()
            }
        )
        .is_err());
        // A scrambled sequence is rejected, not just under-counted.
        let mut bad = bb_dump(40);
        bad.events[5].seq = 3;
        let rows_bad = vec![
            rows[0].clone(),
            RankRow {
                blackbox: Some(bad),
                ..rows[1].clone()
            },
        ];
        assert!(validate_report_checks(&render_report(&rows_bad), &checks).is_err());
    }

    #[test]
    fn atomic_report_write_lands_complete() {
        let dir = std::env::temp_dir().join(format!("wire-atomic-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join("report.json");
        write_report_atomic(&path, "first\n").expect("first write");
        write_report_atomic(&path, "second\n").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second\n");
        // No temp siblings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collector_folds_frames_per_rank() {
        let dir = std::env::temp_dir().join(format!("wire-stats-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let sock = dir.join("stats.sock");
        let col = Collector::start(&sock, 2).expect("collector binds");
        // Rank 1 ships one Stats frame and one Stall frame by hand.
        let mut stream = UnixStream::connect(&sock).expect("connect");
        let body = snap_with(&[("wire.frames_rx", 7)]).to_bytes();
        for (kind, xid, tag) in [(FrameKind::Stats, 0, 0), (FrameKind::Stall, 450, 3)] {
            let hdr = Header {
                kind,
                src: 1,
                tag,
                xid,
                len: body.len() as u64,
            };
            use std::io::Write;
            stream.write_all(&hdr.encode()).expect("header");
            stream.write_all(&body).expect("body");
        }
        drop(stream);
        // Wait for the reader to fold both frames.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let state = col.peek().ranks;
            if state[1].snapshots == 1 && state[1].stall.is_some() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "collector saw frames");
            std::thread::sleep(Duration::from_millis(5));
        }
        let state = col.finish().ranks;
        assert_eq!(state[0].snapshots, 0, "rank 0 never reported");
        assert_eq!(state[1].snapshots, 1);
        assert_eq!(
            state[1].stall,
            Some(StallInfo {
                stalled_ms: 450,
                pending_ops: 3
            })
        );
        let last = state[1].last.as_ref().expect("snapshot retained");
        assert_eq!(last.counter("wire.frames_rx"), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
