//! Pieces shared by the live workloads: the approach switch, payload
//! hashing, failure accounting and the measurement schedule.

use std::time::{Duration, Instant};

use numeric::SplitMix64;
use offload::Completion;
use rtmpi::OpOutcome;

use crate::measure::{Calibrator, Samples};

/// Rank 0's progress strategy for one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// Rank 0 behind `offload::offload_rank`: the offload thread owns its
    /// transport and progresses it continuously.
    Offload,
    /// Rank 0's transport driven on the main thread (eager: the plain
    /// single-threaded loop; qcd: progress only inside the wait).
    Baseline,
}

pub const APPROACHES: [Approach; 2] = [Approach::Offload, Approach::Baseline];

impl Approach {
    pub fn index(self) -> usize {
        match self {
            Approach::Offload => 0,
            Approach::Baseline => 1,
        }
    }
}

/// Per-operation timeout handed to the wire engines; a stuck operation
/// completes as `TransportError::Timeout` and counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// The content hash every received payload is checked against: an
/// FNV-style multiply over 8-byte words. Each step is a bijection of the
/// running state, so any change confined to one word changes the hash.
pub fn hash64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(PRIME).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Seeded bytes.
pub fn seeded_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// Count one checked outcome.
    pub fn check(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.ok(),
            Err(e) => self.fail(e),
        }
    }
}

/// An offloaded point-to-point completion as a wire outcome.
pub fn completion_outcome(c: Completion) -> Result<OpOutcome, String> {
    match c {
        Completion::Sent => Ok(OpOutcome::Sent),
        Completion::Received(st, d) => Ok(OpOutcome::Received(st, d)),
        Completion::Failed(e) => Err(e.to_string()),
        Completion::Collective(_) => Err("point-to-point op completed as a collective".into()),
    }
}

/// Check a received payload's length and content hash.
pub fn verify_payload(data: &[u8], want_len: usize, want_hash: u64) -> Result<(), String> {
    if data.len() != want_len {
        return Err(format!("payload length {} != {want_len}", data.len()));
    }
    let got = hash64(data);
    if got != want_hash {
        return Err(format!("payload hash {got:#x} != {want_hash:#x}"));
    }
    Ok(())
}

/// What [`schedule`] measured besides the solves themselves.
pub struct Ran {
    /// Peak RSS in MB as of the end of the first round: set-up and one
    /// solve of each approach have run, while the benchmark's own sample
    /// buffers, which grow with run time, are still small.
    pub peak_rss_mb: f64,
    /// The calibration kernel's times, taken between rounds.
    pub cal_ns: Samples,
}

/// Calibration runs for at least 1/`CAL_SHARE` of the previous round's
/// time, so a long round gets a proportionally steadier speed estimate.
const CAL_SHARE: u32 = 32;

/// The measurement schedule: solves alternate approach every turn so
/// slow drift in the machine hits both alike; with `trace` every other
/// round is traced. Runs until `seconds` elapse and at least
/// `min_rounds` rounds are done. `weights` repeats an approach's solve
/// within a round (a cheap solve can be sampled more often).
///
/// Each round starts with calls of the calibration kernel (for at least
/// 1/`CAL_SHARE` of the previous round's time), made while only the main
/// thread runs. The host's speed drifts by tens of percent over seconds
/// to minutes; the round's solves get the `scale` those calls give
/// ([`Calibrator::scale`]), which puts the times they report at a fixed
/// reference speed ([`crate::measure::Gated`]).
pub fn schedule(
    seconds: u64,
    trace: bool,
    min_rounds: usize,
    weights: [usize; 2],
    mut solve: impl FnMut(Approach, bool, f64) -> Result<(), String>,
) -> Result<Ran, String> {
    let end = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0usize;
    let mut cal = Calibrator::new()?;
    let mut ran = Ran {
        peak_rss_mb: 0.0,
        cal_ns: Samples::default(),
    };
    let mut last_round = Duration::ZERO;
    while round < min_rounds || Instant::now() < end {
        let scale = cal.scale(last_round / CAL_SHARE, &mut ran.cal_ns)?;
        let t_round = Instant::now();
        let traced = trace && round % 2 == 1;
        for a in APPROACHES {
            for _ in 0..weights[a.index()] {
                solve(a, traced, scale)?;
            }
        }
        last_round = t_round.elapsed();
        if round == 0 {
            ran.peak_rss_mb = crate::measure::peak_rss_mb()?;
        }
        round += 1;
    }
    Ok(ran)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_payload_fails_the_check() {
        let mut rng = SplitMix64::new(7);
        let mut data = seeded_bytes(&mut rng, 100);
        let h = hash64(&data);
        assert!(verify_payload(&data, 100, h).is_ok());
        data[42] ^= 1;
        assert!(verify_payload(&data, 100, h).is_err());
        assert!(verify_payload(&data[..99], 100, h).is_err());
        let mut t = Tally::default();
        t.check(verify_payload(&data, 100, h));
        assert_eq!((t.attempted, t.failed), (1, 1));
    }
}
