//! Per-connection fault scripts and per-worker execution chaos.
//!
//! A [`FaultScript`] is the [`WireFault`] a [`crate::FaultPlan`] installs on
//! one connection's send path: it rolls the plan's dice on every outbound
//! frame and turns the winning fault class into wire operations. A
//! [`WorkerChaos`] carries the worker-level decisions that don't live on
//! the wire — crash-at-chunk-boundary and slow-loris pacing — which the
//! worker loop consults while executing a task.
//!
//! Both are deterministic: their behavior is a pure function of the plan's
//! seed, the connection/worker label, and the sequence of calls.

use crate::plan::{FaultKind, FaultProfile};
use crate::rng::ChaosRng;
use cwc_net::{is_handshake_tag, WireFault, WireOp, FRAME_HEADER_LEN};
use std::time::Duration;

/// The fault classes a wire script can express; crash and slow-loris are
/// worker-level and handled by [`WorkerChaos`] instead.
const WIRE_KINDS: [FaultKind; 7] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Corrupt,
    FaultKind::PartialWrite,
    FaultKind::Reset,
    FaultKind::Delay,
];

/// Deterministic send-path fault injector for one connection.
pub struct FaultScript {
    rng: ChaosRng,
    profile: FaultProfile,
    label: String,
    obs: Option<cwc_obs::Obs>,
    /// Frame held back by a pending reorder; written after the next send.
    held: Option<Vec<u8>>,
    injected: u64,
}

impl FaultScript {
    pub(crate) fn new(
        rng: ChaosRng,
        profile: FaultProfile,
        label: String,
        obs: Option<cwc_obs::Obs>,
    ) -> Self {
        FaultScript {
            rng,
            profile,
            label,
            obs,
            held: None,
            injected: 0,
        }
    }

    /// How many faults this script has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn note(&mut self, kind: FaultKind) {
        self.injected += 1;
        if let Some(obs) = &self.obs {
            obs.metrics.inc(kind.counter());
            obs.emit_with(|| {
                obs.wall_event("chaos", "inject")
                    .severity(cwc_obs::Severity::Info)
                    .field("kind", kind.name())
                    .field("conn", self.label.clone())
                    .field("msg", format!("{}: injected {}", self.label, kind.name()))
            });
        }
    }

    /// Picks the first wire fault whose rate fires. Rolls every class each
    /// time so the draw count (and thus the stream) does not depend on
    /// which class happens to win.
    fn roll(&mut self) -> Option<FaultKind> {
        let mut winner = None;
        for kind in WIRE_KINDS {
            let fired = self.rng.chance(self.profile.rate(kind));
            if fired && winner.is_none() {
                winner = Some(kind);
            }
        }
        winner
    }

    /// A short injected pause, at least 1 ms, at most `max_delay`.
    fn pause(&mut self) -> Duration {
        let cap = self.profile.max_delay.as_millis().max(1) as u64;
        Duration::from_millis(1 + self.rng.below(cap))
    }

    /// Appends the held (reordered) frame, completing the pairwise swap.
    fn flush_held_after(&mut self, mut ops: Vec<WireOp>) -> Vec<WireOp> {
        if let Some(prev) = self.held.take() {
            ops.push(WireOp::Write(prev));
        }
        ops
    }
}

impl std::fmt::Debug for FaultScript {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultScript")
            .field("label", &self.label)
            .field("injected", &self.injected)
            .field("holding", &self.held.is_some())
            .finish()
    }
}

impl WireFault for FaultScript {
    fn on_send(&mut self, encoded: &[u8]) -> Vec<WireOp> {
        let tag = encoded.get(FRAME_HEADER_LEN).copied();
        if tag.is_some_and(is_handshake_tag) {
            // Handshake frames pass untouched: chaos there only prevents a
            // run from starting, while chaos on the data phase is what
            // exercises recovery. Flush any held frame *first* so nothing
            // data-bearing trails an orderly shutdown.
            let mut ops = Vec::new();
            if let Some(prev) = self.held.take() {
                ops.push(WireOp::Write(prev));
            }
            ops.push(WireOp::Write(encoded.to_vec()));
            return ops;
        }

        let Some(kind) = self.roll() else {
            return self.flush_held_after(vec![WireOp::Write(encoded.to_vec())]);
        };
        self.note(kind);
        match kind {
            FaultKind::Drop => self.flush_held_after(vec![]),
            FaultKind::Duplicate => self.flush_held_after(vec![
                WireOp::Write(encoded.to_vec()),
                WireOp::Write(encoded.to_vec()),
            ]),
            FaultKind::Reorder => {
                if self.held.is_some() {
                    // Already holding one; deliver normally to complete it.
                    self.flush_held_after(vec![WireOp::Write(encoded.to_vec())])
                } else {
                    // Hold this frame; it goes out after the next one.
                    self.held = Some(encoded.to_vec());
                    vec![]
                }
            }
            FaultKind::Corrupt => {
                let mut bytes = encoded.to_vec();
                if bytes.len() > FRAME_HEADER_LEN {
                    let body_len = (bytes.len() - FRAME_HEADER_LEN) as u64;
                    let at = FRAME_HEADER_LEN + self.rng.below(body_len) as usize;
                    let bit = self.rng.below(8) as u8;
                    bytes[at] ^= 1 << bit;
                }
                self.flush_held_after(vec![WireOp::Write(bytes)])
            }
            FaultKind::PartialWrite => {
                let cut = 1 + self.rng.below(encoded.len().saturating_sub(1) as u64) as usize;
                let pause = self.pause();
                self.flush_held_after(vec![
                    WireOp::Write(encoded[..cut].to_vec()),
                    WireOp::Sleep(pause),
                    WireOp::Write(encoded[cut..].to_vec()),
                ])
            }
            FaultKind::Reset => {
                // A held frame dies with the connection — exactly what a
                // real reset does to queued bytes.
                self.held = None;
                let cut = self.rng.below(encoded.len() as u64 + 1) as usize;
                vec![WireOp::Write(encoded[..cut].to_vec()), WireOp::Reset]
            }
            FaultKind::Delay => {
                let pause = self.pause();
                self.flush_held_after(vec![WireOp::Sleep(pause), WireOp::Write(encoded.to_vec())])
            }
            FaultKind::Crash | FaultKind::SlowLoris => unreachable!("worker-level kinds"),
        }
    }
}

/// Worker-level chaos decisions for one worker's execution loop.
#[derive(Debug)]
pub struct WorkerChaos {
    rng: ChaosRng,
    profile: FaultProfile,
    label: String,
    obs: Option<cwc_obs::Obs>,
}

impl WorkerChaos {
    pub(crate) fn new(
        rng: ChaosRng,
        profile: FaultProfile,
        label: String,
        obs: Option<cwc_obs::Obs>,
    ) -> Self {
        WorkerChaos {
            rng,
            profile,
            label,
            obs,
        }
    }

    fn note(&self, kind: FaultKind, detail: String) {
        if let Some(obs) = &self.obs {
            obs.metrics.inc(kind.counter());
            obs.emit_with(|| {
                obs.wall_event("chaos", "inject")
                    .severity(cwc_obs::Severity::Info)
                    .field("kind", kind.name())
                    .field("worker", self.label.clone())
                    .field("msg", detail)
            });
        }
    }

    /// Decides, for a task of `total_chunks` 1 KB chunks, whether this
    /// worker crashes mid-task — and if so after how many whole chunks
    /// (always a chunk boundary, matching the executor's checkpoint
    /// granularity). `None` means the task runs to completion.
    pub fn crash_point(&mut self, total_chunks: u64) -> Option<u64> {
        if total_chunks == 0 || !self.rng.chance(self.profile.rate(FaultKind::Crash)) {
            return None;
        }
        let at = self.rng.below(total_chunks);
        self.note(
            FaultKind::Crash,
            format!("{}: crash after chunk {at}/{total_chunks}", self.label),
        );
        Some(at)
    }

    /// Decides whether this worker goes slow-loris for the coming task;
    /// returns the per-chunk stall to apply if so.
    pub fn slow_task(&mut self) -> Option<Duration> {
        if !self.rng.chance(self.profile.rate(FaultKind::SlowLoris)) {
            return None;
        }
        let cap = self.profile.max_delay.as_millis().max(1) as u64;
        let stall = Duration::from_millis(1 + self.rng.below(cap));
        self.note(
            FaultKind::SlowLoris,
            format!("{}: slow-loris, {stall:?} per chunk", self.label),
        );
        Some(stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use bytes::BytesMut;
    use cwc_net::Frame;

    fn encoded(frame: &Frame) -> Vec<u8> {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        buf.to_vec()
    }

    fn keepalive(seq: u64) -> Vec<u8> {
        encoded(&Frame::KeepAlive { seq })
    }

    #[test]
    fn no_rates_means_clean_delivery() {
        let plan = FaultPlan::new(1, FaultProfile::none());
        let mut script = plan.script("c");
        let raw = keepalive(1);
        assert_eq!(script.on_send(&raw), vec![WireOp::Write(raw.clone())]);
        assert_eq!(script.injected(), 0);
    }

    #[test]
    fn handshake_frames_are_spared() {
        let plan = FaultPlan::new(2, FaultProfile::all(1.0));
        let mut script = plan.script("c");
        let reg = encoded(&Frame::RegisterAck { server_time_us: 1 });
        for _ in 0..20 {
            assert_eq!(script.on_send(&reg), vec![WireOp::Write(reg.clone())]);
        }
        assert_eq!(script.injected(), 0);
    }

    #[test]
    fn drop_profile_always_drops_data_frames() {
        let plan = FaultPlan::new(3, FaultProfile::single(FaultKind::Drop, 1.0));
        let mut script = plan.script("c");
        assert_eq!(script.on_send(&keepalive(1)), vec![]);
        assert_eq!(script.injected(), 1);
    }

    #[test]
    fn duplicate_writes_the_frame_twice() {
        let plan = FaultPlan::new(4, FaultProfile::single(FaultKind::Duplicate, 1.0));
        let mut script = plan.script("c");
        let raw = keepalive(1);
        assert_eq!(
            script.on_send(&raw),
            vec![WireOp::Write(raw.clone()), WireOp::Write(raw.clone())]
        );
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        let plan = FaultPlan::new(5, FaultProfile::single(FaultKind::Reorder, 1.0));
        let mut script = plan.script("c");
        let a = keepalive(1);
        let b = keepalive(2);
        assert_eq!(script.on_send(&a), vec![]);
        // Second send: b goes out first, then the held a — a pairwise swap.
        assert_eq!(
            script.on_send(&b),
            vec![WireOp::Write(b.clone()), WireOp::Write(a.clone())]
        );
    }

    #[test]
    fn held_frame_flushes_before_handshake() {
        let profile = FaultProfile::single(FaultKind::Reorder, 1.0);
        let plan = FaultPlan::new(6, profile);
        let mut script = plan.script("c");
        let a = keepalive(1);
        let bye = encoded(&Frame::Shutdown);
        assert_eq!(script.on_send(&a), vec![]);
        assert_eq!(
            script.on_send(&bye),
            vec![WireOp::Write(a.clone()), WireOp::Write(bye.clone())]
        );
    }

    #[test]
    fn corrupted_frames_fail_crc() {
        let plan = FaultPlan::new(7, FaultProfile::single(FaultKind::Corrupt, 1.0));
        let mut script = plan.script("c");
        let raw = keepalive(42);
        let ops = script.on_send(&raw);
        assert!(!ops.contains(&WireOp::Reset));
        let WireOp::Write(mutated) = &ops[0] else {
            panic!("expected write");
        };
        assert_ne!(mutated, &raw, "one bit must differ");
        let mut codec = cwc_net::FrameCodec::new();
        codec.extend(mutated);
        assert_eq!(codec.next_frame().unwrap(), None);
        assert_eq!(codec.crc_rejections(), 1);
    }

    #[test]
    fn partial_write_still_reassembles() {
        let plan = FaultPlan::new(8, FaultProfile::single(FaultKind::PartialWrite, 1.0));
        let mut script = plan.script("c");
        let raw = keepalive(9);
        let ops = script.on_send(&raw);
        assert!(!ops.contains(&WireOp::Reset));
        let mut codec = cwc_net::FrameCodec::new();
        for op in &ops {
            if let WireOp::Write(bytes) = op {
                codec.extend(bytes);
            }
        }
        assert_eq!(
            codec.next_frame().unwrap(),
            Some(Frame::KeepAlive { seq: 9 })
        );
    }

    #[test]
    fn reset_truncates_and_tears_down() {
        let plan = FaultPlan::new(9, FaultProfile::single(FaultKind::Reset, 1.0));
        let mut script = plan.script("c");
        let raw = keepalive(1);
        match script.on_send(&raw).as_slice() {
            [WireOp::Write(prefix), WireOp::Reset] => assert!(prefix.len() <= raw.len()),
            other => panic!("expected reset, got {other:?}"),
        }
    }

    #[test]
    fn delay_sleeps_then_delivers_intact() {
        let plan = FaultPlan::new(10, FaultProfile::single(FaultKind::Delay, 1.0));
        let mut script = plan.script("c");
        let raw = keepalive(1);
        let ops = script.on_send(&raw);
        assert!(!ops.contains(&WireOp::Reset));
        assert!(matches!(ops[0], WireOp::Sleep(_)));
        assert_eq!(ops[1], WireOp::Write(raw.clone()));
    }

    #[test]
    fn crash_points_land_on_chunk_boundaries() {
        let plan = FaultPlan::new(11, FaultProfile::single(FaultKind::Crash, 1.0));
        let mut chaos = plan.worker_chaos("w");
        for _ in 0..50 {
            let at = chaos.crash_point(16).expect("rate 1.0 always crashes");
            assert!(at < 16);
        }
        assert_eq!(chaos.crash_point(0), None, "empty task cannot crash");
    }

    #[test]
    fn slow_loris_stalls_are_bounded() {
        let plan = FaultPlan::new(12, FaultProfile::single(FaultKind::SlowLoris, 1.0));
        let mut chaos = plan.worker_chaos("w");
        let stall = chaos.slow_task().expect("rate 1.0 always stalls");
        assert!(stall <= plan.profile().max_delay + Duration::from_millis(1));
    }

    #[test]
    fn worker_chaos_is_deterministic_per_label() {
        let plan = FaultPlan::new(13, FaultProfile::all(0.5));
        let mut a = plan.worker_chaos("w1");
        let mut b = plan.worker_chaos("w1");
        for _ in 0..20 {
            assert_eq!(a.crash_point(8), b.crash_point(8));
            assert_eq!(a.slow_task(), b.slow_task());
        }
    }
}
