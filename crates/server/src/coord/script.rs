//! Record/replay for kernel event streams.
//!
//! Because the kernel is sans-IO, a run is fully characterised by its
//! `(now, CoordEvent)` sequence. The live driver records each step
//! through the obs bus as a `coord.event` entry; this module encodes
//! those steps as plain text lines, harvests them back out of a captured
//! event dump, and replays them into a fresh kernel — turning any live
//! run (including chaos runs) into a deterministic offline test case.

use crate::coord::event::CoordEvent;
use crate::coord::kernel::{Kernel, KernelConfig};
use crate::coord::TimerKind;
use cwc_types::{
    CpuSpec, CwcError, CwcResult, JobId, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech,
};

/// Obs event name under which kernel steps are recorded.
pub const SCRIPT_EVENT: &str = "coord.event";

/// Obs field key holding one encoded script line.
pub const SCRIPT_FIELD: &str = "script";

/// Encodes one kernel step as a single text line.
///
/// Floats are encoded via their IEEE bit pattern and checkpoints as hex,
/// so `decode(encode(x)) == x` exactly; free-form `why` strings ride as
/// the (possibly space-containing) tail of the line.
pub fn encode(now: Micros, ev: &CoordEvent) -> String {
    match ev {
        CoordEvent::Probe { slot, info } => format!(
            "{} probe {slot} {} {} {} {} {:016x} {}",
            now.0,
            info.id.0,
            info.cpu.clock_mhz,
            info.cpu.cores,
            radio_index(info.radio),
            info.bandwidth.0.to_bits(),
            info.ram_kb
        ),
        CoordEvent::Start => format!("{} start", now.0),
        CoordEvent::ReportOk {
            slot,
            seq,
            job,
            exec_ms,
        } => format!(
            "{} ok {slot} {seq} {} {:016x}",
            now.0,
            job.0,
            exec_ms.to_bits()
        ),
        CoordEvent::ReportFailed {
            slot,
            seq,
            job,
            processed_kb,
            checkpoint,
        } => format!(
            "{} failed {slot} {seq} {} {processed_kb} {}",
            now.0,
            job.0,
            checkpoint.as_deref().map_or_else(|| "-".to_string(), hex)
        ),
        CoordEvent::KeepAliveSeen { slot } => format!("{} ka {slot}", now.0),
        CoordEvent::WentDark { slot } => format!("{} dark {slot}", now.0),
        CoordEvent::ConnectionLost { slot, why } => format!("{} lost {slot} {why}", now.0),
        CoordEvent::Misbehaved { slot, why } => format!("{} misbehaved {slot} {why}", now.0),
        CoordEvent::Replugged { slot } => format!("{} replug {slot}", now.0),
        CoordEvent::TimerFired { kind, slot, token } => {
            format!("{} timer {} {slot} {token}", now.0, timer_index(*kind))
        }
    }
}

/// Inverse of [`encode`].
pub fn decode(line: &str) -> CwcResult<(Micros, CoordEvent)> {
    let bad = || CwcError::Config(format!("unparseable script line {line:?}"));
    let mut parts = line.split(' ');
    let now = Micros(take_u64(&mut parts).ok_or_else(bad)?);
    let kind = parts.next().ok_or_else(bad)?;
    let ev = match kind {
        "probe" => {
            let slot = take_slot(&mut parts).ok_or_else(bad)?;
            let id = PhoneId(take_u64(&mut parts).ok_or_else(bad)? as u32);
            let clock = take_u64(&mut parts).ok_or_else(bad)? as u32;
            let cores = take_u64(&mut parts).ok_or_else(bad)? as u32;
            let radio = RadioTech::ALL
                .get(take_u64(&mut parts).ok_or_else(bad)? as usize)
                .copied()
                .ok_or_else(bad)?;
            let bw = f64::from_bits(take_hex(&mut parts).ok_or_else(bad)?);
            let ram_kb = take_u64(&mut parts).ok_or_else(bad)?;
            CoordEvent::Probe {
                slot,
                info: PhoneInfo {
                    id,
                    cpu: CpuSpec::new(clock, cores),
                    radio,
                    bandwidth: MsPerKb(bw),
                    ram_kb,
                },
            }
        }
        "start" => CoordEvent::Start,
        "ok" => CoordEvent::ReportOk {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
            seq: take_u64(&mut parts).ok_or_else(bad)?,
            job: JobId(take_u64(&mut parts).ok_or_else(bad)? as u32),
            exec_ms: f64::from_bits(take_hex(&mut parts).ok_or_else(bad)?),
        },
        "failed" => CoordEvent::ReportFailed {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
            seq: take_u64(&mut parts).ok_or_else(bad)?,
            job: JobId(take_u64(&mut parts).ok_or_else(bad)? as u32),
            processed_kb: take_u64(&mut parts).ok_or_else(bad)?,
            checkpoint: match parts.next().ok_or_else(bad)? {
                "-" => None,
                h => Some(unhex(h).ok_or_else(bad)?),
            },
        },
        "ka" => CoordEvent::KeepAliveSeen {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
        },
        "dark" => CoordEvent::WentDark {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
        },
        "lost" => CoordEvent::ConnectionLost {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
            why: rest(parts),
        },
        "misbehaved" => CoordEvent::Misbehaved {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
            why: rest(parts),
        },
        "replug" => CoordEvent::Replugged {
            slot: take_slot(&mut parts).ok_or_else(bad)?,
        },
        "timer" => CoordEvent::TimerFired {
            kind: TIMERS
                .get(take_u64(&mut parts).ok_or_else(bad)? as usize)
                .copied()
                .ok_or_else(bad)?,
            slot: take_slot(&mut parts).ok_or_else(bad)?,
            token: take_u64(&mut parts).ok_or_else(bad)?,
        },
        _ => return Err(bad()),
    };
    Ok((now, ev))
}

/// Records one kernel step on the obs bus (the live driver calls this
/// before each [`Kernel::step_into`]).
pub fn record(obs: &cwc_obs::Obs, now: Micros, ev: &CoordEvent) {
    obs.emit_with(|| {
        cwc_obs::Event::wall(now.0, "coord", SCRIPT_EVENT)
            .severity(cwc_obs::Severity::Debug)
            .field(SCRIPT_FIELD, encode(now, ev))
    });
}

/// Extracts and decodes the recorded kernel steps from a captured event
/// dump (e.g. a `MemorySink` snapshot), in emission order.
pub fn harvest(events: &[cwc_obs::Event]) -> CwcResult<Vec<(Micros, CoordEvent)>> {
    events
        .iter()
        .filter(|e| e.name == SCRIPT_EVENT)
        .map(|e| {
            let line = e
                .get(SCRIPT_FIELD)
                .and_then(|v| v.as_str())
                .ok_or_else(|| {
                    CwcError::Config("coord.event entry without a script field".into())
                })?;
            decode(line)
        })
        .collect()
}

/// Replays a recorded step sequence into a fresh kernel and returns the
/// command stream, one `Debug`-formatted line per command.
pub fn replay(steps: &[(Micros, CoordEvent)], cfg: KernelConfig) -> CwcResult<Vec<String>> {
    let mut kernel = Kernel::new(cfg)?;
    let mut lines = Vec::new();
    let mut cmds = Vec::new();
    for (now, ev) in steps {
        kernel.step_into(*now, ev.clone(), &mut cmds);
        lines.extend(cmds.drain(..).map(|cmd| format!("{cmd:?}")));
    }
    Ok(lines)
}

const TIMERS: [TimerKind; 5] = [
    TimerKind::KeepAlive,
    TimerKind::Stall,
    TimerKind::OfflineDetect,
    TimerKind::Reschedule,
    TimerKind::Speculate,
];

fn timer_index(kind: TimerKind) -> usize {
    TIMERS
        .iter()
        .position(|&k| k == kind)
        .expect("every TimerKind is in TIMERS")
}

fn radio_index(radio: RadioTech) -> usize {
    RadioTech::ALL
        .iter()
        .position(|&r| r == radio)
        .expect("every RadioTech is in ALL")
}

fn take_u64<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Option<u64> {
    parts.next()?.parse().ok()
}

/// Slots a script may name: one kernel's fleet stays far below this,
/// and the kernel's slot table is dense, so a decoded index is bounded
/// before it can size that table.
const MAX_SLOTS: u64 = 1 << 20;

fn take_slot<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Option<usize> {
    let slot = take_u64(parts).filter(|&slot| slot < MAX_SLOTS)?;
    usize::try_from(slot).ok()
}

fn take_hex<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Option<u64> {
    u64::from_str_radix(parts.next()?, 16).ok()
}

fn rest<'a>(parts: impl Iterator<Item = &'a str>) -> String {
    parts.collect::<Vec<_>>().join(" ")
}

fn hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "0x".to_string();
    }
    let mut out = String::with_capacity(2 + bytes.len() * 2);
    out.push_str("0x");
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    let body = s.strip_prefix("0x")?;
    if body.len() % 2 != 0 {
        return None;
    }
    (0..body.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(body.get(i..i + 2)?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> PhoneInfo {
        PhoneInfo::new(
            PhoneId(3),
            CpuSpec::new(1_200, 2),
            RadioTech::ThreeG,
            MsPerKb(12.5),
        )
        .with_ram_kb(65_536)
    }

    #[test]
    fn every_event_round_trips() {
        let cases = vec![
            CoordEvent::Probe {
                slot: 2,
                info: info(),
            },
            CoordEvent::Start,
            CoordEvent::ReportOk {
                slot: 1,
                seq: 9,
                job: JobId(4),
                exec_ms: 1234.5678,
            },
            CoordEvent::ReportFailed {
                slot: 0,
                seq: 3,
                job: JobId(1),
                processed_kb: 77,
                checkpoint: Some(vec![0xde, 0xad, 0x00]),
            },
            CoordEvent::ReportFailed {
                slot: 0,
                seq: 4,
                job: JobId(1),
                processed_kb: 0,
                checkpoint: None,
            },
            CoordEvent::KeepAliveSeen { slot: 5 },
            CoordEvent::WentDark { slot: 6 },
            CoordEvent::ConnectionLost {
                slot: 7,
                why: "phone-7 lost (connection reset by peer)".into(),
            },
            CoordEvent::Misbehaved {
                slot: 8,
                why: "phone-8: unexpected frame Shutdown".into(),
            },
            CoordEvent::Replugged { slot: 9 },
            CoordEvent::TimerFired {
                kind: TimerKind::OfflineDetect,
                slot: 2,
                token: 11,
            },
            CoordEvent::TimerFired {
                kind: TimerKind::Speculate,
                slot: 4,
                token: 17,
            },
        ];
        for ev in cases {
            let line = encode(Micros(42), &ev);
            let (now, back) = decode(&line).expect("round trip");
            assert_eq!(now, Micros(42));
            assert_eq!(back, ev, "line was {line:?}");
        }
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ev = CoordEvent::ReportFailed {
            slot: 0,
            seq: 1,
            job: JobId(0),
            processed_kb: 0,
            checkpoint: Some(Vec::new()),
        };
        let (_, back) = decode(&encode(Micros(0), &ev)).expect("round trip");
        assert_eq!(back, ev);
    }

    #[test]
    fn garbage_is_rejected() {
        for line in [
            "",
            "12",
            "x start",
            "5 probe 1",
            "5 warp 1",
            "5 timer 9 0 0",
            "5 replug 1048576",
        ] {
            assert!(decode(line).is_err(), "{line:?} should not parse");
        }
    }
}
