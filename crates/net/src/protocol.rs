//! The CWC wire protocol.
//!
//! Binary, length-prefixed frames over a persistent per-phone connection.
//! The vocabulary mirrors the paper's prototype message flow (§6):
//! registration with CPU specs, bandwidth probes, per-partition executable
//! and input shipping, completion reports carrying the measured local
//! execution time (which feeds the scheduler's prediction update), online
//! failure reports carrying migration state, and application-layer
//! keep-alives for offline-failure detection.
//!
//! ## Framing
//!
//! ```text
//! +----------------+---------------+-----------+------------------+
//! | u32 BE length  | u32 BE CRC32  | u8 tag    | payload ...      |
//! +----------------+---------------+-----------+------------------+
//! ```
//!
//! `length` counts tag + payload; the CRC32 (IEEE) covers the same bytes.
//! A frame whose CRC does not match is *rejected* — skipped whole, counted
//! on [`FrameCodec::crc_rejections`] — instead of being decoded into
//! garbage; a corrupt frame thus degrades into a lost frame, which the
//! server's stall watchdog and requeue machinery already recover from.
//! Strings are `u16 BE length + UTF-8`; byte blobs are `u32 BE length +
//! bytes`; `f64` travels as IEEE-754 bits.

use bytes::{BufMut, Bytes, BytesMut};
use cwc_types::{CwcError, CwcResult, JobId, PhoneId, RadioTech};

/// Application-layer keep-alive period (30 s in the prototype).
pub const KEEPALIVE_PERIOD: cwc_types::Micros = cwc_types::Micros(30_000_000);

/// Number of unanswered keep-alives tolerated before a phone is marked as
/// an offline failure (3 in the prototype).
pub const KEEPALIVE_TOLERATED_MISSES: u32 = 3;

/// Maximum accepted frame body (tag + payload) — guards the decoder against
/// a corrupt or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes of framing before the body: u32 length + u32 CRC32.
pub const FRAME_HEADER_LEN: usize = 8;

/// The CRC32 generator polynomial (IEEE 802.3), bit-reflected, without its
/// x^32 term. Every table and folding constant below is derived from it.
const CRC_POLY: u32 = 0xEDB8_8320;

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`.
///
/// Guards every frame body against in-flight corruption; a single flipped
/// bit anywhere in tag or payload is always detected. Two routines compute
/// the same function, chosen by what the CPU can do and never by a setting:
/// on x86-64 with `pclmulqdq` + `sse4.1`, inputs of 128 bytes and more are
/// folded 64 bytes per step by carry-less multiplication (the `clmul`
/// module) — about 0.05 ms per megabyte; everywhere else (the paper's
/// workers are ARM phones), for shorter inputs and for the sub-16-byte
/// tail, slicing-by-8: eight input bytes per step through eight const-built
/// 256-entry tables — about 0.8 ms per megabyte.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Continues a CRC32: `crc` is the checksum of the bytes so far (0 for
/// none); returns the checksum of those bytes followed by `bytes`.
fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN {
        let (blocks, tail) = bytes.as_chunks::<16>();
        if let Some(state) = clmul::fold(!crc, blocks) {
            return !crc32_table(state, tail);
        }
    }
    !crc32_table(!crc, bytes)
}

/// Slicing-by-8 over the raw (un-inverted) CRC register: `state` in, the
/// register after `bytes` out.
fn crc32_table(state: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut c = state;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        c = crc_lut(7, lo as u8)
            ^ crc_lut(6, (lo >> 8) as u8)
            ^ crc_lut(5, (lo >> 16) as u8)
            ^ crc_lut(4, (lo >> 24) as u8)
            ^ crc_lut(3, b4)
            ^ crc_lut(2, b5)
            ^ crc_lut(1, b6)
            ^ crc_lut(0, b7);
    }
    for &b in tail {
        c = crc_lut(0, b ^ (c as u8)) ^ (c >> 8);
    }
    c
}

/// `CRC_TABLES[k][byte]`: the CRC of `byte` followed by `k` zero bytes.
// Infallible: every caller passes a literal k < 8, and a u8 indexes a
// 256-entry table.
#[allow(clippy::indexing_slicing)]
#[inline(always)]
fn crc_lut(k: usize, byte: u8) -> u32 {
    CRC_TABLES[k][usize::from(byte)]
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

// Infallible: const-evaluated with k < 8, i < 256 and a masked index.
#[allow(clippy::indexing_slicing)]
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The carry-less-multiply CRC32 kernel (Intel, "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ"; the shape zlib uses). One of the
/// crate's two audited `unsafe` regions, with `reactor::sys`: what is unsafe
/// here is calling code compiled for CPU features the build does not assume,
/// and the unaligned 16-byte loads. Lengths are slice types throughout.
///
/// The message is a polynomial over GF(2), first byte highest. Because
/// `x^n mod P` can be precomputed, a 128-bit slice of it that sits `n` bits
/// above the part still to come can be replaced by two 64×33-bit products
/// that sit on top of that part instead (a *fold*): the value changes, its
/// remainder mod P does not. Four independent 128-bit lanes each fold over
/// the 64 bytes the others cover, so the multiplier's latency overlaps;
/// then the lanes fold into one, that one folds over the remaining 16-byte
/// blocks, and a Barrett reduction takes the last 128 bits to the 32-bit
/// remainder.
///
/// Everything is bit-reflected, as this CRC is: bit 0 of a register is its
/// highest power of x. A reflected carry-less product comes out one bit
/// low, i.e. already multiplied by x, and the constants are kept one bit
/// left (33 bits in a 64-bit lane, i.e. times x^31), so multiplying a lane
/// by `k(n)` multiplies it by `x^(n+32) mod P`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use super::{crc32_table, CRC_POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// Shortest input handed to the kernel: two rounds of the four lanes.
    /// Below it the table routine is as fast and has no set-up.
    pub(super) const MIN_LEN: usize = 128;

    /// `x^n mod P`, reflected, one bit left: the multiplier form above.
    /// Shift-and-reduce from `x^0`, which reflected is the top bit.
    pub(super) const fn k(n: u32) -> i64 {
        let mut r = 1u32 << 31;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 {
                CRC_POLY ^ (r >> 1)
            } else {
                r >> 1
            };
            i += 1;
        }
        (r as i64) << 1
    }

    /// P itself with its x^32 term, reflected: 33 bits.
    pub(super) const P: i64 = (CRC_POLY as i64) << 1 | 1;

    /// Barrett's μ = ⌊x^64 / P⌋, reflected: 33 bits. Long division of x^64
    /// by P in the natural bit order, then the 33-bit quotient reversed.
    pub(super) const MU: i64 = {
        let p = (CRC_POLY.reverse_bits() as u128) | 1 << 32;
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        let mut bit = 33;
        while bit > 0 {
            bit -= 1;
            if rem >> (bit + 32) & 1 != 0 {
                rem ^= p << bit;
                quotient |= 1 << bit;
            }
        }
        (quotient.reverse_bits() >> 31) as i64
    };

    /// Each lane folds over the three others: 4 × 128 bits ahead.
    const FOLD_4: (i64, i64) = (k(4 * 128 + 32), k(4 * 128 - 32));
    /// A lane folds onto the next 16 bytes: 128 bits ahead.
    const FOLD_1: (i64, i64) = (k(128 + 32), k(128 - 32));
    /// The top 32 bits of a 96-bit value fold onto its low 64.
    const FOLD_96: i64 = k(64);

    /// The CRC register after `blocks`, given the register before them —
    /// or `None` where the CPU lacks the instructions, and the caller's
    /// table routine is the only one there is.
    pub(super) fn fold(state: u32, blocks: &[[u8; 16]]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `fold_lanes` is compiled for exactly `pclmulqdq` and
        // `sse4.1`, and both were just detected on the CPU running this.
        // It has no length precondition: any number of blocks is handled.
        Some(unsafe { fold_lanes(state, blocks) })
    }

    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_lanes(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some(([a, b, c, d], quads)) = quads.split_first() else {
            // Fewer than four blocks: nothing for the lanes to fold over.
            return crc32_table(state, blocks.as_flattened());
        };
        // The register enters as it does in the table routine: xored into
        // the first four message bytes.
        let mut lanes = [
            _mm_xor_si128(load(a), _mm_cvtsi32_si128(state as i32)),
            load(b),
            load(c),
            load(d),
        ];
        let by_4 = _mm_set_epi64x(FOLD_4.1, FOLD_4.0);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_onto(*lane, load(block), by_4);
            }
        }
        // Four lanes into one, then over the blocks short of a quad. Zero
        // folds onto the first lane as that lane unchanged.
        let by_1 = _mm_set_epi64x(FOLD_1.1, FOLD_1.0);
        let mut x = _mm_setzero_si128();
        for next in lanes.into_iter().chain(singles.iter().map(load)) {
            x = fold_onto(x, next, by_1);
        }

        // 128 → 96 bits: the high-power half folds onto the low-power half
        // and 32 zero bits — the "message times x^32" every CRC ends with.
        let low_32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, by_1),
            _mm_srli_si128::<8>(x),
        );
        // 96 → 64 bits.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low_32), _mm_set_epi64x(0, FOLD_96)),
            _mm_srli_si128::<4>(x),
        );
        // 64 → 32 bits, Barrett: with R the 64-bit value, T1 = ⌊R / x^32⌋·μ,
        // T2 = ⌊T1 / x^32⌋·P, and R xor T2 has nothing left above x^31.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low_32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low_32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }

    /// `lane` moved onto `next`: its high- and low-power halves times the
    /// two constants of `keys`, summed with what was there.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_onto(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let high = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let low = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(_mm_xor_si128(next, high), low)
    }

    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a reference to exactly 16 readable bytes, which
        // is what the load reads, and `loadu` assumes no alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// Whether `tag` (the first body byte of an encoded frame) belongs to the
/// connection-setup/teardown vocabulary. Fault-injection harnesses use this
/// to spare the handshake: chaos on the data phase exercises recovery, chaos
/// on registration only prevents the run from starting.
pub fn is_handshake_tag(t: u8) -> bool {
    matches!(
        t,
        tag::REGISTER | tag::REGISTER_ACK | tag::BW_PROBE | tag::BW_REPORT | tag::SHUTDOWN
    )
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Phone → server: join the fleet, reporting hardware capabilities.
    Register {
        /// Phone identity (assigned out of band, e.g. enrollment).
        phone: PhoneId,
        /// CPU clock in MHz.
        clock_mhz: u32,
        /// CPU core count.
        cores: u32,
        /// Radio technology in use.
        radio: RadioTech,
        /// Usable RAM in KB.
        ram_kb: u64,
    },
    /// Server → phone: registration accepted.
    RegisterAck {
        /// Server wall-clock at acceptance (µs) — lets phones stamp reports.
        server_time_us: u64,
    },
    /// Server → phone: bandwidth probe payload (iperf-style).
    BandwidthProbe {
        /// Correlates probe and report.
        probe_id: u32,
        /// Probe payload size in KB.
        payload_kb: u32,
    },
    /// Phone → server: measured downlink throughput for a probe.
    BandwidthReport {
        /// Correlates probe and report.
        probe_id: u32,
        /// Measured throughput in KB/s.
        kb_per_sec: f64,
    },
    /// Server → phone: ship a task executable (the `.jar` analogue).
    ShipExecutable {
        /// Job whose program this is.
        job: JobId,
        /// Program name for the device-side registry (reflection analogue).
        program: String,
        /// Executable size in KB (`E_j`).
        exe_kb: u64,
    },
    /// Server → phone: ship an input partition and start execution.
    ShipInput {
        /// Job being executed.
        job: JobId,
        /// Server-assigned task sequence number; the phone echoes it in the
        /// matching [`Frame::TaskComplete`]/[`Frame::TaskFailed`] so the
        /// server can discard duplicated or stale reports (idempotency
        /// under frame duplication and retries).
        seq: u64,
        /// Offset of this partition within the job input, in KB.
        offset_kb: u64,
        /// Partition length in KB (`l_ij`).
        len_kb: u64,
        /// Migration state to resume from, if this partition continues a
        /// previously failed execution.
        resume_from: Option<Bytes>,
        /// Trace id of the chunk's span tree (the originating job).
        trace_id: u64,
        /// Span id minted by the coordinator for this placement.
        span_id: u64,
        /// Parent span id, or 0 for a root placement (initial schedule).
        parent_span: u64,
        /// Whether this partition is a redundant copy (risk-driven replica
        /// or speculative re-execution) of work in flight elsewhere. Purely
        /// informational to the worker — execution is identical — but it
        /// lets device-side accounting distinguish primary from backup
        /// work.
        replica: bool,
        /// The partition payload. Empty in simulated deployments (where
        /// only sizes matter); carries the real input bytes in live mode.
        data: Bytes,
    },
    /// Phone → server: a partition finished.
    TaskComplete {
        /// Job that finished.
        job: JobId,
        /// Echo of the [`Frame::ShipInput`] sequence number this report
        /// answers; reports that do not match the in-flight sequence are
        /// duplicates and are dropped by the server.
        seq: u64,
        /// Locally measured execution time in ms (feeds prediction update).
        exec_ms: u64,
        /// Serialized partial result for server-side aggregation.
        result: Bytes,
    },
    /// Phone → server: an *online failure* — the phone was unplugged but
    /// still has connectivity, so it reports how far it got plus the
    /// JavaGO-style continuation state.
    TaskFailed {
        /// Job that was interrupted.
        job: JobId,
        /// Echo of the [`Frame::ShipInput`] sequence number (see
        /// [`Frame::TaskComplete::seq`]).
        seq: u64,
        /// Input KB already processed before the failure instant.
        processed_kb: u64,
        /// Serialized continuation (checkpoint) for migration.
        checkpoint: Bytes,
    },
    /// Server → phone: liveness probe.
    KeepAlive {
        /// Monotonic sequence number.
        seq: u64,
    },
    /// Phone → server: liveness answer.
    KeepAliveAck {
        /// Echoed sequence number.
        seq: u64,
    },
    /// Phone → server: plugged into a charger (eligible for work).
    Plugged,
    /// Phone → server: unplugged (will stop computing; tasks migrate).
    Unplugged,
    /// Server → phone: abandon an in-flight (or still-buffered) partition —
    /// its first-result-wins twin already completed elsewhere. Workers
    /// that predate this frame skip-and-warn it; their late report is
    /// absorbed by the server's stale-sequence dedup.
    CancelTask {
        /// Job whose partition is withdrawn.
        job: JobId,
        /// Ship sequence number of the withdrawn partition.
        seq: u64,
    },
    /// Either direction: orderly connection shutdown.
    Shutdown,
}

mod tag {
    pub const REGISTER: u8 = 1;
    pub const REGISTER_ACK: u8 = 2;
    pub const BW_PROBE: u8 = 3;
    pub const BW_REPORT: u8 = 4;
    pub const SHIP_EXE: u8 = 5;
    pub const SHIP_INPUT: u8 = 6;
    pub const TASK_COMPLETE: u8 = 7;
    pub const TASK_FAILED: u8 = 8;
    pub const KEEPALIVE: u8 = 9;
    pub const KEEPALIVE_ACK: u8 = 10;
    pub const PLUGGED: u8 = 11;
    pub const UNPLUGGED: u8 = 12;
    pub const SHUTDOWN: u8 = 13;
    pub const CANCEL_TASK: u8 = 14;
}

fn radio_to_u8(r: RadioTech) -> u8 {
    match r {
        RadioTech::Wifi80211a => 0,
        RadioTech::Wifi80211g => 1,
        RadioTech::Edge => 2,
        RadioTech::ThreeG => 3,
        RadioTech::FourG => 4,
    }
}

fn radio_from_u8(v: u8) -> CwcResult<RadioTech> {
    Ok(match v {
        0 => RadioTech::Wifi80211a,
        1 => RadioTech::Wifi80211g,
        2 => RadioTech::Edge,
        3 => RadioTech::ThreeG,
        4 => RadioTech::FourG,
        other => return Err(CwcError::Protocol(format!("bad radio tag {other}"))),
    })
}

fn put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string too long for wire");
    buf.put_u16(bytes.len() as u16);
    buf.put_slice(bytes);
}

fn put_blob(buf: &mut BytesMut, b: &[u8]) {
    assert!(b.len() <= u32::MAX as usize);
    buf.reserve(4 + b.len()); // one allocation, not a doubling ladder
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

/// Bounds-checked primitive readers over the body buffer.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The one primitive every reader goes through: consume exactly `n`
    /// bytes or fail. Built on `slice::get`, so a truncated or hostile
    /// frame yields a protocol error, never a panic.
    fn take(&mut self, n: usize) -> CwcResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CwcError::Protocol(format!("length overflow at offset {}", self.pos)))?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(CwcError::Protocol(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Fixed-size read. `copy_from_slice` is infallible here: `take`
    /// returned exactly `N` bytes.
    fn array<const N: usize>(&mut self) -> CwcResult<[u8; N]> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    fn u8(&mut self) -> CwcResult<u8> {
        self.array::<1>().map(|[b]| b)
    }

    fn u16(&mut self) -> CwcResult<u16> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> CwcResult<u32> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> CwcResult<u64> {
        self.array().map(u64::from_be_bytes)
    }

    fn f64(&mut self) -> CwcResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> CwcResult<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|e| CwcError::Protocol(format!("invalid UTF-8 in frame: {e}")))?
            .to_owned())
    }

    fn blob(&mut self) -> CwcResult<Bytes> {
        let len = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    fn finish(self) -> CwcResult<()> {
        if self.pos != self.buf.len() {
            Err(CwcError::Protocol(format!(
                "{} trailing bytes after frame payload",
                self.buf.len() - self.pos
            )))
        } else {
            Ok(())
        }
    }
}

impl Frame {
    /// Appends the encoded frame to `out`: the body is written once,
    /// straight into `out` behind a reserved header that is patched with
    /// length and CRC afterwards — no staging buffer, one CRC pass.
    pub fn encode(&self, out: &mut BytesMut) {
        let start = out.len();
        out.put_slice(&[0u8; FRAME_HEADER_LEN]);
        match self {
            Frame::Register {
                phone,
                clock_mhz,
                cores,
                radio,
                ram_kb,
            } => {
                out.put_u8(tag::REGISTER);
                out.put_u32(phone.0);
                out.put_u32(*clock_mhz);
                out.put_u32(*cores);
                out.put_u8(radio_to_u8(*radio));
                out.put_u64(*ram_kb);
            }
            Frame::RegisterAck { server_time_us } => {
                out.put_u8(tag::REGISTER_ACK);
                out.put_u64(*server_time_us);
            }
            Frame::BandwidthProbe {
                probe_id,
                payload_kb,
            } => {
                out.put_u8(tag::BW_PROBE);
                out.put_u32(*probe_id);
                out.put_u32(*payload_kb);
            }
            Frame::BandwidthReport {
                probe_id,
                kb_per_sec,
            } => {
                out.put_u8(tag::BW_REPORT);
                out.put_u32(*probe_id);
                out.put_u64(kb_per_sec.to_bits());
            }
            Frame::ShipExecutable {
                job,
                program,
                exe_kb,
            } => {
                out.put_u8(tag::SHIP_EXE);
                out.put_u32(job.0);
                put_string(out, program);
                out.put_u64(*exe_kb);
            }
            Frame::ShipInput {
                job,
                seq,
                offset_kb,
                len_kb,
                resume_from,
                trace_id,
                span_id,
                parent_span,
                replica,
                data,
            } => {
                out.put_u8(tag::SHIP_INPUT);
                out.put_u32(job.0);
                out.put_u64(*seq);
                out.put_u64(*offset_kb);
                out.put_u64(*len_kb);
                match resume_from {
                    Some(state) => {
                        out.put_u8(1);
                        put_blob(out, state);
                    }
                    None => out.put_u8(0),
                }
                out.put_u64(*trace_id);
                out.put_u64(*span_id);
                out.put_u64(*parent_span);
                out.put_u8(u8::from(*replica));
                put_blob(out, data);
            }
            Frame::TaskComplete {
                job,
                seq,
                exec_ms,
                result,
            } => {
                out.put_u8(tag::TASK_COMPLETE);
                out.put_u32(job.0);
                out.put_u64(*seq);
                out.put_u64(*exec_ms);
                put_blob(out, result);
            }
            Frame::TaskFailed {
                job,
                seq,
                processed_kb,
                checkpoint,
            } => {
                out.put_u8(tag::TASK_FAILED);
                out.put_u32(job.0);
                out.put_u64(*seq);
                out.put_u64(*processed_kb);
                put_blob(out, checkpoint);
            }
            Frame::KeepAlive { seq } => {
                out.put_u8(tag::KEEPALIVE);
                out.put_u64(*seq);
            }
            Frame::KeepAliveAck { seq } => {
                out.put_u8(tag::KEEPALIVE_ACK);
                out.put_u64(*seq);
            }
            Frame::Plugged => out.put_u8(tag::PLUGGED),
            Frame::Unplugged => out.put_u8(tag::UNPLUGGED),
            Frame::CancelTask { job, seq } => {
                out.put_u8(tag::CANCEL_TASK);
                out.put_u32(job.0);
                out.put_u64(*seq);
            }
            Frame::Shutdown => out.put_u8(tag::SHUTDOWN),
        }
        let body = out.get(start + FRAME_HEADER_LEN..).unwrap_or(&[]);
        // u32 BE length then u32 BE CRC is one u64 BE.
        let header = (u64::from(body.len() as u32) << 32 | u64::from(crc32(body))).to_be_bytes();
        if let Some(slot) = out.get_mut(start..start + FRAME_HEADER_LEN) {
            slot.copy_from_slice(&header);
        }
    }

    /// Decodes one frame body (without the length prefix).
    fn decode_body(body: &[u8]) -> CwcResult<Frame> {
        let mut r = Reader::new(body);
        let t = r.u8()?;
        let frame = match t {
            tag::REGISTER => Frame::Register {
                phone: PhoneId(r.u32()?),
                clock_mhz: r.u32()?,
                cores: r.u32()?,
                radio: radio_from_u8(r.u8()?)?,
                ram_kb: r.u64()?,
            },
            tag::REGISTER_ACK => Frame::RegisterAck {
                server_time_us: r.u64()?,
            },
            tag::BW_PROBE => Frame::BandwidthProbe {
                probe_id: r.u32()?,
                payload_kb: r.u32()?,
            },
            tag::BW_REPORT => Frame::BandwidthReport {
                probe_id: r.u32()?,
                kb_per_sec: r.f64()?,
            },
            tag::SHIP_EXE => Frame::ShipExecutable {
                job: JobId(r.u32()?),
                program: r.string()?,
                exe_kb: r.u64()?,
            },
            tag::SHIP_INPUT => {
                let job = JobId(r.u32()?);
                let seq = r.u64()?;
                let offset_kb = r.u64()?;
                let len_kb = r.u64()?;
                let resume_from = match r.u8()? {
                    0 => None,
                    1 => Some(r.blob()?),
                    other => {
                        return Err(CwcError::Protocol(format!(
                            "bad option discriminant {other}"
                        )))
                    }
                };
                let trace_id = r.u64()?;
                let span_id = r.u64()?;
                let parent_span = r.u64()?;
                let replica = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(CwcError::Protocol(format!(
                            "bad replica discriminant {other}"
                        )))
                    }
                };
                let data = r.blob()?;
                Frame::ShipInput {
                    job,
                    seq,
                    offset_kb,
                    len_kb,
                    resume_from,
                    trace_id,
                    span_id,
                    parent_span,
                    replica,
                    data,
                }
            }
            tag::TASK_COMPLETE => Frame::TaskComplete {
                job: JobId(r.u32()?),
                seq: r.u64()?,
                exec_ms: r.u64()?,
                result: r.blob()?,
            },
            tag::TASK_FAILED => Frame::TaskFailed {
                job: JobId(r.u32()?),
                seq: r.u64()?,
                processed_kb: r.u64()?,
                checkpoint: r.blob()?,
            },
            tag::KEEPALIVE => Frame::KeepAlive { seq: r.u64()? },
            tag::KEEPALIVE_ACK => Frame::KeepAliveAck { seq: r.u64()? },
            tag::PLUGGED => Frame::Plugged,
            tag::UNPLUGGED => Frame::Unplugged,
            tag::CANCEL_TASK => Frame::CancelTask {
                job: JobId(r.u32()?),
                seq: r.u64()?,
            },
            tag::SHUTDOWN => Frame::Shutdown,
            other => return Err(CwcError::Protocol(format!("unknown frame tag {other}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Incremental decoder over a growing byte buffer.
///
/// Bytes arrive either straight off a socket ([`FrameCodec::read_from`], no
/// intermediate scratch) or from memory ([`FrameCodec::extend`]); pull
/// complete frames with [`FrameCodec::next_frame`] until it returns
/// `Ok(None)` (incomplete tail remains buffered). Frames are CRC-checked
/// and decoded in place, so a blob is copied exactly once, into its
/// [`Bytes`].
///
/// Frames whose CRC32 does not match their body are *skipped whole* rather
/// than surfaced as errors: the length prefix keeps the stream framed, the
/// rejection lands on [`FrameCodec::crc_rejections`], and the sender's
/// message simply never arrives — the same failure mode as a dropped
/// frame, which the coordination layer above already recovers from. Only
/// structural damage (a corrupt length prefix, a post-CRC malformed body)
/// is an error, because framing itself is then lost.
#[derive(Debug, Default)]
pub struct FrameCodec {
    /// Initialised storage; the undecoded bytes are `buf[head..tail]`.
    /// Keeping the spare tail initialised lets reads land in it directly
    /// without re-zeroing per read.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// CRC32 of the first `summed` body bytes of the frame at the head:
    /// each `next_frame` call checksums what arrived since the last one.
    crc: u32,
    summed: usize,
    crc_rejected: u64,
}

/// Most bytes one [`FrameCodec::read_from`] call asks a socket for, and the
/// reactor's per-connection, per-tick bound on bytes read (and checksummed):
/// a 1 MB partition crosses in a tick, and a fast sender costs the tick one
/// megabyte's `read` and checksum — about 0.2 ms where the CRC folds, about
/// a millisecond where it goes by table.
pub const MAX_READ: usize = 1024 * 1024;

/// Smallest read [`FrameCodec::read_from`] issues, however little the head
/// frame lacks, so a burst of small frames costs one syscall.
const READ_FLOOR: usize = 8 * 1024;

impl FrameCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        self.spare(data.len()).copy_from_slice(data);
        self.tail += data.len();
    }

    /// One `read` from `src` straight into the codec's own buffer, sized to
    /// what the frame at the head still lacks (at least `READ_FLOOR`, at
    /// most `limit`). Returns the byte count; `Ok(0)` is end of stream (or
    /// `limit == 0`). The single read routine under both the blocking
    /// [`crate::tcp::FramedTcp`] and the reactor's [`crate::reactor::Conn`].
    pub fn read_from(
        &mut self,
        src: &mut impl std::io::Read,
        limit: usize,
    ) -> std::io::Result<usize> {
        let want = self.lacking().max(READ_FLOOR).min(limit);
        // `.min(want)` keeps a misbehaving `Read` impl from corrupting the
        // cursor; a well-behaved one never reports more than it was given.
        let n = src.read(self.spare(want))?.min(want);
        self.tail += n;
        Ok(n)
    }

    /// Bytes the frame at the head of the buffer still needs before it can
    /// be decoded; 0 when that is unknown (no header yet) or the header is
    /// one [`FrameCodec::next_frame`] will refuse.
    fn lacking(&self) -> usize {
        let live = self.buf.get(self.head..self.tail).unwrap_or(&[]);
        match be_u32_at(live, 0) {
            Some(len) if len as usize <= MAX_FRAME_LEN => {
                (FRAME_HEADER_LEN + len as usize).saturating_sub(live.len())
            }
            _ => 0,
        }
    }

    /// `n` writable bytes directly after the buffered ones, sliding the
    /// buffered bytes to the front or growing the storage as needed. Reads
    /// sized by [`FrameCodec::lacking`] end on frame boundaries, so what
    /// slides is at most a sub-[`READ_FLOOR`] fragment of the next frame.
    fn spare(&mut self, n: usize) -> &mut [u8] {
        if self.buf.len() - self.tail < n && self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.tail < n {
            self.buf.resize(self.tail + n, 0);
        }
        self.buf
            .get_mut(self.tail..self.tail + n)
            .unwrap_or_default()
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// How many complete frames were rejected (and skipped) because their
    /// CRC32 did not match the received body.
    pub fn crc_rejections(&self) -> u64 {
        self.crc_rejected
    }

    /// Attempts to decode the next complete, integrity-checked frame.
    pub fn next_frame(&mut self) -> CwcResult<Option<Frame>> {
        loop {
            let live = self.buf.get(self.head..self.tail).unwrap_or(&[]);
            let (Some(len), Some(want_crc)) = (be_u32_at(live, 0), be_u32_at(live, 4)) else {
                return Ok(None);
            };
            let len = len as usize;
            if len == 0 || len > MAX_FRAME_LEN {
                return Err(CwcError::Protocol(format!("bad frame length {len}")));
            }
            let body = live.get(FRAME_HEADER_LEN..).unwrap_or(&[]);
            let body = body.get(..len).unwrap_or(body);
            self.crc = crc32_extend(self.crc, body.get(self.summed..).unwrap_or(&[]));
            self.summed = body.len();
            if body.len() < len {
                return Ok(None);
            }
            let decoded = (self.crc == want_crc).then(|| Frame::decode_body(body));
            (self.crc, self.summed) = (0, 0);
            self.head += FRAME_HEADER_LEN + len;
            if self.head == self.tail {
                (self.head, self.tail) = (0, 0);
            }
            match decoded {
                Some(frame) => return frame.map(Some),
                None => self.crc_rejected += 1, // reject the corrupt frame; framing survives
            }
        }
    }
}

/// Big-endian u32 at byte offset `at`, or `None` past the end.
/// `copy_from_slice` is infallible here: `get` returned exactly 4 bytes.
fn be_u32_at(buf: &[u8], at: usize) -> Option<u32> {
    let slice = buf.get(at..at.checked_add(4)?)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(slice);
    Some(u32::from_be_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_types::{JobId, PhoneId, RadioTech};

    /// Wraps a hand-built body in correct framing (length + CRC), so tests
    /// can target *decode* failures rather than tripping the CRC gate.
    fn raw_frame(body: &[u8]) -> Vec<u8> {
        let mut raw = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
        raw.extend_from_slice(&(body.len() as u32).to_be_bytes());
        raw.extend_from_slice(&crc32(body).to_be_bytes());
        raw.extend_from_slice(body);
        raw
    }

    fn round_trip(f: &Frame) -> Frame {
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        let mut codec = FrameCodec::new();
        codec.extend(&buf);
        let out = codec.next_frame().expect("decode ok").expect("complete");
        assert_eq!(codec.buffered(), 0, "no leftovers");
        out
    }

    #[test]
    fn round_trips_all_variants() {
        let frames = vec![
            Frame::Register {
                phone: PhoneId(3),
                clock_mhz: 1200,
                cores: 2,
                radio: RadioTech::ThreeG,
                ram_kb: 1_048_576,
            },
            Frame::RegisterAck { server_time_us: 42 },
            Frame::BandwidthProbe {
                probe_id: 7,
                payload_kb: 256,
            },
            Frame::BandwidthReport {
                probe_id: 7,
                kb_per_sec: 812.75,
            },
            Frame::ShipExecutable {
                job: JobId(9),
                program: "wordcount".into(),
                exe_kb: 30,
            },
            Frame::ShipInput {
                job: JobId(9),
                seq: 11,
                offset_kb: 100,
                len_kb: 500,
                resume_from: None,
                trace_id: 9,
                span_id: 4,
                parent_span: 0,
                replica: false,
                data: Bytes::new(),
            },
            Frame::ShipInput {
                job: JobId(9),
                seq: 12,
                offset_kb: 0,
                len_kb: 250,
                resume_from: Some(Bytes::from_static(b"state")),
                trace_id: 9,
                span_id: 7,
                parent_span: 4,
                replica: true,
                data: Bytes::from_static(b"payload bytes"),
            },
            Frame::TaskComplete {
                job: JobId(9),
                seq: 11,
                exec_ms: 1234,
                result: Bytes::from_static(b"42"),
            },
            Frame::TaskFailed {
                job: JobId(9),
                seq: 12,
                processed_kb: 77,
                checkpoint: Bytes::from_static(b"ckpt"),
            },
            Frame::KeepAlive { seq: 1 },
            Frame::KeepAliveAck { seq: 1 },
            Frame::Plugged,
            Frame::Unplugged,
            Frame::CancelTask {
                job: JobId(9),
                seq: 12,
            },
            Frame::Shutdown,
        ];
        for f in &frames {
            assert_eq!(&round_trip(f), f);
        }
    }

    #[test]
    fn streaming_decode_across_fragment_boundaries() {
        let mut wire = BytesMut::new();
        let a = Frame::KeepAlive { seq: 5 };
        let b = Frame::TaskComplete {
            job: JobId(1),
            seq: 3,
            exec_ms: 10,
            result: Bytes::from_static(b"abcdef"),
        };
        a.encode(&mut wire);
        b.encode(&mut wire);

        // Feed a byte at a time; frames must pop exactly when complete.
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for byte in wire.iter() {
            codec.extend(std::slice::from_ref(byte));
            while let Some(f) = codec.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, vec![a, b]);
    }

    #[test]
    fn two_frames_in_one_read() {
        let mut wire = BytesMut::new();
        Frame::Plugged.encode(&mut wire);
        Frame::Unplugged.encode(&mut wire);
        let mut codec = FrameCodec::new();
        codec.extend(&wire);
        assert_eq!(codec.next_frame().unwrap(), Some(Frame::Plugged));
        assert_eq!(codec.next_frame().unwrap(), Some(Frame::Unplugged));
        assert_eq!(codec.next_frame().unwrap(), None);
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&[200]));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_zero_and_huge_lengths() {
        let mut codec = FrameCodec::new();
        codec.extend(&[0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(codec.next_frame().is_err());

        let mut codec = FrameCodec::new();
        codec.extend(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_trailing_garbage_inside_frame() {
        // A KeepAlive body with an extra junk byte, reframed with a correct
        // CRC so the failure is the decoder's, not the integrity gate's.
        let mut wire = BytesMut::new();
        Frame::KeepAlive { seq: 1 }.encode(&mut wire);
        let mut body = wire[FRAME_HEADER_LEN..].to_vec();
        body.push(0xAB);
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&body));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_truncated_string() {
        // ShipExecutable with a string length pointing past the body.
        let mut body = BytesMut::new();
        body.put_u8(5); // SHIP_EXE
        body.put_u32(1);
        body.put_u16(100); // claims 100 bytes
        body.put_slice(b"abc"); // provides 3
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&body));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_bad_radio_and_bad_option() {
        let mut body = BytesMut::new();
        body.put_u8(1); // REGISTER
        body.put_u32(0);
        body.put_u32(1000);
        body.put_u32(2);
        body.put_u8(99); // bad radio
        body.put_u64(0);
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&body));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn corrupt_frame_is_skipped_and_framing_survives() {
        // Three frames; flip one payload bit in the middle one. The codec
        // must reject exactly that frame and still decode its neighbors.
        let mut wire = BytesMut::new();
        Frame::KeepAlive { seq: 1 }.encode(&mut wire);
        let corrupt_at = wire.len() + FRAME_HEADER_LEN + 2; // inside frame 2's body
        Frame::KeepAlive { seq: 2 }.encode(&mut wire);
        Frame::KeepAlive { seq: 3 }.encode(&mut wire);
        let mut raw = wire.to_vec();
        raw[corrupt_at] ^= 0x10;

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        assert_eq!(
            codec.next_frame().unwrap(),
            Some(Frame::KeepAlive { seq: 1 })
        );
        // The corrupt frame 2 is skipped transparently; frame 3 comes next.
        assert_eq!(
            codec.next_frame().unwrap(),
            Some(Frame::KeepAlive { seq: 3 })
        );
        assert_eq!(codec.next_frame().unwrap(), None);
        assert_eq!(codec.crc_rejections(), 1);
    }

    #[test]
    fn crc_catches_single_bit_flips_anywhere_in_body() {
        let mut wire = BytesMut::new();
        Frame::TaskComplete {
            job: JobId(4),
            seq: 9,
            exec_ms: 123,
            // Over a kilobyte, so every flip is checked by the folding
            // kernel where there is one, not by the short-input table path.
            result: Bytes::from((0..1_100u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>()),
        }
        .encode(&mut wire);
        let clean = wire.to_vec();
        for byte in FRAME_HEADER_LEN..clean.len() {
            for bit in 0..8 {
                let mut raw = clean.clone();
                raw[byte] ^= 1 << bit;
                let mut codec = FrameCodec::new();
                codec.extend(&raw);
                assert_eq!(
                    codec.next_frame().unwrap(),
                    None,
                    "flip at byte {byte} bit {bit} must be rejected"
                );
                assert_eq!(codec.crc_rejections(), 1);
            }
        }
    }

    /// The byte-at-a-time CRC32 the faster routines replaced — kept as the
    /// oracle. Returns the *running* state so prefixes share one pass.
    fn crc32_bytewise_step(state: u32, b: u8) -> u32 {
        let mut c = (state ^ u32::from(b)) & 0xFF;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c ^ (state >> 8)
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| crc32_bytewise_step(c, b))
    }

    /// [`crc32`] by the table routine alone, whatever the CPU: the oracle
    /// the folding kernel is tested against. Not a second checksum — same
    /// function, same value.
    fn crc32_portable(bytes: &[u8]) -> u32 {
        !crc32_table(!0, bytes)
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_portable(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        // `clmul` derives each constant from the polynomial; these are the
        // values Intel's paper (and zlib) print for it, and the x^64 / P
        // quotient worked a second way: μ·P must be x^64 plus a remainder
        // of degree < 32.
        assert_eq!(clmul::k(4 * 128 + 32), 0x1_5444_2bd4);
        assert_eq!(clmul::k(4 * 128 - 32), 0x1_c6e4_1596);
        assert_eq!(clmul::k(128 + 32), 0x1_7519_97d0);
        assert_eq!(clmul::k(128 - 32), 0x0_ccaa_009e);
        assert_eq!(clmul::k(64), 0x1_63cd_6124);
        assert_eq!(clmul::P, 0x1_db71_0641);
        assert_eq!(clmul::MU, 0x1_f701_1641);
        let natural = |reflected: i64| (reflected as u64).reverse_bits() >> 31;
        let (p, mu) = (natural(clmul::P), natural(clmul::MU));
        let product = (0..33)
            .filter(|bit| mu >> bit & 1 != 0)
            .fold(0u128, |acc, bit| acc ^ u128::from(p) << bit);
        assert_eq!(product >> 32, 1 << 32, "μ·P = x^64 + (degree < 32)");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_kernel_continues_any_register_over_any_block_count() {
        // `crc32_extend` only ever hands it eight blocks or more and the
        // register of a fresh or running CRC; the kernel itself is total,
        // including under four blocks where there is nothing to fold.
        let buf = noise(16 * 12);
        let (blocks, _) = buf.as_chunks::<16>();
        for n in 0..=blocks.len() {
            for state in [!0, 0, 1, 0xDEAD_BEEF] {
                let want = crc32_table(state, &buf[..16 * n]);
                if let Some(got) = clmul::fold(state, &blocks[..n]) {
                    assert_eq!(got, want, "{n} blocks from {state:#x}");
                }
            }
        }
    }

    /// xorshift bytes: no period a 64-byte fold could line up with.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_oracles_on_a_megabyte() {
        let buf = noise((1 << 20) + 5);
        for window in [&buf[..], &buf[3..]] {
            let want = crc32_bytewise(window);
            assert_eq!(crc32(window), want);
            assert_eq!(crc32_portable(window), want);
        }
    }

    /// Every length 0..=4096 at every start offset 0..64, the dispatched
    /// routine and the table routine each against the bytewise oracle: the
    /// 128-byte threshold, the 64-byte lane round, the 16-byte fold, the
    /// 8-byte table step and the byte tail, at every alignment of each.
    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_length_and_offset() {
        let buf = noise(4096 + 64);
        for offset in 0..64 {
            let window = &buf[offset..offset + 4096];
            let mut running = !0u32;
            for len in 0..=window.len() {
                let head = &window[..len];
                assert_eq!(crc32(head), !running, "offset {offset} len {len}");
                assert_eq!(crc32_portable(head), !running, "offset {offset} len {len}");
                if let Some(&b) = window.get(len) {
                    running = crc32_bytewise_step(running, b);
                }
            }
        }
    }

    /// One value of every [`Frame`] variant with the exact bytes the
    /// pre-rewrite encoder (staging buffer + bytewise CRC) put on the wire
    /// for it, captured from that commit: "byte-identical wire format" as
    /// a test. Workers in the field speak these bytes.
    fn golden() -> Vec<(Frame, &'static str)> {
        vec![
            (
                Frame::Register {
                    phone: PhoneId(3),
                    clock_mhz: 1200,
                    cores: 2,
                    radio: RadioTech::ThreeG,
                    ram_kb: 1_048_576,
                },
                "00000016d60089ff0100000003000004b000000002030000000000100000",
            ),
            (
                Frame::RegisterAck { server_time_us: 42 },
                "000000091344f5fe02000000000000002a",
            ),
            (
                Frame::BandwidthProbe {
                    probe_id: 7,
                    payload_kb: 256,
                },
                "0000000974bfc53a030000000700000100",
            ),
            (
                Frame::BandwidthReport {
                    probe_id: 7,
                    kb_per_sec: 812.75,
                },
                "0000000d4112c05604000000074089660000000000",
            ),
            (
                Frame::ShipExecutable {
                    job: JobId(9),
                    program: "wordcount".into(),
                    exe_kb: 30,
                },
                "000000187d9fd7ea05000000090009776f7264636f756e74000000000000001e",
            ),
            (
                Frame::ShipInput {
                    job: JobId(9),
                    seq: 12,
                    offset_kb: 100,
                    len_kb: 250,
                    resume_from: Some(Bytes::from_static(b"state")),
                    trace_id: 9,
                    span_id: 7,
                    parent_span: 4,
                    replica: true,
                    data: Bytes::from_static(b"payload bytes"),
                },
                "00000051b95fdb1b0600000009000000000000000c00000000000000640000000000\
                 0000fa01000000057374617465000000000000000900000000000000070000000000\
                 000004010000000d7061796c6f6164206279746573",
            ),
            (
                Frame::ShipInput {
                    job: JobId(9),
                    seq: 11,
                    offset_kb: 0,
                    len_kb: 1,
                    resume_from: None,
                    trace_id: 9,
                    span_id: 4,
                    parent_span: 0,
                    replica: false,
                    data: Bytes::new(),
                },
                "0000003b7cf235190600000009000000000000000b00000000000000000000000000\
                 000001000000000000000009000000000000000400000000000000000000000000",
            ),
            (
                Frame::TaskComplete {
                    job: JobId(9),
                    seq: 11,
                    exec_ms: 1234,
                    result: Bytes::from_static(b"42"),
                },
                "0000001b45fe71b60700000009000000000000000b00000000000004d2000000023432",
            ),
            (
                Frame::TaskFailed {
                    job: JobId(9),
                    seq: 12,
                    processed_kb: 77,
                    checkpoint: Bytes::from_static(b"ckpt"),
                },
                "0000001d760b99030800000009000000000000000c000000000000004d00000004636b7074",
            ),
            (
                Frame::KeepAlive { seq: 1 },
                "000000093dad9263090000000000000001",
            ),
            (
                Frame::KeepAliveAck { seq: 1 },
                "000000090420aea60a0000000000000001",
            ),
            (Frame::Plugged, "0000000145d036050b"),
            (Frame::Unplugged, "00000001dbb4a3a60c"),
            (
                Frame::CancelTask {
                    job: JobId(9),
                    seq: 12,
                },
                "0000000d5087b0420e00000009000000000000000c",
            ),
            (Frame::Shutdown, "00000001acb393300d"),
        ]
    }

    fn unhex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s
            .chars()
            .filter_map(|c| c.to_digit(16))
            .map(|d| d as u8)
            .collect();
        digits.chunks(2).map(|p| p[0] << 4 | p[1]).collect()
    }

    #[test]
    fn wire_bytes_match_the_golden_capture_for_every_variant() {
        let mut variants = std::collections::BTreeSet::new();
        for (frame, hex) in golden() {
            let want = unhex(hex);
            let mut wire = BytesMut::new();
            frame.encode(&mut wire);
            assert_eq!(&wire[..], &want[..], "encode drifted for {frame:?}");
            // ...and the golden bytes still decode to the same value.
            let mut codec = FrameCodec::new();
            codec.extend(&want);
            assert_eq!(codec.next_frame().unwrap(), Some(frame));
            variants.insert(want[FRAME_HEADER_LEN]);
        }
        // Every tag the protocol defines appears above.
        assert_eq!(variants.len(), 14);
        assert_eq!(variants.last(), Some(&tag::CANCEL_TASK));
    }

    /// `frame`'s wire tag, by a match with no wildcard arm: a new variant
    /// does not compile until it is named here.
    fn tag_of(frame: &Frame) -> u8 {
        match frame {
            Frame::Register { .. } => tag::REGISTER,
            Frame::RegisterAck { .. } => tag::REGISTER_ACK,
            Frame::BandwidthProbe { .. } => tag::BW_PROBE,
            Frame::BandwidthReport { .. } => tag::BW_REPORT,
            Frame::ShipExecutable { .. } => tag::SHIP_EXE,
            Frame::ShipInput { .. } => tag::SHIP_INPUT,
            Frame::TaskComplete { .. } => tag::TASK_COMPLETE,
            Frame::TaskFailed { .. } => tag::TASK_FAILED,
            Frame::KeepAlive { .. } => tag::KEEPALIVE,
            Frame::KeepAliveAck { .. } => tag::KEEPALIVE_ACK,
            Frame::Plugged => tag::PLUGGED,
            Frame::Unplugged => tag::UNPLUGGED,
            Frame::CancelTask { .. } => tag::CANCEL_TASK,
            Frame::Shutdown => tag::SHUTDOWN,
        }
    }

    #[test]
    fn every_variant_has_a_sample_that_round_trips() {
        // Each sample encodes under its variant's tag and decodes back to
        // itself, and every tag the decoder accepts has a sample.
        let mut sampled = std::collections::BTreeSet::new();
        for (frame, _) in golden() {
            let mut wire = BytesMut::new();
            frame.encode(&mut wire);
            assert_eq!(wire[FRAME_HEADER_LEN], tag_of(&frame), "{frame:?}");
            assert_eq!(round_trip(&frame), frame);
            sampled.insert(tag_of(&frame));
        }
        let decoded: std::collections::BTreeSet<u8> = (0..=u8::MAX)
            .filter(|t| {
                !matches!(Frame::decode_body(&[*t]),
                    Err(CwcError::Protocol(msg)) if msg.starts_with("unknown frame tag"))
            })
            .collect();
        assert_eq!(sampled, decoded);
    }

    #[test]
    fn encode_appended_to_a_non_empty_buffer_patches_its_own_header() {
        let first = Frame::KeepAlive { seq: 7 };
        let second = Frame::TaskComplete {
            job: JobId(2),
            seq: 8,
            exec_ms: 3,
            result: Bytes::from_static(b"abc"),
        };
        let mut alone = BytesMut::new();
        second.encode(&mut alone);

        let mut wire = BytesMut::new();
        wire.put_slice(b"junk-before"); // bytes that are not a frame at all
        let prefix = wire.len();
        first.encode(&mut wire);
        let first_end = wire.len();
        second.encode(&mut wire);
        assert_eq!(
            &wire[..prefix],
            b"junk-before",
            "encode touched earlier bytes"
        );
        assert_eq!(
            &wire[first_end..],
            &alone[..],
            "header patched at the wrong offset"
        );

        let mut codec = FrameCodec::new();
        codec.extend(&wire[prefix..]);
        assert_eq!(codec.next_frame().unwrap(), Some(first));
        assert_eq!(codec.next_frame().unwrap(), Some(second));
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn corrupt_blob_frame_then_good_frame_in_one_buffer() {
        // The in-place reject path: the corrupt frame's body is never
        // copied out, the cursor steps over it, and the neighbour behind it
        // in the same buffer decodes intact.
        let big = Frame::ShipInput {
            job: JobId(1),
            seq: 1,
            offset_kb: 0,
            len_kb: 64,
            resume_from: None,
            trace_id: 1,
            span_id: 1,
            parent_span: 0,
            replica: false,
            data: Bytes::from(vec![0x5Au8; 64 * 1024]),
        };
        let good = Frame::TaskComplete {
            job: JobId(1),
            seq: 1,
            exec_ms: 9,
            result: Bytes::from_static(b"ok"),
        };
        let mut wire = BytesMut::new();
        big.encode(&mut wire);
        let mid = wire.len() / 2;
        good.encode(&mut wire);
        let mut raw = wire.to_vec();
        raw[mid] ^= 0x01;

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        assert_eq!(codec.next_frame().unwrap(), Some(good));
        assert_eq!(codec.crc_rejections(), 1);
        assert_eq!(codec.next_frame().unwrap(), None);
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn large_frames_round_trip_at_every_buffer_misalignment() {
        // The CI `asan-smoke` job runs this crate's unit tests under
        // AddressSanitizer; this is the one that puts 4 KB+ bodies at every
        // offset mod 16 in both the encoder's and the decoder's buffer, so
        // the folding kernel's unaligned 16-byte loads run where a read past
        // either end of the body would be caught. `Plugged` is 9 wire bytes
        // and 9 is coprime to 16.
        for lead in 0..16usize {
            let frame = Frame::ShipInput {
                job: JobId(1),
                seq: lead as u64,
                offset_kb: 0,
                len_kb: 5,
                resume_from: None,
                trace_id: 1,
                span_id: 1,
                parent_span: 0,
                replica: false,
                data: Bytes::from(noise(4_096 + 67 * lead)),
            };
            let mut wire = BytesMut::new();
            for _ in 0..lead {
                Frame::Plugged.encode(&mut wire);
            }
            assert_eq!(wire.len(), 9 * lead);
            frame.encode(&mut wire);

            let mut codec = FrameCodec::new();
            codec.extend(&wire);
            for _ in 0..lead {
                assert_eq!(codec.next_frame().unwrap(), Some(Frame::Plugged));
            }
            assert_eq!(codec.next_frame().unwrap(), Some(frame));
            assert_eq!(codec.buffered(), 0);
        }
    }

    #[test]
    fn frames_arriving_in_pieces_are_checksummed_as_they_arrive() {
        // `next_frame` after every piece: the running CRC must cover each
        // body byte exactly once whatever the piece boundaries (mid-header,
        // odd sizes, a piece spanning two frames), start afresh after a
        // rejected frame, and survive the buffer sliding under it. Pieces
        // under 128 bytes continue the state by table, longer ones by the
        // folding kernel, and a mixed run hands one state between the two.
        let data: Vec<u8> = (0..40_000u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let big = |seq| Frame::ShipInput {
            job: JobId(1),
            seq,
            offset_kb: 0,
            len_kb: 40,
            resume_from: None,
            trace_id: 1,
            span_id: 1,
            parent_span: 0,
            replica: false,
            data: Bytes::from(data.clone()),
        };
        let mut wire = BytesMut::new();
        big(1).encode(&mut wire);
        let corrupt_at = wire.len() + 20_000;
        big(2).encode(&mut wire);
        big(3).encode(&mut wire);
        let mut raw = wire.to_vec();
        raw[corrupt_at] ^= 0x80;
        let want = vec![big(1), big(3)];

        let mixed = vec![3, 4, 1, 7, 8, 9, 4_096, 30_000, 50_001, 13, 127, 128, 129];
        let constant = (1..=300).chain([4_096, 30_000, 50_001, raw.len()]);
        for pieces in std::iter::once(mixed).chain(constant.map(|n| vec![n])) {
            let mut codec = FrameCodec::new();
            let mut got = Vec::new();
            let mut rest = raw.as_slice();
            for piece in pieces.iter().cycle() {
                let (now, later) = rest.split_at((*piece).min(rest.len()));
                codec.extend(now);
                while let Some(frame) = codec.next_frame().unwrap() {
                    got.push(frame);
                }
                rest = later;
                if rest.is_empty() {
                    break;
                }
            }
            assert_eq!(got, want, "pieces {pieces:?}");
            assert_eq!(codec.crc_rejections(), 1, "pieces {pieces:?}");
            assert_eq!(codec.buffered(), 0, "pieces {pieces:?}");
        }
    }

    #[test]
    fn read_from_sizes_reads_to_the_frame_at_the_head() {
        /// A `Read` that always has more, and records what it was asked for.
        struct Endless<'a> {
            wire: &'a [u8],
            asked: Vec<usize>,
        }
        impl std::io::Read for Endless<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.asked.push(out.len());
                let n = out.len().min(self.wire.len());
                out[..n].copy_from_slice(&self.wire[..n]);
                self.wire = &self.wire[n..];
                Ok(n)
            }
        }
        let frame = Frame::ShipInput {
            job: JobId(1),
            seq: 1,
            offset_kb: 0,
            len_kb: 300,
            resume_from: None,
            trace_id: 1,
            span_id: 1,
            parent_span: 0,
            replica: false,
            data: Bytes::from(vec![7u8; 300 * 1024]),
        };
        let mut wire = BytesMut::new();
        frame.encode(&mut wire);
        frame.encode(&mut wire);
        let mut src = Endless {
            wire: &wire,
            asked: Vec::new(),
        };
        let mut codec = FrameCodec::new();
        // No header yet: the floor. Then exactly the rest of the frame, so
        // the read ends on the frame boundary and nothing has to slide.
        assert_eq!(codec.read_from(&mut src, MAX_READ).unwrap(), READ_FLOOR);
        let rest = wire.len() / 2 - READ_FLOOR;
        assert_eq!(codec.read_from(&mut src, MAX_READ).unwrap(), rest);
        assert_eq!(src.asked, vec![READ_FLOOR, rest]);
        assert_eq!(codec.next_frame().unwrap().as_ref(), Some(&frame));
        assert_eq!(codec.buffered(), 0);
        // The caller's limit always wins.
        assert_eq!(codec.read_from(&mut src, 100).unwrap(), 100);
        assert_eq!(codec.read_from(&mut src, 0).unwrap(), 0);
    }

    #[test]
    fn handshake_tags_are_classified() {
        assert!(is_handshake_tag(tag::REGISTER));
        assert!(is_handshake_tag(tag::BW_REPORT));
        assert!(is_handshake_tag(tag::SHUTDOWN));
        assert!(!is_handshake_tag(tag::SHIP_INPUT));
        assert!(!is_handshake_tag(tag::TASK_COMPLETE));
        assert!(!is_handshake_tag(tag::KEEPALIVE));
    }

    #[test]
    fn keepalive_constants_match_prototype() {
        assert_eq!(KEEPALIVE_PERIOD.as_secs_f64(), 30.0);
        assert_eq!(KEEPALIVE_TOLERATED_MISSES, 3);
    }
}
