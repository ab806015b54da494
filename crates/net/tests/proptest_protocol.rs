//! Property tests: every frame survives encode → (arbitrary fragmentation)
//! → decode unchanged, and the decoder never panics on garbage.

use bytes::{Bytes, BytesMut};
use cwc_net::{Frame, FrameCodec};
use cwc_types::{JobId, PhoneId, RadioTech};
use proptest::prelude::*;

fn radio_strategy() -> impl Strategy<Value = RadioTech> {
    prop_oneof![
        Just(RadioTech::Wifi80211a),
        Just(RadioTech::Wifi80211g),
        Just(RadioTech::Edge),
        Just(RadioTech::ThreeG),
        Just(RadioTech::FourG),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            1u32..64,
            radio_strategy(),
            any::<u64>()
        )
            .prop_map(|(phone, clock, cores, radio, ram)| Frame::Register {
                phone: PhoneId(phone),
                clock_mhz: clock,
                cores,
                radio,
                ram_kb: ram,
            }),
        Just(Frame::RegisterAck),
        any::<u32>().prop_map(|id| Frame::BandwidthProbe { probe_id: id }),
        (any::<u32>(), 0.0..1e6f64).prop_map(|(id, r)| Frame::BandwidthReport {
            probe_id: id,
            kb_per_sec: r,
        }),
        (any::<u32>(), "[a-z_]{0,24}").prop_map(|(j, p)| Frame::ShipExecutable {
            job: JobId(j),
            program: p.into(),
        }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            proptest::collection::vec(any::<u8>(), 0..4096)
        )
            .prop_map(
                |(j, seq, off, len, resume, (tid, sid, psid, replica), data)| {
                    Frame::ShipInput {
                        job: JobId(j),
                        seq,
                        offset_kb: off,
                        len_kb: len,
                        resume_from: resume.map(Bytes::from),
                        trace_id: tid,
                        span_id: sid,
                        parent_span: psid,
                        replica,
                        data: Bytes::from(data),
                    }
                }
            ),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..4096)
        )
            .prop_map(|(j, seq, ms, res)| Frame::TaskComplete {
                job: JobId(j),
                seq,
                exec_ms: ms,
                result: Bytes::from(res),
            }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(j, seq, kb, ck)| Frame::TaskFailed {
                job: JobId(j),
                seq,
                processed_kb: kb,
                checkpoint: Bytes::from(ck),
            }),
        any::<u64>().prop_map(|s| Frame::KeepAlive { seq: s }),
        any::<u64>().prop_map(|s| Frame::KeepAliveAck { seq: s }),
        Just(Frame::Shutdown),
    ]
}

proptest! {
    #[test]
    fn encode_decode_round_trip(frame in frame_strategy()) {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        let mut codec = FrameCodec::new();
        codec.extend(&buf);
        let decoded = codec.next_frame().unwrap().expect("complete frame");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn round_trip_survives_fragmentation(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
        chunk in 1usize..17,
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            codec.extend(piece);
            while let Some(f) = codec.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut codec = FrameCodec::new();
        codec.extend(&bytes);
        // Any outcome is fine (None, Some, Err) as long as it doesn't panic
        // or loop forever.
        for _ in 0..8 {
            match codec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    // --- Corrupted-stream properties: bit flips, truncations, and length
    // mutations must yield a decode error or a CRC rejection — never a
    // panic, never a silently wrong frame. ---

    #[test]
    fn bit_flip_never_yields_a_wrong_frame(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        flip_pos in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut raw = wire.to_vec();
        let at = flip_pos.index(raw.len());
        raw[at] ^= 1 << flip_bit;

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        let mut decoded = Vec::new();
        while let Ok(Some(f)) = codec.next_frame() {
            decoded.push(f);
        }
        // Every frame that survives decoding must be one of the originals:
        // corruption may only *remove* frames (rejection/desync), never
        // fabricate or alter one.
        for f in &decoded {
            prop_assert!(frames.contains(f), "fabricated frame {f:?}");
        }
        prop_assert!(decoded.len() <= frames.len());
    }

    #[test]
    fn truncation_decodes_a_clean_prefix(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        cut in any::<proptest::sample::Index>(),
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let raw = &wire[..cut.index(wire.len() + 1)];
        let mut codec = FrameCodec::new();
        codec.extend(raw);
        let mut decoded = Vec::new();
        while let Ok(Some(f)) = codec.next_frame() {
            decoded.push(f);
        }
        // A truncated stream yields exactly the frames that fit, in order.
        prop_assert!(decoded.len() <= frames.len());
        prop_assert_eq!(&frames[..decoded.len()], &decoded[..]);
    }

    #[test]
    fn length_prefix_mutation_is_rejected_or_skipped(
        frames in proptest::collection::vec(frame_strategy(), 1..5),
        bogus_len in any::<u32>(),
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut raw = wire.to_vec();
        raw[..4].copy_from_slice(&bogus_len.to_be_bytes());

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        let mut decoded = Vec::new();
        while let Ok(Some(f)) = codec.next_frame() {
            decoded.push(f);
        }
        for f in &decoded {
            prop_assert!(frames.contains(f), "fabricated frame {f:?}");
        }
    }
}
