//! Criterion benches for the wire protocol: frame encode/decode and
//! streaming reassembly throughput, plus the live byte path's three
//! per-byte costs (`crc32`, `encode`, `decode`) on the two `ShipInput`
//! sizes the repo benchmark ships (1 KB: `live-chunks`, 1 MB: `live-bulk`).

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cwc_net::protocol::crc32_portable;
use cwc_net::{crc32, Frame, FrameCodec};
use cwc_types::{JobId, PhoneId, RadioTech};
use std::hint::black_box;

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Register {
            phone: PhoneId(3),
            clock_mhz: 1200,
            cores: 2,
            radio: RadioTech::ThreeG,
            ram_kb: 1 << 20,
        },
        Frame::KeepAlive { seq: 12345 },
        Frame::TaskComplete {
            job: JobId(17),
            seq: 1,
            exec_ms: 887,
            result: Bytes::from(vec![7u8; 64]),
        },
        Frame::ShipInput {
            job: JobId(17),
            seq: 2,
            offset_kb: 512,
            len_kb: 256,
            resume_from: None,
            trace_id: 17,
            span_id: 2,
            parent_span: 0,
            replica: false,
            data: Bytes::from(vec![1u8; 256 * 1024]),
        },
    ]
}

fn bench_encode(c: &mut Criterion) {
    let frames = sample_frames();
    let mut group = c.benchmark_group("frame-encode");
    for (i, f) in frames.iter().enumerate() {
        let mut probe = BytesMut::new();
        f.encode(&mut probe);
        group.throughput(Throughput::Bytes(probe.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(i), f, |b, f| {
            b.iter(|| {
                let mut buf = BytesMut::with_capacity(512 * 1024);
                f.encode(&mut buf);
                black_box(buf);
            });
        });
    }
    group.finish();
}

fn bench_decode_stream(c: &mut Criterion) {
    // A realistic mixed stream, decoded in 1400-byte "MTU" slices.
    let mut wire = BytesMut::new();
    for _ in 0..64 {
        for f in sample_frames() {
            f.encode(&mut wire);
        }
    }
    let wire = wire.freeze();
    let mut group = c.benchmark_group("frame-decode");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("mtu-chunked", |b| {
        b.iter(|| {
            let mut codec = FrameCodec::new();
            let mut n = 0usize;
            for chunk in wire.chunks(1400) {
                codec.extend(chunk);
                while let Some(f) = codec.next_frame().unwrap() {
                    n += 1;
                    black_box(&f);
                }
            }
            assert_eq!(n, 64 * 4);
        });
    });
    group.finish();
}

/// A `ShipInput` carrying `len` payload bytes, as the live driver ships it.
fn ship_input(len: usize) -> Frame {
    Frame::ShipInput {
        job: JobId(7),
        seq: 41,
        offset_kb: 0,
        len_kb: (len as u64).div_ceil(1024),
        resume_from: None,
        trace_id: 7,
        span_id: 19,
        parent_span: 0,
        replica: false,
        data: Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
    }
}

const SHIP_SIZES: [(&str, usize); 2] = [("1KB", 1 << 10), ("1MB", 1 << 20)];

/// The checksum ladder: under the kernel's 128-byte threshold, on it, a
/// `live-chunks` payload, a socket-buffer's worth, a `live-bulk` payload.
const CRC_SIZES: [(&str, usize); 5] = [
    ("64B", 64),
    ("128B", 128),
    ("1KB", 1 << 10),
    ("64KB", 64 << 10),
    ("1MB", 1 << 20),
];

/// The byte path, one cost at a time, in payload bytes per second.
fn bench_byte_path(c: &mut Criterion) {
    // `dispatched` is what frames pay (carry-less-multiply folding where
    // the CPU has it); `portable` is slicing-by-8, what every other CPU
    // pays. Below 128 bytes the two are the same routine.
    let mut group = c.benchmark_group("crc32");
    for (name, len) in CRC_SIZES {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        for (routine, crc) in [
            ("dispatched", crc32 as fn(&[u8]) -> u32),
            ("portable", crc32_portable),
        ] {
            group.bench_with_input(BenchmarkId::new(routine, name), &data, |b, data| {
                b.iter(|| black_box(crc(black_box(data))));
            });
        }
    }
    group.finish();

    // Encode into a fresh buffer, as `queue_frame` does per send.
    let mut group = c.benchmark_group("encode");
    for (name, len) in SHIP_SIZES {
        let frame = ship_input(len);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &frame, |b, frame| {
            b.iter(|| {
                let mut buf = BytesMut::new();
                black_box(frame).encode(&mut buf);
                black_box(buf);
            });
        });
    }
    group.finish();

    // Decode from a long-lived codec, as a connection does per frame.
    let mut group = c.benchmark_group("decode");
    for (name, len) in SHIP_SIZES {
        let mut wire = BytesMut::new();
        ship_input(len).encode(&mut wire);
        let mut codec = FrameCodec::new();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &wire, |b, wire| {
            b.iter(|| {
                codec.extend(black_box(wire));
                black_box(codec.next_frame().unwrap().expect("whole frame"));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode_stream, bench_byte_path);
criterion_main!(benches);
