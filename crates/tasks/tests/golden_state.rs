//! Golden bytes for every program in the standard registry. Checkpoints
//! cross the wire (a worker's `TaskFailed`, another worker's
//! `ShipInput.resume_from`, recorded replay scripts) and partials are
//! aggregated by the live coordinator, so their exact bytes are part of
//! the protocol. For each program, on one fixed input, this pins the
//! straight partial, the checkpoint and watermark of a run cut at a fixed
//! KB, the partial of the restored cut state, the partial after resuming
//! from that checkpoint, and `aggregate` over two partials. Short blobs
//! are pinned as hex, long ones as length plus FNV-1a.

// Test harness code: clippy's allow-unwrap-in-tests only reaches #[test]
// fns, not the helpers they share.
#![allow(clippy::unwrap_used)]

use cwc_device::executor::CHUNK_BYTES;
use cwc_device::{ExecutionOutcome, Executor, TaskProgram};
use cwc_sim::Fnv1a;
use cwc_tasks::{inputs, standard_registry};
use cwc_types::{CwcResult, KiloBytes};

fn pin(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        "empty".into()
    } else if bytes.len() <= 32 {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    } else {
        let mut h = Fnv1a::default();
        h.write(bytes);
        format!("{} bytes, fnv1a {:016x}", bytes.len(), h.finish())
    }
}

fn pin_result(r: CwcResult<Vec<u8>>) -> String {
    match r {
        Ok(bytes) => pin(&bytes),
        Err(e) => format!("error: {e}"),
    }
}

fn completed(outcome: ExecutionOutcome) -> Vec<u8> {
    match outcome {
        ExecutionOutcome::Completed { result, .. } => result,
        other => panic!("unexpected {other:?}"),
    }
}

/// One program's transcript: straight partial, cut checkpoint and
/// watermark, the partial of the restored cut state alone (its tail
/// flushed, or empty for an incomplete atomic input), resumed partial,
/// and two aggregates — over the straight and resumed partials, and over
/// the bare partials `u64::MAX` and 2.
fn transcript(program: &dyn TaskProgram, input: &[u8], cut: KiloBytes) -> String {
    let straight = completed(Executor.run(program, input, None).unwrap());
    let (checkpoint, processed) = match Executor.run(program, input, Some(cut)).unwrap() {
        ExecutionOutcome::Interrupted {
            checkpoint,
            processed,
        } => (checkpoint, processed),
        other => panic!("unexpected {other:?}"),
    };
    let prefix = program.restore_state(&checkpoint).unwrap().partial_result();
    let rest = &input[processed.0 as usize * CHUNK_BYTES..];
    let resumed = completed(
        Executor
            .run_guarded(program, rest, Some(&checkpoint), |_| false)
            .unwrap(),
    );
    let bare = [u64::MAX.to_be_bytes().to_vec(), 2u64.to_be_bytes().to_vec()];
    format!(
        "straight   {}\ncheckpoint {} @ {} KB\nprefix     {}\nresumed    {}\naggregate  {}\nbare       {}",
        pin(&straight),
        pin(&checkpoint),
        processed.0,
        pin(&prefix),
        pin(&resumed),
        pin_result(program.aggregate(&[straight.clone(), resumed])),
        pin_result(program.aggregate(&bare)),
    )
}

fn check(name: &str, input: &[u8], cut_kb: u64, expected: &str) {
    let registry = standard_registry();
    let program = registry.load(name).unwrap();
    let got = transcript(program.as_ref(), input, KiloBytes(cut_kb));
    assert_eq!(got, expected, "{name}:\n{got}");
}

#[test]
fn primecount_bytes_are_pinned() {
    check(
        "primecount",
        &inputs::number_file(8, 1),
        3,
        "straight   000000000000005b\n\
         checkpoint 0000000000000021000000053539383330 @ 3 KB\n\
         prefix     0000000000000021\n\
         resumed    000000000000005b\n\
         aggregate  00000000000000b6\n\
         bare       0000000000000001",
    );
}

#[test]
fn wordcount_bytes_are_pinned() {
    check(
        "wordcount",
        &inputs::text_file(8, 2, "lowes"),
        3,
        "straight   000000000000000c\n\
         checkpoint 000000000000000500000004206f7264 @ 3 KB\n\
         prefix     0000000000000005\n\
         resumed    000000000000000c\n\
         aggregate  0000000000000018\n\
         bare       0000000000000001",
    );
}

#[test]
fn largestint_bytes_are_pinned() {
    check(
        "largestint",
        &inputs::number_file(8, 4),
        3,
        "straight   00000000000f40f4\n\
         checkpoint 00000000000f385800000003393932 @ 3 KB\n\
         prefix     00000000000f3858\n\
         resumed    00000000000f40f4\n\
         aggregate  00000000000f40f4\n\
         bare       ffffffffffffffff",
    );
}

#[test]
fn logscan_bytes_are_pinned() {
    check(
        "logscan",
        &inputs::log_file(8, 5),
        3,
        "straight   000000000000000a\n\
         checkpoint 0000000000000005000000023137 @ 3 KB\n\
         prefix     0000000000000005\n\
         resumed    000000000000000a\n\
         aggregate  0000000000000014\n\
         bare       0000000000000001",
    );
}

#[test]
fn photoblur_bytes_are_pinned() {
    check(
        "photoblur",
        &inputs::image_file(64, 48, 3),
        1,
        "straight   3080 bytes, fnv1a 0e9915579458d1f0\n\
         checkpoint 1024 bytes, fnv1a 46dd50226bd56f83 @ 1 KB\n\
         prefix     empty\n\
         resumed    3080 bytes, fnv1a 0e9915579458d1f0\n\
         aggregate  error: migration failure: photoblur is atomic: expected exactly 1 partial, got 2\n\
         bare       error: migration failure: photoblur is atomic: expected exactly 1 partial, got 2",
    );
}

#[test]
fn render_bytes_are_pinned() {
    check(
        "render",
        &inputs::scene_file(96, 64, 100, 6),
        1,
        "straight   6152 bytes, fnv1a e90cbbf7cecdf255\n\
         checkpoint 1024 bytes, fnv1a 3e6c42e3651f34e2 @ 1 KB\n\
         prefix     empty\n\
         resumed    6152 bytes, fnv1a e90cbbf7cecdf255\n\
         aggregate  error: migration failure: render is atomic: expected exactly 1 partial, got 2\n\
         bare       error: migration failure: render is atomic: expected exactly 1 partial, got 2",
    );
}
