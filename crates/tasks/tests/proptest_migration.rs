//! Property tests: for every program, arbitrary inputs and arbitrary
//! interruption points, the migration invariant holds — resume equals an
//! uninterrupted run — and chunk boundaries never change results.

// Test harness code: clippy's allow-unwrap-in-tests only reaches #[test]
// fns, not the helpers they share.
#![allow(clippy::unwrap_used)]

use cwc_device::executor::CHUNK_BYTES;
use cwc_device::{ExecutionOutcome, Executor, TaskProgram};
use cwc_tasks::{
    standard_registry, LargestInt, LogScan, PhotoBlur, PrimeCount, SceneRender, WordCount,
};
use cwc_types::KiloBytes;
use proptest::prelude::*;

fn run_to_end(p: &dyn TaskProgram, input: &[u8]) -> Vec<u8> {
    match Executor.run(p, input, None).unwrap() {
        ExecutionOutcome::Completed { result, .. } => result,
        other => panic!("unexpected {other:?}"),
    }
}

fn run_with_cut(p: &dyn TaskProgram, input: &[u8], cut_kb: u64) -> Vec<u8> {
    match Executor.run(p, input, Some(KiloBytes(cut_kb))).unwrap() {
        ExecutionOutcome::Completed { result, .. } => result,
        ExecutionOutcome::Interrupted {
            checkpoint,
            processed,
        } => match Executor
            .run_guarded(
                p,
                &input[processed.0 as usize * CHUNK_BYTES..],
                Some(&checkpoint),
                |_| false,
            )
            .unwrap()
        {
            ExecutionOutcome::Completed { result, .. } => result,
            other => panic!("unexpected {other:?}"),
        },
    }
}

/// Number-file-like inputs: digits and newlines with occasional junk.
fn numberish() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            8 => proptest::char::range('0', '9').prop_map(|c| c as u8),
            2 => Just(b'\n'),
            1 => Just(b' '),
        ],
        0..6_000,
    )
}

fn textish() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            6 => proptest::char::range('a', 'e').prop_map(|c| c as u8),
            2 => Just(b' '),
            1 => Just(b'\n'),
        ],
        0..6_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn primecount_migration(input in numberish(), cut in 0u64..8) {
        let p = PrimeCount;
        prop_assert_eq!(run_with_cut(&p, &input, cut), run_to_end(&p, &input));
    }

    #[test]
    fn largestint_migration(input in numberish(), cut in 0u64..8) {
        let p = LargestInt;
        prop_assert_eq!(run_with_cut(&p, &input, cut), run_to_end(&p, &input));
    }

    #[test]
    fn wordcount_migration(input in textish(), cut in 0u64..8) {
        let p = WordCount::new("abc");
        prop_assert_eq!(run_with_cut(&p, &input, cut), run_to_end(&p, &input));
    }

    #[test]
    fn logscan_migration(input in textish(), cut in 0u64..8) {
        let p = LogScan;
        prop_assert_eq!(run_with_cut(&p, &input, cut), run_to_end(&p, &input));
    }

    #[test]
    fn blur_migration(w in 1u32..48, h in 1u32..48, seed in 0u64..1000, cut in 0u64..4) {
        let img = cwc_tasks::inputs::image_file(w, h, seed);
        let p = PhotoBlur;
        prop_assert_eq!(run_with_cut(&p, &img, cut), run_to_end(&p, &img));
    }

    #[test]
    fn render_migration(w in 1u32..64, h in 1u32..64, discs in 0usize..200, seed in 0u64..1000, cut in 0u64..4) {
        let scene = cwc_tasks::inputs::scene_file(w, h, discs, seed);
        let p = SceneRender;
        prop_assert_eq!(run_with_cut(&p, &scene, cut), run_to_end(&p, &scene));
    }

    #[test]
    fn wordcount_chunking_invariance(input in textish(), word in "[a-e]{1,4}") {
        // Processing in any chunk size gives the same count.
        let p = WordCount::new(&word);
        let whole = {
            let mut s = p.new_state();
            s.process_chunk(&input).unwrap();
            s.partial_result()
        };
        for chunk in [1usize, 3, 17, 1024] {
            let mut s = p.new_state();
            for piece in input.chunks(chunk.max(1)) {
                s.process_chunk(piece).unwrap();
            }
            prop_assert_eq!(s.partial_result(), whole.clone(), "chunk {}", chunk);
        }
    }

    #[test]
    fn checkpoints_decode_what_they_encode(input in numberish(), cut in 1u64..6) {
        // A checkpoint taken at any point restores to an equivalent state,
        // for every program.
        let registry = standard_registry();
        for name in registry.names() {
            let p = registry.load(&name).unwrap();
            if let ExecutionOutcome::Interrupted { checkpoint, processed } =
                Executor.run(p.as_ref(), &input, Some(KiloBytes(cut))).unwrap()
            {
                let restored = p.restore_state(&checkpoint).unwrap();
                // Restored state checkpoints identically (idempotence).
                prop_assert_eq!(restored.checkpoint(), checkpoint, "{}", name);
                prop_assert!(processed <= KiloBytes(cut));
            }
        }
    }
}
