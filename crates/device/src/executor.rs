//! Chunk-at-a-time task execution with interrupt/checkpoint/resume.
//!
//! The executor is the device-side loop that the prototype's Android
//! service runs: pull the next input chunk, hand it to the task state,
//! repeat — and if the phone is unplugged mid-partition, stop at the next
//! chunk boundary, checkpoint, and report an online failure with the
//! processed-KB watermark so the server can migrate the *remainder* to
//! another phone (§5, "Handling Failures").
//!
//! Chunks are 1 KB, matching the granularity of the paper's cost model
//! (`c_ij` is defined per KB of input).

use crate::task::TaskProgram;
use cwc_types::{CwcResult, KiloBytes};

/// Input chunk size: the cost model's unit.
pub const CHUNK_BYTES: usize = 1024;

/// Why an execution stopped.
#[derive(Debug)]
pub enum ExecutionOutcome {
    /// The whole partition was processed; here is the partial result.
    Completed {
        /// Serialized partial result for server-side aggregation.
        result: Vec<u8>,
        /// KB processed (== the partition size).
        processed: KiloBytes,
    },
    /// Execution was interrupted (unplug); the checkpoint resumes it.
    Interrupted {
        /// JavaGO-style continuation state.
        checkpoint: Vec<u8>,
        /// KB processed before the interruption.
        processed: KiloBytes,
    },
}

/// Executes task programs over in-memory input partitions.
#[derive(Debug, Default)]
pub struct Executor;

impl Executor {
    /// Runs `program` over `input` from scratch.
    ///
    /// `interrupt_after` bounds how many KB may be processed before the
    /// run is cut (simulating an unplug at that watermark); `None` runs to
    /// completion.
    pub fn run(
        &self,
        program: &dyn TaskProgram,
        input: &[u8],
        interrupt_after: Option<KiloBytes>,
    ) -> CwcResult<ExecutionOutcome> {
        self.run_guarded(program, input, None, |done| {
            interrupt_after.is_some_and(|limit| done >= limit)
        })
    }

    /// Runs with a caller-supplied interrupt predicate, checked at every
    /// chunk boundary with the KB processed so far — this is how the live
    /// worker polls its unplug flag. `resume_from` restores a migration
    /// checkpoint first (the input must then be the *remaining* slice).
    pub fn run_guarded(
        &self,
        program: &dyn TaskProgram,
        input: &[u8],
        resume_from: Option<&[u8]>,
        mut should_stop: impl FnMut(KiloBytes) -> bool,
    ) -> CwcResult<ExecutionOutcome> {
        let mut state = match resume_from {
            Some(ck) => program.restore_state(ck)?,
            None => program.new_state(),
        };
        let mut processed = KiloBytes::ZERO;
        for chunk in input.chunks(CHUNK_BYTES) {
            if should_stop(processed) {
                return Ok(ExecutionOutcome::Interrupted {
                    checkpoint: state.checkpoint(),
                    processed,
                });
            }
            state.process_chunk(chunk)?;
            processed += KiloBytes(1);
        }
        Ok(ExecutionOutcome::Completed {
            result: state.partial_result(),
            processed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::test_support::ByteSum;

    fn input(len_kb: usize) -> Vec<u8> {
        (0..len_kb * CHUNK_BYTES).map(|i| (i % 251) as u8).collect()
    }

    fn expected_sum(data: &[u8]) -> u64 {
        data.iter().map(|&b| u64::from(b)).sum()
    }

    #[test]
    fn uninterrupted_run_completes_with_correct_result() {
        let data = input(8);
        match Executor.run(&ByteSum, &data, None).unwrap() {
            ExecutionOutcome::Completed { result, processed } => {
                assert_eq!(processed, KiloBytes(8));
                assert_eq!(result, expected_sum(&data).to_be_bytes().to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interrupt_checkpoints_at_watermark() {
        let data = input(8);
        match Executor.run(&ByteSum, &data, Some(KiloBytes(3))).unwrap() {
            ExecutionOutcome::Interrupted {
                checkpoint,
                processed,
            } => {
                assert_eq!(processed, KiloBytes(3));
                let expect = expected_sum(&data[..3 * CHUNK_BYTES]);
                assert_eq!(checkpoint, expect.to_be_bytes().to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resume_equals_uninterrupted_execution() {
        // The migration invariant: interrupt anywhere, resume on "another
        // phone", and the final result is identical to a straight run.
        let data = input(16);
        let straight = match Executor.run(&ByteSum, &data, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => result,
            other => panic!("unexpected {other:?}"),
        };
        for cut in [1u64, 5, 8, 15] {
            let (ck, processed) = match Executor.run(&ByteSum, &data, Some(KiloBytes(cut))).unwrap()
            {
                ExecutionOutcome::Interrupted {
                    checkpoint,
                    processed,
                } => (checkpoint, processed),
                other => panic!("unexpected {other:?}"),
            };
            let rest = &data[processed.0 as usize * CHUNK_BYTES..];
            match Executor
                .run_guarded(&ByteSum, rest, Some(&ck), |_| false)
                .unwrap()
            {
                ExecutionOutcome::Completed { result, .. } => {
                    assert_eq!(result, straight, "cut at {cut} KB diverged");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn double_interruption_still_converges() {
        let data = input(12);
        let straight = match Executor.run(&ByteSum, &data, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => result,
            other => panic!("unexpected {other:?}"),
        };
        // First phone dies at 4 KB, second at 9 KB, third finishes.
        let (ck1, p1) = match Executor.run(&ByteSum, &data, Some(KiloBytes(4))).unwrap() {
            ExecutionOutcome::Interrupted {
                checkpoint,
                processed,
            } => (checkpoint, processed),
            other => panic!("unexpected {other:?}"),
        };
        let rest = &data[p1.0 as usize * CHUNK_BYTES..];
        let (ck2, p2) = match Executor
            .run_guarded(&ByteSum, rest, Some(&ck1), |done| p1 + done >= KiloBytes(9))
            .unwrap()
        {
            ExecutionOutcome::Interrupted {
                checkpoint,
                processed,
            } => (checkpoint, p1 + processed),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(p2, KiloBytes(9));
        let rest = &data[p2.0 as usize * CHUNK_BYTES..];
        match Executor
            .run_guarded(&ByteSum, rest, Some(&ck2), |_| false)
            .unwrap()
        {
            ExecutionOutcome::Completed { result, .. } => assert_eq!(result, straight),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interrupt_beyond_input_completes() {
        let data = input(2);
        match Executor.run(&ByteSum, &data, Some(KiloBytes(10))).unwrap() {
            ExecutionOutcome::Completed { processed, .. } => {
                assert_eq!(processed, KiloBytes(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_final_chunk_is_processed() {
        // 2.5 KB input: final half-chunk still counts (rounded up to a
        // chunk boundary by the loop).
        let mut data = input(2);
        data.extend_from_slice(&vec![7u8; CHUNK_BYTES / 2]);
        match Executor.run(&ByteSum, &data, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => {
                assert_eq!(result, expected_sum(&data).to_be_bytes().to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn immediate_interrupt_checkpoints_fresh_state() {
        let data = input(4);
        match Executor
            .run(&ByteSum, &data, Some(KiloBytes::ZERO))
            .unwrap()
        {
            ExecutionOutcome::Interrupted {
                checkpoint,
                processed,
            } => {
                assert_eq!(processed, KiloBytes::ZERO);
                assert_eq!(checkpoint, 0u64.to_be_bytes().to_vec());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
