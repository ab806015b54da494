//! `largestint` — the §3.1 feasibility workload: find the largest integer
//! in a file. This is the task behind Fig. 5's bandwidth-variability
//! experiment (600 files across 6 phones of equal CPU but unequal links).

use super::streaming::{parse_u64, Records, Streaming};

/// The largest-integer program.
#[derive(Clone)]
pub struct LargestInt;

// Pure scan: the lightest workload in the suite.
task_program!(LargestInt, streaming, "largestint", 2.0);

impl Streaming for LargestInt {
    const MERGE: fn(u64, u64) -> u64 = u64::max;

    fn records(&self) -> Records {
        Records::Lines { max_tail: None }
    }

    fn value(&self, line: &[u8]) -> u64 {
        parse_u64(line).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::codec::decode_partial;
    use cwc_device::{ExecutionOutcome, Executor, TaskProgram};

    #[test]
    fn finds_max_across_chunks() {
        let input = b"17\n99123\n4\n500\n";
        let mut s = LargestInt.new_state();
        for piece in input.chunks(4) {
            s.process_chunk(piece).unwrap();
        }
        assert_eq!(decode_partial(&s.partial_result()).unwrap(), 99_123);
    }

    #[test]
    fn trailing_number_counts() {
        let mut s = LargestInt.new_state();
        s.process_chunk(b"5\n1000000").unwrap();
        assert_eq!(decode_partial(&s.partial_result()).unwrap(), 1_000_000);
    }

    #[test]
    fn checkpoint_resume_with_straddle() {
        let input = b"123\n987654\n42\n";
        let mut s1 = LargestInt.new_state();
        s1.process_chunk(&input[..7]).unwrap(); // "123\n987"
        let ck = s1.checkpoint();
        let mut s2 = LargestInt.restore_state(&ck).unwrap();
        s2.process_chunk(&input[7..]).unwrap();
        assert_eq!(decode_partial(&s2.partial_result()).unwrap(), 987_654);
    }

    #[test]
    fn aggregate_takes_max() {
        let parts = vec![10u64.to_be_bytes().to_vec(), 7u64.to_be_bytes().to_vec()];
        assert_eq!(
            decode_partial(&LargestInt.aggregate(&parts).unwrap()).unwrap(),
            10
        );
    }

    #[test]
    fn executor_end_to_end() {
        let input = crate::inputs::number_file(4, 11);
        let reference = input
            .split(|&b| b == b'\n')
            .filter_map(|l| std::str::from_utf8(l).ok()?.trim().parse::<u64>().ok())
            .max()
            .unwrap();
        match Executor.run(&LargestInt, &input, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => {
                assert_eq!(decode_partial(&result).unwrap(), reference);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
