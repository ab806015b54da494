//! `primecount` — evaluation task 1: count the prime numbers in a text
//! file of newline-separated integers (§6). This is the paper's
//! CPU-intensive workload (it is also the task used for the charging
//! experiments of Fig. 10).

use super::streaming::{parse_u64, Records, Streaming};

/// The prime-counting program.
#[derive(Clone)]
pub struct PrimeCount;

/// Trial-division primality — deliberately the straightforward algorithm;
/// burning real cycles per number is the point of this workload.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

// Profiled cost class on the 806 MHz HTC G2: CPU-bound.
task_program!(PrimeCount, streaming, "primecount", 14.0);

impl Streaming for PrimeCount {
    const MERGE: fn(u64, u64) -> u64 = u64::wrapping_add;

    fn records(&self) -> Records {
        Records::Lines { max_tail: Some(64) }
    }

    fn value(&self, line: &[u8]) -> u64 {
        u64::from(parse_u64(line).is_some_and(is_prime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::codec::{decode_partial, encode_u64_tail};
    use cwc_device::{ExecutionOutcome, Executor, TaskProgram};

    #[test]
    fn primality() {
        let primes = [2u64, 3, 5, 7, 11, 97, 7919];
        let composites = [0u64, 1, 4, 9, 100, 7917];
        for p in primes {
            assert!(is_prime(p), "{p}");
        }
        for c in composites {
            assert!(!is_prime(c), "{c}");
        }
    }

    #[test]
    fn counts_primes_across_chunks() {
        let input = b"2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n".to_vec();
        // 2 3 5 7 11 → 5 primes.
        let mut state = PrimeCount.new_state();
        // Feed in awkward splits (numbers straddle boundaries).
        for piece in input.chunks(3) {
            state.process_chunk(piece).unwrap();
        }
        assert_eq!(decode_partial(&state.partial_result()).unwrap(), 5);
    }

    #[test]
    fn trailing_line_without_newline_counts() {
        let mut state = PrimeCount.new_state();
        state.process_chunk(b"4\n13").unwrap();
        assert_eq!(decode_partial(&state.partial_result()).unwrap(), 1);
    }

    #[test]
    fn checkpoint_resume_preserves_straddled_number() {
        let input = b"97\n98\n99\n101\n".to_vec();
        let mut s1 = PrimeCount.new_state();
        s1.process_chunk(&input[..4]).unwrap(); // "97\n9" — tail "9"
        let ck = s1.checkpoint();
        let mut s2 = PrimeCount.restore_state(&ck).unwrap();
        s2.process_chunk(&input[4..]).unwrap();
        // 97 and 101 are prime.
        assert_eq!(decode_partial(&s2.partial_result()).unwrap(), 2);
    }

    #[test]
    fn restore_rejects_oversized_tail() {
        // A peer's checkpoint obeys the same 64-byte cap as a chunk.
        let line = [b'7'; 65];
        assert!(PrimeCount
            .restore_state(&encode_u64_tail(0, &line))
            .is_err());
        assert!(PrimeCount
            .restore_state(&encode_u64_tail(0, &line[..64]))
            .is_ok());
        let mut state = PrimeCount.new_state();
        assert!(state.process_chunk(&line).is_err());
    }

    #[test]
    fn executor_end_to_end_matches_reference() {
        let input = crate::inputs::number_file(8, 77);
        let reference = input
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .filter(|l| {
                std::str::from_utf8(l)
                    .ok()
                    .and_then(|t| t.trim().parse::<u64>().ok())
                    .is_some_and(is_prime)
            })
            .count() as u64;
        match Executor.run(&PrimeCount, &input, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => {
                assert_eq!(decode_partial(&result).unwrap(), reference);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_sums() {
        let parts = vec![3u64.to_be_bytes().to_vec(), 4u64.to_be_bytes().to_vec()];
        assert_eq!(
            decode_partial(&PrimeCount.aggregate(&parts).unwrap()).unwrap(),
            7
        );
    }

    #[test]
    fn garbage_lines_are_ignored() {
        let mut state = PrimeCount.new_state();
        state.process_chunk(b"hello\n7\n\n  13  \n").unwrap();
        assert_eq!(decode_partial(&state.partial_result()).unwrap(), 2);
    }
}
