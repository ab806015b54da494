//! `wordcount` — evaluation task 2: count occurrences of a word (§4's
//! running MapReduce-style example and §6's second workload). The server
//! sums the per-partition counts, exactly the logical aggregation the
//! paper describes.

use super::streaming::{Records, Streaming};

/// The word-counting program, parameterized by its target word.
#[derive(Clone)]
pub struct WordCount {
    word: Vec<u8>,
}

impl WordCount {
    /// Creates a counter for `word` (matched as a byte substring,
    /// case-sensitive — the Java prototype's `String.indexOf` semantics).
    ///
    /// # Panics
    /// Panics on an empty word.
    pub fn new(word: &str) -> Self {
        assert!(!word.is_empty(), "target word must be non-empty");
        WordCount {
            word: word.as_bytes().to_vec(),
        }
    }
}

// Scan-bound, lighter than prime counting.
task_program!(WordCount, streaming, "wordcount", 6.0);

/// Every window as long as the word is a record, so overlapping matches
/// count (like repeated `indexOf(from = hit + 1)`), and the last
/// `len(word) − 1` bytes wait in the tail for a match straddling the cut.
impl Streaming for WordCount {
    const MERGE: fn(u64, u64) -> u64 = u64::wrapping_add;

    fn records(&self) -> Records {
        Records::Windows(self.word.len())
    }

    fn value(&self, window: &[u8]) -> u64 {
        u64::from(window == self.word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::codec::decode_partial;
    use cwc_device::{ExecutionOutcome, Executor, TaskProgram};

    fn run_all(text: &[u8], word: &str, chunk: usize) -> u64 {
        let prog = WordCount::new(word);
        let mut s = prog.new_state();
        for piece in text.chunks(chunk) {
            s.process_chunk(piece).unwrap();
        }
        decode_partial(&s.partial_result()).unwrap()
    }

    #[test]
    fn basic_count() {
        assert_eq!(run_all(b"the cat and the hat the", "the", 1024), 3);
    }

    #[test]
    fn straddling_matches_found_at_any_chunk_size() {
        let text = b"abcabcabcabc";
        for chunk in 1..=12 {
            assert_eq!(run_all(text, "abc", chunk), 4, "chunk size {chunk}");
        }
    }

    #[test]
    fn overlapping_matches() {
        assert_eq!(run_all(b"aaaa", "aa", 64), 3);
        for chunk in 1..=4 {
            assert_eq!(run_all(b"aaaa", "aa", chunk), 3, "chunk {chunk}");
        }
    }

    #[test]
    fn checkpoint_resume_is_lossless() {
        let prog = WordCount::new("lowes");
        let text = crate::inputs::text_file(4, 5, "lowes");
        let straight = {
            let mut s = prog.new_state();
            s.process_chunk(&text).unwrap();
            decode_partial(&s.partial_result()).unwrap()
        };
        // Interrupt mid-text.
        let mut s1 = prog.new_state();
        s1.process_chunk(&text[..1_500]).unwrap();
        let ck = s1.checkpoint();
        let mut s2 = prog.restore_state(&ck).unwrap();
        s2.process_chunk(&text[1_500..]).unwrap();
        assert_eq!(decode_partial(&s2.partial_result()).unwrap(), straight);
    }

    #[test]
    fn restore_rejects_oversized_tail() {
        let prog = WordCount::new("ab");
        let bogus = super::super::codec::encode_u64_tail(0, b"toolong");
        assert!(prog.restore_state(&bogus).is_err());
    }

    #[test]
    fn executor_end_to_end() {
        let prog = WordCount::new("lowes");
        let text = crate::inputs::text_file(16, 9, "lowes");
        let expected = text.windows(5).filter(|w| w == b"lowes").count() as u64;
        match Executor.run(&prog, &text, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => {
                assert_eq!(decode_partial(&result).unwrap(), expected);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_word_rejected() {
        let _ = WordCount::new("");
    }
}
