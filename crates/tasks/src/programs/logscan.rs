//! `logscan` — the intro's enterprise-IT scenario: "gather machine logs
//! throughout the day and analyze them for certain types of failures at
//! night" (§3.2). Counts lines whose severity field is `ERROR` or
//! `FATAL`.

use super::streaming::{Records, Streaming};

/// The failure-log scanner.
#[derive(Clone)]
pub struct LogScan;

fn is_failure_line(line: &[u8]) -> bool {
    // Log format: "<timestamp> <SEVERITY> <message>"; severity is the
    // second whitespace-separated token.
    let mut fields = line.split(|&b| b == b' ').filter(|f| !f.is_empty());
    let _ts = fields.next();
    matches!(fields.next(), Some(b"ERROR") | Some(b"FATAL"))
}

task_program!(LogScan, streaming, "logscan", 4.0);

impl Streaming for LogScan {
    const MERGE: fn(u64, u64) -> u64 = u64::wrapping_add;

    fn records(&self) -> Records {
        Records::Lines { max_tail: None }
    }

    fn value(&self, line: &[u8]) -> u64 {
        u64::from(is_failure_line(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::codec::decode_partial;
    use cwc_device::TaskProgram;

    #[test]
    fn counts_error_and_fatal_lines() {
        let log = b"100 INFO boot ok\n101 ERROR disk full\n102 WARN slow\n103 FATAL panic\n";
        let mut s = LogScan.new_state();
        s.process_chunk(log).unwrap();
        assert_eq!(decode_partial(&s.partial_result()).unwrap(), 2);
    }

    #[test]
    fn severity_must_be_second_field() {
        // "ERROR" appearing in the message body must not count.
        let log = b"100 INFO user typed ERROR\n";
        let mut s = LogScan.new_state();
        s.process_chunk(log).unwrap();
        assert_eq!(decode_partial(&s.partial_result()).unwrap(), 0);
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_count() {
        let log = crate::inputs::log_file(8, 21);
        let reference = {
            let mut s = LogScan.new_state();
            s.process_chunk(&log).unwrap();
            decode_partial(&s.partial_result()).unwrap()
        };
        for chunk in [1usize, 7, 100, 1024] {
            let mut s = LogScan.new_state();
            for piece in log.chunks(chunk) {
                s.process_chunk(piece).unwrap();
            }
            assert_eq!(
                decode_partial(&s.partial_result()).unwrap(),
                reference,
                "chunk {chunk}"
            );
        }
        assert!(reference > 0, "generated log should contain failures");
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut s = LogScan.new_state();
        s.process_chunk(b"1 ERROR x\n2 INFO y\n3 FA").unwrap();
        let ck = s.checkpoint();
        let mut restored = LogScan.restore_state(&ck).unwrap();
        restored.process_chunk(b"TAL z\n").unwrap();
        assert_eq!(decode_partial(&restored.partial_result()).unwrap(), 2);
    }
}
