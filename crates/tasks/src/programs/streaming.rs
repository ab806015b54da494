//! The streaming state shape, shared by the four record programs: a `u64`
//! accumulator that every complete record's value is merged into, plus
//! the straddled tail — the bytes of a record cut by the last chunk
//! boundary, carried into the next chunk or the checkpoint.
//!
//! The checkpoint is `u64 BE accumulator | u32 BE tail length | tail`;
//! the partial is the accumulator, as 8 BE bytes, once the tail's last
//! record is merged; `aggregate` merges 8-byte partials.

use super::codec;
use cwc_device::{TaskProgram, TaskState};
use cwc_types::{CwcError, CwcResult};

/// How a streaming program's input splits into records.
#[derive(Clone, Copy)]
pub(crate) enum Records {
    /// Newline-terminated lines. An unterminated line waits in the tail,
    /// which may hold at most `max_tail` bytes, and counts at the end.
    Lines { max_tail: Option<usize> },
    /// Every `n`-byte window, overlapping; the last `n − 1` bytes wait in
    /// the tail, which therefore never holds a whole record.
    Windows(usize),
}

impl Records {
    fn tail_cap(self) -> Option<usize> {
        match self {
            Records::Lines { max_tail } => max_tail,
            Records::Windows(n) => Some(n - 1),
        }
    }

    /// Calls `each` on every complete record in `data`; returns the offset
    /// where the tail starts.
    fn split(self, data: &[u8], mut each: impl FnMut(&[u8])) -> usize {
        match self {
            Records::Lines { .. } => {
                let mut start = 0;
                for (i, &b) in data.iter().enumerate() {
                    if b == b'\n' {
                        each(&data[start..i]);
                        start = i + 1;
                    }
                }
                start
            }
            Records::Windows(n) => {
                data.windows(n).for_each(each);
                data.len().saturating_sub(n - 1)
            }
        }
    }
}

/// What a streaming program supplies.
pub(crate) trait Streaming: TaskProgram + Clone + 'static {
    /// How record values, and then partials, combine: `u64::wrapping_add`
    /// or `u64::max`.
    const MERGE: fn(u64, u64) -> u64;

    /// The record framing, and with it the tail cap.
    fn records(&self) -> Records;

    /// One record's value.
    fn value(&self, record: &[u8]) -> u64;
}

/// Parses a line holding one decimal integer, surrounding blanks allowed.
pub(crate) fn parse_u64(line: &[u8]) -> Option<u64> {
    std::str::from_utf8(line).ok()?.trim().parse().ok()
}

struct State<P> {
    program: P,
    acc: u64,
    tail: Vec<u8>,
}

pub(crate) fn new_state<P: Streaming>(program: &P) -> Box<dyn TaskState> {
    Box::new(State {
        program: program.clone(),
        acc: 0,
        tail: Vec::new(),
    })
}

pub(crate) fn restore_state<P: Streaming>(
    program: &P,
    checkpoint: &[u8],
) -> CwcResult<Box<dyn TaskState>> {
    let (acc, tail) = codec::decode_u64_tail(checkpoint)?;
    let state = State {
        program: program.clone(),
        acc,
        tail,
    };
    state.check_tail()?;
    Ok(Box::new(state))
}

pub(crate) fn aggregate<P: Streaming>(_: &P, partials: &[Vec<u8>]) -> CwcResult<Vec<u8>> {
    codec::fold_partials(partials, P::MERGE)
}

impl<P: Streaming> State<P> {
    /// The one tail-cap check, for chunks and peers' checkpoints alike.
    fn check_tail(&self) -> CwcResult<()> {
        match self.program.records().tail_cap() {
            Some(cap) if self.tail.len() > cap => Err(CwcError::Migration(format!(
                "{}: straddled tail of {} bytes exceeds the {cap}-byte cap",
                self.program.name(),
                self.tail.len()
            ))),
            _ => Ok(()),
        }
    }
}

impl<P: Streaming> TaskState for State<P> {
    fn process_chunk(&mut self, chunk: &[u8]) -> CwcResult<()> {
        let mut data = std::mem::take(&mut self.tail);
        data.extend_from_slice(chunk);
        let (program, acc) = (&self.program, &mut self.acc);
        let tail = program.records().split(&data, |record| {
            *acc = (P::MERGE)(*acc, program.value(record));
        });
        self.tail = data[tail..].to_vec();
        self.check_tail()
    }

    fn checkpoint(&self) -> Vec<u8> {
        codec::encode_u64_tail(self.acc, &self.tail)
    }

    fn partial_result(&self) -> Vec<u8> {
        // A trailing line need not end in a newline; a window tail holds
        // no whole record.
        let mut acc = self.acc;
        if matches!(self.program.records(), Records::Lines { .. }) && !self.tail.is_empty() {
            acc = (P::MERGE)(acc, self.program.value(&self.tail));
        }
        acc.to_be_bytes().to_vec()
    }
}
