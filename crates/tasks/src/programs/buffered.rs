//! The buffered state shape, shared by the two atomic programs: the state
//! is the whole input so far, and the partial is the program's transform
//! of it. The checkpoint is the raw buffer; an input that does not decode
//! yields an empty partial, which the server treats as a task-level
//! failure; `aggregate` passes exactly one partial through.

use cwc_device::{TaskProgram, TaskState};
use cwc_types::{CwcError, CwcResult};

/// What a buffered program supplies.
pub(crate) trait Buffered: TaskProgram {
    /// The whole-input transform.
    fn transform(input: &[u8]) -> CwcResult<Vec<u8>>;
}

struct State {
    buffer: Vec<u8>,
    transform: fn(&[u8]) -> CwcResult<Vec<u8>>,
}

pub(crate) fn new_state<P: Buffered>(_: &P) -> Box<dyn TaskState> {
    Box::new(State {
        buffer: Vec::new(),
        transform: P::transform,
    })
}

pub(crate) fn restore_state<P: Buffered>(
    _: &P,
    checkpoint: &[u8],
) -> CwcResult<Box<dyn TaskState>> {
    Ok(Box::new(State {
        buffer: checkpoint.to_vec(),
        transform: P::transform,
    }))
}

pub(crate) fn aggregate<P: Buffered>(program: &P, partials: &[Vec<u8>]) -> CwcResult<Vec<u8>> {
    match partials {
        [single] => Ok(single.clone()),
        _ => Err(CwcError::Migration(format!(
            "{} is atomic: expected exactly 1 partial, got {}",
            program.name(),
            partials.len()
        ))),
    }
}

impl TaskState for State {
    fn process_chunk(&mut self, chunk: &[u8]) -> CwcResult<()> {
        self.buffer.extend_from_slice(chunk);
        Ok(())
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.buffer.clone()
    }

    fn partial_result(&self) -> Vec<u8> {
        (self.transform)(&self.buffer).unwrap_or_default()
    }
}
