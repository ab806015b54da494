//! Task programs, execution state, and the dynamic registry.
//!
//! In the prototype, a developer writes a plain Java `Task` class (Fig. 8),
//! the server compiles and packages it into a `.jar`, ships it, and the
//! phone loads it at runtime with the reflection API (Fig. 9) inside an
//! Android service — no human in the loop. The Rust analogue:
//!
//! * [`TaskProgram`] — the "class": knows how to create fresh execution
//!   state, restore state from a migration checkpoint, and aggregate
//!   partial results at the server (the logical merge step of §4).
//! * [`TaskState`] — the "object": consumes input chunk by chunk,
//!   checkpoints itself into bytes (the JavaGO `undock` analogue), and
//!   produces a partial result.
//! * [`TaskRegistry`] — the class loader: maps the program name shipped in
//!   a [`ShipExecutable`](cwc_net::Frame::ShipExecutable) frame to an
//!   implementation; a missing entry is the `ClassNotFoundException` of
//!   this world.
//!
//! The chunk-oriented interface is what makes migration *cheap*: after any
//! chunk boundary the state is a complete, serializable description of the
//! computation so far, so an unplugged phone loses at most one chunk of
//! work.

use cwc_types::{CwcError, CwcResult};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A runnable CWC task program (the shipped "executable").
pub trait TaskProgram: Send + Sync {
    /// Registry name (what [`cwc_net::Frame::ShipExecutable`] carries).
    fn name(&self) -> &str;

    /// Profiled execution cost on the baseline (806 MHz) phone, in ms per
    /// KB of input — `T_s` from §4.1. Used to seed the scheduler's
    /// prediction; the real execution below is what actually runs.
    fn baseline_ms_per_kb(&self) -> f64;

    /// Fresh state for processing a partition from its beginning.
    fn new_state(&self) -> Box<dyn TaskState>;

    /// Restores state from a checkpoint taken on another phone
    /// (migration). Must be the exact inverse of
    /// [`TaskState::checkpoint`].
    fn restore_state(&self, checkpoint: &[u8]) -> CwcResult<Box<dyn TaskState>>;

    /// Server-side logical aggregation of partial results (§4's "the
    /// server can simply sum the occurrences reported by each phone").
    fn aggregate(&self, partials: &[Vec<u8>]) -> CwcResult<Vec<u8>>;
}

/// Mutable execution state of one task over one input partition.
pub trait TaskState: Send {
    /// Consumes the next input chunk.
    fn process_chunk(&mut self, chunk: &[u8]) -> CwcResult<()>;

    /// Serializes the full computation state (JavaGO `undock`).
    fn checkpoint(&self) -> Vec<u8>;

    /// Produces the partial result to report to the server.
    fn partial_result(&self) -> Vec<u8>;
}

/// The device-side program registry — the reflection class loader
/// analogue.
///
/// ```
/// use cwc_device::TaskRegistry;
/// use cwc_types::CwcError;
///
/// let registry = TaskRegistry::new();
/// // Loading an unshipped program is the ClassNotFoundException analogue.
/// assert!(matches!(
///     registry.load("mystery"),
///     Err(CwcError::UnknownProgram(_))
/// ));
/// ```
#[derive(Clone, Default)]
pub struct TaskRegistry {
    programs: BTreeMap<String, Arc<dyn TaskProgram>>,
}

impl fmt::Debug for TaskRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.programs.keys().map(String::as_str).collect();
        f.debug_struct("TaskRegistry")
            .field("programs", &names)
            .finish()
    }
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a program. Re-registering a name replaces the old program
    /// (shipping a newer executable version).
    pub fn register(&mut self, program: Arc<dyn TaskProgram>) {
        self.programs.insert(program.name().to_owned(), program);
    }

    /// Looks a program up by name — the dynamic load step.
    pub fn load(&self, name: &str) -> CwcResult<Arc<dyn TaskProgram>> {
        self.programs
            .get(name)
            .cloned()
            .ok_or_else(|| CwcError::UnknownProgram(name.to_owned()))
    }

    /// Whether `name` is installed.
    pub fn contains(&self, name: &str) -> bool {
        self.programs.contains_key(name)
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.programs.keys().cloned().collect()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A minimal deterministic program used by executor tests: sums all
    //! input bytes; the state is the running sum.

    use super::*;

    pub struct ByteSum;

    pub struct ByteSumState {
        pub sum: u64,
    }

    impl TaskProgram for ByteSum {
        fn name(&self) -> &str {
            "bytesum"
        }

        fn baseline_ms_per_kb(&self) -> f64 {
            2.0
        }

        fn new_state(&self) -> Box<dyn TaskState> {
            Box::new(ByteSumState { sum: 0 })
        }

        fn restore_state(&self, checkpoint: &[u8]) -> CwcResult<Box<dyn TaskState>> {
            let bytes: [u8; 8] = checkpoint
                .try_into()
                .map_err(|_| CwcError::Migration("bad bytesum checkpoint".into()))?;
            Ok(Box::new(ByteSumState {
                sum: u64::from_be_bytes(bytes),
            }))
        }

        fn aggregate(&self, partials: &[Vec<u8>]) -> CwcResult<Vec<u8>> {
            let mut total = 0u64;
            for p in partials {
                let bytes: [u8; 8] = p
                    .as_slice()
                    .try_into()
                    .map_err(|_| CwcError::Migration("bad bytesum partial".into()))?;
                total += u64::from_be_bytes(bytes);
            }
            Ok(total.to_be_bytes().to_vec())
        }
    }

    impl TaskState for ByteSumState {
        fn process_chunk(&mut self, chunk: &[u8]) -> CwcResult<()> {
            self.sum += chunk.iter().map(|&b| u64::from(b)).sum::<u64>();
            Ok(())
        }

        fn checkpoint(&self) -> Vec<u8> {
            self.sum.to_be_bytes().to_vec()
        }

        fn partial_result(&self) -> Vec<u8> {
            self.checkpoint()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::ByteSum;
    use super::*;

    #[test]
    fn registry_loads_registered_program() {
        let mut reg = TaskRegistry::new();
        reg.register(Arc::new(ByteSum));
        assert!(reg.contains("bytesum"));
        let p = reg.load("bytesum").unwrap();
        assert_eq!(p.name(), "bytesum");
    }

    #[test]
    fn missing_program_is_unknown_program_error() {
        let reg = TaskRegistry::new();
        match reg.load("nope") {
            Err(CwcError::UnknownProgram(name)) => assert_eq!(name, "nope"),
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("expected UnknownProgram error"),
        }
    }

    #[test]
    fn reregistering_replaces() {
        let mut reg = TaskRegistry::new();
        reg.register(Arc::new(ByteSum));
        reg.register(Arc::new(ByteSum));
        assert_eq!(reg.names(), vec!["bytesum".to_owned()]);
    }

    #[test]
    fn state_checkpoint_round_trip() {
        let p = ByteSum;
        let mut s = p.new_state();
        s.process_chunk(&[1, 2, 3]).unwrap();
        let ck = s.checkpoint();
        let restored = p.restore_state(&ck).unwrap();
        assert_eq!(restored.partial_result(), s.partial_result());
    }

    #[test]
    fn restore_rejects_garbage() {
        let p = ByteSum;
        assert!(p.restore_state(&[1, 2, 3]).is_err());
    }

    #[test]
    fn aggregate_sums_partials() {
        let p = ByteSum;
        let a = 10u64.to_be_bytes().to_vec();
        let b = 32u64.to_be_bytes().to_vec();
        let total = p.aggregate(&[a, b]).unwrap();
        assert_eq!(total, 42u64.to_be_bytes().to_vec());
    }

    #[test]
    fn debug_lists_programs() {
        let mut reg = TaskRegistry::new();
        reg.register(Arc::new(ByteSum));
        assert!(format!("{reg:?}").contains("bytesum"));
    }
}
