//! Job descriptors — the scheduler-facing view of a task.

use crate::{JobId, KiloBytes};
use std::fmt;

/// Whether a job's input can be split across phones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// A *breakable* task: the input exhibits no cross-partition
    /// dependencies, so any split of the input can be processed in parallel
    /// and the partial results logically aggregated at the server
    /// (word count, prime count, log scan — the MapReduce-style class).
    Breakable,
    /// An *atomic* task: dependencies within the input (e.g. a photo blur,
    /// where each output pixel reads its neighbours) force the whole input
    /// onto a single phone. Batches of atomic tasks still run concurrently,
    /// one task per phone.
    Atomic,
}

impl JobKind {
    /// True for [`JobKind::Atomic`].
    #[inline]
    pub const fn is_atomic(self) -> bool {
        matches!(self, JobKind::Atomic)
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobKind::Breakable => write!(f, "breakable"),
            JobKind::Atomic => write!(f, "atomic"),
        }
    }
}

/// The service-level objective a job is admitted under.
///
/// The paper schedules for pure makespan; the proactive-reliability
/// extension (DESIGN.md §12) lets callers attach a per-job objective that
/// the coordinator kernel orders work by: `Deadline` jobs are placed and
/// shipped ahead of `BestEffort` jobs, and the kernel records
/// `slo.deadline.met` / `slo.deadline.missed` against the run clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// The job should complete within this many milliseconds of run
    /// start. Deadline jobs are admitted first (earliest deadline first)
    /// at every scheduling instant.
    Deadline(u64),
    /// No deadline: the job yields to deadline-class work and is the
    /// first to be preempted into the residual requeue under pressure.
    BestEffort,
}

impl SloClass {
    /// Total order used for admission: deadline-class first (earliest
    /// deadline first), best-effort last. `None` (no declared SLO) ranks
    /// with [`SloClass::BestEffort`].
    pub fn rank(slo: Option<SloClass>) -> (u8, u64) {
        match slo {
            Some(SloClass::Deadline(ms)) => (0, ms),
            Some(SloClass::BestEffort) | None => (1, u64::MAX),
        }
    }
}

impl fmt::Display for SloClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloClass::Deadline(ms) => write!(f, "deadline({ms}ms)"),
            SloClass::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// The scheduler-facing description of one job.
///
/// In the paper's notation: `E_j` = [`JobSpec::exe_kb`],
/// `L_j` = [`JobSpec::input_kb`]. The `program` name selects which
/// executable the server ships (and which [`TaskProgram`] the device-side
/// registry instantiates — the analogue of the `.jar` the prototype ships
/// over the wire and loads via Java reflection).
///
/// [`TaskProgram`]: https://docs.rs/cwc-device
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique job identifier.
    pub id: JobId,
    /// Breakable or atomic.
    pub kind: JobKind,
    /// Name of the program (executable) that processes this job's input.
    pub program: String,
    /// Size of the executable shipped to a phone before its first partition
    /// of this job (`E_j`).
    pub exe_kb: KiloBytes,
    /// Total input size to be processed (`L_j`).
    pub input_kb: KiloBytes,
}

impl JobSpec {
    /// Creates a breakable job.
    pub fn breakable(
        id: JobId,
        program: impl Into<String>,
        exe_kb: KiloBytes,
        input_kb: KiloBytes,
    ) -> Self {
        JobSpec {
            id,
            kind: JobKind::Breakable,
            program: program.into(),
            exe_kb,
            input_kb,
        }
    }

    /// Creates an atomic job.
    pub fn atomic(
        id: JobId,
        program: impl Into<String>,
        exe_kb: KiloBytes,
        input_kb: KiloBytes,
    ) -> Self {
        JobSpec {
            id,
            kind: JobKind::Atomic,
            program: program.into(),
            exe_kb,
            input_kb,
        }
    }

    /// Validates internal consistency (non-empty program, non-zero input).
    pub fn validate(&self) -> Result<(), crate::CwcError> {
        if self.program.is_empty() {
            return Err(crate::CwcError::InvalidJob {
                job: self.id,
                reason: "empty program name".into(),
            });
        }
        if self.input_kb.is_zero() {
            return Err(crate::CwcError::InvalidJob {
                job: self.id,
                reason: "zero-size input".into(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {} exe={} input={}]",
            self.id, self.kind, self.program, self.exe_kb, self.input_kb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::breakable(JobId(1), "wordcount", KiloBytes(30), KiloBytes(2_000))
    }

    #[test]
    fn constructors_set_kind() {
        assert_eq!(spec().kind, JobKind::Breakable);
        let a = JobSpec::atomic(JobId(2), "blur", KiloBytes(40), KiloBytes(512));
        assert_eq!(a.kind, JobKind::Atomic);
        assert!(a.kind.is_atomic());
        assert!(!spec().kind.is_atomic());
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty_program() {
        let mut s = spec();
        s.program.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_input() {
        let mut s = spec();
        s.input_kb = KiloBytes::ZERO;
        assert!(s.validate().is_err());
    }

    #[test]
    fn display_mentions_parts() {
        let text = spec().to_string();
        assert!(text.contains("job-1"));
        assert!(text.contains("breakable"));
        assert!(text.contains("wordcount"));
    }

    #[test]
    fn slo_rank_orders_deadline_first() {
        assert!(SloClass::rank(Some(SloClass::Deadline(500))) < SloClass::rank(None));
        assert!(
            SloClass::rank(Some(SloClass::Deadline(100)))
                < SloClass::rank(Some(SloClass::Deadline(200)))
        );
        assert_eq!(
            SloClass::rank(Some(SloClass::BestEffort)),
            SloClass::rank(None)
        );
    }

    #[test]
    fn slo_display() {
        assert_eq!(SloClass::Deadline(1500).to_string(), "deadline(1500ms)");
        assert_eq!(SloClass::BestEffort.to_string(), "best-effort");
    }
}
