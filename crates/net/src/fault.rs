//! Transport-level fault hooks.
//!
//! Both ends of a live connection — the worker's [`crate::tcp::FramedTcp`]
//! and the coordinator's write queue over [`crate::reactor::Conn`] — accept
//! an optional [`WireFault`]: a pluggable interceptor that sees every
//! encoded outbound frame and decides what *actually* reaches the socket. `cwc-chaos` implements this trait with a
//! deterministic, seed-driven fault plan; production code leaves the hook
//! empty, in which case the send path is exactly the unhooked write.
//!
//! The verdict vocabulary covers the wire-level half of the failure
//! taxonomy the CWC testbed would see (§6 of the paper): lost frames,
//! duplicated frames, delayed delivery, bit corruption, partial writes and
//! connection resets, and transient send failures (the input to the
//! server's retry-with-backoff policy).

use std::time::Duration;

/// One step of what goes onto the wire for a single logical send.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Write these bytes (possibly mutated, duplicated, or reordered).
    Write(Vec<u8>),
    /// Sleep before the next op — delayed delivery / slow-loris pacing.
    Sleep(Duration),
}

/// What a [`WireFault`] decided about one outbound frame.
#[derive(Debug, Clone, PartialEq)]
pub enum SendVerdict {
    /// Apply the ops in order. An empty list drops the frame silently —
    /// the caller believes the send succeeded.
    Deliver(Vec<WireOp>),
    /// Fail this send with a *transient* transport error; the connection
    /// stays up and a retry may succeed.
    Fail(String),
    /// Write these bytes (typically a truncated prefix of the frame), then
    /// hard-reset the connection.
    ResetAfter(Vec<u8>),
}

impl SendVerdict {
    /// The no-fault verdict: deliver the frame unchanged.
    pub fn clean(encoded: &[u8]) -> Self {
        SendVerdict::Deliver(vec![WireOp::Write(encoded.to_vec())])
    }
}

/// Byte-level interception of outbound frame writes.
///
/// Implementations must be deterministic given their own seeded state —
/// the chaos soak tests replay identical fault sequences from a seed.
pub trait WireFault: Send {
    /// Decides the fate of one encoded frame (`length + crc + body` bytes).
    fn on_send(&mut self, encoded: &[u8]) -> SendVerdict;
}

/// A [`WireFault`] from a plain closure — convenient in tests.
impl<F> WireFault for F
where
    F: FnMut(&[u8]) -> SendVerdict + Send,
{
    fn on_send(&mut self, encoded: &[u8]) -> SendVerdict {
        self(encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_verdict_is_identity() {
        let v = SendVerdict::clean(b"abc");
        assert_eq!(
            v,
            SendVerdict::Deliver(vec![WireOp::Write(b"abc".to_vec())])
        );
    }

    #[test]
    fn closures_are_wire_faults() {
        let mut drop_all = |_: &[u8]| SendVerdict::Deliver(vec![]);
        assert_eq!(
            WireFault::on_send(&mut drop_all, b"x"),
            SendVerdict::Deliver(vec![])
        );
    }
}
