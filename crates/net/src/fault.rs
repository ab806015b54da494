//! Transport-level fault hooks.
//!
//! Both ends of a live connection — the worker's [`crate::tcp::FramedTcp`]
//! and the coordinator's write queue over [`crate::reactor::Conn`] — accept
//! an optional [`WireFault`]: a pluggable interceptor that sees every
//! encoded outbound frame and decides what *actually* reaches the socket. `cwc-chaos` implements this trait with a
//! deterministic, seed-driven fault plan; production code leaves the hook
//! empty, in which case the send path is exactly the unhooked write.
//!
//! The op vocabulary covers the wire-level half of the failure taxonomy
//! the CWC testbed would see (§6 of the paper): lost frames, duplicated
//! frames, delayed delivery, bit corruption, partial writes and
//! connection resets. A reset is a lost connection, which the server
//! handles as a phone failure; nothing on the send path is retried.

use std::time::Duration;

/// One step of what goes onto the wire for a single logical send.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Write these bytes (possibly mutated or duplicated).
    Write(Vec<u8>),
    /// Sleep before the next op — delayed delivery / slow-loris pacing.
    Sleep(Duration),
    /// Hard-reset the connection after the ops before it. Terminal: the
    /// send fails, and nothing after it reaches the wire.
    Reset,
}

/// Byte-level interception of outbound frame writes.
///
/// Implementations must be deterministic given their own seeded state —
/// the chaos soak tests replay identical fault sequences from a seed.
pub trait WireFault: Send {
    /// Decides the fate of one encoded frame (`length + crc + body`
    /// bytes): the ops to apply in order. An empty list drops the frame
    /// silently — the caller believes the send succeeded.
    fn on_send(&mut self, encoded: &[u8]) -> Vec<WireOp>;
}

/// A [`WireFault`] from a plain closure — convenient in tests.
impl<F> WireFault for F
where
    F: FnMut(&[u8]) -> Vec<WireOp> + Send,
{
    fn on_send(&mut self, encoded: &[u8]) -> Vec<WireOp> {
        self(encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_wire_faults() {
        let mut drop_all = |_: &[u8]| Vec::new();
        assert_eq!(WireFault::on_send(&mut drop_all, b"x"), vec![]);
    }
}
