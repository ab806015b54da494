//! The worker's client transport: blocking framed TCP.
//!
//! The paper's prototype keeps a persistent TCP connection per phone
//! (Java NIO on the server, `SO_KEEPALIVE` plus application-layer
//! keep-alives). A phone holds exactly one such connection, so its end is
//! a plain blocking socket: one [`FramedTcp`] per worker, blocking sends,
//! and receives with an optional timeout so a worker pacing a slow task
//! can still answer keep-alives. The coordinator's end of the same
//! connection is [`crate::reactor::Conn`]; nothing on the server side
//! uses this type.
//!
//! `std::net` does not expose `SO_KEEPALIVE` portably; CWC's own
//! application-layer keep-alives ([`crate::protocol::KEEPALIVE_PERIOD`])
//! are the load-bearing liveness mechanism anyway — exactly as in the
//! paper, where they double as the offline-failure detector.

use crate::fault::{WireFault, WireOp};
use crate::protocol::{Frame, FrameCodec, MAX_READ};
use bytes::BytesMut;
use cwc_types::{CwcError, CwcResult};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A frame-oriented wrapper over a blocking [`TcpStream`].
pub struct FramedTcp {
    stream: TcpStream,
    codec: FrameCodec,
    fault: Option<Box<dyn WireFault>>,
}

impl std::fmt::Debug for FramedTcp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedTcp")
            .field("stream", &self.stream)
            .field("buffered", &self.codec.buffered())
            .field("fault", &self.fault.is_some())
            .finish()
    }
}

impl FramedTcp {
    /// Connects to a listening CWC endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> CwcResult<Self> {
        let stream =
            TcpStream::connect(addr).map_err(|e| CwcError::Transport(format!("connect: {e}")))?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> CwcResult<Self> {
        // Frames are small and latency-sensitive (keep-alives, completion
        // reports); Nagle would add nothing but delay.
        stream
            .set_nodelay(true)
            .map_err(|e| CwcError::Transport(format!("set_nodelay: {e}")))?;
        Ok(FramedTcp {
            stream,
            codec: FrameCodec::new(),
            fault: None,
        })
    }

    /// Installs (or clears) a fault-injection hook on the send path. With a
    /// hook installed, every outbound frame is routed through
    /// [`WireFault::on_send`] and the ops it returns decide what hits the
    /// socket.
    pub fn set_fault(&mut self, fault: Option<Box<dyn WireFault>>) {
        self.fault = fault;
    }

    /// Sends one frame, blocking until fully written.
    ///
    /// With a [`WireFault`] installed the frame may instead be dropped,
    /// duplicated, mutated, delayed, partially written, or cut short by a
    /// connection reset — that's the fault-injection surface the chaos
    /// harness drives.
    // An injected delay blocks this worker-side send, as a slow link would.
    #[allow(clippy::disallowed_methods)]
    pub fn send(&mut self, frame: &Frame) -> CwcResult<()> {
        let mut buf = BytesMut::with_capacity(64);
        frame.encode(&mut buf);
        let Some(fault) = self.fault.as_mut() else {
            return self
                .stream
                .write_all(&buf)
                .map_err(|e| CwcError::Transport(format!("send: {e}")));
        };
        for op in fault.on_send(&buf) {
            match op {
                WireOp::Write(bytes) => self
                    .stream
                    .write_all(&bytes)
                    .map_err(|e| CwcError::Transport(format!("send: {e}")))?,
                WireOp::Sleep(d) => std::thread::sleep(d),
                WireOp::Reset => {
                    // Tearing down the socket IS the scenario under test;
                    // the injected error below is the only one reported.
                    #[allow(clippy::unused_result_ok)]
                    self.stream.shutdown(std::net::Shutdown::Both).ok();
                    return Err(CwcError::Transport("injected connection reset".into()));
                }
            }
        }
        Ok(())
    }

    /// Receives the next frame, blocking indefinitely.
    pub fn recv(&mut self) -> CwcResult<Frame> {
        self.stream
            .set_read_timeout(None)
            .map_err(|e| CwcError::Transport(format!("set_read_timeout: {e}")))?;
        loop {
            if let Some(frame) = self.codec.next_frame()? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }

    /// Receives the next frame, waiting at most `timeout`.
    ///
    /// Returns `Ok(None)` on timeout. A closed connection is an error —
    /// for CWC a vanished phone is a failure event, never business as
    /// usual.
    pub fn recv_timeout(&mut self, timeout: Duration) -> CwcResult<Option<Frame>> {
        if let Some(frame) = self.codec.next_frame()? {
            return Ok(Some(frame));
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| CwcError::Transport(format!("set_read_timeout: {e}")))?;
        match self.fill() {
            Ok(()) => self.codec.next_frame(),
            Err(CwcError::Transport(msg)) if msg == "timeout" => Ok(None),
            Err(other) => Err(other),
        }
    }

    /// Reads at least one byte into the codec.
    fn fill(&mut self) -> CwcResult<()> {
        match self.codec.read_from(&mut self.stream, MAX_READ) {
            Ok(0) => Err(CwcError::Transport("connection closed by peer".into())),
            Ok(_) => Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Err(CwcError::Transport("timeout".into()))
            }
            Err(e) => Err(CwcError::Transport(format!("read: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cwc_types::JobId;
    use std::net::TcpListener;
    use std::thread;

    #[allow(clippy::disallowed_methods)]
    fn pair() -> (FramedTcp, FramedTcp) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            FramedTcp::from_stream(stream).unwrap()
        });
        let client = FramedTcp::connect(addr).unwrap();
        let server = join.join().unwrap();
        (client, server)
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut client, mut server) = pair();
        client.send(&Frame::KeepAlive { seq: 1 }).unwrap();
        client
            .send(&Frame::TaskComplete {
                job: JobId(4),
                seq: 1,
                exec_ms: 250,
                result: Bytes::from_static(b"partial"),
            })
            .unwrap();
        assert_eq!(server.recv().unwrap(), Frame::KeepAlive { seq: 1 });
        match server.recv().unwrap() {
            Frame::TaskComplete {
                job,
                exec_ms,
                result,
                ..
            } => {
                assert_eq!(job, JobId(4));
                assert_eq!(exec_ms, 250);
                assert_eq!(&result[..], b"partial");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn injected_drop_swallows_the_frame() {
        let (mut client, mut server) = pair();
        client.set_fault(Some(Box::new(|_: &[u8]| Vec::new())));
        client.send(&Frame::Plugged).unwrap(); // "succeeds", delivers nothing
        client.set_fault(None);
        client.send(&Frame::Unplugged).unwrap();
        assert_eq!(server.recv().unwrap(), Frame::Unplugged);
    }

    #[test]
    fn injected_reset_tears_the_connection_down() {
        let (mut client, mut server) = pair();
        client.set_fault(Some(Box::new(|encoded: &[u8]| {
            vec![WireOp::Write(encoded[..3].to_vec()), WireOp::Reset]
        })));
        let err = client.send(&Frame::Plugged).unwrap_err();
        assert!(err.to_string().contains("injected connection reset"));
        // The server sees a truncated stream then EOF: an error, no frame.
        assert!(server.recv().is_err());
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let (_client, mut server) = pair();
        let got = server.recv_timeout(Duration::from_millis(50)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_timeout_returns_frame_when_available() {
        let (mut client, mut server) = pair();
        client.send(&Frame::Plugged).unwrap();
        // Allow the kernel to deliver.
        let mut got = None;
        for _ in 0..100 {
            if let Some(f) = server.recv_timeout(Duration::from_millis(20)).unwrap() {
                got = Some(f);
                break;
            }
        }
        assert_eq!(got, Some(Frame::Plugged));
    }

    #[test]
    fn closed_peer_is_an_error() {
        let (client, mut server) = pair();
        drop(client);
        let err = server.recv();
        assert!(err.is_err(), "expected error, got {err:?}");
    }

    #[test]
    fn bidirectional_exchange() {
        let (mut client, mut server) = pair();
        client
            .send(&Frame::Register {
                phone: cwc_types::PhoneId(1),
                clock_mhz: 1200,
                cores: 2,
                radio: cwc_types::RadioTech::FourG,
                ram_kb: 1 << 20,
            })
            .unwrap();
        match server.recv().unwrap() {
            Frame::Register { phone, .. } => assert_eq!(phone, cwc_types::PhoneId(1)),
            other => panic!("unexpected {other:?}"),
        }
        server
            .send(&Frame::RegisterAck { server_time_us: 7 })
            .unwrap();
        assert_eq!(
            client.recv().unwrap(),
            Frame::RegisterAck { server_time_us: 7 }
        );
    }
}
