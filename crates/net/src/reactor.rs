//! Readiness-based event-loop substrate: a dependency-light epoll wrapper,
//! non-blocking framed connections, and a deadline-ordered timer wheel.
//!
//! A blocking socket per phone ([`crate::tcp::FramedTcp`], the worker's
//! client transport) would cap the coordinator's fleet at OS-thread scale —
//! one parked thread per phone. This module is the coordinator's
//! single-threaded transport (DESIGN.md §14): a [`Poller`] multiplexes
//! readiness for thousands of sockets from one thread, each connection is a
//! [`Conn`] holding the streaming [`crate::protocol::FrameCodec`] plus an
//! ordered outbound write queue with explicit backpressure accounting, and a
//! [`TimerWheel`] keeps every deadline (keep-alives, stalls, paced writes) in
//! one deterministic earliest-first order.
//!
//! Division of labour: this module owns *readiness and buffering only*. It
//! never reads a clock, never sleeps, and never spawns — time enters as
//! explicit [`Micros`]/[`Duration`] arguments, and pacing is expressed as
//! [`Conn::queue_pause`] markers that the caller converts into wheel timers.
//! That keeps the reactor testable at the same sans-IO standard as the
//! coordinator kernel: clippy denies wall-clock types here (the socket
//! items re-allow `disallowed_types` one by one) and thread spawns and
//! sleeps everywhere (DESIGN.md §8).
//!
//! The syscall surface is deliberately tiny — `epoll_create1` / `epoll_ctl` /
//! `epoll_wait` / `close`, declared directly against the C library the Rust
//! standard library already links (no new dependency). Level-triggered mode
//! is used throughout: a socket with unread bytes or writable space keeps
//! reporting ready, so a capped drain per tick (bounding worst-case loop
//! latency) never loses an edge. The shim is Linux-only; other platforms
//! would add a kqueue/poll variant behind the same [`Poller`] API.

#![deny(clippy::disallowed_types)]

use crate::protocol::{Frame, FrameCodec, MAX_READ};
use cwc_types::{CwcError, CwcResult, Micros};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Write};
// The reactor owns its sockets; only the clocks are denied here.
#[allow(clippy::disallowed_types)]
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The raw syscall shim. All `unsafe` in the reactor lives inside this
/// module: four libc entry points and two structs with the kernel's ABI.
/// Everything above it is safe Rust.
#[allow(unsafe_code)]
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event` — packed only on x86-64, exactly as the kernel
    /// uapi (and libc) define it: other architectures use natural alignment,
    /// so a 12-byte packed stride there would corrupt the `epoll_wait` buffer.
    /// Fields are read by value only, never by reference.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const RLIMIT_NOFILE: c_int = 7;

    /// `struct rlimit` on 64-bit Linux.
    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    pub fn create() -> std::io::Result<c_int> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `ev` outlives the call; a null event is only passed for
        // DEL, where the kernel ignores it.
        if unsafe { epoll_ctl(epfd, op, fd, ptr) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(epfd: c_int, buf: &mut [EpollEvent], timeout_ms: c_int) -> std::io::Result<usize> {
        let cap = c_int::try_from(buf.len()).unwrap_or(c_int::MAX).max(1);
        // SAFETY: the buffer pointer and capacity describe `buf` exactly; the
        // kernel writes at most `cap` entries.
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), cap, timeout_ms) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    pub fn close_fd(fd: c_int) {
        // SAFETY: callers pass an fd they own exactly once (Poller::drop).
        let _ = unsafe { close(fd) }; // a failed close leaves nothing to undo
    }

    pub fn nofile_limits() -> std::io::Result<(u64, u64)> {
        let mut rl = Rlimit { cur: 0, max: 0 };
        // SAFETY: `rl` outlives the call and matches the C struct layout.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut rl as *mut Rlimit) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok((rl.cur, rl.max))
    }

    pub fn set_nofile_soft(cur: u64, max: u64) -> std::io::Result<()> {
        let rl = Rlimit { cur, max };
        // SAFETY: `rl` outlives the call and matches the C struct layout.
        if unsafe { setrlimit(RLIMIT_NOFILE, &rl as *const Rlimit) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
compile_error!(
    "cwc-net's reactor currently ships only the Linux epoll shim; \
     add a kqueue/poll variant in reactor::sys for this platform"
);

/// Retries `op` for as long as it fails with `EINTR` — the signal-interrupted
/// syscall case every readiness loop must absorb rather than surface.
pub fn retry_eintr<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Which readiness classes a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes (or a pending accept) to read.
    pub readable: bool,
    /// Wake when the fd has socket-buffer space to write into.
    pub writable: bool,
}

impl Interest {
    /// Read-readiness only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read plus write readiness — while a write queue has pending bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn flags(self) -> u32 {
        let mut f = sys::EPOLLRDHUP;
        if self.readable {
            f |= sys::EPOLLIN;
        }
        if self.writable {
            f |= sys::EPOLLOUT;
        }
        f
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The caller-chosen registration token.
    pub token: u64,
    /// The fd is readable (data, pending accept, or EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up or the socket errored; a read will surface the
    /// specific condition.
    pub hangup: bool,
}

/// Default number of readiness events drained per [`Poller::wait`] call.
const WAIT_BATCH: usize = 1024;

/// A level-triggered epoll instance: register fds with a token, wait for
/// readiness. One `Poller` serves an entire fleet from one thread.
pub struct Poller {
    fd: std::os::raw::c_int,
    buf: Vec<sys::EpollEvent>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("fd", &self.fd).finish()
    }
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> CwcResult<Self> {
        let fd = sys::create().map_err(|e| CwcError::Transport(format!("epoll_create1: {e}")))?;
        Ok(Poller {
            fd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; WAIT_BATCH],
        })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> CwcResult<()> {
        sys::ctl(self.fd, sys::EPOLL_CTL_ADD, fd, interest.flags(), token)
            .map_err(|e| CwcError::Transport(format!("epoll_ctl(add): {e}")))
    }

    /// Changes the interest set of an already-registered fd.
    pub fn reregister(&self, fd: i32, token: u64, interest: Interest) -> CwcResult<()> {
        sys::ctl(self.fd, sys::EPOLL_CTL_MOD, fd, interest.flags(), token)
            .map_err(|e| CwcError::Transport(format!("epoll_ctl(mod): {e}")))
    }

    /// Removes an fd from the interest set. Harmless if the fd was already
    /// closed (the kernel auto-removes closed fds).
    pub fn deregister(&self, fd: i32) -> CwcResult<()> {
        match sys::ctl(self.fd, sys::EPOLL_CTL_DEL, fd, 0, 0) {
            Ok(()) => Ok(()),
            // ENOENT/EBADF after a close is the expected race, not a bug.
            Err(e) if matches!(e.raw_os_error(), Some(2) | Some(9)) => Ok(()),
            Err(e) => Err(CwcError::Transport(format!("epoll_ctl(del): {e}"))),
        }
    }

    /// Waits for readiness, appending up to one batch of events to `out`.
    /// `timeout` of `None` blocks indefinitely; `Some(d)` waits at most `d`
    /// (rounded up to a whole millisecond so short timeouts don't spin).
    /// `EINTR` is retried internally. Returns the number of events appended.
    pub fn wait(
        &mut self,
        out: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> CwcResult<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_micros().div_ceil(1000);
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let n = retry_eintr(|| sys::wait(self.fd, &mut self.buf, timeout_ms))
            .map_err(|e| CwcError::Transport(format!("epoll_wait: {e}")))?;
        for ev in self.buf.iter().take(n) {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Raises the process's soft open-file limit to its hard limit and returns
/// the resulting soft limit. Connection-scale benches call this first: a
/// 10k-worker fleet needs ~10k sockets per process, and default soft limits
/// (1024 on stock CI runners) are far below that.
pub fn raise_nofile_limit() -> CwcResult<u64> {
    let (cur, max) =
        sys::nofile_limits().map_err(|e| CwcError::Transport(format!("getrlimit(NOFILE): {e}")))?;
    if cur >= max {
        return Ok(cur);
    }
    sys::set_nofile_soft(max, max)
        .map_err(|e| CwcError::Transport(format!("setrlimit(NOFILE): {e}")))?;
    Ok(max)
}

/// Accepts queued connections off a non-blocking listener until it would
/// block or `max` are taken. Accepted streams are appended to `out`;
/// returns how many arrived. `EINTR` is retried; a full backlog drains in
/// one call — this is the accept-burst path of the event loop.
#[allow(clippy::disallowed_types)]
pub fn accept_burst(
    listener: &TcpListener,
    max: usize,
    out: &mut Vec<TcpStream>,
) -> CwcResult<usize> {
    let mut taken = 0usize;
    while taken < max {
        match listener.accept() {
            Ok((stream, _peer)) => {
                out.push(stream);
                taken += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(CwcError::Transport(format!("accept: {e}"))),
        }
    }
    Ok(taken)
}

/// One step of a connection's outbound queue.
enum WriteStep {
    /// Raw pre-encoded bytes (frame boundaries are irrelevant here — fault
    /// injection may split or merge them deliberately).
    Bytes(Vec<u8>),
    /// Hold the queue for this long (injected wire delay / slow-loris). The
    /// caller turns this into a timer and calls [`Conn::resume`] when it
    /// fires; the reactor itself never sleeps.
    Pause(Duration),
    /// Tear the connection down once everything before this marker is out
    /// (injected mid-frame reset).
    Close,
}

/// What [`Conn::flush`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStatus {
    /// Queue fully drained; write interest can be dropped.
    Clean,
    /// The socket buffer filled up mid-queue; keep write interest and flush
    /// again on the next writable event.
    Blocked,
    /// A pause marker was reached: arm a timer for the given duration and
    /// call [`Conn::resume`] when it fires.
    Paused(Duration),
    /// A close marker was reached (or the connection was already closed);
    /// the socket has been shut down.
    Closed,
    /// The queue is suspended by an earlier pause; nothing was written.
    Held,
}

/// What [`Conn::fill`] observed on the read side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The stream is still open (buffered frames may be pending).
    Open,
    /// The peer closed its write half; decode whatever is buffered, then
    /// treat the connection as gone.
    Eof,
}

/// A non-blocking framed connection: the streaming CRC32 codec on the read
/// side, an ordered byte/pause/close queue on the write side, and explicit
/// backpressure accounting ([`Conn::queued_bytes`]) so the driver can decide
/// when a slow peer has fallen too far behind.
#[allow(clippy::disallowed_types)]
pub struct Conn {
    stream: TcpStream,
    codec: FrameCodec,
    queue: VecDeque<WriteStep>,
    /// Byte offset already written within the queue's front `Bytes` step.
    head_written: usize,
    /// Unwritten bytes across the whole queue (pauses excluded).
    queued_bytes: usize,
    paused: bool,
    closed: bool,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("queued_bytes", &self.queued_bytes)
            .field("paused", &self.paused)
            .field("closed", &self.closed)
            .finish()
    }
}

impl Conn {
    /// Wraps an accepted or connected stream, switching it to non-blocking
    /// mode with Nagle disabled (frames are small and latency-sensitive).
    #[allow(clippy::disallowed_types)]
    pub fn from_stream(stream: TcpStream) -> CwcResult<Self> {
        stream
            .set_nonblocking(true)
            .map_err(|e| CwcError::Transport(format!("set_nonblocking: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| CwcError::Transport(format!("set_nodelay: {e}")))?;
        Ok(Conn {
            stream,
            codec: FrameCodec::new(),
            queue: VecDeque::new(),
            head_written: 0,
            queued_bytes: 0,
            paused: false,
            closed: false,
        })
    }

    /// The raw fd, for [`Poller`] registration.
    pub fn fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Appends pre-encoded bytes to the outbound queue. Call
    /// [`Conn::flush`] afterwards to start draining.
    pub fn queue_bytes(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.queued_bytes = self.queued_bytes.saturating_add(bytes.len());
        self.queue.push_back(WriteStep::Bytes(bytes));
    }

    /// Appends a pause marker: flushing stops here until [`Conn::resume`].
    pub fn queue_pause(&mut self, d: Duration) {
        self.queue.push_back(WriteStep::Pause(d));
    }

    /// Appends a close marker: the connection is torn down once everything
    /// queued before it has been written.
    pub fn queue_close(&mut self) {
        self.queue.push_back(WriteStep::Close);
    }

    /// Unwritten outbound bytes — the backpressure signal.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Unwritten bytes queued *behind* the chunk currently at the head of
    /// the queue — what a slow peer is holding hostage beyond the one
    /// frame that is legitimately in flight. A frame of any legal size
    /// always gets to drain; only what piles up after it counts.
    pub fn queued_behind_head(&self) -> usize {
        let head_rest = match self.queue.front() {
            Some(WriteStep::Bytes(buf)) => buf.len().saturating_sub(self.head_written),
            _ => 0,
        };
        self.queued_bytes.saturating_sub(head_rest)
    }

    /// Whether the connection takes no more bytes: it has been torn down
    /// (close marker reached or fatal socket error observed), or a close
    /// marker is queued — nothing queued behind one would ever be written.
    pub fn is_closed(&self) -> bool {
        self.closed || matches!(self.queue.back(), Some(WriteStep::Close))
    }

    /// Lifts the current pause; call [`Conn::flush`] next to keep draining.
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// Drains the outbound queue into the socket until it empties, the
    /// socket blocks, or a pause/close marker is reached.
    pub fn flush(&mut self) -> CwcResult<FlushStatus> {
        if self.closed {
            return Ok(FlushStatus::Closed);
        }
        if self.paused {
            return Ok(FlushStatus::Held);
        }
        loop {
            let Some(step) = self.queue.front() else {
                return Ok(FlushStatus::Clean);
            };
            match step {
                WriteStep::Bytes(buf) => {
                    while self.head_written < buf.len() {
                        let rest = buf.get(self.head_written..).unwrap_or(&[]);
                        match self.stream.write(rest) {
                            Ok(0) => {
                                self.closed = true;
                                return Err(CwcError::Transport("write: socket closed".into()));
                            }
                            Ok(n) => {
                                self.head_written += n;
                                self.queued_bytes = self.queued_bytes.saturating_sub(n);
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                return Ok(FlushStatus::Blocked)
                            }
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(e) => {
                                self.closed = true;
                                return Err(CwcError::Transport(format!("write: {e}")));
                            }
                        }
                    }
                    self.queue.pop_front();
                    self.head_written = 0;
                }
                WriteStep::Pause(d) => {
                    let d = *d;
                    self.queue.pop_front();
                    self.paused = true;
                    return Ok(FlushStatus::Paused(d));
                }
                WriteStep::Close => {
                    self.queue.pop_front();
                    self.closed = true;
                    // Tearing down a possibly-already-dead socket: failure IS
                    // the expected case.
                    #[allow(clippy::unused_result_ok)]
                    self.stream.shutdown(std::net::Shutdown::Both).ok();
                    return Ok(FlushStatus::Closed);
                }
            }
        }
    }

    /// Reads what the socket holds straight into the frame codec's buffer,
    /// at most [`MAX_READ`] bytes per call so a fast sender cannot
    /// monopolise one tick (level-triggered polling re-reports leftovers).
    /// Decode the results with [`Conn::next_frame`].
    pub fn fill(&mut self) -> CwcResult<ReadStatus> {
        let mut budget = MAX_READ;
        while budget > 0 {
            match self.codec.read_from(&mut self.stream, budget) {
                Ok(0) => return Ok(ReadStatus::Eof),
                Ok(n) => budget = budget.saturating_sub(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(ReadStatus::Open),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(CwcError::Transport(format!("read: {e}"))),
            }
        }
        Ok(ReadStatus::Open)
    }

    /// Decodes the next complete frame out of the read buffer, if any.
    /// Corrupt frames are skipped whole (counted on
    /// [`Conn::crc_rejections`]); a malformed length prefix is an error.
    pub fn next_frame(&mut self) -> CwcResult<Option<Frame>> {
        self.codec.next_frame()
    }

    /// Inbound frames rejected on CRC so far.
    pub fn crc_rejections(&self) -> u64 {
        self.codec.crc_rejections()
    }
}

/// A caller-opaque handle to one armed timer, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerKey {
    at: Micros,
    seq: u64,
}

/// A deadline-ordered timer wheel: every wall-clock wait the event loop
/// owes anyone (kernel timers, paced writes) lives here,
/// ordered by `(deadline, arming sequence)` so same-instant timers fire in
/// the order they were armed — a deterministic tie-break.
#[derive(Debug)]
pub struct TimerWheel<T> {
    entries: BTreeMap<(Micros, u64), T>,
    seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            entries: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Arms `item` to fire at `at`. Returns a key usable with
    /// [`TimerWheel::cancel`].
    pub fn arm(&mut self, at: Micros, item: T) -> TimerKey {
        self.seq += 1;
        self.entries.insert((at, self.seq), item);
        TimerKey { at, seq: self.seq }
    }

    /// Disarms a timer; returns its payload if it had not fired yet.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        self.entries.remove(&(key.at, key.seq))
    }

    /// The earliest armed deadline, if any — the event loop's poll timeout.
    pub fn next_deadline(&self) -> Option<Micros> {
        self.entries.keys().next().map(|&(at, _)| at)
    }

    /// Removes and returns the earliest timer with `deadline <= now`.
    /// Call in a loop to drain everything due.
    pub fn pop_due(&mut self, now: Micros) -> Option<T> {
        let &(at, seq) = self.entries.keys().next()?;
        if at > now {
            return None;
        }
        self.entries.remove(&(at, seq))
    }

    /// Armed timers outstanding.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
// The tests drive real sockets from helper threads and bound their waits
// on the wall clock.
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use std::time::Instant;

    fn wait_readable(poller: &mut Poller, token: u64) -> Vec<PollEvent> {
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            poller
                .wait(&mut out, Some(Duration::from_millis(50)))
                .unwrap();
            if out.iter().any(|e| e.token == token && e.readable) {
                return out;
            }
            out.clear();
        }
        panic!("token {token} never became readable");
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn partial_frame_across_two_readiness_events() {
        let (mut client, server) = pair();
        let mut conn = Conn::from_stream(server).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(conn.fd(), 7, Interest::READ).unwrap();

        let mut encoded = BytesMut::new();
        Frame::KeepAlive { seq: 42 }.encode(&mut encoded);
        let cut = encoded.len() / 2;

        // First half: readable, fills the codec, but no frame yet.
        client.write_all(&encoded[..cut]).unwrap();
        client.flush().unwrap();
        wait_readable(&mut poller, 7);
        assert_eq!(conn.fill().unwrap(), ReadStatus::Open);
        assert!(conn.next_frame().unwrap().is_none(), "half a frame decoded");

        // Second half: a fresh readiness event completes the frame.
        client.write_all(&encoded[cut..]).unwrap();
        client.flush().unwrap();
        wait_readable(&mut poller, 7);
        assert_eq!(conn.fill().unwrap(), ReadStatus::Open);
        assert_eq!(
            conn.next_frame().unwrap(),
            Some(Frame::KeepAlive { seq: 42 })
        );
        assert!(conn.next_frame().unwrap().is_none());
    }

    #[test]
    fn write_buffer_backpressure_on_a_slow_peer() {
        let (client, server) = pair();
        let mut conn = Conn::from_stream(server).unwrap();

        // A peer that never reads: the socket buffer fills and the queue
        // backs up instead of blocking the thread.
        let chunk = vec![0xABu8; 256 * 1024];
        let mut status = FlushStatus::Clean;
        for _ in 0..64 {
            conn.queue_bytes(chunk.clone());
            status = conn.flush().unwrap();
            if status == FlushStatus::Blocked {
                break;
            }
        }
        assert_eq!(status, FlushStatus::Blocked, "16 MB never filled loopback");
        let backlog = conn.queued_bytes();
        assert!(backlog > 0, "blocked flush must leave queued bytes");

        // The driver watches queued_bytes() against its cap — here we play
        // the driver and declare this peer too slow.
        assert!(backlog > 64 * 1024);

        // Once the peer drains, writable readiness lets the queue empty.
        let mut poller = Poller::new().unwrap();
        poller.register(conn.fd(), 1, Interest::READ_WRITE).unwrap();
        let drainer = std::thread::spawn(move || {
            use std::io::Read as _;
            let mut sink = client;
            sink.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut buf = vec![0u8; 1 << 20];
            let mut total = 0usize;
            loop {
                match sink.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => total += n,
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        break
                    }
                    Err(e) => panic!("drain: {e}"),
                }
            }
            total
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut events = Vec::new();
        while conn.queued_bytes() > 0 && Instant::now() < deadline {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            if events.iter().any(|e| e.writable) {
                match conn.flush().unwrap() {
                    FlushStatus::Clean => break,
                    FlushStatus::Blocked => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(conn.queued_bytes(), 0, "queue must drain once peer reads");
        drop(conn); // closes the socket so the drainer sees EOF
        assert!(drainer.join().unwrap() > 0);
    }

    #[test]
    fn backlog_behind_the_head_excludes_the_chunk_in_flight() {
        let (_client, server) = pair();
        let mut conn = Conn::from_stream(server).unwrap();
        assert_eq!(conn.queued_behind_head(), 0);

        // One oversized chunk the (never-reading) peer cannot absorb, then
        // two small ones behind it.
        conn.queue_bytes(vec![1u8; 16 << 20]);
        conn.queue_bytes(vec![2u8; 1000]);
        conn.queue_bytes(vec![3u8; 24]);
        assert_eq!(conn.queued_bytes(), (16 << 20) + 1024);
        assert_eq!(conn.queued_behind_head(), 1024);

        // Partially written: the total shrinks, what waits behind does not.
        assert_eq!(conn.flush().unwrap(), FlushStatus::Blocked);
        assert!(conn.queued_bytes() < (16 << 20) + 1024);
        assert!(conn.queued_bytes() > 1024);
        assert_eq!(conn.queued_behind_head(), 1024);
    }

    #[test]
    fn megabyte_frames_reassemble_across_ticks_within_the_per_tick_bound() {
        let (client, server) = pair();
        let mut conn = Conn::from_stream(server).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(conn.fd(), 7, Interest::READ).unwrap();

        let frame = Frame::ShipInput {
            job: cwc_types::JobId(3),
            seq: 5,
            offset_kb: 0,
            len_kb: 1024,
            resume_from: None,
            trace_id: 3,
            span_id: 5,
            parent_span: 0,
            replica: false,
            data: (0..1u32 << 20)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>()
                .into(),
        };
        let mut wire = BytesMut::new();
        frame.encode(&mut wire);
        assert!(wire.len() > MAX_READ, "each frame must outgrow one tick");

        // A sender that always has more queued than one tick may take.
        const FRAMES: usize = 4;
        let sender = std::thread::spawn(move || {
            let mut client = client;
            for _ in 0..FRAMES {
                client.write_all(&wire).unwrap();
            }
            client // keep the socket open until the receiver is done
        });

        let (mut decoded, mut fills) = (0usize, 0usize);
        while decoded < FRAMES {
            wait_readable(&mut poller, 7);
            let before = conn.codec.buffered();
            assert_eq!(conn.fill().unwrap(), ReadStatus::Open);
            let taken = conn.codec.buffered() - before;
            assert!(taken <= MAX_READ, "one fill took {taken} bytes");
            fills += 1;
            while let Some(got) = conn.next_frame().unwrap() {
                assert_eq!(got, frame, "frame {decoded} reassembled wrong");
                decoded += 1;
            }
        }
        assert!(
            fills > FRAMES,
            "{FRAMES} frames in only {fills} bounded fills"
        );
        assert_eq!(conn.codec.buffered(), 0);
        drop(sender.join().unwrap());
    }

    #[test]
    fn eintr_is_retried_not_surfaced() {
        let mut attempts = 0;
        let out = retry_eintr(|| {
            attempts += 1;
            if attempts < 3 {
                Err(std::io::Error::from(ErrorKind::Interrupted))
            } else {
                Ok(attempts)
            }
        })
        .unwrap();
        assert_eq!(out, 3, "two EINTRs then success");

        // Non-EINTR errors pass straight through.
        let err = retry_eintr(|| -> std::io::Result<()> {
            Err(std::io::Error::from(ErrorKind::ConnectionReset))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }

    #[test]
    fn accept_burst_drains_a_thousand_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        {
            use std::os::fd::AsRawFd;
            poller
                .register(listener.as_raw_fd(), 99, Interest::READ)
                .unwrap();
        }

        const N: usize = 1000;
        let dialer = std::thread::spawn(move || {
            let mut held = Vec::with_capacity(N);
            for _ in 0..N {
                held.push(TcpStream::connect(addr).unwrap());
            }
            held
        });

        let mut accepted = Vec::new();
        let mut events = Vec::new();
        let mut max_burst = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        while accepted.len() < N && Instant::now() < deadline {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 99 && e.readable) {
                let burst = accept_burst(&listener, N, &mut accepted).unwrap();
                max_burst = max_burst.max(burst);
            }
        }
        assert_eq!(accepted.len(), N, "all {N} connections must be accepted");
        assert!(
            max_burst > 1,
            "bursts should drain multiple queued connections per tick"
        );
        drop(dialer.join().unwrap());
    }

    #[test]
    fn paused_queue_preserves_byte_order() {
        let (client, server) = pair();
        let mut conn = Conn::from_stream(server).unwrap();
        conn.queue_bytes(b"first".to_vec());
        conn.queue_pause(Duration::from_millis(5));
        conn.queue_bytes(b"second".to_vec());

        // Flush runs up to the pause marker and reports it.
        match conn.flush().unwrap() {
            FlushStatus::Paused(d) => assert_eq!(d, Duration::from_millis(5)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(conn.flush().unwrap(), FlushStatus::Held);

        // The "timer fires": resume and drain the rest.
        conn.resume();
        assert_eq!(conn.flush().unwrap(), FlushStatus::Clean);

        let mut got = vec![0u8; 11];
        let mut rd = client;
        rd.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        use std::io::Read as _;
        rd.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"firstsecond");
    }

    #[test]
    fn close_marker_tears_the_connection_down() {
        let (client, server) = pair();
        let mut conn = Conn::from_stream(server).unwrap();
        conn.queue_bytes(b"tail".to_vec());
        conn.queue_close();
        assert!(conn.is_closed(), "no bytes go behind a queued close");
        assert_eq!(conn.flush().unwrap(), FlushStatus::Closed);
        assert!(conn.is_closed());
        // Peer reads the prefix then EOF.
        use std::io::Read as _;
        let mut rd = client;
        rd.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        rd.read_to_end(&mut got).unwrap();
        assert_eq!(&got, b"tail");
    }

    #[test]
    fn timer_wheel_orders_by_deadline_then_arming_sequence() {
        let mut wheel = TimerWheel::new();
        wheel.arm(Micros(300), "late");
        let k_a = wheel.arm(Micros(100), "a");
        wheel.arm(Micros(100), "b");
        wheel.arm(Micros(200), "mid");
        assert_eq!(wheel.next_deadline(), Some(Micros(100)));
        assert_eq!(wheel.len(), 4);

        // Nothing due before its deadline.
        assert!(wheel.pop_due(Micros(99)).is_none());
        // Same-deadline timers fire in arming order.
        assert_eq!(wheel.pop_due(Micros(100)), Some("a"));
        assert_eq!(wheel.pop_due(Micros(100)), Some("b"));
        assert!(wheel.pop_due(Micros(100)).is_none());
        assert_eq!(wheel.pop_due(Micros(1000)), Some("mid"));
        assert_eq!(wheel.pop_due(Micros(1000)), Some("late"));
        assert!(wheel.is_empty());

        // Cancelled timers never fire.
        let mut wheel = TimerWheel::new();
        let key = wheel.arm(Micros(10), "x");
        assert_eq!(wheel.cancel(key), Some("x"));
        assert!(wheel.pop_due(Micros(1000)).is_none());
        let _ = k_a;
    }

    #[test]
    fn poller_wait_times_out_empty() {
        let mut poller = Poller::new().unwrap();
        let mut out = Vec::new();
        let n = poller
            .wait(&mut out, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn frames_round_trip_through_a_nonblocking_pair() {
        let (client, server) = pair();
        let mut a = Conn::from_stream(client).unwrap();
        let mut b = Conn::from_stream(server).unwrap();
        let mut encoded = BytesMut::new();
        Frame::Plugged.encode(&mut encoded);
        Frame::KeepAlive { seq: 9 }.encode(&mut encoded);
        a.queue_bytes(encoded.to_vec());
        assert_eq!(a.flush().unwrap(), FlushStatus::Clean);

        let mut poller = Poller::new().unwrap();
        poller.register(b.fd(), 1, Interest::READ).unwrap();
        wait_readable(&mut poller, 1);
        assert_eq!(b.fill().unwrap(), ReadStatus::Open);
        assert_eq!(b.next_frame().unwrap(), Some(Frame::Plugged));
        assert_eq!(b.next_frame().unwrap(), Some(Frame::KeepAlive { seq: 9 }));
        assert!(b.next_frame().unwrap().is_none());
    }

    #[test]
    fn raise_nofile_limit_reports_a_usable_ceiling() {
        let limit = raise_nofile_limit().unwrap();
        assert!(limit >= 1024, "soft limit after raise: {limit}");
        // Idempotent.
        assert_eq!(raise_nofile_limit().unwrap(), limit);
    }
}
