//! # cwc-net — wire protocol, wireless link models, and transports
//!
//! Networking substrate for CWC, covering both worlds the server runs in:
//!
//! * **Simulated**: [`link::LinkModel`] reproduces the bandwidth behavior of
//!   the paper's testbed radios (802.11a/g WiFi, EDGE, 3G, 4G) including
//!   temporal fading, and [`measure`] implements the iperf-style bandwidth
//!   probe CWC runs before scheduling (`b_i` estimation, §3.1/Fig. 4).
//! * **Live**: [`protocol::Frame`] defines the binary message vocabulary
//!   between the central server and phones (registration, executable and
//!   input shipping, completion/failure reports, keep-alives, migration
//!   state), with a streaming length-prefixed, CRC32-checked codec
//!   ([`protocol::FrameCodec`] — corrupt frames are rejected whole, never
//!   decoded into garbage). The coordinator's side of every connection
//!   is [`reactor`], the single-threaded readiness path (DESIGN.md §14): a
//!   dependency-light epoll [`reactor::Poller`], non-blocking framed
//!   connections ([`reactor::Conn`]) with explicit write-backpressure
//!   accounting, and a deadline-ordered [`reactor::TimerWheel`] — the
//!   analogue of the prototype's Java NIO server, one thread for tens of
//!   thousands of workers. The worker's side is [`tcp::FramedTcp`], a
//!   blocking client transport (a phone holds exactly one connection).
//!   Both ends take a [`fault::WireFault`] hook, the injection surface
//!   the `cwc-chaos` harness drives: each outbound frame becomes a list
//!   of [`fault::WireOp`]s, and an injected reset fails the send and
//!   closes the connection.
//!
//! The paper's prototype keeps a persistent TCP connection per phone with
//! `SO_KEEPALIVE` plus application-layer keep-alives every 30 s, declaring a
//! phone failed after 3 unanswered probes; [`protocol::KEEPALIVE_PERIOD`] and
//! [`protocol::KEEPALIVE_TOLERATED_MISSES`] encode those constants.

// `deny` rather than `forbid`: the crate has two audited
// `#[allow(unsafe_code)]` regions, the reactor's syscall shim (`reactor::sys`)
// and the CRC32 folding kernel (`protocol::clmul`), and every `unsafe` block
// in them says why it is sound in a `// SAFETY:` comment.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
// Malformed peer input must surface as an error, never as a panic; test
// code is exempt through clippy.toml (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
// No silently dropped `Result`, no bare prints.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod fault;
pub mod link;
pub mod measure;
pub mod protocol;
pub mod reactor;
pub mod tcp;

pub use fault::{WireFault, WireOp};
pub use link::{LinkConfig, LinkModel};
pub use measure::{measure_link, BandwidthSample, MeasurementReport};
pub use protocol::{
    crc32, is_handshake_tag, Frame, FrameCodec, FRAME_HEADER_LEN, KEEPALIVE_PERIOD,
    KEEPALIVE_TOLERATED_MISSES, MAX_FRAME_LEN,
};
pub use reactor::{
    accept_burst, raise_nofile_limit, retry_eintr, Conn, FlushStatus, Interest, PollEvent, Poller,
    ReadStatus, TimerKey, TimerWheel,
};
pub use tcp::FramedTcp;
