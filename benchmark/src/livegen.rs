//! The live load generator: one thread, one `Poller`, two synthetic
//! worker connections answering the real coordinator over loopback.
//!
//! A closed loop with two clients: each worker answers a `ShipInput`
//! the moment it is decoded and then waits for the next one, so the
//! coordinator is never offered more than two chunks at a time and a
//! slower coordinator simply receives less load. The workers execute
//! nothing — they reply with the big-endian byte length of the data
//! they were shipped, which is what makes the output checkable:
//! `primecount` aggregates partial results by summing them, so each
//! job's aggregate must equal its input length (byte conservation and
//! exactly-once credit in one number).

use crate::report::RunResult;
use crate::spans::{SpanId, Tracer};
use bytes::{Bytes, BytesMut};
use cwc_core::SchedulerKind;
use cwc_net::{Conn, FlushStatus, Frame, Interest, PollEvent, Poller, ReadStatus};
use cwc_obs::{MemorySink, Obs};
use cwc_server::{run_live_server_with, LiveJob, LiveOutcome, LivePolicy};
use cwc_types::{CwcError, CwcResult, JobId, JobKind, PhoneId, RadioTech};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker connections the generator multiplexes (≤ `nproc` on the
/// reference host, and the fewest that keep the coordinator busy).
pub const WORKERS: usize = 2;

/// Both workers advertise the same clock and link so the greedy split
/// is even and both clients stay busy to the end of the batch. MHz.
pub const CLOCK_MHZ: u32 = 1_200;
/// Bandwidth both workers report to the probe, KB/s.
pub const REPORTED_KB_PER_SEC: f64 = 600.0;

/// The coordinator policy every live batch runs under: the defaults,
/// except the paper's 30 s keep-alive period in place of the loopback
/// demo's 1 s, so a ~1 s batch carries no keep-alive traffic whose count
/// would depend on how long the batch happened to take.
pub fn policy() -> LivePolicy {
    LivePolicy {
        keepalive_period: Duration::from_secs(30),
        ..LivePolicy::default()
    }
}

/// A seeded byte stream for job inputs (xorshift64*; the content is
/// never parsed, only framed, checksummed and counted).
pub struct ByteRng(u64);

impl ByteRng {
    /// Seeds the stream; any seed works, including 0.
    pub fn new(seed: u64) -> Self {
        ByteRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Builds `n` breakable `primecount` jobs whose input lengths are drawn
/// uniformly from `min_bytes..=max_bytes`. Unequal lengths are what let
/// the oracle notice a result credited to the wrong job.
pub fn make_jobs(seed: u64, n: usize, min_bytes: usize, max_bytes: usize) -> Vec<LiveJob> {
    let mut rng = ByteRng::new(seed);
    // One random 4 KB block, rotated per job: fast to build, and no two
    // jobs share a prefix.
    let block: Vec<u8> = (0..512)
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect();
    (0..n)
        .map(|j| {
            let len = rng.range(min_bytes, max_bytes);
            let shift = rng.range(0, block.len() - 1);
            let input: Vec<u8> = block
                .iter()
                .cycle()
                .skip(shift)
                .take(len)
                .copied()
                .collect();
            LiveJob::new(JobId(j as u32), JobKind::Breakable, "primecount", 30, input)
        })
        .collect()
}

/// What the generator thread saw.
#[derive(Debug, Default)]
struct GenReport {
    first_ship: Option<Instant>,
    chunks: u64,
    payload_bytes: u64,
    turnaround_us: Vec<f64>,
}

struct Worker {
    conn: Conn,
    write_interest: bool,
    /// When this worker last queued a `TaskComplete`.
    completed_at: Option<Instant>,
    finishing: bool,
    open: bool,
}

struct Generator<'a> {
    poller: Poller,
    workers: Vec<Worker>,
    report: GenReport,
    tracer: &'a Tracer,
    root: Option<SpanId>,
    /// Under-report this (0-based) chunk by one byte: the oracle self-test.
    sabotage_chunk: Option<u64>,
}

impl Generator<'_> {
    fn queue(&mut self, idx: usize, frame: &Frame) {
        let mut buf = BytesMut::new();
        self.tracer
            .scope("net.codec.encode", self.root, || frame.encode(&mut buf));
        self.workers[idx].conn.queue_bytes(buf.to_vec());
    }

    /// Flushes and reconciles write interest; closes on a drained farewell.
    fn reconcile(&mut self, idx: usize) {
        let w = &mut self.workers[idx];
        if !w.open {
            return;
        }
        let status = self
            .tracer
            .scope("net.conn.flush", self.root, || w.conn.flush());
        let want_write = match status {
            Ok(FlushStatus::Clean) if w.finishing => {
                self.close(idx);
                return;
            }
            Ok(FlushStatus::Clean) => false,
            Ok(FlushStatus::Blocked) => true,
            // The generator queues no pauses; nothing to wait out.
            Ok(FlushStatus::Paused(_) | FlushStatus::Held) => {
                w.conn.resume();
                false
            }
            Ok(FlushStatus::Closed) | Err(_) => {
                self.close(idx);
                return;
            }
        };
        if want_write != w.write_interest {
            w.write_interest = want_write;
            let interest = if want_write {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .reregister(w.conn.fd(), idx as u64, interest)
                .is_err()
            {
                self.close(idx);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let w = &mut self.workers[idx];
        if w.open {
            w.open = false;
            // The fd closes with the process-owned stream; a failed
            // deregister means epoll already forgot it.
            let _ = self.poller.deregister(w.conn.fd());
        }
    }

    fn handle_frame(&mut self, idx: usize, frame: Frame) {
        match frame {
            Frame::BandwidthProbe { probe_id, .. } => self.queue(
                idx,
                &Frame::BandwidthReport {
                    probe_id,
                    kb_per_sec: REPORTED_KB_PER_SEC,
                },
            ),
            Frame::ShipInput { job, seq, data, .. } => {
                let now = Instant::now();
                self.report.first_ship.get_or_insert(now);
                if let Some(done) = self.workers[idx].completed_at {
                    self.report
                        .turnaround_us
                        .push(now.duration_since(done).as_secs_f64() * 1e6);
                }
                let mut len = data.len() as u64;
                if self.sabotage_chunk == Some(self.report.chunks) {
                    len = len.saturating_sub(1);
                }
                self.report.chunks += 1;
                self.report.payload_bytes += data.len() as u64;
                self.queue(
                    idx,
                    &Frame::TaskComplete {
                        job,
                        seq,
                        exec_ms: 1,
                        result: Bytes::copy_from_slice(&len.to_be_bytes()),
                    },
                );
                self.workers[idx].completed_at = Some(Instant::now());
            }
            Frame::KeepAlive { seq } => {
                self.queue(idx, &Frame::KeepAliveAck { seq });
            }
            Frame::Shutdown => {
                self.queue(idx, &Frame::Shutdown);
                self.workers[idx].finishing = true;
            }
            // RegisterAck, ShipExecutable, CancelTask: nothing to answer.
            _ => {}
        }
    }

    fn handle_readable(&mut self, idx: usize) {
        if !self.workers[idx].open {
            return;
        }
        let filled = self
            .tracer
            .scope("net.conn.fill", self.root, || self.workers[idx].conn.fill());
        let eof = match filled {
            Ok(ReadStatus::Open) => false,
            Ok(ReadStatus::Eof) => true,
            Err(_) => {
                self.close(idx);
                return;
            }
        };
        loop {
            let decoded = self.tracer.scope("net.codec.next_frame", self.root, || {
                self.workers[idx].conn.next_frame()
            });
            match decoded {
                Ok(Some(frame)) => self.handle_frame(idx, frame),
                Ok(None) => break,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        self.reconcile(idx);
        if eof {
            self.close(idx);
        }
    }
}

/// Plays [`WORKERS`] workers against the coordinator at `addr` until it
/// says `Shutdown` (or vanishes).
fn generate(
    addr: SocketAddr,
    tracer: &Tracer,
    sabotage_chunk: Option<u64>,
    give_up: Duration,
) -> CwcResult<GenReport> {
    tracer.scope_id("generator.run", None, |root| {
        let mut gen = Generator {
            poller: Poller::new()?,
            workers: Vec::with_capacity(WORKERS),
            report: GenReport::default(),
            tracer,
            root,
            sabotage_chunk,
        };
        for i in 0..WORKERS {
            let stream = TcpStream::connect(addr)
                .map_err(|e| CwcError::Transport(format!("generator connect {i}: {e}")))?;
            let conn = Conn::from_stream(stream)?;
            gen.poller.register(conn.fd(), i as u64, Interest::READ)?;
            gen.workers.push(Worker {
                conn,
                write_interest: false,
                completed_at: None,
                finishing: false,
                open: true,
            });
            gen.queue(
                i,
                &Frame::Register {
                    phone: PhoneId(i as u32),
                    clock_mhz: CLOCK_MHZ,
                    cores: 2,
                    radio: RadioTech::Wifi80211g,
                    ram_kb: 1 << 20,
                },
            );
            gen.reconcile(i);
        }
        let started = Instant::now();
        let mut events: Vec<PollEvent> = Vec::new();
        while gen.workers.iter().any(|w| w.open) {
            if started.elapsed() > give_up {
                return Err(CwcError::Transport(
                    "generator still connected at its deadline".into(),
                ));
            }
            events.clear();
            tracer.scope("net.poller.wait", root, || {
                gen.poller
                    .wait(&mut events, Some(Duration::from_millis(200)))
            })?;
            for ev in &events {
                let idx = ev.token as usize;
                if ev.readable || ev.hangup {
                    gen.handle_readable(idx);
                }
                if ev.writable {
                    gen.reconcile(idx);
                }
            }
        }
        Ok(gen.report)
    })
}

/// What the generator and the clock saw of one live batch.
#[derive(Debug, Clone)]
pub struct LiveStats {
    /// Submit (coordinator and generator started) → first `ShipInput`
    /// decoded by any worker: accept + register + probe + initial
    /// schedule.
    pub setup_s: f64,
    /// First `ShipInput` → coordinator returned with every job
    /// aggregated.
    pub batch_wall_s: f64,
    /// `ShipInput` frames the workers received (partitions credited when
    /// nothing is retried or migrated).
    pub chunks: u64,
    /// Input bytes delivered to workers (headers excluded).
    pub payload_bytes: u64,
    /// Per chunk: `TaskComplete` queued → next `ShipInput` decoded, µs.
    pub turnaround_us: Vec<f64>,
}

/// One live batch, measured. Repetitions kept only for their timings
/// keep the [`LiveStats`] and drop the rest, so a run's memory does not
/// grow with the results of every batch it ran.
#[derive(Debug)]
pub struct LiveRep {
    /// Timings and counts.
    pub stats: LiveStats,
    /// The coordinator's own account of the run.
    pub outcome: LiveOutcome,
    /// The run's metrics registry.
    pub obs: Obs,
    /// The run's bus events (empty unless traced).
    pub events: Vec<cwc_obs::Event>,
}

/// Safety net for one batch: a wedged run fails loudly, never hangs.
const REP_DEADLINE: Duration = Duration::from_secs(60);

/// Runs one batch: the coordinator on the calling thread, the generator
/// on one spawned thread. With `traced`, a `MemorySink` collects the
/// run's events (the kernel script among them). `sabotage_chunk` makes a
/// worker under-report that (0-based) chunk by one byte: the oracle
/// self-test.
pub fn run_rep(
    jobs: &[LiveJob],
    tracer: &Tracer,
    traced: bool,
    sabotage_chunk: Option<u64>,
) -> CwcResult<LiveRep> {
    let deadline = REP_DEADLINE;
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| CwcError::Transport(format!("bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CwcError::Transport(format!("local_addr: {e}")))?;
    let obs = Obs::new();
    let sink = Arc::new(MemorySink::new());
    if traced {
        obs.bus.attach(sink.clone());
    }
    let batch = jobs.to_vec();
    let submitted = Instant::now();
    let (served, generated) = std::thread::scope(|scope| {
        let gen = scope.spawn(|| generate(addr, tracer, sabotage_chunk, deadline));
        let served = tracer.scope("live.run_live_server_with", None, || {
            run_live_server_with(
                listener,
                WORKERS,
                batch,
                cwc_tasks::standard_registry(),
                SchedulerKind::Greedy,
                deadline,
                policy(),
                &obs,
            )
        });
        let returned = Instant::now();
        let generated = gen
            .join()
            .unwrap_or_else(|_| Err(CwcError::Transport("generator thread panicked".into())));
        (served.map(|o| (o, returned)), generated)
    });
    let (outcome, returned) = served?;
    let gen = generated?;
    let first_ship = gen
        .first_ship
        .ok_or_else(|| CwcError::Transport("no ShipInput ever reached a worker".into()))?;
    Ok(LiveRep {
        stats: LiveStats {
            setup_s: first_ship.duration_since(submitted).as_secs_f64(),
            batch_wall_s: returned.duration_since(first_ship).as_secs_f64(),
            chunks: gen.chunks,
            payload_bytes: gen.payload_bytes,
            turnaround_us: gen.turnaround_us,
        },
        outcome,
        obs,
        events: sink.take(),
    })
}

/// [`run_rep`] without sabotage, checked by [`check_rep`].
pub fn run_checked(
    jobs: &[LiveJob],
    tracer: &Tracer,
    traced: bool,
    into: &mut RunResult,
) -> CwcResult<LiveRep> {
    let rep = run_rep(jobs, tracer, traced, None)?;
    check_rep(jobs, &rep, into);
    Ok(rep)
}

/// The live output oracle: every job aggregated to exactly its input
/// length, nothing degraded, every byte delivered exactly once.
pub fn check_rep(jobs: &[LiveJob], rep: &LiveRep, into: &mut RunResult) {
    into.check(rep.outcome.failure.is_none(), || {
        format!("live run degraded: {:?}", rep.outcome.failure)
    });
    let total: u64 = jobs.iter().map(|j| j.input.len() as u64).sum();
    into.check(rep.stats.payload_bytes == total, || {
        format!(
            "workers received {} input bytes, the batch holds {total}",
            rep.stats.payload_bytes
        )
    });
    for job in jobs {
        let want = job.input.len() as u64;
        let got = rep
            .outcome
            .results
            .get(&job.spec.id)
            .and_then(|r| <[u8; 8]>::try_from(r.as_slice()).ok())
            .map(u64::from_be_bytes);
        into.check(got == Some(want), || {
            format!(
                "{}: aggregated {got:?} bytes, input holds {want}",
                job.spec.id
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = make_jobs(5, 16, 100, 200);
        let b = make_jobs(5, 16, 100, 200);
        let c = make_jobs(6, 16, 100, 200);
        let bytes = |v: &[LiveJob]| v.iter().map(|j| j.input.clone()).collect::<Vec<_>>();
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert!(a.iter().all(|j| (100..=200).contains(&j.input.len())));
    }
}
