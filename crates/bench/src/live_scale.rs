//! Event-loop scale benchmark: one coordinator thread vs. a simulated
//! fleet (DESIGN.md §14, ROADMAP "serving system" gap).
//!
//! The live path's claim is that a single readiness-driven thread can
//! serve fleets far past OS-thread scale. This module measures it: a
//! child process (`cwc-bench-live fleet ...`) plays N workers on its own
//! client-side reactor — real sockets, real registration and bandwidth
//! probes, synthetic instant task results — while the parent runs the
//! real [`cwc_server::run_live_server_with`] event loop and reads its
//! own metrics. Two processes because each side holds one fd per worker
//! and `ulimit -n` applies per process.
//!
//! Reported per scale point: accept+register+probe throughput
//! (workers/s of setup), ship throughput (task inputs delivered/s),
//! keep-alive ack volume, and the `live.loop_iter_us` histogram's
//! p50/p99/max — the event-loop iteration latency the tentpole
//! acceptance asks for. A chaos soak point re-runs the largest fleet
//! with frame-drop injection and a slice of the fleet dying mid-run.

use crate::obj;
use crate::report::JsonValue;
use cwc_chaos::{FaultKind, FaultPlan, FaultProfile};
use cwc_core::SchedulerKind;
use cwc_net::{
    raise_nofile_limit, Conn, FlushStatus, Frame, Interest, PollEvent, Poller, ReadStatus,
};
use cwc_server::{run_live_server_with, LiveJob, LiveOutcome, LivePolicy};
use cwc_types::{CwcError, CwcResult, JobId, JobKind, PhoneId, RadioTech};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The standard scale ladder: thread-per-connection territory, past it,
/// and the 10k tentpole point.
pub const SCALE_LADDER: [usize; 3] = [100, 1_000, 10_000];

/// Workers in the chaos-soak smoke point.
pub const SOAK_WORKERS: usize = 10_000;

/// Chaos seed the soak runs under (one of the CI soak seeds).
pub const SOAK_SEED: u64 = 7;

/// What the fleet child observed, reported as one JSON line on stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Connections successfully established and registered.
    pub connected: usize,
    /// `ShipInput` frames received across the fleet.
    pub inputs_received: u64,
    /// `TaskComplete` frames sent back.
    pub completes_sent: u64,
    /// Keep-alive probes answered.
    pub keepalive_acks_sent: u64,
    /// Workers that died abruptly on their first data-phase frame (the
    /// `die` knob).
    pub died: usize,
}

impl From<FleetSummary> for JsonValue {
    fn from(s: FleetSummary) -> Self {
        obj!(s {
            connected,
            inputs_received,
            completes_sent,
            keepalive_acks_sent,
            died
        })
    }
}

impl FleetSummary {
    /// Reads a summary back from its JSON form; `None` if a field is
    /// missing or not a non-negative integer.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        let field = |name: &str| v.get(name)?.as_u64();
        Some(FleetSummary {
            connected: field("connected")? as usize,
            inputs_received: field("inputs_received")?,
            completes_sent: field("completes_sent")?,
            keepalive_acks_sent: field("keepalive_acks_sent")?,
            died: field("died")? as usize,
        })
    }
}

/// One measured scale point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Fleet size.
    pub workers: usize,
    /// Wall-clock accept+register+probe phase, ms (`live.setup_ms`).
    pub setup_ms: f64,
    /// Workers brought from TCP connect to measured-and-scheduled, per
    /// second of setup.
    pub accepts_per_sec: f64,
    /// Wall-clock of the whole run, ms.
    pub wall_ms: f64,
    /// Task inputs delivered to workers per second of post-setup run.
    pub ships_per_sec: f64,
    /// Keep-alive acks the kernel credited.
    pub keepalives_acked: usize,
    /// Keep-alive acks per second of post-setup run.
    pub keepalive_acks_per_sec: f64,
    /// Event-loop iteration work time, µs: median.
    pub loop_p50_us: f64,
    /// Event-loop iteration work time, µs: 99th percentile.
    pub loop_p99_us: f64,
    /// Event-loop iteration work time, µs: worst observed.
    pub loop_max_us: f64,
    /// Iterations that did nonzero work (the histogram's population).
    pub loop_iters: u64,
    /// Partitions migrated after worker loss.
    pub migrated: usize,
    /// Send retries the backoff schedule performed.
    pub retries: u64,
    /// What the fleet child saw from its side.
    pub fleet: FleetSummary,
}

impl From<ScalePoint> for JsonValue {
    fn from(p: ScalePoint) -> Self {
        obj!(p {
            workers,
            setup_ms,
            accepts_per_sec,
            wall_ms,
            ships_per_sec,
            keepalives_acked,
            keepalive_acks_per_sec,
            loop_p50_us,
            loop_p99_us,
            loop_max_us,
            loop_iters,
            migrated,
            retries,
            fleet
        })
    }
}

/// Outcome of the chaos-soak smoke point.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Fleet size.
    pub workers: usize,
    /// Chaos seed driving the frame-drop script.
    pub seed: u64,
    /// Workers told to die abruptly mid-run.
    pub died: usize,
    /// Wall-clock of the run, ms.
    pub wall_ms: f64,
    /// Partitions migrated after worker loss.
    pub migrated: usize,
    /// Send retries performed.
    pub retries: u64,
    /// Workers the server lost over the run (`live.workers_lost`).
    pub workers_lost: u64,
    /// Whether the batch still aggregated fully (no fleet loss).
    pub completed: bool,
    /// Event-loop iteration p99, µs, under chaos.
    pub loop_p99_us: f64,
}

impl From<SoakOutcome> for JsonValue {
    fn from(s: SoakOutcome) -> Self {
        obj!(s {
            workers,
            seed,
            died,
            wall_ms,
            migrated,
            retries,
            workers_lost,
            completed,
            loop_p99_us
        })
    }
}

/// Tuning for one benchmark point.
#[derive(Debug, Clone)]
pub struct PointConfig {
    /// Fleet size.
    pub workers: usize,
    /// How many workers die abruptly on their first data-phase frame.
    pub die: usize,
    /// Server-side frame-drop chaos seed (`None` = fault-free).
    pub chaos_seed: Option<u64>,
    /// Keep-alive period (short, so acks actually flow in a short run).
    pub keepalive: Duration,
    /// Stall watchdog (short under chaos so dropped ships requeue fast).
    pub stall_timeout: Duration,
    /// Whole-run safety net.
    pub deadline: Duration,
    /// Input KB shipped per worker (the job's total input is
    /// `workers * input_kb_per_worker`).
    pub input_kb_per_worker: usize,
}

impl PointConfig {
    /// The fault-free throughput configuration for one ladder point.
    pub fn throughput(workers: usize) -> Self {
        PointConfig {
            workers,
            die: 0,
            chaos_seed: None,
            keepalive: Duration::from_millis(250),
            stall_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(120),
            input_kb_per_worker: 2,
        }
    }

    /// The chaos-soak smoke configuration.
    pub fn soak() -> Self {
        PointConfig {
            workers: SOAK_WORKERS,
            die: SOAK_WORKERS / 100,
            chaos_seed: Some(SOAK_SEED),
            keepalive: Duration::from_millis(500),
            stall_timeout: Duration::from_secs(2),
            deadline: Duration::from_secs(300),
            input_kb_per_worker: 2,
        }
    }
}

fn spawn_fleet(addr: SocketAddr, workers: usize, die: usize) -> CwcResult<Child> {
    let exe = std::env::current_exe()
        .map_err(|e| CwcError::Config(format!("cannot locate own binary: {e}")))?;
    Command::new(exe)
        .arg("fleet")
        .arg(addr.to_string())
        .arg(workers.to_string())
        .arg(die.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| CwcError::Config(format!("cannot spawn fleet child: {e}")))
}

fn read_fleet_summary(child: Child) -> CwcResult<FleetSummary> {
    let out = child
        .wait_with_output()
        .map_err(|e| CwcError::Transport(format!("fleet child: {e}")))?;
    if !out.status.success() {
        return Err(CwcError::Transport(format!(
            "fleet child exited with {}",
            out.status
        )));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| CwcError::Transport("fleet child printed no summary".into()))?;
    cwc_obs::json::parse(line)
        .ok()
        .and_then(|v| FleetSummary::from_json(&v))
        .ok_or_else(|| CwcError::Transport(format!("fleet summary unparsable: {line}")))
}

/// Serves one spawned fleet child with the real live server under `cfg`;
/// returns the server's outcome, the child's summary and the run's
/// metrics.
fn serve_fleet(cfg: &PointConfig) -> CwcResult<(LiveOutcome, FleetSummary, cwc_obs::Obs)> {
    raise_nofile_limit()?;
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| CwcError::Transport(format!("bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CwcError::Transport(format!("local_addr: {e}")))?;
    let child = spawn_fleet(addr, cfg.workers, cfg.die)?;

    // Real input bytes (digits parse as primecount numbers), synthetic
    // results: the fleet answers every ship instantly, so the measurement
    // is pure coordination throughput.
    let input = vec![b'7'; cfg.workers * cfg.input_kb_per_worker * 1024];
    let jobs = vec![LiveJob::new(
        JobId(0),
        JobKind::Breakable,
        "primecount",
        30,
        input,
    )];
    let policy = LivePolicy {
        keepalive_period: cfg.keepalive,
        stall_timeout: cfg.stall_timeout,
        chaos: cfg
            .chaos_seed
            .map(|seed| FaultPlan::new(seed, FaultProfile::single(FaultKind::Drop, 0.02))),
        ..LivePolicy::default()
    };
    let obs = cwc_obs::Obs::new();
    let out = run_live_server_with(
        listener,
        cfg.workers,
        jobs,
        cwc_tasks::standard_registry(),
        SchedulerKind::Greedy,
        cfg.deadline,
        policy,
        &obs,
    )?;
    let fleet = read_fleet_summary(child)?;
    Ok((out, fleet, obs))
}

/// Runs one parent-side benchmark point against a spawned fleet child.
pub fn run_point(cfg: &PointConfig) -> CwcResult<ScalePoint> {
    let (out, fleet, obs) = serve_fleet(cfg)?;
    let wall_ms = out.wall.as_secs_f64() * 1e3;
    let setup_ms = obs
        .metrics
        .gauge_value("live.setup_ms")
        .unwrap_or(wall_ms)
        .max(f64::MIN_POSITIVE);
    let run_ms = (wall_ms - setup_ms).max(f64::MIN_POSITIVE);
    let hist = obs.metrics.histogram("live.loop_iter_us").summary();
    Ok(ScalePoint {
        workers: cfg.workers,
        setup_ms,
        accepts_per_sec: cfg.workers as f64 / (setup_ms / 1e3),
        wall_ms,
        ships_per_sec: fleet.inputs_received as f64 / (run_ms / 1e3),
        keepalives_acked: out.keepalives_acked,
        keepalive_acks_per_sec: out.keepalives_acked as f64 / (run_ms / 1e3),
        loop_p50_us: hist.p50,
        loop_p99_us: hist.p99,
        loop_max_us: hist.max,
        loop_iters: hist.count,
        migrated: out.migrated,
        retries: out.retries,
        fleet,
    })
}

/// Runs the chaos-soak smoke point (10k workers, frame drops, 1% of the
/// fleet dying on first input) and distills the recovery story.
pub fn run_soak() -> CwcResult<SoakOutcome> {
    let cfg = PointConfig::soak();
    let (out, fleet, obs) = serve_fleet(&cfg)?;
    if fleet.connected != cfg.workers {
        return Err(CwcError::Transport(format!(
            "soak fleet connected {}/{} workers",
            fleet.connected, cfg.workers
        )));
    }
    let hist = obs.metrics.histogram("live.loop_iter_us").summary();
    Ok(SoakOutcome {
        workers: cfg.workers,
        seed: cfg.chaos_seed.unwrap_or_default(),
        died: cfg.die,
        wall_ms: out.wall.as_secs_f64() * 1e3,
        migrated: out.migrated,
        retries: out.retries,
        workers_lost: obs
            .metrics
            .gauge_value("live.workers_lost")
            .unwrap_or_default() as u64,
        completed: out.failure.is_none() && out.results.contains_key(&JobId(0)),
        loop_p99_us: hist.p99,
    })
}

// ---------------------------------------------------------------------------
// The fleet child: N simulated workers on one client-side reactor.
// ---------------------------------------------------------------------------

/// Per-connection protocol automaton for a simulated worker. It answers
/// whatever the server sends — registration ack, bandwidth probe, input
/// ships, keep-alives — with canned instant responses, so the benchmark
/// measures the coordinator, not task execution.
struct FleetConn {
    conn: Conn,
    write_interest: bool,
    /// Close (gracefully) once the write queue drains.
    finishing: bool,
}

/// Mutable per-event bookkeeping shared by the fleet loop and its
/// connection handler.
struct FleetState {
    conns: Vec<Option<FleetConn>>,
    open: usize,
    summary: FleetSummary,
    workers: usize,
    die: usize,
}

impl FleetState {
    fn close(&mut self, poller: &Poller, idx: usize) {
        if let Some(fc) = self.conns.get_mut(idx).and_then(Option::take) {
            // The fd closes with the dropped stream; a failed deregister
            // means the kernel already forgot it.
            poller.deregister(fc.conn.fd()).ok();
            self.open -= 1;
        }
    }

    /// Reconciles poller interest with the connection's queue state.
    fn reconcile(&mut self, poller: &Poller, idx: usize) {
        let Some(fc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        match fc.conn.flush() {
            Ok(FlushStatus::Clean) => {
                if fc.finishing {
                    self.close(poller, idx);
                    return;
                }
                if fc.write_interest {
                    fc.write_interest = false;
                    // As in `close`: a failed reregister means the fd is gone.
                    poller
                        .reregister(fc.conn.fd(), idx as u64, Interest::READ)
                        .ok();
                }
            }
            Ok(FlushStatus::Blocked) => {
                if !fc.write_interest {
                    fc.write_interest = true;
                    // As in `close`: a failed reregister means the fd is gone.
                    poller
                        .reregister(fc.conn.fd(), idx as u64, Interest::READ_WRITE)
                        .ok();
                }
            }
            Ok(FlushStatus::Paused(_)) | Ok(FlushStatus::Held) => {
                // The fleet never queues pauses; treat as clean.
                fc.conn.resume();
            }
            Ok(FlushStatus::Closed) | Err(_) => self.close(poller, idx),
        }
    }

    /// The last `die` workers suffer an abrupt offline failure on their
    /// first data-phase frame (input ship or keep-alive — whichever the
    /// schedule sends them first): the socket just vanishes, as when a
    /// phone is unplugged and walks away. The *last* indices because they
    /// advertise the fastest links, so the scheduler reliably ships to
    /// them early. Returns `true` if it died.
    fn maybe_die(&mut self, poller: &Poller, idx: usize) -> bool {
        if idx + self.die < self.workers {
            return false;
        }
        // A closed connection never sees another frame, so this fires at
        // most once per doomed worker.
        self.summary.died += 1;
        self.close(poller, idx);
        true
    }

    fn queue(&mut self, idx: usize, frame: &Frame) {
        if let Some(fc) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            let mut buf = bytes::BytesMut::new();
            frame.encode(&mut buf);
            fc.conn.queue_bytes(buf.to_vec());
        }
    }

    fn handle_readable(&mut self, poller: &Poller, idx: usize) {
        let filled = match self.conns.get_mut(idx).and_then(Option::as_mut) {
            Some(fc) => fc.conn.fill(),
            None => return,
        };
        let eof = match filled {
            Ok(ReadStatus::Open) => false,
            Ok(ReadStatus::Eof) => true,
            Err(_) => {
                self.close(poller, idx);
                return;
            }
        };
        loop {
            let decoded = match self.conns.get_mut(idx).and_then(Option::as_mut) {
                Some(fc) => fc.conn.next_frame(),
                None => return,
            };
            match decoded {
                Ok(Some(frame)) => {
                    if !self.handle_frame(poller, idx, frame) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.close(poller, idx);
                    return;
                }
            }
        }
        self.reconcile(poller, idx);
        if eof {
            self.close(poller, idx);
        }
    }

    /// Returns `false` once the connection is gone.
    fn handle_frame(&mut self, poller: &Poller, idx: usize, frame: Frame) -> bool {
        match frame {
            Frame::BandwidthProbe { probe_id, .. } => {
                // Heterogeneous reported links, as on the real testbed.
                self.queue(
                    idx,
                    &Frame::BandwidthReport {
                        probe_id,
                        kb_per_sec: 100.0 + (idx % 64) as f64 * 10.0,
                    },
                );
            }
            Frame::ShipInput { job, seq, .. } => {
                self.summary.inputs_received += 1;
                if self.maybe_die(poller, idx) {
                    return false;
                }
                self.summary.completes_sent += 1;
                self.queue(
                    idx,
                    &Frame::TaskComplete {
                        job,
                        seq,
                        exec_ms: 1,
                        result: bytes::Bytes::from_static(&[0u8; 8]),
                    },
                );
            }
            Frame::KeepAlive { seq } => {
                if self.maybe_die(poller, idx) {
                    return false;
                }
                self.summary.keepalive_acks_sent += 1;
                self.queue(idx, &Frame::KeepAliveAck { seq });
            }
            Frame::Shutdown => {
                self.queue(idx, &Frame::Shutdown);
                if let Some(fc) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                    fc.finishing = true;
                }
            }
            // RegisterAck, ShipExecutable, duplicates: the simulated
            // worker has nothing to do with them.
            _ => {}
        }
        true
    }
}

/// Threads the fleet child connects from. Connect latency is dominated
/// by per-connect kernel work (~1.5 ms serialized on the reference
/// container), not CPU, so a few overlapping connectors cut the setup
/// phase even on a single-core host.
const CONNECT_THREADS: usize = 4;

/// Connects one contiguous stripe of worker indices and queues each
/// worker's `Register` frame. The worker's identity is the `PhoneId` in
/// the frame — not the connection order — so stripes from different
/// threads may interleave arbitrarily at the server.
fn connect_stripe(
    addr: SocketAddr,
    range: std::ops::Range<usize>,
) -> CwcResult<Vec<(usize, Conn)>> {
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CwcError::Transport(format!("fleet connect {i}: {e}")))?;
        let mut conn = Conn::from_stream(stream)?;
        let mut buf = bytes::BytesMut::new();
        Frame::Register {
            phone: PhoneId(i as u32),
            clock_mhz: 800 + (i as u32 % 16) * 100,
            cores: 2,
            radio: RadioTech::Wifi80211g,
            ram_kb: 1 << 20,
        }
        .encode(&mut buf);
        conn.queue_bytes(buf.to_vec());
        // Registration overlaps the connect phase: push it out now so the
        // server can register early workers while late ones still connect.
        conn.flush().ok();
        out.push((i, conn));
    }
    Ok(out)
}

/// The child side of the benchmark: connects `workers` simulated workers
/// to `addr` in parallel batches from `CONNECT_THREADS` threads,
/// serves the protocol until every connection closes, and returns what
/// it saw. The last `die` workers close abruptly on their first
/// data-phase frame (input ship or keep-alive).
pub fn fleet_main(addr: SocketAddr, workers: usize, die: usize) -> CwcResult<FleetSummary> {
    raise_nofile_limit()?;
    let mut poller = Poller::new()?;
    let mut state = FleetState {
        conns: Vec::with_capacity(workers),
        open: 0,
        summary: FleetSummary {
            connected: 0,
            inputs_received: 0,
            completes_sent: 0,
            keepalive_acks_sent: 0,
            died: 0,
        },
        workers,
        die,
    };
    // Batched parallel connect: each thread owns a contiguous stripe;
    // the main thread is one of the connectors, then registers every
    // connection with the poller in worker order.
    let threads = CONNECT_THREADS.min(workers.max(1));
    let per = workers.div_ceil(threads);
    let mut connected: Vec<Option<Conn>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|t| {
                let range = (t * per)..((t + 1) * per).min(workers);
                scope.spawn(move || connect_stripe(addr, range))
            })
            .collect();
        let mut stripes = vec![connect_stripe(addr, 0..per.min(workers))];
        for h in handles {
            match h.join() {
                Ok(r) => stripes.push(r),
                Err(_) => {
                    return Err(CwcError::Transport(
                        "fleet connector thread panicked".into(),
                    ))
                }
            }
        }
        let mut connected: Vec<Option<Conn>> = (0..workers).map(|_| None).collect();
        for stripe in stripes {
            for (i, conn) in stripe? {
                connected[i] = Some(conn);
            }
        }
        Ok(connected)
    })?;
    for (i, slot) in connected.iter_mut().enumerate() {
        let Some(conn) = slot.take() else {
            return Err(CwcError::Transport(format!(
                "fleet worker {i} never connected"
            )));
        };
        poller.register(conn.fd(), i as u64, Interest::READ)?;
        state.conns.push(Some(FleetConn {
            conn,
            write_interest: false,
            finishing: false,
        }));
        state.open += 1;
        state.summary.connected += 1;
    }

    let gave_up = Instant::now() + Duration::from_secs(600);
    let mut events: Vec<PollEvent> = Vec::new();
    while state.open > 0 {
        if Instant::now() > gave_up {
            return Err(CwcError::Transport(format!(
                "fleet still has {} open connections at the safety deadline",
                state.open
            )));
        }
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(500)))?;
        for ev in &events {
            let idx = ev.token as usize;
            if ev.readable || ev.hangup {
                state.handle_readable(&poller, idx);
            }
            if ev.writable {
                state.reconcile(&poller, idx);
            }
        }
    }
    Ok(state.summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn a_small_fleet_round_trips_in_process() {
        // The child normally runs as a separate process (fd budget); for a
        // small fleet a thread exercises the identical protocol automaton.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // 12 workers: advertised clock and bandwidth both rise with the
        // index, so the doomed last two are the scheduler's favourites
        // and reliably receive a ship to die on.
        let fleet = std::thread::spawn(move || fleet_main(addr, 12, 2));
        let input = vec![b'7'; 48 * 1024];
        let jobs = vec![LiveJob::new(
            JobId(0),
            JobKind::Breakable,
            "primecount",
            30,
            input,
        )];
        let policy = LivePolicy {
            keepalive_period: Duration::from_millis(200),
            ..LivePolicy::default()
        };
        let obs = cwc_obs::Obs::new();
        let out = run_live_server_with(
            listener,
            12,
            jobs,
            cwc_tasks::standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
            policy,
            &obs,
        )
        .unwrap();
        let summary = fleet.join().unwrap().unwrap();
        assert_eq!(summary.connected, 12);
        assert_eq!(summary.died, 2);
        assert!(summary.inputs_received >= 1, "{summary:?}");
        assert!(out.failure.is_none(), "{:?}", out.failure);
        let hist = obs.metrics.histogram("live.loop_iter_us").summary();
        assert!(hist.count > 0, "loop iteration latency must be recorded");
    }
}
