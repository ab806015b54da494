//! Critical-path analysis and run forensics over recorded CWC traces.
//!
//! The coordinator kernel mints a [`cwc_obs::TraceCtx`] per placed chunk
//! and stamps it onto every event the chunk touches, so a recorded run is
//! a forest of span trees: one trace per original job, one span per
//! placement, child spans for every requeue/migration. This module turns
//! a captured event stream into a forensic report:
//!
//! - the **makespan-critical chain** — the span whose completion ends the
//!   run, walked back through its re-placement ancestry,
//! - **per-phone utilization timelines** — assigned→terminal intervals
//!   per phone,
//! - the **reschedule waterfall** — the chronological failure/recovery
//!   story (offline detections, losses, migrations, solver rounds).
//!
//! The analysis is a pure function of the *kernel-emitted* causal events:
//! it filters by event name and ignores bus sequence numbers, which is
//! what makes the report byte-identical whether it is computed from a
//! live capture or from a script replay of the same run (the live bus
//! interleaves driver events that shift `seq`; the kernel events
//! themselves are deterministic given the recorded `(now, event)` script).

use cwc_chaos::{FaultKind, FaultPlan, FaultProfile};
use cwc_core::SchedulerKind;
use cwc_obs::{Event, EventSink, MemorySink, Obs, TraceCtx, Value};
use cwc_server::coord::{script, Kernel};
use cwc_server::live::{
    live_kernel_config, run_live_server_with, run_worker_chaos, LiveJob, LiveOutcome, LivePolicy,
    WorkerConfig,
};
use cwc_server::resilience::BreakerConfig;
use cwc_tasks::{inputs, standard_registry};
use cwc_types::{CwcResult, JobId, JobKind, PhoneId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Kernel-emitted per-chunk lifecycle events (carry a span stamp).
const CHUNK_EVENTS: [&str; 6] = [
    "task.assigned",
    "task.complete",
    "task.failed",
    "task.stalled",
    "segment.transfer",
    "segment.execute",
];

/// Kernel-emitted fleet-level events that narrate the reschedule story.
const WATERFALL_EVENTS: [&str; 7] = [
    "schedule.initial",
    "phone.offline_detected",
    "worker.lost",
    "worker.quarantined",
    "migration",
    "schedule.round",
    "fleet.lost",
];

/// Whether an event participates in the causal analysis (chunk lifecycle
/// or reschedule waterfall). Everything else on the bus — driver
/// narration, worker-side events, scheduler internals — is ignored, as
/// is the bus-assigned `seq`.
pub fn is_causal(event: &Event) -> bool {
    CHUNK_EVENTS.contains(&event.name.as_str()) || WATERFALL_EVENTS.contains(&event.name.as_str())
}

fn u64_field(event: &Event, key: &str) -> Option<u64> {
    event.get(key).and_then(Value::as_u64)
}

fn display_field(event: &Event, key: &str) -> Option<String> {
    event.get(key).map(|v| v.to_string())
}

/// One placement's reconstructed lifecycle.
#[derive(Debug, Clone)]
struct Span {
    trace: u64,
    parent: Option<u64>,
    job: String,
    phone: String,
    len_kb: u64,
    offset_kb: u64,
    rescheduled: bool,
    assigned_us: u64,
    /// `(time, verb)` of the terminal event, if the span ended.
    end: Option<(u64, &'static str)>,
}

/// Reconstructs the span table from a causal event stream.
fn spans_of(events: &[&Event]) -> BTreeMap<u64, Span> {
    let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
    for e in events {
        let Some(ctx) = TraceCtx::from_event(e) else {
            continue;
        };
        let span_id = ctx.span_id;
        match e.name.as_str() {
            "task.assigned" => {
                spans.insert(
                    span_id,
                    Span {
                        trace: ctx.trace_id,
                        parent: ctx.parent,
                        job: display_field(e, "job").unwrap_or_default(),
                        phone: display_field(e, "phone").unwrap_or_default(),
                        len_kb: u64_field(e, "len_kb").unwrap_or(0),
                        offset_kb: u64_field(e, "offset_kb").unwrap_or(0),
                        rescheduled: matches!(e.get("rescheduled"), Some(Value::Bool(true))),
                        assigned_us: e.time_us,
                        end: None,
                    },
                );
            }
            "task.complete" | "segment.execute" => {
                if let Some(s) = spans.get_mut(&span_id) {
                    s.end = Some((e.time_us, "completed"));
                }
            }
            "task.failed" => {
                if let Some(s) = spans.get_mut(&span_id) {
                    s.end = Some((e.time_us, "failed"));
                }
            }
            "task.stalled" => {
                if let Some(s) = spans.get_mut(&span_id) {
                    s.end = Some((e.time_us, "stalled"));
                }
            }
            _ => {}
        }
    }
    spans
}

fn write_span_line(out: &mut String, id: u64, s: &Span) {
    let _ = write!(
        out,
        "  span {id} trace {} job {} phone {} [{}..{}] kb {} @{}",
        s.trace,
        s.job,
        s.phone,
        s.offset_kb,
        s.offset_kb + s.len_kb,
        s.len_kb,
        s.assigned_us
    );
    match s.end {
        Some((t, verb)) => {
            let _ = write!(
                out,
                " -> {verb} @{t} ({} us)",
                t.saturating_sub(s.assigned_us)
            );
        }
        None => out.push_str(" -> (no terminal event)"),
    }
    if s.rescheduled {
        out.push_str(" [rescheduled]");
    }
    if let Some(p) = s.parent {
        let _ = write!(out, " <- parent {p}");
    }
    out.push('\n');
}

/// Renders the full forensic report for a captured event stream.
///
/// Pure and deterministic: only kernel-causal events (see [`is_causal`])
/// contribute, in stream order, and bus `seq` numbers are never read —
/// so a live capture and a script replay of the same run yield
/// byte-identical reports.
pub fn analyze(events: &[Event]) -> String {
    let causal: Vec<&Event> = events.iter().filter(|e| is_causal(e)).collect();
    let spans = spans_of(&causal);
    let mut out = String::new();
    out.push_str("== cwc-trace run forensics ==\n");
    let roots = spans.values().filter(|s| s.parent.is_none()).count();
    let traces: std::collections::BTreeSet<u64> = spans.values().map(|s| s.trace).collect();
    let _ = writeln!(
        out,
        "causal events: {}  spans: {}  roots: {}  traces: {}",
        causal.len(),
        spans.len(),
        roots,
        traces.len()
    );

    // --- critical path -------------------------------------------------
    out.push_str("\n-- critical path --\n");
    let first_assign = spans.values().map(|s| s.assigned_us).min();
    let last = spans
        .iter()
        .filter_map(|(&id, s)| match s.end {
            Some((t, "completed")) => Some((t, id)),
            _ => None,
        })
        .max();
    match (first_assign, last) {
        (Some(t0), Some((t1, last_id))) => {
            let _ = writeln!(out, "makespan window: {t0}..{t1} us ({} us)", t1 - t0);
            // Walk the re-placement ancestry of the chunk that finished
            // last: this chain *is* the makespan-critical path.
            let mut chain = Vec::new();
            let mut cursor = Some(last_id);
            while let Some(id) = cursor {
                let Some(s) = spans.get(&id) else { break };
                chain.push(id);
                cursor = s.parent;
            }
            let _ = writeln!(
                out,
                "critical chain ({} placement(s), root last):",
                chain.len()
            );
            for id in &chain {
                if let Some(s) = spans.get(id) {
                    write_span_line(&mut out, *id, s);
                }
            }
        }
        _ => out.push_str("no completed span: nothing to chain\n"),
    }

    // --- per-phone utilization -----------------------------------------
    out.push_str("\n-- per-phone utilization --\n");
    let mut per_phone: BTreeMap<String, Vec<(u64, &Span)>> = BTreeMap::new();
    for (&id, s) in &spans {
        per_phone.entry(s.phone.clone()).or_default().push((id, s));
    }
    let window = match (first_assign, last) {
        (Some(t0), Some((t1, _))) => (t1 - t0).max(1),
        _ => 1,
    };
    for (phone, mut items) in per_phone {
        items.sort_by_key(|(id, s)| (s.assigned_us, *id));
        let busy: u64 = items
            .iter()
            .filter_map(|(_, s)| s.end.map(|(t, _)| t.saturating_sub(s.assigned_us)))
            .sum();
        let _ = writeln!(
            out,
            "phone {phone}: chunks {}  busy {} us  window-share {:.1}%",
            items.len(),
            busy,
            100.0 * busy as f64 / window as f64
        );
        for (id, s) in items {
            write_span_line(&mut out, id, s);
        }
    }

    // --- reschedule waterfall ------------------------------------------
    out.push_str("\n-- reschedule waterfall --\n");
    let mut any = false;
    for e in &causal {
        if !WATERFALL_EVENTS.contains(&e.name.as_str()) {
            continue;
        }
        any = true;
        let _ = write!(out, "@{} {}", e.time_us, e.name);
        for (k, v) in &e.fields {
            if k == "msg" {
                continue;
            }
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        // Show which placements each recovery action minted: children
        // assigned at or after this instant whose parent ended before it.
        if e.name == "migration" || e.name == "schedule.round" {
            for (&id, s) in &spans {
                if s.parent.is_some() && s.assigned_us >= e.time_us && s.rescheduled {
                    // Only attribute spans not claimed by a later action.
                    let later = causal.iter().any(|e2| {
                        (e2.name == "migration" || e2.name == "schedule.round")
                            && e2.time_us > e.time_us
                            && s.assigned_us >= e2.time_us
                    });
                    if !later {
                        write_span_line(&mut out, id, s);
                    }
                }
            }
        }
    }
    if !any {
        out.push_str("(no failures: the initial schedule ran to completion)\n");
    }
    out
}

// --- record / replay harness -------------------------------------------
//
// The same three-job batch and policy the live replay gate uses, exposed
// so the `cwc-trace` binary and the byte-identity test share one recipe:
// a recorded capture can always be replayed against an identically
// configured kernel.

/// The reference batch recorded by `cwc-trace record`: two breakable
/// jobs plus one atomic job, inputs derived from `seed`.
pub fn demo_batch(seed: u64) -> Vec<LiveJob> {
    vec![
        LiveJob::new(
            JobId(0),
            JobKind::Breakable,
            "primecount",
            30,
            inputs::number_file(96, seed ^ 5),
        ),
        LiveJob::new(
            JobId(1),
            JobKind::Breakable,
            "wordcount",
            25,
            inputs::text_file(64, seed ^ 6, "lowes"),
        ),
        LiveJob::new(
            JobId(2),
            JobKind::Atomic,
            "photoblur",
            40,
            inputs::image_file(96, 64, seed ^ 7),
        ),
    ]
}

/// The live policy paired with [`demo_batch`]: tight keep-alives and a
/// 2 s stall watchdog, so loopback runs actually exercise the recovery
/// machinery.
pub fn demo_policy() -> LivePolicy {
    LivePolicy {
        stall_timeout: Duration::from_secs(2),
        keepalive_period: Duration::from_millis(200),
        breaker: BreakerConfig {
            threshold: 4,
            window: Duration::from_secs(30),
        },
        ..Default::default()
    }
}

/// Runs [`demo_batch`] over `workers` in-process loopback workers and
/// captures the full event stream (the kernel's causal events plus the
/// recorded coordinator script). `drop_rate` installs server-side frame
/// drops; `extra_sinks` builds additional sinks to attach alongside the
/// capture sink (e.g. a JSONL file, or a flight recorder sharing the
/// run's metrics registry).
#[allow(clippy::disallowed_methods)] // the workers are loopback threads
pub fn record_demo_run(
    seed: u64,
    workers: u32,
    drop_rate: Option<f64>,
    extra_sinks: impl FnOnce(&Obs) -> Vec<Arc<dyn EventSink>>,
) -> CwcResult<(LiveOutcome, Vec<Event>)> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| cwc_types::CwcError::Config(format!("bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| cwc_types::CwcError::Config(format!("local addr: {e}")))?;
    for i in 0..workers {
        let cfg = WorkerConfig::new(PhoneId(i), 1200, 500.0);
        let unplug = Arc::new(AtomicBool::new(false));
        let registry = standard_registry();
        thread::spawn(move || {
            let obs = Obs::new();
            let _ = run_worker_chaos(addr, cfg, registry, unplug, &obs, None);
        });
    }
    let obs = Obs::new();
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    for extra in extra_sinks(&obs) {
        obs.bus.attach(extra);
    }
    let mut pol = demo_policy();
    pol.chaos = drop_rate.map(|p| FaultPlan::new(seed, FaultProfile::single(FaultKind::Drop, p)));
    let out = run_live_server_with(
        listener,
        workers as usize,
        demo_batch(seed),
        standard_registry(),
        SchedulerKind::Greedy,
        Duration::from_secs(120),
        pol,
        &obs,
    )?;
    obs.flush();
    Ok((out, sink.snapshot()))
}

/// Replays the coordinator script embedded in a capture through a fresh,
/// identically configured kernel and returns the events *that kernel*
/// emits. [`analyze`] of the result is byte-identical to [`analyze`] of
/// the original capture.
pub fn replay_capture(events: &[Event], seed: u64) -> CwcResult<Vec<Event>> {
    let steps = script::harvest(events)?;
    let obs = Obs::new();
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    let cfg = live_kernel_config(
        &demo_batch(seed),
        &standard_registry(),
        SchedulerKind::Greedy,
        &demo_policy(),
        obs,
    )?;
    let mut kernel = Kernel::new(cfg)?;
    let mut cmds = Vec::new();
    for (now, ev) in steps {
        kernel.step_into(now, ev, &mut cmds);
        cmds.clear();
    }
    Ok(sink.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_obs::TraceCtx;

    fn assigned(t: u64, ctx: TraceCtx, phone: u64, job: u64, off: u64, len: u64) -> Event {
        ctx.stamp(Event::sim(t, "sched", "task.assigned"))
            .field("phone", phone)
            .field("slot", phone)
            .field("seq", 1u64)
            .field("job", job)
            .field("offset_kb", off)
            .field("len_kb", len)
            .field("rescheduled", ctx.parent.is_some())
    }

    fn completed(t: u64, ctx: TraceCtx, phone: u64, job: u64) -> Event {
        ctx.stamp(Event::sim(t, "live", "task.complete"))
            .field("phone", phone)
            .field("job", job)
    }

    #[test]
    fn critical_chain_walks_the_replacement_ancestry() {
        let root = TraceCtx::root(7, 1);
        let child = root.child(2);
        let other = TraceCtx::root(8, 3);
        let events = vec![
            assigned(100, root, 0, 7, 0, 64),
            assigned(150, other, 1, 8, 0, 32),
            completed(400, other, 1, 8),
            root.stamp(Event::sim(500, "failure", "task.failed"))
                .field("phone", 0u64)
                .field("job", 7u64)
                .field("processed_kb", 16u64),
            Event::sim(510, "live", "migration")
                .field("residuals", 1u64)
                .field("survivors", 1u64),
            assigned(520, child, 1, 7, 16, 48),
            completed(900, child, 1, 7),
        ];
        let report = analyze(&events);
        assert!(report.contains("spans: 3  roots: 2  traces: 2"));
        assert!(report.contains("makespan window: 100..900 us (800 us)"));
        assert!(report.contains("critical chain (2 placement(s), root last):"));
        let chain_at = report.find("critical chain").expect("chain section");
        let span2 = report[chain_at..].find("span 2 ").expect("child first");
        let span1 = report[chain_at..].find("span 1 ").expect("root second");
        assert!(span2 < span1, "chain must be printed child -> root");
        assert!(report.contains("@510 migration residuals=1 survivors=1"));
        assert!(report.contains("[rescheduled] <- parent 1"));
    }

    #[test]
    fn analysis_ignores_bus_seq_and_foreign_events() {
        let ctx = TraceCtx::root(1, 1);
        let mut a = vec![assigned(100, ctx, 0, 1, 0, 10), completed(300, ctx, 0, 1)];
        let mut b = vec![
            Event::wall(42, "driver", "run.start").field("jobs", 1u64),
            a[0].clone(),
            Event::wall(77, "worker", "frame.skipped").field("job", 1u64),
            a[1].clone(),
        ];
        // Different bus seq numbers on the two streams.
        for (i, e) in a.iter_mut().enumerate() {
            e.seq = i as u64 + 1;
        }
        for (i, e) in b.iter_mut().enumerate() {
            e.seq = (i as u64 + 1) * 10;
        }
        assert_eq!(analyze(&a), analyze(&b));
    }

    #[test]
    fn fault_free_run_reports_an_empty_waterfall() {
        let ctx = TraceCtx::root(3, 1);
        let report = analyze(&[assigned(10, ctx, 2, 3, 0, 8), completed(50, ctx, 2, 3)]);
        assert!(report.contains("(no failures: the initial schedule ran to completion)"));
        assert!(report.contains("phone 2: chunks 1  busy 40 us"));
    }
}
