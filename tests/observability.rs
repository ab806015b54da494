//! Acceptance test for the workspace observability layer: one simulated
//! engine run with an injected failure must produce (a) a machine-readable
//! JSONL event log that parses back into [`cwc::obs::Event`]s, and (b) a
//! metrics registry covering per-phase span timings, per-phone transfer
//! volume, keep-alive misses, reschedule rounds, and the greedy
//! scheduler's binary-search convergence work.

use cwc::obs::{Event, MemorySink, Obs, TraceCtx};
use cwc::server::workload::WorkloadBuilder;
use cwc::server::{Engine, EngineConfig, FailureInjection};
use cwc::types::{Micros, PhoneId};
use std::collections::HashSet;
use std::sync::Arc;

fn temp_log(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cwc-obs-accept-{}-{tag}.jsonl", std::process::id()))
}

#[test]
fn engine_run_produces_jsonl_events_and_a_metrics_report() {
    let obs = Obs::new();
    let path = temp_log("engine");
    obs.attach_jsonl(&path).expect("writable temp dir");

    // One offline failure: three missed keep-alives, then a reschedule.
    let jobs = WorkloadBuilder::new(9)
        .breakable(8, "primecount", 30, 1_500, 2_500)
        .build();
    let injections = vec![FailureInjection {
        at: Micros::from_secs(60),
        phone: PhoneId(0),
        offline: true,
        replug_at: None,
    }];
    let config = EngineConfig {
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let out = Engine::run_on_testbed(9, jobs, injections, config).unwrap();
    assert_eq!(out.completed_jobs, 8);
    obs.flush();

    // --- The JSONL stream parses back, line by line. ---
    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<cwc::obs::Event> = text
        .lines()
        .map(|l| cwc::obs::Event::from_json(l).expect("every line is a valid event"))
        .collect();
    assert!(events.len() >= 20, "only {} events", events.len());
    let names: HashSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for expected in [
        "run.start",
        "schedule.initial",
        "segment.transfer",
        "segment.execute",
        "phone.unplugged",
        "phone.offline_detected",
        "schedule.round",
        "job.complete",
        "run.complete",
    ] {
        assert!(names.contains(expected), "missing event {expected}");
    }
    // Sequence numbers come out strictly increasing — a total order.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }

    // --- Per-phase span timings. ---
    assert!(
        obs.metrics.histogram("span.schedule_us").count() >= 2,
        "initial schedule + at least one reschedule"
    );
    assert!(obs.metrics.histogram("span.transfer_ms").count() > 0);
    assert!(obs.metrics.histogram("span.execute_ms").count() > 0);

    // --- Per-phone bytes transferred. ---
    let mut per_phone = obs.metrics.report().counters;
    per_phone.retain(|(name, _)| name.starts_with("net.kb_transferred."));
    assert!(
        per_phone.len() >= 2,
        "expected several phones to receive data, got {per_phone:?}"
    );
    assert!(per_phone.iter().all(|(_, kb)| *kb > 0));

    // --- Failure-handling counters. ---
    assert!(
        obs.metrics.counter_value("engine.keepalive_miss") >= 3,
        "offline detection tolerates 3 missed keep-alives"
    );
    assert!(obs.metrics.counter_value("engine.reschedule_rounds") >= 1);
    assert_eq!(obs.metrics.counter_value("engine.failures_injected"), 1);

    // --- Scheduler convergence work. ---
    assert!(obs.metrics.counter_value("sched.greedy.binsearch_iters") > 0);
    assert!(
        obs.metrics.counter_value("sched.greedy.pack_calls")
            > obs.metrics.counter_value("sched.greedy.binsearch_iters")
    );
    // The reschedule instant warm-starts from the initial instant's
    // converged window: the hint must land and be reported.
    assert!(
        obs.metrics.counter_value("sched.greedy.warm_hits") >= 1,
        "rescheduling after the failure should reuse the initial window"
    );
    assert!(
        names.contains("greedy.warm_start"),
        "warm-started instants emit a greedy.warm_start event"
    );

    // --- The run-level gauges landed. ---
    assert!(obs.metrics.gauge_value("engine.makespan_ms").unwrap() > 0.0);
    assert_eq!(
        obs.metrics.gauge_value("engine.completed_jobs").unwrap(),
        8.0
    );

    // --- And the rendered report mentions all of it. ---
    let rendered = obs.metrics.report().render_text();
    for needle in [
        "span.schedule_us",
        "span.transfer_ms",
        "span.execute_ms",
        "engine.keepalive_miss",
        "engine.reschedule_rounds",
        "sched.greedy.binsearch_iters",
        "net.kb_transferred.",
    ] {
        assert!(rendered.contains(needle), "report missing {needle}");
    }

    std::fs::remove_file(&path).ok();
}

/// Events of `name` that carry a span stamp, as `(ctx, event)` pairs in
/// bus order.
fn stamped<'a>(events: &'a [Event], name: &str) -> Vec<(TraceCtx, &'a Event)> {
    events
        .iter()
        .filter(|e| e.name == name)
        .filter_map(|e| TraceCtx::from_event(e).map(|ctx| (ctx, e)))
        .collect()
}

#[test]
fn sim_run_links_each_chunk_lifecycle_into_one_span_tree() {
    // A failure injection forces requeues, so the capture holds both root
    // placements and rescheduled child spans.
    let obs = Obs::new();
    let sink = Arc::new(MemorySink::new());
    obs.bus.attach(sink.clone());
    let jobs = WorkloadBuilder::new(9)
        .breakable(8, "primecount", 30, 1_500, 2_500)
        .build();
    let injections = vec![FailureInjection {
        at: Micros::from_secs(60),
        phone: PhoneId(0),
        offline: true,
        replug_at: None,
    }];
    let config = EngineConfig {
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    Engine::run_on_testbed(9, jobs, injections, config).unwrap();
    obs.flush();
    let events = sink.snapshot();

    let assigned = stamped(&events, "task.assigned");
    assert!(!assigned.is_empty(), "no stamped task.assigned events");

    // Every placement the kernel ships is stamped, and span ids are
    // unique: one span per placement.
    let total_assigned = events.iter().filter(|e| e.name == "task.assigned").count();
    assert_eq!(
        assigned.len(),
        total_assigned,
        "an assignment lost its stamp"
    );
    let span_ids: HashSet<u64> = assigned.iter().map(|(ctx, _)| ctx.span_id).collect();
    assert_eq!(span_ids.len(), assigned.len(), "span ids must be unique");

    // Full lifecycle for one chunk: a surviving assignment's transfer and
    // execute segments carry the *same* trace and span, in causal order.
    // (Placements interrupted by the injected failure never finish their
    // transfer — those spans end at the requeue instead.)
    let transfers = stamped(&events, "segment.transfer");
    let executes = stamped(&events, "segment.execute");
    let mut full_lifecycles = 0;
    for (ctx, assign_ev) in &assigned {
        let Some(transfer) = transfers.iter().find(|(c, _)| c.span_id == ctx.span_id) else {
            continue;
        };
        let Some(execute) = executes.iter().find(|(c, _)| c.span_id == ctx.span_id) else {
            continue;
        };
        assert_eq!(transfer.0.trace_id, ctx.trace_id);
        assert_eq!(execute.0.trace_id, ctx.trace_id);
        assert!(assign_ev.time_us <= transfer.1.time_us);
        assert!(transfer.1.time_us <= execute.1.time_us);
        full_lifecycles += 1;
    }
    assert!(
        full_lifecycles > 0,
        "at least one chunk must complete its assign -> transfer -> execute chain"
    );

    // Root placements have no parent; the injected failure produces at
    // least one rescheduled child whose parent is an earlier placement in
    // the same trace. (Replica/speculative copies are child spans of the
    // primary they shadow, and assigned events carry a `replica` marker.)
    for (ctx, e) in &assigned {
        let rescheduled = matches!(e.get("rescheduled"), Some(cwc::obs::Value::Bool(true)));
        let replica = matches!(e.get("replica"), Some(cwc::obs::Value::Bool(true)));
        assert_eq!(
            ctx.parent.is_some(),
            rescheduled || replica,
            "parent iff rescheduled-or-replica"
        );
    }
    let linked_child = assigned.iter().any(|(child, _)| {
        child.parent.is_some_and(|p| {
            assigned
                .iter()
                .any(|(anc, _)| anc.span_id == p && anc.trace_id == child.trace_id)
        })
    });
    assert!(
        linked_child,
        "the failure must produce a child span linked to an assigned ancestor"
    );
}

mod live_tracing {
    use super::*;
    use cwc::core::SchedulerKind;
    use cwc::obs::{Clock, Severity, Value};
    use cwc::server::coord::{script, Kernel};
    use cwc::server::{
        live_kernel_config, run_live_server_with, run_worker, LiveJob, LivePolicy, WorkerConfig,
    };
    use cwc::tasks::{inputs, standard_registry};
    use cwc::types::{JobId, JobKind};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn live_jobs() -> Vec<LiveJob> {
        vec![
            LiveJob::new(
                JobId(0),
                JobKind::Breakable,
                "primecount",
                30,
                inputs::number_file(64, 11),
            ),
            LiveJob::new(
                JobId(1),
                JobKind::Atomic,
                "wordcount",
                25,
                inputs::text_file(48, 12, "lowes"),
            ),
        ]
    }

    /// Runs the two-job batch over loopback TCP workers and returns the
    /// captured server-side event stream.
    #[allow(clippy::disallowed_methods)]
    fn capture_live_run() -> Vec<Event> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for i in 0..2u32 {
            let cfg = WorkerConfig::new(PhoneId(i), 1200, 500.0);
            let unplug = Arc::new(AtomicBool::new(false));
            std::thread::spawn(move || {
                let _ = run_worker(addr, cfg, standard_registry(), unplug);
            });
        }
        let obs = Obs::new();
        let sink = Arc::new(MemorySink::new());
        obs.bus.attach(sink.clone());
        let out = run_live_server_with(
            listener,
            2,
            live_jobs(),
            standard_registry(),
            SchedulerKind::Greedy,
            Duration::from_secs(60),
            LivePolicy::default(),
            &obs,
        )
        .unwrap();
        assert!(
            out.failure.is_none(),
            "live run degraded: {:?}",
            out.failure
        );
        assert_eq!(out.results.len(), 2);
        obs.flush();
        sink.snapshot()
    }

    #[test]
    fn live_run_links_assignment_and_report_under_one_span() {
        let events = capture_live_run();
        let assigned = stamped(&events, "task.assigned");
        assert!(!assigned.is_empty(), "no stamped task.assigned events");
        let completed = stamped(&events, "task.complete");
        assert!(!completed.is_empty(), "no stamped task.complete events");

        // assign -> ship (over the wire, ctx in the ShipInput frame) ->
        // report: the completion closes exactly the span that was opened
        // by its assignment.
        for (done, done_ev) in &completed {
            let (open, open_ev) = assigned
                .iter()
                .find(|(a, _)| a.span_id == done.span_id)
                .expect("every completion matches an assignment span");
            assert_eq!(open.trace_id, done.trace_id);
            assert_eq!(open.parent, done.parent);
            assert_eq!(open_ev.get("job"), done_ev.get("job"));
            assert!(open_ev.time_us <= done_ev.time_us);
        }

        // Fault-free run: every placement is a root span.
        assert!(assigned.iter().all(|(ctx, _)| ctx.parent.is_none()));
    }

    /// The three events every chunk pays for are built lazily
    /// (`Obs::emit_with`); what a listener receives must not have moved:
    /// scope, clock, severity, and the fields by key, order and type.
    #[test]
    fn per_chunk_events_reach_a_sink_field_for_field() {
        let events = capture_live_run();
        let kind = |v: &Value| match v {
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
        };
        type Shape<'a> = (&'a str, &'a str, &'a [(&'a str, &'a str)]);
        let shapes: [Shape; 3] = [
            ("coord.event", "coord", &[("script", "str")]),
            (
                "task.assigned",
                "sched",
                &[
                    ("trace", "u64"),
                    ("span", "u64"),
                    ("phone", "u64"),
                    ("slot", "u64"),
                    ("seq", "u64"),
                    ("job", "u64"),
                    ("offset_kb", "u64"),
                    ("len_kb", "u64"),
                    ("rescheduled", "bool"),
                    ("replica", "bool"),
                ],
            ),
            (
                "task.complete",
                "live",
                &[
                    ("trace", "u64"),
                    ("span", "u64"),
                    ("phone", "u64"),
                    ("job", "u64"),
                    ("kb", "u64"),
                    ("exec_ms", "f64"),
                ],
            ),
        ];
        for (name, scope, fields) in shapes {
            let of_name: Vec<&Event> = events.iter().filter(|e| e.name == name).collect();
            assert!(!of_name.is_empty(), "no {name} events captured");
            for e in of_name {
                assert_eq!(e.scope, scope, "{name}");
                assert_eq!(e.clock, Clock::Wall, "{name}");
                assert_eq!(e.severity, Severity::Debug, "{name}");
                let got: Vec<(&str, &str)> = e
                    .fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), kind(v)))
                    .collect();
                assert_eq!(got, fields, "{name}");
            }
        }
        // One recorded step per line, and every line is its own encoding.
        for (now, ev) in script::harvest(&events).unwrap() {
            let line = script::encode(now, &ev);
            assert_eq!(script::decode(&line).unwrap(), (now, ev));
        }
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("task.assigned"), count("task.complete"));
    }

    #[test]
    fn replaying_the_coordinator_script_reproduces_the_exact_trace() {
        let events = capture_live_run();

        // Replay the recorded `(now, event)` script through a fresh,
        // identically configured kernel.
        let steps = script::harvest(&events).unwrap();
        let obs = Obs::new();
        let sink = Arc::new(MemorySink::new());
        obs.bus.attach(sink.clone());
        let cfg = live_kernel_config(
            &live_jobs(),
            &standard_registry(),
            SchedulerKind::Greedy,
            &LivePolicy::default(),
            obs,
        )
        .unwrap();
        let mut kernel = Kernel::new(cfg).unwrap();
        let mut cmds = Vec::new();
        for (now, ev) in steps {
            kernel.step_into(now, ev, &mut cmds);
            cmds.clear();
        }
        let replayed = sink.snapshot();

        // The replayed kernel stamps the same spans at the same recorded
        // instants: the trace is identical, not merely similar.
        let trace_of = |events: &[Event]| -> Vec<(String, u64, u64, u64, Option<u64>)> {
            [
                "task.assigned",
                "task.complete",
                "task.failed",
                "task.stalled",
            ]
            .into_iter()
            .flat_map(|name| stamped(events, name))
            .map(|(ctx, e)| {
                (
                    e.name.clone(),
                    e.time_us,
                    ctx.trace_id,
                    ctx.span_id,
                    ctx.parent,
                )
            })
            .collect()
        };
        let live = trace_of(&events);
        let replay = trace_of(&replayed);
        assert!(!live.is_empty());
        assert_eq!(live, replay, "replayed trace diverged from the capture");
    }
}

#[test]
fn silent_runs_record_metrics_without_any_sink() {
    // No sinks attached: the bus takes its no-op fast path, but metrics
    // still accumulate — observability is always on, never configured in.
    let obs = Obs::new();
    let jobs = WorkloadBuilder::new(5)
        .breakable(4, "wordcount", 25, 800, 1_200)
        .build();
    let config = EngineConfig {
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let out = Engine::run_on_testbed(5, jobs, Vec::new(), config).unwrap();
    assert_eq!(out.completed_jobs, 4);
    assert!(obs.metrics.histogram("span.execute_ms").count() > 0);
    assert_eq!(obs.metrics.counter_value("engine.reschedule_rounds"), 0);
}
