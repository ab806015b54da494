//! Fixture tests: each rule family against violating and clean snippets,
//! with exact finding counts, plus the scrubber's comment/string/test-code
//! masking and the `// cwc-lint: allow(..)` pragma semantics.

use cwc_lint::{analyze_source, default_rules, Finding};

/// Lints one in-memory file; returns `(kept, suppressed)`.
fn lint(rel: &str, krate: &str, src: &str) -> (Vec<Finding>, Vec<Finding>) {
    analyze_source(rel, krate, src, &default_rules())
}

/// Unsuppressed findings only.
fn kept(rel: &str, krate: &str, src: &str) -> Vec<Finding> {
    lint(rel, krate, src).0
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

#[test]
fn determinism_flags_wall_clocks_in_deterministic_crates() {
    let src = "\
fn tick() -> u64 {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    let r = thread_rng();
    0
}
";
    let findings = kept("crates/core/src/x.rs", "core", src);
    assert_eq!(findings.len(), 3, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "determinism"));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

#[test]
fn determinism_does_not_apply_outside_deterministic_scope() {
    // Same source placed in a crate with no determinism contract: the wall
    // clock is that crate's business.
    let src = "fn tick() { let _ = std::time::Instant::now(); }\n";
    assert!(kept("crates/obs/src/x.rs", "obs", src).is_empty());
}

#[test]
fn determinism_flags_hash_map_iteration_but_not_btree() {
    let violating = "\
use std::collections::HashMap;
fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    for (k, v) in m.iter() {
        let _ = (k, v);
    }
}
";
    let findings = kept("crates/sim/src/x.rs", "sim", violating);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "determinism");
    assert_eq!(findings[0].line, 5);

    let clean = violating.replace("HashMap", "BTreeMap");
    assert!(kept("crates/sim/src/x.rs", "sim", &clean).is_empty());
}

#[test]
fn determinism_holds_engine_rs_to_the_deterministic_bar() {
    // The rest of cwc-server may read clocks; the schedule-producing
    // engine may not.
    let src = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    let findings = kept("crates/server/src/engine.rs", "server", src);
    assert_eq!(findings.len(), 1);
    assert!(kept("crates/server/src/fleet.rs", "server", src).is_empty());
}

#[test]
fn determinism_covers_the_coordinator_kernel() {
    // The sans-IO kernel is in the full determinism scope: wall-clock reads
    // fire (alongside the sans_io rule, which bans the types themselves).
    let src = "fn f() { let _ = std::time::Instant::now(); }\n";
    let findings = kept("crates/server/src/coord/kernel.rs", "server", src);
    assert_eq!(
        findings.iter().filter(|f| f.rule == "determinism").count(),
        1,
        "findings: {findings:?}"
    );
}

#[test]
fn live_rs_allows_wall_clocks_but_not_hash_iteration() {
    // The live driver owns real sockets and clocks, so wall-clock reads are
    // its business...
    let clock = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(kept("crates/server/src/live.rs", "server", clock).is_empty());

    // ...but the order it feeds events to the kernel decides the command
    // stream, so hash-order iteration still fires.
    let hashed = "\
use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    for (k, v) in m.iter() {
        let _ = (k, v);
    }
}
";
    let findings = kept("crates/server/src/live.rs", "server", hashed);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "determinism");
    assert_eq!(findings[0].line, 4);
}

#[test]
fn reactor_rs_allows_sockets_but_not_hash_iteration() {
    // The reactor owns sockets by design; readiness/timer *order* still
    // feeds the kernel, so hash-order iteration is banned.
    let sockets = "\
use std::net::{TcpListener, TcpStream};
fn f(l: &TcpListener) -> std::io::Result<TcpStream> {
    l.accept().map(|(s, _)| s)
}
";
    assert!(kept("crates/net/src/reactor.rs", "net", sockets).is_empty());

    let hashed = "\
use std::collections::HashMap;
fn f() {
    let m: HashMap<u64, u64> = HashMap::new();
    for k in m.keys() {
        let _ = k;
    }
}
";
    let findings = kept("crates/net/src/reactor.rs", "net", hashed);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "determinism");
    assert_eq!(findings[0].line, 4);
}

// ---------------------------------------------------------------------------
// Sans-IO kernel purity
// ---------------------------------------------------------------------------

#[test]
fn sans_io_flags_io_primitives_in_the_kernel() {
    let src = "\
use std::time::Duration;
use std::net::TcpStream;
fn f() {
    std::thread::spawn(|| ());
}
";
    let findings = kept("crates/server/src/coord/kernel.rs", "server", src);
    let sans: Vec<_> = findings.iter().filter(|f| f.rule == "sans_io").collect();
    // std::time; std::net + TcpStream; std::thread + spawn.
    assert_eq!(sans.len(), 5, "findings: {findings:?}");
    assert_eq!(
        sans.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![1, 2, 2, 4, 4]
    );
}

#[test]
fn sans_io_scope_is_the_coord_directory_only() {
    // Elsewhere in the server crate, threads and sockets are the point.
    let src = "\
use std::net::TcpStream;
fn f() {
    std::thread::spawn(|| ());
}
";
    assert!(kept("crates/server/src/fleet.rs", "server", src).is_empty());
}

#[test]
fn sans_io_reactor_scope_bans_clocks_sleeps_and_threads() {
    // The reduced reactor variant: sockets and Durations are fine, but the
    // reactor must never read a clock, block, or spawn — waits become
    // timer-wheel entries the driver owns.
    let src = "\
use std::time::Duration;
fn f() {
    let t = Instant::now();
    std::thread::sleep(Duration::from_millis(1));
}
";
    let findings = kept("crates/net/src/reactor.rs", "net", src);
    let sans: Vec<_> = findings.iter().filter(|f| f.rule == "sans_io").collect();
    // Instant; std::thread + sleep.
    assert_eq!(sans.len(), 3, "findings: {findings:?}");
    assert_eq!(
        sans.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![3, 4, 4]
    );

    // Elsewhere in cwc-net (the blocking transport), sleeps are legal.
    assert!(kept("crates/net/src/tcp.rs", "net", src).is_empty());
}

#[test]
fn sans_io_accepts_a_pure_kernel_step() {
    let src = "\
pub fn step(now: Micros, ev: CoordEvent) -> Vec<CoordCommand> {
    let _ = (now, ev);
    Vec::new()
}
";
    assert!(kept("crates/server/src/coord/kernel.rs", "server", src).is_empty());
}

// ---------------------------------------------------------------------------
// Panic-safety
// ---------------------------------------------------------------------------

#[test]
fn panic_safety_flags_unwrap_expect_and_indexing_in_net() {
    let src = "\
fn f(v: Vec<u8>) -> u8 {
    let a = v.first().unwrap();
    let b = v.first().expect(\"non-empty\");
    let _ = (a, b);
    v[0]
}
";
    let findings = kept("crates/net/src/x.rs", "net", src);
    assert_eq!(findings.len(), 3, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "panic_safety"));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3, 5]
    );
}

#[test]
fn panic_safety_ignores_slice_types_and_keyword_brackets() {
    let src = "\
fn f(buf: &[u8], scratch: &'static [u8]) -> Vec<u8> {
    let v: Vec<&mut [u8]> = Vec::new();
    let _ = (buf, scratch, v);
    return [1u8, 2].to_vec();
}
";
    assert!(kept("crates/net/src/x.rs", "net", src).is_empty());
}

#[test]
fn panic_safety_scope_is_net_live_resilience_and_scheduler_hot_path() {
    let src = "fn f(v: Vec<u8>) -> u8 { v[0] }\n";
    assert_eq!(kept("crates/net/src/x.rs", "net", src).len(), 1);
    assert_eq!(kept("crates/server/src/live.rs", "server", src).len(), 1);
    assert_eq!(
        kept("crates/server/src/resilience.rs", "server", src).len(),
        1
    );
    // The scheduler hot path runs on the failure-recovery critical path.
    assert_eq!(kept("crates/core/src/greedy.rs", "core", src).len(), 1);
    assert_eq!(kept("crates/core/src/pack.rs", "core", src).len(), 1);
    // So does derisking, which also digests profiler-derived inputs that
    // may be malformed.
    assert_eq!(kept("crates/core/src/reliability.rs", "core", src).len(), 1);
    // Out of scope: the engine panics loudly by design.
    assert!(kept("crates/server/src/engine.rs", "server", src).is_empty());
    // The rest of cwc-core stays out of scope (problem.rs validates its
    // inputs and panics loudly on internal invariant breaks).
    assert!(kept("crates/core/src/problem.rs", "core", src).is_empty());
    // net's own tests are out of scope too ("/src/" only).
    assert!(kept("crates/net/tests/x.rs", "net", src).is_empty());
}

#[test]
fn panic_safety_greedy_hot_path_tokens_are_flagged() {
    // The latent panic this scope extension exists to keep out: an
    // unwrapped partial_cmp in a sort comparator.
    let src = "\
fn sort(items: &mut Vec<(usize, f64)>) {
    items.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
}
";
    let findings = kept("crates/core/src/greedy.rs", "core", src);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "panic_safety");
    assert_eq!(findings[0].line, 2);
}

// ---------------------------------------------------------------------------
// Unit-safety
// ---------------------------------------------------------------------------

#[test]
fn unit_safety_flags_mixed_suffix_arithmetic() {
    let src = "\
fn f(elapsed_ms: u64, shipped_kb: u64) -> u64 {
    elapsed_ms + shipped_kb
}
";
    let findings = kept("crates/obs/src/x.rs", "obs", src);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "unit_safety");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn unit_safety_allows_same_unit_and_rate_math() {
    let src = "\
fn f(a_ms: u64, b_ms: u64, size_kb: u64) -> u64 {
    let total_ms = a_ms + b_ms;
    total_ms * size_kb
}
";
    assert!(kept("crates/obs/src/x.rs", "obs", src).is_empty());
}

#[test]
fn unit_safety_sees_through_field_chains() {
    let src = "\
fn f(span: Span, size_kb: u64) -> bool {
    span.elapsed_ms > size_kb
}
";
    assert_eq!(kept("crates/obs/src/x.rs", "obs", src).len(), 1);
}

// ---------------------------------------------------------------------------
// Protocol exhaustiveness
// ---------------------------------------------------------------------------

#[test]
fn protocol_rule_flags_frame_variant_missing_from_decode() {
    let src = "\
pub enum Frame {
    Ping,
    Payload(u32),
}
impl Frame {
    pub fn encode(&self) -> u8 {
        match self {
            Frame::Ping => 0,
            Frame::Payload(_) => 1,
        }
    }
    pub fn decode_body(tag: u8) -> Option<Frame> {
        match tag {
            0 => Some(Frame::Ping),
            _ => None,
        }
    }
}
";
    let findings = kept("crates/net/src/protocol.rs", "net", src);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "protocol_exhaustiveness");
    assert!(findings[0].message.contains("Payload"));
    assert!(findings[0].message.contains("decode_body"));
}

#[test]
fn protocol_rule_accepts_exhaustive_frame_handling() {
    let src = "\
pub enum Frame {
    Ping,
    Payload(u32),
}
impl Frame {
    pub fn encode(&self) -> u8 {
        match self {
            Frame::Ping => 0,
            Frame::Payload(_) => 1,
        }
    }
    pub fn decode_body(tag: u8) -> Option<Frame> {
        match tag {
            0 => Some(Frame::Ping),
            1 => Some(Frame::Payload(0)),
            _ => None,
        }
    }
}
";
    assert!(kept("crates/net/src/protocol.rs", "net", src).is_empty());
}

#[test]
fn protocol_rule_flags_fault_kind_missing_from_all() {
    let src = "\
pub enum FaultKind {
    Drop,
    Delay,
}
impl FaultKind {
    pub const ALL: [FaultKind; 1] = [FaultKind::Drop];
    pub fn script() -> Vec<FaultKind> {
        vec![FaultKind::Drop]
    }
}
";
    let findings = kept("crates/chaos/src/plan.rs", "chaos", src);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "protocol_exhaustiveness");
    assert!(findings[0].message.contains("Delay"));
}

#[test]
fn protocol_rule_requires_a_fault_script_constructor() {
    let src = "\
pub enum FaultKind {
    Drop,
}
impl FaultKind {
    pub const ALL: [FaultKind; 1] = [FaultKind::Drop];
}
";
    let findings = kept("crates/chaos/src/plan.rs", "chaos", src);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert!(findings[0].message.contains("fault-script constructor"));
}

// ---------------------------------------------------------------------------
// Observability routing
// ---------------------------------------------------------------------------

#[test]
fn obs_routing_flags_bare_prints_in_instrumented_crates() {
    let src = "\
fn narrate(phone: u32) {
    println!(\"assigned to {phone}\");
    eprintln!(\"phone {phone} went dark\");
}
";
    for (rel, krate) in [
        ("crates/core/src/x.rs", "core"),
        ("crates/server/src/live.rs", "server"),
        ("crates/net/src/x.rs", "net"),
        ("crates/device/src/x.rs", "device"),
    ] {
        let findings = kept(rel, krate, src);
        assert_eq!(findings.len(), 2, "{rel}: {findings:?}");
        assert!(findings.iter().all(|f| f.rule == "obs_routing"));
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3],
            "{rel}"
        );
    }
}

#[test]
fn obs_routing_counts_every_occurrence_on_a_line() {
    // Distinct macros on one line produce distinct findings (identical
    // findings on a line are deduplicated by the analyzer, as elsewhere).
    let src = "\
fn f(a: u32, b: u32) {
    println!(\"{a}\"); eprintln!(\"{b}\");
}
";
    let findings = kept("crates/server/src/x.rs", "server", src);
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 2]
    );
}

#[test]
fn obs_routing_skips_lookalikes_and_bus_emissions() {
    // writeln! targets an explicit sink, my_println! is someone else's
    // macro, and a bare `println` identifier is not a macro call at all.
    let src = "\
use std::io::Write;
fn f(mut w: impl Write, obs: &Obs) {
    writeln!(w, \"to an explicit sink\").unwrap();
    my_println!(\"custom macro\");
    let println = 3;
    let _ = println;
    obs.emit(cwc_obs::Event::wall(0, \"sched\", \"task.assigned\"));
}
";
    assert!(kept("crates/server/src/x.rs", "server", src).is_empty());
}

#[test]
fn obs_routing_wants_the_lazy_emit_on_the_per_chunk_path() {
    // Line 2 builds an event nobody may be listening for; line 3 only
    // builds it behind the bus's sink check; line 4 is a different method.
    let src = "\
fn step(obs: &Obs, bus: &Bus) {
    obs.emit(cwc_obs::Event::wall(0, \"sched\", \"task.assigned\"));
    obs.emit_with(|| cwc_obs::Event::wall(0, \"sched\", \"task.assigned\"));
    bus.re_emit(3);
}
";
    for rel in [
        "crates/server/src/coord/kernel.rs",
        "crates/server/src/coord/script.rs",
        "crates/server/src/live.rs",
        "crates/server/src/engine.rs",
    ] {
        let findings = kept(rel, "server", src);
        assert_eq!(findings.len(), 1, "{rel}: {findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), ("obs_routing", 2));
    }
    // Off that path the eager form stays legal (once-per-run narration).
    assert!(kept("crates/core/src/greedy.rs", "core", src).is_empty());
}

#[test]
fn obs_routing_rejects_a_metric_name_formatted_per_write() {
    // Lines 2 and 5 format a name inside the write (5 in the chain shape
    // rustfmt produces); line 7 formats once into a handle, line 8 writes
    // to it, line 9 writes a literal name, and line 10's `format!` sits
    // in a second call beside the write, not inside it.
    let src = "\
fn ship(obs: &Obs, wid: u32, kb: u64) {
    obs.metrics.inc(&format!(\"sched.{wid}.shipped\"));
    obs
        .metrics
        .add(&format!(\"net.kb_shipped.{wid}\"), kb);
    obs.metrics.observe(&[\"a\", \"b\"].concat(), kb as f64);
    let shipped = obs.metrics.counter(&format!(\"net.kb_shipped.{wid}\"));
    shipped.add(kb);
    obs.metrics.add(\"live.migrated\", kb);
    obs.metrics.inc(\"live.stalled\"); log(format!(\"{wid}\"));
}
";
    for rel in [
        "crates/server/src/coord/kernel.rs",
        "crates/server/src/live.rs",
        "crates/server/src/engine.rs",
    ] {
        let findings = kept(rel, "server", src);
        let lines: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(lines, [("obs_routing", 2), ("obs_routing", 5)], "{rel}");
    }
    // Elsewhere a formatted name is a once-per-run matter.
    assert!(kept("crates/server/src/shard.rs", "server", src).is_empty());
    assert!(kept("crates/server/src/coord/script.rs", "server", src).is_empty());
}

#[test]
fn obs_routing_exempts_bins_tests_and_uninstrumented_crates() {
    let src = "fn f() { println!(\"hi\"); }\n";
    // CLI entrypoints: stdout is the interface.
    assert!(kept("crates/server/src/bin/cwc_server.rs", "server", src).is_empty());
    // Test code (both whole files and #[cfg(test)] blocks via the scrubber).
    assert!(kept("crates/net/tests/x.rs", "net", src).is_empty());
    let in_test_mod = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        println!(\"debugging a test is fine\");
    }
}
";
    assert!(kept("crates/net/src/x.rs", "net", in_test_mod).is_empty());
    // Crates without the bus contract (obs implements the sinks; bench
    // renders reports to stdout by design).
    assert!(kept("crates/obs/src/x.rs", "obs", src).is_empty());
    assert!(kept("crates/bench/src/x.rs", "bench", src).is_empty());
}

// ---------------------------------------------------------------------------
// Scrubbing: comments, strings, test code
// ---------------------------------------------------------------------------

#[test]
fn violations_inside_comments_and_strings_do_not_fire() {
    let src = "\
fn f() -> String {
    // Instant::now() mentioned in a comment is fine.
    /* so is v[0].unwrap() in a block comment */
    let s = \"Instant::now() and v[0] inside a string literal\";
    s.to_owned()
}
";
    assert!(kept("crates/core/src/x.rs", "core", src).is_empty());
    assert!(kept("crates/net/src/x.rs", "net", src).is_empty());
}

#[test]
fn raw_strings_are_scrubbed_too() {
    let src = "\
fn f() -> &'static str {
    r#\"Instant::now() v[0] .unwrap()\"#
}
";
    assert!(kept("crates/core/src/x.rs", "core", src).is_empty());
    assert!(kept("crates/net/src/x.rs", "net", src).is_empty());
}

#[test]
fn cfg_test_blocks_are_exempt() {
    let src = "\
fn prod(v: &[u8]) -> Option<&u8> {
    v.first()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1u8];
        assert_eq!(*super::prod(&v).unwrap(), v[0]);
        let _ = std::time::Instant::now();
    }
}
";
    assert!(kept("crates/net/src/x.rs", "net", src).is_empty());
    assert!(kept("crates/core/src/x.rs", "core", src).is_empty());
}

#[test]
fn files_under_tests_dirs_are_exempt_entirely() {
    let src = "fn t() { let v = vec![1u8]; let _ = v[0]; let _ = std::time::Instant::now(); }\n";
    assert!(kept("crates/core/tests/x.rs", "core", src).is_empty());
    assert!(kept("crates/net/benches/x.rs", "net", src).is_empty());
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

#[test]
fn inline_pragma_suppresses_and_is_counted() {
    let src = "\
fn f(v: &[u8]) -> u8 {
    v[0] // cwc-lint: allow(panic_safety)
}
";
    let (kept, suppressed) = lint("crates/net/src/x.rs", "net", src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule, "panic_safety");
}

#[test]
fn standalone_pragma_line_covers_the_next_line() {
    let src = "\
fn f(v: &[u8]) -> u8 {
    // Infallible: caller guarantees non-empty. cwc-lint: allow(panic_safety)
    v[0]
}
";
    let (kept, suppressed) = lint("crates/net/src/x.rs", "net", src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed.len(), 1);
}

#[test]
fn pragma_for_a_different_rule_does_not_suppress() {
    let src = "\
fn f(v: &[u8]) -> u8 {
    v[0] // cwc-lint: allow(determinism)
}
";
    let (kept, suppressed) = lint("crates/net/src/x.rs", "net", src);
    assert_eq!(kept.len(), 1);
    assert!(suppressed.is_empty());
}

#[test]
fn allow_all_suppresses_every_rule_on_the_line() {
    let src = "\
fn f(v: &[u8], a_ms: u64, b_kb: u64) -> bool {
    v[0] as u64 + a_ms > b_kb // cwc-lint: allow(all)
}
";
    let (kept, suppressed) = lint("crates/net/src/x.rs", "net", src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert!(!suppressed.is_empty());
}

#[test]
fn pragma_reach_is_one_line_not_the_whole_file() {
    let src = "\
fn f(v: &[u8]) -> u8 {
    // cwc-lint: allow(panic_safety)
    let a = v[0];
    let b = v[1];
    a + b
}
";
    let (kept, suppressed) = lint("crates/net/src/x.rs", "net", src);
    assert_eq!(kept.len(), 1, "kept: {kept:?}");
    assert_eq!(kept[0].line, 4);
    assert_eq!(suppressed.len(), 1);
}

// ---------------------------------------------------------------------------
// Error swallowing
// ---------------------------------------------------------------------------

#[test]
fn error_swallowing_flags_discarded_results() {
    let src = "\
fn f(tx: &Sender) {
    let _ = tx.send(3);
    tx.flush().ok();
}
";
    let findings = kept("crates/net/src/x.rs", "net", src);
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "error_swallowing"));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3]
    );
}

#[test]
fn error_swallowing_skips_consumed_options_and_plain_rebinds() {
    let src = "\
fn f(tx: &Sender, x: u32) -> Option<u32> {
    let _ = x;
    let _ = (x, x);
    let v = tx.recv().ok()?;
    if tx.send(v).ok().is_some() {}
    Some(v)
}
";
    assert!(kept("crates/net/src/x.rs", "net", src).is_empty());
}

#[test]
fn error_swallowing_scope_is_core_server_net_library_code() {
    let src = "fn f(tx: &Sender) { let _ = tx.send(3); }\n";
    // In-scope library code fires...
    assert_eq!(kept("crates/core/src/x.rs", "core", src).len(), 1);
    // ...but other crates, test trees, and CLI entrypoints do not.
    assert!(kept("crates/sim/src/x.rs", "sim", src).is_empty());
    assert!(kept("crates/net/tests/x.rs", "net", src).is_empty());
    assert!(kept("crates/server/src/bin/cwc_server.rs", "server", src).is_empty());
}

#[test]
fn error_swallowing_pragma_keeps_best_effort_discards_visible() {
    let src = "\
fn shutdown(conn: &mut Conn) {
    // Peer may already be gone; the farewell frame is best-effort.
    conn.send(&Frame::Shutdown).ok(); // cwc-lint: allow(error_swallowing)
}
";
    let (kept, suppressed) = lint("crates/server/src/live.rs", "server", src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule, "error_swallowing");
}

// ---------------------------------------------------------------------------
// Kernel state-mutation discipline
// ---------------------------------------------------------------------------

#[test]
fn state_mutation_flags_kernel_field_writes_outside_impl_kernel() {
    // A sibling module under coord/ reaching into the bookkeeping.
    let src = "\
fn hack(k: &mut Kernel) {
    k.finished = true;
    k.next_seq += 1;
}
";
    let findings = kept("crates/server/src/coord/recover.rs", "server", src);
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "state_mutation"));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3]
    );
}

#[test]
fn state_mutation_allows_impl_kernel_in_kernel_rs_only() {
    let src = "\
impl Kernel {
    fn finish(&mut self) {
        self.finished = true;
    }
}
impl CheckView {
    fn poke(&mut self) {
        self.finished = true;
    }
}
fn free(k: &mut Kernel) {
    k.finished = true;
}
";
    let findings = kept("crates/server/src/coord/kernel.rs", "server", src);
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "state_mutation"));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![8, 12]
    );
}

#[test]
fn state_mutation_ignores_reads_comparisons_and_method_calls() {
    let src = "\
impl CheckView {
    fn peek(&self) -> bool {
        self.finished == true && self.progress.len() > 0
    }
}
fn route(k: &mut Kernel) -> u32 {
    k.progress.insert(0, 1);
    match k.next_seq {
        0 => 1,
        _ => 2,
    }
}
";
    assert!(kept("crates/server/src/coord/kernel.rs", "server", src).is_empty());
}

#[test]
fn state_mutation_scope_is_the_coord_directory() {
    // The same write outside coord/ is some other struct's field; the
    // rule stays quiet rather than guess at types.
    let src = "fn f(k: &mut Kernel) { k.finished = true; }\n";
    assert!(kept("crates/server/src/live.rs", "server", src).is_empty());
    assert!(kept("crates/core/src/x.rs", "core", src).is_empty());
}

#[test]
fn state_mutation_covers_fleet_allocator_bookkeeping() {
    // A driver under coord/ reaching into the allocator's conservation
    // accounting — exactly what the residual-steal protocol forbids.
    let src = "\
fn fudge(a: &mut FleetAllocator) {
    a.pending_kb.clear();
    a.chunks_stolen += 1;
    a.lost_workers = 0;
}
";
    let findings = kept("crates/server/src/coord/driver.rs", "server", src);
    // `.clear()` is a method call, not an assignment; the two direct
    // assignments are flagged.
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "state_mutation"));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("FleetAllocator")));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![3, 4]
    );
}

#[test]
fn state_mutation_allows_impl_fleet_allocator_in_fleet_rs_only() {
    let src = "\
impl FleetAllocator {
    fn bump(&mut self) {
        self.rounds_stolen += 1;
    }
}
fn free(a: &mut FleetAllocator) {
    a.rounds_stolen += 1;
}
";
    // Allowed in fleet.rs's own impl; flagged in a free fn, and flagged
    // everywhere when the same impl lives in the wrong file.
    let findings = kept("crates/server/src/coord/fleet.rs", "server", src);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].line, 7);
    let elsewhere = kept("crates/server/src/coord/kernel.rs", "server", src);
    assert_eq!(elsewhere.len(), 2, "findings: {elsewhere:?}");
}

#[test]
fn state_mutation_pragma_suppresses_with_justification() {
    let src = "\
fn rig(k: &mut Kernel) {
    // Replay rig restores a snapshot latch. cwc-lint: allow(state_mutation)
    k.finished = true;
}
";
    let (kept, suppressed) = lint("crates/server/src/coord/replay.rs", "server", src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule, "state_mutation");
}

// ---------------------------------------------------------------------------
// Unsafe audit
// ---------------------------------------------------------------------------

/// A module shaped like the two audited ones: attributes, `mod`, one
/// `unsafe` block under a two-line `SAFETY:` comment.
const AUDITED_SHAPE: &str = "\
#[allow(unsafe_code)]
#[cfg(target_os = \"linux\")]
mod sys {
    pub fn close_fd(fd: i32) -> i32 {
        // SAFETY: callers pass an fd they own,
        // exactly once.
        unsafe { close(fd) }
    }
}
";

#[test]
fn unsafe_audit_accepts_the_audited_modules_and_nothing_else() {
    // The same text is clean as `reactor::sys` and as `protocol::clmul`...
    assert!(kept("crates/net/src/reactor.rs", "net", AUDITED_SHAPE).is_empty());
    let clmul = AUDITED_SHAPE.replace("mod sys", "mod clmul");
    assert!(kept("crates/net/src/protocol.rs", "net", &clmul).is_empty());

    // ...and two findings (the allow attribute, the block) under any other
    // module name, in any other file of that crate, or in any other crate.
    for (rel, krate, src) in [
        ("crates/net/src/reactor.rs", "net", clmul.as_str()),
        ("crates/net/src/protocol.rs", "net", AUDITED_SHAPE),
        ("crates/net/src/tcp.rs", "net", AUDITED_SHAPE),
        ("crates/core/src/pack.rs", "core", AUDITED_SHAPE),
        ("src/lib.rs", "", AUDITED_SHAPE),
    ] {
        let findings = kept(rel, krate, src);
        assert_eq!(findings.len(), 2, "{rel}: {findings:?}");
        assert!(findings.iter().all(|f| f.rule == "unsafe_audit"));
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![1, 7],
            "{rel}"
        );
    }
}

#[test]
fn unsafe_audit_flags_every_form_outside_an_audited_module() {
    let src = "\
mod sys {
    pub fn nothing() {}
}
unsafe fn raw(p: *const u8) -> u8 {
    *p
}
unsafe impl Send for Handle {}
fn read(p: *const u8) -> u8 {
    // SAFETY: a comment does not make the place audited.
    unsafe { raw(p) }
}
";
    // After the audited module closes, the file is ordinary code again.
    let findings = kept("crates/net/src/reactor.rs", "net", src);
    assert_eq!(findings.len(), 3, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "unsafe_audit"));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![4, 7, 10]
    );
}

#[test]
fn unsafe_audit_wants_a_safety_comment_directly_above_each_block() {
    let src = "\
mod sys {
    pub fn a(fd: i32) -> i32 {
        unsafe { close(fd) }
    }
    pub fn b(fd: i32) -> i32 {
        // Closes the descriptor.
        unsafe { close(fd) }
    }
    pub fn c(fd: i32) -> i32 {
        // SAFETY: the fd is owned.
        let owned = fd;
        unsafe { close(owned) }
    }
    pub fn d(fd: i32) -> i32 {
        // SAFETY: the fd is owned.
        if unsafe { close(fd) } < 0 {
            return -1;
        }
        0
    }
    /// # Safety
    /// `fd` must be open.
    pub unsafe fn e(fd: i32) -> i32 {
        close(fd)
    }
}
";
    // a: no comment; b: a comment, but not a SAFETY one; c: code between
    // the comment and the block. d is the accepted shape, and an `unsafe
    // fn` declaration (e) is not a block.
    let findings = kept("crates/net/src/reactor.rs", "net", src);
    assert_eq!(findings.len(), 3, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "unsafe_audit"));
    assert!(findings.iter().all(|f| f.message.contains("SAFETY")));
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![3, 7, 12]
    );
}

#[test]
fn unsafe_audit_ignores_lints_comments_strings_and_test_code() {
    let src = "\
#![deny(unsafe_code)]
#![forbid(unsafe_code)]
// unsafe { nothing } is only mentioned here.
fn f() -> &'static str {
    \"unsafe { quoted }\"
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = 7u8;
        let y = unsafe { *(&x as *const u8) };
        assert_eq!(y, 7);
    }
}
";
    assert!(kept("crates/obs/src/lib.rs", "obs", src).is_empty());
    // An allocator shim in an integration test is that test's business.
    let shim = "unsafe impl GlobalAlloc for Counting {}\n";
    assert!(kept("crates/server/tests/silent_record.rs", "server", shim).is_empty());
}

#[test]
fn unsafe_audit_pragma_suppresses_with_justification() {
    let src = "\
fn peek(x: &u8) -> u8 {
    // SAFETY: a reference is readable. cwc-lint: allow(unsafe_audit)
    unsafe { *(x as *const u8) }
}
";
    let (kept, suppressed) = lint("crates/tasks/src/x.rs", "tasks", src);
    assert!(kept.is_empty(), "kept: {kept:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule, "unsafe_audit");
}

// ---------------------------------------------------------------------------
// Report counts
// ---------------------------------------------------------------------------

#[test]
fn report_counts_zero_seed_every_registered_rule() {
    let report = cwc_lint::Report::default();
    let counts = report.counts();
    assert_eq!(counts.len(), default_rules().len());
    assert!(counts.values().all(|&n| n == 0));
    for rule in ["error_swallowing", "state_mutation", "determinism"] {
        assert_eq!(counts.get(rule), Some(&0), "missing zero entry for {rule}");
    }
    // The rendered report carries the zero counts too, so a rule that
    // silently stops firing shows up in CI logs as `rule: 0`, not absence.
    let rendered = format!("{report}");
    assert!(rendered.contains("by rule:"), "rendered: {rendered}");
    assert!(
        rendered.contains("error_swallowing: 0"),
        "rendered: {rendered}"
    );
}
