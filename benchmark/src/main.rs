//! `cwc-benchmark`: one command that builds nothing, runs workloads,
//! checks their outputs and prints every metric by name with its unit.
//!
//! ```text
//! cwc-benchmark --workload live-chunks --seed 1 --seconds 10 --trace 0
//! cwc-benchmark                 # every workload, both tables, budget report
//! cwc-benchmark --repeat-check  # the full set twice; fails if medians drift
//! cwc-benchmark --self-test     # proves the oracle can fail
//! ```

use cwc_benchmark::report::{
    host_fingerprint, spread, MetricDef, RunResult, END_TO_END, PER_LAYER,
};
use cwc_benchmark::workloads::{self, RunConfig, WORKLOADS};
use cwc_obs::json::{self, write_f64, write_str, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: cwc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--quick] [--repeat-check] [--self-test] [--list]
  with --workload: runs that workload once and prints its result line last
  without:         runs every workload (end-to-end, then traced) as child processes";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    self_test: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat_check: false,
        self_test: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--self-test" => args.self_test = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`, next to this crate's manifest when run through
/// cargo, else under the current directory's `benchmark/`.
fn out_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    if manifest.is_dir() {
        manifest.join("out")
    } else {
        PathBuf::from("benchmark/out")
    }
}

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Hard stop for one workload process: the driver allows 180 s.
fn deadline_for(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 4.0 + 60.0).min(170.0))
}

/// Runs one workload in this process and prints its metrics; the result
/// line is the last line of stdout.
fn run_single(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = workloads::find(name) else {
        eprintln!("unknown workload {name:?}; try --list");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or(if args.quick { 0.2 } else { 10.0 });
    let cfg = RunConfig {
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir: out_dir(),
    };
    // Budget guard: abort at a hard deadline instead of hanging.
    let deadline = deadline_for(seconds);
    let watched = name.to_owned();
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("{watched}: hard deadline of {deadline:?} exceeded, aborting");
        std::process::exit(3);
    });
    let started = Instant::now();
    let result = match (workload.run)(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(1);
        }
    };
    let defs = table(args.trace);
    let values = match result.complete(defs, !args.trace) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# {name} seed={} seconds={seconds} trace={} reps={} wall={:.2}s",
        args.seed,
        u8::from(args.trace),
        result.reps,
        started.elapsed().as_secs_f64()
    );
    for (def, v) in defs.iter().zip(&values) {
        println!("{:<34} {:>16.6} {}", def.name, v, def.unit);
    }
    for (metric, fastest, mid, slowest) in &result.spreads {
        println!(
            "# over reps {metric}: fastest {fastest:.6} (reported) median {mid:.6} slowest {slowest:.6}"
        );
    }
    for (metric, n) in &result.samples {
        println!("# samples {metric} = {n}");
    }
    println!(
        "# oracle: {} checks, {} failed (failed_frac = {:.6})",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    for f in &result.failures {
        println!("# FAILED {f}");
    }
    println!("{}", result.result_line(defs, &values));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What a child process reported.
struct ChildRun {
    values: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl ChildRun {
    /// A workload that hung, crashed or printed nothing: everything it
    /// attempted failed.
    fn lost(wall_s: f64) -> Self {
        ChildRun {
            values: Vec::new(),
            attempted: 1,
            failed: 1,
            wall_s,
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Runs one workload as a fresh child of this process (so `peak_rss_mb`
/// is per workload), killing it at the hard deadline.
fn run_child(name: &str, args: &Args, seconds: f64, trace: bool) -> ChildRun {
    let started = Instant::now();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ChildRun::lost(0.0);
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot spawn {name}: {e}");
            return ChildRun::lost(0.0);
        }
    };
    // The child has its own watchdog; this one covers a child too wedged
    // to run it.
    let deadline = deadline_for(seconds) + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if started.elapsed() > deadline => {
                eprintln!("{name}: killed at the hard deadline ({deadline:?})");
                let _ = child.kill();
                let _ = child.wait();
                return ChildRun::lost(started.elapsed().as_secs_f64());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("{name}: wait failed: {e}");
                return ChildRun::lost(started.elapsed().as_secs_f64());
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let out = match child.wait_with_output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: cannot read output: {e}");
            return ChildRun::lost(wall_s);
        }
    };
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().filter(|l| l.starts_with("# FAILED")) {
        eprintln!("{name}: {line}");
    }
    let parsed = text.lines().last().and_then(|line| json::parse(line).ok());
    let Some(parsed) = parsed else {
        eprintln!("{name}: no result line (exit {})", out.status);
        return ChildRun::lost(wall_s);
    };
    let values = parsed
        .get("metrics")
        .and_then(JsonValue::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    ChildRun {
        values,
        attempted: parsed
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1),
        failed: parsed
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1),
        wall_s,
    }
}

/// One pass over the whole set: per workload, the end-to-end run and the
/// traced run.
struct SetRun {
    per_workload: Vec<(&'static str, ChildRun, ChildRun)>,
    wall_s: f64,
}

fn run_set(args: &Args, seconds: f64) -> SetRun {
    let started = Instant::now();
    let per_workload = WORKLOADS
        .iter()
        .map(|w| {
            let e2e = run_child(w.name, args, seconds, false);
            let traced = run_child(w.name, args, seconds, true);
            println!(
                "# {:<14} end-to-end {:>6.2}s  traced {:>6.2}s",
                w.name, e2e.wall_s, traced.wall_s
            );
            (w.name, e2e, traced)
        })
        .collect();
    SetRun {
        per_workload,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn print_set(set: &SetRun) {
    for (name, e2e, traced) in &set.per_workload {
        println!("## {name}");
        let failed = e2e.failed + traced.failed;
        let attempted = e2e.attempted + traced.attempted;
        println!(
            "{:<34} {:>16.6} fraction   ({failed} of {attempted} checks)",
            "failed_frac",
            failed as f64 / attempted.max(1) as f64
        );
        for (defs, run) in [(END_TO_END, e2e), (PER_LAYER, traced)] {
            for def in defs {
                if let Some(v) = run.get(def.name) {
                    println!("{:<34} {:>16.6} {}", def.name, v, def.unit);
                }
            }
        }
    }
}

/// The machine-readable report: host fingerprint, seed, and per workload
/// every metric of both tables.
fn report_json(args: &Args, seconds: f64, sets: &[SetRun]) -> String {
    let mut out = String::from("{\"host\": {");
    for (i, (k, v)) in host_fingerprint().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, k);
        out.push_str(": ");
        write_str(&mut out, v);
    }
    out.push_str(&format!(
        "}}, \"seed\": {}, \"seconds\": {seconds}, \"quick\": {}, \"sets\": [",
        args.seed, args.quick
    ));
    for (s, set) in sets.iter().enumerate() {
        if s > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"wall_s\": {}, \"workloads\": {{", set.wall_s));
        for (w, (name, e2e, traced)) in set.per_workload.iter().enumerate() {
            if w > 0 {
                out.push_str(", ");
            }
            write_str(&mut out, name);
            out.push_str(&format!(
                ": {{\"attempted\": {}, \"failed\": {}, \"wall_s\": {}, \"metrics\": {{",
                e2e.attempted + traced.attempted,
                e2e.failed + traced.failed,
                e2e.wall_s + traced.wall_s
            ));
            for (i, (k, v)) in e2e.values.iter().chain(&traced.values).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(&mut out, k);
                out.push_str(": ");
                write_f64(&mut out, *v);
            }
            out.push_str("}}");
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Compares the two passes' end-to-end medians against each metric's
/// bound; returns the violations.
fn repeat_check(first: &SetRun, second: &SetRun) -> Vec<String> {
    let mut violations = Vec::new();
    println!("## repeat check (first vs second pass; worsening allowed up to the bound)");
    for ((name, a, _), (_, b, _)) in first.per_workload.iter().zip(&second.per_workload) {
        for def in END_TO_END {
            let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) else {
                violations.push(format!("{name}: {} missing from a pass", def.name));
                continue;
            };
            let (lo, mid, hi) = spread(&[x, y]);
            let drift = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let ok = drift <= def.bound;
            println!(
                "{:<14} {:<18} min {:>12.5} median {:>12.5} max {:>12.5} {:<6} drift {:>6.2}% (bound {:.0}%) {}",
                name,
                def.name,
                lo,
                mid,
                hi,
                def.unit,
                drift * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "VIOLATION" }
            );
            if !ok {
                violations.push(format!(
                    "{name}: {} drifted {:.1}% between passes (bound {:.0}%)",
                    def.name,
                    drift * 100.0,
                    def.bound * 100.0
                ));
            }
        }
    }
    violations
}

fn run_all(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.quick { 0.2 } else { 6.0 });
    let started = Instant::now();
    let mut sets = vec![run_set(args, seconds)];
    if args.repeat_check {
        sets.push(run_set(args, seconds));
    }
    print_set(&sets[0]);
    let mut bad = Vec::new();
    if let [first, second] = sets.as_slice() {
        bad = repeat_check(first, second);
    }
    for set in &sets {
        for (name, e2e, traced) in &set.per_workload {
            if e2e.failed + traced.failed > 0 {
                bad.push(format!("{name}: oracle failures or a lost run"));
            }
        }
    }
    let report = report_json(args, seconds, &sets);
    let path = out_dir().join("report.json");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &report))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!(
        "# total wall {:.1}s over {} pass(es); report in {}",
        started.elapsed().as_secs_f64(),
        sets.len(),
        path.display()
    );
    for b in &bad {
        println!("# FAILED {b}");
    }
    println!("{report}");
    if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Proves the oracle can fail: a worker that under-reports one chunk by
/// one byte must fail exactly one check.
fn self_test(args: &Args) -> ExitCode {
    match workloads::live::sabotaged_run(args.seed) {
        Ok(RunResult {
            attempted,
            failed,
            failures,
            ..
        }) => {
            println!("self-test: {failed} of {attempted} checks failed under sabotage");
            for f in &failures {
                println!("  {f}");
            }
            if failed == 1 {
                println!("self-test: ok, the oracle fires");
                ExitCode::SUCCESS
            } else {
                println!("self-test: FAILED, expected exactly one failing check");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("self-test: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in WORKLOADS {
            println!("{:<14} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    if args.self_test {
        return self_test(&args);
    }
    match &args.workload {
        Some(name) => run_single(name, &args),
        None => run_all(&args),
    }
}
