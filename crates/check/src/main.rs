//! `cwc-check` CLI: explore kernel state spaces, replay counterexamples.
//!
//! ```text
//! cwc-check list
//! cwc-check explore [--scenario NAME|all] [--depth N] [--seed S[,S..]]
//!                   [--no-por] [--max-states N] [--out DIR]
//! cwc-check replay FILE
//! ```
//!
//! `explore` exits 1 if any invariant was violated (after writing the
//! shrunk counterexample scripts to `--out`, default `check-out/`).
//! `replay` exits 0 when the file reproduces what its header claims.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use cwc_check::{cex, explore, scenario_run, shrink, Options, SCENARIOS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in SCENARIOS {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!(
                "usage: cwc-check list\n       cwc-check explore [--scenario NAME|all] \
                 [--depth N] [--seed S[,S..]] [--no-por] [--max-states N] [--out DIR]\n       \
                 cwc-check replay FILE"
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let mut scenario = "all".to_string();
    let mut seeds: Vec<u64> = vec![1];
    let mut opts = Options::default();
    let mut out_dir = "check-out".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let missing = |flag: &str| {
            eprintln!("cwc-check: {flag} needs a value");
            ExitCode::from(2)
        };
        match arg.as_str() {
            "--scenario" => match it.next() {
                Some(v) => scenario = v.clone(),
                None => return missing("--scenario"),
            },
            "--depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.depth = v,
                None => return missing("--depth"),
            },
            "--seed" => match it.next() {
                Some(v) => {
                    let parsed: Result<Vec<u64>, _> =
                        v.split(',').map(str::trim).map(str::parse).collect();
                    match parsed {
                        Ok(s) if !s.is_empty() => seeds = s,
                        _ => return missing("--seed"),
                    }
                }
                None => return missing("--seed"),
            },
            "--max-states" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.max_states = v,
                None => return missing("--max-states"),
            },
            "--no-por" => opts.por = false,
            "--out" => match it.next() {
                Some(v) => out_dir = v.clone(),
                None => return missing("--out"),
            },
            other => {
                eprintln!("cwc-check: unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let names: Vec<&str> = if scenario == "all" {
        SCENARIOS.to_vec()
    } else {
        match SCENARIOS.iter().find(|n| **n == scenario) {
            Some(n) => vec![*n],
            None => {
                eprintln!(
                    "cwc-check: unknown scenario {scenario:?} (try: {})",
                    SCENARIOS.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    };

    let mut dirty = false;
    for name in names {
        for &seed in &seeds {
            let Some(run) = scenario_run(name, seed) else {
                continue;
            };
            let report = explore(&run, &opts);
            let s = report.stats;
            println!(
                "{name} seed={seed} depth={}: {} transitions, {} dedup, {} por-skips, \
                 {} quiescent, {} depth-bound, {} panics -> {}",
                opts.depth,
                s.transitions,
                s.dedup_hits,
                s.por_skips,
                s.quiescent,
                s.depth_bound_hits,
                s.panics,
                if report.clean() {
                    "clean".to_string()
                } else {
                    format!("{} VIOLATION(S)", report.violations.len())
                }
            );
            for v in &report.violations {
                dirty = true;
                let (small, breach) = shrink(&run, &v.trace, v.oracle);
                println!(
                    "  VIOLATION oracle={} events={} (shrunk from {})",
                    v.oracle,
                    small.len(),
                    v.trace.len()
                );
                println!("    {}", breach.detail);
                let text = cex::to_script(&run, breach.oracle, &breach.detail, &small);
                let path = format!("{out_dir}/cex-{name}-{seed}-{}.script", breach.oracle);
                if let Err(e) =
                    std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, text))
                {
                    eprintln!("cwc-check: cannot write {path}: {e}");
                } else {
                    println!("    counterexample written to {path}");
                }
            }
        }
    }
    if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: cwc-check replay FILE");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cwc-check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (meta, events) = match cex::parse_script(&text) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cwc-check: cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match cex::run_of(&meta) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cwc-check: {e}");
            return ExitCode::from(2);
        }
    };
    for line in shrink::replay_commands(&run, &events) {
        println!("{line}");
    }
    match shrink::replay_breach(&run, &events) {
        Some((at, b)) => {
            println!(
                "replay: {} violated at step {}: {}",
                b.oracle,
                at + 1,
                b.detail
            );
            if meta.oracle.is_empty() || meta.oracle == b.oracle {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "replay: header claims oracle={}, but {} tripped",
                    meta.oracle, b.oracle
                );
                ExitCode::FAILURE
            }
        }
        None => {
            println!("replay: clean ({} events)", events.len());
            if meta.oracle.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "replay: header claims oracle={}, but the trace is clean",
                    meta.oracle
                );
                ExitCode::FAILURE
            }
        }
    }
}
