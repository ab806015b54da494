//! The benchmark's own acceptance test, at `--quick` size: every
//! workload runs both ways and emits every metric of its table, the
//! oracle demonstrably fires, deterministic metrics repeat exactly, and
//! `BENCHMARK.json` agrees with the tables in `report.rs`.

use cwc_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use cwc_benchmark::workloads::{self, RunConfig, WORKLOADS};
use cwc_obs::json::{self, JsonValue};
use std::path::{Path, PathBuf};

fn quick(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.05,
        trace,
        quick: true,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/quick-test"),
    }
}

#[test]
fn every_workload_runs_both_ways_and_emits_every_metric() {
    for w in WORKLOADS {
        let e2e = (w.run)(&quick(3, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(e2e.correct(), "{}: {:?}", w.name, e2e.failures);
        assert!(e2e.reps >= workloads::MIN_REPS);
        e2e.complete(END_TO_END, true)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));

        let traced = (w.run)(&quick(3, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(traced.correct(), "{}: {:?}", w.name, traced.failures);
        // A traced run fills the whole layer sheet (every timing in it
        // measured, so never 0) and writes its spans.
        let values = traced
            .complete(PER_LAYER, false)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (def, v) in PER_LAYER.iter().zip(&values) {
            let timed = ["s", "ms", "us", "ns", "MB/s"].contains(&def.unit);
            assert!(!timed || *v > 0.0, "{}: {} reads {v}", w.name, def.name);
        }
        let dump = quick(3, true)
            .out_dir
            .join(format!("trace-{}.jsonl", w.name));
        let spans = std::fs::read_to_string(&dump).unwrap_or_else(|e| panic!("{dump:?}: {e}"));
        let first = json::parse(spans.lines().next().expect("at least one span")).unwrap();
        assert_eq!(
            first.get("workload").and_then(JsonValue::as_str),
            Some(w.name)
        );
    }
}

#[test]
fn the_oracle_fires_on_a_worker_that_under_reports_one_chunk() {
    let checked = workloads::live::sabotaged_run(9).unwrap();
    assert_eq!(checked.failed, 1, "{:?}", checked.failures);
    assert!(!checked.correct());
    assert!(checked.failures[0].contains("aggregated"));
}

#[test]
fn deterministic_metrics_repeat_exactly_for_a_fixed_seed() {
    let run = |name: &str, seed: u64| {
        let r = (workloads::find(name).unwrap().run)(&quick(seed, false)).unwrap();
        let values = r.complete(END_TO_END, true).unwrap();
        values[END_TO_END
            .iter()
            .position(|d| d.name == "makespan_ratio")
            .unwrap()]
    };
    for name in ["sched-fleet", "sim-fleet", "paper-testbed"] {
        assert_eq!(run(name, 5), run(name, 5), "{name}: must repeat");
        assert_ne!(
            run(name, 5),
            run(name, 6),
            "{name}: the seed must reach the inputs"
        );
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn assert_table(listed: &JsonValue, defs: &[MetricDef], bounded: bool) {
    let JsonValue::Arr(listed) = listed else {
        panic!("metric list is not an array");
    };
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        let text = |key: &str| entry.get(key).and_then(JsonValue::as_str);
        assert_eq!(text("name"), Some(def.name));
        assert_eq!(text("unit"), Some(def.unit), "{}", def.name);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text("better"), Some(better), "{}", def.name);
        let bound = entry.get("bound").and_then(JsonValue::as_f64);
        assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
    }
}

#[test]
fn benchmark_json_agrees_with_the_tables() {
    let path = repo_root().join("BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");
    assert_table(doc.get("end_to_end").unwrap(), END_TO_END, true);
    assert_table(doc.get("per_layer").unwrap(), PER_LAYER, false);
    let Some(JsonValue::Arr(listed)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(WORKLOADS) {
        assert_eq!(entry.get("name").and_then(JsonValue::as_str), Some(w.name));
        assert_eq!(entry.get("why").and_then(JsonValue::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.higher_is_better),
        ("setup_s", "s", false)
    );
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
}
