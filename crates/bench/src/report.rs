//! The bench bins' one report path: build a [`JsonValue`] with
//! [`obj!`](crate::obj), [`write()`] it as an artifact, [`load`] a
//! committed baseline, and gate a throughput metric per scale point with
//! [`compare`] (the `--compare` mode of `cwc-bench-live`, see
//! [`compare_cli`]).

pub use cwc_obs::json::JsonValue;
use cwc_types::{CwcError, CwcResult};

/// Builds a [`JsonValue`] object in source order, every value through
/// `JsonValue::from`: `obj! {"key": expr, ...}`, or `obj!(record { field,
/// ... })` to copy the named fields of a struct under their own names.
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),+ $(,)?) => {
        $crate::report::JsonValue::from([
            $(($key, $crate::report::JsonValue::from($value))),+
        ])
    };
    ($record:ident { $($field:ident),+ $(,)? }) => {
        $crate::report::JsonValue::from([
            $((stringify!($field), $crate::report::JsonValue::from($record.$field))),+
        ])
    };
}

/// Writes `report` to `path`, pretty-printed with a trailing newline.
pub fn write(path: &str, report: &JsonValue) -> CwcResult<()> {
    std::fs::write(path, format!("{report:#}\n"))
        .map_err(|e| CwcError::Config(format!("write {path}: {e}")))
}

/// Loads a report written by [`write()`] (or any JSON document).
pub fn load(path: &str) -> CwcResult<JsonValue> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CwcError::Config(format!("read {path}: {e}")))?;
    cwc_obs::json::parse(&text).map_err(|e| CwcError::Config(format!("parse {path}: {e}")))
}

/// Compares a fresh report against a baseline: for every baseline entry
/// of `"points"`, the fresh point with the same integer `key` may not have
/// dropped `metric` by more than `tolerance` (fractional, e.g. `0.2`).
/// Only a relative throughput gates, so the check survives noisy shared
/// hosts. Returns the human-readable failures (empty = pass); a baseline
/// without points, or a baseline point without a positive finite `metric`,
/// is a failure too — otherwise schema drift would pass the gate vacuously.
pub fn compare(
    baseline: &JsonValue,
    fresh: &JsonValue,
    key: &str,
    metric: &str,
    tolerance: f64,
) -> Vec<String> {
    fn points(report: &JsonValue) -> &[JsonValue] {
        match report.get("points") {
            Some(JsonValue::Arr(points)) => points,
            _ => &[],
        }
    }
    let at = |point: &JsonValue| point.get(key).and_then(JsonValue::as_u64);
    let value = |point: &JsonValue| point.get(metric).and_then(JsonValue::as_f64);

    let mut failures = Vec::new();
    if points(baseline).is_empty() {
        failures.push("baseline has no points".to_string());
    }
    for base in points(baseline) {
        let Some(n) = at(base) else {
            failures.push(format!("baseline point without `{key}`"));
            continue;
        };
        let Some(new) = points(fresh).iter().find(|p| at(p) == Some(n)) else {
            failures.push(format!("{key} {n}: missing from fresh report"));
            continue;
        };
        let Some(was) = value(base).filter(|w| w.is_finite() && *w > 0.0) else {
            failures.push(format!("{key} {n}: baseline has no positive {metric}"));
            continue;
        };
        let now = value(new).unwrap_or(0.0);
        if now < was * (1.0 - tolerance) {
            failures.push(format!(
                "{key} {n}: {metric} regressed {was:.0} -> {now:.0} (>{:.0}% drop)",
                tolerance * 100.0
            ));
        }
    }
    failures
}

/// The `--compare BASELINE.json FRESH.json [TOLERANCE]` mode of
/// `cwc-bench-live`; `args` are the operands after `--compare`. Prints the
/// verdict on stderr and returns the process exit code: 0 pass, 1 on a
/// regression, 2 on a usage or load error. TOLERANCE defaults to 0.2.
pub fn compare_cli(bin: &str, args: &[String], key: &str, metric: &str) -> i32 {
    let tolerance = args.get(2).map_or(Ok(0.2), |t| t.parse::<f64>());
    let ([base_path, fresh_path, ..], Ok(tolerance)) = (args, tolerance) else {
        eprintln!("{bin}: usage: {bin} --compare BASELINE.json FRESH.json [TOLERANCE]");
        return 2;
    };
    let (baseline, fresh) = match (load(base_path), load(fresh_path)) {
        (Ok(baseline), Ok(fresh)) => (baseline, fresh),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{bin}: {e}");
            return 2;
        }
    };
    let failures = compare(&baseline, &fresh, key, metric, tolerance);
    for f in &failures {
        eprintln!("{bin}: GATE FAILED: {f}");
    }
    if failures.is_empty() {
        eprintln!(
            "{bin}: no {metric} regression beyond {:.0}% at any `{key}` point",
            tolerance * 100.0
        );
    }
    i32::from(!failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live_scale::{FleetSummary, ScalePoint};

    #[test]
    fn compare_gates_the_metric_per_point() {
        let report = |points: Vec<JsonValue>| obj! {"points": points};
        let live = |ships: f64, accepts: f64| {
            report(vec![
                obj! {"workers": 100u64, "ships_per_sec": ships, "accepts_per_sec": accepts},
            ])
        };
        let gate = |base: &JsonValue, fresh: &JsonValue| {
            compare(base, fresh, "workers", "ships_per_sec", 0.2)
        };

        // Within tolerance passes; only the named metric gates (accept
        // throughput tracks the host's connect latency, not the loop).
        assert!(gate(&live(1000.0, 500.0), &live(900.0, 450.0)).is_empty());
        assert!(gate(&live(1000.0, 500.0), &live(1000.0, 50.0)).is_empty());
        // A drop beyond tolerance is one named regression.
        let r = gate(&live(1000.0, 500.0), &live(700.0, 450.0));
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(
            r[0].contains("workers 100: ships_per_sec regressed"),
            "{r:?}"
        );

        // A baseline that cannot gate is a failure, not a vacuous pass:
        // metric missing (schema drift), zero, or no points at all.
        let metricless = report(vec![obj! {"workers": 100u64, "ships_per_second": 100.0}]);
        for broken in [
            metricless,
            live(0.0, 500.0),
            report(Vec::new()),
            obj! {"x": 1u64},
        ] {
            let r = gate(&broken, &live(100.0, 500.0));
            assert_eq!(r.len(), 1, "{broken}: {r:?}");
            assert!(r[0].contains("baseline"), "{r:?}");
        }
        // So is a fresh report that lost the point or its metric.
        let other = report(vec![obj! {"workers": 1000u64, "ships_per_sec": 100.0}]);
        assert!(gate(&live(100.0, 500.0), &other)[0].contains("missing from fresh"));
        let dropped = report(vec![obj! {"workers": 100u64}]);
        assert!(gate(&live(100.0, 500.0), &dropped)[0].contains("regressed 100 -> 0"));
    }

    #[test]
    fn compare_cli_exit_codes() {
        let dir = std::env::temp_dir().join(format!("cwc-report-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, ships: f64| {
            let path = dir.join(name).to_string_lossy().into_owned();
            write(
                &path,
                &obj! {"points": vec![obj! {"workers": 100u64, "ships_per_sec": ships}]},
            )
            .unwrap();
            path
        };
        let (base, slow) = (file("base.json", 100.0), file("slow.json", 70.0));
        let run = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            compare_cli("test-bin", &args, "workers", "ships_per_sec")
        };
        assert_eq!(run(&[&base, &base]), 0);
        assert_eq!(run(&[&base, &slow]), 1, "default tolerance is 0.2");
        assert_eq!(run(&[&base, &slow, "0.5"]), 0);
        assert_eq!(run(&[&base]), 2);
        assert_eq!(run(&[&base, &slow, "lots"]), 2);
        assert_eq!(run(&[&base, "/nonexistent/fresh.json"]), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn points_and_fleet_summary_read_back_field_for_field() {
        let fleet = FleetSummary {
            connected: 12,
            inputs_received: u64::MAX,
            completes_sent: 10,
            keepalive_acks_sent: 7,
            died: 2,
        };
        // The child→parent hand-off: one compact line, these exact names.
        let line = JsonValue::from(fleet.clone()).to_string();
        assert_eq!(
            line,
            "{\"connected\":12,\"inputs_received\":18446744073709551615,\
             \"completes_sent\":10,\"keepalive_acks_sent\":7,\"died\":2}"
        );
        let parsed = cwc_obs::json::parse(&line).unwrap();
        assert_eq!(FleetSummary::from_json(&parsed), Some(fleet.clone()));
        assert_eq!(FleetSummary::from_json(&obj! {"connected": 12u64}), None);

        let scale = ScalePoint {
            workers: 10_000,
            setup_ms: 1234.5,
            accepts_per_sec: 8100.0,
            wall_ms: 2000.25,
            ships_per_sec: 4321.0,
            keepalives_acked: 77,
            keepalive_acks_per_sec: 38.5,
            loop_p50_us: 3.0,
            loop_p99_us: 250.75,
            loop_max_us: 9000.0,
            loop_iters: 123_456,
            migrated: 3,
            retries: 4,
            fleet,
        };
        // What lands in the artifact: these names, this order, these values.
        let scale_json = JsonValue::from(&scale);
        assert_eq!(
            scale_json.to_string(),
            format!(
                "{{\"workers\":10000,\"setup_ms\":1234.5,\"accepts_per_sec\":8100.0,\
                 \"wall_ms\":2000.25,\"ships_per_sec\":4321.0,\"keepalives_acked\":77,\
                 \"keepalive_acks_per_sec\":38.5,\"loop_p50_us\":3.0,\"loop_p99_us\":250.75,\
                 \"loop_max_us\":9000.0,\"loop_iters\":123456,\"migrated\":3,\"retries\":4,\
                 \"fleet\":{line}}}"
            )
        );
        // And the artifact file reads back to the same values.
        let path = std::env::temp_dir()
            .join(format!("cwc-report-points-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let report = obj! {"points": vec![scale_json]};
        write(&path, &report).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, report);
        let Some(JsonValue::Arr(points)) = loaded.get("points") else {
            panic!("no points in {loaded}");
        };
        let nested = points[0].get("fleet").unwrap();
        assert_eq!(FleetSummary::from_json(nested), Some(scale.fleet));
    }
}
