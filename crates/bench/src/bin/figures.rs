//! Regenerates every table and figure from the paper's evaluation.
//!
//! ```text
//! figures [--seed N] [--configs N] [--json DIR] [fig1 fig2 ... all]
//! ```
//!
//! With no figure arguments, everything runs. Output is plain text with
//! the paper's expected values alongside the measured ones; `--json DIR`
//! additionally dumps machine-readable results per figure.

#![forbid(unsafe_code)]

use cwc_bench::render::{bar, cdf_quantiles, header, hourly_profile};
use cwc_bench::report::{self, JsonValue};
use cwc_bench::*;
use cwc_profiler::stats::{cdf_at, median_of_sorted};
use std::collections::BTreeMap;

struct Options {
    seed: u64,
    configs: usize,
    json_dir: Option<String>,
    dat_dir: Option<String>,
    which: Vec<String>,
}

/// Writes a gnuplot-ready two-column (or more) data file.
fn write_dat(dir: &str, name: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    std::fs::create_dir_all(dir).expect("create dat dir");
    let mut out = String::from("# ");
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(&r);
        out.push('\n');
    }
    let path = format!("{dir}/{name}.dat");
    std::fs::write(&path, out).expect("write dat");
    println!("  wrote {path}");
}

/// Renders a sorted series as CDF rows `value fraction`.
fn cdf_rows(sorted: &[f64]) -> Vec<String> {
    let n = sorted.len().max(1) as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{v} {}", (i + 1) as f64 / n))
        .collect()
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: DEFAULT_SEED,
        configs: 300,
        json_dir: None,
        dat_dir: None,
        which: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--configs" => {
                opts.configs = args
                    .next()
                    .expect("--configs needs a value")
                    .parse()
                    .expect("configs must be an integer");
            }
            "--json" => {
                opts.json_dir = Some(args.next().expect("--json needs a directory"));
            }
            "--dat" => {
                opts.dat_dir = Some(args.next().expect("--dat needs a directory"));
            }
            other => opts.which.push(other.to_string()),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let run_all = opts.which.is_empty() || opts.which.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || opts.which.iter().any(|w| w == name);
    let mut json_out: BTreeMap<String, JsonValue> = BTreeMap::new();

    println!("CWC reproduction — figure harness (seed {})", opts.seed);

    if wants("fig1") {
        print!("{}", header("Fig. 1 — CoreMark CPU comparison"));
        println!("paper shape: Tegra 3 edges out the Core 2 Duo; the Core 2 Duo leads");
        println!("every dual-core phone CPU by >50%.\n");
        let scores = fig1();
        let max = scores.iter().map(|s| s.1).fold(0.0f64, f64::max);
        for (name, score, is_ref) in &scores {
            let marker = if *is_ref { " <- reference" } else { "" };
            println!(
                "  {name:<38} {score:>10.0}  |{}|{marker}",
                bar(*score, max, 28)
            );
        }
        json_out.insert(
            "fig1".into(),
            JsonValue::from(
                scores
                    .iter()
                    .map(|(n, s, r)| obj! {"cpu": n, "score": s, "reference": r})
                    .collect::<Vec<_>>(),
            ),
        );
    }

    if wants("fig2") || wants("fig3") {
        let stats = fig2_fig3(opts.seed, STUDY_DAYS);
        if wants("fig2") {
            print!("{}", header("Fig. 2a — charging interval lengths (hours)"));
            println!("paper: night median ≈ 7 h, day median ≈ 0.5 h; fewer night intervals.\n");
            println!(
                "  night ({} intervals, median {:.1} h):",
                stats.night_lengths_h.len(),
                median_of_sorted(&stats.night_lengths_h)
            );
            println!("{}", cdf_quantiles(&stats.night_lengths_h));
            println!(
                "  day   ({} intervals, median {:.2} h):",
                stats.day_lengths_h.len(),
                median_of_sorted(&stats.day_lengths_h)
            );
            println!("{}", cdf_quantiles(&stats.day_lengths_h));

            print!("{}", header("Fig. 2b — night-interval data transfer (MB)"));
            println!("paper: ~80% of night intervals transfer < 2 MB.\n");
            println!(
                "  P(transfer < 2 MB) = {:.2}",
                cdf_at(&stats.night_transfers_mb, 2.0)
            );
            println!("{}", cdf_quantiles(&stats.night_transfers_mb));

            print!(
                "{}",
                header("Fig. 2c — idle night charging per user (h/day)")
            );
            println!("paper: ≥3 h average; users 3, 4, 8 reach 8–9 h with low variability.\n");
            for s in &stats.idle {
                println!(
                    "  {:<8} mean {:>5.2} h  sd {:>5.2}  |{}|",
                    s.user.to_string(),
                    s.mean_hours_per_day,
                    s.std_dev,
                    bar(s.mean_hours_per_day, 10.0, 30)
                );
            }
            if let Some(dir) = &opts.dat_dir {
                write_dat(
                    dir,
                    "fig2a_night",
                    "interval_hours cdf",
                    cdf_rows(&stats.night_lengths_h),
                );
                write_dat(
                    dir,
                    "fig2a_day",
                    "interval_hours cdf",
                    cdf_rows(&stats.day_lengths_h),
                );
                write_dat(
                    dir,
                    "fig2b_transfer",
                    "mb cdf",
                    cdf_rows(&stats.night_transfers_mb),
                );
                write_dat(
                    dir,
                    "fig2c_idle",
                    "user mean_h sd",
                    stats
                        .idle
                        .iter()
                        .map(|s| format!("{} {} {}", s.user.0, s.mean_hours_per_day, s.std_dev)),
                );
            }
            json_out.insert(
                "fig2".into(),
                obj! {
                    "night_median_h": median_of_sorted(&stats.night_lengths_h),
                    "day_median_h": median_of_sorted(&stats.day_lengths_h),
                    "p_under_2mb": cdf_at(&stats.night_transfers_mb, 2.0),
                    "idle_mean_h": stats.idle.iter().map(|s| s.mean_hours_per_day).collect::<Vec<_>>(),
                },
            );
        }
        if wants("fig3") {
            print!("{}", header("Fig. 3a — unplug-event CDF by hour of day"));
            println!("paper: <30% of unplug events occur between midnight and 8 a.m.\n");
            println!("  CDF at 08:00 = {:.2}", stats.unplug_cdf[7]);
            for h in (0..24).step_by(3) {
                println!(
                    "  by {h:02}:00  {:>5.2}  |{}|",
                    stats.unplug_cdf[h],
                    bar(stats.unplug_cdf[h], 1.0, 30)
                );
            }
            print!(
                "{}",
                header("Fig. 3b/c — per-user hourly unplug likelihood")
            );
            println!("paper: very low 12–6 a.m., rising 6–9 a.m., high during the day.\n");
            for (user, lik) in fig3bc(opts.seed, STUDY_DAYS) {
                println!("  user-{user}:");
                print!("{}", hourly_profile(&lik));
            }
            json_out.insert(
                "fig3".into(),
                obj! {"unplug_cdf_8am": stats.unplug_cdf[7], "cdf": stats.unplug_cdf.to_vec()},
            );
        }
    }

    if wants("fig4") {
        print!(
            "{}",
            header("Fig. 4 — WiFi bandwidth stability (600 s iperf)")
        );
        println!("paper: variation over a stationary WiFi link is very low.\n");
        let mut rows = Vec::new();
        for (name, report) in fig4(opts.seed) {
            println!(
                "  {name:<22} mean {:>7.1} KB/s  sd {:>6.1}  CV {:>5.3}  b_i {:>6.2} ms/KB",
                report.mean_kb_per_sec,
                report.std_dev,
                report.coefficient_of_variation(),
                report.ms_per_kb().0
            );
            rows.push(obj! {
                "location": name,
                "mean_kbps": report.mean_kb_per_sec,
                "cv": report.coefficient_of_variation(),
            });
        }
        json_out.insert("fig4".into(), JsonValue::from(rows));
    }

    if wants("fig5") {
        print!(
            "{}",
            header("Fig. 5 — FCFS file processing turnaround (ms)")
        );
        println!("paper: 6 phones → p90 ≈ 1200 ms; dropping the two slowest links");
        println!("improves p90 to ≈ 700 ms (queueing delay rises).\n");
        let f = fig5(opts.seed);
        println!("  all 6 phones : p90 = {:>7.0} ms", f.p90.0);
        println!("{}", cdf_quantiles(&f.all6_ms));
        println!("  4 fast links : p90 = {:>7.0} ms", f.p90.1);
        println!("{}", cdf_quantiles(&f.fast4_ms));
        println!(
            "\n  p90 improvement factor: {:.2}x (paper ≈ 1200/700 ≈ 1.7x)",
            f.p90.0 / f.p90.1
        );
        if let Some(dir) = &opts.dat_dir {
            write_dat(dir, "fig5_all6", "turnaround_ms cdf", cdf_rows(&f.all6_ms));
            write_dat(
                dir,
                "fig5_fast4",
                "turnaround_ms cdf",
                cdf_rows(&f.fast4_ms),
            );
        }
        json_out.insert(
            "fig5".into(),
            obj! {"p90_all6_ms": f.p90.0, "p90_fast4_ms": f.p90.1},
        );
    }

    if wants("fig6") {
        print!("{}", header("Fig. 6 — predicted vs measured speedup"));
        println!("paper: points cluster on y = x; a few phones beat the prediction.\n");
        let pts = fig6(opts.seed);
        let mut within = 0usize;
        let mut faster = 0usize;
        for &(p, m) in &pts {
            if (m - p).abs() / p < 0.10 {
                within += 1;
            }
            if m > p * 1.10 {
                faster += 1;
            }
        }
        println!("  {} phone-task points", pts.len());
        println!("  within 10% of y=x : {within}");
        println!("  >10% faster       : {faster} (the paper's outliers)");
        for &(p, m) in pts.iter().take(10) {
            println!("    predicted {p:>5.2}  measured {m:>5.2}");
        }
        if let Some(dir) = &opts.dat_dir {
            write_dat(
                dir,
                "fig6_speedup",
                "predicted measured",
                pts.iter().map(|(p, m)| format!("{p} {m}")),
            );
        }
        json_out.insert(
            "fig6".into(),
            obj! {
                "points": pts.iter().map(|&(p, m)| vec![p, m]).collect::<Vec<_>>(),
                "within_10pct": within,
                "faster_outliers": faster,
            },
        );
    }

    if wants("fig10") {
        print!("{}", header("Fig. 10 — charging profiles (HTC Sensation)"));
        println!("paper: idle ≈ 100 min; heavy ≈ 135 min (+35%); MIMD throttle ≈ idle");
        println!("with ≈24.5% compute-time overhead vs heavy.\n");
        let f = fig10();
        let mins = |o: &cwc_device::throttle::ChargeOutcome| o.full_at.as_hours_f64() * 60.0;
        println!("  idle      : full at {:>6.1} min", mins(&f.idle));
        println!(
            "  heavy     : full at {:>6.1} min  (stretch {:+.1}%)",
            mins(&f.heavy),
            f.heavy_stretch() * 100.0
        );
        println!(
            "  throttled : full at {:>6.1} min  (compute overhead vs heavy {:+.1}%)",
            mins(&f.throttled),
            f.throttle_compute_overhead() * 100.0
        );
        println!("\n  charge curves (% at 20-minute marks):");
        for o in [
            (&f.idle, "idle"),
            (&f.heavy, "heavy"),
            (&f.throttled, "throttled"),
        ] {
            let series: Vec<String> =
                o.0.timeline
                    .iter()
                    .filter(|(t, _)| t.0 % (20 * 60_000_000) < 2 * 60_000_000)
                    .map(|(t, pct)| format!("{:.0}min:{pct:.0}%", t.as_hours_f64() * 60.0))
                    .collect();
            println!("    {:<10} {}", o.1, series.join("  "));
        }
        if let Some(dir) = &opts.dat_dir {
            for (outcome, name) in [
                (&f.idle, "idle"),
                (&f.heavy, "heavy"),
                (&f.throttled, "throttled"),
            ] {
                write_dat(
                    dir,
                    &format!("fig10_{name}"),
                    "minutes charge_pct",
                    outcome
                        .timeline
                        .iter()
                        .map(|(t, pct)| format!("{} {pct}", t.as_hours_f64() * 60.0)),
                );
            }
        }
        json_out.insert(
            "fig10".into(),
            obj! {
                "idle_min": mins(&f.idle),
                "heavy_min": mins(&f.heavy),
                "throttled_min": mins(&f.throttled),
                "heavy_stretch": f.heavy_stretch(),
                "compute_overhead": f.throttle_compute_overhead(),
            },
        );
    }

    if wants("fig12a") {
        print!("{}", header("Fig. 12a — task execution timeline (greedy)"));
        println!("paper: makespan ≈ 1100 s, predicted 1120 s (≈2% off); earliest phone");
        println!("finishes ≈ 20% before the last (fast outliers).\n");
        let out = fig12a(opts.seed);
        println!(
            "  completed {}/{} jobs; makespan {:.0} s; predicted {:.0} s ({:+.1}%)",
            out.completed_jobs,
            out.total_jobs,
            out.makespan.as_secs_f64(),
            out.predicted_makespan_ms / 1e3,
            (out.predicted_makespan_ms / 1e3 / out.makespan.as_secs_f64() - 1.0) * 100.0
        );
        let mut finishes: Vec<f64> = out
            .phone_completion
            .iter()
            .map(|t| t.as_secs_f64())
            .filter(|&t| t > 0.0)
            .collect();
        finishes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "  earliest phone done at {:.0} s, last at {:.0} s (spread {:.0}%)",
            finishes.first().unwrap(),
            finishes.last().unwrap(),
            (finishes.last().unwrap() - finishes.first().unwrap()) / finishes.last().unwrap()
                * 100.0
        );
        println!("\n  per-phone timelines (T=transfer-heavy, #=executing, scaled):");
        render_timeline(&out, 6);
        if let Some(dir) = &opts.dat_dir {
            write_dat(
                dir,
                "fig12a_segments",
                "phone start_s end_s kind rescheduled job",
                out.segments.iter().map(|s| {
                    format!(
                        "{} {} {} {} {} {}",
                        s.phone.0,
                        s.start.as_secs_f64(),
                        s.end.as_secs_f64(),
                        match s.kind {
                            cwc_server::SegmentKind::Transfer => "T",
                            cwc_server::SegmentKind::Execute => "E",
                        },
                        u8::from(s.rescheduled),
                        s.job.0
                    )
                }),
            );
        }
        json_out.insert(
            "fig12a".into(),
            obj! {
                "makespan_s": out.makespan.as_secs_f64(),
                "predicted_s": out.predicted_makespan_ms / 1e3,
                "completed": out.completed_jobs,
            },
        );
    }

    if wants("fig12b") {
        print!("{}", header("Fig. 12b — input partitions per task (CDF)"));
        println!("paper: ≈90% of the 150 tasks are unpartitioned under greedy;");
        println!("equal-split explodes every breakable task into |P| pieces.\n");
        let f = fig12b(opts.seed);
        let frac_unsplit =
            f.greedy.iter().filter(|&&s| s == 0).count() as f64 / f.greedy.len() as f64;
        println!("  greedy      : {:.0}% unpartitioned", frac_unsplit * 100.0);
        println!(
            "  greedy splits      {}",
            cdf_quantiles(&f.greedy.iter().map(|&s| s as f64).collect::<Vec<_>>())
        );
        println!(
            "  equal-split splits {}",
            cdf_quantiles(&f.equal_split.iter().map(|&s| s as f64).collect::<Vec<_>>())
        );
        json_out.insert("fig12b".into(), obj! {"greedy_unsplit_frac": frac_unsplit});
    }

    if wants("fig12c") {
        print!("{}", header("Fig. 12c — failure recovery timeline"));
        println!("paper: phones 1, 6, 17 unplugged mid-run; failed work lands mostly on");
        println!("fast phones; recovery extends the makespan by ≈113 s.\n");
        let out = fig12c(opts.seed);
        let original = out.original_work_makespan().as_secs_f64();
        let total = out.makespan.as_secs_f64();
        println!(
            "  completed {}/{} jobs; original work done at {:.0} s; recovery pushed the",
            out.completed_jobs, out.total_jobs, original
        );
        println!(
            "  makespan to {:.0} s (+{:.0} s); {} work items migrated",
            total,
            total - original,
            out.rescheduled_items
        );
        render_timeline(&out, 6);
        json_out.insert(
            "fig12c".into(),
            obj! {
                "makespan_s": total,
                "original_s": original,
                "recovery_extra_s": total - original,
                "migrated_items": out.rescheduled_items,
            },
        );
    }

    if wants("table") {
        print!("{}", header("§6 table — makespan by scheduler"));
        println!("paper: greedy 1100 s vs equal-split 1720 s vs round-robin 1805 s (≈1.6x).\n");
        let rows = table_makespan(opts.seed);
        let greedy = rows
            .iter()
            .find(|r| r.0 == "greedy")
            .map(|r| r.1)
            .unwrap_or(1.0);
        let mut json_rows = Vec::new();
        for (label, makespan, predicted, completed) in &rows {
            println!(
                "  {label:<12} makespan {makespan:>7.0} s  predicted {predicted:>7.0} s  \
                 completed {completed:>3}  ({:.2}x greedy)",
                makespan / greedy
            );
            json_rows.push(obj! {
                "scheduler": label,
                "makespan_s": makespan,
                "predicted_s": predicted,
                "vs_greedy": makespan / greedy,
            });
        }
        json_out.insert("table_makespan".into(), JsonValue::from(json_rows));
    }

    if wants("fig13") {
        print!(
            "{}",
            header("Fig. 13 — greedy vs LP-relaxation lower bound")
        );
        println!("paper: over 1000 random b_i configurations, the greedy median makespan is");
        println!(
            "≈18% above the (loose) relaxation bound. Running {} configs.\n",
            opts.configs
        );
        let pts = fig13(opts.seed, opts.configs);
        let gaps: Vec<f64> = {
            let mut g: Vec<f64> = pts.iter().map(|p| p.gap() * 100.0).collect();
            g.sort_by(|a, b| a.partial_cmp(b).unwrap());
            g
        };
        println!("  optimality gap (%):");
        println!("{}", cdf_quantiles(&gaps));
        println!(
            "  median gap: {:.1}% (paper ≈ 18%)",
            fig13_median_gap(&pts) * 100.0
        );
        let greedy_ms: Vec<f64> = {
            let mut v: Vec<f64> = pts.iter().map(|p| p.greedy_ms / 1e3).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        let relaxed_ms: Vec<f64> = {
            let mut v: Vec<f64> = pts.iter().map(|p| p.relaxed_ms / 1e3).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        println!("  greedy makespan (s): {}", cdf_quantiles(&greedy_ms));
        println!("  relaxed bound   (s): {}", cdf_quantiles(&relaxed_ms));
        if let Some(dir) = &opts.dat_dir {
            write_dat(dir, "fig13_gap", "gap_pct cdf", cdf_rows(&gaps));
            write_dat(dir, "fig13_greedy", "makespan_s cdf", cdf_rows(&greedy_ms));
            write_dat(
                dir,
                "fig13_relaxed",
                "makespan_s cdf",
                cdf_rows(&relaxed_ms),
            );
        }
        json_out.insert(
            "fig13".into(),
            obj! {
                "configs": opts.configs,
                "median_gap": fig13_median_gap(&pts),
            },
        );
    }

    if wants("energy") {
        print!("{}", header("§3.2 — annual energy cost"));
        println!("paper: Core 2 Duo server ≈ $74.5/yr (PUE 2.5), Nehalem ≈ $689/yr,");
        println!("smartphone ≈ $1.33/yr — an order of magnitude apart.\n");
        let e = energy();
        println!(
            "  Core 2 Duo server : ${:>7.2}/year",
            e.core2duo_usd_per_year
        );
        println!(
            "  Nehalem server    : ${:>7.2}/year",
            e.nehalem_usd_per_year
        );
        println!("  smartphone        : ${:>7.2}/year", e.phone_usd_per_year);
        println!(
            "  phones per server energy budget: {:.0}",
            e.phones_per_server()
        );
        json_out.insert(
            "energy".into(),
            obj! {
                "core2duo": e.core2duo_usd_per_year,
                "nehalem": e.nehalem_usd_per_year,
                "phone": e.phone_usd_per_year,
            },
        );
    }

    if wants("ablations") {
        print!(
            "{}",
            header("Ablation — bandwidth-aware vs bandwidth-blind")
        );
        println!("the paper's core design argument: ignoring b_i (Condor-style CPU-only");
        println!("scheduling) inflates the makespan on a wireless fleet.\n");
        let (aware, blind) = ablation_bandwidth_blind(opts.seed);
        println!("  bandwidth-aware : {aware:>7.0} s");
        println!(
            "  bandwidth-blind : {blind:>7.0} s  ({:+.0}%)",
            (blind / aware - 1.0) * 100.0
        );

        print!("{}", header("Ablation — MIMD multiplier sweep"));
        println!("paper's factors are x2 (backoff) and x0.75 (ramp).\n");
        for (inc, dec, full_min, overhead) in ablation_throttle_factors() {
            println!(
                "  inc x{inc:<4} dec x{dec:<5} full charge {full_min:>6.1} min  \
                 compute overhead {:+.1}%",
                overhead * 100.0
            );
        }
        json_out.insert(
            "ablation_bandwidth".into(),
            obj! {"aware_s": aware, "blind_s": blind},
        );
    }

    if wants("overnight") {
        print!(
            "{}",
            header("Extension — behavior-driven nights, failure prediction")
        );
        println!("phones follow the study's plug/unplug behavior; the scheduler either");
        println!("ignores per-phone unplug risk (paper baseline) or prices it in (§3.1's");
        println!("suggested extension). In the stable night window risk pricing is moot;");
        println!("in the morning unplug wave it trades makespan (work concentrates on the");
        println!("few safe phones) for markedly less migration churn.\n");
        for (label, start_hour) in [
            ("1 a.m. window (the paper's regime)", 25u64),
            ("6 a.m. window (morning unplug wave)", 30u64),
        ] {
            println!("  -- {label} --");
            let rows = extension_reliability(opts.seed, 5, start_hour);
            let mut tot = (0f64, 0usize, 0f64, 0usize);
            for (night, n_mk, n_mig, a_mk, a_mig) in &rows {
                println!(
                    "  night {night}: neutral {n_mk:>6.0} s / {n_mig:>2} migrations   \
                     risk-aware {a_mk:>6.0} s / {a_mig:>2} migrations"
                );
                tot = (tot.0 + n_mk, tot.1 + n_mig, tot.2 + a_mk, tot.3 + a_mig);
            }
            let n = rows.len().max(1) as f64;
            println!(
                "  mean   : neutral {:>6.0} s / {:>4.1} migrations   risk-aware {:>6.0} s / {:>4.1} migrations\n",
                tot.0 / n,
                tot.1 as f64 / n,
                tot.2 / n,
                tot.3 as f64 / n
            );
            json_out.insert(
                format!("extension_reliability_h{start_hour}"),
                JsonValue::from(
                    rows.iter()
                        .map(|(night, nm, nmig, am, amig)| {
                            obj! {
                                "night": night,
                                "neutral_makespan_s": nm,
                                "neutral_migrations": nmig,
                                "aware_makespan_s": am,
                                "aware_migrations": amig,
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
            );
        }
    }

    if wants("scaling") {
        print!("{}", header("Extension — makespan vs fleet size"));
        println!("the 150-task workload on growing fleets: bandwidth-aware packing keeps");
        println!("paying as phones join; round-robin flattens once slow phones dominate.\n");
        let rows = extension_scaling(opts.seed);
        let base = rows.first().map(|r| r.1).unwrap_or(1.0);
        for (n, greedy, rr) in &rows {
            println!(
                "  {n:>3} phones: greedy {greedy:>6.0} s (speedup {:>4.1}x)   round-robin {rr:>6.0} s",
                base / greedy
            );
        }
        json_out.insert(
            "extension_scaling".into(),
            JsonValue::from(
                rows.iter()
                    .map(|(n, g, r)| obj! {"phones": n, "greedy_s": g, "round_robin_s": r})
                    .collect::<Vec<_>>(),
            ),
        );
    }

    if let Some(dir) = opts.json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        let path = format!("{dir}/figures-seed{}.json", opts.seed);
        let all = JsonValue::Obj(json_out.into_iter().collect());
        report::write(&path, &all).expect("write json");
        println!("\nwrote {path}");
    }
}

/// Compact ASCII timeline for a subset of phones.
fn render_timeline(out: &cwc_server::EngineOutcome, phones: usize) {
    use cwc_server::SegmentKind;
    let makespan = out.makespan.as_secs_f64().max(1.0);
    let width = 72usize;
    let ids: Vec<u32> = {
        let mut seen: Vec<u32> = out.segments.iter().map(|s| s.phone.0).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.into_iter().take(phones).collect()
    };
    for id in ids {
        let mut row = vec![' '; width];
        for s in out.segments.iter().filter(|s| s.phone.0 == id) {
            let a = ((s.start.as_secs_f64() / makespan) * width as f64) as usize;
            let b = ((s.end.as_secs_f64() / makespan) * width as f64).ceil() as usize;
            let ch = match (s.kind, s.rescheduled) {
                (SegmentKind::Transfer, false) => 'T',
                (SegmentKind::Execute, false) => '#',
                (SegmentKind::Transfer, true) => 't',
                (SegmentKind::Execute, true) => 'x',
            };
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = ch;
            }
        }
        println!("  phone-{id:<3} |{}|", row.iter().collect::<String>());
    }
    println!("             0s{}{:.0}s", " ".repeat(width - 8), makespan);
}
