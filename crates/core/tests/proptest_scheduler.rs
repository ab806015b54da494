//! Property tests over the scheduling algorithms.
//!
//! For random fleets and workloads: every scheduler output must satisfy
//! the SCH constraints (validated structurally), the greedy makespan must
//! never beat the LP relaxation bound, and must never lose to its own
//! baselines by more than the baselines' own validity (they are legal
//! schedules, so greedy ≤ their makespans is *not* guaranteed in theory
//! for a greedy heuristic — we assert the relaxation sandwich instead).

use cwc_core::{
    derisk, relaxed_lower_bound, Assignment, CostMatrix, GreedyScheduler, RuntimePredictor,
    SchedProblem, Schedule, Scheduler, SchedulerKind,
};
use cwc_types::{
    CpuSpec, CwcError, CwcResult, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech,
};
use proptest::prelude::*;

/// A copy of `problem` derisked in place, `problem` left as it was.
fn derisked(
    problem: &SchedProblem,
    fail_prob: &[f64],
    aggressiveness: f64,
) -> CwcResult<SchedProblem> {
    let mut derisked = problem.clone();
    derisk(&mut derisked, fail_prob, aggressiveness)?;
    Ok(derisked)
}

#[derive(Debug, Clone)]
struct RandomInstance {
    phones: Vec<PhoneInfo>,
    jobs: Vec<JobSpec>,
}

/// `(clock MHz, b ms/KB)` per phone, `(input KB, exe KB, atomic)` per job.
fn instance_of(phones: Vec<(u32, f64)>, jobs: Vec<(u64, u64, bool)>) -> RandomInstance {
    RandomInstance {
        phones: phones
            .into_iter()
            .enumerate()
            .map(|(i, (clock, b))| {
                PhoneInfo::new(
                    PhoneId::from_index(i),
                    CpuSpec::new(clock, 2),
                    RadioTech::Wifi80211g,
                    MsPerKb(b),
                )
            })
            .collect(),
        jobs: jobs
            .into_iter()
            .enumerate()
            .map(|(j, (input, exe, atomic))| {
                let id = JobId::from_index(j);
                if atomic {
                    JobSpec::atomic(id, "prog", KiloBytes(exe), KiloBytes(input))
                } else {
                    JobSpec::breakable(id, "prog", KiloBytes(exe), KiloBytes(input))
                }
            })
            .collect(),
    }
}

/// Heterogeneous phones and mixed atomic/breakable jobs, sized by the
/// two ranges.
fn sized_instance_strategy(
    phones: std::ops::Range<usize>,
    jobs: std::ops::Range<usize>,
) -> impl Strategy<Value = RandomInstance> {
    let phone = (806u32..=1500, 1.0..70.0f64);
    let job = (50u64..2_000, 5u64..60, prop::bool::ANY);
    (
        proptest::collection::vec(phone, phones),
        proptest::collection::vec(job, jobs),
    )
        .prop_map(|(phones, jobs)| instance_of(phones, jobs))
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    sized_instance_strategy(2..10, 1..25)
}

/// More phones than jobs: most placements open a bin (Step 2's scan of
/// the job's cost column), few land in an already open one.
fn wide_fleet_strategy() -> impl Strategy<Value = RandomInstance> {
    sized_instance_strategy(30..121, 5..41)
}

/// The live batch's shape: hundreds of one- or two-KB chunks on two or
/// three phones, consumed whole at the head of the item list, plus a few
/// larger atomic items that stay unfit while chunks behind them are
/// taken — so gaps close both at the head cursor and behind it.
fn single_chunk_strategy() -> impl Strategy<Value = RandomInstance> {
    let phone = (806u32..=1500, 1.0..70.0f64);
    let chunk = (1u64..=2, 5u64..60, prop::bool::ANY);
    let lump = (20u64..400, 5u64..60).prop_map(|(input, exe)| (input, exe, true));
    (
        proptest::collection::vec(phone, 2..4),
        proptest::collection::vec(chunk, 200..601),
        proptest::collection::vec(lump, 0..6),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(phones, mut jobs, lumps, at)| {
            // Lumps go in mid-list so job order and sorted order differ.
            let at = at.index(jobs.len());
            jobs.splice(at..at, lumps);
            instance_of(phones, jobs)
        })
}

fn problem_of(inst: &RandomInstance) -> SchedProblem {
    // Clock-scaled costs with baseline 12 ms/KB at 806 MHz.
    let c = inst
        .phones
        .iter()
        .map(|p| {
            inst.jobs
                .iter()
                .map(|_| 12.0 * 806.0 / f64::from(p.cpu.clock_mhz))
                .collect()
        })
        .collect();
    SchedProblem::new(inst.phones.clone(), inst.jobs.clone(), c).unwrap()
}

/// Costs as `RuntimePredictor::cost_matrix` resolves them for one to
/// three programs, each with its own baseline at 806 MHz scaled by
/// clock, so the jobs of one program share a cost column. Then one
/// phone's cell is perturbed for a random subset of jobs, by one ulp or
/// by a quarter — half the time on the last phone, which the cost
/// tables' column check reaches on its final row — and exactly those
/// jobs must leave their program's column.
fn mixed_columns_strategy() -> impl Strategy<Value = SchedProblem> {
    let job = (any::<prop::sample::Index>(), 0u8..4);
    let phone = (prop::bool::ANY, any::<prop::sample::Index>());
    (
        instance_strategy(),
        proptest::collection::vec(4.0..40.0f64, 1..=3),
        proptest::collection::vec(job, 24),
        phone,
        prop::bool::ANY,
    )
        .prop_map(|(inst, baselines, per_job, (on_last, phone), by_one_ulp)| {
            let program = |j: usize| per_job[j].0.index(baselines.len());
            let mut c: Vec<Vec<f64>> = (inst.phones.iter())
                .map(|p| {
                    let clock = f64::from(p.cpu.clock_mhz);
                    (0..inst.jobs.len())
                        .map(|j| baselines[program(j)] * 806.0 / clock)
                        .collect()
                })
                .collect();
            let num_phones = inst.phones.len();
            let row = &mut c[if on_last {
                num_phones - 1
            } else {
                phone.index(num_phones)
            }];
            for (cell, &(_, draw)) in row.iter_mut().zip(&per_job) {
                if draw == 0 {
                    *cell = if by_one_ulp {
                        cell.next_up()
                    } else {
                        *cell * 1.25
                    };
                }
            }
            let mut jobs = inst.jobs;
            for (j, spec) in jobs.iter_mut().enumerate() {
                spec.program = format!("prog{}", program(j));
            }
            SchedProblem::new(inst.phones, jobs, c.into()).unwrap()
        })
}

/// One program, but every job's costs scaled by a factor of its own:
/// one cost column per job (up to 40, so up to three tiles of the
/// tables' transposition), and the column check's per-job pass runs on
/// every row.
fn all_distinct_columns_strategy() -> impl Strategy<Value = SchedProblem> {
    sized_instance_strategy(2..12, 1..41).prop_map(|inst| {
        let c = (inst.phones.iter())
            .map(|p| {
                let clock = f64::from(p.cpu.clock_mhz);
                (0..inst.jobs.len())
                    .map(|j| 12.0 * (1.0 + 0.01 * j as f64) * 806.0 / clock)
                    .collect()
            })
            .collect();
        SchedProblem::new(inst.phones, inst.jobs, c).unwrap()
    })
}

/// Every job atomic: maximally stresses whole-item placement and the
/// infeasibility path of the binary search.
fn atomic_heavy_strategy() -> impl Strategy<Value = RandomInstance> {
    instance_strategy().prop_map(|mut inst| {
        inst.jobs = inst
            .jobs
            .into_iter()
            .map(|j| JobSpec::atomic(j.id, "prog", j.exe_kb, j.input_kb))
            .collect();
        inst
    })
}

/// Tight per-phone RAM caps: forces splits on breakables and rejects
/// bins for oversized atomics, stressing `max_fit_kb`'s clamp path.
fn ram_capped_strategy() -> impl Strategy<Value = RandomInstance> {
    (instance_strategy(), 80u64..600).prop_map(|(mut inst, ram)| {
        inst.phones = inst
            .phones
            .into_iter()
            .map(|p| p.with_ram_kb(ram))
            .collect();
        inst
    })
}

/// Atomic photoblur on the cheaper cost column and breakable primecount
/// on a dearer one, with executables as large as the inputs, so the
/// fill's exit is mostly decided by the atomic floor and by the
/// executable a job not yet on the bin pays. With a RAM cap, half the
/// time, a breakable job is split by the cap rather than by the room,
/// and its remainder stays live on the bin with its executable paid:
/// the one case in which the breakable floor drops that term.
fn cheap_atomic_column_strategy() -> impl Strategy<Value = SchedProblem> {
    let phone = (806u32..=1500, 1.0..70.0f64);
    let job = (prop::bool::ANY, 20u64..2_000, 100u64..4_000);
    (
        proptest::collection::vec(phone, 2..12),
        proptest::collection::vec(job, 1..30),
        2.0..10.0f64,
        1.2..3.0f64,
        proptest::option::of(80u64..600),
    )
        .prop_map(|(phones, jobs, atomic_cost, dearer, ram)| {
            // Atomic inputs stay under 400 KB, so most fit some phone's RAM.
            let jobs = (jobs.into_iter())
                .map(|(atomic, input, exe)| {
                    let input = if atomic { 20 + input % 380 } else { input };
                    (input, exe, atomic)
                })
                .collect();
            let mut inst = instance_of(phones, jobs);
            if let Some(ram) = ram {
                inst.phones = (inst.phones.into_iter())
                    .map(|p| p.with_ram_kb(ram))
                    .collect();
            }
            for spec in &mut inst.jobs {
                let program = if spec.kind.is_atomic() {
                    "photoblur"
                } else {
                    "primecount"
                };
                spec.program = program.into();
            }
            let c = (inst.phones.iter())
                .map(|p| {
                    let scale = 806.0 / f64::from(p.cpu.clock_mhz);
                    (inst.jobs.iter())
                        .map(|spec| {
                            let base = atomic_cost * scale;
                            if spec.kind.is_atomic() {
                                base
                            } else {
                                base * dearer
                            }
                        })
                        .collect()
                })
                .collect();
            SchedProblem::new(inst.phones, inst.jobs, c).unwrap()
        })
}

/// Phones drawn from a palette of six `(b_i, c_i)` kinds, so a fleet
/// holds duplicated phones, phones with equal links and different
/// rates, and phones with equal rates and different links (1 + 9 =
/// 5 + 5 = 9 + 1, exactly). A second program doubles every `c_i`, with
/// its own ties. Every tie the worst-bin skyline's walk can meet — in
/// rate, in link, in both — is there, and so is Step 2's tie-break by
/// phone index.
fn tied_fleet_strategy() -> impl Strategy<Value = SchedProblem> {
    const PALETTE: [(f64, f64); 6] = [
        (1.0, 9.0),
        (5.0, 5.0),
        (5.0, 9.0),
        (1.0, 5.0),
        (9.0, 1.0),
        (5.0, 5.0),
    ];
    let job = (50u64..2_000, 5u64..400, prop::bool::ANY, prop::bool::ANY);
    (
        proptest::collection::vec(0..PALETTE.len(), 2..16),
        proptest::collection::vec(job, 1..30),
        proptest::option::of(80u64..600),
    )
        .prop_map(|(kinds, jobs, ram)| {
            let phones = kinds.iter().map(|&k| (1_000, PALETTE[k].0)).collect();
            let second: Vec<bool> = jobs.iter().map(|j| j.3).collect();
            let jobs = (jobs.into_iter())
                .map(|(input, exe, atomic, _)| (input, exe, atomic))
                .collect();
            let mut inst = instance_of(phones, jobs);
            if let Some(ram) = ram {
                inst.phones = (inst.phones.into_iter())
                    .map(|p| p.with_ram_kb(ram))
                    .collect();
            }
            for (spec, &second) in inst.jobs.iter_mut().zip(&second) {
                spec.program = if second { "prog1" } else { "prog0" }.into();
            }
            let c = (kinds.iter())
                .map(|&k| {
                    let c = PALETTE[k].1;
                    second
                        .iter()
                        .map(|&second| if second { 2.0 * c } else { c })
                        .collect()
                })
                .collect();
            SchedProblem::new(inst.phones, inst.jobs, c).unwrap()
        })
}

/// Asserts the optimized packer reproduces the seed (reference) packer
/// bit for bit: same assignment queues, same predicted makespan bits,
/// same stats (probe counts, and the search's starting bounds, which
/// the optimized path takes from its one pass over the cost tables).
/// And the theorem the optimized packer is built on, not only its
/// consequence: the reference, which does try every open bin, never
/// places a Step-1 item anywhere but the newest one.
fn assert_matches_reference(problem: &SchedProblem) {
    let sched = GreedyScheduler;
    let fast = sched.schedule_with_stats(problem);
    let slow = cwc_core::greedy::reference::schedule_with_probe(problem);
    match (fast, slow) {
        (Ok((fast_s, fast_stats)), Ok((slow_s, slow_stats, off_newest))) => {
            assert_eq!(off_newest, 0, "Step 1 placed into an older bin");
            assert_eq!(&fast_s.per_phone, &slow_s.per_phone);
            assert_eq!(
                fast_s.predicted_makespan_ms.to_bits(),
                slow_s.predicted_makespan_ms.to_bits(),
                "makespan bits differ: {} vs {}",
                fast_s.predicted_makespan_ms,
                slow_s.predicted_makespan_ms
            );
            assert_eq!(fast_stats, slow_stats);
            assert_eq!(fast_stats.ub_ms.to_bits(), slow_stats.ub_ms.to_bits());
            assert_eq!(fast_stats.lb_ms.to_bits(), slow_stats.lb_ms.to_bits());
        }
        (Err(_), Err(_)) => {} // both infeasible: agreement
        (fast, slow) => {
            panic!("feasibility disagreement: optimized {fast:?} vs reference {slow:?}");
        }
    }
}

/// An instance of any family above, its jobs spread over one to three
/// programs, with costs for the predictor to resolve: each program's
/// baseline (drawn from a set with a repeat, so two programs may cost
/// the same to the bit) and a few learned reports.
#[derive(Debug, Clone)]
struct PredictedInstance {
    inst: RandomInstance,
    baselines: Vec<f64>,
    program_of: Vec<prop::sample::Index>,
    reports: Vec<(prop::sample::Index, prop::sample::Index, u64, f64)>,
}

fn predicted_strategy() -> impl Strategy<Value = PredictedInstance> {
    let family = prop_oneof![
        instance_strategy(),
        atomic_heavy_strategy(),
        ram_capped_strategy(),
        wide_fleet_strategy(),
        single_chunk_strategy(),
    ];
    let baseline = (0usize..4).prop_map(|k| [6.0, 12.0, 12.0, 20.5][k]);
    let report = (
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        1u64..500,
        1.0..5_000.0f64,
    );
    (
        family,
        proptest::collection::vec(baseline, 1..=3),
        proptest::collection::vec(any::<prop::sample::Index>(), 1..24),
        proptest::collection::vec(report, 0..4),
    )
        .prop_map(|(inst, baselines, program_of, reports)| PredictedInstance {
            inst,
            baselines,
            program_of,
            reports,
        })
}

/// The predictor's grouped matrix and the same cells passed as rows
/// group alike — the same `column_of`, the same columns in the same
/// order — and schedule alike, cold and warm, to the bit. Neither asks
/// for the row view.
fn assert_predicted_matches_rows(case: PredictedInstance) {
    let PredictedInstance {
        inst,
        baselines,
        program_of,
        reports,
    } = case;
    let names: Vec<String> = (0..baselines.len()).map(|k| format!("prog{k}")).collect();
    let mut predictor = RuntimePredictor::new();
    for (name, &baseline) in names.iter().zip(&baselines) {
        predictor.set_baseline(name, baseline);
    }
    for (phone, program, kb, ms) in &reports {
        let phone = &inst.phones[phone.index(inst.phones.len())];
        predictor.observe(
            phone,
            &names[program.index(names.len())],
            KiloBytes(*kb),
            *ms,
        );
    }
    let mut jobs = inst.jobs;
    for (j, spec) in jobs.iter_mut().enumerate() {
        let k = program_of[j % program_of.len()].index(names.len());
        spec.program = names[k].clone();
    }
    let programs: Vec<&str> = jobs.iter().map(|spec| spec.program.as_str()).collect();
    let rows: Vec<Vec<f64>> = (inst.phones.iter())
        .map(|p| {
            programs
                .iter()
                .map(|prog| predictor.c_ij(p, prog))
                .collect()
        })
        .collect();
    let rows_built = CostMatrix::rows_built_on_this_thread();
    let c = predictor.cost_matrix(&inst.phones, &programs);
    let predicted = SchedProblem::new(inst.phones.clone(), jobs.clone(), c).unwrap();
    let raw = SchedProblem::new(inst.phones, jobs, rows.into()).unwrap();

    assert_eq!(predicted.c.column_of(), raw.c.column_of());
    let bits = |c: &CostMatrix| -> Vec<Vec<u64>> {
        let columns = c.columns().expect("grouped by new");
        columns
            .map(|col| col.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&predicted.c), bits(&raw.c));

    let sched = GreedyScheduler;
    let cold = |problem: &SchedProblem| sched.schedule_warm_with_stats(problem, None);
    match (cold(&predicted), cold(&raw)) {
        (Ok((p_s, p_stats, p_warm)), Ok((r_s, r_stats, r_warm))) => {
            assert_eq!(&p_s.per_phone, &r_s.per_phone);
            assert_eq!(
                p_s.predicted_makespan_ms.to_bits(),
                r_s.predicted_makespan_ms.to_bits()
            );
            assert_eq!(p_stats, r_stats);
            assert_eq!(p_warm, r_warm);
            // Warm from the cold instant's own hint, as a re-solve is.
            let warm = |problem: &SchedProblem| {
                sched
                    .schedule_warm_with_stats(problem, Some(p_warm))
                    .unwrap()
            };
            let ((p_s, p_stats, _), (r_s, r_stats, _)) = (warm(&predicted), warm(&raw));
            assert_eq!(&p_s.per_phone, &r_s.per_phone);
            assert_eq!(
                p_s.predicted_makespan_ms.to_bits(),
                r_s.predicted_makespan_ms.to_bits()
            );
            assert_eq!(p_stats, r_stats);
        }
        (Err(_), Err(_)) => {}
        (p, r) => panic!("feasibility disagreement: predicted {p:?} vs rows {r:?}"),
    }
    assert_eq!(CostMatrix::rows_built_on_this_thread(), rows_built);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schedulers_produce_valid_schedules(inst in instance_strategy()) {
        let problem = problem_of(&inst);
        for kind in SchedulerKind::ALL {
            let s = Scheduler::run(kind, &problem).expect("schedulable");
            prop_assert!(s.validate(&problem).is_ok(), "{kind:?} invalid");
            prop_assert!(s.predicted_makespan_ms > 0.0);
        }
    }

    #[test]
    fn greedy_respects_relaxation_sandwich(inst in instance_strategy()) {
        let problem = problem_of(&inst);
        let greedy = GreedyScheduler.schedule(&problem).unwrap();
        let lb = relaxed_lower_bound(&problem).unwrap();
        prop_assert!(
            greedy.predicted_makespan_ms >= lb - 1e-6 * (1.0 + lb),
            "greedy {} below LP bound {lb}", greedy.predicted_makespan_ms
        );
    }

    #[test]
    fn greedy_never_splits_atomics_and_covers_everything(inst in instance_strategy()) {
        let problem = problem_of(&inst);
        let s = GreedyScheduler.schedule(&problem).unwrap();
        let parts = s.partitions_per_job();
        let mut covered = std::collections::HashMap::new();
        for a in s.per_phone.iter().flatten() {
            *covered.entry(a.job).or_insert(0u64) += a.input_kb.0;
        }
        for job in &problem.jobs {
            prop_assert_eq!(covered[&job.id], job.input_kb.0, "{} coverage", job.id);
            if job.kind.is_atomic() {
                prop_assert_eq!(parts[&job.id], 1, "{} split", job.id);
            }
        }
    }

    #[test]
    fn greedy_is_at_least_as_good_as_the_better_baseline_most_of_the_time(
        inst in instance_strategy()
    ) {
        // The greedy is a heuristic, so we assert a weaker, always-true
        // form: it never exceeds the WORSE baseline (the paper's 1.6x
        // margin is demonstrated in the figure harness, not a theorem).
        let problem = problem_of(&inst);
        let greedy = GreedyScheduler.schedule(&problem).unwrap();
        let worse = SchedulerKind::ALL
            .iter()
            .filter(|k| **k != SchedulerKind::Greedy)
            .filter_map(|k| Scheduler::run(*k, &problem).ok())
            .map(|s| s.predicted_makespan_ms)
            .fold(0.0f64, f64::max);
        if worse > 0.0 {
            prop_assert!(
                greedy.predicted_makespan_ms <= worse * 1.05,
                "greedy {} far above worst baseline {worse}",
                greedy.predicted_makespan_ms
            );
        }
    }

    #[test]
    fn derisk_with_zero_aggressiveness_is_a_scheduling_identity(
        inst in instance_strategy(),
        probs in proptest::collection::vec(0.0..=1.0f64, 10),
    ) {
        // aggressiveness = 0 must be a no-op end to end: not just equal
        // costs, but a byte-identical schedule out of the packer.
        let problem = problem_of(&inst);
        let fail_prob = &probs[..problem.num_phones()];
        let derisked = derisked(&problem, fail_prob, 0.0).unwrap();
        let neutral = GreedyScheduler.schedule(&problem).unwrap();
        let risk_aware = GreedyScheduler.schedule(&derisked).unwrap();
        prop_assert_eq!(&neutral.per_phone, &risk_aware.per_phone);
        prop_assert_eq!(
            neutral.predicted_makespan_ms.to_bits(),
            risk_aware.predicted_makespan_ms.to_bits()
        );
    }

    #[test]
    fn assigned_bytes_are_monotone_non_increasing_in_fail_prob(
        inst in instance_strategy(),
        phone_ix in any::<prop::sample::Index>(),
        lo in 0.0..=1.0f64,
        hi in 0.0..=1.0f64,
    ) {
        // Raising one phone's failure probability (all else equal) never
        // hands that phone MORE bytes: its effective cost only grows, so
        // the greedy packer can only shift work away from it.
        let problem = problem_of(&inst);
        let i = phone_ix.index(problem.num_phones());
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let assigned_kb = |p: f64| -> u64 {
            let mut probs = vec![0.0; problem.num_phones()];
            probs[i] = p;
            let derisked = derisked(&problem, &probs, 1.0).unwrap();
            let s = GreedyScheduler.schedule(&derisked).unwrap();
            s.per_phone[i].iter().map(|a| a.input_kb.0).sum()
        };
        prop_assert!(
            assigned_kb(hi) <= assigned_kb(lo),
            "phone {i}: load at p={hi} exceeds load at p={lo}"
        );
    }

    #[test]
    fn warm_started_search_is_valid_and_never_packs_more(inst in instance_strategy()) {
        // Warm schedules may legitimately differ from cold ones inside
        // the tolerance window; what must hold is validity, comparable
        // quality, and no extra packing work on a hit.
        let problem = problem_of(&inst);
        let sched = GreedyScheduler;
        if let Ok((cold_s, cold_stats, warm)) = sched.schedule_warm_with_stats(&problem, None) {
            let (warm_s, warm_stats, _) = sched
                .schedule_warm_with_stats(&problem, Some(warm))
                .expect("warm rerun of a feasible instance stays feasible");
            prop_assert!(warm_s.validate(&problem).is_ok());
            prop_assert!(
                warm_s.predicted_makespan_ms <= cold_s.predicted_makespan_ms * 1.05 + 1.0,
                "warm {} much worse than cold {}",
                warm_s.predicted_makespan_ms,
                cold_s.predicted_makespan_ms
            );
            if warm_stats.warm_hits > 0 {
                prop_assert!(
                    warm_stats.pack_calls <= cold_stats.pack_calls,
                    "warm hit but packed more: {warm_stats:?} vs {cold_stats:?}"
                );
            }
        }
    }
}

/// One mid-sized instance of the `sched-fleet` family (`benchmark/`'s
/// `synth_instance` patterns): heterogeneous clocks and links, 200–1 999
/// KB inputs, every third job atomic, 150 ms/KB at 806 MHz.
#[test]
fn optimized_packer_matches_reference_on_a_300_by_200_fleet() {
    let phones = (0..300u64)
        .map(|i| {
            (
                806 + ((i * 97 + 411) % 700) as u32,
                1.0 + (i as f64 * 7.3 + 12.6) % 69.0,
            )
        })
        .collect();
    let jobs = (0..200u64)
        .map(|j| {
            let exe = if j % 3 == 2 { 40 } else { 30 };
            (200 + (j * 131 + 977) % 1_800, exe, j % 3 == 2)
        })
        .collect();
    let inst = instance_of(phones, jobs);
    let c = inst
        .phones
        .iter()
        .map(|p| vec![150.0 * 806.0 / f64::from(p.cpu.clock_mhz); inst.jobs.len()])
        .collect();
    let problem = SchedProblem::new(inst.phones, inst.jobs, c).unwrap();
    assert_matches_reference(&problem);
}

/// Single probes of one arena, each finished probe against the seed
/// packer's queues at the same capacity: first a search's probes — the
/// worst-bin bound, then a bisection toward the magical-bin bound that
/// follows the seed's answers — then 17 capacities spread evenly between
/// the two bounds, so probes that pack and probes that fail follow each
/// other in both orders. Returns how many probes stopped early.
fn assert_probes_match_reference(problem: &SchedProblem) -> usize {
    let tables = problem.tables();
    let (lb, ub) = (tables.lower_bound_ms(), tables.upper_bound_ms());
    let mut capacities = vec![ub];
    let (mut lo, mut hi) = (lb.min(ub), ub);
    for _ in 0..10 {
        let mid = 0.5 * (lo + hi);
        capacities.push(mid);
        if cwc_core::greedy::reference::pack_queues(problem, mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    capacities.extend((0..=16).map(|k| lb + (ub - lb) * f64::from(k) / 16.0));
    let probed = cwc_core::greedy::probe_each(problem, &capacities).unwrap();
    for (probe, &capacity) in probed.iter().zip(&capacities) {
        let want = cwc_core::greedy::reference::pack_queues(problem, capacity);
        assert_eq!(probe.queues, want, "probe at {capacity} ms");
    }
    probed.iter().filter(|p| p.stopped_early).count()
}

// The packer-equivalence properties get their own, larger case count:
// they are cheap (no LP), and CI's release-mode "Packer equivalence
// proptests" step is what guards the packer's layout on every push.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimized_packer_is_byte_identical_to_the_reference(inst in instance_strategy()) {
        assert_matches_reference(&problem_of(&inst));
    }

    #[test]
    fn optimized_packer_matches_reference_on_atomic_heavy_instances(
        inst in atomic_heavy_strategy()
    ) {
        assert_matches_reference(&problem_of(&inst));
    }

    #[test]
    fn optimized_packer_matches_reference_on_ram_capped_instances(
        inst in ram_capped_strategy()
    ) {
        assert_matches_reference(&problem_of(&inst));
    }

    #[test]
    fn optimized_packer_matches_reference_on_wide_fleets(inst in wide_fleet_strategy()) {
        assert_matches_reference(&problem_of(&inst));
    }

    #[test]
    fn optimized_packer_matches_reference_on_single_chunk_batches(
        inst in single_chunk_strategy()
    ) {
        assert_matches_reference(&problem_of(&inst));
    }

    #[test]
    fn optimized_packer_matches_reference_on_mixed_cost_columns(
        problem in mixed_columns_strategy()
    ) {
        assert_matches_reference(&problem);
    }

    #[test]
    fn optimized_packer_matches_reference_when_every_cost_column_is_distinct(
        problem in all_distinct_columns_strategy()
    ) {
        assert_matches_reference(&problem);
    }

    #[test]
    fn optimized_packer_matches_reference_on_derisked_mixed_cost_columns(
        problem in mixed_columns_strategy(),
        probs in proptest::collection::vec(0.0..=1.0f64, 10),
        aggressiveness in 0.0..=1.0f64,
    ) {
        // Per-phone factors keep a program's column shared, and may
        // round a perturbed cell back onto it.
        let fail_prob = &probs[..problem.num_phones()];
        assert_matches_reference(&derisked(&problem, fail_prob, aggressiveness).unwrap());
    }

    #[test]
    fn optimized_packer_matches_reference_with_atomic_jobs_on_the_cheaper_column(
        problem in cheap_atomic_column_strategy()
    ) {
        assert_matches_reference(&problem);
    }

    #[test]
    fn optimized_packer_matches_reference_on_fleets_with_tied_phones(
        problem in tied_fleet_strategy()
    ) {
        assert_matches_reference(&problem);
    }

    #[test]
    fn single_probes_match_the_reference_on_wide_fleets(inst in wide_fleet_strategy()) {
        // More phones than jobs: at the worst-bin bound every phone can
        // take any job whole, so that probe at least stops early.
        let stopped = assert_probes_match_reference(&problem_of(&inst));
        prop_assert!(stopped > 0, "no probe stopped early");
    }

    #[test]
    fn single_probes_match_the_reference_on_ram_capped_instances(
        inst in ram_capped_strategy()
    ) {
        assert_probes_match_reference(&problem_of(&inst));
    }

    #[test]
    fn single_probes_match_the_reference_on_atomic_heavy_instances(
        inst in atomic_heavy_strategy()
    ) {
        assert_probes_match_reference(&problem_of(&inst));
    }

    #[test]
    fn single_probes_match_the_reference_on_mixed_cost_columns(
        problem in mixed_columns_strategy()
    ) {
        assert_probes_match_reference(&problem);
    }

    #[test]
    fn single_probes_match_the_reference_when_every_cost_column_is_distinct(
        problem in all_distinct_columns_strategy()
    ) {
        assert_probes_match_reference(&problem);
    }

    #[test]
    fn predicted_cost_columns_schedule_like_the_same_cells_as_rows(
        case in predicted_strategy()
    ) {
        assert_predicted_matches_rows(case);
    }
}

/// `Schedule::validate` as it was before its counting sort: every piece
/// sorted by `(job index, offset, len)` at once, ids looked up in a
/// sorted table. The oracle the linear version must agree with, error
/// string for error string.
fn validate_by_sorting(schedule: &Schedule, problem: &SchedProblem) -> CwcResult<()> {
    if problem.c.dims() != Some((problem.phones.len(), problem.jobs.len())) {
        return Err(CwcError::Config(format!(
            "cost matrix must be {}x{}",
            problem.phones.len(),
            problem.jobs.len()
        )));
    }
    if schedule.per_phone.len() != problem.num_phones() {
        return Err(CwcError::Config(format!(
            "schedule has {} phone queues, problem has {} phones",
            schedule.per_phone.len(),
            problem.num_phones()
        )));
    }
    let mut ids: Vec<(JobId, usize)> = problem.jobs.iter().map(|j| j.id).zip(0..).collect();
    ids.sort_unstable();
    ids.dedup_by_key(|&mut (id, _)| id);
    let unknown = problem.num_jobs();
    let mut pieces: Vec<(usize, u64, u64)> = Vec::new();
    for (i, q) in schedule.per_phone.iter().enumerate() {
        for a in q {
            if a.phone != problem.phones[i].id {
                return Err(CwcError::Config(format!(
                    "assignment for {} queued on {}",
                    a.phone, problem.phones[i].id
                )));
            }
            if a.input_kb.is_zero() {
                return Err(CwcError::Config(format!("empty partition of {}", a.job)));
            }
            if a.input_kb.0 > problem.phones[i].ram_kb {
                return Err(CwcError::Config(format!(
                    "partition of {} exceeds RAM of {}",
                    a.job, a.phone
                )));
            }
            let j = match ids.binary_search_by_key(&a.job, |&(id, _)| id) {
                Ok(at) => ids[at].1,
                Err(_) => unknown,
            };
            pieces.push((j, a.offset_kb.0, a.input_kb.0));
        }
    }
    pieces.sort_unstable();
    let mut rest = pieces.as_slice();
    for (j, job) in problem.jobs.iter().enumerate() {
        let run = rest.partition_point(|&(of, _, _)| of == j);
        let (own, after) = rest.split_at(run);
        rest = after;
        if own.is_empty() {
            return Err(CwcError::Infeasible(format!("{} not scheduled", job.id)));
        }
        let mut cursor = 0u64;
        for &(_, off, len) in own {
            if off != cursor {
                return Err(CwcError::Config(format!(
                    "{}: gap/overlap at offset {off} (expected {cursor})",
                    job.id
                )));
            }
            cursor += len;
        }
        if cursor != job.input_kb.0 {
            return Err(CwcError::Config(format!(
                "{}: covered {cursor} of {} KB",
                job.id, job.input_kb.0
            )));
        }
        if job.kind.is_atomic() && own.len() != 1 {
            return Err(CwcError::Config(format!(
                "atomic {} split into {} pieces",
                job.id,
                own.len()
            )));
        }
    }
    if !rest.is_empty() {
        return Err(CwcError::Config("schedule references unknown jobs".into()));
    }
    Ok(())
}

/// Where the mutations below strike: which piece, which phone, which job.
type Picks = [prop::sample::Index; 3];

/// `(phone, queue position)` of the piece `pick` lands on, if any.
fn piece_at(s: &Schedule, pick: &prop::sample::Index) -> Option<(usize, usize)> {
    let total = s.num_assignments();
    if total == 0 {
        return None;
    }
    let mut k = pick.index(total);
    for (i, q) in s.per_phone.iter().enumerate() {
        if k < q.len() {
            return Some((i, k));
        }
        k -= q.len();
    }
    None
}

/// Asserts the two validations agree on `s` and on every mutation of it.
fn assert_validate_matches_the_sort(problem: &SchedProblem, s: &Schedule, picks: &Picks) {
    let agree = |s: &Schedule, problem: &SchedProblem, what: &str| {
        let linear = s.validate(problem).map_err(|e| e.to_string());
        let sorted = validate_by_sorting(s, problem).map_err(|e| e.to_string());
        assert_eq!(linear, sorted, "{what}");
    };
    agree(s, problem, "as scheduled");
    let [piece, phone, job] = picks;
    let other_phone = |i: usize| (i + 1 + phone.index(problem.num_phones())) % problem.num_phones();
    let Some((i, k)) = piece_at(s, piece) else {
        return;
    };

    let mut dropped = s.clone();
    dropped.per_phone[i].remove(k);
    agree(&dropped, problem, "a piece dropped");

    let mut shifted = s.clone();
    shifted.per_phone[i][k].offset_kb.0 += 1;
    agree(&shifted, problem, "an offset shifted by 1 KB");

    let mut twice = s.clone();
    let to = other_phone(i);
    let copy = Assignment {
        phone: problem.phones[to].id,
        ..s.per_phone[i][k].clone()
    };
    twice.per_phone[to].push(copy);
    agree(&twice, problem, "a piece duplicated onto another phone");

    let mut renamed = s.clone();
    renamed.per_phone[i][k].job = JobId(u32::MAX - 7);
    agree(&renamed, problem, "a piece renamed to an unknown job");

    // Split the first atomic piece at or after the pick.
    let atomic = |a: &Assignment| {
        let spec = problem.jobs.iter().find(|j| j.id == a.job);
        spec.is_some_and(|j| j.kind.is_atomic()) && a.input_kb.0 >= 2
    };
    let flat: Vec<(usize, usize)> = (s.per_phone.iter().enumerate())
        .flat_map(|(i, q)| (0..q.len()).map(move |k| (i, k)))
        .collect();
    let start = flat.iter().position(|&at| at == (i, k)).unwrap_or(0);
    let found =
        (flat[start..].iter().chain(&flat[..start])).find(|&&(i, k)| atomic(&s.per_phone[i][k]));
    if let Some(&(i, k)) = found {
        let mut split = s.clone();
        let whole = split.per_phone[i][k].clone();
        let head = KiloBytes(whole.input_kb.0 / 2);
        split.per_phone[i][k].input_kb = head;
        let to = other_phone(i);
        split.per_phone[to].push(Assignment {
            phone: problem.phones[to].id,
            input_kb: whole.input_kb - head,
            offset_kb: whole.offset_kb + head,
            ..whole
        });
        agree(&split, problem, "an atomic job split");
    }

    if problem.num_jobs() >= 2 {
        let n = problem.num_jobs();
        let a = job.index(n);
        let b = (a + 1 + phone.index(n - 1)) % n;
        let mut repeated = problem.clone();
        repeated.jobs[b].id = repeated.jobs[a].id;
        agree(s, &repeated, "the problem repeats a job id");
        agree(&shifted, &repeated, "a repeated id and a shifted offset");
    }

    // Ids out of order, and with gaps: the table path instead of offsets.
    let mut reordered = problem.clone();
    reordered.jobs.reverse();
    agree(s, &reordered, "the problem's jobs reversed");
    let mut gapped = problem.clone();
    for spec in &mut gapped.jobs {
        spec.id = JobId(spec.id.0 * 3);
    }
    agree(s, &gapped, "the problem's ids spread apart");
}

/// The greedy schedule, or every job whole on the first phone where the
/// instance is infeasible (a schedule validation then refuses).
fn schedule_for(problem: &SchedProblem) -> Schedule {
    if let Ok(s) = Scheduler::run(SchedulerKind::Greedy, problem) {
        return s;
    }
    let mut per_phone = vec![Vec::new(); problem.num_phones()];
    per_phone[0] = (problem.jobs.iter())
        .map(|j| Assignment {
            phone: problem.phones[0].id,
            job: j.id,
            input_kb: j.input_kb,
            offset_kb: KiloBytes::ZERO,
        })
        .collect();
    Schedule {
        per_phone,
        predicted_makespan_ms: 0.0,
    }
}

fn picks() -> impl Strategy<Value = Picks> {
    let pick = any::<prop::sample::Index>;
    (pick(), pick(), pick()).prop_map(|(piece, phone, job)| [piece, phone, job])
}

// CI's release-mode "Packer equivalence proptests" step runs these too.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validate_matches_the_sorting_oracle(inst in instance_strategy(), picks in picks()) {
        let problem = problem_of(&inst);
        assert_validate_matches_the_sort(&problem, &schedule_for(&problem), &picks);
    }

    #[test]
    fn validate_matches_the_sorting_oracle_on_atomic_heavy_instances(
        inst in atomic_heavy_strategy(),
        picks in picks()
    ) {
        let problem = problem_of(&inst);
        assert_validate_matches_the_sort(&problem, &schedule_for(&problem), &picks);
    }

    #[test]
    fn validate_matches_the_sorting_oracle_on_ram_capped_instances(
        inst in ram_capped_strategy(),
        picks in picks()
    ) {
        let problem = problem_of(&inst);
        assert_validate_matches_the_sort(&problem, &schedule_for(&problem), &picks);
    }

    #[test]
    fn validate_matches_the_sorting_oracle_on_mixed_cost_columns(
        problem in mixed_columns_strategy(),
        picks in picks()
    ) {
        assert_validate_matches_the_sort(&problem, &schedule_for(&problem), &picks);
    }
}
