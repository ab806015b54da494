//! The packer's counted work on two fleet-scale cold searches, pinned
//! exactly.
//!
//! The instances come from the generator `fleet_pin.rs` uses, with the
//! fleet's size a parameter: heterogeneous
//! clocks (806–1 505 MHz) and links (1–70 ms/KB), 200–1 999 KB inputs,
//! every third job atomic, and two programs whose clock-scaled
//! baselines differ, so atomic photoblur has the cheaper cost column.
//! One is `fleet_pin.rs`'s own 1 000 × 1 000 instance, the other
//! 200 × 1 000 (`sim-fleet`'s shape). A count is exact for an instance,
//! so a change that does more or less work than it claims fails here
//! in one run, with no timing noise. Each count's earlier values are
//! in the comments beside it.

use cwc_core::{GreedyScheduler, GreedyStats, PackWork, RuntimePredictor, SchedProblem};
use cwc_types::{CpuSpec, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};

fn fleet_instance(num_phones: usize, num_jobs: usize) -> SchedProblem {
    let phones: Vec<PhoneInfo> = (0..num_phones)
        .map(|i| {
            PhoneInfo::new(
                PhoneId::from_index(i),
                CpuSpec::new(806 + ((i as u64 * 97 + 411) % 700) as u32, 2),
                RadioTech::Wifi80211g,
                MsPerKb(1.0 + (i as f64 * 7.3 + 12.6) % 69.0),
            )
        })
        .collect();
    let jobs: Vec<JobSpec> = (0..num_jobs)
        .map(|j| {
            let id = JobId::from_index(j);
            let size = KiloBytes(200 + (j as u64 * 131 + 977) % 1_800);
            if j % 3 == 2 {
                JobSpec::atomic(id, "photoblur", KiloBytes(40), size)
            } else {
                JobSpec::breakable(id, "primecount", KiloBytes(30), size)
            }
        })
        .collect();
    let mut predictor = RuntimePredictor::new();
    predictor.set_baseline("primecount", 150.0);
    predictor.set_baseline("photoblur", 115.0);
    let programs: Vec<&str> = jobs.iter().map(|s| s.program.as_str()).collect();
    let c = predictor.cost_matrix(&phones, &programs);
    SchedProblem::new(phones, jobs, c).unwrap()
}

/// One cold search's counted work and stats, checked for a valid
/// schedule and for counting the same twice.
fn cold_work(problem: &SchedProblem) -> (PackWork, GreedyStats) {
    let run = || {
        GreedyScheduler
            .schedule_warm_with_work(problem, None)
            .unwrap()
    };
    let (schedule, stats, _, work) = run();
    schedule.validate(problem).unwrap();
    assert_eq!(run().3, work, "a second run counted differently");
    (work, stats)
}

#[test]
fn fleet_pin_instance_work_is_pinned() {
    let problem = fleet_instance(1_000, 1_000);
    let (work, stats) = cold_work(&problem);
    // `fleet_pin.rs`'s instance: its pinned upper bound, 231 235 516 ms.
    assert_eq!(stats.ub_ms.to_bits(), 4_732_034_985_509_257_215);
    // Before the fill's per-kind exit and the skyline bound: 382 345
    // fill visits and all 1 000 000 cells for the bound. Before probes
    // stopped on the spare-bin certificate, with only the winner
    // finished: 14 720 fill visits and 24 044 Step-2 candidates. Now 14
    // of the 15 probes stop early (10 of them before their first bin),
    // and the check reads 4 830 cells.
    let want = PackWork {
        fill_visits: 2_867,
        bound_cells: 3_000,
        step2_candidates: 13_133,
        early_stops: 14,
        cert_cells: 4_830,
    };
    assert_eq!((work, stats.pack_calls), (want, 15));
    assert!(work.bound_cells <= 16 * problem.num_jobs() as u64);
    assert!(4 * work.fill_visits <= 14_720);
}

#[test]
fn two_hundred_phone_instance_work_is_pinned() {
    let problem = fleet_instance(200, 1_000);
    let (work, stats) = cold_work(&problem);
    // Before: 162 055 fill visits and 200 000 bound cells. Before the
    // spare-bin certificate: 14 972 fill visits and 3 170 Step-2
    // candidates. With five times as many items as phones it can fire
    // only in a probe's last bins: 6 probes stop early.
    let want = PackWork {
        fill_visits: 14_289,
        bound_cells: 4_000,
        step2_candidates: 3_074,
        early_stops: 6,
        cert_cells: 62,
    };
    assert_eq!((work, stats.pack_calls), (want, 15));
    assert!(work.bound_cells <= 16 * problem.num_jobs() as u64);
    assert!(work.fill_visits <= 14_972 && work.step2_candidates <= 3_170);
}
