//! One fleet-scale cold schedule, pinned to the bit.
//!
//! A 1 000 phones × 1 000 jobs instance in the style of the benchmark's
//! `sched-fleet` family — heterogeneous clocks (806–1 505 MHz) and links
//! (1–70 ms/KB), 200–1 999 KB inputs, every third job atomic — with two
//! programs whose clock-scaled baselines differ, so the cost matrix
//! (built by `RuntimePredictor::cost_matrix`, as the coordinator builds
//! it) has two distinct columns. The equivalence proptests hold the
//! packer to the reference oracle on small instances; this test holds a
//! full-size search to the numbers it produced before any change to the
//! cost tables: its probe counts, both starting bounds, the predicted
//! makespan and a hash of every assignment.

use cwc_core::{GreedyScheduler, RuntimePredictor, SchedProblem, Schedule};
use cwc_types::{CpuSpec, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};

const PHONES: usize = 1_000;
const JOBS: usize = 1_000;

fn fleet_instance() -> SchedProblem {
    let phones: Vec<PhoneInfo> = (0..PHONES)
        .map(|i| {
            PhoneInfo::new(
                PhoneId::from_index(i),
                CpuSpec::new(806 + ((i as u64 * 97 + 411) % 700) as u32, 2),
                RadioTech::Wifi80211g,
                MsPerKb(1.0 + (i as f64 * 7.3 + 12.6) % 69.0),
            )
        })
        .collect();
    let jobs: Vec<JobSpec> = (0..JOBS)
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

/// FNV-1a over every assignment's four fields, queue by queue, each
/// queue prefixed by its length so a moved assignment cannot hash the
/// same.
fn assignment_hash(schedule: &Schedule) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for queue in &schedule.per_phone {
        eat(queue.len() as u64);
        for a in queue {
            eat(u64::from(a.phone.0));
            eat(u64::from(a.job.0));
            eat(a.input_kb.0);
            eat(a.offset_kb.0);
        }
    }
    hash
}

#[test]
fn two_program_fleet_schedule_is_pinned() {
    let problem = fleet_instance();
    let (schedule, stats) = GreedyScheduler.schedule_with_stats(&problem).unwrap();
    schedule.validate(&problem).unwrap();
    let got = (
        stats.pack_calls,
        stats.binsearch_iters,
        stats.ub_ms.to_bits(),
        stats.lb_ms.to_bits(),
        schedule.predicted_makespan_ms.to_bits(),
        assignment_hash(&schedule),
    );
    // 231 235 516 ms, 124 093.99 ms and 194 623.56 ms.
    let want = (
        15,
        14,
        4_732_034_985_509_257_215,
        4_683_264_087_345_380_376,
        4_685_927_227_564_738_582,
        7_612_548_275_784_342_328,
    );
    assert_eq!(
        got, want,
        "{stats:?}, makespan {}",
        schedule.predicted_makespan_ms
    );
}
