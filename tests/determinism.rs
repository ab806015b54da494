//! Determinism regression gate: two identically-seeded engine runs must be
//! byte-identical. This is the property the `determinism` lint rule exists
//! to protect — no wall clocks, no OS-seeded RNG, no hash-order iteration
//! anywhere on the scheduling path. Runs include failure injections so the
//! reschedule rounds (which validate every residual schedule, and under
//! `debug_assertions` the residual list itself) are exercised too.

use cwc::server::coord::{
    script, CoordCommand, CoordEvent, DriverStyle, Kernel, KernelConfig, ReschedulePolicy,
};
use cwc::server::engine::{paper_baselines, Engine, EngineConfig, EngineOutcome, FailureInjection};
use cwc::server::workload::{paper_workload, WorkloadBuilder};
use cwc::server::{engine_digest, testbed_fleet, FleetBuilder};
use cwc::sim::{Distributions, RngStreams};
use cwc::types::{CpuSpec, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech};
use cwc_chaos::{shard_seed, ChaosRng};
use cwc_core::SchedulerKind;
use std::collections::VecDeque;

fn run(seed: u64) -> EngineOutcome {
    let jobs = paper_workload(seed);
    let injections = vec![
        FailureInjection {
            at: Micros::from_secs(60),
            phone: PhoneId(2),
            offline: false,
            replug_at: Some(Micros::from_secs(200)),
        },
        FailureInjection {
            at: Micros::from_secs(90),
            phone: PhoneId(7),
            offline: true,
            replug_at: None,
        },
    ];
    Engine::run_on_testbed(seed, jobs, injections, EngineConfig::default()).expect("engine run")
}

fn assert_identical(a: &EngineOutcome, b: &EngineOutcome) {
    assert_eq!(a.makespan, b.makespan, "makespans diverged");
    assert_eq!(
        a.predicted_makespan_ms, b.predicted_makespan_ms,
        "predicted makespans diverged"
    );
    assert_eq!(a.segments, b.segments, "activity segments diverged");
    assert_eq!(
        a.partitions_per_job, b.partitions_per_job,
        "partition counts diverged"
    );
    assert_eq!(a.phone_completion, b.phone_completion);
    assert_eq!(a.completed_jobs, b.completed_jobs);
    assert_eq!(a.rescheduled_items, b.rescheduled_items);
}

#[test]
fn identically_seeded_runs_are_identical() {
    for seed in [3, 17] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.completed_jobs, a.total_jobs, "seed {seed} incomplete");
        assert_identical(&a, &b);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the trivial way the test above could pass: the engine
    // ignoring its seed entirely.
    let a = run(3);
    let b = run(4);
    assert_ne!(
        (a.makespan, a.segments.len()),
        (b.makespan, b.segments.len()),
        "seeds 3 and 4 produced identical runs"
    );
}

// ---------------------------------------------------------------------------
// Kernel equivalence: the sans-IO coordinator is a pure function of its
// (now, event) script, independent of which driver dispatches it.
// ---------------------------------------------------------------------------

fn kernel_config() -> KernelConfig {
    KernelConfig {
        scheduler: SchedulerKind::Greedy,
        jobs: WorkloadBuilder::new(11)
            .breakable(3, "primecount", 30, 100, 300)
            .build(),
        baselines: paper_baselines().into_iter().collect(),
        keepalive_period: Micros::from_secs(5),
        tolerated_misses: 3,
        reschedule: ReschedulePolicy::RoundRobin,
        stall_timeout: None,
        breaker: None,
        reliability: None,
        slo: std::collections::BTreeMap::new(),
        replication: None,
        speculation: None,
        bandwidth_blind: false,
        style: DriverStyle::Live,
        obs: cwc::obs::Obs::new(),
    }
}

fn probe_info(slot: usize) -> PhoneInfo {
    PhoneInfo::new(
        PhoneId(slot as u32),
        CpuSpec::new(800 + 200 * slot as u32, 2),
        RadioTech::ThreeG,
        MsPerKb(8.0 + slot as f64),
    )
    .with_ram_kb(262_144)
}

/// Drives a kernel closed-loop like a driver would — every `ShipInput`
/// gets a scripted reply (one transient failure, then successes) — and
/// returns the event script it produced alongside the Debug-formatted
/// command stream.
fn scripted_run() -> (Vec<(Micros, CoordEvent)>, Vec<String>) {
    let mut kernel = Kernel::new(kernel_config()).expect("kernel construction");
    let mut steps = Vec::new();
    let mut lines = Vec::new();
    let mut queue: VecDeque<(Micros, CoordEvent)> = (0..3)
        .map(|slot| {
            (
                Micros::ZERO,
                CoordEvent::Probe {
                    slot,
                    info: probe_info(slot),
                },
            )
        })
        .collect();
    queue.push_back((Micros::ZERO, CoordEvent::Start));
    let mut clock = 0u64;
    let mut failed_once = false;
    while let Some((now, ev)) = queue.pop_front() {
        steps.push((now, ev.clone()));
        for cmd in kernel.step(now, ev) {
            lines.push(format!("{cmd:?}"));
            if let CoordCommand::ShipInput {
                slot,
                seq,
                job,
                len_kb,
                ..
            } = cmd
            {
                clock += 2_000_000;
                let at = Micros(clock);
                if failed_once {
                    queue.push_back((
                        at,
                        CoordEvent::ReportOk {
                            slot,
                            seq,
                            job,
                            exec_ms: len_kb as f64 * 1.5,
                        },
                    ));
                } else {
                    failed_once = true;
                    queue.push_back((
                        at,
                        CoordEvent::ReportFailed {
                            slot,
                            seq,
                            job,
                            processed_kb: 0,
                            checkpoint: None,
                        },
                    ));
                }
            }
        }
    }
    assert!(kernel.finished(), "scripted run did not drain the batch");
    (steps, lines)
}

#[test]
fn same_event_script_yields_byte_identical_command_streams() {
    // Path 1: a closed-loop driver generating the script as it goes.
    let (steps, live) = scripted_run();
    assert!(!live.is_empty(), "scripted run produced no commands");

    // Path 2: blind replay of the recorded script into a fresh kernel.
    let replayed = script::replay(&steps, kernel_config()).expect("replay");
    assert_eq!(live, replayed, "replay diverged from the driving run");

    // Path 3: through the text codec (as a harvested live recording
    // would arrive) — encode/decode must not perturb the stream.
    let decoded: Vec<(Micros, CoordEvent)> = steps
        .iter()
        .map(|(now, ev)| script::decode(&script::encode(*now, ev)).expect("codec round trip"))
        .collect();
    assert_eq!(steps, decoded, "script codec is lossy");
    let recoded = script::replay(&decoded, kernel_config()).expect("replay decoded");
    assert_eq!(live, recoded, "decoded replay diverged");
}

#[test]
fn driver_style_moves_nothing_but_the_keepalive_timers() {
    // The scripted failure run again, stepped through a kernel of each
    // style with otherwise equal configs: every command — what is shipped
    // where, what is cancelled, every timer — must agree but the
    // keep-alives `Start` arms for a live driver. A stall watchdog per
    // ship (none fires in the script) puts a timer in the stream too.
    let (steps, _) = scripted_run();
    let decisions = |style: DriverStyle| -> Vec<String> {
        let cfg = KernelConfig {
            style,
            stall_timeout: Some(Micros::from_secs(30)),
            ..kernel_config()
        };
        let mut lines = script::replay(&steps, cfg).expect("replay");
        lines.retain(|l| !l.starts_with("StartTimer { kind: KeepAlive"));
        lines
    };
    let live = decisions(DriverStyle::Live);
    assert!(live.iter().any(|l| l.contains("rescheduled: true")));
    assert!(live
        .iter()
        .any(|l| l.starts_with("StartTimer { kind: Stall")));
    assert_eq!(live, decisions(DriverStyle::Sim));
}

// ---------------------------------------------------------------------------
// Pinned outcomes: the simulator's RNG streams are part of its contract. A
// change that draws one sample more, fewer or in another order moves these
// words; `benchmark/`'s `makespan_ratio` only samples what they hold whole.
// ---------------------------------------------------------------------------

/// `benchmark/`'s seed splitter, so the instances below are the ones its
/// `sim-fleet --quick` and `paper-testbed` workloads build for seed 7.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    cwc::sim::splitmix64(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// FNV-1a over [`engine_digest`]: makespan, `completed_at`, every
/// `Segment`, `partitions_per_job`, `rescheduled_items` and the rest of
/// the outcome, in one word.
fn outcome_hash(out: &EngineOutcome) -> u64 {
    engine_digest(out)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn failure_mix_fleet_outcome_is_pinned() {
    // `Instance::fleet_with_failures(7, 4, 100)`: 4 houses × 10 phones,
    // 80 breakable + 20 atomic jobs, every tenth phone unplugging from
    // t = 30 s, alternately offline and online.
    let fleet = FleetBuilder::new(sub_seed(7, 1))
        .houses(4)
        .phones_per_house(10)
        .build();
    let jobs = WorkloadBuilder::new(sub_seed(7, 2))
        .breakable(80, "primecount", 30, 200, 2_000)
        .atomic(20, "photoblur", 40, 100, 800)
        .build();
    let injections: Vec<FailureInjection> = fleet
        .iter()
        .step_by(10)
        .enumerate()
        .map(|(k, phone)| FailureInjection {
            at: Micros::from_secs(30 + k as u64),
            phone: phone.id(),
            offline: k % 2 == 0,
            replug_at: None,
        })
        .collect();
    let out = Engine::new(fleet, jobs, injections, EngineConfig::default())
        .and_then(Engine::run)
        .expect("engine run");
    assert_eq!(out.completed_jobs, out.total_jobs);
    assert_eq!(
        (out.makespan.0, out.segments.len(), out.rescheduled_items),
        (529_636_471, 356, 46)
    );
    assert_eq!(outcome_hash(&out), 0xf06e_c1f9_4146_cf7c);
}

#[test]
fn paper_testbed_outcome_is_pinned() {
    let out = Engine::new(
        testbed_fleet(sub_seed(7, 1)),
        paper_workload(sub_seed(7, 2)),
        Vec::new(),
        EngineConfig::default(),
    )
    .and_then(Engine::run)
    .expect("engine run");
    assert_eq!(out.completed_jobs, 150);
    assert_eq!((out.makespan.0, out.segments.len()), (877_531_972, 334));
    assert_eq!(outcome_hash(&out), 0xfba5_b6e6_04d2_7abf);
}

// ---------------------------------------------------------------------------
// Golden streams: the first words of every way the workspace seeds a
// generator, and one draw of every sampling call product code makes. Link
// fading, the behavioural study, synthetic inputs and fault plans all sit
// on these; the pinned outcomes above only see them through a whole run.
// ---------------------------------------------------------------------------

fn words<R: Distributions>(rng: &mut R) -> [u64; 8] {
    std::array::from_fn(|_| rng.next_u64())
}

fn chaos_words(rng: &mut ChaosRng) -> [u64; 8] {
    std::array::from_fn(|_| rng.next_u64())
}

fn draws<R: Distributions>(rng: &mut R) -> Vec<u64> {
    vec![
        u64::from(rng.gen_range(10..1_000_000u32)),
        rng.gen_range(5..1u64 << 40),
        rng.gen_range(200..=2_000u64),
        rng.gen_range(0..12usize) as u64,
        rng.gen_range(0..4_096i32) as u64,
        rng.gen_range(-24..=24i16) as u64,
        u64::from(rng.gen_range(60..=255u8)),
        rng.gen_range(0.72..0.88f64).to_bits(),
        u64::from(rng.gen_ratio(1, 12)),
        rng.std_normal().to_bits(),
        rng.exponential(3.0).to_bits(),
        rng.next_u64(),
    ]
}

fn sim_chance<R: Distributions>(rng: &mut R, p: f64) -> (bool, u64) {
    (rng.chance(p), rng.next_u64())
}

#[test]
fn golden_seeding_paths_are_pinned() {
    let streams = RngStreams::new(7);
    let got = [
        words(&mut streams.stream("link/phone-3")),
        words(&mut streams.indexed_stream("phone", 3)),
        words(&mut streams.shard(2).stream("link/phone-3")),
        chaos_words(&mut ChaosRng::new(7)),
        chaos_words(&mut ChaosRng::new(7).derive("conn/0")),
    ];
    for (path, (got, want)) in got.iter().zip(&GOLDEN_WORDS).enumerate() {
        assert_eq!(got, want, "construction path {path}");
    }
    assert_eq!(streams.shard(2).master_seed(), shard_seed(7, 2));
    assert_eq!(
        [0, 1, 2, u64::MAX].map(|s| shard_seed(12_648_430, s)),
        GOLDEN_SHARD_SEEDS
    );

    // Builder-style `seed_from_u64(seed ^ C)`: sizes drawn from 1..=u64::MAX
    // are `1 + word % u64::MAX`, i.e. the stream's words themselves.
    let sizes: Vec<u64> = WorkloadBuilder::new(7)
        .breakable(8, "primecount", 1, 1, u64::MAX)
        .build()
        .iter()
        .map(|j| j.input_kb.0)
        .collect();
    assert_eq!(sizes, GOLDEN_BUILDER_SIZES);
}

#[test]
fn golden_draws_are_pinned() {
    assert_eq!(draws(&mut RngStreams::new(7).stream("draws")), GOLDEN_DRAWS);

    // Both `chance` flavours, each followed by a raw word so the draw count
    // is pinned too: `Distributions::chance` always draws, `ChaosRng::chance`
    // draws nothing at p <= 0, and `ChaosRng::below(0)` never draws.
    let mut sim = RngStreams::new(7).stream("chance");
    let mut chaos = ChaosRng::new(7).derive("chance");
    let mut got = Vec::new();
    for p in [0.0, 0.2, 1.0] {
        got.push(sim_chance(&mut sim, p));
        got.push((chaos.chance(p), chaos.next_u64()));
    }
    got.push((chaos.below(0) == 0, chaos.next_u64()));
    got.push((chaos.below(7) < 7, chaos.next_f64().to_bits()));
    assert_eq!(got, GOLDEN_CHANCE);
}

/// First eight words of `stream`, `indexed_stream`, `shard(2).stream`,
/// `ChaosRng::new` and `ChaosRng::new(..).derive(..)`, in that order.
#[rustfmt::skip]
const GOLDEN_WORDS: [[u64; 8]; 5] = [
    [0xb40d_3005_2677_7391, 0xe2eb_7c49_a228_8492, 0x027a_da6e_a3a9_c7c8, 0x692a_cceb_7d19_0e8a,
     0x04e1_b99f_294e_6e66, 0x55ad_24d2_d95d_c2d0, 0x09d8_7b4d_a153_178f, 0x23ad_39fb_303f_4e22],
    [0x36bc_6207_16a1_dbe4, 0x9c27_8781_a990_b734, 0xe0b9_d313_5407_f2b5, 0x65e6_6e46_5014_97f0,
     0x57ca_9c74_7926_99bc, 0x4722_8195_1cc6_c87c, 0xa4ed_0c41_dfae_441d, 0x9f9b_6303_b862_c3c7],
    [0x20a0_d9ee_d5b8_0d0c, 0x8539_e3d6_0a46_eda9, 0x8417_0411_a581_a760, 0xcf20_2f8a_6d22_f33c,
     0xe23c_aec8_d028_4d04, 0x235a_be4e_5f3b_7f73, 0xfeda_b34a_8846_f9e3, 0xeb37_653c_7278_7799],
    [0xc165_b276_49cc_c9ac, 0xa5ec_bfee_066d_c002, 0xcbeb_55cd_063c_5dfd, 0x9c45_ad8c_ad28_95cd,
     0x5683_6442_7cff_b445, 0xd2f0_1490_9a66_0dc4, 0xfc97_c3bb_a43e_6cc6, 0x7692_fbfb_2bde_41d2],
    [0x40d6_1d2f_17f0_1441, 0xf4c7_4c2b_4861_d567, 0xbc0a_e280_25e1_6934, 0xbd67_8453_f22c_ac59,
     0x04f4_2f56_9755_ad88, 0xee46_9f1c_e2f7_167b, 0x941d_d643_83b2_a7bd, 0x7fb4_d78a_e9d9_ea9f],
];
#[rustfmt::skip]
const GOLDEN_SHARD_SEEDS: [u64; 4] = [
    0xe7b7_0a71_7a8b_6d38, 0xf71c_2ae4_291f_f728, 0x967a_e383_60bf_66d2, 0x3a9f_931a_f58b_b8c4,
];
#[rustfmt::skip]
const GOLDEN_BUILDER_SIZES: [u64; 8] = [
    0xe6d8_35ec_29e6_13fb, 0x90f4_16f2_2dab_d258, 0x9416_5e60_3448_77b4, 0x56cb_7b60_16ec_4615,
    0x5f5d_f41c_fce1_5af7, 0x8001_11a8_571c_11f0, 0xc337_4601_80ac_4d80, 0xd56c_3807_cdcf_4273,
];
/// What `draws` returns for `RngStreams::new(7).stream("draws")`.
#[rustfmt::skip]
const GOLDEN_DRAWS: [u64; 12] = [
    0xf_0e0d, 0x57_951e_6feb, 0x5e4, 0x7, 0xab7, 0x12, 0xb6,
    0x3feb_1f99_e3ff_4e62, 0x0, 0x3fe0_327e_834a_b03b, 0x4003_ff33_cdc4_6462,
    0xf7f4_defc_2d11_88ee,
];
/// For p = 0, 0.2, 1: the sim draw, then the chaos draw; then `below`.
#[rustfmt::skip]
const GOLDEN_CHANCE: [(bool, u64); 8] = [
    (false, 0xfb26_24e1_585a_6f9a), (false, 0x692e_ded9_9995_dae6),
    (true, 0x1b4d_86d8_4a09_578c), (false, 0x9727_1947_804a_abfe),
    (true, 0xdd6d_b8dc_1fdb_a09e), (true, 0xbfd8_de67_4449_b094),
    (true, 0xc2b4_af47_e06e_78b7), (true, 0x3fed_044a_14d1_edaf),
];
