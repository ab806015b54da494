//! Algorithm 1 — greedy complementary bin packing — plus the capacity
//! binary search (§5).
//!
//! The makespan problem is viewed as its complementary bin-packing
//! problem (CBP): phones are bins, the capacity `C` is a candidate
//! makespan, and an item is a job's remaining input. A successful packing
//! at capacity `C` *is* a schedule finishing within `C`. Binary search
//! over `C` then finds the smallest capacity the greedy can pack, which
//! is the reported (predicted) makespan.
//!
//! Key behaviors from the paper:
//!
//! * items are kept sorted by **remaining local execution time on the
//!   slowest phone** (`R_j · c_sj`), largest first;
//! * packing prefers **whole items** — splitting only happens when the
//!   whole item cannot fit, and then the **largest fitting partition** is
//!   packed (minimizing the server's aggregation overhead, Fig. 12b);
//! * the executable cost `E_j · b_i` is paid once per phone–job pair;
//! * atomic items are never split;
//! * new bins open only when nothing fits the open ones, choosing the bin
//!   that minimizes Eq. 1 for the largest item.
//!
//! The packing inner loops live in the private `pack` module (a reusable
//! zero-allocation arena over [`crate::problem::CostTables`], which also
//! hands the search its two starting bounds); this module owns the
//! binary search, including the warm-started variant used by the
//! coordinator on rescheduling instants. The search needs each probe's
//! yes or no; only the winner's placements become the schedule. So a
//! probe that provably packs stops early (the spare-bin certificate, in
//! `pack` under "Stopping early"), and after the search only the
//! winning probe is finished, from where it stopped.
//!
//! The pre-optimization packer and the two bound functions are preserved
//! in [`mod@reference`] as the byte-identity oracle for the equivalence
//! proptests — verbatim, but for one counter: how often Step 1 chose a
//! bin other than the newest, which `pack` is built on being never.

// Panic-safety (DESIGN.md §8): this runs at every scheduling instant,
// on the failure-recovery path where a panic takes the fleet down.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::pack::{PackScratch, PackWork};
use crate::problem::SchedProblem;
use crate::schedule::{Assignment, Schedule};
use cwc_types::{CwcError, CwcResult};

/// Multiplier applied to the warm-start guess so a residual problem
/// whose optimum sits slightly above the transferred ratio still packs
/// on the first probe.
const WARM_GUESS_MARGIN: f64 = 1.05;

/// Gallop step: each failed warm probe multiplies the guess by this.
/// Kept small so that when the transferred ratio undershoots, the first
/// succeeding probe brackets the optimum tightly — a ×2 step would
/// leave a bisection window nearly as wide as a cold search's.
const GALLOP_STEP: f64 = 1.25;

/// Maximum galloping probes before the warm path gives up and falls
/// back to the cold worst-bin bound (six ×1.25 steps cover a ~3×
/// misjudgment of the transferred ratio).
const MAX_GALLOP_PROBES: u32 = 6;

/// Binary-search termination: stop when `UB − LB` drops below this many
/// ms, or below the relative floor `1e-4 · UB` when that is larger.
const TOLERANCE_MS: f64 = 1.0;

/// The converged-window width for a search whose upper bound is `ub`.
fn search_tolerance(ub: f64) -> f64 {
    TOLERANCE_MS.max(1e-4 * ub)
}

/// The error for a probe that stopped early on the spare-bin certificate
/// and then failed to finish: the certificate is unsound, and no
/// schedule is safer than a wrong one.
fn unfinished() -> CwcError {
    CwcError::Infeasible(
        "a packing probe the spare-bin certificate passed failed to finish \
         (certificate bug)"
            .into(),
    )
}

/// The CWC scheduler. It has no options: the capacity search stops once
/// its window is below 1 ms or `1e-4 · UB`, whichever is larger.
///
/// ```
/// use cwc_core::{GreedyScheduler, SchedProblem};
/// use cwc_types::{CpuSpec, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};
///
/// // Two phones — a fast-everything one and a slow one — and two jobs.
/// let phones = vec![
///     PhoneInfo::new(PhoneId(0), CpuSpec::new(1500, 2), RadioTech::Wifi80211a, MsPerKb(1.0)),
///     PhoneInfo::new(PhoneId(1), CpuSpec::new(806, 1), RadioTech::Edge, MsPerKb(60.0)),
/// ];
/// let jobs = vec![
///     JobSpec::breakable(JobId(0), "primecount", KiloBytes(30), KiloBytes(500)),
///     JobSpec::atomic(JobId(1), "photoblur", KiloBytes(40), KiloBytes(200)),
/// ];
/// // c_ij: clock-scaled from a 12 ms/KB baseline on the 806 MHz phone.
/// let c = phones
///     .iter()
///     .map(|p| jobs.iter().map(|_| 12.0 * 806.0 / p.cpu.clock_mhz as f64).collect())
///     .collect();
/// let problem = SchedProblem::new(phones, jobs, c)?;
///
/// let schedule = GreedyScheduler.schedule(&problem)?;
/// schedule.validate(&problem)?;            // all SCH constraints hold
/// assert!(schedule.predicted_makespan_ms > 0.0);
/// # Ok::<(), cwc_types::CwcError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyScheduler;

/// Warm-start hint carried between scheduling instants: the previous
/// instant's converged capacity and its magical-bin lower bound.
///
/// The hint transfers the *shape* of the previous solution, not its
/// absolute window: the new search guesses
/// `lb₀ · (hi_ms / lb_ms) · 1.05` — "the greedy converged this far
/// above the magical bound last time; a residual of the same workload
/// on the surviving fleet lands near the same ratio" — then gallops
/// (stepping ×1.25 on failure) until a probe packs. This is sound because
/// packability is monotone in capacity: any failed probe is a certified
/// lower bound, any packed probe a certified upper bound, so the warm
/// bisection window `[lb₀, guess]` brackets the same greedy fixpoint a
/// cold search converges to. A warm schedule may differ from the cold
/// one within the tolerance window; determinism is unaffected because
/// the hint itself is a deterministic function of the run history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStart {
    /// Converged capacity (the final binary-search `hi`), ms.
    pub hi_ms: f64,
    /// Magical-bin lower bound of the instant that produced `hi_ms`, ms.
    pub lb_ms: f64,
}

/// Convergence statistics from one greedy run, reported through the
/// `cwc-obs` metrics registry by [`GreedyScheduler::schedule_observed_warm`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GreedyStats {
    /// Binary-search iterations until `UB − LB` dropped below tolerance.
    pub binsearch_iters: u64,
    /// Total Algorithm-1 packing attempts (including the UB-widening and
    /// warm-start galloping ones). A probe that stopped early counts
    /// once, and finishing the winner is not a probe.
    pub pack_calls: u64,
    /// Initial (possibly widened) upper bound on the capacity, ms.
    pub ub_ms: f64,
    /// Initial magical-bin lower bound, ms.
    pub lb_ms: f64,
    /// Final converged capacity window `hi − lo`, ms.
    pub window_ms: f64,
    /// 1 when a warm-start guess packed and seeded the search window.
    pub warm_hits: u64,
    /// Packing attempts avoided versus a cold search of the same
    /// instance (arithmetically re-simulated, not re-packed).
    pub probes_saved: u64,
}

impl GreedyScheduler {
    /// Computes the schedule: binary search over bin capacity, packing
    /// each candidate capacity with Algorithm 1 until it packs or fails,
    /// and the winning capacity to the end.
    pub fn schedule(&self, problem: &SchedProblem) -> CwcResult<Schedule> {
        self.schedule_with_stats(problem).map(|(s, _)| s)
    }

    /// Like [`GreedyScheduler::schedule`], recording convergence metrics
    /// (`sched.greedy.binsearch_iters`, `sched.greedy.pack_calls`), the
    /// packer's counted work ([`PackWork`] as `sched.greedy.fill_visits`,
    /// `sched.greedy.bound_cells`, `sched.greedy.step2_candidates`,
    /// `sched.greedy.early_stops` and `sched.greedy.cert_cells`, each
    /// added once per call) and a summary event into `obs`, and
    /// optionally warm-started from a previous instant's [`WarmStart`],
    /// emitting the `sched.greedy.warm_hits` /
    /// `sched.greedy.probes_saved` counters and a `greedy.warm_start`
    /// event when a hint was supplied. Returns the hint for the next
    /// instant alongside the schedule.
    pub fn schedule_observed_warm(
        &self,
        problem: &SchedProblem,
        obs: &cwc_obs::Obs,
        warm: Option<WarmStart>,
    ) -> CwcResult<(Schedule, WarmStart)> {
        let warm_attempted = warm.is_some();
        let (schedule, stats, next, work) = self.schedule_warm_with_work(problem, warm)?;
        obs.metrics
            .add("sched.greedy.binsearch_iters", stats.binsearch_iters);
        obs.metrics.add("sched.greedy.pack_calls", stats.pack_calls);
        obs.metrics.add("sched.greedy.warm_hits", stats.warm_hits);
        obs.metrics
            .add("sched.greedy.probes_saved", stats.probes_saved);
        obs.metrics
            .add("sched.greedy.fill_visits", work.fill_visits);
        obs.metrics
            .add("sched.greedy.bound_cells", work.bound_cells);
        obs.metrics
            .add("sched.greedy.step2_candidates", work.step2_candidates);
        obs.metrics
            .add("sched.greedy.early_stops", work.early_stops);
        obs.metrics.add("sched.greedy.cert_cells", work.cert_cells);
        if warm_attempted {
            obs.emit_with(|| {
                obs.wall_event("sched", "greedy.warm_start")
                    .field("hit", stats.warm_hits)
                    .field("pack_calls", stats.pack_calls)
                    .field("probes_saved", stats.probes_saved)
            });
        }
        obs.emit_with(|| {
            obs.wall_event("sched", "greedy.converged")
                .field("binsearch_iters", stats.binsearch_iters)
                .field("pack_calls", stats.pack_calls)
                .field("ub_ms", stats.ub_ms)
                .field("lb_ms", stats.lb_ms)
                .field("window_ms", stats.window_ms)
                .field("makespan_ms", schedule.predicted_makespan_ms)
        });
        Ok((schedule, next))
    }

    /// The full computation, also returning convergence statistics.
    pub fn schedule_with_stats(
        &self,
        problem: &SchedProblem,
    ) -> CwcResult<(Schedule, GreedyStats)> {
        self.schedule_warm_with_stats(problem, None)
            .map(|(s, stats, _)| (s, stats))
    }

    /// The full computation with an optional warm start. With
    /// `warm: None` this follows the seed implementation's probe
    /// sequence exactly and produces byte-identical schedules (enforced
    /// by the equivalence proptest against [`mod@reference`]).
    pub fn schedule_warm_with_stats(
        &self,
        problem: &SchedProblem,
        warm: Option<WarmStart>,
    ) -> CwcResult<(Schedule, GreedyStats, WarmStart)> {
        self.schedule_warm_with_work(problem, warm)
            .map(|(s, stats, next, _)| (s, stats, next))
    }

    /// [`GreedyScheduler::schedule_warm_with_stats`], also returning the
    /// packer's counted work. It is not part of [`GreedyStats`], which
    /// the reference packer reproduces field for field.
    pub fn schedule_warm_with_work(
        &self,
        problem: &SchedProblem,
        warm: Option<WarmStart>,
    ) -> CwcResult<(Schedule, GreedyStats, WarmStart, PackWork)> {
        problem.check_dimensions()?;
        let mut stats = GreedyStats::default();
        let tables = problem.tables();
        let mut scratch = PackScratch::new(problem, &tables);
        let ub0 = tables.upper_bound_ms();
        let lb0 = tables.lower_bound_ms();

        // Warm start: gallop from the transferred guess. Any failed
        // probe is a certified lower bound (packability is monotone in
        // capacity); the first packed probe becomes `hi`.
        let mut gallop_lo: Option<f64> = None;
        let mut warm_hi: Option<f64> = None;
        if let Some(w) = warm {
            let usable =
                w.hi_ms.is_finite() && w.hi_ms > 0.0 && w.lb_ms.is_finite() && w.lb_ms > 0.0;
            if usable && lb0 > 0.0 {
                let mut guess = lb0 * (w.hi_ms / w.lb_ms) * WARM_GUESS_MARGIN;
                for _ in 0..MAX_GALLOP_PROBES {
                    if !guess.is_finite() || guess <= 0.0 || guess >= ub0 {
                        break;
                    }
                    stats.pack_calls += 1;
                    if scratch.pack(&tables, guess) {
                        scratch.mark_success();
                        warm_hi = Some(guess);
                        stats.warm_hits = 1;
                        break;
                    }
                    gallop_lo = Some(guess);
                    guess *= GALLOP_STEP;
                }
            }
        }

        let (mut lo, mut hi, tol);
        match warm_hi {
            Some(h) => {
                stats.ub_ms = ub0;
                // Tolerance from the *cold* upper bound: the relative
                // floor must not shrink with the warm window, or the
                // warm search would bisect further than a cold one.
                tol = search_tolerance(ub0);
                hi = h;
                lo = gallop_lo.unwrap_or(lb0).max(lb0);
            }
            None => {
                // Cold path — identical probe sequence to the seed: the
                // upper bound must be packable; if a degenerate instance
                // defeats it, widen a few times before giving up.
                let mut ub = ub0;
                let mut packed = false;
                for _ in 0..4 {
                    stats.pack_calls += 1;
                    if scratch.pack(&tables, ub) {
                        scratch.mark_success();
                        packed = true;
                        break;
                    }
                    ub *= 2.0;
                }
                if !packed {
                    return Err(CwcError::Infeasible(
                        "greedy packing failed even at the worst-bin capacity".into(),
                    ));
                }
                stats.ub_ms = ub;
                tol = search_tolerance(ub);
                hi = ub;
                lo = lb0.min(ub);
                if let Some(g) = gallop_lo {
                    // A failed warm probe below the cold bound tightens
                    // the window even when the gallop never hit.
                    lo = lo.max(g.min(hi));
                }
            }
        }

        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            stats.binsearch_iters += 1;
            stats.pack_calls += 1;
            if scratch.pack(&tables, mid) {
                scratch.mark_success();
                hi = mid;
            } else {
                lo = mid;
            }
        }
        stats.lb_ms = lb0;
        stats.window_ms = hi - lo;

        if stats.warm_hits > 0 {
            // What a cold search would have cost: one UB probe plus the
            // bisection iterations. Each iteration halves the window
            // regardless of which side moves, so the count is pure
            // arithmetic — no packing needed.
            let mut window = ub0 - lb0.min(ub0);
            let mut cold_calls: u64 = 1;
            while window > tol && cold_calls < 64 {
                window *= 0.5;
                cold_calls += 1;
            }
            stats.probes_saved = cold_calls.saturating_sub(stats.pack_calls);
        }

        // Only the winning probe is finished: every other one was needed
        // for its yes or no alone.
        let finished = scratch.finish(&tables);
        debug_assert!(finished, "a probe the certificate passed failed to pack");
        if !finished {
            return Err(unfinished());
        }
        let Some(schedule) = scratch.best_schedule() else {
            return Err(CwcError::Infeasible(
                "greedy packing failed even at the worst-bin capacity".into(),
            ));
        };
        debug_assert_eq!(
            schedule.predicted_makespan_ms.to_bits(),
            (schedule.predicted_heights_ms(problem).into_iter())
                .fold(0.0f64, f64::max)
                .to_bits(),
            "the packer's bin heights disagree with the cost model's"
        );
        let next = WarmStart {
            hi_ms: hi,
            lb_ms: if lb0 > 0.0 { lb0 } else { hi },
        };
        let work = PackWork {
            bound_cells: tables.bound_cells(),
            ..scratch.work()
        };
        Ok((schedule, stats, next, work))
    }
}

/// One probe of the packer, as [`probe_each`] reports it.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct Probed {
    /// The probe's per-phone queues, finished; `None` when the capacity
    /// does not pack.
    pub queues: Option<Vec<Vec<Assignment>>>,
    /// Whether the probe stopped early and was finished afterwards.
    pub stopped_early: bool,
}

/// Packs `problem` at each capacity in turn on one arena, as the
/// capacity search does, and reads every probe that packs back as
/// queues: the single-probe side the equivalence tests hold against
/// [`reference::pack_queues`]. Not part of the public API surface.
#[doc(hidden)]
pub fn probe_each(problem: &SchedProblem, capacities: &[f64]) -> CwcResult<Vec<Probed>> {
    problem.check_dimensions()?;
    let tables = problem.tables();
    let mut scratch = PackScratch::new(problem, &tables);
    let mut probed = Vec::with_capacity(capacities.len());
    for &capacity_ms in capacities {
        let mut stopped_early = false;
        let queues = if scratch.pack(&tables, capacity_ms) {
            scratch.mark_success();
            stopped_early = scratch.best_is_suspended();
            if !scratch.finish(&tables) {
                return Err(unfinished());
            }
            scratch.best_schedule().map(|s| s.per_phone)
        } else {
            None
        };
        probed.push(Probed {
            queues,
            stopped_early,
        });
    }
    Ok(probed)
}

/// The seed (pre-optimization) packer, preserved as the byte-identity
/// oracle for the optimized hot path. It allocates fresh bins and
/// re-sorts the item list on every probe, exactly as the original
/// implementation did; the equivalence proptest in
/// `tests/proptest_scheduler.rs` asserts the optimized path reproduces
/// its schedules bit for bit. Not part of the public API surface.
#[doc(hidden)]
pub mod reference {
    use super::GreedyStats;
    use crate::problem::SchedProblem;
    use crate::schedule::{assign_offsets, Assignment, Schedule};
    use cwc_types::{CwcError, CwcResult, JobId, KiloBytes, PhoneId};

    /// One packing attempt's working state for a bin.
    struct Bin {
        opened: bool,
        height_ms: f64,
        /// Jobs whose executable has been shipped to this phone already.
        shipped: Vec<bool>,
        queue: Vec<Assignment>,
    }

    /// A sortable item: job index + remaining input.
    #[derive(Debug, Clone, Copy)]
    struct Item {
        job: usize,
        remaining: KiloBytes,
    }

    /// Upper bound: every item placed in its individually worst bin.
    pub(crate) fn worst_bin_upper_bound(problem: &SchedProblem) -> f64 {
        (0..problem.num_jobs())
            .map(|j| {
                (0..problem.num_phones())
                    .map(|i| problem.full_cost_ms(i, j))
                    .fold(0.0f64, f64::max)
            })
            .sum()
    }

    /// Loose lower bound: one magical bin with the aggregate bandwidth and
    /// processing rate of the whole fleet, no executable costs.
    pub(crate) fn magical_bin_lower_bound(problem: &SchedProblem) -> f64 {
        // Each phone's most optimistic per-KB rate across jobs.
        let aggregate_rate: f64 = (0..problem.num_phones())
            .map(|i| {
                (0..problem.num_jobs())
                    .map(|j| 1.0 / problem.per_kb_ms(i, j))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        let total_kb: f64 = problem.jobs.iter().map(|j| j.input_kb.as_f64()).sum();
        if aggregate_rate <= 0.0 {
            return 0.0;
        }
        total_kb / aggregate_rate
    }

    /// The seed implementation of
    /// [`super::GreedyScheduler::schedule_with_stats`].
    pub fn schedule_with_stats(problem: &SchedProblem) -> CwcResult<(Schedule, GreedyStats)> {
        schedule_with_probe(problem).map(|(s, stats, _)| (s, stats))
    }

    /// [`schedule_with_stats`] plus, over every probe of the search, how
    /// many Step-1 placements went to a bin other than the most recently
    /// opened one. The `pack` module only ever tries the newest bin, on the
    /// argument that this count is always 0; the equivalence proptests
    /// assert it next to the byte-identity it implies.
    pub fn schedule_with_probe(problem: &SchedProblem) -> CwcResult<(Schedule, GreedyStats, u64)> {
        let mut stats = GreedyStats::default();
        let mut off_newest = 0u64;
        let mut probe = |capacity_ms: f64| pack(problem, capacity_ms, &mut off_newest);
        let mut ub = worst_bin_upper_bound(problem);
        let lb0 = magical_bin_lower_bound(problem);

        let mut best = None;
        for _ in 0..4 {
            stats.pack_calls += 1;
            if let Some(packing) = probe(ub) {
                best = Some(packing);
                break;
            }
            ub *= 2.0;
        }
        let Some(mut best) = best else {
            return Err(CwcError::Infeasible(
                "greedy packing failed even at the worst-bin capacity".into(),
            ));
        };

        let mut lo = lb0.min(ub);
        let mut hi = ub;
        let tol = super::search_tolerance(ub);
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            stats.binsearch_iters += 1;
            stats.pack_calls += 1;
            match probe(mid) {
                Some(packing) => {
                    best = packing;
                    hi = mid;
                }
                None => lo = mid,
            }
        }
        stats.ub_ms = ub;
        stats.lb_ms = lb0;
        stats.window_ms = hi - lo;

        let mut per_phone: Vec<Vec<Assignment>> = best.into_iter().map(|b| b.queue).collect();
        assign_offsets(&mut per_phone, problem);
        let schedule = Schedule {
            per_phone,
            predicted_makespan_ms: 0.0,
        };
        let predicted = schedule
            .predicted_heights_ms(problem)
            .into_iter()
            .fold(0.0f64, f64::max);
        Ok((
            Schedule {
                predicted_makespan_ms: predicted,
                ..schedule
            },
            stats,
            off_newest,
        ))
    }

    /// The queues of one seed packing attempt, for single-probe tests
    /// (`None`: the capacity is infeasible). Panics if a Step-1
    /// placement skipped the newest bin, which `crate::pack` assumes
    /// never happens.
    pub fn pack_queues(problem: &SchedProblem, capacity_ms: f64) -> Option<Vec<Vec<Assignment>>> {
        let mut off_newest = 0;
        let bins = pack(problem, capacity_ms, &mut off_newest)?;
        assert_eq!(off_newest, 0, "a placement skipped the newest bin");
        let mut per_phone: Vec<Vec<Assignment>> = bins.into_iter().map(|b| b.queue).collect();
        assign_offsets(&mut per_phone, problem);
        Some(per_phone)
    }

    /// Algorithm 1 as the seed implemented it: fresh allocations and a
    /// full re-sort per probe. Adds to `off_newest` each Step-1 placement
    /// into a bin other than the one Step 2 opened last.
    fn pack(problem: &SchedProblem, capacity_ms: f64, off_newest: &mut u64) -> Option<Vec<Bin>> {
        let s = problem.slowest_phone();
        let rates: Vec<f64> = (0..problem.num_jobs())
            .map(|j| problem.c.get(s, j))
            .collect();
        let mut items: Vec<Item> = problem
            .jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| Item {
                job: j,
                remaining: spec.input_kb,
            })
            .collect();
        // Decreasing remaining execution time on the slowest phone.
        let sort_key =
            |it: &Item| it.remaining.as_f64() * rates.get(it.job).copied().unwrap_or(0.0);
        items.sort_by(|a, b| sort_key(b).total_cmp(&sort_key(a)));

        let mut bins: Vec<Bin> = (0..problem.num_phones())
            .map(|_| Bin {
                opened: false,
                height_ms: 0.0,
                shipped: vec![false; problem.num_jobs()],
                queue: Vec::new(),
            })
            .collect();
        let mut newest: Option<usize> = None;

        while !items.is_empty() {
            // Step 1: first item (in sorted order) that fits an open bin.
            let mut placed = false;
            for idx in 0..items.len() {
                let Some(item) = items.get(idx).copied() else {
                    break;
                };
                let atomic = problem
                    .jobs
                    .get(item.job)
                    .is_some_and(|j| j.kind.is_atomic());
                // Candidate: open bin with minimum height where it fits.
                let mut target: Option<(usize, KiloBytes, f64)> = None;
                for (i, bin) in bins.iter().enumerate() {
                    if !bin.opened {
                        continue;
                    }
                    let room = capacity_ms - bin.height_ms;
                    let shipped = bin.shipped.get(item.job).copied().unwrap_or(false);
                    let fit = problem.max_fit_kb(i, item.job, room, !shipped);
                    let enough = if atomic {
                        fit >= item.remaining
                    } else {
                        fit.0 >= 1
                    };
                    if enough {
                        let better = match target {
                            None => true,
                            Some((_, _, best_h)) => bin.height_ms < best_h,
                        };
                        if better {
                            target = Some((i, fit, bin.height_ms));
                        }
                    }
                }
                if let Some((i, fit, _)) = target {
                    *off_newest += u64::from(newest != Some(i));
                    let take = fit.min(item.remaining);
                    commit(problem, &mut bins, i, item.job, take);
                    consume(&mut items, idx, take, sort_key);
                    placed = true;
                    break;
                }
            }
            if placed {
                continue;
            }

            // Step 2: nothing fits the open bins — open a new one for the
            // largest item.
            let Some(item) = items.first().copied() else {
                break;
            };
            let atomic = problem
                .jobs
                .get(item.job)
                .is_some_and(|j| j.kind.is_atomic());
            let mut best: Option<(usize, f64, KiloBytes)> = None;
            for (i, bin) in bins.iter().enumerate() {
                if bin.opened {
                    continue;
                }
                let fit = problem.max_fit_kb(i, item.job, capacity_ms, true);
                let enough = if atomic {
                    fit >= item.remaining
                } else {
                    fit.0 >= 1
                };
                if !enough {
                    continue;
                }
                // "the bin that minimizes Equation 1 for the largest item".
                let cost = problem.cost_ms(i, item.job, item.remaining, true);
                if best.is_none_or(|(_, c, _)| cost < c) {
                    best = Some((i, cost, fit));
                }
            }
            let Some((i, _, fit)) = best else {
                // No open bin fits it and no openable bin accepts it:
                // this capacity is infeasible (Algorithm 1 lines 23–25).
                return None;
            };
            if let Some(bin) = bins.get_mut(i) {
                bin.opened = true;
            }
            newest = Some(i);
            let take = fit.min(item.remaining);
            commit(problem, &mut bins, i, item.job, take);
            consume(&mut items, 0, take, sort_key);
        }
        Some(bins)
    }

    /// Records a partition into a bin and updates its height.
    fn commit(problem: &SchedProblem, bins: &mut [Bin], i: usize, job: usize, take: KiloBytes) {
        debug_assert!(take.0 >= 1);
        let Some(bin) = bins.get_mut(i) else {
            return;
        };
        let include_exe = !bin.shipped.get(job).copied().unwrap_or(false);
        bin.height_ms += problem.cost_ms(i, job, take, include_exe);
        if let Some(flag) = bin.shipped.get_mut(job) {
            *flag = true;
        }
        bin.queue.push(Assignment {
            phone: problem
                .phones
                .get(i)
                .map(|p| p.id)
                .unwrap_or(PhoneId(u32::MAX)),
            job: problem
                .jobs
                .get(job)
                .map(|j| j.id)
                .unwrap_or(JobId(u32::MAX)),
            input_kb: take,
            offset_kb: KiloBytes::ZERO, // assigned later
        });
    }

    /// Removes `take` KB from item `idx`; re-sorts if a remainder goes
    /// back (Algorithm 1 lines 8–12).
    fn consume(
        items: &mut Vec<Item>,
        idx: usize,
        take: KiloBytes,
        sort_key: impl Fn(&Item) -> f64,
    ) {
        let Some(item) = items.get_mut(idx) else {
            return;
        };
        if take >= item.remaining {
            items.remove(idx);
        } else {
            item.remaining = item.remaining - take;
            items.sort_by(|a, b| sort_key(b).total_cmp(&sort_key(a)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_support::{costs, instance, jobs, phones};
    use crate::{CostMatrix, RuntimePredictor};
    use cwc_types::{CpuSpec, JobId, JobSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};

    /// Costs as the kernel gets them: two programs with 150 ms/KB
    /// baselines, resolved by the predictor.
    fn predicted_instance(num_phones: usize, num_jobs: usize) -> SchedProblem {
        let (p, j) = (phones(num_phones), jobs(num_jobs));
        let mut predictor = RuntimePredictor::new();
        predictor.set_baseline("primecount", 150.0);
        predictor.set_baseline("photoblur", 150.0);
        let programs: Vec<&str> = j.iter().map(|spec| spec.program.as_str()).collect();
        let c = predictor.cost_matrix(&p, &programs);
        SchedProblem::new(p, j, c).unwrap()
    }

    /// `problem`'s costs as raw rows.
    fn rows_of(problem: &SchedProblem) -> Vec<Vec<f64>> {
        (0..problem.num_phones())
            .map(|i| problem.c[i].to_vec())
            .collect()
    }

    #[test]
    fn scheduling_a_predicted_problem_never_builds_the_cost_rows() {
        let problem = predicted_instance(20, 30);
        let rows_built = CostMatrix::rows_built_on_this_thread();
        let (cold, _, warm) = GreedyScheduler
            .schedule_warm_with_stats(&problem, None)
            .unwrap();
        cold.validate(&problem).unwrap();
        let (again, _, _) = GreedyScheduler
            .schedule_warm_with_stats(&problem, Some(warm))
            .unwrap();
        again.validate(&problem).unwrap();
        assert_eq!(CostMatrix::rows_built_on_this_thread(), rows_built);
    }

    #[test]
    fn a_job_pushed_after_new_is_refused_not_scheduled() {
        let mut problem = predicted_instance(20, 30);
        let before = GreedyScheduler.schedule(&problem).unwrap();
        let extra = JobSpec::breakable(JobId(30), "primecount", KiloBytes(30), KiloBytes(500));
        problem.jobs.push(extra);
        let refused = GreedyScheduler.schedule(&problem);
        assert!(matches!(refused, Err(CwcError::Config(_))), "{refused:?}");
        let stale = before.validate(&problem);
        assert!(matches!(stale, Err(CwcError::Config(_))), "{stale:?}");
    }

    #[test]
    fn a_cost_row_dropped_after_new_is_refused_not_scheduled() {
        let mut problem = predicted_instance(20, 30);
        let before = GreedyScheduler.schedule(&problem).unwrap();
        let mut rows = rows_of(&problem);
        rows.pop();
        problem.c = rows.into();
        let refused = GreedyScheduler.schedule(&problem);
        assert!(matches!(refused, Err(CwcError::Config(_))), "{refused:?}");
        let stale = before.validate(&problem);
        assert!(matches!(stale, Err(CwcError::Config(_))), "{stale:?}");
    }

    #[test]
    fn a_matrix_swapped_in_after_new_brings_its_own_grouping() {
        // Job 4 leaves its program's column by one ulp on phone 3. The
        // swapped-in rows are grouped on first use, as `new` would.
        let mut problem = predicted_instance(6, 12);
        let mut rows = rows_of(&problem);
        rows[3][4] = rows[3][4].next_up();
        problem.c = rows.clone().into();
        let fresh =
            SchedProblem::new(problem.phones.clone(), problem.jobs.clone(), rows.into()).unwrap();
        let (swapped, _) = GreedyScheduler.schedule_with_stats(&problem).unwrap();
        let (built, _) = GreedyScheduler.schedule_with_stats(&fresh).unwrap();
        assert_eq!(swapped.per_phone, built.per_phone);
        assert_eq!(
            swapped.predicted_makespan_ms.to_bits(),
            built.predicted_makespan_ms.to_bits()
        );
        assert_eq!(problem.c.column_of(), fresh.c.column_of());
        assert_eq!(problem.c.columns().unwrap().count(), 3);
    }

    #[test]
    fn produces_valid_schedule() {
        let problem = instance(6, 20);
        let s = GreedyScheduler.schedule(&problem).unwrap();
        s.validate(&problem).unwrap();
        assert!(s.predicted_makespan_ms > 0.0);
    }

    #[test]
    fn makespan_equals_max_height() {
        let problem = instance(4, 10);
        let s = GreedyScheduler.schedule(&problem).unwrap();
        let heights = s.predicted_heights_ms(&problem);
        let max = heights.into_iter().fold(0.0f64, f64::max);
        assert!((s.predicted_makespan_ms - max).abs() < 1e-9);
    }

    #[test]
    fn single_job_single_phone() {
        let p = phones(1);
        let j = vec![JobSpec::breakable(
            JobId(0),
            "primecount",
            KiloBytes(30),
            KiloBytes(500),
        )];
        let c = costs(&p, &j);
        let problem = SchedProblem::new(p, j, c.into()).unwrap();
        let s = GreedyScheduler.schedule(&problem).unwrap();
        s.validate(&problem).unwrap();
        let expect = problem.full_cost_ms(0, 0);
        assert!(
            (s.predicted_makespan_ms - expect).abs() < 1.0,
            "{} vs {expect}",
            s.predicted_makespan_ms
        );
    }

    #[test]
    fn atomic_jobs_are_never_split() {
        let problem = instance(5, 30);
        let s = GreedyScheduler.schedule(&problem).unwrap();
        let parts = s.partitions_per_job();
        for job in &problem.jobs {
            if job.kind.is_atomic() {
                assert_eq!(parts[&job.id], 1, "{} split", job.id);
            }
        }
    }

    #[test]
    fn prefers_whole_assignments() {
        // Plenty of capacity slack: splits should be rare (Fig. 12b: ~90%
        // of tasks unpartitioned).
        let problem = instance(6, 30);
        let s = GreedyScheduler.schedule(&problem).unwrap();
        let splits = s.split_counts_sorted();
        let unsplit = splits.iter().filter(|&&n| n == 0).count();
        assert!(
            unsplit * 10 >= splits.len() * 7,
            "only {unsplit}/{} jobs unsplit",
            splits.len()
        );
    }

    #[test]
    fn beats_worst_bin_bound_and_respects_lower_bound() {
        let problem = instance(6, 24);
        let s = GreedyScheduler.schedule(&problem).unwrap();
        assert!(s.predicted_makespan_ms <= reference::worst_bin_upper_bound(&problem) + 1.0);
        assert!(s.predicted_makespan_ms >= reference::magical_bin_lower_bound(&problem) - 1.0);
    }

    #[test]
    fn fast_link_fast_cpu_phone_gets_the_lions_share() {
        // Two phones: one strictly better on both axes. The better phone
        // must end with more assigned input.
        let p = vec![
            PhoneInfo::new(
                PhoneId(0),
                CpuSpec::new(1500, 2),
                RadioTech::Wifi80211a,
                MsPerKb(1.0),
            ),
            PhoneInfo::new(
                PhoneId(1),
                CpuSpec::new(806, 1),
                RadioTech::Edge,
                MsPerKb(60.0),
            ),
        ];
        let j = vec![JobSpec::breakable(
            JobId(0),
            "primecount",
            KiloBytes(30),
            KiloBytes(2_000),
        )];
        let c = costs(&p, &j);
        let problem = SchedProblem::new(p, j, c.into()).unwrap();
        let s = GreedyScheduler.schedule(&problem).unwrap();
        s.validate(&problem).unwrap();
        let kb_on: Vec<u64> = s
            .per_phone
            .iter()
            .map(|q| q.iter().map(|a| a.input_kb.0).sum())
            .collect();
        assert!(
            kb_on[0] > kb_on[1] * 5,
            "fast phone got {} KB, slow got {} KB",
            kb_on[0],
            kb_on[1]
        );
    }

    #[test]
    fn load_balances_identical_phones() {
        // 4 identical phones, 8 identical breakable jobs → heights within
        // one job cost of each other.
        let p: Vec<PhoneInfo> = (0..4)
            .map(|i| {
                PhoneInfo::new(
                    PhoneId(i),
                    CpuSpec::new(1000, 2),
                    RadioTech::Wifi80211g,
                    MsPerKb(2.0),
                )
            })
            .collect();
        let j: Vec<JobSpec> = (0..8)
            .map(|k| JobSpec::breakable(JobId(k), "primecount", KiloBytes(30), KiloBytes(400)))
            .collect();
        let c = costs(&p, &j);
        let problem = SchedProblem::new(p, j, c.into()).unwrap();
        let s = GreedyScheduler.schedule(&problem).unwrap();
        s.validate(&problem).unwrap();
        let heights = s.predicted_heights_ms(&problem);
        let max = heights.iter().cloned().fold(0.0f64, f64::max);
        let min = heights.iter().cloned().fold(f64::INFINITY, f64::min);
        let one_job = problem.full_cost_ms(0, 0);
        assert!(
            max - min <= one_job + 1.0,
            "imbalance {max}-{min} exceeds one job ({one_job})"
        );
    }

    #[test]
    fn ram_caps_are_respected() {
        let mut p = phones(3);
        for ph in &mut p {
            ph.ram_kb = 120;
        }
        let j = vec![
            JobSpec::breakable(JobId(0), "primecount", KiloBytes(30), KiloBytes(600)),
            JobSpec::breakable(JobId(1), "primecount", KiloBytes(30), KiloBytes(300)),
        ];
        let c = costs(&p, &j);
        let problem = SchedProblem::new(p, j, c.into()).unwrap();
        let s = GreedyScheduler.schedule(&problem).unwrap();
        s.validate(&problem).unwrap();
        for a in s.per_phone.iter().flatten() {
            assert!(a.input_kb.0 <= 120);
        }
    }

    #[test]
    fn infeasible_atomic_reports_error() {
        // An atomic job too big for any phone's RAM cannot be scheduled.
        let mut p = phones(2);
        for ph in &mut p {
            ph.ram_kb = 100;
        }
        let j = vec![JobSpec::atomic(
            JobId(0),
            "photoblur",
            KiloBytes(10),
            KiloBytes(500),
        )];
        let c = costs(&p, &j);
        let problem = SchedProblem::new(p, j, c.into()).unwrap();
        assert!(GreedyScheduler.schedule(&problem).is_err());
    }

    #[test]
    fn stats_report_convergence_work() {
        let problem = instance(6, 20);
        let sched = GreedyScheduler;
        let (s, stats) = sched.schedule_with_stats(&problem).unwrap();
        assert!(stats.binsearch_iters > 0, "{stats:?}");
        // Every binary-search iteration packs once; the UB probe adds more.
        assert!(stats.pack_calls > stats.binsearch_iters, "{stats:?}");
        assert!(stats.ub_ms >= stats.lb_ms, "{stats:?}");
        assert!(stats.window_ms <= search_tolerance(stats.ub_ms));
        // Cold runs never report warm-start work.
        assert_eq!(stats.warm_hits, 0, "{stats:?}");
        assert_eq!(stats.probes_saved, 0, "{stats:?}");
        // Stats do not change the schedule itself.
        let plain = sched.schedule(&problem).unwrap();
        assert_eq!(s.per_phone, plain.per_phone);
    }

    #[test]
    fn observed_schedule_records_metrics() {
        let problem = instance(4, 12);
        let obs = cwc_obs::Obs::new();
        GreedyScheduler
            .schedule_observed_warm(&problem, &obs, None)
            .unwrap();
        assert!(obs.metrics.counter_value("sched.greedy.binsearch_iters") > 0);
        assert!(obs.metrics.counter_value("sched.greedy.pack_calls") > 0);
    }

    #[test]
    fn observed_schedule_publishes_the_counted_work_once_per_call() {
        let problem = instance(9, 40);
        let (_, _, warm, cold) = GreedyScheduler
            .schedule_warm_with_work(&problem, None)
            .unwrap();
        let (_, _, _, rerun) = GreedyScheduler
            .schedule_warm_with_work(&problem, Some(warm))
            .unwrap();
        assert!(cold.fill_visits > 0 && cold.bound_cells > 0 && cold.step2_candidates > 0);
        assert!(cold.early_stops > 0 && cold.cert_cells > 0);
        let obs = cwc_obs::Obs::new();
        let (_, next) = GreedyScheduler
            .schedule_observed_warm(&problem, &obs, None)
            .unwrap();
        GreedyScheduler
            .schedule_observed_warm(&problem, &obs, Some(next))
            .unwrap();
        let counted = |name| obs.metrics.counter_value(name);
        assert_eq!(
            counted("sched.greedy.fill_visits"),
            cold.fill_visits + rerun.fill_visits
        );
        assert_eq!(
            counted("sched.greedy.bound_cells"),
            cold.bound_cells + rerun.bound_cells
        );
        assert_eq!(
            counted("sched.greedy.step2_candidates"),
            cold.step2_candidates + rerun.step2_candidates
        );
        assert_eq!(
            counted("sched.greedy.early_stops"),
            cold.early_stops + rerun.early_stops
        );
        assert_eq!(
            counted("sched.greedy.cert_cells"),
            cold.cert_cells + rerun.cert_cells
        );
    }

    #[test]
    fn deterministic_output() {
        let problem = instance(6, 18);
        let a = GreedyScheduler.schedule(&problem).unwrap();
        let b = GreedyScheduler.schedule(&problem).unwrap();
        assert_eq!(a.per_phone.len(), b.per_phone.len());
        for (qa, qb) in a.per_phone.iter().zip(&b.per_phone) {
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn matches_reference_implementation_on_a_fixed_instance() {
        let problem = instance(8, 40);
        let sched = GreedyScheduler;
        let (fast, fast_stats) = sched.schedule_with_stats(&problem).unwrap();
        let (slow, slow_stats) = reference::schedule_with_stats(&problem).unwrap();
        assert_eq!(fast.per_phone, slow.per_phone);
        assert_eq!(
            fast.predicted_makespan_ms.to_bits(),
            slow.predicted_makespan_ms.to_bits()
        );
        assert_eq!(fast_stats, slow_stats);
    }

    #[test]
    fn single_probes_match_reference_inside_the_margin_band() {
        // Step 2 decides fit with a multiply-compare and pays for the
        // seed's exact `floor(usable / per_kb)` only when `need` is
        // within 1e-9 of the capacity — which a binary search never
        // lands on. Force it: all-atomic jobs on a wide fleet, probed at
        // capacities that ARE one placement's Eq. 1 cost, and one ulp
        // either side, where the exact test flips.
        let p = phones(40);
        let j: Vec<JobSpec> = (0..12)
            .map(|k| {
                let size = KiloBytes(200 + 37 * u64::from(k));
                JobSpec::atomic(JobId(k), "photoblur", KiloBytes(40), size)
            })
            .collect();
        let c = costs(&p, &j);
        let problem = SchedProblem::new(p, j, c.into()).unwrap();
        let mut packed = 0;
        for job in 0..problem.num_jobs() {
            for phone in 0..problem.num_phones() {
                let exact = problem.full_cost_ms(phone, job);
                for capacity in [exact.next_down(), exact, exact.next_up()] {
                    let fast = probe_each(&problem, &[capacity]).unwrap();
                    let slow = reference::pack_queues(&problem, capacity);
                    assert_eq!(
                        fast[0].queues, slow,
                        "job {job} phone {phone} at {capacity}"
                    );
                    packed += usize::from(slow.is_some());
                }
            }
        }
        assert!(
            packed > 0,
            "every probe infeasible: the test lost its point"
        );
    }

    #[test]
    fn warm_start_on_same_instance_cuts_pack_calls() {
        let problem = instance(9, 40);
        let sched = GreedyScheduler;
        let (cold_s, cold_stats, warm) = sched.schedule_warm_with_stats(&problem, None).unwrap();
        // The optimum is unchanged, so the transferred ratio lands the
        // first galloping probe and the bisection window is ~5% of lb
        // instead of ub − lb.
        let (warm_s, warm_stats, _) = sched
            .schedule_warm_with_stats(&problem, Some(warm))
            .unwrap();
        warm_s.validate(&problem).unwrap();
        assert_eq!(warm_stats.warm_hits, 1, "{warm_stats:?}");
        assert!(warm_stats.probes_saved > 0, "{warm_stats:?}");
        assert!(
            warm_stats.pack_calls * 2 <= cold_stats.pack_calls,
            "warm {warm_stats:?} vs cold {cold_stats:?}"
        );
        // Solution quality stays within the convergence window.
        assert!(
            warm_s.predicted_makespan_ms <= cold_s.predicted_makespan_ms * 1.05 + 1.0,
            "warm {} vs cold {}",
            warm_s.predicted_makespan_ms,
            cold_s.predicted_makespan_ms
        );
    }

    #[test]
    fn warm_start_survives_a_shrunken_fleet() {
        // Rescheduling after failures: fewer phones, residual jobs. The
        // hint transfers a ratio, so it stays useful, and even a wild
        // miss falls back to the cold bound without losing correctness.
        let full = instance(9, 40);
        let sched = GreedyScheduler;
        let (_, _, warm) = sched.schedule_warm_with_stats(&full, None).unwrap();

        let p = phones(6);
        let j: Vec<JobSpec> = (0..12)
            .map(|k| JobSpec::breakable(JobId(k), "primecount", KiloBytes(30), KiloBytes(350)))
            .collect();
        let c = costs(&p, &j);
        let residual = SchedProblem::new(p, j, c.into()).unwrap();
        let (s, stats, next) = sched
            .schedule_warm_with_stats(&residual, Some(warm))
            .unwrap();
        s.validate(&residual).unwrap();
        assert!(stats.pack_calls > 0);
        assert!(next.hi_ms > 0.0 && next.lb_ms > 0.0);
    }

    #[test]
    fn degenerate_warm_hints_are_ignored() {
        let problem = instance(4, 10);
        let sched = GreedyScheduler;
        let (cold, cold_stats) = sched.schedule_with_stats(&problem).unwrap();
        for bad in [
            WarmStart {
                hi_ms: f64::NAN,
                lb_ms: 1.0,
            },
            WarmStart {
                hi_ms: 0.0,
                lb_ms: 1.0,
            },
            WarmStart {
                hi_ms: 1.0,
                lb_ms: -3.0,
            },
            WarmStart {
                hi_ms: f64::INFINITY,
                lb_ms: 1.0,
            },
        ] {
            let (s, stats, _) = sched.schedule_warm_with_stats(&problem, Some(bad)).unwrap();
            // An unusable hint must leave the cold path untouched.
            assert_eq!(s.per_phone, cold.per_phone);
            assert_eq!(stats, cold_stats);
        }
    }

    #[test]
    fn observed_warm_schedule_records_warm_metrics() {
        let problem = instance(5, 16);
        let obs = cwc_obs::Obs::new();
        let sched = GreedyScheduler;
        let (_, warm) = sched.schedule_observed_warm(&problem, &obs, None).unwrap();
        sched
            .schedule_observed_warm(&problem, &obs, Some(warm))
            .unwrap();
        assert_eq!(obs.metrics.counter_value("sched.greedy.warm_hits"), 1);
        assert!(obs.metrics.counter_value("sched.greedy.probes_saved") > 0);
    }
}
