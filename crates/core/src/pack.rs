//! Zero-allocation packing arena for Algorithm 1.
//!
//! [`PackScratch`] holds every piece of per-probe working state the
//! greedy packer needs — bin open flags, which bin each job's executable
//! last went to, per-bin assignment queues, and the sorted item list — so
//! a `schedule()` call allocates once and every binary-search probe just
//! resets and reuses the arena. The packer makes the seed's decisions
//! (the proptests hold it byte-identical to [`crate::greedy::reference`]);
//! what differs is how little of the seed's searching it repeats.
//!
//! # One bin at a time
//!
//! The seed's Step 1 tests every live item against every open bin. Only
//! the **newest** bin can ever accept one. When Step 2 runs, no live item
//! fits any open bin (that is Step 2's precondition). Opening bin `k` and
//! placing into it changes only `k`'s height and `k`'s shipped flags, and
//! only shrinks a breakable item — whose fit test, "at least 1 KB", does
//! not depend on what remains of it; atomic items never shrink. So every
//! older bin stays unfit for every live item until the next Step 2, and
//! the packer is a next-fit loop: **Step 2, then fill that one bin.** No
//! list of open bins, no bin heights beyond the newest one's, and the
//! only shipped flags ever read are the newest bin's
//! (`shipped_to[j] == k`). The reference counts Step-1 placements that
//! went anywhere else, and the equivalence proptests hold that count at 0.
//!
//! # Layout
//!
//! * **Costs are read along the axis the loop walks**
//!   ([`CostTables`]). Step 2 — which unopened bin minimises Eq. 1 for
//!   the head item — fixes a job and varies the phone, so it reads the
//!   job's contiguous `per_kb` *column*, which every job of the same
//!   program shares: Step 2 keeps re-reading a few hot columns (8 KB
//!   each at 1 000 phones), not a fresh one per job. The fill
//!   fixes the phone and varies the job, so it reads the phone's *row* —
//!   which the problem's own `c[i]` already is: `b_i + c[i][j]` is one
//!   add on the spot, and the row (8 KB at 1 000 jobs) stays in L1 for
//!   the whole pass. The executable cost `E_j · b_i` is not a table
//!   either: one multiply of two vector entries.
//! * **Step 2 tests the winner only.** The seed tests every unopened
//!   bin for fit and keeps the cheapest that passes. Here the cheapest
//!   unopened bin is found first — `E_j · b_i + remaining · per_kb` over
//!   the column in groups of [`LANES`] phones, straight-line arithmetic
//!   with an open bin priced out by adding `+∞` (and an unopened one
//!   left alone by adding `0.0`), first index of the minimum — and the
//!   fit test runs on that one bin. A bin that is cheapest of all and
//!   fits is the cheapest that fits, and the lowest index among all of
//!   equal cost is the lowest among those that fit, so this is the
//!   seed's choice; when the winner does not fit (a RAM-capped phone, a
//!   capacity too tight for the item anywhere cheap) the
//!   candidate-by-candidate scan decides, as before.
//! * **Fit is decided with a multiply-compare.** Whether an item fits is
//!   `floor(usable / per_kb) ≥ n` in the seed; here `need = exe + n ·
//!   per_kb` is compared against the room first, with the
//!   [`PRUNE_MARGIN`] on either side of the capacity, and only a `need`
//!   inside that 1e-9 band pays for the exact division; `max_fit_kb` is
//!   computed once, for the bin Step 2 opens. The fill rejects with the
//!   margin and lets the exact test accept. A bin whose room is below
//!   its phone's cheapest rate ends its pass at once.
//! * **The item list has a head cursor.** Live items are
//!   `items[head..]`. A consumed item's gap is closed from whichever
//!   side is shorter; Algorithm 1 mostly consumes at or near the head,
//!   where that is O(1) instead of a memmove of the whole list (the
//!   4 000 one-chunk items of a live batch moved 128 MB per probe).
//!
//! # Search order
//!
//! * **Sorted item template.** The seed re-sorted the items from the
//!   original job order at the start of every probe; since the input is
//!   the same every time, the sorted order is too. The template is
//!   sorted once per `schedule()` call and memcpy'd per probe.
//! * **Ordered reinsertion.** When an item is split, its sort key
//!   strictly decreases (`c > 0`), so a stable re-sort can only move it
//!   later in the list. The new position is found with a binary search
//!   (`partition_point`) over the tail and the slice is rotated —
//!   `O(log n + shift)` instead of the seed's full `O(n log n)` sort.
//!   With equal keys, `partition_point` on `key > new_key` inserts the
//!   shrunk item *before* later equal-key items, exactly where a stable
//!   sort puts it.
//! * **Resumable scan.** The seed restarts Step 1 at the head after
//!   every placement. While one bin fills, its room only shrinks and its
//!   shipped flag only flips for the job just placed (whose shrunk
//!   remainder reinserts at or after the placement index), so an item
//!   that did not fit stays unfit. The fill is therefore a single pass:
//!   it resumes where [`PackScratch::consume`] says the item after the
//!   placement now sits, and never rewinds.
//!
//! The binary search keeps the queues of the most recent *successful*
//! probe by swapping two pre-allocated queue sets (`queues` ↔
//! `best_queues`) — an `O(1)` pointer swap instead of a clone.

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

use crate::problem::{fit_kb, CostTables, SchedProblem};
use crate::schedule::Assignment;
use cwc_types::{JobId, KiloBytes, PhoneId};

/// Safety margin for every multiply-compare that stands in for the
/// seed's `floor(room / per_kb)` test: `need · MARGIN > room` proves the
/// seed rejects and `need ≤ room · MARGIN` proves it accepts, each by
/// far more than accumulated floating-point rounding (~2⁻⁵²) could
/// account for. In between, the exact test decides.
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Phones Step 2 prices per straight-line group (one cache line of a
/// cost column); the cost tables' worst-bin maxima use the same groups.
pub(crate) const LANES: usize = 8;

/// The least of one group's costs (finite or `+∞`, never NaN), by
/// halving: lane against lane, so the group costs three dependent
/// minima rather than one per phone.
fn least_of(mut costs: [f64; LANES]) -> f64 {
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        let (low, high) = costs.split_at_mut(width);
        for (a, &b) in low.iter_mut().zip(high.iter()) {
            *a = if b < *a { b } else { *a };
        }
    }
    costs.first().copied().unwrap_or(f64::INFINITY)
}

/// A sortable item: job index + remaining input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Item {
    pub(crate) job: usize,
    pub(crate) remaining: KiloBytes,
}

/// Reusable per-`schedule()` packing arena (see module docs).
pub(crate) struct PackScratch {
    /// Items sorted by decreasing remaining execution time on the
    /// slowest phone, copied into `items` at the start of each probe.
    template: Vec<Item>,
    /// The probe's item list; `items[head..]` are still to be placed.
    items: Vec<Item>,
    head: usize,
    /// Per bin, what Step 2 adds to its Eq. 1 cost: `0.0` while the bin
    /// is unopened, `+∞` once it is open (a bin opens once per probe).
    penalty: Vec<f64>,
    /// `shipped_to[j]`: the bin job `j` was last placed in, so
    /// `shipped_to[j] == k` says the newest bin `k` already holds the
    /// job's executable (`usize::MAX`: placed nowhere yet).
    shipped_to: Vec<usize>,
    /// Working queues for the probe in flight.
    queues: Vec<Vec<Assignment>>,
    /// Queues of the most recent successful probe (swapped in, not cloned).
    best_queues: Vec<Vec<Assignment>>,
    has_best: bool,
    /// Per-job atomicity flags.
    atomic: Vec<bool>,
    /// `key_rate[j] = c[slowest][j]` — the sort-key rate.
    key_rate: Vec<f64>,
    phone_ids: Vec<PhoneId>,
    job_ids: Vec<JobId>,
}

impl PackScratch {
    /// Allocates the arena for `problem` and sorts the item template.
    pub(crate) fn new(problem: &SchedProblem) -> PackScratch {
        let num_phones = problem.num_phones();
        let s = problem.slowest_phone();
        let key_rate: Vec<f64> = problem.c.get(s).cloned().unwrap_or_default();

        let mut template: Vec<Item> = problem
            .jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| Item {
                job: j,
                remaining: spec.input_kb,
            })
            .collect();
        // Decreasing remaining execution time on the slowest phone; the
        // keys are finite and positive (validated in SchedProblem::new),
        // so total_cmp orders exactly like the seed's partial_cmp.
        let rates = &key_rate;
        let key = |it: &Item| it.remaining.as_f64() * rates.get(it.job).copied().unwrap_or(0.0);
        template.sort_by(|a, b| key(b).total_cmp(&key(a)));

        PackScratch {
            items: Vec::with_capacity(template.len()),
            head: 0,
            template,
            penalty: vec![0.0; num_phones],
            shipped_to: vec![usize::MAX; problem.num_jobs()],
            queues: (0..num_phones).map(|_| Vec::new()).collect(),
            best_queues: (0..num_phones).map(|_| Vec::new()).collect(),
            has_best: false,
            atomic: problem.jobs.iter().map(|j| j.kind.is_atomic()).collect(),
            key_rate,
            phone_ids: problem.phones.iter().map(|p| p.id).collect(),
            job_ids: problem.jobs.iter().map(|j| j.id).collect(),
        }
    }

    /// Algorithm 1: packs all items with bin capacity `capacity_ms` into
    /// the arena's working queues. Returns `false` when the capacity is
    /// infeasible (Algorithm 1 lines 23–25).
    pub(crate) fn pack(&mut self, tables: &CostTables<'_>, capacity_ms: f64) -> bool {
        self.reset();
        while let Some(item) = self.items.get(self.head).copied() {
            // Step 2: nothing fits the open bins — open a new one for the
            // largest item, choosing the bin that minimizes Eq. 1.
            let Some(i) = self.cheapest_unopened_bin(tables, item, capacity_ms) else {
                return false;
            };
            if let Some(penalty) = self.penalty.get_mut(i) {
                *penalty = f64::INFINITY;
            }
            let fit = tables.max_fit_kb(i, item.job, capacity_ms, true);
            let take = fit.min(item.remaining);
            let height_ms = tables.cost_ms(i, item.job, take, true);
            self.commit(i, item.job, take);
            self.consume(self.head, take);
            // Step 1, until the next bin opens: only this bin can accept
            // an item (module docs).
            self.fill(tables, i, height_ms, capacity_ms);
        }
        true
    }

    /// Step 2's choice: the unopened bin that can hold `item` (all of it
    /// if atomic, one KB otherwise) at the least Eq. 1 cost for the whole
    /// item, ties to the lowest phone index.
    ///
    /// The cheapest unopened bin is found first, fit or no fit — a
    /// branch-free minimum over the job's column, [`LANES`] phones at a
    /// time, an open bin priced out by its `+∞` penalty — and the fit test
    /// runs on that winner alone. If the item fits it, no fitting bin is
    /// cheaper and none of equal cost has a lower index, so it is the bin
    /// the candidate-by-candidate scan picks; if not, that scan decides.
    fn cheapest_unopened_bin(
        &self,
        tables: &CostTables<'_>,
        item: Item,
        capacity_ms: f64,
    ) -> Option<usize> {
        let atomic = self.atomic.get(item.job).copied().unwrap_or(false);
        let remaining = item.remaining.as_f64();
        let exe_kb = tables.exe_kbs().get(item.job).copied().unwrap_or(0.0);
        let min_kb = if atomic { item.remaining.0 } else { 1 };
        let (col, bandwidths, ram_caps) =
            (tables.col(item.job), tables.bandwidths(), tables.ram_caps());
        // Eq. 1 for the whole item. `cost + 0.0` is `cost` to the bit, so
        // an unopened bin compares here exactly as it does below.
        let priced = |per: f64, b: f64, penalty: f64| exe_kb * b + remaining * per + penalty;
        let fits = |per: f64, b: f64, ram: u64| {
            let exe = exe_kb * b;
            let need = exe + min_kb as f64 * per;
            if ram < min_kb || need * PRUNE_MARGIN > capacity_ms {
                return false;
            }
            need <= capacity_ms * PRUNE_MARGIN || fit_kb(capacity_ms, exe, per, ram).0 >= min_kb
        };

        let (per_groups, per_rest) = col.as_chunks::<LANES>();
        let (b_groups, b_rest) = bandwidths.as_chunks::<LANES>();
        let (penalty_groups, penalty_rest) = self.penalty.as_chunks::<LANES>();
        // The least cost of all, and where the first group holding it
        // starts (`<`, not `≤`: the lowest index wins a tie).
        let (mut least, mut start) = (f64::INFINITY, 0);
        let groups = per_groups.iter().zip(b_groups).zip(penalty_groups);
        for (k, ((per, b), penalty)) in groups.enumerate() {
            let mut costs = [0.0; LANES];
            let lanes = costs.iter_mut().zip(per).zip(b).zip(penalty);
            for (((cost, &per), &b), &penalty) in lanes {
                *cost = priced(per, b, penalty);
            }
            let low = least_of(costs);
            if low < least {
                (least, start) = (low, k * LANES);
            }
        }
        let rest = per_rest.iter().zip(b_rest).zip(penalty_rest);
        let low = rest.fold(f64::INFINITY, |low, ((&per, &b), &penalty)| {
            low.min(priced(per, b, penalty))
        });
        if low < least {
            (least, start) = (low, per_groups.len() * LANES);
        }
        let winner = col
            .iter()
            .zip(bandwidths)
            .zip(&self.penalty)
            .zip(ram_caps)
            .enumerate()
            .skip(start)
            .take(LANES)
            .find(|(_, (((&per, &b), &penalty), _))| priced(per, b, penalty) == least);
        if let Some((i, (((&per, &b), _), &ram))) = winner {
            if least < f64::INFINITY && fits(per, b, ram) {
                return Some(i);
            }
        }

        // The winner is open or cannot hold the item: every candidate in
        // index order, a costlier one dropped before its fit is tested.
        let candidates = self.penalty.iter().zip(col).zip(bandwidths).zip(ram_caps);
        let mut best: Option<(usize, f64)> = None;
        for (i, (((&penalty, &per), &b), &ram)) in candidates.enumerate() {
            if penalty != 0.0 {
                continue;
            }
            let cost = priced(per, b, 0.0);
            if best.is_some_and(|(_, c)| cost >= c) || !fits(per, b, ram) {
                continue;
            }
            best = Some((i, cost));
        }
        best.map(|(i, _)| i)
    }

    /// Step 1 for the newest bin `i`, `height_ms` full: one pass over the
    /// live items in sorted order, placing each that fits (the largest
    /// fitting partition of a breakable one), until the bin's room is
    /// below its phone's cheapest per-KB rate — no job, breakable or
    /// atomic, shipped or not, can fit it then — or the list ends.
    fn fill(&mut self, tables: &CostTables<'_>, i: usize, mut height_ms: f64, capacity_ms: f64) {
        let (Some(&b), Some(&ram)) = (tables.bandwidths().get(i), tables.ram_caps().get(i)) else {
            return;
        };
        let (costs, exe_kbs) = (tables.compute_row(i), tables.exe_kbs());
        let dead_below = tables.row_min_ms(i) * PRUNE_MARGIN;
        let mut idx = self.head;
        loop {
            let room = capacity_ms - height_ms;
            if room < dead_below {
                return;
            }
            let Some(item) = self.items.get(idx).copied() else {
                return;
            };
            let at = idx;
            idx += 1;
            let (Some(&c), Some(&exe_kb), Some(&atomic), Some(&shipped_to)) = (
                costs.get(item.job),
                exe_kbs.get(item.job),
                self.atomic.get(item.job),
                self.shipped_to.get(item.job),
            ) else {
                continue;
            };
            let per = b + c;
            let exe = if shipped_to == i { 0.0 } else { exe_kb * b };
            // A multiply-compare rejects without paying the fit's
            // division; the margin guarantees it never rejects an item
            // the seed accepts.
            let least = if atomic { item.remaining } else { KiloBytes(1) };
            if (exe + least.as_f64() * per) * PRUNE_MARGIN > room {
                continue;
            }
            let fit = fit_kb(room, exe, per, ram);
            if fit < least {
                continue;
            }
            let take = fit.min(item.remaining);
            height_ms += exe + take.as_f64() * per;
            self.commit(i, item.job, take);
            // Everything before the placement stayed unfit: the bin's
            // room shrank and the placed job's remainder reinserted at or
            // after it.
            idx = self.consume(at, take);
        }
    }

    /// The queues of one packing attempt on a fresh arena, for
    /// single-probe tests against `reference::pack_queues`.
    #[cfg(test)]
    pub(crate) fn pack_queues(
        problem: &SchedProblem,
        capacity_ms: f64,
    ) -> Option<Vec<Vec<Assignment>>> {
        let mut scratch = PackScratch::new(problem);
        if !scratch.pack(&problem.tables(), capacity_ms) {
            return None;
        }
        scratch.mark_success();
        scratch.take_best()
    }

    /// Keeps the working queues as the best packing so far (O(1) swap).
    pub(crate) fn mark_success(&mut self) {
        std::mem::swap(&mut self.queues, &mut self.best_queues);
        self.has_best = true;
    }

    /// Hands out the queues of the last successful probe, if any.
    pub(crate) fn take_best(&mut self) -> Option<Vec<Vec<Assignment>>> {
        if !self.has_best {
            return None;
        }
        Some(std::mem::take(&mut self.best_queues))
    }

    fn reset(&mut self) {
        self.items.clear();
        self.items.extend_from_slice(&self.template);
        self.head = 0;
        self.penalty.fill(0.0);
        self.shipped_to.fill(usize::MAX);
        for q in &mut self.queues {
            q.clear();
        }
    }

    /// Records a partition in bin `i`'s queue; the job's executable is
    /// on that phone from now on.
    fn commit(&mut self, i: usize, job: usize, take: KiloBytes) {
        debug_assert!(take.0 >= 1);
        if let Some(bin) = self.shipped_to.get_mut(job) {
            *bin = i;
        }
        let phone = self.phone_ids.get(i).copied().unwrap_or(PhoneId(u32::MAX));
        let job_id = self.job_ids.get(job).copied().unwrap_or(JobId(u32::MAX));
        if let Some(q) = self.queues.get_mut(i) {
            q.push(Assignment {
                phone,
                job: job_id,
                input_kb: take,
                offset_kb: KiloBytes::ZERO, // assigned later
            });
        }
    }

    /// Removes `take` KB from item `idx`; a remainder is reinserted at
    /// its sorted position (Algorithm 1 lines 8–12). Equivalent to the
    /// seed's full stable re-sort: the key strictly decreases, so the
    /// item can only move into the tail, before later equal-key items.
    /// A fully consumed item's gap is closed from the shorter side.
    /// Returns where the item that followed `idx` now sits.
    fn consume(&mut self, idx: usize, take: KiloBytes) -> usize {
        let Some(item) = self.items.get(idx).copied() else {
            return idx;
        };
        if take >= item.remaining {
            if idx.saturating_sub(self.head) < self.items.len() - idx {
                if let Some(before) = self.items.get_mut(self.head..=idx) {
                    before.rotate_right(1);
                }
                self.head += 1;
                return idx + 1;
            }
            self.items.remove(idx);
            return idx;
        }
        let remaining = item.remaining - take;
        let rates = &self.key_rate;
        let rate_of = |j: usize| rates.get(j).copied().unwrap_or(0.0);
        let new_key = remaining.as_f64() * rate_of(item.job);
        let start = idx + 1;
        let shift = self
            .items
            .get(start..)
            .map(|tail| {
                tail.partition_point(|it| it.remaining.as_f64() * rate_of(it.job) > new_key)
            })
            .unwrap_or(0);
        if let Some(it) = self.items.get_mut(idx) {
            it.remaining = remaining;
        }
        if let Some(window) = self.items.get_mut(idx..start + shift) {
            window.rotate_left(1);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::reference;
    use crate::problem::test_support::{costs, phones};
    use cwc_types::JobSpec;

    /// One probe of the arena packer and of the seed packer, which must
    /// agree; returns the per-phone `(job, KB)` queues.
    fn packed(problem: &SchedProblem, capacity_ms: f64) -> Option<Vec<Vec<(u32, u64)>>> {
        let fast = PackScratch::pack_queues(problem, capacity_ms);
        assert_eq!(fast, reference::pack_queues(problem, capacity_ms));
        let brief = |q: Vec<Assignment>| q.iter().map(|a| (a.job.0, a.input_kb.0)).collect();
        fast.map(|queues| queues.into_iter().map(brief).collect())
    }

    fn breakable(id: u32, input_kb: u64) -> JobSpec {
        JobSpec::breakable(JobId(id), "primecount", KiloBytes(30), KiloBytes(input_kb))
    }

    fn problem(num_phones: usize, ram_kb: Option<u64>, jobs: Vec<JobSpec>) -> SchedProblem {
        let mut p = phones(num_phones);
        for phone in &mut p {
            phone.ram_kb = ram_kb.unwrap_or(phone.ram_kb);
        }
        let c = costs(&p, &jobs);
        SchedProblem::new(p, jobs, c).unwrap()
    }

    #[test]
    fn step_two_falls_back_to_the_scan_when_the_cheapest_bin_cannot_hold_the_item() {
        // Phone 0 is the cheaper bin (11 against 13.8 ms/KB) but has RAM
        // for a third of the atomic job: the winner-only test fails and
        // the scan must still find phone 1.
        let atomic = JobSpec::atomic(JobId(0), "photoblur", KiloBytes(40), KiloBytes(300));
        let mut p = phones(2);
        p[0].ram_kb = 100;
        let jobs = vec![atomic];
        let c = costs(&p, &jobs);
        let prob = SchedProblem::new(p, jobs, c).unwrap();
        assert!(prob.per_kb_ms(0, 0) < prob.per_kb_ms(1, 0));
        let capacity = prob.full_cost_ms(1, 0) + 1.0;
        assert_eq!(packed(&prob, capacity), Some(vec![vec![], vec![(0, 300)]]));
        // Too tight for phone 1 as well: the scan finds nothing either.
        assert_eq!(packed(&prob, prob.full_cost_ms(1, 0) - 1.0), None);
    }

    #[test]
    fn step_two_breaks_cost_ties_to_the_lowest_unopened_phone() {
        // Twenty identical phones (two full groups of lanes and a
        // remainder), as many identical atomic jobs, room for one job a
        // bin: every Step 2 sees the same cost on every unopened phone.
        let mut p = phones(2 * LANES + 4);
        for phone in &mut p {
            phone.cpu = cwc_types::CpuSpec::new(806, 2);
            phone.bandwidth = cwc_types::MsPerKb(1.0);
        }
        let jobs: Vec<JobSpec> = (0..p.len() as u32)
            .map(|j| JobSpec::atomic(JobId(j), "photoblur", KiloBytes(40), KiloBytes(300)))
            .collect();
        let c = costs(&p, &jobs);
        let prob = SchedProblem::new(p, jobs, c).unwrap();
        let one_job_each: Vec<Vec<(u32, u64)>> = (0..prob.num_phones() as u32)
            .map(|k| vec![(k, 300)])
            .collect();
        assert_eq!(
            packed(&prob, prob.full_cost_ms(0, 0) + 1.0),
            Some(one_job_each)
        );
    }

    #[test]
    fn ram_capped_bin_retakes_the_same_job_and_pays_its_executable_once() {
        // One phone, 100 KB of RAM, one 250 KB job: Step 2 takes 100 KB,
        // then the fill meets the remainder at the head twice more.
        let prob = problem(1, Some(100), vec![breakable(0, 250)]);
        let whole = prob.full_cost_ms(0, 0);
        // Room for the executable once, not twice (it costs 30 ms).
        assert_eq!(
            packed(&prob, whole + 0.5),
            Some(vec![vec![(0, 100), (0, 100), (0, 50)]])
        );
        // And the last KB really needs all of that room.
        assert_eq!(packed(&prob, whole - 0.5), None);
    }

    #[test]
    fn bin_left_dead_by_step_two_is_not_scanned_and_the_next_item_opens_the_next_bin() {
        // Job 0 fills phone 0 (the cheaper one) to within half of one
        // KB's cost, so nothing — not even 1 KB of the breakable job 1 —
        // may follow it there.
        let prob = problem(2, None, vec![breakable(0, 400), breakable(1, 300)]);
        let capacity = prob.full_cost_ms(0, 0) + 0.5 * prob.per_kb_ms(0, 1);
        assert_eq!(
            packed(&prob, capacity),
            Some(vec![vec![(0, 400)], vec![(1, 300)]])
        );
    }

    #[test]
    fn fill_skips_an_unfit_atomic_item_and_resumes_after_the_placement() {
        // Sorted: job 0 (400 KB), atomic job 1 (300 KB), jobs 2 and 3.
        // Phone 0 takes job 0 whole and has room left for jobs 2 and 3
        // but not for the atomic one ahead of them. Placing job 2 closes
        // its gap from the head side (job 1 moves up a slot), so a scan
        // that resumed at the placement index instead of after it would
        // miss job 3, and one that rewound would only waste time.
        let atomic = JobSpec::atomic(JobId(1), "photoblur", KiloBytes(40), KiloBytes(300));
        let jobs = vec![
            breakable(0, 400),
            atomic,
            breakable(2, 100),
            breakable(3, 50),
        ];
        let prob = problem(2, None, jobs);
        let capacity = [0, 2, 3]
            .map(|j| prob.full_cost_ms(0, j))
            .iter()
            .sum::<f64>()
            + 100.0;
        assert!(prob.full_cost_ms(0, 1) > capacity - prob.full_cost_ms(0, 0));
        assert_eq!(
            packed(&prob, capacity),
            Some(vec![vec![(0, 400), (2, 100), (3, 50)], vec![(1, 300)]])
        );
    }
}
