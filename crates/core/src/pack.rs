//! Zero-allocation packing arena for Algorithm 1.
//!
//! [`PackScratch`] holds every piece of per-probe working state the
//! greedy packer needs — bin open flags, bin heights, the shipped-pair
//! bitset, per-bin assignment queues, and the sorted item list — so a
//! `schedule()` call allocates once and every binary-search probe just
//! resets and reuses the arena. The packer makes the seed's decisions
//! (the proptests hold it byte-identical to [`crate::greedy::reference`]);
//! what differs is how the data it reads is laid out and how little of
//! it each decision touches.
//!
//! # Layout
//!
//! * **Costs are read along the axis the loop walks**
//!   ([`CostTables`]). "Which bin for this item" — Step 2's choice of
//!   the unopened bin minimising Eq. 1, and Step 1's walk over the open
//!   bins — fixes a job and varies the phone, so it reads the job's
//!   contiguous *column* of the job-major `per_kb` table. Opening a bin
//!   fixes the phone and varies the job, so it reads the phone's *row* —
//!   which the problem's own `c[i]` already is: `b_i + c[i][j]` is one
//!   add on the spot, not a second P × J table to allocate, fill and
//!   keep in cache at every scheduling instant. The executable cost
//!   `E_j · b_i` is not a table either: both factors sit in P- and
//!   J-long vectors that stay in cache, and the multiply is cheaper than
//!   a miss on another P × J array.
//! * **Step 2 decides with a multiply-compare.** A candidate whose
//!   Eq. 1 cost cannot beat the best so far is dropped first. Whether
//!   the item fits the candidate at all is `floor(usable / per_kb) ≥ n`
//!   in the seed; here `need = exe + n · per_kb` is compared against the
//!   capacity with the [`PRUNE_MARGIN`] on either side, and only a
//!   `need` inside that 1e-9 band pays for the exact division.
//!   `max_fit_kb` is computed once, for the winner.
//! * **The item list has a head cursor.** Live items are
//!   `items[head..]`. A consumed item's gap is closed from whichever
//!   side is shorter; Algorithm 1 mostly consumes at or near the head,
//!   where that is O(1) instead of a memmove of the whole list (the
//!   4 000 one-chunk items of a live batch moved 128 MB per probe).
//! * **Per-job prune floors.** `min_open_need` / `min_open_per_kb` hold
//!   each job's cheapest placement over the *open* bins. A bin that
//!   opens folds its row into both with one branch-free pass. That pass
//!   needs no shipped-pair test: the only job already shipped to a bin
//!   at the moment it opens is the one [`PackScratch::commit`] just
//!   placed there, and `commit` has already lowered that job's floor to
//!   the exe-free rate, below anything the pass could write.
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
//! * **Resumable scan.** Between bin openings, bin rooms only shrink
//!   and the shipped flag only flips for the job that was just placed
//!   (whose shrunk remainder reinserts at or after the placement
//!   index), so an item that failed to fit every open bin stays unfit
//!   until Step 2 opens a new bin. The Step-1 scan therefore resumes
//!   from the last placement instead of restarting at the head, and
//!   rewinds only when a bin opens — turning the seed's quadratic
//!   rescanning into one amortized pass per bin opening.
//! * **Height-ordered bins with early exit.** Open bins are kept
//!   sorted by `(height, index)`; scanning them in that order makes
//!   the first fitting bin exactly the seed's choice (minimum height,
//!   ties to the lowest phone index), so the scan stops at the first
//!   fit instead of visiting every open bin.
//! * **Max-room prune.** The minimum open height is the head of the
//!   sorted bin list, so the largest open room is known exactly. An
//!   item whose cheapest conceivable placement needs more room than
//!   that cannot fit any open bin, and its bin scan is skipped. A bin
//!   whose room is below its phone's cheapest rate leaves the list for
//!   good. Both bounds carry the [`PRUNE_MARGIN`] so that
//!   floating-point rounding in the seed's `floor(room / per_kb)` test
//!   can never disagree with the prune.
//!
//! The binary search keeps the queues of the most recent *successful*
//! probe by swapping two pre-allocated queue sets (`queues` ↔
//! `best_queues`) — an `O(1)` pointer swap instead of a clone.

use crate::problem::{fit_kb, CostTables, SchedProblem};
use crate::schedule::Assignment;
use cwc_types::{JobId, KiloBytes, PhoneId};

/// Safety margin for every multiply-compare that stands in for the
/// seed's `floor(room / per_kb)` test: `need · MARGIN > room` proves the
/// seed rejects and `need ≤ room · MARGIN` proves it accepts, each by
/// far more than accumulated floating-point rounding (~2⁻⁵²) could
/// account for. In between, the exact test decides.
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

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
    opened: Vec<bool>,
    height_ms: Vec<f64>,
    /// Open bins as `(height_ms, phone index)`, sorted ascending — the
    /// seed's min-height tie-to-lowest-index choice is the first fit in
    /// this order, and the head gives the largest open room exactly.
    by_height: Vec<(f64, usize)>,
    /// Shipped phone–job pairs as a bitset, `words_per_phone` words per
    /// phone, job bit `j` at word `j / 64`, bit `j % 64`.
    shipped: Vec<u64>,
    words_per_phone: usize,
    /// Working queues for the probe in flight.
    queues: Vec<Vec<Assignment>>,
    /// Queues of the most recent successful probe (swapped in, not cloned).
    best_queues: Vec<Vec<Assignment>>,
    has_best: bool,
    /// Per-job atomicity flags.
    atomic: Vec<bool>,
    /// `key_rate[j] = c[slowest][j]` — the sort-key rate.
    key_rate: Vec<f64>,
    /// `min_open_need[j]`: cheapest cost of the smallest breakable
    /// placement of job `j` on any *open* bin (`per_kb + exe` while the
    /// pair is unshipped, `per_kb` after). Maintained incrementally:
    /// lowered for every job when a bin opens, and for the committed
    /// job when its exe overhead is first paid.
    min_open_need: Vec<f64>,
    /// `min_open_per_kb[j]`: cheapest per-KB rate of job `j` on any
    /// open bin — the atomic prune's floor (exe-free, so it only
    /// changes when a bin opens).
    min_open_per_kb: Vec<f64>,
    phone_ids: Vec<PhoneId>,
    job_ids: Vec<JobId>,
}

impl PackScratch {
    /// Allocates the arena for `problem` and sorts the item template.
    pub(crate) fn new(problem: &SchedProblem) -> PackScratch {
        let num_phones = problem.num_phones();
        let num_jobs = problem.num_jobs();
        let words_per_phone = num_jobs.div_ceil(64);
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
            opened: vec![false; num_phones],
            height_ms: vec![0.0; num_phones],
            by_height: Vec::with_capacity(num_phones),
            shipped: vec![0u64; num_phones * words_per_phone],
            words_per_phone,
            queues: (0..num_phones).map(|_| Vec::new()).collect(),
            best_queues: (0..num_phones).map(|_| Vec::new()).collect(),
            has_best: false,
            atomic: problem.jobs.iter().map(|j| j.kind.is_atomic()).collect(),
            key_rate,
            min_open_need: vec![f64::INFINITY; num_jobs],
            min_open_per_kb: vec![f64::INFINITY; num_jobs],
            phone_ids: problem.phones.iter().map(|p| p.id).collect(),
            job_ids: problem.jobs.iter().map(|j| j.id).collect(),
        }
    }

    /// Algorithm 1: packs all items with bin capacity `capacity_ms` into
    /// the arena's working queues. Returns `false` when the capacity is
    /// infeasible (Algorithm 1 lines 23–25).
    pub(crate) fn pack(&mut self, tables: &CostTables<'_>, capacity_ms: f64) -> bool {
        self.reset();
        let bandwidths = tables.bandwidths();
        let ram_caps = tables.ram_caps();
        // Items before this index are known not to fit any open bin;
        // rooms only shrink between bin openings, so the knowledge
        // stays valid until Step 2 rewinds the scan (module docs).
        let mut scan_start = self.head;
        while self.head < self.items.len() {
            // Step 1: first item (in sorted order) that fits an open bin.
            let max_room = self
                .by_height
                .first()
                .map(|&(h, _)| capacity_ms - h)
                .unwrap_or(0.0);
            let mut placed: Option<usize> = None;
            for idx in scan_start..self.items.len() {
                let Some(item) = self.items.get(idx).copied() else {
                    break;
                };
                let atomic = self.atomic.get(item.job).copied().unwrap_or(false);
                // Cheapest conceivable placement across the *open* bins:
                // one KB (breakable, exe included while unshipped) or the
                // whole remainder (atomic) at the best open rate. If even
                // that exceeds the largest open room, the bin scan cannot
                // find a fit. The margin keeps the skip sound under
                // floating-point rounding.
                let need = if atomic {
                    let floor = self
                        .min_open_per_kb
                        .get(item.job)
                        .copied()
                        .unwrap_or(f64::INFINITY);
                    item.remaining.as_f64() * floor
                } else {
                    self.min_open_need
                        .get(item.job)
                        .copied()
                        .unwrap_or(f64::INFINITY)
                };
                if need * PRUNE_MARGIN > max_room {
                    continue;
                }
                // Bins in (height, index) order: the first fit is the
                // open bin with minimum height where the item fits,
                // ties to the lowest phone index — the seed's choice.
                // A multiply-compare filter rejects non-fitting bins
                // without paying the fit's division; the margin
                // guarantees it never rejects a bin the seed accepts.
                let rates = tables.col(item.job);
                let exe_kb = tables.exe_kbs().get(item.job).copied().unwrap_or(0.0);
                let min_kb = if atomic { item.remaining.as_f64() } else { 1.0 };
                let mut target: Option<(usize, KiloBytes)> = None;
                for &(height, i) in &self.by_height {
                    let room = capacity_ms - height;
                    let (Some(&per), Some(&b), Some(&ram)) =
                        (rates.get(i), bandwidths.get(i), ram_caps.get(i))
                    else {
                        continue;
                    };
                    let exe = if self.shipped_bit(i, item.job) {
                        0.0
                    } else {
                        exe_kb * b
                    };
                    if (exe + min_kb * per) * PRUNE_MARGIN > room {
                        continue;
                    }
                    let fit = fit_kb(room, exe, per, ram);
                    let enough = if atomic {
                        fit >= item.remaining
                    } else {
                        fit.0 >= 1
                    };
                    if enough {
                        target = Some((i, fit));
                        break;
                    }
                }
                if let Some((i, fit)) = target {
                    let take = fit.min(item.remaining);
                    self.commit(tables, i, item.job, take);
                    self.reposition(tables, i, capacity_ms);
                    placed = Some(self.consume(idx, take));
                    break;
                }
            }
            if let Some(next) = placed {
                // Everything before the placement stayed unfit: only bin
                // `i` changed (its room shrank) and the placed job's
                // remainder reinserted at or after it.
                scan_start = next;
                continue;
            }

            // Step 2: nothing fits the open bins — open a new one for the
            // largest item, choosing the bin that minimizes Eq. 1.
            let Some(item) = self.items.get(self.head).copied() else {
                break;
            };
            let atomic = self.atomic.get(item.job).copied().unwrap_or(false);
            let remaining = item.remaining.as_f64();
            let exe_kb = tables.exe_kbs().get(item.job).copied().unwrap_or(0.0);
            // The placement must hold the whole item if atomic, one KB
            // otherwise.
            let min_kb = if atomic { item.remaining.0 } else { 1 };
            let candidates = self
                .opened
                .iter()
                .zip(tables.col(item.job))
                .zip(bandwidths)
                .zip(ram_caps);
            let mut best: Option<(usize, f64)> = None;
            for (i, (((&opened, &per), &b), &ram)) in candidates.enumerate() {
                if opened {
                    continue;
                }
                let exe = exe_kb * b;
                let cost = exe + remaining * per;
                if best.is_some_and(|(_, c)| cost >= c) {
                    continue;
                }
                let need = exe + min_kb as f64 * per;
                if ram < min_kb || need * PRUNE_MARGIN > capacity_ms {
                    continue;
                }
                if need > capacity_ms * PRUNE_MARGIN
                    && fit_kb(capacity_ms, exe, per, ram).0 < min_kb
                {
                    continue;
                }
                best = Some((i, cost));
            }
            let Some((i, _)) = best else {
                return false;
            };
            if let Some(flag) = self.opened.get_mut(i) {
                *flag = true;
            }
            let fit = tables.max_fit_kb(i, item.job, capacity_ms, true);
            let take = fit.min(item.remaining);
            self.commit(tables, i, item.job, take);
            self.insert_open_bin(tables, i, capacity_ms);
            self.consume(self.head, take);
            // A fresh bin means previously-unfit items may fit again.
            scan_start = self.head;
        }
        true
    }

    /// True when bin `i`'s room at `height` is below even its cheapest
    /// per-KB rate — no job, breakable or atomic, shipped or not, can
    /// ever fit it again. The rate is static per `schedule()` call, so
    /// a dead bin stays dead.
    fn is_dead(tables: &CostTables<'_>, i: usize, height: f64, capacity_ms: f64) -> bool {
        capacity_ms - height < tables.row_min_ms(i) * PRUNE_MARGIN
    }

    /// Inserts freshly-opened bin `i` into the height-ordered list
    /// (unless already packed beyond use) and folds its rates into the
    /// open-bin prune floors (no shipped-pair test: module docs).
    fn insert_open_bin(&mut self, tables: &CostTables<'_>, i: usize, capacity_ms: f64) {
        let h = self.height_ms.get(i).copied().unwrap_or(0.0);
        if !Self::is_dead(tables, i, h, capacity_ms) {
            let at = self
                .by_height
                .partition_point(|&(bh, b)| bh < h || (bh == h && b < i));
            self.by_height.insert(at, (h, i));
        }
        let b = tables.bandwidths().get(i).copied().unwrap_or(0.0);
        let floors = self.min_open_per_kb.iter_mut().zip(&mut self.min_open_need);
        for ((per, &exe_kb), (per_floor, need_floor)) in
            tables.row(i).zip(tables.exe_kbs()).zip(floors)
        {
            *per_floor = per_floor.min(per);
            *need_floor = need_floor.min(per + exe_kb * b);
        }
    }

    /// Re-sorts bin `i` after its height grew: it can only move later in
    /// the `(height, index)` order, so a binary search over the tail plus
    /// a rotate restores the invariant. A bin packed beyond use leaves
    /// the list instead.
    fn reposition(&mut self, tables: &CostTables<'_>, i: usize, capacity_ms: f64) {
        let new_h = self.height_ms.get(i).copied().unwrap_or(0.0);
        let Some(pos) = self.by_height.iter().position(|&(_, b)| b == i) else {
            return;
        };
        if Self::is_dead(tables, i, new_h, capacity_ms) {
            self.by_height.remove(pos);
            return;
        }
        let shift = self
            .by_height
            .get(pos + 1..)
            .map(|tail| tail.partition_point(|&(h, b)| h < new_h || (h == new_h && b < i)))
            .unwrap_or(0);
        if let Some(entry) = self.by_height.get_mut(pos) {
            *entry = (new_h, i);
        }
        if let Some(window) = self.by_height.get_mut(pos..pos + shift + 1) {
            window.rotate_left(1);
        }
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
        self.opened.fill(false);
        self.height_ms.fill(0.0);
        self.by_height.clear();
        self.min_open_need.fill(f64::INFINITY);
        self.min_open_per_kb.fill(f64::INFINITY);
        self.shipped.fill(0);
        for q in &mut self.queues {
            q.clear();
        }
    }

    #[inline]
    fn shipped_bit(&self, i: usize, j: usize) -> bool {
        let word = i * self.words_per_phone + (j >> 6);
        let mask = 1u64 << (j & 63);
        self.shipped.get(word).copied().unwrap_or(0) & mask != 0
    }

    #[inline]
    fn set_shipped(&mut self, i: usize, j: usize) {
        let word = i * self.words_per_phone + (j >> 6);
        let mask = 1u64 << (j & 63);
        if let Some(w) = self.shipped.get_mut(word) {
            *w |= mask;
        }
    }

    /// Records a partition into a bin and updates its height.
    fn commit(&mut self, tables: &CostTables<'_>, i: usize, job: usize, take: KiloBytes) {
        debug_assert!(take.0 >= 1);
        let include_exe = !self.shipped_bit(i, job);
        let add = tables.cost_ms(i, job, take, include_exe);
        if let Some(h) = self.height_ms.get_mut(i) {
            *h += add;
        }
        self.set_shipped(i, job);
        if include_exe {
            // The pair's exe overhead is now paid: further placements of
            // this job on bin `i` cost `per_kb` alone, which may lower
            // the job's open-bin prune floor.
            let per = tables.per_kb_ms(i, job);
            if let Some(floor) = self.min_open_need.get_mut(job) {
                if per < *floor {
                    *floor = per;
                }
            }
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
