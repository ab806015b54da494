//! Zero-allocation packing arena for Algorithm 1.
//!
//! [`PackScratch`] holds every piece of per-probe working state the
//! greedy packer needs — bin open flags, which bin each job's executable
//! last went to, a placement log with per-bin heights, how far into each
//! cost column's rate order the bins are open, and the sorted item
//! list — so a `schedule()` call allocates once and every binary-search
//! probe just resets and reuses the arena. The packer makes the seed's decisions
//! (the proptests hold it byte-identical to [`crate::greedy::reference`]);
//! what differs is how little of the seed's searching it repeats, and
//! that a probe stops once it provably packs (under "Stopping early").
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
//!   job's `per_kb` *column* (in rate order, under "Search order"),
//!   which every job of the same program shares: Step 2 keeps
//!   re-reading a few hot columns (8 KB each at 1 000 phones), not a
//!   fresh one per job. The fill fixes the phone and varies the job,
//!   and visits only a few items per bin (≈ 5.5 on a 1 000 × 1 000
//!   search: [`PackWork`]), so whatever it reads is cold for each new
//!   bin; it reads the same columns, a cache line per column. The
//!   executable cost `E_j · b_i` is not a table either: one multiply of
//!   two vector entries.
//! * **Step 2 tests the winner only.** The seed tests every unopened
//!   bin for fit and keeps the cheapest that passes. Here the cheapest
//!   unopened bin is found first, fit or no fit (how, under "Search
//!   order"), and the fit test runs on that one bin. A bin that is
//!   cheapest of all and fits is the cheapest that fits, and the lowest
//!   index among all of equal cost is the lowest among those that fit,
//!   so this is the seed's choice; when the winner does not fit (a
//!   RAM-capped phone, a capacity too tight for the item anywhere
//!   cheap) the candidate-by-candidate scan decides, as before.
//! * **Fit is decided with a multiply-compare.** Whether an item fits is
//!   `floor(usable / per_kb) ≥ n` in the seed; here `need = exe + n ·
//!   per_kb` is compared against the room first, with the
//!   [`PRUNE_MARGIN`] on either side of the capacity, and only a `need`
//!   inside that 1e-9 band pays for the exact division; `max_fit_kb` is
//!   computed once, for the bin Step 2 opens. The fill rejects with the
//!   margin, takes a whole item with it when the phone's RAM holds all
//!   of it, and pays for the division only inside the band or to cut a
//!   partition.
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
//! * **Rate order.** Each distinct cost column's phones are sorted by
//!   rate once per `schedule()` call ([`CostTables::rate_order`], which
//!   the worst-bin bound reads backwards), and Step 2 walks them in that
//!   order from a per-probe cursor past the prefix already open. Every
//!   phone not yet walked costs at least `E_j · b_min + remaining ·
//!   rate`: `b_min` is the fleet's cheapest link, the rate only rises,
//!   and IEEE products and sums round monotonically. The walk stops when
//!   that floor is strictly above the least cost seen, so a later phone
//!   of exactly equal cost is still reached and the lower index wins the
//!   tie, as in the seed's scan. Step 2 then reads a few phones of a hot
//!   column instead of all P. The sort is P log P per column, paid
//!   whether or not the column is read often; a batch whose every job
//!   has a cost column of its own pays it J times (DESIGN.md §10).
//! * **Resumable scan.** The seed restarts Step 1 at the head after
//!   every placement. While one bin fills, its room only shrinks and its
//!   shipped flag only flips for the job just placed (whose shrunk
//!   remainder reinserts at or after the placement index), so an item
//!   that did not fit stays unfit. The fill is therefore a single pass:
//!   it resumes where [`PackScratch::consume`] says the item after the
//!   placement now sits, and never rewinds.
//! * **The pass ends when no live item can fit.** Every live item needs
//!   at least `exe + n · per_kb` of the room, and
//!   [`CostTables::fill_floor_ms`] is a floor under that for the whole
//!   batch: per kind, the least executable on this phone plus the
//!   cheapest column that kind reads there — times the least input for
//!   atomic items, which are never split and so never live on a bin
//!   that holds their executable. A breakable job split in this bin
//!   (by Step 2's opening placement or by the fill; under a RAM cap its
//!   remainder can still fit) has its executable there, so after a
//!   split the breakable floor drops that term. Once the room is below
//!   the floor with the margin, the multiply-compare would reject every
//!   item left, and the pass stops instead of visiting them: on a
//!   1 000 × 1 000 search, 14 720 visits instead of 382 345.
//!
//! # Stopping early
//!
//! The capacity search needs every probe's yes or no, but only the
//! winning probe's placements. So a probe stops as soon as a cheap,
//! sound certificate proves the rest of Algorithm 1 cannot fail, and is
//! finished only if it wins.
//!
//! **The rule.** At the top of the loop, before Step 2, let `r` be the
//! number of live items. Call an unopened bin `i` *spare* when its RAM
//! holds the largest live remainder and, for every cost column `k` that
//! still has live items, `maxE_k · b_i + maxR_k · per_k[i] ≤ capacity ·
//! PRUNE_MARGIN`. `maxE_k` is the largest executable among column `k`'s
//! jobs and `maxR_k` the largest live remainder among them: the
//! column's first live item, since within one column the sort key is
//! the remainder times one rate. If at least `r` bins are spare, the
//! probe packs. The invariant "spares ≥ r" holds from then on:
//!
//! * A spare bin passes Step 2's fit test for any head item, and takes
//!   it whole. The item's `E_j ≤ maxE_k` and remainder `≤ maxR_k`, and
//!   IEEE products and sums round monotonically, so its need is at most
//!   the spare bound: the fit test's fast accept, which the seed's
//!   division agrees with, and the RAM holds all of it. So Step 2
//!   always finds a bin.
//! * If Step 2 opens a spare bin, the head is placed whole: `r` drops by
//!   at least 1 and the spare count by 1.
//! * If it opens any other bin, no spare bin is used and `r` does not
//!   grow: the fill only shrinks or removes items.
//! * Items never grow and the live columns only thin out, so a spare
//!   bin stays spare.
//!
//! **The check is cheap.** It runs only while `r` is at most the number
//! of unopened bins, and then at live counts an eighth apart, starting
//! from the count at which the previous certified probe stopped. It
//! reads the live items from the head until it has met every cost
//! column (or the list ends), keeping each column's first. Then it reads
//! each live column's skyline ([`CostTables::skyline`]): the costliest
//! phone for any executable and input lies on it, so if the skylines
//! pass and the fleet's least RAM holds the largest remainder, every
//! unopened bin is spare. Otherwise it walks one live column's rate
//! order past its open prefix and stops once `r` spares are found, once
//! too few unopened phones are left to reach `r`, or once the column's
//! rate alone rules out every later phone — Step 2's floor. With many
//! distinct columns a phone's test reads a cell per live column, so a
//! check runs only while what a success could read (`r` phones, a cell
//! for each of up to `min(K, r)` live columns) is covered by what the
//! probe's reset writes (`P + J`) plus the probe's own counted work,
//! less what its earlier checks read.
//!
//! **Suspend and resume.** A probe's whole state — the item list and
//! its head, the open flags and their count, `shipped_to`, the open
//! prefixes, the log and heights, its capacity and whether it stopped
//! early — is one value. The search keeps the
//! most recent probe that packed by swapping that value with a second
//! one (`O(1)`, no clone). After the search a winner that stopped early
//! resumes at its own capacity and runs to the end. The packer is
//! deterministic from its state, so its log and heights are those of
//! the uninterrupted probe; the schedule is only ever read from a
//! finished log.
//!
//! # One placement log
//!
//! A probe records its placements in one flat log, `(bin, job, KB)` in
//! the order they are made — a bin's placements are one contiguous run,
//! since bins fill one at a time — and each bin's height as its fill
//! ends. After the search the per-phone queues are built from the
//! winning log once, each job's pieces cut at consecutive offsets in
//! phone order, and the predicted makespan is the tallest of the
//! winning heights — the same sums, in the same order, as
//! [`Schedule::predicted_heights_ms`] makes from the queues.

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
use crate::schedule::{Assignment, Schedule};
use cwc_types::{JobId, KiloBytes, PhoneId};

/// Safety margin for every multiply-compare that stands in for the
/// seed's `floor(room / per_kb)` test: `need · MARGIN > room` proves the
/// seed rejects and `need ≤ room · MARGIN` proves it accepts, each by
/// far more than accumulated floating-point rounding (~2⁻⁵²) could
/// account for. In between, the exact test decides.
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// The packer's work in one `schedule()` call, counted rather than
/// timed, so two runs of one instance count the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackWork {
    /// Live items the fill looked at, over every probe.
    pub fill_visits: u64,
    /// Cost cells the worst-bin upper bound read.
    pub bound_cells: u64,
    /// Unopened bins Step 2 priced with Eq. 1, over every probe.
    pub step2_candidates: u64,
    /// Probes that stopped early on the spare-bin certificate.
    pub early_stops: u64,
    /// Cells the spare-bin check read, over every probe: one per live
    /// item it read to find each column's largest remainder, and one per
    /// live cost column for every phone it tested.
    pub cert_cells: u64,
}

/// A sortable item: job index + remaining input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Item {
    pub(crate) job: usize,
    pub(crate) remaining: KiloBytes,
}

/// One entry of a probe's placement log: `kb` of job `job` in bin `bin`.
#[derive(Debug, Clone, Copy)]
struct Placement {
    bin: usize,
    job: usize,
    kb: KiloBytes,
}

/// The unopened phone of least Eq. 1 cost for Step 2's item, ties to
/// the lowest index (module docs, "Rate order"). `by_rate` is the item's
/// cost column by rate, and every phone in `by_rate[..*open_prefix]` is
/// open. Phones are visited by rate from past that prefix; every phone
/// not yet visited costs at least `E_j · b_min + remaining · rate` —
/// both products and the sum round monotonically — so the walk stops
/// once that floor is strictly above the least cost seen: a later phone
/// that ties it is still reached. `priced` counts the phones priced.
fn cheapest(
    by_rate: &[(f64, usize)],
    open_prefix: &mut usize,
    eq1: &Eq1<'_>,
    opened: &[bool],
    priced: &mut u64,
) -> Option<usize> {
    let open = |i: usize| opened.get(i).copied().unwrap_or(true);
    while by_rate.get(*open_prefix).is_some_and(|&(_, i)| open(i)) {
        *open_prefix += 1;
    }
    let exe_floor = eq1.exe_kb * eq1.least_bandwidth;
    let mut best: Option<(usize, f64)> = None;
    for &(per, i) in by_rate.get(*open_prefix..).unwrap_or_default() {
        if best.is_some_and(|(_, least)| exe_floor + eq1.remaining * per > least) {
            break;
        }
        let Some(&b) = eq1.bandwidths.get(i) else {
            continue;
        };
        if open(i) {
            continue;
        }
        *priced += 1;
        let cost = eq1.cost(per, b);
        if best.is_none_or(|(w, least)| cost < least || (cost == least && i < w)) {
            best = Some((i, cost));
        }
    }
    best.map(|(i, _)| i)
}

/// Eq. 1 for the whole of Step 2's item, over its job's cost column.
struct Eq1<'t> {
    exe_kb: f64,
    remaining: f64,
    col: &'t [f64],
    bandwidths: &'t [f64],
    /// `min_i b_i`: the executable term's floor in the rate-order walk.
    least_bandwidth: f64,
}

impl Eq1<'_> {
    /// `E_j · b_i + remaining · per_kb`: the seed's operations in the
    /// seed's order, so the bits are the seed's.
    #[inline]
    fn cost(&self, per: f64, b: f64) -> f64 {
        self.exe_kb * b + self.remaining * per
    }
}

/// A live cost column as the spare-bin check reads it: a job of the
/// column, the column's largest executable, and its largest live
/// remainder (KB).
#[derive(Debug, Clone, Copy)]
struct LiveColumn {
    job: usize,
    exe_kb: f64,
    remaining: f64,
}

/// Everything one probe reads and writes while it packs, so a probe that
/// stopped early can be set aside whole and finished later.
struct Probe {
    /// The probe's item list; `items[head..]` are still to be placed.
    items: Vec<Item>,
    head: usize,
    /// Per bin, whether it is open (a bin opens once per probe).
    opened: Vec<bool>,
    /// How many bins are still unopened.
    unopened: usize,
    /// `shipped_to[j]`: the bin job `j` was last placed in, so
    /// `shipped_to[j] == k` says the newest bin `k` already holds the
    /// job's executable (`usize::MAX`: placed nowhere yet).
    shipped_to: Vec<usize>,
    /// Per distinct cost column, how many phones at the head of its rate
    /// order ([`CostTables::rate_order`]) are known open.
    open_prefix: Vec<usize>,
    /// The placements in the order they were made; a bin's placements
    /// are one contiguous run (bins fill one at a time).
    log: Vec<Placement>,
    /// Per bin, its height once filled (`0.0` while unopened).
    heights: Vec<f64>,
    capacity_ms: f64,
    /// The certificate proved the rest packs and the probe stopped
    /// there: it is not finished yet.
    suspended: bool,
    /// The spare-bin check runs again once at most this many items are
    /// live.
    next_check: usize,
    /// The probe's own counted work (fill visits and Step-2 candidates)
    /// when it started, and the cells the check has read since.
    work_at_reset: u64,
    cert_spent: u64,
}

impl Probe {
    fn new(num_phones: usize, num_jobs: usize, num_columns: usize) -> Probe {
        Probe {
            items: Vec::with_capacity(num_jobs),
            head: 0,
            opened: vec![false; num_phones],
            unopened: num_phones,
            shipped_to: vec![usize::MAX; num_jobs],
            open_prefix: vec![0; num_columns],
            log: Vec::new(),
            heights: vec![0.0; num_phones],
            capacity_ms: 0.0,
            suspended: false,
            next_check: usize::MAX,
            work_at_reset: 0,
            cert_spent: 0,
        }
    }
}

/// Reusable per-`schedule()` packing arena (see module docs).
pub(crate) struct PackScratch {
    /// Items sorted by decreasing remaining execution time on the
    /// slowest phone, copied into the probe's list at its start.
    template: Vec<Item>,
    /// The probe being packed, and the most recent one that packed
    /// (swapped, not cloned; it may still be unfinished).
    probe: Probe,
    best: Probe,
    has_best: bool,
    /// Per distinct cost column, the largest executable of its jobs, KB.
    column_exe: Vec<f64>,
    /// The fleet's least RAM, KB.
    least_ram: u64,
    /// The live columns of the spare-bin check in progress, and which
    /// columns it has met.
    live: Vec<LiveColumn>,
    met: Vec<bool>,
    /// How many items were live when the last certified probe stopped:
    /// the next probe's first check waits for that count.
    certified_at: usize,
    /// Per-job atomicity flags.
    atomic: Vec<bool>,
    /// `key_rate[j] = c[slowest][j]` — the sort-key rate.
    key_rate: Vec<f64>,
    phone_ids: Vec<PhoneId>,
    job_ids: Vec<JobId>,
    /// The counted work, summed over every probe.
    work: PackWork,
}

impl PackScratch {
    /// Allocates the arena for `problem` and sorts the item template.
    pub(crate) fn new(problem: &SchedProblem, tables: &CostTables) -> PackScratch {
        let num_phones = problem.num_phones();
        let num_jobs = problem.num_jobs();
        let num_columns = tables.columns().count();
        let s = problem.slowest_phone();
        let key_rate: Vec<f64> = (0..num_jobs).map(|j| problem.c.get(s, j)).collect();

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

        let mut column_exe = vec![0.0f64; num_columns];
        for (j, &exe_kb) in tables.exe_kbs().iter().enumerate() {
            if let Some(exe) = column_exe.get_mut(tables.column_index(j)) {
                *exe = exe.max(exe_kb);
            }
        }

        PackScratch {
            template,
            probe: Probe::new(num_phones, num_jobs, num_columns),
            best: Probe::new(num_phones, num_jobs, num_columns),
            has_best: false,
            column_exe,
            least_ram: tables.ram_caps().iter().copied().min().unwrap_or(0),
            live: Vec::with_capacity(num_columns),
            met: vec![false; num_columns],
            certified_at: usize::MAX,
            atomic: problem.jobs.iter().map(|j| j.kind.is_atomic()).collect(),
            key_rate,
            phone_ids: problem.phones.iter().map(|p| p.id).collect(),
            job_ids: problem.jobs.iter().map(|j| j.id).collect(),
            work: PackWork::default(),
        }
    }

    /// Algorithm 1 with bin capacity `capacity_ms`. Returns `false` when
    /// the capacity is infeasible (Algorithm 1 lines 23–25) and `true`
    /// when it packs — possibly before the last item is placed, once the
    /// spare-bin certificate proves the rest cannot fail (module docs,
    /// "Stopping early"); [`PackScratch::finish`] completes such a probe
    /// after it is kept.
    pub(crate) fn pack(&mut self, tables: &CostTables, capacity_ms: f64) -> bool {
        self.reset(capacity_ms);
        self.run(tables, true)
    }

    /// The packing loop on the current probe, from wherever it stands;
    /// `may_stop` lets the certificate end it early.
    fn run(&mut self, tables: &CostTables, may_stop: bool) -> bool {
        let capacity_ms = self.probe.capacity_ms;
        while let Some(item) = self.probe.items.get(self.probe.head).copied() {
            if may_stop && self.certified(tables) {
                self.probe.suspended = true;
                self.work.early_stops += 1;
                return true;
            }
            // Step 2: nothing fits the open bins — open a new one for the
            // largest item, choosing the bin that minimizes Eq. 1.
            let Some(i) = self.cheapest_unopened_bin(tables, item, capacity_ms) else {
                return false;
            };
            if let Some(opened) = self.probe.opened.get_mut(i) {
                *opened = true;
                self.probe.unopened -= 1;
            }
            let fit = tables.max_fit_kb(i, item.job, capacity_ms, true);
            let take = fit.min(item.remaining);
            let height_ms = tables.cost_ms(i, item.job, take, true);
            self.commit(i, item.job, take);
            self.consume(self.probe.head, take);
            // Step 1, until the next bin opens: only this bin can accept
            // an item (module docs).
            let split = take < item.remaining;
            let height_ms = self.fill(tables, i, height_ms, capacity_ms, split);
            if let Some(height) = self.probe.heights.get_mut(i) {
                *height = height_ms;
            }
        }
        self.probe.suspended = false;
        true
    }

    /// The spare-bin certificate (module docs, "Stopping early"): at
    /// least as many spare bins as live items. The check runs only while
    /// no more items than unopened bins are live, at live counts an
    /// eighth apart, and only when the cells a success could read — `r`
    /// phones, a cell for each of up to `min(K, r)` live columns — are
    /// covered by the probe's reset and its own counted work, less what
    /// earlier checks read.
    fn certified(&mut self, tables: &CostTables) -> bool {
        let probe = &mut self.probe;
        let r = probe.items.len().saturating_sub(probe.head);
        if r > probe.unopened || r > probe.next_check {
            return false;
        }
        // What the reset writes, `P + J`, plus the probe's counted work.
        let earned = (probe.opened.len() + probe.shipped_to.len()) as u64
            + (self.work.fill_visits + self.work.step2_candidates)
            - probe.work_at_reset;
        let least = (self.column_exe.len().min(r) * r) as u64;
        if probe.cert_spent + least > earned {
            return false;
        }
        probe.next_check = r - (r / 8).max(1);
        let read_before = self.work.cert_cells;
        let spares = self.spare_bins(tables, r);
        self.probe.cert_spent += self.work.cert_cells - read_before;
        if spares < r {
            return false;
        }
        self.certified_at = r;
        true
    }

    /// Counts the current probe's spare bins, up to `r` of them: every
    /// unopened bin when each live column's skyline passes, and
    /// otherwise a walk of one live column's rate order past its open
    /// prefix that stops once `r` are found, once too few unopened
    /// phones are left to reach `r`, or once that column's rate alone
    /// rules out every later phone (as Step 2's walk stops on its
    /// floor).
    fn spare_bins(&mut self, tables: &CostTables, r: usize) -> usize {
        let PackScratch {
            probe,
            column_exe,
            least_ram,
            live,
            met,
            work,
            ..
        } = self;
        // Within a column the sort key is the remainder times one rate,
        // so its first live item holds its largest remainder.
        live.clear();
        let mut largest = KiloBytes::ZERO;
        for item in probe.items.get(probe.head..).unwrap_or_default() {
            if live.len() == column_exe.len() {
                break;
            }
            work.cert_cells += 1;
            let k = tables.column_index(item.job);
            let (Some(seen), Some(&exe_kb)) = (met.get_mut(k), column_exe.get(k)) else {
                continue;
            };
            if !*seen {
                *seen = true;
                largest = largest.max(item.remaining);
                live.push(LiveColumn {
                    job: item.job,
                    exe_kb,
                    remaining: item.remaining.as_f64(),
                });
            }
        }
        for column in live.iter() {
            if let Some(seen) = met.get_mut(tables.column_index(column.job)) {
                *seen = false;
            }
        }
        let bound = probe.capacity_ms * PRUNE_MARGIN;
        // Every unopened bin at once: a column's costliest phone for any
        // executable and input is on its skyline, so when the skylines
        // pass and the fleet's least RAM holds the largest remainder,
        // every phone is spare.
        let every_phone = *least_ram >= largest.0
            && live.iter().all(|column| {
                let skyline = tables.skyline(tables.column_index(column.job));
                skyline.iter().all(|&(b, per)| {
                    work.cert_cells += 1;
                    column.exe_kb * b + column.remaining * per <= bound
                })
            });
        if every_phone {
            return probe.unopened;
        }
        let Some(&walked) = live.first() else {
            return 0;
        };
        let k = tables.column_index(walked.job);
        let exe_floor = walked.exe_kb * tables.least_bandwidth();
        let (bandwidths, ram_caps) = (tables.bandwidths(), tables.ram_caps());
        let prefix = probe.open_prefix.get(k).copied().unwrap_or(0);
        let (mut spares, mut tested) = (0, 0);
        for &(per, i) in tables.rate_order(k).get(prefix..).unwrap_or_default() {
            if spares >= r
                || spares + (probe.unopened - tested) < r
                || exe_floor + walked.remaining * per > bound
            {
                break;
            }
            let (Some(false), Some(&b), Some(&ram)) = (
                probe.opened.get(i).copied(),
                bandwidths.get(i),
                ram_caps.get(i),
            ) else {
                continue;
            };
            tested += 1;
            let spare = ram >= largest.0
                && live.iter().all(|column| {
                    work.cert_cells += 1;
                    let per = tables.per_kb_ms(i, column.job);
                    column.exe_kb * b + column.remaining * per <= bound
                });
            spares += usize::from(spare);
        }
        spares
    }

    /// Step 2's choice: the unopened bin that can hold `item` (all of it
    /// if atomic, one KB otherwise) at the least Eq. 1 cost for the whole
    /// item, ties to the lowest phone index.
    ///
    /// The cheapest unopened bin is found first, fit or no fit, by a walk
    /// in rate order, and the fit test runs on that winner alone. If the
    /// item fits it, no fitting bin is cheaper and none of equal cost has
    /// a lower index, so it is the bin the candidate-by-candidate scan
    /// picks; if not, that scan decides.
    fn cheapest_unopened_bin(
        &mut self,
        tables: &CostTables,
        item: Item,
        capacity_ms: f64,
    ) -> Option<usize> {
        let atomic = self.atomic.get(item.job).copied().unwrap_or(false);
        let exe_kb = tables.exe_kbs().get(item.job).copied().unwrap_or(0.0);
        let min_kb = if atomic { item.remaining.0 } else { 1 };
        let ram_caps = tables.ram_caps();
        let eq1 = Eq1 {
            exe_kb,
            remaining: item.remaining.as_f64(),
            col: tables.col(item.job),
            bandwidths: tables.bandwidths(),
            least_bandwidth: tables.least_bandwidth(),
        };
        let fits = |per: f64, b: f64, ram: u64| {
            let exe = exe_kb * b;
            let need = exe + min_kb as f64 * per;
            if ram < min_kb || need * PRUNE_MARGIN > capacity_ms {
                return false;
            }
            need <= capacity_ms * PRUNE_MARGIN || fit_kb(capacity_ms, exe, per, ram).0 >= min_kb
        };

        let k = tables.column_index(item.job);
        let probe = &mut self.probe;
        let winner = (probe.open_prefix.get_mut(k))
            .and_then(|open_prefix| {
                let priced = &mut self.work.step2_candidates;
                cheapest(
                    tables.rate_order(k),
                    open_prefix,
                    &eq1,
                    &probe.opened,
                    priced,
                )
            })
            .and_then(|i| {
                let (per, b, ram) = (eq1.col.get(i)?, eq1.bandwidths.get(i)?, ram_caps.get(i)?);
                Some((i, *per, *b, *ram))
            });
        if let Some((i, per, b, ram)) = winner {
            if fits(per, b, ram) {
                return Some(i);
            }
        }

        // The winner is open or cannot hold the item: every candidate in
        // index order, a costlier one dropped before its fit is tested.
        let candidates = (probe.opened.iter().zip(eq1.col))
            .zip(eq1.bandwidths)
            .zip(ram_caps);
        let mut best: Option<(usize, f64)> = None;
        for (i, (((&open, &per), &b), &ram)) in candidates.enumerate() {
            if open {
                continue;
            }
            self.work.step2_candidates += 1;
            let cost = eq1.cost(per, b);
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
    /// below the least any live item could need there
    /// ([`CostTables::fill_floor_ms`]) or the list ends. `split` says
    /// Step 2's opening placement split its item. Returns the bin's final
    /// height.
    fn fill(
        &mut self,
        tables: &CostTables,
        i: usize,
        mut height_ms: f64,
        capacity_ms: f64,
        mut split: bool,
    ) -> f64 {
        let (Some(&b), Some(&ram)) = (tables.bandwidths().get(i), tables.ram_caps().get(i)) else {
            return height_ms;
        };
        let exe_kbs = tables.exe_kbs();
        // Every live item's least need is at or above the floor, so the
        // multiply-compare below rejects each one once the room is under
        // it with the margin: the pass can end there.
        let mut dead_below = tables.fill_floor_ms(i, split) * PRUNE_MARGIN;
        let mut idx = self.probe.head;
        loop {
            let room = capacity_ms - height_ms;
            if room < dead_below {
                return height_ms;
            }
            let Some(item) = self.probe.items.get(idx).copied() else {
                return height_ms;
            };
            self.work.fill_visits += 1;
            let at = idx;
            idx += 1;
            let (Some(&exe_kb), Some(&atomic), Some(&shipped_to)) = (
                exe_kbs.get(item.job),
                self.atomic.get(item.job),
                self.probe.shipped_to.get(item.job),
            ) else {
                continue;
            };
            let per = tables.per_kb_ms(i, item.job);
            let exe = if shipped_to == i { 0.0 } else { exe_kb * b };
            // A multiply-compare rejects without paying the fit's
            // division; the margin guarantees it never rejects an item
            // the seed accepts.
            let least = if atomic { item.remaining } else { KiloBytes(1) };
            if (exe + least.as_f64() * per) * PRUNE_MARGIN > room {
                continue;
            }
            // And accepts a whole item the same way, from the other side
            // of the band; only a need inside it, or a partition to cut,
            // pays for the division.
            let whole = item.remaining.0 <= ram
                && exe + item.remaining.as_f64() * per <= room * PRUNE_MARGIN;
            let take = if whole {
                item.remaining
            } else {
                let fit = fit_kb(room, exe, per, ram);
                if fit < least {
                    continue;
                }
                fit.min(item.remaining)
            };
            height_ms += exe + take.as_f64() * per;
            self.commit(i, item.job, take);
            if take < item.remaining && !split {
                // The remainder may sit on this bin with its executable
                // paid: the breakable floor loses its executable term.
                split = true;
                dead_below = tables.fill_floor_ms(i, split) * PRUNE_MARGIN;
            }
            // Everything before the placement stayed unfit: the bin's
            // room shrank and the placed job's remainder reinserted at or
            // after it.
            idx = self.consume(at, take);
        }
    }

    /// The counted work over every probe so far.
    pub(crate) fn work(&self) -> PackWork {
        self.work
    }

    /// Keeps the probe just packed as the best so far: the whole probe
    /// state changes places with the previous best (O(1) swaps).
    pub(crate) fn mark_success(&mut self) {
        std::mem::swap(&mut self.probe, &mut self.best);
        self.has_best = true;
    }

    /// Whether the best probe so far stopped early and is unfinished.
    pub(crate) fn best_is_suspended(&self) -> bool {
        self.has_best && self.best.suspended
    }

    /// Finishes the best probe if it stopped early: it resumes at its own
    /// capacity from the state it stopped in, so its log and heights are
    /// those of the uninterrupted probe. Returns `false` only if it then
    /// fails to pack, which the certificate rules out.
    pub(crate) fn finish(&mut self, tables: &CostTables) -> bool {
        if !self.best_is_suspended() {
            return true;
        }
        std::mem::swap(&mut self.probe, &mut self.best);
        let packed = self.run(tables, false);
        std::mem::swap(&mut self.probe, &mut self.best);
        packed
    }

    /// The best probe as a schedule, if there is a finished one: each
    /// phone's queue in placement order, each job's pieces cut at
    /// consecutive offsets in phone order, and the tallest bin as the
    /// predicted makespan.
    pub(crate) fn best_schedule(&self) -> Option<Schedule> {
        if !self.has_best || self.best.suspended {
            return None;
        }
        let best = &self.best;
        // Where each bin's run of the log lies.
        let mut runs = vec![0..0; self.phone_ids.len()];
        let mut start = 0;
        for run in best.log.chunk_by(|a, b| a.bin == b.bin) {
            if let Some(slot) = run.first().and_then(|p| runs.get_mut(p.bin)) {
                *slot = start..start + run.len();
            }
            start += run.len();
        }
        let mut cursor = vec![0u64; self.job_ids.len()];
        let per_phone = (runs.into_iter().zip(&self.phone_ids))
            .map(|(run, &phone)| {
                let placements = best.log.get(run).unwrap_or_default();
                (placements.iter())
                    .map(|p| {
                        let offset = cursor.get_mut(p.job).map_or(0, |at| {
                            *at += p.kb.0;
                            *at - p.kb.0
                        });
                        Assignment {
                            phone,
                            job: self.job_ids.get(p.job).copied().unwrap_or(JobId(u32::MAX)),
                            input_kb: p.kb,
                            offset_kb: KiloBytes(offset),
                        }
                    })
                    .collect()
            })
            .collect();
        let tallest = best.heights.iter().copied().fold(0.0f64, f64::max);
        Some(Schedule {
            per_phone,
            predicted_makespan_ms: tallest,
        })
    }

    fn reset(&mut self, capacity_ms: f64) {
        let probe = &mut self.probe;
        probe.items.clear();
        probe.items.extend_from_slice(&self.template);
        probe.head = 0;
        probe.opened.fill(false);
        probe.unopened = probe.opened.len();
        probe.shipped_to.fill(usize::MAX);
        probe.open_prefix.fill(0);
        probe.log.clear();
        probe.heights.fill(0.0);
        probe.capacity_ms = capacity_ms;
        probe.suspended = false;
        probe.next_check = self.certified_at;
        probe.work_at_reset = self.work.fill_visits + self.work.step2_candidates;
        probe.cert_spent = 0;
    }

    /// Logs a partition into bin `i`; the job's executable is on that
    /// phone from now on.
    fn commit(&mut self, i: usize, job: usize, take: KiloBytes) {
        debug_assert!(take.0 >= 1);
        if let Some(bin) = self.probe.shipped_to.get_mut(job) {
            *bin = i;
        }
        self.probe.log.push(Placement {
            bin: i,
            job,
            kb: take,
        });
    }

    /// Removes `take` KB from item `idx`; a remainder is reinserted at
    /// its sorted position (Algorithm 1 lines 8–12). Equivalent to the
    /// seed's full stable re-sort: the key strictly decreases, so the
    /// item can only move into the tail, before later equal-key items.
    /// A fully consumed item's gap is closed from the shorter side.
    /// Returns where the item that followed `idx` now sits.
    fn consume(&mut self, idx: usize, take: KiloBytes) -> usize {
        let probe = &mut self.probe;
        let Some(item) = probe.items.get(idx).copied() else {
            return idx;
        };
        if take >= item.remaining {
            if idx.saturating_sub(probe.head) < probe.items.len() - idx {
                if let Some(before) = probe.items.get_mut(probe.head..=idx) {
                    before.rotate_right(1);
                }
                probe.head += 1;
                return idx + 1;
            }
            probe.items.remove(idx);
            return idx;
        }
        let remaining = item.remaining - take;
        let rates = &self.key_rate;
        let rate_of = |j: usize| rates.get(j).copied().unwrap_or(0.0);
        let new_key = remaining.as_f64() * rate_of(item.job);
        let start = idx + 1;
        let shift = probe
            .items
            .get(start..)
            .map(|tail| {
                tail.partition_point(|it| it.remaining.as_f64() * rate_of(it.job) > new_key)
            })
            .unwrap_or(0);
        if let Some(it) = probe.items.get_mut(idx) {
            it.remaining = remaining;
        }
        if let Some(window) = probe.items.get_mut(idx..start + shift) {
            window.rotate_left(1);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::reference;
    use crate::problem::test_support::{costs, instance, phones};
    use cwc_types::JobSpec;

    /// Per-phone `(job, KB)` queues.
    type Queues = Vec<Vec<(u32, u64)>>;

    /// One probe of the seed packer and the same probe twice on one
    /// arena, which must agree each time (the second starts from the
    /// first's state); returns the per-phone `(job, KB)` queues.
    fn packed(problem: &SchedProblem, capacity_ms: f64) -> Option<Queues> {
        let want = reference::pack_queues(problem, capacity_ms);
        let tables = problem.tables();
        let mut scratch = PackScratch::new(problem, &tables);
        for probe in 0..2 {
            let got = scratch.pack(&tables, capacity_ms).then(|| {
                scratch.mark_success();
                assert!(scratch.finish(&tables), "a certified probe failed");
                scratch.best_schedule().map(|s| s.per_phone).unwrap()
            });
            assert_eq!(got, want, "probe {probe}");
        }
        let brief = |q: Vec<Assignment>| q.iter().map(|a| (a.job.0, a.input_kb.0)).collect();
        want.map(|queues| queues.into_iter().map(brief).collect())
    }

    /// [`packed`], and the counted work of one probe on a fresh arena.
    fn packed_with_work(problem: &SchedProblem, capacity_ms: f64) -> (Option<Queues>, PackWork) {
        let tables = problem.tables();
        let mut scratch = PackScratch::new(problem, &tables);
        if scratch.pack(&tables, capacity_ms) {
            scratch.mark_success();
            assert!(scratch.finish(&tables), "a certified probe failed");
        }
        (packed(problem, capacity_ms), scratch.work())
    }

    /// Phones whose link costs `b[i]` ms/KB and whose per-KB compute
    /// cost for job `j` is `c[i][j]`, with one job per entry of `jobs`.
    fn hand_built(b: &[f64], c: Vec<Vec<f64>>, jobs: Vec<JobSpec>) -> SchedProblem {
        let mut p = phones(b.len());
        for (phone, &b) in p.iter_mut().zip(b) {
            phone.bandwidth = cwc_types::MsPerKb(b);
        }
        SchedProblem::new(p, jobs, c.into()).unwrap()
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
        SchedProblem::new(p, jobs, c.into()).unwrap()
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
        let prob = SchedProblem::new(p, jobs, c.into()).unwrap();
        assert!(prob.per_kb_ms(0, 0) < prob.per_kb_ms(1, 0));
        let capacity = prob.full_cost_ms(1, 0) + 1.0;
        assert_eq!(packed(&prob, capacity), Some(vec![vec![], vec![(0, 300)]]));
        // Too tight for phone 1 as well: the scan finds nothing either.
        assert_eq!(packed(&prob, prob.full_cost_ms(1, 0) - 1.0), None);
    }

    #[test]
    fn step_two_breaks_cost_ties_to_the_lowest_unopened_phone() {
        // Twenty identical phones, as many identical atomic jobs, room
        // for one job a bin: every Step 2 sees the same cost on every
        // unopened phone.
        let mut p = phones(20);
        for phone in &mut p {
            phone.cpu = cwc_types::CpuSpec::new(806, 2);
            phone.bandwidth = cwc_types::MsPerKb(1.0);
        }
        let jobs: Vec<JobSpec> = (0..p.len() as u32)
            .map(|j| JobSpec::atomic(JobId(j), "photoblur", KiloBytes(40), KiloBytes(300)))
            .collect();
        let c = costs(&p, &jobs);
        let prob = SchedProblem::new(p, jobs, c.into()).unwrap();
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
    fn fill_takes_a_whole_item_only_where_the_seed_does() {
        // One phone; Step 2 places job 0 whole, and the fill meets job 1
        // at a room on, or one ulp either side of, job 1's whole cost:
        // the capacities at which the multiply-compare is inside its
        // margin and the seed's division decides between all of job 1
        // and one KB less.
        let mut short = 0;
        for b in [1.0, 3.7, 12.9, 33.3, 61.1] {
            for c in [0.7, 2.9, 9.81, 17.3] {
                for input in [97, 331, 1_009, 1_999] {
                    let second =
                        JobSpec::breakable(JobId(1), "primecount", KiloBytes(37), KiloBytes(input));
                    let prob =
                        hand_built(&[b], vec![vec![c, c]], vec![breakable(0, 2_500), second]);
                    let height = prob.full_cost_ms(0, 0) + prob.full_cost_ms(0, 1);
                    for capacity in [height.next_down(), height, height.next_up()] {
                        let queues = packed(&prob, capacity);
                        short += usize::from(queues.is_none());
                    }
                }
            }
        }
        // Some capacities leave job 1 one KB short: the band is reached.
        assert!(short > 0, "no capacity fell inside the margin band");
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

    #[test]
    fn rate_order_reaches_a_lower_index_phone_whose_cost_ties_the_cheapest() {
        // Phone 1 has the lower rate (10 against 11 ms/KB) and is walked
        // first, but its link makes the executable cost 120 ms against
        // phone 0's 20: both cost exactly 20·6 + 100·10 = 20·1 + 100·11
        // = 1 120 ms. The floor at phone 0 (20·b_min + 100·11) equals the
        // least cost, not above it, so the walk goes on and the lower
        // index wins the tie, as in the seed.
        let job = JobSpec::atomic(JobId(0), "photoblur", KiloBytes(20), KiloBytes(100));
        let prob = hand_built(&[1.0, 6.0], vec![vec![10.0], vec![4.0]], vec![job]);
        assert!(prob.per_kb_ms(1, 0) < prob.per_kb_ms(0, 0));
        assert_eq!(
            prob.full_cost_ms(0, 0).to_bits(),
            prob.full_cost_ms(1, 0).to_bits()
        );
        assert_eq!(packed(&prob, 2_000.0), Some(vec![vec![(0, 100)], vec![]]));
    }

    #[test]
    fn rate_order_does_not_stop_at_a_low_rate_phone_its_executable_makes_dear() {
        // Rates 51 < 52 < 53 < 201 ms/KB for a 40 KB executable and
        // 100 KB of input. Phone 0, the lowest rate, costs 20·40 + 5 100
        // = 5 900 ms; phone 1's 50 ms/KB link puts it at 7 200. A floor
        // that priced phone 1's executable at its own link would end the
        // walk there, but phone 2, one rate up with a 1 ms/KB link, costs
        // 5 340 and wins: the floor prices every executable at the
        // fleet's cheapest link (5 240 at phone 1). At phone 3 the floor
        // (20 140 ms) is above 5 340 and the walk ends.
        let job = JobSpec::atomic(JobId(0), "photoblur", KiloBytes(40), KiloBytes(100));
        let c = vec![vec![31.0], vec![2.0], vec![52.0], vec![200.0]];
        let prob = hand_built(&[20.0, 50.0, 1.0, 1.0], c, vec![job]);
        let cost = |i| prob.full_cost_ms(i, 0);
        assert!(cost(2) < cost(0) && cost(0) < cost(1) && cost(2) < cost(3));
        assert_eq!(
            packed(&prob, 10_000.0),
            Some(vec![vec![], vec![], vec![(0, 100)], vec![]])
        );
    }

    #[test]
    fn rate_order_skips_a_prefix_another_program_opened() {
        // Two programs, two columns, the same phone order by rate in
        // each (equal links, compute cost rising with the index). The
        // three large jobs of program 0 open phones 0–2, one to a bin;
        // the job of program 1 then finds its column's three cheapest
        // phones open and must take phone 3. Every probe of `packed`
        // starts the prefix over: a prefix carried from the last probe
        // would skip phones 0–2 while they are unopened.
        let big = |id| JobSpec::atomic(JobId(id), "primecount", KiloBytes(40), KiloBytes(300));
        let small = JobSpec::atomic(JobId(3), "photoblur", KiloBytes(40), KiloBytes(200));
        let jobs = vec![big(0), big(1), big(2), small];
        let c = (0..6)
            .map(|i| {
                let scale = 1.0 + 0.1 * f64::from(i);
                vec![10.0 * scale, 10.0 * scale, 10.0 * scale, 13.0 * scale]
            })
            .collect();
        let prob = hand_built(&[1.0; 6], c, jobs);
        assert_eq!(prob.tables().columns().count(), 2);
        // Room for any one job on any phone, never for two.
        let capacity = prob.full_cost_ms(5, 0) + 1.0;
        assert!(prob.full_cost_ms(0, 0) + prob.full_cost_ms(0, 3) > capacity);
        assert_eq!(
            packed(&prob, capacity),
            Some(vec![
                vec![(0, 300)],
                vec![(1, 300)],
                vec![(2, 300)],
                vec![(3, 200)],
                vec![],
                vec![],
            ])
        );
    }

    #[test]
    fn a_probe_certified_mid_pack_finishes_as_the_seed_packs() {
        // Six equal phones, 11 ms/KB and a 30 ms executable. Job 0 is too
        // large for one bin and is split over phones 0 and 1; from then
        // on every live item fits any unopened phone whole, and there are
        // more of those than items.
        let jobs = vec![
            breakable(0, 1_000),
            breakable(1, 100),
            breakable(2, 90),
            breakable(3, 80),
        ];
        let prob = hand_built(&[1.0; 6], vec![vec![10.0; 4]; 6], jobs);
        let (queues, work) = packed_with_work(&prob, 6_000.0);
        assert_eq!(
            queues,
            Some(vec![
                vec![(0, 542)],
                vec![(0, 458), (1, 82)],
                vec![(2, 90), (3, 80), (1, 18)],
                vec![],
                vec![],
                vec![],
            ])
        );
        // The check at the start fails (job 0 fits nowhere whole) and the
        // one after two bins passes; the probe is finished from there,
        // and the fill of phone 2 is visited only once it resumes.
        assert_eq!(work.early_stops, 1);
        assert!(work.cert_cells > 0);
    }

    #[test]
    fn one_spare_bin_too_few_never_certifies_a_probe_the_seed_fails() {
        // Three atomic jobs, room for one a bin on the two fast phones
        // and for none on the slow one: at every Step 2 the unopened
        // phones that could take any live item whole number one fewer
        // than the live items, and the seed fails at the third.
        let atomic = |id| JobSpec::atomic(JobId(id), "photoblur", KiloBytes(40), KiloBytes(300));
        let jobs = vec![atomic(0), atomic(1), atomic(2)];
        let c = vec![vec![10.0; 3], vec![10.0; 3], vec![30.0; 3]];
        let prob = hand_built(&[1.0; 3], c, jobs.clone());
        let (queues, work) = packed_with_work(&prob, 4_000.0);
        assert_eq!(queues, None);
        assert_eq!(work.early_stops, 0);
        assert!(work.cert_cells > 0, "the check never ran");
        // A third fast phone makes it three of three: the probe stops at
        // its first Step 2 and packs.
        let prob = hand_built(&[1.0; 4], vec![vec![10.0; 3]; 4], jobs);
        let (queues, work) = packed_with_work(&prob, 4_000.0);
        assert_eq!(
            queues,
            Some(vec![vec![(0, 300)], vec![(1, 300)], vec![(2, 300)], vec![]])
        );
        assert_eq!((work.early_stops, work.fill_visits), (1, 0));
    }

    #[test]
    fn a_bin_whose_ram_cannot_hold_the_largest_item_is_never_spare() {
        // Room for all 250 KB on either phone, RAM for 100: phone 0 takes
        // the job in three pieces, as the seed does.
        let prob = problem(2, Some(100), vec![breakable(0, 250)]);
        let (queues, work) = packed_with_work(&prob, 1.0e6);
        assert_eq!(
            queues,
            Some(vec![vec![(0, 100), (0, 100), (0, 50)], vec![]])
        );
        assert_eq!(work.early_stops, 0);
        assert!(work.cert_cells > 0, "the check never ran");
        // With RAM for the whole job, either phone is spare.
        let prob = problem(2, Some(250), vec![breakable(0, 250)]);
        let (queues, work) = packed_with_work(&prob, 1.0e6);
        assert_eq!(queues, Some(vec![vec![(0, 250)], vec![]]));
        assert_eq!(work.early_stops, 1);
        // Two cost columns: the head (the dearer column's 100 KB job 0)
        // fits every phone's RAM, the cheaper column's 300 KB atomic job
        // 1 fits none, and the seed fails. The RAM test must take the
        // largest remainder over every live column, not the head's.
        let atomic = JobSpec::atomic(JobId(1), "photoblur", KiloBytes(40), KiloBytes(300));
        let mut prob = hand_built(
            &[1.0; 3],
            vec![vec![30.0, 5.0]; 3],
            vec![breakable(0, 100), atomic],
        );
        for phone in &mut prob.phones {
            phone.ram_kb = 200;
        }
        let (queues, work) = packed_with_work(&prob, 1.0e6);
        assert_eq!(queues, None);
        assert_eq!(work.early_stops, 0);
    }

    #[test]
    fn rate_order_agrees_with_the_seed_across_a_search_window() {
        // Mixed atomic and breakable jobs on a fleet of alternating
        // phones, probed from the magical-bin bound up to the worst-bin
        // bound: tight probes that fail, loose ones that fill few bins,
        // and the splits and fallbacks between.
        for (num_phones, num_jobs) in [(9, 40), (24, 30)] {
            let prob = instance(num_phones, num_jobs);
            let tables = prob.tables();
            let (lb, ub) = (tables.lower_bound_ms(), tables.upper_bound_ms());
            let mut feasible = 0;
            for k in 0..=16 {
                let capacity = lb + (ub - lb) * f64::from(k) / 16.0;
                feasible += usize::from(packed(&prob, capacity).is_some());
            }
            assert!(
                feasible > 0 && feasible < 17,
                "{feasible} of 17 probes packed"
            );
        }
    }
}
