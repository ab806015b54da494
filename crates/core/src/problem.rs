//! The scheduling problem instance and the Eq. 1 cost model.

use crate::matrix::CostMatrix;
use cwc_types::{CwcError, CwcResult, JobSpec, KiloBytes, PhoneInfo};

/// A scheduling problem: the phones available this round, the jobs to
/// place, and the predicted per-KB execution costs.
///
/// Indices, not ids, are used internally: `phones[i]` and `jobs[j]` define
/// the meaning of `c[i][j]`.
///
/// No scheduler reads a job's `program` (`c`'s `column_of` decides its
/// costs) beyond raw rows' bit-checked grouping hint, so it may be empty,
/// as the coordinator kernel leaves it.
#[derive(Debug, Clone)]
pub struct SchedProblem {
    /// Phones available for this scheduling round.
    pub phones: Vec<PhoneInfo>,
    /// Jobs awaiting placement.
    pub jobs: Vec<JobSpec>,
    /// `c[i][j]`: predicted ms per KB for phone `i` executing job `j`.
    pub c: CostMatrix,
}

impl SchedProblem {
    /// Builds and validates a problem instance: the matrix must be
    /// `phones × jobs` with finite, positive costs, checked once per
    /// distinct column.
    pub fn new(phones: Vec<PhoneInfo>, jobs: Vec<JobSpec>, c: CostMatrix) -> CwcResult<Self> {
        let problem = SchedProblem { phones, jobs, c };
        problem.check()?;
        Ok(problem)
    }

    /// The checks [`SchedProblem::new`] makes, for an instance built field
    /// by field.
    pub fn check(&self) -> CwcResult<()> {
        if self.phones.is_empty() {
            return Err(CwcError::Config("no phones available".into()));
        }
        if self.jobs.is_empty() {
            return Err(CwcError::Config("no jobs to schedule".into()));
        }
        for p in &self.phones {
            p.validate()?;
        }
        if let Some(job) = self.jobs.iter().find(|j| j.input_kb.is_zero()) {
            let reason = "zero-size input".into();
            return Err(CwcError::InvalidJob {
                job: job.id,
                reason,
            });
        }
        self.check_dimensions()?;
        let columns = self.c.grouped(&self.jobs);
        if columns.values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(CwcError::Config(
                "cost matrix entries must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Whether `c` is still `phones × jobs`: the fields are public, so a
    /// job pushed or a matrix swapped after [`SchedProblem::new`] is
    /// caught here, before anything reads a cost that is not there.
    pub(crate) fn check_dimensions(&self) -> CwcResult<()> {
        if self.c.dims() != Some((self.phones.len(), self.jobs.len())) {
            return Err(CwcError::Config(format!(
                "cost matrix must be {}x{}",
                self.phones.len(),
                self.jobs.len()
            )));
        }
        Ok(())
    }

    /// Number of phones.
    pub fn num_phones(&self) -> usize {
        self.phones.len()
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Index of the slowest-clocked phone — the sort key owner in
    /// Algorithm 1 (`c_sj`).
    pub fn slowest_phone(&self) -> usize {
        self.phones
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.cpu.clock_mhz)
            .map(|(i, _)| i)
            .expect("validated: phones non-empty")
    }

    /// **Equation 1**: time (ms) for phone `i` to fetch and process `x` KB
    /// of job `j`, optionally paying the executable-shipping cost
    /// (`E_j · b_i`, paid once per phone–job pair).
    pub fn cost_ms(&self, i: usize, j: usize, x: KiloBytes, include_exe: bool) -> f64 {
        let b = self.phones[i].bandwidth.0;
        let exe = if include_exe {
            self.jobs[j].exe_kb.as_f64() * b
        } else {
            0.0
        };
        exe + x.as_f64() * (b + self.c.get(i, j))
    }

    /// Per-KB marginal cost (transfer + compute) of job `j` on phone `i`.
    pub fn per_kb_ms(&self, i: usize, j: usize) -> f64 {
        self.phones[i].bandwidth.0 + self.c.get(i, j)
    }

    /// Cost of running job `j` *entirely* on phone `i` (used when opening
    /// bins and for the worst-bin upper bound).
    pub fn full_cost_ms(&self, i: usize, j: usize) -> f64 {
        self.cost_ms(i, j, self.jobs[j].input_kb, true)
    }

    /// Largest partition of job `j` (in KB) that fits in `room_ms` on
    /// phone `i`, also respecting the phone's RAM cap.
    pub fn max_fit_kb(&self, i: usize, j: usize, room_ms: f64, include_exe: bool) -> KiloBytes {
        let b = self.phones[i].bandwidth.0;
        let exe = if include_exe {
            self.jobs[j].exe_kb.as_f64() * b
        } else {
            0.0
        };
        fit_kb(room_ms, exe, self.per_kb_ms(i, j), self.phones[i].ram_kb)
    }

    /// Builds the cost tables used by the packing hot path: one column
    /// of per-KB rates per distinct cost column of `c`, shared by every
    /// job that reads it.
    ///
    /// The grouping is `c`'s own ([`CostMatrix`]), so this is P × K
    /// work. The tables themselves are built per
    /// [`crate::GreedyScheduler::schedule`] call: they fold in the
    /// phones' links and the jobs' sizes, which are public fields a
    /// holder may rewrite after `new`.
    pub fn tables(&self) -> CostTables {
        CostTables::new(self)
    }
}

/// The inverse of Eq. 1 every `max_fit_kb` shares: the most KB whose
/// transfer + compute fits `room_ms` once `exe_ms` is paid (pass `0.0`
/// when the executable is already on the phone), capped by RAM.
#[inline]
pub(crate) fn fit_kb(room_ms: f64, exe_ms: f64, per_kb_ms: f64, ram_kb: u64) -> KiloBytes {
    let usable = room_ms - exe_ms;
    if usable <= 0.0 {
        return KiloBytes::ZERO;
    }
    let kb = (usable / per_kb_ms).floor();
    let kb = if kb < 0.0 { 0 } else { kb as u64 };
    KiloBytes(kb.min(ram_kb))
}

/// The Eq. 1 terms the packing inner loops touch, laid out the way each
/// loop walks them and built from `c` once per `schedule()` call.
///
/// * `per_kb = b_i + c[i][j]` is stored **column-major**
///   ([`CostTables::col`]): "which bin for this item" reads one job
///   across all phones, contiguously. It is stored once per **distinct
///   cost column** of `c` ([`CostMatrix`]), not once per job: `c_ij` is
///   profiled per program and clock-scaled per phone (§4.1), so the jobs
///   of one program share their column, and a batch of any size holds a
///   few columns of P rates each.
/// * Each column's phones are also kept sorted by rate, ties by index
///   (`CostTables::rate_order`): Step 2 walks that order, and the
///   worst-bin bound reads it backwards.
/// * Filling a freshly opened bin walks the live items against that one
///   phone, and reads the same columns ([`CostTables::per_kb_ms`]): one
///   phone's rates are a cache line per column.
/// * The executable cost is not a table either: `E_j · b_i` is one
///   multiply of two vector entries, computed where it is needed.
/// * The same build yields each phone's cheapest rate
///   ([`CostTables::row_min_ms`]), and separately its cheapest over the
///   columns breakable jobs read and over those atomic jobs read, which
///   with each kind's least executable and least atomic input give the
///   fill its exit (`CostTables::fill_floor_ms`).
/// * The capacity search's two starting bounds come from the same
///   build. Each job's worst bin is found among its column's
///   **skyline**: the phones that no other phone matches or beats on
///   both link and rate. Every other phone is dominated, so its Eq. 1
///   cost cannot exceed its dominator's.
///
/// Every value is produced by *exactly* the same floating-point
/// operations as the corresponding [`SchedProblem`] method
/// (`per_kb = b_i + c[i][j]`, `exe = E_j · b_i`), and two jobs share a
/// column only when their costs agree bit for bit in every row, so a
/// search driven by these tables is bit-for-bit identical to one driven
/// by the methods.
#[derive(Debug, Clone)]
pub struct CostTables {
    num_phones: usize,
    /// `column_of[j]`: which distinct cost column job `j` reads.
    column_of: Vec<usize>,
    /// `by_column[k · num_phones + i] = b_i + c[i][j]` for every job `j`
    /// with `column_of[j] == k` (ms per KB).
    by_column: Vec<f64>,
    /// `by_rate[k · num_phones ..][..num_phones]`: column `k`'s
    /// `(per_kb, phone)` pairs by increasing rate, ties by index.
    by_rate: Vec<(f64, usize)>,
    /// `skyline[skyline_of[k]]`: column `k`'s skyline as `(b_i, per_kb)`.
    skyline: Vec<(f64, f64)>,
    skyline_of: Vec<std::ops::Range<usize>>,
    /// `b_i`, ms per KB.
    bandwidth: Vec<f64>,
    /// `min_i b_i`.
    least_bandwidth: f64,
    /// `E_j`, KB.
    exe_kb: Vec<f64>,
    /// Per-phone RAM cap, KB.
    ram_kb: Vec<u64>,
    /// `row_min[i] = min_j per_kb(i, j)`: phone `i`'s best rate, the
    /// magical-bin lower bound's.
    row_min: Vec<f64>,
    /// The fill's floors for breakable and for atomic jobs; `None` when
    /// the batch has no job of that kind.
    breakable: Option<KindFloor>,
    atomic: Option<KindFloor>,
    upper_bound_ms: f64,
    /// Cost cells read to find every job's worst bin.
    bound_cells: u64,
    lower_bound_ms: f64,
}

/// One kind of job (breakable or atomic) as the fill's exit sees it.
#[derive(Debug, Clone)]
struct KindFloor {
    /// Per phone, its cheapest rate over the columns jobs of this kind
    /// read.
    row_min: Vec<f64>,
    /// The kind's least executable, KB.
    exe_kb: f64,
    /// The kind's least input, KB.
    input_kb: f64,
}

impl CostTables {
    fn new(problem: &SchedProblem) -> CostTables {
        let num_phones = problem.num_phones();
        let bandwidth: Vec<f64> = problem.phones.iter().map(|p| p.bandwidth.0).collect();
        let exe_kb: Vec<f64> = problem.jobs.iter().map(|j| j.exe_kb.as_f64()).collect();
        let input_kb: Vec<f64> = problem.jobs.iter().map(|j| j.input_kb.as_f64()).collect();
        let columns = problem.c.grouped(&problem.jobs);
        let column_of = columns.column_of.clone();
        // `c` is column-major already: each rate is written once, in the
        // order it is read.
        let mut by_column = Vec::with_capacity(columns.values.len());
        for column in columns.values.chunks_exact(num_phones.max(1)) {
            by_column.extend(column.iter().zip(&bandwidth).map(|(&cost, &b)| b + cost));
        }
        let rate_columns = || by_column.chunks_exact(num_phones.max(1));

        // Per kind, which columns its jobs read and its least
        // executable and input; then each phone's cheapest rate over
        // those columns.
        let mut reads = vec![[false; 2]; columns.values.len() / num_phones.max(1)];
        let mut least: [Option<(f64, f64)>; 2] = [None; 2];
        for ((&k, spec), (&exe, &input)) in
            (column_of.iter().zip(&problem.jobs)).zip(exe_kb.iter().zip(&input_kb))
        {
            let kind = usize::from(spec.kind.is_atomic());
            reads[k][kind] = true;
            least[kind] =
                Some(least[kind].map_or((exe, input), |(e, l)| (e.min(exe), l.min(input))));
        }
        let floor = |kind: usize| {
            let (exe_kb, input_kb) = least[kind]?;
            let mut row_min = vec![f64::INFINITY; num_phones];
            for (column, _) in rate_columns().zip(&reads).filter(|(_, r)| r[kind]) {
                for (lowest, &rate) in row_min.iter_mut().zip(column) {
                    *lowest = if rate < *lowest { rate } else { *lowest };
                }
            }
            Some(KindFloor {
                row_min,
                exe_kb,
                input_kb,
            })
        };
        let (breakable, atomic) = (floor(0), floor(1));
        // Every column is some job's, so a phone's cheapest rate is the
        // lesser of its two kinds' cheapest.
        let kind_min =
            |f: &Option<KindFloor>, i: usize| f.as_ref().map_or(f64::INFINITY, |f| f.row_min[i]);
        let row_min: Vec<f64> = (0..num_phones)
            .map(|i| {
                let (b, a) = (kind_min(&breakable, i), kind_min(&atomic, i));
                if a < b {
                    a
                } else {
                    b
                }
            })
            .collect();

        let mut by_rate: Vec<(f64, usize)> = Vec::with_capacity(by_column.len());
        for column in rate_columns() {
            let start = by_rate.len();
            by_rate.extend(column.iter().copied().zip(0..));
            by_rate[start..].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }

        // Each column's skyline, as `(b_i, per_kb_i)`: walked by
        // decreasing rate, a phone is kept when its link is slower than
        // every phone walked before it. A phone not kept has one walked
        // before it with a rate and a link at least as high; `E_j` and
        // `L_j` are ≥ 0 and IEEE products and sums round monotonically,
        // so its `E_j · b_i + L_j · per_kb_i` is no higher to the bit,
        // and the maximum over the skyline is the maximum over all P.
        let mut skyline: Vec<(f64, f64)> = Vec::new();
        let mut skyline_of = Vec::new();
        for order in by_rate.chunks_exact(num_phones.max(1)) {
            let start = skyline.len();
            let mut slowest = f64::NEG_INFINITY;
            for &(rate, i) in order.iter().rev() {
                let b = bandwidth[i];
                if b > slowest {
                    slowest = b;
                    skyline.push((b, rate));
                }
            }
            skyline_of.push(start..skyline.len());
        }
        // Worst-bin upper bound: every job in its individually worst bin
        // (`max_i full_cost_ms(i, j)`, over its column's skyline), summed
        // in job order.
        let worst_bins =
            (column_of.iter().zip(&exe_kb).zip(&input_kb)).map(|((&k, &exe), &input)| {
                skyline[skyline_of[k].clone()]
                    .iter()
                    .fold(0.0, |worst, &(b, rate)| {
                        let cost = exe * b + input * rate;
                        if cost > worst {
                            cost
                        } else {
                            worst
                        }
                    })
            });
        let upper_bound_ms = worst_bins.sum();
        let bound_cells = column_of.iter().map(|&k| skyline_of[k].len() as u64).sum();
        // Magical-bin lower bound: one bin with the fleet's aggregate
        // best-case rate, no executable costs. Division is monotone, so
        // a phone's best `1 / per_kb` is `1 / row_min` to the bit.
        let aggregate_rate: f64 = row_min.iter().map(|m| 1.0 / m).sum();
        let total_kb: f64 = input_kb.iter().sum();
        let lower_bound_ms = if aggregate_rate <= 0.0 {
            0.0
        } else {
            total_kb / aggregate_rate
        };
        CostTables {
            num_phones,
            column_of,
            by_column,
            by_rate,
            skyline,
            skyline_of,
            least_bandwidth: bandwidth.iter().copied().fold(f64::INFINITY, f64::min),
            bandwidth,
            exe_kb,
            ram_kb: problem.phones.iter().map(|p| p.ram_kb).collect(),
            row_min,
            breakable,
            atomic,
            upper_bound_ms,
            bound_cells,
            lower_bound_ms,
        }
    }

    /// Job `j`'s per-KB rates, one per phone.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        let k = self.column_of[j];
        &self.by_column[k * self.num_phones..(k + 1) * self.num_phones]
    }

    /// Which distinct cost column job `j` reads: an index into
    /// [`CostTables::columns`].
    #[inline]
    pub(crate) fn column_index(&self, j: usize) -> usize {
        self.column_of[j]
    }

    /// Every distinct cost column, P rates each.
    pub(crate) fn columns(&self) -> impl Iterator<Item = &[f64]> {
        self.by_column.chunks_exact(self.num_phones.max(1))
    }

    /// Column `k`'s phones as `(per_kb, phone)`, by increasing rate,
    /// ties by index.
    #[inline]
    pub(crate) fn rate_order(&self, k: usize) -> &[(f64, usize)] {
        let p = self.num_phones;
        self.by_rate.get(k * p..(k + 1) * p).unwrap_or_default()
    }

    /// Column `k`'s skyline as `(b_i, per_kb)` pairs: the phones that no
    /// other phone matches or beats on both link and rate, among which
    /// lies the costliest phone of `E · b_i + L · per_kb` for any
    /// `E, L ≥ 0`.
    #[inline]
    pub(crate) fn skyline(&self, k: usize) -> &[(f64, f64)] {
        (self.skyline_of.get(k))
            .map_or(&[], |run| self.skyline.get(run.clone()).unwrap_or_default())
    }

    /// The fleet's cheapest link, `min_i b_i`, ms per KB.
    #[inline]
    pub(crate) fn least_bandwidth(&self) -> f64 {
        self.least_bandwidth
    }

    /// A floor under the Eq. 1 cost `exe + n · per_kb` of the least
    /// placement any live item can make in bin `i`: `n` is 1 KB of a
    /// breakable item and all of an atomic one (atomic items are never
    /// split, so no live one has its executable on the bin yet). Each
    /// kind's floor prices its least executable on phone `i` and its
    /// cheapest column there, and the atomic one its least input too.
    /// `split` says a breakable job was split in this bin already: its
    /// live remainder then has its executable there, so the breakable
    /// floor drops its executable term. `+∞` for a batch with no job of
    /// either kind. Products and sums of non-negative values round
    /// monotonically, so no live item's cost is below this floor.
    pub(crate) fn fill_floor_ms(&self, i: usize, split: bool) -> f64 {
        let b = self.bandwidth[i];
        let breakable = self.breakable.as_ref().map_or(f64::INFINITY, |f| {
            if split {
                f.row_min[i]
            } else {
                f.exe_kb * b + f.row_min[i]
            }
        });
        let atomic = (self.atomic.as_ref())
            .map_or(f64::INFINITY, |f| f.exe_kb * b + f.input_kb * f.row_min[i]);
        if atomic < breakable {
            atomic
        } else {
            breakable
        }
    }

    /// How many rates the tables hold: P per distinct cost column.
    #[cfg(test)]
    pub(crate) fn num_rates(&self) -> usize {
        self.by_column.len()
    }

    /// `b_i` for every phone, ms per KB.
    #[inline]
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidth
    }

    /// `E_j` for every job, KB.
    #[inline]
    pub fn exe_kbs(&self) -> &[f64] {
        &self.exe_kb
    }

    /// RAM ceiling of every phone, KB.
    #[inline]
    pub fn ram_caps(&self) -> &[u64] {
        &self.ram_kb
    }

    /// Eq. 1 over the tables; identical arithmetic to
    /// [`SchedProblem::cost_ms`].
    #[inline]
    pub fn cost_ms(&self, i: usize, j: usize, x: KiloBytes, include_exe: bool) -> f64 {
        let exe = if include_exe { self.exe_ms(i, j) } else { 0.0 };
        exe + x.as_f64() * self.per_kb_ms(i, j)
    }

    /// Per-KB marginal cost; identical to [`SchedProblem::per_kb_ms`].
    #[inline]
    pub fn per_kb_ms(&self, i: usize, j: usize) -> f64 {
        self.by_column[self.column_of[j] * self.num_phones + i]
    }

    /// Execution-transfer overhead `E_j · b_i`, ms.
    #[inline]
    pub fn exe_ms(&self, i: usize, j: usize) -> f64 {
        self.exe_kb[j] * self.bandwidth[i]
    }

    /// Largest fitting partition; identical arithmetic to
    /// [`SchedProblem::max_fit_kb`].
    #[inline]
    pub fn max_fit_kb(&self, i: usize, j: usize, room_ms: f64, include_exe: bool) -> KiloBytes {
        let exe = if include_exe { self.exe_ms(i, j) } else { 0.0 };
        fit_kb(room_ms, exe, self.per_kb_ms(i, j), self.ram_kb[i])
    }

    /// Cheapest per-KB rate of any job on phone `i`.
    #[inline]
    pub fn row_min_ms(&self, i: usize) -> f64 {
        self.row_min[i]
    }

    /// Upper bound on the makespan: every job placed whole in its
    /// individually worst bin, summed in job order.
    #[inline]
    pub fn upper_bound_ms(&self) -> f64 {
        self.upper_bound_ms
    }

    /// Cost cells the worst-bin upper bound read.
    #[inline]
    pub(crate) fn bound_cells(&self) -> u64 {
        self.bound_cells
    }

    /// Loose lower bound: one magical bin with the aggregate bandwidth
    /// and processing rate of the whole fleet, no executable costs.
    #[inline]
    pub fn lower_bound_ms(&self) -> f64 {
        self.lower_bound_ms
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared instance builders for the scheduler tests.

    use super::*;
    use cwc_types::{CpuSpec, JobId, MsPerKb, PhoneId, RadioTech};

    /// `n` phones alternating fast/slow CPU and link.
    pub fn phones(n: usize) -> Vec<PhoneInfo> {
        (0..n)
            .map(|i| {
                let clock = if i % 2 == 0 { 806 } else { 1400 };
                let b = 1.0 + 7.0 * (i % 3) as f64;
                PhoneInfo::new(
                    PhoneId::from_index(i),
                    CpuSpec::new(clock, 2),
                    RadioTech::Wifi80211g,
                    MsPerKb(b),
                )
            })
            .collect()
    }

    /// `n` jobs alternating breakable/atomic with varied sizes.
    pub fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|j| {
                let id = JobId::from_index(j);
                let size = KiloBytes(200 + 150 * (j as u64 % 5));
                if j % 3 == 2 {
                    JobSpec::atomic(id, "photoblur", KiloBytes(40), size)
                } else {
                    JobSpec::breakable(id, "primecount", KiloBytes(30), size)
                }
            })
            .collect()
    }

    /// Clock-scaled cost matrix with baseline 10 ms/KB at 806 MHz.
    pub fn costs(phones: &[PhoneInfo], jobs: &[JobSpec]) -> Vec<Vec<f64>> {
        phones
            .iter()
            .map(|p| {
                jobs.iter()
                    .map(|_| 10.0 * 806.0 / f64::from(p.cpu.clock_mhz))
                    .collect()
            })
            .collect()
    }

    /// A ready-made medium instance.
    pub fn instance(num_phones: usize, num_jobs: usize) -> SchedProblem {
        let p = phones(num_phones);
        let j = jobs(num_jobs);
        let c = costs(&p, &j);
        SchedProblem::new(p, j, c.into()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use cwc_types::{CpuSpec, JobId, MsPerKb, PhoneId, RadioTech};

    #[test]
    fn eq1_matches_hand_computation() {
        let prob = instance(2, 2);
        // phone 0: b = 1.0, c = 10.0; job 0: exe 30 KB.
        let cost = prob.cost_ms(0, 0, KiloBytes(100), true);
        // 30·1 + 100·(1 + 10) = 30 + 1100 = 1130.
        assert!((cost - 1130.0).abs() < 1e-9, "cost {cost}");
        // Without exe: 1100.
        assert!((prob.cost_ms(0, 0, KiloBytes(100), false) - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn slowest_phone_is_lowest_clock() {
        let prob = instance(4, 2);
        let s = prob.slowest_phone();
        assert_eq!(prob.phones[s].cpu.clock_mhz, 806);
    }

    #[test]
    fn max_fit_inverts_cost() {
        let prob = instance(2, 2);
        let room = prob.cost_ms(0, 0, KiloBytes(100), true);
        let fit = prob.max_fit_kb(0, 0, room, true);
        assert_eq!(fit, KiloBytes(100));
        // A hair less room fits one KB less.
        let fit2 = prob.max_fit_kb(0, 0, room - 0.001, true);
        assert_eq!(fit2, KiloBytes(99));
    }

    #[test]
    fn max_fit_respects_ram_cap() {
        let mut p = phones(1);
        p[0].ram_kb = 50;
        let j = jobs(1);
        let c = costs(&p, &j);
        let prob = SchedProblem::new(p, j, c.into()).unwrap();
        let fit = prob.max_fit_kb(0, 0, 1e9, true);
        assert_eq!(fit, KiloBytes(50));
    }

    #[test]
    fn max_fit_zero_when_exe_does_not_fit() {
        let prob = instance(1, 1);
        // Exe alone costs 30·1 = 30 ms; give less room.
        assert_eq!(prob.max_fit_kb(0, 0, 10.0, true), KiloBytes::ZERO);
    }

    /// A non-square instance whose costs vary from cell to cell, so a
    /// transposed or shifted index cannot go unnoticed. The pattern
    /// repeats every 11 jobs: jobs 22 and 33 run job 0's program and
    /// share its cost column, job 35 shares job 2's, and every other job
    /// has one of its own.
    fn varied(num_phones: usize, num_jobs: usize) -> SchedProblem {
        let p = phones(num_phones);
        let j = jobs(num_jobs);
        let c = (0..num_phones)
            .map(|i| {
                (0..num_jobs)
                    .map(|j| 3.0 + 0.37 * ((i * 7 + j * 13) % 11) as f64 + 0.01 * i as f64)
                    .collect()
            })
            .collect();
        SchedProblem::new(p, j, c).unwrap()
    }

    /// Costs clock-scaled per program, as `RuntimePredictor` resolves
    /// them: `jobs()` alternates two programs, and each gets its own
    /// baseline, so the instance has exactly two cost columns.
    fn two_programs(num_phones: usize, num_jobs: usize) -> SchedProblem {
        let p = phones(num_phones);
        let j = jobs(num_jobs);
        let c = p
            .iter()
            .map(|phone| {
                let scale = 806.0 / f64::from(phone.cpu.clock_mhz);
                let baseline = |job: &JobSpec| {
                    if job.program == "photoblur" {
                        13.0
                    } else {
                        10.0
                    }
                };
                j.iter().map(|job| baseline(job) * scale).collect()
            })
            .collect();
        SchedProblem::new(p, j, c).unwrap()
    }

    /// `prob` rebuilt from its rows with cell `(i, j)` one ulp up.
    fn with_cell_nudged(prob: SchedProblem, i: usize, j: usize) -> SchedProblem {
        let mut c: Vec<Vec<f64>> = (0..prob.num_phones()).map(|i| prob.c[i].to_vec()).collect();
        c[i][j] = c[i][j].next_up();
        SchedProblem::new(prob.phones, prob.jobs, c.into()).unwrap()
    }

    /// Every table cell, through both accessors, against
    /// [`SchedProblem::per_kb_ms`].
    fn assert_columns_match_the_problem(prob: &SchedProblem, tables: &CostTables) {
        for j in 0..prob.num_jobs() {
            assert_eq!(tables.col(j).len(), prob.num_phones());
            assert!(tables.column_index(j) < tables.columns().count());
            for i in 0..prob.num_phones() {
                let want = prob.per_kb_ms(i, j).to_bits();
                assert_eq!(tables.col(j)[i].to_bits(), want, "column cell ({i}, {j})");
                assert_eq!(tables.per_kb_ms(i, j).to_bits(), want, "cell ({i}, {j})");
            }
        }
    }

    #[test]
    fn a_job_differing_in_one_cell_of_the_last_row_gets_its_own_column() {
        let prob = two_programs(4, 7);
        // Job 4 runs job 0's program; one ulp apart on the last phone.
        let last = prob.num_phones() - 1;
        let prob = with_cell_nudged(prob, last, 4);
        let tables = prob.tables();
        assert_eq!(tables.num_rates(), 3 * prob.num_phones());
        assert_columns_match_the_problem(&prob, &tables);
        assert_ne!(tables.col(4), tables.col(0));
        assert_eq!(tables.col(4)[..last], tables.col(0)[..last]);
        // Jobs of one program share, the other program has its own.
        assert_eq!(tables.col(3).as_ptr(), tables.col(0).as_ptr());
        assert_eq!(tables.col(5).as_ptr(), tables.col(2).as_ptr());
        assert_ne!(tables.col(2).as_ptr(), tables.col(0).as_ptr());
    }

    #[test]
    fn one_program_holds_exactly_one_rate_per_phone() {
        let p = phones(6);
        let j: Vec<JobSpec> = (0..9)
            .map(|k| JobSpec::breakable(JobId(k), "primecount", KiloBytes(30), KiloBytes(200)))
            .collect();
        let c = costs(&p, &j);
        let prob = SchedProblem::new(p, j, c.into()).unwrap();
        let tables = prob.tables();
        assert_eq!(tables.num_rates(), prob.num_phones());
        assert_columns_match_the_problem(&prob, &tables);
    }

    #[test]
    fn row_and_column_views_agree_cell_for_cell() {
        // 34 distinct columns; 150 phones leave a remainder past the
        // 8-phone lanes.
        let prob = varied(150, 37);
        let tables = prob.tables();
        assert_eq!(tables.num_rates(), 34 * prob.num_phones());
        assert_columns_match_the_problem(&prob, &tables);
        // Step 2's view: each distinct column, indexed by its jobs.
        let columns: Vec<&[f64]> = tables.columns().collect();
        assert_eq!(columns.len(), 34);
        for j in 0..prob.num_jobs() {
            assert_eq!(columns[tables.column_index(j)], tables.col(j));
        }
        // The fill's view: one phone, every job.
        for i in 0..prob.num_phones() {
            let row: Vec<f64> = (0..prob.num_jobs())
                .map(|j| tables.per_kb_ms(i, j))
                .collect();
            let row_min = row.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(tables.row_min_ms(i).to_bits(), row_min.to_bits());
        }
    }

    #[test]
    fn table_arithmetic_matches_the_problem_methods_to_the_bit() {
        let prob = varied(5, 9);
        let tables = prob.tables();
        for i in 0..prob.num_phones() {
            for j in 0..prob.num_jobs() {
                // The executable term alone: Eq. 1 at zero input.
                let exe = prob.cost_ms(i, j, KiloBytes::ZERO, true);
                assert_eq!(tables.exe_ms(i, j).to_bits(), exe.to_bits());
                for exe_too in [false, true] {
                    let x = KiloBytes(123);
                    assert_eq!(
                        tables.cost_ms(i, j, x, exe_too).to_bits(),
                        prob.cost_ms(i, j, x, exe_too).to_bits()
                    );
                    assert_eq!(
                        tables.max_fit_kb(i, j, 4_321.0, exe_too),
                        prob.max_fit_kb(i, j, 4_321.0, exe_too)
                    );
                }
            }
        }
    }

    #[test]
    fn fused_bounds_equal_the_oracle_functions_to_the_bit() {
        use crate::greedy::reference::{magical_bin_lower_bound, worst_bin_upper_bound};
        let mut ram_capped = varied(37, 21);
        for p in &mut ram_capped.phones {
            p.ram_kb = 120;
        }
        // Instances whose jobs share columns: two programs with their
        // own baselines on 13 phones (off the 8-phone lanes), the same
        // with job 7 split off by one cell of the last row, and two
        // programs with equal costs.
        let split_off = with_cell_nudged(two_programs(13, 24), 12, 7);
        let shared = [two_programs(13, 24), split_off, instance(9, 40)];
        for prob in [varied(150, 37), ram_capped, varied(1, 30)]
            .into_iter()
            .chain(shared)
        {
            let tables = prob.tables();
            assert_eq!(
                tables.upper_bound_ms().to_bits(),
                worst_bin_upper_bound(&prob).to_bits()
            );
            assert_eq!(
                tables.lower_bound_ms().to_bits(),
                magical_bin_lower_bound(&prob).to_bits()
            );
        }
    }

    #[test]
    fn validation_rejects_bad_instances() {
        assert!(SchedProblem::new(vec![], jobs(1), vec![].into()).is_err());
        assert!(SchedProblem::new(phones(1), vec![], vec![vec![]].into()).is_err());
        // Wrong matrix shape.
        assert!(SchedProblem::new(phones(2), jobs(2), vec![vec![1.0, 1.0]].into()).is_err());
        // Non-positive cost.
        assert!(SchedProblem::new(phones(1), jobs(1), vec![vec![0.0]].into()).is_err());
        // Invalid phone bandwidth.
        let bad_phone = PhoneInfo::new(
            PhoneId(0),
            CpuSpec::new(1000, 1),
            RadioTech::Edge,
            MsPerKb(f64::INFINITY),
        );
        assert!(SchedProblem::new(vec![bad_phone], jobs(1), vec![vec![1.0]].into()).is_err());
        // Invalid job.
        let bad_job = JobSpec::breakable(JobId(0), "x", KiloBytes(1), KiloBytes::ZERO);
        assert!(SchedProblem::new(phones(1), vec![bad_job], vec![vec![1.0]].into()).is_err());
    }
}
