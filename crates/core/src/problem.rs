//! The scheduling problem instance and the Eq. 1 cost model.

use cwc_types::{CwcError, CwcResult, JobSpec, KiloBytes, PhoneInfo};

/// A scheduling problem: the phones available this round, the jobs to
/// place, and the predicted per-KB execution costs.
///
/// Indices, not ids, are used internally: `phones[i]` and `jobs[j]` define
/// the meaning of `c[i][j]`.
#[derive(Debug, Clone)]
pub struct SchedProblem {
    /// Phones available for this scheduling round.
    pub phones: Vec<PhoneInfo>,
    /// Jobs awaiting placement.
    pub jobs: Vec<JobSpec>,
    /// `c[i][j]`: predicted ms per KB for phone `i` executing job `j`.
    pub c: Vec<Vec<f64>>,
}

impl SchedProblem {
    /// Builds and validates a problem instance.
    pub fn new(phones: Vec<PhoneInfo>, jobs: Vec<JobSpec>, c: Vec<Vec<f64>>) -> CwcResult<Self> {
        if phones.is_empty() {
            return Err(CwcError::Config("no phones available".into()));
        }
        if jobs.is_empty() {
            return Err(CwcError::Config("no jobs to schedule".into()));
        }
        for p in &phones {
            p.validate()?;
        }
        for j in &jobs {
            j.validate()?;
        }
        if c.len() != phones.len() || c.iter().any(|row| row.len() != jobs.len()) {
            return Err(CwcError::Config(format!(
                "cost matrix must be {}x{}",
                phones.len(),
                jobs.len()
            )));
        }
        for row in &c {
            if row.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                return Err(CwcError::Config(
                    "cost matrix entries must be positive".into(),
                ));
            }
        }
        Ok(SchedProblem { phones, jobs, c })
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
        exe + x.as_f64() * (b + self.c[i][j])
    }

    /// Per-KB marginal cost (transfer + compute) of job `j` on phone `i`.
    pub fn per_kb_ms(&self, i: usize, j: usize) -> f64 {
        self.phones[i].bandwidth.0 + self.c[i][j]
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

    /// Builds the per-(phone, job) cost tables used by the packing hot
    /// path.
    ///
    /// The tables are rebuilt per [`crate::GreedyScheduler::schedule`]
    /// call rather than cached at construction because the problem's
    /// fields are public and callers (tests, the §3.1 derisk transform)
    /// mutate them after `new`.
    pub fn tables(&self) -> CostTables<'_> {
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

/// Jobs per tile of [`CostTables::new`]'s transposing pass. A tile is 16
/// whole columns of the job-major table (128 KB at 1 000 phones, resident
/// in L2 while every phone's 16 costs — two cache lines of its row of
/// `c` — are scattered into it), appended to the table in one copy.
/// Wider tiles measured slower (32: +5 %, 64: +15 %), narrower the same.
const TILE_JOBS: usize = 16;

/// The Eq. 1 terms the packing inner loops touch, laid out the way each
/// loop walks them and built in one pass over `c` per `schedule()` call.
///
/// * `per_kb = b_i + c[i][j]` is stored **job-major**
///   ([`CostTables::col`]): "which bin for this item" reads one job
///   across all phones, contiguously, where `c` itself would stride a
///   whole row per phone.
/// * The phone-major view ([`CostTables::compute_row`] — filling a
///   freshly opened bin walks the live items against that one phone) is
///   **not** a second table: `c[i]` already is phone `i`'s row, and
///   `b_i + c[i][j]` is one add on the spot.
/// * The executable cost is not a table either: `E_j · b_i` is one
///   multiply of two vector entries, computed where it is needed.
/// * The same pass yields each phone's cheapest rate
///   ([`CostTables::row_min_ms`]) and the capacity search's two starting
///   bounds, so nothing walks the P × J cells a second time.
///
/// Every value is produced by *exactly* the same floating-point
/// operations as the corresponding [`SchedProblem`] method
/// (`per_kb = b_i + c[i][j]`, `exe = E_j · b_i`), so a search driven by
/// these tables is bit-for-bit identical to one driven by the methods.
#[derive(Debug, Clone)]
pub struct CostTables<'a> {
    num_phones: usize,
    /// The problem's `c`, one row per phone (ms per KB, compute only).
    c: &'a [Vec<f64>],
    /// `by_job[j · num_phones + i] = b_i + c[i][j]` (ms per KB).
    by_job: Vec<f64>,
    /// `b_i`, ms per KB.
    bandwidth: Vec<f64>,
    /// `E_j`, KB.
    exe_kb: Vec<f64>,
    /// Per-phone RAM cap, KB.
    ram_kb: Vec<u64>,
    /// `row_min[i] = min_j per_kb(i, j)`: below this much room (ms) not
    /// one more KB of any job fits phone `i`.
    row_min: Vec<f64>,
    upper_bound_ms: f64,
    lower_bound_ms: f64,
}

impl<'a> CostTables<'a> {
    fn new(problem: &'a SchedProblem) -> CostTables<'a> {
        let num_phones = problem.num_phones();
        let num_jobs = problem.num_jobs();
        let bandwidth: Vec<f64> = problem.phones.iter().map(|p| p.bandwidth.0).collect();
        let exe_kb: Vec<f64> = problem.jobs.iter().map(|j| j.exe_kb.as_f64()).collect();
        let input_kb: Vec<f64> = problem.jobs.iter().map(|j| j.input_kb.as_f64()).collect();
        let mut by_job = Vec::with_capacity(num_phones * num_jobs);
        let mut row_min = vec![f64::INFINITY; num_phones];
        // `full_max[j] = max_i full_cost_ms(i, j)`: job j in its worst bin.
        let mut full_max = vec![0.0f64; num_jobs];
        // One tile of the job-major table: `tile[k · P + i]` is job
        // `j0 + k` on phone `i`. The table is appended to tile by tile,
        // so its 8 B × P × J are written exactly once — never zeroed
        // first — and the only buffer written at a stride is this one,
        // which is reused for every tile and stays in cache.
        let mut tile = vec![0.0f64; TILE_JOBS * num_phones];
        let mut rates = [0.0f64; TILE_JOBS];
        for j0 in (0..num_jobs).step_by(TILE_JOBS) {
            let j1 = (j0 + TILE_JOBS).min(num_jobs);
            for (i, (row, &b)) in problem.c.iter().zip(&bandwidth).enumerate() {
                // Straight-line arithmetic over the tile's jobs (no
                // index that could panic, so it vectorises) ...
                let mut lowest = row_min[i];
                let cells = row[j0..j1]
                    .iter()
                    .zip(&exe_kb[j0..j1])
                    .zip(&input_kb[j0..j1])
                    .zip(&mut full_max[j0..j1])
                    .zip(&mut rates);
                for ((((&c, &exe), &input), worst), cell) in cells {
                    let rate = b + c;
                    *cell = rate;
                    lowest = if rate < lowest { rate } else { lowest };
                    let full = exe * b + input * rate;
                    *worst = if full > *worst { full } else { *worst };
                }
                row_min[i] = lowest;
                // ... and the scatter into the tile's columns.
                for (column, &rate) in tile.chunks_exact_mut(num_phones).zip(&rates) {
                    column[i] = rate;
                }
            }
            by_job.extend_from_slice(&tile[..(j1 - j0) * num_phones]);
        }
        // Worst-bin upper bound: every job in its individually worst bin.
        let upper_bound_ms = full_max.iter().sum();
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
            c: &problem.c,
            by_job,
            bandwidth,
            exe_kb,
            ram_kb: problem.phones.iter().map(|p| p.ram_kb).collect(),
            row_min,
            upper_bound_ms,
            lower_bound_ms,
        }
    }

    /// Phone `i`'s compute costs `c[i]`, one per job; its per-KB rate for
    /// job `j` is `bandwidths()[i] + compute_row(i)[j]`.
    #[inline]
    pub fn compute_row(&self, i: usize) -> &'a [f64] {
        &self.c[i]
    }

    /// Job `j`'s per-KB rates, one per phone.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.by_job[j * self.num_phones..(j + 1) * self.num_phones]
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
        self.by_job[j * self.num_phones + i]
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
        SchedProblem::new(p, j, c).unwrap()
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
        let prob = SchedProblem::new(p, j, c).unwrap();
        let fit = prob.max_fit_kb(0, 0, 1e9, true);
        assert_eq!(fit, KiloBytes(50));
    }

    #[test]
    fn max_fit_zero_when_exe_does_not_fit() {
        let prob = instance(1, 1);
        // Exe alone costs 30·1 = 30 ms; give less room.
        assert_eq!(prob.max_fit_kb(0, 0, 10.0, true), KiloBytes::ZERO);
    }

    /// A non-square instance whose costs differ in every cell, so a
    /// transposed or shifted index cannot go unnoticed.
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

    #[test]
    fn row_and_column_views_agree_cell_for_cell() {
        // 150 × 37 straddles the build's 128-phone bands and 16-job tiles.
        let prob = varied(150, 37);
        let tables = prob.tables();
        for i in 0..prob.num_phones() {
            let b = tables.bandwidths()[i];
            let row: Vec<f64> = tables.compute_row(i).iter().map(|c| b + c).collect();
            assert_eq!(row.len(), prob.num_jobs());
            let row_min = row.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(tables.row_min_ms(i).to_bits(), row_min.to_bits());
            for (j, cell) in row.iter().enumerate() {
                let want = prob.per_kb_ms(i, j).to_bits();
                assert_eq!(cell.to_bits(), want, "row cell ({i}, {j})");
                assert_eq!(tables.col(j)[i].to_bits(), want, "column cell ({i}, {j})");
                assert_eq!(tables.per_kb_ms(i, j).to_bits(), want);
            }
        }
        assert_eq!(tables.col(0).len(), prob.num_phones());
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
        for prob in [varied(150, 37), ram_capped, varied(1, 30), instance(9, 40)] {
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
        assert!(SchedProblem::new(vec![], jobs(1), vec![]).is_err());
        assert!(SchedProblem::new(phones(1), vec![], vec![vec![]]).is_err());
        // Wrong matrix shape.
        assert!(SchedProblem::new(phones(2), jobs(2), vec![vec![1.0, 1.0]]).is_err());
        // Non-positive cost.
        assert!(SchedProblem::new(phones(1), jobs(1), vec![vec![0.0]]).is_err());
        // Invalid phone bandwidth.
        let bad_phone = PhoneInfo::new(
            PhoneId(0),
            CpuSpec::new(1000, 1),
            RadioTech::Edge,
            MsPerKb(f64::INFINITY),
        );
        assert!(SchedProblem::new(vec![bad_phone], jobs(1), vec![vec![1.0]]).is_err());
        // Invalid job.
        let bad_job = JobSpec::breakable(JobId(0), "x", KiloBytes(1), KiloBytes::ZERO);
        assert!(SchedProblem::new(phones(1), vec![bad_job], vec![vec![1.0]]).is_err());
    }
}
