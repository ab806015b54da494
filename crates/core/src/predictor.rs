//! Execution-time prediction (§4.1).
//!
//! Profiling every phone–task pair would be prohibitive, so CWC profiles
//! each task **once**, on the slowest phone (`T_s` ms/KB at clock `S`),
//! and scales: a phone at clock `A` is predicted at `T_s · S / A` ms/KB.
//! Fig. 6 shows the model is accurate for most phones with a few happy
//! outliers (faster than predicted).
//!
//! After every completed partition, the phone reports its measured local
//! execution time; the predictor folds it in with an exponentially
//! weighted moving average, so a phone that is consistently faster (or
//! slower) than its clock suggests converges to its true `c_ij` — this is
//! what lets the Fig. 12a schedule land within ~2% of the real makespan.

use crate::matrix::CostMatrix;
use cwc_types::{KiloBytes, PhoneInfo};
use std::collections::BTreeMap;

/// Clock of the profiling phone, MHz (HTC G2 in the testbed).
const DEFAULT_BASELINE_CLOCK: u32 = 806;

/// Predicts `c_ij` (ms per KB) for every phone–program pair.
///
/// ```
/// use cwc_core::RuntimePredictor;
/// use cwc_types::{CpuSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};
///
/// let mut predictor = RuntimePredictor::new();
/// predictor.set_baseline("wordcount", 80.0);          // T_s on the 806 MHz phone
///
/// let phone = PhoneInfo::new(PhoneId(3), CpuSpec::new(1612, 2),
///                            RadioTech::Wifi80211g, MsPerKb(2.0));
/// // Clock-ratio seed: double the clock, half the cost.
/// assert!((predictor.c_ij(&phone, "wordcount") - 40.0).abs() < 1e-9);
///
/// // A completion report refines the estimate toward the measured truth.
/// predictor.observe(&phone, "wordcount", KiloBytes(100), 3_000.0); // 30 ms/KB
/// assert!(predictor.c_ij(&phone, "wordcount") < 40.0);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimePredictor {
    /// `T_s`: profiled baseline ms/KB per program, measured on the
    /// slowest phone.
    baseline: BTreeMap<String, f64>,
    /// Clock `S` of the profiling phone.
    baseline_clock: u32,
    /// Learned estimates from execution reports, program → phone id →
    /// ms/KB (program outermost so a `&str` lookup borrows).
    learned: BTreeMap<String, BTreeMap<u32, f64>>,
    /// EWMA weight given to a new observation.
    alpha: f64,
}

impl RuntimePredictor {
    /// Creates a predictor with the testbed's 806 MHz baseline phone.
    pub fn new() -> Self {
        RuntimePredictor {
            baseline: BTreeMap::new(),
            baseline_clock: DEFAULT_BASELINE_CLOCK,
            learned: BTreeMap::new(),
            alpha: 0.5,
        }
    }

    /// Registers a program's profiled baseline cost `T_s` (ms per KB on
    /// the baseline phone). The name is copied only the first time a
    /// program is registered.
    pub fn set_baseline(&mut self, program: &str, ms_per_kb: f64) {
        assert!(ms_per_kb > 0.0 && ms_per_kb.is_finite());
        match self.baseline.get_mut(program) {
            Some(known) => *known = ms_per_kb,
            None => {
                self.baseline.insert(program.to_owned(), ms_per_kb);
            }
        }
    }

    /// Whether a program has been profiled.
    pub fn has_baseline(&self, program: &str) -> bool {
        self.baseline.contains_key(program)
    }

    /// Predicted `c_ij` for `phone` running `program`: the learned value
    /// if any report has arrived, otherwise the clock-scaled baseline.
    ///
    /// # Panics
    /// Panics if the program was never profiled — scheduling an
    /// unprofiled program is a server-side logic error.
    pub fn c_ij(&self, phone: &PhoneInfo, program: &str) -> f64 {
        let learned = self.learned.get(program).and_then(|m| m.get(&phone.id.0));
        match learned {
            Some(&learned) => learned,
            None => self.c_ij_scaled_only(phone, program),
        }
    }

    /// Folds in a completion report: `measured_ms` to execute `input` KB
    /// of `program` locally on `phone` (excluding transfer, exactly what
    /// phones report in the prototype).
    pub fn observe(
        &mut self,
        phone: &PhoneInfo,
        program: &str,
        input: KiloBytes,
        measured_ms: f64,
    ) {
        if input.is_zero() || measured_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let observed = measured_ms / input.as_f64();
        let seed = self.c_ij_scaled_only(phone, program);
        let alpha = self.alpha;
        let fold_in = |per_phone: &mut BTreeMap<u32, f64>| {
            let entry = per_phone.entry(phone.id.0).or_insert(seed);
            *entry += alpha * (observed - *entry);
        };
        // The program's name is copied only on its first report.
        match self.learned.get_mut(program) {
            Some(per_phone) => fold_in(per_phone),
            None => fold_in(self.learned.entry(program.to_owned()).or_default()),
        }
    }

    fn c_ij_scaled_only(&self, phone: &PhoneInfo, program: &str) -> f64 {
        self.scaled(self.profiled(program), phone)
    }

    /// `T_s` of `program`.
    ///
    /// # Panics
    /// Panics if the program was never profiled.
    fn profiled(&self, program: &str) -> f64 {
        *self
            .baseline
            .get(program)
            .unwrap_or_else(|| panic!("program {program:?} has no profiled baseline"))
    }

    /// `T_s · S / A`: a baseline scaled to `phone`'s clock.
    fn scaled(&self, ts: f64, phone: &PhoneInfo) -> f64 {
        ts * f64::from(self.baseline_clock) / f64::from(phone.cpu.clock_mhz)
    }

    /// Builds the cost matrix for a scheduling round: row `i`, column
    /// `j` is [`RuntimePredictor::c_ij`] of `phones[i]` and
    /// `programs[j]`. The matrix comes grouped ([`CostMatrix`]): one
    /// column per distinct program, in order of first appearance, each
    /// program resolved once per phone — P × K work for K programs,
    /// however many jobs share them.
    pub fn cost_matrix(&self, phones: &[PhoneInfo], programs: &[&str]) -> CostMatrix {
        let mut column_by_program = BTreeMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let column_of = (programs.iter())
            .map(|&program| {
                *column_by_program.entry(program).or_insert_with(|| {
                    distinct.push(program);
                    distinct.len() - 1
                })
            })
            .collect();
        let mut values = Vec::with_capacity(phones.len() * distinct.len());
        for program in distinct {
            // `c_ij`, with the program's two lookups hoisted off the
            // phones.
            let learned = self.learned.get(program);
            let ts = self.baseline.get(program).copied();
            values.extend(
                phones
                    .iter()
                    .map(|p| match learned.and_then(|m| m.get(&p.id.0)) {
                        Some(&learned) => learned,
                        None => self.scaled(ts.unwrap_or_else(|| self.profiled(program)), p),
                    }),
            );
        }
        CostMatrix::from_columns(phones.len(), column_of, values)
    }
}

impl Default for RuntimePredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_types::{CpuSpec, MsPerKb, PhoneId, RadioTech};

    fn phone(id: u32, clock: u32) -> PhoneInfo {
        PhoneInfo::new(
            PhoneId(id),
            CpuSpec::new(clock, 2),
            RadioTech::Wifi80211g,
            MsPerKb(2.0),
        )
    }

    #[test]
    fn clock_scaling_seed() {
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("primecount", 14.0);
        // Baseline phone predicts itself.
        assert!((pred.c_ij(&phone(0, 806), "primecount") - 14.0).abs() < 1e-12);
        // Double clock → half cost.
        assert!((pred.c_ij(&phone(1, 1612), "primecount") - 7.0).abs() < 1e-12);
    }

    #[test]
    fn observation_pulls_estimate_toward_truth() {
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("primecount", 14.0);
        let p = phone(2, 1612);
        let predicted = pred.c_ij(&p, "primecount"); // 7.0
                                                     // The phone is actually 25% faster: true cost 5.25 ms/KB.
        for _ in 0..12 {
            pred.observe(&p, "primecount", KiloBytes(100), 525.0);
        }
        let after = pred.c_ij(&p, "primecount");
        assert!(after < predicted);
        assert!((after - 5.25).abs() < 0.05, "converged to {after}");
    }

    #[test]
    fn learning_is_per_phone() {
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("wordcount", 6.0);
        let a = phone(0, 1200);
        let b = phone(1, 1200);
        pred.observe(&a, "wordcount", KiloBytes(100), 200.0);
        assert!((pred.c_ij(&a, "wordcount") - pred.c_ij(&b, "wordcount")).abs() > 0.5);
    }

    #[test]
    fn degenerate_reports_are_ignored() {
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("x", 5.0);
        let p = phone(0, 1000);
        let before = pred.c_ij(&p, "x");
        pred.observe(&p, "x", KiloBytes::ZERO, 100.0);
        pred.observe(&p, "x", KiloBytes(10), -5.0);
        pred.observe(&p, "x", KiloBytes(10), f64::NAN);
        assert_eq!(pred.c_ij(&p, "x"), before);
    }

    /// Every cell of `m`, read one at a time off its columns.
    fn rows(m: &CostMatrix) -> Vec<Vec<f64>> {
        let (num_phones, num_jobs) = m.dims().unwrap();
        (0..num_phones)
            .map(|i| (0..num_jobs).map(|j| m.get(i, j)).collect())
            .collect()
    }

    #[test]
    fn cost_matrix_holds_one_column_per_program_in_order_of_first_appearance() {
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("a", 10.0);
        pred.set_baseline("b", 10.0);
        let phones = vec![phone(0, 806), phone(1, 1612), phone(2, 1000)];
        pred.observe(&phones[2], "a", KiloBytes(10), 80.0);
        let rows_built = CostMatrix::rows_built_on_this_thread();
        let m = pred.cost_matrix(&phones, &["b", "a", "b", "b", "a"]);
        assert_eq!(m.dims(), Some((3, 5)));
        // Equal baselines still make two columns: one per program.
        assert_eq!(m.column_of(), Some(&[0, 1, 0, 0, 1][..]));
        let columns: Vec<&[f64]> = m.columns().unwrap().collect();
        assert_eq!(columns.len(), 2);
        for (k, program) in ["b", "a"].into_iter().enumerate() {
            for (i, p) in phones.iter().enumerate() {
                assert_eq!(columns[k][i].to_bits(), pred.c_ij(p, program).to_bits());
            }
        }
        assert_eq!(CostMatrix::rows_built_on_this_thread(), rows_built);
        // The row view is the same cells, built on first index.
        assert_eq!(m[2][1].to_bits(), pred.c_ij(&phones[2], "a").to_bits());
        assert_eq!(CostMatrix::rows_built_on_this_thread(), rows_built + 1);
    }

    #[test]
    fn cost_matrix_shape() {
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("a", 10.0);
        pred.set_baseline("b", 20.0);
        let phones = vec![phone(0, 806), phone(1, 1612)];
        let m = rows(&pred.cost_matrix(&phones, &["a", "b"]));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert!((m[0][0] - 10.0).abs() < 1e-12);
        assert!((m[1][1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cost_matrix_is_c_ij_cell_for_cell() {
        // Repeated programs, one phone with learned values: resolving a
        // program once per phone must not change a single bit.
        let mut pred = RuntimePredictor::new();
        pred.set_baseline("a", 10.0);
        pred.set_baseline("b", 23.0);
        let phones = vec![phone(0, 806), phone(1, 1337), phone(2, 1500)];
        pred.observe(&phones[1], "b", KiloBytes(100), 1_234.0);
        pred.observe(&phones[1], "a", KiloBytes(7), 55.0);
        let programs = ["a", "b", "b", "a", "a", "b"];
        let m = rows(&pred.cost_matrix(&phones, &programs));
        for (p, row) in phones.iter().zip(&m) {
            assert_eq!(row.len(), programs.len());
            for (prog, cell) in programs.iter().zip(row) {
                assert_eq!(cell.to_bits(), pred.c_ij(p, prog).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no profiled baseline")]
    fn unprofiled_program_panics() {
        let pred = RuntimePredictor::new();
        let _ = pred.c_ij(&phone(0, 1000), "mystery");
    }
}
