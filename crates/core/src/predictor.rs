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
use cwc_types::{KiloBytes, PhoneInfo, ProgramId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Clock of the profiling phone, MHz (HTC G2 in the testbed).
const DEFAULT_BASELINE_CLOCK: u32 = 806;

/// Predicts `c_ij` (ms per KB) for every phone–program pair, and is the
/// catalogue of its programs: each name is interned once, at
/// registration, into the [`ProgramId`] every per-program table uses.
///
/// ```
/// use cwc_core::RuntimePredictor;
/// use cwc_types::{CpuSpec, KiloBytes, MsPerKb, PhoneId, PhoneInfo, RadioTech};
///
/// let mut predictor = RuntimePredictor::new();
/// let wordcount = predictor.register("wordcount", 80.0); // T_s on the 806 MHz phone
///
/// let phone = PhoneInfo::new(PhoneId(3), CpuSpec::new(1612, 2),
///                            RadioTech::Wifi80211g, MsPerKb(2.0));
/// // Clock-ratio seed: double the clock, half the cost.
/// assert!((predictor.c_ij(&phone, wordcount) - 40.0).abs() < 1e-9);
///
/// // A completion report refines the estimate toward the measured truth.
/// predictor.observe(&phone, wordcount, KiloBytes(100), 3_000.0); // 30 ms/KB
/// assert!(predictor.c_ij(&phone, wordcount) < 40.0);
/// ```
#[derive(Clone)]
pub struct RuntimePredictor {
    /// Name → id, in name order.
    ids: BTreeMap<Arc<str>, ProgramId>,
    /// Each program's name by id: the one handle ship commands share.
    names: Vec<Arc<str>>,
    /// `T_s` by id: profiled ms/KB on the slowest phone.
    baseline: Vec<f64>,
    /// Clock `S` of the profiling phone.
    baseline_clock: u32,
    /// Learned estimates from execution reports by id: phone id → ms/KB.
    learned: Vec<BTreeMap<u32, f64>>,
    /// EWMA weight given to a new observation.
    alpha: f64,
}

impl RuntimePredictor {
    /// Creates a predictor with the testbed's 806 MHz baseline phone.
    pub fn new() -> Self {
        RuntimePredictor {
            ids: BTreeMap::new(),
            names: Vec::new(),
            baseline: Vec::new(),
            baseline_clock: DEFAULT_BASELINE_CLOCK,
            learned: Vec::new(),
            alpha: 0.5,
        }
    }

    /// Registers a program's profiled baseline cost `T_s` (ms per KB on
    /// the baseline phone).
    pub fn set_baseline(&mut self, program: &str, ms_per_kb: f64) {
        self.register(program, ms_per_kb);
    }

    /// [`RuntimePredictor::set_baseline`], returning the program's id. Only
    /// a new program allocates: it takes the next id and a copy of the name.
    pub fn register(&mut self, program: &str, ms_per_kb: f64) -> ProgramId {
        assert!(ms_per_kb > 0.0 && ms_per_kb.is_finite());
        if let Some(id) = self.program(program) {
            self.baseline[id.index()] = ms_per_kb;
            return id;
        }
        let id = ProgramId::from_index(self.names.len());
        let name: Arc<str> = Arc::from(program);
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        self.baseline.push(ms_per_kb);
        self.learned.push(BTreeMap::new());
        id
    }

    /// Whether a program has been profiled.
    pub fn has_baseline(&self, program: &str) -> bool {
        self.ids.contains_key(program)
    }

    /// The id `program` was registered under, if it was.
    pub fn program(&self, program: &str) -> Option<ProgramId> {
        self.ids.get(program).copied()
    }

    /// The name program `id` was registered under.
    pub fn name(&self, id: ProgramId) -> &Arc<str> {
        &self.names[id.index()]
    }

    /// Every registered program, in name order.
    pub fn programs(&self) -> impl Iterator<Item = (&str, ProgramId)> {
        self.ids.iter().map(|(name, &id)| (&**name, id))
    }

    /// `T_s` of program `id`.
    pub fn baseline(&self, id: ProgramId) -> f64 {
        self.baseline[id.index()]
    }

    /// Predicted `c_ij` for `phone` running program `id`: the learned
    /// value if any report has arrived, otherwise the clock-scaled
    /// baseline.
    pub fn c_ij(&self, phone: &PhoneInfo, id: ProgramId) -> f64 {
        match self.learned[id.index()].get(&phone.id.0) {
            Some(&learned) => learned,
            None => self.scaled(id, phone),
        }
    }

    /// Folds in a completion report: `measured_ms` to execute `kb` KB of
    /// program `id` locally on `phone` (excluding transfer, exactly what
    /// phones report in the prototype).
    pub fn observe(&mut self, phone: &PhoneInfo, id: ProgramId, kb: KiloBytes, measured_ms: f64) {
        if kb.is_zero() || measured_ms.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let observed = measured_ms / kb.as_f64();
        let seed = self.scaled(id, phone);
        let estimate = self.learned[id.index()].entry(phone.id.0).or_insert(seed);
        *estimate += self.alpha * (observed - *estimate);
    }

    /// `T_s · S / A`: program `id`'s baseline scaled to `phone`'s clock.
    fn scaled(&self, id: ProgramId, phone: &PhoneInfo) -> f64 {
        self.baseline[id.index()] * f64::from(self.baseline_clock) / f64::from(phone.cpu.clock_mhz)
    }

    /// [`RuntimePredictor::cost_matrix_by_id`] of the programs so named.
    ///
    /// # Panics
    /// Panics if a program was never profiled — scheduling an unprofiled
    /// program is a server-side logic error.
    pub fn cost_matrix(&self, phones: &[PhoneInfo], programs: &[&str]) -> CostMatrix {
        let id = |program: &&str| {
            (self.program(program))
                .unwrap_or_else(|| panic!("program {program:?} has no profiled baseline"))
        };
        let ids: Vec<ProgramId> = programs.iter().map(id).collect();
        self.cost_matrix_by_id(phones, &ids)
    }

    /// The cost matrix for a scheduling round: cell `(i, j)` is
    /// [`RuntimePredictor::c_ij`] of `phones[i]` and `programs[j]`. It
    /// comes grouped ([`CostMatrix`]): one column per distinct program, in
    /// order of first appearance, each resolved once per phone (P × K work).
    pub fn cost_matrix_by_id(&self, phones: &[PhoneInfo], programs: &[ProgramId]) -> CostMatrix {
        // Each program's column, numbered on its first appearance.
        let mut column_by_id = vec![None; self.names.len()];
        let mut distinct = Vec::new();
        let column_of = (programs.iter())
            .map(|&id| {
                *column_by_id[id.index()].get_or_insert_with(|| {
                    distinct.push(id);
                    distinct.len() - 1
                })
            })
            .collect();
        let mut values = Vec::with_capacity(phones.len() * distinct.len());
        for id in distinct {
            values.extend(phones.iter().map(|p| self.c_ij(p, id)));
        }
        CostMatrix::from_columns(phones.len(), column_of, values)
    }
}

impl fmt::Debug for RuntimePredictor {
    /// Programs by name, in name order, and under `learned` only those
    /// with a report: the text name-keyed maps print, whatever order the
    /// programs were registered in.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by_name = || self.ids.iter().map(|(name, id)| (name, id.index()));
        let baseline = map(by_name().map(|(name, k)| (name, self.baseline[k])));
        let learned = by_name().map(|(name, k)| (name, &self.learned[k]));
        let learned = map(learned.filter(|(_, per_phone)| !per_phone.is_empty()));
        f.debug_struct("RuntimePredictor")
            .field("baseline", &baseline)
            .field("baseline_clock", &self.baseline_clock)
            .field("learned", &learned)
            .field("alpha", &self.alpha)
            .finish()
    }
}

/// `entries` printed as a map prints.
fn map<K: fmt::Debug, V: fmt::Debug>(
    entries: impl Iterator<Item = (K, V)> + Clone,
) -> impl fmt::Debug {
    fmt::from_fn(move |f| f.debug_map().entries(entries.clone()).finish())
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
        let primecount = pred.register("primecount", 14.0);
        // Baseline phone predicts itself.
        assert!((pred.c_ij(&phone(0, 806), primecount) - 14.0).abs() < 1e-12);
        // Double clock → half cost.
        assert!((pred.c_ij(&phone(1, 1612), primecount) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn observation_pulls_estimate_toward_truth() {
        let mut pred = RuntimePredictor::new();
        let primecount = pred.register("primecount", 14.0);
        let p = phone(2, 1612);
        let predicted = pred.c_ij(&p, primecount); // 7.0
                                                   // The phone is actually 25% faster: true cost 5.25 ms/KB.
        for _ in 0..12 {
            pred.observe(&p, primecount, KiloBytes(100), 525.0);
        }
        let after = pred.c_ij(&p, primecount);
        assert!(after < predicted);
        assert!((after - 5.25).abs() < 0.05, "converged to {after}");
    }

    #[test]
    fn learning_is_per_phone() {
        let mut pred = RuntimePredictor::new();
        let wordcount = pred.register("wordcount", 6.0);
        let a = phone(0, 1200);
        let b = phone(1, 1200);
        pred.observe(&a, wordcount, KiloBytes(100), 200.0);
        assert!((pred.c_ij(&a, wordcount) - pred.c_ij(&b, wordcount)).abs() > 0.5);
    }

    #[test]
    fn degenerate_reports_are_ignored() {
        let mut pred = RuntimePredictor::new();
        let x = pred.register("x", 5.0);
        let p = phone(0, 1000);
        let before = pred.c_ij(&p, x);
        pred.observe(&p, x, KiloBytes::ZERO, 100.0);
        pred.observe(&p, x, KiloBytes(10), -5.0);
        pred.observe(&p, x, KiloBytes(10), f64::NAN);
        assert_eq!(pred.c_ij(&p, x), before);
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
        let a = pred.register("a", 10.0);
        let b = pred.register("b", 10.0);
        // A third program, which no job of the instant runs, has no column.
        let c = pred.register("c", 10.0);
        let phones = vec![phone(0, 806), phone(1, 1612), phone(2, 1000)];
        pred.observe(&phones[2], a, KiloBytes(10), 80.0);
        pred.observe(&phones[1], c, KiloBytes(10), 30.0);
        let rows_built = CostMatrix::rows_built_on_this_thread();
        let ids = [b, a, b, b, a];
        for m in [
            pred.cost_matrix(&phones, &["b", "a", "b", "b", "a"]),
            pred.cost_matrix_by_id(&phones, &ids),
        ] {
            assert_eq!(m.dims(), Some((3, 5)));
            // Equal baselines still make two columns: one per program.
            assert_eq!(m.column_of(), Some(&[0, 1, 0, 0, 1][..]));
            let columns: Vec<&[f64]> = m.columns().unwrap().collect();
            assert_eq!(columns.len(), 2);
            for (k, program) in [b, a].into_iter().enumerate() {
                for (i, p) in phones.iter().enumerate() {
                    assert_eq!(columns[k][i].to_bits(), pred.c_ij(p, program).to_bits());
                }
            }
            for (j, &id) in ids.iter().enumerate() {
                for (i, p) in phones.iter().enumerate() {
                    assert_eq!(m.get(i, j).to_bits(), pred.c_ij(p, id).to_bits());
                }
            }
        }
        assert_eq!(CostMatrix::rows_built_on_this_thread(), rows_built);
        let m = pred.cost_matrix_by_id(&phones, &ids);
        // The row view is the same cells, built on first index.
        assert_eq!(m[2][1].to_bits(), pred.c_ij(&phones[2], a).to_bits());
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
        let a = pred.register("a", 10.0);
        let b = pred.register("b", 23.0);
        let phones = vec![phone(0, 806), phone(1, 1337), phone(2, 1500)];
        pred.observe(&phones[1], b, KiloBytes(100), 1_234.0);
        pred.observe(&phones[1], a, KiloBytes(7), 55.0);
        let programs = ["a", "b", "b", "a", "a", "b"];
        let m = rows(&pred.cost_matrix(&phones, &programs));
        for (p, row) in phones.iter().zip(&m) {
            assert_eq!(row.len(), programs.len());
            for (prog, cell) in programs.iter().zip(row) {
                let id = pred.program(prog).unwrap();
                assert_eq!(cell.to_bits(), pred.c_ij(p, id).to_bits());
            }
        }
    }

    #[test]
    fn programs_are_numbered_by_registration_and_printed_by_name() {
        let mut pred = RuntimePredictor::new();
        let ids = ["wordcount", "photoblur", "primecount"].map(|p| pred.register(p, 20.0));
        assert_eq!(ids.map(ProgramId::index), [0, 1, 2]);
        assert_eq!(pred.register("photoblur", 40.0), ids[1]);
        assert_eq!(&**pred.name(ids[2]), "primecount");
        let by_name: Vec<(&str, usize)> = pred.programs().map(|(n, id)| (n, id.index())).collect();
        assert_eq!(
            by_name,
            [("photoblur", 1), ("primecount", 2), ("wordcount", 0)]
        );
        pred.observe(&phone(7, 806), ids[0], KiloBytes(10), 100.0);
        // The text a name-keyed map prints, which the kernel's digest
        // hashes: name order, and only programs that learned something.
        assert_eq!(
            format!("{pred:?}"),
            "RuntimePredictor { baseline: {\"photoblur\": 40.0, \"primecount\": 20.0, \
             \"wordcount\": 20.0}, baseline_clock: 806, learned: {\"wordcount\": {7: 15.0}}, \
             alpha: 0.5 }"
        );
    }

    #[test]
    #[should_panic(expected = "no profiled baseline")]
    fn unprofiled_program_panics() {
        let pred = RuntimePredictor::new();
        let _ = pred.cost_matrix(&[phone(0, 1000)], &["mystery"]);
    }
}
