//! The `c_ij` cost matrix, stored once per distinct cost column.
//!
//! CWC profiles each program once and scales it by clock (§4.1), so a
//! batch's P × J matrix holds one column per (program, fleet): the jobs
//! of a program share theirs. [`CostMatrix`] stores exactly that — which
//! column each job reads (`column_of`) and the K distinct columns,
//! column-major — and nothing else on any path that schedules.
//!
//! The grouping is an invariant of the type. A matrix has no public
//! fields and no `IndexMut`, so no cell can change under a grouping
//! built on it; replacing a problem's matrix replaces its grouping with
//! it. There are two ways in:
//!
//! * [`crate::RuntimePredictor::cost_matrix`] builds it grouped, with
//!   P × K work: one column per distinct program, in order of first
//!   appearance in job order.
//! * Raw rows (`From<Vec<Vec<f64>>>`, `FromIterator<Vec<f64>>`) are moved
//!   in as they are. Their grouping is found once, by a bit-exact check
//!   against the jobs' programs, the first time a problem needs it
//!   ([`crate::SchedProblem::new`] does): a job shares the column of the
//!   first job running its program only if every cell agrees to the bit.
//!
//! Row views (`matrix[i][j]`) are built on first use, P × J, for
//! callers that want rows; nothing that schedules asks for them.

use cwc_types::JobSpec;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Index;
use std::sync::OnceLock;

thread_local! {
    /// How many matrices built their P × J rows on this thread.
    static ROWS_BUILT: Cell<u64> = const { Cell::new(0) };
}

/// `c[i][j]`: predicted ms per KB for phone `i` executing job `j`.
///
/// ```
/// use cwc_core::CostMatrix;
///
/// // Two phones, three jobs; jobs 0 and 2 cost the same everywhere.
/// let c: CostMatrix = vec![vec![10.0, 13.0, 10.0], vec![5.0, 6.5, 5.0]].into();
/// assert_eq!(c.get(1, 2), 5.0);
/// assert_eq!(c[0][1], 13.0);
/// ```
#[derive(Debug, Clone)]
pub struct CostMatrix {
    num_phones: usize,
    /// Length of every row; `None` when raw rows differ in length.
    num_jobs: Option<usize>,
    /// The grouping: set at construction by the predictor, found on
    /// first use for raw rows.
    columns: OnceLock<Columns>,
    /// Row-major cells: moved in for raw rows, built on first index for
    /// a grouped matrix.
    rows: OnceLock<Vec<Vec<f64>>>,
}

/// Which column each job reads, and the distinct columns.
#[derive(Debug, Clone)]
pub(crate) struct Columns {
    /// `column_of[j]`: the column job `j` reads.
    pub(crate) column_of: Vec<usize>,
    /// `values[k · P + i]`: column `k`'s cost on phone `i`.
    pub(crate) values: Vec<f64>,
}

impl CostMatrix {
    /// A grouped matrix over `num_phones` phones: job `j` reads column
    /// `column_of[j]`, and `values` holds every column's P costs in turn.
    pub(crate) fn from_columns(num_phones: usize, column_of: Vec<usize>, values: Vec<f64>) -> Self {
        debug_assert_eq!(values.len() % num_phones.max(1), 0);
        debug_assert!(column_of
            .iter()
            .all(|&k| (k + 1) * num_phones <= values.len()));
        CostMatrix {
            num_phones,
            num_jobs: Some(column_of.len()),
            columns: OnceLock::from(Columns { column_of, values }),
            rows: OnceLock::new(),
        }
    }

    /// `(phones, jobs)`, or `None` when raw rows differ in length.
    pub fn dims(&self) -> Option<(usize, usize)> {
        self.num_jobs.map(|jobs| (self.num_phones, jobs))
    }

    /// `c[i][j]`, read from the column job `j` shares.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.columns.get() {
            Some(columns) => columns.values[columns.column_of[j] * self.num_phones + i],
            None => self.rows()[i][j],
        }
    }

    /// Which column each job reads, once the grouping is known (always
    /// for a predictor-built matrix; after [`crate::SchedProblem::new`]
    /// for raw rows).
    pub fn column_of(&self) -> Option<&[usize]> {
        self.columns.get().map(|c| c.column_of.as_slice())
    }

    /// The distinct columns, P costs each, in the order `column_of`
    /// numbers them; `None` until the grouping is known.
    pub fn columns(&self) -> Option<impl Iterator<Item = &[f64]>> {
        let width = self.num_phones.max(1);
        self.columns.get().map(|c| c.values.chunks_exact(width))
    }

    /// The grouping, found against `jobs` on first use when the matrix
    /// came as raw rows. The caller has checked that the matrix is
    /// `P × jobs.len()`.
    pub(crate) fn grouped(&self, jobs: &[JobSpec]) -> &Columns {
        self.columns
            .get_or_init(|| distinct_columns(self.rows(), jobs, self.num_phones))
    }

    /// How many matrices have built their row view on the calling thread
    /// so far: a test reads it before and after an operation to prove the
    /// operation never asked for rows.
    #[doc(hidden)]
    pub fn rows_built_on_this_thread() -> u64 {
        ROWS_BUILT.with(Cell::get)
    }

    fn rows(&self) -> &[Vec<f64>] {
        self.rows.get_or_init(|| {
            ROWS_BUILT.with(|n| n.set(n.get() + 1));
            let Some(columns) = self.columns.get() else {
                return Vec::new();
            };
            (0..self.num_phones)
                .map(|i| {
                    (columns.column_of.iter())
                        .map(|&k| columns.values[k * self.num_phones + i])
                        .collect()
                })
                .collect()
        })
    }
}

impl Index<usize> for CostMatrix {
    type Output = [f64];

    /// Row `i`; the first row read builds all P × J of them.
    fn index(&self, i: usize) -> &[f64] {
        &self.rows()[i]
    }
}

impl From<Vec<Vec<f64>>> for CostMatrix {
    /// Moves raw rows in; the grouping is found on first use.
    fn from(rows: Vec<Vec<f64>>) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        CostMatrix {
            num_phones: rows.len(),
            num_jobs: rows.iter().all(|row| row.len() == width).then_some(width),
            columns: OnceLock::new(),
            rows: OnceLock::from(rows),
        }
    }
}

impl FromIterator<Vec<f64>> for CostMatrix {
    fn from_iter<I: IntoIterator<Item = Vec<f64>>>(rows: I) -> Self {
        rows.into_iter().collect::<Vec<_>>().into()
    }
}

/// The grouping of raw rows: which distinct column each job reads, and
/// the columns, in order of each one's first job.
///
/// A job's candidate is the first job running the same program. One
/// row-major pass checks every cell against its candidate's, bit for
/// bit; a job that differs in any row gets a column of its own, so
/// hand-built and random costs stay exact.
fn distinct_columns(rows: &[Vec<f64>], jobs: &[JobSpec], num_phones: usize) -> Columns {
    let mut first_of_program = BTreeMap::new();
    let candidate: Vec<usize> = (jobs.iter().enumerate())
        .map(|(j, job)| *first_of_program.entry(job.program.as_str()).or_insert(j))
        .collect();
    let mut own_column = vec![false; jobs.len()];
    for row in rows {
        // An OR of XORs has no branch per cell; only a row where some
        // job differs from its candidate pays for the per-job pass.
        let differs = (row.iter().zip(&candidate))
            .fold(0u64, |acc, (&v, &r)| acc | (v.to_bits() ^ row[r].to_bits()));
        if differs != 0 {
            for ((own, &v), &r) in own_column.iter_mut().zip(row).zip(&candidate) {
                *own |= v.to_bits() != row[r].to_bits();
            }
        }
    }
    let mut firsts = Vec::new();
    let mut column_of = Vec::with_capacity(jobs.len());
    for (j, (&r, &own)) in candidate.iter().zip(&own_column).enumerate() {
        // A candidate never differs from itself, so it precedes `j` with
        // its column already assigned.
        let k = if own || r == j {
            firsts.push(j);
            firsts.len() - 1
        } else {
            column_of[r]
        };
        column_of.push(k);
    }
    let mut values = Vec::with_capacity(num_phones * firsts.len());
    for &j in &firsts {
        values.extend(rows.iter().map(|row| row[j]));
    }
    Columns { column_of, values }
}
