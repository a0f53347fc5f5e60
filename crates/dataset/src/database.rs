//! The assembled performance database: benchmarks × machines score matrix
//! plus metadata, the synthetic stand-in for the SPEC results archive.

use std::sync::Arc;

use datatrans_linalg::{Matrix, VecView};

use crate::benchmark::Benchmark;
use crate::bucket::{BucketIndex, BucketMemo};
use crate::machine::{Machine, ProcessorFamily};
use crate::view::{DatabaseView, RowSegment};
use crate::{DatasetError, Result};

/// One machine to append to a database: metadata plus its score column.
///
/// `scores[b]` is the machine's score on benchmark row `b` — exactly the
/// machine column the database will store, in benchmark row order.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineIngest {
    /// The machine's catalog metadata.
    pub machine: Machine,
    /// One score per benchmark, in benchmark row order.
    pub scores: Vec<f64>,
}

/// Validates an ingest batch against a database's benchmark count: every
/// entry must score exactly `n_benchmarks` rows, with finite positive
/// values (the same invariant [`PerfDatabase::new`] enforces).
pub(crate) fn validate_ingest(batch: &[MachineIngest], n_benchmarks: usize) -> Result<()> {
    for entry in batch {
        if entry.scores.len() != n_benchmarks {
            return Err(DatasetError::BenchmarkCountMismatch {
                expected: n_benchmarks,
                got: entry.scores.len(),
            });
        }
        if entry.scores.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(DatasetError::InvalidConfig {
                name: "scores",
                value: "must be finite and positive".into(),
            });
        }
    }
    Ok(())
}

/// A complete performance database.
///
/// Scores are SPEC-style speed ratios (higher is better), stored as a dense
/// [`Matrix`] with **rows = benchmarks** and **columns = machines**,
/// matching the paper's Figure 2 orientation. Accessors expose the matrix
/// and zero-copy row/column views so consumers can read either
/// benchmark-major or machine-major without materializing copies.
///
/// The database carries a monotonically increasing **catalog version**,
/// bumped by every non-empty [`PerfDatabase::push_machines`] ingest; the
/// serving layer's result cache keys on it so stale cached rankings can
/// never be served after the catalog changes.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDatabase {
    benchmarks: Vec<Benchmark>,
    machines: Vec<Machine>,
    /// `benchmarks × machines` score matrix.
    scores: Matrix,
    /// Ingest counter: 0 for a freshly built catalog, +1 per non-empty
    /// [`PerfDatabase::push_machines`] call.
    catalog_version: u64,
    /// Bucket indexes built over this catalog version.
    bucket_memo: BucketMemo,
}

impl PerfDatabase {
    /// Assembles a database from parts (`scores` row-major,
    /// `scores[b * machines.len() + m]`).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Empty`] if `benchmarks` or `machines` is
    /// empty (a zero-area score matrix is not a database), and
    /// [`DatasetError::InvalidConfig`] if the score length does not equal
    /// `benchmarks × machines`, or if any score is not finite and positive.
    pub fn new(
        benchmarks: Vec<Benchmark>,
        machines: Vec<Machine>,
        scores: Vec<f64>,
    ) -> Result<Self> {
        if benchmarks.is_empty() {
            return Err(DatasetError::Empty { what: "benchmarks" });
        }
        if machines.is_empty() {
            return Err(DatasetError::Empty { what: "machines" });
        }
        if scores.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(DatasetError::InvalidConfig {
                name: "scores",
                value: "must be finite and positive".into(),
            });
        }
        let scores = Matrix::from_vec(benchmarks.len(), machines.len(), scores).map_err(|_| {
            DatasetError::InvalidConfig {
                name: "scores length",
                value: format!(
                    "expected {} benchmarks × {} machines",
                    benchmarks.len(),
                    machines.len()
                ),
            }
        })?;
        Ok(PerfDatabase {
            benchmarks,
            machines,
            scores,
            catalog_version: 0,
            bucket_memo: BucketMemo::default(),
        })
    }

    /// The catalog version: 0 for a freshly built database, incremented by
    /// every non-empty [`PerfDatabase::push_machines`] call. Monotonically
    /// increasing, so `(request fingerprint, catalog version)` uniquely
    /// identifies a serving result against this catalog's history.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Overrides the catalog version (crate-internal: lets
    /// [`crate::sharded::ShardedPerfDatabase::to_dense`] propagate the
    /// sharded backing's ingest history into the reassembled dense copy).
    pub(crate) fn set_catalog_version(&mut self, version: u64) {
        self.catalog_version = version;
    }

    /// Appends machines (columns) to the database, bumping the catalog
    /// version and dropping the memoized bucket indexes.
    ///
    /// An empty batch is a no-op and does **not** bump the version — it
    /// changes nothing, so it must not invalidate cached results. Scores
    /// are stored verbatim, so a catalog built incrementally through this
    /// method is bitwise-identical to the same catalog built at once.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BenchmarkCountMismatch`] if an entry's score
    /// column does not cover every benchmark row, and
    /// [`DatasetError::InvalidConfig`] if any score is not finite and
    /// positive. On error the database is unchanged.
    pub fn push_machines(&mut self, batch: &[MachineIngest]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let n_benchmarks = self.benchmarks.len();
        validate_ingest(batch, n_benchmarks)?;
        let new_cols = self.machines.len() + batch.len();
        let mut data = Vec::with_capacity(n_benchmarks * new_cols);
        for b in 0..n_benchmarks {
            data.extend_from_slice(self.scores.row(b));
            data.extend(batch.iter().map(|entry| entry.scores[b]));
        }
        self.scores = Matrix::from_vec(n_benchmarks, new_cols, data)
            .expect("appended matrix has exactly benchmarks × machines entries");
        self.machines
            .extend(batch.iter().map(|e| e.machine.clone()));
        self.catalog_version += 1;
        self.bucket_memo.clear();
        Ok(())
    }

    /// Number of benchmarks (rows).
    pub fn n_benchmarks(&self) -> usize {
        self.benchmarks.len()
    }

    /// Number of machines (columns).
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Benchmark metadata.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Machine metadata.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// The full `benchmarks × machines` score matrix.
    pub fn score_matrix(&self) -> &Matrix {
        &self.scores
    }

    /// Score of benchmark `b` on machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn score(&self, b: usize, m: usize) -> f64 {
        assert!(b < self.benchmarks.len(), "benchmark index out of bounds");
        assert!(m < self.machines.len(), "machine index out of bounds");
        self.scores[(b, m)]
    }

    /// All scores of one benchmark across machines (one matrix row),
    /// borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of bounds.
    pub fn benchmark_row(&self, b: usize) -> &[f64] {
        assert!(b < self.benchmarks.len(), "benchmark index out of bounds");
        self.scores.row(b)
    }

    /// All scores of one machine across benchmarks (one matrix column), as
    /// a zero-copy strided view.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn machine_column(&self, m: usize) -> VecView<'_> {
        assert!(m < self.machines.len(), "machine index out of bounds");
        self.scores.col_view(m)
    }

    /// Looks up a benchmark index by name.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::NotFound`] if no benchmark has that name.
    pub fn benchmark_index(&self, name: &str) -> Result<usize> {
        self.benchmarks
            .iter()
            .position(|b| b.name == name)
            .ok_or_else(|| DatasetError::NotFound {
                what: "benchmark",
                name: name.to_owned(),
            })
    }

    /// Indices of all machines belonging to `family`.
    pub fn machines_in_family(&self, family: ProcessorFamily) -> Vec<usize> {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.family == family)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released in `year`.
    pub fn machines_in_year(&self, year: u16) -> Vec<usize> {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year == year)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released strictly before `year`.
    pub fn machines_before_year(&self, year: u16) -> Vec<usize> {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year < year)
            .map(|(i, _)| i)
            .collect()
    }

    /// Exports the score table as CSV: header row of machine names, then
    /// one row per benchmark.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("benchmark");
        for m in &self.machines {
            out.push(',');
            out.push_str(&format!("{} {}", m.family, m.name).replace(',', ";"));
        }
        out.push('\n');
        for (bi, b) in self.benchmarks.iter().enumerate() {
            out.push_str(&b.name);
            for mi in 0..self.machines.len() {
                out.push_str(&format!(",{:.4}", self.score(bi, mi)));
            }
            out.push('\n');
        }
        out
    }
}

impl DatabaseView for PerfDatabase {
    fn n_benchmarks(&self) -> usize {
        PerfDatabase::n_benchmarks(self)
    }

    fn n_machines(&self) -> usize {
        PerfDatabase::n_machines(self)
    }

    fn benchmarks(&self) -> &[Benchmark] {
        PerfDatabase::benchmarks(self)
    }

    fn machines(&self) -> &[Machine] {
        PerfDatabase::machines(self)
    }

    fn score(&self, b: usize, m: usize) -> f64 {
        PerfDatabase::score(self, b, m)
    }

    fn machine_column(&self, m: usize) -> VecView<'_> {
        PerfDatabase::machine_column(self, m)
    }

    fn benchmark_row_segments(&self, b: usize) -> Vec<RowSegment<'_>> {
        vec![RowSegment {
            start: 0,
            scores: self.benchmark_row(b),
        }]
    }

    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix {
        // One-pass scattered gather over the dense matrix.
        self.scores.select(benchmarks, machines)
    }

    fn catalog_version(&self) -> u64 {
        PerfDatabase::catalog_version(self)
    }

    fn bucket_index(&self, n_components: usize, n_buckets: usize) -> Result<Arc<BucketIndex>> {
        self.bucket_memo
            .get_or_build((n_components, n_buckets), |_| {
                BucketIndex::build(self, n_components, n_buckets).map(Arc::new)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, DatasetConfig};

    fn db() -> PerfDatabase {
        generate(&DatasetConfig::default()).unwrap()
    }

    #[test]
    fn dimensions() {
        let db = db();
        assert_eq!(db.n_benchmarks(), 29);
        assert_eq!(db.n_machines(), 117);
        assert_eq!(db.benchmark_row(0).len(), 117);
        assert_eq!(db.machine_column(0).len(), 29);
    }

    #[test]
    fn row_column_consistency() {
        let db = db();
        assert_eq!(db.benchmark_row(3)[5], db.score(3, 5));
        assert_eq!(db.machine_column(5)[3], db.score(3, 5));
    }

    #[test]
    fn score_matrix_and_views_agree() {
        let db = db();
        let m = db.score_matrix();
        assert_eq!(m.shape(), (29, 117));
        assert_eq!(m[(3, 5)], db.score(3, 5));
        assert_eq!(db.machine_column(5).to_vec(), m.col(5));
        assert_eq!(db.benchmark_row(3), m.row(3));
    }

    #[test]
    fn lookup_by_name() {
        let db = db();
        let idx = db.benchmark_index("libquantum").unwrap();
        assert_eq!(db.benchmarks()[idx].name, "libquantum");
        assert!(db.benchmark_index("not-a-benchmark").is_err());
    }

    #[test]
    fn family_and_year_filters() {
        let db = db();
        let xeons = db.machines_in_family(ProcessorFamily::Xeon);
        assert_eq!(xeons.len(), 39); // 13 nicknames × 3
        let y2009 = db.machines_in_year(2009);
        assert!(!y2009.is_empty());
        let before = db.machines_before_year(2009);
        assert_eq!(y2009.len() + before.len(), 117); // catalog max year is 2009
    }

    #[test]
    fn csv_shape() {
        let db = db();
        let csv = db.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 30); // header + 29 benchmarks
        assert_eq!(lines[0].split(',').count(), 118); // name + 117 machines
    }

    #[test]
    fn new_validates() {
        let db = db();
        let bad = PerfDatabase::new(
            db.benchmarks().to_vec(),
            db.machines().to_vec(),
            vec![1.0; 5],
        );
        assert!(bad.is_err());
        let neg = PerfDatabase::new(
            db.benchmarks().to_vec(),
            db.machines().to_vec(),
            vec![-1.0; 29 * 117],
        );
        assert!(neg.is_err());
    }

    #[test]
    fn new_rejects_empty_benchmarks() {
        let db = db();
        // A 0 × 117 database would pass the old length check (0 scores for
        // a zero-area matrix) and panic later in every accessor; it must be
        // an explicit error instead.
        assert_eq!(
            PerfDatabase::new(Vec::new(), db.machines().to_vec(), Vec::new()),
            Err(DatasetError::Empty { what: "benchmarks" })
        );
    }

    #[test]
    fn new_rejects_empty_machines() {
        let db = db();
        assert_eq!(
            PerfDatabase::new(db.benchmarks().to_vec(), Vec::new(), Vec::new()),
            Err(DatasetError::Empty { what: "machines" })
        );
    }

    #[test]
    fn new_rejects_zero_area_matrix() {
        // Both dimensions empty: the zero-area matrix case. The benchmarks
        // check fires first; the point is that it cannot construct.
        assert_eq!(
            PerfDatabase::new(Vec::new(), Vec::new(), Vec::new()),
            Err(DatasetError::Empty { what: "benchmarks" })
        );
        // Non-empty scores with empty dimensions must not sneak through
        // either.
        let db = db();
        assert!(PerfDatabase::new(Vec::new(), db.machines().to_vec(), vec![1.0; 5]).is_err());
    }

    #[test]
    fn push_appends_columns_bitwise_and_bumps_version() {
        let mut grown = db();
        let reference = db();
        assert_eq!(grown.catalog_version(), 0);
        let batch: Vec<MachineIngest> = (0..3)
            .map(|i| MachineIngest {
                machine: reference.machines()[i].clone(),
                scores: (0..29).map(|b| reference.score(b, i)).collect(),
            })
            .collect();
        grown.push_machines(&batch).unwrap();
        assert_eq!(grown.n_machines(), 120);
        assert_eq!(grown.catalog_version(), 1);
        // Existing columns untouched, new columns read back bitwise.
        for b in 0..29 {
            for m in 0..117 {
                assert_eq!(grown.score(b, m).to_bits(), reference.score(b, m).to_bits());
            }
            for (i, entry) in batch.iter().enumerate() {
                assert_eq!(grown.score(b, 117 + i).to_bits(), entry.scores[b].to_bits());
            }
        }
        grown.push_machines(&batch[..1]).unwrap();
        assert_eq!(grown.catalog_version(), 2);
    }

    #[test]
    fn empty_push_is_a_noop_without_version_bump() {
        let mut grown = db();
        let before = grown.clone();
        grown.push_machines(&[]).unwrap();
        assert_eq!(grown, before);
        assert_eq!(grown.catalog_version(), 0);
    }

    #[test]
    fn push_rejects_mismatched_and_invalid_scores() {
        let mut grown = db();
        let before = grown.clone();
        let machine = grown.machines()[0].clone();
        assert_eq!(
            grown.push_machines(&[MachineIngest {
                machine: machine.clone(),
                scores: vec![1.0; 28],
            }]),
            Err(DatasetError::BenchmarkCountMismatch {
                expected: 29,
                got: 28
            })
        );
        assert!(matches!(
            grown.push_machines(&[MachineIngest {
                machine,
                scores: vec![-1.0; 29],
            }]),
            Err(DatasetError::InvalidConfig { name: "scores", .. })
        ));
        assert_eq!(grown, before, "failed pushes must leave the db unchanged");
    }

    #[test]
    fn trait_and_inherent_accessors_agree() {
        let db = db();
        let view: &dyn DatabaseView = &db;
        assert_eq!(view.n_benchmarks(), db.n_benchmarks());
        assert_eq!(view.n_machines(), db.n_machines());
        assert_eq!(view.score(3, 5).to_bits(), db.score(3, 5).to_bits());
        assert_eq!(
            view.machine_column(5).to_vec(),
            db.machine_column(5).to_vec()
        );
        let segments = view.benchmark_row_segments(3);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].start, 0);
        assert_eq!(segments[0].scores, db.benchmark_row(3));
        assert_eq!(view.benchmark_row_vec(3), db.benchmark_row(3));
        let sub = view.gather(&[0, 3], &[5, 2, 116]);
        assert_eq!(sub.shape(), (2, 3));
        assert_eq!(sub[(1, 2)].to_bits(), db.score(3, 116).to_bits());
        assert_eq!(view.n_shards(), 1);
    }
}
