//! The backing-agnostic read surface of the performance database.
//!
//! The paper's database is a single dense 29 × 117 matrix; the serving-
//! scale system partitions the same `benchmarks × machines` table into
//! column-range shards ([`crate::sharded::ShardedPerfDatabase`]). Every
//! consumer in `core`/`experiments` — task gathers, the evaluation
//! harnesses, selection, serving — reads the database exclusively through
//! the [`DatabaseView`] trait defined here, so the dense and sharded
//! backings are interchangeable and provably (bitwise) equivalent; the
//! cross-shard equivalence test suite pins that contract.
//!
//! # Contract
//!
//! All implementations view the *same logical table*: `score(b, m)` is the
//! SPEC-style ratio of benchmark `b` on machine `m`, machine metadata is
//! ordered identically, and [`DatabaseView::gather`] copies the requested
//! submatrix in request order. A sharded backing must return exactly the
//! same `f64` bits as the dense backing it was built from — values are
//! stored, never recomputed, so partitioning can never perturb a
//! prediction.

use datatrans_linalg::{Matrix, VecView};

use crate::benchmark::Benchmark;
use crate::machine::{Machine, ProcessorFamily};
use crate::query::{scan_machines, MachineFilter, QueryPlan};
use crate::{DatasetError, Result};

/// One contiguous run of a benchmark's row, as stored by one shard.
///
/// A dense backing yields a single segment covering every machine; a
/// sharded backing yields one segment per shard, in machine order. Segment
/// `scores[i]` is the score of machine `start + i`.
#[derive(Debug, Clone, Copy)]
pub struct RowSegment<'a> {
    /// Global index of the first machine covered by this segment.
    pub start: usize,
    /// Scores of machines `start .. start + scores.len()`, borrowed from
    /// the backing storage.
    pub scores: &'a [f64],
}

/// Read access to a `benchmarks × machines` performance database,
/// independent of the backing layout (dense or column-range sharded).
///
/// The trait is object-safe, so a backing chosen at run time can be
/// handed around as `&dyn DatabaseView`.
pub trait DatabaseView: Sync {
    /// Number of benchmarks (logical rows).
    fn n_benchmarks(&self) -> usize;

    /// Number of machines (logical columns).
    fn n_machines(&self) -> usize;

    /// Benchmark metadata, in row order.
    fn benchmarks(&self) -> &[Benchmark];

    /// Machine metadata, in column order.
    fn machines(&self) -> &[Machine];

    /// Score of benchmark `b` on machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn score(&self, b: usize, m: usize) -> f64;

    /// All scores of one machine across benchmarks, as a zero-copy strided
    /// view into the backing storage.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    fn machine_column(&self, m: usize) -> VecView<'_>;

    /// The contiguous storage segments of benchmark row `b`, in machine
    /// order (dense: one segment; sharded: one per shard).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of bounds.
    fn benchmark_row_segments(&self, b: usize) -> Vec<RowSegment<'_>>;

    /// Copies the `benchmarks × machines` submatrix selected by arbitrary
    /// index subsets, in request order — the gather behind
    /// task construction.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix;

    /// Number of storage shards backing this view (dense: 1).
    fn n_shards(&self) -> usize {
        1
    }

    /// The backing catalog's version counter: 0 for a freshly built
    /// catalog, incremented by every non-empty machine ingest. The serving
    /// layer keys its result cache on `(request fingerprint, version)`, so
    /// a moved version drops every stale entry. Default: 0 (an immutable
    /// view never changes).
    fn catalog_version(&self) -> u64 {
        0
    }

    /// Resolves a machine restriction to a [`QueryPlan`]: the matching
    /// machine indices in ascending catalog order, plus how many shards
    /// the planner scanned versus pruned.
    ///
    /// The default implementation scans every machine (one logical shard).
    /// The sharded backing overrides it with a statistics-pruned plan that
    /// skips shards which provably cannot match — the **machine list is
    /// identical either way**; only the amount of storage touched differs.
    ///
    /// # Panics
    ///
    /// Panics if the filter references an out-of-range benchmark or
    /// machine index (validate with [`MachineFilter::invalid_index`]
    /// first where the filter is untrusted input).
    fn plan_machines(&self, filter: &MachineFilter) -> QueryPlan {
        QueryPlan {
            machines: scan_machines(self, filter),
            shards_scanned: 1,
            shards_pruned: 0,
        }
    }

    /// Benchmark row `b` as one owned contiguous vector (concatenated
    /// segments).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of bounds.
    fn benchmark_row_vec(&self, b: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_machines());
        for segment in self.benchmark_row_segments(b) {
            out.extend_from_slice(segment.scores);
        }
        out
    }

    /// Looks up a benchmark index by name.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::NotFound`] if no benchmark has that name.
    fn benchmark_index(&self, name: &str) -> Result<usize> {
        self.benchmarks()
            .iter()
            .position(|b| b.name == name)
            .ok_or_else(|| DatasetError::NotFound {
                what: "benchmark",
                name: name.to_owned(),
            })
    }

    /// Indices of all machines belonging to `family`.
    fn machines_in_family(&self, family: ProcessorFamily) -> Vec<usize> {
        self.machines()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.family == family)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released in `year`.
    fn machines_in_year(&self, year: u16) -> Vec<usize> {
        self.machines()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year == year)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all machines released strictly before `year`.
    fn machines_before_year(&self, year: u16) -> Vec<usize> {
        self.machines()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.year < year)
            .map(|(i, _)| i)
            .collect()
    }
}
