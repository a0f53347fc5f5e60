//! Column-range sharding of the performance database.
//!
//! A [`ShardedPerfDatabase`] stores the same logical `benchmarks ×
//! machines` table as [`PerfDatabase`], partitioned by **machine range**:
//! shard `s` owns a contiguous block of machine columns as its own dense
//! [`Matrix`] plus the matching slice of machine metadata. Machine ranges
//! are balanced — when the shard count does not divide the machine count,
//! the first `n_machines % n_shards` shards are one column wider.
//!
//! Partitioning by machine range matches the read patterns of the
//! evaluation harnesses: a processor-family fold or a release-year era
//! selects machine index ranges that are contiguous in catalog order, so
//! those selections read from one shard (or a handful of neighbours) —
//! though a fold's complementary predictive gather still spans the
//! remaining shards. Scores are **copied, never recomputed** when
//! sharding, so every accessor is bitwise-identical to the dense backing
//! (`tests/shard_equivalence.rs` pins this).
//!
//! Beyond storage, each shard carries aggregate statistics
//! ([`crate::query::ShardStats`]: family set, release-year range,
//! per-benchmark score ranges) computed once at construction. The
//! [`DatabaseView::plan_machines`] override uses them to **prune shards**
//! that provably cannot satisfy a [`MachineFilter`], and
//! [`DatabaseView::gather`] hoists request-consecutive columns into
//! per-shard copy runs — both are pure access-path optimizations that
//! never change a returned byte.
//!
//! The database also supports **streaming ingest**
//! ([`ShardedPerfDatabase::push_machines`]): new machines append to the
//! tail shard, whose statistics are folded forward in place, and the tail
//! splits into balanced pieces once it outgrows the
//! [`ShardedPerfDatabase::with_split_width`] threshold. Every non-empty
//! ingest bumps a monotonically increasing catalog version
//! ([`DatabaseView::catalog_version`]) that the serving layer uses to
//! invalidate its result cache. A catalog grown incrementally is
//! bitwise-identical to the same catalog built at once
//! (`tests/ingest_cache.rs` pins this, including across a split).

use std::sync::Arc;

use datatrans_linalg::{Matrix, VecView};

use crate::benchmark::Benchmark;
use crate::bucket::{BucketIndex, BucketMemo};
use crate::database::{validate_ingest, MachineIngest, PerfDatabase};
use crate::machine::Machine;
use crate::query::{MachineFilter, PreparedFilter, QueryPlan, ShardStats};
use crate::view::{DatabaseView, RowSegment};
use crate::{DatasetError, Result};

/// One shard: a contiguous block of machine columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Global index of the shard's first machine column.
    start: usize,
    /// `benchmarks × width` score block (row-major, like the dense matrix).
    scores: Matrix,
}

impl Shard {
    /// Global index of the shard's first machine column.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of machine columns this shard owns.
    pub fn width(&self) -> usize {
        self.scores.cols()
    }

    /// Global machine index range `start .. start + width`.
    pub fn machine_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.width()
    }

    /// The shard's `benchmarks × width` score block.
    pub fn scores(&self) -> &Matrix {
        &self.scores
    }

    /// This shard's segment of benchmark row `b` (scores of machines
    /// `start .. start + width`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of bounds.
    pub fn row(&self, b: usize) -> &[f64] {
        self.scores.row(b)
    }
}

/// The performance database partitioned into column-range shards.
///
/// Implements [`DatabaseView`], so every consumer generic over the view
/// trait works on a sharded backing unchanged — and bitwise-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPerfDatabase {
    benchmarks: Vec<Benchmark>,
    machines: Vec<Machine>,
    shards: Vec<Shard>,
    /// Per-shard aggregate statistics (family set, year range, score
    /// ranges), computed at construction and updated in place on ingest;
    /// consulted by the shard-pruning planner.
    stats: Vec<ShardStats>,
    /// Width of the trailing (narrow) shards at construction:
    /// `n_machines / n_shards`. Only meaningful while `balanced` holds.
    base_width: usize,
    /// Number of leading shards that are one column wider:
    /// `n_machines % n_shards`. Only meaningful while `balanced` holds.
    wide_shards: usize,
    /// Whether shard widths still follow the balanced construction layout
    /// (`base_width`/`wide_shards`). True from [`Self::from_dense`];
    /// cleared by [`Self::push_machines`], after which
    /// [`Self::shard_of`] binary-searches shard starts instead of using
    /// the O(1) arithmetic.
    balanced: bool,
    /// Width threshold past which the tail shard is split after an ingest
    /// (`None`: the tail grows without bound).
    split_width: Option<usize>,
    /// Ingest counter: 0 at construction, +1 per non-empty
    /// [`Self::push_machines`] call.
    catalog_version: u64,
    /// Bucket indexes built over this catalog version.
    bucket_memo: BucketMemo,
}

impl ShardedPerfDatabase {
    /// Assembles a sharded database from parts (same validation as
    /// [`PerfDatabase::new`], then sharding).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Empty`]/[`DatasetError::InvalidConfig`] under
    /// the same conditions as [`PerfDatabase::new`], plus
    /// [`DatasetError::InvalidConfig`] for a shard count of zero or greater
    /// than the machine count.
    pub fn new(
        benchmarks: Vec<Benchmark>,
        machines: Vec<Machine>,
        scores: Vec<f64>,
        n_shards: usize,
    ) -> Result<Self> {
        let dense = PerfDatabase::new(benchmarks, machines, scores)?;
        Self::from_dense(&dense, n_shards)
    }

    /// Partitions a dense database into `n_shards` column-range shards.
    ///
    /// Shard widths are balanced: the first `n_machines % n_shards` shards
    /// get `n_machines / n_shards + 1` columns, the rest one less. Scores
    /// are copied verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `n_shards` is zero or
    /// exceeds the machine count (a shard must own at least one column).
    pub fn from_dense(db: &PerfDatabase, n_shards: usize) -> Result<Self> {
        let n_machines = db.n_machines();
        if n_shards == 0 || n_shards > n_machines {
            return Err(DatasetError::InvalidConfig {
                name: "n_shards",
                value: format!("{n_shards} (must be 1..={n_machines} machines)"),
            });
        }
        let base_width = n_machines / n_shards;
        let wide_shards = n_machines % n_shards;
        let n_benchmarks = db.n_benchmarks();
        let mut shards = Vec::with_capacity(n_shards);
        let mut stats = Vec::with_capacity(n_shards);
        let mut start = 0;
        for s in 0..n_shards {
            let width = base_width + usize::from(s < wide_shards);
            let mut block = Vec::with_capacity(n_benchmarks * width);
            for b in 0..n_benchmarks {
                block.extend_from_slice(&db.benchmark_row(b)[start..start + width]);
            }
            let scores = Matrix::from_vec(n_benchmarks, width, block)
                .expect("shard block has exactly benchmarks × width entries");
            stats.push(ShardStats::compute(
                &db.machines()[start..start + width],
                &scores,
            ));
            shards.push(Shard { start, scores });
            start += width;
        }
        debug_assert_eq!(start, n_machines);
        Ok(ShardedPerfDatabase {
            benchmarks: db.benchmarks().to_vec(),
            machines: db.machines().to_vec(),
            shards,
            stats,
            base_width,
            wide_shards,
            balanced: true,
            split_width: None,
            catalog_version: db.catalog_version(),
            bucket_memo: BucketMemo::default(),
        })
    }

    /// Sets the tail-shard split threshold (builder style): after an
    /// ingest, any shard wider than `width` columns is split into balanced
    /// pieces of at most `width` columns. The default (no threshold) lets
    /// the tail shard grow without bound.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `width` is zero.
    pub fn with_split_width(mut self, width: usize) -> Result<Self> {
        if width == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "split_width",
                value: "0 (a shard must own at least one column)".into(),
            });
        }
        self.split_width = Some(width);
        Ok(self)
    }

    /// The tail-shard split threshold, if one is set.
    pub fn split_width(&self) -> Option<usize> {
        self.split_width
    }

    /// The catalog version: 0 at construction (or the source dense
    /// database's version), incremented by every non-empty
    /// [`Self::push_machines`] call. See [`PerfDatabase::catalog_version`].
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Appends machines to the **tail shard**, updating its
    /// [`ShardStats`] in place, then splits the tail into balanced pieces
    /// if it grew past the [`Self::with_split_width`] threshold. Bumps the
    /// catalog version and drops the memoized bucket indexes.
    ///
    /// An empty batch is a no-op and does **not** bump the version. Scores
    /// are stored verbatim — a catalog grown through this method is
    /// bitwise-identical (every [`DatabaseView`] accessor) to the same
    /// catalog built at once, whatever the shard layout.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PerfDatabase::push_machines`]; on error the
    /// database is unchanged.
    pub fn push_machines(&mut self, batch: &[MachineIngest]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let n_benchmarks = self.benchmarks.len();
        validate_ingest(batch, n_benchmarks)?;
        // Rebuild the tail shard's block with the new columns appended.
        let tail = self.shards.last_mut().expect("at least one shard");
        let new_width = tail.scores.cols() + batch.len();
        let mut block = Vec::with_capacity(n_benchmarks * new_width);
        for b in 0..n_benchmarks {
            block.extend_from_slice(tail.scores.row(b));
            block.extend(batch.iter().map(|entry| entry.scores[b]));
        }
        tail.scores = Matrix::from_vec(n_benchmarks, new_width, block)
            .expect("appended shard block has exactly benchmarks × width entries");
        // Fold each appended machine into the tail's statistics in place
        // (an ingest entry's score vector IS its machine column).
        let stats = self.stats.last_mut().expect("one stats per shard");
        for entry in batch {
            stats.absorb_machine(&entry.machine, &entry.scores);
            self.machines.push(entry.machine.clone());
        }
        self.split_tail_if_oversized();
        // Widths no longer follow the balanced construction layout;
        // shard_of falls back to binary search.
        self.balanced = false;
        self.catalog_version += 1;
        self.bucket_memo.clear();
        Ok(())
    }

    /// Splits the tail shard into balanced pieces of at most `split_width`
    /// columns, recomputing each piece's statistics from its stored block.
    /// No-op without a threshold or while the tail fits.
    fn split_tail_if_oversized(&mut self) {
        let Some(limit) = self.split_width else {
            return;
        };
        let width = self.shards.last().expect("at least one shard").width();
        if width <= limit {
            return;
        }
        let tail = self.shards.pop().expect("at least one shard");
        self.stats.pop();
        let pieces = width.div_ceil(limit);
        let base = width / pieces;
        let wide = width % pieces;
        let n_benchmarks = self.benchmarks.len();
        let mut local_start = 0;
        for p in 0..pieces {
            let w = base + usize::from(p < wide);
            let mut block = Vec::with_capacity(n_benchmarks * w);
            for b in 0..n_benchmarks {
                block.extend_from_slice(&tail.row(b)[local_start..local_start + w]);
            }
            let shard = Shard {
                start: tail.start + local_start,
                scores: Matrix::from_vec(n_benchmarks, w, block)
                    .expect("split block has exactly benchmarks × width entries"),
            };
            self.stats.push(ShardStats::compute(
                &self.machines[shard.machine_range()],
                &shard.scores,
            ));
            self.shards.push(shard);
            local_start += w;
        }
        debug_assert_eq!(local_start, width);
    }

    /// The aggregate statistics of shard `s` (family set, year range,
    /// per-benchmark score ranges).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn shard_stats(&self, s: usize) -> &ShardStats {
        &self.stats[s]
    }

    /// Reassembles the dense equivalent (bitwise-identical scores; the
    /// catalog version carries over).
    pub fn to_dense(&self) -> PerfDatabase {
        let n_benchmarks = self.benchmarks.len();
        let mut scores = Vec::with_capacity(n_benchmarks * self.machines.len());
        for b in 0..n_benchmarks {
            for shard in &self.shards {
                scores.extend_from_slice(shard.row(b));
            }
        }
        let mut dense = PerfDatabase::new(self.benchmarks.clone(), self.machines.clone(), scores)
            .expect("a valid sharded database reassembles into a valid dense one");
        dense.set_catalog_version(self.catalog_version);
        dense
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in machine order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// The machine metadata slice owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn shard_machines(&self, s: usize) -> &[Machine] {
        &self.machines[self.shards[s].machine_range()]
    }

    /// Index of the shard owning machine column `m` — O(1) arithmetic
    /// while the balanced construction layout holds, binary search over
    /// shard starts once an ingest has perturbed the widths.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds. Externally supplied indices (e.g.
    /// network input) should go through
    /// [`ShardedPerfDatabase::checked_shard_of`] instead.
    pub fn shard_of(&self, m: usize) -> usize {
        self.checked_shard_of(m)
            .unwrap_or_else(|e| panic!("shard_of: {e}"))
    }

    /// Fallible [`ShardedPerfDatabase::shard_of`]: returns a typed error
    /// instead of panicking when `m` is out of bounds, so externally
    /// supplied machine indices (the serving edge accepts arbitrary ones
    /// off the wire) can be resolved without risking the process.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfBounds`] when
    /// `m >= n_machines()`; the bounds check runs *before* any shard
    /// arithmetic, so neither the balanced-layout division nor the
    /// `partition_point` fallback can underflow or index out of range.
    pub fn checked_shard_of(&self, m: usize) -> Result<usize> {
        if m >= self.machines.len() {
            return Err(DatasetError::IndexOutOfBounds {
                what: "machine",
                index: m,
                bound: self.machines.len(),
            });
        }
        Ok(if self.balanced {
            let wide_cols = self.wide_shards * (self.base_width + 1);
            if m < wide_cols {
                m / (self.base_width + 1)
            } else {
                self.wide_shards + (m - wide_cols) / self.base_width
            }
        } else {
            // Shard starts are strictly increasing and start at 0; the
            // owner is the last shard starting at or before m.
            self.shards.partition_point(|s| s.start <= m) - 1
        })
    }

    /// Locates machine column `m`: `(shard index, column local to shard)`.
    fn locate(&self, m: usize) -> (usize, usize) {
        let s = self.shard_of(m);
        (s, m - self.shards[s].start)
    }

    /// Hoists a requested machine-index sequence into maximal copy runs:
    /// each run is a stretch of columns that are consecutive *both* in the
    /// request and within one shard's storage, so it copies as one
    /// `copy_from_slice` per output row. Family and era selections are
    /// contiguous ranges, so they hoist into roughly one run per shard
    /// touched; a fully scattered request degenerates to width-1 runs.
    fn gather_runs(&self, machines: &[usize]) -> Vec<GatherRun> {
        let mut runs: Vec<GatherRun> = Vec::new();
        for (out, &m) in machines.iter().enumerate() {
            let (shard, local) = self.locate(m);
            if let Some(last) = runs.last_mut() {
                if last.shard == shard && last.local_start + last.len == local {
                    last.len += 1;
                    continue;
                }
            }
            runs.push(GatherRun {
                out_start: out,
                shard,
                local_start: local,
                len: 1,
            });
        }
        runs
    }
}

/// One hoisted copy run of a gather: `len` request-consecutive columns
/// stored contiguously in `shard` starting at `local_start`, landing at
/// `out_start` in the output row.
#[derive(Debug, Clone, Copy)]
struct GatherRun {
    out_start: usize,
    shard: usize,
    local_start: usize,
    len: usize,
}

impl DatabaseView for ShardedPerfDatabase {
    fn n_benchmarks(&self) -> usize {
        self.benchmarks.len()
    }

    fn n_machines(&self) -> usize {
        self.machines.len()
    }

    fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    fn machines(&self) -> &[Machine] {
        &self.machines
    }

    fn score(&self, b: usize, m: usize) -> f64 {
        assert!(b < self.benchmarks.len(), "benchmark index out of bounds");
        let (s, local) = self.locate(m);
        self.shards[s].scores[(b, local)]
    }

    fn machine_column(&self, m: usize) -> VecView<'_> {
        let (s, local) = self.locate(m);
        self.shards[s].scores.col_view(local)
    }

    fn benchmark_row_segments(&self, b: usize) -> Vec<RowSegment<'_>> {
        self.shards
            .iter()
            .map(|shard| RowSegment {
                start: shard.start,
                scores: shard.row(b),
            })
            .collect()
    }

    fn gather(&self, benchmarks: &[usize], machines: &[usize]) -> Matrix {
        // Locate every requested column once, hoisting request-consecutive
        // columns into per-shard copy runs; then copy row-major so each
        // shard block is read sequentially per output row. Values are moved
        // verbatim, so the result is bitwise-identical to a dense gather.
        for &b in benchmarks {
            assert!(b < self.benchmarks.len(), "benchmark index out of bounds");
        }
        let runs = self.gather_runs(machines);
        let mut out = Matrix::zeros(benchmarks.len(), machines.len());
        for (i, &b) in benchmarks.iter().enumerate() {
            let row = out.row_mut(i);
            for run in &runs {
                let src =
                    &self.shards[run.shard].row(b)[run.local_start..run.local_start + run.len];
                row[run.out_start..run.out_start + run.len].copy_from_slice(src);
            }
        }
        out
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    fn bucket_index(&self, n_components: usize, n_buckets: usize) -> Result<Arc<BucketIndex>> {
        self.bucket_memo.get_or_build(self, n_components, n_buckets)
    }

    fn plan_machines(&self, filter: &MachineFilter) -> QueryPlan {
        // Conservative shard pruning: skip a shard only when its
        // statistics prove no machine can match (family absent, year
        // ranges disjoint, best score below threshold) or the subset
        // clause has no member in the shard's machine range. Scanned
        // shards are visited in machine order, so the machine list is
        // identical to the full scan's.
        let prepared = PreparedFilter::new(filter);
        let mut machines = Vec::new();
        let mut shards_scanned = 0;
        let mut shards_pruned = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let range = shard.machine_range();
            if !self.stats[s].may_match(filter) || !prepared.subset_intersects(range.clone()) {
                shards_pruned += 1;
                continue;
            }
            shards_scanned += 1;
            machines.extend(range.filter(|&m| prepared.matches(self, m)));
        }
        QueryPlan {
            machines,
            shards_scanned,
            shards_pruned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, DatasetConfig};

    fn dense() -> PerfDatabase {
        generate(&DatasetConfig::default()).unwrap()
    }

    #[test]
    fn shard_widths_are_balanced_and_cover_all_machines() {
        let db = dense();
        for n_shards in [1, 2, 3, 4, 5, 8, 116, 117] {
            let sharded = ShardedPerfDatabase::from_dense(&db, n_shards).unwrap();
            assert_eq!(sharded.n_shards(), n_shards);
            let widths: Vec<usize> = sharded.shards().iter().map(Shard::width).collect();
            assert_eq!(widths.iter().sum::<usize>(), 117);
            let min = *widths.iter().min().unwrap();
            let max = *widths.iter().max().unwrap();
            assert!(max - min <= 1, "{n_shards} shards: widths {widths:?}");
            // Contiguous, in order.
            let mut next = 0;
            for shard in sharded.shards() {
                assert_eq!(shard.start(), next);
                next = shard.machine_range().end;
            }
            assert_eq!(next, 117);
        }
    }

    #[test]
    fn shard_of_agrees_with_ranges() {
        let db = dense();
        for n_shards in [1, 2, 5, 39, 117] {
            let sharded = ShardedPerfDatabase::from_dense(&db, n_shards).unwrap();
            for m in 0..117 {
                let s = sharded.shard_of(m);
                assert!(
                    sharded.shard(s).machine_range().contains(&m),
                    "{n_shards} shards, machine {m} -> shard {s}"
                );
            }
        }
    }

    #[test]
    fn checked_shard_of_rejects_out_of_range_machines() {
        // Regression: an arbitrary (e.g. wire-supplied) machine index at or
        // past n_machines must yield a typed error, never a panic — on the
        // balanced construction layout AND on the binary-search fallback an
        // ingest switches to.
        let db = dense();
        let mut sharded = ShardedPerfDatabase::from_dense(&db, 8).unwrap();
        for m in [117, 118, 1_000_000, usize::MAX] {
            assert_eq!(
                sharded.checked_shard_of(m),
                Err(DatasetError::IndexOutOfBounds {
                    what: "machine",
                    index: m,
                    bound: 117,
                })
            );
        }
        let batch = crate::generator::synthesize_ingest(7, sharded.benchmarks(), 3, 0.015).unwrap();
        sharded.push_machines(&batch).unwrap();
        for m in 0..120 {
            let s = sharded.checked_shard_of(m).unwrap();
            assert!(sharded.shard(s).machine_range().contains(&m));
            assert_eq!(s, sharded.shard_of(m));
        }
        assert_eq!(
            sharded.checked_shard_of(120),
            Err(DatasetError::IndexOutOfBounds {
                what: "machine",
                index: 120,
                bound: 120,
            })
        );
    }

    #[test]
    fn round_trips_through_dense_bitwise() {
        let db = dense();
        for n_shards in [1, 4, 7, 117] {
            let sharded = ShardedPerfDatabase::from_dense(&db, n_shards).unwrap();
            assert_eq!(sharded.to_dense(), db, "{n_shards} shards");
        }
    }

    #[test]
    fn shard_machines_slice_matches_metadata() {
        let db = dense();
        let sharded = ShardedPerfDatabase::from_dense(&db, 5).unwrap();
        for s in 0..sharded.n_shards() {
            let range = sharded.shard(s).machine_range();
            assert_eq!(sharded.shard_machines(s), &db.machines()[range]);
        }
    }

    #[test]
    fn rejects_invalid_shard_counts() {
        let db = dense();
        assert!(matches!(
            ShardedPerfDatabase::from_dense(&db, 0),
            Err(DatasetError::InvalidConfig {
                name: "n_shards",
                ..
            })
        ));
        assert!(matches!(
            ShardedPerfDatabase::from_dense(&db, 118),
            Err(DatasetError::InvalidConfig {
                name: "n_shards",
                ..
            })
        ));
    }

    #[test]
    fn shard_stats_cover_every_machine() {
        let db = dense();
        let sharded = ShardedPerfDatabase::from_dense(&db, 5).unwrap();
        for s in 0..sharded.n_shards() {
            let stats = sharded.shard_stats(s);
            let (y_min, y_max) = stats.year_range();
            for m in sharded.shard(s).machine_range() {
                let machine = &db.machines()[m];
                assert!(stats.families().contains(&machine.family), "shard {s}");
                assert!((y_min..=y_max).contains(&machine.year), "shard {s}");
                for b in 0..db.n_benchmarks() {
                    let (lo, hi) = stats.score_range(b);
                    let score = db.score(b, m);
                    assert!(lo <= score && score <= hi, "shard {s} b={b} m={m}");
                }
            }
        }
    }

    #[test]
    fn pruned_plans_match_full_scans_on_seeded_random_catalogs() {
        use crate::generator::{generate_scaled, ScaleConfig};
        use crate::machine::ProcessorFamily;
        use crate::query::{scan_machines, MachineFilter};

        // Seeded random shapes and shard counts (including non-dividing
        // ones): for every filter, the statistics-pruned plan must list
        // exactly the machines a full metadata scan finds, and a gather of
        // the planned columns — followed by repeated and descending ones
        // that defeat run coalescing — must be bitwise-identical to the
        // dense backing's.
        for (seed, n_machines, n_shards) in [
            (1u64, 117usize, 5usize),
            (2, 64, 7),
            (3, 230, 9),
            (4, 33, 33),
        ] {
            let db = generate_scaled(&ScaleConfig {
                seed: 0x9A17_05EC ^ seed,
                n_machines,
                ..ScaleConfig::default()
            })
            .unwrap();
            let sharded = ShardedPerfDatabase::from_dense(&db, n_shards).unwrap();
            let threshold = db.score(2, n_machines / 2);
            let filters = [
                MachineFilter::all(),
                MachineFilter::family(ProcessorFamily::Xeon),
                MachineFilter::family(ProcessorFamily::Itanium).with_years(2007, 2009),
                MachineFilter::years(2004, 2006),
                MachineFilter::years(1990, 1991), // matches nothing
                MachineFilter::all().with_min_score(2, threshold),
                MachineFilter::all().with_subset(vec![0, n_machines / 2, n_machines - 1]),
                MachineFilter::family(ProcessorFamily::Power6)
                    .with_subset((0..n_machines).step_by(3).collect()),
            ];
            for filter in &filters {
                let plan = DatabaseView::plan_machines(&sharded, filter);
                let full = scan_machines(&db, filter);
                assert_eq!(
                    plan.machines, full,
                    "{n_machines} machines @ {n_shards} shards, {filter:?}"
                );
                assert_eq!(plan.shards_scanned + plan.shards_pruned, n_shards);
                let rows: Vec<usize> = (0..db.n_benchmarks()).collect();
                // [116, 57, 57, 0] on the 117-machine catalog.
                let half = n_machines / 2 - 1;
                let mut cols = plan.machines;
                cols.extend([n_machines - 1, half, half, 0]);
                let sharded_gather = DatabaseView::gather(&sharded, &rows, &cols);
                let dense_gather = DatabaseView::gather(&db, &rows, &cols);
                assert_eq!(sharded_gather.shape(), dense_gather.shape());
                for i in 0..dense_gather.rows() {
                    for j in 0..dense_gather.cols() {
                        assert_eq!(
                            sharded_gather[(i, j)].to_bits(),
                            dense_gather[(i, j)].to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn family_plans_actually_prune_shards() {
        let db = dense();
        let sharded = ShardedPerfDatabase::from_dense(&db, 8).unwrap();
        // The catalog keeps families contiguous, so a one-family
        // restriction must touch only the shard(s) spanning that family's
        // column range.
        let xeons = db.machines_in_family(crate::machine::ProcessorFamily::Xeon);
        let first_shard = sharded.shard_of(xeons[0]);
        let last_shard = sharded.shard_of(*xeons.last().unwrap());
        let plan = DatabaseView::plan_machines(
            &sharded,
            &MachineFilter::family(crate::machine::ProcessorFamily::Xeon),
        );
        assert_eq!(plan.machines, xeons);
        assert!(plan.shards_scanned <= last_shard - first_shard + 1);
        assert!(plan.shards_pruned >= 8 - (last_shard - first_shard + 1));
        assert!(plan.shards_pruned > 0, "8 shards, one family: must prune");
    }

    #[test]
    fn empty_index_gathers_are_well_formed() {
        let db = dense();
        let sharded = ShardedPerfDatabase::from_dense(&db, 4).unwrap();
        let rows: Vec<usize> = (0..db.n_benchmarks()).collect();
        let cols: Vec<usize> = vec![3, 99];
        for view in [&sharded as &dyn DatabaseView, &db as &dyn DatabaseView] {
            assert_eq!(view.gather(&[], &cols).shape(), (0, 2));
            assert_eq!(view.gather(&rows, &[]).shape(), (db.n_benchmarks(), 0));
            assert_eq!(view.gather(&[], &[]).shape(), (0, 0));
        }
    }

    fn ingest_batch(n: usize, offset: usize, db: &PerfDatabase) -> Vec<MachineIngest> {
        // Recycle existing catalog columns as ingest entries so scores are
        // valid and easy to cross-check.
        (0..n)
            .map(|i| {
                let src = (offset + i) % db.n_machines();
                MachineIngest {
                    machine: db.machines()[src].clone(),
                    scores: (0..db.n_benchmarks()).map(|b| db.score(b, src)).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn push_appends_to_tail_and_updates_stats_in_place() {
        let db = dense();
        let mut sharded = ShardedPerfDatabase::from_dense(&db, 5).unwrap();
        let batch = ingest_batch(4, 7, &db);
        sharded.push_machines(&batch).unwrap();
        assert_eq!(sharded.n_shards(), 5, "no threshold: tail absorbs");
        assert_eq!(sharded.n_machines(), 121);
        assert_eq!(sharded.catalog_version(), 1);
        // Appended columns read back bitwise.
        for (i, entry) in batch.iter().enumerate() {
            let m = 117 + i;
            assert_eq!(&sharded.machines()[m], &entry.machine);
            for b in 0..sharded.n_benchmarks() {
                assert_eq!(
                    DatabaseView::score(&sharded, b, m).to_bits(),
                    entry.scores[b].to_bits()
                );
            }
        }
        // Tail stats still cover every machine in the tail's (grown) range.
        let s = sharded.n_shards() - 1;
        let stats = sharded.shard_stats(s);
        let (y_min, y_max) = stats.year_range();
        for m in sharded.shard(s).machine_range() {
            let machine = &sharded.machines()[m];
            assert!(stats.families().contains(&machine.family));
            assert!((y_min..=y_max).contains(&machine.year));
            for b in 0..sharded.n_benchmarks() {
                let (lo, hi) = stats.score_range(b);
                let score = DatabaseView::score(&sharded, b, m);
                assert!(lo <= score && score <= hi, "b={b} m={m}");
            }
        }
    }

    #[test]
    fn oversized_tail_splits_into_balanced_covering_pieces() {
        let db = dense();
        let mut sharded = ShardedPerfDatabase::from_dense(&db, 5)
            .unwrap()
            .with_split_width(25)
            .unwrap();
        assert_eq!(sharded.split_width(), Some(25));
        // Tail starts at width 23; +30 = 53 > 25 splits into ceil(53/25)=3
        // pieces of widths 18/18/17.
        sharded.push_machines(&ingest_batch(30, 0, &db)).unwrap();
        assert_eq!(sharded.n_shards(), 7);
        let widths: Vec<usize> = sharded.shards().iter().map(Shard::width).collect();
        assert_eq!(&widths[4..], &[18, 18, 17]);
        assert!(widths.iter().all(|&w| w <= 25), "widths {widths:?}");
        // Shards stay contiguous and cover everything; shard_of agrees.
        let mut next = 0;
        for (s, shard) in sharded.shards().iter().enumerate() {
            assert_eq!(shard.start(), next);
            next = shard.machine_range().end;
            for m in shard.machine_range() {
                assert_eq!(sharded.shard_of(m), s);
            }
        }
        assert_eq!(next, 147);
        // Every split piece's stats cover its machines.
        for s in 0..sharded.n_shards() {
            let stats = sharded.shard_stats(s);
            for m in sharded.shard(s).machine_range() {
                for b in 0..sharded.n_benchmarks() {
                    let (lo, hi) = stats.score_range(b);
                    let score = DatabaseView::score(&sharded, b, m);
                    assert!(lo <= score && score <= hi, "shard {s} b={b} m={m}");
                }
            }
        }
    }

    #[test]
    fn empty_push_is_a_noop_without_version_bump() {
        let db = dense();
        let mut sharded = ShardedPerfDatabase::from_dense(&db, 4).unwrap();
        let before = sharded.clone();
        sharded.push_machines(&[]).unwrap();
        assert_eq!(sharded, before);
        assert_eq!(sharded.catalog_version(), 0);
    }

    #[test]
    fn mismatched_ingest_is_rejected_and_leaves_db_unchanged() {
        let db = dense();
        let mut sharded = ShardedPerfDatabase::from_dense(&db, 4).unwrap();
        let before = sharded.clone();
        let mut batch = ingest_batch(1, 0, &db);
        batch[0].scores.pop();
        assert!(matches!(
            sharded.push_machines(&batch),
            Err(DatasetError::BenchmarkCountMismatch {
                expected: 29,
                got: 28
            })
        ));
        assert_eq!(sharded, before);
    }

    #[test]
    fn version_is_monotonic_and_survives_to_dense() {
        let db = dense();
        let mut sharded = ShardedPerfDatabase::from_dense(&db, 4).unwrap();
        assert_eq!(DatabaseView::catalog_version(&sharded), 0);
        for expected in 1..=3u64 {
            sharded.push_machines(&ingest_batch(2, 0, &db)).unwrap();
            assert_eq!(sharded.catalog_version(), expected);
        }
        assert_eq!(sharded.to_dense().catalog_version(), 3);
    }

    #[test]
    fn rejects_zero_split_width() {
        let db = dense();
        assert!(matches!(
            ShardedPerfDatabase::from_dense(&db, 4)
                .unwrap()
                .with_split_width(0),
            Err(DatasetError::InvalidConfig {
                name: "split_width",
                ..
            })
        ));
    }
}
