//! The PCA bucket index behind approximate serving: a coarse partition of
//! the machine catalog used to short-circuit exact model evaluation.
//!
//! [`BucketIndex::build`] projects every machine's benchmark column into
//! the top-`c` principal components of the **log-score** space (SPEC
//! ratios are ratio-scaled, and the serving models fit in log domain, so
//! machine similarity lives there too — the same convention as the
//! machine-space analysis in `core`), then assigns each machine to one of
//! `B` equal-width buckets along the leading component. Each non-empty
//! bucket carries
//!
//! * its member machines (ascending catalog order),
//! * its component-space centroid (the mean projection of its members),
//!   and
//! * a **reconstructed benchmark-space centroid column**: the centroid
//!   mapped back through the kept components and exponentiated out of log
//!   space. The reconstruction is strictly positive, so the serving
//!   models' log-domain fits accept it as a synthetic "machine" — the
//!   coarse ranking scores exactly these pseudo-machines.
//!
//! The index is a pure function of `(catalog, n_components, n_buckets)`:
//! it reads scores only through [`DatabaseView`], whose dense and sharded
//! backings return identical `f64` bits, and every reduction runs in a
//! fixed sequential order — so the index (and anything derived from it)
//! is bitwise-identical across backings and thread counts. It stamps the
//! [`DatabaseView::catalog_version`] it was built at; after an ingest
//! moves the version, rebuilding from the grown catalog is **identical to
//! building from scratch** (there is no incremental state to drift).
//!
//! Because the index depends on the catalog bytes alone, each backing
//! builds it once per catalog version: [`DatabaseView::bucket_index`]
//! answers from a `BucketMemo` the backing owns, and the backing's
//! `push_machines` clears that memo. A memoized index is the very value
//! [`BucketIndex::build`] returns, so which thread built it, and when,
//! never shows in a served byte.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use datatrans_linalg::Matrix;
use datatrans_ml::pca::Pca;

use crate::view::DatabaseView;
use crate::{DatasetError, Result};

/// Most indexes one [`BucketMemo`] holds. `(n_components, n_buckets)`
/// arrives off the wire, so the memo is bounded; past the bound the
/// oldest entry goes first.
const MEMO_CAPACITY: usize = 8;

/// One memoized build: empty until its first caller finishes building.
type MemoCell = Arc<OnceLock<Result<Arc<BucketIndex>>>>;

/// A backing's memo of built bucket indexes for its current catalog,
/// keyed by `(n_components, n_buckets)` and holding at most
/// [`MEMO_CAPACITY`] entries.
///
/// The lock is held only to find or insert a key's cell; the build runs
/// outside it, in the cell's [`OnceLock::get_or_init`]. A second caller
/// of a key that is being built waits for that build instead of
/// repeating it, and distinct keys build in parallel. A build error is
/// memoized like an index (the same bytes give the same error); a build
/// that panics leaves its cell empty for the next caller; a poisoned lock
/// degrades to an unmemoized build.
///
/// The memo is a cache, not part of the catalog's value: a clone starts
/// empty, equality ignores it, and `Debug` elides it.
#[derive(Default)]
pub(crate) struct BucketMemo {
    entries: Mutex<Vec<((usize, usize), MemoCell)>>,
}

impl BucketMemo {
    /// The index of `db` at `(n_components, n_buckets)`: the memoized one,
    /// or a fresh [`BucketIndex::build`] that is memoized for the next
    /// caller. `db` must be the catalog that owns this memo.
    ///
    /// # Errors
    ///
    /// Whatever [`BucketIndex::build`] returns for these parameters.
    pub(crate) fn get_or_build<D: DatabaseView + ?Sized>(
        &self,
        db: &D,
        n_components: usize,
        n_buckets: usize,
    ) -> Result<Arc<BucketIndex>> {
        let build = || BucketIndex::build(db, n_components, n_buckets).map(Arc::new);
        let key = (n_components, n_buckets);
        let cell = {
            let Ok(mut entries) = self.entries.lock() else {
                return build();
            };
            match entries.iter().find(|(k, _)| *k == key) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    if entries.len() == MEMO_CAPACITY {
                        entries.remove(0);
                    }
                    let cell = MemoCell::default();
                    entries.push((key, Arc::clone(&cell)));
                    cell
                }
            }
        };
        cell.get_or_init(build).clone()
    }

    /// Forgets every memoized index (the catalog changed).
    pub(crate) fn clear(&mut self) {
        *self = BucketMemo::default();
    }
}

impl Clone for BucketMemo {
    fn clone(&self) -> Self {
        BucketMemo::default()
    }
}

impl PartialEq for BucketMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for BucketMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketMemo").finish_non_exhaustive()
    }
}

/// A fitted bucket index over one catalog version.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketIndex {
    /// Number of kept principal components.
    n_components: usize,
    /// Number of buckets along the leading component.
    n_buckets: usize,
    /// The catalog version the index was built at.
    catalog_version: u64,
    /// The fitted log-space projection.
    pca: Pca,
    /// `assignment[m]` = bucket of machine `m`.
    assignment: Vec<usize>,
    /// `members[b]` = machines in bucket `b`, ascending.
    members: Vec<Vec<usize>>,
    /// `centroids[b]` = component-space centroid of bucket `b` (empty for
    /// an empty bucket).
    centroids: Vec<Vec<f64>>,
    /// `centroid_columns[b]` = reconstructed benchmark-space column of
    /// bucket `b`'s centroid, strictly positive (empty for an empty
    /// bucket).
    centroid_columns: Vec<Vec<f64>>,
    /// Span of the leading component over the catalog (`lo`, `hi`).
    span: (f64, f64),
}

impl BucketIndex {
    /// Builds the index over the view's current catalog.
    ///
    /// # Errors
    ///
    /// * [`DatasetError::InvalidConfig`] if `n_buckets` is zero or exceeds
    ///   the machine count (the build allocates one member list per
    ///   bucket), or `n_components` is zero / exceeds the benchmark count.
    /// * [`DatasetError::IndexBuild`] if the projection cannot be fitted:
    ///   fewer than two machines, non-positive scores (the log transform
    ///   needs ratios), or a degenerate constant-variance catalog.
    pub fn build<D: DatabaseView + ?Sized>(
        db: &D,
        n_components: usize,
        n_buckets: usize,
    ) -> Result<Self> {
        let n_benchmarks = db.n_benchmarks();
        let n_machines = db.n_machines();
        if n_buckets == 0 || n_buckets > n_machines {
            return Err(DatasetError::InvalidConfig {
                name: "n_buckets",
                value: format!("{n_buckets} ({n_machines} machines)"),
            });
        }
        if n_components == 0 || n_components > n_benchmarks {
            return Err(DatasetError::InvalidConfig {
                name: "n_components",
                value: format!("{n_components} ({n_benchmarks} benchmarks)"),
            });
        }
        for b in 0..n_benchmarks {
            for m in 0..n_machines {
                let s = db.score(b, m);
                if !(s.is_finite() && s > 0.0) {
                    return Err(DatasetError::IndexBuild {
                        reason: format!(
                            "score({b}, {m}) = {s} is not a positive ratio; \
                             the log-space projection is undefined"
                        ),
                    });
                }
            }
        }
        // Machines as samples, benchmarks as features, in log-score space.
        let samples = Matrix::from_fn(n_machines, n_benchmarks, |m, b| db.score(b, m).ln());
        let pca = Pca::fit(&samples, n_components).map_err(|e| DatasetError::IndexBuild {
            reason: e.to_string(),
        })?;
        let projected = pca
            .transform(&samples)
            .map_err(|e| DatasetError::IndexBuild {
                reason: e.to_string(),
            })?;

        // Equal-width buckets along the leading component, spanning the
        // catalog's min..max. A zero-width span (all machines project to
        // one point) degenerates to a single occupied bucket.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for m in 0..n_machines {
            let z = projected[(m, 0)];
            lo = lo.min(z);
            hi = hi.max(z);
        }
        let width = hi - lo;
        let mut assignment = Vec::with_capacity(n_machines);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_buckets];
        for m in 0..n_machines {
            let bucket = if width > 0.0 {
                let t = (projected[(m, 0)] - lo) / width * n_buckets as f64;
                (t.floor() as usize).min(n_buckets - 1)
            } else {
                0
            };
            assignment.push(bucket);
            members[bucket].push(m);
        }

        // Component-space centroids (fixed member order, sequential sum)
        // and their benchmark-space reconstructions.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(n_buckets);
        let mut centroid_columns: Vec<Vec<f64>> = Vec::with_capacity(n_buckets);
        for bucket_members in &members {
            if bucket_members.is_empty() {
                centroids.push(Vec::new());
                centroid_columns.push(Vec::new());
                continue;
            }
            let mut centroid = vec![0.0; n_components];
            for &m in bucket_members {
                for (j, slot) in centroid.iter_mut().enumerate() {
                    *slot += projected[(m, j)];
                }
            }
            let count = bucket_members.len() as f64;
            for slot in centroid.iter_mut() {
                *slot /= count;
            }
            let column = reconstruct_column(&pca, &centroid);
            if column.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
                return Err(DatasetError::IndexBuild {
                    reason: "reconstructed centroid column left the positive score domain"
                        .to_owned(),
                });
            }
            centroids.push(centroid);
            centroid_columns.push(column);
        }

        Ok(BucketIndex {
            n_components,
            n_buckets,
            catalog_version: db.catalog_version(),
            pca,
            assignment,
            members,
            centroids,
            centroid_columns,
            span: (lo, hi),
        })
    }

    /// Number of kept principal components.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Number of buckets along the leading component.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// The catalog version the index was built at.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Number of machines the index covers.
    pub fn n_machines(&self) -> usize {
        self.assignment.len()
    }

    /// The bucket of machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is at or past the indexed machine count.
    pub fn bucket_of(&self, m: usize) -> usize {
        self.assignment[m]
    }

    /// Members of bucket `b`, in ascending catalog order.
    ///
    /// # Panics
    ///
    /// Panics if `b >= n_buckets`.
    pub fn members(&self, b: usize) -> &[usize] {
        &self.members[b]
    }

    /// Component-space centroid of bucket `b` (empty for an empty bucket).
    ///
    /// # Panics
    ///
    /// Panics if `b >= n_buckets`.
    pub fn centroid(&self, b: usize) -> &[f64] {
        &self.centroids[b]
    }

    /// Reconstructed benchmark-space centroid column of bucket `b`
    /// (strictly positive, `n_benchmarks` entries; empty for an empty
    /// bucket).
    ///
    /// # Panics
    ///
    /// Panics if `b >= n_buckets`.
    pub fn centroid_column(&self, b: usize) -> &[f64] {
        &self.centroid_columns[b]
    }

    /// Number of non-empty buckets.
    pub fn occupied_buckets(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// Span (`lo`, `hi`) of the leading component over the catalog.
    pub fn span(&self) -> (f64, f64) {
        self.span
    }
}

/// Maps a component-space point back to a benchmark-space score column:
/// `exp(mean + components · z)`, the inverse of the log-space projection
/// restricted to the kept components.
fn reconstruct_column(pca: &Pca, z: &[f64]) -> Vec<f64> {
    let components = pca.components();
    pca.mean()
        .iter()
        .enumerate()
        .map(|(f, &mean)| {
            let mut log_score = mean;
            for (j, &zj) in z.iter().enumerate() {
                log_score += components[(f, j)] * zj;
            }
            log_score.exp()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{MachineIngest, PerfDatabase};
    use crate::generator::{generate, synthesize_ingest, DatasetConfig};
    use crate::sharded::ShardedPerfDatabase;

    fn db() -> PerfDatabase {
        generate(&DatasetConfig::default()).unwrap()
    }

    /// `a` and `b` carry the same bits: `Debug` prints every `f64` in its
    /// shortest round-trip form, so equal text means equal bits.
    fn assert_same_bits(a: &BucketIndex, b: &BucketIndex) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The memo contract on one backing: a repeat call hands out the
    /// memoized index, a push drops it, keys evicted past the cap rebuild
    /// correctly, and a clone starts empty yet compares equal.
    fn check_memo<D>(mut db: D, push: fn(&mut D, &[MachineIngest]) -> Result<()>)
    where
        D: DatabaseView + Clone + PartialEq + fmt::Debug,
    {
        let first = db.bucket_index(3, 8).unwrap();
        let again = db.bucket_index(3, 8).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "second call rebuilt");
        assert_same_bits(&first, &BucketIndex::build(&db, 3, 8).unwrap());

        let copy = db.clone();
        assert_eq!(copy, db, "the memo is not part of the catalog's value");
        let from_copy = copy.bucket_index(3, 8).unwrap();
        assert!(!Arc::ptr_eq(&first, &from_copy), "a clone shares the memo");
        assert_same_bits(&first, &from_copy);

        let batch = synthesize_ingest(7, db.benchmarks(), 5, 0.015).unwrap();
        push(&mut db, &batch).unwrap();
        let grown = db.bucket_index(3, 8).unwrap();
        assert!(!Arc::ptr_eq(&first, &grown), "push kept the stale index");
        assert_eq!(grown.catalog_version(), 1);
        assert_eq!(grown.n_machines(), 122);
        assert_same_bits(&grown, &BucketIndex::build(&db, 3, 8).unwrap());

        // Past the cap the oldest key goes first; the newest stays.
        let newest = (1..=MEMO_CAPACITY)
            .map(|b| db.bucket_index(1, b).unwrap())
            .last()
            .unwrap();
        let rebuilt = db.bucket_index(3, 8).unwrap();
        assert!(!Arc::ptr_eq(&grown, &rebuilt), "evicted key still held");
        assert_same_bits(&rebuilt, &BucketIndex::build(&db, 3, 8).unwrap());
        let kept = db.bucket_index(1, MEMO_CAPACITY).unwrap();
        assert!(Arc::ptr_eq(&newest, &kept), "newest key evicted");
    }

    #[test]
    fn dense_memo_hits_drops_on_push_and_evicts_oldest() {
        check_memo(db(), PerfDatabase::push_machines);
    }

    #[test]
    fn sharded_memo_hits_drops_on_push_and_evicts_oldest() {
        let sharded = ShardedPerfDatabase::from_dense(&db(), 8).unwrap();
        check_memo(sharded, ShardedPerfDatabase::push_machines);
    }

    #[test]
    fn memo_errors_are_memoized_like_indexes() {
        let db = db();
        let err = db.bucket_index(30, 4).unwrap_err();
        assert_eq!(db.bucket_index(30, 4).unwrap_err(), err);
        assert_eq!(BucketIndex::build(&db, 30, 4).unwrap_err(), err);
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_build() {
        let dense = db();
        let sharded = ShardedPerfDatabase::from_dense(&dense, 8).unwrap();
        let views: [&dyn DatabaseView; 2] = [&dense, &sharded];
        for view in views {
            let barrier = std::sync::Barrier::new(4);
            let got: Vec<Arc<BucketIndex>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            view.bucket_index(2, 6).unwrap()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert!(got.iter().all(|index| Arc::ptr_eq(index, &got[0])));
            assert_same_bits(&got[0], &BucketIndex::build(view, 2, 6).unwrap());
        }
    }

    #[test]
    fn assignment_partitions_the_catalog() {
        let db = db();
        let index = BucketIndex::build(&db, 3, 8).unwrap();
        assert_eq!(index.n_machines(), db.n_machines());
        assert_eq!(index.n_components(), 3);
        assert_eq!(index.n_buckets(), 8);
        assert_eq!(index.catalog_version(), 0);
        let mut seen = vec![false; db.n_machines()];
        for b in 0..index.n_buckets() {
            let mut previous = None;
            for &m in index.members(b) {
                assert_eq!(index.bucket_of(m), b);
                assert!(previous.is_none_or(|p| p < m), "members not ascending");
                previous = Some(m);
                assert!(!seen[m], "machine {m} in two buckets");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "machine missing from every bucket");
        let total: usize = (0..index.n_buckets()).map(|b| index.members(b).len()).sum();
        assert_eq!(total, db.n_machines());
        assert!(
            index.occupied_buckets() >= 2,
            "catalog collapsed to one bucket"
        );
    }

    #[test]
    fn centroid_columns_are_positive_and_sized() {
        let db = db();
        let index = BucketIndex::build(&db, 2, 6).unwrap();
        for b in 0..index.n_buckets() {
            if index.members(b).is_empty() {
                assert!(index.centroid_column(b).is_empty());
                assert!(index.centroid(b).is_empty());
                continue;
            }
            assert_eq!(index.centroid(b).len(), 2);
            let column = index.centroid_column(b);
            assert_eq!(column.len(), db.n_benchmarks());
            assert!(column.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn dense_and_sharded_builds_are_bitwise_identical() {
        let db = db();
        let sharded = ShardedPerfDatabase::from_dense(&db, 8).unwrap();
        let a = BucketIndex::build(&db, 3, 8).unwrap();
        let b = BucketIndex::build(&sharded, 3, 8).unwrap();
        assert_eq!(a, b);
        for bucket in 0..a.n_buckets() {
            for (x, y) in a
                .centroid_column(bucket)
                .iter()
                .zip(b.centroid_column(bucket))
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn rebuild_after_ingest_matches_scratch_build() {
        let mut grown = db();
        let batch = synthesize_ingest(7, grown.benchmarks(), 5, 0.015).unwrap();
        grown.push_machines(&batch).unwrap();
        let rebuilt = BucketIndex::build(&grown, 3, 8).unwrap();
        assert_eq!(rebuilt.catalog_version(), 1);
        assert_eq!(rebuilt.n_machines(), 122);
        // A fresh build over the same grown catalog is the same index.
        let scratch = BucketIndex::build(&grown, 3, 8).unwrap();
        assert_eq!(rebuilt, scratch);
    }

    #[test]
    fn degenerate_parameters_are_typed_errors() {
        let db = db();
        for n_buckets in [0, db.n_machines() + 1] {
            assert!(matches!(
                BucketIndex::build(&db, 3, n_buckets),
                Err(DatasetError::InvalidConfig {
                    name: "n_buckets",
                    ..
                })
            ));
        }
        assert!(matches!(
            BucketIndex::build(&db, 0, 4),
            Err(DatasetError::InvalidConfig {
                name: "n_components",
                ..
            })
        ));
        assert!(matches!(
            BucketIndex::build(&db, 30, 4),
            Err(DatasetError::InvalidConfig {
                name: "n_components",
                ..
            })
        ));
    }

    #[test]
    fn more_buckets_refine_the_partition() {
        let db = db();
        let coarse = BucketIndex::build(&db, 1, 2).unwrap();
        let fine = BucketIndex::build(&db, 1, 16).unwrap();
        assert!(fine.occupied_buckets() >= coarse.occupied_buckets());
        // Equal-width slicing along the same leading axis: spans agree.
        let (a_lo, a_hi) = coarse.span();
        let (b_lo, b_hi) = fine.span();
        assert_eq!(a_lo.to_bits(), b_lo.to_bits());
        assert_eq!(a_hi.to_bits(), b_hi.to_bits());
    }
}
