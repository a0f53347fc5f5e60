//! Machine-restriction queries and the shard-pruning planner.
//!
//! A ranking request rarely wants the whole catalog: it asks for *the
//! Xeons*, *machines released 2008–2009*, *machines scoring at least 15 on
//! gcc*, or an explicit candidate subset. [`MachineFilter`] expresses such
//! a restriction as a conjunction of clauses, and
//! [`crate::view::DatabaseView::plan_machines`] resolves it to a
//! [`QueryPlan`]: the matching machine indices in ascending catalog order
//! plus an account of which storage shards were scanned to find them.
//!
//! The dense backing can only scan every machine. The sharded backing
//! keeps per-shard [`ShardStats`] — the family set, release-year range,
//! and per-benchmark score range of each shard, computed once at
//! construction — and skips every shard whose statistics prove it cannot
//! contain a match. Pruning is **conservative**: a shard is skipped only
//! when *no* machine in it can satisfy the filter, so the pruned plan's
//! machine list is always identical to the full scan's (the planner unit
//! tests and `tests/query_engine.rs` pin this, on seeded random catalogs).

use datatrans_linalg::Matrix;

use crate::machine::{Machine, ProcessorFamily};
use crate::view::DatabaseView;
use crate::DatasetError;

/// A conjunction of restrictions on the machine set.
///
/// An empty filter ([`MachineFilter::all`]) matches every machine. Each
/// clause narrows the candidate set; a machine matches the filter when it
/// satisfies **every** present clause.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineFilter {
    /// Keep only machines of this processor family.
    pub family: Option<ProcessorFamily>,
    /// Keep only machines released in `year_min..=year_max` (either bound
    /// may be open).
    pub year_min: Option<u16>,
    /// See [`MachineFilter::year_min`].
    pub year_max: Option<u16>,
    /// Keep only machines whose stored score on benchmark row `.0` is at
    /// least `.1` — the bucket-style aggregate restriction that per-shard
    /// score ranges can prune.
    pub min_score: Option<(usize, f64)>,
    /// Keep only machines from this explicit index set (order and
    /// duplicates are irrelevant; the plan always lists matches in
    /// ascending catalog order).
    pub subset: Option<Vec<usize>>,
}

impl MachineFilter {
    /// The unrestricted filter: every machine matches.
    pub fn all() -> Self {
        MachineFilter::default()
    }

    /// Restrict to one processor family.
    pub fn family(family: ProcessorFamily) -> Self {
        MachineFilter {
            family: Some(family),
            ..MachineFilter::default()
        }
    }

    /// Restrict to release years `min..=max`.
    pub fn years(min: u16, max: u16) -> Self {
        MachineFilter {
            year_min: Some(min),
            year_max: Some(max),
            ..MachineFilter::default()
        }
    }

    /// Adds release-year bounds (inclusive).
    pub fn with_years(mut self, min: u16, max: u16) -> Self {
        self.year_min = Some(min);
        self.year_max = Some(max);
        self
    }

    /// Adds a minimum-score clause on benchmark row `benchmark`.
    pub fn with_min_score(mut self, benchmark: usize, threshold: f64) -> Self {
        self.min_score = Some((benchmark, threshold));
        self
    }

    /// Adds an explicit candidate-subset clause.
    pub fn with_subset(mut self, subset: Vec<usize>) -> Self {
        self.subset = Some(subset);
        self
    }

    /// Whether machine `m` of `db` satisfies every clause.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds, or if a `min_score` clause names a
    /// benchmark row out of bounds.
    pub fn matches<D: DatabaseView + ?Sized>(&self, db: &D, m: usize) -> bool {
        let machine = &db.machines()[m];
        self.matches_metadata(machine)
            && self
                .min_score
                .is_none_or(|(b, threshold)| db.score(b, m) >= threshold)
            && self
                .subset
                .as_ref()
                .is_none_or(|subset| subset.contains(&m))
    }

    /// The metadata clauses only (family + years) — the part a
    /// [`ShardStats`] summary can reason about without touching scores.
    fn matches_metadata(&self, machine: &Machine) -> bool {
        self.family.is_none_or(|f| machine.family == f)
            && self.year_min.is_none_or(|min| machine.year >= min)
            && self.year_max.is_none_or(|max| machine.year <= max)
    }

    /// Validates index clauses against a database's dimensions, so that
    /// [`MachineFilter::matches`] and [`scan_machines`] cannot panic on a
    /// filter that passed.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfBounds`] naming the first
    /// offending clause: a `min_score` benchmark row at or past
    /// `n_benchmarks`, or a `subset` machine at or past `n_machines`.
    pub fn validate<D: DatabaseView + ?Sized>(&self, db: &D) -> crate::Result<()> {
        if let Some((b, _)) = self.min_score {
            if b >= db.n_benchmarks() {
                return Err(DatasetError::IndexOutOfBounds {
                    what: "min_score benchmark",
                    index: b,
                    bound: db.n_benchmarks(),
                });
            }
        }
        if let Some(subset) = &self.subset {
            let bound = db.n_machines();
            if let Some(&m) = subset.iter().find(|&&m| m >= bound) {
                return Err(DatasetError::IndexOutOfBounds {
                    what: "subset machine",
                    index: m,
                    bound,
                });
            }
        }
        Ok(())
    }

    /// Validates index clauses against a database's dimensions.
    ///
    /// Returns the first offending clause as `(clause name, index)`, or
    /// `None` when every referenced index is in bounds. [`MachineFilter::validate`]
    /// is the typed-error form of the same check.
    pub fn invalid_index<D: DatabaseView + ?Sized>(&self, db: &D) -> Option<(&'static str, usize)> {
        match self.validate(db) {
            Err(DatasetError::IndexOutOfBounds { what, index, .. }) => Some((what, index)),
            _ => None,
        }
    }
}

/// A filter prepared for repeated evaluation during a scan: the subset
/// clause is sorted once so membership is a binary search, not a linear
/// probe per machine.
pub(crate) struct PreparedFilter<'a> {
    filter: &'a MachineFilter,
    sorted_subset: Option<Vec<usize>>,
}

impl<'a> PreparedFilter<'a> {
    pub(crate) fn new(filter: &'a MachineFilter) -> Self {
        let sorted_subset = filter.subset.as_ref().map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v.dedup();
            v
        });
        PreparedFilter {
            filter,
            sorted_subset,
        }
    }

    /// Same predicate as [`MachineFilter::matches`]. Clauses run cheapest
    /// first — metadata, then subset membership, then the stored-score
    /// read — so a narrow subset short-circuits the score lookups during
    /// a shard scan (a pure conjunction: order cannot change the result).
    pub(crate) fn matches<D: DatabaseView + ?Sized>(&self, db: &D, m: usize) -> bool {
        self.filter.matches_metadata(&db.machines()[m])
            && self
                .sorted_subset
                .as_ref()
                .is_none_or(|subset| subset.binary_search(&m).is_ok())
            && self
                .filter
                .min_score
                .is_none_or(|(b, threshold)| db.score(b, m) >= threshold)
    }

    /// Whether any subset member falls inside `range` (always true without
    /// a subset clause).
    pub(crate) fn subset_intersects(&self, range: std::ops::Range<usize>) -> bool {
        match &self.sorted_subset {
            None => true,
            Some(subset) => {
                let first_ge = subset.partition_point(|&m| m < range.start);
                subset.get(first_ge).is_some_and(|&m| m < range.end)
            }
        }
    }
}

/// Aggregate statistics of one storage shard, computed at construction
/// and consulted by the planner to skip shards that cannot match.
///
/// The statistics are summaries of *stored* data — they are never updated
/// incrementally and never feed back into stored values, so planning with
/// them can only change **which shards are scanned**, never what a scan
/// returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Distinct processor families present, sorted.
    families: Vec<ProcessorFamily>,
    /// Earliest release year in the shard.
    year_min: u16,
    /// Latest release year in the shard.
    year_max: u16,
    /// Per-benchmark minimum stored score (row order).
    score_min: Vec<f64>,
    /// Per-benchmark maximum stored score (row order).
    score_max: Vec<f64>,
}

impl ShardStats {
    /// Computes the statistics of one shard from its machine metadata
    /// slice and its `benchmarks × width` score block.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is empty or its length differs from the score
    /// block's column count (a shard owns at least one machine column by
    /// construction).
    pub fn compute(machines: &[Machine], scores: &Matrix) -> Self {
        assert!(!machines.is_empty(), "a shard owns at least one machine");
        assert_eq!(machines.len(), scores.cols(), "metadata/score width");
        let mut families: Vec<ProcessorFamily> = machines.iter().map(|m| m.family).collect();
        families.sort_unstable();
        families.dedup();
        let year_min = machines.iter().map(|m| m.year).min().expect("non-empty");
        let year_max = machines.iter().map(|m| m.year).max().expect("non-empty");
        let mut score_min = Vec::with_capacity(scores.rows());
        let mut score_max = Vec::with_capacity(scores.rows());
        for b in 0..scores.rows() {
            let row = scores.row(b);
            score_min.push(row.iter().copied().fold(f64::INFINITY, f64::min));
            score_max.push(row.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        ShardStats {
            families,
            year_min,
            year_max,
            score_min,
            score_max,
        }
    }

    /// Folds one appended machine into the statistics in place: inserts
    /// its family (keeping the set sorted), widens the year range, and
    /// widens each benchmark's score range. `column` is the machine's
    /// score column in benchmark row order.
    ///
    /// After absorbing every appended machine the statistics are exactly
    /// [`ShardStats::compute`] of the grown shard — min/max over a union
    /// is the min/max of the per-part min/max — so ingest keeps the
    /// pruning planner's conservativeness intact without a recompute.
    ///
    /// # Panics
    ///
    /// Panics if `column` does not cover every benchmark row.
    pub fn absorb_machine(&mut self, machine: &Machine, column: &[f64]) {
        assert_eq!(column.len(), self.score_min.len(), "column/benchmark rows");
        if let Err(pos) = self.families.binary_search(&machine.family) {
            self.families.insert(pos, machine.family);
        }
        self.year_min = self.year_min.min(machine.year);
        self.year_max = self.year_max.max(machine.year);
        for (b, &score) in column.iter().enumerate() {
            self.score_min[b] = self.score_min[b].min(score);
            self.score_max[b] = self.score_max[b].max(score);
        }
    }

    /// The distinct processor families in the shard, sorted.
    pub fn families(&self) -> &[ProcessorFamily] {
        &self.families
    }

    /// `(earliest, latest)` release year in the shard.
    pub fn year_range(&self) -> (u16, u16) {
        (self.year_min, self.year_max)
    }

    /// `(min, max)` stored score of benchmark row `b` across the shard's
    /// machines.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of bounds.
    pub fn score_range(&self, b: usize) -> (f64, f64) {
        (self.score_min[b], self.score_max[b])
    }

    /// Whether any machine in the shard *could* satisfy the filter's
    /// family / year / score clauses.
    ///
    /// Conservative by construction: `false` is returned only when the
    /// shard provably contains no match (family absent, year ranges
    /// disjoint, or the shard's best score below the threshold), so
    /// pruning on this predicate never drops a matching machine. The
    /// subset clause is range-based and handled by the planner, not here.
    pub fn may_match(&self, filter: &MachineFilter) -> bool {
        filter
            .family
            .is_none_or(|f| self.families.binary_search(&f).is_ok())
            && filter.year_min.is_none_or(|min| self.year_max >= min)
            && filter.year_max.is_none_or(|max| self.year_min <= max)
            && filter
                .min_score
                .is_none_or(|(b, threshold)| self.score_max[b] >= threshold)
    }
}

/// The resolution of a [`MachineFilter`] against one backing: the matching
/// machine indices plus how much storage the planner had to touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Matching machine indices, ascending catalog order — identical for
    /// every backing and plan strategy.
    pub machines: Vec<usize>,
    /// Number of shards whose machines were examined.
    pub shards_scanned: usize,
    /// Number of shards skipped outright by statistics or subset range.
    pub shards_pruned: usize,
}

/// The full-scan planner every backing can fall back to: examine each
/// machine in catalog order.
///
/// # Panics
///
/// Panics if a `min_score` clause names an out-of-range benchmark row or a
/// subset clause an out-of-range machine (validate with
/// [`MachineFilter::invalid_index`] first where that matters).
pub fn scan_machines<D: DatabaseView + ?Sized>(db: &D, filter: &MachineFilter) -> Vec<usize> {
    let prepared = PreparedFilter::new(filter);
    (0..db.n_machines())
        .filter(|&m| prepared.matches(db, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, DatasetConfig};

    #[test]
    fn filter_clauses_conjoin() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let xeons = db.machines_in_family(ProcessorFamily::Xeon);
        let filter = MachineFilter::family(ProcessorFamily::Xeon).with_years(2008, 2009);
        for m in 0..db.n_machines() {
            let expected = xeons.contains(&m) && (2008..=2009).contains(&db.machines()[m].year);
            assert_eq!(filter.matches(&db, m), expected, "machine {m}");
        }
    }

    #[test]
    fn all_filter_matches_everything() {
        let db = generate(&DatasetConfig::default()).unwrap();
        assert_eq!(
            scan_machines(&db, &MachineFilter::all()),
            (0..db.n_machines()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn min_score_clause_reads_stored_scores() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let threshold = db.score(3, 58);
        let filter = MachineFilter::all().with_min_score(3, threshold);
        let matches = scan_machines(&db, &filter);
        assert!(matches.contains(&58));
        for &m in &matches {
            assert!(db.score(3, m) >= threshold);
        }
        for m in (0..db.n_machines()).filter(|m| !matches.contains(m)) {
            assert!(db.score(3, m) < threshold);
        }
    }

    #[test]
    fn subset_clause_is_order_and_duplicate_insensitive() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let filter = MachineFilter::all().with_subset(vec![90, 5, 5, 41, 90]);
        assert_eq!(scan_machines(&db, &filter), vec![5, 41, 90]);
    }

    #[test]
    fn invalid_index_reports_offending_clause() {
        let db = generate(&DatasetConfig::default()).unwrap();
        assert_eq!(MachineFilter::all().invalid_index(&db), None);
        assert_eq!(
            MachineFilter::all()
                .with_min_score(99, 1.0)
                .invalid_index(&db),
            Some(("min_score benchmark", 99))
        );
        assert_eq!(
            MachineFilter::all()
                .with_subset(vec![0, 400])
                .invalid_index(&db),
            Some(("subset machine", 400))
        );
    }

    #[test]
    fn validate_accepts_in_bounds_clauses() {
        let db = generate(&DatasetConfig::default()).unwrap();
        assert!(MachineFilter::all().validate(&db).is_ok());
        assert!(MachineFilter::family(ProcessorFamily::Xeon)
            .with_years(2004, 2010)
            .with_min_score(28, 1.0)
            .with_subset(vec![0, 116])
            .validate(&db)
            .is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_min_score_row() {
        let db = generate(&DatasetConfig::default()).unwrap();
        assert_eq!(
            MachineFilter::all().with_min_score(29, 1.0).validate(&db),
            Err(DatasetError::IndexOutOfBounds {
                what: "min_score benchmark",
                index: 29,
                bound: 29,
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_subset_machine() {
        let db = generate(&DatasetConfig::default()).unwrap();
        assert_eq!(
            MachineFilter::all()
                .with_subset(vec![3, 117, 500])
                .validate(&db),
            Err(DatasetError::IndexOutOfBounds {
                what: "subset machine",
                index: 117,
                bound: 117,
            })
        );
    }

    #[test]
    fn subset_intersects_ranges() {
        let filter = MachineFilter::all().with_subset(vec![3, 17, 40]);
        let prepared = PreparedFilter::new(&filter);
        assert!(prepared.subset_intersects(0..4));
        assert!(prepared.subset_intersects(17..18));
        assert!(!prepared.subset_intersects(4..17));
        assert!(!prepared.subset_intersects(41..100));
        let unrestricted = MachineFilter::all();
        let open = PreparedFilter::new(&unrestricted);
        assert!(open.subset_intersects(5..6));
    }

    #[test]
    fn shard_stats_summarize_block() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let machines = &db.machines()[0..10];
        let block = db.score_matrix().select(
            &(0..db.n_benchmarks()).collect::<Vec<_>>(),
            &(0..10).collect::<Vec<_>>(),
        );
        let stats = ShardStats::compute(machines, &block);
        let mut families: Vec<ProcessorFamily> = machines.iter().map(|m| m.family).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(stats.families(), families.as_slice());
        let years: Vec<u16> = machines.iter().map(|m| m.year).collect();
        assert_eq!(
            stats.year_range(),
            (*years.iter().min().unwrap(), *years.iter().max().unwrap())
        );
        let (lo, hi) = stats.score_range(4);
        for m in 0..10 {
            let s = db.score(4, m);
            assert!(lo <= s && s <= hi);
        }
        // may_match is conservative: a family actually present must match.
        assert!(stats.may_match(&MachineFilter::family(machines[0].family)));
        assert!(stats.may_match(&MachineFilter::all()));
        assert!(!stats.may_match(&MachineFilter::all().with_years(1980, 1990)));
        assert!(!stats.may_match(&MachineFilter::all().with_min_score(4, hi * 2.0)));
    }
}
