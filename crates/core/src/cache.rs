//! A bounded, versioned result cache for the serving path.
//!
//! [`ResultCache`] memoizes [`RankResponse`]s keyed by
//! `(request fingerprint, catalog version)`: a hit returns a clone of a
//! previously computed response, a miss falls through to evaluation, and a
//! moved catalog version drops every resident entry (a ranking computed
//! against an older catalog must never be served after an ingest — the
//! candidate set itself may have changed).
//!
//! The cache is a pure memoization layer: a hit is **bitwise-identical**
//! to re-evaluating the request cold, because responses are stored
//! verbatim and every response is a deterministic function of
//! `(request, catalog)`. `tests/ingest_cache.rs` pins that identity across
//! thread counts, backings, and batch orderings.
//!
//! Capacity is bounded with least-recently-used eviction. Eviction scans
//! for the oldest entry in O(capacity) — capacities on the serving path
//! are tens to thousands of entries, where a linear scan over a flat map
//! beats maintaining an intrusive recency list.
//!
//! # Fitted networks survive a version move
//!
//! A catalog write moves the version and drops every response, but most
//! MLPᵀ requests after it train the very network they trained before: a
//! pushed machine that widens no benchmark's range leaves their training
//! inputs unchanged. So the cache also keeps a memo of fitted MLPᵀ
//! networks, which [`ResultCache::sync_version`] does not drop. A network
//! is looked up by every input its training reads, compared bit for bit:
//! the predictive machines' log-domain score rows, the app's scores on
//! them, the input scaler's per-benchmark bounds, and the hyper-parameters
//! after the task-seed xor. Training is a pure function of those inputs,
//! so a memoized network is the one a fresh fit would return, and
//! inference, fallback and clamp then run on it as usual: a response
//! served through the memo carries the same bytes as one served without
//! it. Only [`crate::serve::serve_batch_cached`] passes the memo down;
//! every other path fits afresh.
//!
//! The memo holds at most 64 networks, least recently used evicted first.
//! An entry holds its key's training rows and labels, `8 · (B + 1) · k`
//! bytes for `k` predictive machines over `B` benchmarks, and a fixed
//! part: the network's `⌈B / 2⌉ · (B + 2) + 1` weights (no momentum
//! buffers are kept) and two copies of the input scaler's `2 · B` bounds,
//! ≈4.7 KB at `B` = 29. Keys grow with the predictive set, which
//! validation bounds by the catalog: at most `n − 1` machines on an
//! `n`-machine catalog. So on the 29-benchmark catalogs the worst case is
//! about `64 · (240 · n + 4,700)` bytes, ≈2.1 MB at 117 machines and
//! ≈16 MB at 1,000; at a typical 7 predictive machines an entry takes
//! ≈6.4 KB and a full memo ≈0.4 MB.

use std::collections::HashMap;

use crate::fingerprint::RequestFingerprint;
use crate::model::FitMemo;
use crate::serve::{RankRequest, RankResponse};

/// Cumulative cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries dropped because the catalog version moved.
    pub invalidations: u64,
    /// MLPᵀ fits answered from the memo of fitted networks.
    pub fits_reused: u64,
    /// MLPᵀ fits the memo trained (and memoized).
    pub fits_trained: u64,
}

/// One resident entry: the full request (collision guard) plus its
/// response and recency stamp.
#[derive(Debug, Clone)]
struct Entry {
    request: RankRequest,
    response: RankResponse,
    last_used: u64,
}

/// A bounded LRU cache of ranking responses, invalidated wholesale when
/// the catalog version moves, plus a bounded memo of fitted MLPᵀ networks
/// that a version move keeps (see the [module docs](self)).
///
/// All resident responses were computed against one catalog version (the
/// last one [`ResultCache::sync_version`] saw): ingest bumps the version,
/// the next sync drops every response, so a stale ranking can never be
/// served. A memoized network is keyed by its training inputs, not by the
/// version, so it is reused exactly when a fresh fit would train it again.
/// A clone starts with an empty memo.
#[derive(Debug, Clone)]
pub struct ResultCache {
    capacity: usize,
    /// Catalog version the resident entries were computed against
    /// (`None` until the first sync).
    version: Option<u64>,
    entries: HashMap<u64, Entry>,
    /// Monotonic recency clock, bumped on every lookup and insert.
    tick: u64,
    stats: CacheStats,
    /// Fitted MLPᵀ networks, kept across version moves.
    fits: FitMemo,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` responses (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            version: None,
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            fits: FitMemo::default(),
        }
    }

    /// Maximum number of resident responses.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident responses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no responses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative hit/miss/invalidation and fit counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The memo of fitted MLPᵀ networks that cached batches fit through.
    pub(crate) fn fits(&self) -> &FitMemo {
        &self.fits
    }

    /// Adds the fits the memo reused and trained since the last call to
    /// the cumulative counters, and returns them, in that order.
    pub(crate) fn count_fits(&mut self) -> (u64, u64) {
        let (reused, trained) = self.fits.take_counts();
        self.stats.fits_reused += reused;
        self.stats.fits_trained += trained;
        (reused, trained)
    }

    /// Aligns the cache with the catalog version it is serving against,
    /// dropping every resident response if the version moved. Returns the
    /// number of responses dropped (also added to
    /// [`CacheStats::invalidations`]). The memo of fitted networks stays:
    /// its keys are training inputs, which a version move does not make
    /// stale.
    ///
    /// Call this before looking anything up for a batch — the serving
    /// entry point does ([`crate::serve::serve_batch_cached`]).
    pub fn sync_version(&mut self, version: u64) -> u64 {
        if self.version == Some(version) {
            return 0;
        }
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.stats.invalidations += dropped;
        self.version = Some(version);
        dropped
    }

    /// Looks up a fingerprint, returning a clone of the stored response on
    /// a hit and recording the hit or miss in the counters.
    ///
    /// A hit also requires the stored request to equal `request`, in every
    /// build: a 64-bit fingerprint collision between distinct requests is
    /// astronomically unlikely but not impossible, and it must cost a hit,
    /// never serve another request's ranking. A mismatch counts as a miss,
    /// and the next [`ResultCache::insert`] under that fingerprint replaces
    /// the resident entry.
    pub fn lookup(
        &mut self,
        fingerprint: RequestFingerprint,
        request: &RankRequest,
    ) -> Option<RankResponse> {
        self.tick += 1;
        match self.entries.get_mut(&fingerprint.as_u64()) {
            Some(entry) if entry.request == *request => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.response.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly computed response, evicting the least-recently-
    /// used entry if the cache is full and the fingerprint is new.
    pub fn insert(
        &mut self,
        fingerprint: RequestFingerprint,
        request: &RankRequest,
        response: &RankResponse,
    ) {
        let key = fingerprint.as_u64();
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                request: request.clone(),
                response: response.clone(),
                last_used: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{AppOfInterest, ModelKind, RankedMachine};
    use datatrans_dataset::query::MachineFilter;

    fn request(seed: u64) -> RankRequest {
        RankRequest {
            app: AppOfInterest::Suite(0),
            model: ModelKind::NnT,
            predictive: vec![0],
            restrict: MachineFilter::all(),
            top_k: None,
            seed,
            confidence: None,
            approx: None,
        }
    }

    fn response(score: f64) -> RankResponse {
        RankResponse {
            method: "NN^T",
            ranked: vec![RankedMachine {
                machine: 1,
                predicted_score: score,
            }],
            candidates: 1,
            shards_scanned: 1,
            shards_pruned: 0,
            confidence: None,
            approx: None,
        }
    }

    #[test]
    fn hit_returns_stored_response_and_counts() {
        let mut cache = ResultCache::new(4);
        cache.sync_version(0);
        let req = request(1);
        let fp = RequestFingerprint::of(&req);
        assert!(cache.lookup(fp, &req).is_none());
        cache.insert(fp, &req, &response(2.0));
        assert_eq!(cache.lookup(fp, &req), Some(response(2.0)));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
                fits_reused: 0,
                fits_trained: 0,
            }
        );
    }

    #[test]
    fn fingerprint_collision_is_a_miss_and_the_next_insert_replaces() {
        let mut cache = ResultCache::new(4);
        cache.sync_version(0);
        let (a, b) = (request(1), request(2));
        // Simulate a collision: B looked up under A's fingerprint.
        let fp = RequestFingerprint::of(&a);
        cache.insert(fp, &a, &response(1.0));
        assert_eq!(cache.lookup(fp, &b), None);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                invalidations: 0,
                fits_reused: 0,
                fits_trained: 0,
            }
        );
        cache.insert(fp, &b, &response(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(fp, &b), Some(response(2.0)));
        assert_eq!(cache.lookup(fp, &a), None);
    }

    #[test]
    fn capacity_is_bounded_with_lru_eviction() {
        let mut cache = ResultCache::new(2);
        cache.sync_version(0);
        let requests: Vec<RankRequest> = (0..3).map(request).collect();
        let fps: Vec<RequestFingerprint> = requests.iter().map(RequestFingerprint::of).collect();
        cache.insert(fps[0], &requests[0], &response(0.0));
        cache.insert(fps[1], &requests[1], &response(1.0));
        // Touch 0 so 1 is the LRU entry, then insert 2.
        assert!(cache.lookup(fps[0], &requests[0]).is_some());
        cache.insert(fps[2], &requests[2], &response(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fps[0], &requests[0]).is_some());
        assert!(cache.lookup(fps[1], &requests[1]).is_none(), "1 evicted");
        assert!(cache.lookup(fps[2], &requests[2]).is_some());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let cache = ResultCache::new(0);
        assert_eq!(cache.capacity(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn version_move_drops_everything_and_counts() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.sync_version(0), 0, "first sync adopts the version");
        let req = request(1);
        let fp = RequestFingerprint::of(&req);
        cache.insert(fp, &req, &response(2.0));
        assert_eq!(cache.sync_version(0), 0, "same version keeps entries");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.sync_version(1), 1, "moved version drops entries");
        assert!(cache.is_empty());
        assert!(cache.lookup(fp, &req).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }
}
