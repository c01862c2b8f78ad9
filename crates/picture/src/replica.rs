//! R-way replicated sharded retrieval: health-tracked failover, circuit
//! breaking, and deterministic hedged reads over [`ShardedVideoDb`].
//!
//! [`ReplicatedVideoDb`] holds `R` independently-built copies of the same
//! partition — each replica its own [`ShardedVideoDb`] with its own
//! per-video providers, so a fault harness can kill one copy of a shard
//! without touching its siblings. A shard read walks the replicas in the
//! pure candidate order of [`simvid_resilience::failover_order`],
//! consulting each candidate's circuit breaker
//! ([`simvid_resilience::ReplicaSetHealth`]) before calling it, failing
//! over on degradable errors, and optionally *hedging*: when a
//! [`simvid_resilience::HedgePolicy`] caps the primary's fuel, a primary
//! that burns the cap is abandoned for the next replica instead of being
//! waited out.
//!
//! Replicas are bit-identical copies, so *which* live replica serves a
//! shard never changes the answer — a chaos run that kills one replica of
//! a shard produces the exact result bytes of the fault-free run, with
//! only the `replica.failover` counter showing the difference. Only when
//! **every** replica of a shard is exhausted does the read give up, with
//! [`EngineError::ReplicasExhausted`] — degradable, so
//! [`ShardedVideoDb::gather`] degrades the corpus answer with the same
//! sound `missing_bound` a single failed unreplicated shard produces.

use crate::shard::{ShardId, ShardedAnswer, ShardedVideoDb};
use crate::{CacheConfig, PictureSystem, ScoringConfig};
use simvid_core::{AtomicProvider, Budget, EngineConfig, EngineError, ShardStream};
use simvid_htl::Formula;
use simvid_model::{VideoId, VideoStore};
use simvid_obs::{Counter, Registry};
use simvid_resilience::{failover_order, Admission, BreakerConfig, HedgePolicy, ReplicaSetHealth};
use std::fmt;
use std::sync::Arc;

/// Stable identifier of one replica of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The audit trail of one replicated shard read: which replicas were
/// consulted (in candidate order — tried *or* skipped by an open breaker),
/// which one served, and whether the read hedged off a slow primary.
///
/// Under a fault world that is pure per `(shard, replica)` — a replica
/// either always fails or never does, the regime the chaos suites pin —
/// the trace is a pure function of `(epoch, shard)`: the consulted list is
/// the prefix of [`failover_order`] up to the first live replica, whether
/// the dead candidates were tried-and-failed or breaker-denied. That is
/// what makes failover order bit-comparable across worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTrace {
    /// The shard this read targeted.
    pub shard: ShardId,
    /// Candidates consulted, in order.
    pub consulted: Vec<ReplicaId>,
    /// The replica whose stream was returned; `None` when exhausted.
    pub served_by: Option<ReplicaId>,
    /// Whether the primary was abandoned after burning its hedge fuel.
    pub hedged: bool,
}

/// An R-way replicated [`ShardedVideoDb`]: the same partition, `R`
/// independently-faultable copies, scatter-gather reads with failover.
///
/// Counters published into the shared registry:
/// * `replica.attempts` — shard-read attempts actually placed on a replica
/// * `replica.failover` — reads served by a candidate other than the first
/// * `replica.hedges` — primaries abandoned after burning hedge fuel
/// * `replica.exhausted` — shard reads that ran out of replicas
///
/// plus the `replica.breaker.*` / `replica.health.*` metrics of
/// [`ReplicaSetHealth`].
pub struct ReplicatedVideoDb<'a, P: AtomicProvider> {
    replicas: Vec<ShardedVideoDb<'a, P>>,
    health: ReplicaSetHealth,
    breaker_cfg: BreakerConfig,
    hedge: HedgePolicy,
    registry: Arc<Registry>,
    attempts: Arc<Counter>,
    failover: Arc<Counter>,
    hedges: Arc<Counter>,
    exhausted: Arc<Counter>,
}

impl<'a> ReplicatedVideoDb<'a, PictureSystem<'a>> {
    /// Partitions `store` into `shards` shards, `replicas` times over —
    /// each replica an independent [`ShardedVideoDb::partition`] with its
    /// own [`PictureSystem`]s (and atomic caches), all publishing into
    /// `registry`. Breakers start closed with [`BreakerConfig::default`]
    /// and hedging disabled; see [`ReplicatedVideoDb::with_breaker`] and
    /// [`ReplicatedVideoDb::with_hedge`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `replicas` is zero.
    #[must_use]
    pub fn partition(
        store: &'a VideoStore,
        shards: u32,
        replicas: u32,
        scoring: &ScoringConfig,
        engine_cfg: EngineConfig,
        cache: CacheConfig,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(replicas > 0, "replica count must be positive");
        let copies = (0..replicas)
            .map(|_| {
                ShardedVideoDb::partition(
                    store,
                    shards,
                    scoring,
                    engine_cfg,
                    cache,
                    Arc::clone(&registry),
                )
            })
            .collect();
        Self::from_replicas(
            copies,
            BreakerConfig::default(),
            HedgePolicy::disabled(),
            registry,
        )
    }
}

impl<'a, P: AtomicProvider> ReplicatedVideoDb<'a, P> {
    /// Assembles a replicated store from pre-built replicas of the same
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or the copies disagree on shard
    /// count.
    #[must_use]
    pub fn from_replicas(
        replicas: Vec<ShardedVideoDb<'a, P>>,
        breaker: BreakerConfig,
        hedge: HedgePolicy,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(!replicas.is_empty(), "at least one replica");
        let shards = replicas[0].shard_count();
        assert!(
            replicas.iter().all(|r| r.shard_count() == shards),
            "replicas must share the partition"
        );
        let epoch = replicas[0].epoch();
        assert!(
            replicas.iter().all(|r| r.epoch() == epoch),
            "replicas must agree on the corpus epoch (never mix epochs)"
        );
        let health = ReplicaSetHealth::new(shards, replicas.len() as u32, breaker, &registry);
        ReplicatedVideoDb {
            replicas,
            health,
            breaker_cfg: breaker,
            hedge,
            attempts: registry.counter("replica.attempts"),
            failover: registry.counter("replica.failover"),
            hedges: registry.counter("replica.hedges"),
            exhausted: registry.counter("replica.exhausted"),
            registry,
        }
    }

    /// Replaces the breaker tuning, resetting every breaker to closed.
    #[must_use]
    pub fn with_breaker(self, breaker: BreakerConfig) -> Self {
        Self::from_replicas(self.replicas, breaker, self.hedge, self.registry)
    }

    /// Replaces the hedged-read policy.
    #[must_use]
    pub fn with_hedge(self, hedge: HedgePolicy) -> Self {
        Self::from_replicas(self.replicas, self.breaker_cfg, hedge, self.registry)
    }

    /// Rewraps every per-video provider of every replica, preserving the
    /// partition and resetting breaker state. The chaos harness gives one
    /// replica of the victim shard an always-fail plan this way, leaving
    /// its siblings quiet.
    #[must_use]
    pub fn map_providers<Q, F>(self, mut f: F) -> ReplicatedVideoDb<'a, Q>
    where
        Q: AtomicProvider,
        F: FnMut(ReplicaId, ShardId, VideoId, P) -> Q,
    {
        let registry = Arc::clone(&self.registry);
        let breaker = self.breaker_cfg;
        let hedge = self.hedge;
        let replicas = self
            .replicas
            .into_iter()
            .enumerate()
            .map(|(ri, db)| {
                let rid = ReplicaId(ri as u32);
                db.map_providers(|sid, vid, p| f(rid, sid, vid, p))
            })
            .collect();
        ReplicatedVideoDb::from_replicas(replicas, breaker, hedge, registry)
    }

    /// Visits every per-video provider of every replica.
    pub fn for_each_provider(&self, mut f: impl FnMut(ReplicaId, ShardId, VideoId, &P)) {
        for (ri, db) in self.replicas.iter().enumerate() {
            let rid = ReplicaId(ri as u32);
            db.for_each_provider(|sid, vid, p| f(rid, sid, vid, p));
        }
    }

    /// Number of shards per replica.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.replicas[0].shard_count()
    }

    /// The corpus epoch every replica was built against (asserted equal
    /// at assembly).
    #[must_use]
    pub fn epoch(&self) -> simvid_model::CorpusEpoch {
        self.replicas[0].epoch()
    }

    /// Number of replicas of the partition.
    #[must_use]
    pub fn replica_count(&self) -> u32 {
        self.replicas.len() as u32
    }

    /// The shard ids, in order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.replicas[0].shard_ids()
    }

    /// The videos assigned to `shard` (identical in every replica).
    #[must_use]
    pub fn videos_in(&self, shard: ShardId) -> Vec<VideoId> {
        self.replicas[0].videos_in(shard)
    }

    /// The metrics registry shared by every replica.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared breaker/health grid (read access for tests and gauges).
    #[must_use]
    pub fn health(&self) -> &ReplicaSetHealth {
        &self.health
    }

    /// One replica's sharded store (the unreplicated oracle and the merge
    /// coordinator both live there).
    #[must_use]
    pub fn replica(&self, r: ReplicaId) -> &ShardedVideoDb<'a, P> {
        &self.replicas[r.0 as usize]
    }

    /// Merges per-shard outcomes exactly as [`ShardedVideoDb::gather`]
    /// does — shared so replicated and unreplicated requests account and
    /// degrade identically.
    ///
    /// # Errors
    ///
    /// As [`ShardedVideoDb::gather`].
    pub fn gather(
        &self,
        per_shard: Vec<(ShardId, Result<ShardStream, EngineError>)>,
        k: usize,
    ) -> Result<ShardedAnswer, EngineError> {
        self.replicas[0].gather(per_shard, k)
    }

    /// Evaluates `query` on one shard with replica failover: walks the
    /// candidates of [`failover_order`]`(epoch, shard, R)`, skipping
    /// replicas whose breaker denies admission, failing over on degradable
    /// errors, and hedging off a fuel-capped primary when a
    /// [`HedgePolicy`] is set. Probe admissions run uncapped so the
    /// breaker always learns a definitive outcome.
    ///
    /// Returns the first live replica's stream — bit-identical to any
    /// other replica's, since replicas are copies — plus the
    /// [`ReplicaTrace`] of the walk. When every candidate is exhausted the
    /// result is [`EngineError::ReplicasExhausted`] (degradable); a
    /// non-degradable error aborts immediately, since it is
    /// replica-independent (the request itself is malformed).
    ///
    /// If the capped primary burns its fuel and every other replica fails,
    /// the primary is retried uncapped before giving up — slow is better
    /// than exhausted.
    pub fn eval_shard_replicated(
        &self,
        epoch: u64,
        shard: ShardId,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> (Result<ShardStream, EngineError>, ReplicaTrace) {
        let order = failover_order(epoch, shard.0, self.replica_count());
        let mut trace = ReplicaTrace {
            shard,
            consulted: Vec::with_capacity(order.len()),
            served_by: None,
            hedged: false,
        };
        let mut last_err: Option<EngineError> = None;
        let mut hedged_primary: Option<u32> = None;
        for (idx, &r) in order.iter().enumerate() {
            trace.consulted.push(ReplicaId(r));
            let admission = self.health.admit(shard.0, r);
            if admission == Admission::Deny {
                continue;
            }
            // Only the leading candidate on a plain admission is
            // fuel-capped: probes must reach a definitive outcome, and
            // failover attempts are already the fallback.
            let cap = match (idx, admission, self.hedge.primary_fuel) {
                (0, Admission::Admit, Some(fuel)) => Some(fuel),
                _ => None,
            };
            match self.try_replica(shard, r, query, depth, k, cap) {
                Ok(stream) => {
                    if idx > 0 {
                        self.failover.inc();
                    }
                    trace.served_by = Some(ReplicaId(r));
                    return (Ok(stream), trace);
                }
                Err(EngineError::BudgetExhausted) if cap.is_some() => {
                    // The primary is slow, not broken: hedge to the next
                    // replica without dinging its health.
                    self.hedges.inc();
                    trace.hedged = true;
                    hedged_primary = Some(r);
                }
                Err(e) if e.is_degradable() => {
                    self.health.record(shard.0, r, false);
                    last_err = Some(e);
                }
                Err(e) => return (Err(e), trace),
            }
        }
        if let Some(r) = hedged_primary {
            // Every other replica is down; the slow primary is the best
            // copy left. Retry it uncapped.
            match self.try_replica(shard, r, query, depth, k, None) {
                Ok(stream) => {
                    trace.served_by = Some(ReplicaId(r));
                    return (Ok(stream), trace);
                }
                Err(e) if e.is_degradable() => {
                    self.health.record(shard.0, r, false);
                    last_err = Some(e);
                }
                Err(e) => return (Err(e), trace),
            }
        }
        self.exhausted.inc();
        let why = last_err.map_or_else(
            || "every candidate denied by its circuit breaker".to_owned(),
            |e| e.to_string(),
        );
        (
            Err(EngineError::ReplicasExhausted(format!("{shard}: {why}"))),
            trace,
        )
    }

    /// One admitted attempt on one replica: budgeted when hedging caps the
    /// primary's fuel, unlimited otherwise. Success is recorded into the
    /// health grid here; failures are classified by the caller (a burnt
    /// hedge cap must not count against health).
    fn try_replica(
        &self,
        shard: ShardId,
        r: u32,
        query: &Formula,
        depth: u8,
        k: usize,
        cap: Option<u64>,
    ) -> Result<ShardStream, EngineError> {
        self.attempts.inc();
        let budget = match cap {
            Some(fuel) => Budget::unlimited().with_fuel(fuel),
            None => Budget::unlimited(),
        };
        let out = self.replicas[r as usize].eval_shard_budgeted(shard, query, depth, k, &budget);
        if out.is_ok() {
            self.health.record(shard.0, r, true);
        }
        out
    }

    /// Scatter-gather top-`k` with replica failover on every shard.
    /// Complete answers are bit-identical to [`ShardedVideoDb::top_k`] on
    /// any single replica; a shard whose replicas are all exhausted
    /// degrades the answer exactly as an unreplicated failed shard does.
    ///
    /// # Errors
    ///
    /// Non-degradable errors only, as [`ShardedVideoDb::top_k`].
    pub fn top_k_replicated(
        &self,
        epoch: u64,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<(ShardedAnswer, Vec<ReplicaTrace>), EngineError> {
        let shard_ids: Vec<ShardId> = self.shard_ids().collect();
        let mut per_shard = Vec::with_capacity(shard_ids.len());
        let mut traces = Vec::with_capacity(shard_ids.len());
        for s in shard_ids {
            let (outcome, trace) = self.eval_shard_replicated(epoch, s, query, depth, k);
            per_shard.push((s, outcome));
            traces.push(trace);
        }
        Ok((self.gather(per_shard, k)?, traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;
    use simvid_model::{VideoBuilder, VideoTree};
    use simvid_resilience::{FaultPlan, FaultyProvider, RetryPolicy};

    fn video(title: &str, gun_shots: &[bool]) -> VideoTree {
        let mut b = VideoBuilder::new(title);
        b.set_level_names(["video", "shot"]);
        for (i, &has) in gun_shots.iter().enumerate() {
            b.child(format!("shot{i}"));
            if has {
                let o = b.object(1, "person", None);
                b.relationship("holds_gun", [o]);
            } else {
                b.object(2, "horse", None);
            }
            b.up();
        }
        b.finish().unwrap()
    }

    fn store() -> VideoStore {
        let mut store = VideoStore::new();
        store.add(video("a", &[false, true, false, true]));
        store.add(video("b", &[true, true]));
        store.add(video("c", &[false, false, true]));
        store.add(video("d", &[true]));
        store.add(video("e", &[false, true, true]));
        store.add(video("f", &[true, false, true]));
        store
    }

    fn db(
        store: &VideoStore,
        shards: u32,
        replicas: u32,
    ) -> ReplicatedVideoDb<'_, PictureSystem<'_>> {
        ReplicatedVideoDb::partition(
            store,
            shards,
            replicas,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::new(Registry::new()),
        )
    }

    fn query() -> Formula {
        parse("exists x . person(x) and holds_gun(x)").unwrap()
    }

    #[test]
    fn fault_free_replicated_matches_single_replica() {
        let store = store();
        let db = db(&store, 3, 2);
        let q = query();
        let single = db.replica(ReplicaId(0)).top_k(&q, 1, 5).unwrap();
        for epoch in 0..8 {
            let (answer, traces) = db.top_k_replicated(epoch, &q, 1, 5).unwrap();
            assert!(answer.is_complete());
            assert_eq!(answer.ranked(), single.ranked());
            assert_eq!(traces.len(), 3);
            for t in &traces {
                assert_eq!(t.consulted.len(), 1, "fault-free reads stop at the primary");
                assert_eq!(t.served_by, Some(t.consulted[0]));
                assert!(!t.hedged);
            }
        }
        let snap = db.registry().snapshot();
        assert_eq!(snap.counter("replica.failover"), Some(0));
        assert_eq!(snap.counter("replica.exhausted"), Some(0));
    }

    #[test]
    fn dead_replica_fails_over_without_degrading() {
        let store = store();
        let registry = Arc::new(Registry::new());
        let plain = ReplicatedVideoDb::partition(
            &store,
            2,
            2,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::clone(&registry),
        );
        let q = query();
        let truth = plain.replica(ReplicaId(0)).top_k(&q, 1, 5).unwrap();
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let db = plain.map_providers(|rid, _sid, _vid, sys| {
            let plan = if rid == ReplicaId(0) {
                FaultPlan {
                    seed: 7,
                    error_rate: 1.0,
                    ..FaultPlan::quiet(7)
                }
            } else {
                FaultPlan::quiet(7)
            };
            FaultyProvider::with_registry(sys, plan, policy, &registry)
        });
        for epoch in 0..16 {
            let (answer, traces) = db.top_k_replicated(epoch, &q, 1, 5).unwrap();
            assert!(answer.is_complete(), "one live replica per shard suffices");
            assert_eq!(answer.ranked(), truth.ranked());
            for t in &traces {
                assert_eq!(
                    t.served_by,
                    Some(ReplicaId(1)),
                    "replica 1 is the live copy"
                );
            }
        }
        let snap = db.registry().snapshot();
        assert!(snap.counter("replica.failover").unwrap() > 0);
        assert_eq!(snap.counter("replica.exhausted"), Some(0));
        assert_eq!(snap.counter("shard.outcome.failed"), Some(0));
    }

    #[test]
    fn whole_shard_kill_degrades_with_a_sound_bound() {
        let store = store();
        let registry = Arc::new(Registry::new());
        let plain = ReplicatedVideoDb::partition(
            &store,
            2,
            2,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::clone(&registry),
        );
        let q = query();
        let victim = plain
            .shard_ids()
            .find(|&s| !plain.videos_in(s).is_empty())
            .unwrap();
        assert!(
            plain
                .shard_ids()
                .any(|s| s != victim && !plain.videos_in(s).is_empty()),
            "a survivor shard must hold videos for the bound to be finite"
        );
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let db = plain.map_providers(|_rid, sid, _vid, sys| {
            let plan = if sid == victim {
                FaultPlan {
                    seed: 7,
                    error_rate: 1.0,
                    ..FaultPlan::quiet(7)
                }
            } else {
                FaultPlan::quiet(7)
            };
            FaultyProvider::with_registry(sys, plan, policy, &registry)
        });
        let (answer, traces) = db.top_k_replicated(0, &q, 1, 5).unwrap();
        match answer {
            ShardedAnswer::Degraded(d) => {
                assert_eq!(d.failed.len(), 1);
                assert_eq!(d.failed[0].0, victim);
                assert!(d.failed[0].1.contains("every replica"), "{}", d.failed[0].1);
                assert!(d.missing_bound.is_finite());
            }
            ShardedAnswer::Complete(_) => panic!("a fully-killed shard must degrade"),
        }
        let victim_trace = traces.iter().find(|t| t.shard == victim).unwrap();
        assert_eq!(victim_trace.served_by, None);
        assert_eq!(victim_trace.consulted.len(), 2, "both replicas consulted");
        let snap = db.registry().snapshot();
        assert!(snap.counter("replica.exhausted").unwrap() > 0);
    }

    #[test]
    fn hedged_primary_fails_over_then_retries_uncapped_as_last_resort() {
        let store = store();
        let db = db(&store, 1, 2).with_hedge(HedgePolicy::with_fuel(0));
        let q = query();
        // Fuel 0 exhausts immediately: the primary always hedges, the
        // secondary serves, answers stay exact.
        let single = db.replica(ReplicaId(0)).top_k(&q, 1, 5).unwrap();
        let (answer, traces) = db.top_k_replicated(0, &q, 1, 5).unwrap();
        assert!(answer.is_complete());
        assert_eq!(answer.ranked(), single.ranked());
        assert!(traces[0].hedged);
        assert_eq!(traces[0].served_by, Some(traces[0].consulted[1]));
        let snap = db.registry().snapshot();
        assert!(snap.counter("replica.hedges").unwrap() > 0);
        assert!(snap.counter("replica.failover").unwrap() > 0);
    }

    #[test]
    fn non_degradable_errors_abort_instead_of_failing_over() {
        let store = store();
        let db = db(&store, 2, 3);
        let hopeless = parse("not eventually (exists x . holds_gun(x))").unwrap();
        assert!(db.top_k_replicated(0, &hopeless, 1, 5).is_err());
    }
}
