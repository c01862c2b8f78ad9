//! A replicated serving workload: the failover twin of [`crate::shard`].
//!
//! Same corpus, query pool, and Zipf schedule as the sharded workload —
//! the store is just replicated R ways ([`ReplicatedVideoDb`]), and every
//! shard read goes through breaker-gated failover. The request index is
//! the failover *epoch*: candidate order rotates per request exactly as
//! `simvid_resilience::failover_order` prescribes, so which replica
//! leads each read is deterministic in the schedule alone.
//!
//! Two runners drive the schedule, mirroring [`crate::shard`]:
//!
//! * [`run_schedule_replicated`] — sequential reference.
//! * [`run_schedule_replicated_concurrent`] — the executor fanned out over
//!   *(request, shard)* tasks; the worker finishing a request's last shard
//!   gathers. Answers **and** failover traces come back slot-ordered and,
//!   under per-replica-pure fault worlds, bit-identical to the sequential
//!   runner for every worker count.

use simvid_core::AtomicProvider;
use simvid_picture::{ReplicaTrace, ReplicatedVideoDb, ShardId, ShardedAnswer};
use std::time::{Duration, Instant};

use crate::serve::{run_fan_out, run_in_order, ExecutorConfig};
use crate::shard::{by_shard, ShardedServeWorkload};

/// The outcome of driving one replicated request schedule.
#[derive(Debug, Clone)]
pub struct ReplicatedScheduleRun {
    /// Per-request scatter-gather answers, in schedule order.
    pub answers: Vec<ShardedAnswer>,
    /// Per-request failover traces, one per shard in shard order.
    pub traces: Vec<Vec<ReplicaTrace>>,
    /// Wall time of the whole schedule.
    pub elapsed: Duration,
}

impl ReplicatedScheduleRun {
    /// How many requests resolved with every shard contributing.
    #[must_use]
    pub fn complete(&self) -> usize {
        self.answers.iter().filter(|a| a.is_complete()).count()
    }

    /// How many requests lost at least one shard (every replica of it
    /// exhausted).
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.answers.len() - self.complete()
    }

    /// Total shard reads served by a non-leading candidate.
    #[must_use]
    pub fn failovers(&self) -> usize {
        self.traces
            .iter()
            .flatten()
            .filter(|t| t.served_by.is_some() && t.served_by != t.consulted.first().copied())
            .count()
    }
}

/// Drives the request schedule through the replicated store sequentially:
/// request `r` scatters at epoch `r` over the shards in shard order (each
/// read walking its failover candidates), gathers, repeat. `before_request`
/// runs before each slot — fault harnesses re-key their per-request fault
/// epochs there.
///
/// `serve.requests` / `serve.request_seconds` are recorded as in
/// [`crate::serve::run_schedule`], next to the `replica.*` counters the
/// store itself maintains.
///
/// # Panics
///
/// Panics if a request fails with a non-degradable error (the pool is
/// fixed and closed, so this indicates an engine bug).
#[must_use]
pub fn run_schedule_replicated<P: AtomicProvider>(
    w: &ShardedServeWorkload,
    db: &ReplicatedVideoDb<P>,
    before_request: impl FnMut(usize),
) -> ReplicatedScheduleRun {
    let depth = w.depth();
    let (answers, elapsed) = run_in_order(db.registry(), w.schedule.len(), before_request, |r| {
        db.top_k_replicated(r as u64, &w.queries[w.schedule[r]], depth, w.k)
            .expect("replicated request evaluates")
    });
    let (answers, traces) = answers.into_iter().unzip();
    ReplicatedScheduleRun {
        answers,
        traces,
        elapsed,
    }
}

/// Concurrent twin of [`run_schedule_replicated`]: the executor fans each
/// request out over *(request, shard)* tasks, every shard read carries its
/// request's epoch, and the worker completing a request's last shard runs
/// the merge coordinator. `before_task` runs on the worker thread with the
/// request index immediately before the shard read — fault harnesses pin
/// their per-thread fault epoch there.
///
/// Answers are bit-identical to the sequential runner for every worker
/// count whenever the fault world is pure per `(shard, replica)` (always-
/// fail or never-fail replicas — the chaos regime): failover candidate
/// order is epoch-pure, and whichever live replica serves, replicas are
/// copies. Traces are then schedule-independent too (see
/// [`ReplicaTrace`]).
///
/// # Panics
///
/// As [`run_schedule_replicated`]; a panicking worker closes the queue so
/// the pool shuts down instead of deadlocking.
#[must_use]
pub fn run_schedule_replicated_concurrent<P: AtomicProvider>(
    w: &ShardedServeWorkload,
    db: &ReplicatedVideoDb<P>,
    exec: &ExecutorConfig,
    before_task: impl Fn(usize) + Sync,
) -> ReplicatedScheduleRun {
    let depth = w.depth();
    let start = Instant::now();
    let (answers, traces) = run_fan_out(
        exec,
        db.registry(),
        w.schedule.len(),
        db.shard_count() as usize,
        |r, s| {
            before_task(r);
            let query = &w.queries[w.schedule[r]];
            db.eval_shard_replicated(r as u64, ShardId(s as u32), query, depth, w.k)
        },
        |reads| {
            let (per_shard, traces): (Vec<_>, Vec<_>) = reads.into_iter().unzip();
            let answer = db
                .gather(by_shard(per_shard), w.k)
                .expect("replicated request evaluates");
            (answer, traces)
        },
    )
    .into_iter()
    .unzip();
    ReplicatedScheduleRun {
        answers,
        traces,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{build_sharded, run_schedule_sharded, ShardedServeConfig};
    use simvid_core::EngineConfig;
    use simvid_obs::Registry;
    use simvid_picture::{CacheConfig, ScoringConfig, ShardedVideoDb};
    use std::sync::Arc;

    fn workload() -> ShardedServeWorkload {
        build_sharded(&ShardedServeConfig {
            videos: 5,
            shots: 12,
            requests: 20,
            ..ShardedServeConfig::default()
        })
    }

    fn replicate(
        w: &ShardedServeWorkload,
        shards: u32,
        replicas: u32,
    ) -> ReplicatedVideoDb<'_, simvid_picture::PictureSystem<'_>> {
        ReplicatedVideoDb::partition(
            &w.store,
            shards,
            replicas,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn replicated_schedule_matches_the_sharded_reference() {
        let w = workload();
        let sharded = ShardedVideoDb::partition(
            &w.store,
            2,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::new(Registry::new()),
        );
        let reference = run_schedule_sharded(&w, &sharded);
        let db = replicate(&w, 2, 2);
        let run = run_schedule_replicated(&w, &db, |_| {});
        assert_eq!(run.complete(), w.schedule.len());
        assert_eq!(run.failovers(), 0, "fault-free reads never fail over");
        for (a, b) in run.answers.iter().zip(&reference.answers) {
            assert_eq!(a.ranked(), b.ranked());
        }
    }

    #[test]
    fn concurrent_fanout_matches_sequential_answers_and_traces() {
        let w = workload();
        let db = replicate(&w, 2, 3);
        let seq = run_schedule_replicated(&w, &db, |_| {});
        for workers in [1, 2, 4] {
            let conc = run_schedule_replicated_concurrent(
                &w,
                &db,
                &ExecutorConfig {
                    workers,
                    queue_depth: 2 * workers,
                },
                |_| {},
            );
            assert_eq!(conc.answers.len(), seq.answers.len());
            for (a, b) in seq.answers.iter().zip(&conc.answers) {
                assert_eq!(a.ranked(), b.ranked(), "workers={workers}");
            }
            assert_eq!(conc.traces, seq.traces, "workers={workers}");
        }
    }

    #[test]
    fn failover_epoch_rotates_the_leading_replica() {
        let w = workload();
        let db = replicate(&w, 2, 4);
        let run = run_schedule_replicated(&w, &db, |_| {});
        let mut leaders = std::collections::BTreeSet::new();
        for trace in run.traces.iter().flatten() {
            leaders.insert(trace.consulted[0]);
        }
        assert!(
            leaders.len() > 1,
            "the rotation must spread primaries over replicas: {leaders:?}"
        );
    }
}
