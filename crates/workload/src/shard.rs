//! A sharded serving workload: the multi-video corpus twin of
//! [`crate::serve`].
//!
//! The corpus is a seeded set of random videos (one tree per video, same
//! generator as the single-video serving workload), the query pool and
//! Zipf-skewed request schedule are shared with [`crate::serve`], and each
//! request is a corpus-wide top-`k` answered by scatter-gather over a
//! [`ShardedVideoDb`]. Two runners drive the schedule:
//!
//! * [`run_schedule_sharded`] — the sequential reference: scatter each
//!   request across the shards in shard order, gather, next request.
//! * [`run_schedule_sharded_concurrent`] — the shared worker pool fanned
//!   out over `(request, shard)` tasks: whichever worker finishes the
//!   last shard of a request runs the merge coordinator for it. Results
//!   come back slot-ordered and bit-identical to the sequential runner
//!   for every worker count and every shard count.

use simvid_core::AtomicProvider;
use simvid_htl::Formula;
use simvid_model::VideoStore;
use simvid_picture::{ShardId, ShardedAnswer, ShardedVideoDb};
use std::time::{Duration, Instant};

use crate::randomvideo::{generate, VideoGenConfig};
use crate::serve::{run_fan_out, run_in_order, ExecutorConfig};

/// Parameters of the sharded serving workload.
#[derive(Debug, Clone)]
pub struct ShardedServeConfig {
    /// Number of videos in the corpus.
    pub videos: u32,
    /// Shots per video (leaves of each two-level tree).
    pub shots: u32,
    /// Number of requests in the schedule.
    pub requests: usize,
    /// Skew of the query popularity distribution (see
    /// [`crate::serve::ServeConfig::zipf_exponent`]).
    pub zipf_exponent: f64,
    /// `k` of the corpus-wide top-`k` each request asks for.
    pub k: usize,
    /// Seed for the corpus and the schedule.
    pub seed: u64,
    /// Per-video atomic-cache capacity.
    pub cache_capacity: usize,
    /// Shard count of the partition.
    pub shards: u32,
    /// Worker threads of the concurrent executor.
    pub workers: usize,
    /// Capacity of the executor's bounded task queue.
    pub queue_depth: usize,
}

impl Default for ShardedServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ShardedServeConfig {
            videos: 8,
            shots: 60,
            requests: 120,
            zipf_exponent: 1.1,
            k: 10,
            seed: 97,
            cache_capacity: 1024,
            shards: 2,
            workers,
            queue_depth: 2 * workers,
        }
    }
}

/// A fully materialised sharded serving workload: the corpus, the query
/// pool, and the request schedule (indices into the pool).
pub struct ShardedServeWorkload {
    /// The served corpus; partition it with
    /// [`ShardedVideoDb::partition`].
    pub store: VideoStore,
    /// The query pool, hottest first (same pool as [`crate::serve`]).
    pub queries: Vec<Formula>,
    /// The request schedule: `schedule[r]` indexes into `queries`.
    pub schedule: Vec<usize>,
    /// Top-`k` size of every request.
    pub k: usize,
}

impl ShardedServeWorkload {
    /// The depth requests are evaluated at (the shot level of every
    /// generated video).
    #[must_use]
    pub fn depth(&self) -> u8 {
        1
    }
}

/// Builds the sharded workload. Deterministic in `cfg.seed`: video `i`
/// derives its generator seed from the base seed, and the schedule uses
/// the exact sampling of [`crate::serve::build`].
#[must_use]
pub fn build_sharded(cfg: &ShardedServeConfig) -> ShardedServeWorkload {
    let mut store = VideoStore::new();
    for i in 0..cfg.videos {
        let seed = cfg
            .seed
            .wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        store.add(generate(
            &VideoGenConfig {
                branching: vec![cfg.shots],
                object_count: 10,
                objects_per_leaf: 3.0,
                ..VideoGenConfig::default()
            },
            seed,
        ));
    }
    let single = crate::serve::build(&crate::serve::ServeConfig {
        shots: 1, // the tree is discarded; only the schedule matters
        requests: cfg.requests,
        zipf_exponent: cfg.zipf_exponent,
        k: cfg.k,
        seed: cfg.seed,
        ..crate::serve::ServeConfig::default()
    });
    ShardedServeWorkload {
        store,
        queries: single.queries,
        schedule: single.schedule,
        k: cfg.k,
    }
}

/// The outcome of driving one sharded request schedule.
#[derive(Debug, Clone)]
pub struct ShardedScheduleRun {
    /// Per-request scatter-gather answers, in schedule order.
    pub answers: Vec<ShardedAnswer>,
    /// Wall time of the whole schedule.
    pub elapsed: Duration,
}

impl ShardedScheduleRun {
    /// How many requests resolved with every shard contributing.
    #[must_use]
    pub fn complete(&self) -> usize {
        self.answers.iter().filter(|a| a.is_complete()).count()
    }

    /// How many requests lost at least one shard.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.answers.len() - self.complete()
    }
}

/// Drives the request schedule through the sharded store sequentially:
/// scatter each request over the shards in shard order, gather, repeat.
/// Failed shards degrade the affected requests (see
/// [`ShardedVideoDb::gather`]); `serve.requests` and
/// `serve.request_seconds` are recorded as in [`crate::serve::run_schedule`],
/// next to the `shard.*` counters the store itself maintains.
///
/// # Panics
///
/// Panics if a request fails with a non-degradable error (the pool is
/// fixed and closed, so this indicates an engine bug).
#[must_use]
pub fn run_schedule_sharded<P: AtomicProvider>(
    w: &ShardedServeWorkload,
    db: &ShardedVideoDb<P>,
) -> ShardedScheduleRun {
    let depth = w.depth();
    let (answers, elapsed) = run_in_order(
        db.registry(),
        w.schedule.len(),
        |_| {},
        |r| {
            db.top_k(&w.queries[w.schedule[r]], depth, w.k)
                .expect("sharded request evaluates")
        },
    );
    ShardedScheduleRun { answers, elapsed }
}

/// Concurrent twin of [`run_schedule_sharded`]: the shared worker pool
/// with the unit of work one *(request, shard)* pair instead of one
/// request — the executor fans each request out across the shards, and
/// the worker that completes a request's last shard runs the merge
/// coordinator. Answers come back in schedule order and bit-identical to
/// the sequential runner for every worker count: per-shard streams are
/// merged by the same deterministic coordinator whatever order they
/// finish in.
///
/// # Panics
///
/// As [`run_schedule_sharded`]; a panicking worker closes the queue so
/// the pool shuts down instead of deadlocking.
#[must_use]
pub fn run_schedule_sharded_concurrent<P: AtomicProvider>(
    w: &ShardedServeWorkload,
    db: &ShardedVideoDb<P>,
    exec: &ExecutorConfig,
) -> ShardedScheduleRun {
    let depth = w.depth();
    let start = Instant::now();
    let answers = run_fan_out(
        exec,
        db.registry(),
        w.schedule.len(),
        db.shard_count() as usize,
        |r, s| db.eval_shard(ShardId(s as u32), &w.queries[w.schedule[r]], depth, w.k),
        |streams| {
            db.gather(by_shard(streams), w.k)
                .expect("sharded request evaluates")
        },
    );
    ShardedScheduleRun {
        answers,
        elapsed: start.elapsed(),
    }
}

/// Labels per-shard results, given in shard order, with their shard ids.
pub(crate) fn by_shard<T>(per_shard: Vec<T>) -> Vec<(ShardId, T)> {
    (0..).map(ShardId).zip(per_shard).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_core::EngineConfig;
    use simvid_obs::Registry;
    use simvid_picture::{CacheConfig, ScoringConfig};
    use std::sync::Arc;

    fn workload() -> ShardedServeWorkload {
        build_sharded(&ShardedServeConfig {
            videos: 5,
            shots: 12,
            requests: 24,
            ..ShardedServeConfig::default()
        })
    }

    fn partition(
        w: &ShardedServeWorkload,
        shards: u32,
    ) -> ShardedVideoDb<'_, simvid_picture::PictureSystem<'_>> {
        ShardedVideoDb::partition(
            &w.store,
            shards,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let a = workload();
        let b = workload();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.store.iter().count(), 5);
        for ((_, ta), (_, tb)) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(ta.segment_count(), tb.segment_count());
        }
    }

    #[test]
    fn concurrent_fanout_is_bit_identical_to_sequential() {
        let w = workload();
        for shards in [1, 2, 4] {
            let db = partition(&w, shards);
            let seq = run_schedule_sharded(&w, &db);
            for workers in [1, 2, 4] {
                let conc = run_schedule_sharded_concurrent(
                    &w,
                    &db,
                    &ExecutorConfig {
                        workers,
                        queue_depth: 2 * workers,
                    },
                );
                assert_eq!(conc.answers.len(), seq.answers.len());
                for (a, b) in seq.answers.iter().zip(&conc.answers) {
                    assert_eq!(a.ranked(), b.ranked(), "shards={shards} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn sharded_schedule_matches_unsharded_oracle() {
        let w = workload();
        for shards in [1, 3] {
            let db = partition(&w, shards);
            let run = run_schedule_sharded(&w, &db);
            assert_eq!(run.complete(), w.schedule.len());
            for (answer, &q) in run.answers.iter().zip(&w.schedule) {
                let oracle = db.top_k_unsharded(&w.queries[q], w.depth(), w.k).unwrap();
                assert_eq!(answer.ranked(), &oracle[..], "shards={shards}");
            }
        }
    }
}
