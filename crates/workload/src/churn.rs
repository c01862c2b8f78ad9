//! A churn serving workload: queries interleaved with corpus mutations.
//!
//! The corpus, query pool and Zipf-skewed schedule are exactly those of
//! [`crate::shard`] (same seeding, so the mutation-free prefix of a churn
//! run answers bit-identically to the frozen sharded workload). On top of
//! them, [`build_churn`] derives a deterministic sequence of mutation
//! batches — `Ingest`/`Update`/`Remove` mixes, always leaving at least
//! one live video — scheduled at fixed request positions. Two runners
//! drive the schedule against a [`LiveVideoDb`]:
//!
//! * [`run_schedule_churn`] — the sequential reference: before each
//!   request, apply any batch scheduled at its position; then pin a
//!   snapshot and answer.
//! * [`run_schedule_churn_concurrent`] — the segments between mutation
//!   points run through the shared `(request, shard)` worker-pool fan-out
//!   against one pinned snapshot per segment; the pool drains (a
//!   barrier) at each mutation point, the batch applies, and the next
//!   segment pins the new epoch. Answers are bit-identical to the
//!   sequential runner at every worker count because each request is
//!   answered at the same epoch either way.

use simvid_htl::Formula;
use simvid_model::{CorpusOp, VideoId, VideoStore};
use simvid_picture::{LiveVideoDb, ShardId, ShardedAnswer};
use std::time::{Duration, Instant};

use crate::randomvideo::{generate, VideoGenConfig};
use crate::serve::{run_fan_out, run_in_order, ExecutorConfig};
use crate::shard::by_shard;

/// Parameters of the churn workload.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of videos in the base corpus (epoch 0).
    pub videos: u32,
    /// Shots per video (base and mutated trees alike).
    pub shots: u32,
    /// Number of requests in the schedule.
    pub requests: usize,
    /// Skew of the query popularity distribution.
    pub zipf_exponent: f64,
    /// `k` of the corpus-wide top-`k` each request asks for.
    pub k: usize,
    /// Seed for the corpus, the schedule and the mutation batches.
    pub seed: u64,
    /// Per-video atomic-cache capacity.
    pub cache_capacity: usize,
    /// Shard count of the live partition.
    pub shards: u32,
    /// Replica count per video.
    pub replicas: u32,
    /// Number of mutation batches, spread evenly over the schedule.
    pub batches: usize,
    /// Worker threads of the concurrent executor.
    pub workers: usize,
    /// Capacity of the executor's bounded task queue.
    pub queue_depth: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ChurnConfig {
            videos: 8,
            shots: 60,
            requests: 120,
            zipf_exponent: 1.1,
            k: 10,
            seed: 97,
            cache_capacity: 1024,
            shards: 2,
            replicas: 1,
            batches: 3,
            workers,
            queue_depth: 2 * workers,
        }
    }
}

/// A fully materialised churn workload: the base corpus, the query pool
/// and schedule, and the mutation batches at their scheduled positions.
pub struct ChurnWorkload {
    /// The base corpus (epoch 0); hand it to [`LiveVideoDb::new`].
    pub store: VideoStore,
    /// The query pool, hottest first.
    pub queries: Vec<Formula>,
    /// The request schedule: `schedule[r]` indexes into `queries`.
    pub schedule: Vec<usize>,
    /// Mutation batches as `(position, ops)`: the batch applies *before*
    /// the request at `position`. Positions are non-decreasing.
    pub batches: Vec<(usize, Vec<CorpusOp>)>,
    /// Top-`k` size of every request.
    pub k: usize,
}

impl ChurnWorkload {
    /// The depth requests are evaluated at (the shot level).
    #[must_use]
    pub fn depth(&self) -> u8 {
        1
    }

    /// Requests before the first mutation — the prefix that must answer
    /// bit-identically to the frozen (epoch 0) store.
    #[must_use]
    pub fn mutation_free_prefix(&self) -> usize {
        self.batches
            .first()
            .map_or(self.schedule.len(), |(p, _)| *p)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the churn workload. Deterministic in `cfg.seed`; the base
/// corpus and schedule are exactly [`crate::shard::build_sharded`]'s for
/// the same parameters.
#[must_use]
pub fn build_churn(cfg: &ChurnConfig) -> ChurnWorkload {
    let sharded = crate::shard::build_sharded(&crate::shard::ShardedServeConfig {
        videos: cfg.videos,
        shots: cfg.shots,
        requests: cfg.requests,
        zipf_exponent: cfg.zipf_exponent,
        k: cfg.k,
        seed: cfg.seed,
        cache_capacity: cfg.cache_capacity,
        shards: cfg.shards,
        workers: cfg.workers,
        queue_depth: cfg.queue_depth,
    });

    // Derive the mutation batches from a private splitmix stream,
    // simulating store liveness so every batch is valid by construction.
    let mut rng = cfg.seed ^ 0x6368_7572_6e5f_6f70; // "churn_op"
    let mut live: Vec<VideoId> = (0..cfg.videos).map(VideoId).collect();
    let mut next_id = cfg.videos;
    let gen_tree = |seed: u64| {
        generate(
            &VideoGenConfig {
                branching: vec![cfg.shots],
                object_count: 10,
                objects_per_leaf: 3.0,
                ..VideoGenConfig::default()
            },
            seed,
        )
    };
    let mut batches: Vec<(usize, Vec<CorpusOp>)> = Vec::with_capacity(cfg.batches);
    for j in 0..cfg.batches {
        let position = (j + 1) * cfg.requests / (cfg.batches + 1);
        let op_count = 1 + (splitmix(&mut rng) % 3) as usize;
        let mut ops: Vec<CorpusOp> = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            let roll = splitmix(&mut rng) % 3;
            match roll {
                1 if !live.is_empty() => {
                    let pick = live[(splitmix(&mut rng) as usize) % live.len()];
                    ops.push(CorpusOp::Update(pick, gen_tree(splitmix(&mut rng))));
                }
                2 if live.len() > 1 => {
                    let ix = (splitmix(&mut rng) as usize) % live.len();
                    let pick = live.swap_remove(ix);
                    ops.push(CorpusOp::Remove(pick));
                }
                _ => {
                    ops.push(CorpusOp::Ingest(gen_tree(splitmix(&mut rng))));
                    live.push(VideoId(next_id));
                    next_id += 1;
                }
            }
        }
        batches.push((position, ops));
    }

    ChurnWorkload {
        store: sharded.store,
        queries: sharded.queries,
        schedule: sharded.schedule,
        batches,
        k: cfg.k,
    }
}

/// The outcome of driving one churn schedule.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// Per-request `(epoch, answer)` pairs, in schedule order: the epoch
    /// the request's pinned snapshot served.
    pub answers: Vec<(u64, ShardedAnswer)>,
    /// Wall time of the whole schedule, mutation applies included.
    pub elapsed: Duration,
}

impl ChurnRun {
    /// How many requests resolved with every shard contributing.
    #[must_use]
    pub fn complete(&self) -> usize {
        self.answers.iter().filter(|(_, a)| a.is_complete()).count()
    }

    /// How many requests lost at least one shard.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.answers.len() - self.complete()
    }

    /// The epochs served, deduplicated in order.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for (e, _) in &self.answers {
            if out.last() != Some(e) {
                out.push(*e);
            }
        }
        out
    }
}

/// Drives the churn schedule sequentially: before each request, apply
/// every batch scheduled at or before its position; then pin a snapshot
/// and answer at that pinned epoch. `serve.requests` and
/// `serve.request_seconds` are recorded as in the other serving loops.
///
/// # Panics
///
/// Panics if a scheduled batch is rejected (batches are valid by
/// construction) or a request fails non-degradably.
#[must_use]
pub fn run_schedule_churn(w: &ChurnWorkload, db: &LiveVideoDb) -> ChurnRun {
    let depth = w.depth();
    let start = Instant::now();
    let mut applied = 0;
    let (answers, _) = run_in_order(
        db.registry(),
        w.schedule.len(),
        |r| apply_due(w, db, &mut applied, r),
        |r| {
            let pin = db.pin();
            let answer = pin
                .top_k(&w.queries[w.schedule[r]], depth, w.k)
                .expect("churn request evaluates");
            (pin.epoch().0, answer)
        },
    );
    apply_due(w, db, &mut applied, usize::MAX);
    ChurnRun {
        answers,
        elapsed: start.elapsed(),
    }
}

/// Applies, in order, every batch from `w.batches[*applied..]` scheduled
/// at or before request `upto`.
///
/// # Panics
///
/// Panics if a batch is rejected (batches are valid by construction).
fn apply_due(w: &ChurnWorkload, db: &LiveVideoDb, applied: &mut usize, upto: usize) {
    while let Some((_, ops)) = w.batches.get(*applied).filter(|(at, _)| *at <= upto) {
        db.apply(ops).expect("scheduled batch applies");
        *applied += 1;
    }
}

/// Concurrent twin of [`run_schedule_churn`]: each segment of requests
/// between mutation points fans out as `(request, shard)` tasks over the
/// shared worker pool against **one pinned snapshot**; the pool drains at
/// every mutation point (a barrier), the batch applies, and the next
/// segment pins the new epoch. Bit-identical to the sequential runner at
/// every worker count.
///
/// # Panics
///
/// As [`run_schedule_churn`]; a panicking worker closes the queue so the
/// pool shuts down instead of deadlocking.
#[must_use]
pub fn run_schedule_churn_concurrent(
    w: &ChurnWorkload,
    db: &LiveVideoDb,
    exec: &ExecutorConfig,
) -> ChurnRun {
    let n = w.schedule.len();
    let depth = w.depth();
    let start = Instant::now();
    let mut answers: Vec<(u64, ShardedAnswer)> = Vec::with_capacity(n);
    let mut applied = 0;
    let mut lo = 0;
    while lo < n {
        apply_due(w, db, &mut applied, lo);
        // All remaining batch positions are > lo, so the segment is
        // non-empty and every request in it serves the just-pinned epoch.
        let hi = w.batches.get(applied).map_or(n, |(at, _)| (*at).min(n));
        let pin = db.pin();
        let epoch = pin.epoch().0;
        let segment = run_fan_out(
            exec,
            db.registry(),
            hi - lo,
            pin.shard_count() as usize,
            |i, s| {
                let query = &w.queries[w.schedule[lo + i]];
                pin.eval_shard(ShardId(s as u32), query, depth, w.k)
            },
            |streams| {
                pin.gather(by_shard(streams), w.k)
                    .expect("churn request evaluates")
            },
        );
        answers.extend(segment.into_iter().map(|a| (epoch, a)));
        lo = hi;
    }
    apply_due(w, db, &mut applied, usize::MAX);
    ChurnRun {
        answers,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_core::EngineConfig;
    use simvid_obs::Registry;
    use simvid_picture::{CacheConfig, LiveConfig, ScoringConfig};
    use std::sync::Arc;

    fn config() -> ChurnConfig {
        ChurnConfig {
            videos: 5,
            shots: 10,
            requests: 18,
            batches: 2,
            ..ChurnConfig::default()
        }
    }

    fn live(w: &ChurnWorkload, cfg: &ChurnConfig) -> LiveVideoDb {
        LiveVideoDb::new(
            w.store.clone(),
            LiveConfig {
                shards: cfg.shards,
                replicas: cfg.replicas,
                scoring: ScoringConfig::default(),
                engine: EngineConfig::default(),
                cache: CacheConfig::with_capacity(cfg.cache_capacity),
            },
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn build_is_deterministic_and_batches_are_valid() {
        let cfg = config();
        let a = build_churn(&cfg);
        let b = build_churn(&cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.batches.len(), b.batches.len());
        for ((pa, opa), (pb, opb)) in a.batches.iter().zip(&b.batches) {
            assert_eq!(pa, pb);
            assert_eq!(opa.len(), opb.len());
            for (x, y) in opa.iter().zip(opb) {
                assert_eq!(x.kind(), y.kind());
            }
        }
        // Every batch must apply cleanly in sequence.
        let mut store = a.store.clone();
        for (_, ops) in &a.batches {
            store.apply(ops).expect("generated batch is valid");
        }
        assert!(!store.is_empty(), "churn never empties the corpus");
    }

    #[test]
    fn sequential_run_advances_epochs() {
        let cfg = config();
        let w = build_churn(&cfg);
        let db = live(&w, &cfg);
        let run = run_schedule_churn(&w, &db);
        assert_eq!(run.answers.len(), w.schedule.len());
        let epochs = run.epochs();
        assert!(epochs.len() > 1, "schedule crosses at least one mutation");
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs increase");
        assert_eq!(run.complete(), w.schedule.len(), "no faults, no degrades");
    }

    #[test]
    fn concurrent_run_is_bit_identical_to_sequential() {
        let cfg = config();
        let w = build_churn(&cfg);
        let seq_db = live(&w, &cfg);
        let seq = run_schedule_churn(&w, &seq_db);
        for workers in [1, 2, 4] {
            let db = live(&w, &cfg);
            let conc = run_schedule_churn_concurrent(
                &w,
                &db,
                &ExecutorConfig {
                    workers,
                    queue_depth: 2 * workers,
                },
            );
            assert_eq!(conc.answers.len(), seq.answers.len());
            for ((ea, aa), (eb, ab)) in seq.answers.iter().zip(&conc.answers) {
                assert_eq!(ea, eb, "workers={workers}: epochs must align");
                assert_eq!(aa.ranked(), ab.ranked(), "workers={workers}");
            }
        }
    }
}
