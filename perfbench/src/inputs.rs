//! Seeded input generators. Every input of a run — corpus, request
//! picks, mutation batches, similarity lists — is a pure function of the
//! `--seed` argument; the program under test only ever sees the results.

use crate::stats::Digest;
use simvid_core::SimilarityList;
use simvid_htl::parse;
use simvid_model::{CorpusOp, VideoId, VideoStore, VideoTree};
use simvid_workload::randomlists::{self, ListGenConfig};
use simvid_workload::randomvideo::{self, VideoGenConfig};
use std::fmt::Write as _;

/// One step of the splitmix64 generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sub-seed for stream `tag` of the run seeded with `seed`.
#[must_use]
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0xd134_2543_de82_ef95);
    splitmix(&mut s)
}

/// The serve pool as HTL source text, hottest first. The client sends
/// text and the benchmark parses it per request, so parsing is timed.
///
/// # Panics
///
/// Panics if a pool formula does not survive printing and re-parsing.
#[must_use]
pub fn pool_texts() -> Vec<String> {
    simvid_workload::serve::query_pool()
        .iter()
        .map(|f| {
            let text = f.to_string();
            let back = parse(&text).expect("printed pool formula parses");
            assert_eq!(&back, f, "pool formula round-trips through `{text}`");
            text
        })
        .collect()
}

fn video_cfg(shots: u32) -> VideoGenConfig {
    VideoGenConfig {
        branching: vec![shots],
        object_count: 10,
        objects_per_leaf: 3.0,
        ..VideoGenConfig::default()
    }
}

/// A random two-level video (`video` → `shot`).
#[must_use]
pub fn video(shots: u32, seed: u64) -> VideoTree {
    randomvideo::generate(&video_cfg(shots), seed)
}

/// The corpus: `videos` random videos of `shots` shots each.
#[must_use]
pub fn corpus(seed: u64, videos: u32, shots: u32) -> VideoStore {
    let mut store = VideoStore::new();
    for i in 0..videos {
        store.add(video(shots, derive(seed, 0x1000 + u64::from(i))));
    }
    store
}

/// Query popularity over the pool.
#[derive(Debug, Clone, Copy)]
pub enum Popularity {
    /// Query `i` has weight `1 / (i + 1)^s`.
    Zipf(f64),
    Uniform,
}

/// Draws pool indices with a given popularity from a seeded stream.
#[derive(Debug, Clone)]
pub struct Picker {
    cumulative: Vec<f64>,
    state: u64,
}

impl Picker {
    #[must_use]
    pub fn new(popularity: Popularity, pool: usize, seed: u64) -> Picker {
        let mut acc = 0.0;
        let cumulative = (0..pool)
            .map(|i| {
                acc += match popularity {
                    Popularity::Zipf(s) => 1.0 / ((i + 1) as f64).powf(s),
                    Popularity::Uniform => 1.0,
                };
                acc
            })
            .collect();
        Picker {
            cumulative,
            state: seed,
        }
    }

    pub fn next_index(&mut self) -> usize {
        let total = *self.cumulative.last().expect("non-empty pool");
        let u = (splitmix(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .iter()
            .position(|c| u < *c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// `count` mutation batches against a store that starts with ids
/// `0..videos` live. Each batch updates one live video, removes one (it
/// may be the one just updated) and ingests a new one, in that order: so
/// every batch is valid, rebuilds the same number of members, and leaves
/// the corpus at its size.
#[must_use]
pub fn mutation_batches(seed: u64, videos: u32, shots: u32, count: usize) -> Vec<Vec<CorpusOp>> {
    let mut rng = derive(seed, 0xc4);
    let mut live: Vec<VideoId> = (0..videos).map(VideoId).collect();
    (0..count)
        .map(|j| {
            let updated = live[(splitmix(&mut rng) as usize) % live.len()];
            let update = CorpusOp::Update(updated, video(shots, splitmix(&mut rng)));
            let removed = live.swap_remove((splitmix(&mut rng) as usize) % live.len());
            live.push(VideoId(videos + j as u32));
            let ingest = CorpusOp::Ingest(video(shots, splitmix(&mut rng)));
            vec![update, CorpusOp::Remove(removed), ingest]
        })
        .collect()
}

/// The `until` threshold of the paper's evaluation.
pub const THETA: f64 = 0.5;

/// The three random similarity lists `P1`, `P2`, `P3` of length `n`
/// (§4.2: about a tenth of the shots satisfy each predicate).
#[must_use]
pub fn lists(seed: u64, n: u32) -> [SimilarityList; 3] {
    let cfg = ListGenConfig::default().with_n(n);
    [1, 2, 3].map(|i| randomlists::generate(&cfg, derive(seed, 0x11 + i)))
}

/// Feeds `Debug` output into a digest without materialising it.
struct DigestWriter<'a>(&'a mut Digest);

impl std::fmt::Write for DigestWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0.eat(u64::from(b));
        }
        Ok(())
    }
}

/// Digest of anything printable with `Debug`.
pub fn digest_debug<T: std::fmt::Debug + ?Sized>(d: &mut Digest, value: &T) {
    write!(DigestWriter(d), "{value:?}").expect("digest writer never fails");
}

/// Digest of a corpus: every live video's id and full tree.
#[must_use]
pub fn corpus_digest(store: &VideoStore) -> String {
    let mut d = Digest::default();
    for (id, tree) in store.iter() {
        d.eat(u64::from(id.0));
        digest_debug(&mut d, tree);
    }
    d.hex()
}

/// Digest of the first `n` picks of a request stream.
#[must_use]
pub fn schedule_digest(mut picker: Picker, n: usize) -> String {
    let mut d = Digest::default();
    for _ in 0..n {
        d.eat(picker.next_index() as u64);
    }
    d.hex()
}

/// Digest of a batch sequence.
#[must_use]
pub fn batches_digest(batches: &[Vec<CorpusOp>]) -> String {
    let mut d = Digest::default();
    digest_debug(&mut d, batches);
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(seed: u64) -> [String; 5] {
        [
            corpus_digest(&corpus(seed, 3, 40)),
            schedule_digest(Picker::new(Popularity::Zipf(1.1), 8, derive(seed, 1)), 500),
            schedule_digest(Picker::new(Popularity::Uniform, 8, derive(seed, 1)), 500),
            batches_digest(&mutation_batches(seed, 3, 40, 6)),
            {
                let mut d = Digest::default();
                digest_debug(&mut d, &lists(seed, 2_000));
                d.hex()
            },
        ]
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(digests(7), digests(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (digests(7), digests(8));
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn zipf_picks_favour_the_head_and_uniform_does_not() {
        let count = |pop| {
            let mut p = Picker::new(pop, 8, 3);
            let mut hist = [0usize; 8];
            for _ in 0..8_000 {
                hist[p.next_index()] += 1;
            }
            hist
        };
        let zipf = count(Popularity::Zipf(1.1));
        assert!(zipf[0] > 3 * zipf[7]);
        let uniform = count(Popularity::Uniform);
        assert!(uniform.iter().all(|c| (800..1_200).contains(c)));
    }

    #[test]
    fn mutation_batches_apply_cleanly_and_keep_the_corpus_size() {
        let mut store = corpus(5, 3, 20);
        for batch in mutation_batches(5, 3, 20, 12) {
            let applied = store.apply(&batch).expect("generated batch is valid");
            assert_eq!(applied.ingested.len(), 1);
            assert_eq!(store.len(), 3);
        }
    }

    #[test]
    fn pool_round_trips() {
        assert_eq!(pool_texts().len(), 8);
    }
}
