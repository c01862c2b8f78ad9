//! The serving workloads `zipf_warm` and `uniform_miss`: closed loops
//! against a [`LiveVideoDb`] through its public API.
//!
//! Every request is HTL text from the serve pool asking for the top
//! [`K`] shots. Untimed, it runs as `parse` → `pin` → `LivePin::top_k`;
//! traced, `top_k` is replaced by one `eval_shard` per shard and a
//! `gather`, each timed on its own. A traced run ends with a write phase:
//! an open-loop reader beside a writer applying mutation batches.

use crate::inputs::{self, derive, Picker, Popularity};
use crate::report::Report;
use crate::stats::{self, Digest, Samples};
use simvid_core::ShardHit;
use simvid_htl::{parse, Formula};
use simvid_model::{CorpusOp, VideoStore};
use simvid_obs::{Registry, Snapshot};
use simvid_picture::{CacheConfig, LiveConfig, LiveVideoDb, ShardId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-`k` size of every request.
const K: usize = 10;
/// Requests retrieve shots: level 1 of every generated video.
const DEPTH: u8 = 1;
/// Requests before this much of a phase has passed are not sampled.
const WARMUP: Duration = Duration::from_secs(1);
/// The untraced closed loop runs in this many slices, each after a
/// set-up (`LiveVideoDb::new` plus the priming pass) of its own:
/// `setup_s` is the median of set-ups spread over the run, so they sample
/// the host at different times. Odd, so the median is one of them.
const SETUP_REPS: usize = 5;

/// A serving workload's corpus, topology and traffic.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub videos: u32,
    pub shots: u32,
    pub shards: u32,
    /// Per-video atomic-cache capacity, in scored tables.
    pub cache_capacity: usize,
    pub popularity: Popularity,
}

/// 100 000 shots (the paper's largest N), a cache that holds every
/// atomic table, Zipf traffic.
pub const ZIPF_WARM: Spec = Spec {
    videos: 50,
    shots: 2_000,
    shards: 2,
    cache_capacity: 1_024,
    popularity: Popularity::Zipf(1.1),
};

/// 10 000 shots (the paper's smallest N), a cache a third the size of
/// the pool's per-video working set, uniform traffic.
pub const UNIFORM_MISS: Spec = Spec {
    videos: 10,
    shots: 1_000,
    shards: 2,
    cache_capacity: 3,
    popularity: Popularity::Uniform,
};

/// The write phase's open-loop reader sends this share of what one client
/// sustained in the traced closed loop, so it keeps up between applies
/// on every workload.
const WRITE_PHASE_LOAD: f64 = 0.25;
/// The write phase's writer applies one batch per period.
const WRITE_PHASE_PERIOD: Duration = Duration::from_secs(2);

type Answer = Vec<ShardHit>;

fn live_config(shards: u32, cache: CacheConfig) -> LiveConfig {
    LiveConfig {
        shards,
        cache,
        ..LiveConfig::default()
    }
}

fn complete(
    answer: Result<simvid_picture::ShardedAnswer, simvid_core::EngineError>,
) -> Result<Answer, String> {
    match answer {
        Ok(a) if a.is_complete() => Ok(a.ranked().to_vec()),
        Ok(_) => Err("degraded answer in a fault-free run".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Digest of a list of answers: lengths, ids, positions and similarity
/// bits.
#[must_use]
fn answers_digest<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> String {
    let mut d = Digest::default();
    for a in answers {
        d.eat(a.len() as u64);
        for h in a {
            d.eat(u64::from(h.video.0));
            d.eat(u64::from(h.pos));
            d.eat_f64(h.sim.act);
            d.eat_f64(h.sim.max);
        }
    }
    d.hex()
}

/// Each pool query's answer from an independent configuration of the
/// store: one shard, caching off.
fn reference_answers(store: &VideoStore, formulas: &[Formula]) -> Result<Vec<Answer>, String> {
    let oracle = LiveVideoDb::new(
        store.clone(),
        live_config(1, CacheConfig::disabled()),
        Arc::new(Registry::new()),
    );
    let pin = oracle.pin();
    formulas
        .iter()
        .map(|f| complete(pin.top_k(f, DEPTH, K)))
        .collect()
}

/// One set-up: `LiveVideoDb::new` plus one priming pass over the pool,
/// with each primed answer checked against `refs` when given. Returns the
/// db and the set-up time.
fn setup(
    store: &VideoStore,
    spec: &Spec,
    formulas: &[Formula],
    refs: Option<&[Answer]>,
) -> Result<(LiveVideoDb, Duration), String> {
    let input = store.clone();
    let t0 = Instant::now();
    let db = LiveVideoDb::new(
        input,
        live_config(spec.shards, CacheConfig::with_capacity(spec.cache_capacity)),
        Arc::new(Registry::new()),
    );
    let pin = db.pin();
    let primed: Vec<Result<Answer, String>> = formulas
        .iter()
        .map(|f| complete(pin.top_k(f, DEPTH, K)))
        .collect();
    let took = t0.elapsed();
    drop(pin);
    for (i, got) in primed.into_iter().enumerate() {
        let got = got.map_err(|e| format!("priming query {i}: {e}"))?;
        if refs.is_some_and(|r| got != r[i]) {
            return Err(format!("priming query {i} disagrees with its reference"));
        }
    }
    Ok((db, took))
}

/// Per-client measurements, merged after the phase.
#[derive(Default)]
struct Log {
    /// Request latency in untraced phases.
    latency: Samples,
    /// The same samples split by pool query.
    per_query: Vec<Samples>,
    /// Open-loop start delay behind the due time.
    lateness: Samples,
    /// Traced request latency and its parts.
    traced: Samples,
    parse: Samples,
    pin: Samples,
    shard: Samples,
    skew: Samples,
    gather: Samples,
    parts: Samples,
    completed: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Log {
    fn merge(&mut self, o: Log) {
        self.latency.extend(o.latency);
        for (q, s) in o.per_query.into_iter().enumerate() {
            self.query(q).extend(s);
        }
        self.lateness.extend(o.lateness);
        self.traced.extend(o.traced);
        self.parse.extend(o.parse);
        self.pin.extend(o.pin);
        self.shard.extend(o.shard);
        self.skew.extend(o.skew);
        self.gather.extend(o.gather);
        self.parts.extend(o.parts);
        self.completed += o.completed;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
    }

    fn query(&mut self, q: usize) -> &mut Samples {
        if self.per_query.len() <= q {
            self.per_query.resize_with(q + 1, Samples::default);
        }
        &mut self.per_query[q]
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// One request: returns the pinned epoch and the answer. Its latency
/// counts from `origin` (the send time, or the due time in an open loop);
/// `sample` says whether its timings go into the log.
fn request(
    db: &LiveVideoDb,
    q: usize,
    text: &str,
    traced: bool,
    origin: Instant,
    sample: bool,
    log: &mut Log,
) -> Result<(u64, Answer), String> {
    log.attempted += 1;
    if !traced {
        let f = parse(text).map_err(|e| e.to_string())?;
        let pin = db.pin();
        let out = complete(pin.top_k(&f, DEPTH, K));
        if sample {
            let took = origin.elapsed();
            log.latency.push(took);
            log.query(q).push(took);
        }
        return out.map(|a| (pin.epoch().0, a));
    }
    let t0 = Instant::now();
    let f = parse(text).map_err(|e| e.to_string())?;
    let parse_d = t0.elapsed();
    let t1 = Instant::now();
    let pin = db.pin();
    let pin_d = t1.elapsed();
    let mut per_shard = Vec::with_capacity(pin.shard_count() as usize);
    let mut shard_ms = Vec::with_capacity(per_shard.capacity());
    for s in 0..pin.shard_count() {
        let ts = Instant::now();
        let r = pin.eval_shard(ShardId(s), &f, DEPTH, K);
        shard_ms.push(ts.elapsed().as_secs_f64() * 1e3);
        per_shard.push((ShardId(s), r));
    }
    let tg = Instant::now();
    let out = complete(pin.gather(per_shard, K));
    let gather_d = tg.elapsed();
    let total = origin.elapsed();
    if sample {
        let shard_sum: f64 = shard_ms.iter().sum();
        let mean = shard_sum / shard_ms.len() as f64;
        let slowest = shard_ms.iter().copied().fold(0.0, f64::max);
        log.traced.push(total);
        log.parse.push(parse_d);
        log.pin.push(pin_d);
        log.gather.push(gather_d);
        for ms in &shard_ms {
            log.shard.push_ms(*ms);
        }
        if mean > 0.0 {
            log.skew.push_ms(slowest / mean);
        }
        log.parts
            .push_ms((parse_d + pin_d + gather_d).as_secs_f64() * 1e3 + shard_sum);
    }
    out.map(|a| (pin.epoch().0, a))
}

/// A closed loop: `clients` threads each send their next request when the
/// previous one returns, until `end`. Requests started before
/// `sample_from` are not sampled. Every answer is checked against `refs`.
fn closed_loop(
    db: &LiveVideoDb,
    texts: &[String],
    refs: &[Answer],
    picks: &mut [Picker],
    traced: bool,
    sample_from: Instant,
    end: Instant,
) -> Log {
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = picks
            .iter_mut()
            .map(|picker| {
                s.spawn(move || {
                    let mut log = Log::default();
                    loop {
                        let started = Instant::now();
                        if started >= end {
                            break;
                        }
                        let q = picker.next_index();
                        let sample = started >= sample_from;
                        match request(db, q, &texts[q], traced, started, sample, &mut log) {
                            Ok((_, got)) if got == refs[q] => {
                                if sample {
                                    log.completed += 1;
                                }
                            }
                            Ok(_) => log.fail(format!("query {q}: answer differs from reference")),
                            Err(e) => log.fail(format!("query {q}: {e}")),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Log::default();
    for l in logs {
        all.merge(l);
    }
    all
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Per-layer figures from the program's registry over one phase.
fn registry_metrics(report: &mut Report, before: &Snapshot, after: &Snapshot, requests: f64) {
    let d = |n| counter_delta(before, after, n);
    report.set_opt(
        "cache.hit_ratio",
        ratio(d("cache.hits"), d("cache.lookups")),
    );
    report.set_opt("cache.evictions", ratio(d("cache.evictions"), requests));
    report.set_opt("cache.coalesced", ratio(d("cache.coalesced"), requests));
    if let Some(bytes) = after.gauge("cache.bytes_resident") {
        report.set("cache.bytes_resident", bytes as f64 / (1024.0 * 1024.0));
    }
    report.set_opt(
        "engine.prune_ratio",
        ratio(
            d("engine.prune.entries_pruned"),
            d("engine.prune.entries_examined"),
        ),
    );
    report.set_opt(
        "shard.early_terminated",
        ratio(d("shard.early_terminated"), requests),
    );
    report.set_opt(
        "shard.candidates_pruned",
        ratio(d("shard.candidates_pruned"), requests),
    );
    let (hits, misses) = (d("engine.memo.hits"), d("engine.memo.misses"));
    report.set_opt("engine.memo.hit_ratio", ratio(hits, hits + misses));
}

/// The end-to-end latency and throughput of the untraced phase, and the
/// per-layer split of the traced one.
fn latency_metrics(report: &mut Report, untraced: &mut Log, traced: Option<&mut Log>, secs: f64) {
    let lat = &mut untraced.latency;
    report.set_opt("query_p50_ms", lat.quantile(0.5));
    report.set_opt("query_p99_ms", lat.quantile(0.99));
    report.meta("samples behind query_p50_ms/query_p99_ms", lat.len());
    report.meta("samples beyond query_p99_ms", lat.beyond(0.99));
    let per_query: Vec<String> = untraced
        .per_query
        .iter_mut()
        .map(|s| format!("{}:{:.3}", s.len(), s.quantile(0.5).unwrap_or(0.0)))
        .collect();
    report.meta("per pool query, samples:p50 ms", per_query.join(" "));
    report.set("throughput_qps", untraced.completed as f64 / secs);
    let Some(t) = traced else { return };
    let us = |s: &mut Samples, p| s.quantile(p).map(|v| v * 1e3);
    report.set_opt("htl.parse_us", us(&mut t.parse, 0.5));
    report.set_opt("picture.pin_us.p50", us(&mut t.pin, 0.5));
    report.set_opt("picture.pin_us.max", us(&mut t.pin, 1.0));
    report.set_opt("picture.eval_shard_ms.p50", t.shard.quantile(0.5));
    report.set_opt("picture.eval_shard_ms.p99", t.shard.quantile(0.99));
    report.set_opt("picture.shard_skew", t.skew.quantile(0.5));
    report.set_opt("core.gather_us", us(&mut t.gather, 0.5));
    report.set_opt("trace.coverage", ratio(t.parts.sum(), t.traced.sum()));
    if let (Some(traced_p50), Some(untraced_p50), Some(parts_p50)) = (
        t.traced.quantile(0.5),
        lat.quantile(0.5),
        t.parts.quantile(0.5),
    ) {
        report.set("trace.overhead_ms", traced_p50 - untraced_p50);
        report.set("trace.remainder_ms", untraced_p50 - parts_p50);
    }
    report.set("query.samples", t.traced.len() as f64);
    report.meta("samples behind traced percentiles", t.traced.len());
}

struct Inputs {
    store: VideoStore,
    texts: Vec<String>,
    formulas: Vec<Formula>,
}

fn generate_inputs(seed: u64, spec: &Spec, report: &mut Report) -> Inputs {
    let store = inputs::corpus(seed, spec.videos, spec.shots);
    let texts = inputs::pool_texts();
    let formulas = texts
        .iter()
        .map(|t| parse(t).expect("pool text parses"))
        .collect();
    report.meta(
        "corpus",
        format!(
            "{} videos x {} shots, {} shards, cache {} tables/video",
            spec.videos, spec.shots, spec.shards, spec.cache_capacity
        ),
    );
    report.meta("corpus digest", inputs::corpus_digest(&store));
    Inputs {
        store,
        texts,
        formulas,
    }
}

fn check_log(log: &Log) -> Result<(), String> {
    if log.failed > 0 {
        return Err(format!(
            "{} of {} requests failed or answered wrongly: {}",
            log.failed,
            log.attempted,
            log.errors.join("; ")
        ));
    }
    Ok(())
}

/// A hit no query can return, for the wrong-answer self-test.
fn impossible_hit() -> ShardHit {
    ShardHit {
        video: simvid_model::VideoId(u32::MAX),
        pos: 1,
        sim: simvid_core::Sim {
            act: -1.0,
            max: -1.0,
        },
    }
}

/// Runs a closed-loop workload (`zipf_warm`, `uniform_miss`). With
/// `corrupt`, one reference answer is falsified so the checks must fail.
pub fn run_closed(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    corrupt: bool,
    recorded: Option<&str>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let t0 = Instant::now();
    let inp = generate_inputs(seed, spec, &mut report);
    report.meta(
        "input generation (s)",
        format!("{:.2}", t0.elapsed().as_secs_f64()),
    );
    let t0 = Instant::now();
    let mut refs = reference_answers(&inp.store, &inp.formulas)?;
    report.meta(
        "reference answers (s)",
        format!("{:.2}", t0.elapsed().as_secs_f64()),
    );
    let digest = answers_digest(&refs);
    report.meta("reference answers digest", &digest);
    if let Some(want) = recorded {
        if digest != want {
            return Err(format!(
                "reference answers digest {digest}, recorded {want}"
            ));
        }
    }
    if corrupt {
        refs[0].push(impossible_hit());
    }

    let clients = crate::client_threads();
    report.meta("clients (closed loop)", clients);
    let mut picks: Vec<Picker> = (0..clients)
        .map(|c| {
            Picker::new(
                spec.popularity,
                inp.texts.len(),
                derive(seed, 0x100 + c as u64),
            )
        })
        .collect();
    report.meta(
        "schedule digest (client 0, first 1000 picks)",
        inputs::schedule_digest(picks[0].clone(), 1_000),
    );

    // The untraced phase, in slices each served by a db of its own set-up.
    // The previous db is dropped before the next set-up, so memory holds
    // one db at a time; the peak mark is reset after each set-up, so
    // `peak_rss_mb` covers the serving alone.
    let (mut peak_rss, mut reset) = (0.0_f64, true);
    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let slice = window / SETUP_REPS as u32;
    let (mut setup_times, mut untraced) = (Samples::default(), Log::default());
    // Sampled time: each slice until its last request returned.
    let mut sampled = Duration::ZERO;
    let mut db = None;
    for k in 0..SETUP_REPS {
        drop(db.take());
        let (live, took) = setup(&inp.store, spec, &inp.formulas, Some(&refs))?;
        setup_times.push(took);
        reset &= stats::reset_peak_rss();
        let from = Instant::now() + if k == 0 { WARMUP } else { Duration::ZERO };
        let log = closed_loop(
            &live,
            &inp.texts,
            &refs,
            &mut picks,
            false,
            from,
            from + slice,
        );
        sampled += from.elapsed();
        check_log(&log)?;
        untraced.merge(log);
        peak_rss = peak_rss.max(stats::peak_rss_mb().unwrap_or(0.0));
        db = Some(live);
    }
    let db = db.expect("at least one slice");
    let covers = if reset {
        "serving only"
    } else {
        "whole process"
    };
    report.meta("peak_rss_mb covers", covers);
    let (mut traced_log, mut written) = (None, None);
    if traced {
        let before = db.registry().snapshot();
        let from = Instant::now();
        let mut log = closed_loop(
            &db,
            &inp.texts,
            &refs,
            &mut picks,
            true,
            from,
            from + window,
        );
        check_log(&log)?;
        let after = db.registry().snapshot();
        registry_metrics(&mut report, &before, &after, log.completed as f64);
        written = Some(write_phase(
            &db,
            &inp,
            spec,
            seed,
            &mut picks[0],
            window,
            &mut log,
            &mut report,
        )?);
        traced_log = Some(log);
    }
    peak_rss = peak_rss.max(stats::peak_rss_mb().unwrap_or(0.0));
    if peak_rss > 0.0 {
        report.set("peak_rss_mb", peak_rss);
    }
    drop(db);
    report.setup_times(setup_times);
    if let Some((batches, seen)) = written {
        let epochs = check_against_replay(&inp.store, &batches, &inp.formulas, &seen)?;
        report.meta("write phase: epochs served", epochs);
        report.meta(
            "write phase: (epoch, query) answers checked against the replay",
            seen.len(),
        );
    }
    report.attempted = untraced.attempted + traced_log.as_ref().map_or(0, |l| l.attempted);
    latency_metrics(
        &mut report,
        &mut untraced,
        traced_log.as_mut(),
        sampled.as_secs_f64(),
    );
    Ok(report)
}

/// Answers seen per `(epoch, query)`; every repeat must match the first.
type Seen = BTreeMap<(u64, usize), Answer>;

/// What the write phase's writer measured.
#[derive(Default)]
struct Writes {
    apply: Samples,
    store_clone: Samples,
    store_apply: Samples,
}

/// The writer: applies the next batch every `WRITE_PHASE_PERIOD`, half a
/// period after `from`, until `end`. Beside each apply it times
/// `VideoStore::clone` and `VideoStore::apply` on `twin`.
fn writer(
    db: &LiveVideoDb,
    batches: &[Vec<CorpusOp>],
    twin: &mut VideoStore,
    from: Instant,
    end: Instant,
) -> Result<Writes, String> {
    let mut w = Writes::default();
    let mut due = from + WRITE_PHASE_PERIOD / 2;
    for batch in batches {
        if due >= end {
            break;
        }
        sleep_until(due);
        let t0 = Instant::now();
        db.apply(batch).map_err(|e| format!("apply: {e}"))?;
        w.apply.push(t0.elapsed());
        let t1 = Instant::now();
        let mut staged = twin.clone();
        w.store_clone.push(t1.elapsed());
        let t2 = Instant::now();
        staged
            .apply(batch)
            .map_err(|e| format!("twin apply: {e}"))?;
        w.store_apply.push(t2.elapsed());
        *twin = staged;
        due += WRITE_PHASE_PERIOD;
    }
    Ok(w)
}

/// The reader: one traced request every `interval` from `start` until
/// `end`, each timed from when it was due. Every answer is filed under
/// its `(epoch, query)`.
fn reader(
    db: &LiveVideoDb,
    texts: &[String],
    picker: &mut Picker,
    seen: &mut Seen,
    interval: Duration,
    start: Instant,
    end: Instant,
) -> Log {
    let mut log = Log::default();
    for i in 0.. {
        let due = start + interval * i;
        if due >= end {
            break;
        }
        // Spin rather than sleep between requests: a core that idles is
        // descheduled by the host and wakes with cold caches, which adds
        // noise of the machine's, not the program's, to every request.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let started = Instant::now();
        let q = picker.next_index();
        match request(db, q, &texts[q], true, due, true, &mut log) {
            Ok((epoch, got)) => {
                match seen.get(&(epoch, q)) {
                    Some(prev) if *prev != got => {
                        log.fail(format!("query {q} at epoch {epoch}: two different answers"));
                    }
                    Some(_) => {}
                    None => {
                        seen.insert((epoch, q), got);
                    }
                }
                log.lateness.push(started - due);
            }
            Err(e) => log.fail(format!("query {q}: {e}")),
        }
    }
    log
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Replays every batch in order on a second db (one shard) and checks
/// each `(epoch, query)` answer the reader saw against it.
fn check_against_replay(
    store: &VideoStore,
    batches: &[Vec<CorpusOp>],
    formulas: &[Formula],
    seen: &Seen,
) -> Result<u64, String> {
    let replay = LiveVideoDb::new(
        store.clone(),
        live_config(1, CacheConfig::default()),
        Arc::new(Registry::new()),
    );
    let head = seen.keys().map(|(e, _)| *e).max().unwrap_or(0);
    for epoch in 0..=head {
        let pin = replay.pin();
        if pin.epoch().0 != epoch {
            return Err(format!(
                "replay at epoch {} instead of {epoch}",
                pin.epoch().0
            ));
        }
        for ((_, q), got) in seen.range((epoch, 0)..(epoch + 1, 0)) {
            let want = complete(pin.top_k(&formulas[*q], DEPTH, K))?;
            if *got != want {
                return Err(format!(
                    "query {q} at epoch {epoch} differs from the replay"
                ));
            }
        }
        if epoch < head {
            let batch = batches
                .get(epoch as usize)
                .ok_or("the reader saw more epochs than there are batches")?;
            replay
                .apply(batch)
                .map_err(|e| format!("replay apply: {e}"))?;
        }
    }
    Ok(head + 1)
}

/// The traced run's write phase: an open-loop reader beside a writer
/// applying seeded batches for `window`. Times `LiveVideoDb::apply` and,
/// on a twin store, `VideoStore::clone` and `VideoStore::apply`; the
/// reader's pins join `traced` so `picture.pin_us.max` shows the stall.
/// Returns the batches and the answers seen, for the replay check.
#[allow(clippy::too_many_arguments)]
fn write_phase(
    db: &LiveVideoDb,
    inp: &Inputs,
    spec: &Spec,
    seed: u64,
    picker: &mut Picker,
    window: Duration,
    traced: &mut Log,
    report: &mut Report,
) -> Result<(Vec<Vec<CorpusOp>>, Seen), String> {
    let count = (window.as_secs_f64() / WRITE_PHASE_PERIOD.as_secs_f64()).ceil() as usize + 1;
    let batches = inputs::mutation_batches(seed, spec.videos, spec.shots, count);
    report.meta(
        "write phase: batch digest",
        inputs::batches_digest(&batches),
    );
    let per_client =
        traced.completed as f64 / window.as_secs_f64() / crate::client_threads() as f64;
    let rate = (WRITE_PHASE_LOAD * per_client).max(1.0);
    report.meta(
        "write phase: reader rate (1/s, open loop), writer period (s)",
        format!("{rate:.1} {}", WRITE_PHASE_PERIOD.as_secs_f64()),
    );
    let mut twin = inp.store.clone();
    let mut seen = Seen::new();
    let before = db.registry().snapshot();
    let from = Instant::now();
    let end = from + window;
    let (mut log, writes) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(db, &batches, &mut twin, from, end));
        let interval = Duration::from_secs_f64(1.0 / rate);
        let log = reader(db, &inp.texts, picker, &mut seen, interval, from, end);
        (log, w.join().expect("writer thread panicked"))
    });
    let mut writes = writes?;
    check_log(&log)?;
    let after = db.registry().snapshot();
    let d = |n| counter_delta(&before, &after, n);
    let (retained, evicted) = (
        d("cache.invalidation.retained"),
        d("cache.invalidation.evicted"),
    );
    report.set_opt("cache.retained_ratio", ratio(retained, retained + evicted));
    report.set_opt("gen.lateness_ms", log.lateness.quantile(0.99));
    report.meta("write phase: lateness samples", log.lateness.len());
    report.meta("write phase: apply durations (ms)", writes.apply.list());
    report.set_opt("live.apply_ms", writes.apply.quantile(0.5));
    report.set_opt("model.store_clone_ms", writes.store_clone.quantile(0.5));
    report.set_opt("model.store_apply_ms", writes.store_apply.quantile(0.5));
    traced.pin.extend(std::mem::take(&mut log.pin));
    traced.attempted += log.attempted + writes.apply.len() as u64;
    Ok((batches, seen))
}
