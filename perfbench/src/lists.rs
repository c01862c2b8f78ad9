//! `paper_lists`: the paper's §4.2 formulas over random similarity lists
//! of up to N = 100 000 shots, evaluated with the direct list algorithms,
//! with the SQL translation as the baseline and the cross-check.
//!
//! A request is one pass over the four formulas at a seeded size from
//! the paper's range, 20 000 to 100 000 shots in steps of 10 000. Nine
//! equally likely sizes put the median pass inside the middle size
//! (60 000) rather than on the edge between two sizes, where it would
//! jump between their costs from run to run.

use crate::inputs::{self, Picker, Popularity, THETA};
use crate::report::Report;
use crate::stats::{self, Digest, Samples};
use simvid_core::{list, SimilarityList};
use simvid_relal::{translate, Database};
use std::time::{Duration, Instant};

/// The paper's largest size: per-kernel timings and the traced SQL run.
const N: u32 = 100_000;
/// Request sizes are `FIRST`, `FIRST + STEP`, …, `N`.
const FIRST: u32 = 20_000;
const STEP: u32 = 10_000;
const SIZES: usize = ((N - FIRST) / STEP + 1) as usize;
/// The size at which every run checks direct against SQL: the paper's
/// smallest.
const CHECK_N: u32 = 10_000;
const WARMUP: Duration = Duration::from_secs(1);
/// A load of the SQL database takes under a millisecond, far shorter
/// than the stretches for which the machine runs fast or slow, so the
/// untraced phase pauses for one more load every `SETUP_EVERY` and
/// `setup_s` is the median of the loads, spread over the whole run, that
/// ran at the host's fast speed (see [`record_setups`]).
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// The four formulas, in pass order.
const FORMULAS: [&str; 4] = ["table5", "table6", "complex1", "complex2"];

/// Per-kernel (`and`, `until`, `eventually`) and per-formula timings of
/// traced passes.
#[derive(Default)]
struct Kernels {
    calls: [Samples; 3],
    /// Per pass and formula: the sum of the formula's kernel calls.
    formulas: [Samples; 4],
    /// Per pass: the sum of all its kernel calls.
    parts: Samples,
}

impl Kernels {
    fn merge(&mut self, o: Kernels) {
        for (a, b) in self.calls.iter_mut().zip(o.calls) {
            a.extend(b);
        }
        for (a, b) in self.formulas.iter_mut().zip(o.formulas) {
            a.extend(b);
        }
        self.parts.extend(o.parts);
    }
}

/// What the passes of one window measured.
#[derive(Default)]
struct Passes {
    times: Samples,
    /// Traced kernel calls: `[1]` at N = 100 000, `[0]` at other sizes.
    kernels: [Kernels; 2],
}

impl Passes {
    fn merge(&mut self, o: Passes) {
        self.times.extend(o.times);
        let [a, b] = o.kernels;
        self.kernels[0].merge(a);
        self.kernels[1].merge(b);
    }
}

/// Length of one measurement window of a timed phase.
const WINDOW: Duration = Duration::from_millis(250);
/// A window is kept when the probes on both its edges took at most this
/// many times as long as those of the phase's fastest window. At the
/// host's slow speed the probe takes about 1.4 times as long, and a pass
/// up to 1.8 times.
const FAST_WITHIN: f64 = 1.15;

/// One window of a timed phase: its passes and a probe on each edge.
struct Window {
    opened: Instant,
    /// [`stats::probe_ns`] when the window opened and when it closed.
    probes: [f64; 2],
    secs: f64,
    passes: Passes,
}

/// A timed phase cut into windows of about [`WINDOW`], with a host
/// probe on each edge.
///
/// The host this benchmark was tuned on switches between speeds up to
/// 1.8 times apart for seconds at a time, and spends a different share
/// of each run at each. [`Phase::fast`] keeps the windows measured at
/// the fast speed, so the figures do not follow that share. The choice
/// rests on the probes alone, never on how long passes took, so a slow
/// stretch of the program is kept. With one client, sub-millisecond
/// passes and lists that fit in cache, each window holds thousands of
/// passes and the probe slows down when they do.
#[derive(Default)]
struct Phase {
    done: Vec<Window>,
    open: Option<Window>,
}

impl Phase {
    /// The open window's log. Opens one, or closes the open one after
    /// [`WINDOW`] and opens the next, probing at the edge; so call it
    /// before starting a pass's clock.
    fn current(&mut self) -> &mut Passes {
        let due = self
            .open
            .as_ref()
            .is_none_or(|w| w.opened.elapsed() >= WINDOW);
        if due {
            let probe = self.close();
            self.open = Some(Window {
                opened: Instant::now(),
                probes: [probe, f64::NAN],
                secs: 0.0,
                passes: Passes::default(),
            });
        }
        &mut self.open.as_mut().expect("a window is open").passes
    }

    /// Probes the host and closes the open window, if any: at a window
    /// edge, before a pause in the phase or at its end. Returns the probe.
    fn close(&mut self) -> f64 {
        let closed = Instant::now();
        let probe = stats::probe_ns();
        if let Some(mut w) = self.open.take() {
            w.secs = (closed - w.opened).as_secs_f64();
            w.probes[1] = probe;
            self.done.push(w);
        }
        probe
    }

    /// The passes of the windows measured at the host's fast speed.
    fn fast(mut self) -> Fast {
        self.close();
        let slower = |w: &Window| w.probes[0].max(w.probes[1]);
        let best = self.done.iter().map(slower).fold(f64::INFINITY, f64::min);
        let total = (
            self.done.len(),
            self.done.iter().map(|w| w.secs).sum::<f64>(),
        );
        let (mut passes, mut kept, mut secs) = (Passes::default(), 0, 0.0);
        let mut all = Samples::default();
        for w in self.done {
            all.extend(w.passes.times.clone());
            if slower(&w) <= FAST_WITHIN * best {
                kept += 1;
                secs += w.secs;
                passes.merge(w.passes);
            }
        }
        let per_sec = if secs > 0.0 {
            passes.times.len() as f64 / secs
        } else {
            0.0
        };
        let note = format!(
            "{kept} of {} windows, {secs:.1} of {:.1} s (probe {:.1} us)",
            total.0,
            total.1,
            best / 1e3
        );
        Fast {
            passes,
            all,
            per_sec,
            best,
            note,
        }
    }
}

/// What [`Phase::fast`] kept.
struct Fast {
    passes: Passes,
    /// The times of every pass of the phase, kept or not.
    all: Samples,
    /// Passes per second over the kept windows.
    per_sec: f64,
    /// The slower probe of the phase's fastest window.
    best: f64,
    /// What was kept, for metadata.
    note: String,
}

const AND: usize = 0;
const UNTIL: usize = 1;
const EVENTUALLY: usize = 2;

/// One pass: the four formulas with the direct algorithms. With a `sink`,
/// every kernel call is timed on its own.
fn pass(l: &[SimilarityList; 3], mut sink: Option<&mut Kernels>) -> [SimilarityList; 4] {
    let [p1, p2, p3] = l;
    let mut per_formula = [Duration::ZERO; 4];
    let mut run = |formula: usize, kernel: usize, f: &dyn Fn() -> SimilarityList| {
        let Some(k) = sink.as_deref_mut() else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        k.calls[kernel].push(took);
        per_formula[formula] += took;
        out
    };
    let table5 = run(0, AND, &|| list::and(p1, p2));
    let table6 = run(1, UNTIL, &|| list::until(p1, p2, THETA));
    let c12 = run(2, AND, &|| list::and(p1, p2));
    let complex1 = run(2, UNTIL, &|| list::until(&c12, p3, THETA));
    let u23 = run(3, UNTIL, &|| list::until(p2, p3, THETA));
    let ev23 = run(3, EVENTUALLY, &|| list::eventually(&u23));
    let complex2 = run(3, AND, &|| list::and(p1, &ev23));
    if let Some(k) = sink {
        for (samples, took) in k.formulas.iter_mut().zip(per_formula) {
            samples.push(took);
        }
        k.parts.push(per_formula.iter().sum());
    }
    [table5, table6, complex1, complex2]
}

/// The lists of one request size and their direct outputs.
struct SizedInput {
    lists: [SimilarityList; 3],
    reference: [SimilarityList; 4],
}

/// Runs passes from now until `end` at sizes drawn by `picker`, checking
/// each against its reference and logging it in `phase`; traced, each
/// kernel call is timed too. Returns the number of passes attempted.
fn passes(
    sizes: &[SizedInput],
    picker: &mut Picker,
    traced: bool,
    phase: &mut Phase,
    end: Instant,
) -> Result<u64, String> {
    let mut attempted = 0;
    while Instant::now() < end {
        attempted += 1;
        let i = picker.next_index();
        let log = phase.current();
        let sink = traced.then(|| &mut log.kernels[usize::from(i + 1 == SIZES)]);
        let input = &sizes[i];
        let t0 = Instant::now();
        let outs = std::hint::black_box(pass(std::hint::black_box(&input.lists), sink));
        let took = t0.elapsed();
        if outs != input.reference {
            return Err("a pass's direct outputs changed between passes".into());
        }
        log.times.push(took);
    }
    Ok(attempted)
}

/// The SQL script for formula `i` over tables `p1`..`p3`, its output
/// table, and the output's maximum similarity.
fn sql_script(i: usize, l: &[SimilarityList; 3]) -> (String, String, f64) {
    let [p1, p2, p3] = l;
    let out = format!("out_{}", FORMULAS[i]);
    let script = match i {
        0 => translate::conjunction_script("p1", "p2", &out),
        1 => translate::until_script("p1", "p2", &out, THETA * p1.max() - 1e-12),
        2 => format!(
            "{}\n{}",
            translate::conjunction_script("p1", "p2", "c12"),
            translate::until_script("c12", "p3", &out, THETA * (p1.max() + p2.max()) - 1e-12)
        ),
        _ => format!(
            "{}\n{}\n{}",
            translate::until_script("p2", "p3", "u23", THETA * p2.max() - 1e-12),
            translate::eventually_script("u23", "ev23"),
            translate::conjunction_script("p1", "ev23", &out)
        ),
    };
    let max = match i {
        0 => p1.max() + p2.max(),
        1 => p2.max(),
        2 => p3.max(),
        _ => p1.max() + p3.max(),
    };
    (script, out, max)
}

fn load(n: u32, l: &[SimilarityList; 3]) -> Result<Database, String> {
    let mut db = Database::new();
    translate::load_numbers(&mut db, n).map_err(|e| e.to_string())?;
    for (name, list) in ["p1", "p2", "p3"].iter().zip(l) {
        translate::load_list(&mut db, name, list).map_err(|e| e.to_string())?;
    }
    Ok(db)
}

/// One set-up: the SQL database at the check size, its load time, and
/// the slower of the probes just before and after the load.
fn timed_load(small: &[SimilarityList; 3]) -> Result<(Database, Setup), String> {
    let before = stats::probe_ns();
    let t0 = Instant::now();
    let db = load(CHECK_N, small)?;
    let took = t0.elapsed();
    Ok((db, (took, before.max(stats::probe_ns()))))
}

/// A set-up's load time and the slower probe around it.
type Setup = (Duration, f64);

/// `setup_s` from the set-ups made at the host's fast speed, judged
/// against `best` as [`Phase::fast`] judges windows; from all of them
/// if none was.
fn record_setups(report: &mut Report, setups: &[Setup], best: f64) {
    let fast: Vec<&Setup> = setups
        .iter()
        .filter(|s| s.1 <= FAST_WITHIN * best)
        .collect();
    let chosen = if fast.is_empty() {
        setups.iter().collect()
    } else {
        fast
    };
    report.meta(
        "set-ups at the fast speed",
        format!("{} of {}", chosen.len(), setups.len()),
    );
    let mut times = Samples::default();
    for (took, _) in chosen {
        times.push(*took);
    }
    report.setup_times(times);
}

/// Runs formula `i` in SQL on `db`, returning its output and script time.
fn run_sql(
    db: &mut Database,
    i: usize,
    l: &[SimilarityList; 3],
) -> Result<(SimilarityList, Duration), String> {
    let (script, out, max) = sql_script(i, l);
    let t0 = Instant::now();
    db.execute_script(&script)
        .map_err(|e| format!("{} SQL: {e}", FORMULAS[i]))?;
    let took = t0.elapsed();
    let got = translate::read_list(db, &out, max).map_err(|e| e.to_string())?;
    Ok((got, took))
}

/// Position-by-position agreement to 1e-9, as the repro tables check.
fn same_values(direct: &[f64], sql: &SimilarityList, n: u32) -> bool {
    let sql = sql.to_dense(n as usize);
    direct.len() == sql.len() && direct.iter().zip(&sql).all(|(a, b)| (a - b).abs() < 1e-9)
}

/// Digest of a pass's outputs: every entry's bounds and similarity bits.
#[must_use]
fn outputs_digest<'a>(outs: impl IntoIterator<Item = &'a SimilarityList>) -> String {
    let mut d = Digest::default();
    for l in outs {
        d.eat_f64(l.max());
        d.eat(l.len() as u64);
        for (beg, end, act) in l.to_tuples() {
            d.eat(u64::from(beg));
            d.eat(u64::from(end));
            d.eat_f64(act);
        }
    }
    d.hex()
}

/// Runs `paper_lists`. With `corrupt`, one direct output is falsified so
/// the SQL cross-check must fail.
pub fn run_lists(
    seed: u64,
    seconds: f64,
    traced: bool,
    corrupt: bool,
    recorded: Option<&str>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let sized = |n| {
        let lists = inputs::lists(seed, n);
        let reference = pass(&lists, None);
        SizedInput { lists, reference }
    };
    let check = sized(CHECK_N);
    let sizes: Vec<SizedInput> = (0..SIZES as u32).map(|k| sized(FIRST + k * STEP)).collect();
    let (small, big) = (&check.lists, &sizes[SIZES - 1].lists);
    let mut d = Digest::default();
    inputs::digest_debug(&mut d, big);
    report.meta("lists digest (N = 100000)", d.hex());
    report.meta(
        "list entries at N = 100000 (P1, P2, P3)",
        format!("{} {} {}", big[0].len(), big[1].len(), big[2].len()),
    );

    // Set-up: the SQL baseline's database at the check size, once now
    // and again every `SETUP_EVERY` of the untraced phase.
    let (mut db, first_setup) = timed_load(small)?;
    let mut setups = vec![first_setup];

    // Direct against SQL at the check size, every run.
    for (i, direct) in check.reference.iter().enumerate() {
        let mut dense = direct.to_dense(CHECK_N as usize);
        if corrupt && i == 0 {
            dense[0] += 1.0;
        }
        let (sql, _) = run_sql(&mut db, i, small)?;
        if !same_values(&dense, &sql, CHECK_N) {
            return Err(format!(
                "{}: direct and SQL disagree at N = {CHECK_N}",
                FORMULAS[i]
            ));
        }
    }
    drop(db);

    let all_sizes = std::iter::once(&check).chain(&sizes);
    let digest = outputs_digest(all_sizes.flat_map(|s| &s.reference));
    report.meta("direct outputs digest (N = 10000 to 100000)", &digest);
    if let Some(want) = recorded {
        if digest != want {
            return Err(format!("direct outputs digest {digest}, recorded {want}"));
        }
    }

    // The set-up and the checks above dominate this workload's memory,
    // so its peak covers the whole process.
    report.meta("peak_rss_mb covers", "whole process");
    let mut picker = Picker::new(Popularity::Uniform, SIZES, inputs::derive(seed, 0x200));
    report.meta(
        "size schedule digest (first 1000 picks)",
        inputs::schedule_digest(picker.clone(), 1_000),
    );
    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let sample_from = Instant::now() + WARMUP;
    let mut attempted = passes(
        &sizes,
        &mut picker,
        false,
        &mut Phase::default(),
        sample_from,
    )?;
    let end = sample_from + window;
    let mut untraced = Phase::default();
    while Instant::now() < end {
        let slice_end = (Instant::now() + SETUP_EVERY).min(end);
        attempted += passes(&sizes, &mut picker, false, &mut untraced, slice_end)?;
        untraced.close();
        setups.push(timed_load(small)?.1);
    }
    let mut traced_phase = Phase::default();
    if traced {
        let end = Instant::now() + window;
        attempted += passes(&sizes, &mut picker, true, &mut traced_phase, end)?;
    }
    report.set_opt("peak_rss_mb", stats::peak_rss_mb());
    report.attempted = attempted;
    let fast = untraced.fast();
    report.meta("untraced phase measured over", &fast.note);
    record_setups(&mut report, &setups, fast.best);
    // The median and throughput come from the fast windows. The p99
    // comes from every pass: a tail counts at any host speed, and it lies
    // among the slow 100 000-shot passes whenever the slow speed holds a
    // few percent of the phase, so their share hardly moves it.
    let (mut untraced, mut every, per_sec) = (fast.passes.times, fast.all, fast.per_sec);
    report.set_opt("query_p50_ms", untraced.quantile(0.5));
    report.set_opt("query_p99_ms", every.quantile(0.99));
    report.set("throughput_qps", per_sec);
    report.meta("samples behind query_p50_ms", untraced.len());
    report.meta("samples behind query_p99_ms", every.len());
    report.meta("samples beyond query_p99_ms", every.beyond(0.99));

    if traced {
        let fast = traced_phase.fast();
        report.meta("traced phase measured over", &fast.note);
        let Passes {
            times: mut traced_passes,
            kernels: [mut other, mut paper],
        } = fast.passes;
        let us = |s: &mut Samples| s.quantile(0.5).map(|v| v * 1e3);
        report.set_opt("core.list.and_us", us(&mut paper.calls[AND]));
        report.set_opt("core.list.until_us", us(&mut paper.calls[UNTIL]));
        report.set_opt("core.list.eventually_us", us(&mut paper.calls[EVENTUALLY]));
        report.meta("passes behind core.list.* (N = 100000)", paper.parts.len());
        report.set("query.samples", traced_passes.len() as f64);
        report.meta("samples behind traced percentiles", traced_passes.len());
        let mut parts = paper.parts.clone();
        parts.extend(std::mem::take(&mut other.parts));
        if traced_passes.sum() > 0.0 {
            report.set("trace.coverage", parts.sum() / traced_passes.sum());
        }
        if let (Some(t), Some(u), Some(p)) = (
            traced_passes.quantile(0.5),
            untraced.quantile(0.5),
            parts.quantile(0.5),
        ) {
            report.set("trace.overhead_ms", t - u);
            report.set("trace.remainder_ms", u - p);
        }
        let reference = &sizes[SIZES - 1].reference;
        sql_at_paper_scale(&mut report, big, reference, &mut paper)?;
    }
    Ok(report)
}

const SQL_MS: [&str; 4] = [
    "relal.sql_ms.table5",
    "relal.sql_ms.table6",
    "relal.sql_ms.complex1",
    "relal.sql_ms.complex2",
];
const SQL_OVER_DIRECT: [&str; 4] = [
    "relal.sql_over_direct.table5",
    "relal.sql_over_direct.table6",
    "relal.sql_over_direct.complex1",
    "relal.sql_over_direct.complex2",
];

/// Each formula's SQL script at N = 100 000, checked against the direct
/// output and set against the direct time of the traced passes.
fn sql_at_paper_scale(
    report: &mut Report,
    big: &[SimilarityList; 3],
    reference: &[SimilarityList; 4],
    kernels: &mut Kernels,
) -> Result<(), String> {
    let mut db = load(N, big)?;
    for i in 0..FORMULAS.len() {
        let (sql, took) = run_sql(&mut db, i, big)?;
        if !same_values(&reference[i].to_dense(N as usize), &sql, N) {
            return Err(format!(
                "{}: direct and SQL disagree at N = {N}",
                FORMULAS[i]
            ));
        }
        let sql_ms = took.as_secs_f64() * 1e3;
        report.set(SQL_MS[i], sql_ms);
        if let Some(direct_ms) = kernels.formulas[i].quantile(0.5) {
            if direct_ms > 0.0 {
                report.set(SQL_OVER_DIRECT[i], sql_ms / direct_ms);
            }
        }
    }
    report.meta("SQL size (all four formulas)", N);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(probes: [f64; 2], times_ms: &[f64]) -> Window {
        let mut passes = Passes::default();
        for t in times_ms {
            passes.times.push_ms(*t);
        }
        Window {
            opened: Instant::now(),
            probes,
            secs: 0.5,
            passes,
        }
    }

    #[test]
    fn fast_keeps_the_windows_probed_fast_on_both_edges() {
        let phase = Phase {
            done: vec![
                window([100.0, 110.0], &[1.0, 1.0]),
                window([110.0, 150.0], &[9.0]),
                window([150.0, 100.0], &[9.0]),
                window([120.0, 126.0], &[2.0]),
            ],
            open: None,
        };
        let mut fast = phase.fast();
        assert_eq!(fast.best, 110.0);
        assert_eq!(fast.passes.times.len(), 3);
        assert_eq!(fast.passes.times.quantile(1.0), Some(2.0));
        assert!((fast.per_sec - 3.0).abs() < 1e-9, "{}", fast.per_sec);
    }

    #[test]
    fn a_phase_never_at_the_fast_speed_keeps_its_fastest_windows() {
        let phase = Phase {
            done: vec![
                window([300.0, 320.0], &[5.0]),
                window([330.0, 900.0], &[7.0]),
            ],
            open: None,
        };
        let fast = phase.fast();
        assert_eq!(fast.best, 320.0);
        assert_eq!(fast.passes.times.len(), 1);
    }
}
