//! The simvid benchmark: one command that runs one workload for a fixed
//! time, checks every answer, and prints every metric by name and unit.
//!
//! ```text
//! simvid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `zipf_warm`, `uniform_miss`, `paper_lists` (see
//! `README.md` beside this crate). The last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! A failed check prints the reason to standard error, no result line,
//! and exits with code 1; bad arguments exit with code 2.

mod inputs;
mod lists;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

/// The seed whose reference digests are recorded in `expected.txt`.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["zipf_warm", "uniform_miss", "paper_lists"];

/// Client threads of the closed-loop workloads: two, or fewer on a
/// machine with fewer cores.
#[must_use]
pub fn client_threads() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The digest recorded for `workload` at [`DEFAULT_SEED`], if any.
fn recorded_digest(workload: &str) -> Option<&'static str> {
    include_str!("../expected.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(workload)?.strip_prefix(' '))
        .map(str::trim)
}

/// The revision of the checkout the benchmark runs in, when it is a git
/// working tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    match rev.trim() {
        "" => "unknown (not a git checkout)".to_owned(),
        r => r.to_owned(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Falsify one reference answer: the run must then fail its checks.
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-answer" {
            args.corrupt = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<report::Report, String> {
    let recorded = (args.seed == DEFAULT_SEED)
        .then(|| recorded_digest(&args.workload))
        .flatten();
    let started = std::time::Instant::now();
    let (s, t, c) = (args.seconds, args.trace, args.corrupt);
    let mut r = match args.workload.as_str() {
        "zipf_warm" => serve::run_closed(&serve::ZIPF_WARM, args.seed, s, t, c, recorded),
        "uniform_miss" => serve::run_closed(&serve::UNIFORM_MISS, args.seed, s, t, c, recorded),
        _ => lists::run_lists(args.seed, s, t, c, recorded),
    }?;
    let mut meta = vec![
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("nproc".to_owned(), nproc().to_string()),
        ("git revision".to_owned(), git_revision()),
    ];
    meta.append(&mut r.meta);
    meta.push((
        "run wall time (s)".to_owned(),
        format!("{:.1}", started.elapsed().as_secs_f64()),
    ));
    r.meta = meta;
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simvid-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|r| r.render(args.trace)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simvid-perfbench: check failed: {e}");
            ExitCode::from(1)
        }
    }
}
