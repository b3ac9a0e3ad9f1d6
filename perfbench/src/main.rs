//! The TKIJ benchmark: runs one workload through the engine's public
//! entry points, checks its outputs, and prints its metrics — as a
//! table, then as one JSON object on the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sfm-dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (set-up time and pass time,
//! both scaled to a reference host's speed, and peak memory); `--trace 1`
//! re-runs the workload
//! with spans around every layer call and reports the per-layer metrics,
//! writing the spans to `.bench_build/perfbench/`. See `README.md` in
//! this directory for the workloads and what each metric should move.

mod host;
mod layers;
mod measure;
mod serve;
mod solo;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Mode, Ops};

/// The seed runs use unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 1;
/// The measured window unless `--seconds` says otherwise; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups timed per run: at least this many, and until this much time
/// was spent on them (capped at [`MAX_SETUP_REPS`]); the median of their
/// scaled times is reported.
const MIN_SETUP_REPS: usize = 3;
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);
const MAX_SETUP_REPS: usize = 200;

/// Where the run keeps its scratch files (spill segments, spans),
/// relative to the directory it runs from.
const SCRATCH_DIR: &str = ".bench_build/perfbench";

/// The end-to-end metrics, with units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

const USAGE: &str =
    "usage: tkij_perfbench --workload <sfm-dense|traffic-mix|traffic-spill|serve-mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Whether enough set-ups were timed.
pub fn setup_reps_done(reps: usize, spent: Duration) -> bool {
    reps >= MAX_SETUP_REPS || (reps >= MIN_SETUP_REPS && spent >= MIN_SETUP_TIME)
}

/// Times set-ups until [`setup_reps_done`]. `one` makes one set-up and
/// returns what it built with its scaled time (s); the previous set-up is
/// dropped first, so peak memory holds one. Returns the set-ups' times
/// and the last set-up.
pub fn time_setups<T>(mut one: impl FnMut() -> Option<(T, f64)>) -> Option<(Vec<f64>, T)> {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while !setup_reps_done(times.len(), started.elapsed()) {
        drop(last.take());
        let (built, took) = one()?;
        times.push(took);
        last = Some(built);
    }
    Some((times, last?))
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", parsed.seconds));
    }
    Ok(parsed)
}

/// The process's peak resident set size, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The engine reads two environment hooks that would silently change
    // what is measured; the spill workload's segments go to a scratch
    // directory inside the working directory.
    let scratch = match std::env::current_dir() {
        Ok(dir) => dir.join(SCRATCH_DIR),
        Err(e) => {
            eprintln!("cannot read the working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = scratch.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::remove_var(tkij::core::SPILL_THRESHOLD_ENV);
    std::env::remove_var("TKIJ_SWEEP_SCAN");
    std::env::set_var("TMPDIR", &tmp);

    let workload = workloads::build(&args.workload, args.seed).expect("name checked by parse_args");
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(Instant::now());
    let w = &workload;
    let measured = match w.mode {
        Mode::Solo { spills } => {
            solo::run(w, spills, args.seconds, args.trace, &mut ops, &mut tracer)
        }
        Mode::Serve { clients } => {
            serve::run(w, clients, args.seconds, args.trace, &mut ops, &mut tracer)
        }
    };

    let expected: Vec<(&'static str, &'static str)> = if args.trace {
        layers::LayerReport::default().metrics().iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut metrics = measured.unwrap_or_default();
    if !args.trace {
        let rss = peak_rss_mb();
        ops.check(rss.is_some(), || "cannot read the peak resident set size".into());
        metrics.push(Metric::new("peak_rss_mb", rss.unwrap_or(0.0), "MB"));
    } else {
        let path = scratch.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written = tracer.write_jsonl(&path);
        ops.check(written.is_ok(), || format!("cannot write {}: {written:?}", path.display()));
        println!("spans: {} written to {}", tracer.spans().len(), path.display());
    }
    // Every expected metric is printed; one the run could not measure
    // reads 0 and fails the run.
    let reported: Vec<Metric> = expected
        .iter()
        .map(|&(name, unit)| {
            let found = metrics.iter().find(|m| m.name == name && m.value.is_finite());
            ops.check(found.is_some(), || format!("metric {name} was not measured"));
            found.cloned().unwrap_or(Metric::new(name, 0.0, unit))
        })
        .collect();

    println!(
        "workload {} seed {} ({} s per run, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &reported {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("  attempted {} failed {}", ops.attempted, ops.failed);
    for failure in &ops.failures {
        println!("  FAILED: {failure}");
    }
    let body: Vec<String> = reported
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed =
            args(&["--workload", "serve-mix", "--seed", "7", "--seconds", "10", "--trace", "1"]);
        assert_eq!(
            parsed,
            Ok(Args { workload: "serve-mix".into(), seed: 7, seconds: 10.0, trace: true })
        );
        let defaults = args(&["--workload", "sfm-dense"]).expect("defaults");
        assert_eq!((defaults.seed, defaults.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sfm-dense", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sfm-dense", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&[]).is_err());
    }

    #[test]
    fn time_setups_holds_one_set_up_at_a_time() {
        use std::cell::Cell;
        struct Live<'a>(&'a Cell<usize>);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let (live, most) = (Cell::new(0), Cell::new(0));
        let (times, last) = time_setups(|| {
            live.set(live.get() + 1);
            most.set(most.get().max(live.get()));
            Some((Live(&live), 1.0))
        })
        .expect("every set-up succeeds");
        assert_eq!((times.len(), most.get(), live.get()), (MAX_SETUP_REPS, 1, 1));
        assert!(times.iter().all(|&t| t == 1.0), "the set-ups' times are reported");
        drop(last);
        assert_eq!(live.get(), 0);
        assert!(time_setups(|| None::<((), f64)>).is_none(), "a failed set-up ends the run");
    }

    #[test]
    fn setup_reps_need_count_and_time() {
        assert!(!setup_reps_done(MIN_SETUP_REPS - 1, Duration::from_secs(60)));
        assert!(!setup_reps_done(MIN_SETUP_REPS, Duration::from_millis(10)));
        assert!(setup_reps_done(MIN_SETUP_REPS, MIN_SETUP_TIME));
        assert!(setup_reps_done(MAX_SETUP_REPS, Duration::ZERO));
    }
}
