//! `argus-benchmark` — the benchmark of record for argus.
//!
//! ```text
//! argus-benchmark --argus PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads, one per kind of argus user:
//!
//! - `cold_chain`: cold `argus analyze --json` on a generated chain
//!   program, plus warm re-runs against the on-disk per-SCC cache;
//! - `edit_session`: an `argus lsp` session replaying seeded one-clause
//!   edits with hovers in between;
//! - `serve_mix`: two closed-loop keep-alive clients posting a mix of
//!   fresh, corpus and repeated programs to `argus serve`.
//!
//! `--trace 0` drives the shipped binary as a child process and prints
//! the end-to-end metrics; `--trace 1` replays the workload's inputs
//! through the layers' public functions in process, timing each call in
//! a span, and prints the per-layer metrics. Either way the last line
//! of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `benchmark/METRICS.md` defines every metric.

mod check;
mod child;
mod e2e;
mod inputs;
mod layers;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    /// The `argus` binary under test.
    pub argus: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: argus-benchmark --argus PATH --workload cold_chain|edit_session|serve_mix \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} wants a value"))
    };
    let args = Args {
        argus: PathBuf::from(get("--argus")?),
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

impl Args {
    /// Units of work a run does: `rate` per second of `--seconds`, at
    /// least `min`. The rates are those of the reference host, so a run
    /// measures for about `--seconds` there. A workload whose operations
    /// differ from one another does this fixed amount of work rather than
    /// stop on the clock, so every run of it does the same work.
    pub fn quota(&self, rate: f64, min: usize) -> usize {
        ((self.seconds * rate).ceil() as usize).max(min)
    }

    /// When a measuring phase that starts now ends: `--seconds` from now.
    /// A workload that repeats one operation repeats it until then.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (each one checked against a known answer).
    pub attempted: u64,
    /// Operations that failed their check, were refused, or errored.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one checked operation; a failure's reason goes to stderr.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("check failed: {why}");
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; report them as null so a
                // broken metric is visible instead of a parse error.
                let v = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A per-run directory under `.bench_tmp/` in the working directory,
/// removed with everything in it when dropped.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(".bench_tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("argus-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.argus.is_file() {
        eprintln!("argus-benchmark: no argus binary at {}", args.argus.display());
        return ExitCode::from(2);
    }
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("argus-benchmark: cannot create a scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("cold_chain", false) => e2e::cold_chain(&args, &scratch),
        ("edit_session", false) => e2e::edit_session(&args),
        ("serve_mix", false) => e2e::serve_mix(&args),
        ("cold_chain", true) => layers::cold_chain(&args),
        ("edit_session", true) => layers::edit_session(&args),
        ("serve_mix", true) => layers::serve_mix(&args),
        (other, _) => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    drop(scratch);
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("argus-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
