//! # mltcp-bench
//!
//! The experiment harness: one binary per paper figure/claim (see
//! `src/bin/`). The speed benchmark is `perfbench/` at the repo root.
//!
//! Figure binaries print human-readable tables/series to stdout and write
//! machine-readable JSON under `results/` (created on demand) through
//! [`mltcp_telemetry::Json`], the workspace's one JSON writer. They are
//! the artifacts EXPERIMENTS.md records. Run them with e.g.
//!
//! ```text
//! cargo run --release -p mltcp-bench --bin fig2_schedules
//! ```
//!
//! Common knobs are environment variables so the binaries stay
//! argument-free for reproducibility:
//!
//! * `MLTCP_SCALE` — time scale relative to the paper's second-scale
//!   testbed (default `0.01`; `1.0` reproduces the paper's absolute
//!   times but takes ~100× longer to simulate).
//! * `MLTCP_SEED` — base RNG seed (default 42).
//! * `MLTCP_ITERS` — training iterations per job (default figure-specific).
//!
//! Every binary also honors `--trace out.jsonl` (or `MLTCP_TRACE`):
//! each scenario the binary runs streams its telemetry to
//! `out-<label>.jsonl`, readable with the `trace_inspect` binary.
//! Tracing never changes results — instrumented runs are event-for-event
//! identical to uninstrumented ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_telemetry::Json;
use mltcp_workload::scenario::Scenario;
use std::io::Write;
use std::path::PathBuf;

/// Reads the global time scale (`MLTCP_SCALE`, default 0.01).
pub fn scale() -> f64 {
    std::env::var("MLTCP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or(0.01)
}

/// Reads the base seed (`MLTCP_SEED`, default 42).
pub fn seed() -> u64 {
    std::env::var("MLTCP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Reads the iteration count override (`MLTCP_ITERS`).
pub fn iters_or(default: u32) -> u32 {
    std::env::var("MLTCP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A generous simulated-time deadline for a scenario expected to span
/// roughly `expected_secs` of simulated time.
pub fn deadline(expected_secs: f64) -> SimTime {
    SimTime::from_secs_f64(expected_secs * 4.0 + 1.0)
}

/// Default per-job compute noise for experiments: 1% of the compute
/// phase, the paper's "slight variations" regime.
pub fn default_noise(compute: SimDuration) -> SimDuration {
    compute.mul_f64(0.01)
}

/// The telemetry trace base path from `--trace PATH` / `--trace=PATH`
/// on the command line, or the `MLTCP_TRACE` environment variable.
/// `None` (the common case) disables tracing entirely.
pub fn trace_base() -> Option<PathBuf> {
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--trace" {
            return argv.next().map(PathBuf::from);
        }
        if let Some(path) = arg.strip_prefix("--trace=") {
            return Some(PathBuf::from(path));
        }
    }
    std::env::var("MLTCP_TRACE").ok().map(PathBuf::from)
}

/// The per-scenario trace path for `label`: `<stem>-<label>.jsonl` next
/// to the base path (slashes in the label become dashes).
pub fn trace_path(base: &std::path::Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let safe: String = label
        .chars()
        .map(|c| {
            if c == '/' || c.is_whitespace() {
                '-'
            } else {
                c
            }
        })
        .collect();
    base.with_file_name(format!("{stem}-{safe}.jsonl"))
}

/// Attaches a streaming JSONL telemetry sink to the scenario when the
/// binary was invoked with `--trace` (or `MLTCP_TRACE`); no-op otherwise.
/// Each traced scenario needs a unique `label` so parallel sweep workers
/// write distinct files.
pub fn attach_trace(sc: &mut Scenario, label: &str) {
    if let Some(sink) = trace_sink(label) {
        sc.set_telemetry(sink);
    }
}

/// [`attach_trace`] for binaries that drive a raw
/// [`mltcp_netsim::sim::Simulator`] without the `Scenario` wrapper (no
/// job table is written, so events carry flow/job ids only).
pub fn attach_trace_sim(sim: &mut mltcp_netsim::sim::Simulator, label: &str) {
    if let Some(sink) = trace_sink(label) {
        sim.set_sink(sink);
    }
}

/// Creates the JSONL sink for `label` when tracing is on. A file that
/// cannot be created is reported and the run goes on untraced.
fn trace_sink(label: &str) -> Option<Box<dyn mltcp_telemetry::TelemetrySink>> {
    let path = trace_path(&trace_base()?, label);
    match mltcp_telemetry::JsonlSink::create(&path) {
        Ok(sink) => {
            eprintln!("[tracing {label} -> {}]", path.display());
            Some(Box::new(sink))
        }
        Err(e) => {
            eprintln!("warning: could not create trace {}: {e}", path.display());
            None
        }
    }
}

/// One labelled data series (a line in a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// X values.
    pub x: Vec<f64>,
    /// Y values.
    pub y: Vec<f64>,
}

impl Series {
    /// Builds a series from y values with `x = 0, 1, 2, …`.
    pub fn from_y(label: impl Into<String>, y: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            x: (0..y.len()).map(|i| i as f64).collect(),
            y,
        }
    }

    /// Builds a series from paired points.
    pub fn from_xy(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        let (x, y) = points.into_iter().unzip();
        Self {
            label: label.into(),
            x,
            y,
        }
    }
}

/// A figure artifact: a set of series plus free-form notes, serialized to
/// `results/<name>.json` and summarized to stdout.
#[derive(Debug, Clone)]
pub struct Figure {
    /// File stem / figure id (e.g. "fig3_aggressiveness").
    pub name: String,
    /// What the figure shows.
    pub title: String,
    /// The data series.
    pub series: Vec<Series>,
    /// Key-value result summary (e.g. "tail_speedup" → 1.52).
    pub summary: Vec<(String, f64)>,
    /// Free-form notes (calibration, deviations from the paper).
    pub notes: Vec<String>,
}

impl Figure {
    /// An empty figure.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            series: Vec::new(),
            summary: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds a summary metric.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        self.summary.push((key.into(), value));
    }

    /// Adds a note.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// The figure as a JSON value tree.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("title", Json::str(&self.title)),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("label", Json::str(&s.label)),
                                ("x", Json::nums(s.x.iter().copied())),
                                ("y", Json::nums(s.y.iter().copied())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary",
                Json::Obj(
                    self.summary
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Writes `results/<name>.json` and prints the summary table.
    pub fn finish(&self) {
        let dir = results_dir();
        let path = dir.join(format!("{}.json", self.name));
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let json = self.to_json().to_string_pretty();
                let _ = f.write_all(json.as_bytes());
                println!("[written {}]", path.display());
            }
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        println!("== {} — {}", self.name, self.title);
        for (k, v) in &self.summary {
            println!("  {k:<44} {v:.6}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// The `results/` directory (created on demand) next to the workspace
/// root when run via cargo, else the current directory.
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"));
    let _ = std::fs::create_dir_all(&base);
    base
}

/// Prints a compact per-job report table for a finished scenario,
/// normalized by each job's analytic ideal period.
pub fn print_job_table(label: &str, sc: &Scenario) {
    experiments::print_summary_table(label, &experiments::summarize_run(sc));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_constructors() {
        let s = Series::from_y("a", vec![1.0, 2.0]);
        assert_eq!(s.x, vec![0.0, 1.0]);
        let s2 = Series::from_xy("b", vec![(0.5, 5.0), (1.5, 6.0)]);
        assert_eq!(s2.x, vec![0.5, 1.5]);
        assert_eq!(s2.y, vec![5.0, 6.0]);
    }

    #[test]
    fn env_knob_defaults() {
        assert!(scale() > 0.0);
        assert!(iters_or(7) >= 1);
    }

    #[test]
    fn figure_builds() {
        let mut f = Figure::new("test_fig", "title");
        f.push_series(Series::from_y("s", vec![1.0]));
        f.metric("m", 2.0);
        f.note("n");
        assert_eq!(f.series.len(), 1);
        assert_eq!(f.summary[0].1, 2.0);
    }
}
