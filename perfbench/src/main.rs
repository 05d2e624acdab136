//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload gpt2x6_mltcp|fig2_faults_metrics|cassini_sweep|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per invocation: a warm-up pass, then passes until
//! `--seconds` have elapsed, every one checked (all jobs finished, replay
//! hash equal across passes and, on the default seed, equal to the
//! recorded envelope). `--trace 0` prints the end-to-end metrics, measured
//! untraced; `--trace 1` alternates untraced and traced passes (profiler,
//! metrics sink, in-memory spans), checks that tracing leaves the replay
//! hash unchanged, prints the per-layer metrics and writes the spans, the
//! layer self times and the layer → end-to-end table to
//! `perfbench/out/<workload>-trace.json`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Without `--workload` (or with `all`) it runs every workload untraced
//! and then traced, each in a fresh process so peak RSS is per workload,
//! and exits non-zero if any failed.

mod envelope;
mod workloads;

use envelope::{combine, DEFAULT_SEED, ENVELOPES};
use mltcp_perfbench::calibrate;
use mltcp_perfbench::layers::{END_TO_END, LAYER_METRICS};
use mltcp_perfbench::rss::peak_rss_mib;
use mltcp_perfbench::spans::{layer_self_seconds, self_times_ns, timed, Span, Tracer};
use mltcp_perfbench::stats::{iqr_share, median, tail_level_permille};
use mltcp_workload::stats::IterationStats;
use mltcp_workload::SweepRunner;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{execute, prepare, Outcome, Workload};

const USAGE: &str =
    "usage: mltcp-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";

/// Build-only passes top the set-up samples up to this many.
const SETUP_SAMPLES: usize = 1001;

/// Profiler labels reported per layer: (label, ns/event metric, count metric).
const PROFILE: [(&str, &str, &str); 7] = [
    ("sched", "netsim.ns_per_event.sched", "netsim.events.sched"),
    (
        "deliver",
        "netsim.ns_per_event.deliver",
        "netsim.events.deliver",
    ),
    (
        "channel_idle",
        "netsim.ns_per_event.channel_idle",
        "netsim.events.channel_idle",
    ),
    ("timer", "netsim.ns_per_event.timer", "netsim.events.timer"),
    (
        "message",
        "netsim.ns_per_event.message",
        "netsim.events.message",
    ),
    ("fault", "", "netsim.events.fault"),
    ("agent_start", "", "netsim.events.agent_start"),
];

/// Layers whose self time is reported: (span layer, metric).
const SELF_TIMES: [(&str, &str); 5] = [
    ("workload", "workload.self_s"),
    ("sched", "sched.self_s"),
    ("netsim", "netsim.self_s"),
    ("telemetry", "telemetry.self_s"),
    ("bench", "bench.self_s"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let val = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if val == "all" => args.workload = None,
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                args.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {val}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let report = if args.trace {
        measure_traced(w, &args)
    } else {
        measure(w, &args)
    };
    report.print()
}

/// One pass over a workload's scenarios.
struct Pass {
    outcomes: Vec<Outcome>,
    /// Wall seconds of the sweep.
    wall_s: f64,
    /// Workers the sweep actually used.
    workers: usize,
}

impl Pass {
    fn sum(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        self.outcomes.iter().map(f).sum()
    }

    fn hash(&self) -> u64 {
        combine(self.outcomes.iter().map(|o| o.hash))
    }

    /// Mean calibration factor over the pass's scenarios.
    fn cal_factor(&self) -> f64 {
        self.sum(|o| o.cal_factor) / self.outcomes.len() as f64
    }

    /// The pass's wall time in calibrated seconds.
    fn cal_wall_s(&self) -> f64 {
        self.wall_s * self.cal_factor()
    }

    /// Share of the workers' time spent inside scenarios.
    fn busy_frac(&self) -> f64 {
        self.sum(|o| o.span_s.1 - o.span_s.0) / (self.workers as f64 * self.wall_s)
    }

    /// Idle tail: sweep end minus the moment the first worker ran dry.
    fn tail_s(&self) -> f64 {
        let mut last_end = HashMap::new();
        for o in &self.outcomes {
            let end = last_end.entry(o.worker).or_insert(0.0_f64);
            *end = end.max(o.span_s.1);
        }
        let first_dry = last_end.values().copied().fold(f64::INFINITY, f64::min);
        (self.wall_s - first_dry).max(0.0)
    }

    /// Mean over every job of tail-5 iteration time ÷ ideal period.
    fn steady_ratio(&self) -> f64 {
        let r: Vec<f64> = self
            .outcomes
            .iter()
            .flat_map(|o| o.steady_ratios.iter().copied())
            .collect();
        r.iter().sum::<f64>() / r.len() as f64
    }

    /// Every iteration's duration ÷ its job's ideal period.
    fn iter_ratios(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .flat_map(|o| o.iter_ratios.iter().copied())
            .collect()
    }
}

fn run_pass(w: Workload, seed: u64, tracer: Option<&Tracer>) -> Pass {
    let cfgs = w.scenarios(seed);
    let runner = SweepRunner::with_threads(w.workers());
    let start = Instant::now();
    let ((outcomes, wall_s), _) = timed(tracer, "bench.pass", None, |pass| {
        timed(tracer, "workload.sweep", pass, |sweep| {
            runner.run(&cfgs, |_, cfg| {
                let started = start.elapsed().as_secs_f64();
                timed(tracer, "bench.scenario", sweep, |id| {
                    execute(prepare(cfg, tracer, id), tracer, id, start, started)
                })
                .0
            })
        })
    });
    Pass {
        outcomes,
        wall_s,
        workers: runner.threads().min(cfgs.len()),
    }
}

/// The correctness gate: counts checked operations and failures.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// Per-scenario replay hashes of the first pass.
    reference: Vec<u64>,
    problems: Vec<String>,
}

impl Gate {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Every scenario must finish before its deadline, yield finite
    /// fidelity figures and replay exactly as in the first pass checked.
    fn check(&mut self, pass: &Pass, what: &str) {
        if self.reference.is_empty() {
            self.reference = pass.outcomes.iter().map(|o| o.hash).collect();
        }
        for (i, o) in pass.outcomes.iter().enumerate() {
            self.attempted += 1;
            if !o.finished {
                self.fail(format!(
                    "{what} pass, scenario {i}: jobs missed the deadline"
                ));
            } else if o.hash != self.reference[i] {
                self.fail(format!(
                    "{what} pass, scenario {i}: replay hash {:016x} differs from {:016x}",
                    o.hash, self.reference[i]
                ));
            } else if !o.steady_ratios.iter().all(|r| r.is_finite() && *r > 0.0) {
                self.fail(format!("{what} pass, scenario {i}: no steady-state ratio"));
            }
        }
    }

    /// On the default seed the workload must reproduce its recorded hash.
    fn check_envelope(&mut self, w: Workload, seed: u64, pass: &Pass) {
        if seed != DEFAULT_SEED {
            return;
        }
        self.attempted += 1;
        let env = ENVELOPES
            .iter()
            .find(|e| e.workload == w.name())
            .expect("every workload has an envelope");
        let h = pass.hash();
        if h != env.hash {
            self.fail(format!(
                "default-seed replay hash {h:016x} differs from the recorded {:016x}",
                env.hash
            ));
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A finished measurement, ready to print.
struct Report {
    gate: Gate,
    /// Human-readable lines printed before the metrics.
    lines: Vec<String>,
    /// (name, value, unit), in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(self) -> ExitCode {
        for l in &self.lines {
            println!("{l}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        println!(
            "  correctness: {} checks, {} failed (failed_frac {})",
            self.gate.attempted,
            self.gate.failed,
            self.gate.failed_frac()
        );
        for p in &self.gate.problems {
            println!("  FAILED: {p}");
        }
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.gate.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.gate.attempted, self.gate.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The warm-up pass: checked like every other and against the envelope,
/// and the reference the fidelity figures are read from.
fn warm_up(w: Workload, seed: u64, gate: &mut Gate) -> Pass {
    let warm = run_pass(w, seed, None);
    gate.check(&warm, "warm-up");
    gate.check_envelope(w, seed, &warm);
    warm
}

/// Untraced passes for `seconds`, then the end-to-end metrics.
///
/// The host's speed drifts by tens of percent over seconds to minutes.
/// Wall times are therefore reported in calibrated seconds: each
/// scenario's wall time is scaled by the reference kernel's nominal cost
/// over its cost in bursts run beside that scenario (see `calibrate`).
/// Raw medians are printed beside them.
fn measure(w: Workload, args: &Args) -> Report {
    let mut gate = Gate::default();
    let warm = warm_up(w, args.seed, &mut gate);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let p = run_pass(w, args.seed, None);
        gate.check(&p, "timed");
        passes.push(p);
    }

    // Set-up is cheap next to the run on most workloads: top its samples
    // up with build-only passes, within a tenth of the measuring time, in
    // batches of about 50 ms calibrated by kernel bursts on either side.
    let mut setup: Vec<f64> = passes
        .iter()
        .map(|p| p.sum(|o| o.setup_s * o.cal_factor))
        .collect();
    let build_only = || -> f64 {
        w.scenarios(args.seed)
            .iter()
            .map(|cfg| {
                let p = prepare(cfg, None, None);
                p.optimize_s + p.build_s
            })
            .sum()
    };
    let t1 = Instant::now();
    let typical = median(&setup).unwrap_or(0.0);
    while setup.len() < SETUP_SAMPLES && t1.elapsed().as_secs_f64() + typical < 0.1 * args.seconds {
        let before = calibrate::burst_ns_per_event();
        let t = Instant::now();
        let mut batch = vec![build_only()];
        while setup.len() + batch.len() < SETUP_SAMPLES && t.elapsed().as_secs_f64() < 0.05 {
            batch.push(build_only());
        }
        let factor = calibrate::factor((before + calibrate::burst_ns_per_event()) / 2.0);
        setup.extend(batch.iter().map(|s| s * factor));
    }

    let scenario_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.outcomes
                .iter()
                .map(|o| o.setup_s * o.cal_factor + o.cal_run_s)
        })
        .collect();
    let ratios = warm.iter_ratios();
    if tail_level_permille(ratios.len()).is_none_or(|p| p < 900) {
        gate.fail(format!(
            "{} iterations leave fewer than ten beyond p90",
            ratios.len()
        ));
    }
    let rss = peak_rss_mib().unwrap_or_else(|| {
        gate.fail("peak RSS unavailable (no /proc/self/status)".into());
        f64::NAN
    });
    let run_s = |p: &Pass| p.sum(|o| o.cal_run_s);
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("run_s", median_of(&passes, run_s)),
        ("setup_s", median(&setup).unwrap_or(f64::NAN)),
        (
            "sim_s_per_s",
            median_of(&passes, |p| p.sum(|o| o.sim_s) / run_s(p)),
        ),
        (
            "scenarios_per_s",
            median_of(&passes, |p| p.outcomes.len() as f64 / p.cal_wall_s()),
        ),
        ("scenario_p50_s", median(&scenario_s).unwrap_or(f64::NAN)),
        ("peak_rss_mb", rss),
        ("steady_ratio", warm.steady_ratio()),
        (
            "iter_p90_ratio",
            IterationStats::from_durations(ratios).percentile(0.9),
        ),
    ]);

    let mut lines = vec![header(w, args, passes.len(), &warm)];
    lines.push(format!(
        "  raw medians: run_s {:.6} s, pass wall {:.6} s; calibration factor {:.4}",
        median_of(&passes, |p| p.sum(|o| o.run_s)),
        median_of(&passes, |p| p.wall_s),
        median_of(&passes, Pass::cal_factor),
    ));
    let per_pass: Vec<f64> = passes.iter().map(run_s).collect();
    lines.push(format!(
        "  run_s per pass: {} (quartile spread {:.4} of the median)",
        per_pass
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        iqr_share(&per_pass).unwrap_or(0.0)
    ));
    lines.push(format!(
        "  scenario build+run: n={} p50={:.6}s{}; set-up samples {}",
        scenario_s.len(),
        values["scenario_p50_s"],
        tail_note(&scenario_s),
        setup.len()
    ));
    lines.push(format!(
        "  events per pass {}; reinterleave_iters {}",
        warm.sum(|o| o.events as f64),
        warm.sum(|o| o.reinterleave_iters as f64)
    ));
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();
    Report {
        gate,
        lines,
        metrics,
    }
}

/// The first lines of a report: what ran, and the default-seed envelope.
fn header(w: Workload, args: &Args, passes: usize, warm: &Pass) -> String {
    let mut s = format!(
        "workload {} seed {} passes {} (+1 warm-up) workers {} cores {}\n  replay hash {:016x}",
        w.name(),
        args.seed,
        passes,
        w.workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        warm.hash()
    );
    if let Some(env) = ENVELOPES.iter().find(|e| e.workload == w.name()) {
        let _ = write!(
            s,
            "\n  envelope (seed {DEFAULT_SEED}): hash {:016x} steady_ratio {} iter_p90_ratio {} reinterleave_iters {}",
            env.hash, env.steady_ratio, env.iter_p90_ratio, env.reinterleave_iters
        );
    }
    s
}

/// The highest percentile with at least ten samples beyond it, if any
/// beyond the median.
fn tail_note(samples: &[f64]) -> String {
    match tail_level_permille(samples.len()) {
        Some(p) if p > 500 => {
            let v = IterationStats::from_durations(samples.to_vec()).percentile(f64::from(p) / 1e3);
            format!(" p{}={v:.6}s", f64::from(p) / 10.0)
        }
        _ => String::new(),
    }
}

/// Alternating untraced and traced passes for `seconds`, then the
/// per-layer metrics; spans and the layer table go to the trace file.
fn measure_traced(w: Workload, args: &Args) -> Report {
    let mut gate = Gate::default();
    let warm = warm_up(w, args.seed, &mut gate);
    let t0 = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Vec::new();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let tracer = Tracer::new();
        if traced.len() % 2 == 1 {
            traced.push(run_pass(w, args.seed, Some(&tracer)));
            untraced.push(run_pass(w, args.seed, None));
        } else {
            untraced.push(run_pass(w, args.seed, None));
            traced.push(run_pass(w, args.seed, Some(&tracer)));
        }
        gate.check(untraced.last().expect("just pushed"), "untraced");
        gate.check(traced.last().expect("just pushed"), "traced");
        spans = tracer.into_spans();
    }

    let last = traced.last().expect("at least one traced pass");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Wall-time layer metrics come from the untraced passes, calibrated
    // like the end-to-end ones.
    let cal = |f: fn(&Outcome) -> f64| move |p: &Pass| p.sum(|o| f(o) * o.cal_factor);
    v.insert("workload.build_s", median_of(&untraced, cal(|o| o.build_s)));
    v.insert(
        "workload.iterations",
        last.sum(|o| o.iter_ratios.len() as f64),
    );
    v.insert(
        "workload.reinterleave_iters",
        last.sum(|o| o.reinterleave_iters as f64),
    );
    v.insert(
        "workload.sweep.busy_frac",
        median_of(&untraced, Pass::busy_frac),
    );
    v.insert("workload.sweep.tail_s", median_of(&untraced, Pass::tail_s));
    let self_s = layer_self_seconds(&spans);
    for (layer, name) in SELF_TIMES {
        v.insert(name, self_s.get(layer).copied().unwrap_or(0.0));
    }
    v.insert(
        "sched.optimize_s",
        median_of(&untraced, cal(|o| o.optimize_s)),
    );
    v.insert(
        "sched.optimize_calls",
        last.sum(|o| o.optimize_calls as f64),
    );
    v.insert("sched.excess_demand", last.sum(|o| o.excess_demand));
    v.insert("netsim.events", last.sum(|o| o.events as f64));
    v.insert(
        "netsim.events_per_s",
        median_of(&untraced, |p| {
            p.sum(|o| o.events as f64) / p.sum(|o| o.cal_run_s)
        }),
    );
    for (label, ns_name, count_name) in PROFILE {
        let (mut events, mut nanos) = (0u64, 0u64);
        for e in last
            .outcomes
            .iter()
            .filter_map(|o| o.profile.as_ref()?.find(label).copied())
        {
            events += e.events;
            nanos += e.nanos;
        }
        v.insert(count_name, events as f64);
        if !ns_name.is_empty() {
            v.insert(ns_name, nanos as f64 / events.max(1) as f64);
        }
    }
    let delivered = last.sum(|o| o.delivered as f64);
    let dropped = last.sum(|o| o.dropped as f64);
    v.insert("netsim.delivered", delivered);
    v.insert("netsim.dropped", dropped);
    v.insert("netsim.drop_frac", dropped / (delivered + dropped).max(1.0));
    let per_scenario = |f: &dyn Fn(&Outcome) -> Option<f64>| {
        median(&last.outcomes.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let queue = |o: &Outcome| {
        let h = o.metrics.as_ref()?.histogram("queue/bytes")?;
        Some((h.p50, h.p99))
    };
    v.insert(
        "netsim.queue_bytes_p50",
        per_scenario(&|o| Some(queue(o)?.0)),
    );
    v.insert(
        "netsim.queue_bytes_p99",
        per_scenario(&|o| Some(queue(o)?.1)),
    );
    v.insert(
        "netsim.event_queue_capacity_max",
        last.outcomes
            .iter()
            .map(|o| o.queue_capacity_max)
            .max()
            .unwrap_or(0) as f64,
    );
    let segments = last.sum(|o| o.senders.segments_sent as f64);
    let retransmits = last.sum(|o| o.senders.retransmits as f64);
    v.insert("transport.segments_sent", segments);
    v.insert("transport.retransmits", retransmits);
    v.insert(
        "transport.timeouts",
        last.sum(|o| o.senders.timeouts as f64),
    );
    v.insert(
        "transport.fast_retransmits",
        last.sum(|o| o.senders.fast_retransmits as f64),
    );
    v.insert(
        "transport.blackouts",
        last.sum(|o| o.senders.blackouts as f64),
    );
    v.insert(
        "transport.goodput_frac",
        1.0 - retransmits / segments.max(1.0),
    );
    v.insert("transport.rtt_p50_ns", per_scenario(&|o| Some(o.rtt_ns?.0)));
    v.insert("transport.rtt_p99_ns", per_scenario(&|o| Some(o.rtt_ns?.1)));
    let counter = |o: &Outcome, pred: &dyn Fn(&str) -> bool| -> f64 {
        o.metrics.as_ref().map_or(0.0, |m| {
            m.counters
                .iter()
                .filter(|(name, _)| pred(name))
                .map(|(_, c)| *c as f64)
                .sum()
        })
    };
    v.insert(
        "core.gain_updates",
        last.sum(|o| counter(o, &|n| n == "events/gain")),
    );
    v.insert(
        "telemetry.events_recorded",
        last.sum(|o| counter(o, &|n| n.starts_with("events/"))),
    );
    v.insert(
        "telemetry.overhead_frac",
        median_of(&traced, |p| p.sum(|o| o.cal_run_s))
            / median_of(&untraced, |p| p.sum(|o| o.cal_run_s))
            - 1.0,
    );
    v.insert("bench.failed_frac", gate.failed_frac());

    let metrics: Vec<_> = LAYER_METRICS
        .iter()
        .map(|m| {
            let value = *v
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", m.name));
            (m.name, value, m.unit)
        })
        .collect();
    let mut lines = vec![header(w, args, traced.len(), &warm)];
    lines.push(format!(
        "  layer self time over one traced pass: {}",
        self_s
            .iter()
            .map(|(layer, s)| format!("{layer} {s:.6}s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    match write_trace(w, args.seed, &spans, &self_s, &metrics) {
        Ok(path) => lines.push(format!("  spans and layer table: {}", path.display())),
        Err(e) => eprintln!("warning: could not write the trace file: {e}"),
    }
    Report {
        gate,
        lines,
        metrics,
    }
}

/// Writes one traced pass's spans with their self times, the per-layer
/// self times, and every per-layer metric beside the end-to-end metric
/// and workloads it should move.
fn write_trace(
    w: Workload,
    seed: u64,
    spans: &[Span],
    self_s: &BTreeMap<&str, f64>,
    metrics: &[(&str, f64, &str)],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-trace.json", w.name()));
    let mut s = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {seed},\n\"layer_self_s\": {{",
        w.name()
    );
    let layers: Vec<String> = self_s
        .iter()
        .map(|(l, v)| format!("\"{l}\": {v}"))
        .collect();
    s.push_str(&layers.join(", "));
    s.push_str("},\n\"per_layer\": [\n");
    let rows: Vec<String> = LAYER_METRICS
        .iter()
        .zip(metrics)
        .map(|(m, (_, value, _))| {
            format!(
                "  {{\"metric\": \"{}\", \"value\": {value}, \"unit\": \"{}\", \"moves\": \"{}\", \"on\": \"{}\"}}",
                m.name, m.unit, m.moves, m.on
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n],\n\"spans\": [\n");
    let rows: Vec<String> = spans
        .iter()
        .zip(self_times_ns(spans))
        .map(|(sp, self_ns)| {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                sp.id, sp.name, sp.start_ns, sp.end_ns
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n]\n}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Every workload, untraced then traced, each in a fresh process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            let ok = status.as_ref().is_ok_and(|s| s.success());
            if !ok {
                eprintln!("{} --trace {trace} failed: {status:?}", w.name());
            }
            all_ok &= ok;
        }
    }
    println!(
        "all workloads: {}",
        if all_ok { "passed" } else { "FAILED" }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
