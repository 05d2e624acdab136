//! Pins the telemetry layer's core contract: **sinks observe, they never
//! perturb**. A faulted scenario (link flap + bursty loss + job restart)
//! must produce the same [`scenario_replay_hash`] whether it runs with no
//! sink, a no-op sink, a bounded ring recorder, or a streaming JSONL
//! writer — and whether the sweep runs inline or on 4/8 workers.
//!
//! The hash covers every iteration record of every job plus the
//! simulator's delivery/drop counters and final clock, so any
//! sink-induced reordering, extra allocation visible to the RNG, or
//! timing drift would flip it.

use mltcp_bench::experiments::{
    fig2_jobs, gpt2_jobs, mix_deadline, scenario_replay_hash, uniform_builder, FaultCase, PlanKind,
};
use mltcp_netsim::fault::GilbertElliott;
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_telemetry::jsonl::event_to_line;
use mltcp_telemetry::{
    DropReason, JsonlSink, NoopSink, RingRecorder, TelemetryEvent, TelemetrySink,
};
use mltcp_workload::scenario::{CongestionSpec, FnSpec, LinkFault};
use mltcp_workload::SweepRunner;
use proptest::prelude::*;
use std::any::Any;

const SCALE: f64 = 0.002;
const ITERS: u32 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkMode {
    /// No sink installed at all — the production fast path.
    None,
    /// The do-nothing sink (enabled path, empty record).
    Noop,
    /// Bounded in-memory ring recorder.
    Ring,
    /// Streaming JSONL file writer (real I/O on the side).
    Jsonl,
}

/// Replay hashes of a 3-seed faulted sweep under one sink mode and
/// worker count. `tag` keeps parallel JSONL writers on distinct files.
fn faulted_hashes(base_seed: u64, threads: usize, mode: SinkMode, tag: &str) -> Vec<u64> {
    let period = SimDuration::from_secs_f64(1.8 * SCALE);
    let at = SimTime::from_secs_f64(1.8 * SCALE * 2.0);
    let seeds: Vec<u64> = (0..3).map(|i| base_seed + 11 * i).collect();
    SweepRunner::with_threads(threads).run(&seeds, |_, &sd| {
        let restart = FaultCase::JobRestart {
            job: 0,
            at_iter: ITERS / 2,
            outage: period.mul_f64(0.5),
        };
        let mut sc = restart
            .builder(
                sd,
                gpt2_jobs(SCALE, ITERS, 2),
                &PlanKind::Uniform(CongestionSpec::MltcpReno(FnSpec::Paper)),
            )
            .max_rto(period)
            .bottleneck_fault(LinkFault::Down {
                at,
                duration: period.mul_f64(0.25),
            })
            .bottleneck_fault(LinkFault::BurstyLoss {
                at: at + period,
                duration: period,
                model: GilbertElliott::bursty(0.05, 0.3, 0.4),
            })
            .build();
        match mode {
            SinkMode::None => {}
            SinkMode::Noop => sc.set_telemetry(Box::new(NoopSink)),
            SinkMode::Ring => sc.set_telemetry(Box::new(RingRecorder::new(4096))),
            SinkMode::Jsonl => {
                let path = std::env::temp_dir().join(format!(
                    "mltcp-telemetry-det-{}-{tag}-{sd}.jsonl",
                    std::process::id()
                ));
                let sink = JsonlSink::create(&path).expect("temp trace file");
                sc.set_telemetry(Box::new(sink));
            }
        }
        sc.run(mix_deadline(SCALE, ITERS));
        assert!(sc.all_finished(), "seed {sd}: faulted jobs did not finish");
        if let Some(sink) = sc.take_telemetry() {
            // Ring mode: prove the recorder actually captured events, so
            // the equality below is not vacuous.
            if mode == SinkMode::Ring {
                let rec = sink
                    .into_any()
                    .downcast::<RingRecorder>()
                    .expect("ring sink comes back as itself");
                assert!(rec.total_recorded() > 0, "seed {sd}: ring recorded nothing");
            }
        }
        scenario_replay_hash(&sc)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sinks_never_perturb_replay_hash(base_seed in 1u64..10_000) {
        let reference = faulted_hashes(base_seed, 1, SinkMode::None, "ref");
        prop_assert!(reference.iter().all(|&h| h != 0));
        for threads in [1usize, 4, 8] {
            for mode in [SinkMode::None, SinkMode::Noop, SinkMode::Ring, SinkMode::Jsonl] {
                let tag = format!("{mode:?}-{threads}");
                let got = faulted_hashes(base_seed, threads, mode, &tag);
                prop_assert_eq!(
                    &reference,
                    &got,
                    "replay hash diverged: mode {:?}, {} workers",
                    mode,
                    threads
                );
            }
        }
    }
}

/// A sink that folds every event's JSONL line (as [`JsonlSink`] writes
/// it, newline included) into a running FNV-1a hash, so a long trace is
/// pinned without touching the disk.
struct LineHasher {
    hash: u64,
    lines: u64,
    drained: u64,
    cut: u64,
}

impl TelemetrySink for LineHasher {
    fn record(&mut self, ev: &TelemetryEvent) {
        let line = event_to_line(ev);
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.lines += 1;
        match *ev {
            TelemetryEvent::Drop {
                reason: DropReason::Drained,
                ..
            } => self.drained += 1,
            TelemetryEvent::Drop {
                reason: DropReason::LinkCut,
                ..
            } => self.cut += 1,
            _ => {}
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// FNV-1a of the JSONL event stream of a small faulted Fig. 2 scenario.
/// Packets that cut through an idle channel record the same one-packet
/// queue sample the enqueue path would, so the stream does not depend on
/// which path a packet takes. The schedule downs the bottleneck while it
/// serializes with a backlog (the stream has `drained` and `link_cut`
/// drops), then browns it out and swaps in Gilbert–Elliott loss. The
/// constant pins every queue sample, drop, fault and transport event in
/// order, so a change to when channels start serializing cannot hide.
const FAULTED_TRACE_FNV1A: u64 = 0xd043_56fc_7c7c_99b4;

#[test]
fn faulted_trace_matches_golden_hash() {
    const FIG2_ITERS: u32 = 4;
    let period = SimDuration::from_secs_f64(1.8 * SCALE);
    let t = |frac: f64| SimTime::from_secs_f64(1.8 * SCALE * f64::from(FIG2_ITERS) * frac);
    let mut sc = uniform_builder(
        42,
        fig2_jobs(SCALE, FIG2_ITERS),
        CongestionSpec::MltcpReno(FnSpec::Paper),
    )
    .max_rto(period)
    .bottleneck_fault(LinkFault::Down {
        at: t(0.3),
        duration: period.mul_f64(0.5),
    })
    .bottleneck_fault(LinkFault::Brownout {
        at: t(0.45),
        duration: period.mul_f64(2.0),
        factor: 0.3,
    })
    .bottleneck_fault(LinkFault::BurstyLoss {
        at: t(0.7),
        duration: period.mul_f64(2.0),
        model: GilbertElliott::bursty(0.08, 0.25, 0.4),
    })
    .build();
    sc.set_telemetry(Box::new(LineHasher {
        hash: 0xcbf2_9ce4_8422_2325,
        lines: 0,
        drained: 0,
        cut: 0,
    }));
    sc.run(mix_deadline(SCALE, FIG2_ITERS));
    assert!(sc.all_finished(), "faulted Fig. 2 jobs did not finish");
    let h = sc
        .take_telemetry()
        .expect("sink attached")
        .into_any()
        .downcast::<LineHasher>()
        .expect("hasher comes back as itself");
    assert!(h.drained > 0, "the flap found no backlog to drain");
    assert!(h.cut > 0, "the flap cut nothing on the wire");
    assert_eq!(
        h.hash, FAULTED_TRACE_FNV1A,
        "faulted trace changed ({} lines, hash {:#018x})",
        h.lines, h.hash
    );
}
