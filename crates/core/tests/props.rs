//! Property-based tests over the core algorithm and §4 theory.

use mltcp_core::aggressiveness::FnSpec;
use mltcp_core::gradient::{circular_distance, Descent};
use mltcp_core::loss::{loss_by_quadrature, LossFunction};
use mltcp_core::params::MltcpParams;
use mltcp_core::schedule::{contention, demand_profile, PeriodicJob};
use mltcp_core::shift::ShiftFunction;
use mltcp_core::tracker::{IterationTracker, TrackerConfig};
use proptest::prelude::*;

fn valid_params() -> impl Strategy<Value = MltcpParams> {
    (0.01f64..10.0, 0.01f64..5.0)
        .prop_map(|(s, i)| MltcpParams::new(s, i).expect("valid by construction"))
}

fn geometry() -> impl Strategy<Value = (f64, f64)> {
    // (period, comm_fraction)
    (0.1f64..100.0, 0.05f64..1.0)
}

proptest! {
    /// Requirement (ii) of §3.1 holds for every valid linear F.
    #[test]
    fn linear_f_is_monotone_and_positive(p in valid_params(), r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
        let f = FnSpec::Linear(p);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(f.eval(lo) <= f.eval(hi) + 1e-12);
        prop_assert!(f.eval(lo) > 0.0);
    }

    /// Every Fig. 3 candidate stays within its published [0.25, 2] range.
    #[test]
    fn figure_functions_stay_in_range(r in 0.0f64..1.0) {
        for f in FnSpec::FIG3 {
            let y = f.eval(r);
            prop_assert!((0.25 - 1e-9..=2.0 + 1e-9).contains(&y), "{}({r}) = {y}", f.name());
        }
    }

    /// Eq. 3's boundary conditions and sign hold for arbitrary geometry
    /// and parameters.
    #[test]
    fn shift_zero_at_boundaries_positive_inside(
        p in valid_params(),
        (t, a) in geometry(),
        x in 0.01f64..0.99,
    ) {
        let s = ShiftFunction::new(p, t, a).expect("valid");
        let at = s.comm_duration();
        prop_assert!(s.eval(0.0).abs() < 1e-12);
        prop_assert!(s.eval(at).abs() < 1e-9 * at.max(1.0));
        prop_assert!(s.eval(at * x) > 0.0);
        // Never moves more than the remaining distance to the plateau.
        prop_assert!(s.eval(at * x) <= at * (1.0 - x) + 1e-9);
    }

    /// The periodic extension is antisymmetric about T/2.
    #[test]
    fn periodic_shift_antisymmetry(p in valid_params(), (t, a) in geometry(), x in 0.0f64..1.0) {
        let s = ShiftFunction::new(p, t, a.min(0.5)).expect("valid");
        let d = t * x;
        prop_assert!((s.eval_periodic(d) + s.eval_periodic(t - d)).abs() < 1e-7 * t.max(1.0));
    }

    /// The closed-form loss equals the quadrature of -Shift everywhere on
    /// the overlap region.
    #[test]
    fn loss_closed_form_matches_quadrature(p in valid_params(), (t, a) in geometry(), x in 0.01f64..1.0) {
        let s = ShiftFunction::new(p, t, a).expect("valid");
        let l = LossFunction::new(s);
        let d = s.comm_duration() * x;
        let numeric = loss_by_quadrature(|y| s.eval(y), d, 3000);
        let closed = l.eval(d);
        let scale = closed.abs().max(1e-6);
        prop_assert!((closed - numeric).abs() / scale < 1e-4,
            "Δ={d}: closed {closed} vs numeric {numeric}");
    }

    /// Gradient descent converges into the zero-shift plateau from any
    /// starting offset, for any valid parameters (the §4 global-optimum
    /// claim under the compatibility assumptions).
    #[test]
    fn descent_converges_from_anywhere(
        p in valid_params(),
        (t, a) in geometry(),
        x0 in 0.001f64..0.999,
    ) {
        let a = a.min(0.49);
        let s = ShiftFunction::new(p, t, a).expect("valid");
        let d = Descent::new(s);
        let rep = d.run(t * x0, 1e-7 * t, 100_000);
        prop_assert!(rep.converged);
        prop_assert!(rep.is_interleaved(&s, 1e-3 * t), "ended at {}", rep.final_delta);
    }

    /// The tracker's ratio is always in [0, 1] and non-decreasing within
    /// an iteration.
    #[test]
    fn tracker_ratio_bounded_and_monotone(
        total in 1u64..10_000_000,
        acks in proptest::collection::vec((0u64..1_000_000, 1u64..100_000), 1..100),
    ) {
        let mut tr = IterationTracker::new(TrackerConfig::oracle(total, u64::MAX));
        let mut now = 0u64;
        let mut prev = 0.0f64;
        for (gap, bytes) in acks {
            now += gap;
            let r = tr.on_ack(now, bytes);
            prop_assert!((0.0..=1.0).contains(&r));
            // Threshold is MAX: never resets, so monotone.
            prop_assert!(r >= prev - 1e-12);
            prev = r;
        }
    }

    /// Circular distance is a metric-ish: symmetric, bounded by T/2.
    #[test]
    fn circular_distance_props(x in 0.0f64..100.0, y in 0.0f64..100.0, t in 0.1f64..50.0) {
        let d = circular_distance(x, y, t);
        prop_assert!((0.0..=t / 2.0 + 1e-9).contains(&d));
        prop_assert!((d - circular_distance(y, x, t)).abs() < 1e-9);
        prop_assert!(circular_distance(x, x, t).abs() < 1e-9);
    }

    /// Contention of a single job is always zero; adding jobs never
    /// reduces peak overlap.
    #[test]
    fn contention_monotone_in_jobs(
        offsets in proptest::collection::vec(0.0f64..1.8, 1..6),
    ) {
        let jobs: Vec<PeriodicJob> = offsets
            .iter()
            .map(|&o| PeriodicJob::new(1.8, 0.2, o).expect("valid"))
            .collect();
        let mut prev_peak = 0;
        for k in 1..=jobs.len() {
            let rep = contention(&jobs[..k], 2048);
            prop_assert!(rep.peak_overlap >= prev_peak);
            prop_assert!(rep.peak_overlap as usize <= k);
            prev_peak = rep.peak_overlap;
        }
    }

    /// Demand profile sums: the time-average demand equals Σa (within
    /// sampling error) regardless of offsets.
    #[test]
    fn demand_profile_average_is_total_demand(
        offsets in proptest::collection::vec(0.0f64..1.8, 1..6),
        a in 0.05f64..0.5,
    ) {
        let jobs: Vec<PeriodicJob> = offsets
            .iter()
            .map(|&o| PeriodicJob::new(1.8, a, o).expect("valid"))
            .collect();
        let profile = demand_profile(&jobs, 1.8, 4096);
        let avg = profile.iter().map(|&d| d as f64).sum::<f64>() / profile.len() as f64;
        let expect = a * jobs.len() as f64;
        prop_assert!((avg - expect).abs() < 0.02 * jobs.len() as f64, "avg {avg} vs {expect}");
    }
}

/// `PeriodicJob::is_communicating` written with plain `%` for both
/// reductions: the reference its exact-remainder fast paths reproduce.
fn is_communicating_by_percent(j: &PeriodicJob, t: f64) -> bool {
    let mut phase = (t - j.offset) % j.period;
    if phase < 0.0 {
        phase += j.period;
    }
    let b = f64::from(j.bursts.max(1));
    let sub_period = j.period / b;
    (phase % sub_period) < j.comm_duration() / b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `is_communicating` agrees with the `%` formula at random times in
    /// `[−2T, 4T]` and one ulp either side of every sub-burst's start
    /// and end edge over that span.
    #[test]
    fn is_communicating_matches_percent_formula(
        period in 1e-4f64..100.0,
        a in 0.01f64..1.0,
        bursts in 1u32..5,
        offset_frac in -1.0f64..1.0,
        ts in proptest::collection::vec(-2.0f64..4.0, 64),
    ) {
        let j = PeriodicJob::new(period, a, offset_frac * period)
            .expect("valid")
            .with_bursts(bursts);
        let check = |t: f64| {
            assert_eq!(
                j.is_communicating(t),
                is_communicating_by_percent(&j, t),
                "t = {t:e} for {j:?}"
            );
        };
        for &x in &ts {
            check(x * period);
        }
        let b = f64::from(bursts);
        let sub = period / b;
        let burst = j.comm_duration() / b;
        for k in -2 * bursts as i32..=4 * bursts as i32 {
            let start = j.offset + f64::from(k) * sub;
            for edge in [start, start + burst] {
                for t in [edge.next_down(), edge, edge.next_up()] {
                    check(t);
                }
            }
        }
    }
}

/// `x` moved by `n` steps of its bit pattern (`n > 0` away from zero).
fn ulps(x: f64, n: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(n))
}

/// Periods of the paper's mixes at full and at the benchmark's 0.01
/// scale, and one with no short binary expansion.
const PERIODS: [f64; 6] = [1.2, 1.8, 0.012, 0.018, 1.0, 0.7];

/// Raw draws for [`edge_job`]: `(period index, a, bursts)` with `a = 1`
/// in a fifth of the draws, and `(offset kind, ulps, sample fraction, k,
/// period fraction)`.
type JobDraw = ((usize, f64, u32), (usize, i64, f64, i32, f64));

fn job_draw() -> impl Strategy<Value = JobDraw> {
    (
        (
            0usize..PERIODS.len(),
            prop_oneof![1 => Just(1.0), 4 => 0.01f64..1.0],
            1u32..5,
        ),
        (0usize..3, -3i64..4, 0.0f64..1.0, -2i32..4, -1.0f64..2.0),
    )
}

/// A job whose offset puts a comm edge on a sample instant (±0–3 ulp),
/// on a period or sub-period edge (±0–3 ulp), or anywhere in `[−T, 2T)`.
fn edge_job(draw: JobDraw, horizon: f64, samples: usize) -> PeriodicJob {
    let ((p, a, bursts), (kind, ulp, at, k, frac)) = draw;
    let period = PERIODS[p];
    let job = PeriodicJob::new(period, a, 0.0)
        .unwrap()
        .with_bursts(bursts);
    let sub = period / f64::from(bursts);
    let burst = job.comm_duration() / f64::from(bursts);
    let offset = match kind {
        // The start (even k) or end (odd k) edge of a sub-burst at a sample.
        0 => {
            let i = (at * samples as f64) as usize;
            let t = horizon * i as f64 / samples as f64;
            let edge = if k % 2 == 0 { 0.0 } else { burst };
            ulps(t - f64::from(k) * sub - edge, ulp)
        }
        1 => ulps(f64::from(k) * if k % 2 == 0 { period } else { sub }, ulp),
        _ => frac * period,
    };
    job.with_offset(offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `comm_samples` is `is_communicating` at every sample, as sorted,
    /// disjoint, non-adjacent runs; `demand_profile` built on it is the
    /// per-sample count bit for bit. Horizons include whole hyperperiods
    /// of the drawn periods and unrelated lengths.
    #[test]
    fn comm_samples_match_is_communicating(
        horizon in prop_oneof![
            Just(0.036),
            Just(3.6),
            Just(0.018),
            Just(1.2),
            0.001f64..10.0
        ],
        samples in prop_oneof![Just(8192usize), Just(256), 1usize..3000],
        draws in proptest::collection::vec(job_draw(), 1..6),
    ) {
        let jobs: Vec<PeriodicJob> = draws
            .into_iter()
            .map(|d| edge_job(d, horizon, samples))
            .collect();
        let at = |i: usize| horizon * i as f64 / samples as f64;
        let mut runs = Vec::new();
        for job in &jobs {
            job.comm_samples(horizon, samples, &mut runs);
            let mut member = vec![false; samples];
            let mut prev_end = None;
            for run in &runs {
                prop_assert!(run.start < run.end && run.end <= samples, "{run:?}");
                prop_assert!(prev_end.is_none_or(|e| e < run.start), "{runs:?}");
                prev_end = Some(run.end);
                member[run.clone()].fill(true);
            }
            for (i, &m) in member.iter().enumerate() {
                prop_assert_eq!(m, job.is_communicating(at(i)), "sample {} at {:e} for {:?}", i, at(i), job);
            }
        }
        let want: Vec<u32> = (0..samples)
            .map(|i| jobs.iter().filter(|j| j.is_communicating(at(i))).count() as u32)
            .collect();
        prop_assert_eq!(demand_profile(&jobs, horizon, samples), want);
    }
}
