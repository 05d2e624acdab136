//! Full-stack integration tests: MLTCP's headline behaviours, end to end
//! through the packet simulator.

use mltcp::prelude::*;

const SCALE: f64 = 5e-3;

fn noisy(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    jobs.into_iter()
        .map(|j| {
            let n = j.compute_time.mul_f64(0.01);
            j.with_noise(n)
        })
        .collect()
}

fn run_uniform(seed: u64, jobs: Vec<JobSpec>, cc: CongestionSpec) -> Scenario {
    let mut b = ScenarioBuilder::new(seed);
    for j in jobs {
        b = b.job(j, cc.clone());
    }
    let mut sc = b.build();
    sc.run(SimTime::from_secs_f64(60.0));
    assert!(sc.all_finished(), "scenario must complete");
    sc
}

fn mean_steady_ratio(sc: &Scenario) -> f64 {
    let n = sc.jobs.len();
    (0..n)
        .map(|i| sc.stats(i).tail_mean(5) / sc.ideal_period(i).as_secs_f64())
        .sum::<f64>()
        / n as f64
}

/// The core claim: six synchronized GPT-2 jobs stay congested under Reno
/// but interleave under MLTCP-Reno (paper Fig. 4).
///
/// Reno's packed-case slowdown is strongly seed-dependent (jitter alone
/// occasionally drifts the jobs apart), so the claim is checked on the
/// mean over a few fixed seeds rather than a single draw.
#[test]
fn six_jobs_mltcp_interleaves_reno_does_not() {
    let rate = models::paper_bottleneck();
    let seeds = [42u64, 1, 2, 3];
    let mut r_sum = 0.0;
    let mut m_sum = 0.0;
    for seed in seeds {
        let jobs = || noisy(models::gpt2_pack(rate, SCALE, 40, 6));
        r_sum += mean_steady_ratio(&run_uniform(seed, jobs(), CongestionSpec::Reno));
        m_sum += mean_steady_ratio(&run_uniform(
            seed,
            jobs(),
            CongestionSpec::MltcpReno(FnSpec::Paper),
        ));
    }
    let r = r_sum / seeds.len() as f64;
    let m = m_sum / seeds.len() as f64;
    assert!(
        m < r * 0.85,
        "MLTCP must clearly beat Reno in the packed case: {m:.3} vs {r:.3}"
    );
    assert!(m < 1.35, "MLTCP steady state should approach ideal: {m:.3}");
}

/// Two-job sliding (paper Fig. 6): the comm-phase offset grows until the
/// phases no longer overlap.
#[test]
fn two_jobs_slide_apart() {
    use mltcp::core::gradient::circular_distance;
    let rate = models::paper_bottleneck();
    let jobs = noisy(models::gpt2_pack(rate, SCALE, 30, 2));
    let comm = jobs[0].ideal_comm_time(rate).as_secs_f64();
    let period = jobs[0].ideal_period(rate).as_secs_f64();
    let sc = run_uniform(7, jobs, CongestionSpec::MltcpReno(FnSpec::Paper));
    let s0 = sc.comm_starts_secs(0);
    let s1 = sc.comm_starts_secs(1);
    let n = s0.len().min(s1.len());
    let last_deltas: Vec<f64> = (n.saturating_sub(8)..n)
        .map(|k| circular_distance(s0[k], s1[k], period))
        .collect();
    let late = last_deltas.iter().sum::<f64>() / last_deltas.len() as f64;
    assert!(
        late >= comm * 0.8,
        "steady-state offset {late:.6} should reach ≈ the comm duration {comm:.6}"
    );
}

/// The Fig. 2 ordering: pFabric systematically delays the job with the
/// biggest transfers (J1), which MLTCP does not.
#[test]
fn pfabric_penalizes_the_big_job_mltcp_does_not() {
    use mltcp::sched::pfabric::apply_pfabric;
    let rate = models::paper_bottleneck();
    let jobs = || noisy(models::fig2_mix(rate, SCALE, 40));

    let mltcp = run_uniform(42, jobs(), CongestionSpec::MltcpReno(FnSpec::Paper));
    let mltcp_j1 = mltcp.stats(0).tail_mean(5) / mltcp.ideal_period(0).as_secs_f64();

    let mut b = ScenarioBuilder::new(42);
    for j in jobs() {
        b = b.job(j, CongestionSpec::Reno);
    }
    let mut pf = apply_pfabric(b).build();
    pf.run(SimTime::from_secs_f64(60.0));
    assert!(pf.all_finished());
    let pf_j1 = pf.stats(0).tail_mean(5) / pf.ideal_period(0).as_secs_f64();
    let pf_small = pf.stats(1).tail_mean(5) / pf.ideal_period(1).as_secs_f64();

    assert!(
        pf_j1 > 1.35,
        "SRPT should slow J1 substantially (paper: ~1.5x): {pf_j1:.3}"
    );
    assert!(
        pf_small < 1.15,
        "SRPT keeps the small jobs near ideal: {pf_small:.3}"
    );
    assert!(
        mltcp_j1 < pf_j1 - 0.1,
        "MLTCP must treat J1 better than SRPT: {mltcp_j1:.3} vs {pf_j1:.3}"
    );
}

/// The centralized optimum (Cassini-style enforced interleaving) reaches
/// near-ideal for every job, and MLTCP's *average* lands within ~10% of
/// it (paper §2 reports within 5% on their testbed).
#[test]
fn mltcp_approximates_the_centralized_schedule() {
    use mltcp::sched::cassini;
    let rate = models::paper_bottleneck();
    let jobs = noisy(models::fig2_mix(rate, SCALE, 40));

    let periodic: Vec<_> = jobs.iter().map(|j| j.to_periodic(rate)).collect();
    let sched = cassini::optimize_offsets(&periodic, 240, 8192);
    assert!(sched.is_fully_interleaved(), "the Fig. 2 mix must tile");
    let computes: Vec<_> = jobs.iter().map(|j| j.compute_time).collect();
    let periods: Vec<f64> = periodic.iter().map(|p| p.period).collect();
    let offsets = cassini::driver_offsets(&sched, &computes, &periods);
    let mut b = ScenarioBuilder::new(42);
    for (mut j, off) in jobs.clone().into_iter().zip(offsets) {
        let pace = j.ideal_period(rate).mul_f64(1.16);
        j.start_offset = off.mul_f64(1.16);
        b = b.job(j.with_pace(pace), CongestionSpec::Reno);
    }
    let mut cassini_sc = b.build();
    cassini_sc.run(SimTime::from_secs_f64(60.0));
    assert!(cassini_sc.all_finished());
    let c = mean_steady_ratio(&cassini_sc);

    let mltcp = run_uniform(42, jobs, CongestionSpec::MltcpReno(FnSpec::Paper));
    let m = mean_steady_ratio(&mltcp);

    assert!(c < 1.2, "enforced Cassini must be near ideal: {c:.3}");
    assert!(
        m / c < 1.12,
        "MLTCP's average must approximate the centralized optimum: {m:.3} vs {c:.3}"
    );
}

/// Determinism: identical (topology, workload, seed) runs produce
/// identical iteration series.
#[test]
fn scenarios_are_deterministic() {
    let rate = models::paper_bottleneck();
    let series = |seed: u64| {
        let sc = run_uniform(
            seed,
            noisy(models::gpt2_pack(rate, SCALE, 10, 3)),
            CongestionSpec::MltcpReno(FnSpec::Paper),
        );
        (0..3)
            .map(|i| sc.stats(i).durations().to_vec())
            .collect::<Vec<_>>()
    };
    assert_eq!(series(11), series(11));
    assert_ne!(series(11), series(12));
}

/// Coexistence (§5): an MLTCP flow sharing the link with a legacy Reno
/// flow gets the better share but never starves it.
#[test]
fn mltcp_does_not_starve_legacy_reno() {
    let rate = models::paper_bottleneck();
    let mut b = ScenarioBuilder::new(42);
    let jobs = noisy(models::gpt2_pack(rate, SCALE, 30, 2));
    let ccs = [
        CongestionSpec::Reno,
        CongestionSpec::MltcpReno(FnSpec::Paper),
    ];
    for (j, cc) in jobs.into_iter().zip(ccs) {
        b = b.job(j, cc);
    }
    let mut sc = b.build();
    sc.run(SimTime::from_secs_f64(60.0));
    assert!(
        sc.all_finished(),
        "legacy flow must complete all iterations"
    );
    let legacy = sc.stats(0).tail_mean(5) / sc.ideal_period(0).as_secs_f64();
    assert!(
        legacy < 2.5,
        "legacy flow may be de-prioritized but not starved: {legacy:.3}"
    );
}
