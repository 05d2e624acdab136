//! Tests of the benchmark's helpers: order statistics, the percentile
//! rule, peak-RSS parsing, self-time accounting, and the agreement of the
//! metric catalogue with `BENCHMARK.json`.

use mltcp_perfbench::layers::{END_TO_END, LAYER_METRICS};
use mltcp_perfbench::rss::parse_vm_hwm_mib;
use mltcp_perfbench::spans::{layer_self_seconds, self_times_ns, timed, Span, Tracer};
use mltcp_perfbench::stats::{iqr_share, median, quartiles, tail_level_permille};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(data, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(
        quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]),
        Some([2.0, 4.0, 7.0])
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn iqr_share_is_quartile_distance_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(iqr_share(&ten), Some((8.25 - 2.75) / 5.5));
    assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), Some(0.0));
}

#[test]
fn tail_level_leaves_ten_samples_beyond() {
    assert_eq!(tail_level_permille(9), None);
    assert_eq!(tail_level_permille(19), None);
    assert_eq!(tail_level_permille(20), Some(500));
    assert_eq!(tail_level_permille(40), Some(750));
    assert_eq!(tail_level_permille(99), Some(750));
    assert_eq!(tail_level_permille(100), Some(900));
    assert_eq!(tail_level_permille(199), Some(900));
    assert_eq!(tail_level_permille(200), Some(950));
    assert_eq!(tail_level_permille(1_000), Some(990));
    assert_eq!(tail_level_permille(10_000), Some(999));
}

#[test]
fn rss_parses_vm_hwm_in_mib() {
    let status = "Name:\tperfbench\nVmPeak:\t  20480 kB\nVmHWM:\t   6144 kB\nVmRSS:\t   4096 kB\n";
    assert_eq!(parse_vm_hwm_mib(status), Some(6.0));
    assert_eq!(parse_vm_hwm_mib("VmRSS:\t 4096 kB\n"), None);
    assert_eq!(parse_vm_hwm_mib("VmHWM:\t 4096 MB\n"), None);
    assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(0, None, "workload.sweep", 0, 100),
        // Overlapping children (two workers) count once: 10..50.
        span(1, Some(0), "netsim.run_until", 10, 30),
        span(2, Some(0), "netsim.run_until", 20, 50),
        // A child running past its parent counts only inside it: 90..100.
        span(3, Some(0), "sched.optimize_offsets", 90, 120),
        // A grandchild is subtracted from its own parent only.
        span(4, Some(2), "telemetry.take_metrics", 25, 35),
    ];
    assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 30, 10]);
    let by_layer = layer_self_seconds(&spans);
    for (layer, ns) in [
        ("workload", 50.0),
        ("netsim", 40.0),
        ("sched", 30.0),
        ("telemetry", 10.0),
    ] {
        assert!((by_layer[layer] - ns * 1e-9).abs() < 1e-15, "{layer}");
    }
}

#[test]
fn timed_records_nested_spans_only_with_a_tracer() {
    let (v, secs) = timed(None, "bench.pass", None, |id| {
        assert_eq!(id, None);
        7
    });
    assert_eq!(v, 7);
    assert!(secs >= 0.0);

    let tracer = Tracer::new();
    timed(Some(&tracer), "bench.pass", None, |outer| {
        timed(Some(&tracer), "workload.build", outer, |_| ());
    });
    let spans = tracer.into_spans();
    assert_eq!(spans.len(), 2);
    let (inner, outer) = (&spans[0], &spans[1]);
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(outer.parent, None);
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    assert_eq!(inner.layer(), "workload");
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = END_TO_END
        .iter()
        .copied()
        .chain(LAYER_METRICS.iter().map(|m| (m.name, m.unit)));
    let mut count = 0;
    for (name, unit) in names {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        count += 1;
    }
    for m in LAYER_METRICS {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // Every metric entry has a unit; nothing beyond the catalogue.
    assert_eq!(text.matches("\"unit\":").count(), count);
}
