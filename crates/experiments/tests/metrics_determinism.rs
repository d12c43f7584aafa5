//! Satellite guarantee: the `simwatch` time series is a pure function
//! of the simulated instruction stream. Two runs of the same experiment
//! at the same parameters must produce byte-identical JSONL — that is
//! what lets CI diff metrics artifacts across a kill/resume drill.
//! The converse holds too: attaching an observer (the sampler or a
//! trace sink) never changes a simulated result.

use experiments::common::{ExpResult, MetricsSpec};
use experiments::divergence::WitnessTap;
use experiments::{e0_bandwidth, e1_read_buffer, e3_write_amp};
use optane_core::Generation;
use simlint::witness::OpStreamHasher;

fn e1_series() -> String {
    let r = e1_read_buffer::run(&e1_read_buffer::E1Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10, 24 << 10],
        rounds: 2,
        metrics: Some(MetricsSpec { interval: 50_000 }),
        seed: 0,
    });
    r.metrics_jsonl.expect("sampling was requested")
}

fn e3_series() -> String {
    let r = e3_write_amp::run(&e3_write_amp::E3Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10],
        rounds: 4,
        metrics: Some(MetricsSpec { interval: 50_000 }),
        seed: 0,
    });
    r.metrics_jsonl.expect("sampling was requested")
}

#[test]
fn same_parameters_give_byte_identical_series() {
    assert_eq!(e1_series(), e1_series());
    assert_eq!(e3_series(), e3_series());
}

#[test]
fn series_carries_the_paper_counters_per_sample() {
    let s = e1_series();
    assert!(!s.is_empty(), "sampling produced rows");
    for line in s.lines() {
        for key in [
            "\"t\":",
            "\"ctx\":",
            "\"imc_read_bytes\":",
            "\"media_read_bytes\":",
            "\"wpq_max_depth\":",
            "\"wb_hit_ratio\":",
            "\"write_absorption\":",
        ] {
            assert!(line.contains(key), "row missing {key}: {line}");
        }
    }
    // Each sweep point runs on a fresh machine whose clock restarts, so
    // every point contributes at least its final sample under its own
    // context label.
    assert!(s.contains("\"ctx\":\"e1 cpx=4 wss=8192\""), "{s}");
    assert!(s.contains("\"ctx\":\"e1 cpx=1 wss=24576\""), "{s}");
}

#[test]
fn write_experiment_reports_wpq_occupancy() {
    let r = e3_write_amp::run(&e3_write_amp::E3Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10],
        rounds: 4,
        metrics: Some(MetricsSpec { interval: 50_000 }),
        seed: 0,
    });
    let note = r
        .notes
        .iter()
        .find(|n| n.starts_with("queue occupancy:"))
        .expect("occupancy note present");
    assert!(note.contains("wpq max depth"), "{note}");
    // nt-stores drain through the WPQ, so the run observed real depth.
    assert!(!note.contains("wpq max depth 0"), "{note}");
}

fn rendered(r: &ExpResult) -> String {
    format!("{}\n{}", r.to_table(), r.to_csv())
}

#[test]
fn observers_do_not_change_simulated_results() {
    // The sampler: E1 and E3 with and without `simwatch` sampling. With
    // sampling off, E3 stores through the batched run API; with it on,
    // one instruction at a time between polls. E3's 2 KB point moves
    // with the timing of G1's periodic write-back, so a sampler that
    // shifted the clock would show there.
    let e1 = |metrics| {
        e1_read_buffer::run(&e1_read_buffer::E1Params {
            generation: Generation::G1,
            wss_points: vec![8 << 10, 24 << 10],
            rounds: 2,
            metrics,
            seed: 0,
        })
    };
    let sampled = e1(Some(MetricsSpec { interval: 50_000 }));
    assert!(sampled.metrics_jsonl.is_some());
    assert_eq!(rendered(&e1(None)), rendered(&sampled));
    let e3 = |metrics| {
        e3_write_amp::run(&e3_write_amp::E3Params {
            generation: Generation::G1,
            wss_points: vec![2 << 10, 8 << 10],
            rounds: 4,
            metrics,
            seed: 0,
        })
    };
    let sampled = e3(Some(MetricsSpec { interval: 50_000 }));
    assert!(sampled.metrics_jsonl.is_some());
    assert_eq!(rendered(&e3(None)), rendered(&sampled));

    // A trace sink: the witness tap hashes every op of every machine.
    let e0 = e0_bandwidth::E0Params {
        threads: vec![1, 4],
        blocks_per_thread: 500,
        ..Default::default()
    };
    let tap = WitnessTap::new(OpStreamHasher::new());
    let traced = e0_bandwidth::run_traced(&e0, Some(&tap));
    assert!(tap.report(None, "").ops > 0, "the tap saw no ops");
    assert_eq!(rendered(&e0_bandwidth::run(&e0)), rendered(&traced));
    let e3 = e3_write_amp::E3Params {
        wss_points: vec![8 << 10],
        rounds: 4,
        ..Default::default()
    };
    let tap = WitnessTap::new(OpStreamHasher::new());
    let traced = e3_write_amp::run_traced(&e3, Some(&tap));
    assert!(tap.report(None, "").ops > 0, "the tap saw no ops");
    assert_eq!(rendered(&e3_write_amp::run(&e3)), rendered(&traced));
}
