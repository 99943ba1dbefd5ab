//! Self-tests of the benchmark. Run from the repository root with
//! `cargo test --release --manifest-path lumbench/Cargo.toml`; a debug
//! build makes the workloads many times slower.

use lumbench::catalog::{END_TO_END, PER_LAYER};
use lumbench::replica::{check_matches, run_replica};
use lumbench::workloads::{self, load, Args, WORKLOADS};
use lumina_core::run_test;

const SMALL_WRITE: &str = r#"
requester: { nic-type: cx4 }
responder: { nic-type: cx4 }
traffic:
  num-connections: 4
  rdma-verb: write
  num-msgs-per-qp: 6
  mtu: 1024
  message-size: 10240
  data-pkt-events:
    - {qpn: 1, psn: 5, type: drop, iter: 1}
"#;

#[test]
fn every_workload_emits_every_metric_it_names() {
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 0.2,
                trace,
            };
            // `run` refuses a sheet that misses a metric the workload
            // exercises, so success here is the emission check.
            let report =
                workloads::run(&args).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(
                report.correct(),
                "{workload} trace={trace}: {:?}",
                report.first_failure
            );
            assert!(report.attempted >= 1);
            let want = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = report.sheet.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = want.iter().map(|m| m.0).collect();
            assert_eq!(names, expected, "{workload} trace={trace}");
        }
    }
}

#[test]
fn replica_reproduces_run_test() {
    let cfg = load(SMALL_WRITE, 11).unwrap();
    let res = run_test(&cfg).unwrap();
    for telemetry in [true, false] {
        let rep = run_replica(&cfg, telemetry).unwrap();
        check_matches(&rep, &res).unwrap();
        assert!(rep.requester.calls > 0 && rep.switch.calls > 0 && rep.dumpers.calls > 0);
    }
}

#[test]
fn replica_check_catches_a_different_config() {
    let cfg = load(SMALL_WRITE, 11).unwrap();
    let res = run_test(&cfg).unwrap();

    let reseeded = load(SMALL_WRITE, 12).unwrap();
    let rep = run_replica(&reseeded, true).unwrap();
    assert!(
        check_matches(&rep, &res).is_err(),
        "a reseeded replica passed"
    );

    let mut reshaped = cfg.clone();
    reshaped.traffic.num_msgs_per_qp += 1;
    let rep = run_replica(&reshaped, true).unwrap();
    let err = check_matches(&rep, &res).expect_err("a reshaped replica passed");
    assert!(err.contains("differ"), "{err}");
}

#[test]
fn replica_refuses_planes_it_does_not_rebuild() {
    let mut cfg = load(SMALL_WRITE, 11).unwrap();
    cfg.quirks = Some(lumina_core::QuirksSection {
        ack_drop_prob: 0.5,
        ..Default::default()
    });
    assert!(run_replica(&cfg, true).is_err());
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let pairs = |key: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    };
    let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
        cat.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), own(END_TO_END));
    assert_eq!(pairs("per_layer"), own(PER_LAYER));
    let names: Vec<&str> = doc["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}
