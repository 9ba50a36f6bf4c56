//! Same seed, same simulated figures: two short traced runs of every
//! workload agree exactly on every sim-time metric and the fate digests,
//! pass every correctness check, and report exactly the metric names and
//! units `BENCHMARK.json` declares.
//!
//! Each run loads 128 residents, so run these in release mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::{Kind, Report};
use perfbench::{run, RunCfg};
use serde::Value;

fn short(seed: u64) -> RunCfg {
    RunCfg {
        seed,
        seconds: 0.3,
        traced: true,
        out_dir: None,
        setup_reps: 1,
        trace_secs: 0.3,
    }
}

/// Every sim-kind metric (end-to-end and per-layer) and the simulated
/// update-delay line, as `(name, value)`.
fn sim_figures(r: &Report) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = r
        .e2e
        .iter()
        .chain(&r.layer)
        .filter(|m| m.kind == Kind::Sim)
        .map(|m| (m.name.clone(), format!("{:?}", m.value)))
        .collect();
    v.extend(
        r.lines
            .iter()
            .filter(|l| {
                l.starts_with("metric deploy_device_ms_p50") || l.starts_with("fate digest")
            })
            .map(|l| (l.clone(), String::new())),
    );
    v
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
    let str_of = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    };
    doc.get(section)
        .and_then(|s| s.as_array())
        .expect("metric list")
        .iter()
        .map(|m| (str_of(m.get("name")), str_of(m.get("unit"))))
        .collect()
}

fn names(ms: &[perfbench::report::Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn twice(workload: &str) {
    let a = run(workload, &short(7)).expect("first run");
    let b = run(workload, &short(7)).expect("second run");
    for r in [&a, &b] {
        let failed: Vec<_> = r.checks.iter().filter(|c| !c.1).collect();
        assert!(
            r.correct(),
            "{workload}: failed checks {failed:?}, failed ops {}",
            r.failed_ops
        );
        assert_eq!(
            names(&r.e2e),
            declared("end_to_end"),
            "{workload}: end-to-end set"
        );
        assert_eq!(
            names(&r.layer),
            declared("per_layer"),
            "{workload}: per-layer set"
        );
        // Idle layers may read 0 only in count, share or rate units: a
        // time always carries a measurement.
        for m in &r.layer {
            if ["ns", "us", "ms", "s"].contains(&m.unit) {
                assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
            }
        }
    }
    let (fa, fb) = (sim_figures(&a), sim_figures(&b));
    assert!(
        fa.iter()
            .any(|f| f.0.starts_with("alloc.nodes_per_deploy.nc")),
        "{fa:?}"
    );
    assert_eq!(
        fa, fb,
        "{workload}: sim-time figures differ between same-seed runs"
    );
}

#[test]
fn replay_steady_repeats_exactly() {
    twice("replay_steady");
}

#[test]
fn replay_churn_repeats_exactly() {
    twice("replay_churn");
}

#[test]
fn ctl_mix_repeats_exactly() {
    twice("ctl_mix");
}
