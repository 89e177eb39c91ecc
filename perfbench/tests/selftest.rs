//! Self-test of the benchmark: every workload at a tiny size emits every
//! named metric with its unit and a finite value, and the correctness
//! checks reject corrupted answers.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use obs::json::Json;
use perfbench::rsm_load::{check_converged, check_readback};
use perfbench::sim_byz::check_trial;
use perfbench::{run, RunConfig, Workload, END_TO_END, PER_LAYER};
use simnet::{Metrics, Role, RunReport, RunStatus, Value};

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir
}

/// Runs `workload` tiny and checks its result line: every named metric,
/// with its unit and a finite value, and nothing else.
fn emits_every_metric(workload: Workload, trace: bool) {
    let tag = format!("{}-{}", workload.name(), u8::from(trace));
    let cfg = RunConfig::tiny(7, trace, out_dir(&tag));
    let mut outcome = run(workload, &cfg);
    let result = outcome.result_json(trace);
    assert!(outcome.problems.is_empty(), "{tag}: {:?}", outcome.problems);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{tag}");
    let attempted = result
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    assert!(attempted >= 1, "{tag}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{tag}"
    );
    let metrics = result.get("metrics").expect("metrics");
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let Json::Obj(pairs) = metrics else {
        panic!("{tag}: metrics is not an object");
    };
    assert_eq!(
        pairs.len(),
        wanted.len(),
        "{tag}: exactly the named metrics"
    );
    for &(name, unit) in wanted {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{tag}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit),
            "{tag}: {name}"
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{tag}: {name} = {v}");
        if !trace {
            assert!(v > 0.0, "{tag}: end-to-end {name} must never be 0");
        }
    }
    // The result line is valid JSON on its own.
    assert_eq!(Json::parse(&result.render()).as_ref(), Ok(&result));
}

#[test]
fn rsm_steady_emits_every_metric() {
    emits_every_metric(Workload::RsmSteady, false);
    emits_every_metric(Workload::RsmSteady, true);
}

#[test]
fn rsm_kill_emits_every_metric() {
    emits_every_metric(Workload::RsmKill, false);
    emits_every_metric(Workload::RsmKill, true);
}

#[test]
fn sim_byz_emits_every_metric() {
    emits_every_metric(Workload::SimByz, false);
    emits_every_metric(Workload::SimByz, true);
}

#[test]
fn convergence_check_rejects_a_mismatched_digest() {
    let states = [(10, 0xabc), (10, 0xabc), (10, 0xabd)];
    assert!(check_converged(Some((10, 0xabc)), &states).is_err());
    assert!(check_converged(None, &states[..2]).is_err());
    assert!(check_converged(Some((10, 0xabc)), &states[..2]).is_ok());
}

#[test]
fn readback_check_rejects_missing_and_wrong_values() {
    let acked: Vec<(&[u8], &[u8])> = vec![(b"a", b"1"), (b"b", b"2"), (b"c", b"3")];
    let store = |k: &[u8]| match k {
        b"a" => Some(b"1".to_vec()),
        b"b" => Some(b"X".to_vec()),
        _ => None,
    };
    assert_eq!(check_readback(&acked, store), vec![1, 2]);
    assert!(check_readback(&acked[..1], store).is_empty());
}

#[test]
fn trial_check_rejects_disagreement_undecided_and_step_cap() {
    let report = |status, decisions: Vec<Option<Value>>| {
        let n = decisions.len();
        RunReport::synthesize(
            status,
            decisions,
            vec![Role::Correct; n],
            40,
            vec![Some(1); n],
            vec![Some(1); n],
            1,
            Metrics::new(n),
        )
    };
    let one = Some(Value::One);
    let good = report(RunStatus::Stopped, vec![one, one, one]);
    assert!(check_trial(&good, 40).is_ok());
    assert!(
        check_trial(&good, 39).is_err(),
        "a delivery the probes missed"
    );
    let split = report(RunStatus::Stopped, vec![one, Some(Value::Zero), one]);
    assert!(check_trial(&split, 40).is_err());
    let undecided = report(RunStatus::Quiescent, vec![one, None, one]);
    assert!(check_trial(&undecided, 40).is_err());
    let capped = report(RunStatus::StepLimitReached, vec![one, one, one]);
    assert!(check_trial(&capped, 40).is_err());
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        let Some(Json::Arr(items)) = spec.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).map(str::to_string);
                (name.to_string(), unit)
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let expected: Vec<(String, Option<String>)> = list
            .iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(names(key), expected, "{key}");
    }
}
