//! Smoke test of the benchmark itself: every workload, untraced and
//! traced, at a tiny size. Each result
//! must re-parse through the repository's JSON reader, name exactly the
//! metrics `BENCHMARK.json` lists for its mode with their units, and
//! pass the output oracles.

use cameo_bench::slo::json::Value;
use std::process::Command;

fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every workload the benchmark accepts. `BENCHMARK.json` lists those
/// steady enough to gate; the others stay runnable (see the README).
const WORKLOADS: [&str; 4] = ["tenants", "ipq", "ipq-journal", "spike-elastic"];

#[test]
fn every_workload_reports_every_metric_and_passes_its_oracles() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    let bench = Value::parse(&manifest).expect("BENCHMARK.json parses");
    let listed_workloads = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert!(listed_workloads.len() >= 2);
    for w in listed_workloads {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        assert!(WORKLOADS.contains(&name), "unknown workload {name}");
    }
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("slobench-smoke");
    std::fs::create_dir_all(&work).expect("create the smoke directory");
    for wl in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_slobench"))
                .args([
                    "--workload",
                    wl,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(&work)
                .output()
                .expect("run the benchmark");
            assert!(out.status.success(), "{wl} --trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let mut lines = stdout.lines().rev();
            let result = Value::parse(lines.next().expect("a result line")).expect("result parses");
            let detail = Value::parse(lines.next().expect("a detail line")).expect("detail parses");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{wl} --trace {trace} failed its checks: {detail:?}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_num), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_num)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{wl}: no metrics object");
            };
            let want = listed(&bench, key);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{wl} --trace {trace}: metric count"
            );
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{wl}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    m.get("value")
                        .and_then(Value::as_num)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
            }
        }
    }
}
