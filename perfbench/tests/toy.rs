//! Every workload at toy size, on the default and the held-out seed,
//! untraced and traced: the correctness gates hold and exactly the
//! catalog's metrics are reported. Runs are serialized so that concurrent
//! tests do not disturb each other's open-loop schedules.

use std::sync::Mutex;

use supernova_perfbench::catalog::{END_TO_END, PER_LAYER};
use supernova_perfbench::{run, RunArgs, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};

static SERIAL: Mutex<()> = Mutex::new(());

fn check(workload: Workload) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for trace in [false, true] {
            let args = RunArgs {
                workload,
                seed,
                seconds: 1.0,
                trace,
                scale: Scale::Toy,
                out_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench"),
            };
            let report = run(&args);
            let what = format!("{} seed {seed} trace {trace}", workload.name());
            assert!(
                report.correct,
                "{what}: gates failed: {:?}",
                report.violations
            );
            assert!(report.attempted > 0, "{what}: nothing attempted");
            assert_eq!(report.failed, 0, "{what}: updates failed");
            let table = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = report.metrics.iter().map(|(m, _)| m.name).collect();
            let want: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{what}: metric set");
            for (m, v) in &report.metrics {
                assert!(v.is_finite(), "{what}: {} = {v}", m.name);
                if !trace {
                    assert!(*v > 0.0, "{what}: end-to-end metric {} is {v}", m.name);
                }
            }
            let json = report.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn online_manhattan() {
    check(Workload::OnlineManhattan);
}

#[test]
fn online_sphere() {
    check(Workload::OnlineSphere);
}

#[test]
fn fleet_ar() {
    check(Workload::FleetAr);
}

/// `BENCHMARK.json` lists every catalog metric with its unit and better
/// direction, in catalog order.
#[test]
fn benchmark_json_matches_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut from = 0;
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        let at = text[from..]
            .find(&entry)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {entry} (in order)"));
        from += at + entry.len();
    }
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
}
