//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
//! every correctness gate held, 1 when one failed, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use supernova_perfbench::{run, RunArgs, Scale, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <online-manhattan|online-sphere|fleet-ar> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut args = RunArgs {
        workload: Workload::OnlineManhattan,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from(".perfbench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!(
        "workload {} seed {} seconds {} trace {} host_cpus {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        supernova_perfbench::host_cpus()
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (m, v) in &report.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, v, m.unit);
    }
    for v in &report.violations {
        eprintln!("perfbench: GATE FAILED: {v}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
