//! `bmhive-perfbench --workload <name> [--seed n] [--seconds s] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics, each with its unit, then
//! as the last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 1` the traced run also writes its spans to
//! `perfbench/out/`.

use bmhive_perfbench::alloc::BenchAlloc;
use bmhive_perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc::new();

/// Failed checks printed before the result line; the rest are counted.
const SHOWN_PROBLEMS: usize = 20;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bmhive-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        span_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    println!(
        "workload {} seed {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_op_share {} (share): {} of {} operations failed",
        out.failed_op_share(),
        out.failed,
        out.attempted
    );
    for p in out.problems.iter().take(SHOWN_PROBLEMS) {
        println!("CHECK FAILED: {p}");
    }
    if out.problems.len() > SHOWN_PROBLEMS {
        println!("CHECK FAILED: {} more", out.problems.len() - SHOWN_PROBLEMS);
    }
    println!("{}", out.summary().to_json());
    ExitCode::SUCCESS
}
