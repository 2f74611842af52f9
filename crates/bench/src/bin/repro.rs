//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bmhive-bench --release --bin repro            # everything
//! cargo run -p bmhive-bench --release --bin repro -- fig11   # one experiment
//! cargo run -p bmhive-bench --release --bin repro -- --seed 7 fig9 fig10
//! cargo run -p bmhive-bench --release --bin repro -- --trace /tmp/t.json iobond
//! cargo run -p bmhive-bench --release --bin repro -- --metrics fig11
//! cargo run -p bmhive-bench --release --bin repro -- --faults link-flap faults
//! cargo run -p bmhive-bench --release --bin repro -- sweep --jobs 8
//! cargo run -p bmhive-bench --release --bin repro -- sweep --jobs 8 --shard 0/3 --out shard-0
//! cargo run -p bmhive-bench --release --bin repro -- merge shard-0 shard-1 shard-2
//! cargo run -p bmhive-bench --release --bin repro -- bench --out BENCH_results.json
//! ```

use bmhive_bench::harness::BenchReport;
use bmhive_bench::merge;
use bmhive_bench::sweep::{self, Shard, SweepSpec};
use bmhive_faults as faults;
use bmhive_telemetry as telemetry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The counting allocator backs the `fleet_scale` experiment's
/// peak-RSS-proxy gate: per-thread live/peak byte counters over the
/// system allocator. Overhead is two thread-local adds per
/// alloc/dealloc; experiments that don't meter never read it.
#[global_allocator]
static ALLOC: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc::system();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(&args[1..]),
        Some("merge") => merge_main(&args[1..]),
        Some("bench") => bench_main(&args[1..]),
        _ => repro_main(&args),
    }
}

/// The classic single-pass mode: render the requested experiments once.
fn repro_main(args: &[String]) -> ExitCode {
    let mut seed = 1u64;
    let mut jobs = 1usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics = false;
    let mut fault_plan: Option<String> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(0) => {
                    eprintln!("--jobs must be at least 1 (got 0)");
                    return ExitCode::FAILURE;
                }
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir.into()),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path.into()),
                None => {
                    eprintln!("--trace requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => metrics = true,
            "--faults" => match args.next() {
                Some(arg) => fault_plan = Some(arg),
                None => {
                    eprintln!("--faults requires a canned plan name or a JSON file path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}' (see --help)");
                return ExitCode::FAILURE;
            }
            other => requested.push(other.to_string()),
        }
    }

    let known = bmhive_bench::EXPERIMENT_IDS;
    for r in &requested {
        if !known.contains(&r.as_str()) {
            eprintln!("unknown experiment '{r}'; known: {}", known.join(", "));
            return ExitCode::FAILURE;
        }
    }

    // Validate output destinations up front, before hours of experiments.
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &trace_path {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create --trace directory {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Arm the fault plan (if any) before the first experiment, so the
    // whole run is injected and recovered deterministically in `seed`.
    if let Some(arg) = &fault_plan {
        match sweep::resolve_plan(arg) {
            Ok(plan) => faults::arm(plan, seed),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Host-sharded experiments fan their per-host work across this
    // many workers; output is byte-identical for any width.
    bmhive_bench::par::set_jobs(jobs);

    let telemetry_on = trace_path.is_some() || metrics;
    if telemetry_on {
        telemetry::set_enabled(true);
        telemetry::reset();
    }

    let mut printed = 0;
    for id in known {
        if !requested.is_empty() && !requested.iter().any(|r| r == id) {
            continue;
        }
        let text = bmhive_bench::run_experiment(id, seed).expect("known id");
        println!("======== {id} ========");
        println!("{text}");
        if let Some(dir) = &out_dir {
            let txt = dir.join(format!("{id}.txt"));
            if let Err(e) = std::fs::write(&txt, &text) {
                eprintln!("cannot write {}: {e}", txt.display());
                return ExitCode::FAILURE;
            }
            let json = dir.join(format!("{id}.json"));
            if let Err(e) = std::fs::write(&json, experiment_json(id, seed, &text)) {
                eprintln!("cannot write {}: {e}", json.display());
                return ExitCode::FAILURE;
            }
        }
        printed += 1;
    }

    if fault_plan.is_some() {
        let stats = faults::disarm().expect("armed above");
        println!("======== fault stats ========");
        print!("{}", stats.to_text());
        if let Some(dir) = &out_dir {
            let path = dir.join("fault_stats.json");
            if let Err(e) = std::fs::write(&path, stats.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("[repro] wrote fault stats to {}", path.display());
        }
    }

    if telemetry_on {
        let snap = telemetry::snapshot();
        if let Some(path) = &trace_path {
            let doc = telemetry::export::chrome_trace(&snap.events);
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("cannot write trace {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "[repro] wrote {} span(s) to {} ({} dropped by the ring buffer)",
                snap.events.len(),
                path.display(),
                snap.dropped
            );
        }
        if metrics {
            println!("======== latency attribution ========");
            print!(
                "{}",
                telemetry::Attribution::from_events(&snap.events).to_text()
            );
            println!("======== metrics ========");
            print!("{}", snap.registry.to_text());
        }
        telemetry::set_enabled(false);
    }

    if let Some(dir) = &out_dir {
        eprintln!(
            "[repro] wrote {printed} experiment(s) (.txt + .json) under {}",
            dir.display()
        );
    }
    eprintln!("[repro] {printed} experiment(s) rendered with seed {seed}");
    ExitCode::SUCCESS
}

/// `repro sweep`: the (experiment × seed × plan) cross product, in
/// parallel, byte-identical to the serial order.
fn sweep_main(args: &[String]) -> ExitCode {
    let mut spec = SweepSpec::full_matrix();
    let mut out_dir: Option<PathBuf> = None;
    let mut shard: Option<Shard> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(0) => {
                    eprintln!("--jobs must be at least 1 (got 0)");
                    return ExitCode::FAILURE;
                }
                Some(n) => spec.jobs = n,
                None => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--shard" => match args.next().map(|s| Shard::parse(&s)) {
                Some(Ok(s)) => shard = Some(s),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--shard requires I/N (e.g. 0/3); I counts from 0 and must be < N");
                    return ExitCode::FAILURE;
                }
            },
            "--seeds" => match args.next().map(|s| parse_seed_list(&s)) {
                Some(Ok(seeds)) => spec.seeds = seeds,
                _ => {
                    eprintln!("--seeds requires a comma-separated integer list, e.g. 1,2,3,4");
                    return ExitCode::FAILURE;
                }
            },
            "--plans" => match args.next() {
                Some(list) => spec.plans = parse_plan_list(&list),
                None => {
                    eprintln!(
                        "--plans requires a comma-separated list of plan names/files; \
                         'clean' is the un-injected run, 'all' is clean + every canned plan"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => spec.trace = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir.into()),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_sweep_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown sweep flag '{other}' (see repro sweep --help)");
                return ExitCode::FAILURE;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if !experiments.is_empty() {
        spec.experiments = experiments;
    }
    if spec.trace && out_dir.is_none() {
        eprintln!("sweep --trace needs --out DIR to write the per-cell trace files");
        return ExitCode::FAILURE;
    }
    if shard.is_some() && out_dir.is_none() {
        eprintln!("sweep --shard needs --out DIR to hold the shard's cells and manifest");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let start = Instant::now();
    let outputs = match sweep::run_sweep_shard(&spec, shard.unwrap_or(Shard::WHOLE)) {
        Ok(outputs) => outputs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed();

    for (_, out) in &outputs {
        print!("{}", sweep::render_cell(out));
    }
    if let Some(dir) = &out_dir {
        match shard {
            // Sharded runs write the manifest alongside the cells so
            // `repro merge` can validate and reassemble the split.
            Some(shard) => {
                if let Err(e) = merge::write_shard_dir(dir, &spec, shard, &outputs) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            None => {
                for (_, out) in &outputs {
                    let stem = out.cell.file_stem();
                    let txt = dir.join(format!("{stem}.txt"));
                    if let Err(e) = std::fs::write(&txt, sweep::render_cell(out)) {
                        eprintln!("cannot write {}: {e}", txt.display());
                        return ExitCode::FAILURE;
                    }
                    if let Some(trace) = &out.trace_json {
                        let path = dir.join(format!("{stem}.trace.json"));
                        if let Err(e) = std::fs::write(&path, trace) {
                            eprintln!("cannot write {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
    }
    let shard_note = match shard {
        Some(s) => format!(" [shard {s}]"),
        None => String::new(),
    };
    eprintln!(
        "[sweep] {} cell(s){shard_note} ({} experiment(s) x {} seed(s) x {} plan(s)) with --jobs {} in {:.3}s",
        outputs.len(),
        spec.experiments.len(),
        spec.seeds.len(),
        spec.plans.len(),
        spec.jobs,
        wall.as_secs_f64(),
    );
    ExitCode::SUCCESS
}

/// `repro merge`: validate shard directories and reassemble the serial
/// sweep output from them.
fn merge_main(args: &[String]) -> ExitCode {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir.into()),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_merge_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown merge flag '{other}' (see repro merge --help)");
                return ExitCode::FAILURE;
            }
            other => dirs.push(other.into()),
        }
    }
    if dirs.is_empty() {
        eprintln!("repro merge needs at least one shard directory (see repro merge --help)");
        return ExitCode::FAILURE;
    }

    let plan = match merge::plan_merge(&dirs) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let combined = match plan.concat_reports() {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{combined}");
    if let Some(dir) = &out_dir {
        if let Err(e) = plan.write_combined(dir) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[merge] wrote {} cell(s) under {}",
            plan.cells.len(),
            dir.display()
        );
    }
    let splits: Vec<String> = plan.manifests.iter().map(|m| m.shard.to_string()).collect();
    eprintln!(
        "[merge] {} shard(s) [{}] -> {} cell(s), spec {}",
        plan.manifests.len(),
        splits.join(", "),
        plan.cells.len(),
        plan.manifests[0].spec_hash,
    );
    ExitCode::SUCCESS
}

/// `repro bench`: time each experiment and emit/check the trajectory.
fn bench_main(args: &[String]) -> ExitCode {
    let mut seed = 1u64;
    let mut repeats = 3u32;
    let mut out_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut compare_out: Option<PathBuf> = None;
    let mut tolerance = 0.25f64;
    let mut experiments: Vec<String> = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--repeat" => match args.next().and_then(|s| s.parse().ok()) {
                Some(r) => repeats = r,
                None => {
                    eprintln!("--repeat requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = Some(path.into()),
                None => {
                    eprintln!("--out requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(path) => check_path = Some(path.into()),
                None => {
                    eprintln!("--check requires a baseline JSON file");
                    return ExitCode::FAILURE;
                }
            },
            "--compare-out" => match args.next() {
                Some(path) => compare_out = Some(path.into()),
                None => {
                    eprintln!("--compare-out requires a file path (needs --check)");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match args.next().and_then(|s| s.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("--tolerance requires a fraction, e.g. 0.25");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_bench_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown bench flag '{other}' (see repro bench --help)");
                return ExitCode::FAILURE;
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments = bmhive_bench::EXPERIMENT_IDS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let baseline = match &check_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(doc) => match BenchReport::from_json(&doc) {
                Ok(report) => Some(report),
                Err(e) => {
                    eprintln!("cannot parse --check {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read --check {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let report = match bmhive_bench::harness::run_bench(&experiments, seed, repeats) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<10} | {:>12} | {:>10} | {:>14} | {:>12} | {:>10} | {:>12} | {:>9}",
        "experiment",
        "wall ms",
        "events",
        "events/sec",
        "allocs/ev",
        "peak depth",
        "suppressed",
        "batch len"
    );
    for r in &report.results {
        println!(
            "{:<10} | {:>12.3} | {:>10} | {:>14.0} | {:>12.4} | {:>10.1} | {:>12} | {:>9.2}",
            r.experiment,
            r.wall_ns as f64 / 1e6,
            r.events,
            r.events_per_sec,
            r.allocs_per_event,
            r.peak_queue_depth,
            r.doorbells_suppressed,
            r.mean_batch_len
        );
    }
    println!(
        "{:<10} | {:>12.3} | (min of {} run(s), seed {})",
        "total",
        report.total_wall_ns() as f64 / 1e6,
        report.repeats,
        report.seed
    );

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write --out {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[bench] wrote {}", path.display());
    }

    if compare_out.is_some() && baseline.is_none() {
        eprintln!("--compare-out needs --check to provide the baseline");
        return ExitCode::FAILURE;
    }
    if let Some(baseline) = &baseline {
        if let Some(path) = &compare_out {
            if let Err(e) = std::fs::write(path, report.comparison_table(baseline)) {
                eprintln!("cannot write --compare-out {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("[bench] wrote comparison table to {}", path.display());
        }
        let problems = report.check_against(baseline, tolerance);
        if problems.is_empty() {
            eprintln!(
                "[bench] no regression vs {} at {:.0}% tolerance",
                check_path.expect("checked above").display(),
                tolerance * 100.0
            );
        } else {
            for p in &problems {
                eprintln!("[bench] REGRESSION: {p}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn parse_seed_list(list: &str) -> Result<Vec<u64>, ()> {
    let seeds: Result<Vec<u64>, _> = list.split(',').map(|s| s.trim().parse()).collect();
    match seeds {
        Ok(seeds) if !seeds.is_empty() => Ok(seeds),
        _ => Err(()),
    }
}

fn parse_plan_list(list: &str) -> Vec<Option<String>> {
    if list == "all" {
        return SweepSpec::full_matrix().plans;
    }
    list.split(',')
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .map(|s| {
            if s == sweep::CLEAN {
                None
            } else {
                Some(s.to_string())
            }
        })
        .collect()
}

/// A machine-readable summary of one rendered experiment: the id, the
/// seed, and the report body as a JSON array of lines (jq-friendly).
fn experiment_json(id: &str, seed: u64, text: &str) -> String {
    use telemetry::export::json_escape;
    let mut out = format!(
        "{{\"experiment\":\"{}\",\"seed\":{seed},\"lines\":[",
        json_escape(id)
    );
    for (i, line) in text.lines().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(line));
        out.push('"');
    }
    out.push_str("]}\n");
    out
}

fn print_help() {
    println!("repro — regenerate the BM-Hive paper's tables and figures");
    println!();
    println!(
        "USAGE: repro [--seed N] [--jobs N] [--out DIR] [--trace FILE] [--metrics] [--faults PLAN] [experiment ...]"
    );
    println!("       repro sweep [...]   parallel (experiment x seed x plan) sweep (see repro sweep --help)");
    println!("       repro merge [...]   reassemble sharded sweep output (see repro merge --help)");
    println!("       repro bench [...]   wall-clock benchmark trajectory (see repro bench --help)");
    println!();
    println!("  --seed N       seed for every stochastic experiment (default 1)");
    println!("  --jobs N       worker threads for host-sharded experiments (fleet_scale,");
    println!("                 region_census); output is byte-identical for any N (default 1)");
    println!("  --out DIR      write each experiment as DIR/<id>.txt + DIR/<id>.json");
    println!("  --trace FILE   record a virtual-time telemetry trace of the run and");
    println!("                 write it as Chrome trace_event JSON (chrome://tracing)");
    println!("  --metrics      print the latency attribution and metrics registry");
    println!("  --faults PLAN  arm a fault plan for the whole run: a canned name");
    println!("                 (link-flap, dma-timeout, backend-brownout, board-loss)");
    println!("                 or a JSON plan file; prints the fault stats at the end");
    println!("                 (and writes DIR/fault_stats.json with --out).");
    println!("                 Pairs naturally with the 'faults' experiment.");
    println!();
    println!("experiments: table1 table2 fig1 table3 fig7 fig8 fig9 fig10 fig11");
    println!("             fig12 fig13 fig14 fig15 fig16 cost nested iobond asic offload sgx");
    println!("             trading faults traffic_policies traffic_isolation fleet_scale");
    println!("             region_census");
}

fn print_sweep_help() {
    println!("repro sweep — run the (experiment x seed x fault-plan) cross product in parallel");
    println!();
    println!("USAGE: repro sweep [--jobs N] [--seeds LIST] [--plans LIST] [--shard I/N] [--trace] [--out DIR] [experiment ...]");
    println!();
    println!("  --jobs N       worker threads, at least 1 (output is byte-identical for any N)");
    println!("  --seeds LIST   comma-separated seeds (default 1,2,3,4)");
    println!("  --plans LIST   comma-separated plan names/files; 'clean' = no faults,");
    println!("                 'all' = clean + every canned plan (the default)");
    println!("  --shard I/N    run only the cells whose canonical index is congruent to I");
    println!("                 mod N (0 <= I < N); requires --out, where a shard.json");
    println!("                 manifest is written for `repro merge`. Run every shard of");
    println!("                 the same spec (anywhere), then merge the directories.");
    println!("  --trace        record a chrome trace per cell (requires --out)");
    println!("  --out DIR      write DIR/<exp>-s<seed>-<plan>.txt (+ .trace.json with --trace)");
    println!();
    println!("Cells print in deterministic (experiment, seed, plan) order regardless of --jobs.");
}

fn print_merge_help() {
    println!("repro merge — reassemble a sharded sweep, byte-identical to the serial run");
    println!();
    println!("USAGE: repro merge [--out DIR] SHARD_DIR...");
    println!();
    println!("  --out DIR      also copy every cell's files into DIR (the combined");
    println!("                 directory a whole-matrix `sweep --out` would have written)");
    println!();
    println!("Validates the shard.json manifests first: every shard must come from the");
    println!("same spec (hash + field check), no cell may appear twice, and the shards");
    println!("together must cover the whole matrix. The concatenated cell reports are");
    println!("printed to stdout in canonical order — byte-identical to `repro sweep");
    println!("--jobs 1` stdout for the same spec.");
}

fn print_bench_help() {
    println!("repro bench — time each experiment and track the benchmark trajectory");
    println!();
    println!("USAGE: repro bench [--seed N] [--repeat R] [--out FILE] [--check FILE] [--compare-out FILE] [--tolerance F] [experiment ...]");
    println!();
    println!("  --seed N        seed for every experiment (default 1)");
    println!(
        "  --repeat R      untraced timing runs per experiment; the minimum is kept (default 3)"
    );
    println!("  --out FILE      write the report as JSON (e.g. BENCH_results.json)");
    println!("  --check FILE    compare against a baseline report; per-experiment wall times are");
    println!(
        "                  normalized by the total-time ratio first, so a uniformly faster or"
    );
    println!("                  slower machine does not trip the check; events/sec and the");
    println!("                  deterministic allocs/event count are gated the same way");
    println!("  --compare-out FILE  write a before/after table vs the --check baseline");
    println!(
        "  --tolerance F   allowed per-experiment slowdown after normalization (default 0.25)"
    );
}
