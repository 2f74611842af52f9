//! `paper_regen`: every experiment in `EXPERIMENT_IDS` through
//! `run_experiment`, with `run_hosts` fanned out over every core. One
//! operation is one full pass, so `ops_per_s` is the inverse of the
//! time it takes to regenerate the paper.
//!
//! Each pass is checked: no experiment panics or renders a `-> FAIL`
//! gate, every pass renders the same bytes as the set-up pass, and at
//! [`REFERENCE_SEED`] the output digest equals [`REFERENCE_DIGEST`].

use crate::report::median;
use crate::spans::Tracer;
use crate::{
    end_to_end, note_explained, repeat_setup, timed_phase, write_spans, Layers, Outcome, RunConfig,
};
use bmhive_bench::{par, run_experiment, EXPERIMENT_IDS};
use bmhive_cloud::fleet::{ExitRateStream, RegionHostDay};
use bmhive_telemetry as telemetry;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The seed whose output digest the benchmark records.
pub const REFERENCE_SEED: u64 = 1;
/// FNV-1a digest over every experiment's id and output at
/// [`REFERENCE_SEED`].
pub const REFERENCE_DIGEST: u64 = 0xc854_6a6a_b496_3e6b;

/// Share of `--seconds` the traced run spends on untraced passes.
const TRACE_SHARE: f64 = 0.5;
/// Hosts per `run_hosts` pass in the speed-up measurement.
const PAR_HOSTS: usize = 96;
/// Serial and wide passes each in the speed-up measurement.
const PAR_PASSES: usize = 5;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One pass's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pass {
    /// Digest of every id and output, in `EXPERIMENT_IDS` order.
    digest: u64,
    /// Experiments that panicked, were unknown or failed a gate.
    failures: Vec<&'static str>,
}

/// Renders every experiment once, timing each into `tracer` when
/// given (pass `op`).
fn pass(seed: u64, mut tracer: Option<(&mut Tracer, u64)>) -> Pass {
    let mut digest = FNV_BASIS;
    let mut failures = Vec::new();
    let root = tracer
        .as_mut()
        .map(|(t, op)| t.begin(*op, None, "paper.pass"));
    for id in EXPERIMENT_IDS {
        let render = || panic::catch_unwind(AssertUnwindSafe(|| run_experiment(id, seed)));
        let text = match tracer.as_mut() {
            Some((t, op)) => t.time(*op, root, id, render),
            None => render(),
        };
        match text {
            Ok(Some(text)) if !text.contains("-> FAIL") => {
                digest = fnv1a(digest, id.as_bytes());
                digest = fnv1a(digest, text.as_bytes());
            }
            _ => failures.push(id),
        }
    }
    if let (Some((t, _)), Some(root)) = (tracer, root) {
        t.end(root);
    }
    Pass { digest, failures }
}

/// Times interleaved serial and all-core `run_hosts` passes over the
/// same region hosts (equal counts, alternating which runs first) and
/// returns (median serial / median wide, median serial ns per host).
fn par_speedup(jobs: usize, tracer: &mut Tracer) -> (f64, f64) {
    const GUESTS: u64 = 480;
    const THRESHOLDS: [f64; 3] = [10_000.0, 50_000.0, 100_000.0];
    let mut run = |width: usize, op: u64| {
        par::set_jobs(width);
        let name = if width == 1 {
            "bench.par.serial"
        } else {
            "bench.par.wide"
        };
        let span = tracer.begin(op, None, name);
        let t = Instant::now();
        let days = par::run_hosts(PAR_HOSTS, 1, |host| {
            RegionHostDay::run(
                GUESTS,
                &THRESHOLDS,
                1,
                par::host_stream(ExitRateStream::CENSUS_STREAM, host),
                par::host_stream(0x0b5, host),
            )
        });
        black_box(days);
        let secs = t.elapsed().as_secs_f64();
        tracer.end(span);
        secs
    };
    let (mut serial, mut wide) = (Vec::new(), Vec::new());
    for i in 0..PAR_PASSES as u64 {
        if i % 2 == 0 {
            serial.push(run(1, i));
            wide.push(run(jobs, i));
        } else {
            wide.push(run(jobs, i));
            serial.push(run(1, i));
        }
    }
    par::set_jobs(jobs);
    let serial = median(&mut serial);
    (serial / median(&mut wide), serial * 1e9 / PAR_HOSTS as f64)
}

fn check(p: &Pass, reference: u64, out: &mut Vec<String>) -> bool {
    let mut ok = true;
    if !p.failures.is_empty() {
        out.push(format!("experiments failed: {}", p.failures.join(", ")));
        ok = false;
    }
    if p.digest != reference {
        out.push(format!(
            "pass digest {:016x} differs from the first pass's {reference:016x}",
            p.digest
        ));
        ok = false;
    }
    ok
}

/// Runs `paper_regen`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    par::set_jobs(jobs);
    let mut problems = Vec::new();
    let (mut setup, first) = repeat_setup(|| pass(cfg.seed, None));
    let reference = first.digest;
    check(&first, reference, &mut problems);
    if cfg.seed == REFERENCE_SEED && reference != REFERENCE_DIGEST {
        problems.push(format!(
            "seed {REFERENCE_SEED} digest {reference:016x}, recorded {REFERENCE_DIGEST:016x}"
        ));
    }
    out.notes.push(format!(
        "paper_regen: {} experiments, run_hosts jobs {jobs}, digest {reference:016x}",
        EXPERIMENT_IDS.len()
    ));

    if !cfg.trace {
        let mut timed = timed_phase(cfg.seconds, || {
            let ok = check(&pass(cfg.seed, None), reference, &mut problems);
            (1, u64::from(!ok))
        });
        end_to_end(&mut out, &mut setup, &mut timed);
    } else {
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let mut passes = 0u64;
        let mut pass_times = Vec::new();
        let timed = timed_phase(cfg.seconds * TRACE_SHARE, || {
            let t = Instant::now();
            let ok = check(
                &pass(cfg.seed, Some((&mut tracer, passes))),
                reference,
                &mut problems,
            );
            pass_times.push(t.elapsed().as_secs_f64());
            passes += 1;
            (1, u64::from(!ok))
        });
        let untraced = Duration::from_secs_f64(median(&mut pass_times));
        for id in EXPERIMENT_IDS {
            let ms = median(&mut tracer.durations(id)) / 1e6;
            layers.set(format!("bench.experiment.{id}.ms"), ms);
        }

        telemetry::set_enabled(true);
        telemetry::reset();
        let t = Instant::now();
        let traced_pass = pass(cfg.seed, None);
        let traced = t.elapsed();
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        let traced_ok = check(&traced_pass, reference, &mut problems);
        out.attempted += timed.ops + 1;
        out.failed += timed.failed + u64::from(!traced_ok);
        layers.set(
            "telemetry.trace_overhead",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        );

        let (speedup, host_ns) = par_speedup(jobs, &mut tracer);
        layers.set("bench.par.speedup", speedup);
        layers.set("bench.par.host.ns", host_ns);
        layers.add_kernels();
        layers.add_registry(&snap.registry);
        let terms = layers.explain(&snap.registry, untraced);
        note_explained(&mut out, &layers, &terms, untraced);
        out.notes.push(format!(
            "traced: {passes} untraced passes, median {:.4} s; telemetry pass {:.4} s; run_hosts speed-up {speedup:.3} at jobs {jobs}",
            untraced.as_secs_f64(),
            traced.as_secs_f64()
        ));
        write_spans(&mut out, cfg, &tracer);
        layers.finish(&mut out);
    }
    for p in problems {
        out.problem(p);
    }
    out
}
