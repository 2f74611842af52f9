//! `open_loop`: `bmhive_traffic::run` over a fixed grid of cells, one
//! operation per offered request.
//!
//! The grid covers load ρ ∈ {0.25, 0.55, 0.85} × the five dispatch
//! modes × pools of 8 and 32 guests under Poisson arrivals, plus MMPP
//! burst cells. Arrivals are open-loop in simulated time; the host
//! runs each cell to completion, so the generator cannot fall behind.
//! The timer wheel, `BatchRunner`, dispatch, `forward_batch` and
//! `Histogram` do the work; IO-Bond is idle.

use crate::report::median;
use crate::spans::Tracer;
use crate::{
    end_to_end, note_explained, repeat_setup, timed_phase, write_spans, Layers, Outcome, RunConfig,
};
use bmhive_sim::SimDuration;
use bmhive_telemetry as telemetry;
use bmhive_traffic::{ArrivalModel, DispatchMode, Policy, RunReport, TrafficConfig};
use bmhive_workloads::openloop::ServiceTime;
use std::time::{Duration, Instant};

/// Requests offered per cell.
pub const REQUESTS: u64 = 2_000;
/// Share of `--seconds` the traced run spends on untraced passes.
const TRACE_SHARE: f64 = 0.5;

/// The fixed grid, for `requests` requests per cell.
pub fn grid(requests: u64) -> Vec<TrafficConfig> {
    let service = ServiceTime::web_tier();
    let modes = [
        DispatchMode::Single(Policy::RoundRobin),
        DispatchMode::Single(Policy::LeastLoaded),
        DispatchMode::Single(Policy::PowerOfTwo),
        DispatchMode::Clone,
        DispatchMode::Hedge {
            policy: Policy::PowerOfTwo,
            delay: service.p95(),
        },
    ];
    let cell = |guests: usize, arrivals, mode| TrafficConfig {
        guests,
        pmd_cores: 2,
        service,
        arrivals,
        requests,
        net_hop: SimDuration::from_micros(2),
        mode,
        outage: None,
    };
    let rate = |guests: usize, rho: f64| rho * guests as f64 / service.mean().as_secs_f64();
    let mut cells = Vec::new();
    for guests in [8, 32] {
        for rho in [0.25, 0.55, 0.85] {
            for mode in modes {
                let arrivals = ArrivalModel::Poisson {
                    rate_rps: rate(guests, rho),
                };
                cells.push(cell(guests, arrivals, mode));
            }
        }
        for mode in [modes[0], modes[2]] {
            let arrivals = ArrivalModel::Mmpp {
                on_rps: rate(guests, 0.85),
                off_rps: rate(guests, 0.25),
                mean_dwell: SimDuration::from_millis(2),
            };
            cells.push(cell(guests, arrivals, mode));
        }
    }
    cells
}

/// What must repeat exactly when a cell runs again with the same seed.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    offered: u64,
    completed: u64,
    dropped: u64,
    clones_sent: u64,
    cancelled: u64,
    mean_latency_bits: u64,
}

impl Fingerprint {
    fn of(r: &RunReport) -> Self {
        Fingerprint {
            offered: r.offered,
            completed: r.completed,
            dropped: r.dropped,
            clones_sent: r.clones_sent,
            cancelled: r.cancelled,
            mean_latency_bits: r.latency.mean().to_bits(),
        }
    }
}

/// Checks one cell's report: every offered request completed or was
/// dropped, and no copy was left in a vSwitch queue. Returns the
/// failed requests: the dropped ones, or all of them if a check fails.
fn check_cell(cfg: &TrafficConfig, r: &RunReport, problems: &mut Vec<String>) -> u64 {
    let label = &r.label;
    if r.offered != cfg.requests || r.completed + r.dropped != r.offered {
        problems.push(format!(
            "{label}: offered {} (configured {}), completed {} + dropped {}",
            r.offered, cfg.requests, r.completed, r.dropped
        ));
        return cfg.requests;
    }
    if r.residual_depth != 0 {
        problems.push(format!(
            "{label}: residual vSwitch depth {}",
            r.residual_depth
        ));
        return cfg.requests;
    }
    r.dropped
}

/// One pass over the grid. Each cell is checked and compared with
/// `reference` (when given); spans go to `tracer` (when given).
/// Returns (offered, failed, fingerprints, reports).
fn pass(
    cells: &[TrafficConfig],
    seed: u64,
    reference: Option<&[Fingerprint]>,
    mut tracer: Option<(&mut Tracer, u64)>,
    problems: &mut Vec<String>,
) -> (u64, u64, Vec<Fingerprint>, Vec<RunReport>) {
    let (mut offered, mut failed) = (0, 0);
    let mut prints = Vec::with_capacity(cells.len());
    let mut reports = Vec::with_capacity(cells.len());
    for (i, cfg) in cells.iter().enumerate() {
        let report = match tracer.as_mut() {
            Some((t, pass_no)) => {
                let op = *pass_no * cells.len() as u64 + i as u64;
                t.time(op, None, "traffic.run", || bmhive_traffic::run(cfg, seed))
            }
            None => bmhive_traffic::run(cfg, seed),
        };
        offered += cfg.requests;
        let mut bad = check_cell(cfg, &report, problems);
        let print = Fingerprint::of(&report);
        if reference.is_some_and(|r| r[i] != print) {
            problems.push(format!(
                "cell {i} ({}) differs from its first run",
                report.label
            ));
            bad = cfg.requests;
        }
        failed += bad;
        prints.push(print);
        reports.push(report);
    }
    (offered, failed, prints, reports)
}

/// Runs `open_loop`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let cells = grid(REQUESTS);
    let mut problems = Vec::new();
    // Set-up: the reference pass every later pass must reproduce.
    let (mut setup, (_, _, reference, _)) =
        repeat_setup(|| pass(&cells, cfg.seed, None, None, &mut problems));

    if !cfg.trace {
        let mut timed = timed_phase(cfg.seconds, || {
            let (ops, failed, _, _) = pass(&cells, cfg.seed, Some(&reference), None, &mut problems);
            (ops, failed)
        });
        end_to_end(&mut out, &mut setup, &mut timed);
    } else {
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let mut passes = 0u64;
        let mut pass_times = Vec::new();
        let timed = timed_phase(cfg.seconds * TRACE_SHARE, || {
            let t = Instant::now();
            let (ops, failed, _, _) = pass(
                &cells,
                cfg.seed,
                Some(&reference),
                Some((&mut tracer, passes)),
                &mut problems,
            );
            pass_times.push(t.elapsed().as_secs_f64());
            passes += 1;
            (ops, failed)
        });
        let untraced = Duration::from_secs_f64(median(&mut pass_times));
        layers.set(
            "traffic.run.ns_per_request",
            untraced.as_nanos() as f64 / (cells.len() as u64 * REQUESTS) as f64,
        );

        telemetry::set_enabled(true);
        telemetry::reset();
        let t = Instant::now();
        let (ops, failed, _, reports) =
            pass(&cells, cfg.seed, Some(&reference), None, &mut problems);
        let traced = t.elapsed();
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        out.attempted += timed.ops + ops;
        out.failed += timed.failed + failed;

        let clones: u64 = reports.iter().map(|r| r.clones_sent).sum();
        let wins: u64 = reports.iter().map(|r| r.hedge_wins).sum();
        layers.set(
            "traffic.clone_win_ratio",
            wins as f64 / clones.max(1) as f64,
        );
        layers.set(
            "telemetry.trace_overhead",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        );
        layers.add_kernels();
        layers.add_registry(&snap.registry);
        let terms = layers.explain(&snap.registry, untraced);
        note_explained(&mut out, &layers, &terms, untraced);
        out.notes.push(format!(
            "traced: {passes} untraced grid passes of {} cells, median {:.4} s; telemetry pass {:.4} s",
            cells.len(),
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
