//! Integration coverage for the open-loop traffic front-end.
//!
//! Two contracts are pinned here: the `traffic_policies` experiment is
//! byte-identical under a parallel sweep (the new crate introduces no
//! hidden global state), and both traffic experiments pass their own
//! printed gates — the cloning closed-form check and the
//! neighbour-isolation / hedge-tail checks.

use bmhive_bench::sweep::{render_cell, run_sweep, SweepSpec};
use bmhive_traffic::{run, ArrivalModel, DispatchMode, Policy, TrafficConfig};
use bmhive_workloads::openloop::ServiceTime;

fn traffic_matrix(jobs: usize) -> SweepSpec {
    SweepSpec {
        experiments: vec!["traffic_policies".into()],
        seeds: vec![1, 2],
        plans: vec![None, Some("board-loss".into())],
        trace: true,
        jobs,
    }
}

#[test]
fn traffic_policies_sweep_is_byte_identical_across_jobs() {
    let serial = run_sweep(&traffic_matrix(1)).expect("serial sweep");
    let parallel = run_sweep(&traffic_matrix(4)).expect("parallel sweep");
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 2 * 2);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.cell, p.cell, "cell order must not depend on --jobs");
        let label = s.cell.label();
        assert_eq!(s.report, p.report, "{label}: report differs");
        assert_eq!(s.fault_stats, p.fault_stats, "{label}: fault stats differ");
        assert_eq!(s.trace_json, p.trace_json, "{label}: chrome trace differs");
        assert_eq!(render_cell(s), render_cell(p));
    }
}

#[test]
fn traffic_experiments_pass_their_printed_gates() {
    for name in ["traffic_policies", "traffic_isolation"] {
        let report = bmhive_bench::run_experiment(name, 1).expect("known id");
        assert!(
            report.contains("-> PASS"),
            "{name}: no passing gate rendered:\n{report}"
        );
        assert!(
            !report.contains("-> FAIL"),
            "{name}: a gate failed:\n{report}"
        );
    }
}

#[test]
fn traffic_engine_is_reachable_without_the_bench_harness() {
    // A direct engine run through the public API: small, hedged, and
    // fully drained — the books must balance without bench glue.
    let cfg = TrafficConfig {
        guests: 4,
        pmd_cores: 2,
        service: ServiceTime::web_tier(),
        arrivals: ArrivalModel::Poisson { rate_rps: 8_000.0 },
        requests: 500,
        net_hop: bmhive_sim::SimDuration::from_micros(2),
        mode: DispatchMode::Hedge {
            policy: Policy::PowerOfTwo,
            delay: ServiceTime::web_tier().p95(),
        },
        outage: None,
    };
    let report = run(&cfg, 9);
    assert_eq!(report.offered, 500);
    assert_eq!(report.completed + report.dropped, 500);
    assert_eq!(report.residual_depth, 0, "unbalanced vswitch completions");
    assert_eq!(report.cancelled, report.clones_sent);
}
