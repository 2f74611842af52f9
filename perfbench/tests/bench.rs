//! The benchmark's own tests: seeded inputs, the result line, and a
//! tiny run of every workload through its correctness checks.

use bmhive_perfbench::report::Summary;
use bmhive_perfbench::streams::{
    payload_bytes, DiskStream, NetStream, DISK_SIZES, FRAME_MAX, FRAME_MIN, TENANTS, VOLUME_SECTORS,
};
use bmhive_perfbench::{open_loop, per_layer_names, run, RunConfig, Workload, END_TO_END};
use std::collections::BTreeMap;
use std::path::PathBuf;

// As in the benchmark binary: `allocs_per_op` and the `fleet_scale`
// memory gate (and so the recorded paper digest) need the counting
// allocator.
#[global_allocator]
static ALLOC: bmhive_perfbench::alloc::BenchAlloc = bmhive_perfbench::alloc::BenchAlloc::new();

fn config(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.05,
        trace,
        span_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "spans-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

#[test]
fn net_stream_is_deterministic_in_the_seed() {
    let a: Vec<_> = NetStream::new(5).take(2_000).collect();
    assert_eq!(a, NetStream::new(5).take(2_000).collect::<Vec<_>>());
    assert_ne!(a, NetStream::new(6).take(2_000).collect::<Vec<_>>());
    for op in &a {
        assert_ne!(op.from, op.to, "a tenant never sends to itself");
        assert!(op.from < TENANTS && op.to < TENANTS);
        assert!((FRAME_MIN..=FRAME_MAX).contains(&op.len));
    }
}

#[test]
fn disk_stream_is_deterministic_in_the_seed() {
    let a: Vec<_> = DiskStream::new(5).take(3_000).collect();
    assert_eq!(a, DiskStream::new(5).take(3_000).collect::<Vec<_>>());
    assert_ne!(a, DiskStream::new(6).take(3_000).collect::<Vec<_>>());
    assert_eq!(a.iter().filter(|op| op.write).count(), 1_000);
    for op in &a {
        assert!(op.guest < TENANTS);
        assert!(DISK_SIZES.contains(&op.len));
        assert_eq!(op.sector % 8, 0);
        assert!(op.sector + op.len / 512 <= VOLUME_SECTORS);
    }
    assert_eq!(payload_bytes(5, 64), payload_bytes(5, 64));
    assert_ne!(payload_bytes(5, 64), payload_bytes(6, 64));
}

#[test]
fn open_loop_grid_covers_loads_modes_pools_and_bursts() {
    let grid = open_loop::grid(open_loop::REQUESTS);
    assert_eq!(grid.len(), 2 * (3 * 5 + 2));
    let labels: std::collections::BTreeSet<String> = grid.iter().map(|c| c.mode.label()).collect();
    assert_eq!(labels.len(), 5);
    assert!(grid.iter().any(|c| c.guests == 8) && grid.iter().any(|c| c.guests == 32));
}

#[test]
fn summary_parses_back() {
    let out = run(&config(Workload::OpenLoop, 3, false));
    let summary = out.summary();
    let back = Summary::from_json(&summary.to_json()).expect("parses");
    assert_eq!(back.correct, summary.correct);
    assert_eq!(back.attempted, summary.attempted);
    assert_eq!(back.failed, summary.failed);
    let by_name = |s: &Summary| -> BTreeMap<String, (f64, String)> {
        s.metrics
            .iter()
            .map(|m| (m.name.clone(), (m.value, m.unit.clone())))
            .collect()
    };
    assert_eq!(by_name(&back), by_name(&summary));
}

fn assert_passes(workload: Workload, seed: u64, trace: bool) {
    let cfg = config(workload, seed, trace);
    let out = run(&cfg);
    assert!(
        out.problems.is_empty(),
        "{}: {:?}",
        workload.name(),
        out.problems
    );
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    let want: Vec<String> = if trace {
        per_layer_names().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    assert_eq!(names, want);
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    if trace {
        let spans = cfg
            .span_dir
            .join(format!("spans-{}.jsonl", workload.name()));
        assert!(std::fs::metadata(spans).expect("span file written").len() > 0);
    } else {
        assert!(out.metrics.iter().all(|m| m.value > 0.0));
    }
}

#[test]
fn tenant_net_smoke_passes_its_checks() {
    assert_passes(Workload::TenantNet, 2, false);
    assert_passes(Workload::TenantNet, 2, true);
}

#[test]
fn tenant_disk_smoke_passes_its_checks() {
    assert_passes(Workload::TenantDisk, 2, false);
    assert_passes(Workload::TenantDisk, 2, true);
}

#[test]
fn open_loop_smoke_passes_its_checks() {
    assert_passes(Workload::OpenLoop, 2, false);
    assert_passes(Workload::OpenLoop, 2, true);
}

#[test]
fn paper_regen_smoke_matches_the_recorded_digest() {
    assert_passes(Workload::PaperRegen, 1, false);
    assert_passes(Workload::PaperRegen, 1, true);
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(per_layer_names())
        .map(|(n, u)| format!("\"name\": \"{n}\",\n      \"unit\": \"{u}\""));
    for entry in names {
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + per_layer_names().len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
