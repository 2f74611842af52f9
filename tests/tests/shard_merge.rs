//! The sharding contract: any `N`-way split of a sweep partitions the
//! canonical cell order disjointly and completely, and merging the
//! shard directories reassembles the serial run byte for byte.
//!
//! The matrix here is deliberately small (debug builds are slow); CI
//! additionally runs a 3-way shard of the *full* matrix through the
//! release `repro` binary and `cmp`s the merge against the serial run.

use bmhive_bench::merge::{self, MergeError, ShardManifest};
use bmhive_bench::sweep::{render_cell, run_sweep_shard, Shard, SweepSpec};
use bmhive_faults::json::{self, Json};
use bmhive_sim::prop;
use bmhive_telemetry::export::json_escape;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Two cheap experiments x two seeds x (clean + one plan), traced —
/// 8 cells, enough to make every shard of a 5-way split non-trivial.
fn reduced_matrix() -> SweepSpec {
    SweepSpec {
        experiments: vec!["table1".into(), "table2".into()],
        seeds: vec![1, 2],
        plans: vec![None, Some("link-flap".into())],
        trace: true,
        jobs: 2,
    }
}

/// A scratch directory unique to this test process and `label`.
fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bmhive-shard-merge-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shard_counts_partition_the_full_matrix_disjointly_and_completely() {
    let spec = SweepSpec::full_matrix();
    let total = spec.cells().expect("full matrix").len();
    for n in [1usize, 2, 3, 5] {
        let mut seen = BTreeSet::new();
        for i in 0..n {
            let shard = Shard::new(i, n).expect("valid shard");
            for (index, _) in spec.shard_cells(shard).expect("shard cells") {
                assert!(
                    seen.insert(index),
                    "cell {index} owned by two shards of a {n}-way split"
                );
            }
        }
        assert_eq!(
            seen.len(),
            total,
            "a {n}-way split must cover all {total} cells"
        );
        assert_eq!(seen.last(), Some(&(total - 1)));
    }
}

#[test]
fn merged_shards_are_byte_identical_to_the_serial_run() {
    let spec = reduced_matrix();
    let mut serial_spec = spec.clone();
    serial_spec.jobs = 1;
    let serial = run_sweep_shard(&serial_spec, Shard::WHOLE).expect("serial sweep");
    let serial_stdout: String = serial.iter().map(|(_, out)| render_cell(out)).collect();

    const N: usize = 3;
    let root = scratch("roundtrip");
    let mut dirs = Vec::new();
    for i in 0..N {
        let shard = Shard::new(i, N).expect("valid shard");
        let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
        let dir = root.join(format!("shard-{i}"));
        merge::write_shard_dir(&dir, &spec, shard, &outputs).expect("write shard dir");
        dirs.push(dir);
    }

    let plan = merge::plan_merge(&dirs).expect("valid merge");
    assert_eq!(plan.cells.len(), serial.len());
    assert_eq!(
        plan.concat_reports().expect("readable cells"),
        serial_stdout,
        "merged stdout must equal the serial sweep's stdout"
    );

    // The combined directory must hold exactly the serial run's files
    // (reports + traces, no manifest), byte for byte.
    let combined = root.join("combined");
    plan.write_combined(&combined).expect("write combined");
    let mut names: Vec<String> = std::fs::read_dir(&combined)
        .expect("combined dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    let mut expected: Vec<String> = serial
        .iter()
        .flat_map(|(_, out)| {
            let stem = out.cell.file_stem();
            [format!("{stem}.txt"), format!("{stem}.trace.json")]
        })
        .collect();
    expected.sort();
    assert_eq!(names, expected, "combined dir must mirror a serial --out");
    for (_, out) in &serial {
        let stem = out.cell.file_stem();
        let txt = std::fs::read_to_string(combined.join(format!("{stem}.txt"))).expect("txt");
        assert_eq!(txt, render_cell(out), "{stem}.txt differs");
        let trace =
            std::fs::read_to_string(combined.join(format!("{stem}.trace.json"))).expect("trace");
        assert_eq!(Some(trace), out.trace_json, "{stem}.trace.json differs");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn overlapping_shards_are_rejected() {
    let spec = reduced_matrix();
    let root = scratch("overlap");
    let shard = Shard::new(0, 2).expect("valid shard");
    let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
    let a = root.join("a");
    let b = root.join("b");
    merge::write_shard_dir(&a, &spec, shard, &outputs).expect("write a");
    merge::write_shard_dir(&b, &spec, shard, &outputs).expect("write b");
    match merge::plan_merge(&[a, b]) {
        Err(MergeError::Overlap { index: 0, .. }) => {}
        other => panic!("expected Overlap on cell 0, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_shards_are_rejected() {
    let spec = reduced_matrix();
    let root = scratch("missing");
    let shard = Shard::new(1, 3).expect("valid shard");
    let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
    let dir = root.join("only");
    merge::write_shard_dir(&dir, &spec, shard, &outputs).expect("write shard");
    match merge::plan_merge(&[dir]) {
        Err(MergeError::Missing { count, first: 0 }) => {
            // A 1-of-3 shard of 8 cells owns indices {1, 4, 7}.
            assert_eq!(count, 5);
        }
        other => panic!("expected Missing starting at cell 0, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shards_of_different_specs_do_not_merge() {
    let spec = reduced_matrix();
    let mut other_spec = spec.clone();
    other_spec.seeds = vec![7, 8];
    let root = scratch("mismatch");
    let shard0 = Shard::new(0, 2).expect("valid shard");
    let shard1 = Shard::new(1, 2).expect("valid shard");
    let a = root.join("a");
    let b = root.join("b");
    merge::write_shard_dir(
        &a,
        &spec,
        shard0,
        &run_sweep_shard(&spec, shard0).expect("sweep"),
    )
    .expect("write a");
    merge::write_shard_dir(
        &b,
        &other_spec,
        shard1,
        &run_sweep_shard(&other_spec, shard1).expect("sweep"),
    )
    .expect("write b");
    match merge::plan_merge(&[a, b]) {
        Err(MergeError::SpecMismatch(msg)) => {
            assert!(msg.contains("spec_hash"), "unexpected message: {msg}");
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn manifests_survive_a_disk_round_trip() {
    let spec = reduced_matrix();
    let root = scratch("manifest");
    let shard = Shard::new(2, 3).expect("valid shard");
    let outputs = run_sweep_shard(&spec, shard).expect("shard sweep");
    merge::write_shard_dir(&root, &spec, shard, &outputs).expect("write shard");
    let doc = std::fs::read_to_string(root.join(merge::MANIFEST_FILE)).expect("manifest on disk");
    let parsed = ShardManifest::from_json(&doc).expect("parseable manifest");
    assert_eq!(
        parsed,
        ShardManifest::for_shard(&spec, shard).expect("manifest")
    );
    assert_eq!(parsed.spec_hash, merge::spec_hash(&spec));
    let _ = std::fs::remove_dir_all(&root);
}

/// `j` as compact JSON.
fn render_json(j: &Json) -> String {
    let join = |items: Vec<String>| items.join(",");
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{}\"", json_escape(s)),
        Json::Arr(v) => format!("[{}]", join(v.iter().map(render_json).collect())),
        Json::Obj(m) => format!(
            "{{{}}}",
            join(
                m.iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), render_json(v)))
                    .collect()
            )
        ),
    }
}

/// The path (object keys and array indices) of every value under `j`.
fn member_paths(j: &Json, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    let children: Vec<(String, &Json)> = match j {
        Json::Obj(m) => m.iter().map(|(k, v)| (k.clone(), v)).collect(),
        Json::Arr(v) => v
            .iter()
            .enumerate()
            .map(|(i, v)| (i.to_string(), v))
            .collect(),
        _ => return,
    };
    for (step, child) in children {
        prefix.push(step);
        out.push(prefix.clone());
        member_paths(child, prefix, out);
        prefix.pop();
    }
}

/// The value at `path` under `j`.
fn member<'a>(j: &'a mut Json, path: &[String]) -> &'a mut Json {
    path.iter().fold(j, |j, step| match j {
        Json::Obj(m) => m.get_mut(step).expect("path from member_paths"),
        Json::Arr(v) => &mut v[step.parse::<usize>().expect("array index")],
        _ => unreachable!("member_paths only descends into containers"),
    })
}

#[test]
fn fuzzed_manifests_are_rejected_without_panicking() {
    const NUMBERS: [f64; 7] = [0.0, 1.0, 4_294_967_296.0, u64::MAX as f64, 1e20, -1.0, 1.5];
    const N: usize = 3;
    let spec = reduced_matrix();
    let root = scratch("fuzz");
    // Manifests only: planning a merge reads no cell file.
    let docs: Vec<String> = (0..N)
        .map(|i| {
            let shard = Shard::new(i, N).expect("valid shard");
            ShardManifest::for_shard(&spec, shard)
                .expect("manifest")
                .to_json()
        })
        .collect();
    let dirs: Vec<PathBuf> = (0..=N).map(|i| root.join(format!("dir-{i}"))).collect();
    for (dir, doc) in dirs.iter().zip(&docs) {
        std::fs::create_dir_all(dir).expect("shard dir");
        std::fs::write(dir.join(merge::MANIFEST_FILE), doc).expect("manifest");
    }
    std::fs::create_dir_all(&dirs[N]).expect("fuzz dir");
    merge::plan_merge(&dirs[..N]).expect("the unfuzzed shards merge");

    prop::check(
        "fuzzed_manifests_are_rejected_without_panicking",
        512,
        |rng| {
            let victim = rng.below(N as u64) as usize;
            let doc = &docs[victim];
            let tree = json::parse(doc).expect("valid manifest");
            let mut paths = Vec::new();
            member_paths(&tree, &mut Vec::new(), &mut paths);
            let mut fuzzed = tree.clone();
            let bad = match rng.below(3) {
                0 => {
                    let numeric: Vec<&Vec<String>> = paths
                        .iter()
                        .filter(|p| matches!(member(&mut fuzzed, p), Json::Num(_)))
                        .collect();
                    let path = rng.choose(&numeric);
                    *member(&mut fuzzed, path) = Json::Num(*rng.choose(&NUMBERS));
                    if fuzzed == tree {
                        return; // the value was rewritten to itself
                    }
                    render_json(&fuzzed)
                }
                1 => {
                    let (last, parent) = rng.choose(&paths).split_last().expect("non-empty path");
                    match member(&mut fuzzed, parent) {
                        Json::Obj(m) => drop(m.remove(last)),
                        Json::Arr(v) => drop(v.remove(last.parse::<usize>().expect("index"))),
                        _ => unreachable!("a path's parent is a container"),
                    }
                    render_json(&fuzzed)
                }
                // Cut before the closing brace, so the document never parses.
                _ => doc[..rng.below(doc.trim_end().len() as u64) as usize].to_string(),
            };
            std::fs::write(dirs[N].join(merge::MANIFEST_FILE), &bad).expect("fuzzed manifest");
            let mut set = dirs[..N].to_vec();
            set[victim] = dirs[N].clone();
            assert!(
                merge::plan_merge(&set).is_err(),
                "shard {victim}'s manifest was accepted after fuzzing:\n{bad}"
            );
        },
    );
    let _ = std::fs::remove_dir_all(&root);
}
