//! The fault matrix: every canned plan, end to end through the
//! `faults` bench experiment — injection fires, recovery completes,
//! and the run is deterministic in its seed. CI runs the same matrix
//! against the `repro` binary and byte-compares traced runs; this test
//! keeps the property enforced by `cargo test` alone.

use bmhive_faults as faults;

// The injector is thread-local and each test runs on its own thread,
// so arming in one test can never leak into another.

/// The whole experiment under one plan: rendered text (includes the
/// fault-stats block) plus the final stats.
fn run_plan(name: &str, seed: u64) -> (String, faults::FaultStats) {
    let plan = faults::canned(name).expect("canned plan");
    assert!(!plan.is_empty());
    faults::arm(plan, seed);
    let text = bmhive_bench::run_experiment("faults", seed).expect("faults experiment");
    let stats = faults::disarm().expect("was armed");
    (text, stats)
}

#[test]
fn every_canned_plan_injects_and_recovers() {
    for name in faults::CANNED_PLAN_NAMES {
        let (text, stats) = run_plan(name, 42);
        assert!(
            stats.injected_total() > 0,
            "{name}: plan armed but nothing injected"
        );
        assert!(
            stats.all_recovered(),
            "{name}: unrecovered faults\n{}",
            stats.to_text()
        );
        assert!(
            text.contains("recovered: yes"),
            "{name}: report must state recovery"
        );
        assert!(!text.contains("failed ops"), "{name}: ops failed:\n{text}");
    }
}

#[test]
fn every_canned_plan_is_deterministic_in_seed() {
    for name in faults::CANNED_PLAN_NAMES {
        let (a, sa) = run_plan(name, 7);
        let (b, sb) = run_plan(name, 7);
        assert_eq!(a, b, "{name}: rendered output diverged across runs");
        assert_eq!(
            sa.to_text(),
            sb.to_text(),
            "{name}: fault stats diverged across runs"
        );
    }
}

#[test]
fn plan_files_match_the_canned_plans() {
    // The checked-in plans/*.json are what `--faults` consumes from
    // disk; they must stay in sync with the compiled canned plans
    // (regenerate with `cargo run -p bmhive-faults --example dump_plans`).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../plans");
    for name in faults::CANNED_PLAN_NAMES {
        let path = dir.join(format!("{name}.json"));
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let parsed = faults::FaultPlan::from_json(&doc).expect("plan file parses");
        let canned = faults::canned(name).unwrap();
        assert_eq!(parsed.name, canned.name, "{name}: name drifted");
        assert_eq!(
            parsed.events(),
            canned.events(),
            "{name}: plan file drifted from the canned plan"
        );
        // And the serialisation round-trips byte-for-byte.
        assert_eq!(doc, canned.to_json(), "{name}: re-serialisation differs");
    }
}

#[test]
fn clean_run_reports_disarmed_engine() {
    // No plan armed: the experiment renders the clean baseline and
    // says so (the injector fast path must stay inert).
    assert!(!faults::is_armed());
    let text = bmhive_bench::run_experiment("faults", 42).expect("faults experiment");
    assert!(text.contains("none (clean baseline)"));
    assert!(text.contains("fault engine: disarmed"));
}

#[test]
fn escalating_plan_renders_failed_ops_instead_of_panicking() {
    // A DMA timeout that outlasts every retry budget: each op that
    // touches DMA escalates past recovery for the whole run.
    let doc = r#"{"name":"x","events":[{"at_us":0,"site":"dma","kind":"dma-timeout","duration_us":100000000}]}"#;
    let path = std::env::temp_dir().join(format!("escalating-plan-{}.json", std::process::id()));
    std::fs::write(&path, doc).expect("write plan file");
    let plan = bmhive_bench::sweep::resolve_plan(path.to_str().expect("utf-8 path"));
    std::fs::remove_file(&path).ok();
    faults::arm(plan.expect("plan file resolves"), 1);
    let text = bmhive_bench::run_experiment("faults", 1).expect("faults experiment");
    let stats = faults::disarm().expect("was armed");
    assert!(text.contains("failed ops "), "no failed-op count:\n{text}");
    assert!(
        !stats.all_recovered(),
        "an escalating plan must report an unrecovered site:\n{}",
        stats.to_text()
    );
    assert!(text.contains("recovered: NO"), "{text}");
}
