//! The BM-Hive reproduction's benchmark.
//!
//! One command runs one named workload from a seed and prints every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), after checking that the simulated outputs are
//! correct. The benchmark reaches the program only through public
//! functions of its crates and times those calls from outside.
//!
//! Load shape: a closed loop with one client on the main thread, which
//! issues the next call when the previous one returns. `paper_regen`
//! adds `run_hosts` worker threads (one per core); `open_loop`'s
//! arrivals are open-loop in *simulated* time only, so the generator
//! can never fall behind in host time.
//!
//! Workloads (see `BENCHMARK.json` for the layers each should stress
//! and leave idle):
//!
//! * `tenant_net` — `guest_send` between co-resident tenants of a
//!   16-tenant server ([`tenant`]).
//! * `tenant_disk` — `guest_blk` cloud-disk reads and writes on the
//!   same server ([`tenant`]).
//! * `open_loop` — `bmhive_traffic::run` over a fixed grid
//!   ([`open_loop`]).
//! * `paper_regen` — every experiment of the paper ([`paper`]).

pub mod alloc;
pub mod calib;
pub mod kernels;
pub mod open_loop;
pub mod paper;
pub mod report;
pub mod spans;
pub mod streams;
pub mod tenant;

use bmhive_telemetry::Registry;
use report::{median, Metric, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("allocs_per_op", "count"),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Frames between co-resident tenants.
    TenantNet,
    /// Cloud-disk reads and writes.
    TenantDisk,
    /// The open-loop traffic grid.
    OpenLoop,
    /// A full regeneration of the paper's experiments.
    PaperRegen,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::TenantNet,
        Workload::TenantDisk,
        Workload::OpenLoop,
        Workload::PaperRegen,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantNet => "tenant_net",
            Workload::TenantDisk => "tenant_disk",
            Workload::OpenLoop => "open_loop",
            Workload::PaperRegen => "paper_regen",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced (per-layer) variant instead.
    pub trace: bool,
    /// Where the traced run writes its span file.
    pub span_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Of those, operations that failed: an `Err` return, a request the
    /// traffic engine dropped, an experiment that failed its check, or
    /// a frame that was not received exactly once.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The result line's content.
    pub fn summary(&self) -> Summary {
        Summary {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.metrics.clone(),
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_op_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::TenantNet => tenant::run_net(cfg),
        Workload::TenantDisk => tenant::run_disk(cfg),
        Workload::OpenLoop => open_loop::run(cfg),
        Workload::PaperRegen => paper::run(cfg),
    }
}

/// Runs `f` [`SETUPS`] times, returning each run's host seconds scaled
/// to the reference host (see [`calib`]) and the last run's value (the
/// one the timed phase uses).
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut cal = calib::Calibration::new();
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let scale = cal.scale();
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64() / scale);
    }
    (times, last.expect("SETUPS > 0"))
}

/// The timed phase, run as a sequence of chunks of about 50 ms (a paper
/// pass about 0.4 s).
#[derive(Debug, Default)]
pub struct Timed {
    /// Operations completed per second, one entry per chunk, scaled to
    /// the reference host by the calibration taken right before it.
    pub chunk_rates: Vec<f64>,
    /// The calibration's scale factor before each chunk.
    pub scales: Vec<f64>,
    /// Operations attempted.
    pub ops: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Host time spent in the chunks (the phase less its calibrations).
    pub work: Duration,
    /// Heap allocations in the phase, on every thread.
    pub allocs: u64,
}

/// Runs `chunk` until `seconds` have passed (at least once), measuring
/// the host's speed before each call. Each call returns the operations
/// it attempted and how many of them failed.
pub fn timed_phase(seconds: f64, mut chunk: impl FnMut() -> (u64, u64)) -> Timed {
    let mut timed = Timed::default();
    let mut cal = calib::Calibration::new();
    let allocs = alloc::count();
    let start = Instant::now();
    loop {
        let scale = cal.scale();
        let t = Instant::now();
        let (ops, failed) = chunk();
        let took = t.elapsed();
        timed
            .chunk_rates
            .push((ops - failed) as f64 / took.as_secs_f64() * scale);
        timed.scales.push(scale);
        timed.work += took;
        timed.ops += ops;
        timed.failed += failed;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    timed.allocs = alloc::count() - allocs;
    timed
}

/// The end-to-end metrics of an untraced run: the median scaled chunk
/// throughput, the median scaled set-up, peak memory and allocations
/// per operation.
pub fn end_to_end(out: &mut Outcome, setup_s: &mut [f64], timed: &mut Timed) {
    out.attempted += timed.ops;
    out.failed += timed.failed;
    let values = [
        median(&mut timed.chunk_rates),
        median(setup_s),
        alloc::peak_rss_mib().unwrap_or(0.0),
        timed.allocs as f64 / timed.ops.max(1) as f64,
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        out.metrics.push(Metric::new(name, value, unit));
    }
    let completed = (timed.ops - timed.failed) as f64;
    out.notes.push(format!(
        "timed phase: {} ops in {:.3} s of chunks ({} chunks, unscaled {:.1} ops/s, median calibration scale {:.3}), failed_op_share {} (share)",
        timed.ops,
        timed.work.as_secs_f64(),
        timed.chunk_rates.len(),
        completed / timed.work.as_secs_f64(),
        median(&mut timed.scales),
        timed.failed as f64 / timed.ops.max(1) as f64
    ));
}

/// Every per-layer metric a traced run prints, with units. A workload
/// that leaves a layer idle reports 0 for that layer's metrics.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 47] = [
        ("core.guest_send.ns_p50", "ns"),
        ("core.guest_send.ns_p99", "ns"),
        ("core.guest_blk_read.ns_p50", "ns"),
        ("core.guest_blk_read.ns_p99", "ns"),
        ("core.guest_blk_write.ns_p50", "ns"),
        ("core.guest_blk_write.ns_p99", "ns"),
        ("core.power_on.ns_p50", "ns"),
        ("core.self_share", "share"),
        ("hypervisor.net_send.ns_p50", "ns"),
        ("hypervisor.net_receive.ns_p50", "ns"),
        ("hypervisor.blk_request.ns_p50", "ns"),
        ("hypervisor.doorbells_suppressed", "count"),
        ("hypervisor.doorbell_suppression_ratio", "share"),
        ("iobond.chains_synced", "count"),
        ("iobond.bytes_to_shadow", "bytes"),
        ("iobond.staging_backpressure", "count"),
        ("iobond.service.ns_per_chain", "ns"),
        ("iobond.exchange.ns", "ns"),
        ("virtio.chains_published", "count"),
        ("virtio.chains_popped", "count"),
        ("virtio.used_completions", "count"),
        ("virtio.split_ring.ns_per_op", "ns"),
        ("mem.sg_copy.ns_per_kib", "ns"),
        ("cloud.vswitch.forward.ns_p50", "ns"),
        ("cloud.vswitch.forwarded", "count"),
        ("cloud.vswitch.shed", "count"),
        ("cloud.blockstore.ops", "count"),
        ("cloud.blockstore.bytes", "bytes"),
        ("cloud.limits.net_throttled", "count"),
        ("cloud.limits.io_throttled", "count"),
        ("cloud.fleet.census_guest.ns", "ns"),
        ("cloud.fleet.guests_censused", "count"),
        ("sim.event.ns_per_event", "ns"),
        ("sim.batch_events", "count"),
        ("sim.mean_batch_len", "count"),
        ("sim.histogram_record.ns", "ns"),
        ("sim.token_bucket.ns", "ns"),
        ("sim.rng_fill.ns_per_draw", "ns"),
        ("traffic.run.ns_per_request", "ns"),
        ("traffic.requests", "count"),
        ("traffic.dropped", "count"),
        ("traffic.hedge_fired", "count"),
        ("traffic.hedge_cancelled", "count"),
        ("traffic.clone_win_ratio", "share"),
        ("traffic.dispatch.ns", "ns"),
        ("bench.par.speedup", "ratio"),
        ("bench.par.host.ns", "ns"),
    ];
    let mut names: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    names.extend(
        bmhive_bench::EXPERIMENT_IDS
            .iter()
            .map(|id| (format!("bench.experiment.{id}.ms"), "ms")),
    );
    names.push(("telemetry.trace_overhead".into(), "ratio"));
    names.push(("explained_share".into(), "share"));
    names
}

/// Per-layer values gathered by a traced run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// One metric's value (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every kernel figure.
    pub fn add_kernels(&mut self) {
        for m in kernels::all() {
            self.set(m.name, m.value);
        }
    }

    /// Adds the per-layer counts the program's telemetry recorded.
    pub fn add_registry(&mut self, reg: &Registry) {
        let c = |n: &str| reg.counter(n) as f64;
        for (metric, counter) in [
            ("hypervisor.doorbells_suppressed", "bm.doorbells_suppressed"),
            ("iobond.chains_synced", "iobond.chains_synced"),
            ("iobond.bytes_to_shadow", "iobond.bytes_to_shadow"),
            ("iobond.staging_backpressure", "iobond.staging_backpressure"),
            ("virtio.chains_published", "virtio.chains_published"),
            ("virtio.chains_popped", "virtio.chains_popped"),
            ("virtio.used_completions", "virtio.used_completions"),
            ("cloud.vswitch.forwarded", "vswitch.forwarded"),
            ("cloud.vswitch.shed", "vswitch.shed"),
            ("cloud.blockstore.ops", "blockstore.ops"),
            ("cloud.blockstore.bytes", "blockstore.bytes"),
            ("cloud.limits.net_throttled", "limits.net_throttled"),
            ("cloud.limits.io_throttled", "limits.io_throttled"),
            ("cloud.fleet.guests_censused", "fleet.guests_censused"),
            ("sim.batch_events", "sim.batch_events"),
            ("traffic.requests", "traffic.requests"),
            ("traffic.dropped", "traffic.dropped"),
            ("traffic.hedge_fired", "traffic.hedge_fired"),
            ("traffic.hedge_cancelled", "traffic.hedge_cancelled"),
        ] {
            self.set(metric, c(counter));
        }
        let ticks = c("sim.batch_ticks");
        if ticks > 0.0 {
            self.set("sim.mean_batch_len", c("sim.batch_events") / ticks);
        }
        // Every guest net send and block request either kicks IO-Bond or
        // has its doorbell suppressed.
        let posts = c("bm.net_tx_packets") + c("bm.blk_ops");
        if posts > 0.0 {
            self.set(
                "hypervisor.doorbell_suppression_ratio",
                c("bm.doorbells_suppressed") / posts,
            );
        }
    }

    /// `explained_share`: the kernels' ns/op times the operation counts
    /// `reg` recorded, over the `untraced` time of the same operations.
    /// Returns the per-layer terms (ns) for printing.
    pub fn explain(&mut self, reg: &Registry, untraced: Duration) -> Vec<(&'static str, f64)> {
        let c = |n: &str| reg.counter(n) as f64;
        let terms = vec![
            (
                "iobond",
                self.get("iobond.service.ns_per_chain") * c("iobond.chains_synced")
                    + self.get("iobond.exchange.ns") * c("iobond.tx_rx_exchanges"),
            ),
            // Two scatter+gather rounds per byte synced: IO-Bond's copy
            // between memory domains, and the endpoints' own copy.
            (
                "mem",
                self.get("mem.sg_copy.ns_per_kib") * 2.0 * c("iobond.bytes_to_shadow") / 1024.0,
            ),
            (
                "cloud.vswitch",
                self.get("cloud.vswitch.forward.ns_p50") * c("vswitch.forwarded"),
            ),
            (
                "cloud.fleet",
                self.get("cloud.fleet.census_guest.ns") * c("fleet.guests_censused"),
            ),
            (
                "sim.token_bucket",
                self.get("sim.token_bucket.ns") * (c("bm.net_tx_packets") + c("bm.blk_ops")),
            ),
            (
                "sim.event",
                self.get("sim.event.ns_per_event") * c("sim.batch_events"),
            ),
            (
                "traffic",
                (self.get("traffic.dispatch.ns") + self.get("sim.histogram_record.ns"))
                    * c("traffic.requests"),
            ),
        ];
        let total: f64 = terms.iter().map(|(_, ns)| ns).sum();
        self.set(
            "explained_share",
            total / (untraced.as_nanos().max(1) as f64),
        );
        terms
    }

    /// Moves every per-layer metric into `out`, in canonical order.
    pub fn finish(self, out: &mut Outcome) {
        for (name, unit) in per_layer_names() {
            let value = self.get(&name);
            out.metrics.push(Metric::new(name, value, unit));
        }
    }
}

/// Adds a note with the explained share beside the timed phase it
/// explains, listing each layer's share.
pub fn note_explained(
    out: &mut Outcome,
    layers: &Layers,
    terms: &[(&str, f64)],
    untraced: Duration,
) {
    let ns = untraced.as_nanos().max(1) as f64;
    let parts: Vec<String> = terms
        .iter()
        .map(|(layer, t)| format!("{layer} {:.3}", t / ns))
        .collect();
    out.notes.push(format!(
        "explained over {:.3} s of untraced work: explained_share {:.3} ({})",
        untraced.as_secs_f64(),
        layers.get("explained_share"),
        parts.join(", ")
    ));
}

/// Writes the traced run's spans and notes where they went.
pub fn write_spans(out: &mut Outcome, cfg: &RunConfig, tracer: &spans::Tracer) {
    let path = cfg
        .span_dir
        .join(format!("spans-{}.jsonl", cfg.workload.name()));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "wrote {} spans to {} ({} dropped past the cap)",
            tracer.spans().len(),
            path.display(),
            tracer.dropped()
        )),
        Err(e) => out.problem(format!("cannot write {}: {e}", path.display())),
    }
}
