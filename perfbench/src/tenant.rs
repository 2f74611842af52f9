//! `tenant_net` and `tenant_disk`: one production server filled with
//! 16 booted Atom boards, driven through `BmHiveServer::guest_send` or
//! `guest_blk`.
//!
//! The traced run first replays the stream's first operations one layer
//! down, on the server's own sessions with a vSwitch and block store of
//! its own, so the spans split `guest_send` and `guest_blk` into
//! hypervisor and cloud calls; `core.self_share` is the part of the
//! server call those layers do not cover. It then times every server
//! call, and repeats the same operations with the program's telemetry on
//! for exact per-layer counts and the tracing overhead.

use crate::report::{median, percentile};
use crate::spans::Tracer;
use crate::streams::{payload_bytes, DiskOp, DiskStream, NetOp, NetStream, DISK_SIZES, TENANTS};
use crate::{
    end_to_end, note_explained, repeat_setup, timed_phase, write_spans, Layers, Outcome, RunConfig,
};
use bmhive_cloud::blockstore::{BlockStore, StorageClass};
use bmhive_cloud::catalog::{InstanceType, ServerConstraints, INSTANCE_CATALOG};
use bmhive_cloud::image::MachineImage;
use bmhive_cloud::vswitch::{Forwarded, PortId, VSwitch};
use bmhive_core::{BmHiveServer, GuestId};
use bmhive_net::{MacAddr, PacketKind};
use bmhive_sim::SimTime;
use bmhive_telemetry as telemetry;
use bmhive_virtio::{BlkRequestType, BlkStatus};
use std::time::Instant;

/// Share of `--seconds` the traced run spends on its untraced, timed
/// pass; the telemetry pass repeats the same operations.
const TRACE_SHARE: f64 = 0.35;
/// Operations the traced run replays one layer down.
const REPLAY_OPS: usize = 20_000;
/// The replay's span for the server call it interleaves with the
/// layered calls, so both see the same server state.
const SERVER_CALL: &str = "replay.server_call";
/// Operations run with telemetry on after the timed phase, to check
/// that every virtio chain was popped and completed.
const QUIESCE_OPS: usize = 256;

/// The dense server under test.
struct Server {
    server: BmHiveServer,
    guests: Vec<GuestId>,
    macs: Vec<MacAddr>,
    now: SimTime,
}

fn atom() -> &'static InstanceType {
    INSTANCE_CATALOG
        .iter()
        .find(|i| i.name == "ebm.atom.16xlarge")
        .expect("the catalog lists the Atom board")
}

/// Builds the server: 16 Atom boards installed and powered on, each
/// `power_on` timed into `tracer` as `core.power_on`.
///
/// # Errors
///
/// Describes the first install or boot that failed.
fn build(seed: u64, tracer: &mut Tracer) -> Result<Server, String> {
    let mut server = BmHiveServer::new(ServerConstraints::production(), seed);
    let image = MachineImage::centos_evaluation(1);
    let mut guests = Vec::with_capacity(TENANTS);
    let mut macs = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let board = server
            .install_board(atom())
            .map_err(|e| format!("install board {i}: {e}"))?;
        let span = tracer.begin(i as u64, None, "core.power_on");
        let guest = server.power_on(board, &image, SimTime::ZERO);
        tracer.end(span);
        let guest = guest.map_err(|e| format!("power on board {i}: {e}"))?;
        macs.push(server.guest_mac(guest).map_err(|e| e.to_string())?);
        guests.push(guest);
    }
    let now = guests
        .iter()
        .map(|&g| server.boot_report(g).map(|b| b.finished_at))
        .try_fold(SimTime::ZERO, |acc, t| t.map(|t| acc.max(t)))
        .map_err(|e| e.to_string())?;
    Ok(Server {
        server,
        guests,
        macs,
        now,
    })
}

impl Server {
    /// Per-tenant (packets sent, packets received, block ops) counters.
    fn counters(&mut self) -> Vec<(u64, u64, u64)> {
        self.guests
            .clone()
            .into_iter()
            .map(|g| {
                self.server
                    .guest_mut(g)
                    .map(|s| s.counters())
                    .unwrap_or_default()
            })
            .collect()
    }
}

/// One workload's operations on the dense server.
trait Mix {
    type Op: Copy;
    /// Operations per timed chunk (about 50 ms).
    const CHUNK: u64;
    /// The seeded operation stream.
    fn stream(seed: u64) -> Box<dyn Iterator<Item = Self::Op>>;
    /// The span an operation is timed under.
    fn span(op: &Self::Op) -> &'static str;
    /// Issues one operation and checks its result.
    fn issue(&mut self, s: &mut Server, op: Self::Op) -> Result<(), String>;
    /// After the run: checks the server's counters against what the
    /// issued operations imply, returning the operations they show as
    /// lost.
    fn check(
        &self,
        before: &[(u64, u64, u64)],
        after: &[(u64, u64, u64)],
        out: &mut Outcome,
    ) -> u64;
    /// Replays `ops` one layer down on the server's own sessions,
    /// timing each layer call.
    fn replay(&mut self, s: &mut Server, seed: u64, ops: &[Self::Op], tracer: &mut Tracer);
    /// Brings every tenant's rings to rest, so ring counters taken
    /// between two flushes balance.
    fn flush(&mut self, _s: &mut Server) {}
    /// Sets the `core.*` and `hypervisor.*` timings from the spans.
    fn layer_times(tracer: &Tracer, layers: &mut Layers);
}

/// `guest_send` frames between random co-resident tenants.
struct Net {
    payload: Vec<u8>,
    /// Frames each tenant should have received.
    expected_rx: Vec<u64>,
    sent: u64,
}

impl Mix for Net {
    type Op = NetOp;
    const CHUNK: u64 = 5000;

    fn stream(seed: u64) -> Box<dyn Iterator<Item = NetOp>> {
        Box::new(NetStream::new(seed))
    }

    fn span(_: &NetOp) -> &'static str {
        "core.guest_send"
    }

    fn issue(&mut self, s: &mut Server, op: NetOp) -> Result<(), String> {
        let t = s
            .server
            .guest_send(
                s.guests[op.from],
                s.macs[op.to],
                &self.payload[..op.len],
                s.now,
            )
            .map_err(|e| e.to_string())?;
        s.now = t.completed;
        self.expected_rx[op.to] += 1;
        self.sent += 1;
        Ok(())
    }

    fn check(
        &self,
        before: &[(u64, u64, u64)],
        after: &[(u64, u64, u64)],
        out: &mut Outcome,
    ) -> u64 {
        let mut lost = 0;
        let sent: u64 = before.iter().zip(after).map(|(b, a)| a.0 - b.0).sum();
        if sent != self.sent {
            out.problem(format!("{} frames sent, tenants counted {sent}", self.sent));
        }
        for (g, ((b, a), want)) in before.iter().zip(after).zip(&self.expected_rx).enumerate() {
            let got = a.1 - b.1;
            if got != *want {
                out.problem(format!(
                    "tenant {g} received {got} frames, {want} were sent to it"
                ));
                lost += got.abs_diff(*want);
            }
        }
        lost
    }

    fn replay(&mut self, s: &mut Server, _seed: u64, ops: &[NetOp], tracer: &mut Tracer) {
        let mut switch = VSwitch::new(5);
        for (g, mac) in s.macs.iter().enumerate() {
            switch.attach(*mac, PortId(g as u32));
        }
        for (i, op) in ops.iter().enumerate() {
            let i = i as u64;
            let payload = &self.payload[..op.len];
            let (dst, now) = (s.macs[op.to], s.now);
            if i % 2 == 1 {
                let from = s.guests[op.from];
                let r = tracer.time(i, None, SERVER_CALL, || {
                    s.server.guest_send(from, dst, payload, now)
                });
                if let Ok(t) = r {
                    s.now = t.completed;
                }
                continue;
            }
            let root = tracer.begin(i, None, "replay.guest_send");
            let sent = s.server.guest_mut(s.guests[op.from]).map(|sender| {
                tracer.time(i, Some(root), "hypervisor.net_send", || {
                    sender.net_send(dst, PacketKind::Udp, payload, now)
                })
            });
            if let Ok(Ok((egress, timing))) = sent {
                s.now = timing.completed;
                let fwd = tracer.time(i, Some(root), "cloud.vswitch.forward", || {
                    switch.forward(&egress.packet, egress.at)
                });
                if let Forwarded::Local(port, at) = fwd {
                    if let Ok(receiver) = s.server.guest_mut(s.guests[port.0 as usize]) {
                        let rx = tracer.time(i, Some(root), "hypervisor.net_receive", || {
                            receiver.net_receive(&egress.payload, at)
                        });
                        if let Ok((_, t)) = rx {
                            s.now = s.now.max(t.completed);
                        }
                    }
                }
            }
            tracer.end(root);
        }
    }

    /// Each tenant sends one frame off the server: the send syncs the
    /// tenant's posted rx buffers into its shadow ring and, going to
    /// the uplink, posts no new one.
    fn flush(&mut self, s: &mut Server) {
        let outside = MacAddr::for_guest(TENANTS as u32 + 1000);
        for &g in &s.guests {
            if let Ok(t) = s.server.guest_send(g, outside, &self.payload[..64], s.now) {
                s.now = t.completed;
            }
        }
    }

    fn layer_times(tracer: &Tracer, layers: &mut Layers) {
        let mut send = tracer.durations("core.guest_send");
        layers.set("core.guest_send.ns_p50", percentile(&mut send, 50.0));
        layers.set("core.guest_send.ns_p99", percentile(&mut send, 99.0));
        for (metric, span) in [
            ("hypervisor.net_send.ns_p50", "hypervisor.net_send"),
            ("hypervisor.net_receive.ns_p50", "hypervisor.net_receive"),
        ] {
            layers.set(metric, median(&mut tracer.durations(span)));
        }
        let below = mean(&tracer.durations("hypervisor.net_send"))
            + mean(&tracer.durations("cloud.vswitch.forward"))
            + mean(&tracer.durations("hypervisor.net_receive"));
        layers.set("core.self_share", self_share(tracer, below));
    }
}

/// `guest_blk` cloud-disk reads and writes.
struct Disk {
    data: Vec<u8>,
    issued: u64,
}

impl Disk {
    fn request(op: &DiskOp) -> (BlkRequestType, usize, u64) {
        if op.write {
            (BlkRequestType::Out, op.len as usize, 0)
        } else {
            (BlkRequestType::In, 0, op.len)
        }
    }

    fn verify(op: &DiskOp, status: BlkStatus, read: &[u8]) -> Result<(), String> {
        if status != BlkStatus::Ok {
            return Err(format!("{op:?} completed with {status:?}"));
        }
        if !op.write && read.len() as u64 != op.len {
            return Err(format!("{op:?} read {} bytes", read.len()));
        }
        Ok(())
    }
}

impl Mix for Disk {
    type Op = DiskOp;
    const CHUNK: u64 = 1000;

    fn stream(seed: u64) -> Box<dyn Iterator<Item = DiskOp>> {
        Box::new(DiskStream::new(seed))
    }

    fn span(op: &DiskOp) -> &'static str {
        if op.write {
            "core.guest_blk_write"
        } else {
            "core.guest_blk_read"
        }
    }

    fn issue(&mut self, s: &mut Server, op: DiskOp) -> Result<(), String> {
        let (req, wlen, rlen) = Disk::request(&op);
        let (status, read, t) = s
            .server
            .guest_blk(
                s.guests[op.guest],
                req,
                op.sector,
                &self.data[..wlen],
                rlen,
                s.now,
            )
            .map_err(|e| e.to_string())?;
        Disk::verify(&op, status, &read)?;
        s.now = t.completed;
        self.issued += 1;
        Ok(())
    }

    fn check(
        &self,
        before: &[(u64, u64, u64)],
        after: &[(u64, u64, u64)],
        out: &mut Outcome,
    ) -> u64 {
        let done: u64 = before.iter().zip(after).map(|(b, a)| a.2 - b.2).sum();
        if done != self.issued {
            out.problem(format!(
                "{} block requests completed, tenants counted {done}",
                self.issued
            ));
        }
        done.abs_diff(self.issued)
    }

    fn replay(&mut self, s: &mut Server, seed: u64, ops: &[DiskOp], tracer: &mut Tracer) {
        let mut store = BlockStore::new(StorageClass::CloudSsd, seed);
        for (i, op) in ops.iter().enumerate() {
            let i = i as u64;
            let (req, wlen, rlen) = Disk::request(op);
            let (guest, data, now) = (s.guests[op.guest], &self.data[..wlen], s.now);
            let done = if i % 2 == 1 {
                tracer
                    .time(i, None, SERVER_CALL, || {
                        s.server.guest_blk(guest, req, op.sector, data, rlen, now)
                    })
                    .map(|(_, _, t)| t.completed)
                    .ok()
            } else {
                s.server.guest_mut(guest).ok().and_then(|session| {
                    tracer
                        .time(i, None, "hypervisor.blk_request", || {
                            session.blk_request(&mut store, req, op.sector, data, rlen, now)
                        })
                        .map(|(_, _, t)| t.completed)
                        .ok()
                })
            };
            if let Some(t) = done {
                s.now = t;
            }
        }
    }

    fn layer_times(tracer: &Tracer, layers: &mut Layers) {
        for kind in ["read", "write"] {
            let span = if kind == "read" {
                "core.guest_blk_read"
            } else {
                "core.guest_blk_write"
            };
            let mut d = tracer.durations(span);
            layers.set(
                format!("core.guest_blk_{kind}.ns_p50"),
                percentile(&mut d, 50.0),
            );
            layers.set(
                format!("core.guest_blk_{kind}.ns_p99"),
                percentile(&mut d, 99.0),
            );
        }
        let below = mean(&tracer.durations("hypervisor.blk_request"));
        layers.set(
            "hypervisor.blk_request.ns_p50",
            median(&mut tracer.durations("hypervisor.blk_request")),
        );
        layers.set("core.self_share", self_share(tracer, below));
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The share of the mean interleaved server call (`SERVER_CALL`
/// spans) that the layer calls below it, `below` ns per operation on
/// average, do not cover; 0 when they cover all of it.
fn self_share(tracer: &Tracer, below: f64) -> f64 {
    let total = mean(&tracer.durations(SERVER_CALL));
    if total > 0.0 {
        (1.0 - below / total).max(0.0)
    } else {
        0.0
    }
}

/// Runs `tenant_net`.
pub fn run_net(cfg: &RunConfig) -> Outcome {
    let net = Net {
        payload: payload_bytes(cfg.seed, crate::streams::FRAME_MAX),
        expected_rx: vec![0; TENANTS],
        sent: 0,
    };
    run_mix(cfg, net)
}

/// Runs `tenant_disk`.
pub fn run_disk(cfg: &RunConfig) -> Outcome {
    let disk = Disk {
        data: payload_bytes(cfg.seed, DISK_SIZES[DISK_SIZES.len() - 1] as usize),
        issued: 0,
    };
    run_mix(cfg, disk)
}

/// Issues the next `count` operations of `stream`, timing each into
/// `tracer` when given. Returns (attempted, failed).
fn issue_ops<M: Mix>(
    mix: &mut M,
    s: &mut Server,
    stream: &mut dyn Iterator<Item = M::Op>,
    count: u64,
    mut tracer: Option<(&mut Tracer, &mut u64)>,
    out_errors: &mut Vec<String>,
) -> (u64, u64) {
    let mut failed = 0;
    for op in stream.take(count as usize) {
        let r = match tracer.as_mut() {
            Some((t, next_op)) => {
                let id = **next_op;
                **next_op += 1;
                t.time(id, None, M::span(&op), || mix.issue(s, op))
            }
            None => mix.issue(s, op),
        };
        if let Err(e) = r {
            failed += 1;
            if out_errors.len() < 8 {
                out_errors.push(e);
            }
        }
    }
    (count, failed)
}

fn run_mix<M: Mix>(cfg: &RunConfig, mut mix: M) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let (mut setup, built) = repeat_setup(|| build(cfg.seed, &mut tracer));
    let mut s = match built {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("set-up failed: {e}"));
            return out;
        }
    };
    if cfg.trace {
        // One layer down first, while the span budget is untouched: the
        // stream's first operations on the server's own sessions.
        let replay: Vec<M::Op> = M::stream(cfg.seed).take(REPLAY_OPS).collect();
        mix.replay(&mut s, cfg.seed, &replay, &mut tracer);
    }
    let before = s.counters();
    let mut errors = Vec::new();
    let mut stream = M::stream(cfg.seed);

    if !cfg.trace {
        let mut timed = timed_phase(cfg.seconds, || {
            issue_ops(&mut mix, &mut s, &mut stream, M::CHUNK, None, &mut errors)
        });
        end_to_end(&mut out, &mut setup, &mut timed);
        let after = s.counters();
        out.failed += mix.check(&before, &after, &mut out);
    } else {
        let mut layers = Layers::default();
        layers.set(
            "core.power_on.ns_p50",
            median(&mut tracer.durations("core.power_on")),
        );
        // Untraced, timed: every call in a span.
        let mut next_op = 0u64;
        let timed = timed_phase(cfg.seconds * TRACE_SHARE, || {
            issue_ops(
                &mut mix,
                &mut s,
                &mut stream,
                M::CHUNK,
                Some((&mut tracer, &mut next_op)),
                &mut errors,
            )
        });
        // The same operations again with the program's telemetry on.
        let mut again = M::stream(cfg.seed);
        telemetry::set_enabled(true);
        telemetry::reset();
        let t = Instant::now();
        let (_, failed) = issue_ops(&mut mix, &mut s, &mut again, timed.ops, None, &mut errors);
        let traced = t.elapsed();
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        out.attempted += 2 * timed.ops;
        out.failed += timed.failed + failed;
        let after = s.counters();
        out.failed += mix.check(&before, &after, &mut out);
        layers.set(
            "telemetry.trace_overhead",
            traced.as_secs_f64() / timed.work.as_secs_f64(),
        );

        M::layer_times(&tracer, &mut layers);
        layers.add_kernels();
        layers.add_registry(&snap.registry);
        let terms = layers.explain(&snap.registry, timed.work);
        note_explained(&mut out, &layers, &terms, timed.work);
        out.notes.push(format!(
            "traced: {} ops untraced in {:.3} s, again with telemetry in {:.3} s",
            timed.ops,
            timed.work.as_secs_f64(),
            traced.as_secs_f64()
        ));
        write_spans(&mut out, cfg, &tracer);
        layers.finish(&mut out);
    }

    quiesce_check(&mut mix, &mut s, &mut stream, &mut errors, &mut out);
    for e in errors {
        out.problem(format!("operation failed: {e}"));
    }
    out
}

/// Runs [`QUIESCE_OPS`] more operations between two flushes with
/// telemetry on and checks that the virtio rings balance: every chain
/// published was popped and completed.
fn quiesce_check<M: Mix>(
    mix: &mut M,
    s: &mut Server,
    stream: &mut dyn Iterator<Item = M::Op>,
    errors: &mut Vec<String>,
    out: &mut Outcome,
) {
    mix.flush(s);
    telemetry::set_enabled(true);
    telemetry::reset();
    issue_ops(mix, s, stream, QUIESCE_OPS as u64, None, errors);
    mix.flush(s);
    let reg = telemetry::snapshot().registry;
    telemetry::set_enabled(false);
    telemetry::reset();
    let counts = [
        reg.counter("virtio.chains_published"),
        reg.counter("virtio.chains_popped"),
        reg.counter("virtio.used_completions"),
    ];
    if counts[0] == 0 || counts.iter().any(|&c| c != counts[0]) {
        out.problem(format!(
            "virtio rings unbalanced at quiesce: published {}, popped {}, used {}",
            counts[0], counts[1], counts[2]
        ));
    }
}
