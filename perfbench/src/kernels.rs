//! Fixed-operation loops over one layer's public functions each, timed
//! on the host clock. Every kernel repeats its loop [`REPS`] times and
//! reports the median ns per operation, so one slow repetition does not
//! move the figure.
//!
//! Multiplied by the operation counts the program's telemetry records
//! for a workload, these figures say how much of the workload's timed
//! phase each layer accounts for (`explained_share`).

use crate::report::{median, Metric};
use bmhive_cloud::fleet::ExitCensus;
use bmhive_cloud::vswitch::{PortId, VSwitch};
use bmhive_iobond::{tx_rx_steps, IoBondProfile, ShadowQueue, StagingPool};
use bmhive_mem::{GuestAddr, GuestRam, SgList, SgSegment};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime, TokenBucket};
use bmhive_traffic::{Dispatch, PowerOfTwo};
use bmhive_virtio::{QueueLayout, Virtqueue, VirtqueueDriver};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each kernel loop.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `body` of the host ns per operation,
/// where one run performs `ops` operations.
fn ns_per_op(ops: u64, mut body: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut samples)
}

/// One split-ring round trip: driver add, device pop, device complete,
/// driver poll.
pub fn split_ring() -> f64 {
    const OPS: u64 = 20_000;
    let mut ram = GuestRam::new(1 << 20);
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 256);
    let mut driver = VirtqueueDriver::new(&mut ram, layout).expect("ring fits in RAM");
    let mut device = Virtqueue::new(layout);
    let seg = [SgSegment::new(GuestAddr::new(0x8_0000), 256)];
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            driver.add_buf(&mut ram, &seg, &[]).expect("ring has room");
            let chain = device.pop_avail(&ram).expect("valid ring").expect("posted");
            device
                .push_used(&mut ram, chain.head, 0)
                .expect("valid ring");
            black_box(driver.poll_used(&ram).expect("valid ring"));
        }
    })
}

/// One chain through an IO-Bond shadow queue: the guest posts a 64 B
/// chain, IO-Bond syncs it into the shadow ring, the backend consumes
/// and completes it, IO-Bond syncs the completion back, the guest
/// reaps it.
pub fn shadow_chain() -> f64 {
    const OPS: u64 = 10_000;
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(1 << 22);
    let guest_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 256);
    let shadow_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 256);
    let mut driver = VirtqueueDriver::new(&mut board, guest_layout).expect("ring fits");
    let pool = StagingPool::new(GuestAddr::new(0x10_0000), 512, 4096);
    let mut shadow = ShadowQueue::new(
        IoBondProfile::fpga(),
        guest_layout,
        shadow_layout,
        pool,
        &mut base,
    )
    .expect("shadow ring fits");
    let mut backend = Virtqueue::new(shadow.shadow_layout());
    let seg = [SgSegment::new(GuestAddr::new(0x8_0000), 64)];
    let mut completions = Vec::new();
    let mut now = SimTime::ZERO;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            driver
                .add_buf(&mut board, &seg, &[])
                .expect("ring has room");
            let sync = shadow
                .sync_to_shadow(&board, &mut base, now)
                .expect("valid ring");
            let chain = backend.pop_avail(&base).expect("valid").expect("synced");
            backend
                .push_used(&mut base, chain.head, 0)
                .expect("valid ring");
            shadow
                .sync_from_shadow(&mut board, &base, sync.done_at, &mut completions)
                .expect("valid ring");
            black_box(driver.poll_used(&board).expect("valid ring"));
            now = sync.done_at + SimDuration::from_micros(1);
        }
    })
}

/// Pricing the 14-step Fig. 6 Tx/Rx exchange.
pub fn exchange() -> f64 {
    const OPS: u64 = 20_000;
    let profile = IoBondProfile::fpga();
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let steps = tx_rx_steps(&profile, 64 + (i & 1023), 64);
            black_box(bmhive_iobond::steps::total_latency(&steps));
        }
    })
}

/// Scatter then gather of a 64 KiB, 16-segment list over guest RAM;
/// reported per KiB moved in one direction.
pub fn sg_copy_per_kib() -> f64 {
    const ROUNDS: u64 = 400;
    const KIB: u64 = 64;
    let mut ram = GuestRam::new(8 << 20);
    let sg = SgList::from_segments(
        (0..16u64)
            .map(|i| SgSegment::new(GuestAddr::new(0x10_0000 + i * 0x3000), 4096))
            .collect(),
    );
    let data = vec![0x5au8; (KIB << 10) as usize];
    let mut back = Vec::new();
    ns_per_op(ROUNDS * KIB, || {
        for _ in 0..ROUNDS {
            sg.scatter(&mut ram, &data).expect("list fits in RAM");
            sg.gather_into(&ram, &mut back).expect("list fits in RAM");
            black_box(&back);
        }
    })
}

/// One vSwitch forward to a local port (the port's frame is then
/// completed so depths stay flat). Reports the median over batches of
/// 64 forwards.
pub fn vswitch_forward() -> f64 {
    const BATCHES: usize = 400;
    const BATCH: u64 = 64;
    let mut sw = VSwitch::new(5);
    for g in 0..16u32 {
        sw.attach(MacAddr::for_guest(g + 1), PortId(g));
    }
    let mut now = SimTime::ZERO;
    let mut samples = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..BATCH {
            let dst = ((b as u64 * BATCH + i) % 16) as u32;
            let packet = Packet::new(
                MacAddr::for_guest(1),
                MacAddr::for_guest(dst + 1),
                PacketKind::Udp,
                512,
                i,
            );
            black_box(sw.forward(&packet, now));
            sw.complete(PortId(dst));
            now += SimDuration::from_micros(1);
        }
        samples.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&mut samples)
}

/// One `TokenBucket::acquire`.
pub fn token_bucket() -> f64 {
    const OPS: u64 = 200_000;
    let mut bucket = TokenBucket::new(1e6, 64.0);
    let mut now = SimTime::ZERO;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            now = bucket.acquire(now, 1.0) + SimDuration::from_nanos(500);
        }
        black_box(now);
    })
}

/// One `Histogram::record` of a latency-like value.
pub fn histogram_record() -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = SimRng::new(7);
    let values: Vec<f64> = (0..4096).map(|_| rng.exp(100.0)).collect();
    let mut h = Histogram::new();
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            h.record(values[i & 4095]);
        }
        black_box(h.count());
    })
}

/// One event through the timer wheel: schedule plus its share of
/// `pop_batch`, over rounds of 1024 events spread across 10 µs.
pub fn event_core() -> f64 {
    const ROUNDS: u64 = 100;
    const EVENTS: u64 = 1024;
    let mut q: EventQueue<u32> = EventQueue::with_capacity(EVENTS as usize);
    let mut batch = Vec::with_capacity(EVENTS as usize);
    ns_per_op(ROUNDS * EVENTS, || {
        for _ in 0..ROUNDS {
            let base = q.now();
            for e in 0..EVENTS {
                let offset = (e.wrapping_mul(2_654_435_761) % 10_000) / 10 * 10;
                q.schedule(base + SimDuration::from_nanos(offset + 1), e as u32);
            }
            while q.pop_batch(&mut batch) > 0 {
                black_box(&batch);
            }
        }
    })
}

/// One log-normal draw through `SimRng::fill_lognormal`.
pub fn rng_fill_per_draw() -> f64 {
    const ROUNDS: u64 = 50;
    const DRAWS: usize = 8192;
    let mut rng = SimRng::new(11);
    let mut buf = vec![0.0; DRAWS];
    ns_per_op(ROUNDS * DRAWS as u64, || {
        for _ in 0..ROUNDS {
            rng.fill_lognormal(4.0, 0.5, &mut buf);
            black_box(&buf);
        }
    })
}

/// One power-of-two-choices dispatch decision over 32 queue depths.
pub fn dispatch() -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = SimRng::new(13);
    let mut depths = [0u64; 32];
    let mut policy = PowerOfTwo;
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let g = policy.pick(&depths, &mut rng);
            depths[g] += 1;
            depths[(i % 32) as usize] = depths[(i % 32) as usize].saturating_sub(1);
        }
        black_box(&depths);
    })
}

/// One guest through the streaming exit-rate census.
pub fn census_guest() -> f64 {
    const GUESTS: u64 = 50_000;
    let mut seed = 0;
    ns_per_op(GUESTS, || {
        seed += 1;
        black_box(ExitCensus::run(
            GUESTS,
            &[10_000.0, 50_000.0, 100_000.0],
            seed,
        ));
    })
}

/// Every kernel, as the traced run's per-layer metrics (the `bench.par`
/// figures come from [`crate::paper`]).
pub fn all() -> Vec<Metric> {
    vec![
        Metric::new("virtio.split_ring.ns_per_op", split_ring(), "ns"),
        Metric::new("iobond.service.ns_per_chain", shadow_chain(), "ns"),
        Metric::new("iobond.exchange.ns", exchange(), "ns"),
        Metric::new("mem.sg_copy.ns_per_kib", sg_copy_per_kib(), "ns"),
        Metric::new("cloud.vswitch.forward.ns_p50", vswitch_forward(), "ns"),
        Metric::new("cloud.fleet.census_guest.ns", census_guest(), "ns"),
        Metric::new("sim.event.ns_per_event", event_core(), "ns"),
        Metric::new("sim.histogram_record.ns", histogram_record(), "ns"),
        Metric::new("sim.token_bucket.ns", token_bucket(), "ns"),
        Metric::new("sim.rng_fill.ns_per_draw", rng_fill_per_draw(), "ns"),
        Metric::new("traffic.dispatch.ns", dispatch(), "ns"),
    ]
}
