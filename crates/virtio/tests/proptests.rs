//! Property-based tests for the virtqueue: the invariants that make the
//! driver/device contract safe against arbitrary (including adversarial)
//! interleavings.

use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_sim::prop;
use bmhive_virtio::{QueueLayout, Virtqueue, VirtqueueDriver};

const CASES: u64 = 256;
const DATA_BASE: u64 = 0x40_000;

fn setup(size: u16) -> (GuestRam, VirtqueueDriver, Virtqueue) {
    let mut ram = GuestRam::new(1 << 20);
    let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), size);
    let driver = VirtqueueDriver::new(&mut ram, layout).unwrap();
    let device = Virtqueue::new(layout);
    (ram, driver, device)
}

/// Whatever mix of posts and completions happens, no descriptor is
/// ever leaked or double-allocated: after draining, every descriptor
/// is free again.
#[test]
fn descriptors_are_conserved() {
    prop::check("descriptors_are_conserved", CASES, |rng| {
        let ops = prop::vec(rng, 1..100, |r| {
            (r.range(1, 4), r.range(0, 3), r.chance(0.5))
        });
        let size = 32u16;
        let (mut ram, mut driver, mut device) = setup(size);
        for (n_read, n_write, drain_now) in ops {
            let readable: Vec<SgSegment> = (0..n_read)
                .map(|i| SgSegment::new(GuestAddr::new(DATA_BASE + i * 256), 64))
                .collect();
            let writable: Vec<SgSegment> = (0..n_write)
                .map(|i| SgSegment::new(GuestAddr::new(DATA_BASE + 0x8000 + i * 256), 64))
                .collect();
            // Post if room; otherwise skip (the error path is tested in
            // unit tests).
            let _ = driver.add_buf(&mut ram, &readable, &writable);
            if drain_now {
                while let Some(chain) = device.pop_avail(&ram).unwrap() {
                    device.push_used(&mut ram, chain.head, 0).unwrap();
                }
                while driver.poll_used(&ram).unwrap().is_some() {}
            }
        }
        // Final drain.
        while let Some(chain) = device.pop_avail(&ram).unwrap() {
            device.push_used(&mut ram, chain.head, 0).unwrap();
        }
        while driver.poll_used(&ram).unwrap().is_some() {}
        assert_eq!(driver.num_free(), size);
        assert_eq!(driver.outstanding(), 0);
        assert_eq!(device.popped_count(), device.completed_count());
    });
}

/// Payload bytes survive the queue: what the driver posts as readable
/// is exactly what the device gathers, for arbitrary payloads and
/// segmentation.
#[test]
fn payload_integrity() {
    prop::check("payload_integrity", CASES, |rng| {
        let payload = prop::bytes(rng, 1..2048);
        let cuts = prop::vec(rng, 0..4, |r| r.range(1, 2048) as usize);
        let (mut ram, mut driver, mut device) = setup(64);
        // Split the payload at the given cut points into segments.
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % payload.len()).collect();
        bounds.push(0);
        bounds.push(payload.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut segs = Vec::new();
        for w in bounds.windows(2) {
            let (start, end) = (w[0], w[1]);
            if start == end {
                continue;
            }
            let addr = GuestAddr::new(DATA_BASE + start as u64);
            ram.write(addr, &payload[start..end]).unwrap();
            segs.push(SgSegment::new(addr, (end - start) as u32));
        }
        driver.add_buf(&mut ram, &segs, &[]).unwrap();
        let chain = device.pop_avail(&ram).unwrap().unwrap();
        assert_eq!(chain.readable.gather(&ram).unwrap(), payload);
        device.push_used(&mut ram, chain.head, 0).unwrap();
    });
}

/// The device sees chains in the order the driver posted them (FIFO
/// through the avail ring), and completions carry the right written
/// lengths back to the right heads.
#[test]
fn avail_order_and_used_lengths() {
    prop::check("avail_order_and_used_lengths", CASES, |rng| {
        let lens = prop::vec(rng, 1..30, |r| r.range(1, 512) as u32);
        let (mut ram, mut driver, mut device) = setup(32);
        let mut posted = std::collections::VecDeque::new();
        for (i, &len) in lens.iter().enumerate() {
            let seg = SgSegment::new(GuestAddr::new(DATA_BASE + (i as u64) * 1024), 512);
            if let Ok(head) = driver.add_buf(&mut ram, &[], &[seg]) {
                posted.push_back((head, len));
            }
            // Device processes everything pending, writing `len` bytes.
            while let Some(chain) = device.pop_avail(&ram).unwrap() {
                let (expect_head, expect_len) = posted.front().copied().unwrap();
                assert_eq!(chain.head, expect_head);
                device.push_used(&mut ram, chain.head, expect_len).unwrap();
                let (got_head, got_len) = driver.poll_used(&ram).unwrap().unwrap();
                assert_eq!((got_head, got_len), (expect_head, expect_len));
                posted.pop_front();
            }
        }
        assert!(posted.is_empty());
    });
}

/// Indirect and direct posting are observationally equivalent to the
/// device.
#[test]
fn indirect_equals_direct() {
    prop::check("indirect_equals_direct", CASES, |rng| {
        let payload = prop::bytes(rng, 1..512);
        let n_segs = rng.range(1, 4) as usize;
        let (mut ram, mut driver_d, mut device_d) = setup(16);
        let seg_len = payload.len().div_ceil(n_segs);
        let mut segs = Vec::new();
        for (i, chunk) in payload.chunks(seg_len).enumerate() {
            let addr = GuestAddr::new(DATA_BASE + (i as u64) * 4096);
            ram.write(addr, chunk).unwrap();
            segs.push(SgSegment::new(addr, chunk.len() as u32));
        }
        driver_d.add_buf(&mut ram, &segs, &[]).unwrap();
        let direct = device_d.pop_avail(&ram).unwrap().unwrap();
        let direct_bytes = direct.readable.gather(&ram).unwrap();

        let mut ram2 = ram.clone();
        let layout2 = QueueLayout::contiguous(GuestAddr::new(0x9000), 16);
        let mut driver_i = VirtqueueDriver::new(&mut ram2, layout2).unwrap();
        let mut device_i = Virtqueue::new(layout2);
        driver_i
            .add_buf_indirect(&mut ram2, GuestAddr::new(0x20_000), &segs, &[])
            .unwrap();
        let indirect = device_i.pop_avail(&ram2).unwrap().unwrap();
        assert_eq!(indirect.readable.gather(&ram2).unwrap(), direct_bytes);
        assert_eq!(direct_bytes, payload);
    });
}

/// `need_event` agrees with the direct definition: the event fires
/// iff the threshold `event` lies in the half-open window
/// `(old, new]` (mod 2^16), for any distance travelled.
#[test]
fn need_event_matches_window_semantics() {
    prop::check("need_event_matches_window_semantics", CASES, |rng| {
        let old = rng.next_u32() as u16;
        let steps = rng.range(0, 1000) as u16;
        let event_offset = rng.next_u32() as u16;
        let new = old.wrapping_add(steps);
        let event = old.wrapping_add(event_offset);
        let expected = steps > 0
            && u32::from(event.wrapping_sub(old)) >= 1
            && event.wrapping_sub(old) <= steps;
        assert_eq!(
            bmhive_virtio::queue::need_event(event, new, old),
            expected,
            "old {} new {} event {}",
            old,
            new,
            event
        );
    });
}

/// A device walking rings filled with arbitrary garbage never
/// panics: it returns Ok(None), Ok(chain) or a typed error.
#[test]
fn fuzzed_rings_never_panic() {
    prop::check("fuzzed_rings_never_panic", CASES, |rng| {
        let garbage = prop::bytes(rng, 256..2048);
        let mut ram = GuestRam::new(1 << 20);
        let layout = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
        ram.write(GuestAddr::new(0x1000), &garbage).unwrap();
        let mut device = Virtqueue::new(layout);
        for _ in 0..64 {
            // Both outcomes are acceptable; panicking is not.
            let _ = device.pop_avail(&ram);
        }
    });
}
